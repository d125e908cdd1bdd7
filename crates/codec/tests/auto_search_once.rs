//! One SZ bound search per `AutoCodec` ratio op: the SZ winner compresses
//! at the bound its probe already searched. A binary of its own, because
//! the telemetry registry is process-global and a test running beside this
//! one would add to the counter it reads.

use dpz_codec::{AutoCodec, Codec, DpzCodec, QualityTarget};
use dpz_data::{Dataset, DatasetKind, Scale};

const RATIO20: QualityTarget = QualityTarget::Ratio {
    target: 20.0,
    tol: 0.1,
};

fn oracle_calls() -> u64 {
    dpz_telemetry::global()
        .counter("dpz_target_oracle_calls_total")
        .get()
}

#[test]
fn an_sz_won_ratio_op_searches_once() {
    let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Small, 1);
    let (src, dims) = (&ds.data[..], &ds.dims[..]);
    let auto = AutoCodec::new();

    // ZFP resolves a ratio in closed form, so the two searching probes
    // are the whole of a selection's searches. The DPZ probe may refuse
    // the target (the selection then drops it); its search counts anyway.
    let before = oracle_calls();
    let _ = DpzCodec::default().probe(src, dims, &RATIO20);
    auto.sz.probe(src, dims, &RATIO20).expect("SZ probe");
    let probes_alone = oracle_calls() - before;
    assert!(probes_alone > 0, "the probes recorded no search");

    let before = oracle_calls();
    let stats = auto
        .compress_with_target(src, dims, &RATIO20, &mut Vec::new())
        .expect("AutoCodec ratio op");
    let op = oracle_calls() - before;
    assert_eq!(stats.codec, "sz", "the input must be an SZ-won ratio op");
    assert_eq!(
        op, probes_alone,
        "an SZ-won ratio op spent {op} oracle calls; its probes alone spend {probes_alone}"
    );
}
