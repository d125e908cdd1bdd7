//! The result gauges (`dpz_compression_ratio`, `dpz_k_selected`,
//! `dpz_tve_achieved`) describe what a public compress call returned: the
//! artifact's ratio, and the first stream's `k` and TVE where the writer
//! reports stage stats. A chunked write encodes one stream per chunk on
//! pool workers, so a gauge set per encode would read whichever chunk
//! finished last. A binary of its own, because the telemetry registry is
//! process-global and a test running beside this one would set the gauges
//! it reads.

use dpz_core::{compress, compress_chunked, compress_progressive, DpzConfig, QualityTarget};
use dpz_data::{Dataset, DatasetKind, Scale};

fn gauges() -> (f64, f64, f64) {
    let reg = dpz_telemetry::global();
    (
        reg.gauge("dpz_compression_ratio").get(),
        reg.gauge("dpz_k_selected").get(),
        reg.gauge("dpz_tve_achieved").get(),
    )
}

#[test]
fn gauges_report_the_returned_artifact() {
    let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Small, 2021);
    let (data, dims) = (&ds.data[..], &ds.dims[..]);
    let cfg = DpzConfig::loose();

    // Chunked: the container's ratio and chunk 0's k and TVE — what the
    // CLI summary prints — not the last chunk to finish encoding.
    let out = compress_chunked(data, dims, &cfg, 8).unwrap();
    let first = &out.chunk_stats[0];
    assert!(
        out.chunk_stats.iter().any(|s| s.cr_total != out.cr_total),
        "every chunk has the container's ratio; the case cannot tell them apart"
    );
    assert_eq!(gauges(), (out.cr_total, first.k as f64, first.tve_achieved));

    // Progressive containers carry no stage stats: the ratio is the
    // container's, and k and TVE keep the previous call's values.
    let out = compress_progressive(data, dims, &cfg, 4).unwrap();
    let (ratio, k, tve) = gauges();
    assert_eq!(ratio, out.cr_total);
    assert_eq!((k, tve), (first.k as f64, first.tve_achieved));

    // Single stream, static bound and a ratio target whose control loop
    // may compress twice: the gauges follow the artifact returned.
    for cfg in [
        cfg,
        cfg.with_target(QualityTarget::Ratio {
            target: 8.0,
            tol: 0.1,
        }),
    ] {
        let out = compress(data, dims, &cfg).unwrap();
        assert_eq!(
            gauges(),
            (
                out.stats.cr_total,
                out.stats.k as f64,
                out.stats.tve_achieved
            ),
            "{:?}",
            cfg.target
        );
    }
}
