//! Summary arithmetic shared by every workload: medians, the tail rule,
//! throughput and ratio, and the FNV-1a fingerprint of outputs.

use std::collections::BTreeMap;

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A latency tail: the value, the percentile it sits at, and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least [`TAIL_BEYOND`] samples
/// beyond it, and the value there (nearest rank: the value at rank
/// `r = n − 10` has exactly ten samples after it, and `100·r/n` is the
/// highest percentile whose nearest rank is `r`). With ten samples or fewer
/// no percentile qualifies; the maximum is reported at percentile 100 so the
/// shortfall is visible beside the value.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - TAIL_BEYOND;
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

/// Timed calls of one kind, keyed by what they processed (field, target).
/// Each call is kept as measured and scaled to the canary's reference speed
/// (`canary::REF_S ÷` the canary pass before its op).
#[derive(Debug, Default)]
pub struct Timed {
    /// Every call's seconds as measured, in the order they ran.
    pub all: Vec<f64>,
    /// Every call's scaled seconds, in the order they ran.
    pub scaled: Vec<f64>,
    /// Bytes processed by all calls.
    pub bytes: u64,
    /// Per key: bytes one call processes, and each call's scaled seconds.
    by_key: BTreeMap<(usize, usize), (u64, Vec<f64>)>,
}

impl Timed {
    /// Record one call of `seconds` on `key`, with the canary factor of its
    /// op.
    pub fn push(&mut self, key: (usize, usize), bytes: u64, seconds: f64, factor: f64) {
        self.all.push(seconds);
        self.scaled.push(seconds * factor);
        self.bytes += bytes;
        let e = self.by_key.entry(key).or_insert((bytes, Vec::new()));
        e.0 = bytes;
        e.1.push(seconds * factor);
    }

    pub fn total_scaled_s(&self) -> f64 {
        self.scaled.iter().sum()
    }

    /// One pass over the inputs at each input's median scaled call, in
    /// seconds: Σ median seconds per key.
    pub fn median_pass_s(&self) -> f64 {
        self.by_key.values().map(|(_, v)| median(v)).sum()
    }

    /// Mean over keys of each key's median scaled call, in seconds.
    pub fn mean_key_median_s(&self) -> f64 {
        self.median_pass_s() / self.by_key.len().max(1) as f64
    }

    /// Throughput of one pass over the inputs at each input's median scaled
    /// call, in MB/s: Σ bytes per key over Σ median seconds per key.
    pub fn median_mb_per_s(&self) -> f64 {
        let bytes = self.by_key.values().map(|(bytes, _)| bytes).sum();
        mb_per_s(bytes, self.median_pass_s())
    }
}

/// Megabytes (10⁶ B) per second.
pub fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-12)
}

/// Compression ratio: input bytes over artifact bytes.
pub fn ratio(input_bytes: u64, artifact_bytes: u64) -> f64 {
    input_bytes as f64 / artifact_bytes.max(1) as f64
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of an `f32` array (bitwise identity
/// of decoded values).
pub fn fnv1a_f32(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Quality of one reconstruction against its input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub psnr_db: f64,
    /// max |x − x̂| ÷ value range of x.
    pub max_err_rel: f64,
}

pub fn quality(original: &[f32], decoded: &[f32]) -> Quality {
    let range = dpz_data::metrics::value_range(original);
    Quality {
        psnr_db: dpz_data::metrics::psnr(original, decoded),
        max_err_rel: dpz_data::metrics::max_abs_error(original, decoded)
            / range.max(f64::MIN_POSITIVE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: rank 90 → p90, value 90, ten values (91..=100) beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_rule_on_small_and_large_counts() {
        // 15 samples: rank 5 → p33.3, five values at or below, ten beyond.
        let v: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 5.0);
        assert!((t.percentile - 100.0 * 5.0 / 15.0).abs() < 1e-12);
        // 1000 samples: p99.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert!((t.percentile - 99.0).abs() < 1e-12);
        assert_eq!(t.value, 990.0);
        // Too few samples: the maximum, flagged at p100.
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn throughput_and_ratio_arithmetic() {
        // 25.92 MB in 1.2 s.
        let mb = mb_per_s(25_920_000, 1.2);
        assert!((mb - 21.6).abs() < 1e-9);
        // MB are decimal: 1 MiB in 1 s is 1.048576 MB/s.
        assert!((mb_per_s(1 << 20, 1.0) - 1.048576).abs() < 1e-12);
        assert!((ratio(25_920_000, 175_737) - 147.493_128).abs() < 1e-5);
        assert_eq!(ratio(10, 0), 10.0);
    }

    #[test]
    fn keyed_throughput_uses_each_keys_median_scaled_call() {
        let mut t = Timed::default();
        // Key A: 2 MB per call; 40 calls at 1 s on a free core (factor 1),
        // ten at 1.6 s on a contended core whose canary ran 1.6× slower
        // (factor 1/1.6), and one 9 s stall. Key B: 1 MB at 0.5 s.
        for i in 0..51 {
            let (s, f) = match i {
                0 => (9.0, 1.0),
                1..=10 => (1.6, 1.0 / 1.6),
                _ => (1.0, 1.0),
            };
            t.push((0, 0), 2_000_000, s, f);
        }
        t.push((1, 0), 1_000_000, 0.5, 1.0);
        assert_eq!(t.all.len(), 52);
        assert!((t.all.iter().sum::<f64>() - 65.5).abs() < 1e-9);
        assert!((t.total_scaled_s() - 59.5).abs() < 1e-9);
        // Key A's median scaled call is 1 s: 3 MB over 1.5 s.
        assert!((t.median_mb_per_s() - 2.0).abs() < 1e-12);
        assert!((t.mean_key_median_s() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let v = [1.5f32, -2.0];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(fnv1a_f32(&v), fnv1a(&bytes));
    }

    #[test]
    fn quality_of_exact_and_offset_reconstructions() {
        let x = [0.0f32, 1.0, 2.0, 4.0];
        assert_eq!(quality(&x, &x).max_err_rel, 0.0);
        let y = [0.0f32, 1.0, 2.0, 5.0];
        let q = quality(&x, &y);
        assert!((q.max_err_rel - 0.25).abs() < 1e-12);
        // mse = 1/4, range 4 → 20·log10(4) − 10·log10(0.25) = 18.06 dB.
        assert!((q.psnr_db - 18.061_799_739_838_87).abs() < 1e-9);
    }
}
