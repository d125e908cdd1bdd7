//! The benchmark's own CPU canary. The host the benchmark was sized on
//! shares its cores with other tenants, and for seconds to tens of seconds
//! at a time a contended core runs the pipeline up to 1.8× slower. Sorting a
//! fixed array of integers (cache-resident, branchy, like the codecs'
//! entropy and search loops) slows down with it. Every timed call is scaled
//! by `REF_S ÷` the canary pass run just before its op, which takes most of
//! the contention out of the gated times. The canary is the benchmark's own
//! code, so a change to the workspace never moves it.

use std::hint::black_box;
use std::time::Instant;

/// Values sorted per pass (64 KiB of `u32`).
const LEN: usize = 1 << 14;
/// One pass on the sizing host with its core uncontended, seconds. Scaled
/// times read as times on that host at that speed.
pub const REF_S: f64 = 305e-6;

pub struct Canary {
    buf: Vec<u32>,
}

impl Default for Canary {
    fn default() -> Self {
        Canary { buf: vec![0; LEN] }
    }
}

impl Canary {
    /// Seconds of one pass: fill the array from a fixed xorshift stream and
    /// sort it.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        let mut s = 0x9E37_79B9u32;
        for x in &mut self.buf {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            *x = s;
        }
        black_box(&mut self.buf).sort_unstable();
        black_box(&self.buf);
        t.elapsed().as_secs_f64()
    }

    /// The factor that scales a time measured now to the reference speed:
    /// `REF_S ÷` one pass.
    pub fn factor(&mut self) -> f64 {
        REF_S / self.pass().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_do_the_same_work_and_sort() {
        let mut c = Canary::default();
        assert!(c.pass() > 0.0);
        let first = c.buf.clone();
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        assert!(c.factor() > 0.0);
        assert_eq!(c.buf, first);
    }
}
