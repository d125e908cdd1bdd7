//! Property tests: the SZ pointwise error bound must hold for arbitrary
//! finite inputs, shapes and predictors, the encoder's reconstruction must
//! be the decode bit for bit, and the decoder must never panic.

use dpz_sz::{compress, compress_reconstructed, decompress, Predictor, SzConfig};
use proptest::prelude::*;

fn dims_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        (16usize..400).prop_map(|n| vec![n]),
        ((3usize..24), (3usize..24)).prop_map(|(a, b)| vec![a, b]),
        ((2usize..10), (2usize..10), (2usize..10)).prop_map(|(a, b, c)| vec![a, b, c]),
    ]
}

/// A noisy sine over `n` values.
fn noisy_sine(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            ((i as f64 * 0.1).sin() * 5.0 + noise) as f32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bound_holds_for_any_input(
        dims in dims_strategy(),
        seed in any::<u64>(),
        eb_exp in -5i32..-1,
        predictor_pick in 0u8..2,
    ) {
        let n: usize = dims.iter().product();
        let data = noisy_sine(n, seed);
        let eb = 10f64.powi(eb_exp);
        let predictor = if predictor_pick == 0 { Predictor::Lorenzo } else { Predictor::Auto };
        let cfg = SzConfig::with_error_bound(eb).with_predictor(predictor);
        let packed = compress(&data, &dims, &cfg);
        let (out, got_dims) = decompress(&packed).unwrap();
        prop_assert_eq!(got_dims, dims);
        for (a, b) in data.iter().zip(&out) {
            prop_assert!((f64::from(*a) - f64::from(*b)).abs() <= eb * (1.0 + 1e-9));
        }
    }

    #[test]
    fn reconstruction_is_the_decode(
        dims in dims_strategy(),
        seed in any::<u64>(),
        eb_exp in -7i32..-1,
        spike in any::<usize>(),
    ) {
        let n: usize = dims.iter().product();
        let mut data = noisy_sine(n, seed);
        // One value far outside the code radius, so the outlier path runs.
        data[spike % n] = 3.0e38;
        let eb = 10f64.powi(eb_exp);
        for predictor in [Predictor::Lorenzo, Predictor::Auto] {
            let cfg = SzConfig::with_error_bound(eb).with_predictor(predictor);
            let (packed, recon) = compress_reconstructed(&data, &dims, &cfg);
            prop_assert!(packed == compress(&data, &dims, &cfg));
            let (out, _) = decompress(&packed).unwrap();
            prop_assert_eq!(recon.len(), out.len());
            for (i, (r, o)) in recon.iter().zip(&out).enumerate() {
                prop_assert_eq!(r.to_bits(), f64::from(*o).to_bits(), "{:?} at {}", predictor, i);
            }
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = decompress(&bytes);
    }

    #[test]
    fn bit_flips_never_panic(seed in any::<u64>(), flip in any::<usize>()) {
        let mut s = seed | 1;
        let data: Vec<f32> = (0..500)
            .map(|_| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64) as f32
            })
            .collect();
        let mut packed = compress(&data, &[500], &SzConfig::with_error_bound(1e-3));
        let n = packed.len();
        packed[flip % n] ^= 1 << (flip % 8);
        let _ = decompress(&packed);
    }
}
