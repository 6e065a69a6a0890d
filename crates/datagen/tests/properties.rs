//! Property-based tests for dataset generation: structural invariants that
//! must hold for any seed and any (reasonable) configuration.

use aero_datagen::{AnomalyKind, AstrosetConfig, NoiseKind, SyntheticConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded tiny synthetic dataset satisfies every structural
    /// invariant: validation passes, segment count matches the config,
    /// anomalies stay in the test split, and noise respects its variate cap.
    fn synthetic_invariants(seed in 0u64..10_000) {
        let mut cfg = SyntheticConfig::tiny(seed);
        cfg.noise_variates = 5;
        let ds = cfg.build();
        prop_assert!(ds.validate().is_ok());
        prop_assert_eq!(ds.test_labels.segments().len(), cfg.anomaly_segments);
        // Noise restricted to the first 5 variates.
        for v in 5..ds.num_variates() {
            prop_assert!(ds.train_noise.row(v).iter().all(|&b| !b));
            prop_assert!(ds.test_noise.row(v).iter().all(|&b| !b));
        }
        // Values are finite everywhere.
        prop_assert!(!ds.train.values().has_non_finite());
        prop_assert!(!ds.test.values().has_non_finite());
    }

    /// Astroset invariants: monotone timestamps, magnitudes in a plausible
    /// photometric range, full noise coverage across splits.
    fn astroset_invariants(seed in 0u64..10_000) {
        let ds = AstrosetConfig::tiny(seed).build();
        prop_assert!(ds.validate().is_ok());
        let ts = ds.train.timestamps();
        prop_assert!(ts.windows(2).all(|w| w[0] < w[1]));
        // Baselines 10–16 mag plus bounded effects → values in (5, 21).
        for &v in ds.train.values().as_slice() {
            prop_assert!((5.0..21.0).contains(&v), "magnitude {v} out of range");
        }
        for v in 0..ds.num_variates() {
            let covered = ds.train_noise.row(v).iter().any(|&b| b)
                || ds.test_noise.row(v).iter().any(|&b| b);
            prop_assert!(covered, "star {v} never sees noise");
        }
    }

    /// Anomaly templates are bounded by their magnitude parameter.
    fn anomaly_templates_bounded(len in 8usize..80, magnitude in 0.1f32..5.0) {
        for kind in AnomalyKind::ALL {
            for i in 0..len {
                let v = kind.value(i, len, magnitude);
                prop_assert!(v.is_finite());
                prop_assert!(
                    v.abs() <= magnitude * 1.05,
                    "{kind:?} at {i}/{len}: {v} exceeds magnitude {magnitude}"
                );
            }
        }
    }

    /// Noise profiles are bounded and hit their magnitude somewhere.
    fn noise_profiles_bounded(len in 4usize..120, magnitude in 0.1f32..3.0) {
        for kind in NoiseKind::ALL {
            let vals: Vec<f32> = (0..len).map(|i| kind.value(i, len, magnitude)).collect();
            prop_assert!(vals.iter().all(|v| v.is_finite()));
            let peak = vals.iter().map(|v| v.abs()).fold(0.0f32, f32::max);
            prop_assert!(peak <= magnitude * 1.01);
            prop_assert!(peak >= magnitude * 0.5, "{kind:?} peak {peak} < half magnitude");
        }
    }
}
