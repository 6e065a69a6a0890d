//! Property-based tests for the EVT toolkit: GPD fitting sanity over random
//! tails and POT threshold monotonicity.

use aero_evt::{fit_gpd, log_likelihood, pot_threshold, PotConfig, Spot, SpotDecision};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gpd_sample(seed: u64, gamma: f64, sigma: f64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-12..1.0);
            if gamma.abs() < 1e-9 {
                -sigma * u.ln()
            } else {
                sigma / gamma * (u.powf(-gamma) - 1.0)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fitted parameters always have positive scale and a finite
    /// likelihood at least as good as a mediocre reference fit.
    fn fit_is_sane_on_gpd_tails(seed in 0u64..500, gamma in -0.4f64..0.6, sigma in 0.2f64..3.0) {
        let peaks = gpd_sample(seed, gamma, sigma, 800);
        let (fit, _) = fit_gpd(&peaks).expect("fit");
        prop_assert!(fit.sigma > 0.0);
        prop_assert!(fit.log_likelihood.is_finite());
        // Likelihood at the fitted parameters beats a deliberately bad fit.
        let bad = log_likelihood(&peaks, 0.0, sigma * 10.0);
        prop_assert!(fit.log_likelihood >= bad);
    }

    /// POT thresholds are monotone in q: smaller q → larger threshold.
    fn pot_monotone_in_q(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scores: Vec<f32> = (0..8000).map(|_| {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()).abs()
        }).collect();
        let t1 = pot_threshold(&scores, PotConfig { level: 0.98, q: 1e-2 }).unwrap();
        let t2 = pot_threshold(&scores, PotConfig { level: 0.98, q: 1e-3 }).unwrap();
        let t3 = pot_threshold(&scores, PotConfig { level: 0.98, q: 1e-4 }).unwrap();
        prop_assert!(t2.threshold >= t1.threshold - 1e-9);
        prop_assert!(t3.threshold >= t2.threshold - 1e-9);
    }

    /// POT thresholds scale linearly with the score scale.
    fn pot_scale_equivariant(seed in 0u64..200, scale in 0.5f32..8.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Vec<f32> = (0..5000).map(|_| rng.gen_range(0.0f32..1.0).powi(3)).collect();
        let scaled: Vec<f32> = base.iter().map(|v| v * scale).collect();
        let cfg = PotConfig { level: 0.98, q: 1e-3 };
        let t_base = pot_threshold(&base, cfg).unwrap().threshold;
        let t_scaled = pot_threshold(&scaled, cfg).unwrap().threshold;
        prop_assert!((t_scaled - t_base * scale as f64).abs() < 0.05 * t_base.abs() * scale as f64 + 1e-3,
            "{t_scaled} vs {}", t_base * scale as f64);
    }

    /// SPOT never alarms on values below its initial threshold.
    fn spot_never_alarms_below_initial(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let calib: Vec<f32> = (0..3000).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let mut spot = Spot::new(PotConfig { level: 0.95, q: 1e-3 });
        spot.calibrate(&calib);
        let u = spot.initial_threshold() as f32;
        for _ in 0..200 {
            let v = rng.gen_range(0.0..u.max(1e-6));
            prop_assert_eq!(spot.step(v), SpotDecision::Normal);
        }
    }
}
