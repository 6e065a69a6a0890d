//! Batched-vs-per-star Stage-1 equivalence gate (tier-1 `batched-equivalence`).
//!
//! The batched path stacks all active stars' windows into one matrix and
//! runs one GEMM per Transformer layer; DESIGN.md §14 argues this is
//! *bitwise* identical to the per-star path because GEMM accumulation order
//! is row-count independent and every cross-row op (softmax, layer norm,
//! residual add) is row-local. This property pins that argument end-to-end:
//! same trained model, same series, scored once with a no-op [`ChaosHook`]
//! installed (which routes Stage-1 through the per-star tape path, the
//! reference) and once without (the production batched path), across
//!
//! * star counts 1 / 2 / 7 / 24 (degenerate, minimal, odd, paper-scale),
//! * 1 and 4 worker threads,
//! * scalar-forced and auto-detected SIMD kernels,
//! * random per-star `ScoreMode` mixes (Full / Stage1 / Skip interleavings,
//!   with the all-Full case routed through plain `score()`).
//!
//! Kept as the only test in this binary: the thread-count and kernel-backend
//! overrides are process-global, so no other `#[test]` may race them.

use std::sync::{Mutex, OnceLock};

use aero_core::{Aero, AeroConfig, ChaosHook, Detector, ScoreMode};
use aero_datagen::SyntheticConfig;
use aero_timeseries::Dataset;
use proptest::prelude::*;

const STAR_COUNTS: [usize; 4] = [1, 2, 7, 24];

/// One trained fixture per star count, built lazily and shared by all cases
/// (training is the expensive part; scoring both paths per case is cheap).
fn fixtures() -> &'static Mutex<Vec<(Dataset, Aero)>> {
    static FIXTURES: OnceLock<Mutex<Vec<(Dataset, Aero)>>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let pairs = STAR_COUNTS
            .iter()
            .map(|&n| {
                let mut cfg = SyntheticConfig::tiny(100 + n as u64);
                cfg.variates = n;
                cfg.noise_variates = n.min(6);
                cfg.train_len = 200;
                cfg.test_len = 160;
                let ds = cfg.build();
                let mut model = Aero::new(AeroConfig::tiny()).expect("valid config");
                model.fit(&ds.train).expect("fit");
                (ds, model)
            })
            .collect();
        Mutex::new(pairs)
    })
}

/// Deterministic per-star mode mix from a proptest-drawn seed. Seeds that
/// are `0 mod 4` produce the all-Full mix, which `score_with_modes`
/// delegates to plain `score()` — so both public entry points are pinned.
fn modes_from_seed(seed: u64, n: usize) -> Vec<ScoreMode> {
    if seed.is_multiple_of(4) {
        return vec![ScoreMode::Full; n];
    }
    (0..n)
        .map(|v| match (seed >> (2 * (v % 32))) % 3 {
            0 => ScoreMode::Full,
            1 => ScoreMode::Stage1,
            _ => ScoreMode::Skip,
        })
        .collect()
}

fn bits(m: &aero_tensor::Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    fn batched_scoring_is_bitwise_identical_to_per_star(
        star_idx in 0..STAR_COUNTS.len(),
        four_threads in proptest::bool::ANY,
        force_scalar in proptest::bool::ANY,
        mode_seed in 0u64..u64::MAX,
    ) {
        let mut guard = fixtures().lock().unwrap_or_else(|e| e.into_inner());
        let (ds, model) = &mut guard[star_idx];
        let n = ds.num_variates();
        let modes = modes_from_seed(mode_seed, n);

        aero_parallel::set_max_threads(if four_threads { 4 } else { 1 });
        let backend = if force_scalar {
            aero_tensor::Backend::Scalar
        } else {
            aero_tensor::detected_backend()
        };
        aero_tensor::set_backend(backend);

        model.set_chaos_hook(Some(ChaosHook::new(|_| {})));
        let per_star = model.score_with_modes(&ds.test, &modes);
        model.set_chaos_hook(None);
        let batched = model.score_with_modes(&ds.test, &modes);
        aero_parallel::set_max_threads(1);
        aero_tensor::set_backend(aero_tensor::detected_backend());

        let per_star = per_star.expect("per-star scoring");
        let batched = batched.expect("batched scoring");
        prop_assert_eq!(per_star.shape(), batched.shape());
        prop_assert_eq!(
            bits(&per_star),
            bits(&batched),
            "batched != per-star: stars={} threads={} backend={:?} modes={:?}",
            n,
            if four_threads { 4 } else { 1 },
            backend,
            &modes
        );
    }
}
