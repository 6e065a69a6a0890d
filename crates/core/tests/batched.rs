//! Batched Stage-1 equivalence gate (tier-1 `batched-equivalence`).
//!
//! Stage-1 scoring has one path: all active stars' windows stacked into one
//! matrix, one GEMM per Transformer layer ([`TemporalModule::reconstruct_batched`]).
//! DESIGN.md §14 argues this is *bitwise* identical to running each star
//! through the tape forward ([`TemporalModule::reconstruct`], which training
//! uses) because GEMM accumulation order is row-count independent and every
//! cross-row op (softmax, layer norm, residual add) is row-local. This
//! property pins that argument at two levels:
//!
//! * **module** — a `TemporalModule` with its parameters perturbed off their
//!   init, reconstructing a stack of random windows in one batched pass,
//!   against each block's tape forward on its own;
//! * **end to end** — every star's row of a trained detector's all-`Stage1`
//!   score matrix against the same star scored alone (that star `Stage1`,
//!   every other star `Skip`). This is the premise of the supervised
//!   per-star fallback, which re-runs a failed batch's stars as batches of
//!   one and lands their rows beside the batch's.
//!
//! Both levels run across star counts 1 / 2 / 7 / 24 (degenerate, minimal,
//! odd, paper-scale), 1 and 4 worker threads, and scalar-forced vs
//! auto-detected SIMD kernels.
//!
//! Kept as the only test in this binary: the thread-count and kernel-backend
//! overrides are process-global, so no other `#[test]` may race them.

use std::sync::{Mutex, OnceLock};

use aero_core::{Aero, AeroConfig, Detector, ScoreMode, TemporalModule};
use aero_datagen::SyntheticConfig;
use aero_tensor::{Graph, Matrix, ParamId, ParamStore};
use aero_timeseries::Dataset;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STAR_COUNTS: [usize; 4] = [1, 2, 7, 24];

/// One trained fixture per star count, built lazily and shared by all cases
/// (training is the expensive part; scoring per case is cheap).
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

/// A univariate temporal module whose every parameter is nudged off its
/// initial value, so zero biases and unit layer-norm gains are exercised as
/// general values.
fn perturbed_module(seed: u64) -> (TemporalModule, ParamStore) {
    let cfg = AeroConfig::tiny();
    let mut store = ParamStore::new();
    let module = TemporalModule::new(&mut store, &cfg, 1, seed).expect("temporal module");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let ids: Vec<ParamId> = store.iter().map(|(id, _)| id).collect();
    for id in ids {
        let mut value = store.value(id).expect("registered param").clone();
        for x in value.as_mut_slice() {
            *x += rng.gen_range(-0.1f32..0.1);
        }
        store.set_value(id, value).expect("same shape");
    }
    (module, store)
}

/// Bits of `blocks` random windows reconstructed in one batched pass and,
/// per block, by the tape forward: `(batched, tape)`.
fn module_rows(seed: u64, blocks: usize) -> (Vec<u32>, Vec<u32>) {
    let cfg = AeroConfig::tiny();
    let (w, omega) = (cfg.window, cfg.effective_short_window());
    let (module, store) = perturbed_module(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let deltas: Vec<f32> =
        (0..w).map(|t| if t == 0 { 0.0 } else { rng.gen_range(0.5f32..1.5) }).collect();
    let windows: Vec<Matrix> =
        (0..blocks).map(|_| Matrix::from_fn(w, 1, |_, _| rng.gen_range(0.0f32..1.0))).collect();
    let shorts: Vec<Matrix> = windows
        .iter()
        .map(|long| long.slice_rows(w - omega, omega).expect("ω ≤ W"))
        .collect();

    let mut long = Matrix::zeros(blocks * w, 1);
    let mut short = Matrix::zeros(blocks * omega, 1);
    for b in 0..blocks {
        long.as_mut_slice()[b * w..(b + 1) * w].copy_from_slice(windows[b].as_slice());
        short.as_mut_slice()[b * omega..(b + 1) * omega].copy_from_slice(shorts[b].as_slice());
    }
    let batched = module
        .reconstruct_batched(&store, &long, &short, &deltas, blocks)
        .expect("batched forward");

    let mut tape = Vec::with_capacity(blocks * omega);
    for (long, short) in windows.iter().zip(&shorts) {
        let mut g = Graph::new();
        let out = module
            .reconstruct(&mut g, &store, long, short, &deltas)
            .expect("tape forward");
        tape.extend(g.value(out).expect("forward value").as_slice().iter().map(|v| v.to_bits()));
    }
    (bits(&batched), tape)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    fn batched_stage1_is_bitwise_identical_to_the_tape_forward(
        star_idx in 0..STAR_COUNTS.len(),
        four_threads in proptest::bool::ANY,
        force_scalar in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let mut guard = fixtures().lock().unwrap_or_else(|e| e.into_inner());
        let (ds, model) = &mut guard[star_idx];
        let n = ds.num_variates();

        aero_parallel::set_max_threads(if four_threads { 4 } else { 1 });
        let backend = if force_scalar {
            aero_tensor::Backend::Scalar
        } else {
            aero_tensor::detected_backend()
        };
        aero_tensor::set_backend(backend);

        let (batched, tape) = module_rows(seed, n);
        let together = model.score_with_modes(&ds.test, &vec![ScoreMode::Stage1; n]);
        let alone: Vec<_> = (0..n)
            .map(|v| {
                let mut modes = vec![ScoreMode::Skip; n];
                modes[v] = ScoreMode::Stage1;
                model.score_with_modes(&ds.test, &modes)
            })
            .collect();
        aero_parallel::set_max_threads(1);
        aero_tensor::set_backend(aero_tensor::detected_backend());

        let threads = if four_threads { 4 } else { 1 };
        prop_assert_eq!(
            batched,
            tape,
            "module: batched != tape forward: blocks={} threads={} backend={:?}",
            n,
            threads,
            backend
        );
        let together = together.expect("all-Stage1 scoring");
        for (v, alone) in alone.into_iter().enumerate() {
            let alone = alone.expect("single-star scoring");
            prop_assert_eq!(
                bits(&Matrix::col_vector(together.row(v))),
                bits(&Matrix::col_vector(alone.row(v))),
                "end to end: star {} alone != in the batch: stars={} threads={} backend={:?}",
                v,
                n,
                threads,
                backend
            );
        }
    }
}
