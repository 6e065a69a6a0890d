//! SIMD backends vs the scalar fallback, to **exact** f32 equality.
//!
//! Every dispatched kernel compiles the same Rust body under each backend's
//! target features (no intrinsics, no FMA, fixed per-element accumulation
//! order), so AVX2/AVX-512/NEON must be *bitwise* identical to scalar — not
//! merely close. These tests drive the full public surface that routes
//! through the kernel layer (all three GEMM variants, the elementwise ops,
//! softmax / scaled softmax / layer-norm forward+backward, Adam and SGD
//! updates) under every backend the host supports and compare with `==`.
//! The softmax row kernel is also driven directly over every row length
//! `1..=257` (every tail length of its 16 lanes), the attention shapes, and
//! rows holding `−∞`, `+∞` and NaN, compared bit for bit.
//!
//! The active backend and the thread-pool width are process-global, so every
//! test serializes on [`BACKEND_LOCK`] and restores the detected backend
//! before releasing it.

use aero_tensor::forward::scaled_softmax_rows;
use aero_tensor::{detected_backend, set_backend, Adam, Backend, Graph, Matrix, ParamStore, Sgd};
use proptest::prelude::*;
use std::sync::Mutex;

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// SIMD backends this machine can actually run.
fn simd_backends() -> Vec<Backend> {
    [Backend::Avx2, Backend::Avx512, Backend::Neon]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
}

/// Deterministic pseudo-random fill (LCG) so one drawn seed reproduces the
/// same operands under every backend.
fn fill(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) % 1000) as f32 / 125.0 - 4.0
    })
}

fn draw(seed: &mut u64, lo: usize, hi: usize) -> usize {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    lo + (*seed >> 33) as usize % (hi - lo)
}

/// Shapes chosen to exercise full 16-wide lanes, 8-wide remainders, odd
/// column remainders (`n % 8 ≠ 0` and `n % 16 ≠ 0`), and the KC=128 k-tile
/// boundary.
fn dims_for(case: usize, seed: &mut u64) -> (usize, usize, usize) {
    match case % 5 {
        // Tiny: everything is remainder lanes.
        0 => (draw(seed, 1, 6), draw(seed, 1, 6), draw(seed, 1, 6)),
        // n = 17: one full 16-lane column tile plus a 1-wide remainder.
        1 => (draw(seed, 2, 6), draw(seed, 10, 40), 17),
        // Random n across 16..49 (hits multiples and both remainder kinds).
        2 => (draw(seed, 2, 6), draw(seed, 10, 40), draw(seed, 16, 49)),
        // Crosses the KC=128 k-tile boundary.
        3 => (draw(seed, 5, 20), draw(seed, 120, 140), draw(seed, 2, 20)),
        // Single-row (exercises the MR<4 micro-kernel remainder).
        _ => (1, draw(seed, 1, 50), draw(seed, 30, 40)),
    }
}

/// Runs every kernel-backed operation once and flattens all results into a
/// single value stream for exact comparison across backends.
fn op_suite(m: usize, k: usize, n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    let a = fill(m, k, &mut s);
    let b = fill(k, n, &mut s);
    let at = fill(k, m, &mut s);
    let bt = fill(n, k, &mut s);
    let c = fill(m, k, &mut s);

    let mut acc = a.clone();
    acc.add_assign(&c).unwrap();
    acc.axpy(0.37, &c).unwrap();
    let mut outs: Vec<Matrix> = vec![
        // All three GEMM variants.
        a.matmul(&b).unwrap(),
        at.matmul_tn(&b).unwrap(),
        a.matmul_nt(&bt).unwrap(),
        // Elementwise kernels.
        a.add(&c).unwrap(),
        a.sub(&c).unwrap(),
        a.hadamard(&c).unwrap(),
        a.affine(1.7, -0.3),
        a.relu(),
        a.transpose(),
        acc,
    ];

    // Graph forward + backward through softmax / scaled softmax / layer-norm,
    // then one Adam and one SGD step (exercising both optimizer kernels).
    let mut store = ParamStore::new();
    let x = fill(m, k, &mut s);
    let w_id = store.register("w", fill(k, n, &mut s));
    let gamma_id = store.register("gamma", fill(1, n, &mut s));
    let beta_id = store.register("beta", fill(1, n, &mut s));
    let mut adam = Adam::new(0.01);
    let mut sgd = Sgd::new(0.005);
    for step in 0..2 {
        store.zero_grads();
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let wn = g.param(&store, w_id).unwrap();
        let gn = g.param(&store, gamma_id).unwrap();
        let bn = g.param(&store, beta_id).unwrap();
        let h = g.matmul(xn, wn).unwrap();
        let sm = g.softmax_rows(h).unwrap();
        let ssm = g.scaled_softmax_rows(h, 0.37).unwrap();
        let mix = g.add(sm, ssm).unwrap();
        let ln = g.layer_norm_rows(mix, gn, bn, 1e-5).unwrap();
        let sq = g.hadamard(ln, ln).unwrap();
        let loss = g.mean_all(sq).unwrap();
        outs.push(g.value(ln).unwrap().clone());
        g.backward(loss, &mut store).unwrap();
        if step == 0 {
            adam.step(&mut store).unwrap();
        } else {
            sgd.step(&mut store).unwrap();
        }
    }
    outs.push(store.value(w_id).unwrap().clone());
    outs.push(store.value(gamma_id).unwrap().clone());
    outs.push(store.value(beta_id).unwrap().clone());

    let mut flat = Vec::new();
    for o in &outs {
        flat.extend_from_slice(o.as_slice());
    }
    flat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    fn simd_backends_bitwise_match_scalar(case in 0usize..5, seed in 0u64..u64::MAX) {
        let _guard = lock();
        aero_parallel::set_max_threads(1);
        let mut s = seed;
        let (m, k, n) = dims_for(case, &mut s);

        prop_assert!(set_backend(Backend::Scalar));
        let reference = op_suite(m, k, n, seed);
        for backend in simd_backends() {
            prop_assert!(set_backend(backend));
            let got = op_suite(m, k, n, seed);
            set_backend(detected_backend());
            prop_assert_eq!(
                &reference, &got,
                "backend {} diverges from scalar at m={} k={} n={}",
                backend.name(), m, k, n
            );
        }
        set_backend(detected_backend());
    }
}

/// Bit patterns of a matrix, so NaN entries compare equal to themselves.
fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Softmax inputs for the backend comparison: one row of every length
/// `1..=257`, the Stage-1 attention shapes (encoder 100×100, decoder 30×30,
/// cross 30×100), and rows with `−∞`, `+∞` and NaN at lane and tail
/// positions.
fn softmax_inputs() -> Vec<Matrix> {
    let mut seed = 0x5eed_u64;
    let mut inputs: Vec<Matrix> = (1..=257).map(|len| fill(1, len, &mut seed)).collect();
    for (rows, cols) in [(100, 100), (30, 30), (30, 100)] {
        inputs.push(fill(rows, cols, &mut seed));
    }
    // (row length, position of the special value): lane and tail slots.
    let positions = [
        (1, 0),
        (7, 3),
        (16, 15),
        (37, 0),
        (37, 20),
        (37, 36),
        (100, 99),
    ];
    for special in [f32::NEG_INFINITY, f32::INFINITY, f32::NAN] {
        for (cols, at) in positions {
            let mut m = fill(2, cols, &mut seed);
            m.set(0, at, special);
            inputs.push(m);
        }
    }
    inputs.push(Matrix::from_fn(3, 21, |_, _| f32::NEG_INFINITY));
    inputs
}

/// `softmax_row` is bitwise identical on every backend: its `exp` is
/// in-source and its lane reductions fold in a fixed order.
#[test]
fn softmax_row_backends_bitwise_match_scalar() {
    let _guard = lock();
    let inputs = softmax_inputs();
    let run = |backend: Backend| -> Vec<Vec<u32>> {
        assert!(set_backend(backend));
        let mut out = Vec::new();
        for x in &inputs {
            out.push(bits(&scaled_softmax_rows(x, 1.0)));
            out.push(bits(&scaled_softmax_rows(x, 0.37)));
        }
        out
    };
    let reference = run(Backend::Scalar);
    for backend in simd_backends() {
        let got = run(backend);
        for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
            let name = backend.name();
            assert_eq!(
                r, g,
                "backend {name} diverges from scalar on softmax case {i}"
            );
        }
    }
    set_backend(detected_backend());
}

/// The row-partitioned threaded GEMM path must also be backend-invariant:
/// scalar and SIMD agree bitwise at every thread count.
#[test]
fn threaded_gemm_is_backend_invariant() {
    let _guard = lock();
    // 160·96·160 ≈ 2.46 M MACs crosses the 2²¹ threading threshold.
    let a = Matrix::from_fn(160, 96, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.37 - 2.0);
    let b = Matrix::from_fn(96, 160, |r, c| ((r * 7 + c * 29) % 11) as f32 * 0.53 - 2.5);
    let bt = b.transpose();

    for threads in [1, 2, 4] {
        aero_parallel::set_max_threads(threads);
        assert!(set_backend(Backend::Scalar));
        let nn = a.matmul(&b).unwrap();
        let tn = a.matmul_tn(&a).unwrap();
        let nt = a.matmul_nt(&bt).unwrap();
        for backend in simd_backends() {
            assert!(set_backend(backend));
            assert_eq!(a.matmul(&b).unwrap(), nn, "{} nn at {threads}t", backend.name());
            assert_eq!(a.matmul_tn(&a).unwrap(), tn, "{} tn at {threads}t", backend.name());
            assert_eq!(a.matmul_nt(&bt).unwrap(), nt, "{} nt at {threads}t", backend.name());
        }
    }
    aero_parallel::set_max_threads(1);
    set_backend(detected_backend());
}

/// `set_backend` / `backend()` round-trip for every supported backend, and
/// the detected backend is always supported.
#[test]
fn backend_selection_roundtrips() {
    let _guard = lock();
    assert!(detected_backend().is_supported());
    for b in std::iter::once(Backend::Scalar).chain(simd_backends()) {
        assert!(set_backend(b));
        assert_eq!(aero_tensor::backend(), b);
    }
    set_backend(detected_backend());
}
