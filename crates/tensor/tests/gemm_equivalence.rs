//! Blocked/threaded GEMM kernels vs naive reference kernels, to **exact**
//! f32 equality.
//!
//! The determinism contract of `Matrix::matmul{,_tn,_nt}` is that every
//! output element accumulates its `k` products in strictly increasing `p`
//! order, on the small fast path, the tiled path, and the row-partitioned
//! threaded path alike. These tests pin that contract with `==` (no
//! tolerance): the references below are the textbook three-loop kernels with
//! the same per-element order, so any reordering of the reduction — a tiling
//! bug, a partial-sum vectorization, a racy merge — shows up as a bit
//! difference.

use aero_tensor::Matrix;
use proptest::prelude::*;

/// Naive `A · B`: sequential `p = 0..k` accumulation per output element.
fn naive_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a.get(i, p) * b.get(p, j);
        }
        acc
    })
}

/// Naive `Aᵀ · B` (`a` is `k × m`).
fn naive_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a.get(p, i) * b.get(p, j);
        }
        acc
    })
}

/// Naive `A · Bᵀ` (`b` is `n × k`).
fn naive_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a.get(i, p) * b.get(j, p);
        }
        acc
    })
}

/// Deterministic pseudo-random fill (LCG) so one proptest-drawn seed yields
/// all three operand layouts.
fn fill(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) % 1000) as f32 / 125.0 - 4.0
    })
}

/// Draws a bounded value from the LCG stream.
fn draw(seed: &mut u64, lo: usize, hi: usize) -> usize {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    lo + (*seed >> 33) as usize % (hi - lo)
}

/// Dimensions spanning the small fast path, the tiled path (shared dim and
/// column counts past the 128/512 tile widths), and thin edges.
fn dims_for(case: usize, seed: &mut u64) -> (usize, usize, usize) {
    match case % 4 {
        // Small fast path.
        0 => (draw(seed, 1, 8), draw(seed, 1, 8), draw(seed, 1, 8)),
        // Crosses the KC=128 p-tile boundary.
        1 => (draw(seed, 1, 4), draw(seed, 120, 140), draw(seed, 1, 6)),
        // Crosses the NC=512 j-tile boundary (kept thin to stay fast).
        2 => (draw(seed, 1, 3), draw(seed, 2, 5), draw(seed, 500, 530)),
        // Mid-size rectangular.
        _ => (draw(seed, 8, 24), draw(seed, 24, 72), draw(seed, 8, 24)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn blocked_gemm_bitwise_matches_naive(case in 0usize..4, seed in 0u64..u64::MAX) {
        let mut s = seed;
        let (m, k, n) = dims_for(case, &mut s);
        let a = fill(m, k, &mut s);
        let b = fill(k, n, &mut s);
        prop_assert_eq!(a.matmul(&b).unwrap(), naive_nn(&a, &b));

        let at = a.transpose(); // k × m viewed as the "A" of matmul_tn
        prop_assert_eq!(at.matmul_tn(&b).unwrap(), naive_tn(&at, &b));

        let bt = fill(n, k, &mut s);
        prop_assert_eq!(a.matmul_nt(&bt).unwrap(), naive_nt(&a, &bt));
    }
}

/// The threaded row-partitioned path (≥ 2²¹ MACs) must be bitwise identical
/// to the single-thread result. 160·96·160 ≈ 2.46 M MACs crosses the
/// threshold; thread counts are flipped at runtime via the pool override.
#[test]
fn threaded_gemm_bitwise_matches_single_thread() {
    let a = Matrix::from_fn(160, 96, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.37 - 2.0);
    let b = Matrix::from_fn(96, 160, |r, c| ((r * 7 + c * 29) % 11) as f32 * 0.53 - 2.5);
    let bt = b.transpose();

    aero_parallel::set_max_threads(1);
    let nn1 = a.matmul(&b).unwrap();
    let tn1 = a.matmul_tn(&a).unwrap();
    let nt1 = a.matmul_nt(&bt).unwrap();

    for threads in [2, 4, 7] {
        aero_parallel::set_max_threads(threads);
        assert_eq!(a.matmul(&b).unwrap(), nn1, "matmul at {threads} threads");
        assert_eq!(a.matmul_tn(&a).unwrap(), tn1, "matmul_tn at {threads} threads");
        assert_eq!(a.matmul_nt(&bt).unwrap(), nt1, "matmul_nt at {threads} threads");
    }
    aero_parallel::set_max_threads(1);

    assert_eq!(nn1, naive_nn(&a, &b));
    assert_eq!(tn1, naive_tn(&a, &a));
    assert_eq!(nt1, naive_nt(&a, &bt));
}
