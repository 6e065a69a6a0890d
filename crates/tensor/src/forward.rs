//! Tape-free forward op bodies shared by the autodiff [`Graph`](crate::Graph)
//! and the batched inference path.
//!
//! Training needs the tape; scoring does not. The batched cross-star
//! inference path (see `aero-core`) runs Stage-1 forwards as plain
//! [`Matrix`] arithmetic, so the ops whose forward pass is *not* a direct
//! `Matrix` method — softmax, layer norm, sigmoid — live here and are
//! called both from `Graph` (which then records the op on the tape) and
//! from the tape-free path. One body, two callers: the batched path is
//! bitwise identical to the graph path by construction, not by test alone.
//!
//! The reduction structure mirrors the kernel-layer contract: a softmax row
//! is one dispatched kernel whose lane reductions have a fixed fold order;
//! layer norm's mean/variance folds stay sequential scalar and only its
//! elementwise phase is dispatched.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::kernels;
use crate::{Matrix, Result, TensorError};

/// Numerically-stable row-wise softmax of `alpha * x`.
///
/// The one softmax body of the crate: [`Graph::softmax_rows`](crate::Graph::softmax_rows)
/// (with `alpha = 1`) and [`Graph::scaled_softmax_rows`](crate::Graph::scaled_softmax_rows)
/// call it too. Each row goes through the dispatched `softmax_row` kernel,
/// which uses an in-source `exp` (within 2 ulp, no libm) and so gives the
/// same bits on every platform and backend. Per row: a NaN or `+∞` anywhere
/// yields an all-NaN row, `−∞` entries get weight exactly 0, an all-`−∞` row
/// is NaN, and entries whose `alpha·x − max` lies below `ln(2⁻¹²⁶) ≈ −87.34`
/// get weight exactly 0 (their `exp` would be subnormal).
pub fn scaled_softmax_rows(x: &Matrix, alpha: f32) -> Matrix {
    let (rows, cols) = x.shape();
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        kernels::softmax_row(x.row(r), alpha, out.row_mut(r));
    }
    out
}

/// Row-wise layer normalization: `gamma ⊙ (x−μ)/σ + beta`.
///
/// `gamma` and `beta` must be `1 × cols`. Returns `(out, normed, inv_std)`
/// — the graph caller keeps `normed`/`inv_std` for the backward pass; the
/// tape-free caller uses only `out`.
pub fn layer_norm_rows(
    x: &Matrix,
    gamma: &Matrix,
    beta: &Matrix,
    eps: f32,
) -> Result<(Matrix, Matrix, Matrix)> {
    let (rows, cols) = x.shape();
    if gamma.shape() != (1, cols) || beta.shape() != (1, cols) {
        return Err(TensorError::ShapeMismatch {
            expected: (1, cols),
            got: gamma.shape(),
            op: "layer_norm_rows",
        });
    }
    let mut normed = Matrix::zeros(rows, cols);
    let mut inv_std = Matrix::zeros(rows, 1);
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let row = x.row(r);
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let istd = 1.0 / (var + eps).sqrt();
        inv_std.set(r, 0, istd);
        kernels::layer_norm_row(
            row,
            gamma.row(0),
            beta.row(0),
            mean,
            istd,
            normed.row_mut(r),
            out.row_mut(r),
        );
    }
    Ok((out, normed, inv_std))
}

/// Logistic sigmoid, elementwise. Same body as [`Graph::sigmoid`](crate::Graph::sigmoid).
pub fn sigmoid(x: &Matrix) -> Matrix {
    x.map(|a| 1.0 / (1.0 + (-a).exp()))
}

/// `times` row-wise copies of `m` — the values [`Matrix::concat_rows`]
/// would assemble from `times` references, without building the reference
/// `Vec` (the streaming alloc gate counts every heap allocation).
pub fn tile_rows(m: &Matrix, times: usize) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = Matrix::zeros(rows * times, cols);
    for t in 0..times {
        for r in 0..rows {
            out.row_mut(t * rows + r).copy_from_slice(m.row(r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = scaled_softmax_rows(&x, 0.5);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Every row length up to 257, so each tail length of the 16 lanes.
        for len in 1..=257 {
            let row: Vec<f32> = (0..len)
                .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.21)
                .collect();
            let sum: f64 = softmax_1row(&row, 0.9).iter().map(|&v| v as f64).sum();
            assert!((sum - 1.0).abs() < 1e-6, "len {len}: sum {sum}");
        }
    }

    fn softmax_1row(row: &[f32], alpha: f32) -> Vec<f32> {
        let x = Matrix::from_vec(1, row.len(), row.to_vec()).unwrap();
        scaled_softmax_rows(&x, alpha).row(0).to_vec()
    }

    #[test]
    fn softmax_nan_anywhere_makes_the_row_nan() {
        // At a lane position, in the 16-lane tail, and as the only entry.
        for (len, at) in [(5, 2), (40, 0), (40, 33), (1, 0)] {
            let mut row: Vec<f32> = (0..len).map(|i| i as f32 * 0.1).collect();
            row[at] = f32::NAN;
            assert!(
                softmax_1row(&row, 0.5).iter().all(|v| v.is_nan()),
                "len {len} at {at}"
            );
        }
    }

    #[test]
    fn softmax_pos_inf_anywhere_makes_the_row_nan() {
        for (len, at) in [(5, 4), (40, 17), (1, 0)] {
            let mut row: Vec<f32> = (0..len).map(|i| i as f32 * 0.1).collect();
            row[at] = f32::INFINITY;
            assert!(
                softmax_1row(&row, 1.0).iter().all(|v| v.is_nan()),
                "len {len} at {at}"
            );
        }
    }

    #[test]
    fn softmax_neg_inf_entries_get_exactly_zero_weight() {
        let mut row: Vec<f32> = (0..37).map(|i| (i % 5) as f32 * 0.3).collect();
        for at in [0, 16, 36] {
            row[at] = f32::NEG_INFINITY;
        }
        let y = softmax_1row(&row, 0.7);
        for at in [0, 16, 36] {
            assert_eq!(y[at].to_bits(), 0.0f32.to_bits());
        }
        assert!(y.iter().all(|v| v.is_finite()));
        assert!((y.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_all_neg_inf_row_is_nan() {
        for len in [1, 3, 16, 21] {
            let y = softmax_1row(&vec![f32::NEG_INFINITY; len], 1.0);
            assert!(y.iter().all(|v| v.is_nan()), "len {len}");
        }
    }

    #[test]
    fn softmax_flushes_underflowing_weights_to_exact_zero() {
        // `exp(−87.5)` is subnormal: weight exactly 0 (libm would give ~1e-38).
        let y = softmax_1row(&[0.0, -87.5, -200.0], 1.0);
        assert_eq!(y, vec![1.0, 0.0, 0.0]);
        // Just above the threshold the weight stays positive.
        let y = softmax_1row(&[0.0, -87.0], 1.0);
        assert!(y[1] > 0.0 && y[1] < 1e-37);
        // The threshold itself is kept; the next f32 below it is flushed.
        let below = f32::from_bits(kernels::EXP_FLUSH_BELOW.to_bits() + 1);
        assert!(kernels::exp_flush(kernels::EXP_FLUSH_BELOW) > 0.0);
        assert_eq!(kernels::exp_flush(below), 0.0);
        assert_eq!(kernels::exp_flush(f32::NEG_INFINITY), 0.0);
        assert!(kernels::exp_flush(f32::NAN).is_nan());
    }

    /// Distance in units in the last place between `got` and the f32
    /// rounding of `want`, counted on the f32 grid.
    fn ulps(got: f32, want: f64) -> u32 {
        (got.to_bits() as i64 - (want as f32).to_bits() as i64).unsigned_abs() as u32
    }

    #[test]
    fn exp_is_within_two_ulp_of_f64_on_the_softmax_range() {
        let mut worst = 0;
        let mut x = -87.0f32;
        while x <= 0.0 {
            worst = worst.max(ulps(kernels::exp_flush(x), f64::exp(x as f64)));
            x += 0.000_731;
        }
        // The endpoints and exact zero.
        for x in [-87.0f32, -1e-30, -0.0, 0.0] {
            worst = worst.max(ulps(kernels::exp_flush(x), f64::exp(x as f64)));
        }
        assert!(worst <= 2, "worst error {worst} ulp");
    }

    #[test]
    fn layer_norm_rejects_bad_gamma() {
        let x = Matrix::zeros(2, 3);
        let g = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(layer_norm_rows(&x, &g, &b, 1e-5).is_err());
    }

    #[test]
    fn sigmoid_is_bounded() {
        let x = Matrix::from_vec(1, 3, vec![-100.0, 0.0, 100.0]).unwrap();
        let s = sigmoid(&x);
        assert!((s.get(0, 0) - 0.0).abs() < 1e-6);
        assert!((s.get(0, 1) - 0.5).abs() < 1e-6);
        assert!((s.get(0, 2) - 1.0).abs() < 1e-6);
    }
}
