//! Time-embedding basis gate: the embedding built from a prebuilt
//! [`PositionBasis`] must be bitwise the inline formula it replaced, which
//! recomputed `sin`/`cos` of `f^j·pos` on every call. Checked for the tape
//! forward and the tape-free `forward_value`, over a long window's positions
//! `0..W`, over its short tail `W−ω..W` taken as rows of the long basis, and
//! over fractional positions. A basis/deltas length mismatch is a typed
//! shape error.

use aero_nn::TimeEmbedding;
use aero_tensor::{Graph, Matrix, ParamStore, TensorError};
use rand::rngs::StdRng;
use rand::SeedableRng;

const W: usize = 40;
const OMEGA: usize = 12;

/// The embedding as it was computed inline before the basis existed: the
/// positional phase, then sin/cos of it, then the small-angle expansion of
/// the learnable shift, with the same `Matrix` ops in the same order.
fn inline_reference(alpha: &Matrix, positions: &[f32], deltas: &[f32]) -> Matrix {
    let (len, d) = (positions.len(), alpha.cols());
    let mut base = Matrix::zeros(len, d);
    for (i, &pos) in positions.iter().enumerate() {
        for j in 0..d {
            let freq = (1.0f32 / 10000.0f32.powf(j as f32 / d as f32)) * pos;
            base.set(i, j, freq);
        }
    }
    let s = Matrix::col_vector(deltas).matmul(alpha).unwrap();
    let sin_cn = base.map(f32::sin);
    let cos_cn = base.map(f32::cos);
    let s2 = s.hadamard(&s).unwrap();
    let s3 = s2.hadamard(&s).unwrap();
    let sin_s = s.add(&s3.affine(-1.0 / 6.0, 0.0)).unwrap();
    let cos_s = s2.affine(-0.5, 0.0).affine(1.0, 1.0);
    let sin_bs = sin_cn
        .hadamard(&cos_s)
        .unwrap()
        .add(&cos_cn.hadamard(&sin_s).unwrap())
        .unwrap();
    let cos_bs = cos_cn
        .hadamard(&cos_s)
        .unwrap()
        .sub(&sin_cn.hadamard(&sin_s).unwrap())
        .unwrap();
    sin_bs.add(&cos_bs).unwrap()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn embedding(d_model: usize, seed: u64) -> (TimeEmbedding, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let te = TimeEmbedding::new(&mut store, "te", d_model, &mut rng);
    (te, store)
}

/// Irregular intervals, with the series-start `Δ = 0` in front.
fn deltas(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            if i == 0 {
                0.0
            } else {
                0.5 + (i % 7) as f32 * 0.25
            }
        })
        .collect()
}

/// Both forwards of `te` over `basis` against the reference for `positions`.
fn assert_matches_reference(
    te: &TimeEmbedding,
    store: &ParamStore,
    basis: &aero_nn::PositionBasis,
    positions: &[f32],
    deltas: &[f32],
) {
    let alpha = store.value(te.param_ids()[0]).unwrap();
    let expected = bits(&inline_reference(alpha, positions, deltas));
    let mut g = Graph::new();
    let tape = te.forward(&mut g, store, basis, deltas).unwrap();
    assert_eq!(
        bits(g.value(tape).unwrap()),
        expected,
        "tape forward at {positions:?}"
    );
    let value = te.forward_value(store, basis, deltas).unwrap();
    assert_eq!(bits(&value), expected, "forward_value at {positions:?}");
}

#[test]
fn long_window_basis_matches_the_inline_formula() {
    for (d_model, seed) in [(8, 1), (16, 2), (5, 3)] {
        let (te, store) = embedding(d_model, seed);
        let positions: Vec<f32> = (0..W).map(|i| i as f32).collect();
        let basis = te.basis(&positions);
        assert_matches_reference(&te, &store, &basis, &positions, &deltas(W));
    }
}

#[test]
fn short_window_rows_of_the_long_basis_match_the_inline_formula() {
    let (te, store) = embedding(8, 4);
    let positions: Vec<f32> = (0..W).map(|i| i as f32).collect();
    let short = te.basis(&positions).tail(OMEGA).unwrap();
    assert_eq!(short.len(), OMEGA);
    let d = deltas(W);
    assert_matches_reference(
        &te,
        &store,
        &short,
        &positions[W - OMEGA..],
        &d[W - OMEGA..],
    );
    assert!(te.basis(&positions).tail(W + 1).is_err());
}

#[test]
fn fractional_positions_match_the_inline_formula() {
    // The positions and intervals of the gradient check.
    let (te, store) = embedding(4, 9);
    let positions = [0.0f32, 1.0, 2.0, 3.5];
    let basis = te.basis(&positions);
    assert_matches_reference(&te, &store, &basis, &positions, &[0.0, 1.0, 1.0, 1.5]);
}

#[test]
fn basis_and_deltas_length_mismatch_is_a_shape_error() {
    let (te, store) = embedding(8, 5);
    let basis = te.basis(&[0.0, 1.0, 2.0]);
    let expected = TensorError::ShapeMismatch {
        expected: (3, 1),
        got: (2, 1),
        op: "time_embedding",
    };
    let mut g = Graph::new();
    assert_eq!(
        te.forward(&mut g, &store, &basis, &[1.0, 1.0]).unwrap_err(),
        expected
    );
    assert_eq!(
        te.forward_value(&store, &basis, &[1.0, 1.0]).unwrap_err(),
        expected
    );
}
