//! Property-based tests for the NN layers: structural invariants that must
//! hold for any (bounded) random input.

use aero_nn::{
    normalize_adjacency, Activation, Gru, LayerNorm, Linear, Lstm, MultiHeadAttention,
    TimeEmbedding,
};
use aero_tensor::{Graph, Matrix, ParamStore};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Attention output has the query's shape and is finite for any input.
    fn attention_shape_and_finiteness(x in matrix(6, 8), seed in 0u64..100) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mha = MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng).unwrap();
        let mut g = Graph::new();
        let xn = g.constant(x);
        let y = mha.forward(&mut g, &store, xn, xn, xn).unwrap();
        let v = g.value(y).unwrap();
        prop_assert_eq!(v.shape(), (6, 8));
        prop_assert!(!v.has_non_finite());
    }

    /// LayerNorm output rows have ~zero mean and ~unit variance with the
    /// default gain/shift, for any non-constant input.
    fn layer_norm_standardizes(x in matrix(5, 8)) {
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 8);
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let y = ln.forward(&mut g, &store, xn).unwrap();
        let v = g.value(y).unwrap();
        for r in 0..5 {
            let row = v.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "row {r} mean {mean}");
            // Variance is 1 unless the input row was (near-)constant.
            let in_row = x.row(r);
            let in_mean: f32 = in_row.iter().sum::<f32>() / 8.0;
            let in_var: f32 = in_row.iter().map(|a| (a - in_mean).powi(2)).sum::<f32>() / 8.0;
            if in_var > 1e-3 {
                let var: f32 = row.iter().map(|a| (a - mean).powi(2)).sum::<f32>() / 8.0;
                prop_assert!((var - 1.0).abs() < 0.05, "row {r} var {var}");
            }
        }
    }

    /// GRU and LSTM hidden states stay within tanh bounds for any input.
    fn recurrent_states_bounded(xs in matrix(7, 3), seed in 0u64..100) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let gru = Gru::new(&mut store, "g", 3, 4, &mut rng);
        let lstm = Lstm::new(&mut store, "l", 3, 4, &mut rng);
        let mut g = Graph::new();
        let xn = g.constant(xs);
        let hg = gru.scan(&mut g, &store, xn).unwrap();
        let hl = lstm.scan(&mut g, &store, xn).unwrap();
        prop_assert!(g.value(hg).unwrap().as_slice().iter().all(|v| v.abs() <= 1.0));
        prop_assert!(g.value(hl).unwrap().as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    /// A Linear layer is, in fact, linear: f(αx) = αf(x) when bias is zero.
    fn linear_layer_is_linear(x in matrix(3, 4), alpha in -2.0f32..2.0) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let l = Linear::new(&mut store, "l", 4, 5, Activation::Identity, &mut rng);
        let mut g = Graph::new();
        let xn = g.constant(x.clone());
        let y1 = l.forward(&mut g, &store, xn).unwrap();
        let scaled_in = g.constant(x.affine(alpha, 0.0));
        let y2 = l.forward(&mut g, &store, scaled_in).unwrap();
        let y1s = g.value(y1).unwrap().affine(alpha, 0.0);
        let y2v = g.value(y2).unwrap();
        for (a, b) in y1s.as_slice().iter().zip(y2v.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// Time embedding is bounded by √2 (+ small-angle error) and
    /// deterministic in its inputs.
    fn time_embedding_bounded(len in 2usize..30, scale in 0.1f32..3.0) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let te = TimeEmbedding::new(&mut store, "te", 8, &mut rng);
        let positions: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let deltas: Vec<f32> = (0..len).map(|i| if i == 0 { 0.0 } else { scale }).collect();
        let basis = te.basis(&positions);
        let mut g = Graph::new();
        let e1 = te.forward(&mut g, &store, &basis, &deltas).unwrap();
        let e2 = te.forward(&mut g, &store, &basis, &deltas).unwrap();
        let v1 = g.value(e1).unwrap();
        prop_assert!(v1.as_slice().iter().all(|v| v.abs() < 1.6));
        prop_assert_eq!(v1, g.value(e2).unwrap());
    }

    /// Adjacency normalization is idempotent on its own output's support:
    /// re-normalizing a normalized matrix keeps rows stochastic-or-zero.
    fn normalization_row_stochastic(vals in proptest::collection::vec(-1.0f32..1.0, 25)) {
        let adj = Matrix::from_vec(5, 5, vals).unwrap();
        let p = normalize_adjacency(&adj);
        let pp = normalize_adjacency(&p);
        for r in 0..5 {
            let s1: f32 = p.row(r).iter().sum();
            let s2: f32 = pp.row(r).iter().sum();
            prop_assert!(s1 <= 1.0 + 1e-4);
            prop_assert!(s2 <= 1.0 + 1e-4);
            if s1 > 1e-6 {
                prop_assert!((s2 - 1.0).abs() < 1e-4);
            }
        }
    }
}
