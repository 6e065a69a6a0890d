//! Property-based tests for the tensor substrate: algebraic laws of the
//! matrix kernels and invariants of the autodiff ops.

use aero_tensor::{Graph, Matrix, ParamStore};
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// matmul_tn / matmul_nt agree with the explicit-transpose forms.
    fn fused_transpose_matmuls_agree(a in matrix(4, 3), b in matrix(4, 5)) {
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        // matmul_nt: A·Bᵀ with shared column count.
        let fast = a.matmul_nt(&a).unwrap();
        let slow = a.matmul(&a.transpose()).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Identity is neutral for matmul.
    fn identity_neutral(a in matrix(4, 4)) {
        let i = Matrix::eye(4);
        prop_assert_eq!(a.matmul(&i).unwrap(), a.clone());
        prop_assert_eq!(i.matmul(&a).unwrap(), a);
    }

    /// add/sub are inverse operations.
    fn add_sub_roundtrip(a in matrix(3, 5), b in matrix(3, 5)) {
        let back = a.add(&b).unwrap().sub(&b).unwrap();
        for (x, y) in back.as_slice().iter().zip(a.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// concat_cols then slice_cols recovers the parts.
    fn concat_slice_roundtrip(a in matrix(3, 2), b in matrix(3, 4)) {
        let cat = Matrix::concat_cols(&[&a, &b]).unwrap();
        prop_assert_eq!(cat.slice_cols(0, 2).unwrap(), a);
        prop_assert_eq!(cat.slice_cols(2, 4).unwrap(), b);
    }

    /// Softmax rows are probability distributions for any input.
    fn softmax_rows_are_distributions(x in matrix(4, 6)) {
        let mut g = Graph::new();
        let xn = g.constant(x);
        let y = g.softmax_rows(xn).unwrap();
        let v = g.value(y).unwrap();
        for r in 0..4 {
            let sum: f32 = v.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(v.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    /// Sigmoid stays in (0,1); tanh in (−1,1); both finite.
    fn activations_bounded(x in matrix(3, 7)) {
        let mut g = Graph::new();
        let xn = g.constant(x);
        let s = g.sigmoid(xn).unwrap();
        let t = g.tanh(xn).unwrap();
        prop_assert!(g.value(s).unwrap().as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert!(g.value(t).unwrap().as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    /// Backward through a linear chain matches the analytic derivative:
    /// d/dx mean((a·x + b)²) = 2a(ax+b)/n elementwise.
    fn affine_square_gradient(vals in proptest::collection::vec(-2.0f32..2.0, 6), a in -2.0f32..2.0, b in -1.0f32..1.0) {
        let mut store = ParamStore::new();
        let x = store.register("x", Matrix::from_vec(2, 3, vals.clone()).unwrap());
        let mut g = Graph::new();
        let xn = g.param(&store, x).unwrap();
        let lin = g.affine(xn, a, b).unwrap();
        let sq = g.hadamard(lin, lin).unwrap();
        let loss = g.mean_all(sq).unwrap();
        g.backward(loss, &mut store).unwrap();
        let grad = store.grad(x).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            let expected = 2.0 * a * (a * v + b) / 6.0;
            prop_assert!((grad.as_slice()[i] - expected).abs() < 1e-4,
                "idx {i}: {} vs {expected}", grad.as_slice()[i]);
        }
    }

    /// Gradients accumulate additively over repeated backward passes.
    fn gradients_accumulate(v in -2.0f32..2.0) {
        let mut store = ParamStore::new();
        let x = store.register("x", Matrix::scalar(v));
        for _ in 0..3 {
            let mut g = Graph::new();
            let xn = g.param(&store, x).unwrap();
            let loss = g.sum_all(xn).unwrap();
            g.backward(loss, &mut store).unwrap();
        }
        prop_assert!((store.grad(x).unwrap().scalar_value().unwrap() - 3.0).abs() < 1e-6);
    }

    /// exp and ln are inverse on positive inputs.
    fn exp_ln_roundtrip(vals in proptest::collection::vec(0.1f32..5.0, 6)) {
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_vec(2, 3, vals.clone()).unwrap());
        let ln = g.ln(x).unwrap();
        let back = g.exp(ln).unwrap();
        for (a, b) in g.value(back).unwrap().as_slice().iter().zip(&vals) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }
}
