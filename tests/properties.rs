//! Property-based tests (proptest) on the core invariants: evaluation
//! protocol, EVT thresholding, matrix algebra, normalization, attention
//! softmax, and the window-wise graph.

use aero_repro::core::window_adjacency;
use aero_repro::eval::{confusion, evaluate_point_adjusted, point_adjust, Metrics};
use aero_repro::evt::{apply_threshold, pot_threshold, PotConfig};
use aero_repro::nn::normalize_adjacency;
use aero_repro::tensor::forward::scaled_softmax_rows;
use aero_repro::tensor::{Graph, Matrix};
use aero_repro::timeseries::{LabelGrid, MinMaxScaler, MultivariateSeries};
use proptest::prelude::*;

/// A `rows × cols` matrix with entries in `[lo, hi)`.
fn matrix(rows: usize, cols: usize, lo: f32, hi: f32) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(lo..hi, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
}

fn label_grid(rows: usize, cols: usize) -> impl Strategy<Value = LabelGrid> {
    proptest::collection::vec(proptest::bool::ANY, rows * cols).prop_map(move |bits| {
        LabelGrid::from_fn(rows, cols, |r, c| bits[r * cols + c])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Point adjustment never removes predictions and never lowers recall.
    fn point_adjust_is_monotone(pred in label_grid(3, 40), truth in label_grid(3, 40)) {
        let adjusted = point_adjust(&pred, &truth);
        for r in 0..3 {
            for c in 0..40 {
                if pred.get(r, c) {
                    prop_assert!(adjusted.get(r, c), "adjustment dropped a prediction");
                }
            }
        }
        let before = confusion(&pred, &truth);
        let after = confusion(&adjusted, &truth);
        prop_assert!(after.recall >= before.recall - 1e-12);
        // Adjustment only adds points inside true segments → FP unchanged.
        prop_assert_eq!(before.fp, after.fp);
    }

    /// Point-adjusted evaluation of the truth against itself is perfect.
    fn truth_scores_perfectly(truth in label_grid(4, 30)) {
        let m = evaluate_point_adjusted(&truth.clone(), &truth);
        prop_assert_eq!(m.precision, 1.0);
        prop_assert_eq!(m.recall, 1.0);
    }

    /// Confusion counts always partition the grid.
    fn confusion_partitions_grid(pred in label_grid(3, 25), truth in label_grid(3, 25)) {
        let m = confusion(&pred, &truth);
        prop_assert_eq!(m.tp + m.fp + m.fn_ + m.tn, 3 * 25);
    }

    /// F1 is between 0 and 1 and harmonic-mean consistent.
    fn metrics_are_consistent(tp in 0usize..100, fp in 0usize..100, fn_ in 0usize..100) {
        let m = Metrics::from_counts(tp, fp, fn_, 10);
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.f1));
        if m.precision + m.recall > 0.0 {
            let expected = 2.0 * m.precision * m.recall / (m.precision + m.recall);
            prop_assert!((m.f1 - expected).abs() < 1e-12);
        }
    }

    /// The POT threshold never falls below the initial quantile threshold
    /// and flags at most a bounded fraction of calibration points.
    fn pot_threshold_is_conservative(
        seed in 0u64..1000,
        scale in 0.1f32..10.0,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scores: Vec<f32> = (0..4000).map(|_| rng.gen_range(0.0..scale)).collect();
        let pot = pot_threshold(&scores, PotConfig { level: 0.98, q: 1e-3 }).unwrap();
        prop_assert!(pot.threshold >= pot.initial - 1e-6);
        let flagged = apply_threshold(&scores, pot.threshold)
            .iter()
            .filter(|&&b| b)
            .count();
        // q=1e-3 on 4000 points → expect ~4; allow generous slack.
        prop_assert!(flagged <= 80, "{flagged} flagged");
    }

    /// Matrix multiplication is associative (within f32 tolerance) and
    /// distributes over addition.
    fn matmul_algebra(
        a in proptest::collection::vec(-2.0f32..2.0, 6),
        b in proptest::collection::vec(-2.0f32..2.0, 6),
        c in proptest::collection::vec(-2.0f32..2.0, 4),
    ) {
        let a = Matrix::from_vec(2, 3, a).unwrap();
        let b = Matrix::from_vec(3, 2, b).unwrap();
        let c = Matrix::from_vec(2, 2, c).unwrap();
        let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in ab_c.as_slice().iter().zip(a_bc.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Transpose is an involution and (AB)ᵀ = BᵀAᵀ.
    fn transpose_laws(
        a in proptest::collection::vec(-3.0f32..3.0, 12),
        b in proptest::collection::vec(-3.0f32..3.0, 8),
    ) {
        let a = Matrix::from_vec(3, 4, a).unwrap();
        let b = Matrix::from_vec(4, 2, b).unwrap();
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Min-max normalization keeps training data in [0, 1] and roundtrips.
    fn minmax_scaler_properties(values in proptest::collection::vec(-100.0f32..100.0, 20)) {
        let series = MultivariateSeries::regular(Matrix::from_vec(2, 10, values).unwrap());
        let mut scaler = MinMaxScaler::new();
        scaler.fit(&series);
        let scaled = scaler.transform(&series).unwrap();
        for &v in scaled.values().as_slice() {
            prop_assert!((-0.1001..=1.1001).contains(&v), "out of range: {v}");
        }
        for v in 0..2 {
            for t in 0..10 {
                let back = scaler.inverse(v, scaled.get(v, t)).unwrap();
                let orig = series.get(v, t);
                // Degenerate (constant) variates cannot roundtrip exactly.
                let row = series.values().row(v);
                let range = row.iter().cloned().fold(f32::MIN, f32::max)
                    - row.iter().cloned().fold(f32::MAX, f32::min);
                if range > 1e-3 {
                    prop_assert!((back - orig).abs() < range * 1e-3 + 1e-3);
                }
            }
        }
    }

    /// Window adjacency entries are valid cosines; the normalized
    /// propagation matrix is row-stochastic or zero with no self-loops.
    fn graph_invariants(values in proptest::collection::vec(-5.0f32..5.0, 24)) {
        let e = Matrix::from_vec(4, 6, values).unwrap();
        let adj = window_adjacency(&e);
        for r in 0..4 {
            for c in 0..4 {
                let v = adj.get(r, c);
                prop_assert!((-1.0001..=1.0001).contains(&v));
                prop_assert!((adj.get(r, c) - adj.get(c, r)).abs() < 1e-5);
            }
        }
        let p = normalize_adjacency(&adj);
        for r in 0..4 {
            prop_assert_eq!(p.get(r, r), 0.0);
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!(sum < 1.0 + 1e-4);
            prop_assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    /// Segments reconstruct the exact label set.
    fn segments_roundtrip(grid in label_grid(3, 30)) {
        let mut rebuilt = LabelGrid::new(3, 30);
        for seg in grid.segments() {
            rebuilt.mark_range(seg.variate, seg.start, seg.end).unwrap();
        }
        prop_assert_eq!(rebuilt, grid);
    }

    /// Every finite softmax row is a probability distribution.
    fn softmax_rows_are_distributions(x in matrix(4, 21, -30.0, 30.0), alpha in 0.05f32..2.0) {
        let p = scaled_softmax_rows(&x, alpha);
        prop_assert_eq!(p.shape(), x.shape());
        for r in 0..4 {
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    /// Adding a constant to a row leaves its softmax unchanged.
    fn softmax_is_shift_invariant(x in matrix(3, 19, -30.0, 30.0), c in -50.0f32..50.0) {
        let p = scaled_softmax_rows(&x, 1.0);
        let q = scaled_softmax_rows(&x.map(|v| v + c), 1.0);
        for (a, b) in p.as_slice().iter().zip(q.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// Softmax is order-preserving: equal scores get bitwise-equal weights
    /// and a clearly larger score gets a strictly larger weight.
    fn softmax_preserves_score_order(
        steps in proptest::collection::vec(-40i32..40, 35),
    ) {
        let x = Matrix::from_vec(1, 35, steps.iter().map(|&s| s as f32 * 0.5).collect()).unwrap();
        let p = scaled_softmax_rows(&x, 1.0);
        for i in 0..35 {
            for j in 0..35 {
                let (xi, xj) = (x.get(0, i), x.get(0, j));
                if xi == xj {
                    prop_assert_eq!(p.get(0, i).to_bits(), p.get(0, j).to_bits());
                } else if xi < xj {
                    prop_assert!(p.get(0, i) < p.get(0, j), "x {xi} < {xj} but p not");
                }
            }
        }
    }

    /// The fused scale is exactly a pre-multiplication of the input.
    fn scaled_softmax_is_softmax_of_scaled_input(x in matrix(3, 33, -20.0, 20.0), alpha in 0.05f32..3.0) {
        let fused = scaled_softmax_rows(&x, alpha);
        let unfused = scaled_softmax_rows(&x.map(|v| alpha * v), 1.0);
        for (a, b) in fused.as_slice().iter().zip(unfused.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The in-source exp keeps softmax close to an f64 reference.
    fn softmax_matches_f64_reference(x in matrix(3, 40, -40.0, 40.0), alpha in 0.1f32..1.5) {
        let p = scaled_softmax_rows(&x, alpha);
        for r in 0..3 {
            let z: Vec<f64> = x.row(r).iter().map(|&v| (alpha * v) as f64).collect();
            let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let e: Vec<f64> = z.iter().map(|&v| (v - max).exp()).collect();
            let sum: f64 = e.iter().sum();
            for (c, &ev) in e.iter().enumerate() {
                let want = ev / sum;
                let got = p.get(r, c) as f64;
                prop_assert!((got - want).abs() <= 1e-6 + 1e-5 * want, "({r},{c}): {got} vs {want}");
            }
        }
    }

    /// The autodiff graph's softmax is the tape-free forward body, bit for bit.
    fn graph_softmax_matches_forward_body(x in matrix(5, 17, -25.0, 25.0), alpha in 0.05f32..2.0) {
        let mut g = Graph::new();
        let node = g.constant(x.clone());
        let plain = g.softmax_rows(node).unwrap();
        let scaled = g.scaled_softmax_rows(node, alpha).unwrap();
        prop_assert_eq!(g.value(plain).unwrap(), &scaled_softmax_rows(&x, 1.0));
        prop_assert_eq!(g.value(scaled).unwrap(), &scaled_softmax_rows(&x, alpha));
    }

    /// Point adjustment is idempotent.
    fn point_adjust_is_idempotent(pred in label_grid(3, 40), truth in label_grid(3, 40)) {
        let once = point_adjust(&pred, &truth);
        prop_assert_eq!(point_adjust(&once, &truth), once);
    }

    /// The paper's point-adjusted protocol never scores below plain
    /// point-wise evaluation.
    fn point_adjusted_metrics_dominate_pointwise(pred in label_grid(3, 40), truth in label_grid(3, 40)) {
        let raw = confusion(&pred, &truth);
        let adjusted = evaluate_point_adjusted(&pred, &truth);
        prop_assert!(adjusted.precision >= raw.precision - 1e-12);
        prop_assert!(adjusted.recall >= raw.recall - 1e-12);
        prop_assert!(adjusted.f1 >= raw.f1 - 1e-12);
    }

    /// Segments are maximal runs: fully labelled, bounded by an unlabelled
    /// point or the grid edge, ordered, and disjoint.
    fn segments_are_maximal_runs(grid in label_grid(3, 30)) {
        let segs = grid.segments();
        for (i, s) in segs.iter().enumerate() {
            prop_assert!(s.start <= s.end && s.end < 30);
            prop_assert!((s.start..=s.end).all(|t| grid.get(s.variate, t)));
            prop_assert!(s.start == 0 || !grid.get(s.variate, s.start - 1));
            prop_assert!(s.end == 29 || !grid.get(s.variate, s.end + 1));
            if let Some(next) = segs.get(i + 1) {
                if next.variate == s.variate {
                    prop_assert!(next.start > s.end + 1);
                } else {
                    prop_assert!(next.variate > s.variate);
                }
            }
        }
    }

    /// Window adjacency is a cosine: rescaling a variate's error row by a
    /// positive factor leaves every edge unchanged.
    fn window_adjacency_ignores_positive_row_scale(
        values in proptest::collection::vec(-5.0f32..5.0, 24),
        row in 0usize..4,
        scale in 0.5f32..4.0,
    ) {
        let e = Matrix::from_vec(4, 6, values).unwrap();
        let mut scaled = e.clone();
        for c in 0..6 {
            scaled.set(row, c, e.get(row, c) * scale);
        }
        let a = window_adjacency(&e);
        let b = window_adjacency(&scaled);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }
}
