//! Tail scoring gate: `Detector::score_from(series, first)` must give
//! columns `first..` bitwise equal to a full `score`, and `run_detection`,
//! which calibrates through it, must land on the same scores and threshold
//! as the protocol that scored the whole training series.
//!
//! AERO's `score_from` keeps the full window grid but drops the windows that
//! reach no needed column (DESIGN.md §7). The cases pin the three context
//! rules: a plain column needs the windows ending at or after it, a smoothed
//! column reaches back half the smoothing width, and the dynamic-EWMA graph
//! scores every window. Each runs in every graph mode at smoothing 1 and 3,
//! for first columns at the series start, the warmup edge, the holdout
//! split, a column off the `ω/2` window grid, and the last column.

use aero_core::{run_detection, Aero, AeroConfig, Detector, GraphMode};
use aero_datagen::SyntheticConfig;
use aero_evt::{pot_threshold_lenient, PotConfig, PotThreshold};
use aero_tensor::Matrix;
use aero_timeseries::{Dataset, MultivariateSeries};

const POT: PotConfig = PotConfig {
    level: 0.99,
    q: 1e-3,
};

const GRAPH_MODES: [GraphMode; 3] = [
    GraphMode::WindowWise,
    GraphMode::StaticComplete,
    GraphMode::DynamicEwma { beta: 0.9 },
];

fn config(graph_mode: GraphMode, score_smoothing: usize) -> AeroConfig {
    AeroConfig {
        graph_mode,
        score_smoothing,
        max_epochs: 2,
        ..AeroConfig::tiny()
    }
}

/// The leading column index of `run_detection`'s held-out tail.
fn holdout_split(train_len: usize) -> usize {
    train_len - ((train_len as f64 * 0.2) as usize).min(train_len / 2)
}

/// The first columns every case checks, for a series of `len` columns.
fn first_columns(cfg: &AeroConfig, len: usize) -> Vec<usize> {
    let (w, omega) = (cfg.window, cfg.effective_short_window());
    let stride = (omega / 2).max(1);
    // One past a grid point: the window ending just before it is needed
    // only for smoothing, so this column catches a missed half-width.
    let off_grid = w - 1 + 20 * stride + 1;
    assert!(
        stride > 1 && off_grid < len,
        "the off-grid column must exist"
    );
    vec![0, w - omega, holdout_split(len), off_grid, len - 1]
}

fn column_bits(m: &Matrix, first: usize) -> Vec<Vec<u32>> {
    (0..m.rows())
        .map(|r| m.row(r)[first..].iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn threshold_bits(t: &PotThreshold) -> (u64, u64, usize, u64, u64, String) {
    (
        t.threshold.to_bits(),
        t.initial.to_bits(),
        t.peaks,
        t.gamma.to_bits(),
        t.sigma.to_bits(),
        format!("{:?}", t.method),
    )
}

/// `run_detection` as it read before tail scoring: fit on the leading 80%,
/// score the whole training series, calibrate on the held-out tail, score
/// the test series. Returns the fitted model, test scores and threshold.
fn full_scoring_protocol(cfg: AeroConfig, ds: &Dataset) -> (Aero, Matrix, PotThreshold) {
    let split = holdout_split(ds.train.len());
    let mut model = Aero::new(cfg).expect("valid config");
    model
        .fit(&ds.train.split_at(split).expect("split").0)
        .expect("fit");
    let calib_scores = model.score(&ds.train).expect("score train");
    let calib_start = split.max(model.warmup()).min(calib_scores.cols() - 1);
    let calib: Vec<f32> = (0..calib_scores.rows())
        .flat_map(|r| calib_scores.row(r)[calib_start..].to_vec())
        .collect();
    let threshold = pot_threshold_lenient(&calib, POT);
    let scores = model.score(&ds.test).expect("score test");
    (model, scores, threshold)
}

fn assert_tail_equal(model: &mut Aero, series: &MultivariateSeries, label: &str) {
    let full = model.score(series).expect("full score");
    for first in first_columns(model.config(), series.len()) {
        let tail = model.score_from(series, first).expect("tail score");
        assert_eq!(tail.shape(), full.shape(), "{label} first={first}");
        assert!(
            column_bits(&tail, first) == column_bits(&full, first),
            "{label}: score_from({first}) differs from score in columns {first}.."
        );
    }
}

#[test]
fn tail_scoring_equals_full_scoring() {
    let ds = SyntheticConfig::tiny(29).build();
    for graph_mode in GRAPH_MODES {
        for smoothing in [1, 3] {
            let label = format!("{graph_mode:?} smoothing={smoothing}");
            let cfg = config(graph_mode, smoothing);
            let (mut model, ref_scores, ref_threshold) = full_scoring_protocol(cfg.clone(), &ds);
            assert_tail_equal(&mut model, &ds.train, &format!("{label} train"));
            assert_tail_equal(&mut model, &ds.test, &format!("{label} test"));

            let mut fresh = Aero::new(cfg).expect("valid config");
            let out = run_detection(&mut fresh, &ds, POT).expect("run_detection");
            assert!(
                column_bits(&out.scores, 0) == column_bits(&ref_scores, 0),
                "{label}: run_detection's test scores moved"
            );
            assert_eq!(
                threshold_bits(&out.threshold),
                threshold_bits(&ref_threshold),
                "{label}: run_detection's threshold moved"
            );
        }
    }
}
