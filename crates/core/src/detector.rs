//! The common detector interface shared by AERO and all baselines, plus the
//! end-to-end detection pipeline (fit → POT calibration → score → point-
//! adjusted metrics) used by every experiment harness.

use std::fmt;

use aero_eval::{evaluate_point_adjusted, threshold_scores, Metrics};
use aero_evt::{pot_threshold_lenient, PotConfig, PotThreshold};
use aero_tensor::Matrix;
use aero_timeseries::{Dataset, MultivariateSeries};

/// Errors surfaced by detectors.
#[derive(Debug, Clone)]
pub enum DetectorError {
    /// Underlying tensor/autodiff failure.
    Tensor(aero_tensor::TensorError),
    /// Underlying time-series failure.
    Series(aero_timeseries::TsError),
    /// Detector-specific invariant violation.
    Invalid(String),
    /// Disk/OS failure while reading or writing a checkpoint. Retryable:
    /// the data on disk (if any) was not the problem.
    Io(String),
    /// A checkpoint exists but its contents are unusable — truncated,
    /// bit-flipped, checksum-mismatched, or written by an incompatible
    /// format version. Not retryable without a different file.
    Corrupt(String),
    /// Threshold calibration failed for lack of usable scores.
    Threshold(aero_evt::PotError),
    /// A supervised work unit was abandoned after exhausting its retry
    /// budget: a worker panic, a blown deadline, or an open circuit
    /// breaker (see `crate::supervisor`). The pipeline itself is still
    /// healthy — only the described unit of work was lost.
    Supervision(String),
    /// The stream is saturated: the admission queue rejected work (see
    /// `crate::overload`). The frame's data was fine — the system had no
    /// capacity for it. Retryable once the backlog drains.
    Overload(String),
    /// A WAL directory's segment headers belong to a different shard or
    /// catalog partition than the one resuming it (fleet isolation guard).
    WalMismatch(String),
    /// The WAL device is out of space (ENOSPC or a short write). The
    /// in-memory detector state is still coherent — only durability is
    /// gone — so callers should degrade (e.g. drop to `HoldLast` and stop
    /// logging) rather than crash. Retryable once space is reclaimed.
    WalFull(String),
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Tensor(e) => write!(f, "tensor error: {e}"),
            Self::Series(e) => write!(f, "series error: {e}"),
            Self::Invalid(msg) => write!(f, "invalid detector state: {msg}"),
            Self::Io(msg) => write!(f, "i/o error: {msg}"),
            Self::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            Self::Threshold(e) => write!(f, "threshold calibration: {e}"),
            Self::Supervision(msg) => write!(f, "supervision: {msg}"),
            Self::Overload(msg) => write!(f, "overload: {msg}"),
            Self::WalMismatch(msg) => write!(f, "WAL identity mismatch: {msg}"),
            Self::WalFull(msg) => write!(f, "WAL device full: {msg}"),
        }
    }
}

impl std::error::Error for DetectorError {}

impl From<aero_tensor::TensorError> for DetectorError {
    fn from(e: aero_tensor::TensorError) -> Self {
        Self::Tensor(e)
    }
}

impl From<aero_timeseries::TsError> for DetectorError {
    fn from(e: aero_timeseries::TsError) -> Self {
        Self::Series(e)
    }
}

impl From<aero_evt::PotError> for DetectorError {
    fn from(e: aero_evt::PotError) -> Self {
        Self::Threshold(e)
    }
}

impl From<aero_parallel::ShardError> for DetectorError {
    fn from(e: aero_parallel::ShardError) -> Self {
        Self::Supervision(e.to_string())
    }
}

/// Result alias for detector operations.
pub type DetectorResult<T> = Result<T, DetectorError>;

/// A time-series anomaly detector.
///
/// The contract mirrors the paper's protocol: `fit` trains (unsupervised) on
/// the nominal series; `score` produces per-point anomaly scores for any
/// series with the same variate count (larger = more anomalous). The first
/// `warmup()` columns of a scored series may be unscored (zero) — the
/// pipeline excludes them from POT calibration. `score_from` is `score` for
/// a caller that reads only a series' tail: POT calibration reads only the
/// held-out columns of the training series.
pub trait Detector {
    /// Display name used in result tables (e.g. "AERO", "SR").
    fn name(&self) -> String;

    /// Trains on the nominal series.
    fn fit(&mut self, train: &MultivariateSeries) -> DetectorResult<()>;

    /// Scores every point of `series`; returns an `N × len` matrix.
    fn score(&mut self, series: &MultivariateSeries) -> DetectorResult<Matrix>;

    /// Scores `series` for a caller that reads only columns `first..`:
    /// returns an `N × len` matrix whose columns `first..` are bitwise those
    /// of [`score`](Self::score); earlier columns are unspecified. A
    /// detector may skip work that only earlier columns need. The default
    /// scores everything.
    fn score_from(&mut self, series: &MultivariateSeries, first: usize) -> DetectorResult<Matrix> {
        let _ = first;
        self.score(series)
    }

    /// Number of leading columns without valid scores.
    fn warmup(&self) -> usize {
        0
    }
}

/// Timing breakdown of one detection run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTiming {
    /// Wall-clock training time in seconds.
    pub train_secs: f64,
    /// Wall-clock threshold calibration in seconds: scoring the training
    /// series (AERO scores only the windows the held-out tail needs, the
    /// baselines the whole series) plus the POT fit.
    pub calibrate_secs: f64,
    /// Wall-clock scoring of the test series in seconds.
    pub test_secs: f64,
}

/// Full output of a detection run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Point-adjusted metrics against the dataset's ground truth.
    pub metrics: Metrics,
    /// The calibrated POT threshold.
    pub threshold: PotThreshold,
    /// Raw test score matrix.
    pub scores: Matrix,
    /// Timing breakdown (Fig. 6).
    pub timing: RunTiming,
}

/// Fraction of the training split held out for threshold calibration.
const CALIBRATION_HOLDOUT: f64 = 0.2;

/// Runs the complete paper protocol for one detector on one dataset:
///
/// 1. fit on the leading 80% of the training split;
/// 2. score the full training split and calibrate a POT threshold on the
///    held-out tail (Eq. 18 uses training-instance scores; calibrating on
///    scores the model has *not* memorized keeps the EVT tail estimate
///    aligned with test-time score levels — the same validation-set POT
///    calibration the reference implementations of OmniAnomaly/TranAD use).
///    The full series is scored so held-out columns keep their long-window
///    context, but through [`Detector::score_from`], so a detector may skip
///    the work only the fitted columns would need;
/// 3. score the test split, threshold, point-adjust, compute metrics.
pub fn run_detection(
    detector: &mut dyn Detector,
    dataset: &Dataset,
    pot: PotConfig,
) -> DetectorResult<RunOutcome> {
    let train_len = dataset.train.len();
    let holdout = ((train_len as f64 * CALIBRATION_HOLDOUT) as usize).min(train_len / 2);
    let split = train_len - holdout;

    let t0 = std::time::Instant::now();
    let fit_series = if holdout > 0 {
        dataset.train.split_at(split)?.0
    } else {
        dataset.train.clone()
    };
    detector.fit(&fit_series)?;
    let train_secs = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    // Calibrate only on the out-of-sample tail.
    let calib_start = split
        .max(detector.warmup())
        .min(train_len.saturating_sub(1));
    let calib_scores = detector.score_from(&dataset.train, calib_start)?;
    if calib_scores.cols() != train_len {
        return Err(DetectorError::Invalid(format!(
            "{} scored {} columns of a {train_len}-column training series",
            detector.name(),
            calib_scores.cols()
        )));
    }
    let mut calib: Vec<f32> = Vec::with_capacity(calib_scores.rows() * (train_len - calib_start));
    for r in 0..calib_scores.rows() {
        calib.extend_from_slice(&calib_scores.row(r)[calib_start..]);
    }
    // Lenient calibration: a degenerate calibration set (constant scores,
    // too-short holdout) should still produce a comparable batch run rather
    // than abort the experiment. Online deployment uses the strict variant.
    let threshold = pot_threshold_lenient(&calib, pot);
    let calibrate_secs = t1.elapsed().as_secs_f64();

    let t2 = std::time::Instant::now();
    let scores = detector.score(&dataset.test)?;
    let test_secs = t2.elapsed().as_secs_f64();

    let pred = threshold_scores(&scores, threshold.threshold);
    let metrics = evaluate_point_adjusted(&pred, &dataset.test_labels);
    Ok(RunOutcome {
        metrics,
        threshold,
        scores,
        timing: RunTiming {
            train_secs,
            calibrate_secs,
            test_secs,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_timeseries::LabelGrid;

    /// A trivial detector: score = |value|, no training.
    struct AbsDetector;

    impl Detector for AbsDetector {
        fn name(&self) -> String {
            "Abs".into()
        }
        fn fit(&mut self, _train: &MultivariateSeries) -> DetectorResult<()> {
            Ok(())
        }
        fn score(&mut self, series: &MultivariateSeries) -> DetectorResult<Matrix> {
            Ok(series.values().map(f32::abs))
        }
    }

    #[test]
    fn pipeline_detects_obvious_outliers() {
        // Train: small noise. Test: same noise + one large segment.
        let mut train_vals = Matrix::zeros(1, 500);
        let mut test_vals = Matrix::zeros(1, 500);
        for t in 0..500 {
            let v = ((t * 2654435761) % 1000) as f32 / 5000.0 - 0.1; // deterministic jitter
            train_vals.set(0, t, v);
            test_vals.set(0, t, v);
        }
        for t in 100..110 {
            test_vals.set(0, t, 5.0);
        }
        let mut labels = LabelGrid::new(1, 500);
        labels.mark_range(0, 100, 109).unwrap();
        let ds = Dataset {
            name: "unit".into(),
            train: MultivariateSeries::regular(train_vals),
            test: MultivariateSeries::regular(test_vals),
            test_labels: labels,
            test_noise: LabelGrid::new(1, 500),
            train_noise: LabelGrid::new(1, 500),
        };
        let mut det = AbsDetector;
        let out = run_detection(&mut det, &ds, PotConfig { level: 0.98, q: 1e-3 }).unwrap();
        assert_eq!(out.metrics.recall, 1.0);
        assert!(out.metrics.precision > 0.5, "precision = {}", out.metrics.precision);
        assert!(out.timing.train_secs >= 0.0);
    }

    #[test]
    fn detector_error_display() {
        let e = DetectorError::Invalid("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
