//! Experiment harness shared by the `table*`/`fig*` binaries: profile
//! selection (harness-scale vs. paper-scale), the method suite, and the
//! per-dataset runner that applies the paper's protocol to every detector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use aero_baselines::{all_baselines, NnConfig};
use aero_core::{run_detection, Aero, AeroConfig, Detector, RunOutcome};
use aero_eval::ResultTable;
use aero_evt::PotConfig;
use aero_timeseries::Dataset;

/// Execution profile for the harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Laptop-scale: truncated training splits, reduced model width,
    /// subsampled training windows. Reproduces the *shape* of each result.
    Fast,
    /// Paper-scale hyperparameters (W=200, ω=60, full training splits).
    Paper,
}

impl Profile {
    /// Parses `--paper` from the process args (default: fast).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--paper") {
            Self::Paper
        } else {
            Self::Fast
        }
    }

    /// AERO configuration for this profile.
    pub fn aero_config(self) -> AeroConfig {
        match self {
            Self::Fast => AeroConfig::fast(),
            Self::Paper => AeroConfig::paper(),
        }
    }

    /// Baseline configuration for this profile.
    pub fn nn_config(self) -> NnConfig {
        match self {
            Self::Fast => NnConfig::fast(),
            Self::Paper => NnConfig {
                window: 60,
                hidden: 64,
                latent: 16,
                epochs: 100,
                patience: 5,
                stride: 10,
                ..NnConfig::fast()
            },
        }
    }

    /// Training-split cap applied to datasets under this profile.
    pub fn train_cap(self) -> Option<usize> {
        match self {
            Self::Fast => Some(1500),
            Self::Paper => None,
        }
    }

    /// Applies the training cap to a dataset.
    pub fn prepare(self, dataset: &Dataset) -> Dataset {
        match self.train_cap() {
            Some(cap) => dataset.truncate_train(cap).expect("truncate"),
            None => dataset.clone(),
        }
    }
}

/// The POT configuration used across all methods (paper §IV-B).
pub fn paper_pot() -> PotConfig {
    PotConfig { level: 0.99, q: 1e-3 }
}

/// Builds the 12-method suite (11 baselines + AERO) in the paper's order.
pub fn full_suite(profile: Profile) -> Vec<Box<dyn Detector>> {
    let mut suite = all_baselines(&profile.nn_config());
    suite.push(Box::new(
        Aero::new(profile.aero_config()).expect("valid AERO config"),
    ));
    suite
}

/// One detector run on one prepared dataset; prints progress to stderr.
pub fn run_one(
    detector: &mut dyn Detector,
    dataset: &Dataset,
) -> aero_core::DetectorResult<RunOutcome> {
    eprintln!("  running {:>9} on {} …", detector.name(), dataset.name);
    let out = run_detection(detector, dataset, paper_pot())?;
    let auc = aero_eval::roc_auc(&out.scores, &dataset.test_labels, detector.warmup());
    eprintln!(
        "    P={:.2}% R={:.2}% F1={:.2}% AUC={:.3}  (train {:.1}s, calibrate {:.1}s, test {:.1}s)",
        out.metrics.precision * 100.0,
        out.metrics.recall * 100.0,
        out.metrics.f1 * 100.0,
        auc,
        out.timing.train_secs,
        out.timing.calibrate_secs,
        out.timing.test_secs
    );
    Ok(out)
}

/// Runs the full suite over `datasets`, collecting a paper-style table.
/// Detector failures become zero rows rather than aborting the sweep.
pub fn run_suite(profile: Profile, datasets: &[Dataset]) -> ResultTable {
    let mut table = ResultTable::new();
    for dataset in datasets {
        let prepared = profile.prepare(dataset);
        for detector in full_suite(profile).iter_mut() {
            match run_one(detector.as_mut(), &prepared) {
                Ok(out) => table.push(detector.name(), dataset.name.clone(), out.metrics),
                Err(e) => {
                    eprintln!("    {} FAILED on {}: {e}", detector.name(), dataset.name);
                    table.push(
                        detector.name(),
                        dataset.name.clone(),
                        aero_eval::Metrics::from_counts(0, 0, 1, 0),
                    );
                }
            }
        }
    }
    table
}

/// Renders an ASCII heat-map of a square matrix (Fig. 8 style): darker
/// characters = larger values.
pub fn ascii_heatmap(m: &aero_tensor::Matrix) -> String {
    const SHADES: [char; 6] = [' ', '.', ':', '+', '#', '@'];
    let max = m.max().unwrap_or(1.0).max(1e-9);
    let mut out = String::new();
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            let v = (m.get(r, c).max(0.0) / max * (SHADES.len() - 1) as f32).round() as usize;
            out.push(SHADES[v.min(SHADES.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

/// Renders a one-line ASCII sparkline of a series (Fig. 5/9 style).
pub fn sparkline(values: &[f32]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let range = (hi - lo).max(1e-9);
    values
        .iter()
        .map(|&v| {
            let idx = ((v - lo) / range * (BARS.len() - 1) as f32).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aero_tensor::Matrix;

    #[test]
    fn profile_configs_are_valid() {
        assert!(Profile::Fast.aero_config().validate().is_ok());
        assert!(Profile::Paper.aero_config().validate().is_ok());
        assert_eq!(Profile::Fast.train_cap(), Some(1500));
        assert_eq!(Profile::Paper.train_cap(), None);
    }

    #[test]
    fn suite_contains_twelve_methods() {
        let suite = full_suite(Profile::Fast);
        assert_eq!(suite.len(), 12);
        assert_eq!(suite.last().unwrap().name(), "AERO");
    }

    #[test]
    fn heatmap_and_sparkline_render() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * c) as f32);
        let h = ascii_heatmap(&m);
        assert_eq!(h.lines().count(), 3);
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
    }
}
