//! Peaks-Over-Threshold automatic thresholding (AERO Eq. 18; Siffer et al.).
//!
//! Given calibration scores (the anomaly scores of the *training* instances
//! in AERO's protocol), the final alert threshold solves the tail equation
//!
//! `z_q = u + σ/γ · ((q·n/Nₜ)^{−γ} − 1)`
//!
//! where `u` is the empirical `level`-quantile initial threshold, `n` the
//! number of calibration scores, `Nₜ` the number of exceedances over `u`,
//! and `q` the desired tail probability.
//!
//! Calibration sets are whole score matrices (stars × frames of a night),
//! so `u` is found by selection on one `f32` copy of the finite scores —
//! O(n), bitwise the value the textbook full sort would read, `±0.0` ties
//! included.

use crate::gpd::{self, FitMethod};

/// POT configuration. The paper sets `level = 0.99`, `q = 1e-3` everywhere.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PotConfig {
    /// Initial-threshold quantile level in `(0, 1)`.
    pub level: f64,
    /// Target tail probability `q`.
    pub q: f64,
}

impl Default for PotConfig {
    fn default() -> Self {
        Self { level: 0.99, q: 1e-3 }
    }
}

/// Reasons POT calibration can fail (too little usable signal).
///
/// Callers that can tolerate a degraded threshold should either fall back
/// to a last-known-good calibration (what `OnlineAero` does on refits) or
/// call [`pot_threshold_lenient`], which maps these cases onto conservative
/// quantile-based fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PotError {
    /// Every calibration score was NaN/infinite (or the slice was empty).
    NoFiniteScores,
    /// Fewer finite excesses over the initial threshold than a GPD tail
    /// fit needs.
    TooFewPeaks {
        /// Number of excesses observed.
        peaks: usize,
        /// Minimum required for a fit.
        required: usize,
    },
}

impl std::fmt::Display for PotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoFiniteScores => write!(f, "no finite calibration scores"),
            Self::TooFewPeaks { peaks, required } => {
                write!(f, "too few excesses for a tail fit: {peaks} < {required}")
            }
        }
    }
}

impl std::error::Error for PotError {}

/// Minimum number of excesses required to attempt a GPD tail fit.
pub const MIN_PEAKS: usize = 4;

/// The result of POT calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PotThreshold {
    /// Final alert threshold `z_q`.
    pub threshold: f64,
    /// Initial (quantile) threshold `u`.
    pub initial: f64,
    /// Number of exceedances used for the GPD fit.
    pub peaks: usize,
    /// Fitted shape parameter.
    pub gamma: f64,
    /// Fitted scale parameter.
    pub sigma: f64,
    /// Which estimator produced the parameters.
    pub method: FitMethod,
}

/// Calibrates a POT threshold from `scores`.
///
/// Returns a typed [`PotError`] when the calibration set cannot support a
/// tail estimate: no finite scores at all, or fewer than [`MIN_PEAKS`]
/// excesses over the initial quantile threshold. Streaming callers should
/// keep their last known-good threshold in that case; batch callers that
/// prefer SPOT's permissive behaviour can use [`pot_threshold_lenient`].
///
/// O(n) time with one `f32` buffer of the finite scores: the initial
/// threshold is found by selection, not by a sort, and the excesses are
/// read from `scores` in input order, so the GPD fit sums them in the same
/// sequence whatever the selection did to the buffer.
pub fn pot_threshold(scores: &[f32], config: PotConfig) -> Result<PotThreshold, PotError> {
    let mut finite = finite_scores(scores);
    let n = finite.len();
    if n == 0 {
        return Err(PotError::NoFiniteScores);
    }
    let u = level_quantile(scores, &mut finite, config.level);
    drop(finite);

    let peaks: Vec<f64> = scores
        .iter()
        .filter(|v| v.is_finite())
        .map(|&s| s as f64)
        .filter(|&s| s > u)
        .map(|s| s - u)
        .collect();
    let nt = peaks.len();

    if nt < MIN_PEAKS {
        return Err(PotError::TooFewPeaks { peaks: nt, required: MIN_PEAKS });
    }

    Ok(match gpd::fit(&peaks) {
        Some((fit, method)) => {
            let r = config.q * n as f64 / nt as f64;
            let threshold = if fit.gamma.abs() < 1e-9 {
                u - fit.sigma * r.ln()
            } else {
                u + fit.sigma / fit.gamma * (r.powf(-fit.gamma) - 1.0)
            };
            PotThreshold {
                threshold,
                initial: u,
                peaks: nt,
                gamma: fit.gamma,
                sigma: fit.sigma,
                method,
            }
        }
        None => PotThreshold {
            threshold: u,
            initial: u,
            peaks: nt,
            gamma: 0.0,
            sigma: 0.0,
            method: FitMethod::MethodOfMoments,
        },
    })
}

/// The finite entries of `scores`, in input order, in one exactly sized
/// buffer.
fn finite_scores(scores: &[f32]) -> Vec<f32> {
    let mut finite = Vec::with_capacity(scores.len());
    finite.extend(scores.iter().copied().filter(|v| v.is_finite()));
    finite
}

/// The empirical `level`-quantile of the finite scores: the value at index
/// `round(level · (n − 1))` of their ascending order, widened to `f64`.
///
/// `finite` holds the finite entries of `scores` (input order on entry,
/// permuted on return). Selection finds the value in O(n); widening is
/// exact and monotone, so it is the value a sort of the `f64` copy would
/// put there. The one case where "the value" is ambiguous is a tie between
/// `−0.0` and `+0.0`, which compare equal: a stable sort keeps tied zeros
/// in input order, so the zero at the quantile is the `k`-th zero of
/// `scores`, `k` counting from the number of negative scores below it.
fn level_quantile(scores: &[f32], finite: &mut [f32], level: f64) -> f64 {
    let idx = quantile_index(finite.len(), level);
    let (_, &mut u, _) = finite.select_nth_unstable_by(idx, |a, b| {
        a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
    });
    if u != 0.0 {
        return u as f64;
    }
    let negatives = scores.iter().filter(|&&v| v < 0.0 && v.is_finite()).count();
    scores
        .iter()
        .filter(|&&v| v == 0.0)
        .nth(idx - negatives)
        .map_or(u as f64, |&zero| zero as f64)
}

/// The rank of the `level`-quantile among `n` finite scores in ascending
/// order, `round(level · (n − 1))`: where [`pot_threshold`] reads its
/// initial threshold.
fn quantile_index(n: usize, level: f64) -> usize {
    let last = n.saturating_sub(1);
    ((level * last as f64).round() as usize).min(last)
}

/// The most excesses `n` finite scores can put strictly above their
/// `level`-quantile: the scores ranked after index `round(level · (n − 1))`,
/// the rank [`pot_threshold`] reads its initial threshold from. Below
/// [`MIN_PEAKS`], [`pot_threshold`] fails on any calibration set of that
/// size.
pub fn max_excesses(n: usize, level: f64) -> usize {
    n.saturating_sub(1) - quantile_index(n, level)
}

/// [`pot_threshold`] with SPOT's permissive fallbacks instead of errors:
/// no finite scores → never-alerting infinite threshold; too few peaks →
/// the initial quantile plus 5% of the score spread. Batch experiment
/// harnesses use this so a degenerate calibration set still produces a
/// comparable run; online callers should prefer the strict variant plus an
/// explicit last-known-good fallback.
pub fn pot_threshold_lenient(scores: &[f32], config: PotConfig) -> PotThreshold {
    match pot_threshold(scores, config) {
        Ok(t) => t,
        Err(PotError::NoFiniteScores) => PotThreshold {
            threshold: f64::INFINITY,
            initial: f64::INFINITY,
            peaks: 0,
            gamma: 0.0,
            sigma: 0.0,
            method: FitMethod::MethodOfMoments,
        },
        Err(PotError::TooFewPeaks { peaks, .. }) => {
            let mut finite = finite_scores(scores);
            let (lo, hi) = finite
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let u = level_quantile(scores, &mut finite, config.level);
            // Which zero `min`/`max` keep can only change the sign of a
            // zero spread, and `max(1e-9)` discards that.
            let spread = hi as f64 - lo as f64;
            PotThreshold {
                threshold: u + 0.05 * spread.max(1e-9),
                initial: u,
                peaks,
                gamma: 0.0,
                sigma: 0.0,
                method: FitMethod::MethodOfMoments,
            }
        }
    }
}

/// Applies a threshold to scores, producing binary flags.
pub fn apply_threshold(scores: &[f32], threshold: f64) -> Vec<bool> {
    scores.iter().map(|&s| (s as f64) >= threshold).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian_scores(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn max_excesses_predicts_too_few_peaks_on_distinct_scores() {
        for level in [0.9, 0.95, 0.99] {
            for n in 1..600 {
                let scores: Vec<f32> = (0..n).map(|v| v as f32).collect();
                let fits = !matches!(
                    pot_threshold(&scores, PotConfig { level, q: 1e-3 }),
                    Err(PotError::TooFewPeaks { .. })
                );
                assert_eq!(fits, max_excesses(n, level) >= MIN_PEAKS, "n {n} level {level}");
            }
        }
        assert_eq!(max_excesses(0, 0.99), 0);
    }

    #[test]
    fn threshold_exceeds_initial_quantile() {
        let scores = gaussian_scores(20000, 17);
        let pot = pot_threshold(&scores, PotConfig::default()).unwrap();
        assert!(pot.threshold > pot.initial);
        assert!(pot.peaks > 100);
    }

    #[test]
    fn tail_probability_is_approximately_q() {
        // With q = 1e-2 on 50k standard normals, roughly 500 should exceed.
        let scores = gaussian_scores(50000, 18);
        let pot = pot_threshold(&scores, PotConfig { level: 0.98, q: 1e-2 }).unwrap();
        let exceed = scores.iter().filter(|&&s| (s as f64) > pot.threshold).count();
        let expected = 500.0;
        assert!(
            (exceed as f64) > expected * 0.5 && (exceed as f64) < expected * 2.0,
            "exceedances = {exceed}"
        );
    }

    #[test]
    fn smaller_q_gives_larger_threshold() {
        let scores = gaussian_scores(20000, 19);
        let loose = pot_threshold(&scores, PotConfig { level: 0.98, q: 1e-2 }).unwrap();
        let strict = pot_threshold(&scores, PotConfig { level: 0.98, q: 1e-4 }).unwrap();
        assert!(strict.threshold > loose.threshold);
    }

    #[test]
    fn empty_scores_are_typed_error() {
        assert_eq!(
            pot_threshold(&[], PotConfig::default()),
            Err(PotError::NoFiniteScores)
        );
        assert_eq!(
            pot_threshold(&[f32::NAN, f32::INFINITY], PotConfig::default()),
            Err(PotError::NoFiniteScores)
        );
        // The lenient fallback never alerts instead.
        let pot = pot_threshold_lenient(&[], PotConfig::default());
        assert!(pot.threshold.is_infinite());
        assert!(apply_threshold(&[1.0, 2.0], pot.threshold).iter().all(|&b| !b));
    }

    #[test]
    fn few_peaks_is_typed_error_with_quantile_fallback() {
        let scores = vec![1.0f32; 100];
        assert_eq!(
            pot_threshold(&scores, PotConfig::default()),
            Err(PotError::TooFewPeaks { peaks: 0, required: MIN_PEAKS })
        );
        let pot = pot_threshold_lenient(&scores, PotConfig::default());
        assert!(pot.threshold >= 1.0);
        assert_eq!(pot.peaks, 0);
    }

    #[test]
    fn nan_scores_are_ignored() {
        let mut scores = gaussian_scores(5000, 20);
        scores[0] = f32::NAN;
        scores[1] = f32::INFINITY;
        let pot = pot_threshold(&scores, PotConfig::default()).unwrap();
        assert!(pot.threshold.is_finite());
    }

    #[test]
    fn apply_threshold_flags_correctly() {
        let flags = apply_threshold(&[0.1, 0.9, 0.5], 0.5);
        assert_eq!(flags, vec![false, true, true]);
    }
}
