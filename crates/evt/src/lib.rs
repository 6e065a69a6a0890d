//! # aero-evt
//!
//! Extreme Value Theory toolkit: Generalized Pareto tail fitting
//! (Grimshaw's MLE with a method-of-moments fallback), the
//! Peaks-Over-Threshold automatic thresholding AERO uses for its final
//! anomaly decision (Eq. 18), and the SPOT/DSPOT streaming detectors used
//! as baselines.
//!
//! ```
//! use aero_evt::{pot_threshold, PotConfig};
//!
//! // Calibrate an alert threshold on (mostly benign) scores.
//! let scores: Vec<f32> = (0..5000).map(|i| ((i * 37) % 100) as f32 / 100.0).collect();
//! let pot = pot_threshold(&scores, PotConfig { level: 0.98, q: 1e-3 }).unwrap();
//! assert!(pot.threshold >= pot.initial);
//! assert!(pot.threshold.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gpd;
pub mod pot;
pub mod spot;

pub use gpd::{fit as fit_gpd, fit_moments, log_likelihood, FitMethod, GpdFit};
pub use pot::{
    apply_threshold, max_excesses, pot_threshold, pot_threshold_lenient, PotConfig, PotError,
    PotThreshold, MIN_PEAKS,
};
pub use spot::{Dspot, Spot, SpotDecision};
