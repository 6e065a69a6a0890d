//! AERO hyperparameters (paper §IV-B defaults) and ablation switches.

use aero_evt::PotConfig;

/// How the concurrent-noise module builds its graph (Table IV, group 2).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum GraphMode {
    /// The paper's window-wise structure learning (Eq. 12–13): a fresh
    /// cosine-similarity graph from each window's reconstruction errors.
    WindowWise,
    /// Ablation 2iii: a static complete graph.
    StaticComplete,
    /// Ablation 2iv: an ESG-style evolving graph — EWMA of the window
    /// similarities with smoothing factor `beta` (larger = more inertia).
    DynamicEwma {
        /// Smoothing factor in `[0, 1)`.
        beta: f32,
    },
}

/// Which features the concurrent-noise GCN propagates (Eq. 14's `Y_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NoiseFeatures {
    /// The stage-1 error matrix `E = Y − Ŷ₁`. This directly implements the
    /// paper's stated insight — "a variate influenced by concurrent noise
    /// … can be effectively reconstructed using the *error patterns* of
    /// other similarly affected variates" — and is the default here because
    /// the mapping neighbours' errors → own error is near-identity for
    /// concurrent noise, which a one-layer GCN can actually learn.
    Errors,
    /// The raw short window `Y_t`, as Eq. 14 literally writes. Kept for the
    /// fidelity ablation (`bench` compares both).
    Window,
}

/// Full model configuration.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AeroConfig {
    /// Long window length `W` (paper: 200).
    pub window: usize,
    /// Short window length `ω` (paper: 60).
    pub short_window: usize,
    /// Transformer hidden width `d_m`.
    pub d_model: usize,
    /// Attention heads (paper: 4).
    pub heads: usize,
    /// Encoder layers (paper: 1).
    pub encoder_layers: usize,
    /// FFN hidden width.
    pub d_ff: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Max epochs per stage (paper: 100, with early stopping).
    pub max_epochs: usize,
    /// Early-stopping patience (paper: 5).
    pub patience: usize,
    /// Stride between training windows (1 = every window; larger strides
    /// subsample for speed without changing the learned patterns).
    pub train_stride: usize,
    /// POT thresholding configuration (paper: level 0.99, q 1e-3).
    pub pot: PotConfig,
    /// RNG seed for parameter init and sampling.
    pub seed: u64,

    // --- ablation switches (all `true`/`WindowWise` in the full model) ---
    /// Use the temporal reconstruction module (off = ablation 1i).
    pub use_temporal: bool,
    /// Feed each variate independently (off = ablation 1ii: joint input).
    pub univariate_input: bool,
    /// Use the short-window decoder input (off = ablation 1iii: ω = W).
    pub use_short_window: bool,
    /// Use the concurrent-noise module (off = ablation 2i).
    pub use_noise_module: bool,
    /// Graph construction mode (ablations 2iii / 2iv).
    pub graph_mode: GraphMode,
    /// GCN input features (see [`NoiseFeatures`]).
    pub noise_features: NoiseFeatures,
    /// Minimum window-graph edge weight kept for message passing; weaker
    /// (spurious) similarities are dropped before row normalization.
    pub edge_threshold: f32,
    /// Number of reconstruct-and-subtract rounds in the noise module at
    /// scoring time. With overlapping concurrent-noise events, a star
    /// carrying two events matches no single neighbour; the first round
    /// removes the dominant shared component, the second mops up the rest.
    pub noise_iterations: usize,
    /// Rescale each variate's noise reconstruction `Ŷ₂` by the least-squares
    /// amplitude `α_v = ⟨Ŷ₂⁽ᵛ⁾, E⁽ᵛ⁾⟩ / ‖Ŷ₂⁽ᵛ⁾‖²` (clamped to `[0, 2]`)
    /// before subtracting. Concurrent noise hits stars with star-specific
    /// gain (cloud optical depth differs per line of sight), so the *pattern*
    /// transfers between stars but the *amplitude* does not; the fit removes
    /// that gain mismatch. A true anomaly's `Ŷ₂` is uncorrelated with its
    /// error, so `α ≈ 0` and the residual is untouched.
    pub amplitude_matching: bool,
    /// Moving-average width applied to the final per-variate score series
    /// (1 = no smoothing). Residual concurrent noise is spiky while true
    /// anomalies are sustained, so light smoothing trades a little response
    /// sharpness for fewer isolated false alarms.
    pub score_smoothing: usize,
    /// Rank `r` of the per-star adapter head layered over the shared frozen
    /// backbone (`0` = no adapters; the classic monolithic model). Each star
    /// then owns only `2·r·ω + O(1)` scalars — the "delta" that v3
    /// checkpoints and mid-night migration move instead of a model.
    /// `#[serde(default)]` keeps v2 checkpoints loadable.
    #[serde(default)]
    pub adapter_rank: usize,
    /// Online SGD learning rate for the adapter heads.
    #[serde(default = "default_adapter_lr")]
    pub adapter_lr: f32,
}

fn default_adapter_lr() -> f32 {
    0.05
}

impl Default for AeroConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl AeroConfig {
    /// The paper's configuration (W=200, ω=60, 1 encoder layer, 4 heads).
    pub fn paper() -> Self {
        Self {
            window: 200,
            short_window: 60,
            d_model: 32,
            heads: 4,
            encoder_layers: 1,
            d_ff: 64,
            lr: 1e-3,
            max_epochs: 100,
            patience: 5,
            train_stride: 1,
            pot: PotConfig { level: 0.99, q: 1e-3 },
            seed: 7,
            use_temporal: true,
            univariate_input: true,
            use_short_window: true,
            use_noise_module: true,
            graph_mode: GraphMode::WindowWise,
            noise_features: NoiseFeatures::Errors,
            edge_threshold: 0.5,
            noise_iterations: 2,
            amplitude_matching: true,
            score_smoothing: 1,
            adapter_rank: 0,
            adapter_lr: default_adapter_lr(),
        }
    }

    /// A reduced configuration for the experiment harnesses: same
    /// architecture, smaller windows/width and subsampled training windows,
    /// so the full 12-method × 6-dataset suite runs on one laptop core.
    /// The paper-scale settings remain available via [`AeroConfig::paper`].
    pub fn fast() -> Self {
        Self {
            window: 100,
            short_window: 30,
            d_model: 16,
            heads: 4,
            d_ff: 32,
            lr: 1.5e-3,
            max_epochs: 15,
            train_stride: 25,
            ..Self::paper()
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            window: 40,
            short_window: 12,
            d_model: 8,
            heads: 2,
            d_ff: 16,
            max_epochs: 3,
            train_stride: 25,
            ..Self::paper()
        }
    }

    /// Validates invariants (ω ≤ W, d_model divisible by heads, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.short_window == 0 || self.window == 0 {
            return Err("window sizes must be positive".into());
        }
        if self.short_window > self.window {
            return Err(format!(
                "short window ω={} must not exceed long window W={}",
                self.short_window, self.window
            ));
        }
        if self.heads == 0 || !self.d_model.is_multiple_of(self.heads) {
            return Err(format!(
                "d_model={} must be divisible by heads={}",
                self.d_model, self.heads
            ));
        }
        if self.encoder_layers == 0 {
            return Err("at least one encoder layer required".into());
        }
        if let GraphMode::DynamicEwma { beta } = self.graph_mode {
            if !(0.0..1.0).contains(&beta) {
                return Err(format!("EWMA beta={beta} must be in [0, 1)"));
            }
        }
        if self.adapter_rank > self.effective_short_window() {
            return Err(format!(
                "adapter rank {} exceeds the short window ω={} it projects",
                self.adapter_rank,
                self.effective_short_window()
            ));
        }
        if self.adapter_rank > 0 && !(self.adapter_lr.is_finite() && self.adapter_lr > 0.0) {
            return Err(format!("adapter_lr={} must be positive and finite", self.adapter_lr));
        }
        Ok(())
    }

    /// Effective decoder window: `ω`, or `W` when the short window is
    /// ablated away (Table IV 1iii).
    pub fn effective_short_window(&self) -> usize {
        if self.use_short_window {
            self.short_window
        } else {
            self.window
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_iv() {
        let c = AeroConfig::paper();
        assert_eq!(c.window, 200);
        assert_eq!(c.short_window, 60);
        assert_eq!(c.heads, 4);
        assert_eq!(c.encoder_layers, 1);
        assert_eq!(c.patience, 5);
        assert_eq!(c.max_epochs, 100);
        assert!((c.lr - 1e-3).abs() < 1e-9);
        assert!((c.pot.level - 0.99).abs() < 1e-12);
        assert!((c.pot.q - 1e-3).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = AeroConfig::tiny();
        c.short_window = c.window + 1;
        assert!(c.validate().is_err());

        let mut c = AeroConfig::tiny();
        c.heads = 3; // 8 % 3 != 0
        assert!(c.validate().is_err());

        let mut c = AeroConfig::tiny();
        c.graph_mode = GraphMode::DynamicEwma { beta: 1.5 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn effective_short_window_tracks_ablation() {
        let mut c = AeroConfig::tiny();
        assert_eq!(c.effective_short_window(), 12);
        c.use_short_window = false;
        assert_eq!(c.effective_short_window(), 40);
    }
}
