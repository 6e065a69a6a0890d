//! Per-star adapter heads over the shared frozen backbone.
//!
//! At survey scale the Stage-1 Transformer + GCN trunk is trained **once per
//! night on a sampled subset** of stars and then frozen and `Arc`-shared
//! across every shard (see [`crate::model::BackboneSnapshot`]). What remains
//! per star is deliberately tiny — the ASTROCO recipe of a shared encoder
//! with light per-object heads:
//!
//! * a rank-`r` linear head that predicts the star's **systematic
//!   reconstruction residual** from its normalized short window: an
//!   in-projection `P` (`ω × r`) maps the window onto `r` latent factors and
//!   an out-projection `Q` (`r × ω`) maps them back to a per-position
//!   correction, plus a scalar bias;
//! * per-star **norm stats** — an EWMA mean/variance of the residual — that
//!   damp the online learning rate on noisy stars.
//!
//! The head starts as an exact identity (`Q = 0`, bias `= 0`) and is trained
//! online by hand-derived SGD (the head is linear, so no tape is needed).
//! While it *is* identity the scoring path skips the correction entirely —
//! `e − 0.0` is not a bitwise no-op for `−0.0`, so the skip gate, not
//! algebra, is what keeps untouched stars on the pinned path.
//!
//! Adapter state lives outside the [`ParamStore`](aero_tensor::ParamStore):
//! it is the "delta" unit of the v3 checkpoint format and of shard
//! snapshots, both of which move kilobytes per star instead of a model.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::detector::{DetectorError, DetectorResult};

/// EWMA factor for the per-star residual norm stats.
const NORM_ALPHA: f32 = 0.05;
/// Global-norm clip for one SGD step (same spirit as Stage-1's clip at 5).
const GRAD_CLIP: f32 = 5.0;

/// One star's adapter head: low-rank in/out projections + norm stats.
#[derive(Debug, Clone, PartialEq)]
pub struct StarAdapter {
    rank: usize,
    omega: usize,
    /// In-projection `P`, `ω × r` row-major (`p[t·r + j]`), seeded per star.
    pub(crate) p: Vec<f32>,
    /// Out-projection `Q`, `r × ω` row-major (`q[j·ω + t]`), zero ⇒ identity.
    pub(crate) q: Vec<f32>,
    /// Scalar output bias.
    pub(crate) bias: f32,
    /// EWMA mean of the window-mean residual (norm stat).
    pub(crate) mean: f32,
    /// EWMA variance of the window-mean residual (norm stat).
    pub(crate) var: f32,
    /// Online SGD steps taken.
    pub(crate) updates: u64,
}

/// splitmix64 step, the crate-wide cheap deterministic PRNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StarAdapter {
    /// A fresh identity head for one star. `P` is Xavier-seeded
    /// deterministically from `(seed, star)` so reassembled fleets are
    /// bitwise reproducible; `Q` and the bias start at zero.
    pub fn new(omega: usize, rank: usize, seed: u64, star: usize) -> Self {
        let mut s = seed ^ (star as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ADAPTER_STREAM;
        let bound = (6.0 / (omega + rank) as f32).sqrt();
        let p = (0..omega * rank)
            .map(|_| {
                let u = (splitmix(&mut s) >> 40) as f32 / (1u64 << 24) as f32;
                (u * 2.0 - 1.0) * bound
            })
            .collect();
        Self { rank, omega, p, q: vec![0.0; rank * omega], bias: 0.0, mean: 0.0, var: 0.0, updates: 0 }
    }

    /// Reconstructs a head from persisted parts, validating shapes.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        omega: usize,
        rank: usize,
        p: Vec<f32>,
        q: Vec<f32>,
        bias: f32,
        mean: f32,
        var: f32,
        updates: u64,
    ) -> DetectorResult<Self> {
        if p.len() != omega * rank || q.len() != rank * omega {
            return Err(DetectorError::Invalid(format!(
                "adapter delta shape mismatch: P has {} values, Q has {}, expected {} each for ω={omega} r={rank}",
                p.len(),
                q.len(),
                omega * rank,
            )));
        }
        if p.iter().chain(q.iter()).any(|v| !v.is_finite())
            || !bias.is_finite()
            || !mean.is_finite()
            || !var.is_finite()
        {
            return Err(DetectorError::Invalid(
                "adapter delta contains non-finite values".into(),
            ));
        }
        Ok(Self { rank, omega, p, q, bias, mean, var, updates })
    }

    /// Head rank `r`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Short-window length `ω` this head corrects.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Online SGD steps taken so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// True while the head has never moved off its exact-identity init
    /// (`Q` and bias all `+0.0` bits). Identity heads are **skipped** by the
    /// scoring path, keeping untouched stars bitwise on the pinned path.
    pub fn is_identity(&self) -> bool {
        self.bias.to_bits() == 0 && self.q.iter().all(|v| v.to_bits() == 0)
    }

    /// Serialized size of this head's delta (the unit that moves in v3
    /// checkpoints and shard snapshots), in bytes.
    pub fn delta_bytes(&self) -> usize {
        (self.p.len() + self.q.len()) * 4 + 3 * 4 + 8
    }

    /// Predicted systematic residual for `window` (normalized, length `ω`)
    /// into `out`: `ê = Qᵀ(Pᵀ·y) + bias`.
    ///
    /// `latent` is caller-provided scratch of length ≥ `rank` so the
    /// steady-state scoring path stays allocation-free.
    pub fn predict_into(&self, window: &[f32], latent: &mut [f32], out: &mut [f32]) {
        debug_assert_eq!(window.len(), self.omega);
        debug_assert!(latent.len() >= self.rank && out.len() >= self.omega);
        for l in latent.iter_mut().take(self.rank) {
            *l = 0.0;
        }
        for (t, &y) in window.iter().enumerate() {
            let p_row = &self.p[t * self.rank..(t + 1) * self.rank];
            for (j, &pj) in p_row.iter().enumerate() {
                latent[j] += pj * y;
            }
        }
        for slot in out.iter_mut().take(self.omega) {
            *slot = self.bias;
        }
        for (j, &l) in latent.iter().enumerate().take(self.rank) {
            let q_row = &self.q[j * self.omega..(j + 1) * self.omega];
            for (t, &qt) in q_row.iter().enumerate() {
                out[t] += qt * l;
            }
        }
    }

    /// One online SGD step toward predicting `residual` (the backbone's
    /// Stage-1 error for this star's newest window) from `window`.
    ///
    /// Minimizes `‖ê − e‖²` with a hand-derived gradient, clipped at global
    /// norm [`GRAD_CLIP`] and damped by the per-star norm stats: noisy stars
    /// (large residual variance) learn more slowly.
    pub fn sgd_step(&mut self, window: &[f32], residual: &[f32], lr: f32) {
        debug_assert_eq!(window.len(), self.omega);
        debug_assert_eq!(residual.len(), self.omega);
        let (omega, rank) = (self.omega, self.rank);
        if omega == 0 {
            return;
        }

        // Norm stats first: EWMA of the window-mean residual.
        let e_mean = residual.iter().sum::<f32>() / omega as f32;
        let delta = e_mean - self.mean;
        self.mean += NORM_ALPHA * delta;
        self.var = (1.0 - NORM_ALPHA) * (self.var + NORM_ALPHA * delta * delta);
        let damp = 1.0 / (1.0 + self.var.sqrt());

        // Forward (stack scratch: rank is tiny, bounded by config).
        let mut latent = vec![0.0f32; rank];
        let mut pred = vec![0.0f32; omega];
        self.predict_into(window, &mut latent, &mut pred);

        // d = ê − e drives all three gradients.
        let mut g_bias = 0.0f32;
        let mut g_q = vec![0.0f32; rank * omega];
        let mut q_dot_d = vec![0.0f32; rank];
        for t in 0..omega {
            let d = pred[t] - residual[t];
            g_bias += d;
            for j in 0..rank {
                g_q[j * omega + t] = d * latent[j];
                q_dot_d[j] += self.q[j * omega + t] * d;
            }
        }
        let mut g_p = vec![0.0f32; omega * rank];
        for t in 0..omega {
            for j in 0..rank {
                g_p[t * rank + j] = window[t] * q_dot_d[j];
            }
        }

        let norm_sq = g_bias * g_bias
            + g_q.iter().map(|g| g * g).sum::<f32>()
            + g_p.iter().map(|g| g * g).sum::<f32>();
        let norm = norm_sq.sqrt();
        let clip = if norm > GRAD_CLIP { GRAD_CLIP / norm } else { 1.0 };
        let step = lr * damp * clip;
        if !step.is_finite() {
            return;
        }

        self.bias -= step * g_bias;
        for (w, g) in self.q.iter_mut().zip(&g_q) {
            *w -= step * g;
        }
        for (w, g) in self.p.iter_mut().zip(&g_p) {
            *w -= step * g;
        }
        self.updates += 1;
    }
}

/// All stars' adapter heads for one detector (or one fleet shard).
#[derive(Debug, Clone, PartialEq)]
pub struct AdapterSet {
    rank: usize,
    omega: usize,
    heads: Vec<StarAdapter>,
}

impl AdapterSet {
    /// Fresh identity heads for `n` stars.
    pub fn new(n: usize, omega: usize, rank: usize, seed: u64) -> Self {
        let heads = (0..n).map(|v| StarAdapter::new(omega, rank, seed, v)).collect();
        Self { rank, omega, heads }
    }

    /// Builds a set from per-star heads, validating they agree on shape.
    pub fn from_heads(omega: usize, rank: usize, heads: Vec<StarAdapter>) -> DetectorResult<Self> {
        for (v, h) in heads.iter().enumerate() {
            if h.omega != omega || h.rank != rank {
                return Err(DetectorError::Invalid(format!(
                    "adapter head {v} has ω={} r={}, set expects ω={omega} r={rank}",
                    h.omega, h.rank
                )));
            }
        }
        Ok(Self { rank, omega, heads })
    }

    /// Number of stars.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when the set holds no heads.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Head rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Short-window length the heads correct.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Star `v`'s head.
    pub fn head(&self, v: usize) -> Option<&StarAdapter> {
        self.heads.get(v)
    }

    /// Star `v`'s head, mutably.
    pub fn head_mut(&mut self, v: usize) -> Option<&mut StarAdapter> {
        self.heads.get_mut(v)
    }

    /// Replaces star `v`'s head (used when a shard snapshot is installed
    /// with its trained deltas).
    pub fn install_head(&mut self, v: usize, head: StarAdapter) -> DetectorResult<()> {
        if head.omega != self.omega || head.rank != self.rank {
            return Err(DetectorError::Invalid(format!(
                "installed adapter head has ω={} r={}, shard expects ω={} r={}",
                head.omega, head.rank, self.omega, self.rank
            )));
        }
        match self.heads.get_mut(v) {
            Some(slot) => {
                *slot = head;
                Ok(())
            }
            None => Err(DetectorError::Invalid(format!(
                "adapter head index {v} out of range ({} stars)",
                self.heads.len()
            ))),
        }
    }

    /// Total serialized delta bytes across all heads.
    pub fn delta_bytes(&self) -> usize {
        self.heads.iter().map(StarAdapter::delta_bytes).sum()
    }
}

/// Domain-separation constant so the adapter init stream never collides with
/// other seeded streams derived from the same night seed.
const ADAPTER_STREAM: u64 = 0xada7_0000_0000_0001;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_head_is_identity_and_predicts_zero() {
        let a = StarAdapter::new(12, 2, 7, 3);
        assert!(a.is_identity());
        let window: Vec<f32> = (0..12).map(|t| t as f32 * 0.1).collect();
        let mut latent = [0.0f32; 2];
        let mut out = [0.5f32; 12];
        a.predict_into(&window, &mut latent, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn init_is_deterministic_per_star_and_distinct_across_stars() {
        let a = StarAdapter::new(8, 2, 42, 5);
        let b = StarAdapter::new(8, 2, 42, 5);
        let c = StarAdapter::new(8, 2, 42, 6);
        assert_eq!(a, b);
        assert_ne!(a.p, c.p);
    }

    #[test]
    fn sgd_learns_a_constant_offset() {
        // The backbone systematically under-reconstructs this star by 0.3;
        // the head should absorb it via the bias within a few hundred steps.
        let mut a = StarAdapter::new(8, 2, 1, 0);
        let window: Vec<f32> = (0..8).map(|t| (t as f32 * 0.7).sin()).collect();
        let residual = vec![0.3f32; 8];
        for _ in 0..400 {
            a.sgd_step(&window, &residual, 0.05);
        }
        assert!(!a.is_identity());
        let mut latent = [0.0f32; 2];
        let mut out = [0.0f32; 8];
        a.predict_into(&window, &mut latent, &mut out);
        for &v in &out {
            assert!((v - 0.3).abs() < 0.05, "prediction {v} far from systematic 0.3");
        }
        assert_eq!(a.updates(), 400);
    }

    #[test]
    fn from_parts_validates_shapes_and_finiteness() {
        assert!(StarAdapter::from_parts(8, 2, vec![0.0; 16], vec![0.0; 16], 0.0, 0.0, 0.0, 0).is_ok());
        assert!(StarAdapter::from_parts(8, 2, vec![0.0; 15], vec![0.0; 16], 0.0, 0.0, 0.0, 0).is_err());
        assert!(
            StarAdapter::from_parts(8, 2, vec![f32::NAN; 16], vec![0.0; 16], 0.0, 0.0, 0.0, 0).is_err()
        );
    }

    #[test]
    fn set_install_rejects_mismatched_heads() {
        let mut set = AdapterSet::new(3, 8, 2, 9);
        assert_eq!(set.len(), 3);
        assert!(set.install_head(1, StarAdapter::new(8, 2, 9, 99)).is_ok());
        assert!(set.install_head(0, StarAdapter::new(10, 2, 9, 0)).is_err());
        assert!(set.install_head(7, StarAdapter::new(8, 2, 9, 0)).is_err());
    }
}
