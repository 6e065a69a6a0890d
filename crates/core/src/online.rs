//! True online detection (paper §III-F, Algorithm 2), hardened for
//! degraded telemetry.
//!
//! The batch [`Detector`] interface scores whole series;
//! this module wraps a trained [`Aero`] for frame-by-frame operation: as
//! each new observation vector arrives it is appended to a rolling buffer,
//! the stride-1 sliding window is re-evaluated, and each star's last-
//! timestamp score (Eq. 17's `S(·)` selector) is compared against the POT
//! threshold — optionally with periodic threshold refits.
//!
//! Unlike the batch path, the stream cannot assume clean input: GWAC-class
//! telemetry drops values (NaN/Inf), skips frames, repeats or reorders
//! timestamps, and occasionally blacks out whole stars. [`OnlineAero`]
//! therefore *degrades* instead of erroring on data faults (see
//! `DESIGN.md`, "Failure modes and degradation policy"):
//!
//! - non-finite values are imputed from the star's most recent valid value;
//! - missing frames are gap-filled (bounded by [`DegradePolicy::max_gap_fill`])
//!   so window geometry stays intact;
//! - stale/duplicate frames are dropped with a [`FrameDisposition`] flag,
//!   never an error;
//! - stars whose recent window is mostly synthetic are marked
//!   [`StarStatus::Degraded`] or quarantined ([`StarStatus::Quarantined`],
//!   score suppressed to 0 rather than emitting a fabricated alert);
//! - every degradation is counted in a [`HealthReport`] so operators see
//!   the pipeline degrading instead of silently lying.
//!
//! Overload (input arriving faster than frames can be scored) is handled one
//! layer up by [`crate::overload::StreamGovernor`], which drives the modal
//! entry point [`OnlineAero::push_with_modes`] and accounts its decisions in
//! [`HealthReport::overload`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::Arc;

use aero_evt::{max_excesses, pot_threshold, PotConfig, PotThreshold, MIN_PEAKS};
use aero_tensor::Matrix;
use aero_timeseries::MultivariateSeries;

use crate::detector::{Detector, DetectorError, DetectorResult};
use crate::model::{Aero, ScoreMode};
use crate::overload::OverloadCounters;
use crate::supervisor::{SupervisionError, Supervisor, SupervisorPolicy};
use crate::wal::WalWriter;

/// Data-quality status of one star at the newest timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StarStatus {
    /// Recent window is (almost) entirely real telemetry.
    Nominal,
    /// A noticeable fraction of the recent window was imputed or
    /// gap-filled; the score is real but less trustworthy.
    Degraded,
    /// The recent window is mostly synthetic; the score is suppressed to
    /// zero because it would mostly reflect imputation, not the star.
    Quarantined,
}

/// Verdict for one star at the newest timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarVerdict {
    /// Anomaly score `s_t^{(n)}` (0 while warming up or quarantined).
    pub score: f32,
    /// Whether the score crossed the POT threshold.
    pub anomalous: bool,
    /// Data-quality status backing this verdict.
    pub status: StarStatus,
}

/// How a pushed frame was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDisposition {
    /// Frame entered the window and was scored.
    Scored,
    /// Frame entered the window but the buffer is not yet full.
    Warmup,
    /// Frame arrived with a timestamp older than the newest buffered one
    /// and was dropped (out-of-order delivery).
    DroppedStale,
    /// Frame repeated the newest buffered timestamp and was dropped.
    DroppedDuplicate,
}

/// One processed frame: per-star verdicts at the newest timestamp.
#[derive(Debug, Clone)]
pub struct FrameVerdict {
    /// Index of the frame within the stream (0-based, counts every push).
    pub frame: usize,
    /// Timestamp of the frame.
    pub timestamp: f64,
    /// Per-star verdicts.
    pub stars: Vec<StarVerdict>,
    /// How the frame was handled.
    pub disposition: FrameDisposition,
    /// Synthetic frames inserted before this one to bridge a cadence gap.
    pub gap_filled: usize,
}

impl FrameVerdict {
    /// Indices of stars flagged anomalous this frame.
    pub fn flagged(&self) -> Vec<usize> {
        self.stars
            .iter()
            .enumerate()
            .filter(|(_, s)| s.anomalous)
            .map(|(i, _)| i)
            .collect()
    }

    /// True when any star is flagged.
    pub fn any_anomalous(&self) -> bool {
        self.stars.iter().any(|s| s.anomalous)
    }
}

/// Tunable degradation rules. The defaults are deliberately conservative:
/// small bounded gap fill, quarantine only when half the window is
/// synthetic, no automatic threshold refits.
#[derive(Debug, Clone)]
pub struct DegradePolicy {
    /// Maximum synthetic frames inserted to bridge one cadence gap.
    /// Larger gaps are truncated (and counted) — the window then simply
    /// jumps, which beats fabricating a long stretch of fake telemetry.
    pub max_gap_fill: usize,
    /// A gap is declared when the inter-frame spacing exceeds this many
    /// nominal cadences.
    pub gap_tolerance: f64,
    /// Star is `Degraded` when at least this fraction of its recent window
    /// was imputed/gap-filled.
    pub degraded_fraction: f32,
    /// Star is `Quarantined` (score suppressed) at this fraction.
    pub quarantine_fraction: f32,
    /// Refit the POT threshold from recent scores every this many scored
    /// frames (0 disables refits).
    pub refit_interval: usize,
    /// Number of recent per-star scores retained for refits.
    pub refit_window: usize,
    /// Supervision policy for per-star scoring, whole-frame scoring, and
    /// POT refits: deadline budget, retry schedule, and how many
    /// consecutive failures quarantine a star via its circuit breaker.
    pub supervision: SupervisorPolicy,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        Self {
            max_gap_fill: 4,
            gap_tolerance: 1.5,
            degraded_fraction: 0.25,
            quarantine_fraction: 0.5,
            refit_interval: 0,
            refit_window: 4096,
            supervision: SupervisorPolicy::default(),
        }
    }
}

/// Degradation counters exposed to operators. All counters are cumulative
/// over the stream except the `stars_*` gauges, which reflect the newest
/// frame.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct HealthReport {
    /// Frames accepted into the window (scored or warmup).
    pub frames_accepted: usize,
    /// Out-of-order frames dropped.
    pub frames_dropped_stale: usize,
    /// Duplicate-timestamp frames dropped.
    pub frames_dropped_duplicate: usize,
    /// Synthetic frames inserted to bridge cadence gaps.
    pub frames_gap_filled: usize,
    /// Gaps wider than the fill budget (window jumped instead).
    pub gap_fill_truncations: usize,
    /// Individual non-finite values replaced by the star's last valid value.
    pub values_imputed: usize,
    /// Non-finite model scores clamped to 0 (star marked degraded).
    pub scores_suppressed: usize,
    /// Stars currently `Degraded`.
    pub stars_degraded: usize,
    /// Stars currently `Quarantined`.
    pub stars_quarantined: usize,
    /// Total transitions into quarantine.
    pub quarantine_events: usize,
    /// Successful periodic threshold refits.
    pub threshold_refits: usize,
    /// Refit attempts that failed (kept last known-good threshold).
    pub threshold_refit_failures: usize,
    /// Per-star scoring shards abandoned to a panic (row zero-filled).
    pub shard_panics: usize,
    /// Per-star scoring shards abandoned to a blown deadline budget.
    pub shard_deadline_misses: usize,
    /// Per-star scoring shards abandoned to a typed task error.
    pub shard_failures: usize,
    /// Whole frames whose scoring pass was abandoned (all stars suppressed).
    pub frames_suppressed: usize,
    /// Circuit breakers tripped so far (stars escalated to quarantine, plus
    /// the frame-level breaker if whole-frame scoring keeps failing).
    pub circuit_breaker_trips: usize,
    /// Overload accounting (admission queue, load shedding, degradation
    /// ladder) maintained by [`crate::overload::StreamGovernor`]; all zeros
    /// when frames are pushed directly without a governor.
    pub overload: OverloadCounters,
    /// Per-tenant admission lanes (offered/admitted/shed/rejected),
    /// maintained by [`crate::overload::StreamGovernor::offer_from`]; empty
    /// for untenanted streams.
    pub tenants: crate::overload::TenantRollup,
}

impl HealthReport {
    /// True when no degradation of any kind has occurred.
    pub fn is_clean(&self) -> bool {
        self.frames_dropped_stale == 0
            && self.frames_dropped_duplicate == 0
            && self.frames_gap_filled == 0
            && self.gap_fill_truncations == 0
            && self.values_imputed == 0
            && self.scores_suppressed == 0
            && self.stars_degraded == 0
            && self.stars_quarantined == 0
            && self.quarantine_events == 0
            && self.threshold_refit_failures == 0
            && self.shard_panics == 0
            && self.shard_deadline_misses == 0
            && self.shard_failures == 0
            && self.frames_suppressed == 0
            && self.circuit_breaker_trips == 0
            && self.overload.is_clean()
            && self.tenants.is_clean()
    }

    /// Adds another detector's report into this one (fleet rollups).
    /// Cumulative counters sum exactly; the gauges (`stars_degraded`,
    /// `stars_quarantined`, queue depths) sum across shards, which reads as
    /// the fleet-wide total because every star lives in exactly one shard.
    pub fn absorb(&mut self, other: &HealthReport) {
        self.frames_accepted += other.frames_accepted;
        self.frames_dropped_stale += other.frames_dropped_stale;
        self.frames_dropped_duplicate += other.frames_dropped_duplicate;
        self.frames_gap_filled += other.frames_gap_filled;
        self.gap_fill_truncations += other.gap_fill_truncations;
        self.values_imputed += other.values_imputed;
        self.scores_suppressed += other.scores_suppressed;
        self.stars_degraded += other.stars_degraded;
        self.stars_quarantined += other.stars_quarantined;
        self.quarantine_events += other.quarantine_events;
        self.threshold_refits += other.threshold_refits;
        self.threshold_refit_failures += other.threshold_refit_failures;
        self.shard_panics += other.shard_panics;
        self.shard_deadline_misses += other.shard_deadline_misses;
        self.shard_failures += other.shard_failures;
        self.frames_suppressed += other.frames_suppressed;
        self.circuit_breaker_trips += other.circuit_breaker_trips;
        self.overload.absorb(&other.overload);
        self.tenants.absorb(&other.tenants);
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accepted {} | dropped {} stale + {} dup | gap-filled {} (+{} truncated) | \
             imputed {} values | suppressed {} scores | degraded {} / quarantined {} stars \
             ({} quarantine events) | refits {} ok / {} failed",
            self.frames_accepted,
            self.frames_dropped_stale,
            self.frames_dropped_duplicate,
            self.frames_gap_filled,
            self.gap_fill_truncations,
            self.values_imputed,
            self.scores_suppressed,
            self.stars_degraded,
            self.stars_quarantined,
            self.quarantine_events,
            self.threshold_refits,
            self.threshold_refit_failures,
        )?;
        write!(
            f,
            " | shards: {} panicked / {} over deadline / {} errored | \
             {} frames suppressed | {} breakers tripped",
            self.shard_panics,
            self.shard_deadline_misses,
            self.shard_failures,
            self.frames_suppressed,
            self.circuit_breaker_trips,
        )?;
        write!(f, " | overload: {}", self.overload)?;
        if !self.tenants.is_empty() {
            write!(f, " | tenants:")?;
            for lane in self.tenants.lanes() {
                write!(
                    f,
                    " [{}: {} offered / {} admitted / {} shed / {} rejected]",
                    lane.tenant,
                    lane.offered,
                    lane.admitted,
                    lane.shed,
                    lane.rejected(),
                )?;
            }
        }
        Ok(())
    }
}

/// Streaming wrapper around a trained AERO model.
///
/// ```
/// use aero_core::{Aero, AeroConfig, Detector, online::OnlineAero};
/// use aero_datagen::SyntheticConfig;
/// use aero_evt::PotConfig;
///
/// let dataset = SyntheticConfig::tiny(5).build();
/// let mut model = Aero::new(AeroConfig::tiny()).unwrap();
/// model.fit(&dataset.train).unwrap();
/// let mut online = OnlineAero::new(model, &dataset.train, PotConfig::default()).unwrap();
/// // Stream the first frames of the test night.
/// for t in 0..3 {
///     let frame: Vec<f32> = (0..dataset.num_variates())
///         .map(|v| dataset.test.get(v, t))
///         .collect();
///     let verdict = online.push(dataset.test.timestamps()[t], &frame).unwrap();
///     assert_eq!(verdict.stars.len(), dataset.num_variates());
/// }
/// assert!(online.health().is_clean());
/// ```
#[derive(Debug)]
pub struct OnlineAero {
    model: Aero,
    threshold: PotThreshold,
    pot: PotConfig,
    policy: DegradePolicy,
    /// Rolling buffer of the last `W` observations (plus the training tail
    /// used to warm it up). Rows are always finite: values are sanitized
    /// before entering the buffer.
    buffer: VecDeque<Vec<f32>>,
    timestamps: VecDeque<f64>,
    /// Parallel to `buffer`: which values were imputed/synthesised.
    imputed: VecDeque<Vec<bool>>,
    /// Current per-star status (derived from `imputed` each frame).
    star_status: Vec<StarStatus>,
    capacity: usize,
    num_variates: usize,
    frames_seen: usize,
    scored_frames: usize,
    /// EWMA estimate of the nominal inter-frame cadence.
    cadence: f64,
    /// Recent finite, non-quarantined scores retained for threshold refits,
    /// one lane per star so a snapshot carries each star's refit history
    /// (lanes are concatenated star-major at refit time).
    score_history: Vec<VecDeque<f32>>,
    health: HealthReport,
    /// Supervision units `0..n` are the stars, unit `n` the POT refit, unit
    /// `n+1` the whole-frame scoring pass.
    supervisor: Arc<Supervisor>,
    /// Write-ahead log; when attached, `push` appends the raw frame before
    /// any state mutation (see `crate::wal`).
    wal: Option<WalWriter>,
    /// Recycled timestamp buffer for [`Self::buffer_series`]: the scored
    /// series hands its `Vec<f64>` back after each sequential push so the
    /// steady-state path re-fills it instead of allocating.
    ts_scratch: Vec<f64>,
}

/// Outcome of the ingest half of a push: either the frame needs no model
/// work (dropped / warmup — verdict already complete), or it entered the
/// window and is ready to score.
enum Ingested {
    Deferred(FrameVerdict),
    Ready { frame: usize, timestamp: f64, gap_filled: usize },
}

impl OnlineAero {
    /// Wraps a trained model with the default [`DegradePolicy`].
    pub fn new(
        model: Aero,
        calibration: &MultivariateSeries,
        pot: PotConfig,
    ) -> DetectorResult<Self> {
        Self::with_policy(model, calibration, pot, DegradePolicy::default())
    }

    /// Wraps a trained model. The threshold is calibrated from the model's
    /// scores on `calibration` (typically the training series), and the
    /// calibration tail warms the rolling buffer so the very first streamed
    /// frame already has full window context.
    pub fn with_policy(
        mut model: Aero,
        calibration: &MultivariateSeries,
        pot: PotConfig,
        policy: DegradePolicy,
    ) -> DetectorResult<Self> {
        let n = calibration.num_variates();
        if policy.refit_interval > 0 {
            // The most scores a refit ever sees is every lane full; if even
            // that many cannot put MIN_PEAKS over the POT quantile, every
            // refit of the night would fail.
            let most = history_cap(policy.refit_window, n) * n;
            let peaks = max_excesses(most, pot.level);
            if peaks < MIN_PEAKS {
                return Err(DetectorError::Invalid(format!(
                    "refit_window {} keeps at most {most} scores over {n} stars; at POT \
                     level {} at most {peaks} of them exceed the quantile, and a refit \
                     needs {MIN_PEAKS}",
                    policy.refit_window, pot.level
                )));
            }
        }
        if !model.is_trained() {
            return Err(DetectorError::Invalid("model must be trained".into()));
        }
        let scores = model.score(calibration)?;
        let warm = model.warmup().min(scores.cols());
        let (rows, cols) = scores.shape();
        // The post-warmup columns, compacted in the score matrix's own
        // buffer instead of copied out of it.
        let mut flat = scores.into_vec();
        for r in 0..rows {
            flat.copy_within(r * cols + warm..(r + 1) * cols, r * (cols - warm));
        }
        flat.truncate(rows * (cols - warm));
        let threshold = pot_threshold(&flat, pot)?;

        let capacity = model.config().window;
        let tail_start = calibration.len().saturating_sub(capacity);
        let mut buffer = VecDeque::with_capacity(capacity + 1);
        let mut timestamps = VecDeque::with_capacity(capacity + 1);
        let mut imputed = VecDeque::with_capacity(capacity + 1);
        for t in tail_start..calibration.len() {
            buffer.push_back((0..n).map(|v| calibration.get(v, t)).collect());
            timestamps.push_back(calibration.timestamps()[t]);
            imputed.push_back(vec![false; n]);
        }
        let cadence = estimate_cadence(calibration.timestamps());
        let supervisor = Arc::new(Supervisor::new(policy.supervision.clone(), n + 2));
        Ok(Self {
            model,
            threshold,
            pot,
            policy,
            buffer,
            timestamps,
            imputed,
            star_status: vec![StarStatus::Nominal; n],
            capacity,
            num_variates: n,
            frames_seen: 0,
            scored_frames: 0,
            cadence,
            score_history: vec![VecDeque::new(); n],
            health: HealthReport::default(),
            supervisor,
            wal: None,
            ts_scratch: Vec::new(),
        })
    }

    /// Attaches a write-ahead log: every subsequent `push` appends its raw
    /// frame to `wal` before any state mutation, so a killed process can be
    /// reconstructed bit-exactly by replaying the log into a fresh instance.
    pub fn attach_wal(&mut self, wal: WalWriter) {
        self.wal = Some(wal);
    }

    /// Detaches and returns the write-ahead log, if one is attached.
    pub fn take_wal(&mut self) -> Option<WalWriter> {
        self.wal.take()
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&WalWriter> {
        self.wal.as_ref()
    }

    /// The supervision layer (per-star circuit breakers and failure stats).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Installs (or clears) the model's chaos-testing fault hook (see
    /// [`crate::model::ChaosHook`]).
    pub fn set_chaos_hook(&mut self, hook: Option<crate::model::ChaosHook>) {
        self.model.set_chaos_hook(hook);
    }

    /// The calibrated (or most recently refit) threshold.
    pub fn threshold(&self) -> &PotThreshold {
        &self.threshold
    }

    /// The active degradation policy.
    pub fn policy(&self) -> &DegradePolicy {
        &self.policy
    }

    /// Cumulative degradation counters.
    pub fn health(&self) -> &HealthReport {
        &self.health
    }

    /// Current per-star data-quality status.
    pub fn star_status(&self) -> &[StarStatus] {
        &self.star_status
    }

    /// Number of frames pushed so far (including dropped ones).
    pub fn frames_seen(&self) -> usize {
        self.frames_seen
    }

    /// Rolling-window capacity (the model's long window `W`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once the buffer holds a full long window.
    pub fn is_warm(&self) -> bool {
        self.buffer.len() >= self.capacity
    }

    /// Estimated nominal inter-frame cadence.
    pub fn cadence(&self) -> f64 {
        self.cadence
    }

    /// Star `v`'s current buffered window, oldest sample first (empty for an
    /// out-of-range star). Used by the governor's SR-fallback rung, which
    /// scores this window with a model-free baseline.
    pub fn star_window(&self, v: usize) -> Vec<f32> {
        if v >= self.num_variates {
            return Vec::new();
        }
        self.buffer.iter().map(|row| row[v]).collect()
    }

    /// Number of stars per frame.
    pub fn num_variates(&self) -> usize {
        self.num_variates
    }

    /// Mutable health counters, for the governor's overload accounting.
    pub(crate) fn health_mut(&mut self) -> &mut HealthReport {
        &mut self.health
    }

    /// Processes one arriving frame (`values[v]` = magnitude of star `v`).
    ///
    /// Data faults (non-finite values, cadence gaps, stale/duplicate
    /// timestamps) never error: they are degraded around and counted in
    /// [`OnlineAero::health`]. The only errors are structural — a frame
    /// whose width disagrees with the model's variate count — or an
    /// internal model failure.
    pub fn push(&mut self, timestamp: f64, values: &[f32]) -> DetectorResult<FrameVerdict> {
        self.check_width(values)?;
        // Write-ahead: log the raw frame (dropped and degraded ones
        // included — replay must reproduce every counter) before any state
        // changes, so a crash at any later point loses nothing.
        if let Some(wal) = self.wal.as_mut() {
            wal.append(timestamp, values)?;
        }
        self.push_inner(timestamp, values, None)
    }

    /// [`push`](Self::push) with a per-star degradation mode (the overload
    /// ladder's model rungs, see [`ScoreMode`] and DESIGN.md §11). Intended
    /// for [`crate::overload::StreamGovernor`], which owns WAL logging at
    /// admission time — this entry point therefore never appends to an
    /// attached WAL itself. `Full`-for-every-star is bitwise identical to
    /// [`push`](Self::push).
    pub fn push_with_modes(
        &mut self,
        timestamp: f64,
        values: &[f32],
        modes: &[ScoreMode],
    ) -> DetectorResult<FrameVerdict> {
        self.check_width(values)?;
        if modes.len() != self.num_variates {
            return Err(DetectorError::Invalid(format!(
                "{} score modes for {} stars",
                modes.len(),
                self.num_variates
            )));
        }
        self.push_inner(timestamp, values, Some(modes))
    }

    /// One online SGD step for star `v`'s adapter head against the current
    /// rolling buffer (see [`Aero::adapt_star`]). Callers drive this on
    /// their own cadence — typically round-robin, a star or two per frame —
    /// so steady-state push cost stays flat. Deterministic given the push
    /// sequence, so WAL replay reproduces head state bitwise.
    pub fn adapt_star(&mut self, v: usize) -> DetectorResult<u64> {
        if self.buffer.len() < self.model.config().window {
            return Err(DetectorError::Invalid(format!(
                "buffer holds {} frames, adapter training needs W={}",
                self.buffer.len(),
                self.model.config().window
            )));
        }
        let series = self.buffer_series()?;
        self.model.adapt_star(v, &series)
    }

    /// The rolling buffer as a scorable series (newest frame last). The
    /// timestamp vector comes from `ts_scratch` when a previous push
    /// returned it (see [`Self::recycle_series`]), so the steady-state path
    /// allocates nothing here beyond pool-served tensor storage.
    fn buffer_series(&mut self) -> DetectorResult<MultivariateSeries> {
        let n = self.num_variates;
        let w = self.buffer.len();
        let mut m = Matrix::zeros(n, w);
        for (t, row) in self.buffer.iter().enumerate() {
            for (v, &value) in row.iter().enumerate() {
                m.set(v, t, value);
            }
        }
        let mut ts = std::mem::take(&mut self.ts_scratch);
        ts.clear();
        ts.extend(self.timestamps.iter().copied());
        Ok(MultivariateSeries::new(m, ts)?)
    }

    /// Hands a scored buffer series' timestamp vector back for reuse by the
    /// next [`Self::buffer_series`] call.
    fn recycle_series(&mut self, series: MultivariateSeries) {
        let (_values, ts) = series.into_parts();
        self.ts_scratch = ts;
    }

    fn check_width(&self, values: &[f32]) -> DetectorResult<()> {
        if values.len() != self.num_variates {
            return Err(DetectorError::Invalid(format!(
                "frame width changed: expected {}, got {}",
                self.num_variates,
                values.len()
            )));
        }
        Ok(())
    }

    fn push_inner(
        &mut self,
        timestamp: f64,
        values: &[f32],
        modes: Option<&[ScoreMode]>,
    ) -> DetectorResult<FrameVerdict> {
        match self.ingest(timestamp, values) {
            Ingested::Deferred(verdict) => Ok(verdict),
            Ingested::Ready { frame, timestamp, gap_filled } => {
                let stars = self.score_newest(modes)?;
                self.scored_frames += 1;
                self.maybe_refit();
                Ok(FrameVerdict {
                    frame,
                    timestamp,
                    stars,
                    disposition: FrameDisposition::Scored,
                    gap_filled,
                })
            }
        }
    }

    /// The mutation half of a push: drop checks, gap fill, imputation,
    /// buffer append, status update. Infallible — data faults degrade, they
    /// never error. Scoring happens afterwards, only for frames that come
    /// back [`Ingested::Ready`].
    fn ingest(&mut self, timestamp: f64, values: &[f32]) -> Ingested {
        let frame = self.frames_seen;
        self.frames_seen += 1;

        // A non-finite timestamp can neither be ordered nor gap-filled
        // against; treat it like an out-of-order delivery.
        if !timestamp.is_finite() {
            self.health.frames_dropped_stale += 1;
            return Ingested::Deferred(self.dropped_verdict(
                frame,
                timestamp,
                FrameDisposition::DroppedStale,
            ));
        }

        // Out-of-order / duplicate frames: drop and report, never poison
        // the buffer's monotonic timestamps.
        if let Some(&last) = self.timestamps.back() {
            if timestamp == last {
                self.health.frames_dropped_duplicate += 1;
                return Ingested::Deferred(self.dropped_verdict(
                    frame,
                    timestamp,
                    FrameDisposition::DroppedDuplicate,
                ));
            }
            if timestamp < last {
                self.health.frames_dropped_stale += 1;
                return Ingested::Deferred(self.dropped_verdict(
                    frame,
                    timestamp,
                    FrameDisposition::DroppedStale,
                ));
            }
        }

        // Bridge cadence gaps with a bounded number of hold-last-value
        // frames so the sliding window keeps its geometry.
        let gap_filled = self.fill_gap(timestamp);

        // Impute non-finite values from the star's most recent valid value.
        // Steady state evicts one row per push — recycle the evicted Vecs
        // instead of paying two heap allocations on every frame. (The buffer
        // geometry is unchanged: push_row would evict the same front row
        // right after appending.)
        let (mut row, mut imputed_row) = if self.buffer.len() >= self.capacity {
            self.timestamps.pop_front();
            match (self.buffer.pop_front(), self.imputed.pop_front()) {
                (Some(r), Some(i)) => (r, i),
                _ => (Vec::new(), Vec::new()),
            }
        } else {
            (Vec::new(), Vec::new())
        };
        row.clear();
        row.extend_from_slice(values);
        imputed_row.clear();
        imputed_row.resize(self.num_variates, false);
        for (v, value) in row.iter_mut().enumerate() {
            if !value.is_finite() {
                *value = self.last_value(v);
                imputed_row[v] = true;
                self.health.values_imputed += 1;
            }
        }
        self.push_row(timestamp, row, imputed_row);
        self.health.frames_accepted += 1;
        self.update_star_status();

        if !self.is_warm() {
            let stars = self
                .star_status
                .iter()
                .map(|&status| StarVerdict { score: 0.0, anomalous: false, status })
                .collect();
            return Ingested::Deferred(FrameVerdict {
                frame,
                timestamp,
                stars,
                disposition: FrameDisposition::Warmup,
                gap_filled,
            });
        }

        Ingested::Ready { frame, timestamp, gap_filled }
    }

    /// Verdict for a dropped frame: statuses only, no scores.
    fn dropped_verdict(
        &self,
        frame: usize,
        timestamp: f64,
        disposition: FrameDisposition,
    ) -> FrameVerdict {
        let stars = self
            .star_status
            .iter()
            .map(|&status| StarVerdict { score: 0.0, anomalous: false, status })
            .collect();
        FrameVerdict { frame, timestamp, stars, disposition, gap_filled: 0 }
    }

    /// Most recent buffered value of star `v` (buffer rows are always
    /// finite). Falls back to 0 on a cold buffer.
    fn last_value(&self, v: usize) -> f32 {
        self.buffer.back().map_or(0.0, |row| row[v])
    }

    /// Inserts up to `max_gap_fill` synthetic hold-last-value frames
    /// between the newest buffered timestamp and `timestamp`, then updates
    /// the cadence estimate. Returns the number inserted.
    fn fill_gap(&mut self, timestamp: f64) -> usize {
        let Some(&last) = self.timestamps.back() else { return 0 };
        let cadence = self.cadence.max(f64::MIN_POSITIVE);
        let gap = timestamp - last;
        let mut inserted = 0usize;
        if gap > self.policy.gap_tolerance * cadence && self.policy.max_gap_fill > 0 {
            let missing = ((gap / cadence).round() as usize).saturating_sub(1);
            let fill = missing.min(self.policy.max_gap_fill);
            if missing > fill {
                self.health.gap_fill_truncations += 1;
            }
            let hold: Vec<f32> =
                (0..self.num_variates).map(|v| self.last_value(v)).collect();
            for i in 1..=fill {
                // Spread the synthetic timestamps evenly inside the gap so
                // they stay strictly between the real endpoints.
                let t = last + gap * i as f64 / (fill + 1) as f64;
                self.push_row(t, hold.clone(), vec![true; self.num_variates]);
                self.health.frames_gap_filled += 1;
                inserted += 1;
            }
        }
        // Track cadence drift with an EWMA of the effective spacing.
        let spacing = gap / (inserted + 1) as f64;
        if spacing.is_finite() && spacing > 0.0 && gap <= self.policy.gap_tolerance * cadence {
            self.cadence = 0.9 * self.cadence + 0.1 * spacing;
        }
        inserted
    }

    /// Appends a sanitized row, evicting the oldest when over capacity.
    fn push_row(&mut self, timestamp: f64, row: Vec<f32>, imputed: Vec<bool>) {
        self.buffer.push_back(row);
        self.timestamps.push_back(timestamp);
        self.imputed.push_back(imputed);
        if self.buffer.len() > self.capacity {
            self.buffer.pop_front();
            self.timestamps.pop_front();
            self.imputed.pop_front();
        }
    }

    /// Recomputes each star's status from the imputed fraction of its
    /// recent window and updates the health gauges.
    fn update_star_status(&mut self) {
        let window = self.imputed.len().max(1);
        let mut degraded = 0usize;
        let mut quarantined = 0usize;
        for v in 0..self.num_variates {
            let synthetic = self.imputed.iter().filter(|row| row[v]).count();
            let fraction = synthetic as f32 / window as f32;
            // An open circuit breaker (repeated scoring failures on this
            // star) escalates straight to quarantine, whatever the data
            // quality — retrying a panicking shard every frame helps nobody.
            let status = if self.supervisor.is_open(v)
                || fraction >= self.policy.quarantine_fraction
            {
                StarStatus::Quarantined
            } else if fraction >= self.policy.degraded_fraction {
                StarStatus::Degraded
            } else {
                StarStatus::Nominal
            };
            if status == StarStatus::Quarantined && self.star_status[v] != StarStatus::Quarantined
            {
                self.health.quarantine_events += 1;
            }
            match status {
                StarStatus::Degraded => degraded += 1,
                StarStatus::Quarantined => quarantined += 1,
                StarStatus::Nominal => {}
            }
            self.star_status[v] = status;
        }
        self.health.stars_degraded = degraded;
        self.health.stars_quarantined = quarantined;
    }

    /// Scores the newest buffered frame, guaranteeing finite output.
    ///
    /// The whole pass runs supervised: each star is its own supervisor unit.
    /// Stage-1 runs the stars as one batch; if that batch panics or blows
    /// its budget, each star re-runs alone under its unit, so a panicking,
    /// wedged, or erroring star gets a suppressed verdict and an escalated
    /// status while the other stars score bitwise as the batch would have.
    /// The frame-level pass is wrapped once more so even a failure outside
    /// Stage-1 (e.g. the GCN stage) suppresses the frame's verdicts instead
    /// of unwinding through `push`.
    fn score_newest(&mut self, modes: Option<&[ScoreMode]>) -> DetectorResult<Vec<StarVerdict>> {
        let n = self.num_variates;
        let series = self.buffer_series()?;

        let sup = Arc::clone(&self.supervisor);
        let model = &mut self.model;
        // No deadline on the whole-frame unit: the policy budget is a
        // per-star figure, which Stage-1 enforces per batch and per star.
        let outcome = sup.run_with(n + 1, None, true, || {
            model.begin_supervised(Arc::clone(&sup), n);
            let scores = match modes {
                Some(modes) => model.score_with_modes(&series, modes),
                None => model.score(&series),
            };
            let failures = model.end_supervised();
            scores.map(|s| (s, failures))
        });
        self.recycle_series(series);
        let (scores, failures) = match outcome {
            Ok(pair) => pair,
            // Structural model errors (bad width, tensor shape drift) are
            // real bugs and still propagate.
            Err(SupervisionError::Task { error, .. })
                if !matches!(error, DetectorError::Supervision(_)) =>
            {
                return Err(error);
            }
            // Panics, blown deadlines, an open frame breaker: suppress the
            // whole frame's verdicts and count it, keep streaming.
            Err(failure) => {
                if matches!(
                    failure,
                    SupervisionError::Panic { .. } | SupervisionError::Task { .. }
                ) {
                    self.health.shard_panics += 1;
                } else if matches!(failure, SupervisionError::DeadlineExceeded { .. }) {
                    self.health.shard_deadline_misses += 1;
                }
                self.health.frames_suppressed += 1;
                self.health.circuit_breaker_trips = self.supervisor.stats().circuits_opened;
                let stars = self
                    .star_status
                    .iter()
                    .map(|&status| StarVerdict {
                        score: 0.0,
                        anomalous: false,
                        status: status.max(StarStatus::Degraded),
                    })
                    .collect();
                return Ok(stars);
            }
        };
        let last = scores.cols() - 1;
        let stars = (0..n)
            .map(|v| {
                let mut status = self.star_status[v];
                // A star whose supervised shard was abandoned: verdict
                // suppressed, status escalated (quarantined once its
                // breaker opens), other stars unaffected.
                if let Some(failure) = failures.get(v).and_then(|f| f.as_ref()) {
                    match failure {
                        SupervisionError::Panic { .. } => self.health.shard_panics += 1,
                        SupervisionError::DeadlineExceeded { .. } => {
                            self.health.shard_deadline_misses += 1;
                        }
                        SupervisionError::Task { .. } => self.health.shard_failures += 1,
                        // Short-circuited while open: counted at trip time.
                        SupervisionError::CircuitOpen { .. } => {}
                    }
                    status = if self.supervisor.is_open(v) {
                        StarStatus::Quarantined
                    } else {
                        status.max(StarStatus::Degraded)
                    };
                    return StarVerdict { score: 0.0, anomalous: false, status };
                }
                let mut score = scores.get(v, last);
                if !score.is_finite() {
                    // The model should never emit non-finite scores from a
                    // finite buffer, but an operator dashboard must not see
                    // NaN either way: clamp, flag, count.
                    score = 0.0;
                    status = status.max(StarStatus::Degraded);
                    self.health.scores_suppressed += 1;
                }
                if status == StarStatus::Quarantined {
                    // A quarantined star's window is mostly synthetic; a
                    // score would mostly measure our own imputation.
                    return StarVerdict { score: 0.0, anomalous: false, status };
                }
                let full = modes.is_none_or(|m| m[v] == ScoreMode::Full);
                if full {
                    // Only full two-stage scores feed the refit history:
                    // |E| rungs and shed zeros are a different distribution
                    // and would drag the POT tail fit around with load.
                    let cap = history_cap(self.policy.refit_window, n);
                    self.score_history[v].push_back(score);
                    if self.score_history[v].len() > cap {
                        self.score_history[v].pop_front();
                    }
                }
                if modes.is_some_and(|m| m[v] == ScoreMode::Skip) {
                    // Shed star: no model work ran; the zero is a hole, not
                    // a measurement, and must not read as "nominal".
                    return StarVerdict { score: 0.0, anomalous: false, status };
                }
                StarVerdict {
                    score,
                    anomalous: (score as f64) >= self.threshold.threshold,
                    status,
                }
            })
            .collect();
        self.model.recycle_failures(failures);
        self.health.circuit_breaker_trips = self.supervisor.stats().circuits_opened;
        Ok(stars)
    }

    /// Periodically refits the POT threshold from recent scores, keeping
    /// the last known-good threshold when calibration fails.
    fn maybe_refit(&mut self) {
        if self.policy.refit_interval == 0
            || !self.scored_frames.is_multiple_of(self.policy.refit_interval)
        {
            return;
        }
        let recent: Vec<f32> = self
            .score_history
            .iter()
            .flat_map(|lane| lane.iter().copied())
            .collect();
        let pot = self.pot;
        // POT refits run under the policy deadline but bypass the breaker:
        // a refit that fails on a thin tail today may succeed once more
        // scores accumulate, and a stale-but-valid threshold is an
        // acceptable fallback in the meantime. The fit is pure, so a typed
        // `PotError` is the answer for these scores, not a fault: it comes
        // back as a value and is never retried. Panics and deadline
        // overruns are the supervisor's to retry.
        let refit_unit = self.num_variates;
        let deadline = self.policy.supervision.deadline;
        match self.supervisor.run_with(refit_unit, deadline, false, || {
            Ok::<_, DetectorError>(pot_threshold(&recent, pot))
        }) {
            Ok(Ok(t)) => {
                self.threshold = t;
                self.health.threshold_refits += 1;
            }
            Ok(Err(_)) | Err(_) => {
                self.health.threshold_refit_failures += 1;
            }
        }
    }

    /// Snapshots the detector half of a shard (see [`crate::snapshot`]):
    /// window buffers in star-major lanes, the poll-independent shard
    /// clocks, the calibrated threshold, health counters, and every
    /// supervisor breaker.
    pub fn export_snapshot(&self) -> crate::snapshot::DetectorState {
        let n = self.num_variates;
        let stars = (0..n)
            .map(|v| crate::snapshot::StarLane {
                window: self.buffer.iter().map(|row| row[v]).collect(),
                imputed: self.imputed.iter().map(|row| row[v]).collect(),
                status: self.star_status[v],
                score_history: self.score_history[v].iter().copied().collect(),
                breaker: self.supervisor.unit_state(v),
                // Online SGD state is not replayed on install, so the head
                // itself must travel with the star.
                adapter: self.model.adapters().and_then(|a| a.head(v)).cloned(),
            })
            .collect();
        crate::snapshot::DetectorState {
            timestamps: self.timestamps.iter().copied().collect(),
            cadence: self.cadence,
            frames_seen: self.frames_seen as u64,
            scored_frames: self.scored_frames as u64,
            threshold: self.threshold,
            health: self.health.clone(),
            sup_stats: self.supervisor.stats(),
            refit_breaker: self.supervisor.unit_state(n),
            frame_breaker: self.supervisor.unit_state(n + 1),
            stars,
        }
    }

    /// Installs an exported snapshot over a freshly built detector of the
    /// same model config and membership (`state.stars` in this detector's
    /// star order, every lane's window parallel to `state.timestamps`).
    /// Replaces window buffers, clocks, threshold, health, and supervisor
    /// state wholesale.
    pub fn install_snapshot(
        &mut self,
        state: &crate::snapshot::DetectorState,
    ) -> DetectorResult<()> {
        let n = self.num_variates;
        if state.stars.len() != n {
            return Err(DetectorError::Invalid(format!(
                "snapshot has {} star lanes for a {n}-star detector",
                state.stars.len()
            )));
        }
        let len = state.timestamps.len();
        for (v, lane) in state.stars.iter().enumerate() {
            if lane.window.len() != len || lane.imputed.len() != len {
                return Err(DetectorError::Invalid(format!(
                    "star lane {v} window length {} does not match {len} timestamps",
                    lane.window.len()
                )));
            }
        }
        self.timestamps = state.timestamps.iter().copied().collect();
        self.buffer = (0..len)
            .map(|t| state.stars.iter().map(|lane| lane.window[t]).collect())
            .collect();
        self.imputed = (0..len)
            .map(|t| state.stars.iter().map(|lane| lane.imputed[t]).collect())
            .collect();
        self.star_status = state.stars.iter().map(|lane| lane.status).collect();
        let cap = history_cap(self.policy.refit_window, n);
        self.score_history = state
            .stars
            .iter()
            .map(|lane| {
                let skip = lane.score_history.len().saturating_sub(cap);
                lane.score_history[skip..].iter().copied().collect()
            })
            .collect();
        self.cadence = state.cadence;
        self.frames_seen = state.frames_seen as usize;
        self.scored_frames = state.scored_frames as usize;
        self.threshold = state.threshold;
        self.health = state.health.clone();
        self.supervisor.install_stats(state.sup_stats);
        for (v, lane) in state.stars.iter().enumerate() {
            self.supervisor.install_unit_state(v, lane.breaker);
            if let Some(head) = &lane.adapter {
                let Some(adapters) = self.model.adapters_mut() else {
                    return Err(DetectorError::Invalid(format!(
                        "star lane {v} carries an adapter head but this \
                         detector was built with adapter_rank 0"
                    )));
                };
                adapters.install_head(v, head.clone())?;
            }
        }
        self.supervisor.install_unit_state(n, state.refit_breaker);
        self.supervisor.install_unit_state(n + 1, state.frame_breaker);
        Ok(())
    }
}

/// Per-star refit-history cap: the policy's `refit_window` split across
/// lanes, floored so thin shards still accumulate a usable tail.
fn history_cap(refit_window: usize, n: usize) -> usize {
    (refit_window / n.max(1)).max(16)
}

/// Median inter-observation spacing (robust to a few gaps in the
/// calibration tail itself). Falls back to 1.
fn estimate_cadence(timestamps: &[f64]) -> f64 {
    let mut diffs: Vec<f64> = timestamps
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|d| d.is_finite() && *d > 0.0)
        .collect();
    if diffs.is_empty() {
        return 1.0;
    }
    diffs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    diffs[diffs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AeroConfig;
    use aero_datagen::SyntheticConfig;

    fn trained() -> (Aero, aero_timeseries::Dataset) {
        let ds = SyntheticConfig::tiny(400).build();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 2;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&ds.train).unwrap();
        (model, ds)
    }

    #[test]
    fn untrained_model_rejected() {
        let ds = SyntheticConfig::tiny(401).build();
        let model = Aero::new(AeroConfig::tiny()).unwrap();
        assert!(OnlineAero::new(model, &ds.train, PotConfig::default()).is_err());
    }

    #[test]
    fn online_is_warm_immediately_with_training_tail() {
        let (model, ds) = trained();
        let online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        assert!(online.is_warm());
        assert!(online.threshold().threshold.is_finite());
        assert!((online.cadence() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn push_produces_per_star_verdicts() {
        let (model, ds) = trained();
        let mut online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        let base = *ds.train.timestamps().last().unwrap();
        for t in 0..5 {
            let frame: Vec<f32> = (0..ds.num_variates()).map(|v| ds.test.get(v, t)).collect();
            let verdict = online.push(base + 1.0 + t as f64, &frame).unwrap();
            assert_eq!(verdict.stars.len(), ds.num_variates());
            assert_eq!(verdict.frame, t);
            assert_eq!(verdict.disposition, FrameDisposition::Scored);
            assert!(verdict.stars.iter().all(|s| s.score.is_finite()));
        }
        assert_eq!(online.frames_seen(), 5);
        assert!(online.health().is_clean());
    }

    #[test]
    fn stale_and_duplicate_frames_dropped_not_errored() {
        let (model, ds) = trained();
        let mut online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        let base = *ds.train.timestamps().last().unwrap();
        let frame = vec![0.5f32; ds.num_variates()];
        online.push(base + 1.0, &frame).unwrap();

        let stale = online.push(base + 0.5, &frame).unwrap();
        assert_eq!(stale.disposition, FrameDisposition::DroppedStale);
        let dup = online.push(base + 1.0, &frame).unwrap();
        assert_eq!(dup.disposition, FrameDisposition::DroppedDuplicate);
        let nan_ts = online.push(f64::NAN, &frame).unwrap();
        assert_eq!(nan_ts.disposition, FrameDisposition::DroppedStale);

        assert_eq!(online.health().frames_dropped_stale, 2);
        assert_eq!(online.health().frames_dropped_duplicate, 1);
        // The stream recovers: the next in-order frame scores normally.
        let ok = online.push(base + 2.0, &frame).unwrap();
        assert_eq!(ok.disposition, FrameDisposition::Scored);
    }

    #[test]
    fn non_finite_values_imputed() {
        let (model, ds) = trained();
        let mut online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        let base = *ds.train.timestamps().last().unwrap();
        let mut frame: Vec<f32> = (0..ds.num_variates()).map(|v| ds.test.get(v, 0)).collect();
        frame[0] = f32::NAN;
        frame[1] = f32::INFINITY;
        let verdict = online.push(base + 1.0, &frame).unwrap();
        assert_eq!(online.health().values_imputed, 2);
        assert!(verdict.stars.iter().all(|s| s.score.is_finite()));
    }

    #[test]
    fn cadence_gaps_are_filled_bounded() {
        let (model, ds) = trained();
        let mut online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        let base = *ds.train.timestamps().last().unwrap();
        let frame = vec![0.5f32; ds.num_variates()];
        online.push(base + 1.0, &frame).unwrap();
        // Cadence is 1.0; jump 4 → 3 missing frames, within the budget.
        let v = online.push(base + 5.0, &frame).unwrap();
        assert_eq!(v.gap_filled, 3);
        assert_eq!(online.health().frames_gap_filled, 3);
        assert_eq!(online.health().gap_fill_truncations, 0);
        // A huge jump is truncated at max_gap_fill.
        let v = online.push(base + 500.0, &frame).unwrap();
        assert_eq!(v.gap_filled, online.policy().max_gap_fill);
        assert_eq!(online.health().gap_fill_truncations, 1);
    }

    #[test]
    fn blacked_out_stars_get_quarantined() {
        let (model, ds) = trained();
        let n = ds.num_variates();
        let mut online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        let base = *ds.train.timestamps().last().unwrap();
        let window = online.policy().quarantine_fraction;
        let frames_needed =
            (online.frames_seen() as f32).max(window * online.capacity as f32) as usize
                + online.capacity;
        let mut saw_quarantine = false;
        for t in 0..frames_needed {
            let mut frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, t % ds.test.len())).collect();
            frame[0] = f32::NAN; // star 0 is blacked out for the whole run
            let verdict = online.push(base + 1.0 + t as f64, &frame).unwrap();
            if verdict.stars[0].status == StarStatus::Quarantined {
                saw_quarantine = true;
                assert_eq!(verdict.stars[0].score, 0.0);
                assert!(!verdict.stars[0].anomalous);
            }
        }
        assert!(saw_quarantine, "star 0 never quarantined");
        assert!(online.health().stars_quarantined >= 1);
        assert!(online.health().quarantine_events >= 1);
        // Healthy stars stay nominal.
        assert_eq!(online.star_status()[n - 1], StarStatus::Nominal);
    }

    #[test]
    fn frame_width_change_is_still_an_error() {
        let (model, ds) = trained();
        let mut online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        let base = *ds.train.timestamps().last().unwrap();
        let wrong = vec![0.5f32; ds.num_variates() + 1];
        assert!(online.push(base + 1.0, &wrong).is_err());
    }

    #[test]
    fn periodic_refit_updates_threshold() {
        let (model, ds) = trained();
        let policy = DegradePolicy { refit_interval: 16, ..DegradePolicy::default() };
        let mut online =
            OnlineAero::with_policy(model, &ds.train, PotConfig::default(), policy).unwrap();
        let base = *ds.train.timestamps().last().unwrap();
        for t in 0..48 {
            let frame: Vec<f32> = (0..ds.num_variates())
                .map(|v| ds.test.get(v, t % ds.test.len()))
                .collect();
            online.push(base + 1.0 + t as f64, &frame).unwrap();
        }
        let h = online.health();
        assert!(
            h.threshold_refits + h.threshold_refit_failures >= 2,
            "refits never attempted: {h:?}"
        );
        assert!(online.threshold().threshold.is_finite());
    }

    #[test]
    fn failed_refit_costs_one_fit() {
        let (model, ds) = trained();
        // A refit after every frame: the first ones see only a handful of
        // scores, too few excesses for a tail fit.
        let policy = DegradePolicy { refit_interval: 1, ..DegradePolicy::default() };
        assert!(policy.supervision.max_retries > 0, "retries must be on to be skipped");
        let mut online =
            OnlineAero::with_policy(model, &ds.train, PotConfig::default(), policy).unwrap();
        let before = *online.threshold();
        let base = *ds.train.timestamps().last().unwrap();
        let frame: Vec<f32> = (0..ds.num_variates()).map(|v| ds.test.get(v, 0)).collect();
        online.push(base + 1.0, &frame).unwrap();
        assert_eq!(online.health().threshold_refit_failures, 1);
        assert_eq!(*online.threshold(), before, "last known-good threshold kept");
        let stats = online.supervisor().stats();
        assert_eq!(stats.retries, 0, "a typed POT failure is not retried: {stats:?}");
        assert_eq!(stats.task_failures, 0, "{stats:?}");
    }

    #[test]
    fn refit_policy_that_can_never_fit_is_rejected() {
        let ds = SyntheticConfig::tiny(402).build();
        let n = ds.num_variates();
        let pot = PotConfig::default();
        let untrained = || Aero::new(AeroConfig::tiny()).unwrap();
        let policy = |refit_window| DegradePolicy {
            refit_interval: 8,
            refit_window,
            ..DegradePolicy::default()
        };
        let rejected = |refit_window| {
            // The policy check runs first, so an untrained model isolates it.
            match OnlineAero::with_policy(untrained(), &ds.train, pot, policy(refit_window)) {
                Err(DetectorError::Invalid(msg)) => msg.contains("refit_window"),
                _ => false,
            }
        };
        let smallest = (1..).find(|&w| !rejected(w)).unwrap();
        assert!(smallest > 1 && rejected(smallest - 1));
        // The boundary is pot.rs's own: a full history one window smaller
        // cannot fit even on distinct scores, the accepted one can.
        let fits = |w| {
            let m = history_cap(w, n) * n;
            let scores: Vec<f32> = (0..m).map(|v| v as f32).collect();
            !matches!(pot_threshold(&scores, pot), Err(aero_evt::PotError::TooFewPeaks { .. }))
        };
        assert!(fits(smallest) && !fits(smallest - 1), "boundary at {smallest}");
        // Accepted windows construct: the boundary itself, the CLI default
        // (4096) and the crash-recovery suite's 1024.
        for w in [smallest, 4096, 1024] {
            let (model, ds) = trained();
            assert!(OnlineAero::with_policy(model, &ds.train, pot, policy(w)).is_ok(), "{w}");
        }
        // Refits off: any window is fine.
        let off = DegradePolicy { refit_window: 1, ..DegradePolicy::default() };
        let (model, ds) = trained();
        assert!(OnlineAero::with_policy(model, &ds.train, pot, off).is_ok());
    }

    #[test]
    fn extreme_frame_is_flagged() {
        let (model, ds) = trained();
        let mut online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        let base = *ds.train.timestamps().last().unwrap();
        // Stream a few nominal frames, then a wild one on star 0.
        for t in 0..3 {
            let frame: Vec<f32> = (0..ds.num_variates()).map(|v| ds.test.get(v, t)).collect();
            online.push(base + 1.0 + t as f64, &frame).unwrap();
        }
        let mut wild: Vec<f32> = (0..ds.num_variates()).map(|v| ds.test.get(v, 3)).collect();
        wild[0] += 50.0;
        let verdict = online.push(base + 5.0, &wild).unwrap();
        // The wild star must clearly dominate the frame's other scores
        // (whether it crosses the POT cut depends on how well the tiny
        // 2-epoch model is calibrated, which is not what this test checks).
        let wild_score = verdict.stars[0].score;
        let others_max = verdict.stars[1..]
            .iter()
            .map(|s| s.score)
            .fold(0.0f32, f32::max);
        assert!(
            wild_score > 1.5 * others_max,
            "wild score {wild_score} vs max other {others_max}"
        );
    }
}
