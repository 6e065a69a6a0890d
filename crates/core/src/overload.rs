//! Overload control for the streaming detector (DESIGN.md §11): admission
//! control, priority load shedding, and a deadline-aware degradation ladder.
//!
//! A GWAC-class ingest node sees frames arrive faster than it can score them
//! whenever a backlog flushes after a network partition or several camera
//! feeds land on one worker. Left alone, [`OnlineAero`] would buffer that
//! pressure in its caller: memory grows without bound and every star's
//! verdict falls uniformly behind realtime. [`StreamGovernor`] wraps the
//! stream behind three mechanisms, all **deterministic functions of arrival
//! order** so the crash-recovery and thread-count bitwise gates keep holding:
//!
//! 1. **Admission control** — [`StreamGovernor::offer`] places each arriving
//!    frame in a bounded queue; at capacity the frame is [`Admission::Rejected`]
//!    (explicit backpressure, counted in
//!    [`OverloadCounters::frames_rejected`]), which bounds resident memory.
//! 2. **Priority load shedding** — while the queue runs above its high
//!    watermark, [`StreamGovernor::poll`] sheds the cheapest stars from the
//!    frame being serviced: quarantined stars first, then degraded, then
//!    nominal — and *never* anomaly-suspect stars (a star whose recent
//!    verdict was anomalous), so the alerts the telescope exists to catch
//!    are the last thing sacrificed.
//! 3. **Degradation ladder** — sustained pressure steps every non-suspect
//!    star down a rung: full two-stage AERO → Stage-1-only (`|E|`) →
//!    spectral-residual fallback (model-free, via an injected
//!    [`FallbackScorer`]) → hold-last-verdict. Sustained headroom steps back
//!    up, with hysteresis (different streak lengths down vs up) so the
//!    ladder doesn't chatter at a watermark.
//!
//! Deadline awareness is advisory: when the supervision policy sets a
//! per-attempt deadline, its misses corroborate the queue-depth signal, but
//! the queue depth — reproducible from the offer/poll interleaving alone —
//! is what actually drives stepping. The interleaving itself is written
//! ahead to the WAL (each offered frame carries the number of polls since
//! the previous offer), so [`StreamGovernor::resume_wal`] replays bitwise
//! into the same ladder state; recovery granularity is the offer boundary
//! (polls after the final offer are re-executed, reproducing the same
//! verdicts).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use aero_parallel::WorkBudget;

use crate::detector::{DetectorError, DetectorResult};
use crate::model::ScoreMode;
use crate::online::{FrameDisposition, FrameVerdict, OnlineAero, StarStatus};
use crate::wal::{WalConfig, WalRecovery, WalWriter};

/// One star's rung on the degradation ladder, cheapest last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderLevel {
    /// Full two-stage AERO: score is the noise-cancelled residual `|R|`.
    FullAero,
    /// Stage-1 only: score is the raw reconstruction error `|E|`.
    Stage1Only,
    /// Model skipped; the star's buffered window is scored by the injected
    /// model-free [`FallbackScorer`] (spectral residual in the CLI wiring).
    SrFallback,
    /// No scoring at all: the star's previous verdict is re-emitted.
    HoldLast,
}

impl LadderLevel {
    /// One rung cheaper. Without a fallback scorer the `SrFallback` rung is
    /// vacuous and is skipped.
    fn down(self, has_fallback: bool) -> Self {
        match self {
            Self::FullAero => Self::Stage1Only,
            Self::Stage1Only if has_fallback => Self::SrFallback,
            Self::Stage1Only | Self::SrFallback | Self::HoldLast => Self::HoldLast,
        }
    }

    /// One rung richer.
    fn up(self, has_fallback: bool) -> Self {
        match self {
            Self::HoldLast if has_fallback => Self::SrFallback,
            Self::HoldLast | Self::SrFallback => Self::Stage1Only,
            Self::Stage1Only | Self::FullAero => Self::FullAero,
        }
    }

    /// The model work this rung requests from [`OnlineAero::push_with_modes`].
    fn score_mode(self) -> ScoreMode {
        match self {
            Self::FullAero => ScoreMode::Full,
            Self::Stage1Only => ScoreMode::Stage1,
            Self::SrFallback | Self::HoldLast => ScoreMode::Skip,
        }
    }
}

/// Shedding priority of one star, shed in ascending order. `Suspect` stars
/// (recent anomalous verdict) are never shed at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Quarantined data quality: its verdict is suppressed anyway.
    Quarantined,
    /// Degraded data quality: verdict is already less trustworthy.
    Degraded,
    /// Healthy star with a quiet recent history.
    Nominal,
    /// Recently anomalous: the one class overload must not touch.
    Suspect,
}

/// Why an offer was turned away at the door. The reason is part of the wire
/// contract (`aero serve` echoes it to clients), so each carries a distinct
/// back-off story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission queue at capacity: the whole service is saturated. Retry
    /// after backing off for a few service ticks.
    Backpressure,
    /// The offering tenant's token bucket is empty: *this client* is over
    /// its fair share while the service may be healthy. Retry next tick.
    QuotaExceeded,
    /// The service is draining toward shutdown and accepts no new work.
    /// Reconnect after the successor process comes up.
    Draining,
}

impl RejectReason {
    /// Stable lowercase label used on the wire and in JSON summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Backpressure => "backpressure",
            Self::QuotaExceeded => "quota_exceeded",
            Self::Draining => "draining",
        }
    }
}

/// Outcome of [`StreamGovernor::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Frame queued; `depth` is the queue depth including it.
    Accepted {
        /// Queue depth after admission.
        depth: usize,
    },
    /// The frame was dropped at the door. Explicit backpressure: the caller
    /// may retry after the reason's back-off contract.
    Rejected {
        /// Why the frame was turned away.
        reason: RejectReason,
        /// Queue depth that caused (or witnessed) the rejection.
        depth: usize,
    },
}

impl Admission {
    /// True when the frame was queued.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Self::Accepted { .. })
    }

    /// Converts backpressure into the pipeline's error type for callers that
    /// treat a full queue as fatal: `Accepted` yields the queue depth,
    /// `Rejected` a [`DetectorError::Overload`].
    pub fn into_result(self) -> DetectorResult<usize> {
        match self {
            Self::Accepted { depth } => Ok(depth),
            Self::Rejected { reason, depth } => Err(DetectorError::Overload(format!(
                "admission rejected ({}) at depth {depth}",
                reason.label()
            ))),
        }
    }
}

/// Deterministic per-tenant token-bucket quota. The clock is the service
/// poll (never wall time), so every admission decision stays a pure function
/// of the offer/poll interleaving — the same property the ladder and the
/// crash-recovery gates rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Bucket capacity: the largest burst of frames one tenant can have
    /// admitted back-to-back without waiting for refills.
    pub burst: u32,
    /// Tokens returned to every bucket per serviced poll.
    pub refill_per_poll: u32,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self { burst: 32, refill_per_poll: 1 }
    }
}

impl TenantQuota {
    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.burst == 0 {
            return Err("tenant burst must be at least 1".into());
        }
        Ok(())
    }
}

/// One tenant's admission ledger: the per-tenant slice of the overload
/// accounting, embedded in [`crate::online::HealthReport::tenants`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Wire tenant id (0..32767).
    pub tenant: u32,
    /// Frames this tenant offered.
    pub offered: usize,
    /// Frames admitted into the queue.
    pub admitted: usize,
    /// Star-frames shed while servicing this tenant's admitted frames.
    pub shed: usize,
    /// Offers rejected because the shared queue was at capacity.
    pub rejected_backpressure: usize,
    /// Offers rejected because this tenant's bucket was empty.
    pub rejected_quota: usize,
}

impl TenantCounters {
    /// Total rejections of either kind.
    pub fn rejected(&self) -> usize {
        self.rejected_backpressure + self.rejected_quota
    }
}

/// Per-tenant rollup: lanes sorted by tenant id so iteration, JSON output,
/// and fleet aggregation are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantRollup {
    lanes: Vec<TenantCounters>,
}

impl TenantRollup {
    /// The lanes, ascending by tenant id.
    pub fn lanes(&self) -> &[TenantCounters] {
        &self.lanes
    }

    /// True when no tenant has been seen.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// True when no tenant was ever rejected or shed.
    pub fn is_clean(&self) -> bool {
        self.lanes.iter().all(|l| l.rejected() == 0 && l.shed == 0)
    }

    /// The lane for `tenant`, created on first touch.
    pub fn lane_mut(&mut self, tenant: u32) -> &mut TenantCounters {
        let at = match self.lanes.binary_search_by_key(&tenant, |l| l.tenant) {
            Ok(at) => at,
            Err(at) => {
                self.lanes.insert(at, TenantCounters { tenant, ..TenantCounters::default() });
                at
            }
        };
        &mut self.lanes[at]
    }

    /// Merges another rollup into this one (fleet aggregation): lanes with
    /// the same tenant id sum counter-by-counter, new tenants are inserted
    /// in id order.
    pub fn absorb(&mut self, other: &TenantRollup) {
        for lane in &other.lanes {
            let mine = self.lane_mut(lane.tenant);
            mine.offered += lane.offered;
            mine.admitted += lane.admitted;
            mine.shed += lane.shed;
            mine.rejected_backpressure += lane.rejected_backpressure;
            mine.rejected_quota += lane.rejected_quota;
        }
    }
}

/// Tunables for the governor. Defaults are sized for a queue that absorbs
/// short bursts untouched, starts degrading at half full, and recovers
/// lazily (hysteresis: stepping up takes much longer than stepping down).
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadPolicy {
    /// Bounded admission-queue capacity; offers beyond it are rejected.
    pub queue_capacity: usize,
    /// Depth above which polls count as pressure (shedding and down-steps).
    pub high_watermark: usize,
    /// Depth at or below which polls count as headroom (up-steps).
    pub low_watermark: usize,
    /// Consecutive pressure polls before every non-suspect star steps down.
    pub down_streak: usize,
    /// Consecutive headroom polls before every star steps up.
    pub up_streak: usize,
    /// Serviced frames for which an anomalous verdict pins its star as
    /// [`PriorityClass::Suspect`] (never shed, always scored at full rung).
    pub suspect_hold: usize,
    /// Anomaly threshold for [`FallbackScorer`] scores. The fallback's scale
    /// is unrelated to the POT-calibrated model threshold, so it gets its
    /// own conservative cut.
    pub fallback_threshold: f32,
    /// Per-tenant token-bucket quota for [`StreamGovernor::offer_from`].
    /// `None` (the default) disables tenancy: plain [`StreamGovernor::offer`]
    /// keeps its exact pre-tenant behavior and WAL bytes.
    pub tenant_quota: Option<TenantQuota>,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            high_watermark: 32,
            low_watermark: 8,
            down_streak: 3,
            up_streak: 16,
            suspect_hold: 128,
            fallback_threshold: 3.0,
            tenant_quota: None,
        }
    }
}

impl OverloadPolicy {
    /// Checks internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.high_watermark >= self.queue_capacity {
            return Err(format!(
                "high_watermark {} must be below queue_capacity {}",
                self.high_watermark, self.queue_capacity
            ));
        }
        if self.low_watermark > self.high_watermark {
            return Err(format!(
                "low_watermark {} must not exceed high_watermark {}",
                self.low_watermark, self.high_watermark
            ));
        }
        if self.down_streak == 0 || self.up_streak == 0 {
            return Err("down_streak and up_streak must be at least 1".into());
        }
        if let Some(quota) = &self.tenant_quota {
            quota.validate()?;
        }
        Ok(())
    }
}

/// Overload accounting embedded in [`crate::online::HealthReport`].
/// `queue_depth`, `queue_peak`, `stars_below_full`, and `frames_behind` are
/// gauges (newest state); everything else is cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadCounters {
    /// Current admission-queue depth.
    pub queue_depth: usize,
    /// Deepest the queue has been.
    pub queue_peak: usize,
    /// Offers rejected at the door (queue at capacity).
    pub frames_rejected: usize,
    /// Star-frames shed (one star skipped for one serviced frame).
    pub star_sheds: usize,
    /// Per-star down-steps taken by the degradation ladder.
    pub ladder_steps_down: usize,
    /// Per-star up-steps taken by the degradation ladder.
    pub ladder_steps_up: usize,
    /// Stars currently below the full two-stage rung.
    pub stars_below_full: usize,
    /// Verdicts produced by the model-free fallback scorer.
    pub fallback_scores: usize,
    /// Verdicts re-emitted from a star's previous poll (hold-last rung).
    pub held_verdicts: usize,
    /// Frames queued behind the one just serviced (backlog gauge).
    pub frames_behind: usize,
}

impl OverloadCounters {
    /// True when overload never forced any decision. Gauges (and up-steps,
    /// which only ever follow down-steps) are excluded: a drained queue is
    /// not degradation.
    pub fn is_clean(&self) -> bool {
        self.frames_rejected == 0
            && self.star_sheds == 0
            && self.ladder_steps_down == 0
            && self.fallback_scores == 0
            && self.held_verdicts == 0
    }

    /// Adds another governor's counters into this one (fleet rollups).
    /// Cumulative counters sum exactly; gauges and peaks also sum, so the
    /// rolled-up `queue_depth`/`frames_behind` read as fleet-wide backlog
    /// and `queue_peak` as an upper bound on simultaneous depth.
    pub fn absorb(&mut self, other: &OverloadCounters) {
        self.queue_depth += other.queue_depth;
        self.queue_peak += other.queue_peak;
        self.frames_rejected += other.frames_rejected;
        self.star_sheds += other.star_sheds;
        self.ladder_steps_down += other.ladder_steps_down;
        self.ladder_steps_up += other.ladder_steps_up;
        self.stars_below_full += other.stars_below_full;
        self.fallback_scores += other.fallback_scores;
        self.held_verdicts += other.held_verdicts;
        self.frames_behind += other.frames_behind;
    }
}

impl fmt::Display for OverloadCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queue {} (peak {}) | rejected {} | shed {} star-frames | \
             ladder {} down / {} up ({} below full) | {} fallback / {} held | {} behind",
            self.queue_depth,
            self.queue_peak,
            self.frames_rejected,
            self.star_sheds,
            self.ladder_steps_down,
            self.ladder_steps_up,
            self.stars_below_full,
            self.fallback_scores,
            self.held_verdicts,
            self.frames_behind,
        )
    }
}

/// Signature of the injected fallback scoring function: a star's trailing
/// window in, a single anomaly score out.
pub type FallbackFn = dyn Fn(&[f32]) -> f32 + Send + Sync;

/// Model-free per-star scorer for the `SrFallback` rung: maps a star's
/// buffered window (oldest first) to an anomaly score. The CLI wires the
/// spectral-residual baseline here; core cannot depend on `aero-baselines`
/// (the dependency points the other way), hence the injection.
#[derive(Clone)]
pub struct FallbackScorer(Arc<FallbackFn>);

impl FallbackScorer {
    /// Wraps a window-scoring closure.
    pub fn new(f: impl Fn(&[f32]) -> f32 + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    fn score(&self, window: &[f32]) -> f32 {
        (self.0)(window)
    }
}

impl fmt::Debug for FallbackScorer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FallbackScorer(..)")
    }
}

/// A serviced frame's verdict plus the overload decisions behind it.
#[derive(Debug, Clone)]
pub struct GovernedVerdict {
    /// The per-star verdicts (fallback / held rungs already substituted).
    pub verdict: FrameVerdict,
    /// Which stars were shed for this frame.
    pub shed: Vec<bool>,
    /// Each star's ladder rung when the frame was serviced.
    pub levels: Vec<LadderLevel>,
    /// Each star's shedding priority when the frame was serviced.
    pub classes: Vec<PriorityClass>,
}

/// A frame parked in the admission queue.
#[derive(Debug, Clone)]
struct QueuedFrame {
    timestamp: f64,
    values: Vec<f32>,
    /// Offering tenant (shed attribution), `None` for untenanted offers.
    tenant: Option<u32>,
}

/// Highest tenant id representable in the packed WAL meta word (15 bits).
pub const MAX_TENANT_ID: u32 = (1 << 15) - 1;

/// Tenant ids ride in the governor's WAL meta word so quota state replays
/// bitwise: bit 31 flags the packed layout, bits 16..31 hold `tenant id + 0`
/// (15 bits), bits 0..16 the polls-since-previous-offer count (saturated).
/// Untenanted offers keep the legacy bare-polls word, so pre-tenant WALs
/// replay unchanged.
const TENANT_META_FLAG: u32 = 1 << 31;

fn pack_meta(tenant: u32, polls: u32) -> u32 {
    TENANT_META_FLAG | (tenant << 16) | polls.min(0xFFFF)
}

/// Splits a WAL meta word into (tenant, polls-since-offer).
fn unpack_meta(meta: u32) -> (Option<u32>, u32) {
    if meta & TENANT_META_FLAG != 0 {
        (Some((meta >> 16) & MAX_TENANT_ID), meta & 0xFFFF)
    } else {
        (None, meta)
    }
}

/// How many of `max_sheddable` stars to shed at queue depth `depth`: zero at
/// the high watermark, scaling linearly to all of them at capacity.
fn shed_count(depth: usize, high: usize, capacity: usize, max_sheddable: usize) -> usize {
    if depth <= high {
        return 0;
    }
    let span = capacity.saturating_sub(high).max(1);
    let over = (depth - high).min(span);
    max_sheddable * over / span
}

/// Admission control + load shedding + degradation ladder around an
/// [`OnlineAero`]. See the module docs for the model; `core/tests/overload.rs`
/// holds the chaos harness that pins down the determinism contract.
#[derive(Debug)]
pub struct StreamGovernor {
    online: OnlineAero,
    policy: OverloadPolicy,
    queue: VecDeque<QueuedFrame>,
    /// Per-star ladder rung.
    levels: Vec<LadderLevel>,
    /// Serviced-frame index until which star `v` stays a suspect.
    suspect_until: Vec<usize>,
    /// Last emitted (score, anomalous) per star, for the hold-last rung.
    last_verdicts: Vec<(f32, bool)>,
    pressure_streak: usize,
    headroom_streak: usize,
    /// Frames serviced so far (the suspect clock).
    polls: usize,
    /// Polls since the previous offer — written as WAL metadata so resume
    /// replays the exact offer/poll interleaving.
    polls_since_offer: u32,
    wal: Option<WalWriter>,
    budget: WorkBudget,
    fallback: Option<FallbackScorer>,
    /// Per-tenant token buckets (present only when the policy enables
    /// tenancy). BTreeMap so refills iterate in tenant-id order.
    tenant_buckets: std::collections::BTreeMap<u32, u32>,
    /// Migration fence (see [`drain_fenced`](Self::drain_fenced)): while
    /// set, polls neither shed stars nor step the ladder — an
    /// administrative drain is not load.
    fenced: bool,
    /// Set when an append failed with [`DetectorError::WalFull`]: the log
    /// was detached and every star forced to `HoldLast` instead of
    /// crashing the stream.
    wal_exhausted: bool,
}

impl StreamGovernor {
    /// Wraps a stream with the default [`OverloadPolicy`].
    pub fn new(online: OnlineAero) -> DetectorResult<Self> {
        Self::with_policy(online, OverloadPolicy::default())
    }

    /// Wraps a stream with an explicit policy.
    pub fn with_policy(online: OnlineAero, policy: OverloadPolicy) -> DetectorResult<Self> {
        policy.validate().map_err(DetectorError::Invalid)?;
        let n = online.num_variates();
        let budget = WorkBudget::new(policy.queue_capacity.saturating_mul(n.max(1)));
        Ok(Self {
            online,
            policy,
            queue: VecDeque::new(),
            levels: vec![LadderLevel::FullAero; n],
            suspect_until: vec![0; n],
            last_verdicts: vec![(0.0, false); n],
            pressure_streak: 0,
            headroom_streak: 0,
            polls: 0,
            polls_since_offer: 0,
            wal: None,
            budget,
            fallback: None,
            tenant_buckets: std::collections::BTreeMap::new(),
            fenced: false,
            wal_exhausted: false,
        })
    }

    /// Installs (or clears) the model-free fallback scorer. Without one the
    /// ladder's `SrFallback` rung is skipped (stars drop straight from
    /// Stage-1-only to hold-last).
    pub fn set_fallback(&mut self, fallback: Option<FallbackScorer>) {
        self.fallback = fallback;
    }

    /// Attaches a write-ahead log. Every subsequent offer (accepted or
    /// rejected) is logged *with the polls-since-previous-offer count* before
    /// the admission decision, so [`StreamGovernor::resume_wal`] can replay
    /// the exact interleaving. The wrapped [`OnlineAero`] must not carry its
    /// own WAL — the governor owns logging.
    pub fn attach_wal(&mut self, wal: WalWriter) -> DetectorResult<()> {
        if self.online.wal().is_some() {
            return Err(DetectorError::Invalid(
                "detach the OnlineAero WAL before attaching one to the governor".into(),
            ));
        }
        self.wal = Some(wal);
        Ok(())
    }

    /// Detaches and returns the write-ahead log, if any.
    pub fn take_wal(&mut self) -> Option<WalWriter> {
        self.wal.take()
    }

    /// Offers one arriving frame for admission. The only errors are
    /// structural (frame width, WAL I/O); a full queue is the
    /// [`Admission::Rejected`] value, not an error.
    pub fn offer(&mut self, timestamp: f64, values: &[f32]) -> DetectorResult<Admission> {
        if values.len() != self.online.num_variates() {
            return Err(DetectorError::Invalid(format!(
                "frame width changed: expected {}, got {}",
                self.online.num_variates(),
                values.len()
            )));
        }
        // Write-ahead: even a frame about to be rejected is logged first —
        // the rejection is recomputed deterministically on replay from the
        // same queue state, and logging before deciding means a crash
        // between the two can't silently lose the decision.
        let meta = self.polls_since_offer;
        self.log_offer(timestamp, values, meta)?;
        self.polls_since_offer = 0;
        Ok(self.admit(None, timestamp, values))
    }

    /// [`offer`](Self::offer) on behalf of a tenant: the offer passes the
    /// tenant's token bucket before the shared queue, and both the quota and
    /// backpressure outcomes land in the tenant's
    /// [`TenantCounters`] lane. Requires [`OverloadPolicy::tenant_quota`].
    /// The tenant id rides in the WAL meta word, so a resumed governor
    /// replays bucket state and every per-tenant decision bitwise.
    pub fn offer_from(
        &mut self,
        tenant: u32,
        timestamp: f64,
        values: &[f32],
    ) -> DetectorResult<Admission> {
        if self.policy.tenant_quota.is_none() {
            return Err(DetectorError::Invalid(
                "offer_from requires OverloadPolicy::tenant_quota".into(),
            ));
        }
        if tenant > MAX_TENANT_ID {
            return Err(DetectorError::Invalid(format!(
                "tenant id {tenant} exceeds the {MAX_TENANT_ID} wire maximum"
            )));
        }
        if values.len() != self.online.num_variates() {
            return Err(DetectorError::Invalid(format!(
                "frame width changed: expected {}, got {}",
                self.online.num_variates(),
                values.len()
            )));
        }
        let meta = pack_meta(tenant, self.polls_since_offer);
        self.log_offer(timestamp, values, meta)?;
        self.polls_since_offer = 0;
        Ok(self.admit(Some(tenant), timestamp, values))
    }

    /// Appends one offer to the WAL, degrading instead of crashing when the
    /// device is full: on [`DetectorError::WalFull`] the log is detached
    /// (its on-disk prefix stays valid), every star drops to `HoldLast`,
    /// and the stream keeps serving from memory. Other errors propagate.
    fn log_offer(&mut self, timestamp: f64, values: &[f32], meta: u32) -> DetectorResult<()> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        match wal.append_with_meta(timestamp, values, meta) {
            Ok(_) => Ok(()),
            Err(DetectorError::WalFull(_)) => {
                self.wal = None;
                self.wal_exhausted = true;
                self.force_ladder_level(LadderLevel::HoldLast);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Whether the WAL was detached mid-run because the device filled up.
    /// While set, verdicts past the detach point are hold-last and are not
    /// recoverable by [`StreamGovernor::resume_wal`].
    pub fn wal_exhausted(&self) -> bool {
        self.wal_exhausted
    }

    /// The admission decision proper (shared by `offer`, `offer_from`, and
    /// WAL replay): tenant bucket first, then the shared bounded queue.
    fn admit(&mut self, tenant: Option<u32>, timestamp: f64, values: &[f32]) -> Admission {
        let n = self.online.num_variates();
        let depth = self.queue.len();
        if let Some(t) = tenant {
            let burst = self.policy.tenant_quota.map(|q| q.burst).unwrap_or(u32::MAX);
            let bucket = self.tenant_buckets.entry(t).or_insert(burst);
            let lane = self.online.health_mut().tenants.lane_mut(t);
            lane.offered += 1;
            if *bucket == 0 {
                lane.rejected_quota += 1;
                self.online.health_mut().overload.queue_depth = depth;
                return Admission::Rejected { reason: RejectReason::QuotaExceeded, depth };
            }
        }
        if depth >= self.policy.queue_capacity {
            if let Some(t) = tenant {
                self.online.health_mut().tenants.lane_mut(t).rejected_backpressure += 1;
            }
            let overload = &mut self.online.health_mut().overload;
            overload.frames_rejected += 1;
            overload.queue_depth = depth;
            return Admission::Rejected { reason: RejectReason::Backpressure, depth };
        }
        if let Some(t) = tenant {
            // Charge the token only on acceptance: quota measures admitted
            // work, not attempts the shared queue turned away.
            if let Some(bucket) = self.tenant_buckets.get_mut(&t) {
                *bucket -= 1;
            }
            self.online.health_mut().tenants.lane_mut(t).admitted += 1;
        }
        self.budget.try_charge(n.max(1));
        self.queue.push_back(QueuedFrame {
            timestamp,
            values: values.to_vec(),
            tenant,
        });
        let depth = self.queue.len();
        let overload = &mut self.online.health_mut().overload;
        overload.queue_depth = depth;
        overload.queue_peak = overload.queue_peak.max(depth);
        Admission::Accepted { depth }
    }

    /// Services the oldest queued frame: steps the ladder, picks the shed
    /// set, scores what remains, and substitutes the fallback / hold-last
    /// rungs. Returns `None` on an empty queue.
    pub fn poll(&mut self) -> DetectorResult<Option<GovernedVerdict>> {
        let depth = self.queue.len();
        let Some(frame) = self.queue.pop_front() else {
            let overload = &mut self.online.health_mut().overload;
            overload.queue_depth = 0;
            overload.frames_behind = 0;
            return Ok(None);
        };
        let n = self.online.num_variates();
        self.polls_since_offer = self.polls_since_offer.saturating_add(1);

        // The service poll is the tenant clock: every bucket refills here.
        // Only serviced polls count (empty polls are not WAL-recorded), so
        // replay ticks the buckets exactly as the live run did.
        if let Some(quota) = self.policy.tenant_quota {
            for bucket in self.tenant_buckets.values_mut() {
                *bucket = bucket.saturating_add(quota.refill_per_poll).min(quota.burst);
            }
        }

        // Pressure signal = depth at poll time (the frame being serviced
        // included): a pure function of the offer/poll interleaving. A
        // migration fence suppresses both the ladder and the shed set: the
        // backlog being flushed is administrative, not arrival pressure, and
        // a star must not leave its shard with a shed mark it would never
        // have earned in an uninterrupted run.
        let classes = self.classes();
        let shed = if self.fenced {
            vec![false; n]
        } else {
            self.step_ladder(depth);
            self.shed_set(depth, &classes)
        };

        let modes: Vec<ScoreMode> = (0..n)
            .map(|v| {
                if shed[v] {
                    ScoreMode::Skip
                } else if classes[v] == PriorityClass::Suspect {
                    // Suspects are pinned to the full pipeline whatever the
                    // ladder says: a candidate alert gets the best verdict
                    // the system can produce.
                    ScoreMode::Full
                } else {
                    self.levels[v].score_mode()
                }
            })
            .collect();

        let mut verdict = self
            .online
            .push_with_modes(frame.timestamp, &frame.values, &modes)?;
        self.budget.release(n.max(1));
        self.polls += 1;
        let scored = verdict.disposition == FrameDisposition::Scored;

        // Substitute the model-free rungs into the verdict. Quarantined
        // stars stay suppressed: SR on a mostly-imputed window would score
        // our own imputation, and a held verdict would predate the blackout.
        let mut fallback_scores = 0usize;
        let mut held_verdicts = 0usize;
        let mut star_sheds = 0usize;
        for v in 0..n {
            if shed[v] {
                star_sheds += 1;
                continue;
            }
            if !scored || classes[v] == PriorityClass::Suspect {
                continue;
            }
            let quarantined = verdict.stars[v].status == StarStatus::Quarantined;
            match self.levels[v] {
                LadderLevel::FullAero | LadderLevel::Stage1Only => {}
                LadderLevel::SrFallback => match (&self.fallback, quarantined) {
                    (Some(fb), false) => {
                        let score = fb.score(&self.online.star_window(v));
                        verdict.stars[v].score = score;
                        verdict.stars[v].anomalous = score >= self.policy.fallback_threshold;
                        fallback_scores += 1;
                    }
                    _ => {
                        // No scorer (or quarantined): behave as hold-last.
                        if !quarantined {
                            let (score, anomalous) = self.last_verdicts[v];
                            verdict.stars[v].score = score;
                            verdict.stars[v].anomalous = anomalous;
                            held_verdicts += 1;
                        }
                    }
                },
                LadderLevel::HoldLast => {
                    if !quarantined {
                        let (score, anomalous) = self.last_verdicts[v];
                        verdict.stars[v].score = score;
                        verdict.stars[v].anomalous = anomalous;
                        held_verdicts += 1;
                    }
                }
            }
        }

        // Bookkeeping: suspects, hold-last memory, gauges.
        let mut stars_below_full = 0usize;
        for (v, &was_shed) in shed.iter().enumerate() {
            let star = verdict.stars[v];
            if star.anomalous {
                self.suspect_until[v] = self.polls + self.policy.suspect_hold;
            }
            if scored && !was_shed {
                self.last_verdicts[v] = (star.score, star.anomalous);
            }
            if self.levels[v] != LadderLevel::FullAero {
                stars_below_full += 1;
            }
        }
        let backlog = self.queue.len();
        if let Some(t) = frame.tenant {
            self.online.health_mut().tenants.lane_mut(t).shed += star_sheds;
        }
        let overload = &mut self.online.health_mut().overload;
        overload.star_sheds += star_sheds;
        overload.fallback_scores += fallback_scores;
        overload.held_verdicts += held_verdicts;
        overload.stars_below_full = stars_below_full;
        overload.queue_depth = backlog;
        overload.frames_behind = backlog;

        Ok(Some(GovernedVerdict {
            verdict,
            shed,
            levels: self.levels.clone(),
            classes,
        }))
    }

    /// Polls until the queue is empty, collecting every verdict.
    pub fn drain(&mut self) -> DetectorResult<Vec<GovernedVerdict>> {
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(v) = self.poll()? {
            out.push(v);
        }
        Ok(out)
    }

    /// Polls until the queue is empty under a migration fence: no star is
    /// shed and the ladder holds still, so the drained verdicts are exactly
    /// what an unfenced, unpressured governor would have produced. This is
    /// phase 1 of a live handoff (DESIGN.md §16) — after it returns, the
    /// governor is quiescent and [`export_migration`](Self::export_migration)
    /// can snapshot it.
    pub fn drain_fenced(&mut self) -> DetectorResult<Vec<GovernedVerdict>> {
        self.fenced = true;
        let out = self.drain();
        self.fenced = false;
        out
    }

    /// Steps the hysteretic ladder from the queue-depth signal.
    fn step_ladder(&mut self, depth: usize) {
        if self.wal_exhausted {
            // Pinned to hold-last until the operator restarts with space:
            // stepping back up would emit unlogged (unrecoverable) verdicts.
            return;
        }
        let has_fallback = self.fallback.is_some();
        if depth > self.policy.high_watermark {
            self.pressure_streak += 1;
            self.headroom_streak = 0;
            if self.pressure_streak >= self.policy.down_streak {
                self.pressure_streak = 0;
                let mut steps = 0usize;
                for (v, level) in self.levels.iter_mut().enumerate() {
                    if self.suspect_until[v] > self.polls {
                        continue; // suspects never degrade
                    }
                    let next = level.down(has_fallback);
                    if next != *level {
                        *level = next;
                        steps += 1;
                    }
                }
                self.online.health_mut().overload.ladder_steps_down += steps;
            }
        } else if depth <= self.policy.low_watermark {
            self.headroom_streak += 1;
            self.pressure_streak = 0;
            if self.headroom_streak >= self.policy.up_streak {
                self.headroom_streak = 0;
                let mut steps = 0usize;
                for level in self.levels.iter_mut() {
                    let next = level.up(has_fallback);
                    if next != *level {
                        *level = next;
                        steps += 1;
                    }
                }
                self.online.health_mut().overload.ladder_steps_up += steps;
            }
        } else {
            // Between the watermarks: hold the current rungs and require the
            // streaks to restart — that's the hysteresis band.
            self.pressure_streak = 0;
            self.headroom_streak = 0;
        }
    }

    /// Current shedding priority of every star.
    fn classes(&self) -> Vec<PriorityClass> {
        self.online
            .star_status()
            .iter()
            .enumerate()
            .map(|(v, status)| {
                if self.suspect_until[v] > self.polls {
                    PriorityClass::Suspect
                } else {
                    match status {
                        StarStatus::Quarantined => PriorityClass::Quarantined,
                        StarStatus::Degraded => PriorityClass::Degraded,
                        StarStatus::Nominal => PriorityClass::Nominal,
                    }
                }
            })
            .collect()
    }

    /// Picks the shed set for this poll: lowest classes first, ties by star
    /// index, suspects excluded outright — so an anomaly-suspect star can
    /// never be shed while any lower-priority star survives.
    fn shed_set(&mut self, depth: usize, classes: &[PriorityClass]) -> Vec<bool> {
        let n = classes.len();
        let mut shed = vec![false; n];
        let sheddable: Vec<usize> = {
            let mut idx: Vec<usize> = (0..n)
                .filter(|&v| classes[v] != PriorityClass::Suspect)
                .collect();
            idx.sort_by_key(|&v| (classes[v], v));
            idx
        };
        let count = shed_count(
            depth,
            self.policy.high_watermark,
            self.policy.queue_capacity,
            sheddable.len(),
        );
        for &v in sheddable.iter().take(count) {
            shed[v] = true;
        }
        shed
    }

    /// Resumes a governed stream from its write-ahead log: recovers the
    /// longest valid prefix, then replays the recorded offer/poll
    /// interleaving through a freshly rebuilt `online` (same model, same
    /// calibration), reproducing queue, ladder, suspect set, and every
    /// counter bitwise. Returns the replayed verdicts so the caller can
    /// deduplicate against already-emitted output. Legacy records without
    /// interleaving metadata are replayed conservatively (drain fully, then
    /// offer), which reproduces an ungoverned `push` stream.
    pub fn resume_wal(
        online: OnlineAero,
        policy: OverloadPolicy,
        fallback: Option<FallbackScorer>,
        dir: &Path,
        config: WalConfig,
    ) -> DetectorResult<(Self, Vec<GovernedVerdict>, WalRecovery)> {
        if online.wal().is_some() {
            return Err(DetectorError::Invalid(
                "detach the OnlineAero WAL before resuming a governed stream".into(),
            ));
        }
        let (wal, frames, recovery) = WalWriter::resume(dir, config)?;
        let mut gov = Self::with_policy(online, policy)?;
        gov.fallback = fallback;
        let verdicts = gov.replay_frames(frames)?;
        gov.wal = Some(wal);
        Ok((gov, verdicts, recovery))
    }

    /// Replays recovered WAL frames through this governor, reproducing the
    /// recorded offer/poll interleaving (see [`resume_wal`](Self::resume_wal)
    /// for the semantics of the meta word and of legacy meta-less records).
    fn replay_frames(&mut self, frames: Vec<crate::wal::WalFrame>) -> DetectorResult<Vec<GovernedVerdict>> {
        let mut verdicts = Vec::new();
        for frame in frames {
            match frame.meta {
                Some(meta) => {
                    let (tenant, polls) = unpack_meta(meta);
                    for _ in 0..polls {
                        if let Some(v) = self.poll()? {
                            verdicts.push(v);
                        }
                    }
                    self.admit(tenant, frame.timestamp, &frame.values);
                    self.polls_since_offer = 0;
                }
                None => {
                    verdicts.extend(self.drain()?);
                    self.admit(None, frame.timestamp, &frame.values);
                    self.polls_since_offer = 0;
                    verdicts.extend(self.drain()?);
                }
            }
        }
        Ok(verdicts)
    }

    /// Resumes a governed stream from a WAL **on top of a seeded governor**:
    /// the post-commit half of a live shard migration (DESIGN.md §16). The
    /// caller builds the governor (fresh model, new membership), installs a
    /// [`crate::migrate::ShardSnapshot`] via
    /// [`install_migration`](Self::install_migration), and then replays the
    /// shard's *new* epoch directory here — frames appended after the
    /// handoff committed. The governor must not already own a WAL.
    pub fn resume_wal_into(
        &mut self,
        dir: &Path,
        config: WalConfig,
    ) -> DetectorResult<(Vec<GovernedVerdict>, WalRecovery)> {
        if self.wal.is_some() {
            return Err(DetectorError::Invalid(
                "governor already owns a WAL; detach it before resume_wal_into".into(),
            ));
        }
        let (wal, frames, recovery) = WalWriter::resume(dir, config)?;
        let verdicts = self.replay_frames(frames)?;
        self.wal = Some(wal);
        Ok((verdicts, recovery))
    }

    /// Snapshots the governor half of a shard for migration: poll clock,
    /// ladder/suspect/hold-last state per star, streaks, and tenant buckets.
    /// Requires a drained queue ([`drain_fenced`](Self::drain_fenced) first)
    /// — queued frames belong in the WAL, not the snapshot.
    pub fn export_migration(&self) -> DetectorResult<crate::migrate::GovernorState> {
        if !self.queue.is_empty() {
            return Err(DetectorError::Invalid(format!(
                "cannot export a governor with {} queued frames; drain first",
                self.queue.len()
            )));
        }
        Ok(crate::migrate::GovernorState {
            polls: self.polls as u64,
            polls_since_offer: self.polls_since_offer,
            pressure_streak: self.pressure_streak as u64,
            headroom_streak: self.headroom_streak as u64,
            tenant_buckets: self.tenant_buckets.iter().map(|(&t, &b)| (t, b)).collect(),
            stars: (0..self.levels.len())
                .map(|v| crate::migrate::GovernorStarState {
                    level: self.levels[v],
                    suspect_remaining: self.suspect_until[v].saturating_sub(self.polls) as u64,
                    last_score: self.last_verdicts[v].0,
                    last_anomalous: self.last_verdicts[v].1,
                })
                .collect(),
        })
    }

    /// Installs a migrated governor snapshot, rebasing each star's suspect
    /// deadline onto this governor's poll clock. `stars` maps each snapshot
    /// lane to a star index here (destination shards install a sub-slice of
    /// the source snapshot; a rebuilt shard installs all lanes in order).
    pub fn install_migration(
        &mut self,
        state: &crate::migrate::GovernorState,
        stars: &[(usize, usize)],
    ) -> DetectorResult<()> {
        if !self.queue.is_empty() {
            return Err(DetectorError::Invalid(
                "cannot install migration state over a non-empty queue".into(),
            ));
        }
        for &(from, to) in stars {
            let lane = state.stars.get(from).ok_or_else(|| {
                DetectorError::Invalid(format!("snapshot lane {from} out of range"))
            })?;
            if to >= self.levels.len() {
                return Err(DetectorError::Invalid(format!(
                    "star index {to} out of range for {}-star governor",
                    self.levels.len()
                )));
            }
            self.levels[to] = lane.level;
            self.suspect_until[to] = self.polls + lane.suspect_remaining as usize;
            self.last_verdicts[to] = (lane.last_score, lane.last_anomalous);
        }
        Ok(())
    }

    /// Installs the shard-wide governor clocks from a snapshot (full-shard
    /// rebuild only — a destination merging one star keeps its own clocks).
    pub fn install_clocks(&mut self, state: &crate::migrate::GovernorState) {
        self.polls = state.polls as usize;
        self.polls_since_offer = state.polls_since_offer;
        self.pressure_streak = state.pressure_streak as usize;
        self.headroom_streak = state.headroom_streak as usize;
        self.tenant_buckets = state.tenant_buckets.iter().copied().collect();
    }

    /// Forces every star onto one rung (benchmarks and operator runbooks;
    /// the ladder keeps stepping from here).
    pub fn force_ladder_level(&mut self, level: LadderLevel) {
        for slot in self.levels.iter_mut() {
            *slot = level;
        }
    }

    /// The wrapped stream (health counters, thresholds, star status).
    pub fn online(&self) -> &OnlineAero {
        &self.online
    }

    /// Consumes the governor, returning the wrapped stream.
    pub fn into_online(self) -> OnlineAero {
        self.online
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Each star's current ladder rung.
    pub fn levels(&self) -> &[LadderLevel] {
        &self.levels
    }

    /// The memory/work accountant (peak tracks the deepest backlog).
    pub fn budget(&self) -> &WorkBudget {
        &self.budget
    }

    /// Frames serviced so far.
    pub fn polls(&self) -> usize {
        self.polls
    }

    /// The active policy.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_steps_skip_vacuous_fallback_rung() {
        // With a fallback scorer the ladder walks every rung.
        let mut level = LadderLevel::FullAero;
        let mut walked = vec![level];
        for _ in 0..4 {
            level = level.down(true);
            walked.push(level);
        }
        assert_eq!(
            walked,
            vec![
                LadderLevel::FullAero,
                LadderLevel::Stage1Only,
                LadderLevel::SrFallback,
                LadderLevel::HoldLast,
                LadderLevel::HoldLast,
            ]
        );
        // Without one, SrFallback is skipped in both directions.
        assert_eq!(LadderLevel::Stage1Only.down(false), LadderLevel::HoldLast);
        assert_eq!(LadderLevel::HoldLast.up(false), LadderLevel::Stage1Only);
        assert_eq!(LadderLevel::HoldLast.up(true), LadderLevel::SrFallback);
        assert_eq!(LadderLevel::FullAero.up(true), LadderLevel::FullAero);
    }

    #[test]
    fn shed_count_scales_between_watermark_and_capacity() {
        // high = 32, capacity = 64, 10 sheddable stars.
        assert_eq!(shed_count(0, 32, 64, 10), 0);
        assert_eq!(shed_count(32, 32, 64, 10), 0);
        assert_eq!(shed_count(48, 32, 64, 10), 5);
        assert_eq!(shed_count(64, 32, 64, 10), 10);
        assert_eq!(shed_count(1000, 32, 64, 10), 10, "clamped past capacity");
        assert_eq!(shed_count(64, 32, 64, 0), 0, "nothing sheddable");
        // Degenerate watermark geometry must not divide by zero.
        assert_eq!(shed_count(5, 4, 4, 3), 3);
    }

    #[test]
    fn admission_into_result_maps_rejection_to_overload_error() {
        assert_eq!(Admission::Accepted { depth: 3 }.into_result().unwrap(), 3);
        let err = Admission::Rejected { reason: RejectReason::Backpressure, depth: 64 }
            .into_result()
            .unwrap_err();
        assert!(matches!(err, DetectorError::Overload(_)));
        assert!(err.to_string().contains("64"));
        assert!(err.to_string().contains("backpressure"));
        let err = Admission::Rejected { reason: RejectReason::QuotaExceeded, depth: 1 }
            .into_result()
            .unwrap_err();
        assert!(err.to_string().contains("quota_exceeded"));
    }

    #[test]
    fn tenant_meta_word_round_trips_and_saturates() {
        assert_eq!(unpack_meta(pack_meta(0, 0)), (Some(0), 0));
        assert_eq!(unpack_meta(pack_meta(7, 12)), (Some(7), 12));
        assert_eq!(unpack_meta(pack_meta(MAX_TENANT_ID, 5)), (Some(MAX_TENANT_ID), 5));
        // Poll counts saturate at the 16-bit field instead of corrupting
        // the tenant bits.
        assert_eq!(unpack_meta(pack_meta(3, 1 << 20)), (Some(3), 0xFFFF));
        // Legacy bare-polls words stay untenanted.
        assert_eq!(unpack_meta(42), (None, 42));
        assert_eq!(unpack_meta(0), (None, 0));
    }

    #[test]
    fn tenant_rollup_merges_lanes_by_id() {
        let mut a = TenantRollup::default();
        a.lane_mut(3).admitted = 5;
        a.lane_mut(1).offered = 2;
        let mut b = TenantRollup::default();
        b.lane_mut(3).admitted = 7;
        b.lane_mut(3).rejected_quota = 1;
        b.lane_mut(9).shed = 4;
        a.absorb(&b);
        let ids: Vec<u32> = a.lanes().iter().map(|l| l.tenant).collect();
        assert_eq!(ids, vec![1, 3, 9], "lanes stay sorted by tenant id");
        assert_eq!(a.lanes()[1].admitted, 12);
        assert_eq!(a.lanes()[1].rejected(), 1);
        assert_eq!(a.lanes()[2].shed, 4);
        assert!(!a.is_clean());
        assert!(TenantRollup::default().is_clean());
    }

    #[test]
    fn tenant_quota_validation() {
        assert!(TenantQuota::default().validate().is_ok());
        assert!(TenantQuota { burst: 0, refill_per_poll: 1 }.validate().is_err());
        let policy = OverloadPolicy {
            tenant_quota: Some(TenantQuota { burst: 0, refill_per_poll: 1 }),
            ..OverloadPolicy::default()
        };
        assert!(policy.validate().is_err());
    }

    #[test]
    fn policy_validation_rejects_inverted_watermarks() {
        assert!(OverloadPolicy::default().validate().is_ok());
        let bad = OverloadPolicy { high_watermark: 64, ..OverloadPolicy::default() };
        assert!(bad.validate().is_err());
        let bad = OverloadPolicy { low_watermark: 33, ..OverloadPolicy::default() };
        assert!(bad.validate().is_err());
        let bad = OverloadPolicy { queue_capacity: 0, ..OverloadPolicy::default() };
        assert!(bad.validate().is_err());
        let bad = OverloadPolicy { up_streak: 0, ..OverloadPolicy::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn counters_cleanliness_ignores_gauges() {
        let mut c = OverloadCounters::default();
        assert!(c.is_clean());
        c.queue_depth = 10;
        c.queue_peak = 20;
        c.frames_behind = 10;
        c.ladder_steps_up = 1; // only reachable after a down-step in practice
        assert!(c.is_clean(), "gauges are not degradation");
        c.star_sheds = 1;
        assert!(!c.is_clean());
        let shown = c.to_string();
        assert!(shown.contains("shed 1 star-frames"), "{shown}");
    }

    #[test]
    fn priority_classes_order_suspect_last() {
        let mut classes = vec![
            PriorityClass::Suspect,
            PriorityClass::Nominal,
            PriorityClass::Quarantined,
            PriorityClass::Degraded,
        ];
        classes.sort();
        assert_eq!(
            classes,
            vec![
                PriorityClass::Quarantined,
                PriorityClass::Degraded,
                PriorityClass::Nominal,
                PriorityClass::Suspect,
            ]
        );
    }
}
