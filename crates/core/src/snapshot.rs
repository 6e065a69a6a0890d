//! Portable shard state: one quiescent shard's detector and governor state
//! as plain data, plus a checksummed byte codec.
//!
//! [`OnlineAero::export_snapshot`](crate::online::OnlineAero::export_snapshot)
//! and [`StreamGovernor::export_snapshot`](crate::overload::StreamGovernor::export_snapshot)
//! capture a shard whose admission queue is empty: window lanes, imputation
//! flags, data-quality status, refit score history, POT threshold, health
//! and supervisor counters, every circuit breaker, ladder rungs, suspect
//! countdowns, hold-last memory and tenant buckets. The matching
//! `install_snapshot` pair restores it over a freshly built shard of the
//! same membership, which then serves the rest of the night bitwise as the
//! exported shard would have (gated by `tests/snapshot.rs`).
//!
//! [`ShardSnapshot::encode`] frames the state as
//! `[len:u32][payload][fnv64(payload):u64]`; [`ShardSnapshot::decode`]
//! turns a truncated, bit-flipped or otherwise malformed buffer into a
//! typed [`DetectorError::Corrupt`], never a panic or an unbounded
//! allocation.

// Snapshots are taken and restored mid-night; a stray `unwrap` is a latent
// crash, so the lint gate forbids them outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use aero_evt::{FitMethod, PotThreshold};

use crate::detector::{DetectorError, DetectorResult};
use crate::online::{HealthReport, StarStatus};
use crate::overload::{LadderLevel, OverloadCounters, TenantRollup};
use crate::persist::Fnv64;
use crate::supervisor::{BreakerState, SupervisorStats};

/// One star's portable detector-side state: its window column, imputation
/// flags, data-quality status, refit score history, circuit breaker, and
/// (when the fleet runs per-star adapter heads) its trained adapter delta.
#[derive(Debug, Clone, PartialEq)]
pub struct StarLane {
    /// The star's column of the rolling window, oldest sample first
    /// (parallel to [`DetectorState::timestamps`]).
    pub window: Vec<f32>,
    /// Which window samples were imputed/synthesised.
    pub imputed: Vec<bool>,
    /// Data-quality status at export.
    pub status: StarStatus,
    /// The star's lane of the POT refit history (most recent last).
    pub score_history: Vec<f32>,
    /// The star's supervision circuit breaker.
    pub breaker: BreakerState,
    /// The star's adapter head at export (`None` when the shard runs
    /// without adapters). Online SGD state is not replayed on install, so
    /// the head itself travels with the star — kilobytes, not a model.
    pub adapter: Option<crate::adapter::StarAdapter>,
}

/// The detector half of a [`ShardSnapshot`]: shard-wide clocks plus one
/// [`StarLane`] per member star, in the shard's local variate order.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorState {
    /// Window timestamps, oldest first.
    pub timestamps: Vec<f64>,
    /// EWMA cadence estimate.
    pub cadence: f64,
    /// Frames pushed so far (including dropped ones).
    pub frames_seen: u64,
    /// Frames scored so far (drives the refit schedule).
    pub scored_frames: u64,
    /// The calibrated (or most recently refit) POT threshold.
    pub threshold: PotThreshold,
    /// Cumulative health counters at export.
    pub health: HealthReport,
    /// Supervisor counter totals at export.
    pub sup_stats: SupervisorStats,
    /// The POT-refit unit's breaker (unit `n`).
    pub refit_breaker: BreakerState,
    /// The whole-frame unit's breaker (unit `n + 1`).
    pub frame_breaker: BreakerState,
    /// Per-star lanes, local variate order.
    pub stars: Vec<StarLane>,
}

/// One star's governor-side state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorStarState {
    /// Degradation-ladder rung.
    pub level: LadderLevel,
    /// Service polls left on the star's suspect hold (0 = not suspect),
    /// relative to [`GovernorState::polls`].
    pub suspect_remaining: u64,
    /// Last emitted score (hold-last memory).
    pub last_score: f32,
    /// Last emitted anomaly flag (hold-last memory).
    pub last_anomalous: bool,
}

/// The governor half of a [`ShardSnapshot`]: poll clocks, ladder streaks,
/// tenant buckets, and one [`GovernorStarState`] per member star.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorState {
    /// Frames serviced so far.
    pub polls: u64,
    /// Service polls since the last accepted offer (WAL meta seed).
    pub polls_since_offer: u32,
    /// Consecutive polls above the high watermark.
    pub pressure_streak: u64,
    /// Consecutive polls at or below the low watermark.
    pub headroom_streak: u64,
    /// Per-tenant token buckets, ascending by tenant id.
    pub tenant_buckets: Vec<(u32, u32)>,
    /// Per-star lanes, local variate order.
    pub stars: Vec<GovernorStarState>,
}

/// Everything one quiescent shard exports: membership plus both state
/// halves.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: u32,
    /// Member stars at export (global variate indices, ascending).
    pub members: Vec<u32>,
    /// Detector-side state.
    pub detector: DetectorState,
    /// Governor-side state.
    pub governor: GovernorState,
}

/// Codec version tag, the first payload byte.
const TAG_SNAPSHOT: u8 = 1;

// ---------------------------------------------------------------------------
// Binary codec. Little-endian throughout; floats as raw bits so NaN patterns
// survive; a snapshot is framed as [len:u32][payload][fnv64(payload):u64].
// ---------------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Cursor over a decoded payload; every read is bounds-checked so a
/// bit-flipped length can't panic the decoder.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> DetectorResult<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(DetectorError::Corrupt(
                "shard snapshot truncated mid-field".into(),
            ));
        };
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> DetectorResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DetectorResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> DetectorResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f32(&mut self) -> DetectorResult<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> DetectorResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length prefix for a vector of `elem_bytes`-wide elements, validated
    /// against the remaining payload so a corrupt count can't OOM.
    fn len(&mut self, elem_bytes: usize) -> DetectorResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes.max(1)) > self.bytes.len() - self.at {
            return Err(DetectorError::Corrupt(format!(
                "shard snapshot count {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }

    /// Bytes left unread in the payload.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn done(&self) -> DetectorResult<()> {
        if self.at != self.bytes.len() {
            return Err(DetectorError::Corrupt(format!(
                "{} trailing bytes after shard snapshot",
                self.bytes.len() - self.at
            )));
        }
        Ok(())
    }
}

fn put_breaker(buf: &mut Vec<u8>, b: BreakerState) {
    put_u32(buf, b.consecutive);
    put_u8(buf, u8::from(b.open));
    put_u32(buf, b.short_circuited);
}

fn get_breaker(r: &mut Reader<'_>) -> DetectorResult<BreakerState> {
    Ok(BreakerState {
        consecutive: r.u32()?,
        open: r.u8()? != 0,
        short_circuited: r.u32()?,
    })
}

fn put_threshold(buf: &mut Vec<u8>, t: &PotThreshold) {
    put_f64(buf, t.threshold);
    put_f64(buf, t.initial);
    put_u64(buf, t.peaks as u64);
    put_f64(buf, t.gamma);
    put_f64(buf, t.sigma);
    put_u8(buf, match t.method {
        FitMethod::GrimshawMle => 0,
        FitMethod::MethodOfMoments => 1,
    });
}

fn get_threshold(r: &mut Reader<'_>) -> DetectorResult<PotThreshold> {
    Ok(PotThreshold {
        threshold: r.f64()?,
        initial: r.f64()?,
        peaks: r.u64()? as usize,
        gamma: r.f64()?,
        sigma: r.f64()?,
        method: match r.u8()? {
            0 => FitMethod::GrimshawMle,
            1 => FitMethod::MethodOfMoments,
            other => {
                return Err(DetectorError::Corrupt(format!(
                    "unknown POT fit method tag {other}"
                )))
            }
        },
    })
}

fn put_health(buf: &mut Vec<u8>, h: &HealthReport) {
    for v in [
        h.frames_accepted,
        h.frames_dropped_stale,
        h.frames_dropped_duplicate,
        h.frames_gap_filled,
        h.gap_fill_truncations,
        h.values_imputed,
        h.scores_suppressed,
        h.stars_degraded,
        h.stars_quarantined,
        h.quarantine_events,
        h.threshold_refits,
        h.threshold_refit_failures,
        h.shard_panics,
        h.shard_deadline_misses,
        h.shard_failures,
        h.frames_suppressed,
        h.circuit_breaker_trips,
    ] {
        put_u64(buf, v as u64);
    }
    let o = &h.overload;
    for v in [
        o.queue_depth,
        o.queue_peak,
        o.frames_rejected,
        o.star_sheds,
        o.ladder_steps_down,
        o.ladder_steps_up,
        o.stars_below_full,
        o.fallback_scores,
        o.held_verdicts,
        o.frames_behind,
    ] {
        put_u64(buf, v as u64);
    }
    put_u32(buf, h.tenants.lanes().len() as u32);
    for lane in h.tenants.lanes() {
        put_u32(buf, lane.tenant);
        for v in [
            lane.offered,
            lane.admitted,
            lane.shed,
            lane.rejected_backpressure,
            lane.rejected_quota,
        ] {
            put_u64(buf, v as u64);
        }
    }
}

// Field-by-field assignment mirrors `put_health`'s wire order exactly;
// a struct initializer would hide the pairing the codec depends on.
#[allow(clippy::field_reassign_with_default)]
fn get_health(r: &mut Reader<'_>) -> DetectorResult<HealthReport> {
    let mut h = HealthReport::default();
    h.frames_accepted = r.u64()? as usize;
    h.frames_dropped_stale = r.u64()? as usize;
    h.frames_dropped_duplicate = r.u64()? as usize;
    h.frames_gap_filled = r.u64()? as usize;
    h.gap_fill_truncations = r.u64()? as usize;
    h.values_imputed = r.u64()? as usize;
    h.scores_suppressed = r.u64()? as usize;
    h.stars_degraded = r.u64()? as usize;
    h.stars_quarantined = r.u64()? as usize;
    h.quarantine_events = r.u64()? as usize;
    h.threshold_refits = r.u64()? as usize;
    h.threshold_refit_failures = r.u64()? as usize;
    h.shard_panics = r.u64()? as usize;
    h.shard_deadline_misses = r.u64()? as usize;
    h.shard_failures = r.u64()? as usize;
    h.frames_suppressed = r.u64()? as usize;
    h.circuit_breaker_trips = r.u64()? as usize;
    let mut o = OverloadCounters::default();
    o.queue_depth = r.u64()? as usize;
    o.queue_peak = r.u64()? as usize;
    o.frames_rejected = r.u64()? as usize;
    o.star_sheds = r.u64()? as usize;
    o.ladder_steps_down = r.u64()? as usize;
    o.ladder_steps_up = r.u64()? as usize;
    o.stars_below_full = r.u64()? as usize;
    o.fallback_scores = r.u64()? as usize;
    o.held_verdicts = r.u64()? as usize;
    o.frames_behind = r.u64()? as usize;
    h.overload = o;
    let mut tenants = TenantRollup::default();
    let lanes = r.len(44)?;
    for _ in 0..lanes {
        let tenant = r.u32()?;
        let lane = tenants.lane_mut(tenant);
        lane.offered = r.u64()? as usize;
        lane.admitted = r.u64()? as usize;
        lane.shed = r.u64()? as usize;
        lane.rejected_backpressure = r.u64()? as usize;
        lane.rejected_quota = r.u64()? as usize;
    }
    h.tenants = tenants;
    Ok(h)
}

fn put_sup_stats(buf: &mut Vec<u8>, s: SupervisorStats) {
    for v in [
        s.panics,
        s.deadline_misses,
        s.task_failures,
        s.retries,
        s.circuits_opened,
        s.short_circuits,
        s.probes,
        s.circuits_closed,
    ] {
        put_u64(buf, v as u64);
    }
}

fn get_sup_stats(r: &mut Reader<'_>) -> DetectorResult<SupervisorStats> {
    Ok(SupervisorStats {
        panics: r.u64()? as usize,
        deadline_misses: r.u64()? as usize,
        task_failures: r.u64()? as usize,
        retries: r.u64()? as usize,
        circuits_opened: r.u64()? as usize,
        short_circuits: r.u64()? as usize,
        probes: r.u64()? as usize,
        circuits_closed: r.u64()? as usize,
    })
}

/// One adapter slot: presence byte, then shape + weights + norm stats.
fn put_adapter(buf: &mut Vec<u8>, adapter: Option<&crate::adapter::StarAdapter>) {
    let Some(a) = adapter else {
        put_u8(buf, 0);
        return;
    };
    put_u8(buf, 1);
    put_u32(buf, a.omega() as u32);
    put_u32(buf, a.rank() as u32);
    for &v in a.p.iter().chain(&a.q) {
        put_f32(buf, v);
    }
    for v in [a.bias, a.mean, a.var] {
        put_f32(buf, v);
    }
    put_u64(buf, a.updates());
}

fn get_adapter(r: &mut Reader<'_>) -> DetectorResult<Option<crate::adapter::StarAdapter>> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let omega = r.u32()? as usize;
            let rank = r.u32()? as usize;
            // Bound the implied weight count against the remaining payload
            // before allocating, like every other length in this codec.
            let weights = omega.saturating_mul(rank).saturating_mul(2);
            if weights.saturating_mul(4) > r.remaining() {
                return Err(DetectorError::Corrupt(format!(
                    "adapter shape ω={omega} r={rank} exceeds remaining payload"
                )));
            }
            let mut p = Vec::with_capacity(omega * rank);
            for _ in 0..omega * rank {
                p.push(r.f32()?);
            }
            let mut q = Vec::with_capacity(rank * omega);
            for _ in 0..rank * omega {
                q.push(r.f32()?);
            }
            let bias = r.f32()?;
            let mean = r.f32()?;
            let var = r.f32()?;
            let updates = r.u64()?;
            crate::adapter::StarAdapter::from_parts(omega, rank, p, q, bias, mean, var, updates)
                .map(Some)
                .map_err(|e| DetectorError::Corrupt(format!("snapshot adapter delta: {e}")))
        }
        other => Err(DetectorError::Corrupt(format!(
            "unknown adapter presence tag {other}"
        ))),
    }
}

fn put_detector(buf: &mut Vec<u8>, d: &DetectorState) {
    put_u32(buf, d.timestamps.len() as u32);
    for &ts in &d.timestamps {
        put_f64(buf, ts);
    }
    put_f64(buf, d.cadence);
    put_u64(buf, d.frames_seen);
    put_u64(buf, d.scored_frames);
    put_threshold(buf, &d.threshold);
    put_health(buf, &d.health);
    put_sup_stats(buf, d.sup_stats);
    put_breaker(buf, d.refit_breaker);
    put_breaker(buf, d.frame_breaker);
    put_u32(buf, d.stars.len() as u32);
    for lane in &d.stars {
        put_u32(buf, lane.window.len() as u32);
        for &v in &lane.window {
            put_f32(buf, v);
        }
        put_u32(buf, lane.imputed.len() as u32);
        for &v in &lane.imputed {
            put_u8(buf, u8::from(v));
        }
        put_u8(buf, match lane.status {
            StarStatus::Nominal => 0,
            StarStatus::Degraded => 1,
            StarStatus::Quarantined => 2,
        });
        put_u32(buf, lane.score_history.len() as u32);
        for &v in &lane.score_history {
            put_f32(buf, v);
        }
        put_breaker(buf, lane.breaker);
        put_adapter(buf, lane.adapter.as_ref());
    }
}

fn get_star_status(r: &mut Reader<'_>) -> DetectorResult<StarStatus> {
    match r.u8()? {
        0 => Ok(StarStatus::Nominal),
        1 => Ok(StarStatus::Degraded),
        2 => Ok(StarStatus::Quarantined),
        other => Err(DetectorError::Corrupt(format!(
            "unknown star status tag {other}"
        ))),
    }
}

fn get_detector(r: &mut Reader<'_>) -> DetectorResult<DetectorState> {
    let ts_len = r.len(8)?;
    let mut timestamps = Vec::with_capacity(ts_len);
    for _ in 0..ts_len {
        timestamps.push(r.f64()?);
    }
    let cadence = r.f64()?;
    let frames_seen = r.u64()?;
    let scored_frames = r.u64()?;
    let threshold = get_threshold(r)?;
    let health = get_health(r)?;
    let sup_stats = get_sup_stats(r)?;
    let refit_breaker = get_breaker(r)?;
    let frame_breaker = get_breaker(r)?;
    let n = r.len(1)?;
    let mut stars = Vec::with_capacity(n);
    for _ in 0..n {
        let w = r.len(4)?;
        let mut window = Vec::with_capacity(w);
        for _ in 0..w {
            window.push(r.f32()?);
        }
        let im = r.len(1)?;
        let mut imputed = Vec::with_capacity(im);
        for _ in 0..im {
            imputed.push(r.u8()? != 0);
        }
        let status = get_star_status(r)?;
        let hl = r.len(4)?;
        let mut score_history = Vec::with_capacity(hl);
        for _ in 0..hl {
            score_history.push(r.f32()?);
        }
        let breaker = get_breaker(r)?;
        let adapter = get_adapter(r)?;
        stars.push(StarLane {
            window,
            imputed,
            status,
            score_history,
            breaker,
            adapter,
        });
    }
    Ok(DetectorState {
        timestamps,
        cadence,
        frames_seen,
        scored_frames,
        threshold,
        health,
        sup_stats,
        refit_breaker,
        frame_breaker,
        stars,
    })
}

fn put_governor(buf: &mut Vec<u8>, g: &GovernorState) {
    put_u64(buf, g.polls);
    put_u32(buf, g.polls_since_offer);
    put_u64(buf, g.pressure_streak);
    put_u64(buf, g.headroom_streak);
    put_u32(buf, g.tenant_buckets.len() as u32);
    for &(t, b) in &g.tenant_buckets {
        put_u32(buf, t);
        put_u32(buf, b);
    }
    put_u32(buf, g.stars.len() as u32);
    for lane in &g.stars {
        put_u8(buf, match lane.level {
            LadderLevel::FullAero => 0,
            LadderLevel::Stage1Only => 1,
            LadderLevel::SrFallback => 2,
            LadderLevel::HoldLast => 3,
        });
        put_u64(buf, lane.suspect_remaining);
        put_f32(buf, lane.last_score);
        put_u8(buf, u8::from(lane.last_anomalous));
    }
}

fn get_governor(r: &mut Reader<'_>) -> DetectorResult<GovernorState> {
    let polls = r.u64()?;
    let polls_since_offer = r.u32()?;
    let pressure_streak = r.u64()?;
    let headroom_streak = r.u64()?;
    let nb = r.len(8)?;
    let mut tenant_buckets = Vec::with_capacity(nb);
    for _ in 0..nb {
        tenant_buckets.push((r.u32()?, r.u32()?));
    }
    let n = r.len(14)?;
    let mut stars = Vec::with_capacity(n);
    for _ in 0..n {
        let level = match r.u8()? {
            0 => LadderLevel::FullAero,
            1 => LadderLevel::Stage1Only,
            2 => LadderLevel::SrFallback,
            3 => LadderLevel::HoldLast,
            other => {
                return Err(DetectorError::Corrupt(format!(
                    "unknown ladder level tag {other}"
                )))
            }
        };
        stars.push(GovernorStarState {
            level,
            suspect_remaining: r.u64()?,
            last_score: r.f32()?,
            last_anomalous: r.u8()? != 0,
        });
    }
    Ok(GovernorState {
        polls,
        polls_since_offer,
        pressure_streak,
        headroom_streak,
        tenant_buckets,
        stars,
    })
}

impl ShardSnapshot {
    /// Encodes the snapshot as one checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u8(&mut payload, TAG_SNAPSHOT);
        put_u32(&mut payload, self.shard);
        put_u32(&mut payload, self.members.len() as u32);
        for &m in &self.members {
            put_u32(&mut payload, m);
        }
        put_detector(&mut payload, &self.detector);
        put_governor(&mut payload, &self.governor);
        let mut framed = Vec::with_capacity(payload.len() + 12);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        let mut h = Fnv64::new();
        h.write(&payload);
        framed.extend_from_slice(&h.finish().to_le_bytes());
        framed
    }

    /// Decodes one frame written by [`encode`](Self::encode). Any damage —
    /// a short buffer, a length or checksum mismatch, an unknown tag, a
    /// count larger than the remaining payload, trailing bytes — is a typed
    /// [`DetectorError::Corrupt`].
    pub fn decode(bytes: &[u8]) -> DetectorResult<Self> {
        if bytes.len() < 12 {
            return Err(DetectorError::Corrupt(format!(
                "shard snapshot of {} bytes is shorter than its frame",
                bytes.len()
            )));
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if len.checked_add(12) != Some(bytes.len()) {
            return Err(DetectorError::Corrupt(format!(
                "shard snapshot frame says {len} payload bytes, buffer holds {}",
                bytes.len() - 12
            )));
        }
        let payload = &bytes[4..4 + len];
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&bytes[4 + len..]);
        let mut h = Fnv64::new();
        h.write(payload);
        if h.finish() != u64::from_le_bytes(stored) {
            return Err(DetectorError::Corrupt("shard snapshot checksum mismatch".into()));
        }
        let mut r = Reader::new(payload);
        match r.u8()? {
            TAG_SNAPSHOT => {}
            other => {
                return Err(DetectorError::Corrupt(format!(
                    "unknown shard snapshot tag {other}"
                )))
            }
        }
        let shard = r.u32()?;
        let m = r.len(4)?;
        let mut members = Vec::with_capacity(m);
        for _ in 0..m {
            members.push(r.u32()?);
        }
        let detector = get_detector(&mut r)?;
        let governor = get_governor(&mut r)?;
        r.done()?;
        Ok(Self {
            shard,
            members,
            detector,
            governor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(window: Vec<f32>, imputed: Vec<bool>) -> StarLane {
        StarLane {
            window,
            imputed,
            status: StarStatus::Nominal,
            score_history: vec![0.5, 0.7],
            breaker: BreakerState::default(),
            adapter: None,
        }
    }

    fn tiny_detector(n: usize, len: usize) -> DetectorState {
        DetectorState {
            timestamps: (0..len).map(|t| t as f64).collect(),
            cadence: 1.0,
            frames_seen: len as u64,
            scored_frames: len as u64,
            threshold: PotThreshold {
                threshold: 1.5,
                initial: 1.2,
                peaks: 7,
                gamma: 0.1,
                sigma: 0.3,
                method: FitMethod::GrimshawMle,
            },
            health: HealthReport::default(),
            sup_stats: SupervisorStats::default(),
            refit_breaker: BreakerState::default(),
            frame_breaker: BreakerState {
                consecutive: 2,
                open: true,
                short_circuited: 5,
            },
            stars: (0..n)
                .map(|v| lane(vec![v as f32; len], vec![false; len]))
                .collect(),
        }
    }

    fn tiny_governor(n: usize) -> GovernorState {
        GovernorState {
            polls: 42,
            polls_since_offer: 3,
            pressure_streak: 1,
            headroom_streak: 0,
            tenant_buckets: vec![(0, 5), (7, 2)],
            stars: (0..n)
                .map(|v| GovernorStarState {
                    level: if v % 2 == 0 {
                        LadderLevel::FullAero
                    } else {
                        LadderLevel::HoldLast
                    },
                    suspect_remaining: v as u64,
                    last_score: v as f32 * 0.1,
                    last_anomalous: v % 3 == 0,
                })
                .collect(),
        }
    }

    fn snapshot() -> ShardSnapshot {
        ShardSnapshot {
            shard: 1,
            members: vec![2, 3],
            detector: tiny_detector(2, 6),
            governor: tiny_governor(2),
        }
    }

    /// Re-frames a payload with a valid length and checksum, so decoding
    /// exercises the field-level bounds checks rather than the checksum.
    fn reframe(payload: &[u8]) -> Vec<u8> {
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(payload);
        let mut h = Fnv64::new();
        h.write(payload);
        framed.extend_from_slice(&h.finish().to_le_bytes());
        framed
    }

    #[test]
    fn snapshot_round_trips_with_and_without_adapters() {
        let plain = snapshot();
        assert_eq!(ShardSnapshot::decode(&plain.encode()).unwrap(), plain);
        let mut adapted = snapshot();
        adapted.detector.stars[1].adapter = Some(crate::adapter::StarAdapter::new(8, 2, 5, 1));
        assert_eq!(ShardSnapshot::decode(&adapted.encode()).unwrap(), adapted);
    }

    #[test]
    fn checksummed_but_malformed_payloads_are_typed_corruption() {
        let bytes = snapshot().encode();
        let payload = &bytes[4..bytes.len() - 8];
        let corrupt = |framed: &[u8]| {
            matches!(ShardSnapshot::decode(framed), Err(DetectorError::Corrupt(_)))
        };
        // Unknown version tag.
        let mut p = payload.to_vec();
        p[0] = 9;
        assert!(corrupt(&reframe(&p)));
        // A hostile member count is refused before allocating.
        let mut p = payload.to_vec();
        p[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(corrupt(&reframe(&p)));
        // Trailing bytes and a cut-off payload.
        let mut p = payload.to_vec();
        p.push(0);
        assert!(corrupt(&reframe(&p)));
        assert!(corrupt(&reframe(&payload[..payload.len() - 1])));
    }
}
