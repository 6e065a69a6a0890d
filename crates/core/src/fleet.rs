//! Shared-nothing detector fleet: sharded isolation domains behind a
//! routing coordinator.
//!
//! One [`StreamGovernor`](crate::overload::StreamGovernor) owning every star
//! of a field is one panic domain, one WAL, one degradation ladder for the
//! whole sky. The fleet splits the catalog across N shards, each a **fully
//! independent failure domain**: its own `OnlineAero` + governor, its own
//! WAL segment directory (`wal/shard-KKKK/`), its own ladder, suspect set,
//! and work budget. The [`FleetCoordinator`] routes each arriving full-sky
//! frame by a deterministic star→shard assignment, polls every shard (one
//! pool shard per fleet shard via
//! [`aero_parallel::supervised_map_mut`]), and rolls per-shard
//! [`HealthReport`]s up into a [`FleetHealth`] snapshot.
//!
//! # Isolation + recovery invariants
//!
//! - A panicking, erroring, or killed shard is dropped and rebuilt from its
//!   own WAL while every other shard keeps streaming untouched; the
//!   surviving shards' verdict streams are bitwise identical to a run where
//!   the kill never happened (gated by `tests/fleet.rs`).
//! - The rebuilt shard resumes **bitwise**: `resume_wal` replays the
//!   recorded offer/poll interleaving, then the coordinator re-executes the
//!   trailing polls it performed after the shard's last offer, restoring
//!   queue, ladder, suspects, and counters exactly. Replayed and re-executed
//!   verdicts are discarded — they were already emitted.
//! - Shard restarts run under a shard-level [`Supervisor`] unit reusing
//!   [`SupervisorPolicy`]: repeated rebuild failures (e.g. a corrupt WAL
//!   directory) trip that shard's breaker and quarantine it — its slice of
//!   each frame is dropped and counted — until the half-open probe schedule
//!   admits a retry. Per-star breakers inside each shard keep their own
//!   (default-off) schedule.
//! - Every shard WAL segment carries a [`WalIdentity`] (shard id + catalog
//!   hash over the member stars), so resuming the wrong directory — or the
//!   right directory under a different partition — fails with a typed
//!   [`DetectorError::WalMismatch`] instead of silently replaying another
//!   shard's frames.
//!
//! # Measured-cost rebalancing
//!
//! The coordinator keeps a per-star cost ledger fed by the work each
//! serviced verdict actually performed (full pipeline > stage-1 > fallback >
//! hold-last > shed). At every `epoch_frames` routed frames it computes a
//! deterministic LPT (longest-processing-time) [`RebalancePlan`] from
//! `(catalog, seed, costs)` and appends it to the coordinator's own plan
//! WAL, so a resumed process replays the identical plan sequence. By
//! default plans are **advisory during the night** — they are applied when
//! the fleet is next rebuilt, via [`ShardAssignment::from_plan`].
//!
//! # Live migration (`migrate_live`)
//!
//! With [`FleetConfig::migrate_live`] set, the coordinator applies each
//! plan *mid-night* through a WAL-fenced two-phase handoff (DESIGN.md §16):
//! every shard whose membership changes is **fenced** (queue drained with
//! shedding and the ladder frozen — an administrative drain is not load),
//! its full per-star state is snapshotted into a
//! [`MigrationBegin`](crate::migrate::MigrationBegin) record appended to
//! `wal/fleet-plan/migrations.log`, replacement shards are built for the
//! new membership (moved stars' windows aligned onto their destination's
//! timestamps), each gets a fresh **epoch-versioned** WAL directory
//! (`shard-KKKK-eEEEE`) and identity, and a
//! [`MigrationCommit`](crate::migrate::MigrationCommit) record plus
//! per-directory commit markers make the flip durable before routing
//! switches in memory. Fence-drained verdicts are handed to the caller
//! from a per-shard hold-out queue on subsequent polls, so no verdict is
//! lost or duplicated across the handoff.
//!
//! Recovery ([`FleetCoordinator::resume`]) re-derives the whole night from
//! the logs alone: a trailing `Begin` without its `Commit` is rolled back
//! (partial epoch directories deleted, the migration re-executes on the
//! next poll), committed migrations are rolled forward from their recorded
//! snapshots, and each shard's directory chain is replayed
//! segment-by-segment — so a process killed at *any* instant of a handoff
//! resumes with verdict streams, health counters, and the final assignment
//! bitwise identical to a night where the kill never happened (gated by
//! `tests/migration.rs`).

// Streaming modules run unattended for whole nights; a stray `unwrap` is a
// latent crash, so the lint gate forbids them outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use aero_parallel::supervised_map_mut;

use crate::detector::{DetectorError, DetectorResult};
use crate::migrate::{
    self, DetectorState, GovernorState, MigrationBegin, MigrationCommit, MigrationKillPoint,
    MigrationRecord, ShardSnapshot,
};
use crate::online::{HealthReport, OnlineAero};
use crate::overload::{
    Admission, FallbackScorer, GovernedVerdict, LadderLevel, OverloadPolicy, PriorityClass,
    StreamGovernor,
};
use crate::persist::Fnv64;
use crate::supervisor::{Supervisor, SupervisorPolicy, SupervisorStats};
use crate::wal::{WalConfig, WalIdentity, WalRecovery, WalWriter};

/// The star catalog a fleet serves: one stable `u64` id per star, in frame
/// (variate) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarCatalog {
    ids: Vec<u64>,
}

impl StarCatalog {
    /// A catalog of `n` stars with sequential ids `0..n` — the synthetic
    /// nights' convention, where star id == variate index.
    pub fn sequential(n: usize) -> Self {
        Self {
            ids: (0..n as u64).collect(),
        }
    }

    /// A catalog from explicit ids. Ids must be unique: two stars sharing an
    /// id would hash to the same routing key and alias in rebalance plans.
    pub fn from_ids(ids: Vec<u64>) -> DetectorResult<Self> {
        let mut seen = ids.clone();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err(DetectorError::Invalid(
                "star catalog contains duplicate ids".into(),
            ));
        }
        Ok(Self { ids })
    }

    /// Number of stars.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The star ids in variate order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// FNV-1a hash over the whole catalog (count + every id, in order).
    pub fn hash(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(&(self.ids.len() as u64).to_le_bytes());
        for &id in &self.ids {
            h.write(&id.to_le_bytes());
        }
        h.finish()
    }
}

/// Mixes a star id with the fleet seed into a routing key.
fn routing_key(seed: u64, id: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(&seed.to_le_bytes());
    h.write(&id.to_le_bytes());
    h.finish()
}

/// A deterministic star→shard assignment.
///
/// Constructed by [`partition`](Self::partition) (seeded, cost-blind, sizes
/// differing by at most one) or [`rebalance`](Self::rebalance) (LPT greedy
/// over measured costs). Both are pure functions of their inputs — no clock,
/// no thread count, no iteration-order dependence — which is what lets a
/// resumed or re-thread-counted run reproduce the identical plan stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    num_shards: usize,
    /// `shard_of[star] = shard`.
    shard_of: Vec<usize>,
    /// Per-shard member stars, ascending — the shard's local variate order.
    members: Vec<Vec<usize>>,
    /// 0 for the initial partition; rebalance plans count up from 1.
    epoch: u64,
}

impl ShardAssignment {
    fn validate_shape(catalog: &StarCatalog, num_shards: usize) -> DetectorResult<()> {
        if num_shards == 0 {
            return Err(DetectorError::Invalid("fleet needs at least one shard".into()));
        }
        if num_shards > catalog.len() {
            return Err(DetectorError::Invalid(format!(
                "{} shards over {} stars: every shard must own at least one star",
                num_shards,
                catalog.len()
            )));
        }
        Ok(())
    }

    fn from_shard_of_unchecked(num_shards: usize, shard_of: Vec<usize>, epoch: u64) -> Self {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for (star, &shard) in shard_of.iter().enumerate() {
            members[shard].push(star);
        }
        Self {
            num_shards,
            shard_of,
            members,
            epoch,
        }
    }

    /// The initial (cost-blind) partition: stars are ordered by their seeded
    /// routing key and dealt round-robin, so shard sizes differ by at most
    /// one and the assignment is a pure function of `(catalog, seed,
    /// num_shards)`.
    pub fn partition(
        catalog: &StarCatalog,
        num_shards: usize,
        seed: u64,
    ) -> DetectorResult<Self> {
        Self::validate_shape(catalog, num_shards)?;
        let mut order: Vec<usize> = (0..catalog.len()).collect();
        order.sort_by_key(|&star| (routing_key(seed, catalog.ids[star]), catalog.ids[star]));
        let mut shard_of = vec![0usize; catalog.len()];
        for (pos, &star) in order.iter().enumerate() {
            shard_of[star] = pos % num_shards;
        }
        Ok(Self::from_shard_of_unchecked(num_shards, shard_of, 0))
    }

    /// A measured-cost rebalance plan: stars are ordered by `(cost desc,
    /// routing key, id)` and each is assigned to the currently lightest
    /// shard (ties to the lowest shard index) — the classic LPT greedy.
    /// Costs are floored at one unit so an idle star still occupies a slot
    /// and no shard can end up empty. Deterministic in `(catalog, seed,
    /// costs)`.
    pub fn rebalance(
        catalog: &StarCatalog,
        num_shards: usize,
        seed: u64,
        costs: &[u64],
        epoch: u64,
    ) -> DetectorResult<Self> {
        Self::validate_shape(catalog, num_shards)?;
        if costs.len() != catalog.len() {
            return Err(DetectorError::Invalid(format!(
                "cost ledger has {} entries for {} stars",
                costs.len(),
                catalog.len()
            )));
        }
        let mut order: Vec<usize> = (0..catalog.len()).collect();
        order.sort_by_key(|&star| {
            (
                std::cmp::Reverse(costs[star].max(1)),
                routing_key(seed, catalog.ids[star]),
                catalog.ids[star],
            )
        });
        let mut loads = vec![0u64; num_shards];
        let mut shard_of = vec![0usize; catalog.len()];
        for &star in &order {
            let mut lightest = 0usize;
            for (k, &load) in loads.iter().enumerate() {
                if load < loads[lightest] {
                    lightest = k;
                }
            }
            shard_of[star] = lightest;
            loads[lightest] += costs[star].max(1);
        }
        Ok(Self::from_shard_of_unchecked(num_shards, shard_of, epoch))
    }

    /// Rebuilds an assignment from a recorded plan (`shard_of` vector), e.g.
    /// when applying the previous night's final rebalance plan to the next
    /// fleet construction.
    pub fn from_plan(
        catalog: &StarCatalog,
        num_shards: usize,
        shard_of: Vec<usize>,
        epoch: u64,
    ) -> DetectorResult<Self> {
        Self::validate_shape(catalog, num_shards)?;
        if shard_of.len() != catalog.len() {
            return Err(DetectorError::Invalid(format!(
                "plan covers {} stars, catalog has {}",
                shard_of.len(),
                catalog.len()
            )));
        }
        if let Some(&bad) = shard_of.iter().find(|&&s| s >= num_shards) {
            return Err(DetectorError::Invalid(format!(
                "plan names shard {bad} of {num_shards}"
            )));
        }
        Ok(Self::from_shard_of_unchecked(num_shards, shard_of, epoch))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Which shard owns `star`.
    pub fn shard_of(&self, star: usize) -> usize {
        self.shard_of[star]
    }

    /// The full star→shard vector.
    pub fn shard_map(&self) -> &[usize] {
        &self.shard_of
    }

    /// Shard `k`'s member stars, ascending (its local variate order).
    pub fn members(&self, shard: usize) -> &[usize] {
        &self.members[shard]
    }

    /// The plan epoch this assignment came from (0 = initial partition).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// FNV-1a fingerprint of the assignment (epoch + shard map), used by the
    /// determinism gates to compare plans across runs cheaply.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(&self.epoch.to_le_bytes());
        h.write(&(self.num_shards as u64).to_le_bytes());
        for &s in &self.shard_of {
            h.write(&(s as u64).to_le_bytes());
        }
        h.finish()
    }

    /// The WAL identity of shard `k` under this assignment: the shard index
    /// plus a hash binding the catalog *and* the shard's exact membership,
    /// so a WAL recorded under any other partition is rejected on resume.
    pub fn shard_identity(&self, catalog: &StarCatalog, shard: usize) -> WalIdentity {
        let mut h = Fnv64::new();
        h.write(&catalog.hash().to_le_bytes());
        h.write(&(self.members[shard].len() as u64).to_le_bytes());
        for &star in &self.members[shard] {
            h.write(&catalog.ids[star].to_le_bytes());
        }
        WalIdentity {
            shard_id: shard as u32,
            catalog_hash: h.finish(),
        }
    }

    /// [`shard_identity`](Self::shard_identity) versioned by migration
    /// epoch: equal to the plain identity at epoch 0 (the PR-stable on-disk
    /// format), and mixing the epoch into the hash afterwards — so a star
    /// migrated away and later migrated *back* still gets a fresh identity
    /// (no ABA: the old directory can never be mistaken for the new one).
    pub fn shard_identity_at(
        &self,
        catalog: &StarCatalog,
        shard: usize,
        epoch: u64,
    ) -> WalIdentity {
        let base = self.shard_identity(catalog, shard);
        if epoch == 0 {
            return base;
        }
        let mut h = Fnv64::new();
        h.write(&base.catalog_hash.to_le_bytes());
        h.write(&epoch.to_le_bytes());
        WalIdentity {
            shard_id: base.shard_id,
            catalog_hash: h.finish(),
        }
    }
}

/// Identity stamped on the coordinator's own plan log (not a star shard).
fn plan_log_identity(catalog: &StarCatalog) -> WalIdentity {
    WalIdentity {
        shard_id: u32::MAX,
        catalog_hash: catalog.hash(),
    }
}

/// One recorded rebalance decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Epoch number (1-based; epoch `e` triggers once `e * epoch_frames`
    /// frames have been routed).
    pub epoch: u64,
    /// The planned star→shard vector.
    pub shard_of: Vec<usize>,
    /// [`ShardAssignment::fingerprint`] of the planned assignment.
    pub fingerprint: u64,
}

/// Builds one shard's detector over the given member stars (global variate
/// indices, ascending). Called at fleet construction and again on every
/// restart, so it must be deterministic: same members, same bits — train
/// from the same calibration slice or load the same checkpoint.
pub type ShardFactory = Arc<dyn Fn(&[usize]) -> DetectorResult<OnlineAero> + Send + Sync>;

/// Fleet-level configuration.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Seed for the routing keys (partition + rebalance tie-breaks).
    pub seed: u64,
    /// Per-shard overload policy (each shard gets its own queue + ladder).
    pub overload: OverloadPolicy,
    /// Shard-level supervision: restart retries, breaker threshold, and the
    /// half-open probe schedule for quarantined shards.
    pub shard_supervision: SupervisorPolicy,
    /// Compute a rebalance plan every this many routed frames (0 disables).
    pub epoch_frames: usize,
    /// Root WAL directory; shard `k` logs under `<root>/shard-KKKK/` and the
    /// coordinator's plan log under `<root>/fleet-plan/`. `None` runs
    /// without WALs (restarts then lose shard state instead of resuming).
    pub wal_root: Option<PathBuf>,
    /// Segment/fsync configuration shared by every per-shard WAL (the
    /// per-shard [`WalIdentity`] is filled in by the coordinator).
    pub wal: WalConfig,
    /// Apply rebalance plans mid-night through the WAL-fenced two-phase
    /// handoff (see the module docs) instead of leaving them advisory.
    /// Default `false`: plans only take effect at the next fleet build.
    pub migrate_live: bool,
    /// Chaos injection for the migration test harness: abort with a typed
    /// error at the given [`MigrationKillPoint`] of the given plan epoch's
    /// handoff, simulating `kill -9` at that phase boundary. The
    /// coordinator is not usable afterwards — drop it and
    /// [`resume`](FleetCoordinator::resume), exactly as a crashed process
    /// would.
    pub chaos_migration_kill: Option<(u64, MigrationKillPoint)>,
}

/// A shard's lifecycle state as the coordinator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Streaming normally.
    Running,
    /// Dead (panic, error, or chaos kill); restart pending.
    Down,
    /// Shard-level breaker open: restarts short-circuit until the half-open
    /// probe schedule admits one.
    Quarantined,
}

impl ShardState {
    /// Stable lowercase label (JSON summaries, operator tables).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Running => "running",
            Self::Down => "down",
            Self::Quarantined => "quarantined",
        }
    }
}

/// One shard's slice of a [`FleetHealth`] rollup.
#[derive(Debug, Clone)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Lifecycle state.
    pub state: ShardState,
    /// Stars the shard owns.
    pub stars: usize,
    /// Verdicts emitted to the fleet caller so far.
    pub emitted: usize,
    /// Current admission-queue depth (0 while down).
    pub queue_depth: usize,
    /// Frame slices this shard dropped while down (this process's run —
    /// lost frames are in no WAL, so a resume restarts the count).
    pub frames_lost: usize,
    /// Last failure message, if the shard ever died.
    pub last_error: Option<String>,
    /// The shard detector's own health report (last snapshot while down).
    pub health: HealthReport,
}

/// Fleet-wide health rollup: per-shard snapshots plus aggregate counters.
#[derive(Debug, Clone)]
pub struct FleetHealth {
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardHealth>,
    /// Full-sky frames routed (offered) so far.
    pub frames_routed: usize,
    /// Successful shard restarts.
    pub shard_restarts: usize,
    /// Shard deaths (panic, error, chaos kill).
    pub shard_failures: usize,
    /// Shards currently not running.
    pub shards_down: usize,
    /// Per-shard frame slices dropped because the owning shard was down.
    pub frames_lost: usize,
    /// Rebalance plans recorded so far.
    pub rebalance_plans: usize,
    /// Stars re-homed by committed live migrations (cumulative; rebuilt
    /// from the migration log on resume).
    pub stars_moved: usize,
    /// Half-finished migrations rolled back by [`FleetCoordinator::resume`]
    /// (this process's run; an uninterrupted night reports 0).
    pub migrations_rolled_back: usize,
    /// Shard-level supervisor counters (restarts, breaker, probes).
    pub supervisor: SupervisorStats,
    /// Sum of every shard's [`HealthReport`] (see [`HealthReport::absorb`]).
    pub aggregate: HealthReport,
}

/// What [`FleetCoordinator::resume`] recovered.
#[derive(Debug, Clone)]
pub struct FleetResume {
    /// Per-shard replayed verdicts (already emitted by the crashed process;
    /// callers deduplicate against previously-written output).
    pub replayed: Vec<Vec<GovernedVerdict>>,
    /// Per-shard WAL recovery summaries.
    pub recoveries: Vec<WalRecovery>,
    /// Full-sky frames the crashed process had routed (max over shards, so
    /// a shard that died early does not shrink the resume point).
    pub frames_routed: usize,
    /// Rebalance plans recovered from the coordinator's plan log.
    pub plans_recovered: usize,
}

/// Work units one serviced star-verdict charges to the cost ledger, by the
/// pipeline rung that actually ran. Suspects are pinned to the full
/// pipeline whatever the ladder says, and a shed star did no work at all.
fn star_cost(shed: bool, class: PriorityClass, level: LadderLevel) -> u64 {
    if shed {
        return 0;
    }
    if class == PriorityClass::Suspect {
        return 8;
    }
    match level {
        LadderLevel::FullAero => 8,
        LadderLevel::Stage1Only => 4,
        LadderLevel::SrFallback => 2,
        LadderLevel::HoldLast => 1,
    }
}

/// Stars whose owning shard differs between two assignments.
fn moved_stars(old: &[usize], new: &[usize]) -> usize {
    old.iter().zip(new).filter(|(a, b)| a != b).count()
}

/// Accumulates one directory's recovery summary into a shard's chain total
/// (a migrated shard replays several directories on resume).
fn absorb_recovery(into: &mut WalRecovery, r: WalRecovery) {
    into.frames += r.frames;
    into.segments += r.segments;
    into.truncated |= r.truncated;
    into.dropped_bytes += r.dropped_bytes;
    into.dropped_segments += r.dropped_segments;
}

/// Routes full-sky frames across a fleet of shared-nothing shard detectors,
/// isolating faults and rolling health up. See the module docs for the
/// model; `core/tests/fleet.rs` holds the chaos harness.
pub struct FleetCoordinator {
    catalog: StarCatalog,
    assignment: ShardAssignment,
    factory: ShardFactory,
    fallback: Option<FallbackScorer>,
    config: FleetConfig,
    /// `None` while a shard is down or quarantined.
    shards: Vec<Option<StreamGovernor>>,
    states: Vec<ShardState>,
    last_errors: Vec<Option<String>>,
    /// Health snapshot taken when a shard dies (reported while down).
    last_health: Vec<HealthReport>,
    /// Verdicts emitted to the caller, per shard.
    emitted: Vec<usize>,
    /// Poll calls since the shard's last accepted offer — exactly what a
    /// bitwise restart must re-execute after WAL replay (the WAL's
    /// interleaving metadata only covers polls *before* each offer).
    trailing_polls: Vec<usize>,
    /// Per-star measured cost ledger (global variate order).
    costs: Vec<u64>,
    /// One supervisor unit per shard (restart retries + breaker + probes).
    supervisor: Supervisor,
    plan_log: Option<WalWriter>,
    plans: Vec<RebalancePlan>,
    frames_routed: usize,
    shard_restarts: usize,
    shard_failures: usize,
    frames_lost: usize,
    /// Per-shard slice of `frames_lost` (same increments, per owner).
    frames_lost_per_shard: Vec<usize>,
    /// Plan epoch of each shard's last membership change (0 = never
    /// migrated); selects the shard's WAL directory and identity.
    shard_epochs: Vec<u64>,
    /// Fence-drained verdicts awaiting emission: after a migration the
    /// caller receives these (one per poll round, FIFO) before the new
    /// shard is polled, so the handoff neither drops nor reorders output.
    pending_out: Vec<VecDeque<GovernedVerdict>>,
    /// Post-migration rebuild seed: the merged snapshot a shard restart
    /// must re-install before replaying its current epoch directory.
    seeds: Vec<Option<Arc<(DetectorState, GovernorState)>>>,
    /// Plans already applied live (prefix of `plans`).
    migrations_done: usize,
    stars_moved: usize,
    migrations_rolled_back: usize,
}

impl std::fmt::Debug for FleetCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetCoordinator")
            .field("shards", &self.assignment.num_shards())
            .field("stars", &self.catalog.len())
            .field("frames_routed", &self.frames_routed)
            .finish_non_exhaustive()
    }
}

/// `<root>/shard-KKKK` — one WAL directory per shard, zero-padded so a
/// directory listing sorts in shard order.
pub fn shard_wal_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:04}"))
}

/// Epoch-versioned shard WAL directory: `shard-KKKK` for epoch 0 (the
/// pre-migration layout, unchanged on disk) and `shard-KKKK-eEEEE` after a
/// live migration re-homed the shard at plan epoch `e`. Superseded
/// directories are kept — [`FleetCoordinator::resume`] replays the whole
/// chain — so live migration trades disk for crash-safety; prune old
/// epochs only after archiving a night.
pub fn shard_epoch_wal_dir(root: &Path, shard: usize, epoch: u64) -> PathBuf {
    if epoch == 0 {
        shard_wal_dir(root, shard)
    } else {
        root.join(format!("shard-{shard:04}-e{epoch:04}"))
    }
}

/// `<root>/fleet-plan` — the coordinator's rebalance-plan log.
pub fn plan_wal_dir(root: &Path) -> PathBuf {
    root.join("fleet-plan")
}

impl FleetCoordinator {
    /// Builds a fleet over `catalog` with `assignment`, constructing every
    /// shard through `factory` and creating fresh per-shard WALs under
    /// [`FleetConfig::wal_root`] (directories must be empty; use
    /// [`resume`](Self::resume) for continuation).
    pub fn new(
        catalog: StarCatalog,
        assignment: ShardAssignment,
        factory: ShardFactory,
        fallback: Option<FallbackScorer>,
        config: FleetConfig,
    ) -> DetectorResult<Self> {
        let mut fleet = Self::skeleton(catalog, assignment, factory, fallback, config)?;
        for k in 0..fleet.assignment.num_shards() {
            let mut gov = fleet.build_shard(k)?;
            if let Some(root) = fleet.config.wal_root.clone() {
                let wal_config = fleet.shard_wal_config(k);
                let wal = WalWriter::create(&shard_wal_dir(&root, k), wal_config)?;
                gov.attach_wal(wal)?;
            }
            fleet.shards[k] = Some(gov);
            fleet.states[k] = ShardState::Running;
        }
        if let Some(root) = fleet.config.wal_root.clone() {
            if fleet.config.epoch_frames > 0 {
                let cfg = WalConfig {
                    identity: plan_log_identity(&fleet.catalog),
                    ..fleet.config.wal
                };
                fleet.plan_log = Some(WalWriter::create(&plan_wal_dir(&root), cfg)?);
            }
        }
        Ok(fleet)
    }

    /// Resumes a fleet from its per-shard WALs, plan log, and migration
    /// log. Pass the **initial** (epoch-0) `assignment` the night started
    /// with — committed live migrations are rolled forward from the logs
    /// and the returned fleet ends on the correct post-migration
    /// assignment.
    ///
    /// Reconstruction order: recorded plans are re-read (never recomputed);
    /// a trailing `Begin` without its `Commit` is rolled back (its partial
    /// epoch directories deleted, the log truncated — the handoff
    /// re-executes on the next poll); then every shard's directory chain is
    /// replayed segment by segment, re-deriving each committed migration's
    /// fence drain and merged snapshot install along the way. Queue,
    /// ladder, counters, and the cost ledger all land bitwise on the
    /// crashed process's state.
    pub fn resume(
        catalog: StarCatalog,
        assignment: ShardAssignment,
        factory: ShardFactory,
        fallback: Option<FallbackScorer>,
        config: FleetConfig,
    ) -> DetectorResult<(Self, FleetResume)> {
        let Some(root) = config.wal_root.clone() else {
            return Err(DetectorError::Invalid(
                "fleet resume needs a WAL root (the fleet ran without one)".into(),
            ));
        };
        let mut fleet = Self::skeleton(catalog, assignment, factory, fallback, config)?;
        let num_shards = fleet.assignment.num_shards();
        if fleet.config.epoch_frames > 0 {
            let cfg = WalConfig {
                identity: plan_log_identity(&fleet.catalog),
                ..fleet.config.wal
            };
            let (log, frames, _recovery) = WalWriter::resume(&plan_wal_dir(&root), cfg)?;
            for frame in frames {
                let shard_of: Vec<usize> = frame.values.iter().map(|&v| v as usize).collect();
                let plan = ShardAssignment::from_plan(
                    &fleet.catalog,
                    num_shards,
                    shard_of,
                    u64::from(frame.meta),
                )?;
                fleet.plans.push(RebalancePlan {
                    epoch: plan.epoch(),
                    shard_of: plan.shard_map().to_vec(),
                    fingerprint: plan.fingerprint(),
                });
            }
            fleet.plan_log = Some(log);
        }
        // The migration log: a trailing Begin without its Commit is a
        // half-finished handoff — roll it back to the fence so the night
        // has exactly one deterministic outcome. Everything before it is
        // committed and rolls forward below.
        let plan_dir = plan_wal_dir(&root);
        let mut records = migrate::read_migrations(&plan_dir)?;
        if let Some(last) = records.last() {
            if let MigrationRecord::Begin(b) = &last.record {
                for snap in &b.affected {
                    let dir = shard_epoch_wal_dir(&root, snap.shard as usize, b.epoch);
                    if dir.exists() {
                        std::fs::remove_dir_all(&dir).map_err(|e| {
                            DetectorError::Io(format!(
                                "roll back migration dir {}: {e}",
                                dir.display()
                            ))
                        })?;
                    }
                }
                let offset = last.offset;
                migrate::truncate_migrations(&plan_dir, offset)?;
                fleet.migrations_rolled_back += 1;
                records.pop();
            }
        }
        let mut committed: Vec<MigrationBegin> = Vec::new();
        let mut iter = records.into_iter();
        while let Some(rec) = iter.next() {
            let MigrationRecord::Begin(b) = rec.record else {
                return Err(DetectorError::Corrupt(
                    "migration log: Commit without a preceding Begin".into(),
                ));
            };
            match iter.next().map(|r| r.record) {
                Some(MigrationRecord::Commit(c)) if c.epoch == b.epoch => committed.push(b),
                _ => {
                    return Err(DetectorError::Corrupt(format!(
                        "migration log: Begin epoch {} not followed by its Commit",
                        b.epoch
                    )))
                }
            }
        }
        // Segment-by-segment replay of every shard's directory chain,
        // starting from the epoch-0 layout the caller's assignment
        // describes.
        let mut replayed: Vec<Vec<GovernedVerdict>> = vec![Vec::new(); num_shards];
        let mut recoveries: Vec<WalRecovery> = vec![WalRecovery::default(); num_shards];
        let mut total_frames = vec![0usize; num_shards];
        for k in 0..num_shards {
            let online = fleet.build_online(k)?;
            let (gov, verdicts, recovery) = StreamGovernor::resume_wal(
                online,
                fleet.config.overload.clone(),
                fleet.fallback.clone(),
                &shard_wal_dir(&root, k),
                fleet.shard_wal_config(k),
            )?;
            total_frames[k] += recovery.frames;
            absorb_recovery(&mut recoveries[k], recovery);
            for v in &verdicts {
                fleet.charge_costs(k, v);
            }
            replayed[k].extend(verdicts);
            fleet.shards[k] = Some(gov);
            fleet.states[k] = ShardState::Running;
        }
        for begin in &committed {
            let epoch = begin.epoch;
            let shard_of: Vec<usize> = begin.shard_of.iter().map(|&s| s as usize).collect();
            let planned = ShardAssignment::from_plan(&fleet.catalog, num_shards, shard_of, epoch)?;
            let old_shard_of: Vec<usize> = fleet.assignment.shard_map().to_vec();
            // The live fence ran at the first poll after the epoch-boundary
            // offer — zero unfenced polls in between — so a full fenced
            // drain of the replayed shard reproduces it bitwise.
            for snap in &begin.affected {
                let k = snap.shard as usize;
                let drained = match fleet.shards[k].as_mut() {
                    Some(gov) => gov.drain_fenced()?,
                    None => {
                        return Err(DetectorError::Corrupt(format!(
                            "migration epoch {epoch} names shard {k}, which is not live"
                        )))
                    }
                };
                for v in &drained {
                    fleet.charge_costs(k, v);
                }
                replayed[k].extend(drained);
            }
            // Roll forward: rebuild each affected shard from the recorded
            // snapshots (exactly the live commit's derivation), then replay
            // its new epoch directory before the next migration's fence.
            for snap in &begin.affected {
                let k = snap.shard as usize;
                let new_members = planned.members(k).to_vec();
                let (det, gov_state) =
                    migrate::merge_shard_state(begin, &old_shard_of, k, &new_members)?;
                let seed = Arc::new((det, gov_state));
                let online = fleet.build_online_members(&new_members)?;
                let mut gov = Self::seeded_governor(
                    online,
                    &fleet.config.overload,
                    &fleet.fallback,
                    &seed,
                )?;
                let dir = shard_epoch_wal_dir(&root, k, epoch);
                let identity = planned.shard_identity_at(&fleet.catalog, k, epoch);
                // The marker is advisory (the log is authoritative):
                // validate it when present, restore it when the crash beat
                // the marker write.
                let members_u32: Vec<u32> = new_members.iter().map(|&s| s as u32).collect();
                match migrate::read_commit_marker(&dir, Some(identity))? {
                    Some((marker_epoch, _, _)) if marker_epoch != epoch => {
                        return Err(DetectorError::Corrupt(format!(
                            "commit marker in {} names epoch {marker_epoch}, log says {epoch}",
                            dir.display()
                        )));
                    }
                    Some(_) => {}
                    None => migrate::write_commit_marker(&dir, epoch, identity, &members_u32)?,
                }
                let wal_config = WalConfig {
                    identity,
                    ..fleet.config.wal
                };
                let (verdicts, recovery) = gov.resume_wal_into(&dir, wal_config)?;
                total_frames[k] += recovery.frames;
                absorb_recovery(&mut recoveries[k], recovery);
                for v in &verdicts {
                    fleet.charge_costs_members(&new_members, v);
                }
                replayed[k].extend(verdicts);
                fleet.shards[k] = Some(gov);
                fleet.seeds[k] = Some(seed);
                fleet.shard_epochs[k] = epoch;
            }
            fleet.stars_moved += moved_stars(fleet.assignment.shard_map(), planned.shard_map());
            fleet.assignment = planned;
            fleet.migrations_done += 1;
        }
        for k in 0..num_shards {
            fleet.emitted[k] = replayed[k].len();
            fleet.frames_routed = fleet.frames_routed.max(total_frames[k]);
        }
        let resume = FleetResume {
            frames_routed: fleet.frames_routed,
            plans_recovered: fleet.plans.len(),
            replayed,
            recoveries,
        };
        Ok((fleet, resume))
    }

    fn skeleton(
        catalog: StarCatalog,
        assignment: ShardAssignment,
        factory: ShardFactory,
        fallback: Option<FallbackScorer>,
        config: FleetConfig,
    ) -> DetectorResult<Self> {
        if assignment.shard_map().len() != catalog.len() {
            return Err(DetectorError::Invalid(format!(
                "assignment covers {} stars, catalog has {}",
                assignment.shard_map().len(),
                catalog.len()
            )));
        }
        config.overload.validate().map_err(DetectorError::Invalid)?;
        let num_shards = assignment.num_shards();
        let supervisor = Supervisor::new(config.shard_supervision.clone(), num_shards);
        Ok(Self {
            costs: vec![0; catalog.len()],
            catalog,
            assignment,
            factory,
            fallback,
            config,
            shards: (0..num_shards).map(|_| None).collect(),
            states: vec![ShardState::Down; num_shards],
            last_errors: vec![None; num_shards],
            last_health: vec![HealthReport::default(); num_shards],
            emitted: vec![0; num_shards],
            trailing_polls: vec![0; num_shards],
            supervisor,
            plan_log: None,
            plans: Vec::new(),
            frames_routed: 0,
            shard_restarts: 0,
            shard_failures: 0,
            frames_lost: 0,
            frames_lost_per_shard: vec![0; num_shards],
            shard_epochs: vec![0; num_shards],
            pending_out: (0..num_shards).map(|_| VecDeque::new()).collect(),
            seeds: vec![None; num_shards],
            migrations_done: 0,
            stars_moved: 0,
            migrations_rolled_back: 0,
        })
    }

    fn shard_wal_config(&self, shard: usize) -> WalConfig {
        WalConfig {
            identity: self.assignment.shard_identity_at(
                &self.catalog,
                shard,
                self.shard_epochs[shard],
            ),
            ..self.config.wal
        }
    }

    /// Builds shard `k`'s detector via the factory and validates its width.
    fn build_online(&self, shard: usize) -> DetectorResult<OnlineAero> {
        self.build_online_members(self.assignment.members(shard))
    }

    /// Builds a detector over an explicit member set — the migration path
    /// constructs shards for a membership the live assignment does not have
    /// yet.
    fn build_online_members(&self, members: &[usize]) -> DetectorResult<OnlineAero> {
        let online = (self.factory)(members)?;
        if online.num_variates() != members.len() {
            return Err(DetectorError::Invalid(format!(
                "factory built {} variates for {} member stars",
                online.num_variates(),
                members.len()
            )));
        }
        Ok(online)
    }

    fn build_shard(&self, shard: usize) -> DetectorResult<StreamGovernor> {
        let online = self.build_online(shard)?;
        let mut gov = StreamGovernor::with_policy(online, self.config.overload.clone())?;
        gov.set_fallback(self.fallback.clone());
        Ok(gov)
    }

    /// Installs a merged migration snapshot into a factory-fresh detector
    /// and wraps it in a governor — the common core of the live commit, the
    /// post-migration shard restart, and the resume roll-forward. Clock
    /// install precedes lane install: the suspect-countdown rebase is
    /// relative to the governor's poll clock.
    fn seeded_governor(
        online: OnlineAero,
        overload: &OverloadPolicy,
        fallback: &Option<FallbackScorer>,
        seed: &(DetectorState, GovernorState),
    ) -> DetectorResult<StreamGovernor> {
        let mut online = online;
        online.install_migration(&seed.0)?;
        let mut gov = StreamGovernor::with_policy(online, overload.clone())?;
        gov.set_fallback(fallback.clone());
        gov.install_clocks(&seed.1);
        let mapping: Vec<(usize, usize)> = (0..seed.1.stars.len()).map(|i| (i, i)).collect();
        gov.install_migration(&seed.1, &mapping)?;
        Ok(gov)
    }

    /// Rebuilds a dead shard to its exact pre-death state: factory, seed
    /// snapshot (when the shard has been migrated this night), WAL replay
    /// of its current epoch directory, then re-execution of the
    /// coordinator's trailing polls. Runs as an associated function so the
    /// supervisor closure borrows nothing from `self`.
    #[allow(clippy::too_many_arguments)]
    fn rebuild_shard(
        factory: &ShardFactory,
        members: &[usize],
        overload: &OverloadPolicy,
        fallback: &Option<FallbackScorer>,
        wal_dir: Option<&Path>,
        wal_config: WalConfig,
        trailing_polls: usize,
        seed: Option<&(DetectorState, GovernorState)>,
    ) -> DetectorResult<StreamGovernor> {
        let online = factory(members)?;
        if online.num_variates() != members.len() {
            return Err(DetectorError::Invalid(format!(
                "factory built {} variates for {} member stars",
                online.num_variates(),
                members.len()
            )));
        }
        let mut gov = match seed {
            Some(seed) => Self::seeded_governor(online, overload, fallback, seed)?,
            None => {
                let mut gov = StreamGovernor::with_policy(online, overload.clone())?;
                gov.set_fallback(fallback.clone());
                gov
            }
        };
        if let Some(dir) = wal_dir {
            // The replayed verdicts and these trailing re-polls were all
            // emitted before the death; discard them so the caller's
            // stream continues without duplicates.
            let (_replayed, _recovery) = gov.resume_wal_into(dir, wal_config)?;
            for _ in 0..trailing_polls {
                gov.poll()?;
            }
        }
        // Without a WAL the restart is a cold start from the seed (or from
        // scratch); isolation still holds, the stream is not bitwise.
        Ok(gov)
    }

    /// Marks shard `k` dead, snapshotting its health for reporting.
    fn fail_shard(&mut self, shard: usize, reason: String) {
        if let Some(gov) = self.shards[shard].take() {
            self.last_health[shard] = gov.online().health().clone();
        }
        self.states[shard] = ShardState::Down;
        self.last_errors[shard] = Some(reason);
        self.shard_failures += 1;
    }

    /// Attempts to bring a dead shard back under the shard-level supervisor:
    /// retries with backoff, then the breaker opens and only the half-open
    /// probe schedule admits further attempts (state `Quarantined`).
    fn ensure_running(&mut self, shard: usize) {
        if self.shards[shard].is_some() {
            return;
        }
        let factory = Arc::clone(&self.factory);
        let members = self.assignment.members(shard).to_vec();
        let overload = self.config.overload.clone();
        let fallback = self.fallback.clone();
        let root = self.config.wal_root.clone();
        let wal_dir = root
            .as_deref()
            .map(|r| shard_epoch_wal_dir(r, shard, self.shard_epochs[shard]));
        let wal_config = self.shard_wal_config(shard);
        let trailing = self.trailing_polls[shard];
        let seed = self.seeds[shard].clone();
        let outcome = self.supervisor.run(shard, || {
            Self::rebuild_shard(
                &factory,
                &members,
                &overload,
                &fallback,
                wal_dir.as_deref(),
                wal_config,
                trailing,
                seed.as_deref(),
            )
        });
        match outcome {
            Ok(gov) => {
                self.shards[shard] = Some(gov);
                self.states[shard] = ShardState::Running;
                self.last_errors[shard] = None;
                self.shard_restarts += 1;
            }
            Err(e) => {
                self.states[shard] = if self.supervisor.is_open(shard) {
                    ShardState::Quarantined
                } else {
                    ShardState::Down
                };
                self.last_errors[shard] = Some(e.into_detector_error().to_string());
            }
        }
    }

    /// Adds a serviced verdict's measured work to the per-star cost ledger.
    fn charge_costs(&mut self, shard: usize, verdict: &GovernedVerdict) {
        for (local, &star) in self.assignment.members[shard].iter().enumerate() {
            self.costs[star] += star_cost(
                verdict.shed[local],
                verdict.classes[local],
                verdict.levels[local],
            );
        }
    }

    /// [`charge_costs`](Self::charge_costs) against an explicit member set:
    /// resume replays verdicts recorded under memberships the in-flight
    /// reconstruction has not switched to (or has already switched past).
    fn charge_costs_members(&mut self, members: &[usize], verdict: &GovernedVerdict) {
        for (local, &star) in members.iter().enumerate() {
            self.costs[star] += star_cost(
                verdict.shed[local],
                verdict.classes[local],
                verdict.levels[local],
            );
        }
    }

    /// Computes (and logs) any rebalance plan whose epoch boundary the
    /// routed-frame count has crossed. Plans recovered from the log are
    /// never recomputed, so a resumed run continues the identical sequence.
    fn maybe_plan(&mut self) -> DetectorResult<()> {
        let every = self.config.epoch_frames;
        if every == 0 {
            return Ok(());
        }
        while (self.plans.len() as u64 + 1) * every as u64 <= self.frames_routed as u64 {
            let epoch = self.plans.len() as u64 + 1;
            let planned = ShardAssignment::rebalance(
                &self.catalog,
                self.assignment.num_shards(),
                self.config.seed,
                &self.costs,
                epoch,
            )?;
            let plan = RebalancePlan {
                epoch,
                shard_of: planned.shard_map().to_vec(),
                fingerprint: planned.fingerprint(),
            };
            if let Some(log) = self.plan_log.as_mut() {
                let values: Vec<f32> = plan.shard_of.iter().map(|&s| s as f32).collect();
                log.append_with_meta(epoch as f64, &values, epoch as u32)?;
            }
            self.plans.push(plan);
        }
        Ok(())
    }

    /// The chaos hook: aborts the handoff with a typed error at the
    /// configured phase boundary, leaving exactly the on-disk state a
    /// `kill -9` at that instant would. The coordinator must be dropped and
    /// resumed afterwards.
    fn chaos_kill(&self, epoch: u64, point: MigrationKillPoint) -> DetectorResult<()> {
        if self.config.chaos_migration_kill == Some((epoch, point)) {
            return Err(DetectorError::Io(format!(
                "chaos: killed at {point:?} of migration epoch {epoch}"
            )));
        }
        Ok(())
    }

    /// Applies every recorded-but-unapplied plan through the two-phase
    /// handoff, in epoch order. Runs at the top of [`poll`](Self::poll),
    /// immediately after [`maybe_plan`](Self::maybe_plan): the
    /// epoch-boundary offer is always the last record of the superseded
    /// directories, so recovery's fence-drain reproduces the live one
    /// exactly (no unfenced poll can slip between boundary and fence).
    fn maybe_migrate(&mut self) -> DetectorResult<()> {
        if !self.config.migrate_live {
            return Ok(());
        }
        while self.migrations_done < self.plans.len() {
            if !self.execute_migration()? {
                // An affected shard is down/quarantined: defer and retry
                // next poll. Recovery is directory-driven, so the deferral
                // shifts nothing — the fence lands wherever the drain does.
                break;
            }
        }
        Ok(())
    }

    /// Executes the next plan's handoff end to end: fence + snapshot,
    /// durable `Begin`, destination build, durable `Commit` + markers,
    /// in-memory flip. `Ok(false)` defers (an affected shard isn't
    /// running). An `Err` mid-handoff leaves the coordinator unusable —
    /// crash-only by design; drop it and [`resume`](Self::resume).
    fn execute_migration(&mut self) -> DetectorResult<bool> {
        let num_shards = self.assignment.num_shards();
        let plan = &self.plans[self.migrations_done];
        let epoch = plan.epoch;
        let planned =
            ShardAssignment::from_plan(&self.catalog, num_shards, plan.shard_of.clone(), epoch)?;
        let affected: Vec<usize> = (0..num_shards)
            .filter(|&k| self.assignment.members(k) != planned.members(k))
            .collect();
        if affected.is_empty() {
            // The plan re-derives the current assignment: nothing moves,
            // no fence, no new directories.
            self.migrations_done += 1;
            return Ok(true);
        }
        self.chaos_kill(epoch, MigrationKillPoint::PreFence)?;
        for &k in &affected {
            self.ensure_running(k);
            if self.shards[k].is_none() {
                return Ok(false);
            }
        }
        // Phase 1 — fence. Each affected shard drains its in-flight queue
        // under the fence (no shedding, ladder frozen), the drained
        // verdicts move to the hold-out queue (their costs charged now, at
        // their true service point), and the shard's full state is
        // exported.
        let mut snapshots = Vec::with_capacity(affected.len());
        for &k in &affected {
            let drained = match self.shards[k].as_mut() {
                Some(gov) => gov.drain_fenced()?,
                None => return Ok(false),
            };
            for v in &drained {
                self.charge_costs(k, v);
            }
            self.pending_out[k].extend(drained);
            let (detector, governor) = match self.shards[k].as_ref() {
                Some(gov) => (gov.online().export_migration(), gov.export_migration()?),
                None => return Ok(false),
            };
            snapshots.push(ShardSnapshot {
                shard: k as u32,
                members: self
                    .assignment
                    .members(k)
                    .iter()
                    .map(|&s| s as u32)
                    .collect(),
                detector,
                governor,
            });
        }
        self.chaos_kill(epoch, MigrationKillPoint::PostFence)?;
        let record = MigrationRecord::Begin(MigrationBegin {
            epoch,
            frames_routed: self.frames_routed as u64,
            shard_of: planned.shard_map().iter().map(|&s| s as u32).collect(),
            affected: snapshots,
        });
        let root = self.config.wal_root.clone();
        if let Some(root) = &root {
            migrate::append_migration(&plan_wal_dir(root), &record)?;
        }
        let MigrationRecord::Begin(begin) = record else {
            unreachable!()
        };
        // Phase 2 — build each destination: factory model for the new
        // membership, merged snapshot installed (moved stars aligned to the
        // destination's timestamps), fresh epoch-versioned WAL directory.
        let old_shard_of: Vec<usize> = self.assignment.shard_map().to_vec();
        let mut staged = Vec::with_capacity(affected.len());
        for &k in &affected {
            let new_members = planned.members(k).to_vec();
            let (det, gov_state) =
                migrate::merge_shard_state(&begin, &old_shard_of, k, &new_members)?;
            let seed = Arc::new((det, gov_state));
            let online = self.build_online_members(&new_members)?;
            let mut gov =
                Self::seeded_governor(online, &self.config.overload, &self.fallback, &seed)?;
            if let Some(root) = &root {
                let dir = shard_epoch_wal_dir(root, k, epoch);
                if dir.exists() {
                    // Can only be garbage from an attempt that never
                    // committed (a committed epoch advances
                    // `migrations_done` past this plan), so clear it.
                    std::fs::remove_dir_all(&dir).map_err(|e| {
                        DetectorError::Io(format!(
                            "clear stale migration dir {}: {e}",
                            dir.display()
                        ))
                    })?;
                }
                let wal_config = WalConfig {
                    identity: planned.shard_identity_at(&self.catalog, k, epoch),
                    ..self.config.wal
                };
                let wal = WalWriter::create(&dir, wal_config)?;
                gov.attach_wal(wal)?;
            }
            staged.push((k, gov, seed));
        }
        self.chaos_kill(epoch, MigrationKillPoint::PreCommit)?;
        // Phase 3 — commit: the durable decision record, then a marker in
        // every new directory binding it to its epoch and identity.
        if let Some(root) = &root {
            migrate::append_migration(
                &plan_wal_dir(root),
                &MigrationRecord::Commit(MigrationCommit { epoch }),
            )?;
            for &k in &affected {
                let members: Vec<u32> = planned.members(k).iter().map(|&s| s as u32).collect();
                migrate::write_commit_marker(
                    &shard_epoch_wal_dir(root, k, epoch),
                    epoch,
                    planned.shard_identity_at(&self.catalog, k, epoch),
                    &members,
                )?;
            }
        }
        self.chaos_kill(epoch, MigrationKillPoint::PostCommit)?;
        // Flip — atomic in memory. Replaced governors (and their sealed
        // WAL handles) drop here; the superseded directories stay on disk
        // for recovery replay.
        for (k, gov, seed) in staged {
            self.shards[k] = Some(gov);
            self.states[k] = ShardState::Running;
            self.last_errors[k] = None;
            self.shard_epochs[k] = epoch;
            self.seeds[k] = Some(seed);
            self.trailing_polls[k] = 0;
        }
        self.stars_moved += moved_stars(self.assignment.shard_map(), planned.shard_map());
        self.assignment = planned;
        self.migrations_done += 1;
        Ok(true)
    }

    /// Routes one full-sky frame: each shard receives its member stars'
    /// slice. A dead shard is first offered a restart; if it stays down its
    /// slice is dropped and counted ([`FleetHealth::frames_lost`]) — no
    /// other shard is affected. Returns each shard's admission decision
    /// (`None` for shards that were down or died on this offer).
    pub fn offer(
        &mut self,
        timestamp: f64,
        values: &[f32],
    ) -> DetectorResult<Vec<Option<Admission>>> {
        if values.len() != self.catalog.len() {
            return Err(DetectorError::Invalid(format!(
                "frame width changed: expected {}, got {}",
                self.catalog.len(),
                values.len()
            )));
        }
        self.frames_routed += 1;
        let num_shards = self.assignment.num_shards();
        let mut out = Vec::with_capacity(num_shards);
        for k in 0..num_shards {
            self.ensure_running(k);
            let Some(gov) = self.shards[k].as_mut() else {
                self.frames_lost += 1;
                self.frames_lost_per_shard[k] += 1;
                out.push(None);
                continue;
            };
            let local: Vec<f32> = self.assignment.members(k).iter().map(|&s| values[s]).collect();
            match gov.offer(timestamp, &local) {
                Ok(admission) => {
                    self.trailing_polls[k] = 0;
                    out.push(Some(admission));
                }
                Err(e) => {
                    // Structural or WAL-I/O failure: this shard's domain
                    // only. The frame slice is lost; the shard restarts
                    // from its log on the next service round.
                    self.fail_shard(k, e.to_string());
                    self.frames_lost += 1;
                    self.frames_lost_per_shard[k] += 1;
                    out.push(None);
                }
            }
        }
        Ok(out)
    }

    /// One service round: every live shard is polled once, concurrently (one
    /// pool shard per fleet shard), and results are merged in shard order so
    /// the output is independent of scheduling. A panicking or erroring
    /// shard yields `None` this round, is marked dead, and restarts on the
    /// next round — every other shard's verdict is unaffected.
    pub fn poll(&mut self) -> DetectorResult<Vec<Option<GovernedVerdict>>> {
        self.maybe_plan()?;
        self.maybe_migrate()?;
        let num_shards = self.assignment.num_shards();
        for k in 0..num_shards {
            self.ensure_running(k);
        }
        let results = supervised_map_mut(&mut self.shards, |_k, slot| {
            slot.as_mut().map(StreamGovernor::poll)
        });
        let mut out = Vec::with_capacity(num_shards);
        for (k, result) in results.into_iter().enumerate() {
            let produced = match result {
                // The shard's poll panicked: capture, isolate, restart later.
                Err(shard_err) => {
                    self.fail_shard(k, shard_err.to_string());
                    None
                }
                // Shard was down this round.
                Ok(None) => None,
                // Typed failure from inside the shard (WAL I/O, ...).
                Ok(Some(Err(e))) => {
                    self.fail_shard(k, e.to_string());
                    None
                }
                Ok(Some(Ok(verdict))) => {
                    self.trailing_polls[k] += 1;
                    if let Some(v) = &verdict {
                        self.charge_costs(k, v);
                    }
                    verdict
                }
            };
            // `pending_out` is a pure reorder buffer: a migration's
            // fence-drained verdicts were serviced before the handoff, so
            // they leave first, in order, while the governor keeps its
            // normal one-poll-per-round cadence behind them. Costs were
            // charged at production (fence drain or the poll above), never
            // at emission, so a crash inside this window loses nothing —
            // resume re-derives every verdict and emits the backlog as
            // replayed output.
            let emit = if self.pending_out[k].is_empty() {
                produced
            } else {
                if let Some(v) = produced {
                    self.pending_out[k].push_back(v);
                }
                self.pending_out[k].pop_front()
            };
            if emit.is_some() {
                self.emitted[k] += 1;
            }
            out.push(emit);
        }
        Ok(out)
    }

    /// Polls until every live shard's queue is empty, collecting verdicts
    /// per shard in emission order.
    pub fn drain(&mut self) -> DetectorResult<Vec<Vec<GovernedVerdict>>> {
        let num_shards = self.assignment.num_shards();
        let mut out: Vec<Vec<GovernedVerdict>> = vec![Vec::new(); num_shards];
        loop {
            let round = self.poll()?;
            let mut any = false;
            for (k, verdict) in round.into_iter().enumerate() {
                if let Some(v) = verdict {
                    out[k].push(v);
                    any = true;
                }
            }
            if !any {
                return Ok(out);
            }
        }
    }

    /// Chaos injection: kills shard `k` as a crash would — the governor (and
    /// its unsynced WAL handle) is dropped mid-flight, no snapshotting, no
    /// graceful drain. The coordinator restarts it from its WAL on the next
    /// offer/poll round.
    pub fn kill_shard(&mut self, shard: usize) -> DetectorResult<()> {
        if shard >= self.assignment.num_shards() {
            return Err(DetectorError::Invalid(format!(
                "no shard {shard} in a {}-shard fleet",
                self.assignment.num_shards()
            )));
        }
        if self.shards[shard].is_none() {
            return Ok(());
        }
        self.fail_shard(shard, "killed by chaos injection".into());
        Ok(())
    }

    /// Builds the fleet-wide health rollup.
    pub fn health(&self) -> FleetHealth {
        let num_shards = self.assignment.num_shards();
        let mut shards = Vec::with_capacity(num_shards);
        let mut aggregate = HealthReport::default();
        let mut shards_down = 0usize;
        for k in 0..num_shards {
            let (health, queue_depth) = match self.shards[k].as_ref() {
                Some(gov) => (gov.online().health().clone(), gov.queue_depth()),
                None => {
                    shards_down += 1;
                    (self.last_health[k].clone(), 0)
                }
            };
            aggregate.absorb(&health);
            shards.push(ShardHealth {
                shard: k,
                state: self.states[k],
                stars: self.assignment.members(k).len(),
                emitted: self.emitted[k],
                queue_depth,
                frames_lost: self.frames_lost_per_shard[k],
                last_error: self.last_errors[k].clone(),
                health,
            });
        }
        FleetHealth {
            shards,
            frames_routed: self.frames_routed,
            shard_restarts: self.shard_restarts,
            shard_failures: self.shard_failures,
            shards_down,
            frames_lost: self.frames_lost,
            rebalance_plans: self.plans.len(),
            stars_moved: self.stars_moved,
            migrations_rolled_back: self.migrations_rolled_back,
            supervisor: self.supervisor.stats(),
            aggregate,
        }
    }

    /// The catalog this fleet serves.
    pub fn catalog(&self) -> &StarCatalog {
        &self.catalog
    }

    /// The live star→shard assignment.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// Rebalance plans recorded so far (oldest first).
    pub fn plans(&self) -> &[RebalancePlan] {
        &self.plans
    }

    /// The most recent rebalance plan, if any — apply it to the next fleet
    /// construction via [`ShardAssignment::from_plan`].
    pub fn latest_plan(&self) -> Option<&RebalancePlan> {
        self.plans.last()
    }

    /// The per-star measured cost ledger (global variate order).
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// Full-sky frames routed so far.
    pub fn frames_routed(&self) -> usize {
        self.frames_routed
    }

    /// Shard `k`'s lifecycle state.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.states[shard]
    }

    /// Plan epoch of shard `k`'s last membership change (0 = never
    /// migrated); names its current WAL directory.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.shard_epochs[shard]
    }

    /// Stars re-homed by committed live migrations so far.
    pub fn stars_moved(&self) -> usize {
        self.stars_moved
    }

    /// Half-finished migrations this process rolled back on resume.
    pub fn migrations_rolled_back(&self) -> usize {
        self.migrations_rolled_back
    }

    /// The per-star measured-cost ledger feeding rebalance plans.
    pub fn star_costs(&self) -> &[u64] {
        &self.costs
    }

    /// The shard-level supervisor (restart retries, breaker, probes).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(n: usize) -> StarCatalog {
        StarCatalog::sequential(n)
    }

    #[test]
    fn catalog_hash_is_order_and_content_sensitive() {
        let a = StarCatalog::from_ids(vec![3, 1, 2]).unwrap();
        let b = StarCatalog::from_ids(vec![1, 2, 3]).unwrap();
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.hash(), StarCatalog::from_ids(vec![3, 1, 2]).unwrap().hash());
        assert!(StarCatalog::from_ids(vec![1, 1]).is_err());
    }

    #[test]
    fn partition_is_deterministic_and_balanced() {
        let cat = catalog(13);
        let a = ShardAssignment::partition(&cat, 4, 7).unwrap();
        let b = ShardAssignment::partition(&cat, 4, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Sizes differ by at most one and cover every star exactly once.
        let sizes: Vec<usize> = (0..4).map(|k| a.members(k).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 13);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4), "{sizes:?}");
        for star in 0..13 {
            assert!(a.members(a.shard_of(star)).contains(&star));
        }
        // A different seed moves stars around.
        let c = ShardAssignment::partition(&cat, 4, 8).unwrap();
        assert_ne!(a.shard_map(), c.shard_map());
        // Shape validation.
        assert!(ShardAssignment::partition(&cat, 0, 7).is_err());
        assert!(ShardAssignment::partition(&cat, 14, 7).is_err());
    }

    #[test]
    fn rebalance_follows_measured_costs() {
        let cat = catalog(6);
        // One hot star: LPT puts it alone on one shard, spreading the rest.
        let costs = [1000, 1, 1, 1, 1, 1];
        let plan = ShardAssignment::rebalance(&cat, 2, 0, &costs, 1).unwrap();
        let hot = plan.shard_of(0);
        assert_eq!(plan.members(hot), &[0], "hot star isolated");
        assert_eq!(plan.members(1 - hot).len(), 5);
        // All-zero costs still fill every shard (cost floor of one unit).
        let plan = ShardAssignment::rebalance(&cat, 3, 0, &[0; 6], 2).unwrap();
        for k in 0..3 {
            assert!(!plan.members(k).is_empty());
        }
        assert!(ShardAssignment::rebalance(&cat, 2, 0, &[1; 5], 1).is_err());
    }

    #[test]
    fn shard_identities_bind_catalog_and_membership() {
        let cat = catalog(8);
        let a = ShardAssignment::partition(&cat, 2, 1).unwrap();
        let id0 = a.shard_identity(&cat, 0);
        let id1 = a.shard_identity(&cat, 1);
        assert_eq!(id0.shard_id, 0);
        assert_ne!(id0.catalog_hash, id1.catalog_hash);
        // Same shard index under a different membership gets a different
        // identity (here: explicit plans swapping two stars).
        let p1 = ShardAssignment::from_plan(&cat, 2, vec![0, 0, 0, 0, 1, 1, 1, 1], 1).unwrap();
        let p2 = ShardAssignment::from_plan(&cat, 2, vec![0, 0, 0, 1, 0, 1, 1, 1], 1).unwrap();
        assert_ne!(
            p1.shard_identity(&cat, 0).catalog_hash,
            p2.shard_identity(&cat, 0).catalog_hash
        );
    }

    #[test]
    fn from_plan_validates_and_roundtrips() {
        let cat = catalog(5);
        let plan = ShardAssignment::rebalance(&cat, 2, 3, &[5, 4, 3, 2, 1], 4).unwrap();
        let re = ShardAssignment::from_plan(&cat, 2, plan.shard_map().to_vec(), 4).unwrap();
        assert_eq!(plan, re);
        assert!(ShardAssignment::from_plan(&cat, 2, vec![0, 1, 2, 0, 0], 1).is_err());
        assert!(ShardAssignment::from_plan(&cat, 2, vec![0, 1], 1).is_err());
    }

    #[test]
    fn star_costs_rank_pipeline_rungs() {
        use LadderLevel::*;
        use PriorityClass::*;
        assert_eq!(star_cost(true, Nominal, FullAero), 0);
        assert!(star_cost(false, Suspect, HoldLast) == star_cost(false, Nominal, FullAero));
        let mut last = u64::MAX;
        for level in [FullAero, Stage1Only, SrFallback, HoldLast] {
            let c = star_cost(false, Nominal, level);
            assert!(c < last, "costs strictly decrease down the ladder");
            last = c;
        }
    }
}
