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
//! The partition is static for the night: one seeded
//! [`ShardAssignment::partition`], fixed at fleet construction. Every live
//! shard receives a slice of every frame and is polled once per round, so
//! all shards see the same queue depth and shed the same share of their
//! non-suspect stars; moving stars between shards cannot lower the fleet's
//! sheds (DESIGN.md §16).

// Streaming modules run unattended for whole nights; a stray `unwrap` is a
// latent crash, so the lint gate forbids them outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aero_parallel::supervised_map_mut;

use crate::detector::{DetectorError, DetectorResult};
use crate::online::{HealthReport, OnlineAero};
use crate::overload::{Admission, FallbackScorer, GovernedVerdict, OverloadPolicy, StreamGovernor};
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
    /// id would hash to the same routing key and WAL identity.
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
/// Constructed by [`partition`](Self::partition): seeded, cost-blind, sizes
/// differing by at most one, and a pure function of its inputs — no clock,
/// no thread count, no iteration-order dependence — which is what lets a
/// resumed or re-thread-counted run rebuild the identical fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    num_shards: usize,
    /// `shard_of[star] = shard`.
    shard_of: Vec<usize>,
    /// Per-shard member stars, ascending — the shard's local variate order.
    members: Vec<Vec<usize>>,
}

impl ShardAssignment {
    /// Stars are ordered by their seeded routing key and dealt round-robin,
    /// so shard sizes differ by at most one and the assignment is a pure
    /// function of `(catalog, seed, num_shards)`.
    pub fn partition(
        catalog: &StarCatalog,
        num_shards: usize,
        seed: u64,
    ) -> DetectorResult<Self> {
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
        let mut order: Vec<usize> = (0..catalog.len()).collect();
        order.sort_by_key(|&star| (routing_key(seed, catalog.ids[star]), catalog.ids[star]));
        let mut shard_of = vec![0usize; catalog.len()];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for (pos, &star) in order.iter().enumerate() {
            shard_of[star] = pos % num_shards;
        }
        for (star, &shard) in shard_of.iter().enumerate() {
            members[shard].push(star);
        }
        Ok(Self {
            num_shards,
            shard_of,
            members,
        })
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

    /// FNV-1a fingerprint of the assignment (shard count + shard map), used
    /// by the determinism gates to compare partitions across runs cheaply.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
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
}

/// Builds one shard's detector over the given member stars (global variate
/// indices, ascending). Called at fleet construction and again on every
/// restart, so it must be deterministic: same members, same bits — train
/// from the same calibration slice or load the same checkpoint.
pub type ShardFactory = Arc<dyn Fn(&[usize]) -> DetectorResult<OnlineAero> + Send + Sync>;

/// Fleet-level configuration.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Seed for the routing keys of the partition.
    pub seed: u64,
    /// Per-shard overload policy (each shard gets its own queue + ladder).
    pub overload: OverloadPolicy,
    /// Shard-level supervision: restart retries, breaker threshold, and the
    /// half-open probe schedule for quarantined shards.
    pub shard_supervision: SupervisorPolicy,
    /// Root WAL directory; shard `k` logs under `<root>/shard-KKKK/`. `None`
    /// runs without WALs (restarts then lose shard state instead of
    /// resuming).
    pub wal_root: Option<PathBuf>,
    /// Segment/fsync configuration shared by every per-shard WAL (the
    /// per-shard [`WalIdentity`] is filled in by the coordinator).
    pub wal: WalConfig,
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
    /// One supervisor unit per shard (restart retries + breaker + probes).
    supervisor: Supervisor,
    frames_routed: usize,
    shard_restarts: usize,
    shard_failures: usize,
    frames_lost: usize,
    /// Per-shard slice of `frames_lost` (same increments, per owner).
    frames_lost_per_shard: Vec<usize>,
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

/// Builds a detector over `members` through the factory and validates its
/// width.
fn build_online(factory: &ShardFactory, members: &[usize]) -> DetectorResult<OnlineAero> {
    let online = factory(members)?;
    if online.num_variates() != members.len() {
        return Err(DetectorError::Invalid(format!(
            "factory built {} variates for {} member stars",
            online.num_variates(),
            members.len()
        )));
    }
    Ok(online)
}

/// `<root>/shard-KKKK` — one WAL directory per shard, zero-padded so a
/// directory listing sorts in shard order.
pub fn shard_wal_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:04}"))
}

/// Refuses a WAL root that holds a `shard-KKKK-eEEEE` directory: earlier
/// releases wrote one when a live migration moved stars mid-night. The
/// epoch-0 directories of such a night still carry valid identities but
/// stop at the handoff, so replaying them alone would silently resume the
/// wrong state.
fn refuse_migrated_night(root: &Path) -> DetectorResult<()> {
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(DetectorError::Io(format!("read {}: {e}", root.display()))),
    };
    for entry in entries {
        let entry = entry.map_err(|e| DetectorError::Io(format!("read {}: {e}", root.display())))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("shard-") && name.contains("-e") {
            return Err(DetectorError::WalMismatch(format!(
                "{} holds live-migration directory {name}: that night moved stars between \
                 shards, and fleets now run one static partition per night, so it cannot \
                 be resumed",
                root.display()
            )));
        }
    }
    Ok(())
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
        Ok(fleet)
    }

    /// Resumes a fleet from its per-shard WALs. Pass the same `catalog`,
    /// `assignment` and configuration the night started with: each shard is
    /// rebuilt through the factory and replays its own directory, so queue,
    /// ladder, suspects, and counters all land bitwise on the crashed
    /// process's state.
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
        refuse_migrated_night(&root)?;
        let mut fleet = Self::skeleton(catalog, assignment, factory, fallback, config)?;
        let num_shards = fleet.assignment.num_shards();
        let mut replayed = Vec::with_capacity(num_shards);
        let mut recoveries = Vec::with_capacity(num_shards);
        for k in 0..num_shards {
            let online = fleet.build_online(k)?;
            let (gov, verdicts, recovery) = StreamGovernor::resume_wal(
                online,
                fleet.config.overload.clone(),
                fleet.fallback.clone(),
                &shard_wal_dir(&root, k),
                fleet.shard_wal_config(k),
            )?;
            fleet.frames_routed = fleet.frames_routed.max(recovery.frames);
            fleet.emitted[k] = verdicts.len();
            replayed.push(verdicts);
            recoveries.push(recovery);
            fleet.shards[k] = Some(gov);
            fleet.states[k] = ShardState::Running;
        }
        let resume = FleetResume {
            frames_routed: fleet.frames_routed,
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
            frames_routed: 0,
            shard_restarts: 0,
            shard_failures: 0,
            frames_lost: 0,
            frames_lost_per_shard: vec![0; num_shards],
        })
    }

    fn shard_wal_config(&self, shard: usize) -> WalConfig {
        WalConfig {
            identity: self.assignment.shard_identity(&self.catalog, shard),
            ..self.config.wal
        }
    }

    /// Builds shard `k`'s detector via the factory and validates its width.
    fn build_online(&self, shard: usize) -> DetectorResult<OnlineAero> {
        build_online(&self.factory, self.assignment.members(shard))
    }

    fn build_shard(&self, shard: usize) -> DetectorResult<StreamGovernor> {
        let online = self.build_online(shard)?;
        let mut gov = StreamGovernor::with_policy(online, self.config.overload.clone())?;
        gov.set_fallback(self.fallback.clone());
        Ok(gov)
    }

    /// Rebuilds a dead shard to its exact pre-death state: factory, WAL
    /// replay, then re-execution of the coordinator's trailing polls. Runs
    /// as an associated function so the supervisor closure borrows nothing
    /// from `self`.
    fn rebuild_shard(
        factory: &ShardFactory,
        members: &[usize],
        overload: &OverloadPolicy,
        fallback: &Option<FallbackScorer>,
        wal: Option<(&Path, WalConfig)>,
        trailing_polls: usize,
    ) -> DetectorResult<StreamGovernor> {
        let online = build_online(factory, members)?;
        let Some((dir, wal_config)) = wal else {
            // Without a WAL the restart is a cold start; isolation still
            // holds, the stream is not bitwise.
            let mut gov = StreamGovernor::with_policy(online, overload.clone())?;
            gov.set_fallback(fallback.clone());
            return Ok(gov);
        };
        // The replayed verdicts and these trailing re-polls were all
        // emitted before the death; discard them so the caller's stream
        // continues without duplicates.
        let (mut gov, _replayed, _recovery) = StreamGovernor::resume_wal(
            online,
            overload.clone(),
            fallback.clone(),
            dir,
            wal_config,
        )?;
        for _ in 0..trailing_polls {
            gov.poll()?;
        }
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
        let wal_dir = self.config.wal_root.as_deref().map(|r| shard_wal_dir(r, shard));
        let wal_config = self.shard_wal_config(shard);
        let trailing = self.trailing_polls[shard];
        let outcome = self.supervisor.run(shard, || {
            Self::rebuild_shard(
                &factory,
                &members,
                &overload,
                &fallback,
                wal_dir.as_deref().map(|d| (d, wal_config)),
                trailing,
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
        let num_shards = self.assignment.num_shards();
        for k in 0..num_shards {
            self.ensure_running(k);
        }
        let results = supervised_map_mut(&mut self.shards, |_k, slot| {
            slot.as_mut().map(StreamGovernor::poll)
        });
        let mut out = Vec::with_capacity(num_shards);
        for (k, result) in results.into_iter().enumerate() {
            let verdict = match result {
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
                    verdict
                }
            };
            if verdict.is_some() {
                self.emitted[k] += 1;
            }
            out.push(verdict);
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

    /// Full-sky frames routed so far.
    pub fn frames_routed(&self) -> usize {
        self.frames_routed
    }

    /// Shard `k`'s lifecycle state.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.states[shard]
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
    fn shard_identities_bind_catalog_and_membership() {
        let cat = catalog(8);
        let a = ShardAssignment::partition(&cat, 2, 1).unwrap();
        let id0 = a.shard_identity(&cat, 0);
        let id1 = a.shard_identity(&cat, 1);
        assert_eq!(id0.shard_id, 0);
        assert_ne!(id0.catalog_hash, id1.catalog_hash);
        // Same shard index under a different membership (another seed's
        // partition) gets a different identity.
        let b = (2..)
            .map(|seed| ShardAssignment::partition(&cat, 2, seed).unwrap())
            .find(|b| b.members(0) != a.members(0))
            .unwrap();
        assert_ne!(id0.catalog_hash, b.shard_identity(&cat, 0).catalog_hash);
    }
}
