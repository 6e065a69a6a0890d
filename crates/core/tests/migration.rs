//! Chaos harness for live mid-night shard migration (the WAL-fenced
//! two-phase star handoff).
//!
//! The gates this file pins down:
//!
//! * **live rebalancing** — with `migrate_live` on, an epoch-boundary plan
//!   that diverges from the current assignment is applied mid-night: the
//!   affected shards are fenced, snapshotted, and rebuilt under
//!   epoch-versioned WAL directories, and the moved stars continue scoring
//!   on their new shard without a frame lost;
//! * **bystander isolation** — a shard whose membership the plan does not
//!   change is never fenced or rebuilt; its verdict stream is bitwise the
//!   stream of a night that never migrated at all;
//! * **crash safety** — `kill -9` at *every* phase boundary of the handoff
//!   (pre-fence, post-fence, pre-commit, post-commit) followed by
//!   [`FleetCoordinator::resume`] yields verdict streams, health counters,
//!   and a final shard assignment bitwise identical to an uninterrupted
//!   night: a migration whose `Commit` record landed is rolled forward
//!   from the log, one without it is rolled back and re-executed;
//! * **determinism under chaos** (proptest) — the bitwise guarantee holds
//!   across kill points, worker-thread counts, and night lengths.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use aero_core::fleet::{
    shard_epoch_wal_dir, FleetConfig, FleetCoordinator, ShardAssignment, ShardFactory,
    StarCatalog,
};
use aero_core::online::OnlineAero;
use aero_core::overload::GovernedVerdict;
use aero_core::wal::{FsyncPolicy, WalConfig};
use aero_core::{
    load_model, save_model, Aero, AeroConfig, DegradePolicy, DetectorResult, MigrationKillPoint,
};
use aero_datagen::SyntheticConfig;
use aero_evt::PotConfig;
use aero_timeseries::Dataset;
use proptest::prelude::*;

const FLEET_SEED: u64 = 11;
const NUM_SHARDS: usize = 3;
const EPOCH_FRAMES: usize = 16;

const KILL_POINTS: [MigrationKillPoint; 4] = [
    MigrationKillPoint::PreFence,
    MigrationKillPoint::PostFence,
    MigrationKillPoint::PreCommit,
    MigrationKillPoint::PostCommit,
];

fn night() -> Dataset {
    SyntheticConfig::tiny(20240807).build()
}

/// Trains each distinct member set's model once per test binary and
/// checkpoints it, so every (re)build — including post-migration builds for
/// memberships the night starts without — loads identical bits.
fn shard_checkpoint(members: &[usize]) -> PathBuf {
    static CACHE: OnceLock<Mutex<HashMap<Vec<usize>, PathBuf>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().expect("checkpoint cache lock");
    if let Some(path) = cache.get(members) {
        return path.clone();
    }
    let key: Vec<String> = members.iter().map(|m| m.to_string()).collect();
    let path = std::env::temp_dir().join(format!(
        "aero_migr_model_{}_{}.json",
        std::process::id(),
        key.join("-")
    ));
    let slice = night()
        .select_variates(members)
        .expect("valid member indices")
        .truncate_train(200)
        .expect("truncate");
    let mut cfg = AeroConfig::tiny();
    cfg.max_epochs = 1;
    let mut model = Aero::new(cfg).expect("valid tiny config");
    use aero_core::Detector;
    model.fit(&slice.train).expect("training the shard model");
    save_model(&model, &path).expect("checkpointing the shard model");
    cache.insert(members.to_vec(), path.clone());
    path
}

fn factory() -> ShardFactory {
    Arc::new(|members: &[usize]| -> DetectorResult<OnlineAero> {
        let path = shard_checkpoint(members);
        let model = load_model(&path)?;
        // Calibrate POT on the full train split: the smallest post-plan
        // membership is two stars, and a truncated slice leaves too few
        // tail peaks for the threshold fit.
        let slice = night()
            .select_variates(members)
            .map_err(|e| aero_core::DetectorError::Invalid(e.to_string()))?;
        OnlineAero::with_policy(
            model,
            &slice.train,
            PotConfig::default(),
            DegradePolicy::default(),
        )
    })
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aero_migr_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fleet_config(wal_root: Option<PathBuf>, migrate_live: bool) -> FleetConfig {
    FleetConfig {
        seed: FLEET_SEED,
        epoch_frames: EPOCH_FRAMES,
        wal_root,
        wal: WalConfig { frames_per_segment: 8, fsync: FsyncPolicy::Never, identity: Default::default() },
        migrate_live,
        ..FleetConfig::default()
    }
}

/// The epoch-1 LPT plan the night will compute. Costs are uniform in a
/// healthy tick-cadence run (every star is serviced at full pipeline every
/// round), so the plan equals an LPT over all-equal costs.
fn planned_assignment(catalog: &StarCatalog) -> ShardAssignment {
    let uniform = vec![1u64; catalog.len()];
    ShardAssignment::rebalance(catalog, NUM_SHARDS, FLEET_SEED, &uniform, 1).expect("plan")
}

/// The deliberately mis-homed starting assignment: the epoch-1 plan with
/// one star of shard 0 and one star of shard 1 swapped. The first
/// epoch-boundary plan therefore moves exactly those two stars back while
/// shard 2's membership — and its verdict stream — stays untouched.
fn initial_assignment(catalog: &StarCatalog) -> ShardAssignment {
    let planned = planned_assignment(catalog);
    let mut shard_of = planned.shard_map().to_vec();
    let a = shard_of.iter().position(|&s| s == 0).expect("a star on shard 0");
    let b = shard_of.iter().position(|&s| s == 1).expect("a star on shard 1");
    shard_of.swap(a, b);
    ShardAssignment::from_plan(catalog, NUM_SHARDS, shard_of, 0).expect("initial")
}

fn build_fleet(wal_root: PathBuf, migrate_live: bool) -> FleetCoordinator {
    let catalog = StarCatalog::sequential(night().num_variates());
    let assignment = initial_assignment(&catalog);
    FleetCoordinator::new(
        catalog,
        assignment,
        factory(),
        None,
        fleet_config(Some(wal_root), migrate_live),
    )
    .expect("fleet construction")
}

fn frames(count: usize) -> Vec<(f64, Vec<f32>)> {
    let ds = night();
    let n = ds.num_variates();
    let base = *ds.train.timestamps().last().expect("non-empty train");
    (0..count)
        .map(|t| (base + 1.0 + t as f64, (0..n).map(|v| ds.test.get(v, t)).collect()))
        .collect()
}

/// Canonical byte encoding of one governed verdict — float fields as raw
/// bits, so "identical" means identical.
fn fingerprint(v: &GovernedVerdict) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + v.verdict.stars.len() * 9);
    out.extend_from_slice(&(v.verdict.frame as u64).to_le_bytes());
    out.extend_from_slice(&v.verdict.timestamp.to_bits().to_le_bytes());
    out.push(v.verdict.disposition as u8);
    out.extend_from_slice(&(v.verdict.gap_filled as u64).to_le_bytes());
    for star in &v.verdict.stars {
        out.extend_from_slice(&star.score.to_bits().to_le_bytes());
        out.push(star.anomalous as u8);
        out.push(star.status as u8);
    }
    for i in 0..v.shed.len() {
        out.push(v.shed[i] as u8);
        out.push(v.levels[i] as u8);
        out.push(v.classes[i] as u8);
    }
    out
}

fn tick(fleet: &mut FleetCoordinator, frame: &(f64, Vec<f32>), sink: &mut [Vec<Vec<u8>>]) {
    fleet.offer(frame.0, &frame.1).expect("offer");
    collect(fleet.poll().expect("poll"), sink);
}

fn collect(round: Vec<Option<GovernedVerdict>>, sink: &mut [Vec<Vec<u8>>]) {
    for (k, verdict) in round.into_iter().enumerate() {
        if let Some(v) = verdict {
            sink[k].push(fingerprint(&v));
        }
    }
}

fn drain_into(fleet: &mut FleetCoordinator, sink: &mut [Vec<Vec<u8>>]) {
    for (k, shard) in fleet.drain().expect("drain").into_iter().enumerate() {
        sink[k].extend(shard.iter().map(fingerprint));
    }
}

/// Per-shard fingerprints + the final coordinator of an uninterrupted
/// migrate-live night.
fn uninterrupted_run(
    stream: &[(f64, Vec<f32>)],
    root: PathBuf,
    migrate_live: bool,
) -> (Vec<Vec<Vec<u8>>>, FleetCoordinator) {
    let mut fleet = build_fleet(root, migrate_live);
    let mut sink = vec![Vec::new(); NUM_SHARDS];
    for frame in stream {
        tick(&mut fleet, frame, &mut sink);
    }
    drain_into(&mut fleet, &mut sink);
    (sink, fleet)
}

fn assert_streams_eq(base: &[Vec<Vec<u8>>], got: &[Vec<Vec<u8>>], what: &str) {
    for k in 0..NUM_SHARDS {
        assert_eq!(base[k].len(), got[k].len(), "{what}: shard {k} verdict count");
        for (i, (b, g)) in base[k].iter().zip(&got[k]).enumerate() {
            assert_eq!(b, g, "{what}: shard {k} verdict {i} diverged");
        }
    }
}

#[test]
fn live_migration_rehomes_stars_and_leaves_bystanders_untouched() {
    let stream = frames(40);

    // The same night with plans left advisory: memberships never change.
    let (frozen, frozen_fleet) = uninterrupted_run(&stream, tmp_root("frozen"), false);
    assert_eq!(frozen_fleet.stars_moved(), 0);
    assert_eq!(frozen_fleet.assignment().epoch(), 0);

    let (live, fleet) = uninterrupted_run(&stream, tmp_root("live"), true);

    // Epoch 1's plan moved exactly the two mis-homed stars back; later
    // plans re-derive the same assignment and are no-op handoffs.
    assert_eq!(fleet.stars_moved(), 2, "exactly the swapped pair moves");
    assert!(fleet.plans().len() >= 2, "40 frames at epoch_frames=16");
    let catalog = StarCatalog::sequential(night().num_variates());
    assert_eq!(
        fleet.assignment().fingerprint(),
        planned_assignment(&catalog).fingerprint(),
        "the fleet ends on the epoch-1 planned assignment"
    );
    assert_eq!(fleet.shard_epoch(0), 1, "shard 0 rebuilt under epoch 1");
    assert_eq!(fleet.shard_epoch(1), 1, "shard 1 rebuilt under epoch 1");
    assert_eq!(fleet.shard_epoch(2), 0, "bystander shard never rebuilt");

    // The bystander's stream is bitwise the never-migrated night's.
    assert_eq!(frozen[2].len(), live[2].len(), "bystander verdict count");
    for (i, (f, l)) in frozen[2].iter().zip(&live[2]).enumerate() {
        assert_eq!(f, l, "bystander verdict {i} diverged under migration");
    }
    // The moved stars kept scoring: the migrated shards' verdicts carry
    // their new member counts and no frame was lost.
    let health = fleet.health();
    assert_eq!(health.frames_lost, 0);
    assert_eq!(health.stars_moved, 2);
    assert_eq!(health.migrations_rolled_back, 0);
    assert_eq!(health.shards[0].frames_lost, 0);
    for (k, shard) in health.shards.iter().enumerate() {
        assert_eq!(shard.stars, fleet.assignment().members(k).len());
        assert!(!live[k].is_empty(), "shard {k} emitted nothing");
    }

    // The epoch-versioned directories exist exactly where the protocol
    // says: epoch-0 dirs for everyone, epoch-1 dirs for the two migrated
    // shards only.
    let root = std::env::temp_dir().join(format!("aero_migr_{}_live", std::process::id()));
    for k in 0..NUM_SHARDS {
        assert!(shard_epoch_wal_dir(&root, k, 0).is_dir(), "epoch-0 dir of shard {k}");
    }
    assert!(shard_epoch_wal_dir(&root, 0, 1).is_dir());
    assert!(shard_epoch_wal_dir(&root, 1, 1).is_dir());
    assert!(!shard_epoch_wal_dir(&root, 2, 1).exists(), "bystander got no epoch-1 dir");
}

/// Runs the chaos night: kill -9 (typed error + drop) at `point` of the
/// epoch-1 handoff, then resume from the logs and finish the night.
/// Returns the per-shard streams (replayed ++ continued) and the resumed
/// fleet.
fn killed_and_resumed_run(
    stream: &[(f64, Vec<f32>)],
    root: PathBuf,
    point: MigrationKillPoint,
) -> (Vec<Vec<Vec<u8>>>, FleetCoordinator) {
    let catalog = StarCatalog::sequential(night().num_variates());
    let assignment = initial_assignment(&catalog);
    let mut config = fleet_config(Some(root.clone()), true);
    config.chaos_migration_kill = Some((1, point));

    // The doomed process: ticks until the handoff aborts at the injected
    // phase boundary, then is dropped without any shutdown.
    let mut killed_after = None;
    {
        let mut fleet = FleetCoordinator::new(
            catalog.clone(),
            assignment.clone(),
            factory(),
            None,
            config,
        )
        .expect("fleet construction");
        let mut pre = vec![Vec::new(); NUM_SHARDS];
        for (t, frame) in stream.iter().enumerate() {
            fleet.offer(frame.0, &frame.1).expect("offer");
            match fleet.poll() {
                Ok(round) => collect(round, &mut pre),
                Err(e) => {
                    assert!(
                        e.to_string().contains("chaos: killed at"),
                        "unexpected poll error: {e}"
                    );
                    killed_after = Some(t);
                    break;
                }
            }
        }
    }
    let killed_after = killed_after.expect("the handoff must reach the kill point");
    assert_eq!(
        killed_after,
        EPOCH_FRAMES - 1,
        "the epoch-1 handoff runs at the first poll past the boundary offer"
    );

    // Fresh process: resume from the per-shard WAL chains + plan log +
    // migration log, passing the *initial* epoch-0 assignment. The
    // replayed verdicts stand in for everything the doomed process
    // emitted; the errored poll re-executes, then the night continues.
    let (mut fleet, resume) = FleetCoordinator::resume(
        catalog,
        assignment,
        factory(),
        None,
        fleet_config(Some(root), true),
    )
    .expect("fleet resume");
    assert_eq!(resume.frames_routed, killed_after + 1);
    assert!(resume.plans_recovered >= 1, "plan 1 recovered, not recomputed");
    let mut sink: Vec<Vec<Vec<u8>>> = resume
        .replayed
        .iter()
        .map(|shard| shard.iter().map(fingerprint).collect())
        .collect();
    collect(fleet.poll().expect("re-done boundary poll"), &mut sink);
    for frame in &stream[killed_after + 1..] {
        tick(&mut fleet, frame, &mut sink);
    }
    drain_into(&mut fleet, &mut sink);
    (sink, fleet)
}

#[test]
fn handoff_killed_at_every_phase_boundary_resumes_bitwise() {
    let stream = frames(40);
    let (base, base_fleet) = uninterrupted_run(&stream, tmp_root("chaos_base"), true);
    let base_health = base_fleet.health();

    for point in KILL_POINTS {
        let root = tmp_root(&format!("chaos_{point:?}"));
        let (sink, fleet) = killed_and_resumed_run(&stream, root, point);
        assert_streams_eq(&base, &sink, &format!("kill at {point:?}"));

        // The resumed night ends on the identical assignment and epochs.
        assert_eq!(
            fleet.assignment().fingerprint(),
            base_fleet.assignment().fingerprint(),
            "final assignment after kill at {point:?}"
        );
        for k in 0..NUM_SHARDS {
            assert_eq!(
                fleet.shard_epoch(k),
                base_fleet.shard_epoch(k),
                "shard {k} epoch after kill at {point:?}"
            );
        }
        assert_eq!(fleet.stars_moved(), base_fleet.stars_moved());

        // A handoff whose Commit landed rolls forward; one without it
        // rolls back (and re-executes). PreFence and PostFence kills fire
        // before the Begin record, so there is nothing to roll back.
        let expect_rollback = matches!(point, MigrationKillPoint::PreCommit);
        assert_eq!(
            fleet.migrations_rolled_back(),
            usize::from(expect_rollback),
            "rollback count after kill at {point:?}"
        );

        // Health counters (excluding the rollback counter, which records
        // the recovery itself) land bitwise on the uninterrupted night's.
        let health = fleet.health();
        assert_eq!(health.frames_routed, base_health.frames_routed);
        assert_eq!(health.frames_lost, base_health.frames_lost);
        assert_eq!(health.stars_moved, base_health.stars_moved);
        for k in 0..NUM_SHARDS {
            let (got, want) = (&health.shards[k], &base_health.shards[k]);
            assert_eq!(got.stars, want.stars, "shard {k} stars at {point:?}");
            assert_eq!(got.emitted, want.emitted, "shard {k} emitted at {point:?}");
            assert_eq!(got.frames_lost, want.frames_lost);
            assert_eq!(
                got.health.frames_accepted, want.health.frames_accepted,
                "shard {k} frames_accepted at {point:?}"
            );
            assert_eq!(got.health.frames_gap_filled, want.health.frames_gap_filled);
            assert_eq!(got.health.values_imputed, want.health.values_imputed);
        }
    }
}

/// Burst cadence (two offers per poll) against a tight admission queue:
/// costs turn non-uniform, so several consecutive epoch plans each move
/// stars for real, and the fence drains a *deep* queue whose verdicts back
/// up in the coordinator's reorder buffer. A mid-night crash at an offer
/// boundary — the WAL's recovery granularity — must resume to a bitwise
/// identical night: cost ledger (exactly, at the kill instant), verdict
/// streams, recomputed plans, and final assignment. This is the cadence
/// the CLI `--burst` smoke drives; the tick-cadence gates above never
/// leave queue depth 1.
#[test]
fn burst_cadence_kill_resume_is_bitwise_with_deep_fences() {
    let stream = frames(96);
    let ticks = 48;
    let kill_tick = 20;
    let catalog = StarCatalog::sequential(night().num_variates());
    let assignment =
        ShardAssignment::partition(&catalog, NUM_SHARDS, FLEET_SEED).expect("partition");
    let tight = |root: PathBuf| {
        let mut config = fleet_config(Some(root), true);
        config.overload = aero_core::OverloadPolicy {
            queue_capacity: 24,
            high_watermark: 8,
            low_watermark: 4,
            ..aero_core::OverloadPolicy::default()
        };
        config
    };
    let build = |root: PathBuf| {
        FleetCoordinator::new(
            catalog.clone(),
            assignment.clone(),
            factory(),
            None,
            tight(root),
        )
        .expect("fleet construction")
    };
    let offer2 = |fleet: &mut FleetCoordinator, t: usize| {
        let (ts, values) = &stream[2 * t];
        fleet.offer(*ts, values).expect("offer");
        let (ts, values) = &stream[2 * t + 1];
        fleet.offer(*ts, values).expect("offer");
    };

    // Reference night; ledger snapshot at the kill instant (after tick
    // `kill_tick`'s offers, before its poll).
    let mut reference = build(tmp_root("burst_ref"));
    let mut ref_sink = vec![Vec::new(); NUM_SHARDS];
    let mut ref_costs_at_kill = Vec::new();
    for t in 0..ticks {
        offer2(&mut reference, t);
        if t == kill_tick {
            ref_costs_at_kill = reference.star_costs().to_vec();
        }
        collect(reference.poll().expect("poll"), &mut ref_sink);
    }
    drain_into(&mut reference, &mut ref_sink);
    assert!(reference.stars_moved() > 2, "skewed costs must migrate repeatedly");

    // Doomed process: same night, dropped right after tick `kill_tick`'s
    // offers land.
    let root = tmp_root("burst_chaos");
    {
        let mut doomed = build(root.clone());
        let mut pre = vec![Vec::new(); NUM_SHARDS];
        for t in 0..kill_tick {
            offer2(&mut doomed, t);
            collect(doomed.poll().expect("poll"), &mut pre);
        }
        offer2(&mut doomed, kill_tick);
    }

    let (mut resumed, info) = FleetCoordinator::resume(
        catalog.clone(),
        assignment.clone(),
        factory(),
        None,
        tight(root),
    )
    .expect("resume");
    assert_eq!(
        resumed.star_costs(),
        &ref_costs_at_kill[..],
        "reconstructed cost ledger at the kill instant"
    );

    let mut sink = vec![Vec::new(); NUM_SHARDS];
    for (k, shard) in info.replayed.iter().enumerate() {
        sink[k].extend(shard.iter().map(fingerprint));
    }
    collect(resumed.poll().expect("poll"), &mut sink);
    for t in kill_tick + 1..ticks {
        offer2(&mut resumed, t);
        collect(resumed.poll().expect("poll"), &mut sink);
    }
    drain_into(&mut resumed, &mut sink);

    assert_streams_eq(&ref_sink, &sink, "burst kill/resume");
    assert_eq!(resumed.assignment().fingerprint(), reference.assignment().fingerprint());
    assert_eq!(resumed.stars_moved(), reference.stars_moved());
    let ref_plans: Vec<u64> = reference.plans().iter().map(|p| p.fingerprint).collect();
    let res_plans: Vec<u64> = resumed.plans().iter().map(|p| p.fingerprint).collect();
    assert_eq!(ref_plans, res_plans, "recovered + recomputed plan chain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bitwise resume guarantee holds across kill points, night
    /// lengths, and worker-thread counts.
    fn killed_handoff_is_bitwise_under_any_schedule(
        point_idx in 0usize..4,
        len in 36usize..52,
        threads_ref in 1usize..4,
        threads_chaos in 1usize..4,
    ) {
        let point = KILL_POINTS[point_idx];
        let stream = frames(len);
        let tag = format!("prop_{point_idx}_{len}_{threads_ref}_{threads_chaos}");

        aero_parallel::set_max_threads(threads_ref);
        let (base, base_fleet) = uninterrupted_run(&stream, tmp_root(&format!("{tag}_b")), true);
        aero_parallel::set_max_threads(threads_chaos);
        let (sink, fleet) = killed_and_resumed_run(&stream, tmp_root(&format!("{tag}_c")), point);
        aero_parallel::set_max_threads(1);

        for k in 0..NUM_SHARDS {
            prop_assert_eq!(base[k].len(), sink[k].len(), "shard {} verdict count", k);
            for (i, (b, g)) in base[k].iter().zip(&sink[k]).enumerate() {
                prop_assert_eq!(b, g, "shard {} verdict {} diverged", k, i);
            }
        }
        prop_assert_eq!(
            fleet.assignment().fingerprint(),
            base_fleet.assignment().fingerprint()
        );
        prop_assert_eq!(fleet.stars_moved(), base_fleet.stars_moved());
    }
}
