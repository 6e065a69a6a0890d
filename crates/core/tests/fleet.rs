//! Chaos harness for the shared-nothing detector fleet.
//!
//! The gates this file pins down:
//!
//! * **shard isolation** — a shard killed mid-night is rebuilt from its own
//!   WAL while every surviving shard's verdict stream stays **bitwise
//!   unchanged**, and the killed shard's stream resumes bitwise too (the
//!   whole fleet output equals an uninterrupted run);
//! * **fresh-process resume** — a fleet rebuilt by
//!   [`FleetCoordinator::resume`] replays every shard's WAL and continues
//!   the night; replay + continuation equals the uninterrupted run;
//! * **identity enforcement** — resuming with a different star→shard
//!   assignment, or pointing a shard at another shard's WAL directory,
//!   fails with a typed [`DetectorError::WalMismatch`] instead of silently
//!   replaying the wrong frames;
//! * **quarantine + probe** — a shard whose rebuild keeps failing trips the
//!   shard-level breaker and is quarantined (its frame slices dropped and
//!   counted) while the rest of the fleet streams; the half-open probe
//!   schedule brings it back once the fault clears;
//! * **partition determinism** — star→shard partitioning is a pure
//!   function of `(catalog, seed, shards)`: identical across thread counts
//!   (proptest).
//!
//! Every test removes what it writes: shard models are checkpointed once
//! per member set and reassembled in memory, and WAL roots are deleted when
//! the test ends, pass or fail.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use aero_core::fleet::{
    FleetConfig, FleetCoordinator, ShardAssignment, ShardFactory, ShardState, StarCatalog,
};
use aero_core::online::OnlineAero;
use aero_core::overload::GovernedVerdict;
use aero_core::wal::{FsyncPolicy, WalConfig};
use aero_core::{
    load_model, save_model, Aero, AeroConfig, BackboneSnapshot, DegradePolicy, DetectorError,
    DetectorResult, StarDelta, SupervisorPolicy,
};
use aero_datagen::SyntheticConfig;
use aero_evt::PotConfig;
use aero_timeseries::Dataset;
use proptest::prelude::*;

const FLEET_SEED: u64 = 11;
const NUM_SHARDS: usize = 2;

fn night() -> Dataset {
    SyntheticConfig::tiny(20240807).build()
}

/// Trains each distinct shard's model once per test binary, round-trips it
/// through a checkpoint (deleted straight after), and keeps the reloaded
/// backbone and star deltas; every (re)build of that shard reassembles the
/// same bits, so a restarted shard reproduces its pre-crash model exactly —
/// the same discipline a real deployment gets from a model registry.
fn shard_model(members: &[usize]) -> DetectorResult<Aero> {
    type Parts = (BackboneSnapshot, Vec<StarDelta>);
    static CACHE: OnceLock<Mutex<HashMap<Vec<usize>, Arc<Parts>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let parts = {
        let mut cache = cache.lock().expect("model cache lock");
        let parts = cache.entry(members.to_vec()).or_insert_with(|| {
            let key: Vec<String> = members.iter().map(|m| m.to_string()).collect();
            let path = std::env::temp_dir().join(format!(
                "aero_fleet_model_{}_{}.json",
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
            let loaded = load_model(&path);
            std::fs::remove_file(&path).expect("removing the shard checkpoint");
            let loaded = loaded.expect("reloading the shard model");
            let deltas = (0..members.len())
                .map(|v| loaded.star_delta(v).expect("star delta"))
                .collect();
            Arc::new((loaded.backbone().expect("backbone"), deltas))
        });
        Arc::clone(parts)
    };
    Aero::from_backbone(&parts.0, &parts.1)
}

/// The deterministic shard factory: model + calibration slice are pure
/// functions of the member set.
fn factory() -> ShardFactory {
    Arc::new(|members: &[usize]| -> DetectorResult<OnlineAero> {
        let model = shard_model(members)?;
        let slice = night()
            .select_variates(members)
            .map_err(|e| DetectorError::Invalid(e.to_string()))?
            .truncate_train(200)
            .map_err(|e| DetectorError::Invalid(e.to_string()))?;
        OnlineAero::with_policy(
            model,
            &slice.train,
            PotConfig::default(),
            DegradePolicy::default(),
        )
    })
}

/// A per-test WAL root under the temp dir, deleted when dropped.
struct TmpRoot(PathBuf);

impl TmpRoot {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("aero_fleet_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Self(dir)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for TmpRoot {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn fleet_config(wal_root: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        seed: FLEET_SEED,
        wal_root,
        wal: WalConfig { frames_per_segment: 8, fsync: FsyncPolicy::Never, identity: Default::default() },
        ..FleetConfig::default()
    }
}

fn build_fleet(wal_root: PathBuf) -> FleetCoordinator {
    let catalog = StarCatalog::sequential(night().num_variates());
    let assignment =
        ShardAssignment::partition(&catalog, NUM_SHARDS, FLEET_SEED).expect("partition");
    FleetCoordinator::new(catalog, assignment, factory(), None, fleet_config(Some(wal_root)))
        .expect("fleet construction")
}

/// The test night as full-sky frames (timestamps continuing the train split).
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

/// One fleet tick: offer the frame, then one service round; verdicts land in
/// `sink[shard]` in emission order.
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

/// Streams `stream` through an uninterrupted fleet, returning per-shard
/// fingerprints.
fn uninterrupted_run(stream: &[(f64, Vec<f32>)], root: PathBuf) -> Vec<Vec<Vec<u8>>> {
    let mut fleet = build_fleet(root);
    let mut sink = vec![Vec::new(); NUM_SHARDS];
    for frame in stream {
        tick(&mut fleet, frame, &mut sink);
    }
    drain_into(&mut fleet, &mut sink);
    sink
}

#[test]
fn killed_shard_resumes_bitwise_while_survivors_stream_untouched() {
    let stream = frames(48);
    let kill_at = 20;
    let kill_shard = 1;

    let base_root = TmpRoot::new("isolate_base");
    let base = uninterrupted_run(&stream, base_root.path());

    let chaos_root = TmpRoot::new("isolate_chaos");
    let mut fleet = build_fleet(chaos_root.path());
    let mut sink = vec![Vec::new(); NUM_SHARDS];
    for (t, frame) in stream.iter().enumerate() {
        if t == kill_at {
            fleet.kill_shard(kill_shard).expect("chaos kill");
            assert_eq!(fleet.shard_state(kill_shard), ShardState::Down);
        }
        tick(&mut fleet, frame, &mut sink);
    }
    drain_into(&mut fleet, &mut sink);

    // The killed shard was rebuilt from its WAL on the next offer: no frame
    // slice was lost and its stream — like every survivor's — is bitwise
    // the uninterrupted one.
    for k in 0..NUM_SHARDS {
        assert_eq!(base[k].len(), sink[k].len(), "shard {k} verdict count");
        for (i, (b, c)) in base[k].iter().zip(&sink[k]).enumerate() {
            assert_eq!(b, c, "shard {k} verdict {i} diverged after the kill");
        }
    }
    let health = fleet.health();
    assert_eq!(health.shard_failures, 1);
    assert_eq!(health.shard_restarts, 1);
    assert_eq!(health.frames_lost, 0, "restart-on-next-offer must lose nothing");
    assert_eq!(health.shards_down, 0);
    assert!(health.shards[kill_shard].last_error.is_none(), "error cleared on recovery");
}

#[test]
fn fleet_resumes_from_per_shard_wals_bitwise() {
    let stream = frames(48);
    let kill_at = 20;

    let base_root = TmpRoot::new("resume_base");
    let base = uninterrupted_run(&stream, base_root.path());

    // Doomed process: 20 full ticks, then dropped without any shutdown.
    let chaos_root = TmpRoot::new("resume_chaos");
    let root = chaos_root.path();
    {
        let mut fleet = build_fleet(root.clone());
        let mut pre = vec![Vec::new(); NUM_SHARDS];
        for frame in &stream[..kill_at] {
            tick(&mut fleet, frame, &mut pre);
        }
    }

    // Fresh process: resume from the per-shard WALs.
    let catalog = StarCatalog::sequential(night().num_variates());
    let assignment =
        ShardAssignment::partition(&catalog, NUM_SHARDS, FLEET_SEED).expect("partition");
    let (mut fleet, resume) = FleetCoordinator::resume(
        catalog,
        assignment,
        factory(),
        None,
        fleet_config(Some(root)),
    )
    .expect("fleet resume");
    assert_eq!(resume.frames_routed, kill_at);

    // Replayed verdicts were already emitted by the doomed process; the
    // boundary tick's trailing poll (unrecorded by design — WAL metadata
    // only covers polls *before* each offer) re-executes first, then the
    // night continues.
    let mut sink: Vec<Vec<Vec<u8>>> = resume
        .replayed
        .iter()
        .map(|shard| shard.iter().map(fingerprint).collect())
        .collect();
    collect(fleet.poll().expect("boundary poll"), &mut sink);
    for frame in &stream[kill_at..] {
        tick(&mut fleet, frame, &mut sink);
    }
    drain_into(&mut fleet, &mut sink);

    for k in 0..NUM_SHARDS {
        assert_eq!(base[k].len(), sink[k].len(), "shard {k} verdict count");
        for (i, (b, r)) in base[k].iter().zip(&sink[k]).enumerate() {
            assert_eq!(b, r, "shard {k} verdict {i} diverged across resume");
        }
    }
}

#[test]
fn resume_rejects_foreign_wal_directories() {
    let stream = frames(12);
    let tmp = TmpRoot::new("identity");
    let root = tmp.path();
    {
        let mut fleet = build_fleet(root.clone());
        let mut sink = vec![Vec::new(); NUM_SHARDS];
        for frame in &stream {
            tick(&mut fleet, frame, &mut sink);
        }
    }
    let catalog = StarCatalog::sequential(night().num_variates());
    let good =
        ShardAssignment::partition(&catalog, NUM_SHARDS, FLEET_SEED).expect("partition");

    // A different star→shard assignment (another routing seed's partition)
    // must be refused: the WAL identities bind the exact membership.
    let bad = (FLEET_SEED + 1..)
        .map(|seed| ShardAssignment::partition(&catalog, NUM_SHARDS, seed).expect("partition"))
        .find(|bad| bad.members(0) != good.members(0))
        .expect("some seed partitions differently");
    let err = FleetCoordinator::resume(
        catalog.clone(),
        bad,
        factory(),
        None,
        fleet_config(Some(root.clone())),
    )
    .expect_err("foreign assignment must be rejected");
    assert!(matches!(err, DetectorError::WalMismatch(_)), "got {err}");

    // Swapping two shard directories on disk (operator error) is refused
    // the same way: the segment headers name the other shard.
    let dir0 = root.join("shard-0000");
    let dir1 = root.join("shard-0001");
    let scratch = root.join("shard-swap");
    std::fs::rename(&dir0, &scratch).expect("swap step 1");
    std::fs::rename(&dir1, &dir0).expect("swap step 2");
    std::fs::rename(&scratch, &dir1).expect("swap step 3");
    let err = FleetCoordinator::resume(
        catalog.clone(),
        good.clone(),
        factory(),
        None,
        fleet_config(Some(root.clone())),
    )
    .expect_err("swapped WAL directories must be rejected");
    assert!(matches!(err, DetectorError::WalMismatch(_)), "got {err}");

    // A night whose stars were moved by live migration (an epoch
    // directory, as earlier releases wrote) is refused, not half-replayed.
    std::fs::rename(&dir0, &scratch).expect("unswap step 1");
    std::fs::rename(&dir1, &dir0).expect("unswap step 2");
    std::fs::rename(&scratch, &dir1).expect("unswap step 3");
    std::fs::create_dir(root.join("shard-0001-e0001")).expect("epoch directory");
    let err = FleetCoordinator::resume(catalog, good, factory(), None, fleet_config(Some(root)))
        .expect_err("a migrated night must be rejected");
    assert!(matches!(err, DetectorError::WalMismatch(_)), "got {err}");
    assert!(err.to_string().contains("shard-0001-e0001"), "got {err}");
}

#[test]
fn quarantined_shard_recovers_via_probe_while_fleet_streams() {
    let stream = frames(40);
    let sick = 1;

    // A factory whose shard-`sick` builds fail while poisoned.
    let poisoned = Arc::new(AtomicBool::new(false));
    let catalog = StarCatalog::sequential(night().num_variates());
    let assignment =
        ShardAssignment::partition(&catalog, NUM_SHARDS, FLEET_SEED).expect("partition");
    let sick_members = assignment.members(sick).to_vec();
    let inner = factory();
    let poison_in_factory = Arc::clone(&poisoned);
    let chaotic: ShardFactory = Arc::new(move |members: &[usize]| {
        if members == sick_members.as_slice() && poison_in_factory.load(Ordering::SeqCst) {
            return Err(DetectorError::Invalid("chaos: model registry unreachable".into()));
        }
        inner(members)
    });

    let tmp = TmpRoot::new("quarantine");
    let mut config = fleet_config(Some(tmp.path()));
    config.shard_supervision = SupervisorPolicy {
        max_retries: 0,
        backoff_base: Duration::ZERO,
        circuit_threshold: 2,
        probe_after: 3,
        ..SupervisorPolicy::default()
    };
    let mut fleet =
        FleetCoordinator::new(catalog, assignment, chaotic, None, config).expect("fleet");

    let mut sink = vec![Vec::new(); NUM_SHARDS];
    for frame in &stream[..8] {
        tick(&mut fleet, frame, &mut sink);
    }
    assert_eq!(fleet.health().shard_failures, 0);

    // Kill the shard with its rebuild path poisoned: restarts fail, the
    // shard-level breaker trips, and the shard is quarantined while the
    // rest of the fleet keeps streaming.
    poisoned.store(true, Ordering::SeqCst);
    fleet.kill_shard(sick).expect("chaos kill");
    let healthy_before = sink[0].len();
    for frame in &stream[8..24] {
        tick(&mut fleet, frame, &mut sink);
    }
    assert_eq!(fleet.shard_state(sick), ShardState::Quarantined);
    let health = fleet.health();
    assert!(health.frames_lost > 0, "a down shard's slices are dropped, not queued");
    assert!(health.supervisor.circuits_opened >= 1, "{health:?}");
    assert!(health.supervisor.short_circuits >= 1, "{health:?}");
    assert!(health.shards[sick].last_error.is_some());
    assert!(
        sink[0].len() > healthy_before,
        "the healthy shard must keep emitting while its sibling is quarantined"
    );

    // Fault cleared: the next half-open probe rebuilds the shard from its
    // WAL and closes the breaker.
    poisoned.store(false, Ordering::SeqCst);
    let sick_before = sink[sick].len();
    for frame in &stream[24..] {
        tick(&mut fleet, frame, &mut sink);
    }
    drain_into(&mut fleet, &mut sink);
    assert_eq!(fleet.shard_state(sick), ShardState::Running);
    let health = fleet.health();
    assert!(health.supervisor.probes >= 1, "{health:?}");
    assert!(health.supervisor.circuits_closed >= 1, "{health:?}");
    assert!(health.shard_restarts >= 1);
    assert!(
        sink[sick].len() > sick_before,
        "the recovered shard must emit verdicts again"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partitioning is a pure function of `(catalog, seed, shards)`:
    /// bitwise-identical assignments at any thread count, every star owned
    /// exactly once, members ascending, no shard left empty, and sizes
    /// balanced to within one.
    fn routing_is_deterministic(
        stars in 2usize..24,
        seed in 0u64..1_000_000,
        threads_a in 1usize..5,
        threads_b in 1usize..5,
    ) {
        let shards = 1 + (seed as usize) % stars;
        let catalog = StarCatalog::sequential(stars);

        aero_parallel::set_max_threads(threads_a);
        let part_a = ShardAssignment::partition(&catalog, shards, seed).unwrap();
        aero_parallel::set_max_threads(threads_b);
        let part_b = ShardAssignment::partition(&catalog, shards, seed).unwrap();
        aero_parallel::set_max_threads(1);

        prop_assert_eq!(&part_a, &part_b);
        prop_assert_eq!(part_a.fingerprint(), part_b.fingerprint());

        let mut owned = vec![0usize; stars];
        for k in 0..shards {
            let members = part_a.members(k);
            prop_assert!(!members.is_empty(), "shard {} empty", k);
            prop_assert!(members.windows(2).all(|w| w[0] < w[1]), "members unsorted");
            for &star in members {
                owned[star] += 1;
                prop_assert_eq!(part_a.shard_of(star), k);
            }
        }
        prop_assert!(owned.iter().all(|&c| c == 1), "every star owned exactly once");
        let sizes: Vec<usize> = (0..shards).map(|k| part_a.members(k).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1, "unbalanced partition: {:?}", sizes);
    }
}
