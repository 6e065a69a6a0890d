//! Deterministic chaos harness for the supervised streaming runtime.
//!
//! Three failure families, all required to leave the stream's *observable
//! output* unchanged:
//!
//! * **kill-and-resume** — a process killed at a proptest-chosen frame and
//!   resumed from checkpoint + WAL replay must emit a [`FrameVerdict`]
//!   stream and a final [`HealthReport`] **bitwise identical** to an
//!   uninterrupted run, at any thread count, even when the WAL tail was
//!   torn mid-record by the kill;
//! * **panic isolation** — a star whose scoring shard panics every frame is
//!   retried, then circuit-broken into quarantine, while every other star
//!   keeps producing finite scores and `push` never returns an error;
//! * **deadline supervision** — a star whose shard wedges past the policy
//!   deadline is treated exactly like a panicking one (suppressed verdict,
//!   escalating status, eventual breaker trip) instead of stalling the
//!   frame.
//!
//! The chaos hook fires inside production's batched Stage-1 pass, so panic
//! and deadline isolation are proven on the path every push takes: the
//! failed batch re-runs each star alone under its own supervisor unit.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use aero_core::online::{FrameVerdict, HealthReport, OnlineAero, StarStatus};
use aero_core::wal::{FsyncPolicy, WalConfig, WalWriter};
use aero_core::{
    load_model, save_model, Aero, AeroConfig, BackboneSnapshot, ChaosHook, DegradePolicy,
    ScoreMode, StarDelta, SupervisorPolicy,
};
use aero_datagen::{FaultInjector, FaultPlan, SyntheticConfig};
use aero_evt::PotConfig;
use aero_timeseries::Dataset;
use proptest::prelude::*;

fn night() -> Dataset {
    let mut cfg = SyntheticConfig::tiny(20240806);
    cfg.anomaly_segments = 2;
    cfg.build()
}

/// Trains the tiny model once per test binary, round-trips it through a
/// checkpoint (deleted straight after reloading) and keeps the reloaded
/// backbone and star deltas; every run reassembles its own bitwise copy
/// from them, the same path `load_model` takes.
fn shared_model() -> Aero {
    static PARTS: OnceLock<(BackboneSnapshot, Vec<StarDelta>)> = OnceLock::new();
    let (backbone, deltas) = PARTS.get_or_init(|| {
        let path = std::env::temp_dir()
            .join(format!("aero_crash_recovery_model_{}.json", std::process::id()));
        let ds = night();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 2;
        let mut model = Aero::new(cfg).expect("valid tiny config");
        use aero_core::Detector;
        model.fit(&ds.train).expect("training the tiny model");
        round_trip(&model, &path, ds.num_variates())
    });
    Aero::from_backbone(backbone, deltas).expect("reassembling the tiny model")
}

/// Saves `model` to `path`, reloads it, deletes the file, and returns the
/// reloaded backbone and per-star deltas.
fn round_trip(
    model: &Aero,
    path: &std::path::Path,
    stars: usize,
) -> (BackboneSnapshot, Vec<StarDelta>) {
    save_model(model, path).expect("checkpointing the tiny model");
    let loaded = load_model(path);
    std::fs::remove_file(path).expect("removing the checkpoint");
    let loaded = loaded.expect("reloading the tiny model");
    let deltas = (0..stars)
        .map(|v| loaded.star_delta(v).expect("star delta"))
        .collect();
    (loaded.backbone().expect("backbone"), deltas)
}

/// Policy shared by baseline and resumed runs: refits enabled so the test
/// also proves the POT threshold survives a crash bit-exactly.
///
/// The refit window must hold enough scores for the tail fit: at the default
/// POT level 0.99, `pot_threshold` needs `MIN_PEAKS` = 4 scores above the
/// 99th percentile, i.e. ~350 scores. The night has 8 stars, so 1,024 keeps
/// 128 per star and refits succeed from the 48th scored frame on (256 kept
/// 32 per star, 3 excesses at most, and no refit ever succeeded).
fn chaos_policy() -> DegradePolicy {
    DegradePolicy { refit_interval: 16, refit_window: 1024, ..DegradePolicy::default() }
}

fn fresh_online() -> OnlineAero {
    let model = shared_model();
    OnlineAero::with_policy(model, &night().train, PotConfig::default(), chaos_policy())
        .expect("calibration")
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aero_chaos_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Canonical byte encoding of everything an operator can observe in one
/// verdict. Bitwise: float fields go in as raw bits, so "identical" means
/// identical, not approximately equal.
fn fingerprint(verdict: &FrameVerdict) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + verdict.stars.len() * 8);
    out.extend_from_slice(&(verdict.frame as u64).to_le_bytes());
    out.extend_from_slice(&verdict.timestamp.to_bits().to_le_bytes());
    out.push(verdict.disposition as u8);
    out.extend_from_slice(&(verdict.gap_filled as u64).to_le_bytes());
    for star in &verdict.stars {
        out.extend_from_slice(&star.score.to_bits().to_le_bytes());
        out.push(star.anomalous as u8);
        out.push(star.status as u8);
    }
    out
}

/// A corrupted night as a replayable frame list.
fn corrupted_frames(fault_seed: u64) -> Vec<(f64, Vec<f32>)> {
    let ds = night();
    let plan = FaultPlan {
        seed: fault_seed,
        nan_rate: 0.01,
        inf_rate: 0.002,
        drop_frame_rate: 0.01,
        duplicate_rate: 0.02,
        out_of_order_rate: 0.02,
        stuck_episodes: 0,
        stuck_len: 0,
        blackout_episodes: 1,
        blackout_len: 25,
    };
    let (stream, _) = FaultInjector::new(plan).corrupt_stream(&ds.test);
    // The first ~220 frames cover the blackout, dup/out-of-order faults,
    // several threshold refits, and multiple WAL segment rotations; the
    // remaining tail only adds wall-clock.
    stream.into_iter().take(220).map(|f| (f.timestamp, f.values)).collect()
}

/// Pushes `frames` through an uninterrupted instance, returning every
/// verdict fingerprint plus the final health report and threshold bits.
fn uninterrupted_run(frames: &[(f64, Vec<f32>)]) -> (Vec<Vec<u8>>, HealthReport, u64) {
    let mut online = fresh_online();
    let prints = frames
        .iter()
        .map(|(ts, values)| fingerprint(&online.push(*ts, values).expect("clean push")))
        .collect();
    let health = online.health().clone();
    (prints, health, online.threshold().threshold.to_bits())
}

/// The full kill-and-resume cycle:
///
/// 1. stream `frames[..kill]` with a WAL attached, then "kill" the process
///    (drop everything without any graceful shutdown; optionally tear the
///    last WAL record in half the way a mid-write kill would);
/// 2. resume: load the checkpoint, replay the WAL's recovered prefix into a
///    fresh instance, re-attach the healed WAL;
/// 3. stream the remaining frames (the source re-sends anything the torn
///    tail lost, starting from the WAL's recovered frame count).
///
/// Returns the same observables as [`uninterrupted_run`] for comparison.
fn killed_and_resumed_run(
    frames: &[(f64, Vec<f32>)],
    kill_at: usize,
    tear_tail: bool,
    wal_dir: &std::path::Path,
) -> (Vec<Vec<u8>>, HealthReport, u64) {
    let config = WalConfig { frames_per_segment: 32, fsync: FsyncPolicy::Never, identity: Default::default() };

    // Phase 1: doomed process.
    {
        let mut online = fresh_online();
        online.attach_wal(WalWriter::create(wal_dir, config).expect("wal create"));
        for (ts, values) in &frames[..kill_at] {
            online.push(*ts, values).expect("pre-kill push");
        }
        // Kill: the instance is dropped with no flush/close call.
    }
    if tear_tail && kill_at > 0 {
        // Chop bytes off the newest segment, as a kill mid-`write` would.
        let newest = std::fs::read_dir(wal_dir)
            .expect("wal dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .max()
            .expect("at least one segment");
        let len = std::fs::metadata(&newest).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&newest).unwrap();
        file.set_len(len.saturating_sub(7)).unwrap();
    }

    // Phase 2: resume from checkpoint + WAL replay.
    let (writer, recovered, recovery) = WalWriter::resume(wal_dir, config).expect("wal resume");
    assert_eq!(recovery.frames, recovered.len());
    if !tear_tail {
        assert_eq!(recovered.len(), kill_at, "fsync=never still keeps killed writes");
    }
    let mut online = fresh_online();
    let mut prints: Vec<Vec<u8>> = recovered
        .iter()
        .map(|f| fingerprint(&online.push(f.timestamp, &f.values).expect("replayed push")))
        .collect();
    let resume_from = recovered.len();
    online.attach_wal(writer);

    // Phase 3: live again.
    for (ts, values) in &frames[resume_from..] {
        prints.push(fingerprint(&online.push(*ts, values).expect("post-resume push")));
    }
    let health = online.health().clone();
    (prints, health, online.threshold().threshold.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill the process at an arbitrary frame — possibly tearing the WAL
    /// tail, possibly at a different thread count than the baseline — and
    /// the resumed run's verdict stream, health report, and threshold must
    /// be bitwise identical to a run that was never interrupted.
    fn resumed_run_is_bitwise_identical_to_uninterrupted(
        kill_at in 5usize..150,
        fault_seed in 0u64..1_000,
        baseline_threads in 1usize..5,
        resumed_threads in 1usize..5,
        tear_tail in proptest::bool::ANY,
    ) {
        let frames = corrupted_frames(fault_seed);
        let kill_at = kill_at.min(frames.len() - 1);
        let dir = tmp_dir(&format!("resume_{kill_at}_{fault_seed}"));

        aero_parallel::set_max_threads(baseline_threads);
        let (base_prints, base_health, base_threshold) = uninterrupted_run(&frames);

        aero_parallel::set_max_threads(resumed_threads);
        let (res_prints, res_health, res_threshold) =
            killed_and_resumed_run(&frames, kill_at, tear_tail, &dir);
        aero_parallel::set_max_threads(1);

        prop_assert!(
            base_health.threshold_refits > 0,
            "no threshold refit succeeded ({} failed), so the threshold's survival is untested",
            base_health.threshold_refit_failures
        );
        prop_assert_eq!(base_prints.len(), res_prints.len());
        for (i, (b, r)) in base_prints.iter().zip(&res_prints).enumerate() {
            prop_assert_eq!(
                b, r,
                "verdict {} diverged (kill at {}, torn tail {})", i, kill_at, tear_tail
            );
        }
        prop_assert_eq!(base_health, res_health, "health reports diverged");
        prop_assert_eq!(
            base_threshold, res_threshold,
            "POT threshold diverged after resume"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Installs a process-wide panic hook that swallows the chaos hook's own
/// injected panics (they are caught and converted to typed errors, but the
/// default hook would still spam stderr) while delegating everything else —
/// real assertion failures included — to the previous hook.
fn silence_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("chaos:"))
                .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.contains("chaos:")))
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[test]
fn panicking_star_is_quarantined_while_others_keep_streaming() {
    silence_injected_panics();
    let ds = night();
    let n = ds.num_variates();
    let mut online = fresh_online();
    let breaker_at = online.policy().supervision.circuit_threshold as usize;
    // Star 0's scoring shard panics on every attempt from now on.
    let fired = Arc::new(AtomicUsize::new(0));
    let fired_in_hook = Arc::clone(&fired);
    online.set_chaos_hook(Some(ChaosHook::new(move |v| {
        if v == 0 {
            fired_in_hook.fetch_add(1, Ordering::SeqCst);
            panic!("chaos: injected panic for star {v}");
        }
    })));

    let base = *ds.train.timestamps().last().unwrap();
    let frames = 2 * breaker_at;
    for t in 0..frames {
        let frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, t)).collect();
        let verdict = online
            .push(base + 1.0 + t as f64, &frame)
            .expect("a panicking shard must not error the stream");
        // The poisoned star is suppressed, not propagated.
        assert_eq!(verdict.stars[0].score, 0.0);
        assert!(!verdict.stars[0].anomalous);
        // Every other star still scores normally.
        for star in &verdict.stars[1..] {
            assert!(star.score.is_finite());
            assert_eq!(star.status, StarStatus::Nominal);
        }
    }

    let health = online.health();
    assert!(health.shard_panics >= breaker_at, "{health}");
    assert!(health.circuit_breaker_trips >= 1, "{health}");
    assert_eq!(
        online.star_status()[0],
        StarStatus::Quarantined,
        "repeat offender must escalate into quarantine: {health}"
    );
    assert!(online.supervisor().is_open(0));
    // Once the breaker is open the shard is short-circuited: the panic
    // stops firing, so the hook count stays well below one per attempt.
    let retries_per_frame = 1 + online.policy().supervision.max_retries as usize;
    assert!(
        fired.load(Ordering::SeqCst) < frames * retries_per_frame,
        "breaker never short-circuited the panicking shard"
    );
    assert!(!health.is_clean());
}

#[test]
fn deadline_blown_star_is_quarantined_without_stalling_the_stream() {
    let ds = night();
    let n = ds.num_variates();
    let model = shared_model();
    let policy = DegradePolicy {
        supervision: SupervisorPolicy {
            deadline: Some(Duration::from_millis(2)),
            max_retries: 0,
            circuit_threshold: 2,
            ..SupervisorPolicy::default()
        },
        ..DegradePolicy::default()
    };
    let mut online = OnlineAero::with_policy(model, &ds.train, PotConfig::default(), policy)
        .expect("calibration");
    // Star 1 wedges far past the 2 ms budget on every attempt.
    online.set_chaos_hook(Some(ChaosHook::new(|v| {
        if v == 1 {
            std::thread::sleep(Duration::from_millis(40));
        }
    })));

    let base = *ds.train.timestamps().last().unwrap();
    for t in 0..6 {
        let frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, t)).collect();
        let verdict = online
            .push(base + 1.0 + t as f64, &frame)
            .expect("a wedged shard must not error the stream");
        assert_eq!(verdict.stars[1].score, 0.0, "late result must be discarded");
        for (v, star) in verdict.stars.iter().enumerate() {
            if v != 1 {
                assert!(star.score.is_finite());
            }
        }
    }

    let health = online.health();
    assert!(health.shard_deadline_misses >= 2, "{health}");
    assert!(health.circuit_breaker_trips >= 1, "{health}");
    assert_eq!(online.star_status()[1], StarStatus::Quarantined, "{health}");
    assert!(online.supervisor().is_open(1));
}

/// Supervision is pure control flow: with no chaos hook installed, a
/// supervised run must be bitwise identical to the determinism contract's
/// reference (here checked by running the same clean stream twice through
/// independently constructed instances at different thread counts).
#[test]
fn clean_supervised_runs_are_bitwise_reproducible_across_thread_counts() {
    let ds = night();
    let n = ds.num_variates();
    let base = *ds.train.timestamps().last().unwrap();
    let frames: Vec<(f64, Vec<f32>)> = (0..80)
        .map(|t| {
            (base + 1.0 + t as f64, (0..n).map(|v| ds.test.get(v, t)).collect())
        })
        .collect();

    aero_parallel::set_max_threads(1);
    let (a, health_a, thr_a) = uninterrupted_run(&frames);
    aero_parallel::set_max_threads(4);
    let (b, health_b, thr_b) = uninterrupted_run(&frames);
    aero_parallel::set_max_threads(1);

    assert_eq!(a, b, "supervised scoring must stay bitwise deterministic");
    assert_eq!(health_a, health_b);
    assert_eq!(thr_a, thr_b);
}

/// Trains a tiny model with rank-2 adapter heads (identity until adapted)
/// and round-trips it through a checkpoint.
fn adapter_model_parts() -> (BackboneSnapshot, Vec<StarDelta>) {
    let path = std::env::temp_dir()
        .join(format!("aero_crash_recovery_adapter_model_{}.json", std::process::id()));
    let ds = night();
    let cfg = AeroConfig { max_epochs: 2, adapter_rank: 2, ..AeroConfig::tiny() };
    let mut model = Aero::new(cfg).expect("valid tiny adapter config");
    use aero_core::Detector;
    model.fit(&ds.train).expect("training the tiny adapter model");
    round_trip(&model, &path, ds.num_variates())
}

/// Production-path isolation: with a hook that panics for star k, every
/// other star's verdict score is bitwise the score it gets when k is shed
/// (`ScoreMode::Skip`) — through the frames where the failed batch falls
/// back to per-star runs and past the breaker trip. A failed star's error
/// row stays zero even when k has a trained adapter head, so the
/// neighbours' Stage-2 graph sees k exactly as absent.
#[test]
fn panicking_star_scores_its_neighbours_as_if_it_were_shed() {
    silence_injected_panics();
    let ds = night();
    let n = ds.num_variates();
    let k = 2;
    let (backbone, deltas) = adapter_model_parts();
    let online = || {
        let model =
            Aero::from_backbone(&backbone, &deltas).expect("reassembling the adapter model");
        OnlineAero::with_policy(model, &ds.train, PotConfig::default(), chaos_policy())
            .expect("calibration")
    };
    let mut shed_modes = vec![ScoreMode::Full; n];
    shed_modes[k] = ScoreMode::Skip;
    let base = *ds.train.timestamps().last().unwrap();
    for adapted in [false, true] {
        let mut chaos = online();
        let mut shed = online();
        if adapted {
            chaos.adapt_star(k).expect("adapting star k");
            shed.adapt_star(k).expect("adapting star k");
        }
        chaos.set_chaos_hook(Some(ChaosHook::new(move |v| {
            if v == k {
                panic!("chaos: injected panic for star {v}");
            }
        })));
        for t in 0..8 {
            let frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, t)).collect();
            let ts = base + 1.0 + t as f64;
            let failed = chaos.push(ts, &frame).expect("a panicking star must not error");
            let skipped = shed.push_with_modes(ts, &frame, &shed_modes).expect("shed push");
            assert_eq!(failed.stars[k].score, 0.0);
            for v in (0..n).filter(|&v| v != k) {
                assert_eq!(
                    failed.stars[v].score.to_bits(),
                    skipped.stars[v].score.to_bits(),
                    "adapted={adapted}, frame {t}: star {v} saw the failed star"
                );
            }
        }
        assert!(chaos.supervisor().is_open(k), "adapted={adapted}: breaker never tripped");
    }
}

/// A star that fails in one frame and scores in the next is back to a clean
/// record: the successful batched pass zeroes its consecutive-failure count,
/// as a first-try supervised run would, and its breaker stays closed.
#[test]
fn star_that_recovers_next_frame_clears_its_failure_count() {
    silence_injected_panics();
    let ds = night();
    let n = ds.num_variates();
    let k = 1;
    let mut online = fresh_online();
    let failing = Arc::new(AtomicBool::new(true));
    let failing_in_hook = Arc::clone(&failing);
    online.set_chaos_hook(Some(ChaosHook::new(move |v| {
        if v == k && failing_in_hook.load(Ordering::SeqCst) {
            panic!("chaos: one-frame failure for star {v}");
        }
    })));
    let base = *ds.train.timestamps().last().unwrap();
    let frame = |t: usize| -> Vec<f32> { (0..n).map(|v| ds.test.get(v, t)).collect() };

    let verdict = online.push(base + 1.0, &frame(0)).expect("failing frame");
    assert_eq!(verdict.stars[k].score, 0.0);
    assert_eq!(online.supervisor().unit_state(k).consecutive, 1);

    failing.store(false, Ordering::SeqCst);
    let verdict = online.push(base + 2.0, &frame(1)).expect("recovered frame");
    assert!(verdict.stars[k].score.is_finite());
    let state = online.supervisor().unit_state(k);
    assert_eq!(state.consecutive, 0, "a success must clear the failure run: {state:?}");
    assert!(!state.open);
}
