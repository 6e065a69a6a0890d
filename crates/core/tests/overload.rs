//! Overload chaos harness (DESIGN.md §11): drive the [`StreamGovernor`]
//! with seeded 4×-realtime bursts, stalled scoring shards, and kill-resume
//! cycles, and pin down the three contract properties:
//!
//! (a) **bounded** — queue depth and the work-budget accountant never exceed
//!     the admission capacity, however hard the bursts push;
//! (b) **bitwise deterministic** — the verdict stream, ladder levels, and
//!     overload counters are identical across worker-thread counts and
//!     across a WAL crash-resume at an offer boundary;
//! (c) **priority-ordered shedding** — an anomaly-suspect star is never
//!     shed, and no star is shed while a strictly lower-priority star
//!     survives the same poll.

use std::sync::OnceLock;

use aero_core::online::{DegradePolicy, OnlineAero};
use aero_core::wal::{WalConfig, WalWriter};
use aero_core::{
    load_model, save_model, Aero, AeroConfig, BackboneSnapshot, ChaosHook, Detector,
    FallbackScorer, GovernedVerdict, OverloadPolicy, PriorityClass, StarDelta, StreamGovernor,
    SupervisorPolicy,
};
use aero_datagen::{LoadProfile, SyntheticConfig};
use aero_evt::PotConfig;
use proptest::prelude::*;

fn night() -> aero_timeseries::Dataset {
    let mut cfg = SyntheticConfig::tiny(20240806);
    cfg.anomaly_segments = 3;
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
            .join(format!("aero_overload_model_{}.json", std::process::id()));
        let ds = night();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 2;
        let mut model = Aero::new(cfg).expect("valid tiny config");
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

fn fresh_online() -> OnlineAero {
    let model = shared_model();
    OnlineAero::new(model, &night().train, PotConfig::default()).expect("calibration")
}

/// A deterministic stand-in for the spectral-residual fallback: pure
/// function of the window, cheap enough for proptest.
fn toy_fallback() -> FallbackScorer {
    FallbackScorer::new(|w| w.last().copied().unwrap_or(0.0).abs())
}

/// Small queue, fast ladder: bursts bite within a handful of polls.
fn tight_policy() -> OverloadPolicy {
    OverloadPolicy {
        queue_capacity: 8,
        high_watermark: 4,
        low_watermark: 1,
        down_streak: 2,
        up_streak: 4,
        suspect_hold: 32,
        fallback_threshold: 3.0,
        tenant_quota: None,
    }
}

/// One night's event tape: `Offer(i)` delivers source frame `i`, `Poll`
/// services one. Built from a seeded burst profile so every run of the same
/// seed replays the identical arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Offer(usize),
    Poll,
}

fn event_tape(seed: u64, ticks: usize) -> Vec<Event> {
    let mut tape = Vec::new();
    let mut next = 0usize;
    for arrivals in LoadProfile::burst_night(seed, ticks).arrivals() {
        for _ in 0..arrivals {
            tape.push(Event::Offer(next));
            next += 1;
        }
        tape.push(Event::Poll);
    }
    // Drain the residual backlog (capacity polls is always enough).
    tape.extend(std::iter::repeat_n(Event::Poll, tight_policy().queue_capacity));
    tape
}

/// Flattens a verdict into comparable bits: score bits plus packed
/// (anomalous, shed, ladder level, priority class) per star.
fn fingerprint(out: &GovernedVerdict, acc: &mut Vec<u64>) {
    for (v, star) in out.verdict.stars.iter().enumerate() {
        acc.push(u64::from(star.score.to_bits()));
        acc.push(
            u64::from(star.anomalous)
                | (u64::from(out.shed[v]) << 1)
                | ((out.levels[v] as u64) << 2)
                | ((out.classes[v] as u64) << 8),
        );
    }
}

/// Criterion (c): suspects are never shed, and the shed set is exactly the
/// lowest-priority prefix — no shed star outranks a surviving one.
fn assert_shed_priority(out: &GovernedVerdict) {
    let n = out.shed.len();
    for v in 0..n {
        assert!(
            !(out.shed[v] && out.classes[v] == PriorityClass::Suspect),
            "suspect star {v} was shed"
        );
    }
    let max_shed = (0..n).filter(|&v| out.shed[v]).map(|v| (out.classes[v], v)).max();
    let min_kept = (0..n)
        .filter(|&v| !out.shed[v] && out.classes[v] != PriorityClass::Suspect)
        .map(|v| (out.classes[v], v))
        .min();
    if let (Some(shed), Some(kept)) = (max_shed, min_kept) {
        assert!(
            shed < kept,
            "shed star {shed:?} outranks surviving star {kept:?}"
        );
    }
}

/// Replays an event tape through a governor, checking the bounds and
/// shed-priority invariants on every step. Returns the verdict fingerprint.
fn run_tape(gov: &mut StreamGovernor, tape: &[Event]) -> Vec<u64> {
    let ds = night();
    let n = ds.num_variates();
    let cap = gov.policy().queue_capacity;
    let base = *ds.train.timestamps().last().unwrap();
    let mut acc = Vec::new();
    for event in tape {
        match event {
            Event::Offer(i) => {
                let frame: Vec<f32> =
                    (0..n).map(|v| ds.test.get(v, i % ds.test.len())).collect();
                gov.offer(base + 1.0 + *i as f64, &frame).expect("offer");
                assert!(gov.queue_depth() <= cap, "queue depth exceeded capacity");
                assert!(
                    gov.budget().peak() <= cap * n,
                    "work budget exceeded its capacity"
                );
            }
            Event::Poll => {
                if let Some(out) = gov.poll().expect("poll") {
                    assert!(
                        out.verdict.stars.iter().all(|s| s.score.is_finite()),
                        "non-finite score under overload"
                    );
                    assert_shed_priority(&out);
                    fingerprint(&out, &mut acc);
                }
            }
        }
    }
    acc
}

fn governed(policy: OverloadPolicy) -> StreamGovernor {
    let mut gov = StreamGovernor::with_policy(fresh_online(), policy).expect("policy");
    gov.set_fallback(Some(toy_fallback()));
    gov
}

#[test]
fn burst_night_stays_bounded_and_degrades() {
    let tape = event_tape(42, 48);
    let mut gov = governed(tight_policy());
    run_tape(&mut gov, &tape);
    let counters = gov.online().health().overload;
    // Non-vacuous: the bursts must actually have forced every mechanism.
    assert!(counters.frames_rejected > 0, "{counters}");
    assert!(counters.star_sheds > 0, "{counters}");
    assert!(counters.ladder_steps_down > 0, "{counters}");
    assert_eq!(counters.queue_depth, 0, "drain left a backlog: {counters}");
    assert!(counters.queue_peak <= tight_policy().queue_capacity, "{counters}");
}

#[test]
fn verdicts_and_counters_are_bitwise_identical_across_thread_counts() {
    let tape = event_tape(7, 48);
    let saved = aero_parallel::max_threads();
    let run = |threads: usize| {
        aero_parallel::set_max_threads(threads);
        let mut gov = governed(tight_policy());
        let prints = run_tape(&mut gov, &tape);
        (prints, gov.online().health().overload, gov.levels().to_vec(), gov.polls())
    };
    let one = run(1);
    let four = run(4);
    aero_parallel::set_max_threads(saved);
    assert_eq!(one.0, four.0, "verdict stream diverged across thread counts");
    assert_eq!(one.1, four.1, "overload counters diverged");
    assert_eq!(one.2, four.2, "ladder levels diverged");
    assert_eq!(one.3, four.3, "poll counts diverged");
}

#[test]
fn kill_resume_at_offer_boundary_is_bitwise_identical() {
    let tape = event_tape(99, 48);
    let policy = tight_policy();

    // Uninterrupted reference run (no WAL: logging must not change verdicts).
    let mut reference = governed(policy.clone());
    let want = run_tape(&mut reference, &tape);
    let want_counters = reference.online().health().overload;

    // Crashed run: execute the tape until just after the k-th offer — an
    // offer boundary, the WAL's recovery granularity — then drop the
    // governor mid-night, losing all in-memory state.
    let dir = std::env::temp_dir()
        .join(format!("aero_overload_wal_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let kill_after_offers = 20usize;
    let cut = {
        let mut seen = 0usize;
        tape.iter()
            .position(|e| {
                if matches!(e, Event::Offer(_)) {
                    seen += 1;
                }
                seen == kill_after_offers
            })
            .expect("tape has enough offers")
            + 1
    };
    let mut pre_kill = {
        let mut gov = governed(policy.clone());
        gov.attach_wal(WalWriter::create(&dir, WalConfig::default()).expect("wal"))
            .expect("attach");
        run_tape(&mut gov, &tape[..cut])
        // governor dropped here: the crash
    };

    // Resume: a fresh governor replays the WAL's recorded offer/poll
    // interleaving, re-emitting exactly the pre-kill verdicts, then the
    // night continues from the cut.
    let (mut gov, replayed, recovery) = StreamGovernor::resume_wal(
        fresh_online(),
        policy,
        Some(toy_fallback()),
        &dir,
        WalConfig::default(),
    )
    .expect("resume");
    assert_eq!(recovery.frames, kill_after_offers);
    assert!(!recovery.truncated, "clean shutdown must not look torn");
    let mut replay_prints = Vec::new();
    for v in &replayed {
        assert_shed_priority(v);
        fingerprint(v, &mut replay_prints);
    }
    assert_eq!(replay_prints, pre_kill, "replay diverged from the pre-kill stream");

    let post = run_tape(&mut gov, &tape[cut..]);
    pre_kill.extend(post);
    assert_eq!(pre_kill, want, "kill-resume night diverged from the uninterrupted one");
    assert_eq!(
        gov.online().health().overload,
        want_counters,
        "overload counters diverged after resume"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn anomaly_suspect_star_survives_a_shedding_burst() {
    let ds = night();
    let n = ds.num_variates();
    let base = *ds.train.timestamps().last().unwrap();
    let mut gov = governed(tight_policy());

    // Manufacture a suspect: a frame with an enormous spike on star 0 must
    // come back anomalous at the full rung.
    let mut spiked: Vec<f32> = (0..n).map(|v| ds.test.get(v, 0)).collect();
    spiked[0] = 1.0e3;
    gov.offer(base + 1.0, &spiked).expect("offer");
    let verdict = gov.poll().expect("poll").expect("serviced");
    assert!(
        verdict.verdict.stars[0].anomalous,
        "spike of 1e3 did not trip star 0: score {}",
        verdict.verdict.stars[0].score
    );

    // Saturate the queue so every poll sheds, and check star 0 rides it out
    // while others are shed around it.
    let mut sheds_elsewhere = 0usize;
    let mut offered = 1usize;
    for round in 0..tight_policy().suspect_hold / 2 {
        for _ in 0..4 {
            let frame: Vec<f32> =
                (0..n).map(|v| ds.test.get(v, offered % ds.test.len())).collect();
            gov.offer(base + 1.0 + offered as f64, &frame).expect("offer");
            offered += 1;
        }
        let out = gov.poll().expect("poll").expect("queue is saturated");
        assert_shed_priority(&out);
        assert_eq!(
            out.classes[0],
            PriorityClass::Suspect,
            "star 0 lost suspect status in round {round}"
        );
        assert!(!out.shed[0], "suspect star 0 was shed in round {round}");
        sheds_elsewhere += out.shed.iter().filter(|&&s| s).count();
    }
    assert!(
        sheds_elsewhere > 0,
        "burst never shed anyone: the suspect test is vacuous"
    );
}

#[test]
fn stalled_shard_does_not_stall_the_governor() {
    // Star 1's scoring shard sleeps past a tight deadline on every frame.
    // The supervisor must keep abandoning it while the governor keeps the
    // night moving: finite scores, bounded queue, deadline misses counted.
    let model = shared_model();
    let policy = DegradePolicy {
        supervision: SupervisorPolicy {
            deadline: Some(std::time::Duration::from_millis(2)),
            max_retries: 0,
            ..SupervisorPolicy::default()
        },
        ..DegradePolicy::default()
    };
    let mut online = OnlineAero::with_policy(
        model,
        &night().train,
        PotConfig::default(),
        policy,
    )
    .expect("calibration");
    online.set_chaos_hook(Some(ChaosHook::new(|v| {
        if v == 1 {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    })));
    let mut gov = StreamGovernor::with_policy(online, tight_policy()).expect("policy");
    gov.set_fallback(Some(toy_fallback()));

    let tape = event_tape(5, 24);
    run_tape(&mut gov, &tape); // asserts finite scores + bounds throughout
    let stats = gov.online().supervisor().stats();
    assert!(
        stats.deadline_misses > 0,
        "the stalled shard never missed its deadline: {stats:?}"
    );
}

#[test]
fn full_wal_degrades_to_hold_last_instead_of_crashing() {
    use aero_core::LadderLevel;

    // The log device "fills up" after 6 appends (the injected ENOSPC
    // seam): the governor must detach the log, drop every star to
    // HoldLast, and keep serving — never an Err up the stream.
    let dir = std::env::temp_dir()
        .join(format!("aero_overload_walfull_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut gov = governed(tight_policy());
    let mut wal = WalWriter::create(&dir, WalConfig::default()).expect("wal");
    wal.inject_wal_full_after(6);
    gov.attach_wal(wal).expect("attach");

    let ds = night();
    let n = ds.num_variates();
    let base = *ds.train.timestamps().last().unwrap();
    let mut served = 0usize;
    for i in 0..16 {
        let frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, i)).collect();
        gov.offer(base + 1.0 + i as f64, &frame).expect("offer past a full log");
        if let Some(out) = gov.poll().expect("poll past a full log") {
            served += 1;
            if gov.wal_exhausted() {
                assert!(
                    out.levels.iter().all(|&l| l == LadderLevel::HoldLast),
                    "exhausted log must pin the ladder to HoldLast, got {:?}",
                    out.levels
                );
            }
        }
    }
    assert!(gov.wal_exhausted(), "the injected ENOSPC never fired");
    assert!(gov.take_wal().is_none(), "a full log must be detached");
    assert!(served >= 12, "the stream stalled after the log filled: {served}");
    let counters = gov.online().health().overload;
    assert_eq!(counters.frames_rejected, 0, "degrade, don't reject");

    // The on-disk prefix (the appends before the fault) stays a valid,
    // replayable log: a scrub finds nothing wrong with it.
    let report = aero_core::wal::verify(&dir, None).expect("scrub");
    assert!(report.is_clean(), "the pre-fault prefix is damaged: {:?}", report.findings);
    assert_eq!(report.frames, 6, "exactly the pre-fault appends are on disk");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Under any burst seed and queue geometry, the bounds and
    /// shed-priority invariants hold end to end and the final drain leaves
    /// no backlog.
    fn any_burst_schedule_respects_bounds_and_priority(
        seed in 0u64..1_000_000,
        ticks in 24usize..56,
        capacity in 4usize..12,
    ) {
        let policy = OverloadPolicy {
            queue_capacity: capacity,
            high_watermark: capacity / 2,
            low_watermark: capacity / 4,
            down_streak: 2,
            up_streak: 4,
            suspect_hold: 32,
            fallback_threshold: 3.0,
            tenant_quota: None,
        };
        let mut tape = Vec::new();
        let mut next = 0usize;
        for arrivals in LoadProfile::burst_night(seed, ticks).arrivals() {
            for _ in 0..arrivals {
                tape.push(Event::Offer(next));
                next += 1;
            }
            tape.push(Event::Poll);
        }
        tape.extend(std::iter::repeat_n(Event::Poll, capacity));
        let mut gov = governed(policy);
        run_tape(&mut gov, &tape); // invariants asserted inside
        prop_assert_eq!(gov.queue_depth(), 0, "drain left a backlog");
        prop_assert_eq!(gov.budget().used(), 0, "budget not released");
    }
}
