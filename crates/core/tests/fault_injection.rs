//! Full-night robustness integration tests: stream a synthetic GWAC night
//! through [`OnlineAero`] with ≥5% of frames corrupted and check that the
//! pipeline degrades instead of failing — no panics, no non-finite scores,
//! quarantined stars surfaced in the health report, and detection quality
//! on the clean portion of the night unchanged from a no-fault run.

use std::sync::OnceLock;

use aero_core::online::{FrameDisposition, OnlineAero, StarStatus};
use aero_core::{load_model, save_model, Aero, AeroConfig, BackboneSnapshot, StarDelta};
use aero_datagen::{FaultInjector, FaultPlan, SyntheticConfig};
use aero_eval::evaluate_point_adjusted;
use aero_evt::PotConfig;
use aero_timeseries::{Dataset, LabelGrid, MultivariateSeries};
use proptest::prelude::*;

fn night() -> Dataset {
    let mut cfg = SyntheticConfig::tiny(20240805);
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
            .join(format!("aero_fault_injection_model_{}.json", std::process::id()));
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

fn fresh_online() -> OnlineAero {
    let model = shared_model();
    OnlineAero::new(model, &night().train, PotConfig::default()).expect("calibration")
}

/// Streams every frame, recording per-star flags against the *original*
/// frame index (frames the detector dropped or never saw stay unflagged).
fn stream_flags(
    online: &mut OnlineAero,
    frames: &[(f64, Vec<f32>, usize)],
    n: usize,
    len: usize,
) -> LabelGrid {
    let mut pred = LabelGrid::new(n, len);
    for (timestamp, values, source) in frames {
        let verdict = online.push(*timestamp, values).expect("push never fails on data faults");
        assert!(
            verdict.stars.iter().all(|s| s.score.is_finite()),
            "non-finite score at source frame {source}"
        );
        if verdict.disposition == FrameDisposition::Scored {
            for (v, star) in verdict.stars.iter().enumerate() {
                if star.anomalous {
                    pred.mark_range(v, *source, *source).unwrap();
                }
            }
        }
    }
    pred
}

/// Columns whose scoring window contains no corrupted frame: detection
/// there is driven entirely by real telemetry, so quality must match a
/// fault-free run.
fn window_clean_columns(log: &aero_datagen::FaultLog, window: usize) -> Vec<usize> {
    (0..log.corrupted.len())
        .filter(|&t| {
            let start = t.saturating_sub(window);
            (start..=t).all(|u| !log.corrupted[u])
        })
        .collect()
}

fn select_columns(grid: &LabelGrid, cols: &[usize]) -> LabelGrid {
    LabelGrid::from_fn(grid.rows(), cols.len(), |r, i| grid.get(r, cols[i]))
}

#[test]
fn corrupted_night_streams_without_failing() {
    let ds = night();
    let n = ds.num_variates();
    let len = ds.test.len();
    // Gentler per-frame rates than `rough_night` so stretches with a fully
    // clean scoring window survive for the quality comparison; the 40-frame
    // blackout alone corrupts 10% of the night, keeping total corruption
    // above the 5% floor.
    let plan = FaultPlan {
        seed: 77,
        nan_rate: 0.002,
        inf_rate: 0.0005,
        drop_frame_rate: 0.01,
        duplicate_rate: 0.01,
        out_of_order_rate: 0.01,
        stuck_episodes: 1,
        stuck_len: 15,
        blackout_episodes: 1,
        blackout_len: 40,
    };
    let (stream, log) = FaultInjector::new(plan).corrupt_stream(&ds.test);
    assert!(
        log.corrupted_fraction() >= 0.05,
        "fault plan too gentle: {:.3}",
        log.corrupted_fraction()
    );

    // Clean reference run.
    let mut clean_online = fresh_online();
    let clean_frames: Vec<(f64, Vec<f32>, usize)> = (0..len)
        .map(|t| {
            (
                ds.test.timestamps()[t],
                (0..n).map(|v| ds.test.get(v, t)).collect(),
                t,
            )
        })
        .collect();
    let clean_pred = stream_flags(&mut clean_online, &clean_frames, n, len);
    assert!(clean_online.health().is_clean(), "{}", clean_online.health());

    // Corrupted run over the same night.
    let mut rough_online = fresh_online();
    let window = rough_online.capacity();
    let rough_frames: Vec<(f64, Vec<f32>, usize)> = stream
        .iter()
        .map(|f| (f.timestamp, f.values.clone(), f.source_index))
        .collect();
    let rough_pred = stream_flags(&mut rough_online, &rough_frames, n, len);

    // The health report must surface the degradation the plan injected.
    let health = rough_online.health();
    assert!(!health.is_clean(), "corruption went unnoticed: {health}");
    assert!(health.values_imputed > 0, "{health}");
    assert!(
        health.frames_dropped_stale + health.frames_dropped_duplicate > 0,
        "{health}"
    );
    assert!(health.frames_gap_filled > 0, "{health}");
    // The 40-frame blackout must have pushed its star into quarantine.
    assert!(health.quarantine_events >= 1, "{health}");

    // On columns whose full scoring window is clean telemetry, detection
    // quality must match the no-fault run (within 2 F1 points).
    let clean_cols = window_clean_columns(&log, window);
    assert!(
        clean_cols.len() >= 20,
        "too few window-clean columns ({}) to compare quality",
        clean_cols.len()
    );
    let truth = select_columns(&ds.test_labels, &clean_cols);
    let clean_metrics = evaluate_point_adjusted(&select_columns(&clean_pred, &clean_cols), &truth);
    let rough_metrics = evaluate_point_adjusted(&select_columns(&rough_pred, &clean_cols), &truth);
    assert!(
        (clean_metrics.f1 - rough_metrics.f1).abs() <= 0.02,
        "clean-portion F1 drifted: clean run {:.3}, corrupted run {:.3}",
        clean_metrics.f1,
        rough_metrics.f1
    );
}

#[test]
fn blackout_star_recovers_after_data_returns() {
    let ds = night();
    let n = ds.num_variates();
    let mut online = fresh_online();
    let base = *ds.train.timestamps().last().unwrap();
    let window = online.capacity();

    // Black out star 0 for a full window, then restore it.
    for t in 0..window {
        let mut frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, t)).collect();
        frame[0] = f32::NAN;
        online.push(base + 1.0 + t as f64, &frame).unwrap();
    }
    assert_eq!(online.star_status()[0], StarStatus::Quarantined);

    for t in window..3 * window {
        let frame: Vec<f32> = (0..n).map(|v| ds.test.get(v, t % ds.test.len())).collect();
        online.push(base + 1.0 + t as f64, &frame).unwrap();
    }
    assert_eq!(
        online.star_status()[0],
        StarStatus::Nominal,
        "star 0 stuck in {:?} after clean data returned",
        online.star_status()[0]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under *any* fault plan, `push` never errors on data faults and
    /// never emits a non-finite score.
    fn push_scores_stay_finite_under_any_fault_plan(
        seed in 0u64..1_000_000,
        nan_rate in 0.0f64..0.3,
        inf_rate in 0.0f64..0.1,
        drop_rate in 0.0f64..0.2,
        dup_rate in 0.0f64..0.2,
        ooo_rate in 0.0f64..0.2,
        blackouts in 0usize..3,
    ) {
        let plan = FaultPlan {
            seed,
            nan_rate,
            inf_rate,
            drop_frame_rate: drop_rate,
            duplicate_rate: dup_rate,
            out_of_order_rate: ooo_rate,
            stuck_episodes: 1,
            stuck_len: 20,
            blackout_episodes: blackouts,
            blackout_len: 30,
        };
        let ds = night();
        let n = ds.num_variates();
        let (stream, _) = FaultInjector::new(plan).corrupt_stream(&ds.test);
        let mut online = fresh_online();
        for f in &stream {
            let verdict = online.push(f.timestamp, &f.values).unwrap();
            prop_assert!(
                verdict.stars.iter().all(|s| s.score.is_finite()),
                "non-finite score under plan {plan:?}"
            );
            prop_assert_eq!(verdict.stars.len(), n);
        }
        let h = online.health();
        prop_assert_eq!(
            h.frames_accepted + h.frames_dropped_stale + h.frames_dropped_duplicate,
            stream.len()
        );
    }

    /// Layered faults — a star blackout *plus* duplicated *plus*
    /// out-of-order frames over the same stretch — must reconcile exactly
    /// against an independent arrival-order simulation: every frame is
    /// counted once as accepted, stale, or duplicate (never twice, never
    /// zero times), and every imputed value traces to a non-finite value in
    /// an accepted frame.
    fn layered_fault_counters_reconcile_exactly(
        seed in 0u64..1_000_000,
        dup_rate in 0.01f64..0.2,
        ooo_rate in 0.01f64..0.2,
        blackouts in 1usize..3,
        blackout_len in 20usize..41,
    ) {
        let plan = FaultPlan {
            seed,
            nan_rate: 0.0,
            inf_rate: 0.0,
            drop_frame_rate: 0.0,
            duplicate_rate: dup_rate,
            out_of_order_rate: ooo_rate,
            stuck_episodes: 0,
            stuck_len: 0,
            blackout_episodes: blackouts,
            blackout_len,
        };
        let ds = night();
        let (stream, log) = FaultInjector::new(plan).corrupt_stream(&ds.test);
        prop_assert!(log.values_blacked_out > 0);
        let stream = &stream[..stream.len().min(200)];

        // Reference simulation: disposition depends on arrival-order
        // timestamps alone, imputation on the values of accepted frames.
        let calib_last = *ds.train.timestamps().last().unwrap();
        let mut last_ts = calib_last;
        let (mut exp_accepted, mut exp_stale, mut exp_dup, mut exp_imputed) = (0, 0, 0, 0);
        for f in stream {
            if !f.timestamp.is_finite() || f.timestamp < last_ts {
                exp_stale += 1;
            } else if f.timestamp == last_ts {
                exp_dup += 1;
            } else {
                last_ts = f.timestamp;
                exp_accepted += 1;
                exp_imputed += f.values.iter().filter(|v| !v.is_finite()).count();
            }
        }

        let mut online = fresh_online();
        for f in stream {
            online.push(f.timestamp, &f.values).unwrap();
        }
        let h = online.health();
        prop_assert_eq!(h.frames_accepted, exp_accepted, "{}", h);
        prop_assert_eq!(h.frames_dropped_stale, exp_stale, "{}", h);
        prop_assert_eq!(h.frames_dropped_duplicate, exp_dup, "{}", h);
        prop_assert_eq!(h.values_imputed, exp_imputed, "{}", h);
        prop_assert_eq!(
            h.frames_accepted + h.frames_dropped_stale + h.frames_dropped_duplicate,
            stream.len(),
            "a frame was double-counted or lost: {}", h
        );
    }
}

/// `MultivariateSeries` rejects non-monotonic timestamps, so the injector's
/// in-place mode must leave timestamps untouched.
#[test]
fn corrupt_series_preserves_timestamps() {
    let ds = night();
    let mut copy = ds.test.clone();
    FaultInjector::new(FaultPlan::rough_night(5)).corrupt_series(&mut copy);
    assert_eq!(copy.timestamps(), ds.test.timestamps());
    let _ = MultivariateSeries::new(copy.values().clone(), copy.timestamps().to_vec())
        .expect("corrupted series still structurally valid");
}
