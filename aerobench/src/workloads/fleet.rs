//! `fleet_burst`: the `stream --shards` deployment under bursts. A 256-star
//! GWAC-like field is split across two shards that share one frozen
//! backbone (tiny config, fitted on 8 sampled stars) plus per-star scaler
//! deltas, each shard with its own governor, WAL and SR fallback rung. The
//! night arrives on an open loop: a steady stretch at a fixed rate, then a
//! stretch at the same rate with two seeded 8x episodes. Afterwards the
//! fleet is dropped and resumed from its WALs, and the resumed fleet
//! serves a closed loop for the rest of the measured seconds.
//!
//! This is the only workload where admission, shedding, the degradation
//! ladder, routing, parallel shard service and WAL replay all do real
//! work, and with 128 stars per detector Stage-2 has its largest share.
//!
//! The end-to-end latency comes from the steady stretch only. How long a
//! burst's backlog takes to drain grows much faster than the service time
//! (it is set by the gap between service and arrival rates), so on a host
//! whose speed wanders by a third the burst latency moved by 100% and more
//! between runs; it is reported per layer (`fleet.burst_p95_ms`).

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aero_baselines::sr::SpectralResidual;
use aero_core::{
    load_model, save_model, Admission, Aero, AeroConfig, BackboneSnapshot, DegradePolicy, Detector,
    DetectorError, FallbackScorer, FleetConfig, FleetCoordinator, FsyncPolicy, GovernedVerdict,
    OnlineAero, OverloadPolicy, ShardAssignment, ShardFactory, StarCatalog, StarDelta, WalConfig,
};
use aero_datagen::AstrosetConfig;
use aero_timeseries::{Dataset, LabelGrid, MinMaxScaler, MultivariateSeries};

use crate::common::{
    f1_of_flags, fail, spin_until, timed, trace_overhead_est_pct, Ctx, Night, Report, POT,
};
use crate::probes::{Probes, Samples};
use crate::stats::{median, percentile};
use crate::trace::{allocs, count_allocs, Tracer};
use crate::workloads::stream::{overload_layers, same_verdict};

const STARS: usize = 256;
const SHARDS: usize = 2;
/// A deeper admission queue than the default 64, so a burst degrades
/// service (the ladder and shedding act above the default high watermark
/// of 32) instead of turning frames away.
const QUEUE_CAP: usize = 256;
/// Base open-loop rate, frames per second: under a third of what two
/// shards sustain at the full rung on the reference host (~100 frames/s),
/// so the steady stretch builds no queue even when the host runs a third
/// slower.
const BASE_RATE: f64 = 30.0;
const BURST_FACTOR: f64 = 8.0;
const BURSTS: usize = 2;
/// Seconds per burst episode.
const BURST_S: f64 = 0.5;
/// Shares of the measured seconds: the steady stretch and the burst
/// stretch of the night. The resume follows (it replays the night, about
/// a third of the seconds) and the closed loop takes the rest.
const STEADY: f64 = 0.3;
const BURSTY: f64 = 0.15;
/// Routing seed of the shard partition (a deployment setting, not input).
const ROUTING_SEED: u64 = 7;

fn dataset(ctx: &Ctx) -> Dataset {
    let (train_len, test_len) = if ctx.smoke { (300, 600) } else { (800, 2400) };
    let variates = if ctx.smoke { 32 } else { STARS };
    AstrosetConfig {
        seed: ctx.seed,
        variates,
        train_len,
        test_len,
        ..AstrosetConfig::middle()
    }
    .build()
}

/// Per-star scaler deltas over `members`, as the CLI fleet factory builds
/// them.
fn deltas(
    train: &MultivariateSeries,
    members: &[usize],
) -> Result<(MultivariateSeries, Vec<StarDelta>), DetectorError> {
    let slice = train.select_variates(members)?;
    let mut scaler = MinMaxScaler::new();
    scaler.fit(&slice);
    let deltas = scaler
        .mins()
        .iter()
        .zip(scaler.ranges())
        .map(|(&lo, &range)| StarDelta {
            scaler_min: lo,
            scaler_range: range,
            adapter: None,
        })
        .collect();
    Ok((slice, deltas))
}

fn factory(train: Arc<MultivariateSeries>, backbone: BackboneSnapshot) -> ShardFactory {
    Arc::new(move |members: &[usize]| {
        let (slice, deltas) = deltas(&train, members)?;
        let model = Aero::from_backbone(&backbone, &deltas)?;
        OnlineAero::with_policy(model, &slice, POT, DegradePolicy::default())
    })
}

fn fallback() -> FallbackScorer {
    let sr = SpectralResidual::default();
    FallbackScorer::new(move |window| sr.latest_score(window))
}

fn config(wal_root: PathBuf) -> FleetConfig {
    FleetConfig {
        seed: ROUTING_SEED,
        overload: OverloadPolicy {
            queue_capacity: QUEUE_CAP,
            ..OverloadPolicy::default()
        },
        wal_root: Some(wal_root),
        wal: WalConfig {
            fsync: FsyncPolicy::EverySegment,
            ..WalConfig::default()
        },
        ..FleetConfig::default()
    }
}

struct Deployed {
    ds: Dataset,
    train: Arc<MultivariateSeries>,
    backbone: BackboneSnapshot,
    fleet: FleetCoordinator,
    catalog: StarCatalog,
    assignment: ShardAssignment,
    wal_root: PathBuf,
}

fn setup(ctx: &Ctx, tr: &mut Tracer, k: usize) -> Result<(Deployed, f64, f64, f64), String> {
    let t0 = Instant::now();
    let s = tr.begin("setup", k as u64);
    let ds = dataset(ctx);
    let n = ds.num_variates();
    let sample: Vec<usize> = (0..8).map(|i| i * n / 8).collect();
    let sample_series = ds
        .train
        .select_variates(&sample)
        .map_err(fail("sample stars"))?;
    let mut model = Aero::new(AeroConfig::tiny()).map_err(fail("model"))?;
    let f = tr.begin("train.fit", k as u64);
    let (r, fit_s) = timed(|| model.fit(&sample_series));
    tr.end(f);
    r.map_err(fail("fit backbone"))?;
    let path = ctx.work.join("backbone.json");
    let p = tr.begin("persist.save", k as u64);
    save_model(&model, &path).map_err(fail("save backbone"))?;
    tr.end(p);
    let p = tr.begin("persist.load", k as u64);
    let backbone = load_model(&path)
        .and_then(|m| m.backbone())
        .map_err(fail("load backbone"))?;
    tr.end(p);
    let train = Arc::new(ds.train.clone());
    let catalog = StarCatalog::sequential(n);
    let assignment =
        ShardAssignment::partition(&catalog, SHARDS, ROUTING_SEED).map_err(fail("partition"))?;
    let wal_root = ctx.dir(&format!("fleet-wal-{k}"))?;
    let c = tr.begin("online.calibrate", k as u64);
    let (fleet, calibrate_s) = timed(|| {
        FleetCoordinator::new(
            catalog.clone(),
            assignment.clone(),
            factory(Arc::clone(&train), backbone.clone()),
            Some(fallback()),
            config(wal_root.clone()),
        )
    });
    tr.end(c);
    let fleet = fleet.map_err(fail("fleet"))?;
    tr.end(s);
    let d = Deployed {
        ds,
        train,
        backbone,
        fleet,
        catalog,
        assignment,
        wal_root,
    };
    Ok((d, t0.elapsed().as_secs_f64(), fit_s, calibrate_s))
}

/// SplitMix64: a seeded stream for burst placement.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Due times (seconds from the night's start) of every frame, and how many
/// belong to the steady stretch: `steady_s` at the base rate, then
/// `bursty_s` at the base rate multiplied inside `BURSTS` seeded episodes.
/// Each episode starts in the first half of its share of the burst
/// stretch, so the ladder has the second half to climb back.
fn schedule(seed: u64, steady_s: f64, bursty_s: f64, base: f64) -> (Vec<f64>, usize) {
    let mut state = seed ^ 0xB0B5;
    let slot = bursty_s / BURSTS as f64;
    let starts: Vec<f64> = (0..BURSTS)
        .map(|b| {
            let room = (slot / 2.0 - BURST_S).max(0.0);
            steady_s
                + b as f64 * slot
                + room * (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    let mut due = Vec::new();
    let mut steady = 0;
    let mut t = 0.0;
    while t < steady_s + bursty_s {
        due.push(t);
        if t < steady_s {
            steady += 1;
        }
        let burst = starts.iter().any(|&s| t >= s && t < s + BURST_S);
        t += 1.0 / if burst { base * BURST_FACTOR } else { base };
    }
    (due, steady)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut tr = ctx.tracer();
    let mut fits = Vec::new();
    let mut calibrations = Vec::new();
    let mut deployed = None;
    let mut k = 0;
    while ctx.another_setup(&rep.setup_s) {
        // Drop the previous set-up first so its memory does not stack.
        drop(deployed.take());
        let (d, secs, fit_s, cal_s) = setup(ctx, &mut tr, k)?;
        rep.setup_s.push(secs);
        fits.push(fit_s);
        calibrations.push(cal_s);
        deployed = Some(d);
        k += 1;
    }
    let Deployed {
        ds,
        train,
        backbone,
        mut fleet,
        catalog,
        assignment,
        wal_root,
    } = deployed.expect("at least one set-up");
    let night = Night::new(ds.test.clone(), ds.test_labels.clone());
    let n = night.stars();
    let members0 = assignment.members(0).to_vec();

    let mut samples = ctx
        .trace
        .then(|| Samples::new(AeroConfig::tiny().window, &ds.train, Some(members0.clone())));

    let (due_s, steady) = schedule(
        ctx.seed,
        ctx.seconds * STEADY,
        ctx.seconds * BURSTY,
        BASE_RATE,
    );
    let frames = due_s.len();
    let mut burst_ms = Vec::new();

    // Per shard: admitted frame ids awaiting a verdict, and every verdict
    // emitted with the frame it belongs to.
    let mut inflight: Vec<VecDeque<usize>> = vec![VecDeque::new(); SHARDS];
    let mut emitted: Vec<Vec<GovernedVerdict>> = vec![Vec::new(); SHARDS];
    let mut emitted_frames: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
    let mut pending = vec![0usize; frames];
    let mut offered = 0u64;
    let mut rejected = 0u64;
    let mut poll_ms = Vec::new();
    let mut depths = Vec::new();
    let mut skews = Vec::new();
    let mut late_s = Vec::new();
    let mut values = Vec::with_capacity(n);
    aero_tensor::workspace::reset_stats();
    let allocs0 = allocs();
    count_allocs(ctx.trace);
    let spans0 = tr.len();
    let measured = Instant::now();
    let due = |i: usize| measured + Duration::from_secs_f64(due_s[i]);
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        while next < frames && due(next) <= now {
            night.fill(next, &mut values);
            let s = tr.begin("fleet.offer", next as u64);
            let admissions = fleet
                .offer(night.timestamp(next), &values)
                .map_err(fail("offer"))?;
            tr.end(s);
            offered += 1;
            for (k, a) in admissions.into_iter().enumerate() {
                match a {
                    Some(Admission::Accepted { .. }) => {
                        inflight[k].push_back(next);
                        pending[next] += 1;
                    }
                    _ => rejected += 1,
                }
            }
            next += 1;
        }
        if inflight.iter().all(VecDeque::is_empty) {
            if next >= frames {
                break;
            }
            if let Some(late) = spin_until(due(next)) {
                late_s.push(late);
            }
            continue;
        }
        let d0 = inflight[0].len() as f64;
        let d1 = inflight.get(1).map_or(0, VecDeque::len) as f64;
        depths.push(d0.max(d1));
        skews.push((d0 - d1).abs());
        let s = tr.begin("fleet.poll", next as u64);
        let (round, secs) = timed(|| fleet.poll());
        tr.end(s);
        poll_ms.push(secs * 1e3);
        for (k, v) in round.map_err(fail("poll"))?.into_iter().enumerate() {
            let Some(v) = v else { continue };
            let frame = inflight[k]
                .pop_front()
                .ok_or("a shard emitted a verdict it was never offered")?;
            pending[frame] -= 1;
            if pending[frame] == 0 {
                let ms = due(frame).elapsed().as_secs_f64() * 1e3;
                if frame < steady {
                    rep.latency_ms.push(ms);
                } else {
                    burst_ms.push(ms);
                }
                if let Some(s) = samples.as_mut() {
                    s.served(frame, night.timestamp(frame), night.frame(frame));
                }
            }
            emitted[k].push(v);
            emitted_frames[k].push(frame);
        }
    }
    let night_wall = measured.elapsed().as_secs_f64();
    for (k, shard) in fleet
        .drain()
        .map_err(fail("drain"))?
        .into_iter()
        .enumerate()
    {
        for v in shard {
            emitted_frames[k].push(
                inflight[k]
                    .pop_front()
                    .ok_or("drain emitted an unoffered verdict")?,
            );
            emitted[k].push(v);
        }
    }
    let health = fleet.health();
    let rejected_night = rejected;
    drop(fleet);

    // Crash recovery: a fresh coordinator over the same WAL root replays
    // every shard's log.
    let r = tr.begin("fleet.resume", 0);
    let (resumed, resume_s) = timed(|| {
        FleetCoordinator::resume(
            catalog.clone(),
            assignment.clone(),
            factory(Arc::clone(&train), backbone.clone()),
            Some(fallback()),
            config(wal_root.clone()),
        )
    });
    tr.end(r);
    let (mut fleet, recovered) = resumed.map_err(fail("resume"))?;
    let tail = fleet.drain().map_err(fail("drain resumed"))?;
    let mut replay_equal = true;
    let mut replayed_total = 0usize;
    for k in 0..SHARDS {
        replayed_total += recovered.replayed[k].len();
        let again: Vec<&GovernedVerdict> = recovered.replayed[k].iter().chain(&tail[k]).collect();
        replay_equal &= again.len() == emitted[k].len()
            && again.iter().zip(&emitted[k]).all(|(a, b)| {
                same_verdict(&a.verdict, &b.verdict) && a.shed == b.shed && a.levels == b.levels
            });
    }
    rep.check(
        "resume_replays_bitwise",
        replay_equal,
        format!(
            "{replayed_total} replayed + {} drained verdicts against {} emitted",
            tail.iter().map(Vec::len).sum::<usize>(),
            emitted.iter().map(Vec::len).sum::<usize>()
        ),
    );

    // The resumed fleet, closed loop, for the rest of the measured seconds
    // (at least 20 frames should the resume overrun them).
    let tb = Instant::now();
    let mut served_b = 0usize;
    while measured.elapsed() < Duration::from_secs_f64(ctx.seconds) || served_b < 20 {
        night.fill(next, &mut values);
        let t_op = Instant::now();
        let s = tr.begin("fleet.offer", next as u64);
        let admissions = fleet
            .offer(night.timestamp(next), &values)
            .map_err(fail("offer"))?;
        tr.end(s);
        offered += 1;
        let accepted = admissions
            .iter()
            .filter(|a| matches!(a, Some(Admission::Accepted { .. })))
            .count();
        rejected += (SHARDS - accepted) as u64;
        let s = tr.begin("fleet.poll", next as u64);
        let (round, secs) = timed(|| fleet.poll());
        tr.end(s);
        poll_ms.push(secs * 1e3);
        let got = round
            .map_err(fail("poll"))?
            .iter()
            .filter(|v| v.is_some())
            .count();
        if got != accepted {
            return Err(format!(
                "closed-loop round served {got} of {accepted} shard slices"
            ));
        }
        rep.closed_ms.push(t_op.elapsed().as_secs_f64() * 1e3);
        next += 1;
        served_b += 1;
    }
    let elapsed_b = tb.elapsed().as_secs_f64();
    let measured_s = measured.elapsed().as_secs_f64();
    let overhead = trace_overhead_est_pct(tr.len() - spans0, measured_s);
    count_allocs(false);
    let heap_allocs = allocs() - allocs0;
    let pool = aero_tensor::workspace::stats();
    rep.stars_per_op = n as f64;
    rep.attempted = offered;
    rep.failed = rejected;
    rep.note(format!(
        "night: {frames} frames in {night_wall:.2} s ({steady} steady at {BASE_RATE}/s, then {BURSTS} x {BURST_S} s at {BURST_FACTOR}x; \
         burst p95 {:.1} ms over {}); resume {resume_s:.2} s; closed loop: {served_b} frames in {elapsed_b:.2} s",
        percentile(&burst_ms, 0.95),
        burst_ms.len(),
    ));

    let slices: usize = emitted.iter().map(Vec::len).sum();
    rep.check(
        "frame_conservation",
        inflight.iter().all(VecDeque::is_empty)
            && slices as u64 + rejected_night == (frames * SHARDS) as u64,
        format!(
            "{slices} shard verdicts + {rejected_night} rejected slices of {} offered",
            frames * SHARDS
        ),
    );

    // Shard verdicts back onto global stars, for F1.
    let mut flags = LabelGrid::new(n, night.labels.cols());
    for k in 0..SHARDS {
        let members = assignment.members(k);
        for (v, &frame) in emitted[k].iter().zip(&emitted_frames[k]) {
            if frame < night.labels.cols() {
                for (local, star) in v.verdict.stars.iter().enumerate() {
                    flags.set(members[local], frame, star.anomalous);
                }
            }
        }
    }

    if let Some(samples) = samples {
        let (slice, d) = deltas(&train, &members0).map_err(fail("probe deltas"))?;
        let mut probes = Probes::new(ctx, &backbone, &d)?;
        samples.probe(&mut probes, &mut tr)?;
        let l = &mut rep.layers;
        l.set("train.fit_s", median(&fits));
        l.set("online.calibrate_s", median(&calibrations));
        l.set("tensor.workspace_misses", pool.buffer_misses as f64);
        l.set(
            "tensor.heap_allocs_per_op",
            heap_allocs as f64 / offered.max(1) as f64,
        );
        l.set("service.call_ms_p50", percentile(&poll_ms, 0.5));
        l.set("service.call_ms_p99", percentile(&poll_ms, 0.99));
        let all: Vec<GovernedVerdict> = emitted.iter().flatten().cloned().collect();
        overload_layers(
            l,
            &health.aggregate,
            &all,
            (frames * SHARDS) as u64,
            rejected_night,
            n as f64 / SHARDS as f64,
            &depths,
        );
        l.set("fleet.shard_queue_skew", percentile(&skews, 0.99));
        l.set("fleet.frames_replayed", replayed_total as f64);
        l.set("fleet.resume_s", resume_s);
        l.set("fleet.burst_p95_ms", percentile(&burst_ms, 0.95));
        l.set(
            "gen.late_pct_p99",
            percentile(&late_s, 0.99) * BASE_RATE * 100.0,
        );
        l.set("eval.f1", f1_of_flags(&flags, &night.labels, frames));
        let calib = probes.scores(&slice)?;
        probes.finish(&mut tr, &mut rep.layers, &calib)?;
        rep.layers.set("trace.overhead_est_pct", overhead);
    }
    rep.tracer = Some(tr);
    Ok(rep)
}
