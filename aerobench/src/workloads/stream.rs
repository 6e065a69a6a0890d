//! `stream_steady`: the `detect --save-model` → `stream --model` deployment.
//! A model is fitted, checkpointed and reloaded, calibrated into an
//! `OnlineAero`, and served through a `StreamGovernor` (default policy)
//! writing a WAL. The measured phase alternates an open loop at under half
//! of capacity with a closed loop that offers frames back to back.
//!
//! Stage-1 inference is nearly all of every poll and the queue stays below
//! the high watermark, so the overload layer idles: an overload change
//! should not move this workload, an inference change should.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use aero_core::online::FrameVerdict;
use aero_core::{
    load_model, save_model, Aero, AeroConfig, Detector, FsyncPolicy, GovernedVerdict, LadderLevel,
    OnlineAero, PriorityClass, StreamGovernor, WalConfig, WalWriter,
};
use aero_datagen::SyntheticConfig;
use aero_timeseries::{Dataset, LabelGrid};

use crate::common::{
    f1_of_flags, fail, timed, trace_overhead_est_pct, Ctx, Night, Pacer, Report, POT,
};
use crate::probes::{Probes, Samples};
use crate::stats::{median, percentile};
use crate::trace::{allocs, count_allocs, Tracer};

/// Open-loop arrival rate, frames per second: 40% of what this model
/// sustains on the reference host (~9 ms per frame), and 60% when the host
/// runs 1.5x slower, so the queue never grows.
const OPEN_RATE: f64 = 45.0;
/// Share of the measured seconds spent on the open loop.
const OPEN_SHARE: f64 = 0.65;
/// The measured phase alternates open- and closed-loop segments this many
/// times, so a slow stretch of the host lasting a few seconds cannot cover
/// all of either kind.
const CYCLES: usize = 4;
/// Frames of the governed stream replayed through a plain `OnlineAero`.
const CHECK_PREFIX: usize = 150;

fn dataset(ctx: &Ctx) -> Dataset {
    let (train_len, test_len) = if ctx.smoke { (300, 400) } else { (600, 2000) };
    SyntheticConfig {
        seed: ctx.seed,
        train_len,
        test_len,
        ..SyntheticConfig::middle()
    }
    .build()
}

/// The CLI's `detect` model (`AeroConfig::fast()`), with the epoch count
/// capped at the early-stopping patience so every seed trains for the same
/// number of epochs.
fn model_config(ctx: &Ctx) -> AeroConfig {
    if ctx.smoke {
        AeroConfig::tiny()
    } else {
        let mut c = AeroConfig::fast();
        c.max_epochs = c.patience.min(3);
        c
    }
}

struct Deployed {
    ds: Dataset,
    gov: StreamGovernor,
    checkpoint: std::path::PathBuf,
}

fn setup(ctx: &Ctx, tr: &mut Tracer, k: usize) -> Result<(Deployed, f64, f64, f64), String> {
    let t0 = Instant::now();
    let s = tr.begin("setup", k as u64);
    let ds = dataset(ctx);
    let mut model = Aero::new(model_config(ctx)).map_err(fail("model"))?;
    let f = tr.begin("train.fit", k as u64);
    let (r, fit_s) = timed(|| model.fit(&ds.train));
    tr.end(f);
    r.map_err(fail("fit"))?;
    let checkpoint = ctx.work.join("model.json");
    let p = tr.begin("persist.save", k as u64);
    save_model(&model, &checkpoint).map_err(fail("save checkpoint"))?;
    tr.end(p);
    let p = tr.begin("persist.load", k as u64);
    let loaded = load_model(&checkpoint).map_err(fail("load checkpoint"))?;
    tr.end(p);
    let c = tr.begin("online.calibrate", k as u64);
    let (online, calibrate_s) = timed(|| OnlineAero::new(loaded, &ds.train, POT));
    tr.end(c);
    let mut gov =
        StreamGovernor::new(online.map_err(fail("calibrate"))?).map_err(fail("governor"))?;
    let wal_dir = ctx.dir(&format!("wal-{k}"))?;
    let wal = WalWriter::create(
        &wal_dir,
        WalConfig {
            fsync: FsyncPolicy::EverySegment,
            ..WalConfig::default()
        },
    )
    .map_err(fail("WAL"))?;
    gov.attach_wal(wal).map_err(fail("attach WAL"))?;
    tr.end(s);
    Ok((
        Deployed {
            ds,
            gov,
            checkpoint,
        },
        t0.elapsed().as_secs_f64(),
        fit_s,
        calibrate_s,
    ))
}

/// Bitwise equality of two verdicts (timestamp, disposition, every star's
/// score bits, flag and status).
pub fn same_verdict(a: &FrameVerdict, b: &FrameVerdict) -> bool {
    a.timestamp.to_bits() == b.timestamp.to_bits()
        && a.disposition == b.disposition
        && a.stars.len() == b.stars.len()
        && a.stars.iter().zip(&b.stars).all(|(x, y)| {
            x.score.to_bits() == y.score.to_bits()
                && x.anomalous == y.anomalous
                && x.status == y.status
        })
}

/// True when a star of this governed verdict was served below the full
/// two-stage pipeline (Stage-1 only, fallback or held).
pub fn degraded_star(v: &GovernedVerdict, star: usize) -> bool {
    !v.shed[star]
        && v.classes[star] != PriorityClass::Suspect
        && v.levels[star] != LadderLevel::FullAero
}

/// The measured phase's state, shared by its open- and closed-loop
/// segments.
struct Measure<'a> {
    gov: &'a mut StreamGovernor,
    night: &'a Night,
    tr: &'a mut Tracer,
    samples: Option<Samples>,
    verdicts: Vec<GovernedVerdict>,
    poll_ms: Vec<f64>,
    /// Queue depth before each open-loop poll.
    depths: Vec<f64>,
    late_s: Vec<f64>,
    rejected: u64,
    /// Next frame of the night to offer.
    next: usize,
    values: Vec<f32>,
}

impl Measure<'_> {
    /// Offers the next frame; false when the governor rejected it.
    fn offer(&mut self) -> Result<bool, String> {
        let i = self.next;
        self.night.fill(i, &mut self.values);
        let s = self.tr.begin("gen.offer", i as u64);
        let admission = self
            .gov
            .offer(self.night.timestamp(i), &self.values)
            .map_err(fail("offer"))?;
        self.tr.end(s);
        self.next += 1;
        if !admission.is_accepted() {
            self.rejected += 1;
        }
        Ok(admission.is_accepted())
    }

    /// Serves the oldest queued frame, `frame`.
    fn poll(&mut self, frame: usize) -> Result<(), String> {
        let s = self.tr.begin("overload.poll", frame as u64);
        let (v, secs) = timed(|| self.gov.poll());
        self.tr.end(s);
        let v = v
            .map_err(fail("poll"))?
            .ok_or("poll returned no verdict for a queued frame")?;
        self.poll_ms.push(secs * 1e3);
        if let Some(samples) = self.samples.as_mut() {
            samples.served(frame, self.night.timestamp(frame), self.night.frame(frame));
        }
        self.verdicts.push(v);
        Ok(())
    }

    /// `frames` frames on an open loop at `rate`: every overdue frame is
    /// offered, then one poll; each verdict's latency counts from its due
    /// time.
    fn open(&mut self, rate: f64, frames: usize, latency_ms: &mut Vec<f64>) -> Result<(), String> {
        let pacer = Pacer::new(rate);
        let first = self.next;
        let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
        while self.next < first + frames || !inflight.is_empty() {
            let now = Instant::now();
            while self.next < first + frames && pacer.due(self.next - first) <= now {
                let (frame, due) = (self.next, pacer.due(self.next - first));
                if self.offer()? {
                    inflight.push_back((frame, due));
                }
            }
            if inflight.is_empty() {
                if let Some(late) = pacer.wait_for(self.next - first) {
                    self.late_s.push(late / pacer.gap_s());
                }
                continue;
            }
            self.depths.push(self.gov.queue_depth() as f64);
            let (frame, due) = inflight.pop_front().expect("checked non-empty");
            self.poll(frame)?;
            latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    }

    /// Frames back to back for `secs`: offer, then poll. Returns the frames
    /// served.
    fn closed(&mut self, secs: f64, closed_ms: &mut Vec<f64>) -> Result<usize, String> {
        let t0 = Instant::now();
        let mut served = 0;
        while t0.elapsed() < Duration::from_secs_f64(secs) || served == 0 {
            let t_op = Instant::now();
            let frame = self.next;
            if self.offer()? {
                self.poll(frame)?;
                closed_ms.push(t_op.elapsed().as_secs_f64() * 1e3);
                served += 1;
            }
        }
        Ok(served)
    }
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
        mut gov,
        checkpoint,
    } = deployed.expect("at least one set-up");
    let night = Night::new(ds.test.clone(), ds.test_labels.clone());
    let n = night.stars();
    let window = model_config(ctx).window;

    let rate = if ctx.smoke { 100.0 } else { OPEN_RATE };
    let cycles = if ctx.smoke { 1 } else { CYCLES };
    let open_frames = ((rate * ctx.seconds * OPEN_SHARE) as usize / cycles).max(1);
    let closed_secs = ctx.seconds * (1.0 - OPEN_SHARE) / cycles as f64;

    aero_tensor::workspace::reset_stats();
    let allocs0 = allocs();
    count_allocs(ctx.trace);
    let spans0 = tr.len();
    let measured = Instant::now();
    let mut m = Measure {
        gov: &mut gov,
        night: &night,
        tr: &mut tr,
        samples: ctx.trace.then(|| Samples::new(window, &ds.train, None)),
        verdicts: Vec::new(),
        poll_ms: Vec::new(),
        depths: Vec::new(),
        late_s: Vec::new(),
        rejected: 0,
        next: 0,
        values: Vec::with_capacity(n),
    };
    let mut served_closed = 0;
    for _ in 0..cycles {
        m.open(rate, open_frames, &mut rep.latency_ms)?;
        served_closed += m.closed(closed_secs, &mut rep.closed_ms)?;
    }
    let measured_s = measured.elapsed().as_secs_f64();
    let overhead = trace_overhead_est_pct(m.tr.len() - spans0, measured_s);
    count_allocs(false);
    let heap_allocs = allocs() - allocs0;
    let pool = aero_tensor::workspace::stats();
    let Measure {
        samples,
        mut verdicts,
        poll_ms,
        depths,
        late_s,
        rejected,
        next,
        mut values,
        ..
    } = m;
    rep.stars_per_op = n as f64;
    for v in gov.drain().map_err(fail("drain"))? {
        verdicts.push(v);
    }
    rep.attempted = next as u64;
    rep.failed = rejected;
    rep.note(format!(
        "{cycles} cycles of {open_frames} frames at {rate} frames/s then {closed_secs:.2} s closed loop ({served_closed} frames)"
    ));

    // Correctness: the governed stream equals a plain push loop over the
    // same checkpoint, up to the first frame the governor degraded.
    let health = gov.online().health().clone();
    let clean_prefix = verdicts
        .iter()
        .take(CHECK_PREFIX)
        .take_while(|v| (0..v.shed.len()).all(|s| !v.shed[s] && !degraded_star(v, s)))
        .count();
    let mut reference = OnlineAero::new(
        load_model(&checkpoint).map_err(fail("reload"))?,
        &ds.train,
        POT,
    )
    .map_err(fail("reference calibrate"))?;
    let mut equal = 0usize;
    for (i, v) in verdicts.iter().take(clean_prefix).enumerate() {
        night.fill(i, &mut values);
        let plain = reference
            .push(night.timestamp(i), &values)
            .map_err(fail("reference push"))?;
        if same_verdict(&plain, &v.verdict) {
            equal += 1;
        }
    }
    rep.check(
        "governed_equals_plain_push",
        clean_prefix > 0 && equal == clean_prefix,
        format!("{equal}/{clean_prefix} leading verdicts bitwise equal"),
    );
    let backlog = median(&depths[depths.len() * 3 / 4..]);
    rep.check(
        "open_loop_backlog_steady",
        backlog <= 2.0,
        format!("median queue depth over the last quarter of the open loop: {backlog}"),
    );
    rep.check(
        "no_dropped_frames",
        health.frames_dropped_stale == 0 && health.frames_dropped_duplicate == 0,
        format!(
            "{} stale, {} duplicate",
            health.frames_dropped_stale, health.frames_dropped_duplicate
        ),
    );
    rep.check(
        "frame_conservation",
        verdicts.len() as u64 + rejected == rep.attempted,
        format!(
            "{} verdicts + {rejected} rejected of {} offered",
            verdicts.len(),
            rep.attempted
        ),
    );

    if let Some(samples) = samples {
        let model = load_model(&checkpoint).map_err(fail("reload for probes"))?;
        let mut probes = Probes::of_model(ctx, &model, n)?;
        // Each probe follows one poll of the live governor on the next
        // frame of the night, so that the check below compares the two at
        // the same host speed (the probes run after the measured phase,
        // and the host's speed wanders by a third).
        let mut paired_poll_ms = Vec::new();
        let mut next = next;
        for (frame, window, ts, sampled) in samples.into_taken() {
            night.fill(next, &mut values);
            gov.offer(night.timestamp(next), &values)
                .map_err(fail("paired offer"))?;
            next += 1;
            let (v, secs) = timed(|| gov.poll());
            v.map_err(fail("paired poll"))?;
            paired_poll_ms.push(secs * 1e3);
            probes.frame(&mut tr, frame, &window, ts, &sampled)?;
        }
        let share = probes.model_ms() / median(&paired_poll_ms);
        rep.check(
            "model_share_of_poll",
            share >= 0.9,
            format!(
                "probed Stage-1 + Stage-2 = {:.3} ms = {:.1}% of the median paired poll, {:.3} ms (at least 90%; median poll of the measured phase {:.3} ms)",
                probes.model_ms(),
                share * 100.0,
                median(&paired_poll_ms),
                percentile(&poll_ms, 0.5),
            ),
        );
        let l = &mut rep.layers;
        l.set("train.fit_s", median(&fits));
        l.set("online.calibrate_s", median(&calibrations));
        l.set("tensor.workspace_misses", pool.buffer_misses as f64);
        l.set(
            "tensor.heap_allocs_per_op",
            heap_allocs as f64 / next.max(1) as f64,
        );
        l.set("service.call_ms_p50", percentile(&poll_ms, 0.5));
        l.set("service.call_ms_p99", percentile(&poll_ms, 0.99));
        overload_layers(
            l,
            &health,
            &verdicts,
            rep.attempted,
            rejected,
            n as f64,
            &depths,
        );
        l.set("gen.late_pct_p99", percentile(&late_s, 0.99) * 100.0);
        l.set(
            "eval.f1",
            f1_of_flags(
                &flags_of(&verdicts, n, &night.labels),
                &night.labels,
                verdicts.len(),
            ),
        );
        rep.layers.set("trace.overhead_est_pct", overhead);
        let calib = probes.scores(&ds.train)?;
        probes.finish(&mut tr, &mut rep.layers, &calib)?;
    }
    rep.tracer = Some(tr);
    Ok(rep)
}

/// Per-star flags over the first pass of the night (verdict `t` is frame
/// `t`: the stream drops nothing).
fn flags_of(verdicts: &[GovernedVerdict], n: usize, labels: &LabelGrid) -> LabelGrid {
    let mut flags = LabelGrid::new(n, labels.cols());
    for (t, v) in verdicts.iter().enumerate().take(labels.cols()) {
        for (s, star) in v.verdict.stars.iter().enumerate() {
            flags.set(s, t, star.anomalous);
        }
    }
    flags
}

/// Overload-layer counters and ratios from a governor's health report and
/// its served verdicts. `slices` frames (or shard slices) of
/// `stars_per_slice` stars each were offered, `rejected` of them turned
/// away.
pub fn overload_layers(
    l: &mut crate::metrics::Layers,
    health: &aero_core::HealthReport,
    verdicts: &[GovernedVerdict],
    slices: u64,
    rejected: u64,
    stars_per_slice: f64,
    depths: &[f64],
) {
    let ov = &health.overload;
    l.set(
        "online.frames_dropped_stale",
        health.frames_dropped_stale as f64,
    );
    l.set("overload.queue_depth_p99", percentile(depths, 0.99));
    l.set("overload.frames_rejected", ov.frames_rejected as f64);
    l.set("overload.star_sheds", ov.star_sheds as f64);
    l.set("overload.ladder_steps_down", ov.ladder_steps_down as f64);
    l.set("overload.fallback_scores", ov.fallback_scores as f64);
    l.set("overload.held_verdicts", ov.held_verdicts as f64);
    let star_frames = (slices as f64 * stars_per_slice).max(1.0);
    let degraded: usize = verdicts
        .iter()
        .map(|v| (0..v.shed.len()).filter(|&s| degraded_star(v, s)).count())
        .sum();
    let shed: usize = verdicts
        .iter()
        .map(|v| v.shed.iter().filter(|&&s| s).count())
        .sum();
    let lost_slices =
        rejected as usize + health.frames_dropped_stale + health.frames_dropped_duplicate;
    l.set("overload.degraded_ratio", degraded as f64 / star_frames);
    l.set(
        "overload.failed_ratio",
        (lost_slices as f64 * stars_per_slice + shed as f64) / star_frames,
    );
}
