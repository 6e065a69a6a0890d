//! `serve_wire`: the resident `aero serve` service over loopback TCP. A
//! `ServeCore` (open tenant quota, WAL, verdict log, SR fallback) runs
//! behind `serve::serve` on 127.0.0.1:0. Connection 1 alternates between
//! one-frame `Ingest` messages on an open loop, whose acknowledgements a
//! reader thread stamps as they arrive, and closed-loop ingest; connection
//! 2 asks for `Status` at 20 Hz meanwhile (operator reads beside ingest
//! writes).
//!
//! This is the only workload that crosses the codec, the connection reader
//! threads, the request channel and `ServeCore`; the cheap tiny model keeps
//! those layers a visible share of each acknowledgement.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aero_baselines::sr::SpectralResidual;
use aero_core::serve::{
    self, encode, Decoder, WireFrame, WireMsg, DEFAULT_MAX_PAYLOAD, WIRE_PROTOCOL,
};
use aero_core::{
    Aero, AeroConfig, Detector, FallbackScorer, FsyncPolicy, OnlineAero, OverloadPolicy,
    ServeConfig, ServeCore, ServeOptions, ServeReport, StreamGovernor, TenantQuota, WalConfig,
    WalWriter,
};
use aero_datagen::SyntheticConfig;
use aero_timeseries::{Dataset, LabelGrid};

use crate::common::{
    f1_of_flags, fail, timed, trace_overhead_est_pct, Ctx, Night, Pacer, Report, POT,
};
use crate::json;
use crate::probes::{Probes, Samples};
use crate::stats::{median, percentile};
use crate::trace::{allocs, count_allocs, Tracer};

/// Open-loop ingest rate, frames per second: a quarter to a third of what
/// the tiny model sustains on the reference host (0.9 to 1.4 ms per
/// acknowledgement, depending on the host's speed).
const OPEN_RATE: f64 = 250.0;
const STATUS_HZ: f64 = 20.0;
/// Share of the measured seconds spent on the open loop.
const OPEN_SHARE: f64 = 0.7;
/// Open- and closed-loop segments alternate this many times, so a slow
/// stretch of the host lasting a few seconds cannot cover all of either.
const CYCLES: usize = 4;
const INGEST_TENANT: u32 = 0;
const STATUS_TENANT: u32 = 1;
/// Frames the in-process twin ingests in a traced run.
const TWIN_FRAMES: usize = 400;

fn dataset(ctx: &Ctx) -> Dataset {
    let (train_len, test_len) = if ctx.smoke { (300, 600) } else { (800, 4000) };
    SyntheticConfig {
        seed: ctx.seed,
        train_len,
        test_len,
        ..SyntheticConfig::middle()
    }
    .build()
}

fn policy() -> OverloadPolicy {
    OverloadPolicy {
        // Open quota: admission is bounded by the queue, not by tenancy.
        tenant_quota: Some(TenantQuota {
            burst: 1 << 20,
            refill_per_poll: 1 << 10,
        }),
        ..OverloadPolicy::default()
    }
}

fn fallback() -> FallbackScorer {
    let sr = SpectralResidual::default();
    FallbackScorer::new(move |window| sr.latest_score(window))
}

/// A `ServeCore` around a calibrated model, writing its WAL and verdict
/// log under `dir`.
fn core(model: Aero, ds: &Dataset, dir: &std::path::Path) -> Result<(ServeCore, f64), String> {
    let (online, calibrate_s) = timed(|| OnlineAero::new(model, &ds.train, POT));
    let mut gov = StreamGovernor::with_policy(online.map_err(fail("calibrate"))?, policy())
        .map_err(fail("governor"))?;
    gov.set_fallback(Some(fallback()));
    let wal = WalWriter::create(
        &dir.join("wal"),
        WalConfig {
            fsync: FsyncPolicy::EverySegment,
            ..WalConfig::default()
        },
    )
    .map_err(fail("WAL"))?;
    gov.attach_wal(wal).map_err(fail("attach WAL"))?;
    let core = ServeCore::new(
        gov,
        ServeOptions {
            verdict_log: Some(dir.join("verdicts.log")),
        },
    )
    .map_err(fail("serve core"))?;
    Ok((core, calibrate_s))
}

/// Blocking wire client: framed send, one-message receive.
struct Client {
    stream: TcpStream,
    decoder: Decoder,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr, tenant: u32) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(fail("connect"))?;
        stream.set_nodelay(true).map_err(fail("nodelay"))?;
        let mut c = Self {
            stream,
            decoder: Decoder::new(DEFAULT_MAX_PAYLOAD),
            buf: vec![0; 1 << 16],
        };
        c.send(&WireMsg::Hello {
            tenant,
            protocol: WIRE_PROTOCOL,
        })?;
        match c.recv(None)? {
            Some(WireMsg::HelloAck { .. }) => Ok(c),
            other => Err(format!("handshake failed: {other:?}")),
        }
    }

    fn send(&mut self, msg: &WireMsg) -> Result<(), String> {
        self.stream.write_all(&encode(msg)).map_err(fail("send"))
    }

    /// Next message; `None` if `timeout` passes first (blocking without a
    /// timeout).
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<WireMsg>, String> {
        loop {
            if let Some(msg) = self.decoder.next().map_err(fail("decode"))? {
                return Ok(Some(msg));
            }
            self.stream
                .set_read_timeout(timeout.map(|t| t.max(Duration::from_micros(1))))
                .map_err(fail("read timeout"))?;
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(k) => self.decoder.extend(&self.buf[..k]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None);
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

struct Running {
    server: JoinHandle<Result<ServeReport, String>>,
    ingest: Client,
    status: Client,
    dir: std::path::PathBuf,
}

fn setup(
    ctx: &Ctx,
    tr: &mut Tracer,
    k: usize,
) -> Result<(Dataset, Running, f64, f64, f64), String> {
    let t0 = Instant::now();
    let s = tr.begin("setup", k as u64);
    let ds = dataset(ctx);
    let mut model = Aero::new(AeroConfig::tiny()).map_err(fail("model"))?;
    let f = tr.begin("train.fit", k as u64);
    let (r, fit_s) = timed(|| model.fit(&ds.train));
    tr.end(f);
    r.map_err(fail("fit"))?;
    let dir = ctx.dir(&format!("serve-{k}"))?;
    let c = tr.begin("online.calibrate", k as u64);
    let (core, calibrate_s) = core(model, &ds, &dir)?;
    tr.end(c);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(fail("bind"))?;
    let addr = listener.local_addr().map_err(fail("local addr"))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = std::thread::spawn(move || {
        serve::serve(listener, core, ServeConfig::default(), shutdown).map_err(|e| e.to_string())
    });
    let ingest = Client::connect(addr, INGEST_TENANT)?;
    let status = Client::connect(addr, STATUS_TENANT)?;
    tr.end(s);
    Ok((
        ds,
        Running {
            server,
            ingest,
            status,
            dir,
        },
        t0.elapsed().as_secs_f64(),
        fit_s,
        calibrate_s,
    ))
}

/// Drains the service over the wire and waits for it to stop.
fn shut_down(mut run: Running) -> Result<(String, std::path::PathBuf), String> {
    run.status.send(&WireMsg::Drain)?;
    let summary = match run.status.recv(None)? {
        Some(WireMsg::DrainAck(summary)) => summary,
        other => return Err(format!("expected DrainAck, got {other:?}")),
    };
    drop(run.ingest);
    drop(run.status);
    run.server
        .join()
        .map_err(|_| "server thread panicked".to_string())??;
    Ok((summary, run.dir))
}

/// What the ingest connection saw.
#[derive(Default)]
struct IngestLog {
    latency_ms: Vec<f64>,
    late_s: Vec<f64>,
    depths: Vec<f64>,
    sent: u64,
    admitted: u64,
    rejected: u64,
    closed_ms: Vec<f64>,
    spans: Option<Tracer>,
}

/// One reply to an `Ingest`, stamped when it arrived.
struct Reply {
    seq: u64,
    at: Instant,
    admitted: u16,
    rejected: u16,
    depth: u32,
}

/// Reads replies on the ingest connection as they arrive and passes them
/// on; stops once the sender is done and every sent ingest is answered.
fn read_replies(
    mut c: Client,
    sent: Arc<AtomicU64>,
    done: Arc<AtomicBool>,
    tx: mpsc::Sender<Reply>,
) -> Result<(), String> {
    let mut got = 0u64;
    loop {
        match c.recv(Some(Duration::from_millis(100)))? {
            Some(WireMsg::Ack {
                seq,
                admitted,
                depth,
            }) => {
                let _ = tx.send(Reply {
                    seq,
                    at: Instant::now(),
                    admitted,
                    rejected: 0,
                    depth,
                });
                got += 1;
            }
            Some(WireMsg::Reject {
                seq,
                admitted,
                rejected,
                ..
            }) => {
                let _ = tx.send(Reply {
                    seq,
                    at: Instant::now(),
                    admitted,
                    rejected,
                    depth: 0,
                });
                got += 1;
            }
            Some(other) => return Err(format!("unexpected reply to an ingest: {other:?}")),
            None if done.load(Ordering::SeqCst) && got >= sent.load(Ordering::SeqCst) => {
                return Ok(())
            }
            None => {}
        }
    }
}

/// Alternating open-loop segments (ingests leave on schedule while a reader
/// thread collects replies) and closed-loop segments, on the ingest
/// connection.
fn ingest(
    mut c: Client,
    night: Arc<Night>,
    rate: f64,
    cycles: usize,
    open_frames: usize,
    closed_secs: f64,
    mut tr: Tracer,
) -> Result<(IngestLog, Client), String> {
    let mut log = IngestLog::default();
    let sent = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();
    let reader = {
        let stream = c.stream.try_clone().map_err(fail("clone ingest socket"))?;
        let r = Client {
            stream,
            decoder: Decoder::new(DEFAULT_MAX_PAYLOAD),
            buf: vec![0; 1 << 16],
        };
        let (sent, done) = (Arc::clone(&sent), Arc::clone(&done));
        std::thread::spawn(move || read_replies(r, sent, done, tx))
    };
    let msg = |i: usize| WireMsg::Ingest {
        seq: i as u64,
        frames: vec![WireFrame {
            timestamp: night.timestamp(i),
            values: night.frame(i),
        }],
    };
    let record = |log: &mut IngestLog, r: &Reply| {
        log.admitted += u64::from(r.admitted);
        log.rejected += u64::from(r.rejected);
        if r.rejected == 0 {
            log.depths.push(f64::from(r.depth));
        }
    };
    let result = (|| {
        let mut next = 0usize;
        for _ in 0..cycles {
            // Open loop: ingests leave on schedule, replies are collected
            // after the segment (the reader stamped their arrival).
            let pacer = Pacer::new(rate);
            let first = next;
            for i in 0..open_frames {
                pacer.wait_for(i);
                log.late_s.push(pacer.due(i).elapsed().as_secs_f64());
                let s = tr.begin("client.ingest", next as u64);
                c.send(&msg(next))?;
                tr.end(s);
                sent.fetch_add(1, Ordering::SeqCst);
                next += 1;
            }
            for _ in 0..open_frames {
                let r = rx
                    .recv_timeout(Duration::from_secs(5))
                    .map_err(|_| "no reply within 5 s".to_string())?;
                let due = pacer.due(r.seq as usize - first);
                log.latency_ms
                    .push(r.at.duration_since(due).as_secs_f64() * 1e3);
                record(&mut log, &r);
            }
            // Closed loop: the next ingest leaves when the previous reply
            // arrives.
            let t0 = Instant::now();
            let mut served = 0;
            while t0.elapsed() < Duration::from_secs_f64(closed_secs) || served == 0 {
                let s = tr.begin("client.roundtrip", next as u64);
                let t_op = Instant::now();
                c.send(&msg(next))?;
                sent.fetch_add(1, Ordering::SeqCst);
                let r = rx
                    .recv_timeout(Duration::from_secs(5))
                    .map_err(|_| "no reply within 5 s".to_string())?;
                tr.end(s);
                if r.seq != next as u64 {
                    return Err(format!(
                        "reply to ingest {} while waiting for {next}",
                        r.seq
                    ));
                }
                record(&mut log, &r);
                log.closed_ms
                    .push(r.at.duration_since(t_op).as_secs_f64() * 1e3);
                next += 1;
                served += 1;
            }
        }
        Ok::<(), String>(())
    })();
    done.store(true, Ordering::SeqCst);
    let read = reader
        .join()
        .map_err(|_| "reply reader panicked".to_string())?;
    result?;
    read?;
    log.sent = sent.load(Ordering::SeqCst);
    log.spans = Some(tr);
    Ok((log, c))
}

/// One verdict-log line: timestamp bits, per-star scores, flagged stars.
type VerdictLine = (u64, Vec<f32>, Vec<usize>);

/// Parses the verdict log: one line per serviced frame, timestamp bits,
/// score bits per star, then the flagged stars.
fn read_verdicts(path: &std::path::Path) -> Result<Vec<VerdictLine>, String> {
    let text = std::fs::read_to_string(path).map_err(fail("read verdict log"))?;
    text.lines()
        .map(|line| {
            let (head, mask) = line.rsplit_once(' ').ok_or("verdict line without a mask")?;
            let mut fields = head.split(' ');
            let ts = u64::from_str_radix(fields.next().unwrap_or(""), 16)
                .map_err(fail("timestamp bits"))?;
            let scores = fields
                .map(|f| u32::from_str_radix(f, 16).map(f32::from_bits))
                .collect::<Result<Vec<_>, _>>()
                .map_err(fail("score bits"))?;
            let flagged = mask
                .trim_matches(|c| c == '[' || c == ']')
                .split('+')
                .filter(|s| !s.is_empty())
                .map(str::parse)
                .collect::<Result<Vec<usize>, _>>()
                .map_err(fail("flag mask"))?;
            Ok((ts, scores, flagged))
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut tr = ctx.tracer();
    let mut fits = Vec::new();
    let mut calibrations = Vec::new();
    let mut running = None;
    let mut k = 0;
    while ctx.another_setup(&rep.setup_s) {
        if let Some((_, run)) = running.take() {
            shut_down(run)?;
        }
        let (ds, run, secs, fit_s, cal_s) = setup(ctx, &mut tr, k)?;
        rep.setup_s.push(secs);
        fits.push(fit_s);
        calibrations.push(cal_s);
        running = Some((ds, run));
        k += 1;
    }
    let (
        ds,
        Running {
            server,
            ingest: ingest_client,
            mut status,
            dir,
        },
    ) = running.expect("at least one set-up");
    let night = Arc::new(Night::new(ds.test.clone(), ds.test_labels.clone()));
    let n = night.stars();
    let rate = if ctx.smoke { 100.0 } else { OPEN_RATE };
    let cycles = if ctx.smoke { 1 } else { CYCLES };
    let open_frames = ((rate * ctx.seconds * OPEN_SHARE) as usize / cycles).max(1);
    let closed_secs = ctx.seconds * (1.0 - OPEN_SHARE) / cycles as f64;

    aero_tensor::workspace::reset_stats();
    let allocs0 = allocs();
    count_allocs(ctx.trace);
    let spans0 = tr.len();
    let measured = Instant::now();
    let sender = {
        let night = Arc::clone(&night);
        let client_tr = Tracer::new(ctx.trace, ctx.epoch);
        std::thread::spawn(move || {
            ingest(
                ingest_client,
                night,
                rate,
                cycles,
                open_frames,
                closed_secs,
                client_tr,
            )
        })
    };
    // Operator reads beside the ingest writes, while they last.
    let mut status_ms = Vec::new();
    let status_every = Duration::from_secs_f64(1.0 / STATUS_HZ);
    let t_status = Instant::now();
    let mut k = 0u32;
    while !sender.is_finished() {
        let due = t_status + status_every * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let s = tr.begin("client.status", u64::from(k));
        let t0 = Instant::now();
        status.send(&WireMsg::Status)?;
        match status.recv(None)? {
            Some(WireMsg::StatusJson(doc)) => {
                json::parse(&doc).map_err(fail("status document"))?;
            }
            other => return Err(format!("expected StatusJson, got {other:?}")),
        }
        status_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.end(s);
        k += 1;
    }
    let (log, ingest_client) = sender
        .join()
        .map_err(|_| "ingest thread panicked".to_string())??;
    let measured_s = measured.elapsed().as_secs_f64();
    let client_spans = log.spans.as_ref().map_or(0, Tracer::len);
    let overhead = trace_overhead_est_pct(tr.len() - spans0 + client_spans, measured_s);
    count_allocs(false);
    let heap_allocs = allocs() - allocs0;
    let pool = aero_tensor::workspace::stats();
    let (summary, dir) = shut_down(Running {
        server,
        ingest: ingest_client,
        status,
        dir,
    })?;

    rep.latency_ms = log.latency_ms.clone();
    rep.closed_ms = log.closed_ms.clone();
    rep.stars_per_op = n as f64;
    rep.attempted = log.sent;
    rep.failed = log.rejected;
    rep.note(format!(
        "{cycles} cycles of {open_frames} ingests at {rate}/s then {closed_secs:.2} s closed loop ({} ingests); status p95 {:.3} ms over {} requests",
        log.closed_ms.len(),
        percentile(&status_ms, 0.95),
        status_ms.len(),
    ));

    let doc = json::parse(&summary).map_err(fail("drain summary"))?;
    let count = |path: &str| {
        doc.path(path)
            .and_then(json::Value::as_f64)
            .unwrap_or(f64::NAN)
    };
    let stale = count("health.frames_dropped_stale");
    rep.check(
        "no_stale_drops",
        stale == 0.0,
        format!("{stale} frames dropped as stale"),
    );
    let verdicts = read_verdicts(&dir.join("verdicts.log"))?;
    rep.check(
        "frame_conservation",
        count("frames.offered") == log.sent as f64
            && log.admitted + log.rejected == log.sent
            && verdicts.len() as u64 == log.admitted,
        format!(
            "{} sent, {} offered, {} admitted + {} rejected, {} verdicts logged",
            log.sent,
            count("frames.offered"),
            log.admitted,
            log.rejected,
            verdicts.len()
        ),
    );

    // One finite verdict per admitted frame, in the order the frames were
    // sent.
    let in_order = verdicts.iter().enumerate().all(|(i, (ts, scores, _))| {
        *ts == night.timestamp(i).to_bits()
            && scores.len() == n
            && scores.iter().all(|s| s.is_finite())
    });
    rep.check(
        "verdicts_follow_ingest_order",
        in_order,
        "verdict log lines against the ingested frames",
    );
    let mut flags = LabelGrid::new(n, night.labels.cols());
    for (t, (_, _, flagged)) in verdicts.iter().enumerate().take(night.labels.cols()) {
        for &v in flagged {
            flags.set(v, t, true);
        }
    }

    if ctx.trace {
        if let Some(spans) = log.spans {
            tr.absorb(spans);
        }
        let t_probe = Instant::now();
        // Training is deterministic, so this is the served model's twin.
        let model = {
            let mut m = Aero::new(AeroConfig::tiny()).map_err(fail("model"))?;
            m.fit(&ds.train).map_err(fail("fit"))?;
            m
        };
        let mut probes = Probes::of_model(ctx, &model, n)?;
        // The in-process twin: the same service state machine, called
        // directly, so its time excludes the socket, reader thread and
        // channel.
        let twin_dir = ctx.dir("serve-twin")?;
        let (mut twin, _) = core(model, &ds, &twin_dir)?;
        let mut samples = Samples::new(AeroConfig::tiny().window, &ds.train, None);
        let mut service_ms = Vec::new();
        for i in 0..TWIN_FRAMES {
            let frame = WireFrame {
                timestamp: night.timestamp(i),
                values: night.frame(i),
            };
            let s = tr.begin("twin.handle_ingest", i as u64);
            let (r, secs) =
                timed(|| twin.handle_ingest(INGEST_TENANT, i as u64, std::slice::from_ref(&frame)));
            tr.end(s);
            r.map_err(fail("twin ingest"))?;
            service_ms.push(secs * 1e3);
            samples.served(i, frame.timestamp, frame.values);
        }
        samples.probe(&mut probes, &mut tr)?;
        let calib = probes.scores(&ds.train)?;
        probes.finish(&mut tr, &mut rep.layers, &calib)?;
        rep.note(format!(
            "probes and twin: {:.2} s after the measured phase",
            t_probe.elapsed().as_secs_f64()
        ));

        let l = &mut rep.layers;
        l.set("train.fit_s", median(&fits));
        l.set("online.calibrate_s", median(&calibrations));
        l.set("tensor.workspace_misses", pool.buffer_misses as f64);
        l.set(
            "tensor.heap_allocs_per_op",
            heap_allocs as f64 / log.sent.max(1) as f64,
        );
        l.set("service.call_ms_p50", percentile(&service_ms, 0.5));
        l.set("service.call_ms_p99", percentile(&service_ms, 0.99));
        let star_frames = (log.sent as usize * n).max(1) as f64;
        l.set("online.frames_dropped_stale", stale);
        l.set("overload.queue_depth_p99", percentile(&log.depths, 0.99));
        for (metric, field) in [
            ("overload.frames_rejected", "frames_rejected"),
            ("overload.star_sheds", "star_sheds"),
            ("overload.ladder_steps_down", "ladder_steps_down"),
            ("overload.fallback_scores", "fallback_scores"),
            ("overload.held_verdicts", "held_verdicts"),
        ] {
            l.set(metric, count(&format!("health.overload.{field}")));
        }
        // Stage-1-only service is not visible on the wire; the fallback and
        // held rungs are.
        l.set(
            "overload.degraded_ratio",
            (count("health.overload.fallback_scores") + count("health.overload.held_verdicts"))
                / star_frames,
        );
        l.set(
            "overload.failed_ratio",
            (log.rejected as f64 * n as f64
                + count("health.overload.star_sheds")
                + stale * n as f64)
                / star_frames,
        );
        l.set(
            "gen.late_pct_p99",
            percentile(&log.late_s, 0.99) * rate * 100.0,
        );
        l.set(
            "eval.f1",
            f1_of_flags(&flags, &night.labels, verdicts.len()),
        );
        l.set("trace.overhead_est_pct", overhead);
    }
    rep.tracer = Some(tr);
    Ok(rep)
}
