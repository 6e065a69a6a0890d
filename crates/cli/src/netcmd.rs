//! `aero serve` / `aero loadgen` — the resident network service and its
//! deterministic load-generator client (DESIGN.md §15).
//!
//! `serve` promotes the `aero stream` replay loop into a long-lived TCP
//! daemon: framed star-frame batches from many concurrent tenants feed the
//! same [`StreamGovernor`] admission path, with per-tenant token buckets,
//! WAL-backed crash recovery (`--resume` reproduces verdicts and counters
//! bitwise), and a graceful wire-triggered drain.
//!
//! `loadgen` drives it over real sockets: seeded burst schedules, optional
//! wire-level fault injection (garbage, torn frames, duplicates,
//! slow-loris), reconnect-and-resync via the status document, and a typed
//! backoff on every rejection.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aero_core::serve::codec::{encode, Decoder, WireFrame, WireMsg, WIRE_PROTOCOL};
use aero_core::serve::{serve, ServeConfig, ServeCore, ServeOptions};
use aero_core::{to_json, OverloadPolicy, RejectReason, TenantQuota};
use aero_datagen::WireFaultPlan;

use crate::args::Args;
use crate::night::{io_err, live_ticks, night_frames, open_governor, NightOptions};

/// `aero serve` — bind, open the governed detector (fresh or resumed from
/// its WAL), and run the service until a wire `Drain` arrives.
pub fn serve_cmd(args: &Args) -> Result<(), String> {
    let opts = NightOptions::parse(args)?;
    let listen = args.get("listen")?.unwrap_or("127.0.0.1:0");
    let policy = OverloadPolicy {
        tenant_quota: Some(TenantQuota {
            burst: args.get_parsed("quota-burst", 32u32)?,
            refill_per_poll: args.get_parsed("quota-refill", 1u32)?,
        }),
        ..opts.overload.clone()
    };
    let (gov, replay) = open_governor(opts.online(args)?, policy, &opts)?;
    let serve_opts = ServeOptions { verdict_log: args.get("verdicts")?.map(PathBuf::from) };
    let mut core = ServeCore::new(gov, serve_opts).map_err(io_err)?;
    core.absorb_replay(&replay.verdicts, replay.frames).map_err(io_err)?;

    let cfg = ServeConfig {
        read_timeout: Duration::from_millis(args.get_parsed("read-timeout-ms", 100u64)?),
        idle_timeout: Duration::from_millis(args.get_parsed("idle-timeout-ms", 10_000u64)?),
        max_connections: args.get_parsed("max-conns", 64usize)?,
        ..ServeConfig::default()
    };
    let listener = TcpListener::bind(listen).map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    // The readiness line tests and tooling parse; stdout is line-buffered.
    println!(
        "listening on {addr} ({} stars, queue cap {})",
        core.stars(),
        opts.overload.queue_capacity
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let report = serve(listener, core, cfg, shutdown).map_err(io_err)?;
    eprintln!(
        "served {} connections ({} protocol errors, {} refused)",
        report.connections, report.protocol_errors, report.refused
    );
    println!("{}", report.summary_json);
    Ok(())
}

/// A blocking wire client: framed send/recv over one TCP connection.
struct WireClient {
    stream: TcpStream,
    decoder: Decoder,
}

impl WireClient {
    fn connect(addr: &str, tenant: u32) -> Result<(Self, u32), String> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(io_err)?;
        let _ = stream.set_nodelay(true);
        let mut client = Self {
            stream,
            decoder: Decoder::new(aero_core::serve::codec::DEFAULT_MAX_PAYLOAD),
        };
        client.send(&WireMsg::Hello { tenant, protocol: WIRE_PROTOCOL })?;
        match client.recv(Duration::from_secs(10))? {
            WireMsg::HelloAck { stars, .. } => Ok((client, stars)),
            other => Err(format!("handshake failed: {other:?}")),
        }
    }

    fn send(&mut self, msg: &WireMsg) -> Result<(), String> {
        self.stream.write_all(&encode(msg)).map_err(io_err)
    }

    fn send_raw(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream.write_all(bytes).map_err(io_err)
    }

    fn recv(&mut self, deadline: Duration) -> Result<WireMsg, String> {
        let start = Instant::now();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(msg) = self.decoder.next().map_err(io_err)? {
                return Ok(msg);
            }
            if start.elapsed() > deadline {
                return Err("timed out waiting for a reply".into());
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// Counters one loadgen connection accumulates; summed over connections,
/// the loadgen stats document.
#[derive(Debug, Default, Clone, serde::Serialize)]
struct LoadStats {
    connections: usize,
    offered: usize,
    admitted: usize,
    rejected_backpressure: usize,
    rejected_quota: usize,
    rejected_draining: usize,
    faults: usize,
    reconnects: usize,
    lost_to_faults: usize,
}

impl LoadStats {
    fn absorb(&mut self, other: &LoadStats) {
        self.connections += other.connections;
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.rejected_backpressure += other.rejected_backpressure;
        self.rejected_quota += other.rejected_quota;
        self.rejected_draining += other.rejected_draining;
        self.faults += other.faults;
        self.reconnects += other.reconnects;
        self.lost_to_faults += other.lost_to_faults;
    }
}

fn fetch_status(addr: &str) -> Result<String, String> {
    let (mut client, _) = WireClient::connect(addr, 0)?;
    client.send(&WireMsg::Status)?;
    match client.recv(Duration::from_secs(10))? {
        WireMsg::StatusJson(json) => Ok(json),
        other => Err(format!("expected StatusJson, got {other:?}")),
    }
}

/// The status-document fields a resuming loadgen needs.
#[derive(serde::Deserialize)]
struct StatusFrames {
    replayed: usize,
    offered: usize,
}

/// `aero loadgen` — deterministic burst traffic against a running server.
pub fn loadgen(args: &Args) -> Result<(), String> {
    let addr = args.require("connect")?.to_string();

    if args.flag("status") {
        println!("{}", fetch_status(&addr)?);
        return Ok(());
    }
    if args.flag("drain-only") {
        let (mut client, _) = WireClient::connect(&addr, 0)?;
        client.send(&WireMsg::Drain)?;
        match client.recv(Duration::from_secs(60))? {
            WireMsg::DrainAck(summary) => {
                println!("{summary}");
                return Ok(());
            }
            other => return Err(format!("expected DrainAck, got {other:?}")),
        }
    }

    let opts = NightOptions::parse(args)?;
    let conns = args.get_parsed("conns", 1usize)?.max(1);
    let tenants = args.get_parsed("tenants", 1u32)?.max(1);
    let fault_plan = match args.parsed("wire-faults")? {
        Some(seed) => WireFaultPlan::chaos(seed, args.get_parsed("fault-period", 7usize)?),
        None => WireFaultPlan::clean(),
    };
    let max_ticks = args.get_parsed("ticks", usize::MAX)?;
    let drain = args.flag("drain");

    let frames: Vec<WireFrame> = night_frames(&opts.series("test.csv")?, None)
        .into_iter()
        .map(|(timestamp, values)| WireFrame { timestamp, values })
        .collect();
    let schedule = opts.schedule(frames.len());

    // Reconnect-and-resync: the server's WAL (surfaced through the status
    // document) is the source of truth for how many frames it already has;
    // the client never re-offers them.
    let mut replayed = 0usize;
    if args.flag("resume-from-status") {
        let status: StatusFrames = serde_json::from_str(&fetch_status(&addr)?)
            .map_err(|e| format!("status document: {e}"))?;
        replayed = status.replayed + status.offered;
        eprintln!("resuming: server already holds {replayed} frames; skipping them");
    }

    // Partition ticks round-robin across connections; each connection is a
    // tenant lane (conn index mod --tenants). One connection preserves the
    // exact single-stream arrival order — the bitwise-restart configuration:
    // tick indices survive the fast-forward, so the offer/poll interleaving
    // (and with it every admission decision) replays bitwise.
    let mut slices: Vec<Vec<(u64, Vec<WireFrame>)>> = vec![Vec::new(); conns];
    for (tick, live) in live_ticks(&schedule, replayed) {
        if tick >= max_ticks || live.start >= frames.len() {
            break;
        }
        let batch = frames[live.start..live.end.min(frames.len())].to_vec();
        if !batch.is_empty() {
            slices[tick % conns].push((tick as u64, batch));
        }
    }

    let mut total = LoadStats::default();
    if conns == 1 {
        let stats = run_connection(&addr, 0, &slices[0], &fault_plan)?;
        total.absorb(&stats);
    } else {
        let mut handles = Vec::new();
        for (c, slice) in slices.into_iter().enumerate() {
            let addr = addr.clone();
            let plan = fault_plan.clone();
            let tenant = c as u32 % tenants;
            handles.push(
                aero_parallel::supervised_spawn(&format!("loadgen-{c}"), move || {
                    run_connection(&addr, tenant, &slice, &plan)
                })
                .map_err(io_err)?,
            );
        }
        for h in handles {
            let stats = h.join().map_err(io_err)??;
            total.absorb(&stats);
        }
    }

    if drain {
        let (mut client, _) = WireClient::connect(&addr, 0)?;
        client.send(&WireMsg::Drain)?;
        match client.recv(Duration::from_secs(60))? {
            WireMsg::DrainAck(summary) => eprintln!("drained; final summary: {summary}"),
            other => return Err(format!("expected DrainAck, got {other:?}")),
        }
    }
    println!("{}", to_json(&total));
    Ok(())
}

/// Sends one connection's tick slice, applying the wire-fault plan and
/// reconnecting (with a typed resync) whenever a fault tears the socket.
fn run_connection(
    addr: &str,
    tenant: u32,
    slice: &[(u64, Vec<WireFrame>)],
    plan: &WireFaultPlan,
) -> Result<LoadStats, String> {
    let mut stats = LoadStats { connections: 1, ..LoadStats::default() };
    if slice.is_empty() {
        return Ok(stats);
    }
    let (mut client, _) = WireClient::connect(addr, tenant)?;
    for (tick, batch) in slice {
        let msg = WireMsg::Ingest { seq: *tick, frames: batch.clone() };
        let bytes = encode(&msg);
        let (pieces, disconnects) = plan.apply(*tick, &bytes);
        let faulted = pieces.len() != 1 || disconnects || pieces[0] != bytes;
        if faulted {
            stats.faults += 1;
        }
        let mut write_failed = false;
        for (i, piece) in pieces.iter().enumerate() {
            if i > 0 {
                // Slow-loris pacing between pieces (still far faster than
                // the server's idle bound; the *stall* defense is what the
                // torn-frame disconnect below exercises).
                std::thread::sleep(Duration::from_millis(2));
            }
            if client.send_raw(piece).is_err() {
                write_failed = true;
                break;
            }
        }
        if disconnects || write_failed {
            // Torn frame / garbage: the server drops us. Those frames are
            // gone (never admitted); reconnect and continue with the next
            // tick.
            stats.lost_to_faults += batch.len();
            let _ = client.stream.shutdown(std::net::Shutdown::Both);
            stats.reconnects += 1;
            client = WireClient::connect(addr, tenant)?.0;
            continue;
        }
        // One reply per Ingest actually delivered; a Duplicate fault sent
        // the batch twice, so the server answers twice.
        let replies =
            if plan.fault_for(*tick) == aero_datagen::WireFault::Duplicate { 2 } else { 1 };
        for _ in 0..replies {
            match client.recv(Duration::from_secs(30)) {
                Ok(WireMsg::Ack { admitted, .. }) => {
                    stats.offered += batch.len();
                    stats.admitted += admitted as usize;
                }
                Ok(WireMsg::Reject { reason, admitted, rejected, .. }) => {
                    stats.offered += batch.len();
                    stats.admitted += admitted as usize;
                    match reason {
                        RejectReason::Backpressure => {
                            stats.rejected_backpressure += rejected as usize;
                            // Typed backoff: give the queue a poll's worth
                            // of room before the next tick.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        RejectReason::QuotaExceeded => {
                            stats.rejected_quota += rejected as usize;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        RejectReason::Draining => {
                            stats.rejected_draining += rejected as usize;
                            return Ok(stats);
                        }
                    }
                }
                Ok(WireMsg::Error { code, message }) => {
                    return Err(format!("server error {code}: {message}"));
                }
                Ok(other) => return Err(format!("unexpected reply: {other:?}")),
                Err(e) => return Err(e),
            }
        }
    }
    client.send(&WireMsg::Bye).ok();
    Ok(stats)
}
