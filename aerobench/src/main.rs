//! `aerobench`: the repository's benchmark.
//!
//! ```text
//! aerobench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--smoke] [--record <file>]
//! aerobench --seed <n> [...]                 every workload, each in its own process
//! aerobench --compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! A run prints every metric with its unit, then as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of an untraced run, or the per-layer metrics of a traced one. It
//! exits non-zero when a correctness check fails or the run cannot finish.

mod common;
mod compare;
mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use common::{out_dir, peak_rss_mb, Ctx, Report};
use metrics::{END_TO_END, PER_LAYER};
use stats::{median, percentile};
use workloads::WORKLOADS;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Measured seconds per run when `--seconds` is not given (the value
/// `BENCHMARK.json` sets as `run_seconds`).
const DEFAULT_SECONDS: f64 = 26.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        record: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--record" => a.record = Some(value()?.into()),
            "--compare" => {
                let parent = value()?;
                let change = value()?;
                a.compare = Some((parent.into(), change.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("aerobench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: Args) -> Result<i32, String> {
    if let Some((parent, change)) = &args.compare {
        return compare::run(parent, change);
    }
    match args.workload.clone() {
        Some(w) => run_one(&w, &args),
        None => run_all(&args),
    }
}

/// Host facts recorded with every result: `cpus` logical CPUs, and `cpu`
/// the one the run is pinned to (`null` when unpinned).
fn host_json(args: &Args, workload: &str, cpus: usize, cpu: Option<usize>) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host_logical_cpus\":{},\"pinned_cpu\":{},\"threads\":{},\"backend\":{}}}",
        json::string(workload),
        args.seed,
        json::num(args.seconds),
        args.trace,
        cpus,
        cpu.map_or("null".to_string(), |c| c.to_string()),
        aero_parallel::max_threads(),
        json::string(aero_tensor::backend().name()),
    )
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(workload: &str, args: &Args) -> Result<i32, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    // One pool thread. On a host whose vCPUs are shared, every parallel
    // section waits for the slower of two contended CPUs, which at least
    // doubled the run-to-run spread of every timing; the benchmark measures
    // single-core performance and makes no thread-scaling claim.
    aero_parallel::set_max_threads(1);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = common::pin_to_last_cpu();

    let work = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let _work_dir = WorkDir(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: if args.smoke {
            args.seconds.min(2.0)
        } else {
            args.seconds
        },
        trace: args.trace,
        smoke: args.smoke,
        work,
        epoch: Instant::now(),
    };
    let host = host_json(args, workload, cpus, cpu);
    eprintln!("aerobench {workload}: {host}");
    let started = Instant::now();
    let mut report = workloads::run(workload, &ctx).map_err(|e| format!("{workload}: {e}"))?;
    eprintln!(
        "aerobench {workload}: done in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    for line in &report.notes {
        eprintln!("  {line}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut correct = true;
    if args.trace {
        let missing = report.layers.missing();
        if !missing.is_empty() {
            return Err(format!(
                "{workload}: per-layer metrics not measured: {missing:?}"
            ));
        }
        for d in PER_LAYER {
            metrics.push((
                d.name,
                report.layers.get(d.name).unwrap_or(f64::NAN),
                d.unit,
            ));
        }
        if let Some(tr) = report.tracer.take() {
            print_table(&tr);
            let path = out_dir().join(format!("trace-{workload}.json"));
            std::fs::write(&path, tr.to_json(&host))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("trace written to {}", path.display());
        }
    } else {
        for (d, v) in END_TO_END.iter().zip(e2e_values(&report)) {
            metrics.push((d.name, v, d.unit));
        }
        let beyond_p95 = |n: usize| n - (0.95 * n as f64).ceil() as usize;
        let (ops, closed) = (report.latency_ms.len(), report.closed_ms.len());
        let closed_s = report.closed_ms.iter().sum::<f64>() / 1e3;
        eprintln!(
            "  {} set-ups (s: min {:.4} max {:.4})\n  latency ms over {ops} operations: p50 {:.4} p95 {:.4} ({} beyond) p99 {:.4}\n  closed loop: {closed} operations in {closed_s:.2} s, ms p50 {:.4} p95 {:.4} ({} beyond); mean {:.1} star-frames/s",
            report.setup_s.len(),
            report.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            report.setup_s.iter().copied().fold(0.0, f64::max),
            percentile(&report.latency_ms, 0.5),
            percentile(&report.latency_ms, 0.95),
            beyond_p95(ops),
            percentile(&report.latency_ms, 0.99),
            percentile(&report.closed_ms, 0.5),
            percentile(&report.closed_ms, 0.95),
            beyond_p95(closed),
            report.stars_per_op * closed as f64 / closed_s,
        );
    }
    for (name, v, unit) in &metrics {
        if !v.is_finite() || (!args.trace && *v <= 0.0) {
            report.check(
                &format!("metric_{name}"),
                false,
                format!("{name} = {v} {unit}"),
            );
        }
    }
    for c in &report.checks {
        eprintln!(
            "  check {:<28} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
        correct &= c.ok;
    }

    println!("host {host}");
    for (name, v, unit) in &metrics {
        println!("{workload:<15} {name:<28} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::string(name),
                json::num(*v),
                json::string(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(",")
    );
    if let Some(path) = &args.record {
        let line = format!("{{\"run\":{host},\"result\":{result}}}\n");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("record to {}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(if correct { 0 } else { 1 })
}

/// The end-to-end metrics, in catalog order.
///
/// Timings are 95th percentiles. The reference host runs the detector at
/// one of two speeds, the slower about 1.5x, in stretches from a tenth of
/// a second to minutes, and the share of a run spent slow changes from run
/// to run. A median or a mean follows that share: over ten runs the
/// medians spread by up to 32% and the closed-loop means by up to 27%,
/// more than the largest bound a metric may have (0.25). The 95th
/// percentile falls in the slow stretches whenever they cover more than 5%
/// of a run, and spread by at most 12% (the README's table). It is also the
/// highest percentile with at least ten operations beyond it on the
/// streaming workloads. The
/// median, the 99th percentile and the closed-loop mean are printed with
/// their sample counts on standard error.
fn e2e_values(r: &Report) -> [f64; 4] {
    [
        median(&r.setup_s),
        percentile(&r.latency_ms, 0.95),
        r.stars_per_op / (percentile(&r.closed_ms, 0.95) / 1e3),
        peak_rss_mb(),
    ]
}

fn print_table(tr: &trace::Tracer) {
    eprintln!(
        "  {:<30} {:>8} {:>12} {:>10} {:>10}",
        "span", "count", "self ms", "p50 ms", "p99 ms"
    );
    for r in tr.table() {
        eprintln!(
            "  {:<30} {:>8} {:>12.3} {:>10.4} {:>10.4}",
            r.name, r.count, r.self_ms, r.p50_ms, r.p99_ms
        );
    }
}

/// Every workload, each in its own child process (so `peak_rss_mb` is per
/// workload). The last line combines them, metrics keyed
/// `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0f64, 0f64);
    let mut combined = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stdout(Stdio::piped());
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(r) = &args.record {
            cmd.arg("--record").arg(r);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
        let mut last = String::new();
        if let Some(out) = child.stdout.take() {
            // Unreadable output ends the forwarding, never the wait below.
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                println!("{line}");
                last = line;
            }
        }
        let status = child.wait().map_err(|e| format!("wait {workload}: {e}"))?;
        let parsed = json::parse(&last).ok();
        let ok = status.success()
            && parsed.as_ref().and_then(|v| v.get("correct")?.as_bool()) == Some(true);
        correct &= ok;
        if let Some(v) = parsed {
            attempted += v
                .get("attempted")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0);
            failed += v.get("failed").and_then(json::Value::as_f64).unwrap_or(0.0);
            for (name, m) in v
                .get("metrics")
                .and_then(json::Value::as_obj)
                .into_iter()
                .flatten()
            {
                let value = m
                    .get("value")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
                combined.push(format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::string(&format!("{workload}.{name}")),
                    json::num(value),
                    json::string(unit)
                ));
            }
        }
        if !ok {
            eprintln!("aerobench: {workload} failed ({status})");
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        attempted.max(1.0),
        failed,
        combined.join(",")
    );
    Ok(if correct { 0 } else { 1 })
}
