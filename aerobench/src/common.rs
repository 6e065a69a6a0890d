//! What every workload shares: the run context, the generated night of
//! frames, open-loop pacing, and the report a workload hands back.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use aero_eval::evaluate_point_adjusted;
use aero_evt::PotConfig;
use aero_timeseries::{LabelGrid, MultivariateSeries};

use crate::metrics::Layers;
use crate::trace::Tracer;

/// Everything a workload run needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Seconds-scale inputs for the smoke test.
    pub smoke: bool,
    /// Work directory for checkpoints, WALs and logs; removed at exit.
    pub work: PathBuf,
    pub epoch: Instant,
}

impl Ctx {
    /// Whether to set the system up once more: at least three set-ups
    /// (`setup_s` is their median), and more until they span four seconds
    /// (at most 500), so a brief slow stretch of the host cannot cover most
    /// of them.
    pub fn another_setup(&self, done: &[f64]) -> bool {
        if self.smoke {
            return done.is_empty();
        }
        done.len() < 3 || (done.iter().sum::<f64>() < 4.0 && done.len() < 500)
    }

    /// A fresh, empty directory under the work directory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.work.join(name);
        if d.exists() {
            std::fs::remove_dir_all(&d).map_err(|e| format!("clear {}: {e}", d.display()))?;
        }
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }

    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.trace, self.epoch)
    }
}

/// POT calibration of every workload: the CLI's defaults (level 0.99,
/// q 1e-3).
pub const POT: PotConfig = PotConfig {
    level: 0.99,
    q: 1e-3,
};

/// Where the benchmark keeps its outputs (trace files, per-run state):
/// `out/` beside this package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One correctness check and its outcome.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Report {
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each operation, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Duration of each closed-loop operation, milliseconds.
    pub closed_ms: Vec<f64>,
    /// Star-frames each closed-loop operation serves.
    pub stars_per_op: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Per-layer values (traced runs only).
    pub layers: Layers,
    /// Human-readable lines for standard error (sample counts, phases).
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The stream of frames a workload offers: the generated test night,
/// replayed with shifted timestamps when a run needs more frames than the
/// night holds, so timestamps always increase.
pub struct Night {
    pub series: MultivariateSeries,
    pub labels: LabelGrid,
    span: f64,
}

impl Night {
    pub fn new(series: MultivariateSeries, labels: LabelGrid) -> Self {
        let ts = series.timestamps();
        let cadence = if ts.len() > 1 {
            (ts[ts.len() - 1] - ts[0]) / (ts.len() - 1) as f64
        } else {
            1.0
        };
        let span = ts[ts.len() - 1] - ts[0] + cadence;
        Self {
            series,
            labels,
            span,
        }
    }

    pub fn stars(&self) -> usize {
        self.series.num_variates()
    }

    /// Timestamp of frame `i`.
    pub fn timestamp(&self, i: usize) -> f64 {
        let len = self.series.len();
        self.series.timestamps()[i % len] + (i / len) as f64 * self.span
    }

    /// Values of frame `i` into `out`.
    pub fn fill(&self, i: usize, out: &mut Vec<f32>) {
        let t = i % self.series.len();
        out.clear();
        out.extend((0..self.stars()).map(|v| self.series.get(v, t)));
    }

    pub fn frame(&self, i: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(self.stars());
        self.fill(i, &mut v);
        v
    }
}

/// Fixed-rate arrival schedule for an open loop: frame `i` is due
/// `i / rate` seconds after the phase starts, whether or not the detector
/// kept up.
pub struct Pacer {
    start: Instant,
    gap: f64,
}

impl Pacer {
    pub fn new(rate: f64) -> Self {
        Self {
            start: Instant::now(),
            gap: 1.0 / rate,
        }
    }

    pub fn gap_s(&self) -> f64 {
        self.gap
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 * self.gap)
    }

    /// Waits until frame `i` is due and returns how late the wake-up was,
    /// in seconds; `None` when the frame was already overdue, so no wait
    /// happened (the detector, not the generator, was behind).
    pub fn wait_for(&self, i: usize) -> Option<f64> {
        spin_until(self.due(i))
    }
}

/// Waits until `due` without letting the CPU go idle, and returns how late
/// the wait ended, in seconds; `None` when `due` had already passed.
///
/// The generator yields in a loop rather than sleeping: on the reference
/// host (a 2-vCPU virtual machine) a CPU that idled between frames served
/// the next one up to 1.5x slower, and how often it did changed from run to
/// run, which moved the open-loop median latency by up to 40%. Yielding
/// hands the CPU to any thread of the system that is ready (the server
/// threads of `serve_wire` share it) and otherwise keeps it busy.
pub fn spin_until(due: Instant) -> Option<f64> {
    if Instant::now() >= due {
        return None;
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
    Some(Instant::now().duration_since(due).as_secs_f64())
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// last CPU it may run on, and returns that CPU; `None` when the CPU set
/// cannot be read or changed (the run then goes on unpinned).
///
/// All of a run's threads then share one CPU: the in-process workloads use
/// one thread anyway, and `serve_wire`'s client and server threads hand
/// work to each other without waking an idle CPU. Left to the scheduler,
/// `serve_wire`'s acknowledgement and closed-loop medians moved by up to
/// 60% between runs; pinned, by under 10%. Taking the last CPU of the set
/// makes the choice the same on every run.
#[cfg(target_os = "linux")]
pub fn pin_to_last_cpu() -> Option<usize> {
    /// Room for 1024 CPUs, as glibc's `cpu_set_t`.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut mask: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread, and `mask` is a writable
    // buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable buffer of the size passed.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0;
    ok.then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_last_cpu() -> Option<usize> {
    None
}

/// Point-adjusted F1 of per-star flags over the first pass of the night
/// (`flags[v][t]`, `t < labels.cols()`), the paper's protocol.
pub fn f1_of_flags(flags: &LabelGrid, labels: &LabelGrid, frames: usize) -> f64 {
    let cols = frames.min(labels.cols());
    let pred = LabelGrid::from_fn(labels.rows(), cols, |v, t| flags.get(v, t));
    let truth = LabelGrid::from_fn(labels.rows(), cols, |v, t| labels.get(v, t));
    evaluate_point_adjusted(&pred, &truth).f1
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Total size of the files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Estimated share of the measured phase spent recording its `spans`
/// spans, in percent: the span count times the measured cost of one
/// `begin`/`end` pair. It is an estimate, not the difference from an
/// untraced run: that difference is smaller than the run-to-run spread of
/// every timing, so it could not be told from noise.
pub fn trace_overhead_est_pct(spans: usize, measured_s: f64) -> f64 {
    spans as f64 * Tracer::pair_cost_ns() * 1e-9 / measured_s * 100.0
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Shorthand for turning any displayable error into the workload error.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}
