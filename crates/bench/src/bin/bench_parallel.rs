//! Reproducible wall-clock benchmark of the parallel execution substrate
//! and the runtime-dispatched kernel layer.
//!
//! Emits `BENCH_parallel.json` (repo root, or `--out <path>`) recording,
//! for each stage — GEMM, Stage-1 fit, scoring, end-to-end detect — the
//! median wall-clock at 1 thread vs. the pool default. The GEMM section
//! compares three single-thread kernels (textbook naive, blocked scalar
//! dispatch, blocked SIMD dispatch on the detected backend) so both the
//! blocking win and the SIMD win are visible separately, and the report
//! records the host's CPU features plus the dispatch choice. A final
//! section profiles steady-state heap allocations per streamed
//! `OnlineAero::push` with a counting global allocator alongside the
//! tensor workspace-pool miss counters.
//!
//! Numbers are **measured, never synthesized**: on a 1-CPU container the
//! multi-thread rows will honestly show ~1×, on a CPU without AVX2/AVX-512
//! the SIMD rows are `null`, and the JSON records enough host facts
//! (logical CPUs, features, backend) to interpret every row.
//!
//! Flags: `--smoke` (tiny sizes, used by tier-1 to keep the harness wired),
//! `--threads <n>` (parallel variant thread count), `--out <path>`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use std::sync::Arc;

use aero_core::fleet::{FleetConfig, FleetCoordinator, ShardAssignment, ShardFactory, StarCatalog};
use aero_core::online::{DegradePolicy, OnlineAero};
use aero_core::wal::{FsyncPolicy, WalConfig, WalWriter};
use aero_core::{
    Aero, AeroConfig, ChaosHook, Detector, FallbackScorer, LadderLevel, OverloadPolicy,
    ScoreMode, StreamGovernor,
};
use aero_datagen::SyntheticConfig;
use aero_evt::PotConfig;
use aero_tensor::{workspace, Backend, Matrix};
use aero_timeseries::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// relaxed atomic increment with no other side effects.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

#[derive(Serialize)]
struct Report {
    benchmark: &'static str,
    mode: &'static str,
    /// Logical CPUs on the host. Thread-scaling speedups are only
    /// meaningful when this exceeds 1 — every number is a measured
    /// wall-clock median, never synthesized.
    host_logical_cpus: usize,
    threads_parallel_variant: usize,
    reps_per_sample: usize,
    cpu: CpuReport,
    gemm: GemmReport,
    fit_stage1: StageReport,
    score_window: StageReport,
    e2e_detect: StageReport,
    batched_inference: BatchedReport,
    streaming_allocs: AllocReport,
    memory_at_scale: MemoryAtScaleReport,
    wal_overhead: WalReport,
    degradation_ladder: LadderReport,
    fleet_scaling: FleetScalingReport,
    migration_pause: MigrationPauseReport,
}

/// Batched cross-star Stage-1 (one stacked `(N·W)×d` GEMM per layer) vs the
/// per-star path (N small GEMMs + tape bookkeeping) over the same streamed
/// frames. The per-star arm installs a no-op `ChaosHook`, which is what
/// routes Stage-1 through the per-star tape path. Both runs are
/// single-threaded, so the speedup is the GEMM shape
/// and the tape-free forward, not parallelism — it is meaningful on any
/// host. `stage1` rows force `ScoreMode::Stage1` to isolate the rewritten
/// path; `full` rows run the whole push (Stage-2 GCN included) to show the
/// end-to-end effect.
#[derive(Serialize)]
struct BatchedReport {
    stars: usize,
    frames_per_sample: usize,
    per_star_stage1_secs_per_frame: f64,
    batched_stage1_secs_per_frame: f64,
    stage1_speedup: f64,
    per_star_full_secs_per_frame: f64,
    batched_full_secs_per_frame: f64,
    full_speedup: f64,
}

/// Fleet-coordinator streaming throughput vs shard count (one pool shard
/// per fleet shard, no WAL). On a 1-CPU host the rows will honestly show
/// ~flat frames/sec; the shared-nothing win is isolation, and the
/// throughput win appears only with real cores to spread shards across.
#[derive(Serialize)]
struct FleetScalingReport {
    frames_per_sample: usize,
    stars: usize,
    rows: Vec<FleetScalingRow>,
}

#[derive(Serialize)]
struct FleetScalingRow {
    shards: usize,
    /// Logical CPUs on the host — multi-shard rows only show a throughput
    /// win when this exceeds the shard count being spread.
    host_logical_cpus: usize,
    secs_per_frame: f64,
    frames_per_sec: f64,
    note: Option<&'static str>,
}

/// Cost of a live WAL-fenced star handoff (DESIGN.md §16): one
/// migrate-live night whose starting assignment deliberately mis-homes one
/// star pair, so the first epoch-boundary plan rehomes exactly that pair.
/// Every offer+poll tick is timed individually; the tick whose poll
/// executes the handoff (fence + snapshot + destination rebuild + commit)
/// is reported against the steady-state tick distribution. The pause is
/// dominated by retraining the destination shards' models — measured, not
/// synthesized, so it honestly scales with model size.
#[derive(Serialize)]
struct MigrationPauseReport {
    frames_per_sample: usize,
    stars: usize,
    shards: usize,
    epoch_frames: usize,
    stars_moved: usize,
    steady_p50_tick_secs: f64,
    steady_p99_tick_secs: f64,
    handoff_tick_secs: f64,
    pause_ratio_vs_steady_p50: f64,
    note: Option<&'static str>,
}

/// CPU features the dispatcher probes and the backend choice it made, so
/// every kernel row in this report can be attributed to the code path that
/// actually ran.
#[derive(Serialize)]
struct CpuReport {
    arch: &'static str,
    avx2: bool,
    avx512f: bool,
    neon: bool,
    force_scalar_env: bool,
    detected_backend: &'static str,
    active_backend: &'static str,
}

/// Steady-state heap-allocation profile of `OnlineAero::push` after
/// warm-up. The workspace-pool miss counters must read zero (every tensor
/// buffer and graph tape is served from the pool); `heap_allocs_per_push`
/// is the remaining non-tensor bookkeeping (verdicts, EVT state).
#[derive(Serialize)]
struct AllocReport {
    warmup_pushes: usize,
    measured_pushes: usize,
    heap_allocs_per_push: f64,
    tensor_buffer_misses: u64,
    graph_tape_misses: u64,
}

/// Resident memory of a detector fleet under the shared frozen backbone
/// (DESIGN.md §17): one `Arc`-shared trunk plus per-star adapter deltas,
/// versus each star owning a full model copy. The headline numbers are
/// **measured** via `Aero::resident_bytes` with an `Arc`-pointer dedup set;
/// the curve extrapolates with the closed-form model that the measured rows
/// (and the ±15% unit gate in `aero-core::memory`) validate.
#[derive(Serialize)]
struct MemoryAtScaleReport {
    stars_measured: usize,
    /// Measured resident bytes of one fleet sharing a single backbone.
    shared_total_bytes_measured: usize,
    /// Measured resident bytes of one single-star full model, counted with
    /// a fresh dedup set (what each of N independent models would pin).
    per_star_full_model_bytes_measured: usize,
    shared_bytes_per_star: f64,
    /// `per_star_full_model_bytes / shared_bytes_per_star` at
    /// `stars_measured` — the ISSUE gate requires ≥ 4 at N = 256.
    bytes_per_star_reduction: f64,
    /// Second fleet measured behind the same dedup set: only delta bytes.
    second_fleet_marginal_bytes_measured: usize,
    /// Closed-form estimate vs the measured shared arm.
    model_vs_measured_rel_err: f64,
    memory_curve: Vec<MemoryCurveRow>,
}

#[derive(Serialize)]
struct MemoryCurveRow {
    stars: usize,
    /// Measured where a fleet of this size is cheap to assemble (≤ 1024);
    /// `null` above that — the modeled column extends the curve.
    shared_total_bytes_measured: Option<usize>,
    shared_total_bytes_modeled: usize,
    per_star_full_total_bytes_modeled: usize,
    shared_bytes_per_star_modeled: f64,
}

/// Per-frame cost of a governed poll with every star forced onto one
/// ladder rung — the numbers behind the overload model's claim that each
/// rung is materially cheaper than the one above it (DESIGN.md §11).
#[derive(Serialize)]
struct LadderReport {
    frames_per_sample: usize,
    full_aero_secs_per_frame: f64,
    stage1_only_secs_per_frame: f64,
    sr_fallback_secs_per_frame: f64,
    hold_last_secs_per_frame: f64,
    stage1_saving_ratio: f64,
    hold_last_saving_ratio: f64,
}

/// Per-frame `OnlineAero::push` latency with the write-ahead log off vs.
/// attached under two fsync policies. Measured medians, never synthesized.
#[derive(Serialize)]
struct WalReport {
    frames_per_sample: usize,
    push_no_wal_secs_per_frame: f64,
    push_wal_fsync_never_secs_per_frame: f64,
    push_wal_fsync_segment_secs_per_frame: f64,
    wal_never_overhead_ratio: f64,
    wal_segment_overhead_ratio: f64,
}

/// Single-thread GEMM ladder: textbook naive loop → blocked scalar
/// dispatch → blocked SIMD dispatch (detected backend), then the blocked
/// kernel at N threads. SIMD rows are `null` when the host has no SIMD
/// backend (or `AERO_FORCE_SCALAR=1` pinned dispatch to scalar).
#[derive(Serialize)]
struct GemmReport {
    size: String,
    naive_1t_secs: f64,
    scalar_1t_secs: f64,
    simd_backend: &'static str,
    simd_1t_secs: Option<f64>,
    blocked_nt_secs: f64,
    scalar_speedup_vs_naive_1t: f64,
    simd_speedup_vs_scalar_1t: Option<f64>,
    /// Logical CPUs on the host — a sub-1.0 "speedup" on a 1-CPU host is
    /// pool overhead, not a regression, so the ratio is withheld there.
    host_logical_cpus: usize,
    thread_speedup: Option<f64>,
    note: Option<&'static str>,
}

#[derive(Serialize)]
struct StageReport {
    /// Logical CPUs on the host (see [`GemmReport::host_logical_cpus`]).
    host_logical_cpus: usize,
    secs_1t: f64,
    secs_nt: f64,
    thread_speedup: Option<f64>,
    note: Option<&'static str>,
}

struct Args {
    smoke: bool,
    threads: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get().max(2)),
        out: "BENCH_parallel.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => panic!("unknown flag {other} (expected --smoke | --threads N | --out PATH)"),
        }
    }
    args
}

fn speedup_ratio(one: f64, many: f64) -> f64 {
    if many > 0.0 {
        one / many
    } else {
        0.0
    }
}

/// Median-of-`reps` wall-clock seconds for `f`.
fn time_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn rand_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
}

/// Textbook three-loop GEMM — the kernel the blocked one replaced.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a.get(i, p) * b.get(p, j);
        }
        acc
    })
}

fn dataset(smoke: bool) -> Dataset {
    let mut cfg = SyntheticConfig::middle();
    if smoke {
        cfg.train_len = 120;
        cfg.test_len = 120;
    } else {
        cfg.train_len = 600;
        cfg.test_len = 600;
    }
    cfg.build()
}

fn model_config(smoke: bool) -> AeroConfig {
    let mut cfg = AeroConfig::tiny();
    cfg.max_epochs = if smoke { 1 } else { 2 };
    cfg
}

fn main() {
    let args = parse_args();
    let reps = if args.smoke { 1 } else { 3 };
    let logical_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- Backend: honor AERO_FORCE_SCALAR, otherwise run on the detected
    // SIMD backend; flip to scalar only for the explicit scalar GEMM rows.
    let detected = aero_tensor::detected_backend();
    let active = if aero_tensor::force_scalar_env() { Backend::Scalar } else { detected };
    assert!(aero_tensor::set_backend(active));
    let simd = (active != Backend::Scalar).then_some(active);

    // --- GEMM ladder: naive vs blocked-scalar vs blocked-SIMD (1 thread),
    // then blocked at N threads on the active backend. ---
    let gemm_n = if args.smoke { 128 } else { 384 };
    let mut rng = StdRng::seed_from_u64(7);
    let a = rand_matrix(&mut rng, gemm_n, gemm_n);
    let b = rand_matrix(&mut rng, gemm_n, gemm_n);

    aero_parallel::set_max_threads(1);
    let gemm_naive = time_secs(reps, || {
        naive_matmul(&a, &b);
    });
    assert!(aero_tensor::set_backend(Backend::Scalar));
    let gemm_scalar_1t = time_secs(reps, || {
        a.matmul(&b).unwrap();
    });
    let gemm_simd_1t = simd.map(|backend| {
        assert!(aero_tensor::set_backend(backend));
        time_secs(reps, || {
            a.matmul(&b).unwrap();
        })
    });
    assert!(aero_tensor::set_backend(active));
    let gemm_blocked_1t = gemm_simd_1t.unwrap_or(gemm_scalar_1t);
    aero_parallel::set_max_threads(args.threads);
    let gemm_blocked_nt = time_secs(reps, || {
        a.matmul(&b).unwrap();
    });

    // --- Pipeline stages at 1 vs N threads. ---
    let ds = dataset(args.smoke);
    let run_fit = || {
        let mut model = Aero::new(model_config(args.smoke)).unwrap();
        model.fit(&ds.train).unwrap();
        model
    };

    aero_parallel::set_max_threads(1);
    let fit_1t = time_secs(reps, || {
        run_fit();
    });
    let mut model = run_fit();
    let score_1t = time_secs(reps, || {
        model.score(&ds.test).unwrap();
    });
    let e2e_1t = time_secs(reps, || {
        run_fit().score(&ds.test).unwrap();
    });

    aero_parallel::set_max_threads(args.threads);
    let fit_nt = time_secs(reps, || {
        run_fit();
    });
    let score_nt = time_secs(reps, || {
        model.score(&ds.test).unwrap();
    });
    let e2e_nt = time_secs(reps, || {
        run_fit().score(&ds.test).unwrap();
    });
    aero_parallel::set_max_threads(1);

    // --- WAL overhead: per-frame push latency off / never / segment. ---
    let wal_frames = if args.smoke { 30 } else { 150 };
    let n = ds.test.num_variates();
    let frames: Vec<(f64, Vec<f32>)> = (0..wal_frames.min(ds.test.len()))
        .map(|t| {
            (
                ds.test.timestamps()[t],
                (0..n).map(|v| ds.test.get(v, t)).collect(),
            )
        })
        .collect();
    let fresh_online = || {
        let model = run_fit();
        OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap()
    };
    let push_all = |wal: Option<FsyncPolicy>| {
        let mut online = fresh_online();
        let dir = std::env::temp_dir().join(format!(
            "aero_bench_wal_{}_{:?}",
            std::process::id(),
            wal
        ));
        std::fs::remove_dir_all(&dir).ok();
        if let Some(fsync) = wal {
            let config = WalConfig { frames_per_segment: 16, fsync, identity: None };
            online.attach_wal(WalWriter::create(&dir, config).unwrap());
        }
        // Shift timestamps forward each rep so every rep's frames are
        // fresh arrivals (re-pushing identical timestamps would measure
        // the cheap duplicate-drop path instead of scoring + WAL).
        let span = frames.last().map_or(1.0, |f| f.0) - frames.first().map_or(0.0, |f| f.0) + 1.0;
        let mut offset = 0.0;
        let per_frame = time_secs(reps, || {
            for (ts, values) in &frames {
                online.push(*ts + offset, values).unwrap();
            }
            offset += span;
        }) / frames.len().max(1) as f64;
        std::fs::remove_dir_all(&dir).ok();
        per_frame
    };
    let wal_off = push_all(None);
    let wal_never = push_all(Some(FsyncPolicy::Never));
    let wal_segment = push_all(Some(FsyncPolicy::EverySegment));

    // --- Degradation ladder: governed per-frame cost at each forced rung.
    // The ladder is pinned (an unreachable up-streak) so the drained queue
    // cannot step the stars back up mid-measurement.
    let ladder_cost = |level: LadderLevel| {
        let online = fresh_online();
        let policy = OverloadPolicy { up_streak: usize::MAX, ..OverloadPolicy::default() };
        let mut gov = StreamGovernor::with_policy(online, policy).unwrap();
        gov.set_fallback(Some(FallbackScorer::new(|w: &[f32]| {
            w.iter().fold(0.0f32, |acc, &x| acc.max(x.abs()))
        })));
        gov.force_ladder_level(level);
        let span = frames.last().map_or(1.0, |f| f.0) - frames.first().map_or(0.0, |f| f.0) + 1.0;
        let mut offset = 0.0;
        time_secs(reps, || {
            for (ts, values) in &frames {
                gov.offer(*ts + offset, values).unwrap();
                gov.poll().unwrap();
            }
            offset += span;
        }) / frames.len().max(1) as f64
    };
    let ladder_full = ladder_cost(LadderLevel::FullAero);
    let ladder_stage1 = ladder_cost(LadderLevel::Stage1Only);
    let ladder_sr = ladder_cost(LadderLevel::SrFallback);
    let ladder_hold = ladder_cost(LadderLevel::HoldLast);

    // --- Batched cross-star Stage-1 vs per-star over the same streamed
    // frames, single thread (the speedup is the stacked GEMM shape and the
    // tape-free forward, not parallelism). Stage1 modes isolate the
    // rewritten path; the full rows add the (unchanged) Stage-2 GCN. ---
    let span = frames.last().map_or(1.0, |f| f.0) - frames.first().map_or(0.0, |f| f.0) + 1.0;
    let stage1_modes = vec![ScoreMode::Stage1; n];
    let stream_cost = |batched: bool, modes: Option<&[ScoreMode]>| {
        let mut online = fresh_online();
        if !batched {
            online.set_chaos_hook(Some(ChaosHook::new(|_| {})));
        }
        let mut offset = 0.0;
        time_secs(reps, || {
            for (ts, values) in &frames {
                match modes {
                    Some(m) => online.push_with_modes(*ts + offset, values, m).unwrap(),
                    None => online.push(*ts + offset, values).unwrap(),
                };
            }
            offset += span;
        }) / frames.len().max(1) as f64
    };
    let batched_report = {
        let per_star_stage1 = stream_cost(false, Some(&stage1_modes));
        let batched_stage1 = stream_cost(true, Some(&stage1_modes));
        let per_star_full = stream_cost(false, None);
        let batched_full = stream_cost(true, None);
        BatchedReport {
            stars: n,
            frames_per_sample: frames.len(),
            per_star_stage1_secs_per_frame: per_star_stage1,
            batched_stage1_secs_per_frame: batched_stage1,
            stage1_speedup: speedup_ratio(per_star_stage1, batched_stage1),
            per_star_full_secs_per_frame: per_star_full,
            batched_full_secs_per_frame: batched_full,
            full_speedup: speedup_ratio(per_star_full, batched_full),
        }
    };

    // --- Steady-state allocation profile of the streaming scoring path
    // (single thread; pool warm-up is two full passes over the frames). ---
    let streaming_allocs = {
        let mut online = fresh_online();
        let span = frames.last().map_or(1.0, |f| f.0) - frames.first().map_or(0.0, |f| f.0) + 1.0;
        let mut offset = 0.0;
        for _ in 0..2 {
            for (ts, values) in &frames {
                online.push(*ts + offset, values).unwrap();
            }
            offset += span;
        }
        workspace::reset_stats();
        let before = allocs_now();
        for (ts, values) in &frames {
            online.push(*ts + offset, values).unwrap();
        }
        let heap_delta = allocs_now() - before;
        let stats = workspace::stats();
        AllocReport {
            warmup_pushes: frames.len() * 2,
            measured_pushes: frames.len(),
            heap_allocs_per_push: heap_delta as f64 / frames.len().max(1) as f64,
            tensor_buffer_misses: stats.buffer_misses,
            graph_tape_misses: stats.tape_misses,
        }
    };

    // --- Fleet scaling: coordinator offer+poll throughput vs shard count.
    // Each shard trains its own model over exactly its member stars (the
    // shared-nothing contract), so the per-count setup cost is one full
    // catalog's training split across the shards; only streaming is timed.
    aero_parallel::set_max_threads(args.threads);
    let fleet_rows: Vec<FleetScalingRow> = [1usize, 2, 4, 8]
        .iter()
        .filter(|&&shards| shards <= n)
        .map(|&shards| {
            let catalog = StarCatalog::sequential(n);
            let assignment = ShardAssignment::partition(&catalog, shards, 7).unwrap();
            let train = ds.train.clone();
            let smoke = args.smoke;
            let factory: ShardFactory = Arc::new(move |members: &[usize]| {
                let slice = train
                    .select_variates(members)
                    .map_err(|e| aero_core::DetectorError::Invalid(e.to_string()))?;
                let mut model = Aero::new(model_config(smoke))?;
                model.fit(&slice)?;
                // A 3-star shard's short calibration slice has too few tail
                // peaks for the default 0.99 POT level; throughput, not
                // detection quality, is what this section measures.
                let pot = PotConfig { level: 0.95, ..PotConfig::default() };
                OnlineAero::with_policy(model, &slice, pot, DegradePolicy::default())
            });
            let config = FleetConfig { seed: 7, ..FleetConfig::default() };
            let mut fleet =
                FleetCoordinator::new(catalog, assignment, factory, None, config).unwrap();
            let span =
                frames.last().map_or(1.0, |f| f.0) - frames.first().map_or(0.0, |f| f.0) + 1.0;
            let mut offset = 0.0;
            let secs_per_frame = time_secs(reps, || {
                for (ts, values) in &frames {
                    fleet.offer(*ts + offset, values).unwrap();
                    fleet.poll().unwrap();
                }
                fleet.drain().unwrap();
                offset += span;
            }) / frames.len().max(1) as f64;
            FleetScalingRow {
                shards,
                host_logical_cpus: logical_cpus,
                secs_per_frame,
                frames_per_sec: if secs_per_frame > 0.0 { 1.0 / secs_per_frame } else { 0.0 },
                note: (logical_cpus <= 1 && shards > 1).then_some("skipped_single_cpu"),
            }
        })
        .collect();
    aero_parallel::set_max_threads(1);

    // --- Migration pause: a migrate-live night starting from the epoch-1
    // LPT plan with one star pair swapped between shards 0 and 1, so the
    // first epoch boundary executes a real two-phase handoff. Each
    // offer+poll tick is timed; the handoff tick is spotted by the
    // stars_moved counter advancing across it. ---
    aero_parallel::set_max_threads(args.threads);
    let migration_pause = {
        let shards = 2usize;
        let catalog = StarCatalog::sequential(n);
        let uniform = vec![1u64; n];
        let planned = ShardAssignment::rebalance(&catalog, shards, 7, &uniform, 1).unwrap();
        let mut shard_of = planned.shard_map().to_vec();
        let a = shard_of.iter().position(|&s| s == 0).unwrap();
        let b = shard_of.iter().position(|&s| s == 1).unwrap();
        shard_of.swap(a, b);
        let assignment = ShardAssignment::from_plan(&catalog, shards, shard_of, 0).unwrap();
        let train = ds.train.clone();
        let smoke = args.smoke;
        let factory: ShardFactory = Arc::new(move |members: &[usize]| {
            let slice = train
                .select_variates(members)
                .map_err(|e| aero_core::DetectorError::Invalid(e.to_string()))?;
            let mut model = Aero::new(model_config(smoke))?;
            model.fit(&slice)?;
            let pot = PotConfig { level: 0.95, ..PotConfig::default() };
            OnlineAero::with_policy(model, &slice, pot, DegradePolicy::default())
        });
        let wal_root =
            std::env::temp_dir().join(format!("aero_bench_migrate_{}", std::process::id()));
        std::fs::remove_dir_all(&wal_root).ok();
        let epoch_frames = frames.len() / 2;
        let config = FleetConfig {
            seed: 7,
            epoch_frames,
            wal_root: Some(wal_root.clone()),
            wal: WalConfig { frames_per_segment: 64, fsync: FsyncPolicy::Never, identity: None },
            migrate_live: true,
            ..FleetConfig::default()
        };
        let mut fleet =
            FleetCoordinator::new(catalog, assignment, factory, None, config).unwrap();
        let mut ticks: Vec<(f64, bool)> = Vec::with_capacity(frames.len());
        for (ts, values) in &frames {
            let moved_before = fleet.stars_moved();
            let t0 = Instant::now();
            fleet.offer(*ts, values).unwrap();
            fleet.poll().unwrap();
            let secs = t0.elapsed().as_secs_f64();
            ticks.push((secs, fleet.stars_moved() != moved_before));
        }
        fleet.drain().unwrap();
        let stars_moved = fleet.stars_moved();
        drop(fleet);
        std::fs::remove_dir_all(&wal_root).ok();
        let mut steady: Vec<f64> =
            ticks.iter().filter(|&&(_, handoff)| !handoff).map(|&(secs, _)| secs).collect();
        steady.sort_by(f64::total_cmp);
        let pct = |p: f64| {
            let idx = ((steady.len().max(1) - 1) as f64 * p).round() as usize;
            steady.get(idx).copied().unwrap_or(0.0)
        };
        let handoff_secs =
            ticks.iter().filter(|&&(_, h)| h).map(|&(s, _)| s).fold(0.0f64, f64::max);
        let p50 = pct(0.50);
        MigrationPauseReport {
            frames_per_sample: frames.len(),
            stars: n,
            shards,
            epoch_frames,
            stars_moved,
            steady_p50_tick_secs: p50,
            steady_p99_tick_secs: pct(0.99),
            handoff_tick_secs: handoff_secs,
            pause_ratio_vs_steady_p50: if p50 > 0.0 { handoff_secs / p50 } else { 0.0 },
            note: (stars_moved == 0).then_some("no_migration_executed"),
        }
    };
    aero_parallel::set_max_threads(1);

    // --- Memory at scale: shared frozen backbone + per-star deltas vs one
    // full model per star (DESIGN.md §17). ---
    let memory_at_scale = {
        use std::collections::HashSet;

        let mut cfg = model_config(args.smoke);
        cfg.adapter_rank = 2;
        let mut mono = Aero::new(cfg.clone()).unwrap();
        mono.fit(&ds.train).unwrap();
        let backbone = mono.backbone().unwrap();
        let n_train = ds.train.num_variates();
        let deltas_for = |stars: usize| -> Vec<aero_core::StarDelta> {
            (0..stars).map(|v| mono.star_delta(v % n_train).unwrap()).collect()
        };

        let fleet_stars = 256usize;
        let deltas = deltas_for(fleet_stars);
        // Shared arm: the trunk's Arc'd matrices count once for the fleet.
        let shared = Aero::from_backbone(&backbone, &deltas).unwrap();
        let shared_total = shared.resident_bytes(&mut HashSet::new());
        // Per-star arm: a fresh dedup set per detector counts the trunk
        // once per detector — what N independent full models would pin.
        let single = Aero::from_backbone(&backbone, &deltas[..1]).unwrap();
        let per_star_full = single.resident_bytes(&mut HashSet::new());
        // Dedup witness: a second fleet behind the *same* set adds deltas
        // only.
        let mut seen = HashSet::new();
        let _first = shared.resident_bytes(&mut seen);
        let second_fleet = Aero::from_backbone(&backbone, &deltas).unwrap();
        let marginal = second_fleet.resident_bytes(&mut seen);

        let shared_per_star = shared_total as f64 / fleet_stars as f64;
        let estimate = aero_core::shared_fleet_memory(&cfg, fleet_stars);
        let rel_err = (estimate.total_bytes() as f64 - shared_total as f64).abs()
            / shared_total.max(1) as f64;

        let full_model_bytes = aero_core::aero_inference_memory(&cfg, 1).total_bytes();
        let memory_curve = [64usize, 256, 1024, 16_384, 262_144, 1_000_000]
            .iter()
            .map(|&stars| {
                let modeled = aero_core::shared_fleet_memory(&cfg, stars);
                let measured = (stars <= 1024).then(|| {
                    Aero::from_backbone(&backbone, &deltas_for(stars))
                        .unwrap()
                        .resident_bytes(&mut HashSet::new())
                });
                MemoryCurveRow {
                    stars,
                    shared_total_bytes_measured: measured,
                    shared_total_bytes_modeled: modeled.total_bytes(),
                    per_star_full_total_bytes_modeled: full_model_bytes.saturating_mul(stars),
                    shared_bytes_per_star_modeled: modeled.bytes_per_star(),
                }
            })
            .collect();

        MemoryAtScaleReport {
            stars_measured: fleet_stars,
            shared_total_bytes_measured: shared_total,
            per_star_full_model_bytes_measured: per_star_full,
            shared_bytes_per_star: shared_per_star,
            bytes_per_star_reduction: per_star_full as f64 / shared_per_star.max(1.0),
            second_fleet_marginal_bytes_measured: marginal,
            model_vs_measured_rel_err: rel_err,
            memory_curve,
        }
    };

    let speedup = speedup_ratio;
    let single_cpu = logical_cpus <= 1;
    let cpu_note = single_cpu.then_some("skipped_single_cpu");
    let stage = |one: f64, many: f64| StageReport {
        host_logical_cpus: logical_cpus,
        secs_1t: one,
        secs_nt: many,
        thread_speedup: (!single_cpu).then(|| speedup_ratio(one, many)),
        note: cpu_note,
    };
    let report = Report {
        benchmark: "parallel substrate + blocked GEMM",
        mode: if args.smoke { "smoke" } else { "full" },
        host_logical_cpus: logical_cpus,
        threads_parallel_variant: args.threads,
        reps_per_sample: reps,
        cpu: CpuReport {
            arch: std::env::consts::ARCH,
            avx2: Backend::Avx2.is_supported(),
            avx512f: Backend::Avx512.is_supported(),
            neon: Backend::Neon.is_supported(),
            force_scalar_env: aero_tensor::force_scalar_env(),
            detected_backend: detected.name(),
            active_backend: aero_tensor::backend().name(),
        },
        gemm: GemmReport {
            size: format!("{gemm_n}x{gemm_n}x{gemm_n}"),
            naive_1t_secs: gemm_naive,
            scalar_1t_secs: gemm_scalar_1t,
            simd_backend: simd.map_or("none", Backend::name),
            simd_1t_secs: gemm_simd_1t,
            blocked_nt_secs: gemm_blocked_nt,
            scalar_speedup_vs_naive_1t: speedup(gemm_naive, gemm_scalar_1t),
            simd_speedup_vs_scalar_1t: gemm_simd_1t.map(|s| speedup(gemm_scalar_1t, s)),
            host_logical_cpus: logical_cpus,
            thread_speedup: (!single_cpu).then(|| speedup_ratio(gemm_blocked_1t, gemm_blocked_nt)),
            note: cpu_note,
        },
        fit_stage1: stage(fit_1t, fit_nt),
        score_window: stage(score_1t, score_nt),
        e2e_detect: stage(e2e_1t, e2e_nt),
        batched_inference: batched_report,
        streaming_allocs,
        memory_at_scale,
        wal_overhead: WalReport {
            frames_per_sample: frames.len(),
            push_no_wal_secs_per_frame: wal_off,
            push_wal_fsync_never_secs_per_frame: wal_never,
            push_wal_fsync_segment_secs_per_frame: wal_segment,
            wal_never_overhead_ratio: speedup(wal_never, wal_off),
            wal_segment_overhead_ratio: speedup(wal_segment, wal_off),
        },
        degradation_ladder: LadderReport {
            frames_per_sample: frames.len(),
            full_aero_secs_per_frame: ladder_full,
            stage1_only_secs_per_frame: ladder_stage1,
            sr_fallback_secs_per_frame: ladder_sr,
            hold_last_secs_per_frame: ladder_hold,
            stage1_saving_ratio: speedup(ladder_full, ladder_stage1),
            hold_last_saving_ratio: speedup(ladder_full, ladder_hold),
        },
        fleet_scaling: FleetScalingReport {
            frames_per_sample: frames.len(),
            stars: n,
            rows: fleet_rows,
        },
        migration_pause,
    };
    let pretty = serde_json::to_string_pretty(&report).unwrap();
    std::fs::write(&args.out, format!("{pretty}\n")).expect("writing the benchmark report");
    println!("{pretty}");
    eprintln!("wrote {}", args.out);
}
