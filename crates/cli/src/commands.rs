//! Subcommand implementations for the `aero` CLI.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aero_baselines::{
    AnomalyTransformer, Donut, Esg, FluxEv, Gdn, LstmNdt, NnConfig, OmniAnomaly,
    SpectralResidual, SpotDetector, TemplateMatching, TimesNet, TranAd, VaeLstm,
};
use aero_core::online::{DegradePolicy, FrameDisposition, OnlineAero, StarStatus};
use aero_core::wal::{FsyncPolicy, WalConfig, WalWriter};
use aero_core::fleet::{
    FleetConfig, FleetCoordinator, ShardAssignment, ShardFactory, StarCatalog,
};
use aero_core::{
    build_catalog, render_catalog, render_fleet_health, run_detection, to_json, Aero, AeroConfig,
    Detector, FallbackScorer, FrameTotals, HealthReport, OverloadPolicy, StarDelta,
    StreamGovernor, SupervisorPolicy, SupervisorStats, WalIdentity, WalVerifyReport,
};
use aero_datagen::{AstrosetConfig, FaultInjector, FaultPlan, LoadProfile, SyntheticConfig};
use aero_eval::{evaluate_point_adjusted, threshold_scores};
use aero_evt::PotConfig;
use aero_timeseries::io::{read_labels, read_series, write_labels, write_series};
use aero_timeseries::{Dataset, LabelGrid};

use crate::args::Args;

/// The detectors `detect --method` accepts, with display names.
pub const METHODS: [(&str, &str); 14] = [
    ("aero", "AERO (this paper): two-stage Transformer + window-wise GNN"),
    ("tm", "Template Matching (SciDetector)"),
    ("sr", "Spectral Residual"),
    ("spot", "SPOT (EVT on raw values)"),
    ("fluxev", "FluxEV (EVT on extracted fluctuations)"),
    ("donut", "Donut (window VAE)"),
    ("omni", "OmniAnomaly (stochastic GRU-VAE)"),
    ("at", "AnomalyTransformer (association discrepancy)"),
    ("tranad", "TranAD (self-conditioned Transformer)"),
    ("gdn", "GDN (static learned graph)"),
    ("esg", "ESG (evolving graph)"),
    ("timesnet", "TimesNet (period-fold convolutions)"),
    ("lstm-ndt", "LSTM-NDT (bonus: forecast + smoothed errors)"),
    ("vae-lstm", "VAE-LSTM (bonus: local VAE + latent LSTM)"),
];

/// Prints the method table.
pub fn list_methods() {
    println!("available detectors:");
    for (key, desc) in METHODS {
        println!("  {key:<9} {desc}");
    }
}

fn build_detector(name: &str, paper: bool) -> Result<Box<dyn Detector>, String> {
    let nn = if paper {
        NnConfig { window: 60, hidden: 64, latent: 16, epochs: 100, patience: 5, stride: 10, ..NnConfig::fast() }
    } else {
        NnConfig::fast()
    };
    let aero_cfg = if paper { AeroConfig::paper() } else { AeroConfig::fast() };
    Ok(match name {
        "aero" => Box::new(Aero::new(aero_cfg).map_err(|e| e.to_string())?),
        "tm" => Box::new(TemplateMatching::default()),
        "sr" => Box::new(SpectralResidual::default()),
        "spot" => Box::new(SpotDetector::new()),
        "fluxev" => Box::new(FluxEv::default()),
        "donut" => Box::new(Donut::new(nn)),
        "omni" => Box::new(OmniAnomaly::new(nn)),
        "at" => Box::new(AnomalyTransformer::new(nn)),
        "tranad" => Box::new(TranAd::new(nn)),
        "gdn" => Box::new(Gdn::new(nn)),
        "esg" => Box::new(Esg::new(nn)),
        "timesnet" => Box::new(TimesNet::new(nn)),
        "lstm-ndt" => Box::new(LstmNdt::new(nn)),
        "vae-lstm" => Box::new(VaeLstm::new(nn)),
        other => return Err(format!("unknown method: {other} (see `aero list-methods`)")),
    })
}

fn build_preset(name: &str, seed: Option<u64>) -> Result<Dataset, String> {
    let synthetic = |mut cfg: SyntheticConfig| {
        if let Some(s) = seed {
            cfg.seed = s;
        }
        cfg.build()
    };
    let astro = |mut cfg: AstrosetConfig| {
        if let Some(s) = seed {
            cfg.seed = s;
        }
        cfg.build()
    };
    Ok(match name {
        "synthetic-middle" => synthetic(SyntheticConfig::middle()),
        "synthetic-high" => synthetic(SyntheticConfig::high()),
        "synthetic-low" => synthetic(SyntheticConfig::low()),
        "astroset-middle" => astro(AstrosetConfig::middle()),
        "astroset-high" => astro(AstrosetConfig::high()),
        "astroset-low" => astro(AstrosetConfig::low()),
        "tiny" => synthetic(SyntheticConfig::tiny(seed.unwrap_or(42))),
        other => return Err(format!("unknown preset: {other}")),
    })
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `aero generate` — writes train/test series plus ground-truth grids.
pub fn generate(args: &Args) -> Result<(), String> {
    let preset = args.require("preset")?;
    let out = PathBuf::from(args.require("out")?);
    let seed = match args.get("seed") {
        Some(s) => Some(s.parse::<u64>().map_err(io_err)?),
        None => None,
    };
    let dataset = build_preset(preset, seed)?;
    dataset.validate().map_err(io_err)?;
    std::fs::create_dir_all(&out).map_err(io_err)?;

    write_series(&dataset.train, &out.join("train.csv")).map_err(io_err)?;
    write_series(&dataset.test, &out.join("test.csv")).map_err(io_err)?;
    write_labels(&dataset.test_labels, &out.join("test_labels.csv")).map_err(io_err)?;
    write_labels(&dataset.test_noise, &out.join("test_noise.csv")).map_err(io_err)?;

    let stats = dataset.stats();
    println!(
        "wrote {preset} to {}: {} stars, {} train / {} test points,",
        out.display(),
        stats.variates,
        stats.train_len,
        stats.test_len
    );
    println!(
        "  anomalies {:.3}% ({} segments), concurrent noise {:.3}% (variates {})",
        stats.anomaly_pct, stats.anomaly_segments, stats.noise_pct, stats.noise_variates
    );
    Ok(())
}

/// `aero detect` — fit, calibrate, score, threshold, persist.
pub fn detect(args: &Args) -> Result<(), String> {
    let data = PathBuf::from(args.require("data")?);
    let method = args.require("method")?;
    let out = PathBuf::from(args.require("out")?);
    let paper = args.flag("paper");
    let pot = PotConfig {
        level: args.get_parsed("level", 0.99f64)?,
        q: args.get_parsed("q", 1e-3f64)?,
    };

    let train = read_series(&data.join("train.csv")).map_err(io_err)?;
    let test = read_series(&data.join("test.csv")).map_err(io_err)?;
    if train.num_variates() != test.num_variates() {
        return Err(format!(
            "train has {} variates but test has {}",
            train.num_variates(),
            test.num_variates()
        ));
    }
    // Ground truth is optional — used for reporting only.
    let labels_path = data.join("test_labels.csv");
    let labels = if labels_path.exists() {
        Some(read_labels(&labels_path).map_err(io_err)?)
    } else {
        None
    };
    let dataset = Dataset {
        name: data.display().to_string(),
        test_labels: labels
            .clone()
            .unwrap_or_else(|| LabelGrid::new(test.num_variates(), test.len())),
        test_noise: LabelGrid::new(test.num_variates(), test.len()),
        train_noise: LabelGrid::new(train.num_variates(), train.len()),
        train,
        test,
    };

    let mut detector = build_detector(method, paper)?;
    eprintln!("training {} …", detector.name());
    let outcome = run_detection(detector.as_mut(), &dataset, pot).map_err(io_err)?;

    // Optional model persistence (AERO only): train once, redeploy later.
    if let Some(model_path) = args.get("save-model") {
        if method == "aero" {
            // Re-fit on the full training split for the saved artefact.
            let mut model = Aero::new(if paper { AeroConfig::paper() } else { AeroConfig::fast() })
                .map_err(io_err)?;
            model.fit(&dataset.train).map_err(io_err)?;
            aero_core::save_model(&model, Path::new(model_path)).map_err(io_err)?;
            eprintln!("saved trained AERO to {model_path}");
        } else {
            return Err("--save-model is only supported for --method aero".into());
        }
    }

    std::fs::create_dir_all(&out).map_err(io_err)?;
    // scores.csv: same layout as a series file.
    let score_series = aero_timeseries::MultivariateSeries::new(
        outcome.scores.clone(),
        dataset.test.timestamps().to_vec(),
    )
    .map_err(io_err)?;
    write_series(&score_series, &out.join("scores.csv")).map_err(io_err)?;
    let flags = threshold_scores(&outcome.scores, outcome.threshold.threshold);
    write_labels(&flags, &out.join("flags.csv")).map_err(io_err)?;

    let mut summary = format!(
        "method: {}\nthreshold: {:.6} (POT level {}, q {}, gamma {:.4}, {} peaks)\n\
         train time: {:.2}s\ntest time: {:.2}s\nflagged points: {}\n",
        detector.name(),
        outcome.threshold.threshold,
        pot.level,
        pot.q,
        outcome.threshold.gamma,
        outcome.threshold.peaks,
        outcome.timing.train_secs,
        outcome.timing.test_secs,
        flags.count(),
    );
    if labels.is_some() {
        summary.push_str(&format!(
            "precision: {:.2}%\nrecall: {:.2}%\nF1: {:.2}%\n",
            outcome.metrics.precision * 100.0,
            outcome.metrics.recall * 100.0,
            outcome.metrics.f1 * 100.0
        ));
    }
    std::fs::write(out.join("summary.txt"), &summary).map_err(io_err)?;

    // Ranked event catalog — the artefact an astronomer reviews.
    let catalog = build_catalog(&flags, &outcome.scores, 3);
    let rendered = render_catalog(&catalog, dataset.test.timestamps(), 50);
    std::fs::write(out.join("catalog.txt"), &rendered).map_err(io_err)?;

    print!("{summary}");
    println!("{} candidate events (top ranked in catalog.txt)", catalog.len());
    println!(
        "wrote scores.csv, flags.csv, summary.txt, catalog.txt to {}",
        out.display()
    );
    Ok(())
}

/// `aero stream` — replay a test series frame-by-frame through a saved
/// model, as the online monitor would consume it, and report per-frame
/// verdicts plus the degradation health counters. The stream runs behind a
/// [`StreamGovernor`]: a bounded admission queue, priority load shedding,
/// and the degradation ladder (DESIGN.md §11), with the spectral-residual
/// baseline wired in as the model-free fallback rung.
pub fn stream(args: &Args) -> Result<(), String> {
    // A bare `--faults` / `--refit-interval` / … parses as a boolean flag; a
    // silent no-fault run when the user asked for one defeats the point.
    for opt in [
        "faults", "refit-interval", "wal", "fsync", "kill-after", "burst", "queue-cap", "shards",
        "probe-after", "kill-shard", "rebalance-every",
    ] {
        if args.flag(opt) {
            return Err(format!("--{opt} requires a value"));
        }
    }
    if args.get("shards").is_some() {
        return stream_fleet(args);
    }
    for opt in ["probe-after", "kill-shard", "rebalance-every"] {
        if args.get(opt).is_some() {
            return Err(format!(
                "--{opt} applies to shard-level fleet supervision; add --shards <n>"
            ));
        }
    }
    let data = PathBuf::from(args.require("data")?);
    let model_path = PathBuf::from(args.require("model")?);
    let pot = PotConfig {
        level: args.get_parsed("level", 0.99f64)?,
        q: args.get_parsed("q", 1e-3f64)?,
    };
    let policy = DegradePolicy {
        refit_interval: args.get_parsed("refit-interval", 0usize)?,
        ..DegradePolicy::default()
    };
    let wal_dir = args.get("wal").map(PathBuf::from);
    let resume = args.flag("resume");
    if resume && wal_dir.is_none() {
        return Err("--resume requires --wal <dir>".into());
    }
    let fsync = match args.get("fsync") {
        None => FsyncPolicy::default(),
        Some(s) => FsyncPolicy::parse(s)
            .ok_or_else(|| format!("--fsync must be never|segment|record, got `{s}`"))?,
    };
    let kill_after = args.get_parsed("kill-after", usize::MAX)?;
    let burst_seed = match args.get("burst") {
        Some(s) => Some(s.parse::<u64>().map_err(io_err)?),
        None => None,
    };
    let queue_cap = args.get_parsed("queue-cap", 64usize)?;
    // Watermarks scale with the chosen capacity: degrade from half full,
    // recover below one eighth.
    let overload_policy = OverloadPolicy {
        queue_capacity: queue_cap,
        high_watermark: queue_cap / 2,
        low_watermark: queue_cap / 8,
        ..OverloadPolicy::default()
    };
    let sr = SpectralResidual::default();
    let fallback = FallbackScorer::new(move |window| sr.latest_score(window));

    let train = read_series(&data.join("train.csv")).map_err(io_err)?;
    let test = read_series(&data.join("test.csv")).map_err(io_err)?;
    let model = aero_core::load_model(&model_path).map_err(io_err)?;
    let online = OnlineAero::with_policy(model, &train, pot, policy).map_err(io_err)?;
    eprintln!(
        "streaming {} frames × {} stars (threshold {:.6}, cadence {:.3}, queue cap {})",
        test.len(),
        test.num_variates(),
        online.threshold().threshold,
        online.cadence(),
        queue_cap,
    );

    // Crash recovery: replay the WAL's surviving prefix — including the
    // recorded offer/poll interleaving — through a fresh governor,
    // reconstructing queue, ladder, and counters exactly; then continue the
    // night on the healed log.
    let wal_config = WalConfig { fsync, ..WalConfig::default() };
    let mut replayed = 0usize;
    let mut replay_verdicts = Vec::new();
    let mut gov = if let (Some(dir), true) = (&wal_dir, resume) {
        let (gov, verdicts, recovery) = StreamGovernor::resume_wal(
            online,
            overload_policy,
            Some(fallback),
            dir,
            wal_config,
        )
        .map_err(io_err)?;
        replayed = recovery.frames;
        eprintln!(
            "resumed from {}: replayed {} frames ({} verdicts) across {} segments{}",
            dir.display(),
            recovery.frames,
            verdicts.len(),
            recovery.segments,
            if recovery.truncated {
                format!(
                    " (torn tail: {} bytes and {} segments dropped)",
                    recovery.dropped_bytes, recovery.dropped_segments
                )
            } else {
                String::new()
            }
        );
        replay_verdicts = verdicts;
        gov
    } else {
        let mut gov =
            StreamGovernor::with_policy(online, overload_policy).map_err(io_err)?;
        gov.set_fallback(Some(fallback));
        if let Some(dir) = &wal_dir {
            gov.attach_wal(WalWriter::create(dir, wal_config).map_err(io_err)?)
                .map_err(io_err)?;
            eprintln!("write-ahead log: {} (fsync {:?})", dir.display(), fsync);
        }
        gov
    };

    // Optional fault injection: replay the night as a rough one.
    let n = test.num_variates();
    let frames: Vec<(f64, Vec<f32>)> = match args.get("faults") {
        Some(seed) => {
            let seed = seed.parse::<u64>().map_err(io_err)?;
            let (stream, log) = FaultInjector::new(FaultPlan::rough_night(seed)).corrupt_stream(&test);
            eprintln!(
                "injected faults (seed {seed}): {} events, {:.1}% of frames touched",
                log.total_faults(),
                log.corrupted_fraction() * 100.0
            );
            stream.into_iter().map(|f| (f.timestamp, f.values)).collect()
        }
        None => (0..test.len())
            .map(|t| (test.timestamps()[t], (0..n).map(|v| test.get(v, t)).collect()))
            .collect(),
    };

    // Arrival schedule: steady realtime (offer one, service one) unless
    // `--burst` turns the night into seeded 4×-realtime episodes, during
    // which the queue fills and the governor starts shedding and degrading.
    // The schedule always covers the FULL night; a resumed run fast-forwards
    // past the offers the WAL already replayed so the offer/poll interleaving
    // (and with it every admission and ladder decision) is bitwise identical
    // to an uninterrupted run.
    let schedule = match burst_seed {
        Some(seed) => {
            let profile = LoadProfile::burst_night(seed, frames.len());
            eprintln!(
                "burst schedule (seed {seed}): {} arrivals over {} ticks, peak {}×",
                profile.total_arrivals().min(frames.len()),
                frames.len(),
                profile.peak_rate()
            );
            profile.arrivals()
        }
        None => LoadProfile::realtime(0, frames.len()).arrivals(),
    };

    let mut flagged_frames = 0usize;
    let mut flagged_points = 0usize;
    let mut offered = 0usize;
    let mut rejected = 0usize;
    let mut tally = |verdict: &aero_core::GovernedVerdict| {
        if verdict.verdict.disposition == FrameDisposition::Scored
            && verdict.verdict.any_anomalous()
        {
            flagged_frames += 1;
            flagged_points += verdict.verdict.flagged().len();
        }
    };
    // Replayed verdicts count toward the night's flag totals so a resumed
    // run's summary matches an uninterrupted one.
    for v in &replay_verdicts {
        tally(v);
    }
    let mut pending = frames.iter().skip(replayed);
    let mut killed = false;
    // Offers already recovered from the WAL. Ticks wholly inside this prefix
    // are skipped poll-and-all (their serviced polls rode in on a later offer
    // record's meta word); the boundary tick's trailing poll is NOT in the
    // WAL (recovery granularity is the last offer), so it re-executes here.
    let mut to_skip = replayed;
    'night: for arrivals in schedule {
        let arrivals = if to_skip > arrivals {
            to_skip -= arrivals;
            continue;
        } else {
            let live = arrivals - to_skip;
            to_skip = 0;
            live
        };
        for _ in 0..arrivals {
            if offered >= kill_after {
                eprintln!(
                    "killed after {offered} live frames (simulated crash; rerun with \
                     --resume to continue)"
                );
                killed = true;
                break 'night;
            }
            let Some((timestamp, values)) = pending.next() else {
                break 'night;
            };
            let admission = gov.offer(*timestamp, values).map_err(io_err)?;
            offered += 1;
            if !admission.is_accepted() {
                rejected += 1;
            }
        }
        if let Some(v) = gov.poll().map_err(io_err)? {
            tally(&v);
        }
    }
    if !killed {
        // Night over: drain whatever backlog the bursts left behind.
        for v in gov.drain().map_err(io_err)? {
            tally(&v);
        }
    }

    println!(
        "frames: {} replayed + {} offered ({} rejected), {} flagged ({} star-points above threshold)",
        replayed, offered, rejected, flagged_frames, flagged_points
    );
    let online = gov.online();
    println!("health: {}", online.health());
    let quarantined: Vec<usize> = online
        .star_status()
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == StarStatus::Quarantined)
        .map(|(i, _)| i)
        .collect();
    if !quarantined.is_empty() {
        println!("quarantined stars at end of night: {quarantined:?}");
    }
    println!("{}", stream_summary_json(&gov, replayed, offered, flagged_frames, flagged_points));
    Ok(())
}

/// End-of-run machine-readable summary: supervision and the full health
/// report (overload counters and tenant lanes nested inside) on one line.
/// Shares the encoder with the `aero serve` status endpoint and drain
/// summary ([`aero_core::stream_summary_json`]).
fn stream_summary_json(
    gov: &StreamGovernor,
    replayed: usize,
    offered: usize,
    flagged_frames: usize,
    flagged_points: usize,
) -> String {
    aero_core::stream_summary_json(
        gov.online().health(),
        &gov.online().supervisor().stats(),
        FrameTotals { replayed, offered, flagged_frames, flagged_points },
    )
}

/// `aero stream --shards N` — shared-nothing fleet mode.
///
/// The star catalog is partitioned across N shards, each a fully independent
/// failure domain (its own detector, WAL directory `<wal>/shard-KKKK/`,
/// degradation ladder, and breaker) behind a routing coordinator. Compact
/// per-shard models are trained in-process and checkpointed next to the WAL
/// (`<wal>/models/`) so shard restarts and `--resume` load identical bits.
fn stream_fleet(args: &Args) -> Result<(), String> {
    let data = PathBuf::from(args.require("data")?);
    if args.get("model").is_some() {
        return Err(
            "fleet mode trains per-shard models in-process; drop --model (checkpoints land \
             under <wal>/models/)"
                .into(),
        );
    }
    let num_shards: usize = args.get_parsed("shards", 0usize)?;
    if num_shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let pot = PotConfig {
        level: args.get_parsed("level", 0.99f64)?,
        q: args.get_parsed("q", 1e-3f64)?,
    };
    let policy = DegradePolicy {
        refit_interval: args.get_parsed("refit-interval", 0usize)?,
        ..DegradePolicy::default()
    };
    let wal_root = args.get("wal").map(PathBuf::from);
    let resume = args.flag("resume");
    if resume && wal_root.is_none() {
        return Err("--resume requires --wal <dir>".into());
    }
    let fsync = match args.get("fsync") {
        None => FsyncPolicy::default(),
        Some(s) => FsyncPolicy::parse(s)
            .ok_or_else(|| format!("--fsync must be never|segment|record, got `{s}`"))?,
    };
    let kill_after = args.get_parsed("kill-after", usize::MAX)?;
    let chaos_kill = match args.get("kill-shard") {
        Some(s) => Some(s.parse::<usize>().map_err(io_err)?),
        None => None,
    };
    if chaos_kill.is_some() && kill_after == usize::MAX {
        return Err("--kill-shard needs --kill-after <n> (the offer count where it dies)".into());
    }
    let probe_after = args.get_parsed("probe-after", u32::MAX)?;
    let rebalance_every = args.get_parsed("rebalance-every", 0usize)?;
    let seed = args.get_parsed("seed", 0u64)?;
    let burst_seed = match args.get("burst") {
        Some(s) => Some(s.parse::<u64>().map_err(io_err)?),
        None => None,
    };
    let queue_cap = args.get_parsed("queue-cap", 64usize)?;
    let overload_policy = OverloadPolicy {
        queue_capacity: queue_cap,
        high_watermark: queue_cap / 2,
        low_watermark: queue_cap / 8,
        ..OverloadPolicy::default()
    };

    let train = read_series(&data.join("train.csv")).map_err(io_err)?;
    let test = read_series(&data.join("test.csv")).map_err(io_err)?;
    let n = test.num_variates();
    if num_shards > n {
        return Err(format!("--shards {num_shards} exceeds the {n}-star catalog"));
    }
    if chaos_kill.is_some_and(|k| k >= num_shards) {
        return Err(format!("--kill-shard names shard {} of {num_shards}", chaos_kill.unwrap_or(0)));
    }
    let catalog = StarCatalog::sequential(n);
    let assignment = ShardAssignment::partition(&catalog, num_shards, seed).map_err(io_err)?;

    // One frozen trunk for the whole fleet: the first factory call trains it
    // on a small star sample and checkpoints it; every shard (and every
    // crash-restart rebuild) reassembles from those shared parameters plus
    // kilobyte per-star scaler deltas. Reassembly is deterministic, so
    // restarts stay bitwise without S full per-shard model files on disk.
    // Without a WAL root the backbone lives in a per-process temp directory.
    let models_dir = match &wal_root {
        Some(root) => root.join("models"),
        None => std::env::temp_dir().join(format!("aero_fleet_models_{}", std::process::id())),
    };
    std::fs::create_dir_all(&models_dir).map_err(io_err)?;
    let factory: ShardFactory = {
        let train = train.clone();
        let backbone_path = models_dir.join("backbone.json");
        let policy = policy.clone();
        Arc::new(move |members: &[usize]| {
            let invalid = |e: aero_timeseries::TsError| {
                aero_core::DetectorError::Invalid(e.to_string())
            };
            let slice = train.select_variates(members).map_err(invalid)?;
            let reference = if backbone_path.exists() {
                aero_core::load_model(&backbone_path)?
            } else {
                let n = train.num_variates();
                let k = n.min(8);
                let sample: Vec<usize> = (0..k).map(|i| i * n / k).collect();
                let sample_slice = train.select_variates(&sample).map_err(invalid)?;
                let mut model = Aero::new(AeroConfig::tiny())?;
                model.fit(&sample_slice)?;
                aero_core::save_model(&model, &backbone_path)?;
                model
            };
            let backbone = reference.backbone()?;
            let mut scaler = aero_timeseries::MinMaxScaler::new();
            scaler.fit(&slice);
            let deltas: Vec<StarDelta> = scaler
                .mins()
                .iter()
                .zip(scaler.ranges())
                .map(|(&lo, &range)| StarDelta {
                    scaler_min: lo,
                    scaler_range: range,
                    adapter: None,
                })
                .collect();
            let model = Aero::from_backbone(&backbone, &deltas)?;
            OnlineAero::with_policy(model, &slice, pot, policy.clone())
        })
    };
    let sr = SpectralResidual::default();
    let fallback = FallbackScorer::new(move |window| sr.latest_score(window));
    let migrate_live = args.flag("migrate-live");
    if migrate_live && rebalance_every == 0 {
        return Err("--migrate-live needs --rebalance-every <n> (no plans, nothing to apply)".into());
    }
    let config = FleetConfig {
        seed,
        overload: overload_policy,
        shard_supervision: SupervisorPolicy { probe_after, ..SupervisorPolicy::default() },
        epoch_frames: rebalance_every,
        wal_root: wal_root.clone(),
        wal: WalConfig { fsync, ..WalConfig::default() },
        migrate_live,
        chaos_migration_kill: None,
    };

    let mut flagged_frames = 0usize;
    let mut flagged_points = 0usize;
    let mut tally = |verdict: &aero_core::GovernedVerdict| {
        if verdict.verdict.disposition == FrameDisposition::Scored
            && verdict.verdict.any_anomalous()
        {
            flagged_frames += 1;
            flagged_points += verdict.verdict.flagged().len();
        }
    };

    let mut replayed = 0usize;
    let mut to_skip = 0usize;
    let mut fleet = if resume {
        let (fleet, recovered) =
            FleetCoordinator::resume(catalog, assignment, factory, Some(fallback), config)
                .map_err(io_err)?;
        replayed = recovered.replayed.iter().map(Vec::len).sum();
        to_skip = recovered.frames_routed;
        eprintln!(
            "resumed fleet: {} frames routed, {} verdicts replayed, {} plans recovered",
            recovered.frames_routed, replayed, recovered.plans_recovered
        );
        for shard in &recovered.replayed {
            for v in shard {
                tally(v);
            }
        }
        fleet
    } else {
        FleetCoordinator::new(catalog, assignment, factory, Some(fallback), config)
            .map_err(io_err)?
    };
    eprintln!(
        "fleet: {} stars across {} shards (routing seed {seed}{})",
        n,
        num_shards,
        wal_root
            .as_ref()
            .map(|r| format!(", WAL root {}", r.display()))
            .unwrap_or_default(),
    );

    let frames: Vec<(f64, Vec<f32>)> = match args.get("faults") {
        Some(fault_seed) => {
            let fault_seed = fault_seed.parse::<u64>().map_err(io_err)?;
            let (stream, log) =
                FaultInjector::new(FaultPlan::rough_night(fault_seed)).corrupt_stream(&test);
            eprintln!(
                "injected faults (seed {fault_seed}): {} events, {:.1}% of frames touched",
                log.total_faults(),
                log.corrupted_fraction() * 100.0
            );
            stream.into_iter().map(|f| (f.timestamp, f.values)).collect()
        }
        None => (0..test.len())
            .map(|t| (test.timestamps()[t], (0..n).map(|v| test.get(v, t)).collect()))
            .collect(),
    };
    let schedule = match burst_seed {
        Some(s) => LoadProfile::burst_night(s, frames.len()).arrivals(),
        None => LoadProfile::realtime(0, frames.len()).arrivals(),
    };

    let mut offered = 0usize;
    let mut rejected = 0usize;
    let mut killed = false;
    let mut chaos_pending = chaos_kill;
    let mut pending = frames.iter().skip(to_skip);
    'night: for arrivals in schedule {
        let arrivals = if to_skip > arrivals {
            to_skip -= arrivals;
            continue;
        } else {
            let live = arrivals - to_skip;
            to_skip = 0;
            live
        };
        for _ in 0..arrivals {
            if offered >= kill_after {
                if let Some(k) = chaos_pending.take() {
                    // In-process chaos: one shard dies and must restart from
                    // its own WAL while the night keeps streaming.
                    fleet.kill_shard(k).map_err(io_err)?;
                    eprintln!("chaos: killed shard {k} after {offered} frames");
                } else if chaos_kill.is_none() {
                    eprintln!(
                        "killed after {offered} live frames (simulated crash; rerun with \
                         --resume to continue)"
                    );
                    killed = true;
                    break 'night;
                }
            }
            let Some((timestamp, values)) = pending.next() else {
                break 'night;
            };
            for admission in fleet.offer(*timestamp, values).map_err(io_err)?.into_iter().flatten()
            {
                if !admission.is_accepted() {
                    rejected += 1;
                }
            }
            offered += 1;
        }
        for v in fleet.poll().map_err(io_err)?.into_iter().flatten() {
            tally(&v);
        }
    }
    if !killed {
        for shard in fleet.drain().map_err(io_err)? {
            for v in &shard {
                tally(v);
            }
        }
    }

    let health = fleet.health();
    println!(
        "frames: {} replayed + {} offered ({} shard slices rejected), {} flagged ({} star-points above threshold)",
        replayed, offered, rejected, flagged_frames, flagged_points
    );
    print!("{}", render_fleet_health(&health));
    println!("{}", fleet_summary_json(&health, replayed, offered, flagged_frames, flagged_points));
    Ok(())
}

/// Machine-readable fleet summary: routing totals, per-shard states, the
/// shard-level supervisor, and the aggregate health rollup.
#[derive(serde::Serialize)]
struct FleetSummary {
    frames: FrameTotals,
    fleet: FleetTotals,
    shards: Vec<ShardRow>,
    supervisor: SupervisorStats,
    aggregate: HealthReport,
}

/// The `fleet` section of [`FleetSummary`].
#[derive(serde::Serialize)]
struct FleetTotals {
    shards: usize,
    frames_routed: usize,
    frames_lost: usize,
    shard_failures: usize,
    shard_restarts: usize,
    shards_down: usize,
    rebalance_plans: usize,
    stars_moved: usize,
    migrations_rolled_back: usize,
}

/// One entry of [`FleetSummary::shards`].
#[derive(serde::Serialize)]
struct ShardRow {
    shard: usize,
    state: &'static str,
    stars: usize,
    emitted: usize,
    queue_depth: usize,
    frames_lost: usize,
    frames_accepted: usize,
    star_sheds: usize,
}

fn fleet_summary_json(
    health: &aero_core::FleetHealth,
    replayed: usize,
    offered: usize,
    flagged_frames: usize,
    flagged_points: usize,
) -> String {
    to_json(&FleetSummary {
        frames: FrameTotals { replayed, offered, flagged_frames, flagged_points },
        fleet: FleetTotals {
            shards: health.shards.len(),
            frames_routed: health.frames_routed,
            frames_lost: health.frames_lost,
            shard_failures: health.shard_failures,
            shard_restarts: health.shard_restarts,
            shards_down: health.shards_down,
            rebalance_plans: health.rebalance_plans,
            stars_moved: health.stars_moved,
            migrations_rolled_back: health.migrations_rolled_back,
        },
        shards: health
            .shards
            .iter()
            .map(|s| ShardRow {
                shard: s.shard,
                state: s.state.label(),
                stars: s.stars,
                emitted: s.emitted,
                queue_depth: s.queue_depth,
                frames_lost: s.frames_lost,
                frames_accepted: s.health.frames_accepted,
                star_sheds: s.health.overload.star_sheds,
            })
            .collect(),
        supervisor: health.supervisor,
        aggregate: health.aggregate.clone(),
    })
}

/// `aero wal <verb>` — offline WAL tooling. `verify <dir>` scrubs one WAL
/// directory without modifying it and prints a findings JSON; a damaged log
/// is an `Err` (exit 1) so scripts can gate on it.
pub fn wal(args: &Args) -> Result<(), String> {
    match args.positional(0) {
        Some("verify") => {}
        Some(other) => return Err(format!("unknown wal subcommand: {other} (try `verify`)")),
        None => return Err("usage: aero wal verify <dir>".into()),
    }
    let dir = Path::new(
        args.positional(1)
            .ok_or("usage: aero wal verify <dir>")?,
    );
    let report = aero_core::wal::verify(dir, None).map_err(io_err)?;
    println!("{}", wal_verify_json(dir, &report));
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} finding(s) in {}",
            report.findings.len(),
            dir.display()
        ))
    }
}

/// The `aero wal verify` document.
#[derive(serde::Serialize)]
struct WalVerifyDoc {
    dir: String,
    status: &'static str,
    segments: usize,
    frames: usize,
    bytes: u64,
    identity: Option<WalIdentity>,
    findings: Vec<FindingRow>,
}

/// One entry of [`WalVerifyDoc::findings`].
#[derive(serde::Serialize)]
struct FindingRow {
    segment: u64,
    path: String,
    offset: u64,
    kind: &'static str,
    detail: String,
}

fn wal_verify_json(dir: &Path, report: &WalVerifyReport) -> String {
    to_json(&WalVerifyDoc {
        dir: dir.display().to_string(),
        status: if report.is_clean() { "clean" } else { "corrupt" },
        segments: report.segments,
        frames: report.frames,
        bytes: report.bytes,
        identity: report.identity,
        findings: report
            .findings
            .iter()
            .map(|f| FindingRow {
                segment: f.segment,
                path: f.path.display().to_string(),
                offset: f.offset,
                kind: f.kind.label(),
                detail: f.detail.clone(),
            })
            .collect(),
    })
}

/// `aero evaluate` — point-adjusted metrics of stored flags vs labels.
pub fn evaluate(args: &Args) -> Result<(), String> {
    let flags = read_labels(Path::new(args.require("flags")?)).map_err(io_err)?;
    let labels = read_labels(Path::new(args.require("labels")?)).map_err(io_err)?;
    if flags.rows() != labels.rows() || flags.cols() != labels.cols() {
        return Err(format!(
            "shape mismatch: flags {}x{} vs labels {}x{}",
            flags.rows(),
            flags.cols(),
            labels.rows(),
            labels.cols()
        ));
    }
    let m = evaluate_point_adjusted(&flags, &labels);
    println!(
        "point-adjusted: precision {:.2}%  recall {:.2}%  F1 {:.2}%",
        m.precision * 100.0,
        m.recall * 100.0,
        m.f1 * 100.0
    );
    println!("counts: TP {}  FP {}  FN {}  TN {}", m.tp, m.fp, m.fn_, m.tn);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_method_builds() {
        for (key, _) in METHODS {
            assert!(build_detector(key, false).is_ok(), "{key}");
        }
        assert!(build_detector("nope", false).is_err());
    }

    #[test]
    fn tiny_preset_builds_with_seed_override() {
        let a = build_preset("tiny", Some(9)).unwrap();
        let b = build_preset("tiny", Some(9)).unwrap();
        assert_eq!(a.train.values(), b.train.values());
        assert!(build_preset("bogus", None).is_err());
    }

    #[test]
    fn generate_then_detect_then_evaluate_roundtrip() {
        let dir = std::env::temp_dir().join(format!("aero_cli_test_{}", std::process::id()));
        let data = dir.join("data");
        let out = dir.join("out");

        // generate
        let gen_args = Args::parse(
            format!("generate --preset tiny --out {} --seed 5", data.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        generate(&gen_args).unwrap();
        assert!(data.join("train.csv").exists());
        assert!(data.join("test_labels.csv").exists());

        // detect with a fast statistical method
        let det_args = Args::parse(
            format!("detect --data {} --method spot --out {}", data.display(), out.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        detect(&det_args).unwrap();
        assert!(out.join("scores.csv").exists());
        assert!(out.join("flags.csv").exists());
        assert!(out.join("summary.txt").exists());
        assert!(out.join("catalog.txt").exists());

        // evaluate
        let eval_args = Args::parse(
            format!(
                "evaluate --flags {} --labels {}",
                out.join("flags.csv").display(),
                data.join("test_labels.csv").display()
            )
            .split_whitespace()
            .map(String::from),
        )
        .unwrap();
        evaluate(&eval_args).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_replays_saved_model_with_faults() {
        let dir = std::env::temp_dir().join(format!("aero_cli_stream_{}", std::process::id()));
        let data = dir.join("data");
        let gen_args = Args::parse(
            format!("generate --preset tiny --out {} --seed 6", data.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        generate(&gen_args).unwrap();

        // Train and checkpoint a tiny model directly (CLI-scale training
        // is covered by the detect roundtrip test).
        let train = read_series(&data.join("train.csv")).unwrap();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 1;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&train).unwrap();
        let model_path = dir.join("model.json");
        aero_core::save_model(&model, &model_path).unwrap();

        // Clean replay, a faulted one, and a bursty one with a small
        // admission queue (exercising the governor) — all must succeed.
        for extra in ["", " --faults 7", " --burst 11 --queue-cap 8"] {
            let stream_args = Args::parse(
                format!("stream --data {} --model {}{extra}", data.display(), model_path.display())
                    .split_whitespace()
                    .map(String::from),
            )
            .unwrap();
            stream(&stream_args).unwrap();
        }

        // A bare `--burst` (no seed) must be rejected, not silently ignored.
        let bad = Args::parse(
            format!("stream --data {} --model {} --burst", data.display(), model_path.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(stream(&bad).unwrap_err().contains("--burst"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_fleet_survives_shard_kill_and_resumes() {
        let dir = std::env::temp_dir().join(format!("aero_cli_fleet_{}", std::process::id()));
        let data = dir.join("data");
        let wal = dir.join("wal");
        let gen_args = Args::parse(
            format!("generate --preset tiny --out {} --seed 9", data.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        generate(&gen_args).unwrap();

        // Night 1: two shards, one chaos-killed mid-night (it must restart
        // from its own WAL in-process), with epoch rebalancing enabled.
        let run = |extra: &str| {
            let stream_args = Args::parse(
                format!(
                    "stream --data {} --shards 2 --wal {} --rebalance-every 64{extra}",
                    data.display(),
                    wal.display()
                )
                .split_whitespace()
                .map(String::from),
            )
            .unwrap();
            stream(&stream_args)
        };
        run(" --kill-shard 1 --kill-after 40 --probe-after 4").unwrap();

        // Per-shard WAL directories exist; the models dir holds the single
        // shared backbone (shards reassemble from it deterministically —
        // there are no per-shard model checkpoints any more).
        assert!(wal.join("shard-0000").is_dir());
        assert!(wal.join("shard-0001").is_dir());
        assert!(wal.join("fleet-plan").is_dir());
        assert!(wal.join("models").join("backbone.json").is_file());
        assert_eq!(std::fs::read_dir(wal.join("models")).unwrap().count(), 1);

        // Night 2: resume the whole fleet from its per-shard WALs.
        run(" --resume").unwrap();

        // Guard rails: fleet flags demand values / fleet context.
        let bad = Args::parse(
            format!("stream --data {} --shards", data.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(stream(&bad).unwrap_err().contains("--shards"));
        let bad = Args::parse(
            format!("stream --data {} --model x.json --probe-after 3", data.display())
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        assert!(stream(&bad).unwrap_err().contains("--shards"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_summary_json_is_well_formed() {
        let ds = SyntheticConfig::tiny(77).build();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 1;
        let mut model = Aero::new(cfg).unwrap();
        model.fit(&ds.train).unwrap();
        let online = OnlineAero::new(model, &ds.train, PotConfig::default()).unwrap();
        let gov = StreamGovernor::new(online).unwrap();
        let json = stream_summary_json(&gov, 1, 2, 3, 4);
        for key in [
            "\"frames\"",
            "\"supervisor\"",
            "\"health\"",
            "\"overload\"",
            "\"probes\":0",
            "\"circuits_closed\":0",
            "\"queue_peak\":0",
            "\"replayed\":1",
            "\"offered\":2",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn wal_verify_json_escapes_strings() {
        let detail = "a\"b\\c\nd\u{1}e";
        let report = WalVerifyReport {
            segments: 1,
            findings: vec![aero_core::WalFinding {
                segment: 0,
                path: PathBuf::from("wal-000000.seg"),
                offset: 32,
                kind: aero_core::WalFindingKind::TornTail,
                detail: detail.into(),
            }],
            ..WalVerifyReport::default()
        };
        let json = wal_verify_json(Path::new("w\"al"), &report);
        assert_eq!(
            json,
            "{\"dir\":\"w\\\"al\",\"status\":\"corrupt\",\"segments\":1,\"frames\":0,\
             \"bytes\":0,\"identity\":null,\"findings\":[{\"segment\":0,\
             \"path\":\"wal-000000.seg\",\"offset\":32,\"kind\":\"torn_tail\",\
             \"detail\":\"a\\\"b\\\\c\\nd\\u0001e\"}]}"
        );
        // JSON has no non-finite numbers: they render as null.
        assert_eq!(to_json(&vec![f64::NAN, f64::INFINITY, 1.5]), "[null,null,1.5]");
    }
}
