//! Subcommand implementations for the `aero` CLI.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aero_baselines::{
    AnomalyTransformer, Donut, Esg, FluxEv, Gdn, LstmNdt, NnConfig, OmniAnomaly,
    SpectralResidual, SpotDetector, TemplateMatching, TimesNet, TranAd, VaeLstm,
};
use aero_core::online::{OnlineAero, StarStatus};
use aero_core::fleet::{
    FleetConfig, FleetCoordinator, ShardAssignment, ShardFactory, StarCatalog,
};
use aero_core::{
    build_catalog, render_catalog, render_fleet_health, run_detection, to_json, Aero, AeroConfig,
    Detector, FrameTotals, HealthReport, StarDelta, StreamGovernor, SupervisorPolicy,
    SupervisorStats, WalIdentity, WalVerifyReport,
};
use aero_datagen::{AstrosetConfig, SyntheticConfig};
use aero_eval::{evaluate_point_adjusted, threshold_scores};
use aero_evt::PotConfig;
use aero_timeseries::io::{read_labels, read_series, write_labels, write_series};
use aero_timeseries::{Dataset, LabelGrid};

use crate::args::Args;
use crate::night::{io_err, open_governor, run_night, sr_fallback, NightOptions, Replay};

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

/// `aero generate` — writes train/test series plus ground-truth grids.
pub fn generate(args: &Args) -> Result<(), String> {
    let preset = args.require("preset")?;
    let out = PathBuf::from(args.require("out")?);
    let dataset = build_preset(preset, args.parsed("seed")?)?;
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
    if let Some(model_path) = args.get("save-model")? {
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
         train time: {:.2}s\ncalibrate time: {:.2}s\ntest time: {:.2}s\nflagged points: {}\n",
        detector.name(),
        outcome.threshold.threshold,
        pot.level,
        pot.q,
        outcome.threshold.gamma,
        outcome.threshold.peaks,
        outcome.timing.train_secs,
        outcome.timing.calibrate_secs,
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
    let opts = NightOptions::parse(args)?;
    if let Some(shards) = args.parsed("shards")? {
        return stream_fleet(args, &opts, shards);
    }
    for opt in ["probe-after", "kill-shard"] {
        if args.get(opt)?.is_some() {
            return Err(format!(
                "--{opt} applies to shard-level fleet supervision; add --shards <n>"
            ));
        }
    }
    let online = opts.online(args)?;
    let test = opts.series("test.csv")?;
    eprintln!(
        "streaming {} frames × {} stars (threshold {:.6}, cadence {:.3}, queue cap {})",
        test.len(),
        test.num_variates(),
        online.threshold().threshold,
        online.cadence(),
        opts.overload.queue_capacity,
    );
    let (mut gov, replay) = open_governor(online, opts.overload.clone(), &opts)?;
    let (totals, rejected) = run_night(&mut gov, &opts, &test, replay, None)?;

    println!(
        "frames: {} replayed + {} offered ({} rejected), {} flagged ({} star-points above threshold)",
        totals.replayed, totals.offered, rejected, totals.flagged_frames, totals.flagged_points
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
    println!("{}", stream_summary_json(&gov, totals));
    Ok(())
}

/// End-of-run machine-readable summary: supervision and the full health
/// report (overload counters and tenant lanes nested inside) on one line.
/// Shares the encoder with the `aero serve` status endpoint and drain
/// summary ([`aero_core::stream_summary_json`]).
fn stream_summary_json(gov: &StreamGovernor, totals: FrameTotals) -> String {
    aero_core::stream_summary_json(gov.online().health(), &gov.online().supervisor().stats(), totals)
}

/// `aero stream --shards N` — shared-nothing fleet mode.
///
/// The star catalog is partitioned across N shards, each a fully independent
/// failure domain (its own detector, WAL directory `<wal>/shard-KKKK/`,
/// degradation ladder, and breaker) behind a routing coordinator. One
/// shared backbone is trained in-process and checkpointed next to the WAL
/// (`<wal>/models/`) so shard restarts and `--resume` load identical bits.
fn stream_fleet(args: &Args, opts: &NightOptions, num_shards: usize) -> Result<(), String> {
    if args.get("model")?.is_some() {
        return Err(
            "fleet mode trains per-shard models in-process; drop --model (checkpoints land \
             under <wal>/models/)"
                .into(),
        );
    }
    if num_shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let chaos_kill: Option<usize> = args.parsed("kill-shard")?;
    if chaos_kill.is_some() && opts.kill_after == usize::MAX {
        return Err("--kill-shard needs --kill-after <n> (the offer count where it dies)".into());
    }
    let probe_after = args.get_parsed("probe-after", u32::MAX)?;
    let seed = args.get_parsed("seed", 0u64)?;

    let train = opts.series("train.csv")?;
    let test = opts.series("test.csv")?;
    let n = test.num_variates();
    if num_shards > n {
        return Err(format!("--shards {num_shards} exceeds the {n}-star catalog"));
    }
    if let Some(k) = chaos_kill.filter(|&k| k >= num_shards) {
        return Err(format!("--kill-shard names shard {k} of {num_shards}"));
    }
    let catalog = StarCatalog::sequential(n);
    let assignment = ShardAssignment::partition(&catalog, num_shards, seed).map_err(io_err)?;

    // One frozen trunk for the whole fleet: the first factory call trains it
    // on a small star sample and checkpoints it; every shard (and every
    // crash-restart rebuild) reassembles from those shared parameters plus
    // kilobyte per-star scaler deltas. Reassembly is deterministic, so
    // restarts stay bitwise without S full per-shard model files on disk.
    // Without a WAL root the backbone lives in a per-process temp directory.
    let models_dir = match &opts.wal {
        Some(root) => root.join("models"),
        None => std::env::temp_dir().join(format!("aero_fleet_models_{}", std::process::id())),
    };
    std::fs::create_dir_all(&models_dir).map_err(io_err)?;
    let factory: ShardFactory = {
        let train = train.clone();
        let backbone_path = models_dir.join("backbone.json");
        let (pot, policy) = (opts.pot, opts.degrade.clone());
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
    let config = FleetConfig {
        seed,
        overload: opts.overload.clone(),
        shard_supervision: SupervisorPolicy { probe_after, ..SupervisorPolicy::default() },
        wal_root: opts.wal.clone(),
        wal: opts.wal_config,
    };

    let fallback = Some(sr_fallback());
    let (mut fleet, replay) = if opts.resume {
        let (fleet, recovered) =
            FleetCoordinator::resume(catalog, assignment, factory, fallback, config)
                .map_err(io_err)?;
        let verdicts: Vec<_> = recovered.replayed.into_iter().flatten().collect();
        eprintln!(
            "resumed fleet: {} frames routed, {} verdicts replayed",
            recovered.frames_routed,
            verdicts.len(),
        );
        (fleet, Replay { frames: recovered.frames_routed, verdicts })
    } else {
        let fleet = FleetCoordinator::new(catalog, assignment, factory, fallback, config)
            .map_err(io_err)?;
        (fleet, Replay::default())
    };
    eprintln!(
        "fleet: {} stars across {} shards (routing seed {seed}{})",
        n,
        num_shards,
        opts.wal
            .as_ref()
            .map(|r| format!(", WAL root {}", r.display()))
            .unwrap_or_default(),
    );
    let (totals, rejected) = run_night(&mut fleet, opts, &test, replay, chaos_kill)?;

    let health = fleet.health();
    println!(
        "frames: {} replayed + {} offered ({} shard slices rejected), {} flagged ({} star-points above threshold)",
        totals.replayed, totals.offered, rejected, totals.flagged_frames, totals.flagged_points
    );
    print!("{}", render_fleet_health(&health));
    println!("{}", fleet_summary_json(&health, totals));
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

fn fleet_summary_json(health: &aero_core::FleetHealth, frames: FrameTotals) -> String {
    to_json(&FleetSummary {
        frames,
        fleet: FleetTotals {
            shards: health.shards.len(),
            frames_routed: health.frames_routed,
            frames_lost: health.frames_lost,
            shard_failures: health.shard_failures,
            shard_restarts: health.shard_restarts,
            shards_down: health.shards_down,
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
        // from its own WAL in-process).
        let run = |extra: &str| {
            let stream_args = Args::parse(
                format!(
                    "stream --data {} --shards 2 --wal {}{extra}",
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
        let json = stream_summary_json(
            &gov,
            FrameTotals { replayed: 1, offered: 2, flagged_frames: 3, flagged_points: 4 },
        );
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
