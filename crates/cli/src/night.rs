//! The governed night behind `aero stream`, `aero stream --shards`,
//! `aero serve` and `aero loadgen`: one options struct, one governor
//! opener, one resume fast-forward rule and one offer/poll/drain loop.

use std::ops::Range;
use std::path::{Path, PathBuf};

use aero_baselines::SpectralResidual;
use aero_core::fleet::FleetCoordinator;
use aero_core::online::{DegradePolicy, FrameDisposition, OnlineAero};
use aero_core::wal::{FsyncPolicy, WalConfig, WalWriter};
use aero_core::{FallbackScorer, FrameTotals, GovernedVerdict, OverloadPolicy, StreamGovernor};
use aero_datagen::{FaultInjector, FaultPlan, LoadProfile};
use aero_evt::PotConfig;
use aero_timeseries::io::read_series;
use aero_timeseries::MultivariateSeries;

use crate::args::Args;

/// Renders any error as the CLI's error message.
pub fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The options every night-running command reads, parsed once.
pub struct NightOptions {
    /// Directory with `train.csv` / `test.csv`.
    data: PathBuf,
    pub pot: PotConfig,
    pub degrade: DegradePolicy,
    /// `--wal <dir>`: write-ahead-log every offer.
    pub wal: Option<PathBuf>,
    /// `--resume`: rebuild the pre-crash state from the WAL first.
    pub resume: bool,
    pub wal_config: WalConfig,
    /// Admission queue from `--queue-cap`, with watermarks scaled to it.
    pub overload: OverloadPolicy,
    /// `--kill-after <n>`: stop (or kill a shard) after n live offers.
    pub kill_after: usize,
    /// `--burst <seed>`: seeded 4×-realtime burst schedule.
    burst: Option<u64>,
    /// `--faults <seed>`: seeded rough-night fault plan.
    faults: Option<u64>,
}

impl NightOptions {
    pub fn parse(args: &Args) -> Result<Self, String> {
        let fsync = match args.get("fsync")? {
            None => FsyncPolicy::default(),
            Some(s) => FsyncPolicy::parse(s)
                .ok_or_else(|| format!("--fsync must be never|segment|record, got `{s}`"))?,
        };
        let queue_cap = args.get_parsed("queue-cap", 64usize)?;
        let opts = Self {
            data: PathBuf::from(args.require("data")?),
            pot: PotConfig {
                level: args.get_parsed("level", 0.99f64)?,
                q: args.get_parsed("q", 1e-3f64)?,
            },
            degrade: DegradePolicy {
                refit_interval: args.get_parsed("refit-interval", 0usize)?,
                ..DegradePolicy::default()
            },
            wal: args.get("wal")?.map(PathBuf::from),
            resume: args.flag("resume"),
            wal_config: WalConfig { fsync, ..WalConfig::default() },
            // Degrade from half full, recover below one eighth.
            overload: OverloadPolicy {
                queue_capacity: queue_cap,
                high_watermark: queue_cap / 2,
                low_watermark: queue_cap / 8,
                ..OverloadPolicy::default()
            },
            kill_after: args.get_parsed("kill-after", usize::MAX)?,
            burst: args.parsed("burst")?,
            faults: args.parsed("faults")?,
        };
        if opts.resume && opts.wal.is_none() {
            return Err("--resume requires --wal <dir>".into());
        }
        Ok(opts)
    }

    /// Reads one series file from the data directory.
    pub fn series(&self, file: &str) -> Result<MultivariateSeries, String> {
        read_series(&self.data.join(file)).map_err(io_err)
    }

    /// The `--model` checkpoint as an online detector calibrated on the
    /// training split.
    pub fn online(&self, args: &Args) -> Result<OnlineAero, String> {
        let model = aero_core::load_model(Path::new(args.require("model")?)).map_err(io_err)?;
        let train = self.series("train.csv")?;
        OnlineAero::with_policy(model, &train, self.pot, self.degrade.clone()).map_err(io_err)
    }

    /// Arrivals per tick over the whole night: one offer and one poll per
    /// tick, unless `--burst` adds seeded 4×-realtime episodes.
    pub fn schedule(&self, frames: usize) -> Vec<usize> {
        match self.burst {
            Some(seed) => {
                let profile = LoadProfile::burst_night(seed, frames);
                eprintln!(
                    "burst schedule (seed {seed}): {} arrivals over {frames} ticks, peak {}×",
                    profile.total_arrivals().min(frames),
                    profile.peak_rate()
                );
                profile.arrivals()
            }
            None => LoadProfile::realtime(0, frames).arrivals(),
        }
    }
}

/// The night's frames: the test split, corrupted by the `--faults` plan
/// when one is given.
pub fn night_frames(test: &MultivariateSeries, faults: Option<u64>) -> Vec<(f64, Vec<f32>)> {
    if let Some(seed) = faults {
        let (stream, log) = FaultInjector::new(FaultPlan::rough_night(seed)).corrupt_stream(test);
        eprintln!(
            "injected faults (seed {seed}): {} events, {:.1}% of frames touched",
            log.total_faults(),
            log.corrupted_fraction() * 100.0
        );
        return stream.into_iter().map(|f| (f.timestamp, f.values)).collect();
    }
    let n = test.num_variates();
    (0..test.len())
        .map(|t| (test.timestamps()[t], (0..n).map(|v| test.get(v, t)).collect()))
        .collect()
}

/// The spectral-residual baseline as the ladder's model-free fallback rung.
pub fn sr_fallback() -> FallbackScorer {
    let sr = SpectralResidual::default();
    FallbackScorer::new(move |window| sr.latest_score(window))
}

/// What a resume recovered from the WAL before live streaming starts.
#[derive(Default)]
pub struct Replay {
    /// Frames recovered: the first offers of the night, already admitted.
    pub frames: usize,
    /// Verdicts the replay re-emitted (they count toward the night's flags).
    pub verdicts: Vec<GovernedVerdict>,
}

/// Opens the governed detector for a night: fresh (logging to a new WAL
/// under `--wal`), or with `--resume` rebuilt by replaying that WAL —
/// queue, ladder and counters exactly as before the crash.
pub fn open_governor(
    online: OnlineAero,
    policy: OverloadPolicy,
    opts: &NightOptions,
) -> Result<(StreamGovernor, Replay), String> {
    let fallback = Some(sr_fallback());
    match &opts.wal {
        Some(dir) if opts.resume => {
            let (gov, verdicts, recovery) =
                StreamGovernor::resume_wal(online, policy, fallback, dir, opts.wal_config)
                    .map_err(io_err)?;
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
            Ok((gov, Replay { frames: recovery.frames, verdicts }))
        }
        wal => {
            let mut gov = StreamGovernor::with_policy(online, policy).map_err(io_err)?;
            gov.set_fallback(fallback);
            if let Some(dir) = wal {
                gov.attach_wal(WalWriter::create(dir, opts.wal_config).map_err(io_err)?)
                    .map_err(io_err)?;
                eprintln!("write-ahead log: {} (fsync {:?})", dir.display(), opts.wal_config.fsync);
            }
            Ok((gov, Replay::default()))
        }
    }
}

/// The resume fast-forward: the full night's schedule with its first
/// `replayed` offers (recovered from the WAL) taken out. Ticks whose offers
/// were all replayed are skipped whole: their polls are in the WAL too. The
/// tick the crash cut through offers only its remaining frames and then
/// polls, because the WAL ends at its last offer. Yields each remaining
/// tick's index and the frame indices it offers live; the range may run
/// past the last frame, where the night ends.
pub fn live_ticks(
    schedule: &[usize],
    replayed: usize,
) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let mut cursor = 0;
    schedule.iter().enumerate().filter_map(move |(tick, &arrivals)| {
        let start = cursor;
        cursor += arrivals;
        (cursor >= replayed).then(|| (tick, start.max(replayed)..cursor))
    })
}

/// Adds one verdict to the night's flag totals.
fn count_flags(totals: &mut FrameTotals, verdict: &GovernedVerdict) {
    if verdict.verdict.disposition == FrameDisposition::Scored && verdict.verdict.any_anomalous() {
        totals.flagged_frames += 1;
        totals.flagged_points += verdict.verdict.flagged().len();
    }
}

/// One governed detector or a fleet of them, as the night loop drives it.
pub trait Governed {
    /// Offers one frame; returns how many admissions rejected it (at most
    /// one per shard slice).
    fn offer(&mut self, timestamp: f64, values: &[f32]) -> Result<usize, String>;
    /// One service tick.
    fn poll(&mut self, totals: &mut FrameTotals) -> Result<(), String>;
    /// Services the backlog left at the end of the night.
    fn drain(&mut self, totals: &mut FrameTotals) -> Result<(), String>;
    /// Chaos: kills one shard mid-night (`--kill-shard`, fleets only).
    fn kill_shard(&mut self, _shard: usize) -> Result<(), String> {
        Err("--kill-shard applies to shard-level fleet supervision; add --shards <n>".into())
    }
}

impl Governed for StreamGovernor {
    fn offer(&mut self, timestamp: f64, values: &[f32]) -> Result<usize, String> {
        Ok(usize::from(
            !StreamGovernor::offer(self, timestamp, values).map_err(io_err)?.is_accepted(),
        ))
    }

    fn poll(&mut self, totals: &mut FrameTotals) -> Result<(), String> {
        StreamGovernor::poll(self).map_err(io_err)?.iter().for_each(|v| count_flags(totals, v));
        Ok(())
    }

    fn drain(&mut self, totals: &mut FrameTotals) -> Result<(), String> {
        StreamGovernor::drain(self).map_err(io_err)?.iter().for_each(|v| count_flags(totals, v));
        Ok(())
    }
}

impl Governed for FleetCoordinator {
    fn offer(&mut self, timestamp: f64, values: &[f32]) -> Result<usize, String> {
        let admissions = FleetCoordinator::offer(self, timestamp, values).map_err(io_err)?;
        Ok(admissions.into_iter().flatten().filter(|a| !a.is_accepted()).count())
    }

    fn poll(&mut self, totals: &mut FrameTotals) -> Result<(), String> {
        FleetCoordinator::poll(self)
            .map_err(io_err)?
            .iter()
            .flatten()
            .for_each(|v| count_flags(totals, v));
        Ok(())
    }

    fn drain(&mut self, totals: &mut FrameTotals) -> Result<(), String> {
        FleetCoordinator::drain(self)
            .map_err(io_err)?
            .iter()
            .flatten()
            .for_each(|v| count_flags(totals, v));
        Ok(())
    }

    fn kill_shard(&mut self, shard: usize) -> Result<(), String> {
        FleetCoordinator::kill_shard(self, shard).map_err(io_err)
    }
}

/// Runs the night over `test`: offers each tick's live arrivals, polls once
/// per tick, and drains the backlog at the end. At `--kill-after` live
/// offers it kills `chaos_shard` and streams on, or without one stops
/// abruptly (a simulated crash). Returns the frame totals (replayed
/// verdicts included) and the rejected admissions.
pub fn run_night(
    gov: &mut impl Governed,
    opts: &NightOptions,
    test: &MultivariateSeries,
    replay: Replay,
    mut chaos_shard: Option<usize>,
) -> Result<(FrameTotals, usize), String> {
    let frames = night_frames(test, opts.faults);
    let schedule = opts.schedule(frames.len());
    let mut totals = FrameTotals { replayed: replay.frames, ..FrameTotals::default() };
    for v in &replay.verdicts {
        count_flags(&mut totals, v);
    }
    let crash = chaos_shard.is_none();
    let mut rejected = 0usize;
    'night: for (_, live) in live_ticks(&schedule, replay.frames) {
        for i in live {
            if totals.offered >= opts.kill_after {
                if let Some(k) = chaos_shard.take() {
                    gov.kill_shard(k)?;
                    eprintln!("chaos: killed shard {k} after {} frames", totals.offered);
                } else if crash {
                    eprintln!(
                        "killed after {} live frames (simulated crash; rerun with --resume \
                         to continue)",
                        totals.offered
                    );
                    return Ok((totals, rejected));
                }
            }
            let Some((timestamp, values)) = frames.get(i) else {
                break 'night;
            };
            rejected += gov.offer(*timestamp, values)?;
            totals.offered += 1;
        }
        gov.poll(&mut totals)?;
    }
    gov.drain(&mut totals)?;
    Ok((totals, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(schedule: &[usize], replayed: usize) -> Vec<(usize, Range<usize>)> {
        live_ticks(schedule, replayed).collect()
    }

    #[test]
    fn live_ticks_without_replay_is_the_whole_schedule() {
        assert_eq!(ticks(&[1, 4, 1], 0), vec![(0, 0..1), (1, 1..5), (2, 5..6)]);
    }

    #[test]
    fn live_ticks_skips_replayed_ticks_and_finishes_a_cut_one() {
        // Frames 0..3 replayed: tick 0 is skipped, tick 1 offers its last two.
        assert_eq!(ticks(&[1, 4, 1], 3), vec![(1, 3..5), (2, 5..6)]);
        // A tick replayed to its last offer still polls, with nothing to offer.
        assert_eq!(ticks(&[1, 4, 1], 5), vec![(1, 5..5), (2, 5..6)]);
        assert_eq!(ticks(&[1, 4, 1], 6), vec![(2, 6..6)]);
    }

    #[test]
    fn live_ticks_sum_to_the_unreplayed_night() {
        let schedule = LoadProfile::burst_night(23, 200).arrivals();
        let total: usize = schedule.iter().sum();
        for replayed in [0, 1, 57, 150, total] {
            let live: usize = live_ticks(&schedule, replayed).map(|(_, r)| r.len()).sum();
            assert_eq!(live, total - replayed, "replayed {replayed}");
        }
    }
}
