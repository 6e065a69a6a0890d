//! Per-layer probes for traced runs. Layers that run inside one opaque call
//! (a governor poll, a fleet round, a wire round trip) are sampled by
//! calling the layer's public function directly on a twin of the
//! workload's model, with the same window the detector just scored.

use std::path::PathBuf;
use std::time::Instant;

use aero_core::serve::{encode, Decoder, WireFrame, WireMsg, DEFAULT_MAX_PAYLOAD};
use aero_core::{
    load_model, save_model, window_adjacency, Aero, BackboneSnapshot, FsyncPolicy, ScoreMode,
    StarDelta, WalConfig, WalWriter,
};
use aero_evt::pot_threshold;
use aero_tensor::Matrix;
use aero_timeseries::MultivariateSeries;

use crate::common::{dir_bytes, fail, timed, Ctx, POT};
use crate::metrics::Layers;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Probe every this many frames of a streaming workload.
pub const EVERY: usize = 10;
/// At most this many sampled windows per run.
const MAX_SAMPLES: usize = 200;

/// A sliding window of the most recent frames, for probes that score the
/// same window the detector just scored.
struct Recent {
    w: usize,
    ts: std::collections::VecDeque<f64>,
    rows: std::collections::VecDeque<Vec<f32>>,
}

impl Recent {
    /// Starts from the tail of the calibration series, as the online
    /// detector's rolling buffer does.
    fn new(w: usize, calibration: &MultivariateSeries) -> Self {
        let mut r = Self {
            w,
            ts: Default::default(),
            rows: Default::default(),
        };
        let n = calibration.num_variates();
        for t in calibration.len().saturating_sub(w)..calibration.len() {
            r.push(
                calibration.timestamps()[t],
                (0..n).map(|v| calibration.get(v, t)).collect(),
            );
        }
        r
    }

    fn push(&mut self, ts: f64, row: Vec<f32>) {
        self.ts.push_back(ts);
        self.rows.push_back(row);
        while self.rows.len() > self.w {
            self.ts.pop_front();
            self.rows.pop_front();
        }
    }

    /// The window as a series, restricted to `stars` (all when `None`).
    fn series(&self, stars: Option<&[usize]>) -> MultivariateSeries {
        let all: Vec<usize>;
        let idx = match stars {
            Some(s) => s,
            None => {
                all = (0..self.rows.front().map_or(0, Vec::len)).collect();
                &all
            }
        };
        let m =
            aero_tensor::Matrix::from_fn(idx.len(), self.rows.len(), |r, c| self.rows[c][idx[r]]);
        MultivariateSeries::new(m, self.ts.iter().copied().collect())
            .expect("window timestamps are increasing and match the window width")
    }
}

/// The windows of every `EVERY`-th served frame, kept so the probes run
/// after the measured phase and do not load the system while it is
/// measured.
pub struct Samples {
    recent: Recent,
    stars: Option<Vec<usize>>,
    taken: Vec<(u64, MultivariateSeries, f64, Vec<f32>)>,
}

impl Samples {
    /// `stars` restricts the windows to one shard's members.
    pub fn new(w: usize, calibration: &MultivariateSeries, stars: Option<Vec<usize>>) -> Self {
        Self {
            recent: Recent::new(w, calibration),
            stars,
            taken: Vec::new(),
        }
    }

    /// Records a frame as the detector serves it (frames in serving order).
    pub fn served(&mut self, frame: usize, ts: f64, row: Vec<f32>) {
        let local = match &self.stars {
            Some(s) => s.iter().map(|&v| row[v]).collect(),
            None => row.clone(),
        };
        self.recent.push(ts, row);
        if frame.is_multiple_of(EVERY) && self.taken.len() < MAX_SAMPLES {
            self.taken.push((
                frame as u64,
                self.recent.series(self.stars.as_deref()),
                ts,
                local,
            ));
        }
    }

    /// The sampled frames in serving order: frame, the window ending at
    /// it, its timestamp and its values.
    pub fn into_taken(self) -> Vec<(u64, MultivariateSeries, f64, Vec<f32>)> {
        self.taken
    }

    /// Runs the per-frame probes on every sampled window.
    pub fn probe(self, probes: &mut Probes, tr: &mut Tracer) -> Result<(), String> {
        for (frame, window, ts, values) in &self.taken {
            probes.frame(tr, *frame, window, *ts, values)?;
        }
        Ok(())
    }
}

/// Probe state of one traced run.
pub struct Probes {
    twin: Aero,
    full_modes: Vec<ScoreMode>,
    stage1_modes: Vec<ScoreMode>,
    stage1_ms: Vec<f64>,
    stage2_ms: Vec<f64>,
    adjacency_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    wal: Option<WalWriter>,
    wal_dir: PathBuf,
    wal_append_us: Vec<f64>,
    checkpoint: PathBuf,
}

fn wal_config() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::EverySegment,
        ..WalConfig::default()
    }
}

impl Probes {
    /// Assembles the twin from the shared backbone and the stars' deltas,
    /// exactly as a fleet shard is assembled.
    pub fn new(
        ctx: &Ctx,
        backbone: &BackboneSnapshot,
        deltas: &[StarDelta],
    ) -> Result<Self, String> {
        let twin = Aero::from_backbone(backbone, deltas).map_err(fail("assemble probe twin"))?;
        let n = deltas.len();
        let wal_dir = ctx.dir("probe-wal")?;
        let wal = WalWriter::create(&wal_dir, wal_config()).map_err(fail("probe WAL"))?;
        Ok(Self {
            twin,
            full_modes: vec![ScoreMode::Full; n],
            stage1_modes: vec![ScoreMode::Stage1; n],
            stage1_ms: Vec::new(),
            stage2_ms: Vec::new(),
            adjacency_us: Vec::new(),
            encode_us: Vec::new(),
            decode_us: Vec::new(),
            wal: Some(wal),
            wal_dir,
            wal_append_us: Vec::new(),
            checkpoint: ctx.work.join("probe-model.json"),
        })
    }

    /// Twin of a trained model: its backbone plus every star's delta.
    pub fn of_model(ctx: &Ctx, model: &Aero, stars: usize) -> Result<Self, String> {
        let backbone = model.backbone().map_err(fail("backbone"))?;
        let deltas = (0..stars)
            .map(|v| model.star_delta(v))
            .collect::<Result<Vec<_>, _>>()
            .map_err(fail("star delta"))?;
        Self::new(ctx, &backbone, &deltas)
    }

    /// Samples the model, graph-learning, codec and WAL layers on one
    /// frame: `window` is the `W`-frame window ending at that frame, and
    /// `(ts, values)` the frame itself.
    pub fn frame(
        &mut self,
        tr: &mut Tracer,
        frame: u64,
        window: &MultivariateSeries,
        ts: f64,
        values: &[f32],
    ) -> Result<(), String> {
        let root = tr.begin("probe", frame);

        let s = tr.begin("probe.model.full", frame);
        let (full, full_s) = timed(|| self.twin.score_with_modes(window, &self.full_modes));
        tr.end(s);
        full.map_err(fail("probe full score"))?;
        let s = tr.begin("probe.model.stage1", frame);
        let (stage1, stage1_s) = timed(|| self.twin.score_with_modes(window, &self.stage1_modes));
        tr.end(s);
        stage1.map_err(fail("probe stage-1 score"))?;
        self.stage1_ms.push(stage1_s * 1e3);
        self.stage2_ms.push((full_s - stage1_s) * 1e3);

        // Window-graph learning on an error-shaped N x omega matrix: the
        // newest omega values of each star, centred.
        let omega = self.twin.config().short_window.min(window.len());
        let w = window.len();
        let errors = Matrix::from_fn(window.num_variates(), omega, |v, k| {
            let row_mean = (w - omega..w).map(|t| window.get(v, t)).sum::<f32>() / omega as f32;
            window.get(v, w - omega + k) - row_mean
        });
        let s = tr.begin("probe.graph_learn.adjacency", frame);
        let (adj, adj_s) = timed(|| window_adjacency(&errors));
        tr.end(s);
        std::hint::black_box(adj);
        self.adjacency_us.push(adj_s * 1e6);

        let msg = WireMsg::Ingest {
            seq: frame,
            frames: vec![WireFrame {
                timestamp: ts,
                values: values.to_vec(),
            }],
        };
        let s = tr.begin("probe.serve.encode", frame);
        let (bytes, enc_s) = timed(|| encode(&msg));
        tr.end(s);
        let s = tr.begin("probe.serve.decode", frame);
        let (decoded, dec_s) = timed(|| {
            let mut d = Decoder::new(DEFAULT_MAX_PAYLOAD);
            d.extend(&bytes);
            d.next()
        });
        tr.end(s);
        match decoded {
            Ok(Some(back)) if back == msg => {}
            other => return Err(format!("codec round trip changed the frame: {other:?}")),
        }
        self.encode_us.push(enc_s * 1e6);
        self.decode_us.push(dec_s * 1e6);

        if let Some(wal) = self.wal.as_mut() {
            let s = tr.begin("probe.wal.append", frame);
            let (r, wal_s) = timed(|| wal.append(ts, values));
            tr.end(s);
            r.map_err(fail("probe WAL append"))?;
            self.wal_append_us.push(wal_s * 1e6);
        }

        tr.end(root);
        Ok(())
    }

    /// Once-per-run probes (GEMM at the model's Stage-1 shapes, POT on the
    /// calibration scores, checkpoint save/load, WAL read-back), then every
    /// probe layer's metric into `layers`.
    pub fn finish(
        mut self,
        tr: &mut Tracer,
        layers: &mut Layers,
        calibration_scores: &[f32],
    ) -> Result<(), String> {
        let cfg = self.twin.config().clone();
        let stars = self.full_modes.len();
        let rows = stars * cfg.window;
        layers.set(
            "tensor.proj_gflops",
            gemm_gflops(tr, "probe.tensor.proj", rows, cfg.d_model, cfg.d_model),
        );
        layers.set(
            "tensor.ffn_gflops",
            gemm_gflops(tr, "probe.tensor.ffn", rows, cfg.d_model, cfg.d_ff),
        );
        layers.set(
            "tensor.roofline_gflops",
            gemm_gflops(tr, "probe.tensor.roofline", 384, 384, 384),
        );

        let mut pot_ms = Vec::new();
        for _ in 0..5 {
            let s = tr.begin("probe.evt.pot", 0);
            let (r, secs) = timed(|| pot_threshold(calibration_scores, POT));
            tr.end(s);
            r.map_err(fail("probe POT"))?;
            pot_ms.push(secs * 1e3);
        }
        layers.set("evt.pot_ms", median(&pot_ms));

        let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let s = tr.begin("probe.persist.save", 0);
            let (r, secs) = timed(|| save_model(&self.twin, &self.checkpoint));
            tr.end(s);
            r.map_err(fail("probe save"))?;
            save_ms.push(secs * 1e3);
            let s = tr.begin("probe.persist.load", 0);
            let (r, secs) = timed(|| load_model(&self.checkpoint));
            tr.end(s);
            r.map_err(fail("probe load"))?;
            load_ms.push(secs * 1e3);
        }
        layers.set("persist.save_ms", median(&save_ms));
        layers.set("persist.load_ms", median(&load_ms));
        let bytes = std::fs::metadata(&self.checkpoint)
            .map(|m| m.len())
            .unwrap_or(0);
        layers.set("persist.checkpoint_bytes", bytes as f64);

        let frames = self.wal_append_us.len();
        if let Some(mut wal) = self.wal.take() {
            wal.sync().map_err(fail("probe WAL sync"))?;
        }
        let s = tr.begin("probe.wal.replay", 0);
        let (r, replay_s) = timed(|| WalWriter::resume(&self.wal_dir, wal_config()));
        tr.end(s);
        let (_, replayed, _) = r.map_err(fail("probe WAL replay"))?;
        if replayed.len() != frames {
            return Err(format!(
                "probe WAL replayed {} of {frames} frames",
                replayed.len()
            ));
        }
        layers.set("wal.replay_ms", replay_s * 1e3);
        layers.set(
            "wal.bytes_per_frame",
            dir_bytes(&self.wal_dir) as f64 / frames.max(1) as f64,
        );
        layers.set("wal.append_us_p50", percentile(&self.wal_append_us, 0.5));

        layers.set("model.stage1_ms", median(&self.stage1_ms));
        layers.set("model.stage2_ms", median(&self.stage2_ms));
        layers.set("graph_learn.adjacency_us", median(&self.adjacency_us));
        layers.set("serve.encode_us", median(&self.encode_us));
        layers.set("serve.decode_us", median(&self.decode_us));
        Ok(())
    }

    /// Median probed Stage-1 + Stage-2 time of one frame, ms.
    pub fn model_ms(&self) -> f64 {
        median(&self.stage1_ms) + median(&self.stage2_ms)
    }

    /// The twin's scores over `series` past its warm-up, flattened: the
    /// sample a POT calibration fits.
    pub fn scores(&mut self, series: &MultivariateSeries) -> Result<Vec<f32>, String> {
        use aero_core::Detector;
        let scores = self
            .twin
            .score(series)
            .map_err(fail("probe calibration scores"))?;
        let warm = self.twin.warmup().min(scores.cols());
        Ok((0..scores.rows())
            .flat_map(|r| scores.row(r)[warm..].to_vec())
            .collect())
    }
}

/// Achieved GFLOP/s of `(m x k) * (k x n)` on the pinned thread count.
fn gemm_gflops(tr: &mut Tracer, name: &'static str, m: usize, k: usize, n: usize) -> f64 {
    let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 97) as f32 / 97.0 - 0.5);
    let b = Matrix::from_fn(k, n, |i, j| ((i * 13 + j * 29) % 89) as f32 / 89.0 - 0.5);
    let flops = 2.0 * (m * k * n) as f64;
    // About 2e8 FLOPs (a few ms) per sample, 5 samples.
    let reps = ((2e8 / flops) as usize).clamp(1, 10_000);
    let mut secs = Vec::new();
    for _ in 0..5 {
        let s = tr.begin(name, 0);
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(a.matmul(&b).expect("probe GEMM shapes agree"));
        }
        secs.push(t0.elapsed().as_secs_f64() / reps as f64);
        tr.end(s);
    }
    flops / median(&secs) / 1e9
}
