//! The AERO detector: two-stage offline training (Algorithm 1) and online
//! scoring (Algorithm 2), wired behind the common [`Detector`] interface.

use std::sync::{Arc, Mutex};

use aero_nn::{Activation, EarlyStopping, GcnLayer, NanRecovery, TrainingHistory};
use aero_tensor::{Adam, GradBuffer, Graph, Matrix, ParamId, ParamStore};
use aero_timeseries::{MinMaxScaler, MultivariateSeries};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adapter::{AdapterSet, StarAdapter};
use crate::config::{AeroConfig, NoiseFeatures};
use crate::detector::{Detector, DetectorError, DetectorResult};
use crate::graph_learn::GraphBuilder;
use crate::supervisor::{SupervisionError, Supervisor, SupervisorPolicy};
use crate::temporal::TemporalModule;

/// A per-variate failure isolated by supervised scoring: the star's row was
/// zero-filled and the rest of the frame completed normally.
pub type ShardFailure = SupervisionError<DetectorError>;

/// How much of the two-stage pipeline one star receives in a degraded
/// scoring pass ([`Aero::score_with_modes`]) — the per-star rungs of the
/// overload ladder (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreMode {
    /// Both stages: score is the noise-cancelled residual `|R|`.
    Full,
    /// Stage 1 only: score is the raw reconstruction error `|E|` — noisier
    /// (concurrent noise is not cancelled) but skips the GCN refinement.
    Stage1,
    /// No model work at all: the star's Stage-1 transformer never runs and
    /// its scores are 0. Used for shed stars; cheaper rungs (SR fallback /
    /// hold-last) are layered on top by the stream governor.
    Skip,
}

/// Stage-1 output held between the two halves of the split scoring
/// pipeline: the scaled series, its scoring windows and their error
/// matrices, plus the degradation modes the pass was started with. Produced
/// by [`Aero::score_stage1`], consumed by [`Aero::score_stage2`].
#[derive(Debug)]
struct PendingStage1 {
    scaled: MultivariateSeries,
    ends: Vec<usize>,
    errors: Vec<Matrix>,
    modes: Option<Vec<ScoreMode>>,
    run_stage2: bool,
}

/// Fault-injection hook for chaos testing: called with the variate index at
/// the top of every supervised per-variate work item (Stage-1 training
/// shards and supervised scoring). The crash-recovery suite installs hooks
/// that panic or stall for chosen stars to prove isolation; production
/// leaves it unset, where it costs one `Option` check.
///
/// An installed hook is also what routes Stage-1 scoring through the
/// per-star tape path instead of the batched cross-star forward (the
/// batched forward has no per-star failure boundary to fire it at). A
/// no-op hook (`ChaosHook::new(|_| {})`) therefore selects the per-star
/// path as a reference oracle without injecting any fault.
#[derive(Clone)]
pub struct ChaosHook(Arc<dyn Fn(usize) + Send + Sync>);

impl ChaosHook {
    /// Wraps a closure called with each variate index before its work runs.
    pub fn new(f: impl Fn(usize) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    fn fire(&self, variate: usize) {
        (self.0)(variate);
    }
}

impl std::fmt::Debug for ChaosHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChaosHook(..)")
    }
}

/// Active supervision context for one scoring pass (see
/// [`Aero::begin_supervised`]).
#[derive(Debug)]
struct SupervisionCell {
    sup: Arc<Supervisor>,
    /// Per-variate failures recorded by the supervised scoring path; slot
    /// `v` is `Some` iff variate `v`'s row was zero-filled.
    failures: Mutex<Vec<Option<ShardFailure>>>,
}

/// Recycled `Vec` spines for the streaming score hot path (the matrix
/// payloads inside them come from the tensor workspace pool regardless).
/// Kept behind a mutex because Stage-1 scores with `&self`; the lock is
/// uncontended — each pass takes a spine out or hands one back and releases
/// immediately.
#[derive(Debug, Default)]
struct ScoreScratch {
    ends: Vec<usize>,
    errors: Vec<Matrix>,
    residuals: Vec<(Matrix, Matrix)>,
    failures: Vec<Option<ShardFailure>>,
    /// Timestamp spine for the scaled copy of each pass's input.
    timestamps: Vec<f64>,
}

/// Fixed shard count for per-variate gradient accumulation.
///
/// Work is decomposed into this many shards regardless of how many threads
/// the pool runs, and shard buffers are merged in shard order — so the f32
/// gradient accumulation sequence (and therefore training) is bitwise
/// identical at any `AERO_THREADS` setting. See DESIGN.md § parallelism.
const GRAD_SHARDS: usize = 16;

/// The AERO anomaly detector.
///
/// ```
/// use aero_core::{Aero, AeroConfig, Detector};
/// use aero_datagen::SyntheticConfig;
///
/// let dataset = SyntheticConfig::tiny(1).build();
/// let mut aero = Aero::new(AeroConfig::tiny()).unwrap();
/// aero.fit(&dataset.train).unwrap();
/// let scores = aero.score(&dataset.test).unwrap();
/// assert_eq!(scores.rows(), dataset.num_variates());
/// ```
#[derive(Debug)]
pub struct Aero {
    config: AeroConfig,
    store: ParamStore,
    temporal: Option<TemporalModule>,
    temporal_ids: Vec<ParamId>,
    gcn: Option<GcnLayer>,
    scaler: MinMaxScaler,
    graphs: GraphBuilder,
    trained: bool,
    /// Stage-1 loss trajectory (temporal module).
    pub stage1_history: TrainingHistory,
    /// Stage-2 loss trajectory (noise module).
    pub stage2_history: TrainingHistory,
    /// When `Some`, per-variate scoring runs under this supervisor and
    /// isolates failures instead of propagating them (set per scoring pass
    /// by [`Aero::begin_supervised`]).
    supervision: Option<SupervisionCell>,
    /// Optional chaos-testing fault hook (see [`ChaosHook`]).
    chaos_hook: Option<ChaosHook>,
    /// Per-star adapter heads over the (frozen) backbone; `Some` iff
    /// `config.adapter_rank > 0` and modules are built.
    adapters: Option<AdapterSet>,
    /// Recycled scoring-pass allocations (see [`ScoreScratch`]).
    scratch: Mutex<ScoreScratch>,
}

impl Aero {
    /// Creates an untrained AERO with the given configuration.
    pub fn new(config: AeroConfig) -> DetectorResult<Self> {
        config.validate().map_err(DetectorError::Invalid)?;
        let graphs = GraphBuilder::with_edge_threshold(config.graph_mode, config.edge_threshold);
        Ok(Self {
            config,
            store: ParamStore::new(),
            temporal: None,
            temporal_ids: Vec::new(),
            gcn: None,
            scaler: MinMaxScaler::new(),
            graphs,
            trained: false,
            stage1_history: TrainingHistory::default(),
            stage2_history: TrainingHistory::default(),
            supervision: None,
            chaos_hook: None,
            adapters: None,
            scratch: Mutex::new(ScoreScratch::default()),
        })
    }

    /// Locks the scratch pool, recovering from a poisoned lock (scratch
    /// holds only recycled buffers, so a panic mid-hold leaves no invariant
    /// to protect).
    fn scratch_lock(&self) -> std::sync::MutexGuard<'_, ScoreScratch> {
        self.scratch.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Installs (or clears) the chaos-testing fault hook.
    pub fn set_chaos_hook(&mut self, hook: Option<ChaosHook>) {
        self.chaos_hook = hook;
    }

    /// Arms supervised scoring: until [`Aero::end_supervised`], the
    /// per-variate scoring path runs each star under `supervisor` unit `v`
    /// (panic capture, deadline, retry, breaker) and zero-fills the row on
    /// failure instead of propagating. Any previous context is discarded, so
    /// a retried pass that panicked mid-flight starts from a clean slate.
    pub(crate) fn begin_supervised(&mut self, supervisor: Arc<Supervisor>, num_variates: usize) {
        let mut failures = std::mem::take(&mut self.scratch_lock().failures);
        failures.clear();
        failures.resize_with(num_variates, || None);
        self.supervision = Some(SupervisionCell {
            sup: supervisor,
            failures: Mutex::new(failures),
        });
    }

    /// Hands a failures vector from [`Aero::end_supervised`] back for reuse
    /// by the next [`Aero::begin_supervised`] (streaming pushes call this
    /// once per frame after draining the entries).
    pub(crate) fn recycle_failures(&self, mut failures: Vec<Option<ShardFailure>>) {
        failures.clear();
        self.scratch_lock().failures = failures;
    }

    /// Disarms supervised scoring and returns the per-variate failures
    /// recorded since [`Aero::begin_supervised`].
    pub(crate) fn end_supervised(&mut self) -> Vec<Option<ShardFailure>> {
        match self.supervision.take() {
            Some(cell) => cell.failures.into_inner().unwrap_or_else(|e| e.into_inner()),
            None => Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AeroConfig {
        &self.config
    }

    /// Total scalar parameter count (0 before `fit`).
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// True once `fit` has completed.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    fn omega(&self) -> usize {
        self.config.effective_short_window()
    }

    /// Window positions/intervals for the long window ending at `end`.
    ///
    /// Positions are *window-relative* (`0..W`): every window sees the same
    /// positional ramp, so scoring positions beyond the training range stays
    /// in-distribution. The irregular-sampling information enters through
    /// the real inter-observation intervals `Δ_t` (Eq. 1's learnable phase
    /// shift), which are taken from the actual timestamps.
    fn window_times(series: &MultivariateSeries, end: usize, w: usize) -> (Vec<f32>, Vec<f32>) {
        let start = end + 1 - w;
        let ts = series.timestamps();
        let positions: Vec<f32> = (0..w).map(|i| i as f32).collect();
        let deltas: Vec<f32> = (start..=end)
            .map(|t| if t == 0 { 0.0 } else { (ts[t] - ts[t - 1]) as f32 })
            .collect();
        (positions, deltas)
    }

    /// Stage-1 error matrix for the window ending at `end`: the backbone's
    /// `E = Y − Ŷ₁` ([`Aero::window_errors_backbone`]) minus each star's
    /// adapter-head correction (when adapters are enabled and trained).
    fn window_errors_internal(
        &self,
        scaled: &MultivariateSeries,
        end: usize,
        skip: Option<&[bool]>,
    ) -> DetectorResult<Matrix> {
        let mut e = self.window_errors_backbone(scaled, end, skip)?;
        self.apply_adapters(scaled, end, skip, &mut e)?;
        Ok(e)
    }

    /// Subtracts each star's adapter-predicted systematic residual from its
    /// error row. Identity heads (never trained) are skipped outright —
    /// `e − 0.0` would flip `−0.0` rows, and the skip is what keeps
    /// adapter-capable but untouched stars bitwise on the pinned path.
    fn apply_adapters(
        &self,
        scaled: &MultivariateSeries,
        end: usize,
        skip: Option<&[bool]>,
        e: &mut Matrix,
    ) -> DetectorResult<()> {
        let Some(adapters) = &self.adapters else {
            return Ok(());
        };
        if (0..adapters.len()).all(|v| adapters.head(v).is_none_or(StarAdapter::is_identity)) {
            return Ok(());
        }
        let omega = self.omega();
        let y = scaled.window(end, omega)?;
        let mut latent = vec![0.0f32; adapters.rank()];
        let mut pred = vec![0.0f32; omega];
        for v in 0..e.rows() {
            if skip.is_some_and(|s| s.get(v).copied().unwrap_or(false)) {
                continue;
            }
            let Some(head) = adapters.head(v) else { continue };
            if head.is_identity() {
                continue;
            }
            head.predict_into(y.row(v), &mut latent, &mut pred);
            for (slot, p) in e.row_mut(v).iter_mut().zip(&pred) {
                *slot -= p;
            }
        }
        Ok(())
    }

    /// Evaluates the temporal module's error matrix `E = Y − Ŷ₁ ∈ R^{N×ω}`
    /// for the window ending at `end` (forward only, no gradients kept).
    ///
    /// `skip[v] = true` zero-fills variate `v`'s row without running its
    /// transformer — checked *before* the chaos hook and the supervisor, so
    /// a skipped star costs nothing and leaves its breaker state untouched.
    ///
    /// With univariate input, scoring takes the batched cross-star forward
    /// ([`Aero::window_errors_batched`]) unless a [`ChaosHook`] is
    /// installed: an installed hook routes it through the per-star tape
    /// path, which fires the hook per star and isolates per-star failures.
    /// The two paths are bitwise identical (tier-1 gated).
    fn window_errors_backbone(
        &self,
        scaled: &MultivariateSeries,
        end: usize,
        skip: Option<&[bool]>,
    ) -> DetectorResult<Matrix> {
        let w = self.config.window;
        let omega = self.omega();
        let is_skipped = |v: usize| skip.is_some_and(|s| s.get(v).copied().unwrap_or(false));
        let y = scaled.window(end, omega)?;
        let Some(temporal) = &self.temporal else {
            // Ablation 1i (w/o temporal): Ŷ₁ = 0, so E = Y.
            let mut y = y;
            for v in 0..y.rows() {
                if is_skipped(v) {
                    y.row_mut(v).fill(0.0);
                }
            }
            return Ok(y);
        };
        let x = scaled.window(end, w)?;
        let (positions, deltas) = Self::window_times(scaled, end, w);
        let n = scaled.num_variates();

        if self.config.univariate_input {
            // Batched cross-star path: all active stars' windows stacked
            // row-wise and run through one GEMM per layer. Bitwise identical
            // to the per-star path (tier-1 gated), including under nominal
            // supervision — supervision adds no data flow when nothing
            // fails, and the batched forward has no per-star failure
            // boundary anyway (an error fails the whole frame). Chaos tests
            // need per-star fault isolation, so an installed hook keeps the
            // per-star path.
            if self.chaos_hook.is_none() {
                return self.window_errors_batched(temporal, &x, &y, &positions, &deltas, skip);
            }
            // Each variate owns an independent tape over a shared read-only
            // store — embarrassingly parallel. Rows land by variate index,
            // so the result is order-deterministic.
            let hook = self.chaos_hook.clone();
            let score_one = |v: usize| -> DetectorResult<Vec<f32>> {
                if is_skipped(v) {
                    return Ok(vec![0.0; omega]);
                }
                if let Some(hook) = &hook {
                    hook.fire(v);
                }
                let long = Matrix::col_vector(x.row(v));
                let short = Matrix::col_vector(y.row(v));
                let mut g = Graph::new();
                let out =
                    temporal.reconstruct(&mut g, &self.store, &long, &short, &positions, &deltas)?;
                let recon = g.value(out)?;
                Ok((0..omega).map(|t| y.get(v, t) - recon.get(t, 0)).collect())
            };
            let mut e = Matrix::zeros(n, omega);
            if let Some(cell) = &self.supervision {
                // Supervised (online) path: each star runs under its own
                // supervisor unit; a failure zero-fills that star's row and
                // is recorded for the caller, the other stars are untouched.
                // When nothing fails, rows are bitwise identical to the
                // unsupervised path — supervision adds no data flow.
                let rows: Vec<Option<Vec<f32>>> = aero_parallel::parallel_map_range(n, |v| {
                    if is_skipped(v) {
                        // Shed star: zero row, no supervisor involvement —
                        // the breaker must not see a synthetic success.
                        return None;
                    }
                    match cell.sup.run(v, || score_one(v)) {
                        Ok(row) => Some(row),
                        Err(failure) => {
                            let mut failures =
                                cell.failures.lock().unwrap_or_else(|e| e.into_inner());
                            if let Some(slot) = failures.get_mut(v) {
                                *slot = Some(failure);
                            }
                            None
                        }
                    }
                });
                for (v, row) in rows.into_iter().enumerate() {
                    if let Some(row) = row {
                        e.row_mut(v).copy_from_slice(&row);
                    }
                }
            } else {
                // Batch path: a panic becomes a typed error for the caller
                // (never an unwind across the pool), and any per-variate
                // error fails the whole batch as before.
                let rows = aero_parallel::supervised_map_range(n, score_one);
                for (v, row) in rows.into_iter().enumerate() {
                    let row = row.map_err(DetectorError::from)??;
                    e.row_mut(v).copy_from_slice(&row);
                }
            }
            Ok(e)
        } else {
            let long = x.transpose(); // W × N tokens
            let short = y.transpose();
            let mut g = Graph::new();
            let out =
                temporal.reconstruct(&mut g, &self.store, &long, &short, &positions, &deltas)?;
            let recon = g.value(out)?; // ω × N
            let mut e = Matrix::zeros(n, omega);
            for v in 0..n {
                if is_skipped(v) {
                    continue; // whole-frame transformer ran anyway; drop the row
                }
                for t in 0..omega {
                    e.set(v, t, y.get(v, t) - recon.get(t, v));
                }
            }
            Ok(e)
        }
    }

    /// Batched Stage-1 error matrix: the univariate path's per-star windows
    /// stacked into one `(A·W) × 1` / `(A·ω) × 1` pair (A = active stars)
    /// and reconstructed in a single tape-free forward pass — one GEMM per
    /// layer instead of A small ones. Results are de-interleaved back into
    /// per-star rows of `E`. Skipped stars keep zero rows and never enter
    /// the stack, matching the per-star path exactly.
    fn window_errors_batched(
        &self,
        temporal: &TemporalModule,
        x: &Matrix,
        y: &Matrix,
        positions: &[f32],
        deltas: &[f32],
        skip: Option<&[bool]>,
    ) -> DetectorResult<Matrix> {
        let n = x.rows();
        let w = x.cols();
        let omega = y.cols();
        let is_skipped = |v: usize| skip.is_some_and(|s| s.get(v).copied().unwrap_or(false));
        let stars: Vec<usize> = (0..n).filter(|&v| !is_skipped(v)).collect();
        let mut e = Matrix::zeros(n, omega);
        if stars.is_empty() {
            return Ok(e);
        }
        let blocks = stars.len();
        let mut long = Matrix::zeros(blocks * w, 1);
        let mut short = Matrix::zeros(blocks * omega, 1);
        for (b, &v) in stars.iter().enumerate() {
            long.as_mut_slice()[b * w..(b + 1) * w].copy_from_slice(x.row(v));
            short.as_mut_slice()[b * omega..(b + 1) * omega].copy_from_slice(y.row(v));
        }
        let recon =
            temporal.reconstruct_batched(&self.store, &long, &short, positions, deltas, blocks)?;
        for (b, &v) in stars.iter().enumerate() {
            for t in 0..omega {
                e.set(v, t, y.get(v, t) - recon.get(b * omega + t, 0));
            }
        }
        Ok(e)
    }

    /// Snapshot of every parameter value, for divergence rollback.
    ///
    /// O(1) per parameter: values are `Arc`-shared with the store, and the
    /// optimizer's copy-on-write update path copies a buffer only when it
    /// actually writes that parameter — i.e. the snapshot materializes
    /// exactly the params whose values changed since it was taken.
    fn snapshot_params(&self) -> Vec<(ParamId, Arc<Matrix>)> {
        self.store.iter().map(|(id, p)| (id, Arc::clone(p.value_arc()))).collect()
    }

    /// Restores a parameter snapshot taken by [`Self::snapshot_params`].
    fn restore_params(&mut self, snapshot: &[(ParamId, Arc<Matrix>)]) -> DetectorResult<()> {
        for (id, value) in snapshot {
            self.store.set_value_arc(*id, Arc::clone(value))?;
        }
        Ok(())
    }

    /// Stage 1: train the temporal module to reconstruct normal patterns.
    ///
    /// A diverged (non-finite loss) epoch rolls the parameters back to the
    /// best snapshot and retries with a halved learning rate, up to the
    /// [`NanRecovery`] budget; exhausting the budget keeps the best
    /// snapshot rather than erroring out of the whole fit.
    fn train_stage1(&mut self, scaled: &MultivariateSeries) -> DetectorResult<()> {
        let Some(temporal) = self.temporal.clone() else {
            return Ok(());
        };
        let w = self.config.window;
        let omega = self.omega();
        let ends: Vec<usize> = scaled.window_ends(w, self.config.train_stride).collect();
        if ends.is_empty() {
            return Err(DetectorError::Invalid(format!(
                "training series of length {} shorter than window W={w}",
                scaled.len()
            )));
        }
        let mut lr = self.config.lr;
        let mut opt = Adam::new(lr).with_clip_norm(5.0);
        let mut stop = EarlyStopping::new(self.config.patience, 0.0);
        let mut recovery = NanRecovery::bounded_default();
        let mut best_loss = f32::INFINITY;
        let mut best = self.snapshot_params();
        let n = scaled.num_variates();
        // Shard supervisor: a transient panic in one gradient shard is
        // retried (the shard is a pure function of the frozen window + the
        // current parameters, so the retry is bitwise identical); a
        // persistent one surfaces as a typed error, never a pool abort.
        // The breaker is disabled — silently skipping a shard would corrupt
        // the gradient sum, so training prefers a hard typed failure.
        let shard_sup = Supervisor::new(
            SupervisorPolicy {
                circuit_threshold: u32::MAX,
                ..SupervisorPolicy::default()
            },
            GRAD_SHARDS,
        );
        let hook = self.chaos_hook.clone();

        let mut epoch = 0usize;
        while epoch < self.config.max_epochs {
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for &end in &ends {
                let x = scaled.window(end, w)?;
                let y = scaled.window(end, omega)?;
                let (positions, deltas) = Self::window_times(scaled, end, w);
                self.store.zero_grads();
                let mut window_loss = 0.0f64;
                if self.config.univariate_input {
                    // Per-variate tapes are independent, so shards accumulate
                    // gradients into thread-local buffers against a shared
                    // `&store`, and the buffers are merged in shard order
                    // before the optimizer step. Shard boundaries are fixed
                    // (GRAD_SHARDS), so the merge — and training — is
                    // bitwise identical at any thread count.
                    let shards = aero_parallel::shard_ranges(n, GRAD_SHARDS);
                    let store = &self.store;
                    let shard_sup = &shard_sup;
                    let hook = &hook;
                    let partials: Vec<Result<(f64, GradBuffer), SupervisionError<DetectorError>>> =
                        aero_parallel::parallel_map(&shards, |s, range| {
                            shard_sup.run(s, || {
                                let mut grads = GradBuffer::for_store(store);
                                let mut loss_sum = 0.0f64;
                                for v in range.clone() {
                                    if let Some(hook) = hook {
                                        hook.fire(v);
                                    }
                                    let long = Matrix::col_vector(x.row(v));
                                    let short = Matrix::col_vector(y.row(v));
                                    let mut g = Graph::new();
                                    let out = temporal.reconstruct(
                                        &mut g, store, &long, &short, &positions, &deltas,
                                    )?;
                                    let loss = g.mse_loss(out, &short)?;
                                    loss_sum += g.value(loss)?.scalar_value()? as f64;
                                    g.backward_into(loss, &mut grads)?;
                                }
                                Ok((loss_sum, grads))
                            })
                        });
                    for partial in partials {
                        let (shard_loss, mut grads) =
                            partial.map_err(SupervisionError::into_detector_error)?;
                        window_loss += shard_loss;
                        grads.merge_into(&mut self.store)?;
                    }
                    window_loss /= n as f64;
                } else {
                    let long = x.transpose();
                    let short = y.transpose();
                    let mut g = Graph::new();
                    let out = temporal
                        .reconstruct(&mut g, &self.store, &long, &short, &positions, &deltas)?;
                    let loss = g.mse_loss(out, &short)?;
                    window_loss = g.value(loss)?.scalar_value()? as f64;
                    g.backward(loss, &mut self.store)?;
                }
                if !window_loss.is_finite() {
                    // Any further steps would just propagate NaN through the
                    // optimizer state; abandon the epoch now.
                    epoch_loss = f64::NAN;
                    break;
                }
                opt.step(&mut self.store)?;
                epoch_loss += window_loss;
                batches += 1;
            }
            let mean = (epoch_loss / batches.max(1) as f64) as f32;
            if !mean.is_finite() {
                self.restore_params(&best)?;
                if recovery.should_retry() {
                    lr *= recovery.lr_decay();
                    opt = Adam::new(lr).with_clip_norm(5.0);
                    self.stage1_history.record_rollback();
                    continue; // retry the epoch from the rolled-back state
                }
                break; // budget exhausted: settle for the best snapshot
            }
            if mean < best_loss {
                best_loss = mean;
                best = self.snapshot_params();
            }
            self.stage1_history.push(mean);
            epoch += 1;
            if !stop.update(mean) {
                break;
            }
        }
        Ok(())
    }

    /// Stage 2: freeze the temporal module, train the GCN to reconstruct the
    /// concurrent-noise component of the stage-1 errors.
    fn train_stage2(&mut self, scaled: &MultivariateSeries) -> DetectorResult<()> {
        let Some(gcn) = self.gcn.clone() else {
            return Ok(());
        };
        let w = self.config.window;
        let omega = self.omega();
        let ends: Vec<usize> = scaled.window_ends(w, self.config.train_stride).collect();

        // Freeze module 1 (Algorithm 1 trains M₂ with M₁'s parameters fixed)
        // — which also means each window's error matrix is a constant we can
        // precompute once instead of re-running the Transformer every epoch.
        self.store.set_frozen(&self.temporal_ids, true)?;
        let mut errors = Vec::with_capacity(ends.len());
        for &end in &ends {
            // Backbone errors on purpose: the GCN learns to reconstruct the
            // *shared* Stage-1 error structure; per-star heads are layered on
            // afterwards (and are identity during fit anyway).
            errors.push(self.window_errors_backbone(scaled, end, None)?);
        }

        let mut lr = self.config.lr;
        let mut opt = Adam::new(lr).with_clip_norm(5.0);
        let mut stop = EarlyStopping::new(self.config.patience, 0.0);
        let mut recovery = NanRecovery::bounded_default();
        let mut best_loss = f32::INFINITY;
        let mut best = self.snapshot_params();

        let mut epoch = 0usize;
        while epoch < self.config.max_epochs {
            self.graphs.reset();
            let mut epoch_loss = 0.0f64;
            for (&end, e) in ends.iter().zip(&errors) {
                let feats_m = match self.config.noise_features {
                    NoiseFeatures::Errors => e.clone(),
                    NoiseFeatures::Window => scaled.window(end, omega)?,
                };
                let p = self.graphs.propagation(e);
                self.store.zero_grads();
                let mut g = Graph::new();
                let feats = g.constant(feats_m);
                let yhat2 = gcn.forward(&mut g, &self.store, &p, feats)?;
                // loss₂ = (Y − Ŷ₁) − Ŷ₂ = E − Ŷ₂  →  MSE(Ŷ₂, E).
                let loss = g.mse_loss(yhat2, e)?;
                let batch_loss = g.value(loss)?.scalar_value()? as f64;
                if !batch_loss.is_finite() {
                    epoch_loss = f64::NAN;
                    break;
                }
                g.backward(loss, &mut self.store)?;
                opt.step(&mut self.store)?;
                epoch_loss += batch_loss;
            }
            let mean = (epoch_loss / ends.len().max(1) as f64) as f32;
            if !mean.is_finite() {
                // Same divergence-recovery policy as stage 1.
                self.restore_params(&best)?;
                if recovery.should_retry() {
                    lr *= recovery.lr_decay();
                    opt = Adam::new(lr).with_clip_norm(5.0);
                    self.stage2_history.record_rollback();
                    continue;
                }
                break;
            }
            if mean < best_loss {
                best_loss = mean;
                best = self.snapshot_params();
            }
            self.stage2_history.push(mean);
            epoch += 1;
            if !stop.update(mean) {
                break;
            }
        }
        self.store.set_frozen(&self.temporal_ids, false)?;
        Ok(())
    }

    /// Final residual `R = Y − Ŷ₁ − Ŷ₂` for the window ending at `end` of an
    /// already-scaled series. Also returns the stage-1 error `E`.
    ///
    /// Takes the graph builder explicitly so stateless graph modes can score
    /// windows in parallel with per-window builder clones, while the EWMA
    /// mode threads one builder through the windows sequentially.
    fn window_residual_with(
        &self,
        scaled: &MultivariateSeries,
        end: usize,
        graphs: &mut GraphBuilder,
        skip: Option<&[bool]>,
        run_stage2: bool,
    ) -> DetectorResult<(Matrix, Matrix)> {
        let e = self.window_errors_internal(scaled, end, skip)?;
        self.stage2_from_error(scaled, end, e, graphs, run_stage2)
    }

    /// Stage-2 noise cancellation for one window given its precomputed
    /// Stage-1 error matrix — the second half of [`window_residual_with`]
    /// (split out so [`Aero::score_stage2`] can finish a pass whose Stage-1
    /// errors were computed separately).
    fn stage2_from_error(
        &self,
        scaled: &MultivariateSeries,
        end: usize,
        e: Matrix,
        graphs: &mut GraphBuilder,
        run_stage2: bool,
    ) -> DetectorResult<(Matrix, Matrix)> {
        let omega = self.omega();
        if !run_stage2 {
            // Degraded pass with no Full-mode star left: Stage-2's residual
            // would be read by nobody, so skip the GCN and alias R = E.
            return Ok((e.clone(), e));
        }
        let Some(gcn) = &self.gcn else {
            return Ok((e.clone(), e));
        };
        let mut residual = e.clone();
        let iterations = match self.config.noise_features {
            NoiseFeatures::Errors => self.config.noise_iterations.max(1),
            // The raw-window variant has no meaningful iterate (features do
            // not shrink as noise is explained), so run a single round.
            NoiseFeatures::Window => 1,
        };
        for _ in 0..iterations {
            let feats_m = match self.config.noise_features {
                NoiseFeatures::Errors => residual.clone(),
                NoiseFeatures::Window => scaled.window(end, omega)?,
            };
            let p = graphs.propagation(&residual);
            let mut g = Graph::new();
            let feats = g.constant(feats_m);
            let yhat2 = gcn.forward(&mut g, &self.store, &p, feats)?;
            let mut y2 = g.value(yhat2)?.clone();
            if self.config.amplitude_matching {
                for v in 0..y2.rows() {
                    let (mut dot, mut norm2) = (0.0f32, 0.0f32);
                    for (a, b) in y2.row(v).iter().zip(residual.row(v)) {
                        dot += a * b;
                        norm2 += a * a;
                    }
                    let alpha = if norm2 > 1e-12 { (dot / norm2).clamp(0.0, 2.0) } else { 0.0 };
                    for a in y2.row_mut(v) {
                        *a *= alpha;
                    }
                }
            }
            residual = residual.sub(&y2)?;
        }
        Ok((e, residual))
    }

    /// Residuals for a batch of scoring windows, in window order.
    ///
    /// Stateless graph modes (window-wise, static) score windows in parallel
    /// with per-window builder clones; the dynamic-EWMA mode is inherently
    /// sequential (each window's adjacency depends on the previous one), so
    /// it threads one builder through the windows serially. Either way the
    /// caller min-combines in window order, which is order-insensitive.
    fn window_residuals(
        &mut self,
        scaled: &MultivariateSeries,
        ends: &[usize],
        skip: Option<&[bool]>,
        run_stage2: bool,
    ) -> DetectorResult<Vec<(Matrix, Matrix)>> {
        self.graphs.reset();
        if self.graphs.is_stateful() {
            let mut graphs = self.graphs.clone();
            let mut out = Vec::with_capacity(ends.len());
            for &end in ends {
                out.push(self.window_residual_with(scaled, end, &mut graphs, skip, run_stage2)?);
            }
            self.graphs = graphs;
            Ok(out)
        } else {
            let this = &*self;
            // supervised_map: a panicking window becomes a typed error for
            // the caller instead of unwinding across the pool join.
            aero_parallel::supervised_map(ends, |_, &end| {
                let mut graphs = this.graphs.clone();
                this.window_residual_with(scaled, end, &mut graphs, skip, run_stage2)
            })
            .into_iter()
            .map(|r| r.map_err(DetectorError::from)?)
            .collect()
        }
    }

    /// Stage-1 half of the split scoring pipeline: scales the series, runs
    /// the temporal module over every scoring window and returns the error
    /// matrices plus everything Stage-2 needs to finish the pass.
    /// `modes = None` means an undegraded pass (all stars `Full`).
    fn score_stage1(
        &self,
        series: &MultivariateSeries,
        modes: Option<&[ScoreMode]>,
    ) -> DetectorResult<PendingStage1> {
        if !self.trained {
            return Err(DetectorError::Invalid("call fit() first".into()));
        }
        let ts_spine = std::mem::take(&mut self.scratch_lock().timestamps);
        let scaled = self.scaler.transform_reusing(series, ts_spine)?;
        let n = scaled.num_variates();
        if let Some(modes) = modes {
            if modes.len() != n {
                return Err(DetectorError::Invalid(format!(
                    "{} score modes for {n} variates",
                    modes.len()
                )));
            }
        }
        let skip: Option<Vec<bool>> =
            modes.map(|m| m.iter().map(|mode| *mode == ScoreMode::Skip).collect());
        let run_stage2 = modes.is_none_or(|m| m.contains(&ScoreMode::Full));
        let ends = self.score_ends(scaled.len());
        let errors = {
            let skip = skip.as_deref();
            if ends.len() == 1 {
                // Streaming fast path: one scoring window per push, so skip
                // the fan-out (and its per-call result vectors) and reuse
                // the recycled spine. A panic converts to the same typed
                // supervision error the mapped path would report.
                let mut out = std::mem::take(&mut self.scratch_lock().errors);
                out.clear();
                let end = ends[0];
                let e = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.window_errors_internal(&scaled, end, skip)
                }))
                .unwrap_or_else(|payload| {
                    Err(DetectorError::from(aero_parallel::ShardError {
                        shard: 0,
                        message: aero_parallel::panic_message(payload),
                    }))
                })?;
                out.push(e);
                out
            } else {
                aero_parallel::supervised_map(&ends, |_, &end| {
                    self.window_errors_internal(&scaled, end, skip)
                })
                .into_iter()
                .map(|r| r.map_err(DetectorError::from)?)
                .collect::<DetectorResult<Vec<Matrix>>>()?
            }
        };
        Ok(PendingStage1 {
            scaled,
            ends,
            errors,
            modes: modes.map(<[ScoreMode]>::to_vec),
            run_stage2,
        })
    }

    /// Stage-2 half: noise-cancels the pending error matrices and
    /// min-combines them into the final score matrix. Composing this with
    /// [`Aero::score_stage1`] is exactly [`Detector::score`] (modes `None`)
    /// or [`Aero::score_with_modes`] — both delegate here.
    fn score_stage2(&mut self, pending: PendingStage1) -> DetectorResult<Matrix> {
        self.graphs.reset();
        let residuals = if self.graphs.is_stateful() {
            let mut graphs = self.graphs.clone();
            let mut out = std::mem::take(&mut self.scratch_lock().residuals);
            out.clear();
            for (&end, e) in pending.ends.iter().zip(&pending.errors) {
                out.push(self.stage2_from_error(
                    &pending.scaled,
                    end,
                    e.clone(),
                    &mut graphs,
                    pending.run_stage2,
                )?);
            }
            self.graphs = graphs;
            out
        } else if pending.ends.len() == 1 {
            // Streaming fast path — mirror of the Stage-1 single-window
            // branch: direct call on a recycled spine, panics converted to
            // the typed supervision error.
            let mut out = std::mem::take(&mut self.scratch_lock().residuals);
            out.clear();
            let this = &*self;
            let p = &pending;
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut graphs = this.graphs.clone();
                this.stage2_from_error(&p.scaled, p.ends[0], p.errors[0].clone(), &mut graphs, p.run_stage2)
            }))
            .unwrap_or_else(|payload| {
                Err(DetectorError::from(aero_parallel::ShardError {
                    shard: 0,
                    message: aero_parallel::panic_message(payload),
                }))
            })?;
            out.push(r);
            out
        } else {
            let this = &*self;
            let p = &pending;
            aero_parallel::supervised_map(&pending.ends, |i, &end| {
                let mut graphs = this.graphs.clone();
                this.stage2_from_error(&p.scaled, end, p.errors[i].clone(), &mut graphs, p.run_stage2)
            })
            .into_iter()
            .map(|r| r.map_err(DetectorError::from)?)
            .collect::<DetectorResult<Vec<_>>>()?
        };
        let scores = self.combine_scores(&pending, &residuals);
        self.recycle_pending(pending, residuals);
        Ok(scores)
    }

    /// Returns a finished pass's `Vec` spines to the scratch pool. The
    /// matrix payloads drop back into the tensor workspace pool as the
    /// spines are cleared, so the next push's Stage-1 reuses both layers.
    fn recycle_pending(&self, pending: PendingStage1, mut residuals: Vec<(Matrix, Matrix)>) {
        let PendingStage1 { scaled, mut ends, mut errors, .. } = pending;
        let (_values, mut ts) = scaled.into_parts();
        ts.clear();
        ends.clear();
        errors.clear();
        residuals.clear();
        let mut scratch = self.scratch_lock();
        scratch.ends = ends;
        scratch.errors = errors;
        scratch.residuals = residuals;
        scratch.timestamps = ts;
    }

    /// Min-combines window residuals into the final `N × len` score matrix
    /// (mode-aware), zeroes unscored (warmup) columns, and applies score
    /// smoothing.
    fn combine_scores(&self, pending: &PendingStage1, residuals: &[(Matrix, Matrix)]) -> Matrix {
        let n = pending.scaled.num_variates();
        let len = pending.scaled.len();
        let omega = self.omega();
        let mut scores = Matrix::full(n, len, f32::INFINITY);
        for (&end, (e, r)) in pending.ends.iter().zip(residuals) {
            let start = end + 1 - omega;
            for v in 0..n {
                let mode = pending.modes.as_ref().map_or(ScoreMode::Full, |m| m[v]);
                let src = match mode {
                    ScoreMode::Full => r,
                    ScoreMode::Stage1 => e,
                    ScoreMode::Skip => continue, // stays ∞, zeroed below
                };
                for t in 0..omega {
                    let cur = scores.get(v, start + t);
                    scores.set(v, start + t, cur.min(src.get(v, t).abs()));
                }
            }
        }
        for v in scores.as_mut_slice() {
            if v.is_infinite() {
                *v = 0.0;
            }
        }
        if self.config.score_smoothing > 1 {
            let w = self.config.score_smoothing;
            let warm = self.warmup();
            for v in 0..n {
                let smoothed =
                    aero_timeseries::stats::moving_average(&scores.row(v)[warm..], w);
                scores.row_mut(v)[warm..].copy_from_slice(&smoothed);
            }
        }
        scores
    }

    /// Scoring window end indices: the first full window, then steps of
    /// `ω/2` (half-overlapping short windows), plus a final tail window.
    /// Each column is scored by up to two window contexts; the residuals
    /// are min-combined, so a concurrent-noise event clipped at one block
    /// boundary still gets fully reconstructed by the neighbouring context.
    fn score_ends(&self, len: usize) -> Vec<usize> {
        let w = self.config.window;
        let omega = self.omega();
        let stride = (omega / 2).max(1);
        let mut ends = std::mem::take(&mut self.scratch_lock().ends);
        ends.clear();
        if len < w {
            return ends;
        }
        let mut e = w - 1;
        while e < len {
            ends.push(e);
            e += stride;
        }
        if ends.last().copied() != Some(len - 1) {
            ends.push(len - 1);
        }
        ends
    }

    /// Exposes the window-wise adjacency for analysis (Fig. 8). The series
    /// is scaled internally; `end` is the window's last column.
    pub fn window_graph(
        &mut self,
        series: &MultivariateSeries,
        end: usize,
    ) -> DetectorResult<Matrix> {
        if !self.trained {
            return Err(DetectorError::Invalid("call fit() first".into()));
        }
        let scaled = self.scaler.transform(series)?;
        let e = self.window_errors_internal(&scaled, end, None)?;
        Ok(crate::graph_learn::window_adjacency(&e))
    }

    /// Per-stage reconstruction errors for analysis (Fig. 9): returns
    /// `(|E|, |R|)` score matrices over the whole series.
    pub fn stage_scores(
        &mut self,
        series: &MultivariateSeries,
    ) -> DetectorResult<(Matrix, Matrix)> {
        if !self.trained {
            return Err(DetectorError::Invalid("call fit() first".into()));
        }
        let scaled = self.scaler.transform(series)?;
        let n = scaled.num_variates();
        let len = scaled.len();
        let omega = self.omega();
        let mut e_scores = Matrix::full(n, len, f32::INFINITY);
        let mut r_scores = Matrix::full(n, len, f32::INFINITY);
        let ends = self.score_ends(len);
        let residuals = self.window_residuals(&scaled, &ends, None, true)?;
        for (&end, (e, r)) in ends.iter().zip(&residuals) {
            let start = end + 1 - omega;
            for v in 0..n {
                for t in 0..omega {
                    let ce = e_scores.get(v, start + t);
                    e_scores.set(v, start + t, ce.min(e.get(v, t).abs()));
                    let cr = r_scores.get(v, start + t);
                    r_scores.set(v, start + t, cr.min(r.get(v, t).abs()));
                }
            }
        }
        for m in [&mut e_scores, &mut r_scores] {
            for v in m.as_mut_slice() {
                if v.is_infinite() {
                    *v = 0.0;
                }
            }
        }
        Ok((e_scores, r_scores))
    }

    /// [`Detector::score`] with a per-star degradation mode (the overload
    /// ladder's model rungs, DESIGN.md §11): `Full` stars get the two-stage
    /// residual `|R|`, `Stage1` stars the raw error `|E|`, and `Skip` stars
    /// a zero row with their transformer never invoked.
    ///
    /// With every mode `Full` this delegates to [`Detector::score`] and is
    /// bitwise identical to it — degradation is strictly opt-in per star.
    /// When no star is `Full` the Stage-2 GCN is skipped entirely. Note that
    /// skipping stars zero-fills their rows of the error matrix the GCN
    /// propagates over, so `Full` scores under a partial mask legitimately
    /// differ from an unmasked pass; the mask itself is a deterministic
    /// function of arrival order, keeping the verdict stream reproducible.
    pub fn score_with_modes(
        &mut self,
        series: &MultivariateSeries,
        modes: &[ScoreMode],
    ) -> DetectorResult<Matrix> {
        if modes.iter().all(|m| *m == ScoreMode::Full) {
            return self.score(series);
        }
        let pending = self.score_stage1(series, Some(modes))?;
        self.score_stage2(pending)
    }
}

impl Aero {
    /// (Re)builds modules and the parameter store for `n` variates.
    /// Deterministic given the config seed — identical register order on
    /// every call, which is what makes [`Aero::load`] possible.
    pub(crate) fn build_modules(&mut self, n: usize) -> DetectorResult<()> {
        self.store = ParamStore::new();
        self.stage1_history = TrainingHistory::default();
        self.stage2_history = TrainingHistory::default();
        let in_dim = if self.config.univariate_input { 1 } else { n };
        if self.config.use_temporal {
            let t = TemporalModule::new(&mut self.store, &self.config, in_dim, self.config.seed)?;
            self.temporal_ids = t.param_ids();
            self.temporal = Some(t);
        } else {
            self.temporal = None;
            self.temporal_ids = Vec::new();
        }
        if self.config.use_noise_module {
            let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5eed);
            let omega = self.omega();
            self.gcn = Some(GcnLayer::new_identity(
                &mut self.store,
                "noise.gcn",
                omega,
                Activation::Tanh,
                &mut rng,
            ));
        } else {
            self.gcn = None;
        }
        self.adapters = if self.config.adapter_rank > 0 {
            Some(AdapterSet::new(
                n,
                self.omega(),
                self.config.adapter_rank,
                self.config.seed,
            ))
        } else {
            None
        };
        Ok(())
    }

    /// Direct access to the parameter store (used by persistence).
    pub(crate) fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameter store (used by persistence).
    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The fitted scaler (used by persistence).
    pub(crate) fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// Restores trained state (used by persistence).
    pub(crate) fn restore(&mut self, scaler: MinMaxScaler) {
        self.scaler = scaler;
        self.trained = true;
    }

    /// The per-star adapter heads (`None` when `adapter_rank == 0`).
    pub fn adapters(&self) -> Option<&AdapterSet> {
        self.adapters.as_ref()
    }

    /// Mutable adapter access (persistence / migration install paths).
    pub(crate) fn adapters_mut(&mut self) -> Option<&mut AdapterSet> {
        self.adapters.as_mut()
    }

    /// One online SGD step for star `v`'s adapter head: runs the frozen
    /// backbone's Stage-1 forward for that star alone over the newest window
    /// of `series` and nudges the head toward predicting the residual. The
    /// trunk never moves — only the star's `2·r·ω + O(1)` delta scalars do.
    ///
    /// Deterministic given the call sequence, so WAL replay reproduces the
    /// exact head state. Returns the head's total update count.
    pub fn adapt_star(&mut self, v: usize, series: &MultivariateSeries) -> DetectorResult<u64> {
        if !self.trained {
            return Err(DetectorError::Invalid("call fit() first".into()));
        }
        if self.adapters.is_none() {
            return Err(DetectorError::Invalid(
                "adapter_rank is 0: no per-star heads to adapt".into(),
            ));
        }
        if !self.config.univariate_input {
            return Err(DetectorError::Invalid(
                "per-star adaptation requires univariate_input".into(),
            ));
        }
        let scaled = self.scaler.transform(series)?;
        if v >= scaled.num_variates() {
            return Err(DetectorError::Invalid(format!(
                "star {v} out of range ({} variates)",
                scaled.num_variates()
            )));
        }
        let w = self.config.window;
        if scaled.len() < w {
            return Err(DetectorError::Invalid(format!(
                "series of length {} too short for W={w}",
                scaled.len()
            )));
        }
        let omega = self.omega();
        let end = scaled.len() - 1;
        let y = scaled.window(end, omega)?;
        let residual: Vec<f32> = match &self.temporal {
            Some(temporal) => {
                let x = scaled.window(end, w)?;
                let (positions, deltas) = Self::window_times(&scaled, end, w);
                let long = Matrix::col_vector(x.row(v));
                let short = Matrix::col_vector(y.row(v));
                let mut g = Graph::new();
                let out = temporal
                    .reconstruct(&mut g, &self.store, &long, &short, &positions, &deltas)?;
                let recon = g.value(out)?;
                (0..omega).map(|t| y.get(v, t) - recon.get(t, 0)).collect()
            }
            // Ablation 1i: E = Y, the head learns the star's raw pattern.
            None => y.row(v).to_vec(),
        };
        let lr = self.config.adapter_lr;
        let head = self
            .adapters
            .as_mut()
            .and_then(|a| a.head_mut(v))
            .ok_or_else(|| DetectorError::Invalid(format!("no adapter head for star {v}")))?;
        head.sgd_step(y.row(v), &residual, lr);
        Ok(head.updates())
    }

    /// Snapshots the trained trunk for `Arc`-sharing: every parameter by
    /// registration name, values aliased (not copied). Detectors assembled
    /// from the snapshot via [`Aero::from_backbone`] share these buffers
    /// byte-for-byte, so a fleet of N shards holds **one** trunk.
    pub fn backbone(&self) -> DetectorResult<BackboneSnapshot> {
        if !self.trained {
            return Err(DetectorError::Invalid("call fit() first".into()));
        }
        let params = self
            .store
            .iter()
            .map(|(_, p)| (p.name().to_string(), Arc::clone(p.value_arc())))
            .collect();
        BackboneSnapshot::from_parts(self.config.clone(), params)
    }

    /// Star `v`'s full per-star state beyond the shared trunk: its scaler
    /// column plus (when adapters are enabled) its trained head. This is the
    /// kilobyte-scale unit that v3 checkpoints and mid-night migration move.
    pub fn star_delta(&self, v: usize) -> DetectorResult<StarDelta> {
        if !self.trained {
            return Err(DetectorError::Invalid("call fit() first".into()));
        }
        let (Some(&min), Some(&range)) = (self.scaler.mins().get(v), self.scaler.ranges().get(v))
        else {
            return Err(DetectorError::Invalid(format!(
                "star {v} out of range ({} variates)",
                self.scaler.mins().len()
            )));
        };
        Ok(StarDelta {
            scaler_min: min,
            scaler_range: range,
            adapter: self.adapters.as_ref().and_then(|a| a.head(v)).cloned(),
        })
    }

    /// Assembles a trained detector from a shared backbone plus one delta
    /// per star. The trunk parameters are `Arc`-aliased (zero copies) and
    /// frozen; the rebuilt module layout must match the snapshot exactly —
    /// any missing or extra parameter is a typed error, never silence.
    ///
    /// With identity (or absent) adapter heads the assembled detector scores
    /// **bitwise identically** to the monolithic model it was split from:
    /// same config, same buffers, same module layout (tier-1 gated).
    pub fn from_backbone(backbone: &BackboneSnapshot, deltas: &[StarDelta]) -> DetectorResult<Self> {
        if deltas.is_empty() {
            return Err(DetectorError::Invalid(
                "from_backbone needs at least one star delta".into(),
            ));
        }
        let mut aero = Self::new(backbone.config().clone())?;
        aero.build_modules(deltas.len())?;
        let mut ids = Vec::with_capacity(backbone.params().len());
        for (name, value) in backbone.params() {
            let Some(id) = aero.store.id_by_name(name) else {
                return Err(DetectorError::Invalid(format!(
                    "backbone parameter `{name}` has no slot in the rebuilt module layout"
                )));
            };
            aero.store.set_value_arc(id, Arc::clone(value))?;
            ids.push(id);
        }
        if ids.len() != aero.store.len() {
            return Err(DetectorError::Invalid(format!(
                "backbone holds {} parameters, rebuilt layout expects {}",
                ids.len(),
                aero.store.len()
            )));
        }
        aero.store.set_frozen(&ids, true)?;
        let mins: Vec<f32> = deltas.iter().map(|d| d.scaler_min).collect();
        let ranges: Vec<f32> = deltas.iter().map(|d| d.scaler_range).collect();
        aero.scaler = MinMaxScaler::from_parts(mins, ranges)?;
        for (v, d) in deltas.iter().enumerate() {
            if let Some(head) = &d.adapter {
                let Some(adapters) = &mut aero.adapters else {
                    return Err(DetectorError::Invalid(format!(
                        "star {v}'s delta carries an adapter head but adapter_rank is 0"
                    )));
                };
                adapters.install_head(v, head.clone())?;
            }
        }
        aero.trained = true;
        Ok(aero)
    }

    /// Measured resident bytes of this detector's owned buffers, with
    /// `Arc`-shared trunk parameters deduplicated across detectors via
    /// `seen` (keyed by buffer address). The first detector to visit a
    /// shared buffer pays for it; replicas assembled via
    /// [`Aero::from_backbone`] then count only their per-star state. Feed a
    /// fresh set to measure one detector standalone.
    pub fn resident_bytes(&self, seen: &mut std::collections::HashSet<usize>) -> usize {
        let mut bytes = self.store.resident_bytes(seen);
        bytes += (self.scaler.mins().len() + self.scaler.ranges().len())
            * std::mem::size_of::<f32>();
        if let Some(adapters) = &self.adapters {
            bytes += adapters.delta_bytes();
        }
        bytes
    }
}

/// The shared frozen trunk — Stage-1 Transformer + GCN parameters — trained
/// once per night on a sampled subset of stars and then `Arc`-shared by
/// every detector assembled from it ([`Aero::from_backbone`]). Parameters
/// are keyed by registration name; [`Aero::build_modules`] is deterministic,
/// so the rebuilt layout always offers the same names.
#[derive(Debug, Clone)]
pub struct BackboneSnapshot {
    config: AeroConfig,
    params: Vec<(String, Arc<Matrix>)>,
}

impl BackboneSnapshot {
    /// Builds a snapshot from a validated config and named parameters.
    pub fn from_parts(
        config: AeroConfig,
        params: Vec<(String, Arc<Matrix>)>,
    ) -> DetectorResult<Self> {
        config.validate().map_err(DetectorError::Invalid)?;
        Ok(Self { config, params })
    }

    /// The training configuration the trunk was fit under.
    pub fn config(&self) -> &AeroConfig {
        &self.config
    }

    /// The named trunk parameters (values `Arc`-aliased, never copied).
    pub fn params(&self) -> &[(String, Arc<Matrix>)] {
        &self.params
    }

    /// Unique trunk bytes — each parameter buffer counted exactly once,
    /// regardless of how many detectors share it.
    pub fn param_bytes(&self) -> usize {
        self.params.iter().map(|(_, m)| m.len() * std::mem::size_of::<f32>()).sum()
    }
}

/// One star's detector state beyond the shared trunk: its scaler column and
/// (when adapters are enabled) its trained head. Kilobytes, not a model —
/// the unit v3 checkpoints store per star and mid-night migration ships.
#[derive(Debug, Clone, PartialEq)]
pub struct StarDelta {
    /// The star's fitted min (scaler statistics).
    pub scaler_min: f32,
    /// The star's fitted range (scaler statistics).
    pub scaler_range: f32,
    /// The star's adapter head, `None` when `adapter_rank == 0`.
    pub adapter: Option<StarAdapter>,
}

impl StarDelta {
    /// Serialized size of this delta in bytes.
    pub fn delta_bytes(&self) -> usize {
        2 * std::mem::size_of::<f32>()
            + self.adapter.as_ref().map_or(0, StarAdapter::delta_bytes)
    }
}

impl Detector for Aero {
    fn name(&self) -> String {
        "AERO".into()
    }

    fn fit(&mut self, train: &MultivariateSeries) -> DetectorResult<()> {
        if train.len() < self.config.window + 1 {
            return Err(DetectorError::Invalid(format!(
                "training series of length {} too short for W={}",
                train.len(),
                self.config.window
            )));
        }
        self.scaler = MinMaxScaler::new();
        self.scaler.fit(train);
        let scaled = self.scaler.transform(train)?;

        self.build_modules(train.num_variates())?;

        self.train_stage1(&scaled)?;
        self.train_stage2(&scaled)?;
        self.trained = true;
        Ok(())
    }

    fn score(&mut self, series: &MultivariateSeries) -> DetectorResult<Matrix> {
        let pending = self.score_stage1(series, None)?;
        self.score_stage2(pending)
    }

    fn warmup(&self) -> usize {
        self.config.window.saturating_sub(self.omega())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphMode;
    use aero_datagen::SyntheticConfig;

    fn tiny_dataset() -> aero_timeseries::Dataset {
        SyntheticConfig::tiny(11).build()
    }

    #[test]
    fn fit_then_score_shapes() {
        let ds = tiny_dataset();
        let mut aero = Aero::new(AeroConfig::tiny()).unwrap();
        aero.fit(&ds.train).unwrap();
        assert!(aero.is_trained());
        assert!(aero.num_parameters() > 0);
        let scores = aero.score(&ds.test).unwrap();
        assert_eq!(scores.shape(), (ds.num_variates(), ds.test.len()));
        assert!(!scores.has_non_finite());
    }

    #[test]
    fn score_before_fit_errors() {
        let ds = tiny_dataset();
        let mut aero = Aero::new(AeroConfig::tiny()).unwrap();
        assert!(aero.score(&ds.test).is_err());
    }

    #[test]
    fn short_training_series_rejected() {
        let mut aero = Aero::new(AeroConfig::tiny()).unwrap();
        let short = MultivariateSeries::regular(aero_tensor::Matrix::zeros(2, 10));
        assert!(aero.fit(&short).is_err());
    }

    #[test]
    fn stage_losses_decrease() {
        let ds = tiny_dataset();
        let mut cfg = AeroConfig::tiny();
        cfg.max_epochs = 4;
        let mut aero = Aero::new(cfg).unwrap();
        aero.fit(&ds.train).unwrap();
        assert!(aero.stage1_history.epochs() >= 2);
        assert!(aero.stage1_history.improved(), "{:?}", aero.stage1_history);
        assert!(aero.stage2_history.epochs() >= 1);
    }

    #[test]
    fn warmup_matches_window_difference() {
        let cfg = AeroConfig::tiny();
        let aero = Aero::new(cfg.clone()).unwrap();
        assert_eq!(aero.warmup(), cfg.window - cfg.short_window);
    }

    #[test]
    fn ablation_variants_all_run() {
        let ds = tiny_dataset();
        let variants: Vec<AeroConfig> = vec![
            // 1i: w/o temporal
            AeroConfig { use_temporal: false, ..AeroConfig::tiny() },
            // 1ii: multivariate input
            AeroConfig { univariate_input: false, ..AeroConfig::tiny() },
            // 2i: w/o noise module
            AeroConfig { use_noise_module: false, ..AeroConfig::tiny() },
            // 2iii: static graph
            AeroConfig { graph_mode: GraphMode::StaticComplete, ..AeroConfig::tiny() },
            // 2iv: dynamic graph
            AeroConfig { graph_mode: GraphMode::DynamicEwma { beta: 0.9 }, ..AeroConfig::tiny() },
        ];
        for cfg in variants {
            let mut aero = Aero::new(cfg).unwrap();
            aero.fit(&ds.train).unwrap();
            let scores = aero.score(&ds.test).unwrap();
            assert!(!scores.has_non_finite());
        }
    }

    #[test]
    fn window_graph_is_square() {
        let ds = tiny_dataset();
        let mut aero = Aero::new(AeroConfig::tiny()).unwrap();
        aero.fit(&ds.train).unwrap();
        let g = aero
            .window_graph(&ds.test, ds.test.len() - 1)
            .unwrap();
        assert_eq!(g.shape(), (ds.num_variates(), ds.num_variates()));
    }

    #[test]
    fn score_with_modes_degrades_per_star() {
        let ds = tiny_dataset();
        let n = ds.num_variates();
        let mut aero = Aero::new(AeroConfig::tiny()).unwrap();
        aero.fit(&ds.train).unwrap();
        let full = aero.score(&ds.test).unwrap();

        // All-Full must be bitwise identical to the plain scoring path.
        let modes = vec![ScoreMode::Full; n];
        let same = aero.score_with_modes(&ds.test, &modes).unwrap();
        assert_eq!(full.as_slice(), same.as_slice());

        // Mixed: star 0 skipped, star 1 stage-1 only, the rest full.
        let mut modes = vec![ScoreMode::Full; n];
        modes[0] = ScoreMode::Skip;
        modes[1] = ScoreMode::Stage1;
        let mixed = aero.score_with_modes(&ds.test, &modes).unwrap();
        assert_eq!(mixed.shape(), full.shape());
        assert!(mixed.row(0).iter().all(|&s| s == 0.0), "skipped star scores 0");
        assert!(!mixed.has_non_finite());

        // All stars off Full skips the GCN and scores |E| / zeros only.
        let stage1_only = vec![ScoreMode::Stage1; n];
        let e_scores = aero.score_with_modes(&ds.test, &stage1_only).unwrap();
        assert!(!e_scores.has_non_finite());
        let (expected_e, _) = aero.stage_scores(&ds.test).unwrap();
        // stage_scores applies no smoothing; compare only when disabled.
        if aero.config().score_smoothing <= 1 {
            assert_eq!(e_scores.as_slice(), expected_e.as_slice());
        }

        // Mode-count mismatch is rejected.
        assert!(aero.score_with_modes(&ds.test, &modes[..1]).is_err());
    }

    #[test]
    fn stage_scores_cover_post_warmup_region() {
        let ds = tiny_dataset();
        let mut aero = Aero::new(AeroConfig::tiny()).unwrap();
        aero.fit(&ds.train).unwrap();
        let (e, r) = aero.stage_scores(&ds.test).unwrap();
        assert_eq!(e.shape(), r.shape());
        let warm = aero.warmup();
        // After warmup, at least some scores should be non-zero.
        let nonzero = (warm..ds.test.len()).any(|t| e.get(0, t) > 0.0);
        assert!(nonzero);
    }
}
