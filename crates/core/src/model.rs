//! The AERO detector: two-stage offline training (Algorithm 1) and online
//! scoring (Algorithm 2), wired behind the common [`Detector`] interface.
//!
//! Scoring cuts a series into half-overlapping short windows and runs each
//! one end to end — Stage-1 error `E`, then the Stage-2 residual `R` — and
//! min-folds it into the score matrix as soon as it is done. A pass
//! therefore holds a pool's width of windows, not the whole series, which
//! is what keeps calibration over a night's training frames bounded; the
//! streaming push is the same pass over a single window.

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

/// Fault-injection hook for chaos testing: called with the variate index
/// before that star's Stage-1 work — per star inside each Stage-1 training
/// shard, and per star as scoring stacks its window into the batched pass
/// (again for each star the per-star fallback re-runs alone). The
/// crash-recovery suite installs hooks that panic or stall for chosen stars
/// to prove isolation on the scoring path production runs; production leaves
/// it unset, where it costs one `Option` check per star.
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

impl SupervisionCell {
    /// Locks the failure slots, recovering from a poisoned lock (every
    /// write is a single slot store, so no partial update can be seen).
    fn lock_failures(&self) -> std::sync::MutexGuard<'_, Vec<Option<ShardFailure>>> {
        self.failures.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Scores star `v` as a batch of one under its supervisor unit and lands
    /// its error row in `e`; a failure leaves the row zero and is recorded.
    fn score_alone(
        &self,
        v: usize,
        e: &mut Matrix,
        y: &Matrix,
        reconstruct: impl Fn(&[usize]) -> DetectorResult<Matrix>,
    ) {
        let star = std::slice::from_ref(&v);
        match self.sup.run(v, || reconstruct(star)) {
            Ok(recon) => write_errors(e, y, star, &recon),
            Err(failure) => {
                if let Some(slot) = self.lock_failures().get_mut(v) {
                    *slot = Some(failure);
                }
            }
        }
    }
}

/// Recycled `Vec` spines for the streaming score hot path (the matrix
/// payloads inside them come from the tensor workspace pool regardless).
/// Kept behind a mutex because Stage-1 scores with `&self`; the lock is
/// uncontended — each pass takes a spine out or hands one back and releases
/// immediately.
#[derive(Debug, Default)]
struct ScoreScratch {
    ends: Vec<usize>,
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

    /// Arms supervised scoring: until [`Aero::end_supervised`], Stage-1
    /// scoring isolates each star under `supervisor` unit `v` (panic
    /// capture, deadline, retry, breaker; see [`Aero::window_errors_batched`])
    /// and zero-fills a failed star's row instead of propagating — adapter
    /// heads included. Any previous context is discarded, so
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

    /// Inter-observation intervals `Δ_t` for the long window ending at `end`.
    ///
    /// Positions are *window-relative* (`0..W`): every window sees the same
    /// positional ramp, so scoring positions beyond the training range stays
    /// in-distribution, and the temporal module holds their embedding basis.
    /// The irregular-sampling information enters through the real intervals
    /// (Eq. 1's learnable phase shift), taken from the actual timestamps.
    fn window_times(series: &MultivariateSeries, end: usize, w: usize) -> Vec<f32> {
        let ts = series.timestamps();
        (end + 1 - w..=end)
            .map(|t| if t == 0 { 0.0 } else { (ts[t] - ts[t - 1]) as f32 })
            .collect()
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
    /// Stars whose supervised Stage-1 failed keep their zero row: it feeds
    /// every neighbour's Stage-2 graph, which must see the star as absent.
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
        let failures = self.supervision.as_ref().map(SupervisionCell::lock_failures);
        for v in 0..e.rows() {
            if skip.is_some_and(|s| s.get(v).copied().unwrap_or(false))
                || failures.as_ref().is_some_and(|f| f.get(v).is_some_and(Option::is_some))
            {
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
    /// With univariate input, Stage-1 has one scoring path: the batched
    /// cross-star forward ([`Aero::window_errors_batched`]), which also
    /// isolates per-star failures when scoring runs supervised.
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
        let deltas = Self::window_times(scaled, end, w);

        if self.config.univariate_input {
            return self.window_errors_batched(temporal, &x, &y, &deltas, skip);
        }
        let n = scaled.num_variates();
        let long = x.transpose(); // W × N tokens
        let short = y.transpose();
        let mut g = Graph::new();
        let out = temporal.reconstruct(&mut g, &self.store, &long, &short, &deltas)?;
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

    /// Univariate Stage-1 error matrix: the active stars' windows stacked
    /// row-wise into one `(A·W) × 1` / `(A·ω) × 1` pair — the chaos hook
    /// firing for each star as it is stacked — and reconstructed in a single
    /// tape-free forward, one GEMM per layer instead of A small ones.
    /// Skipped stars keep zero rows and never enter the stack.
    ///
    /// Unsupervised (offline) scoring needs no fallback: a panic unwinds to
    /// the window's boundary in [`Aero::for_each_window`], which reports it
    /// as that window's typed error. Supervised (streaming) scoring isolates
    /// each star under its supervisor unit `v`:
    ///
    /// * a star whose breaker is open never enters the batch — it gets its
    ///   one `run` per frame as a batch of one, which short-circuits it or
    ///   admits its half-open probe;
    /// * the batched pass runs inside a panic boundary and, with a policy
    ///   deadline `d`, a budget of `d ×` its star count (the sum of the
    ///   per-star budgets it replaces; no clock is read without one). A
    ///   panic or a blown budget re-runs each batched star alone under
    ///   `run(v, …)`: a failing star gets a zero row and a recorded failure,
    ///   every other row is bitwise what the batch gives. The batched
    ///   attempt is not a supervisor unit; only the re-runs are counted;
    /// * a successful batch resets each batched star's consecutive-failure
    ///   count, as a first-try `run` does;
    /// * a typed error is a shape or structure bug and propagates;
    ///   non-finite rows are not re-run — a batch of one would reproduce
    ///   them bit for bit — and the online layer clamps and counts them.
    fn window_errors_batched(
        &self,
        temporal: &TemporalModule,
        x: &Matrix,
        y: &Matrix,
        deltas: &[f32],
        skip: Option<&[bool]>,
    ) -> DetectorResult<Matrix> {
        let (n, w, omega) = (x.rows(), x.cols(), y.cols());
        let is_skipped = |v: usize| skip.is_some_and(|s| s.get(v).copied().unwrap_or(false));
        // Block `b` of the result is star `stars[b]`'s reconstruction,
        // bitwise the same whatever else shares the batch.
        let reconstruct = |stars: &[usize]| {
            let mut long = Matrix::zeros(stars.len() * w, 1);
            let mut short = Matrix::zeros(stars.len() * omega, 1);
            for (b, &v) in stars.iter().enumerate() {
                if let Some(hook) = &self.chaos_hook {
                    hook.fire(v);
                }
                long.as_mut_slice()[b * w..(b + 1) * w].copy_from_slice(x.row(v));
                short.as_mut_slice()[b * omega..(b + 1) * omega].copy_from_slice(y.row(v));
            }
            temporal.reconstruct_batched(&self.store, &long, &short, deltas, stars.len())
        };
        let mut e = Matrix::zeros(n, omega);
        let cell = self.supervision.as_ref();
        let mut stars = Vec::with_capacity(n);
        for v in (0..n).filter(|&v| !is_skipped(v)) {
            match cell {
                Some(cell) if cell.sup.is_open(v) => cell.score_alone(v, &mut e, y, reconstruct),
                _ => stars.push(v),
            }
        }
        if stars.is_empty() {
            return Ok(e);
        }
        let Some(cell) = cell else {
            write_errors(&mut e, y, &stars, &reconstruct(&stars)?);
            return Ok(e);
        };
        let budget = cell.sup.policy().deadline.map(|d| {
            let per_batch = d.saturating_mul(u32::try_from(stars.len()).unwrap_or(u32::MAX));
            (per_batch, std::time::Instant::now())
        });
        let batched =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reconstruct(&stars)));
        let late = budget.is_some_and(|(per_batch, start)| start.elapsed() > per_batch);
        match batched {
            Ok(Ok(recon)) if !late => {
                for &v in &stars {
                    cell.sup.record_success(v);
                }
                write_errors(&mut e, y, &stars, &recon);
            }
            Ok(Err(err)) => return Err(err),
            _ => {
                for &v in &stars {
                    cell.score_alone(v, &mut e, y, reconstruct);
                }
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
                let deltas = Self::window_times(scaled, end, w);
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
                                    let out =
                                        temporal.reconstruct(&mut g, store, &long, &short, &deltas)?;
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
                    let out = temporal.reconstruct(&mut g, &self.store, &long, &short, &deltas)?;
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

    /// One scoring window end to end: the Stage-1 error `E` for the window
    /// ending at `end` of an already-scaled series, then its Stage-2
    /// residual `R = Y − Ŷ₁ − Ŷ₂`. `R` is `None` when Stage 2 does not run
    /// (no noise module, or a degraded pass with no `Full` star left, whose
    /// residual nobody would read): the residual is then `E` itself.
    ///
    /// Takes the graph builder explicitly so stateless graph modes can score
    /// windows in parallel with per-window builder clones, while the EWMA
    /// mode threads one builder through the windows sequentially.
    fn window_residual(
        &self,
        scaled: &MultivariateSeries,
        end: usize,
        graphs: &mut GraphBuilder,
        skip: Option<&[bool]>,
        run_stage2: bool,
    ) -> DetectorResult<(Matrix, Option<Matrix>)> {
        let e = self.window_errors_internal(scaled, end, skip)?;
        let Some(gcn) = self.gcn.as_ref().filter(|_| run_stage2) else {
            return Ok((e, None));
        };
        let omega = self.omega();
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
        Ok((e, Some(residual)))
    }

    /// Runs every scoring window of `scaled` end to end and hands each one's
    /// `(end, E, R)` to `fold` in window order as soon as it is scored, so a
    /// pass holds at most a pool's width of windows, never the whole series.
    ///
    /// Stateless graph modes (window-wise, static) score windows in groups
    /// of [`aero_parallel::max_threads`] under `supervised_map`, one window
    /// per worker with its own builder clone; a group of one runs on the
    /// caller (the streaming push). The dynamic-EWMA mode is inherently
    /// sequential (each window's adjacency depends on the previous one), so
    /// it threads one builder through the windows serially. Every window
    /// runs under a panic boundary either way: a panic becomes the typed
    /// supervision error for that window's index, never an unwind. Folding
    /// in window order makes the result independent of the thread count.
    fn for_each_window(
        &mut self,
        scaled: &MultivariateSeries,
        ends: &[usize],
        skip: Option<&[bool]>,
        run_stage2: bool,
        mut fold: impl FnMut(usize, &Matrix, &Matrix),
    ) -> DetectorResult<()> {
        self.graphs.reset();
        let this = &*self;
        if this.graphs.is_stateful() {
            let mut graphs = this.graphs.clone();
            for (i, &end) in ends.iter().enumerate() {
                let (e, r) = catch_window(i, || {
                    this.window_residual(scaled, end, &mut graphs, skip, run_stage2)
                })?;
                fold(end, &e, r.as_ref().unwrap_or(&e));
            }
            self.graphs = graphs;
            return Ok(());
        }
        let one = |end: usize| {
            let mut graphs = this.graphs.clone();
            this.window_residual(scaled, end, &mut graphs, skip, run_stage2)
        };
        let width = aero_parallel::max_threads();
        for (base, group) in (0..).step_by(width).zip(ends.chunks(width)) {
            if let [end] = *group {
                let (e, r) = catch_window(base, || one(end))?;
                fold(end, &e, r.as_ref().unwrap_or(&e));
                continue;
            }
            let results = aero_parallel::supervised_map(group, |_, &end| one(end));
            for (&end, result) in group.iter().zip(results) {
                let (e, r) = result.map_err(|mut err| {
                    err.shard += base;
                    DetectorError::from(err)
                })??;
                fold(end, &e, r.as_ref().unwrap_or(&e));
            }
        }
        Ok(())
    }

    /// One scoring pass: scales `series`, scores every window end to end
    /// and min-folds each into the `N × len` score matrix as it finishes
    /// (mode-aware: `Full` stars take `|R|`, `Stage1` stars `|E|`, `Skip`
    /// stars are never folded), then zeroes unscored (warmup) columns and
    /// applies score smoothing. `modes = None` is an undegraded pass.
    ///
    /// Only columns `first..` must come out exact, so a window none of
    /// whose columns those need is never scored (see
    /// [`Aero::score_ends`]); earlier columns keep whatever the remaining
    /// windows fold into them.
    fn score_pass(
        &mut self,
        series: &MultivariateSeries,
        modes: Option<&[ScoreMode]>,
        first: usize,
    ) -> DetectorResult<Matrix> {
        if !self.trained {
            return Err(DetectorError::Invalid("call fit() first".into()));
        }
        let n = series.num_variates();
        if let Some(modes) = modes {
            if modes.len() != n {
                return Err(DetectorError::Invalid(format!(
                    "{} score modes for {n} variates",
                    modes.len()
                )));
            }
        }
        let ts_spine = std::mem::take(&mut self.scratch_lock().timestamps);
        let scaled = self.scaler.transform_reusing(series, ts_spine)?;
        let skip: Option<Vec<bool>> =
            modes.map(|m| m.iter().map(|mode| *mode == ScoreMode::Skip).collect());
        let run_stage2 = modes.is_none_or(|m| m.contains(&ScoreMode::Full));
        let omega = self.omega();
        let mut ends = self.score_ends(scaled.len(), first);
        let mut scores = Matrix::full(n, scaled.len(), f32::INFINITY);
        let folded =
            self.for_each_window(&scaled, &ends, skip.as_deref(), run_stage2, |end, e, r| {
                let start = end + 1 - omega;
                for v in 0..n {
                    match modes.map_or(ScoreMode::Full, |m| m[v]) {
                        ScoreMode::Full => fold_min(&mut scores, v, start, r.row(v)),
                        ScoreMode::Stage1 => fold_min(&mut scores, v, start, e.row(v)),
                        ScoreMode::Skip => {} // stays ∞, zeroed below
                    }
                }
            });
        // Hand the spines back for the next push, whether or not it scored.
        let (_values, mut ts) = scaled.into_parts();
        ts.clear();
        ends.clear();
        let mut scratch = self.scratch_lock();
        scratch.ends = ends;
        scratch.timestamps = ts;
        drop(scratch);
        folded?;
        zero_unscored(&mut scores);
        if self.config.score_smoothing > 1 {
            let w = self.config.score_smoothing;
            let warm = self.warmup();
            for v in 0..n {
                let smoothed =
                    aero_timeseries::stats::moving_average(&scores.row(v)[warm..], w);
                scores.row_mut(v)[warm..].copy_from_slice(&smoothed);
            }
        }
        Ok(scores)
    }

    /// Scoring window end indices: the first full window, then steps of
    /// `ω/2` (half-overlapping short windows), plus a final tail window.
    /// Each column is scored by up to two window contexts; the residuals
    /// are min-combined, so a concurrent-noise event clipped at one block
    /// boundary still gets fully reconstructed by the neighbouring context.
    ///
    /// A pass that must get only columns `first..` exact keeps the grid
    /// where it is and drops the windows that reach no needed column:
    ///
    /// * a column's score is the min over the short windows covering it,
    ///   which all end at or after it;
    /// * a smoothed column (`score_smoothing > 1`) averages the columns up
    ///   to half the smoothing width either side, so the needed columns
    ///   start that much earlier;
    /// * the dynamic-EWMA graph carries adjacency state from window to
    ///   window, so every window's score depends on all earlier ones and
    ///   the whole grid runs.
    fn score_ends(&self, len: usize, first: usize) -> Vec<usize> {
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
        if !self.graphs.is_stateful() {
            let needed = first.saturating_sub(self.config.score_smoothing / 2);
            ends.retain(|&end| end >= needed);
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
        let ends = self.score_ends(len, 0);
        self.for_each_window(&scaled, &ends, None, true, |end, e, r| {
            let start = end + 1 - omega;
            for v in 0..n {
                fold_min(&mut e_scores, v, start, e.row(v));
                fold_min(&mut r_scores, v, start, r.row(v));
            }
        })?;
        zero_unscored(&mut e_scores);
        zero_unscored(&mut r_scores);
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
        self.score_pass(series, Some(modes), 0)
    }
}

/// Runs one scoring window, converting a panic into the typed supervision
/// error `supervised_map` reports for item `index`.
fn catch_window<R>(index: usize, f: impl FnOnce() -> DetectorResult<R>) -> DetectorResult<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(DetectorError::from(aero_parallel::ShardError {
            shard: index,
            message: aero_parallel::panic_message(payload),
        }))
    })
}

/// Lands `E = Y − Ŷ₁` in row `stars[b]` of `e` for each block `b` of the
/// batched reconstruction `recon`.
fn write_errors(e: &mut Matrix, y: &Matrix, stars: &[usize], recon: &Matrix) {
    let omega = y.cols();
    for (b, &v) in stars.iter().enumerate() {
        for t in 0..omega {
            e.set(v, t, y.get(v, t) - recon.get(b * omega + t, 0));
        }
    }
}

/// Min-folds one window row of `|·|` values into row `v` of `scores` from
/// column `start` on. `min` is exact, so the fold order of windows that
/// overlap a column cannot change its value.
fn fold_min(scores: &mut Matrix, v: usize, start: usize, window_row: &[f32]) {
    let row = &mut scores.row_mut(v)[start..start + window_row.len()];
    for (cur, x) in row.iter_mut().zip(window_row) {
        *cur = cur.min(x.abs());
    }
}

/// Zeroes the cells no window scored: they are still `∞` after the fold
/// (warmup columns and `Skip` stars).
fn zero_unscored(scores: &mut Matrix) {
    for v in scores.as_mut_slice() {
        if v.is_infinite() {
            *v = 0.0;
        }
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

    /// The fitted scaler (used by persistence).
    pub(crate) fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// The per-star adapter heads (`None` when `adapter_rank == 0`).
    pub fn adapters(&self) -> Option<&AdapterSet> {
        self.adapters.as_ref()
    }

    /// Mutable adapter access (persistence / snapshot install paths).
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
                let deltas = Self::window_times(&scaled, end, w);
                let long = Matrix::col_vector(x.row(v));
                let short = Matrix::col_vector(y.row(v));
                let mut g = Graph::new();
                let out = temporal.reconstruct(&mut g, &self.store, &long, &short, &deltas)?;
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
    /// kilobyte-scale unit that v3 checkpoints and shard snapshots move.
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
/// the unit v3 checkpoints store per star and shard snapshots carry.
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
        self.score_pass(series, None, 0)
    }

    fn score_from(&mut self, series: &MultivariateSeries, first: usize) -> DetectorResult<Matrix> {
        self.score_pass(series, None, first)
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
    fn scoring_panics_are_typed_errors_in_every_graph_mode() {
        let ds = tiny_dataset();
        for graph_mode in [
            GraphMode::WindowWise,
            GraphMode::StaticComplete,
            GraphMode::DynamicEwma { beta: 0.9 },
        ] {
            let cfg = AeroConfig { graph_mode, max_epochs: 1, ..AeroConfig::tiny() };
            let mut aero = Aero::new(cfg).unwrap();
            aero.fit(&ds.train).unwrap();
            aero.set_chaos_hook(Some(ChaosHook::new(|v| {
                if v == 1 {
                    panic!("chaos: star 1");
                }
            })));
            let err = aero.score(&ds.test).expect_err("a panicking star must fail the pass");
            assert!(
                matches!(err, DetectorError::Supervision(_)),
                "{graph_mode:?}: {err:?}"
            );
            // A cleared hook scores normally again.
            aero.set_chaos_hook(None);
            assert!(aero.score(&ds.test).is_ok(), "{graph_mode:?}");
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
