//! Temporal reconstruction module (paper §III-C, Fig. 4b).
//!
//! A Transformer encoder-decoder applied (by default) independently to each
//! variate: the encoder reads the long window `W` for context, the decoder
//! reconstructs the short window `ω` through cross-attention, and a
//! sigmoid-terminated FFN emits the normalized reconstruction `Ŷ₁`.
//!
//! Positions are window-relative (`0..W`), the same for every window, so the
//! sin/cos basis of the time embedding's positional phase is built once, when
//! the module is, and every forward pass reads it.

use aero_nn::{Activation, DecoderLayer, EncoderLayer, Linear, PositionBasis, TimeEmbedding};
use aero_tensor::{Graph, Matrix, NodeId, ParamId, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::AeroConfig;
use crate::detector::{DetectorError, DetectorResult};

/// The temporal reconstruction network. `in_dim` is 1 for the paper's
/// univariate-input mode and `N` for the Table IV "w/o univariate input"
/// ablation.
#[derive(Debug, Clone)]
pub struct TemporalModule {
    enc_embed: Linear,
    dec_embed: Linear,
    time: TimeEmbedding,
    encoders: Vec<EncoderLayer>,
    decoder: DecoderLayer,
    out_hidden: Linear,
    out_proj: Linear,
    in_dim: usize,
    /// Time-embedding basis of the long window, positions `0..W`.
    long_basis: PositionBasis,
    /// Its trailing `ω` rows: the short window's positions `W−ω..W`.
    short_basis: PositionBasis,
}

impl TemporalModule {
    /// Registers all parameters in `store`. `in_dim` is the token width.
    pub fn new(
        store: &mut ParamStore,
        config: &AeroConfig,
        in_dim: usize,
        seed: u64,
    ) -> DetectorResult<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = config.d_model;
        let enc_embed = Linear::new(store, "temporal.enc_embed", in_dim, d, Activation::Identity, &mut rng);
        let dec_embed = Linear::new(store, "temporal.dec_embed", in_dim, d, Activation::Identity, &mut rng);
        let time = TimeEmbedding::new(store, "temporal.time", d, &mut rng);
        let encoders = (0..config.encoder_layers)
            .map(|i| EncoderLayer::new(store, &format!("temporal.enc{i}"), d, config.heads, config.d_ff, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        let decoder = DecoderLayer::new(store, "temporal.dec", d, config.heads, &mut rng)?;
        let out_hidden = Linear::new(store, "temporal.out1", d, config.d_ff, Activation::Relu, &mut rng);
        let out_proj = Linear::new(store, "temporal.out2", config.d_ff, in_dim, Activation::Identity, &mut rng);
        let positions: Vec<f32> = (0..config.window).map(|i| i as f32).collect();
        let long_basis = time.basis(&positions);
        let short_basis = long_basis.tail(config.effective_short_window())?;
        Ok(Self {
            enc_embed,
            dec_embed,
            time,
            encoders,
            decoder,
            out_hidden,
            out_proj,
            in_dim,
            long_basis,
            short_basis,
        })
    }

    /// Token width (1 = univariate mode).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// All parameter ids (for stage-2 freezing).
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.enc_embed.param_ids();
        ids.extend(self.dec_embed.param_ids());
        ids.extend(self.time.param_ids());
        for e in &self.encoders {
            ids.extend(e.param_ids());
        }
        ids.extend(self.decoder.param_ids());
        ids.extend(self.out_hidden.param_ids());
        ids.extend(self.out_proj.param_ids());
        ids
    }

    /// Checks a window pair against the module's basis: `W` long rows, `ω`
    /// short rows and one interval per long row.
    fn check_windows(&self, w: usize, omega: usize, deltas: &[f32]) -> DetectorResult<()> {
        if w != self.long_basis.len() || omega != self.short_basis.len() {
            return Err(DetectorError::Invalid(format!(
                "windows of {w}/{omega} rows for a module built for W={}/ω={}",
                self.long_basis.len(),
                self.short_basis.len()
            )));
        }
        if deltas.len() != w {
            return Err(DetectorError::Invalid(format!("need {w} deltas, got {}", deltas.len())));
        }
        Ok(())
    }

    /// Records the reconstruction of one window on the tape.
    ///
    /// * `long` — `W × in_dim` token matrix (Eq. 3's `L_t`, transposed to
    ///   token-major layout).
    /// * `short` — `ω × in_dim` token matrix (`S_t`).
    /// * `deltas` — inter-observation intervals for the long window; the
    ///   short window uses the trailing `ω` entries. Positions are the
    ///   module's fixed `0..W`.
    ///
    /// Returns the `ω × in_dim` reconstruction `Ŷ₁` in `[0, 1]` (Eq. 9–10).
    pub fn reconstruct(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        long: &Matrix,
        short: &Matrix,
        deltas: &[f32],
    ) -> DetectorResult<NodeId> {
        let (w, omega) = (long.rows(), short.rows());
        self.check_windows(w, omega, deltas)?;

        // Input embeddings (Eq. 4): linear projection + time embedding.
        let long_n = g.constant(long.clone());
        let short_n = g.constant(short.clone());
        let te_long = self.time.forward(g, store, &self.long_basis, deltas)?;
        let ie = self.enc_embed.forward(g, store, long_n)?;
        let ie = g.add(ie, te_long)?;
        let te_short = self
            .time
            .forward(g, store, &self.short_basis, &deltas[w - omega..])?;
        let id_ = self.dec_embed.forward(g, store, short_n)?;
        let id_ = g.add(id_, te_short)?;

        // Encoder over the long context (Eq. 7).
        let mut enc = ie;
        for layer in &self.encoders {
            enc = layer.forward(g, store, enc)?;
        }

        // Decoder: short-window queries cross-attend into the encoder (Eq. 8).
        let dec = self.decoder.forward(g, store, id_, enc)?;

        // Output head (Eq. 9): Sigmoid(FFN(O'_D)).
        let h = self.out_hidden.forward(g, store, dec)?;
        let o = self.out_proj.forward(g, store, h)?;
        Ok(g.sigmoid(o)?)
    }

    /// Batched tape-free reconstruction of `blocks` windows at once.
    ///
    /// * `long` — `(blocks·W) × in_dim`: each block's long window stacked
    ///   row-wise.
    /// * `short` — `(blocks·ω) × in_dim`, same block order.
    /// * `deltas` — shared by all blocks (the batched caller stacks windows
    ///   from the *same frame*, so the time axis is common).
    ///
    /// Returns the `(blocks·ω) × in_dim` reconstruction, block *b*'s rows
    /// at `b·ω .. (b+1)·ω` — bitwise identical to `blocks` separate
    /// [`reconstruct`](Self::reconstruct) calls, because every projection
    /// GEMM preserves per-row accumulation order under row stacking,
    /// residual adds / layer norms / the output head are row-independent,
    /// and attention is evaluated block-diagonally on row slices. The time
    /// embedding depends only on the shared time axis, so it is computed
    /// once and tiled across blocks.
    pub fn reconstruct_batched(
        &self,
        store: &ParamStore,
        long: &Matrix,
        short: &Matrix,
        deltas: &[f32],
        blocks: usize,
    ) -> DetectorResult<Matrix> {
        if blocks == 0 {
            return Err(DetectorError::Invalid("batched reconstruct needs ≥ 1 block".into()));
        }
        let w = long.rows() / blocks;
        let omega = short.rows() / blocks;
        if long.rows() != w * blocks || short.rows() != omega * blocks {
            return Err(DetectorError::Invalid(format!(
                "stacked rows {}/{} not divisible by {blocks} blocks",
                long.rows(),
                short.rows()
            )));
        }
        self.check_windows(w, omega, deltas)?;

        // Input embeddings: stacked projection GEMMs + the shared time
        // embedding tiled per block (elementwise add is tiling-safe).
        let te_long = self.time.forward_value(store, &self.long_basis, deltas)?;
        let te_long = aero_tensor::forward::tile_rows(&te_long, blocks);
        let ie = self.enc_embed.forward_value(store, long)?.add(&te_long)?;
        let te_short = self
            .time
            .forward_value(store, &self.short_basis, &deltas[w - omega..])?;
        let te_short = aero_tensor::forward::tile_rows(&te_short, blocks);
        let id_ = self.dec_embed.forward_value(store, short)?.add(&te_short)?;

        let mut enc = ie;
        for layer in &self.encoders {
            enc = layer.forward_batched(store, &enc, w, blocks)?;
        }

        let dec = self.decoder.forward_batched(store, &id_, &enc, omega, w, blocks)?;

        let h = self.out_hidden.forward_value(store, &dec)?;
        let o = self.out_proj.forward_value(store, &h)?;
        Ok(aero_tensor::forward::sigmoid(&o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(in_dim: usize) -> (TemporalModule, ParamStore, AeroConfig) {
        let cfg = AeroConfig::tiny();
        let mut store = ParamStore::new();
        let m = TemporalModule::new(&mut store, &cfg, in_dim, 42).unwrap();
        (m, store, cfg)
    }

    #[test]
    fn reconstruction_has_short_window_shape() {
        let (m, store, cfg) = module(1);
        let w = cfg.window;
        let omega = cfg.short_window;
        let long = Matrix::from_fn(w, 1, |r, _| (r as f32 / w as f32).sin() * 0.5 + 0.5);
        let short = long.slice_rows(w - omega, omega).unwrap();
        let deltas = vec![1.0f32; w];
        let mut g = Graph::new();
        let out = m
            .reconstruct(&mut g, &store, &long, &short, &deltas)
            .unwrap();
        let v = g.value(out).unwrap();
        assert_eq!(v.shape(), (omega, 1));
        // Sigmoid output stays in (0, 1).
        assert!(v.as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn multivariate_mode_emits_all_variates() {
        let (m, store, cfg) = module(3);
        let w = cfg.window;
        let omega = cfg.short_window;
        let long = Matrix::from_fn(w, 3, |r, c| ((r + c) as f32 * 0.1).cos() * 0.4 + 0.5);
        let short = long.slice_rows(w - omega, omega).unwrap();
        let deltas = vec![1.0f32; w];
        let mut g = Graph::new();
        let out = m
            .reconstruct(&mut g, &store, &long, &short, &deltas)
            .unwrap();
        assert_eq!(g.value(out).unwrap().shape(), (omega, 3));
    }

    #[test]
    fn rejects_windows_off_the_basis() {
        let (m, store, cfg) = module(1);
        let w = cfg.window;
        let short = Matrix::zeros(cfg.short_window, 1);
        let mut g = Graph::new();
        let deltas = vec![1.0f32; w];
        let bad_deltas = vec![1.0f32; w - 1];
        let (long, longer) = (Matrix::zeros(w, 1), Matrix::zeros(w + 1, 1));
        assert!(m.reconstruct(&mut g, &store, &long, &short, &bad_deltas).is_err());
        assert!(m.reconstruct(&mut g, &store, &longer, &short, &vec![1.0; w + 1]).is_err());
        assert!(m.reconstruct_batched(&store, &long, &short, &bad_deltas, 1).is_err());
        assert!(m.reconstruct(&mut g, &store, &long, &short, &deltas).is_ok());
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let (m, mut store, cfg) = module(1);
        let w = cfg.window;
        let omega = cfg.short_window;
        // A clean sinusoid in [0,1].
        let long = Matrix::from_fn(w, 1, |r, _| (r as f32 * 0.3).sin() * 0.4 + 0.5);
        let short = long.slice_rows(w - omega, omega).unwrap();
        let deltas = vec![1.0f32; w];
        let mut opt = aero_tensor::Adam::new(2e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            store.zero_grads();
            let mut g = Graph::new();
            let out = m
            .reconstruct(&mut g, &store, &long, &short, &deltas)
            .unwrap();
            let loss = g.mse_loss(out, &short).unwrap();
            last = g.value(loss).unwrap().scalar_value().unwrap();
            if first.is_none() {
                first = Some(last);
            }
            g.backward(loss, &mut store).unwrap();
            opt.step(&mut store).unwrap();
        }
        assert!(
            last < first.unwrap() * 0.8,
            "loss did not drop: {} → {last}",
            first.unwrap()
        );
    }
}
