//! Transformer encoder/decoder blocks (post-norm, as in the AERO paper's
//! Eq. 7–8) and the sinusoidal/irregular-interval time embedding (Eq. 1).

use std::sync::Arc;

use aero_tensor::{Graph, Matrix, NodeId, ParamId, ParamStore, Result, TensorError};
use rand::Rng;

use crate::attention::MultiHeadAttention;
use crate::linear::{FeedForward, LayerNorm};

/// One encoder layer: `O = LN(M + FFN(M))`, `M = LN(x + MHA(x,x,x))`.
#[derive(Debug, Clone)]
pub struct EncoderLayer {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    norm1: LayerNorm,
    norm2: LayerNorm,
}

impl EncoderLayer {
    /// Registers one encoder layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        heads: usize,
        d_ff: usize,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        Ok(Self {
            attn: MultiHeadAttention::new(store, &format!("{name}.mha"), d_model, heads, rng)?,
            ffn: FeedForward::new(store, name, d_model, d_ff, rng),
            norm1: LayerNorm::new(store, &format!("{name}.ln1"), d_model),
            norm2: LayerNorm::new(store, &format!("{name}.ln2"), d_model),
        })
    }

    /// Parameter ids owned by this layer.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.attn.param_ids();
        ids.extend(self.ffn.param_ids());
        ids.extend(self.norm1.param_ids());
        ids.extend(self.norm2.param_ids());
        ids
    }

    /// Forward pass over a `seq × d_model` input.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> Result<NodeId> {
        let a = self.attn.forward(g, store, x, x, x)?;
        let res = g.add(x, a)?;
        let m = self.norm1.forward(g, store, res)?;
        let f = self.ffn.forward(g, store, m)?;
        let res2 = g.add(m, f)?;
        self.norm2.forward(g, store, res2)
    }

    /// Tape-free forward over `blocks` independent sequences of
    /// `rows_per_block` rows stacked into one `(blocks·rows) × d_model`
    /// matrix: attention/FFN projections run as stacked GEMMs, residual
    /// adds and layer norms are row-independent, and self-attention stays
    /// block-diagonal — bitwise identical to per-sequence [`forward`](Self::forward).
    pub fn forward_batched(
        &self,
        store: &ParamStore,
        x: &Matrix,
        rows_per_block: usize,
        blocks: usize,
    ) -> Result<Matrix> {
        let a = self.attn.forward_batched(store, x, x, x, rows_per_block, rows_per_block, blocks)?;
        let res = x.add(&a)?;
        let m = self.norm1.forward_value(store, &res)?;
        let f = self.ffn.forward_value(store, &m)?;
        let res2 = m.add(&f)?;
        self.norm2.forward_value(store, &res2)
    }
}

/// One decoder layer: self-attention over the short-window queries, then
/// cross-attention into the encoder output (Eq. 8).
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    self_attn: MultiHeadAttention,
    cross_attn: MultiHeadAttention,
    norm1: LayerNorm,
    norm2: LayerNorm,
}

impl DecoderLayer {
    /// Registers one decoder layer.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        Ok(Self {
            self_attn: MultiHeadAttention::new(store, &format!("{name}.self"), d_model, heads, rng)?,
            cross_attn: MultiHeadAttention::new(
                store,
                &format!("{name}.cross"),
                d_model,
                heads,
                rng,
            )?,
            norm1: LayerNorm::new(store, &format!("{name}.ln1"), d_model),
            norm2: LayerNorm::new(store, &format!("{name}.ln2"), d_model),
        })
    }

    /// Parameter ids owned by this layer.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.self_attn.param_ids();
        ids.extend(self.cross_attn.param_ids());
        ids.extend(self.norm1.param_ids());
        ids.extend(self.norm2.param_ids());
        ids
    }

    /// Forward: `y` is the short-window embedding (`ω × d`), `enc` the
    /// encoder output (`W × d`).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        y: NodeId,
        enc: NodeId,
    ) -> Result<NodeId> {
        let a = self.self_attn.forward(g, store, y, y, y)?;
        let res = g.add(y, a)?;
        let m = self.norm1.forward(g, store, res)?;
        let c = self.cross_attn.forward(g, store, m, enc, enc)?;
        let res2 = g.add(m, c)?;
        self.norm2.forward(g, store, res2)
    }

    /// Tape-free forward over `blocks` stacked sequences: `y` is
    /// `(blocks·q_rows) × d`, `enc` is `(blocks·kv_rows) × d`. Cross
    /// attention pairs block *b* of `y` with block *b* of `enc`.
    pub fn forward_batched(
        &self,
        store: &ParamStore,
        y: &Matrix,
        enc: &Matrix,
        q_rows: usize,
        kv_rows: usize,
        blocks: usize,
    ) -> Result<Matrix> {
        let a = self.self_attn.forward_batched(store, y, y, y, q_rows, q_rows, blocks)?;
        let res = y.add(&a)?;
        let m = self.norm1.forward_value(store, &res)?;
        let c = self.cross_attn.forward_batched(store, &m, enc, enc, q_rows, kv_rows, blocks)?;
        let res2 = m.add(&c)?;
        self.norm2.forward_value(store, &res2)
    }
}

/// Irregular-interval time embedding (AERO Eq. 1):
///
/// `TE_t^j = sin(f^j·pos_t + α_j·Δ_t) + cos(f^j·pos_t + α_j·Δ_t)`
///
/// with fixed frequencies `f^j = 10000^{−j/d_m}` and a learnable phase-shift
/// coefficient `α_j` that encodes the time interval `Δ_t` between successive
/// observations.
///
/// The positional phase `f^j·pos_t` involves no parameter, so its sin/cos
/// live in a [`PositionBasis`] that a caller builds once per position list
/// ([`basis`](Self::basis)) and passes to every forward pass; only the
/// learnable shift `α·Δ` is evaluated per call.
#[derive(Debug, Clone)]
pub struct TimeEmbedding {
    alpha: ParamId,
    d_model: usize,
}

/// The constant half of the time embedding for a fixed list of positions:
/// `sin(f^j·pos_i)` and `cos(f^j·pos_i)` as two `len × d_model` matrices,
/// shared (not copied) by every tape that uses them.
#[derive(Debug, Clone)]
pub struct PositionBasis {
    sin: Arc<Matrix>,
    cos: Arc<Matrix>,
}

impl PositionBasis {
    /// Number of positions (rows).
    pub fn len(&self) -> usize {
        self.sin.rows()
    }

    /// True for a basis over no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The basis of the trailing `rows` positions — bitwise the basis
    /// [`TimeEmbedding::basis`] builds for them, since every entry depends
    /// only on its own position and frequency. More rows than the basis
    /// holds is an index error.
    pub fn tail(&self, rows: usize) -> Result<Self> {
        let start = self.len().saturating_sub(rows);
        Ok(Self {
            sin: Arc::new(self.sin.slice_rows(start, rows)?),
            cos: Arc::new(self.cos.slice_rows(start, rows)?),
        })
    }

    /// Typed check that `deltas` pairs one interval with each position.
    fn check_deltas(&self, deltas: &[f32]) -> Result<()> {
        if deltas.len() != self.len() {
            return Err(TensorError::ShapeMismatch {
                expected: (self.len(), 1),
                got: (deltas.len(), 1),
                op: "time_embedding",
            });
        }
        Ok(())
    }
}

impl TimeEmbedding {
    /// Registers the learnable phase-shift vector `α ∈ R^{d_model}`.
    pub fn new(store: &mut ParamStore, name: &str, d_model: usize, rng: &mut impl Rng) -> Self {
        let alpha = Matrix::from_fn(1, d_model, |_, _| rng.gen_range(-0.1..0.1));
        Self { alpha: store.register(format!("{name}.alpha"), alpha), d_model }
    }

    /// Parameter ids owned by this embedding.
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.alpha]
    }

    /// Embedding width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Builds the sin/cos basis of the positional phase for absolute
    /// positions `positions`.
    pub fn basis(&self, positions: &[f32]) -> PositionBasis {
        let d = self.d_model;
        let mut base = Matrix::zeros(positions.len(), d);
        for (i, &pos) in positions.iter().enumerate() {
            for j in 0..d {
                let freq = (1.0f32 / 10000.0f32.powf(j as f32 / d as f32)) * pos;
                base.set(i, j, freq);
            }
        }
        PositionBasis {
            sin: Arc::new(base.map(f32::sin)),
            cos: Arc::new(base.map(f32::cos)),
        }
    }

    /// Builds the `len × d_model` time-embedding matrix for the positions of
    /// `basis` and inter-observation intervals `deltas` (`deltas[i] = t_i −
    /// t_{i−1}`; pass 1.0 for regular sampling). A `deltas` length other
    /// than the basis's is a [`TensorError::ShapeMismatch`].
    ///
    /// Gradients flow into `α` through the tape (sin/cos of an affine in α
    /// are expressed with `exp`-free trigonometric identities below, so the
    /// phase term is differentiable).
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        basis: &PositionBasis,
        deltas: &[f32],
    ) -> Result<NodeId> {
        basis.check_deltas(deltas)?;
        // TE = sin(b + αΔ) + cos(b + αΔ) with the positional phase `b`
        // constant. Represent the shift Δ·α as the outer product
        // delta_col · α_row on the tape.
        let alpha = g.param(store, self.alpha)?;
        let delta_col = g.constant(Matrix::col_vector(deltas));
        let phase_shift = g.matmul(delta_col, alpha)?; // len × d

        // The tape has no sin/cos ops, so expand with the angle-sum
        // identities: sin/cos of the positional part `b` come from the
        // basis (evaluated exactly off-tape), while sin/cos of the learnable
        // shift `s = α_j·Δ_t` use their small-angle forms sin s ≈ s − s³/6,
        // cos s ≈ 1 − s²/2 (max error 2e-4 for |s| ≤ 0.5 — α is initialized
        // in (−0.1, 0.1)), which keeps the phase shift fully differentiable.
        let sin_cn = g.constant_shared(Arc::clone(&basis.sin));
        let cos_cn = g.constant_shared(Arc::clone(&basis.cos));

        // Small-angle sin/cos of the learnable shift s.
        let s = phase_shift;
        let s2 = g.hadamard(s, s)?;
        let s3 = g.hadamard(s2, s)?;
        let s3_div = g.affine(s3, -1.0 / 6.0, 0.0)?;
        let sin_s = g.add(s, s3_div)?;
        let half_s2 = g.affine(s2, -0.5, 0.0)?;
        let cos_s = g.affine(half_s2, 1.0, 1.0)?;

        // sin(b+s) = sin b cos s + cos b sin s
        // cos(b+s) = cos b cos s − sin b sin s
        let t1 = g.hadamard(sin_cn, cos_s)?;
        let t2 = g.hadamard(cos_cn, sin_s)?;
        let sin_bs = g.add(t1, t2)?;
        let t3 = g.hadamard(cos_cn, cos_s)?;
        let t4 = g.hadamard(sin_cn, sin_s)?;
        let cos_bs = g.sub(t3, t4)?;
        g.add(sin_bs, cos_bs)
    }

    /// Tape-free embedding for inference: the exact op sequence of
    /// [`forward`](Self::forward) evaluated with the same `Matrix` methods
    /// the graph ops call, so the result is bitwise identical. The output
    /// depends only on the basis, `deltas` and `α` — per-star windows
    /// sharing the same frame share one embedding, which the batched path
    /// tiles across row blocks.
    pub fn forward_value(
        &self,
        store: &ParamStore,
        basis: &PositionBasis,
        deltas: &[f32],
    ) -> Result<Matrix> {
        basis.check_deltas(deltas)?;
        let alpha = store.value(self.alpha)?;
        let s = Matrix::col_vector(deltas).matmul(alpha)?; // len × d
        let (sin_cn, cos_cn) = (&*basis.sin, &*basis.cos);

        let s2 = s.hadamard(&s)?;
        let s3 = s2.hadamard(&s)?;
        let s3_div = s3.affine(-1.0 / 6.0, 0.0);
        let sin_s = s.add(&s3_div)?;
        let half_s2 = s2.affine(-0.5, 0.0);
        let cos_s = half_s2.affine(1.0, 1.0);

        let t1 = sin_cn.hadamard(&cos_s)?;
        let t2 = cos_cn.hadamard(&sin_s)?;
        let sin_bs = t1.add(&t2)?;
        let t3 = cos_cn.hadamard(&cos_s)?;
        let t4 = sin_cn.hadamard(&sin_s)?;
        let cos_bs = t3.sub(&t4)?;
        sin_bs.add(&cos_bs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encoder_layer_preserves_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = EncoderLayer::new(&mut store, "e", 8, 2, 16, &mut rng).unwrap();
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_fn(10, 8, |r, c| ((r * c) as f32).cos() * 0.3));
        let y = enc.forward(&mut g, &store, x).unwrap();
        assert_eq!(g.value(y).unwrap().shape(), (10, 8));
    }

    #[test]
    fn decoder_layer_uses_query_length() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let dec = DecoderLayer::new(&mut store, "d", 8, 2, &mut rng).unwrap();
        let mut g = Graph::new();
        let y = g.constant(Matrix::from_fn(3, 8, |r, c| (r + c) as f32 * 0.1));
        let enc = g.constant(Matrix::from_fn(12, 8, |r, c| (r * c) as f32 * 0.01));
        let out = dec.forward(&mut g, &store, y, enc).unwrap();
        assert_eq!(g.value(out).unwrap().shape(), (3, 8));
    }

    #[test]
    fn time_embedding_shape_and_bounds() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let te = TimeEmbedding::new(&mut store, "te", 16, &mut rng);
        let mut g = Graph::new();
        let positions: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let deltas = vec![1.0f32; 20];
        let e = te
            .forward(&mut g, &store, &te.basis(&positions), &deltas)
            .unwrap();
        let v = g.value(e).unwrap();
        assert_eq!(v.shape(), (20, 16));
        // sin + cos is bounded by √2 (plus small-angle approximation error).
        assert!(v.as_slice().iter().all(|a| a.abs() <= 1.45));
    }

    #[test]
    fn time_embedding_sensitive_to_irregular_intervals() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let te = TimeEmbedding::new(&mut store, "te", 8, &mut rng);
        let positions: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let basis = te.basis(&positions);
        let mut g = Graph::new();
        let regular = te.forward(&mut g, &store, &basis, &[1.0; 10]).unwrap();
        let irregular = te.forward(&mut g, &store, &basis, &[5.0; 10]).unwrap();
        let a = g.value(regular).unwrap().clone();
        let b = g.value(irregular).unwrap().clone();
        assert_ne!(a, b);
    }

    #[test]
    fn time_embedding_alpha_receives_gradient() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let te = TimeEmbedding::new(&mut store, "te", 4, &mut rng);
        let mut g = Graph::new();
        let basis = te.basis(&[0.0, 1.0, 2.0]);
        let e = te
            .forward(&mut g, &store, &basis, &[1.0, 1.0, 2.0])
            .unwrap();
        let sq = g.hadamard(e, e).unwrap();
        let loss = g.mean_all(sq).unwrap();
        g.backward(loss, &mut store).unwrap();
        let alpha_grad = store.grad(te.param_ids()[0]).unwrap();
        assert!(alpha_grad.as_slice().iter().any(|&v| v != 0.0));
    }
}
