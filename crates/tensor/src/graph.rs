//! Reverse-mode automatic differentiation on a per-step tape.
//!
//! A [`Graph`] is created for every forward pass, records each operation as a
//! node, and replays the tape in reverse on [`Graph::backward`]. Nodes only
//! reference earlier nodes, so reverse creation order is a valid topological
//! order. Parameter leaves remember their [`ParamId`]; after backward the
//! leaf gradients are flushed into the [`ParamStore`].
//!
//! Tapes themselves are pooled: dropping a `Graph` clears its nodes (whose
//! matrix buffers return to the [`workspace`](crate::workspace) pool) and
//! parks the node vector for the next `Graph::new`, so a steady-state
//! forward/backward loop allocates nothing.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::{Result, TensorError};
use crate::matrix::Matrix;
use crate::params::{GradBuffer, ParamId, ParamStore};
use crate::workspace;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

/// A node's forward value: owned by the tape for op outputs, shared with the
/// [`ParamStore`] for parameter leaves (no per-forward clone, O(1) leaf).
#[derive(Debug)]
enum Value {
    Owned(Matrix),
    Shared(Arc<Matrix>),
}

impl std::ops::Deref for Value {
    type Target = Matrix;
    #[inline]
    fn deref(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Shared(m) => m,
        }
    }
}

/// Concat operands stored inline: attention concatenates `heads (+1)` parts,
/// which fits without a heap list; wider concats spill to a `Vec`.
const PARTS_INLINE: usize = 8;

/// `(operand, width-or-height)` list for the concat ops.
#[derive(Debug)]
enum PartList {
    Inline { len: u8, parts: [(NodeId, usize); PARTS_INLINE] },
    Spilled(Vec<(NodeId, usize)>),
}

impl PartList {
    fn new() -> Self {
        PartList::Inline { len: 0, parts: [(NodeId(0), 0); PARTS_INLINE] }
    }

    fn push(&mut self, item: (NodeId, usize)) {
        match self {
            PartList::Inline { len, parts } => {
                if (*len as usize) < PARTS_INLINE {
                    parts[*len as usize] = item;
                    *len += 1;
                } else {
                    let mut v = parts.to_vec();
                    v.push(item);
                    *self = PartList::Spilled(v);
                }
            }
            PartList::Spilled(v) => v.push(item),
        }
    }

    fn as_slice(&self) -> &[(NodeId, usize)] {
        match self {
            PartList::Inline { len, parts } => &parts[..*len as usize],
            PartList::Spilled(v) => v,
        }
    }
}

/// The recorded operation for one tape node.
#[derive(Debug)]
enum Op {
    /// Constant or parameter leaf.
    Leaf,
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Hadamard(NodeId, NodeId),
    /// `alpha * x + beta`, elementwise.
    Affine { x: NodeId, alpha: f32 },
    Matmul(NodeId, NodeId),
    /// `a · bᵀ` without materializing the transpose.
    MatmulNt(NodeId, NodeId),
    Transpose(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    Exp(NodeId),
    Ln(NodeId),
    /// Row-wise softmax of `alpha * x` (`alpha = 1` for plain softmax).
    ScaledSoftmaxRows { x: NodeId, alpha: f32 },
    /// Row-wise layer normalization with learnable gain/shift.
    LayerNormRows {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        /// Cached normalized input x̂.
        normed: Matrix,
        /// Cached 1/σ per row (`rows × 1`).
        inv_std: Matrix,
    },
    AddRowBroadcast { x: NodeId, row: NodeId },
    ConcatCols { parts: PartList },
    ConcatRows { parts: PartList },
    SliceCols { x: NodeId, start: usize },
    SliceRows { x: NodeId, start: usize },
    GatherRows { x: NodeId, indices: Vec<usize> },
    /// Sum of all elements into a `1 × 1`.
    SumAll(NodeId),
    /// Mean of all elements into a `1 × 1`.
    MeanAll(NodeId),
}

#[derive(Debug)]
struct Node {
    value: Value,
    grad: Option<Matrix>,
    op: Op,
    param: Option<ParamId>,
}

/// The forward value of node `id` within a tape slice (valid for any node
/// recorded before the slice boundary).
fn value_of(nodes: &[Node], id: NodeId) -> Result<&Matrix> {
    nodes
        .get(id.0)
        .map(|n| &*n.value)
        .ok_or(TensorError::InvalidNode { id: id.0 })
}

/// Adds `delta` into node `id`'s gradient slot (taking the matrix whole when
/// the slot is empty — no zero-init pass).
fn acc_grad(nodes: &mut [Node], id: NodeId, delta: Matrix) -> Result<()> {
    let node = nodes.get_mut(id.0).ok_or(TensorError::InvalidNode { id: id.0 })?;
    match &mut node.grad {
        Some(g) => g.add_assign(&delta),
        slot @ None => {
            *slot = Some(delta);
            Ok(())
        }
    }
}

/// Tapes a thread keeps ready for its next `Graph::new`.
const TAPE_LOCAL_CAP: usize = 4;
/// Tapes parked globally (fed by exiting threads, e.g. scoped pool workers).
const TAPE_GLOBAL_CAP: usize = 16;

static GLOBAL_TAPES: Mutex<Vec<Vec<Node>>> = Mutex::new(Vec::new());

fn lock_tapes() -> MutexGuard<'static, Vec<Vec<Node>>> {
    match GLOBAL_TAPES.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct TapeShelf {
    tapes: Vec<Vec<Node>>,
}

impl Drop for TapeShelf {
    /// Parks this thread's tapes globally so capacity warmed up on an
    /// ephemeral worker survives the thread's death.
    fn drop(&mut self) {
        if self.tapes.is_empty() {
            return;
        }
        let mut global = lock_tapes();
        while let Some(t) = self.tapes.pop() {
            if global.len() >= TAPE_GLOBAL_CAP {
                break;
            }
            global.push(t);
        }
    }
}

thread_local! {
    static TAPE_POOL: RefCell<TapeShelf> = const { RefCell::new(TapeShelf { tapes: Vec::new() }) };
}

/// Per-forward-pass autodiff tape.
#[derive(Debug)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Graph {
    /// Returns the node buffers to the workspace pool and parks the cleared
    /// tape for reuse by the next `Graph::new` on this thread.
    fn drop(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let mut pending = Some(nodes);
        let _ = TAPE_POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.tapes.len() < TAPE_LOCAL_CAP {
                if let Some(t) = pending.take() {
                    p.tapes.push(t);
                }
            }
        });
        if let Some(t) = pending {
            let mut global = lock_tapes();
            if global.len() < TAPE_GLOBAL_CAP {
                global.push(t);
            }
        }
    }
}

impl Graph {
    /// Creates an empty tape, reusing pooled tape capacity when available.
    pub fn new() -> Self {
        let pooled = TAPE_POOL
            .try_with(|p| p.borrow_mut().tapes.pop())
            .ok()
            .flatten()
            .or_else(|| lock_tapes().pop());
        match pooled {
            Some(nodes) => {
                workspace::note_tape(true);
                Self { nodes }
            }
            None => {
                workspace::note_tape(false);
                Self { nodes: Vec::new() }
            }
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op, param: Option<ParamId>) -> NodeId {
        self.nodes.push(Node { value: Value::Owned(value), grad: None, op, param });
        NodeId(self.nodes.len() - 1)
    }

    fn push_shared(&mut self, value: Arc<Matrix>, op: Op, param: Option<ParamId>) -> NodeId {
        self.nodes.push(Node { value: Value::Shared(value), grad: None, op, param });
        NodeId(self.nodes.len() - 1)
    }

    fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.0).ok_or(TensorError::InvalidNode { id: id.0 })
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> Result<&Matrix> {
        Ok(&self.node(id)?.value)
    }

    /// The accumulated gradient of a node.
    ///
    /// After `backward`, only leaf nodes retain gradients — interior-node
    /// gradients are consumed (moved, not copied) as the tape unwinds.
    pub fn grad(&self, id: NodeId) -> Result<Option<&Matrix>> {
        Ok(self.node(id)?.grad.as_ref())
    }

    /// Inserts a constant leaf (no gradient is propagated out of the tape).
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf, None)
    }

    /// Inserts a leaf holding the current value of parameter `id`.
    ///
    /// The leaf shares the store's buffer (`Arc` clone) — no per-forward-pass
    /// matrix copy. The store's copy-on-write update path keeps the leaf
    /// stable if the optimizer later writes the parameter.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Result<NodeId> {
        let value = store.value_arc(id)?;
        Ok(self.push_shared(value, Op::Leaf, Some(id)))
    }

    // ---- elementwise & linear-algebra ops ---------------------------------

    /// Elementwise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v = self.node(a)?.value.add(&self.node(b)?.value)?;
        Ok(self.push(v, Op::Add(a, b), None))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v = self.node(a)?.value.sub(&self.node(b)?.value)?;
        Ok(self.push(v, Op::Sub(a, b), None))
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v = self.node(a)?.value.hadamard(&self.node(b)?.value)?;
        Ok(self.push(v, Op::Hadamard(a, b), None))
    }

    /// `alpha * x + beta` elementwise.
    pub fn affine(&mut self, x: NodeId, alpha: f32, beta: f32) -> Result<NodeId> {
        let v = self.node(x)?.value.affine(alpha, beta);
        Ok(self.push(v, Op::Affine { x, alpha }, None))
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v = self.node(a)?.value.matmul(&self.node(b)?.value)?;
        Ok(self.push(v, Op::Matmul(a, b), None))
    }

    /// Matrix product `a · bᵀ` without materializing the transpose
    /// (used by attention for the `Q · Kᵀ` score matrix).
    pub fn matmul_nt(&mut self, a: NodeId, b: NodeId) -> Result<NodeId> {
        let v = self.node(a)?.value.matmul_nt(&self.node(b)?.value)?;
        Ok(self.push(v, Op::MatmulNt(a, b), None))
    }

    /// Transposed copy of `x`.
    pub fn transpose(&mut self, x: NodeId) -> Result<NodeId> {
        let v = self.node(x)?.value.transpose();
        Ok(self.push(v, Op::Transpose(x), None))
    }

    /// Logistic sigmoid, elementwise.
    pub fn sigmoid(&mut self, x: NodeId) -> Result<NodeId> {
        let v = crate::forward::sigmoid(&self.node(x)?.value);
        Ok(self.push(v, Op::Sigmoid(x), None))
    }

    /// Hyperbolic tangent, elementwise.
    pub fn tanh(&mut self, x: NodeId) -> Result<NodeId> {
        let v = self.node(x)?.value.map(f32::tanh);
        Ok(self.push(v, Op::Tanh(x), None))
    }

    /// Rectified linear unit, elementwise.
    pub fn relu(&mut self, x: NodeId) -> Result<NodeId> {
        let v = self.node(x)?.value.relu();
        Ok(self.push(v, Op::Relu(x), None))
    }

    /// Elementwise natural exponential.
    pub fn exp(&mut self, x: NodeId) -> Result<NodeId> {
        let v = self.node(x)?.value.map(f32::exp);
        Ok(self.push(v, Op::Exp(x), None))
    }

    /// Elementwise natural logarithm.
    ///
    /// Inputs are clamped to `1e-12` from below to keep the forward (and the
    /// `1/x` backward) finite on non-positive values.
    pub fn ln(&mut self, x: NodeId) -> Result<NodeId> {
        let v = self.node(x)?.value.map(|a| a.max(1e-12).ln());
        Ok(self.push(v, Op::Ln(x), None))
    }

    /// Numerically-stable row-wise softmax: [`Graph::scaled_softmax_rows`]
    /// with `alpha = 1`, which is exact in the forward (`1·x`) and backward
    /// (`1·y`) passes. The body is
    /// [`forward::scaled_softmax_rows`](crate::forward::scaled_softmax_rows),
    /// one dispatched row kernel whose lane reductions have a fixed fold
    /// order, so every backend gives the same bits; its non-finite and
    /// underflow semantics are documented there.
    pub fn softmax_rows(&mut self, x: NodeId) -> Result<NodeId> {
        self.scaled_softmax_rows(x, 1.0)
    }

    /// Numerically-stable row-wise softmax of `alpha * x`, fused so attention
    /// does not materialize the scaled score matrix as a separate node.
    pub fn scaled_softmax_rows(&mut self, x: NodeId, alpha: f32) -> Result<NodeId> {
        let out = crate::forward::scaled_softmax_rows(&self.node(x)?.value, alpha);
        Ok(self.push(out, Op::ScaledSoftmaxRows { x, alpha }, None))
    }

    /// Row-wise layer normalization: `gamma ⊙ (x−μ)/σ + beta`.
    ///
    /// `gamma` and `beta` must be `1 × cols`. The per-row mean/variance
    /// reductions stay sequential scalar; the elementwise normalize+affine
    /// phase goes through the dispatched kernel layer.
    pub fn layer_norm_rows(
        &mut self,
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> Result<NodeId> {
        let (out, normed, inv_std) = {
            let xv = &self.node(x)?.value;
            let gv = &self.node(gamma)?.value;
            let bv = &self.node(beta)?.value;
            crate::forward::layer_norm_rows(xv, gv, bv, eps)?
        };
        Ok(self.push(out, Op::LayerNormRows { x, gamma, beta, normed, inv_std }, None))
    }

    /// Adds a `1 × cols` row vector to every row of `x`.
    pub fn add_row_broadcast(&mut self, x: NodeId, row: NodeId) -> Result<NodeId> {
        let v = self.node(x)?.value.add_row_broadcast(&self.node(row)?.value)?;
        Ok(self.push(v, Op::AddRowBroadcast { x, row }, None))
    }

    /// Joins matrices horizontally (column-wise).
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> Result<NodeId> {
        let mut meta = PartList::new();
        let mut out;
        {
            let Some(&first) = parts.first() else {
                return Ok(self.push(Matrix::zeros(0, 0), Op::ConcatCols { parts: meta }, None));
            };
            let rows = self.node(first)?.value.rows();
            let mut cols = 0;
            for &p in parts {
                let m = &self.node(p)?.value;
                if m.rows() != rows {
                    return Err(TensorError::ShapeMismatch {
                        expected: (rows, m.cols()),
                        got: m.shape(),
                        op: "concat_cols",
                    });
                }
                meta.push((p, m.cols()));
                cols += m.cols();
            }
            out = Matrix::zeros(rows, cols);
            for r in 0..rows {
                let mut off = 0;
                for &(p, w) in meta.as_slice() {
                    let src = self.node(p)?.value.row(r);
                    out.row_mut(r)[off..off + w].copy_from_slice(src);
                    off += w;
                }
            }
        }
        Ok(self.push(out, Op::ConcatCols { parts: meta }, None))
    }

    /// Stacks matrices vertically (row-wise).
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> Result<NodeId> {
        let mut meta = PartList::new();
        let mut out;
        {
            let Some(&first) = parts.first() else {
                return Ok(self.push(Matrix::zeros(0, 0), Op::ConcatRows { parts: meta }, None));
            };
            let cols = self.node(first)?.value.cols();
            let mut rows = 0;
            for &p in parts {
                let m = &self.node(p)?.value;
                if m.cols() != cols {
                    return Err(TensorError::ShapeMismatch {
                        expected: (m.rows(), cols),
                        got: m.shape(),
                        op: "concat_rows",
                    });
                }
                meta.push((p, m.rows()));
                rows += m.rows();
            }
            out = Matrix::zeros(rows, cols);
            let mut elem_off = 0;
            for &(p, h) in meta.as_slice() {
                let src = &self.node(p)?.value;
                out.as_mut_slice()[elem_off..elem_off + h * cols].copy_from_slice(src.as_slice());
                elem_off += h * cols;
            }
        }
        Ok(self.push(out, Op::ConcatRows { parts: meta }, None))
    }

    /// Copies columns `[start, start+len)`.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> Result<NodeId> {
        let v = self.node(x)?.value.slice_cols(start, len)?;
        Ok(self.push(v, Op::SliceCols { x, start }, None))
    }

    /// Copies rows `[start, start+len)`.
    pub fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> Result<NodeId> {
        let v = self.node(x)?.value.slice_rows(start, len)?;
        Ok(self.push(v, Op::SliceRows { x, start }, None))
    }

    /// Gathers rows of `x` by (possibly repeating) indices.
    pub fn gather_rows(&mut self, x: NodeId, indices: &[usize]) -> Result<NodeId> {
        let v = self.node(x)?.value.gather_rows(indices)?;
        Ok(self.push(v, Op::GatherRows { x, indices: indices.to_vec() }, None))
    }

    /// Sum of all elements as a `1 × 1`.
    pub fn sum_all(&mut self, x: NodeId) -> Result<NodeId> {
        let v = Matrix::scalar(self.node(x)?.value.sum());
        Ok(self.push(v, Op::SumAll(x), None))
    }

    /// Mean of all elements as a `1 × 1`.
    pub fn mean_all(&mut self, x: NodeId) -> Result<NodeId> {
        let v = Matrix::scalar(self.node(x)?.value.mean());
        Ok(self.push(v, Op::MeanAll(x), None))
    }

    // ---- composites -------------------------------------------------------

    /// Mean squared error between `pred` and a constant `target`.
    pub fn mse_loss(&mut self, pred: NodeId, target: &Matrix) -> Result<NodeId> {
        let t = self.constant(target.clone());
        let diff = self.sub(pred, t)?;
        let sq = self.hadamard(diff, diff)?;
        self.mean_all(sq)
    }

    /// `x · W + b` with `b` broadcast over rows.
    pub fn linear(&mut self, x: NodeId, w: NodeId, b: NodeId) -> Result<NodeId> {
        let xw = self.matmul(x, w)?;
        self.add_row_broadcast(xw, b)
    }

    // ---- backward ---------------------------------------------------------

    /// Runs reverse-mode differentiation from scalar node `loss` and flushes
    /// parameter-leaf gradients into `store`.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) -> Result<()> {
        self.backward_tape(loss)?;
        // Flush parameter-leaf gradients to the store.
        for node in &self.nodes {
            if let (Some(pid), Some(grad)) = (node.param, node.grad.as_ref()) {
                store.accumulate_grad(pid, grad)?;
            }
        }
        Ok(())
    }

    /// Runs reverse-mode differentiation from scalar node `loss` and moves
    /// parameter-leaf gradients into a thread-local [`GradBuffer`].
    ///
    /// This is the parallel-training entry point: worker shards each own a
    /// buffer (only a shared `&ParamStore` is needed for the forward pass),
    /// and the buffers are merged into the store afterwards in shard order,
    /// keeping the gradient accumulation order — and therefore training —
    /// bitwise identical at any thread count.
    pub fn backward_into(&mut self, loss: NodeId, grads: &mut GradBuffer) -> Result<()> {
        self.backward_tape(loss)?;
        for node in &mut self.nodes {
            if let (Some(pid), Some(grad)) = (node.param, node.grad.take()) {
                grads.accumulate(pid, grad)?;
            }
        }
        Ok(())
    }

    /// Reverse tape walk.
    ///
    /// Each step splits the tape at the current node: ops only reference
    /// strictly earlier nodes, so the node's own op/value can be borrowed
    /// while deltas accumulate into the prefix. The incoming gradient `dy`
    /// is *taken* from interior nodes (leaves keep theirs for the flush),
    /// so no gradient, operand value, or op metadata is ever cloned.
    fn backward_tape(&mut self, loss: NodeId) -> Result<()> {
        let shape = self.node(loss)?.value.shape();
        if shape != (1, 1) {
            return Err(TensorError::NonScalarLoss { shape });
        }
        acc_grad(&mut self.nodes, loss, Matrix::scalar(1.0))?;

        for i in (0..=loss.0).rev() {
            let (before, rest) = self.nodes.split_at_mut(i);
            let node = &mut rest[0];
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            let Some(dy) = node.grad.take() else {
                continue;
            };
            let y = &node.value;
            match &node.op {
                Op::Leaf => unreachable!("handled above"),
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    acc_grad(before, a, dy.clone())?;
                    acc_grad(before, b, dy)?;
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    acc_grad(before, a, dy.clone())?;
                    acc_grad(before, b, dy.affine(-1.0, 0.0))?;
                }
                Op::Hadamard(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = dy.hadamard(value_of(before, b)?)?;
                    let db = dy.hadamard(value_of(before, a)?)?;
                    acc_grad(before, a, da)?;
                    acc_grad(before, b, db)?;
                }
                Op::MatmulNt(a, b) => {
                    // y = A·Bᵀ ⇒ dA = dy·B, dB = dyᵀ·A.
                    let (a, b) = (*a, *b);
                    let da = dy.matmul(value_of(before, b)?)?;
                    let db = dy.matmul_tn(value_of(before, a)?)?;
                    acc_grad(before, a, da)?;
                    acc_grad(before, b, db)?;
                }
                Op::Affine { x, alpha } => {
                    let (x, alpha) = (*x, *alpha);
                    acc_grad(before, x, dy.affine(alpha, 0.0))?;
                }
                Op::Matmul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = dy.matmul_nt(value_of(before, b)?)?;
                    let db = value_of(before, a)?.matmul_tn(&dy)?;
                    acc_grad(before, a, da)?;
                    acc_grad(before, b, db)?;
                }
                Op::Transpose(x) => {
                    let x = *x;
                    acc_grad(before, x, dy.transpose())?;
                }
                Op::Sigmoid(x) => {
                    let x = *x;
                    let dx = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                        let s = y.get(r, c);
                        dy.get(r, c) * s * (1.0 - s)
                    });
                    acc_grad(before, x, dx)?;
                }
                Op::Tanh(x) => {
                    let x = *x;
                    let dx = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                        let t = y.get(r, c);
                        dy.get(r, c) * (1.0 - t * t)
                    });
                    acc_grad(before, x, dx)?;
                }
                Op::Relu(x) => {
                    let x = *x;
                    let xv = value_of(before, x)?;
                    let dx = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                        if xv.get(r, c) > 0.0 {
                            dy.get(r, c)
                        } else {
                            0.0
                        }
                    });
                    acc_grad(before, x, dx)?;
                }
                Op::Exp(x) => {
                    // dy/dx = y
                    let x = *x;
                    let dx = dy.hadamard(y)?;
                    acc_grad(before, x, dx)?;
                }
                Op::Ln(x) => {
                    let x = *x;
                    let xv = value_of(before, x)?;
                    let dx = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                        dy.get(r, c) / xv.get(r, c).max(1e-12)
                    });
                    acc_grad(before, x, dx)?;
                }
                Op::ScaledSoftmaxRows { x, alpha } => {
                    // y = softmax(alpha·x) ⇒ dx = alpha · y ⊙ (dy − rowsum(dy ⊙ y))
                    let (x, alpha) = (*x, *alpha);
                    let (rows, cols) = y.shape();
                    let mut dx = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        let yr = y.row(r);
                        let dyr = dy.row(r);
                        let dot: f32 = yr.iter().zip(dyr).map(|(a, b)| a * b).sum();
                        let dxr = dx.row_mut(r);
                        for c in 0..cols {
                            dxr[c] = alpha * yr[c] * (dyr[c] - dot);
                        }
                    }
                    acc_grad(before, x, dx)?;
                }
                Op::LayerNormRows { x, gamma, beta, normed, inv_std } => {
                    let (x, gamma, beta) = (*x, *gamma, *beta);
                    let (rows, cols) = normed.shape();
                    // dgamma = Σ_rows dy ⊙ x̂ ; dbeta = Σ_rows dy
                    let mut dgamma = Matrix::zeros(1, cols);
                    let mut dbeta = Matrix::zeros(1, cols);
                    let mut dx = Matrix::zeros(rows, cols);
                    {
                        let gv = value_of(before, gamma)?;
                        for r in 0..rows {
                            let dyr = dy.row(r);
                            let nr = normed.row(r);
                            for c in 0..cols {
                                dgamma.as_mut_slice()[c] += dyr[c] * nr[c];
                                dbeta.as_mut_slice()[c] += dyr[c];
                            }
                            // dx̂ = gamma ⊙ dy;
                            // dx = (dx̂ − mean(dx̂) − x̂·mean(dx̂ ⊙ x̂)) · inv_std
                            let istd = inv_std.get(r, 0);
                            let mut mean_dxhat = 0.0f32;
                            let mut mean_dxhat_xhat = 0.0f32;
                            for c in 0..cols {
                                let dxh = gv.get(0, c) * dyr[c];
                                mean_dxhat += dxh;
                                mean_dxhat_xhat += dxh * nr[c];
                            }
                            mean_dxhat /= cols as f32;
                            mean_dxhat_xhat /= cols as f32;
                            let dxr = dx.row_mut(r);
                            for c in 0..cols {
                                let dxh = gv.get(0, c) * dyr[c];
                                dxr[c] = (dxh - mean_dxhat - nr[c] * mean_dxhat_xhat) * istd;
                            }
                        }
                    }
                    acc_grad(before, x, dx)?;
                    acc_grad(before, gamma, dgamma)?;
                    acc_grad(before, beta, dbeta)?;
                }
                Op::AddRowBroadcast { x, row } => {
                    // d(row) = column sums of dy.
                    let (x, row) = (*x, *row);
                    let mut drow = Matrix::zeros(1, dy.cols());
                    for r in 0..dy.rows() {
                        for (acc, v) in drow.as_mut_slice().iter_mut().zip(dy.row(r)) {
                            *acc += v;
                        }
                    }
                    acc_grad(before, x, dy)?;
                    acc_grad(before, row, drow)?;
                }
                Op::ConcatCols { parts } => {
                    let mut start = 0;
                    for &(p, width) in parts.as_slice() {
                        let slice = dy.slice_cols(start, width)?;
                        acc_grad(before, p, slice)?;
                        start += width;
                    }
                }
                Op::ConcatRows { parts } => {
                    let mut start = 0;
                    for &(p, height) in parts.as_slice() {
                        let slice = dy.slice_rows(start, height)?;
                        acc_grad(before, p, slice)?;
                        start += height;
                    }
                }
                Op::SliceCols { x, start } => {
                    let (x, start) = (*x, *start);
                    let xv = value_of(before, x)?.shape();
                    let mut dx = Matrix::zeros(xv.0, xv.1);
                    for r in 0..dy.rows() {
                        let src = dy.row(r);
                        let dst = &mut dx.row_mut(r)[start..start + src.len()];
                        dst.copy_from_slice(src);
                    }
                    acc_grad(before, x, dx)?;
                }
                Op::SliceRows { x, start } => {
                    let (x, start) = (*x, *start);
                    let xv = value_of(before, x)?.shape();
                    let mut dx = Matrix::zeros(xv.0, xv.1);
                    for r in 0..dy.rows() {
                        dx.row_mut(start + r).copy_from_slice(dy.row(r));
                    }
                    acc_grad(before, x, dx)?;
                }
                Op::GatherRows { x, indices } => {
                    let x = *x;
                    let xv = value_of(before, x)?.shape();
                    let mut dx = Matrix::zeros(xv.0, xv.1);
                    for (r, &idx) in indices.iter().enumerate() {
                        let src = dy.row(r);
                        for (acc, v) in dx.row_mut(idx).iter_mut().zip(src) {
                            *acc += v;
                        }
                    }
                    acc_grad(before, x, dx)?;
                }
                Op::SumAll(x) => {
                    let x = *x;
                    let g = dy.scalar_value()?;
                    let (r, c) = value_of(before, x)?.shape();
                    acc_grad(before, x, Matrix::full(r, c, g))?;
                }
                Op::MeanAll(x) => {
                    let x = *x;
                    let g = dy.scalar_value()?;
                    let (r, c) = value_of(before, x)?.shape();
                    let n = (r * c).max(1) as f32;
                    acc_grad(before, x, Matrix::full(r, c, g / n))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_graph() -> (Graph, ParamStore) {
        (Graph::new(), ParamStore::new())
    }

    #[test]
    fn add_backward_distributes_grad() {
        let (mut g, mut store) = scalar_graph();
        let a = store.register("a", Matrix::scalar(2.0));
        let b = store.register("b", Matrix::scalar(3.0));
        let an = g.param(&store, a).unwrap();
        let bn = g.param(&store, b).unwrap();
        let s = g.add(an, bn).unwrap();
        let loss = g.sum_all(s).unwrap();
        g.backward(loss, &mut store).unwrap();
        assert_eq!(store.grad(a).unwrap().as_slice(), &[1.0]);
        assert_eq!(store.grad(b).unwrap().as_slice(), &[1.0]);
    }

    #[test]
    fn matmul_backward_matches_formula() {
        let (mut g, mut store) = scalar_graph();
        let a = store.register("a", Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap());
        let b = store.register("b", Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]).unwrap());
        let an = g.param(&store, a).unwrap();
        let bn = g.param(&store, b).unwrap();
        let c = g.matmul(an, bn).unwrap();
        let loss = g.sum_all(c).unwrap();
        g.backward(loss, &mut store).unwrap();
        // dA = 1·Bᵀ summed over output: each row of dA = row sums of Bᵀ.
        assert_eq!(store.grad(a).unwrap().as_slice(), &[11., 15., 11., 15.]);
        assert_eq!(store.grad(b).unwrap().as_slice(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let (mut g, _) = scalar_graph();
        let x = g.constant(Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]).unwrap());
        let y = g.softmax_rows(x).unwrap();
        let v = g.value(y).unwrap();
        for r in 0..2 {
            let s: f32 = v.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn non_scalar_loss_rejected() {
        let (mut g, mut store) = scalar_graph();
        let x = g.constant(Matrix::ones(2, 2));
        assert!(matches!(
            g.backward(x, &mut store),
            Err(TensorError::NonScalarLoss { .. })
        ));
    }

    #[test]
    fn mse_loss_of_equal_inputs_is_zero() {
        let (mut g, _) = scalar_graph();
        let t = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        let x = g.constant(t.clone());
        let l = g.mse_loss(x, &t).unwrap();
        assert_eq!(g.value(l).unwrap().scalar_value().unwrap(), 0.0);
    }

    #[test]
    fn gather_rows_backward_scatters() {
        let (mut g, mut store) = scalar_graph();
        let p = store.register("p", Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32));
        let x = g.param(&store, p).unwrap();
        let gathered = g.gather_rows(x, &[1, 1, 2]).unwrap();
        let loss = g.sum_all(gathered).unwrap();
        g.backward(loss, &mut store).unwrap();
        // Row 0 untouched, row 1 gathered twice, row 2 once.
        assert_eq!(store.grad(p).unwrap().as_slice(), &[0., 0., 2., 2., 1., 1.]);
    }

    #[test]
    fn tape_is_pooled_across_graphs() {
        // Warm up: build and drop a graph, then check the next one reuses
        // the tape (observable via the tape hit counter).
        {
            let mut g = Graph::new();
            let x = g.constant(Matrix::ones(2, 2));
            let _ = g.sum_all(x).unwrap();
        }
        let before = crate::workspace::stats();
        {
            let mut g = Graph::new();
            let x = g.constant(Matrix::ones(2, 2));
            let _ = g.sum_all(x).unwrap();
        }
        let after = crate::workspace::stats();
        assert!(
            after.tape_hits > before.tape_hits,
            "expected a pooled-tape hit: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn wide_concat_spills_and_roundtrips() {
        // More parts than the inline capacity exercises the spill path in
        // both forward and backward.
        let (mut g, mut store) = scalar_graph();
        let p = store.register("p", Matrix::ones(2, 1));
        let parts: Vec<NodeId> = (0..PARTS_INLINE + 3)
            .map(|_| g.param(&store, p).unwrap())
            .collect();
        let cat = g.concat_cols(&parts).unwrap();
        assert_eq!(g.value(cat).unwrap().shape(), (2, PARTS_INLINE + 3));
        let loss = g.sum_all(cat).unwrap();
        g.backward(loss, &mut store).unwrap();
        assert_eq!(
            store.grad(p).unwrap().as_slice(),
            &[(PARTS_INLINE + 3) as f32, (PARTS_INLINE + 3) as f32]
        );
    }

    /// Finite-difference check for a composite expression covering most ops.
    #[test]
    fn gradient_check_composite() {
        let build = |store: &ParamStore, w: ParamId, b: ParamId, g: &mut Graph| -> NodeId {
            let x = g.constant(Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]).unwrap());
            let wn = g.param(store, w).unwrap();
            let bn = g.param(store, b).unwrap();
            let h = g.linear(x, wn, bn).unwrap();
            let h = g.tanh(h).unwrap();
            let h = g.softmax_rows(h).unwrap();
            let sq = g.hadamard(h, h).unwrap();
            g.mean_all(sq).unwrap()
        };

        let mut store = ParamStore::new();
        let w = store.register(
            "w",
            Matrix::from_vec(3, 2, vec![0.3, -0.1, 0.2, 0.5, -0.4, 0.1]).unwrap(),
        );
        let b = store.register("b", Matrix::row_vector(&[0.05, -0.02]));

        let mut g = Graph::new();
        let loss = build(&store, w, b, &mut g);
        g.backward(loss, &mut store).unwrap();
        let analytic = store.grad(w).unwrap().clone();

        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut perturbed = store.clone();
            let mut wv = perturbed.value(w).unwrap().clone();
            wv.as_mut_slice()[idx] += eps;
            perturbed.set_value(w, wv).unwrap();
            let mut gp = Graph::new();
            let lp = build(&perturbed, w, b, &mut gp);
            let up = gp.value(lp).unwrap().scalar_value().unwrap();

            let mut perturbed = store.clone();
            let mut wv = perturbed.value(w).unwrap().clone();
            wv.as_mut_slice()[idx] -= eps;
            perturbed.set_value(w, wv).unwrap();
            let mut gm = Graph::new();
            let lm = build(&perturbed, w, b, &mut gm);
            let down = gm.value(lm).unwrap().scalar_value().unwrap();

            let numeric = (up - down) / (2.0 * eps);
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 1e-3,
                "grad mismatch at {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// The fused attention ops must match the unfused composition they
    /// replace bit for bit: `matmul_nt(q, k) == matmul(q, transpose(k))` and
    /// `scaled_softmax_rows(x, α) == softmax_rows(affine(x, α, 0))`.
    #[test]
    fn fused_attention_ops_match_unfused_composition() {
        let q = Matrix::from_fn(4, 3, |r, c| ((r * 5 + c * 3) % 7) as f32 * 0.25 - 0.5);
        let k = Matrix::from_fn(6, 3, |r, c| ((r * 3 + c * 11) % 5) as f32 * 0.3 - 0.6);

        let mut g = Graph::new();
        let (qn, kn) = (g.constant(q.clone()), g.constant(k.clone()));
        let fused_scores = g.matmul_nt(qn, kn).unwrap();
        let fused = g.scaled_softmax_rows(fused_scores, 0.7).unwrap();

        let kt = g.transpose(kn).unwrap();
        let scores = g.matmul(qn, kt).unwrap();
        let scaled = g.affine(scores, 0.7, 0.0).unwrap();
        let plain = g.softmax_rows(scaled).unwrap();

        let fv = g.value(fused).unwrap();
        let pv = g.value(plain).unwrap();
        assert_eq!(fv.shape(), (4, 6));
        // Bitwise: both run one softmax body (`1·x` is exact), and
        // `affine(x, α, 0)`'s `α·x + 0` differs from the kernel's `α·x` at
        // most in the sign of a zero, which `exp(±0) = 1` erases.
        assert_eq!(fv, pv);
    }

    /// Finite-difference check through `matmul_nt` + `scaled_softmax_rows`
    /// (the fused attention path), perturbing the key projection.
    #[test]
    fn gradient_check_fused_attention_ops() {
        let build = |store: &ParamStore, w: ParamId, g: &mut Graph| -> NodeId {
            let q = g.constant(
                Matrix::from_vec(2, 3, vec![0.2, -0.4, 0.1, 0.5, 0.3, -0.2]).unwrap(),
            );
            let kn = g.param(store, w).unwrap();
            let scores = g.matmul_nt(q, kn).unwrap();
            let attn = g.scaled_softmax_rows(scores, 0.8).unwrap();
            let sq = g.hadamard(attn, attn).unwrap();
            g.mean_all(sq).unwrap()
        };

        let mut store = ParamStore::new();
        let w = store.register(
            "k",
            Matrix::from_vec(3, 3, vec![0.3, -0.1, 0.2, 0.5, -0.4, 0.1, -0.2, 0.4, 0.6]).unwrap(),
        );

        let mut g = Graph::new();
        let loss = build(&store, w, &mut g);
        g.backward(loss, &mut store).unwrap();
        let analytic = store.grad(w).unwrap().clone();

        let eps = 1e-3f32;
        for idx in 0..9 {
            let run = |delta: f32| {
                let mut perturbed = store.clone();
                let mut wv = perturbed.value(w).unwrap().clone();
                wv.as_mut_slice()[idx] += delta;
                perturbed.set_value(w, wv).unwrap();
                let mut gp = Graph::new();
                let lp = build(&perturbed, w, &mut gp);
                gp.value(lp).unwrap().scalar_value().unwrap()
            };
            let numeric = (run(eps) - run(-eps)) / (2.0 * eps);
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 1e-3,
                "fused grad mismatch at {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }
}
