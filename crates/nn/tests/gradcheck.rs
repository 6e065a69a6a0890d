//! Finite-difference gradient checks for every layer in `aero-nn`, using
//! the public checker from `aero-tensor`. A failing backward pass here is
//! the kind of bug that silently degrades every model downstream.

use aero_nn::{
    kl_standard_normal, Activation, Conv1d, DecoderLayer, EncoderLayer, FeedForward,
    GaussianHead, GcnLayer, Gru, LayerNorm, Linear, MultiHeadAttention, TimeEmbedding,
};
use aero_tensor::{check_gradient, Matrix, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 1e-2;
const TOL: f32 = 3e-2;

fn input(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17) % 11) as f32 * 0.05 - 0.25)
}

/// Checks all parameters of a layer against the scalar loss `mean(out²)`.
fn check_all(
    store: &ParamStore,
    params: &[aero_tensor::ParamId],
    build: impl Fn(&ParamStore, &mut aero_tensor::Graph) -> aero_tensor::Result<aero_tensor::NodeId>
        + Copy,
) {
    for &p in params {
        let report = check_gradient(store, p, EPS, |s, g| {
            let out = build(s, g)?;
            let sq = g.hadamard(out, out)?;
            g.mean_all(sq)
        })
        .unwrap();
        assert!(
            report.passes(TOL),
            "param {} failed: {report:?}",
            store.get(p).unwrap().name()
        );
    }
}

#[test]
fn linear_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let layer = Linear::new(&mut store, "l", 3, 4, Activation::Tanh, &mut rng);
    let x = input(5, 3);
    check_all(&store, &layer.param_ids(), |s, g| {
        let xn = g.constant(x.clone());
        layer.forward(g, s, xn)
    });
}

#[test]
fn feedforward_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(2);
    let ffn = FeedForward::new(&mut store, "f", 4, 6, &mut rng);
    let x = input(3, 4);
    check_all(&store, &ffn.param_ids(), |s, g| {
        let xn = g.constant(x.clone());
        ffn.forward(g, s, xn)
    });
}

#[test]
fn layer_norm_gradients() {
    let mut store = ParamStore::new();
    let ln = LayerNorm::new(&mut store, "ln", 5);
    let x = input(4, 5);
    check_all(&store, &ln.param_ids(), |s, g| {
        let xn = g.constant(x.clone());
        ln.forward(g, s, xn)
    });
}

#[test]
fn attention_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let mha = MultiHeadAttention::new(&mut store, "a", 4, 2, &mut rng).unwrap();
    let x = input(5, 4);
    check_all(&store, &mha.param_ids(), |s, g| {
        let xn = g.constant(x.clone());
        mha.forward(g, s, xn, xn, xn)
    });
}

#[test]
fn encoder_layer_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(4);
    let enc = EncoderLayer::new(&mut store, "e", 4, 2, 6, &mut rng).unwrap();
    let x = input(4, 4);
    // LayerNorm through near-constant rows is numerically touchy for FD —
    // check a representative subset: attention + FFN weights.
    let ids: Vec<_> = enc.param_ids().into_iter().take(6).collect();
    check_all(&store, &ids, |s, g| {
        let xn = g.constant(x.clone());
        enc.forward(g, s, xn)
    });
}

#[test]
fn decoder_layer_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let dec = DecoderLayer::new(&mut store, "d", 4, 2, &mut rng).unwrap();
    let q = input(3, 4);
    let kv = input(6, 4);
    let ids: Vec<_> = dec.param_ids().into_iter().take(8).collect();
    check_all(&store, &ids, |s, g| {
        let qn = g.constant(q.clone());
        let kvn = g.constant(kv.clone());
        dec.forward(g, s, qn, kvn)
    });
}

#[test]
fn gru_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(6);
    let gru = Gru::new(&mut store, "g", 2, 3, &mut rng);
    let xs = input(4, 2);
    check_all(&store, &gru.param_ids(), |s, g| {
        let xn = g.constant(xs.clone());
        gru.scan(g, s, xn)
    });
}

#[test]
fn conv1d_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let conv = Conv1d::new(&mut store, "c", 2, 3, 3, &mut rng);
    let x = input(6, 2);
    check_all(&store, &conv.param_ids(), |s, g| {
        let xn = g.constant(x.clone());
        conv.forward(g, s, xn)
    });
}

#[test]
fn gcn_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(8);
    let gcn = GcnLayer::new(&mut store, "gcn", 4, Activation::Tanh, &mut rng);
    let adj = aero_nn::normalize_adjacency(&Matrix::ones(3, 3));
    let feats = input(3, 4);
    check_all(&store, &gcn.param_ids(), |s, g| {
        let f = g.constant(feats.clone());
        gcn.forward(g, s, &adj, f)
    });
}

#[test]
fn time_embedding_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(9);
    let te = TimeEmbedding::new(&mut store, "te", 4, &mut rng);
    let positions = [0.0f32, 1.0, 2.0, 3.5];
    let deltas = [0.0f32, 1.0, 1.0, 1.5];
    let basis = te.basis(&positions);
    check_all(&store, &te.param_ids(), |s, g| {
        te.forward(g, s, &basis, &deltas)
    });
}

#[test]
fn gaussian_head_gradients() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(10);
    let head = GaussianHead::new(&mut store, "h", 3, 2, &mut rng);
    let x = input(4, 3);
    let eps = Matrix::from_fn(4, 2, |r, c| ((r + c) % 3) as f32 * 0.2 - 0.2);
    // Loss: reconstruction-free ELBO surrogate mean(z²) + KL.
    check_all(&store, &head.param_ids(), |s, g| {
        let xn = g.constant(x.clone());
        let (z, mu, logvar) = head.forward_with_eps(g, s, xn, &eps)?;
        let zsq = g.hadamard(z, z)?;
        let zloss = g.mean_all(zsq)?;
        let kl = kl_standard_normal(g, mu, logvar)?;
        // Return a "pseudo output" node: combine into one scalar, then the
        // harness squares it — still a valid differentiable scalar chain.
        g.add(zloss, kl)
    });
}
