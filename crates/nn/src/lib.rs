//! # aero-nn
//!
//! Neural-network layers built on the [`aero_tensor`] autodiff substrate:
//! dense/FFN blocks, multi-head attention, Transformer encoder/decoder
//! layers, the AERO irregular-interval time embedding, a GRU, a same-padded
//! Conv1d, a self-loop-free GCN, VAE latent heads, and training-loop
//! utilities (early stopping).
//!
//! Every layer follows the same pattern: construction registers parameters
//! in a [`aero_tensor::ParamStore`]; `forward` records the computation on a
//! per-step [`aero_tensor::Graph`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod conv;
pub mod gcn;
pub mod gru;
pub mod linear;
pub mod lstm;
pub mod trainer;
pub mod transformer;
pub mod vae;

pub use attention::MultiHeadAttention;
pub use conv::Conv1d;
pub use gcn::{normalize_adjacency, normalize_adjacency_thresholded, GcnLayer};
pub use gru::Gru;
pub use linear::{Activation, FeedForward, LayerNorm, Linear};
pub use lstm::Lstm;
pub use trainer::{EarlyStopping, NanRecovery, TrainingHistory};
pub use transformer::{DecoderLayer, EncoderLayer, PositionBasis, TimeEmbedding};
pub use vae::{kl_standard_normal, standard_normal, GaussianHead};
