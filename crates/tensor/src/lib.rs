//! # aero-tensor
//!
//! A small, dependency-light dense tensor library with reverse-mode
//! automatic differentiation, built as the deep-learning substrate for the
//! AERO reproduction (ICDE 2024, "From Chaos to Clarity").
//!
//! Design goals, in order:
//! 1. **Correctness** — every op has an analytic backward pass verified by
//!    finite-difference tests; shapes are validated eagerly with typed errors.
//! 2. **Auditable scope** — one tensor rank (2-D `f32` [`Matrix`]), one tape
//!    ([`Graph`]), a handful of ops. Everything the AERO paper's equations
//!    need and nothing more.
//! 3. **Hardware-scale speed** — runtime-dispatched SIMD kernels
//!    ([`backend`]/[`set_backend`]: scalar, AVX2, AVX-512, NEON — bitwise
//!    identical by construction), register-tiled cache-blocked GEMM
//!    (`matmul`/`matmul_tn`/`matmul_nt` avoid materializing transposes and
//!    partition rows across the `aero-parallel` pool above a size
//!    threshold), a [`workspace`] buffer pool that makes steady-state op
//!    outputs and graph tapes allocation-free, and `Arc`-shared parameter
//!    values (no per-forward clone). All kernels keep a fixed per-element
//!    floating-point accumulation order, so results are bitwise identical
//!    at any backend and thread count.
//!
//! ## Quick tour
//!
//! ```
//! use aero_tensor::{Graph, Matrix, ParamStore, Adam};
//!
//! let mut store = ParamStore::new();
//! let w = store.register("w", Matrix::scalar(0.0));
//! let mut opt = Adam::new(0.1);
//!
//! for _ in 0..200 {
//!     store.zero_grads();
//!     let mut g = Graph::new();
//!     let wn = g.param(&store, w).unwrap();
//!     let loss = g.mse_loss(wn, &Matrix::scalar(2.0)).unwrap();
//!     g.backward(loss, &mut store).unwrap();
//!     opt.step(&mut store).unwrap();
//! }
//! let w = store.value(w).unwrap().scalar_value().unwrap();
//! assert!((w - 2.0).abs() < 0.05);
//! ```

// `deny` (not `forbid`) so the kernel dispatch layer can scope a single
// `allow(unsafe_code)` onto its feature-detected `#[target_feature]` calls.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod error;
pub mod forward;
mod graph;
mod kernels;
mod matrix;
mod optim;
mod params;
pub mod workspace;

pub use check::{check_gradient, GradCheckReport};
pub use error::{Result, TensorError};
pub use graph::{Graph, NodeId};
pub use kernels::{backend, detected_backend, force_scalar_env, set_backend, Backend};
pub use matrix::Matrix;
pub use optim::{Adam, Sgd};
pub use params::{GradBuffer, Param, ParamId, ParamStore};
