//! Runtime-dispatched compute kernels.
//!
//! Each kernel has a single source-of-truth body in [`body`], written in
//! lane-friendly safe Rust. This module instantiates that body once per
//! backend — scalar (baseline features), AVX2 and AVX-512 on `x86_64` via
//! `#[target_feature]`, and NEON on `aarch64` where it is part of the
//! baseline target — and dispatches on a process-global [`Backend`] selected
//! at first use from CPU feature detection (overridable with
//! `AERO_FORCE_SCALAR=1` or [`set_backend`]).
//!
//! Because every backend compiles the *identical* Rust source — no
//! intrinsics, no libm calls, no FMA contraction, every accumulation order
//! fixed in the source — all backends are bitwise identical; dispatch is
//! purely a speed choice. The only `unsafe` in the crate is the
//! feature-gated call edge in the generated dispatch functions below.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod body;

#[cfg(test)]
pub(crate) use body::{exp_flush, EXP_FLUSH_BELOW};

use std::sync::atomic::{AtomicU8, Ordering};

/// A compute backend the kernel layer can dispatch to.
///
/// All variants exist on every architecture (so tooling can name them
/// portably), but only those reported by [`Backend::is_supported`] can be
/// activated via [`set_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Backend {
    /// Portable body compiled with the crate's baseline target features.
    Scalar = 0,
    /// x86_64 AVX2 multiversioned body (8 f32 lanes).
    Avx2 = 1,
    /// x86_64 AVX-512F multiversioned body (16 f32 lanes).
    Avx512 = 2,
    /// aarch64 NEON. NEON is part of the aarch64 baseline, so this is the
    /// same code LLVM already emits for [`Backend::Scalar`] there; the
    /// variant exists for honest capability reporting.
    Neon = 3,
}

impl Backend {
    fn from_u8(v: u8) -> Backend {
        match v {
            1 => Backend::Avx2,
            2 => Backend::Avx512,
            3 => Backend::Neon,
            _ => Backend::Scalar,
        }
    }

    /// Whether this backend can run on the current machine.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 | Backend::Avx512 => false,
            Backend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// Stable lower-case name for logs and benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }
}

const BACKEND_UNSET: u8 = u8::MAX;

/// Process-global active backend (`BACKEND_UNSET` until first use).
static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

/// True when `AERO_FORCE_SCALAR=1` is set in the environment.
pub fn force_scalar_env() -> bool {
    std::env::var("AERO_FORCE_SCALAR").map(|v| v == "1").unwrap_or(false)
}

/// The fastest backend the current CPU supports, ignoring overrides.
pub fn detected_backend() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if Backend::Avx512.is_supported() {
            Backend::Avx512
        } else if Backend::Avx2.is_supported() {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        Backend::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Backend::Scalar
    }
}

#[inline]
fn current_backend() -> Backend {
    let v = BACKEND.load(Ordering::Relaxed);
    if v != BACKEND_UNSET {
        return Backend::from_u8(v);
    }
    let init = if force_scalar_env() { Backend::Scalar } else { detected_backend() };
    // Benign race: concurrent first calls compute the same value.
    BACKEND.store(init as u8, Ordering::Relaxed);
    init
}

/// The backend kernels currently dispatch to (detecting it on first call).
pub fn backend() -> Backend {
    current_backend()
}

/// Activates `b` for all subsequent kernel calls process-wide (worker
/// threads included). Returns `false` — leaving the current backend in
/// place — if the machine does not support `b`.
pub fn set_backend(b: Backend) -> bool {
    if !b.is_supported() {
        return false;
    }
    BACKEND.store(b as u8, Ordering::Relaxed);
    true
}

/// Generates, per kernel: one wrapper per backend (recompiling the shared
/// body under that backend's target features) and a public dispatch
/// function that routes to the active backend.
///
/// The dispatch call into a `#[target_feature]` wrapper is the crate's only
/// `unsafe`: it is sound because each feature-gated arm is reachable solely
/// when the matching `Backend` variant is active, and a variant only ever
/// becomes active after `is_supported()` confirmed the CPU feature at
/// runtime (`set_backend` / `detected_backend`).
macro_rules! dispatch_kernels {
    ($(
        $(#[$doc:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?);
    )*) => {
        #[cfg(target_arch = "x86_64")]
        mod avx2_backend {
            $(
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)]
                pub(super) fn $name($($arg: $ty),*) {
                    super::body::$name($($arg),*)
                }
            )*
        }

        #[cfg(target_arch = "x86_64")]
        mod avx512_backend {
            $(
                #[target_feature(enable = "avx512f")]
                #[allow(clippy::too_many_arguments)]
                pub(super) fn $name($($arg: $ty),*) {
                    super::body::$name($($arg),*)
                }
            )*
        }

        $(
            $(#[$doc])*
            #[inline]
            #[allow(clippy::too_many_arguments)]
            pub(crate) fn $name($($arg: $ty),*) {
                match current_backend() {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: the Avx2/Avx512 variants are only stored into
                    // `BACKEND` after runtime feature detection succeeded
                    // (see `set_backend`/`detected_backend`), so the target
                    // features the wrappers require are present.
                    #[allow(unsafe_code)]
                    Backend::Avx2 => unsafe { avx2_backend::$name($($arg),*) },
                    #[cfg(target_arch = "x86_64")]
                    #[allow(unsafe_code)]
                    Backend::Avx512 => unsafe { avx512_backend::$name($($arg),*) },
                    // NEON is in the aarch64 baseline: the plain body is
                    // already NEON code there. On other arches these
                    // variants are unreachable (`set_backend` rejects them).
                    _ => body::$name($($arg),*),
                }
            }
        )*
    };
}

dispatch_kernels! {
    /// `out_rows += a_rows · b` for a contiguous band of output rows.
    fn gemm_nn_rows(a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize);
    /// `out_rows += (aᵀ·b)` rows `i0..`, `a` is `k × m`, `b` is `k × n`.
    fn gemm_tn_rows(a: &[f32], b: &[f32], out_rows: &mut [f32], i0: usize, m: usize, k: usize, n: usize);
    /// `out_rows = a_rows · bᵀ` for a contiguous band, `b` is `n × k`.
    fn gemm_nt_rows(a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize);
    /// `out = a + b`, elementwise.
    fn add_into(a: &[f32], b: &[f32], out: &mut Vec<f32>);
    /// `out = a − b`, elementwise.
    fn sub_into(a: &[f32], b: &[f32], out: &mut Vec<f32>);
    /// `out = a ⊙ b`, elementwise.
    fn mul_into(a: &[f32], b: &[f32], out: &mut Vec<f32>);
    /// `out = alpha·x + beta`, elementwise.
    fn affine_into(x: &[f32], alpha: f32, beta: f32, out: &mut Vec<f32>);
    /// `out = max(x, 0)`, elementwise.
    fn relu_into(x: &[f32], out: &mut Vec<f32>);
    /// `dst += src`, elementwise.
    fn add_assign(dst: &mut [f32], src: &[f32]);
    /// `dst += alpha·src`, elementwise.
    fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]);
    /// `out = softmax(alpha·x)` for one row: in-source `exp`, 16-lane
    /// max/sum reductions in a fixed fold order.
    fn softmax_row(x: &[f32], alpha: f32, out: &mut [f32]);
    /// Elementwise phase of one layer-norm row (reductions stay scalar).
    fn layer_norm_row(x_row: &[f32], gamma: &[f32], beta: &[f32], mean: f32, istd: f32, normed_row: &mut [f32], out_row: &mut [f32]);
    /// One Adam update over a parameter's flat buffers.
    fn adam_update(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], scale: f32, b1: f32, b2: f32, bias1: f32, bias2: f32, lr: f32, eps: f32);
    /// One SGD update `w ← w − lr·g`.
    fn sgd_update(w: &mut [f32], g: &[f32], lr: f32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported() {
        assert!(Backend::Scalar.is_supported());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert_eq!(Backend::Avx512.name(), "avx512");
        assert_eq!(Backend::Neon.name(), "neon");
    }

    #[test]
    fn unsupported_backend_is_rejected() {
        #[cfg(target_arch = "x86_64")]
        assert!(!set_backend(Backend::Neon));
        #[cfg(target_arch = "aarch64")]
        assert!(!set_backend(Backend::Avx2));
        // The active backend is still usable afterwards.
        let mut out = Vec::new();
        add_into(&[1.0, 2.0], &[3.0, 4.0], &mut out);
        assert_eq!(out, vec![4.0, 6.0]);
    }
}
