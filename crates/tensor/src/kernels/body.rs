//! Shared kernel bodies, written once in lane-friendly form.
//!
//! Every function here is `#[inline(always)]` and is instantiated by each
//! backend wrapper in `kernels/mod.rs`: the scalar wrapper compiles it with
//! the crate's baseline target features, the AVX2/AVX-512 wrappers recompile
//! the *same body* under `#[target_feature(...)]` so LLVM's auto-vectorizer
//! can use wider registers. There are no intrinsics and no FMA contraction
//! (Rust never contracts `a * b + c` by default), and each output element
//! accumulates its `k` products in strictly increasing `p` order on every
//! path — so all backends are bitwise identical by construction; the wider
//! ISA only changes how many *independent* output elements move per cycle.
//!
//! The GEMM kernels use a register-tiled micro-kernel: an `MR × NR` block of
//! output elements is held in an accumulator array (lowered to vector
//! registers) while the shared dimension streams past. Spilling a partial
//! accumulator to memory and reloading it between `p`-tiles is exact in
//! IEEE-754, so cache blocking does not perturb results either.
//!
//! The softmax row kernel is the one place that reduces across lanes. Its
//! max and sum accumulate into a `[f32; 16]` whose lane count and fold
//! order are constants of this file, not of the backend, and its `exp` is
//! an in-source polynomial rather than a libm call — so it, too, is the same
//! IEEE operation sequence on every backend and platform.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// Micro-tile height: output rows per register block.
const MR: usize = 4;
/// Micro-tile width: output columns per register block (two AVX2 lanes).
/// Narrower 8- and 4-wide tiles catch the skinny shapes the per-variate
/// Transformer actually runs (d_model-sized projections, head-dim attention
/// products) which would otherwise fall through to the scalar remainder
/// loop and run at memory-bound speed: the remainder loop re-loads and
/// re-stores each output element on every `p` step, while a register tile
/// keeps the accumulators live across the whole `p` range.
const NR: usize = 16;
/// Tile width along the shared (`p`) dimension.
pub(crate) const GEMM_KC: usize = 128;
/// Tile width along the output-column (`j`) dimension. A `GEMM_KC × GEMM_NC`
/// panel of `B` is 256 KiB — sized for L2 residency.
pub(crate) const GEMM_NC: usize = 512;

// ---- GEMM: C += A · B ------------------------------------------------------

/// Register-tiled inner block for `gemm_nn_rows`: accumulates the
/// `MR_N × NR_W` output block at `(i, j)` over `p ∈ [pc, pc+pw)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_nn<const MR_N: usize, const NR_W: usize>(
    a_rows: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
    pc: usize,
    pw: usize,
) {
    let mut acc = [[0.0f32; NR_W]; MR_N];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        let o = &out_rows[(i + r) * n + j..(i + r) * n + j + NR_W];
        acc_r.copy_from_slice(o);
    }
    for p in pc..pc + pw {
        let brow = &b[p * n + j..p * n + j + NR_W];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a = a_rows[(i + r) * k + p];
            for (acc_l, &bv) in acc_r.iter_mut().zip(brow) {
                *acc_l += a * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let o = &mut out_rows[(i + r) * n + j..(i + r) * n + j + NR_W];
        o.copy_from_slice(acc_r);
    }
}

/// Dispatches one `iw × NR_W` tile of `micro_nn` by row count.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_nn<const NR_W: usize>(
    a_rows: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    iw: usize,
    j: usize,
    pc: usize,
    pw: usize,
) {
    match iw {
        4 => micro_nn::<4, NR_W>(a_rows, b, out_rows, k, n, i, j, pc, pw),
        3 => micro_nn::<3, NR_W>(a_rows, b, out_rows, k, n, i, j, pc, pw),
        2 => micro_nn::<2, NR_W>(a_rows, b, out_rows, k, n, i, j, pc, pw),
        _ => micro_nn::<1, NR_W>(a_rows, b, out_rows, k, n, i, j, pc, pw),
    }
}

/// `out_rows += a_rows · b` for a contiguous band of output rows.
/// Accumulation order per output element: `p = 0..k` strictly increasing.
#[inline(always)]
pub(crate) fn gemm_nn_rows(a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize) {
    if n == 0 || k == 0 {
        return;
    }
    // Monomorphize the remainder handling away when every column lands in a
    // full-width tile: folding the narrow-tile loops into the wide nest
    // costs the large-shape path ~40% (register pressure in the combined
    // body), so the exact-multiple case compiles the original wide-only
    // nest. Tile choice never changes per-element accumulation order, so
    // both nests are bitwise identical where they overlap.
    if n.is_multiple_of(NR) {
        gemm_nn_nest::<false>(a_rows, b, out_rows, k, n)
    } else {
        gemm_nn_nest::<true>(a_rows, b, out_rows, k, n)
    }
}

#[inline(always)]
fn gemm_nn_nest<const NARROW: bool>(
    a_rows: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    k: usize,
    n: usize,
) {
    let m_local = out_rows.len() / n;
    let mut jc = 0;
    while jc < n {
        let jw = GEMM_NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let pw = GEMM_KC.min(k - pc);
            let mut i = 0;
            while i < m_local {
                let iw = MR.min(m_local - i);
                let mut j = jc;
                while j + NR <= jc + jw {
                    tile_nn::<NR>(a_rows, b, out_rows, k, n, i, iw, j, pc, pw);
                    j += NR;
                }
                // Narrower register tiles for the column remainder: same
                // per-element accumulation order, just fewer lanes per tile.
                if NARROW {
                    while j + 8 <= jc + jw {
                        tile_nn::<8>(a_rows, b, out_rows, k, n, i, iw, j, pc, pw);
                        j += 8;
                    }
                    while j + 4 <= jc + jw {
                        tile_nn::<4>(a_rows, b, out_rows, k, n, i, iw, j, pc, pw);
                        j += 4;
                    }
                }
                // Final remainder (< 4): plain loops, same per-element order.
                if NARROW && j < jc + jw {
                    for r in i..i + iw {
                        for dp in 0..pw {
                            let p = pc + dp;
                            let a = a_rows[r * k + p];
                            let brow = &b[p * n..(p + 1) * n];
                            let orow = &mut out_rows[r * n..(r + 1) * n];
                            for jj in j..jc + jw {
                                orow[jj] += a * brow[jj];
                            }
                        }
                    }
                }
                i += iw;
            }
            pc += pw;
        }
        jc += jw;
    }
}

// ---- GEMM: C += Aᵀ · B ------------------------------------------------------

/// Register-tiled inner block for `gemm_tn_rows` (`a` is `k × m`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_tn<const MR_N: usize, const NR_W: usize>(
    a: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    i0: usize,
    m: usize,
    n: usize,
    i: usize,
    j: usize,
    pc: usize,
    pw: usize,
) {
    let mut acc = [[0.0f32; NR_W]; MR_N];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        let o = &out_rows[(i + r) * n + j..(i + r) * n + j + NR_W];
        acc_r.copy_from_slice(o);
    }
    for p in pc..pc + pw {
        let brow = &b[p * n + j..p * n + j + NR_W];
        let aseg = &a[p * m + i0 + i..p * m + i0 + i + MR_N];
        for (acc_r, &av) in acc.iter_mut().zip(aseg) {
            for (acc_l, &bv) in acc_r.iter_mut().zip(brow) {
                *acc_l += av * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let o = &mut out_rows[(i + r) * n + j..(i + r) * n + j + NR_W];
        o.copy_from_slice(acc_r);
    }
}

/// Dispatches one `iw × NR_W` tile of `micro_tn` by row count.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_tn<const NR_W: usize>(
    a: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    i0: usize,
    m: usize,
    n: usize,
    i: usize,
    iw: usize,
    j: usize,
    pc: usize,
    pw: usize,
) {
    match iw {
        4 => micro_tn::<4, NR_W>(a, b, out_rows, i0, m, n, i, j, pc, pw),
        3 => micro_tn::<3, NR_W>(a, b, out_rows, i0, m, n, i, j, pc, pw),
        2 => micro_tn::<2, NR_W>(a, b, out_rows, i0, m, n, i, j, pc, pw),
        _ => micro_tn::<1, NR_W>(a, b, out_rows, i0, m, n, i, j, pc, pw),
    }
}

/// `out_rows += (aᵀ · b)` restricted to output rows `i0 .. i0 + rows`,
/// where `a` is `k × m` and `b` is `k × n`. Accumulation order per output
/// element: `p = 0..k` strictly increasing.
#[inline(always)]
pub(crate) fn gemm_tn_rows(
    a: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    i0: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if n == 0 || k == 0 {
        return;
    }
    // Same wide/narrow monomorphization as `gemm_nn_rows`.
    if n.is_multiple_of(NR) {
        gemm_tn_nest::<false>(a, b, out_rows, i0, m, k, n)
    } else {
        gemm_tn_nest::<true>(a, b, out_rows, i0, m, k, n)
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_tn_nest<const NARROW: bool>(
    a: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    i0: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let rows = out_rows.len() / n;
    let mut jc = 0;
    while jc < n {
        let jw = GEMM_NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let pw = GEMM_KC.min(k - pc);
            let mut i = 0;
            while i < rows {
                let iw = MR.min(rows - i);
                let mut j = jc;
                while j + NR <= jc + jw {
                    tile_tn::<NR>(a, b, out_rows, i0, m, n, i, iw, j, pc, pw);
                    j += NR;
                }
                if NARROW {
                    while j + 8 <= jc + jw {
                        tile_tn::<8>(a, b, out_rows, i0, m, n, i, iw, j, pc, pw);
                        j += 8;
                    }
                    while j + 4 <= jc + jw {
                        tile_tn::<4>(a, b, out_rows, i0, m, n, i, iw, j, pc, pw);
                        j += 4;
                    }
                }
                if NARROW && j < jc + jw {
                    for r in i..i + iw {
                        for dp in 0..pw {
                            let p = pc + dp;
                            let av = a[p * m + i0 + r];
                            let brow = &b[p * n..(p + 1) * n];
                            let orow = &mut out_rows[r * n..(r + 1) * n];
                            for jj in j..jc + jw {
                                orow[jj] += av * brow[jj];
                            }
                        }
                    }
                }
                i += iw;
            }
            pc += pw;
        }
        jc += jw;
    }
}

// ---- GEMM: C = A · Bᵀ -------------------------------------------------------

/// Register-tiled inner block for `gemm_nt_rows` over a packed `k × NR_W`
/// column panel of `Bᵀ` (`panel[p·NR_W + l] = b[(j+l)·k + p]`).
#[inline(always)]
fn micro_nt<const MR_N: usize, const NR_W: usize>(
    a_rows: &[f32],
    panel: &[f32],
    out_rows: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; NR_W]; MR_N];
    for p in 0..k {
        let brow = &panel[p * NR_W..p * NR_W + NR_W];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let a = a_rows[(i + r) * k + p];
            for (acc_l, &bv) in acc_r.iter_mut().zip(brow) {
                *acc_l += a * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        let o = &mut out_rows[(i + r) * n + j..(i + r) * n + j + NR_W];
        o.copy_from_slice(acc_r);
    }
}

/// Packs columns `j .. j+NR_W` of `Bᵀ` (`b` is `n × k`) into a `p`-major
/// panel and runs `micro_nt` over every row band. Packing only reorders
/// reads; each output element still accumulates `p = 0..k` in order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panel_nt<const NR_W: usize>(
    a_rows: &[f32],
    b: &[f32],
    panel: &mut Vec<f32>,
    out_rows: &mut [f32],
    k: usize,
    n: usize,
    m_local: usize,
    j: usize,
) {
    panel.clear();
    for p in 0..k {
        for l in 0..NR_W {
            panel.push(b[(j + l) * k + p]);
        }
    }
    let mut i = 0;
    while i < m_local {
        let iw = MR.min(m_local - i);
        match iw {
            4 => micro_nt::<4, NR_W>(a_rows, panel, out_rows, k, n, i, j),
            3 => micro_nt::<3, NR_W>(a_rows, panel, out_rows, k, n, i, j),
            2 => micro_nt::<2, NR_W>(a_rows, panel, out_rows, k, n, i, j),
            _ => micro_nt::<1, NR_W>(a_rows, panel, out_rows, k, n, i, j),
        }
        i += iw;
    }
}

/// `out_rows = a_rows · bᵀ` for a contiguous band of output rows, where `b`
/// is `n × k`. Each output element is one sequential dot product over
/// increasing `p` — vectorization spreads *columns* across lanes via a
/// packed `p`-major panel of `B` rows, leaving each element's accumulation
/// order untouched.
#[inline(always)]
pub(crate) fn gemm_nt_rows(a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    if k == 0 {
        // `out` is pre-zeroed by the caller; an empty dot product stays 0.
        return;
    }
    // Same wide/narrow monomorphization as `gemm_nn_rows`.
    if n.is_multiple_of(NR) {
        gemm_nt_nest::<false>(a_rows, b, out_rows, k, n)
    } else {
        gemm_nt_nest::<true>(a_rows, b, out_rows, k, n)
    }
}

#[inline(always)]
fn gemm_nt_nest<const NARROW: bool>(
    a_rows: &[f32],
    b: &[f32],
    out_rows: &mut [f32],
    k: usize,
    n: usize,
) {
    let m_local = out_rows.len() / n;
    let mut panel = crate::workspace::take_buffer(k * NR);
    let mut j = 0;
    while j + NR <= n {
        panel_nt::<NR>(a_rows, b, &mut panel, out_rows, k, n, m_local, j);
        j += NR;
    }
    // Narrower panels for the column remainder — the dominant case for the
    // attention `scores · V` product, whose output width is the head dim.
    if NARROW {
        while j + 8 <= n {
            panel_nt::<8>(a_rows, b, &mut panel, out_rows, k, n, m_local, j);
            j += 8;
        }
        while j + 4 <= n {
            panel_nt::<4>(a_rows, b, &mut panel, out_rows, k, n, m_local, j);
            j += 4;
        }
    }
    if NARROW && j < n {
        for r in 0..m_local {
            let a_row = &a_rows[r * k..(r + 1) * k];
            for jj in j..n {
                let b_row = &b[jj * k..(jj + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                out_rows[r * n + jj] = acc;
            }
        }
    }
    crate::workspace::recycle_buffer(panel);
}

// ---- elementwise maps ------------------------------------------------------

/// `out = a + b`, elementwise (clears and refills `out`).
#[inline(always)]
pub(crate) fn add_into(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(a.iter().zip(b).map(|(x, y)| x + y));
}

/// `out = a − b`, elementwise.
#[inline(always)]
pub(crate) fn sub_into(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(a.iter().zip(b).map(|(x, y)| x - y));
}

/// `out = a ⊙ b`, elementwise.
#[inline(always)]
pub(crate) fn mul_into(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(a.iter().zip(b).map(|(x, y)| x * y));
}

/// `out = alpha·x + beta`, elementwise.
#[inline(always)]
pub(crate) fn affine_into(x: &[f32], alpha: f32, beta: f32, out: &mut Vec<f32>) {
    out.clear();
    out.extend(x.iter().map(|&v| alpha * v + beta));
}

/// `out = max(x, 0)`, elementwise.
#[inline(always)]
pub(crate) fn relu_into(x: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(x.iter().map(|&v| v.max(0.0)));
}

/// `dst += src`, elementwise.
#[inline(always)]
pub(crate) fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst += alpha · src`, elementwise (BLAS `axpy`).
#[inline(always)]
pub(crate) fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

// ---- softmax row -----------------------------------------------------------

/// Lane count of the softmax row reductions. Fixed in the source, never
/// derived from the backend's register width, so every backend folds the
/// same partial maxima and sums in the same order.
const SOFTMAX_LANES: usize = 16;

/// `ln(2⁻¹²⁶)`: `exp_flush` returns exactly 0 below this, where `exp` would
/// be subnormal and `2ⁿ` no longer fits a normal exponent field.
pub(crate) const EXP_FLUSH_BELOW: f32 = -87.336_55;

/// `eˣ` in Cephes style, from IEEE `+ − ×` and bit moves only (no libm, no
/// FMA), so it is the same function on every platform and backend:
///
/// - `n = round(x·log₂e)` by the `1.5·2²³` magic add (round-to-nearest-even);
/// - `r = x − n·ln2` with `ln2` split in two constants (`n·LN2_HI` is exact);
/// - `eʳ ≈ 1 + r + r²·P(r)`, `P` with six coefficients in Horner form;
/// - `2ⁿ` is built in the exponent field with `f32::from_bits`.
///
/// Within 2 ulp of `f64::exp(x as f64)` on `[−87, 0]` (the softmax range).
/// Inputs below [`EXP_FLUSH_BELOW`], `−∞` included, give exactly 0; NaN
/// gives NaN (the polynomial carries it, and `NaN < c` is false). Only
/// `x ≤ 0` is used: larger inputs overflow the exponent field.
#[inline(always)]
pub(crate) fn exp_flush(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const ROUND: f32 = 12_582_912.0; // 1.5·2²³
    const LN2_HI: f32 = 0.693_359_4; // 355/512, exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    let t = x * LOG2E + ROUND;
    let n = t - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = (((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2)
        * r
        + 1.666_666_5e-1)
        * r
        + 0.5)
        * (r * r)
        + r
        + 1.0;
    // `t`'s low mantissa bits hold `n` offset by `ROUND`'s bits.
    let biased = t.to_bits().wrapping_sub(ROUND.to_bits()).wrapping_add(127);
    let e = p * f32::from_bits(biased << 23);
    if x < EXP_FLUSH_BELOW {
        0.0
    } else {
        e
    }
}

/// Folds the 16 lane partials pairwise in halves (`l` with `l + 8`, then
/// `l + 4`, …): one fixed order for every backend.
#[inline(always)]
fn fold_lanes(mut lanes: [f32; SOFTMAX_LANES], f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut w = SOFTMAX_LANES / 2;
    while w > 0 {
        for l in 0..w {
            lanes[l] = f(lanes[l], lanes[l + w]);
        }
        w /= 2;
    }
    lanes[0]
}

/// `a` if `a > b`, else `b`: never picks a NaN `a`, so a NaN score drops out
/// of the row max (as with `f32::max`) and propagates through `exp` instead.
#[inline(always)]
fn max_keep(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `out = softmax(alpha · x)` for one row (`out.len() == x.len()`).
///
/// Three passes: the row max of `alpha·x` and the row sum of
/// `exp_flush(alpha·x − max)` each accumulate element `i` into lane
/// `i mod 16` of a `[f32; 16]` (the tail included), then fold the lanes with
/// [`fold_lanes`]; the last pass multiplies by `1/sum`. Non-finite inputs:
/// a NaN or `+∞` anywhere makes the whole row NaN, a `−∞` entry gets weight
/// exactly 0, and an all-`−∞` row is NaN.
#[inline(always)]
pub(crate) fn softmax_row(x: &[f32], alpha: f32, out: &mut [f32]) {
    const L: usize = SOFTMAX_LANES;
    let out = &mut out[..x.len()];

    let mut maxes = [f32::NEG_INFINITY; L];
    let mut xs = x.chunks_exact(L);
    for chunk in &mut xs {
        for (m, &v) in maxes.iter_mut().zip(chunk) {
            *m = max_keep(alpha * v, *m);
        }
    }
    for (m, &v) in maxes.iter_mut().zip(xs.remainder()) {
        *m = max_keep(alpha * v, *m);
    }
    let max = fold_lanes(maxes, max_keep);

    let mut sums = [0.0f32; L];
    let mut xs = x.chunks_exact(L);
    let mut os = out.chunks_exact_mut(L);
    for (chunk, ochunk) in (&mut xs).zip(&mut os) {
        for ((s, o), &v) in sums.iter_mut().zip(ochunk).zip(chunk) {
            let e = exp_flush(alpha * v - max);
            *o = e;
            *s += e;
        }
    }
    for ((s, o), &v) in sums.iter_mut().zip(os.into_remainder()).zip(xs.remainder()) {
        let e = exp_flush(alpha * v - max);
        *o = e;
        *s += e;
    }

    let inv = 1.0 / fold_lanes(sums, |a, b| a + b);
    for o in out {
        *o *= inv;
    }
}

// ---- fused row/optimizer kernels ------------------------------------------

/// Elementwise phase of row-wise layer norm: given the row's precomputed
/// `mean` and `istd = 1/σ` (reductions stay sequential scalar in the caller
/// so their accumulation order never changes), writes `x̂ = (x−μ)·istd` into
/// `normed_row` and `γ·x̂ + β` into `out_row`.
#[inline(always)]
pub(crate) fn layer_norm_row(
    x_row: &[f32],
    gamma: &[f32],
    beta: &[f32],
    mean: f32,
    istd: f32,
    normed_row: &mut [f32],
    out_row: &mut [f32],
) {
    for (((&x, &g), &b), (nr, or)) in x_row
        .iter()
        .zip(gamma)
        .zip(beta)
        .zip(normed_row.iter_mut().zip(out_row.iter_mut()))
    {
        let n = (x - mean) * istd;
        *nr = n;
        *or = g * n + b;
    }
}

/// One Adam update over a parameter's flat buffers. Fully elementwise
/// (`sqrt`/`div` are IEEE-exact), so vectorization cannot change results.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn adam_update(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    scale: f32,
    b1: f32,
    b2: f32,
    bias1: f32,
    bias2: f32,
    lr: f32,
    eps: f32,
) {
    for (((w, &g), mi), vi) in w.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        let g = g * scale;
        *mi = b1 * *mi + (1.0 - b1) * g;
        *vi = b2 * *vi + (1.0 - b2) * g * g;
        let mhat = *mi / bias1;
        let vhat = *vi / bias2;
        *w -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// One SGD update `w ← w − lr·g` over a parameter's flat buffers.
#[inline(always)]
pub(crate) fn sgd_update(w: &mut [f32], g: &[f32], lr: f32) {
    for (w, &g) in w.iter_mut().zip(g) {
        *w -= lr * g;
    }
}
