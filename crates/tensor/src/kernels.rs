//! Fused, rayon-parallel elementwise/reduction kernels — everything that
//! is not GEMM.
//!
//! PR 2 made matrix multiplication fast enough that the serial scalar
//! loops in `nn.rs` and `optim.rs` dominated real training steps. This
//! module is the shared substrate those layers now sit on: chunked
//! elementwise maps, row-parallel softmax/layernorm, blocked column
//! reductions, and fused kernels (softmax+cross-entropy, bias+GELU,
//! add+ReLU, single-pass Adam/SGD) that cut memory traffic by touching
//! each activation once instead of once per composed op.
//!
//! ## Determinism rule
//!
//! Serial and parallel execution produce **bit-identical** results. The
//! discipline (same as the GEMM engine in [`crate::matmul`]):
//!
//! * Work is decomposed into *fixed-size* units — [`CHUNK`]-element
//!   slices for elementwise ops, rows for row kernels, [`ROW_BLOCK`]-row
//!   blocks for column reductions — whose geometry never depends on the
//!   thread count.
//! * Each unit runs the identical scalar loop in both modes; only the
//!   executor differs (a `for` loop vs `par_chunks_mut`).
//! * Reductions that cross units (column sums, the scalar loss) are
//!   computed as per-unit partials and folded *serially in unit order*,
//!   so the floating-point association is fixed.
//!
//! Property tests pin this: every kernel is run under thread pools of
//! different sizes (with the parallel path forced) and compared with
//! `==`, not a tolerance.
//!
//! ## Allocation discipline
//!
//! All scratch (reduction partials, rope tables, outputs handed back to
//! callers) is drawn from the global [`crate::workspace`] pool, so a
//! warm training step performs no fresh heap allocation in these
//! kernels; the steady-state tests assert the workspace counters stay
//! flat.

use crate::simd::{self, Arm};
use crate::workspace;
use rayon::prelude::*;
use std::sync::{Arc, LazyLock, Mutex};

/// Dispatch one work unit to the active arm. The AVX2 expression runs
/// inside an `unsafe` block justified by the dispatcher invariant: the
/// `Avx2` arm is only ever selected when `avx2+fma` were detected at
/// runtime ([`simd::active_arm`] / [`simd::with_arm`] enforce this).
macro_rules! arm_dispatch {
    ($arm:expr, avx2 => $vec:expr, scalar => $scal:expr $(,)?) => {
        match $arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: see macro docs — Avx2 implies detected avx2+fma.
            Arm::Avx2 => unsafe { $vec },
            #[cfg(not(target_arch = "x86_64"))]
            Arm::Avx2 => unreachable!("AVX2 arm dispatched on non-x86_64"),
            Arm::Scalar => $scal,
        }
    };
}
pub(crate) use arm_dispatch;

/// Fixed elementwise work unit (elements). Thread-count-independent so
/// chunk geometry — and therefore every intermediate rounding — is the
/// same no matter how many workers execute the chunks.
pub const CHUNK: usize = 16 * 1024;

/// Fixed row-block size for column reductions: partial sums are computed
/// per block of this many rows and folded serially in block order.
pub const ROW_BLOCK: usize = 32;

/// Minimum elements of work per thread before parallel dispatch pays:
/// the work must outlast a parked worker's wake-up (about 60 µs).
/// Re-measured with persistent workers, 2¹⁴ and 2¹⁶ moved neither train
/// step beyond host noise.
const PAR_MIN_ELEMS_PER_THREAD: usize = 1 << 15;

#[cfg(test)]
thread_local! {
    static FORCE_PAR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test hook: run `f` with the parallel path forced on regardless of
/// problem size, so determinism tests exercise it at small shapes.
#[cfg(test)]
pub fn with_forced_parallel<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_PAR.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCE_PAR.with(|c| c.replace(true)));
    f()
}

/// Parallel dispatch decision. Serial execution is preferred on one
/// thread or below the grain size — the results are bit-identical either
/// way, so this is purely a performance cutover.
pub(crate) fn use_parallel(work: usize) -> bool {
    #[cfg(test)]
    if FORCE_PAR.with(|c| c.get()) {
        return true;
    }
    let threads = rayon::current_num_threads();
    threads > 1 && work >= PAR_MIN_ELEMS_PER_THREAD * threads
}

// ---------- elementwise ----------

/// `dst[i] = f(src[i])`, chunk-parallel.
pub fn map_into(src: &[f32], dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    debug_assert_eq!(src.len(), dst.len());
    let body = |ci: usize, d: &mut [f32]| {
        let s = &src[ci * CHUNK..ci * CHUNK + d.len()];
        for (dv, sv) in d.iter_mut().zip(s) {
            *dv = f(*sv);
        }
    };
    if use_parallel(dst.len()) {
        dst.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    } else {
        dst.chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    }
}

/// `dst[i] = f(a[i], b[i])`, chunk-parallel.
pub fn zip_map_into(a: &[f32], b: &[f32], dst: &mut [f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(a.len(), dst.len());
    debug_assert_eq!(b.len(), dst.len());
    let body = |ci: usize, d: &mut [f32]| {
        let off = ci * CHUNK;
        let (ac, bc) = (&a[off..off + d.len()], &b[off..off + d.len()]);
        for ((dv, av), bv) in d.iter_mut().zip(ac).zip(bc) {
            *dv = f(*av, *bv);
        }
    };
    if use_parallel(dst.len()) {
        dst.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    } else {
        dst.chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    }
}

/// In-place `dst[i] += alpha * src[i]`, chunk-parallel (gradient
/// accumulation hot path).
pub fn axpy(alpha: f32, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    let body = |ci: usize, d: &mut [f32]| {
        let s = &src[ci * CHUNK..ci * CHUNK + d.len()];
        for (dv, sv) in d.iter_mut().zip(s) {
            *dv += alpha * sv;
        }
    };
    if use_parallel(dst.len()) {
        dst.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    } else {
        dst.chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    }
}

/// Suffix broadcast: `dst[i] = f(a[i], b[i mod b.len()])` where `b` tiles
/// the trailing axis/axes of `a` (`b.len()` divides `a.len()`). This is
/// the bias-add / attention-mask pattern; the general broadcast path
/// decodes a multi-index per element and is ~40x slower.
pub fn broadcast_suffix_into(
    a: &[f32],
    b: &[f32],
    dst: &mut [f32],
    f: impl Fn(f32, f32) -> f32 + Sync,
) {
    let n = b.len();
    debug_assert!(n > 0 && a.len().is_multiple_of(n));
    debug_assert_eq!(a.len(), dst.len());
    // Group whole repeats of `b` into ~CHUNK-element parallel units.
    let reps_per_unit = (CHUNK / n).max(1);
    let unit = reps_per_unit * n;
    let body = |ci: usize, d: &mut [f32]| {
        let ac = &a[ci * unit..ci * unit + d.len()];
        for (drow, arow) in d.chunks_mut(n).zip(ac.chunks(n)) {
            for ((dv, av), bv) in drow.iter_mut().zip(arow).zip(b) {
                *dv = f(*av, *bv);
            }
        }
    };
    if use_parallel(dst.len()) {
        dst.par_chunks_mut(unit)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    } else {
        dst.chunks_mut(unit)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    }
}

// ---------- blocked column reduction ----------

/// `dst[i] += src[i]`, arm-dispatched. Both arms perform the identical
/// per-element additions in the identical order (the vector arm only
/// widens the instruction), so this helper is bit-transparent — callers'
/// fold semantics are unchanged.
#[inline]
fn add_assign(dst: &mut [f32], src: &[f32], arm: Arm) {
    debug_assert_eq!(dst.len(), src.len());
    arm_dispatch!(
        arm,
        avx2 => x86::add_assign(dst, src),
        scalar => {
            for (o, v) in dst.iter_mut().zip(src) {
                *o += v;
            }
        }
    );
}

/// Column sum of a row-major `[rows, n]` matrix into `out[n]`, computed
/// as per-[`ROW_BLOCK`] partials folded serially in block order (fixed
/// association — bit-identical at any thread count).
pub fn col_sum_rows(x: &[f32], out: &mut [f32], n: usize) {
    debug_assert!(n > 0 && x.len().is_multiple_of(n));
    debug_assert_eq!(out.len(), n);
    let arm = simd::active_arm();
    let rows = x.len() / n;
    let blocks = rows.div_ceil(ROW_BLOCK);
    if blocks <= 1 {
        out.fill(0.0);
        for row in x.chunks(n) {
            add_assign(out, row, arm);
        }
        return;
    }
    let ws = workspace::global();
    let mut partials = ws.take_zeroed(blocks * n);
    let body = |bi: usize, p: &mut [f32]| {
        let lo = bi * ROW_BLOCK * n;
        let hi = (lo + ROW_BLOCK * n).min(x.len());
        for row in x[lo..hi].chunks(n) {
            add_assign(p, row, arm);
        }
    };
    if use_parallel(x.len()) {
        partials
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(bi, p)| body(bi, p));
    } else {
        partials
            .chunks_mut(n)
            .enumerate()
            .for_each(|(bi, p)| body(bi, p));
    }
    out.fill(0.0);
    for p in partials.chunks(n) {
        add_assign(out, p, arm);
    }
    ws.give(partials);
}

// ---------- activations ----------

/// GELU with the tanh approximation (GPT-2 / Megatron-LM). Thin wrapper
/// over the dispatch-paired [`simd::gelu_s`]; prefer [`gelu_into`] /
/// [`gelu_grad_mul_into`] for whole buffers (they hoist the rounding
/// contract lookup and vectorise).
#[inline]
pub fn gelu_scalar(v: f32) -> f32 {
    simd::gelu_s(v, simd::fma_chains())
}

/// Derivative of [`gelu_scalar`].
#[inline]
pub fn gelu_grad_scalar(v: f32) -> f32 {
    simd::gelu_grad_s(v, simd::fma_chains())
}

/// `dst = gelu(src)`, chunk-parallel and arm-dispatched (the polynomial
/// exp pipeline beats the libm `tanh` call several-fold even scalar).
pub fn gelu_into(src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let body = |ci: usize, d: &mut [f32]| {
        let s = &src[ci * CHUNK..ci * CHUNK + d.len()];
        arm_dispatch!(
            arm,
            avx2 => x86::gelu_slice(s, d),
            scalar => {
                for (dv, sv) in d.iter_mut().zip(s) {
                    *dv = simd::gelu_s(*sv, fma);
                }
            }
        );
    };
    if use_parallel(dst.len()) {
        dst.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    } else {
        dst.chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    }
}

/// `dst = gelu'(x) ⊙ dy`, chunk-parallel and arm-dispatched (the GELU
/// backward hot path).
pub fn gelu_grad_mul_into(x: &[f32], dy: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(x.len(), dst.len());
    debug_assert_eq!(dy.len(), dst.len());
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let body = |ci: usize, d: &mut [f32]| {
        let off = ci * CHUNK;
        let (xc, dyc) = (&x[off..off + d.len()], &dy[off..off + d.len()]);
        arm_dispatch!(
            arm,
            avx2 => x86::gelu_grad_mul_slice(xc, dyc, d),
            scalar => {
                for ((dv, xv), gv) in d.iter_mut().zip(xc).zip(dyc) {
                    *dv = simd::gelu_grad_s(*xv, fma) * gv;
                }
            }
        );
    };
    if use_parallel(dst.len()) {
        dst.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    } else {
        dst.chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, d)| body(ci, d));
    }
}

/// Fused bias + GELU over a row-major `[rows, n]` matrix: writes the
/// pre-activation `pre = x + bias` (needed by the backward) and the
/// output `y = gelu(pre)` in one pass over the data.
pub fn bias_gelu(x: &[f32], bias: &[f32], pre: &mut [f32], y: &mut [f32]) {
    let n = bias.len();
    debug_assert!(n > 0 && x.len().is_multiple_of(n));
    debug_assert_eq!(x.len(), pre.len());
    debug_assert_eq!(x.len(), y.len());
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let reps_per_unit = (CHUNK / n).max(1);
    let unit = reps_per_unit * n;
    let body = |ci: usize, (yc, pc): (&mut [f32], &mut [f32])| {
        let xc = &x[ci * unit..ci * unit + yc.len()];
        for ((yrow, prow), xrow) in yc.chunks_mut(n).zip(pc.chunks_mut(n)).zip(xc.chunks(n)) {
            arm_dispatch!(
                arm,
                avx2 => x86::bias_gelu_row(xrow, bias, prow, yrow),
                scalar => {
                    for (((yv, pv), xv), bv) in yrow.iter_mut().zip(prow.iter_mut()).zip(xrow).zip(bias)
                    {
                        let p = xv + bv;
                        *pv = p;
                        *yv = simd::gelu_s(p, fma);
                    }
                }
            );
        }
    };
    if use_parallel(x.len()) {
        y.par_chunks_mut(unit)
            .zip(pre.par_chunks_mut(unit))
            .enumerate()
            .for_each(|(ci, pair)| body(ci, pair));
    } else {
        y.chunks_mut(unit)
            .zip(pre.chunks_mut(unit))
            .enumerate()
            .for_each(|(ci, pair)| body(ci, pair));
    }
}

/// Backward of [`bias_gelu`]: `dx = gelu'(pre) ⊙ dy` (written to `dx`)
/// and `dbias = column-sum(dx)`, with the column sum blocked per
/// [`ROW_BLOCK`] rows and folded in block order. One pass computes both.
pub fn bias_gelu_backward(pre: &[f32], dy: &[f32], dx: &mut [f32], dbias: &mut [f32]) {
    let n = dbias.len();
    debug_assert!(n > 0 && pre.len().is_multiple_of(n));
    debug_assert_eq!(pre.len(), dy.len());
    debug_assert_eq!(pre.len(), dx.len());
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let rows = pre.len() / n;
    let blocks = rows.div_ceil(ROW_BLOCK);
    let ws = workspace::global();
    let mut partials = ws.take_zeroed(blocks * n);
    let body = |bi: usize, (dxc, p): (&mut [f32], &mut [f32])| {
        let off = bi * ROW_BLOCK * n;
        let (prec, dyc) = (&pre[off..off + dxc.len()], &dy[off..off + dxc.len()]);
        for ((dxrow, prerow), dyrow) in dxc.chunks_mut(n).zip(prec.chunks(n)).zip(dyc.chunks(n)) {
            arm_dispatch!(
                arm,
                avx2 => x86::bias_gelu_backward_row(prerow, dyrow, dxrow, p),
                scalar => {
                    for (((dxv, prev), dyv), pv) in
                        dxrow.iter_mut().zip(prerow).zip(dyrow).zip(p.iter_mut())
                    {
                        let d = simd::gelu_grad_s(*prev, fma) * dyv;
                        *dxv = d;
                        *pv += d;
                    }
                }
            );
        }
    };
    if use_parallel(pre.len()) {
        dx.par_chunks_mut(ROW_BLOCK * n)
            .zip(partials.par_chunks_mut(n))
            .enumerate()
            .for_each(|(bi, pair)| body(bi, pair));
    } else {
        dx.chunks_mut(ROW_BLOCK * n)
            .zip(partials.chunks_mut(n))
            .enumerate()
            .for_each(|(bi, pair)| body(bi, pair));
    }
    dbias.fill(0.0);
    for p in partials.chunks(n) {
        add_assign(dbias, p, arm);
    }
    ws.give(partials);
}

/// Fused residual add + ReLU: `y = max(a + b, 0)`.
pub fn add_relu(a: &[f32], b: &[f32], y: &mut [f32]) {
    zip_map_into(a, b, y, |av, bv| (av + bv).max(0.0));
}

/// Backward of [`add_relu`] given the *output* `y`: both operands of the
/// add receive the same gradient `dy ⊙ [y > 0]`.
pub fn add_relu_backward(y: &[f32], dy: &[f32], dx: &mut [f32]) {
    zip_map_into(y, dy, dx, |yv, gv| if yv > 0.0 { gv } else { 0.0 });
}

// ---------- softmax & cross-entropy ----------

/// Scalar arm of the shared softmax/cross-entropy row core: writes
/// `out[i] = exp(src[i] − max(src))` and returns `(max, sum)` with the
/// canonical trees ([`simd::max8`], 8 lane partials + [`simd::fold8`])
/// and the paired [`simd::exp_s`], so every intermediate is
/// bit-identical to [`x86::exp_row`].
pub(crate) fn exp_row_scalar(src: &[f32], out: &mut [f32], fma: bool) -> (f32, f32) {
    let n = src.len();
    let n8 = n - n % 8;
    let m = simd::max8(src);
    let mut lanes = [0.0f32; 8];
    for i in (0..n8).step_by(8) {
        for l in 0..8 {
            let e = simd::exp_s(src[i + l] - m, fma);
            out[i + l] = e;
            lanes[l] += e;
        }
    }
    let mut sum = simd::fold8(lanes);
    for i in n8..n {
        let e = simd::exp_s(src[i] - m, fma);
        out[i] = e;
        sum += e;
    }
    (m, sum)
}

/// In-place variant of [`exp_row_scalar`] for the fused attention row:
/// `row = exp(row − max(row))`, returns the sum. Same canonical trees,
/// bit-identical to [`x86::exp_row_inplace`].
pub(crate) fn exp_row_inplace_scalar(row: &mut [f32], fma: bool) -> f32 {
    let n = row.len();
    let n8 = n - n % 8;
    let m = simd::max8(row);
    let mut lanes = [0.0f32; 8];
    for i in (0..n8).step_by(8) {
        for l in 0..8 {
            let e = simd::exp_s(row[i + l] - m, fma);
            row[i + l] = e;
            lanes[l] += e;
        }
    }
    let mut sum = simd::fold8(lanes);
    for v in &mut row[n8..] {
        let e = simd::exp_s(*v - m, fma);
        *v = e;
        sum += e;
    }
    sum
}

/// One softmax row on the scalar arm, bit-identical to
/// [`x86::softmax_row`].
fn softmax_row_scalar(src: &[f32], out: &mut [f32], fma: bool) {
    let (_, sum) = exp_row_scalar(src, out, fma);
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Numerically stable softmax over rows of length `n`, row-parallel.
pub fn softmax_rows(x: &[f32], out: &mut [f32], n: usize) {
    debug_assert!(n > 0 && x.len().is_multiple_of(n));
    debug_assert_eq!(x.len(), out.len());
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let body = |r: usize, row: &mut [f32]| {
        let src = &x[r * n..(r + 1) * n];
        arm_dispatch!(
            arm,
            avx2 => x86::softmax_row(src, row),
            scalar => softmax_row_scalar(src, row, fma),
        );
    };
    if use_parallel(x.len()) {
        out.par_chunks_mut(n)
            .enumerate()
            .for_each(|(r, row)| body(r, row));
    } else {
        out.chunks_mut(n)
            .enumerate()
            .for_each(|(r, row)| body(r, row));
    }
}

/// Backward of row softmax given the *output* `y`: per row
/// `dx = y ⊙ (dy − (dy·y) 1)`, row-parallel, O(n) per row.
pub fn softmax_backward_rows(y: &[f32], dy: &[f32], dx: &mut [f32], n: usize) {
    debug_assert!(n > 0 && y.len().is_multiple_of(n));
    debug_assert_eq!(y.len(), dy.len());
    debug_assert_eq!(y.len(), dx.len());
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let body = |r: usize, row: &mut [f32]| {
        let (yr, dyr) = (&y[r * n..(r + 1) * n], &dy[r * n..(r + 1) * n]);
        arm_dispatch!(
            arm,
            avx2 => x86::softmax_backward_row(yr, dyr, row),
            scalar => {
                let dot = simd::dot8(yr, dyr, fma);
                for ((o, yv), dyv) in row.iter_mut().zip(yr).zip(dyr) {
                    *o = yv * (dyv - dot);
                }
            }
        );
    };
    if use_parallel(y.len()) {
        dx.par_chunks_mut(n)
            .enumerate()
            .for_each(|(r, row)| body(r, row));
    } else {
        dx.chunks_mut(n)
            .enumerate()
            .for_each(|(r, row)| body(r, row));
    }
}

/// Fused softmax + mean cross-entropy from raw logits `[rows, v]`:
/// one pass per row computes the loss contribution and writes the
/// gradient of the *mean* loss, `(softmax(x) − onehot(t)) / rows`,
/// without materialising the probabilities separately. Returns the mean
/// loss; per-row losses are folded serially in row order.
pub fn softmax_xent_rows(logits: &[f32], targets: &[usize], grad: &mut [f32], v: usize) -> f32 {
    let rows = targets.len();
    debug_assert_eq!(logits.len(), rows * v);
    debug_assert_eq!(grad.len(), logits.len());
    let scale = 1.0 / rows as f32;
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let body = |r: usize, grow: &mut [f32]| -> f32 {
        let row = &logits[r * v..(r + 1) * v];
        let t = targets[r];
        assert!(t < v, "target {t} out of vocabulary {v}");
        // Exponentials + row sum share the softmax row kernels; the
        // scalar epilogue (`ln`, the onehot subtraction) operates on
        // arm-identical inputs, so the loss matches bit-for-bit too.
        let (m, sum) = arm_dispatch!(
            arm,
            avx2 => x86::exp_row(row, grow),
            scalar => exp_row_scalar(row, grow, fma),
        );
        let inv = scale / sum;
        arm_dispatch!(
            arm,
            avx2 => x86::scale_slice(grow, inv),
            scalar => {
                for g in grow.iter_mut() {
                    *g *= inv;
                }
            }
        );
        grow[t] -= scale;
        sum.ln() - (row[t] - m)
    };
    let loss_sum: f32 = if use_parallel(logits.len()) {
        let losses: Vec<f32> = grad
            .par_chunks_mut(v)
            .enumerate()
            .map(|(r, grow)| body(r, grow))
            .collect();
        losses.into_iter().sum()
    } else {
        grad.chunks_mut(v)
            .enumerate()
            .map(|(r, grow)| body(r, grow))
            .sum()
    };
    loss_sum * scale
}

// ---------- layernorm ----------

/// One LayerNorm row on the scalar arm: mean via [`simd::sum8`],
/// variance via 8 fused lane chains + [`simd::fold8`], then the
/// normalise/affine pass — each step the exact operation sequence of
/// [`x86::layernorm_row`]. Returns the inverse std.
fn layernorm_row_scalar(
    row: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    orow: &mut [f32],
    xhrow: &mut [f32],
    fma: bool,
) -> f32 {
    let n = row.len();
    let n8 = n - n % 8;
    let mean = simd::sum8(row) / n as f32;
    let mut lanes = [0.0f32; 8];
    for i in (0..n8).step_by(8) {
        for l in 0..8 {
            let d = row[i + l] - mean;
            lanes[l] = simd::fmadd(d, d, lanes[l], fma);
        }
    }
    let mut vsum = simd::fold8(lanes);
    for &v in &row[n8..] {
        let d = v - mean;
        vsum = simd::fmadd(d, d, vsum, fma);
    }
    let var = vsum / n as f32;
    let istd = 1.0 / (var + eps).sqrt();
    for i in 0..n {
        let h = (row[i] - mean) * istd;
        xhrow[i] = h;
        orow[i] = h * gamma[i] + beta[i];
    }
    istd
}

/// LayerNorm forward over rows of length `n`: writes `xhat` and the
/// scaled/shifted output, and the per-row inverse std into `inv_std`
/// (length `rows`). Row-parallel; each row's statistics are a fixed
/// serial reduction.
pub fn layernorm_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    xhat: &mut [f32],
    inv_std: &mut [f32],
) {
    let n = gamma.len();
    debug_assert!(n > 0 && x.len().is_multiple_of(n));
    debug_assert_eq!(beta.len(), n);
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), xhat.len());
    debug_assert_eq!(inv_std.len(), x.len() / n);
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let body = |r: usize, (orow, (xhrow, isr)): (&mut [f32], (&mut [f32], &mut [f32]))| {
        let row = &x[r * n..(r + 1) * n];
        arm_dispatch!(
            arm,
            avx2 => isr[0] = x86::layernorm_row(row, gamma, beta, eps, orow, xhrow),
            scalar => isr[0] = layernorm_row_scalar(row, gamma, beta, eps, orow, xhrow, fma),
        );
    };
    if use_parallel(x.len()) {
        out.par_chunks_mut(n)
            .zip(xhat.par_chunks_mut(n).zip(inv_std.par_chunks_mut(1)))
            .enumerate()
            .for_each(|(r, args)| body(r, args));
    } else {
        out.chunks_mut(n)
            .zip(xhat.chunks_mut(n).zip(inv_std.chunks_mut(1)))
            .enumerate()
            .for_each(|(r, args)| body(r, args));
    }
}

/// One LayerNorm backward row on the scalar arm, with the canonical
/// 8-lane trees for the two row sums and fused chains exactly pairing
/// [`x86::layernorm_backward_row`] (`fnmadd` in the vector arm pairs
/// with `fmadd(-xh, ·, ·)` here). Updates `pg`/`pb` partials in place.
#[allow(clippy::too_many_arguments)]
fn layernorm_backward_row_scalar(
    dyr: &[f32],
    xhr: &[f32],
    gamma: &[f32],
    istd: f32,
    inv_n: f32,
    dxrow: &mut [f32],
    pg: &mut [f32],
    pb: &mut [f32],
    fma: bool,
) {
    let n = dyr.len();
    let n8 = n - n % 8;
    let mut lg = [0.0f32; 8];
    let mut lx = [0.0f32; 8];
    for i in (0..n8).step_by(8) {
        for l in 0..8 {
            let dy_v = dyr[i + l];
            let xh_v = xhr[i + l];
            let dyg = dy_v * gamma[i + l];
            lg[l] += dyg;
            lx[l] = simd::fmadd(dyg, xh_v, lx[l], fma);
            pg[i + l] = simd::fmadd(dy_v, xh_v, pg[i + l], fma);
            pb[i + l] += dy_v;
        }
    }
    let mut sum_dyg = simd::fold8(lg);
    let mut sum_dyg_xh = simd::fold8(lx);
    for i in n8..n {
        let dy_v = dyr[i];
        let xh_v = xhr[i];
        let dyg = dy_v * gamma[i];
        sum_dyg += dyg;
        sum_dyg_xh = simd::fmadd(dyg, xh_v, sum_dyg_xh, fma);
        pg[i] = simd::fmadd(dy_v, xh_v, pg[i], fma);
        pb[i] += dy_v;
    }
    let a = inv_n * sum_dyg;
    let bc = inv_n * sum_dyg_xh;
    for i in 0..n {
        let t = dyr[i] * gamma[i] - a;
        dxrow[i] = istd * simd::fmadd(-xhr[i], bc, t, fma);
    }
}

/// LayerNorm backward: `dx` is row-parallel; `dgamma`/`dbeta` are
/// blocked column sums folded in block order (fixed association).
#[allow(clippy::too_many_arguments)]
pub fn layernorm_backward_rows(
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    dy: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let n = gamma.len();
    debug_assert!(n > 0 && dy.len().is_multiple_of(n));
    let rows = dy.len() / n;
    debug_assert_eq!(inv_std.len(), rows);
    debug_assert_eq!(xhat.len(), dy.len());
    debug_assert_eq!(dx.len(), dy.len());
    debug_assert_eq!(dgamma.len(), n);
    debug_assert_eq!(dbeta.len(), n);
    let blocks = rows.div_ceil(ROW_BLOCK);
    let ws = workspace::global();
    // Per-block partials: dgamma in the first n slots, dbeta in the next.
    let mut partials = ws.take_zeroed(blocks * 2 * n);
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    let inv_n = 1.0 / n as f32;
    let body = |bi: usize, (dxc, p): (&mut [f32], &mut [f32])| {
        let (pg, pb) = p.split_at_mut(n);
        let row0 = bi * ROW_BLOCK;
        for (k, dxrow) in dxc.chunks_mut(n).enumerate() {
            let r = row0 + k;
            let dyr = &dy[r * n..(r + 1) * n];
            let xhr = &xhat[r * n..(r + 1) * n];
            let istd = inv_std[r];
            arm_dispatch!(
                arm,
                avx2 => x86::layernorm_backward_row(dyr, xhr, gamma, istd, inv_n, dxrow, pg, pb),
                scalar => layernorm_backward_row_scalar(
                    dyr, xhr, gamma, istd, inv_n, dxrow, pg, pb, fma,
                ),
            );
        }
    };
    if use_parallel(dy.len()) {
        dx.par_chunks_mut(ROW_BLOCK * n)
            .zip(partials.par_chunks_mut(2 * n))
            .enumerate()
            .for_each(|(bi, pair)| body(bi, pair));
    } else {
        dx.chunks_mut(ROW_BLOCK * n)
            .zip(partials.chunks_mut(2 * n))
            .enumerate()
            .for_each(|(bi, pair)| body(bi, pair));
    }
    dgamma.fill(0.0);
    dbeta.fill(0.0);
    for p in partials.chunks(2 * n) {
        add_assign(dgamma, &p[..n], arm);
        add_assign(dbeta, &p[n..], arm);
    }
    ws.give(partials);
}

// ---------- batchnorm ----------

/// BatchNorm2d forward statistics + normalisation over NCHW data.
/// Phase 1 computes per-channel mean/inv-std (channel-parallel, fixed
/// serial order within a channel); phase 2 normalises per `(n, c)` plane.
#[allow(clippy::too_many_arguments)]
pub fn batchnorm2d_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    dims: [usize; 4],
    out: &mut [f32],
    xhat: &mut [f32],
    inv_std: &mut [f32],
    means: &mut [f32],
) {
    let [n, c, h, w] = dims;
    let hw = h * w;
    let count = (n * hw) as f32;
    debug_assert_eq!(x.len(), n * c * hw);
    debug_assert_eq!(inv_std.len(), c);
    debug_assert_eq!(means.len(), c);
    let stats = |ci: usize, (isr, mr): (&mut [f32], &mut [f32])| {
        let mut mean = 0.0f32;
        for ni in 0..n {
            let base = (ni * c + ci) * hw;
            mean += x[base..base + hw].iter().sum::<f32>();
        }
        mean /= count;
        let mut var = 0.0f32;
        for ni in 0..n {
            let base = (ni * c + ci) * hw;
            var += x[base..base + hw]
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>();
        }
        var /= count;
        isr[0] = 1.0 / (var + eps).sqrt();
        mr[0] = mean;
    };
    if use_parallel(x.len()) {
        inv_std
            .par_chunks_mut(1)
            .zip(means.par_chunks_mut(1))
            .enumerate()
            .for_each(|(ci, pair)| stats(ci, pair));
    } else {
        inv_std
            .chunks_mut(1)
            .zip(means.chunks_mut(1))
            .enumerate()
            .for_each(|(ci, pair)| stats(ci, pair));
    }
    let norm = |p: usize, (orow, xhrow): (&mut [f32], &mut [f32])| {
        let ci = p % c;
        let (mean, istd) = (means[ci], inv_std[ci]);
        let (g, b) = (gamma[ci], beta[ci]);
        let src = &x[p * hw..(p + 1) * hw];
        for ((o, xh), v) in orow.iter_mut().zip(xhrow.iter_mut()).zip(src) {
            let hval = (v - mean) * istd;
            *xh = hval;
            *o = hval * g + b;
        }
    };
    if use_parallel(x.len()) {
        out.par_chunks_mut(hw)
            .zip(xhat.par_chunks_mut(hw))
            .enumerate()
            .for_each(|(p, pair)| norm(p, pair));
    } else {
        out.chunks_mut(hw)
            .zip(xhat.chunks_mut(hw))
            .enumerate()
            .for_each(|(p, pair)| norm(p, pair));
    }
}

/// BatchNorm2d backward: per-channel gradient sums (channel-parallel,
/// fixed order within a channel) then a plane-parallel `dx` pass.
#[allow(clippy::too_many_arguments)]
pub fn batchnorm2d_backward_rows(
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    dy: &[f32],
    dims: [usize; 4],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let [n, c, h, w] = dims;
    let hw = h * w;
    let count = (n * hw) as f32;
    let sums = |ci: usize, (dgr, dbr): (&mut [f32], &mut [f32])| {
        let mut sum_dy = 0.0f32;
        let mut sum_dy_xh = 0.0f32;
        for ni in 0..n {
            let base = (ni * c + ci) * hw;
            for k in 0..hw {
                sum_dy += dy[base + k];
                sum_dy_xh += dy[base + k] * xhat[base + k];
            }
        }
        dgr[0] = sum_dy_xh;
        dbr[0] = sum_dy;
    };
    if use_parallel(dy.len()) {
        dgamma
            .par_chunks_mut(1)
            .zip(dbeta.par_chunks_mut(1))
            .enumerate()
            .for_each(|(ci, pair)| sums(ci, pair));
    } else {
        dgamma
            .chunks_mut(1)
            .zip(dbeta.chunks_mut(1))
            .enumerate()
            .for_each(|(ci, pair)| sums(ci, pair));
    }
    let dxp = |p: usize, dxrow: &mut [f32]| {
        let ci = p % c;
        let (g, istd) = (gamma[ci], inv_std[ci]);
        let (sum_dy, sum_dy_xh) = (dbeta[ci], dgamma[ci]);
        let base = p * hw;
        for (k, o) in dxrow.iter_mut().enumerate() {
            *o = g * istd / count * (count * dy[base + k] - sum_dy - xhat[base + k] * sum_dy_xh);
        }
    };
    if use_parallel(dy.len()) {
        dx.par_chunks_mut(hw)
            .enumerate()
            .for_each(|(p, row)| dxp(p, row));
    } else {
        dx.chunks_mut(hw)
            .enumerate()
            .for_each(|(p, row)| dxp(p, row));
    }
}

// ---------- rotary embeddings ----------

/// Cached sin/cos tables for [`rope_rows`], keyed by `(seq, head_dim)`.
/// A table holds `seq * d` floats: cos at `[p*d + 2i]`, sin at
/// `[p*d + 2i + 1]` for position `p` and pair `i`. Recomputing
/// `powf`/`sin_cos` per element dominated the original kernel; the table
/// is built once per shape and shared via `Arc`.
type RopeTableCache = Vec<((usize, usize), Arc<Vec<f32>>)>;
static ROPE_TABLES: LazyLock<Mutex<RopeTableCache>> = LazyLock::new(|| Mutex::new(Vec::new()));

const MAX_ROPE_TABLES: usize = 8;

fn rope_table(seq: usize, d: usize) -> Arc<Vec<f32>> {
    let mut cache = ROPE_TABLES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, t)) = cache.iter().find(|(k, _)| *k == (seq, d)) {
        return Arc::clone(t);
    }
    let mut table = vec![0.0f32; seq * d];
    for p in 0..seq {
        for i in 0..d / 2 {
            // Same per-element expression as the reference kernel so the
            // cached path is bit-identical to the uncached one.
            let theta = (p as f32) * 10000f32.powf(-2.0 * i as f32 / d as f32);
            let (s, c) = theta.sin_cos();
            table[p * d + 2 * i] = c;
            table[p * d + 2 * i + 1] = s;
        }
    }
    let table = Arc::new(table);
    if cache.len() >= MAX_ROPE_TABLES {
        cache.remove(0);
    }
    cache.push(((seq, d), Arc::clone(&table)));
    table
}

/// One rope row on the scalar arm. The AVX2 twin ([`x86::rope_row`])
/// computes the identical products and replaces the even-lane
/// subtraction with addition of the negated product — bit-identical in
/// IEEE arithmetic (`a − b ≡ a + (−b)`), pinned by the equivalence
/// suite.
fn rope_row_scalar(src: &[f32], trow: &[f32], sign: f32, row: &mut [f32]) {
    for i in 0..src.len() / 2 {
        let c = trow[2 * i];
        let s = trow[2 * i + 1] * sign;
        let a = src[2 * i];
        let b = src[2 * i + 1];
        row[2 * i] = a * c - b * s;
        row[2 * i + 1] = a * s + b * c;
    }
}

/// Rotary positional embeddings over `[heads, seq, d]` (row-parallel,
/// cached trig tables). `inverse` applies the adjoint rotation.
pub fn rope_rows(x: &[f32], out: &mut [f32], heads: usize, seq: usize, d: usize, inverse: bool) {
    debug_assert_eq!(x.len(), heads * seq * d);
    debug_assert_eq!(x.len(), out.len());
    let table = rope_table(seq, d);
    let sign = if inverse { -1.0f32 } else { 1.0 };
    let arm = simd::active_arm();
    let body = |hr: usize, row: &mut [f32]| {
        let p = hr % seq;
        let trow = &table[p * d..(p + 1) * d];
        let src = &x[hr * d..(hr + 1) * d];
        arm_dispatch!(
            arm,
            avx2 => x86::rope_row(src, trow, sign, row),
            scalar => rope_row_scalar(src, trow, sign, row),
        );
    };
    if use_parallel(x.len()) {
        out.par_chunks_mut(d)
            .enumerate()
            .for_each(|(hr, row)| body(hr, row));
    } else {
        out.chunks_mut(d)
            .enumerate()
            .for_each(|(hr, row)| body(hr, row));
    }
}

// ---------- optimizer updates ----------

/// Fused single-pass Adam update over one parameter slab: folds weight
/// decay into the gradient, updates both moments and applies the
/// bias-corrected step in one traversal instead of five. `bc1`/`bc2`
/// are the bias-correction denominators `1 − βᵢᵗ`.
#[allow(clippy::too_many_arguments)]
pub fn adam_update(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    bc1: f32,
    bc2: f32,
) {
    debug_assert_eq!(param.len(), grad.len());
    debug_assert_eq!(param.len(), m.len());
    debug_assert_eq!(param.len(), v.len());
    let arm = simd::active_arm();
    let body = |ci: usize, (pc, (mc, vc)): (&mut [f32], (&mut [f32], &mut [f32]))| {
        let gc = &grad[ci * CHUNK..ci * CHUNK + pc.len()];
        arm_dispatch!(
            arm,
            avx2 => x86::adam_chunk(
                pc, gc, mc, vc, lr, beta1, beta2, eps, weight_decay, bc1, bc2,
            ),
            scalar => {
                for (((p, g), mm), vv) in pc.iter_mut().zip(gc).zip(mc.iter_mut()).zip(vc.iter_mut())
                {
                    let ge = g + weight_decay * *p;
                    *mm = beta1 * *mm + (1.0 - beta1) * ge;
                    *vv = beta2 * *vv + (1.0 - beta2) * ge * ge;
                    let mhat = *mm / bc1;
                    let vhat = *vv / bc2;
                    *p -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        );
    };
    if use_parallel(param.len()) {
        param
            .par_chunks_mut(CHUNK)
            .zip(m.par_chunks_mut(CHUNK).zip(v.par_chunks_mut(CHUNK)))
            .enumerate()
            .for_each(|(ci, args)| body(ci, args));
    } else {
        param
            .chunks_mut(CHUNK)
            .zip(m.chunks_mut(CHUNK).zip(v.chunks_mut(CHUNK)))
            .enumerate()
            .for_each(|(ci, args)| body(ci, args));
    }
}

/// Fused single-pass SGD-with-momentum update: folds weight decay into
/// the gradient, updates the velocity and applies the step in one
/// traversal.
pub fn sgd_momentum_update(
    param: &mut [f32],
    grad: &[f32],
    velocity: &mut [f32],
    lr: f32,
    momentum: f32,
    weight_decay: f32,
) {
    debug_assert_eq!(param.len(), grad.len());
    debug_assert_eq!(param.len(), velocity.len());
    let arm = simd::active_arm();
    let body = |ci: usize, (pc, vc): (&mut [f32], &mut [f32])| {
        let gc = &grad[ci * CHUNK..ci * CHUNK + pc.len()];
        arm_dispatch!(
            arm,
            avx2 => x86::sgd_momentum_chunk(pc, gc, vc, lr, momentum, weight_decay),
            scalar => {
                for ((p, g), vel) in pc.iter_mut().zip(gc).zip(vc.iter_mut()) {
                    let ge = g + weight_decay * *p;
                    *vel = momentum * *vel + ge;
                    *p -= lr * *vel;
                }
            }
        );
    };
    if use_parallel(param.len()) {
        param
            .par_chunks_mut(CHUNK)
            .zip(velocity.par_chunks_mut(CHUNK))
            .enumerate()
            .for_each(|(ci, args)| body(ci, args));
    } else {
        param
            .chunks_mut(CHUNK)
            .zip(velocity.chunks_mut(CHUNK))
            .enumerate()
            .for_each(|(ci, args)| body(ci, args));
    }
}

/// Plain SGD (no momentum state): `p -= lr * (g + wd·p)`.
pub fn sgd_update(param: &mut [f32], grad: &[f32], lr: f32, weight_decay: f32) {
    debug_assert_eq!(param.len(), grad.len());
    let arm = simd::active_arm();
    let body = |ci: usize, pc: &mut [f32]| {
        let gc = &grad[ci * CHUNK..ci * CHUNK + pc.len()];
        arm_dispatch!(
            arm,
            avx2 => x86::sgd_chunk(pc, gc, lr, weight_decay),
            scalar => {
                for (p, g) in pc.iter_mut().zip(gc) {
                    let ge = g + weight_decay * *p;
                    *p -= lr * ge;
                }
            }
        );
    };
    if use_parallel(param.len()) {
        param
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, pc)| body(ci, pc));
    } else {
        param
            .chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, pc)| body(ci, pc));
    }
}

// ---------- AVX2 arm bodies ----------

/// The AVX2+FMA work-unit bodies. Each function is the vector twin of
/// one scalar body above: the same IEEE operation sequence lane-wise
/// (loads widened to `f32x8`, the canonical 8-lane reduction trees of
/// [`crate::simd`], scalar tails running the literal scalar-arm code
/// with `fma = true`), so scalar and AVX2 arms are bit-identical — the
/// dispatch-equivalence suite compares them with `==`.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::simd::{self, avx2::*};
    use std::arch::x86_64::*;

    /// Twin of the scalar `dst[i] = fmadd(coef, src[i], dst[i])` loop
    /// (the attention accumulation primitive).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn axpy_fma(dst: &mut [f32], src: &[f32], coef: f32) {
        let n = dst.len();
        let n8 = n - n % 8;
        let cv = _mm256_set1_ps(coef);
        let d = dst.as_mut_ptr();
        let s = src.as_ptr();
        for i in (0..n8).step_by(8) {
            let v = _mm256_fmadd_ps(cv, _mm256_loadu_ps(s.add(i)), _mm256_loadu_ps(d.add(i)));
            _mm256_storeu_ps(d.add(i), v);
        }
        for i in n8..n {
            dst[i] = coef.mul_add(src[i], dst[i]);
        }
    }

    /// Twin of the scalar `dst[i] += src[i]` loop (same adds, same order).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
        let n = dst.len();
        let n8 = n - n % 8;
        let d = dst.as_mut_ptr();
        let s = src.as_ptr();
        for i in (0..n8).step_by(8) {
            let v = _mm256_add_ps(_mm256_loadu_ps(d.add(i)), _mm256_loadu_ps(s.add(i)));
            _mm256_storeu_ps(d.add(i), v);
        }
        for i in n8..n {
            dst[i] += src[i];
        }
    }

    /// Twin of the [`simd::gelu_s`] map loop.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn gelu_slice(src: &[f32], dst: &mut [f32]) {
        let n = src.len();
        let n8 = n - n % 8;
        for i in (0..n8).step_by(8) {
            let y = gelu_ps(_mm256_loadu_ps(src.as_ptr().add(i)));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), y);
        }
        for i in n8..n {
            dst[i] = simd::gelu_s(src[i], true);
        }
    }

    /// Twin of the `gelu_grad_s(x) * dy` map loop.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn gelu_grad_mul_slice(x: &[f32], dy: &[f32], dst: &mut [f32]) {
        let n = x.len();
        let n8 = n - n % 8;
        for i in (0..n8).step_by(8) {
            let d = _mm256_mul_ps(
                gelu_grad_ps(_mm256_loadu_ps(x.as_ptr().add(i))),
                _mm256_loadu_ps(dy.as_ptr().add(i)),
            );
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), d);
        }
        for i in n8..n {
            dst[i] = simd::gelu_grad_s(x[i], true) * dy[i];
        }
    }

    /// Twin of the fused bias+GELU row body.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn bias_gelu_row(xrow: &[f32], bias: &[f32], prow: &mut [f32], yrow: &mut [f32]) {
        let n = xrow.len();
        let n8 = n - n % 8;
        for i in (0..n8).step_by(8) {
            let p = _mm256_add_ps(
                _mm256_loadu_ps(xrow.as_ptr().add(i)),
                _mm256_loadu_ps(bias.as_ptr().add(i)),
            );
            _mm256_storeu_ps(prow.as_mut_ptr().add(i), p);
            _mm256_storeu_ps(yrow.as_mut_ptr().add(i), gelu_ps(p));
        }
        for i in n8..n {
            let p = xrow[i] + bias[i];
            prow[i] = p;
            yrow[i] = simd::gelu_s(p, true);
        }
    }

    /// Twin of the bias+GELU backward row body (also accumulates the
    /// dbias partial `p`).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn bias_gelu_backward_row(
        prerow: &[f32],
        dyrow: &[f32],
        dxrow: &mut [f32],
        p: &mut [f32],
    ) {
        let n = prerow.len();
        let n8 = n - n % 8;
        for i in (0..n8).step_by(8) {
            let d = _mm256_mul_ps(
                gelu_grad_ps(_mm256_loadu_ps(prerow.as_ptr().add(i))),
                _mm256_loadu_ps(dyrow.as_ptr().add(i)),
            );
            _mm256_storeu_ps(dxrow.as_mut_ptr().add(i), d);
            let pv = _mm256_add_ps(_mm256_loadu_ps(p.as_ptr().add(i)), d);
            _mm256_storeu_ps(p.as_mut_ptr().add(i), pv);
        }
        for i in n8..n {
            let d = simd::gelu_grad_s(prerow[i], true) * dyrow[i];
            dxrow[i] = d;
            p[i] += d;
        }
    }

    /// Twin of `exp_row_scalar`: `out = exp(src − max)`, returns
    /// `(max, sum)` with the canonical trees.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn exp_row(src: &[f32], out: &mut [f32]) -> (f32, f32) {
        let n = src.len();
        let n8 = n - n % 8;
        let m = vmax(src);
        let mv = _mm256_set1_ps(m);
        let mut acc = _mm256_setzero_ps();
        for i in (0..n8).step_by(8) {
            let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(src.as_ptr().add(i)), mv));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), e);
            acc = _mm256_add_ps(acc, e);
        }
        let mut sum = hsum8(acc);
        for i in n8..n {
            let e = simd::exp_s(src[i] - m, true);
            out[i] = e;
            sum += e;
        }
        (m, sum)
    }

    /// Twin of `softmax_row_scalar`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn softmax_row(src: &[f32], out: &mut [f32]) {
        let (_, sum) = exp_row(src, out);
        let n = out.len();
        let n8 = n - n % 8;
        let sv = _mm256_set1_ps(sum);
        let o = out.as_mut_ptr();
        for i in (0..n8).step_by(8) {
            _mm256_storeu_ps(o.add(i), _mm256_div_ps(_mm256_loadu_ps(o.add(i)), sv));
        }
        for ov in &mut out[n8..] {
            *ov /= sum;
        }
    }

    /// Twin of [`super::exp_row_inplace_scalar`].
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn exp_row_inplace(row: &mut [f32]) -> f32 {
        let n = row.len();
        let n8 = n - n % 8;
        let m = vmax(row);
        let mv = _mm256_set1_ps(m);
        let mut acc = _mm256_setzero_ps();
        let p = row.as_mut_ptr();
        for i in (0..n8).step_by(8) {
            let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mv));
            _mm256_storeu_ps(p.add(i), e);
            acc = _mm256_add_ps(acc, e);
        }
        let mut sum = hsum8(acc);
        for v in &mut row[n8..] {
            let e = simd::exp_s(*v - m, true);
            *v = e;
            sum += e;
        }
        sum
    }

    /// Twin of the `*o /= sum` softmax normalisation loop.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn div_slice(xs: &mut [f32], by: f32) {
        let n = xs.len();
        let n8 = n - n % 8;
        let bv = _mm256_set1_ps(by);
        let p = xs.as_mut_ptr();
        for i in (0..n8).step_by(8) {
            _mm256_storeu_ps(p.add(i), _mm256_div_ps(_mm256_loadu_ps(p.add(i)), bv));
        }
        for v in &mut xs[n8..] {
            *v /= by;
        }
    }

    /// Twin of the `*g *= inv` epilogue loop.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn scale_slice(xs: &mut [f32], by: f32) {
        let n = xs.len();
        let n8 = n - n % 8;
        let bv = _mm256_set1_ps(by);
        let p = xs.as_mut_ptr();
        for i in (0..n8).step_by(8) {
            _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), bv));
        }
        for v in &mut xs[n8..] {
            *v *= by;
        }
    }

    /// Twin of the softmax backward row body (`dot` via [`vdot`] =
    /// [`simd::dot8`]).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn softmax_backward_row(yr: &[f32], dyr: &[f32], out: &mut [f32]) {
        let dot = vdot(yr, dyr);
        let n = yr.len();
        let n8 = n - n % 8;
        let dv = _mm256_set1_ps(dot);
        for i in (0..n8).step_by(8) {
            let o = _mm256_mul_ps(
                _mm256_loadu_ps(yr.as_ptr().add(i)),
                _mm256_sub_ps(_mm256_loadu_ps(dyr.as_ptr().add(i)), dv),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(i), o);
        }
        for i in n8..n {
            out[i] = yr[i] * (dyr[i] - dot);
        }
    }

    /// Twin of `layernorm_row_scalar`. Returns the inverse std.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn layernorm_row(
        row: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        orow: &mut [f32],
        xhrow: &mut [f32],
    ) -> f32 {
        let n = row.len();
        let n8 = n - n % 8;
        let mean = vsum(row) / n as f32;
        let meanv = _mm256_set1_ps(mean);
        let mut acc = _mm256_setzero_ps();
        for i in (0..n8).step_by(8) {
            let d = _mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(i)), meanv);
            acc = _mm256_fmadd_ps(d, d, acc);
        }
        let mut sq = hsum8(acc);
        for &v in &row[n8..] {
            let d = v - mean;
            sq = d.mul_add(d, sq);
        }
        let var = sq / n as f32;
        let istd = 1.0 / (var + eps).sqrt();
        let iv = _mm256_set1_ps(istd);
        for i in (0..n8).step_by(8) {
            let h = _mm256_mul_ps(
                _mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(i)), meanv),
                iv,
            );
            _mm256_storeu_ps(xhrow.as_mut_ptr().add(i), h);
            let o = _mm256_add_ps(
                _mm256_mul_ps(h, _mm256_loadu_ps(gamma.as_ptr().add(i))),
                _mm256_loadu_ps(beta.as_ptr().add(i)),
            );
            _mm256_storeu_ps(orow.as_mut_ptr().add(i), o);
        }
        for i in n8..n {
            let h = (row[i] - mean) * istd;
            xhrow[i] = h;
            orow[i] = h * gamma[i] + beta[i];
        }
        istd
    }

    /// Twin of `layernorm_backward_row_scalar` (`vfnmadd` pairs with the
    /// scalar `fmadd(-xh, ·, ·)`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn layernorm_backward_row(
        dyr: &[f32],
        xhr: &[f32],
        gamma: &[f32],
        istd: f32,
        inv_n: f32,
        dxrow: &mut [f32],
        pg: &mut [f32],
        pb: &mut [f32],
    ) {
        let n = dyr.len();
        let n8 = n - n % 8;
        let mut vg = _mm256_setzero_ps();
        let mut vx = _mm256_setzero_ps();
        for i in (0..n8).step_by(8) {
            let dyv = _mm256_loadu_ps(dyr.as_ptr().add(i));
            let xhv = _mm256_loadu_ps(xhr.as_ptr().add(i));
            let dyg = _mm256_mul_ps(dyv, _mm256_loadu_ps(gamma.as_ptr().add(i)));
            vg = _mm256_add_ps(vg, dyg);
            vx = _mm256_fmadd_ps(dyg, xhv, vx);
            let pgv = _mm256_fmadd_ps(dyv, xhv, _mm256_loadu_ps(pg.as_ptr().add(i)));
            _mm256_storeu_ps(pg.as_mut_ptr().add(i), pgv);
            let pbv = _mm256_add_ps(_mm256_loadu_ps(pb.as_ptr().add(i)), dyv);
            _mm256_storeu_ps(pb.as_mut_ptr().add(i), pbv);
        }
        let mut sum_dyg = hsum8(vg);
        let mut sum_dyg_xh = hsum8(vx);
        for i in n8..n {
            let dy_v = dyr[i];
            let xh_v = xhr[i];
            let dyg = dy_v * gamma[i];
            sum_dyg += dyg;
            sum_dyg_xh = dyg.mul_add(xh_v, sum_dyg_xh);
            pg[i] = dy_v.mul_add(xh_v, pg[i]);
            pb[i] += dy_v;
        }
        let a = inv_n * sum_dyg;
        let bc = inv_n * sum_dyg_xh;
        let av = _mm256_set1_ps(a);
        let bcv = _mm256_set1_ps(bc);
        let iv = _mm256_set1_ps(istd);
        for i in (0..n8).step_by(8) {
            let t = _mm256_sub_ps(
                _mm256_mul_ps(
                    _mm256_loadu_ps(dyr.as_ptr().add(i)),
                    _mm256_loadu_ps(gamma.as_ptr().add(i)),
                ),
                av,
            );
            let d = _mm256_mul_ps(
                iv,
                _mm256_fnmadd_ps(_mm256_loadu_ps(xhr.as_ptr().add(i)), bcv, t),
            );
            _mm256_storeu_ps(dxrow.as_mut_ptr().add(i), d);
        }
        for i in n8..n {
            let t = dyr[i] * gamma[i] - a;
            dxrow[i] = istd * (-xhr[i]).mul_add(bc, t);
        }
    }

    /// Twin of `rope_row_scalar`. Pair layout in memory is
    /// `[a0, b0, a1, b1, …]`; `moveldup`/`movehdup` duplicate the cos/sin
    /// table entries across each pair, `permute(0xB1)` swaps `a↔b`, and
    /// the sign mask negates the even-lane product so the vector add
    /// reproduces the scalar `a·c − b·s` bit-for-bit (IEEE
    /// `x − y ≡ x + (−y)`).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn rope_row(src: &[f32], trow: &[f32], sign: f32, row: &mut [f32]) {
        let n = src.len();
        let n8 = n - n % 8;
        let signv = _mm256_set1_ps(sign);
        let negmask = _mm256_setr_ps(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
        for i in (0..n8).step_by(8) {
            let x = _mm256_loadu_ps(src.as_ptr().add(i));
            let tv = _mm256_loadu_ps(trow.as_ptr().add(i));
            let t_even = _mm256_moveldup_ps(tv);
            let t_odd = _mm256_mul_ps(_mm256_movehdup_ps(tv), signv);
            let x_swap = _mm256_permute_ps(x, 0b1011_0001);
            let p2 = _mm256_xor_ps(_mm256_mul_ps(x_swap, t_odd), negmask);
            let o = _mm256_add_ps(_mm256_mul_ps(x, t_even), p2);
            _mm256_storeu_ps(row.as_mut_ptr().add(i), o);
        }
        for i in (n8 / 2)..(n / 2) {
            let c = trow[2 * i];
            let s = trow[2 * i + 1] * sign;
            let a = src[2 * i];
            let b = src[2 * i + 1];
            row[2 * i] = a * c - b * s;
            row[2 * i + 1] = a * s + b * c;
        }
    }

    /// Twin of the fused Adam chunk body (every op widened verbatim:
    /// `sqrt`/`div` are IEEE-exact, so the arms agree bit-for-bit).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn adam_chunk(
        pc: &mut [f32],
        gc: &[f32],
        mc: &mut [f32],
        vc: &mut [f32],
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
        bc1: f32,
        bc2: f32,
    ) {
        let n = pc.len();
        let n8 = n - n % 8;
        let wdv = _mm256_set1_ps(weight_decay);
        let b1 = _mm256_set1_ps(beta1);
        let omb1 = _mm256_set1_ps(1.0 - beta1);
        let b2 = _mm256_set1_ps(beta2);
        let omb2 = _mm256_set1_ps(1.0 - beta2);
        let bc1v = _mm256_set1_ps(bc1);
        let bc2v = _mm256_set1_ps(bc2);
        let lrv = _mm256_set1_ps(lr);
        let epsv = _mm256_set1_ps(eps);
        for i in (0..n8).step_by(8) {
            let p = _mm256_loadu_ps(pc.as_ptr().add(i));
            let g = _mm256_loadu_ps(gc.as_ptr().add(i));
            let ge = _mm256_add_ps(g, _mm256_mul_ps(wdv, p));
            let mm = _mm256_add_ps(
                _mm256_mul_ps(b1, _mm256_loadu_ps(mc.as_ptr().add(i))),
                _mm256_mul_ps(omb1, ge),
            );
            _mm256_storeu_ps(mc.as_mut_ptr().add(i), mm);
            let vv = _mm256_add_ps(
                _mm256_mul_ps(b2, _mm256_loadu_ps(vc.as_ptr().add(i))),
                _mm256_mul_ps(_mm256_mul_ps(omb2, ge), ge),
            );
            _mm256_storeu_ps(vc.as_mut_ptr().add(i), vv);
            let mhat = _mm256_div_ps(mm, bc1v);
            let vhat = _mm256_div_ps(vv, bc2v);
            let step = _mm256_div_ps(
                _mm256_mul_ps(lrv, mhat),
                _mm256_add_ps(_mm256_sqrt_ps(vhat), epsv),
            );
            _mm256_storeu_ps(pc.as_mut_ptr().add(i), _mm256_sub_ps(p, step));
        }
        for i in n8..n {
            let ge = gc[i] + weight_decay * pc[i];
            mc[i] = beta1 * mc[i] + (1.0 - beta1) * ge;
            vc[i] = beta2 * vc[i] + (1.0 - beta2) * ge * ge;
            let mhat = mc[i] / bc1;
            let vhat = vc[i] / bc2;
            pc[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }

    /// Twin of the fused SGD-momentum chunk body.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn sgd_momentum_chunk(
        pc: &mut [f32],
        gc: &[f32],
        vc: &mut [f32],
        lr: f32,
        momentum: f32,
        weight_decay: f32,
    ) {
        let n = pc.len();
        let n8 = n - n % 8;
        let wdv = _mm256_set1_ps(weight_decay);
        let mv = _mm256_set1_ps(momentum);
        let lrv = _mm256_set1_ps(lr);
        for i in (0..n8).step_by(8) {
            let p = _mm256_loadu_ps(pc.as_ptr().add(i));
            let g = _mm256_loadu_ps(gc.as_ptr().add(i));
            let ge = _mm256_add_ps(g, _mm256_mul_ps(wdv, p));
            let vel = _mm256_add_ps(_mm256_mul_ps(mv, _mm256_loadu_ps(vc.as_ptr().add(i))), ge);
            _mm256_storeu_ps(vc.as_mut_ptr().add(i), vel);
            _mm256_storeu_ps(
                pc.as_mut_ptr().add(i),
                _mm256_sub_ps(p, _mm256_mul_ps(lrv, vel)),
            );
        }
        for i in n8..n {
            let ge = gc[i] + weight_decay * pc[i];
            vc[i] = momentum * vc[i] + ge;
            pc[i] -= lr * vc[i];
        }
    }

    /// Twin of the plain SGD chunk body.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn sgd_chunk(pc: &mut [f32], gc: &[f32], lr: f32, weight_decay: f32) {
        let n = pc.len();
        let n8 = n - n % 8;
        let wdv = _mm256_set1_ps(weight_decay);
        let lrv = _mm256_set1_ps(lr);
        for i in (0..n8).step_by(8) {
            let p = _mm256_loadu_ps(pc.as_ptr().add(i));
            let g = _mm256_loadu_ps(gc.as_ptr().add(i));
            let ge = _mm256_add_ps(g, _mm256_mul_ps(wdv, p));
            _mm256_storeu_ps(
                pc.as_mut_ptr().add(i),
                _mm256_sub_ps(p, _mm256_mul_ps(lrv, ge)),
            );
        }
        for i in n8..n {
            let ge = gc[i] + weight_decay * pc[i];
            pc[i] -= lr * ge;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, rng};

    fn vals(seed: u64, len: usize) -> Vec<f32> {
        randn(&mut rng(seed), [len], 1.0).data().to_vec()
    }

    /// Run `f` serially and with the parallel path forced under pools of
    /// 2 and 4 threads; all three results must be bit-identical.
    fn assert_thread_invariant(f: impl Fn() -> Vec<f32>) {
        let serial = f();
        for threads in [2usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let par = pool.install(|| with_forced_parallel(&f));
            assert_eq!(serial, par, "bit-identical failure at {threads} threads");
        }
    }

    #[test]
    fn map_into_matches_scalar_loop() {
        let src = vals(1, 40_000);
        let mut dst = vec![0.0; src.len()];
        map_into(&src, &mut dst, |v| v * 2.0 + 1.0);
        for (d, s) in dst.iter().zip(&src) {
            assert_eq!(*d, s * 2.0 + 1.0);
        }
    }

    #[test]
    fn elementwise_kernels_thread_invariant() {
        let a = vals(2, 10_000);
        let b = vals(3, 10_000);
        assert_thread_invariant(|| {
            let mut out = vec![0.0; a.len()];
            zip_map_into(&a, &b, &mut out, |x, y| x * y + x);
            out
        });
        assert_thread_invariant(|| {
            let mut out = a.clone();
            axpy(0.37, &b, &mut out);
            out
        });
    }

    #[test]
    fn broadcast_suffix_matches_general() {
        let a = vals(4, 96 * 33);
        let b = vals(5, 33);
        let mut out = vec![0.0; a.len()];
        broadcast_suffix_into(&a, &b, &mut out, |x, y| x + y);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(*o, a[i] + b[i % 33]);
        }
        assert_thread_invariant(|| {
            let mut o = vec![0.0; a.len()];
            broadcast_suffix_into(&a, &b, &mut o, |x, y| x + y);
            o
        });
    }

    #[test]
    fn col_sum_blocked_thread_invariant() {
        let x = vals(6, 100 * 17);
        assert_thread_invariant(|| {
            let mut out = vec![0.0; 17];
            col_sum_rows(&x, &mut out, 17);
            out
        });
    }

    #[test]
    fn softmax_and_backward_thread_invariant() {
        let x = vals(7, 37 * 19);
        let dy = vals(8, 37 * 19);
        let y = {
            let mut y = vec![0.0; x.len()];
            softmax_rows(&x, &mut y, 19);
            y
        };
        assert_thread_invariant(|| {
            let mut out = vec![0.0; x.len()];
            softmax_rows(&x, &mut out, 19);
            out
        });
        assert_thread_invariant(|| {
            let mut out = vec![0.0; x.len()];
            softmax_backward_rows(&y, &dy, &mut out, 19);
            out
        });
    }

    #[test]
    fn softmax_xent_thread_invariant_including_loss() {
        let x = vals(9, 23 * 11);
        let targets: Vec<usize> = (0..23).map(|r| (r * 5) % 11).collect();
        assert_thread_invariant(|| {
            let mut grad = vec![0.0; x.len()];
            let loss = softmax_xent_rows(&x, &targets, &mut grad, 11);
            grad.push(loss);
            grad
        });
    }

    #[test]
    fn layernorm_forward_backward_thread_invariant() {
        let n = 13;
        let rows = 41;
        let x = vals(10, rows * n);
        let gamma = vals(11, n);
        let beta = vals(12, n);
        let dy = vals(13, rows * n);
        let run_fwd = || {
            let mut out = vec![0.0; rows * n];
            let mut xhat = vec![0.0; rows * n];
            let mut istd = vec![0.0; rows];
            layernorm_rows(&x, &gamma, &beta, 1e-5, &mut out, &mut xhat, &mut istd);
            (out, xhat, istd)
        };
        assert_thread_invariant(|| {
            let (mut out, xhat, istd) = run_fwd();
            out.extend(xhat);
            out.extend(istd);
            out
        });
        let (_, xhat, istd) = run_fwd();
        assert_thread_invariant(|| {
            let mut dx = vec![0.0; rows * n];
            let mut dg = vec![0.0; n];
            let mut db = vec![0.0; n];
            layernorm_backward_rows(&xhat, &istd, &gamma, &dy, &mut dx, &mut dg, &mut db);
            dx.extend(dg);
            dx.extend(db);
            dx
        });
    }

    #[test]
    fn batchnorm_forward_backward_thread_invariant() {
        let dims = [3usize, 4, 5, 5];
        let len = dims.iter().product::<usize>();
        let x = vals(14, len);
        let gamma = vals(15, 4);
        let beta = vals(16, 4);
        let dy = vals(17, len);
        let run_fwd = || {
            let mut out = vec![0.0; len];
            let mut xhat = vec![0.0; len];
            let mut istd = vec![0.0; 4];
            let mut means = vec![0.0; 4];
            batchnorm2d_rows(
                &x, &gamma, &beta, 1e-5, dims, &mut out, &mut xhat, &mut istd, &mut means,
            );
            (out, xhat, istd)
        };
        assert_thread_invariant(|| {
            let (mut out, xhat, istd) = run_fwd();
            out.extend(xhat);
            out.extend(istd);
            out
        });
        let (_, xhat, istd) = run_fwd();
        assert_thread_invariant(|| {
            let mut dx = vec![0.0; len];
            let mut dg = vec![0.0; 4];
            let mut db = vec![0.0; 4];
            batchnorm2d_backward_rows(&xhat, &istd, &gamma, &dy, dims, &mut dx, &mut dg, &mut db);
            dx.extend(dg);
            dx.extend(db);
            dx
        });
    }

    #[test]
    fn fused_bias_gelu_matches_composition() {
        let n = 29;
        let rows = 17;
        let x = vals(18, rows * n);
        let bias = vals(19, n);
        let mut pre = vec![0.0; rows * n];
        let mut y = vec![0.0; rows * n];
        bias_gelu(&x, &bias, &mut pre, &mut y);
        for r in 0..rows {
            for i in 0..n {
                let p = x[r * n + i] + bias[i];
                assert_eq!(pre[r * n + i], p);
                assert_eq!(y[r * n + i], gelu_scalar(p));
            }
        }
        assert_thread_invariant(|| {
            let mut pre = vec![0.0; rows * n];
            let mut y = vec![0.0; rows * n];
            bias_gelu(&x, &bias, &mut pre, &mut y);
            y.extend(pre);
            y
        });
        let dy = vals(20, rows * n);
        assert_thread_invariant(|| {
            let mut dx = vec![0.0; rows * n];
            let mut db = vec![0.0; n];
            bias_gelu_backward(&pre, &dy, &mut dx, &mut db);
            dx.extend(db);
            dx
        });
    }

    #[test]
    fn add_relu_and_backward() {
        let a = vals(21, 5000);
        let b = vals(22, 5000);
        let mut y = vec![0.0; 5000];
        add_relu(&a, &b, &mut y);
        for i in 0..5000 {
            assert_eq!(y[i], (a[i] + b[i]).max(0.0));
        }
        let dy = vals(23, 5000);
        let mut dx = vec![0.0; 5000];
        add_relu_backward(&y, &dy, &mut dx);
        for i in 0..5000 {
            assert_eq!(dx[i], if y[i] > 0.0 { dy[i] } else { 0.0 });
        }
    }

    #[test]
    fn rope_thread_invariant_and_cached() {
        let (heads, seq, d) = (3usize, 11, 8);
        let x = vals(24, heads * seq * d);
        assert_thread_invariant(|| {
            let mut out = vec![0.0; x.len()];
            rope_rows(&x, &mut out, heads, seq, d, false);
            out
        });
        // A second call must hit the table cache and agree exactly.
        let mut a = vec![0.0; x.len()];
        let mut b = vec![0.0; x.len()];
        rope_rows(&x, &mut a, heads, seq, d, false);
        rope_rows(&x, &mut b, heads, seq, d, false);
        assert_eq!(a, b);
    }

    #[test]
    fn optimizer_updates_thread_invariant() {
        let len = 70_000;
        let g = vals(25, len);
        let p0 = vals(26, len);
        assert_thread_invariant(|| {
            let mut p = p0.clone();
            let mut m = vec![0.0; len];
            let mut v = vec![0.0; len];
            adam_update(
                &mut p, &g, &mut m, &mut v, 1e-3, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.001,
            );
            p.extend(m);
            p.extend(v);
            p
        });
        assert_thread_invariant(|| {
            let mut p = p0.clone();
            let mut vel = vec![0.0; len];
            sgd_momentum_update(&mut p, &g, &mut vel, 0.05, 0.9, 1e-4);
            p.extend(vel);
            p
        });
        assert_thread_invariant(|| {
            let mut p = p0.clone();
            sgd_update(&mut p, &g, 0.05, 1e-4);
            p
        });
    }
}

/// Satellite of the SIMD tier: every dual-arm kernel must produce
/// bit-identical results on the scalar and AVX2 arms, serially and under
/// forced-parallel 1/2/4-thread pools. Shapes are proptest-driven so the
/// ragged tails on both sides of every 8-lane boundary get exercised.
#[cfg(test)]
mod dispatch_equivalence {
    use super::*;
    use crate::simd::{avx2_available, with_arm, Arm};
    use proptest::prelude::*;

    /// Pseudo-random fill decoupled from proptest shrinking.
    fn fill(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64 + seed).wrapping_mul(2654435761) % 2048;
                (h as f32 - 1024.0) / 256.0
            })
            .collect()
    }

    /// Run `f` on the scalar arm serially (the reference), then on every
    /// available arm serially and under forced-parallel 1/2/4-thread
    /// pools. All results must be bit-identical to the reference.
    fn assert_arms_bit_identical(f: impl Fn() -> Vec<f32> + Sync) {
        let reference = with_arm(Arm::Scalar, &f);
        let arms: &[Arm] = if avx2_available() {
            &[Arm::Scalar, Arm::Avx2]
        } else {
            &[Arm::Scalar]
        };
        for &arm in arms {
            assert_eq!(with_arm(arm, &f), reference, "{arm:?} serial diverged");
            for threads in [1usize, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let par = pool.install(|| with_arm(arm, || with_forced_parallel(&f)));
                assert_eq!(par, reference, "{arm:?} @ {threads} threads diverged");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn softmax_family(rows in 1usize..12, n in 1usize..40, seed in 0u64..500) {
            let x = fill(rows * n, seed);
            let dy = fill(rows * n, seed + 1);
            assert_arms_bit_identical(|| {
                let mut y = vec![0.0; x.len()];
                softmax_rows(&x, &mut y, n);
                let mut dx = vec![0.0; x.len()];
                softmax_backward_rows(&y, &dy, &mut dx, n);
                y.extend(dx);
                y
            });
            let targets: Vec<usize> = (0..rows).map(|r| (r * 3) % n).collect();
            assert_arms_bit_identical(|| {
                let mut grad = vec![0.0; x.len()];
                let loss = softmax_xent_rows(&x, &targets, &mut grad, n);
                grad.push(loss);
                grad
            });
        }

        #[test]
        fn layernorm_family(rows in 1usize..12, n in 1usize..40, seed in 0u64..500) {
            let x = fill(rows * n, seed);
            let gamma = fill(n, seed + 2);
            let beta = fill(n, seed + 3);
            let dy = fill(rows * n, seed + 4);
            assert_arms_bit_identical(|| {
                let mut out = vec![0.0; x.len()];
                let mut xhat = vec![0.0; x.len()];
                let mut istd = vec![0.0; rows];
                layernorm_rows(&x, &gamma, &beta, 1e-5, &mut out, &mut xhat, &mut istd);
                let mut dx = vec![0.0; x.len()];
                let mut dgamma = vec![0.0; n];
                let mut dbeta = vec![0.0; n];
                layernorm_backward_rows(&xhat, &istd, &gamma, &dy, &mut dx, &mut dgamma, &mut dbeta);
                out.extend(xhat);
                out.extend(istd);
                out.extend(dx);
                out.extend(dgamma);
                out.extend(dbeta);
                out
            });
        }

        #[test]
        fn gelu_family(rows in 1usize..10, n in 1usize..40, seed in 0u64..500) {
            let x = fill(rows * n, seed);
            let dy = fill(rows * n, seed + 5);
            let bias = fill(n, seed + 6);
            assert_arms_bit_identical(|| {
                let mut y = vec![0.0; x.len()];
                gelu_into(&x, &mut y);
                let mut dx = vec![0.0; x.len()];
                gelu_grad_mul_into(&x, &dy, &mut dx);
                y.extend(dx);
                y
            });
            assert_arms_bit_identical(|| {
                let mut pre = vec![0.0; x.len()];
                let mut y = vec![0.0; x.len()];
                bias_gelu(&x, &bias, &mut pre, &mut y);
                let mut dx = vec![0.0; x.len()];
                let mut dbias = vec![0.0; n];
                bias_gelu_backward(&pre, &dy, &mut dx, &mut dbias);
                y.extend(pre);
                y.extend(dx);
                y.extend(dbias);
                y
            });
        }

        #[test]
        fn rope_both_directions(heads in 1usize..4, seq in 1usize..10,
                                dh in 1usize..12, seed in 0u64..500) {
            let d = dh * 2;
            let x = fill(heads * seq * d, seed);
            assert_arms_bit_identical(|| {
                let mut out = vec![0.0; x.len()];
                rope_rows(&x, &mut out, heads, seq, d, false);
                let mut back = vec![0.0; x.len()];
                rope_rows(&out, &mut back, heads, seq, d, true);
                out.extend(back);
                out
            });
        }

        #[test]
        fn optimizer_updates(len in 1usize..600, seed in 0u64..500) {
            let p0 = fill(len, seed);
            let g = fill(len, seed + 7);
            assert_arms_bit_identical(|| {
                let mut p = p0.clone();
                let mut m = fill(len, seed + 8);
                let mut v: Vec<f32> = fill(len, seed + 9).iter().map(|x| x.abs()).collect();
                adam_update(
                    &mut p, &g, &mut m, &mut v, 1e-3, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.001,
                );
                p.extend(m);
                p.extend(v);
                p
            });
            assert_arms_bit_identical(|| {
                let mut p = p0.clone();
                let mut vel = fill(len, seed + 10);
                sgd_momentum_update(&mut p, &g, &mut vel, 0.05, 0.9, 1e-4);
                p.extend(vel);
                p
            });
            assert_arms_bit_identical(|| {
                let mut p = p0.clone();
                sgd_update(&mut p, &g, 0.05, 1e-4);
                p
            });
        }

        #[test]
        fn column_sums(rows in 1usize..80, n in 1usize..40, seed in 0u64..500) {
            let x = fill(rows * n, seed);
            assert_arms_bit_identical(|| {
                let mut out = vec![0.0; n];
                col_sum_rows(&x, &mut out, n);
                out
            });
        }

        #[test]
        fn gemm_both_arms(m in 1usize..32, k in 1usize..24, n in 1usize..32,
                          seed in 0u64..500) {
            let a = crate::Tensor::from_vec(fill(m * k, seed), [m, k]);
            let b = crate::Tensor::from_vec(fill(k * n, seed + 11), [k, n]);
            assert_arms_bit_identical(|| {
                crate::matmul::matmul(&a, &b).unwrap().data().to_vec()
            });
        }
    }
}
