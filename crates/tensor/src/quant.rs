//! Quantized storage and compute: symmetric per-channel int8 and
//! storage-only bf16.
//!
//! CARAML's figure of merit is energy per token, and the decode path of
//! LLM inference is memory-bound: every generated token streams the full
//! weight matrix (and the growing KV cache) from memory. Shrinking
//! bytes-per-element is therefore a direct throughput/energy lever, which
//! this module implements at three levels:
//!
//! * **[`QTensor`]** — int8 storage with one f32 scale per row
//!   (per-channel symmetric quantization: `scale = max|row| / 127`,
//!   round-to-nearest-even, saturation at ±127). 4x less traffic than
//!   f32.
//! * **[`Bf16Tensor`]** — bf16 storage (the high 16 bits of the f32 bit
//!   pattern, RNE on the dropped half). Storage-only: the f32 GEMM
//!   ([`crate::matmul`]) widens each element to f32 where it reads it —
//!   in the packing gather, or in-register on the m = 1 path — so the f32
//!   arithmetic is reused untouched. 2x less traffic.
//! * **[`gemm_i8_nt`]** — int8×int8→i32 GEMM through the same
//!   packed-panel / 2-D-tile structure as the f32 engine, with the
//!   per-channel dequantization and bias **fused into the microkernel
//!   epilogue**: the i32 accumulator block is converted and scaled as it
//!   is written to C, so no intermediate i32 matrix or separate dequant
//!   pass exists.
//! * **The m = 1 path.** With one activation row (a decode step),
//!   [`gemm_i8_nt`] skips the packed engine, whose 4×16 microkernel would
//!   run with three zero rows after re-packing the whole weight matrix.
//!   Each weight row is read once from its `[n, k]` storage, four rows per
//!   pass sharing each sign-extended activation vector, and each row's
//!   exact i32 dot product goes through the same epilogue,
//!   `fmadd(f32(acc), sa·sb[j], bias[j])`. Rayon splits the rows by bytes
//!   streamed, under the f32 path's rule (see [`crate::matmul`]).
//!
//! ## Bit parity and determinism
//!
//! The quant kernels follow the crate's dual-arm contract
//! ([`crate::simd`]): every kernel has a scalar body paired op-for-op
//! with its AVX2 twin.
//!
//! * The int8 microkernel accumulates **exactly** in i32 — the AVX2 arm
//!   sign-extends packed pairs with `_mm256_cvtepi8_epi16` and uses
//!   `_mm256_madd_epi16` (i16×i16→i32 pair-sum, no saturation), the
//!   scalar arm the literal same pair order. `_mm256_maddubs_epi16` is
//!   deliberately *not* the accumulator: it saturates its i16
//!   intermediate (`127·127·2 > i16::MAX`), which would break both
//!   exactness and the parity contract. Integer addition is associative,
//!   so scalar≡AVX2 and serial≡parallel hold bit-exactly by
//!   construction; only the f32 epilogue rounds, and it follows the same
//!   [`simd::fma_chains`] contract as every other kernel. The same
//!   argument makes the m = 1 path bit-identical to the packed engine:
//!   its integer sums are taken in another order and its rows split
//!   differently, but the sums are exact and the epilogue is the same.
//! * Quantization rounds to nearest-even in both arms: scalar
//!   `f32::round_ties_even` pairs with `_mm256_cvtps_epi32`, whose
//!   default MXCSR mode is RNE.
//! * bf16 encode/decode is pure integer bit manipulation — arm-independent
//!   by construction — and the bf16 GEMM inherits the f32 engine's parity.

use crate::matmul::{self, GEMV_ROWS, MC, NC};
use crate::simd::{self, Arm};
use crate::workspace::{self, Workspace};
use rayon::prelude::*;

/// int8 microkernel rows (A strip width).
pub const QMR: usize = 4;
/// int8 microkernel columns (B strip width); two 256-bit i32 vectors.
pub const QNR: usize = 16;

/// Maximum contraction depth of one [`gemm_i8_nt`] call: the i32
/// accumulator holds `k/2` exact `madd` pair-sums of magnitude
/// ≤ `2·127²`, so overflow is impossible while `k · 127² < i32::MAX`.
pub const MAX_K_I8: usize = 1 << 17;

// ---------- scalar quantize/dequantize bodies ----------

/// Per-row quantization scale: `max|row| / 127`, with all-zero rows
/// mapped to scale 1 so dequantization is always well-defined.
pub fn row_scale(max_abs: f32) -> f32 {
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / 127.0
    }
}

/// abs-max of a slice using the canonical [`simd::fold8_max`] tree (abs
/// values are non-negative, so the zero-initialised lanes are safe).
fn max_abs_scalar(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let n8 = xs.len() - xs.len() % 8;
    for c in xs[..n8].chunks_exact(8) {
        for (l, v) in lanes.iter_mut().zip(c) {
            *l = l.max(v.abs());
        }
    }
    let mut t = simd::fold8_max(lanes);
    for &v in &xs[n8..] {
        t = t.max(v.abs());
    }
    t
}

/// One row quantized: `q = RNE(clamp(v/scale, ±127))`. Clamping happens
/// in the f32 domain *before* the convert so both arms saturate huge
/// values identically (the vector convert's out-of-range result is the
/// integer-indefinite pattern, which would diverge from a scalar cast).
fn quantize_slice_scalar(src: &[f32], scale: f32, dst: &mut [i8]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        let x = (v / scale).clamp(-127.0, 127.0);
        *d = x.round_ties_even() as i8;
    }
}

/// One row dequantized: `v = q · scale` (exact int→f32 for |q| ≤ 127,
/// one rounding in the multiply — identical in both arms).
fn dequantize_slice_scalar(src: &[i8], scale: f32, dst: &mut [f32]) {
    for (d, &q) in dst.iter_mut().zip(src) {
        *d = q as f32 * scale;
    }
}

// ---------- AVX2 twins ----------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// AVX2 twin of [`super::max_abs_scalar`]: same 8-lane max tree
    /// (`_mm256_andnot_ps` clears the sign bit, the horizontal fold is
    /// the [`crate::simd::fold8_max`] sequence).
    ///
    /// # Safety
    /// Caller must ensure avx2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max_abs(xs: &[f32]) -> f32 {
        unsafe {
            let sign = _mm256_set1_ps(-0.0);
            let mut acc = _mm256_setzero_ps();
            let n8 = xs.len() - xs.len() % 8;
            let mut p = xs.as_ptr();
            for _ in 0..n8 / 8 {
                acc = _mm256_max_ps(acc, _mm256_andnot_ps(sign, _mm256_loadu_ps(p)));
                p = p.add(8);
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            let mut t = crate::simd::fold8_max(lanes);
            for &v in &xs[n8..] {
                t = t.max(v.abs());
            }
            t
        }
    }

    /// AVX2 twin of [`super::quantize_slice_scalar`]: divide, clamp in
    /// f32, `_mm256_cvtps_epi32` (RNE under default MXCSR — the exact
    /// pairing of `f32::round_ties_even`), then saturating packs (lossless
    /// for the already-clamped range) down to 8 i8 lanes.
    ///
    /// # Safety
    /// Caller must ensure avx2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_slice(src: &[f32], scale: f32, dst: &mut [i8]) {
        unsafe {
            let vscale = _mm256_set1_ps(scale);
            let lo = _mm256_set1_ps(-127.0);
            let hi = _mm256_set1_ps(127.0);
            let n8 = src.len() - src.len() % 8;
            let mut sp = src.as_ptr();
            let mut dp = dst.as_mut_ptr();
            for _ in 0..n8 / 8 {
                let x = _mm256_div_ps(_mm256_loadu_ps(sp), vscale);
                let clamped = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
                let q32 = _mm256_cvtps_epi32(clamped);
                let q16 = _mm_packs_epi32(
                    _mm256_castsi256_si128(q32),
                    _mm256_extracti128_si256(q32, 1),
                );
                let q8 = _mm_packs_epi16(q16, _mm_setzero_si128());
                _mm_storel_epi64(dp as *mut __m128i, q8);
                sp = sp.add(8);
                dp = dp.add(8);
            }
            // Ragged tail: the identical scalar operation sequence.
            for i in n8..src.len() {
                let x = (src[i] / scale).clamp(-127.0, 127.0);
                dst[i] = x.round_ties_even() as i8;
            }
        }
    }

    /// AVX2 twin of [`super::dequantize_slice_scalar`]: sign-extend,
    /// convert, one multiply — the same single rounding per element.
    ///
    /// # Safety
    /// Caller must ensure avx2 is available.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dequantize_slice(src: &[i8], scale: f32, dst: &mut [f32]) {
        unsafe {
            let vscale = _mm256_set1_ps(scale);
            let n8 = src.len() - src.len() % 8;
            let mut sp = src.as_ptr();
            let mut dp = dst.as_mut_ptr();
            for _ in 0..n8 / 8 {
                let q8 = _mm_loadl_epi64(sp as *const __m128i);
                let q32 = _mm256_cvtepi8_epi32(q8);
                let v = _mm256_mul_ps(_mm256_cvtepi32_ps(q32), vscale);
                _mm256_storeu_ps(dp, v);
                sp = sp.add(8);
                dp = dp.add(8);
            }
            for i in n8..src.len() {
                dst[i] = src[i] as f32 * scale;
            }
        }
    }
}

// ---------- dispatched kernels ----------

/// abs-max on the active arm's body (used for per-row scales).
fn max_abs(xs: &[f32], arm: Arm) -> f32 {
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher only selects this arm when avx2 is
        // detected at runtime.
        Arm::Avx2 => unsafe { avx2::max_abs(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        Arm::Avx2 => unreachable!("AVX2 arm dispatched on non-x86_64"),
        Arm::Scalar => max_abs_scalar(xs),
    }
}

/// Quantize one slice with a fixed scale on the given arm.
fn quantize_slice(src: &[f32], scale: f32, dst: &mut [i8], arm: Arm) {
    debug_assert_eq!(src.len(), dst.len());
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: arm implies avx2 detected.
        Arm::Avx2 => unsafe { avx2::quantize_slice(src, scale, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        Arm::Avx2 => unreachable!("AVX2 arm dispatched on non-x86_64"),
        Arm::Scalar => quantize_slice_scalar(src, scale, dst),
    }
}

/// Dequantize one slice with a fixed scale on the given arm.
fn dequantize_slice(src: &[i8], scale: f32, dst: &mut [f32], arm: Arm) {
    debug_assert_eq!(src.len(), dst.len());
    match arm {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: arm implies avx2 detected.
        Arm::Avx2 => unsafe { avx2::dequantize_slice(src, scale, dst) },
        #[cfg(not(target_arch = "x86_64"))]
        Arm::Avx2 => unreachable!("AVX2 arm dispatched on non-x86_64"),
        Arm::Scalar => dequantize_slice_scalar(src, scale, dst),
    }
}

// ---------- QTensor: per-row symmetric int8 ----------

/// A 2-D matrix stored as int8 with one f32 scale per row.
///
/// For weights in the `[out, in]` linear-layer layout a row is one output
/// channel, so this is per-channel quantization; for a KV cache a row is
/// one token. Rows can be appended incrementally ([`QTensor::push_row`]),
/// which is how the int8 KV cache grows during decode.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    data: Vec<i8>,
    scales: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl QTensor {
    /// An empty matrix ready for [`QTensor::push_row`] appends.
    pub fn new(cols: usize) -> QTensor {
        QTensor {
            data: Vec::new(),
            scales: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// Quantize a row-major `[rows, cols]` f32 matrix, one symmetric
    /// scale per row.
    pub fn quantize(src: &[f32], rows: usize, cols: usize) -> QTensor {
        assert_eq!(src.len(), rows * cols, "QTensor::quantize shape mismatch");
        let arm = simd::active_arm();
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![0.0f32; rows];
        let body = |r: usize, (drow, scale): (&mut [i8], &mut [f32])| {
            let srow = &src[r * cols..(r + 1) * cols];
            let s = row_scale(max_abs(srow, arm));
            quantize_slice(srow, s, drow, arm);
            scale[0] = s;
        };
        if rows > 1 && rows * cols >= 1 << 16 {
            data.par_chunks_mut(cols)
                .zip(scales.par_chunks_mut(1))
                .enumerate()
                .for_each(|(r, args)| body(r, args));
        } else {
            data.chunks_mut(cols)
                .zip(scales.chunks_mut(1))
                .enumerate()
                .for_each(|(r, args)| body(r, args));
        }
        QTensor {
            data,
            scales,
            rows,
            cols,
        }
    }

    /// Append one row (quantized with its own scale) — the KV-cache path.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "QTensor::push_row width mismatch");
        let arm = simd::active_arm();
        let s = row_scale(max_abs(row, arm));
        let start = self.data.len();
        self.data.resize(start + self.cols, 0);
        quantize_slice(row, s, &mut self.data[start..], arm);
        self.scales.push(s);
        self.rows += 1;
    }

    /// Dequantize the whole matrix into `dst` (`rows*cols` f32).
    pub fn dequantize_into(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.rows * self.cols);
        let arm = simd::active_arm();
        for r in 0..self.rows {
            dequantize_slice(
                &self.data[r * self.cols..(r + 1) * self.cols],
                self.scales[r],
                &mut dst[r * self.cols..(r + 1) * self.cols],
                arm,
            );
        }
    }

    /// Dequantize into a fresh vector.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        self.dequantize_into(&mut out);
        out
    }

    /// Dequantize one row into `dst` (`cols` f32).
    pub fn dequantize_row_into(&self, r: usize, dst: &mut [f32]) {
        assert!(r < self.rows);
        let arm = simd::active_arm();
        dequantize_slice(
            &self.data[r * self.cols..(r + 1) * self.cols],
            self.scales[r],
            dst,
            arm,
        );
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn data(&self) -> &[i8] {
        &self.data
    }

    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Stored bytes (int8 payload + f32 scales) — the traffic the
    /// memory-bound decode path actually streams.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() + 4 * self.scales.len()
    }
}

// ---------- Bf16Tensor: storage-only bf16 ----------

/// Round an f32 to bf16 bits (round-to-nearest-even on the dropped 16
/// bits; NaN payloads are quieted so they stay NaN after truncation).
#[inline]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = ((bits >> 16) & 1) + 0x7FFF;
    ((bits.wrapping_add(round)) >> 16) as u16
}

/// Widen bf16 bits back to f32 (exact — bf16 is an f32 bit prefix).
#[inline]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// A 2-D matrix stored as bf16 bits. Pure storage: every arithmetic
/// consumer widens to f32 (the GEMM does so where it reads each element,
/// so only 2 B/element ever stream from this buffer).
#[derive(Debug, Clone, PartialEq)]
pub struct Bf16Tensor {
    data: Vec<u16>,
    rows: usize,
    cols: usize,
}

impl Bf16Tensor {
    /// An empty matrix ready for [`Bf16Tensor::push_row`] appends.
    pub fn new(cols: usize) -> Bf16Tensor {
        Bf16Tensor {
            data: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// Encode a row-major `[rows, cols]` f32 matrix. Encoding is pure
    /// integer bit manipulation, identical on every arm by construction.
    pub fn from_f32(src: &[f32], rows: usize, cols: usize) -> Bf16Tensor {
        assert_eq!(src.len(), rows * cols, "Bf16Tensor shape mismatch");
        Bf16Tensor {
            data: src.iter().map(|&v| f32_to_bf16(v)).collect(),
            rows,
            cols,
        }
    }

    /// Append one row.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "Bf16Tensor::push_row width mismatch");
        self.data.extend(row.iter().map(|&v| f32_to_bf16(v)));
        self.rows += 1;
    }

    /// Widen the whole matrix into `dst`.
    pub fn to_f32_into(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.data.len());
        for (d, &b) in dst.iter_mut().zip(&self.data) {
            *d = bf16_to_f32(b);
        }
    }

    /// Widen into a fresh vector.
    pub fn to_f32(&self) -> Vec<f32> {
        self.data.iter().map(|&b| bf16_to_f32(b)).collect()
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw bf16 bits (row-major), the layout [`matmul::gemm_bf16_nt`]
    /// consumes.
    pub fn bits(&self) -> &[u16] {
        &self.data
    }

    pub fn storage_bytes(&self) -> usize {
        2 * self.data.len()
    }
}

// ---------- the int8 packed-panel GEMM ----------

/// Disjoint-tile write handle (same pattern as the f32 engine): each
/// parallel task writes only its own `MC×NC` tile of C.
#[derive(Clone, Copy)]
struct QTileWriter(*mut f32);
unsafe impl Send for QTileWriter {}
unsafe impl Sync for QTileWriter {}

/// `C[m,n] = dequant(Aq · Bqᵀ) + bias`: both operands row-major `[·, k]`
/// int8 with per-row scales (activations per token, weights per output
/// channel), contracted over `k`, with
/// `C[i,j] = (Σ_p qa[i,p]·qb[j,p]) · sa[i]·sb[j] + bias[j]` — the
/// dequantization applied in the fused microkernel epilogue.
pub fn gemm_i8_nt(a: &QTensor, b: &QTensor, bias: Option<&[f32]>, c: &mut [f32]) {
    gemm_i8_nt_ws(a, b, bias, c, workspace::global());
}

/// [`gemm_i8_nt`] drawing packing panels from an explicit workspace.
pub fn gemm_i8_nt_ws(
    a: &QTensor,
    b: &QTensor,
    bias: Option<&[f32]>,
    c: &mut [f32],
    ws: &Workspace,
) {
    assert_eq!(a.cols(), b.cols(), "gemm_i8_nt contraction mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    assert_eq!(c.len(), m * n, "gemm_i8_nt output shape mismatch");
    assert!(k < MAX_K_I8, "gemm_i8_nt k={k} would overflow i32");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "gemm_i8_nt bias length mismatch");
    }
    if m == 0 || n == 0 {
        return;
    }
    // Arm + rounding contract resolved once on the calling thread so
    // thread-scoped overrides propagate into the rayon tile tasks.
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    if k == 0 {
        // Degenerate contraction: the epilogue alone (bias or zero).
        for row in c.chunks_mut(n) {
            match bias {
                Some(bias) => row.copy_from_slice(bias),
                None => row.fill(0.0),
            }
        }
        return;
    }
    if m == 1 {
        return gemv_i8(a, b, bias, c, arm, fma);
    }
    let n_it = m.div_ceil(MC);
    let n_jt = n.div_ceil(NC);
    let tiles = n_it * n_jt;
    let par =
        tiles > 1 && rayon::current_num_threads() > 1 && m * n * k >= matmul::par_grain_flops();
    let writer = QTileWriter(c.as_mut_ptr());
    let task = |t: usize| {
        let (it, jt) = (t / n_jt, t % n_jt);
        let i0 = it * MC;
        let j0 = jt * NC;
        compute_tile_i8(
            a,
            b,
            bias,
            writer,
            n,
            k,
            i0,
            MC.min(m - i0),
            j0,
            NC.min(n - j0),
            ws,
            arm,
            fma,
        );
    };
    if par {
        (0..tiles).into_par_iter().for_each(task);
    } else {
        (0..tiles).for_each(task);
    }
}

/// One `mc×nc` output tile: pack the int8 panels pair-interleaved, run
/// the i32 microkernel per strip pair, dequantize+bias in the epilogue
/// while writing C. Unlike the f32 engine there is no KC loop: the whole
/// `k` reduction lives in one exact i32 accumulator pass (see
/// [`MAX_K_I8`]), so every C element is written exactly once.
#[allow(clippy::too_many_arguments)]
fn compute_tile_i8(
    a: &QTensor,
    b: &QTensor,
    bias: Option<&[f32]>,
    writer: QTileWriter,
    n: usize,
    k: usize,
    i0: usize,
    mc: usize,
    j0: usize,
    nc: usize,
    ws: &Workspace,
    arm: Arm,
    fma: bool,
) {
    let k_pairs = k.div_ceil(2);
    let mr_strips = mc.div_ceil(QMR);
    let nr_strips = nc.div_ceil(QNR);
    let mut a_pack = ws.take_bytes_zeroed(mr_strips * QMR * 2 * k_pairs);
    let mut b_pack = ws.take_bytes_zeroed(nr_strips * QNR * 2 * k_pairs);
    pack_i8(a.data(), k, i0, mc, QMR, &mut a_pack);
    pack_i8(b.data(), k, j0, nc, QNR, &mut b_pack);
    let sa = &a.scales()[i0..i0 + mc];
    let sb = &b.scales()[j0..j0 + nc];

    for js in 0..nr_strips {
        let b_strip = &b_pack[js * QNR * 2 * k_pairs..(js + 1) * QNR * 2 * k_pairs];
        let nr_eff = QNR.min(nc - js * QNR);
        for is in 0..mr_strips {
            let a_strip = &a_pack[is * QMR * 2 * k_pairs..(is + 1) * QMR * 2 * k_pairs];
            let mr_eff = QMR.min(mc - is * QMR);
            let acc = match arm {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the dispatcher only selects this arm when avx2
                // is detected at runtime.
                Arm::Avx2 => unsafe { microkernel_i8_avx2(k_pairs, a_strip, b_strip) },
                #[cfg(not(target_arch = "x86_64"))]
                Arm::Avx2 => unreachable!("AVX2 arm dispatched on non-x86_64"),
                Arm::Scalar => microkernel_i8(k_pairs, a_strip, b_strip),
            };
            // Fused epilogue: convert the exact i32 block to f32, apply
            // the per-channel scale product and the bias, write C. Both
            // arms perform `fmadd(acc_f32, sa·sb, bias)` per element
            // under the shared rounding contract.
            let c_base = (i0 + is * QMR) * n + j0 + js * QNR;
            for ii in 0..mr_eff {
                let row = unsafe {
                    std::slice::from_raw_parts_mut(writer.0.add(c_base + ii * n), nr_eff)
                };
                let sai = sa[is * QMR + ii];
                let sbj = &sb[js * QNR..js * QNR + nr_eff];
                match arm {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: arm implies avx2+fma detected (the AVX2 arm
                    // requires both features).
                    Arm::Avx2 if nr_eff == QNR => unsafe {
                        epilogue_avx2(&acc[ii], sai, sbj, bias.map(|b| &b[j0 + js * QNR..]), row)
                    },
                    _ => {
                        for jj in 0..nr_eff {
                            let b = bias.map_or(0.0, |b| b[j0 + js * QNR + jj]);
                            row[jj] = simd::fmadd(acc[ii][jj] as f32, sai * sbj[jj], b, fma);
                        }
                    }
                }
            }
        }
    }
    ws.give_bytes(a_pack);
    ws.give_bytes(b_pack);
}

/// Pack `rc` logical rows × full depth `k` of a row-major int8 matrix
/// into `r`-wide pair-interleaved strips:
/// `dst[s·r·2·kp + p2·r·2 + ii·2 + e] = src[(r0+s·r+ii)·k + 2·p2+e]`,
/// with ragged rows and an odd trailing `k` zero-padded (a zero quant
/// value contributes nothing to the integer accumulator). Layout chosen
/// so one 32-byte B load yields 16 adjacent (k, k+1) pairs for
/// `_mm256_madd_epi16`.
fn pack_i8(src: &[i8], k: usize, r0: usize, rc: usize, r: usize, dst: &mut [i8]) {
    let k_pairs = k.div_ceil(2);
    let strips = rc.div_ceil(r);
    for s in 0..strips {
        let rows = r.min(rc - s * r);
        let chunk = &mut dst[s * r * 2 * k_pairs..(s + 1) * r * 2 * k_pairs];
        for ii in 0..rows {
            let srow = &src[(r0 + s * r + ii) * k..(r0 + s * r + ii + 1) * k];
            for p2 in 0..k_pairs {
                chunk[p2 * r * 2 + ii * 2] = srow[2 * p2];
                chunk[p2 * r * 2 + ii * 2 + 1] = if 2 * p2 + 1 < k { srow[2 * p2 + 1] } else { 0 };
            }
        }
        // Ragged rows stay zero from take_bytes_zeroed.
    }
}

/// Scalar int8 microkernel: `acc[i][j] += a0·b0 + a1·b1` per packed
/// k-pair — the literal order of the AVX2 arm's `madd` lanes. All
/// arithmetic is exact in i32, so the pairing is trivially bit-identical.
fn microkernel_i8(k_pairs: usize, a_strip: &[i8], b_strip: &[i8]) -> [[i32; QNR]; QMR] {
    let mut acc = [[0i32; QNR]; QMR];
    for p2 in 0..k_pairs {
        let ab = &a_strip[p2 * 2 * QMR..(p2 + 1) * 2 * QMR];
        let bb = &b_strip[p2 * 2 * QNR..(p2 + 1) * 2 * QNR];
        for i in 0..QMR {
            let a0 = ab[2 * i] as i32;
            let a1 = ab[2 * i + 1] as i32;
            for j in 0..QNR {
                acc[i][j] += a0 * bb[2 * j] as i32 + a1 * bb[2 * j + 1] as i32;
            }
        }
    }
    acc
}

/// The AVX2 arm: 4×16 i32 accumulators as 8 ymm registers. Each k-pair
/// sign-extends 32 packed B bytes to two i16 vectors
/// (`_mm256_cvtepi8_epi16`), broadcasts the A pair as an i16 duo and
/// accumulates `_mm256_madd_epi16` products with `_mm256_add_epi32` —
/// exact i32 arithmetic end to end (see the module docs for why
/// `maddubs` is rejected).
///
/// # Safety
/// Caller must ensure avx2 is available and that `a_strip`/`b_strip`
/// hold at least `k_pairs·2·QMR` / `k_pairs·2·QNR` bytes.
#[cfg(target_arch = "x86_64")]
#[cfg_attr(not(target_feature = "avx2"), target_feature(enable = "avx2"), inline)]
#[cfg_attr(target_feature = "avx2", inline(always))]
unsafe fn microkernel_i8_avx2(k_pairs: usize, a_strip: &[i8], b_strip: &[i8]) -> [[i32; QNR]; QMR] {
    use std::arch::x86_64::*;
    debug_assert!(a_strip.len() >= k_pairs * 2 * QMR);
    debug_assert!(b_strip.len() >= k_pairs * 2 * QNR);
    let mut c00 = _mm256_setzero_si256();
    let mut c01 = _mm256_setzero_si256();
    let mut c10 = _mm256_setzero_si256();
    let mut c11 = _mm256_setzero_si256();
    let mut c20 = _mm256_setzero_si256();
    let mut c21 = _mm256_setzero_si256();
    let mut c30 = _mm256_setzero_si256();
    let mut c31 = _mm256_setzero_si256();
    let mut ap = a_strip.as_ptr();
    let mut bp = b_strip.as_ptr();
    // Broadcast the (k, k+1) int8 pair of row `i` as a packed-i16 duo
    // replicated across all lanes.
    #[inline(always)]
    unsafe fn pair(ap: *const i8, i: usize) -> i32 {
        let a0 = unsafe { *ap.add(2 * i) } as i16 as u16 as u32;
        let a1 = unsafe { *ap.add(2 * i + 1) } as i16 as u16 as u32;
        (a0 | (a1 << 16)) as i32
    }
    unsafe {
        for _ in 0..k_pairs {
            let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp as *const __m128i));
            let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(16) as *const __m128i));
            let a0 = _mm256_set1_epi32(pair(ap, 0));
            c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(a0, b0));
            c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(a0, b1));
            let a1 = _mm256_set1_epi32(pair(ap, 1));
            c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(a1, b0));
            c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(a1, b1));
            let a2 = _mm256_set1_epi32(pair(ap, 2));
            c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(a2, b0));
            c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(a2, b1));
            let a3 = _mm256_set1_epi32(pair(ap, 3));
            c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(a3, b0));
            c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(a3, b1));
            ap = ap.add(2 * QMR);
            bp = bp.add(2 * QNR);
        }
    }
    let mut acc = [[0i32; QNR]; QMR];
    unsafe {
        let regs = [c00, c01, c10, c11, c20, c21, c30, c31];
        for (i, pair) in regs.chunks_exact(2).enumerate() {
            _mm256_storeu_si256(acc[i].as_mut_ptr() as *mut __m256i, pair[0]);
            _mm256_storeu_si256(acc[i].as_mut_ptr().add(8) as *mut __m256i, pair[1]);
        }
    }
    acc
}

/// AVX2 fused epilogue for one full-width accumulator row:
/// `C = fmadd(f32(acc), sa·sb, bias)` — elementwise the identical
/// operation sequence as the scalar fallback, so ragged edges may take
/// the scalar path on the AVX2 arm without breaking parity.
///
/// # Safety
/// Caller must ensure avx2+fma are available and `sb`/`bias`/`row` cover
/// `QNR` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn epilogue_avx2(
    acc: &[i32; QNR],
    sai: f32,
    sb: &[f32],
    bias: Option<&[f32]>,
    row: &mut [f32],
) {
    use std::arch::x86_64::*;
    unsafe {
        let va = _mm256_set1_ps(sai);
        for h in 0..2 {
            let accv =
                _mm256_cvtepi32_ps(_mm256_loadu_si256(acc.as_ptr().add(8 * h) as *const __m256i));
            let factor = _mm256_mul_ps(va, _mm256_loadu_ps(sb.as_ptr().add(8 * h)));
            let bv = match bias {
                Some(b) => _mm256_loadu_ps(b.as_ptr().add(8 * h)),
                None => _mm256_setzero_ps(),
            };
            _mm256_storeu_ps(
                row.as_mut_ptr().add(8 * h),
                _mm256_fmadd_ps(accv, factor, bv),
            );
        }
    }
}

// ---------- the m = 1 path ----------

/// [`gemm_i8_nt`] for one activation row: each weight row is read once,
/// straight from the `[n, k]` storage, and its exact i32 dot product with
/// the activations goes through the packed engine's epilogue,
/// `fmadd(f32(acc), sa·sb[j], bias[j])`. Integer addition is associative,
/// so the result is bit-identical to the packed engine's whatever the
/// order of the sum, the arm or the rayon split.
fn gemv_i8(a: &QTensor, b: &QTensor, bias: Option<&[f32]>, c: &mut [f32], arm: Arm, fma: bool) {
    let k = a.cols();
    let x = a.data();
    let sa = a.scales()[0];
    let rows = |j0: usize, out: &mut [f32]| {
        let w = &b.data()[j0 * k..(j0 + out.len()) * k];
        match arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the dispatcher only selects this arm when avx2 is
            // detected at runtime; `w` holds `out.len()` rows of `k`.
            Arm::Avx2 => unsafe { gemv_i8_avx2(x, w, out) },
            #[cfg(not(target_arch = "x86_64"))]
            Arm::Avx2 => unreachable!("AVX2 arm dispatched on non-x86_64"),
            Arm::Scalar => {
                for (o, wr) in out.iter_mut().zip(w.chunks_exact(k)) {
                    let acc: i32 = x.iter().zip(wr).map(|(&p, &q)| p as i32 * q as i32).sum();
                    *o = acc as f32;
                }
            }
        }
        // The fused epilogue on the converted sums (`as f32` and
        // `_mm256_cvtepi32_ps` both round to nearest-even).
        for (jj, o) in out.iter_mut().enumerate() {
            let j = j0 + jj;
            let bj = bias.map_or(0.0, |bias| bias[j]);
            *o = simd::fmadd(*o, sa * b.scales()[j], bj, fma);
        }
    };
    match matmul::gemv_split(c.len(), k) {
        Some(chunk) => c
            .par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(t, out)| rows(t * chunk, out)),
        None => rows(0, c),
    }
}

/// AVX2 arm of [`gemv_i8`]: [`GEMV_ROWS`] weight rows per pass share each
/// sign-extended activation vector, in the quarter order of the f32 arm
/// (pass `i` takes row `i` of each quarter, so every weight stream is
/// sequential); 16 k-steps per `_mm256_madd_epi16` (i16×i16→i32 pair
/// sums, exact — see the module docs), leftover rows one at a time.
/// Writes each row's exact sum converted to f32.
///
/// # Safety
/// Caller must ensure avx2 is available and that `w` holds `out.len()`
/// rows of `x.len()` bytes.
#[cfg(target_arch = "x86_64")]
#[cfg_attr(not(target_feature = "avx2"), target_feature(enable = "avx2"))]
unsafe fn gemv_i8_avx2(x: &[i8], w: &[i8], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let k = x.len();
    let k16 = k - k % 16;
    // SAFETY: avx2 is available (the caller's contract), and `load16` is
    // only given pointers valid for 16 byte reads.
    let load16 = |p: *const i8| unsafe { _mm256_cvtepi8_epi16(_mm_loadu_si128(p.cast())) };
    let finish = |acc: __m256i, wr: &[i8]| {
        let mut lanes = [0i32; 8];
        // SAFETY: `lanes` holds the 32 bytes the store writes.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
        let tail: i32 = x[k16..]
            .iter()
            .zip(&wr[k16..])
            .map(|(&p, &q)| p as i32 * q as i32)
            .sum();
        (lanes.iter().sum::<i32>() + tail) as f32
    };
    let row = |j: usize| &w[j * k..(j + 1) * k];
    let q = out.len() / GEMV_ROWS;
    // SAFETY: every offset is below `k16 ≤ k`, inside `x` and the `k`-long
    // rows sliced above.
    unsafe {
        for i in 0..q {
            let (w0, w1, w2, w3) = (row(i), row(q + i), row(2 * q + i), row(3 * q + i));
            let mut a0 = _mm256_setzero_si256();
            let mut a1 = _mm256_setzero_si256();
            let mut a2 = _mm256_setzero_si256();
            let mut a3 = _mm256_setzero_si256();
            for p in (0..k16).step_by(16) {
                let xv = load16(x.as_ptr().add(p));
                a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(xv, load16(w0.as_ptr().add(p))));
                a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(xv, load16(w1.as_ptr().add(p))));
                a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(xv, load16(w2.as_ptr().add(p))));
                a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(xv, load16(w3.as_ptr().add(p))));
            }
            out[i] = finish(a0, w0);
            out[q + i] = finish(a1, w1);
            out[2 * q + i] = finish(a2, w2);
            out[3 * q + i] = finish(a3, w3);
        }
        for j in GEMV_ROWS * q..out.len() {
            let wr = row(j);
            let mut acc = _mm256_setzero_si256();
            for p in (0..k16).step_by(16) {
                let xv = load16(x.as_ptr().add(p));
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, load16(wr.as_ptr().add(p))));
            }
            out[j] = finish(acc, wr);
        }
    }
}

// ---------- convenience wrappers ----------

/// Quantized linear layer: quantize the f32 activations per row, run the
/// int8 GEMM against pre-quantized weights `w` (`[out, in]` layout), with
/// the dequant+bias epilogue producing f32 output.
pub fn linear_i8(x: &[f32], m: usize, w: &QTensor, bias: Option<&[f32]>, c: &mut [f32]) {
    let xq = QTensor::quantize(x, m, w.cols());
    gemm_i8_nt(&xq, w, bias, c);
}

/// bf16 linear layer: f32 activations against bf16-stored weights
/// (`[out, in]`), widened to f32 as the GEMM reads them; bias added
/// after.
pub fn linear_bf16(x: &[f32], m: usize, w: &Bf16Tensor, bias: Option<&[f32]>, c: &mut [f32]) {
    matmul::gemm_bf16_nt(x, w.bits(), c, m, w.cols(), w.rows());
    if let Some(bias) = bias {
        for row in c.chunks_mut(w.rows()) {
            for (cv, &bv) in row.iter_mut().zip(bias) {
                *cv += bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(n: usize, seed: u64) -> Vec<f32> {
        super::tests_seed(n, seed)
    }

    fn gemm_i8_reference(a: &QTensor, b: &QTensor, bias: Option<&[f32]>) -> Vec<f32> {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for p in 0..k {
                    acc += a.data()[i * k + p] as i64 * b.data()[j * k + p] as i64;
                }
                let bj = bias.map_or(0.0, |b| b[j]);
                out[i * n + j] = acc as f32 * (a.scales()[i] * b.scales()[j]) + bj;
            }
        }
        out
    }

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let src = seeded(300, 1);
        let q = QTensor::quantize(&src, 3, 100);
        let back = q.dequantize();
        for r in 0..3 {
            let scale = q.scales()[r];
            for i in 0..100 {
                let err = (back[r * 100 + i] - src[r * 100 + i]).abs();
                assert!(
                    err <= scale * 0.5 * (1.0 + 1e-4) + f32::EPSILON,
                    "row {r} elem {i}: err {err} vs scale/2 {}",
                    scale * 0.5
                );
            }
        }
    }

    #[test]
    fn representable_points_survive_round_trip() {
        // v = q·scale for integer q re-quantizes to exactly q.
        let scale = 0.037f32;
        let src: Vec<f32> = (-127..=127).map(|q| q as f32 * scale).collect();
        let q = QTensor::quantize(&src, 1, src.len());
        let back = q.dequantize();
        let q2 = QTensor::quantize(&back, 1, src.len());
        assert_eq!(q.data(), q2.data());
        assert_eq!(q.data()[0], -127);
        assert_eq!(*q.data().last().unwrap(), 127);
    }

    #[test]
    fn saturation_clamps_at_127() {
        // A row whose scale is pinned by one huge element: everything
        // else quantizes inside the range, the extremes to exactly ±127.
        let mut dst = vec![0i8; 4];
        quantize_slice(&[1e30, -1e30, 5.0, -5.0], 1.0, &mut dst, Arm::Scalar);
        assert_eq!(dst, vec![127, -127, 5, -5]);
    }

    #[test]
    fn zero_row_quantizes_to_zero() {
        let q = QTensor::quantize(&[0.0; 8], 1, 8);
        assert_eq!(q.scales(), &[1.0]);
        assert!(q.data().iter().all(|&v| v == 0));
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn push_row_matches_bulk_quantize() {
        let src = seeded(64, 7);
        let bulk = QTensor::quantize(&src, 4, 16);
        let mut inc = QTensor::new(16);
        for r in 0..4 {
            inc.push_row(&src[r * 16..(r + 1) * 16]);
        }
        assert_eq!(bulk, inc);
    }

    #[test]
    fn gemm_i8_matches_integer_reference() {
        let a = QTensor::quantize(&seeded(6 * 37, 11), 6, 37);
        let b = QTensor::quantize(&seeded(9 * 37, 12), 9, 37);
        let bias: Vec<f32> = seeded(9, 13);
        let mut c = vec![0.0f32; 6 * 9];
        gemm_i8_nt(&a, &b, Some(&bias), &mut c);
        let reference = gemm_i8_reference(&a, &b, Some(&bias));
        for (got, want) in c.iter().zip(&reference) {
            assert!(
                (got - want).abs() <= want.abs().max(1.0) * 1e-5,
                "{got} vs {want}"
            );
        }
    }

    #[test]
    fn gemm_i8_approximates_f32_gemm() {
        // Dequantized int8 GEMM must track the f32 product within the
        // quantization noise floor.
        let (m, k, n) = (8, 64, 8);
        let af = seeded(m * k, 21);
        let bf = seeded(n * k, 22);
        let a = QTensor::quantize(&af, m, k);
        let b = QTensor::quantize(&bf, n, k);
        let mut c = vec![0.0f32; m * n];
        gemm_i8_nt(&a, &b, None, &mut c);
        let mut cf = vec![0.0f32; m * n];
        matmul::gemm_nt(&af, &bf, &mut cf, m, k, n);
        let num: f32 = c.iter().zip(&cf).map(|(x, y)| (x - y) * (x - y)).sum();
        let den: f32 = cf.iter().map(|y| y * y).sum();
        let rel = (num / den.max(1e-12)).sqrt();
        assert!(rel < 0.05, "relative L2 error {rel}");
    }

    #[test]
    fn gemm_i8_ragged_shapes() {
        // Shapes that exercise every ragged path: odd k, strips narrower
        // than QMR/QNR, and tile remainders.
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (5, 33, 17), (QMR + 1, 11, QNR + 3)] {
            let a = QTensor::quantize(&seeded(m * k, 31), m, k);
            let b = QTensor::quantize(&seeded(n * k, 32), n, k);
            let mut c = vec![0.0f32; m * n];
            gemm_i8_nt(&a, &b, None, &mut c);
            let reference = gemm_i8_reference(&a, &b, None);
            for (got, want) in c.iter().zip(&reference) {
                assert!(
                    (got - want).abs() <= want.abs().max(1.0) * 1e-5,
                    "({m},{k},{n}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn bf16_round_trip_and_rne() {
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0)), 1.0);
        assert_eq!(bf16_to_f32(f32_to_bf16(-2.5)), -2.5);
        // bf16(1.0 + 2^-9) rounds the dropped bits to nearest even.
        let x = 1.0f32 + 2.0f32.powi(-9);
        let back = bf16_to_f32(f32_to_bf16(x));
        assert!((back - x).abs() <= 2.0f32.powi(-8));
        // Ties round to even mantissa: 1 + 2^-8 + 2^-16 has the dropped
        // half exactly at the tie with an even keep-bit below it.
        assert!(f32_to_bf16(f32::NAN) & 0x7FC0 != 0);
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        assert_eq!(bf16_to_f32(f32_to_bf16(0.0)), 0.0);
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
    }

    #[test]
    fn bf16_gemm_matches_widened_f32_gemm() {
        let (m, k, n) = (5, 19, 7);
        let af = seeded(m * k, 41);
        let bf = seeded(n * k, 42);
        let b16 = Bf16Tensor::from_f32(&bf, n, k);
        let mut c = vec![0.0f32; m * n];
        linear_bf16(&af, m, &b16, None, &mut c);
        // Reference: widen first, then the ordinary f32 path.
        let widened = b16.to_f32();
        let mut cf = vec![0.0f32; m * n];
        matmul::gemm_nt(&af, &widened, &mut cf, m, k, n);
        assert_eq!(c, cf, "widen-in-pack must equal widen-then-gemm");
    }

    #[test]
    fn linear_i8_bias_applied() {
        let w = QTensor::quantize(&seeded(4 * 8, 51), 4, 8);
        let x = seeded(8, 52);
        let bias = [1.0, -2.0, 3.0, -4.0];
        let mut with = vec![0.0f32; 4];
        let mut without = vec![0.0f32; 4];
        linear_i8(&x, 1, &w, Some(&bias), &mut with);
        linear_i8(&x, 1, &w, None, &mut without);
        for j in 0..4 {
            assert!((with[j] - without[j] - bias[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn storage_bytes_reflect_precision() {
        let src = seeded(32 * 16, 61);
        let q = QTensor::quantize(&src, 32, 16);
        let b = Bf16Tensor::from_f32(&src, 32, 16);
        assert_eq!(q.storage_bytes(), 32 * 16 + 4 * 32);
        assert_eq!(b.storage_bytes(), 2 * 32 * 16);
        assert!(q.storage_bytes() < b.storage_bytes());
        assert!(b.storage_bytes() < 4 * 32 * 16);
    }
}

#[cfg(test)]
mod parity_tests {
    //! Scalar≡AVX2 bit-parity and serial≡parallel invariance for every
    //! quant kernel, mirroring the dispatch-equivalence suite.
    use super::*;

    fn seeded(n: usize, seed: u64) -> Vec<f32> {
        super::tests_seed(n, seed)
    }

    fn both_arms<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) {
        if !simd::avx2_available() {
            return;
        }
        let scalar = simd::with_arm(Arm::Scalar, &f);
        let avx2 = simd::with_arm(Arm::Avx2, &f);
        assert_eq!(scalar, avx2, "scalar and AVX2 arms diverged");
    }

    #[test]
    fn quantize_bit_parity() {
        let src = seeded(QMR * 533, 71);
        both_arms(|| QTensor::quantize(&src, QMR, 533));
    }

    #[test]
    fn dequantize_bit_parity() {
        let q = QTensor::quantize(&seeded(3 * 277, 72), 3, 277);
        both_arms(|| q.dequantize());
    }

    /// Depth of the m = 1 cases: off the 16-wide step and the 8-wide one.
    const GEMV_K: usize = 1021;
    /// int8 rows of the m = 1 cases: 4.4 MB of weights, past the
    /// parallel split, and off the four-row block.
    const GEMV_N: usize = 4301;

    fn bits(c: &[f32]) -> Vec<u32> {
        c.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gemm_i8_bit_parity() {
        let a = QTensor::quantize(&seeded(13 * 67, 73), 13, 67);
        let b = QTensor::quantize(&seeded(29 * 67, 74), 29, 67);
        let bias = seeded(29, 75);
        both_arms(|| {
            let mut c = vec![0.0f32; 13 * 29];
            gemm_i8_nt(&a, &b, Some(&bias), &mut c);
            bits(&c)
        });
        // m = 1: one activation row against the `[out, in]` weights.
        let x = QTensor::quantize(&seeded(GEMV_K, 78), 1, GEMV_K);
        let w = QTensor::quantize(&seeded(GEMV_N * GEMV_K, 79), GEMV_N, GEMV_K);
        let bias = seeded(GEMV_N, 80);
        both_arms(|| {
            let mut c = vec![0.0f32; GEMV_N];
            gemm_i8_nt(&x, &w, Some(&bias), &mut c);
            bits(&c)
        });
    }

    /// The m = 1 path equals, bit for bit, row 0 of the packed engine's
    /// two-row product on the same weights (per-row quantization gives
    /// row 0 the same codes and scale either way).
    #[test]
    fn gemm_i8_one_row_equals_row_zero_of_two() {
        for (k, n) in [(37, 19), (GEMV_K, GEMV_N)] {
            let src = seeded(2 * k, 84);
            let two = QTensor::quantize(&src, 2, k);
            let one = QTensor::quantize(&src[..k], 1, k);
            let w = QTensor::quantize(&seeded(n * k, 85), n, k);
            let bias = seeded(n, 86);
            let mut c2 = vec![0.0f32; 2 * n];
            gemm_i8_nt(&two, &w, Some(&bias), &mut c2);
            let run = || {
                let mut c1 = vec![0.0f32; n];
                gemm_i8_nt(&one, &w, Some(&bias), &mut c1);
                bits(&c1)
            };
            assert_eq!(run(), bits(&c2[..n]), "k={k} n={n}");
            both_arms(run);
        }
    }

    #[test]
    fn bf16_gemm_bit_parity() {
        let x = seeded(9 * 45, 76);
        let w = Bf16Tensor::from_f32(&seeded(21 * 45, 77), 21, 45);
        both_arms(|| {
            let mut c = vec![0.0f32; 9 * 21];
            linear_bf16(&x, 9, &w, None, &mut c);
            bits(&c)
        });
        // m = 1, with as many weight bytes as the int8 case.
        let n = GEMV_N / 2;
        let x = seeded(GEMV_K, 87);
        let w = Bf16Tensor::from_f32(&seeded(n * GEMV_K, 88), n, GEMV_K);
        both_arms(|| {
            let mut c = vec![0.0f32; n];
            linear_bf16(&x, 1, &w, None, &mut c);
            bits(&c)
        });
    }

    #[test]
    fn gemm_i8_thread_count_invariance() {
        // Big enough to cross the parallel cut-over on multi-core hosts,
        // on both the packed engine and the m = 1 path.
        let (m, k, n) = (300, 128, 600);
        let a = QTensor::quantize(&seeded(m * k, 81), m, k);
        let b = QTensor::quantize(&seeded(n * k, 82), n, k);
        let x = QTensor::quantize(&seeded(GEMV_K, 89), 1, GEMV_K);
        let w = QTensor::quantize(&seeded(GEMV_N * GEMV_K, 90), GEMV_N, GEMV_K);
        let run = || {
            let mut c = vec![0.0f32; m * n];
            gemm_i8_nt(&a, &b, None, &mut c);
            let mut c1 = vec![0.0f32; GEMV_N];
            gemm_i8_nt(&x, &w, None, &mut c1);
            (bits(&c), bits(&c1))
        };
        let mut results = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            results.push(pool.install(run));
        }
        assert_eq!(results[0], results[1], "1 vs 2 threads diverged");
        assert_eq!(results[0], results[2], "1 vs 4 threads diverged");
    }

    #[test]
    fn quantize_thread_count_invariance() {
        let src = seeded(64 * 4096, 83);
        let run = || QTensor::quantize(&src, 64, 4096);
        let mut results = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            results.push(pool.install(run));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }
}

#[cfg(test)]
fn tests_seed(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f32 / (1u64 << 53) as f32).mul_add(4.0, -1.0)
        })
        .collect()
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// quantize→dequantize error is bounded by scale/2 per element
        /// (with a whisker of slack for the division/multiply roundings).
        #[test]
        fn round_trip_bound(vals in prop::collection::vec(-1e4f32..1e4, 1..200)) {
            let q = QTensor::quantize(&vals, 1, vals.len());
            let scale = q.scales()[0];
            let back = q.dequantize();
            for (i, (&b, &v)) in back.iter().zip(&vals).enumerate() {
                let err = (b - v).abs();
                prop_assert!(
                    err <= scale * 0.5 * (1.0 + 1e-4) + f32::EPSILON,
                    "elem {i}: err {err} vs scale {scale}"
                );
            }
        }

        /// Quantized codes never leave the symmetric ±127 range, and the
        /// extreme element of each row hits exactly ±127.
        #[test]
        fn saturation_and_range(vals in prop::collection::vec(-1e6f32..1e6, 2..100)) {
            let q = QTensor::quantize(&vals, 1, vals.len());
            prop_assert!(q.data().iter().all(|&c| (-127..=127).contains(&c)));
            let max = vals.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            if max > 0.0 {
                prop_assert!(q.data().iter().any(|&c| c == 127 || c == -127));
            }
        }

        /// Representable points (integer multiples of the scale, with the
        /// full-range code present so the recovered scale matches) are
        /// quantized exactly and survive a second round trip.
        #[test]
        fn representable_fixed_point(codes in prop::collection::vec(-127i8..=127, 1..64),
                                     scale in 1e-3f32..10.0) {
            let mut codes = codes;
            codes.push(127);
            let vals: Vec<f32> = codes.iter().map(|&c| c as f32 * scale).collect();
            let q = QTensor::quantize(&vals, 1, vals.len());
            prop_assert_eq!(q.data(), &codes[..], "codes must be recovered exactly");
            let back = q.dequantize();
            let q2 = QTensor::quantize(&back, 1, vals.len());
            prop_assert_eq!(q.data(), q2.data());
        }

        /// int8 GEMM tracks the f32 reference within the quantization
        /// noise floor across random shapes and per-channel scale spreads.
        #[test]
        fn gemm_i8_vs_f32_reference(m in 1usize..12, k in 1usize..96, n in 1usize..24,
                                    seed in 0u64..1000, spread in 1.0f32..64.0) {
            let mut af = tests_seed(m * k, seed);
            let bf = tests_seed(n * k, seed.wrapping_add(1));
            // Give each activation row its own magnitude so per-channel
            // scales genuinely differ.
            for (r, row) in af.chunks_mut(k).enumerate() {
                let f = 1.0 + spread * (r as f32 / m as f32);
                for v in row { *v *= f; }
            }
            let a = QTensor::quantize(&af, m, k);
            let b = QTensor::quantize(&bf, n, k);
            let mut c = vec![0.0f32; m * n];
            gemm_i8_nt(&a, &b, None, &mut c);
            let mut cf = vec![0.0f32; m * n];
            matmul::gemm_nt(&af, &bf, &mut cf, m, k, n);
            // Error bound: |Σ(a+δa)(b+δb) − Σab| ≤ k(amax·sb/2 + bmax·sa/2
            // + sa·sb/4) with sa = amax/127, sb = bmax/127, i.e. roughly
            // k·amax·bmax/127; /120 leaves headroom for f32 rounding.
            for i in 0..m {
                for j in 0..n {
                    let amax = af[i*k..(i+1)*k].iter().fold(0.0f32, |s, v| s.max(v.abs()));
                    let bmax = bf[j*k..(j+1)*k].iter().fold(0.0f32, |s, v| s.max(v.abs()));
                    let bound = k as f32 * amax * bmax / 120.0 + 1e-2;
                    let err = (c[i*n+j] - cf[i*n+j]).abs();
                    prop_assert!(err <= bound, "({i},{j}) err {err} bound {bound}");
                }
            }
        }

        /// bf16 widening is exact: pack-time widening equals an f32 GEMM
        /// over the pre-widened matrix, bit for bit.
        #[test]
        fn bf16_gemm_exact_vs_widened(m in 1usize..8, k in 1usize..64, n in 1usize..16,
                                      seed in 0u64..1000) {
            let af = tests_seed(m * k, seed);
            let bf = tests_seed(n * k, seed.wrapping_add(9));
            let b16 = Bf16Tensor::from_f32(&bf, n, k);
            let mut c = vec![0.0f32; m * n];
            linear_bf16(&af, m, &b16, None, &mut c);
            let widened = b16.to_f32();
            let mut cf = vec![0.0f32; m * n];
            matmul::gemm_nt(&af, &widened, &mut cf, m, k, n);
            prop_assert_eq!(c, cf);
        }
    }
}
