//! Cache-blocked, packed-panel matrix multiplication.
//!
//! Matrix multiplication is "the fundamental building block" of the
//! paper's workloads (§II); here it is the real compute kernel behind the
//! trainable GPT and ResNet models, so it is built the way fast CPU BLAS
//! libraries build it (GotoBLAS/BLIS style) rather than as a textbook
//! loop nest:
//!
//! * **Packing.** For each `MC×KC` block of A and `KC×NC` block of B the
//!   operands are copied once into contiguous *panels*: A into strips of
//!   `MR` interleaved rows (`kc × MR` each), B into strips of `NR`
//!   interleaved columns (`kc × NR` each). Packing makes every microkernel
//!   load unit-stride regardless of the logical layout — the same packed
//!   kernel therefore serves `A·B`, `A·Bᵀ` and `Aᵀ·B` by changing only the
//!   gather strides, and ragged edges are zero-padded so the microkernel
//!   never branches on shape.
//! * **Register-tiled microkernel, two arms.** An `MR×NR` accumulator
//!   block lives in registers across the whole `kc` loop; each iteration
//!   performs `MR·NR` independent multiply-adds from one A strip column
//!   and one B strip row. The runtime dispatcher ([`crate::simd`]) picks
//!   between a hand-written AVX2+FMA `_mm256_fmadd_ps` microkernel
//!   ([`microkernel_avx2`], 12 explicit ymm accumulators) and the
//!   portable scalar arm that LLVM auto-vectorises under
//!   `-C target-cpu=native` (see `.cargo/config.toml`). Both arms chain
//!   each accumulator through the same fused-multiply-add sequence over
//!   ascending `p`, so their results are bit-identical — the
//!   dispatch-equivalence suite pins this.
//! * **Parallelism over 2-D output tiles.** Work is split over output
//!   tiles of at most `MC×NC` (both dimensions), not flat row blocks,
//!   with the longer output side cut into at least one tile per thread:
//!   with `MC` alone, the tiny GPT's 128-row products split into a
//!   120-row and an 8-row tile and a second thread barely helped (GPT
//!   GEMMs ran 0.95–1.07x as fast on two threads as on one; balanced,
//!   1.09–1.32x). Each output
//!   element is owned by exactly one task and accumulated in a fixed
//!   k-order (KC blocks ascending, `p` ascending inside each block), so
//!   the tile geometry never changes a bit and results are
//!   **bit-identical for every rayon thread count** — the property the
//!   `thread_count_invariance` proptest pins down.
//! * **Workspace reuse.** Packing panels are drawn from the global
//!   [`crate::workspace`] pool, so steady-state training steps perform no
//!   heap allocation in the packing path.
//! * **An unpacked m = 1 path.** A decode step multiplies one activation
//!   row by every weight matrix; packing would copy the whole matrix per
//!   call and run the microkernel with 5 of its 6 rows zero. See below.
//!
//! ## Tile-size tuning rationale
//!
//! `KC` is chosen so one A strip (`MR·KC`) plus one B strip (`NR·KC`)
//! stay resident in L1d (48 KiB here): `(6+16)·256·4 B = 22 KiB`, leaving
//! room for the C tile and streaming loads. `MC` bounds the packed A
//! panel (`MC·KC·4 B = 120 KiB`) well inside L2 (2 MiB), and `NC` bounds
//! the packed B panel (`KC·NC·4 B = 512 KiB`) inside L2/L3 so it survives
//! the sweep over A strips. `MR×NR = 6×16` is sized for the 16-register
//! 256-bit vector file (AVX-512 is disabled in `.cargo/config.toml` — on
//! the virtualised Xeons this repo targets zmm FMA is ~25x slower than
//! ymm): 6 rows × 2 ymm columns = 12 accumulator registers, plus 2 for
//! the B strip and 1 for the broadcast A value, totalling 15 of 16 —
//! the widest tile that avoids accumulator spills. The shapes probed
//! (8×16: 49, 6×16: 88, 4×24: 92, 8×8: 38 GFLOP/s isolated) showed
//! spilling (8×16) or too little ILP (8×8) cost 2x; 6×16 was preferred
//! over 4×24 for NR=16 alignment with the power-of-two shapes the
//! models use.
//!
//! The parallel cut-over is not a hard-coded constant (the seed's
//! `PAR_THRESHOLD` assumed a fixed machine): [`par_grain_flops`] asks
//! rayon for the worker count and requires every worker to receive at
//! least `PAR_MIN_FLOPS_PER_THREAD` of work. The rayon shim's workers
//! are persistent: an empty parallel call costs about 0.4 µs, but a
//! parked worker takes about 60 µs to wake and join (2-vCPU Xeon KVM
//! guest), and the calling thread runs the job alone until then, so a
//! task must outlast the wake-up for a second thread to pay.
//!
//! ## The m = 1 path
//!
//! [`gemm_strided`] sends a product to [`gemv`] before any other shape
//! test when `m = 1` and B's reduction axis is contiguous — the
//! `[out, in]` layout behind [`gemm_nt`], [`gemm_bf16_nt`] and
//! [`crate::quant::linear_bf16`]; the row-major `A·B` of training takes
//! it only in the degenerate `n = 1` case. Each weight row is read once
//! at storage width, with no packing buffer and no padded rows; bf16 is
//! widened in-register ([`PackElem::load8`]).
//!
//! * **Reduction tree.** Each output is [`simd::dot8`] of the activation
//!   row and its weight row: 8 fused lane chains over ascending `p`,
//!   [`simd::fold8`], then a sequential fused tail — on the AVX2 arm the
//!   [`simd::avx2::vdot`] sequence. Four rows share each activation load
//!   per pass, each in its own chain, so the blocking, the arm and the
//!   rayon split cannot change a bit, and bf16 stays bit-identical to f32
//!   on the widened weights. The bits differ from the packed engine's
//!   (one sequential chain per output), which still serves every
//!   `m > 1` product.
//! * **Streams.** Pass `i` reads row `i` of each quarter of the rows, so
//!   each of the four weight streams is sequential in memory. Four
//!   adjacent 1–2 KiB rows share a page and defeat the hardware
//!   prefetchers: on 4 MiB matrices at `k = 1024` from a 256 MiB
//!   rotating set (2-vCPU Xeon KVM guest, AVX2 arm, one worker), the
//!   quarter order streamed 11.1/9.9/8.3 GB/s (f32/bf16/int8) against
//!   10.6/6.4/5.0 GB/s for adjacent rows.
//! * **Cut-over, in bytes.** A GEMV streams its matrix once at two FLOPs
//!   per element, so [`gemv_split`] sizes rayon tasks by the bytes they
//!   stream, not by [`par_grain_flops`]: one task per
//!   `GEMV_MIN_TASK_BYTES` (512 KiB), at most one per worker, serial
//!   below two tasks. A task only has to outlast a parked worker's
//!   wake-up (about 60 µs, roughly 512 KiB of streaming). In perfbench's
//!   `decode` workload (4 layers, hidden 1024, vocabulary 4096; 2-vCPU
//!   Xeon KVM guest, AVX2 arm; 6 s runs alternating between floors, six
//!   each for 2 MiB and 512 KiB, three each for 256 KiB and 4 MiB) a
//!   2 MiB floor decoded 100–106/141–155/249–285 tokens/s
//!   (f32/bf16/int8), 512 KiB 98–111/168–187/293–325 and 256 KiB
//!   103–114/179–187/310–323; 4 MiB lost a fifth of the int8 rate. The
//!   512 KiB floor splits the 1024×1024 attention projections in bf16
//!   and int8, which a 2 MiB floor leaves on one thread.
//!
//! The int8 engine in [`crate::quant`] has the same path with exact i32
//! accumulation, so its m = 1 results equal the packed engine's bits.

use crate::simd::{self, Arm};
use crate::tensor::Tensor;
use crate::workspace::{self, Workspace};
use crate::TensorError;
use rayon::prelude::*;

/// Microkernel rows (A strip width).
pub const MR: usize = 6;
/// Microkernel columns (B strip width); two 256-bit f32 vectors.
pub const NR: usize = 16;
/// Rows of A packed per panel (L2 blocking); a multiple of `MR` so
/// interior panels have no ragged strip.
pub const MC: usize = 120;
/// Depth of one packed block (L1 blocking).
pub const KC: usize = 256;
/// Columns of B packed per panel (L2/L3 blocking).
pub const NC: usize = 512;

/// Problems with fewer multiply-adds than this skip packing entirely:
/// the pack/unpack traffic (`≈ mc·kc + kc·nc` writes) only amortises once
/// the arithmetic dominates it.
const SMALL_GEMM_FLOPS: usize = 16 * 16 * 16;

/// Minimum multiply-adds per rayon worker before the parallel path is
/// worth a worker's wake-up (about 60 µs, the time of ~10⁶ multiply-adds
/// here). Re-measured with persistent workers: 2¹⁸–2²² moved neither
/// the tiny GPT's nor the tiny ResNet's train step beyond host noise.
const PAR_MIN_FLOPS_PER_THREAD: usize = 1 << 19;

/// Total multiply-add count above which the 2-D tile loop runs on rayon.
/// Shared with the int8 engine in [`crate::quant`] so both precisions use
/// one parallel cut-over policy.
pub(crate) fn par_grain_flops() -> usize {
    PAR_MIN_FLOPS_PER_THREAD * rayon::current_num_threads().max(1)
}

/// Strides describing how a logical matrix element `(i, j)` maps into a
/// flat slice: `data[i*rs + j*cs]`. Transposition is a stride swap.
#[derive(Debug, Clone, Copy)]
struct Layout {
    rs: usize,
    cs: usize,
}

impl Layout {
    /// Row-major `[rows, cols]`.
    fn row_major(cols: usize) -> Layout {
        Layout { rs: cols, cs: 1 }
    }

    /// Transpose of a row-major `[rows, cols]` buffer.
    fn transposed(cols: usize) -> Layout {
        Layout { rs: 1, cs: cols }
    }
}

/// Storage element of the B operand, widened to `f32` where it is read.
/// This is how the bf16 tier rides the f32 engine: bf16 weights stay
/// 2 B/element in memory (halving the streaming traffic of the
/// memory-bound decode path) and are widened to f32 in the packing
/// gather, or in-register by the m = 1 path, so the f32 arithmetic — and
/// therefore the scalar≡AVX2 bit-parity contract — is untouched.
/// Widening bf16→f32 is exact (bf16 is a prefix of the f32 bit pattern),
/// so results equal an f32 GEMM over the widened matrix.
pub(crate) trait PackElem: Copy + Send + Sync {
    fn widen(self) -> f32;

    /// Eight consecutive elements widened into one f32 vector.
    ///
    /// # Safety
    /// Caller must ensure avx2 is available and `p` is valid for eight
    /// element reads.
    #[cfg(target_arch = "x86_64")]
    unsafe fn load8(p: *const Self) -> std::arch::x86_64::__m256;
}

impl PackElem for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(p: *const f32) -> std::arch::x86_64::__m256 {
        // SAFETY: forwarded from the caller.
        unsafe { std::arch::x86_64::_mm256_loadu_ps(p) }
    }
}

/// bf16 stored as the high 16 bits of an f32 (see [`crate::quant`]).
impl PackElem for u16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        f32::from_bits((self as u32) << 16)
    }

    /// Zero-extend eight u16 lanes to u32 and shift them into the high
    /// half: the lane-wise [`PackElem::widen`].
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn load8(p: *const u16) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::*;
        // SAFETY: forwarded from the caller (eight u16 are 16 bytes).
        unsafe {
            let halves = _mm256_cvtepu16_epi32(_mm_loadu_si128(p.cast()));
            _mm256_castsi256_ps(_mm256_slli_epi32::<16>(halves))
        }
    }
}

/// Fused multiply-add under the runtime dispatch table's rounding
/// contract ([`simd::fma_chains`]): fused exactly when the AVX2+FMA arm
/// is selectable on this host, so the scalar arm rounds identically to
/// [`microkernel_avx2`]'s `_mm256_fmadd_ps` chains and the two arms stay
/// bit-comparable. (The old `cfg!(target_feature = "fma")` check was
/// compile-time and could silently disagree with runtime dispatch on
/// hosts whose build flags and CPUID don't match.) The flag is a const
/// generic so the hot loops monomorphise branch-free.
#[inline(always)]
fn fmadd<const FMA: bool>(a: f32, b: f32, acc: f32) -> f32 {
    if FMA {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

// ---------- public tensor entry points ----------

/// `C = A · B` for 2-D tensors `[m, k] · [k, n] -> [m, n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 || b.rank() != 2 || a.dims()[1] != b.dims()[0] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = workspace::global().take_zeroed(m * n);
    gemm(a.data(), b.data(), &mut out, m, k, n);
    Ok(Tensor::from_vec(out, [m, n]))
}

/// `C = A · Bᵀ` for `[m, k] · [n, k] -> [m, n]` without materialising the
/// transpose (the layout used by linear layers storing `[out, in]`).
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 || b.rank() != 2 || a.dims()[1] != b.dims()[1] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_bt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[0];
    let mut out = workspace::global().take_zeroed(m * n);
    gemm_nt(a.data(), b.data(), &mut out, m, k, n);
    Ok(Tensor::from_vec(out, [m, n]))
}

/// `C = Aᵀ · B` for `[k, m] · [k, n] -> [m, n]` (gradient-of-weights
/// layout in linear layers).
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 || b.rank() != 2 || a.dims()[0] != b.dims()[0] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_at",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = workspace::global().take_zeroed(m * n);
    gemm_tn(a.data(), b.data(), &mut out, m, k, n);
    Ok(Tensor::from_vec(out, [m, n]))
}

/// Batched matmul: `[b, m, k] · [b, k, n] -> [b, m, n]` (attention heads).
pub fn bmm(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 3 || b.rank() != 3 || a.dims()[0] != b.dims()[0] || a.dims()[2] != b.dims()[1] {
        return Err(TensorError::ShapeMismatch {
            op: "bmm",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (batch, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let n = b.dims()[2];
    bmm_strided(
        a,
        b,
        batch,
        m,
        k,
        n,
        Layout::row_major(k),
        Layout::row_major(n),
    )
}

/// Batched `A · Bᵀ`: `[b, m, k] · [b, n, k] -> [b, m, n]` (attention
/// scores `Q·Kᵀ` without materialising the transpose).
pub fn bmm_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 3 || b.rank() != 3 || a.dims()[0] != b.dims()[0] || a.dims()[2] != b.dims()[2] {
        return Err(TensorError::ShapeMismatch {
            op: "bmm_bt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (batch, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let n = b.dims()[1];
    bmm_strided(
        a,
        b,
        batch,
        m,
        k,
        n,
        Layout::row_major(k),
        Layout::transposed(k),
    )
}

/// Batched `Aᵀ · B`: `[b, k, m] · [b, k, n] -> [b, m, n]` (attention
/// backward `dV = softmaxᵀ·dY` without materialising the transpose).
pub fn bmm_at(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 3 || b.rank() != 3 || a.dims()[0] != b.dims()[0] || a.dims()[1] != b.dims()[1] {
        return Err(TensorError::ShapeMismatch {
            op: "bmm_at",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (batch, k, m) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let n = b.dims()[2];
    bmm_strided(
        a,
        b,
        batch,
        m,
        k,
        n,
        Layout::transposed(m),
        Layout::row_major(n),
    )
}

/// Shared batched driver: batches in parallel, each batch sequential (so
/// the reduction order per output element never depends on thread count).
#[allow(clippy::too_many_arguments)]
fn bmm_strided(
    a: &Tensor,
    b: &Tensor,
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    la: Layout,
    lb: Layout,
) -> Result<Tensor, TensorError> {
    let a_data = a.data();
    let b_data = b.data();
    let a_stride = a.numel() / batch.max(1);
    let b_stride = b.numel() / batch.max(1);
    let mut out = workspace::global().take_zeroed(batch * m * n);
    let flops = batch * m * k * n;
    let body = |(bi, chunk): (usize, &mut [f32])| {
        gemm_strided(
            &a_data[bi * a_stride..(bi + 1) * a_stride],
            la,
            &b_data[bi * b_stride..(bi + 1) * b_stride],
            lb,
            chunk,
            m,
            k,
            n,
            workspace::global(),
            false,
        );
    };
    if batch > 1 && flops >= par_grain_flops() {
        out.par_chunks_mut(m * n).enumerate().for_each(body);
    } else {
        out.chunks_mut(m * n).enumerate().for_each(body);
    }
    Ok(Tensor::from_vec(out, [batch, m, n]))
}

// ---------- public slice entry points ----------

/// Raw GEMM on slices: `C = A·B`, row-major, C overwritten.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_ws(a, b, c, m, k, n, workspace::global());
}

/// [`gemm`] drawing packing panels from an explicit workspace.
pub fn gemm_ws(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, ws: &Workspace) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_strided(
        a,
        Layout::row_major(k),
        b,
        Layout::row_major(n),
        c,
        m,
        k,
        n,
        ws,
        true,
    );
}

/// `C = A·Bᵀ` on slices: `a` is `[m, k]`, `b` is `[n, k]`, C overwritten.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_nt_ws(a, b, c, m, k, n, workspace::global());
}

/// [`gemm_nt`] drawing packing panels from an explicit workspace.
pub fn gemm_nt_ws(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &Workspace,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    gemm_strided(
        a,
        Layout::row_major(k),
        b,
        Layout::transposed(k),
        c,
        m,
        k,
        n,
        ws,
        true,
    );
}

/// `C = Aᵀ·B` on slices: `a` is `[k, m]`, `b` is `[k, n]`, C overwritten.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_tn_ws(a, b, c, m, k, n, workspace::global());
}

/// [`gemm_tn`] drawing packing panels from an explicit workspace.
pub fn gemm_tn_ws(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &Workspace,
) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_strided(
        a,
        Layout::transposed(m),
        b,
        Layout::row_major(n),
        c,
        m,
        k,
        n,
        ws,
        true,
    );
}

/// `C = A·Bᵀ` where B is bf16-stored (`[n, k]` of raw bf16 bits, the
/// `[out, in]` linear-layer layout): each bf16 element is widened to f32
/// where it is read — in the packing gather, or in-register on the m = 1
/// path — so B streams from memory at 2 B/element while the arithmetic is
/// the unchanged f32 dual-arm path.
pub fn gemm_bf16_nt(a: &[f32], b: &[u16], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_bf16_nt_ws(a, b, c, m, k, n, workspace::global());
}

/// [`gemm_bf16_nt`] drawing packing panels from an explicit workspace.
pub fn gemm_bf16_nt_ws(
    a: &[f32],
    b: &[u16],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &Workspace,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    gemm_strided(
        a,
        Layout::row_major(k),
        b,
        Layout::transposed(k),
        c,
        m,
        k,
        n,
        ws,
        true,
    );
}

// ---------- the packed-panel engine ----------

/// Disjoint-tile write handle: each parallel task writes only the C rows
/// and columns of its own tile, so aliasing is impossible.
#[derive(Clone, Copy)]
struct TileWriter(*mut f32);
unsafe impl Send for TileWriter {}
unsafe impl Sync for TileWriter {}

/// Strided GEMM core. `c` is row-major `[m, n]` and is overwritten.
///
/// The k-reduction order per output element is fixed (KC blocks ascending,
/// `p` ascending within a block) and independent of both `allow_parallel`
/// and the rayon worker count: tasks partition *output* tiles only.
#[allow(clippy::too_many_arguments)]
fn gemm_strided<TB: PackElem>(
    a: &[f32],
    la: Layout,
    b: &[TB],
    lb: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ws: &Workspace,
    allow_parallel: bool,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    // Arm + rounding contract resolved once on the calling thread so
    // thread-scoped overrides propagate into the rayon tile tasks.
    let arm = simd::active_arm();
    let fma = simd::fma_chains();
    if m == 1 && la.cs == 1 && lb.rs == 1 {
        // One activation row against B rows contiguous along k (the
        // `[out, in]` layout): stream each row once, unpacked.
        return gemv(&a[..k], b, lb.cs, c, arm, fma, allow_parallel);
    }
    if m * n * k < SMALL_GEMM_FLOPS {
        return if fma {
            gemm_direct::<true, _>(a, la, b, lb, c, m, k, n)
        } else {
            gemm_direct::<false, _>(a, la, b, lb, c, m, k, n)
        };
    }
    let threads = rayon::current_num_threads();
    let parallel = allow_parallel && threads > 1 && m * n * k >= par_grain_flops();
    // Parallel tiles are at most MC×NC and cut so the longer output side
    // spreads over `threads` tiles: MC alone would split a 128-row
    // product into a 120-row and an 8-row tile. Each task packs its own
    // rows of A and columns of B, so cutting along n repeats only A's
    // packing, and along m only B's; the shorter side is the one repeated.
    let (tm, tn) = if !parallel {
        (MC, NC)
    } else if n >= m {
        (MC, n.div_ceil(threads).next_multiple_of(NR).min(NC))
    } else {
        (m.div_ceil(threads).next_multiple_of(MR).min(MC), NC)
    };
    let tiles_n = n.div_ceil(tn);
    let tiles = m.div_ceil(tm) * tiles_n;
    let par_tiles = parallel && tiles > 1;
    // Panel prepacking parallelises over strips when the tile loop itself
    // is serial but the problem is parallel-worthy (one output tile); when
    // the tile loop is already parallel the workers are busy and nested
    // packing parallelism would only add stealing overhead.
    let par_pack = parallel && !par_tiles;
    let writer = TileWriter(c.as_mut_ptr());
    let task = |t: usize| {
        let (it, jt) = (t / tiles_n, t % tiles_n);
        let i0 = it * tm;
        let j0 = jt * tn;
        let mc = tm.min(m - i0);
        let nc = tn.min(n - j0);
        compute_tile(
            a, la, b, lb, writer, n, k, i0, mc, j0, nc, ws, arm, fma, par_pack,
        );
    };
    if par_tiles {
        (0..tiles).into_par_iter().for_each(task);
    } else {
        // Serial path in classic GotoBLAS loop order: a packed `kc×nc` B
        // panel is shared across the whole MC sweep instead of being
        // re-packed per output tile (the parallel path keeps per-task
        // packing for isolation). Per output element the accumulation
        // chain is identical — KC blocks ascending, `p` ascending, same
        // microkernel — so serial and parallel stay bit-identical.
        c.fill(0.0);
        let kc_max = KC.min(k);
        let mut a_pack = ws.take_zeroed(MC.min(m).div_ceil(MR) * MR * kc_max);
        let mut b_pack = ws.take_zeroed(NC.min(n).div_ceil(NR) * NR * kc_max);
        for jt in 0..n.div_ceil(NC) {
            let j0 = jt * NC;
            let nc = NC.min(n - j0);
            let mut p0 = 0;
            while p0 < k {
                let kc = KC.min(k - p0);
                pack_b(b, lb, j0, nc, p0, kc, &mut b_pack, par_pack);
                for it in 0..m.div_ceil(MC) {
                    let i0 = it * MC;
                    let mc = MC.min(m - i0);
                    pack_a(a, la, i0, mc, p0, kc, &mut a_pack, par_pack);
                    strip_sweep(writer, n, i0, mc, j0, nc, kc, &a_pack, &b_pack, arm, fma);
                }
                p0 += kc;
            }
        }
        ws.give(a_pack);
        ws.give(b_pack);
    }
}

/// Sweep all `NR×MR` strip pairs of one packed panel pair, accumulating
/// `mc×nc` microkernel results into C. B strip outermost: one `NR·kc` B
/// strip stays L1-resident while the (smaller) packed A panel streams
/// past it, which is several times less L2 traffic than the reverse
/// order. The (is, js) visit order does not affect numerics: each output
/// element gets exactly one accumulate per KC block either way.
#[allow(clippy::too_many_arguments)]
fn strip_sweep(
    writer: TileWriter,
    n: usize,
    i0: usize,
    mc: usize,
    j0: usize,
    nc: usize,
    kc: usize,
    a_pack: &[f32],
    b_pack: &[f32],
    arm: Arm,
    fma: bool,
) {
    let mr_strips = mc.div_ceil(MR);
    let nr_strips = nc.div_ceil(NR);
    for js in 0..nr_strips {
        let b_strip = &b_pack[js * NR * kc..(js + 1) * NR * kc];
        let nr_eff = NR.min(nc - js * NR);
        for is in 0..mr_strips {
            let a_strip = &a_pack[is * MR * kc..(is + 1) * MR * kc];
            let mr_eff = MR.min(mc - is * MR);
            let acc = match arm {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the dispatcher only selects this arm when
                // avx2+fma are detected at runtime.
                Arm::Avx2 => unsafe { microkernel_avx2(kc, a_strip, b_strip) },
                #[cfg(not(target_arch = "x86_64"))]
                Arm::Avx2 => unreachable!("AVX2 arm dispatched on non-x86_64"),
                Arm::Scalar if fma => microkernel::<true>(kc, a_strip, b_strip),
                Arm::Scalar => microkernel::<false>(kc, a_strip, b_strip),
            };
            // Accumulate the valid region into C.
            let c_base = (i0 + is * MR) * n + j0 + js * NR;
            for ii in 0..mr_eff {
                let row = unsafe {
                    std::slice::from_raw_parts_mut(writer.0.add(c_base + ii * n), nr_eff)
                };
                for (cv, &av) in row.iter_mut().zip(&acc[ii][..nr_eff]) {
                    *cv += av;
                }
            }
        }
    }
}

/// Compute one `mc×nc` output tile: zero it, then accumulate KC-deep
/// packed blocks in ascending k order.
#[allow(clippy::too_many_arguments)]
fn compute_tile<TB: PackElem>(
    a: &[f32],
    la: Layout,
    b: &[TB],
    lb: Layout,
    writer: TileWriter,
    n: usize,
    k: usize,
    i0: usize,
    mc: usize,
    j0: usize,
    nc: usize,
    ws: &Workspace,
    arm: Arm,
    fma: bool,
    par_pack: bool,
) {
    let mr_strips = mc.div_ceil(MR);
    let nr_strips = nc.div_ceil(NR);
    let mut a_pack = ws.take_zeroed(mr_strips * MR * KC.min(k));
    let mut b_pack = ws.take_zeroed(nr_strips * NR * KC.min(k));

    // Zero this tile of C (the tile is owned exclusively by this task).
    for ii in 0..mc {
        let row = unsafe { std::slice::from_raw_parts_mut(writer.0.add((i0 + ii) * n + j0), nc) };
        row.fill(0.0);
    }

    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        pack_a(a, la, i0, mc, p0, kc, &mut a_pack, par_pack);
        pack_b(b, lb, j0, nc, p0, kc, &mut b_pack, par_pack);
        strip_sweep(writer, n, i0, mc, j0, nc, kc, &a_pack, &b_pack, arm, fma);
        p0 += kc;
    }
    ws.give(a_pack);
    ws.give(b_pack);
}

/// Pack `mc` logical rows × `kc` depth of A into MR-interleaved strips:
/// strip `is` holds columns `p` contiguously as `MR` consecutive row
/// values (`dst[is·MR·kc + p·MR + ii] = A[i0+is·MR+ii, p0+p]`), ragged
/// rows zero-padded.
/// Packing is pure data movement (no floating-point arithmetic), so the
/// optional strip-parallel path cannot perturb results — each strip is an
/// exclusive destination chunk.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f32],
    la: Layout,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    dst: &mut [f32],
    parallel: bool,
) {
    let strips = mc.div_ceil(MR);
    let strip = |is: usize, chunk: &mut [f32]| {
        let rows = MR.min(mc - is * MR);
        for p in 0..kc {
            let col = p0 + p;
            let out = &mut chunk[p * MR..p * MR + MR];
            for ii in 0..rows {
                out[ii] = a[(i0 + is * MR + ii) * la.rs + col * la.cs];
            }
            for slot in out.iter_mut().skip(rows) {
                *slot = 0.0;
            }
        }
    };
    if parallel && strips > 1 {
        dst[..strips * MR * kc]
            .par_chunks_mut(MR * kc)
            .enumerate()
            .for_each(|(is, chunk)| strip(is, chunk));
    } else {
        dst[..strips * MR * kc]
            .chunks_mut(MR * kc)
            .enumerate()
            .for_each(|(is, chunk)| strip(is, chunk));
    }
}

/// Pack `kc` depth × `nc` logical columns of B into NR-interleaved strips
/// (`dst[js·NR·kc + p·NR + jj] = B[p0+p, j0+js·NR+jj]`), ragged columns
/// zero-padded.
#[allow(clippy::too_many_arguments)]
fn pack_b<TB: PackElem>(
    b: &[TB],
    lb: Layout,
    j0: usize,
    nc: usize,
    p0: usize,
    kc: usize,
    dst: &mut [f32],
    parallel: bool,
) {
    let strips = nc.div_ceil(NR);
    let strip = |js: usize, chunk: &mut [f32]| {
        let cols = NR.min(nc - js * NR);
        for p in 0..kc {
            let row = p0 + p;
            let out = &mut chunk[p * NR..p * NR + NR];
            for jj in 0..cols {
                out[jj] = b[row * lb.rs + (j0 + js * NR + jj) * lb.cs].widen();
            }
            for slot in out.iter_mut().skip(cols) {
                *slot = 0.0;
            }
        }
    };
    if parallel && strips > 1 {
        dst[..strips * NR * kc]
            .par_chunks_mut(NR * kc)
            .enumerate()
            .for_each(|(js, chunk)| strip(js, chunk));
    } else {
        dst[..strips * NR * kc]
            .chunks_mut(NR * kc)
            .enumerate()
            .for_each(|(js, chunk)| strip(js, chunk));
    }
}

/// The register-tiled heart: `acc[i][j] += Σ_p a_strip[p,i] · b_strip[p,j]`
/// over a packed `MR×kc` A strip and `kc×NR` B strip. All `MR·NR`
/// accumulators are independent, so the compiler keeps them in vector
/// registers and the loop body is a burst of FMAs.
#[inline(always)]
fn microkernel<const FMA: bool>(kc: usize, a_strip: &[f32], b_strip: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..kc {
        let av: &[f32; MR] = a_strip[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[f32; NR] = b_strip[p * NR..p * NR + NR].try_into().unwrap();
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] = fmadd::<FMA>(av[i], bv[j], acc[i][j]);
            }
        }
    }
    acc
}

/// The AVX2+FMA arm of the microkernel: the 6×16 accumulator block as 12
/// explicit ymm registers (6 rows × 2 vectors), one broadcast A value and
/// two B vectors per `p` — 15 of the 16-register 256-bit file, exactly
/// the layout the tile-size rationale above sizes for. Each `acc[i][j]`
/// is the same single `fma` chain over ascending `p` as the scalar arm's
/// `mul_add` chain, so the arms are bit-identical.
///
/// # Safety
/// Caller must ensure avx2+fma are available (dispatch guarantees this)
/// and that `a_strip`/`b_strip` hold at least `kc*MR` / `kc*NR` elements.
#[cfg(target_arch = "x86_64")]
// When the build already enables avx2+fma (`-C target-cpu=native`, the
// committed `.cargo/config.toml`) the `#[target_feature]` attribute is
// redundant and would block `#[inline(always)]` — and an out-of-line
// microkernel call costs ~25% at kc=128. The cfg_attr pair keeps the
// portable build correct (attribute present, plain `#[inline]`) while the
// native build gets mandatory inlining into `compute_tile`'s strip loop.
#[cfg_attr(
    not(all(target_feature = "avx2", target_feature = "fma")),
    target_feature(enable = "avx2,fma"),
    inline
)]
#[cfg_attr(all(target_feature = "avx2", target_feature = "fma"), inline(always))]
unsafe fn microkernel_avx2(kc: usize, a_strip: &[f32], b_strip: &[f32]) -> [[f32; NR]; MR] {
    use std::arch::x86_64::*;
    debug_assert!(a_strip.len() >= kc * MR);
    debug_assert!(b_strip.len() >= kc * NR);
    let mut c00 = _mm256_setzero_ps();
    let mut c01 = _mm256_setzero_ps();
    let mut c10 = _mm256_setzero_ps();
    let mut c11 = _mm256_setzero_ps();
    let mut c20 = _mm256_setzero_ps();
    let mut c21 = _mm256_setzero_ps();
    let mut c30 = _mm256_setzero_ps();
    let mut c31 = _mm256_setzero_ps();
    let mut c40 = _mm256_setzero_ps();
    let mut c41 = _mm256_setzero_ps();
    let mut c50 = _mm256_setzero_ps();
    let mut c51 = _mm256_setzero_ps();
    let mut ap = a_strip.as_ptr();
    let mut bp = b_strip.as_ptr();
    unsafe {
        for _ in 0..kc {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            let a0 = _mm256_broadcast_ss(&*ap);
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a0, b1, c01);
            let a1 = _mm256_broadcast_ss(&*ap.add(1));
            c10 = _mm256_fmadd_ps(a1, b0, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let a2 = _mm256_broadcast_ss(&*ap.add(2));
            c20 = _mm256_fmadd_ps(a2, b0, c20);
            c21 = _mm256_fmadd_ps(a2, b1, c21);
            let a3 = _mm256_broadcast_ss(&*ap.add(3));
            c30 = _mm256_fmadd_ps(a3, b0, c30);
            c31 = _mm256_fmadd_ps(a3, b1, c31);
            let a4 = _mm256_broadcast_ss(&*ap.add(4));
            c40 = _mm256_fmadd_ps(a4, b0, c40);
            c41 = _mm256_fmadd_ps(a4, b1, c41);
            let a5 = _mm256_broadcast_ss(&*ap.add(5));
            c50 = _mm256_fmadd_ps(a5, b0, c50);
            c51 = _mm256_fmadd_ps(a5, b1, c51);
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
    }
    let mut acc = [[0.0f32; NR]; MR];
    unsafe {
        let regs = [c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51];
        for (i, pair) in regs.chunks_exact(2).enumerate() {
            _mm256_storeu_ps(acc[i].as_mut_ptr(), pair[0]);
            _mm256_storeu_ps(acc[i].as_mut_ptr().add(8), pair[1]);
        }
    }
    acc
}

/// Direct loop nest for tiny problems where packing cannot amortise.
/// Deterministic for the same reason as the packed path: one owner per
/// output element, `p` ascending. No data-dependent skips — dense-kernel
/// timing must not depend on input values.
#[allow(clippy::too_many_arguments)] // mirrors gemm_strided's signature
fn gemm_direct<const FMA: bool, TB: PackElem>(
    a: &[f32],
    la: Layout,
    b: &[TB],
    lb: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        c_row.fill(0.0);
        for p in 0..k {
            let av = a[i * la.rs + p * la.cs];
            for (j, cv) in c_row.iter_mut().enumerate() {
                *cv = fmadd::<FMA>(av, b[p * lb.rs + j * lb.cs].widen(), *cv);
            }
        }
    }
}

// ---------- the m = 1 path ----------

/// Output rows one GEMV pass computes together, sharing each activation
/// load. Every row keeps its own accumulator chain, so the blocking never
/// changes a result bit.
pub(crate) const GEMV_ROWS: usize = 4;

/// Least number of weight bytes worth a rayon task of its own in the
/// m = 1 paths. A decode GEMV streams its matrix once and does two FLOPs
/// per element, so the cut-over is set in bytes streamed, not in FLOPs
/// ([`par_grain_flops`]). A task must outlast a parked worker's wake-up
/// (about 60 µs); see the module docs for the measurement.
const GEMV_MIN_TASK_BYTES: usize = 512 << 10;

/// Output rows per rayon task for an m = 1 product over `n` rows of
/// `row_bytes` bytes each, or `None` when the product should run on the
/// calling thread. Shared with the int8 engine in [`crate::quant`].
pub(crate) fn gemv_split(n: usize, row_bytes: usize) -> Option<usize> {
    let tasks = (n * row_bytes / GEMV_MIN_TASK_BYTES).min(rayon::current_num_threads());
    (tasks > 1).then(|| n.div_ceil(tasks).next_multiple_of(GEMV_ROWS))
}

/// `c[j] = Σ_p x[p]·B[j, p]`, where row `j` of B is `b[j·ldb..j·ldb+k]`
/// and `k = x.len()`. Each output is [`simd::dot8`] of `x` and its widened
/// row — 8 fused lane chains over ascending `p`, [`simd::fold8`], a
/// sequential fused tail — on both arms (the AVX2 arm is the
/// [`simd::avx2::vdot`] sequence), so neither the arm, the row blocking
/// nor the rayon split can change a bit.
fn gemv<TB: PackElem>(
    x: &[f32],
    b: &[TB],
    ldb: usize,
    c: &mut [f32],
    arm: Arm,
    fma: bool,
    allow_parallel: bool,
) {
    let rows = |j0: usize, out: &mut [f32]| {
        let b = &b[j0 * ldb..];
        match arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the dispatcher only selects this arm when avx2+fma
            // are detected at runtime; `b` holds every row `out` covers.
            Arm::Avx2 => unsafe { gemv_avx2(x, b, ldb, out) },
            #[cfg(not(target_arch = "x86_64"))]
            Arm::Avx2 => unreachable!("AVX2 arm dispatched on non-x86_64"),
            Arm::Scalar if fma => gemv_scalar::<true, _>(x, b, ldb, out),
            Arm::Scalar => gemv_scalar::<false, _>(x, b, ldb, out),
        }
    };
    let split = if allow_parallel {
        gemv_split(c.len(), x.len() * std::mem::size_of::<TB>())
    } else {
        None
    };
    match split {
        Some(chunk) => c
            .par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(t, out)| rows(t * chunk, out)),
        None => rows(0, c),
    }
}

/// Scalar arm of [`gemv`]: [`simd::dot8`] per row, widening as it reads.
fn gemv_scalar<const FMA: bool, TB: PackElem>(x: &[f32], b: &[TB], ldb: usize, out: &mut [f32]) {
    let k = x.len();
    let n8 = k - k % 8;
    for (j, o) in out.iter_mut().enumerate() {
        let w = &b[j * ldb..j * ldb + k];
        let mut lanes = [0.0f32; 8];
        for (cx, cw) in x[..n8].chunks_exact(8).zip(w[..n8].chunks_exact(8)) {
            for l in 0..8 {
                lanes[l] = fmadd::<FMA>(cx[l], cw[l].widen(), lanes[l]);
            }
        }
        let mut t = simd::fold8(lanes);
        for (&xv, &wv) in x[n8..].iter().zip(&w[n8..]) {
            t = fmadd::<FMA>(xv, wv.widen(), t);
        }
        *o = t;
    }
}

/// AVX2+FMA arm of [`gemv`]: [`GEMV_ROWS`] rows per pass, one ymm chain
/// each, so every `x` vector is loaded once per pass; leftover rows run
/// one at a time through the same chain. Pass `i` takes row `i` of each
/// quarter of `out`'s rows, so each of the four weight streams walks one
/// quarter front to back — sequential streams the hardware prefetchers
/// follow, where four adjacent rows of 1–2 KiB would share a page.
///
/// # Safety
/// Caller must ensure avx2+fma are available and that `b` holds
/// `(out.len() − 1)·ldb + x.len()` elements.
#[cfg(target_arch = "x86_64")]
#[cfg_attr(
    not(all(target_feature = "avx2", target_feature = "fma")),
    target_feature(enable = "avx2,fma")
)]
unsafe fn gemv_avx2<TB: PackElem>(x: &[f32], b: &[TB], ldb: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let k = x.len();
    let n8 = k - k % 8;
    let row = |j: usize| &b[j * ldb..j * ldb + k];
    // The canonical tail after the fold: sequential fused, as in `vdot`.
    let finish = |acc: __m256, w: &[TB]| {
        // SAFETY: avx2+fma are available (the caller's contract).
        let mut t = unsafe { simd::avx2::hsum8(acc) };
        for (&xv, &wv) in x[n8..].iter().zip(&w[n8..]) {
            t = xv.mul_add(wv.widen(), t);
        }
        t
    };
    let q = out.len() / GEMV_ROWS;
    // SAFETY: every pointer offset is below `n8 ≤ k`, inside `x` and the
    // `k`-long rows sliced above.
    unsafe {
        for i in 0..q {
            let (w0, w1, w2, w3) = (row(i), row(q + i), row(2 * q + i), row(3 * q + i));
            let (p0, p1, p2, p3) = (w0.as_ptr(), w1.as_ptr(), w2.as_ptr(), w3.as_ptr());
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for p in (0..n8).step_by(8) {
                let xv = _mm256_loadu_ps(x.as_ptr().add(p));
                a0 = _mm256_fmadd_ps(xv, TB::load8(p0.add(p)), a0);
                a1 = _mm256_fmadd_ps(xv, TB::load8(p1.add(p)), a1);
                a2 = _mm256_fmadd_ps(xv, TB::load8(p2.add(p)), a2);
                a3 = _mm256_fmadd_ps(xv, TB::load8(p3.add(p)), a3);
            }
            out[i] = finish(a0, w0);
            out[q + i] = finish(a1, w1);
            out[2 * q + i] = finish(a2, w2);
            out[3 * q + i] = finish(a3, w3);
        }
        for j in GEMV_ROWS * q..out.len() {
            let w = row(j);
            let mut acc = _mm256_setzero_ps();
            for p in (0..n8).step_by(8) {
                let xv = _mm256_loadu_ps(x.as_ptr().add(p));
                acc = _mm256_fmadd_ps(xv, TB::load8(w.as_ptr().add(p)), acc);
            }
            out[j] = finish(acc, w);
        }
    }
}

/// Naive triple-loop reference used by tests.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.rank() != 2 || b.rank() != 2 || a.dims()[1] != b.dims()[0] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_naive",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for p in 0..k {
                s += a.data()[i * k + p] * b.data()[p * n + j];
            }
            out[i * n + j] = s;
        }
    }
    Ok(Tensor::from_vec(out, [m, n]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
        assert!(matmul(&a, &i).unwrap().allclose(&a, 0.0));
        assert!(matmul(&i, &a).unwrap().allclose(&a, 0.0));
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 3]);
        assert!(matmul(&a, &b).is_err());
        assert!(bmm(
            &a.reshape([1, 2, 3]).unwrap(),
            &b.reshape([1, 2, 3]).unwrap()
        )
        .is_err());
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let a = Tensor::arange(6).reshape([2, 3]).unwrap();
        let b = Tensor::arange(12).reshape([4, 3]).unwrap();
        let fast = matmul_bt(&a, &b).unwrap();
        let slow = matmul(&a, &b.transpose()).unwrap();
        assert!(fast.allclose(&slow, 1e-5));
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let a = Tensor::arange(6).reshape([3, 2]).unwrap();
        let b = Tensor::arange(12).reshape([3, 4]).unwrap();
        let fast = matmul_at(&a, &b).unwrap();
        let slow = matmul(&a.transpose(), &b).unwrap();
        assert!(fast.allclose(&slow, 1e-5));
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::arange(2 * 2 * 3).reshape([2, 2, 3]).unwrap();
        let b = Tensor::arange(2 * 3 * 2).reshape([2, 3, 2]).unwrap();
        let c = bmm(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2, 2]);
        for bi in 0..2 {
            let a2 = Tensor::from_vec(a.data()[bi * 6..(bi + 1) * 6].to_vec(), [2, 3]);
            let b2 = Tensor::from_vec(b.data()[bi * 6..(bi + 1) * 6].to_vec(), [3, 2]);
            let ref2 = matmul(&a2, &b2).unwrap();
            let got = Tensor::from_vec(c.data()[bi * 4..(bi + 1) * 4].to_vec(), [2, 2]);
            assert!(got.allclose(&ref2, 1e-5));
        }
    }

    fn seeded_mat(m: usize, n: usize, seed: u64) -> Tensor {
        Tensor::from_vec(
            (0..m * n)
                .map(|i| (((i as u64 + seed) * 2654435761) % 17) as f32 - 8.0)
                .collect(),
            [m, n],
        )
    }

    #[test]
    fn bmm_bt_matches_explicit_transpose() {
        let a = seeded_mat(3, 5 * 4, 1).reshape([3, 5, 4]).unwrap();
        let b = seeded_mat(3, 6 * 4, 2).reshape([3, 6, 4]).unwrap();
        let fast = bmm_bt(&a, &b).unwrap();
        assert_eq!(fast.dims(), &[3, 5, 6]);
        for bi in 0..3 {
            let a2 = Tensor::from_vec(a.data()[bi * 20..(bi + 1) * 20].to_vec(), [5, 4]);
            let b2 = Tensor::from_vec(b.data()[bi * 24..(bi + 1) * 24].to_vec(), [6, 4]);
            let expect = matmul(&a2, &b2.transpose()).unwrap();
            let got = Tensor::from_vec(fast.data()[bi * 30..(bi + 1) * 30].to_vec(), [5, 6]);
            assert!(got.allclose(&expect, 1e-4));
        }
    }

    #[test]
    fn bmm_at_matches_explicit_transpose() {
        let a = seeded_mat(3, 4 * 5, 3).reshape([3, 4, 5]).unwrap();
        let b = seeded_mat(3, 4 * 6, 4).reshape([3, 4, 6]).unwrap();
        let fast = bmm_at(&a, &b).unwrap();
        assert_eq!(fast.dims(), &[3, 5, 6]);
        for bi in 0..3 {
            let a2 = Tensor::from_vec(a.data()[bi * 20..(bi + 1) * 20].to_vec(), [4, 5]);
            let b2 = Tensor::from_vec(b.data()[bi * 24..(bi + 1) * 24].to_vec(), [4, 6]);
            let expect = matmul(&a2.transpose(), &b2).unwrap();
            let got = Tensor::from_vec(fast.data()[bi * 30..(bi + 1) * 30].to_vec(), [5, 6]);
            assert!(got.allclose(&expect, 1e-4));
        }
    }

    #[test]
    fn bmm_variant_shape_mismatches_rejected() {
        let a = Tensor::zeros([2, 3, 4]);
        assert!(bmm_bt(&a, &Tensor::zeros([2, 5, 3])).is_err());
        assert!(bmm_at(&a, &Tensor::zeros([2, 4, 5])).is_err());
        assert!(bmm_bt(&a, &Tensor::zeros([3, 5, 4])).is_err());
    }

    #[test]
    fn large_parallel_matches_naive() {
        // Big enough to cross the packed-path and remainder-tile cases.
        let m = 70;
        let k = 40;
        let n = 80;
        let a = Tensor::from_vec(
            (0..m * k).map(|i| ((i * 7) % 13) as f32 - 6.0).collect(),
            [m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| ((i * 5) % 11) as f32 - 5.0).collect(),
            [k, n],
        );
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_naive(&a, &b).unwrap();
        assert!(fast.allclose(&slow, 1e-3));
    }

    #[test]
    fn crosses_every_blocking_boundary() {
        // m > MC, n > NC and k > KC in one problem: exercises multi-tile
        // and multi-KC-block accumulation with ragged edges everywhere.
        let (m, k, n) = (MC + MR + 3, KC + 5, NC + NR + 7);
        let a = seeded_mat(m, k, 11);
        let b = seeded_mat(k, n, 12);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_naive(&a, &b).unwrap();
        assert!(fast.allclose(&slow, 2e-2));
    }

    #[test]
    fn zero_k_yields_zero_matrix() {
        let a = Tensor::zeros([3, 0]);
        let b = Tensor::zeros([0, 4]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[3, 4]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn non_square_chain_dimensions() {
        let a = Tensor::ones([1, 5]);
        let b = Tensor::ones([5, 7]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[1, 7]);
        assert_eq!(c.data()[0], 5.0);
    }

    /// Fractional values, so that a different reduction order rounds
    /// differently (integer-valued operands sum exactly in any order).
    fn fractional(len: usize, seed: u64) -> Vec<f32> {
        (0..len as u64)
            .map(|i| ((i + seed).wrapping_mul(2654435761) % 2003) as f32 / 2003.0 - 0.5)
            .collect()
    }

    /// The m = 1 product against `[out, in]` rows is `simd::dot8` of the
    /// activations and each row, bit for bit, on both arms and under 1-,
    /// 2- and 4-worker pools. `k` is off every vector width, `n` off the
    /// row block, and the 4.4 MB of weights are split across workers.
    #[test]
    fn gemv_rows_equal_dot8_on_every_arm_and_pool() {
        let (k, n) = (1021, 1075);
        let x = fractional(k, 21);
        let w = fractional(n * k, 22);
        let fma = simd::fma_chains();
        let expect: Vec<u32> = w
            .chunks_exact(k)
            .map(|row| simd::dot8(&x, row, fma).to_bits())
            .collect();
        let arms: &[Arm] = if simd::avx2_available() {
            &[Arm::Scalar, Arm::Avx2]
        } else {
            &[Arm::Scalar]
        };
        for &arm in arms {
            for threads in [1usize, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let got: Vec<u32> = pool.install(|| {
                    simd::with_arm(arm, || {
                        let mut c = vec![0.0f32; n];
                        gemm_nt(&x, &w, &mut c, 1, k, n);
                        c.iter().map(|v| v.to_bits()).collect()
                    })
                });
                assert_eq!(got, expect, "{arm:?} @ {threads} threads");
            }
        }
    }

    #[test]
    fn gemm_variants_share_one_engine() {
        // gemm / gemm_nt / gemm_tn on the same logical operands agree.
        let m = 33;
        let k = 21;
        let n = 45;
        let a = seeded_mat(m, k, 5);
        let b = seeded_mat(k, n, 6);
        let reference = matmul(&a, &b).unwrap();

        let mut c_nt = vec![0.0; m * n];
        gemm_nt(a.data(), b.transpose().data(), &mut c_nt, m, k, n);
        assert!(Tensor::from_vec(c_nt, [m, n]).allclose(&reference, 1e-3));

        let mut c_tn = vec![0.0; m * n];
        gemm_tn(a.transpose().data(), b.data(), &mut c_tn, m, k, n);
        assert!(Tensor::from_vec(c_tn, [m, n]).allclose(&reference, 1e-3));
    }

    #[test]
    fn dense_kernel_has_no_zero_skip() {
        // A matrix dominated by zeros must produce the same result as the
        // naive path (the seed kernel's `if av == 0.0 { continue }` is
        // gone; this guards the contract that timing is input-independent
        // by checking the code path handles zero-rich data identically).
        let m = 40;
        let k = 40;
        let n = 40;
        let a = Tensor::from_vec(
            (0..m * k)
                .map(|i| if i % 7 == 0 { (i % 5) as f32 } else { 0.0 })
                .collect(),
            [m, k],
        );
        let b = seeded_mat(k, n, 9);
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_naive(&a, &b).unwrap();
        assert!(fast.allclose(&slow, 1e-3));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn mat(m: usize, n: usize) -> impl Strategy<Value = Tensor> {
        prop::collection::vec(-10.0f32..10.0, m * n..=m * n)
            .prop_map(move |v| Tensor::from_vec(v, [m, n]))
    }

    fn hashed_mat(m: usize, n: usize, seed: u64, mul: u64, modu: u64) -> Tensor {
        Tensor::from_vec(
            (0..m * n)
                .map(|i| (((i as u64 + seed) * mul) % modu) as f32 - (modu / 2) as f32)
                .collect(),
            [m, n],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Packed GEMM agrees with the naive reference on rectangular and
        /// degenerate shapes, including dims of 1 and remainder tiles
        /// around the MR/NR strip boundaries.
        #[test]
        fn matches_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40,
                         seed in 0u64..1000) {
            let a = hashed_mat(m, k, seed, 2654435761, 17);
            let b = hashed_mat(k, n, seed.wrapping_mul(31), 2246822519, 19);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_naive(&a, &b).unwrap();
            prop_assert!(fast.allclose(&slow, 1e-2));
        }

        /// All three transpose variants reduce to the same product.
        #[test]
        fn variants_match_naive(m in 1usize..24, k in 1usize..24, n in 1usize..24,
                                seed in 0u64..500) {
            let a = hashed_mat(m, k, seed, 2654435761, 17);
            let b = hashed_mat(k, n, seed + 7, 2246822519, 19);
            let expect = matmul_naive(&a, &b).unwrap();
            prop_assert!(matmul_bt(&a, &b.transpose()).unwrap().allclose(&expect, 1e-2));
            prop_assert!(matmul_at(&a.transpose(), &b).unwrap().allclose(&expect, 1e-2));
        }

        /// The packed kernel is bit-identical under a 1-thread pool and the
        /// default pool: parallelism must only partition output tiles,
        /// never change any reduction order. The same holds for the m = 1
        /// product against `[out, in]` rows, with `k` off the 16-wide
        /// step and over 4 MiB of weights, so workers split it.
        #[test]
        fn thread_count_invariance(m in 1usize..96, k in 1usize..80, n in 1usize..96,
                                   seed in 0u64..1000) {
            let a = hashed_mat(m, k, seed, 2654435761, 1024);
            let b = hashed_mat(k, n, seed + 13, 2246822519, 1024);
            let (k1, n1) = (1009 + k % 15, 1040 + n);
            let x = hashed_mat(1, k1, seed + 5, 2654435761, 1024);
            let w = hashed_mat(n1, k1, seed + 17, 2246822519, 1024);
            let run = || (matmul(&a, &b).unwrap(), matmul_bt(&x, &w).unwrap());
            let pool1 = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            let serial = pool1.install(run);
            let pool4 = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            let parallel = pool4.install(run);
            let default = run();
            prop_assert_eq!(serial.0.data(), parallel.0.data());
            prop_assert_eq!(serial.0.data(), default.0.data());
            prop_assert_eq!(serial.1.data(), parallel.1.data());
            prop_assert_eq!(serial.1.data(), default.1.data());
        }

        /// Batched variants are thread-count invariant too.
        #[test]
        fn bmm_thread_count_invariance(b_ in 1usize..5, m in 1usize..32, k in 1usize..24,
                                       n in 1usize..32, seed in 0u64..200) {
            let a = hashed_mat(b_, m * k, seed, 2654435761, 512).reshape([b_, m, k]).unwrap();
            let b = hashed_mat(b_, k * n, seed + 3, 2246822519, 512).reshape([b_, k, n]).unwrap();
            let pool1 = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            let serial = pool1.install(|| bmm(&a, &b).unwrap());
            let parallel = bmm(&a, &b).unwrap();
            prop_assert_eq!(serial.data(), parallel.data());
        }

        /// (A·B)ᵀ = Bᵀ·Aᵀ.
        #[test]
        fn transpose_identity(m in 1usize..8, k in 1usize..8, n in 1usize..8) {
            let a = Tensor::arange(m * k).reshape([m, k]).unwrap();
            let b = Tensor::arange(k * n).reshape([k, n]).unwrap();
            let lhs = matmul(&a, &b).unwrap().transpose();
            let rhs = matmul(&b.transpose(), &a.transpose()).unwrap();
            prop_assert!(lhs.allclose(&rhs, 1e-3));
        }

        /// Distributivity: A·(B+C) = A·B + A·C.
        #[test]
        fn distributive((a, b, c) in (1usize..6, 1usize..6, 1usize..6)
            .prop_flat_map(|(m, k, n)| (mat(m, k), mat(k, n), mat(k, n)))) {
            let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
            let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
            prop_assert!(lhs.allclose(&rhs, 1e-2));
        }
    }
}

#[cfg(test)]
mod timing {
    use super::*;
    use crate::init::{randn, rng};
    use std::time::Instant;

    /// Manual perf probe (not a gate): `cargo test -p caraml-tensor
    /// --release -- --ignored --nocapture gemm_timing`.
    #[test]
    #[ignore = "manual perf probe"]
    fn gemm_timing() {
        for &n in &[64usize, 128, 256, 512] {
            let a = randn(&mut rng(1), [n, n], 1.0);
            let b = randn(&mut rng(2), [n, n], 1.0);
            for (label, arm) in [
                ("scalar", crate::simd::Arm::Scalar),
                ("avx2", crate::simd::Arm::Avx2),
            ] {
                if arm == crate::simd::Arm::Avx2 && !crate::simd::avx2_available() {
                    continue;
                }
                crate::simd::with_arm(arm, || {
                    let mut best = f64::MAX;
                    for _ in 0..9 {
                        let t = Instant::now();
                        let c = matmul(&a, &b).unwrap();
                        let dt = t.elapsed().as_secs_f64();
                        std::hint::black_box(c);
                        best = best.min(dt);
                    }
                    let gflops = 2.0 * (n as f64).powi(3) / best / 1e9;
                    println!(
                        "{n}^3 {label:6}: {:8.4} ms  {gflops:6.1} GFLOP/s",
                        best * 1e3
                    );
                });
            }
        }
    }

    /// Direct-vs-packed crossover probe for tuning `SMALL_GEMM_FLOPS`:
    /// `cargo test -p caraml-tensor --release -- --ignored --nocapture
    /// gemm_crossover`.
    #[test]
    #[ignore = "manual perf probe"]
    fn gemm_crossover() {
        for &n in &[16usize, 32, 48, 64, 96, 128] {
            let row = Layout::row_major(n);
            let a = randn(&mut rng(1), [n, n], 1.0);
            let b = randn(&mut rng(2), [n, n], 1.0);
            let mut c = vec![0.0f32; n * n];
            let mut best_direct = f64::MAX;
            for _ in 0..21 {
                let t = Instant::now();
                gemm_direct::<true, f32>(a.data(), row, b.data(), row, &mut c, n, n, n);
                best_direct = best_direct.min(t.elapsed().as_secs_f64());
                std::hint::black_box(&c);
            }
            let mut best_packed = f64::MAX;
            for _ in 0..21 {
                let t = Instant::now();
                let out = matmul(&a, &b).unwrap();
                best_packed = best_packed.min(t.elapsed().as_secs_f64());
                std::hint::black_box(out);
            }
            println!(
                "{n:3}^3 direct {:8.4} ms  packed {:8.4} ms",
                best_direct * 1e3,
                best_packed * 1e3
            );
        }
    }
}
