//! Reusable scratch-buffer workspace: the tensor stack's allocator cache.
//!
//! Training steps issue the same kernels with the same shapes over and
//! over; allocating im2col columns, GEMM packing panels, and op outputs
//! from the system allocator on every call wastes time and defeats cache
//! warmth. A [`Workspace`] is a bounded pool of `Vec<f32>` buffers
//! organised into power-of-two size classes: kernels *take* a buffer
//! sized for the call and *give* it back when the scratch dies (GEMM
//! packing panels, per-image im2col columns), while
//! [`crate::tensor::Tensor`] returns its backing buffer to the global
//! workspace on drop, so op outputs from step *N* become the allocations
//! of step *N+1*.
//!
//! ## Size-class buckets
//!
//! Earlier revisions kept one flat list and scanned it for the best fit —
//! O(pool size) under a single lock on every take, which showed up in
//! profiles once every elementwise kernel drew scratch. Buffers now live
//! in buckets by `floor(log2(capacity))`: a take rounds its request up to
//! the next power of two, pops from the matching bucket (probing one
//! class up before giving up), and fresh allocations are made at
//! power-of-two capacity so recycled buffers land back in a clean class.
//! Takes and gives are O(1) and each bucket has its own lock, so rayon
//! workers drawing scratch concurrently do not serialise on one mutex.
//!
//! ## Reuse contract for kernel implementors
//!
//! * Scratch that never escapes the kernel: `take_*` at entry, [`Workspace::give`]
//!   before returning (or let a [`ScratchVec`] guard do it).
//! * Buffers that become tensor data: `take_*` and move them into
//!   `Tensor::from_vec`; the drop hook recycles them.
//! * `take_zeroed` is zero-filled; `take_raw` has `len == 0` and must be
//!   fully written before use. Never assume residual contents.
//! * Buffers shorter than [`MIN_POOLED_LEN`] elements bypass the pool
//!   (the mutex round-trip costs more than a small malloc).
//!
//! ## Demand bound
//!
//! The drop hook hands the pool every tensor buffer, including buffers
//! the pool never lent: a data loader's `Vec::with_capacity(n * chw)`,
//! an image built outside the pool. Their capacities are rarely powers
//! of two, so they land in classes whose takes never ask for them, and a
//! class that only ever receives would fill up step after step. Each
//! class therefore counts the buffers taken from it (popped, or freshly
//! allocated at its capacity) and not yet given back, and keeps an
//! incoming buffer only while that count is positive: a foreign buffer
//! is kept only in place of one still out, and a class never holds more
//! buffers than it has handed out at once. On top of that, each class
//! keeps at most its byte budget (`max_per_class`); excess gives are
//! dropped, so memory use stays bounded no matter how many tensors die.
//!
//! All methods are thread-safe; rayon workers share the same pool. The
//! [`WorkspaceStats`] counters let tests assert steady-state behaviour:
//! after a warm-up call, a fixed-shape kernel must hit the pool for every
//! scratch buffer (`allocations` stays flat while `reuses` grows). Only
//! pool-eligible requests (`cap >= MIN_POOLED_LEN`) are counted — tiny
//! bypass allocations like a scalar loss seed are deliberate and would
//! otherwise drown the signal the counters exist to provide.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Buffers smaller than this many `f32`s are not worth pooling.
pub const MIN_POOLED_LEN: usize = 64;

/// Smallest bucket index: `floor(log2(MIN_POOLED_LEN))`.
const MIN_BUCKET: usize = MIN_POOLED_LEN.trailing_zeros() as usize;

/// One bucket per power-of-two class from `2^MIN_BUCKET` up to `2^39`
/// elements (2 TiB of f32 — effectively unbounded for this workload).
const NUM_BUCKETS: usize = 40 - MIN_BUCKET;

/// Per-class retention budget in elements (16 MiB of f32 per class).
/// A transformer step holds dozens of same-shape activation buffers live
/// at once (forward activations plus their gradients), so a small fixed
/// per-class count would drop the overflow every step and defeat the
/// steady-state guarantee; budgeting by bytes keeps many small buffers
/// but only a few huge panels.
const CLASS_BUDGET_ELEMS: usize = 1 << 22;

/// Buffers always retained per class regardless of the byte budget.
const MIN_KEPT_PER_CLASS: usize = 8;

/// Maximum buffers retained in class `k`; excess gives are dropped.
fn max_per_class(k: usize) -> usize {
    (CLASS_BUDGET_ELEMS >> (k + MIN_BUCKET)).max(MIN_KEPT_PER_CLASS)
}

/// Size class for a capacity: `floor(log2(cap))` clamped to the bucket
/// range. Buffers of capacity in `[2^k, 2^(k+1))` live in bucket `k`.
fn class_of(cap: usize) -> usize {
    debug_assert!(cap >= MIN_POOLED_LEN);
    let k = usize::BITS as usize - 1 - cap.leading_zeros() as usize;
    (k - MIN_BUCKET).min(NUM_BUCKETS - 1)
}

/// Allocation accounting for a [`Workspace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Fresh heap allocations performed because no pooled buffer fit
    /// (pool-eligible requests only).
    pub allocations: u64,
    /// Takes satisfied from the pool without touching the allocator.
    pub reuses: u64,
}

/// One size class: its pooled buffers, and how many buffers taken from
/// it are still out.
struct Class<T> {
    free: Vec<Vec<T>>,
    /// Buffers taken from this class (popped, or freshly allocated at its
    /// capacity) and not yet given back; the class keeps a given buffer
    /// only while this is positive.
    lent: usize,
}

/// The size classes of one element type.
struct Classes<T>([Mutex<Class<T>>; NUM_BUCKETS]);

impl<T> Classes<T> {
    fn new() -> Self {
        Classes(std::array::from_fn(|_| {
            Mutex::new(Class {
                free: Vec::new(),
                lent: 0,
            })
        }))
    }

    /// Pop a buffer with capacity `>= cap` (`cap >= MIN_POOLED_LEN`). A
    /// buffer in class k has capacity in `[2^k, 2^(k+1))`, so the smallest
    /// class sure to fit is that of `cap` rounded up; probe it and the one
    /// above (the second catches buffers a class larger without scanning
    /// the whole pool). On a miss, the fresh allocation the caller makes
    /// at the rounded-up capacity counts as lent from that class.
    fn pop(&self, cap: usize) -> Option<Vec<T>> {
        let start = class_of(cap.next_power_of_two());
        for k in start..(start + 2).min(NUM_BUCKETS) {
            let mut class = self.lock(k);
            if let Some(mut buf) = class.free.pop() {
                class.lent += 1;
                debug_assert!(buf.capacity() >= cap);
                buf.clear();
                return Some(buf);
            }
        }
        self.lock(start).lent += 1;
        None
    }

    /// Keep `buf` if its class has buffers out and room in its budget.
    fn give(&self, buf: Vec<T>) {
        let cap = buf.capacity();
        if cap < MIN_POOLED_LEN {
            return;
        }
        let k = class_of(cap);
        let mut class = self.lock(k);
        if class.lent > 0 {
            class.lent -= 1;
            if class.free.len() < max_per_class(k) {
                class.free.push(buf);
            }
        }
    }

    fn pooled(&self) -> usize {
        (0..NUM_BUCKETS).map(|k| self.lock(k).free.len()).sum()
    }

    fn lock(&self, k: usize) -> std::sync::MutexGuard<'_, Class<T>> {
        // A panic while holding the lock cannot corrupt a class (a push,
        // a pop or a counter step); keep the pool usable rather than
        // poisoning every later kernel.
        self.0[k].lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A bounded pool of reusable `f32` buffers in power-of-two size classes,
/// plus a parallel `i8` pool for the quantized GEMM packing panels
/// (`crate::quant` packs one-byte operands; recycling them through the
/// f32 buckets would waste 4x the capacity accounting).
pub struct Workspace {
    floats: Classes<f32>,
    bytes: Classes<i8>,
    allocations: AtomicU64,
    reuses: AtomicU64,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    pub fn new() -> Self {
        Workspace {
            floats: Classes::new(),
            bytes: Classes::new(),
            allocations: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Take a buffer with `len == 0` and `capacity >= cap` (popped from the
    /// matching size class, fresh power-of-two allocation otherwise). The
    /// caller must write every element it reads.
    pub fn take_raw(&self, cap: usize) -> Vec<f32> {
        self.take(&self.floats, cap)
    }

    /// Take a buffer of exactly `len` zero-filled elements.
    pub fn take_zeroed(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take_raw(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Take a buffer initialised as a copy of `src`.
    pub fn take_copy(&self, src: &[f32]) -> Vec<f32> {
        let mut buf = self.take_raw(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Return a buffer to the pool (dropped if too small, if its size
    /// class has no buffer out, or if the class is full).
    pub fn give(&self, buf: Vec<f32>) {
        self.floats.give(buf);
    }

    /// Take a zero-filled `i8` buffer of exactly `len` elements from the
    /// byte pool (used by the quantized GEMM packing path). The same
    /// size-class discipline as [`Workspace::take_raw`] applies; byte
    /// buffers shorter than [`MIN_POOLED_LEN`] bypass the pool.
    pub fn take_bytes_zeroed(&self, len: usize) -> Vec<i8> {
        let mut buf = self.take(&self.bytes, len);
        buf.resize(len, 0);
        buf
    }

    /// Return an `i8` buffer to the byte pool, under the same rules as
    /// [`Workspace::give`].
    pub fn give_bytes(&self, buf: Vec<i8>) {
        self.bytes.give(buf);
    }

    fn take<T>(&self, classes: &Classes<T>, cap: usize) -> Vec<T> {
        if cap < MIN_POOLED_LEN {
            return Vec::with_capacity(cap);
        }
        match classes.pop(cap) {
            Some(buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(cap.next_power_of_two())
            }
        }
    }

    /// Snapshot of the allocation counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            allocations: self.allocations.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
        }
    }

    /// Number of `f32` buffers currently pooled across all size classes.
    pub fn pooled(&self) -> usize {
        self.floats.pooled()
    }
}

/// RAII scratch buffer: takes from a workspace on construction, gives back
/// on drop. Derefs to `[f32]`.
pub struct ScratchVec<'a> {
    ws: &'a Workspace,
    buf: Vec<f32>,
}

impl<'a> ScratchVec<'a> {
    /// Zero-filled scratch of exactly `len` elements.
    pub fn zeroed(ws: &'a Workspace, len: usize) -> Self {
        ScratchVec {
            buf: ws.take_zeroed(len),
            ws,
        }
    }
}

impl std::ops::Deref for ScratchVec<'_> {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl std::ops::DerefMut for ScratchVec<'_> {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for ScratchVec<'_> {
    fn drop(&mut self) {
        self.ws.give(std::mem::take(&mut self.buf));
    }
}

/// The process-wide workspace shared by all kernels and tensor drops.
pub fn global() -> &'static Workspace {
    static GLOBAL: OnceLock<Workspace> = OnceLock::new();
    GLOBAL.get_or_init(Workspace::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_capacity() {
        let ws = Workspace::new();
        let buf = ws.take_zeroed(1024);
        assert_eq!(buf.len(), 1024);
        assert!(buf.iter().all(|&v| v == 0.0));
        let ptr = buf.as_ptr();
        ws.give(buf);
        let again = ws.take_zeroed(1024);
        assert_eq!(again.as_ptr(), ptr, "pooled buffer must be reused");
        let s = ws.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.reuses, 1);
    }

    #[test]
    fn size_classes_keep_big_panels_for_big_requests() {
        let ws = Workspace::new();
        let big = ws.take_zeroed(4096);
        let small = ws.take_zeroed(128);
        let small_ptr = small.as_ptr();
        ws.give(big);
        ws.give(small);
        // A 100-element request maps to the 128 class, not the 4096 panel.
        let got = ws.take_zeroed(100);
        assert_eq!(got.as_ptr(), small_ptr);
    }

    #[test]
    fn take_probes_one_class_up() {
        let ws = Workspace::new();
        let buf = ws.take_zeroed(256);
        let ptr = buf.as_ptr();
        ws.give(buf);
        // 130 rounds to the 256 class... but if only a 512 buffer existed,
        // the probe one class up must find it rather than allocating.
        let got = ws.take_raw(130);
        assert_eq!(got.as_ptr(), ptr);
        drop(got);
        let big = ws.take_zeroed(512);
        let big_ptr = big.as_ptr();
        ws.give(big);
        let probed = ws.take_raw(130);
        assert_eq!(probed.as_ptr(), big_ptr);
    }

    #[test]
    fn tiny_buffers_bypass_pool() {
        let ws = Workspace::new();
        ws.give(vec![0.0; 8]);
        assert_eq!(ws.pooled(), 0);
        let _ = ws.take_raw(8);
        assert_eq!(ws.stats().reuses, 0);
        // Tiny bypass requests are not counted as allocations either.
        assert_eq!(ws.stats().allocations, 0);
    }

    #[test]
    fn zeroed_take_clears_residual_data() {
        let ws = Workspace::new();
        let mut dirty = ws.take_raw(256);
        dirty.resize(256, 7.0);
        let ptr = dirty.as_ptr();
        ws.give(dirty);
        let buf = ws.take_zeroed(200);
        assert_eq!(buf.as_ptr(), ptr, "the dirty buffer is reused");
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn buffers_the_pool_never_lent_are_not_kept() {
        // A loader's batch: capacity 3072, allocated outside the pool.
        let ws = Workspace::new();
        ws.give(vec![1.0; 3072]);
        ws.give_bytes(vec![1i8; 3072]);
        assert_eq!(ws.pooled(), 0);
        assert_eq!(ws.take_bytes_zeroed(3072).capacity(), 4096, "fresh");
    }

    #[test]
    fn a_class_keeps_at_most_the_buffers_lent_from_it() {
        let ws = Workspace::new();
        let (a, b) = (ws.take_raw(1024), ws.take_raw(1024));
        // A foreign buffer of the same class stands in for one still out...
        ws.give(Vec::with_capacity(1024));
        ws.give(a);
        // ...so once both are back, the class holds two, not three.
        ws.give(b);
        assert_eq!(ws.pooled(), 2);
        let _ = (ws.take_raw(1024), ws.take_raw(1024));
        assert_eq!(ws.stats().allocations, 2, "both takes reused");
    }

    #[test]
    fn allocations_round_to_power_of_two() {
        let ws = Workspace::new();
        let buf = ws.take_zeroed(1000);
        assert_eq!(buf.capacity(), 1024);
        let ptr = buf.as_ptr();
        ws.give(buf);
        // The rounded buffer lands in the 1024 class and serves any
        // request in (512, 1024].
        let again = ws.take_raw(700);
        assert_eq!(again.as_ptr(), ptr);
    }

    #[test]
    fn byte_pool_take_give_reuses_capacity() {
        let ws = Workspace::new();
        let mut dirty = ws.take_bytes_zeroed(256);
        dirty.fill(7);
        ws.give_bytes(dirty);
        let buf = ws.take_bytes_zeroed(200);
        assert_eq!(buf.len(), 200);
        assert!(buf.iter().all(|&v| v == 0), "residual bytes must be zeroed");
        let ptr = buf.as_ptr();
        ws.give_bytes(buf);
        let again = ws.take_bytes_zeroed(200);
        assert_eq!(again.as_ptr(), ptr, "pooled byte buffer must be reused");
        assert_eq!(ws.stats().allocations, 1);
        // Tiny byte buffers bypass the pool like tiny f32 buffers.
        ws.give_bytes(vec![0i8; 8]);
        assert_eq!(ws.take_bytes_zeroed(8).capacity(), 8);
    }

    #[test]
    fn scratch_guard_returns_on_drop() {
        let ws = Workspace::new();
        {
            let mut s = ScratchVec::zeroed(&ws, 512);
            s[0] = 1.0;
        }
        assert_eq!(ws.pooled(), 1);
        assert!(ws.take_raw(512).capacity() >= 512);
        assert_eq!(ws.stats().reuses, 1);
    }
}
