//! Vendored offline shim for the `rayon` API surface this workspace uses:
//! `par_chunks`/`par_chunks_mut`, `into_par_iter` (ranges and `Vec`),
//! `enumerate`, `zip` (indexed pairing of two equal-length parallel
//! iterators — used by the fused kernel layer to walk input and output
//! chunk pairs), `map`, `filter`, `for_each`, `collect`, `sum`,
//! `current_num_threads`, and `ThreadPoolBuilder`/`ThreadPool::install`
//! for pinning the worker count (used by tests that assert
//! thread-count-independent numerics).
//!
//! ## Persistent workers
//!
//! A pool of `t` threads is `t - 1` worker threads, spawned once and
//! parked on a condition variable between calls, plus whichever thread
//! calls into it. A parallel call over `n` items publishes one job ("run
//! task `i` for every `i` in `0..n`"), wakes up to `n - 1` parked
//! workers and then works through the job itself. Every thread claims
//! the next index from an atomic cursor, so the split adapts to how soon
//! the workers wake: a job the caller finishes first never waits for
//! them. The caller returns only after every worker that joined the job
//! has left it, which is what lets tasks borrow the caller's stack.
//!
//! * The global pool serves every call made outside
//!   [`ThreadPool::install`]. It has as many threads as the hardware
//!   (read once: `available_parallelism` reads cgroup files on Linux),
//!   is spawned on the first call that fans out, and its workers live as
//!   long as the process.
//! * A pool from [`ThreadPoolBuilder::build`] has workers of its own,
//!   joined when it drops, so a test pinned to four threads runs on four
//!   threads whatever else the process runs at the same time.
//! * While a thread runs the tasks of a call that fanned out (a worker,
//!   or the caller working through its share), [`current_num_threads`]
//!   is 1 there and any parallel call it makes runs inline. A call with
//!   one item, or on a one-thread pool, is a plain loop on the calling
//!   thread.
//! * A pool runs one job at a time. A call that finds its pool busy with
//!   another thread's job runs inline, so calls never wait for each
//!   other.
//! * A panic in a task is caught on the thread that ran it and raised
//!   again in the caller once the job has drained; the pool stays usable.
//!
//! Adapters are *eager*: `into_par_iter()` materialises the items, each
//! combinator runs to completion, and results keep the input order (as
//! rayon's indexed iterators guarantee). Which thread runs an item never
//! changes what the item computes.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParallelSlice, ParallelSliceMut};
}

thread_local! {
    /// The pool installed by [`ThreadPool::install`]; `None` is the
    /// global pool.
    static INSTALLED: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    /// Set while this thread runs the tasks of a call that fanned out.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Hardware threads, read once.
fn hardware_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of threads parallel operations issued from this thread will
/// use (rayon's `current_num_threads`): the hardware parallelism, the
/// size of the pool an enclosing [`ThreadPool::install`] pinned, or 1
/// inside a task of a call that fanned out.
pub fn current_num_threads() -> usize {
    if IN_TASK.get() {
        return 1;
    }
    INSTALLED.with_borrow(|pool| pool.as_ref().map_or_else(hardware_threads, |r| r.threads))
}

/// The global pool, spawned on first use.
fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let (registry, workers) =
            Registry::spawn(hardware_threads()).expect("spawn the global pool's workers");
        // Detached: the global workers serve the whole process.
        drop(workers);
        registry
    })
}

/// The pool a call over `n` items fans out on, or `None` when it runs as
/// a plain loop on the calling thread.
fn fan_out(n: usize) -> Option<Arc<Registry>> {
    if n <= 1 || current_num_threads() <= 1 {
        return None;
    }
    let installed = INSTALLED.with_borrow(|pool| pool.clone());
    Some(installed.unwrap_or_else(|| Arc::clone(global())))
}

/// One parallel call: task `i` is `f(i)` for `i` in `0..n`.
struct Job<'a> {
    f: &'a (dyn Fn(usize) + Sync),
    n: usize,
    /// The next unclaimed index.
    next: AtomicUsize,
    /// The first panic a task raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claim and run tasks until none is left. A panic ends this
    /// thread's share and is kept for the caller; the other threads
    /// finish the job.
    fn drain(&self) {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| loop {
            // Relaxed: the cursor publishes no data; each index is
            // claimed by exactly one thread whatever the order.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            (self.f)(i);
        }));
        if let Err(payload) = ran {
            let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
    }
}

/// A published job as the workers see it, its lifetime erased.
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: `Job` is `Sync` (a `Sync` closure, an atomic cursor and a
// mutex), so threads may share it; `Registry::run` keeps the pointee
// alive until every worker that read this pointer has left the job.
unsafe impl Send for JobRef {}

/// The shared state of one pool.
struct Registry {
    /// Threads a call fans out on: the workers plus the calling thread.
    threads: usize,
    state: Mutex<State>,
    /// Parked workers wait here for a job or for shutdown.
    work: Condvar,
    /// A caller waits here for the workers still inside its job.
    left: Condvar,
}

#[derive(Default)]
struct State {
    /// A call is in flight: from publishing its job until its caller
    /// has seen every worker leave it.
    busy: bool,
    /// The in-flight call's job, while workers may still join it.
    job: Option<JobRef>,
    /// Bumped per published job, so a worker joins each job once.
    epoch: u64,
    /// Workers inside the in-flight call's job.
    active: usize,
    /// Workers waiting on `work`.
    parked: usize,
    shutdown: bool,
}

impl Registry {
    /// A pool of `threads` threads: spawns `threads - 1` workers.
    fn spawn(threads: usize) -> std::io::Result<(Arc<Registry>, Vec<JoinHandle<()>>)> {
        let registry = Arc::new(Registry {
            threads,
            state: Mutex::default(),
            work: Condvar::new(),
            left: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads.saturating_sub(1));
        for i in 1..threads {
            let r = Arc::clone(&registry);
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-worker-{i}"))
                .spawn(move || r.work());
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    registry.shut_down(workers);
                    return Err(e);
                }
            }
        }
        Ok((registry, workers))
    }

    /// Lock the state. No code that can panic runs under this lock and
    /// every update leaves the state consistent, so a poisoned lock is
    /// still sound to use.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A worker's loop: join each new job once, park in between.
    fn work(&self) {
        IN_TASK.set(true);
        let mut seen = 0;
        let mut state = self.lock();
        loop {
            if state.shutdown {
                return;
            }
            let new_job = state.job.filter(|_| state.epoch != seen);
            if let Some(job) = new_job {
                seen = state.epoch;
                state.active += 1;
                drop(state);
                // SAFETY: this worker counts in `active` until it re-locks
                // below, and the publishing caller keeps the job alive
                // until `active` is zero.
                unsafe { (*job.0).drain() };
                state = self.lock();
                state.active -= 1;
                // A cleared job means its caller waits on `left`.
                if state.active == 0 && state.job.is_none() {
                    self.left.notify_one();
                }
            } else {
                state.parked += 1;
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.parked -= 1;
            }
        }
    }

    /// Run `f(i)` for `i` in `0..n` on this pool's threads and the
    /// calling thread; re-raise the first task panic.
    fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        let job = Job {
            f,
            n,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let wake = {
            let mut state = self.lock();
            if state.busy {
                // Another thread's call is in flight: run inline.
                drop(state);
                return (0..n).for_each(f);
            }
            state.busy = true;
            state.job = Some(JobRef(std::ptr::from_ref(&job).cast()));
            state.epoch += 1;
            state.parked.min(n.saturating_sub(1))
        };
        // Dropped before `job`, also on unwinding: no worker can still
        // be inside the job once it goes out of scope.
        let in_flight = InFlight(self);
        for _ in 0..wake {
            self.work.notify_one();
        }
        let outer = IN_TASK.replace(true);
        job.drain();
        IN_TASK.set(outer);
        drop(in_flight);
        let first = job
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = first {
            panic::resume_unwind(payload);
        }
    }

    /// Stop the workers and join them.
    fn shut_down(&self, workers: Vec<JoinHandle<()>>) {
        self.lock().shutdown = true;
        self.work.notify_all();
        for worker in workers {
            // A worker catches every task panic, so there is none here.
            let _ = worker.join();
        }
    }
}

/// Unpublishes the caller's job and waits for the workers inside it.
struct InFlight<'r>(&'r Registry);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.job = None;
        while state.active > 0 {
            state = self
                .0
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.busy = false;
    }
}

/// Stand-in for rayon's pool builder; only `num_threads` is supported.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Threads of the pool, the calling thread included; 0 means the
    /// hardware count.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Spawn the pool's workers; fails if a worker thread cannot be
    /// spawned.
    pub fn build(self) -> std::io::Result<ThreadPool> {
        let threads = self.num_threads.unwrap_or_else(hardware_threads);
        let (registry, workers) = Registry::spawn(threads)?;
        Ok(ThreadPool { registry, workers })
    }
}

/// A pool with its own workers. Parallel calls made inside
/// [`ThreadPool::install`] run on it; dropping it joins the workers.
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Run `f` on the calling thread with every parallel call it makes
    /// going to this pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Registry>>, bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.set(self.0.take());
                IN_TASK.set(self.1);
            }
        }
        let _restore = Restore(
            INSTALLED.replace(Some(Arc::clone(&self.registry))),
            IN_TASK.replace(false),
        );
        f()
    }

    pub fn current_num_threads(&self) -> usize {
        self.registry.threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shut_down(std::mem::take(&mut self.workers));
    }
}

/// An eager "parallel iterator" over an owned list of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair each item with its index (input order).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Pair items positionally with another parallel iterator (rayon's
    /// indexed `zip`): item `i` of the result is `(self[i], other[i])`.
    /// Like rayon, the result is truncated to the shorter input.
    pub fn zip<U: Send>(self, other: ParIter<U>) -> ParIter<(T, U)> {
        ParIter {
            items: self.items.into_iter().zip(other.items).collect(),
        }
    }

    /// Parallel map preserving input order.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        let n = self.items.len();
        let Some(registry) = fan_out(n) else {
            return ParIter {
                items: self.items.into_iter().map(f).collect(),
            };
        };
        let slots: Vec<Mutex<Option<T>>> = self
            .items
            .into_iter()
            .map(|t| Mutex::new(Some(t)))
            .collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        registry.run(n, &|i| {
            let item = slots[i].lock().unwrap().take().expect("item taken once");
            *results[i].lock().unwrap() = Some(f(item));
        });
        ParIter {
            items: results
                .into_iter()
                .map(|m| m.into_inner().unwrap().expect("result written"))
                .collect(),
        }
    }

    /// Parallel filter preserving input order.
    pub fn filter<F: Fn(&T) -> bool + Sync>(self, f: F) -> ParIter<T> {
        let keep = self.map(|t| if f(&t) { Some(t) } else { None });
        ParIter {
            items: keep.items.into_iter().flatten().collect(),
        }
    }

    /// Parallel side-effecting visit.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        self.map(f).items.into_iter().for_each(drop);
    }

    /// Ordered collection into any `FromIterator` container.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Conversion into [`ParIter`] (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}
impl_range_par_iter!(usize, u32, u64, i32, i64);

/// `par_chunks_mut` on slices.
pub trait ParallelSliceMut<T: Send> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// `par_chunks` on shared slices (read-only input chunks; zip these with
/// `par_chunks_mut` output chunks to walk chunk *pairs* in parallel).
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::{Condvar, Mutex};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    fn pool(threads: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    /// Holds every caller until `parties` have arrived; panics after a
    /// timeout instead of hanging when fewer threads can get there.
    struct Rendezvous {
        arrived: Mutex<usize>,
        all: Condvar,
        parties: usize,
    }

    impl Rendezvous {
        fn new(parties: usize) -> Self {
            Rendezvous {
                arrived: Mutex::new(0),
                all: Condvar::new(),
                parties,
            }
        }

        fn arrive(&self) {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all.notify_all();
            let (arrived, wait) = self
                .all
                .wait_timeout_while(arrived, Duration::from_secs(30), |n| *n < self.parties)
                .unwrap();
            assert!(
                !wait.timed_out(),
                "only {} of {} threads arrived",
                *arrived,
                self.parties
            );
        }
    }

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_enumerate_for_each() {
        let mut data = [0u32; 40];
        data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x = i as u32;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[7], 1);
        assert_eq!(data[39], 5);
    }

    #[test]
    fn zip_pairs_positionally() {
        let a: Vec<u32> = (0..64).collect();
        let b: Vec<u32> = (100..164).collect();
        let sums: Vec<u32> = a
            .into_par_iter()
            .zip(b.into_par_iter())
            .map(|(x, y)| x + y)
            .collect();
        assert_eq!(sums.len(), 64);
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(*s, i as u32 + 100 + i as u32);
        }
    }

    #[test]
    fn zip_truncates_to_shorter() {
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (0..4).collect();
        let pairs: Vec<(u32, u32)> = a.into_par_iter().zip(b.into_par_iter()).collect();
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn chunk_pairs_zip_mut_and_shared() {
        // The kernel-layer pattern: walk (output chunk, input chunk) pairs.
        let src: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 100];
        dst.par_chunks_mut(7)
            .zip(src.par_chunks(7))
            .enumerate()
            .for_each(|(i, (d, s))| {
                for (dv, sv) in d.iter_mut().zip(s) {
                    *dv = sv * 2.0 + i as f32;
                }
            });
        for (i, v) in dst.iter().enumerate() {
            let chunk = (i / 7) as f32;
            assert_eq!(*v, i as f32 * 2.0 + chunk);
        }
    }

    #[test]
    fn vec_par_iter_sum() {
        let s: u64 = (0..1000u64).into_par_iter().map(|x| x).sum();
        assert_eq!(s, 499_500);
    }

    #[test]
    fn install_pins_current_num_threads() {
        let outside = crate::current_num_threads();
        assert_eq!(
            outside,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        pool(1).install(|| {
            assert_eq!(crate::current_num_threads(), 1);
            // Parallel work still completes, just on one worker.
            let v: Vec<usize> = (0..50usize).into_par_iter().map(|i| i + 1).collect();
            assert_eq!(v[49], 50);
        });
        assert_eq!(crate::current_num_threads(), outside);
    }

    #[test]
    fn a_four_thread_pool_runs_a_four_item_job_on_four_threads() {
        // Each task holds its thread until all four tasks run at once, so
        // no thread can take two of them.
        let all = Rendezvous::new(4);
        let pool = pool(4);
        let ids: Vec<ThreadId> = pool.install(|| {
            assert_eq!(crate::current_num_threads(), 4);
            (0..4usize)
                .into_par_iter()
                .map(|_| {
                    all.arrive();
                    thread::current().id()
                })
                .collect()
        });
        let mut distinct = ids.clone();
        distinct.sort_by_key(|id| format!("{id:?}"));
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{ids:?}");
        assert!(
            ids.contains(&thread::current().id()),
            "the caller runs a share"
        );
    }

    #[test]
    fn a_task_panic_reaches_the_caller_and_the_pool_stays_usable() {
        let pool = pool(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..16usize).into_par_iter().for_each(|i| {
                    if i == 5 {
                        panic!("task 5 failed");
                    }
                })
            })
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 5 failed"));
        let v: Vec<usize> = pool.install(|| (0..64usize).into_par_iter().map(|i| i * 3).collect());
        assert_eq!(v, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_nested_call_in_a_task_runs_inline_on_one_thread() {
        let all = Rendezvous::new(2);
        let pool = pool(2);
        let seen: Vec<(usize, bool)> = pool.install(|| {
            (0..2usize)
                .into_par_iter()
                .map(|_| {
                    // Both tasks run at once, so the call fanned out.
                    all.arrive();
                    let me = thread::current().id();
                    let inner: Vec<ThreadId> = (0..8usize)
                        .into_par_iter()
                        .map(|_| thread::current().id())
                        .collect();
                    (
                        crate::current_num_threads(),
                        inner.iter().all(|id| *id == me),
                    )
                })
                .collect()
        });
        assert_eq!(seen, vec![(1, true), (1, true)]);
    }

    #[test]
    fn two_threads_calling_one_pool_at_once_get_ordered_results() {
        // Task 0 of each call waits for task 0 of the other, so both
        // calls are in flight together: the second finds the pool busy.
        let both = Rendezvous::new(2);
        let pool = pool(2);
        let call = |salt: usize| -> Vec<usize> {
            pool.install(|| {
                (0..64usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 0 {
                            both.arrive();
                        }
                        i * 1000 + salt
                    })
                    .collect()
            })
        };
        let (a, b) = thread::scope(|s| {
            let a = s.spawn(|| call(1));
            let b = s.spawn(|| call(2));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, (0..64).map(|i| i * 1000 + 1).collect::<Vec<_>>());
        assert_eq!(b, (0..64).map(|i| i * 1000 + 2).collect::<Vec<_>>());
    }

    /// A few microseconds of work, so a woken worker finds tasks left.
    fn spin(seed: u64) -> u64 {
        (0..2000u64).fold(seed, |h, i| std::hint::black_box(h.rotate_left(5) ^ i))
    }

    #[test]
    fn back_to_back_calls_from_two_threads_finish() {
        // One caller's wait for its workers must not span the other
        // caller's job; the calls run on a helper thread so a hang fails
        // the test instead of stalling the suite.
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let pool = pool(2);
            thread::scope(|s| {
                for salt in 0..2u64 {
                    let pool = &pool;
                    s.spawn(move || {
                        for round in 0..2000usize {
                            let v: Vec<u64> = pool.install(|| {
                                (0..4u64).into_par_iter().map(|i| spin(i + salt)).collect()
                            });
                            assert_eq!(
                                v,
                                (0..4).map(|i| spin(i + salt)).collect::<Vec<_>>(),
                                "{round}"
                            );
                        }
                    });
                }
            });
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("both callers finish");
    }

    #[test]
    fn dropping_a_built_pool_joins_its_workers() {
        use std::sync::mpsc;

        /// Sends once when its thread exits.
        struct OnExit(Option<mpsc::Sender<()>>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                if let Some(tx) = self.0.take() {
                    let _ = tx.send(());
                }
            }
        }
        thread_local! {
            static EXIT: std::cell::RefCell<OnExit> = const { std::cell::RefCell::new(OnExit(None)) };
        }

        let (tx, rx) = mpsc::channel();
        let all = Rendezvous::new(3);
        let caller = thread::current().id();
        let pool = pool(3);
        let tx = Mutex::new(tx);
        pool.install(|| {
            (0..3usize).into_par_iter().for_each(|_| {
                all.arrive();
                if thread::current().id() != caller {
                    let tx = tx.lock().unwrap().clone();
                    EXIT.with_borrow_mut(|e| e.0 = Some(tx));
                }
            })
        });
        drop(pool);
        assert_eq!(rx.try_iter().count(), 2, "both workers exited");
    }
}
