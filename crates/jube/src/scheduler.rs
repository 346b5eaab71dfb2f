//! A Slurm-like batch scheduler over a bounded worker pool.
//!
//! "The JUBE runtime interprets the script, resolves dependencies and
//! submits jobs to the Slurm batch system" (§III-A3). This module plays
//! the Slurm role for workpackage execution: jobs are submitted with a
//! node requirement, wait in a FIFO queue while the simulated partition
//! is full, run on a bounded worker pool sized to the partition (one
//! worker per node — the maximum number of jobs that can hold nodes at
//! once), and end in `Completed` or `Failed` with accounting of queue
//! and run times. [`SlurmSim::map_shards`] is the one sharded sweep
//! dispatcher on top: it cuts a grid into contiguous shard jobs and
//! merges their results back in grid order, for JUBE workpackages
//! ([`crate::Benchmark::run_sharded`]) and plain grids alike.
//!
//! Admission is strictly FIFO: only the job at the head of the queue is
//! ever considered for admission, so a wide job can never be starved by
//! a stream of narrow jobs submitted after it. Queue time is measured
//! from the moment `submit` enqueues the job, not from when a worker
//! first looks at it, so scheduling delay inside the simulator is part
//! of the accounting rather than silently excluded.

use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Pending,
    Running,
    Completed,
    Failed,
}

/// Accounting record of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub id: u64,
    pub name: String,
    pub nodes: u32,
    pub state: JobState,
    pub queue_s: f64,
    pub run_s: f64,
    pub error: Option<String>,
}

type Work = Box<dyn FnOnce() -> Result<(), String> + Send + 'static>;

struct PendingJob {
    id: u64,
    nodes: u32,
    /// Captured in `submit()` so queue time includes every source of
    /// delay after submission (including worker wake-up latency).
    submitted: Instant,
    work: Work,
}

struct SchedState {
    free_nodes: u32,
    records: BTreeMap<u64, JobRecord>,
    /// FIFO admission queue; workers only ever admit the front.
    queue: VecDeque<PendingJob>,
    /// Jobs submitted but not yet terminal (pending + running).
    active: usize,
    shutdown: bool,
}

/// The simulated batch system.
pub struct SlurmSim {
    total_nodes: u32,
    state: Arc<(Mutex<SchedState>, Condvar)>,
    next_id: Mutex<u64>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Handle to a job submitted with [`SlurmSim::submit_job`]: carries the
/// job's typed result out of the scheduler once it completes.
pub struct JobHandle<T> {
    id: u64,
    slot: Arc<Mutex<Option<T>>>,
    state: Arc<(Mutex<SchedState>, Condvar)>,
}

impl<T> JobHandle<T> {
    /// The scheduler-assigned job id (`sbatch` output).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job reaches a terminal state. Returns the job's
    /// value on `Completed`, the job's error message on `Failed`.
    pub fn join(self) -> Result<T, String> {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock();
        loop {
            match st.records.get(&self.id).map(|r| r.state) {
                Some(JobState::Completed) => {
                    drop(st);
                    return Ok(self
                        .slot
                        .lock()
                        .take()
                        .expect("completed job stored its value"));
                }
                Some(JobState::Failed) => {
                    let msg = st.records[&self.id]
                        .error
                        .clone()
                        .unwrap_or_else(|| "job failed".into());
                    return Err(msg);
                }
                _ => cvar.wait(&mut st),
            }
        }
    }
}

/// Split `0..len` into `shards` contiguous, non-empty ranges covering the
/// whole input in order. The first `len % shards` shards get one extra
/// element; shard counts larger than `len` collapse to `len` shards.
/// `len == 0` yields no shards.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

impl SlurmSim {
    /// A partition with `nodes` nodes and a worker pool of `nodes`
    /// threads (every running job holds at least one node, so the pool
    /// can never under-serve the partition).
    pub fn new(nodes: u32) -> Arc<Self> {
        assert!(nodes >= 1);
        let state = Arc::new((
            Mutex::new(SchedState {
                free_nodes: nodes,
                records: BTreeMap::new(),
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let workers = (0..nodes)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("slurm-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Arc::new(SlurmSim {
            total_nodes: nodes,
            state,
            next_id: Mutex::new(1),
            workers: Mutex::new(workers),
        })
    }

    pub fn total_nodes(&self) -> u32 {
        self.total_nodes
    }

    /// Number of worker threads in the pool. Fixed at construction:
    /// submitting jobs never spawns threads.
    pub fn pool_size(&self) -> usize {
        self.workers.lock().len()
    }

    fn enqueue(&self, name: String, nodes: u32, work: Work) -> u64 {
        assert!(
            nodes >= 1 && nodes <= self.total_nodes,
            "job needs {nodes} nodes, partition has {}",
            self.total_nodes
        );
        let id = {
            let mut g = self.next_id.lock();
            let id = *g;
            *g += 1;
            id
        };
        let submitted = Instant::now();
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock();
        st.records.insert(
            id,
            JobRecord {
                id,
                name,
                nodes,
                state: JobState::Pending,
                queue_s: 0.0,
                run_s: 0.0,
                error: None,
            },
        );
        st.active += 1;
        st.queue.push_back(PendingJob {
            id,
            nodes,
            submitted,
            work,
        });
        cvar.notify_all();
        id
    }

    /// Submit a job requiring `nodes` nodes; `work` runs on the worker
    /// pool once the job reaches the head of the queue and its nodes are
    /// free. Returns the job id immediately (`sbatch` semantics).
    pub fn submit<F>(&self, name: impl Into<String>, nodes: u32, work: F) -> u64
    where
        F: FnOnce() -> Result<(), String> + Send + 'static,
    {
        self.enqueue(name.into(), nodes, Box::new(work))
    }

    /// Submit a job whose work produces a value; the returned
    /// [`JobHandle`] yields it on [`JobHandle::join`]. Queueing and
    /// accounting are identical to [`SlurmSim::submit`].
    pub fn submit_job<T, F>(&self, name: impl Into<String>, nodes: u32, work: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, String> + Send + 'static,
    {
        let slot = Arc::new(Mutex::new(None));
        let store = Arc::clone(&slot);
        let id = self.enqueue(
            name.into(),
            nodes,
            Box::new(move || {
                let value = work()?;
                *store.lock() = Some(value);
                Ok(())
            }),
        );
        JobHandle {
            id,
            slot,
            state: Arc::clone(&self.state),
        }
    }

    /// Map `f` over `points` as contiguous shard jobs on this partition,
    /// the way JUBE submits a sweep to Slurm: [`shard_ranges`] cuts the
    /// input into `shards` shards, and each becomes one job named
    /// `{name}_shard{s}` that holds as many nodes as its widest point
    /// asks for (`nodes_of`, clamped to the partition) and runs its
    /// points in input order. Results come back in input order, equal
    /// to `points.into_iter().map(f).collect()` whatever the shard count
    /// or admission order. A failed shard job (a point panicked) comes
    /// back as an `Err` naming it. An empty input submits no job.
    pub fn map_shards<P, T, F, N>(
        &self,
        name: &str,
        points: Vec<P>,
        shards: usize,
        nodes_of: N,
        f: F,
    ) -> Result<Vec<T>, String>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: Fn(P) -> T + Send + Sync + 'static,
        N: Fn(&P) -> u32,
    {
        let total = points.len();
        let mut points = points.into_iter();
        let f = Arc::new(f);
        // Submit in input order, so FIFO admission matches shard order.
        let handles: Vec<(String, JobHandle<Vec<T>>)> = shard_ranges(total, shards)
            .into_iter()
            .enumerate()
            .map(|(s, range)| {
                let chunk: Vec<P> = points.by_ref().take(range.len()).collect();
                let nodes = chunk
                    .iter()
                    .map(&nodes_of)
                    .max()
                    .unwrap_or(1)
                    .clamp(1, self.total_nodes);
                let job = format!("{name}_shard{s}");
                let f = Arc::clone(&f);
                let handle = self.submit_job(job.clone(), nodes, move || {
                    Ok(chunk.into_iter().map(|p| f(p)).collect())
                });
                (job, handle)
            })
            .collect();
        let mut results = Vec::with_capacity(total);
        for (job, handle) in handles {
            results.extend(
                handle
                    .join()
                    .map_err(|e| format!("job {job} failed: {e}"))?,
            );
        }
        Ok(results)
    }

    /// Current state of a job (`squeue`/`sacct`).
    pub fn state_of(&self, id: u64) -> Option<JobState> {
        let (lock, _) = &*self.state;
        lock.lock().records.get(&id).map(|r| r.state)
    }

    /// Accounting record of one job (`sacct -j`).
    pub fn record_of(&self, id: u64) -> Option<JobRecord> {
        let (lock, _) = &*self.state;
        lock.lock().records.get(&id).cloned()
    }

    /// Block until every submitted job finished; returns all records.
    pub fn wait_all(&self) -> Vec<JobRecord> {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock();
        while st.active > 0 {
            cvar.wait(&mut st);
        }
        st.records.values().cloned().collect()
    }

    /// Records of all jobs seen so far (including pending/running).
    pub fn records(&self) -> Vec<JobRecord> {
        let (lock, _) = &*self.state;
        lock.lock().records.values().cloned().collect()
    }
}

impl Drop for SlurmSim {
    fn drop(&mut self) {
        {
            let (lock, cvar) = &*self.state;
            lock.lock().shutdown = true;
            cvar.notify_all();
        }
        for handle in self.workers.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

/// One pool worker: admit the head of the FIFO queue when its node
/// requirement fits, run it, release the nodes. Only the head is ever
/// admitted, which is what makes admission starvation-free.
fn worker_loop(state: &Arc<(Mutex<SchedState>, Condvar)>) {
    let (lock, cvar) = &**state;
    loop {
        let job = {
            let mut st = lock.lock();
            loop {
                let head_fits = st
                    .queue
                    .front()
                    .is_some_and(|job| job.nodes <= st.free_nodes);
                if head_fits {
                    break;
                }
                if st.shutdown && st.queue.is_empty() {
                    return;
                }
                cvar.wait(&mut st);
            }
            let job = st.queue.pop_front().expect("head checked above");
            st.free_nodes -= job.nodes;
            let rec = st.records.get_mut(&job.id).expect("record exists");
            rec.state = JobState::Running;
            rec.queue_s = job.submitted.elapsed().as_secs_f64();
            // The head changed: another worker may now admit the new head.
            cvar.notify_all();
            job
        };
        let started = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.work));
        let mut st = lock.lock();
        st.free_nodes += job.nodes;
        st.active -= 1;
        let rec = st.records.get_mut(&job.id).expect("record exists");
        rec.run_s = started.elapsed().as_secs_f64();
        match result {
            Ok(Ok(())) => rec.state = JobState::Completed,
            Ok(Err(e)) => {
                rec.state = JobState::Failed;
                rec.error = Some(e);
            }
            Err(_) => {
                rec.state = JobState::Failed;
                rec.error = Some("job panicked".into());
            }
        }
        cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn jobs_run_and_complete() {
        let slurm = SlurmSim::new(2);
        let counter = Arc::new(AtomicU32::new(0));
        for i in 0..5 {
            let c = Arc::clone(&counter);
            slurm.submit(format!("job{i}"), 1, move || {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
        }
        let records = slurm.wait_all();
        assert_eq!(records.len(), 5);
        assert!(records.iter().all(|r| r.state == JobState::Completed));
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn failures_are_recorded() {
        let slurm = SlurmSim::new(1);
        let ok = slurm.submit("good", 1, || Ok(()));
        let bad = slurm.submit("bad", 1, || Err("boom".into()));
        let records = slurm.wait_all();
        let get = |id: u64| records.iter().find(|r| r.id == id).unwrap().clone();
        assert_eq!(get(ok).state, JobState::Completed);
        let b = get(bad);
        assert_eq!(b.state, JobState::Failed);
        assert_eq!(b.error.as_deref(), Some("boom"));
    }

    #[test]
    fn panics_become_failures() {
        let slurm = SlurmSim::new(1);
        slurm.submit("panicky", 1, || panic!("unexpected"));
        let records = slurm.wait_all();
        assert_eq!(records[0].state, JobState::Failed);
        assert!(records[0].error.as_deref().unwrap().contains("panicked"));
    }

    #[test]
    fn node_limit_bounds_concurrency() {
        let slurm = SlurmSim::new(2);
        let running = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        for _ in 0..8 {
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            slurm.submit("j", 1, move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(10));
                running.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            });
        }
        slurm.wait_all();
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "concurrency exceeded nodes"
        );
    }

    #[test]
    fn multi_node_job_takes_whole_partition() {
        let slurm = SlurmSim::new(4);
        let running = Arc::new(AtomicU32::new(0));
        let overlap = Arc::new(AtomicU32::new(0));
        for _ in 0..3 {
            let running = Arc::clone(&running);
            let overlap = Arc::clone(&overlap);
            slurm.submit("wide", 4, move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                overlap.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                running.fetch_sub(1, Ordering::SeqCst);
                Ok(())
            });
        }
        slurm.wait_all();
        assert_eq!(overlap.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "partition has")]
    fn oversized_job_rejected() {
        let slurm = SlurmSim::new(2);
        slurm.submit("huge", 3, || Ok(()));
    }

    #[test]
    fn state_transitions_observable() {
        let slurm = SlurmSim::new(1);
        let id = slurm.submit("slow", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            Ok(())
        });
        // Eventually completes.
        slurm.wait_all();
        assert_eq!(slurm.state_of(id), Some(JobState::Completed));
        assert_eq!(slurm.state_of(9999), None);
    }

    #[test]
    fn accounting_times_are_positive() {
        let slurm = SlurmSim::new(1);
        slurm.submit("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(())
        });
        let records = slurm.wait_all();
        assert!(records[0].run_s >= 0.009);
        assert!(records[0].queue_s >= 0.0);
    }

    #[test]
    fn submit_job_returns_value_through_handle() {
        let slurm = SlurmSim::new(2);
        let handle = slurm.submit_job("typed", 1, || Ok(6 * 7));
        let id = handle.id();
        assert_eq!(handle.join(), Ok(42));
        assert_eq!(slurm.state_of(id), Some(JobState::Completed));
        let rec = slurm.record_of(id).unwrap();
        assert_eq!(rec.nodes, 1);
        assert!(rec.run_s >= 0.0);
    }

    #[test]
    fn submit_job_failure_surfaces_in_join() {
        let slurm = SlurmSim::new(1);
        let handle: JobHandle<u32> = slurm.submit_job("bad", 1, || Err("no value".into()));
        assert_eq!(handle.join(), Err("no value".to_string()));
    }

    #[test]
    fn submit_job_panic_surfaces_in_join() {
        let slurm = SlurmSim::new(1);
        let handle: JobHandle<u32> = slurm.submit_job("explode", 1, || panic!("kaboom"));
        assert!(handle.join().unwrap_err().contains("panicked"));
    }

    #[test]
    fn pool_is_sized_to_partition_and_never_grows() {
        let slurm = SlurmSim::new(3);
        assert_eq!(slurm.pool_size(), 3);
        for i in 0..50 {
            slurm.submit(format!("j{i}"), 1, || Ok(()));
        }
        slurm.wait_all();
        assert_eq!(slurm.pool_size(), 3, "submission must not spawn threads");
    }

    #[test]
    fn sharded_map_merges_in_grid_order() {
        let slurm = SlurmSim::new(4);
        let points: Vec<u64> = (0..23).collect();
        let serial: Vec<u64> = points.iter().map(|x| x * 3 + 1).collect();
        let mut jobs = 0;
        for shards in [1usize, 2, 5, 23, 40] {
            let sharded = slurm
                .map_shards("sweep", points.clone(), shards, |_| 1, |x| x * 3 + 1)
                .unwrap();
            assert_eq!(sharded, serial, "shards={shards}");
            // One completed job per shard, submitted in shard order.
            let records = slurm.records();
            let new = &records[jobs..];
            assert_eq!(new.len(), shards.min(points.len()));
            for (s, rec) in new.iter().enumerate() {
                assert_eq!(rec.name, format!("sweep_shard{s}"));
                assert_eq!(rec.state, JobState::Completed);
                assert!(rec.queue_s >= 0.0 && rec.run_s >= 0.0);
            }
            jobs = records.len();
        }
    }

    #[test]
    fn sharded_map_on_empty_grid_is_empty() {
        let slurm = SlurmSim::new(2);
        let sharded = slurm.map_shards("sweep", Vec::<u64>::new(), 4, |_| 1, |x| x);
        assert_eq!(sharded, Ok(Vec::new()));
        assert!(slurm.records().is_empty(), "no jobs for an empty grid");
    }

    #[test]
    fn shard_nodes_derive_from_widest_point_and_clamp_to_partition() {
        // Each point is its own node demand. Shards [1, 2], [1] and [16]
        // want 2, 1 and 16 nodes; the 2-node partition caps the last.
        let slurm = SlurmSim::new(2);
        let sharded = slurm
            .map_shards("sweep", vec![1u32, 2, 1, 16], 3, |&n| n, |n| n * 10)
            .unwrap();
        assert_eq!(sharded, vec![10, 20, 10, 160]);
        let nodes: Vec<u32> = slurm.records().iter().map(|r| r.nodes).collect();
        assert_eq!(nodes, vec![2, 1, 2]);
    }

    #[test]
    fn a_panicking_point_fails_its_shard_as_an_err() {
        let slurm = SlurmSim::new(2);
        let err = slurm
            .map_shards(
                "sweep",
                (0..6u32).collect(),
                3,
                |_| 1,
                |x| {
                    assert_ne!(x, 3, "point 3 panics");
                    x
                },
            )
            .unwrap_err();
        assert!(
            err.contains("sweep_shard1") && err.contains("panicked"),
            "{err}"
        );
        // The other shards still run to completion; the partition stays
        // usable after the failure.
        let states: Vec<JobState> = slurm.wait_all().iter().map(|r| r.state).collect();
        assert_eq!(
            states,
            vec![JobState::Completed, JobState::Failed, JobState::Completed]
        );
        assert_eq!(
            slurm.map_shards("again", vec![1u32], 1, |_| 2, |x| x),
            Ok(vec![1])
        );
    }

    #[test]
    fn shard_ranges_cover_input_contiguously() {
        assert_eq!(shard_ranges(0, 4), vec![]);
        assert_eq!(shard_ranges(5, 1), vec![0..5]);
        assert_eq!(shard_ranges(5, 2), vec![0..3, 3..5]);
        assert_eq!(shard_ranges(6, 3), vec![0..2, 2..4, 4..6]);
        // More shards than elements collapses to one element each.
        assert_eq!(shard_ranges(2, 5), vec![0..1, 1..2]);
        for (len, shards) in [(17, 4), (100, 7), (3, 3), (1, 1)] {
            let ranges = shard_ranges(len, shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous");
                assert!(!pair[0].is_empty() && !pair[1].is_empty());
            }
        }
    }
}
