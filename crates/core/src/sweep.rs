//! Parallel and sharded parameter sweeps over the execution engine.
//!
//! The paper's figures are grids: Fig. 2 sweeps global batch per system,
//! Fig. 3 sweeps batch per system, Fig. 4 sweeps (device count × batch)
//! per system. Every grid point is an independent simulated run, so the
//! [`SweepRunner`] fans them out over rayon and collects the outcomes in
//! input order — the results are bit-identical to a sequential loop (see
//! the property test in `crates/core/tests`), just faster on multi-core
//! hosts.
//!
//! The sharded mode mirrors the paper's multi-node dispatch: JUBE
//! "resolves dependencies and submits jobs to the Slurm batch system"
//! (§III-A3), so [`SweepRunner::map_sharded`] partitions a grid into
//! contiguous shards, submits each shard as one multi-node job to a
//! [`jube::SlurmSim`] partition (node requirement derived from the sweep
//! points' device counts), and merges the per-shard outcome vectors back
//! in exact grid order. Within a shard the
//! points run sequentially, so the merged output is bit-identical to
//! [`SweepRunner::serial`] regardless of the shard count or the
//! scheduler's interleaving; per-shard queue/run accounting comes back as
//! [`ShardRecord`]s.

use caraml_accel::{NodeConfig, SystemId};
use jube::{shard_ranges, JobState, SlurmSim};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// One point of a (system × device-count × batch) sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    pub system: SystemId,
    pub devices: u32,
    pub batch: u64,
}

/// The row-major (device-major, then batch) grid of sweep points used by
/// the Fig. 4 heatmaps.
pub fn grid(system: SystemId, device_counts: &[u32], batches: &[u64]) -> Vec<SweepPoint> {
    device_counts
        .iter()
        .flat_map(|&devices| {
            batches.iter().map(move |&batch| SweepPoint {
                system,
                devices,
                batch,
            })
        })
        .collect()
}

/// Node demand of one sweep point: how many simulated hosts the point
/// needs on a [`SlurmSim`] partition.
pub trait NodeDemand {
    fn nodes_required(&self) -> u32;
}

impl NodeDemand for SweepPoint {
    /// Nodes needed to hold `devices` accelerators of this system.
    fn nodes_required(&self) -> u32 {
        let per_node = NodeConfig::shared(self.system).devices_per_node.max(1);
        self.devices.div_ceil(per_node).max(1)
    }
}

/// How a sweep grid is partitioned across a [`SlurmSim`] partition:
/// `shards` contiguous shards, each submitted as one multi-node job
/// sized to the widest point in the shard (see [`NodeDemand`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    /// Number of contiguous shards (clamped to the grid size).
    pub shards: usize,
}

impl ShardPlan {
    pub fn new(shards: usize) -> Self {
        ShardPlan { shards }
    }
}

/// Scheduler accounting for one shard job, merged from the
/// [`SlurmSim`] job record after the shard completes.
#[derive(Debug, Clone)]
pub struct ShardRecord {
    pub shard: usize,
    pub job_id: u64,
    pub name: String,
    /// Grid indices this shard covered.
    pub range: Range<usize>,
    pub nodes: u32,
    pub queue_s: f64,
    pub run_s: f64,
}

/// Outcome of a sharded sweep: the merged results in exact grid order
/// plus per-shard scheduler accounting.
#[derive(Debug, Clone)]
pub struct ShardedSweep<T> {
    pub results: Vec<T>,
    pub shards: Vec<ShardRecord>,
}

/// Executes independent runs across a parameter grid.
///
/// `parallel()` (the default) fans the points out over rayon;
/// `serial()` runs the identical loop sequentially. Collection order is
/// always the input order, so the two modes produce identical output.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepRunner {
    serial: bool,
}

impl SweepRunner {
    /// A parallel runner (the default).
    pub fn parallel() -> Self {
        SweepRunner { serial: false }
    }

    /// A sequential runner (reference mode; also useful under profilers).
    pub fn serial() -> Self {
        SweepRunner { serial: true }
    }

    /// Map `f` over `points`, preserving input order.
    pub fn map<P, T, F>(&self, points: Vec<P>, f: F) -> Vec<T>
    where
        P: Send,
        T: Send,
        F: Fn(P) -> T + Sync,
    {
        if self.serial {
            points.into_iter().map(f).collect()
        } else {
            points.into_par_iter().map(f).collect()
        }
    }

    /// Map `f` over `points` sharded across a [`SlurmSim`] partition:
    /// contiguous shards, one multi-node job per shard (node requirement
    /// = the widest point in the shard per [`NodeDemand`], clamped to
    /// the partition), results merged back in exact grid order —
    /// bit-identical to [`SweepRunner::serial`].
    pub fn map_sharded<P, T, F>(
        &self,
        slurm: &Arc<SlurmSim>,
        plan: ShardPlan,
        points: Vec<P>,
        f: F,
    ) -> ShardedSweep<T>
    where
        P: NodeDemand + Send + 'static,
        T: Send + 'static,
        F: Fn(P) -> T + Send + Sync + 'static,
    {
        self.map_sharded_with(slurm, plan, points, NodeDemand::nodes_required, f)
    }

    /// [`SweepRunner::map_sharded`] with an explicit node-demand
    /// function, for point types that don't implement [`NodeDemand`].
    pub fn map_sharded_with<P, T, F, N>(
        &self,
        slurm: &Arc<SlurmSim>,
        plan: ShardPlan,
        mut points: Vec<P>,
        nodes_of: N,
        f: F,
    ) -> ShardedSweep<T>
    where
        P: Send + 'static,
        T: Send + 'static,
        F: Fn(P) -> T + Send + Sync + 'static,
        N: Fn(&P) -> u32,
    {
        let total = points.len();
        let ranges = shard_ranges(total, plan.shards);
        let shard_nodes: Vec<u32> = ranges
            .iter()
            .map(|r| {
                points[r.clone()]
                    .iter()
                    .map(&nodes_of)
                    .max()
                    .unwrap_or(1)
                    .clamp(1, slurm.total_nodes())
            })
            .collect();
        // Split from the tail so each shard owns its points, then submit
        // in grid order: FIFO admission then matches shard order.
        let mut chunks: Vec<Vec<P>> = ranges
            .iter()
            .rev()
            .map(|r| points.split_off(r.start))
            .collect();
        chunks.reverse();
        let f = Arc::new(f);
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(shard, chunk)| {
                let f = Arc::clone(&f);
                slurm.submit_job(
                    format!("sweep_shard{shard}"),
                    shard_nodes[shard],
                    move || Ok(chunk.into_iter().map(|p| f(p)).collect::<Vec<T>>()),
                )
            })
            .collect();
        let mut results = Vec::with_capacity(total);
        let mut shards = Vec::with_capacity(ranges.len());
        for (shard, (range, handle)) in ranges.into_iter().zip(handles).enumerate() {
            let job_id = handle.id();
            // A shard job only fails if a cell panicked; a sweep cell
            // returns structured outcomes, so propagate the panic.
            let cells = handle
                .join()
                .unwrap_or_else(|e| panic!("sweep shard {shard} failed: {e}"));
            debug_assert_eq!(cells.len(), range.len());
            results.extend(cells);
            let rec = slurm.record_of(job_id).expect("joined job has a record");
            debug_assert_eq!(rec.state, JobState::Completed);
            shards.push(ShardRecord {
                shard,
                job_id,
                name: rec.name,
                range,
                nodes: rec.nodes,
                queue_s: rec.queue_s,
                run_s: rec.run_s,
            });
        }
        ShardedSweep { results, shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_row_major() {
        let g = grid(SystemId::A100, &[1, 2], &[16, 32]);
        assert_eq!(g.len(), 4);
        assert_eq!((g[0].devices, g[0].batch), (1, 16));
        assert_eq!((g[1].devices, g[1].batch), (1, 32));
        assert_eq!((g[2].devices, g[2].batch), (2, 16));
        assert_eq!((g[3].devices, g[3].batch), (2, 32));
    }

    #[test]
    fn parallel_and_serial_map_agree() {
        let points: Vec<u64> = (0..37).collect();
        let par = SweepRunner::parallel().map(points.clone(), |x| x * x);
        let ser = SweepRunner::serial().map(points, |x| x * x);
        assert_eq!(par, ser);
    }

    #[test]
    fn sweep_point_node_demand_follows_device_count() {
        // A100 nodes carry 4 devices: 1–4 devices fit one node, 8 need 2.
        let p = |devices| SweepPoint {
            system: SystemId::A100,
            devices,
            batch: 16,
        };
        assert_eq!(p(1).nodes_required(), 1);
        assert_eq!(p(4).nodes_required(), 1);
        assert_eq!(p(5).nodes_required(), 2);
        assert_eq!(p(8).nodes_required(), 2);
    }

    #[test]
    fn sharded_map_merges_in_grid_order() {
        let slurm = SlurmSim::new(4);
        let points: Vec<u64> = (0..23).collect();
        let serial = SweepRunner::serial().map(points.clone(), |x| x * 3 + 1);
        for shards in [1usize, 2, 5, 23, 40] {
            let sharded = SweepRunner::parallel().map_sharded_with(
                &slurm,
                ShardPlan::new(shards),
                points.clone(),
                |_| 1,
                |x| x * 3 + 1,
            );
            assert_eq!(sharded.results, serial, "shards={shards}");
            assert_eq!(sharded.shards.len(), shards.min(points.len()));
            // Shards tile the grid contiguously and account real jobs.
            let mut next = 0;
            for (i, rec) in sharded.shards.iter().enumerate() {
                assert_eq!(rec.shard, i);
                assert_eq!(rec.range.start, next);
                next = rec.range.end;
                assert!(rec.queue_s >= 0.0 && rec.run_s >= 0.0);
                assert_eq!(slurm.state_of(rec.job_id), Some(JobState::Completed));
            }
            assert_eq!(next, points.len());
        }
    }

    #[test]
    fn sharded_map_on_empty_grid_is_empty() {
        let slurm = SlurmSim::new(2);
        let sharded = SweepRunner::parallel().map_sharded_with(
            &slurm,
            ShardPlan::new(4),
            Vec::<u64>::new(),
            |_| 1,
            |x| x,
        );
        assert!(sharded.results.is_empty());
        assert!(sharded.shards.is_empty());
        assert!(slurm.records().is_empty(), "no jobs for an empty grid");
    }

    #[test]
    fn shard_nodes_derive_from_widest_point_and_clamp_to_partition() {
        let slurm = SlurmSim::new(2);
        // 8 A100 devices want 2 nodes; 64 would want 16 but the
        // partition only has 2.
        let points = vec![
            SweepPoint {
                system: SystemId::A100,
                devices: 1,
                batch: 16,
            },
            SweepPoint {
                system: SystemId::A100,
                devices: 8,
                batch: 16,
            },
            SweepPoint {
                system: SystemId::A100,
                devices: 64,
                batch: 16,
            },
        ];
        let sharded =
            SweepRunner::parallel().map_sharded(&slurm, ShardPlan::new(3), points, |p| p.devices);
        assert_eq!(sharded.results, vec![1, 8, 64]);
        let nodes: Vec<u32> = sharded.shards.iter().map(|s| s.nodes).collect();
        assert_eq!(nodes, vec![1, 2, 2]);
    }
}
