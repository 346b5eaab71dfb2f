//! Grid-execution equivalence tests.
//!
//! A grid runs in process through rayon's ordered
//! `into_par_iter().map(f).collect()`, or as contiguous shard jobs on a
//! simulated Slurm partition through [`jube::SlurmSim::map_shards`]. Both
//! must be **bit-identical** to a run on a one-worker pool for any grid,
//! any shard count (including counts that do not divide the grid size),
//! and any partition width — with OOM and invalid-config cells surviving
//! at their exact grid positions.

use caraml::resnet::{grid, ResnetBenchmark};
use caraml::SweepPoint;
use caraml_accel::{AccelError, NodeConfig, SystemId};
use jube::{shard_ranges, JobState, SlurmSim};
use proptest::prelude::*;
use rayon::prelude::*;

const GPU_SYSTEMS: [SystemId; 6] = [
    SystemId::A100,
    SystemId::H100Jrdc,
    SystemId::WaiH100,
    SystemId::Gh200Jrdc,
    SystemId::Jedi,
    SystemId::Mi250,
];

type CellBits = (u64, u64, u64, String);

/// Project one sweep outcome onto exact bit patterns (success) or the
/// error message (failure) so equality means bit-identity.
fn cell_bits(run: Result<caraml::ResnetRun, AccelError>) -> CellBits {
    match run {
        Ok(run) => (
            run.fom.images_per_s.to_bits(),
            run.fom.energy_wh_per_epoch.to_bits(),
            run.fom.images_per_wh.to_bits(),
            String::new(),
        ),
        Err(e) => (0, 0, 0, e.to_string()),
    }
}

/// One full-measurement grid cell; `'static` so it can cross into the
/// scheduler's worker pool.
fn cell(p: SweepPoint) -> CellBits {
    let mut bench = ResnetBenchmark::fig3(p.system);
    bench.devices = p.devices;
    cell_bits(bench.run(p.batch))
}

/// Simulated hosts a point needs: its devices over the system's nodes.
fn nodes_of(p: &SweepPoint) -> u32 {
    NodeConfig::shared(p.system).nodes_for(p.devices)
}

/// The grid on the pool the caller runs in, collected in grid order.
fn run_parallel(points: Vec<SweepPoint>) -> Vec<CellBits> {
    points.into_par_iter().map(cell).collect()
}

/// The grid on a one-worker pool: a plain loop in grid order.
fn run_serial(points: Vec<SweepPoint>) -> Vec<CellBits> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| run_parallel(points))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// one worker ≡ the default pool ≡ sharded dispatch for random grids,
    /// shard counts and partition widths. Batch powers up to 2^11 = 2048
    /// include the A100's Fig. 4 OOM cells, so failure outcomes are
    /// exercised too.
    #[test]
    fn sharded_sweep_is_bit_identical_to_serial_and_parallel(
        sys in 0usize..6,
        dev_pows in prop::collection::vec(0u32..4, 1..4),
        batch_pows in prop::collection::vec(4u32..12, 1..4),
        shards in 1usize..9,
        partition_nodes in 1u32..5,
    ) {
        let system = GPU_SYSTEMS[sys];
        let devices: Vec<u32> = dev_pows.iter().map(|p| 1u32 << p).collect();
        let batches: Vec<u64> = batch_pows.iter().map(|p| 1u64 << p).collect();
        let points = grid(system, &devices, &batches);

        let serial = run_serial(points.clone());
        let parallel = run_parallel(points.clone());
        prop_assert_eq!(&serial, &parallel);

        let slurm = SlurmSim::new(partition_nodes);
        let sharded = slurm
            .map_shards("sweep", points.clone(), shards, nodes_of, cell)
            .unwrap();
        prop_assert_eq!(&serial, &sharded);

        // Shard accounting: one completed job per contiguous shard, each
        // holding the nodes of its widest point, clamped to the partition.
        let records = slurm.records();
        let ranges = shard_ranges(points.len(), shards);
        prop_assert_eq!(records.len(), ranges.len());
        for (rec, range) in records.iter().zip(ranges) {
            let widest = points[range].iter().map(nodes_of).max().unwrap();
            prop_assert_eq!(rec.nodes, widest.clamp(1, partition_nodes));
            prop_assert_eq!(rec.state, JobState::Completed);
        }
    }
}

/// A grid straddling the A100's memory capacity keeps its OOM cell at
/// the same position under sharding, even when the shard boundary cuts
/// right through it.
#[test]
fn sharded_grid_preserves_oom_cells_in_place() {
    let points = grid(SystemId::A100, &[1], &[256, 512, 2048, 1024]);
    let serial = run_serial(points.clone());
    assert!(
        serial[2].3.contains("out of memory"),
        "expected the b2048 cell to OOM: {:?}",
        serial[2]
    );
    for shards in 1..=4 {
        let slurm = SlurmSim::new(2);
        let sharded = slurm
            .map_shards("sweep", points.clone(), shards, nodes_of, cell)
            .unwrap();
        assert_eq!(serial, sharded, "shards={shards}");
    }
}
