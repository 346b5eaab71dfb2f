//! Engine/sweep integration tests.
//!
//! Two properties the execution engine must uphold:
//!
//! * a grid run on rayon's default pool is **bit-identical** to the same
//!   grid on a one-worker pool — same cells, same order, same
//!   floating-point bits — so the figure/table binaries may parallelise
//!   sweeps without perturbing the paper's numbers;
//! * over-capacity Fig. 4 cells surface as structured
//!   [`RunOutcome::Oom`] values (not stringly-typed errors), and the
//!   outcome round-trips losslessly into [`AccelError::OutOfMemory`].
//!
//! Sharded dispatch of the same grids is `tests/sharded_sweep.rs`.

use caraml::engine;
use caraml::resnet::{grid, ResnetBenchmark, ResnetWorkload};
use caraml::{RunOutcome, SweepPoint};
use caraml_accel::{AccelError, SystemId};
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

/// Project one sweep outcome onto exact bit patterns (success) or the
/// error message (failure) so equality means bit-identity.
fn cell_bits(run: Result<caraml::ResnetRun, AccelError>) -> (u64, u64, u64, String) {
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

/// One full-measurement grid cell.
fn cell(p: SweepPoint) -> (u64, u64, u64, String) {
    let mut bench = ResnetBenchmark::fig3(p.system);
    bench.devices = p.devices;
    cell_bits(bench.run(p.batch))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Running the same (devices × batch) grid on a one-worker pool and
    /// on the default pool produces the same outcomes, in the same order,
    /// down to the last floating-point bit. OOM and invalid-config cells
    /// compare by message and must agree too.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial(
        sys in 0usize..6,
        dev_pows in prop::collection::vec(0u32..4, 1..4),
        batch_pows in prop::collection::vec(4u32..12, 1..4),
    ) {
        let system = GPU_SYSTEMS[sys];
        let devices: Vec<u32> = dev_pows.iter().map(|p| 1u32 << p).collect();
        let batches: Vec<u64> = batch_pows.iter().map(|p| 1u64 << p).collect();
        let points = grid(system, &devices, &batches);
        let one_worker = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let serial: Vec<_> =
            one_worker.install(|| points.clone().into_par_iter().map(cell).collect());
        let parallel: Vec<_> = points.into_par_iter().map(cell).collect();
        prop_assert_eq!(serial, parallel);
    }
}

/// The Fig. 4 over-capacity cell (A100, 1 device, global batch 2048)
/// comes back as a structured `RunOutcome::Oom`, and converting the
/// outcome back into a `Result` loses none of the OOM accounting.
#[test]
fn fig4_over_capacity_cell_reports_oom() {
    let bench = ResnetBenchmark::fig3(SystemId::A100);
    let outcome = engine::execute(&ResnetWorkload {
        bench: &bench,
        global_batch: 2048,
    });
    assert!(
        outcome.is_oom(),
        "A100 b2048 must OOM, got completed/failed"
    );
    match outcome.into_result() {
        Err(AccelError::OutOfMemory {
            device,
            requested,
            available,
            capacity,
        }) => {
            assert!(!device.is_empty());
            assert!(requested > available, "{requested} <= {available}");
            assert!(available <= capacity, "{available} > {capacity}");
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

/// An in-capacity neighbour of the same heatmap column completes, so the
/// OOM above is the memory model speaking, not a broken configuration.
#[test]
fn fig4_in_capacity_neighbour_completes() {
    let bench = ResnetBenchmark::fig3(SystemId::A100);
    let outcome = engine::execute(&ResnetWorkload {
        bench: &bench,
        global_batch: 256,
    });
    match outcome {
        RunOutcome::Completed(run) => assert!(run.fom.images_per_s > 0.0),
        other => panic!("expected Completed, got {other:?}"),
    }
}
