//! Regenerate Table III: ResNet50 training on a single IPU GC200.
//!
//! Paper columns: Batch Size | Images/Time (1/s) | Energy/Epoch (Wh) |
//! Images/Energy (1/Wh). Graph compilation (~1 h) is excluded from the
//! timings, as in the paper.

use caraml::resnet::{ResnetBenchmark, TABLE3_BATCHES};
use jube::ResultTable;
use rayon::prelude::*;

const PAPER: [(u64, f64, f64, f64); 9] = [
    (16, 1827.72, 32.09, 39925.87),
    (32, 1857.90, 31.73, 40382.19),
    (64, 1879.29, 31.75, 40346.18),
    (128, 1888.11, 31.67, 40452.50),
    (256, 1887.23, 31.58, 40563.65),
    (512, 1891.74, 31.49, 40689.85),
    (1024, 1893.07, 31.50, 40668.79),
    (2048, 1889.87, 31.53, 40636.28),
    (4096, 1891.58, 31.51, 40660.14),
];

fn main() {
    let mut table = ResultTable::new(
        [
            "Batch Size",
            "Images/Time 1/s",
            "(paper)",
            "Energy/Epoch Wh",
            "(paper)",
            "Images/Energy 1/Wh",
            "(paper)",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let runs: Vec<_> = TABLE3_BATCHES
        .to_vec()
        .into_par_iter()
        .map(|batch| ResnetBenchmark::run_ipu(batch, 0.5).expect("ipu run"))
        .collect();
    for ((&batch, paper), run) in TABLE3_BATCHES.iter().zip(PAPER.iter()).zip(runs) {
        table.push_row(vec![
            batch.to_string(),
            format!("{:.2}", run.fom.images_per_s),
            format!("{:.2}", paper.1),
            format!("{:.2}", run.fom.energy_wh_per_epoch),
            format!("{:.2}", paper.2),
            format!("{:.2}", run.fom.images_per_wh),
            format!("{:.2}", paper.3),
        ]);
    }
    println!(
        "TABLE III — ResNet50, one epoch (1,281,167 images) on a single IPU GC200\n\
         (micro-batch capped at 16 by on-chip SRAM; graph compilation excluded)\n"
    );
    println!("{}", table.to_ascii());
}
