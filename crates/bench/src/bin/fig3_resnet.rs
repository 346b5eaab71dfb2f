//! Regenerate Fig. 3: ResNet50 training throughput and energy on a
//! single device of each NVIDIA/AMD system (plus the MI250 2-GCD run).
//!
//! Panels: images/s, energy per epoch over the 1,281,167 ImageNet images
//! (Wh), and images/Wh, for global batch sizes 16..2048 — OOM where the
//! batch no longer fits device memory.

use caraml::report::render_panel;
use caraml::resnet::FIG3_BATCHES;
use caraml_bench::{fig3_variants, peak_efficiency, PanelSeries};
use rayon::prelude::*;

fn main() {
    let mut all = Vec::new();
    for (label, bench) in fig3_variants() {
        eprintln!("running {label} ...");
        let points: Vec<_> = FIG3_BATCHES
            .to_vec()
            .into_par_iter()
            .map(|batch| {
                bench.run(batch).ok().map(|run| {
                    (
                        run.fom.images_per_s,
                        run.fom.energy_wh_per_epoch,
                        run.fom.images_per_wh,
                    )
                })
            })
            .collect();
        let mut series = PanelSeries::new(&label);
        for (&batch, point) in FIG3_BATCHES.iter().zip(points) {
            series.push(batch, point);
        }
        all.push(series);
    }
    // The Graphcore IPU appears in the paper's Fig. 3 discussion through
    // Table III; include it for the efficiency comparison.
    let ipu_points: Vec<_> = FIG3_BATCHES
        .to_vec()
        .into_par_iter()
        .map(|batch| {
            caraml::resnet::ResnetBenchmark::run_ipu(batch, 1.0)
                .ok()
                .map(|run| {
                    (
                        run.fom.images_per_s,
                        run.fom.energy_wh_per_epoch,
                        run.fom.images_per_wh,
                    )
                })
        })
        .collect();
    let mut ipu = PanelSeries::new("Graphcore GC200");
    for (&batch, point) in FIG3_BATCHES.iter().zip(ipu_points) {
        ipu.push(batch, point);
    }
    all.push(ipu);

    println!("FIG. 3 — ResNet50 training on a single device (ImageNet, 1 epoch)\n");
    let throughput: Vec<_> = all.iter().map(|s| s.throughput.clone()).collect();
    println!(
        "{}",
        render_panel("Panel 1: Images/s", &FIG3_BATCHES, &throughput)
    );
    let energy: Vec<_> = all.iter().map(|s| s.energy.clone()).collect();
    println!(
        "{}",
        render_panel("Panel 2: Energy per epoch (Wh)", &FIG3_BATCHES, &energy)
    );
    let efficiency: Vec<_> = all.iter().map(|s| s.efficiency.clone()).collect();
    println!(
        "{}",
        render_panel("Panel 3: Images/Wh", &FIG3_BATCHES, &efficiency)
    );

    println!("Orderings (peak images/Wh):");
    for name in [
        "AMD MI250:GPU",
        "AMD MI250:GCD",
        "Graphcore GC200",
        "H100 (JRDC)",
        "GH200 (JRDC)",
        "H100 (WestAI)",
        "GH200 (JEDI)",
        "A100 (JRDC)",
    ] {
        println!("  {name:<18} {:.0} images/Wh", peak_efficiency(&all, name));
    }
    println!("(paper: MI250 best at large batch; H100-PCIe / GH200-JRDC best at small batch;\n IPU energy efficiency 'very promising' vs GPUs)");
}
