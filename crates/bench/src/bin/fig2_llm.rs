//! Regenerate Fig. 2: throughput and energy efficiency for LLM training
//! on NVIDIA and AMD systems (800M GPT model).
//!
//! Three panels, as in the paper: tokens/s per GPU, average total energy
//! per GPU for one hour of training (Wh), and tokens/Wh — for global
//! batch sizes 16..4096 on all seven system variants (including the
//! MI250:GCD / MI250:GPU split). Ends with the paper's headline ratios.

use caraml::llm::FIG2_BATCHES;
use caraml::report::{ratio_line, render_panel};
use caraml_bench::{fig2_variants, peak, peak_efficiency, PanelSeries};
use rayon::prelude::*;

fn main() {
    let mut all = Vec::new();
    for (label, bench) in fig2_variants() {
        eprintln!("running {label} ...");
        let points: Vec<_> = FIG2_BATCHES
            .to_vec()
            .into_par_iter()
            .map(|batch| {
                bench.run(batch).ok().map(|run| {
                    (
                        run.fom.tokens_per_s_per_device,
                        run.fom.energy_wh_per_device,
                        run.fom.tokens_per_wh,
                    )
                })
            })
            .collect();
        let mut series = PanelSeries::new(&label);
        for (&batch, point) in FIG2_BATCHES.iter().zip(points) {
            series.push(batch, point);
        }
        all.push(series);
    }

    let names: Vec<&str> = all.iter().map(|s| s.throughput.name.as_str()).collect();
    println!("FIG. 2 — LLM training, 800M GPT, micro-batch 4, data parallelism over the node\n");
    let throughput: Vec<_> = all.iter().map(|s| s.throughput.clone()).collect();
    println!(
        "{}",
        render_panel("Panel 1: Tokens/s per GPU", &FIG2_BATCHES, &throughput)
    );
    let energy: Vec<_> = all.iter().map(|s| s.energy.clone()).collect();
    println!(
        "{}",
        render_panel(
            "Panel 2: Energy per GPU for 1 h of training (Wh)",
            &FIG2_BATCHES,
            &energy
        )
    );
    let efficiency: Vec<_> = all.iter().map(|s| s.efficiency.clone()).collect();
    println!(
        "{}",
        render_panel("Panel 3: Tokens/Wh", &FIG2_BATCHES, &efficiency)
    );

    println!("Headline comparisons (peak over the sweep):");
    let gh = peak(&all, "GH200 (JRDC)");
    println!("  GH200 peak: {gh:.0} tokens/s/GPU (paper: 47505)");
    println!(
        "  {}",
        ratio_line("  GH200 / A100", gh, peak(&all, "A100 (JRDC)"), 2.45)
    );
    println!(
        "  {}",
        ratio_line(
            "  H100 WestAI / H100 JRDC",
            peak(&all, "H100 (WestAI)"),
            peak(&all, "H100 (JRDC)"),
            1.3
        )
    );
    println!(
        "  {}",
        ratio_line(
            "  GH200 JRDC / JEDI (per device)",
            gh,
            peak(&all, "GH200 (JEDI)"),
            1.2
        )
    );
    println!(
        "  {}",
        ratio_line(
            "  H100-PCIe / GH200 tokens-per-Wh",
            peak_efficiency(&all, "H100 (JRDC)"),
            peak_efficiency(&all, "GH200 (JRDC)"),
            1.25
        )
    );
    println!(
        "  {}",
        ratio_line(
            "  MI250 GCD-mode / GPU-mode (per device)",
            peak(&all, "AMD MI250:GCD"),
            peak(&all, "AMD MI250:GPU"),
            1.05
        )
    );
    let _ = names;
}
