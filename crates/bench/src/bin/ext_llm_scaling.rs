//! Extension: multi-node scaling of the 13B GPT on JEDI (GH200 nodes).
//!
//! The paper ships the 13B/175B JUBE configurations and tested them on
//! GH200; this binary sweeps node counts and prints the planned 3D layout
//! (dp × tp × pp), the pipeline-bubble fraction, per-device throughput
//! and aggregate tokens/s. Not a figure in the paper — an extension.

use caraml::llm_large::LargeModelBenchmark;
use caraml_accel::SystemId;
use caraml_models::GptConfig;
use jube::ResultTable;
use rayon::prelude::*;

fn main() {
    println!("EXTENSION — 13B GPT scaling on JEDI (4x GH200 per node)\n");
    let mut table = ResultTable::new(
        [
            "nodes",
            "devices",
            "layout",
            "bubble %",
            "tok/s/device",
            "aggregate tok/s",
            "tokens/Wh",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let rows: Vec<Vec<String>> = vec![1u32, 2, 4, 8, 16]
        .into_par_iter()
        .map(|nodes| {
            let mut bench = LargeModelBenchmark::new(SystemId::Jedi, GptConfig::gpt_13b(), nodes);
            bench.duration_s = 600.0;
            let devices = 4 * nodes;
            // Keep a constant, launchable global batch per layout.
            let batch = 512u64.max(u64::from(devices) * 4);
            match bench.run(batch) {
                Ok(run) => vec![
                    nodes.to_string(),
                    devices.to_string(),
                    run.layout.to_string(),
                    format!("{:.1}", run.bubble_fraction * 100.0),
                    format!("{:.0}", run.fom.tokens_per_s_per_device),
                    format!(
                        "{:.0}",
                        run.fom.tokens_per_s_per_device * f64::from(devices)
                    ),
                    format!("{:.0}", run.fom.tokens_per_wh),
                ],
                Err(e) => vec![
                    nodes.to_string(),
                    devices.to_string(),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ],
            }
        })
        .collect();
    for row in rows {
        table.push_row(row);
    }
    println!("{}", table.to_ascii());

    println!("\nEXTENSION — 175B GPT on 16 JEDI nodes (64 GH200s)\n");
    let mut bench = LargeModelBenchmark::new(SystemId::Jedi, GptConfig::gpt_175b(), 16);
    bench.duration_s = 600.0;
    match bench.run(1024) {
        Ok(run) => println!(
            "layout {} | bubble {:.1} % | {:.0} tok/s/device | {:.0} aggregate tok/s",
            run.layout,
            run.bubble_fraction * 100.0,
            run.fom.tokens_per_s_per_device,
            run.fom.tokens_per_s_per_device * 64.0
        ),
        Err(e) => println!("error: {e}"),
    }
}
