//! Extension (paper §VI future work): LLM inference sweep.
//!
//! Prefill latency, decode throughput, the memory-/compute-bound
//! crossover and energy per 1000 tokens, across batch sizes and systems.
//! Not a figure in the paper — clearly marked as an extension.

use caraml::inference::InferenceBenchmark;
use caraml_accel::SystemId;
use jube::ResultTable;
use rayon::prelude::*;

fn main() {
    println!("EXTENSION — LLM inference (800M GPT, 512-token prompts, 128 generated)\n");
    let mut table = ResultTable::new(
        [
            "system",
            "batch",
            "TTFT (ms)",
            "decode tok/s",
            "bound",
            "Wh/ktoken",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut points = Vec::new();
    for sys in [
        SystemId::A100,
        SystemId::H100Jrdc,
        SystemId::WaiH100,
        SystemId::Gh200Jrdc,
        SystemId::Mi250,
    ] {
        for batch in [1u32, 4, 16, 64, 256] {
            points.push((sys, batch));
        }
    }
    let rows: Vec<Vec<String>> = points
        .into_par_iter()
        .map(
            |(sys, batch)| match InferenceBenchmark::new(sys).run(batch) {
                Ok(fom) => vec![
                    fom.system.clone(),
                    batch.to_string(),
                    format!("{:.1}", fom.ttft_s * 1e3),
                    format!("{:.0}", fom.decode_tokens_per_s),
                    if fom.decode_memory_bound {
                        "memory"
                    } else {
                        "compute"
                    }
                    .into(),
                    format!("{:.4}", fom.energy_wh_per_ktoken),
                ],
                Err(e) if e.is_oom() => vec![
                    caraml_accel::NodeConfig::shared(sys).platform.clone(),
                    batch.to_string(),
                    "-".into(),
                    "OOM".into(),
                    "kv-cache".into(),
                    "-".into(),
                ],
                Err(e) => panic!("{e}"),
            },
        )
        .collect();
    for row in rows {
        table.push_row(row);
    }
    println!("{}", table.to_ascii());
    println!(
        "Single-stream decode is bandwidth-bound everywhere; batching raises arithmetic\n\
         intensity until the roofline ridge point. GH200's 4 TB/s HBM3 dominates decode."
    );
}
