//! Reproduce one Fig. 4 heatmap: ResNet50 throughput over device count ×
//! global batch size, with OOM cells, for a system chosen on the command
//! line.
//!
//! ```text
//! cargo run --example resnet_heatmap -- WAIH100
//! cargo run --example resnet_heatmap -- GC200
//! ```

use caraml_suite::caraml::report::render_heatmap;
use caraml_suite::caraml::resnet::{fig4_devices, ResnetBenchmark, FIG4_BATCHES};
use caraml_suite::caraml_accel::{NodeConfig, SystemId};

fn main() {
    let tag = std::env::args().nth(1).unwrap_or_else(|| "A100".into());
    let Some(sys) = SystemId::from_jube_tag(&tag) else {
        eprintln!(
            "unknown system tag '{tag}'; use one of A100, H100, WAIH100, GH200, JEDI, MI250, GC200"
        );
        std::process::exit(2);
    };
    let node = NodeConfig::for_system(sys);
    let devices = fig4_devices(sys);
    let grid = ResnetBenchmark::heatmap(sys, &devices, &FIG4_BATCHES);
    println!(
        "{}",
        render_heatmap(
            &format!("ResNet50 throughput (images/s) on {}", node.platform),
            &devices,
            &FIG4_BATCHES,
            &grid,
        )
    );
}
