//! Ablations of the design choices called out in DESIGN.md: ring vs
//! tree all-reduce, activation recomputation strategies, and the
//! pipeline micro-batch count. Each prints the ablated *model outputs*,
//! so the numeric effect of every choice is visible side by side.

use caraml_accel::{Link, LinkKind};
use caraml_models::gpt::cost::{GptCost, Recompute};
use caraml_models::GptConfig;
use caraml_parallel::comm::{AllReduceAlgo, CollectiveModel};
use caraml_parallel::PipelineSchedule;

fn ablation_allreduce() {
    let link = Link::new(LinkKind::InfiniBandNdr, 100.0, 3.0e-6);
    let ring = CollectiveModel::new(link);
    let tree = ring.with_algo(AllReduceAlgo::Tree);
    println!(
        "[ablation] all-reduce of 1.6 GB over 32 ranks: ring {:.3} s, tree {:.3} s",
        ring.allreduce_s(1_600_000_000, 32),
        tree.allreduce_s(1_600_000_000, 32)
    );
    println!(
        "[ablation] all-reduce of 4 KiB over 32 ranks: ring {:.1} us, tree {:.1} us",
        ring.allreduce_s(4096, 32) * 1e6,
        tree.allreduce_s(4096, 32) * 1e6
    );
}

fn ablation_recompute() {
    for r in [Recompute::None, Recompute::Selective, Recompute::Full] {
        let cost = GptCost::new(GptConfig::gpt_800m()).with_recompute(r);
        println!(
            "[ablation] recompute {:?}: {:.2} GFLOP/token, {:.2} GiB activations (micro-batch 4)",
            r,
            cost.train_flops_per_token() / 1e9,
            cost.activation_bytes_per_device(4, 1, 1) as f64 / (1u64 << 30) as f64
        );
    }
}

fn ablation_pipeline() {
    let sched = PipelineSchedule::new(4, 0.2186);
    for m in [1u64, 4, 16, 64, 256] {
        println!(
            "[ablation] pipeline p=4, m={m}: bubble {:.1} %, efficiency {:.3}",
            100.0 * sched.bubble_fraction(m),
            sched.efficiency(m)
        );
    }
}

fn main() {
    ablation_allreduce();
    ablation_recompute();
    ablation_pipeline();
}
