//! Large-model LLM training: the 13B and 175B configurations.
//!
//! "Further JUBE configurations for models containing 13B and 175B
//! parameters are provided in the suite. They can be executed when
//! necessary resources are available, and were tested on NVIDIA GH200
//! devices." (§III-A1) — and "for the larger model configurations with
//! 13B and 175B parameters, tensor, pipeline, and sequence parallelism
//! are also enabled."
//!
//! This module extends [`crate::llm`] with the 3D-parallel execution
//! model: the layout is planned with [`ParallelLayout::plan`] (pure DP if
//! it fits, then tensor parallelism within the node, then pipeline
//! stages), iteration time combines the roofline compute estimate with
//! the Megatron pipeline-bubble model, per-layer tensor-parallel
//! all-reduces over the intra-node fabric, and the data-parallel gradient
//! all-reduce over the inter-node InfiniBand.

use crate::engine::{self, Executed, MeterSpec, PhasePlan, PhaseSpec};
use crate::fom::LlmFom;
use caraml_accel::spec::Workload;
use caraml_accel::{AccelError, NodeConfig, PhaseKind, RooflineModel, SystemId};
use caraml_models::gpt::cost::GptCost;
use caraml_models::GptConfig;
use caraml_parallel::comm::CollectiveModel;
use caraml_parallel::{ParallelLayout, PipelineSchedule};

/// A large-model benchmark over one or more nodes.
#[derive(Debug, Clone)]
pub struct LargeModelBenchmark {
    pub system: SystemId,
    pub model: GptConfig,
    /// Nodes allocated (devices = nodes × devices_per_node).
    pub nodes: u32,
    pub micro_batch: u32,
    /// Virtual measurement window, seconds.
    pub duration_s: f64,
}

/// The outcome: figures of merit plus the planned layout and the phase
/// breakdown.
#[derive(Debug, Clone)]
pub struct LargeModelRun {
    pub fom: LlmFom,
    pub layout: ParallelLayout,
    pub t_iter_s: f64,
    pub t_compute_s: f64,
    pub t_tp_comm_s: f64,
    pub t_dp_comm_s: f64,
    pub bubble_fraction: f64,
}

impl LargeModelBenchmark {
    /// The paper's tested setup: 13B (or 175B) on GH200-class nodes.
    pub fn new(system: SystemId, model: GptConfig, nodes: u32) -> Self {
        LargeModelBenchmark {
            system,
            model,
            nodes,
            micro_batch: 4,
            duration_s: 3600.0,
        }
    }

    /// Plan the 3D layout for this allocation, following the paper's
    /// policy (DP first; then TP within the node; then PP).
    pub fn plan_layout(&self) -> Option<ParallelLayout> {
        let node = NodeConfig::shared(self.system);
        let devices = node.devices_per_node * self.nodes;
        let cost = GptCost::new(self.model.clone());
        let micro = self.micro_batch;
        ParallelLayout::plan(
            devices,
            node.device.mem_bytes,
            node.devices_per_node.max(1),
            micro,
            |tp, pp, dp| cost.memory_bytes_per_device(micro, tp, pp, dp, true),
        )
    }

    /// Run one measurement point at a global batch size (samples).
    pub fn run(&self, global_batch: u64) -> Result<LargeModelRun, AccelError> {
        engine::execute(&LargeModelWorkload {
            bench: self,
            global_batch,
        })
        .into_result()
    }
}

/// One multi-node scaling point of [`LargeModelBenchmark`] as an engine
/// workload.
pub struct LargeModelWorkload<'a> {
    pub bench: &'a LargeModelBenchmark,
    pub global_batch: u64,
}

/// Cost-model state carried from planning to FOM extraction.
pub struct LargeModelPlanState {
    layout: ParallelLayout,
    devices: u32,
    active: usize,
    tokens_per_iter: u64,
    t_iter: f64,
    t_compute: f64,
    t_tp_comm: f64,
    t_dp_comm: f64,
    bubble: f64,
    total_s: f64,
}

impl engine::Workload for LargeModelWorkload<'_> {
    type Plan = LargeModelPlanState;
    type Output = LargeModelRun;

    fn system(&self) -> SystemId {
        self.bench.system
    }

    fn plan(&self, node_cfg: &NodeConfig) -> Result<(LargeModelPlanState, PhasePlan), AccelError> {
        let bench = self.bench;
        let global_batch = self.global_batch;
        if bench.nodes == 0 || bench.nodes > node_cfg.max_nodes {
            return Err(AccelError::InvalidConfig(format!(
                "{} nodes outside 1..={} for {}",
                bench.nodes, node_cfg.max_nodes, node_cfg.platform
            )));
        }
        let devices = node_cfg.devices_per_node * bench.nodes;
        let layout = bench.plan_layout().ok_or_else(|| AccelError::OutOfMemory {
            device: node_cfg.device.name.clone(),
            requested: GptCost::new(bench.model.clone()).memory_bytes_per_device(
                bench.micro_batch,
                node_cfg.devices_per_node,
                1,
                1,
                true,
            ),
            available: node_cfg.device.mem_bytes,
            capacity: node_cfg.device.mem_bytes,
        })?;
        layout
            .validate(devices, global_batch)
            .map_err(AccelError::InvalidConfig)?;

        let cost = GptCost::new(bench.model.clone());
        let seq = bench.model.seq_len as u64;
        let tokens_per_iter = global_batch * seq;
        let tokens_per_device = tokens_per_iter / u64::from(devices);
        let per_device_batch = layout.per_device_batch(global_batch);
        let micro_batches = layout.num_micro_batches(global_batch);

        // --- compute time per iteration (per device) ---
        let roofline = RooflineModel::for_device(&node_cfg.device, Workload::Llm);
        let calib = node_cfg.device.llm;
        let profile = cost.iteration_profile(tokens_per_device);
        let est = roofline.estimate(&profile, per_device_batch);
        let t_compute_raw = est.compute_s.max(est.memory_s)
            + micro_batches as f64 * f64::from(layout.pp) * calib.overhead_s;

        // Pipeline bubble (Megatron 1F1B): stretch compute by the bubble.
        let t_micro = t_compute_raw / micro_batches.max(1) as f64;
        let sched = PipelineSchedule::new(layout.pp, t_micro);
        let t_compute = sched.step_time_s(micro_batches);
        let bubble = sched.bubble_fraction(micro_batches);

        // Tensor-parallel activation all-reduces: 2 per layer (attention
        // + MLP) in forward and again in backward, over the intra-node
        // fabric; sequence parallelism converts them to reduce-scatter +
        // all-gather of the same total volume.
        let t_tp_comm = if layout.tp > 1 {
            let link = node_cfg
                .accel_accel
                .ok_or_else(|| AccelError::InvalidConfig("tp needs an intra-node link".into()))?;
            let coll = CollectiveModel::new(link);
            let act_bytes = u64::from(bench.micro_batch) * seq * bench.model.hidden as u64 * 2;
            let per_micro = 4.0
                * (bench.model.layers as f64 / f64::from(layout.pp))
                * coll.allreduce_s(act_bytes, layout.tp);
            per_micro * micro_batches as f64
        } else {
            0.0
        };

        // Data-parallel gradient all-reduce over the bottleneck link.
        let t_dp_comm = if layout.dp > 1 {
            let topo = caraml_accel::interconnect::Topology {
                intra: node_cfg.accel_accel,
                inter: node_cfg.internode,
                node_width: node_cfg.devices_per_node,
            };
            let link = topo
                .bottleneck_for(layout.dp * layout.tp * layout.pp)
                .ok_or_else(|| AccelError::InvalidConfig("dp needs a link".into()))?;
            CollectiveModel::new(link)
                .allreduce_s(cost.gradient_bytes(layout.tp, layout.pp), layout.dp)
        } else {
            0.0
        };

        let t_iter = t_compute + t_tp_comm + t_dp_comm;

        // --- power phases on one representative node ---
        let iters = (bench.duration_s / t_iter).ceil().max(1.0);
        let u_compute = (est.mfu / calib.mfu_max).clamp(0.0, 1.0) * (1.0 - bubble).max(0.1);
        let active = node_cfg.devices_per_node as usize;
        let total_s = iters * t_iter;

        let phase_plan = PhasePlan {
            phases: vec![
                PhaseSpec {
                    kind: PhaseKind::Compute,
                    label: "pipelined training compute",
                    active,
                    duration_s: iters * t_compute,
                    utilization: u_compute,
                    sustained_w: calib.sustained_w,
                },
                PhaseSpec {
                    kind: PhaseKind::Communication,
                    label: "tp + dp collectives",
                    active,
                    duration_s: iters * (t_tp_comm + t_dp_comm),
                    utilization: 0.35,
                    sustained_w: calib.sustained_w,
                },
            ],
            meter: MeterSpec {
                devices: active,
                prefix: "dev",
                method: "pynvml",
                interval_s: (total_s / 600.0).max(0.5),
                window: (0.0, total_s),
            },
            // `LargeModelRun` carries no timeline; skip the trace work.
            timeline_devices: 0,
        };
        Ok((
            LargeModelPlanState {
                layout,
                devices,
                active,
                tokens_per_iter,
                t_iter,
                t_compute,
                t_tp_comm,
                t_dp_comm,
                bubble,
                total_s,
            },
            phase_plan,
        ))
    }

    fn finish(&self, plan: LargeModelPlanState, exec: Executed, cfg: &NodeConfig) -> LargeModelRun {
        let bench = self.bench;
        let m = exec.measurement;
        let energy_wh_per_device = m.df.energy_all_wh().iter().sum::<f64>() / plan.active as f64
            * (bench.duration_s / plan.total_s);

        let tokens_per_s_per_device =
            plan.tokens_per_iter as f64 / plan.t_iter / f64::from(plan.devices);
        LargeModelRun {
            fom: LlmFom {
                system: format!("{} x{} ({})", cfg.platform, bench.nodes, plan.layout),
                global_batch: self.global_batch,
                devices: plan.devices,
                tokens_per_s_per_device,
                energy_wh_per_device,
                tokens_per_wh: tokens_per_s_per_device * bench.duration_s / energy_wh_per_device,
                mean_power_w: energy_wh_per_device * 3600.0 / bench.duration_s,
            },
            layout: plan.layout,
            t_iter_s: plan.t_iter,
            t_compute_s: plan.t_compute,
            t_tp_comm_s: plan.t_tp_comm,
            t_dp_comm_s: plan.t_dp_comm,
            bubble_fraction: plan.bubble,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt_13b_runs_on_one_gh200_jedi_node() {
        // The paper tested 13B on GH200 devices.
        let bench = LargeModelBenchmark::new(SystemId::Jedi, GptConfig::gpt_13b(), 1);
        let layout = bench.plan_layout().expect("13B must fit a GH200 node");
        // 96 GB per device cannot hold a full 13B fp16+Adam replica:
        // model parallelism must be on.
        assert!(layout.tp > 1 || layout.pp > 1, "layout {layout}");
        assert!(layout.sequence_parallel || layout.tp == 1);
        let run = bench.run(64).unwrap();
        assert!(run.fom.tokens_per_s_per_device > 100.0);
        assert!(run.fom.tokens_per_s_per_device < 47_505.0);
    }

    #[test]
    fn gpt_175b_needs_many_nodes() {
        // One node is not enough…
        let one = LargeModelBenchmark::new(SystemId::Jedi, GptConfig::gpt_175b(), 1);
        assert!(one.plan_layout().is_none());
        // …16 JEDI nodes (64 GH200s) work.
        let many = LargeModelBenchmark::new(SystemId::Jedi, GptConfig::gpt_175b(), 16);
        let layout = many.plan_layout().expect("175B fits 64 GH200s");
        assert!(layout.pp > 1, "175B should pipeline: {layout}");
        let run = many.run(256).unwrap();
        assert!(run.fom.tokens_per_s_per_device > 0.0);
        assert!(run.bubble_fraction > 0.0);
    }

    #[test]
    fn small_batch_pays_pipeline_bubble() {
        let bench = LargeModelBenchmark::new(SystemId::Jedi, GptConfig::gpt_175b(), 16);
        let small = bench.run(64).unwrap();
        let large = bench.run(2048).unwrap();
        assert!(small.bubble_fraction > large.bubble_fraction);
        assert!(
            large.fom.tokens_per_s_per_device > small.fom.tokens_per_s_per_device,
            "more micro-batches must amortize the bubble"
        );
    }

    #[test]
    fn mfu_of_13b_below_800m_due_to_comm_and_bubble() {
        // Compare on A100 (not staging-bound for 800M): the 13B run must
        // lose more than the pure FLOP ratio because of the pipeline
        // bubble and the tensor-parallel collectives.
        let mut small = crate::llm::LlmBenchmark::fig2(SystemId::A100);
        small.duration_s = 600.0;
        let small_run = small.run(4096).unwrap();
        let big = LargeModelBenchmark::new(SystemId::A100, GptConfig::gpt_13b(), 2);
        let big_run = big.run(512).unwrap();
        // Per-token cost is ~16x, so tokens/s/device must be much lower
        // for 13B, beyond just the parameter ratio (bubble + tp comm).
        let cost_800m = GptCost::new(GptConfig::gpt_800m()).train_flops_per_token();
        let cost_13b = GptCost::new(GptConfig::gpt_13b()).train_flops_per_token();
        let ideal_ratio = cost_800m / cost_13b;
        let actual_ratio =
            big_run.fom.tokens_per_s_per_device / small_run.fom.tokens_per_s_per_device;
        assert!(
            actual_ratio < ideal_ratio,
            "13B must lose more than the FLOP ratio: {actual_ratio:.4} vs {ideal_ratio:.4}"
        );
    }

    #[test]
    fn invalid_node_counts_rejected() {
        let bench = LargeModelBenchmark::new(SystemId::Gh200Jrdc, GptConfig::gpt_13b(), 2);
        // The single-node GH200 platform has no interconnect: max 1 node.
        assert!(matches!(bench.run(64), Err(AccelError::InvalidConfig(_))));
    }

    #[test]
    fn batch_must_match_layout_divisibility() {
        let bench = LargeModelBenchmark::new(SystemId::Jedi, GptConfig::gpt_13b(), 1);
        let layout = bench.plan_layout().unwrap();
        if layout.dp > 1 {
            assert!(bench.run(layout.dp as u64 + 1).is_err());
        }
        assert!(bench.run(64).is_ok());
    }

    #[test]
    fn phase_breakdown_sums_to_iteration() {
        let bench = LargeModelBenchmark::new(SystemId::Jedi, GptConfig::gpt_13b(), 2);
        let run = bench.run(128).unwrap();
        let sum = run.t_compute_s + run.t_tp_comm_s + run.t_dp_comm_s;
        assert!((run.t_iter_s - sum).abs() < 1e-9);
        // Two nodes: dp spans nodes → dp comm over InfiniBand present.
        assert!(run.t_dp_comm_s > 0.0 || run.layout.dp == 1);
    }
}
