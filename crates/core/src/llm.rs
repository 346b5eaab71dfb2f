//! The LLM training benchmark (paper §III-A1, results §IV-A).
//!
//! A GPT decoder is trained "from scratch using a subset of the OSCAR
//! data". Throughput is `global_batch_size × sequence_length /
//! elapsed_time_per_iteration` on GPUs; on the Graphcore IPU the global
//! batch is given in tokens and divided by the iteration time directly.
//!
//! The GPU path plans per-window phases — compute (roofline-timed), host
//! staging stalls, gradient all-reduce — and measures device energy with
//! jpwr's sampling loop over the step functions the engine folds them
//! into. The IPU path follows the calibrated
//! [`caraml_accel::ipu::IpuGptModel`] protocol that reproduces Table II.

use crate::engine::{self, Executed, MeterSpec, PhasePlan, PhaseSpec};
use crate::fom::LlmFom;
use caraml_accel::affinity::{BindingPolicy, NumaTopology};
use caraml_accel::ipu::{IpuGptModel, POD4_IPUS};
use caraml_accel::spec::Workload;
use caraml_accel::{AccelError, NodeConfig, PhaseKind, RooflineModel, SystemId, Timeline};
use caraml_models::gpt::cost::GptCost;
use caraml_models::GptConfig;
use caraml_parallel::comm::CollectiveModel;

/// Relative device utilization assumed while a device waits on host data
/// staging.
const STALL_UTILIZATION: f64 = 0.15;
/// Relative device utilization during the gradient all-reduce.
const COMM_UTILIZATION: f64 = 0.35;
/// Throughput penalty when both GCDs of an MI250 package are active
/// (shared 560 W OAM power envelope): the mechanism behind the paper's
/// "using 4 GCDs (2 GPUs) performs slightly better per device than using
/// 8 GCDs (4 GPUs)".
const MI250_DUAL_GCD_PENALTY: f64 = 0.95;

/// Configuration of one LLM benchmark execution.
///
/// ```
/// use caraml::llm::LlmBenchmark;
/// use caraml_accel::SystemId;
///
/// let mut bench = LlmBenchmark::fig2(SystemId::A100);
/// bench.duration_s = 60.0; // one simulated minute
/// let run = bench.run(512).unwrap();
/// assert!(run.fom.tokens_per_s_per_device > 10_000.0);
/// assert!(run.fom.tokens_per_wh > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LlmBenchmark {
    pub system: SystemId,
    pub model: GptConfig,
    /// Devices to use (defaults to the full node, as in the paper).
    pub devices: u32,
    /// Micro-batch size in samples (the paper uses 4).
    pub micro_batch: u32,
    /// Virtual measurement window in seconds (the paper reports energy
    /// for one hour of training).
    pub duration_s: f64,
    /// jpwr sampling interval on the virtual timeline, seconds.
    pub sample_interval_s: f64,
    /// CPU binding policy (§V-C); GPU-centric binding is the paper's
    /// tuned default, other policies exist for ablation studies.
    pub binding: BindingPolicy,
}

impl LlmBenchmark {
    /// The paper's Fig. 2 setup on a given system: 800M GPT, full node,
    /// micro-batch 4, one hour.
    pub fn fig2(system: SystemId) -> Self {
        let node = NodeConfig::shared(system);
        LlmBenchmark {
            system,
            model: GptConfig::gpt_800m(),
            devices: node.devices_per_node,
            micro_batch: 4,
            duration_s: 3600.0,
            sample_interval_s: 1.0,
            binding: BindingPolicy::GpuCentric,
        }
    }

    /// The MI250:GCD variant: 4 GCDs (one per OAM package), dp=4.
    pub fn fig2_mi250_gcd() -> Self {
        let mut b = Self::fig2(SystemId::Mi250);
        b.devices = 4;
        b
    }

    /// Label combining platform and device-count variant.
    pub fn label(&self) -> String {
        let node = NodeConfig::shared(self.system);
        if self.system == SystemId::Mi250 {
            if self.devices <= 4 {
                "AMD MI250:GCD".to_string()
            } else {
                "AMD MI250:GPU".to_string()
            }
        } else {
            node.platform.clone()
        }
    }

    /// Run one measurement point at a global batch size (in samples).
    pub fn run(&self, global_batch: u64) -> Result<LlmRun, AccelError> {
        engine::execute(&LlmWorkload {
            bench: self,
            global_batch,
        })
        .into_result()
    }

    /// Run the IPU path: a 117M GPT pipelined over the 4 IPUs of the
    /// POD4, `global_batch` given **in tokens**, trained for one epoch
    /// (Table II protocol).
    pub fn run_ipu(global_batch_tokens: u64, sample_interval_s: f64) -> Result<LlmRun, AccelError> {
        engine::execute(&IpuGptWorkload {
            global_batch_tokens,
            sample_interval_s,
        })
        .into_result()
    }
}

/// One Fig. 2 grid point of [`LlmBenchmark`] as an engine workload.
pub struct LlmWorkload<'a> {
    pub bench: &'a LlmBenchmark,
    pub global_batch: u64,
}

/// Cost-model state carried from planning to FOM extraction.
pub struct LlmPlanState {
    devices: u32,
    active: usize,
    tokens_per_iter: u64,
    t_compute: f64,
    t_stall: f64,
    t_comm: f64,
    t_iter: f64,
    total_s: f64,
}

impl engine::Workload for LlmWorkload<'_> {
    type Plan = LlmPlanState;
    type Output = LlmRun;

    fn system(&self) -> SystemId {
        self.bench.system
    }

    fn plan(&self, node_cfg: &NodeConfig) -> Result<(LlmPlanState, PhasePlan), AccelError> {
        let bench = self.bench;
        let global_batch = self.global_batch;
        if bench.system == SystemId::Gc200 {
            return Err(AccelError::InvalidConfig(
                "use run_ipu for the Graphcore system (batch in tokens)".into(),
            ));
        }
        let devices = bench.devices.min(node_cfg.devices_per_node);
        let dp = devices;
        // "global batch size of 16 is not possible since it is not
        // divisible by micro-batch-size times data parallel" (§IV-A).
        if !global_batch.is_multiple_of(u64::from(dp) * u64::from(bench.micro_batch)) {
            return Err(AccelError::InvalidConfig(format!(
                "global batch {global_batch} not divisible by dp {dp} × micro {}",
                bench.micro_batch
            )));
        }

        let cost = GptCost::new(bench.model.clone());

        // Memory check (the 800M model fits everywhere in the paper; the
        // 13B/175B configs would fail here without model parallelism).
        let mem_needed = cost.memory_bytes_per_device(bench.micro_batch, 1, 1, dp, true);
        let spec = &node_cfg.device;
        if mem_needed > spec.mem_bytes {
            return Err(AccelError::OutOfMemory {
                device: spec.name.clone(),
                requested: mem_needed,
                available: spec.mem_bytes,
                capacity: spec.mem_bytes,
            });
        }

        // --- per-iteration timing ---
        let seq = bench.model.seq_len as u64;
        let tokens_per_iter = global_batch * seq;
        let tokens_per_device = tokens_per_iter / u64::from(dp);
        let per_device_batch = global_batch as f64 / f64::from(dp);
        let micro_steps = global_batch / u64::from(dp) / u64::from(bench.micro_batch);

        let roofline = RooflineModel::for_device(spec, Workload::Llm);
        let calib = spec.llm;
        let profile = cost.iteration_profile(tokens_per_device);
        let est = roofline.estimate(&profile, per_device_batch);
        // Mis-bound tasks slow the host-side launch path (§V-C).
        let affinity = NumaTopology::for_system(bench.system).efficiency(bench.binding);
        let mut t_compute =
            est.compute_s.max(est.memory_s) + micro_steps as f64 * calib.overhead_s / affinity;
        if bench.system == SystemId::Mi250 && devices > 4 {
            t_compute /= MI250_DUAL_GCD_PENALTY;
        }

        // Host staging overlaps with compute; it binds when slower. The
        // CPU binding policy scales the effective staging rate (§V-C).
        let t_staging = tokens_per_device as f64 / (node_cfg.staging_tokens_per_s * affinity);
        let t_busy = t_compute.max(t_staging);
        let t_stall = t_busy - t_compute;

        // Gradient all-reduce (distributed optimizer: reduce-scatter +
        // all-gather ≡ ring all-reduce cost). A tight CPU mask starves
        // NCCL's helper thread, slowing the collective.
        let t_comm = match (dp > 1).then_some(node_cfg.accel_accel).flatten() {
            Some(link) => {
                CollectiveModel::new(link).allreduce_s(cost.gradient_bytes(1, 1), dp) / affinity
            }
            None => 0.0,
        };
        let t_iter = t_busy + t_comm;

        // Phases are aggregated per kind (one long compute phase, one
        // stall phase, one comm phase), so the meter samples the full run
        // and `finish` scales the energy to the requested window: the
        // time-mix is identical.
        let iters = (bench.duration_s / t_iter).ceil().max(1.0);
        let sustained = calib.sustained_w;
        let u_compute = (est.mfu / calib.mfu_max).clamp(0.0, 1.0);
        let active = devices as usize;
        let total_s = iters * t_iter;

        let phase_plan = PhasePlan {
            phases: vec![
                PhaseSpec {
                    kind: PhaseKind::Compute,
                    label: "training compute",
                    active,
                    duration_s: iters * t_compute,
                    utilization: u_compute,
                    sustained_w: sustained,
                },
                PhaseSpec {
                    kind: PhaseKind::Staging,
                    label: "host data staging stall",
                    active,
                    duration_s: iters * t_stall,
                    utilization: STALL_UTILIZATION,
                    sustained_w: sustained,
                },
                PhaseSpec {
                    kind: PhaseKind::Communication,
                    label: "gradient all-reduce",
                    active,
                    duration_s: iters * t_comm,
                    utilization: COMM_UTILIZATION,
                    sustained_w: sustained,
                },
            ],
            meter: MeterSpec {
                devices: active,
                prefix: "dev",
                method: "pynvml",
                interval_s: bench.sample_interval_s,
                window: (0.0, total_s),
            },
            timeline_devices: devices,
        };
        Ok((
            LlmPlanState {
                devices,
                active,
                tokens_per_iter,
                t_compute,
                t_stall,
                t_comm,
                t_iter,
                total_s,
            },
            phase_plan,
        ))
    }

    fn finish(&self, plan: LlmPlanState, exec: Executed, _cfg: &NodeConfig) -> LlmRun {
        let bench = self.bench;
        let m = exec.measurement;
        let energy_wh_per_device = m.df.energy_all_wh().iter().sum::<f64>() / plan.active as f64
            * (bench.duration_s / plan.total_s);
        let mean_power_w = energy_wh_per_device * 3600.0 / bench.duration_s;

        let tokens_per_s_per_device =
            plan.tokens_per_iter as f64 / plan.t_iter / f64::from(plan.devices);
        let tokens_per_wh = tokens_per_s_per_device * bench.duration_s / energy_wh_per_device;

        LlmRun {
            fom: LlmFom {
                system: bench.label(),
                global_batch: self.global_batch,
                devices: plan.devices,
                tokens_per_s_per_device,
                energy_wh_per_device,
                tokens_per_wh,
                mean_power_w,
            },
            t_iter_s: plan.t_iter,
            t_compute_s: plan.t_compute,
            t_stall_s: plan.t_stall,
            t_comm_s: plan.t_comm,
            measurement: m,
            timeline: exec.timeline,
        }
    }
}

/// The Table II IPU protocol as an engine workload.
pub struct IpuGptWorkload {
    pub global_batch_tokens: u64,
    pub sample_interval_s: f64,
}

/// Plan state of the IPU path.
pub struct IpuGptPlanState {
    active: usize,
    tokens_per_s: f64,
    stream_s: f64,
    iter_s: f64,
    total_s: f64,
}

impl engine::Workload for IpuGptWorkload {
    type Plan = IpuGptPlanState;
    type Output = LlmRun;

    fn system(&self) -> SystemId {
        SystemId::Gc200
    }

    fn plan(&self, cfg: &NodeConfig) -> Result<(IpuGptPlanState, PhasePlan), AccelError> {
        let model = IpuGptModel::default();
        let active = POD4_IPUS as usize;
        let spec = &cfg.device;

        // Phase 1: setup (graph load, host I/O) at the setup power level.
        // Phase 2: host→IPU streaming from chip-external DRAM.
        // Phase 3: the pipelined training iteration.
        let setup_u = power_to_utilization(model.setup_w, spec);
        let stream_s = model.stream_s(self.global_batch_tokens);
        let stream_u = power_to_utilization(model.stream_w, spec);
        let iter_s = model.iter_compute_s(self.global_batch_tokens);
        let exec_u = power_to_utilization(model.exec_w, spec);
        let total_s = model.setup_s + stream_s + iter_s;

        let phase_plan = PhasePlan {
            phases: vec![
                PhaseSpec {
                    kind: PhaseKind::Setup,
                    label: "graph load + host I/O",
                    active,
                    duration_s: model.setup_s,
                    utilization: setup_u,
                    sustained_w: spec.llm.sustained_w.max(model.setup_w),
                },
                PhaseSpec {
                    kind: PhaseKind::Staging,
                    label: "DRAM streaming",
                    active,
                    duration_s: stream_s,
                    utilization: stream_u,
                    sustained_w: spec.llm.sustained_w.max(model.stream_w),
                },
                PhaseSpec {
                    kind: PhaseKind::Compute,
                    label: "pipelined iteration",
                    active,
                    duration_s: iter_s,
                    utilization: exec_u,
                    sustained_w: spec.llm.sustained_w.max(model.exec_w),
                },
            ],
            meter: MeterSpec {
                devices: active,
                prefix: "ipu",
                method: "gcipuinfo",
                interval_s: self.sample_interval_s,
                window: (0.0, total_s),
            },
            timeline_devices: POD4_IPUS,
        };
        Ok((
            IpuGptPlanState {
                active,
                tokens_per_s: model.tokens_per_s(self.global_batch_tokens),
                stream_s,
                iter_s,
                total_s,
            },
            phase_plan,
        ))
    }

    fn finish(&self, plan: IpuGptPlanState, exec: Executed, _cfg: &NodeConfig) -> LlmRun {
        let m = exec.measurement;
        let energy_wh_per_device = m.df.energy_all_wh().iter().sum::<f64>() / plan.active as f64;
        LlmRun {
            fom: LlmFom {
                system: "Graphcore GC200 (POD4)".into(),
                global_batch: self.global_batch_tokens,
                devices: POD4_IPUS,
                tokens_per_s_per_device: plan.tokens_per_s,
                energy_wh_per_device,
                // Table II: Tokens/Energy = batch tokens / Wh per IPU.
                tokens_per_wh: self.global_batch_tokens as f64 / energy_wh_per_device,
                mean_power_w: energy_wh_per_device * 3600.0 / plan.total_s,
            },
            t_iter_s: plan.iter_s,
            t_compute_s: plan.iter_s,
            t_stall_s: plan.stream_s,
            t_comm_s: 0.0,
            measurement: m,
            timeline: exec.timeline,
        }
    }
}

/// Invert the device power curve to find the utilization that produces a
/// target power level (used to drive the IPU phases at their calibrated
/// wattages).
fn power_to_utilization(target_w: f64, spec: &caraml_accel::DeviceSpec) -> f64 {
    let sustained = spec.llm.sustained_w.max(target_w);
    if sustained <= spec.idle_w {
        return 1.0;
    }
    let frac = ((target_w - spec.idle_w) / (sustained - spec.idle_w)).clamp(0.0, 1.0);
    frac.powf(1.0 / spec.power_alpha)
}

/// A completed LLM measurement point.
#[derive(Debug, Clone)]
pub struct LlmRun {
    pub fom: LlmFom,
    pub t_iter_s: f64,
    pub t_compute_s: f64,
    pub t_stall_s: f64,
    pub t_comm_s: f64,
    /// The raw jpwr measurement (power DataFrame).
    pub measurement: jpwr::Measurement,
    /// Aggregated execution timeline (Chrome-trace exportable).
    pub timeline: Timeline,
}

/// The Fig. 2 batch-size sweep.
pub const FIG2_BATCHES: [u64; 9] = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// The Table II batch-size sweep (tokens).
pub const TABLE2_BATCHES: [u64; 9] = [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(system: SystemId) -> LlmBenchmark {
        let mut b = LlmBenchmark::fig2(system);
        b.duration_s = 600.0; // shorter window for tests
        b.sample_interval_s = 0.5;
        b
    }

    #[test]
    fn throughput_increases_with_batch() {
        let b = quick(SystemId::A100);
        let t16 = b.run(16).unwrap().fom.tokens_per_s_per_device;
        let t512 = b.run(512).unwrap().fom.tokens_per_s_per_device;
        let t4096 = b.run(4096).unwrap().fom.tokens_per_s_per_device;
        assert!(t16 < t512 && t512 < t4096, "{t16} {t512} {t4096}");
    }

    #[test]
    fn gh200_saturated_matches_paper_headline() {
        // "GH200 nodes yielding a throughput of up to 47505 Tokens/s/GPU".
        let b = quick(SystemId::Gh200Jrdc);
        let t = b.run(4096).unwrap().fom.tokens_per_s_per_device;
        let rel = (t - 47505.0).abs() / 47505.0;
        assert!(rel < 0.05, "GH200 JRDC {t:.0} tokens/s/GPU (rel {rel:.3})");
    }

    #[test]
    fn gh200_is_about_2_45x_a100() {
        let gh = quick(SystemId::Gh200Jrdc).run(4096).unwrap().fom;
        let a100 = quick(SystemId::A100).run(4096).unwrap().fom;
        let ratio = gh.tokens_per_s_per_device / a100.tokens_per_s_per_device;
        assert!(
            (ratio - 2.45).abs() < 0.25,
            "GH200/A100 ratio {ratio:.2} (paper: 2.45)"
        );
    }

    #[test]
    fn westai_h100_about_1_3x_jrdc_h100() {
        let wai = quick(SystemId::WaiH100).run(4096).unwrap().fom;
        let jrdc = quick(SystemId::H100Jrdc).run(4096).unwrap().fom;
        let ratio = wai.tokens_per_s_per_device / jrdc.tokens_per_s_per_device;
        assert!(
            (ratio - 1.3).abs() < 0.15,
            "WestAI/JRDC H100 ratio {ratio:.2} (paper: 1.3)"
        );
    }

    #[test]
    fn gh200_jrdc_beats_jedi_per_device_by_about_20pct() {
        let jrdc = quick(SystemId::Gh200Jrdc).run(4096).unwrap().fom;
        let jedi = quick(SystemId::Jedi).run(4096).unwrap().fom;
        let ratio = jrdc.tokens_per_s_per_device / jedi.tokens_per_s_per_device;
        assert!(
            ratio > 1.1 && ratio < 1.35,
            "JRDC/JEDI ratio {ratio:.2} (paper: ~1.2)"
        );
        // And JEDI's energy per device is lower, so tokens/Wh is similar
        // — "even slightly better for the less performant JEDI case".
        assert!(jedi.energy_wh_per_device < jrdc.energy_wh_per_device);
        assert!(jedi.tokens_per_wh > 0.95 * jrdc.tokens_per_wh);
    }

    #[test]
    fn h100_pcie_has_best_energy_efficiency() {
        // "the H100-PCIe (JRDC) outperforms all other devices by up to
        // 25%, even against the newer technology of GH200 chips".
        let pcie = quick(SystemId::H100Jrdc).run(4096).unwrap().fom;
        for sys in [
            SystemId::A100,
            SystemId::WaiH100,
            SystemId::Gh200Jrdc,
            SystemId::Jedi,
        ] {
            let other = quick(sys).run(4096).unwrap().fom;
            assert!(
                pcie.tokens_per_wh > other.tokens_per_wh,
                "H100-PCIe {:.0} tokens/Wh must beat {} ({:.0})",
                pcie.tokens_per_wh,
                other.system,
                other.tokens_per_wh
            );
        }
        let gh = quick(SystemId::Gh200Jrdc).run(4096).unwrap().fom;
        let adv = pcie.tokens_per_wh / gh.tokens_per_wh;
        assert!(
            adv > 1.1 && adv < 1.4,
            "PCIe advantage {adv:.2} (paper: up to 1.25)"
        );
        // ...despite roughly half the throughput.
        assert!(gh.tokens_per_s_per_device > 1.8 * pcie.tokens_per_s_per_device);
    }

    #[test]
    fn mi250_gcd_mode_slightly_better_per_device() {
        let mut gpu_mode = quick(SystemId::Mi250);
        gpu_mode.devices = 8;
        let gcd = LlmBenchmark {
            duration_s: 600.0,
            sample_interval_s: 0.5,
            ..LlmBenchmark::fig2_mi250_gcd()
        };
        let g4 = gcd.run(4096).unwrap().fom;
        let g8 = gpu_mode.run(4096).unwrap().fom;
        assert_eq!(g4.system, "AMD MI250:GCD");
        assert_eq!(g8.system, "AMD MI250:GPU");
        assert!(
            g4.tokens_per_s_per_device > g8.tokens_per_s_per_device,
            "GCD mode {:.0} must beat GPU mode {:.0} per device",
            g4.tokens_per_s_per_device,
            g8.tokens_per_s_per_device
        );
        assert!(g4.tokens_per_wh > g8.tokens_per_wh);
    }

    #[test]
    fn batch_16_invalid_for_dp8() {
        let mut b = quick(SystemId::Mi250);
        b.devices = 8;
        assert!(matches!(b.run(16), Err(AccelError::InvalidConfig(_))));
        assert!(b.run(32).is_ok());
    }

    #[test]
    fn oversized_training_state_is_oom_against_device_capacity() {
        // The plan's capacity check is the only memory check: 175B
        // training state without model parallelism cannot fit an A100.
        let mut b = quick(SystemId::A100);
        b.model = GptConfig::gpt_175b();
        let capacity = NodeConfig::for_system(SystemId::A100).device.mem_bytes;
        match b.run(256) {
            Err(AccelError::OutOfMemory {
                requested,
                available,
                capacity: cap,
                ..
            }) => {
                assert!(requested > capacity);
                assert_eq!((available, cap), (capacity, capacity));
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn energy_reflects_one_hour_of_mean_power() {
        let mut b = quick(SystemId::A100);
        b.duration_s = 3600.0;
        let run = b.run(1024).unwrap();
        // Energy (Wh over 1 h) numerically equals mean power (W).
        assert!((run.fom.energy_wh_per_device - run.fom.mean_power_w).abs() < 1.0);
        assert!(run.fom.mean_power_w > 100.0);
        assert!(run.fom.mean_power_w <= 400.0);
    }

    #[test]
    fn ipu_table2_reproduced() {
        // Paper Table II (batch 64 energy is a known outlier, see
        // EXPERIMENTS.md; all other rows must match within 3 %).
        let expect = [
            (64u64, 64.99, None),
            (128, 97.21, Some(18.20)),
            (256, 129.96, Some(18.37)),
            (512, 155.72, Some(18.56)),
            (1024, 172.94, Some(19.07)),
            (2048, 183.37, Some(20.05)),
            (4096, 188.88, Some(21.88)),
            (8192, 191.86, Some(25.47)),
            (16384, 193.41, Some(33.00)),
        ];
        for (batch, tok_s, wh) in expect {
            let run = LlmBenchmark::run_ipu(batch, 1.0).unwrap();
            let rel = (run.fom.tokens_per_s_per_device - tok_s).abs() / tok_s;
            assert!(rel < 0.01, "batch {batch}: tokens/s rel {rel:.4}");
            if let Some(wh) = wh {
                let rel = (run.fom.energy_wh_per_device - wh).abs() / wh;
                assert!(
                    rel < 0.03,
                    "batch {batch}: {:.2} Wh vs paper {wh} (rel {rel:.4})",
                    run.fom.energy_wh_per_device
                );
                // Tokens/Energy column is batch / energy by definition.
                let te = batch as f64 / run.fom.energy_wh_per_device;
                assert!((run.fom.tokens_per_wh - te).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn ipu_rejected_from_gpu_path() {
        let b = quick(SystemId::Gc200);
        assert!(b.run(64).is_err());
    }

    #[test]
    fn run_reports_phase_breakdown() {
        let b = quick(SystemId::Jedi);
        let run = b.run(4096).unwrap();
        // JEDI is staging-bound at large batch: stall phase present.
        assert!(run.t_stall_s > 0.0, "JEDI should stall on host staging");
        assert!(run.t_comm_s > 0.0, "dp=4 must all-reduce");
        assert!((run.t_iter_s - (run.t_compute_s + run.t_stall_s + run.t_comm_s)).abs() < 1e-9);
    }

    #[test]
    fn measurement_covers_at_least_the_window() {
        let mut b = quick(SystemId::A100);
        b.duration_s = 120.0;
        let run = b.run(256).unwrap();
        // The sampled run covers an integer number of iterations, which
        // is never shorter than the requested window.
        assert!(*run.measurement.df.time_s.last().unwrap() >= 120.0 - 1e-9);
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;

    #[test]
    fn gpu_timeline_matches_phase_breakdown() {
        let mut b = LlmBenchmark::fig2(SystemId::Jedi);
        b.duration_s = 300.0;
        let run = b.run(2048).unwrap();
        let tl = &run.timeline;
        // Per-device fractions mirror the iteration decomposition.
        let frac_compute = tl.fraction(0, PhaseKind::Compute);
        let expect = run.t_compute_s / run.t_iter_s;
        assert!((frac_compute - expect).abs() < 1e-9);
        // JEDI stalls on staging: a staging phase must be present.
        assert!(tl.total_s(PhaseKind::Staging) > 0.0);
        // Chrome trace export is valid JSON with one row per device.
        let json = tl.to_chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v.as_array().unwrap().len() >= 8); // 4 devices × ≥2 phases
    }

    #[test]
    fn ipu_timeline_has_setup_staging_compute() {
        let run = LlmBenchmark::run_ipu(1024, 1.0).unwrap();
        let tl = &run.timeline;
        assert!(tl.total_s(PhaseKind::Setup) > 300.0);
        assert!(tl.total_s(PhaseKind::Staging) > 0.0);
        assert!(tl.total_s(PhaseKind::Compute) > 0.0);
        assert!(tl.summary().contains("setup"));
    }
}
