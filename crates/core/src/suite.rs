//! JUBE benchmark definitions — the Rust equivalents of the paper's
//! `llm_training/llm_benchmark_nvidia_amd.yaml`,
//! `llm_training/llm_benchmark_ipu.yaml` and
//! `resnet50/resnet50_benchmark.xml`.
//!
//! Each definition is a [`jube::Benchmark`]: tagged parameter sets select
//! the system (`--tag A100`, `--tag MI250`, …) and model size, a batch
//! sweep expands into workpackages, and the training step runs the
//! simulator-backed benchmark and emits the figures of merit that
//! `jube result` renders in tabular form.
//!
//! Every step executes through the [`crate::engine`]: `bench.run(batch)`
//! is `engine::execute(&workload).into_result()`, so the engine owns the
//! node, clock and power meter for each workpackage and failures surface
//! as structured [`crate::engine::RunOutcome`] values before being
//! stringified into the JUBE error column.

use crate::fleet::{FleetBenchmark, RoutePolicy};
use crate::llm::{LlmBenchmark, FIG2_BATCHES, TABLE2_BATCHES};
use crate::resnet::{ResnetBenchmark, FIG3_BATCHES};
use crate::serve::{ArrivalKind, ServeBenchmark, ServePoint};
use caraml_accel::{DeviceKind, DeviceRegistry, SystemId};
use jube::{Benchmark, JobRecord, JubeError, Parameter, ParameterSet, RunResult, SlurmSim, Step};
use std::collections::BTreeMap;

/// Tags accepted by the LLM and ResNet GPU benchmarks (Table I "JUBE
/// Tag" row, minus the IPU), read from the device registry so systems
/// added as data files (e.g. the EDGERV SoC) join the suites without a
/// code change.
pub fn gpu_system_tags() -> Vec<String> {
    DeviceRegistry::global()
        .entries()
        .iter()
        .filter(|e| e.node.device.kind != DeviceKind::Ipu)
        .map(|e| e.tag.clone())
        .collect()
}

/// Parameter set selecting a system by tag, defaulting to A100.
fn system_parameter_set() -> ParameterSet {
    let mut set = ParameterSet::new("system").with(Parameter::single("system", "A100"));
    for tag in gpu_system_tags() {
        set = set.with(Parameter::single("system", &tag).tagged(&tag));
    }
    set
}

/// The LLM training benchmark for NVIDIA and AMD systems
/// (`llm_benchmark_nvidia_amd.yaml`).
pub fn llm_benchmark_nvidia_amd() -> Benchmark {
    Benchmark::new("llm_benchmark_nvidia_amd")
        .with_parameter_set(system_parameter_set())
        .with_parameter_set(
            ParameterSet::new("model")
                .with(Parameter::single("model_size", "800M"))
                .with(Parameter::single("micro_batch", 4))
                .with(Parameter::single("duration_s", 600))
                .with(Parameter::sweep("global_batch", FIG2_BATCHES))
                // MI250:GCD variant uses 4 GCDs instead of all 8.
                .with(Parameter::single("gcd_mode", "0"))
                .with(Parameter::single("gcd_mode", "1").tagged("GCD")),
        )
        .with_step(Step::new("train", |ctx| {
            let system = SystemId::try_from_tag(ctx.param("system").map_err(stringify)?)
                .map_err(stringify)?;
            let mut bench = LlmBenchmark::fig2(system);
            bench.duration_s = ctx.parse::<f64>("duration_s").map_err(stringify)?;
            bench.micro_batch = ctx.parse::<u32>("micro_batch").map_err(stringify)?;
            if system == SystemId::Mi250 && ctx.param("gcd_mode").map_err(stringify)? == "1" {
                bench.devices = 4;
            }
            let batch = ctx.parse::<u64>("global_batch").map_err(stringify)?;
            let run = bench.run(batch).map_err(|e| e.to_string())?;
            Ok(fom_values(&[
                ("platform", run.fom.system.clone()),
                (
                    "tokens_per_s_per_gpu",
                    format!("{:.2}", run.fom.tokens_per_s_per_device),
                ),
                (
                    "energy_wh_per_gpu",
                    format!("{:.2}", run.fom.energy_wh_per_device),
                ),
                ("tokens_per_wh", format!("{:.1}", run.fom.tokens_per_wh)),
            ]))
        }))
}

/// The LLM training benchmark for Graphcore (`llm_benchmark_ipu.yaml`),
/// 117M GPT over an IPU-POD4, batch sizes in tokens.
pub fn llm_benchmark_ipu() -> Benchmark {
    Benchmark::new("llm_benchmark_ipu")
        .with_parameter_set(
            ParameterSet::new("model")
                .with(Parameter::single("model_size", "117M"))
                .with(Parameter::sweep("global_batch_tokens", TABLE2_BATCHES))
                // `--tag synthetic` switches from (synthetic) OSCAR
                // tokens to purely synthetic data; both paths are
                // synthetic here, the tag is kept for CLI fidelity.
                .with(Parameter::single("data", "oscar"))
                .with(Parameter::single("data", "synthetic").tagged("synthetic")),
        )
        .with_step(Step::new("train", |ctx| {
            let batch = ctx.parse::<u64>("global_batch_tokens").map_err(stringify)?;
            let run = LlmBenchmark::run_ipu(batch, 1.0).map_err(|e| e.to_string())?;
            Ok(fom_values(&[
                ("platform", run.fom.system.clone()),
                (
                    "tokens_per_s",
                    format!("{:.2}", run.fom.tokens_per_s_per_device),
                ),
                (
                    "energy_wh_per_ipu",
                    format!("{:.2}", run.fom.energy_wh_per_device),
                ),
                ("tokens_per_wh", format!("{:.2}", run.fom.tokens_per_wh)),
            ]))
        }))
}

/// The ResNet50 benchmark (`resnet50_benchmark.xml`), all systems.
pub fn resnet50_benchmark() -> Benchmark {
    let mut systems = system_parameter_set();
    systems = systems.with(Parameter::single("system", "GC200").tagged("GC200"));
    Benchmark::new("resnet50_benchmark")
        .with_parameter_set(systems)
        .with_parameter_set(
            ParameterSet::new("model")
                .with(Parameter::single("model", "resnet50"))
                .with(Parameter::sweep("global_batch", FIG3_BATCHES))
                .with(Parameter::single("gpu_mode", "0"))
                // MI250:GPU variant (one package, 2 GCDs).
                .with(Parameter::single("gpu_mode", "1").tagged("GPU")),
        )
        .with_step(Step::new("train", |ctx| {
            let system = SystemId::try_from_tag(ctx.param("system").map_err(stringify)?)
                .map_err(stringify)?;
            let batch = ctx.parse::<u64>("global_batch").map_err(stringify)?;
            let run = if system == SystemId::Gc200 {
                ResnetBenchmark::run_ipu(batch, 1.0).map_err(|e| e.to_string())?
            } else {
                let mut bench = ResnetBenchmark::fig3(system);
                if system == SystemId::Mi250 && ctx.param("gpu_mode").map_err(stringify)? == "1" {
                    bench.devices = 2;
                }
                bench.run(batch).map_err(|e| e.to_string())?
            };
            Ok(fom_values(&[
                ("platform", run.fom.system.clone()),
                ("images_per_s", format!("{:.2}", run.fom.images_per_s)),
                (
                    "energy_wh_per_epoch",
                    format!("{:.2}", run.fom.energy_wh_per_epoch),
                ),
                ("images_per_wh", format!("{:.1}", run.fom.images_per_wh)),
            ]))
        }))
}

/// The LLM serving benchmark: a load sweep (arrival rate × batch cap)
/// per system, with `--tag bursty` switching the arrival process from
/// Poisson to heavy-tailed bursts at the same mean rate.
pub fn llm_serving_benchmark() -> Benchmark {
    Benchmark::new("llm_serving_benchmark")
        .with_parameter_set(system_parameter_set())
        .with_parameter_set(
            ParameterSet::new("load")
                .with(Parameter::single("model_size", "800M"))
                .with(Parameter::single("seed", 42))
                .with(Parameter::sweep("rate_per_s", [4, 32, 128]))
                .with(Parameter::sweep("batch_cap", [4, 32]))
                .with(Parameter::single("arrival", "poisson"))
                .with(Parameter::single("arrival", "bursty").tagged("bursty")),
        )
        .with_step(Step::new("serve", |ctx| {
            let system = SystemId::try_from_tag(ctx.param("system").map_err(stringify)?)
                .map_err(stringify)?;
            let mut bench = ServeBenchmark::new(system);
            bench.config.seed = ctx.parse::<u64>("seed").map_err(stringify)?;
            if ctx.param("arrival").map_err(stringify)? == "bursty" {
                bench.config.arrival = ArrivalKind::Bursty {
                    burst_factor: 8.0,
                    mean_burst: 6.0,
                };
            }
            let point = ServePoint {
                rate_per_s: ctx.parse::<f64>("rate_per_s").map_err(stringify)?,
                batch_cap: ctx.parse::<u32>("batch_cap").map_err(stringify)?,
            };
            let fom = bench.run(point).map_err(|e| e.to_string())?;
            Ok(fom_values(&[
                ("platform", fom.system.clone()),
                ("served", fom.served.to_string()),
                ("shed", fom.shed.to_string()),
                ("ttft_p50_ms", format!("{:.3}", fom.ttft.p50 * 1000.0)),
                ("ttft_p99_ms", format!("{:.3}", fom.ttft.p99 * 1000.0)),
                ("tpot_p99_ms", format!("{:.3}", fom.tpot.p99 * 1000.0)),
                (
                    "goodput_tokens_per_s",
                    format!("{:.1}", fom.goodput_tokens_per_s),
                ),
                ("slo_attainment", format!("{:.4}", fom.slo_attainment)),
                (
                    "energy_wh_per_ktoken",
                    format!("{:.5}", fom.energy_wh_per_ktoken),
                ),
            ]))
        }))
}

/// The fleet serving benchmark: routing policies swept over a bursty
/// trace per system, with `--tag disagg` splitting the fleet into
/// prefill and decode pools and `--tag autoscale` enabling the
/// queue-depth autoscaler.
pub fn llm_fleet_benchmark() -> Benchmark {
    Benchmark::new("llm_fleet_benchmark")
        .with_parameter_set(system_parameter_set())
        .with_parameter_set(
            ParameterSet::new("fleet")
                .with(Parameter::single("seed", 42))
                .with(Parameter::single("replicas", 4))
                .with(Parameter::single("rate_per_s", 96))
                .with(Parameter::single("batch_cap", 16))
                .with(Parameter::sweep(
                    "policy",
                    RoutePolicy::ALL.map(|p| p.tag().to_string()),
                ))
                .with(Parameter::single("disagg", "0"))
                .with(Parameter::single("disagg", "1").tagged("disagg"))
                .with(Parameter::single("autoscale", "0"))
                .with(Parameter::single("autoscale", "1").tagged("autoscale")),
        )
        .with_step(Step::new("fleet", |ctx| {
            let system = SystemId::try_from_tag(ctx.param("system").map_err(stringify)?)
                .map_err(stringify)?;
            let policy = RoutePolicy::try_from_tag(ctx.param("policy").map_err(stringify)?)
                .map_err(stringify)?;
            let mut bench = FleetBenchmark::new(system)
                .with_policy(policy)
                .with_replicas(ctx.parse::<u32>("replicas").map_err(stringify)?)
                .disaggregated(ctx.param("disagg").map_err(stringify)? == "1");
            bench.config.serve.seed = ctx.parse::<u64>("seed").map_err(stringify)?;
            bench.config.serve.arrival = ArrivalKind::Bursty {
                burst_factor: 8.0,
                mean_burst: 6.0,
            };
            if ctx.param("autoscale").map_err(stringify)? == "1" {
                bench = bench.with_autoscale(crate::fleet::AutoscaleConfig::default());
            }
            let point = ServePoint {
                rate_per_s: ctx.parse::<f64>("rate_per_s").map_err(stringify)?,
                batch_cap: ctx.parse::<u32>("batch_cap").map_err(stringify)?,
            };
            let fom = bench.run(point).map_err(|e| e.to_string())?;
            Ok(fom_values(&[
                ("platform", fom.system.clone()),
                ("served", fom.served.to_string()),
                ("shed", fom.shed.to_string()),
                ("replicas_peak", fom.replicas_peak.to_string()),
                ("ttft_p99_ms", format!("{:.3}", fom.ttft.p99 * 1000.0)),
                ("tpot_p99_ms", format!("{:.3}", fom.tpot.p99 * 1000.0)),
                (
                    "goodput_tokens_per_s",
                    format!("{:.1}", fom.goodput_tokens_per_s),
                ),
                ("slo_attainment", format!("{:.4}", fom.slo_attainment)),
                (
                    "energy_wh_per_ktoken",
                    format!("{:.5}", fom.energy_wh_per_ktoken),
                ),
                (
                    "scale_events",
                    format!("+{}/-{}", fom.scale_up_events, fom.scale_down_events),
                ),
                ("kv_handoffs", fom.kv_handoffs.to_string()),
                ("prefix_reuse_frac", format!("{:.4}", fom.prefix_reuse_frac)),
            ]))
        }))
}

/// Run a suite's workpackages sharded across a fresh [`SlurmSim`]
/// partition of `partition_nodes` simulated hosts: `shards` contiguous
/// shards, each dispatched as one multi-node job sized to fill the
/// partition (`partition_nodes / shards` nodes, at least one). Results
/// come back in exact workpackage order — identical to
/// [`Benchmark::run`] — together with the scheduler's per-shard job
/// records for the queue/run accounting tables.
pub fn run_suite_sharded(
    bench: &Benchmark,
    tags: &[String],
    shards: usize,
    partition_nodes: u32,
) -> Result<(RunResult, Vec<JobRecord>), JubeError> {
    let partition_nodes = partition_nodes.max(1);
    let slurm = SlurmSim::new(partition_nodes);
    let nodes_per_shard = (partition_nodes / shards.max(1) as u32).max(1);
    let result = bench.run_sharded(&slurm, tags, shards, nodes_per_shard)?;
    Ok((result, slurm.wait_all()))
}

fn stringify(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn fom_values(pairs: &[(&str, String)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn gpu_tags_come_from_the_registry() {
        let tags = gpu_system_tags();
        // The six paper GPU systems plus the data-file EDGERV addition,
        // and never the IPU (which has its own benchmark definitions).
        for tag in [
            "A100", "H100", "WAIH100", "GH200", "JEDI", "MI250", "EDGERV",
        ] {
            assert!(tags.iter().any(|t| t == tag), "missing {tag}");
        }
        assert!(!tags.iter().any(|t| t == "GC200"));
    }

    #[test]
    fn unknown_system_tag_error_lists_valid_tags() {
        let err = SystemId::try_from_tag("B200").unwrap_err().to_string();
        assert!(err.contains("unknown system tag 'B200'"), "{err}");
        for tag in ["A100", "GC200", "EDGERV"] {
            assert!(err.contains(tag), "error must list {tag}: {err}");
        }
    }

    #[test]
    fn edge_soc_runs_the_llm_training_suite() {
        // EDGERV rides the standard GPU sweep purely via its data file.
        let result = llm_benchmark_nvidia_amd().run(&tags(&["EDGERV"])).unwrap();
        assert_eq!(result.workpackages.len(), FIG2_BATCHES.len());
        let ok = result
            .workpackages
            .iter()
            .filter(|w| w.error.is_none())
            .count();
        assert!(ok > 0, "at least one batch must fit on the SoC");
        let wp = result
            .workpackages
            .iter()
            .find(|w| w.error.is_none())
            .unwrap();
        assert_eq!(wp.params["system"], "EDGERV");
    }

    #[test]
    fn llm_gpu_suite_runs_for_a100() {
        let result = llm_benchmark_nvidia_amd().run(&tags(&["A100"])).unwrap();
        assert_eq!(result.workpackages.len(), FIG2_BATCHES.len());
        assert_eq!(result.failures(), 0);
        let table = result.table(&["global_batch", "tokens_per_s_per_gpu", "tokens_per_wh"]);
        let col = table.numeric_column("tokens_per_s_per_gpu").unwrap();
        // Throughput grows monotonically over the sweep (rows are in
        // alphabetical-value order, so re-sort by batch).
        let mut table2 = result.table(&["global_batch", "tokens_per_s_per_gpu"]);
        table2.sort_by_column("global_batch");
        let sorted = table2.numeric_column("tokens_per_s_per_gpu").unwrap();
        assert!(sorted.windows(2).all(|w| w[1] > w[0]), "{sorted:?}");
        assert_eq!(col.len(), FIG2_BATCHES.len());
    }

    #[test]
    fn llm_gpu_suite_mi250_gcd_tag() {
        let result = llm_benchmark_nvidia_amd()
            .run(&tags(&["MI250", "GCD"]))
            .unwrap();
        let ok = result
            .workpackages
            .iter()
            .filter(|w| w.error.is_none())
            .count();
        // batch 16 is not divisible by dp=4 × micro 4? 16 = 4·4 → fine:
        // all workpackages succeed in GCD mode.
        assert_eq!(ok, FIG2_BATCHES.len());
        assert!(result.workpackages[0].values["platform"].contains("GCD"));
    }

    #[test]
    fn llm_gpu_suite_mi250_gpu_mode_fails_batch16() {
        // "the global batch size of 16 is not possible" with dp=8.
        let result = llm_benchmark_nvidia_amd().run(&tags(&["MI250"])).unwrap();
        assert_eq!(result.failures(), 1);
        let failed = result
            .workpackages
            .iter()
            .find(|w| w.error.is_some())
            .unwrap();
        assert_eq!(failed.params["global_batch"], "16");
    }

    #[test]
    fn llm_ipu_suite_runs() {
        let result = llm_benchmark_ipu().run(&tags(&["synthetic"])).unwrap();
        assert_eq!(result.workpackages.len(), TABLE2_BATCHES.len());
        assert_eq!(result.failures(), 0);
        // Spot-check the Table II headline value.
        let wp64 = result
            .workpackages
            .iter()
            .find(|w| w.params["global_batch_tokens"] == "64")
            .unwrap();
        let t: f64 = wp64.values["tokens_per_s"].parse().unwrap();
        assert!((t - 64.99).abs() < 1.0);
        assert_eq!(wp64.params["data"], "synthetic");
    }

    #[test]
    fn resnet_suite_runs_on_gpu_and_ipu() {
        let gpu = resnet50_benchmark().run(&tags(&["H100"])).unwrap();
        assert_eq!(gpu.failures(), 0);
        let ipu = resnet50_benchmark().run(&tags(&["GC200"])).unwrap();
        assert_eq!(ipu.failures(), 0);
        let wp = &ipu.workpackages[0];
        assert_eq!(wp.values["platform"], "Graphcore GC200");
    }

    #[test]
    fn resnet_suite_a100_has_oom_at_2048() {
        let result = resnet50_benchmark().run(&tags(&["A100"])).unwrap();
        assert_eq!(result.failures(), 1);
        let failed = result
            .workpackages
            .iter()
            .find(|w| w.error.is_some())
            .unwrap();
        assert_eq!(failed.params["global_batch"], "2048");
        assert!(failed.error.as_ref().unwrap().contains("out of memory"));
    }

    #[test]
    fn serving_suite_runs_full_load_grid() {
        let result = llm_serving_benchmark().run(&tags(&["H100"])).unwrap();
        // 3 rates × 2 caps.
        assert_eq!(result.workpackages.len(), 6);
        assert_eq!(result.failures(), 0);
        let mut table = result.table(&[
            "rate_per_s",
            "batch_cap",
            "goodput_tokens_per_s",
            "ttft_p99_ms",
        ]);
        table.sort_by_column("rate_per_s");
        let goodput = table.numeric_column("goodput_tokens_per_s").unwrap();
        assert!(goodput.iter().all(|&g| g > 0.0));
        let wp = &result.workpackages[0];
        assert!(wp.values["platform"].contains("H100"));
        assert!(wp.values.contains_key("energy_wh_per_ktoken"));
        assert!(wp.values.contains_key("slo_attainment"));
    }

    #[test]
    fn serving_suite_bursty_tag_switches_arrival_process() {
        let poisson = llm_serving_benchmark().run(&tags(&["A100"])).unwrap();
        let bursty = llm_serving_benchmark()
            .run(&tags(&["A100", "bursty"]))
            .unwrap();
        assert_eq!(bursty.workpackages.len(), poisson.workpackages.len());
        assert_eq!(bursty.failures(), 0);
        assert_eq!(bursty.workpackages[0].params["arrival"], "bursty");
        // The arrival process must actually change the measured tails
        // somewhere in the grid.
        let p99 = |r: &jube::RunResult| -> Vec<String> {
            r.workpackages
                .iter()
                .map(|w| w.values["ttft_p99_ms"].clone())
                .collect()
        };
        assert_ne!(p99(&poisson), p99(&bursty));
    }

    #[test]
    fn serving_suite_runs_on_slurm_partition() {
        let slurm = jube::SlurmSim::new(2);
        let result = llm_serving_benchmark()
            .run_on(&slurm, &tags(&["GH200"]), 1)
            .unwrap();
        assert_eq!(result.workpackages.len(), 6);
        assert_eq!(result.failures(), 0);
        assert_eq!(slurm.records().len(), 6);
        assert!(slurm
            .records()
            .iter()
            .all(|r| r.state == jube::JobState::Completed));
    }

    #[test]
    fn fleet_suite_sweeps_policies_and_tags_switch_modes() {
        let result = llm_fleet_benchmark().run(&tags(&["H100"])).unwrap();
        // One workpackage per routing policy.
        assert_eq!(result.workpackages.len(), 3);
        assert_eq!(result.failures(), 0);
        let policies: Vec<&str> = result
            .workpackages
            .iter()
            .map(|w| w.params["policy"].as_str())
            .collect();
        assert_eq!(
            policies,
            vec!["round-robin", "least-kv-load", "session-affinity"]
        );
        let wp = &result.workpackages[0];
        assert!(wp.values["platform"].contains("H100"));
        assert!(wp.values.contains_key("energy_wh_per_ktoken"));
        assert_eq!(wp.values["kv_handoffs"], "0", "unified fleet");

        let disagg = llm_fleet_benchmark()
            .run(&tags(&["H100", "disagg"]))
            .unwrap();
        assert_eq!(disagg.failures(), 0);
        assert_ne!(disagg.workpackages[0].values["kv_handoffs"], "0");

        let scaled = llm_fleet_benchmark()
            .run(&tags(&["H100", "autoscale"]))
            .unwrap();
        assert_eq!(scaled.failures(), 0);
        assert!(scaled.workpackages[0].values.contains_key("scale_events"));
    }

    #[test]
    fn fleet_suite_sharded_matches_sequential_run_exactly() {
        let bench = llm_fleet_benchmark();
        let seq = bench.run(&tags(&["A100"])).unwrap();
        let (sharded, records) = run_suite_sharded(&bench, &tags(&["A100"]), 3, 3).unwrap();
        assert_eq!(sharded.workpackages.len(), seq.workpackages.len());
        for (a, b) in sharded.workpackages.iter().zip(&seq.workpackages) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.values, b.values, "sharded fleet FOMs must match serial");
        }
        assert!(records.iter().all(|r| r.state == jube::JobState::Completed));
    }

    #[test]
    fn sharded_suite_matches_sequential_run_exactly() {
        let bench = resnet50_benchmark();
        let seq = bench.run(&tags(&["GH200"])).unwrap();
        for shards in [1usize, 3, 4] {
            let (sharded, records) = run_suite_sharded(&bench, &tags(&["GH200"]), shards, 4)
                .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
            assert_eq!(sharded.workpackages.len(), seq.workpackages.len());
            for (a, b) in sharded.workpackages.iter().zip(&seq.workpackages) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.values, b.values, "sharded FOMs must match serial");
                assert_eq!(a.error, b.error);
            }
            assert_eq!(records.len(), shards.min(seq.workpackages.len()));
            assert!(records
                .iter()
                .all(|r| r.state == jube::JobState::Completed && r.queue_s >= 0.0));
        }
    }

    #[test]
    fn sharded_suite_preserves_oom_rows() {
        // The A100 sweep has a structured OOM workpackage; sharding must
        // carry it through at the same grid position.
        let bench = resnet50_benchmark();
        let (sharded, _) = run_suite_sharded(&bench, &tags(&["A100"]), 3, 3).unwrap();
        assert_eq!(sharded.failures(), 1);
        let failed = sharded
            .workpackages
            .iter()
            .find(|w| w.error.is_some())
            .unwrap();
        assert_eq!(failed.params["global_batch"], "2048");
        assert!(failed.error.as_ref().unwrap().contains("out of memory"));
    }

    #[test]
    fn suites_run_on_slurm_partition() {
        let slurm = jube::SlurmSim::new(4);
        let result = resnet50_benchmark()
            .run_on(&slurm, &tags(&["GH200"]), 1)
            .unwrap();
        assert_eq!(result.workpackages.len(), FIG3_BATCHES.len());
        assert_eq!(result.failures(), 0);
        assert_eq!(slurm.records().len(), FIG3_BATCHES.len());
    }
}
