//! # caraml — the CARAML benchmark suite
//!
//! The paper's primary contribution: "a compact, automated, reproducible
//! assessment of machine-learning workloads on novel accelerators",
//! consisting of an LLM-training benchmark (GPT via Megatron-LM) and a
//! computer-vision benchmark (ResNet50 via tf_cnn_benchmarks), driven by
//! JUBE with energy measurement through jpwr.
//!
//! This crate wires the reproduction together:
//!
//! * [`llm`] — the LLM training benchmark (Fig. 2 and Table II):
//!   throughput in tokens/s, energy in Wh per device, efficiency in
//!   tokens/Wh, across the seven Table I systems and batch sizes 16–4096
//!   (64–16384 in tokens on the IPU);
//! * [`resnet`] — the ResNet50 benchmark (Fig. 3, Fig. 4, Table III):
//!   images/s, Wh per epoch over the 1 281 167 ImageNet training images,
//!   images/Wh, including the device-count × batch-size scaling heatmaps
//!   with OOM detection;
//! * [`suite`] — JUBE benchmark definitions equivalent to the paper's
//!   `llm_benchmark_nvidia_amd.yaml`, `llm_benchmark_ipu.yaml` and
//!   `resnet50_benchmark.xml`, tag-selected per system;
//! * [`report`] — figure/table renderers (series plots as aligned text,
//!   heatmaps with OOM cells).
//!
//! Execution happens on the `caraml-accel` simulator through the
//! [`engine`]: every benchmark implements [`engine::Workload`] (a cost
//! model producing timed phases plus FOM extraction), the engine's
//! [`engine::RunContext`] owns the [`caraml_accel::SimNode`] and the
//! jpwr meter, and the [`sweep::SweepRunner`] executes parameter grids
//! in parallel with deterministic, input-ordered collection.

pub mod continuous;
pub mod engine;
pub mod fleet;
pub mod fom;
pub mod inference;
pub mod llm;
pub mod llm_large;
pub mod report;
pub mod resnet;
pub mod scenario;
pub mod serve;
pub mod suite;
pub mod sweep;
pub mod trend;

pub use continuous::{
    Baseline, ContinuousError, Direction, Finding, History, HistoryRecord, RegressionReport,
    Verdict,
};
pub use engine::{Executed, MeterSpec, PhasePlan, PhaseSpec, RunContext, RunOutcome, Workload};
pub use fleet::{
    AutoscaleConfig, FleetBenchmark, FleetConfig, FleetReport, RouteDecision, RoutePolicy,
    ScaleEvent, ScaleKind,
};
pub use fom::{CvFom, FleetFom, LatencyPercentiles, LlmFom, ServeFom};
pub use inference::{InferenceBenchmark, InferenceFom};
pub use llm::{LlmBenchmark, LlmRun};
pub use llm_large::{LargeModelBenchmark, LargeModelRun};
pub use resnet::{ResnetBenchmark, ResnetRun};
pub use scenario::{Scenario, ScenarioError, ScenarioOutcome, SweepSpec, WorkloadKind};
pub use serve::{ArrivalKind, ServeBenchmark, ServePoint, SloClass, SloPolicy};
pub use sweep::{NodeDemand, ShardPlan, ShardRecord, ShardedSweep, SweepPoint, SweepRunner};
pub use trend::{MetricTrend, TrendConfig, TrendReport};
