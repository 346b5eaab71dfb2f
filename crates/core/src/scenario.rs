//! Declarative benchmark scenarios — sweeps as data, not code.
//!
//! The ROADMAP's continuous-benchmarking item asks for arbitrary
//! workload × device × precision × arrival-trace × policy sweeps runnable
//! *without recompiling*. A scenario is a TOML file (parsed with the same
//! `toml_lite` subset as the device registry, and schema-versioned the
//! same way) holding a list of sweep specs:
//!
//! ```toml
//! schema = 1
//! name = "quickstart"
//! seed = 42
//!
//! [[sweep]]
//! workload = "serve"
//! systems = ["A100", "H100"]
//! precisions = ["bf16", "int8"]
//! rates = [32.0]
//! caps = [16]
//! requests = 64
//! ```
//!
//! A [`SweepSpec`] is also what `caraml inference`, `serve` and `fleet`
//! lower their flags into: flags and files pass the same
//! [`SweepSpec::check`] and run through the same cell executor,
//! [`Scenario::execute`], which returns one typed [`RunOutcome`] per cell.
//! It is the one way to run a serving or fleet grid: `bench_serve` and
//! the serve and fleet determinism suites build `SweepSpec`s too.
//! [`Scenario::check`] also rejects two cells that share a label (their
//! metric-key prefix) but not their configuration.
//!
//! Execution goes through the exact same benchmark APIs the native Rust
//! callers use ([`crate::llm`], [`crate::resnet`], [`crate::inference`],
//! [`crate::serve`], [`crate::fleet`]), so a scenario run is
//! **bit-identical** to the equivalent hand-constructed sweep — verified
//! by [`ScenarioOutcome::checksum`], an FNV-1a 64 digest over the sorted
//! `(key, f64::to_bits)` pairs, the cross-engine-verification shape of
//! starlark-bench. Cell expansion is deterministic (file order, then
//! systems × precisions × workload axes) and execution order is
//! irrelevant: cells run through rayon's ordered
//! `into_par_iter().map(f).collect()`, which returns results in input
//! order, so a run on one worker and a run on many produce the same
//! outcome.

use crate::continuous::{Baseline, ContinuousError, HistoryRecord};
use crate::engine::RunOutcome;
use crate::fleet::{AutoscaleConfig, FleetBenchmark, RoutePolicy};
use crate::fom::{CvFom, FleetFom, LlmFom, ServeFom};
use crate::inference::{InferenceBenchmark, InferenceFom};
use crate::llm::LlmBenchmark;
use crate::resnet::ResnetBenchmark;
use crate::serve::{load_grid, ArrivalKind, ServeBenchmark, ServePoint, DEFAULT_REQUESTS};
use caraml_accel::toml_lite::{self, TomlValue};
use caraml_accel::{DeviceKind, NodeConfig, Precision, SystemId};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Scenario file schema version; bump on incompatible layout changes
/// (same convention as the device registry).
pub const SCENARIO_SCHEMA: u32 = 1;

/// Trace seed of a scenario that sets no `seed`.
pub const DEFAULT_SEED: u64 = 42;

/// Arrival process of `arrival = "bursty"` without `burst_factor` or
/// `mean_burst`, and of the CLI's `--bursty`: bursts at 8× the mean
/// rate, 6 requests long on average.
pub const BURSTY: ArrivalKind = ArrivalKind::Bursty {
    burst_factor: 8.0,
    mean_burst: 6.0,
};

/// Most replicas a fleet sweep may provision. The fleet validator walks
/// every replica id, and the simulator holds one batcher with its phase
/// log and one metering node per replica.
pub const MAX_REPLICAS: u32 = 4096;

/// Longest arrival trace a serve or fleet sweep may draw. The trace, the
/// request records and the latency samples each hold one entry per
/// request, a few hundred bytes per request in all.
pub const MAX_REQUESTS: u32 = 10_000_000;

/// Longest LLM measurement window, seconds. jpwr samples the window at
/// the benchmark's 1 s interval into one power row per sample, one
/// column per device. Also the longest expected trace span
/// (`requests / rate`) of an autoscaled fleet sweep: its autoscaler
/// checks the queue every 0.25 s of virtual time, so the bound caps a
/// run at 4·10⁶ checks.
pub const MAX_DURATION_S: f64 = 1e6;

/// Largest batch a sweep may ask for, far past any device's memory. Near
/// `u64::MAX` the cost models' byte products overflow, and a wrapped
/// product passes the memory check and sizes a measurement window of
/// about 10¹⁶ one-second jpwr samples.
pub const MAX_BATCH: u64 = 1 << 24;

/// Failure of scenario parsing, validation, or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// TOML syntax error (line + message from `toml_lite`).
    Toml(String),
    /// Missing or unsupported `schema` version.
    Schema { found: String },
    /// A required key is absent.
    Missing { context: String, key: String },
    /// A key is present but malformed.
    Invalid { context: String, msg: String },
    /// A benchmark cell failed for a non-OOM reason.
    Run { cell: String, msg: String },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Toml(msg) => write!(f, "toml: {msg}"),
            ScenarioError::Schema { found } => write!(
                f,
                "unsupported scenario schema {found} (this build reads {SCENARIO_SCHEMA})"
            ),
            ScenarioError::Missing { context, key } => {
                write!(f, "{context}: missing required key `{key}`")
            }
            ScenarioError::Invalid { context, msg } => write!(f, "{context}: {msg}"),
            ScenarioError::Run { cell, msg } => write!(f, "cell `{cell}` failed: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Which benchmark family a sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// GPT pre-training throughput/energy (Fig. 2 protocol).
    Llm,
    /// ResNet50 training (Fig. 3 protocol).
    Resnet,
    /// Single-device batch-inference latency/energy.
    Inference,
    /// Continuous-batching serving under an arrival trace.
    Serve,
    /// Multi-replica fleet serving with routing policies.
    Fleet,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Llm,
        WorkloadKind::Resnet,
        WorkloadKind::Inference,
        WorkloadKind::Serve,
        WorkloadKind::Fleet,
    ];

    pub fn tag(&self) -> &'static str {
        match self {
            WorkloadKind::Llm => "llm",
            WorkloadKind::Resnet => "resnet",
            WorkloadKind::Inference => "inference",
            WorkloadKind::Serve => "serve",
            WorkloadKind::Fleet => "fleet",
        }
    }

    pub fn try_from_tag(tag: &str) -> Result<WorkloadKind, String> {
        WorkloadKind::ALL
            .iter()
            .find(|w| w.tag() == tag)
            .copied()
            .ok_or_else(|| {
                format!(
                    "unknown workload `{tag}` (expected one of: {})",
                    WorkloadKind::ALL
                        .iter()
                        .map(|w| w.tag())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
    }
}

/// One `[[sweep]]` section: a workload crossed over device/precision and
/// workload-specific axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    pub workload: WorkloadKind,
    pub systems: Vec<SystemId>,
    /// Precision axis (inference/serve/fleet); empty means the default
    /// tier. Rejected for llm/resnet, which have no precision knob.
    pub precisions: Vec<Precision>,
    /// Batch axis (llm: global batch; resnet: global batch; inference:
    /// device batch). Tokens on the IPU LLM path, per §III-A1.
    pub batches: Vec<u64>,
    /// Arrival-rate axis, requests/s (serve/fleet).
    pub rates: Vec<f64>,
    /// Continuous-batching occupancy caps (serve/fleet).
    pub caps: Vec<u32>,
    /// Routing-policy axis (fleet only); empty means round-robin.
    pub policies: Vec<RoutePolicy>,
    /// Arrival process of the trace (serve/fleet).
    pub arrival: ArrivalKind,
    /// Fleet replica count.
    pub replicas: u32,
    /// Arrival-trace length override (serve/fleet).
    pub requests: Option<u32>,
    /// Trace-seed override; falls back to the scenario seed.
    pub seed: Option<u64>,
    /// LLM measurement-window override, seconds (Fig. 2 uses 3600).
    pub duration_s: Option<f64>,
    /// Split the fleet into prefill and decode pools (fleet only).
    pub disagg: bool,
    /// Scale the fleet on queue depth between `min(replicas, 8)` and
    /// `max(replicas, 8)` replicas, 8 being the autoscaler's default
    /// ceiling (fleet only).
    pub autoscale: bool,
    /// Per-replica precision ladder: replica `i` runs entry `i % len`
    /// (fleet only). Empty puts every replica at the sweep's precision.
    pub replica_precisions: Vec<Precision>,
}

impl SweepSpec {
    /// An empty sweep of `workload` with the same defaults the parser
    /// applies (Poisson arrivals, 2 replicas, no axis values) — the
    /// starting point for building a native twin of a TOML sweep.
    pub fn new(workload: WorkloadKind) -> Self {
        SweepSpec {
            workload,
            systems: Vec::new(),
            precisions: Vec::new(),
            batches: Vec::new(),
            rates: Vec::new(),
            caps: Vec::new(),
            policies: Vec::new(),
            arrival: ArrivalKind::Poisson,
            replicas: 2,
            requests: None,
            seed: None,
            duration_s: None,
            disagg: false,
            autoscale: false,
            replica_precisions: Vec::new(),
        }
    }

    /// The range rules every sweep passes, whether parsed from a file or
    /// lowered from CLI flags: positive axes, the workload's required
    /// axes, and the ceilings on the counts that size allocations.
    /// `context` prefixes the error (`sweep[0]`, or the CLI command).
    pub fn check(&self, context: &str) -> Result<(), ScenarioError> {
        if self.systems.is_empty() {
            return Err(invalid(context, "`systems` must not be empty"));
        }
        for &n in &self.batches {
            if !(1..=MAX_BATCH).contains(&n) {
                return Err(invalid(
                    context,
                    format!("batch sizes must be between 1 and {MAX_BATCH}, got {n}"),
                ));
            }
        }
        for &n in &self.rates {
            // `f64::from_str` accepts NaN and inf, so check finiteness.
            if !(n.is_finite() && n > 0.0) {
                return Err(invalid(
                    context,
                    format!("rates must be positive and finite, got {n}"),
                ));
            }
        }
        if self.caps.contains(&0) {
            return Err(invalid(context, "caps must be positive integers, got 0"));
        }
        if !(1..=MAX_REPLICAS).contains(&self.replicas) {
            return Err(invalid(
                context,
                format!(
                    "replicas must be between 1 and {MAX_REPLICAS}, got {}",
                    self.replicas
                ),
            ));
        }
        if let Some(n) = self.requests {
            if !(1..=MAX_REQUESTS).contains(&n) {
                return Err(invalid(
                    context,
                    format!("requests must be between 1 and {MAX_REQUESTS}, got {n}"),
                ));
            }
        }
        if let Some(d) = self.duration_s {
            if !(d > 0.0 && d <= MAX_DURATION_S) {
                return Err(invalid(
                    context,
                    format!("duration_s must be positive and at most {MAX_DURATION_S:e}, got {d}"),
                ));
            }
        }
        if let ArrivalKind::Bursty {
            burst_factor,
            mean_burst,
        } = self.arrival
        {
            if !(burst_factor > 1.0
                && burst_factor.is_finite()
                && mean_burst >= 1.0
                && mean_burst.is_finite())
            {
                return Err(invalid(
                    context,
                    "bursty needs a finite burst_factor > 1 and mean_burst >= 1",
                ));
            }
        }
        // An autoscaled fleet wakes every `check_interval_s` of virtual
        // time, idle or not, so its work grows with the trace span. A
        // fixed fleet wakes only on arrivals and batch steps, so its work
        // follows the request count, which `MAX_REQUESTS` bounds.
        if self.workload == WorkloadKind::Fleet && self.autoscale {
            let requests = f64::from(self.requests.unwrap_or(DEFAULT_REQUESTS));
            for &rate in &self.rates {
                let span_s = requests / rate;
                if span_s > MAX_DURATION_S {
                    return Err(invalid(
                        context,
                        format!(
                            "an autoscaled fleet's trace spans requests / rate = {span_s:e} s, \
                             past the {MAX_DURATION_S:e} s ceiling"
                        ),
                    ));
                }
            }
        }
        if self.disagg && self.replicas < 2 {
            return Err(invalid(
                context,
                "disagg needs at least two replicas, one per pool",
            ));
        }
        if !self.precisions.is_empty() && !self.replica_precisions.is_empty() {
            return Err(invalid(
                context,
                "`precisions` and `replica_precisions` are exclusive",
            ));
        }
        match self.workload {
            WorkloadKind::Llm | WorkloadKind::Resnet | WorkloadKind::Inference => {
                if self.batches.is_empty() {
                    return Err(missing(context, "batches"));
                }
            }
            WorkloadKind::Serve | WorkloadKind::Fleet => {
                if self.rates.is_empty() {
                    return Err(missing(context, "rates"));
                }
                if self.caps.is_empty() {
                    return Err(missing(context, "caps"));
                }
            }
        }
        Ok(())
    }

    /// The serving benchmark a serve cell of this sweep runs on `sys` at
    /// `precision` (`None`: the default tier); `seed` applies when the
    /// sweep sets none. Fleet cells put every replica on this config.
    pub fn serve_bench(
        &self,
        sys: SystemId,
        precision: Option<Precision>,
        seed: u64,
    ) -> ServeBenchmark {
        let mut bench = ServeBenchmark::new(sys).with_precision(precision.unwrap_or_default());
        if let Some(n) = self.requests {
            bench.config.num_requests = n;
        }
        bench.config.seed = self.seed.unwrap_or(seed);
        bench.config.arrival = self.arrival;
        bench
    }

    /// The fleet benchmark a fleet cell of this sweep runs.
    fn fleet_bench(
        &self,
        sys: SystemId,
        policy: RoutePolicy,
        precision: Option<Precision>,
        seed: u64,
    ) -> FleetBenchmark {
        let mut bench = FleetBenchmark::new(sys)
            .with_policy(policy)
            .with_replicas(self.replicas)
            .disaggregated(self.disagg);
        bench.config.serve = self.serve_bench(sys, precision, seed).config;
        if !self.replica_precisions.is_empty() {
            bench.config.replica_precisions = Some(self.replica_precisions.clone());
        }
        if self.autoscale {
            let default = AutoscaleConfig::default();
            bench = bench.with_autoscale(AutoscaleConfig {
                min_replicas: self.replicas.min(default.max_replicas),
                max_replicas: self.replicas.max(default.max_replicas),
                ..default
            });
        }
        bench
    }

    /// This sweep's cells: systems × precisions × the workload's own
    /// axes, all in declaration order. `seed` is the scenario's.
    fn cells(&self, seed: u64) -> Vec<Cell> {
        let precisions: Vec<Option<Precision>> = if self.precisions.is_empty() {
            vec![None]
        } else {
            self.precisions.iter().copied().map(Some).collect()
        };
        let policies = if self.policies.is_empty() {
            vec![RoutePolicy::RoundRobin]
        } else {
            self.policies.clone()
        };
        let loads = load_grid(&self.rates, &self.caps);
        let mut cells = Vec::new();
        for &sys in &self.systems {
            match self.workload {
                WorkloadKind::Llm => cells.extend(self.batches.iter().map(|&batch| Cell::Llm {
                    sys,
                    batch,
                    duration_s: self.duration_s,
                })),
                WorkloadKind::Resnet => cells.extend(
                    self.batches
                        .iter()
                        .map(|&batch| Cell::Resnet { sys, batch }),
                ),
                WorkloadKind::Inference => {
                    for &precision in &precisions {
                        let bench = InferenceBenchmark::new(sys)
                            .with_precision(precision.unwrap_or_default());
                        for &batch in &self.batches {
                            cells.push(Cell::Inference {
                                bench: bench.clone(),
                                batch: batch as u32,
                            });
                        }
                    }
                }
                WorkloadKind::Serve => {
                    for &precision in &precisions {
                        let bench = self.serve_bench(sys, precision, seed);
                        for &point in &loads {
                            cells.push(Cell::Serve {
                                bench: bench.clone(),
                                point,
                            });
                        }
                    }
                }
                WorkloadKind::Fleet => {
                    for &policy in &policies {
                        for &precision in &precisions {
                            let bench = self.fleet_bench(sys, policy, precision, seed);
                            for &point in &loads {
                                cells.push(Cell::Fleet {
                                    bench: bench.clone(),
                                    point,
                                });
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// A parsed, validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub name: String,
    /// Default trace seed for serve/fleet sweeps without their own.
    pub seed: u64,
    pub sweeps: Vec<SweepSpec>,
}

fn invalid(context: &str, msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid {
        context: context.to_string(),
        msg: msg.into(),
    }
}

fn missing(context: &str, key: &str) -> ScenarioError {
    ScenarioError::Missing {
        context: context.to_string(),
        key: key.to_string(),
    }
}

/// Read a non-negative integer-valued number.
fn as_u64(v: &TomlValue, context: &str, key: &str) -> Result<u64, ScenarioError> {
    let n = v
        .as_f64()
        .ok_or_else(|| invalid(context, format!("`{key}` must be a number")))?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(invalid(
            context,
            format!("`{key}` must be a non-negative integer, got {n}"),
        ));
    }
    Ok(n as u64)
}

/// Read a non-negative integer that fits a `u32`.
fn as_u32(v: &TomlValue, context: &str, key: &str) -> Result<u32, ScenarioError> {
    let n = as_u64(v, context, key)?;
    u32::try_from(n).map_err(|_| invalid(context, format!("`{key}` must be below 2^32, got {n}")))
}

fn as_bool(v: &TomlValue, context: &str, key: &str) -> Result<bool, ScenarioError> {
    v.as_bool()
        .ok_or_else(|| invalid(context, format!("`{key}` must be true or false")))
}

fn str_items<'a>(
    v: &'a TomlValue,
    context: &str,
    key: &str,
) -> Result<Vec<&'a str>, ScenarioError> {
    v.as_str_array()
        .ok_or_else(|| invalid(context, format!("`{key}` must be an array of strings")))
}

fn num_items(v: &TomlValue, context: &str, key: &str) -> Result<Vec<f64>, ScenarioError> {
    v.as_f64_array()
        .ok_or_else(|| invalid(context, format!("`{key}` must be an array of numbers")))
}

fn precision_items(
    v: &TomlValue,
    context: &str,
    key: &str,
) -> Result<Vec<Precision>, ScenarioError> {
    str_items(v, context, key)?
        .into_iter()
        .map(|tag| Precision::try_from_tag(tag).map_err(|e| invalid(context, e)))
        .collect()
}

impl Scenario {
    /// Parse and validate a scenario document.
    pub fn parse(src: &str) -> Result<Scenario, ScenarioError> {
        let doc = toml_lite::parse(src).map_err(|e| ScenarioError::Toml(e.to_string()))?;
        let root = doc.as_table().expect("parse returns a table");
        for (key, _) in root {
            if !matches!(key.as_str(), "schema" | "name" | "seed" | "sweep") {
                return Err(invalid("scenario", format!("unknown key `{key}`")));
            }
        }
        let schema = doc
            .get("schema")
            .ok_or_else(|| missing("scenario", "schema"))?;
        match schema.as_f64() {
            Some(v) if v == SCENARIO_SCHEMA as f64 => {}
            // A readable version in the error, not the TomlValue debug
            // repr: `schema 2`, or the raw string for non-numbers.
            Some(v) => {
                return Err(ScenarioError::Schema {
                    found: format!("{v}"),
                })
            }
            None => {
                return Err(ScenarioError::Schema {
                    found: schema.as_str().unwrap_or("non-numeric").to_string(),
                })
            }
        }
        let name = doc
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| missing("scenario", "name"))?
            .to_string();
        let seed = match doc.get("seed") {
            Some(v) => as_u64(v, "scenario", "seed")?,
            None => DEFAULT_SEED,
        };
        let sweep_tables = doc
            .get("sweep")
            .and_then(|v| v.as_array())
            .ok_or_else(|| missing("scenario", "[[sweep]]"))?;
        if sweep_tables.is_empty() {
            return Err(invalid("scenario", "at least one [[sweep]] required"));
        }
        let mut sweeps = Vec::new();
        for (i, table) in sweep_tables.iter().enumerate() {
            sweeps.push(Self::parse_sweep(table, i)?);
        }
        let scenario = Scenario { name, seed, sweeps };
        scenario.check_labels()?;
        Ok(scenario)
    }

    fn parse_sweep(table: &TomlValue, index: usize) -> Result<SweepSpec, ScenarioError> {
        let ctx = format!("sweep[{index}]");
        let ctx = ctx.as_str();
        let entries = table
            .as_table()
            .ok_or_else(|| invalid(ctx, "sweep must be a table"))?;
        let workload_tag = table
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or_else(|| missing(ctx, "workload"))?;
        let workload = WorkloadKind::try_from_tag(workload_tag).map_err(|msg| invalid(ctx, msg))?;
        let mut spec = SweepSpec::new(workload);

        // Keys every workload accepts, plus the workload-specific axes;
        // anything else is a typo, not a silently ignored knob.
        let allowed: &[&str] = match workload {
            WorkloadKind::Llm => &["workload", "systems", "batches", "duration_s"],
            WorkloadKind::Resnet => &["workload", "systems", "batches"],
            WorkloadKind::Inference => &["workload", "systems", "precisions", "batches"],
            WorkloadKind::Serve => &[
                "workload",
                "systems",
                "precisions",
                "rates",
                "caps",
                "requests",
                "seed",
                "arrival",
                "burst_factor",
                "mean_burst",
            ],
            WorkloadKind::Fleet => &[
                "workload",
                "systems",
                "precisions",
                "rates",
                "caps",
                "policies",
                "replicas",
                "requests",
                "seed",
                "arrival",
                "burst_factor",
                "mean_burst",
                "disagg",
                "autoscale",
                "replica_precisions",
            ],
        };
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return Err(invalid(
                    ctx,
                    format!("unknown key `{key}` for workload `{workload_tag}`"),
                ));
            }
        }

        let systems = table
            .get("systems")
            .ok_or_else(|| missing(ctx, "systems"))?;
        for tag in str_items(systems, ctx, "systems")? {
            spec.systems
                .push(SystemId::try_from_tag(tag).map_err(|e| invalid(ctx, e.to_string()))?);
        }
        if let Some(v) = table.get("precisions") {
            spec.precisions = precision_items(v, ctx, "precisions")?;
        }
        if let Some(v) = table.get("replica_precisions") {
            spec.replica_precisions = precision_items(v, ctx, "replica_precisions")?;
        }
        if let Some(v) = table.get("batches") {
            for n in num_items(v, ctx, "batches")? {
                if n < 0.0 || n.fract() != 0.0 {
                    return Err(invalid(
                        ctx,
                        format!("batch sizes must be positive integers, got {n}"),
                    ));
                }
                spec.batches.push(n as u64);
            }
        }
        if let Some(v) = table.get("rates") {
            spec.rates = num_items(v, ctx, "rates")?;
        }
        if let Some(v) = table.get("caps") {
            for n in num_items(v, ctx, "caps")? {
                if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
                    return Err(invalid(
                        ctx,
                        format!("caps must be positive integers, got {n}"),
                    ));
                }
                spec.caps.push(n as u32);
            }
        }
        if let Some(v) = table.get("policies") {
            for tag in str_items(v, ctx, "policies")? {
                spec.policies
                    .push(RoutePolicy::try_from_tag(tag).map_err(|e| invalid(ctx, e))?);
            }
        }
        if let Some(v) = table.get("replicas") {
            spec.replicas = as_u32(v, ctx, "replicas")?;
        }
        if let Some(v) = table.get("requests") {
            spec.requests = Some(as_u32(v, ctx, "requests")?);
        }
        if let Some(v) = table.get("seed") {
            spec.seed = Some(as_u64(v, ctx, "seed")?);
        }
        if let Some(v) = table.get("duration_s") {
            let n = v
                .as_f64()
                .ok_or_else(|| invalid(ctx, "`duration_s` must be a number"))?;
            spec.duration_s = Some(n);
        }
        if let Some(v) = table.get("disagg") {
            spec.disagg = as_bool(v, ctx, "disagg")?;
        }
        if let Some(v) = table.get("autoscale") {
            spec.autoscale = as_bool(v, ctx, "autoscale")?;
        }
        match table.get("arrival").map(|v| v.as_str()) {
            None => {}
            Some(Some("poisson")) => spec.arrival = ArrivalKind::Poisson,
            Some(Some("bursty")) => {
                spec.arrival = BURSTY;
                if let ArrivalKind::Bursty {
                    burst_factor,
                    mean_burst,
                } = &mut spec.arrival
                {
                    for (key, slot) in [("burst_factor", burst_factor), ("mean_burst", mean_burst)]
                    {
                        if let Some(v) = table.get(key) {
                            *slot = v
                                .as_f64()
                                .ok_or_else(|| invalid(ctx, format!("`{key}` must be a number")))?;
                        }
                    }
                }
            }
            Some(other) => {
                return Err(invalid(
                    ctx,
                    format!("arrival must be \"poisson\" or \"bursty\", got {other:?}"),
                ))
            }
        }
        spec.check(ctx)?;
        Ok(spec)
    }

    /// Load and parse a scenario file.
    pub fn load(path: &Path) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Toml(format!("{}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// [`SweepSpec::check`] on every sweep, then the label rule: no two
    /// cells share a label but not their configuration.
    pub fn check(&self) -> Result<(), ScenarioError> {
        self.sweeps
            .iter()
            .enumerate()
            .try_for_each(|(i, spec)| spec.check(&format!("sweep[{i}]")))?;
        self.check_labels()
    }

    /// Reject two cells that share a label but not their configuration.
    /// A label is a cell's metric-key prefix, and it leaves out the trace
    /// seed, length and arrival process, the fleet size and the LLM
    /// window, so such cells would overwrite each other's metrics. An
    /// identical repeat (`caraml serve --precision all` runs its bf16
    /// point in both of its sweeps) writes the same metrics twice.
    fn check_labels(&self) -> Result<(), ScenarioError> {
        let mut seen: BTreeMap<String, Cell> = BTreeMap::new();
        for (_, cell) in self.cells() {
            let label = cell.label();
            match seen.get(&label) {
                Some(first) if *first != cell => {
                    return Err(invalid(
                        "scenario",
                        format!(
                            "two cells share the label `{label}` but not their seed, \
                             requests, arrival, replicas or duration_s, so one would \
                             overwrite the other's metrics"
                        ),
                    ))
                }
                Some(_) => {}
                None => {
                    seen.insert(label, cell);
                }
            }
        }
        Ok(())
    }

    /// Total cells the scenario expands to.
    pub fn cell_count(&self) -> usize {
        self.cells().len()
    }

    /// Execute every cell through the shared benchmark APIs: one
    /// `(label, outcome)` per cell, grouped by sweep, in expansion order
    /// (sweeps in file order, then systems × precisions × the workload's
    /// axes). The label is the cell's metric-key prefix. The scenario
    /// must pass [`Scenario::check`]; parsing checks it.
    pub fn execute(&self) -> Vec<Vec<(String, RunOutcome<CellFom>)>> {
        let outcomes: Vec<(usize, (String, RunOutcome<CellFom>))> = self
            .cells()
            .into_par_iter()
            .map(|(i, cell)| (i, (cell.label(), cell.execute())))
            .collect();
        let mut grouped = vec![Vec::new(); self.sweeps.len()];
        for (i, outcome) in outcomes {
            grouped[i].push(outcome);
        }
        grouped
    }

    /// Every cell with the index of its sweep, in expansion order.
    fn cells(&self) -> Vec<(usize, Cell)> {
        self.sweeps
            .iter()
            .enumerate()
            .flat_map(|(i, spec)| spec.cells(self.seed).into_iter().map(move |c| (i, c)))
            .collect()
    }

    /// Check the scenario, execute every cell and fold the figures of
    /// merit into a metric map. Out-of-memory cells are skipped (and
    /// listed); any other benchmark failure aborts.
    pub fn run(&self) -> Result<ScenarioOutcome, ScenarioError> {
        self.check()?;
        let mut metrics = Baseline::new(&self.name);
        let mut skipped_oom = Vec::new();
        let mut runs = 0u64;
        for (label, outcome) in self.execute().into_iter().flatten() {
            match outcome {
                RunOutcome::Completed(fom) => {
                    runs += 1;
                    fom.record(&mut metrics, &label)
                        .map_err(|e| ScenarioError::Run {
                            cell: label.clone(),
                            msg: e.to_string(),
                        })?;
                }
                RunOutcome::Oom { .. } => skipped_oom.push(label),
                RunOutcome::Failed(e) => {
                    return Err(ScenarioError::Run {
                        cell: label,
                        msg: e.to_string(),
                    })
                }
            }
        }
        let checksum = format!("{:016x}", checksum64(&metrics));
        Ok(ScenarioOutcome {
            name: self.name.clone(),
            runs,
            skipped_oom,
            checksum,
            metrics,
        })
    }

    /// The native twin of `examples/scenario.toml`, constructed in Rust.
    /// `caraml scenario --check` and the scenario integration tests
    /// verify the parsed file and this constructor expand to the same
    /// spec and produce bit-identical metrics.
    pub fn example() -> Scenario {
        let llm = SweepSpec {
            systems: vec![SystemId::A100, SystemId::Gh200Jrdc],
            batches: vec![512, 2048],
            duration_s: Some(120.0),
            ..SweepSpec::new(WorkloadKind::Llm)
        };
        let resnet = SweepSpec {
            systems: vec![SystemId::A100, SystemId::Gh200Jrdc],
            batches: vec![256, 1024],
            ..SweepSpec::new(WorkloadKind::Resnet)
        };
        let inference = SweepSpec {
            systems: vec![SystemId::H100Jrdc],
            precisions: vec![Precision::Bf16, Precision::Int8],
            batches: vec![4, 16],
            ..SweepSpec::new(WorkloadKind::Inference)
        };
        let serve = SweepSpec {
            systems: vec![SystemId::A100, SystemId::H100Jrdc],
            precisions: vec![Precision::Bf16, Precision::Int8],
            rates: vec![32.0],
            caps: vec![16],
            requests: Some(64),
            seed: Some(7),
            ..SweepSpec::new(WorkloadKind::Serve)
        };
        let fleet = SweepSpec {
            systems: vec![SystemId::H100Jrdc],
            precisions: vec![Precision::Int8],
            policies: vec![RoutePolicy::RoundRobin, RoutePolicy::LeastKvLoad],
            replicas: 2,
            rates: vec![64.0],
            caps: vec![16],
            requests: Some(48),
            ..SweepSpec::new(WorkloadKind::Fleet)
        };
        Scenario {
            name: "quickstart".to_string(),
            seed: DEFAULT_SEED,
            sweeps: vec![llm, resnet, inference, serve, fleet],
        }
    }
}

/// One executable unit of a scenario: a configured benchmark at one
/// point of its sweep's axes.
#[derive(Debug, Clone, PartialEq)]
enum Cell {
    Llm {
        sys: SystemId,
        batch: u64,
        duration_s: Option<f64>,
    },
    Resnet {
        sys: SystemId,
        batch: u64,
    },
    Inference {
        bench: InferenceBenchmark,
        batch: u32,
    },
    Serve {
        bench: ServeBenchmark,
        point: ServePoint,
    },
    Fleet {
        bench: FleetBenchmark,
        point: ServePoint,
    },
}

/// The figures of merit of one completed cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFom {
    Llm(LlmFom),
    Resnet(CvFom),
    Inference(InferenceFom),
    Serve(ServeFom),
    Fleet(FleetFom),
}

impl CellFom {
    /// The figures of merit of a serve cell. Panics on any other cell: a
    /// serve sweep yields only serve cells.
    pub fn into_serve(self) -> ServeFom {
        match self {
            CellFom::Serve(fom) => fom,
            other => unreachable!("a serve sweep yielded {other:?}"),
        }
    }

    /// The figures of merit of a fleet cell. Panics on any other cell: a
    /// fleet sweep yields only fleet cells.
    pub fn into_fleet(self) -> FleetFom {
        match self {
            CellFom::Fleet(fom) => fom,
            other => unreachable!("a fleet sweep yielded {other:?}"),
        }
    }

    /// Fold the cell's headline metrics into `metrics` under `prefix`.
    fn record(&self, metrics: &mut Baseline, prefix: &str) -> Result<(), ContinuousError> {
        match self {
            CellFom::Llm(fom) => metrics.record_llm(prefix, fom),
            CellFom::Resnet(fom) => metrics.record_cv(prefix, fom),
            CellFom::Inference(fom) => {
                metrics.record(format!("{prefix}/ttft_s"), fom.ttft_s)?;
                metrics.record(
                    format!("{prefix}/decode_tokens_per_s"),
                    fom.decode_tokens_per_s,
                )?;
                metrics.record(format!("{prefix}/wh_per_ktoken"), fom.energy_wh_per_ktoken)
            }
            CellFom::Serve(fom) => metrics.record_serve(prefix, fom),
            CellFom::Fleet(fom) => metrics.record_fleet(prefix, fom),
        }
    }
}

fn is_ipu(sys: SystemId) -> bool {
    NodeConfig::shared(sys).device.kind == DeviceKind::Ipu
}

impl Cell {
    /// Human-readable identity, also the metric-key prefix.
    fn label(&self) -> String {
        match self {
            Cell::Llm { sys, batch, .. } => format!("llm/{}/b{batch}", sys.jube_tag()),
            Cell::Resnet { sys, batch } => format!("resnet50/{}/b{batch}", sys.jube_tag()),
            Cell::Inference { bench, batch } => format!(
                "inference/{}/{}/b{batch}",
                bench.system.jube_tag(),
                bench.precision.tag()
            ),
            Cell::Serve { bench, point } => format!(
                "serve/{}/{}/r{}/c{}",
                bench.config.system.jube_tag(),
                bench.config.precision.tag(),
                point.rate_per_s,
                point.batch_cap
            ),
            Cell::Fleet { bench, point } => {
                let cfg = &bench.config;
                let precision = match &cfg.replica_precisions {
                    Some(ladder) => ladder
                        .iter()
                        .map(Precision::tag)
                        .collect::<Vec<_>>()
                        .join("+"),
                    None => cfg.serve.precision.tag().to_string(),
                };
                let mut label = format!(
                    "fleet/{}/{}/{precision}/r{}/c{}",
                    cfg.serve.system.jube_tag(),
                    cfg.policy.tag(),
                    point.rate_per_s,
                    point.batch_cap
                );
                if cfg.disaggregated {
                    label.push_str("/disagg");
                }
                if cfg.autoscale.is_some() {
                    label.push_str("/autoscale");
                }
                label
            }
        }
    }

    /// Run the cell through the same benchmark entry points native
    /// callers use.
    fn execute(&self) -> RunOutcome<CellFom> {
        let fom = match self {
            Cell::Llm {
                sys,
                batch,
                duration_s,
            } => if is_ipu(*sys) {
                LlmBenchmark::run_ipu(*batch, 1.0)
            } else {
                let mut bench = LlmBenchmark::fig2(*sys);
                if let Some(d) = duration_s {
                    bench.duration_s = *d;
                }
                bench.run(*batch)
            }
            .map(|run| CellFom::Llm(run.fom)),
            Cell::Resnet { sys, batch } => if is_ipu(*sys) {
                ResnetBenchmark::run_ipu(*batch, 1.0)
            } else {
                ResnetBenchmark::fig3(*sys).run(*batch)
            }
            .map(|run| CellFom::Resnet(run.fom)),
            Cell::Inference { bench, batch } => bench.run(*batch).map(CellFom::Inference),
            Cell::Serve { bench, point } => bench.run(*point).map(CellFom::Serve),
            Cell::Fleet { bench, point } => bench.run(*point).map(CellFom::Fleet),
        };
        RunOutcome::from_result(fom)
    }
}

/// FNV-1a 64 digest over the sorted `(key, f64::to_bits)` pairs — the
/// cross-engine bit-identity witness. Any rounding difference between the
/// scenario path and a native sweep flips the checksum.
pub fn checksum64(metrics: &Baseline) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |byte: u8| {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(PRIME);
    };
    for (key, value) in &metrics.metrics {
        for &b in key.as_bytes() {
            eat(b);
        }
        eat(0);
        for b in value.to_bits().to_le_bytes() {
            eat(b);
        }
        eat(0xff);
    }
    hash
}

/// The result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    pub name: String,
    /// Cells that completed.
    pub runs: u64,
    /// Cells skipped because the configuration does not fit device
    /// memory (expected for large batches on small-HBM systems).
    pub skipped_oom: Vec<String>,
    /// Hex FNV-1a 64 over the metric map ([`checksum64`]).
    pub checksum: String,
    pub metrics: Baseline,
}

/// The precision segment embedded in a metric key by the scenario key
/// convention, or `-` when the workload has no precision axis.
fn precision_of_key(key: &str) -> &'static str {
    for seg in key.split('/') {
        for p in Precision::ALL {
            if seg == p.tag() {
                return p.tag();
            }
        }
    }
    "-"
}

impl ScenarioOutcome {
    /// Convert the run into history-store records (one per metric),
    /// stamped with a generation, code label, and SIMD arm.
    pub fn history_records(&self, generation: u64, label: &str, arm: &str) -> Vec<HistoryRecord> {
        self.metrics
            .metrics
            .iter()
            .map(|(key, &value)| {
                HistoryRecord::new(
                    generation,
                    label,
                    &self.name,
                    arm,
                    precision_of_key(key),
                    key,
                    value,
                )
                .expect("scenario metrics are finite")
            })
            .collect()
    }
}

/// Convenience: validation-level equality error used by `--check`.
pub fn check_against_native(parsed: &Scenario, native: &Scenario) -> Result<(), ContinuousError> {
    if parsed != native {
        return Err(ContinuousError::Parse {
            line: 0,
            msg: format!(
                "parsed scenario diverges from the native twin: {} sweeps vs {}",
                parsed.sweeps.len(),
                native.sweeps.len()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
schema = 1
name = "mini"
seed = 9

[[sweep]]
workload = "serve"
systems = ["A100"]
precisions = ["bf16", "int8"]
rates = [32.0]
caps = [16]
requests = 48
"#;

    #[test]
    fn parses_a_minimal_scenario() {
        let sc = Scenario::parse(MINI).unwrap();
        assert_eq!(sc.name, "mini");
        assert_eq!(sc.seed, 9);
        assert_eq!(sc.sweeps.len(), 1);
        let sweep = &sc.sweeps[0];
        assert_eq!(sweep.workload, WorkloadKind::Serve);
        assert_eq!(sweep.systems, vec![SystemId::A100]);
        assert_eq!(sweep.precisions, vec![Precision::Bf16, Precision::Int8]);
        assert_eq!(sweep.requests, Some(48));
        assert_eq!(sc.cell_count(), 2);
    }

    #[test]
    fn rejects_bad_documents() {
        // Wrong schema version.
        let err = Scenario::parse("schema = 2\nname = \"x\"\n[[sweep]]\nworkload = \"llm\"\nsystems = [\"A100\"]\nbatches = [8]").unwrap_err();
        assert!(matches!(err, ScenarioError::Schema { .. }), "{err}");
        // Unknown workload.
        let err = Scenario::parse(
            "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"nope\"\nsystems = [\"A100\"]",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown workload"), "{err}");
        // Typo'd key is rejected, not silently ignored.
        let err = Scenario::parse(
            "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"llm\"\nsystems = [\"A100\"]\nbatches = [8]\nratez = [1.0]",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown key `ratez`"), "{err}");
        // Missing required axis.
        let err = Scenario::parse(
            "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"serve\"\nsystems = [\"A100\"]\ncaps = [16]",
        )
        .unwrap_err();
        assert!(
            matches!(err, ScenarioError::Missing { ref key, .. } if key == "rates"),
            "{err}"
        );
        // Unknown device tag.
        let err = Scenario::parse(
            "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"llm\"\nsystems = [\"B200\"]\nbatches = [8]",
        )
        .unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
        // Fractional batch.
        let err = Scenario::parse(
            "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"llm\"\nsystems = [\"A100\"]\nbatches = [8.5]",
        )
        .unwrap_err();
        assert!(err.to_string().contains("positive integers"), "{err}");
    }

    #[test]
    fn scenario_run_matches_hand_built_serve_sweep_bitwise() {
        let sc = Scenario::parse(MINI).unwrap();
        let outcome = sc.run().unwrap();
        assert_eq!(outcome.runs, 2);
        assert!(outcome.skipped_oom.is_empty());

        // The equivalent native sweep, constructed directly against the
        // serving API.
        let mut native = Baseline::new("mini");
        for precision in [Precision::Bf16, Precision::Int8] {
            let mut bench = ServeBenchmark::new(SystemId::A100).with_precision(precision);
            bench.config.num_requests = 48;
            bench.config.seed = 9;
            let fom = bench
                .run(ServePoint {
                    rate_per_s: 32.0,
                    batch_cap: 16,
                })
                .unwrap();
            native
                .record_serve(&format!("serve/A100/{}/r32/c16", precision.tag()), &fom)
                .unwrap();
        }
        assert_eq!(outcome.metrics.metrics, native.metrics, "bit-identical");
        assert_eq!(outcome.checksum, format!("{:016x}", checksum64(&native)));
    }

    #[test]
    fn serial_and_parallel_checksums_agree() {
        let sc = Scenario::parse(MINI).unwrap();
        let one_worker = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let serial = one_worker.install(|| sc.run()).unwrap();
        let parallel = sc.run().unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn checksum_is_sensitive_to_any_bit() {
        let mut a = Baseline::new("x");
        a.record("k/tokens_per_s", 1.0).unwrap();
        let mut b = Baseline::new("x");
        b.record("k/tokens_per_s", 1.0 + f64::EPSILON).unwrap();
        assert_ne!(checksum64(&a), checksum64(&b));
    }

    #[test]
    fn oom_cells_are_skipped_not_fatal() {
        // Batch 65536 on A100 ResNet50 does not fit; the scenario must
        // skip the cell and keep the rest.
        let sc = Scenario::parse(
            "schema = 1\nname = \"oom\"\n[[sweep]]\nworkload = \"resnet\"\nsystems = [\"A100\"]\nbatches = [256, 65536]",
        )
        .unwrap();
        let outcome = sc.run().unwrap();
        assert_eq!(outcome.runs, 1);
        assert_eq!(
            outcome.skipped_oom,
            vec!["resnet50/A100/b65536".to_string()]
        );
    }

    #[test]
    fn history_records_carry_precision_and_direction() {
        let sc = Scenario::parse(MINI).unwrap();
        let outcome = sc.run().unwrap();
        let records = outcome.history_records(3, "rev-x", "avx2");
        assert_eq!(records.len(), outcome.metrics.metrics.len());
        for rec in &records {
            assert_eq!(rec.generation, 3);
            assert_eq!(rec.scenario, "mini");
            assert_eq!(rec.arm, "avx2");
            assert!(
                rec.precision == "bf16" || rec.precision == "int8",
                "{rec:?}"
            );
        }
        let ttft = records
            .iter()
            .find(|r| r.key.ends_with("p99_ttft_s"))
            .unwrap();
        assert_eq!(ttft.direction, crate::continuous::Direction::LowerIsBetter);
    }

    #[test]
    fn fleet_keys_set_disagg_autoscale_and_the_precision_ladder() {
        let sc = Scenario::parse(
            "schema = 1\nname = \"f\"\n[[sweep]]\nworkload = \"fleet\"\nsystems = [\"H100\"]\n\
             policies = [\"round-robin\", \"least-kv-load\"]\nreplicas = 2\nrates = [64.0]\n\
             caps = [16]\nrequests = 32\ndisagg = true\nautoscale = true\n\
             replica_precisions = [\"bf16\", \"int8\"]",
        )
        .unwrap();
        let spec = &sc.sweeps[0];
        assert!(spec.disagg && spec.autoscale);
        assert_eq!(
            spec.replica_precisions,
            vec![Precision::Bf16, Precision::Int8]
        );
        // The CLI's autoscale rule: between min(replicas, 8) and
        // max(replicas, 8) replicas.
        let bench = spec.fleet_bench(SystemId::H100Jrdc, RoutePolicy::RoundRobin, None, sc.seed);
        let scale = bench.config.autoscale.expect("autoscale = true");
        assert_eq!((scale.min_replicas, scale.max_replicas), (2, 8));
        assert_eq!(bench.precision_of(1), Precision::Int8);
        let cells = sc.execute().swap_remove(0);
        assert_eq!(cells.len(), 2, "one cell per policy");
        for (label, outcome) in cells {
            assert!(
                label.ends_with("/bf16+int8/r64/c16/disagg/autoscale"),
                "{label}"
            );
            let RunOutcome::Completed(CellFom::Fleet(fom)) = outcome else {
                panic!("{label}: {outcome:?}");
            };
            assert!(
                fom.kv_handoffs > 0,
                "{label}: a disaggregated fleet hands off KV"
            );
        }
    }

    #[test]
    fn counts_past_their_ceilings_are_rejected_before_any_cell_runs() {
        let fleet = |key: &str| {
            Scenario::parse(&format!(
                "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"fleet\"\n\
                 systems = [\"H100\"]\nrates = [8.0]\ncaps = [4]\n{key}"
            ))
        };
        let llm = |key: &str| {
            Scenario::parse(&format!(
                "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"llm\"\n\
                 systems = [\"A100\"]\nbatches = [512]\n{key}"
            ))
        };
        let resnet = |batches: &str| {
            Scenario::parse(&format!(
                "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"resnet\"\n\
                 systems = [\"A100\"]\nbatches = [{batches}]"
            ))
        };
        // At a ceiling the file parses; it is never run here.
        assert!(fleet(&format!("replicas = {MAX_REPLICAS}")).is_ok());
        assert!(fleet(&format!("requests = {MAX_REQUESTS}")).is_ok());
        assert!(llm(&format!("duration_s = {MAX_DURATION_S:?}")).is_ok());
        assert!(resnet(&MAX_BATCH.to_string()).is_ok());
        for (parsed, key) in [
            (
                fleet(&format!("replicas = {}", MAX_REPLICAS + 1)),
                "replicas",
            ),
            (fleet("replicas = 4294967295"), "replicas"),
            (fleet("replicas = 4294967296"), "replicas"),
            (
                fleet(&format!("requests = {}", MAX_REQUESTS + 1)),
                "requests",
            ),
            (fleet("requests = 4294967295"), "requests"),
            (llm("duration_s = 1000000.5"), "duration_s"),
            (llm("duration_s = 1e12"), "duration_s"),
            (resnet(&(MAX_BATCH + 1).to_string()), "batch sizes"),
            // Saturates to u64::MAX, which once hung the ResNet cell.
            (resnet("1e30"), "batch sizes"),
        ] {
            let err = parsed.unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. }) && err.to_string().contains(key),
                "{err}"
            );
        }
    }

    #[test]
    fn autoscaled_fleet_spans_past_the_duration_ceiling_are_rejected() {
        let fleet = |keys: &str| {
            Scenario::parse(&format!(
                "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"fleet\"\n\
                 systems = [\"H100\"]\ncaps = [4]\n{keys}"
            ))
        };
        // 160 requests (the default trace) at 2e-4/s span 8e5 s, under
        // the ceiling; at 1e-8/s they would span 1.6e10 s of 0.25 s checks.
        assert!(fleet("rates = [2e-4]\nautoscale = true").is_ok());
        assert!(
            fleet("rates = [1e-8]").is_ok(),
            "a fixed fleet has no span bound"
        );
        assert!(fleet("rates = [2e-6]\nrequests = 1\nautoscale = true").is_ok());
        for keys in [
            "rates = [1e-8]\nautoscale = true",
            "rates = [8.0, 1.5e-4]\nautoscale = true",
            "rates = [8.0]\nrequests = 10000000\nautoscale = true",
        ] {
            let err = fleet(keys).unwrap_err();
            assert!(
                matches!(err, ScenarioError::Invalid { .. })
                    && err.to_string().contains("requests / rate"),
                "{keys}: {err}"
            );
        }
    }

    #[test]
    fn cells_sharing_a_label_must_share_their_configuration() {
        // Two serve sweeps that differ only in `seed` expand to one label,
        // and the second would overwrite the first one's metrics.
        let two_seeds = "schema = 1\nname = \"x\"\n\
            [[sweep]]\nworkload = \"serve\"\nsystems = [\"A100\"]\nrates = [32.0]\ncaps = [16]\nseed = 1\n\
            [[sweep]]\nworkload = \"serve\"\nsystems = [\"A100\"]\nrates = [32.0]\ncaps = [16]\nseed = 2\n";
        let err = Scenario::parse(two_seeds).unwrap_err();
        assert!(
            matches!(err, ScenarioError::Invalid { .. })
                && err.to_string().contains("`serve/A100/bf16/r32/c16`"),
            "{err}"
        );
        // The same collision built in code fails the same check.
        let mut native = Scenario::parse(&two_seeds.replace("seed = 2", "seed = 1")).unwrap();
        native.sweeps[1].seed = Some(2);
        assert_eq!(native.check(), Err(err));
        // Fleet sizes and LLM windows are not in the label either.
        let fleet =
            "[[sweep]]\nworkload = \"fleet\"\nsystems = [\"H100\"]\nrates = [8.0]\ncaps = [4]\n";
        assert!(Scenario::parse(&format!(
            "schema = 1\nname = \"x\"\n{fleet}replicas = 2\n{fleet}replicas = 3\n"
        ))
        .is_err());
        let llm = "[[sweep]]\nworkload = \"llm\"\nsystems = [\"A100\"]\nbatches = [512]\n";
        assert!(Scenario::parse(&format!(
            "schema = 1\nname = \"x\"\n{llm}duration_s = 60.0\n{llm}duration_s = 120.0\n"
        ))
        .is_err());
        // An identical repeat stays valid: the file twin of `caraml serve
        // A100 --precision all` runs serve/A100/bf16/r32/c64 in both sweeps.
        let repeat = Scenario::parse(
            "schema = 1\nname = \"serve\"\n\
             [[sweep]]\nworkload = \"serve\"\nsystems = [\"A100\"]\n\
             rates = [2.0, 8.0, 32.0, 128.0]\ncaps = [4, 16, 64]\n\
             [[sweep]]\nworkload = \"serve\"\nsystems = [\"A100\"]\n\
             precisions = [\"f32\", \"bf16\", \"int8\"]\nrates = [32.0]\ncaps = [64]\n",
        )
        .unwrap();
        assert_eq!(repeat.cell_count(), 15);
        repeat.check().unwrap();
    }

    #[test]
    fn check_applies_the_range_rules_to_native_specs() {
        let base = SweepSpec {
            systems: vec![SystemId::H100Jrdc],
            rates: vec![8.0],
            caps: vec![4],
            ..SweepSpec::new(WorkloadKind::Fleet)
        };
        base.check("t").unwrap();
        let bad = [
            (
                SweepSpec {
                    rates: vec![f64::NAN],
                    ..base.clone()
                },
                "rates",
            ),
            (
                SweepSpec {
                    replicas: 1,
                    disagg: true,
                    ..base.clone()
                },
                "disagg",
            ),
            (
                SweepSpec {
                    precisions: vec![Precision::Int8],
                    replica_precisions: vec![Precision::F32],
                    ..base.clone()
                },
                "exclusive",
            ),
            (
                SweepSpec {
                    arrival: ArrivalKind::Bursty {
                        burst_factor: f64::INFINITY,
                        mean_burst: 6.0,
                    },
                    ..base.clone()
                },
                "bursty",
            ),
            (
                SweepSpec {
                    workload: WorkloadKind::Inference,
                    batches: vec![1 << 32],
                    ..base.clone()
                },
                "batch sizes",
            ),
        ];
        for (spec, needle) in bad {
            let err = spec.check("t").unwrap_err().to_string();
            assert!(err.starts_with("t: ") && err.contains(needle), "{err}");
        }
    }

    #[test]
    fn example_twin_round_trips_through_toml() {
        // The committed examples/scenario.toml must parse to exactly the
        // native twin — this is the spec half of `--check`; the
        // integration test covers the metric half.
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenario.toml"),
        )
        .expect("examples/scenario.toml exists");
        let parsed = Scenario::parse(&text).unwrap();
        assert_eq!(parsed, Scenario::example());
        check_against_native(&parsed, &Scenario::example()).unwrap();
    }
}
