//! Fleet-scale serving: replica routing, autoscaling, and
//! prefill/decode disaggregation on the crate's one serving event loop.
//!
//! This module puts N replica batchers (per-class FIFO queues, deadline
//! shedding, KV-reservation admission, prefill and decode priced by one
//! `ServeCost` roofline model) behind a deterministic event-driven
//! router with pluggable policies ([`RoutePolicy`]): round-robin,
//! least-KV-load (byte-aware balancing), and session affinity (sticky
//! per-user routing). Single-node serving ([`crate::serve`]) is the
//! one-replica case: one replica, round-robin, no autoscaling, not
//! disaggregated, no prefix reuse. On top of the router sit three fleet
//! mechanisms:
//!
//! * **Autoscaling** ([`AutoscaleConfig`]): a periodic queue-depth check
//!   spins up replicas with a cold-start delay taken from the device
//!   model ([`NodeConfig::cold_start_s`] — weight staging over the
//!   host link plus runtime bring-up, logged as a `Staging` phase) and
//!   drains replicas back down, with hysteresis enforced by a cooldown
//!   window. Every action is recorded as a [`ScaleEvent`].
//! * **Prefill/decode disaggregation**: prefill replicas run prompt
//!   processing only and hand the KV state off to decode replicas over
//!   the registry's interconnect link model
//!   ([`NodeConfig::kv_transfer_link`], alpha–beta cost, logged as a
//!   `Communication` phase on the prefill replica).
//! * **Prefix/KV-cache reuse**: requests sharing a system prompt
//!   (grouped by [`FleetRequest::prefix_group`]) skip the shared-prefix
//!   portion of prefill once a replica has that prefix cached.
//!
//! Everything runs on the virtual clock — the whole fleet is pure math
//! over the seeded trace, so [`FleetFom`]s are bit-identical across
//! rayon thread counts and across sharded execution
//! (`tests/fleet_determinism.rs`), and every scheduling invariant is
//! property-tested (`tests/fleet_props.rs`): router conservation,
//! affinity stickiness, budget-aware least-load routing, autoscaler
//! hysteresis, and the prefix-reuse bound.

use crate::engine::{self, Executed, MeterSpec, PhasePlan, PhaseSpec, RunContext, RunOutcome};
use crate::fom::FleetFom;
use crate::serve::{
    arrival_trace, Request, RequestOutcome, RequestRecord, RequestSummary, ServeBenchmark,
    ServeConfig, ServePoint, ShedReason, SloClass,
};
use crate::sweep::{ShardPlan, ShardedSweep, SweepRunner};
use caraml_accel::spec::{DeviceSpec, Workload as SpecWorkload};
use caraml_accel::{
    AccelError, KernelProfile, Link, NodeConfig, PhaseKind, Precision, RooflineModel, SystemId,
};
use jube::SlurmSim;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Seed perturbation for the fleet-specific request attributes (session
/// and prefix-group draws), so they are independent of the arrival
/// process but still fully determined by the config seed.
const FLEET_ATTR_SEED_XOR: u64 = 0x5eed_f1ee;

/// Per-step launch overhead, seconds. Decode loops are CUDA-graph
/// captured in production inference stacks, so the per-token overhead is
/// far below the training path's kernel-by-kernel launches.
const SERVE_LAUNCH_OVERHEAD_S: f64 = 5e-5;

/// How the router picks a replica for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cycle through the active replicas in id order.
    RoundRobin,
    /// Send each request to the replica with the most free KV-cache
    /// headroom (budget − reservations − queued demand − this request's
    /// need), ties to the lowest id. Byte-aware, so it beats
    /// count-aware balancing when request KV footprints vary.
    LeastKvLoad,
    /// Pin each session to one replica (first contact assigns
    /// round-robin); reassign only when the pinned replica leaves the
    /// active set. Maximises prefix-cache hits, risks hot spots.
    SessionAffinity,
}

impl RoutePolicy {
    pub const ALL: [RoutePolicy; 3] = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastKvLoad,
        RoutePolicy::SessionAffinity,
    ];

    /// The CLI spelling of this policy.
    pub fn tag(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::LeastKvLoad => "least-kv-load",
            RoutePolicy::SessionAffinity => "session-affinity",
        }
    }

    /// Parse a CLI policy tag; the error lists the valid spellings.
    pub fn try_from_tag(tag: &str) -> Result<RoutePolicy, String> {
        RoutePolicy::ALL
            .iter()
            .find(|p| p.tag() == tag)
            .copied()
            .ok_or_else(|| {
                let valid: Vec<&str> = RoutePolicy::ALL.iter().map(|p| p.tag()).collect();
                format!("unknown policy '{tag}', valid: {}", valid.join(", "))
            })
    }
}

impl std::fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Queue-depth-driven autoscaler settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Never drain below this many active replicas.
    pub min_replicas: u32,
    /// Never provision above this many (active + starting) replicas.
    pub max_replicas: u32,
    /// Seconds between queue-depth checks.
    pub check_interval_s: f64,
    /// Scale up when queued requests per active replica reach this.
    pub queue_high: f64,
    /// Scale down when queued requests per active replica fall to this.
    pub queue_low: f64,
    /// Minimum seconds between consecutive scale actions (hysteresis:
    /// an up and a down can never land inside one window).
    pub cooldown_s: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            min_replicas: 1,
            max_replicas: 8,
            check_interval_s: 0.25,
            queue_high: 4.0,
            queue_low: 0.25,
            cooldown_s: 2.0,
        }
    }
}

/// What a replica does in a disaggregated fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Prefill and decode on the same replica (non-disaggregated).
    Unified,
    /// Prompt processing only; KV state is handed off after prefill.
    Prefill,
    /// Token generation only; receives KV state over the interconnect.
    Decode,
}

/// One request of the fleet trace: the base serving request plus the
/// fleet-level attributes the router and prefix cache key on.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequest {
    pub base: Request,
    /// User-session id in `0..sessions` ([`RoutePolicy::SessionAffinity`]).
    pub session: u32,
    /// Shared-system-prompt group in `0..prefix_groups`.
    pub prefix_group: u32,
}

/// Configuration of the fleet benchmark (everything except the swept
/// load point).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-replica serving config: system, model, trace shape, SLOs,
    /// KV headroom, and the base storage precision.
    pub serve: ServeConfig,
    /// Replicas provisioned before the trace starts.
    pub replicas: u32,
    pub policy: RoutePolicy,
    /// `None` disables autoscaling (fixed fleet).
    pub autoscale: Option<AutoscaleConfig>,
    /// Split the fleet into prefill and decode pools with KV handoff
    /// over the interconnect. Requires at least two replicas.
    pub disaggregated: bool,
    /// Distinct user sessions the trace draws from.
    pub sessions: u32,
    /// Distinct shared-system-prompt groups; 0 disables prefix reuse.
    pub prefix_groups: u32,
    /// Tokens of shared system prompt per group (clamped per request to
    /// its prompt length).
    pub shared_prefix_tokens: u64,
    /// Per-replica storage precision: replica `i` uses entry `i % len`.
    /// `None` puts every replica at `serve.precision`.
    pub replica_precisions: Option<Vec<Precision>>,
}

/// One scale action of the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    pub at_s: f64,
    pub kind: ScaleKind,
    /// Provisioned (active + starting, non-draining) replicas after the
    /// action.
    pub replicas_after: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleKind {
    Up,
    Down,
}

/// One routing decision, recorded for the property tests: which replica
/// an arrival landed on and the KV headroom evidence behind the choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteDecision {
    /// Request id (trace order).
    pub request: u32,
    pub at_s: f64,
    pub replica: u32,
    pub session: u32,
    /// Free KV headroom of the chosen replica *after* subtracting this
    /// request's reservation, bytes; negative = over budget.
    pub chosen_headroom: i64,
    /// Best headroom available among all candidates at decision time.
    pub best_headroom: i64,
    /// Scale events recorded before this decision — equal epochs mean
    /// the active set did not change between two decisions.
    pub scale_epoch: u32,
}

/// Per-replica accounting of one fleet simulation.
#[derive(Debug, Clone)]
pub struct ReplicaReport {
    pub id: u32,
    pub role: ReplicaRole,
    pub precision: Precision,
    /// Phase schedule covering `[0, makespan]` (idle-padded).
    pub phases: Vec<PhaseSpec>,
    pub weight_bytes: u64,
    pub kv_budget_bytes: u64,
    pub max_kv_reserved_bytes: u64,
    pub max_occupancy: u32,
    pub decode_steps: u64,
    pub spawned_at_s: f64,
}

/// Raw output of one fleet simulation, before power measurement.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Terminal per-request records: exactly one terminal state per
    /// request.
    pub records: Vec<RequestRecord>,
    /// One routing decision per request, in arrival order.
    pub decisions: Vec<RouteDecision>,
    pub scale_events: Vec<ScaleEvent>,
    pub replicas: Vec<ReplicaReport>,
    pub makespan_s: f64,
    pub served_tokens: u64,
    pub decode_steps: u64,
    /// KV handoffs delivered to decode replicas (disaggregated mode).
    pub handoffs: u64,
    pub handoff_bytes: u64,
    /// Prefill tokens skipped thanks to cached shared prefixes.
    pub reused_prefix_tokens: u64,
    /// Per-request reused prefix tokens, indexed by request id.
    pub reused_by_request: Vec<u64>,
    /// Prompt tokens of all admitted requests (denominator of the
    /// prefix-reuse fraction).
    pub admitted_prompt_tokens: u64,
    /// Peak provisioned replica count.
    pub replicas_peak: u32,
}

/// The fleet benchmark: a config plus `run`/`simulate`/`sweep` entry
/// points mirroring [`ServeBenchmark`].
#[derive(Debug, Clone)]
pub struct FleetBenchmark {
    pub config: FleetConfig,
}

impl FleetBenchmark {
    /// Default setup: 4 replicas of the 800M-GPT serving stack behind a
    /// round-robin router; no autoscaling, no disaggregation, 32
    /// sessions, 4 prefix groups sharing a 32-token system prompt.
    pub fn new(system: SystemId) -> Self {
        FleetBenchmark {
            config: FleetConfig {
                serve: ServeBenchmark::new(system).config,
                replicas: 4,
                policy: RoutePolicy::RoundRobin,
                autoscale: None,
                disaggregated: false,
                sessions: 32,
                prefix_groups: 4,
                shared_prefix_tokens: 32,
                replica_precisions: None,
            },
        }
    }

    pub fn with_policy(mut self, policy: RoutePolicy) -> Self {
        self.config.policy = policy;
        self
    }

    pub fn with_replicas(mut self, replicas: u32) -> Self {
        self.config.replicas = replicas;
        self
    }

    /// Put every replica (including scaled-up ones) at one precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.config.serve.precision = precision;
        self.config.replica_precisions = None;
        self
    }

    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.config.autoscale = Some(autoscale);
        self
    }

    pub fn disaggregated(mut self, on: bool) -> Self {
        self.config.disaggregated = on;
        self
    }

    /// Storage precision of replica `id` under this config.
    pub fn precision_of(&self, id: u32) -> Precision {
        match &self.config.replica_precisions {
            Some(v) if !v.is_empty() => v[id as usize % v.len()],
            _ => self.config.serve.precision,
        }
    }

    /// Highest replica count this fleet can reach.
    pub fn peak_replicas(&self) -> u32 {
        match &self.config.autoscale {
            Some(a) => self.config.replicas.max(a.max_replicas),
            None => self.config.replicas,
        }
    }

    /// Simulated nodes the fleet needs on a [`SlurmSim`] partition: one
    /// device per replica at peak scale.
    pub fn nodes_required(&self) -> u32 {
        NodeConfig::shared(self.config.serve.system).nodes_for(self.peak_replicas())
    }

    fn validate(&self, point: ServePoint) -> Result<(), AccelError> {
        self.config.serve.validate(point)?;
        let cfg = &self.config;
        if cfg.replicas == 0 {
            return Err(AccelError::InvalidConfig(
                "fleet needs at least one replica".into(),
            ));
        }
        if cfg.disaggregated && cfg.replicas < 2 {
            return Err(AccelError::InvalidConfig(
                "disaggregation needs a prefill and a decode replica".into(),
            ));
        }
        if cfg.sessions == 0 {
            return Err(AccelError::InvalidConfig(
                "fleet trace needs at least one session".into(),
            ));
        }
        if let Some(a) = &cfg.autoscale {
            if a.min_replicas == 0 || a.max_replicas < a.min_replicas {
                return Err(AccelError::InvalidConfig(
                    "autoscale bounds must satisfy 1 <= min <= max".into(),
                ));
            }
            if a.check_interval_s <= 0.0 || a.cooldown_s < 0.0 {
                return Err(AccelError::InvalidConfig(
                    "autoscale intervals must be positive".into(),
                ));
            }
        }
        // Every precision a replica can ever run at must fit the device.
        let node = NodeConfig::shared(cfg.serve.system);
        for id in 0..self.peak_replicas() {
            let cost = ServeCost::new(&node.device, &cfg.serve.model, self.precision_of(id));
            if cost.weight_bytes >= node.device.mem_bytes {
                return Err(AccelError::OutOfMemory {
                    device: node.device.name.clone(),
                    requested: cost.weight_bytes,
                    available: node.device.mem_bytes,
                    capacity: node.device.mem_bytes,
                });
            }
        }
        Ok(())
    }

    /// Pure fleet simulation of one load point — no power measurement.
    /// This is what the property and determinism tests drive.
    pub fn simulate(&self, point: ServePoint) -> Result<FleetReport, AccelError> {
        self.validate(point)?;
        Ok(simulate_fleet(self, point))
    }

    /// Run one load point end-to-end: simulate the fleet, then meter
    /// every replica's phase schedule and sum the meters in id order.
    pub fn run(&self, point: ServePoint) -> Result<FleetFom, AccelError> {
        let report = self.simulate(point)?;
        let meters = self.meter(&report)?;
        Ok(self.assemble_fom(point, &report, &meters))
    }

    /// Meter every replica's phase schedule through the engine, one
    /// fresh [`RunContext`] per replica, in id order — deterministic.
    pub(crate) fn meter(&self, report: &FleetReport) -> Result<Vec<ReplicaMeter>, AccelError> {
        report
            .replicas
            .iter()
            .map(|replica| {
                engine::execute(&ReplicaPhases {
                    system: self.config.serve.system,
                    replica,
                    makespan_s: report.makespan_s,
                })
                .into_result()
            })
            .collect()
    }

    /// Compare routing policies on the same trace and load point; the
    /// grid fans out over the runner like every other benchmark family.
    pub fn sweep_policies(
        &self,
        runner: SweepRunner,
        point: ServePoint,
        policies: Vec<RoutePolicy>,
    ) -> Vec<RunOutcome<FleetFom>> {
        let base = self.config.clone();
        runner.map(policies, move |policy| {
            let bench = FleetBenchmark {
                config: base.clone(),
            }
            .with_policy(policy);
            RunOutcome::from_result(bench.run(point))
        })
    }

    /// [`FleetBenchmark::sweep_policies`] sharded across a [`SlurmSim`]
    /// partition: each shard is one multi-node job sized to the fleet's
    /// peak replica count. Results merge back in grid order,
    /// bit-identical to the serial sweep.
    pub fn sweep_policies_sharded(
        &self,
        slurm: &Arc<SlurmSim>,
        plan: ShardPlan,
        point: ServePoint,
        policies: Vec<RoutePolicy>,
    ) -> ShardedSweep<RunOutcome<FleetFom>> {
        let base = self.config.clone();
        let nodes = self.nodes_required();
        SweepRunner::parallel().map_sharded_with(
            slurm,
            plan,
            policies,
            |_| nodes,
            move |policy| {
                let bench = FleetBenchmark {
                    config: base.clone(),
                }
                .with_policy(policy);
                RunOutcome::from_result(bench.run(point))
            },
        )
    }

    fn assemble_fom(
        &self,
        point: ServePoint,
        report: &FleetReport,
        meters: &[ReplicaMeter],
    ) -> FleetFom {
        let s = RequestSummary::new(
            report,
            &self.config.serve.slo,
            meters.iter().map(|m| m.energy_wh).sum(),
        );
        let (up, down) = report
            .scale_events
            .iter()
            .fold((0u32, 0u32), |(u, d), e| match e.kind {
                ScaleKind::Up => (u + 1, d),
                ScaleKind::Down => (u, d + 1),
            });
        FleetFom {
            system: NodeConfig::shared(self.config.serve.system)
                .platform
                .clone(),
            policy: self.config.policy.tag().to_string(),
            precision: self.config.serve.precision,
            rate_per_s: point.rate_per_s,
            batch_cap: point.batch_cap,
            replicas_base: self.config.replicas,
            replicas_peak: report.replicas_peak,
            requests: s.requests,
            served: s.served,
            shed: s.shed,
            ttft: s.ttft,
            tpot: s.tpot,
            tokens_per_s: s.tokens_per_s,
            goodput_tokens_per_s: s.goodput_tokens_per_s,
            slo_attainment: s.slo_attainment,
            energy_wh_per_ktoken: s.energy_wh_per_ktoken,
            mean_fleet_power_w: meters.iter().map(|m| m.mean_power_w).sum(),
            scale_up_events: up,
            scale_down_events: down,
            kv_handoffs: report.handoffs,
            kv_handoff_gb: report.handoff_bytes as f64 / 1e9,
            prefix_reuse_frac: if report.admitted_prompt_tokens > 0 {
                report.reused_prefix_tokens as f64 / report.admitted_prompt_tokens as f64
            } else {
                0.0
            },
        }
    }
}

/// Deterministically extend the serving arrival trace with the fleet
/// attributes: session ids and shared-prefix groups, drawn from a rng
/// seeded independently of (but derived from) the config seed.
pub fn fleet_trace(cfg: &FleetConfig, rate_per_s: f64) -> Vec<FleetRequest> {
    let base = arrival_trace(&cfg.serve, rate_per_s);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.serve.seed ^ FLEET_ATTR_SEED_XOR);
    base.into_iter()
        .map(|r| {
            let session = rng.gen_range(0..cfg.sessions.max(1));
            let prefix_group = if cfg.prefix_groups > 0 {
                rng.gen_range(0..cfg.prefix_groups)
            } else {
                0
            };
            FleetRequest {
                base: r,
                session,
                prefix_group,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Simulation internals
// ---------------------------------------------------------------------

/// The serving roofline: prices prefill and decode steps of one model on
/// one device. The fleet's replica batchers and the offline
/// [`crate::inference`] benchmark both price through it.
pub(crate) struct ServeCost {
    fwd_flops_per_token: f64,
    /// Weight bytes at the selected precision.
    pub(crate) weight_bytes: u64,
    /// K and V bytes across all layers per cached token.
    pub(crate) kv_bytes_per_token: f64,
    roofline: RooflineModel,
    mfu_max: f64,
    sustained_w: f64,
}

impl ServeCost {
    pub(crate) fn new(
        spec: &DeviceSpec,
        model: &caraml_models::GptConfig,
        precision: Precision,
    ) -> Self {
        let cost = caraml_models::gpt::cost::GptCost::new(model.clone());
        let calib = spec.calib(SpecWorkload::Llm);
        ServeCost {
            fwd_flops_per_token: cost.forward_flops_per_token(),
            weight_bytes: cost.weight_bytes(precision),
            // K and V across all layers at the selected precision.
            kv_bytes_per_token: cost.kv_bytes_per_token(precision),
            roofline: RooflineModel::from_parts(
                spec.peak_fp16_flops(),
                spec.mem_bw_bytes_per_s(),
                calib.mfu_max,
                calib.batch_half,
                SERVE_LAUNCH_OVERHEAD_S,
            ),
            mfu_max: calib.mfu_max,
            sustained_w: spec.llm.sustained_w,
        }
    }

    /// `(duration_s, utilization)` of a prefill over `tokens` prompt
    /// tokens (compute-bound, like a training forward pass).
    pub(crate) fn prefill(&self, tokens: u64) -> (f64, f64) {
        let profile = KernelProfile::new(
            self.fwd_flops_per_token * tokens as f64,
            self.weight_bytes as f64 * 2.0,
        );
        let est = self.roofline.estimate(&profile, tokens as f64);
        (est.time_s, (est.mfu / self.mfu_max).clamp(0.0, 1.0))
    }

    /// `(duration_s, utilization, compute_bound)` of one decode step over
    /// `batch` concurrent requests that together read `kv_read_bytes` of
    /// KV cache. Every step re-reads all weights, so at small batch the
    /// step is memory-bound.
    pub(crate) fn decode_step(&self, batch: u32, kv_read_bytes: f64) -> (f64, f64, bool) {
        let profile = KernelProfile::new(
            self.fwd_flops_per_token * f64::from(batch),
            self.weight_bytes as f64 + kv_read_bytes,
        );
        let est = self.roofline.estimate(&profile, f64::from(batch));
        let u = if est.compute_bound {
            (est.mfu / self.mfu_max).clamp(0.0, 1.0)
        } else {
            (est.compute_s / est.time_s).clamp(0.05, 1.0) * 0.7 + 0.2
        };
        (est.time_s, u, est.compute_bound)
    }
}

/// A request currently decoding.
struct Running {
    idx: usize,
    remaining: u64,
    /// KV tokens currently resident (grows by one per decode step).
    kv_tokens: u64,
    /// Full-lifetime KV reservation, bytes.
    kv_reserved: u64,
}

/// Phase accumulator that merges exact-duplicate consecutive phases (a
/// long idle gap or a run of identical decode steps become one phase).
struct PhaseLog {
    phases: Vec<PhaseSpec>,
    t: f64,
}

impl PhaseLog {
    fn new() -> Self {
        PhaseLog {
            phases: Vec::new(),
            t: 0.0,
        }
    }

    fn push(&mut self, kind: PhaseKind, label: &'static str, duration_s: f64, u: f64, w: f64) {
        if duration_s <= 0.0 {
            return;
        }
        self.t += duration_s;
        if let Some(last) = self.phases.last_mut() {
            if last.kind == kind
                && last.label == label
                && last.utilization == u
                && last.sustained_w == w
            {
                last.duration_s += duration_s;
                return;
            }
        }
        self.phases.push(PhaseSpec {
            kind,
            label,
            active: 1,
            duration_s,
            utilization: u,
            sustained_w: w,
        });
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    /// Provisioned, cold-starting; becomes Active at `ready_at_s`.
    Starting,
    Active,
    /// Marked for scale-down: finishes queued/running work, then stops.
    Draining,
    Stopped,
}

/// A KV handoff in flight from a prefill to a decode replica.
struct Handoff {
    idx: usize,
    src: u32,
    /// Prefill-side reservation released when the transfer lands.
    src_reserved: u64,
    deliver_s: f64,
}

/// A delivered handoff waiting for decode-side admission.
struct PendingDecode {
    idx: usize,
    /// Decode-side full-lifetime reservation, bytes.
    kv_reserved: u64,
}

struct Replica {
    id: u32,
    role: ReplicaRole,
    precision: Precision,
    cost: ServeCost,
    kv_budget: u64,
    state: ReplicaState,
    ready_at_s: f64,
    busy_until_s: f64,
    log: PhaseLog,
    /// FIFO queues of trace indices, Interactive before Batch.
    queues: [VecDeque<usize>; 2],
    /// Lifetime KV demand of everything queued, bytes.
    queued_kv_demand: u64,
    pending: VecDeque<PendingDecode>,
    pending_kv_demand: u64,
    running: Vec<Running>,
    kv_reserved: u64,
    cached_groups: Vec<bool>,
    max_occupancy: u32,
    max_kv_reserved: u64,
    decode_steps: u64,
    spawned_at_s: f64,
}

struct Shared<'t> {
    trace: &'t [FleetRequest],
    cfg: &'t FleetConfig,
    batch_cap: u32,
    link: Link,
    records: Vec<Option<RequestRecord>>,
    admit_seq: u32,
    served_tokens: u64,
    admitted_prompt_tokens: u64,
    reused_by_request: Vec<u64>,
    reused_total: u64,
    handoffs: Vec<Handoff>,
    handoff_count: u64,
    handoff_bytes: u64,
}

fn shed_record(r: &Request, at_s: f64, reason: ShedReason) -> RequestRecord {
    RequestRecord {
        id: r.id,
        class: r.class,
        arrival_s: r.arrival_s,
        gen_tokens: r.gen_tokens,
        outcome: RequestOutcome::Shed { at_s, reason },
    }
}

fn class_slot(c: SloClass) -> usize {
    match c {
        SloClass::Interactive => 0,
        SloClass::Batch => 1,
    }
}

impl Replica {
    #[allow(clippy::too_many_arguments)]
    fn provision(
        id: u32,
        role: ReplicaRole,
        precision: Precision,
        node: &NodeConfig,
        cfg: &FleetConfig,
        now: f64,
        cold_start: bool,
    ) -> Replica {
        let cost = ServeCost::new(&node.device, &cfg.serve.model, precision);
        debug_assert!(cost.weight_bytes < node.device.mem_bytes, "validated");
        let kv_budget =
            ((node.device.mem_bytes - cost.weight_bytes) as f64 * cfg.serve.kv_mem_frac) as u64;
        let mut log = PhaseLog::new();
        let (state, ready_at_s) = if cold_start {
            // Pad from fleet start, then stage weights over the host
            // link: the cold-start delay of the device model.
            let delay = node.cold_start_s(cost.weight_bytes);
            if now > 0.0 {
                log.push(PhaseKind::Idle, "idle", now, 0.0, cost.sustained_w);
            }
            log.push(
                PhaseKind::Staging,
                "cold-start",
                delay,
                0.2,
                cost.sustained_w,
            );
            (ReplicaState::Starting, now + delay)
        } else {
            (ReplicaState::Active, now)
        };
        let ready = ready_at_s;
        Replica {
            id,
            role,
            precision,
            cost,
            kv_budget,
            state,
            ready_at_s: ready,
            busy_until_s: ready,
            log,
            queues: [VecDeque::new(), VecDeque::new()],
            queued_kv_demand: 0,
            pending: VecDeque::new(),
            pending_kv_demand: 0,
            running: Vec::new(),
            kv_reserved: 0,
            cached_groups: vec![false; cfg.prefix_groups as usize],
            max_occupancy: 0,
            max_kv_reserved: 0,
            decode_steps: 0,
            spawned_at_s: now,
        }
    }

    fn is_routable(&self) -> bool {
        self.state == ReplicaState::Active && self.role != ReplicaRole::Decode
    }

    fn is_provisioned(&self) -> bool {
        matches!(self.state, ReplicaState::Starting | ReplicaState::Active)
    }

    /// Full-lifetime KV reservation this replica would make for `r`:
    /// prompt + generation on a decoding (unified or decode) replica,
    /// prompt + first token on a prefill-only replica — exactly the KV
    /// state its handoff ships, released when the handoff lands.
    fn lifetime_kv(&self, r: &Request) -> u64 {
        let tokens = if self.role == ReplicaRole::Prefill {
            r.prompt_tokens + 1
        } else {
            r.prompt_tokens + r.gen_tokens
        };
        (self.cost.kv_bytes_per_token * tokens as f64) as u64
    }

    /// Free KV headroom if `r` were routed here, bytes (negative =
    /// over budget). Counts live reservations plus everything already
    /// queued or pending.
    fn headroom_for(&self, r: &Request) -> i64 {
        let load = self.kv_reserved as i128
            + self.queued_kv_demand as i128
            + self.pending_kv_demand as i128
            + self.lifetime_kv(r) as i128;
        (self.kv_budget as i128 - load).clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    fn queued(&self) -> usize {
        self.queues[0].len() + self.queues[1].len() + self.pending.len()
    }

    fn has_work(&self) -> bool {
        self.queued() > 0 || !self.running.is_empty()
    }

    fn pad_idle_to(&mut self, t: f64) {
        let gap = t - self.log.t;
        if gap > 0.0 {
            self.log
                .push(PhaseKind::Idle, "idle", gap, 0.0, self.cost.sustained_w);
        }
    }

    /// One scheduling round at time `now`: shed expired queue heads,
    /// admit + prefill, or run one decode step. Returns true when the
    /// replica did work (and is busy until `busy_until_s`).
    fn round(&mut self, sh: &mut Shared<'_>, now: f64) -> bool {
        // Shed expired queue heads. Arrival order is FIFO per class and
        // the wait budget is uniform within a class, so waits are
        // monotone: once the head is inside budget the rest are too.
        for slot in 0..self.queues.len() {
            while let Some(&i) = self.queues[slot].front() {
                let r = &sh.trace[i].base;
                if now - r.arrival_s > sh.cfg.serve.slo.max_queue_wait_s(r.class) {
                    self.queues[slot].pop_front();
                    self.queued_kv_demand -= self.lifetime_kv(r);
                    sh.records[i] = Some(shed_record(r, now, ShedReason::DeadlineExceeded));
                } else {
                    break;
                }
            }
        }

        // Decode-side admission of delivered handoffs (FIFO).
        while self.running.len() < sh.batch_cap as usize {
            let Some(front) = self.pending.front() else {
                break;
            };
            if self.kv_reserved + front.kv_reserved > self.kv_budget {
                break;
            }
            let p = self.pending.pop_front().expect("front checked");
            self.pending_kv_demand -= p.kv_reserved;
            self.kv_reserved += p.kv_reserved;
            let r = &sh.trace[p.idx].base;
            self.running.push(Running {
                idx: p.idx,
                remaining: r.gen_tokens - 1,
                kv_tokens: r.prompt_tokens + 1,
                kv_reserved: p.kv_reserved,
            });
        }

        // Queue admission: class priority, FIFO within a class, bounded
        // by the occupancy cap and the KV budget.
        let mut admitted: Vec<usize> = Vec::new();
        'admit: for slot in 0..self.queues.len() {
            while (self.running.len() + admitted.len()) < sh.batch_cap as usize {
                let Some(&i) = self.queues[slot].front() else {
                    break;
                };
                let r = &sh.trace[i].base;
                let needed = self.lifetime_kv(r);
                if needed > self.kv_budget {
                    // Can never fit this replica: shed explicitly.
                    self.queues[slot].pop_front();
                    self.queued_kv_demand -= needed;
                    sh.records[i] = Some(shed_record(r, now, ShedReason::KvCacheOverflow));
                    continue;
                }
                if self.kv_reserved + needed > self.kv_budget {
                    continue 'admit;
                }
                self.queues[slot].pop_front();
                self.queued_kv_demand -= needed;
                self.kv_reserved += needed;
                admitted.push(i);
            }
        }

        if !admitted.is_empty() {
            self.pad_idle_to(now);
            // Prefix reuse: a cached shared prefix skips its prefill
            // compute; the first request of a group on this replica
            // populates the cache.
            let mut prefill_tokens = 0u64;
            for &i in &admitted {
                let fr = &sh.trace[i];
                let reused =
                    if sh.cfg.prefix_groups > 0 && self.cached_groups[fr.prefix_group as usize] {
                        sh.cfg.shared_prefix_tokens.min(fr.base.prompt_tokens)
                    } else {
                        0
                    };
                if sh.cfg.prefix_groups > 0 {
                    self.cached_groups[fr.prefix_group as usize] = true;
                }
                sh.reused_by_request[i] = reused;
                sh.reused_total += reused;
                sh.admitted_prompt_tokens += fr.base.prompt_tokens;
                prefill_tokens += fr.base.prompt_tokens - reused;
            }
            let (dt, u) = self.cost.prefill(prefill_tokens.max(1));
            let admit_s = now;
            self.log
                .push(PhaseKind::Compute, "prefill", dt, u, self.cost.sustained_w);
            let first_token_s = self.log.t;
            let mut staged: Vec<(usize, u64)> = Vec::new();
            let mut handoff_bytes = 0u64;
            for &i in &admitted {
                let r = &sh.trace[i].base;
                let reserved = self.lifetime_kv(r);
                sh.records[i] = Some(RequestRecord {
                    id: r.id,
                    class: r.class,
                    arrival_s: r.arrival_s,
                    gen_tokens: r.gen_tokens,
                    outcome: RequestOutcome::Served {
                        admit_seq: sh.admit_seq,
                        admit_s,
                        first_token_s,
                        finish_s: if r.gen_tokens <= 1 {
                            first_token_s
                        } else {
                            f64::NAN // patched at decode completion
                        },
                        tokens: r.gen_tokens,
                    },
                });
                sh.admit_seq += 1;
                if r.gen_tokens <= 1 {
                    // The prefill emitted the single requested token.
                    self.kv_reserved -= reserved;
                    sh.served_tokens += r.gen_tokens;
                } else if self.role == ReplicaRole::Prefill {
                    // A prefill replica reserves exactly the KV state
                    // the handoff ships.
                    staged.push((i, reserved));
                    handoff_bytes += reserved;
                } else {
                    self.running.push(Running {
                        idx: i,
                        remaining: r.gen_tokens - 1,
                        kv_tokens: r.prompt_tokens + 1,
                        kv_reserved: reserved,
                    });
                }
            }
            if !staged.is_empty() {
                // One combined KV transfer over the interconnect; the
                // prefill replica is busy for its duration.
                let dtx = sh.link.transfer_time_s(handoff_bytes);
                self.log.push(
                    PhaseKind::Communication,
                    "kv-handoff",
                    dtx,
                    0.1,
                    self.cost.sustained_w,
                );
                let deliver_s = self.log.t;
                sh.handoff_count += staged.len() as u64;
                sh.handoff_bytes += handoff_bytes;
                for (i, src_reserved) in staged {
                    sh.handoffs.push(Handoff {
                        idx: i,
                        src: self.id,
                        src_reserved,
                        deliver_s,
                    });
                }
            }
            self.max_occupancy = self.max_occupancy.max(self.running.len() as u32);
            self.max_kv_reserved = self.max_kv_reserved.max(self.kv_reserved);
            self.busy_until_s = self.log.t;
            return true;
        }

        if self.running.is_empty() {
            if self.state == ReplicaState::Draining && !self.has_work() {
                self.state = ReplicaState::Stopped;
            }
            return false;
        }

        // One decode step over the whole running batch.
        self.pad_idle_to(now);
        let kv_tokens: u64 = self.running.iter().map(|r| r.kv_tokens).sum();
        let (dt, u, _) = self.cost.decode_step(
            self.running.len() as u32,
            self.cost.kv_bytes_per_token * kv_tokens as f64,
        );
        self.log
            .push(PhaseKind::Compute, "decode", dt, u, self.cost.sustained_w);
        self.decode_steps += 1;
        self.max_occupancy = self.max_occupancy.max(self.running.len() as u32);
        self.max_kv_reserved = self.max_kv_reserved.max(self.kv_reserved);
        let finish = self.log.t;
        let records = &mut sh.records;
        let served_tokens = &mut sh.served_tokens;
        let kv_reserved = &mut self.kv_reserved;
        self.running.retain_mut(|run| {
            run.remaining -= 1;
            run.kv_tokens += 1;
            if run.remaining > 0 {
                return true;
            }
            *kv_reserved -= run.kv_reserved;
            if let Some(rec) = records[run.idx].as_mut() {
                if let RequestOutcome::Served {
                    finish_s, tokens, ..
                } = &mut rec.outcome
                {
                    *finish_s = finish;
                    *served_tokens += *tokens;
                }
            }
            false
        });
        self.busy_until_s = self.log.t;
        true
    }
}

/// Route one arrival among the candidate replicas. `candidates` are
/// indices into `replicas`, in id order, all routable.
#[allow(clippy::too_many_arguments)]
fn route_arrival(
    replicas: &mut [Replica],
    candidates: &[usize],
    fr: &FleetRequest,
    policy: RoutePolicy,
    rr_counter: &mut u64,
    session_map: &mut [Option<u32>],
    scale_epoch: u32,
    now: f64,
) -> RouteDecision {
    debug_assert!(!candidates.is_empty(), "router always has a candidate");
    let headroom: Vec<i64> = candidates
        .iter()
        .map(|&c| replicas[c].headroom_for(&fr.base))
        .collect();
    let best_headroom = *headroom.iter().max().expect("non-empty");
    let pick_rr = |rr: &mut u64| {
        let c = candidates[(*rr % candidates.len() as u64) as usize];
        *rr += 1;
        c
    };
    let chosen = match policy {
        RoutePolicy::RoundRobin => pick_rr(rr_counter),
        RoutePolicy::LeastKvLoad => {
            // Max headroom, ties to the lowest replica id.
            let mut best = candidates[0];
            let mut best_h = headroom[0];
            for (k, &c) in candidates.iter().enumerate().skip(1) {
                if headroom[k] > best_h {
                    best = c;
                    best_h = headroom[k];
                }
            }
            best
        }
        RoutePolicy::SessionAffinity => {
            let slot = fr.session as usize;
            let sticky = session_map[slot]
                .and_then(|rid| candidates.iter().copied().find(|&c| replicas[c].id == rid));
            match sticky {
                Some(c) => c,
                None => {
                    let c = pick_rr(rr_counter);
                    session_map[slot] = Some(replicas[c].id);
                    c
                }
            }
        }
    };
    let chosen_headroom = headroom[candidates
        .iter()
        .position(|&c| c == chosen)
        .expect("chosen is a candidate")];
    let rep = &mut replicas[chosen];
    rep.queued_kv_demand += rep.lifetime_kv(&fr.base);
    rep.queues[class_slot(fr.base.class)].push_back(fr.base.id as usize);
    RouteDecision {
        request: fr.base.id,
        at_s: now,
        replica: rep.id,
        session: fr.session,
        chosen_headroom,
        best_headroom,
        scale_epoch,
    }
}

/// Deliver one handoff: pick the decode replica with the most free KV
/// space (ties to the lowest id); requests that can never fit any
/// decode budget are shed.
fn deliver_handoff(replicas: &mut [Replica], sh_trace: &[FleetRequest], h: &Handoff) -> Delivery {
    let r = &sh_trace[h.idx].base;
    let mut best: Option<(usize, i128, u64)> = None;
    for (k, rep) in replicas.iter().enumerate() {
        if rep.role != ReplicaRole::Decode
            || !matches!(rep.state, ReplicaState::Active | ReplicaState::Draining)
        {
            continue;
        }
        let needed = rep.lifetime_kv(r);
        if needed > rep.kv_budget {
            continue; // can never fit this replica
        }
        let free = rep.kv_budget as i128
            - rep.kv_reserved as i128
            - rep.pending_kv_demand as i128
            - needed as i128;
        if best.is_none_or(|(_, f, _)| free > f) {
            best = Some((k, free, needed));
        }
    }
    match best {
        None => Delivery::Shed,
        Some((k, _, needed)) => {
            let rep = &mut replicas[k];
            rep.pending_kv_demand += needed;
            rep.pending.push_back(PendingDecode {
                idx: h.idx,
                kv_reserved: needed,
            });
            Delivery::Queued
        }
    }
}

enum Delivery {
    Queued,
    Shed,
}

/// The fleet event loop. Global discrete-event simulation: deliveries,
/// arrivals, autoscaler checks and replica rounds are processed at each
/// event time in a fixed order, so the run is a pure deterministic
/// function of the config and load point.
fn simulate_fleet(bench: &FleetBenchmark, point: ServePoint) -> FleetReport {
    let cfg = &bench.config;
    let node = NodeConfig::shared(cfg.serve.system);
    let trace = fleet_trace(cfg, point.rate_per_s);
    let n = trace.len();

    let initial_role = |id: u32| -> ReplicaRole {
        if !cfg.disaggregated {
            ReplicaRole::Unified
        } else if id < cfg.replicas.div_ceil(2) {
            ReplicaRole::Prefill
        } else {
            ReplicaRole::Decode
        }
    };
    let mut replicas: Vec<Replica> = (0..cfg.replicas)
        .map(|id| {
            Replica::provision(
                id,
                initial_role(id),
                bench.precision_of(id),
                &node,
                cfg,
                0.0,
                false,
            )
        })
        .collect();

    let mut sh = Shared {
        trace: &trace,
        cfg,
        batch_cap: point.batch_cap,
        link: *node.kv_transfer_link(),
        records: vec![None; n],
        admit_seq: 0,
        served_tokens: 0,
        admitted_prompt_tokens: 0,
        reused_by_request: vec![0; n],
        reused_total: 0,
        handoffs: Vec::new(),
        handoff_count: 0,
        handoff_bytes: 0,
    };

    let mut decisions: Vec<RouteDecision> = Vec::with_capacity(n);
    let mut scale_events: Vec<ScaleEvent> = Vec::new();
    let mut session_map: Vec<Option<u32>> = vec![None; cfg.sessions as usize];
    let mut rr_counter = 0u64;
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut t_check = cfg.autoscale.map(|a| a.check_interval_s);
    let mut last_scale = f64::NEG_INFINITY;
    let mut replicas_peak = cfg.replicas;

    loop {
        // 1. Starting replicas whose cold start finished become active.
        for rep in replicas.iter_mut() {
            if rep.state == ReplicaState::Starting && rep.ready_at_s <= now {
                rep.state = ReplicaState::Active;
            }
        }

        // 2. Deliver due KV handoffs (insertion order — deterministic).
        let mut i = 0;
        while i < sh.handoffs.len() {
            if sh.handoffs[i].deliver_s <= now {
                let h = sh.handoffs.remove(i);
                replicas[h.src as usize].kv_reserved -= h.src_reserved;
                if let Delivery::Shed = deliver_handoff(&mut replicas, sh.trace, &h) {
                    let r = &sh.trace[h.idx].base;
                    sh.records[h.idx] =
                        Some(shed_record(r, h.deliver_s, ShedReason::KvCacheOverflow));
                }
            } else {
                i += 1;
            }
        }

        // 3. Route arrivals whose time has come.
        while next_arrival < n && trace[next_arrival].base.arrival_s <= now {
            let candidates: Vec<usize> = replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_routable())
                .map(|(k, _)| k)
                .collect();
            decisions.push(route_arrival(
                &mut replicas,
                &candidates,
                &trace[next_arrival],
                cfg.policy,
                &mut rr_counter,
                &mut session_map,
                scale_events.len() as u32,
                now,
            ));
            next_arrival += 1;
        }

        // 4. Autoscaler check.
        if let (Some(a), Some(tc)) = (&cfg.autoscale, t_check) {
            if tc <= now {
                let routable = replicas.iter().filter(|r| r.is_routable()).count() as u32;
                let provisioned = replicas.iter().filter(|r| r.is_provisioned()).count() as u32;
                let queued: usize = replicas.iter().map(|r| r.queued()).sum();
                let pressure = queued as f64 / routable.max(1) as f64;
                if now - last_scale >= a.cooldown_s {
                    if pressure >= a.queue_high && provisioned < a.max_replicas {
                        let id = replicas.len() as u32;
                        let role = if !cfg.disaggregated {
                            ReplicaRole::Unified
                        } else {
                            // Grow the smaller pool; ties favour prefill
                            // (it absorbs the arrival pressure).
                            let (p, d) = replicas.iter().filter(|r| r.is_provisioned()).fold(
                                (0u32, 0u32),
                                |(p, d), r| match r.role {
                                    ReplicaRole::Prefill => (p + 1, d),
                                    ReplicaRole::Decode => (p, d + 1),
                                    ReplicaRole::Unified => (p, d),
                                },
                            );
                            if p <= d {
                                ReplicaRole::Prefill
                            } else {
                                ReplicaRole::Decode
                            }
                        };
                        replicas.push(Replica::provision(
                            id,
                            role,
                            bench.precision_of(id),
                            &node,
                            cfg,
                            now,
                            true,
                        ));
                        replicas_peak = replicas_peak.max(provisioned + 1);
                        scale_events.push(ScaleEvent {
                            at_s: now,
                            kind: ScaleKind::Up,
                            replicas_after: provisioned + 1,
                        });
                        last_scale = now;
                    } else if pressure <= a.queue_low && routable > a.min_replicas {
                        // Drain the youngest active replica whose pool
                        // keeps at least one member.
                        let pool_size = |role: ReplicaRole, reps: &[Replica]| {
                            reps.iter()
                                .filter(|r| r.state == ReplicaState::Active && r.role == role)
                                .count()
                        };
                        let victim = replicas
                            .iter()
                            .enumerate()
                            .rev()
                            .find(|(_, r)| {
                                r.state == ReplicaState::Active && pool_size(r.role, &replicas) > 1
                            })
                            .map(|(k, _)| k);
                        if let Some(k) = victim {
                            replicas[k].state = ReplicaState::Draining;
                            scale_events.push(ScaleEvent {
                                at_s: now,
                                kind: ScaleKind::Down,
                                replicas_after: provisioned - 1,
                            });
                            last_scale = now;
                        }
                    }
                }
                t_check = Some(now + a.check_interval_s);
            }
        }

        // 5. Step every replica that is free at `now`, in id order.
        for replica in &mut replicas {
            if matches!(replica.state, ReplicaState::Active | ReplicaState::Draining)
                && replica.busy_until_s <= now
            {
                replica.round(&mut sh, now);
            }
        }

        // 6. Done when the trace is exhausted and the fleet is drained.
        let work_left =
            next_arrival < n || !sh.handoffs.is_empty() || replicas.iter().any(|r| r.has_work());
        if !work_left {
            break;
        }

        // 7. Advance the clock to the next event.
        let mut next = f64::INFINITY;
        if next_arrival < n {
            next = next.min(trace[next_arrival].base.arrival_s);
        }
        for h in &sh.handoffs {
            next = next.min(h.deliver_s);
        }
        for rep in &replicas {
            match rep.state {
                ReplicaState::Starting => next = next.min(rep.ready_at_s),
                ReplicaState::Active | ReplicaState::Draining => {
                    if rep.busy_until_s > now {
                        next = next.min(rep.busy_until_s);
                    }
                }
                ReplicaState::Stopped => {}
            }
        }
        if let Some(tc) = t_check {
            next = next.min(tc);
        }
        debug_assert!(next.is_finite(), "pending work must imply a future event");
        if next > now {
            now = next;
        }
    }

    // Makespan covers every replica's last phase; pad all logs to it so
    // each phase schedule spans the same measurement window.
    let makespan = replicas.iter().map(|r| r.log.t).fold(now, f64::max);
    let replica_reports: Vec<ReplicaReport> = replicas
        .into_iter()
        .map(|mut r| {
            r.pad_idle_to(makespan);
            ReplicaReport {
                id: r.id,
                role: r.role,
                precision: r.precision,
                phases: r.log.phases,
                weight_bytes: r.cost.weight_bytes,
                kv_budget_bytes: r.kv_budget,
                max_kv_reserved_bytes: r.max_kv_reserved,
                max_occupancy: r.max_occupancy,
                decode_steps: r.decode_steps,
                spawned_at_s: r.spawned_at_s,
            }
        })
        .collect();
    let decode_steps = replica_reports.iter().map(|r| r.decode_steps).sum();
    let records: Vec<RequestRecord> = sh
        .records
        .into_iter()
        .map(|r| r.expect("every request reaches a terminal state"))
        .collect();
    FleetReport {
        records,
        decisions,
        scale_events,
        replicas: replica_reports,
        makespan_s: makespan,
        served_tokens: sh.served_tokens,
        decode_steps,
        handoffs: sh.handoff_count,
        handoff_bytes: sh.handoff_bytes,
        reused_prefix_tokens: sh.reused_total,
        reused_by_request: sh.reused_by_request,
        admitted_prompt_tokens: sh.admitted_prompt_tokens,
        replicas_peak,
    }
}

/// Power figures of one replica's metered phase schedule.
pub(crate) struct ReplicaMeter {
    pub(crate) energy_wh: f64,
    pub(crate) mean_power_w: f64,
    pub(crate) peak_power_w: f64,
    /// Fraction of the makespan the device spent above its idle floor.
    pub(crate) busy_fraction: f64,
}

/// One replica's phase schedule as an engine workload, for power
/// metering on a fresh context.
struct ReplicaPhases<'a> {
    system: SystemId,
    replica: &'a ReplicaReport,
    makespan_s: f64,
}

impl engine::Workload for ReplicaPhases<'_> {
    type Plan = ();
    type Output = ReplicaMeter;

    fn system(&self) -> SystemId {
        self.system
    }

    fn plan(&self, _ctx: &RunContext) -> Result<((), PhasePlan), AccelError> {
        let makespan = self.makespan_s.max(f64::MIN_POSITIVE);
        Ok((
            (),
            PhasePlan {
                allocations: vec![("weights", self.replica.weight_bytes)],
                phases: self.replica.phases.clone(),
                meter: MeterSpec {
                    devices: 1,
                    prefix: "dev",
                    method: "pynvml",
                    interval_s: (makespan / 600.0).max(1e-4),
                    window: (0.0, makespan),
                },
                timeline_devices: 0,
            },
        ))
    }

    fn finish(&self, _plan: (), exec: Executed, ctx: &RunContext) -> ReplicaMeter {
        let device = ctx.device(0);
        ReplicaMeter {
            energy_wh: exec.measurement.df.energy_wh(0),
            mean_power_w: exec.measurement.mean_power_w(0),
            peak_power_w: exec.measurement.peak_power_w(0),
            busy_fraction: device.power_register().busy_fraction(
                0.0,
                self.makespan_s.max(f64::MIN_POSITIVE),
                device.power_model().idle_w + 1.0,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(system: SystemId) -> FleetBenchmark {
        FleetBenchmark::new(system)
    }

    fn point(rate: f64, cap: u32) -> ServePoint {
        ServePoint {
            rate_per_s: rate,
            batch_cap: cap,
        }
    }

    #[test]
    fn policy_tags_round_trip_and_reject_unknown() {
        for p in RoutePolicy::ALL {
            assert_eq!(RoutePolicy::try_from_tag(p.tag()), Ok(p));
            assert_eq!(p.to_string(), p.tag());
        }
        let err = RoutePolicy::try_from_tag("nope").unwrap_err();
        assert!(err.contains("round-robin"), "{err}");
        assert!(err.contains("least-kv-load"), "{err}");
        assert!(err.contains("session-affinity"), "{err}");
    }

    #[test]
    fn fleet_trace_is_seeded_and_attributes_are_in_range() {
        let b = bench(SystemId::A100);
        let t1 = fleet_trace(&b.config, 8.0);
        let t2 = fleet_trace(&b.config, 8.0);
        assert_eq!(t1, t2, "same seed must reproduce the trace exactly");
        assert_eq!(t1.len(), 160);
        assert!(t1.iter().all(|r| r.session < b.config.sessions));
        assert!(t1.iter().all(|r| r.prefix_group < b.config.prefix_groups));
        // The base arrival process is untouched by the fleet attributes.
        let base = arrival_trace(&b.config.serve, 8.0);
        assert!(t1.iter().zip(&base).all(|(f, b)| &f.base == b));
    }

    #[test]
    fn every_request_reaches_exactly_one_terminal_state() {
        let b = bench(SystemId::A100);
        let rep = b.simulate(point(40.0, 8)).unwrap();
        assert_eq!(rep.records.len(), 160);
        assert_eq!(rep.decisions.len(), 160);
        // Every request routed exactly once.
        let mut seen = [false; 160];
        for d in &rep.decisions {
            assert!(
                !seen[d.request as usize],
                "request {} routed twice",
                d.request
            );
            seen[d.request as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let served = rep.records.iter().filter(|r| r.is_served()).count();
        let shed = rep.records.len() - served;
        assert!(served > 0);
        assert_eq!(served + shed, 160);
    }

    #[test]
    fn more_replicas_serve_more_under_overload() {
        let mut b = bench(SystemId::A100);
        b.config.serve.num_requests = 320;
        let one = b
            .clone()
            .with_replicas(1)
            .simulate(point(200.0, 8))
            .unwrap();
        let four = b.with_replicas(4).simulate(point(200.0, 8)).unwrap();
        let served = |r: &FleetReport| r.records.iter().filter(|x| x.is_served()).count();
        assert!(
            served(&four) > served(&one),
            "4 replicas {} vs 1 replica {}",
            served(&four),
            served(&one)
        );
    }

    #[test]
    fn autoscaler_spins_up_replicas_under_pressure_and_respects_max() {
        let mut b = bench(SystemId::A100).with_autoscale(AutoscaleConfig {
            min_replicas: 2,
            max_replicas: 6,
            ..AutoscaleConfig::default()
        });
        b.config.replicas = 2;
        b.config.serve.num_requests = 640;
        let rep = b.simulate(point(300.0, 8)).unwrap();
        let ups = rep
            .scale_events
            .iter()
            .filter(|e| e.kind == ScaleKind::Up)
            .count();
        assert!(ups > 0, "overload must trigger scale-up");
        assert!(rep.replicas_peak <= 6, "peak {}", rep.replicas_peak);
        assert!(rep.replicas_peak > 2);
        // Scaled-up replicas pay the cold start: a Staging phase.
        let scaled = rep.replicas.iter().find(|r| r.spawned_at_s > 0.0).unwrap();
        assert!(scaled
            .phases
            .iter()
            .any(|p| p.kind == PhaseKind::Staging && p.label == "cold-start"));
    }

    #[test]
    fn disaggregation_hands_off_kv_over_the_link() {
        let mut b = bench(SystemId::A100).disaggregated(true);
        b.config.serve.num_requests = 200;
        let rep = b.simulate(point(30.0, 8)).unwrap();
        assert!(rep.handoffs > 0, "disaggregated fleet must hand off KV");
        assert!(rep.handoff_bytes > 0);
        let prefill = rep
            .replicas
            .iter()
            .find(|r| r.role == ReplicaRole::Prefill)
            .unwrap();
        assert!(prefill
            .phases
            .iter()
            .any(|p| p.kind == PhaseKind::Communication && p.label == "kv-handoff"));
        // Decode replicas never prefill; prefill replicas never decode.
        for r in &rep.replicas {
            match r.role {
                ReplicaRole::Prefill => assert_eq!(r.decode_steps, 0),
                ReplicaRole::Decode => {
                    assert!(r.phases.iter().all(|p| p.label != "prefill"))
                }
                ReplicaRole::Unified => unreachable!("disaggregated fleet"),
            }
        }
        let served = rep.records.iter().filter(|r| r.is_served()).count();
        assert!(served > 0);
    }

    #[test]
    fn prefix_reuse_cuts_prefill_work() {
        let mut b = bench(SystemId::A100);
        b.config.prefix_groups = 2;
        b.config.shared_prefix_tokens = 48;
        b.config.serve.num_requests = 200;
        let with_reuse = b.clone().simulate(point(20.0, 8)).unwrap();
        b.config.prefix_groups = 0;
        let without = b.simulate(point(20.0, 8)).unwrap();
        assert!(with_reuse.reused_prefix_tokens > 0);
        assert_eq!(without.reused_prefix_tokens, 0);
        // Reuse never exceeds the shared prefix (or the prompt).
        let trace = fleet_trace(&with_reuse_config(), 20.0);
        for (i, &reused) in with_reuse.reused_by_request.iter().enumerate() {
            assert!(reused <= 48.min(trace[i].base.prompt_tokens));
        }

        fn with_reuse_config() -> FleetConfig {
            let mut b = FleetBenchmark::new(SystemId::A100);
            b.config.prefix_groups = 2;
            b.config.shared_prefix_tokens = 48;
            b.config.serve.num_requests = 200;
            b.config
        }
    }

    #[test]
    fn kv_reservations_never_exceed_any_replica_budget() {
        let mut b = bench(SystemId::A100).with_policy(RoutePolicy::LeastKvLoad);
        b.config.serve.num_requests = 320;
        b.config.serve.kv_mem_frac = 0.02;
        let rep = b.simulate(point(150.0, 32)).unwrap();
        for r in &rep.replicas {
            assert!(
                r.max_kv_reserved_bytes <= r.kv_budget_bytes,
                "replica {} reserved {} over budget {}",
                r.id,
                r.max_kv_reserved_bytes,
                r.kv_budget_bytes
            );
        }
    }

    #[test]
    fn mixed_replica_precisions_get_distinct_budgets() {
        let mut b = bench(SystemId::A100).with_replicas(2);
        b.config.replica_precisions = Some(vec![Precision::F32, Precision::Int8]);
        let rep = b.simulate(point(20.0, 8)).unwrap();
        assert_eq!(rep.replicas[0].precision, Precision::F32);
        assert_eq!(rep.replicas[1].precision, Precision::Int8);
        assert!(
            rep.replicas[1].kv_budget_bytes > rep.replicas[0].kv_budget_bytes,
            "int8 replica must have the larger KV budget"
        );
        assert!(rep.replicas[1].weight_bytes < rep.replicas[0].weight_bytes);
    }

    #[test]
    fn run_produces_energy_and_power_figures() {
        let fom = bench(SystemId::A100).run(point(20.0, 8)).unwrap();
        assert_eq!(fom.policy, "round-robin");
        assert_eq!(fom.replicas_base, 4);
        assert_eq!(fom.requests, 160);
        assert_eq!(fom.served + fom.shed, fom.requests);
        assert!(fom.tokens_per_s > 0.0);
        assert!(fom.energy_wh_per_ktoken > 0.0);
        assert!(fom.mean_fleet_power_w > 0.0);
        assert!(fom.goodput_tokens_per_s <= fom.tokens_per_s + 1e-9);
        assert!(fom.ttft.p99 >= fom.ttft.p50);
    }

    #[test]
    fn fleet_fom_serde_round_trips() {
        let fom = bench(SystemId::A100).run(point(20.0, 8)).unwrap();
        let json = serde_json::to_string(&fom).unwrap();
        let back: FleetFom = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fom);
    }

    #[test]
    fn invalid_fleet_configs_are_rejected() {
        assert!(bench(SystemId::A100)
            .with_replicas(0)
            .simulate(point(8.0, 8))
            .is_err());
        assert!(bench(SystemId::A100)
            .with_replicas(1)
            .disaggregated(true)
            .simulate(point(8.0, 8))
            .is_err());
        assert!(bench(SystemId::Gc200).simulate(point(8.0, 8)).is_err());
        let mut bad = bench(SystemId::A100).with_autoscale(AutoscaleConfig {
            min_replicas: 4,
            max_replicas: 2,
            ..AutoscaleConfig::default()
        });
        assert!(bad.simulate(point(8.0, 8)).is_err());
        bad.config.autoscale = None;
        bad.config.sessions = 0;
        assert!(bad.simulate(point(8.0, 8)).is_err());
    }

    #[test]
    fn sweep_policies_returns_grid_order() {
        let b = bench(SystemId::A100);
        let out = b.sweep_policies(
            SweepRunner::parallel(),
            point(20.0, 8),
            RoutePolicy::ALL.to_vec(),
        );
        assert_eq!(out.len(), 3);
        for (o, p) in out.iter().zip(RoutePolicy::ALL) {
            assert_eq!(o.as_completed().expect("completes").policy, p.tag());
        }
    }

    #[test]
    fn session_affinity_is_sticky_on_a_fixed_fleet() {
        let mut b = bench(SystemId::A100).with_policy(RoutePolicy::SessionAffinity);
        b.config.sessions = 8;
        let rep = b.simulate(point(40.0, 8)).unwrap();
        let mut seen: Vec<Option<u32>> = vec![None; 8];
        for d in &rep.decisions {
            match seen[d.session as usize] {
                None => seen[d.session as usize] = Some(d.replica),
                Some(r) => assert_eq!(r, d.replica, "session {} moved", d.session),
            }
        }
    }
}
