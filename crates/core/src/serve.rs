//! Async inference serving on one node: seeded arrival traces, SLO
//! classes and the single-node serving benchmark.
//!
//! The paper reports offline throughput and energy; production serving
//! is judged on *tail latency under load* (MLPerf Power's latency-bounded
//! "server" scenario). This module closes that gap on the existing
//! virtual clock: a seeded arrival process (Poisson or bursty) feeds a
//! request queue, a continuous batcher admits requests at decode
//! boundaries (prefill interleaved with decode, vLLM-style KV-cache
//! reservation, per-class deadline budgets), and overload is handled by
//! *explicit shedding* rather than unbounded queueing. The simulation is
//! deterministic given the seed — no wall clock anywhere — so load
//! sweeps run in tier-1 tests, bit-identical across thread counts.
//!
//! A [`ServeBenchmark`] runs as a one-replica fleet on the
//! [`crate::fleet`] event-driven simulator (one replica, round-robin
//! routing, no autoscaling, no disaggregation, no prefix reuse), so
//! single-node and fleet serving share one batcher, one cost model and
//! one power metering path. This module owns the arrival trace, the
//! request and SLO types, and the projection of the fleet's output onto
//! [`SimReport`] and the serving figures of merit ([`ServeFom`]):
//! p50/p95/p99 time-to-first-token and per-token latency, goodput
//! (SLO-met tokens/s), Wh per kilo-token under load, and the device
//! power duty cycle. Load grids (arrival rate × batch cap) run as serve
//! [`crate::scenario::SweepSpec`]s through
//! [`crate::scenario::Scenario::execute`], the one executor `caraml
//! serve`, `bench_serve` and scenario files share.
//!
//! ## Batching policy
//!
//! * **Admission at decode boundaries.** Between decode steps the
//!   batcher sweeps the queue: expired requests (queue wait already past
//!   the TTFT budget) are shed, then requests are admitted in class
//!   priority order (Interactive before Batch, FIFO within a class)
//!   while the occupancy cap and the KV-cache budget allow.
//! * **Prefill interleaving.** Admitted requests prefill immediately
//!   (compute-bound phase, all admitted prompts at once); running
//!   requests stall meanwhile, which is exactly the prefill-induced
//!   tail-latency jitter real continuous batchers exhibit.
//! * **KV reservation.** Admission reserves KV cache for the request's
//!   full lifetime (prompt + all generated tokens) out of
//!   `kv_mem_frac · (HBM − weights)`; a request that cannot ever fit is
//!   shed with [`ShedReason::KvCacheOverflow`].
//! * **Conservation.** Every request ends in exactly one of
//!   `Served`/`Shed` — the property tests in `tests/serve_props.rs` pin
//!   this, along with FIFO-within-class and the occupancy/memory caps.

use crate::engine::PhaseSpec;
use crate::fleet::{FleetBenchmark, FleetConfig, FleetReport, RoutePolicy};
use crate::fom::{LatencyPercentiles, ServeFom};
use caraml_accel::{AccelError, NodeConfig, Precision, SystemId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Service classes with distinct latency deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Chat-style traffic: tight TTFT and per-token deadlines.
    Interactive,
    /// Background traffic: loose deadlines, admitted after Interactive.
    Batch,
}

/// Deadline budgets per class, plus the shedding rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Time-to-first-token deadline for Interactive requests, seconds.
    pub interactive_ttft_s: f64,
    /// Per-output-token deadline for Interactive requests, seconds.
    pub interactive_tpot_s: f64,
    pub batch_ttft_s: f64,
    pub batch_tpot_s: f64,
    /// Shed a queued request once its wait exceeds this multiple of its
    /// class TTFT deadline (1.0 = shed exactly when the deadline can no
    /// longer be met even with a zero-cost prefill).
    pub shed_wait_factor: f64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            interactive_ttft_s: 0.5,
            interactive_tpot_s: 0.05,
            batch_ttft_s: 5.0,
            batch_tpot_s: 0.2,
            shed_wait_factor: 1.0,
        }
    }
}

impl SloPolicy {
    pub fn ttft_deadline_s(&self, class: SloClass) -> f64 {
        match class {
            SloClass::Interactive => self.interactive_ttft_s,
            SloClass::Batch => self.batch_ttft_s,
        }
    }

    pub fn tpot_deadline_s(&self, class: SloClass) -> f64 {
        match class {
            SloClass::Interactive => self.interactive_tpot_s,
            SloClass::Batch => self.batch_tpot_s,
        }
    }

    /// Queue wait beyond which a request is shed instead of admitted.
    pub fn max_queue_wait_s(&self, class: SloClass) -> f64 {
        self.shed_wait_factor * self.ttft_deadline_s(class)
    }
}

/// Shape of the request arrival process. The mean rate comes from the
/// sweep point ([`ServePoint::rate_per_s`]); this selects the temporal
/// structure around that mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Memoryless arrivals: i.i.d. exponential gaps.
    Poisson,
    /// Compound-Poisson bursts: burst *starts* are Poisson at
    /// `rate / mean_burst`, each burst holds a geometric number of
    /// requests (mean `mean_burst`) spaced at `burst_factor ×` the mean
    /// rate — same long-run rate, much heavier short-run peaks.
    Bursty {
        /// Intra-burst intensity multiplier (> 1).
        burst_factor: f64,
        /// Mean requests per burst (≥ 1).
        mean_burst: f64,
    },
}

/// One inference request of the arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index in arrival order (ties on arrival time keep id order).
    pub id: u32,
    pub arrival_s: f64,
    pub prompt_tokens: u64,
    pub gen_tokens: u64,
    pub class: SloClass,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Queue wait exceeded the class shedding budget (overload).
    DeadlineExceeded,
    /// The request's KV reservation can never fit device memory.
    KvCacheOverflow,
}

/// Terminal state of one request. The batcher guarantees every request
/// reaches exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestOutcome {
    Served {
        /// Admission order (0-based) — FIFO-within-class evidence.
        admit_seq: u32,
        admit_s: f64,
        /// End of the request's prefill: the first token appears here.
        first_token_s: f64,
        finish_s: f64,
        /// Generated tokens (equals the request's `gen_tokens`).
        tokens: u64,
    },
    Shed {
        at_s: f64,
        reason: ShedReason,
    },
}

/// Per-request accounting of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    pub id: u32,
    pub class: SloClass,
    pub arrival_s: f64,
    pub gen_tokens: u64,
    pub outcome: RequestOutcome,
}

impl RequestRecord {
    pub fn is_served(&self) -> bool {
        matches!(self.outcome, RequestOutcome::Served { .. })
    }
}

/// Raw output of the batching simulation, before power measurement: the
/// phase schedule the engine will execute plus the per-request records
/// and the invariants the property tests check.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub records: Vec<RequestRecord>,
    pub phases: Vec<PhaseSpec>,
    /// End of the last phase, virtual seconds.
    pub makespan_s: f64,
    /// Highest concurrent decode occupancy observed.
    pub max_occupancy: u32,
    /// Highest concurrently reserved KV bytes observed.
    pub max_kv_reserved_bytes: u64,
    /// The KV budget admissions were checked against.
    pub kv_budget_bytes: u64,
    /// Model weights resident on the device, bytes.
    pub weight_bytes: u64,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Tokens generated across served requests.
    pub served_tokens: u64,
}

/// One cell of a serving load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServePoint {
    /// Mean arrival rate, requests/s.
    pub rate_per_s: f64,
    /// Continuous-batching occupancy cap.
    pub batch_cap: u32,
}

/// The row-major (rate-major, then cap) grid of a load sweep.
pub fn load_grid(rates: &[f64], caps: &[u32]) -> Vec<ServePoint> {
    rates
        .iter()
        .flat_map(|&rate_per_s| {
            caps.iter().map(move |&batch_cap| ServePoint {
                rate_per_s,
                batch_cap,
            })
        })
        .collect()
}

/// Requests in the arrival trace of [`ServeBenchmark::new`].
pub(crate) const DEFAULT_REQUESTS: u32 = 160;

/// Configuration of the serving benchmark (everything except the swept
/// load point).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    pub system: SystemId,
    pub model: caraml_models::GptConfig,
    /// Requests in the arrival trace.
    pub num_requests: u32,
    /// Seed of the arrival process and request shapes.
    pub seed: u64,
    pub arrival: ArrivalKind,
    /// Inclusive prompt-length range, tokens.
    pub prompt_tokens: (u64, u64),
    /// Inclusive generation-length range, tokens.
    pub gen_tokens: (u64, u64),
    /// Probability a request is [`SloClass::Interactive`].
    pub interactive_frac: f64,
    pub slo: SloPolicy,
    /// Fraction of post-weights HBM usable as KV cache (vLLM-style
    /// `gpu_memory_utilization` headroom).
    pub kv_mem_frac: f64,
    /// Storage precision of weights and KV cache: smaller elements both
    /// shrink the resident weights (raising the KV budget) and cut the
    /// per-token KV footprint, so int8 admits far more concurrent
    /// sequences into the same HBM.
    pub precision: Precision,
}

/// The serving benchmark: a config plus `run`/`simulate` entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchmark {
    pub config: ServeConfig,
}

impl ServeBenchmark {
    /// Default setup: 800M GPT, 160 requests, Poisson arrivals, 70%
    /// interactive traffic.
    pub fn new(system: SystemId) -> Self {
        ServeBenchmark {
            config: ServeConfig {
                system,
                model: caraml_models::GptConfig::gpt_800m(),
                num_requests: DEFAULT_REQUESTS,
                seed: 42,
                arrival: ArrivalKind::Poisson,
                prompt_tokens: (64, 512),
                gen_tokens: (16, 128),
                interactive_frac: 0.7,
                slo: SloPolicy::default(),
                kv_mem_frac: 0.9,
                precision: Precision::default(),
            },
        }
    }

    /// Same benchmark at a different storage precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.config.precision = precision;
        self
    }

    /// The benchmark as a one-replica fleet: one replica, round-robin
    /// routing, no autoscaling, no disaggregation, no prefix reuse.
    fn as_fleet(&self) -> FleetBenchmark {
        FleetBenchmark {
            config: FleetConfig {
                serve: self.config.clone(),
                replicas: 1,
                policy: RoutePolicy::RoundRobin,
                autoscale: None,
                disaggregated: false,
                sessions: 1,
                prefix_groups: 0,
                shared_prefix_tokens: 0,
                replica_precisions: None,
            },
        }
    }

    /// Run one load point end-to-end (simulation + power measurement).
    pub fn run(&self, point: ServePoint) -> Result<ServeFom, AccelError> {
        let fleet = self.as_fleet();
        let report = fleet.simulate(point)?;
        let meter = fleet.meter(&report)?.pop().expect("one replica");
        let s = RequestSummary::new(&report, &self.config.slo, meter.energy_wh);
        Ok(ServeFom {
            system: NodeConfig::shared(self.config.system).platform.clone(),
            precision: self.config.precision,
            rate_per_s: point.rate_per_s,
            batch_cap: point.batch_cap,
            requests: s.requests,
            served: s.served,
            shed: s.shed,
            ttft: s.ttft,
            tpot: s.tpot,
            tokens_per_s: s.tokens_per_s,
            goodput_tokens_per_s: s.goodput_tokens_per_s,
            slo_attainment: s.slo_attainment,
            energy_wh_per_ktoken: s.energy_wh_per_ktoken,
            mean_power_w: meter.mean_power_w,
            peak_power_w: meter.peak_power_w,
            busy_fraction: meter.busy_fraction,
        })
    }

    /// Pure batching simulation of one load point — no power
    /// measurement. This is what the property tests drive; `run` meters
    /// the phase schedule of the identical simulation.
    pub fn simulate(&self, point: ServePoint) -> Result<SimReport, AccelError> {
        let mut fleet = self.as_fleet().simulate(point)?;
        let replica = fleet.replicas.pop().expect("one replica");
        Ok(SimReport {
            records: fleet.records,
            phases: replica.phases,
            makespan_s: fleet.makespan_s,
            max_occupancy: replica.max_occupancy,
            max_kv_reserved_bytes: replica.max_kv_reserved_bytes,
            kv_budget_bytes: replica.kv_budget_bytes,
            weight_bytes: replica.weight_bytes,
            decode_steps: fleet.decode_steps,
            served_tokens: fleet.served_tokens,
        })
    }
}

impl ServeConfig {
    /// Reject a config or load point the serving model cannot run.
    pub(crate) fn validate(&self, point: ServePoint) -> Result<(), AccelError> {
        if self.system == SystemId::Gc200 {
            return Err(AccelError::InvalidConfig(
                "serving path models the GPU systems".into(),
            ));
        }
        if self.num_requests == 0 {
            return Err(AccelError::InvalidConfig(
                "arrival trace needs at least one request".into(),
            ));
        }
        if !(point.rate_per_s.is_finite() && point.rate_per_s > 0.0) {
            return Err(AccelError::InvalidConfig(
                "arrival rate must be positive".into(),
            ));
        }
        if point.batch_cap == 0 {
            return Err(AccelError::InvalidConfig(
                "batch cap must be positive".into(),
            ));
        }
        if self.prompt_tokens.0 == 0 || self.prompt_tokens.0 > self.prompt_tokens.1 {
            return Err(AccelError::InvalidConfig(
                "prompt token range must be non-empty and positive".into(),
            ));
        }
        if self.gen_tokens.0 == 0 || self.gen_tokens.0 > self.gen_tokens.1 {
            return Err(AccelError::InvalidConfig(
                "generation token range must be non-empty and positive".into(),
            ));
        }
        if let ArrivalKind::Bursty {
            burst_factor,
            mean_burst,
        } = self.arrival
        {
            if burst_factor < 1.0 || mean_burst < 1.0 {
                return Err(AccelError::InvalidConfig(
                    "burst factor and mean burst must be >= 1".into(),
                ));
            }
        }
        Ok(())
    }
}

/// The request-level figures of merit [`ServeFom`] and
/// [`crate::fom::FleetFom`] share: latency percentiles over the served
/// requests, throughput and goodput over the makespan, and energy per
/// kilo-token.
pub(crate) struct RequestSummary {
    pub(crate) requests: u64,
    pub(crate) served: u64,
    pub(crate) shed: u64,
    pub(crate) ttft: LatencyPercentiles,
    pub(crate) tpot: LatencyPercentiles,
    pub(crate) tokens_per_s: f64,
    pub(crate) goodput_tokens_per_s: f64,
    pub(crate) slo_attainment: f64,
    pub(crate) energy_wh_per_ktoken: f64,
}

impl RequestSummary {
    pub(crate) fn new(report: &FleetReport, slo: &SloPolicy, energy_wh: f64) -> Self {
        let records = &report.records;
        let served_tokens = report.served_tokens;
        let mut ttfts = Vec::new();
        let mut tpots = Vec::new();
        let mut slo_met = 0u64;
        let mut goodput_tokens = 0u64;
        for rec in records {
            if let RequestOutcome::Served {
                first_token_s,
                finish_s,
                tokens,
                ..
            } = rec.outcome
            {
                let ttft = first_token_s - rec.arrival_s;
                let tpot = if tokens > 1 {
                    (finish_s - first_token_s) / (tokens - 1) as f64
                } else {
                    0.0
                };
                ttfts.push(ttft);
                tpots.push(tpot);
                if ttft <= slo.ttft_deadline_s(rec.class) && tpot <= slo.tpot_deadline_s(rec.class)
                {
                    slo_met += 1;
                    goodput_tokens += tokens;
                }
            }
        }
        let requests = records.len() as u64;
        let served = ttfts.len() as u64;
        let makespan = report.makespan_s.max(f64::MIN_POSITIVE);
        RequestSummary {
            requests,
            served,
            shed: requests - served,
            ttft: LatencyPercentiles::from_unsorted(ttfts).unwrap_or_else(LatencyPercentiles::zero),
            tpot: LatencyPercentiles::from_unsorted(tpots).unwrap_or_else(LatencyPercentiles::zero),
            tokens_per_s: served_tokens as f64 / makespan,
            goodput_tokens_per_s: goodput_tokens as f64 / makespan,
            slo_attainment: if served > 0 {
                slo_met as f64 / served as f64
            } else {
                0.0
            },
            energy_wh_per_ktoken: if served_tokens > 0 {
                energy_wh * 1000.0 / served_tokens as f64
            } else {
                0.0
            },
        }
    }
}

/// Deterministically generate the arrival trace for a config at a mean
/// rate: arrival times are non-decreasing, ids follow arrival order, and
/// the same seed reproduces the trace bit-for-bit.
pub fn arrival_trace(cfg: &ServeConfig, rate_per_s: f64) -> Vec<Request> {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut requests = Vec::with_capacity(cfg.num_requests as usize);
    let mut t = 0.0_f64;
    let mut burst_left = 0u64;
    for id in 0..cfg.num_requests {
        match cfg.arrival {
            ArrivalKind::Poisson => {
                t += exp_gap(&mut rng, rate_per_s);
            }
            ArrivalKind::Bursty {
                burst_factor,
                mean_burst,
            } => {
                if burst_left == 0 {
                    // Next burst: Poisson at rate/mean_burst, geometric size.
                    t += exp_gap(&mut rng, rate_per_s / mean_burst);
                    burst_left = geometric(&mut rng, mean_burst);
                } else {
                    t += exp_gap(&mut rng, rate_per_s * burst_factor);
                }
                burst_left -= 1;
            }
        }
        let prompt_tokens = rng.gen_range(cfg.prompt_tokens.0..cfg.prompt_tokens.1 + 1);
        let gen_tokens = rng.gen_range(cfg.gen_tokens.0..cfg.gen_tokens.1 + 1);
        let class = if rng.gen_bool(cfg.interactive_frac) {
            SloClass::Interactive
        } else {
            SloClass::Batch
        };
        requests.push(Request {
            id,
            arrival_s: t,
            prompt_tokens,
            gen_tokens,
            class,
        });
    }
    requests
}

/// Exponential inter-arrival gap via inverse CDF.
fn exp_gap(rng: &mut ChaCha8Rng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

/// Geometric burst size with the given mean (support `1..`).
fn geometric(rng: &mut ChaCha8Rng, mean: f64) -> u64 {
    let p = 1.0 / mean;
    let u: f64 = rng.gen_range(0.0..1.0);
    // P(K > k) = (1-p)^k  ⇒  K = 1 + floor(ln(1-u) / ln(1-p)).
    if p >= 1.0 {
        1
    } else {
        1 + ((1.0 - u).ln() / (1.0 - p).ln()).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunOutcome;
    use crate::scenario::{Scenario, SweepSpec, WorkloadKind};

    fn bench(system: SystemId) -> ServeBenchmark {
        ServeBenchmark::new(system)
    }

    fn point(rate: f64, cap: u32) -> ServePoint {
        ServePoint {
            rate_per_s: rate,
            batch_cap: cap,
        }
    }

    #[test]
    fn arrival_trace_is_seeded_and_monotonic() {
        let b = bench(SystemId::A100);
        let t1 = arrival_trace(&b.config, 8.0);
        let t2 = arrival_trace(&b.config, 8.0);
        assert_eq!(t1, t2, "same seed must reproduce the trace exactly");
        assert_eq!(t1.len(), 160);
        assert!(t1.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(t1.windows(2).all(|w| w[0].id + 1 == w[1].id));
        let mut other = b.config.clone();
        other.seed = 43;
        assert_ne!(arrival_trace(&other, 8.0), t1, "seeds must matter");
    }

    #[test]
    fn poisson_trace_hits_the_mean_rate() {
        let mut b = bench(SystemId::A100);
        b.config.num_requests = 2000;
        let trace = arrival_trace(&b.config, 10.0);
        let span = trace.last().unwrap().arrival_s;
        let rate = trace.len() as f64 / span;
        assert!((rate - 10.0).abs() / 10.0 < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn bursty_trace_same_mean_heavier_peaks() {
        let mut b = bench(SystemId::A100);
        b.config.num_requests = 2000;
        let poisson = arrival_trace(&b.config, 10.0);
        b.config.arrival = ArrivalKind::Bursty {
            burst_factor: 10.0,
            mean_burst: 8.0,
        };
        let bursty = arrival_trace(&b.config, 10.0);
        let span_p = poisson.last().unwrap().arrival_s;
        let span_b = bursty.last().unwrap().arrival_s;
        let rate_b = bursty.len() as f64 / span_b;
        assert!(
            (rate_b - 10.0).abs() / 10.0 < 0.25,
            "bursty long-run rate {rate_b} (poisson span {span_p:.1}s)"
        );
        // Burstiness: far more sub-(1/10 mean gap) arrivals than Poisson.
        let tight = |t: &[Request]| {
            t.windows(2)
                .filter(|w| w[1].arrival_s - w[0].arrival_s < 0.01)
                .count()
        };
        assert!(
            tight(&bursty) > 2 * tight(&poisson),
            "bursty {} vs poisson {}",
            tight(&bursty),
            tight(&poisson)
        );
    }

    #[test]
    fn underloaded_point_meets_slo_without_shedding() {
        let fom = bench(SystemId::Gh200Jrdc).run(point(4.0, 16)).unwrap();
        assert_eq!(fom.shed, 0, "4 req/s must not shed on a GH200");
        assert_eq!(fom.served, 160);
        assert!(
            fom.slo_attainment > 0.95,
            "attainment {}",
            fom.slo_attainment
        );
        assert!(fom.ttft.p50 < 0.1, "p50 TTFT {}", fom.ttft.p50);
        assert!(fom.ttft.p99 >= fom.ttft.p95 && fom.ttft.p95 >= fom.ttft.p50);
        assert!(fom.goodput_tokens_per_s <= fom.tokens_per_s + 1e-9);
        assert!(fom.energy_wh_per_ktoken > 0.0);
        assert!(fom.busy_fraction > 0.0 && fom.busy_fraction <= 1.0);
        assert!(fom.peak_power_w >= fom.mean_power_w);
    }

    #[test]
    fn overload_sheds_and_degrades_tail_latency() {
        let b = bench(SystemId::A100);
        let light = b.run(point(2.0, 8)).unwrap();
        let heavy = b.run(point(400.0, 8)).unwrap();
        assert!(heavy.shed > 0, "400 req/s at cap 8 must shed");
        assert_eq!(heavy.served + heavy.shed, heavy.requests);
        assert!(
            heavy.ttft.p99 > light.ttft.p99,
            "overload tail {} vs light {}",
            heavy.ttft.p99,
            light.ttft.p99
        );
        assert!(heavy.slo_attainment < 1.0);
    }

    #[test]
    fn larger_batch_cap_raises_overload_throughput() {
        let b = bench(SystemId::A100);
        let narrow = b.run(point(200.0, 2)).unwrap();
        let wide = b.run(point(200.0, 32)).unwrap();
        assert!(
            wide.tokens_per_s > narrow.tokens_per_s,
            "wide {} vs narrow {}",
            wide.tokens_per_s,
            narrow.tokens_per_s
        );
        assert!(wide.shed < narrow.shed);
    }

    #[test]
    fn batching_amortizes_energy_per_token() {
        let b = bench(SystemId::Gh200Jrdc);
        let solo = b.run(point(1.0, 1)).unwrap();
        let batched = b.run(point(100.0, 32)).unwrap();
        assert!(
            batched.energy_wh_per_ktoken < solo.energy_wh_per_ktoken,
            "batched {} vs solo {}",
            batched.energy_wh_per_ktoken,
            solo.energy_wh_per_ktoken
        );
    }

    #[test]
    fn interactive_class_is_prioritised_under_load() {
        let b = bench(SystemId::A100);
        let fom = b.run(point(300.0, 4)).unwrap();
        // Priority admission shows up as queue wait: a served Interactive
        // request was admitted ahead of queued Batch traffic, so its mean
        // admission delay must be well below Batch's (which only survives
        // long waits thanks to its loose 5 s deadline).
        let report = b.simulate(point(300.0, 4)).unwrap();
        let mean_wait = |class: SloClass| {
            let waits: Vec<f64> = report
                .records
                .iter()
                .filter(|r| r.class == class)
                .filter_map(|r| match r.outcome {
                    RequestOutcome::Served { admit_s, .. } => Some(admit_s - r.arrival_s),
                    RequestOutcome::Shed { .. } => None,
                })
                .collect();
            assert!(!waits.is_empty(), "{class:?} must serve some requests");
            waits.iter().sum::<f64>() / waits.len() as f64
        };
        assert!(
            mean_wait(SloClass::Interactive) < mean_wait(SloClass::Batch),
            "interactive {} vs batch {}",
            mean_wait(SloClass::Interactive),
            mean_wait(SloClass::Batch)
        );
        assert!(fom.shed > 0);
    }

    #[test]
    fn oversized_model_reports_oom_outcome() {
        let mut b = bench(SystemId::A100);
        b.config.model = caraml_models::GptConfig::gpt_175b();
        let outcome = RunOutcome::from_result(b.run(point(4.0, 8)));
        assert!(outcome.is_oom(), "175B weights cannot fit a 40 GB A100");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let b = bench(SystemId::A100);
        assert!(b.run(point(0.0, 8)).is_err());
        assert!(b.run(point(8.0, 0)).is_err());
        assert!(bench(SystemId::Gc200).run(point(8.0, 8)).is_err());
        let mut zero = bench(SystemId::A100);
        zero.config.num_requests = 0;
        assert!(zero.run(point(8.0, 8)).is_err());
        let mut bad_burst = bench(SystemId::A100);
        bad_burst.config.arrival = ArrivalKind::Bursty {
            burst_factor: 0.5,
            mean_burst: 4.0,
        };
        assert!(bad_burst.run(point(8.0, 8)).is_err());
    }

    #[test]
    fn load_grid_is_row_major() {
        let g = load_grid(&[2.0, 8.0], &[4, 16]);
        assert_eq!(g.len(), 4);
        assert_eq!((g[0].rate_per_s, g[0].batch_cap), (2.0, 4));
        assert_eq!((g[1].rate_per_s, g[1].batch_cap), (2.0, 16));
        assert_eq!((g[3].rate_per_s, g[3].batch_cap), (8.0, 16));
    }

    #[test]
    fn sweep_runs_grid_in_order() {
        let spec = SweepSpec {
            systems: vec![SystemId::H100Jrdc],
            rates: vec![4.0, 64.0],
            caps: vec![8, 2],
            ..SweepSpec::new(WorkloadKind::Serve)
        };
        let scenario = Scenario {
            name: "serve".into(),
            seed: 42,
            sweeps: vec![spec],
        };
        let out = scenario.execute().swap_remove(0);
        let grid = load_grid(&[4.0, 64.0], &[8, 2]);
        assert_eq!(out.len(), grid.len());
        for ((_, o), p) in out.into_iter().zip(&grid) {
            let fom = o.completed().expect("completes").into_serve();
            assert_eq!(fom.rate_per_s, p.rate_per_s);
            assert_eq!(fom.batch_cap, p.batch_cap);
        }
    }

    #[test]
    fn makespan_covers_all_arrivals_and_phases_sum_to_it() {
        let b = bench(SystemId::A100);
        let report = b.simulate(point(16.0, 8)).unwrap();
        let phase_sum: f64 = report.phases.iter().map(|p| p.duration_s).sum();
        assert!((phase_sum - report.makespan_s).abs() < 1e-6);
        let last_arrival = arrival_trace(&b.config, 16.0).last().unwrap().arrival_s;
        assert!(report.makespan_s >= last_arrival * 0.99);
        assert!(report.decode_steps > 0);
    }

    #[test]
    fn int8_kv_admits_more_concurrent_sequences_than_f32() {
        // Pinned deterministic scenario: a tight KV budget (2 % of
        // post-weight HBM) under heavy load, so admission is limited by
        // the KV reservation, not the occupancy cap. Quartering the
        // per-token KV bytes (f32 → int8) must raise the peak number of
        // concurrently decoding sequences by ≥ 1.9× into the same HBM.
        let occupancy = |precision| {
            let mut b = bench(SystemId::A100).with_precision(precision);
            b.config.num_requests = 320;
            b.config.kv_mem_frac = 0.02;
            b.simulate(point(200.0, 64)).unwrap()
        };
        let f32_report = occupancy(Precision::F32);
        let int8_report = occupancy(Precision::Int8);
        assert!(
            f32_report.max_occupancy > 0,
            "f32 scenario must still serve something"
        );
        let ratio = f64::from(int8_report.max_occupancy) / f64::from(f32_report.max_occupancy);
        assert!(
            ratio >= 1.9,
            "int8 KV occupancy {} vs f32 {} (ratio {ratio:.2})",
            int8_report.max_occupancy,
            f32_report.max_occupancy
        );
        // Same budget discipline on both runs: reservations never exceed
        // the budget, and the int8 budget is larger (smaller weights).
        assert!(f32_report.max_kv_reserved_bytes <= f32_report.kv_budget_bytes);
        assert!(int8_report.max_kv_reserved_bytes <= int8_report.kv_budget_bytes);
        assert!(int8_report.kv_budget_bytes > f32_report.kv_budget_bytes);
    }

    #[test]
    fn default_precision_is_bf16_and_preserves_pinned_numbers() {
        let fom = bench(SystemId::A100).run(point(4.0, 8)).unwrap();
        assert_eq!(fom.precision, Precision::Bf16);
        let explicit = bench(SystemId::A100)
            .with_precision(Precision::Bf16)
            .run(point(4.0, 8))
            .unwrap();
        assert_eq!(fom.tokens_per_s, explicit.tokens_per_s);
        assert_eq!(fom.energy_wh_per_ktoken, explicit.energy_wh_per_ktoken);
    }

    #[test]
    fn bursty_load_sheds_more_than_poisson_at_same_mean_rate() {
        let mut b = bench(SystemId::A100);
        b.config.num_requests = 320;
        let poisson = b.simulate(point(60.0, 4)).unwrap();
        b.config.arrival = ArrivalKind::Bursty {
            burst_factor: 12.0,
            mean_burst: 16.0,
        };
        let bursty = b.simulate(point(60.0, 4)).unwrap();
        let sheds = |r: &SimReport| r.records.iter().filter(|x| !x.is_served()).count();
        assert!(
            sheds(&bursty) >= sheds(&poisson),
            "bursty {} vs poisson {}",
            sheds(&bursty),
            sheds(&poisson)
        );
    }
}
