//! Determinism tests for the fleet-serving subsystem.
//!
//! The fleet FOMs are the contract of the policy comparisons, so they
//! must be exactly reproducible: identical seed ⇒ bit-identical routing
//! decisions, per-request latencies and energy totals — across repeated
//! runs, and for the policy sweep run through [`Scenario::execute`]
//! across 1/2/4-thread rayon pools and across sharded dispatch on a
//! simulated Slurm partition. Every comparison projects `f64`s onto
//! their raw bit patterns, so a pass means *bit* identity, not
//! approximate agreement.

use caraml::engine::RunOutcome;
use caraml::fleet::{AutoscaleConfig, FleetBenchmark, RoutePolicy};
use caraml::scenario::{CellFom, Scenario, SweepSpec, WorkloadKind, BURSTY, DEFAULT_SEED};
use caraml::serve::{ArrivalKind, RequestOutcome};
use caraml::{FleetFom, ServePoint};
use caraml_accel::{NodeConfig, SystemId};
use jube::SlurmSim;

/// A fleet with every subsystem lit up: four replicas behind the router,
/// autoscaling enabled, disaggregated prefill/decode pools, prefix
/// reuse, bursty arrivals.
fn bench() -> FleetBenchmark {
    let mut b = FleetBenchmark::new(SystemId::H100Jrdc)
        .disaggregated(true)
        .with_autoscale(AutoscaleConfig::default());
    b.config.serve.num_requests = 400;
    b.config.serve.arrival = ArrivalKind::Bursty {
        burst_factor: 8.0,
        mean_burst: 6.0,
    };
    b
}

fn point() -> ServePoint {
    ServePoint {
        rate_per_s: 96.0,
        batch_cap: 16,
    }
}

/// Project a FleetFom onto exact bit patterns.
fn fom_bits(f: &FleetFom) -> Vec<u64> {
    vec![
        f.rate_per_s.to_bits(),
        u64::from(f.batch_cap),
        u64::from(f.replicas_base),
        u64::from(f.replicas_peak),
        f.requests,
        f.served,
        f.shed,
        f.ttft.p50.to_bits(),
        f.ttft.p95.to_bits(),
        f.ttft.p99.to_bits(),
        f.tpot.p50.to_bits(),
        f.tpot.p95.to_bits(),
        f.tpot.p99.to_bits(),
        f.tokens_per_s.to_bits(),
        f.goodput_tokens_per_s.to_bits(),
        f.slo_attainment.to_bits(),
        f.energy_wh_per_ktoken.to_bits(),
        f.mean_fleet_power_w.to_bits(),
        u64::from(f.scale_up_events),
        u64::from(f.scale_down_events),
        f.kv_handoffs,
        f.kv_handoff_gb.to_bits(),
        f.prefix_reuse_frac.to_bits(),
    ]
}

/// Project a policy-sweep outcome so equality means bit-identity.
fn sweep_bits(outcomes: &[RunOutcome<FleetFom>]) -> Vec<(Vec<u64>, String)> {
    outcomes
        .iter()
        .map(|o| match o {
            RunOutcome::Completed(f) => (fom_bits(f), f.policy.clone()),
            RunOutcome::Oom {
                device, requested, ..
            } => (Vec::new(), format!("oom:{device}:{requested}")),
            RunOutcome::Failed(e) => (Vec::new(), format!("failed:{e}")),
        })
        .collect()
}

/// Replicas and trace length of the policy sweep. The scenario
/// autoscales a fleet between `min(replicas, 8)` and `max(replicas, 8)`
/// replicas, so it starts at its floor and can scale down only after
/// scaling up; two replicas and 1,600 requests are enough for round-robin
/// and session affinity to do both.
const SWEEP_REPLICAS: u32 = 2;
const SWEEP_REQUESTS: u32 = 1600;

/// A fleet like [`bench`] (bursty, disaggregated, autoscaled) at
/// [`point`] under each of `policies`, as a fleet sweep run through the
/// scenario executor on the pool the caller runs in.
fn policy_sweep(policies: Vec<RoutePolicy>) -> Vec<RunOutcome<FleetFom>> {
    let scenario = Scenario {
        name: "fleet".into(),
        seed: DEFAULT_SEED,
        sweeps: vec![SweepSpec {
            systems: vec![SystemId::H100Jrdc],
            policies,
            replicas: SWEEP_REPLICAS,
            rates: vec![point().rate_per_s],
            caps: vec![point().batch_cap],
            requests: Some(SWEEP_REQUESTS),
            arrival: BURSTY,
            disagg: true,
            autoscale: true,
            ..SweepSpec::new(WorkloadKind::Fleet)
        }],
    };
    scenario
        .execute()
        .swap_remove(0)
        .into_iter()
        .map(|(_, outcome)| outcome.map(CellFom::into_fleet))
        .collect()
}

/// Run the full policy sweep inside a rayon pool of `threads` workers.
fn sweep_in_pool(threads: usize) -> Vec<(Vec<u64>, String)> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| sweep_bits(&policy_sweep(RoutePolicy::ALL.to_vec())))
}

#[test]
fn routing_decisions_and_latencies_are_bit_identical_across_runs() {
    let b = bench();
    let run = || {
        let report = b.simulate(point()).unwrap();
        let decisions: Vec<(u32, u64, u32, u32)> = report
            .decisions
            .iter()
            .map(|d| (d.request, d.at_s.to_bits(), d.replica, d.scale_epoch))
            .collect();
        let records: Vec<(u32, u64, u64)> = report
            .records
            .iter()
            .map(|r| match r.outcome {
                RequestOutcome::Served {
                    first_token_s,
                    finish_s,
                    ..
                } => (r.id, first_token_s.to_bits(), finish_s.to_bits()),
                RequestOutcome::Shed { at_s, .. } => (r.id, at_s.to_bits(), 0),
            })
            .collect();
        let scale: Vec<(u64, u32)> = report
            .scale_events
            .iter()
            .map(|e| (e.at_s.to_bits(), e.replicas_after))
            .collect();
        (decisions, records, scale, report.makespan_s.to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn repeated_runs_reproduce_energy_and_latency_bits() {
    let b = bench();
    let a = fom_bits(&b.run(point()).unwrap());
    let c = fom_bits(&b.run(point()).unwrap());
    assert_eq!(a, c, "fresh contexts must reproduce every fleet FOM bit");
}

#[test]
fn serial_and_parallel_policy_sweeps_are_bit_identical() {
    let serial = sweep_in_pool(1);
    let parallel = policy_sweep(RoutePolicy::ALL.to_vec());
    assert_eq!(serial, sweep_bits(&parallel));
    assert!(serial.iter().all(|(bits, err)| !bits.is_empty()
        && !err.starts_with("oom")
        && !err.starts_with("failed")));
    // The identity covers the autoscaler's both directions.
    assert!(
        parallel
            .iter()
            .filter_map(RunOutcome::as_completed)
            .any(|f| f.scale_up_events > 0 && f.scale_down_events > 0),
        "no cell scaled both up and down"
    );
}

#[test]
fn policy_sweep_is_bit_identical_across_1_2_4_thread_pools() {
    let one = sweep_in_pool(1);
    let two = sweep_in_pool(2);
    let four = sweep_in_pool(4);
    assert_eq!(one, two, "1-thread vs 2-thread pools");
    assert_eq!(two, four, "2-thread vs 4-thread pools");
}

#[test]
fn sharded_policy_sweep_matches_serial_bit_for_bit() {
    let serial = sweep_in_pool(1);
    // Each shard job holds the nodes of the fleet at peak scale.
    let nodes = NodeConfig::shared(SystemId::H100Jrdc).nodes_for(SWEEP_REPLICAS.max(8));
    for shards in [1usize, 2, 3] {
        let slurm = SlurmSim::new(nodes * 2);
        let sharded = slurm
            .map_shards(
                "fleet",
                RoutePolicy::ALL.to_vec(),
                shards,
                |_| nodes,
                |policy| policy_sweep(vec![policy]).swap_remove(0),
            )
            .unwrap();
        assert_eq!(
            sweep_bits(&sharded),
            serial,
            "{shards}-shard dispatch must match serial bit-for-bit"
        );
        assert!(slurm
            .records()
            .iter()
            .all(|r| r.state == jube::JobState::Completed && r.nodes == nodes));
    }
}

#[test]
fn different_seeds_actually_change_the_results() {
    // Guards against the determinism tests passing vacuously: a
    // different seed must move the fleet FOM bits.
    let a = fom_bits(&bench().run(point()).unwrap());
    let mut b2 = bench();
    b2.config.serve.seed = 1234;
    let c = fom_bits(&b2.run(point()).unwrap());
    assert_ne!(a, c, "seed must influence the fleet FOMs");
}
