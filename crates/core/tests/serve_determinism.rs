//! Determinism tests for the serving subsystem.
//!
//! The serving FOMs gate tier-1, so they must be exactly reproducible:
//! identical seed ⇒ bit-identical arrival trace, per-request latencies
//! and energy totals — across repeated runs, and across 1/2/4-thread
//! rayon pools for the load grid run as a serve sweep through
//! [`Scenario::execute`]. Every comparison here projects `f64`s onto
//! their raw bit patterns, so a pass means *bit* identity, not
//! approximate agreement.

use caraml::engine::RunOutcome;
use caraml::scenario::{CellFom, Scenario, SweepSpec, WorkloadKind, DEFAULT_SEED};
use caraml::serve::{arrival_trace, load_grid, ArrivalKind, RequestOutcome, ServeBenchmark};
use caraml::ServeFom;
use caraml_accel::SystemId;

fn bench() -> ServeBenchmark {
    ServeBenchmark::new(SystemId::H100Jrdc)
}

const RATES: [f64; 3] = [4.0, 32.0, 128.0];
const CAPS: [u32; 2] = [2, 16];

fn grid() -> Vec<caraml::ServePoint> {
    load_grid(&RATES, &CAPS)
}

/// The load grid as a serve sweep on the same default config as
/// [`bench`].
fn scenario() -> Scenario {
    Scenario {
        name: "serve".into(),
        seed: DEFAULT_SEED,
        sweeps: vec![SweepSpec {
            systems: vec![SystemId::H100Jrdc],
            rates: RATES.to_vec(),
            caps: CAPS.to_vec(),
            ..SweepSpec::new(WorkloadKind::Serve)
        }],
    }
}

/// Project a ServeFom onto exact bit patterns.
fn fom_bits(f: &ServeFom) -> Vec<u64> {
    vec![
        f.rate_per_s.to_bits(),
        u64::from(f.batch_cap),
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
        f.mean_power_w.to_bits(),
        f.peak_power_w.to_bits(),
        f.busy_fraction.to_bits(),
    ]
}

/// Project a sweep outcome (completed cells by FOM bits, OOM/failed
/// cells by message) so equality means bit-identity.
fn sweep_bits(outcomes: &[RunOutcome<ServeFom>]) -> Vec<(Vec<u64>, String)> {
    outcomes
        .iter()
        .map(|o| match o {
            RunOutcome::Completed(f) => (fom_bits(f), String::new()),
            RunOutcome::Oom {
                device, requested, ..
            } => (Vec::new(), format!("oom:{device}:{requested}")),
            RunOutcome::Failed(e) => (Vec::new(), format!("failed:{e}")),
        })
        .collect()
}

/// Run the load sweep through the scenario executor on the pool the
/// caller runs in.
fn sweep() -> Vec<(Vec<u64>, String)> {
    let outcomes: Vec<RunOutcome<ServeFom>> = scenario()
        .execute()
        .swap_remove(0)
        .into_iter()
        .map(|(_, outcome)| outcome.map(CellFom::into_serve))
        .collect();
    sweep_bits(&outcomes)
}

/// Run the full load sweep inside a rayon pool of `threads` workers.
fn sweep_in_pool(threads: usize) -> Vec<(Vec<u64>, String)> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(sweep)
}

#[test]
fn arrival_trace_is_bit_identical_across_runs() {
    for arrival in [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty {
            burst_factor: 8.0,
            mean_burst: 6.0,
        },
    ] {
        let mut b = bench();
        b.config.arrival = arrival;
        let bits = |cfg: &caraml::serve::ServeConfig| -> Vec<(u64, u64, u64, u8)> {
            arrival_trace(cfg, 24.0)
                .iter()
                .map(|r| {
                    (
                        r.arrival_s.to_bits(),
                        r.prompt_tokens,
                        r.gen_tokens,
                        matches!(r.class, caraml::SloClass::Interactive) as u8,
                    )
                })
                .collect()
        };
        assert_eq!(bits(&b.config), bits(&b.config), "{arrival:?}");
    }
}

#[test]
fn per_request_latencies_are_bit_identical_across_runs() {
    let b = bench();
    let p = caraml::ServePoint {
        rate_per_s: 64.0,
        batch_cap: 8,
    };
    let run = || -> Vec<(u32, u64, u64, u64)> {
        b.simulate(p)
            .unwrap()
            .records
            .iter()
            .map(|r| match r.outcome {
                RequestOutcome::Served {
                    first_token_s,
                    finish_s,
                    ..
                } => (
                    r.id,
                    r.arrival_s.to_bits(),
                    first_token_s.to_bits(),
                    finish_s.to_bits(),
                ),
                RequestOutcome::Shed { at_s, .. } => {
                    (r.id, r.arrival_s.to_bits(), at_s.to_bits(), 0)
                }
            })
            .collect()
    };
    assert_eq!(run(), run());
}

#[test]
fn repeated_runs_reproduce_energy_and_latency_bits() {
    let b = bench();
    let p = caraml::ServePoint {
        rate_per_s: 32.0,
        batch_cap: 16,
    };
    let a = fom_bits(&b.run(p).unwrap());
    let c = fom_bits(&b.run(p).unwrap());
    assert_eq!(a, c, "fresh contexts must reproduce every FOM bit");
}

#[test]
fn serial_and_parallel_sweeps_are_bit_identical() {
    let serial = sweep_in_pool(1);
    let parallel = sweep();
    assert_eq!(serial, parallel);
    // The sweep's cells are the benchmark's own runs, in grid order.
    let direct: Vec<RunOutcome<ServeFom>> = grid()
        .into_iter()
        .map(|p| RunOutcome::from_result(bench().run(p)))
        .collect();
    assert_eq!(serial, sweep_bits(&direct));
    // The grid deliberately includes an overloaded cell so the identity
    // also covers shedding paths, and completed cells must dominate.
    assert!(serial
        .iter()
        .all(|(bits, err)| !bits.is_empty() && err.is_empty()));
}

#[test]
fn sweep_is_bit_identical_across_1_2_4_thread_pools() {
    let one = sweep_in_pool(1);
    let two = sweep_in_pool(2);
    let four = sweep_in_pool(4);
    assert_eq!(one, two, "1-thread vs 2-thread pools");
    assert_eq!(two, four, "2-thread vs 4-thread pools");
}

#[test]
fn different_seeds_actually_change_the_results() {
    // Guards against the determinism tests passing vacuously (e.g. the
    // seed being ignored): a different seed must move the FOM bits.
    let p = caraml::ServePoint {
        rate_per_s: 64.0,
        batch_cap: 8,
    };
    let a = fom_bits(&bench().run(p).unwrap());
    let mut b2 = bench();
    b2.config.seed = 1234;
    let c = fom_bits(&b2.run(p).unwrap());
    assert_ne!(a, c, "seed must influence the serving FOMs");
}

/// FNV-1a-64 over little-endian `u64` words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn words(&mut self, ws: &[u64]) {
        ws.iter().for_each(|&w| self.word(w));
    }
}

/// Fold one load point into the digest: the simulation's summary, every
/// phase and every request record, then every word of the engine FOM.
fn fold_point(h: &mut Fnv1a, b: &ServeBenchmark, p: caraml::ServePoint) {
    let report = b.simulate(p).unwrap();
    h.words(&[
        report.makespan_s.to_bits(),
        u64::from(report.max_occupancy),
        report.max_kv_reserved_bytes,
        report.kv_budget_bytes,
        report.weight_bytes,
        report.decode_steps,
        report.served_tokens,
        report.phases.len() as u64,
    ]);
    for ph in &report.phases {
        h.bytes(ph.label.as_bytes());
        h.words(&[
            ph.duration_s.to_bits(),
            ph.utilization.to_bits(),
            ph.sustained_w.to_bits(),
        ]);
    }
    for r in &report.records {
        h.words(&[
            u64::from(r.id),
            matches!(r.class, caraml::SloClass::Interactive) as u64,
            r.arrival_s.to_bits(),
            r.gen_tokens,
        ]);
        match r.outcome {
            RequestOutcome::Served {
                admit_seq,
                admit_s,
                first_token_s,
                finish_s,
                tokens,
            } => h.words(&[
                0,
                u64::from(admit_seq),
                admit_s.to_bits(),
                first_token_s.to_bits(),
                finish_s.to_bits(),
                tokens,
            ]),
            RequestOutcome::Shed { at_s, reason } => h.words(&[
                1,
                at_s.to_bits(),
                matches!(reason, caraml::serve::ShedReason::KvCacheOverflow) as u64,
            ]),
        }
    }
    h.words(&fom_bits(&b.run(p).unwrap()));
}

/// Every committed serving configuration, folded into one FNV-1a-64
/// constant: this file's grid, the `examples/scenario.toml` serve sweep,
/// a 3-rate × 2-cap grid (4, 32 and 128 req/s × caps 4 and 32, seed 42,
/// Poisson and bursty) on each committed GPU system, and three short
/// 256-request traces (Poisson at 64 and 256 req/s, bursty at
/// 64 req/s). Unlike the run-against-itself tests above,
/// this pins absolute bits, so any change to the serving arithmetic has
/// to name the configuration it moved and re-pin the constant.
#[test]
fn committed_serve_configurations_match_the_golden_checksum() {
    let mut h = Fnv1a::new();
    let mut points = 0;

    for p in grid() {
        fold_point(&mut h, &bench(), p);
        points += 1;
    }

    for sys in [SystemId::A100, SystemId::H100Jrdc] {
        for precision in [caraml_accel::Precision::Bf16, caraml_accel::Precision::Int8] {
            let mut b = ServeBenchmark::new(sys).with_precision(precision);
            b.config.num_requests = 64;
            b.config.seed = 7;
            fold_point(&mut h, &b, load_grid(&[32.0], &[16])[0]);
            points += 1;
        }
    }

    let bursty = ArrivalKind::Bursty {
        burst_factor: 8.0,
        mean_burst: 6.0,
    };
    // Serving runs on any GPU tag: pin the seven committed ones, so
    // adding a device file adds configurations instead of moving these.
    for tag in [
        "JEDI", "GH200", "H100", "WAIH100", "MI250", "A100", "EDGERV",
    ] {
        let sys = SystemId::try_from_tag(tag).unwrap();
        for arrival in [ArrivalKind::Poisson, bursty] {
            let mut b = ServeBenchmark::new(sys);
            b.config.seed = 42;
            b.config.arrival = arrival;
            for p in load_grid(&[4.0, 32.0, 128.0], &[4, 32]) {
                fold_point(&mut h, &b, p);
                points += 1;
            }
        }
    }

    let mut b = bench();
    b.config.num_requests = 256;
    for (rate, cap) in [(64.0, 16), (256.0, 64)] {
        fold_point(&mut h, &b, load_grid(&[rate], &[cap])[0]);
        points += 1;
    }
    b.config.arrival = bursty;
    fold_point(&mut h, &b, load_grid(&[64.0], &[16])[0]);
    points += 1;

    assert_eq!(points, 97);
    assert_eq!(
        h.0, 0x2b42_5b50_2002_5b8b,
        "serve golden checksum {:#018x}",
        h.0
    );
}
