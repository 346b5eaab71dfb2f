//! Property tests for the continuous-batcher invariants.
//!
//! Single-node serving runs as a one-replica fleet on the `fleet` event
//! loop; these properties pin the three guarantees the rest of the stack
//! builds on, across randomized load points, seeds and arrival
//! processes:
//!
//! * **conservation** — every request in the arrival trace reaches
//!   exactly one terminal state (served to completion or explicitly
//!   shed); nothing is dropped, duplicated, or left limbo'd;
//! * **FIFO within an SLO class** — admission order never reorders two
//!   requests of the same class (priority across classes is allowed);
//! * **bounded occupancy** — concurrent decode occupancy never exceeds
//!   the configured cap, and reserved KV-cache bytes never exceed the
//!   budget derived from the device memory model.

use caraml::serve::{ArrivalKind, RequestOutcome, ServeBenchmark, ServePoint, SloClass};
use caraml_accel::{NodeConfig, SystemId};
use proptest::prelude::*;

const SYSTEMS: [SystemId; 4] = [
    SystemId::A100,
    SystemId::H100Jrdc,
    SystemId::Gh200Jrdc,
    SystemId::Mi250,
];

/// Build a benchmark + load point from raw proptest draws.
fn setup(
    sys: usize,
    seed: u64,
    requests: u32,
    rate: f64,
    cap: u32,
    bursty: bool,
    interactive_frac: f64,
) -> (ServeBenchmark, ServePoint) {
    let mut bench = ServeBenchmark::new(SYSTEMS[sys]);
    bench.config.seed = seed;
    bench.config.num_requests = requests;
    bench.config.interactive_frac = interactive_frac;
    if bursty {
        bench.config.arrival = ArrivalKind::Bursty {
            burst_factor: 6.0,
            mean_burst: 4.0,
        };
    }
    (
        bench,
        ServePoint {
            rate_per_s: rate,
            batch_cap: cap,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: the report covers the whole trace, ids are the
    /// arrival order, and each record is served xor shed with sane
    /// timestamps (no NaN ever escapes the simulator).
    #[test]
    fn every_request_is_served_or_shed_exactly_once(
        sys in 0usize..4,
        seed in 0u64..1_000_000,
        requests in 1u32..200,
        rate in 0.5f64..300.0,
        cap in 1u32..64,
        bursty_bit in 0u32..2,
        interactive_frac in 0.0f64..1.0,
    ) {
        let (bench, point) =
            setup(sys, seed, requests, rate, cap, bursty_bit == 1, interactive_frac);
        let report = bench.simulate(point).unwrap();
        prop_assert_eq!(report.records.len(), requests as usize);
        let mut served = 0u64;
        let mut served_tokens = 0u64;
        for (i, rec) in report.records.iter().enumerate() {
            prop_assert_eq!(rec.id as usize, i, "ids are the arrival order");
            match rec.outcome {
                RequestOutcome::Served { admit_s, first_token_s, finish_s, tokens, .. } => {
                    served += 1;
                    served_tokens += tokens;
                    prop_assert_eq!(tokens, rec.gen_tokens, "served requests run to completion");
                    prop_assert!(admit_s >= rec.arrival_s, "admitted after arrival");
                    prop_assert!(first_token_s > admit_s, "prefill takes time");
                    prop_assert!(finish_s.is_finite() && finish_s >= first_token_s);
                    prop_assert!(finish_s <= report.makespan_s + 1e-9);
                }
                RequestOutcome::Shed { at_s, .. } => {
                    prop_assert!(at_s >= rec.arrival_s, "shed after arrival");
                }
            }
        }
        let shed = report.records.len() as u64 - served;
        prop_assert_eq!(served + shed, requests as u64);
        prop_assert_eq!(report.served_tokens, served_tokens);
    }

    /// FIFO within a class: list each class's served requests in arrival
    /// (id) order — their admission sequence numbers must be strictly
    /// increasing. A violation means the batcher let a later request of
    /// the same class overtake an earlier one.
    #[test]
    fn admission_is_fifo_within_each_slo_class(
        sys in 0usize..4,
        seed in 0u64..1_000_000,
        requests in 2u32..200,
        rate in 0.5f64..300.0,
        cap in 1u32..64,
        bursty_bit in 0u32..2,
    ) {
        let (bench, point) = setup(sys, seed, requests, rate, cap, bursty_bit == 1, 0.5);
        let report = bench.simulate(point).unwrap();
        for class in [SloClass::Interactive, SloClass::Batch] {
            let seqs: Vec<u32> = report
                .records
                .iter()
                .filter(|r| r.class == class)
                .filter_map(|r| match r.outcome {
                    RequestOutcome::Served { admit_seq, .. } => Some(admit_seq),
                    RequestOutcome::Shed { .. } => None,
                })
                .collect();
            prop_assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "{:?} admissions out of FIFO order: {:?}",
                class,
                seqs
            );
        }
    }

    /// Bounded occupancy: the decode batch never exceeds the cap, and KV
    /// reservations never exceed the budget the device memory model
    /// allows (weights + budget itself must fit the HBM capacity).
    #[test]
    fn occupancy_and_kv_reservations_respect_the_caps(
        sys in 0usize..4,
        seed in 0u64..1_000_000,
        requests in 1u32..200,
        rate in 0.5f64..300.0,
        cap in 1u32..64,
        bursty_bit in 0u32..2,
    ) {
        let (bench, point) = setup(sys, seed, requests, rate, cap, bursty_bit == 1, 0.7);
        let report = bench.simulate(point).unwrap();
        prop_assert!(
            report.max_occupancy <= point.batch_cap,
            "occupancy {} above cap {}",
            report.max_occupancy,
            point.batch_cap
        );
        prop_assert!(
            report.max_kv_reserved_bytes <= report.kv_budget_bytes,
            "KV {} above budget {}",
            report.max_kv_reserved_bytes,
            report.kv_budget_bytes
        );
        let mem = NodeConfig::shared(SYSTEMS[sys]).device.mem_bytes;
        prop_assert!(report.weight_bytes + report.kv_budget_bytes <= mem);
    }
}
