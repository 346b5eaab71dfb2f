//! Extension (ROADMAP "Async inference serving"): LLM serving load
//! sweeps with SLO-aware continuous batching.
//!
//! For each GPU system, a seeded load grid (arrival rate × batch cap)
//! runs through the event-driven serving simulator and reports the
//! latency-bounded figures of merit MLPerf Power's server scenario made
//! standard: p50/p95/p99 TTFT, per-token latency, goodput (SLO-met
//! tokens/s), and Wh per kilo-token under load. A second grid replays
//! the same mean rates with a bursty arrival trace to show the tail
//! blow-up batching must absorb. Not a figure in the paper — clearly
//! marked as an extension.

use caraml::report::render_serve_table;
use caraml::scenario::{CellFom, Scenario, SweepSpec, WorkloadKind, BURSTY, DEFAULT_SEED};
use caraml::serve::ArrivalKind;
use caraml_accel::{NodeConfig, SystemId};

/// Print the load grid of one system and arrival process, run as a
/// serve sweep through the scenario executor.
fn load_table(title: &str, sys: SystemId, arrival: ArrivalKind) {
    let scenario = Scenario {
        name: "bench_serve".into(),
        seed: DEFAULT_SEED,
        sweeps: vec![SweepSpec {
            systems: vec![sys],
            rates: vec![4.0, 32.0, 128.0],
            caps: vec![4, 32],
            arrival,
            ..SweepSpec::new(WorkloadKind::Serve)
        }],
    };
    let outcomes: Vec<_> = scenario
        .execute()
        .swap_remove(0)
        .into_iter()
        .map(|(_, outcome)| outcome.map(CellFom::into_serve))
        .collect();
    println!("{}\n", render_serve_table(title, &outcomes));
}

fn main() {
    println!("EXTENSION — LLM serving under load (800M GPT, 160-request seeded traces)\n");
    for sys in [SystemId::A100, SystemId::H100Jrdc, SystemId::Gh200Jrdc] {
        let platform = &NodeConfig::shared(sys).platform;
        load_table(
            &format!("{platform} — Poisson arrivals"),
            sys,
            ArrivalKind::Poisson,
        );
    }
    load_table(
        "H100 (JRDC) — bursty arrivals (same mean rates, 8x burst intensity)",
        SystemId::H100Jrdc,
        BURSTY,
    );
    println!(
        "Identical seeds reproduce every number bit-for-bit; the parallel sweep is\n\
         asserted bit-identical to serial execution by the tier-1 determinism tests."
    );
}
