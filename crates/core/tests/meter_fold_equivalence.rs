//! The engine's one metering path against the node it no longer replays.
//!
//! `caraml::engine::meter` folds a plan's phases into one power step
//! function per metered device and samples them with jpwr's loop. The
//! reference is jpwr's model of the hardware: a `SimNode` driven through
//! the same phases with `run_phase` (phases of non-positive duration
//! skipped), closed with `idle_phase(0.0)`, its power registers sampled
//! by the same loop. Every change of every step function, every sample
//! time, every sampled watt and every busy fraction must agree to the bit
//! — across systems (the JEDI TDP override included), metered device
//! counts, degenerate phases and measurement windows — and a phase of
//! infinite duration must fail with the same error on both sides.

use caraml::engine::{self, MeterSpec, PhaseSpec, Workload};
use caraml::fleet::FleetBenchmark;
use caraml::inference::{InferenceBenchmark, InferenceWorkload};
use caraml::llm::{LlmBenchmark, LlmWorkload};
use caraml::resnet::IpuResnetWorkload;
use caraml::serve::ServePoint;
use caraml_accel::{AccelError, NodeConfig, PhaseKind, PowerTrace, SimNode, SystemId};
use jpwr::{sample_virtual, Measurement};
use proptest::prelude::*;

/// H100 (4 devices), MI250 (8), JEDI (TDP override) and GC200 (4 IPUs).
const SYSTEMS: [SystemId; 4] = [
    SystemId::H100Jrdc,
    SystemId::Mi250,
    SystemId::Jedi,
    SystemId::Gc200,
];

/// What one side of the comparison produced: the sampled measurement,
/// the metered step functions, and each device's busy fraction over the
/// measurement window.
struct Metered {
    measurement: Measurement,
    traces: Vec<PowerTrace>,
    busy: Vec<f64>,
}

/// Busy threshold of the fleet's duty cycle: 1 W above the idle floor.
fn busy_above_w(cfg: &NodeConfig) -> f64 {
    caraml_accel::PowerModel::for_device(&cfg.device, cfg.tdp_override_w).idle_w + 1.0
}

/// The reference: a node driven through the phases, its registers
/// sampled by jpwr.
fn replay(cfg: &NodeConfig, phases: &[PhaseSpec], spec: &MeterSpec) -> Result<Metered, AccelError> {
    let node = SimNode::new(cfg.clone());
    for p in phases {
        if p.duration_s > 0.0 {
            node.run_phase(p.active, p.duration_s, p.utilization, p.sustained_w)?;
        }
    }
    node.idle_phase(0.0)?;
    let registers: Vec<_> = node.devices()[..spec.devices]
        .iter()
        .map(|d| d.power_register())
        .collect();
    let traces: Vec<PowerTrace> = registers.iter().map(|r| r.trace()).collect();
    let sources: Vec<_> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("{}{i}", spec.prefix), spec.method.to_string(), t))
        .collect();
    let (t0, t1) = spec.window;
    Ok(Metered {
        measurement: sample_virtual(&sources, spec.interval_s, t0, t1),
        busy: registers
            .iter()
            .map(|r| r.busy_fraction(t0, t1, busy_above_w(cfg)))
            .collect(),
        traces,
    })
}

/// The engine's fold.
fn fold(cfg: &NodeConfig, phases: &[PhaseSpec], spec: &MeterSpec) -> Result<Metered, AccelError> {
    let (measurement, traces) = engine::meter(cfg, phases, spec)?;
    let (t0, t1) = spec.window;
    Ok(Metered {
        busy: traces
            .iter()
            .map(|t| t.busy_fraction(t0, t1, busy_above_w(cfg)))
            .collect(),
        measurement,
        traces,
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn change_bits(t: &PowerTrace) -> Vec<(u64, u64)> {
    t.samples()
        .iter()
        .map(|s| (s.time_s.to_bits(), s.power_w.to_bits()))
        .collect()
}

/// Compare fold and replay bit for bit; `Err` names the first mismatch.
fn check(cfg: &NodeConfig, phases: &[PhaseSpec], spec: &MeterSpec) -> Result<(), String> {
    match (fold(cfg, phases, spec), replay(cfg, phases, spec)) {
        (Ok(f), Ok(r)) => {
            let (fm, rm) = (&f.measurement, &r.measurement);
            if fm.df.columns != rm.df.columns || fm.method_per_column != rm.method_per_column {
                return Err(format!(
                    "columns {:?} vs {:?}",
                    fm.df.columns, rm.df.columns
                ));
            }
            if bits(&fm.df.time_s) != bits(&rm.df.time_s) {
                return Err("sample times differ".into());
            }
            for (c, (fv, rv)) in fm.df.values.iter().zip(&rm.df.values).enumerate() {
                if bits(fv) != bits(rv) {
                    return Err(format!("column {c} samples differ"));
                }
            }
            for (d, (ft, rt)) in f.traces.iter().zip(&r.traces).enumerate() {
                if change_bits(ft) != change_bits(rt) {
                    return Err(format!("device {d} step functions differ"));
                }
            }
            if bits(&f.busy) != bits(&r.busy) {
                return Err(format!("busy fractions {:?} vs {:?}", f.busy, r.busy));
            }
            Ok(())
        }
        (Err(fe), Err(re)) if fe == re => Ok(()),
        (f, r) => Err(format!(
            "outcomes differ: fold {:?}, replay {:?}",
            f.err(),
            r.err()
        )),
    }
}

fn phase(duration_s: f64, active: usize, utilization: f64, sustained_w: f64) -> PhaseSpec {
    PhaseSpec {
        kind: PhaseKind::Compute,
        label: "phase",
        active,
        duration_s,
        utilization,
        sustained_w,
    }
}

/// Positive durations of several magnitudes, and the degenerate ones the
/// fold must skip: zero, negative, NaN.
fn duration() -> impl Strategy<Value = f64> {
    prop_oneof![
        1.0..3600.0f64,
        0.5..50_000.0f64,
        1e-7..1e-2f64,
        Just(0.0),
        -500.0..-1e-6f64,
        Just(f64::NAN),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fold_matches_the_node_replay(
        system in 0usize..SYSTEMS.len(),
        device_draw in 0usize..64,
        raw in prop::collection::vec(
            // duration, active (0 to past the device count), utilization
            // outside [0, 1], sustained power up to past every TDP.
            (duration(), 0usize..11, -0.5..1.5f64, 0.0..1500.0f64),
            0..24,
        ),
        infinite_at in 0usize..64,
        (t0_frac, span_frac) in (prop_oneof![Just(0.0), 0.0..1.2f64], 0.0..1.2f64),
        samples in 1usize..400,
    ) {
        let cfg = NodeConfig::shared(SYSTEMS[system]);
        let devices = 1 + device_draw % cfg.devices_per_node as usize;
        let mut phases: Vec<PhaseSpec> = raw
            .into_iter()
            .map(|(d, active, u, w)| phase(d, active, u, w))
            .collect();
        if let Some(p) = phases.get_mut(infinite_at) {
            p.duration_s = f64::INFINITY;
        }
        let run_s: f64 = phases
            .iter()
            .map(|p| p.duration_s)
            .filter(|d| *d > 0.0 && d.is_finite())
            .sum();
        // Windows may start after 0 (like IPU ResNet's, which leaves out
        // graph compilation) and end before or after the run does.
        let t0 = t0_frac * run_s;
        let t1 = t0 + span_frac * run_s;
        let spec = MeterSpec {
            devices,
            prefix: "dev",
            method: "pynvml",
            interval_s: ((t1 - t0) / samples as f64).max(1e-3),
            window: (t0, t1),
        };
        if let Err(msg) = check(&cfg, &phases, &spec) {
            prop_assert!(false, "{msg}");
        }
    }
}

#[test]
fn infinite_duration_fails_alike() {
    let cfg = NodeConfig::shared(SystemId::Jedi);
    let phases = [
        phase(10.0, 4, 1.0, 700.0),
        phase(f64::INFINITY, 2, 0.5, 700.0),
        phase(5.0, 1, 1.0, 700.0),
    ];
    let spec = MeterSpec {
        devices: 4,
        prefix: "dev",
        method: "pynvml",
        interval_s: 1.0,
        window: (0.0, 15.0),
    };
    let err = fold(&cfg, &phases, &spec).err().expect("fold fails");
    assert_eq!(
        err,
        AccelError::ClockWentBackwards {
            now: 10.0,
            requested: f64::INFINITY
        }
    );
    assert_eq!(Some(err), replay(&cfg, &phases, &spec).err());
}

#[test]
fn benchmark_plans_match_the_node_replay() {
    let mut plans = Vec::new();
    // Fig. 2 LLM training on a full JEDI node (TDP override).
    let llm = LlmBenchmark::fig2(SystemId::Jedi);
    let w = LlmWorkload {
        bench: &llm,
        global_batch: 512,
    };
    plans.push((
        w.system(),
        w.plan(&NodeConfig::shared(w.system())).unwrap().1,
    ));
    // Table III: the window leaves out graph compilation.
    let w = IpuResnetWorkload {
        global_batch: 64,
        sample_interval_s: 1.0,
    };
    plans.push((
        w.system(),
        w.plan(&NodeConfig::shared(w.system())).unwrap().1,
    ));
    let inference = InferenceBenchmark::new(SystemId::Mi250);
    let w = InferenceWorkload {
        bench: &inference,
        batch: 8,
    };
    plans.push((
        w.system(),
        w.plan(&NodeConfig::shared(w.system())).unwrap().1,
    ));
    for (system, plan) in &plans {
        let cfg = NodeConfig::shared(*system);
        check(&cfg, &plan.phases, &plan.meter).unwrap();
    }

    // A serving fleet's replicas: thousands of short phases each, metered
    // the way the fleet meters them.
    let fleet = FleetBenchmark::new(SystemId::H100Jrdc);
    let report = fleet
        .simulate(ServePoint {
            rate_per_s: 40.0,
            batch_cap: 16,
        })
        .unwrap();
    let cfg = NodeConfig::shared(SystemId::H100Jrdc);
    let makespan = report.makespan_s;
    let spec = MeterSpec {
        devices: 1,
        prefix: "dev",
        method: "pynvml",
        interval_s: (makespan / 600.0).max(1e-4),
        window: (0.0, makespan),
    };
    for replica in &report.replicas {
        assert!(replica.phases.len() > 100, "{}", replica.phases.len());
        check(&cfg, &replica.phases, &spec).unwrap();
    }
}
