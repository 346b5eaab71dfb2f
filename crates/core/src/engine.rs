//! The unified workload execution engine.
//!
//! Every benchmark family in this crate (LLM training, large-model 3D
//! parallel training, ResNet50 training, LLM inference — on GPUs and
//! IPUs alike) follows the same execution shape:
//!
//! 1. validate the configuration and evaluate the cost model, yielding a
//!    list of timed power *phases*;
//! 2. drive a simulated node ([`SimNode`]) through those phases;
//! 3. replay jpwr's sampling loop over a measurement window of the
//!    virtual timeline;
//! 4. derive figures of merit from the sampled power trace.
//!
//! Before this module existed, each benchmark owned steps 2–3 privately
//! (its own `SimNode::new`, its own `virtual_sources` + `sample_virtual`
//! calls). The [`Workload`] trait makes the split explicit: a workload
//! *plans* (step 1, pure cost-model math) and *finishes* (step 4, pure
//! FOM arithmetic); the engine owns the node and meter lifecycle in
//! between. [`RunContext`] is the only place in the crate that
//! constructs a node or a power meter; a parameter grid executes many
//! plans in parallel through rayon's ordered `into_par_iter()`.

use caraml_accel::{AccelError, NodeConfig, PhaseKind, SimDevice, SimNode, SystemId, Timeline};
use jpwr::{Measurement, PowerMeasurement};
use std::sync::Arc;

/// One timed power phase of a plan: `active` devices run at `utilization`
/// (relative to the workload's `sustained_w` power level) for
/// `duration_s` virtual seconds while the remaining devices idle.
///
/// Phases with non-positive duration are skipped (the conditional
/// `if t_stall > 0.0` guards the individual benchmarks used to carry).
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    pub kind: PhaseKind,
    /// Timeline label (e.g. `"training compute"`).
    pub label: &'static str,
    /// Leading devices active in this phase.
    pub active: usize,
    pub duration_s: f64,
    /// Relative utilization in `[0, 1]`.
    pub utilization: f64,
    /// Sustained power level the utilization is relative to, watts.
    pub sustained_w: f64,
}

/// How to measure the executed phases: which devices to meter, under
/// which jpwr method, and which window of the virtual timeline to sample.
#[derive(Debug, Clone)]
pub struct MeterSpec {
    /// Leading devices to meter.
    pub devices: usize,
    /// Column-name prefix (`"dev"` for GPUs, `"ipu"` for IPUs).
    pub prefix: &'static str,
    /// jpwr method name (`"pynvml"`, `"gcipuinfo"`, ...).
    pub method: &'static str,
    /// Sampling interval on the virtual timeline, seconds.
    pub interval_s: f64,
    /// Measurement window `(t0, t1)` in virtual seconds. Not necessarily
    /// the full run: the IPU ResNet path excludes graph compilation.
    pub window: (f64, f64),
}

/// The executable part of a plan: device-0 allocations held for the run,
/// the phase sequence, and the measurement to take afterwards.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// `(label, bytes)` allocations made on device 0 before the phases
    /// (the training state of the LLM benchmark).
    pub allocations: Vec<(&'static str, u64)>,
    pub phases: Vec<PhaseSpec>,
    pub meter: MeterSpec,
    /// Devices recorded in the execution timeline (0 disables tracing;
    /// benchmarks whose run type carries no timeline skip the work).
    pub timeline_devices: u32,
}

impl PhasePlan {
    /// Sum of all phase durations (including skipped zero phases).
    pub fn total_duration_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }
}

/// What the engine hands back to [`Workload::finish`]: the jpwr
/// measurement over the plan's window and the recorded timeline.
#[derive(Debug, Clone)]
pub struct Executed {
    pub measurement: Measurement,
    pub timeline: Timeline,
}

/// A benchmark workload the engine can execute.
///
/// Implementations are thin wrappers pairing a benchmark configuration
/// with one grid point (a global batch size, a node count, ...). See
/// the crate README for the implementor checklist.
pub trait Workload {
    /// Cost-model state carried from [`Workload::plan`] to
    /// [`Workload::finish`] (iteration times, token counts, ...).
    type Plan;
    /// The completed run type (e.g. `LlmRun`).
    type Output;

    /// System whose node the engine instantiates for this run.
    fn system(&self) -> SystemId;

    /// Validate and evaluate the cost model. Pure math plus read-only
    /// queries against the context's node (specs, rooflines, memory
    /// capacity); must not drive phases or sample power itself.
    fn plan(&self, ctx: &RunContext) -> Result<(Self::Plan, PhasePlan), AccelError>;

    /// Derive the figures of merit from the executed phases.
    fn finish(&self, plan: Self::Plan, exec: Executed, ctx: &RunContext) -> Self::Output;
}

/// The engine-owned execution state of one run: the simulated node (and
/// through it the virtual clock), metered once by jpwr after the phases.
///
/// This is the **only** place in the benchmark crate that constructs
/// [`SimNode`]s and [`PowerMeasurement`]s; workloads receive a context
/// instead of building their own.
pub struct RunContext {
    node: SimNode,
}

impl RunContext {
    /// Fresh context for a system, sharing the process-wide cached
    /// [`NodeConfig`] allocation.
    pub fn for_system(id: SystemId) -> Self {
        Self::from_shared(NodeConfig::shared(id))
    }

    /// Fresh context over an explicit shared node configuration.
    pub fn from_shared(config: Arc<NodeConfig>) -> Self {
        RunContext {
            node: SimNode::from_shared(config),
        }
    }

    pub fn node(&self) -> &SimNode {
        &self.node
    }

    pub fn config(&self) -> &NodeConfig {
        self.node.config()
    }

    pub fn device(&self, i: usize) -> &SimDevice {
        self.node.device(i)
    }

    /// A jpwr meter over the leading `devices`. The power registers are
    /// shared with the devices, so the meter sees every phase the node
    /// has run.
    pub fn power_meter(&self, devices: usize, prefix: &str, method: &str) -> PowerMeasurement {
        PowerMeasurement::new(&self.node.devices()[..devices], prefix, method)
    }
}

/// The structured outcome of a run, replacing ad-hoc `Result` plumbing
/// at the sweep layer: out-of-memory is an expected, reportable grid
/// outcome (the Fig. 4 OOM cells), not a failure.
#[derive(Debug, Clone)]
pub enum RunOutcome<T> {
    /// The run completed and produced its figures of merit.
    Completed(T),
    /// The configuration does not fit device memory.
    Oom {
        device: String,
        requested: u64,
        available: u64,
        capacity: u64,
    },
    /// The configuration is invalid or the simulation failed.
    Failed(AccelError),
}

impl<T> RunOutcome<T> {
    /// Classify an error: OOM becomes [`RunOutcome::Oom`], everything
    /// else [`RunOutcome::Failed`].
    pub fn from_error(e: AccelError) -> Self {
        match e {
            AccelError::OutOfMemory {
                device,
                requested,
                available,
                capacity,
            } => RunOutcome::Oom {
                device,
                requested,
                available,
                capacity,
            },
            other => RunOutcome::Failed(other),
        }
    }

    /// Lift a `Result` into an outcome.
    pub fn from_result(r: Result<T, AccelError>) -> Self {
        match r {
            Ok(v) => RunOutcome::Completed(v),
            Err(e) => Self::from_error(e),
        }
    }

    /// Lower back into the `Result` the public `run()` APIs return. The
    /// round-trip is lossless: `Oom` reconstructs the exact
    /// [`AccelError::OutOfMemory`] it was classified from.
    pub fn into_result(self) -> Result<T, AccelError> {
        match self {
            RunOutcome::Completed(v) => Ok(v),
            RunOutcome::Oom {
                device,
                requested,
                available,
                capacity,
            } => Err(AccelError::OutOfMemory {
                device,
                requested,
                available,
                capacity,
            }),
            RunOutcome::Failed(e) => Err(e),
        }
    }

    pub fn is_oom(&self) -> bool {
        matches!(self, RunOutcome::Oom { .. })
    }

    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed(_))
    }

    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            RunOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowing view of the completed value.
    pub fn as_completed(&self) -> Option<&T> {
        match self {
            RunOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// Map the completed value, preserving Oom/Failed.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunOutcome<U> {
        match self {
            RunOutcome::Completed(v) => RunOutcome::Completed(f(v)),
            RunOutcome::Oom {
                device,
                requested,
                available,
                capacity,
            } => RunOutcome::Oom {
                device,
                requested,
                available,
                capacity,
            },
            RunOutcome::Failed(e) => RunOutcome::Failed(e),
        }
    }
}

/// Execute a workload in a fresh context for its system.
pub fn execute<W: Workload>(w: &W) -> RunOutcome<W::Output> {
    let ctx = RunContext::for_system(w.system());
    let (plan, phase_plan) = match w.plan(&ctx) {
        Ok(p) => p,
        Err(e) => return RunOutcome::from_error(e),
    };
    let exec = match run_plan(&ctx, &phase_plan) {
        Ok(x) => x,
        Err(e) => return RunOutcome::from_error(e),
    };
    RunOutcome::Completed(w.finish(plan, exec, &ctx))
}

/// Drive the node through the plan's phases and take the measurement.
fn run_plan(ctx: &RunContext, plan: &PhasePlan) -> Result<Executed, AccelError> {
    let node = ctx.node();
    for (label, bytes) in &plan.allocations {
        node.device(0).alloc(*label, *bytes)?;
    }
    let mut timeline = Timeline::new();
    let mut t0 = 0.0;
    for p in &plan.phases {
        if p.duration_s > 0.0 {
            node.run_phase(p.active, p.duration_s, p.utilization, p.sustained_w)?;
        }
        for d in 0..plan.timeline_devices {
            timeline.record(d, p.kind, p.label, t0, p.duration_s);
        }
        t0 += p.duration_s;
    }
    node.idle_phase(0.0)?;

    let meter = ctx.power_meter(plan.meter.devices, plan.meter.prefix, plan.meter.method);
    let measurement = meter.sample(
        plan.meter.interval_s,
        plan.meter.window.0,
        plan.meter.window.1,
    );
    Ok(Executed {
        measurement,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy workload: one compute phase at full utilization.
    struct Toy {
        system: SystemId,
        duration_s: f64,
    }

    impl Workload for Toy {
        type Plan = f64;
        type Output = f64; // device-0 energy in Wh

        fn system(&self) -> SystemId {
            self.system
        }

        fn plan(&self, ctx: &RunContext) -> Result<(f64, PhasePlan), AccelError> {
            if self.duration_s <= 0.0 {
                return Err(AccelError::InvalidConfig(
                    "duration must be positive".into(),
                ));
            }
            let sustained = ctx.device(0).spec().llm.sustained_w;
            Ok((
                self.duration_s,
                PhasePlan {
                    allocations: vec![],
                    phases: vec![PhaseSpec {
                        kind: PhaseKind::Compute,
                        label: "toy compute",
                        active: 1,
                        duration_s: self.duration_s,
                        utilization: 1.0,
                        sustained_w: sustained,
                    }],
                    meter: MeterSpec {
                        devices: 1,
                        prefix: "dev",
                        method: "pynvml",
                        interval_s: 0.5,
                        window: (0.0, self.duration_s),
                    },
                    timeline_devices: 1,
                },
            ))
        }

        fn finish(&self, _plan: f64, exec: Executed, _ctx: &RunContext) -> f64 {
            exec.measurement.df.energy_wh(0)
        }
    }

    #[test]
    fn executes_a_simple_plan() {
        let out = execute(&Toy {
            system: SystemId::A100,
            duration_s: 3600.0,
        });
        let energy = out.completed().expect("toy run completes");
        // 1 h at the A100's sustained LLM power: energy in Wh ≈ watts.
        assert!(energy > 200.0 && energy < 400.0, "energy {energy}");
    }

    #[test]
    fn plan_error_becomes_failed() {
        let out = execute(&Toy {
            system: SystemId::A100,
            duration_s: 0.0,
        });
        assert!(matches!(
            out,
            RunOutcome::Failed(AccelError::InvalidConfig(_))
        ));
        assert!(!out.is_completed());
    }

    #[test]
    fn oom_round_trips_losslessly() {
        let err = AccelError::OutOfMemory {
            device: "A100".into(),
            requested: 100,
            available: 40,
            capacity: 40,
        };
        let out: RunOutcome<()> = RunOutcome::from_error(err.clone());
        assert!(out.is_oom());
        assert_eq!(out.into_result().unwrap_err(), err);
    }

    #[test]
    fn zero_duration_phases_are_skipped() {
        // Identical register traces whether a zero-length stall phase is
        // in the plan or not: the engine skips it, as the hand-written
        // benchmarks' `if t_stall > 0.0` guards used to.
        let ctx = RunContext::for_system(SystemId::A100);
        let sustained = ctx.device(0).spec().llm.sustained_w;
        let plan = PhasePlan {
            allocations: vec![],
            phases: vec![
                PhaseSpec {
                    kind: PhaseKind::Compute,
                    label: "c",
                    active: 1,
                    duration_s: 10.0,
                    utilization: 1.0,
                    sustained_w: sustained,
                },
                PhaseSpec {
                    kind: PhaseKind::Staging,
                    label: "s",
                    active: 1,
                    duration_s: 0.0,
                    utilization: 0.15,
                    sustained_w: sustained,
                },
            ],
            meter: MeterSpec {
                devices: 1,
                prefix: "dev",
                method: "pynvml",
                interval_s: 1.0,
                window: (0.0, 10.0),
            },
            timeline_devices: 1,
        };
        let exec = run_plan(&ctx, &plan).unwrap();
        // The zero phase neither advanced the clock nor entered the
        // timeline.
        assert_eq!(ctx.node().clock().now(), 10.0);
        assert_eq!(exec.timeline.events().len(), 1);
    }

    #[test]
    fn power_meter_covers_the_leading_devices() {
        let ctx = RunContext::for_system(SystemId::A100);
        assert_eq!(ctx.power_meter(2, "dev", "pynvml").num_sources(), 2);
        assert_eq!(ctx.power_meter(1, "dev", "pynvml").num_sources(), 1);
    }

    #[test]
    fn allocations_are_applied_to_device_zero() {
        let ctx = RunContext::for_system(SystemId::A100);
        let plan = PhasePlan {
            allocations: vec![("state", 1 << 30)],
            phases: vec![],
            meter: MeterSpec {
                devices: 1,
                prefix: "dev",
                method: "pynvml",
                interval_s: 1.0,
                window: (0.0, 0.0),
            },
            timeline_devices: 0,
        };
        run_plan(&ctx, &plan).unwrap();
        assert_eq!(ctx.device(0).mem_used(), 1 << 30);
        assert_eq!(ctx.device(1).mem_used(), 0);
    }
}
