//! The unified workload execution engine.
//!
//! Every benchmark family in this crate (LLM training, large-model 3D
//! parallel training, ResNet50 training, LLM inference, serving fleets —
//! on GPUs and IPUs alike) follows the same execution shape:
//!
//! 1. validate the configuration and evaluate the cost model, yielding a
//!    list of timed power *phases*;
//! 2. fold the phases into one power step function per metered device;
//! 3. sample those step functions with jpwr's polling loop over a
//!    measurement window of the virtual timeline;
//! 4. derive figures of merit from the sampled power trace.
//!
//! The [`Workload`] trait makes the split explicit: a workload *plans*
//! (step 1, pure cost-model math against the shared [`NodeConfig`]) and
//! *finishes* (step 4, pure FOM arithmetic); the engine owns steps 2–3.
//! [`meter`] is the crate's one metering path — the fleet meters each
//! replica's phase schedule through it too. It replays no simulated node:
//! a phase list already is the step function a node's power register would
//! record, so folding it gives the same samples bit for bit (pinned
//! against a driven `SimNode` by `tests/meter_fold_equivalence.rs`). A
//! parameter grid executes many plans in parallel through rayon's ordered
//! `into_par_iter()`.

use caraml_accel::{AccelError, NodeConfig, PhaseKind, PowerModel, PowerTrace, SystemId, Timeline};
use jpwr::{sample_virtual, Measurement};

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

/// The executable part of a plan: the phase sequence and the measurement
/// to take over it. Memory capacity is the plan's own check, made before
/// it returns.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    pub phases: Vec<PhaseSpec>,
    pub meter: MeterSpec,
    /// Devices recorded in the execution timeline (0 disables tracing;
    /// benchmarks whose run type carries no timeline skip the work).
    pub timeline_devices: u32,
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

    /// System whose shared node configuration the run uses.
    fn system(&self) -> SystemId;

    /// Validate and evaluate the cost model. Pure math against the
    /// system's node configuration (specs, rooflines, memory capacity).
    fn plan(&self, cfg: &NodeConfig) -> Result<(Self::Plan, PhasePlan), AccelError>;

    /// Derive the figures of merit from the executed phases.
    fn finish(&self, plan: Self::Plan, exec: Executed, cfg: &NodeConfig) -> Self::Output;
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

/// Execute a workload on the shared node configuration of its system.
pub fn execute<W: Workload>(w: &W) -> RunOutcome<W::Output> {
    let cfg = NodeConfig::shared(w.system());
    let (plan, phase_plan) = match w.plan(&cfg) {
        Ok(p) => p,
        Err(e) => return RunOutcome::from_error(e),
    };
    let exec = match run_plan(&cfg, &phase_plan) {
        Ok(x) => x,
        Err(e) => return RunOutcome::from_error(e),
    };
    RunOutcome::Completed(w.finish(plan, exec, &cfg))
}

/// Meter the plan's phases and record its timeline.
fn run_plan(cfg: &NodeConfig, plan: &PhasePlan) -> Result<Executed, AccelError> {
    let (measurement, _) = meter(cfg, &plan.phases, &plan.meter)?;
    let mut timeline = Timeline::new();
    let mut t0 = 0.0;
    for p in &plan.phases {
        for d in 0..plan.timeline_devices {
            timeline.record(d, p.kind, p.label, t0, p.duration_s);
        }
        t0 += p.duration_s;
    }
    Ok(Executed {
        measurement,
        timeline,
    })
}

/// Fold `phases` into the power step functions of the leading
/// `spec.devices` devices of a `cfg` node, and sample them with jpwr over
/// `spec.window`. Returns the measurement and the step functions.
///
/// Each phase of positive duration sets every metered device's power at
/// the phase start: devices below `active` draw the device power model's
/// `power_w(utilization, sustained_w)` (Table I TDP override applied), the
/// rest idle. Start times add durations in order from 0, and a closing
/// change to idle marks the end of the run. A duration that is not
/// finite stops the run with the error the virtual clock raises for it.
pub fn meter(
    cfg: &NodeConfig,
    phases: &[PhaseSpec],
    spec: &MeterSpec,
) -> Result<(Measurement, Vec<PowerTrace>), AccelError> {
    let model = PowerModel::for_device(&cfg.device, cfg.tdp_override_w);
    let mut traces = vec![PowerTrace::new(); spec.devices];
    let mut t = 0.0;
    for p in phases.iter().filter(|p| p.duration_s > 0.0) {
        let busy_w = model.power_w(p.utilization, p.sustained_w);
        for (i, trace) in traces.iter_mut().enumerate() {
            trace.push(t, if i < p.active { busy_w } else { model.idle_w });
        }
        if !p.duration_s.is_finite() {
            return Err(AccelError::ClockWentBackwards {
                now: t,
                requested: t + p.duration_s,
            });
        }
        t += p.duration_s;
    }
    for trace in &mut traces {
        trace.push(t, model.idle_w);
    }
    let sources: Vec<_> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            (
                format!("{}{i}", spec.prefix),
                spec.method.to_string(),
                trace,
            )
        })
        .collect();
    let measurement = sample_virtual(&sources, spec.interval_s, spec.window.0, spec.window.1);
    Ok((measurement, traces))
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

        fn plan(&self, cfg: &NodeConfig) -> Result<(f64, PhasePlan), AccelError> {
            if self.duration_s <= 0.0 {
                return Err(AccelError::InvalidConfig(
                    "duration must be positive".into(),
                ));
            }
            let sustained = cfg.device.llm.sustained_w;
            Ok((
                self.duration_s,
                PhasePlan {
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

        fn finish(&self, _plan: f64, exec: Executed, _cfg: &NodeConfig) -> f64 {
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

    fn phase(kind: PhaseKind, duration_s: f64, utilization: f64) -> PhaseSpec {
        PhaseSpec {
            kind,
            label: "p",
            active: 1,
            duration_s,
            utilization,
            sustained_w: 330.0,
        }
    }

    fn plan(phases: Vec<PhaseSpec>, devices: usize) -> PhasePlan {
        PhasePlan {
            phases,
            meter: MeterSpec {
                devices,
                prefix: "dev",
                method: "pynvml",
                interval_s: 1.0,
                window: (0.0, 10.0),
            },
            timeline_devices: 1,
        }
    }

    #[test]
    fn zero_duration_phases_are_skipped() {
        // A zero-length stall phase folds to nothing: the step functions
        // and samples equal those of the plan without it, as the
        // hand-written benchmarks' `if t_stall > 0.0` guards used to.
        let cfg = NodeConfig::shared(SystemId::A100);
        let compute = phase(PhaseKind::Compute, 10.0, 1.0);
        let with_stall = plan(
            vec![compute.clone(), phase(PhaseKind::Staging, 0.0, 0.15)],
            1,
        );
        let bare = plan(vec![compute], 1);
        let (m, traces) = meter(&cfg, &with_stall.phases, &with_stall.meter).unwrap();
        let (bare_m, bare_traces) = meter(&cfg, &bare.phases, &bare.meter).unwrap();
        // One change at the start, the closing idle change at 10 s.
        let changes: Vec<_> = traces[0].samples().iter().map(|c| c.time_s).collect();
        assert_eq!(changes, [0.0, 10.0]);
        assert_eq!(traces[0].samples(), bare_traces[0].samples());
        assert_eq!(m.df.values, bare_m.df.values);
        // The zero phase did not enter the timeline either.
        let exec = run_plan(&cfg, &with_stall).unwrap();
        assert_eq!(exec.timeline.events().len(), 1);
    }

    #[test]
    fn meter_covers_the_leading_devices() {
        let cfg = NodeConfig::shared(SystemId::A100);
        let phases = vec![phase(PhaseKind::Compute, 10.0, 1.0)];
        let two = plan(phases.clone(), 2);
        let (m, traces) = meter(&cfg, &two.phases, &two.meter).unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(m.df.columns, ["dev0", "dev1"]);
        // Device 1 is outside the phase's one active device: it idles.
        let idle_w = PowerModel::for_device(&cfg.device, cfg.tdp_override_w).idle_w;
        assert!(m.df.values[1].iter().all(|&w| w == idle_w));
        assert!(m.df.values[0][0] > idle_w);
        let one = plan(phases, 1);
        let (m, _) = meter(&cfg, &one.phases, &one.meter).unwrap();
        assert_eq!(m.df.columns, ["dev0"]);
    }
}
