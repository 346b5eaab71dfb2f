//! # jube — a workflow automation and benchmarking engine
//!
//! CARAML "relies heavily on the JUBE automation and benchmarking
//! framework" (§III): benchmarks are declared as parameter sets plus
//! execution steps; JUBE expands parameter permutations into
//! *workpackages*, resolves step dependencies, submits jobs to Slurm, and
//! renders the figures of merit as a compact table. This crate
//! reimplements that workflow engine:
//!
//! * [`param`] — tagged parameter sets (`--tag A100 800M` selects a
//!   system and model size, exactly like the paper's appendix commands);
//! * [`substitute`] — `${name}` template substitution with transitive
//!   resolution;
//! * [`step`] — named steps with dependencies, carrying Rust closures as
//!   their payload (where the original runs shell snippets);
//! * [`benchmark`] — workpackage expansion (cartesian product over
//!   multi-valued parameters) and dependency-ordered execution;
//! * [`scheduler`] — a Slurm-like batch scheduler running jobs on a
//!   bounded worker pool with FIFO admission, job states and accounting,
//!   and the one sharded sweep dispatcher, [`SlurmSim::map_shards`];
//! * [`table`] — `jube result`-style tabular output (ASCII and CSV).

pub mod benchmark;
pub mod param;
pub mod scheduler;
pub mod step;
pub mod substitute;
pub mod table;

pub use benchmark::{Benchmark, RunResult, Workpackage};
pub use param::{Parameter, ParameterSet};
pub use scheduler::{shard_ranges, JobHandle, JobRecord, JobState, SlurmSim};
pub use step::{Step, StepContext};
pub use table::ResultTable;

/// Errors surfaced by the workflow engine.
#[derive(Debug, Clone, PartialEq)]
pub enum JubeError {
    /// A `${var}` referenced an unknown parameter.
    UnknownParameter(String),
    /// Parameter substitution did not terminate (cyclic reference).
    CyclicSubstitution(String),
    /// Step dependencies contain a cycle or an unknown step.
    BadDependency(String),
    /// A step's payload failed.
    StepFailed { step: String, message: String },
    /// Benchmark construction is inconsistent.
    InvalidBenchmark(String),
}

impl std::fmt::Display for JubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JubeError::UnknownParameter(p) => write!(f, "unknown parameter ${{{p}}}"),
            JubeError::CyclicSubstitution(p) => write!(f, "cyclic substitution involving {p}"),
            JubeError::BadDependency(s) => write!(f, "bad step dependency: {s}"),
            JubeError::StepFailed { step, message } => write!(f, "step '{step}' failed: {message}"),
            JubeError::InvalidBenchmark(m) => write!(f, "invalid benchmark: {m}"),
        }
    }
}

impl std::error::Error for JubeError {}
