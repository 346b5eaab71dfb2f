//! # jpwr — power and energy measurement
//!
//! A Rust reimplementation of the paper's `jpwr` tool (§III-A4): "a
//! modular tool for measuring power and energy of different compute
//! devices". The architecture mirrors the original:
//!
//! * pluggable **methods** ([`method::PowerMethod`]) — the original wraps
//!   pynvml (NVIDIA), rocm-smi (AMD), gcipuinfo (Graphcore) and the
//!   GH200's `/sys/class/hwmon` files; here the same roles are played by
//!   backends polling the simulator's power registers, plus a real
//!   `/proc/stat`-based CPU estimator;
//! * a **measurement scope** ([`measure`]) — the `get_power` context
//!   manager: a sampling loop in a separate thread (wall-clock mode), or
//!   the same loop run deterministically over power step functions on the
//!   virtual timeline (simulation mode: the benchmark engine folds each
//!   plan's phases into them), trapezoidal energy integration at the end;
//! * **DataFrame export** ([`df`]) — power traces and energy summaries to
//!   CSV or JSON, with the `--df-suffix "%q{VAR}"` environment expansion
//!   used to disambiguate per-rank files in multi-node runs;
//! * a **CLI** (`jpwr` binary) that wraps another command, exactly like
//!   `jpwr --methods rocm --df-out energy_meas --df-filetype csv
//!   stress-ng --gpu 8 -t 5` in the paper.

pub mod df;
pub mod measure;
pub mod method;
pub mod postprocess;

pub use df::DataFrame;
pub use measure::{get_power, sample_virtual, Measurement, PowerScope};
pub use method::{
    GcIpuInfoMethod, GhMethod, MockMethod, PowerMethod, ProcStatMethod, PynvmlMethod, RocmMethod,
};
