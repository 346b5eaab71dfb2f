//! # caraml-accel — analytical accelerator simulator
//!
//! CARAML (SC 2024) benchmarks AI training workloads on seven accelerator
//! systems: NVIDIA A100 / H100-PCIe / H100-SXM / GH200 (two node flavours),
//! AMD MI250, and the Graphcore GC200 IPU. This crate is the hardware
//! substrate of the Rust reproduction: since none of that hardware (nor its
//! vendor software stack) is available, every device is modelled as a
//! calibrated *analytical simulator*:
//!
//! * [`spec`] — static device descriptions (Fig. 1 of the paper),
//! * [`systems`] — full node configurations (Table I of the paper),
//! * [`roofline`] — the execution-time model: a roofline with a
//!   batch-dependent utilization curve plus fixed launch overhead,
//! * [`interconnect`] — intra-node (NVLink / Infinity Fabric / IPU-Link /
//!   PCIe) and inter-node (InfiniBand) links,
//! * [`power`] — a utilization-driven power model with TDP caps, power
//!   step functions with exact energy integration, and power registers
//!   that a measurement tool can poll,
//! * [`clock`] — the shared virtual clock that orders a node's events,
//! * [`device`] — [`device::SimDevice`] and [`device::SimNode`]: devices
//!   with pollable power registers driven through timed phases, the
//!   hardware jpwr's register methods measure,
//! * [`ipu`] — the Graphcore-specific execution model (on-chip SRAM limits,
//!   graph compilation, host streaming phases).
//!
//! The models are calibrated against the numbers published in the paper
//! (Table II and Table III exactly; Figures 2–4 in shape). See the
//! workspace-level `EXPERIMENTS.md` for paper-vs-measured values.

pub mod affinity;
pub mod calibrate;
pub mod clock;
pub mod device;
pub mod error;
pub mod interconnect;
pub mod ipu;
pub mod power;
pub mod precision;
pub mod registry;
pub mod roofline;
pub mod spec;
pub mod systems;
pub mod toml_lite;
pub mod trace;

pub use affinity::{BindingPolicy, NumaTopology};
pub use calibrate::{CalibError, PowerFit, PowerPoint, RooflineFit, ThroughputPoint};
pub use clock::VirtualClock;
pub use device::{SimDevice, SimNode};
pub use error::AccelError;
pub use interconnect::{Link, LinkKind};
pub use power::{PowerModel, PowerRegister, PowerTrace};
pub use precision::Precision;
pub use registry::{DeviceEntry, DeviceRegistry, RegistryError, EMBEDDED_DEVICE_FILES};
pub use roofline::{KernelProfile, RooflineModel};
pub use spec::{DeviceKind, DeviceSpec, FormFactor, Vendor};
pub use systems::{NodeConfig, SystemId};
pub use trace::{PhaseKind, Timeline};

/// Convenient result alias used across the simulator.
pub type Result<T> = std::result::Result<T, AccelError>;
