//! Simulated devices and nodes: jpwr's model of the hardware it polls.
//!
//! [`SimDevice`] bundles one accelerator's power model and pollable power
//! register. [`SimNode`] groups the devices of one system node
//! (Table I) around a shared [`VirtualClock`] and drives them through
//! timed *phases* (compute, communication, host staging, idle), each with
//! its own utilization level — which is what the `jpwr` crate's register
//! methods (pynvml, rocm, gh, gcipuinfo) poll. The benchmark engine does
//! not replay nodes: it folds each plan's phases straight into power step
//! functions (`caraml::engine::meter`), and a node driven through the same
//! phases is the reference that fold is tested against.

use crate::clock::VirtualClock;
use crate::error::AccelError;
use crate::power::{PowerModel, PowerRegister};
use crate::spec::DeviceSpec;
use crate::systems::NodeConfig;

/// One simulated accelerator.
#[derive(Debug, Clone)]
pub struct SimDevice {
    index: u32,
    register: PowerRegister,
    power_model: PowerModel,
}

impl SimDevice {
    /// Device `index` of a node, optionally with a Table I TDP override.
    pub fn new(spec: &DeviceSpec, index: u32, tdp_override_w: Option<f64>) -> Self {
        SimDevice {
            index,
            register: PowerRegister::new(),
            power_model: PowerModel::for_device(spec, tdp_override_w),
        }
    }

    pub fn index(&self) -> u32 {
        self.index
    }

    /// The pollable power register ("hardware counter") of this device.
    pub fn power_register(&self) -> &PowerRegister {
        &self.register
    }

    pub fn power_model(&self) -> &PowerModel {
        &self.power_model
    }

    /// Record that the device entered a phase with utilization `u` at
    /// virtual time `t`, drawing power according to the workload's
    /// sustained level.
    pub fn set_utilization(&self, t: f64, u: f64, sustained_w: f64) {
        let p = self.power_model.power_w(u, sustained_w);
        self.register.set_w(t, p);
    }

    /// Record that the device went idle at virtual time `t`.
    pub fn set_idle(&self, t: f64) {
        self.register.set_w(t, self.power_model.idle_w);
    }
}

/// A full node of a Table I system: `devices_per_node` accelerators around
/// one virtual clock.
#[derive(Debug, Clone)]
pub struct SimNode {
    devices: Vec<SimDevice>,
    clock: VirtualClock,
}

impl SimNode {
    /// Instantiate a node for a system configuration.
    pub fn new(config: NodeConfig) -> Self {
        let devices = (0..config.devices_per_node)
            .map(|i| SimDevice::new(&config.device, i, config.tdp_override_w))
            .collect();
        SimNode {
            devices,
            clock: VirtualClock::new(),
        }
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    pub fn devices(&self) -> &[SimDevice] {
        &self.devices
    }

    pub fn device(&self, i: usize) -> &SimDevice {
        &self.devices[i]
    }

    /// Drive the first `active` devices through a phase of `dt` seconds at
    /// utilization `u`; the rest stay idle. Advances the shared clock.
    pub fn run_phase(
        &self,
        active: usize,
        dt: f64,
        u: f64,
        sustained_w: f64,
    ) -> Result<f64, AccelError> {
        let t = self.clock.now();
        for (i, dev) in self.devices.iter().enumerate() {
            if i < active {
                dev.set_utilization(t, u, sustained_w);
            } else {
                dev.set_idle(t);
            }
        }
        self.clock.advance(dt)
    }

    /// All devices idle for `dt` seconds.
    pub fn idle_phase(&self, dt: f64) -> Result<f64, AccelError> {
        let t = self.clock.now();
        for dev in &self.devices {
            dev.set_idle(t);
        }
        self.clock.advance(dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::SystemId;

    fn a100_node() -> SimNode {
        SimNode::new(NodeConfig::for_system(SystemId::A100))
    }

    #[test]
    fn node_has_table1_device_count() {
        assert_eq!(a100_node().devices().len(), 4);
        let mi = SimNode::new(NodeConfig::for_system(SystemId::Mi250));
        assert_eq!(mi.devices().len(), 8);
    }

    #[test]
    fn run_phase_sets_power_and_advances_clock() {
        let node = a100_node();
        node.run_phase(4, 10.0, 1.0, 330.0).unwrap();
        assert_eq!(node.clock().now(), 10.0);
        // All four devices at sustained power.
        for d in node.devices() {
            assert!((d.power_register().read_w() - 330.0).abs() < 1e-9);
        }
    }

    #[test]
    fn partial_activation_idles_remaining_devices() {
        let node = a100_node();
        node.run_phase(2, 5.0, 1.0, 330.0).unwrap();
        assert!(node.device(0).power_register().read_w() > 300.0);
        assert_eq!(
            node.device(3).power_register().read_w(),
            node.device(3).power_model().idle_w
        );
    }

    #[test]
    fn energy_accumulates_over_phases() {
        let node = a100_node();
        node.run_phase(1, 3600.0, 1.0, 330.0).unwrap(); // 1 h at 330 W
        node.idle_phase(3600.0).unwrap(); // 1 h idle
        let idle_w = node.device(0).power_model().idle_w;
        let e = node.device(0).power_register().energy_wh(0.0, 7200.0);
        assert!((e - (330.0 + idle_w)).abs() < 1e-6);
    }

    #[test]
    fn node_energy_sums_devices() {
        let node = a100_node();
        node.run_phase(4, 3600.0, 1.0, 330.0).unwrap();
        node.idle_phase(0.0).unwrap();
        let total: f64 = node
            .devices()
            .iter()
            .map(|d| d.power_register().energy_wh(0.0, 3600.0))
            .sum();
        assert!((total - 4.0 * 330.0).abs() < 1e-6);
    }

    #[test]
    fn tdp_override_applies() {
        let node = SimNode::new(NodeConfig::for_system(SystemId::Jedi));
        assert_eq!(node.device(0).power_model().tdp_w, 680.0);
        // Sustained 700 W is clamped to the 680 W package TDP.
        node.run_phase(1, 1.0, 1.0, 700.0).unwrap();
        assert!(node.device(0).power_register().read_w() <= 680.0);
    }
}
