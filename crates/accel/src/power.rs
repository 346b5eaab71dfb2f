//! Power modelling and power telemetry.
//!
//! Each simulated device exposes two things:
//!
//! 1. a [`PowerModel`] mapping utilization to instantaneous power draw
//!    (`P = P_idle + (P_sustained − P_idle) · u^α`, clamped to the TDP), and
//! 2. a [`PowerRegister`] — the "hardware counter" that a measurement tool
//!    such as `jpwr` polls, together with the full step-function
//!    [`PowerTrace`] on the virtual timeline.
//!
//! Energy is integrated exactly over the step function here; jpwr's
//! sampler (`jpwr::measure::sample_virtual`) polls the same step function
//! periodically and integrates with the trapezoidal rule, so the
//! measurement-tool error can itself be studied.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::spec::DeviceSpec;

/// Utilization → power curve of one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Idle draw in watts.
    pub idle_w: f64,
    /// TDP cap in watts.
    pub tdp_w: f64,
    /// Exponent of the utilization curve.
    pub alpha: f64,
}

impl PowerModel {
    /// Build from a device spec, optionally overriding the TDP (Table I
    /// lists per-node TDP deviations, e.g. JEDI's 680 W GH200 package).
    pub fn for_device(spec: &DeviceSpec, tdp_override_w: Option<f64>) -> Self {
        PowerModel {
            idle_w: spec.idle_w,
            tdp_w: tdp_override_w.unwrap_or(spec.tdp_w),
            alpha: spec.power_alpha,
        }
    }

    /// Instantaneous power at utilization `u ∈ [0, 1]`, given the sustained
    /// full-utilization draw for the current workload.
    pub fn power_w(&self, utilization: f64, sustained_w: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let sustained = sustained_w.min(self.tdp_w);
        let p = self.idle_w + (sustained - self.idle_w) * u.powf(self.alpha);
        p.clamp(self.idle_w.min(sustained), self.tdp_w)
    }
}

/// One timestamped power sample on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// Virtual time in seconds.
    pub time_s: f64,
    /// Power in watts.
    pub power_w: f64,
}

/// A step-function power trace: the device holds `power_w` from each
/// sample's timestamp until the next sample.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PowerTrace {
    samples: Vec<PowerSample>,
}

impl PowerTrace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the device power changed to `power_w` at time `time_s`.
    /// Out-of-order pushes are clamped onto the end of the timeline.
    pub fn push(&mut self, time_s: f64, power_w: f64) {
        let t = match self.samples.last() {
            Some(last) if time_s < last.time_s => last.time_s,
            _ => time_s,
        };
        self.samples.push(PowerSample { time_s: t, power_w });
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// Power at time `t` (step lookup: the most recent change at or before
    /// `t`). Before the first sample the trace reads 0 W.
    pub fn power_at(&self, t: f64) -> f64 {
        match self
            .samples
            .partition_point(|s| s.time_s <= t)
            .checked_sub(1)
        {
            Some(i) => self.samples[i].power_w,
            None => 0.0,
        }
    }

    /// Exact energy in watt-hours over `[t0, t1]`, integrating the step
    /// function.
    pub fn energy_wh(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 || self.samples.is_empty() {
            return 0.0;
        }
        let mut joules = 0.0;
        let mut t = t0;
        let mut p = self.power_at(t0);
        for s in &self.samples {
            if s.time_s <= t0 {
                continue;
            }
            if s.time_s >= t1 {
                break;
            }
            joules += p * (s.time_s - t);
            t = s.time_s;
            p = s.power_w;
        }
        joules += p * (t1 - t);
        joules / 3600.0
    }

    /// Mean power in watts over `[t0, t1]`.
    pub fn mean_power_w(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        self.energy_wh(t0, t1) * 3600.0 / (t1 - t0)
    }

    /// Fraction of the window `[t0, t1]` the device spent above
    /// `threshold_w` — the duty cycle of a serving loop, where idle gaps
    /// between request bursts show up as time at the idle floor. The
    /// step function is integrated exactly, like [`Self::energy_wh`].
    pub fn busy_fraction(&self, t0: f64, t1: f64, threshold_w: f64) -> f64 {
        if t1 <= t0 || self.samples.is_empty() {
            return 0.0;
        }
        let mut busy_s = 0.0;
        let mut t = t0;
        let mut p = self.power_at(t0);
        for s in &self.samples {
            if s.time_s <= t0 {
                continue;
            }
            if s.time_s >= t1 {
                break;
            }
            if p > threshold_w {
                busy_s += s.time_s - t;
            }
            t = s.time_s;
            p = s.power_w;
        }
        if p > threshold_w {
            busy_s += t1 - t;
        }
        busy_s / (t1 - t0)
    }
}

/// The pollable "hardware power counter" of one device, shared between the
/// simulator (writer) and measurement tools (readers). Every write is also
/// appended to the device's [`PowerTrace`].
#[derive(Debug, Clone, Default)]
pub struct PowerRegister {
    inner: Arc<RwLock<RegisterInner>>,
}

#[derive(Debug, Default)]
struct RegisterInner {
    current_w: f64,
    trace: PowerTrace,
}

impl PowerRegister {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instantaneous power in watts (what `nvidia-smi`-style tools
    /// would report).
    pub fn read_w(&self) -> f64 {
        self.inner.read().current_w
    }

    /// Set the device power at virtual time `time_s`.
    pub fn set_w(&self, time_s: f64, power_w: f64) {
        let mut g = self.inner.write();
        g.current_w = power_w;
        g.trace.push(time_s, power_w);
    }

    /// Snapshot of the full trace so far.
    pub fn trace(&self) -> PowerTrace {
        self.inner.read().trace.clone()
    }

    /// Exact energy over a window of the recorded trace.
    pub fn energy_wh(&self, t0: f64, t1: f64) -> f64 {
        self.inner.read().trace.energy_wh(t0, t1)
    }

    /// Duty cycle over a window: fraction of `[t0, t1]` the device drew
    /// more than `threshold_w` (see [`PowerTrace::busy_fraction`]).
    pub fn busy_fraction(&self, t0: f64, t1: f64, threshold_w: f64) -> f64 {
        self.inner.read().trace.busy_fraction(t0, t1, threshold_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_model_endpoints() {
        let m = PowerModel {
            idle_w: 50.0,
            tdp_w: 400.0,
            alpha: 1.0,
        };
        assert_eq!(m.power_w(0.0, 300.0), 50.0);
        assert_eq!(m.power_w(1.0, 300.0), 300.0);
        assert_eq!(m.power_w(0.5, 300.0), 175.0);
    }

    #[test]
    fn power_model_clamps_to_tdp() {
        let m = PowerModel {
            idle_w: 50.0,
            tdp_w: 350.0,
            alpha: 1.0,
        };
        // Sustained request above TDP is capped.
        assert_eq!(m.power_w(1.0, 500.0), 350.0);
        // Utilization outside [0,1] is clamped.
        assert_eq!(m.power_w(2.0, 300.0), 300.0);
        assert_eq!(m.power_w(-1.0, 300.0), 50.0);
    }

    #[test]
    fn power_model_alpha_shapes_curve() {
        let lin = PowerModel {
            idle_w: 0.0,
            tdp_w: 100.0,
            alpha: 1.0,
        };
        let sub = PowerModel {
            idle_w: 0.0,
            tdp_w: 100.0,
            alpha: 0.5,
        };
        // Sub-linear alpha draws more power at partial utilization.
        assert!(sub.power_w(0.25, 100.0) > lin.power_w(0.25, 100.0));
    }

    #[test]
    fn trace_step_lookup() {
        let mut t = PowerTrace::new();
        t.push(0.0, 100.0);
        t.push(10.0, 200.0);
        assert_eq!(t.power_at(-1.0), 0.0);
        assert_eq!(t.power_at(0.0), 100.0);
        assert_eq!(t.power_at(5.0), 100.0);
        assert_eq!(t.power_at(10.0), 200.0);
        assert_eq!(t.power_at(100.0), 200.0);
    }

    #[test]
    fn trace_exact_energy() {
        let mut t = PowerTrace::new();
        t.push(0.0, 100.0); // 100 W for 10 s
        t.push(10.0, 200.0); // 200 W for 10 s
        t.push(20.0, 0.0);
        // 1000 J + 2000 J = 3000 J = 3000/3600 Wh
        let e = t.energy_wh(0.0, 20.0);
        assert!((e - 3000.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn trace_energy_sub_window() {
        let mut t = PowerTrace::new();
        t.push(0.0, 100.0);
        t.push(10.0, 200.0);
        // Window [5, 15]: 5s·100W + 5s·200W = 1500 J
        let e = t.energy_wh(5.0, 15.0);
        assert!((e - 1500.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn trace_empty_and_degenerate_windows() {
        let t = PowerTrace::new();
        assert_eq!(t.energy_wh(0.0, 10.0), 0.0);
        let mut t2 = PowerTrace::new();
        t2.push(0.0, 100.0);
        assert_eq!(t2.energy_wh(5.0, 5.0), 0.0);
        assert_eq!(t2.energy_wh(10.0, 5.0), 0.0);
    }

    #[test]
    fn trace_mean_power() {
        let mut t = PowerTrace::new();
        t.push(0.0, 100.0);
        t.push(10.0, 300.0);
        let mean = t.mean_power_w(0.0, 20.0);
        assert!((mean - 200.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_push_clamped() {
        let mut t = PowerTrace::new();
        t.push(10.0, 100.0);
        t.push(5.0, 200.0); // clamped to t=10
        assert_eq!(t.samples()[1].time_s, 10.0);
        assert_eq!(t.power_at(11.0), 200.0);
    }

    #[test]
    fn busy_fraction_of_step_trace() {
        let mut t = PowerTrace::new();
        t.push(0.0, 300.0); // busy 10 s
        t.push(10.0, 50.0); // idle 30 s
        t.push(40.0, 300.0); // busy 10 s
        t.push(50.0, 50.0);
        let f = t.busy_fraction(0.0, 50.0, 100.0);
        assert!((f - 20.0 / 50.0).abs() < 1e-12, "fraction {f}");
        // Sub-window entirely idle.
        assert_eq!(t.busy_fraction(15.0, 35.0, 100.0), 0.0);
        // Sub-window entirely busy.
        assert_eq!(t.busy_fraction(1.0, 9.0, 100.0), 1.0);
        // Degenerate windows and empty traces are safe.
        assert_eq!(t.busy_fraction(5.0, 5.0, 100.0), 0.0);
        assert_eq!(PowerTrace::new().busy_fraction(0.0, 1.0, 100.0), 0.0);
    }

    #[test]
    fn register_busy_fraction_passthrough() {
        let r = PowerRegister::new();
        r.set_w(0.0, 250.0);
        r.set_w(4.0, 40.0);
        assert!((r.busy_fraction(0.0, 8.0, 100.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn register_read_write_and_trace() {
        let r = PowerRegister::new();
        assert_eq!(r.read_w(), 0.0);
        r.set_w(0.0, 120.0);
        r.set_w(5.0, 240.0);
        assert_eq!(r.read_w(), 240.0);
        let tr = r.trace();
        assert_eq!(tr.len(), 2);
        // 120 W · 5 s = 600 J
        assert!((r.energy_wh(0.0, 5.0) - 600.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn register_shared_across_clones() {
        let r = PowerRegister::new();
        let r2 = r.clone();
        r.set_w(0.0, 99.0);
        assert_eq!(r2.read_w(), 99.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Power is always within [idle, tdp].
        #[test]
        fn power_bounded(u in -1.0..2.0f64, sustained in 0.0..1000.0f64) {
            let m = PowerModel { idle_w: 40.0, tdp_w: 400.0, alpha: 0.85 };
            let p = m.power_w(u, sustained.max(40.0));
            prop_assert!(p >= 40.0 - 1e-9);
            prop_assert!(p <= 400.0 + 1e-9);
        }

        /// Energy over a window is bounded by max power · duration.
        #[test]
        fn energy_bounds(powers in prop::collection::vec(0.0..700.0f64, 1..20),
                         dt in 0.1..10.0f64) {
            let mut trace = PowerTrace::new();
            for (i, p) in powers.iter().enumerate() {
                trace.push(i as f64 * dt, *p);
            }
            let t1 = powers.len() as f64 * dt;
            let e = trace.energy_wh(0.0, t1);
            let max_p = powers.iter().cloned().fold(0.0, f64::max);
            prop_assert!(e >= 0.0);
            prop_assert!(e <= max_p * t1 / 3600.0 + 1e-9);
        }

        /// Energy is additive over adjacent windows.
        #[test]
        fn energy_additive(powers in prop::collection::vec(1.0..700.0f64, 2..10),
                           split in 0.1..0.9f64) {
            let mut trace = PowerTrace::new();
            for (i, p) in powers.iter().enumerate() {
                trace.push(i as f64, *p);
            }
            let t1 = powers.len() as f64;
            let tm = t1 * split;
            let whole = trace.energy_wh(0.0, t1);
            let parts = trace.energy_wh(0.0, tm) + trace.energy_wh(tm, t1);
            prop_assert!((whole - parts).abs() < 1e-9);
        }
    }
}
