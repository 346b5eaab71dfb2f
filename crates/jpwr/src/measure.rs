//! The measurement scope — jpwr's `get_power` context manager.
//!
//! "The context manager initiates a power-measurement loop in a separate
//! thread, which periodically queries power consumption using
//! device-specific interfaces, saving data points along with their
//! timestamps. At the end of the operation, these data points are used to
//! calculate the total amount of energy consumed." (§III-A4)
//!
//! Two timing modes exist here:
//! * [`get_power`] — the faithful wall-clock mode: a sampling thread polls
//!   every `interval_ms` until the scope is finished;
//! * [`sample_virtual`] — the simulation mode: the same sampling loop
//!   replayed deterministically over the virtual timeline of recorded
//!   power traces (used by the benchmark suite, where a "one hour"
//!   training run takes milliseconds of wall time).

use crate::df::DataFrame;
use crate::method::PowerMethod;
use caraml_accel::PowerRegister;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of a measurement: a power DataFrame (one column per device)
/// plus derived energy.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Power samples over time, watts.
    pub df: DataFrame,
    /// Method name per column (parallel to `df.columns`).
    pub method_per_column: Vec<String>,
}

impl Measurement {
    /// Energy summary: one `(device, method, energy_wh)` row per column —
    /// the equivalent of `measured_scope.energy()` in the Python tool.
    pub fn energy(&self) -> Vec<(String, String, f64)> {
        self.df
            .columns
            .iter()
            .zip(&self.method_per_column)
            .enumerate()
            .map(|(c, (dev, method))| (dev.clone(), method.clone(), self.df.energy_wh(c)))
            .collect()
    }

    /// Total energy across all columns, Wh.
    pub fn total_energy_wh(&self) -> f64 {
        self.df.energy_all_wh().iter().sum()
    }

    /// Time-weighted mean power of column `c` over the sampled window,
    /// watts (energy divided by span — not the plain sample mean, so
    /// uneven sampling intervals don't bias it).
    pub fn mean_power_w(&self, c: usize) -> f64 {
        let span = match (self.df.time_s.first(), self.df.time_s.last()) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => return 0.0,
        };
        self.df.energy_wh(c) * 3600.0 / span
    }

    /// Highest power sample of column `c`, watts (the provisioning
    /// number a serving deployment must budget for).
    pub fn peak_power_w(&self, c: usize) -> f64 {
        if self.df.num_rows() == 0 {
            0.0
        } else {
            self.df.max(c)
        }
    }

    /// Energy summary rendered as a DataFrame (columns = devices, single
    /// conceptual row of Wh values).
    pub fn energy_df(&self) -> DataFrame {
        let mut df = DataFrame::new(self.df.columns.clone());
        df.push_row(0.0, &self.df.energy_all_wh());
        df
    }
}

/// A running wall-clock measurement (the `with get_power(...)` scope).
pub struct PowerScope {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<DataFrame>>,
    method_per_column: Vec<String>,
}

/// Start a wall-clock measurement loop over `methods`, sampling every
/// `interval_ms` milliseconds in a separate thread.
pub fn get_power(methods: Vec<Box<dyn PowerMethod>>, interval_ms: u64) -> PowerScope {
    let mut columns = Vec::new();
    let mut method_per_column = Vec::new();
    for m in &methods {
        for label in m.device_labels() {
            columns.push(label);
            method_per_column.push(m.name().to_string());
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut df = DataFrame::new(columns);
        let start = Instant::now();
        loop {
            let t = start.elapsed().as_secs_f64();
            let row: Vec<f64> = methods.iter().flat_map(|m| m.read_power_w()).collect();
            df.push_row(t, &row);
            if stop2.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        df
    });
    PowerScope {
        stop,
        handle: Some(handle),
        method_per_column,
    }
}

impl PowerScope {
    /// Stop sampling and collect the measurement (leaving the scope).
    pub fn finish(mut self) -> Measurement {
        self.stop.store(true, Ordering::Relaxed);
        let df = self
            .handle
            .take()
            .expect("scope finished twice")
            .join()
            .expect("sampling thread panicked");
        Measurement {
            df,
            method_per_column: std::mem::take(&mut self.method_per_column),
        }
    }
}

impl Drop for PowerScope {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Deterministically replay the sampling loop over the virtual timeline
/// `[t0, t1]` of recorded power registers: one column per `(label,
/// register)` pair, sampled every `interval_s` seconds, exactly as the
/// wall-clock loop would have seen them.
pub fn sample_virtual(
    sources: &[(String, String, PowerRegister)], // (label, method, register)
    interval_s: f64,
    t0: f64,
    t1: f64,
) -> Measurement {
    assert!(interval_s > 0.0, "sampling interval must be positive");
    assert!(t1 >= t0, "window must be ordered");
    let columns: Vec<String> = sources.iter().map(|(l, _, _)| l.clone()).collect();
    let method_per_column: Vec<String> = sources.iter().map(|(_, m, _)| m.clone()).collect();
    let traces: Vec<_> = sources.iter().map(|(_, _, r)| r.trace()).collect();
    let mut df = DataFrame::new(columns);
    let mut t = t0;
    loop {
        let row: Vec<f64> = traces.iter().map(|tr| tr.power_at(t)).collect();
        df.push_row(t, &row);
        if t >= t1 {
            break;
        }
        t = (t + interval_s).min(t1);
    }
    Measurement {
        df,
        method_per_column,
    }
}

/// A meter handle over a fixed set of power sources.
///
/// The benchmark engine builds one meter per run, after the run's phases,
/// and samples it once over the measurement window. The registers are
/// shared with the simulated devices, so a sample sees every phase
/// recorded before it, including phases recorded after the meter was
/// created.
#[derive(Debug, Clone)]
pub struct PowerMeasurement {
    sources: Vec<(String, String, PowerRegister)>,
}

impl PowerMeasurement {
    /// Build a meter over the leading simulated devices, with one column
    /// per device labelled `{prefix}{index}` and attributed to `method`.
    pub fn new(devices: &[caraml_accel::SimDevice], prefix: &str, method: &str) -> Self {
        PowerMeasurement {
            sources: virtual_sources(devices, prefix, method),
        }
    }

    /// Build a meter from explicit `(label, method, register)` sources.
    pub fn from_sources(sources: Vec<(String, String, PowerRegister)>) -> Self {
        PowerMeasurement { sources }
    }

    /// Number of metered columns.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Replay the sampling loop over `[t0, t1]` at `interval_s`.
    pub fn sample(&self, interval_s: f64, t0: f64, t1: f64) -> Measurement {
        sample_virtual(&self.sources, interval_s, t0, t1)
    }
}

/// Convenience: build virtual sources from simulated devices.
pub fn virtual_sources(
    devices: &[caraml_accel::SimDevice],
    prefix: &str,
    method: &str,
) -> Vec<(String, String, PowerRegister)> {
    devices
        .iter()
        .map(|d| {
            (
                format!("{prefix}{}", d.index()),
                method.to_string(),
                d.power_register().clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MockMethod;
    use caraml_accel::{NodeConfig, SimNode, SystemId};

    #[test]
    fn wall_clock_scope_samples_and_integrates() {
        let scope = get_power(vec![Box::new(MockMethod { watts: 100.0 })], 5);
        std::thread::sleep(Duration::from_millis(60));
        let m = scope.finish();
        assert!(m.df.num_rows() >= 5, "rows: {}", m.df.num_rows());
        // Constant 100 W between the first and last sample.
        let t_span = *m.df.time_s.last().unwrap() - m.df.time_s[0];
        let expect = 100.0 * t_span / 3600.0;
        let got = m.df.energy_wh(0);
        assert!(
            (got - expect).abs() / expect < 1e-6,
            "got {got}, expect {expect}"
        );
        assert_eq!(m.method_per_column, vec!["mock"]);
    }

    #[test]
    fn energy_summary_rows() {
        let scope = get_power(
            vec![
                Box::new(MockMethod { watts: 50.0 }),
                Box::new(MockMethod { watts: 150.0 }),
            ],
            5,
        );
        std::thread::sleep(Duration::from_millis(30));
        let m = scope.finish();
        let e = m.energy();
        assert_eq!(e.len(), 2);
        assert!(e[1].2 > e[0].2);
        assert!((m.total_energy_wh() - (e[0].2 + e[1].2)).abs() < 1e-12);
    }

    #[test]
    fn mean_and_peak_power_of_measurement() {
        let node = SimNode::new(NodeConfig::for_system(SystemId::A100));
        node.run_phase(1, 10.0, 1.0, 330.0).unwrap(); // 10 s at 330 W
        node.idle_phase(10.0).unwrap(); // 10 s idle
        let sources = virtual_sources(&node.devices()[..1], "gpu", "pynvml");
        let m = sample_virtual(&sources, 0.01, 0.0, 20.0);
        let idle = node.device(0).power_model().idle_w;
        let expect_mean = (330.0 + idle) / 2.0;
        assert!(
            (m.mean_power_w(0) - expect_mean).abs() / expect_mean < 0.02,
            "mean {}",
            m.mean_power_w(0)
        );
        assert!((m.peak_power_w(0) - 330.0).abs() < 1e-9);
        // Degenerate frames are safe.
        let empty = Measurement {
            df: DataFrame::new(vec!["x".into()]),
            method_per_column: vec!["mock".into()],
        };
        assert_eq!(empty.mean_power_w(0), 0.0);
        assert_eq!(empty.peak_power_w(0), 0.0);
    }

    #[test]
    fn dropping_scope_stops_thread() {
        let scope = get_power(vec![Box::new(MockMethod { watts: 1.0 })], 1);
        drop(scope); // must not hang or panic
    }

    #[test]
    fn virtual_sampling_of_simulated_run() {
        let node = SimNode::new(NodeConfig::for_system(SystemId::A100));
        // 1 h at full power, then 1 h idle.
        node.run_phase(4, 3600.0, 1.0, 330.0).unwrap();
        node.idle_phase(3600.0).unwrap();
        let sources = virtual_sources(node.devices(), "gpu", "pynvml");
        let m = sample_virtual(&sources, 1.0, 0.0, 7200.0);
        assert_eq!(m.df.num_cols(), 4);
        assert_eq!(m.df.num_rows(), 7201);
        let idle = node.device(0).power_model().idle_w;
        let expect = 330.0 + idle; // Wh over the two hours
        let got = m.df.energy_wh(0);
        assert!(
            (got - expect).abs() / expect < 0.01,
            "energy {got:.1} vs {expect:.1} Wh"
        );
    }

    #[test]
    fn virtual_sampling_interval_affects_row_count_not_energy_much() {
        let node = SimNode::new(NodeConfig::for_system(SystemId::A100));
        node.run_phase(1, 100.0, 1.0, 330.0).unwrap();
        node.idle_phase(0.0).unwrap();
        let sources = virtual_sources(&node.devices()[..1], "gpu", "pynvml");
        let coarse = sample_virtual(&sources, 10.0, 0.0, 100.0);
        let fine = sample_virtual(&sources, 0.1, 0.0, 100.0);
        assert!(fine.df.num_rows() > 10 * coarse.df.num_rows() / 2);
        // The coarse trace mis-attributes at most one interval around the
        // busy->idle step: allow a few percent.
        let rel = (coarse.df.energy_wh(0) - fine.df.energy_wh(0)).abs() / fine.df.energy_wh(0);
        assert!(rel < 0.05, "rel {rel}");
    }

    #[test]
    fn virtual_window_subset() {
        let node = SimNode::new(NodeConfig::for_system(SystemId::A100));
        node.run_phase(1, 10.0, 1.0, 330.0).unwrap();
        node.idle_phase(10.0).unwrap();
        let sources = virtual_sources(&node.devices()[..1], "gpu", "pynvml");
        // Only the busy window. The final sample at t=10 already reads the
        // idle power (the step function switched exactly there), costing
        // half an interval of trapezoid error — the same boundary error a
        // real polling tool makes.
        let m = sample_virtual(&sources, 0.5, 0.0, 10.0);
        let expect = 330.0 * 10.0 / 3600.0;
        let rel = (m.df.energy_wh(0) - expect).abs() / expect;
        assert!(rel < 0.03, "rel {rel}");
    }

    #[test]
    fn energy_df_shape() {
        let scope = get_power(vec![Box::new(MockMethod { watts: 10.0 })], 2);
        std::thread::sleep(Duration::from_millis(10));
        let m = scope.finish();
        let e = m.energy_df();
        assert_eq!(e.num_rows(), 1);
        assert_eq!(e.num_cols(), 1);
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn virtual_rejects_zero_interval() {
        sample_virtual(&[], 0.0, 0.0, 1.0);
    }
}
