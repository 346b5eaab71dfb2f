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
//!   every `interval_ms` until the scope is finished, then takes a closing
//!   sample at the stop time;
//! * [`sample_virtual`] — the simulation mode: the same sampling loop run
//!   deterministically over power step functions on the virtual timeline
//!   (the benchmark engine folds each plan's phases into them, so a "one
//!   hour" training run takes milliseconds of wall time).

use crate::df::DataFrame;
use crate::method::PowerMethod;
use caraml_accel::PowerTrace;
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
/// `interval_ms` milliseconds in a separate thread. Finishing the scope
/// wakes the thread at once for its closing sample.
pub fn get_power(methods: Vec<Box<dyn PowerMethod>>, interval_ms: u64) -> PowerScope {
    assert!(interval_ms > 0, "sampling interval must be positive");
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
    let interval = Duration::from_millis(interval_ms);
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
            // Sleep one interval, or until `finish` unparks the thread.
            let slept = Instant::now();
            while !stop2.load(Ordering::Relaxed) {
                let elapsed = slept.elapsed();
                if elapsed >= interval {
                    break;
                }
                std::thread::park_timeout(interval - elapsed);
            }
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
        let df = self
            .stop_thread()
            .expect("scope finished twice")
            .join()
            .expect("sampling thread panicked");
        Measurement {
            df,
            method_per_column: std::mem::take(&mut self.method_per_column),
        }
    }

    /// Flag the sampler to stop and wake it from its sleep.
    fn stop_thread(&mut self) -> Option<std::thread::JoinHandle<DataFrame>> {
        self.stop.store(true, Ordering::Relaxed);
        let handle = self.handle.take()?;
        handle.thread().unpark();
        Some(handle)
    }
}

impl Drop for PowerScope {
    fn drop(&mut self) {
        if let Some(h) = self.stop_thread() {
            let _ = h.join();
        }
    }
}

/// Run the sampling loop deterministically over the virtual timeline
/// `[t0, t1]` of power step functions: one column per `(label, method,
/// trace)` source, sampled every `interval_s` seconds, exactly as the
/// wall-clock loop would have seen them.
///
/// Sample times only move forward, so each column keeps a cursor into its
/// trace instead of searching it: a sample reads the last change at or
/// before its time, and 0 W before the first change
/// ([`PowerTrace::power_at`]).
pub fn sample_virtual(
    sources: &[(String, String, &PowerTrace)],
    interval_s: f64,
    t0: f64,
    t1: f64,
) -> Measurement {
    assert!(interval_s > 0.0, "sampling interval must be positive");
    assert!(t1 >= t0, "window must be ordered");
    let columns: Vec<String> = sources.iter().map(|(l, _, _)| l.clone()).collect();
    let method_per_column: Vec<String> = sources.iter().map(|(_, m, _)| m.clone()).collect();
    let mut df = DataFrame::new(columns);
    // Per column: how many changes lie at or before the current sample.
    let mut seen = vec![0usize; sources.len()];
    let mut row = vec![0.0; sources.len()];
    let mut t = t0;
    loop {
        for (((_, _, trace), seen), w) in sources.iter().zip(&mut seen).zip(&mut row) {
            let changes = trace.samples();
            while changes.get(*seen).is_some_and(|c| c.time_s <= t) {
                *seen += 1;
            }
            *w = seen.checked_sub(1).map_or(0.0, |i| changes[i].power_w);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::MockMethod;
    use caraml_accel::{NodeConfig, SimNode, SystemId};

    /// Snapshots of the leading `n` device registers of a driven node.
    fn traces(node: &SimNode, n: usize) -> Vec<PowerTrace> {
        node.devices()[..n]
            .iter()
            .map(|d| d.power_register().trace())
            .collect()
    }

    /// One `gpu{i}`/pynvml source per trace.
    fn sources(traces: &[PowerTrace]) -> Vec<(String, String, &PowerTrace)> {
        traces
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("gpu{i}"), "pynvml".to_string(), t))
            .collect()
    }

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
        let traces = traces(&node, 1);
        let m = sample_virtual(&sources(&traces), 0.01, 0.0, 20.0);
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

    /// Reports 1 W and signals every read.
    struct Signalling(std::sync::mpsc::Sender<()>);

    impl PowerMethod for Signalling {
        fn name(&self) -> &str {
            "signal"
        }

        fn device_labels(&self) -> Vec<String> {
            vec!["s0".into()]
        }

        fn read_power_w(&self) -> Vec<f64> {
            let _ = self.0.send(());
            vec![1.0]
        }
    }

    #[test]
    fn finish_wakes_the_sampler_for_a_closing_sample() {
        // A 10 s interval finished ~50 ms after the first sample: the
        // closing sample is taken at the stop time, not after the
        // interval runs out.
        let (tx, first_read) = std::sync::mpsc::channel();
        let scope = get_power(vec![Box::new(Signalling(tx))], 10_000);
        first_read.recv().expect("sampler takes a first sample");
        std::thread::sleep(Duration::from_millis(50));
        let stopped = Instant::now();
        let m = scope.finish();
        assert!(
            stopped.elapsed() < Duration::from_secs(1),
            "{:?}",
            stopped.elapsed()
        );
        assert_eq!(m.df.num_rows(), 2);
        let last = *m.df.time_s.last().unwrap();
        assert!(last < 1.0, "last sample at {last} s");
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn wall_clock_rejects_zero_interval() {
        get_power(vec![Box::new(MockMethod { watts: 1.0 })], 0);
    }

    #[test]
    fn virtual_sampling_of_simulated_run() {
        let node = SimNode::new(NodeConfig::for_system(SystemId::A100));
        // 1 h at full power, then 1 h idle.
        node.run_phase(4, 3600.0, 1.0, 330.0).unwrap();
        node.idle_phase(3600.0).unwrap();
        let traces = traces(&node, 4);
        let m = sample_virtual(&sources(&traces), 1.0, 0.0, 7200.0);
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
        let traces = traces(&node, 1);
        let coarse = sample_virtual(&sources(&traces), 10.0, 0.0, 100.0);
        let fine = sample_virtual(&sources(&traces), 0.1, 0.0, 100.0);
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
        let traces = traces(&node, 1);
        // Only the busy window. The final sample at t=10 already reads the
        // idle power (the step function switched exactly there), costing
        // half an interval of trapezoid error — the same boundary error a
        // real polling tool makes.
        let m = sample_virtual(&sources(&traces), 0.5, 0.0, 10.0);
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
    fn sampled_integration_matches_exact_for_constant_power() {
        let mut t = PowerTrace::new();
        t.push(0.0, 250.0);
        let m = sample_virtual(&sources(std::slice::from_ref(&t)), 0.1, 0.0, 100.0);
        assert!((m.df.energy_wh(0) - t.energy_wh(0.0, 100.0)).abs() < 1e-9);
        assert!(m.df.num_rows() > 1000);
    }

    #[test]
    fn sampled_integration_close_for_step_function() {
        let mut t = PowerTrace::new();
        t.push(0.0, 100.0);
        t.push(50.0, 300.0);
        let exact = t.energy_wh(0.0, 100.0);
        let m = sample_virtual(&sources(std::slice::from_ref(&t)), 0.05, 0.0, 100.0);
        // Sampling at 50 ms misses at most one interval of the step.
        assert!((m.df.energy_wh(0) - exact).abs() / exact < 1e-3);
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn virtual_rejects_zero_interval() {
        sample_virtual(&[], 0.0, 0.0, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Trapezoid sampling converges to the exact step-function energy
        /// as the interval shrinks.
        #[test]
        fn sampling_converges(p1 in 50.0..300.0f64, p2 in 50.0..300.0f64) {
            let mut trace = PowerTrace::new();
            trace.push(0.0, p1);
            trace.push(7.0, p2);
            let exact = trace.energy_wh(0.0, 20.0);
            let sources = [("d".to_string(), "mock".to_string(), &trace)];
            let coarse = sample_virtual(&sources, 1.0, 0.0, 20.0).df.energy_wh(0);
            let fine = sample_virtual(&sources, 0.01, 0.0, 20.0).df.energy_wh(0);
            prop_assert!((fine - exact).abs() <= (coarse - exact).abs() + 1e-9);
        }

        /// The forward cursor reads what a search of the trace reads
        /// ([`PowerTrace::power_at`]: the last change at or before the
        /// sample, 0 W before the first) at every sample of any window,
        /// including windows that start before the first change or end
        /// before the last, changes that share an instant, and samples
        /// that land exactly on a change (half-second steps add exactly).
        #[test]
        fn cursor_matches_step_lookup(
            changes in prop::collection::vec(
                (prop_oneof![Just(0.0), Just(0.5), Just(1.5), 0.0..5.0f64], 0.0..700.0f64),
                0..12,
            ),
            t0 in prop_oneof![Just(0.0), Just(1.0), -2.0..10.0f64],
            span in 0.0..12.0f64,
            interval in prop_oneof![Just(0.5), 0.05..3.0f64],
        ) {
            let mut trace = PowerTrace::new();
            let mut t = 0.0;
            for (dt, w) in changes {
                t += dt;
                trace.push(t, w);
            }
            let sources = [("d".to_string(), "mock".to_string(), &trace)];
            let m = sample_virtual(&sources, interval, t0, t0 + span);
            for (i, &time) in m.df.time_s.iter().enumerate() {
                prop_assert_eq!(m.df.values[0][i].to_bits(), trace.power_at(time).to_bits());
            }
        }
    }
}
