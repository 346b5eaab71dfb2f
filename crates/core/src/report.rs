//! Text renderers for the paper's figures and tables.
//!
//! The regeneration binaries in `caraml-bench` print each figure as data
//! series (one row per batch size, one column per system) and each
//! heatmap as an aligned grid with `OOM` cells, matching the structure of
//! Fig. 2, Fig. 3 and Fig. 4.

use crate::engine::RunOutcome;
use crate::fom::{FleetFom, HeatmapCell, ServeFom};
use jube::{JobRecord, ResultTable};

/// A named data series over batch sizes (one line in a Fig. 2/3 panel).
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    /// `(global_batch, value)` points; `None` marks a failed point (OOM
    /// or invalid configuration).
    pub points: Vec<(u64, Option<f64>)>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, batch: u64, value: Option<f64>) {
        self.points.push((batch, value));
    }

    /// Largest finite value in the series.
    pub fn peak(&self) -> Option<f64> {
        self.points
            .iter()
            .filter_map(|(_, v)| *v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// Render one figure panel: rows = batch sizes, columns = systems.
pub fn render_panel(title: &str, batches: &[u64], series: &[Series]) -> String {
    let mut columns = vec!["global_batch".to_string()];
    columns.extend(series.iter().map(|s| s.name.clone()));
    let mut table = ResultTable::new(columns);
    for (i, &batch) in batches.iter().enumerate() {
        let mut row = vec![batch.to_string()];
        for s in series {
            let cell = s
                .points
                .get(i)
                .and_then(|(b, v)| (*b == batch).then_some(*v))
                .flatten();
            row.push(match cell {
                Some(v) if v >= 1000.0 => format!("{v:.0}"),
                Some(v) => format!("{v:.2}"),
                // Failed point: OOM or invalid configuration (e.g. the
                // paper's "batch 16 not divisible by dp 8" MI250 case).
                None => "-".to_string(),
            });
        }
        table.push_row(row);
    }
    format!("{title}\n{}", table.to_ascii())
}

/// Render the device registry as the `caraml devices` table: one row
/// per system straight from the TOML-backed registry, covering the
/// Table I columns that feed the simulator (peaks, memory, TDP, links).
pub fn render_device_table() -> String {
    use caraml_accel::DeviceRegistry;
    let mut table = ResultTable::new(
        [
            "tag",
            "platform",
            "accelerator",
            "peak_tflops",
            "mem_gib",
            "mem_gbps",
            "tdp_w",
            "interconnect",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for entry in DeviceRegistry::global().entries() {
        let node = &entry.node;
        let dev = &node.device;
        let intra = node.accel_accel.as_ref().unwrap_or(&node.cpu_accel);
        table.push_row(vec![
            entry.tag.clone(),
            node.platform.clone(),
            format!("{}x {}", node.devices_per_node, dev.name),
            format!("{:.1}", dev.peak_fp16_tflops),
            format!("{:.0}", dev.mem_bytes as f64 / (1u64 << 30) as f64),
            format!("{:.0}", dev.mem_bw_gbps),
            format!("{:.0}", node.tdp_per_device_w()),
            intra.kind.toml_name().to_string(),
        ]);
    }
    format!(
        "device registry ({} systems)\n{}",
        DeviceRegistry::global().len(),
        table.to_ascii()
    )
}

/// Render a Fig. 4 heatmap for one system.
pub fn render_heatmap(
    title: &str,
    device_counts: &[u32],
    batches: &[u64],
    grid: &[Vec<HeatmapCell>],
) -> String {
    let mut columns = vec!["devices \\ batch".to_string()];
    columns.extend(batches.iter().map(u64::to_string));
    let mut table = ResultTable::new(columns);
    for (r, &d) in device_counts.iter().enumerate() {
        let mut row = vec![d.to_string()];
        row.extend(grid[r].iter().map(HeatmapCell::to_string));
        table.push_row(row);
    }
    format!("{title}\n{}", table.to_ascii())
}

/// Render a serving load sweep: one row per (rate, cap) cell with the
/// tail-latency, goodput and energy figures of merit. Failed cells (OOM
/// or invalid configuration) render as a dash row so the grid shape is
/// preserved.
pub fn render_serve_table(title: &str, outcomes: &[RunOutcome<ServeFom>]) -> String {
    let mut table = ResultTable::new(vec![
        "rate_per_s".to_string(),
        "cap".to_string(),
        "served".to_string(),
        "shed".to_string(),
        "ttft_p50_ms".to_string(),
        "ttft_p95_ms".to_string(),
        "ttft_p99_ms".to_string(),
        "tpot_p99_ms".to_string(),
        "tok_per_s".to_string(),
        "goodput".to_string(),
        "slo".to_string(),
        "wh_per_ktok".to_string(),
        "busy".to_string(),
    ]);
    for out in outcomes {
        match out {
            RunOutcome::Completed(f) => table.push_row(vec![
                format!("{:.1}", f.rate_per_s),
                f.batch_cap.to_string(),
                f.served.to_string(),
                f.shed.to_string(),
                format!("{:.2}", f.ttft.p50 * 1000.0),
                format!("{:.2}", f.ttft.p95 * 1000.0),
                format!("{:.2}", f.ttft.p99 * 1000.0),
                format!("{:.2}", f.tpot.p99 * 1000.0),
                format!("{:.0}", f.tokens_per_s),
                format!("{:.0}", f.goodput_tokens_per_s),
                format!("{:.3}", f.slo_attainment),
                format!("{:.4}", f.energy_wh_per_ktoken),
                format!("{:.3}", f.busy_fraction),
            ]),
            RunOutcome::Oom { .. } => {
                let mut row = vec!["OOM".to_string()];
                row.resize(13, "-".to_string());
                table.push_row(row);
            }
            RunOutcome::Failed(_) => {
                let mut row = vec!["FAIL".to_string()];
                row.resize(13, "-".to_string());
                table.push_row(row);
            }
        }
    }
    format!("{title}\n{}", table.to_ascii())
}

/// Render a fleet policy sweep: one row per routing policy (or load
/// point) with fleet goodput, tail latency, scale events, KV-handoff
/// traffic and prefix-reuse rate — the headline "which router wins"
/// comparison of the fleet tier.
pub fn render_fleet_table(title: &str, outcomes: &[RunOutcome<FleetFom>]) -> String {
    let mut table = ResultTable::new(
        [
            "policy",
            "replicas",
            "served",
            "shed",
            "ttft_p99_ms",
            "tpot_p99_ms",
            "tok_per_s",
            "goodput",
            "slo",
            "wh_per_ktok",
            "scale",
            "handoff_gb",
            "reuse",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for out in outcomes {
        match out {
            RunOutcome::Completed(f) => table.push_row(vec![
                f.policy.clone(),
                if f.replicas_peak > f.replicas_base {
                    format!("{}->{}", f.replicas_base, f.replicas_peak)
                } else {
                    f.replicas_base.to_string()
                },
                f.served.to_string(),
                f.shed.to_string(),
                format!("{:.2}", f.ttft.p99 * 1000.0),
                format!("{:.2}", f.tpot.p99 * 1000.0),
                format!("{:.0}", f.tokens_per_s),
                format!("{:.0}", f.goodput_tokens_per_s),
                format!("{:.3}", f.slo_attainment),
                format!("{:.4}", f.energy_wh_per_ktoken),
                format!("+{}/-{}", f.scale_up_events, f.scale_down_events),
                format!("{:.3}", f.kv_handoff_gb),
                format!("{:.3}", f.prefix_reuse_frac),
            ]),
            RunOutcome::Oom { .. } => {
                let mut row = vec!["OOM".to_string()];
                row.resize(13, "-".to_string());
                table.push_row(row);
            }
            RunOutcome::Failed(_) => {
                let mut row = vec!["FAIL".to_string()];
                row.resize(13, "-".to_string());
                table.push_row(row);
            }
        }
    }
    format!("{title}\n{}", table.to_ascii())
}

/// Render a precision sweep at one serving load point: one row per
/// numeric tier (widest first) with throughput, tail latency and energy
/// per kilotoken, plus each tier's token-throughput and energy ratios
/// against the first (widest) row — the headline "what does int8 buy
/// you" comparison of the quantized inference tier.
pub fn render_precision_table(title: &str, foms: &[ServeFom]) -> String {
    let mut table = ResultTable::new(
        [
            "precision",
            "served",
            "shed",
            "tok_per_s",
            "goodput",
            "ttft_p99_ms",
            "tpot_p99_ms",
            "wh_per_ktok",
            "speedup",
            "energy_ratio",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let base = foms.first();
    for f in foms {
        let base = base.expect("non-empty by construction");
        let speedup = if base.tokens_per_s > 0.0 {
            f.tokens_per_s / base.tokens_per_s
        } else {
            0.0
        };
        let energy_ratio = if base.energy_wh_per_ktoken > 0.0 {
            f.energy_wh_per_ktoken / base.energy_wh_per_ktoken
        } else {
            0.0
        };
        table.push_row(vec![
            f.precision.tag().to_string(),
            f.served.to_string(),
            f.shed.to_string(),
            format!("{:.0}", f.tokens_per_s),
            format!("{:.0}", f.goodput_tokens_per_s),
            format!("{:.2}", f.ttft.p99 * 1000.0),
            format!("{:.2}", f.tpot.p99 * 1000.0),
            format!("{:.4}", f.energy_wh_per_ktoken),
            format!("{speedup:.2}x"),
            format!("{energy_ratio:.2}x"),
        ]);
    }
    format!("{title}\n{}", table.to_ascii())
}

/// Render the scheduler's per-job accounting of a sharded run: one row
/// per shard job with its id, name, nodes, final state, and queue and
/// run times (wall-clock seconds).
pub fn render_job_table(title: &str, records: &[JobRecord]) -> String {
    let mut table = ResultTable::new(
        ["job", "name", "nodes", "state", "queue_s", "run_s"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for r in records {
        table.push_row(vec![
            r.id.to_string(),
            r.name.clone(),
            r.nodes.to_string(),
            format!("{:?}", r.state),
            format!("{:.4}", r.queue_s),
            format!("{:.4}", r.run_s),
        ]);
    }
    format!("{title}\n{}", table.to_ascii())
}

/// Compact `a × / b ×` style comparison line used by the bench binaries
/// to echo the paper's headline claims.
pub fn ratio_line(label: &str, numerator: f64, denominator: f64, paper: f64) -> String {
    let ratio = numerator / denominator;
    format!(
        "{label}: measured {ratio:.2}x (paper: {paper:.2}x, deviation {:+.1}%)",
        (ratio / paper - 1.0) * 100.0
    )
}

/// Render a scenario run: header with checksum, skipped-OOM cells, and
/// one row per metric.
pub fn render_scenario_outcome(outcome: &crate::scenario::ScenarioOutcome) -> String {
    let mut out = format!(
        "scenario `{}`: {} cells completed, checksum {}\n",
        outcome.name, outcome.runs, outcome.checksum
    );
    for cell in &outcome.skipped_oom {
        out.push_str(&format!("  skipped (OOM): {cell}\n"));
    }
    let mut table = ResultTable::new(["metric", "dir", "value"].map(String::from).to_vec());
    for (key, value) in &outcome.metrics.metrics {
        table.push_row(vec![
            key.clone(),
            crate::continuous::Direction::infer(key).arrow().to_string(),
            format_metric(*value),
        ]);
    }
    out.push_str(&table.to_ascii());
    out
}

fn format_metric(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Render the trend report as a markdown table: one row per metric
/// series with its direction, latest value, latest delta, sparkline, and
/// flags for anomalies/steps. Regressed series are listed below the
/// table.
pub fn render_trend_report(report: &crate::trend::TrendReport) -> String {
    use crate::continuous::Verdict;
    let mut out = format!(
        "# Trend report — {} generations, {} metric series\n\n",
        report.generations,
        report.metrics.len()
    );
    if report.metrics.is_empty() {
        out.push_str(
            "history is empty — run `caraml scenario <file> --history results.jsonl` first\n",
        );
        return out;
    }
    out.push_str("| metric | dir | latest | Δ latest | trend | flags |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for m in &report.metrics {
        let delta = match m.latest_rel_delta {
            Some(rel) => format!("{:+.2}%", rel * 100.0),
            None => "—".to_string(),
        };
        let mut flags = Vec::new();
        match m.latest_verdict {
            Verdict::Regressed => flags.push("REGRESSED".to_string()),
            Verdict::Improved => flags.push("improved".to_string()),
            _ => {}
        }
        for a in &m.anomalies {
            flags.push(format!(
                "anomaly@g{} (z={:.1}{})",
                a.generation,
                a.robust_z,
                if a.improvement { ", good" } else { "" }
            ));
        }
        if let Some(step) = &m.step {
            flags.push(format!(
                "step@g{} ({:+.1}%{})",
                step.generation,
                step.rel_change * 100.0,
                if step.improvement { ", good" } else { "" }
            ));
        }
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            m.key,
            m.direction.arrow(),
            format_metric(m.latest),
            delta,
            m.sparkline,
            flags.join("; ")
        ));
    }
    let regressions = report.regressions();
    out.push('\n');
    if regressions.is_empty() {
        out.push_str("No regressing series.\n");
    } else {
        out.push_str(&format!("{} regressing series:\n", regressions.len()));
        for m in regressions {
            out.push_str(&format!("  - {}\n", m.key));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jube::JobState;

    #[test]
    fn series_peak() {
        let mut s = Series::new("A100");
        s.push(16, Some(10.0));
        s.push(32, Some(30.0));
        s.push(64, None);
        assert_eq!(s.peak(), Some(30.0));
        assert_eq!(Series::new("empty").peak(), None);
    }

    #[test]
    fn panel_renders_systems_and_oom() {
        let mut a = Series::new("A100");
        a.push(16, Some(1000.0));
        a.push(32, None);
        let mut b = Series::new("GH200");
        b.push(16, Some(2450.0));
        b.push(32, Some(4900.0));
        let out = render_panel("Fig 2 (top)", &[16, 32], &[a, b]);
        assert!(out.contains("Fig 2 (top)"));
        assert!(out.contains("A100"));
        assert!(out.contains("GH200"));
        assert!(out.contains(" - "));
        assert!(out.contains("4900"));
    }

    #[test]
    fn heatmap_renders_grid() {
        let grid = vec![
            vec![HeatmapCell::Throughput(100.0), HeatmapCell::Oom],
            vec![
                HeatmapCell::Throughput(200.0),
                HeatmapCell::Throughput(300.0),
            ],
        ];
        let out = render_heatmap("Fig 4a", &[1, 2], &[16, 2048], &grid);
        assert!(out.contains("Fig 4a"));
        assert!(out.contains("OOM"));
        assert!(out.contains("300"));
        assert!(out.contains("2048"));
    }

    #[test]
    fn ratio_line_reports_deviation() {
        let line = ratio_line("GH200/A100", 245.0, 100.0, 2.45);
        assert!(line.contains("2.45x"));
        assert!(line.contains("+0.0%"));
        let line2 = ratio_line("x", 300.0, 100.0, 2.0);
        assert!(line2.contains("+50.0%"));
    }

    #[test]
    fn serve_table_renders_cells_and_failures() {
        use crate::fom::LatencyPercentiles;
        let fom = ServeFom {
            system: "A100".into(),
            precision: caraml_accel::Precision::Bf16,
            rate_per_s: 8.0,
            batch_cap: 16,
            requests: 160,
            served: 158,
            shed: 2,
            ttft: LatencyPercentiles {
                p50: 0.012,
                p95: 0.045,
                p99: 0.0801,
            },
            tpot: LatencyPercentiles {
                p50: 0.008,
                p95: 0.011,
                p99: 0.0152,
            },
            tokens_per_s: 5120.0,
            goodput_tokens_per_s: 5000.0,
            slo_attainment: 0.987,
            energy_wh_per_ktoken: 0.0123,
            mean_power_w: 310.0,
            peak_power_w: 395.0,
            busy_fraction: 0.91,
        };
        let outcomes = vec![
            RunOutcome::Completed(fom),
            RunOutcome::Oom {
                device: "A100".into(),
                requested: 2,
                available: 1,
                capacity: 1,
            },
            RunOutcome::Failed(caraml_accel::AccelError::InvalidConfig("x".into())),
        ];
        let out = render_serve_table("Serve sweep", &outcomes);
        assert!(out.contains("Serve sweep"));
        assert!(out.contains("ttft_p99_ms"));
        assert!(out.contains("80.10"), "p99 TTFT in ms:\n{out}");
        assert!(out.contains("0.987"));
        assert!(out.contains("OOM"));
        assert!(out.contains("FAIL"));
    }

    #[test]
    fn fleet_table_renders_policies_scale_events_and_failures() {
        use crate::fom::LatencyPercentiles;
        let fom = FleetFom {
            system: "A100".into(),
            policy: "least-kv-load".into(),
            precision: caraml_accel::Precision::Int8,
            rate_per_s: 120.0,
            batch_cap: 16,
            replicas_base: 2,
            replicas_peak: 5,
            requests: 100_000,
            served: 98_500,
            shed: 1_500,
            ttft: LatencyPercentiles {
                p50: 0.020,
                p95: 0.090,
                p99: 0.2345,
            },
            tpot: LatencyPercentiles {
                p50: 0.008,
                p95: 0.012,
                p99: 0.0190,
            },
            tokens_per_s: 21000.0,
            goodput_tokens_per_s: 19000.0,
            slo_attainment: 0.941,
            energy_wh_per_ktoken: 0.0456,
            mean_fleet_power_w: 1400.0,
            scale_up_events: 3,
            scale_down_events: 2,
            kv_handoffs: 12000,
            kv_handoff_gb: 4.321,
            prefix_reuse_frac: 0.125,
        };
        let outcomes = vec![
            RunOutcome::Completed(fom),
            RunOutcome::Failed(caraml_accel::AccelError::InvalidConfig("x".into())),
        ];
        let out = render_fleet_table("Fleet sweep", &outcomes);
        assert!(out.contains("Fleet sweep"));
        assert!(out.contains("least-kv-load"));
        assert!(out.contains("2->5"), "autoscaled replica span:\n{out}");
        assert!(out.contains("234.50"), "p99 TTFT in ms:\n{out}");
        assert!(out.contains("+3/-2"), "scale events:\n{out}");
        assert!(out.contains("4.321"));
        assert!(out.contains("0.125"));
        assert!(out.contains("FAIL"));
    }

    #[test]
    fn precision_table_reports_ratios_against_widest_tier() {
        use crate::fom::LatencyPercentiles;
        use caraml_accel::Precision;
        let mk = |precision: Precision, tok: f64, wh: f64| ServeFom {
            system: "A100".into(),
            precision,
            rate_per_s: 8.0,
            batch_cap: 16,
            requests: 160,
            served: 160,
            shed: 0,
            ttft: LatencyPercentiles::zero(),
            tpot: LatencyPercentiles::zero(),
            tokens_per_s: tok,
            goodput_tokens_per_s: tok,
            slo_attainment: 1.0,
            energy_wh_per_ktoken: wh,
            mean_power_w: 300.0,
            peak_power_w: 380.0,
            busy_fraction: 0.9,
        };
        let out = render_precision_table(
            "Precision sweep",
            &[
                mk(Precision::F32, 1000.0, 0.04),
                mk(Precision::Bf16, 2000.0, 0.02),
                mk(Precision::Int8, 4000.0, 0.01),
            ],
        );
        assert!(out.contains("Precision sweep"));
        assert!(out.contains("f32"));
        assert!(out.contains("bf16"));
        assert!(out.contains("int8"));
        assert!(out.contains("wh_per_ktok"));
        // Ratios are against the widest (first) row.
        assert!(out.contains("1.00x"), "baseline row:\n{out}");
        assert!(out.contains("2.00x"));
        assert!(out.contains("4.00x"));
        assert!(out.contains("0.25x"), "int8 energy ratio:\n{out}");
    }

    #[test]
    fn shard_table_renders_accounting_rows() {
        let record = |id: u64, nodes: u32, state: JobState, queue_s: f64| JobRecord {
            id,
            name: format!("sweep_shard{}", id - 1),
            nodes,
            state,
            queue_s,
            run_s: 0.25,
            error: None,
        };
        let records = vec![
            record(1, 2, JobState::Completed, 0.001),
            record(2, 1, JobState::Failed, 0.1234),
        ];
        let out = render_job_table("Shard dispatch", &records);
        assert!(out.contains("Shard dispatch"));
        assert!(out.contains("sweep_shard1"));
        assert!(out.contains("Completed") && out.contains("Failed"));
        assert!(out.contains("0.1234"));
        assert!(out.contains("0.2500"));
    }

    #[test]
    fn panel_misaligned_points_render_as_oom() {
        let mut s = Series::new("sys");
        s.push(999, Some(1.0)); // batch mismatch
        let out = render_panel("t", &[16], &[s]);
        assert!(out.contains(" - "));
    }

    #[test]
    fn trend_report_renders_sparklines_and_flags() {
        use crate::continuous::{History, HistoryRecord};
        use crate::trend::{analyze, TrendConfig};
        let mut history = History::default();
        for (g, v) in [(0u64, 0.10f64), (1, 0.10), (2, 0.16)] {
            history.records.push(
                HistoryRecord::new(g, format!("r{g}"), "s", "default", "-", "x/p99_ttft_s", v)
                    .unwrap(),
            );
        }
        let report = analyze(&history, &TrendConfig::default());
        let out = render_trend_report(&report);
        assert!(out.contains("3 generations"));
        assert!(out.contains("x/p99_ttft_s"));
        assert!(out.contains("REGRESSED"), "{out}");
        assert!(out.contains('↓'));
        assert!(out.contains('▁') || out.contains('█'), "sparkline:\n{out}");
        assert!(out.contains("+60.00%"), "{out}");
        assert!(out.contains("1 regressing series"));

        let empty = render_trend_report(&analyze(&History::default(), &TrendConfig::default()));
        assert!(empty.contains("history is empty"));
    }

    #[test]
    fn scenario_outcome_renders_metrics_and_oom_cells() {
        use crate::continuous::Baseline;
        use crate::scenario::{checksum64, ScenarioOutcome};
        let mut metrics = Baseline::new("mini");
        metrics
            .record("serve/A100/bf16/r32/c16/p99_ttft_s", 0.08)
            .unwrap();
        metrics
            .record("serve/A100/bf16/r32/c16/tokens_per_s", 5120.0)
            .unwrap();
        let checksum = format!("{:016x}", checksum64(&metrics));
        let outcome = ScenarioOutcome {
            name: "mini".into(),
            runs: 1,
            skipped_oom: vec!["resnet50/A100/b65536".into()],
            checksum: checksum.clone(),
            metrics,
        };
        let out = render_scenario_outcome(&outcome);
        assert!(out.contains("scenario `mini`"));
        assert!(out.contains(&checksum));
        assert!(out.contains("skipped (OOM): resnet50/A100/b65536"));
        assert!(out.contains("p99_ttft_s"));
        assert!(out.contains("5120"));
        assert!(out.contains('↓') && out.contains('↑'));
    }
}
