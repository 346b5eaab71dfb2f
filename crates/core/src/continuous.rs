//! Continuous benchmarking — an implemented "future work" item.
//!
//! §VI: "we plan to further develop CARAML by incorporating continuous
//! benchmarking capabilities". This module is the store and the gate of
//! that service; `caraml scenario --history` appends to the store and
//! `caraml trend --gate` runs the gate:
//!
//! * [`HistoryRecord`] / [`History`] — the append-only `results.jsonl`
//!   store: one record per scenario × metric × run, labeled with the git
//!   revision, SIMD arm and precision tier, giving the repo a queryable
//!   perf trajectory (trend analysis lives in [`crate::trend`]);
//! * [`Baseline`] — one run's figures of merit as a flat `key → value`
//!   map; [`History::gate`] compares the latest generation's against the
//!   previous one's;
//! * [`Direction`] — per-metric improvement direction. Latency and
//!   energy metrics (`…/p99_ttft_s`, `…/wh_per_ktoken`) get *better* as
//!   they go *down*; the gate classifies every movement relative to the
//!   metric's direction, resolved from a key-suffix convention with an
//!   explicit override map ([`Baseline::compare_with`]).
//!
//! Non-finite values are rejected at [`Baseline::record`] /
//! [`HistoryRecord::new`] time with a typed [`ContinuousError`]: the
//! JSON layer has no NaN/Inf representation (the vendored serde shim
//! writes `null`, upstream serde_json errors), so a NaN metric would
//! otherwise corrupt the store on the round trip and surface as a
//! confusing parse failure one run later.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Schema version stamped on every [`HistoryRecord`]; bump when the
/// record layout changes incompatibly (same convention as the device
/// registry's `schema` key).
pub const HISTORY_SCHEMA: u32 = 1;

/// Which way a metric improves.
///
/// Resolved per key by [`Direction::infer`] unless overridden via
/// [`Baseline::compare_with`]. The suffix convention looks only at the
/// last `/`-separated segment of the key, so
/// `serve/A100/bf16/r32/c16/p99_ttft_s` is classified by `p99_ttft_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Throughput/efficiency-style: larger is an improvement (the
    /// documented default for unrecognised keys).
    HigherIsBetter,
    /// Latency/energy-style: smaller is an improvement.
    LowerIsBetter,
}

/// Keywords marking a metric segment as higher-is-better. Checked
/// *before* the lower-is-better list so `tokens_per_s` (ends in `_s`)
/// and `images_per_wh` (contains `wh`) resolve as throughput.
const HIGHER_KEYWORDS: &[&str] = &[
    "per_s",
    "per_wh",
    "goodput",
    "attainment",
    "gflops",
    "gbps",
    "throughput",
    "reuse",
    "occupancy",
];

/// Keywords marking a metric segment as lower-is-better: latencies
/// (`ttft`, `tpot`, `…_ms`, bare `…_s`), energy (`energy_wh`,
/// `wh_per_ktoken`, `power_w`), and failure counters.
const LOWER_KEYWORDS: &[&str] = &[
    "ttft", "tpot", "latency", "wh_per", "energy", "power", "_ms", "shed", "oom", "queue",
    "makespan", "overhead", "failures",
];

impl Direction {
    /// Resolve a metric key's direction from the suffix convention:
    /// the last path segment is scanned for throughput keywords first,
    /// then latency/energy keywords, then a trailing `_s`/`_ms` unit;
    /// anything unrecognised defaults to [`Direction::HigherIsBetter`].
    pub fn infer(key: &str) -> Direction {
        let seg = key.rsplit('/').next().unwrap_or(key).to_ascii_lowercase();
        if HIGHER_KEYWORDS.iter().any(|k| seg.contains(k)) {
            return Direction::HigherIsBetter;
        }
        if LOWER_KEYWORDS.iter().any(|k| seg.contains(k)) || seg.ends_with("_s") {
            return Direction::LowerIsBetter;
        }
        Direction::HigherIsBetter
    }

    /// Whether a movement from `base` to `now` is an improvement under
    /// this direction.
    pub fn is_improvement(&self, base: f64, now: f64) -> bool {
        match self {
            Direction::HigherIsBetter => now > base,
            Direction::LowerIsBetter => now < base,
        }
    }

    /// One-character marker for report tables: `↑` higher-is-better,
    /// `↓` lower-is-better.
    pub fn arrow(&self) -> char {
        match self {
            Direction::HigherIsBetter => '↑',
            Direction::LowerIsBetter => '↓',
        }
    }
}

/// Typed failure of the continuous-benchmarking layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ContinuousError {
    /// A NaN/Inf metric was rejected before it could corrupt the JSON
    /// round trip.
    NonFinite { key: String, value: f64 },
    /// Filesystem failure reading or writing a history file.
    Io { path: String, msg: String },
    /// Malformed content; `line` is 1-based for history files, 0 for
    /// whole-document failures.
    Parse { line: usize, msg: String },
    /// A history record carries an unsupported schema version.
    Schema { line: usize, found: u32 },
}

impl fmt::Display for ContinuousError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContinuousError::NonFinite { key, value } => {
                write!(f, "non-finite value {value} for metric `{key}`")
            }
            ContinuousError::Io { path, msg } => write!(f, "{path}: {msg}"),
            ContinuousError::Parse { line, msg } if *line > 0 => {
                write!(f, "line {line}: {msg}")
            }
            ContinuousError::Parse { msg, .. } => write!(f, "{msg}"),
            ContinuousError::Schema { line, found } => write!(
                f,
                "line {line}: unsupported history schema {found} (this build reads {HISTORY_SCHEMA})"
            ),
        }
    }
}

impl std::error::Error for ContinuousError {}

/// Best-effort label for the code state a run measured: the
/// `CARAML_LABEL` environment override if set, else the short git
/// revision of the working tree, else `"untracked"`.
pub fn default_label() -> String {
    if let Ok(label) = std::env::var("CARAML_LABEL") {
        if !label.is_empty() {
            return label;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "untracked".to_string())
}

/// A persisted set of benchmark metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Baseline {
    /// Schema/description, e.g. the suite git revision.
    pub label: String,
    /// metric key (e.g. `"llm/GH200/batch4096/tokens_per_s"`) → value.
    pub metrics: BTreeMap<String, f64>,
}

impl Baseline {
    pub fn new(label: impl Into<String>) -> Self {
        Baseline {
            label: label.into(),
            metrics: BTreeMap::new(),
        }
    }

    /// Record one metric (replacing any previous value). Non-finite
    /// values are rejected: they have no JSON representation, so letting
    /// one in would corrupt the history store's round trip.
    pub fn record(&mut self, key: impl Into<String>, value: f64) -> Result<(), ContinuousError> {
        let key = key.into();
        if !value.is_finite() {
            return Err(ContinuousError::NonFinite { key, value });
        }
        self.metrics.insert(key, value);
        Ok(())
    }

    /// Record all figures of merit of an LLM run under a prefix.
    pub fn record_llm(
        &mut self,
        prefix: &str,
        fom: &crate::fom::LlmFom,
    ) -> Result<(), ContinuousError> {
        self.record(
            format!("{prefix}/tokens_per_s"),
            fom.tokens_per_s_per_device,
        )?;
        self.record(format!("{prefix}/energy_wh"), fom.energy_wh_per_device)?;
        self.record(format!("{prefix}/tokens_per_wh"), fom.tokens_per_wh)
    }

    /// Record all figures of merit of a CV run under a prefix.
    pub fn record_cv(
        &mut self,
        prefix: &str,
        fom: &crate::fom::CvFom,
    ) -> Result<(), ContinuousError> {
        self.record(format!("{prefix}/images_per_s"), fom.images_per_s)?;
        self.record(format!("{prefix}/energy_wh"), fom.energy_wh_per_epoch)?;
        self.record(format!("{prefix}/images_per_wh"), fom.images_per_wh)
    }

    /// Record the headline figures of merit of a serving run under a
    /// prefix (tail latency, goodput, SLO attainment, energy).
    pub fn record_serve(
        &mut self,
        prefix: &str,
        fom: &crate::fom::ServeFom,
    ) -> Result<(), ContinuousError> {
        self.record(format!("{prefix}/p99_ttft_s"), fom.ttft.p99)?;
        self.record(format!("{prefix}/p99_tpot_s"), fom.tpot.p99)?;
        self.record(format!("{prefix}/tokens_per_s"), fom.tokens_per_s)?;
        self.record(
            format!("{prefix}/goodput_tokens_per_s"),
            fom.goodput_tokens_per_s,
        )?;
        self.record(format!("{prefix}/slo_attainment"), fom.slo_attainment)?;
        self.record(format!("{prefix}/wh_per_ktoken"), fom.energy_wh_per_ktoken)
    }

    /// Record the headline figures of merit of a fleet run under a
    /// prefix.
    pub fn record_fleet(
        &mut self,
        prefix: &str,
        fom: &crate::fom::FleetFom,
    ) -> Result<(), ContinuousError> {
        self.record(format!("{prefix}/p99_ttft_s"), fom.ttft.p99)?;
        self.record(
            format!("{prefix}/goodput_tokens_per_s"),
            fom.goodput_tokens_per_s,
        )?;
        self.record(format!("{prefix}/slo_attainment"), fom.slo_attainment)?;
        self.record(format!("{prefix}/wh_per_ktoken"), fom.energy_wh_per_ktoken)
    }

    /// Compare a new measurement set against this baseline. `tolerance`
    /// is the relative band treated as noise (e.g. 0.05 = ±5 %). Each
    /// metric's improvement direction is resolved from the key-suffix
    /// convention ([`Direction::infer`]); use [`Baseline::compare_with`]
    /// to override directions per key.
    pub fn compare(&self, current: &Baseline, tolerance: f64) -> RegressionReport {
        self.compare_with(current, tolerance, &BTreeMap::new())
    }

    /// [`Baseline::compare`] with explicit per-key direction overrides
    /// (full metric key → [`Direction`]); keys absent from the map fall
    /// back to [`Direction::infer`].
    pub fn compare_with(
        &self,
        current: &Baseline,
        tolerance: f64,
        overrides: &BTreeMap<String, Direction>,
    ) -> RegressionReport {
        assert!(tolerance >= 0.0);
        let direction_of = |key: &str| {
            overrides
                .get(key)
                .copied()
                .unwrap_or_else(|| Direction::infer(key))
        };
        let mut findings = Vec::new();
        for (key, &base) in &self.metrics {
            let direction = direction_of(key);
            match current.metrics.get(key) {
                None => findings.push(Finding {
                    key: key.clone(),
                    baseline: Some(base),
                    current: None,
                    change: Verdict::Missing,
                    rel_delta: None,
                    direction,
                }),
                Some(&now) => findings.push(classify(key, base, now, tolerance, direction)),
            }
        }
        for (key, &now) in &current.metrics {
            if !self.metrics.contains_key(key) {
                findings.push(Finding {
                    key: key.clone(),
                    baseline: None,
                    current: Some(now),
                    change: Verdict::New,
                    rel_delta: None,
                    direction: direction_of(key),
                });
            }
        }
        RegressionReport { findings }
    }
}

/// Classify one metric's movement, direction-aware.
///
/// A zero baseline with a nonzero current value is a *change* with an
/// undefined relative delta (`rel_delta: None`), classified by which
/// side of zero the movement lands on relative to the metric's
/// direction — a p99 TTFT appearing where the baseline recorded 0.0 is
/// a regression, not "stable".
fn classify(key: &str, base: f64, now: f64, tolerance: f64, direction: Direction) -> Finding {
    let (change, rel_delta) = if base == 0.0 {
        if now == 0.0 {
            (Verdict::Stable, Some(0.0))
        } else if direction.is_improvement(base, now) {
            (Verdict::Improved, None)
        } else {
            (Verdict::Regressed, None)
        }
    } else {
        // Signed relative movement, normalised by |base| so the sign
        // always means "the value went up/down" even for a negative
        // baseline.
        let rel = (now - base) / base.abs();
        let change = if rel.abs() <= tolerance {
            Verdict::Stable
        } else if direction.is_improvement(base, now) {
            Verdict::Improved
        } else {
            Verdict::Regressed
        };
        (change, Some(rel))
    };
    Finding {
        key: key.to_string(),
        baseline: Some(base),
        current: Some(now),
        change,
        rel_delta,
        direction,
    }
}

/// Classification of one metric's movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    Stable,
    Improved,
    Regressed,
    /// Present in the baseline but not measured now.
    Missing,
    /// Measured now but absent from the baseline.
    New,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    pub key: String,
    pub baseline: Option<f64>,
    pub current: Option<f64>,
    pub change: Verdict,
    /// Relative delta (current − baseline) / |baseline|; `None` when the
    /// comparison is undefined (missing/new metrics, zero baseline with
    /// a nonzero current value).
    pub rel_delta: Option<f64>,
    /// Improvement direction the verdict was judged under.
    pub direction: Direction,
}

impl Finding {
    /// Render the relative delta, or `—` when it is undefined.
    pub fn rel_delta_str(&self) -> String {
        match self.rel_delta {
            Some(rel) => format!("{:>+8.2}%", rel * 100.0),
            None => format!("{:>9}", "—"),
        }
    }
}

/// The outcome of a baseline comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionReport {
    pub findings: Vec<Finding>,
}

impl RegressionReport {
    /// Metrics that regressed beyond tolerance.
    pub fn regressions(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.change == Verdict::Regressed)
            .collect()
    }

    /// True when no metric regressed or went missing (the CI gate).
    pub fn passed(&self) -> bool {
        !self
            .findings
            .iter()
            .any(|f| matches!(f.change, Verdict::Regressed | Verdict::Missing))
    }

    /// Render a compact summary: verdict, direction marker, key, and the
    /// relative delta (`—` for absent comparisons).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{:<10} {} {:<50} {}\n",
                format!("{:?}", f.change),
                f.direction.arrow(),
                f.key,
                f.rel_delta_str()
            ));
        }
        out
    }
}

/// One line of the append-only `results.jsonl` history store: one metric
/// of one run, labeled with everything needed to slice the trajectory
/// (code revision, scenario, SIMD arm, precision tier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Record schema version ([`HISTORY_SCHEMA`]).
    pub schema: u32,
    /// Run counter: every record appended by one run shares a
    /// generation; generations order the trajectory.
    pub generation: u64,
    /// Code-state label, e.g. the short git revision
    /// ([`default_label`]).
    pub label: String,
    /// Producer name: the scenario that ran.
    pub scenario: String,
    /// SIMD dispatch arm the run executed on (`scalar` / `avx2`).
    pub arm: String,
    /// Precision tier tag (`f32`/`bf16`/`int8`, or `-` when the metric
    /// has no precision axis).
    pub precision: String,
    /// Metric key, same convention as [`Baseline`] keys.
    pub key: String,
    pub value: f64,
    /// Improvement direction the metric is tracked under.
    pub direction: Direction,
}

impl HistoryRecord {
    /// Build a record, inferring the direction from the key and
    /// rejecting non-finite values (the JSONL store has the same
    /// no-NaN invariant as [`Baseline`]).
    pub fn new(
        generation: u64,
        label: impl Into<String>,
        scenario: impl Into<String>,
        arm: impl Into<String>,
        precision: impl Into<String>,
        key: impl Into<String>,
        value: f64,
    ) -> Result<HistoryRecord, ContinuousError> {
        let key = key.into();
        if !value.is_finite() {
            return Err(ContinuousError::NonFinite { key, value });
        }
        let direction = Direction::infer(&key);
        Ok(HistoryRecord {
            schema: HISTORY_SCHEMA,
            generation,
            label: label.into(),
            scenario: scenario.into(),
            arm: arm.into(),
            precision: precision.into(),
            key,
            value,
            direction,
        })
    }

    /// Identity of the series this record belongs to: the metric key,
    /// disambiguated by the SIMD arm when the same key is tracked per
    /// arm (the precision axis is embedded in the key by producers).
    pub fn series_label(&self) -> String {
        match self.arm.as_str() {
            "" | "-" | "default" => self.key.clone(),
            arm => format!("{}@{arm}", self.key),
        }
    }
}

/// The loaded `results.jsonl` history: every record, in file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    pub records: Vec<HistoryRecord>,
}

impl History {
    /// Parse a JSONL document (one record per line; blank lines are
    /// skipped). Errors carry the 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<History, ContinuousError> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line_no = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let rec: HistoryRecord =
                serde_json::from_str(line).map_err(|e| ContinuousError::Parse {
                    line: line_no,
                    msg: e.to_string(),
                })?;
            if rec.schema != HISTORY_SCHEMA {
                return Err(ContinuousError::Schema {
                    line: line_no,
                    found: rec.schema,
                });
            }
            if !rec.value.is_finite() {
                return Err(ContinuousError::NonFinite {
                    key: rec.key.clone(),
                    value: rec.value,
                });
            }
            records.push(rec);
        }
        Ok(History { records })
    }

    /// Render as JSONL (one compact record per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(&serde_json::to_string(rec).expect("history record serializes"));
            out.push('\n');
        }
        out
    }

    /// Load a history file.
    pub fn load(path: &Path) -> Result<History, ContinuousError> {
        let text = std::fs::read_to_string(path).map_err(|e| ContinuousError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        Self::from_jsonl(&text)
    }

    /// Load a history file, treating a missing file as an empty history
    /// (the first run of the service has nothing to append to).
    pub fn load_or_empty(path: &Path) -> Result<History, ContinuousError> {
        if path.exists() {
            Self::load(path)
        } else {
            Ok(History::default())
        }
    }

    /// Append records to a history file (creating it and its parent
    /// directories if needed). The file is only ever appended to — the
    /// store is the repo's perf trajectory, not a snapshot.
    pub fn append_to(path: &Path, records: &[HistoryRecord]) -> Result<(), ContinuousError> {
        let io_err = |e: std::io::Error| ContinuousError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(io_err)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        let mut chunk = String::new();
        for rec in records {
            chunk.push_str(&serde_json::to_string(rec).expect("history record serializes"));
            chunk.push('\n');
        }
        file.write_all(chunk.as_bytes()).map_err(io_err)
    }

    /// The generation the next appended run should use (max + 1, or 0
    /// for an empty history).
    pub fn next_generation(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.generation + 1)
            .max()
            .unwrap_or(0)
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Group records into per-metric series, keyed by
    /// [`HistoryRecord::series_label`] and ordered by generation (file
    /// order breaks ties, so re-measured metrics keep their order).
    pub fn series(&self) -> BTreeMap<String, Vec<&HistoryRecord>> {
        let mut map: BTreeMap<String, Vec<&HistoryRecord>> = BTreeMap::new();
        for rec in &self.records {
            map.entry(rec.series_label()).or_default().push(rec);
        }
        for series in map.values_mut() {
            series.sort_by_key(|r| r.generation);
        }
        map
    }

    /// The metrics of one generation as a [`Baseline`] (labelled with
    /// the generation's first record label).
    pub fn generation_baseline(&self, generation: u64) -> Baseline {
        let mut label = String::new();
        let mut baseline = Baseline::new("");
        for rec in self.records.iter().filter(|r| r.generation == generation) {
            if label.is_empty() {
                label = rec.label.clone();
            }
            // Finite by the load/new invariant.
            baseline
                .record(rec.series_label(), rec.value)
                .expect("history values are finite");
        }
        baseline.label = label;
        baseline
    }

    /// The direction-aware CI gate over the trajectory: compare the
    /// latest generation against the one before it. `None` when the
    /// history holds fewer than two generations.
    pub fn gate(&self, tolerance: f64) -> Option<RegressionReport> {
        let latest = self.records.iter().map(|r| r.generation).max()?;
        let previous = self
            .records
            .iter()
            .map(|r| r.generation)
            .filter(|&g| g < latest)
            .max()?;
        Some(
            self.generation_baseline(previous)
                .compare(&self.generation_baseline(latest), tolerance),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraml_accel::SystemId;

    fn baseline_with(pairs: &[(&str, f64)]) -> Baseline {
        let mut b = Baseline::new("test");
        for (k, v) in pairs {
            b.record(*k, *v).unwrap();
        }
        b
    }

    #[test]
    fn direction_inference_follows_suffix_convention() {
        for key in [
            "llm/GH200/b512/tokens_per_s",
            "resnet50/A100/b256/images_per_wh",
            "serve/H100/bf16/r32/c16/goodput_tokens_per_s",
            "serve/H100/bf16/r32/c16/slo_attainment",
            "bench/matmul/256x256x256/gflops",
        ] {
            assert_eq!(
                Direction::infer(key),
                Direction::HigherIsBetter,
                "{key} should be higher-is-better"
            );
        }
        for key in [
            "serve/H100/bf16/r32/c16/p99_ttft_s",
            "serve/H100/int8/r32/c16/wh_per_ktoken",
            "llm/GH200/b512/energy_wh",
            "fleet/H100/least-kv-load/int8/r64/c16/p99_ttft_s",
            "bench/matmul/256x256x256/median_ms",
            "sched/job3/queue_s",
        ] {
            assert_eq!(
                Direction::infer(key),
                Direction::LowerIsBetter,
                "{key} should be lower-is-better"
            );
        }
        // Unrecognised keys default to higher-is-better (documented).
        assert_eq!(Direction::infer("misc/score"), Direction::HigherIsBetter);
    }

    #[test]
    fn stable_within_tolerance() {
        let base = baseline_with(&[("x", 100.0)]);
        let now = baseline_with(&[("x", 103.0)]);
        let report = base.compare(&now, 0.05);
        assert!(report.passed());
        assert_eq!(report.findings[0].change, Verdict::Stable);
    }

    #[test]
    fn regression_detected_beyond_tolerance() {
        let base = baseline_with(&[("x", 100.0)]);
        let now = baseline_with(&[("x", 90.0)]);
        let report = base.compare(&now, 0.05);
        assert!(!report.passed());
        assert_eq!(report.regressions().len(), 1);
        assert!((report.findings[0].rel_delta.unwrap() + 0.1).abs() < 1e-9);
    }

    #[test]
    fn improvement_and_new_metrics_pass() {
        let base = baseline_with(&[("x", 100.0)]);
        let now = baseline_with(&[("x", 120.0), ("y", 1.0)]);
        let report = base.compare(&now, 0.05);
        assert!(report.passed());
        let verdicts: Vec<Verdict> = report.findings.iter().map(|f| f.change).collect();
        assert!(verdicts.contains(&Verdict::Improved));
        assert!(verdicts.contains(&Verdict::New));
    }

    #[test]
    fn worsened_p99_ttft_fails_the_gate() {
        // The headline bugfix: before directions existed, every metric
        // was scored higher-is-better, so a +50% p99 TTFT blow-up was
        // classified `Improved` and *passed* the gate.
        let key = "serve/H100/bf16/r32/c16/p99_ttft_s";
        let base = baseline_with(&[(key, 0.120)]);
        let now = baseline_with(&[(key, 0.180)]);
        let report = base.compare(&now, 0.05);
        assert!(!report.passed(), "+50% p99 TTFT must fail the gate");
        assert_eq!(report.findings[0].change, Verdict::Regressed);
        assert!((report.findings[0].rel_delta.unwrap() - 0.5).abs() < 1e-9);
        // And a *drop* in TTFT is an improvement, not a regression.
        let report = now.compare(&base, 0.05);
        assert!(report.passed());
        assert_eq!(report.findings[0].change, Verdict::Improved);
    }

    #[test]
    fn lower_is_better_energy_metric_gates_both_ways() {
        let key = "serve/A100/int8/r32/c16/wh_per_ktoken";
        let base = baseline_with(&[(key, 2.0)]);
        let worse = baseline_with(&[(key, 2.5)]);
        let better = baseline_with(&[(key, 1.5)]);
        assert!(!base.compare(&worse, 0.05).passed());
        assert_eq!(
            base.compare(&better, 0.05).findings[0].change,
            Verdict::Improved
        );
    }

    #[test]
    fn direction_overrides_beat_inference() {
        // `misc/score` infers higher-is-better; override it to
        // lower-is-better and a rise must fail.
        let mut overrides = BTreeMap::new();
        overrides.insert("misc/score".to_string(), Direction::LowerIsBetter);
        let base = baseline_with(&[("misc/score", 10.0)]);
        let now = baseline_with(&[("misc/score", 20.0)]);
        assert!(base.compare(&now, 0.05).passed());
        let report = base.compare_with(&now, 0.05, &overrides);
        assert!(!report.passed());
        assert_eq!(report.findings[0].direction, Direction::LowerIsBetter);
    }

    #[test]
    fn missing_metric_fails_the_gate() {
        let base = baseline_with(&[("x", 100.0), ("y", 5.0)]);
        let now = baseline_with(&[("x", 100.0)]);
        let report = base.compare(&now, 0.05);
        assert!(!report.passed());
    }

    #[test]
    fn missing_and_new_render_a_dash_not_a_fake_zero() {
        let base = baseline_with(&[("x", 100.0)]);
        let now = baseline_with(&[("y", 1.0)]);
        let report = base.compare(&now, 0.05);
        for f in &report.findings {
            assert_eq!(f.rel_delta, None);
        }
        let summary = report.summary();
        assert!(summary.contains('—'), "{summary}");
        assert!(
            !summary.contains("+0.00%"),
            "absent comparisons must not render as +0.00%: {summary}"
        );
    }

    #[test]
    fn non_finite_values_rejected_at_record_time() {
        let mut b = Baseline::new("nan");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = b.record("x", bad).unwrap_err();
            assert!(matches!(err, ContinuousError::NonFinite { .. }), "{err}");
        }
        assert!(b.metrics.is_empty(), "rejected values must not be stored");
        // A hand-edited history line with a smuggled null fails the
        // re-parse instead of materialising a silent 0.0 or NaN.
        let line = serde_json::to_string(
            &HistoryRecord::new(0, "r", "s", "default", "-", "m", 1.5).unwrap(),
        )
        .unwrap();
        assert!(line.contains("\"value\":1.5"), "{line}");
        let err = History::from_jsonl(&line.replace("1.5", "null")).unwrap_err();
        assert!(
            matches!(err, ContinuousError::Parse { line: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn end_to_end_gate_on_simulated_runs() {
        // Record a baseline from an actual benchmark run, then re-run:
        // the simulator is deterministic, so the gate must pass at any
        // tolerance.
        let mut bench = crate::llm::LlmBenchmark::fig2(SystemId::A100);
        bench.duration_s = 120.0;
        let mut base = Baseline::new("run1");
        base.record_llm("llm/A100/b512", &bench.run(512).unwrap().fom)
            .unwrap();
        let mut now = Baseline::new("run2");
        now.record_llm("llm/A100/b512", &bench.run(512).unwrap().fom)
            .unwrap();
        let report = base.compare(&now, 0.001);
        assert!(report.passed(), "{}", report.summary());
        assert_eq!(report.findings.len(), 3);
    }

    #[test]
    fn detects_an_injected_performance_regression() {
        // Simulate a "code change" that slows the device: compare A100
        // against a deliberately slower measurement.
        let mut bench = crate::llm::LlmBenchmark::fig2(SystemId::A100);
        bench.duration_s = 120.0;
        let good = bench.run(512).unwrap().fom;
        let mut base = Baseline::new("good");
        base.record_llm("llm/A100/b512", &good).unwrap();
        let mut bad_fom = good.clone();
        bad_fom.tokens_per_s_per_device *= 0.8; // injected 20 % regression
        bad_fom.tokens_per_wh *= 0.8;
        let mut now = Baseline::new("bad");
        now.record_llm("llm/A100/b512", &bad_fom).unwrap();
        let report = base.compare(&now, 0.05);
        assert!(!report.passed());
        assert_eq!(report.regressions().len(), 2);
        assert!(report.summary().contains("Regressed"));
    }

    #[test]
    fn zero_baseline_with_nonzero_current_is_a_change() {
        // Regression fix: this used to report Stable with rel_delta 0.0
        // (the old `zero_baseline_is_stable` test pinned the bug). A
        // throughput appearing from 0 is an improvement; a latency
        // appearing from 0 is a regression. Both have no defined
        // relative delta.
        let base = baseline_with(&[("z/tokens_per_s", 0.0)]);
        let now = baseline_with(&[("z/tokens_per_s", 5.0)]);
        let report = base.compare(&now, 0.05);
        assert!(report.passed());
        assert_eq!(report.findings[0].change, Verdict::Improved);
        assert_eq!(report.findings[0].rel_delta, None);

        let base = baseline_with(&[("z/p99_ttft_s", 0.0)]);
        let now = baseline_with(&[("z/p99_ttft_s", 5.0)]);
        let report = base.compare(&now, 0.05);
        assert!(!report.passed(), "latency appearing from 0 must fail");
        assert_eq!(report.findings[0].rel_delta, None);

        // 0 → 0 stays stable with a defined zero delta.
        let base = baseline_with(&[("z/p99_ttft_s", 0.0)]);
        let now = baseline_with(&[("z/p99_ttft_s", 0.0)]);
        let report = base.compare(&now, 0.05);
        assert!(report.passed());
        assert_eq!(report.findings[0].change, Verdict::Stable);
        assert_eq!(report.findings[0].rel_delta, Some(0.0));
    }

    #[test]
    fn history_jsonl_round_trip() {
        let mut history = History::default();
        for (generation, value) in [(0u64, 100.0f64), (1, 101.0), (2, 55.0)] {
            history.records.push(
                HistoryRecord::new(
                    generation,
                    format!("rev{generation}"),
                    "quickstart",
                    "avx2",
                    "bf16",
                    "llm/A100/b512/tokens_per_s",
                    value,
                )
                .unwrap(),
            );
        }
        let parsed = History::from_jsonl(&history.to_jsonl()).unwrap();
        assert_eq!(parsed, history);
        assert_eq!(parsed.next_generation(), 3);
        let series = parsed.series();
        assert_eq!(series.len(), 1);
        let recs = &series["llm/A100/b512/tokens_per_s@avx2"];
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].value, 55.0);
    }

    #[test]
    fn history_append_and_gate_across_generations() {
        let dir = std::env::temp_dir().join(format!("caraml_history_{}", std::process::id()));
        let path = dir.join("results.jsonl");
        std::fs::remove_dir_all(&dir).ok();

        let record = |generation: u64, key: &str, value: f64| {
            HistoryRecord::new(generation, "rev", "test", "default", "-", key, value).unwrap()
        };
        // Generation 0: healthy; generation 1: p99 TTFT +50%.
        History::append_to(
            &path,
            &[
                record(0, "serve/p99_ttft_s", 0.10),
                record(0, "serve/goodput_tokens_per_s", 900.0),
            ],
        )
        .unwrap();
        let loaded = History::load(&path).unwrap();
        assert_eq!(loaded.next_generation(), 1);
        assert!(loaded.gate(0.05).is_none(), "one generation cannot gate");

        History::append_to(
            &path,
            &[
                record(1, "serve/p99_ttft_s", 0.15),
                record(1, "serve/goodput_tokens_per_s", 905.0),
            ],
        )
        .unwrap();
        let loaded = History::load(&path).unwrap();
        assert_eq!(loaded.len(), 4, "append must not truncate");
        let gate = loaded.gate(0.05).expect("two generations gate");
        assert!(!gate.passed(), "{}", gate.summary());
        assert_eq!(gate.regressions().len(), 1);
        assert_eq!(gate.regressions()[0].key, "serve/p99_ttft_s");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn history_rejects_bad_lines_with_line_numbers() {
        let good =
            HistoryRecord::new(0, "rev", "s", "default", "-", "k/tokens_per_s", 1.0).unwrap();
        let good_line = serde_json::to_string(&good).unwrap();
        let err = History::from_jsonl(&format!("{good_line}\nnot json\n")).unwrap_err();
        assert!(
            matches!(err, ContinuousError::Parse { line: 2, .. }),
            "{err:?}"
        );
        let mut wrong_schema = good.clone();
        wrong_schema.schema = 99;
        let text = format!(
            "{good_line}\n{}\n",
            serde_json::to_string(&wrong_schema).unwrap()
        );
        let err = History::from_jsonl(&text).unwrap_err();
        assert!(
            matches!(err, ContinuousError::Schema { line: 2, found: 99 }),
            "{err:?}"
        );
        assert!(HistoryRecord::new(0, "r", "s", "a", "-", "k", f64::NAN).is_err());
    }
}
