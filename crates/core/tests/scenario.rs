//! Integration tests of the scenario-driven benchmarking service: a
//! TOML scenario must expand and execute bit-identically to the
//! equivalent hand-constructed native sweep, and a history built from
//! repeated scenario runs must gate direction-aware regressions.

use caraml::continuous::{History, HistoryRecord, Verdict};
use caraml::scenario::{check_against_native, Scenario, SweepSpec, WorkloadKind};
use caraml::trend::{analyze, TrendConfig};
use caraml_accel::{Precision, SystemId};
use std::path::PathBuf;

/// A multi-workload scenario small enough to run in a debug-build test,
/// exercising the precision axis, the serve seed override, and two
/// device tags.
const MULTI: &str = r#"
schema = 1
name = "multi"
seed = 11

[[sweep]]
workload = "resnet"
systems = ["A100", "GH200"]
batches = [256]

[[sweep]]
workload = "inference"
systems = ["H100"]
precisions = ["bf16", "int8"]
batches = [8]

[[sweep]]
workload = "serve"
systems = ["A100"]
precisions = ["int8"]
rates = [24.0]
caps = [8]
requests = 32
seed = 5
"#;

/// The hand-built twin of [`MULTI`].
fn multi_native() -> Scenario {
    let resnet = SweepSpec {
        systems: vec![SystemId::A100, SystemId::Gh200Jrdc],
        batches: vec![256],
        ..SweepSpec::new(WorkloadKind::Resnet)
    };
    let inference = SweepSpec {
        systems: vec![SystemId::H100Jrdc],
        precisions: vec![Precision::Bf16, Precision::Int8],
        batches: vec![8],
        ..SweepSpec::new(WorkloadKind::Inference)
    };
    let serve = SweepSpec {
        systems: vec![SystemId::A100],
        precisions: vec![Precision::Int8],
        rates: vec![24.0],
        caps: vec![8],
        requests: Some(32),
        seed: Some(5),
        ..SweepSpec::new(WorkloadKind::Serve)
    };
    Scenario {
        name: "multi".to_string(),
        seed: 11,
        sweeps: vec![resnet, inference, serve],
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "caraml-scenario-test-{}-{name}",
        std::process::id()
    ));
    p
}

#[test]
fn parsed_scenario_is_bit_identical_to_the_native_twin() {
    let parsed = Scenario::parse(MULTI).unwrap();
    let native = multi_native();
    check_against_native(&parsed, &native).unwrap();

    // Parsed file run in parallel vs hand-built spec run on one worker:
    // the checksums (FNV-1a over the raw f64 bits) must still agree,
    // which pins both the parse → spec mapping and execution
    // determinism.
    let from_file = parsed.run().unwrap();
    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let from_code = one_worker.install(|| native.run()).unwrap();
    assert_eq!(from_file.checksum, from_code.checksum);
    assert_eq!(from_file.metrics.metrics, from_code.metrics.metrics);
    assert_eq!(from_file.runs, 5); // 2 resnet + 2 inference + 1 serve
    assert!(from_file.skipped_oom.is_empty());
}

#[test]
fn repeated_runs_build_a_gateable_history_and_a_perturbed_ttft_fails() {
    let outcome = Scenario::parse(MULTI).unwrap().run().unwrap();

    // Three identical generations: the gate must pass and the trend
    // report must see one flat series per metric.
    let mut history = History::default();
    for gen in 0..3u64 {
        let label = format!("gen-{gen}");
        history
            .records
            .extend(outcome.history_records(gen, &label, "default"));
    }
    let report = history.gate(0.05).expect("two generations to compare");
    assert!(report.passed(), "identical generations must pass the gate");

    let trend = analyze(&history, &TrendConfig::default());
    assert_eq!(trend.generations, 3);
    assert_eq!(trend.metrics.len(), outcome.metrics.metrics.len());
    assert!(trend.healthy());

    // Generation 3 replays the same metrics except p99 TTFT, worsened
    // by +50%: a direction-blind gate would wave this through as a
    // "big change in some direction"; ours must fail it.
    let ttft_key = outcome
        .metrics
        .metrics
        .keys()
        .find(|k| k.ends_with("p99_ttft_s"))
        .expect("serve sweep records p99 TTFT")
        .clone();
    let records: Vec<HistoryRecord> = outcome
        .metrics
        .metrics
        .iter()
        .map(|(key, &value)| {
            let value = if *key == ttft_key { value * 1.5 } else { value };
            HistoryRecord::new(3, "gen-3", "multi", "default", "-", key, value).unwrap()
        })
        .collect();
    history.records.extend(records);

    let report = history.gate(0.05).expect("gate on latest two generations");
    assert!(!report.passed(), "worsened p99 TTFT must fail the gate");
    let finding = report
        .regressions()
        .into_iter()
        .find(|f| f.key == ttft_key)
        .expect("the TTFT series is the regression");
    assert_eq!(finding.change, Verdict::Regressed);

    let trend = analyze(&history, &TrendConfig::default());
    assert!(!trend.healthy());
    assert!(trend
        .regressions()
        .iter()
        .any(|m| m.key.contains("p99_ttft_s")));
}

#[test]
fn history_survives_an_append_round_trip_on_disk() {
    let outcome = Scenario::parse(MULTI).unwrap().run().unwrap();
    let path = temp_path("roundtrip.jsonl");
    let _ = std::fs::remove_file(&path);

    for gen in 0..3u64 {
        let on_disk = History::load_or_empty(&path).unwrap();
        assert_eq!(on_disk.next_generation(), gen);
        let label = format!("gen-{gen}");
        History::append_to(&path, &outcome.history_records(gen, &label, "avx2")).unwrap();
    }

    let loaded = History::load(&path).unwrap();
    assert_eq!(loaded.len(), 3 * outcome.metrics.metrics.len());
    let trend = analyze(&loaded, &TrendConfig::default());
    assert_eq!(trend.generations, 3);
    // The arm label travels into the series name.
    assert!(trend.metrics.iter().all(|m| m.key.ends_with("@avx2")));
    std::fs::remove_file(&path).unwrap();
}
