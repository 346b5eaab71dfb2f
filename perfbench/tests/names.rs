//! Every run prints exactly the metric names `BENCHMARK.json` declares:
//! the end-to-end ones untraced and the per-layer ones traced.

use std::process::Command;

fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
    json[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("name").to_string())
        .collect()
}

fn printed(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::parse(last).expect("the result line is JSON");
    assert_eq!(result["correct"].as_bool(), Some(true), "{last}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{last}");
    assert!(result["attempted"].as_u64().expect("attempted") >= 1);
    let metrics = result["metrics"].as_map().expect("metrics object");
    for (name, m) in metrics {
        assert!(m["value"].as_f64().is_some(), "{name} has no value");
        assert!(m["unit"].as_str().is_some(), "{name} has no unit");
    }
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for workload in ["train", "decode", "fleet_burst", "serve_poisson"] {
        assert_eq!(printed(workload, "0"), declared("end_to_end"), "{workload}");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    assert_eq!(printed("fleet_burst", "1"), declared("per_layer"));
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload nope"));
}
