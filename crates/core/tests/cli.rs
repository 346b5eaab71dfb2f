//! Integration tests of the `caraml` CLI — the Rust counterpart of the
//! paper's `jube run` / `jube result` commands.

use std::process::Command;

fn caraml() -> Command {
    Command::new(env!("CARGO_BIN_EXE_caraml"))
}

#[test]
fn systems_prints_table1() {
    let out = caraml().arg("systems").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for tag in ["JEDI", "GH200", "H100", "WAIH100", "MI250", "GC200", "A100"] {
        assert!(stdout.contains(tag), "missing {tag}");
    }
}

#[test]
fn run_llm_ipu_reproduces_table2_headline() {
    let out = caraml()
        .args(["run", "llm", "--tag", "GC200"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("64.99"), "Table II batch-64 row missing");
    assert!(stdout.contains("tokens_per_wh"));
}

#[test]
fn run_resnet_reports_oom_rows() {
    let out = caraml()
        .args(["run", "resnet50", "--tag", "A100"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("out of memory"));
    assert!(stdout.contains("1 workpackage(s) failed"));
}

#[test]
fn heatmap_renders_grid() {
    let out = caraml().args(["heatmap", "WAIH100"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("devices \\ batch"));
    assert!(stdout.contains("2048"));
}

#[test]
fn run_with_shards_flag_after_tags_is_not_swallowed() {
    // Regression: tag collection used to swallow `--shards 2` as two
    // extra (unknown) tags; now it dispatches sharded and reports the
    // same rows plus the shard accounting table.
    let out = caraml()
        .args(["run", "resnet50", "--tag", "GH200", "--shards", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("images_per_s"));
    assert!(stdout.contains("shard dispatch"), "{stdout}");
    assert!(stdout.contains("resnet50_benchmark_shard1"));
}

#[test]
fn suite_subcommand_runs_sharded_with_accounting() {
    let out = caraml()
        .args(["suite", "GH200", "--shards", "3", "--nodes", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("caraml suite GH200 · llm"));
    assert!(stdout.contains("caraml suite GH200 · resnet50"));
    assert!(stdout.contains("queue_s"));
    assert!(stdout.contains("Completed"));
}

#[test]
fn suite_subcommand_unknown_tag_fails() {
    let out = caraml().args(["suite", "NOPE"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sharded_heatmap_grid_matches_single_host_grid() {
    let serial = caraml().args(["heatmap", "WAIH100"]).output().unwrap();
    let sharded = caraml()
        .args(["heatmap", "WAIH100", "--shards", "3", "--nodes", "4"])
        .output()
        .unwrap();
    assert!(serial.status.success() && sharded.status.success());
    let serial = String::from_utf8_lossy(&serial.stdout).to_string();
    let sharded = String::from_utf8_lossy(&sharded.stdout).to_string();
    assert!(sharded.contains("shard dispatch"));
    // The heatmap block itself must be identical to the single-host run.
    let grid_of = |s: &str| s[s.find("ResNet50 images/s").unwrap()..].to_string();
    assert_eq!(grid_of(&serial), grid_of(&sharded));
}

#[test]
fn heatmap_unknown_tag_fails() {
    let out = caraml().args(["heatmap", "NOPE"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn inference_subcommand_runs() {
    let out = caraml().args(["inference", "GH200"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("memory-bound"));
    assert!(stdout.contains("TTFT"));
}

#[test]
fn fleet_subcommand_renders_policy_table() {
    let out = caraml()
        .args(["fleet", "H100", "--replicas", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LLM fleet serving"));
    for policy in ["round-robin", "least-kv-load", "session-affinity"] {
        assert!(stdout.contains(policy), "missing {policy} row:\n{stdout}");
    }
    for col in ["ttft_p99_ms", "goodput", "wh_per_ktok", "handoff_gb"] {
        assert!(stdout.contains(col), "missing {col} column:\n{stdout}");
    }
}

#[test]
fn fleet_unknown_policy_rejected_with_valid_list() {
    let out = caraml()
        .args(["fleet", "H100", "--policy", "random"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for policy in ["round-robin", "least-kv-load", "session-affinity"] {
        assert!(
            stderr.contains(policy),
            "valid list missing {policy}:\n{stderr}"
        );
    }
}

#[test]
fn fleet_unknown_tag_rejected_with_valid_list() {
    let out = caraml().args(["fleet", "NOPE"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("H100"),
        "valid tag list expected:\n{stderr}"
    );
}

#[test]
fn fleet_zero_replicas_rejected() {
    let out = caraml()
        .args(["fleet", "H100", "--replicas", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("replica"));
}

#[test]
fn fleet_precision_ladder_parses_comma_list_and_rejects_unknown_tier() {
    // A comma-separated --precision builds a heterogeneous fleet; the
    // json output reports the base precision while each replica runs
    // its ladder entry (exercised end-to-end by the table render).
    let out = caraml()
        .args([
            "fleet",
            "H100",
            "--replicas",
            "4",
            "--precision",
            "f32,bf16,int8,int8",
            "--policy",
            "least-kv-load",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("least-kv-load"));
    let out = caraml()
        .args(["fleet", "H100", "--precision", "f32,fp4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("int8") && stderr.contains("comma-separated"),
        "error must list valid tiers and mention the list form:\n{stderr}"
    );
}

#[test]
fn fleet_json_output_round_trips_through_serde() {
    let out = caraml()
        .args([
            "fleet",
            "H100",
            "--replicas",
            "2",
            "--policy",
            "all",
            "--disagg",
            "--autoscale",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let foms: Vec<caraml::FleetFom> = serde_json::from_str(&stdout).unwrap();
    assert_eq!(foms.len(), 3);
    let policies: Vec<&str> = foms.iter().map(|f| f.policy.as_str()).collect();
    assert_eq!(
        policies,
        vec!["round-robin", "least-kv-load", "session-affinity"]
    );
    for f in &foms {
        assert_eq!(f.served + f.shed, f.requests);
        assert!(f.kv_handoffs > 0, "disaggregated fleet must hand off KV");
        // Round-trip: re-serialize and parse back to the same value.
        let json = serde_json::to_string(f).unwrap();
        let back: caraml::FleetFom = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, f);
    }
}

#[test]
fn no_args_prints_usage() {
    let out = caraml().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

// ---- scenario / trend subcommands ----

/// A serve-only scenario small enough for a debug-build CLI test.
const CLI_SCENARIO: &str = r#"
schema = 1
name = "cli-mini"
seed = 3

[[sweep]]
workload = "serve"
systems = ["A100"]
precisions = ["int8"]
rates = [24.0]
caps = [8]
requests = 24
"#;

fn cli_temp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("caraml-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn scenario_runs_a_toml_file_and_renders_metrics() {
    let file = cli_temp("mini.toml");
    std::fs::write(&file, CLI_SCENARIO).unwrap();
    let out = caraml().args(["scenario"]).arg(&file).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cli-mini"));
    assert!(stdout.contains("p99_ttft_s"));
    assert!(stdout.contains("checksum"));
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn scenario_rejects_a_bad_file_with_a_parse_error() {
    let file = cli_temp("bad.toml");
    std::fs::write(
        &file,
        "schema = 1\nname = \"x\"\n[[sweep]]\nworkload = \"warp\"\n",
    )
    .unwrap();
    let out = caraml().args(["scenario"]).arg(&file).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload"), "stderr: {stderr}");
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn scenario_history_feeds_trend_and_the_gate_catches_a_regression() {
    use caraml::continuous::{History, HistoryRecord};

    let file = cli_temp("gate.toml");
    let jsonl = cli_temp("gate.jsonl");
    std::fs::write(&file, CLI_SCENARIO).unwrap();
    let _ = std::fs::remove_file(&jsonl);

    // Two identical generations via the CLI.
    for label in ["gen-a", "gen-b"] {
        let out = caraml()
            .args(["scenario"])
            .arg(&file)
            .arg("--history")
            .arg(&jsonl)
            .args(["--label", label])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("appended"));
    }

    let out = caraml()
        .args(["trend", "--history"])
        .arg(&jsonl)
        .arg("--gate")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 generations"), "stdout: {stdout}");
    assert!(stdout.contains("gate: PASS"), "stdout: {stdout}");

    // Replay generation 1 as generation 2 with p99 TTFT worsened by
    // +50%: the direction-aware gate must now fail the trend command.
    let history = History::load(&jsonl).unwrap();
    let worsened: Vec<HistoryRecord> = history
        .records
        .iter()
        .filter(|r| r.generation == 1)
        .map(|r| {
            let value = if r.key.ends_with("p99_ttft_s") {
                r.value * 1.5
            } else {
                r.value
            };
            HistoryRecord::new(2, "gen-c", &r.scenario, &r.arm, &r.precision, &r.key, value)
                .unwrap()
        })
        .collect();
    History::append_to(&jsonl, &worsened).unwrap();

    let out = caraml()
        .args(["trend", "--history"])
        .arg(&jsonl)
        .arg("--gate")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gate: FAIL"), "stdout: {stdout}");
    assert!(stdout.contains("Regressed"), "stdout: {stdout}");

    // Generation 3 restores generation 1's values but drops one metric:
    // p99 TTFT improves, nothing regresses, and the gate must still fail
    // on the metric that went missing.
    let history = History::load(&jsonl).unwrap();
    let dropped = history
        .records
        .iter()
        .find(|r| r.generation == 1 && !r.key.ends_with("p99_ttft_s"))
        .unwrap()
        .key
        .clone();
    let restored: Vec<HistoryRecord> = history
        .records
        .iter()
        .filter(|r| r.generation == 1 && r.key != dropped)
        .map(|r| {
            HistoryRecord::new(
                3,
                "gen-d",
                &r.scenario,
                &r.arm,
                &r.precision,
                &r.key,
                r.value,
            )
            .unwrap()
        })
        .collect();
    History::append_to(&jsonl, &restored).unwrap();

    let out = caraml()
        .args(["trend", "--history"])
        .arg(&jsonl)
        .arg("--gate")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("gate: FAIL — 0 regression(s), 1 missing metric(s)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("Missing"), "stdout: {stdout}");
    assert!(stdout.contains(&dropped), "stdout: {stdout}");

    std::fs::remove_file(&file).unwrap();
    std::fs::remove_file(&jsonl).unwrap();
}

#[test]
fn trend_on_a_missing_history_renders_an_empty_report() {
    let jsonl = cli_temp("absent.jsonl");
    let _ = std::fs::remove_file(&jsonl);
    let out = caraml()
        .args(["trend", "--history"])
        .arg(&jsonl)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("history is empty"));
}

#[test]
fn trend_gate_on_a_missing_history_fails() {
    let jsonl = cli_temp("absent-gate.jsonl");
    let _ = std::fs::remove_file(&jsonl);
    let out = caraml()
        .args(["trend", "--history"])
        .arg(&jsonl)
        .arg("--gate")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("absent-gate.jsonl"), "stderr: {stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("gate: PASS"));
}

#[test]
fn trend_gate_on_fewer_than_two_generations_fails() {
    // An empty store, and a copy of the committed store cut to its first
    // generation: neither has two generations to compare.
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results.jsonl");
    let first: String = std::fs::read_to_string(committed)
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"generation\":0,"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(!first.is_empty());
    for (name, body) in [("empty.jsonl", String::new()), ("one-gen.jsonl", first)] {
        let jsonl = cli_temp(name);
        std::fs::write(&jsonl, body).unwrap();
        let out = caraml()
            .args(["trend", "--history"])
            .arg(&jsonl)
            .arg("--gate")
            .output()
            .unwrap();
        std::fs::remove_file(&jsonl).unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("gate: fewer than two generations, nothing to compare"),
            "{name}: {stdout}"
        );
        assert!(!stdout.contains("gate: PASS"), "{name}: {stdout}");
    }
}

#[test]
fn trend_history_without_a_value_exits_2() {
    // A flag must not be read as the value of the flag before it: taking
    // `--gate` as the history path loads an empty history and passes.
    for args in [
        &["trend", "--history"][..],
        &["trend", "--history", "--gate"],
    ] {
        let out = caraml().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--history needs a value"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn trend_gate_rejects_a_negative_or_nan_tolerance() {
    // Either would reach the gate's `tolerance >= 0` assertion and panic.
    let history = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results.jsonl");
    for tolerance in ["-1", "NaN"] {
        let out = caraml()
            .args([
                "trend",
                "--history",
                history,
                "--gate",
                "--tolerance",
                tolerance,
            ])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{tolerance}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--tolerance needs a finite value"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn scenario_label_without_a_value_exits_2() {
    let file = cli_temp("label.toml");
    let jsonl = cli_temp("label.jsonl");
    std::fs::write(&file, CLI_SCENARIO).unwrap();
    let _ = std::fs::remove_file(&jsonl);
    for trailing in [&["--label"][..], &["--label", "--json"]] {
        let out = caraml()
            .args(["scenario"])
            .arg(&file)
            .arg("--history")
            .arg(&jsonl)
            .args(trailing)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{trailing:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--label needs a value"), "stderr: {stderr}");
    }
    assert!(!jsonl.exists(), "a rejected run must not append history");
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn calibrate_output_without_a_value_exits_2() {
    let device = concat!(env!("CARGO_MANIFEST_DIR"), "/../accel/devices/a100.toml");
    for flag in ["-o", "--output"] {
        let out = caraml().args(["calibrate", device, flag]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} needs a value")),
            "stderr: {stderr}"
        );
    }
}
