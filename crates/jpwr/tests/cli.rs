//! Integration tests of the `jpwr` command-line tool: wrapping a child
//! process, measuring, and exporting DataFrames — the paper's
//! `jpwr --methods rocm --df-out energy_meas --df-filetype csv <cmd>`
//! flow, with the methods available outside the simulator.

use std::process::Command;

fn jpwr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jpwr"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jpwr_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn wraps_command_and_reports_energy() {
    let out = jpwr()
        .args([
            "--methods",
            "mock",
            "--interval",
            "10",
            "--",
            "sleep",
            "0.15",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mock/mock0"), "stderr: {stderr}");
    assert!(stderr.contains("Wh"));
}

#[test]
fn propagates_child_exit_code() {
    let status = jpwr()
        .args(["--methods", "mock", "--", "sh", "-c", "exit 7"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(7));
}

#[test]
fn writes_csv_dataframes_with_suffix_expansion() {
    let dir = temp_dir("csv");
    let out = jpwr()
        .env("JPWR_CLI_TEST_RANK", "5")
        .args([
            "--methods",
            "mock",
            "--interval",
            "10",
            "--df-out",
            dir.to_str().unwrap(),
            "--df-filetype",
            "csv",
            "--df-suffix",
            "_rank%q{JPWR_CLI_TEST_RANK}",
            "--",
            "sleep",
            "0.1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let power = dir.join("power_rank5.csv");
    let energy = dir.join("energy_rank5.csv");
    assert!(power.exists(), "missing {power:?}");
    assert!(energy.exists());
    let df = jpwr::DataFrame::from_csv(&std::fs::read_to_string(&power).unwrap()).unwrap();
    assert_eq!(df.columns, vec!["mock0"]);
    assert!(df.num_rows() >= 2);
    // Mock draws a constant 100 W.
    assert!((df.mean(0) - 100.0).abs() < 1e-6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn writes_json_dataframes() {
    let dir = temp_dir("json");
    let out = jpwr()
        .args([
            "--methods",
            "mock",
            "--df-out",
            dir.to_str().unwrap(),
            "--df-filetype",
            "json",
            "--",
            "true",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(dir.join("power.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(v["columns"][0], "mock0");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multiple_methods_at_once() {
    let out = jpwr()
        .args([
            "--methods",
            "mock,procstat",
            "--interval",
            "20",
            "--",
            "sleep",
            "0.1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mock/mock0"));
    assert!(stderr.contains("procstat/cpu"));
}

#[test]
fn unknown_method_fails_cleanly() {
    let out = jpwr()
        .args(["--methods", "pynvml", "--", "true"])
        .output()
        .unwrap();
    // The hardware methods live inside the simulator; the CLI refuses.
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));
}

#[test]
fn zero_interval_is_rejected() {
    // A zero interval would poll without sleeping for as long as the
    // command runs.
    let out = jpwr()
        .args(["--methods", "mock", "--interval", "0", "--", "true"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--interval"));
}

#[test]
fn long_interval_ends_with_the_command() {
    // The closing sample is taken when the command exits, not one
    // interval later.
    let started = std::time::Instant::now();
    let out = jpwr()
        .args(["--methods", "mock", "--interval", "5000", "--", "true"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "took {elapsed:?}"
    );
    // 100 W for well under a second is below 0.03 Wh.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let wh: f64 = stderr
        .split("mock/mock0: ")
        .nth(1)
        .and_then(|rest| rest.split(" Wh").next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no energy line in {stderr}"));
    assert!(wh < 0.03, "{wh} Wh");
}

#[test]
fn missing_command_prints_usage() {
    let out = jpwr().args(["--methods", "mock"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn nonexistent_command_reports_127() {
    let out = jpwr()
        .args(["--methods", "mock", "--", "definitely-not-a-command-xyz"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(127));
}

#[test]
fn multi_rank_flow_combines_with_postprocess() {
    // Simulate the paper's multi-node flow: two "ranks" write suffixed
    // CSVs, then the postprocess step combines them and summarizes.
    let dir = temp_dir("combine_flow");
    for rank in 0..2 {
        let out = jpwr()
            .env("FAKE_SLURM_PROCID", rank.to_string())
            .args([
                "--methods",
                "mock",
                "--interval",
                "10",
                "--df-out",
                dir.to_str().unwrap(),
                "--df-filetype",
                "csv",
                "--df-suffix",
                "_%q{FAKE_SLURM_PROCID}",
                "--",
                "sleep",
                "0.05",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
    }
    let files = jpwr::postprocess::find_rank_files(&dir, "power").unwrap();
    assert_eq!(files.len(), 2);
    let combined = jpwr::postprocess::combine(&files).unwrap();
    assert_eq!(combined.num_cols(), 2);
    let summary = jpwr::postprocess::summarize(&combined);
    for s in &summary {
        // Mock method: constant 100 W.
        assert!((s.mean_w - 100.0).abs() < 1e-6, "{s:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
