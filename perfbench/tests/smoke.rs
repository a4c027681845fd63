//! A seconds-long run of every workload, and one traced run: each must
//! exit 0 and end with a correct JSON result carrying its metrics.

use std::path::PathBuf;
use std::process::Command;

fn run(workload: &str, trace: u8) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("create the smoke run directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: u8, names: &[&str]) {
    let result = run(workload, trace);
    assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
    assert!(result.contains("\"failed\": 0,"), "{result}");
    for name in names {
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {result}"
        );
    }
}

const END_TO_END: &[&str] = &[
    "setup_s",
    "ack_p50_us",
    "ack_p90_us",
    "fresh_p50_us",
    "sps",
    "cpu_us_per_sample",
    "rss_mb",
    "forecast_nmse",
];

const PER_LAYER: &[&str] = &[
    "reactor.events_per_req",
    "netserve.request_us_p50",
    "fleet.push_batch_ns_per_sample",
    "larp.retrains_per_1k_steps",
    "learn.knn_ns_p50",
    "predictors.predict_ns_p50",
    "store.wal_append_us_p50",
    "trace.overhead_cpu_pct",
    "budget.coverage_ratio",
];

/// One test, so the runs go one after another: run side by side on a
/// small host, open-loop runs would fall behind their schedule.
#[test]
fn every_workload_runs_correctly() {
    for workload in ["steady", "durable", "retrain_storm"] {
        check(workload, 0, END_TO_END);
    }
    check("durable", 1, PER_LAYER);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "saturate", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
