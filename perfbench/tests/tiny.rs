//! The benchmark's own tests, on tiny inputs (`--tiny`: smoke profile, a
//! one-second window): every workload named in `BENCHMARK.json` prints
//! every end-to-end and per-layer metric it declares, with its unit, and
//! a tampered report is caught as a failed operation.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

/// `BENCHMARK.json` at the repository root.
fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` pairs of one metric list of the manifest.
fn declared(manifest: &Value, list: &str) -> Vec<(String, String)> {
    manifest.as_object().expect("manifest is an object")[list]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric entry");
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

/// Runs one tiny workload; returns the exit code and the parsed result
/// line.
fn run(workload: &str, extra: &[&str]) -> (i32, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--tiny",
            "--seconds",
            "1",
            "--seed",
            "7",
        ])
        .args(extra)
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload} {extra:?} printed nothing; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = serde_json::from_str(last).expect("last line is JSON");
    (out.status.code().expect("exited normally"), result)
}

/// Checks one result line against the declared metrics.
fn check(workload: &str, trace: &str, declared: &[(String, String)]) {
    let (code, result) = run(workload, &["--trace", trace]);
    let result = result.as_object().expect("result object");
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(code, 0, "{workload} --trace {trace}: {result:?}");
    assert_eq!(result["correct"].as_bool(), Some(true));
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().expect("attempted") >= 1);
    let metrics = result["metrics"].as_object().expect("metrics object");
    assert_eq!(metrics.len(), declared.len(), "{workload} --trace {trace}");
    for (name, unit) in declared {
        let metric = metrics
            .get(name)
            .and_then(Value::as_object)
            .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
        assert_eq!(metric["unit"].as_str(), Some(unit.as_str()), "{name}");
        let value = metric["value"].as_f64().expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

fn workload_emits_every_metric(workload: &str) {
    let manifest = manifest();
    let names: Vec<&str> = manifest.as_object().expect("manifest")["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| {
            w.as_object().expect("workload")["name"]
                .as_str()
                .expect("name")
        })
        .collect();
    assert!(names.contains(&workload), "{workload} is not declared");
    check(workload, "0", &declared(&manifest, "end_to_end"));
    check(workload, "1", &declared(&manifest, "per_layer"));
}

fn tampered_report_is_an_error(workload: &str) {
    let (code, result) = run(workload, &["--trace", "0", "--tamper"]);
    let result = result.as_object().expect("result object");
    assert_eq!(code, 1, "a mismatching report must fail the run");
    assert_eq!(result["correct"].as_bool(), Some(false));
    assert!(result["failed"].as_u64().expect("failed") >= 1);
    let ok = result["metrics"].as_object().expect("metrics")["ok_frac"]
        .as_object()
        .expect("ok_frac")["value"]
        .as_f64()
        .expect("value");
    assert!(ok < 1.0, "ok_frac {ok}");
}

#[test]
fn fresh_emits_every_metric() {
    workload_emits_every_metric("fresh");
}

#[test]
fn rerun_emits_every_metric() {
    workload_emits_every_metric("rerun");
}

#[test]
fn serve_emits_every_metric() {
    workload_emits_every_metric("serve");
}

#[test]
fn fresh_catches_a_tampered_report() {
    tampered_report_is_an_error("fresh");
}

#[test]
fn rerun_catches_a_tampered_report() {
    tampered_report_is_an_error("rerun");
}

#[test]
fn serve_catches_a_tampered_report() {
    tampered_report_is_an_error("serve");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "fresh", "--trace", "2"][..],
        &["--workload", "fresh", "--seconds", "0"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
