//! Self-tests of the benchmark: a short run of every workload passes its
//! correctness gates, and the metrics it prints are exactly the ones
//! `BENCHMARK.json` declares, under well-formed names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

use l15::trace::json::{parse, Value};

const BIN: &str = env!("CARGO_BIN_EXE_l15-perfbench");

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn declared(section: &str) -> Vec<String> {
    let m = manifest();
    let list = m.get(section).and_then(Value::as_arr).expect("section is a list");
    let mut names: Vec<String> = list
        .iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("entries have a name").to_owned())
        .collect();
    names.sort();
    names
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs one short benchmark invocation and returns the printed metric
/// names after checking the result line.
fn run(workload: &str, trace: &str) -> Vec<String> {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("the benchmark prints a result line");
    let result = parse(last).expect("the last line is JSON");
    let keys: Vec<&str> =
        result.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{stdout}");
    assert!(result.get("attempted").and_then(Value::as_i64).is_some_and(|a| a >= 1));
    assert_eq!(result.get("failed").and_then(Value::as_i64), Some(0), "{stdout}");
    let metrics = result.get("metrics").and_then(Value::as_obj).expect("metrics object");
    let mut names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    for (name, m) in metrics {
        assert!(well_formed(name), "malformed metric name {name:?}");
        assert!(m.get("value").is_some() && m.get("unit").and_then(Value::as_str).is_some());
    }
    names.sort();
    names
}

#[test]
fn declared_names_are_well_formed_and_unique() {
    let mut all = declared("end_to_end");
    all.extend(declared("per_layer"));
    assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "a metric name is declared twice");
}

/// One test, so the benchmark runs never share the machine with each
/// other.
#[test]
fn every_workload_passes_its_gates_and_prints_the_declared_metrics() {
    let e2e = declared("end_to_end");
    for workload in ["fullstack", "online"] {
        assert_eq!(run(workload, "0"), e2e, "end-to-end metrics of {workload}");
    }
    assert_eq!(run("online", "1"), declared("per_layer"), "per-layer metrics");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed", "x", "--workload", "online"], &[]] {
        let out = Command::new(BIN).args(args).output().expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
