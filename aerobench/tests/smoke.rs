//! Runs every workload at `--smoke` scale, untraced and traced, and checks
//! the benchmark's contract: every metric `BENCHMARK.json` names is
//! emitted with its unit, the workload's correctness checks pass, and every
//! trace span is a root or nests inside its parent with non-negative self
//! time.
//!
//! Run with `cargo test --release --manifest-path aerobench/Cargo.toml`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::path::{Path, PathBuf};
use std::process::Command;

use json::Value;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("metric name");
            let unit = m.get("unit").and_then(Value::as_str).expect("metric unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// Runs one workload and returns its final JSON line.
fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_aerobench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--smoke",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("spawn aerobench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last)
        .unwrap_or_else(|e| panic!("{workload}: result line is not JSON ({e}): {last}"))
}

fn check_result(workload: &str, result: &Value, expected: &[(String, String)]) {
    let keys: Vec<&String> = result.as_obj().expect("result object").keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{workload}: correctness checks"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{workload}: attempted"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}: failed operations"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object");
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

/// Every span is a root or lies inside its (earlier) parent, and its
/// children's durations never exceed its own (self time >= 0).
fn check_trace(workload: &str) {
    let path = root()
        .join("aerobench")
        .join("out")
        .join(format!("trace-{workload}.json"));
    let doc =
        json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("trace parses");
    let spans = doc.get("spans").map(Value::as_arr).unwrap_or_default();
    assert!(!spans.is_empty(), "{workload}: no spans recorded");
    let field = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).expect("span field");
    let mut children = vec![0.0f64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        let (start, end, parent) = (field(s, "start_us"), field(s, "end_us"), field(s, "parent"));
        assert!(end >= start, "{workload}: span {i} ends before it starts");
        if parent >= 0.0 {
            let p = parent as usize;
            assert!(p < i, "{workload}: span {i} names a later parent {p}");
            let ps = &spans[p];
            assert!(
                field(ps, "start_us") <= start && end <= field(ps, "end_us"),
                "{workload}: span {i} escapes its parent {p}"
            );
            children[p] += end - start;
        } else {
            assert_eq!(parent, -1.0, "{workload}: span {i} has a malformed parent");
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let own = field(s, "end_us") - field(s, "start_us");
        assert!(
            children[i] <= own + 1e-3,
            "{workload}: span {i} has negative self time"
        );
    }
}

fn workload(name: &str) {
    let doc = benchmark();
    check_result(name, &run(name, false), &section(&doc, "end_to_end"));
    check_result(name, &run(name, true), &section(&doc, "per_layer"));
    check_trace(name);
}

#[test]
fn offline_detect() {
    workload("offline_detect");
}

#[test]
fn stream_steady() {
    workload("stream_steady");
}

#[test]
fn fleet_burst() {
    workload("fleet_burst");
}

#[test]
fn serve_wire() {
    workload("serve_wire");
}

#[test]
fn benchmark_json_keeps_its_contract() {
    let doc = benchmark();
    let keys: Vec<&String> = doc.as_obj().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = Vec::new();
    for w in doc.get("workloads").map(Value::as_arr).unwrap_or_default() {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let why = w.get("why").and_then(Value::as_str).expect("workload why");
        assert!(
            name_ok(name) && !why.contains('\n') && why.len() <= 200,
            "workload {name}"
        );
        names.push(name.to_string());
    }
    assert!((2..=8).contains(&names.len()));
    let e2e = doc.get("end_to_end").map(Value::as_arr).unwrap_or_default();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(matches!(
            m.get("better").and_then(Value::as_str),
            Some("lower" | "higher")
        ));
    }
    assert!(e2e.iter().any(|m| {
        m.get("name").and_then(Value::as_str) == Some("setup_s")
            && m.get("unit").and_then(Value::as_str) == Some("s")
            && m.get("better").and_then(Value::as_str) == Some("lower")
    }));
    let layers = doc.get("per_layer").map(Value::as_arr).unwrap_or_default();
    assert!((1..=128).contains(&layers.len()));
    for (name, unit) in section(&doc, "end_to_end")
        .into_iter()
        .chain(section(&doc, "per_layer"))
    {
        assert!(name_ok(&name) && unit_ok(&unit), "metric {name} [{unit}]");
        names.push(name);
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("run_seconds");
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
}
