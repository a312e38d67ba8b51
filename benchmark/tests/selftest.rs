//! Self-test of the benchmark at tiny sizes: every metric declared in
//! `BENCHMARK.json` is printed with its unit, count metrics repeat
//! exactly, the traced layer rows sum to the traced pass, and a
//! deliberately corrupted result is caught.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use perf_ledger::report::ROWS;
use std::process::Command;

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.contains(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section && line.contains("\"unit\"") {
            out.push((field(line, "name"), field(line, "unit")));
        }
    }
    assert!(!out.is_empty(), "no {section} metrics declared");
    out
}

/// The string value of `"key": "..."` in `s`.
fn field(s: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    let start = s.find(&pat).unwrap_or_else(|| panic!("no {key} in {s}")) + pat.len();
    s[start..]
        .split('"')
        .next()
        .expect("closing quote")
        .to_string()
}

/// One parsed result line.
struct Result {
    code: i32,
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Result {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} not printed"))
            .1
    }
}

fn run(workload: &str, trace: bool, corrupt: bool) -> Result {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perf-ledger"));
    cmd.args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let num = |key: &str| -> &str {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat).expect("key in result") + pat.len();
        line[start..].split([',', '}']).next().expect("value")
    };
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    for entry in body.split("}, ") {
        let name = entry
            .trim_start_matches(['{', ' '])
            .split('"')
            .nth(1)
            .expect("name");
        let value = entry.split("\"value\": ").nth(1).expect("value");
        let value: f64 = value
            .split(',')
            .next()
            .expect("number")
            .parse()
            .expect("a number");
        metrics.push((name.to_string(), value, field(entry, "unit")));
    }
    Result {
        code: out.status.code().expect("exit code"),
        correct: num("correct") == "true",
        failed: num("failed").parse().expect("failed count"),
        metrics,
    }
}

const WORKLOADS: [&str; 3] = ["compile", "run-compute", "run-sync"];

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(section);
        for w in WORKLOADS {
            let r = run(w, trace, false);
            assert_eq!(r.code, 0, "{w}: exit code");
            assert!(r.correct && r.failed == 0, "{w}: checks failed");
            let got: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.0.clone(), m.2.clone()))
                .collect();
            assert_eq!(
                got, want,
                "{w} trace {trace}: printed metrics differ from BENCHMARK.json"
            );
            assert!(
                r.metrics.iter().all(|m| m.1.is_finite()),
                "{w}: non-finite value"
            );
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in WORKLOADS {
        let r = run(w, false, false);
        for (name, value, _) in &r.metrics {
            assert!(*value > 0.0, "{w}: {name} reads {value}");
        }
    }
}

#[test]
fn count_metrics_repeat_exactly() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let counts = |r: &Result| -> Vec<(String, f64)> {
                r.metrics
                    .iter()
                    .filter(|m| m.2 == "count")
                    .map(|m| (m.0.clone(), m.1))
                    .collect()
            };
            let a = counts(&run(w, trace, false));
            let b = counts(&run(w, trace, false));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{w} trace {trace}: counts differ between two runs");
        }
    }
}

#[test]
fn layer_rows_sum_to_the_traced_pass() {
    for w in WORKLOADS {
        let r = run(w, true, false);
        let sum: f64 = ROWS.iter().map(|n| r.get(n)).sum();
        let total = r.get("bench.traced_pass_us");
        assert!(
            (sum - total).abs() <= 1e-6 * total,
            "{w}: rows sum to {sum} us, traced pass is {total} us"
        );
    }
}

#[test]
fn a_corrupted_result_is_caught() {
    let r = run("run-sync", true, true);
    assert_eq!(r.code, 1, "a failed check must fail the run");
    assert!(!r.correct && r.failed > 0);
    assert!(r.get("fail_frac") > 0.0);
    let r = run("run-sync", false, true);
    assert!(!r.correct && r.failed > 0);
}
