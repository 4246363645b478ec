//! Tiny-scale runs of the benchmark binary: every metric `BENCHMARK.json`
//! names is emitted with its unit, and exact counters repeat bit for bit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build works, but interprets the workloads far more slowly).

use std::process::Command;

const WORKLOADS: [&str; 3] = ["splash-record", "server-record", "hybrid-loop"];

struct Output {
    result: String,
    stderr: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--tiny", "--seconds", "0.2"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    let result = stdout.lines().last().expect("a result line").to_string();
    assert!(
        result.starts_with("{\"correct\": true, ") && result.contains("\"failed\": 0, "),
        "{workload} trace {trace}: {result}\n{stderr}"
    );
    Output { result, stderr }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} is empty");
        for workload in WORKLOADS {
            let out = run(workload, 1, trace);
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = out
                    .result
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing: {}", out.result));
                let rest = &out.result[at + key.len()..];
                let (value, rest) = rest.split_once(", ").expect("value then unit");
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("{workload}: {name} = {value:?}"));
                assert!(
                    rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
                    "{workload}: {name} has the wrong unit: {rest}"
                );
            }
            assert_eq!(
                out.result.matches("\"value\"").count(),
                metrics.len(),
                "{workload}: undeclared metrics in {}",
                out.result
            );
        }
    }
}

fn fingerprint(out: &Output) -> String {
    out.stderr
        .lines()
        .find(|l| l.starts_with("fingerprint "))
        .expect("a fingerprint line")
        .to_string()
}

#[test]
fn exact_counters_repeat_across_runs() {
    for workload in WORKLOADS {
        let a = fingerprint(&run(workload, 7, 0));
        let b = fingerprint(&run(workload, 7, 1));
        assert_eq!(a, b, "{workload}");
        for key in [
            "rec_cycles",
            "events",
            "chunks",
            "log_bytes",
            "rec_instrs",
            "demoted_pairs",
        ] {
            assert!(
                a.contains(&format!("\"{key}\": ")),
                "{workload}: no {key} in {a}"
            );
        }
        let other = fingerprint(&run(workload, 8, 0));
        assert_ne!(a, other, "{workload}: the seed does not reach the inputs");
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nonesuch"][..],
        &["--workload", "hybrid-loop", "--trace", "2"],
        &["--workload", "hybrid-loop", "--seconds", "0"],
        &["--workload", "hybrid-loop", "--bogus", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
