//! Runs the built benchmark in `--smoke` mode (tiny inputs, two passes,
//! every correctness check on) for every workload and both trace modes,
//! and holds its output to the contract in `../BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 5] =
    ["sim-baseline", "sim-vtq", "prepare-all", "sweep-quick", "serve-roundtrip"];

/// The names listed under `"section": [ ... ]` of the manifest, in order.
fn manifest_names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text.find(&format!("\"{section}\": [")).expect("section is in the manifest");
    let body = &text[start..start + text[start..].find("\n  ]").expect("section ends")];
    body.split("{\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

/// The metric names of a result line, in order.
fn result_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("result has metrics") + 12..];
    metrics
        .split("\": {\"value\": ")
        .filter_map(|s| s.rsplit('"').next())
        .filter(|s| !s.is_empty() && !s.contains('}'))
        .map(str::to_string)
        .collect()
}

fn run_smoke(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        // The benchmark writes under `benchmark/out` of the directory it
        // is run from: the repository root, as the driver does.
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .args(["--workload", workload, "--seed", "7", "--trace", trace, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn manifest_lists_the_workloads_the_benchmark_runs() {
    assert_eq!(manifest_names("workloads"), WORKLOADS);
}

#[test]
fn every_workload_passes_its_checks_and_prints_exactly_the_declared_metrics() {
    let end_to_end = manifest_names("end_to_end");
    let per_layer = manifest_names("per_layer");
    for workload in WORKLOADS {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run_smoke(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ")
                    && line.contains("\"failed\": 0, "),
                "{workload} --trace {trace}: {line}"
            );
            assert_eq!(&result_names(&line), expected, "{workload} --trace {trace}");
            if trace == "0" {
                assert!(
                    !line.contains("\"value\": 0,"),
                    "{workload}: an end-to-end metric read 0: {line}"
                );
            } else {
                let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join(format!("out/trace-{workload}.jsonl"));
                let spans = std::fs::read_to_string(&trace_file).expect("the trace was written");
                assert!(spans.lines().count() >= 4, "{workload}: trace has too few spans");
                assert!(spans.lines().all(|l| l.starts_with("{\"name\":\"") && l.ends_with('}')));
            }
        }
    }
}

#[test]
fn unknown_arguments_exit_with_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a refused run must not print a result");
}
