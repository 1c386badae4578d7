//! The treelet-rt system benchmark: five workloads driven through the
//! crates' public functions, each call timed from outside, outputs
//! checked, every metric printed by name with its unit. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One process measures one workload (so peak RSS is per workload);
//! without `--workload` the benchmark runs itself once per workload.

mod harness;
mod host;
mod metrics;
mod micro;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use gpusim::{TraversalPolicy, VtqParams};

use harness::{Check, Ctx, Outcome};
use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::median;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] | --manifest";

/// Where traces and scratch files go, relative to the checkout root the
/// command is run from.
const OUT_DIR: &str = "benchmark/out";

/// The two calibrations of a run may differ by this share before the run
/// is marked noisy.
const CALIB_DRIFT_LIMIT: f64 = 0.10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    manifest: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        manifest: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => {
                parsed.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {seconds}"));
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                // `--trace 0|1` for the driver; a bare `--trace` means 1.
                parsed.trace = match it.next_if(|v| !v.starts_with("--")).map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--smoke" => parsed.smoke = true,
            "--manifest" => parsed.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_every_workload(&argv),
    }
}

/// Re-runs this executable once per workload, one after the other, and
/// passes their output through.
fn run_every_workload(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name])
            .args(argv)
            .status()
            .expect("the benchmark can run itself");
        all_ok &= status.success();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    vtq::sweep::set_quiet(true);
    let scratch = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        jobs: host::jobs(),
        scratch: scratch.clone(),
        tracer: trace::Tracer::new(args.trace),
    };
    let mut check = Check::default();

    let calib_before_ms = host::calib_spin_ms();
    let outcome = match name {
        "sim-baseline" => workloads::sim::run(&ctx, &mut check, TraversalPolicy::Baseline),
        "sim-vtq" => {
            workloads::sim::run(&ctx, &mut check, TraversalPolicy::Vtq(VtqParams::default()))
        }
        "prepare-all" => workloads::prepare::run(&ctx, &mut check),
        "sweep-quick" => workloads::sweep::run(&ctx, &mut check),
        "serve-roundtrip" => workloads::serve::run(&ctx, &mut check),
        other => unreachable!("parse_args admitted unknown workload `{other}`"),
    };
    let calib_ms = (calib_before_ms, host::calib_spin_ms());
    let _ = std::fs::remove_dir_all(&scratch);

    let Outcome { setup_s, passes, pass_cpu_s, layer: mut values } = outcome;
    if setup_s.is_empty() || passes.is_empty() {
        eprintln!("error: {name} measured nothing: {:?}", check.messages);
        return ExitCode::FAILURE;
    }
    let drift = (calib_ms.1 - calib_ms.0).abs() / calib_ms.0.min(calib_ms.1);
    let noisy = drift > CALIB_DRIFT_LIMIT;
    let pass_wall: f64 = passes.iter().flatten().sum();
    values.set("pass_wall_s", harness::pass_wall_s(&passes));
    values.set("pass_wall_median_s", harness::pass_wall_median_s(&passes));
    values.set("setup_s", median(&setup_s));
    values.set("host.peak_rss_mb", host::peak_rss_mb());
    values.set("fail_ratio", check.failed as f64 / check.attempted.max(1) as f64);
    values.set("passes", passes.len() as f64);
    values.set("host.calib_spin_ms", calib_before_ms);
    values.set("host.calib_drift_ratio", drift);
    values.set("host.noisy", noisy as u8 as f64);
    values.set("host.nproc", host::nproc() as f64);
    values.set("host.jobs", ctx.jobs as f64);
    values.set("host.cpu_s_per_pass", pass_cpu_s / passes.len() as f64);
    values.set("host.cpu_utilization", pass_cpu_s / pass_wall);
    values.set("host.setup_reps", setup_s.len() as f64);

    if ctx.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{name}.jsonl"));
        if let Err(e) = trace::write_jsonl(&path, &ctx.tracer.spans()) {
            check.op(false, || format!("cannot write {}: {e}", path.display()));
        }
    }

    let defs = if ctx.trace { PER_LAYER } else { END_TO_END };
    print_human(name, defs, &values, &check);
    println!("{}", provenance_json(name, args, &ctx, &passes, &setup_s, calib_ms, noisy));
    println!("{}", metrics::result_json(defs, &values, check.attempted.max(1), check.failed));
    if check.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The table a person reads, on standard error.
fn print_human(name: &str, defs: &[metrics::MetricDef], values: &Values, check: &Check) {
    eprintln!("== {name} ==");
    for def in defs {
        let value = values.get(def.name);
        if value != 0.0 {
            eprintln!("  {:<42} {:>16.6} {}", def.name, value, def.unit);
        }
    }
    if values.get("gpusim.vtq_speedup_geomean") != 0.0 {
        eprintln!(
            "  (vtq speedup: paper 1.95x / repo full-suite 1.64x, EXPERIMENTS.md; a subset or \
             quick-config geomean is not an error figure)"
        );
    }
    eprintln!("  checked {} operations, {} failed", check.attempted, check.failed);
    for message in &check.messages {
        eprintln!("  FAILED: {message}");
    }
}

/// Where the numbers of this run came from.
fn provenance_json(
    name: &str,
    args: &Args,
    ctx: &Ctx,
    passes: &[Vec<f64>],
    setup_s: &[f64],
    calib_ms: (f64, f64),
    noisy: bool,
) -> String {
    let quote = vtq::jsonl::json_quote;
    format!(
        "{{\"record\": \"provenance\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"smoke\": {}, \"pass_s\": {:?}, \"setup_s\": {:?}, \"jobs\": {}, \
         \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"calib_before_ms\": {}, \
         \"calib_after_ms\": {}, \"noisy\": {noisy}, \"simulated_caches\": \"start empty on every \
         cell\", \"model_validation\": \"hits bit-equal to the functional oracle; paper \
         comparison in EXPERIMENTS.md\", \"claim\": null}}",
        quote(name),
        args.seed,
        args.seconds,
        ctx.trace,
        ctx.smoke,
        passes,
        setup_s,
        ctx.jobs,
        host::nproc(),
        quote(&host::cpu_model()),
        quote(&host::rustc_version()),
        quote(&host::git_commit()),
        calib_ms.0,
        calib_ms.1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_style_arguments_parse() {
        let a = args(&["--workload", "sim-vtq", "--seed", "9", "--seconds", "3", "--trace", "1"])
            .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim-vtq"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--smoke"]).unwrap().smoke);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "61"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
