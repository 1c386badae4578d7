//! Client for the resident sweep daemon (`vtq-bench serve`).
//!
//! ```text
//! vtq-bench submit target/daemon --quick --scenes REF,BUNNY
//! vtq-bench submit target/daemon status            # whole-service summary
//! vtq-bench submit target/daemon status j3         # one job
//! vtq-bench submit target/daemon cancel j3
//! vtq-bench submit target/daemon results j3
//! vtq-bench submit target/daemon shutdown
//! vtq-bench submit --addr 127.0.0.1:7070 --quick   # explicit address
//! ```
//!
//! The service directory is a *positional* argument — not `--out`, which
//! names the daemon's own directory. A plain submit watches the
//! job: per-cell progress streams to stderr, the final per-cell results
//! print to stdout. The client pins the config fingerprint it computes
//! locally onto the submission, so a version-skewed daemon rejects the
//! job instead of burning compute on the wrong simulation;
//! `--verify-local` goes further and re-runs the whole matrix in-process,
//! failing on any divergence from the daemon's records.
//!
//! Exit codes follow the harness contract: 0 done, 1
//! rejected/failed/diverged, 2 usage, 3 cancelled or deadline-expired.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

use vtq::prelude::*;
use vtq_serve::proto::parse_policy;
use vtq_serve::{discover_addr, spec_config, CellRecord, Client, Frame, Request, SubmitSpec};

use crate::{HarnessOpts, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION};

/// Maps the harness config onto the wire spec. The protocol deliberately
/// carries only the `--quick` base plus `--res`/detail overrides; any
/// other config mutation (e.g. `--max-cycles`) cannot be expressed and
/// is a usage error rather than a silently different experiment.
fn wire_spec(opts: &HarnessOpts) -> Result<SubmitSpec, String> {
    let cfg = opts.config;
    let like = |base: ExperimentConfig| {
        ExperimentConfig { resolution: cfg.resolution, detail_divisor: cfg.detail_divisor, ..base }
            == cfg
    };
    let quick = like(ExperimentConfig::quick());
    if !quick && !like(ExperimentConfig::default()) {
        return Err("this configuration cannot be expressed over the daemon protocol \
             (only --quick and --res travel); drop the other config flags or run locally"
            .to_string());
    }
    let mut spec = SubmitSpec {
        quick,
        scenes: opts.scenes.clone(),
        res: Some(cfg.resolution),
        detail: Some(cfg.detail_divisor),
        deadline: opts.deadline_ms.map(Duration::from_millis),
        ..SubmitSpec::default()
    };
    if let Some(tenant) = &opts.tenant {
        spec.tenant = tenant.clone();
    }
    if let Some(list) = &opts.policies {
        spec.policies = list
            .split(',')
            .map(|label| parse_policy(label).ok_or_else(|| format!("unknown policy `{label}`")))
            .collect::<Result<_, _>>()?;
    } else {
        spec.policies = vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()];
    }
    // Provenance pin: the daemon must be simulating exactly the config
    // this client computes, or refuse.
    spec.expect_fingerprint = Some(config_fingerprint(&spec_config(&spec)));
    Ok(spec)
}

/// Resolves the daemon address from `--addr` or the service directory's
/// `serve.addr`, and splits the remaining positionals into the verb.
fn resolve_addr(opts: &HarnessOpts) -> Result<(SocketAddr, &[String]), String> {
    let mut verb: &[String] = &opts.args;
    if let Some(addr) = &opts.addr {
        let addr = addr.parse().map_err(|e| format!("bad --addr `{addr}`: {e}"))?;
        return Ok((addr, verb));
    }
    let Some(dir) = opts.args.first().map(Path::new).filter(|p| p.is_dir()) else {
        return Err("no daemon: pass the service directory (or --addr HOST:PORT)".to_string());
    };
    verb = &opts.args[1..];
    let addr = discover_addr(dir)
        .map_err(|e| format!("cannot discover daemon in {}: {e}", dir.display()))?;
    Ok((addr, verb))
}

/// Prints one daemon frame as a human-readable stderr progress line.
fn narrate(frame: &Frame, quiet: bool) {
    if quiet {
        return;
    }
    match frame {
        Frame::Accepted { job, fingerprint, cells } => {
            eprintln!("[submit] accepted as {job}: {cells} cells, config {fingerprint:#018x}")
        }
        Frame::CellEvent { label, status, cycles, .. } => match status.as_str() {
            "done" | "cached" => eprintln!("[submit] {label}: {status} ({cycles} cycles)"),
            other => eprintln!("[submit] {label}: {other}"),
        },
        _ => {}
    }
}

fn print_records(records: &[CellRecord]) {
    println!(
        "{:<24} {:>14} {:>12} {:>14} {:>14}",
        "cell", "cycles", "rays", "box tests", "tri tests"
    );
    for r in records {
        println!(
            "{:<24} {:>14} {:>12} {:>14} {:>14}",
            r.label, r.cycles, r.rays, r.box_tests, r.tri_tests
        );
    }
}

/// Re-runs the submitted matrix in-process and diffs every record
/// against the daemon's. Divergence means the daemon and this client do
/// not implement the same simulation — exactly what `--verify-local`
/// exists to catch.
fn verify_local(
    opts: &HarnessOpts,
    spec: &SubmitSpec,
    remote: &[CellRecord],
) -> Result<(), String> {
    let engine = SweepEngine::new(opts.jobs);
    let results = engine.run_cells(&spec.plan().matrix, |cell, fingerprint| {
        let report = engine.cache().get(cell.scene, &cell.config).run_policy(cell.policy);
        CellRecord {
            scene: cell.scene.name().to_string(),
            label: cell.label.clone(),
            fingerprint,
            cycles: report.stats.cycles,
            rays: report.stats.rays_completed,
            box_tests: report.stats.box_tests,
            tri_tests: report.stats.tri_tests,
        }
    });
    for result in results {
        let local = result.map_err(|e| format!("local rerun failed: {e}"))?;
        let Some(theirs) = remote.iter().find(|r| r.label == local.label) else {
            return Err(format!("daemon returned no record for `{}`", local.label));
        };
        if *theirs != local {
            return Err(format!(
                "divergence in `{}`: daemon {theirs:?} vs local {local:?}",
                local.label
            ));
        }
    }
    Ok(())
}

fn control(client: &mut Client, request: Request) -> Result<u8, String> {
    match client.request(&request)? {
        Frame::Summary { queued, running, finished, poisoned } => {
            println!(
                "queued {queued}  running {running}  finished {finished}  poisoned cells {poisoned}"
            );
            Ok(EXIT_OK)
        }
        Frame::Status { job, state, done_cells, total_cells, cached_cells, failed_cells } => {
            println!(
                "{job}: {state} ({done_cells}/{total_cells} cells, {cached_cells} cached, \
                 {failed_cells} failed)"
            );
            Ok(EXIT_OK)
        }
        Frame::ShuttingDown => {
            println!("daemon is draining");
            Ok(EXIT_OK)
        }
        Frame::Rejected { reason, detail } => {
            eprintln!("error: rejected ({}): {detail}", reason.label());
            Ok(EXIT_VIOLATION)
        }
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

pub fn run(opts: &HarnessOpts, _engine: &SweepEngine) -> u8 {
    let (addr, verb) = match resolve_addr(opts) {
        Ok(found) => found,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vtq-bench submit <DIR> [status [job] | cancel <job> | results <job> | shutdown]"
            );
            return EXIT_USAGE;
        }
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot reach daemon at {addr}: {e}");
            return EXIT_USAGE;
        }
    };

    // Control verbs are one-frame round trips.
    let outcome = match verb.first().map(String::as_str) {
        Some("status") => control(&mut client, Request::Status { job: verb.get(1).cloned() }),
        Some("cancel") => match verb.get(1) {
            Some(job) => control(&mut client, Request::Cancel { job: job.clone() }),
            None => Err("cancel needs a job id".to_string()),
        },
        Some("results") => match verb.get(1) {
            Some(job) => match client.fetch_results(job) {
                Ok(records) => {
                    print_records(&records);
                    Ok(EXIT_OK)
                }
                Err(e) => Err(e),
            },
            None => Err("results needs a job id".to_string()),
        },
        Some("shutdown") => control(&mut client, Request::Shutdown),
        Some(other) => Err(format!("unknown verb `{other}`")),
        None => submit(opts, &mut client),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            EXIT_VIOLATION
        }
    }
}

fn submit(opts: &HarnessOpts, client: &mut Client) -> Result<u8, String> {
    let spec = match wire_spec(opts) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(EXIT_USAGE);
        }
    };
    let quiet = opts.quiet;
    let terminal = client.submit_and_watch(spec.clone(), |frame| narrate(frame, quiet))?;
    match terminal {
        Frame::Rejected { reason, detail } => {
            eprintln!("error: rejected ({}): {detail}", reason.label());
            Ok(EXIT_VIOLATION)
        }
        Frame::Status { job, state, done_cells, total_cells, cached_cells, failed_cells } => {
            if !quiet {
                eprintln!(
                    "[submit] {job}: {state} ({done_cells}/{total_cells} cells, \
                     {cached_cells} cached, {failed_cells} failed)"
                );
            }
            match state.as_str() {
                "cancelled" | "expired" => {
                    eprintln!("error: job {job} {state} before completing");
                    return Ok(EXIT_INTERRUPTED);
                }
                "done" if failed_cells == 0 => {}
                _ => {
                    eprintln!("error: job {job} finished with {failed_cells} failed cells");
                    return Ok(EXIT_VIOLATION);
                }
            }
            let records = client.fetch_results(&job)?;
            if opts.verify_local {
                verify_local(opts, &spec, &records)?;
                if !quiet {
                    eprintln!("[submit] --verify-local: all {} records match", records.len());
                }
            }
            print_records(&records);
            Ok(EXIT_OK)
        }
        other => Err(format!("unexpected terminal frame: {other:?}")),
    }
}
