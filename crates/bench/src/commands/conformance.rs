//! Differential conformance harness: simulator-vs-oracle hit equivalence
//! for every scene × policy cell, plus golden-figure regression against
//! the checked-in `golden/*.json` snapshots.
//!
//! ```text
//! vtq-bench conformance --quick --jobs 2
//! vtq-bench conformance --quick --update-golden
//! ```
//!
//! The functional oracle re-executes the exact workload with the CPU
//! reference traversal; every policy the paper sweeps must reproduce its
//! `(prim, t)` answers bit for bit (hit-vs-miss for anyhit queries). Any
//! divergent ray is dumped with forensics and the process exits nonzero,
//! as does any golden statistic outside its tolerance band. With
//! `--update-golden` the snapshots are rewritten from the current run
//! instead (review the diff like any other code change).

use std::path::Path;

use vtq::conformance::{
    check_golden, current_goldens, run_differential, write_golden, CellVerdict, GoldenOutcome,
};
use vtq::prelude::*;

use crate::{header, row, HarnessOpts};

/// Where the snapshots live, relative to the invocation directory (the
/// repository root in CI and the documented workflows).
const GOLDEN_DIR: &str = "golden";

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let mut failed = false;
    let mut corrupt = false;

    // Phase 1: differential hit equivalence.
    eprintln!(
        "[conformance] differential: {} scenes x {} policies ({} jobs)",
        opts.scenes.len(),
        vtq::experiment::presets().len(),
        engine.jobs()
    );
    let report = run_differential(engine, &opts.scenes, &opts.config);
    header(&["scene", "policy", "calls", "hits", "status"]);
    for cell in &report.cells {
        let (calls, hits, status) = match &cell.verdict {
            CellVerdict::Agree(eq) => {
                (eq.calls_checked.to_string(), eq.hits.to_string(), "ok".to_string())
            }
            CellVerdict::Diverged(_) => ("-".to_string(), "-".to_string(), "DIVERGED".to_string()),
            CellVerdict::Error(_) => ("-".to_string(), "-".to_string(), "ERROR".to_string()),
        };
        row(cell.scene.name(), &[cell.policy.to_string(), calls, hits, status]);
    }
    if report.is_clean() {
        println!(
            "\nhit equivalence: {} cells agree on {} trace calls (zero divergent rays)",
            report.cells.len(),
            report.calls_checked()
        );
    } else {
        failed = true;
        for cell in report.failures() {
            match &cell.verdict {
                CellVerdict::Diverged(d) => eprintln!("[conformance] {d}"),
                CellVerdict::Error(e) => eprintln!(
                    "[conformance] {}/{} failed to run: {e}",
                    cell.scene.name(),
                    cell.policy
                ),
                CellVerdict::Agree(_) => unreachable!("failures() filters agreements"),
            }
        }
    }

    // Phase 2: golden-figure regression.
    let dir = Path::new(GOLDEN_DIR);
    let goldens = current_goldens(engine, opts.given_scenes(), &opts.config);
    if opts.update_golden {
        match write_golden(dir, &goldens) {
            Ok(()) => {
                for g in &goldens {
                    println!(
                        "golden updated: {}/{}.json ({} entries)",
                        GOLDEN_DIR,
                        g.figure,
                        g.entries.len()
                    );
                }
            }
            Err(e) => {
                eprintln!("[conformance] failed to write golden snapshots: {e}");
                failed = true;
            }
        }
    } else {
        for g in &goldens {
            match check_golden(dir, g) {
                GoldenOutcome::Match { checked, skipped } => {
                    println!(
                        "golden {}: ok ({checked} entries within tolerance{})",
                        g.figure,
                        if skipped > 0 {
                            format!(", {skipped} skipped for scene subset")
                        } else {
                            String::new()
                        }
                    );
                }
                GoldenOutcome::Mismatch(violations) => {
                    failed = true;
                    eprintln!("[conformance] golden {}: {} violations", g.figure, violations.len());
                    for v in &violations {
                        eprintln!("[conformance]   {v}");
                    }
                }
                GoldenOutcome::MissingFile => {
                    println!(
                        "golden {}: no snapshot at {}/{}.json (run with --update-golden)",
                        g.figure, GOLDEN_DIR, g.figure
                    );
                }
                GoldenOutcome::ConfigMismatch { golden, current } => {
                    println!(
                        "golden {}: snapshot is for a different config \
                         ({golden:#018x} vs {current:#018x}), skipped",
                        g.figure
                    );
                    // The committed snapshots are taken under `--quick`:
                    // there a mismatch means a config field changed and
                    // the goldens no longer bind anything.
                    if opts.config == ExperimentConfig::quick() {
                        failed = true;
                        eprintln!(
                            "[conformance] golden {}: not taken under this build's --quick \
                             config; re-run with --update-golden",
                            g.figure
                        );
                    }
                }
                GoldenOutcome::Corrupt(forensics) => {
                    // A baseline whose checksum frames fail is damaged
                    // on disk, not a figure regression: exit 2 so
                    // automation distinguishes "restore the snapshot"
                    // from "the simulator regressed".
                    corrupt = true;
                    eprintln!("[conformance] golden {}: CORRUPT SNAPSHOT", g.figure);
                    eprintln!("[conformance]   {forensics}");
                }
            }
        }
    }

    if corrupt {
        return crate::EXIT_USAGE;
    }
    if failed {
        return crate::EXIT_VIOLATION;
    }
    crate::EXIT_OK
}
