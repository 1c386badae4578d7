//! Subcommand registry of the unified `vtq-bench` CLI.
//!
//! One subcommand per paper table/figure plus the extension experiments;
//! `vtq-bench all` regenerates everything with shared runs. Every
//! subcommand takes the common flag set (see [`crate::USAGE_OPTIONS`])
//! and submits its simulations through the process-wide
//! [`vtq::sweep::SweepEngine`], so scenes are prepared once and cells run
//! in parallel under `--jobs N` with deterministic output.

use vtq::experiment::{self, run_figures, Figure, FIGURES};
use vtq::prelude::SweepEngine;

use crate::HarnessOpts;

mod all;
mod area;
mod chaos;
mod conformance;
mod faults;
mod fig05;
mod fig11;
mod repro;
mod scaling;
mod serve;
mod submit;
mod table1;
mod table2;
mod trace;

/// One CLI subcommand.
pub struct Command {
    /// Subcommand name (`vtq-bench <name>`).
    pub name: &'static str,
    /// One-line description for `vtq-bench help`.
    pub about: &'static str,
    /// Entry point; returns the process exit code (see the exit-code
    /// contract in [`crate`]'s docs). `main` is the only exit point.
    pub run: fn(&HarnessOpts, &SweepEngine) -> u8,
}

/// Every subcommand, in `vtq-bench help` order.
pub const ALL: &[Command] = &[
    Command {
        name: "all",
        about: "every table and figure, shared runs, markdown report",
        run: all::run,
    },
    Command { name: "table1", about: "Table 1: the simulated GPU configuration", run: table1::run },
    Command {
        name: "table2",
        about: "Table 2: evaluation scenes, ours vs the paper's",
        run: table2::run,
    },
    Command {
        name: "fig01",
        about: "Figure 1: baseline L1 BVH miss rate + SIMT efficiency",
        run: |o, e| run_figure("fig01", o, e),
    },
    Command {
        name: "fig05",
        about: "Figure 5: analytical speedup vs concurrent rays",
        run: fig05::run,
    },
    Command {
        name: "fig10",
        about: "Figure 10: headline speedups vs baseline and prefetching",
        run: |o, e| run_figure("fig10", o, e),
    },
    Command { name: "fig11", about: "Figure 11: L1 miss rate over time (LANDS)", run: fig11::run },
    Command {
        name: "fig12",
        about: "Figure 12: grouping underpopulated treelet queues",
        run: |o, e| run_figure("fig12", o, e),
    },
    Command {
        name: "fig13",
        about: "Figure 13: warp repacking sweep",
        run: |o, e| run_figure("fig13", o, e),
    },
    Command {
        name: "fig14",
        about: "Figure 14: cycle breakdown by traversal mode",
        run: |o, e| run_figure("fig14", o, e),
    },
    Command {
        name: "fig15",
        about: "Figure 15: intersection tests by traversal mode",
        run: |o, e| run_figure("fig15", o, e),
    },
    Command {
        name: "fig16",
        about: "Figure 16: ray virtualization overhead",
        run: |o, e| run_figure("fig16", o, e),
    },
    Command {
        name: "fig17",
        about: "Figure 17: energy vs baseline",
        run: |o, e| run_figure("fig17", o, e),
    },
    Command {
        name: "figpolicies",
        about: "ray-path prediction + quantized nodes vs baseline",
        run: |o, e| run_figure("figpolicies", o, e),
    },
    Command { name: "area", about: "§6.5 storage overheads", run: area::run },
    Command {
        name: "trace",
        about: "VTQ runs with the observability trace attached",
        run: trace::run,
    },
    Command {
        name: "ablations",
        about: "treelet size, warp buffer, mechanism on/off ablations",
        run: |o, e| run_figure("ablations", o, e),
    },
    Command {
        name: "reorder",
        about: "§7.2.1 ray sorting vs dynamic treelet grouping",
        run: |o, e| run_figure("reorder", o, e),
    },
    Command {
        name: "nee",
        about: "anyhit shadow-ray (NEE) workloads",
        run: |o, e| run_figure("nee", o, e),
    },
    Command {
        name: "compression",
        about: "§7.3 quantized nodes composed with VTQ",
        run: |o, e| run_figure("compression", o, e),
    },
    Command {
        name: "faults",
        about: "seeded fault-injection campaign over the integrity layer",
        run: faults::run,
    },
    Command {
        name: "chaos",
        about: "disk-fault chaos campaign: inject, corrupt, recover, verify",
        run: chaos::run,
    },
    Command {
        name: "conformance",
        about: "differential oracle equivalence + golden-figure regression",
        run: conformance::run,
    },
    Command {
        name: "repro",
        about: "replay a shrunk failure reproducer (repro-*.jsonl)",
        run: repro::run,
    },
    Command { name: "scaling", about: "scale-model methodology validation", run: scaling::run },
    Command {
        name: "sensitivity",
        about: "§6.4 SPP / bounce-count sensitivity",
        run: |o, e| run_figure("sensitivity", o, e),
    },
    Command {
        name: "serve",
        about: "resident sweep daemon: deadlines, quotas, crash recovery",
        run: serve::run,
    },
    Command {
        name: "submit",
        about: "submit a sweep to a running daemon and stream progress",
        run: submit::run,
    },
];

/// The scene × preset tables (`fig01`, `fig10`, `fig12` … `fig17`,
/// `figpolicies`, `nee`, `reorder`, `sensitivity`, `compression`,
/// `ablations`): runs the [`FIGURES`] entry named `name` — or, for a
/// family, its `name-*` entries as titled sections — over `--scenes`
/// (default: each figure's own) and prints the tables. A scene with a
/// failed cell is dropped from its tables, named on stderr, and fails the
/// run.
fn run_figure(name: &str, opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let figures: Vec<&Figure> = match experiment::figure(name) {
        Some(figure) => vec![figure],
        None => FIGURES.iter().filter(|f| f.name.starts_with(&format!("{name}-"))).collect(),
    };
    assert!(!figures.is_empty(), "figure subcommands are FIGURES entries");
    let run = run_figures(engine, figures.iter().copied(), opts.given_scenes(), &opts.config);
    let failed = crate::report_cell_errors(run.cells());
    for figure in &figures {
        if figures.len() > 1 {
            println!("\n-- {} --", figure.title);
        }
        print!("{}", crate::table_text(&run.table(figure), crate::csv()));
    }
    if failed {
        crate::EXIT_VIOLATION
    } else {
        crate::EXIT_OK
    }
}

/// Looks a subcommand up by (case-insensitive) name.
pub fn find(name: &str) -> Option<&'static Command> {
    ALL.iter().find(|c| c.name.eq_ignore_ascii_case(name))
}
