//! Runs the complete evaluation — every table and figure — sharing
//! prepared scenes and simulation runs across figures, and prints a
//! markdown report (the source of EXPERIMENTS.md's measured columns).
//!
//! Full configuration: `vtq-bench all`
//! Smoke run:          `vtq-bench all --quick`
//!
//! Every cell any figure of [`FIGURES`] needs goes, once, into one wave,
//! so the sweep pool keeps every `--jobs` worker busy across scene
//! boundaries; the analytical Figure 5 model and the scene statistics run
//! as a second wave against the now-hot prepared cache. The report prints
//! after everything finishes, in matrix order, so output is identical for
//! every `--jobs N`.

use vtq::experiment::{aggregate_stats, fig05, run_figures, FIGURES};
use vtq::prelude::SweepEngine;

use crate::{pct_or_na, report_cell_errors, table_markdown, HarnessOpts};

const FIG5_BATCHES: [usize; 6] = [32, 128, 512, 1024, 2048, 4096];

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let run = run_figures(engine, &FIGURES, opts.given_scenes(), &opts.config);
    let mut failed = report_cell_errors(run.cells());

    // Second wave: scene statistics + the analytical model.
    let analytic = engine.run_scenes(&opts.scenes, &opts.config, |p| {
        (p.id, p.scene.triangles().len(), p.bvh.total_bytes(), fig05(p, &FIG5_BATCHES).speedups)
    });
    failed |= report_cell_errors(&analytic);
    let analytic: Vec<_> = analytic.into_iter().flatten().collect();

    // Artifacts persist in scene order after all runs complete, so
    // metrics.jsonl line order never depends on worker scheduling.
    for scene in run.scenes() {
        for (preset, name) in [("baseline", "base"), ("prefetch", "prefetch"), ("vtq", "vtq")] {
            if let Some(report) = run.report(scene, preset) {
                opts.persist(&format!("{}/{name}", scene.name()), report);
            }
        }
    }

    println!("# Measured results (all figures)\n");

    println!("## Table 2 — scenes\n");
    println!("| scene | tris | BVH KB | paper tris | paper BVH MB |");
    println!("|---|---|---|---|---|");
    for (id, tris, bvh_bytes, _) in &analytic {
        println!(
            "| {} | {} | {:.0} | {} | {:.2} |",
            id,
            tris,
            *bvh_bytes as f64 / 1024.0,
            id.paper_triangles(),
            id.paper_bvh_mb()
        );
    }

    println!("\n## Figure 5 — analytical speedup vs concurrent rays\n");
    print!("| scene |");
    for b in FIG5_BATCHES {
        print!(" c={b} |");
    }
    println!();
    print!("|---|");
    for _ in FIG5_BATCHES {
        print!("---|");
    }
    println!();
    for (id, _, _, fig5) in &analytic {
        print!("| {id} |");
        for (_, s) in fig5 {
            print!(" {s:.2}x |");
        }
        println!();
    }

    for figure in &FIGURES {
        print!("\n{}", table_markdown(&run.table(figure)));
    }

    println!("\n## RT-unit stall attribution (VTQ, aggregated over scenes)\n");
    let agg = aggregate_stats(run.scenes().iter().filter_map(|s| run.report(*s, "vtq")));
    let total: u64 = agg.stall.iter().map(|u| u.total()).sum();
    println!("| category | share |");
    println!("|---|---|");
    for kind in gpusim::StallKind::ALL {
        let cycles: u64 = agg.stall.iter().map(|u| u.get(kind)).sum();
        let share = if total > 0 { Some(cycles as f64 / total as f64) } else { None };
        println!("| {} | {} |", kind.label(), pct_or_na(share));
    }

    eprintln!(
        "done. (prepared {}; {} cells simulated)",
        engine.cache().misses(),
        run.cells().len()
    );
    if failed {
        crate::EXIT_VIOLATION
    } else {
        crate::EXIT_OK
    }
}
