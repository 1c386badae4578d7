//! Observability harness: runs the VTQ configuration on each selected
//! scene with a trace sink attached and persists the machine-readable
//! artifacts — a JSON-Lines event trace, the per-window time-series CSV,
//! the per-RT-unit stall CSV and an appended `metrics.jsonl` line — then
//! prints the human-readable run summary.
//!
//! ```text
//! vtq-bench trace --quick --scenes kitchen
//! vtq-bench trace --out target/trace
//! ```
//!
//! Without `--out`, artifacts land in `target/trace/`. The event ring
//! keeps the most recent 1 Mi events so traces stay bounded on
//! full-detail runs; `dropped` in the summary says how many older events
//! were evicted. Scenes simulate in parallel on the sweep pool; artifacts
//! are written and summaries printed in scene order after all runs
//! finish, so output is identical for every `--jobs N`.

use std::fs;

use vtq::experiment::{aggregate_stats, export_run};
use vtq::prelude::*;

use crate::{ok_rows, HarnessOpts};

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let dir = opts.out.clone().unwrap_or_else(|| "target/trace".into());
    let ring_capacity = 1 << 20;
    let runs = ok_rows(engine.run_scenes(&opts.scenes, &opts.config, |p| {
        let mut sink = RingSink::new(ring_capacity);
        let report = p
            .simulator(TraversalPolicy::Vtq(VtqParams::default()))
            .try_run_traced(&p.workload, &mut sink)
            .unwrap_or_else(|e| panic!("{e}"));
        (p.id, report, sink.to_jsonl(), sink.len(), sink.dropped())
    }));

    let mut reports: Vec<SimReport> = Vec::new();
    for (id, report, trace_jsonl, events, dropped) in runs {
        let scene = id.name();
        let label = format!("{scene}/vtq");
        if let Err(e) = export_run(&dir, &label, &report) {
            eprintln!("error: cannot write artifacts to {}: {e}", dir.display());
            return crate::EXIT_VIOLATION;
        }
        let trace_path = dir.join(format!("{scene}-vtq.trace.jsonl"));
        if let Err(e) = fs::write(&trace_path, trace_jsonl) {
            eprintln!("error: cannot write {}: {e}", trace_path.display());
            return crate::EXIT_VIOLATION;
        }

        println!("== {scene} (vtq) ==");
        println!("{}", report.stats.report());
        println!("trace: {events} events ({dropped} dropped) -> {}", trace_path.display());
        println!();
        reports.push(report);
    }

    if reports.len() > 1 {
        let agg = aggregate_stats(&reports);
        println!("== aggregate over {} scenes ==", reports.len());
        println!("{}", agg.report());
    }
    eprintln!("[trace] artifacts in {}", dir.display());
    crate::EXIT_OK
}
