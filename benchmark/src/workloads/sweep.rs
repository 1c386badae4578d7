//! `sweep-quick`: fourteen scenes × six presets of ~10–30 ms cells
//! through `SweepEngine`, with a `SweepJournal` and an `export_run` per
//! cell, a fresh engine (so 28 prepares) per pass.

use std::sync::Arc;
use std::time::Instant;

use gpusim::export::metrics_json;
use gpusim::{PredictParams, SimReport, TraversalPolicy, VtqParams};
use rtscene::lumibench::SceneId;
use vtq::durable::{CellDisposition, SweepJournal};
use vtq::experiment::{export_run, grouped_params, quantized_config};
use vtq::sweep::{Cell, CellResult, RunMatrix, SweepEngine};
use vtq::{ExperimentConfig, Prepared};

use super::{
    prof_total_s, record_sim_phases, record_trace_health, vtq_speedup_geomean, with_prof, SimCounts,
};
use crate::harness::{pass_wall_s, repeat_setup, run_passes, shuffle, timed, Check, Ctx, Outcome};
use crate::metrics::Values;
use crate::micro;
use crate::stats::{median, p90};
use crate::trace::{SpanId, Tracer, ROOT};

/// What one cell hands back through the engine.
struct CellOut {
    /// The flat metrics line; equal strings at jobs 1 and jobs J is the
    /// sweep's determinism contract.
    json: String,
    /// Wall seconds inside the cell closure (simulate + render + export).
    seconds: f64,
    report: SimReport,
}

fn config(ctx: &Ctx) -> ExperimentConfig {
    if ctx.smoke {
        ExperimentConfig { detail_divisor: 16, resolution: 16, ..ExperimentConfig::quick() }
    } else {
        ExperimentConfig::quick()
    }
}

/// The matrix, in an order drawn from the seed.
fn matrix(ctx: &Ctx) -> RunMatrix {
    let cfg = config(ctx);
    let quantized = quantized_config(&cfg);
    let presets = [
        ("baseline", TraversalPolicy::Baseline, cfg),
        ("prefetch", TraversalPolicy::TreeletPrefetch, cfg),
        ("vtq", TraversalPolicy::Vtq(VtqParams::default()), cfg),
        ("vtq-grouped-32", TraversalPolicy::Vtq(grouped_params(32)), cfg),
        ("predict", TraversalPolicy::Predict(PredictParams::default()), cfg),
        ("qnode", TraversalPolicy::Baseline, quantized),
    ];
    let scenes = if ctx.smoke { &SceneId::ALL[..3] } else { &SceneId::ALL[..] };
    let mut cells = Vec::new();
    for &scene in scenes {
        for (preset, policy, config) in presets {
            let label = format!("{}/{preset}", scene.name());
            cells.push(Cell { scene, config, policy, label });
        }
    }
    shuffle(&mut cells, ctx.seed);
    let mut matrix = RunMatrix::new();
    for cell in cells {
        matrix.push(cell);
    }
    matrix
}

/// How one pass runs the matrix.
#[derive(Clone, Copy)]
struct Mode {
    jobs: usize,
    /// Journal every cell and `export_run` its report.
    durable: bool,
}

/// One pass: a fresh engine over the whole matrix. Returns the seconds
/// from engine construction to the last result.
fn pass(
    ctx: &Ctx,
    matrix: &RunMatrix,
    mode: Mode,
    tracer: &Tracer,
    parent: SpanId,
) -> (f64, Vec<CellResult<CellOut>>) {
    let dir = ctx.fresh_dir("sweep");
    let (results, seconds) = timed(|| {
        tracer.span("vtq.sweep.run_map", parent, 0, |run| {
            let mut engine = SweepEngine::new(mode.jobs);
            if mode.durable {
                let journal = SweepJournal::start(&dir).expect("journal starts in a fresh dir");
                engine = engine.with_journal(Arc::new(journal));
            }
            engine.run_map(matrix, |cell, prepared| {
                let index = matrix.cells().iter().position(|c| std::ptr::eq(c, cell));
                let index = index.expect("the engine hands out the matrix's own cells") as u32;
                tracer.span("vtq.sweep.cell", run, index, |span| {
                    let start = Instant::now();
                    let report = tracer.span("gpusim.run_policy", span, index, |_| {
                        prepared.run_policy(cell.policy)
                    });
                    let json = tracer.span("gpusim.metrics_json", span, index, |_| {
                        metrics_json(&cell.label, &report)
                    });
                    if mode.durable {
                        tracer
                            .span("vtq.durable.export_run", span, index, |_| {
                                export_run(&dir, &cell.label, &report)
                            })
                            .unwrap_or_else(|e| panic!("export_run failed: {e}"));
                    }
                    CellOut { json, seconds: start.elapsed().as_secs_f64(), report }
                })
            })
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    (seconds, results)
}

/// A cell is correct when it completed and rendered the reference's
/// metrics line (`None`: this pass is the reference).
fn check_pass(
    check: &mut Check,
    matrix: &RunMatrix,
    results: &[CellResult<CellOut>],
    reference: Option<&[String]>,
) {
    for (i, (cell, result)) in matrix.cells().iter().zip(results).enumerate() {
        let ok = match (result, reference) {
            (Ok(out), Some(reference)) => out.json == reference[i],
            (Ok(_), None) => true,
            (Err(_), _) => false,
        };
        check.op(ok, || match result {
            Ok(out) => format!("{}: metrics differ from jobs 1: {}", cell.label, out.json),
            Err(e) => format!("{}: {e}", cell.label),
        });
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, check: &mut Check) -> Outcome {
    let matrix = matrix(ctx);
    let cells = matrix.len() as f64;
    let off = Tracer::new(false);
    let serial = Mode { jobs: 1, durable: true };
    let parallel = Mode { jobs: ctx.jobs, durable: true };

    // Set-up builds the expected outputs: the same sweep at jobs 1, whose
    // metrics lines every jobs-J pass must reproduce byte for byte.
    let mut serial_s = Vec::new();
    let (reference_results, setup_s) = repeat_setup(ctx, || {
        let (seconds, results) = pass(ctx, &matrix, serial, &off, ROOT);
        check_pass(check, &matrix, &results, None);
        serial_s.push(seconds);
        results
    });
    let mut counts = SimCounts::default();
    let mut reference = Vec::new();
    for result in &reference_results {
        match result {
            Ok(out) => {
                counts.add(&out.report);
                reference.push(out.json.clone());
            }
            Err(_) => reference.push(String::new()),
        }
    }
    let mut layer = Values::default();
    counts.record(&mut layer);

    let mut cell_s = Vec::new();
    let (passes, pass_cpu_s) = run_passes(ctx, ctx.pass_budget_s(), || {
        let (seconds, results) = pass(ctx, &matrix, parallel, &off, ROOT);
        check_pass(check, &matrix, &results, Some(&reference));
        cell_s.extend(results.iter().flatten().map(|out| out.seconds));
        vec![seconds]
    });
    let pass_s = pass_wall_s(&passes);
    let serial_median = median(&serial_s);
    layer.set("cells_per_s", cells / serial_median);
    layer.set("cells_per_s_jobsN", cells / pass_s);
    layer.set("vtq.sweep.scaling_efficiency", serial_median / pass_s / ctx.jobs as f64);
    layer.set("sim_mcycles_per_s", counts.cycles() as f64 / 1e6 / pass_s);
    layer.set("vtq.sweep.cell_p50_ms", median(&cell_s) * 1e3);
    layer.set("vtq.sweep.cell_p90_ms", p90(&cell_s).map_or(0.0, |(_, s)| s * 1e3));
    layer.set(
        "gpusim.vtq_speedup_geomean",
        vtq_speedup_geomean(|label| {
            let index = matrix.cells().iter().position(|c| c.label == label)?;
            reference_results[index].as_ref().ok().map(|out| out.report.stats.cycles as f64)
        }),
    );

    if ctx.trace {
        // Both instrumented passes run at jobs 1, where every span is on
        // the caller's thread and pass − cells − prepares is well defined.
        let ((seconds, results), snapshot) = with_prof(|| pass(ctx, &matrix, serial, &off, ROOT));
        check_pass(check, &matrix, &results, Some(&reference));
        layer.set("prof.enabled_overhead_ratio", seconds / serial_median);
        record_sim_phases(&mut layer, &snapshot);
        let in_cells: f64 = results.iter().flatten().map(|out| out.seconds).sum();
        let prepares_s = prof_total_s(&snapshot, "prepare");
        layer.set("gpusim.run_s", prof_total_s(&snapshot, "sim/run"));
        layer.set("vtq.sweep.prepare_wait_s", prepares_s);
        layer.set("vtq.sweep.overhead_s", seconds - in_cells - prepares_s);

        let (seconds, results) =
            ctx.tracer.span("pass", ROOT, 0, |root| pass(ctx, &matrix, serial, &ctx.tracer, root));
        check_pass(check, &matrix, &results, Some(&reference));
        record_trace_health(&mut layer, &ctx.tracer, "pass", seconds, serial_median);

        let plain = Mode { jobs: ctx.jobs, durable: false };
        let plain_s: Vec<f64> = (0..2)
            .map(|_| {
                let (seconds, results) = pass(ctx, &matrix, plain, &off, ROOT);
                check_pass(check, &matrix, &results, Some(&reference));
                seconds
            })
            .collect();
        layer.set("vtq.durable.on_off_delta_s", pass_s - median(&plain_s));

        if let Some(Ok(out)) = reference_results.first() {
            probe_durable(&mut layer, ctx, &out.report);
            micro::metrics_json(&mut layer, &out.report);
        }
        micro::jsonl(&mut layer, &reference);
        let prepared = Prepared::build(SceneId::Ref, &config(ctx));
        micro::predict(&mut layer, &prepared.scene, &prepared.bvh);
    }
    Outcome { setup_s, passes, pass_cpu_s, layer }
}

/// What the durability path costs per call: a journal record, one
/// `export_run`, one fsynced file write.
fn probe_durable(layer: &mut Values, ctx: &Ctx, report: &SimReport) {
    let dir = ctx.fresh_dir("durable-probe");
    let journal = SweepJournal::start(&dir).expect("journal starts in a fresh dir");
    const RECORDS: usize = 256;
    let (_, s) = timed(|| {
        for i in 0..RECORDS {
            let key = format!("probe/w0/{i}/SCENE/policy#0123456789abcdef");
            journal.record(&key, CellDisposition::Done, 0, "").expect("journal write");
        }
    });
    layer.set("vtq.durable.journal_record_us", s * 1e6 / RECORDS as f64);
    const EXPORTS: usize = 32;
    let (_, s) = timed(|| {
        for i in 0..EXPORTS {
            export_run(&dir, &format!("SCENE/policy-{i}"), report).expect("export_run");
        }
    });
    layer.set("vtq.durable.export_run_ms", s * 1e3 / EXPORTS as f64);
    const FILES: usize = 16;
    let payload = vec![b'x'; 4096];
    let (_, s) = timed(|| {
        for i in 0..FILES {
            vtq::diskfault::write_file_durable(&dir.join(format!("durable-{i}.bin")), &payload)
                .expect("durable write");
        }
    });
    layer.set("vtq.durable.write_file_durable_ms", s * 1e3 / FILES as f64);
    let _ = std::fs::remove_dir_all(&dir);
}
