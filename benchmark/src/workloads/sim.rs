//! `sim-baseline` and `sim-vtq`: the cycle-level simulator on three
//! pre-built full-config scenes whose BVHs are 0.3 / 4.4 / 30 MB against
//! the modelled L1, under one traversal policy.

use gpusim::{
    Checkpoint, GpuConfig, RingSink, SimError, SimReport, Simulator, TraversalPolicy, VtqParams,
    Workload,
};
use rtbvh::Bvh;
use rtscene::lumibench::{self, SceneId};
use rtscene::Scene;
use vtq::conformance::{compare_hits, oracle_run};
use vtq::workload::PathTracer;
use vtq::ExperimentConfig;

use super::{record_sim_phases, record_trace_health, with_prof, SimCounts};
use crate::harness::{pass_wall_s, repeat_setup, run_passes, timed, Check, Ctx, Outcome};
use crate::metrics::Values;
use crate::micro;
use crate::stats::geomean;
use crate::trace::{SpanId, Tracer, ROOT};

const SCENES: [SceneId; 3] = [SceneId::Spnza, SceneId::Lands, SceneId::Robot];

/// One pre-built cell input.
struct Input {
    id: SceneId,
    scene: Scene,
    bvh: Bvh,
    workload: Workload,
}

fn config(ctx: &Ctx) -> ExperimentConfig {
    if ctx.smoke {
        ExperimentConfig { detail_divisor: 16, resolution: 24, ..ExperimentConfig::quick() }
    } else {
        ExperimentConfig::default()
    }
}

fn build_inputs(cfg: &ExperimentConfig, seed: u64) -> Vec<Input> {
    SCENES
        .iter()
        .map(|&id| {
            let scene = lumibench::build_scaled(id, cfg.detail_divisor);
            let bvh = Bvh::build(scene.triangles(), &cfg.bvh);
            let tracer = PathTracer::new(cfg.resolution, cfg.max_bounces).with_seed(seed);
            let (workload, _image) = tracer.run(&scene, &bvh);
            Input { id, scene, bvh, workload }
        })
        .collect()
}

fn simulator<'a>(input: &'a Input, gpu: &GpuConfig, policy: TraversalPolicy) -> Simulator<'a> {
    Simulator::new(&input.bvh, input.scene.triangles(), gpu.with_policy(policy))
}

/// One pass: every cell through `run`, each call timed from outside.
/// Returns the seconds inside each call and the calls' results.
fn pass(
    inputs: &[Input],
    tracer: &Tracer,
    parent: SpanId,
    mut run: impl FnMut(&Input) -> Result<SimReport, SimError>,
) -> (Vec<f64>, Vec<Result<SimReport, SimError>>) {
    let mut seconds = Vec::new();
    let mut results = Vec::new();
    for (cell, input) in inputs.iter().enumerate() {
        let (result, s) =
            timed(|| tracer.span("gpusim.try_run", parent, cell as u32, |_| run(input)));
        seconds.push(s);
        results.push(result);
    }
    (seconds, results)
}

/// Every cell must finish with the cycle and ray counts of the reference
/// run; anything else is a failed cell.
fn check_pass(
    check: &mut Check,
    inputs: &[Input],
    results: &[Result<SimReport, SimError>],
    reference: &[(u64, u64)],
) {
    for ((input, result), want) in inputs.iter().zip(results).zip(reference) {
        let got = result.as_ref().map(|r| (r.stats.cycles, r.stats.rays_completed));
        check.op(got.as_ref() == Ok(want), || {
            format!("{}: (cycles, rays) {got:?}, reference run had {want:?}", input.id.name())
        });
    }
}

/// Runs the workload under `policy`.
pub fn run(ctx: &Ctx, check: &mut Check, policy: TraversalPolicy) -> Outcome {
    let cfg = config(ctx);
    let gpu = cfg.gpu;
    let (inputs, setup_s) = repeat_setup(ctx, || build_inputs(&cfg, ctx.seed));
    let mut layer = Values::default();

    // Reference run, outside the timed passes: hits bit-equal to the
    // timing-free oracle, and the counts every later pass must repeat.
    let mut oracle_s = 0.0;
    let mut with_hits_s = 0.0;
    let mut reference = Vec::new();
    let mut counts = SimCounts::default();
    for input in &inputs {
        let triangles = input.scene.triangles();
        let (oracle, s) = timed(|| oracle_run(&input.bvh, triangles, &input.workload));
        oracle_s += s;
        let (result, s) =
            timed(|| simulator(input, &gpu, policy).try_run_with_hits(&input.workload));
        with_hits_s += s;
        match result {
            Ok((report, hits)) => {
                let verdict =
                    compare_hits(input.id, policy.label(), &input.workload, &oracle, &hits);
                check.op(verdict.is_ok(), || format!("{}", verdict.unwrap_err()));
                reference.push((report.stats.cycles, report.stats.rays_completed));
                counts.add(&report);
            }
            Err(e) => {
                check.op(false, || format!("{}: reference run failed: {e}", input.id.name()));
                reference.push((0, 0));
            }
        }
    }
    counts.record(&mut layer);

    let off = Tracer::new(false);
    let plain = |input: &Input| simulator(input, &gpu, policy).try_run(&input.workload);
    let (passes, pass_cpu_s) = run_passes(ctx, ctx.pass_budget_s(), || {
        let (seconds, results) = pass(&inputs, &off, ROOT, plain);
        check_pass(check, &inputs, &results, &reference);
        seconds
    });
    let pass_s = pass_wall_s(&passes);
    layer.set("sim_mcycles_per_s", counts.cycles() as f64 / 1e6 / pass_s);
    layer.set("sim_krays_per_s", counts.rays() as f64 / 1e3 / pass_s);
    layer.set("gpusim.run_s", pass_s);
    layer.set("gpusim.host_ns_per_cycle", pass_s * 1e9 / counts.cycles().max(1) as f64);
    layer.set("gpusim.host_ns_per_ray", pass_s * 1e9 / counts.rays().max(1) as f64);
    layer.set("gpusim.hits_capture_overhead_ratio", with_hits_s / pass_s);
    layer.set("vtq.oracle_s", oracle_s);
    layer.set("vtq.oracle_krays_per_s", counts.rays() as f64 / 1e3 / oracle_s);
    layer.set("rtscene.tris", inputs.iter().map(|i| i.scene.triangles().len() as f64).sum());
    layer.set("rtbvh.bytes", inputs.iter().map(|i| i.bvh.total_bytes() as f64).sum());

    if ctx.trace {
        // The program's own spans, then the benchmark's, one pass each so
        // each instrument's cost shows on its own.
        let ((seconds, results), snapshot) = with_prof(|| pass(&inputs, &off, ROOT, plain));
        check_pass(check, &inputs, &results, &reference);
        layer.set("prof.enabled_overhead_ratio", seconds.iter().sum::<f64>() / pass_s);
        record_sim_phases(&mut layer, &snapshot);

        let (seconds, results) =
            ctx.tracer.span("pass", ROOT, 0, |root| pass(&inputs, &ctx.tracer, root, plain));
        check_pass(check, &inputs, &results, &reference);
        record_trace_health(&mut layer, &ctx.tracer, "pass", seconds.iter().sum(), pass_s);

        probe_first_cell(&mut layer, check, &inputs[0], &gpu, policy, reference[0]);
        probe_speedup(&mut layer, check, &inputs, &gpu, policy, &reference);
        let first = &inputs[0];
        micro::cache(&mut layer);
        micro::memory_system(
            &mut layer,
            &gpu.mem,
            &first.bvh,
            first.scene.triangles(),
            &first.workload,
        );
        micro::aabb4(&mut layer, &first.bvh, &first.workload);
        if matches!(policy, TraversalPolicy::Vtq(_)) {
            micro::queues(&mut layer);
        }
    }
    Outcome { setup_s, passes, pass_cpu_s, layer }
}

/// What observing a run costs, on the first cell: a ring-buffer trace
/// sink, and checkpointing — what a capture adds, how big one is, what a
/// JSONL round trip costs. Two captures, one kept: a full-config
/// checkpoint is tens of megabytes.
fn probe_first_cell(
    layer: &mut Values,
    check: &mut Check,
    input: &Input,
    gpu: &GpuConfig,
    policy: TraversalPolicy,
    reference: (u64, u64),
) {
    let sim = simulator(input, gpu, policy);
    let (plain, plain_s) = timed(|| sim.try_run(&input.workload));
    if let Ok(report) = &plain {
        micro::metrics_json(layer, report);
    }
    let (traced, traced_s) = timed(|| {
        let mut ring = RingSink::new(1 << 16);
        sim.try_run_traced(&input.workload, &mut ring)
    });
    check_pass(check, std::slice::from_ref(input), &[traced], &[reference]);
    layer.set("gpusim.ring_trace_overhead_ratio", traced_s / plain_s);

    let (mut last, mut captures) = (None, 0u32);
    let every = reference.0 / 3 + 1;
    let (result, checkpointed_s) = timed(|| {
        sim.try_run_checkpointed(&input.workload, every, &mut |c| {
            last = Some(c);
            captures += 1;
        })
    });
    let cycles = result.as_ref().map(|r| r.stats.cycles);
    check.op(cycles.as_ref() == Ok(&reference.0) && captures > 0, || {
        format!("{}: checkpointed run gave {cycles:?} cycles", input.id.name())
    });
    let Some(last) = last else { return };
    let per_capture_s = (checkpointed_s - plain_s).max(0.0) / captures as f64;
    layer.set("gpusim.checkpoint_capture_ms", per_capture_s * 1e3);
    let (text, to_s) = timed(|| last.to_jsonl());
    let (parsed, from_s) = timed(|| Checkpoint::from_jsonl(&text));
    check.op(parsed.is_ok(), || format!("checkpoint JSONL does not parse back: {parsed:?}"));
    layer.set("gpusim.checkpoint_bytes", text.len() as f64);
    layer.set("gpusim.checkpoint_jsonl_roundtrip_ms", (to_s + from_s) * 1e3);
}

/// `gpusim.vtq_speedup_geomean` over this workload's three scenes: one
/// run of the policy this workload does not time gives the other side of
/// the ratio.
fn probe_speedup(
    layer: &mut Values,
    check: &mut Check,
    inputs: &[Input],
    gpu: &GpuConfig,
    policy: TraversalPolicy,
    reference: &[(u64, u64)],
) {
    let is_vtq = matches!(policy, TraversalPolicy::Vtq(_));
    let other =
        if is_vtq { TraversalPolicy::Baseline } else { TraversalPolicy::Vtq(VtqParams::default()) };
    let mut speedups = Vec::new();
    for (input, &(cycles, _)) in inputs.iter().zip(reference) {
        let result = simulator(input, gpu, other).try_run(&input.workload);
        check.op(result.is_ok(), || format!("{}: {} run failed", input.id.name(), other.label()));
        if let Ok(report) = result {
            let (baseline, vtq) =
                if is_vtq { (report.stats.cycles, cycles) } else { (cycles, report.stats.cycles) };
            speedups.push(baseline as f64 / vtq.max(1) as f64);
        }
    }
    layer.set("gpusim.vtq_speedup_geomean", geomean(&speedups).unwrap_or(0.0));
}
