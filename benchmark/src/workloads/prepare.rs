//! `prepare-all`: scene → BVH → path-traced workload for all fourteen
//! scenes at the full configuration. The simulator never runs.

use gpusim::Workload;
use rtbvh::{build2, lbvh, quantize, treelet, Bvh, BvhConfig, NodeFormat};
use rtscene::lumibench::{self, SceneId};
use rtscene::Scene;
use vtq::conformance::oracle_run;
use vtq::workload::PathTracer;
use vtq::{ExperimentConfig, Prepared};

use super::{record_trace_health, with_prof};
use crate::harness::{pass_wall_s, repeat_setup, run_passes, timed, Check, Ctx, Outcome};
use crate::metrics::Values;
use crate::micro;
use crate::trace::{SpanId, Tracer, ROOT};

/// What one scene's prepare produced.
struct Built {
    id: SceneId,
    scene: Scene,
    bvh: Bvh,
    workload: Workload,
}

fn config(ctx: &Ctx) -> ExperimentConfig {
    if ctx.smoke {
        ExperimentConfig { detail_divisor: 16, resolution: 16, ..ExperimentConfig::quick() }
    } else {
        ExperimentConfig::default()
    }
}

/// One pass: the three calls `Prepared::build` makes, per scene, each
/// timed from outside; every product goes to `done` (untimed) as soon as
/// it exists, so a pass holds one scene at a time unless `done` keeps
/// them. Returns the seconds inside the calls, scene by scene.
fn pass(
    cfg: &ExperimentConfig,
    seed: u64,
    tracer: &Tracer,
    parent: SpanId,
    mut done: impl FnMut(Built),
) -> Vec<f64> {
    let mut seconds = Vec::new();
    for (cell, id) in SceneId::ALL.into_iter().enumerate() {
        let cell = cell as u32;
        let (scene, s0) = timed(|| {
            tracer.span("rtscene.build_scaled", parent, cell, |_| {
                lumibench::build_scaled(id, cfg.detail_divisor)
            })
        });
        let (bvh, s1) = timed(|| {
            tracer.span("rtbvh.build", parent, cell, |_| Bvh::build(scene.triangles(), &cfg.bvh))
        });
        let path_tracer = PathTracer::new(cfg.resolution, cfg.max_bounces).with_seed(seed);
        let ((workload, _image), s2) =
            timed(|| tracer.span("vtq.pathtrace", parent, cell, |_| path_tracer.run(&scene, &bvh)));
        seconds.push(s0 + s1 + s2);
        done(Built { id, scene, bvh, workload });
    }
    seconds
}

/// Sizes of what a pass built, summed over the scenes; the ray counts are
/// what every later pass must repeat.
#[derive(Default)]
struct Sizes {
    tris: usize,
    nodes: usize,
    bytes: u64,
    treelets: usize,
    rays: Vec<usize>,
}

/// A prepare is correct when its BVH validates against the scene and it
/// traced as many rays as the first pass did.
fn check_built(check: &mut Check, b: &Built, want_rays: Option<usize>) {
    let valid = b.bvh.validate(b.scene.triangles());
    let rays = b.workload.total_rays();
    check.op(valid.is_ok() && want_rays.is_none_or(|want| want == rays), || {
        format!("{}: validate {valid:?}, {rays} rays, first pass had {want_rays:?}", b.id.name())
    });
}

/// Runs the workload.
pub fn run(ctx: &Ctx, check: &mut Check) -> Outcome {
    let cfg = config(ctx);
    // There are no inputs to build — the scene ids and the seed are the
    // inputs — so set-up is the warm-up a user's first prepare pays: one
    // pass at the quick configuration, which also fills the allocator.
    let warmup = if ctx.smoke { cfg } else { ExperimentConfig::quick() };
    let off = Tracer::new(false);
    let (_, setup_s) = repeat_setup(ctx, || pass(&warmup, ctx.seed, &off, ROOT, drop));

    let mut layer = Values::default();
    let mut first: Option<Sizes> = None;
    let (passes, pass_cpu_s) = run_passes(ctx, ctx.pass_budget_s(), || {
        let mut sizes = Sizes::default();
        let seconds = pass(&cfg, ctx.seed, &off, ROOT, |b| {
            let scene_index = sizes.rays.len();
            check_built(check, &b, first.as_ref().map(|f| f.rays[scene_index]));
            sizes.tris += b.scene.triangles().len();
            sizes.nodes += b.bvh.nodes().len();
            sizes.bytes += b.bvh.total_bytes();
            sizes.treelets += b.bvh.partition().len();
            sizes.rays.push(b.workload.total_rays());
        });
        first.get_or_insert(sizes);
        seconds
    });
    let pass_s = pass_wall_s(&passes);
    let sizes = first.expect("at least one pass ran");
    let rays: usize = sizes.rays.iter().sum();
    layer.set("prepare_ktris_per_s", sizes.tris as f64 / 1e3 / pass_s);
    layer.set("rtscene.tris", sizes.tris as f64);
    layer.set("rtbvh.nodes", sizes.nodes as f64);
    layer.set("rtbvh.bytes", sizes.bytes as f64);
    layer.set("rtbvh.treelets", sizes.treelets as f64);

    if ctx.trace {
        let recheck = |check: &mut Check, built: &[Built]| {
            for (b, &want) in built.iter().zip(&sizes.rays) {
                check_built(check, b, Some(want));
            }
        };
        let mut built = Vec::new();
        let (seconds, _snapshot) =
            with_prof(|| pass(&cfg, ctx.seed, &off, ROOT, |b| built.push(b)));
        recheck(check, &built);
        layer.set("prof.enabled_overhead_ratio", seconds.iter().sum::<f64>() / pass_s);

        built.clear();
        let seconds = ctx.tracer.span("pass", ROOT, 0, |root| {
            pass(&cfg, ctx.seed, &ctx.tracer, root, |b| built.push(b))
        });
        recheck(check, &built);
        record_trace_health(&mut layer, &ctx.tracer, "pass", seconds.iter().sum(), pass_s);
        let build_wide_s = ctx.tracer.total_s("rtbvh.build");
        let pathtrace_s = ctx.tracer.total_s("vtq.pathtrace");
        layer.set("rtscene.build_s", ctx.tracer.total_s("rtscene.build_scaled"));
        layer.set("rtbvh.build_wide_s", build_wide_s);
        layer.set("vtq.pathtrace_s", pathtrace_s);
        layer.set("vtq.pathtrace_krays_per_s", rays as f64 / 1e3 / pathtrace_s);

        probe_build_stages(&mut layer, &cfg.bvh, &built, build_wide_s);
        probe_prepared_and_oracle(&mut layer, check, &cfg, &built, rays);
        // The largest BVH is the one the traversal kernels miss cache on.
        let big = built.last().expect("fourteen scenes");
        micro::traversal(&mut layer, &big.bvh, big.scene.triangles(), &big.workload);
        micro::aabb4(&mut layer, &big.bvh, &big.workload);
        micro::qnode_decode(&mut layer, &big.bvh);
    }
    Outcome { setup_s, passes, pass_cpu_s, layer }
}

/// The stages inside `Bvh::build`, each through its own public function
/// over all fourteen scenes. Collapse has none, so it is the residual.
fn probe_build_stages(layer: &mut Values, bvh_cfg: &BvhConfig, built: &[Built], build_wide_s: f64) {
    let quantized = BvhConfig { node_format: NodeFormat::Quantized, ..*bvh_cfg };
    let layout = bvh_cfg.effective_layout();
    let mut total = [0.0f64; 5];
    for b in built {
        let triangles = b.scene.triangles();
        let stages = [
            timed(|| drop(Bvh::build(triangles, &quantized))).1,
            timed(|| drop(build2::build(triangles, bvh_cfg))).1,
            timed(|| drop(lbvh::build(triangles, bvh_cfg))).1,
            timed(|| {
                drop(treelet::partition(
                    b.bvh.nodes(),
                    b.bvh.root(),
                    bvh_cfg.treelet_bytes,
                    &layout,
                ))
            })
            .1,
            timed(|| drop(quantize(b.bvh.nodes(), b.bvh.root()))).1,
        ];
        for (sum, s) in total.iter_mut().zip(stages) {
            *sum += s;
        }
    }
    let [build_quantized_s, binary_sah_s, lbvh_s, treelets_s, quantize_s] = total;
    layer.set("rtbvh.build_quantized_s", build_quantized_s);
    layer.set("rtbvh.binary_sah_s", binary_sah_s);
    layer.set("rtbvh.lbvh_s", lbvh_s);
    layer.set("rtbvh.treelets_s", treelets_s);
    layer.set("rtbvh.quantize_s", quantize_s);
    layer.set("rtbvh.collapse_residual_s", (build_wide_s - binary_sah_s - treelets_s).max(0.0));
}

/// `Prepared::build` itself (what the sweep engine's cache calls) and the
/// conformance oracle over every scene's workload.
fn probe_prepared_and_oracle(
    layer: &mut Values,
    check: &mut Check,
    cfg: &ExperimentConfig,
    built: &[Built],
    rays: usize,
) {
    let mut prepared_s = 0.0;
    let mut oracle_s = 0.0;
    for b in built {
        let (prepared, s) = timed(|| Prepared::build(b.id, cfg));
        prepared_s += s;
        // Prepared::build seeds its path tracer itself, so only shapes
        // that do not depend on the seed can be compared.
        check.op(prepared.bvh.nodes().len() == b.bvh.nodes().len(), || {
            format!("{}: Prepared::build made a different BVH", b.id.name())
        });
        let (oracle, s) = timed(|| oracle_run(&b.bvh, b.scene.triangles(), &b.workload));
        oracle_s += s;
        check.op(oracle.total_calls() == b.workload.total_rays(), || {
            format!("{}: oracle answered {} calls", b.id.name(), oracle.total_calls())
        });
    }
    layer.set("vtq.prepared_build_s", prepared_s);
    layer.set("vtq.oracle_s", oracle_s);
    layer.set("vtq.oracle_krays_per_s", rays as f64 / 1e3 / oracle_s);
}
