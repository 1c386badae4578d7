//! The path-tracing workload driver.
//!
//! The paper evaluates LumiBench scenes "path traced at one sample per
//! pixel with three max bounces per ray or until the secondary ray's
//! contribution to the final pixel color is too small" (§5.1). This module
//! runs exactly that loop *functionally* on the CPU — producing both the
//! per-thread ray sequences the cycle simulator replays ([`gpusim::Workload`])
//! and the rendered image — so the timing simulation is deterministic and
//! independent of shading arithmetic.

use std::ops::Range;

use gpusim::{PathTask, TraceCall, Workload};
use rtbvh::WideTree;
use rtmath::{Vec3, XorShiftRng};
use rtscene::{HitRecord, Scene};

/// Minimum path throughput before a path is terminated ("contribution to
/// the final pixel color is too small").
pub const MIN_THROUGHPUT: f32 = 0.01;

/// Most samples per pixel [`PathTracer::with_spp`] accepts.
pub const MAX_SPP: u32 = 16;

/// Fewest tasks (pixel·samples, or trace tasks replayed by the oracle) at
/// which a prepare loop forks; below it — every quick configuration — a
/// thread spawn is not worth its cost.
pub(crate) const PARALLEL_MIN_TASKS: usize = 16 * 1024;

/// Image rows per unit of work handed to a thread.
const BAND_ROWS: u32 = 8;

/// A simple float RGB image.
#[derive(Debug, Clone)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<Vec3>,
}

impl Image {
    /// Creates a black image.
    pub fn new(width: u32, height: u32) -> Image {
        Image { width, height, pixels: vec![Vec3::ZERO; (width * height) as usize] }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn pixel(&self, x: u32, y: u32) -> Vec3 {
        self.pixels[(y * self.width + x) as usize]
    }

    /// Mean luminance (used by tests to check a render isn't black).
    pub fn mean_luminance(&self) -> f32 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().map(|p| p.mean()).sum::<f32>() / self.pixels.len() as f32
    }

    /// Serializes to binary PPM (P6) with gamma-2 tone mapping.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in &self.pixels {
            for c in [p.x, p.y, p.z] {
                let v = (c.max(0.0).sqrt().min(1.0) * 255.0) as u8;
                out.push(v);
            }
        }
        out
    }
}

/// Builds path-tracing workloads and images for a scene + BVH.
///
/// # Example
///
/// ```
/// use rtbvh::{Bvh, BvhConfig};
/// use rtscene::lumibench::{self, SceneId};
/// use vtq::workload::PathTracer;
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
/// let (workload, image) = PathTracer::new(16, 2).run(&scene, &bvh);
/// assert_eq!(workload.tasks.len(), 16 * 16);
/// assert!(image.mean_luminance() > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PathTracer {
    resolution: u32,
    max_bounces: u32,
    seed: u64,
    shadow_rays: bool,
    spp: u32,
}

impl PathTracer {
    /// Creates a tracer rendering `resolution`² pixels at 1 spp with up to
    /// `max_bounces` secondary bounces (the paper uses 256² and 3).
    pub fn new(resolution: u32, max_bounces: u32) -> PathTracer {
        PathTracer { resolution, max_bounces, seed: 0x7222_EE7E, shadow_rays: false, spp: 1 }
    }

    /// Overrides the RNG seed (scatter directions).
    pub fn with_seed(self, seed: u64) -> PathTracer {
        PathTracer { seed, ..self }
    }

    /// Enables next-event estimation: after every diffuse hit one shadow
    /// ray is traced toward a sampled light — an *anyhit* trace call, the
    /// Vulkan pipeline's occlusion-query path (§2.1.2). The paper's
    /// workload is plain path tracing (§5.1), so this is off by default;
    /// turning it on adds the shadow-ray traffic real game integrations
    /// have.
    pub fn with_shadow_rays(self) -> PathTracer {
        PathTracer { shadow_rays: true, ..self }
    }

    /// Sets samples per pixel (default 1, the paper's §5.1 configuration).
    /// Each extra sample adds one task per pixel with a jittered primary
    /// ray; §6.4 predicts higher SPP raises the share of work the
    /// treelet-stationary mode handles (more coherent ray batches).
    ///
    /// # Panics
    ///
    /// Panics if `spp == 0`, or if `spp > MAX_SPP`: a sample's RNG seed
    /// gives the sample index four bits, so a seventeenth sample would
    /// share its stream with the first sample of the next pixel.
    pub fn with_spp(self, spp: u32) -> PathTracer {
        assert!(spp > 0, "need at least one sample per pixel");
        assert!(spp <= MAX_SPP, "at most {MAX_SPP} samples per pixel have distinct RNG streams");
        PathTracer { spp, ..self }
    }

    /// Traces every pixel, returning the simulator workload (one task per
    /// pixel, one ray per bounce actually traced) and the rendered image.
    ///
    /// Large images are traced on [`prof::par::threads`] threads by bands
    /// of rows. Every sample seeds its own RNG from `(seed, pixel,
    /// sample)` and bands are concatenated in row order, so the result
    /// does not depend on the thread count. Traversal reads only the
    /// tree; a [`rtbvh::Bvh`] dereferences to its own.
    pub fn run(&self, scene: &Scene, bvh: &WideTree) -> (Workload, Image) {
        let tasks = (self.resolution * self.resolution * self.spp) as usize;
        self.run_on(prof::par::threads_for(tasks, PARALLEL_MIN_TASKS), scene, bvh)
    }

    /// [`PathTracer::run`] on exactly `threads` threads.
    pub(crate) fn run_on(
        &self,
        threads: usize,
        scene: &Scene,
        bvh: &WideTree,
    ) -> (Workload, Image) {
        let res = self.resolution;
        // Emissive triangles, for next-event estimation.
        let lights: Vec<u32> = if self.shadow_rays {
            scene
                .triangles()
                .iter()
                .enumerate()
                .filter(|(_, t)| scene.material(t.material).is_emissive())
                .map(|(i, _)| i as u32)
                .collect()
        } else {
            Vec::new()
        };
        // Bands, not halves: sky rows are cheap, so an even split of the
        // rows is an uneven split of the work.
        let bands: Vec<Range<u32>> =
            (0..res).step_by(BAND_ROWS as usize).map(|y| y..(y + BAND_ROWS).min(res)).collect();
        let traced =
            prof::par::map(threads, bands, |rows| self.trace_rows(scene, bvh, &lights, rows));
        let mut tasks = Vec::with_capacity((res * res * self.spp) as usize);
        let mut pixels = Vec::with_capacity((res * res) as usize);
        for (band_tasks, band_pixels) in traced {
            tasks.extend(band_tasks);
            pixels.extend(band_pixels);
        }
        (Workload { tasks }, Image { width: res, height: res, pixels })
    }

    /// Traces the pixels of `rows` in row-major order: their tasks (`spp`
    /// per pixel) and their radiance.
    fn trace_rows(
        &self,
        scene: &Scene,
        bvh: &WideTree,
        lights: &[u32],
        rows: Range<u32>,
    ) -> (Vec<PathTask>, Vec<Vec3>) {
        let res = self.resolution;
        let tris = scene.triangles();
        let mut tasks = Vec::with_capacity((rows.len() as u32 * res * self.spp) as usize);
        let mut pixels = Vec::with_capacity((rows.len() as u32 * res) as usize);
        for py in rows {
            for px in 0..res {
                let mut pixel_radiance = Vec3::ZERO;
                for sample in 0..self.spp {
                    let mut rng = XorShiftRng::new(
                        self.seed
                            ^ ((py as u64) << 24 | (px as u64) << 4 | sample as u64)
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut rays: Vec<TraceCall> = Vec::new();
                    let mut ray = if sample == 0 {
                        scene.camera().primary_ray(px, py, res, res, None)
                    } else {
                        scene.camera().primary_ray(px, py, res, res, Some(&mut rng))
                    };
                    let mut throughput = Vec3::ONE;
                    let mut radiance = Vec3::ZERO;
                    for _bounce in 0..=self.max_bounces {
                        rays.push(TraceCall::closest(ray));
                        let Some(hit) = bvh.intersect(tris, &ray, 1e-3, f32::INFINITY) else {
                            radiance += throughput * scene.background();
                            break;
                        };
                        let tri = &tris[hit.prim as usize];
                        let material = scene.material(tri.material);
                        let rec = HitRecord::new(
                            hit.t,
                            ray.at(hit.t),
                            tri.geometric_normal().normalized(),
                            ray.dir,
                            tri.material,
                        );
                        radiance += throughput * material.emitted();
                        // Next-event estimation: an anyhit shadow ray toward
                        // a sampled light point.
                        if !lights.is_empty() && !material.is_emissive() {
                            let light =
                                &tris[lights[rng.below(lights.len() as u64) as usize] as usize];
                            let (mut u, mut v) = (rng.next_f32(), rng.next_f32());
                            if u + v > 1.0 {
                                u = 1.0 - u;
                                v = 1.0 - v;
                            }
                            let target =
                                light.v0 + (light.v1 - light.v0) * u + (light.v2 - light.v0) * v;
                            let to_light = target - rec.point;
                            if to_light.dot(rec.normal) > 0.0 {
                                let shadow = rtmath::Ray::new(rec.point, to_light);
                                rays.push(TraceCall::anyhit(shadow, 0.999));
                                if !bvh.occluded(tris, &shadow, 1e-3, 0.999) {
                                    let dist2 = to_light.length_squared().max(1e-6);
                                    let cos_s = to_light.normalized().dot(rec.normal).max(0.0);
                                    let light_mat = scene.material(light.material);
                                    let area = light.double_area() * 0.5;
                                    radiance += throughput
                                        * light_mat.emitted()
                                        * (cos_s * area * lights.len() as f32
                                            / (core::f32::consts::PI * dist2));
                                }
                            }
                        }
                        match material.scatter(&ray, &rec, &mut rng) {
                            Some(s) => {
                                throughput = throughput * s.attenuation;
                                ray = s.ray;
                                if throughput.max_component() < MIN_THROUGHPUT {
                                    break; // negligible contribution (§5.1)
                                }
                            }
                            None => break, // absorbed / emitter
                        }
                    }
                    pixel_radiance += radiance;
                    tasks.push(PathTask { rays });
                }
                pixels.push(pixel_radiance / self.spp as f32);
            }
        }
        (tasks, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbvh::{Bvh, BvhConfig};
    use rtscene::lumibench::{self, SceneId};

    fn setup() -> (Scene, Bvh) {
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
        (scene, bvh)
    }

    #[test]
    fn one_task_per_pixel_with_bounded_bounces() {
        let (scene, bvh) = setup();
        let (w, _) = PathTracer::new(24, 3).run(&scene, &bvh);
        assert_eq!(w.tasks.len(), 24 * 24);
        assert!(w.max_bounces() <= 4);
        for t in &w.tasks {
            assert!(!t.rays.is_empty(), "every pixel traces at least a primary ray");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (scene, bvh) = setup();
        let (w1, i1) = PathTracer::new(16, 2).run(&scene, &bvh);
        let (w2, i2) = PathTracer::new(16, 2).run(&scene, &bvh);
        assert_eq!(w1.total_rays(), w2.total_rays());
        assert_eq!(i1.pixel(7, 9), i2.pixel(7, 9));
        // Different seed changes scatter directions.
        let (w3, _) = PathTracer::new(16, 2).with_seed(99).run(&scene, &bvh);
        assert_eq!(w3.tasks.len(), w1.tasks.len());
    }

    #[test]
    fn image_is_lit_and_tonemaps() {
        let (scene, bvh) = setup();
        let (_, img) = PathTracer::new(16, 2).run(&scene, &bvh);
        assert!(img.mean_luminance() > 0.01, "scene renders black");
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n16 16\n255\n"));
        assert_eq!(ppm.len(), 13 + 16 * 16 * 3);
    }

    #[test]
    fn secondary_rays_exist_for_lit_scene() {
        let (scene, bvh) = setup();
        let (w, _) = PathTracer::new(24, 3).run(&scene, &bvh);
        let secondary: usize = w.tasks.iter().map(|t| t.rays.len().saturating_sub(1)).sum();
        assert!(secondary > 0, "diffuse scene must scatter secondary rays");
    }

    #[test]
    fn shadow_rays_add_anyhit_calls() {
        let (scene, bvh) = setup();
        let (plain, img_plain) = PathTracer::new(24, 2).run(&scene, &bvh);
        let (nee, img_nee) = PathTracer::new(24, 2).with_shadow_rays().run(&scene, &bvh);
        let anyhit_plain: usize =
            plain.tasks.iter().flat_map(|t| &t.rays).filter(|c| c.anyhit).count();
        let anyhit_nee: usize = nee.tasks.iter().flat_map(|t| &t.rays).filter(|c| c.anyhit).count();
        assert_eq!(anyhit_plain, 0, "plain path tracing has no occlusion queries");
        assert!(anyhit_nee > 0, "NEE must trace shadow rays");
        assert!(nee.total_rays() > plain.total_rays());
        // Direct lighting only adds energy.
        assert!(img_nee.mean_luminance() >= img_plain.mean_luminance() * 0.99);
    }

    #[test]
    fn shadow_ray_targets_are_within_unit_parameter() {
        let (scene, bvh) = setup();
        let (nee, _) = PathTracer::new(16, 2).with_shadow_rays().run(&scene, &bvh);
        for call in nee.tasks.iter().flat_map(|t| &t.rays).filter(|c| c.anyhit) {
            assert!((call.t_max - 0.999).abs() < 1e-6);
        }
    }

    #[test]
    fn spp_multiplies_tasks_and_keeps_the_image_stable() {
        let (scene, bvh) = setup();
        let (w1, i1) = PathTracer::new(16, 2).run(&scene, &bvh);
        let (w4, i4) = PathTracer::new(16, 2).with_spp(4).run(&scene, &bvh);
        assert_eq!(w4.tasks.len(), 4 * w1.tasks.len());
        // Averaged multi-sample image stays in the same brightness range.
        let (a, b) = (i1.mean_luminance(), i4.mean_luminance());
        assert!((a - b).abs() < 0.5 * a.max(b), "1spp {a} vs 4spp {b}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_spp_panics() {
        let _ = PathTracer::new(8, 1).with_spp(0);
    }

    #[test]
    #[should_panic(expected = "at most 16 samples")]
    fn more_samples_than_the_seed_has_bits_for_panics() {
        // Sample 16 of pixel x would share its RNG stream with sample 0
        // of pixel x + 1.
        let _ = PathTracer::new(8, 1).with_spp(MAX_SPP + 1);
    }

    /// Every field of every trace call and every pixel, floats by bits.
    fn bits(run: &(Workload, Image)) -> (Vec<Vec<[u32; 11]>>, Vec<[u32; 3]>) {
        let v = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        let calls = |task: &PathTask| {
            let call = |c: &TraceCall| {
                let (o, d, i) = (v(c.ray.origin), v(c.ray.dir), v(c.ray.inv_dir));
                let [t, a] = [c.t_max.to_bits(), c.anyhit as u32];
                [o[0], o[1], o[2], d[0], d[1], d[2], i[0], i[1], i[2], t, a]
            };
            task.rays.iter().map(call).collect()
        };
        (run.0.tasks.iter().map(calls).collect(), run.1.pixels.iter().map(|&p| v(p)).collect())
    }

    #[test]
    fn the_thread_count_changes_neither_workload_nor_image() {
        let (scene, bvh) = setup();
        // 20 rows: two full bands and a short one.
        let plain = PathTracer::new(20, 3);
        for tracer in [plain, plain.with_shadow_rays(), plain.with_spp(4)] {
            let serial = tracer.run_on(1, &scene, &bvh);
            assert_eq!(bits(&serial), bits(&tracer.run(&scene, &bvh)), "{tracer:?}: run");
            for threads in [2, 3, 8] {
                let forked = tracer.run_on(threads, &scene, &bvh);
                assert_eq!(bits(&serial), bits(&forked), "{tracer:?}: {threads} threads");
            }
        }
    }

    #[test]
    fn a_panic_inside_a_band_reaches_a_sweep_as_a_cell_error() {
        use crate::sweep::{CellErrorKind, SweepEngine};
        // A BVH over a finer mesh names primitives the scene does not
        // have, so shading the first such hit indexes out of bounds —
        // inside `trace_rows`, on whichever thread claimed that band.
        let (scene, _) = setup();
        let finer = lumibench::build_scaled(SceneId::Bunny, 8);
        assert!(finer.triangles().len() > scene.triangles().len());
        let bvh = Bvh::build(finer.triangles(), &BvhConfig::default());
        let trace = || PathTracer::new(32, 1).run_on(4, &scene, &bvh).0.total_rays();
        let out = SweepEngine::new(2).run_tasks(vec![("mismatched".to_string(), trace)]);
        let err = out[0].as_ref().expect_err("the band's panic must fail the cell");
        assert_eq!(
            (err.index, err.label.as_str(), err.kind),
            (0, "mismatched", CellErrorKind::Panic)
        );
        assert!(err.message.contains("index out of bounds"), "got: {}", err.message);
    }

    #[test]
    fn more_bounces_never_reduces_rays() {
        let (scene, bvh) = setup();
        let (w1, _) = PathTracer::new(16, 1).run(&scene, &bvh);
        let (w3, _) = PathTracer::new(16, 3).run(&scene, &bvh);
        assert!(w3.total_rays() >= w1.total_rays());
    }
}
