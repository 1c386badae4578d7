//! Ablation studies of the design choices DESIGN.md calls out (beyond the
//! paper's own figures): treelet byte budget, warp-buffer size, preloading
//! and the divergence threshold. Run on a subset by default since each
//! point is a full simulation.
//!
//! ```sh
//! vtq-bench ablations --scenes LANDS,FRST
//! ```
//!
//! Each section's points are simulated in parallel on the sweep pool and
//! printed in sweep order once the section completes.

use rtbvh::BvhConfig;
use rtscene::lumibench::SceneId;
use vtq::prelude::*;

use crate::{header, ok_rows, row, HarnessOpts};

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    let scenes = opts.scenes_or(&[SceneId::Lands, SceneId::Frst]);
    let cache = engine.cache();

    for id in &scenes {
        let id = *id;
        println!("\n=== {id} ===");
        let p = cache.get(id, &opts.config);
        let base = p.run_policy(TraversalPolicy::Baseline).stats.cycles as f64;

        println!("\n-- treelet byte budget (rebuilds the BVH; speedup vs same-budget baseline) --");
        header(&["budget", "treelets", "vtq_speedup"]);
        let budgets = [1024u32, 2048, 4096, 8192];
        let budget_rows = ok_rows(
            engine.run_tasks(
                budgets
                    .iter()
                    .map(|&budget| {
                        (format!("{id}/budget={budget}"), move || {
                            let mut cfg = opts.config;
                            cfg.bvh = BvhConfig { treelet_bytes: budget, ..cfg.bvh };
                            let prepared = cache.get(id, &cfg);
                            let b =
                                prepared.run_policy(TraversalPolicy::Baseline).stats.cycles as f64;
                            let v = prepared.run_vtq(VtqParams::default()).stats.cycles as f64;
                            (budget, prepared.bvh.partition().len(), b / v)
                        })
                    })
                    .collect(),
            ),
        );
        for (budget, treelets, speedup) in budget_rows {
            row(&budget.to_string(), &[treelets.to_string(), format!("{speedup:.3}x")]);
        }

        // The baseline-policy GPU parameter sweeps reuse the prepared
        // scene; each point is an independent pool task.
        let gpu_sweep = |points: &[(String, GpuConfig)]| -> Vec<(String, u64)> {
            let p = &p;
            ok_rows(
                engine.run_tasks(
                    points
                        .iter()
                        .map(|(label, gpu)| {
                            let (label, gpu) = (label.clone(), *gpu);
                            (format!("{id}/{label}"), move || {
                                let r = Simulator::new(&p.bvh, p.scene.triangles(), gpu)
                                    .try_run(&p.workload)
                                    .unwrap();
                                (label, r.stats.cycles)
                            })
                        })
                        .collect(),
                ),
            )
        };

        println!("\n-- RT-unit warp buffer slots (baseline policy) --");
        header(&["slots", "cycles", "speedup"]);
        let points: Vec<(String, GpuConfig)> = [1usize, 2, 4, 8]
            .iter()
            .map(|&slots| {
                let mut gpu = opts.config.gpu;
                gpu.warp_buffer_slots = slots;
                (slots.to_string(), gpu)
            })
            .collect();
        for (label, cycles) in gpu_sweep(&points) {
            row(&label, &[cycles.to_string(), format!("{:.3}x", base / cycles as f64)]);
        }

        println!("\n-- RT-unit memory-scheduler issue rate (baseline policy) --");
        header(&["lines/cyc", "cycles", "vs unlimited"]);
        let points: Vec<(String, GpuConfig)> = [0u32, 4, 2, 1]
            .iter()
            .map(|&rate| {
                let mut gpu = opts.config.gpu;
                gpu.rt_mem_issue_per_cycle = rate;
                (if rate == 0 { "unlim".to_string() } else { rate.to_string() }, gpu)
            })
            .collect();
        for (label, cycles) in gpu_sweep(&points) {
            row(&label, &[cycles.to_string(), format!("{:.3}x", base / cycles as f64)]);
        }

        println!("\n-- CUDA-core shader contention (baseline policy) --");
        header(&["slots/SM", "cycles", "vs unlimited"]);
        let points: Vec<(String, GpuConfig)> = [0u32, 8, 4, 2]
            .iter()
            .map(|&slots| {
                let mut gpu = opts.config.gpu;
                gpu.shader_slots_per_sm = slots;
                (if slots == 0 { "unlim".to_string() } else { slots.to_string() }, gpu)
            })
            .collect();
        for (label, cycles) in gpu_sweep(&points) {
            row(&label, &[cycles.to_string(), format!("{:.3}x", base / cycles as f64)]);
        }

        println!("\n-- VTQ mechanism ablation --");
        header(&["config", "speedup", "simt"]);
        let mut variants: Vec<(String, VtqParams)> = vec![
            ("full".into(), VtqParams::default()),
            (
                "no-preload".into(),
                VtqParams::builder().preload(false).build().expect("valid ablation params"),
            ),
            (
                "no-repack".into(),
                VtqParams::builder().repack_threshold(0).build().expect("valid ablation params"),
            ),
            (
                "no-group".into(),
                VtqParams::builder()
                    .group_underpopulated(false)
                    .repack_threshold(0)
                    .build()
                    .expect("valid ablation params"),
            ),
        ];
        for div in [0usize, 1, 2, 4, 8] {
            variants.push((
                format!("diverge={div}"),
                VtqParams::builder()
                    .divergence_treelets(div)
                    .build()
                    .expect("valid ablation params"),
            ));
        }
        for cap in [1024usize, 2048, 4096, 8192] {
            variants.push((
                format!("max-rays={cap}"),
                VtqParams::builder().max_virtual_rays(cap).build().expect("valid ablation params"),
            ));
        }
        let p_ref = &p;
        let variant_rows = ok_rows(
            engine.run_tasks(
                variants
                    .into_iter()
                    .map(|(label, params)| {
                        (format!("{id}/{label}"), move || {
                            let r = p_ref.run_vtq(params);
                            (label, r.stats.cycles, r.stats.simt_efficiency())
                        })
                    })
                    .collect(),
            ),
        );
        for (label, cycles, simt) in variant_rows {
            row(&label, &[format!("{:.3}x", base / cycles as f64), format!("{simt:.3}")]);
        }
    }
    crate::EXIT_OK
}
