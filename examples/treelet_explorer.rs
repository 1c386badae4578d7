//! Explores how treelet partitioning reacts to the byte budget: number of
//! treelets, occupancy, depth, and what the §2.4 analytical model predicts
//! for treelet queues on this scene.
//!
//! ```sh
//! cargo run --release --example treelet_explorer -- FRST
//! ```

use treelet_rt::gpusim::Tape;
use treelet_rt::prelude::*;
use vtq::analytical;
use vtq::workload::PathTracer;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("FRST");
    let id = SceneId::ALL
        .iter()
        .copied()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("unknown scene {name}"));
    let scene = lumibench::build_scaled(id, 4);
    println!("{}: {} triangles", id, scene.triangles().len());

    println!("\nbudget sweep:");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>10}",
        "budget_B", "treelets", "mean_bytes", "mean_depth", "bvh_KB"
    );
    for budget in [1024u32, 2048, 4096, 8192, 16384, 32768] {
        let bvh = Bvh::build(
            scene.triangles(),
            &BvhConfig { treelet_bytes: budget, ..Default::default() },
        );
        let s = bvh.stats();
        let mean_depth = bvh
            .partition()
            .treelets()
            .iter()
            .map(|t| t.mean_depth * t.nodes.len() as f32)
            .sum::<f32>()
            / s.node_count as f32;
        println!(
            "{:>10} {:>10} {:>12.1} {:>12.2} {:>10.1}",
            budget,
            s.treelet_count,
            s.mean_treelet_bytes,
            mean_depth,
            s.total_bytes as f64 / 1024.0
        );
    }

    // Analytical model at the default (paper) budget.
    let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
    let (workload, _) = PathTracer::new(96, 3).run(&scene, &bvh);
    let tape = Tape::record(&bvh, scene.triangles(), &workload);
    let traces = analytical::record_traces(&bvh, &tape, &workload);
    println!("\nanalytical treelet speedup (Figure 5 model) on {} rays:", traces.len());
    for (c, s) in analytical::analytical_speedups(&bvh, &traces, &[32, 128, 512, 2048, 4096]) {
        println!("  {c:>5} concurrent rays -> {s:.2}x");
    }
}
