//! Quickstart: build a scene, simulate baseline vs virtualized treelet
//! queues, and print the headline comparison.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use treelet_rt::prelude::*;

fn main() {
    // A mid-size scene at reduced detail so the example runs in seconds;
    // drop `detail_divisor`/raise `resolution` toward the paper's config
    // (1, 256) for the real experiment.
    let mut cfg = ExperimentConfig {
        detail_divisor: 4,
        resolution: 128,
        max_bounces: 3,
        ..Default::default()
    };
    // 4 SMs so the 128x128 image saturates the 4096-rays/SM virtualization
    // cap, as the paper's 256x256-on-16-SM configuration does.
    cfg.gpu.mem.num_sms = 4;
    println!("preparing {} ...", SceneId::Lands);
    let prepared = Prepared::build(SceneId::Lands, &cfg);
    println!(
        "scene: {} triangles, BVH {:.1} KB in {} treelets",
        prepared.scene.triangles().len(),
        prepared.bvh.total_bytes() as f64 / 1024.0,
        prepared.bvh.partition().len(),
    );
    println!(
        "workload: {} rays over {} pixels",
        prepared.workload.total_rays(),
        prepared.workload.tasks.len()
    );

    let base = prepared.run_policy(TraversalPolicy::Baseline);
    let vtq = prepared.run_policy(TraversalPolicy::Vtq(VtqParams::default()));

    println!("\n              {:>12} {:>12}", "baseline", "vtq");
    println!("cycles        {:>12} {:>12}", base.stats.cycles, vtq.stats.cycles);
    println!(
        "SIMT eff      {:>12.3} {:>12.3}",
        base.stats.simt_efficiency(),
        vtq.stats.simt_efficiency()
    );
    println!(
        "L1 BVH miss   {:>12.3} {:>12.3}",
        base.mem.kind(AccessKind::Bvh).l1_miss_rate(),
        vtq.mem.kind(AccessKind::Bvh).l1_miss_rate()
    );
    println!(
        "peak rays/SM  {:>12} {:>12}",
        base.stats.peak_rays_in_flight, vtq.stats.peak_rays_in_flight
    );
    println!(
        "\nspeedup: {:.2}x (paper Figure 10 reports a 1.95x geomean at full scale)",
        base.stats.cycles as f64 / vtq.stats.cycles as f64
    );

    // The observability subsystem: re-run VTQ with a bounded event sink
    // attached (cycle-identical to the untraced run) and print the
    // structured summary. `vtq-bench --bin trace` exports the same data
    // as JSONL/CSV artifacts.
    let mut sink = RingSink::new(4096);
    let traced = prepared
        .simulator(TraversalPolicy::Vtq(VtqParams::default()))
        .try_run_traced(&prepared.workload, &mut sink)
        .expect("the traced run completes like the untraced one");
    assert_eq!(traced.stats.cycles, vtq.stats.cycles, "tracing must not change timing");
    println!("\n--- vtq run summary ---");
    println!("{}", traced.stats.report());
    println!(
        "trace ring: {} events kept, {} dropped; last event: {:?}",
        sink.len(),
        sink.dropped(),
        sink.events().last(),
    );
}
