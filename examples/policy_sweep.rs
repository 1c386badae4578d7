//! Sweeps the virtualized-treelet-queue design parameters on one scene:
//! queue threshold, repack threshold, preloading and virtualization
//! charging — an ablation of every §4 mechanism.
//!
//! ```sh
//! cargo run --release --example policy_sweep -- LANDS
//! ```

use treelet_rt::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("LANDS");
    let id = SceneId::ALL
        .iter()
        .copied()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("unknown scene {name}"));

    let cfg = ExperimentConfig { detail_divisor: 4, resolution: 128, ..Default::default() };
    let p = Prepared::build(id, &cfg);
    let base = p.run_policy(TraversalPolicy::Baseline).stats.cycles as f64;
    println!("{id}: baseline = {base} cycles\n");
    println!("{:<44} {:>10} {:>8} {:>8}", "configuration", "cycles", "speedup", "simt");

    let show = |label: &str, params: VtqParams| {
        let r = p.run_policy(TraversalPolicy::Vtq(params));
        println!(
            "{:<44} {:>10} {:>7.2}x {:>8.3}",
            label,
            r.stats.cycles,
            base / r.stats.cycles as f64,
            r.stats.simt_efficiency()
        );
    };

    // A sweep point is a struct literal; the simulator validates every
    // configuration it is handed, so an inconsistent point fails loudly
    // (`run_policy` panics with the reason) instead of simulating junk.
    show("full VTQ (defaults)", VtqParams::default());
    show("no repacking", VtqParams { repack_threshold: 0, ..Default::default() });
    show("no preloading", VtqParams { preload: false, ..Default::default() });
    show(
        "naive queues (no grouping, no repack)",
        VtqParams { group_underpopulated: false, repack_threshold: 0, ..Default::default() },
    );
    show(
        "free virtualization (idealized)",
        VtqParams { charge_virtualization: false, ..Default::default() },
    );
    for queue_threshold in [32, 64, 128, 256] {
        show(
            &format!("queue threshold {queue_threshold}"),
            VtqParams { queue_threshold, ..Default::default() },
        );
    }
    for repack_threshold in [8, 16, 22, 24, 28] {
        show(
            &format!("repack threshold {repack_threshold}"),
            VtqParams { repack_threshold, ..Default::default() },
        );
    }
}
