//! The five workloads, and what more than one of them needs.

pub mod prepare;
pub mod serve;
pub mod sim;
pub mod sweep;

use gpumem::AccessKind;
use gpusim::{SimReport, SimStats, StallBreakdown, StallKind};
use rtscene::lumibench::SceneId;
use vtq::prof::ProfSnapshot;

use crate::metrics::Values;

/// Simulated statistics summed over the cells of one pass. Simulated
/// caches start empty on every cell, so these are a pure function of the
/// inputs: they must repeat exactly on every pass and every run, and a
/// host-only optimisation must leave them identical.
#[derive(Debug, Default)]
pub struct SimCounts {
    stats: SimStats,
    l1_hits: u64,
    l1_lookups: u64,
    l2_hits: u64,
    l2_lookups: u64,
    dram: u64,
}

impl SimCounts {
    /// Adds one cell's report.
    pub fn add(&mut self, report: &SimReport) {
        self.stats.merge(&report.stats);
        for kind in AccessKind::ALL {
            let k = report.mem.kind(kind);
            self.l1_hits += k.l1_hits;
            self.l1_lookups += k.l1_lookups;
            self.l2_hits += k.l2_hits;
            self.l2_lookups += k.l2_hits + k.dram;
            self.dram += k.dram;
        }
    }

    /// Simulated cycles of all cells.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Trace calls completed by all cells.
    pub fn rays(&self) -> u64 {
        self.stats.rays_completed
    }

    /// Writes the `gpusim.*` / `gpumem.*` simulated statistics.
    pub fn record(&self, values: &mut Values) {
        let s = &self.stats;
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let mut stall = StallBreakdown::default();
        for unit in &s.stall {
            stall.merge(unit);
        }
        values.set("gpusim.sim_cycles", s.cycles as f64);
        values.set("gpusim.rays_completed", s.rays_completed as f64);
        values.set("gpusim.box_tests", s.box_tests as f64);
        values.set("gpusim.tri_tests", s.tri_tests as f64);
        values.set("gpusim.simt_efficiency", s.simt_efficiency_opt().unwrap_or(0.0));
        values.set(
            "gpusim.stall_waiting_memory_share",
            stall.fraction(StallKind::WaitingMemory).unwrap_or(0.0),
        );
        values.set("gpusim.treelet_dispatches", s.treelet_dispatches as f64);
        values.set("gpusim.cta_suspends", s.cta_suspends as f64);
        values.set("gpusim.queue_table_overflows", s.queue_table_overflows as f64);
        values.set("gpusim.predict_hit_rate", s.predict_hit_rate_opt().unwrap_or(0.0));
        values.set("gpumem.l1_hit_rate", ratio(self.l1_hits, self.l1_lookups));
        values.set("gpumem.l2_hit_rate", ratio(self.l2_hits, self.l2_lookups));
        values.set("gpumem.dram_accesses", self.dram as f64);
    }
}

/// `gpusim.vtq_speedup_geomean`: the geomean, over the scenes that have both
/// cells, of baseline cycles / vtq cycles, given the simulated cycles of
/// the cell labelled `SCENE/policy`.
pub fn vtq_speedup_geomean(cycles_of: impl Fn(&str) -> Option<f64>) -> f64 {
    let speedups: Vec<f64> = SceneId::ALL
        .iter()
        .filter_map(|scene| {
            let baseline = cycles_of(&format!("{}/baseline", scene.name()))?;
            Some(baseline / cycles_of(&format!("{}/vtq", scene.name()))?)
        })
        .collect();
    crate::stats::geomean(&speedups).unwrap_or(0.0)
}

/// Seconds the program's own `vtq::prof` spans whose path ends in
/// `suffix` took in total (the spans nest differently under a sweep cell
/// than under a bare simulator call, so match the tail).
pub fn prof_total_s(snapshot: &ProfSnapshot, suffix: &str) -> f64 {
    snapshot
        .spans
        .iter()
        .filter(|s| s.path == suffix || s.path.ends_with(&format!("/{suffix}")))
        .map(|s| s.total_ns as f64 / 1e9)
        .sum()
}

/// Runs `f` with the program's `vtq::prof` spans switched on and returns
/// its value with what they recorded.
pub fn with_prof<T>(f: impl FnOnce() -> T) -> (T, ProfSnapshot) {
    vtq::prof::reset();
    vtq::prof::enable();
    let value = f();
    vtq::prof::disable();
    (value, vtq::prof::snapshot())
}

/// Copies the `sim/run/*` phase totals of a profiled pass.
pub fn record_sim_phases(values: &mut Values, snapshot: &ProfSnapshot) {
    values.set("gpusim.setup_s", prof_total_s(snapshot, "sim/run/setup"));
    values.set("gpusim.cycles_s", prof_total_s(snapshot, "sim/run/cycles"));
    values.set("gpusim.report_s", prof_total_s(snapshot, "sim/run/report"));
}

/// The trace's own health: the share of the traced pass (the span called
/// `root_name`) that the layer calls under it account for with their self
/// times, and what recording the spans cost.
pub fn record_trace_health(
    values: &mut Values,
    tracer: &crate::trace::Tracer,
    root_name: &str,
    traced_pass_s: f64,
    untraced_median_s: f64,
) {
    let spans = tracer.spans();
    let self_ns = crate::trace::self_times_ns(&spans);
    let root = spans.iter().position(|s| s.name == root_name).expect("the traced pass has a root");
    let wall_ns = (spans[root].end_ns - spans[root].start_ns).max(1) as f64;
    let layers_ns: u64 =
        self_ns.iter().enumerate().filter(|&(i, _)| i != root).map(|(_, &ns)| ns).sum();
    values.set("trace.self_time_coverage", layers_ns as f64 / wall_ns);
    values.set("trace.spans", spans.len() as f64);
    values.set("trace.overhead_ratio", traced_pass_s / untraced_median_s);
}
