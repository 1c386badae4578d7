use std::fmt;
use std::fmt::Write as _;

use crate::jsonl::{Fields, Record};
use crate::observe::{SamplePoint, StallBreakdown, StallKind};

/// The three traversal modes of dynamic treelet queues (§3.2), used to
/// attribute cycles (Figure 14) and intersection tests (Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraversalMode {
    /// Initial ray-stationary phase of freshly issued warps.
    Initial,
    /// Treelet-stationary mode: warps formed from a treelet queue.
    TreeletStationary,
    /// Final ray-stationary mode draining grouped underpopulated queues
    /// (the baseline runs entirely in this mode).
    RayStationary,
}

impl TraversalMode {
    /// All modes in figure order.
    pub const ALL: [TraversalMode; 3] =
        [TraversalMode::Initial, TraversalMode::TreeletStationary, TraversalMode::RayStationary];

    /// Position of this mode in figure-order arrays such as
    /// [`SimStats::mode_cycles`] and [`SamplePoint::mode_cycles`].
    pub fn index(self) -> usize {
        match self {
            TraversalMode::Initial => 0,
            TraversalMode::TreeletStationary => 1,
            TraversalMode::RayStationary => 2,
        }
    }
}

impl fmt::Display for TraversalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraversalMode::Initial => "initial",
            TraversalMode::TreeletStationary => "treelet-stationary",
            TraversalMode::RayStationary => "ray-stationary",
        };
        f.write_str(s)
    }
}

/// Counters accumulated by the simulator during one kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total kernel cycles (launch to completion of all CTAs).
    pub cycles: u64,
    /// Sum of active lanes over all RT-unit warp steps.
    pub active_lane_steps: u64,
    /// Sum of warp-width lane slots over all RT-unit warp steps
    /// (`warp_size` per step). SIMT efficiency = active / total.
    pub total_lane_steps: u64,
    /// RT-unit busy cycles attributed to each traversal mode.
    pub mode_cycles: [u64; 3],
    /// Intersection tests (box + triangle) attributed to each mode.
    pub mode_isect_tests: [u64; 3],
    /// Box (child AABB) tests performed.
    pub box_tests: u64,
    /// Ray–triangle tests performed.
    pub tri_tests: u64,
    /// Warps issued to the RT unit (incoming trace calls).
    pub warps_issued: u64,
    /// Warp repack events (§4.5).
    pub repack_events: u64,
    /// Rays inserted into warps by repacking.
    pub repacked_rays: u64,
    /// Treelet-queue dispatches (a queue becoming the current treelet).
    pub treelet_dispatches: u64,
    /// CTA suspensions (ray virtualization).
    pub cta_suspends: u64,
    /// CTA resumes.
    pub cta_resumes: u64,
    /// Bytes of CTA state saved + restored.
    pub cta_state_bytes: u64,
    /// Peak rays simultaneously resident in any single RT unit.
    pub peak_rays_in_flight: usize,
    /// Treelet prefetches issued (TreeletPrefetch policy).
    pub prefetches_issued: u64,
    /// Prefetched lines that were later demanded (usefulness, §2.3).
    pub prefetch_lines: u64,
    /// Prefetched lines never demanded before eviction tracking ended.
    pub prefetch_lines_used: u64,
    /// Rays that completed traversal.
    pub rays_completed: u64,
    /// Longest probe chain observed in any RT unit's hardware treelet
    /// queue table (§4.2 reports a maximum of two).
    pub queue_table_max_chain: u32,
    /// Peak live entries in any RT unit's queue table (§6.5 sizes it at
    /// 128 entries).
    pub queue_table_peak_entries: u32,
    /// Queue-table inserts that spilled to memory.
    pub queue_table_overflows: u64,
    /// Ray-path prediction-table lookups (Predict policy).
    pub predict_lookups: u64,
    /// Lookups that returned a predicted leaf.
    pub predict_hits: u64,
    /// Prediction-table training inserts.
    pub predict_inserts: u64,
    /// Prediction entries evicted under capacity pressure.
    pub predict_evictions: u64,
    /// Per-RT-unit stall attribution (one entry per SM). Invariant: each
    /// entry's [`StallBreakdown::total`] equals [`SimStats::cycles`].
    pub stall: Vec<StallBreakdown>,
    /// Time series of fixed-width sampling windows
    /// ([`crate::GpuConfig::sample_window_cycles`]); empty when sampling
    /// is disabled.
    pub series: Vec<SamplePoint>,
}

impl SimStats {
    /// SIMT efficiency of the RT unit: mean fraction of active lanes per
    /// warp step (paper Figure 1b / 13b). `None` when no warp stepped —
    /// callers averaging across runs must filter, not count such runs as
    /// zero.
    pub fn simt_efficiency_opt(&self) -> Option<f64> {
        match self.total_lane_steps {
            0 => None,
            t => Some(self.active_lane_steps as f64 / t as f64),
        }
    }

    /// Sentinel-style [`SimStats::simt_efficiency_opt`]: returns `0.0`
    /// when no warp stepped. Only for display paths where a literal zero
    /// reads acceptably; never average these across runs.
    pub fn simt_efficiency(&self) -> f64 {
        self.simt_efficiency_opt().unwrap_or(0.0)
    }

    /// Cycles spent in a mode.
    pub fn cycles_in(&self, mode: TraversalMode) -> u64 {
        self.mode_cycles[mode.index()]
    }

    /// Intersection tests performed in a mode.
    pub fn isect_in(&self, mode: TraversalMode) -> u64 {
        self.mode_isect_tests[mode.index()]
    }

    pub(crate) fn add_mode_cycles(&mut self, mode: TraversalMode, cycles: u64) {
        self.mode_cycles[mode.index()] += cycles;
    }

    pub(crate) fn add_mode_isect(&mut self, mode: TraversalMode, tests: u64) {
        self.mode_isect_tests[mode.index()] += tests;
    }

    /// Fraction of intersection tests processed in treelet-stationary mode
    /// (Figure 15). `None` when no tests ran at all.
    pub fn treelet_isect_ratio_opt(&self) -> Option<f64> {
        match self.mode_isect_tests.iter().sum::<u64>() {
            0 => None,
            total => Some(self.isect_in(TraversalMode::TreeletStationary) as f64 / total as f64),
        }
    }

    /// Fraction of issued prefetch lines that were used (Chou et al.
    /// report 43.5% *unused*). `None` when nothing was prefetched — which
    /// is the normal state of the baseline and VTQ policies, so an average
    /// across policies must skip it, not count it as zero.
    pub fn prefetch_use_rate_opt(&self) -> Option<f64> {
        match self.prefetch_lines {
            0 => None,
            lines => Some(self.prefetch_lines_used as f64 / lines as f64),
        }
    }

    /// Prediction-table hit rate (Predict policy). `None` when no lookups
    /// were made — the normal state of every other policy, so an average
    /// across policies must skip it, not count it as zero.
    pub fn predict_hit_rate_opt(&self) -> Option<f64> {
        match self.predict_lookups {
            0 => None,
            lookups => Some(self.predict_hits as f64 / lookups as f64),
        }
    }

    /// Accumulates `other` into `self`, treating the two as observations
    /// of *concurrent* work (e.g. per-scene kernels of one workload):
    /// throughput counters add (saturating), capacity peaks take the max,
    /// per-unit stalls merge index-wise and series windows merge by
    /// `start_cycle`.
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.peak_rays_in_flight = self.peak_rays_in_flight.max(other.peak_rays_in_flight);
        self.queue_table_max_chain = self.queue_table_max_chain.max(other.queue_table_max_chain);
        self.queue_table_peak_entries =
            self.queue_table_peak_entries.max(other.queue_table_peak_entries);

        let add = |a: &mut u64, b: u64| *a = a.saturating_add(b);
        add(&mut self.active_lane_steps, other.active_lane_steps);
        add(&mut self.total_lane_steps, other.total_lane_steps);
        add(&mut self.box_tests, other.box_tests);
        add(&mut self.tri_tests, other.tri_tests);
        add(&mut self.warps_issued, other.warps_issued);
        add(&mut self.repack_events, other.repack_events);
        add(&mut self.repacked_rays, other.repacked_rays);
        add(&mut self.treelet_dispatches, other.treelet_dispatches);
        add(&mut self.cta_suspends, other.cta_suspends);
        add(&mut self.cta_resumes, other.cta_resumes);
        add(&mut self.cta_state_bytes, other.cta_state_bytes);
        add(&mut self.prefetches_issued, other.prefetches_issued);
        add(&mut self.prefetch_lines, other.prefetch_lines);
        add(&mut self.prefetch_lines_used, other.prefetch_lines_used);
        add(&mut self.rays_completed, other.rays_completed);
        add(&mut self.queue_table_overflows, other.queue_table_overflows);
        add(&mut self.predict_lookups, other.predict_lookups);
        add(&mut self.predict_hits, other.predict_hits);
        add(&mut self.predict_inserts, other.predict_inserts);
        add(&mut self.predict_evictions, other.predict_evictions);
        for i in 0..3 {
            add(&mut self.mode_cycles[i], other.mode_cycles[i]);
            add(&mut self.mode_isect_tests[i], other.mode_isect_tests[i]);
        }

        if self.stall.len() < other.stall.len() {
            self.stall.resize(other.stall.len(), StallBreakdown::default());
        }
        for (mine, theirs) in self.stall.iter_mut().zip(&other.stall) {
            mine.merge(theirs);
        }

        for window in &other.series {
            match self.series.iter_mut().find(|w| w.start_cycle == window.start_cycle) {
                Some(mine) => mine.merge(window),
                None => {
                    self.series.push(*window);
                    self.series.sort_by_key(|w| w.start_cycle);
                }
            }
        }
    }

    /// The scalar counters as the fields of a `ckpt_stats` checkpoint
    /// line (the per-unit stalls and the series have records of their
    /// own, written by the observer).
    pub(crate) fn counter_fields(&self, r: Record) -> Record {
        r.num("cycles", self.cycles)
            .num("active_lane_steps", self.active_lane_steps)
            .num("total_lane_steps", self.total_lane_steps)
            .list("mode_cycles", self.mode_cycles)
            .list("mode_isect_tests", self.mode_isect_tests)
            .num("box_tests", self.box_tests)
            .num("tri_tests", self.tri_tests)
            .num("warps_issued", self.warps_issued)
            .num("repack_events", self.repack_events)
            .num("repacked_rays", self.repacked_rays)
            .num("treelet_dispatches", self.treelet_dispatches)
            .num("cta_suspends", self.cta_suspends)
            .num("cta_resumes", self.cta_resumes)
            .num("cta_state_bytes", self.cta_state_bytes)
            .num("peak_rays_in_flight", self.peak_rays_in_flight)
            .num("prefetches_issued", self.prefetches_issued)
            .num("prefetch_lines", self.prefetch_lines)
            .num("prefetch_lines_used", self.prefetch_lines_used)
            .num("rays_completed", self.rays_completed)
            .num("queue_table_max_chain", self.queue_table_max_chain)
            .num("queue_table_peak_entries", self.queue_table_peak_entries)
            .num("queue_table_overflows", self.queue_table_overflows)
            .num("predict_lookups", self.predict_lookups)
            .num("predict_hits", self.predict_hits)
            .num("predict_inserts", self.predict_inserts)
            .num("predict_evictions", self.predict_evictions)
    }

    /// Inverse of [`counter_fields`](Self::counter_fields); leaves
    /// `stall` and `series` alone.
    pub(crate) fn read_counters(&mut self, f: &Fields<'_>) -> Result<(), String> {
        self.cycles = f.u64("cycles")?;
        self.active_lane_steps = f.u64("active_lane_steps")?;
        self.total_lane_steps = f.u64("total_lane_steps")?;
        self.mode_cycles = f.array("mode_cycles")?;
        self.mode_isect_tests = f.array("mode_isect_tests")?;
        self.box_tests = f.u64("box_tests")?;
        self.tri_tests = f.u64("tri_tests")?;
        self.warps_issued = f.u64("warps_issued")?;
        self.repack_events = f.u64("repack_events")?;
        self.repacked_rays = f.u64("repacked_rays")?;
        self.treelet_dispatches = f.u64("treelet_dispatches")?;
        self.cta_suspends = f.u64("cta_suspends")?;
        self.cta_resumes = f.u64("cta_resumes")?;
        self.cta_state_bytes = f.u64("cta_state_bytes")?;
        self.peak_rays_in_flight = f.num("peak_rays_in_flight")?;
        self.prefetches_issued = f.u64("prefetches_issued")?;
        self.prefetch_lines = f.u64("prefetch_lines")?;
        self.prefetch_lines_used = f.u64("prefetch_lines_used")?;
        self.rays_completed = f.u64("rays_completed")?;
        self.queue_table_max_chain = f.num("queue_table_max_chain")?;
        self.queue_table_peak_entries = f.num("queue_table_peak_entries")?;
        self.queue_table_overflows = f.u64("queue_table_overflows")?;
        self.predict_lookups = f.u64("predict_lookups")?;
        self.predict_hits = f.u64("predict_hits")?;
        self.predict_inserts = f.u64("predict_inserts")?;
        self.predict_evictions = f.u64("predict_evictions")?;
        Ok(())
    }

    /// Multi-line human-readable summary of the run.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "cycles: {}", self.cycles);
        let _ = writeln!(out, "rays completed: {}", self.rays_completed);
        let _ = writeln!(out, "warps issued: {}", self.warps_issued);
        match self.simt_efficiency_opt() {
            Some(e) => {
                let _ = writeln!(out, "simt efficiency: {:.1}%", e * 100.0);
            }
            None => {
                let _ = writeln!(out, "simt efficiency: n/a (no warp steps)");
            }
        }
        let _ = writeln!(out, "box tests: {}  tri tests: {}", self.box_tests, self.tri_tests);
        let mode_total: u64 = self.mode_cycles.iter().sum();
        if mode_total > 0 {
            let _ = write!(out, "mode cycles:");
            for mode in TraversalMode::ALL {
                let _ = write!(
                    out,
                    " {} {:.1}%",
                    mode,
                    100.0 * self.cycles_in(mode) as f64 / mode_total as f64
                );
            }
            let _ = writeln!(out);
        }
        if let Some(r) = self.treelet_isect_ratio_opt() {
            let _ = writeln!(out, "treelet-stationary isect share: {:.1}%", r * 100.0);
        }
        if self.cta_suspends > 0 {
            let _ = writeln!(
                out,
                "virtualization: {} suspends, {} resumes, {} state bytes",
                self.cta_suspends, self.cta_resumes, self.cta_state_bytes
            );
        }
        if self.treelet_dispatches > 0 {
            let _ = writeln!(
                out,
                "treelet dispatches: {}  repacks: {} (+{} rays)",
                self.treelet_dispatches, self.repack_events, self.repacked_rays
            );
            let _ = writeln!(
                out,
                "queue table: peak {} entries, max chain {}, {} overflows",
                self.queue_table_peak_entries,
                self.queue_table_max_chain,
                self.queue_table_overflows
            );
        }
        if let Some(p) = self.prefetch_use_rate_opt() {
            let _ = writeln!(
                out,
                "prefetch: {} issued, {:.1}% of lines used",
                self.prefetches_issued,
                p * 100.0
            );
        }
        if let Some(h) = self.predict_hit_rate_opt() {
            let _ = writeln!(
                out,
                "prediction: {} lookups, {:.1}% hit, {} trained, {} evicted",
                self.predict_lookups,
                h * 100.0,
                self.predict_inserts,
                self.predict_evictions
            );
        }
        if !self.stall.is_empty() {
            let mut agg = StallBreakdown::default();
            for unit in &self.stall {
                agg.merge(unit);
            }
            let _ = write!(out, "rt-unit cycles:");
            for kind in StallKind::ALL {
                if let Some(f) = agg.fraction(kind) {
                    let _ = write!(out, " {} {:.1}%", kind.label(), f * 100.0);
                }
            }
            let _ = writeln!(out);
        }
        if !self.series.is_empty() {
            let _ = writeln!(out, "time series: {} windows", self.series.len());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simt_efficiency_math() {
        let mut s = SimStats::default();
        assert_eq!(s.simt_efficiency(), 0.0);
        s.active_lane_steps = 48;
        s.total_lane_steps = 64;
        assert!((s.simt_efficiency() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mode_attribution() {
        let mut s = SimStats::default();
        s.add_mode_cycles(TraversalMode::TreeletStationary, 100);
        s.add_mode_isect(TraversalMode::TreeletStationary, 30);
        s.add_mode_isect(TraversalMode::RayStationary, 70);
        assert_eq!(s.cycles_in(TraversalMode::TreeletStationary), 100);
        assert_eq!(s.cycles_in(TraversalMode::Initial), 0);
        assert!((s.treelet_isect_ratio_opt().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn prefetch_use_rate() {
        let mut s = SimStats::default();
        assert_eq!(s.prefetch_use_rate_opt(), None);
        s.prefetch_lines = 200;
        s.prefetch_lines_used = 113;
        assert!((s.prefetch_use_rate_opt().unwrap() - 0.565).abs() < 1e-12);
    }

    #[test]
    fn predict_hit_rate_and_report() {
        let mut s = SimStats::default();
        assert!(s.predict_hit_rate_opt().is_none());
        assert!(!s.report().contains("prediction:"));
        s.predict_lookups = 400;
        s.predict_hits = 300;
        s.predict_inserts = 120;
        assert!((s.predict_hit_rate_opt().unwrap() - 0.75).abs() < 1e-12);
        assert!(s.report().contains("prediction: 400 lookups, 75.0% hit"));
        let mut merged = SimStats::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.predict_lookups, 800);
        assert_eq!(merged.predict_hits, 600);
    }

    #[test]
    fn mode_display() {
        assert_eq!(TraversalMode::TreeletStationary.to_string(), "treelet-stationary");
    }
}
