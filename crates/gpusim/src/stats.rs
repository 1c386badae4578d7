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

/// Declares [`SimStats`]' counters once — name, type, and how two runs'
/// values merge (`sum`, saturating; `sum_each`, the same per traversal
/// mode; `max`, for capacity peaks) — and generates from that one table
/// the struct fields, [`SimStats::merge`]'s counter half and the
/// `ckpt_stats` checkpoint codec, all in table order.
macro_rules! sim_counters {
    (@merge sum $mine:expr, $theirs:expr) => { $mine = $mine.saturating_add($theirs) };
    (@merge max $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
    (@merge sum_each $mine:expr, $theirs:expr) => {
        for (mine, theirs) in $mine.iter_mut().zip($theirs) {
            *mine = mine.saturating_add(theirs);
        }
    };
    (@put sum_each $record:expr, $key:expr, $value:expr) => { $record.list($key, $value) };
    (@put $rule:ident $record:expr, $key:expr, $value:expr) => { $record.num($key, $value) };
    (@get sum_each $fields:expr, $key:expr) => { $fields.array($key) };
    (@get $rule:ident $fields:expr, $key:expr) => { $fields.num($key) };
    ($($(#[$doc:meta])* $name:ident: $ty:ty, $rule:ident;)*) => {
        /// Counters accumulated by the simulator during one kernel.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct SimStats {
            $($(#[$doc])* pub $name: $ty,)*
            /// Per-RT-unit stall attribution (one entry per SM). Invariant: each
            /// entry's [`StallBreakdown::total`] equals [`SimStats::cycles`].
            pub stall: Vec<StallBreakdown>,
            /// Time series of fixed-width sampling windows
            /// ([`crate::GpuConfig::sample_window_cycles`]); empty when sampling
            /// is disabled.
            pub series: Vec<SamplePoint>,
        }

        impl SimStats {
            fn merge_counters(&mut self, other: &SimStats) {
                $(sim_counters!(@merge $rule self.$name, other.$name);)*
            }

            /// The scalar counters as the fields of a `ckpt_stats` checkpoint
            /// line (the per-unit stalls and the series have records of their
            /// own, written by the observer).
            pub(crate) fn counter_fields(&self, r: Record) -> Record {
                $(let r = sim_counters!(@put $rule r, stringify!($name), self.$name);)*
                r
            }

            /// Inverse of [`counter_fields`](Self::counter_fields); leaves
            /// `stall` and `series` alone.
            pub(crate) fn read_counters(&mut self, f: &Fields<'_>) -> Result<(), String> {
                $(self.$name = sim_counters!(@get $rule f, stringify!($name))?;)*
                Ok(())
            }
        }
    };
}

sim_counters! {
    /// Total kernel cycles (launch to completion of all CTAs).
    cycles: u64, max;
    /// Sum of active lanes over all RT-unit warp steps.
    active_lane_steps: u64, sum;
    /// Sum of warp-width lane slots over all RT-unit warp steps
    /// (`warp_size` per step). SIMT efficiency = active / total.
    total_lane_steps: u64, sum;
    /// RT-unit busy cycles attributed to each traversal mode.
    mode_cycles: [u64; 3], sum_each;
    /// Intersection tests (box + triangle) attributed to each mode.
    mode_isect_tests: [u64; 3], sum_each;
    /// Box (child AABB) tests performed.
    box_tests: u64, sum;
    /// Ray–triangle tests performed.
    tri_tests: u64, sum;
    /// Warps issued to the RT unit (incoming trace calls).
    warps_issued: u64, sum;
    /// Warp repack events (§4.5).
    repack_events: u64, sum;
    /// Rays inserted into warps by repacking.
    repacked_rays: u64, sum;
    /// Treelet-queue dispatches (a queue becoming the current treelet).
    treelet_dispatches: u64, sum;
    /// CTA suspensions (ray virtualization).
    cta_suspends: u64, sum;
    /// CTA resumes.
    cta_resumes: u64, sum;
    /// Bytes of CTA state saved + restored.
    cta_state_bytes: u64, sum;
    /// Peak rays simultaneously resident in any single RT unit.
    peak_rays_in_flight: usize, max;
    /// Treelet prefetches issued (TreeletPrefetch policy).
    prefetches_issued: u64, sum;
    /// Prefetched lines that were later demanded (usefulness, §2.3).
    prefetch_lines: u64, sum;
    /// Prefetched lines never demanded before eviction tracking ended.
    prefetch_lines_used: u64, sum;
    /// Rays that completed traversal.
    rays_completed: u64, sum;
    /// Longest probe chain observed in any RT unit's hardware treelet
    /// queue table (§4.2 reports a maximum of two).
    queue_table_max_chain: u32, max;
    /// Peak live entries in any RT unit's queue table (§6.5 sizes it at
    /// 128 entries).
    queue_table_peak_entries: u32, max;
    /// Queue-table inserts that spilled to memory.
    queue_table_overflows: u64, sum;
    /// Ray-path prediction-table lookups (Predict policy).
    predict_lookups: u64, sum;
    /// Lookups that returned a predicted leaf.
    predict_hits: u64, sum;
    /// Prediction-table training inserts.
    predict_inserts: u64, sum;
    /// Prediction entries evicted under capacity pressure.
    predict_evictions: u64, sum;
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
        self.merge_counters(other);

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
