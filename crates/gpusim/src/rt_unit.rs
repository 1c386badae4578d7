//! One SM's RT unit (§3.2/§4.2/§4.3): the warp buffer and the warps on
//! their way to it, the dynamic treelet queues with their hardware
//! queue-table shadow, the ray-path prediction table, and the
//! preload/prefetch tracking.
//!
//! The unit owns every mutation of its state; the engine (`sim.rs`) calls
//! its methods and reads none of its fields. Every queue push and pop goes
//! through [`RtUnit::push`] / [`RtUnit::pop`], which mirror it into the
//! queue table, so the table cannot drift from the queues. What a step
//! also touches (the ray table, the memory system, the scheduler) stays
//! with the engine.

use std::collections::{HashMap, VecDeque};

use rtbvh::{Bvh, NodeId, TreeletId};

use crate::checkpoint::{in_range, index_of};
use crate::error::SmSnapshot;
use crate::hw_table::HwTableState;
use crate::jsonl::{Fields, Opt, Record};
use crate::observe::StallKind;
use crate::observer::StallClass;
use crate::predict::PredictState;
use crate::queues::TreeletQueues;
use crate::ray::RayId;
use crate::{GpuConfig, SimStats, TraversalMode, TraversalPolicy, VtqParams};

/// A warp resident in the warp buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Warp {
    pub(crate) lanes: Vec<Option<RayId>>,
    pub(crate) mode: TraversalMode,
    pub(crate) restrict: Option<TreeletId>,
    pub(crate) ready_at: u64,
    /// When the warp's outstanding memory (node fetches, treelet load, ray
    /// records) completes; between `mem_ready_at` and `ready_at` the
    /// fixed-function intersection pipeline is executing. Used by stall
    /// attribution to split waiting-on-memory from busy cycles.
    pub(crate) mem_ready_at: u64,
}

impl Warp {
    /// A warp whose data (ray records, treelet) arrives at `ready`.
    pub(crate) fn new(
        lanes: Vec<Option<RayId>>,
        mode: TraversalMode,
        restrict: Option<TreeletId>,
        ready: u64,
    ) -> Warp {
        Warp { lanes, mode, restrict, ready_at: ready, mem_ready_at: ready }
    }
}

/// The queue table's entries and ray ids per entry, and the count table's
/// entries (1-entry stubs outside Vtq). The tables' sizes are
/// configuration, not state: a checkpoint does not carry them. An entry
/// holds a warp's worth of ray ids (Fig. 9), and the spill test counts in
/// the same number.
fn queue_tables(cfg: &GpuConfig) -> (u32, u32, usize) {
    let (queue, count) = match cfg.policy {
        TraversalPolicy::Vtq(v) => (v.queue_table_entries, v.count_table_entries),
        _ => (1, 1),
    };
    (queue as u32, cfg.warp_size as u32, count)
}

/// The prediction table's entries (a 1-entry stub outside Predict).
fn predict_entries(cfg: &GpuConfig) -> u32 {
    match cfg.policy {
        TraversalPolicy::Predict(p) => p.table_entries as u32,
        _ => 1,
    }
}

/// Treelet data fetched ahead of demand, by two policies: §4.3's preload
/// of the next dispatch's treelet, and the TreeletPrefetch baseline's
/// clock and line-usefulness map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Lookahead {
    preloaded: Option<TreeletId>,
    last_prefetch_at: u64,
    /// line addr -> used?
    lines: HashMap<u64, bool>,
}

/// One RT unit's state; see the [module docs](self). The live struct is
/// the checkpointed struct.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RtUnit {
    /// `(arrival cycle, rays)` per issued-but-not-installed warp.
    incoming: VecDeque<(u64, Vec<RayId>)>,
    /// Warp buffer (Table 1: one slot; configurable for sensitivity
    /// studies via [`GpuConfig::warp_buffer_slots`]).
    slots: Vec<Option<Warp>>,
    queues: TreeletQueues,
    current_queue: Option<TreeletId>,
    ahead: Lookahead,
    rays_in_flight: usize,
    /// Hardware queue-table shadow (validates §4.2/§6.5 sizing claims).
    hw_table: HwTableState,
    /// Ray-path prediction table (1-entry stub for non-Predict policies,
    /// mirroring how `hw_table` is degenerate outside Vtq).
    predict: PredictState,
    /// Mode of the most recently installed warp, for mode-transition trace
    /// events.
    last_mode: Option<TraversalMode>,
}

impl RtUnit {
    pub(crate) fn new(cfg: &GpuConfig) -> RtUnit {
        RtUnit {
            slots: vec![None; cfg.warp_buffer_slots.max(1)],
            hw_table: HwTableState::new(queue_tables(cfg).0),
            predict: PredictState::new(predict_entries(cfg)),
            ..RtUnit::default()
        }
    }

    /// The unit's stall class from now until its state next changes:
    /// with resident warps, cycles before the earliest outstanding memory
    /// completion are waiting-on-memory and the rest are busy (the
    /// intersection pipeline of the warp whose data arrived is executing
    /// until the next change, since the unit wakes at the first
    /// `ready_at`); with no resident warp every cycle is warp-buffer-empty
    /// (local rays queued or arriving), queue-drained (`shader_active`:
    /// shader phases still running on this SM), or idle. The split cycle
    /// is absolute, so the class holds over any stretch of unchanged state.
    pub(crate) fn stall_class(&self, shader_active: bool) -> StallClass {
        if let Some(mem_done) = self.slots.iter().flatten().map(|w| w.mem_ready_at).min() {
            return (StallKind::WaitingMemory, mem_done, StallKind::Busy);
        }
        let kind = if !self.incoming.is_empty() || !self.queues.is_empty() {
            StallKind::WarpBufferEmpty
        } else if shader_active {
            StallKind::QueueDrained
        } else {
            StallKind::Idle
        };
        (kind, u64::MAX, kind)
    }

    /// The cycles this unit next has something to do at: each resident
    /// warp's `ready_at` and the head incoming warp's arrival.
    pub(crate) fn wake_cycles(&self) -> impl Iterator<Item = u64> + '_ {
        let warps = self.slots.iter().flatten().map(|w| w.ready_at);
        warps.chain(self.incoming.front().map(|(arrive, _)| *arrive))
    }

    /// Rays queued while a warp-buffer slot is empty: work for the current
    /// cycle that no wake cycle announces. A visit that ends with none
    /// leaves none until the unit steps again.
    pub(crate) fn stranded_rays(&self) -> usize {
        let vacant = self.slots.iter().any(Option::is_none);
        if vacant {
            self.queues.total_rays()
        } else {
            0
        }
    }

    // -- rays and warps -------------------------------------------------------

    pub(crate) fn rays_in_flight(&self) -> usize {
        self.rays_in_flight
    }

    /// `rays` more rays are in flight on this unit; returns the new count.
    pub(crate) fn add_rays(&mut self, rays: usize) -> usize {
        self.rays_in_flight += rays;
        self.rays_in_flight
    }

    pub(crate) fn finish_ray(&mut self) {
        self.rays_in_flight -= 1;
    }

    /// A warp of `rays` leaves the shader for this unit, arriving at
    /// `arrive`. Returns whether it heads the incoming queue, which makes
    /// its arrival one of the unit's [`wake_cycles`](RtUnit::wake_cycles).
    pub(crate) fn send(&mut self, arrive: u64, rays: &[RayId]) -> bool {
        self.incoming.push_back((arrive, rays.to_vec()));
        self.incoming.len() == 1
    }

    /// The head incoming warp's rays, once it has arrived by `now`.
    pub(crate) fn take_arrived(&mut self, now: u64) -> Option<Vec<RayId>> {
        let arrived = self.incoming.front().is_some_and(|(arrive, _)| *arrive <= now);
        arrived.then(|| self.incoming.pop_front().expect("checked non-empty").1)
    }

    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// When the warp in `slot` can step; `None` for a vacant slot.
    pub(crate) fn ready_at(&self, slot: usize) -> Option<u64> {
        self.slots[slot].as_ref().map(|w| w.ready_at)
    }

    /// Installs a newly formed `warp` in `slot`. Returns `Some(previous
    /// mode)` when its mode differs from the last installed warp's.
    pub(crate) fn install(&mut self, slot: usize, warp: Warp) -> Option<Option<TraversalMode>> {
        let from = self.last_mode;
        self.last_mode = Some(warp.mode);
        self.slots[slot] = Some(warp);
        (from != self.last_mode).then_some(from)
    }

    /// Takes the resident warp out of `slot` for a step.
    pub(crate) fn take_warp(&mut self, slot: usize) -> Warp {
        self.slots[slot].take().expect("a step requires a resident warp")
    }

    pub(crate) fn put_warp(&mut self, slot: usize, warp: Warp) {
        self.slots[slot] = Some(warp);
    }

    // -- treelet queues (§4.2) ------------------------------------------------

    /// Queues `ray` for treelet `t`, mirroring the push into the queue
    /// table (tagged by the treelet's address).
    pub(crate) fn push(&mut self, cfg: &GpuConfig, bvh: &Bvh, t: TreeletId, ray: RayId) {
        self.queues.push(t, ray);
        let (entries, rays_per_entry, _) = queue_tables(cfg);
        let _resident = self.hw_table.push(bvh.treelet_extent(t).0, entries, rays_per_entry);
    }

    /// Pops up to `n` rays from the queue of `from`, or with `None` from
    /// the most populated queues first (§4.4 grouping, §4.5 repacking),
    /// mirroring each pop into the queue table. Returns each ray with the
    /// treelet it was queued for.
    pub(crate) fn pop(
        &mut self,
        bvh: &Bvh,
        from: Option<TreeletId>,
        n: usize,
    ) -> Vec<(TreeletId, RayId)> {
        let rays = match from {
            Some(t) => self.queues.pop_from(t, n),
            None => self.queues.pop_any(n),
        };
        for (t, _) in &rays {
            self.hw_table.pop(bvh.treelet_extent(*t).0);
        }
        rays
    }

    /// Whether the queues hold more than the hardware does — rays beyond
    /// the queue table's capacity or queues beyond the count table's — so
    /// a queue operation costs spill traffic (§4.2, §6.5).
    pub(crate) fn spills(&self, cfg: &GpuConfig) -> bool {
        let (entries, rays_per_entry, count) = queue_tables(cfg);
        self.queues.overflow_rays(entries as usize * rays_per_entry as usize) > 0
            || self.queues.overflow_queues(count) > 0
    }

    /// The treelet-stationary dispatch target (§4.2): the current queue
    /// while it holds rays, else the largest queue of at least the §4.4
    /// threshold (any non-empty one in the naive configuration), which
    /// becomes current. `true` beside it when it is newly chosen.
    pub(crate) fn dispatch_target(&mut self, v: &VtqParams) -> Option<(TreeletId, bool)> {
        if let Some(t) = self.current_queue.filter(|t| self.queues.len_of(*t) > 0) {
            return Some((t, false));
        }
        let threshold = if v.group_underpopulated { v.queue_threshold } else { 1 };
        self.current_queue = self.queues.largest().filter(|(_, n)| *n >= threshold).map(|q| q.0);
        self.current_queue.map(|t| (t, true))
    }

    /// The current treelet warp drained its queue: no queue is current.
    pub(crate) fn end_dispatch(&mut self) {
        self.current_queue = None;
    }

    // -- preload (§4.3) and TreeletPrefetch ------------------------------------

    /// Whether a dispatch of `t` finds it already preloaded; consumes the
    /// preload.
    pub(crate) fn take_preloaded(&mut self, t: TreeletId) -> bool {
        self.ahead.preloaded.take_if(|p| *p == t).is_some()
    }

    /// The treelet to preload while the current queue drains (§4.3): once
    /// that queue is down to its final warp, the largest other queue of at
    /// least the threshold, unless it is already preloaded. It is recorded
    /// as preloaded; the engine loads it.
    pub(crate) fn preload(&mut self, cfg: &GpuConfig, v: &VtqParams) -> Option<TreeletId> {
        let current = self.current_queue.filter(|_| v.preload)?;
        if self.queues.len_of(current) > cfg.warp_size {
            return None; // more than one warp left; too early
        }
        let (t, _) =
            self.queues.largest().filter(|(t, n)| *t != current && *n >= v.queue_threshold)?;
        (self.ahead.preloaded != Some(t)).then(|| {
            self.ahead.preloaded = Some(t);
            t
        })
    }

    /// The treelet to prefetch at `now` (TreeletPrefetch, Chou et al.
    /// [8]): every `interval` cycles, the one most of the resident warps'
    /// rays will visit next (`pending`), ties to the smallest id. The
    /// prefetch clock restarts when there is one.
    pub(crate) fn prefetch_target(
        &mut self,
        now: u64,
        interval: u64,
        mut pending: impl FnMut(RayId) -> Option<TreeletId>,
    ) -> Option<TreeletId> {
        if now < self.ahead.last_prefetch_at + interval {
            return None;
        }
        let mut votes: Vec<(TreeletId, usize)> = Vec::new();
        let rays = self.slots.iter().flatten().flat_map(|w| w.lanes.iter().flatten());
        for t in rays.filter_map(|r| pending(*r)) {
            match votes.iter_mut().find(|(vt, _)| *vt == t) {
                Some((_, n)) => *n += 1,
                None => votes.push((t, 1)),
            }
        }
        let (t, _) = votes.into_iter().max_by_key(|(t, n)| (*n, std::cmp::Reverse(t.0)))?;
        self.ahead.last_prefetch_at = now;
        Some(t)
    }

    /// The lines a prefetch fetched, each unused so far.
    pub(crate) fn prefetched(&mut self, lines: &[u64]) {
        self.ahead.lines.extend(lines.iter().map(|addr| (*addr, false)));
    }

    /// Marks the prefetched lines among the `line`-byte lines of
    /// `[addr, addr + size)` used; returns how many were not before.
    pub(crate) fn use_prefetched(&mut self, addr: u64, size: u32, line: u64) -> u64 {
        let mut newly = 0;
        let mut a = addr / line * line;
        while a < addr + size as u64 {
            if let Some(used @ false) = self.ahead.lines.get_mut(&a) {
                *used = true;
                newly += 1;
            }
            a += line;
        }
        newly
    }

    // -- prediction table ----------------------------------------------------

    pub(crate) fn predict_lookup(&mut self, key: u64) -> Option<NodeId> {
        self.predict.lookup(key)
    }

    pub(crate) fn predict_train(&mut self, cfg: &GpuConfig, key: u64, leaf: NodeId) {
        self.predict.train(key, leaf, predict_entries(cfg));
    }

    /// Adds the tables' occupancy and accuracy counters to `stats`.
    pub(crate) fn add_table_stats(&self, stats: &mut SimStats) {
        let qt = self.hw_table.stats();
        stats.queue_table_max_chain = stats.queue_table_max_chain.max(qt.max_chain);
        stats.queue_table_peak_entries = stats.queue_table_peak_entries.max(qt.peak_entries);
        stats.queue_table_overflows += qt.overflows;
        let ps = self.predict.stats();
        stats.predict_lookups += ps.lookups;
        stats.predict_hits += ps.hits;
        stats.predict_inserts += ps.inserts;
        stats.predict_evictions += ps.evictions;
    }

    /// This unit's part of SM `sm`'s watchdog snapshot.
    pub(crate) fn forensics(&self, sm: usize) -> SmSnapshot {
        SmSnapshot {
            sm,
            resident_warps: self.slots.iter().filter(|s| s.is_some()).count(),
            warp_buffer_slots: self.slots.len(),
            incoming_warps: self.incoming.len(),
            queued_rays: self.queues.total_rays(),
            treelet_queues: self.queues.queue_count(),
            rays_in_flight: self.rays_in_flight,
            ..SmSnapshot::default()
        }
    }

    // -- checkpoint records ---------------------------------------------------

    /// `ckpt_rt`, then `ckpt_inc` per incoming warp, `ckpt_slot` per
    /// occupied slot, `ckpt_queue` per treelet queue, `ckpt_hw` / `ckpt_pt`
    /// per non-empty table bucket, and `ckpt_pref` if lines are tracked.
    pub(crate) fn write_jsonl(&self, sm: usize, emit: &mut dyn FnMut(Record)) {
        let r = Record::new("ckpt_rt")
            .num("sm", sm)
            .opt("current_queue", self.current_queue.map(|t| t.0))
            .opt("preloaded", self.ahead.preloaded.map(|t| t.0))
            .num("last_prefetch_at", self.ahead.last_prefetch_at)
            .num("rays_in_flight", self.rays_in_flight)
            .opt("last_mode", self.last_mode.map(TraversalMode::index))
            .num("queue_total", self.queues.total_rays());
        let r = self.predict.header_fields(self.hw_table.header_fields(r));
        emit(r.num("slots", self.slots.len()));
        for (arrive, rays) in &self.incoming {
            let rays = rays.iter().map(|r| r.0);
            emit(Record::new("ckpt_inc").num("sm", sm).num("arrive", arrive).list("rays", rays));
        }
        for (slot, w) in self.slots.iter().enumerate() {
            let Some(w) = w else { continue };
            emit(
                Record::new("ckpt_slot")
                    .num("sm", sm)
                    .num("slot", slot)
                    .list("lanes", w.lanes.iter().map(|l| Opt(l.map(|r| r.0))))
                    .num("mode", w.mode.index())
                    .opt("restrict", w.restrict.map(|t| t.0))
                    .num("ready_at", w.ready_at)
                    .num("mem_ready_at", w.mem_ready_at),
            );
        }
        self.queues.write_jsonl(sm, emit);
        self.hw_table.write_buckets(sm, emit);
        self.predict.write_buckets(sm, emit);
        if !self.ahead.lines.is_empty() {
            let mut lines: Vec<(u64, u8)> =
                self.ahead.lines.iter().map(|(addr, used)| (*addr, u8::from(*used))).collect();
            lines.sort_unstable();
            emit(Record::new("ckpt_pref").num("sm", sm).pairs("lines", lines));
        }
    }

    /// Applies one of this unit's records. `ckpt_rt` must come first (it
    /// declares the slot and bucket counts the others index into) and
    /// only once: a second one would reset buckets already filled.
    pub(crate) fn read_record(&mut self, kind: &str, f: &Fields<'_>) -> Result<(), String> {
        match kind {
            "ckpt_rt" => {
                if !self.slots.is_empty() {
                    return Err("a second `ckpt_rt` for this SM".to_string());
                }
                let slots: usize = f.num("slots")?;
                if slots == 0 || slots > 1 << 16 {
                    return Err(format!("implausible warp buffer: {slots} slots"));
                }
                self.slots = vec![None; slots];
                self.current_queue = f.opt("current_queue")?.map(TreeletId);
                self.ahead.preloaded = f.opt("preloaded")?.map(TreeletId);
                self.ahead.last_prefetch_at = f.u64("last_prefetch_at")?;
                self.rays_in_flight = f.num("rays_in_flight")?;
                self.last_mode = f.opt::<usize>("last_mode")?.map(mode_of).transpose()?;
                self.queues.read_total(f)?;
                self.hw_table = HwTableState::read_header(f)?;
                self.predict = PredictState::read_header(f)?;
            }
            "ckpt_inc" => {
                let rays = f.list("rays")?.into_iter().map(RayId).collect();
                self.incoming.push_back((f.u64("arrive")?, rays));
            }
            "ckpt_slot" => {
                let slot = index_of(f, "slot", self.slots.len())?;
                self.slots[slot] = Some(Warp {
                    lanes: f
                        .list::<Opt<u32>>("lanes")?
                        .into_iter()
                        .map(|l| l.0.map(RayId))
                        .collect(),
                    mode: mode_of(f.num("mode")?)?,
                    restrict: f.opt("restrict")?.map(TreeletId),
                    ready_at: f.u64("ready_at")?,
                    mem_ready_at: f.u64("mem_ready_at")?,
                });
            }
            "ckpt_queue" => self.queues.read_queue(f)?,
            "ckpt_hw" => self.hw_table.read_bucket(f)?,
            "ckpt_pt" => self.predict.read_bucket(f)?,
            _ => {
                let lines = f.pairs::<u64, u8>("lines")?;
                self.ahead.lines =
                    lines.into_iter().map(|(addr, used)| (addr, used != 0)).collect();
            }
        }
        Ok(())
    }

    /// Checks restored state against `fresh`, the unit the target
    /// simulator builds from its own configuration (same warp-buffer and
    /// table geometry), and every id the engine will index with: ray ids
    /// against the `rays` created so far, treelet ids against the
    /// partition's `treelets`, predicted leaves against the BVH's `nodes`.
    pub(crate) fn validate(
        &self,
        fresh: &RtUnit,
        rays: usize,
        treelets: usize,
        nodes: usize,
    ) -> Result<(), String> {
        if self.slots.len() != fresh.slots.len() {
            return Err(format!(
                "checkpoint has {} warp-buffer slots, config builds {}",
                self.slots.len(),
                fresh.slots.len()
            ));
        }
        let warps = || self.slots.iter().flatten();
        let incoming = self.incoming.iter().flat_map(|(_, r)| r.iter());
        let lanes = warps().flat_map(|w| w.lanes.iter().flatten());
        in_range("ray id", incoming.chain(lanes).map(|r| r.index()), rays)?;
        let named = [self.current_queue, self.ahead.preloaded].into_iter().flatten();
        let restricts = warps().filter_map(|w| w.restrict);
        in_range("treelet id", named.chain(restricts).map(|t| t.0 as usize), treelets)?;
        self.queues.validate(rays, treelets)?;
        self.hw_table.validate(&fresh.hw_table)?;
        self.predict.validate(&fresh.predict, nodes)
    }

    /// Skews the cached queue counter without touching the queues, so the
    /// next audit trips the `queue-accounting` invariant.
    #[cfg(test)]
    pub(crate) fn corrupt_queue_total(&mut self, delta: isize) {
        self.queues.corrupt_total(delta);
    }

    /// Every queued ray.
    #[cfg(test)]
    pub(crate) fn queued_rays(&self) -> Vec<RayId> {
        self.queues.clone().pop_any(usize::MAX).into_iter().map(|(_, r)| r).collect()
    }

    /// The unit's own conservation laws: the cached treelet-queue ray
    /// counter matches the queues, and no warp is wider than the machine.
    pub(crate) fn audit(&self, warp_size: usize) -> Result<(), (&'static str, String)> {
        self.queues.audit().map_err(|detail| ("queue-accounting", detail))?;
        match self.slots.iter().flatten().find(|w| w.lanes.len() > warp_size) {
            Some(w) => {
                let detail = format!("warp of {} lanes > warp size {warp_size}", w.lanes.len());
                Err(("warp-width", detail))
            }
            None => Ok(()),
        }
    }
}

/// The mode of a checkpoint mode code ([`TraversalMode::index`]).
fn mode_of(code: usize) -> Result<TraversalMode, String> {
    TraversalMode::ALL.get(code).copied().ok_or_else(|| format!("unknown mode code {code}"))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rtbvh::BvhConfig;
    use rtscene::lumibench::{self, SceneId};

    use super::*;

    /// A VTQ machine of `warp_size`-wide warps and a queue table of
    /// `entries` entries, and a BVH of many small treelets.
    fn vtq_unit(warp_size: usize, entries: usize) -> (GpuConfig, Bvh) {
        let v = VtqParams { queue_table_entries: entries, ..VtqParams::default() };
        let cfg =
            GpuConfig { warp_size, ..GpuConfig::default().with_policy(TraversalPolicy::Vtq(v)) };
        let scene = lumibench::build_scaled(SceneId::Ref, 16);
        let bvh =
            Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        assert!(bvh.partition().len() >= 6, "the tests queue rays for six treelets");
        (cfg, bvh)
    }

    /// A queue-table entry holds one warp of ray ids, so a 16-wide unit's
    /// table of two entries holds 32 rays of one treelet: the 33rd push
    /// overflows the table, and the spill test counts it in the same
    /// number and starts charging at the same push.
    #[test]
    fn spill_test_and_queue_table_agree_on_a_16_wide_unit() {
        let (cfg, bvh) = vtq_unit(16, 2);
        let mut unit = RtUnit::new(&cfg);
        for i in 0..32 {
            unit.push(&cfg, &bvh, TreeletId(0), RayId(i));
        }
        assert!(!unit.spills(&cfg));
        assert_eq!(unit.hw_table.stats().overflows, 0);
        unit.push(&cfg, &bvh, TreeletId(0), RayId(32));
        assert!(unit.spills(&cfg));
        assert_eq!(unit.hw_table.stats().overflows, 1);
    }

    proptest! {
        /// Pushes and pops (from one treelet's queue, or from the most
        /// populated ones) through the unit keep the queue table's rays
        /// per tag equal to each queue's length while the table has room.
        #[test]
        fn the_queue_table_mirrors_every_queue(
            ops in prop::collection::vec((0u32..3, 0u32..6, 1usize..12), 1..150),
        ) {
            let (cfg, bvh) = vtq_unit(4, 512);
            let mut unit = RtUnit::new(&cfg);
            let mut next_ray = 0;
            for (op, treelet, n) in ops {
                let t = TreeletId(treelet);
                match op {
                    0 => for _ in 0..n {
                        unit.push(&cfg, &bvh, t, RayId(next_ray));
                        next_ray += 1;
                    },
                    1 => prop_assert!(unit.pop(&bvh, Some(t), n).iter().all(|(q, _)| *q == t)),
                    _ => prop_assert!(unit.pop(&bvh, None, n).len() <= n),
                }
                prop_assert_eq!(unit.hw_table.stats().overflows, 0);
                for t in (0..6).map(TreeletId) {
                    let tag = bvh.treelet_extent(t).0;
                    prop_assert_eq!(unit.hw_table.rays_of(tag) as usize, unit.queues.len_of(t));
                }
            }
        }
    }
}
