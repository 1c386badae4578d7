//! One SM's RT unit (§3.2/§4.2/§4.3): the warp buffer and the warps on
//! their way to it, the dynamic treelet queues with their hardware
//! queue-table shadow, the ray-path prediction table, and the
//! preload/prefetch tracking.
//!
//! The engine (`sim.rs`) steps warps — a step touches the ray table, the
//! memory system and the scheduler — so the fields are crate-visible; what
//! lives here is the state, what can be read off it alone, and its
//! checkpoint records.

use std::collections::{HashMap, VecDeque};

use rtbvh::TreeletId;

use crate::checkpoint::{in_range, index_of};
use crate::hw_table::HwTableState;
use crate::jsonl::{Fields, Opt, Record};
use crate::observe::StallKind;
use crate::observer::StallClass;
use crate::predict::PredictState;
use crate::queues::TreeletQueues;
use crate::ray::RayId;
use crate::TraversalMode;

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

/// One RT unit's state; see the [module docs](self). The live struct is
/// the checkpointed struct.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RtUnit {
    /// `(arrival cycle, rays)` per issued-but-not-installed warp.
    pub(crate) incoming: VecDeque<(u64, Vec<RayId>)>,
    /// Warp buffer (Table 1: one slot; configurable for sensitivity
    /// studies via [`GpuConfig::warp_buffer_slots`](crate::GpuConfig)).
    pub(crate) slots: Vec<Option<Warp>>,
    pub(crate) queues: TreeletQueues,
    pub(crate) current_queue: Option<TreeletId>,
    pub(crate) preloaded: Option<TreeletId>,
    pub(crate) last_prefetch_at: u64,
    /// line addr -> used? (TreeletPrefetch usefulness tracking)
    pub(crate) prefetched: HashMap<u64, bool>,
    pub(crate) rays_in_flight: usize,
    /// Hardware queue-table shadow (validates §4.2/§6.5 sizing claims).
    pub(crate) hw_table: HwTableState,
    /// Ray-path prediction table (1-entry stub for non-Predict policies,
    /// mirroring how `hw_table` is degenerate outside Vtq).
    pub(crate) predict: PredictState,
    /// Mode of the most recently installed warp, for mode-transition trace
    /// events.
    pub(crate) last_mode: Option<TraversalMode>,
}

impl RtUnit {
    pub(crate) fn new(
        warp_buffer_slots: usize,
        queue_table_entries: u32,
        predict_entries: u32,
    ) -> RtUnit {
        RtUnit {
            slots: vec![None; warp_buffer_slots.max(1)],
            hw_table: HwTableState::new(queue_table_entries),
            predict: PredictState::new(predict_entries),
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

    // -- checkpoint records ---------------------------------------------------

    /// `ckpt_rt`, then `ckpt_inc` per incoming warp, `ckpt_slot` per
    /// occupied slot, `ckpt_queue` per treelet queue, `ckpt_hw` / `ckpt_pt`
    /// per non-empty table bucket, and `ckpt_pref` if lines are tracked.
    pub(crate) fn write_jsonl(&self, sm: usize, emit: &mut dyn FnMut(Record)) {
        let r = Record::new("ckpt_rt")
            .num("sm", sm)
            .opt("current_queue", self.current_queue.map(|t| t.0))
            .opt("preloaded", self.preloaded.map(|t| t.0))
            .num("last_prefetch_at", self.last_prefetch_at)
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
        if !self.prefetched.is_empty() {
            let mut lines: Vec<(u64, u8)> =
                self.prefetched.iter().map(|(addr, used)| (*addr, u8::from(*used))).collect();
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
                self.preloaded = f.opt("preloaded")?.map(TreeletId);
                self.last_prefetch_at = f.u64("last_prefetch_at")?;
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
                self.prefetched = lines.into_iter().map(|(addr, used)| (addr, used != 0)).collect();
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
        let named = [self.current_queue, self.preloaded].into_iter().flatten();
        let restricts = warps().filter_map(|w| w.restrict);
        in_range("treelet id", named.chain(restricts).map(|t| t.0 as usize), treelets)?;
        self.queues.validate(rays, treelets)?;
        self.hw_table.validate(&fresh.hw_table)?;
        self.predict.validate(&fresh.predict, nodes)
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
