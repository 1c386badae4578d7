//! Versioned, bit-exact simulator checkpoints.
//!
//! A [`Checkpoint`] is a complete serialization of the engine's
//! architectural state at a quiescent point of the event-driven clock:
//! per-SM CTA slots and warp buffers, RT-unit treelet queues and the
//! hardware queue-table shadow, in-flight ray traversal stacks (every
//! `f32` as raw bits), the memory hierarchy (cache tags, MSHRs, the
//! fractional DRAM service-queue head, fault RNG), scheduler heaps, the
//! jitter RNG, accumulated statistics and trace-sink counters. Resuming
//! from a checkpoint with [`RunOptions::resume`](crate::RunOptions::resume)
//! produces a final [`SimStats`] bit-identical to the uninterrupted run.
//!
//! The on-disk form ([`Checkpoint::to_jsonl`]) is [`crate::jsonl`] flat
//! JSONL, one checksum-framed record per line. A terminal `ckpt_end`
//! record guards against truncation; [`Checkpoint::from_jsonl`] returns a
//! typed [`ParseError`] for any corruption and never panics. Adding state
//! is one `.num(..)` in the writer and one `f.num(..)?` in the reader —
//! and a [`CHECKPOINT_VERSION`] bump, which the format pin in
//! `tests/checkpoint.rs` enforces.

use std::hash::Hasher as _;

use gpumem::{CacheSnapshot, CacheStats, KindStats, LineState, MemSnapshot, WindowPoint};

use crate::export::ParseError;
use crate::hw_table::QueueTableStats;
use crate::jsonl::{check_line, parse_line, Fields, Fnv1a, Opt, Pair, Record};
use crate::observe::{SamplePoint, StallBreakdown, StallKind};
use crate::predict::PredictTableStats;
use crate::ray::{RayTraversalState, StackEntry};
use crate::{GpuConfig, SimStats};

/// Format version written into every checkpoint header; bumped on any
/// schema change so stale snapshots are rejected instead of misread.
/// Version 2 added the ray-path prediction table (per-unit buckets +
/// stats, per-ray `best_node`) and the predict counters in `ckpt_stats`.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Fingerprint of a [`GpuConfig`] (FNV-1a over its debug form), stored in
/// the checkpoint header so a resume against a different configuration is
/// rejected up front.
pub fn config_tag(cfg: &GpuConfig) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(format!("{cfg:?}").as_bytes());
    hash.finish()
}

/// Serialized CTA scheduling state (one per CTA).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CtaState {
    pub first_task: usize,
    pub task_count: usize,
    pub bounce: usize,
    /// Encoded phase: 0 Pending, 1 Raygen, 2 WaitTraversal, 3 Suspended,
    /// 4 ReadyToResume, 5 Shade, 6 Done.
    pub phase: u8,
    pub ready_at: u64,
    pub sm: usize,
    pub outstanding: usize,
    pub resume_queued: bool,
}

/// One in-flight ray: its traversal state plus scheduling metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RayState {
    pub traversal: RayTraversalState,
    pub cta: usize,
    pub task: usize,
    pub bounce: usize,
    pub sm: usize,
}

/// One occupied warp-buffer slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WarpState {
    pub lanes: Vec<Option<u32>>,
    /// [`TraversalMode::index`](crate::TraversalMode::index) of the mode.
    pub mode: u8,
    pub restrict: Option<u32>,
    pub ready_at: u64,
    pub mem_ready_at: u64,
}

/// Complete state of one SM's RT unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RtUnitState {
    /// `(arrival cycle, ray ids)` per issued-but-not-installed warp, in
    /// queue order.
    pub incoming: Vec<(u64, Vec<u32>)>,
    /// One entry per warp-buffer slot.
    pub slots: Vec<Option<WarpState>>,
    /// `(treelet, rays in FIFO order)`, ascending by treelet.
    pub queues: Vec<(u32, Vec<u32>)>,
    /// Cached queue-ray total, verbatim (may be skewed mid-sabotage).
    pub queue_total: usize,
    pub current_queue: Option<u32>,
    pub preloaded: Option<u32>,
    pub last_prefetch_at: u64,
    /// `(line addr, used)` usefulness markers, ascending by address.
    pub prefetched: Vec<(u64, bool)>,
    pub rays_in_flight: usize,
    /// Hardware queue-table buckets as `(tag, rays)`, in-bucket order
    /// preserved.
    pub hw_buckets: Vec<Vec<(u64, u32)>>,
    pub hw_live: u32,
    pub hw_stats: QueueTableStats,
    /// Prediction-table buckets as `(key, leaf)`, in-bucket insertion
    /// order preserved (it determines eviction behaviour).
    pub predict_buckets: Vec<Vec<(u64, u32)>>,
    pub predict_stats: PredictTableStats,
    /// Encoded [`TraversalMode`](crate::TraversalMode) of the last
    /// installed warp.
    pub last_mode: Option<u8>,
}

/// A complete simulator checkpoint; see the [module docs](self).
///
/// Produced by
/// [`Simulator::try_run_checkpointed`](crate::Simulator::try_run_checkpointed),
/// consumed by [`RunOptions::resume`](crate::RunOptions::resume),
/// persisted via [`Checkpoint::to_jsonl`] / [`Checkpoint::from_jsonl`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    pub(crate) version: u32,
    pub(crate) num_sms: usize,
    pub(crate) tasks: usize,
    pub(crate) total_rays: usize,
    pub(crate) config_tag: u64,
    pub(crate) now: u64,
    pub(crate) next_sm: usize,
    pub(crate) last_audit: u64,
    pub(crate) jitter_state: u64,
    pub(crate) sink_events: u64,
    pub(crate) sabotage: Option<(u64, i64)>,
    pub(crate) pending: Vec<usize>,
    /// CTA phase timers (possibly stale entries included), sorted
    /// ascending — heap pops always return the tuple minimum, so the
    /// multiset determines behaviour.
    pub(crate) timers: Vec<(u64, usize)>,
    /// Iteration order preserved exactly (`swap_remove` scanning).
    pub(crate) resume_ready: Vec<usize>,
    pub(crate) shader_active: Vec<usize>,
    pub(crate) reserved_rays: Vec<usize>,
    pub(crate) slot_release: Vec<(u64, usize)>,
    pub(crate) free_slots: Vec<usize>,
    pub(crate) last_progress: Vec<u64>,
    pub(crate) stats: SimStats,
    pub(crate) ctas: Vec<CtaState>,
    pub(crate) rays: Vec<RayState>,
    /// Per task, per trace call: `(t bits, prim)` or `None`.
    pub(crate) hits: Vec<Vec<Option<(u32, u32)>>>,
    pub(crate) rt: Vec<RtUnitState>,
    pub(crate) mem: MemSnapshot,
}

impl Checkpoint {
    /// The format version this checkpoint was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The simulated cycle the checkpoint was taken at.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// The config fingerprint recorded at capture (see [`config_tag`]).
    pub fn config_tag(&self) -> u64 {
        self.config_tag
    }

    /// Serializes to flat JSONL, every line checksum-framed; inverse of
    /// [`Checkpoint::from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut emit = |r: Record| {
            out.push_str(&r.framed());
            out.push('\n');
        };
        emit(
            Record::new("checkpoint")
                .num("version", self.version)
                .num("cycle", self.now)
                .num("num_sms", self.num_sms)
                .num("tasks", self.tasks)
                .num("total_rays", self.total_rays)
                .num("config_tag", self.config_tag),
        );
        emit(
            Record::new("ckpt_engine")
                .num("next_sm", self.next_sm)
                .num("last_audit", self.last_audit)
                .num("jitter_state", self.jitter_state)
                .num("sink_events", self.sink_events)
                .opt("sabotage", self.sabotage.map(Pair::from))
                .list("pending", &self.pending)
                .pairs("timers", self.timers.iter().copied())
                .list("resume_ready", &self.resume_ready)
                .list("shader_active", &self.shader_active)
                .list("reserved_rays", &self.reserved_rays)
                .pairs("slot_release", self.slot_release.iter().copied())
                .list("free_slots", &self.free_slots)
                .list("last_progress", &self.last_progress),
        );
        let s = &self.stats;
        emit(
            Record::new("ckpt_stats")
                .num("cycles", s.cycles)
                .num("active_lane_steps", s.active_lane_steps)
                .num("total_lane_steps", s.total_lane_steps)
                .list("mode_cycles", s.mode_cycles)
                .list("mode_isect_tests", s.mode_isect_tests)
                .num("box_tests", s.box_tests)
                .num("tri_tests", s.tri_tests)
                .num("warps_issued", s.warps_issued)
                .num("repack_events", s.repack_events)
                .num("repacked_rays", s.repacked_rays)
                .num("treelet_dispatches", s.treelet_dispatches)
                .num("cta_suspends", s.cta_suspends)
                .num("cta_resumes", s.cta_resumes)
                .num("cta_state_bytes", s.cta_state_bytes)
                .num("peak_rays_in_flight", s.peak_rays_in_flight)
                .num("prefetches_issued", s.prefetches_issued)
                .num("prefetch_lines", s.prefetch_lines)
                .num("prefetch_lines_used", s.prefetch_lines_used)
                .num("rays_completed", s.rays_completed)
                .num("queue_table_max_chain", s.queue_table_max_chain)
                .num("queue_table_peak_entries", s.queue_table_peak_entries)
                .num("queue_table_overflows", s.queue_table_overflows)
                .num("predict_lookups", s.predict_lookups)
                .num("predict_hits", s.predict_hits)
                .num("predict_inserts", s.predict_inserts)
                .num("predict_evictions", s.predict_evictions),
        );
        for (sm, b) in s.stall.iter().enumerate() {
            emit(stall_fields(Record::new("ckpt_stall").num("sm", sm), b));
        }
        for w in &s.series {
            let r = Record::new("ckpt_series")
                .num("start_cycle", w.start_cycle)
                .num("covered_cycles", w.covered_cycles)
                .num("ray_cycles", w.ray_cycles)
                .num("occupied_slot_cycles", w.occupied_slot_cycles)
                .list("mode_cycles", w.mode_cycles);
            emit(stall_fields(r, &w.stall));
        }
        for (id, c) in self.ctas.iter().enumerate() {
            emit(
                Record::new("ckpt_cta")
                    .num("id", id)
                    .num("first_task", c.first_task)
                    .num("task_count", c.task_count)
                    .num("bounce", c.bounce)
                    .num("phase", c.phase)
                    .num("ready_at", c.ready_at)
                    .num("sm", c.sm)
                    .num("outstanding", c.outstanding)
                    .num("resume_queued", u8::from(c.resume_queued)),
            );
        }
        for r in &self.rays {
            let t = &r.traversal;
            fn stack(entries: &[StackEntry]) -> impl Iterator<Item = (u32, u32)> + '_ {
                entries.iter().map(|e| (e.node, e.t_bits))
            }
            emit(
                Record::new("ckpt_ray")
                    .num("id", t.id)
                    .list("origin", t.origin_bits)
                    .list("dir", t.dir_bits)
                    .list("inv_dir", t.inv_dir_bits)
                    .num("treelet", t.current_treelet)
                    .pairs("cur_stack", stack(&t.current_stack))
                    .pairs("tre_stack", stack(&t.treelet_stack))
                    .opt("best", t.best.map(Pair::from))
                    .opt("best_node", t.best_node)
                    .num("t_min", t.t_min_bits)
                    .num("t_max", t.t_max_bits)
                    .num("limit", t.limit_bits)
                    .num("anyhit", u8::from(t.anyhit))
                    .num("nodes", t.nodes_visited)
                    .num("cta", r.cta)
                    .num("task", r.task)
                    .num("bounce", r.bounce)
                    .num("sm", r.sm),
            );
        }
        for (task, calls) in self.hits.iter().enumerate() {
            let hits = calls.iter().map(|h| Opt(h.map(Pair::from)));
            emit(Record::new("ckpt_hits").num("task", task).list("hits", hits));
        }
        for (sm, u) in self.rt.iter().enumerate() {
            emit(
                Record::new("ckpt_rt")
                    .num("sm", sm)
                    .opt("current_queue", u.current_queue)
                    .opt("preloaded", u.preloaded)
                    .num("last_prefetch_at", u.last_prefetch_at)
                    .num("rays_in_flight", u.rays_in_flight)
                    .opt("last_mode", u.last_mode)
                    .num("queue_total", u.queue_total)
                    .num("hw_live", u.hw_live)
                    .num("hw_max_chain", u.hw_stats.max_chain)
                    .num("hw_peak", u.hw_stats.peak_entries)
                    .num("hw_overflows", u.hw_stats.overflows)
                    .num("hw_inserts", u.hw_stats.inserts)
                    .num("hw_buckets", u.hw_buckets.len())
                    .num("pt_lookups", u.predict_stats.lookups)
                    .num("pt_hits", u.predict_stats.hits)
                    .num("pt_inserts", u.predict_stats.inserts)
                    .num("pt_evictions", u.predict_stats.evictions)
                    .num("pt_buckets", u.predict_buckets.len())
                    .num("slots", u.slots.len()),
            );
            for (arrive, rays) in &u.incoming {
                emit(
                    Record::new("ckpt_inc").num("sm", sm).num("arrive", arrive).list("rays", rays),
                );
            }
            for (slot, w) in u.slots.iter().enumerate() {
                let Some(w) = w else { continue };
                emit(
                    Record::new("ckpt_slot")
                        .num("sm", sm)
                        .num("slot", slot)
                        .list("lanes", w.lanes.iter().map(|l| Opt(*l)))
                        .num("mode", w.mode)
                        .opt("restrict", w.restrict)
                        .num("ready_at", w.ready_at)
                        .num("mem_ready_at", w.mem_ready_at),
                );
            }
            for (treelet, rays) in &u.queues {
                emit(
                    Record::new("ckpt_queue")
                        .num("sm", sm)
                        .num("treelet", treelet)
                        .list("rays", rays),
                );
            }
            for (record, buckets) in [("ckpt_hw", &u.hw_buckets), ("ckpt_pt", &u.predict_buckets)] {
                for (bucket, entries) in buckets.iter().enumerate().filter(|(_, e)| !e.is_empty()) {
                    emit(
                        Record::new(record)
                            .num("sm", sm)
                            .num("bucket", bucket)
                            .pairs("entries", entries.iter().copied()),
                    );
                }
            }
            if !u.prefetched.is_empty() {
                let lines = u.prefetched.iter().map(|&(addr, used)| (addr, u8::from(used)));
                emit(Record::new("ckpt_pref").num("sm", sm).pairs("lines", lines));
            }
        }
        let m = &self.mem;
        emit(
            Record::new("ckpt_mem")
                .num("dram_free_at_bits", m.dram_free_at_bits)
                .num("fault_rng", m.fault_rng),
        );
        for (sm, pool) in m.mshrs.iter().enumerate() {
            emit(Record::new("ckpt_mshr").num("sm", sm).list("free_at", pool));
        }
        for (kind, k) in m.per_kind.iter().enumerate() {
            emit(
                Record::new("ckpt_kind")
                    .num("kind", kind)
                    .num("lines", k.lines)
                    .num("l1_hits", k.l1_hits)
                    .num("l2_hits", k.l2_hits)
                    .num("dram", k.dram)
                    .num("l1_lookups", k.l1_lookups),
            );
        }
        for w in &m.windows {
            emit(
                Record::new("ckpt_memwin")
                    .num("start_cycle", w.start_cycle)
                    .num("accesses", w.accesses)
                    .num("misses", w.misses),
            );
        }
        let l1s = m.l1s.iter().enumerate().map(|(i, c)| (format!("l1@{i}"), c));
        let shared = [("l2".to_string(), &m.l2), ("ray".to_string(), &m.ray_reserve)];
        for (name, cache) in l1s.chain(shared) {
            let lines =
                cache.lines.iter().map(|l| Pair(l.tag, Pair(l.last_used, u8::from(l.valid))));
            emit(
                Record::new("ckpt_cache")
                    .str("cache", name)
                    .num("accesses", cache.stats.accesses)
                    .num("hits", cache.stats.hits)
                    .list("lines", lines),
            );
        }
        emit(Record::new("ckpt_end").num("cycle", self.now));
        out
    }

    /// Parses a checkpoint written by [`Checkpoint::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ParseError`] locating the first corrupt frame,
    /// malformed line, missing field, geometry contradiction, or a
    /// missing terminal `ckpt_end` record (truncated file). Never panics.
    pub fn from_jsonl(text: &str) -> Result<Checkpoint, ParseError> {
        let mut lines =
            text.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| !l.trim().is_empty());
        let (header_no, header) =
            lines.next().ok_or_else(|| ParseError::at(0, "empty checkpoint"))?;
        let mut ckpt = Checkpoint::read_header(header).map_err(|r| ParseError::at(header_no, r))?;
        let mut ended = false;
        for (no, line) in lines {
            if ended {
                return Err(ParseError::at(no, "data after `ckpt_end`"));
            }
            ended = ckpt.read_record(line).map_err(|r| ParseError::at(no, r))?;
        }
        if !ended {
            return Err(ParseError::at(0, "truncated checkpoint: no `ckpt_end` record"));
        }
        if ckpt.stats.stall.len() != ckpt.num_sms {
            return Err(ParseError::at(
                0,
                format!("{} ckpt_stall records, expected {}", ckpt.stats.stall.len(), ckpt.num_sms),
            ));
        }
        Ok(ckpt)
    }

    /// The `checkpoint` header line: an otherwise-empty checkpoint of the
    /// declared geometry, for [`read_record`](Self::read_record) to fill.
    fn read_header(line: &str) -> Result<Checkpoint, String> {
        let line = check_line(line).map_err(|e| e.to_string())?;
        let f = parse_line(&line)?;
        if f.record() != Some("checkpoint") {
            return Err("expected a `checkpoint` header record".to_string());
        }
        let version = f.num("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let (num_sms, tasks): (usize, usize) = (f.num("num_sms")?, f.num("tasks")?);
        if num_sms == 0 || num_sms > 1 << 16 || tasks > 1 << 28 {
            return Err(format!("implausible geometry: {num_sms} SMs, {tasks} tasks"));
        }
        // Everything a body record fills starts empty; the two RNG
        // states start at a valid (non-zero) xorshift seed.
        Ok(Checkpoint {
            version,
            num_sms,
            tasks,
            total_rays: f.num("total_rays")?,
            config_tag: f.u64("config_tag")?,
            now: f.u64("cycle")?,
            jitter_state: 1,
            hits: vec![Vec::new(); tasks],
            rt: vec![RtUnitState::default(); num_sms],
            mem: MemSnapshot {
                l1s: vec![CacheSnapshot::default(); num_sms],
                mshrs: vec![Vec::new(); num_sms],
                fault_rng: 1,
                ..MemSnapshot::default()
            },
            ..Checkpoint::default()
        })
    }

    /// Applies one body line; `Ok(true)` for the terminal `ckpt_end`.
    #[allow(clippy::too_many_lines)]
    fn read_record(&mut self, line: &str) -> Result<bool, String> {
        let line = check_line(line).map_err(|e| e.to_string())?;
        let f = parse_line(&line)?;
        let (num_sms, tasks) = (self.num_sms, self.tasks);
        let sm_of = || -> Result<usize, String> {
            let sm: usize = f.num("sm")?;
            if sm >= num_sms {
                return Err(format!("SM index {sm} out of range (num_sms {num_sms})"));
            }
            Ok(sm)
        };
        // Index into a per-unit table whose size `ckpt_rt` declared.
        let slot_of = |key: &str, len: usize| -> Result<usize, String> {
            let i: usize = f.num(key)?;
            if i >= len {
                return Err(format!("{key} {i} out of range ({len}; is ckpt_rt missing?)"));
            }
            Ok(i)
        };
        match f.str("record")?.as_ref() {
            "ckpt_engine" => {
                self.next_sm = f.num("next_sm")?;
                self.last_audit = f.u64("last_audit")?;
                self.jitter_state = f.u64("jitter_state")?;
                self.sink_events = f.u64("sink_events")?;
                self.sabotage = f.opt::<Pair<u64, i64>>("sabotage")?.map(Into::into);
                self.pending = f.list("pending")?;
                self.timers = f.pairs("timers")?;
                self.resume_ready = f.list("resume_ready")?;
                self.shader_active = f.list("shader_active")?;
                self.reserved_rays = f.list("reserved_rays")?;
                self.slot_release = f.pairs("slot_release")?;
                self.free_slots = f.list("free_slots")?;
                self.last_progress = f.list("last_progress")?;
                for (name, len) in [
                    ("shader_active", self.shader_active.len()),
                    ("reserved_rays", self.reserved_rays.len()),
                    ("free_slots", self.free_slots.len()),
                    ("last_progress", self.last_progress.len()),
                ] {
                    if len != num_sms {
                        return Err(format!("`{name}` has {len} entries, expected {num_sms}"));
                    }
                }
            }
            "ckpt_stats" => {
                let s = &mut self.stats;
                s.cycles = f.u64("cycles")?;
                s.active_lane_steps = f.u64("active_lane_steps")?;
                s.total_lane_steps = f.u64("total_lane_steps")?;
                s.mode_cycles = triple(&f, "mode_cycles")?;
                s.mode_isect_tests = triple(&f, "mode_isect_tests")?;
                s.box_tests = f.u64("box_tests")?;
                s.tri_tests = f.u64("tri_tests")?;
                s.warps_issued = f.u64("warps_issued")?;
                s.repack_events = f.u64("repack_events")?;
                s.repacked_rays = f.u64("repacked_rays")?;
                s.treelet_dispatches = f.u64("treelet_dispatches")?;
                s.cta_suspends = f.u64("cta_suspends")?;
                s.cta_resumes = f.u64("cta_resumes")?;
                s.cta_state_bytes = f.u64("cta_state_bytes")?;
                s.peak_rays_in_flight = f.num("peak_rays_in_flight")?;
                s.prefetches_issued = f.u64("prefetches_issued")?;
                s.prefetch_lines = f.u64("prefetch_lines")?;
                s.prefetch_lines_used = f.u64("prefetch_lines_used")?;
                s.rays_completed = f.u64("rays_completed")?;
                s.queue_table_max_chain = f.num("queue_table_max_chain")?;
                s.queue_table_peak_entries = f.num("queue_table_peak_entries")?;
                s.queue_table_overflows = f.u64("queue_table_overflows")?;
                s.predict_lookups = f.u64("predict_lookups")?;
                s.predict_hits = f.u64("predict_hits")?;
                s.predict_inserts = f.u64("predict_inserts")?;
                s.predict_evictions = f.u64("predict_evictions")?;
            }
            "ckpt_stall" => {
                let (sm, expected): (usize, usize) = (f.num("sm")?, self.stats.stall.len());
                if sm != expected {
                    return Err(format!(
                        "ckpt_stall records out of order: got sm {sm}, expected {expected}"
                    ));
                }
                self.stats.stall.push(parse_stall(&f)?);
            }
            "ckpt_series" => self.stats.series.push(SamplePoint {
                start_cycle: f.u64("start_cycle")?,
                covered_cycles: f.u64("covered_cycles")?,
                ray_cycles: f.u64("ray_cycles")?,
                occupied_slot_cycles: f.u64("occupied_slot_cycles")?,
                mode_cycles: triple(&f, "mode_cycles")?,
                stall: parse_stall(&f)?,
            }),
            "ckpt_cta" => {
                let (id, expected): (usize, usize) = (f.num("id")?, self.ctas.len());
                if id != expected {
                    return Err(format!(
                        "ckpt_cta records out of order: got id {id}, expected {expected}"
                    ));
                }
                self.ctas.push(CtaState {
                    first_task: f.num("first_task")?,
                    task_count: f.num("task_count")?,
                    bounce: f.num("bounce")?,
                    phase: f.num("phase")?,
                    ready_at: f.u64("ready_at")?,
                    sm: sm_of()?,
                    outstanding: f.num("outstanding")?,
                    resume_queued: f.bool("resume_queued")?,
                });
            }
            "ckpt_ray" => {
                let stack = |key: &str| -> Result<Vec<StackEntry>, String> {
                    let entries = f.pairs(key)?;
                    Ok(entries
                        .into_iter()
                        .map(|(node, t_bits)| StackEntry { node, t_bits })
                        .collect())
                };
                self.rays.push(RayState {
                    traversal: RayTraversalState {
                        id: f.num("id")?,
                        origin_bits: triple(&f, "origin")?,
                        dir_bits: triple(&f, "dir")?,
                        inv_dir_bits: triple(&f, "inv_dir")?,
                        current_treelet: f.num("treelet")?,
                        current_stack: stack("cur_stack")?,
                        treelet_stack: stack("tre_stack")?,
                        best: f.opt::<Pair<u32, u32>>("best")?.map(Into::into),
                        best_node: f.opt("best_node")?,
                        t_min_bits: f.num("t_min")?,
                        t_max_bits: f.num("t_max")?,
                        limit_bits: f.num("limit")?,
                        anyhit: f.bool("anyhit")?,
                        nodes_visited: f.num("nodes")?,
                    },
                    cta: f.num("cta")?,
                    task: f.num("task")?,
                    bounce: f.num("bounce")?,
                    sm: sm_of()?,
                });
            }
            "ckpt_hits" => {
                let task: usize = f.num("task")?;
                if task >= tasks {
                    return Err(format!("task {task} out of range ({tasks} tasks)"));
                }
                let hits = f.list::<Opt<Pair<u32, u32>>>("hits")?;
                self.hits[task] = hits.into_iter().map(|h| h.0.map(Into::into)).collect();
            }
            "ckpt_rt" => {
                let unit = &mut self.rt[sm_of()?];
                unit.current_queue = f.opt("current_queue")?;
                unit.preloaded = f.opt("preloaded")?;
                unit.last_prefetch_at = f.u64("last_prefetch_at")?;
                unit.rays_in_flight = f.num("rays_in_flight")?;
                unit.last_mode = f.opt("last_mode")?;
                unit.queue_total = f.num("queue_total")?;
                unit.hw_live = f.num("hw_live")?;
                unit.hw_stats = QueueTableStats {
                    max_chain: f.num("hw_max_chain")?,
                    peak_entries: f.num("hw_peak")?,
                    overflows: f.u64("hw_overflows")?,
                    inserts: f.u64("hw_inserts")?,
                };
                let buckets: usize = f.num("hw_buckets")?;
                unit.predict_stats = PredictTableStats {
                    lookups: f.u64("pt_lookups")?,
                    hits: f.u64("pt_hits")?,
                    inserts: f.u64("pt_inserts")?,
                    evictions: f.u64("pt_evictions")?,
                };
                let (pt_buckets, slots): (usize, usize) = (f.num("pt_buckets")?, f.num("slots")?);
                if buckets > 1 << 24 || pt_buckets > 1 << 24 || slots > 1 << 16 {
                    return Err(format!(
                        "implausible RT-unit geometry: {buckets} buckets, \
                         {pt_buckets} predict buckets, {slots} slots"
                    ));
                }
                unit.hw_buckets = vec![Vec::new(); buckets];
                unit.predict_buckets = vec![Vec::new(); pt_buckets];
                unit.slots = vec![None; slots];
            }
            "ckpt_inc" => {
                let unit = &mut self.rt[sm_of()?];
                unit.incoming.push((f.u64("arrive")?, f.list("rays")?));
            }
            "ckpt_slot" => {
                let unit = &mut self.rt[sm_of()?];
                let slot = slot_of("slot", unit.slots.len())?;
                unit.slots[slot] = Some(WarpState {
                    lanes: f.list::<Opt<u32>>("lanes")?.into_iter().map(|l| l.0).collect(),
                    mode: f.num("mode")?,
                    restrict: f.opt("restrict")?,
                    ready_at: f.u64("ready_at")?,
                    mem_ready_at: f.u64("mem_ready_at")?,
                });
            }
            "ckpt_queue" => {
                let unit = &mut self.rt[sm_of()?];
                unit.queues.push((f.num("treelet")?, f.list("rays")?));
            }
            "ckpt_hw" => {
                let unit = &mut self.rt[sm_of()?];
                let bucket = slot_of("bucket", unit.hw_buckets.len())?;
                unit.hw_buckets[bucket] = f.pairs("entries")?;
            }
            "ckpt_pt" => {
                let unit = &mut self.rt[sm_of()?];
                let bucket = slot_of("bucket", unit.predict_buckets.len())?;
                unit.predict_buckets[bucket] = f.pairs("entries")?;
            }
            "ckpt_pref" => {
                let lines = f.pairs::<u64, u8>("lines")?;
                self.rt[sm_of()?].prefetched =
                    lines.into_iter().map(|(addr, used)| (addr, used != 0)).collect();
            }
            "ckpt_mem" => {
                self.mem.dram_free_at_bits = f.u64("dram_free_at_bits")?;
                self.mem.fault_rng = f.u64("fault_rng")?;
            }
            "ckpt_mshr" => self.mem.mshrs[sm_of()?] = f.list("free_at")?,
            "ckpt_kind" => {
                let kind = slot_of("kind", self.mem.per_kind.len())?;
                self.mem.per_kind[kind] = KindStats {
                    lines: f.u64("lines")?,
                    l1_hits: f.u64("l1_hits")?,
                    l2_hits: f.u64("l2_hits")?,
                    dram: f.u64("dram")?,
                    l1_lookups: f.u64("l1_lookups")?,
                };
            }
            "ckpt_memwin" => self.mem.windows.push(WindowPoint {
                start_cycle: f.u64("start_cycle")?,
                accesses: f.u64("accesses")?,
                misses: f.u64("misses")?,
            }),
            "ckpt_cache" => {
                let name = f.str("cache")?;
                let stats = CacheStats { accesses: f.u64("accesses")?, hits: f.u64("hits")? };
                let lines = f
                    .list::<Pair<u64, Pair<u64, u8>>>("lines")?
                    .into_iter()
                    .map(|Pair(tag, Pair(last_used, valid))| LineState {
                        tag,
                        last_used,
                        valid: valid != 0,
                    })
                    .collect();
                let snap = CacheSnapshot { lines, stats };
                match name.as_ref() {
                    "l2" => self.mem.l2 = snap,
                    "ray" => self.mem.ray_reserve = snap,
                    name => match name.strip_prefix("l1@").and_then(|i| i.parse::<usize>().ok()) {
                        Some(i) if i < num_sms => self.mem.l1s[i] = snap,
                        _ => return Err(format!("unknown cache `{name}`")),
                    },
                }
            }
            "ckpt_end" => {
                if f.u64("cycle")? != self.now {
                    return Err("`ckpt_end` cycle disagrees with header".to_string());
                }
                return Ok(true);
            }
            other => return Err(format!("unknown checkpoint record `{other}`")),
        }
        Ok(false)
    }
}

fn stall_fields(r: Record, b: &StallBreakdown) -> Record {
    StallKind::ALL.into_iter().fold(r, |r, kind| r.num(kind.label(), b.get(kind)))
}

fn parse_stall(f: &Fields<'_>) -> Result<StallBreakdown, String> {
    let mut b = StallBreakdown::default();
    for kind in StallKind::ALL {
        b.add(kind, f.u64(kind.label())?);
    }
    Ok(b)
}

fn triple<T: std::str::FromStr>(f: &Fields<'_>, key: &str) -> Result<[T; 3], String> {
    let values: Vec<T> = f.list(key)?;
    values.try_into().map_err(|_| format!("field `{key}` must hold 3 values"))
}
