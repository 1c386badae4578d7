//! Versioned, bit-exact simulator checkpoints.
//!
//! A [`Checkpoint`] is the engine's architectural state at a quiescent
//! point of the event-driven clock, held as clones of the engine's own
//! components — the CTA scheduler ([`sched`](crate::sched)), one RT unit
//! per SM ([`rt_unit`](crate::rt_unit)) and the observer
//! ([`observer`](crate::observer)) — plus the memory hierarchy's
//! [`MemSnapshot`] and each ray's position in its call
//! ([`ray_table`](crate::ray_table)), from which a restore re-issues the
//! ray. There is no second declaration of a component: the live struct
//! is the checkpointed struct, and each component writes, reads,
//! validates and audits its own records next to its definition. Resuming
//! with [`RunOptions::resume`](crate::RunOptions::resume) produces a final
//! [`SimStats`](crate::SimStats) bit-identical to the uninterrupted run.
//!
//! This module is the composition: the header, the order the components'
//! records appear in, the reader that hands each record to its owner, and
//! the memory-hierarchy records (`gpumem` sits below the codec, so they
//! are written here). The on-disk form is [`crate::jsonl`] flat JSONL, one
//! checksum-framed record per line; a terminal `ckpt_end` guards against
//! truncation and [`Checkpoint::from_jsonl`] returns a typed
//! [`ParseError`] for any corruption, never a panic. Adding state is one
//! field, one `.num(..)` in its component's writer and one `f.num(..)?`
//! in its reader, all in the component's file — and a
//! [`CHECKPOINT_VERSION`] bump, which the format pin in
//! `tests/checkpoint.rs` enforces.

use std::hash::Hasher as _;

use gpumem::{CacheSnapshot, CacheStats, KindStats, LineState, MemSnapshot, WindowPoint};
use rtbvh::Bvh;

use crate::export::ParseError;
use crate::jsonl::{check_line, parse_line, Fields, Fnv1a, Pair, Record};
use crate::observer::Observer;
use crate::ray_table::RayPositions;
use crate::rt_unit::RtUnit;
use crate::sched::CtaScheduler;
use crate::sim::Workload;
use crate::GpuConfig;

/// Format version written into every checkpoint header; bumped on any
/// schema change a reader could misread, so stale snapshots are rejected
/// instead. (Dropping a key that carried no state is not one: a reader
/// ignores a key it does not know and refuses a record that lacks one
/// it needs.)
/// Version 2 added the ray-path prediction table (per-unit buckets +
/// stats, per-ray `best_node`) and the predict counters in `ckpt_stats`.
/// Version 3 records each ray as its position (`steps`, `lead`) instead
/// of its stacks, the BVH's node count in the header, and the observer's
/// scalars on a `ckpt_observer` line of their own.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Fingerprint of a [`GpuConfig`] (FNV-1a over its debug form), stored in
/// the checkpoint header so a resume against a different configuration is
/// rejected up front.
pub fn config_tag(cfg: &GpuConfig) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(format!("{cfg:?}").as_bytes());
    hash.finish()
}

/// `Err` unless every one of `ids` (`what` names them) indexes inside a
/// table of `len` entries. The components' `validate`s run every id the
/// cycle loop will index with through this.
pub(crate) fn in_range(
    what: &str,
    ids: impl IntoIterator<Item = usize>,
    len: usize,
) -> Result<(), String> {
    match ids.into_iter().find(|id| *id >= len) {
        Some(id) => Err(format!("{what} {id} out of range ({len})")),
        None => Ok(()),
    }
}

/// An index field of a checkpoint record, checked against the size of
/// what it indexes.
pub(crate) fn index_of(f: &Fields<'_>, key: &str, len: usize) -> Result<usize, String> {
    let i: usize = f.num(key)?;
    in_range(key, [i], len).map(|()| i)
}

/// Record kinds a checkpoint holds exactly one of; a repeat would silently
/// overwrite the first.
const ONCE: [&str; 4] = ["ckpt_engine", "ckpt_observer", "ckpt_stats", "ckpt_mem"];

/// A complete simulator checkpoint; see the [module docs](self).
///
/// Produced by
/// [`Simulator::try_run_checkpointed`](crate::Simulator::try_run_checkpointed),
/// consumed by [`RunOptions::resume`](crate::RunOptions::resume),
/// persisted via [`Checkpoint::to_jsonl`] / [`Checkpoint::from_jsonl`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) version: u32,
    pub(crate) num_sms: usize,
    pub(crate) tasks: usize,
    pub(crate) total_rays: usize,
    /// Node count of the BVH the rays' steps walk.
    pub(crate) nodes: usize,
    pub(crate) config_tag: u64,
    pub(crate) now: u64,
    pub(crate) sched: CtaScheduler,
    pub(crate) rays: RayPositions,
    pub(crate) rt: Vec<RtUnit>,
    pub(crate) obs: Observer,
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

    /// Checks the header against the simulator about to restore it: same
    /// configuration, machine size, workload shape and BVH node count.
    /// (The version needs no check here: capture writes the current one
    /// and [`from_jsonl`](Self::from_jsonl) accepts no other.)
    pub(crate) fn check_header(
        &self,
        cfg: &GpuConfig,
        workload: &Workload,
        bvh: &Bvh,
    ) -> Result<(), String> {
        if self.config_tag != config_tag(cfg) {
            return Err(format!(
                "config fingerprint {:#x} does not match the simulator's {:#x}",
                self.config_tag,
                config_tag(cfg)
            ));
        }
        if self.num_sms != cfg.num_sms() || self.rt.len() != cfg.num_sms() {
            return Err(format!(
                "checkpoint has {} SMs, simulator has {}",
                self.num_sms,
                cfg.num_sms()
            ));
        }
        if self.tasks != workload.tasks.len() || self.total_rays != workload.total_rays() {
            return Err(format!(
                "checkpoint workload shape ({} tasks, {} rays) does not match \
                 ({} tasks, {} rays)",
                self.tasks,
                self.total_rays,
                workload.tasks.len(),
                workload.total_rays()
            ));
        }
        if self.nodes != bvh.nodes().len() {
            return Err(format!(
                "checkpoint was taken over a BVH of {} nodes, the simulator's has {}",
                self.nodes,
                bvh.nodes().len()
            ));
        }
        Ok(())
    }

    /// Serializes to flat JSONL, every line checksum-framed; inverse of
    /// [`Checkpoint::from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let emit = &mut |r: Record| {
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
                .num("nodes", self.nodes)
                .num("config_tag", self.config_tag),
        );
        emit(self.sched.engine_record());
        self.obs.write_jsonl(emit);
        self.sched.write_ctas(emit);
        self.rays.write_jsonl(emit);
        for (sm, unit) in self.rt.iter().enumerate() {
            unit.write_jsonl(sm, emit);
        }
        write_mem(&self.mem, emit);
        emit(Record::new("ckpt_end").num("cycle", self.now));
        out
    }

    /// Parses a checkpoint written by [`Checkpoint::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ParseError`] locating the first corrupt frame,
    /// malformed line, missing field, geometry contradiction, repeated
    /// one-per-checkpoint record, or a missing terminal `ckpt_end` record
    /// (truncated file). Never panics.
    pub fn from_jsonl(text: &str) -> Result<Checkpoint, ParseError> {
        let mut lines =
            text.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| !l.trim().is_empty());
        let (header_no, header) =
            lines.next().ok_or_else(|| ParseError::at(0, "empty checkpoint"))?;
        let mut ckpt = Checkpoint::read_header(header).map_err(|r| ParseError::at(header_no, r))?;
        let mut seen_once = [false; ONCE.len()];
        let mut ended = false;
        for (no, line) in lines {
            if ended {
                return Err(ParseError::at(no, "data after `ckpt_end`"));
            }
            ended = ckpt.read_record(line, &mut seen_once).map_err(|r| ParseError::at(no, r))?;
        }
        if !ended {
            return Err(ParseError::at(0, "truncated checkpoint: no `ckpt_end` record"));
        }
        let stalls = ckpt.obs.stats.stall.len();
        if stalls != ckpt.num_sms {
            return Err(ParseError::at(
                0,
                format!("{stalls} ckpt_stall records, expected {}", ckpt.num_sms),
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
        // Everything a body record fills starts empty; the memory fault
        // RNG starts at a valid (non-zero) xorshift seed.
        Ok(Checkpoint {
            version,
            num_sms,
            tasks,
            total_rays: f.num("total_rays")?,
            nodes: f.num("nodes")?,
            config_tag: f.u64("config_tag")?,
            now: f.u64("cycle")?,
            sched: CtaScheduler::default(),
            rays: RayPositions::empty(tasks),
            rt: vec![RtUnit::default(); num_sms],
            obs: Observer::default(),
            mem: MemSnapshot {
                l1s: vec![CacheSnapshot::default(); num_sms],
                mshrs: vec![Vec::new(); num_sms],
                fault_rng: 1,
                ..MemSnapshot::default()
            },
        })
    }

    /// Hands one body line to the component that owns its record kind;
    /// `Ok(true)` for the terminal `ckpt_end`. `seen_once` marks the
    /// [`ONCE`] kinds met so far.
    fn read_record(
        &mut self,
        line: &str,
        seen_once: &mut [bool; ONCE.len()],
    ) -> Result<bool, String> {
        let line = check_line(line).map_err(|e| e.to_string())?;
        let f = parse_line(&line)?;
        let kind = f.str("record")?;
        let kind = kind.as_ref();
        if let Some(i) = ONCE.iter().position(|k| *k == kind) {
            if std::mem::replace(&mut seen_once[i], true) {
                return Err(format!("a second `{kind}` record"));
            }
        }
        match kind {
            "ckpt_engine" => self.sched.read_engine(&f)?,
            "ckpt_observer" | "ckpt_stats" | "ckpt_stall" | "ckpt_series" => {
                self.obs.read_record(kind, &f)?
            }
            "ckpt_cta" => self.sched.read_cta(&f, self.num_sms)?,
            "ckpt_ray" => self.rays.read_ray(&f, self.num_sms)?,
            "ckpt_hits" => self.rays.read_hits(&f)?,
            "ckpt_rt" | "ckpt_inc" | "ckpt_slot" | "ckpt_queue" | "ckpt_hw" | "ckpt_pt"
            | "ckpt_pref" => {
                let sm = index_of(&f, "sm", self.num_sms)?;
                self.rt[sm].read_record(kind, &f)?;
            }
            "ckpt_mem" | "ckpt_mshr" | "ckpt_kind" | "ckpt_memwin" | "ckpt_cache" => {
                read_mem(&mut self.mem, kind, &f)?;
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

/// The memory hierarchy's records: `ckpt_mem`, `ckpt_mshr` per SM,
/// `ckpt_kind` per access kind, `ckpt_memwin` per miss-rate window and
/// `ckpt_cache` per cache (lines as `tag:last_used:valid`).
fn write_mem(m: &MemSnapshot, emit: &mut dyn FnMut(Record)) {
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
        let lines = cache.lines.iter().map(|l| Pair(l.tag, Pair(l.last_used, u8::from(l.valid))));
        emit(
            Record::new("ckpt_cache")
                .str("cache", name)
                .num("accesses", cache.stats.accesses)
                .num("hits", cache.stats.hits)
                .list("lines", lines),
        );
    }
}

/// Applies one memory-hierarchy record (`m` is pre-sized for the header's
/// SM count).
fn read_mem(m: &mut MemSnapshot, kind: &str, f: &Fields<'_>) -> Result<(), String> {
    match kind {
        "ckpt_mem" => {
            m.dram_free_at_bits = f.u64("dram_free_at_bits")?;
            m.fault_rng = f.u64("fault_rng")?;
        }
        "ckpt_mshr" => {
            let sm = index_of(f, "sm", m.mshrs.len())?;
            m.mshrs[sm] = f.list("free_at")?;
        }
        "ckpt_kind" => {
            let kind = index_of(f, "kind", m.per_kind.len())?;
            m.per_kind[kind] = KindStats {
                lines: f.u64("lines")?,
                l1_hits: f.u64("l1_hits")?,
                l2_hits: f.u64("l2_hits")?,
                dram: f.u64("dram")?,
                l1_lookups: f.u64("l1_lookups")?,
            };
        }
        "ckpt_memwin" => m.windows.push(WindowPoint {
            start_cycle: f.u64("start_cycle")?,
            accesses: f.u64("accesses")?,
            misses: f.u64("misses")?,
        }),
        _ => {
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
                "l2" => m.l2 = snap,
                "ray" => m.ray_reserve = snap,
                name => match name.strip_prefix("l1@").and_then(|i| i.parse::<usize>().ok()) {
                    Some(i) if i < m.l1s.len() => m.l1s[i] = snap,
                    _ => return Err(format!("unknown cache `{name}`")),
                },
            }
        }
    }
    Ok(())
}
