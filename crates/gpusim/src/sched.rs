//! The CTA scheduler component (§3.1/§4.1): which CTA is in which phase,
//! which are waiting to launch or resume, the per-SM slot, shader-phase
//! and virtual-ray accounting that admission runs on, and the
//! scheduling-jitter RNG.
//!
//! The engine (`sim.rs`) drives the phase machine — launching, suspending
//! and resuming touch the memory system, the RT units and the trace sink
//! — so the fields are crate-visible; what lives here is the state, the
//! decisions that read only this state, and its checkpoint records.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::checkpoint::{in_range, index_of};
use crate::jsonl::{Fields, Record};
use crate::sim::Workload;
use crate::GpuConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for first launch.
    Pending,
    /// In a slot, running the raygen preamble; trace issues at `ready_at`.
    Raygen,
    /// In a slot, waiting for the RT unit (baseline only).
    WaitTraversal,
    /// Off-slot, rays in the RT unit (ray virtualization).
    Suspended,
    /// Rays finished at `ready_at`; waiting for a slot to resume into.
    ReadyToResume,
    /// In a slot, shading; advances to the next bounce at `ready_at`.
    Shade,
    /// All bounces complete.
    Done,
}

impl Phase {
    /// In declaration order: a phase's checkpoint code (`phase as u8`) is
    /// its position here.
    const ALL: [Phase; 7] = [
        Phase::Pending,
        Phase::Raygen,
        Phase::WaitTraversal,
        Phase::Suspended,
        Phase::ReadyToResume,
        Phase::Shade,
        Phase::Done,
    ];
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cta {
    pub(crate) first_task: usize,
    pub(crate) task_count: usize,
    pub(crate) bounce: usize,
    pub(crate) phase: Phase,
    pub(crate) ready_at: u64,
    pub(crate) sm: usize,
    pub(crate) outstanding: usize,
    pub(crate) resume_queued: bool,
}

/// A min-heap of `(cycle, id)` events. Pops always return the tuple
/// minimum, so the multiset of entries is the whole state: two heaps are
/// equal, and checkpoint identically, when their sorted contents are.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventHeap(BinaryHeap<Reverse<(u64, usize)>>);

impl EventHeap {
    pub(crate) fn push(&mut self, at: u64, id: usize) {
        self.0.push(Reverse((at, id)));
    }

    /// The earliest event.
    pub(crate) fn peek(&self) -> Option<(u64, usize)> {
        self.0.peek().map(|Reverse(e)| *e)
    }

    /// Pops the earliest event if it is due at `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, usize)> {
        let due = self.peek().filter(|(at, _)| *at <= now);
        if due.is_some() {
            self.0.pop();
        }
        due
    }

    fn sorted(&self) -> Vec<(u64, usize)> {
        let mut v: Vec<(u64, usize)> = self.0.iter().map(|Reverse(e)| *e).collect();
        v.sort_unstable();
        v
    }

    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().map(|Reverse((_, id))| *id)
    }
}

impl PartialEq for EventHeap {
    fn eq(&self, other: &EventHeap) -> bool {
        self.0.len() == other.0.len() && self.sorted() == other.sorted()
    }
}

impl FromIterator<(u64, usize)> for EventHeap {
    fn from_iter<I: IntoIterator<Item = (u64, usize)>>(events: I) -> EventHeap {
        EventHeap(events.into_iter().map(Reverse).collect())
    }
}

/// The scheduler's state; see the [module docs](self). The live struct is
/// the checkpointed struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CtaScheduler {
    pub(crate) ctas: Vec<Cta>,
    /// CTAs not yet launched, in launch order.
    pub(crate) pending: VecDeque<usize>,
    /// CTA phase timers `(ready_at, cta)`. Entries may be stale; they are
    /// validated against the CTA's current `ready_at` when popped.
    pub(crate) timers: EventHeap,
    /// CTAs whose rays are done and that are waiting for a free slot.
    /// Order is state (`swap_remove` scanning).
    pub(crate) resume_ready: Vec<usize>,
    /// Deferred slot releases `(cycle, sm)`: a suspending CTA's slot (and
    /// register file) is only reusable once its state save has drained.
    pub(crate) slot_release: EventHeap,
    pub(crate) free_slots: Vec<usize>,
    /// Per-SM count of CTAs currently executing a shader phase (raygen or
    /// shading), for the optional CUDA-core contention model.
    pub(crate) shader_active: Vec<usize>,
    /// Per-SM rays reserved by admitted-but-not-yet-issued CTAs, so the
    /// virtualized-ray cap holds across the raygen/shade latency between
    /// admission and the actual trace issue.
    pub(crate) reserved_rays: Vec<usize>,
    /// CTAs in [`Phase::Done`]; the run ends when all are. Derived: never
    /// checkpointed, recounted as `ckpt_cta` lines are read.
    retired: usize,
    /// Round-robin cursor of the slot search.
    next_sm: usize,
    /// xorshift state for the scheduling-jitter draw (never zero).
    jitter_state: u64,
}

impl CtaScheduler {
    /// Every task of `workload` grouped into CTAs of `cfg.cta_size`, all
    /// pending, on an empty machine.
    pub(crate) fn new(cfg: &GpuConfig, workload: &Workload) -> CtaScheduler {
        let (num_sms, tasks) = (cfg.num_sms(), workload.tasks.len());
        let ctas: Vec<Cta> = (0..tasks)
            .step_by(cfg.cta_size)
            .map(|first| Cta {
                first_task: first,
                task_count: cfg.cta_size.min(tasks - first),
                bounce: 0,
                phase: Phase::Pending,
                ready_at: 0,
                sm: 0,
                outstanding: 0,
                resume_queued: false,
            })
            .collect();
        CtaScheduler {
            pending: (0..ctas.len()).collect(),
            ctas,
            timers: EventHeap::default(),
            resume_ready: Vec::new(),
            slot_release: EventHeap::default(),
            free_slots: vec![cfg.max_ctas_per_sm; num_sms],
            shader_active: vec![0; num_sms],
            reserved_rays: vec![0; num_sms],
            retired: 0,
            next_sm: 0,
            jitter_state: cfg
                .sched_jitter_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xD1B5_4A32_D192_ED03)
                | 1,
        }
    }

    pub(crate) fn all_done(&self) -> bool {
        self.retired == self.ctas.len()
    }

    /// CTAs not yet in [`Phase::Done`].
    pub(crate) fn unfinished(&self) -> usize {
        self.ctas.len() - self.retired
    }

    /// CTA `id` has finished its last bounce: it is done and its slot is
    /// free.
    pub(crate) fn retire(&mut self, id: usize) {
        let cta = &mut self.ctas[id];
        cta.phase = Phase::Done;
        self.free_slots[cta.sm] += 1;
        self.retired += 1;
    }

    /// Returns slots whose deferred release is due at `now`.
    pub(crate) fn release_slots(&mut self, now: u64) -> bool {
        let mut progress = false;
        while let Some((_, sm)) = self.slot_release.pop_due(now) {
            self.free_slots[sm] += 1;
            progress = true;
        }
        progress
    }

    /// The next SM (round robin) with a free slot that `admit(sm)` accepts.
    pub(crate) fn find_slot(
        &mut self,
        admit: impl Fn(&CtaScheduler, usize) -> bool,
    ) -> Option<usize> {
        let n = self.free_slots.len();
        let sm = (0..n)
            .map(|i| (self.next_sm + i) % n)
            .find(|&sm| self.free_slots[sm] > 0 && admit(self, sm))?;
        self.next_sm = (sm + 1) % n;
        Some(sm)
    }

    /// Duration of a shader phase of nominal `base` cycles on `sm`,
    /// stretched by CUDA-core contention when enabled and by the optional
    /// fault-injection scheduling jitter. Call *after* incrementing
    /// `shader_active[sm]` for the entering CTA.
    pub(crate) fn shader_phase_cycles(&mut self, cfg: &GpuConfig, sm: usize, base: u32) -> u64 {
        let nominal = match cfg.shader_slots_per_sm {
            0 => base as u64,
            slots => {
                let active = self.shader_active[sm].max(1) as u64;
                base as u64 * active.div_ceil(slots as u64)
            }
        };
        if cfg.sched_jitter_cycles == 0 {
            return nominal;
        }
        // One xorshift64 step of the jitter RNG.
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        nominal + x % (cfg.sched_jitter_cycles as u64 + 1)
    }

    // -- checkpoint records ---------------------------------------------------

    /// The `ckpt_engine` line: the scheduler's scalars and queues.
    pub(crate) fn engine_record(&self) -> Record {
        Record::new("ckpt_engine")
            .num("next_sm", self.next_sm)
            .num("jitter_state", self.jitter_state)
            .list("pending", &self.pending)
            .pairs("timers", self.timers.sorted())
            .list("resume_ready", &self.resume_ready)
            .list("shader_active", &self.shader_active)
            .list("reserved_rays", &self.reserved_rays)
            .pairs("slot_release", self.slot_release.sorted())
            .list("free_slots", &self.free_slots)
    }

    /// One `ckpt_cta` line per CTA, in id order.
    pub(crate) fn write_ctas(&self, emit: &mut dyn FnMut(Record)) {
        for (id, c) in self.ctas.iter().enumerate() {
            emit(
                Record::new("ckpt_cta")
                    .num("id", id)
                    .num("first_task", c.first_task)
                    .num("task_count", c.task_count)
                    .num("bounce", c.bounce)
                    .num("phase", c.phase as u8)
                    .num("ready_at", c.ready_at)
                    .num("sm", c.sm)
                    .num("outstanding", c.outstanding)
                    .num("resume_queued", u8::from(c.resume_queued)),
            );
        }
    }

    /// Applies the `ckpt_engine` line.
    pub(crate) fn read_engine(&mut self, f: &Fields<'_>) -> Result<(), String> {
        self.next_sm = f.num("next_sm")?;
        self.jitter_state = f.u64("jitter_state")?;
        self.pending = f.list("pending")?.into();
        self.timers = f.pairs("timers")?.into_iter().collect();
        self.resume_ready = f.list("resume_ready")?;
        self.shader_active = f.list("shader_active")?;
        self.reserved_rays = f.list("reserved_rays")?;
        self.slot_release = f.pairs("slot_release")?.into_iter().collect();
        self.free_slots = f.list("free_slots")?;
        Ok(())
    }

    /// Applies one `ckpt_cta` line; they must arrive in id order.
    pub(crate) fn read_cta(&mut self, f: &Fields<'_>, num_sms: usize) -> Result<(), String> {
        let (id, expected): (usize, usize) = (f.num("id")?, self.ctas.len());
        if id != expected {
            return Err(format!("ckpt_cta records out of order: got id {id}, expected {expected}"));
        }
        let phase = Phase::ALL[index_of(f, "phase", Phase::ALL.len())?];
        self.retired += usize::from(phase == Phase::Done);
        self.ctas.push(Cta {
            first_task: f.num("first_task")?,
            task_count: f.num("task_count")?,
            bounce: f.num("bounce")?,
            phase,
            ready_at: f.u64("ready_at")?,
            sm: index_of(f, "sm", num_sms)?,
            outstanding: f.num("outstanding")?,
            resume_queued: f.bool("resume_queued")?,
        });
        Ok(())
    }

    /// Checks restored state against `fresh`, the scheduler the target
    /// simulator builds for its own workload and machine: same CTA layout,
    /// per-SM vectors of the machine's size, every CTA and SM id the
    /// engine will index with in range (a CTA's own `sm` was checked
    /// against the header's SM count when read), a live RNG.
    pub(crate) fn validate(&self, fresh: &CtaScheduler) -> Result<(), String> {
        let (nctas, n) = (fresh.ctas.len(), fresh.free_slots.len());
        if self.ctas.len() != nctas {
            return Err(format!(
                "checkpoint has {} CTAs, workload builds {nctas}",
                self.ctas.len()
            ));
        }
        if self.jitter_state == 0 {
            return Err("jitter RNG state must be non-zero".to_string());
        }
        for (name, len) in [
            ("shader_active", self.shader_active.len()),
            ("reserved_rays", self.reserved_rays.len()),
            ("free_slots", self.free_slots.len()),
        ] {
            if len != n {
                return Err(format!("`{name}` has {len} entries, expected {n}"));
            }
        }
        let cta_ids = self.pending.iter().chain(&self.resume_ready).copied();
        in_range("CTA id", cta_ids.chain(self.timers.ids()), nctas)?;
        in_range("slot-release SM", self.slot_release.ids(), n)?;
        in_range("scheduler cursor SM", [self.next_sm], n)?;
        for (id, (c, own)) in self.ctas.iter().zip(&fresh.ctas).enumerate() {
            if c.first_task != own.first_task || c.task_count != own.task_count {
                return Err(format!(
                    "CTA {id} covers tasks {}+{} in the checkpoint but {}+{} here \
                     (different workload or cta_size)",
                    c.first_task, c.task_count, own.first_task, own.task_count
                ));
            }
        }
        Ok(())
    }

    /// Slot accounting can never exceed the hardware capacity
    /// (`cta-slots`), and the retired count is the number of CTAs in
    /// [`Phase::Done`] (`cta-retired`).
    pub(crate) fn audit(&self, capacity: usize) -> Result<(), (&'static str, String)> {
        if let Some((sm, free)) = self.free_slots.iter().enumerate().find(|(_, &f)| f > capacity) {
            return Err(("cta-slots", format!("sm {sm}: {free} free slots > capacity {capacity}")));
        }
        let done = self.ctas.iter().filter(|c| c.phase == Phase::Done).count();
        if done != self.retired {
            return Err((
                "cta-retired",
                format!("retired count {} != {done} CTAs done", self.retired),
            ));
        }
        Ok(())
    }

    /// Skews the retired count without retiring a CTA, so the next audit
    /// trips the `cta-retired` invariant.
    #[cfg(test)]
    pub(crate) fn corrupt_retired(&mut self, delta: isize) {
        self.retired = self.retired.saturating_add_signed(delta);
    }

    /// Starts a shader phase on `sm` without the engine marking the SM's
    /// RT unit, so the next audit trips the `stall-class` invariant.
    #[cfg(test)]
    pub(crate) fn corrupt_shader_active(&mut self, sm: usize) {
        self.shader_active[sm] += 1;
    }
}
