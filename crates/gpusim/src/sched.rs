//! The CTA scheduler component (§3.1/§4.1): which CTA is in which phase,
//! which are waiting to launch or resume, the per-SM slot, shader-phase
//! and virtual-ray accounting that admission runs on, and the
//! scheduling-jitter RNG.
//!
//! The scheduler runs its own phase machine (launch, resume, suspend or
//! wait at trace issue, a ray's completion, due timers, slot releases);
//! the engine (`sim.rs`) calls these methods and reads none of its
//! fields. What a transition also touches (the memory system, the RT
//! units, the trace sink) stays with the engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

use crate::checkpoint::{in_range, index_of};
use crate::error::ForensicsSnapshot;
use crate::jsonl::{Fields, Record};
use crate::sim::Workload;
use crate::GpuConfig;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for first launch.
    #[default]
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

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Cta {
    first_task: usize,
    task_count: usize,
    bounce: usize,
    phase: Phase,
    ready_at: u64,
    sm: usize,
    outstanding: usize,
    resume_queued: bool,
}

/// A min-heap of `(cycle, id)` events. Pops always return the tuple
/// minimum, so the multiset of entries is the whole state: two heaps are
/// equal, and checkpoint identically, when their sorted contents are.
#[derive(Debug, Clone, Default)]
struct EventHeap(BinaryHeap<Reverse<(u64, usize)>>);

impl EventHeap {
    fn push(&mut self, at: u64, id: usize) {
        self.0.push(Reverse((at, id)));
    }

    /// The earliest event.
    fn peek(&self) -> Option<(u64, usize)> {
        self.0.peek().map(|Reverse(e)| *e)
    }

    /// Pops the earliest event if it is due at `now`.
    fn pop_due(&mut self, now: u64) -> Option<(u64, usize)> {
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
    ctas: Vec<Cta>,
    /// CTAs not yet launched, in launch order.
    pending: VecDeque<usize>,
    /// CTA phase timers `(ready_at, cta)`. Entries may be stale; they are
    /// validated against the CTA's current `ready_at` when popped.
    timers: EventHeap,
    /// CTAs whose rays are done and that are waiting for a free slot.
    /// Order is state (`swap_remove` scanning).
    resume_ready: Vec<usize>,
    /// Deferred slot releases `(cycle, sm)`: a suspending CTA's slot (and
    /// register file) is only reusable once its state save has drained.
    slot_release: EventHeap,
    free_slots: Vec<usize>,
    /// Sum of `free_slots`, so a full machine turns a slot search away at
    /// once. Derived: never checkpointed, recounted as `ckpt_engine` is
    /// read.
    free_total: usize,
    /// Per-SM count of CTAs currently executing a shader phase (raygen or
    /// shading), for the optional CUDA-core contention model.
    shader_active: Vec<usize>,
    /// Per-SM rays reserved by admitted-but-not-yet-issued CTAs, so the
    /// virtualized-ray cap holds across the raygen/shade latency between
    /// admission and the actual trace issue.
    reserved_rays: Vec<usize>,
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
                ..Cta::default()
            })
            .collect();
        CtaScheduler {
            pending: (0..ctas.len()).collect(),
            ctas,
            free_slots: vec![cfg.max_ctas_per_sm; num_sms],
            free_total: cfg.max_ctas_per_sm * num_sms,
            shader_active: vec![0; num_sms],
            reserved_rays: vec![0; num_sms],
            jitter_state: cfg
                .sched_jitter_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xD1B5_4A32_D192_ED03)
                | 1,
            ..CtaScheduler::default()
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
        self.ctas[id].phase = Phase::Done;
        self.retired += 1;
        self.free_slot(self.ctas[id].sm);
    }

    pub(crate) fn cta_count(&self) -> usize {
        self.ctas.len()
    }

    /// Whether a shader phase (raygen or shading) runs on `sm`: what
    /// [`RtUnit::stall_class`](crate::rt_unit::RtUnit::stall_class) reads
    /// of the scheduler.
    pub(crate) fn shading(&self, sm: usize) -> bool {
        self.shader_active[sm] > 0
    }

    /// CTA slots occupied machine-wide, of `per_sm` on each SM.
    pub(crate) fn occupied_slots(&self, per_sm: usize) -> u64 {
        (self.free_slots.len() * per_sm).saturating_sub(self.free_total) as u64
    }

    /// The cycles the scheduler next has something to do at: the earliest
    /// phase timer and slot release.
    pub(crate) fn wake_cycles(&self) -> impl Iterator<Item = u64> {
        let next = [self.timers.peek(), self.slot_release.peek()];
        next.into_iter().flatten().map(|(at, _)| at)
    }

    /// The scheduler's part of a watchdog snapshot.
    pub(crate) fn forensics(&self, snapshot: &mut ForensicsSnapshot) {
        snapshot.ctas_total = self.ctas.len();
        snapshot.ctas_unfinished = self.unfinished();
        snapshot.pending_ctas = self.pending.len();
        snapshot.resume_ready_ctas = self.resume_ready.len();
        for (sm, s) in snapshot.sms.iter_mut().enumerate() {
            s.free_cta_slots = self.free_slots[sm];
            s.shader_active = self.shader_active[sm];
            s.reserved_rays = self.reserved_rays[sm];
        }
    }

    /// Returns slots whose deferred release is due at `now`.
    pub(crate) fn release_slots(&mut self, now: u64) -> bool {
        let mut progress = false;
        while let Some((_, sm)) = self.slot_release.pop_due(now) {
            self.free_slot(sm);
            progress = true;
        }
        progress
    }

    /// Takes the head of the resume list into the next free slot; returns
    /// the CTA and its SM.
    pub(crate) fn resume(&mut self) -> Option<(usize, usize)> {
        if self.resume_ready.is_empty() {
            return None;
        }
        let sm = self.find_slot(|_, _| true)?;
        let id = self.resume_ready.swap_remove(0);
        self.ctas[id].resume_queued = false;
        self.place(id, sm);
        Some((id, sm))
    }

    /// Takes the next pending CTA into the next free slot; returns it and
    /// its SM. Under ray virtualization `cap` is `(max virtual rays, rays
    /// per CTA)`: the SM must also have room for the CTA's rays beside the
    /// `in_flight(sm)` rays on its unit and the rays reserved by earlier
    /// launches, and the CTA's rays are reserved until its first trace.
    pub(crate) fn launch(
        &mut self,
        cap: Option<(usize, usize)>,
        in_flight: impl Fn(usize) -> usize,
    ) -> Option<(usize, usize)> {
        let &id = self.pending.front()?;
        let sm = self.find_slot(|s, sm| {
            cap.is_none_or(|(max, rays)| in_flight(sm) + s.reserved_rays[sm] + rays <= max)
        })?;
        self.pending.pop_front();
        self.place(id, sm);
        self.reserved_rays[sm] += cap.map_or(0, |(_, rays)| rays);
        Some((id, sm))
    }

    /// CTA `id` takes a slot on `sm`.
    fn place(&mut self, id: usize, sm: usize) {
        self.ctas[id].sm = sm;
        self.free_slots[sm] -= 1;
        self.free_total -= 1;
    }

    /// A slot on `sm` is free again.
    fn free_slot(&mut self, sm: usize) {
        self.free_slots[sm] += 1;
        self.free_total += 1;
    }

    /// The next SM (round robin) with a free slot that `admit(sm)` accepts.
    fn find_slot(&mut self, admit: impl Fn(&CtaScheduler, usize) -> bool) -> Option<usize> {
        if self.free_total == 0 {
            return None;
        }
        let n = self.free_slots.len();
        let sm = (0..n)
            .map(|i| (self.next_sm + i) % n)
            .find(|&sm| self.free_slots[sm] > 0 && admit(self, sm))?;
        self.next_sm = (sm + 1) % n;
        Some(sm)
    }

    /// CTA `id` starts a shader `phase` (raygen or shading) in its slot at
    /// cycle `start`; its timer is due when the phase ends. Returns the
    /// CTA's SM, whose shader count rose: the caller marks its RT unit.
    pub(crate) fn start_shader(
        &mut self,
        cfg: &GpuConfig,
        id: usize,
        phase: Phase,
        start: u64,
    ) -> usize {
        let sm = self.ctas[id].sm;
        self.shader_active[sm] += 1;
        let base = if phase == Phase::Raygen { cfg.raygen_cycles } else { cfg.shade_cycles };
        let cycles = self.shader_phase_cycles(cfg, sm, base);
        self.enter_phase(id, phase, start + cycles);
        sm
    }

    /// Duration of a shader phase of nominal `base` cycles on `sm`,
    /// stretched by CUDA-core contention when enabled and by the optional
    /// fault-injection scheduling jitter. Call *after* incrementing
    /// `shader_active[sm]` for the entering CTA.
    fn shader_phase_cycles(&mut self, cfg: &GpuConfig, sm: usize, base: u32) -> u64 {
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

    /// Puts CTA `id` into `phase`, due at `ready_at`.
    fn enter_phase(&mut self, id: usize, phase: Phase, ready_at: u64) {
        let cta = &mut self.ctas[id];
        cta.phase = phase;
        cta.ready_at = ready_at;
        self.timers.push(ready_at, id);
    }

    /// Pops the phase timers due at `now` up to the next one that ends a
    /// raygen or shading phase, and returns that CTA and its SM: the SM's
    /// shader count has dropped, and the CTA issues its next trace. A CTA
    /// whose rays finished joins the resume queue on the way, and sets
    /// `queued`. Stale timers (not the CTA's current `ready_at`) are
    /// dropped.
    pub(crate) fn pop_due(&mut self, now: u64, queued: &mut bool) -> Option<(usize, usize)> {
        while let Some((at, id)) = self.timers.pop_due(now) {
            let cta = &mut self.ctas[id];
            match cta.phase {
                _ if cta.ready_at != at => {}
                Phase::Raygen | Phase::Shade => {
                    // Shading ends a bounce; raygen precedes the first.
                    if cta.phase == Phase::Shade {
                        cta.bounce += 1;
                    }
                    let active = &mut self.shader_active[cta.sm];
                    *active = active.saturating_sub(1);
                    return Some((id, cta.sm));
                }
                Phase::ReadyToResume if !cta.resume_queued => {
                    cta.resume_queued = true;
                    self.resume_ready.push(id);
                    *queued = true;
                }
                _ => {}
            }
        }
        None
    }

    /// CTA `id` issues its current bounce's trace: its tasks, the bounce
    /// and its SM. At bounce 0 the `reserved` rays its launch reserved are
    /// released (resumed CTAs never held a reservation; the release
    /// saturates, so it is idempotent across bounces).
    pub(crate) fn trace_issue(
        &mut self,
        id: usize,
        reserved: usize,
    ) -> (Range<usize>, usize, usize) {
        let c = &self.ctas[id];
        let (tasks, bounce, sm) = (c.first_task..c.first_task + c.task_count, c.bounce, c.sm);
        if bounce == 0 {
            self.reserved_rays[sm] = self.reserved_rays[sm].saturating_sub(reserved);
        }
        (tasks, bounce, sm)
    }

    /// CTA `id` waits in its slot for its `rays` to traverse (baseline).
    pub(crate) fn wait(&mut self, id: usize, rays: usize) {
        let cta = &mut self.ctas[id];
        cta.outstanding = rays;
        cta.phase = Phase::WaitTraversal;
    }

    /// CTA `id` suspends while its `rays` traverse (§4.1). Its slot frees
    /// at `slot_free_at`, once the state save has been read out, or now.
    pub(crate) fn suspend(&mut self, id: usize, rays: usize, slot_free_at: Option<u64>) {
        let cta = &mut self.ctas[id];
        cta.outstanding = rays;
        cta.phase = Phase::Suspended;
        let sm = cta.sm;
        match slot_free_at {
            Some(at) => self.slot_release.push(at, sm),
            None => self.free_slot(sm),
        }
    }

    /// One of CTA `id`'s rays finished at `at`. After the last one a
    /// suspended CTA is ready to resume at `at`, and a waiting CTA shades
    /// in place (`true`).
    pub(crate) fn complete_ray(&mut self, id: usize, at: u64) -> bool {
        let cta = &mut self.ctas[id];
        cta.outstanding -= 1;
        match cta.phase {
            _ if cta.outstanding > 0 => false,
            Phase::WaitTraversal => true,
            Phase::Suspended => {
                self.enter_phase(id, Phase::ReadyToResume, at);
                false
            }
            other => panic!("rays completed while CTA in phase {other:?}"),
        }
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
        self.free_total = self.free_slots.iter().sum();
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

    /// Slot accounting can never exceed the hardware capacity, and the
    /// free-slot total is the free slots' sum (`cta-slots`); the retired
    /// count is the number of CTAs in [`Phase::Done`] (`cta-retired`).
    pub(crate) fn audit(&self, capacity: usize) -> Result<(), (&'static str, String)> {
        if let Some((sm, free)) = self.free_slots.iter().enumerate().find(|(_, &f)| f > capacity) {
            return Err(("cta-slots", format!("sm {sm}: {free} free slots > capacity {capacity}")));
        }
        let free: usize = self.free_slots.iter().sum();
        if free != self.free_total {
            let detail = format!("free-slot total {} != {free} free slots", self.free_total);
            return Err(("cta-slots", detail));
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

#[cfg(test)]
mod tests {
    use rtmath::{Ray, Vec3};

    use super::*;
    use crate::sim::PathTask;
    use crate::{TraversalPolicy, VtqParams};

    /// One SM, and `ctas` CTAs whose every thread traces two bounces.
    fn machine(policy: TraversalPolicy, ctas: usize) -> (GpuConfig, CtaScheduler) {
        let mut cfg = GpuConfig::default().with_policy(policy);
        cfg.mem.num_sms = 1;
        let ray = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0)).into();
        let task = PathTask { rays: vec![ray, ray] };
        let workload = Workload { tasks: vec![task; ctas * cfg.cta_size] };
        let sched = CtaScheduler::new(&cfg, &workload);
        (cfg, sched)
    }

    /// Ends CTA `id`'s shader phase: its timer is the next one due.
    fn end_shader(s: &mut CtaScheduler, id: usize) -> (u64, usize) {
        let at = s.ctas[id].ready_at;
        let mut queued = false;
        assert_eq!(s.pop_due(at, &mut queued), Some((id, 0)));
        assert!(!queued);
        (at, s.ctas[id].bounce)
    }

    /// Baseline: Raygen -> WaitTraversal -> Shade, twice, then Done, in
    /// the CTA's slot throughout.
    #[test]
    fn a_baseline_cta_shades_in_its_slot_until_done() {
        let (cfg, mut s) = machine(TraversalPolicy::Baseline, 1);
        let (free, rays) = (cfg.max_ctas_per_sm, cfg.cta_size);
        assert_eq!(s.launch(None, |_| 0), Some((0, 0)));
        s.start_shader(&cfg, 0, Phase::Raygen, 0);
        assert!(s.shading(0));
        let (mut at, mut bounce) = end_shader(&mut s, 0);
        while bounce < 2 {
            assert!(!s.shading(0));
            assert_eq!(s.trace_issue(0, 0), (0..rays, bounce, 0));
            s.wait(0, rays);
            assert_eq!(s.ctas[0].phase, Phase::WaitTraversal);
            assert_eq!(s.free_slots[0], free - 1);
            for _ in 1..rays {
                assert!(!s.complete_ray(0, at + 10));
            }
            assert!(s.complete_ray(0, at + 10), "the last ray shades in place");
            s.start_shader(&cfg, 0, Phase::Shade, at + 10);
            (at, bounce) = end_shader(&mut s, 0);
        }
        assert!(!s.all_done());
        s.retire(0);
        assert!(s.all_done() && s.unfinished() == 0 && s.retired == 1);
        assert_eq!(s.free_slots[0], free);
        assert_eq!(s.audit(free), Ok(()));
    }

    /// VTQ: each bounce suspends off the slot (freed once the state save
    /// is read out), becomes ready to resume when its last ray finishes,
    /// and resumes into a slot to shade; launch reservations are released
    /// at a CTA's first trace only.
    #[test]
    fn a_vtq_cta_suspends_and_resumes_each_bounce() {
        let (cfg, mut s) = machine(TraversalPolicy::Vtq(VtqParams::default()), 2);
        let (free, rays) = (cfg.max_ctas_per_sm, cfg.cta_size);
        let cap = Some((VtqParams::default().max_virtual_rays, rays));
        // CTA 1 launches beside CTA 0 and stays in raygen throughout.
        assert_eq!(s.launch(cap, |_| 0), Some((0, 0)));
        assert_eq!(s.launch(cap, |_| 0), Some((1, 0)));
        assert_eq!(s.reserved_rays[0], 2 * rays);
        s.start_shader(&cfg, 0, Phase::Raygen, 0);
        let (mut at, mut bounce) = end_shader(&mut s, 0);
        while bounce < 2 {
            s.trace_issue(0, rays);
            assert_eq!(s.reserved_rays[0], rays, "CTA 1 still holds its reservation");
            s.suspend(0, rays, Some(at + 5));
            assert_eq!((s.ctas[0].phase, s.free_slots[0]), (Phase::Suspended, free - 2));
            assert!(s.release_slots(at + 5));
            assert_eq!(s.free_slots[0], free - 1);
            for _ in 0..rays {
                assert!(!s.complete_ray(0, at + 50));
            }
            assert_eq!(s.ctas[0].phase, Phase::ReadyToResume);
            let mut queued = false;
            assert_eq!(s.pop_due(at + 50, &mut queued), None);
            assert!(queued);
            assert_eq!(s.resume(), Some((0, 0)));
            assert_eq!(s.free_slots[0], free - 2);
            s.start_shader(&cfg, 0, Phase::Shade, at + 60);
            (at, bounce) = end_shader(&mut s, 0);
        }
        s.retire(0);
        assert_eq!((s.free_slots[0], s.unfinished()), (free - 1, 1));
        s.trace_issue(1, rays);
        assert_eq!(s.reserved_rays[0], 0);
        assert_eq!(s.audit(free), Ok(()));
    }
}
