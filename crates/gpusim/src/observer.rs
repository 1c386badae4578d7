//! The observer component: everything the engine records *about* a run
//! and nothing the run's timing depends on — the [`SimStats`] counters
//! with their per-unit stall attribution and time series, each unit's
//! last-progress cycle (forensics), the trace-sink event counter, and the
//! auditor's clock.
//!
//! Stall attribution is lazy: each unit's class holds from the cycle it
//! is booked up to until the engine marks the unit (its state changed),
//! and only marked units are booked at a clock advance. Every unit is
//! settled before anything reads the buckets (see DESIGN.md "Stall
//! attribution").
//!
//! (`observe` is the vocabulary — events, sinks, stall kinds, sample
//! points; this module is the engine state built from it.)

use crate::jsonl::{Fields, Record};
use crate::observe::{SamplePoint, StallBreakdown, StallKind};
use crate::{SimStats, TraversalMode};

/// How one RT unit spends the cycles from its last booking until its
/// state next changes: the first kind before the absolute split cycle,
/// the second from there on. Booking `[a, b)` splits at
/// `split.clamp(a, b)`, so adjacent pieces book what their union does.
pub(crate) type StallClass = (StallKind, u64, StallKind);

/// One unit's lazy attribution state: booked up to `since`, classified
/// as `class` from there, and whether its state changed since.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Booking {
    since: u64,
    class: StallClass,
    marked: bool,
}

/// The observer's state; see the [module docs](self). The checkpointed
/// struct is the live one less the lazy attribution state
/// ([`Observer::checkpointed`]), which is derived.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Observer {
    pub(crate) stats: SimStats,
    /// Per-SM cycle of the last RT-unit action (warp installed or stepped).
    pub(crate) last_progress: Vec<u64>,
    /// Trace events recorded into the attached sink so far (0 when
    /// untraced), so a resumed traced run continues the count.
    pub(crate) sink_events: u64,
    /// Cycle of the last invariant audit.
    pub(crate) last_audit: u64,
    /// Per-SM lazy attribution state (derived, never checkpointed).
    bookings: Vec<Booking>,
    /// The marked SMs, each once.
    marked: Vec<usize>,
}

impl Observer {
    pub(crate) fn new(num_sms: usize) -> Observer {
        let mut obs = Observer {
            stats: SimStats {
                stall: vec![StallBreakdown::default(); num_sms],
                ..SimStats::default()
            },
            last_progress: vec![0; num_sms],
            ..Observer::default()
        };
        obs.restart_booking(0);
        obs
    }

    /// The checkpointed part of the state: everything but the lazy
    /// attribution, which must be [settled](Self::settle) first.
    pub(crate) fn checkpointed(&self) -> Observer {
        Observer {
            stats: self.stats.clone(),
            last_progress: self.last_progress.clone(),
            sink_events: self.sink_events,
            last_audit: self.last_audit,
            ..Observer::default()
        }
    }

    /// Starts lazy attribution at `now` with every unit marked, so the
    /// next clock advance classifies them all (a fresh or restored run).
    pub(crate) fn restart_booking(&mut self, now: u64) {
        let idle = (StallKind::Idle, u64::MAX, StallKind::Idle);
        let n = self.stats.stall.len();
        self.bookings = vec![Booking { since: now, class: idle, marked: true }; n];
        self.marked = (0..n).collect();
    }

    /// Records that unit `sm`'s state — what [`RtUnit::stall_class`]
    /// reads — changed at the current cycle.
    ///
    /// [`RtUnit::stall_class`]: crate::rt_unit::RtUnit::stall_class
    #[inline]
    pub(crate) fn mark(&mut self, sm: usize) {
        let booking = &mut self.bookings[sm];
        if !booking.marked {
            booking.marked = true;
            self.marked.push(sm);
        }
    }

    /// Records an RT-unit action on `sm` at `now` (a warp installed or
    /// stepped) and marks the unit.
    #[inline]
    pub(crate) fn progress(&mut self, sm: usize, now: u64) {
        self.last_progress[sm] = now;
        self.mark(sm);
    }

    /// Books each marked unit up to `now` under its old class and gives
    /// it `classify(sm)`, the class its state gives now (`window` cycles
    /// per sample point, 0 = off). Called at each clock advance, when the
    /// engine is at a fixed point.
    pub(crate) fn book_marked(
        &mut self,
        now: u64,
        window: u64,
        classify: impl Fn(usize) -> StallClass,
    ) {
        let mut marked = std::mem::take(&mut self.marked);
        for &sm in &marked {
            self.book(sm, now, window);
            self.bookings[sm] = Booking { since: now, class: classify(sm), marked: false };
        }
        marked.clear();
        self.marked = marked;
    }

    /// Books every unit up to `now`, so the buckets and windows hold every
    /// elapsed cycle. Classes and marks stay.
    pub(crate) fn settle(&mut self, now: u64, window: u64) {
        for sm in 0..self.bookings.len() {
            self.book(sm, now, window);
        }
    }

    /// Books unit `sm`'s `[since, now)` to its stall buckets and, when
    /// sampling is on, to each window's.
    fn book(&mut self, sm: usize, now: u64, window: u64) {
        let Booking { since, class: (first, split, second), .. } = self.bookings[sm];
        if since >= now {
            return;
        }
        self.bookings[sm].since = now;
        let stall = &mut self.stats.stall[sm];
        let m = split.clamp(since, now);
        stall.add(first, m - since);
        stall.add(second, now - m);
        self.each_window((since, now), window, |point, a, b| {
            let m = split.clamp(a, b);
            point.stall.add(first, m - a);
            point.stall.add(second, b - m);
        });
    }

    /// Adds the machine-wide integrals of the quiescent interval
    /// `[now, until)` to the time series: `rays` in flight and `occupied`
    /// CTA slots are constant over the interval, so each window chunk
    /// contributes its cycle integral.
    pub(crate) fn sample_occupancy(
        &mut self,
        interval: (u64, u64),
        window: u64,
        rays: u64,
        occupied: u64,
    ) {
        self.each_window(interval, window, |point, a, b| {
            point.covered_cycles += b - a;
            point.ray_cycles += rays * (b - a);
            point.occupied_slot_cycles += occupied * (b - a);
        });
    }

    /// Calls `f` with each sample window (`window` cycles per point, 0 =
    /// sampling off) that `[from, to)` overlaps and the overlap `[a, b)`.
    fn each_window(
        &mut self,
        (from, to): (u64, u64),
        window: u64,
        mut f: impl FnMut(&mut SamplePoint, u64, u64),
    ) {
        if window == 0 {
            return;
        }
        let mut a = from;
        while a < to {
            let idx = (a / window) as usize;
            let b = to.min((idx as u64 + 1) * window);
            f(self.window_mut(idx, window), a, b);
            a = b;
        }
    }

    /// The sample window of index `idx`, growing the series as the clock
    /// advances.
    fn window_mut(&mut self, idx: usize, window: u64) -> &mut SamplePoint {
        while self.stats.series.len() <= idx {
            let start_cycle = self.stats.series.len() as u64 * window;
            self.stats.series.push(SamplePoint { start_cycle, ..SamplePoint::default() });
        }
        &mut self.stats.series[idx]
    }

    /// Credits `cycles` of mode activity to the window containing `at`.
    pub(crate) fn sample_mode_cycles(
        &mut self,
        window: u64,
        at: u64,
        mode: TraversalMode,
        cycles: u64,
    ) {
        if window == 0 {
            return;
        }
        self.window_mut((at / window) as usize, window).mode_cycles[mode.index()] += cycles;
    }

    // -- checkpoint records ---------------------------------------------------

    /// `ckpt_observer` (the auditor's clock, the sink's event count and
    /// the per-SM last-progress cycles), `ckpt_stats`, one `ckpt_stall`
    /// per SM, one `ckpt_series` per window.
    pub(crate) fn write_jsonl(&self, emit: &mut dyn FnMut(Record)) {
        emit(
            Record::new("ckpt_observer")
                .num("last_audit", self.last_audit)
                .num("sink_events", self.sink_events)
                .list("last_progress", &self.last_progress),
        );
        emit(self.stats.counter_fields(Record::new("ckpt_stats")));
        for (sm, b) in self.stats.stall.iter().enumerate() {
            emit(stall_fields(Record::new("ckpt_stall").num("sm", sm), b));
        }
        for w in &self.stats.series {
            let r = Record::new("ckpt_series")
                .num("start_cycle", w.start_cycle)
                .num("covered_cycles", w.covered_cycles)
                .num("ray_cycles", w.ray_cycles)
                .num("occupied_slot_cycles", w.occupied_slot_cycles)
                .list("mode_cycles", w.mode_cycles);
            emit(stall_fields(r, &w.stall));
        }
    }

    /// Applies one `ckpt_observer` / `ckpt_stats` / `ckpt_stall` /
    /// `ckpt_series` line.
    pub(crate) fn read_record(&mut self, kind: &str, f: &Fields<'_>) -> Result<(), String> {
        match kind {
            "ckpt_observer" => {
                self.last_audit = f.u64("last_audit")?;
                self.sink_events = f.u64("sink_events")?;
                self.last_progress = f.list("last_progress")?;
            }
            "ckpt_stats" => self.stats.read_counters(f)?,
            "ckpt_stall" => {
                let (sm, expected): (usize, usize) = (f.num("sm")?, self.stats.stall.len());
                if sm != expected {
                    return Err(format!(
                        "ckpt_stall records out of order: got sm {sm}, expected {expected}"
                    ));
                }
                self.stats.stall.push(parse_stall(f)?);
            }
            _ => self.stats.series.push(SamplePoint {
                start_cycle: f.u64("start_cycle")?,
                covered_cycles: f.u64("covered_cycles")?,
                ray_cycles: f.u64("ray_cycles")?,
                occupied_slot_cycles: f.u64("occupied_slot_cycles")?,
                mode_cycles: f.array("mode_cycles")?,
                stall: parse_stall(f)?,
            }),
        }
        Ok(())
    }

    /// The per-SM vectors must cover the machine being restored into.
    pub(crate) fn validate(&self, num_sms: usize) -> Result<(), String> {
        for (name, len) in
            [("last_progress", self.last_progress.len()), ("stall", self.stats.stall.len())]
        {
            if len != num_sms {
                return Err(format!("`{name}` has {len} entries, expected {num_sms}"));
            }
        }
        Ok(())
    }

    /// Skews the active-lane step count without a visit, so the next
    /// audit trips the `visit-conservation` invariant.
    #[cfg(test)]
    pub(crate) fn corrupt_lane_steps(&mut self, delta: u64) {
        self.stats.active_lane_steps += delta;
    }

    /// Unit `sm`'s attribution laws, on a settled observer. `stall-sum`:
    /// every elapsed cycle lands in exactly one bucket, so the buckets sum
    /// to the clock. `stall-class`: an unmarked unit's class is still the
    /// one its state gives (`fresh`) — a state change without a mark
    /// would book the wrong class.
    pub(crate) fn audit(
        &self,
        sm: usize,
        now: u64,
        fresh: StallClass,
    ) -> Result<(), (&'static str, String)> {
        let attributed = self.stats.stall[sm].total();
        if attributed != now {
            return Err(("stall-sum", format!("{attributed} attributed cycles != clock {now}")));
        }
        let Booking { class, marked, .. } = self.bookings[sm];
        if !marked && class != fresh {
            let detail = format!("unmarked unit classed {class:?}, its state gives {fresh:?}");
            return Err(("stall-class", detail));
        }
        Ok(())
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
