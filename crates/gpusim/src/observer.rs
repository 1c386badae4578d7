//! The observer component: everything the engine records *about* a run
//! and nothing the run's timing depends on — the [`SimStats`] counters
//! with their per-unit stall attribution and time series, each unit's
//! last-progress cycle (forensics), the trace-sink event counter, and the
//! auditor's clock.
//!
//! (`observe` is the vocabulary — events, sinks, stall kinds, sample
//! points; this module is the engine state built from it.)

use crate::jsonl::{Fields, Record};
use crate::observe::{SamplePoint, StallBreakdown, StallKind};
use crate::{SimStats, TraversalMode};

/// How one RT unit spent a quiescent interval `[now, until)`: the first
/// kind until the split cycle, the second from there to `until`.
pub(crate) type StallClass = (StallKind, u64, StallKind);

/// The observer's state; see the [module docs](self). The live struct is
/// the checkpointed struct.
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
}

impl Observer {
    pub(crate) fn new(num_sms: usize) -> Observer {
        Observer {
            stats: SimStats {
                stall: vec![StallBreakdown::default(); num_sms],
                ..SimStats::default()
            },
            last_progress: vec![0; num_sms],
            ..Observer::default()
        }
    }

    /// Attributes the quiescent interval `[now, until)` to the per-unit
    /// stall buckets (`classes[sm]`) and, when sampling is on (`window`
    /// cycles per point, 0 = off), to the time series. `rays` in flight
    /// and `occupied` CTA slots are constant over the interval, so each
    /// window chunk contributes its cycle integral.
    pub(crate) fn attribute(
        &mut self,
        (now, until): (u64, u64),
        window: u64,
        classes: &[StallClass],
        rays: u64,
        occupied: u64,
    ) {
        for (stall, &(first, split, second)) in self.stats.stall.iter_mut().zip(classes) {
            stall.add(first, split - now);
            stall.add(second, until - split);
        }
        if window == 0 {
            return;
        }
        let mut a = now;
        while a < until {
            let idx = (a / window) as usize;
            let b = until.min((idx as u64 + 1) * window);
            let point = self.window_mut(idx, window);
            point.covered_cycles += b - a;
            point.ray_cycles += rays * (b - a);
            point.occupied_slot_cycles += occupied * (b - a);
            for &(first, split, second) in classes {
                let m = split.clamp(a, b);
                point.stall.add(first, m - a);
                point.stall.add(second, b - m);
            }
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

    /// Stall attribution is exhaustive: every elapsed cycle lands in
    /// exactly one bucket, so unit `sm`'s buckets sum to the clock.
    pub(crate) fn audit(&self, sm: usize, now: u64) -> Result<(), (&'static str, String)> {
        let attributed = self.stats.stall[sm].total();
        if attributed != now {
            return Err(("stall-sum", format!("{attributed} attributed cycles != clock {now}")));
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
