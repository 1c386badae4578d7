//! Machine-readable exporters for the observability data: JSON Lines for
//! trace events, CSV for the time series and stall breakdowns, and a flat
//! JSON object of a run's headline metrics. JSON lines are built and
//! parsed with [`crate::jsonl`]; integers print as-is and floats in
//! Rust's shortest round-trip form, non-finite ones as `null`.

use std::fmt::Write as _;

use crate::error::{ForensicsSnapshot, SmSnapshot};
use crate::jsonl::{parse_line, Fields, Record};
use crate::observe::{RingSink, SamplePoint, StallBreakdown, StallKind, TraceEvent};
use crate::sim::SimReport;
use crate::stats::TraversalMode;

// ---------------------------------------------------------------------------
// Trace events → JSON Lines
// ---------------------------------------------------------------------------

/// One trace event as a single-line JSON object. Every line carries
/// `event` (the [`TraceEvent::tag`]) and `cycle`; the remaining keys are
/// event-specific.
pub fn event_json(event: &TraceEvent) -> String {
    let r = Record::tagged("event", event.tag()).num("cycle", event.cycle());
    let r = match *event {
        TraceEvent::CtaLaunch { cta, sm, .. }
        | TraceEvent::CtaResume { cta, sm, .. }
        | TraceEvent::CtaRetire { cta, sm, .. } => r.num("cta", cta).num("sm", sm),
        TraceEvent::CtaSuspend { cta, sm, rays, .. } => {
            r.num("cta", cta).num("sm", sm).num("rays", rays)
        }
        TraceEvent::WarpIssue { sm, cta, rays, .. } => {
            r.num("sm", sm).num("cta", cta).num("rays", rays)
        }
        TraceEvent::WarpRetire { sm, mode, .. } => r.num("sm", sm).str("mode", mode),
        TraceEvent::TreeletDispatch { sm, treelet, rays, .. } => {
            r.num("sm", sm).num("treelet", treelet.0).num("rays", rays)
        }
        TraceEvent::GroupDispatch { sm, rays, .. } => r.num("sm", sm).num("rays", rays),
        TraceEvent::Repack { sm, added, .. } => r.num("sm", sm).num("added", added),
        TraceEvent::DivergenceSplit { sm, treelets, rays, .. } => {
            r.num("sm", sm).num("treelets", treelets).num("rays", rays)
        }
        TraceEvent::ModeTransition { sm, from, to, .. } => {
            let r = r.num("sm", sm);
            match from {
                Some(m) => r.str("from", m),
                None => r.null("from"),
            }
            .str("to", to)
        }
        TraceEvent::MissBurst { sm, mode, lines, stall, .. } => {
            r.num("sm", sm).str("mode", mode).num("lines", lines).num("stall", stall)
        }
    };
    r.finish()
}

/// Serializes events as JSON Lines (one object per line, newline
/// terminated).
pub fn events_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_json(event));
        out.push('\n');
    }
    out
}

impl RingSink {
    /// The buffered events as JSON Lines (oldest first).
    pub fn to_jsonl(&self) -> String {
        events_jsonl(self.events())
    }
}

// ---------------------------------------------------------------------------
// Time series / stalls → CSV
// ---------------------------------------------------------------------------

/// Serializes the sampling-window time series as CSV with a header row.
///
/// Columns: `start_cycle, covered_cycles, mean_rays_in_flight,
/// mean_occupied_slots, mode_initial_cycles, mode_treelet_cycles,
/// mode_ray_cycles`, then one column per [`StallKind`] label. Uncovered
/// windows print empty cells for the means.
pub fn series_csv(series: &[SamplePoint]) -> String {
    let mut out = String::from("start_cycle,covered_cycles,mean_rays_in_flight,mean_occupied_slots,mode_initial_cycles,mode_treelet_cycles,mode_ray_cycles");
    for kind in StallKind::ALL {
        let _ = write!(out, ",{}", kind.label());
    }
    out.push('\n');
    for w in series {
        let _ = write!(out, "{},{}", w.start_cycle, w.covered_cycles);
        for mean in [w.mean_rays_in_flight(), w.mean_occupied_slots()] {
            match mean {
                Some(v) => {
                    let _ = write!(out, ",{v:.3}");
                }
                None => out.push(','),
            }
        }
        for m in w.mode_cycles {
            let _ = write!(out, ",{m}");
        }
        for kind in StallKind::ALL {
            let _ = write!(out, ",{}", w.stall.get(kind));
        }
        out.push('\n');
    }
    out
}

/// Serializes per-RT-unit stall breakdowns as CSV: one row per SM plus a
/// `total` row, one column per [`StallKind`].
pub fn stall_csv(stall: &[StallBreakdown]) -> String {
    let mut out = String::from("sm");
    for kind in StallKind::ALL {
        let _ = write!(out, ",{}", kind.label());
    }
    out.push_str(",total\n");
    let mut agg = StallBreakdown::default();
    for (sm, unit) in stall.iter().enumerate() {
        let _ = write!(out, "{sm}");
        for kind in StallKind::ALL {
            let _ = write!(out, ",{}", unit.get(kind));
        }
        let _ = writeln!(out, ",{}", unit.total());
        agg.merge(unit);
    }
    let _ = write!(out, "total");
    for kind in StallKind::ALL {
        let _ = write!(out, ",{}", agg.get(kind));
    }
    let _ = writeln!(out, ",{}", agg.total());
    out
}

// ---------------------------------------------------------------------------
// Run metrics → JSON
// ---------------------------------------------------------------------------

/// Flattens a run's headline metrics into one JSON object (single line).
///
/// `label` tags the run (scene/policy); rates that are undefined for the
/// run (e.g. prefetch use without a prefetcher) export as `null`, never a
/// fake zero.
pub fn metrics_json(label: &str, report: &SimReport) -> String {
    let s = &report.stats;
    let bvh = report.mem.kind(gpumem::AccessKind::Bvh);
    let mut r = Record::tagged("label", label)
        .num("cycles", s.cycles)
        .num("rays_completed", s.rays_completed)
        .num("warps_issued", s.warps_issued)
        .opt_f64("simt_efficiency", s.simt_efficiency_opt())
        .num("box_tests", s.box_tests)
        .num("tri_tests", s.tri_tests);
    for mode in TraversalMode::ALL {
        let tag = match mode {
            TraversalMode::Initial => "initial",
            TraversalMode::TreeletStationary => "treelet",
            TraversalMode::RayStationary => "ray",
        };
        r = r.num(format_args!("mode_cycles_{tag}"), s.cycles_in(mode));
    }
    r = r
        .opt_f64("treelet_isect_ratio", s.treelet_isect_ratio_opt())
        .num("treelet_dispatches", s.treelet_dispatches)
        .num("repack_events", s.repack_events)
        .num("cta_suspends", s.cta_suspends)
        .num("cta_resumes", s.cta_resumes)
        .num("cta_state_bytes", s.cta_state_bytes)
        .num("peak_rays_in_flight", s.peak_rays_in_flight)
        .num("queue_table_peak_entries", s.queue_table_peak_entries)
        .num("queue_table_max_chain", s.queue_table_max_chain)
        .num("queue_table_overflows", s.queue_table_overflows)
        .opt_f64("prefetch_use_rate", s.prefetch_use_rate_opt())
        .opt_f64("bvh_l1_miss_rate", bvh.l1_miss_rate_opt())
        .num("dram_lines", report.mem.total_dram_lines())
        .f64("energy_pj", report.energy.total_pj())
        .f64("energy_virtualization_fraction", report.energy.virtualization_fraction());
    let mut agg = StallBreakdown::default();
    for unit in &s.stall {
        agg.merge(unit);
    }
    for kind in StallKind::ALL {
        r = r.num(format_args!("stall_{}", kind.label()), agg.get(kind));
    }
    r.finish()
}

// ---------------------------------------------------------------------------
// Deadlock forensics snapshot ↔ JSON Lines
// ---------------------------------------------------------------------------

/// Serializes a watchdog forensics snapshot as JSON Lines: one
/// `{"record":"forensics",...}` header line with the machine-wide counters
/// followed by one `{"record":"forensics_sm",...}` line per SM. Every value
/// is a flat integer, so the format round-trips through
/// [`parse_snapshot_jsonl`] without a JSON library.
pub fn snapshot_jsonl(s: &ForensicsSnapshot) -> String {
    let header = Record::new("forensics")
        .num("cycle", s.cycle)
        .num("rays_created", s.rays_created)
        .num("rays_completed", s.rays_completed)
        .num("ctas_total", s.ctas_total)
        .num("ctas_unfinished", s.ctas_unfinished)
        .num("pending_ctas", s.pending_ctas)
        .num("resume_ready_ctas", s.resume_ready_ctas)
        .num("mem_in_flight", s.mem_in_flight)
        .num("sms", s.sms.len());
    let mut out = header.finish();
    out.push('\n');
    for u in &s.sms {
        let line = Record::new("forensics_sm")
            .num("sm", u.sm)
            .num("free_cta_slots", u.free_cta_slots)
            .num("resident_warps", u.resident_warps)
            .num("warp_buffer_slots", u.warp_buffer_slots)
            .num("incoming_warps", u.incoming_warps)
            .num("queued_rays", u.queued_rays)
            .num("treelet_queues", u.treelet_queues)
            .num("rays_in_flight", u.rays_in_flight)
            .num("shader_active", u.shader_active)
            .num("reserved_rays", u.reserved_rays)
            .num("last_progress_cycle", u.last_progress_cycle);
        out.push_str(&line.finish());
        out.push('\n');
    }
    out
}

/// A typed parse failure from the flat-JSONL readers
/// ([`parse_snapshot_jsonl`], checkpoint parsing): the 1-based line of the
/// input that failed, plus the reason. Library code returns this instead of
/// printing and exiting, so the host process decides how to react.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the parsed text (0 when the failure is
    /// about the document as a whole, e.g. empty input).
    pub line: usize,
    /// What was wrong with that line.
    pub reason: String,
}

impl ParseError {
    pub(crate) fn at(line: usize, reason: impl Into<String>) -> ParseError {
        ParseError { line, reason: reason.into() }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "parse error: {}", self.reason)
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses the output of [`snapshot_jsonl`] back into a
/// [`ForensicsSnapshot`] — the round-trip used by tooling that post-mortems
/// a dumped deadlock.
///
/// # Errors
///
/// Returns a typed [`ParseError`] locating the first malformed line,
/// missing field, or SM-count mismatch. Never panics, whatever the input.
pub fn parse_snapshot_jsonl(text: &str) -> Result<ForensicsSnapshot, ParseError> {
    fn expect<'a>(line: &'a str, record: &str, role: &str) -> Result<Fields<'a>, String> {
        let f = parse_line(line)?;
        match f.record() {
            Some(r) if r == record => Ok(f),
            other => Err(format!("expected a `{record}` {role}, got {other:?}")),
        }
    }
    fn header(line: &str) -> Result<(ForensicsSnapshot, usize), String> {
        let f = expect(line, "forensics", "header record")?;
        let snapshot = ForensicsSnapshot {
            cycle: f.u64("cycle")?,
            rays_created: f.u64("rays_created")?,
            rays_completed: f.u64("rays_completed")?,
            ctas_total: f.num("ctas_total")?,
            ctas_unfinished: f.num("ctas_unfinished")?,
            pending_ctas: f.num("pending_ctas")?,
            resume_ready_ctas: f.num("resume_ready_ctas")?,
            mem_in_flight: f.num("mem_in_flight")?,
            sms: Vec::new(),
        };
        Ok((snapshot, f.num("sms")?))
    }
    fn sm(line: &str) -> Result<SmSnapshot, String> {
        let f = expect(line, "forensics_sm", "record")?;
        Ok(SmSnapshot {
            sm: f.num("sm")?,
            free_cta_slots: f.num("free_cta_slots")?,
            resident_warps: f.num("resident_warps")?,
            warp_buffer_slots: f.num("warp_buffer_slots")?,
            incoming_warps: f.num("incoming_warps")?,
            queued_rays: f.num("queued_rays")?,
            treelet_queues: f.num("treelet_queues")?,
            rays_in_flight: f.num("rays_in_flight")?,
            shader_active: f.num("shader_active")?,
            reserved_rays: f.num("reserved_rays")?,
            last_progress_cycle: f.u64("last_progress_cycle")?,
        })
    }
    let mut lines =
        text.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| !l.trim().is_empty());
    let (header_no, header_line) =
        lines.next().ok_or_else(|| ParseError::at(0, "empty snapshot dump"))?;
    let (mut snapshot, expected) = header(header_line).map_err(|r| ParseError::at(header_no, r))?;
    for (no, line) in lines {
        snapshot.sms.push(sm(line).map_err(|r| ParseError::at(no, r))?);
    }
    if snapshot.sms.len() != expected {
        return Err(ParseError::at(
            0,
            format!("header declared {expected} SMs but {} records followed", snapshot.sms.len()),
        ));
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbvh::TreeletId;

    #[test]
    fn snapshot_jsonl_round_trips() {
        let snap = ForensicsSnapshot {
            cycle: 123,
            rays_created: 64,
            rays_completed: 10,
            ctas_total: 4,
            ctas_unfinished: 3,
            pending_ctas: 2,
            resume_ready_ctas: 1,
            mem_in_flight: 7,
            sms: vec![
                SmSnapshot {
                    sm: 0,
                    free_cta_slots: 1,
                    resident_warps: 2,
                    warp_buffer_slots: 8,
                    incoming_warps: 1,
                    queued_rays: 30,
                    treelet_queues: 5,
                    rays_in_flight: 54,
                    shader_active: 1,
                    reserved_rays: 64,
                    last_progress_cycle: 120,
                },
                SmSnapshot { sm: 1, warp_buffer_slots: 8, ..Default::default() },
            ],
        };
        let text = snapshot_jsonl(&snap);
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"record\":\"forensics\","));
        assert!(text.contains("\"record\":\"forensics_sm\",\"sm\":1,"));
        let back = parse_snapshot_jsonl(&text).expect("round-trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_parse_rejects_garbage() {
        assert!(parse_snapshot_jsonl("").is_err());
        assert!(parse_snapshot_jsonl("not json").is_err());
        assert!(parse_snapshot_jsonl("{\"record\":\"forensics_sm\",\"sm\":0}").is_err());
        // Header that promises more SM records than it delivers.
        let text = "{\"record\":\"forensics\",\"cycle\":1,\"rays_created\":0,\
                    \"rays_completed\":0,\"ctas_total\":0,\"ctas_unfinished\":0,\
                    \"pending_ctas\":0,\"resume_ready_ctas\":0,\"mem_in_flight\":0,\"sms\":2}";
        let err = parse_snapshot_jsonl(text).unwrap_err();
        assert!(err.reason.contains("declared 2 SMs"), "got: {err}");
    }

    /// Table-driven corruption sweep: every malformed or truncated input
    /// must come back as a typed [`ParseError`] naming the offending line —
    /// never a panic, never a silent partial parse.
    #[test]
    fn malformed_snapshots_return_typed_errors() {
        let header = "{\"record\":\"forensics\",\"cycle\":1,\"rays_created\":0,\
                      \"rays_completed\":0,\"ctas_total\":0,\"ctas_unfinished\":0,\
                      \"pending_ctas\":0,\"resume_ready_ctas\":0,\"mem_in_flight\":0,\"sms\":1}";
        let sm = "{\"record\":\"forensics_sm\",\"sm\":0,\"free_cta_slots\":1,\
                  \"resident_warps\":0,\"warp_buffer_slots\":1,\"incoming_warps\":0,\
                  \"queued_rays\":0,\"treelet_queues\":0,\"rays_in_flight\":0,\
                  \"shader_active\":0,\"reserved_rays\":0,\"last_progress_cycle\":0}";
        let good = format!("{header}\n{sm}\n");
        assert!(parse_snapshot_jsonl(&good).is_ok(), "control case must parse");
        // Values are scanned escape-aware, not split on every `,`: an
        // (ignored) string field holding a comma still parses.
        let noted = header.replace("\"sms\":1", "\"note\":\"slot 0, stuck\",\"sms\":1");
        assert!(parse_snapshot_jsonl(&format!("{noted}\n{sm}\n")).is_ok(), "{noted}");

        struct Case {
            name: &'static str,
            text: String,
            line: usize,
            reason_contains: &'static str,
        }
        let cases = [
            Case { name: "empty input", text: String::new(), line: 0, reason_contains: "empty" },
            Case {
                name: "whitespace-only input",
                text: "  \n \n".to_string(),
                line: 0,
                reason_contains: "empty",
            },
            Case {
                name: "non-JSON header",
                text: format!("garbage\n{sm}\n"),
                line: 1,
                reason_contains: "not a JSON object",
            },
            Case {
                name: "wrong header record type",
                text: format!("{sm}\n{sm}\n"),
                line: 1,
                reason_contains: "expected a `forensics` header",
            },
            Case {
                name: "header missing a field",
                text: format!("{}\n{sm}\n", header.replace("\"cycle\":1,", "")),
                line: 1,
                reason_contains: "missing field `cycle`",
            },
            Case {
                name: "non-integer field value",
                text: format!("{}\n{sm}\n", header.replace("\"cycle\":1", "\"cycle\":xyz")),
                line: 1,
                reason_contains: "not an integer",
            },
            Case {
                name: "malformed pair on an SM line",
                text: format!("{header}\n{{\"record\" \"forensics_sm\"}}\n"),
                line: 2,
                reason_contains: "malformed pair",
            },
            Case {
                name: "wrong body record type",
                text: format!("{header}\n{header}\n"),
                line: 2,
                reason_contains: "expected a `forensics_sm` record",
            },
            Case {
                name: "SM record missing a field",
                text: format!("{header}\n{}\n", sm.replace("\"queued_rays\":0,", "")),
                line: 2,
                reason_contains: "missing field `queued_rays`",
            },
            Case {
                name: "truncated: fewer SM records than declared",
                text: format!("{header}\n"),
                line: 0,
                reason_contains: "declared 1 SMs but 0 records",
            },
            Case {
                name: "truncated mid-line",
                text: format!("{header}\n{}", &sm[..sm.len() / 2]),
                line: 2,
                reason_contains: "not a JSON object",
            },
        ];
        for case in cases {
            let err = parse_snapshot_jsonl(&case.text)
                .expect_err(&format!("case `{}` must fail", case.name));
            assert_eq!(err.line, case.line, "case `{}`: wrong line in {err}", case.name);
            assert!(
                err.reason.contains(case.reason_contains),
                "case `{}`: expected reason containing {:?}, got: {err}",
                case.name,
                case.reason_contains
            );
            // The Display form carries the location for log grepping.
            if case.line > 0 {
                assert!(err.to_string().contains(&format!("line {}", case.line)));
            }
        }
    }

    #[test]
    fn event_lines_are_json_objects() {
        let e = TraceEvent::TreeletDispatch { cycle: 9, sm: 2, treelet: TreeletId(4), rays: 31 };
        assert_eq!(
            event_json(&e),
            "{\"event\":\"treelet_dispatch\",\"cycle\":9,\"sm\":2,\"treelet\":4,\"rays\":31}"
        );
        let m = TraceEvent::ModeTransition {
            cycle: 3,
            sm: 0,
            from: None,
            to: crate::TraversalMode::Initial,
        };
        assert!(event_json(&m).contains("\"from\":null,\"to\":\"initial\""));
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let events = [
            TraceEvent::CtaLaunch { cycle: 0, cta: 0, sm: 0 },
            TraceEvent::CtaRetire { cycle: 5, cta: 0, sm: 0 },
        ];
        let text = events_jsonl(events.iter());
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn series_csv_shape() {
        let mut w = SamplePoint {
            start_cycle: 0,
            covered_cycles: 10,
            ray_cycles: 25,
            ..Default::default()
        };
        w.stall.add(StallKind::Busy, 10);
        let csv = series_csv(&[w, SamplePoint { start_cycle: 10, ..Default::default() }]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("start_cycle,covered_cycles"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("0,10,2.500,"));
        // Uncovered window: empty mean cells, not zeros.
        let tail = lines.next().unwrap();
        assert!(tail.starts_with("10,0,,,"));
        assert_eq!(header.split(',').count(), row.split(',').count());
    }

    #[test]
    fn stall_csv_total_row() {
        let mut a = StallBreakdown::default();
        a.add(StallKind::Busy, 3);
        let mut b = StallBreakdown::default();
        b.add(StallKind::Idle, 7);
        let csv = stall_csv(&[a, b]);
        let last = csv.lines().last().unwrap();
        assert_eq!(last, "total,3,0,0,0,7,10");
    }
}
