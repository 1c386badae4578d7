//! Integration tests of the observability subsystem: trace events, stall
//! attribution, time-series sampling and the exporters, driven through
//! real simulations.

use gpusim::export::{events_jsonl, metrics_json, series_csv, stall_csv};
use gpusim::{
    CountingSink, GpuConfig, PathTask, RingSink, SimReport, Simulator, StallKind, TraceEvent,
    TraversalPolicy, VtqParams, Workload,
};
use rtbvh::{Bvh, BvhConfig};
use rtscene::lumibench::{self, SceneId};

fn setup() -> (rtscene::Scene, Bvh) {
    let scene = lumibench::build_scaled(SceneId::Ref, 8);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    (scene, bvh)
}

fn camera_workload(scene: &rtscene::Scene, res: u32) -> Workload {
    let tasks = (0..res * res)
        .map(|i| PathTask {
            rays: vec![scene.camera().primary_ray(i % res, i / res, res, res, None).into()],
        })
        .collect();
    Workload { tasks }
}

fn small_cfg(policy: TraversalPolicy) -> GpuConfig {
    let mut cfg = GpuConfig::default().with_policy(policy);
    cfg.mem.num_sms = 2;
    cfg
}

fn vtq() -> TraversalPolicy {
    TraversalPolicy::Vtq(VtqParams { queue_threshold: 16, ..Default::default() })
}

fn policies() -> [TraversalPolicy; 3] {
    [TraversalPolicy::Baseline, TraversalPolicy::TreeletPrefetch, vtq()]
}

#[test]
fn traced_run_is_cycle_identical_to_untraced() {
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 32);
    for policy in policies() {
        let sim = Simulator::new(&bvh, scene.triangles(), small_cfg(policy));
        let plain = sim.try_run(&workload).unwrap();
        let mut sink = CountingSink::default();
        let traced = sim.try_run_traced(&workload, &mut sink).unwrap();
        assert_eq!(plain.stats.cycles, traced.stats.cycles, "policy {}", policy.label());
        assert_eq!(plain.stats, traced.stats, "policy {}", policy.label());
        assert_eq!(plain.hits, traced.hits);
        assert!(sink.total > 0, "policy {} emitted no events", policy.label());
    }
}

#[test]
fn stall_breakdown_sums_to_cycles_per_unit() {
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 32);
    for policy in policies() {
        let report =
            Simulator::new(&bvh, scene.triangles(), small_cfg(policy)).try_run(&workload).unwrap();
        assert_eq!(report.stats.stall.len(), 2);
        for (sm, unit) in report.stats.stall.iter().enumerate() {
            assert_eq!(
                unit.total(),
                report.stats.cycles,
                "policy {} sm {sm}: {unit:?}",
                policy.label()
            );
        }
        // A real ray-tracing kernel both computes and waits on memory.
        let busy: u64 = report.stats.stall.iter().map(|u| u.get(StallKind::Busy)).sum();
        let mem: u64 = report.stats.stall.iter().map(|u| u.get(StallKind::WaitingMemory)).sum();
        assert!(busy > 0, "policy {} never busy", policy.label());
        assert!(mem > 0, "policy {} never memory-bound", policy.label());
    }
}

#[test]
fn vtq_emits_queue_and_lifecycle_events() {
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 48);
    let mut sink = RingSink::new(1 << 20);
    let report = Simulator::new(&bvh, scene.triangles(), small_cfg(vtq()))
        .try_run_traced(&workload, &mut sink)
        .unwrap();
    assert_eq!(sink.dropped(), 0, "ring too small for exact count checks");
    let count = |tag: &str| sink.events().filter(|e| e.tag() == tag).count() as u64;
    assert!(count("cta_launch") > 0);
    assert_eq!(count("warp_issue"), report.stats.warps_issued);
    assert_eq!(count("cta_suspend"), report.stats.cta_suspends);
    assert_eq!(count("cta_resume"), report.stats.cta_resumes);
    assert_eq!(count("repack"), report.stats.repack_events);
    assert!(count("treelet_dispatch") > 0);
    assert!(count("mode_transition") > 0);
    // Events arrive in nondecreasing cycle order per SM.
    let mut last_per_sm = std::collections::HashMap::new();
    for e in sink.events() {
        let sm = match *e {
            TraceEvent::CtaLaunch { sm, .. }
            | TraceEvent::CtaSuspend { sm, .. }
            | TraceEvent::CtaResume { sm, .. }
            | TraceEvent::CtaRetire { sm, .. }
            | TraceEvent::WarpIssue { sm, .. }
            | TraceEvent::WarpRetire { sm, .. }
            | TraceEvent::TreeletDispatch { sm, .. }
            | TraceEvent::GroupDispatch { sm, .. }
            | TraceEvent::Repack { sm, .. }
            | TraceEvent::DivergenceSplit { sm, .. }
            | TraceEvent::ModeTransition { sm, .. }
            | TraceEvent::MissBurst { sm, .. } => sm,
        };
        let last = last_per_sm.entry(sm).or_insert(0u64);
        assert!(e.cycle() >= *last, "sm {sm} went backwards: {e:?}");
        *last = e.cycle();
    }
}

#[test]
fn ring_sink_stays_bounded_on_real_runs() {
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 48);
    let mut sink = RingSink::new(256);
    Simulator::new(&bvh, scene.triangles(), small_cfg(vtq()))
        .try_run_traced(&workload, &mut sink)
        .unwrap();
    assert_eq!(sink.len(), 256);
    assert!(sink.dropped() > 0);
}

#[test]
fn time_series_covers_the_run_and_stays_bounded() {
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 32);
    let mut cfg = small_cfg(vtq());
    cfg.sample_window_cycles = 5_000;
    let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
    assert!(!report.stats.series.is_empty());
    let covered: u64 = report.stats.series.iter().map(|w| w.covered_cycles).sum();
    assert_eq!(covered, report.stats.cycles);
    let total_slots = (cfg.num_sms() * cfg.max_ctas_per_sm) as f64;
    for (i, w) in report.stats.series.iter().enumerate() {
        assert_eq!(w.start_cycle, i as u64 * 5_000, "windows must tile the run");
        assert!(w.covered_cycles <= 5_000);
        if let Some(occ) = w.mean_occupied_slots() {
            assert!(occ <= total_slots, "window {i}: occupancy {occ} > {total_slots}");
        }
        // Per-window stalls integrate over both RT units.
        assert_eq!(w.stall.total(), w.covered_cycles * cfg.num_sms() as u64);
    }
    // Disabling sampling empties the series but keeps the stall totals.
    let mut off = cfg;
    off.sample_window_cycles = 0;
    let quiet = Simulator::new(&bvh, scene.triangles(), off).try_run(&workload).unwrap();
    assert!(quiet.stats.series.is_empty());
    assert_eq!(quiet.stats.stall.len(), 2);
    assert_eq!(quiet.stats.cycles, report.stats.cycles, "sampling must not change timing");
}

#[test]
fn exporters_produce_wellformed_output() {
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 32);
    let mut sink = RingSink::new(4096);
    let sim = Simulator::new(&bvh, scene.triangles(), small_cfg(vtq()));
    let report = sim.try_run_traced(&workload, &mut sink).unwrap();

    let jsonl = sink.to_jsonl();
    assert_eq!(jsonl.lines().count(), sink.len());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"event\":\"") && line.ends_with('}'), "bad line: {line}");
        assert!(line.contains("\"cycle\":"));
    }
    assert_eq!(jsonl, events_jsonl(sink.events()));

    let csv = series_csv(&report.stats.series);
    let header_cols = csv.lines().next().unwrap().split(',').count();
    assert_eq!(csv.lines().count(), report.stats.series.len() + 1);
    for line in csv.lines().skip(1) {
        assert_eq!(line.split(',').count(), header_cols, "ragged row: {line}");
    }

    let stalls = stall_csv(&report.stats.stall);
    assert_eq!(stalls.lines().count(), report.stats.stall.len() + 2);
    assert!(stalls.lines().last().unwrap().starts_with("total,"));

    let metrics = metrics_json("ref/vtq", &report);
    assert!(metrics.starts_with('{') && metrics.ends_with('}'));
    assert!(metrics.contains("\"label\":\"ref/vtq\""));
    assert!(metrics.contains(&format!("\"cycles\":{}", report.stats.cycles)));
    assert!(metrics.contains("\"stall_busy\":"));
    // VTQ issues no prefetches: the rate must be null, not 0.
    assert!(metrics.contains("\"prefetch_use_rate\":null"));
}

#[test]
fn report_summary_mentions_key_quantities() {
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 32);
    let report =
        Simulator::new(&bvh, scene.triangles(), small_cfg(vtq())).try_run(&workload).unwrap();
    let text = report.stats.report();
    assert!(text.contains(&format!("cycles: {}", report.stats.cycles)));
    assert!(text.contains("simt efficiency:"));
    assert!(text.contains("rt-unit cycles:"));
    assert!(text.contains("treelet dispatches:"));
}

#[test]
fn empty_workload_is_rejected_before_any_window_opens() {
    // The zero-cycle edge: nothing to simulate must surface as the typed
    // workload error, never as a run with fabricated empty sample
    // windows or a zero-cycle stats block.
    let (scene, bvh) = setup();
    let empty = Workload { tasks: vec![] };
    let err = Simulator::new(&bvh, scene.triangles(), small_cfg(vtq()))
        .try_run(&empty)
        .expect_err("empty workload must not simulate");
    assert_eq!(err.kind(), "workload");
    assert!(err.snapshot().is_none(), "nothing ran, so no forensics snapshot");
}

#[test]
fn window_boundary_exactly_at_max_cycles() {
    // Learn the run's natural length, then pin both edges to it: the
    // sampling window ends exactly where the run ends AND the watchdog
    // budget is exactly the natural length. The run must complete (the
    // budget is not *exceeded*), produce exactly one fully-covered
    // window, and no empty trailing window for the boundary cycle.
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 16);
    let mut cfg = small_cfg(vtq());
    let cycles =
        Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap().stats.cycles;
    assert!(cycles > 0);

    cfg.sample_window_cycles = cycles;
    cfg.max_cycles = Some(cycles);
    let report = Simulator::new(&bvh, scene.triangles(), cfg)
        .try_run(&workload)
        .expect("a budget equal to the natural length must not trip");
    assert_eq!(report.stats.cycles, cycles, "budget/window must not perturb timing");
    assert_eq!(report.stats.series.len(), 1, "boundary-aligned run: one window, no empty tail");
    let w = &report.stats.series[0];
    assert_eq!(w.start_cycle, 0);
    assert_eq!(w.covered_cycles, cycles, "the single window is exactly covered");
    assert!(w.mean_rays_in_flight().is_some());
    assert_eq!(w.stall.total(), cycles * cfg.num_sms() as u64);

    // One cycle less of budget must trip, and the forensics snapshot
    // lands on the boundary's far side.
    cfg.max_cycles = Some(cycles - 1);
    let err = Simulator::new(&bvh, scene.triangles(), cfg)
        .try_run(&workload)
        .expect_err("a budget one short of the natural length must trip");
    assert_eq!(err.kind(), "cycle-budget");
    assert!(err.snapshot().is_some());
}

#[test]
fn merging_series_of_different_length_runs_unions_windows() {
    // Two runs with a shared window grid but different lengths: merged
    // windows must stay sorted, overlapping windows accumulate their
    // integrals, and the longer run's tail windows survive untouched.
    let (scene, bvh) = setup();
    let short_wl = camera_workload(&scene, 16);
    let long_wl = camera_workload(&scene, 48);
    let mut cfg = small_cfg(vtq());
    cfg.sample_window_cycles = 2_000;
    let sim = Simulator::new(&bvh, scene.triangles(), cfg);
    let short = sim.try_run(&short_wl).unwrap();
    let long = sim.try_run(&long_wl).unwrap();
    assert!(
        long.stats.series.len() > short.stats.series.len(),
        "need different-length series for this test ({} vs {})",
        long.stats.series.len(),
        short.stats.series.len()
    );

    let mut merged = short.stats.clone();
    merged.merge(&long.stats);
    assert_eq!(merged.series.len(), long.stats.series.len(), "union of the window grids");
    for pair in merged.series.windows(2) {
        assert!(pair[0].start_cycle < pair[1].start_cycle, "merged series must stay sorted");
    }
    for (i, w) in merged.series.iter().enumerate() {
        let s = short.stats.series.get(i);
        let l = &long.stats.series[i];
        assert_eq!(w.start_cycle, l.start_cycle);
        match s {
            // Overlap: integrals add, coverage takes the max.
            Some(s) => {
                assert_eq!(w.ray_cycles, s.ray_cycles + l.ray_cycles);
                assert_eq!(w.covered_cycles, s.covered_cycles.max(l.covered_cycles));
                assert_eq!(w.stall.total(), s.stall.total() + l.stall.total());
            }
            // Tail: the longer run's windows pass through unchanged.
            None => assert_eq!(w, l),
        }
    }
    // Merging in the other order yields the same window grid.
    let mut flipped = long.stats.clone();
    flipped.merge(&short.stats);
    assert_eq!(flipped.series, merged.series);
}

#[test]
fn disabled_profiler_records_nothing_during_simulation() {
    // The host-side profiler must be pay-for-use: with the switch off
    // (the default), a full simulation leaves no spans, no counters and
    // no registry entries behind. The instrumentation sits at phase
    // granularity (run/setup/cycles/report); what the cycle loop times
    // itself exists only in a run that found the profiler on when it
    // started (`tests/prof_phases.rs`), so here it reads no clock and
    // reports no `sim/run/cycles/*` row — this test pins the gate, prof's
    // own unit tests pin the per-call cost.
    assert!(!prof::enabled(), "tests must run with the profiler off");
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 24);
    let before = prof::get(prof::Counter::CyclesSimulated);
    let report =
        Simulator::new(&bvh, scene.triangles(), small_cfg(vtq())).try_run(&workload).unwrap();
    assert!(report.stats.cycles > 0);
    assert_eq!(prof::get(prof::Counter::CyclesSimulated), before, "counter bumped while off");
    assert_eq!(prof::get(prof::Counter::RaysTraced), 0, "counter bumped while off");
    assert!(report.mem.total_lines() > 0);
    assert_eq!(prof::get(prof::Counter::MemLinesL1AndL2), 0, "counter bumped while off");
    assert_eq!(prof::get(prof::Counter::MemLinesRayReserve), 0, "counter bumped while off");
    let snap = prof::snapshot();
    assert!(snap.spans.is_empty(), "spans recorded while off: {:?}", snap.spans);
}

#[test]
fn merged_stats_accumulate_and_keep_invariants() {
    let (scene, bvh) = setup();
    let workload = camera_workload(&scene, 24);
    let sim = Simulator::new(&bvh, scene.triangles(), small_cfg(vtq()));
    let a: SimReport = sim.try_run(&workload).unwrap();
    let b: SimReport = sim.try_run(&workload).unwrap();
    let mut merged = a.stats.clone();
    merged.merge(&b.stats);
    assert_eq!(merged.rays_completed, a.stats.rays_completed + b.stats.rays_completed);
    assert_eq!(merged.cycles, a.stats.cycles.max(b.stats.cycles));
    assert_eq!(merged.peak_rays_in_flight, a.stats.peak_rays_in_flight);
    // Stall buckets add index-wise: each unit now covers both runs.
    for (i, unit) in merged.stall.iter().enumerate() {
        assert_eq!(unit.total(), a.stats.stall[i].total() + b.stats.stall[i].total());
    }
    // Series windows merged by start cycle, still sorted and covering.
    for pair in merged.series.windows(2) {
        assert!(pair[0].start_cycle < pair[1].start_cycle);
    }
    let covered: u64 = merged.series.iter().map(|w| w.covered_cycles).sum();
    assert_eq!(covered, a.stats.cycles.max(b.stats.cycles));
}
