//! Exporter and aggregation contracts: `SimStats::merge` must compose
//! partial observations into exactly the whole, and the JSONL/CSV
//! exporters must round-trip through `gpusim::jsonl::parse_line` —
//! integers losslessly, floats via Rust's shortest-round-trip `Display`.

use gpusim::export::{metrics_json, series_csv, stall_csv};
use gpusim::jsonl::parse_line;
use gpusim::{
    GpuConfig, PathTask, SamplePoint, SimStats, Simulator, StallBreakdown, StallKind, TraceCall,
    TraversalMode, Workload,
};
use rtbvh::{Bvh, BvhConfig};
use rtmath::{Ray, Vec3, XorShiftRng};
use rtscene::{MaterialId, Triangle};

// ---------------------------------------------------------------------------
// SimStats::merge: merge-of-parts equals whole
// ---------------------------------------------------------------------------

/// A fully-populated stats record with distinctive values everywhere, so a
/// field merged with the wrong rule cannot accidentally match.
fn synthetic_whole() -> SimStats {
    let mut whole = SimStats {
        cycles: 1_000,
        active_lane_steps: 900,
        total_lane_steps: 1_200,
        mode_cycles: [90, 600, 300],
        mode_isect_tests: [30, 450, 120],
        box_tests: 4_000,
        tri_tests: 1_500,
        warps_issued: 75,
        repack_events: 12,
        repacked_rays: 96,
        treelet_dispatches: 48,
        cta_suspends: 9,
        cta_resumes: 9,
        cta_state_bytes: 4_608,
        peak_rays_in_flight: 220,
        prefetches_issued: 33,
        prefetch_lines: 66,
        prefetch_lines_used: 44,
        rays_completed: 512,
        queue_table_max_chain: 3,
        queue_table_peak_entries: 100,
        queue_table_overflows: 5,
        predict_lookups: 300,
        predict_hits: 180,
        predict_inserts: 90,
        predict_evictions: 15,
        stall: vec![StallBreakdown::default(); 3],
        series: Vec::new(),
    };
    whole.stall[0].add(StallKind::Busy, 700);
    whole.stall[0].add(StallKind::Idle, 300);
    whole.stall[1].add(StallKind::WaitingMemory, 450);
    whole.stall[2].add(StallKind::QueueDrained, 80);
    whole.series = vec![
        SamplePoint {
            start_cycle: 0,
            covered_cycles: 100,
            ray_cycles: 2_500,
            occupied_slot_cycles: 400,
            mode_cycles: [10, 60, 30],
            ..Default::default()
        },
        SamplePoint { start_cycle: 100, covered_cycles: 40, ray_cycles: 300, ..Default::default() },
    ];
    whole
}

/// Splits the whole into two concurrent parts whose merge must reproduce
/// it: throughput counters are divided, capacity peaks live in one part
/// with a strictly smaller value in the other, the stall vectors have
/// different lengths (exercising the resize path), and the series windows
/// overlap on `start_cycle` 0 only.
fn synthetic_parts() -> (SimStats, SimStats) {
    let mut a = SimStats {
        cycles: 1_000, // the max
        active_lane_steps: 300,
        total_lane_steps: 400,
        mode_cycles: [30, 200, 100],
        mode_isect_tests: [10, 150, 40],
        box_tests: 1_000,
        tri_tests: 500,
        warps_issued: 25,
        repack_events: 4,
        repacked_rays: 32,
        treelet_dispatches: 16,
        cta_suspends: 3,
        cta_resumes: 3,
        cta_state_bytes: 1_536,
        peak_rays_in_flight: 150, // the lesser peak
        prefetches_issued: 11,
        prefetch_lines: 22,
        prefetch_lines_used: 14,
        rays_completed: 200,
        queue_table_max_chain: 3, // the max
        queue_table_peak_entries: 60,
        queue_table_overflows: 2,
        predict_lookups: 100,
        predict_hits: 60,
        predict_inserts: 30,
        predict_evictions: 5,
        stall: vec![StallBreakdown::default(); 2],
        series: vec![SamplePoint {
            start_cycle: 0,
            covered_cycles: 100,
            ray_cycles: 1_500,
            occupied_slot_cycles: 250,
            mode_cycles: [4, 25, 12],
            ..Default::default()
        }],
    };
    a.stall[0].add(StallKind::Busy, 700);
    a.stall[1].add(StallKind::WaitingMemory, 450);

    let mut b = SimStats {
        cycles: 640,
        active_lane_steps: 600,
        total_lane_steps: 800,
        mode_cycles: [60, 400, 200],
        mode_isect_tests: [20, 300, 80],
        box_tests: 3_000,
        tri_tests: 1_000,
        warps_issued: 50,
        repack_events: 8,
        repacked_rays: 64,
        treelet_dispatches: 32,
        cta_suspends: 6,
        cta_resumes: 6,
        cta_state_bytes: 3_072,
        peak_rays_in_flight: 220,
        prefetches_issued: 22,
        prefetch_lines: 44,
        prefetch_lines_used: 30,
        rays_completed: 312,
        queue_table_max_chain: 2,
        queue_table_peak_entries: 100,
        queue_table_overflows: 3,
        predict_lookups: 200,
        predict_hits: 120,
        predict_inserts: 60,
        predict_evictions: 10,
        stall: vec![StallBreakdown::default(); 3],
        series: vec![
            SamplePoint {
                start_cycle: 0,
                covered_cycles: 80, // window-0 coverage maxes with a's 100
                ray_cycles: 1_000,
                occupied_slot_cycles: 150,
                mode_cycles: [6, 35, 18],
                ..Default::default()
            },
            SamplePoint {
                start_cycle: 100,
                covered_cycles: 40,
                ray_cycles: 300,
                ..Default::default()
            },
        ],
    };
    b.stall[0].add(StallKind::Idle, 300);
    b.stall[2].add(StallKind::QueueDrained, 80);
    (a, b)
}

#[test]
fn merge_of_parts_equals_whole() {
    let whole = synthetic_whole();
    let (a, b) = synthetic_parts();
    let mut merged = a.clone();
    merged.merge(&b);
    assert_eq!(merged, whole);
    // The merge is symmetric even when the stall vector must grow.
    let mut reversed = b;
    reversed.merge(&a);
    assert_eq!(reversed, whole);
}

#[test]
fn merge_into_default_is_identity() {
    let whole = synthetic_whole();
    let mut acc = SimStats::default();
    acc.merge(&whole);
    assert_eq!(acc, whole);
}

#[test]
fn merge_saturates_instead_of_overflowing() {
    let mut a = SimStats { tri_tests: u64::MAX - 1, ..Default::default() };
    let b = SimStats { tri_tests: 5, ..Default::default() };
    a.merge(&b);
    assert_eq!(a.tri_tests, u64::MAX);
}

// ---------------------------------------------------------------------------
// Exporter round-trips
// ---------------------------------------------------------------------------

fn tiny_report() -> gpusim::SimReport {
    let mut rng = XorShiftRng::new(0xE0_17);
    let mut tris = Vec::new();
    for _ in 0..60 {
        let v0 = Vec3::new(
            rng.range_f32(-20.0, 20.0),
            rng.range_f32(-20.0, 20.0),
            rng.range_f32(-20.0, 20.0),
        );
        let t = Triangle::new(
            v0,
            v0 + rng.unit_vector() * rng.range_f32(0.2, 3.0),
            v0 + rng.unit_vector() * rng.range_f32(0.2, 3.0),
            MaterialId::new(0),
        );
        if !t.is_degenerate() {
            tris.push(t);
        }
    }
    let bvh = Bvh::build(&tris, &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    let workload = Workload {
        tasks: (0..64)
            .map(|_| {
                let origin = Vec3::new(
                    rng.range_f32(-30.0, 30.0),
                    rng.range_f32(-30.0, 30.0),
                    rng.range_f32(-30.0, 30.0),
                );
                PathTask { rays: vec![TraceCall::closest(Ray::new(origin, rng.unit_vector()))] }
            })
            .collect(),
    };
    let mut cfg = GpuConfig::default();
    cfg.mem.num_sms = 2;
    Simulator::new(&bvh, &tris, cfg).try_run(&workload).unwrap()
}

#[test]
fn metrics_json_round_trips_losslessly() {
    let report = tiny_report();
    let line = metrics_json("soup/baseline", &report);
    let f = parse_line(&line).expect("metrics line parses");
    let flat_u64 = |key: &str| f.u64(key).unwrap_or_else(|e| panic!("{e}"));
    let s = &report.stats;

    assert_eq!(f.str("label").unwrap(), "soup/baseline");
    assert_eq!(flat_u64("cycles"), s.cycles);
    assert_eq!(flat_u64("rays_completed"), s.rays_completed);
    assert_eq!(flat_u64("warps_issued"), s.warps_issued);
    assert_eq!(flat_u64("box_tests"), s.box_tests);
    assert_eq!(flat_u64("tri_tests"), s.tri_tests);
    assert_eq!(flat_u64("mode_cycles_initial"), s.cycles_in(TraversalMode::Initial));
    assert_eq!(flat_u64("mode_cycles_treelet"), s.cycles_in(TraversalMode::TreeletStationary));
    assert_eq!(flat_u64("mode_cycles_ray"), s.cycles_in(TraversalMode::RayStationary));
    assert_eq!(flat_u64("treelet_dispatches"), s.treelet_dispatches);
    assert_eq!(flat_u64("repack_events"), s.repack_events);
    assert_eq!(flat_u64("cta_suspends"), s.cta_suspends);
    assert_eq!(flat_u64("peak_rays_in_flight"), s.peak_rays_in_flight as u64);
    assert_eq!(flat_u64("queue_table_overflows"), s.queue_table_overflows);
    assert_eq!(flat_u64("dram_lines"), report.mem.total_dram_lines());

    // Floats print via Rust's shortest round-trip `Display`, so parsing
    // them back yields bit-identical values (null for undefined rates).
    match s.simt_efficiency_opt() {
        Some(e) => {
            assert_eq!(f.f64("simt_efficiency").expect("float").to_bits(), e.to_bits());
        }
        None => assert_eq!(f.get("simt_efficiency"), Some("null")),
    }
    assert_eq!(f.get("prefetch_use_rate"), Some("null"), "baseline never prefetches");
    let energy = f.f64("energy_pj").expect("float");
    assert_eq!(energy.to_bits(), report.energy.total_pj().to_bits());

    // Stall columns cover every kind and sum to SM-count × cycles (each
    // cycle lands in exactly one bucket per unit).
    let stall_sum: u64 =
        StallKind::ALL.iter().map(|k| flat_u64(&format!("stall_{}", k.label()))).sum();
    assert_eq!(stall_sum, s.cycles * s.stall.len() as u64);
}

#[test]
fn stall_csv_round_trips_losslessly() {
    let mut units = vec![StallBreakdown::default(); 3];
    units[0].add(StallKind::Busy, 17);
    units[0].add(StallKind::Idle, 3);
    units[1].add(StallKind::WaitingMemory, 11);
    units[2].add(StallKind::QueueDrained, 5);
    units[2].add(StallKind::WarpBufferEmpty, 2);

    let csv = stall_csv(&units);
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    assert_eq!(header[0], "sm");
    assert_eq!(header.last(), Some(&"total"));

    // Parse each SM row back into a StallBreakdown via the header.
    let mut parsed = Vec::new();
    let mut expect_total = StallBreakdown::default();
    for (sm, unit) in units.iter().enumerate() {
        let cells: Vec<&str> = lines.next().expect("sm row").split(',').collect();
        assert_eq!(cells[0].parse::<usize>().unwrap(), sm);
        let mut back = StallBreakdown::default();
        for kind in StallKind::ALL {
            let col = header.iter().position(|h| *h == kind.label()).expect("kind column");
            back.add(kind, cells[col].parse().expect("integer cell"));
        }
        assert_eq!(cells.last().unwrap().parse::<u64>().unwrap(), back.total());
        expect_total.merge(unit);
        parsed.push(back);
    }
    assert_eq!(parsed, units);

    // The trailing total row is the merge of all units.
    let cells: Vec<&str> = lines.next().expect("total row").split(',').collect();
    assert_eq!(cells[0], "total");
    for kind in StallKind::ALL {
        let col = header.iter().position(|h| *h == kind.label()).expect("kind column");
        assert_eq!(cells[col].parse::<u64>().unwrap(), expect_total.get(kind));
    }
    assert!(lines.next().is_none());
}

#[test]
fn series_csv_round_trips_integral_columns() {
    let mut w0 = SamplePoint {
        start_cycle: 0,
        covered_cycles: 100,
        ray_cycles: 250,
        occupied_slot_cycles: 400,
        mode_cycles: [7, 81, 12],
        ..Default::default()
    };
    w0.stall.add(StallKind::Busy, 90);
    w0.stall.add(StallKind::Idle, 10);
    let w1 = SamplePoint { start_cycle: 100, ..Default::default() };

    let csv = series_csv(&[w0, w1]);
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();

    let col = |name: &str| header.iter().position(|h| *h == name).expect("column");
    for (window, row) in [w0, w1].iter().zip(lines) {
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), header.len());
        // Integral columns are printed as exact integers and round-trip.
        assert_eq!(cells[col("start_cycle")].parse::<u64>().unwrap(), window.start_cycle);
        assert_eq!(cells[col("covered_cycles")].parse::<u64>().unwrap(), window.covered_cycles);
        assert_eq!(
            cells[col("mode_initial_cycles")].parse::<u64>().unwrap(),
            window.mode_cycles[0]
        );
        assert_eq!(
            cells[col("mode_treelet_cycles")].parse::<u64>().unwrap(),
            window.mode_cycles[1]
        );
        assert_eq!(cells[col("mode_ray_cycles")].parse::<u64>().unwrap(), window.mode_cycles[2]);
        for kind in StallKind::ALL {
            assert_eq!(
                cells[col(kind.label())].parse::<u64>().unwrap(),
                window.stall.get(kind),
                "stall column {}",
                kind.label()
            );
        }
        // The mean columns are fixed-point with 3 decimals — defined
        // windows print the quotient, uncovered windows print empty cells
        // rather than fake zeros.
        match window.mean_rays_in_flight() {
            Some(m) => {
                assert_eq!(cells[col("mean_rays_in_flight")], format!("{m:.3}"), "mean formatting")
            }
            None => assert!(cells[col("mean_rays_in_flight")].is_empty()),
        }
    }
}
