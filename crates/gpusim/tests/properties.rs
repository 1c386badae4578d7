//! Property-based tests of the simulator's conservation and ordering
//! invariants: every issued ray completes exactly once, queues conserve
//! rays, and traversal produces reference-identical hits regardless of the
//! (randomized) VTQ parameters, and lazy stall attribution and the wake
//! agenda keep their laws at every clock advance.

use proptest::prelude::*;

use gpumem::MemFaults;
use gpusim::{
    AuditMode, GpuConfig, PathTask, PredictParams, RunOptions, Simulator, TraversalPolicy,
    VtqParams, Workload,
};
use rtbvh::{Bvh, BvhConfig};
use rtmath::{Ray, Vec3, XorShiftRng};
use rtscene::lumibench::{self, SceneId};

fn scene_and_bvh() -> (rtscene::Scene, Bvh) {
    let scene = lumibench::build_scaled(SceneId::Ref, 8);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    (scene, bvh)
}

/// A random mixed workload: camera rays plus incoherent rays.
fn random_workload(seed: u64, tasks: usize, max_bounces: usize) -> Workload {
    let (scene, _) = scene_and_bvh();
    let mut rng = XorShiftRng::new(seed);
    let mut out = Vec::with_capacity(tasks);
    for i in 0..tasks {
        let bounces = 1 + (rng.below(max_bounces as u64) as usize);
        let mut rays = Vec::with_capacity(bounces);
        for b in 0..bounces {
            let ray = if b == 0 {
                scene.camera().primary_ray((i % 32) as u32, (i / 32 % 32) as u32, 32, 32, None)
            } else {
                Ray::new(
                    Vec3::new(
                        rng.range_f32(-8.0, 8.0),
                        rng.range_f32(0.1, 6.0),
                        rng.range_f32(-8.0, 8.0),
                    ),
                    rng.unit_vector(),
                )
            };
            rays.push(ray.into());
        }
        out.push(PathTask { rays });
    }
    Workload { tasks: out }
}

fn vtq_params(qt: usize, rp: usize, div: usize, group: bool, preload: bool) -> VtqParams {
    VtqParams {
        queue_threshold: qt.max(1),
        repack_threshold: rp,
        divergence_treelets: div,
        group_underpopulated: group,
        preload,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_ray_completes_under_random_vtq_params(
        seed in any::<u64>(),
        qt in 1usize..200,
        rp in 0usize..32,
        div in 0usize..8,
        group in any::<bool>(),
        preload in any::<bool>(),
    ) {
        let (scene, bvh) = scene_and_bvh();
        let workload = random_workload(seed, 600, 3);
        let mut cfg = GpuConfig::default()
            .with_policy(TraversalPolicy::Vtq(vtq_params(qt, rp, div, group, preload)));
        cfg.mem.num_sms = 2;
        let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
        prop_assert_eq!(report.stats.rays_completed as usize, workload.total_rays());
        prop_assert!(report.stats.cycles > 0);
        // SIMT efficiency is a valid ratio.
        let simt = report.stats.simt_efficiency();
        prop_assert!((0.0..=1.0).contains(&simt));
        // Mode accounting conserves intersection tests.
        let mode_total: u64 = gpusim::TraversalMode::ALL
            .iter()
            .map(|m| report.stats.isect_in(*m))
            .sum();
        prop_assert_eq!(mode_total, report.stats.box_tests + report.stats.tri_tests);
    }

    #[test]
    fn hits_are_policy_invariant(
        seed in any::<u64>(),
        qt in 1usize..64,
        rp in 0usize..32,
    ) {
        let (scene, bvh) = scene_and_bvh();
        let workload = random_workload(seed, 300, 2);
        let mut base_cfg = GpuConfig::default();
        base_cfg.mem.num_sms = 2;
        let baseline = Simulator::new(&bvh, scene.triangles(), base_cfg).try_run(&workload).unwrap();
        let vtq_cfg = base_cfg.with_policy(TraversalPolicy::Vtq(vtq_params(qt, rp, 2, true, true)));
        let vtq = Simulator::new(&bvh, scene.triangles(), vtq_cfg).try_run(&workload).unwrap();
        prop_assert_eq!(baseline.hits, vtq.hits);
    }

    /// Stall attribution is a partition of time: for every RT unit, the
    /// five stall buckets sum to exactly the kernel's total cycles, under
    /// every policy and random VTQ parameters.
    #[test]
    fn stall_buckets_partition_total_cycles(
        seed in any::<u64>(),
        qt in 1usize..200,
        rp in 0usize..32,
        window in 0u64..50_000,
    ) {
        let (scene, bvh) = scene_and_bvh();
        let workload = random_workload(seed, 400, 2);
        for policy in [
            TraversalPolicy::Baseline,
            TraversalPolicy::TreeletPrefetch,
            TraversalPolicy::Vtq(vtq_params(qt, rp, 2, true, true)),
        ] {
            let mut cfg = GpuConfig::default().with_policy(policy);
            cfg.mem.num_sms = 2;
            cfg.sample_window_cycles = window;
            let report = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
            prop_assert_eq!(report.stats.stall.len(), 2);
            for (sm, unit) in report.stats.stall.iter().enumerate() {
                prop_assert_eq!(
                    unit.total(), report.stats.cycles,
                    "policy {} sm {}: stall total {} != cycles {}",
                    policy.label(), sm, unit.total(), report.stats.cycles
                );
            }
            // The time series covers the run exactly once when enabled.
            if window > 0 {
                let covered: u64 = report.stats.series.iter().map(|w| w.covered_cycles).sum();
                prop_assert_eq!(covered, report.stats.cycles);
            } else {
                prop_assert!(report.stats.series.is_empty());
            }
        }
    }

    /// Lazy stall attribution books what eager attribution would: the
    /// `stall-class` law, audited at every clock advance, says every unit
    /// whose state changed was marked, so each unmarked unit's cached
    /// class is the one an eager pass would have taken. Every policy,
    /// sampled or not, 1-5 SMs, scheduling jitter and DRAM latency
    /// spikes; the plain run and a resume from its midpoint both pass the
    /// audits, partition every unit's time, and agree bit for bit.
    #[test]
    fn lazy_stall_attribution_holds_at_every_advance(
        seed in any::<u64>(),
        policy in 0usize..5,
        sampled in any::<bool>(),
        window in 1u64..50_001,
        sms in 1usize..6,
        jitter in 0u32..17,
        spikes in 0u32..200,
    ) {
        let (scene, bvh) = scene_and_bvh();
        let workload = random_workload(seed, 160, 2);
        let policy = [
            TraversalPolicy::Baseline,
            TraversalPolicy::TreeletPrefetch,
            TraversalPolicy::Vtq(VtqParams { max_virtual_rays: 256, ..Default::default() }),
            TraversalPolicy::Vtq(vtq_params(1, 0, 2, false, false)),
            TraversalPolicy::Predict(PredictParams {
                origin_bits: 2,
                dir_bits: 2,
                table_entries: 4096,
                ..Default::default()
            }),
        ][policy];
        let mut cfg = GpuConfig::default().with_policy(policy);
        cfg.audit = AuditMode::Every(1);
        cfg.mem.num_sms = sms;
        cfg.sample_window_cycles = if sampled { window } else { 0 };
        cfg.sched_jitter_cycles = jitter;
        cfg.sched_jitter_seed = seed;
        cfg.mem.faults = MemFaults {
            spike_per_mille: spikes,
            spike_extra_cycles: 300,
            seed,
            ..Default::default()
        };
        let sim = Simulator::new(&bvh, scene.triangles(), cfg);
        let plain = sim.try_run(&workload).unwrap();
        let cycles = plain.stats.cycles;
        for (sm, unit) in plain.stats.stall.iter().enumerate() {
            prop_assert_eq!(unit.total(), cycles, "sm {}", sm);
        }
        let covered: u64 = plain.stats.series.iter().map(|w| w.covered_cycles).sum();
        prop_assert_eq!(covered, if sampled { cycles } else { 0 });

        let mut ckpts = Vec::new();
        let checkpointed =
            sim.try_run_checkpointed(&workload, cycles / 2, &mut |c| ckpts.push(c)).unwrap();
        prop_assert_eq!(&checkpointed.stats, &plain.stats);
        let ckpt = ckpts.first().expect("the run crosses its midpoint");
        let resumed = sim.try_run_with(&workload, RunOptions::new().resume(ckpt)).unwrap();
        prop_assert_eq!(format!("{:?}", resumed.stats), format!("{:?}", plain.stats));
    }

    #[test]
    fn cycles_are_deterministic(seed in any::<u64>()) {
        let (scene, bvh) = scene_and_bvh();
        let workload = random_workload(seed, 200, 2);
        let mut cfg = GpuConfig::default().with_policy(TraversalPolicy::Vtq(VtqParams::default()));
        cfg.mem.num_sms = 2;
        let a = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
        let b = Simulator::new(&bvh, scene.triangles(), cfg).try_run(&workload).unwrap();
        prop_assert_eq!(a.stats.cycles, b.stats.cycles);
        prop_assert_eq!(a.mem.total_lines(), b.mem.total_lines());
        prop_assert_eq!(a.stats.repack_events, b.stats.repack_events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wake agenda never sleeps through work. Each case draws paths
    /// that set, lower or recompute a unit's cached wake: a warp buffer of
    /// 1-3 slots, Predict with a table lookup in flight (warps arrive in
    /// the future), TreeletPrefetch (every unit visited on every
    /// iteration), naive and grouped Vtq under a small virtual-ray cap,
    /// scheduling jitter, and a resume from the run's midpoint (every unit
    /// due again). A zero intersection latency lets two slots' warps step
    /// in the same cycle, so one slot's step can queue rays for a slot
    /// already passed (why a unit that stepped stays due). The `unit-wake`
    /// law is audited at every clock advance; every run completes, and
    /// the checkpointed and resumed runs equal the uninterrupted one.
    #[test]
    fn the_wake_agenda_holds_at_every_advance(
        seed in any::<u64>(),
        policy in 0usize..4,
        slots in 1usize..4,
        latency in 1u32..40,
        cap in 1usize..5,
        jitter in 0u32..17,
        sms in 1usize..4,
        zero_isect in any::<bool>(),
    ) {
        let (scene, bvh) = scene_and_bvh();
        let workload = random_workload(seed, 160, 2);
        let cta_size = GpuConfig::default().cta_size;
        let vtq = |group| TraversalPolicy::Vtq(VtqParams {
            max_virtual_rays: cap * cta_size,
            ..vtq_params(16, 0, 2, group, group)
        });
        let policy = [
            TraversalPolicy::Predict(PredictParams {
                origin_bits: 2,
                dir_bits: 2,
                lookup_latency: latency,
                ..Default::default()
            }),
            TraversalPolicy::TreeletPrefetch,
            vtq(false),
            vtq(true),
        ][policy];
        let mut cfg = GpuConfig::default().with_policy(policy);
        cfg.audit = AuditMode::Every(1);
        cfg.mem.num_sms = sms;
        cfg.warp_buffer_slots = slots;
        if zero_isect {
            cfg.isect_latency = 0;
        }
        cfg.sched_jitter_cycles = jitter;
        cfg.sched_jitter_seed = seed;
        let sim = Simulator::new(&bvh, scene.triangles(), cfg);
        let plain = sim.try_run(&workload).unwrap();
        prop_assert_eq!(plain.stats.rays_completed as usize, workload.total_rays());

        let mut ckpts = Vec::new();
        let midpoint = plain.stats.cycles / 2;
        let checkpointed =
            sim.try_run_checkpointed(&workload, midpoint, &mut |c| ckpts.push(c)).unwrap();
        prop_assert_eq!(&checkpointed.stats, &plain.stats);
        let ckpt = ckpts.first().expect("the run crosses its midpoint");
        let resumed = sim.try_run_with(&workload, RunOptions::new().resume(ckpt)).unwrap();
        prop_assert_eq!(format!("{:?}", resumed.stats), format!("{:?}", plain.stats));
        prop_assert_eq!(format!("{:?}", resumed.mem), format!("{:?}", plain.mem));
        prop_assert_eq!(resumed.hits, plain.hits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The hardware queue table must agree with a reference multiset under
    /// arbitrary interleavings of pushes and pops (while within capacity).
    #[test]
    fn hw_queue_table_matches_reference_multiset(
        ops in prop::collection::vec((any::<bool>(), 0u64..12), 1..300),
    ) {
        use gpusim::hw_table::HwQueueTable;
        use std::collections::HashMap;
        let mut table = HwQueueTable::new(64, 4);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (is_push, key) in ops {
            let addr = key * 64;
            if is_push {
                let resident = table.push(addr);
                if resident {
                    *reference.entry(addr).or_default() += 1;
                }
            } else {
                let got = table.pop(addr);
                let want = reference.get(&addr).copied().unwrap_or(0) > 0;
                prop_assert_eq!(got, want, "pop({}) divergence", addr);
                if want {
                    *reference.get_mut(&addr).expect("present") -= 1;
                }
            }
        }
        // Entry accounting: live entries cover exactly the reference rays.
        let total_rays: u64 = reference.values().sum();
        let min_entries: u64 = reference.values().map(|r| r.div_ceil(4)).sum();
        prop_assert!(table.live_entries() as u64 >= min_entries);
        prop_assert!(table.live_entries() as u64 <= total_rays);
    }

    /// `TreeletQueues::pop_any` sorts only the queues it can draw from;
    /// under any interleaving of pushes and pops it must take exactly the
    /// rays, in exactly the order, that sorting every queue by (length
    /// descending, treelet ascending) and draining them in turn takes.
    #[test]
    fn pop_any_takes_what_a_full_sort_would(
        ops in prop::collection::vec((0u32..4, 0u32..40, 0usize..40), 1..120),
    ) {
        use std::collections::{BTreeMap, VecDeque};

        use gpusim::queues::TreeletQueues;
        use gpusim::RayId;
        use rtbvh::TreeletId;

        let mut queues = TreeletQueues::new();
        let mut model: BTreeMap<u32, VecDeque<u32>> = BTreeMap::new();
        let mut next_ray = 0u32;
        for (op, treelet, n) in ops {
            if op > 0 {
                // Push `op` rays, so queue lengths spread and tie.
                for _ in 0..op {
                    queues.push(TreeletId(treelet), RayId(next_ray));
                    model.entry(treelet).or_default().push_back(next_ray);
                    next_ray += 1;
                }
                continue;
            }
            let mut keys: Vec<(usize, u32)> = model.iter().map(|(t, q)| (q.len(), *t)).collect();
            keys.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut want = Vec::new();
            for (_, t) in keys {
                let queue = model.get_mut(&t).expect("keys come from the model");
                while want.len() < n {
                    let Some(ray) = queue.pop_front() else { break };
                    want.push((TreeletId(t), RayId(ray)));
                }
            }
            model.retain(|_, q| !q.is_empty());
            prop_assert_eq!(queues.pop_any(n), want);
            prop_assert_eq!(queues.queue_count(), model.len());
            prop_assert_eq!(queues.total_rays(), model.values().map(VecDeque::len).sum::<usize>());
        }
    }
}
