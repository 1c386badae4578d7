//! Pins the allocation-free steady state of the cycle loop's hot paths.
//!
//! Only compiled with the `count-allocs` feature, which installs prof's
//! counting global allocator. Each case does its work twice: the first
//! pass warms `Vec` capacities, the second must complete without a single
//! heap allocation. The counter is process-wide, so the cases run one
//! after the other inside one `#[test]` — a second test thread (or the
//! harness reporting its result) would allocate into a measured region.
#![cfg(feature = "count-allocs")]

use gpumem::{AccessKind, CachePolicy, MemConfig, MemFaults, MemorySystem};
use gpusim::{NextNode, PathTask, RayId, RayTraversal, Tape, Workload};
use rtbvh::{Bvh, BvhConfig};
use rtscene::lumibench::{self, SceneId};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    traversal_with_recycled_walks();
    replay_from_a_tape();
    warm_queue_table_push_pop();
    warm_memory_system_access(MemFaults::default());
    // One fill in five returns late, so later completions step back over
    // it when they re-enter their MSHR pool.
    warm_memory_system_access(MemFaults {
        spike_per_mille: 200,
        spike_extra_cycles: 2000,
        bandwidth_divisor: 2,
        seed: 7,
    });
}

/// The same ray set walked twice through a pool of boxed
/// [`RayTraversal`]s, as the simulator's walk pool runs: a fresh walk pops
/// a finished one and [`RayTraversal::reset`]s it (boxing a new one only
/// while the pool is cold), several walks are in flight at once, and a
/// finished walk goes back to the pool with its stacks.
fn traversal_with_recycled_walks() {
    /// Walks in flight at once.
    const IN_FLIGHT: usize = 8;
    let scene = lumibench::build_scaled(SceneId::Bunny, 32);
    let tris = scene.triangles().to_vec();
    // Small treelets so rays genuinely exercise both stacks.
    let bvh = Bvh::build(&tris, &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    let rays: Vec<_> =
        (0..64).map(|i| scene.camera().primary_ray(i % 8 * 6, i / 8 * 6, 48, 48, None)).collect();

    let mut pool: Vec<Box<RayTraversal>> = Vec::with_capacity(IN_FLIGHT);
    let mut in_flight: Vec<Box<RayTraversal>> = Vec::with_capacity(IN_FLIGHT);
    let mut trace_all = |pool: &mut Vec<Box<RayTraversal>>| -> u32 {
        let mut visited = 0;
        for (batch, chunk) in rays.chunks(IN_FLIGHT).enumerate() {
            for (i, &ray) in chunk.iter().enumerate() {
                let id = RayId((batch * IN_FLIGHT + i) as u32);
                let walk = match pool.pop() {
                    Some(mut walk) => {
                        walk.reset(id, ray, &bvh, 1e-3, f32::INFINITY);
                        walk
                    }
                    None => Box::new(RayTraversal::new(id, ray, &bvh, 1e-3, f32::INFINITY)),
                };
                in_flight.push(walk);
            }
            // Step the walks in lockstep, as a warp does.
            let mut stepping = true;
            while stepping {
                stepping = false;
                for walk in &mut in_flight {
                    if let NextNode::Visit(n) = walk.next_node(&bvh, None) {
                        walk.visit(&bvh, &tris, n);
                        stepping = true;
                    }
                }
            }
            for walk in in_flight.drain(..) {
                visited += walk.nodes_visited;
                pool.push(walk);
            }
        }
        visited
    };

    // Pass 1: box the walks and warm their stack capacities (allocates).
    let visited_warm = trace_all(&mut pool);
    assert_eq!(pool.len(), IN_FLIGHT, "every walk went back to the pool");

    // Pass 2: identical work from the warm pool — zero allocations allowed.
    let before = prof::CountingAlloc::allocations();
    let visited_steady = trace_all(&mut pool);
    let after = prof::CountingAlloc::allocations();

    assert!(visited_steady > 0, "rays must do real traversal work");
    assert_eq!(visited_warm, visited_steady, "both passes traverse identically");
    assert_eq!(
        after - before,
        0,
        "steady-state traversal must not touch the heap ({} allocations)",
        after - before
    );
}

/// A replayed ray answers the engine's traversal questions off a [`Tape`]
/// through a `Cursor`, as treelet-stationary warps ask them: restricted to
/// one treelet until the walk leaves it, then to the next. Those reads
/// replace `next_node` + `visit` on every lane step, so they must never
/// touch the heap.
fn replay_from_a_tape() {
    let scene = lumibench::build_scaled(SceneId::Bunny, 32);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    let primary = |i: u32| scene.camera().primary_ray(i % 8 * 6, i / 8 * 6, 48, 48, None);
    let workload =
        Workload { tasks: (0..64).map(|i| PathTask { rays: vec![primary(i).into()] }).collect() };
    let tape = Tape::record(&bvh, scene.triangles(), &workload);

    let replay_all = || -> (u32, u32, u32) {
        let (mut tests, mut exits, mut hits) = (0, 0, 0);
        for task in 0..workload.tasks.len() {
            let mut cursor = tape.cursor(task, 0);
            let mut restrict = cursor.pending_treelet(&tape);
            loop {
                match cursor.next_node(&tape, restrict) {
                    NextNode::Visit(n) => {
                        let cost = cursor.visit(&tape, n);
                        tests += cost.box_tests + cost.tri_tests;
                    }
                    NextNode::ExitTreelet(t) => {
                        exits += 1;
                        restrict = Some(t);
                    }
                    NextNode::Done => break,
                }
            }
            hits += u32::from(cursor.end(&tape).0.is_some());
        }
        (tests, exits, hits)
    };

    let warm = replay_all();
    let before = prof::CountingAlloc::allocations();
    let steady = replay_all();
    let after = prof::CountingAlloc::allocations();
    assert!(steady.0 > 0 && steady.1 > 0 && steady.2 > 0, "rays must test, cross treelets, hit");
    assert_eq!(warm, steady, "both passes replay identically");
    assert_eq!(after - before, 0, "replaying a tape must not touch the heap");
}

/// Every VTQ enqueue and dequeue is mirrored into the queue table, so its
/// push/pop must not allocate once the bucket chains have grown to their
/// working size — including pushes that open a fresh entry, chain onto a
/// colliding tag, relocate a tag group, or overflow.
fn warm_queue_table_push_pop() {
    use gpusim::hw_table::HwQueueTable;

    // 16 entry slots of 4 rays under 64 tags: resident tags, duplicate
    // entries (more than 4 rays of one tag), collisions and overflows all
    // occur.
    let mut table = HwQueueTable::new(16, 4);
    let tags: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9) << 6).collect();
    let cycle = |table: &mut HwQueueTable| -> (u32, u32) {
        let (mut resident, mut popped) = (0, 0);
        for round in 0..6 {
            for tag in &tags[..8 * (round + 1)] {
                resident += u32::from(table.push(*tag));
            }
            for tag in &tags {
                popped += u32::from(table.pop(*tag));
            }
        }
        // Drain, so the next cycle starts from the same contents.
        for tag in &tags {
            while table.pop(*tag) {
                popped += 1;
            }
        }
        (resident, popped)
    };

    let warm = cycle(&mut table);
    let stats = table.stats();
    assert!(stats.overflows > 0 && stats.max_chain >= 2, "the cycle must stress the table");
    let before = prof::CountingAlloc::allocations();
    let steady = cycle(&mut table);
    let after = prof::CountingAlloc::allocations();
    assert_eq!(warm, steady, "both cycles do identical work");
    assert_eq!(after - before, 0, "warm push/pop must not touch the heap");
}

/// Every simulated byte goes through `MemorySystem::access`, so a warmed
/// hierarchy must serve all four policies without touching the heap:
/// the caches' lookup state and the MSHR pools are sized at construction,
/// whatever is evicted or however late a fill returns, and a miss-rate
/// window is only pushed the first time a cycle lands in it.
fn warm_memory_system_access(faults: MemFaults) {
    let cfg = MemConfig { num_sms: 2, faults, ..MemConfig::default() };
    let mut mem = MemorySystem::new(&cfg);
    let line = cfg.l1.line_bytes as u64;
    // Three times the reserve (and the L2) in distinct lines, cycled: no
    // replacement order keeps more than a third of them, so every pass
    // misses, evicts and goes to DRAM throughout.
    let capacity = cfg.ray_reserve.num_lines() as u64;
    let lines = 3 * capacity;
    let streams = [
        (AccessKind::Bvh, CachePolicy::L1AndL2),
        (AccessKind::Ray, CachePolicy::RayReserve),
        (AccessKind::Shader, CachePolicy::BypassL1),
        (AccessKind::CtaState, CachePolicy::DramOnly),
    ];
    let pass = |mem: &mut MemorySystem| -> u64 {
        let mut latest = 0;
        for i in 0..lines {
            // Both passes stay inside the first two miss-rate windows, and
            // ticks repeat and run backwards as they do in the simulator.
            let now = (i * 37) % (2 * cfg.window_cycles);
            for (n, (kind, policy)) in streams.into_iter().enumerate() {
                // Each stream in its own address range.
                let addr = ((n as u64) << 32) + i * line;
                latest = latest.max(mem.access((i % 2) as usize, addr, 96, kind, policy, now));
            }
        }
        latest
    };

    pass(&mut mem);
    let warm = mem.stats().clone();
    let before = prof::CountingAlloc::allocations();
    let latest = pass(&mut mem);
    let after = prof::CountingAlloc::allocations();

    assert!(latest > 0);
    for (kind, policy) in streams {
        let dram = mem.stats().kind(kind).dram - warm.kind(kind).dram;
        assert!(dram >= lines - capacity, "{policy:?}: only {dram} of {lines} lines reached DRAM");
    }
    assert_eq!(mem.stats().bvh_l1_windows.len(), warm.bvh_l1_windows.len());
    assert_eq!(after - before, 0, "a warm memory system must not touch the heap ({faults:?})");
}
