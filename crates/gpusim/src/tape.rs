//! Functional traversal once per scene, timing once per cell: the
//! node-visit *tape* of a workload.
//!
//! Every policy walks the BVH in the same two-stack treelet order
//! ([`ray`](crate::ray)); a policy decides only *when* and on which SM a
//! ray's next node is processed, never *which* node. A treelet-restricted
//! warp merely pauses a ray at a treelet boundary, and the `enter_treelet`
//! of the dispatch that resumes it moves exactly the entries the
//! unrestricted walk would have moved at that point. So the visit sequence
//! of a trace call is a function of the call alone, and a [`Tape`] records
//! it once per BVH and workload: for every call, each visited node, its
//! treelet and the box / triangle tests the visit performed, plus the
//! call's final hit and the leaf it came from.
//!
//! A simulator run issues each ray as a [`Cursor`] into its call's steps
//! and reads instead of intersecting: on the tape it was given
//! ([`Simulator::with_tape`]), or else on one it records before cycling.
//! Rays whose visit order really does change — those the ray-path
//! predictor speculates for, which visit a predicted leaf first — and
//! every ray of a run over a BVH no tape can encode (a leaf of 256 or
//! more triangles, or more than 2²³ treelets) still walk the BVH.
//!
//! The same fact makes a ray's position in its call — the steps it has
//! taken ([`Cursor::steps`]) — all a checkpoint needs to record of it: a
//! restore issues the call again and advances it that far.
//!
//! [`Simulator::with_tape`]: crate::Simulator::with_tape

use std::fmt;

use rtbvh::{Bvh, NodeId, PrimHit, TreeletId};
use rtmath::{Ray, Vec3};
use rtscene::Triangle;

use crate::config::ConfigError;
use crate::ray::{NextNode, RayId, RayTraversal, VisitCost};
use crate::sim::{PathTask, Workload, TRACE_T_MIN};

/// Fewest tasks at which [`Tape::record`] forks; below it (every quick
/// configuration) a thread spawn costs more than it saves.
const PARALLEL_MIN_TASKS: usize = 16 * 1024;

/// Bits of [`Step::meta`] holding the visit's test count.
const TESTS_BITS: u32 = 8;
/// Set in [`Step::meta`] when the tests were triangle tests (a leaf).
const LEAF_BIT: u32 = 1 << TESTS_BITS;
/// The treelet sits above the leaf bit.
const TREELET_SHIFT: u32 = TESTS_BITS + 1;
/// Treelets a step can name.
const MAX_TREELETS: usize = 1 << (32 - TREELET_SHIFT);

/// One recorded node visit in 8 bytes: the node, and one word holding its
/// treelet, whether it was a leaf, and how many tests the visit made (a
/// visit tests either child boxes or leaf triangles, never both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    node: u32,
    meta: u32,
}

impl Step {
    fn new(node: NodeId, treelet: TreeletId, cost: VisitCost) -> Step {
        let (leaf, tests) =
            if cost.tri_tests > 0 { (LEAF_BIT, cost.tri_tests) } else { (0, cost.box_tests) };
        assert!(tests < LEAF_BIT, "a visit of {tests} tests does not fit a tape step");
        Step { node: node.0, meta: treelet.0 << TREELET_SHIFT | leaf | tests }
    }

    fn treelet(self) -> TreeletId {
        TreeletId(self.meta >> TREELET_SHIFT)
    }

    fn cost(self) -> VisitCost {
        let tests = self.meta & (LEAF_BIT - 1);
        if self.meta & LEAF_BIT != 0 {
            VisitCost { box_tests: 0, tri_tests: tests }
        } else {
            VisitCost { box_tests: tests, tri_tests: 0 }
        }
    }
}

/// The closest (or, for an anyhit query, terminating) hit of one call and
/// the leaf it came from.
type CallEnd = (Option<PrimHit>, Option<NodeId>);

/// The node-visit sequence of every trace call of one workload on one BVH;
/// see the [module docs](self).
///
/// # Example
///
/// ```
/// use gpusim::{GpuConfig, PathTask, Simulator, Tape, Workload, TRACE_T_MIN};
/// use rtbvh::{Bvh, BvhConfig};
/// use rtscene::lumibench::{self, SceneId};
///
/// let scene = lumibench::build_scaled(SceneId::Bunny, 64);
/// let bvh = Bvh::build(scene.triangles(), &BvhConfig::default());
/// let workload = Workload {
///     tasks: (0..64)
///         .map(|i| PathTask {
///             rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
///         })
///         .collect(),
/// };
/// let tape = Tape::record(&bvh, scene.triangles(), &workload);
/// let sim = Simulator::new(&bvh, scene.triangles(), GpuConfig::default());
/// // A run without a tape records its own; one given the tape replays it.
/// let recorded = sim.try_run(&workload).unwrap();
/// let replay = sim.with_tape(&tape).try_run(&workload).unwrap();
/// assert_eq!(recorded.stats, replay.stats);
/// // Each call's hit is the one the walk found.
/// let call = workload.tasks[27].rays[0];
/// let hit = bvh.intersect(scene.triangles(), &call.ray, TRACE_T_MIN, call.t_max);
/// assert_eq!(replay.hits[27][0], hit);
/// ```
#[derive(PartialEq)]
pub struct Tape {
    steps: Vec<Step>,
    /// `steps[calls[c]..calls[c + 1]]` is the walk of call `c`, calls
    /// numbered across the workload in task order.
    calls: Vec<u32>,
    /// Task `t` made calls `tasks[t]..tasks[t + 1]`.
    tasks: Vec<u32>,
    ends: Vec<CallEnd>,
    /// Node count of the BVH the tape was recorded on.
    nodes: usize,
}

impl Tape {
    /// Records every trace call of `workload` by running the traversal the
    /// simulator would run — untimed, unrestricted — over `bvh`. Large
    /// workloads are recorded on [`prof::par::threads`] threads by ranges
    /// of tasks; the tape is the same whatever the thread count.
    ///
    /// # Panics
    ///
    /// Panics if `bvh` has more than 2²³ treelets or a leaf of 256 or more
    /// triangles (neither fits a tape step), or if the workload makes more
    /// than `u32::MAX` calls or node visits.
    pub fn record(bvh: &Bvh, triangles: &[Triangle], workload: &Workload) -> Tape {
        let threads = prof::par::threads_for(workload.tasks.len(), PARALLEL_MIN_TASKS);
        Tape::record_on(threads, bvh, triangles, workload)
    }

    /// Whether every visit of a walk over `bvh` fits a tape step: at most
    /// 2²³ treelets, and no leaf of 256 or more triangles.
    pub(crate) fn encodes(bvh: &Bvh) -> bool {
        bvh.partition().len() <= MAX_TREELETS && bvh.nodes().iter().all(|n| n.count < LEAF_BIT)
    }

    /// [`Tape::record`] on exactly `threads` threads.
    fn record_on(threads: usize, bvh: &Bvh, triangles: &[Triangle], workload: &Workload) -> Tape {
        /// Tasks per unit of work handed to a thread.
        const RANGE_TASKS: usize = 2048;
        assert!(Tape::encodes(bvh), "the BVH does not fit a tape step");
        let ranges: Vec<&[PathTask]> = workload.tasks.chunks(RANGE_TASKS).collect();
        let parts = prof::par::map(threads, ranges, |tasks| record_range(bvh, triangles, tasks));

        let offset = |n: usize| u32::try_from(n).expect("a tape indexes calls and steps in u32");
        let mut tasks = Vec::with_capacity(workload.tasks.len() + 1);
        tasks.push(0);
        for task in &workload.tasks {
            tasks.push(tasks[tasks.len() - 1] + offset(task.rays.len()));
        }
        let total_calls = workload.total_rays();
        let mut tape = Tape {
            steps: Vec::with_capacity(parts.iter().map(|p| p.steps.len()).sum()),
            calls: Vec::with_capacity(total_calls + 1),
            tasks,
            ends: Vec::with_capacity(total_calls),
            nodes: bvh.nodes().len(),
        };
        tape.calls.push(0);
        for part in parts {
            let base = tape.steps.len();
            tape.calls.extend(part.call_ends.iter().map(|end| offset(base + end)));
            tape.steps.extend(part.steps);
            tape.ends.extend(part.ends);
        }
        tape
    }

    /// A cursor at the first step of call `call` of workload task `task`.
    ///
    /// # Panics
    ///
    /// Panics if the workload the tape was recorded for has no such call.
    pub fn cursor(&self, task: usize, call: usize) -> Cursor {
        let index = self.tasks[task] as usize + call;
        assert!(index < self.tasks[task + 1] as usize, "task {task} made no call {call}");
        Cursor { next: self.calls[index], end: self.calls[index + 1], call: index as u32 }
    }

    /// Every call's recorded hit, `[task][call]`.
    pub(crate) fn hits(&self) -> Vec<Vec<Option<PrimHit>>> {
        let calls = |w: &[u32]| &self.ends[w[0] as usize..w[1] as usize];
        self.tasks.windows(2).map(|w| calls(w).iter().map(|(hit, _)| *hit).collect()).collect()
    }

    /// Rejects a tape recorded for another workload shape or BVH: the
    /// per-task call counts and the node count must be the run's.
    pub(crate) fn check(&self, bvh: &Bvh, workload: &Workload) -> Result<(), ConfigError> {
        let same_shape = self.tasks.len() == workload.tasks.len() + 1
            && self
                .tasks
                .windows(2)
                .zip(&workload.tasks)
                .all(|(w, t)| (w[1] - w[0]) as usize == t.rays.len());
        if !same_shape {
            return Err(ConfigError::new(format!(
                "the tape was recorded for {} tasks making {} calls, the workload has {} tasks \
                 making {} calls, or the calls per task differ",
                self.tasks.len() - 1,
                self.ends.len(),
                workload.tasks.len(),
                workload.total_rays()
            )));
        }
        if self.nodes != bvh.nodes().len() {
            return Err(ConfigError::new(format!(
                "the tape was recorded on a BVH of {} nodes, the run's has {}",
                self.nodes,
                bvh.nodes().len()
            )));
        }
        Ok(())
    }
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tape")
            .field("tasks", &(self.tasks.len() - 1))
            .field("calls", &self.ends.len())
            .field("steps", &self.steps.len())
            .field("nodes", &self.nodes)
            .finish()
    }
}

/// One range of tasks' share of a tape, call ends relative to its first
/// step.
struct Part {
    steps: Vec<Step>,
    call_ends: Vec<usize>,
    ends: Vec<CallEnd>,
}

fn record_range(bvh: &Bvh, triangles: &[Triangle], tasks: &[PathTask]) -> Part {
    let mut part = Part { steps: Vec::new(), call_ends: Vec::new(), ends: Vec::new() };
    // One walk, reset for every call, so its stacks warm up once.
    let nowhere = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
    let mut ray = RayTraversal::new(RayId(0), nowhere, bvh, TRACE_T_MIN, TRACE_T_MIN);
    for call in tasks.iter().flat_map(|t| &t.rays) {
        ray.reset(RayId(0), call.ray, bvh, TRACE_T_MIN, call.t_max);
        if call.anyhit {
            ray.set_anyhit();
        }
        while let NextNode::Visit(node) = ray.next_node(bvh, None) {
            let cost = ray.visit(bvh, triangles, node);
            part.steps.push(Step::new(node, bvh.treelet_of(node), cost));
        }
        part.call_ends.push(part.steps.len());
        part.ends.push((ray.best, ray.best_node));
    }
    part
}

/// A ray replayed from a [`Tape`]: its position in its call's steps.
///
/// The same questions a [`RayTraversal`] answers, read off the tape. A
/// cursor must be used with the tape it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    next: u32,
    end: u32,
    call: u32,
}

impl Cursor {
    /// The next node to visit; [`NextNode::ExitTreelet`] when it lies
    /// outside `restrict_to`, [`NextNode::Done`] past the last step. Like
    /// [`RayTraversal::next_node`], except that the step is taken by
    /// [`Cursor::visit`].
    pub fn next_node(&self, tape: &Tape, restrict_to: Option<TreeletId>) -> NextNode {
        let Some(step) = self.peek(tape) else { return NextNode::Done };
        match restrict_to {
            Some(t) if step.treelet() != t => NextNode::ExitTreelet(step.treelet()),
            _ => NextNode::Visit(NodeId(step.node)),
        }
    }

    /// The treelet of the next step; `None` when the walk is over.
    pub fn pending_treelet(&self, tape: &Tape) -> Option<TreeletId> {
        self.peek(tape).map(Step::treelet)
    }

    /// Takes the step [`Cursor::next_node`] reported as `node` and returns
    /// the tests the recorded visit made.
    pub fn visit(&mut self, tape: &Tape, node: NodeId) -> VisitCost {
        debug_assert!(self.next < self.end, "a finished cursor has no step to visit");
        let step = tape.steps[self.next as usize];
        debug_assert_eq!(step.node, node.0, "a cursor visits its own next step");
        self.next += 1;
        step.cost()
    }

    /// The call's closest (anyhit: terminating) hit, and the leaf it came
    /// from.
    pub fn end(&self, tape: &Tape) -> (Option<PrimHit>, Option<NodeId>) {
        tape.ends[self.call as usize]
    }

    /// The call's number across the workload, in task order: the index
    /// of its range of the tape.
    pub(crate) fn call(&self) -> usize {
        self.call as usize
    }

    /// The steps taken so far: the cursor's offset into its call's range
    /// of the tape.
    pub fn steps(&self, tape: &Tape) -> u32 {
        self.next - tape.calls[self.call as usize]
    }

    /// Takes `steps` steps at once, as a restored ray does to reach the
    /// position its checkpoint recorded. `Err` if the call ends sooner.
    pub(crate) fn advance(&mut self, steps: u32) -> Result<(), String> {
        match self.next.checked_add(steps) {
            Some(next) if next <= self.end => {
                self.next = next;
                Ok(())
            }
            _ => Err(format!("{steps} more steps run past the end of call {}", self.call)),
        }
    }

    fn peek(&self, tape: &Tape) -> Option<Step> {
        (self.next < self.end).then(|| tape.steps[self.next as usize])
    }
}

#[cfg(test)]
mod tests {
    use rtbvh::BvhConfig;
    use rtscene::lumibench::{self, SceneId};
    use rtscene::MaterialId;

    use super::*;
    use crate::rt_unit::RtUnit;
    use crate::sim::TraceCall;
    use crate::{Checkpoint, GpuConfig, RunOptions, Simulator, TraversalPolicy, VtqParams};

    fn setup() -> (rtscene::Scene, Bvh, Workload) {
        let scene = lumibench::build_scaled(SceneId::Bunny, 32);
        // Small treelets so walks cross treelet boundaries.
        let bvh =
            Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
        let away = Ray::new(Vec3::new(1000.0, 1000.0, 1000.0), Vec3::new(1.0, 0.0, 0.0));
        let tasks = (0..64)
            .map(|i| {
                let ray = scene.camera().primary_ray(i % 8 * 6, i / 8 * 6, 48, 48, None);
                let shadow = TraceCall::anyhit(Ray::new(ray.origin, -ray.dir), 50.0);
                PathTask { rays: vec![ray.into(), shadow, away.into()] }
            })
            .collect();
        (scene, bvh, Workload { tasks })
    }

    #[test]
    fn a_cursor_reads_back_the_walk_it_recorded() {
        let (scene, bvh, workload) = setup();
        let tape = Tape::record(&bvh, scene.triangles(), &workload);
        for (task, t) in workload.tasks.iter().enumerate() {
            for (call, c) in t.rays.iter().enumerate() {
                let mut live = RayTraversal::new(RayId(0), c.ray, &bvh, TRACE_T_MIN, c.t_max);
                if c.anyhit {
                    live.set_anyhit();
                }
                let mut cursor = tape.cursor(task, call);
                loop {
                    assert_eq!(cursor.pending_treelet(&tape), live.pending_treelet(&bvh));
                    let next = cursor.next_node(&tape, None);
                    assert_eq!(next, live.next_node(&bvh, None));
                    let NextNode::Visit(node) = next else { break };
                    assert_eq!(
                        cursor.visit(&tape, node),
                        live.visit(&bvh, scene.triangles(), node)
                    );
                }
                assert_eq!(cursor.end(&tape), (live.best, live.best_node));
            }
        }
    }

    #[test]
    fn a_ray_that_misses_the_root_bounds_replays_as_done() {
        let (scene, bvh, workload) = setup();
        let tape = Tape::record(&bvh, scene.triangles(), &workload);
        let cursor = tape.cursor(5, 2);
        assert_eq!(cursor.next_node(&tape, None), NextNode::Done);
        assert_eq!(cursor.pending_treelet(&tape), None);
        assert_eq!(cursor.end(&tape), (None, None));
    }

    #[test]
    fn a_restricted_cursor_exits_where_the_next_step_leaves_the_treelet() {
        let (scene, bvh, workload) = setup();
        let tape = Tape::record(&bvh, scene.triangles(), &workload);
        let mut exits = 0;
        for task in 0..workload.tasks.len() {
            let mut cursor = tape.cursor(task, 0);
            let Some(home) = cursor.pending_treelet(&tape) else { continue };
            loop {
                match cursor.next_node(&tape, Some(home)) {
                    NextNode::Visit(n) => {
                        assert_eq!(bvh.treelet_of(n), home);
                        cursor.visit(&tape, n);
                    }
                    NextNode::ExitTreelet(t) => {
                        assert_ne!(t, home);
                        assert_eq!(cursor.pending_treelet(&tape), Some(t));
                        exits += 1;
                        break;
                    }
                    NextNode::Done => break,
                }
            }
        }
        assert!(exits > 0, "1 KB treelets make camera rays cross treelets");
    }

    #[test]
    fn the_tape_does_not_depend_on_the_thread_count() {
        let (scene, bvh, workload) = setup();
        // Ranges of 2048 tasks: enough tasks for three of them.
        let tasks = workload.tasks.iter().cycle().take(5000).cloned().collect();
        let workload = Workload { tasks };
        let serial = Tape::record_on(1, &bvh, scene.triangles(), &workload);
        for threads in [2, 3] {
            assert!(serial == Tape::record_on(threads, &bvh, scene.triangles(), &workload));
        }
    }

    #[test]
    fn a_tape_for_another_workload_or_bvh_is_rejected() {
        let (scene, bvh, workload) = setup();
        let tape = Tape::record(&bvh, scene.triangles(), &workload);
        assert_eq!(tape.check(&bvh, &workload), Ok(()));
        let mut fewer = workload.clone();
        fewer.tasks.pop();
        assert!(tape.check(&bvh, &fewer).is_err());
        let mut reshaped = workload.clone();
        let moved = reshaped.tasks[3].rays.pop().expect("every task makes three calls");
        reshaped.tasks[4].rays.push(moved);
        assert!(tape.check(&bvh, &reshaped).is_err());
        let other =
            Bvh::build(scene.triangles(), &BvhConfig { max_leaf_prims: 8, ..*bvh.config() });
        assert_ne!(other.nodes().len(), bvh.nodes().len());
        let err = tape.check(&other, &workload).unwrap_err().to_string();
        assert!(err.contains("nodes"), "{err}");
    }

    /// 300 coincident triangles make one leaf whose visit no tape step
    /// holds, so a run over a BVH with that leaf walks every ray instead
    /// of panicking in `record` — here under VTQ, whose queues pause walks
    /// at treelet boundaries (the BUNNY around the leaf is cut into 1 KB
    /// treelets). A checkpoint that holds a paused ray restores it by
    /// re-walking its steps unrestricted, and resumes to the run's end.
    #[test]
    fn a_vtq_run_over_a_bvh_no_tape_encodes_walks_and_resumes() {
        let (scene, _, _) = setup();
        let (a, b, c) =
            (Vec3::new(-1.0, -1.0, 0.0), Vec3::new(1.0, -1.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        let mut triangles = scene.triangles().to_vec();
        let first = triangles.len() as u32;
        triangles.extend(vec![Triangle::new(a, b, c, MaterialId::new(0)); 300]);
        let bvh = Bvh::build(
            &triangles,
            &BvhConfig { treelet_bytes: 1024, max_leaf_prims_hard: 300, ..Default::default() },
        );
        assert!(!Tape::encodes(&bvh));
        let at = Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::new(0.0, 0.0, 1.0));
        let tasks = (0..128)
            .map(|i| {
                let ray = scene.camera().primary_ray(i % 16 * 3, i / 16 * 6, 48, 48, None);
                PathTask { rays: vec![ray.into(), at.into(), TraceCall::anyhit(ray, 50.0)] }
            })
            .collect();
        let workload = Workload { tasks };
        let mut cfg = GpuConfig::default().with_policy(TraversalPolicy::Vtq(VtqParams::default()));
        cfg.mem.num_sms = 2;
        let sim = Simulator::new(&bvh, &triangles, cfg);
        let plain = sim.try_run(&workload).expect("a tape-less run walks");
        for (task, calls) in workload.tasks.iter().enumerate() {
            for (call, c) in calls.rays.iter().enumerate().filter(|(_, c)| !c.anyhit) {
                let want = bvh.intersect(&triangles, &c.ray, TRACE_T_MIN, c.t_max);
                assert_eq!(plain.hits[task][call], want, "task {task} call {call}");
            }
        }
        assert_eq!(plain.hits[0][1].map(|h| h.prim), Some(first), "ties break to the lowest prim");

        let mut ckpts = Vec::new();
        sim.try_run_checkpointed(&workload, 32, &mut |c| ckpts.push(c)).expect("checkpointed");
        // A ray waiting in a treelet queue after some steps was paused at
        // a treelet boundary.
        let paused = |c: &Checkpoint| {
            let mut queued = c.rt.iter().flat_map(RtUnit::queued_rays);
            queued.any(|id| c.rays.rays[id.index()].1 > 0)
        };
        let ckpt = ckpts.iter().find(|c| paused(c)).expect("a snapshot holds a paused walk");
        let back = Checkpoint::from_jsonl(&ckpt.to_jsonl()).expect("round-trip parses");
        assert_eq!(&back, ckpt);
        let resumed =
            sim.try_run_with(&workload, RunOptions::new().resume(&back)).expect("resumes");
        assert_eq!(format!("{:?}", resumed.stats), format!("{:?}", plain.stats));
        assert_eq!(format!("{:?}", resumed.mem), format!("{:?}", plain.mem));
        assert_eq!(resumed.hits, plain.hits);
    }

    #[test]
    fn a_step_packs_into_eight_bytes() {
        assert_eq!(std::mem::size_of::<Step>(), 8);
        let leaf = Step::new(
            NodeId(7),
            TreeletId(MAX_TREELETS as u32 - 1),
            VisitCost { box_tests: 0, tri_tests: 255 },
        );
        assert_eq!(leaf.cost(), VisitCost { box_tests: 0, tri_tests: 255 });
        assert_eq!(leaf.treelet(), TreeletId(MAX_TREELETS as u32 - 1));
        let inner = Step::new(NodeId(3), TreeletId(0), VisitCost { box_tests: 4, tri_tests: 0 });
        assert_eq!(
            (inner.cost(), inner.treelet()),
            (VisitCost { box_tests: 4, tri_tests: 0 }, TreeletId(0))
        );
    }
}
