//! The ray table: every ray the kernel has created so far — its traversal
//! state and which CTA / task / bounce / SM it belongs to — and the hit
//! records finished rays leave behind. A ray's id is its index here.
//!
//! A ray either replays its call's recorded walk from the run's [`Tape`]
//! ([`Cursor`]) or walks the BVH ([`RayTraversal`]): it walks only when
//! the ray-path predictor had it visit a predicted leaf first, or when
//! the run has no tape because its BVH does not fit one. The table
//! answers the engine's traversal questions for both alike.
//!
//! A checkpoint does not clone the table: it records each ray's
//! *position* ([`RayPositions`]) — the call it traces, the steps it has
//! taken and the leaf it was speculated for — and a restore issues the
//! call again and advances it that far. Both kinds of ray step through
//! their call in the order the unrestricted walk does, however a policy
//! pauses them (see the [`tape`](crate::tape) module docs), so the
//! position is the whole state.
//!
//! (The pool of reclaimed stack arenas that fresh rays draw from is
//! engine scratch, not state: a restored engine simply re-warms it.)

use rtbvh::{Bvh, NodeId, PrimHit, TreeletId};
use rtscene::Triangle;

use crate::checkpoint::{in_range, index_of};
use crate::jsonl::{Fields, Opt, Pair, Record};
use crate::ray::{NextNode, RayId, RayTraversal, StackArena, VisitCost};
use crate::sim::Workload;
use crate::tape::{Cursor, Tape};

/// Where a ray came from, and so where its completion is reported; plus
/// the leaf the prediction table had it visit first, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RayMeta {
    pub(crate) cta: usize,
    pub(crate) task: usize,
    pub(crate) bounce: usize,
    pub(crate) sm: usize,
    pub(crate) lead: Option<NodeId>,
}

/// One ray's traversal: walked through the BVH, or replayed from the run's
/// tape.
#[derive(Debug)]
pub(crate) enum Walk {
    Live(RayTraversal),
    Replay(Cursor),
}

impl Walk {
    /// The node visits the ray has made: a cursor's offset into its call,
    /// a walk's visit count.
    fn steps(&self, tape: Option<&Tape>) -> u32 {
        match self {
            Walk::Live(ray) => ray.nodes_visited,
            Walk::Replay(cursor) => cursor.steps(replayed(tape)),
        }
    }

    /// Takes `steps` steps of a freshly issued ray at once — unrestricted,
    /// as the walk a tape records — to reach a checkpointed position.
    /// `Err` if the call ends first.
    pub(crate) fn advance(
        &mut self,
        steps: u32,
        bvh: &Bvh,
        triangles: &[Triangle],
    ) -> Result<(), String> {
        match self {
            Walk::Replay(cursor) => cursor.advance(steps),
            Walk::Live(ray) => {
                for step in 0..steps {
                    let NextNode::Visit(node) = ray.next_node(bvh, None) else {
                        return Err(format!("the walk ends after {step} of {steps} steps"));
                    };
                    ray.visit(bvh, triangles, node);
                }
                Ok(())
            }
        }
    }
}

/// The tape a replayed ray reads; only a run with one issues them.
fn replayed(tape: Option<&Tape>) -> &Tape {
    tape.expect("only a run with a tape replays rays")
}

/// The ray table's state; see the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct RayTable {
    rays: Vec<Walk>,
    meta: Vec<RayMeta>,
    /// Closest hit per task per trace call, filled as rays complete.
    pub(crate) hits: Vec<Vec<Option<PrimHit>>>,
}

impl RayTable {
    /// No rays yet, and a `None` hit record for every call `workload` makes.
    pub(crate) fn new(workload: &Workload) -> RayTable {
        let hits = workload.tasks.iter().map(|t| vec![None; t.rays.len()]).collect();
        RayTable::with_hits(hits)
    }

    /// No rays yet, and the given hit records.
    pub(crate) fn with_hits(hits: Vec<Vec<Option<PrimHit>>>) -> RayTable {
        RayTable { hits, ..RayTable::default() }
    }

    /// Rays created so far; also the id the next one gets.
    pub(crate) fn len(&self) -> usize {
        self.rays.len()
    }

    pub(crate) fn push(&mut self, ray: Walk, meta: RayMeta) {
        self.rays.push(ray);
        self.meta.push(meta);
    }

    // -- traversal ------------------------------------------------------------

    /// [`RayTraversal::next_node`] / [`Cursor::next_node`].
    pub(crate) fn next_node(
        &mut self,
        id: RayId,
        bvh: &Bvh,
        tape: Option<&Tape>,
        restrict_to: Option<TreeletId>,
    ) -> NextNode {
        match &mut self.rays[id.index()] {
            Walk::Live(ray) => ray.next_node(bvh, restrict_to),
            Walk::Replay(cursor) => cursor.next_node(replayed(tape), restrict_to),
        }
    }

    /// [`RayTraversal::pending_treelet`] / [`Cursor::pending_treelet`].
    pub(crate) fn pending_treelet(
        &mut self,
        id: RayId,
        bvh: &Bvh,
        tape: Option<&Tape>,
    ) -> Option<TreeletId> {
        match &mut self.rays[id.index()] {
            Walk::Live(ray) => ray.pending_treelet(bvh),
            Walk::Replay(cursor) => cursor.pending_treelet(replayed(tape)),
        }
    }

    /// [`RayTraversal::enter_treelet`]; nothing for a replayed ray, whose
    /// tape already holds the walk the entry continues.
    pub(crate) fn enter_treelet(&mut self, id: RayId, bvh: &Bvh, treelet: TreeletId) {
        if let Walk::Live(ray) = &mut self.rays[id.index()] {
            ray.enter_treelet(bvh, treelet);
        }
    }

    /// [`RayTraversal::visit`] / [`Cursor::visit`].
    pub(crate) fn visit(
        &mut self,
        id: RayId,
        bvh: &Bvh,
        triangles: &[Triangle],
        tape: Option<&Tape>,
        node: NodeId,
    ) -> VisitCost {
        match &mut self.rays[id.index()] {
            Walk::Live(ray) => ray.visit(bvh, triangles, node),
            Walk::Replay(cursor) => cursor.visit(replayed(tape), node),
        }
    }

    /// Records a finished ray's best hit. Returns where the ray came from,
    /// the leaf its hit came from, and a walked ray's stack storage for the
    /// pool.
    pub(crate) fn complete(
        &mut self,
        id: RayId,
        tape: Option<&Tape>,
    ) -> (RayMeta, Option<NodeId>, Option<StackArena>) {
        let meta = self.meta[id.index()];
        let (best, best_node, arena) = match &mut self.rays[id.index()] {
            Walk::Live(ray) => (ray.best, ray.best_node, Some(ray.reclaim())),
            Walk::Replay(cursor) => {
                let (best, best_node) = cursor.end(replayed(tape));
                (best, best_node, None)
            }
        };
        self.hits[meta.task][meta.bounce] = best;
        (meta, best_node, arena)
    }

    /// Every ray's position, for a checkpoint.
    pub(crate) fn positions(&self, tape: Option<&Tape>) -> RayPositions {
        let steps = self.rays.iter().map(|ray| ray.steps(tape));
        RayPositions {
            rays: self.meta.iter().copied().zip(steps).collect(),
            hits: self.hits.clone(),
        }
    }

    /// Ray conservation: every ray ever created is either completed or in
    /// flight on exactly one SM (the engine supplies both counts). Visit
    /// conservation: the rays' steps add up to the `lane_steps` the
    /// engine counted, one per visit.
    pub(crate) fn audit(
        &self,
        completed: u64,
        in_flight: usize,
        lane_steps: u64,
        tape: Option<&Tape>,
    ) -> Result<(), (&'static str, String)> {
        if self.len() as u64 != completed + in_flight as u64 {
            let detail = format!(
                "{} rays created != {completed} completed + {in_flight} in flight",
                self.len()
            );
            return Err(("ray-conservation", detail));
        }
        let steps: u64 = self.rays.iter().map(|ray| u64::from(ray.steps(tape))).sum();
        if steps != lane_steps {
            let detail = format!("rays took {steps} steps != {lane_steps} active lane steps");
            return Err(("visit-conservation", detail));
        }
        Ok(())
    }
}

/// A checkpoint's ray table: each ray's [`RayMeta`] and the steps it has
/// taken, in id order, and the hit records. See the [module docs](self).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RayPositions {
    pub(crate) rays: Vec<(RayMeta, u32)>,
    pub(crate) hits: Vec<Vec<Option<PrimHit>>>,
}

impl RayPositions {
    /// No rays and `tasks` hit lists of no calls, for a checkpoint's
    /// `ckpt_ray` / `ckpt_hits` lines to fill.
    pub(crate) fn empty(tasks: usize) -> RayPositions {
        RayPositions { rays: Vec::new(), hits: vec![Vec::new(); tasks] }
    }

    /// Rays created so far.
    pub(crate) fn len(&self) -> usize {
        self.rays.len()
    }

    /// One `ckpt_ray` line per ray in id order, then one `ckpt_hits` line
    /// per task (hits as `t bits:prim` or `-`).
    pub(crate) fn write_jsonl(&self, emit: &mut dyn FnMut(Record)) {
        for (m, steps) in &self.rays {
            emit(
                Record::new("ckpt_ray")
                    .num("cta", m.cta)
                    .num("task", m.task)
                    .num("bounce", m.bounce)
                    .num("sm", m.sm)
                    .num("steps", *steps)
                    .opt("lead", m.lead.map(|n| n.0)),
            );
        }
        for (task, calls) in self.hits.iter().enumerate() {
            let hits = calls.iter().map(|h| Opt(h.map(|h| Pair(h.t.to_bits(), h.prim))));
            emit(Record::new("ckpt_hits").num("task", task).list("hits", hits));
        }
    }

    /// Applies one `ckpt_ray` line.
    pub(crate) fn read_ray(&mut self, f: &Fields<'_>, num_sms: usize) -> Result<(), String> {
        let meta = RayMeta {
            cta: f.num("cta")?,
            task: f.num("task")?,
            bounce: f.num("bounce")?,
            sm: index_of(f, "sm", num_sms)?,
            lead: f.opt("lead")?.map(NodeId),
        };
        self.rays.push((meta, f.num("steps")?));
        Ok(())
    }

    /// Applies one `ckpt_hits` line (`self.hits` holds one empty record
    /// per task the header declared).
    pub(crate) fn read_hits(&mut self, f: &Fields<'_>) -> Result<(), String> {
        let task = index_of(f, "task", self.hits.len())?;
        let hits = f.list::<Opt<Pair<u32, u32>>>("hits")?;
        self.hits[task] = hits
            .into_iter()
            .map(|h| h.0.map(|Pair(t, prim)| PrimHit { t: f32::from_bits(t), prim }))
            .collect();
        Ok(())
    }

    /// Checks restored state against the run being restored into: the hit
    /// records have the workload's shape, every ray names a CTA and a
    /// trace call that exist (its completion writes `hits[task][bounce]`
    /// and wakes `cta`; its `sm` was checked against the header's SM
    /// count when read), and a speculated ray's lead is a leaf of `bvh`.
    /// (Its steps are checked when the restore re-issues the call.)
    pub(crate) fn validate(
        &self,
        workload: &Workload,
        ctas: usize,
        bvh: &Bvh,
    ) -> Result<(), String> {
        if self.hits.len() != workload.tasks.len() {
            return Err("hit-record shape does not match the workload".to_string());
        }
        for (task, (calls, t)) in self.hits.iter().zip(&workload.tasks).enumerate() {
            if calls.len() != t.rays.len() {
                return Err(format!(
                    "task {task} has {} hit records, workload makes {} calls",
                    calls.len(),
                    t.rays.len()
                ));
            }
        }
        for (i, (m, _)) in self.rays.iter().enumerate() {
            let calls = workload.tasks.get(m.task).map_or(0, |t| t.rays.len());
            if m.cta >= ctas || m.bounce >= calls {
                return Err(format!("ray {i} references an out-of-range cta, task or bounce"));
            }
            if let Some(lead) = m.lead {
                in_range("lead", [lead.index()], bvh.nodes().len())
                    .map_err(|e| format!("ray {i}: {e}"))?;
                if !bvh.node(lead).is_leaf() {
                    return Err(format!("ray {i}: lead {} is not a leaf", lead.0));
                }
            }
        }
        Ok(())
    }
}
