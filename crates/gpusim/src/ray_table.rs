//! The ray table: every ray the kernel has created so far — its traversal
//! state and which CTA / task / bounce / SM it belongs to — and the hit
//! records finished rays leave behind. A ray's id is its index here.
//!
//! The table holds the run's [`Tape`], BVH and triangles. A ray replays
//! its call's recorded walk from the tape ([`Cursor`]), unless the
//! ray-path predictor had it visit a predicted leaf first: such a ray
//! walks the BVH ([`RayTraversal`]). The table answers the engine's
//! traversal questions for both alike.
//!
//! A ray is a dense row: a 16-byte [`Walk`] — a replayed ray's cursor
//! inline, a walked ray's boxed traversal — and a 16-byte packed
//! [`RayMeta`]. Hits go to one flat array in the tape's call numbering
//! (calls numbered across the workload in task order) and are nested per
//! task only when read out.
//!
//! A checkpoint does not clone the table: it records each ray's
//! *position* ([`RayPositions`]) — the call it traces, the steps it has
//! taken and the leaf it was speculated for — and a restore issues the
//! call again and advances it that far. Both kinds of ray step through
//! their call in the order the unrestricted walk does, however a policy
//! pauses them (see the [`tape`](crate::tape) module docs), so the
//! position is the whole state.
//!
//! (The pool of finished walks that fresh walked rays are reset from is
//! engine scratch, not state: a restored engine simply re-warms it.)

use rtbvh::{Bvh, NodeId, PrimHit, TreeletId};
use rtscene::Triangle;

use crate::checkpoint::{in_range, index_of};
use crate::jsonl::{Fields, Opt, Pair, Record};
use crate::ray::{NextNode, RayId, RayTraversal, VisitCost};
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

/// A [`RayMeta`] as the table stores it, in 16 bytes. Every field fits:
/// CTAs and tasks number below 2³² (ray ids are `u32`), a run's tasks
/// make at most [`MAX_CALLS_PER_TASK`] calls and
/// [`GpuConfig::validate`](crate::GpuConfig::validate) admits at most
/// 2¹⁶ SMs.
#[derive(Debug, Clone, Copy)]
struct PackedMeta {
    cta: u32,
    task: u32,
    /// [`NO_LEAD`] for a ray nothing was speculated for.
    lead: u32,
    bounce: u16,
    sm: u16,
}

/// [`PackedMeta::lead`] of a ray without a lead.
const NO_LEAD: u32 = u32::MAX;

/// Most trace calls one task of a simulated workload may make: a ray's
/// bounce is stored in 16 bits.
pub(crate) const MAX_CALLS_PER_TASK: usize = 1 << 16;

impl PackedMeta {
    fn pack(m: RayMeta) -> PackedMeta {
        let packed = PackedMeta {
            cta: m.cta as u32,
            task: m.task as u32,
            lead: m.lead.map_or(NO_LEAD, |n| n.0),
            bounce: m.bounce as u16,
            sm: m.sm as u16,
        };
        debug_assert_eq!(packed.unpack(), m, "a ray's meta fits its packed row");
        packed
    }

    fn unpack(self) -> RayMeta {
        RayMeta {
            cta: self.cta as usize,
            task: self.task as usize,
            bounce: self.bounce as usize,
            sm: self.sm as usize,
            lead: (self.lead != NO_LEAD).then_some(NodeId(self.lead)),
        }
    }
}

/// One ray's traversal: walked through the BVH, or replayed from the run's
/// tape, in 16 bytes.
#[derive(Debug)]
pub(crate) enum Walk {
    /// A walk in progress. The box returns to the engine's pool when the
    /// walk ends.
    Live(Box<RayTraversal>),
    /// A walk that has ended, and the steps it took.
    Walked(u32),
    Replay(Cursor),
}

impl Walk {
    /// The node visits the ray has made: a cursor's offset into its call,
    /// a walk's visit count.
    fn steps(&self, tape: &Tape) -> u32 {
        match self {
            Walk::Live(ray) => ray.nodes_visited,
            Walk::Walked(steps) => *steps,
            Walk::Replay(cursor) => cursor.steps(tape),
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
            Walk::Walked(_) => unreachable!("a ray is issued as a live walk or a cursor"),
        }
    }
}

/// The ray table's state and the inputs it reads; see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct RayTable<'a> {
    tape: &'a Tape,
    bvh: &'a Bvh,
    triangles: &'a [Triangle],
    walks: Vec<Walk>,
    meta: Vec<PackedMeta>,
    /// Closest hit per call, in the tape's call order, filled as rays
    /// complete.
    hits: Vec<Option<PrimHit>>,
}

impl<'a> RayTable<'a> {
    /// No rays yet, and a `None` hit record for every call the tape's
    /// workload makes.
    pub(crate) fn new(tape: &'a Tape, bvh: &'a Bvh, triangles: &'a [Triangle]) -> RayTable<'a> {
        let hits = vec![None; tape.calls()];
        RayTable { tape, bvh, triangles, walks: Vec::new(), meta: Vec::new(), hits }
    }

    /// Replaces the hit records with `hits[task][call]`, of the shape of
    /// the workload the table was made for.
    pub(crate) fn set_hits(&mut self, hits: &[Vec<Option<PrimHit>>]) {
        self.hits.clear();
        self.hits.extend(hits.iter().flatten());
    }

    /// The hit records, `[task][call]`.
    pub(crate) fn hits(&self) -> Vec<Vec<Option<PrimHit>>> {
        self.tape.by_task(&self.hits)
    }

    /// Rays created so far; also the id the next one gets.
    pub(crate) fn len(&self) -> usize {
        self.walks.len()
    }

    pub(crate) fn push(&mut self, walk: Walk, meta: RayMeta) {
        self.walks.push(walk);
        self.meta.push(PackedMeta::pack(meta));
    }

    // -- traversal ------------------------------------------------------------

    /// [`RayTraversal::next_node`] / [`Cursor::next_node`].
    pub(crate) fn next_node(&mut self, id: RayId, restrict_to: Option<TreeletId>) -> NextNode {
        match &mut self.walks[id.index()] {
            Walk::Replay(cursor) => cursor.next_node(self.tape, restrict_to),
            Walk::Live(ray) => ray.next_node(self.bvh, restrict_to),
            Walk::Walked(_) => NextNode::Done,
        }
    }

    /// [`RayTraversal::pending_treelet`] / [`Cursor::pending_treelet`].
    pub(crate) fn pending_treelet(&mut self, id: RayId) -> Option<TreeletId> {
        match &mut self.walks[id.index()] {
            Walk::Replay(cursor) => cursor.pending_treelet(self.tape),
            Walk::Live(ray) => ray.pending_treelet(self.bvh),
            Walk::Walked(_) => None,
        }
    }

    /// [`RayTraversal::visit`] / [`Cursor::visit`].
    pub(crate) fn visit(&mut self, id: RayId, node: NodeId) -> VisitCost {
        match &mut self.walks[id.index()] {
            Walk::Replay(cursor) => cursor.visit(self.tape, node),
            Walk::Live(ray) => ray.visit(self.bvh, self.triangles, node),
            Walk::Walked(_) => unreachable!("a finished walk has no step to visit"),
        }
    }

    /// Records a finished ray's best hit. Returns where the ray came from,
    /// the leaf its hit came from, and a walked ray's traversal for the
    /// pool.
    pub(crate) fn complete(
        &mut self,
        id: RayId,
    ) -> (RayMeta, Option<NodeId>, Option<Box<RayTraversal>>) {
        let meta = self.meta[id.index()].unpack();
        let walk = &mut self.walks[id.index()];
        let (call, (best, best_node), ray) = match walk {
            Walk::Replay(cursor) => (cursor.call(), cursor.end(self.tape), None),
            Walk::Live(ray) => {
                let steps = Walk::Walked(ray.nodes_visited);
                let Walk::Live(ray) = std::mem::replace(walk, steps) else { unreachable!() };
                let call = self.tape.call(meta.task, meta.bounce);
                (call, (ray.best, ray.best_node), Some(ray))
            }
            Walk::Walked(_) => unreachable!("a ray completes once"),
        };
        self.hits[call] = best;
        (meta, best_node, ray)
    }

    /// Every ray's position, for a checkpoint.
    pub(crate) fn positions(&self) -> RayPositions {
        let steps = self.walks.iter().map(|walk| walk.steps(self.tape));
        RayPositions {
            rays: self.meta.iter().map(|m| m.unpack()).zip(steps).collect(),
            hits: self.hits(),
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
    ) -> Result<(), (&'static str, String)> {
        if self.len() as u64 != completed + in_flight as u64 {
            let detail = format!(
                "{} rays created != {completed} completed + {in_flight} in flight",
                self.len()
            );
            return Err(("ray-conservation", detail));
        }
        let steps: u64 = self.walks.iter().map(|walk| u64::from(walk.steps(self.tape))).sum();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-flight ray is a 32-byte row: its walk and its packed meta.
    #[test]
    fn a_ray_is_a_32_byte_row() {
        assert_eq!(std::mem::size_of::<Walk>(), 16);
        assert_eq!(std::mem::size_of::<PackedMeta>(), 16);
        for lead in [None, Some(NodeId(0)), Some(NodeId(NO_LEAD - 1))] {
            let meta =
                RayMeta { cta: 7, task: u32::MAX as usize, bounce: 65_535, sm: 65_535, lead };
            assert_eq!(PackedMeta::pack(meta).unpack(), meta);
        }
    }
}
