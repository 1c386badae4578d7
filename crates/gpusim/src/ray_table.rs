//! The ray table: every ray the kernel has created so far — its traversal
//! state and which CTA / task / bounce / SM it belongs to — and the hit
//! records finished rays leave behind. A ray's id is its index here.
//!
//! (The pool of reclaimed stack arenas that fresh rays draw from is
//! engine scratch, not state: a restored engine simply re-warms it.)

use std::ops::{Index, IndexMut};

use rtbvh::{Bvh, PrimHit};

use crate::checkpoint::index_of;
use crate::jsonl::{Fields, Opt, Pair, Record};
use crate::ray::{RayId, RayTraversal};
use crate::sim::Workload;

/// Where a ray came from, and so where its completion is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RayMeta {
    pub(crate) cta: usize,
    pub(crate) task: usize,
    pub(crate) bounce: usize,
    pub(crate) sm: usize,
}

/// The ray table's state; see the [module docs](self). The live struct
/// is the checkpointed struct.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RayTable {
    rays: Vec<RayTraversal>,
    meta: Vec<RayMeta>,
    /// Closest hit per task per trace call, filled as rays complete.
    pub(crate) hits: Vec<Vec<Option<PrimHit>>>,
}

impl Index<RayId> for RayTable {
    type Output = RayTraversal;
    fn index(&self, id: RayId) -> &RayTraversal {
        &self.rays[id.index()]
    }
}

impl IndexMut<RayId> for RayTable {
    fn index_mut(&mut self, id: RayId) -> &mut RayTraversal {
        &mut self.rays[id.index()]
    }
}

impl RayTable {
    /// No rays yet, and a `None` hit record for every call `workload` makes.
    pub(crate) fn new(workload: &Workload) -> RayTable {
        let hits = workload.tasks.iter().map(|t| vec![None; t.rays.len()]).collect();
        RayTable { hits, ..RayTable::default() }
    }

    /// No rays and `tasks` hit lists of no calls, for a checkpoint's
    /// `ckpt_ray` / `ckpt_hits` lines to fill.
    pub(crate) fn empty(tasks: usize) -> RayTable {
        RayTable { hits: vec![Vec::new(); tasks], ..RayTable::default() }
    }

    /// Rays created so far; also the id the next one gets.
    pub(crate) fn len(&self) -> usize {
        self.rays.len()
    }

    pub(crate) fn push(&mut self, ray: RayTraversal, meta: RayMeta) {
        self.rays.push(ray);
        self.meta.push(meta);
    }

    /// Records a finished ray's best hit and returns where it came from.
    pub(crate) fn complete(&mut self, id: RayId) -> RayMeta {
        let meta = self.meta[id.index()];
        self.hits[meta.task][meta.bounce] = self.rays[id.index()].best;
        meta
    }

    // -- checkpoint records ---------------------------------------------------

    /// One `ckpt_ray` line per ray in id order, then one `ckpt_hits` line
    /// per task (hits as `t bits:prim` or `-`).
    pub(crate) fn write_jsonl(&self, emit: &mut dyn FnMut(Record)) {
        for (ray, m) in self.rays.iter().zip(&self.meta) {
            emit(
                ray.fields(Record::new("ckpt_ray"))
                    .num("cta", m.cta)
                    .num("task", m.task)
                    .num("bounce", m.bounce)
                    .num("sm", m.sm),
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
        };
        self.push(RayTraversal::read(f)?, meta);
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
    /// count when read), and its traversal state indexes inside `bvh`.
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
        for (i, (ray, m)) in self.rays.iter().zip(&self.meta).enumerate() {
            let calls = workload.tasks.get(m.task).map_or(0, |t| t.rays.len());
            if m.cta >= ctas || m.bounce >= calls {
                return Err(format!("ray {i} references an out-of-range cta, task or bounce"));
            }
            ray.validate(bvh).map_err(|e| format!("ray {i}: {e}"))?;
        }
        Ok(())
    }

    /// Ray conservation: every ray ever created is either completed or in
    /// flight on exactly one SM (the engine supplies both counts).
    pub(crate) fn audit(
        &self,
        completed: u64,
        in_flight: usize,
    ) -> Result<(), (&'static str, String)> {
        if self.len() as u64 != completed + in_flight as u64 {
            let detail = format!(
                "{} rays created != {completed} completed + {in_flight} in flight",
                self.len()
            );
            return Err(("ray-conservation", detail));
        }
        Ok(())
    }
}
