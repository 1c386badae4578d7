//! The treelet queue state of one RT unit.
//!
//! Functionally this is a map `TreeletId → FIFO of rays`; the hardware
//! version (§4.2, §6.5) is a Treelet Count Table (600 entries) plus a
//! Treelet Queue Table in the L1 (128 entries × 32 ray ids). We keep the
//! full map for functional correctness and *charge spill traffic* whenever
//! the live contents exceed the hardware capacities, exactly as the paper
//! handles overflow ("excess entries are stored in memory and fetched when
//! needed").

use std::collections::{BTreeMap, VecDeque};

use rtbvh::TreeletId;

use crate::checkpoint::in_range;
use crate::jsonl::{Fields, Record};
use crate::ray::RayId;

/// Per-RT-unit treelet queues.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeletQueues {
    queues: BTreeMap<TreeletId, VecDeque<RayId>>,
    total: usize,
}

impl TreeletQueues {
    /// Creates empty queues.
    pub fn new() -> TreeletQueues {
        TreeletQueues::default()
    }

    /// Total queued rays.
    pub fn total_rays(&self) -> usize {
        self.total
    }

    /// Number of distinct non-empty queues (count-table occupancy).
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// `true` when no rays are queued.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Appends a ray to the queue of `treelet`.
    pub fn push(&mut self, treelet: TreeletId, ray: RayId) {
        self.queues.entry(treelet).or_default().push_back(ray);
        self.total += 1;
    }

    /// Rays waiting for `treelet`.
    pub fn len_of(&self, treelet: TreeletId) -> usize {
        self.queues.get(&treelet).map_or(0, VecDeque::len)
    }

    /// The largest queue and its length (ties broken by smallest id, so
    /// behaviour is deterministic).
    pub fn largest(&self) -> Option<(TreeletId, usize)> {
        self.queues
            .iter()
            .map(|(t, q)| (*t, q.len()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Pops up to `n` rays from the queue of `treelet`.
    pub fn pop_from(&mut self, treelet: TreeletId, n: usize) -> Vec<RayId> {
        let mut out = Vec::new();
        if let Some(q) = self.queues.get_mut(&treelet) {
            while out.len() < n {
                match q.pop_front() {
                    Some(r) => out.push(r),
                    None => break,
                }
            }
            if q.is_empty() {
                self.queues.remove(&treelet);
            }
        }
        self.total -= out.len();
        out
    }

    /// Pops up to `n` rays for the §4.4 "group underpopulated treelet
    /// queues" gather, taking from the most-populated queues first so the
    /// grouped warp stays as coherent as the queue state allows. Returns
    /// the rays and the treelet each came from.
    pub fn pop_any(&mut self, n: usize) -> Vec<(TreeletId, RayId)> {
        let mut out = Vec::new();
        let mut keys: Vec<(usize, TreeletId)> =
            self.queues.iter().map(|(t, q)| (q.len(), *t)).collect();
        let order =
            |a: &(usize, TreeletId), b: &(usize, TreeletId)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        // Every queue holds at least one ray, so only the first `n` queues
        // in this order can contribute: select them, then sort just those.
        if n < keys.len() {
            keys.select_nth_unstable_by(n, order);
            keys.truncate(n);
        }
        keys.sort_unstable_by(order);
        for (_, t) in keys {
            if out.len() >= n {
                break;
            }
            let take = n - out.len();
            for r in self.pop_from(t, take) {
                out.push((t, r));
            }
        }
        out
    }

    /// Rays beyond the hardware queue-table capacity (`entries × 32`);
    /// these live spilled in memory and each push/pop beyond capacity
    /// costs queue-meta traffic.
    pub fn overflow_rays(&self, queue_table_entries: usize) -> usize {
        self.total.saturating_sub(queue_table_entries * 32)
    }

    /// Queues beyond the count-table capacity.
    pub fn overflow_queues(&self, count_table_entries: usize) -> usize {
        self.queues.len().saturating_sub(count_table_entries)
    }

    /// Skews the cached ray counter without touching the queues, so the
    /// next audit trips the `queue-accounting` invariant.
    #[cfg(test)]
    pub(crate) fn corrupt_total(&mut self, delta: isize) {
        self.total = self.total.saturating_add_signed(delta);
    }

    // -- checkpoint records ---------------------------------------------------

    /// One `ckpt_queue` line per queue, ascending by treelet, rays in FIFO
    /// order. The cached total travels on the unit's `ckpt_rt` line,
    /// verbatim rather than recounted, so a restored unit audits the
    /// counter the captured one had.
    pub(crate) fn write_jsonl(&self, sm: usize, emit: &mut dyn FnMut(Record)) {
        for (treelet, rays) in &self.queues {
            let rays = rays.iter().map(|r| r.0);
            emit(
                Record::new("ckpt_queue")
                    .num("sm", sm)
                    .num("treelet", treelet.0)
                    .list("rays", rays),
            );
        }
    }

    /// Reads the cached total off a `ckpt_rt` line.
    pub(crate) fn read_total(&mut self, f: &Fields<'_>) -> Result<(), String> {
        self.total = f.num("queue_total")?;
        Ok(())
    }

    /// Applies one `ckpt_queue` line (the total is not touched).
    pub(crate) fn read_queue(&mut self, f: &Fields<'_>) -> Result<(), String> {
        let treelet = TreeletId(f.num("treelet")?);
        let rays: VecDeque<RayId> = f.list("rays")?.into_iter().map(RayId).collect();
        if rays.is_empty() || self.queues.insert(treelet, rays).is_some() {
            return Err(format!("queue of treelet {} is empty or written twice", treelet.0));
        }
        Ok(())
    }

    /// Checks every queued id against the run being restored into: the
    /// engine indexes the ray table with the ray ids and asks the BVH for
    /// the extent of the treelet ids.
    pub(crate) fn validate(&self, rays: usize, treelets: usize) -> Result<(), String> {
        in_range("queued treelet", self.queues.keys().map(|t| t.0 as usize), treelets)?;
        in_range("queued ray", self.queues.values().flatten().map(|r| r.index()), rays)
    }

    /// The cached ray counter must match the queues (`queue-accounting`).
    pub(crate) fn audit(&self) -> Result<(), String> {
        let recount: usize = self.queues.values().map(VecDeque::len).sum();
        if recount != self.total {
            return Err(format!("cached total {} != recounted {recount}", self.total));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TreeletId {
        TreeletId(i)
    }

    fn r(i: u32) -> RayId {
        RayId(i)
    }

    #[test]
    fn push_pop_fifo() {
        let mut q = TreeletQueues::new();
        q.push(t(3), r(1));
        q.push(t(3), r(2));
        q.push(t(5), r(3));
        assert_eq!(q.total_rays(), 3);
        assert_eq!(q.queue_count(), 2);
        assert_eq!(q.pop_from(t(3), 10), vec![r(1), r(2)]);
        assert_eq!(q.total_rays(), 1);
        assert_eq!(q.queue_count(), 1); // empty queue removed
    }

    #[test]
    fn largest_prefers_longer_then_smaller_id() {
        let mut q = TreeletQueues::new();
        q.push(t(9), r(0));
        q.push(t(2), r(1));
        q.push(t(2), r(2));
        assert_eq!(q.largest(), Some((t(2), 2)));
        q.push(t(9), r(3));
        // Tie: smaller id wins.
        assert_eq!(q.largest(), Some((t(2), 2)));
    }

    #[test]
    fn pop_any_takes_most_populated_queue_first() {
        let mut q = TreeletQueues::new();
        q.push(t(7), r(70));
        q.push(t(1), r(10));
        q.push(t(1), r(11));
        let got = q.pop_any(2);
        assert_eq!(got, vec![(t(1), r(10)), (t(1), r(11))]);
        assert_eq!(q.total_rays(), 1);
        let rest = q.pop_any(5);
        assert_eq!(rest, vec![(t(7), r(70))]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_accounting() {
        let mut q = TreeletQueues::new();
        for i in 0..70 {
            q.push(t(i), r(i));
        }
        assert_eq!(q.overflow_rays(2), 70 - 64);
        assert_eq!(q.overflow_rays(3), 0);
        assert_eq!(q.overflow_queues(60), 10);
        assert_eq!(q.overflow_queues(100), 0);
    }

    #[test]
    fn recount_matches_cached_total_until_corrupted() {
        let mut q = TreeletQueues::new();
        q.push(t(1), r(1));
        q.push(t(2), r(2));
        q.push(t(2), r(3));
        assert_eq!(q.audit(), Ok(()));
        q.corrupt_total(2);
        assert_eq!(q.total_rays(), 5);
        assert_eq!(q.audit(), Err("cached total 5 != recounted 3".to_string()));
        q.corrupt_total(-10); // saturates at zero instead of wrapping
        assert_eq!(q.total_rays(), 0);
    }

    #[test]
    fn pop_from_missing_queue_is_empty() {
        let mut q = TreeletQueues::new();
        assert!(q.pop_from(t(1), 4).is_empty());
        assert_eq!(q.largest(), None);
    }
}
