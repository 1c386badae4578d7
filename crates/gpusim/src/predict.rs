//! Hardware model of the ray-path prediction table.
//!
//! After Demoullin, Gubran & Aamodt (PAPERS.md): each RT unit carries a
//! small hash table mapping a *quantized* ray (origin + direction cells)
//! to the leaf node whose triangles produced the last hit for a similar
//! ray. Coherent rays — primaries and shadow rays toward a common light —
//! land in the same cell, so a lookup before traversal starts lets them
//! test the likely-hit leaf first and prune the interior walk against an
//! already-tight `t` limit.
//!
//! The structure mirrors [`HwQueueTable`](crate::hw_table::HwQueueTable)'s
//! hardware budget: 2-way skewed-associative buckets addressed by two
//! single-cycle multiplicative hashes, insert into the shorter chain plus
//! a single cuckoo relocation to keep probe chains at two, and — unlike
//! the queue table, which spills — a *deterministic* replacement of the
//! oldest resident entry when both candidate buckets are full, because a
//! predictor can always afford to forget. All iteration is over plain
//! `Vec`s in insertion order; no platform-dependent hashing or map
//! iteration anywhere, so runs are bit-reproducible.

use rtbvh::NodeId;
use rtmath::{Aabb, Ray};

use crate::checkpoint::{in_range, index_of};
use crate::jsonl::{Fields, Record};

/// Occupancy and accuracy counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictTableStats {
    /// Lookup operations performed.
    pub lookups: u64,
    /// Lookups that found a prediction.
    pub hits: u64,
    /// Training inserts (new key, or a key re-trained to a new leaf).
    pub inserts: u64,
    /// Resident entries replaced to make room.
    pub evictions: u64,
}

/// One prediction entry: a quantized-ray tag and the predicted leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    node: u32,
}

/// In-bucket chain cap: two tags per bucket, the same bound the queue
/// table's §4.2 measurement pins.
const CHAIN_CAP: usize = 2;

/// Everything of a prediction table that changes while it runs — what a
/// checkpoint holds, and what an RT unit embeds. The entry capacity comes
/// from the configuration, not from a checkpoint file, so
/// [`train`](Self::train) takes it as an argument; [`PredictTable`] is
/// this state plus that number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PredictState {
    /// In-bucket insertion order is state: it decides the eviction victim.
    buckets: Vec<Vec<Entry>>,
    live_entries: u32,
    stats: PredictTableStats,
}

impl PredictState {
    /// Empty state for a table of `entries` slots: one bucket per
    /// power-of-two hash slot, at most [`CHAIN_CAP`] entries chained per
    /// bucket.
    pub(crate) fn new(entries: u32) -> PredictState {
        let slots = entries.div_ceil(CHAIN_CAP as u32).next_power_of_two().max(1);
        PredictState { buckets: vec![Vec::new(); slots as usize], ..PredictState::default() }
    }

    /// The two candidate bucket indices (2-way skewed-associative
    /// placement, same two single-cycle multiplicative folds as the
    /// treelet queue table).
    fn hashes(&self, key: u64) -> [usize; 2] {
        let mask = self.buckets.len() - 1;
        let h0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let h1 = key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32;
        [(h0 as usize) & mask, (h1 as usize) & mask]
    }

    /// Looks up the predicted leaf for a quantized ray.
    pub(crate) fn lookup(&mut self, key: u64) -> Option<NodeId> {
        self.stats.lookups += 1;
        for b in self.hashes(key) {
            for e in &self.buckets[b] {
                if e.key == key {
                    self.stats.hits += 1;
                    return Some(NodeId(e.node));
                }
            }
        }
        None
    }

    /// Trains a table of `capacity` entry slots: maps `key` to `node`,
    /// re-training an existing entry in place. When both candidate buckets
    /// are chained to the cap (and a relocation cannot free a slot), the
    /// *first-inserted* entry of the fuller candidate is replaced — a
    /// deterministic FIFO-ish victim choice, not dependent on any map
    /// iteration order.
    pub(crate) fn train(&mut self, key: u64, node: NodeId, capacity: u32) {
        self.stats.inserts += 1;
        let [b0, b1] = self.hashes(key);
        for b in [b0, b1] {
            for e in self.buckets[b].iter_mut() {
                if e.key == key {
                    e.node = node.0;
                    return;
                }
            }
        }
        let entry = Entry { key, node: node.0 };
        // Prefer the shorter candidate chain.
        let mut b = if self.buckets[b1].len() < self.buckets[b0].len() { b1 } else { b0 };
        if self.buckets[b].len() >= CHAIN_CAP || self.live_entries >= capacity {
            // Both candidates full (or the table is at capacity): try one
            // cuckoo step out of each candidate, then evict the oldest
            // resident of the chosen bucket.
            if self.live_entries < capacity && self.try_relocate(b0) {
                b = b0;
            } else if self.live_entries < capacity && self.try_relocate(b1) {
                b = b1;
            } else {
                self.buckets[b].remove(0);
                self.live_entries -= 1;
                self.stats.evictions += 1;
            }
        }
        self.buckets[b].push(entry);
        self.live_entries += 1;
    }

    /// Tries to move one resident of bucket `b` to its alternate bucket
    /// (a single cuckoo step). Scans in insertion order — deterministic.
    fn try_relocate(&mut self, b: usize) -> bool {
        for i in 0..self.buckets[b].len() {
            let e = self.buckets[b][i];
            let [h0, h1] = self.hashes(e.key);
            let alt = if h0 == b { h1 } else { h0 };
            if alt != b && self.buckets[alt].len() < CHAIN_CAP {
                let moved = self.buckets[b].remove(i);
                self.buckets[alt].push(moved);
                return true;
            }
        }
        false
    }

    pub(crate) fn stats(&self) -> PredictTableStats {
        self.stats
    }

    // -- checkpoint records ---------------------------------------------------

    /// This table's share of its unit's `ckpt_rt` line.
    pub(crate) fn header_fields(&self, r: Record) -> Record {
        r.num("pt_lookups", self.stats.lookups)
            .num("pt_hits", self.stats.hits)
            .num("pt_inserts", self.stats.inserts)
            .num("pt_evictions", self.stats.evictions)
            .num("pt_buckets", self.buckets.len())
    }

    /// One `ckpt_pt` line per non-empty bucket, entries as `key:leaf`.
    pub(crate) fn write_buckets(&self, sm: usize, emit: &mut dyn FnMut(Record)) {
        for (bucket, entries) in self.buckets.iter().enumerate().filter(|(_, e)| !e.is_empty()) {
            let entries = entries.iter().map(|e| (e.key, e.node));
            emit(
                Record::new("ckpt_pt")
                    .num("sm", sm)
                    .num("bucket", bucket)
                    .pairs("entries", entries),
            );
        }
    }

    /// Inverse of [`header_fields`](Self::header_fields): empty buckets of
    /// the declared count, for `ckpt_pt` lines to fill. The live-entry
    /// count is not in the file; it is the entries read.
    pub(crate) fn read_header(f: &Fields<'_>) -> Result<PredictState, String> {
        let buckets: usize = f.num("pt_buckets")?;
        if buckets > 1 << 24 {
            return Err(format!("implausible prediction table: {buckets} buckets"));
        }
        Ok(PredictState {
            buckets: vec![Vec::new(); buckets],
            live_entries: 0,
            stats: PredictTableStats {
                lookups: f.u64("pt_lookups")?,
                hits: f.u64("pt_hits")?,
                inserts: f.u64("pt_inserts")?,
                evictions: f.u64("pt_evictions")?,
            },
        })
    }

    /// Applies one `ckpt_pt` line.
    pub(crate) fn read_bucket(&mut self, f: &Fields<'_>) -> Result<(), String> {
        let bucket = index_of(f, "bucket", self.buckets.len())?;
        if !self.buckets[bucket].is_empty() {
            return Err(format!("bucket {bucket} filled twice"));
        }
        let entries = f.pairs("entries")?;
        self.live_entries += entries.len() as u32;
        self.buckets[bucket] = entries.into_iter().map(|(key, node)| Entry { key, node }).collect();
        Ok(())
    }

    /// Checks restored state against a freshly built table of the target
    /// geometry (same bucket count) and every predicted leaf against the
    /// BVH's `nodes` node count — a prediction becomes a node visit.
    pub(crate) fn validate(&self, fresh: &PredictState, nodes: usize) -> Result<(), String> {
        if self.buckets.len() != fresh.buckets.len() {
            return Err(format!(
                "prediction table has {} buckets, snapshot has {}",
                fresh.buckets.len(),
                self.buckets.len()
            ));
        }
        let leaves = self.buckets.iter().flatten().map(|e| e.node as usize);
        in_range("predicted leaf", leaves, nodes)
    }
}

/// The per-RT-unit ray-path prediction table.
///
/// # Example
///
/// ```
/// use gpusim::predict::PredictTable;
/// use rtbvh::NodeId;
/// let mut t = PredictTable::new(64);
/// assert_eq!(t.lookup(42), None);
/// t.train(42, NodeId(7));
/// assert_eq!(t.lookup(42), Some(NodeId(7)));
/// assert_eq!(t.stats().hits, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictTable {
    state: PredictState,
    capacity: u32,
}

impl PredictTable {
    /// Creates a table with `entries` total entry slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: u32) -> PredictTable {
        assert!(entries > 0, "degenerate prediction table");
        PredictTable { state: PredictState::new(entries), capacity: entries }
    }

    /// Looks up the predicted leaf for a quantized ray.
    pub fn lookup(&mut self, key: u64) -> Option<NodeId> {
        self.state.lookup(key)
    }

    /// Trains the table: maps `key` to `node`, re-training an existing
    /// entry in place; when both candidate buckets are full the
    /// first-inserted entry of the chosen one is replaced.
    pub fn train(&mut self, key: u64, node: NodeId) {
        self.state.train(key, node, self.capacity);
    }

    /// Live entry count.
    pub fn live_entries(&self) -> u32 {
        self.state.live_entries
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PredictTableStats {
        self.state.stats
    }
}

/// Quantizes one coordinate into `bits` cells of `[lo, hi]`. Pure IEEE
/// f32 arithmetic with saturating casts — bit-deterministic.
fn quantize_axis(v: f32, lo: f32, hi: f32, bits: u32) -> u64 {
    let levels = 1u64 << bits;
    let extent = hi - lo;
    if extent <= 0.0 || extent.is_nan() {
        return 0;
    }
    let t = ((v - lo) / extent).clamp(0.0, 1.0);
    ((t * levels as f32) as u64).min(levels - 1)
}

/// The prediction key of a ray: its origin quantized against the scene
/// (root) bounds and its direction quantized per component, packed into
/// `3 * (origin_bits + dir_bits)` bits (≤ 60, enforced by
/// [`PredictParams::validate`](crate::PredictParams::validate)).
pub fn predict_key(scene_bounds: &Aabb, ray: &Ray, origin_bits: u32, dir_bits: u32) -> u64 {
    let mut key = 0u64;
    let o = [ray.origin.x, ray.origin.y, ray.origin.z];
    let lo = [scene_bounds.min.x, scene_bounds.min.y, scene_bounds.min.z];
    let hi = [scene_bounds.max.x, scene_bounds.max.y, scene_bounds.max.z];
    for axis in 0..3 {
        key = (key << origin_bits) | quantize_axis(o[axis], lo[axis], hi[axis], origin_bits);
    }
    for d in [ray.dir.x, ray.dir.y, ray.dir.z] {
        key = (key << dir_bits) | quantize_axis(d, -1.0, 1.0, dir_bits);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse_line;
    use rtbvh::NodeId;
    use rtmath::Vec3;

    #[test]
    fn lookup_miss_then_train_then_hit() {
        let mut t = PredictTable::new(256);
        assert_eq!(t.lookup(0xAB), None);
        t.train(0xAB, NodeId(3));
        assert_eq!(t.lookup(0xAB), Some(NodeId(3)));
        // Re-training the same key replaces the prediction in place.
        t.train(0xAB, NodeId(9));
        assert_eq!(t.lookup(0xAB), Some(NodeId(9)));
        assert_eq!(t.live_entries(), 1);
        let s = t.stats();
        assert_eq!((s.lookups, s.hits, s.inserts, s.evictions), (3, 2, 2, 0));
    }

    #[test]
    fn collisions_chain_up_to_two_then_relocate_or_evict() {
        // A 4-entry table (2 buckets x 2 chain slots): five distinct keys
        // must force at least one eviction, and the table never exceeds
        // its capacity or chain cap.
        let mut t = PredictTable::new(4);
        for k in 0..5u64 {
            t.train(k, NodeId(k as u32));
            assert!(t.live_entries() <= 4);
            for b in &t.state.buckets {
                assert!(b.len() <= CHAIN_CAP, "chain cap violated");
            }
        }
        assert!(t.stats().evictions >= 1, "5 keys into 4 slots must evict");
        // The newest key always survives its own insert.
        assert_eq!(t.lookup(4), Some(NodeId(4)));
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // Two identically-driven tables stay identical through capacity
        // pressure — the determinism contract the --jobs bit-identity
        // test leans on.
        let mut a = PredictTable::new(8);
        let mut b = PredictTable::new(8);
        for k in 0..64u64 {
            let key = k.wrapping_mul(0x5851_F42D_4C95_7F2D);
            a.train(key, NodeId(k as u32));
            b.train(key, NodeId(k as u32));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn export_import_round_trip() {
        let mut t = PredictTable::new(32);
        for k in 0..40u64 {
            t.train(k * 7, NodeId(k as u32));
            t.lookup(k * 3);
        }
        // Through the checkpoint records and back.
        let mut lines = vec![t.state.header_fields(Record::new("ckpt_rt")).finish()];
        t.state.write_buckets(0, &mut |r| lines.push(r.finish()));
        let mut back = PredictState::read_header(&parse_line(&lines[0]).unwrap()).unwrap();
        for line in &lines[1..] {
            back.read_bucket(&parse_line(line).unwrap()).unwrap();
        }
        assert_eq!(back, t.state);
        assert_eq!(back.validate(&PredictState::new(32), 40), Ok(()));
        // A bucket line may not arrive twice, geometry mismatches and
        // leaves beyond the BVH are rejected.
        assert!(back.read_bucket(&parse_line(&lines[1]).unwrap()).is_err());
        assert!(back.validate(&PredictState::new(4), 40).is_err());
        assert!(back.validate(&PredictState::new(32), 39).is_err());
    }

    #[test]
    fn coherent_rays_share_a_key_and_distant_rays_do_not() {
        let bounds = Aabb { min: Vec3::new(-10.0, -10.0, -10.0), max: Vec3::new(10.0, 10.0, 10.0) };
        let a = Ray::new(Vec3::new(0.0, 0.0, -9.0), Vec3::new(0.0, 0.0, 1.0));
        let b = Ray::new(Vec3::new(0.01, 0.01, -9.0), Vec3::new(0.001, 0.0, 1.0).normalized());
        let c = Ray::new(Vec3::new(8.0, -7.0, 9.0), Vec3::new(0.0, 0.0, -1.0));
        let key = |r| predict_key(&bounds, &r, 6, 5);
        assert_eq!(key(a), key(b), "near-identical rays quantize together");
        assert_ne!(key(a), key(c), "opposite corner rays quantize apart");
        // Keys fit the declared bit budget.
        assert!(key(a) < 1u64 << (3 * (6 + 5)));
    }

    #[test]
    fn degenerate_bounds_still_produce_keys() {
        let flat = Aabb { min: Vec3::new(0.0, 0.0, 0.0), max: Vec3::new(0.0, 5.0, 5.0) };
        let r = Ray::new(Vec3::new(0.0, 1.0, 1.0), Vec3::new(1.0, 0.0, 0.0));
        // The zero-extent x axis quantizes to cell 0 instead of NaN-ing.
        let k = predict_key(&flat, &r, 6, 5);
        assert!(k < 1u64 << (3 * (6 + 5)));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_capacity_panics() {
        let _ = PredictTable::new(0);
    }
}
