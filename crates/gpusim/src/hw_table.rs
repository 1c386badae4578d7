//! Hardware model of the Treelet Queue Table (paper Fig. 9, §4.2, §6.5).
//!
//! The functional simulator tracks queues in an internal map;
//! this module models the *hardware* structure those queues live in: a
//! 128-entry hash table in the L1, keyed by treelet address with two
//! single-cycle hashes (2-way skewed-associative placement; see
//! [`HwQueueTable`]'s hash note), chained collisions, up to 32 ray ids
//! per entry, and duplicate entries for queues longer than a warp. The engine mirrors every queue
//! push/pop into this structure to validate the paper's sizing claims —
//! notably §4.2's measurement that "the max collisions for a key is only
//! two" and §6.5's observation that 600 count-table entries suffice.

use crate::checkpoint::index_of;
use crate::jsonl::{Fields, Record};

/// One entry of the queue table: a treelet tag and up to 32 ray ids
/// (Fig. 9 — "the whole array of rays can form a full warp").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Treelet address tag (the significant bits of the treelet address).
    tag: u64,
    /// Stored ray ids (bounded by `rays_per_entry`).
    rays: u32,
}

/// Occupancy statistics accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueTableStats {
    /// Largest chain (entries probed for one key, including the home slot).
    pub max_chain: u32,
    /// Largest number of simultaneously live entries.
    pub peak_entries: u32,
    /// Inserts that found the table full (spilled to memory).
    pub overflows: u64,
    /// Total insert operations.
    pub inserts: u64,
}

/// Everything of a queue table that changes while it runs — what a
/// checkpoint holds, and what an RT unit embeds. The entry capacity and
/// the rays per entry come from the configuration, not from a checkpoint
/// file, so [`push`](Self::push) takes them as arguments; [`HwQueueTable`]
/// is this state plus those two numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HwTableState {
    /// In-bucket order is state: it decides which entry a pop drains and
    /// which tag group a relocation moves.
    buckets: Vec<Vec<Entry>>,
    live_entries: u32,
    stats: QueueTableStats,
}

impl HwTableState {
    /// Empty state for a table of `entries` slots: one bucket per
    /// power-of-two hash slot; chains grow within.
    pub(crate) fn new(entries: u32) -> HwTableState {
        let slots = entries.next_power_of_two().max(1);
        HwTableState { buckets: vec![Vec::new(); slots as usize], ..HwTableState::default() }
    }

    /// The two candidate bucket indices for a treelet address (2-way
    /// skewed-associative placement). The paper XOR-folds groups of the
    /// address's LSBs/MSBs, which works because its treelets are
    /// 8 KB-aligned; ours are byte-packed (arbitrary 64 B-aligned bases),
    /// so a plain fold clusters badly and a single hash leaves birthday
    /// chains of 3+ at realistic occupancy. Two independent single-cycle
    /// multiplicative folds plus insert-into-the-shorter-chain keep §4.2's
    /// measured bound ("max collisions for a key is only two") — the same
    /// hardware budget as a 2-way skewed cache: two multipliers, both
    /// buckets read in parallel.
    fn hashes(&self, treelet_addr: u64) -> [usize; 2] {
        let k = treelet_addr >> 6; // cache-line granularity
        let mask = self.buckets.len() - 1;
        let h0 = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let h1 = k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 32;
        [(h0 as usize) & mask, (h1 as usize) & mask]
    }

    /// Distinct treelet tags among `entries` — the §4.2 collision count a
    /// lookup walking them pays. Counted in place (an entry is new when no
    /// earlier one carries its tag): chains are a handful of entries and
    /// every enqueue comes through here, so no scratch `Vec`.
    fn distinct_tags(entries: &[Entry]) -> u32 {
        let is_first = |i: usize| entries[..i].iter().all(|p| p.tag != entries[i].tag);
        (0..entries.len()).filter(|&i| is_first(i)).count() as u32
    }

    /// Distinct tags chained in bucket `b`.
    fn chain(&self, b: usize) -> u32 {
        Self::distinct_tags(&self.buckets[b])
    }

    /// Inserts one ray for `treelet_addr` into a table of `capacity` entry
    /// slots holding `rays_per_entry` ray ids each. Returns `false` when
    /// the table was full and the ray spilled to memory.
    pub(crate) fn push(&mut self, treelet_addr: u64, capacity: u32, rays_per_entry: u32) -> bool {
        self.stats.inserts += 1;
        // Probe both candidate buckets for a non-full entry with this tag;
        // the probe depth in the holding bucket is the §4.2 collision count.
        for b in self.hashes(treelet_addr) {
            let bucket = &mut self.buckets[b];
            let holder =
                bucket.iter().position(|e| e.tag == treelet_addr && e.rays < rays_per_entry);
            if let Some(i) = holder {
                bucket[i].rays += 1;
                let chain = Self::distinct_tags(&bucket[..=i]);
                self.stats.max_chain = self.stats.max_chain.max(chain);
                return true;
            }
        }
        // Need a fresh entry (new tag, or all entries for this tag full —
        // "duplicate treelet entries are allowed", Fig. 9). Place it in the
        // candidate bucket with fewer distinct tags.
        if self.live_entries >= capacity {
            self.stats.overflows += 1;
            return false;
        }
        let [b0, b1] = self.hashes(treelet_addr);
        let mut b = if self.chain(b1) < self.chain(b0) { b1 } else { b0 };
        if self.chain(b) >= 2 {
            // Both candidates already chain two tags: relocate one resident
            // tag group to its alternate bucket (a single cuckoo step — a
            // small state machine in hardware) to keep chains at §4.2's
            // measured bound of two.
            b = if self.try_relocate(b0) {
                b0
            } else if self.try_relocate(b1) {
                b1
            } else {
                b
            };
        }
        self.buckets[b].push(Entry { tag: treelet_addr, rays: 1 });
        self.live_entries += 1;
        self.stats.peak_entries = self.stats.peak_entries.max(self.live_entries);
        self.stats.max_chain = self.stats.max_chain.max(self.chain(b));
        true
    }

    /// Tries to move one tag group out of bucket `b` to the group's
    /// alternate bucket, provided the alternate has at most one resident
    /// tag. Candidate tags are tried in ascending order. Returns `true`
    /// when a group moved (bucket `b` lost one tag).
    fn try_relocate(&mut self, b: usize) -> bool {
        let mut tried: Option<u64> = None;
        loop {
            let next = self.buckets[b].iter().map(|e| e.tag).filter(|t| tried < Some(*t)).min();
            let Some(tag) = next else { return false };
            tried = Some(tag);
            let [h0, h1] = self.hashes(tag);
            let alt = if h0 == b { h1 } else { h0 };
            if alt != b && self.chain(alt) < 2 {
                // Move the group in order; both buckets keep theirs.
                let mut i = 0;
                while i < self.buckets[b].len() {
                    if self.buckets[b][i].tag == tag {
                        let moved = self.buckets[b].remove(i);
                        self.buckets[alt].push(moved);
                    } else {
                        i += 1;
                    }
                }
                return true;
            }
        }
    }

    /// Removes one ray of `treelet_addr`; returns `false` if none was
    /// resident (it had spilled).
    pub(crate) fn pop(&mut self, treelet_addr: u64) -> bool {
        for b in self.hashes(treelet_addr) {
            let bucket = &mut self.buckets[b];
            for (i, e) in bucket.iter_mut().enumerate() {
                if e.tag == treelet_addr && e.rays > 0 {
                    e.rays -= 1;
                    if e.rays == 0 {
                        bucket.swap_remove(i);
                        self.live_entries -= 1;
                    }
                    return true;
                }
            }
        }
        false
    }

    pub(crate) fn stats(&self) -> QueueTableStats {
        self.stats
    }

    /// Ray ids resident under `treelet_addr`, over all its entries.
    #[cfg(test)]
    pub(crate) fn rays_of(&self, treelet_addr: u64) -> u32 {
        let entries = self.buckets.iter().flatten().filter(|e| e.tag == treelet_addr);
        entries.map(|e| e.rays).sum()
    }

    // -- checkpoint records ---------------------------------------------------

    /// This table's share of its unit's `ckpt_rt` line.
    pub(crate) fn header_fields(&self, r: Record) -> Record {
        r.num("hw_live", self.live_entries)
            .num("hw_max_chain", self.stats.max_chain)
            .num("hw_peak", self.stats.peak_entries)
            .num("hw_overflows", self.stats.overflows)
            .num("hw_inserts", self.stats.inserts)
            .num("hw_buckets", self.buckets.len())
    }

    /// One `ckpt_hw` line per non-empty bucket, entries as `tag:rays`.
    pub(crate) fn write_buckets(&self, sm: usize, emit: &mut dyn FnMut(Record)) {
        for (bucket, entries) in self.buckets.iter().enumerate().filter(|(_, e)| !e.is_empty()) {
            let entries = entries.iter().map(|e| (e.tag, e.rays));
            emit(
                Record::new("ckpt_hw")
                    .num("sm", sm)
                    .num("bucket", bucket)
                    .pairs("entries", entries),
            );
        }
    }

    /// Inverse of [`header_fields`](Self::header_fields): empty buckets of
    /// the declared count, for `ckpt_hw` lines to fill.
    pub(crate) fn read_header(f: &Fields<'_>) -> Result<HwTableState, String> {
        let buckets: usize = f.num("hw_buckets")?;
        if buckets > 1 << 24 {
            return Err(format!("implausible queue table: {buckets} buckets"));
        }
        Ok(HwTableState {
            buckets: vec![Vec::new(); buckets],
            live_entries: f.num("hw_live")?,
            stats: QueueTableStats {
                max_chain: f.num("hw_max_chain")?,
                peak_entries: f.num("hw_peak")?,
                overflows: f.u64("hw_overflows")?,
                inserts: f.u64("hw_inserts")?,
            },
        })
    }

    /// Applies one `ckpt_hw` line.
    pub(crate) fn read_bucket(&mut self, f: &Fields<'_>) -> Result<(), String> {
        let bucket = index_of(f, "bucket", self.buckets.len())?;
        if !self.buckets[bucket].is_empty() {
            return Err(format!("bucket {bucket} filled twice"));
        }
        let entries = f.pairs("entries")?;
        self.buckets[bucket] = entries.into_iter().map(|(tag, rays)| Entry { tag, rays }).collect();
        Ok(())
    }

    /// Checks restored state against a freshly built table of the target
    /// geometry: same bucket count, and the live-entry counter (which
    /// `pop` decrements) agrees with the entries actually present.
    pub(crate) fn validate(&self, fresh: &HwTableState) -> Result<(), String> {
        if self.buckets.len() != fresh.buckets.len() {
            return Err(format!(
                "queue table has {} buckets, snapshot has {}",
                fresh.buckets.len(),
                self.buckets.len()
            ));
        }
        let present: usize = self.buckets.iter().map(Vec::len).sum();
        if present != self.live_entries as usize {
            return Err(format!(
                "queue table counts {} live entries but holds {present}",
                self.live_entries
            ));
        }
        Ok(())
    }
}

/// The hardware Treelet Queue Table model.
///
/// # Example
///
/// ```
/// use gpusim::hw_table::HwQueueTable;
/// let mut t = HwQueueTable::new(128, 32);
/// t.push(0x1234);
/// assert_eq!(t.pop(0x1234), true);
/// assert!(t.stats().max_chain >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct HwQueueTable {
    state: HwTableState,
    capacity: u32,
    rays_per_entry: u32,
}

impl HwQueueTable {
    /// Creates a table with `entries` total entry slots (the paper uses
    /// 128) holding `rays_per_entry` ray ids each (32 = one warp).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(entries: u32, rays_per_entry: u32) -> HwQueueTable {
        assert!(entries > 0 && rays_per_entry > 0, "degenerate queue table");
        HwQueueTable { state: HwTableState::new(entries), capacity: entries, rays_per_entry }
    }

    /// Inserts one ray for `treelet_addr`. Returns `false` when the table
    /// was full and the ray spilled to memory.
    pub fn push(&mut self, treelet_addr: u64) -> bool {
        self.state.push(treelet_addr, self.capacity, self.rays_per_entry)
    }

    /// Removes one ray of `treelet_addr`; returns `false` if none was
    /// resident (it had spilled).
    pub fn pop(&mut self, treelet_addr: u64) -> bool {
        self.state.pop(treelet_addr)
    }

    /// Live entry count.
    pub fn live_entries(&self) -> u32 {
        self.state.live_entries
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> QueueTableStats {
        self.state.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let mut t = HwQueueTable::new(128, 32);
        for _ in 0..40 {
            assert!(t.push(0xAA00));
        }
        // 40 rays of one treelet need two entries (32 + 8).
        assert_eq!(t.live_entries(), 2);
        for _ in 0..40 {
            assert!(t.pop(0xAA00));
        }
        assert_eq!(t.live_entries(), 0);
        assert!(!t.pop(0xAA00));
    }

    #[test]
    fn overflow_when_full() {
        let mut t = HwQueueTable::new(4, 1);
        for i in 0..4u64 {
            assert!(t.push(i * 0x1000));
        }
        assert!(!t.push(0xFFFF_0000), "5th distinct entry must spill");
        assert_eq!(t.stats().overflows, 1);
        // Freeing an entry makes room again.
        assert!(t.pop(0));
        assert!(t.push(0xFFFF_0000));
    }

    #[test]
    fn chains_are_tracked() {
        let mut t = HwQueueTable::new(128, 32);
        // Two addresses engineered to collide: same low 16 bits and same
        // folded high bits.
        let a = 0x0000_1234u64;
        let b = 0x1111_0000u64 ^ a ^ (0x1111u64 << 16); // differs, may collide
        t.push(a);
        t.push(b);
        assert!(t.stats().max_chain >= 1);
        assert!(t.stats().peak_entries >= 2 || t.live_entries() >= 1);
    }

    #[test]
    fn distinct_treelets_spread_across_buckets() {
        let mut t = HwQueueTable::new(128, 32);
        for i in 0..64u64 {
            assert!(t.push(i * 2048)); // 2 KB-aligned treelet addresses
        }
        assert_eq!(t.live_entries(), 64);
        // The XOR hash must spread aligned addresses: no pathological
        // chain anywhere near the entry count.
        assert!(
            t.stats().max_chain <= 8,
            "chain {} too long for 64 aligned keys",
            t.stats().max_chain
        );
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_capacity_panics() {
        let _ = HwQueueTable::new(0, 32);
    }
}
