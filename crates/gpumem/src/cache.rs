use std::fmt;

use crate::heap::MinHeaps;

/// Associativity of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assoc {
    /// Fully associative (one set spanning the whole cache).
    Full,
    /// Set associative with the given number of ways.
    Ways(u32),
}

/// Geometry and latency of a single cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity.
    pub assoc: Assoc,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u32,
    /// Access latency in core cycles (total, load-to-use).
    pub latency: u32,
}

impl CacheConfig {
    /// Number of lines this cache holds.
    pub fn num_lines(&self) -> u32 {
        self.size_bytes / self.line_bytes
    }
}

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
}

impl CacheStats {
    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    last_used: u64,
    valid: bool,
}

/// Serialized state of one cache line, exported for checkpointing. The
/// geometry (set/way position) is implied by the export order, so a
/// snapshot only restores into a cache of identical configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Line tag (address bits above the set index).
    pub tag: u64,
    /// LRU recency tick of the line's last touch.
    pub last_used: u64,
    /// Whether the line holds data.
    pub valid: bool,
}

/// An LRU cache model (no data, just tags — the simulator only needs
/// hit/miss/latency behaviour).
///
/// The victim of a miss is the first invalid line of the set in way
/// order; with none, the line with the oldest tick, equal ticks broken by
/// the lowest way. Ticks need not be monotone.
///
/// # Example
///
/// ```
/// use gpumem::{Assoc, Cache, CacheConfig};
/// let mut c = Cache::new(&CacheConfig {
///     size_bytes: 256, assoc: Assoc::Full, line_bytes: 64, latency: 10,
/// });
/// assert!(!c.access(0, 1));     // cold miss (allocates)
/// assert!(c.access(0, 2));      // hit
/// assert!(c.access(63, 3));     // same line
/// assert!(!c.access(64, 4));    // next line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Every line, set-major and way-minor: the checkpointed state.
    lines: Vec<Line>,
    ways: usize,
    set_shift: u32,
    set_bits: u32,
    set_mask: u64,
    stats: CacheStats,
    /// Lookup state for wide sets, derived from `lines`; narrow sets are
    /// scanned and carry none.
    index: Option<Index>,
}

/// Sets at least this wide are indexed. Below it a set is a few host
/// cache lines and scanning it beats a hash probe plus a heap update.
const INDEXED_FROM_WAYS: usize = 64;

/// Victim priority of a line: invalid lines first, then oldest tick.
fn priority(line: &Line) -> u64 {
    if line.valid {
        line.last_used + 1
    } else {
        0
    }
}

/// The line number (address over line size) that `tag` names in `set`.
fn line_number(tag: u64, set: usize, set_bits: u32) -> u64 {
    (tag << set_bits) | set as u64
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two, or if the geometry is
    /// inconsistent (capacity not divisible into sets of `ways` lines).
    pub fn new(config: &CacheConfig) -> Cache {
        Cache::with_lookup(config, None)
    }

    /// [`Cache::new`], with `indexed` overriding the choice `new` makes
    /// from the set width (tests compare the two lookups).
    fn with_lookup(config: &CacheConfig, indexed: Option<bool>) -> Cache {
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.size_bytes >= config.line_bytes, "cache smaller than one line");
        let num_lines = config.num_lines();
        let (num_sets, ways) = match config.assoc {
            Assoc::Full => (1u32, num_lines),
            Assoc::Ways(w) => {
                assert!(
                    w > 0 && num_lines.is_multiple_of(w),
                    "lines ({num_lines}) not divisible by ways ({w})"
                );
                (num_lines / w, w)
            }
        };
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        let (num_sets, ways) = (num_sets as usize, ways as usize);
        Cache {
            config: *config,
            lines: vec![Line { tag: 0, last_used: 0, valid: false }; num_sets * ways],
            ways,
            set_shift: config.line_bytes.trailing_zeros(),
            set_bits: num_sets.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            stats: CacheStats::default(),
            index: indexed.unwrap_or(ways >= INDEXED_FROM_WAYS).then(|| Index::new(num_sets, ways)),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Line number, set and tag of the line containing `addr`.
    fn locate(&self, addr: u64) -> (u64, usize, u64) {
        let line = addr >> self.set_shift;
        (line, (line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// Looks up the line containing `addr`, allocating it on miss (LRU
    /// victim). Returns `true` on hit. `tick` orders recency; callers pass
    /// the current cycle.
    pub fn access(&mut self, addr: u64, tick: u64) -> bool {
        self.stats.accesses += 1;
        let hit = self.touch(addr, tick);
        if hit {
            self.stats.hits += 1;
        }
        hit
    }

    /// Inserts the line containing `addr` without counting an access
    /// (used for preload/prefetch fills). Returns `true` if it was already
    /// present.
    pub fn fill(&mut self, addr: u64, tick: u64) -> bool {
        self.touch(addr, tick)
    }

    /// `true` if the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (line, set, tag) = self.locate(addr);
        match &self.index {
            Some(index) => index.find(line).is_some(),
            None => self.lines[set * self.ways..(set + 1) * self.ways]
                .iter()
                .any(|l| l.valid && l.tag == tag),
        }
    }

    fn touch(&mut self, addr: u64, tick: u64) -> bool {
        let (line, set, tag) = self.locate(addr);
        let fresh = Line { tag, last_used: tick, valid: true };
        if self.index.is_some() {
            return self.touch_indexed(line, set, fresh);
        }
        let lines = &mut self.lines[set * self.ways..(set + 1) * self.ways];
        if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_used = tick;
            return true;
        }
        // Miss: evict LRU (preferring invalid lines).
        let victim = lines.iter_mut().min_by_key(|l| priority(l)).expect("sets are never empty");
        *victim = fresh;
        false
    }

    /// [`Cache::touch`] through the index. Kept out of line: inlined, it
    /// makes `touch` too big to inline into `access`, and the scan of a
    /// 4-way set pays a quarter more per hit for code it never runs.
    #[inline(never)]
    fn touch_indexed(&mut self, line: u64, set: usize, fresh: Line) -> bool {
        let index = self.index.as_mut().expect("the caller checked");
        let base = set * self.ways;
        let hit = index.find(line);
        let at = hit.unwrap_or_else(|| {
            let at = base + index.lru.min(set).1;
            let old = self.lines[at];
            if old.valid {
                index.remove(line_number(old.tag, set, self.set_bits));
            }
            index.insert(line, at);
            at
        });
        self.lines[at] = fresh;
        index.lru.update(set, at - base, priority(&fresh));
        hit.is_some()
    }

    /// Invalidates every line.
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
        if let Some(index) = &mut self.index {
            index.rebuild(&self.lines, self.ways, self.set_bits);
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Exports every line in set-major, way-minor order (checkpointing).
    pub fn export_lines(&self) -> Vec<LineState> {
        self.lines
            .iter()
            .map(|l| LineState { tag: l.tag, last_used: l.last_used, valid: l.valid })
            .collect()
    }

    /// Checks that `lines` can be restored into this cache: the line count
    /// matches, and no set holds what a running cache never does — one
    /// valid tag twice, a tag with bits above the address width, or a
    /// valid line at tick `u64::MAX` (its victim priority would wrap to
    /// an invalid line's).
    pub(crate) fn validate_lines(&self, lines: &[LineState]) -> Result<(), String> {
        let expected = self.lines.len();
        if lines.len() != expected {
            return Err(format!("cache line count mismatch: got {}, need {expected}", lines.len()));
        }
        let mut tags = Vec::with_capacity(self.ways);
        for (set, ways) in lines.chunks(self.ways).enumerate() {
            tags.clear();
            for (way, line) in ways.iter().enumerate().filter(|(_, l)| l.valid) {
                if line.last_used == u64::MAX {
                    return Err(format!("set {set} way {way}: last_used {} overflows", u64::MAX));
                }
                if (line.tag << self.set_bits) >> self.set_bits != line.tag {
                    return Err(format!("set {set} way {way}: tag {:#x} out of range", line.tag));
                }
                tags.push(line.tag);
            }
            tags.sort_unstable();
            if let Some(pair) = tags.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(format!("set {set}: tag {:#x} is valid in two ways", pair[0]));
            }
        }
        Ok(())
    }

    /// Restores the contents exported by [`Cache::export_lines`] into this
    /// cache. The cache must have the same geometry as the exporter.
    ///
    /// # Errors
    ///
    /// Returns a message, leaving the cache untouched, when `lines` does
    /// not match this cache's line count or describes a state no running
    /// cache reaches (a valid tag twice in one set, a tag wider than an
    /// address, a valid line at tick `u64::MAX`).
    pub fn import_lines(&mut self, lines: &[LineState]) -> Result<(), String> {
        self.validate_lines(lines)?;
        self.load_lines(lines);
        Ok(())
    }

    /// [`Cache::import_lines`] for lines [`Cache::validate_lines`] accepted.
    pub(crate) fn load_lines(&mut self, lines: &[LineState]) {
        for (line, s) in self.lines.iter_mut().zip(lines) {
            *line = Line { tag: s.tag, last_used: s.last_used, valid: s.valid };
        }
        if let Some(index) = &mut self.index {
            index.rebuild(&self.lines, self.ways, self.set_bits);
        }
    }

    /// Overwrites the hit/miss counters (checkpoint restore).
    pub fn set_stats(&mut self, stats: CacheStats) {
        self.stats = stats;
    }

    /// Re-derives the lookup state from the line array and reports the
    /// first disagreement with what is stored.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let Some(index) = &self.index else { return Ok(()) };
        let valid = self.lines.iter().filter(|l| l.valid).count();
        let indexed = index.slots.iter().filter(|s| s.line != VACANT).count();
        if indexed != valid {
            return Err(format!("tag table holds {indexed} lines, {valid} are valid"));
        }
        for (at, line) in self.lines.iter().enumerate().filter(|(_, l)| l.valid) {
            let set = at / self.ways;
            let found = index.find(line_number(line.tag, set, self.set_bits));
            if found != Some(at) {
                return Err(format!(
                    "tag table maps set {set} tag {:#x} to {found:?}, line is at {at}",
                    line.tag
                ));
            }
        }
        index.lru.audit(|set, way| priority(&self.lines[set * self.ways + way]))
    }

    /// Drops one resident line from the tag table, so a test can show
    /// that the owner's audit goes red.
    #[cfg(test)]
    pub(crate) fn corrupt_index(&mut self) {
        let index = self.index.as_mut().expect("an indexed cache");
        let slot = index.slots.iter_mut().find(|s| s.line != VACANT).expect("a resident line");
        slot.line = VACANT;
    }
}

/// Marks an empty [`Slot`].
const VACANT: u32 = u32::MAX;

/// One bucket of the tag table: a resident line's number (`tag` and set
/// index recombined) and its position in `Cache::lines`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    line: u32,
}

/// What an indexed cache keeps beside its lines so that neither a lookup
/// nor a victim choice walks a set. Sized at construction, never grown,
/// never checkpointed: [`Index::rebuild`] recovers it from the lines.
#[derive(Debug, Clone)]
struct Index {
    /// Open-addressed, linearly probed table of the valid lines, at most
    /// half full. Removal shifts the run back, so there are no tombstones
    /// to accumulate.
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash keeps the top bits.
    shift: u32,
    /// One heap per set, keyed by [`priority`].
    lru: MinHeaps,
}

impl Index {
    fn new(num_sets: usize, ways: usize) -> Index {
        let capacity = (2 * num_sets * ways).next_power_of_two();
        assert!(capacity <= VACANT as usize, "cache too large to index");
        Index {
            slots: vec![Slot { key: 0, line: VACANT }; capacity],
            shift: 64 - capacity.trailing_zeros(),
            lru: MinHeaps::new(num_sets, ways),
        }
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    fn next(&self, slot: usize) -> usize {
        (slot + 1) & (self.slots.len() - 1)
    }

    /// Position in `Cache::lines` of resident line number `key`.
    fn find(&self, key: u64) -> Option<usize> {
        let mut slot = self.home(key);
        loop {
            let s = self.slots[slot];
            if s.line == VACANT {
                return None;
            }
            if s.key == key {
                return Some(s.line as usize);
            }
            slot = self.next(slot);
        }
    }

    /// Records that line number `key`, not present, now lives at `line`.
    fn insert(&mut self, key: u64, line: usize) {
        let mut slot = self.home(key);
        while self.slots[slot].line != VACANT {
            slot = self.next(slot);
        }
        self.slots[slot] = Slot { key, line: line as u32 };
    }

    /// Forgets resident line number `key`, closing the gap it leaves in
    /// its probe run.
    fn remove(&mut self, key: u64) {
        let mut hole = self.home(key);
        while self.slots[hole].key != key || self.slots[hole].line == VACANT {
            hole = self.next(hole);
        }
        let mut slot = hole;
        loop {
            slot = self.next(slot);
            let s = self.slots[slot];
            if s.line == VACANT {
                break;
            }
            // `s` may move back into the hole unless its home lies
            // cyclically in `(hole, slot]`.
            let home = self.home(s.key);
            let stays = if hole <= slot {
                hole < home && home <= slot
            } else {
                hole < home || home <= slot
            };
            if !stays {
                self.slots[hole] = s;
                hole = slot;
            }
        }
        self.slots[hole].line = VACANT;
    }

    fn rebuild(&mut self, lines: &[Line], ways: usize, set_bits: u32) {
        self.slots.iter_mut().for_each(|s| s.line = VACANT);
        for (set, set_lines) in lines.chunks(ways).enumerate() {
            for (way, line) in set_lines.iter().enumerate().filter(|(_, l)| l.valid) {
                self.insert(line_number(line.tag, set, set_bits), set * ways + way);
            }
            self.lru.load(set, set_lines.iter().map(priority));
        }
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cache[{}B, {} sets, miss rate {:.1}%]",
            self.config.size_bytes,
            self.lines.len() / self.ways,
            self.stats.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny(assoc: Assoc) -> Cache {
        Cache::new(&CacheConfig { size_bytes: 256, assoc, line_bytes: 64, latency: 1 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(Assoc::Full);
        assert!(!c.access(0x100, 1));
        assert!(c.access(0x100, 2));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().miss_rate(), 0.5);
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny(Assoc::Full);
        c.access(0x80, 1);
        assert!(c.access(0x80 + 63, 2));
        assert!(!c.access(0x80 + 64, 3));
    }

    #[test]
    fn lru_eviction_order_fully_assoc() {
        let mut c = tiny(Assoc::Full); // 4 lines
        for (i, addr) in [0u64, 64, 128, 192].iter().enumerate() {
            c.access(*addr, i as u64);
        }
        c.access(0, 10); // refresh line 0
        c.access(256, 11); // evicts LRU = line at 64
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn set_associative_conflicts() {
        // 2 sets x 2 ways: lines 0,2,4 map to set 0; 1,3 to set 1.
        let mut c = tiny(Assoc::Ways(2));
        c.access(0, 1); // set 0
        c.access(2 * 64, 2); // set 0
        c.access(4 * 64, 3); // set 0: evicts line 0
        assert!(!c.probe(0));
        assert!(c.probe(2 * 64));
        assert!(c.probe(4 * 64));
        // Set 1 untouched.
        c.access(64, 4);
        assert!(c.probe(64));
    }

    #[test]
    fn fill_does_not_count_access() {
        let mut c = tiny(Assoc::Full);
        c.fill(0x40, 1);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x40, 2)); // now a hit
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny(Assoc::Full);
        c.access(0, 1);
        c.flush();
        assert!(!c.probe(0));
        assert!(!c.access(0, 2));
    }

    #[test]
    fn probe_has_no_side_effects() {
        let c = tiny(Assoc::Full);
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        let _ = Cache::new(&CacheConfig {
            size_bytes: 256,
            assoc: Assoc::Full,
            line_bytes: 48,
            latency: 1,
        });
    }

    #[test]
    fn export_import_round_trips_contents_and_recency() {
        let mut a = tiny(Assoc::Ways(2));
        for (i, addr) in [0u64, 64, 128, 192, 256].iter().enumerate() {
            a.access(*addr, i as u64);
        }
        let lines = a.export_lines();
        let stats = a.stats();
        let mut b = tiny(Assoc::Ways(2));
        b.import_lines(&lines).unwrap();
        b.set_stats(stats);
        // Same residency, same LRU order: the next eviction picks the same
        // victim in both caches.
        for addr in [0u64, 64, 128, 192, 256, 320] {
            assert_eq!(a.probe(addr), b.probe(addr), "probe {addr}");
        }
        assert_eq!(a.access(384, 99), b.access(384, 99));
        assert_eq!(a.export_lines(), b.export_lines());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn import_rejects_wrong_line_count() {
        let mut c = tiny(Assoc::Full);
        let err = c.import_lines(&[]).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn import_rejects_states_no_running_cache_reaches() {
        let resident = |tag, last_used| LineState { tag, last_used, valid: true };
        let empty = LineState { tag: 0, last_used: 0, valid: false };
        for indexed in [false, true] {
            let cfg =
                CacheConfig { size_bytes: 256, assoc: Assoc::Ways(2), line_bytes: 64, latency: 1 };
            let mut c = Cache::with_lookup(&cfg, Some(indexed));
            c.access(0, 1);
            let before = c.export_lines();
            // Set 0 holds tag 7 twice; the same tag in both *sets* is fine.
            let err = c.import_lines(&[resident(7, 1), resident(7, 2), empty, empty]).unwrap_err();
            assert!(err.contains("two ways"), "{err}");
            // `last_used + 1` would wrap to an invalid line's priority.
            let err = c.import_lines(&[resident(7, u64::MAX), empty, empty, empty]).unwrap_err();
            assert!(err.contains("overflows"), "{err}");
            // No address has a tag this wide once the set bit is taken off.
            let err = c.import_lines(&[resident(1 << 63, 1), empty, empty, empty]).unwrap_err();
            assert!(err.contains("out of range"), "{err}");
            assert_eq!(c.export_lines(), before, "a rejected import changes nothing");
            // Invalid lines may carry anything.
            let stale = LineState { tag: 7, last_used: u64::MAX, valid: false };
            c.import_lines(&[resident(7, 1), stale, resident(7, 1), stale]).unwrap();
            assert_eq!(c.audit(), Ok(()));
        }
    }

    #[test]
    fn audit_reports_a_corrupted_tag_table_or_heap() {
        let cfg = CacheConfig { size_bytes: 512, assoc: Assoc::Full, line_bytes: 64, latency: 1 };
        let mut c = Cache::with_lookup(&cfg, Some(true));
        for i in 0..12u64 {
            c.access(i * 64, i);
        }
        assert_eq!(c.audit(), Ok(()));

        // The table forgets a resident line.
        let mut broken = c.clone();
        broken.index.as_mut().unwrap().remove(11);
        let err = broken.audit().unwrap_err();
        assert!(err.contains("tag table"), "{err}");

        // The table points a resident line at the wrong way.
        let mut broken = c.clone();
        let index = broken.index.as_mut().unwrap();
        let at = index.find(11).unwrap();
        index.remove(11);
        index.insert(11, at ^ 1);
        let err = broken.audit().unwrap_err();
        assert!(err.contains("tag table maps"), "{err}");

        // A heap key claims a line is younger than it is: the victim
        // choice would skip it.
        let mut broken = c.clone();
        broken.index.as_mut().unwrap().lru.corrupt_key(0, 5, 1000);
        let err = broken.audit().unwrap_err();
        assert!(err.contains("heap 0"), "{err}");
    }

    #[test]
    fn num_lines() {
        let cfg =
            CacheConfig { size_bytes: 16 * 1024, assoc: Assoc::Full, line_bytes: 128, latency: 39 };
        assert_eq!(cfg.num_lines(), 128);
    }

    /// The model `Cache` replaced and must keep matching: a hit is a
    /// `find` over the set, a victim a `min_by_key` over it.
    struct ScanModel {
        sets: Vec<Vec<LineState>>,
        line_shift: u32,
        stats: CacheStats,
    }

    impl ScanModel {
        fn new(cfg: &CacheConfig) -> ScanModel {
            let ways = match cfg.assoc {
                Assoc::Full => cfg.num_lines(),
                Assoc::Ways(w) => w,
            };
            let empty = LineState { tag: 0, last_used: 0, valid: false };
            ScanModel {
                sets: vec![vec![empty; ways as usize]; (cfg.num_lines() / ways) as usize],
                line_shift: cfg.line_bytes.trailing_zeros(),
                stats: CacheStats::default(),
            }
        }

        fn locate(&self, addr: u64) -> (usize, u64) {
            let (line, sets) = (addr >> self.line_shift, self.sets.len() as u64);
            ((line % sets) as usize, line / sets)
        }

        fn probe(&self, addr: u64) -> bool {
            let (set, tag) = self.locate(addr);
            self.sets[set].iter().any(|l| l.valid && l.tag == tag)
        }

        fn fill(&mut self, addr: u64, tick: u64) -> bool {
            let (set, tag) = self.locate(addr);
            let lines = &mut self.sets[set];
            if let Some(line) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.last_used = tick;
                return true;
            }
            let victim = lines
                .iter_mut()
                .min_by_key(|l| if l.valid { l.last_used + 1 } else { 0 })
                .expect("sets are never empty");
            *victim = LineState { tag, last_used: tick, valid: true };
            false
        }

        fn access(&mut self, addr: u64, tick: u64) -> bool {
            let hit = self.fill(addr, tick);
            self.stats.accesses += 1;
            self.stats.hits += u64::from(hit);
            hit
        }

        fn flush(&mut self) {
            self.sets.iter_mut().flatten().for_each(|l| l.valid = false);
        }

        fn export_lines(&self) -> Vec<LineState> {
            self.sets.iter().flatten().copied().collect()
        }
    }

    /// Drives `Cache` and [`ScanModel`] with the same stream and compares
    /// every answer, the exported lines and the counters after each step.
    /// `ops` are `(what, where, when)`: the operation, a line drawn from
    /// one and a half times the capacity (hits, evictions and a few far
    /// addresses), and a tick step that repeats and runs backwards.
    fn assert_matches_the_scan(cfg: CacheConfig, indexed: Option<bool>, ops: &[(u8, u32, u8)]) {
        let mut cache = Cache::with_lookup(&cfg, indexed);
        let mut model = ScanModel::new(&cfg);
        let lines = cfg.num_lines() as u64;
        // Fill past capacity first, ticks scrambled, so the random stream
        // starts from full sets with evictions already behind them.
        for i in 0..lines + lines / 4 {
            let (addr, tick) = (i * cfg.line_bytes as u64, 1000 + i.wrapping_mul(7919) % 64);
            assert_eq!(cache.access(addr, tick), model.access(addr, tick), "warm-up {i}");
        }
        assert_eq!(cache.export_lines(), model.export_lines(), "warm-up");
        let mut tick = 1100u64;
        for (step, &(what, line, when)) in ops.iter().enumerate() {
            tick = (tick + when as u64 % 6).saturating_sub(2);
            let shift = cfg.line_bytes.trailing_zeros();
            let line = match line % 16 {
                0 => u64::MAX >> shift,
                1 => (line as u64) << 20,
                _ => line as u64 % (lines + lines / 2),
            };
            let addr = (line << shift) + what as u64 % cfg.line_bytes as u64;
            match what % 16 {
                0..=8 => assert_eq!(cache.access(addr, tick), model.access(addr, tick), "{step}"),
                9..=11 => assert_eq!(cache.fill(addr, tick), model.fill(addr, tick), "{step}"),
                12 | 13 => assert_eq!(cache.probe(addr), model.probe(addr), "{step}"),
                14 if what >= 128 => {
                    cache.flush();
                    model.flush();
                }
                _ => {
                    let mut restored = Cache::with_lookup(&cfg, indexed);
                    restored.import_lines(&cache.export_lines()).expect("own export");
                    restored.set_stats(cache.stats());
                    cache = restored;
                }
            }
            assert_eq!(cache.export_lines(), model.export_lines(), "lines after step {step}");
            assert_eq!(cache.stats(), model.stats, "stats after step {step}");
            assert_eq!(cache.audit(), Ok(()), "audit after step {step}");
        }
    }

    fn geometry(size_bytes: u32, assoc: Assoc) -> CacheConfig {
        CacheConfig { size_bytes, assoc, line_bytes: 128, latency: 1 }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The ray reserve's geometry: one 1024-way set, indexed.
        #[test]
        fn wide_set_matches_the_scan(
            ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u8>()), 1..400),
        ) {
            assert_matches_the_scan(geometry(128 * 1024, Assoc::Full), None, &ops);
        }

        /// The scale-model L1 (one 32-way set) and a 4-way cache of eight
        /// sets, each as `Cache::new` builds it (scanned) and indexed.
        #[test]
        fn narrow_sets_match_the_scan_under_either_lookup(
            ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u8>()), 1..400),
        ) {
            for indexed in [None, Some(true)] {
                assert_matches_the_scan(geometry(4 * 1024, Assoc::Full), indexed, &ops);
                assert_matches_the_scan(geometry(4 * 1024, Assoc::Ways(4)), indexed, &ops);
            }
        }
    }
}
