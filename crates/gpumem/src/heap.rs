//! Indexed min-heaps over fixed item sets: the victim selector behind the
//! wide LRU sets.

/// Children per heap node. LRU touches and fills almost always *raise* a
/// key, so the work is in sifting down; four children per level
/// halve the depth of a binary heap and sit in one host cache line.
const ARITY: usize = 4;

/// `segments` independent min-heaps of `width` items each, in two flat
/// arrays sized once at construction. Every item `0..width` of a segment
/// is always in that segment's heap; only its key changes.
///
/// The minimum is the smallest `(key, item)` pair, so equal keys resolve
/// to the lowest item — the answer a first-minimum linear scan over the
/// keys in item order gives, whatever order the updates arrived in.
#[derive(Debug, Clone)]
pub(crate) struct MinHeaps {
    width: usize,
    /// Heap-ordered `(key, item)` pairs, one segment after the other.
    heap: Vec<(u64, u32)>,
    /// `pos[seg * width + item]`: where `item` sits in its segment's heap.
    pos: Vec<u32>,
}

impl MinHeaps {
    /// All keys zero (items in ascending order are a valid heap).
    pub(crate) fn new(segments: usize, width: usize) -> MinHeaps {
        assert!(width > 0 && width <= u32::MAX as usize, "heap width out of range");
        let items = (0..segments * width).map(|i| (i % width) as u32);
        MinHeaps {
            width,
            heap: items.clone().map(|item| (0, item)).collect(),
            pos: items.collect(),
        }
    }

    /// Replaces every key of segment `seg`; `keys` yields them in item order.
    pub(crate) fn load(&mut self, seg: usize, keys: impl Iterator<Item = u64>) {
        let (heap, pos) = self.segment(seg);
        for (item, ((entry, at), key)) in heap.iter_mut().zip(pos.iter_mut()).zip(keys).enumerate()
        {
            *entry = (key, item as u32);
            *at = item as u32;
        }
        for i in (0..heap.len().div_ceil(ARITY)).rev() {
            sift_down(heap, pos, i, heap[i]);
        }
    }

    /// The `(key, item)` minimum of segment `seg`.
    pub(crate) fn min(&self, seg: usize) -> (u64, usize) {
        let (key, item) = self.heap[seg * self.width];
        (key, item as usize)
    }

    /// Changes the key of `item` in segment `seg`.
    pub(crate) fn update(&mut self, seg: usize, item: usize, key: u64) {
        let (heap, pos) = self.segment(seg);
        let i = pos[item] as usize;
        let entry = (key, item as u32);
        if entry < heap[i] {
            sift_up(heap, pos, i, entry);
        } else {
            sift_down(heap, pos, i, entry);
        }
    }

    /// Checks that both arrays describe valid heaps over exactly the keys
    /// `key_of(seg, item)` reports; returns the first disagreement.
    pub(crate) fn audit(&self, key_of: impl Fn(usize, usize) -> u64) -> Result<(), String> {
        for (seg, (heap, pos)) in
            self.heap.chunks(self.width).zip(self.pos.chunks(self.width)).enumerate()
        {
            for (item, &at) in pos.iter().enumerate() {
                let want = (key_of(seg, item), item as u32);
                match heap.get(at as usize) {
                    Some(&got) if got == want => {}
                    got => {
                        return Err(format!(
                            "heap {seg}: item {item} expected {want:?} at {at}, found {got:?}"
                        ))
                    }
                }
            }
            if let Some(i) = (1..heap.len()).find(|&i| heap[i] < heap[(i - 1) / ARITY]) {
                return Err(format!("heap {seg}: entry {i} {:?} sorts before its parent", heap[i]));
            }
        }
        Ok(())
    }

    /// Overwrites one stored key without restoring heap order, so a test
    /// can show that [`MinHeaps::audit`] goes red.
    #[cfg(test)]
    pub(crate) fn corrupt_key(&mut self, seg: usize, item: usize, key: u64) {
        let (heap, pos) = self.segment(seg);
        heap[pos[item] as usize].0 = key;
    }

    fn segment(&mut self, seg: usize) -> (&mut [(u64, u32)], &mut [u32]) {
        let range = seg * self.width..(seg + 1) * self.width;
        (&mut self.heap[range.clone()], &mut self.pos[range])
    }
}

/// Places `entry` at or above hole `i`.
fn sift_up(heap: &mut [(u64, u32)], pos: &mut [u32], mut i: usize, entry: (u64, u32)) {
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if entry >= heap[parent] {
            break;
        }
        heap[i] = heap[parent];
        pos[heap[i].1 as usize] = i as u32;
        i = parent;
    }
    heap[i] = entry;
    pos[entry.1 as usize] = i as u32;
}

/// Places `entry` at or below hole `i`.
fn sift_down(heap: &mut [(u64, u32)], pos: &mut [u32], mut i: usize, entry: (u64, u32)) {
    loop {
        let first = ARITY * i + 1;
        if first >= heap.len() {
            break;
        }
        let last = (first + ARITY).min(heap.len());
        let child =
            (first + 1..last).fold(first, |best, c| if heap[c] < heap[best] { c } else { best });
        if entry <= heap[child] {
            break;
        }
        heap[i] = heap[child];
        pos[heap[i].1 as usize] = i as u32;
        i = child;
    }
    heap[i] = entry;
    pos[entry.1 as usize] = i as u32;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan the heap replaces: the first minimum in item order.
    fn first_minimum(keys: &[u64]) -> (u64, usize) {
        let mut best = 0;
        for (i, &key) in keys.iter().enumerate() {
            if key < keys[best] {
                best = i;
            }
        }
        (keys[best], best)
    }

    #[test]
    fn fresh_heaps_pop_items_in_order() {
        let mut heaps = MinHeaps::new(2, 5);
        for expect in 0..5 {
            assert_eq!(heaps.min(1), (0, expect));
            heaps.update(1, expect, 9);
        }
        assert_eq!(heaps.min(1), (9, 0), "all equal again: lowest item");
        assert_eq!(heaps.min(0), (0, 0), "segments are independent");
    }

    #[test]
    fn audit_catches_a_stale_key_and_a_misplaced_entry() {
        let mut heaps = MinHeaps::new(1, 8);
        let mut keys = [5u64, 3, 9, 1, 7, 2, 8, 4];
        heaps.load(0, keys.iter().copied());
        assert_eq!(heaps.audit(|_, item| keys[item]), Ok(()));
        assert_eq!(heaps.min(0), (1, 3));
        // The keys moved on but the heap was not told.
        keys[6] = 0;
        let err = heaps.audit(|_, item| keys[item]).unwrap_err();
        assert!(err.contains("item 6"), "{err}");
        // The heap's own copy of a key was damaged in place.
        keys[6] = 8;
        heaps.corrupt_key(0, 3, 100);
        assert!(heaps.audit(|_, item| keys[item]).is_err());
    }

    proptest! {
        /// Any update stream, ties and decreasing keys included, keeps the
        /// heap's minimum equal to the first-minimum scan's.
        #[test]
        fn matches_the_first_minimum_scan(
            width in 1usize..70,
            ops in prop::collection::vec((0usize..70, 0u64..6, any::<bool>()), 1..300),
        ) {
            let mut heaps = MinHeaps::new(2, width);
            let mut keys = vec![vec![0u64; width]; 2];
            for (n, (item, key, reload)) in ops.into_iter().enumerate() {
                let (seg, item) = (n % 2, item % width);
                // Replace the scan's pick, as a miss evicts the victim, or
                // touch an arbitrary item, as an LRU hit does.
                let item = if reload { first_minimum(&keys[seg]).1 } else { item };
                keys[seg][item] = key * 100 + (n as u64 % 3);
                heaps.update(seg, item, keys[seg][item]);
                if reload && n % 7 == 0 {
                    heaps.load(seg, keys[seg].iter().copied());
                }
                prop_assert_eq!(heaps.min(seg), first_minimum(&keys[seg]));
                prop_assert_eq!(heaps.audit(|s, i| keys[s][i]), Ok(()));
            }
        }
    }
}
