//! The per-SM MSHR pools, each kept in ascending `(free_at, slot)` order.

/// One pool of `width` MSHRs per SM. Each pool is a ring of
/// `(free_at, slot)` entries that ascends from its head: the head is the
/// earliest-free MSHR, the lowest slot among equals — the answer a
/// first-minimum scan over the retirement cycles in slot order gives.
///
/// A DRAM line takes the head and re-enters from the back with its
/// completion. DRAM service starts strictly increase, so a completion is
/// almost always the latest in its pool and the insert stops at once; it
/// steps back only over equal `free_at`s of higher slots, or over entries
/// an injected latency spike pushed later. The order is the whole state:
/// there is no index beside it to disagree with it.
#[derive(Debug, Clone)]
pub(crate) struct MshrPools {
    width: usize,
    /// `(free_at, slot)` entries, one ring of `width` per SM.
    ring: Vec<(u64, u32)>,
    /// Ring position of each pool's earliest entry.
    head: Vec<usize>,
}

impl MshrPools {
    /// `pools` pools of `width` MSHRs, all free at cycle 0.
    pub(crate) fn new(pools: usize, width: usize) -> MshrPools {
        assert!(width > 0 && width <= u32::MAX as usize, "MSHR pool width out of range");
        MshrPools {
            width,
            ring: (0..pools * width).map(|i| (0, (i % width) as u32)).collect(),
            head: vec![0; pools],
        }
    }

    /// Number of pools.
    pub(crate) fn len(&self) -> usize {
        self.head.len()
    }

    /// MSHRs per pool.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// When pool `sm`'s earliest-free MSHR retires.
    pub(crate) fn earliest_free(&self, sm: usize) -> u64 {
        self.ring[sm * self.width + self.head[sm]].0
    }

    /// Hands pool `sm`'s earliest-free MSHR a fill that returns at
    /// `free_at`, and re-inserts it in order.
    pub(crate) fn reissue_earliest(&mut self, sm: usize, free_at: u64) {
        let width = self.width;
        let ring = &mut self.ring[sm * width..(sm + 1) * width];
        let head = &mut self.head[sm];
        let entry = (free_at, ring[*head].1);
        // The head's position becomes the back of the ring.
        let mut at = *head;
        *head = if at + 1 == width { 0 } else { at + 1 };
        while at != *head {
            let prev = if at == 0 { width - 1 } else { at - 1 };
            if ring[prev] < entry {
                break;
            }
            ring[at] = ring[prev];
            at = prev;
        }
        ring[at] = entry;
    }

    /// Pool `sm`'s retirement cycles in slot order: the checkpointed form.
    pub(crate) fn by_slot(&self, sm: usize) -> Vec<u64> {
        let mut cycles = vec![0; self.width];
        for &(free_at, slot) in self.pool(sm) {
            cycles[slot as usize] = free_at;
        }
        cycles
    }

    /// Replaces pool `sm` with the retirement cycles `cycles`, given in
    /// slot order ([`MshrPools::by_slot`]'s form).
    pub(crate) fn load(&mut self, sm: usize, cycles: &[u64]) {
        assert_eq!(cycles.len(), self.width, "MSHR pool width mismatch");
        let ring = &mut self.ring[sm * self.width..(sm + 1) * self.width];
        for (entry, (slot, &free_at)) in ring.iter_mut().zip(cycles.iter().enumerate()) {
            *entry = (free_at, slot as u32);
        }
        ring.sort_unstable();
        self.head[sm] = 0;
    }

    /// MSHRs, over all pools, whose fill has not returned by `now`.
    pub(crate) fn in_flight(&self, now: u64) -> usize {
        self.ring.iter().filter(|&&(free_at, _)| free_at > now).count()
    }

    /// Checks that every pool holds each slot once and ascends from its
    /// head; returns the first violation.
    pub(crate) fn audit(&self) -> Result<(), String> {
        let mut seen = vec![false; self.width];
        for sm in 0..self.len() {
            seen.fill(false);
            let mut prev: Option<(u64, u32)> = None;
            for (i, entry) in self.walk(sm).enumerate() {
                let slot = entry.1 as usize;
                if slot >= self.width || std::mem::replace(&mut seen[slot], true) {
                    return Err(format!("pool {sm}: slot {slot} out of range or repeated"));
                }
                if let Some(p) = prev.filter(|&p| p >= entry) {
                    return Err(format!("pool {sm}: entry {i} {entry:?} is not after {p:?}"));
                }
                prev = Some(entry);
            }
        }
        Ok(())
    }

    /// Swaps two adjacent entries of pool `sm` without telling anyone, so
    /// a test can show that [`MshrPools::audit`] goes red.
    #[cfg(test)]
    pub(crate) fn corrupt_order(&mut self, sm: usize) {
        let width = self.width;
        let (a, b) = (self.head[sm], (self.head[sm] + 1) % width);
        self.ring.swap(sm * width + a, sm * width + b);
    }

    /// Pool `sm`'s entries in ring storage order.
    fn pool(&self, sm: usize) -> &[(u64, u32)] {
        &self.ring[sm * self.width..(sm + 1) * self.width]
    }

    /// Pool `sm`'s entries from its head, earliest first.
    fn walk(&self, sm: usize) -> impl Iterator<Item = (u64, u32)> + '_ {
        let (back, front) = self.pool(sm).split_at(self.head[sm]);
        front.iter().chain(back).copied()
    }
}
