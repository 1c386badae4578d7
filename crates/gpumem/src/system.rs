use crate::cache::{Assoc, Cache, CacheConfig, CacheStats, LineState};
use crate::mshr::MshrPools;
use crate::stats::{AccessKind, KindStats, MemStats, WindowPoint};

/// How an access flows through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Normal demand path: L1 → L2 → DRAM.
    L1AndL2,
    /// Skip the L1 (the paper's ray-data loads bypass L1 "to not evict
    /// treelet data", §5): L2 → DRAM.
    BypassL1,
    /// The reserved ray-data region of the L2 (§4.2 ①): dedicated capacity,
    /// L2 latency, DRAM backing when evicted.
    RayReserve,
    /// Straight to DRAM (uncached state save/restore streams).
    DramOnly,
}

impl CachePolicy {
    /// Every policy, in declaration order.
    pub const ALL: [CachePolicy; 4] = [
        CachePolicy::L1AndL2,
        CachePolicy::BypassL1,
        CachePolicy::RayReserve,
        CachePolicy::DramOnly,
    ];
}

/// Deterministic perturbation knobs for the DRAM model, used by the
/// integrity layer's fault-injection campaigns. The default is fully
/// disabled: a faultless configuration is bit-identical to a build without
/// this struct, so the timing-sensitive golden tests keep passing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFaults {
    /// Probability (in 1/1000 of DRAM line fills) of a latency spike.
    /// `0` disables spikes entirely (the RNG is never consulted).
    pub spike_per_mille: u32,
    /// Extra cycles added to a spiked line fill.
    pub spike_extra_cycles: u32,
    /// Bandwidth divisor: the effective DRAM service rate becomes
    /// `dram_lines_per_cycle / bandwidth_divisor`. `1` is nominal; values
    /// below 1 are treated as 1.
    pub bandwidth_divisor: u32,
    /// Seed for the spike RNG; campaigns derive one per cell.
    pub seed: u64,
}

impl Default for MemFaults {
    fn default() -> MemFaults {
        MemFaults { spike_per_mille: 0, spike_extra_cycles: 0, bandwidth_divisor: 1, seed: 0 }
    }
}

impl MemFaults {
    /// `true` when every knob is at its nominal (no-fault) setting.
    pub fn is_nominal(&self) -> bool {
        self.spike_per_mille == 0 && self.bandwidth_divisor <= 1
    }
}

/// Configuration of the whole memory system.
///
/// Defaults mirror the paper's Table 1 (RTX-3080-derived latencies from
/// Accel-Sim): 16 KB fully-associative L1 at 39 cycles per SM, 128 KB
/// 16-way L2 at 187 cycles, plus a DRAM model with ~450-cycle latency and a
/// global bandwidth of 4 lines/cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of SMs, i.e. number of private L1 caches.
    pub num_sms: usize,
    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// Reserved L2 region for virtualized ray data (§5: 128 KB holds 4096
    /// rays × 32 B).
    pub ray_reserve: CacheConfig,
    /// DRAM access latency in core cycles (beyond the L2 lookup).
    pub dram_latency: u32,
    /// DRAM bandwidth: cache lines serviceable per core cycle, across the
    /// whole GPU. Requests beyond this rate queue up.
    pub dram_lines_per_cycle: f64,
    /// Miss-status holding registers per SM: the number of outstanding
    /// off-SM line fills one SM can have in flight. Bounds the memory-level
    /// parallelism a warp's divergent accesses can extract. 64 matches
    /// modern SM L1s (a full 32-lane divergent warp plus controller
    /// streams); at 32 the RT unit's bulk treelet loads start serializing
    /// against demand misses.
    pub mshrs_per_sm: usize,
    /// Width of the miss-rate history windows in cycles (Figure 11).
    pub window_cycles: u64,
    /// Fault-injection knobs (disabled by default).
    pub faults: MemFaults,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            num_sms: 16,
            l1: CacheConfig {
                size_bytes: 16 * 1024,
                assoc: Assoc::Full,
                line_bytes: 128,
                latency: 39,
            },
            l2: CacheConfig {
                size_bytes: 128 * 1024,
                assoc: Assoc::Ways(16),
                line_bytes: 128,
                latency: 187,
            },
            ray_reserve: CacheConfig {
                size_bytes: 128 * 1024,
                assoc: Assoc::Full,
                line_bytes: 128,
                latency: 187,
            },
            dram_latency: 450,
            dram_lines_per_cycle: 4.0,
            mshrs_per_sm: 64,
            window_cycles: 20_000,
            faults: MemFaults::default(),
        }
    }
}

/// Serialized state of one [`Cache`]: contents plus counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lines in [`Cache::export_lines`] order.
    pub lines: Vec<LineState>,
    /// Hit/miss counters at snapshot time.
    pub stats: CacheStats,
}

impl CacheSnapshot {
    fn capture(cache: &Cache) -> CacheSnapshot {
        CacheSnapshot { lines: cache.export_lines(), stats: cache.stats() }
    }

    /// Restores a snapshot [`Cache::validate_lines`] has accepted.
    fn restore_into(&self, cache: &mut Cache) {
        cache.load_lines(&self.lines);
        cache.set_stats(self.stats);
    }
}

/// Serialized state of a whole [`MemorySystem`], exported for
/// checkpointing. Restoring into a system built from the *same*
/// [`MemConfig`] reproduces bit-identical timing for every subsequent
/// access; restoring into a mismatched geometry fails.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemSnapshot {
    /// Per-SM L1 contents and counters.
    pub l1s: Vec<CacheSnapshot>,
    /// Shared L2 contents and counters.
    pub l2: CacheSnapshot,
    /// Reserved ray-region contents and counters.
    pub ray_reserve: CacheSnapshot,
    /// [`f64::to_bits`] of the DRAM service-queue head.
    pub dram_free_at_bits: u64,
    /// Per-SM MSHR retirement cycles.
    pub mshrs: Vec<Vec<u64>>,
    /// Per-kind counters in [`AccessKind::ALL`] order.
    pub per_kind: [KindStats; AccessKind::ALL.len()],
    /// Windowed L1 BVH miss-rate series.
    pub windows: Vec<WindowPoint>,
    /// Fault-injection RNG state.
    pub fault_rng: u64,
}

/// The simulated memory hierarchy: per-SM L1s, shared L2, reserved ray
/// region, DRAM latency + bandwidth queue.
///
/// All methods take the current cycle (`now`) and return the cycle at which
/// the requested data is available; the caller (the RT-unit model) stalls
/// the consumer until then. See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    /// `log2` of the line size every access is split by.
    line_shift: u32,
    /// Cycles one line occupies the DRAM service queue.
    dram_service: f64,
    l1s: Vec<Cache>,
    l2: Cache,
    ray_reserve: Cache,
    /// Cycle at which the DRAM service queue frees up.
    dram_free_at: f64,
    /// Per-SM MSHR pools: the cycle at which each MSHR's outstanding fill
    /// returns, kept in `(free_at, slot)` order.
    mshrs: MshrPools,
    /// Lines served under each [`CachePolicy`] by this instance (a host
    /// profiling count: not part of [`MemStats`], not checkpointed).
    policy_lines: [u64; CachePolicy::ALL.len()],
    stats: MemStats,
    /// xorshift state for the fault-injection spike draw (never zero).
    fault_rng: u64,
}

impl MemorySystem {
    /// Creates the hierarchy with cold caches.
    pub fn new(config: &MemConfig) -> MemorySystem {
        MemorySystem {
            config: *config,
            line_shift: config.l1.line_bytes.trailing_zeros(),
            dram_service: config.faults.bandwidth_divisor.max(1) as f64
                / config.dram_lines_per_cycle,
            l1s: (0..config.num_sms).map(|_| Cache::new(&config.l1)).collect(),
            l2: Cache::new(&config.l2),
            ray_reserve: Cache::new(&config.ray_reserve),
            dram_free_at: 0.0,
            mshrs: MshrPools::new(config.num_sms, config.mshrs_per_sm.max(1)),
            policy_lines: [0; CachePolicy::ALL.len()],
            stats: MemStats::default(),
            fault_rng: config
                .faults
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xD1B5_4A32_D192_ED03)
                | 1,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Lines served under each policy since construction, in
    /// [`CachePolicy::ALL`] order. Unlike [`MemorySystem::stats`] this is
    /// not restored from a checkpoint: it counts this instance's own work.
    pub fn policy_lines(&self) -> [u64; CachePolicy::ALL.len()] {
        self.policy_lines
    }

    /// The line addresses covering `[addr, addr + bytes)`.
    fn lines(&self, addr: u64, bytes: u32) -> impl Iterator<Item = u64> {
        let shift = self.line_shift;
        ((addr >> shift)..=((addr + bytes as u64 - 1) >> shift)).map(move |line| line << shift)
    }

    /// Direct read-only access to one SM's L1 (tests, occupancy probes).
    pub fn l1(&self, sm: usize) -> &Cache {
        &self.l1s[sm]
    }

    /// Direct read-only access to the shared L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Issues an access of `bytes` bytes at `addr` from SM `sm` at cycle
    /// `now`; returns the completion cycle. Every covered cache line is
    /// looked up; the completion is the slowest line (lines transfer in
    /// parallel subject to the DRAM bandwidth queue).
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range or `bytes == 0`.
    pub fn access(
        &mut self,
        sm: usize,
        addr: u64,
        bytes: u32,
        kind: AccessKind,
        policy: CachePolicy,
        now: u64,
    ) -> u64 {
        assert!(bytes > 0, "zero-byte access");
        let mut done = now;
        for line_addr in self.lines(addr, bytes) {
            done = done.max(self.access_line(sm, line_addr, kind, policy, now));
        }
        done
    }

    /// Single-line access; see [`MemorySystem::access`].
    fn access_line(
        &mut self,
        sm: usize,
        line_addr: u64,
        kind: AccessKind,
        policy: CachePolicy,
        now: u64,
    ) -> u64 {
        self.policy_lines[policy as usize] += 1;
        let ks = self.stats.kind_mut(kind);
        ks.lines += 1;
        match policy {
            CachePolicy::L1AndL2 => {
                ks.l1_lookups += 1;
                let l1_hit = self.l1s[sm].access(line_addr, now);
                // The Figure 11 time series covers all BVH data movement
                // through the L1: demand node fetches plus controller
                // treelet streams/prefetches (whose wasted lines are
                // exactly what makes thin treelet queues expensive).
                if kind == AccessKind::Bvh || kind == AccessKind::Prefetch {
                    self.record_window(now, l1_hit);
                }
                if l1_hit {
                    self.stats.kind_mut(kind).l1_hits += 1;
                    return now + self.config.l1.latency as u64;
                }
                self.l2_then_dram(sm, line_addr, kind, now)
            }
            CachePolicy::BypassL1 => self.l2_then_dram(sm, line_addr, kind, now),
            CachePolicy::RayReserve => {
                if self.ray_reserve.access(line_addr, now) {
                    self.stats.kind_mut(kind).l2_hits += 1;
                    now + self.config.ray_reserve.latency as u64
                } else {
                    self.dram(sm, kind, now + self.config.ray_reserve.latency as u64)
                }
            }
            CachePolicy::DramOnly => self.dram(sm, kind, now),
        }
    }

    fn l2_then_dram(&mut self, sm: usize, line_addr: u64, kind: AccessKind, now: u64) -> u64 {
        if self.l2.access(line_addr, now) {
            self.stats.kind_mut(kind).l2_hits += 1;
            now + self.config.l2.latency as u64
        } else {
            self.dram(sm, kind, now + self.config.l2.latency as u64)
        }
    }

    /// Charges one line of DRAM traffic: MSHR allocation, bandwidth queue
    /// and fixed latency.
    fn dram(&mut self, sm: usize, kind: AccessKind, ready: u64) -> u64 {
        self.stats.kind_mut(kind).dram += 1;
        // Allocate the earliest-free MSHR (the lowest slot among equals);
        // if all are occupied the request stalls until one retires.
        let issue = ready.max(self.mshrs.earliest_free(sm));
        let start = self.dram_free_at.max(issue as f64);
        self.dram_free_at = start + self.dram_service;
        let mut completion = start as u64 + self.config.dram_latency as u64;
        // Injected latency spike: only draws from the RNG when enabled, so
        // nominal configurations stay bit-identical to a fault-free build.
        if self.config.faults.spike_per_mille > 0
            && self.next_fault_draw() % 1000 < self.config.faults.spike_per_mille as u64
        {
            completion += self.config.faults.spike_extra_cycles as u64;
        }
        self.mshrs.reissue_earliest(sm, completion);
        completion
    }

    /// One xorshift64 step of the fault RNG.
    fn next_fault_draw(&mut self) -> u64 {
        let mut x = self.fault_rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.fault_rng = x;
        x
    }

    /// Installs the lines covering `[addr, addr+bytes)` into SM `sm`'s L1
    /// (and the L2) without counting demand accesses — the treelet preload
    /// path. Timing is the caller's concern (it gates dispatch on the
    /// returned completion of a matching [`MemorySystem::access`] call or
    /// models preload latency itself).
    pub fn fill_l1(&mut self, sm: usize, addr: u64, bytes: u32, now: u64) {
        for line_addr in self.lines(addr, bytes) {
            self.l1s[sm].fill(line_addr, now);
            self.l2.fill(line_addr, now);
        }
    }

    /// Number of lines of `[addr, addr+bytes)` *not* already resident in SM
    /// `sm`'s L1 — used to price preloads.
    pub fn missing_l1_lines(&self, sm: usize, addr: u64, bytes: u32) -> u32 {
        self.lines(addr, bytes).filter(|&line_addr| !self.l1s[sm].probe(line_addr)).count() as u32
    }

    /// Number of outstanding DRAM fills across all SMs at cycle `now`
    /// (MSHRs whose fill has not yet returned) — reported in the deadlock
    /// forensics snapshot.
    pub fn in_flight_requests(&self, now: u64) -> usize {
        self.mshrs.in_flight(now)
    }

    /// Every cache with its name in messages: the L1s, the L2, the reserve.
    fn caches(&self) -> impl Iterator<Item = (String, &Cache)> {
        self.l1s
            .iter()
            .enumerate()
            .map(|(sm, c)| (format!("l1[{sm}]"), c))
            .chain([("l2".to_string(), &self.l2), ("ray-reserve".to_string(), &self.ray_reserve)])
    }

    /// Checks the hierarchy's accounting invariants, returning a
    /// description of the first violation:
    ///
    /// * per [`AccessKind`]: every line was serviced by exactly one level
    ///   (`l1_hits + l2_hits + dram == lines`), and
    ///   `l1_hits <= l1_lookups <= lines`;
    /// * per cache: `hits <= accesses`, and the derived lookup state (tag
    ///   table, LRU heaps) agrees with the line array;
    /// * each MSHR pool holds every slot once, in `(free_at, slot)` order.
    ///
    /// The caller (the simulator's invariant auditor) wraps the message in
    /// a typed error with the cycle and site attached.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found, as a human-readable message.
    pub fn audit(&self) -> Result<(), String> {
        for kind in AccessKind::ALL {
            let k = self.stats.kind(kind);
            if k.l1_hits + k.l2_hits + k.dram != k.lines {
                return Err(format!(
                    "{kind}: l1_hits {} + l2_hits {} + dram {} != lines {}",
                    k.l1_hits, k.l2_hits, k.dram, k.lines
                ));
            }
            if k.l1_hits > k.l1_lookups || k.l1_lookups > k.lines {
                return Err(format!(
                    "{kind}: l1_hits {} / l1_lookups {} / lines {} out of order",
                    k.l1_hits, k.l1_lookups, k.lines
                ));
            }
        }
        for (name, cache) in self.caches() {
            let s = cache.stats();
            if s.hits > s.accesses {
                return Err(format!("{name}: hits {} > accesses {}", s.hits, s.accesses));
            }
            cache.audit().map_err(|e| format!("{name}: {e}"))?;
        }
        self.mshrs.audit().map_err(|e| format!("mshr {e}"))
    }

    /// Captures the complete mutable state of the hierarchy. Pair with
    /// [`MemorySystem::restore`] on a system built from the same config.
    pub fn snapshot(&self) -> MemSnapshot {
        MemSnapshot {
            l1s: self.l1s.iter().map(CacheSnapshot::capture).collect(),
            l2: CacheSnapshot::capture(&self.l2),
            ray_reserve: CacheSnapshot::capture(&self.ray_reserve),
            dram_free_at_bits: self.dram_free_at.to_bits(),
            mshrs: (0..self.mshrs.len()).map(|sm| self.mshrs.by_slot(sm)).collect(),
            per_kind: self.stats.export_kinds(),
            windows: self.stats.bvh_l1_windows.clone(),
            fault_rng: self.fault_rng,
        }
    }

    /// Restores state captured by [`MemorySystem::snapshot`]. The receiver
    /// must have been built from the same [`MemConfig`] as the exporter.
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot's geometry (SM count, cache
    /// line counts, MSHR pool sizes) does not match this system.
    pub fn restore(&mut self, snap: &MemSnapshot) -> Result<(), String> {
        if snap.l1s.len() != self.l1s.len() {
            return Err(format!(
                "snapshot has {} L1s, system has {}",
                snap.l1s.len(),
                self.l1s.len()
            ));
        }
        if snap.mshrs.len() != self.mshrs.len()
            || snap.mshrs.iter().any(|pool| pool.len() != self.mshrs.width())
        {
            return Err("snapshot MSHR pool shape mismatch".to_string());
        }
        // Everything that can fail is checked before anything is replaced.
        let saved = || snap.l1s.iter().chain([&snap.l2, &snap.ray_reserve]);
        for ((name, cache), s) in self.caches().zip(saved()) {
            cache.validate_lines(&s.lines).map_err(|e| format!("{name}: {e}"))?;
        }
        let caches = self.l1s.iter_mut().chain([&mut self.l2, &mut self.ray_reserve]);
        for (cache, s) in caches.zip(saved()) {
            s.restore_into(cache);
        }
        self.dram_free_at = f64::from_bits(snap.dram_free_at_bits);
        for (sm, pool) in snap.mshrs.iter().enumerate() {
            self.mshrs.load(sm, pool);
        }
        self.stats = MemStats::from_parts(snap.per_kind, snap.windows.clone());
        self.fault_rng = snap.fault_rng;
        Ok(())
    }

    fn record_window(&mut self, now: u64, hit: bool) {
        let idx = (now / self.config.window_cycles) as usize;
        let windows = &mut self.stats.bvh_l1_windows;
        while windows.len() <= idx {
            let start_cycle = windows.len() as u64 * self.config.window_cycles;
            windows.push(WindowPoint { start_cycle, accesses: 0, misses: 0 });
        }
        windows[idx].accesses += 1;
        if !hit {
            windows[idx].misses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MemConfig {
        MemConfig {
            num_sms: 2,
            l1: CacheConfig { size_bytes: 512, assoc: Assoc::Full, line_bytes: 128, latency: 10 },
            l2: CacheConfig {
                size_bytes: 2048,
                assoc: Assoc::Ways(4),
                line_bytes: 128,
                latency: 50,
            },
            ray_reserve: CacheConfig {
                size_bytes: 512,
                assoc: Assoc::Full,
                line_bytes: 128,
                latency: 50,
            },
            dram_latency: 200,
            dram_lines_per_cycle: 1.0,
            mshrs_per_sm: 32,
            window_cycles: 1000,
            faults: MemFaults::default(),
        }
    }

    #[test]
    fn latency_ladder() {
        let mut m = MemorySystem::new(&small_config());
        // Cold: L2 lookup (50) + DRAM (200).
        let t = m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        assert_eq!(t, 250);
        // L1 hit now.
        assert_eq!(m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 300) - 300, 10);
        // Other SM: misses its L1 but hits the shared L2.
        assert_eq!(m.access(1, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 600) - 600, 50);
    }

    #[test]
    fn multi_line_access_completes_with_slowest() {
        let mut m = MemorySystem::new(&small_config());
        // 256 bytes = 2 lines, both DRAM; bandwidth 1 line/cycle so the
        // second line queues 1 cycle behind the first.
        let t = m.access(0, 0, 256, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        assert_eq!(t, 251);
        assert_eq!(m.stats().kind(AccessKind::Bvh).lines, 2);
        assert_eq!(m.stats().kind(AccessKind::Bvh).dram, 2);
    }

    #[test]
    fn bandwidth_queue_delays_bursts() {
        let mut m = MemorySystem::new(&small_config());
        // 8 distinct lines at once: the k-th line starts k cycles later.
        let mut last = 0;
        for i in 0..8u64 {
            last = last.max(m.access(
                0,
                i * 128 + 4096,
                128,
                AccessKind::Bvh,
                CachePolicy::L1AndL2,
                0,
            ));
        }
        assert_eq!(last, 50 + 200 + 7);
    }

    #[test]
    fn bypass_l1_does_not_install_in_l1() {
        let mut m = MemorySystem::new(&small_config());
        m.access(0, 0, 128, AccessKind::Ray, CachePolicy::BypassL1, 0);
        assert!(!m.l1(0).probe(0));
        assert!(m.l2().probe(0));
        assert_eq!(m.stats().kind(AccessKind::Ray).l1_lookups, 0);
    }

    #[test]
    fn ray_reserve_is_separate_from_l2() {
        let mut m = MemorySystem::new(&small_config());
        m.access(0, 0, 128, AccessKind::Ray, CachePolicy::RayReserve, 0);
        assert!(!m.l2().probe(0));
        // Second access hits the reserve at L2 latency.
        let t = m.access(0, 0, 128, AccessKind::Ray, CachePolicy::RayReserve, 1000);
        assert_eq!(t - 1000, 50);
    }

    #[test]
    fn dram_only_always_pays_dram() {
        let mut m = MemorySystem::new(&small_config());
        let t1 = m.access(0, 0, 128, AccessKind::CtaState, CachePolicy::DramOnly, 0);
        assert_eq!(t1, 200);
        let t2 = m.access(0, 0, 128, AccessKind::CtaState, CachePolicy::DramOnly, 1000);
        assert_eq!(t2 - 1000, 200);
        assert_eq!(m.stats().kind(AccessKind::CtaState).dram, 2);
    }

    #[test]
    fn fill_l1_makes_demand_hits() {
        let mut m = MemorySystem::new(&small_config());
        assert_eq!(m.missing_l1_lines(0, 0, 256), 2);
        m.fill_l1(0, 0, 256, 0);
        assert_eq!(m.missing_l1_lines(0, 0, 256), 0);
        let t = m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 10);
        assert_eq!(t - 10, 10); // L1 hit
    }

    #[test]
    fn window_series_records_bvh_l1_only() {
        let mut m = MemorySystem::new(&small_config());
        m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0); // miss @ window 0
        m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 1500); // hit @ window 1
        m.access(0, 0, 128, AccessKind::Ray, CachePolicy::BypassL1, 1600); // not recorded
        let w = &m.stats().bvh_l1_windows;
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].accesses, 1);
        assert_eq!(w[0].misses, 1);
        assert_eq!(w[1].accesses, 1);
        assert_eq!(w[1].misses, 0);
        assert_eq!(w[1].start_cycle, 1000);
    }

    #[test]
    fn l1s_are_private_per_sm() {
        let mut m = MemorySystem::new(&small_config());
        m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        assert!(m.l1(0).probe(0));
        assert!(!m.l1(1).probe(0));
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_byte_access_panics() {
        let mut m = MemorySystem::new(&small_config());
        m.access(0, 0, 0, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
    }

    #[test]
    fn audit_passes_after_mixed_traffic() {
        let mut m = MemorySystem::new(&small_config());
        m.access(0, 0, 384, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        m.access(1, 0, 128, AccessKind::Ray, CachePolicy::BypassL1, 10);
        m.access(0, 4096, 128, AccessKind::Ray, CachePolicy::RayReserve, 20);
        m.access(1, 8192, 256, AccessKind::CtaState, CachePolicy::DramOnly, 30);
        m.fill_l1(0, 0, 256, 40);
        assert_eq!(m.audit(), Ok(()));
    }

    #[test]
    fn in_flight_requests_tracks_outstanding_fills() {
        let mut m = MemorySystem::new(&small_config());
        assert_eq!(m.in_flight_requests(0), 0);
        let done = m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        assert_eq!(m.in_flight_requests(0), 1);
        assert_eq!(m.in_flight_requests(done), 0);
    }

    #[test]
    fn latency_spike_fault_delays_some_fills() {
        let mut cfg = small_config();
        cfg.faults = MemFaults {
            spike_per_mille: 1000, // every fill spikes
            spike_extra_cycles: 77,
            bandwidth_divisor: 1,
            seed: 42,
        };
        let mut m = MemorySystem::new(&cfg);
        let t = m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        assert_eq!(t, 250 + 77);
        assert_eq!(m.audit(), Ok(()));
    }

    #[test]
    fn bandwidth_throttle_fault_stretches_the_queue() {
        let mut cfg = small_config();
        cfg.faults.bandwidth_divisor = 4;
        let mut m = MemorySystem::new(&cfg);
        // 2 lines at 1 line/cycle nominal, divided by 4: the second line
        // starts 4 cycles behind the first instead of 1.
        let t = m.access(0, 0, 256, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        assert_eq!(t, 254);
    }

    #[test]
    fn nominal_faults_change_nothing() {
        assert!(MemFaults::default().is_nominal());
        let mut a = MemorySystem::new(&small_config());
        let mut cfg = small_config();
        cfg.faults.seed = 999; // a different seed alone must not matter
        let mut b = MemorySystem::new(&cfg);
        for i in 0..32u64 {
            let ta = a.access(0, i * 96, 96, AccessKind::Bvh, CachePolicy::L1AndL2, i * 7);
            let tb = b.access(0, i * 96, 96, AccessKind::Bvh, CachePolicy::L1AndL2, i * 7);
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn snapshot_restore_reproduces_identical_timing() {
        let mut cfg = small_config();
        cfg.faults = MemFaults {
            spike_per_mille: 250,
            spike_extra_cycles: 33,
            bandwidth_divisor: 2,
            seed: 7,
        };
        let mut m = MemorySystem::new(&cfg);
        // Warm the hierarchy with mixed traffic, including a fractional
        // dram_free_at (bandwidth_divisor 2 at 1 line/cycle → 2.0 steps,
        // spikes consult the RNG).
        for i in 0..20u64 {
            m.access((i % 2) as usize, i * 96, 96, AccessKind::Bvh, CachePolicy::L1AndL2, i * 13);
        }
        let snap = m.snapshot();
        let mut fresh = MemorySystem::new(&cfg);
        fresh.restore(&snap).unwrap();
        // The two systems must now be indistinguishable: identical timing,
        // stats and RNG draws for any further access pattern.
        for i in 0..30u64 {
            let (sm, addr, now) = ((i % 2) as usize, 1024 + i * 64, 400 + i * 11);
            let ta = m.access(sm, addr, 96, AccessKind::Ray, CachePolicy::RayReserve, now);
            let tb = fresh.access(sm, addr, 96, AccessKind::Ray, CachePolicy::RayReserve, now);
            assert_eq!(ta, tb, "access {i}");
            let ta = m.access(sm, addr, 128, AccessKind::Bvh, CachePolicy::L1AndL2, now);
            let tb = fresh.access(sm, addr, 128, AccessKind::Bvh, CachePolicy::L1AndL2, now);
            assert_eq!(ta, tb, "bvh access {i}");
        }
        assert_eq!(m.snapshot(), fresh.snapshot());
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let m = MemorySystem::new(&small_config());
        let snap = m.snapshot();
        let mut other_sms = small_config();
        other_sms.num_sms = 4;
        let err = MemorySystem::new(&other_sms).restore(&snap).unwrap_err();
        assert!(err.contains("L1s"), "{err}");
        let mut other_mshrs = small_config();
        other_mshrs.mshrs_per_sm = 8;
        let err = MemorySystem::new(&other_mshrs).restore(&snap).unwrap_err();
        assert!(err.contains("MSHR"), "{err}");
        let mut other_l2 = small_config();
        other_l2.l2.size_bytes = 4096;
        let err = MemorySystem::new(&other_l2).restore(&snap).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn a_rejected_restore_leaves_every_cache_as_it_was() {
        let mut m = MemorySystem::new(&small_config());
        for i in 0..12u64 {
            m.access((i % 2) as usize, i * 128, 128, AccessKind::Bvh, CachePolicy::L1AndL2, i);
            m.access(0, i * 128, 128, AccessKind::Ray, CachePolicy::RayReserve, i);
        }
        let good = m.snapshot();
        let mut target = MemorySystem::new(&small_config());
        target.access(1, 1 << 20, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 3);
        let before = target.snapshot();
        // The last cache restored is the bad one: the L1s and the L2 ahead
        // of it must not have been replaced by the time it is refused.
        let mut repeated_tag = good.clone();
        repeated_tag.ray_reserve.lines[1] = repeated_tag.ray_reserve.lines[0];
        let err = target.restore(&repeated_tag).unwrap_err();
        assert!(err.contains("ray-reserve") && err.contains("two ways"), "{err}");
        let mut wrapping_tick = good.clone();
        wrapping_tick.l2.lines.iter_mut().find(|l| l.valid).unwrap().last_used = u64::MAX;
        let err = target.restore(&wrapping_tick).unwrap_err();
        assert!(err.contains("l2") && err.contains("overflows"), "{err}");
        assert_eq!(target.snapshot(), before);
        assert_eq!(target.audit(), Ok(()));
        target.restore(&good).unwrap();
        assert_eq!(target.snapshot(), good);
        assert_eq!(target.audit(), Ok(()));
    }

    #[test]
    fn audit_reports_lookup_state_that_disagrees_with_the_checkpointed_state() {
        let mut cfg = small_config();
        cfg.ray_reserve.size_bytes = 128 * 1024; // wide enough to be indexed
        let mut m = MemorySystem::new(&cfg);
        for i in 0..40u64 {
            m.access(0, i * 128, 128, AccessKind::Ray, CachePolicy::RayReserve, i);
            m.access(1, i * 128, 128, AccessKind::CtaState, CachePolicy::DramOnly, i);
        }
        assert_eq!(m.audit(), Ok(()));

        let mut broken = m.clone();
        broken.ray_reserve.corrupt_index();
        let err = broken.audit().unwrap_err();
        assert!(err.starts_with("ray-reserve: tag table"), "{err}");

        // An MSHR pool is out of `(free_at, slot)` order.
        let mut broken = m;
        broken.mshrs.corrupt_order(1);
        let err = broken.audit().unwrap_err();
        assert!(err.starts_with("mshr pool 1: entry 1"), "{err}");
    }

    #[test]
    fn default_config_matches_table1() {
        let c = MemConfig::default();
        assert_eq!(c.num_sms, 16);
        assert_eq!(c.l1.size_bytes, 16 * 1024);
        assert_eq!(c.l1.latency, 39);
        assert_eq!(c.l2.size_bytes, 128 * 1024);
        assert_eq!(c.l2.latency, 187);
        assert_eq!(c.l2.assoc, Assoc::Ways(16));
        assert_eq!(c.mshrs_per_sm, 64);
        // §4.2 ①: 4096 rays x 32 B in one fully associative 1024-line set,
        // whatever the scale of the L1 and L2 beside it.
        assert_eq!(c.ray_reserve.size_bytes, 128 * 1024);
        assert_eq!(c.ray_reserve.assoc, Assoc::Full);
        assert_eq!(c.ray_reserve.num_lines(), 1024);
        assert_eq!(c.ray_reserve.latency, c.l2.latency);
    }
}

#[cfg(test)]
mod mshr_tests {
    use proptest::prelude::*;

    use super::*;
    use crate::Assoc;

    fn one_mshr_config() -> MemConfig {
        MemConfig {
            num_sms: 2,
            l1: CacheConfig { size_bytes: 512, assoc: Assoc::Full, line_bytes: 128, latency: 10 },
            l2: CacheConfig {
                size_bytes: 2048,
                assoc: Assoc::Ways(4),
                line_bytes: 128,
                latency: 50,
            },
            ray_reserve: CacheConfig {
                size_bytes: 512,
                assoc: Assoc::Full,
                line_bytes: 128,
                latency: 50,
            },
            dram_latency: 200,
            dram_lines_per_cycle: 100.0, // bandwidth not the bottleneck
            mshrs_per_sm: 1,
            window_cycles: 1000,
            faults: MemFaults::default(),
        }
    }

    #[test]
    fn single_mshr_serializes_misses() {
        let mut m = MemorySystem::new(&one_mshr_config());
        let t1 = m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        let t2 = m.access(0, 4096, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        // First miss: 50 (L2) + 200 (DRAM) = 250. Second must wait for the
        // lone MSHR to retire at 250, then pay DRAM again.
        assert_eq!(t1, 250);
        assert_eq!(t2, 250 + 200);
    }

    #[test]
    fn mshrs_are_per_sm() {
        let mut m = MemorySystem::new(&one_mshr_config());
        let t1 = m.access(0, 0, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        // Other SM has its own MSHR: no serialization.
        let t2 = m.access(1, 8192, 128, AccessKind::Bvh, CachePolicy::L1AndL2, 0);
        assert_eq!(t1, 250);
        assert_eq!(t2, 250);
    }

    #[test]
    fn many_mshrs_allow_overlap() {
        let mut cfg = one_mshr_config();
        cfg.mshrs_per_sm = 8;
        let mut m = MemorySystem::new(&cfg);
        let mut worst = 0;
        for i in 0..8u64 {
            worst = worst.max(m.access(
                0,
                16384 + i * 128,
                128,
                AccessKind::Bvh,
                CachePolicy::L1AndL2,
                0,
            ));
        }
        // All eight overlap fully (bandwidth is ample).
        assert_eq!(worst, 250);
    }

    /// The DRAM path with the pools as first written: retirement cycles in
    /// slot order, the earliest-free MSHR found by a first-minimum scan.
    struct ScanDram {
        latency: u64,
        service: f64,
        faults: MemFaults,
        free_at: f64,
        pools: Vec<Vec<u64>>,
        rng: u64,
    }

    impl ScanDram {
        /// The reference for a fresh `m`.
        fn beside(m: &MemorySystem) -> ScanDram {
            ScanDram {
                latency: m.config.dram_latency as u64,
                service: m.dram_service,
                faults: m.config.faults,
                free_at: m.dram_free_at,
                pools: m.snapshot().mshrs,
                rng: m.fault_rng,
            }
        }

        fn dram(&mut self, sm: usize, ready: u64) -> u64 {
            let pool = &mut self.pools[sm];
            let mut slot = 0;
            for (i, &free_at) in pool.iter().enumerate() {
                if free_at < pool[slot] {
                    slot = i;
                }
            }
            let start = self.free_at.max(ready.max(pool[slot]) as f64);
            self.free_at = start + self.service;
            let mut done = start as u64 + self.latency;
            if self.faults.spike_per_mille > 0 {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                if self.rng % 1000 < self.faults.spike_per_mille as u64 {
                    done += self.faults.spike_extra_cycles as u64;
                }
            }
            pool[slot] = done;
            done
        }
    }

    proptest! {
        /// Every DRAM line takes the MSHR the scan picks and completes when
        /// the scan's does — under ready times that tie and run backwards,
        /// same-cycle service starts, latency spikes that reorder
        /// completions, and a snapshot → restore midway.
        #[test]
        fn ordered_pools_match_the_first_minimum_scan(
            width in 1usize..10,
            lines_per_cycle in 0usize..3,
            divisor in 0u32..4,
            spike in (0u32..2, 0u32..700, 0u32..500),
            seed in 0u64..1000,
            ops in prop::collection::vec((0usize..2, 0u64..400), 1..300),
            restore_at in 0usize..300,
        ) {
            let mut cfg = one_mshr_config();
            cfg.mshrs_per_sm = width;
            // 4 lines a cycle: up to four services start in one cycle.
            cfg.dram_lines_per_cycle = [4.0, 1.0, 0.3][lines_per_cycle];
            cfg.faults = MemFaults {
                spike_per_mille: spike.0 * spike.1,
                spike_extra_cycles: spike.2,
                bandwidth_divisor: divisor,
                seed,
            };
            let mut m = MemorySystem::new(&cfg);
            let mut scan = ScanDram::beside(&m);
            for (n, (sm, jitter)) in ops.into_iter().enumerate() {
                if n == restore_at {
                    let snap = m.snapshot();
                    m = MemorySystem::new(&cfg);
                    m.restore(&snap).unwrap();
                }
                let ready = n as u64 * 3 + jitter;
                let addr = n as u64 * 128;
                let done = m.access(sm, addr, 128, AccessKind::CtaState, CachePolicy::DramOnly, ready);
                prop_assert_eq!(done, scan.dram(sm, ready), "line {}", n);
                prop_assert_eq!(&m.snapshot().mshrs, &scan.pools, "line {}", n);
            }
            prop_assert_eq!(m.audit(), Ok(()));
        }
    }
}
