use std::fmt;

use gpumem::MemConfig;

/// An inconsistent configuration rejected by [`GpuConfig::validate`] —
/// which every run calls before the engine exists — instead of surfacing
/// as a hang or a bogus result mid-simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// A rejection with `msg` as its reason.
    pub fn new(msg: impl Into<String>) -> ConfigError {
        ConfigError(msg.into())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Parameters of the virtualized-treelet-queue policy (paper §3–§4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VtqParams {
    /// Maximum virtualized rays in flight per SM (paper §5: 4096).
    ///
    /// A cap below [`GpuConfig::cta_size`] is legal, and
    /// [`GpuConfig::validate`] admits it on purpose: launch admission
    /// reserves a whole CTA's rays under the cap, so no CTA ever launches
    /// and the run ends in [`SimError::Deadlock`](crate::SimError::Deadlock)
    /// with a forensics snapshot — a typed error at cycle 0, not a hang.
    /// That is the engineered deadlock the integrity tests drive the
    /// watchdog with.
    pub max_virtual_rays: usize,
    /// Initial-phase divergence trigger: a warp is terminated into the
    /// treelet queues when its active lanes' next nodes span more than this
    /// many distinct treelets (§3.2 ①).
    pub divergence_treelets: usize,
    /// Minimum rays a treelet queue needs before it is worth dispatching in
    /// treelet-stationary mode; below this a queue counts as
    /// *underpopulated* (§4.4; Figure 12 sweeps 32/64/128).
    pub queue_threshold: usize,
    /// Warp repacking trigger: a drain-mode warp with fewer active lanes
    /// than this is refilled with rays from the underpopulated queues
    /// (§4.5; Figure 13 sweeps 8/16/22/24). `0` disables repacking.
    pub repack_threshold: usize,
    /// Enable preloading the next treelet + its ray data while the current
    /// queue drains (§4.3).
    pub preload: bool,
    /// Group underpopulated treelet queues into ray-stationary warps
    /// (§4.4). When `false` — the paper's *naive* treelet queues — every
    /// queue is dispatched treelet-stationary regardless of population,
    /// paying a whole-treelet fetch for a handful of rays (Figure 12's
    /// strawman).
    pub group_underpopulated: bool,
    /// Charge CTA state save/restore traffic and latency (§4.1). Turning
    /// this off models "free" virtualization, isolating its overhead
    /// (Figure 16).
    pub charge_virtualization: bool,
    /// Hardware capacity of the treelet count table (§6.5: 600 entries).
    pub count_table_entries: usize,
    /// Hardware capacity of the treelet queue table (§6.5: 128 entries of
    /// 32 ray ids).
    pub queue_table_entries: usize,
}

impl Default for VtqParams {
    fn default() -> VtqParams {
        VtqParams {
            max_virtual_rays: 4096,
            divergence_treelets: 2,
            queue_threshold: 128,
            repack_threshold: 22,
            preload: true,
            group_underpopulated: true,
            charge_virtualization: true,
            count_table_entries: 600,
            queue_table_entries: 128,
        }
    }
}

impl VtqParams {
    /// Checks internal consistency; [`GpuConfig::validate`] calls this and
    /// adds the cross-field rules.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_virtual_rays == 0 {
            return Err(ConfigError::new("max_virtual_rays must be at least 1"));
        }
        if self.queue_threshold == 0 {
            return Err(ConfigError::new(
                "queue_threshold must be at least 1 ray (0 can never dispatch a queue)",
            ));
        }
        if self.queue_threshold > self.max_virtual_rays {
            return Err(ConfigError::new(format!(
                "queue_threshold ({}) exceeds the virtual-ray capacity ({}): no queue could \
                 ever reach the dispatch threshold",
                self.queue_threshold, self.max_virtual_rays
            )));
        }
        if self.count_table_entries == 0 {
            return Err(ConfigError::new("count_table_entries must be at least 1"));
        }
        if self.queue_table_entries == 0 {
            return Err(ConfigError::new("queue_table_entries must be at least 1"));
        }
        Ok(())
    }
}

/// Parameters of the hash-based ray-path prediction policy (after
/// Demoullin, Gubran & Aamodt — see PAPERS.md).
///
/// Each RT unit carries a small hash table keyed by the *quantized* ray
/// origin and direction. On a table hit the predicted leaf is pushed onto
/// the ray's traversal stack before the root, so coherent rays test the
/// likely-hit leaf first and the front-to-back `t` limit prunes most of
/// the interior traversal they would otherwise pay for. A miss falls back
/// to full traversal unchanged, and every completed ray trains the table
/// with the leaf its closest hit came from. Speculation is *verified*:
/// the predicted leaf only tightens the search interval early, so the
/// closest-hit result stays bit-equal to the baseline (the conformance
/// oracle pins this across the scene suite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictParams {
    /// Hardware capacity of the per-RT-unit prediction table.
    pub table_entries: usize,
    /// Quantization bits per origin axis of the hash key.
    pub origin_bits: u32,
    /// Quantization bits per direction axis of the hash key.
    pub dir_bits: u32,
    /// Cycles a warp spends in the prediction-table lookup before it
    /// enters the RT unit's warp buffer.
    pub lookup_latency: u32,
}

impl Default for PredictParams {
    fn default() -> PredictParams {
        PredictParams { table_entries: 256, origin_bits: 6, dir_bits: 5, lookup_latency: 2 }
    }
}

impl PredictParams {
    /// Checks internal consistency; [`GpuConfig::validate`] calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.table_entries == 0 {
            return Err(ConfigError::new("table_entries must be at least 1"));
        }
        if self.origin_bits == 0 || self.dir_bits == 0 {
            return Err(ConfigError::new(
                "origin_bits and dir_bits must be at least 1 (a 0-bit key maps every ray to \
                 one entry)",
            ));
        }
        if 3 * (self.origin_bits + self.dir_bits) > 60 {
            return Err(ConfigError::new(format!(
                "3 * (origin_bits {} + dir_bits {}) exceeds the 60-bit key budget",
                self.origin_bits, self.dir_bits
            )));
        }
        Ok(())
    }
}

/// Audit interval used by [`AuditMode::Auto`] when the auditor is active
/// and by the CLI's `--strict-invariants` flag.
pub const DEFAULT_AUDIT_INTERVAL: u64 = 4096;

/// When the invariant auditor runs during a simulation.
///
/// The auditor re-derives the engine's conservation laws (rays launched ==
/// completed + in flight, treelet-queue counters match the queues, stall
/// buckets sum to the clock, memory-hierarchy accounting) and turns the
/// first violation into [`SimError::Invariant`](crate::SimError) instead of
/// letting a corrupted run finish with plausible-looking numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditMode {
    /// On (every [`DEFAULT_AUDIT_INTERVAL`] cycles) in debug builds and
    /// builds with the `strict-invariants` feature; off in plain release
    /// builds. The default.
    #[default]
    Auto,
    /// Never audit.
    Off,
    /// Audit every `N` cycles regardless of build flavour (`N >= 1`;
    /// `Every(0)` is rejected by [`GpuConfig::validate`]).
    Every(u64),
}

impl AuditMode {
    /// The audit interval in cycles, or `None` when auditing is off for
    /// this build flavour.
    pub fn interval(self) -> Option<u64> {
        match self {
            AuditMode::Auto => {
                if cfg!(debug_assertions) || cfg!(feature = "strict-invariants") {
                    Some(DEFAULT_AUDIT_INTERVAL)
                } else {
                    None
                }
            }
            AuditMode::Off => None,
            AuditMode::Every(n) => Some(n),
        }
    }
}

/// Which RT-unit traversal architecture to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraversalPolicy {
    /// Baseline GPU with RT acceleration: ray-stationary traversal in
    /// treelet traversal order (Chou et al. \[8]), no queues, no
    /// virtualization. This is the paper's normalization baseline.
    Baseline,
    /// Baseline plus the treelet prefetcher of Chou et al. \[8] (MICRO'23):
    /// the most popular pending treelet across the RT unit's rays is
    /// prefetched into the L1. The paper's Figure 10 comparison point.
    TreeletPrefetch,
    /// The paper's contribution: ray virtualization + dynamic treelet
    /// queues + grouping underpopulated queues + warp repacking.
    Vtq(VtqParams),
    /// Baseline plus hash-based ray-path prediction (Demoullin, Gubran &
    /// Aamodt, PAPERS.md): a per-RT-unit hash table predicts the hit leaf
    /// for coherent rays, which then test it first and prune most interior
    /// traversal; mispredictions fall back to full traversal.
    Predict(PredictParams),
}

impl TraversalPolicy {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            TraversalPolicy::Baseline => "baseline",
            TraversalPolicy::TreeletPrefetch => "prefetch",
            TraversalPolicy::Vtq(_) => "vtq",
            TraversalPolicy::Predict(_) => "predict",
        }
    }
}

/// Full GPU configuration (paper Table 1 plus fixed-function latencies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Memory hierarchy (also carries the SM count).
    pub mem: MemConfig,
    /// Threads per CTA (raygen shader launch granularity). 64 threads =
    /// 2 warps, so 16 resident CTAs reach Table 1's 32 warps/SM.
    pub cta_size: usize,
    /// Maximum resident CTAs per SM (Table 1: 16).
    pub max_ctas_per_sm: usize,
    /// Warp width (Table 1: 32).
    pub warp_size: usize,
    /// RT-unit warp buffer slots (Table 1: 1).
    pub warp_buffer_slots: usize,
    /// Cycles for the raygen phase of a warp before its trace call.
    pub raygen_cycles: u32,
    /// Cycles for shading after traversal returns (per bounce).
    pub shade_cycles: u32,
    /// Fixed-function latency of one warp-wide intersection step in the RT
    /// unit (box tests of one wide node, or the leaf's triangle tests).
    pub isect_latency: u32,
    /// Bytes of ray record fetched per ray when refilling warps (origin,
    /// direction, tmin, tmax = 32 B, §6.5).
    pub ray_record_bytes: u32,
    /// Registers saved per thread on CTA suspension (§6.6: ptxas reports a
    /// maximum of 10 32-bit registers for the LumiBench raygen shader).
    pub regs_per_thread: u32,
    /// Bytes saved per warp for the SIMT stack (mask + PC + reconvergence
    /// PC per stack depth; §6.6).
    pub simt_stack_bytes_per_warp: u32,
    /// The traversal architecture under test.
    pub policy: TraversalPolicy,
    /// Prefetcher trigger interval in cycles (TreeletPrefetch policy).
    pub prefetch_interval: u32,
    /// RT-unit memory-scheduler issue rate: distinct node fetches a warp
    /// step can inject per cycle (Vulkan-Sim's scheduler "pushes a BVH
    /// address to the memory access queue" each cycle, Fig. 3). `0` means
    /// unlimited — the default, since at Table 1 latencies serializing
    /// issue shifts results by under a few percent (see the `ablations`
    /// harness).
    pub rt_mem_issue_per_cycle: u32,
    /// CUDA-core contention model: how many CTAs per SM can run their
    /// raygen/shading phases at full speed simultaneously. When more are
    /// resident, phase latency stretches proportionally (a coarse
    /// issue-bandwidth model). `0` disables contention — the default,
    /// matching the paper's observation that ray tracing is RT-unit and
    /// memory bound rather than shader bound.
    pub shader_slots_per_sm: u32,
    /// Width in cycles of one time-series sampling window (`SamplePoint`
    /// in [`SimStats::series`](crate::SimStats)): occupancy, rays in
    /// flight, per-mode activity, and the stall breakdown are integrated
    /// per window. `0` disables time-series collection entirely (the
    /// per-run stall totals are always collected).
    pub sample_window_cycles: u64,
    /// Watchdog cycle budget: the run is aborted with a typed
    /// [`SimError::CycleBudget`](crate::SimError) (carrying a forensics
    /// snapshot) as soon as the clock would pass this many cycles. `None`
    /// (the default) disables the budget; `Some(0)` is rejected by
    /// [`GpuConfig::validate`].
    pub max_cycles: Option<u64>,
    /// When the invariant auditor runs (default: [`AuditMode::Auto`]).
    pub audit: AuditMode,
    /// CTA scheduling jitter for fault-injection campaigns: each shader
    /// phase (raygen/shade) is stretched by a pseudo-random
    /// `0..=sched_jitter_cycles` extra cycles, perturbing launch and
    /// resume order without changing any result-bearing state. `0` (the
    /// default) disables jitter.
    pub sched_jitter_cycles: u32,
    /// Seed for the scheduling-jitter RNG.
    pub sched_jitter_seed: u64,
}

impl Default for GpuConfig {
    fn default() -> GpuConfig {
        GpuConfig {
            mem: MemConfig::default(),
            cta_size: 64,
            max_ctas_per_sm: 16,
            warp_size: 32,
            warp_buffer_slots: 1,
            raygen_cycles: 100,
            shade_cycles: 200,
            isect_latency: 4,
            ray_record_bytes: 32,
            regs_per_thread: 10,
            simt_stack_bytes_per_warp: 3 * 4 * 4, // mask+PC+rPC at depth 4
            policy: TraversalPolicy::Baseline,
            prefetch_interval: 500,
            rt_mem_issue_per_cycle: 0,
            shader_slots_per_sm: 0,
            sample_window_cycles: 20_000,
            max_cycles: None,
            audit: AuditMode::Auto,
            sched_jitter_cycles: 0,
            sched_jitter_seed: 0,
        }
    }
}

impl GpuConfig {
    /// The scale-model configuration used by the experiment harness: cache
    /// capacities scaled down (L1 16 KB → 4 KB, L2 128 KB → 32 KB) to keep
    /// the BVH-size : cache-size ratio in the paper's regime, since our
    /// procedural scenes are ~1/64 the paper's size (see DESIGN.md; the
    /// paper itself argues scale-model simulation fidelity via \[12], \[29]).
    /// Treelets should then be built at 2 KB — half the scaled L1, the
    /// same rule as §5. Everything else matches Table 1.
    pub fn scale_model() -> GpuConfig {
        let mut cfg = GpuConfig::default();
        cfg.mem.l1.size_bytes = 4 * 1024;
        cfg.mem.l2.size_bytes = 32 * 1024;
        cfg
    }

    /// Convenience: same config with a different policy.
    pub fn with_policy(mut self, policy: TraversalPolicy) -> GpuConfig {
        self.policy = policy;
        self
    }

    /// Number of SMs (mirrors the memory config).
    pub fn num_sms(&self) -> usize {
        self.mem.num_sms
    }

    /// Warps per CTA.
    pub fn warps_per_cta(&self) -> usize {
        self.cta_size.div_ceil(self.warp_size)
    }

    /// Bytes written/read when suspending/resuming one CTA (§6.6).
    pub fn cta_state_bytes(&self) -> u32 {
        let reg_bytes = self.regs_per_thread * 4 * self.cta_size as u32;
        reg_bytes + self.simt_stack_bytes_per_warp * self.warps_per_cta() as u32
    }

    /// Checks internal consistency. A configuration is plain data — set
    /// its fields — and this is the one gate:
    /// [`Simulator::try_run_with`](crate::Simulator::try_run_with) calls it
    /// before the engine exists, so every run is checked, and the
    /// boundaries where a configuration arrives from outside the program
    /// (CLI flags, daemon submissions, reproducer files) call it to reject
    /// bad input in their own vocabulary.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cta_size == 0 {
            return Err(ConfigError::new("cta_size of 0 means zero warps per CTA"));
        }
        if self.warp_size == 0 {
            return Err(ConfigError::new("warp_size must be at least 1"));
        }
        if self.max_ctas_per_sm == 0 {
            return Err(ConfigError::new("max_ctas_per_sm must be at least 1"));
        }
        if self.warp_buffer_slots == 0 {
            return Err(ConfigError::new("warp_buffer_slots must be at least 1"));
        }
        if self.mem.num_sms == 0 {
            return Err(ConfigError::new("num_sms must be at least 1"));
        }
        // A ray records its SM in 16 bits.
        if self.mem.num_sms > 1 << 16 {
            return Err(ConfigError::new("num_sms must be at most 65536"));
        }
        if self.mem.l1.size_bytes == 0 || self.mem.l2.size_bytes == 0 {
            return Err(ConfigError::new("cache sizes must be nonzero"));
        }
        if self.max_cycles == Some(0) {
            return Err(ConfigError::new(
                "max_cycles of 0 can never complete; use None to disable the watchdog",
            ));
        }
        if self.audit == AuditMode::Every(0) {
            return Err(ConfigError::new("audit interval must be at least 1 cycle"));
        }
        if let TraversalPolicy::Vtq(params) = &self.policy {
            params.validate()?;
            if params.repack_threshold > self.warp_size {
                return Err(ConfigError::new(format!(
                    "repack_threshold ({}) exceeds the warp width ({}): every warp would \
                     trigger repacking on every step",
                    params.repack_threshold, self.warp_size
                )));
            }
        }
        if let TraversalPolicy::Predict(params) = &self.policy {
            params.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = GpuConfig::default();
        assert_eq!(c.num_sms(), 16);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.max_ctas_per_sm, 16);
        assert_eq!(c.warp_buffer_slots, 1);
        // 16 CTAs x 2 warps = Table 1's 32 warps per SM.
        assert_eq!(c.max_ctas_per_sm * c.warps_per_cta(), 32);
    }

    #[test]
    fn cta_state_bytes_match_paper_arithmetic() {
        let c = GpuConfig::default();
        // 10 regs x 4 B x 64 threads = 2560 B, plus 2 warps of SIMT stack.
        assert_eq!(c.cta_state_bytes(), 2560 + 2 * c.simt_stack_bytes_per_warp);
    }

    #[test]
    fn vtq_defaults_match_paper() {
        let v = VtqParams::default();
        assert_eq!(v.max_virtual_rays, 4096);
        assert_eq!(v.queue_threshold, 128);
        assert_eq!(v.repack_threshold, 22);
        assert_eq!(v.count_table_entries, 600);
        assert_eq!(v.queue_table_entries, 128);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(TraversalPolicy::Baseline.label(), "baseline");
        assert_eq!(TraversalPolicy::TreeletPrefetch.label(), "prefetch");
        assert_eq!(TraversalPolicy::Vtq(VtqParams::default()).label(), "vtq");
        assert_eq!(TraversalPolicy::Predict(PredictParams::default()).label(), "predict");
    }

    fn vtq(params: VtqParams) -> GpuConfig {
        GpuConfig::default().with_policy(TraversalPolicy::Vtq(params))
    }

    fn predict(params: PredictParams) -> GpuConfig {
        GpuConfig::default().with_policy(TraversalPolicy::Predict(params))
    }

    #[test]
    fn predict_builder_rejects_degenerate_keys() {
        assert_eq!(PredictParams::default().validate(), Ok(()));
        assert!(PredictParams { table_entries: 0, ..Default::default() }.validate().is_err());
        assert!(PredictParams { origin_bits: 0, ..Default::default() }.validate().is_err());
        assert!(PredictParams { dir_bits: 0, ..Default::default() }.validate().is_err());
        let wide = PredictParams { origin_bits: 12, dir_bits: 10, ..Default::default() };
        let err = wide.validate().unwrap_err();
        assert!(err.to_string().contains("60-bit key budget"), "got: {err}");
        // The GPU configuration checks the parameters of its policy.
        assert!(predict(PredictParams { table_entries: 0, ..Default::default() })
            .validate()
            .is_err());
        assert_eq!(predict(PredictParams::default()).validate(), Ok(()));
    }

    #[test]
    fn gpu_builder_rejects_zero_warps_per_cta() {
        assert_eq!(GpuConfig::default().validate(), Ok(()));
        assert_eq!(GpuConfig::scale_model().validate(), Ok(()));
        let err = GpuConfig { cta_size: 0, ..Default::default() }.validate().unwrap_err();
        assert!(err.to_string().contains("zero warps per CTA"), "got: {err}");
        assert!(GpuConfig { warp_size: 0, ..Default::default() }.validate().is_err());
        assert!(GpuConfig { max_ctas_per_sm: 0, ..Default::default() }.validate().is_err());
        assert!(GpuConfig { warp_buffer_slots: 0, ..Default::default() }.validate().is_err());
        let mut cfg = GpuConfig::default();
        cfg.mem.num_sms = 0;
        assert!(cfg.validate().is_err());
        cfg.mem.num_sms = 1 << 16;
        assert_eq!(cfg.validate(), Ok(()));
        cfg.mem.num_sms += 1;
        assert!(cfg.validate().is_err());
        let mut cfg = GpuConfig::default();
        cfg.mem.l1.size_bytes = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn vtq_builder_rejects_unreachable_thresholds() {
        assert_eq!(VtqParams::default().validate(), Ok(()));
        let small = VtqParams { max_virtual_rays: 64, queue_threshold: 128, ..Default::default() };
        let err = small.validate().unwrap_err();
        assert!(err.to_string().contains("exceeds the virtual-ray capacity"), "got: {err}");
        assert!(VtqParams { queue_threshold: 0, ..Default::default() }.validate().is_err());
        assert!(VtqParams { max_virtual_rays: 0, ..Default::default() }.validate().is_err());
        assert!(VtqParams { count_table_entries: 0, ..Default::default() }.validate().is_err());
        assert!(VtqParams { queue_table_entries: 0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn watchdog_and_audit_settings_validate() {
        let budget = |cycles| GpuConfig { max_cycles: Some(cycles), ..Default::default() };
        assert_eq!(budget(1_000).validate(), Ok(()));
        let err = budget(0).validate().unwrap_err();
        assert!(err.to_string().contains("max_cycles"), "got: {err}");
        let audit = |mode| GpuConfig { audit: mode, ..Default::default() };
        let err = audit(AuditMode::Every(0)).validate().unwrap_err();
        assert!(err.to_string().contains("audit interval"), "got: {err}");
        assert_eq!(audit(AuditMode::Every(1)).validate(), Ok(()));
    }

    #[test]
    fn audit_mode_intervals() {
        assert_eq!(AuditMode::Off.interval(), None);
        assert_eq!(AuditMode::Every(17).interval(), Some(17));
        if cfg!(debug_assertions) || cfg!(feature = "strict-invariants") {
            assert_eq!(AuditMode::Auto.interval(), Some(DEFAULT_AUDIT_INTERVAL));
        } else {
            assert_eq!(AuditMode::Auto.interval(), None);
        }
    }

    #[test]
    fn gpu_builder_cross_validates_vtq_params() {
        // A repack threshold wider than the warp would re-trigger forever.
        let narrow = GpuConfig { warp_size: 16, ..vtq(VtqParams::default()) };
        let err = narrow.validate().unwrap_err();
        assert!(err.to_string().contains("warp width"), "got: {err}");
        assert!(vtq(VtqParams { queue_threshold: 0, ..Default::default() }).validate().is_err());
        assert_eq!(vtq(VtqParams::default()).validate(), Ok(()));
    }
}
