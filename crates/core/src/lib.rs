//! # Virtualized Treelet Queues — reproduction library
//!
//! This crate is the public API of the treelet-rt workspace, a from-scratch
//! Rust reproduction of *"Treelet Accelerated Ray Tracing on GPUs"*
//! (Chou & Aamodt, ASPLOS 2025). It ties the substrates together:
//!
//! * [`rtscene`] — procedural LumiBench-like scenes, materials, cameras,
//! * [`rtbvh`] — 4-wide SAH BVH with treelet partitioning,
//! * [`gpumem`] — cache/DRAM hierarchy model,
//! * [`gpusim`] — the cycle-level GPU + RT-unit simulator with ray
//!   virtualization, dynamic treelet queues and warp repacking,
//!
//! and adds what the paper's evaluation needs on top:
//!
//! * [`workload`] — the path-tracing workload driver (1 spp, 3 bounces)
//!   that produces both the [`gpusim::Workload`] and a rendered image,
//! * [`analytical`] — the §2.4 analytical model behind Figure 5,
//! * [`area`] — the §6.5 storage-overhead arithmetic,
//! * [`general`] — the §8 general tree-traversal (RTNN/RT-DBSCAN style)
//!   query workloads,
//! * [`reorder`] — the §7.2.1 ray-reordering comparison (first-hit Morton
//!   sorting à la Moon et al.),
//! * [`experiment`] — the labelled preset list and the one table that
//!   declares every scene × policy figure (presets, columns, summary rules,
//!   golden tolerances), the driver that runs any set of them as one
//!   deduplicated sweep, and the runners of the tables and figures that
//!   are not of that shape; the `vtq-bench` CLI prints what they return,
//! * [`conformance`] — the differential conformance harness: a timing-free
//!   functional oracle, cross-policy hit equivalence, and golden-figure
//!   regression against checked-in snapshots,
//! * [`sweep`] — the parallel sweep engine: declarative run matrices on a
//!   work-stealing pool with a staged prepared-scene cache and
//!   deterministic, matrix-ordered results,
//! * [`prof`] — host-side performance observability: a hierarchical
//!   span profiler and counter registry (zero-cost when disabled) that
//!   the sweep engine, simulator and BVH builder report into (`--prof`),
//! * [`provenance`] — the shared artifact-provenance header (crate
//!   version, config fingerprint, seed) stamped on every exported
//!   artifact,
//! * [`durable`] — crash tolerance for long sweeps: cooperative
//!   cancellation, an append-only cell journal that lets a killed sweep
//!   resume without re-running completed cells, and a delta-debugging
//!   shrinker that reduces a failing cell to a replayable minimal
//!   reproducer,
//! * [`jsonl`] — the workspace's one flat-JSONL codec (`gpusim::jsonl`
//!   re-exported; this is the canonical import path): line writer and
//!   reader, the CRC32 artifact-integrity frame every durable line
//!   carries, and the FNV-1a fingerprint hash,
//! * [`diskfault`] — the durable-write discipline (unique temp files,
//!   fsync, atomic rename) and a seeded disk-fault injection shim
//!   (torn write, bit flip, ENOSPC, failed rename, short read) that
//!   `vtq-bench chaos` drives end to end.
//!
//! # Quick start
//!
//! ```
//! use vtq::prelude::*;
//!
//! // A reduced-detail scene so this doc test runs fast; experiments use
//! // detail_divisor = 1 and 256×256.
//! let cfg = ExperimentConfig { detail_divisor: 16, resolution: 32, ..Default::default() };
//! let prepared = Prepared::build(SceneId::Bunny, &cfg);
//! let report = prepared.run_policy(TraversalPolicy::Baseline);
//! assert!(report.stats.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytical;
pub mod area;
pub mod conformance;
pub mod diskfault;
pub mod durable;
pub mod experiment;
pub mod faults;
pub mod general;
pub mod provenance;
pub mod reorder;
pub mod sweep;
pub mod workload;

pub use experiment::{ExperimentConfig, Prepared};
pub use gpusim::jsonl;
pub use sweep::{PreparedCache, RunMatrix, SweepEngine};

/// Host-side performance observability (re-export of the workspace
/// `prof` crate): `vtq::prof::span` scoped timers, `vtq::prof::add`
/// counters, `vtq::prof::snapshot` reports. See the `prof` crate docs
/// for the overhead contract.
pub use ::prof;

/// One-stop imports for examples and benches.
pub mod prelude {
    pub use crate::analytical::{analytical_speedups, RayTrace};
    pub use crate::area::AreaModel;
    pub use crate::conformance::{
        check_golden, compare_hits, conformance_presets, current_goldens, oracle_run,
        run_differential, write_golden, CellVerdict, ConformanceCell, ConformancePreset,
        ConformanceReport, Divergence, Equivalence, GoldenEntry, GoldenFigure, GoldenOutcome,
        OracleAnswer, OracleRun,
    };
    pub use crate::diskfault::{
        sweep_orphan_tmps, sync_dir, unique_tmp_path, write_file_durable, DiskFault, FaultPlan,
        FiredFault,
    };
    pub use crate::durable::{
        cancel_requested, request_cancel, reset_cancel, shrink_failure, shrink_workload,
        CancelToken, CellDisposition, Repro, ShrinkOutcome, ShrinkReport, SweepJournal,
        JOURNAL_FILE, REPRO_VERSION,
    };
    pub use crate::experiment::{aggregate_stats, export_run, ExperimentConfig, Prepared};
    pub use crate::faults::{
        cell_budget, cell_inputs, generate_cells, run_campaign, CampaignConfig, CampaignReport,
        CellOutcome, CellStatus, FaultCell, FaultKind,
    };
    pub use crate::provenance::{provenance_line, PROVENANCE_RECORD};
    pub use crate::sweep::{
        cell_key_fingerprint, config_fingerprint, default_jobs, Cell, CellError, CellErrorKind,
        CellResult, PreparedCache, Retried, RunMatrix, StageCounts, SweepEngine,
    };
    pub use crate::workload::{Image, PathTracer};
    pub use ::prof;
    pub use gpumem::{AccessKind, MemFaults};
    pub use gpusim::{
        AuditMode, ConfigError, CountingSink, ForensicsSnapshot, GpuConfig, InvariantViolation,
        PredictParams, RingSink, SimError, SimReport, SimStats, Simulator, SmSnapshot,
        StallBreakdown, StallKind, TraceEvent, TraceSink, TraversalMode, TraversalPolicy,
        VtqParams, Workload, DEFAULT_AUDIT_INTERVAL,
    };
    pub use rtbvh::{Bvh, BvhConfig, NodeFormat, WideTree};
    pub use rtscene::lumibench::{self, SceneId};
    pub use rtscene::Scene;
}
