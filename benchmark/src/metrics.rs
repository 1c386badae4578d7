//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics. `../BENCHMARK.json` is [`manifest_json`] verbatim
//! (a unit test keeps them equal), so a name exists in exactly one place.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One workload and the reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: which layers it exercises and which it bypasses.
    pub why: &'static str,
}

/// One printed metric.
pub struct MetricDef {
    /// Printed name; per-layer names are prefixed with their module.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, bound: 0.0 }
}

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 15;

/// The five workloads. Every one is a closed loop with a single caller.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "sim-baseline",
        why: "Full-config SPNZA/LANDS/ROBOT under Baseline: the gpusim cycle loop and gpumem do \
              the work; queues, hw_table, CTA virtualization, sweep, durable and serve do none",
    },
    WorkloadDef {
        name: "sim-vtq",
        why: "Same inputs under Vtq: adds treelet queues, hw_table, suspend/resume and preload; a \
              queue change moves this alone, a memory-system change moves both sim workloads",
    },
    WorkloadDef {
        name: "prepare-all",
        why: "Scene, BVH build and path trace for all 14 scenes; the simulator never runs, so \
              rtscene and rtbvh build/traversal dominate and gpusim changes must not move it",
    },
    WorkloadDef {
        name: "sweep-quick",
        why: "14 scenes x 6 presets of ~10-30 ms cells through SweepEngine with journal and \
              export: per-cell overhead, PreparedCache and pool scaling show; cycle loop is minor",
    },
    WorkloadDef {
        name: "serve-roundtrip",
        why: "Cache-warm resubmits to an in-process daemon run no simulation: only proto, \
              ResultCache, jobs and the socket; the cold fill is this workload's set-up",
    },
];

/// End-to-end metrics: printed by every workload with `--trace 0`, never
/// zero, each with the bound a later change must stay within.
pub const END_TO_END: &[MetricDef] = &[
    // Wall time of one undisturbed pass of the workload's closed loop
    // (harness::pass_wall_s): three simulated cells, fourteen prepares, one
    // 84-cell sweep at jobs J, or one warm submit -> last result fetched.
    e2e("pass_wall_s", "s", 0.25),
    // Median time to build the workload's inputs (for serve-roundtrip:
    // spawn the daemon and fill its cache cold).
    e2e("setup_s", "s", 0.25),
];

/// Per-layer metrics: printed by every workload with `--trace 1`; a layer
/// the workload does not exercise reads 0. README.md says which end-to-end
/// number each should move, and on which workload.
pub const PER_LAYER: &[MetricDef] = &[
    // Workload throughputs in their natural units (from untraced passes).
    higher("sim_mcycles_per_s", "Mcycles/s"),
    higher("sim_krays_per_s", "krays/s"),
    higher("prepare_ktris_per_s", "ktris/s"),
    higher("cells_per_s", "1/s"),
    higher("cells_per_s_jobsN", "1/s"),
    lower("submit_to_done_cold_s", "s"),
    lower("submit_to_done_warm_s", "s"),
    lower("submit_to_done_warm_p90_s", "s"),
    higher("submit_to_done_warm_p90_pct", "%"),
    higher("submit_to_done_warm_samples", "count"),
    lower("fail_ratio", "ratio"),
    lower("pass_wall_median_s", "s"),
    higher("passes", "count"),
    // rtscene
    lower("rtscene.build_s", "s"),
    higher("rtscene.tris", "count"),
    // rtbvh build
    lower("rtbvh.build_wide_s", "s"),
    lower("rtbvh.build_quantized_s", "s"),
    lower("rtbvh.binary_sah_s", "s"),
    lower("rtbvh.lbvh_s", "s"),
    lower("rtbvh.treelets_s", "s"),
    lower("rtbvh.quantize_s", "s"),
    lower("rtbvh.collapse_residual_s", "s"),
    lower("rtbvh.nodes", "count"),
    lower("rtbvh.bytes", "bytes"),
    lower("rtbvh.treelets", "count"),
    // rtbvh traversal
    higher("rtbvh.intersect_krays_per_s", "krays/s"),
    higher("rtbvh.occluded_krays_per_s", "krays/s"),
    higher("rtbvh.aabb4_mtests_per_s", "Mtests/s"),
    higher("rtbvh.qnode_decode_mnodes_per_s", "Mnodes/s"),
    // vtq workload / oracle
    lower("vtq.pathtrace_s", "s"),
    higher("vtq.pathtrace_krays_per_s", "krays/s"),
    lower("vtq.prepared_build_s", "s"),
    lower("vtq.oracle_s", "s"),
    higher("vtq.oracle_krays_per_s", "krays/s"),
    // gpusim host time
    lower("gpusim.run_s", "s"),
    lower("gpusim.setup_s", "s"),
    lower("gpusim.cycles_s", "s"),
    lower("gpusim.report_s", "s"),
    lower("gpusim.host_ns_per_cycle", "ns"),
    lower("gpusim.host_ns_per_ray", "ns"),
    lower("gpusim.hits_capture_overhead_ratio", "ratio"),
    lower("gpusim.ring_trace_overhead_ratio", "ratio"),
    lower("gpusim.checkpoint_capture_ms", "ms"),
    lower("gpusim.checkpoint_bytes", "bytes"),
    lower("gpusim.checkpoint_jsonl_roundtrip_ms", "ms"),
    lower("gpusim.metrics_json_us", "us"),
    lower("gpusim.queues_push_ns", "ns"),
    lower("gpusim.queues_pop_ns", "ns"),
    lower("gpusim.hw_table_insert_ns", "ns"),
    lower("gpusim.hw_table_lookup_ns", "ns"),
    lower("gpusim.predict_lookup_ns", "ns"),
    // Simulated statistics: must repeat exactly on every pass, run and
    // host-only optimisation; they explain host time per simulated event.
    lower("gpusim.sim_cycles", "count"),
    higher("gpusim.rays_completed", "count"),
    lower("gpusim.box_tests", "count"),
    lower("gpusim.tri_tests", "count"),
    higher("gpusim.simt_efficiency", "ratio"),
    lower("gpusim.stall_waiting_memory_share", "ratio"),
    higher("gpusim.treelet_dispatches", "count"),
    lower("gpusim.cta_suspends", "count"),
    lower("gpusim.queue_table_overflows", "count"),
    higher("gpusim.predict_hit_rate", "ratio"),
    higher("gpumem.l1_hit_rate", "ratio"),
    higher("gpumem.l2_hit_rate", "ratio"),
    lower("gpumem.dram_accesses", "count"),
    higher("gpusim.vtq_speedup_geomean", "ratio"),
    // gpumem host time
    lower("gpumem.cache_hit_ns", "ns"),
    lower("gpumem.cache_miss_ns", "ns"),
    lower("gpumem.system_access_ns", "ns"),
    // vtq::sweep
    lower("vtq.sweep.cell_p50_ms", "ms"),
    lower("vtq.sweep.cell_p90_ms", "ms"),
    lower("vtq.sweep.prepare_wait_s", "s"),
    lower("vtq.sweep.overhead_s", "s"),
    higher("vtq.sweep.scaling_efficiency", "ratio"),
    // vtq::durable / vtq::jsonl
    lower("vtq.durable.journal_record_us", "us"),
    lower("vtq.durable.export_run_ms", "ms"),
    lower("vtq.durable.write_file_durable_ms", "ms"),
    lower("vtq.durable.on_off_delta_s", "s"),
    higher("vtq.jsonl.frame_line_mb_per_s", "MB/s"),
    higher("vtq.jsonl.check_line_mb_per_s", "MB/s"),
    // vtq-serve
    lower("serve.spawn_ms", "ms"),
    lower("serve.submit_ack_ms", "ms"),
    lower("serve.first_event_ms", "ms"),
    lower("serve.status_after_last_event_ms", "ms"),
    lower("serve.fetch_results_ms", "ms"),
    lower("serve.cache_store_ms", "ms"),
    lower("serve.cache_load_ms", "ms"),
    lower("serve.proto_encode_us", "us"),
    lower("serve.proto_parse_us", "us"),
    higher("serve.warm_cells_per_s", "1/s"),
    higher("serve.cached_cells", "count"),
    lower("serve.rejects", "count"),
    lower("serve.events_dropped", "count"),
    // The instruments themselves, and the host.
    lower("prof.enabled_overhead_ratio", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.self_time_coverage", "ratio"),
    higher("trace.spans", "count"),
    lower("host.calib_spin_ms", "ms"),
    lower("host.calib_drift_ratio", "ratio"),
    lower("host.noisy", "count"),
    higher("host.nproc", "count"),
    higher("host.jobs", "count"),
    lower("host.peak_rss_mb", "MB"),
    lower("host.cpu_s_per_pass", "s"),
    higher("host.cpu_utilization", "ratio"),
    lower("host.setup_reps", "count"),
];

/// Values of the metrics one run measured, by name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither metric table: a value nobody
    /// declared would silently never be printed.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric `{name}` is not declared in metrics.rs"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, or 0 for a layer this run did not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0)
    }
}

/// The last line of standard output: the result object the driver reads.
pub fn result_json(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, def) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            values.get(def.name),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

/// The contents of `../BENCHMARK.json`.
pub fn manifest_json() -> String {
    let better = |m: &MetricDef| if m.higher_is_better { "higher" } else { "lower" };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let join = |lines: Vec<String>| lines.join(",\n");
    let _ = writeln!(
        out,
        "  \"workloads\": [\n{}\n  ],",
        join(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        join(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    better(m),
                    m.bound
                ))
                .collect()
        )
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": [\n{}\n  ]",
        join(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    better(m)
                ))
                .collect()
        )
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(is_name(w.name), "workload name `{}`", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"']), "why of `{}`", w.name);
            assert!(seen.insert(w.name), "`{}` is used twice", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(m.name), "metric name `{}`", m.name);
            assert!(is_unit(m.unit), "unit `{}` of `{}`", m.unit, m.name);
            assert!(seen.insert(m.name), "`{}` is used twice", m.name);
        }
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest_json(), "regenerate with `-- --manifest > BENCHMARK.json`");
    }

    #[test]
    fn result_json_prints_every_declared_metric_and_zero_for_unset() {
        let mut values = Values::default();
        values.set("pass_wall_s", 1.25);
        let line = result_json(END_TO_END, &values, 7, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0,"));
        assert!(line.contains("\"pass_wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(result_json(END_TO_END, &values, 7, 1).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_names_are_rejected() {
        Values::default().set("made.up", 1.0);
    }
}
