//! Pinned host-performance suite with regression gating.
//!
//! ```text
//! vtq-bench perf --quick                 # fast suite, writes BENCH_<n>.json
//! vtq-bench perf --quick --compare       # also diff against the previous BENCH_*.json
//! vtq-bench perf --compare-to BENCH_3.json --tolerance 0.2
//! ```
//!
//! The suite has two halves:
//!
//! * **micro** — isolated hot substrates: 4-wide AABB slab tests,
//!   treelet-queue push/pop, `HwQueueTable` insert/lookup, ray-path
//!   prediction-table lookups (present and absent keys), quantized-node
//!   decode, the L1 cache access path, and the functional oracle's BVH
//!   traversal,
//! * **macro** — whole simulation cells (scene × traversal policy) run
//!   through the same `Prepared` path the figures use.
//!
//! Every benchmark runs `--warmup` discarded trials then `--trials`
//! measured trials and reports the **median ± MAD** (median absolute
//! deviation) of the trial wall times — robust against scheduler noise,
//! unlike mean ± stddev. Results are appended to an auto-numbered
//! `BENCH_<n>.json` in the output directory (default `target/perf`),
//! stamped with the shared provenance header and the macro suite's
//! config fingerprint, so the repo accumulates a perf trajectory that
//! later optimization PRs can defend.
//!
//! `--compare` diffs the fresh file against the previous baseline
//! (highest-numbered earlier `BENCH_*.json`, or `--compare-to FILE`).
//! An entry regresses when it is more than `--tolerance` (default 30%)
//! slower *and* the slowdown clears the combined noise band
//! (4 × the MADs). Any regression exits [`crate::EXIT_VIOLATION`];
//! CI runs this as a non-gating job so the signal is visible without
//! flaking merges on shared-runner noise.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gpumem::{Assoc, Cache, CacheConfig};
use gpusim::hw_table::HwQueueTable;
use gpusim::queues::TreeletQueues;
use gpusim::{predict_key, PredictTable, RayId, TRACE_T_MIN};
use rtbvh::{aabb4_intersect, quantize, Bvh4Node, NodeId, TreeletId};
use rtmath::Aabb;
use vtq::jsonl::{check_line, frame_line, parse_line, Record};
use vtq::prelude::*;

use crate::{header, row, HarnessOpts};

/// One measured benchmark in a `BENCH_<n>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// `"micro"` or `"macro"`.
    pub kind: String,
    /// Stable benchmark name (`aabb4/hit`, `macro/ref/vtq`, ...).
    pub name: String,
    /// Measured trials that produced the statistics.
    pub trials: u64,
    /// Inner iterations per trial (1 for macro cells).
    pub iters: u64,
    /// Median trial wall time in nanoseconds.
    pub median_ns: u64,
    /// Median absolute deviation of the trial times in nanoseconds.
    pub mad_ns: u64,
}

/// One regression found by [`compare_entries`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub name: String,
    /// Baseline median (ns).
    pub old_ns: u64,
    /// Fresh median (ns).
    pub new_ns: u64,
}

impl Regression {
    fn ratio(&self) -> f64 {
        self.new_ns as f64 / self.old_ns.max(1) as f64
    }
}

/// Diffs `new` against `old` by benchmark name. An entry regresses when
/// its fresh median is more than `tolerance` slower than the baseline
/// median *and* the slowdown exceeds the combined noise band (4 × the
/// two MADs), so a noisy-but-flat benchmark cannot trip the gate.
/// Entries present on only one side are skipped (suite changes are not
/// regressions).
pub fn compare_entries(old: &[BenchEntry], new: &[BenchEntry], tolerance: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for n in new {
        let Some(o) = old.iter().find(|o| o.name == n.name && o.kind == n.kind) else { continue };
        if o.median_ns == 0 && n.median_ns == 0 {
            continue;
        }
        let band = o.median_ns as f64 * tolerance;
        let noise = 4.0 * (o.mad_ns + n.mad_ns) as f64;
        let slowdown = n.median_ns as f64 - o.median_ns as f64;
        if slowdown > band && slowdown > noise {
            regressions.push(Regression {
                name: n.name.clone(),
                old_ns: o.median_ns,
                new_ns: n.median_ns,
            });
        }
    }
    regressions
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

fn median_mad(samples: &mut [u64]) -> (u64, u64) {
    assert!(!samples.is_empty(), "median of nothing");
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let mut devs: Vec<u64> = samples.iter().map(|&s| s.abs_diff(median)).collect();
    devs.sort_unstable();
    (median, devs[devs.len() / 2])
}

/// Runs `f` for `warmup` discarded and `trials` measured trials.
fn measure<F: FnMut()>(
    name: &str,
    kind: &str,
    trials: u64,
    warmup: u64,
    iters: u64,
    mut f: F,
) -> BenchEntry {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<u64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    let (median_ns, mad_ns) = median_mad(&mut samples);
    BenchEntry { kind: kind.to_string(), name: name.to_string(), trials, iters, median_ns, mad_ns }
}

// ---------------------------------------------------------------------------
// The pinned suites
// ---------------------------------------------------------------------------

/// The pinned configuration the suite simulates under. Derived from the
/// quick preset so cells finish in seconds, with fixed perf-suite
/// resolutions so `--res`/ambient flags cannot silently change what is
/// being compared across runs.
fn perf_config(quick: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick();
    if quick {
        cfg.detail_divisor = 16;
        cfg.resolution = 24;
    } else {
        cfg.resolution = 48;
    }
    cfg
}

fn micro_suite(prepared: &Prepared, trials: u64, warmup: u64) -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    let mut bench = |name: &str, iters: u64, f: &mut dyn FnMut()| {
        entries.push(measure(name, "micro", trials, warmup, iters, f));
    };

    // -- The 4-lane SoA slab kernel (what every Bvh4Node visit performs) --
    let lanes: Vec<(Aabb, NodeId)> = (0..4)
        .map(|i| {
            let base = i as f32 * 2.0;
            let b = Aabb::from_points(&[
                rtmath::Vec3::new(base, 0.0, 0.0),
                rtmath::Vec3::new(base + 1.0, 1.0, 1.0),
            ]);
            (b, NodeId(i as u32 + 1))
        })
        .collect();
    let node = Bvh4Node::inner(&lanes);
    let hit_ray =
        rtmath::Ray::new(rtmath::Vec3::new(-1.0, 0.5, 0.5), rtmath::Vec3::new(1.0, 0.001, 0.001));
    let miss_ray =
        rtmath::Ray::new(rtmath::Vec3::new(-1.0, 5.0, 5.0), rtmath::Vec3::new(1.0, 0.001, 0.001));
    const AABB_ITERS: u64 = 4096;
    bench("aabb4/hit", AABB_ITERS, &mut || {
        for _ in 0..AABB_ITERS {
            std::hint::black_box(aabb4_intersect(
                std::hint::black_box(&node),
                std::hint::black_box(&hit_ray),
                0.0,
                f32::MAX,
            ));
        }
    });
    bench("aabb4/miss", AABB_ITERS, &mut || {
        for _ in 0..AABB_ITERS {
            std::hint::black_box(aabb4_intersect(
                std::hint::black_box(&node),
                std::hint::black_box(&miss_ray),
                0.0,
                f32::MAX,
            ));
        }
    });

    // -- Treelet queues: the §4.2 map treelet -> FIFO of rays --
    const QUEUE_RAYS: u64 = 4096;
    bench("queues/push", QUEUE_RAYS, &mut || {
        let mut q = TreeletQueues::new();
        for i in 0..QUEUE_RAYS as u32 {
            q.push(TreeletId(i % 64), RayId(i));
        }
        std::hint::black_box(q.total_rays());
    });
    let mut prefilled = TreeletQueues::new();
    for i in 0..QUEUE_RAYS as u32 {
        prefilled.push(TreeletId(i % 64), RayId(i));
    }
    bench("queues/pop", QUEUE_RAYS, &mut || {
        let mut q = prefilled.clone();
        while let Some((treelet, _len)) = q.largest() {
            std::hint::black_box(q.pop_from(treelet, 32));
        }
    });

    // -- Hardware queue table: Table 1 geometry (128 entries x 32) --
    const TABLE_OPS: u64 = 4096;
    bench("hw_table/insert", TABLE_OPS, &mut || {
        let mut table = HwQueueTable::new(128, 32);
        for i in 0..TABLE_OPS {
            std::hint::black_box(table.push((i % 256) * 64));
        }
    });
    let mut lookup_table = HwQueueTable::new(128, 32);
    for i in 0..128u64 {
        lookup_table.push(i * 64);
    }
    bench("hw_table/lookup", TABLE_OPS, &mut || {
        for i in 0..TABLE_OPS {
            let addr = (i % 128) * 64;
            std::hint::black_box(lookup_table.push(addr));
            std::hint::black_box(lookup_table.pop(addr));
        }
    });

    // -- Ray-path prediction table: cuckoo lookup on present/absent keys --
    let scene_bounds = prepared.bvh.root_bounds();
    let predict_keys: Vec<u64> = (0..256u32)
        .map(|i| {
            let ray = prepared.scene.camera().primary_ray(i % 16, i / 16, 16, 16, None);
            predict_key(&scene_bounds, &ray, 6, 5)
        })
        .collect();
    let mut predict_table = PredictTable::new(256);
    for &key in &predict_keys {
        predict_table.train(key, NodeId(1));
    }
    const PREDICT_OPS: u64 = 4096;
    bench("predict/hit", PREDICT_OPS, &mut || {
        for i in 0..PREDICT_OPS {
            let key = predict_keys[i as usize % predict_keys.len()];
            std::hint::black_box(predict_table.lookup(std::hint::black_box(key)));
        }
    });
    bench("predict/miss", PREDICT_OPS, &mut || {
        for i in 0..PREDICT_OPS {
            // Scrambled keys the table was never trained on.
            let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 << 63;
            std::hint::black_box(predict_table.lookup(std::hint::black_box(key)));
        }
    });

    // -- Quantized-node decode: u8 child bounds -> conservative Bvh4Node --
    let qnodes = quantize(prepared.bvh.nodes(), prepared.bvh.root());
    const DECODE_ITERS: u64 = 4096;
    bench("qnode/decode", DECODE_ITERS, &mut || {
        for i in 0..DECODE_ITERS {
            let qnode = &qnodes[i as usize % qnodes.len()];
            std::hint::black_box(std::hint::black_box(qnode).decode());
        }
    });

    // -- L1 cache access path (gpumem's set-associative LRU) --
    let l1 =
        CacheConfig { size_bytes: 32 << 10, assoc: Assoc::Ways(4), line_bytes: 64, latency: 28 };
    const CACHE_OPS: u64 = 8192;
    let mut hot = Cache::new(&l1);
    for i in 0..64u64 {
        hot.fill(i * 64, i);
    }
    bench("cache/hit", CACHE_OPS, &mut || {
        for i in 0..CACHE_OPS {
            std::hint::black_box(hot.access((i % 64) * 64, i));
        }
    });
    let mut cold = Cache::new(&l1);
    bench("cache/miss", CACHE_OPS, &mut || {
        for i in 0..CACHE_OPS {
            // Stride past the 32 KiB capacity so every access misses.
            std::hint::black_box(cold.access(i * 4096, i));
        }
    });

    // -- Functional-oracle traversal over the prepared scene --
    let rays: Vec<rtmath::Ray> = (0..256u32)
        .map(|i| prepared.scene.camera().primary_ray(i % 16, i / 16, 16, 16, None))
        .collect();
    let triangles = prepared.scene.triangles();
    bench("oracle/closest", rays.len() as u64, &mut || {
        for ray in &rays {
            std::hint::black_box(prepared.bvh.intersect(triangles, ray, TRACE_T_MIN, f32::MAX));
        }
    });
    bench("oracle/occluded", rays.len() as u64, &mut || {
        for ray in &rays {
            std::hint::black_box(prepared.bvh.occluded(triangles, ray, TRACE_T_MIN, f32::MAX));
        }
    });

    entries
}

fn macro_suite(
    engine: &SweepEngine,
    cfg: &ExperimentConfig,
    trials: u64,
    warmup: u64,
) -> Vec<BenchEntry> {
    let policies: [(&str, TraversalPolicy); 2] = [
        ("baseline", TraversalPolicy::Baseline),
        ("vtq", TraversalPolicy::Vtq(VtqParams::default())),
    ];
    let mut entries = Vec::new();
    for scene in [SceneId::Ref, SceneId::Bunny] {
        let prepared = engine.cache().get(scene, cfg);
        for (label, policy) in policies {
            let name = format!("{}/{label}", scene.name().to_ascii_lowercase());
            entries.push(measure(&name, "macro", trials, warmup, 1, || {
                std::hint::black_box(prepared.run_policy(policy));
            }));
        }
    }
    entries
}

// ---------------------------------------------------------------------------
// BENCH_<n>.json persistence (flat JSONL, exporter conventions)
// ---------------------------------------------------------------------------

/// Renders a whole BENCH file: provenance header, suite meta, entries.
/// Every line is checksum-framed so a damaged baseline is detected at
/// compare time instead of gating a perf run on corrupt numbers.
pub fn bench_file(entries: &[BenchEntry], fingerprint: u64, quick: bool) -> String {
    let mut out = frame_line(&provenance_line(Some(fingerprint), None));
    out.push('\n');
    out.push_str(&Record::new("bench_meta").num("version", 1).bool("quick", quick).framed());
    out.push('\n');
    for e in entries {
        let entry = Record::new("bench")
            .str("kind", &e.kind)
            .str("name", &e.name)
            .num("trials", e.trials)
            .num("iters", e.iters)
            .num("median_ns", e.median_ns)
            .num("mad_ns", e.mad_ns);
        out.push_str(&entry.framed());
        out.push('\n');
    }
    out
}

/// Parses a BENCH file's `bench` records (provenance/meta lines and
/// unknown records are skipped so the format can grow). Checksum frames
/// are verified first: a corrupt line is an error naming the damage,
/// never silently admitted into a comparison; legacy unframed files
/// remain accepted.
pub fn parse_bench_file(text: &str) -> Result<Vec<BenchEntry>, String> {
    let mut entries = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", no + 1);
        let line = check_line(line).map_err(|e| at(e.to_string()))?;
        let f = parse_line(&line).map_err(at)?;
        if f.record() != Some("bench") {
            continue;
        }
        entries.push(BenchEntry {
            kind: f.str("kind").map_or_else(|_| "micro".to_string(), |k| k.into_owned()),
            name: f.str("name").map_err(at)?.into_owned(),
            trials: f.u64("trials").map_err(at)?,
            iters: f.u64("iters").map_err(at)?,
            median_ns: f.u64("median_ns").map_err(at)?,
            mad_ns: f.u64("mad_ns").map_err(at)?,
        });
    }
    if entries.is_empty() {
        return Err("no bench records".to_string());
    }
    Ok(entries)
}

/// Numbers already used by `BENCH_<n>.json` files in `dir`.
fn bench_numbers(dir: &Path) -> Vec<u32> {
    let Ok(read) = fs::read_dir(dir) else { return Vec::new() };
    let mut numbers: Vec<u32> = read
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()
        })
        .collect();
    numbers.sort_unstable();
    numbers
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

pub fn run(opts: &HarnessOpts, engine: &SweepEngine) -> u8 {
    if !opts.args.is_empty() {
        eprintln!("error: perf takes no positional arguments (got {:?})", opts.args);
        eprintln!(
            "usage: vtq-bench perf [--quick] [--trials N] [--warmup N] [--compare] \
                   [--compare-to FILE] [--tolerance X] [--out DIR]"
        );
        return crate::EXIT_USAGE;
    }
    let quick = opts.config == ExperimentConfig::quick();
    let trials = opts.trials.unwrap_or(if quick { 5 } else { 9 }) as u64;
    let warmup = opts.warmup.unwrap_or(if quick { 1 } else { 3 }) as u64;
    let cfg = perf_config(quick);
    let fingerprint = config_fingerprint(&cfg);
    let dir = opts.out.clone().unwrap_or_else(|| PathBuf::from("target/perf"));
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return crate::EXIT_VIOLATION;
    }

    if !vtq::sweep::quiet() {
        eprintln!(
            "[perf] {} suite: {trials} trials, {warmup} warmup (config {fingerprint:#018x})",
            if quick { "quick" } else { "full" }
        );
    }

    let prepared = engine.cache().get(SceneId::Ref, &cfg);
    let mut entries = micro_suite(&prepared, trials, warmup);
    entries.extend(macro_suite(engine, &cfg, trials, warmup));

    header(&["kind", "median", "mad", "trials"]);
    for e in &entries {
        row(
            &e.name,
            &[e.kind.clone(), fmt_ns(e.median_ns), fmt_ns(e.mad_ns), e.trials.to_string()],
        );
    }

    // Persist as the next BENCH_<n>.json.
    let numbers = bench_numbers(&dir);
    let n = numbers.last().map_or(1, |last| last + 1);
    let path = dir.join(format!("BENCH_{n}.json"));
    if let Err(e) = vtq::diskfault::write_file_durable(
        &path,
        bench_file(&entries, fingerprint, quick).as_bytes(),
    ) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return crate::EXIT_VIOLATION;
    }
    println!(
        "\nwrote {} ({} micro + {} macro entries)",
        path.display(),
        entries.iter().filter(|e| e.kind == "micro").count(),
        entries.iter().filter(|e| e.kind == "macro").count(),
    );

    #[cfg(feature = "count-allocs")]
    eprintln!(
        "[perf] process heap churn so far: {} allocations, {} bytes",
        prof::CountingAlloc::allocations(),
        prof::CountingAlloc::allocated_bytes()
    );

    if !opts.compare {
        return crate::EXIT_OK;
    }

    // Resolve the baseline: explicit file, or the previous BENCH_<n>.
    let baseline = match &opts.compare_to {
        Some(file) => file.clone(),
        None => {
            let Some(&prev) = numbers.last() else {
                eprintln!(
                    "[perf] no previous BENCH_*.json in {}; nothing to compare",
                    dir.display()
                );
                return crate::EXIT_OK;
            };
            dir.join(format!("BENCH_{prev}.json"))
        }
    };
    let old = match fs::read_to_string(&baseline)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_bench_file(&text))
    {
        Ok(old) => old,
        Err(e) => {
            eprintln!("error: cannot read baseline {}: {e}", baseline.display());
            return crate::EXIT_USAGE;
        }
    };
    let regressions = compare_entries(&old, &entries, opts.tolerance);
    if regressions.is_empty() {
        println!(
            "compare vs {}: no regression beyond {:.0}% (+noise band)",
            baseline.display(),
            opts.tolerance * 100.0
        );
        return crate::EXIT_OK;
    }
    for r in &regressions {
        eprintln!(
            "[perf] REGRESSION {}: {} -> {} ({:.2}x)",
            r.name,
            fmt_ns(r.old_ns),
            fmt_ns(r.new_ns),
            r.ratio()
        );
    }
    eprintln!(
        "[perf] {} of {} benchmarks regressed vs {}",
        regressions.len(),
        entries.len(),
        baseline.display()
    );
    crate::EXIT_VIOLATION
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, median: u64, mad: u64) -> BenchEntry {
        BenchEntry {
            kind: "micro".to_string(),
            name: name.to_string(),
            trials: 5,
            iters: 100,
            median_ns: median,
            mad_ns: mad,
        }
    }

    #[test]
    fn median_mad_is_robust() {
        let (m, d) = median_mad(&mut [10, 11, 9, 10, 1000]);
        assert_eq!(m, 10);
        assert_eq!(d, 1, "one outlier must not blow up the deviation");
    }

    #[test]
    fn compare_flags_an_injected_slowdown() {
        let old = vec![entry("aabb4/hit", 1_000, 10), entry("cache/hit", 2_000, 10)];
        // 3x slowdown on one benchmark, flat on the other.
        let new = vec![entry("aabb4/hit", 3_000, 10), entry("cache/hit", 2_010, 10)];
        let regressions = compare_entries(&old, &new, 0.3);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "aabb4/hit");
        assert!(regressions[0].ratio() > 2.9);
    }

    #[test]
    fn compare_tolerates_noise_and_band() {
        let old = vec![entry("a", 1_000, 200)];
        // +40% but within 4x the combined MADs: noisy, not regressed.
        assert!(compare_entries(&old, &[entry("a", 1_400, 200)], 0.3).is_empty());
        // +20% with tight MADs: inside the tolerance band, not regressed.
        assert!(compare_entries(&old, &[entry("a", 1_200, 1)], 0.3).is_empty());
        // Unmatched names never regress.
        assert!(compare_entries(&old, &[entry("b", 9_000, 1)], 0.3).is_empty());
    }

    #[test]
    fn bench_file_round_trips() {
        let entries = vec![
            entry("aabb4/hit", 123, 4),
            {
                let mut e = entry("ref/vtq", 9_999_999, 1_000);
                e.kind = "macro".to_string();
                e
            },
            // The writer escapes, so the reader must unescape.
            entry("odd \"name\\\", with: everything", 5, 0),
        ];
        let text = bench_file(&entries, 0xfeed, true);
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("{\"record\":\"provenance\""), "missing header: {first}");
        assert!(first.contains("\"config_fingerprint\":\"0x000000000000feed\""));
        let parsed = parse_bench_file(&text).expect("round trip");
        assert_eq!(parsed, entries);
        // A doctored median must change the parse (the compare test's
        // injection mechanism). Lines are checksum-framed, so doctoring
        // goes through unframe -> edit -> reframe; a raw byte edit is
        // (correctly) rejected as a corrupt frame.
        assert!(
            parse_bench_file(&text.replace("\"median_ns\":123", "\"median_ns\":99123")).is_err(),
            "raw edit of a framed line must fail its checksum"
        );
        let doctored: String = text
            .lines()
            .map(|l| {
                let payload = vtq::jsonl::check_line(l).expect("framed line");
                let payload = payload.replace("\"median_ns\":123", "\"median_ns\":99123");
                format!("{}\n", vtq::jsonl::frame_line(&payload))
            })
            .collect();
        assert_eq!(parse_bench_file(&doctored).unwrap()[0].median_ns, 99_123);
    }

    /// Every committed baseline parses, and rendering what was parsed
    /// reproduces its `bench` lines byte for byte.
    #[test]
    fn committed_bench_files_reparse_and_rerender_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perf");
        let bench_lines = |text: &str| -> Vec<String> {
            text.lines()
                .map(|l| check_line(l).expect("intact frame"))
                .filter(|l| l.contains("\"record\":\"bench\""))
                .collect()
        };
        let numbers = bench_numbers(&dir);
        assert!(!numbers.is_empty(), "no committed BENCH files under {}", dir.display());
        for n in numbers {
            let text = fs::read_to_string(dir.join(format!("BENCH_{n}.json"))).unwrap();
            let entries = parse_bench_file(&text).unwrap_or_else(|e| panic!("BENCH_{n}: {e}"));
            let rendered = bench_file(&entries, 0, true);
            assert_eq!(bench_lines(&rendered), bench_lines(&text), "BENCH_{n} re-renders");
        }
    }

    #[test]
    fn bench_numbers_sorts_and_ignores_strangers() {
        let dir = std::env::temp_dir().join(format!("vtq-perf-num-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_2.json", "BENCH_10.json", "BENCH_x.json", "notes.txt"] {
            fs::write(dir.join(name), "").unwrap();
        }
        assert_eq!(bench_numbers(&dir), vec![2, 10]);
        let _ = fs::remove_dir_all(&dir);
    }
}
