//! Shared plumbing for the `vtq-bench` CLI.
//!
//! Every subcommand accepts the same flags:
//!
//! * `--quick` — reduced configuration (low scene detail, 64×64, 4 SMs):
//!   same result *shape*, minutes become seconds,
//! * `--scenes A,B,C` — restrict to a comma-separated subset of the
//!   LumiBench names (default: all 14),
//! * `--res N` — override the image resolution,
//! * `--jobs N` — worker threads for the parallel sweep engine
//!   (default: one per available hardware thread; `--jobs 1` runs
//!   serially and produces byte-identical output). Also bounds the
//!   threads one scene prepare forks onto (`prof::par`),
//! * `--csv` — emit comma-separated rows instead of aligned tables (for
//!   plotting scripts),
//! * `--out DIR` — persist machine-readable artifacts (per-run stall and
//!   time-series CSVs plus an appended `metrics.jsonl`) to `DIR`. Also
//!   starts a fresh `journal.jsonl` cell journal in `DIR`,
//! * `--resume DIR` — continue an interrupted sweep: cells journaled
//!   `done` in `DIR/journal.jsonl` are skipped (their artifacts are
//!   already on disk), everything else runs. Implies `--out DIR`.
//!
//! Unknown flags are an error: parsing fails with a message and the usage
//! text instead of silently proceeding with a misconfigured run.
//!
//! # Exit codes
//!
//! The process-level contract (see [`EXIT_OK`], [`EXIT_VIOLATION`],
//! [`EXIT_USAGE`], [`EXIT_INTERRUPTED`]):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | the command completed and every check it ran passed |
//! | 1    | a contract violation or I/O failure: a figure cell that |
//! |      | failed (its scene is dropped from the table), fault-campaign |
//! |      | cells off contract, conformance divergence, a reproducer that |
//! |      | no longer reproduces, or an artifact that could not be written |
//! | 2    | usage error: unknown subcommand, flag, scene or argument |
//! | 3    | interrupted (SIGINT) but journaled — re-run with `--resume` |
//!
//! Subcommand `run` functions return the code; `main` is the only place
//! that calls [`std::process::exit`].
//!
//! Rows are printed as aligned text tables, one row per scene, matching
//! the layout of the paper's figures so EXPERIMENTS.md comparisons are
//! mechanical.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use vtq::experiment::FigureTable;
use vtq::prelude::*;

pub mod commands;

pub use vtq::experiment::{geomean, mean, mean_opt};

/// Global output mode toggled by `--csv`.
static CSV: AtomicBool = AtomicBool::new(false);

/// Exit code: the command completed and every check it ran passed.
pub const EXIT_OK: u8 = 0;
/// Exit code: a contract violation or I/O failure — a failed figure
/// cell, fault cells off contract, conformance divergence, a reproducer
/// that no longer reproduces its recorded failure, or an artifact that
/// failed to write.
pub const EXIT_VIOLATION: u8 = 1;
/// Exit code: usage error (unknown subcommand, flag, scene or argument).
pub const EXIT_USAGE: u8 = 2;
/// Exit code: a SIGINT arrived mid-sweep; in-flight cells drained and the
/// journal was flushed, so `--resume DIR` continues where this run
/// stopped. For `serve`, which keeps no journal: the daemon drained, and
/// its result cache holds every cell it finished.
pub const EXIT_INTERRUPTED: u8 = 3;

/// Parsed command-line options shared by all subcommands.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Experiment configuration (full paper config unless `--quick`).
    pub config: ExperimentConfig,
    /// Whether `--quick` was passed. The campaigns size themselves by
    /// this, not by comparing `config`, which other flags edit.
    pub quick: bool,
    /// Scenes to run.
    pub scenes: Vec<SceneId>,
    /// Whether `--scenes` was passed, i.e. `scenes` is the user's choice
    /// and not the 14-scene default (see [`HarnessOpts::scenes_or`]).
    pub scenes_given: bool,
    /// Output directory for machine-readable artifacts (`--out`).
    pub out: Option<PathBuf>,
    /// Sweep-engine worker threads (`--jobs`; default:
    /// [`default_jobs`], i.e. one per available hardware thread).
    pub jobs: usize,
    /// Rewrite the checked-in golden snapshots instead of validating
    /// against them (`--update-golden`; `conformance` subcommand only).
    pub update_golden: bool,
    /// Resume an interrupted sweep from this directory's `journal.jsonl`
    /// (`--resume`; implies `--out` pointing at the same directory).
    pub resume: Option<PathBuf>,
    /// Suppress stderr progress lines (`--quiet`): `[prepare]`,
    /// `[resume]` and friends. Results on stdout are unaffected.
    pub quiet: bool,
    /// Enable the host-side span profiler (`--prof`); the run summary
    /// then includes the span/counter rollup, and with `--out` the
    /// snapshot is exported to `prof.jsonl`.
    pub prof: bool,
    /// Positional (non-flag) arguments, e.g. the reproducer file for
    /// `vtq-bench repro <file>`.
    pub args: Vec<String>,
    /// Daemon address: the bind address for `serve`, the target for
    /// `submit` (`--addr`; default: serve binds an ephemeral local port
    /// and submit discovers it from `DIR/serve.addr`).
    pub addr: Option<String>,
    /// Admission bound on the daemon's job queue (`--max-queue`; serve).
    pub max_queue: Option<usize>,
    /// Max queued+running jobs per tenant (`--tenant-quota`; serve).
    pub tenant_quota: Option<usize>,
    /// Panic strikes before a cell is quarantined (`--poison-threshold`;
    /// serve).
    pub poison_threshold: Option<u32>,
    /// Tenant name for quota accounting (`--tenant`; submit).
    pub tenant: Option<String>,
    /// Comma-separated policy labels (`--policies`; submit; default
    /// `baseline,vtq`).
    pub policies: Option<String>,
    /// Per-job wall-clock deadline in milliseconds (`--deadline-ms`;
    /// submit).
    pub deadline_ms: Option<u64>,
    /// Re-run the submitted matrix locally and fail on any divergence
    /// from the daemon's results (`--verify-local`; submit).
    pub verify_local: bool,
    /// Seed count for the disk-fault campaign (`--seeds`; chaos;
    /// default: 20, or 5 under `--quick`).
    pub seeds: Option<u64>,
}

impl Default for HarnessOpts {
    fn default() -> HarnessOpts {
        HarnessOpts {
            config: ExperimentConfig::default(),
            quick: false,
            scenes: SceneId::ALL.to_vec(),
            scenes_given: false,
            out: None,
            jobs: default_jobs(),
            update_golden: false,
            resume: None,
            quiet: false,
            prof: false,
            args: Vec::new(),
            addr: None,
            max_queue: None,
            tenant_quota: None,
            poison_threshold: None,
            tenant: None,
            policies: None,
            deadline_ms: None,
            verify_local: false,
            seeds: None,
        }
    }
}

/// The flag reference printed on parse errors and by `vtq-bench help`.
pub const USAGE_OPTIONS: &str = "\
options (all subcommands):
  --quick          reduced configuration: low detail, 64x64, 4 SMs
  --scenes A,B,C   run a subset of the LumiBench scene names
  --res N          override the image resolution
  --jobs N         sweep-engine worker threads (default: all hardware
                   threads; results are identical for every N); also
                   bounds the threads of one scene prepare
  --csv            emit CSV rows instead of aligned tables
  --out DIR        persist per-run artifacts (CSVs + metrics.jsonl) and
                   keep a crash-tolerant cell journal in DIR
  --resume DIR     continue an interrupted sweep: skip cells journaled
                   done in DIR/journal.jsonl (implies --out DIR)
  --max-cycles N   watchdog: end runs exceeding N cycles with a typed
                   error + forensics snapshot instead of hanging (N >= 1)
  --strict-invariants
                   run the invariant auditor every 4096 cycles even in
                   release builds
  --quiet          suppress stderr progress lines ([prepare], [resume]);
                   results on stdout are unaffected
  --prof           enable the host-side span profiler; prints the
                   span/counter rollup after the run and, with --out,
                   exports it to prof.jsonl
  --update-golden  (conformance) rewrite golden/*.json snapshots from the
                   current run instead of validating against them
  --addr A:P       (serve) bind address; (submit) daemon address
                   (default: ephemeral port, discovered via DIR/serve.addr)
  --max-queue N    (serve) admission bound on queued jobs, default 16
  --tenant-quota N (serve) max active jobs per tenant, default 4
  --poison-threshold N
                   (serve) panic strikes before a cell is quarantined,
                   default 2
  --tenant NAME    (submit) tenant name for quota accounting
  --policies A,B   (submit) policy labels to sweep, default baseline,vtq
  --deadline-ms N  (submit) per-job wall-clock deadline
  --verify-local   (submit) re-run the matrix locally and fail on any
                   divergence from the daemon's results
  --seeds N        (chaos) campaign seeds, default 20 (5 with --quick)";

impl HarnessOpts {
    /// Parses a flag list (everything after the subcommand name).
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown flag, unknown scene
    /// name or malformed value, or of what [`ExperimentConfig::validate`]
    /// rejects about the configuration the flags add up to; callers print
    /// it with [`USAGE_OPTIONS`] and exit nonzero.
    pub fn parse(args: &[String]) -> Result<HarnessOpts, String> {
        let mut opts = HarnessOpts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    opts.config = ExperimentConfig::quick();
                    opts.quick = true;
                }
                "--scenes" => {
                    i += 1;
                    let list = args.get(i).ok_or("--scenes needs a value")?;
                    opts.scenes = list
                        .split(',')
                        .map(|name| {
                            SceneId::ALL_WITH_EXTRAS
                                .iter()
                                .copied()
                                .find(|s| s.name().eq_ignore_ascii_case(name))
                                .ok_or_else(|| format!("unknown scene: {name}"))
                        })
                        .collect::<Result<_, _>>()?;
                    opts.scenes_given = true;
                }
                "--csv" => {
                    CSV.store(true, Ordering::Relaxed);
                }
                "--res" => {
                    i += 1;
                    opts.config.resolution =
                        args.get(i).and_then(|v| v.parse().ok()).ok_or("--res needs an integer")?;
                }
                "--jobs" => {
                    i += 1;
                    let jobs: usize = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--jobs needs an integer")?;
                    if jobs == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                    opts.jobs = jobs;
                    // A prepare forks on its own; an explicit `--jobs`
                    // bounds that too, so `--jobs 1` means one thread.
                    prof::par::set_limit(jobs);
                }
                "--out" => {
                    i += 1;
                    opts.out = Some(PathBuf::from(args.get(i).ok_or("--out needs a directory")?));
                }
                "--max-cycles" => {
                    i += 1;
                    opts.config.gpu.max_cycles = Some(
                        args.get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--max-cycles needs an integer")?,
                    );
                }
                "--resume" => {
                    i += 1;
                    opts.resume =
                        Some(PathBuf::from(args.get(i).ok_or("--resume needs a directory")?));
                }
                "--update-golden" => {
                    opts.update_golden = true;
                }
                "--quiet" => {
                    opts.quiet = true;
                    vtq::sweep::set_quiet(true);
                }
                "--prof" => {
                    opts.prof = true;
                }
                "--addr" => {
                    i += 1;
                    opts.addr = Some(args.get(i).ok_or("--addr needs host:port")?.clone());
                }
                "--max-queue" => {
                    i += 1;
                    opts.max_queue = Some(
                        args.get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--max-queue needs an integer")?,
                    );
                }
                "--tenant-quota" => {
                    i += 1;
                    opts.tenant_quota = Some(
                        args.get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--tenant-quota needs an integer")?,
                    );
                }
                "--poison-threshold" => {
                    i += 1;
                    opts.poison_threshold = Some(
                        args.get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--poison-threshold needs an integer")?,
                    );
                }
                "--tenant" => {
                    i += 1;
                    opts.tenant = Some(args.get(i).ok_or("--tenant needs a name")?.clone());
                }
                "--policies" => {
                    i += 1;
                    opts.policies = Some(args.get(i).ok_or("--policies needs a list")?.clone());
                }
                "--deadline-ms" => {
                    i += 1;
                    opts.deadline_ms = Some(
                        args.get(i)
                            .and_then(|v| v.parse().ok())
                            .ok_or("--deadline-ms needs an integer")?,
                    );
                }
                "--verify-local" => {
                    opts.verify_local = true;
                }
                "--seeds" => {
                    i += 1;
                    let seeds: u64 = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seeds needs an integer")?;
                    if seeds == 0 {
                        return Err("--seeds must be at least 1".to_string());
                    }
                    opts.seeds = Some(seeds);
                }
                "--strict-invariants" => {
                    opts.config.gpu.audit = AuditMode::Every(DEFAULT_AUDIT_INTERVAL);
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown flag {other}"));
                }
                positional => {
                    opts.args.push(positional.to_string());
                }
            }
            i += 1;
        }
        // A resumed sweep writes its new artifacts next to the old ones.
        if opts.out.is_none() {
            opts.out = opts.resume.clone();
        }
        // The flags only assign fields; what they add up to is checked
        // once, here (`--res 0`, `--max-cycles 0`).
        opts.config.validate().map_err(|e| e.to_string())?;
        Ok(opts)
    }

    /// The scenes a command with its own default subset runs: the
    /// `--scenes` list when one was given, `default` otherwise.
    pub fn scenes_or(&self, default: &[SceneId]) -> Vec<SceneId> {
        if self.scenes_given {
            self.scenes.clone()
        } else {
            default.to_vec()
        }
    }

    /// The `--scenes` list when one was given: what the figure commands
    /// run on in place of each figure's own default.
    pub fn given_scenes(&self) -> Option<&[SceneId]> {
        self.scenes_given.then_some(self.scenes.as_slice())
    }

    /// A sweep engine sized by `--jobs` (fresh cache). When an output
    /// directory is set, the engine carries a [`SweepJournal`]: a fresh
    /// one under `--out`, a resumed one (skipping journaled-done cells)
    /// under `--resume`. A journal that cannot be opened degrades to an
    /// un-journaled engine with a warning rather than killing the run.
    pub fn engine(&self) -> SweepEngine {
        let engine = SweepEngine::new(self.jobs);
        let Some(dir) = self.out.as_deref() else {
            return engine;
        };
        // `--out DIR` always means "create DIR if missing": commands
        // that write artifacts directly (fault and chaos outcomes, repros)
        // must not fail on a fresh directory even if the journal below
        // cannot be opened.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("[out] cannot create {}: {e}", dir.display());
        }
        let journal = if self.resume.is_some() {
            SweepJournal::resume(dir)
        } else {
            SweepJournal::start(dir)
        };
        match journal {
            Ok(journal) => {
                if self.resume.is_some() && journal.completed_count() > 0 && !self.quiet {
                    eprintln!(
                        "[resume] {} cells journaled done in {}; skipping them",
                        journal.completed_count(),
                        dir.display()
                    );
                }
                engine.with_journal(std::sync::Arc::new(journal))
            }
            Err(e) => {
                eprintln!("[journal] cannot open journal in {}: {e}", dir.display());
                engine
            }
        }
    }

    /// Persists one run's artifacts when `--out` was given; a no-op
    /// otherwise. Labels follow `scene/policy` (e.g. `ref/vtq`).
    pub fn persist(&self, label: &str, report: &SimReport) {
        if let Some(dir) = &self.out {
            if let Err(e) = export_run(dir, label, report) {
                eprintln!("[out] failed to export {label}: {e}");
            }
        }
    }
}

/// Reports a cell that produced no payload on stderr; `true` when that
/// is a failure of the run (the cell panicked). A cell skipped by a
/// resumed journal is a quiet one-liner, not an error — its artifacts are
/// already on disk from the interrupted run.
pub fn report_cell_error(e: &CellError) -> bool {
    if e.kind == CellErrorKind::Skipped {
        if !vtq::sweep::quiet() {
            eprintln!("[resume] {} already done, skipped", e.label);
        }
        return false;
    }
    eprintln!("[sweep] {e}");
    e.kind == CellErrorKind::Panic
}

/// Reports the cells of `results` that produced no payload
/// ([`report_cell_error`]); `true` when any of them fails the run.
pub fn report_cell_errors<'r, T: 'r>(results: impl IntoIterator<Item = &'r CellResult<T>>) -> bool {
    let errors = results.into_iter().filter_map(|r| r.as_ref().err());
    errors.filter(|e| report_cell_error(e)).count() > 0
}

/// Unwraps the successful rows of a sweep, reporting the other cells to
/// stderr ([`report_cell_error`]). Keeps the sweep's deterministic order.
pub fn ok_rows<T>(results: Vec<CellResult<T>>) -> Vec<T> {
    report_cell_errors(&results);
    results.into_iter().flatten().collect()
}

/// Formats an optional rate as a percentage, `n/a` when undefined.
pub fn pct_or_na(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{:.1}%", v * 100.0),
        None => "n/a".to_string(),
    }
}

/// The `prof.jsonl` lines of a `--prof --out` run: one `prof_span`
/// record per span, then one `prof_counter` record per nonzero counter,
/// its `per_sec` rate to three decimals or `null`.
pub fn prof_records(
    snap: &vtq::prof::ProfSnapshot,
) -> impl Iterator<Item = vtq::jsonl::Record> + '_ {
    use vtq::jsonl::Record;
    let spans = snap.spans.iter().map(|s| {
        Record::new("prof_span")
            .str("path", &s.path)
            .num("count", s.count)
            .num("total_ns", s.total_ns)
            .num("self_ns", s.self_ns)
    });
    let counters = snap.counters.iter().filter(|c| c.value > 0).map(|c| {
        let record =
            Record::new("prof_counter").str("name", c.counter.name()).num("value", c.value);
        match snap.per_sec(c.counter) {
            Some(rate) => record.num("per_sec", format!("{rate:.3}")),
            None => record.null("per_sec"),
        }
    });
    spans.chain(counters)
}

/// Whether `--csv` was given.
fn csv() -> bool {
    CSV.load(Ordering::Relaxed)
}

/// A header line followed by a separator (or a CSV header row).
fn header_text(columns: &[&str], csv: bool) -> String {
    if csv {
        return format!("{}\n", columns.join(","));
    }
    let line: Vec<String> = columns.iter().map(|c| format!("{c:>12}")).collect();
    format!("{}\n{}\n", line.join(" "), "-".repeat(13 * columns.len()))
}

/// One row with a leading scene column.
fn row_text(scene: &str, values: &[String], csv: bool) -> String {
    let mut line = if csv { scene.to_string() } else { format!("{scene:>12}") };
    for v in values {
        line.push_str(&if csv { format!(",{v}") } else { format!(" {v:>12}") });
    }
    line.push('\n');
    line
}

/// Prints a header line followed by a separator (or a CSV header row).
pub fn header(columns: &[&str]) {
    print!("{}", header_text(columns, csv()));
}

/// Prints one row with a leading scene column (CSV-aware).
pub fn row(scene: &str, values: &[String]) {
    print!("{}", row_text(scene, values, csv()));
}

/// A figure's table as `vtq-bench figNN` prints it — header, one row per
/// surviving scene, and the summary row when there is something to
/// summarise — as aligned text, or as CSV.
pub fn table_text(table: &FigureTable, csv: bool) -> String {
    let mut text = header_text(&table.header(), csv);
    for cells in table.body().iter().chain(&table.summary_row()) {
        text.push_str(&row_text(&cells[0], &cells[1..], csv));
    }
    text
}

/// A figure's table as a section of the `vtq-bench all` markdown report:
/// the same cells, summary row in bold.
pub fn table_markdown(table: &FigureTable) -> String {
    let line = |cells: &[String]| {
        let cells =
            cells.iter().map(|c| if c.is_empty() { " |".into() } else { format!(" {c} |") });
        format!("|{}\n", cells.collect::<String>())
    };
    let header: Vec<String> = table.header().iter().map(|h| h.to_string()).collect();
    let mut text = format!("## {}\n\n{}", table.figure.title, line(&header));
    text.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for cells in table.body() {
        text.push_str(&line(&cells));
    }
    if let Some(summary) = table.summary_row() {
        let bold = |c: &String| if c.is_empty() { String::new() } else { format!("**{c}**") };
        let mut cells: Vec<String> = summary.iter().map(bold).collect();
        cells[0] = cells[0].to_lowercase();
        text.push_str(&line(&cells));
    }
    text
}

#[cfg(test)]
mod tests {
    use vtq::prof::{Counter, CounterReport, ProfSnapshot, SpanReport};

    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessOpts, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        HarnessOpts::parse(&owned)
    }

    fn prof_jsonl(snap: &ProfSnapshot) -> Vec<String> {
        prof_records(snap).map(vtq::jsonl::Record::finish).collect()
    }

    /// `prof.jsonl`'s lines: flat records, escaped span paths, counters
    /// with a value only, rates to three decimals or `null`.
    #[test]
    fn jsonl_is_flat_and_wellformed() {
        let span =
            |path: &str| SpanReport { path: path.into(), count: 2, total_ns: 30, self_ns: 10 };
        let mut snap = ProfSnapshot {
            spans: vec![span("export"), span(r#"a/"b"\c"#)],
            counters: vec![
                CounterReport { counter: Counter::BytesExported, value: 4096 },
                CounterReport { counter: Counter::RaysTraced, value: 0 },
            ],
            elapsed_ns: 3_000_000_000,
        };
        assert_eq!(
            prof_jsonl(&snap),
            [
                r#"{"record":"prof_span","path":"export","count":2,"total_ns":30,"self_ns":10}"#,
                r#"{"record":"prof_span","path":"a/\"b\"\\c","count":2,"total_ns":30,"self_ns":10}"#,
                r#"{"record":"prof_counter","name":"bytes_exported","value":4096,"per_sec":1365.333}"#,
            ]
        );
        for line in prof_jsonl(&snap) {
            let f = vtq::jsonl::parse_line(&line).expect("a flat line parses");
            assert!(f.record().is_some_and(|r| r.starts_with("prof_")), "{line}");
        }
        let parsed = vtq::jsonl::parse_line(&prof_jsonl(&snap)[1])
            .unwrap()
            .str("path")
            .unwrap()
            .into_owned();
        assert_eq!(parsed, r#"a/"b"\c"#);
        snap.elapsed_ns = 0;
        assert!(prof_jsonl(&snap)[2].ends_with(r#""value":4096,"per_sec":null}"#));
        snap.spans.clear();
        snap.counters.clear();
        assert!(prof_jsonl(&snap).is_empty());
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "geomean of nothing")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }

    #[test]
    fn mean_opt_skips_undefined_rates() {
        assert_eq!(mean_opt(&[Some(0.5), None, Some(1.0)]), Some(0.75));
        assert_eq!(mean_opt(&[None, None]), None);
        assert_eq!(mean_opt(&[]), None);
    }

    #[test]
    fn pct_or_na_formats() {
        assert_eq!(pct_or_na(Some(0.125)), "12.5%");
        assert_eq!(pct_or_na(None), "n/a");
    }

    #[test]
    fn parse_defaults() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.scenes.len(), SceneId::ALL.len());
        assert_eq!(opts.jobs, default_jobs());
        assert!(opts.out.is_none());
    }

    #[test]
    fn parse_records_whether_scenes_were_given() {
        // All fourteen default scenes, named explicitly, are still the
        // user's choice: a command with its own default must run them.
        let all: Vec<&str> = SceneId::ALL.iter().map(|s| s.name()).collect();
        let explicit = parse(&["--scenes", &all.join(",")]).unwrap();
        assert!(explicit.scenes_given);
        assert_eq!(explicit.scenes_or(&[SceneId::Lands]), SceneId::ALL);
        let implicit = parse(&[]).unwrap();
        assert!(!implicit.scenes_given);
        assert_eq!(implicit.scenes, SceneId::ALL);
        assert_eq!(implicit.scenes_or(&[SceneId::Lands]), [SceneId::Lands]);
    }

    /// Aligned text, CSV and markdown are three layouts of one set of
    /// cell strings.
    #[test]
    fn text_and_markdown_renderings_hold_the_same_cells() {
        // Figure 13 has unprinted columns, both summary rules and, with
        // the `None`, an undefined cell.
        let figure = vtq::experiment::figure("fig13").expect("declared");
        let row = |v: f64| (0..figure.columns.len()).map(|i| Some(v + i as f64 / 8.0)).collect();
        let mut rows: Vec<(SceneId, Vec<Option<f64>>)> =
            vec![(SceneId::Ref, row(0.5)), (SceneId::Bunny, row(1.5))];
        rows[1].1[0] = None;
        let table = FigureTable { figure, rows };

        let text = table_text(&table, false);
        let mut text = text.lines().map(|l| l.split_whitespace().collect::<Vec<_>>());
        let csv = table_text(&table, true);
        let mut csv = csv.lines().map(|l| l.split(',').collect::<Vec<_>>());
        let markdown = table_markdown(&table);
        let mut markdown = markdown.lines().skip(2).map(|l| {
            let cells = l.trim_matches('|').split('|');
            cells.map(|c| c.trim().trim_matches('*').to_string()).collect::<Vec<_>>()
        });

        let header = text.next().unwrap();
        assert_eq!(header.len(), 9, "scene + the eight printed columns: {header:?}");
        assert_eq!(markdown.next().unwrap(), header);
        assert_eq!(csv.next().unwrap(), header);
        text.next().expect("the dashes under the aligned header");
        markdown.next().expect("the markdown alignment row");
        for scene in ["REF", "BUNNY"] {
            let cells = text.next().unwrap();
            assert_eq!(cells[0], scene);
            assert_eq!(cells.len(), header.len());
            assert_eq!(markdown.next().unwrap(), cells);
            assert_eq!(csv.next().unwrap(), cells);
        }
        // Every printed column of Figure 13 has a summary, so no cell of
        // the closing row is empty and whitespace splitting keeps them.
        let summary = text.next().unwrap();
        assert_eq!((summary[0], summary.len()), ("MEAN", header.len()));
        assert_eq!(csv.next().unwrap(), summary);
        let bold = markdown.next().unwrap();
        assert_eq!(bold[0], "mean");
        assert_eq!(bold[1..], summary[1..]);
        assert!(text.next().is_none() && csv.next().is_none() && markdown.next().is_none());
        assert!(table_text(&table, false).contains("n/a"), "the undefined cell");
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "got: {err}");
    }

    #[test]
    fn parse_collects_positionals() {
        let opts = parse(&["repro.jsonl", "--quick", "second"]).unwrap();
        assert_eq!(opts.args, vec!["repro.jsonl".to_string(), "second".to_string()]);
        assert_eq!(opts.config.detail_divisor, ExperimentConfig::quick().detail_divisor);
        // A zero-pixel image is refused at parse, like `--jobs 0`.
        let err = parse(&["--quick", "--res", "0"]).unwrap_err();
        assert!(err.contains("resolution"), "got: {err}");
        assert!(parse(&["--res", "x"]).unwrap_err().contains("integer"));
    }

    #[test]
    fn parse_resume_implies_out() {
        let opts = parse(&["--resume", "runs/a"]).unwrap();
        assert_eq!(opts.resume.as_deref(), Some(std::path::Path::new("runs/a")));
        assert_eq!(opts.out.as_deref(), Some(std::path::Path::new("runs/a")));
        // An explicit --out wins for artifact placement.
        let opts = parse(&["--resume", "runs/a", "--out", "runs/b"]).unwrap();
        assert_eq!(opts.out.as_deref(), Some(std::path::Path::new("runs/b")));
        assert!(parse(&["--resume"]).unwrap_err().contains("directory"));
    }

    #[test]
    fn exit_code_contract_is_stable() {
        // Documented process contract; scripts and CI depend on these
        // exact values.
        assert_eq!(EXIT_OK, 0);
        assert_eq!(EXIT_VIOLATION, 1);
        assert_eq!(EXIT_USAGE, 2);
        assert_eq!(EXIT_INTERRUPTED, 3);
        let codes = [EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_INTERRUPTED];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b, "exit codes must be distinct");
            }
        }
    }

    #[test]
    fn parse_rejects_unknown_scene() {
        let err = parse(&["--scenes", "NOPE"]).unwrap_err();
        assert!(err.contains("unknown scene: NOPE"), "got: {err}");
    }

    #[test]
    fn parse_jobs_flag() {
        assert_eq!(parse(&["--jobs", "4"]).unwrap().jobs, 4);
        assert!(parse(&["--jobs", "0"]).unwrap_err().contains("at least 1"));
        assert!(parse(&["--jobs", "x"]).unwrap_err().contains("integer"));
        assert!(parse(&["--jobs"]).unwrap_err().contains("integer"));
    }

    #[test]
    fn parse_quick_and_res() {
        let opts = parse(&["--quick", "--res", "32"]).unwrap();
        assert_eq!(opts.config.resolution, 32);
        assert_eq!(opts.config.detail_divisor, ExperimentConfig::quick().detail_divisor);
        // A zero-pixel image is refused at parse, like `--jobs 0`.
        let err = parse(&["--quick", "--res", "0"]).unwrap_err();
        assert!(err.contains("resolution"), "got: {err}");
        assert!(parse(&["--res", "x"]).unwrap_err().contains("integer"));
    }

    #[test]
    fn parse_records_quick_as_a_flag() {
        // Flags that edit the configuration leave `--quick` readable.
        let opts = parse(&["--quick", "--strict-invariants", "--max-cycles", "100000000"]).unwrap();
        assert!(opts.quick);
        assert_ne!(opts.config, ExperimentConfig::quick());
        assert!(!parse(&["--strict-invariants"]).unwrap().quick);
    }

    #[test]
    fn parse_max_cycles_flag() {
        let opts = parse(&["--max-cycles", "5000"]).unwrap();
        assert_eq!(opts.config.gpu.max_cycles, Some(5000));
        // Zero is rejected here, not deferred to the simulator.
        let err = parse(&["--max-cycles", "0"]).unwrap_err();
        assert!(err.contains("max_cycles"), "got: {err}");
        assert!(parse(&["--max-cycles", "x"]).unwrap_err().contains("integer"));
        assert!(parse(&["--max-cycles"]).unwrap_err().contains("integer"));
    }

    #[test]
    fn parse_strict_invariants_flag() {
        let opts = parse(&["--strict-invariants"]).unwrap();
        assert_eq!(opts.config.gpu.audit, AuditMode::Every(DEFAULT_AUDIT_INTERVAL));
        // Default stays on auto (debug/CI-feature gated).
        assert_eq!(parse(&[]).unwrap().config.gpu.audit, AuditMode::Auto);
        // Composes with the watchdog flag.
        let opts = parse(&["--strict-invariants", "--max-cycles", "77"]).unwrap();
        assert_eq!(opts.config.gpu.max_cycles, Some(77));
        assert_eq!(opts.config.gpu.audit, AuditMode::Every(DEFAULT_AUDIT_INTERVAL));
    }

    #[test]
    fn parse_update_golden_flag() {
        assert!(parse(&["--update-golden"]).unwrap().update_golden);
        assert!(!parse(&[]).unwrap().update_golden);
        // Composes with the common flags.
        let opts = parse(&["--quick", "--update-golden", "--jobs", "2"]).unwrap();
        assert!(opts.update_golden);
        assert_eq!(opts.jobs, 2);
    }

    #[test]
    fn command_registry_is_complete() {
        for name in [
            "fig01",
            "fig05",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "table1",
            "table2",
            "all",
            "trace",
            "area",
            "ablations",
            "compression",
            "nee",
            "reorder",
            "scaling",
            "sensitivity",
            "faults",
            "chaos",
            "conformance",
            "repro",
            "serve",
            "submit",
        ] {
            assert!(commands::find(name).is_some(), "missing subcommand {name}");
        }
        // A figure is a subcommand, or a section of the one its name
        // starts with (`ablations-budget`; `fig16-table1` prints in `all`).
        for figure in &vtq::experiment::FIGURES {
            let family = figure.name.split('-').next().expect("a name");
            assert!(commands::find(family).is_some(), "missing subcommand {family}");
        }
        assert!(commands::find("fig99").is_none());
    }
}
