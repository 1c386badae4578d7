//! Disk-fault chaos campaign: seeded end-to-end recovery drills over the
//! artifact-integrity layer.
//!
//! ```text
//! vtq-bench chaos --quick --out target/chaos
//! vtq-bench chaos --seeds 50
//! ```
//!
//! Per seed, the campaign drives every durable artifact through an
//! injected fault and asserts the recovery invariants end to end:
//!
//! * **canary** — a checksum-framed record with one payload bit flipped
//!   must be rejected by [`vtq::jsonl::check_line`]: a build whose frame
//!   verification does not verify fails the campaign immediately (a unit
//!   test below hands the canary such a verifier).
//! * **journal-kill** — a journaled sweep killed at a seeded cell
//!   boundary and resumed (repeatedly, until done) must execute every
//!   cell exactly once and reproduce the uninterrupted run bit for bit.
//! * **journal-corrupt** — one seeded bit flip anywhere in a completed
//!   `journal.jsonl`; resume must truncate the damage, re-run exactly
//!   the invalidated cells, and converge on the baseline results.
//! * **cache-corrupt / rename-fail / short-read** — result-cache
//!   entries under a seeded bit flip, a failed atomic rename and a
//!   truncated read: every outcome must be a quarantine-plus-recompute
//!   or a bit-identical record, never different data.
//! * **checkpoint-corrupt** — a flipped checkpoint must fail
//!   [`gpusim::Checkpoint::from_jsonl`] with a typed error; recovery is
//!   a fresh run whose stats equal the original run's.
//! * **golden-corrupt** — a damaged conformance snapshot must surface as
//!   typed corruption (the harness's exit-2 path), then regenerate
//!   cleanly.
//! * **enospc** — the journal hits a simulated full disk mid-sweep; the
//!   sweep survives with the loss counted, and a resume redoes only the
//!   under-recorded cells, bit-identically.
//! * **serve-round** — a live daemon whose on-disk cache entry is
//!   corrupted between submissions must quarantine it, recompute, and
//!   re-serve bit-identical results.
//!
//! The simulation config is pinned tiny (the campaign exercises the
//! integrity layer, not the simulator); `--quick` only lowers the
//! default seed count (5 instead of 20) and `--seeds N` overrides it.
//! With `--out`, per-scenario outcomes are exported to `chaos.jsonl`,
//! checksum-framed like every other artifact. Any violated invariant
//! exits [`crate::EXIT_VIOLATION`].

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gpusim::{Checkpoint, RunOptions, Simulator};
use vtq::diskfault::{arm, disarm, DiskFault, FaultPlan};
use vtq::jsonl::{check_line, frame_line, Record, CRC_SUFFIX_LEN};
use vtq::prelude::*;
use vtq_serve::{Client, ResultCache, Server, ServerConfig, SubmitSpec};

use crate::{header, row, HarnessOpts};

/// Default seed count for the full campaign (the acceptance bar).
const FULL_SEEDS: u64 = 20;
/// Default seed count under `--quick` (CI smoke).
const QUICK_SEEDS: u64 = 5;

/// `(cycles, rays_completed, box_tests, tri_tests)` — the bit-identity
/// signature the campaign compares across recoveries.
type CellStats = (u64, u64, u64, u64);

/// splitmix64: the repo's standard dependency-free deterministic RNG.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Flips one seeded low bit (0..7, so ASCII stays ASCII and the result
/// remains valid UTF-8) at a seeded position of `bytes`.
fn flip_seeded(bytes: &mut [u8], rng: &mut u64) -> usize {
    let pos = (next(rng) % bytes.len() as u64) as usize;
    bytes[pos] ^= 1 << (next(rng) % 7);
    pos
}

fn stats_of(report: &gpusim::SimReport) -> CellStats {
    let s = &report.stats;
    (s.cycles, s.rays_completed, s.box_tests, s.tri_tests)
}

/// One scenario's outcome: `Ok(detail)` = fault injected and recovered
/// (or detected as a typed error), `Err(detail)` = invariant violated.
type Verdict = Result<String, String>;

struct Outcome {
    seed: u64,
    scenario: &'static str,
    verdict: Verdict,
}

/// Shared fixtures, built once: the tiny run matrix, its clean-run
/// baseline, a captured checkpoint, and a synthetic golden snapshot.
struct Ctx {
    cfg: ExperimentConfig,
    matrix: RunMatrix,
    prepared: Arc<PreparedCache>,
    baseline: Vec<CellStats>,
    ref_prepared: Arc<Prepared>,
    ref_stats: CellStats,
    ckpt_text: String,
    golden: GoldenFigure,
    scratch: PathBuf,
}

impl Ctx {
    fn ref_simulator(&self) -> Simulator<'_> {
        Simulator::new(&self.ref_prepared.bvh, self.ref_prepared.scene.triangles(), self.cfg.gpu)
    }
}

fn build_ctx() -> Result<Ctx, String> {
    // Pinned tiny config: the campaign's cost is dominated by fault
    // choreography, not simulation fidelity.
    let cfg = ExperimentConfig { resolution: 8, detail_divisor: 64, ..ExperimentConfig::quick() };
    let scenes = [SceneId::Ref, SceneId::Bunny, SceneId::Lands];
    let mut matrix = RunMatrix::new();
    for &scene in &scenes {
        matrix.push(Cell {
            scene,
            config: cfg,
            policy: TraversalPolicy::Baseline,
            label: scene.name().to_string(),
        });
    }
    let prepared = Arc::new(PreparedCache::new());

    // Clean-run baseline every recovery is compared against.
    let engine = SweepEngine::with_cache(1, Arc::clone(&prepared));
    let baseline: Result<Vec<CellStats>, String> = engine
        .run_map(&matrix, |cell, p| stats_of(&p.run_policy(cell.policy)))
        .into_iter()
        .map(|r| r.map_err(|e| format!("baseline cell failed: {e}")))
        .collect();
    let baseline = baseline?;

    // A mid-run checkpoint of the REF cell for the corruption drills.
    let ref_prepared = prepared.get(SceneId::Ref, &cfg);
    let sim = Simulator::new(&ref_prepared.bvh, ref_prepared.scene.triangles(), cfg.gpu);
    let mut snap = None;
    let report = sim
        .try_run_checkpointed(&ref_prepared.workload, 16, &mut |ck| {
            if snap.is_none() {
                snap = Some(ck);
            }
        })
        .map_err(|e| format!("checkpoint base run failed: {e}"))?;
    let ckpt = snap.ok_or("checkpoint base run finished before the first checkpoint")?;
    let ckpt_text = ckpt.to_jsonl();
    // Sanity-anchor the corruption drill: an *intact* checkpoint must
    // resume to the uninterrupted run's exact stats before we start
    // damaging copies of it.
    let resumed = Simulator::new(&ref_prepared.bvh, ref_prepared.scene.triangles(), cfg.gpu)
        .try_run_with(&ref_prepared.workload, RunOptions::new().resume(&ckpt))
        .map_err(|e| format!("intact checkpoint failed to resume: {e}"))?;
    if stats_of(&resumed) != stats_of(&report) {
        return Err("intact checkpoint resume diverged from the uninterrupted run".to_string());
    }

    let golden = GoldenFigure {
        figure: "chaosfig".to_string(),
        fingerprint: config_fingerprint(&cfg),
        scenes: vec!["REF".to_string()],
        entries: vec![
            GoldenEntry { key: "scene/REF/speedup".to_string(), value: 1.25, tol: 0.05, rel: true },
            GoldenEntry { key: "agg/speedup".to_string(), value: 1.25, tol: 0.05, rel: true },
        ],
    };
    let scratch = std::env::temp_dir().join(format!("vtq-chaos-{}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    fs::create_dir_all(&scratch).map_err(|e| format!("cannot create scratch dir: {e}"))?;

    Ok(Ctx {
        cfg,
        matrix,
        prepared,
        baseline,
        ref_prepared,
        ref_stats: stats_of(&report),
        ckpt_text,
        golden,
        scratch,
    })
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// Frame a record, flip one seeded bit strictly before the checksum
/// suffix (so the payload, not the checksum text, is damaged), and
/// require `verify` — [`check_line`] in the campaign — to reject it. The
/// one scenario that needs no injected I/O fault: it directly catches a
/// verifier that does not verify.
fn canary<E: std::fmt::Display>(
    seed: u64,
    rng: &mut u64,
    verify: impl Fn(&str) -> Result<String, E>,
) -> Verdict {
    let framed = Record::new("canary").num("seed", seed).num("nonce", next(rng)).framed();
    let mut bytes = framed.clone().into_bytes();
    let payload_len = bytes.len() - CRC_SUFFIX_LEN;
    let pos = (next(rng) % payload_len as u64) as usize;
    bytes[pos] ^= 1 << (next(rng) % 7);
    let mutated = String::from_utf8(bytes).expect("low-bit flip keeps ASCII");
    match verify(&mutated) {
        Err(e) => Ok(format!("payload flip at byte {pos} rejected: {e}")),
        Ok(_) => Err(format!(
            "flipped frame ACCEPTED (payload byte {pos}) — checksum verification is disabled"
        )),
    }
}

/// Runs the matrix under a journal in `dir`, killing at a seeded cell
/// boundary and resuming until complete. Returns the merged per-cell
/// stats. Exactly-once: every cell executes once across all lives.
fn journal_kill(ctx: &Ctx, seed: u64, rng: &mut u64, dir: &Path) -> Verdict {
    let total = ctx.matrix.cells().len();
    let executions = Mutex::new(HashMap::<String, usize>::new());
    let mut merged: Vec<Option<CellStats>> = vec![None; total];
    let mut lives = 0usize;
    loop {
        lives += 1;
        if lives > total + 2 {
            return Err(format!("seed {seed}: too many lives — cells are being redone"));
        }
        let journal = if lives == 1 { SweepJournal::start(dir) } else { SweepJournal::resume(dir) };
        let journal = Arc::new(journal.map_err(|e| format!("journal: {e}"))?);
        let remaining = total - journal.completed_count();
        let kill = if remaining > 0 { (next(rng) % (remaining as u64 + 1)) as usize } else { 0 };
        // The kill cancels this life's engine alone: the process-global
        // flag is the SIGINT handler's.
        let cancel = CancelToken::new();
        let engine = SweepEngine::with_cache(1, Arc::clone(&ctx.prepared))
            .with_journal(journal)
            .with_cancel(cancel.clone())
            .scoped("chaos");
        let ran = AtomicUsize::new(0);
        let results = engine.run_map(&ctx.matrix, |cell, p| {
            *executions.lock().unwrap().entry(cell.label.clone()).or_insert(0) += 1;
            if ran.fetch_add(1, Ordering::SeqCst) + 1 == kill {
                cancel.cancel();
            }
            stats_of(&p.run_policy(cell.policy))
        });
        for (slot, r) in merged.iter_mut().zip(results) {
            if let (None, Ok(stats)) = (&slot, r) {
                *slot = Some(stats);
            }
        }
        if kill == 0 {
            break;
        }
    }

    let executions = executions.into_inner().unwrap();
    if executions.len() != total {
        return Err(format!("only {} of {total} cells ever executed", executions.len()));
    }
    for (label, count) in &executions {
        if *count != 1 {
            return Err(format!("cell `{label}` executed {count} times (exactly-once violated)"));
        }
    }
    let got: Vec<CellStats> = merged.into_iter().map(|s| s.expect("all cells settled")).collect();
    if got != ctx.baseline {
        return Err("killed-and-resumed results differ from the clean baseline".to_string());
    }
    Ok("killed at seeded boundaries; exactly-once and bit-identical".to_string())
}

/// Flips one seeded bit anywhere in the completed journal from
/// [`journal_kill`], resumes, and requires: no invented completions, the
/// invalidated cells (and only their results) re-execute bit-identically,
/// and the journal converges back to fully complete.
fn journal_corrupt(ctx: &Ctx, rng: &mut u64, dir: &Path) -> Verdict {
    let total = ctx.matrix.cells().len();
    let path = dir.join(JOURNAL_FILE);
    let text = fs::read(&path).map_err(|e| format!("read journal: {e}"))?;
    let done_before: std::collections::HashSet<String> = {
        let journal = SweepJournal::resume(dir).map_err(|e| format!("pre-resume: {e}"))?;
        if journal.completed_count() != total {
            return Err("journal not complete before corruption".to_string());
        }
        ctx.matrix.cells().iter().map(|c| c.label.clone()).collect()
    };
    let mut mutated = text.clone();
    let pos = flip_seeded(&mut mutated, rng);
    fs::write(&path, &mutated).map_err(|e| format!("write corrupt journal: {e}"))?;

    let journal = Arc::new(SweepJournal::resume(dir).map_err(|e| format!("resume: {e}"))?);
    // A flip can land on a line that carries no completion (session
    // header, an `interrupted` record): truncation then cuts bytes while
    // every `done` record survives, which is correct — so the invariants
    // are bounds and identity, never "truncation implies loss".
    let survivors = journal.completed_count();
    if survivors > total {
        return Err(format!("resume invented completions ({survivors} > {total})"));
    }
    let engine = SweepEngine::with_cache(1, Arc::clone(&ctx.prepared))
        .with_journal(Arc::clone(&journal))
        .scoped("chaos");
    let executed = Mutex::new(Vec::<String>::new());
    let results = engine.run_map(&ctx.matrix, |cell, p| {
        executed.lock().unwrap().push(cell.label.clone());
        stats_of(&p.run_policy(cell.policy))
    });
    let executed = executed.into_inner().unwrap();
    if executed.len() != total - survivors {
        return Err(format!(
            "flip at byte {pos}: {} cells re-ran but {} were invalidated",
            executed.len(),
            total - survivors
        ));
    }
    for label in &executed {
        if !done_before.contains(label) {
            return Err(format!("re-ran unknown cell `{label}`"));
        }
    }
    // Re-executed cells must reproduce the baseline bit for bit.
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(stats) if stats != ctx.baseline[i] => {
                return Err(format!("re-run of cell {i} diverged from the baseline"));
            }
            Ok(_) => {}
            Err(e) if e.kind == CellErrorKind::Skipped => {}
            Err(e) => return Err(format!("re-run cell failed: {e}")),
        }
    }
    drop(engine);
    drop(journal);
    let journal = SweepJournal::resume(dir).map_err(|e| format!("final resume: {e}"))?;
    if journal.completed_count() != total {
        return Err(format!(
            "journal did not converge: {} of {total} complete",
            journal.completed_count()
        ));
    }
    Ok(format!(
        "flip at byte {pos} invalidated {} record(s); re-ran them bit-identically",
        total - survivors
    ))
}

fn synthetic_record(seed: u64) -> vtq_serve::CellRecord {
    vtq_serve::CellRecord {
        scene: "REF".to_string(),
        label: "REF/baseline".to_string(),
        fingerprint: 0xc0ffee ^ seed,
        cycles: 1000 + seed,
        rays: 64,
        box_tests: 17,
        tri_tests: 9,
    }
}

/// Seeded bit flip in a stored cache entry: the load must quarantine and
/// recompute (miss) or serve the exact original record — never different
/// data.
fn cache_corrupt(ctx: &Ctx, seed: u64, rng: &mut u64) -> Verdict {
    let dir = ctx.scratch.join(format!("cache-{seed}"));
    let cache = ResultCache::open(&dir).map_err(|e| format!("open cache: {e}"))?;
    let rec = synthetic_record(seed);
    let fp = 0xfeed_0000 + seed;
    let key = ResultCache::key("REF", seed);
    cache.store(&key, fp, &rec).map_err(|e| format!("store: {e}"))?;

    let path = dir.join(vtq_serve::cache::CACHE_DIR).join(format!("{key}.jsonl"));
    let mut bytes = fs::read(&path).map_err(|e| format!("read entry: {e}"))?;
    let pos = flip_seeded(&mut bytes, rng);
    fs::write(&path, &bytes).map_err(|e| format!("write corrupt entry: {e}"))?;

    match cache.load(&key, fp) {
        Some(r) if r == rec => Ok(format!("flip at byte {pos} left the payload intact; served")),
        Some(_) => Err(format!("flip at byte {pos}: cache served DIFFERENT data")),
        None => {
            // Miss → recompute path: a fresh store must serve again.
            cache.store(&key, fp, &rec).map_err(|e| format!("re-store: {e}"))?;
            if cache.load(&key, fp) != Some(rec) {
                return Err("recomputed entry did not round-trip".to_string());
            }
            Ok(format!("flip at byte {pos} quarantined; recomputed bit-identically"))
        }
    }
}

/// Seeded bit flip in a serialized checkpoint: parse must fail with a
/// typed error (or, when the flip lands in the frame's own field text,
/// re-serialize to the identical original); recovery is a fresh run with
/// the original run's exact stats.
fn checkpoint_corrupt(ctx: &Ctx, rng: &mut u64) -> Verdict {
    let mut bytes = ctx.ckpt_text.clone().into_bytes();
    let pos = flip_seeded(&mut bytes, rng);
    let outcome = match String::from_utf8(bytes) {
        Err(_) => Err("invalid UTF-8".to_string()),
        Ok(mutated) => Checkpoint::from_jsonl(&mutated).map_err(|e| e.to_string()),
    };
    match outcome {
        Ok(ck) => {
            if ck.to_jsonl() == ctx.ckpt_text {
                Ok(format!("flip at byte {pos} left the payload intact; accepted"))
            } else {
                Err(format!("flip at byte {pos}: corrupted checkpoint ACCEPTED"))
            }
        }
        Err(e) => {
            // Typed rejection → fall back to a fresh, un-resumed run.
            let report = ctx
                .ref_simulator()
                .try_run(&ctx.ref_prepared.workload)
                .map_err(|e| format!("fresh fallback run failed: {e}"))?;
            if stats_of(&report) != ctx.ref_stats {
                return Err("fresh fallback run diverged from the original".to_string());
            }
            Ok(format!("flip at byte {pos} rejected ({e}); fresh run bit-identical"))
        }
    }
}

/// Seeded bit flip in a golden snapshot file: `check_golden` must report
/// `Corrupt` (then regenerate cleanly) or — for a payload-intact flip —
/// still `Match`; any other outcome means damage changed the semantics.
fn golden_corrupt(ctx: &Ctx, seed: u64, rng: &mut u64) -> Verdict {
    let dir = ctx.scratch.join(format!("golden-{seed}"));
    write_golden(&dir, std::slice::from_ref(&ctx.golden)).map_err(|e| format!("write: {e}"))?;
    let path = dir.join(format!("{}.json", ctx.golden.figure));
    let mut bytes = fs::read(&path).map_err(|e| format!("read: {e}"))?;
    let pos = flip_seeded(&mut bytes, rng);
    fs::write(&path, &bytes).map_err(|e| format!("rewrite: {e}"))?;
    match check_golden(&dir, &ctx.golden) {
        GoldenOutcome::Corrupt(why) => {
            write_golden(&dir, std::slice::from_ref(&ctx.golden))
                .map_err(|e| format!("regenerate: {e}"))?;
            match check_golden(&dir, &ctx.golden) {
                GoldenOutcome::Match { .. } => {
                    Ok(format!("flip at byte {pos} detected ({why}); regenerated cleanly"))
                }
                other => Err(format!("regenerated snapshot failed to match: {other:?}")),
            }
        }
        GoldenOutcome::Match { .. } => {
            Ok(format!("flip at byte {pos} left the payload intact; matched"))
        }
        // A flip inside the crc field name demotes the line to legacy;
        // the mangled leftover field can then fail the *parser* instead
        // of the checksum. Loud and typed, so it counts as detected —
        // but it must never read as a value regression (the payload is
        // intact), so regeneration must restore a clean match.
        GoldenOutcome::Mismatch(why) if why.iter().any(|w| w.contains(".json")) => {
            write_golden(&dir, std::slice::from_ref(&ctx.golden))
                .map_err(|e| format!("regenerate: {e}"))?;
            match check_golden(&dir, &ctx.golden) {
                GoldenOutcome::Match { .. } => {
                    Ok(format!("flip at byte {pos} broke the parse (typed); regenerated cleanly"))
                }
                other => Err(format!("regenerated snapshot failed to match: {other:?}")),
            }
        }
        other => Err(format!("flip at byte {pos}: undetected damage changed outcome: {other:?}")),
    }
}

/// Simulated ENOSPC on a seeded journal write mid-sweep: the sweep must
/// survive (loss counted via `note_drop`), and a resume must redo only
/// the under-recorded cells, bit-identically.
fn enospc_mid_sweep(ctx: &Ctx, seed: u64, rng: &mut u64) -> Verdict {
    let total = ctx.matrix.cells().len();
    let dir = ctx.scratch.join(format!("enospc-{seed}"));
    let _ = fs::remove_dir_all(&dir);
    let journal = Arc::new(SweepJournal::start(&dir).map_err(|e| format!("journal: {e}"))?);
    let engine = SweepEngine::with_cache(1, Arc::clone(&ctx.prepared))
        .with_journal(Arc::clone(&journal))
        .scoped("chaos");
    // Arm after the session header so the fault lands on a cell record.
    arm(FaultPlan { fault: DiskFault::Enospc, skip_ops: next(rng) % total as u64, seed });
    let results = engine.run_map(&ctx.matrix, |cell, p| stats_of(&p.run_policy(cell.policy)));
    let fired = disarm();
    if fired.is_none() {
        return Err("ENOSPC fault never fired".to_string());
    }
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(stats) if stats == ctx.baseline[i] => {}
            Ok(_) => return Err("sweep under ENOSPC produced different results".to_string()),
            Err(e) => return Err(format!("sweep under ENOSPC lost a cell: {e}")),
        }
    }
    if journal.drops() == 0 {
        return Err("journal write failed but the drop was not counted".to_string());
    }
    drop(engine);
    drop(journal);

    // Resume: the dropped record's cell re-runs (at-least-once with an
    // under-recorded journal is the documented contract); the *results*
    // must still be bit-identical.
    let journal = Arc::new(SweepJournal::resume(&dir).map_err(|e| format!("resume: {e}"))?);
    let missing = total - journal.completed_count();
    if missing == 0 {
        return Err("a journal write was dropped yet nothing needs redoing".to_string());
    }
    let engine = SweepEngine::with_cache(1, Arc::clone(&ctx.prepared))
        .with_journal(Arc::clone(&journal))
        .scoped("chaos");
    let redone = AtomicUsize::new(0);
    let results = engine.run_map(&ctx.matrix, |cell, p| {
        redone.fetch_add(1, Ordering::SeqCst);
        stats_of(&p.run_policy(cell.policy))
    });
    if redone.load(Ordering::SeqCst) != missing {
        return Err(format!(
            "resume redid {} cells, expected {missing}",
            redone.load(Ordering::SeqCst)
        ));
    }
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(stats) if stats != ctx.baseline[i] => {
                return Err("redone cell diverged from the baseline".to_string());
            }
            _ => {}
        }
    }
    drop(engine);
    drop(journal);
    let journal = SweepJournal::resume(&dir).map_err(|e| format!("final resume: {e}"))?;
    if journal.completed_count() != total {
        return Err("journal did not converge after the ENOSPC recovery".to_string());
    }
    Ok(format!("dropped {missing} journal record(s); resume redid them bit-identically"))
}

/// Failed atomic rename while publishing a cache entry: nothing may be
/// published (no torn entry), and a retried store must round-trip.
fn rename_fail(ctx: &Ctx, seed: u64) -> Verdict {
    let dir = ctx.scratch.join(format!("rename-{seed}"));
    let cache = ResultCache::open(&dir).map_err(|e| format!("open cache: {e}"))?;
    let rec = synthetic_record(seed);
    let fp = 0xfeed_0000 + seed;
    let key = ResultCache::key("REF", seed);
    arm(FaultPlan { fault: DiskFault::FailRename, skip_ops: 0, seed });
    let store = cache.store(&key, fp, &rec);
    let fired = disarm();
    if store.is_ok() {
        return Err("store succeeded despite the failed rename".to_string());
    }
    if fired.is_none() {
        return Err("rename fault never fired".to_string());
    }
    if cache.load(&key, fp).is_some() {
        return Err("a torn entry was published past the failed rename".to_string());
    }
    cache.store(&key, fp, &rec).map_err(|e| format!("retry store: {e}"))?;
    if cache.load(&key, fp) != Some(rec) {
        return Err("retried store did not round-trip".to_string());
    }
    Ok("failed rename published nothing; retry round-tripped".to_string())
}

/// Short read while loading a cache entry: the truncated text must read
/// as the full record or a quarantined miss — never partial data.
fn short_read(ctx: &Ctx, seed: u64) -> Verdict {
    let dir = ctx.scratch.join(format!("shortread-{seed}"));
    let cache = ResultCache::open(&dir).map_err(|e| format!("open cache: {e}"))?;
    let rec = synthetic_record(seed);
    let fp = 0xfeed_0000 + seed;
    let key = ResultCache::key("REF", seed);
    cache.store(&key, fp, &rec).map_err(|e| format!("store: {e}"))?;
    arm(FaultPlan { fault: DiskFault::ShortRead, skip_ops: 0, seed });
    let loaded = cache.load(&key, fp);
    let fired = disarm();
    if fired.is_none() {
        return Err("short-read fault never fired".to_string());
    }
    match loaded {
        Some(r) if r == rec => Ok("truncation point fell after the payload; served".to_string()),
        Some(_) => Err("short read served DIFFERENT data".to_string()),
        None => {
            cache.store(&key, fp, &rec).map_err(|e| format!("re-store: {e}"))?;
            if cache.load(&key, fp) != Some(rec) {
                return Err("recomputed entry did not round-trip".to_string());
            }
            Ok("short read detected as a miss; recomputed bit-identically".to_string())
        }
    }
}

/// Live daemon round: submit, corrupt the on-disk cache entry, resubmit;
/// the daemon must quarantine, recompute, and re-serve identical records.
fn serve_round(ctx: &Ctx, seed: u64, rng: &mut u64) -> Verdict {
    let dir = ctx.scratch.join(format!("serve-{seed}"));
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = 1;
    let handle = Server::spawn(config).map_err(|e| format!("spawn daemon: {e}"))?;
    let verdict = serve_round_inner(&dir, handle.addr(), rng);
    if let Err(e) = handle.shutdown() {
        eprintln!("[chaos] seed {seed}: daemon shutdown: {e}");
    }
    verdict
}

fn serve_round_inner(dir: &Path, addr: std::net::SocketAddr, rng: &mut u64) -> Verdict {
    let spec = SubmitSpec {
        tenant: "chaos".to_string(),
        scenes: vec![SceneId::Ref],
        policies: vec![TraversalPolicy::Baseline],
        quick: true,
        res: Some(8),
        detail: Some(64),
        ..SubmitSpec::default()
    };
    let submit = |client: &mut Client, spec: SubmitSpec| -> Result<String, String> {
        match client.submit_and_watch(spec, |_| {})? {
            vtq_serve::Frame::Status { job, .. } => Ok(job),
            other => Err(format!("unexpected terminal frame: {other:?}")),
        }
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let job = submit(&mut client, spec.clone())?;
    let first = client.fetch_results(&job)?;
    if first.is_empty() {
        return Err("first submission produced no results".to_string());
    }

    // Flip one seeded bit in the single published cache entry.
    let cache_dir = dir.join(vtq_serve::cache::CACHE_DIR);
    let entry = fs::read_dir(&cache_dir)
        .map_err(|e| format!("read cache dir: {e}"))?
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .ok_or("no cache entry on disk after the first submission")?;
    let mut bytes = fs::read(&entry).map_err(|e| format!("read entry: {e}"))?;
    let pos = flip_seeded(&mut bytes, rng);
    fs::write(&entry, &bytes).map_err(|e| format!("write corrupt entry: {e}"))?;

    let job = submit(&mut client, spec)?;
    let second = client.fetch_results(&job)?;
    if second != first {
        return Err(format!(
            "flip at byte {pos}: re-served results differ from the first submission"
        ));
    }
    Ok(format!("flip at byte {pos}: daemon re-served bit-identical results"))
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

fn chaos_jsonl(seeds: u64, outcomes: &[Outcome]) -> String {
    let violations = outcomes.iter().filter(|o| o.verdict.is_err()).count();
    let mut out = format!("{}\n", frame_line(&provenance_line(None, None)));
    for o in outcomes {
        let (ok, detail) = match &o.verdict {
            Ok(d) => (1, d),
            Err(d) => (0, d),
        };
        let scenario = Record::new("chaos_scenario")
            .num("seed", o.seed)
            .str("scenario", o.scenario)
            .num("ok", ok)
            .str("detail", detail);
        out.push_str(&scenario.framed());
        out.push('\n');
    }
    let summary = Record::new("chaos_summary")
        .num("seeds", seeds)
        .num("scenarios", outcomes.len())
        .num("violations", violations);
    out.push_str(&summary.framed());
    out.push('\n');
    out
}

fn campaign(opts: &HarnessOpts) -> u8 {
    let seeds = opts.seeds.unwrap_or(if opts.quick { QUICK_SEEDS } else { FULL_SEEDS });
    eprintln!("[chaos] campaign over {seeds} seed(s), 10 scenarios each");
    let ctx = match build_ctx() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("[chaos] cannot build campaign fixtures: {e}");
            return crate::EXIT_VIOLATION;
        }
    };

    let mut outcomes = Vec::new();
    for seed in 0..seeds {
        let mut rng = 0x5eed_c805 ^ seed.wrapping_mul(0x0123_4567_89ab_cdef);
        let journal_dir = ctx.scratch.join(format!("journal-{seed}"));
        let kill = journal_kill(&ctx, seed, &mut rng, &journal_dir);
        let corrupt_journal = if kill.is_ok() {
            journal_corrupt(&ctx, &mut rng, &journal_dir)
        } else {
            Err("skipped: journal-kill failed".to_string())
        };
        let run: [(&'static str, Verdict); 9] = [
            ("canary", canary(seed, &mut rng, check_line)),
            ("journal-kill", kill),
            ("journal-corrupt", corrupt_journal),
            ("cache-corrupt", cache_corrupt(&ctx, seed, &mut rng)),
            ("checkpoint-corrupt", checkpoint_corrupt(&ctx, &mut rng)),
            ("golden-corrupt", golden_corrupt(&ctx, seed, &mut rng)),
            ("enospc", enospc_mid_sweep(&ctx, seed, &mut rng)),
            ("rename-fail", rename_fail(&ctx, seed)),
            ("short-read", short_read(&ctx, seed)),
        ];
        for (scenario, verdict) in run {
            if let Err(detail) = &verdict {
                eprintln!("[chaos] VIOLATION seed {seed} {scenario}: {detail}");
            }
            outcomes.push(Outcome { seed, scenario, verdict });
        }
        // The live-daemon round last: it owns threads and sockets, so a
        // violation above still reports before any daemon trouble.
        let verdict = serve_round(&ctx, seed, &mut rng);
        if let Err(detail) = &verdict {
            eprintln!("[chaos] VIOLATION seed {seed} serve-round: {detail}");
        }
        outcomes.push(Outcome { seed, scenario: "serve-round", verdict });
    }
    let _ = fs::remove_dir_all(&ctx.scratch);

    // Aggregate table: one row per scenario.
    header(&["scenario", "runs", "recovered", "violations"]);
    let mut order: Vec<&'static str> = Vec::new();
    for o in &outcomes {
        if !order.contains(&o.scenario) {
            order.push(o.scenario);
        }
    }
    let mut violations = 0usize;
    for scenario in order {
        let runs = outcomes.iter().filter(|o| o.scenario == scenario).count();
        let bad = outcomes.iter().filter(|o| o.scenario == scenario && o.verdict.is_err()).count();
        violations += bad;
        row(scenario, &[runs.to_string(), (runs - bad).to_string(), bad.to_string()]);
    }
    println!(
        "\nchaos campaign: {} scenario runs over {seeds} seed(s), {violations} violation(s)",
        outcomes.len()
    );

    if let Some(dir) = &opts.out {
        let path = dir.join("chaos.jsonl");
        match vtq::diskfault::write_file_durable(&path, chaos_jsonl(seeds, &outcomes).as_bytes()) {
            Ok(()) => eprintln!("[chaos] outcomes in {}", path.display()),
            Err(e) => {
                eprintln!("[chaos] cannot write {}: {e}", path.display());
                return crate::EXIT_VIOLATION;
            }
        }
    }
    if violations > 0 {
        crate::EXIT_VIOLATION
    } else {
        crate::EXIT_OK
    }
}

pub fn run(opts: &HarnessOpts, _engine: &SweepEngine) -> u8 {
    // The campaign builds its own single-threaded engines: seeded kill
    // points and the global diskfault shim both need deterministic,
    // serialized I/O.
    campaign(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canary's own must-go-red: it passes the real verifier and
    /// names a verifier that strips the suffix without checking it.
    #[test]
    fn canary_catches_a_verifier_that_does_not_verify() {
        let unverified =
            |line: &str| Ok::<_, String>(format!("{}}}", &line[..line.len() - CRC_SUFFIX_LEN]));
        for seed in 0..8 {
            let (mut rng, mut same_rng) = (seed, seed);
            let verdict = canary(seed, &mut rng, check_line);
            assert!(verdict.is_ok(), "seed {seed}: {verdict:?}");
            let violation = canary(seed, &mut same_rng, unverified).expect_err("must go red");
            assert!(violation.contains("checksum verification is disabled"), "{violation}");
        }
    }
}
