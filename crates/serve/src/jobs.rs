//! Job lifecycle: the admission-controlled queue, per-job state machine
//! and the persistent poison list.
//!
//! States move `Queued → Running → {Done, Failed, Cancelled, Expired}`;
//! a queued job can also go straight to `Cancelled`. Cancellation and
//! deadlines ride the job's [`CancelToken`]: the executor's engine checks
//! it at every cell boundary, so both stop at the next boundary; cells
//! not yet started settle `interrupted` and are neither run nor cached.
//!
//! The poison list is the service's forensic memory and, beside the
//! result cache, its only durable state: a cell (by cache key) that
//! panics accumulates checksum-framed strikes in `poison.jsonl`; at the
//! configured threshold it is *quarantined* — reported with its last
//! panic message, never executed again, so one deterministic crasher
//! cannot wedge the daemon in a retry loop across restarts.

use std::collections::{HashMap, VecDeque};
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rtscene::lumibench::SceneId;
use vtq::jsonl::{check_line, parse_line, Record};
use vtq::prelude::CancelToken;
use vtq::sweep::RunMatrix;

use crate::proto::{CellRecord, SubmitSpec};

/// Terminal and non-terminal states of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for the executor.
    Queued,
    /// The executor is sweeping its cells.
    Running,
    /// All cells settled (some may still have failed individually).
    Done,
    /// Cancelled by request before finishing.
    Cancelled,
    /// Its deadline passed before finishing.
    Expired,
}

impl JobState {
    /// Stable wire string.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
        }
    }

    /// Whether the state is terminal.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Expired)
    }
}

/// What a job runs, derived from its [`SubmitSpec`] once (see
/// [`SubmitSpec::plan`]) and read by everything that addresses its
/// cells: the quarantine partition, the executor, the settle loop and
/// `results`.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// [`vtq::sweep::config_fingerprint`] of the spec's configuration:
    /// the provenance stamp of every result-cache entry the job reads or
    /// writes.
    pub config_fingerprint: u64,
    /// The cells, scene-major, each labelled `SCENE/policy` and keyed by
    /// its [`vtq::sweep::cell_key_fingerprint`].
    pub matrix: RunMatrix,
}

/// One admitted job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Server-assigned id (`j<seq>`).
    pub id: String,
    /// The submission.
    pub spec: SubmitSpec,
    /// The cells the spec names (all of them, quarantined ones
    /// included), shared by every clone of the job.
    pub plan: Arc<Plan>,
    /// Current state.
    pub state: JobState,
    /// Cancellation/deadline token shared with the executor's engine.
    pub token: CancelToken,
    /// Cells settled so far.
    pub done_cells: usize,
    /// Cells served from the result cache.
    pub cached_cells: usize,
    /// Cells that panicked (including quarantined skips).
    pub failed_cells: usize,
    /// What each cell the job settled measured, in plan order: `None`
    /// for a cell not settled (yet), failed, quarantined or interrupted.
    /// Empty until the first cell settles.
    measured: Vec<Option<Measured>>,
}

/// A [`CellRecord`] less the scene, label and fingerprint that its plan
/// cell already names.
#[derive(Debug, Clone, Copy)]
struct Measured {
    cycles: u64,
    rays: u64,
    box_tests: u64,
    tri_tests: u64,
}

impl Job {
    /// Keeps `record` as the result of the plan cell of `scene` keyed
    /// `key` (the first such cell not settled yet: a plan may name a cell
    /// twice).
    pub fn keep_result(&mut self, scene: SceneId, key: u64, record: &CellRecord) {
        if self.measured.is_empty() {
            self.measured = vec![None; self.plan.matrix.len()];
        }
        let Plan { matrix, .. } = &*self.plan;
        let slot =
            matrix.cells().iter().zip(matrix.keys()).zip(&mut self.measured).find(
                |((cell, &k), measured)| cell.scene == scene && k == key && measured.is_none(),
            );
        if let Some((_, measured)) = slot {
            *measured = Some(Measured {
                cycles: record.cycles,
                rays: record.rays,
                box_tests: record.box_tests,
                tri_tests: record.tri_tests,
            });
        }
    }

    /// The records of the cells the job has settled so far, in plan
    /// order: what `results` answers.
    pub fn results(&self) -> Vec<CellRecord> {
        let Plan { matrix, .. } = &*self.plan;
        matrix
            .cells()
            .iter()
            .zip(matrix.keys())
            .zip(&self.measured)
            .filter_map(|((cell, &fingerprint), measured)| {
                let m = (*measured)?;
                Some(CellRecord {
                    scene: cell.scene.name().to_string(),
                    label: cell.label.clone(),
                    fingerprint,
                    cycles: m.cycles,
                    rays: m.rays,
                    box_tests: m.box_tests,
                    tri_tests: m.tri_tests,
                })
            })
            .collect()
    }
}

/// How many finished jobs the registry remembers. Beyond it the job that
/// finished longest ago is forgotten, and its id gets the `unknown job`
/// reply every id gets after a restart, so a resident daemon's lookups
/// and memory do not grow with uptime. Queued and running jobs are never
/// forgotten. A job keeps its plan, about 20 KB of cells for the 14 × 3
/// Fig 10 matrix, so 256 finished jobs cost a few MB.
pub const FINISHED_JOBS_KEPT: usize = 256;

/// The admission-controlled registry: bounded queue, per-tenant quotas,
/// job lookup. All methods take `&mut self`; the server wraps it in its
/// state mutex.
#[derive(Debug, Default)]
pub struct Registry {
    /// The jobs not forgotten, by sequence number (job `j<seq>`).
    jobs: HashMap<usize, Job>,
    /// Queued jobs, oldest first.
    queue: VecDeque<usize>,
    /// Queued and running jobs.
    active: Vec<usize>,
    /// Finished jobs not forgotten, in the order they finished.
    finished: VecDeque<usize>,
    /// Jobs finished since the registry was created, forgotten ones
    /// included.
    finished_total: usize,
    next_seq: usize,
}

/// The sequence number of id `j<seq>`; `None` for any id the registry
/// never issues (`j`, `j01`, `j+1`, `x3`).
fn seq(id: &str) -> Option<usize> {
    let digits = id.strip_prefix('j')?;
    let canonical =
        digits.bytes().all(|b| b.is_ascii_digit()) && (digits == "0" || !digits.starts_with('0'));
    if canonical {
        digits.parse().ok()
    } else {
        None
    }
}

/// Why admission refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The bounded queue is at capacity.
    QueueFull,
    /// The tenant is at its queued+running quota.
    QuotaExceeded,
}

impl Registry {
    /// Admits `spec` under the given limits, arming its deadline token
    /// from *now* (queue wait counts against the deadline — an overloaded
    /// daemon must not silently stretch a client's budget).
    pub fn admit(
        &mut self,
        spec: SubmitSpec,
        plan: Arc<Plan>,
        max_queue: usize,
        tenant_quota: usize,
    ) -> Result<Job, AdmitError> {
        if self.queue.len() >= max_queue {
            prof::add(prof::Counter::JobsRejected, 1);
            return Err(AdmitError::QueueFull);
        }
        let active = self.active.iter().filter(|seq| self.jobs[seq].spec.tenant == spec.tenant);
        if active.count() >= tenant_quota {
            prof::add(prof::Counter::JobsRejected, 1);
            return Err(AdmitError::QuotaExceeded);
        }
        let token = match spec.deadline {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        };
        let seq = self.next_seq;
        let job = Job {
            id: format!("j{seq}"),
            spec,
            plan,
            state: JobState::Queued,
            token,
            done_cells: 0,
            cached_cells: 0,
            failed_cells: 0,
            measured: Vec::new(),
        };
        self.next_seq += 1;
        self.queue.push_back(seq);
        self.active.push(seq);
        self.jobs.insert(seq, job.clone());
        prof::add(prof::Counter::JobsAccepted, 1);
        Ok(job)
    }

    /// Pops the oldest queued job and marks it running. `None` when the
    /// queue is empty.
    pub fn take_next(&mut self) -> Option<Job> {
        let seq = self.queue.pop_front()?;
        let job = self.jobs.get_mut(&seq).expect("a queued job is never forgotten");
        job.state = JobState::Running;
        Some(job.clone())
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<&Job> {
        self.jobs.get(&seq(id)?)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: &str) -> Option<&mut Job> {
        self.jobs.get_mut(&seq(id)?)
    }

    /// Cancels a job: a queued one settles as `Cancelled` immediately; a
    /// running one has its token cancelled and settles when the executor
    /// reaches the next cell boundary. Returns whether the id existed
    /// and was still cancellable.
    pub fn cancel(&mut self, id: &str) -> bool {
        seq(id).is_some_and(|seq| self.cancel_seq(seq))
    }

    /// Cancels every queued and running job (daemon drain).
    pub fn cancel_all(&mut self) {
        for seq in self.active.clone() {
            self.cancel_seq(seq);
        }
    }

    fn cancel_seq(&mut self, seq: usize) -> bool {
        let Some(job) = self.jobs.get(&seq) else { return false };
        if job.state.terminal() {
            return false;
        }
        job.token.cancel();
        if job.state == JobState::Queued {
            // Free the queue slot immediately: admission control bounds
            // on `queue.len()`, and a cancelled ghost must not keep
            // rejecting live submissions.
            self.queue.retain(|&queued| queued != seq);
            self.settle(seq, JobState::Cancelled);
        }
        prof::add(prof::Counter::JobsCancelled, 1);
        true
    }

    /// Moves job `id` to the terminal `state`; a job already terminal
    /// keeps its own.
    pub fn finish(&mut self, id: &str, state: JobState) {
        if let Some(seq) = seq(id) {
            self.settle(seq, state);
        }
    }

    fn settle(&mut self, seq: usize, state: JobState) {
        debug_assert!(state.terminal());
        let Some(job) = self.jobs.get_mut(&seq) else { return };
        if job.state.terminal() {
            return;
        }
        job.state = state;
        self.active.retain(|&active| active != seq);
        self.finished.push_back(seq);
        self.finished_total += 1;
        if self.finished.len() > FINISHED_JOBS_KEPT {
            let oldest = self.finished.pop_front().expect("more than the bound");
            self.jobs.remove(&oldest);
        }
    }

    /// Counts by state for the service summary: `(queued, running,
    /// finished)`, the last counting forgotten jobs too.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.queue.len(), self.active.len() - self.queue.len(), self.finished_total)
    }
}

/// File name of the poison list inside the service directory.
pub const POISON_FILE: &str = "poison.jsonl";

/// The persistent per-cell strike counter. Strikes survive daemon
/// restarts (append-only `poison.jsonl`, replayed on open), so a cell
/// that crashes the sweep N times total — across any number of daemon
/// lifetimes — is quarantined, not retried forever.
#[derive(Debug)]
pub struct PoisonList {
    path: PathBuf,
    threshold: u32,
    strikes: HashMap<String, (u32, String)>,
}

impl PoisonList {
    /// Opens (replaying) `service_dir/poison.jsonl`. `threshold` strikes
    /// quarantine a cell; 0 is clamped to 1 (a threshold of "never run
    /// anything" would be useless). A line failing its checksum is
    /// skipped with a warning: a flipped bit in its key would otherwise
    /// strike another cell.
    pub fn open(service_dir: &Path, threshold: u32) -> io::Result<PoisonList> {
        let path = service_dir.join(POISON_FILE);
        let mut strikes: HashMap<String, (u32, String)> = HashMap::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for (n, line) in text.lines().enumerate() {
                    let payload = match check_line(line) {
                        Ok(payload) => payload,
                        Err(e) => {
                            eprintln!("[poison] {}:{}: skipped: {e}", path.display(), n + 1);
                            continue;
                        }
                    };
                    // An unparseable line is the torn tail of a hard kill.
                    let Ok(f) = parse_line(&payload) else { continue };
                    if f.record() != Some("poison") {
                        continue;
                    }
                    let (Ok(key), Ok(detail)) = (f.str("key"), f.str("detail")) else { continue };
                    let entry = strikes.entry(key.into_owned()).or_insert((0, String::new()));
                    entry.0 += 1;
                    entry.1 = detail.into_owned();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(PoisonList { path, threshold: threshold.max(1), strikes })
    }

    /// Records one strike (a panic) against `key`, appending it durably.
    /// Returns the new strike count.
    pub fn strike(&mut self, key: &str, detail: &str) -> u32 {
        let entry = self.strikes.entry(key.to_string()).or_insert((0, String::new()));
        entry.0 += 1;
        entry.1 = detail.to_string();
        let count = entry.0;
        if count == self.threshold {
            prof::add(prof::Counter::CellsQuarantined, 1);
        }
        let mut line = Record::new("poison")
            .str("key", key)
            .num("strikes", count)
            .str("detail", detail)
            .framed();
        line.push('\n');
        // Strikes are rare (each is a panic), so each is synced.
        let write = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(line.as_bytes()).and_then(|()| f.sync_data()));
        if let Err(e) = write {
            eprintln!("[poison] cannot persist strike for `{key}`: {e}");
        }
        count
    }

    /// Whether `key` has reached the quarantine threshold.
    pub fn quarantined(&self, key: &str) -> bool {
        self.strikes.get(key).is_some_and(|(count, _)| *count >= self.threshold)
    }

    /// Forensics for a quarantined cell: `(strike count, last panic
    /// message)`.
    pub fn forensics(&self, key: &str) -> Option<(u32, &str)> {
        self.strikes.get(key).map(|(count, detail)| (*count, detail.as_str()))
    }

    /// Number of quarantined cell keys.
    pub fn quarantined_count(&self) -> usize {
        self.strikes.values().filter(|(count, _)| *count >= self.threshold).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenant: &str) -> SubmitSpec {
        SubmitSpec { tenant: tenant.to_string(), ..SubmitSpec::default() }
    }

    #[test]
    fn admission_enforces_queue_bound_and_quota() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("alice"), Arc::default(), 2, 2).unwrap();
        let b = reg.admit(spec("alice"), Arc::default(), 2, 2).unwrap();
        assert_ne!(a.id, b.id);
        // Queue full (bound 2).
        assert!(matches!(reg.admit(spec("bob"), Arc::default(), 2, 2), Err(AdmitError::QueueFull)));
        // Drain one; alice is now at her quota of 2 active (1 running,
        // 1 queued), bob is fine.
        let running = reg.take_next().unwrap();
        assert_eq!(running.id, a.id);
        assert!(matches!(
            reg.admit(spec("alice"), Arc::default(), 8, 2),
            Err(AdmitError::QuotaExceeded)
        ));
        assert!(reg.admit(spec("bob"), Arc::default(), 8, 2).is_ok());
        let (queued, run, finished) = reg.counts();
        assert_eq!((queued, run, finished), (2, 1, 0));
    }

    #[test]
    fn cancel_queued_job_never_runs() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("t"), Arc::default(), 8, 8).unwrap();
        let b = reg.admit(spec("t"), Arc::default(), 8, 8).unwrap();
        assert!(reg.cancel(&a.id));
        assert!(!reg.cancel(&a.id), "terminal jobs cannot be re-cancelled");
        assert!(!reg.cancel("j999"), "unknown id");
        // The cancelled job is skipped by the executor.
        assert_eq!(reg.take_next().unwrap().id, b.id);
        assert!(reg.take_next().is_none());
        assert_eq!(reg.get(&a.id).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn cancel_running_job_flips_its_token() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("t"), Arc::default(), 8, 8).unwrap();
        let running = reg.take_next().unwrap();
        assert!(!running.token.is_cancelled());
        assert!(reg.cancel(&a.id));
        // The clone the executor holds shares the token.
        assert!(running.token.is_cancelled());
        assert_eq!(reg.get(&a.id).unwrap().state, JobState::Running, "settles at cell boundary");
    }

    /// Admits a job of `tenant` and cancels it while it is queued.
    fn cancelled(reg: &mut Registry, tenant: &str) -> String {
        let job = reg.admit(spec(tenant), Arc::default(), 8, 8).unwrap();
        assert!(reg.cancel(&job.id));
        job.id
    }

    #[test]
    fn finished_jobs_beyond_the_bound_are_forgotten_oldest_first() {
        let mut reg = Registry::default();
        let running = reg.admit(spec("t"), Arc::default(), 8, 8).unwrap().id;
        assert_eq!(reg.take_next().unwrap().id, running);
        let first = cancelled(&mut reg, "t");
        for _ in 1..FINISHED_JOBS_KEPT {
            cancelled(&mut reg, "t");
        }
        assert!(reg.get(&first).is_some(), "the bound itself is kept");
        let queued = reg.admit(spec("t"), Arc::default(), 8, 8).unwrap().id;
        let second = cancelled(&mut reg, "t");
        assert!(reg.get(&first).is_none(), "the oldest finished job is forgotten");
        assert_eq!(reg.get(&second).unwrap().state, JobState::Cancelled);
        for _ in 0..2 * FINISHED_JOBS_KEPT {
            cancelled(&mut reg, "t");
        }
        // Queued and running jobs outlive any number of finished ones.
        assert_eq!(reg.get(&running).unwrap().state, JobState::Running);
        assert_eq!(reg.get(&queued).unwrap().state, JobState::Queued);
        assert_eq!(reg.counts(), (1, 1, 3 * FINISHED_JOBS_KEPT + 1));
        assert_eq!(reg.jobs.len(), FINISHED_JOBS_KEPT + 2);

        // A job that finishes is the newest finished one, whatever its
        // id: it is kept for the next `FINISHED_JOBS_KEPT - 1` finishes.
        reg.finish(&running, JobState::Done);
        assert_eq!(reg.take_next().unwrap().id, queued);
        reg.finish(&queued, JobState::Expired);
        reg.finish(&queued, JobState::Done);
        assert_eq!(reg.get(&queued).unwrap().state, JobState::Expired, "terminal stays");
        for _ in 2..FINISHED_JOBS_KEPT {
            cancelled(&mut reg, "t");
        }
        assert_eq!(reg.get(&running).unwrap().state, JobState::Done);
        cancelled(&mut reg, "t");
        assert!(reg.get(&running).is_none());
        assert!(reg.get(&queued).is_some());
        assert!(!reg.cancel(&running), "a forgotten id cannot be cancelled");
        assert_eq!(reg.counts(), (0, 0, 4 * FINISHED_JOBS_KEPT + 2));
    }

    #[test]
    fn only_ids_the_registry_issued_are_found() {
        let mut reg = Registry::default();
        for _ in 0..12 {
            reg.admit(spec("t"), Arc::default(), 16, 16).unwrap();
        }
        assert_eq!(reg.get("j0").unwrap().id, "j0");
        assert_eq!(reg.get("j11").unwrap().id, "j11");
        for id in [
            "j",
            "j01",
            "j01x",
            "j1x",
            "x3",
            "j+1",
            "j-1",
            " j1",
            "J1",
            "",
            "j12",
            "j99999999999999999999999",
        ] {
            assert!(reg.get(id).is_none(), "`{id}`");
            assert!(reg.get_mut(id).is_none(), "`{id}`");
            assert!(!reg.cancel(id), "`{id}`");
        }
    }

    #[test]
    fn the_tenant_quota_counts_only_queued_and_running_jobs() {
        let mut reg = Registry::default();
        for _ in 0..3 * FINISHED_JOBS_KEPT {
            cancelled(&mut reg, "alice");
        }
        let first = reg.admit(spec("alice"), Arc::default(), 8, 2).unwrap();
        reg.admit(spec("alice"), Arc::default(), 8, 2).unwrap();
        assert_eq!(
            reg.admit(spec("alice"), Arc::default(), 8, 2).unwrap_err(),
            AdmitError::QuotaExceeded
        );
        assert!(reg.admit(spec("bob"), Arc::default(), 8, 2).is_ok());
        // Running still counts; finishing frees the slot.
        assert_eq!(reg.take_next().unwrap().id, first.id);
        assert_eq!(
            reg.admit(spec("alice"), Arc::default(), 8, 2).unwrap_err(),
            AdmitError::QuotaExceeded
        );
        reg.finish(&first.id, JobState::Done);
        assert!(reg.admit(spec("alice"), Arc::default(), 8, 2).is_ok());
    }

    #[test]
    fn results_are_the_settled_cells_in_plan_order() {
        let mut spec = spec("t");
        spec.scenes = vec![SceneId::Ref, SceneId::Bunny, SceneId::Ref];
        let plan = Arc::new(spec.plan());
        let keys = plan.matrix.keys().to_vec();
        let mut reg = Registry::default();
        let id = reg.admit(spec, Arc::clone(&plan), 8, 8).unwrap().id;
        let record = |i: usize| CellRecord {
            scene: plan.matrix.cells()[i].scene.name().to_string(),
            label: plan.matrix.cells()[i].label.clone(),
            fingerprint: keys[i],
            cycles: 100 + i as u64,
            rays: 7,
            box_tests: 8,
            tri_tests: 9,
        };
        let job = reg.get_mut(&id).unwrap();
        assert!(job.results().is_empty());
        // Settled out of order. A cell's key names its configuration and
        // policy, not its scene (BUNNY shares REF's); REF appears twice,
        // and its second settle takes the second slot.
        job.keep_result(SceneId::Bunny, keys[1], &record(1));
        job.keep_result(SceneId::Ref, keys[0], &record(0));
        assert_eq!(job.results(), vec![record(0), record(1)]);
        job.keep_result(SceneId::Ref, keys[2], &record(0));
        assert_eq!(job.results(), vec![record(0), record(1), record(0)]);
    }

    #[test]
    fn poison_list_persists_strikes_across_reopen() {
        let dir = std::env::temp_dir().join(format!("vtq-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut poison = PoisonList::open(&dir, 2).unwrap();
        assert!(!poison.quarantined("REF-abc"));
        assert_eq!(poison.strike("REF-abc", "panic: first"), 1);
        assert!(!poison.quarantined("REF-abc"), "below threshold");
        drop(poison);

        // Strikes survive a restart; the second strike quarantines.
        let mut poison = PoisonList::open(&dir, 2).unwrap();
        assert_eq!(poison.strike("REF-abc", "panic: second"), 2);
        assert!(poison.quarantined("REF-abc"));
        let (count, detail) = poison.forensics("REF-abc").unwrap();
        assert_eq!(count, 2);
        assert_eq!(detail, "panic: second");
        assert_eq!(poison.quarantined_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bit flipped inside a strike's key leaves a line that still
    /// parses, naming another key; its checksum refuses it, so it strikes
    /// neither key.
    #[test]
    fn a_flipped_strike_strikes_no_cell() {
        let dir = std::env::temp_dir().join(format!("vtq-poison-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (key, flipped) = ("REF-00000000000000a1", "REF-00000000000000a3");

        PoisonList::open(&dir, 1).unwrap().strike(key, "panic: once");
        let path = dir.join(POISON_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let at = text.find(key).unwrap() + key.len() - 1;
        let mut bytes = text.into_bytes();
        bytes[at] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        assert!(parse_line(std::str::from_utf8(&bytes).unwrap().trim_end()).is_ok());

        let poison = PoisonList::open(&dir, 1).unwrap();
        assert!(poison.forensics(key).is_none());
        assert!(poison.forensics(flipped).is_none());
        assert_eq!(poison.quarantined_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
