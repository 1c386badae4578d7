//! Job lifecycle: the admission-controlled queue, per-job state machine
//! and the persistent poison list.
//!
//! States move `Queued → Running → {Done, Failed, Cancelled, Expired}`;
//! a queued job can also go straight to `Cancelled`. Cancellation and
//! deadlines ride the job's [`CancelToken`]: the executor's engine checks
//! it at every cell boundary, so both stop at the next boundary with the
//! journal left consistent (`interrupted` records for unstarted cells).
//!
//! The poison list is the service's forensic memory: a cell (by cache
//! key) that panics accumulates strikes in `poison.jsonl`; at the
//! configured threshold it is *quarantined* — reported with its last
//! panic message, never executed again, so one deterministic crasher
//! cannot wedge the daemon in a retry loop across restarts.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use vtq::jsonl::{parse_line, Record};
use vtq::prelude::CancelToken;
use vtq::sweep::RunMatrix;

use crate::proto::SubmitSpec;

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
    /// Content fingerprint of the spec (journal scope + resubmission
    /// identity; see [`crate::proto::spec_fingerprint`]).
    pub spec_fingerprint: u64,
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
}

/// The admission-controlled registry: bounded queue, per-tenant quotas,
/// job lookup. All methods take `&mut self`; the server wraps it in its
/// state mutex.
#[derive(Debug, Default)]
pub struct Registry {
    jobs: Vec<Job>,
    queue: Vec<usize>,
    next_seq: usize,
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
        spec_fingerprint: u64,
        plan: Arc<Plan>,
        max_queue: usize,
        tenant_quota: usize,
    ) -> Result<Job, AdmitError> {
        if self.queue.len() >= max_queue {
            prof::add(prof::Counter::JobsRejected, 1);
            return Err(AdmitError::QueueFull);
        }
        let active = self
            .jobs
            .iter()
            .filter(|j| !j.state.terminal() && j.spec.tenant == spec.tenant)
            .count();
        if active >= tenant_quota {
            prof::add(prof::Counter::JobsRejected, 1);
            return Err(AdmitError::QuotaExceeded);
        }
        let token = match spec.deadline {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        };
        let job = Job {
            id: format!("j{}", self.next_seq),
            spec,
            spec_fingerprint,
            plan,
            state: JobState::Queued,
            token,
            done_cells: 0,
            cached_cells: 0,
            failed_cells: 0,
        };
        self.next_seq += 1;
        self.queue.push(self.jobs.len());
        self.jobs.push(job.clone());
        prof::add(prof::Counter::JobsAccepted, 1);
        Ok(job)
    }

    /// Pops the oldest queued job and marks it running. `None` when the
    /// queue is empty.
    pub fn take_next(&mut self) -> Option<Job> {
        while !self.queue.is_empty() {
            let index = self.queue.remove(0);
            let job = &mut self.jobs[index];
            // A job cancelled while queued never reaches the executor.
            if job.state == JobState::Queued {
                job.state = JobState::Running;
                return Some(job.clone());
            }
        }
        None
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: &str) -> Option<&mut Job> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    /// Cancels a job: a queued one settles as `Cancelled` immediately; a
    /// running one has its token cancelled and settles when the executor
    /// reaches the next cell boundary. Returns whether the id existed
    /// and was still cancellable.
    pub fn cancel(&mut self, id: &str) -> bool {
        let Some(job) = self.get_mut(id) else { return false };
        if job.state.terminal() {
            return false;
        }
        job.token.cancel();
        if job.state == JobState::Queued {
            job.state = JobState::Cancelled;
            // Free the queue slot immediately: admission control bounds
            // on `queue.len()`, and a cancelled ghost must not keep
            // rejecting live submissions.
            let idx = self.jobs.iter().position(|j| j.id == id).unwrap();
            self.queue.retain(|&queued| queued != idx);
        }
        prof::add(prof::Counter::JobsCancelled, 1);
        true
    }

    /// Counts by state for the service summary: `(queued, running,
    /// finished)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for job in &self.jobs {
            match job.state {
                JobState::Queued => counts.0 += 1,
                JobState::Running => counts.1 += 1,
                _ => counts.2 += 1,
            }
        }
        counts
    }

    /// All jobs (diagnostics/tests).
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
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
    /// anything" would be useless).
    pub fn open(service_dir: &Path, threshold: u32) -> io::Result<PoisonList> {
        let path = service_dir.join(POISON_FILE);
        let mut strikes: HashMap<String, (u32, String)> = HashMap::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    // An unparseable line is the torn tail of a hard kill.
                    let Ok(f) = parse_line(line) else { continue };
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
            .finish();
        line.push('\n');
        let write = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
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
        let a = reg.admit(spec("alice"), 1, Arc::default(), 2, 2).unwrap();
        let b = reg.admit(spec("alice"), 1, Arc::default(), 2, 2).unwrap();
        assert_ne!(a.id, b.id);
        // Queue full (bound 2).
        assert!(matches!(
            reg.admit(spec("bob"), 1, Arc::default(), 2, 2),
            Err(AdmitError::QueueFull)
        ));
        // Drain one; alice is now at her quota of 2 active (1 running,
        // 1 queued), bob is fine.
        let running = reg.take_next().unwrap();
        assert_eq!(running.id, a.id);
        assert!(matches!(
            reg.admit(spec("alice"), 1, Arc::default(), 8, 2),
            Err(AdmitError::QuotaExceeded)
        ));
        assert!(reg.admit(spec("bob"), 1, Arc::default(), 8, 2).is_ok());
        let (queued, run, finished) = reg.counts();
        assert_eq!((queued, run, finished), (2, 1, 0));
    }

    #[test]
    fn cancel_queued_job_never_runs() {
        let mut reg = Registry::default();
        let a = reg.admit(spec("t"), 1, Arc::default(), 8, 8).unwrap();
        let b = reg.admit(spec("t"), 1, Arc::default(), 8, 8).unwrap();
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
        let a = reg.admit(spec("t"), 1, Arc::default(), 8, 8).unwrap();
        let running = reg.take_next().unwrap();
        assert!(!running.token.is_cancelled());
        assert!(reg.cancel(&a.id));
        // The clone the executor holds shares the token.
        assert!(running.token.is_cancelled());
        assert_eq!(reg.get(&a.id).unwrap().state, JobState::Running, "settles at cell boundary");
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
}
