//! The resident daemon: accept loop, admission control, the single
//! executor thread, and graceful shutdown.
//!
//! # Threading model
//!
//! One listener thread (the caller of [`Server::run`]) accepts
//! connections and spawns a handler thread per client; one *executor*
//! thread drains the bounded job queue, running one job at a time on the
//! shared [`SweepEngine`] worker pool (jobs multiplex onto the pool; the
//! pool parallelizes within a job). Handlers and the executor share the
//! [`ServeState`] behind coarse mutexes — every critical section is
//! bookkeeping, never simulation.
//!
//! # Durability
//!
//! The content-addressed [`ResultCache`] is the daemon's one record of
//! finished work. Every finished cell is written to it durably *inside*
//! the cell, before the cell settles `done`, so `cached ⇒ done` holds
//! across `kill -9` at any instant. A restart is a daemon started over
//! the same dir: a resubmitted job re-runs exactly the cells whose cache
//! entries are missing, with no lost cells and no duplicated work.
//!
//! # Degradation
//!
//! Slow or dead clients cannot wedge the daemon: sockets carry read and
//! write timeouts, and per-cell progress events flow through bounded
//! channels that drop (and count, via [`prof::Counter::EventsDropped`])
//! rather than block when a watcher stops draining.

use std::collections::HashMap;
use std::io::{self, BufRead as _, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use vtq::prelude::{
    CancelToken, Cell, CellErrorKind, ExperimentConfig, PreparedCache, SweepEngine,
};
use vtq::sweep::RunMatrix;

use crate::cache::ResultCache;
use crate::jobs::{AdmitError, Job, JobState, Plan, PoisonList, Registry};
use crate::proto::{CellRecord, Frame, RejectReason, Request, SubmitSpec};
use crate::wire::{self, FrameWriter};

/// File (inside the service dir) holding the bound address, so clients
/// can discover an ephemeral port.
pub const ADDR_FILE: &str = "serve.addr";

/// Per-watcher event buffer: small on purpose — a watcher that stops
/// draining loses *progress events* (counted), never results.
const EVENT_BUFFER: usize = 64;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Service state directory: result cache, poison list, address file.
    /// A daemon started over the dir of an earlier one serves what that
    /// one cached.
    pub dir: PathBuf,
    /// Bind address (`127.0.0.1:0` = ephemeral port).
    pub addr: String,
    /// Sweep-engine worker threads per job.
    pub jobs: usize,
    /// Bounded job-queue capacity; submissions beyond it are rejected
    /// `overloaded`.
    pub max_queue: usize,
    /// Max queued+running jobs per tenant; beyond it, rejected `quota`.
    pub tenant_quota: usize,
    /// Panics (strikes) before a cell is quarantined.
    pub poison_threshold: u32,
    /// Test seam: called in the executor at the start of every cell, with
    /// the job's cancel token. The in-process tests of admission,
    /// cancellation and quarantine set it to stall or panic; `None`
    /// everywhere else, and nothing on the wire can set it.
    #[doc(hidden)]
    pub before_cell: Option<fn(&SubmitSpec, &Cell, &CancelToken)>,
    /// Socket read/write timeout: a client slower than this is
    /// disconnected instead of holding a handler thread hostage.
    pub client_timeout: Duration,
}

impl ServerConfig {
    /// Defaults for a service rooted at `dir`: ephemeral port, queue of
    /// 16, tenant quota 4, quarantine after 2 strikes, 10 s client
    /// timeout.
    pub fn new(dir: PathBuf) -> ServerConfig {
        ServerConfig {
            dir,
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            max_queue: 16,
            tenant_quota: 4,
            poison_threshold: 2,
            before_cell: None,
            client_timeout: Duration::from_secs(10),
        }
    }
}

/// Builds the experiment configuration a submission asks for.
pub fn spec_config(spec: &SubmitSpec) -> ExperimentConfig {
    let mut cfg = if spec.quick { ExperimentConfig::quick() } else { ExperimentConfig::default() };
    if let Some(res) = spec.res {
        cfg.resolution = res;
    }
    if let Some(detail) = spec.detail {
        cfg.detail_divisor = detail;
    }
    cfg
}

impl SubmitSpec {
    /// The cells the submission names under [`spec_config`], scene-major,
    /// each labelled `SCENE/policy` and keyed, with the configuration's
    /// fingerprint: what the daemon runs, caches and serves, and what
    /// `--verify-local` re-runs. The configuration is fingerprinted once.
    pub fn plan(&self) -> Plan {
        let mut matrix = RunMatrix::new();
        let config_fingerprint = matrix.cross(&self.scenes, &spec_config(self), &self.policies);
        Plan { config_fingerprint, matrix }
    }
}

/// Shared daemon state.
struct ServeState {
    config: ServerConfig,
    registry: Mutex<Registry>,
    work: Condvar,
    poison: Mutex<PoisonList>,
    cache: ResultCache,
    prepared: Arc<PreparedCache>,
    watchers: Mutex<HashMap<String, SyncSender<Frame>>>,
    shutdown: AtomicBool,
}

impl ServeState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || vtq::durable::cancel_requested()
    }

    /// Streams one per-cell event to the job's watcher (if any), dropping
    /// on a full buffer — graceful degradation, with the loss counted.
    fn emit(&self, job_id: &str, label: &str, status: &str, cycles: u64, rays: u64) {
        let watchers = self.watchers.lock().unwrap();
        if let Some(tx) = watchers.get(job_id) {
            let frame = Frame::CellEvent {
                job: job_id.to_string(),
                label: label.to_string(),
                status: status.to_string(),
                cycles,
                rays,
            };
            match tx.try_send(frame) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => prof::add(prof::Counter::EventsDropped, 1),
                Err(TrySendError::Disconnected(_)) => {} // watcher went away
            }
        }
    }

    fn status_frame(&self, job: &Job) -> Frame {
        Frame::Status {
            job: job.id.clone(),
            state: job.state.label().to_string(),
            done_cells: job.done_cells,
            total_cells: job.plan.matrix.len(),
            cached_cells: job.cached_cells,
            failed_cells: job.failed_cells,
        }
    }
}

/// A bound (not yet running) daemon.
pub struct Server {
    state: Arc<ServeState>,
    listener: TcpListener,
    addr: SocketAddr,
}

/// Handle to a daemon running on a background thread (tests, harnesses).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's prepared-scene cache; its
    /// [`misses`](PreparedCache::misses) say what this daemon life
    /// actually had to construct, stage by stage.
    pub fn prepared(&self) -> &PreparedCache {
        &self.state.prepared
    }

    /// Requests shutdown and joins the daemon (drains in-flight cells).
    pub fn shutdown(self) -> io::Result<()> {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.thread.join().expect("server thread panicked")
    }
}

impl Server {
    /// Binds the daemon: opens the result cache and the poison list,
    /// binds the listener, and writes the resolved address to
    /// `dir/serve.addr`.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&config.dir)?;
        let cache = ResultCache::open(&config.dir)?;
        let poison = PoisonList::open(&config.dir, config.poison_threshold)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        std::fs::write(config.dir.join(ADDR_FILE), format!("{addr}\n"))?;
        // Nonblocking accept so the loop can poll shutdown + SIGINT.
        listener.set_nonblocking(true)?;
        let state = Arc::new(ServeState {
            registry: Mutex::new(Registry::default()),
            work: Condvar::new(),
            poison: Mutex::new(poison),
            cache,
            prepared: Arc::new(PreparedCache::new()),
            watchers: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            config,
        });
        Ok(Server { state, listener, addr })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the daemon until shutdown (a `shutdown` frame, a SIGINT via
    /// the process-global cancel flag, or [`ServerHandle::shutdown`]).
    /// In-flight cells drain; queued jobs settle `cancelled`.
    pub fn run(self) -> io::Result<()> {
        let executor = {
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || executor_loop(&state))
        };
        loop {
            if self.state.shutting_down() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || handle_client(&state, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: cancel every non-terminal job so the executor settles
        // the running one at its next cell boundary and skips the rest.
        self.state.registry.lock().unwrap().cancel_all();
        self.state.work.notify_all();
        executor.join().expect("executor thread panicked");
        Ok(())
    }

    /// Binds and runs on a background thread; returns once the address
    /// is live.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let addr = server.addr;
        let state = Arc::clone(&server.state);
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle { addr, state, thread })
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

fn executor_loop(state: &ServeState) {
    loop {
        let job = {
            let mut registry = state.registry.lock().unwrap();
            loop {
                if let Some(job) = registry.take_next() {
                    break Some(job);
                }
                if state.shutting_down() {
                    break None;
                }
                let (guard, _) =
                    state.work.wait_timeout(registry, Duration::from_millis(50)).unwrap();
                registry = guard;
            }
        };
        let Some(job) = job else { return };
        run_job(state, &job);
    }
}

fn run_job(state: &ServeState, job: &Job) {
    let cfg_fp = job.plan.config_fingerprint;

    // Partition quarantined cells out *before* the engine sees the
    // matrix: a quarantined cell must not execute.
    let mut matrix = job.plan.matrix.clone();
    let mut quarantined: Vec<(String, u32, String)> = Vec::new();
    {
        let poison = state.poison.lock().unwrap();
        matrix.retain(|cell, fp| {
            let key = ResultCache::key(cell.scene.name(), fp);
            if !poison.quarantined(&key) {
                return true;
            }
            let (strikes, detail) = poison.forensics(&key).unwrap();
            quarantined.push((cell.label.clone(), strikes, detail.to_string()));
            false
        });
    }
    for (label, strikes, detail) in &quarantined {
        eprintln!("[serve] {}: `{label}` quarantined after {strikes} strike(s): {detail}", job.id);
        state.emit(&job.id, label, "quarantined", 0, 0);
        bump(state, &job.id, |j| {
            j.failed_cells += 1;
            j.done_cells += 1;
        });
    }

    // A fresh engine per job, stopped by the job's token. Its cells are
    // found by their cache keys, which an identical job (resubmitted
    // after a crash, or from another tenant) shares byte for byte.
    let engine = SweepEngine::with_cache(state.config.jobs.max(1), Arc::clone(&state.prepared))
        .with_cancel(job.token.clone());

    // `run_cells`, not `run_map`: the result cache is probed first, and
    // scene + BVH + path trace are built only for a cell that misses.
    let results = engine.run_cells(&matrix, |cell, fp| {
        if let Some(hook) = state.config.before_cell {
            hook(&job.spec, cell, &job.token);
        }
        let key = ResultCache::key(cell.scene.name(), fp);
        if let Some(record) = state.cache.load(&key, cfg_fp) {
            note_cell(state, job, "cached", cell, fp, &record);
            return;
        }
        // A miss (never run, lost, or quarantined corrupt on load) is
        // simulated and stored durably INSIDE the cell, before it settles
        // `done`: `cached ⇒ done` must hold across a kill at any instant.
        let report = state.prepared.get(cell.scene, &cell.config).run_policy(cell.policy);
        let record = CellRecord {
            scene: cell.scene.name().to_string(),
            label: cell.label.clone(),
            fingerprint: fp,
            cycles: report.stats.cycles,
            rays: report.stats.rays_completed,
            box_tests: report.stats.box_tests,
            tri_tests: report.stats.tri_tests,
        };
        if let Err(e) = state.cache.store(&key, cfg_fp, &record) {
            eprintln!("[serve] cannot cache `{key}`: {e}");
        }
        note_cell(state, job, "done", cell, fp, &record);
    });

    // Settle the cells the closure did not: a panicked one strikes the
    // poison list; any other error is an interruption (the engine keeps
    // no journal, so it skips no cell).
    for ((cell, &fp), result) in matrix.cells().iter().zip(matrix.keys()).zip(&results) {
        let Err(e) = result else { continue };
        if e.kind != CellErrorKind::Panic {
            state.emit(&job.id, &cell.label, "interrupted", 0, 0);
            continue;
        }
        let key = ResultCache::key(cell.scene.name(), fp);
        let strikes = state.poison.lock().unwrap().strike(&key, &e.message);
        eprintln!(
            "[serve] {}: `{}` panicked (strike {strikes}/{}): {}",
            job.id, cell.label, state.config.poison_threshold, e.message
        );
        state.emit(&job.id, &cell.label, "failed", 0, 0);
        bump(state, &job.id, |j| {
            j.failed_cells += 1;
            j.done_cells += 1;
        });
    }

    // Terminal state: an explicit cancel beats a deadline expiry beats
    // plain completion.
    let terminal = if job.token.deadline_expired() {
        JobState::Expired
    } else if job.token.is_cancelled() {
        JobState::Cancelled
    } else {
        JobState::Done
    };
    state.registry.lock().unwrap().finish(&job.id, terminal);
    // Hang up the event channel: a watcher that already drained the last
    // event wakes now instead of at its next 50 ms poll.
    state.watchers.lock().unwrap().remove(&job.id);
}

fn bump(state: &ServeState, job_id: &str, f: impl FnOnce(&mut Job)) {
    let mut registry = state.registry.lock().unwrap();
    if let Some(j) = registry.get_mut(job_id) {
        f(j);
    }
}

/// Settles `cell` (keyed `fp`) of `job` with its record: counted, kept
/// for `results`, and streamed to the watcher.
fn note_cell(
    state: &ServeState,
    job: &Job,
    status: &str,
    cell: &Cell,
    fp: u64,
    record: &CellRecord,
) {
    bump(state, &job.id, |j| {
        j.done_cells += 1;
        if status == "cached" {
            j.cached_cells += 1;
        }
        j.keep_result(cell.scene, fp, record);
    });
    state.emit(&job.id, &record.label, status, record.cycles, record.rays);
}

// ---------------------------------------------------------------------------
// Client handlers
// ---------------------------------------------------------------------------

/// The daemon's end of a connection's write half.
type Wire = FrameWriter<TcpStream>;

/// Sends a complete single-frame reply; `false` when the client is gone.
fn reply(writer: &mut Wire, frame: &Frame) -> bool {
    writer.send(frame.to_line()).is_ok()
}

fn handle_client(state: &ServeState, stream: TcpStream) {
    // A socket that cannot take its timeouts could hold this thread
    // hostage: refuse it rather than serve it unprotected.
    if wire::configure(&stream, state.config.client_timeout).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => FrameWriter::new(w),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client hung up
            Ok(_) => {}
            Err(_) => return, // timeout (slow client) or reset
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let request = match Request::parse(trimmed) {
            Ok(request) => request,
            Err(detail) => {
                // A torn or malformed frame gets a typed rejection; the
                // connection stays usable for a corrected retry.
                let _ = reply(
                    &mut writer,
                    &Frame::Rejected { reason: RejectReason::BadRequest, detail },
                );
                continue;
            }
        };
        let keep_going = match request {
            Request::Submit(spec) => handle_submit(state, &mut writer, spec),
            Request::Status { job } => handle_status(state, &mut writer, job.as_deref()),
            Request::Cancel { job } => {
                let status = {
                    let mut registry = state.registry.lock().unwrap();
                    if registry.cancel(&job) {
                        registry.get(&job).map(|j| state.status_frame(j))
                    } else {
                        None
                    }
                };
                state.work.notify_all();
                let frame = status.unwrap_or_else(|| Frame::Rejected {
                    reason: RejectReason::BadRequest,
                    detail: format!("no cancellable job `{job}`"),
                });
                reply(&mut writer, &frame)
            }
            Request::Results { job } => handle_results(state, &mut writer, &job),
            Request::Shutdown => {
                let _ = reply(&mut writer, &Frame::ShuttingDown);
                state.shutdown.store(true, Ordering::SeqCst);
                state.work.notify_all();
                false
            }
        };
        if !keep_going {
            return;
        }
    }
}

fn handle_submit(state: &ServeState, writer: &mut Wire, spec: SubmitSpec) -> bool {
    if state.shutting_down() {
        let frame = Frame::Rejected {
            reason: RejectReason::ShuttingDown,
            detail: "daemon is draining".to_string(),
        };
        return reply(writer, &frame);
    }
    // A submission is outside input: a configuration no cell could run
    // (`res: 0`) is the client's error, refused before admission — not
    // two panicked attempts and a quarantine entry.
    if let Err(e) = spec_config(&spec).validate() {
        let frame = Frame::Rejected { reason: RejectReason::BadRequest, detail: e.to_string() };
        return reply(writer, &frame);
    }
    let plan = Arc::new(spec.plan());
    let cfg_fp = plan.config_fingerprint;
    // Provenance gate: a client pinned to a fingerprint (its own local
    // config) refuses to run against a skewed daemon — and vice versa.
    if let Some(expected) = spec.expect_fingerprint {
        if expected != cfg_fp {
            let frame = Frame::Rejected {
                reason: RejectReason::FingerprintMismatch,
                detail: format!("client expects {expected:#018x}, server computes {cfg_fp:#018x}"),
            };
            return reply(writer, &frame);
        }
    }
    let total_cells = plan.matrix.len();
    let watch = spec.watch;
    let admitted = {
        let mut registry = state.registry.lock().unwrap();
        let admitted =
            registry.admit(spec, plan, state.config.max_queue, state.config.tenant_quota);
        // Register the watcher before releasing the registry lock: the
        // executor cannot dequeue the job until we release, so no event
        // can be emitted before the watcher exists.
        if let (Ok(job), true) = (&admitted, watch) {
            let (tx, rx) = sync_channel(EVENT_BUFFER);
            state.watchers.lock().unwrap().insert(job.id.clone(), tx);
            drop(registry);
            state.work.notify_all();
            let job = job.clone();
            // Buffered, not sent: `stream_watch` flushes it together with
            // whatever events are already waiting.
            let accepted =
                Frame::Accepted { job: job.id.clone(), fingerprint: cfg_fp, cells: total_cells };
            if writer.append(accepted.to_line()).is_err() {
                state.watchers.lock().unwrap().remove(&job.id);
                return false;
            }
            return stream_watch(state, writer, &job.id, &rx);
        }
        admitted
    };
    state.work.notify_all();
    let frame = match admitted {
        Ok(job) => Frame::Accepted { job: job.id, fingerprint: cfg_fp, cells: total_cells },
        Err(AdmitError::QueueFull) => Frame::Rejected {
            reason: RejectReason::Overloaded,
            detail: format!("job queue full ({})", state.config.max_queue),
        },
        Err(AdmitError::QuotaExceeded) => Frame::Rejected {
            reason: RejectReason::QuotaExceeded,
            detail: format!("tenant quota reached ({})", state.config.tenant_quota),
        },
    };
    reply(writer, &frame)
}

/// Forwards events until the job reaches a terminal state, then sends
/// the terminal status frame. The terminal frame comes from the
/// *registry*, not the event channel, so a full (degraded) channel can
/// never lose the one frame the client must see. Frames accumulate in
/// the writer while events keep arriving and go out whenever the
/// channel is momentarily empty, so a burst is one write and a trickle
/// is still live.
fn stream_watch(
    state: &ServeState,
    writer: &mut Wire,
    job_id: &str,
    rx: &std::sync::mpsc::Receiver<Frame>,
) -> bool {
    use std::sync::mpsc::RecvTimeoutError;
    let ok = loop {
        let event = match rx.try_recv() {
            Ok(frame) => Ok(frame),
            Err(_) => {
                if writer.flush().is_err() {
                    break false; // watcher hung up; job keeps running
                }
                rx.recv_timeout(Duration::from_millis(50))
            }
        };
        let hung_up = match event {
            Ok(frame) => {
                if writer.append(frame.to_line()).is_err() {
                    break false;
                }
                false
            }
            Err(RecvTimeoutError::Timeout) => false,
            // The executor settled the job and dropped the sender.
            Err(RecvTimeoutError::Disconnected) => true,
        };
        let terminal = {
            let registry = state.registry.lock().unwrap();
            registry.get(job_id).map(|j| (j.state.terminal(), state.status_frame(j)))
        };
        if let Some((true, status)) = terminal {
            // Drain events that raced the state change, then finish.
            while let Ok(frame) = rx.try_recv() {
                if writer.append(frame.to_line()).is_err() {
                    break;
                }
            }
            break writer.append(status.to_line()).is_ok();
        }
        if hung_up {
            break true;
        }
    };
    state.watchers.lock().unwrap().remove(job_id);
    ok && writer.flush().is_ok()
}

fn handle_status(state: &ServeState, writer: &mut Wire, job: Option<&str>) -> bool {
    let frame = match job {
        Some(id) => {
            let registry = state.registry.lock().unwrap();
            match registry.get(id) {
                Some(job) => state.status_frame(job),
                None => unknown_job(id),
            }
        }
        None => {
            let (queued, running, finished) = state.registry.lock().unwrap().counts();
            let poisoned = state.poison.lock().unwrap().quarantined_count();
            Frame::Summary { queued, running, finished, poisoned }
        }
    };
    reply(writer, &frame)
}

/// The reply to an id the registry does not hold: never issued, issued
/// by an earlier daemon life, or forgotten (see
/// [`crate::jobs::FINISHED_JOBS_KEPT`]).
fn unknown_job(id: &str) -> Frame {
    Frame::Rejected { reason: RejectReason::BadRequest, detail: format!("unknown job `{id}`") }
}

/// Answers `results` from the records the job itself settled, in plan
/// order; a running job lists the cells it has settled so far.
fn handle_results(state: &ServeState, writer: &mut Wire, job_id: &str) -> bool {
    let records = state.registry.lock().unwrap().get(job_id).map(Job::results);
    let Some(records) = records else { return reply(writer, &unknown_job(job_id)) };
    let cells = records.len();
    for record in records {
        if writer.append(Frame::CellResult(record).to_line()).is_err() {
            return false;
        }
    }
    reply(writer, &Frame::ResultsEnd { cells })
}
