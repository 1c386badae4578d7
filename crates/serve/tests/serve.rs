//! End-to-end tests of the daemon: protocol round trips, admission
//! control, deadlines and cancellation, poison quarantine, crash-style
//! recovery through the cache, and the deterministic chaos campaign.
//!
//! Every test runs its own daemon on an ephemeral port with its own
//! service directory, so tests are independent and parallel-safe. The
//! submitted jobs use tiny configurations (8x8, detail 1/64) so a cell
//! simulates in milliseconds.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use vtq::prelude::{config_fingerprint, CancelToken, Cell, StageCounts};
use vtq_serve::jobs::FINISHED_JOBS_KEPT;
use vtq_serve::proto::{parse_policy, parse_scene};
use vtq_serve::server::spec_config;
use vtq_serve::{
    Client, Frame, RejectReason, Request, ResultCache, Server, ServerConfig, SubmitSpec,
};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtq-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_spec() -> SubmitSpec {
    SubmitSpec { res: Some(8), detail: Some(64), ..SubmitSpec::default() }
}

fn config(dir: PathBuf) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    config.jobs = 2;
    config
}

/// `before_cell` hook: a job of a tenant named `stall…` cannot finish on
/// its own — its cells wait (for up to a minute) to be cancelled — so it
/// holds the executor deterministically busy while shutdown stays fast.
fn stall_until_cancelled(spec: &SubmitSpec, _cell: &Cell, token: &CancelToken) {
    if !spec.tenant.starts_with("stall") {
        return;
    }
    let until = Instant::now() + Duration::from_secs(60);
    while Instant::now() < until && !token.is_cancelled() {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `before_cell` hook: the `REF/vtq` cell panics every time it runs.
fn panic_in_ref_vtq(_spec: &SubmitSpec, cell: &Cell, _token: &CancelToken) {
    if cell.label == "REF/vtq" {
        panic!("injected panic in {}", cell.label);
    }
}

#[test]
fn submit_watch_results_shutdown_round_trip() {
    let dir = test_dir("roundtrip");
    let handle = Server::spawn(config(dir.clone())).expect("spawn server");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut spec = tiny_spec();
    spec.policies = vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()];

    let mut events = Vec::new();
    let terminal = client
        .submit_and_watch(spec.clone(), |frame| events.push(frame.clone()))
        .expect("watched submit");
    let Frame::Status { job, state, done_cells, total_cells, failed_cells, .. } = terminal else {
        panic!("expected terminal status, got {terminal:?}");
    };
    assert_eq!(state, "done");
    assert_eq!((done_cells, total_cells, failed_cells), (2, 2, 0));
    // The accepted frame plus one event per cell.
    let cell_events: Vec<_> = events
        .iter()
        .filter_map(|f| match f {
            Frame::CellEvent { label, status, cycles, .. } => {
                Some((label.clone(), status.clone(), *cycles))
            }
            _ => None,
        })
        .collect();
    assert_eq!(cell_events.len(), 2, "one event per cell: {events:?}");
    assert!(cell_events.iter().all(|(_, status, cycles)| status == "done" && *cycles > 0));

    // Results come back from the cache, matching the events.
    let records = client.fetch_results(&job).expect("results");
    assert_eq!(records.len(), 2);
    assert!(records.iter().any(|r| r.label == "REF/baseline"));
    assert!(records.iter().any(|r| r.label == "REF/vtq"));
    assert!(records.iter().all(|r| r.cycles > 0 && r.rays > 0));

    // A second identical submission is served entirely from the cache —
    // and bit-identically.
    let terminal = client.submit_and_watch(spec, |_| {}).expect("resubmit");
    let Frame::Status { job: job2, cached_cells, .. } = terminal else { unreachable!() };
    assert_eq!(cached_cells, 2, "identical resubmission must be all cache hits");
    let records2 = client.fetch_results(&job2).expect("results again");
    let mut sorted = records.clone();
    let mut sorted2 = records2;
    sorted.sort_by(|a, b| a.label.cmp(&b.label));
    sorted2.sort_by(|a, b| a.label.cmp(&b.label));
    assert_eq!(sorted, sorted2, "cache replay must be bit-identical");

    // Clean shutdown via the protocol.
    let reply = client.request(&Request::Shutdown).expect("shutdown");
    assert_eq!(reply, Frame::ShuttingDown);
    handle.shutdown().expect("server exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls `job`'s status until the executor has dequeued it and runs it.
fn wait_until_running(client: &mut Client, job: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match client.request(&Request::Status { job: Some(job.to_string()) }).expect("status") {
            Frame::Status { state, .. } if state == "running" => return,
            Frame::Status { state, .. } => assert_eq!(state, "queued", "job {job} settled early"),
            other => panic!("expected a status for {job}, got {other:?}"),
        }
        assert!(Instant::now() < deadline, "job {job} never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn overload_and_quota_reject_with_typed_responses() {
    let dir = test_dir("admission");
    let mut cfg = config(dir.clone());
    cfg.max_queue = 2;
    cfg.tenant_quota = 2;
    cfg.before_cell = Some(stall_until_cancelled);
    let handle = Server::spawn(cfg).expect("spawn");

    // A stalled job holds the executor busy while we fill the queue
    // behind it.
    let slow = tiny_spec();

    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut tenants = Vec::new();
    // Fill: one running + two queued = queue full. The executor must have
    // taken the first job off the queue before the other two arrive.
    for tenant in ["stall-a", "stall-b", "stall-c"] {
        let mut spec = slow.clone();
        spec.tenant = tenant.to_string();
        match client.request(&Request::Submit(spec)).expect("submit") {
            Frame::Accepted { job, .. } => tenants.push(job),
            other => panic!("expected accept for {tenant}, got {other:?}"),
        }
        if tenants.len() == 1 {
            wait_until_running(&mut client, &tenants[0]);
        }
    }
    // Queue is now at capacity: a fourth submission is overloaded.
    let mut spec = slow.clone();
    spec.tenant = "stall-d".to_string();
    match client.request(&Request::Submit(spec)).expect("submit") {
        Frame::Rejected { reason: RejectReason::Overloaded, detail } => {
            assert!(detail.contains('2'), "detail should carry the bound: {detail}")
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    // Tenant quota: cancel one queued job to make queue room, then grow
    // tenant "stall-a" to its quota of 2 active jobs; the third is rejected
    // even though the queue has room.
    assert!(matches!(
        client.request(&Request::Cancel { job: tenants[2].clone() }).expect("cancel"),
        Frame::Status { .. }
    ));
    let mut second_a = slow;
    second_a.tenant = "stall-a".to_string();
    match client.request(&Request::Submit(second_a.clone())).expect("submit") {
        Frame::Accepted { .. } => {}
        other => panic!("expected accept (quota 2, one active), got {other:?}"),
    }
    assert!(matches!(
        client.request(&Request::Cancel { job: tenants[1].clone() }).expect("cancel"),
        Frame::Status { .. }
    ));
    match client.request(&Request::Submit(second_a)).expect("submit") {
        Frame::Rejected { reason: RejectReason::QuotaExceeded, .. } => {}
        other => panic!("expected quota rejection, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_expires_and_cancel_stops_jobs() {
    let dir = test_dir("deadline");
    let mut cfg = config(dir.clone());
    cfg.before_cell = Some(stall_until_cancelled);
    let handle = Server::spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A zero-ish deadline expires before (or while) the job runs; the
    // job must settle `expired`, not hang.
    let mut spec = tiny_spec();
    spec.deadline = Some(Duration::from_millis(1));
    spec.policies = vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()];
    let terminal = client.submit_and_watch(spec, |_| {}).expect("watched submit");
    let Frame::Status { state, .. } = &terminal else { panic!("got {terminal:?}") };
    assert_eq!(state, "expired", "deadline must expire the job: {terminal:?}");

    // Explicit cancellation: a stalled job cannot finish on its own, so
    // it must settle `cancelled` — deterministically.
    let mut spec = tiny_spec();
    spec.tenant = "stalled".to_string();
    let job = match client.request(&Request::Submit(spec)).expect("submit") {
        Frame::Accepted { job, .. } => job,
        other => panic!("expected accept, got {other:?}"),
    };
    match client.request(&Request::Cancel { job: job.clone() }).expect("cancel") {
        Frame::Status { state, .. } => {
            assert!(state == "cancelled" || state == "running", "got {state}")
        }
        other => panic!("expected status, got {other:?}"),
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match client.request(&Request::Status { job: Some(job.clone()) }).expect("status") {
            Frame::Status { state, .. } if state == "cancelled" => break,
            Frame::Status { state, .. } => {
                assert_ne!(state, "done", "a stalled job cannot have finished")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(std::time::Instant::now() < deadline, "cancel never settled");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Unknown ids are typed errors.
    assert!(matches!(
        client.request(&Request::Cancel { job: "j999".into() }).expect("cancel"),
        Frame::Rejected { reason: RejectReason::BadRequest, .. }
    ));
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_is_rejected_and_match_accepted() {
    let dir = test_dir("provenance");
    let handle = Server::spawn(config(dir.clone())).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // A configuration no cell could run is the client's error: refused
    // with a typed reject, nothing queued, nothing quarantined.
    let unrunnable = SubmitSpec { res: Some(0), ..tiny_spec() };
    match client.request(&Request::Submit(unrunnable)).expect("submit") {
        Frame::Rejected { reason: RejectReason::BadRequest, detail } => {
            assert!(detail.contains("resolution"), "detail names the field: {detail}")
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    match client.request(&Request::Status { job: None }).expect("summary") {
        Frame::Summary { queued, running, finished, poisoned } => {
            assert_eq!((queued, running, finished, poisoned), (0, 0, 0, 0))
        }
        other => panic!("expected summary, got {other:?}"),
    }

    let mut spec = tiny_spec();
    spec.expect_fingerprint = Some(0xbad);
    match client.request(&Request::Submit(spec)).expect("submit") {
        Frame::Rejected { reason: RejectReason::FingerprintMismatch, detail } => {
            assert!(detail.contains("0x"), "detail names both fingerprints: {detail}")
        }
        other => panic!("expected fingerprint_mismatch, got {other:?}"),
    }
    // The matching fingerprint — computed exactly as the server does —
    // is accepted and echoed back.
    let mut spec = tiny_spec();
    let expected = vtq::sweep::config_fingerprint(&spec_config(&spec));
    spec.expect_fingerprint = Some(expected);
    match client.request(&Request::Submit(spec)).expect("submit") {
        Frame::Accepted { fingerprint, .. } => assert_eq!(fingerprint, expected),
        other => panic!("expected accept, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");
    let poison = std::fs::read_to_string(dir.join("poison.jsonl")).unwrap_or_default();
    assert!(poison.is_empty(), "a bad request strikes no cell: {poison}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job's plan is what the daemon addresses its cache by. One quick
/// cell's cache key, as a literal: a fingerprint change that would
/// orphan every filled cache fails here first.
#[test]
fn a_quick_cell_cache_key_is_pinned() {
    let plan = SubmitSpec::default().plan();
    assert_eq!(plan.config_fingerprint, config_fingerprint(&spec_config(&SubmitSpec::default())));
    let cell = &plan.matrix.cells()[0];
    assert_eq!((plan.matrix.len(), cell.label.as_str()), (1, "REF/baseline"));
    assert_eq!(ResultCache::key(cell.scene.name(), plan.matrix.keys()[0]), "REF-d2807e9d23c22522");
}

#[test]
fn poisoned_cell_is_quarantined_with_forensics() {
    let dir = test_dir("poison");
    let mut cfg = config(dir.clone());
    cfg.before_cell = Some(panic_in_ref_vtq);
    cfg.poison_threshold = 2;
    let handle = Server::spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut spec = tiny_spec();
    spec.policies = vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()];

    // Strikes 1 and 2: `REF/vtq` panics, the healthy cell finishes.
    for strike in 1..=2 {
        let terminal = client.submit_and_watch(spec.clone(), |_| {}).expect("submit");
        let Frame::Status { state, failed_cells, .. } = &terminal else { unreachable!() };
        assert_eq!(state, "done");
        assert_eq!(*failed_cells, 1, "strike {strike}: {terminal:?}");
    }
    // Third submission: the cell is quarantined — skipped, reported, and
    // the job still completes (with the healthy cell cached).
    let mut events = Vec::new();
    let terminal =
        client.submit_and_watch(spec.clone(), |f| events.push(f.clone())).expect("submit");
    let Frame::Status { state, failed_cells, cached_cells, .. } = &terminal else { unreachable!() };
    assert_eq!(state, "done");
    assert_eq!(*failed_cells, 1, "quarantined cell counts as failed");
    assert_eq!(*cached_cells, 1, "healthy cell served from cache");
    assert!(
        events.iter().any(|f| matches!(
            f,
            Frame::CellEvent { status, label, .. }
                if status == "quarantined" && label == "REF/vtq"
        )),
        "expected a quarantined event: {events:?}"
    );
    // The whole-service summary reports the quarantine.
    match client.request(&Request::Status { job: None }).expect("summary") {
        Frame::Summary { poisoned, .. } => assert_eq!(poisoned, 1),
        other => panic!("expected summary, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");

    // The quarantine survives a daemon restart (poison.jsonl replay).
    let mut cfg = config(dir.clone());
    cfg.before_cell = Some(panic_in_ref_vtq);
    cfg.poison_threshold = 2;
    let handle = Server::spawn(cfg).expect("respawn");
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let terminal = client.submit_and_watch(spec, |_| {}).expect("submit");
    let Frame::Status { failed_cells, .. } = &terminal else { unreachable!() };
    assert_eq!(*failed_cells, 1, "quarantine persists across restart");
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_serves_results_from_cache_without_rerunning() {
    let dir = test_dir("recovery");
    let handle = Server::spawn(config(dir.clone())).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let mut spec = tiny_spec();
    spec.policies = vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()];
    let terminal = client.submit_and_watch(spec.clone(), |_| {}).expect("submit");
    let Frame::Status { job, state, .. } = &terminal else { unreachable!() };
    assert_eq!(state, "done");
    let records = client.fetch_results(job).expect("results");
    assert_eq!(records.len(), 2);
    handle.shutdown().expect("shutdown");

    // The cache is the daemon's one record of finished work: lose one of
    // its entries, then restart over the same dir and resubmit. The
    // surviving cell is served from the cache, the lost one re-simulated
    // (deterministically, so bit-identically) and settled `done`.
    assert!(!dir.join("journal.jsonl").exists(), "a daemon life keeps no journal");
    let plan = spec.plan();
    let (cell, fp) = (&plan.matrix.cells()[1], plan.matrix.keys()[1]);
    let lost = ResultCache::key(cell.scene.name(), fp);
    let cache = dir.join(vtq_serve::cache::CACHE_DIR);
    std::fs::remove_file(cache.join(format!("{lost}.jsonl"))).expect("remove one entry");
    let handle = Server::spawn(config(dir.clone())).expect("respawn");
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let mut events = Vec::new();
    let terminal = client.submit_and_watch(spec, |f| events.push(f.clone())).expect("resubmit");
    let Frame::Status { job, state, done_cells, cached_cells, failed_cells, .. } = &terminal else {
        unreachable!()
    };
    assert_eq!((state.as_str(), *failed_cells), ("done", 0));
    assert_eq!((*done_cells, *cached_cells), (2, 1), "one cell cached, one re-run: {events:?}");
    let records2 = client.fetch_results(job).expect("results after restart");
    assert_eq!(records, records2, "cache survives restart bit-identically");
    handle.shutdown().expect("shutdown");
    assert!(!dir.join("journal.jsonl").exists(), "a daemon life keeps no journal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The benchmark's smoke job: two scenes under the three policies the
/// wire protocol names, at a size where a cell simulates in milliseconds.
fn smoke_spec() -> SubmitSpec {
    SubmitSpec {
        scenes: vec![parse_scene("REF").unwrap(), parse_scene("BUNNY").unwrap()],
        policies: ["baseline", "prefetch", "vtq"].map(|p| parse_policy(p).unwrap()).to_vec(),
        res: Some(16),
        detail: Some(16),
        ..SubmitSpec::default()
    }
}

#[test]
fn both_ends_of_a_connection_run_nodelay() {
    let dir = test_dir("nodelay");
    let handle = Server::spawn(config(dir.clone())).expect("spawn");
    let client = Client::connect(handle.addr()).expect("connect");
    assert!(client.nodelay().expect("client socket option"));
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);

    // The daemon configures an accepted socket with the same function the
    // client uses; an accepted socket does not start out NODELAY.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let _peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    assert!(!accepted.nodelay().expect("socket option"));
    vtq_serve::wire::configure(&accepted, Duration::from_secs(1)).expect("configure");
    assert!(accepted.nodelay().expect("socket option"));
    assert_eq!(accepted.read_timeout().unwrap(), Some(Duration::from_secs(1)));
    assert_eq!(accepted.write_timeout().unwrap(), Some(Duration::from_secs(1)));
}

#[test]
fn warm_resubmits_do_not_wait_on_the_wire() {
    let dir = test_dir("warm-latency");
    let handle = Server::spawn(config(dir.clone())).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = smoke_spec();
    let total = spec.scenes.len() * spec.policies.len();

    let round_trip = |client: &mut Client| {
        let start = Instant::now();
        let terminal = client.submit_and_watch(spec.clone(), |_| {}).expect("submit");
        let Frame::Status { job, state, cached_cells, .. } = terminal else { unreachable!() };
        assert_eq!(state, "done");
        let records = client.fetch_results(&job).expect("results");
        (start.elapsed(), cached_cells, records)
    };
    let (_, _, cold) = round_trip(&mut client);
    assert_eq!(cold.len(), total);

    let mut warm: Vec<Duration> = (0..20)
        .map(|_| {
            let (elapsed, cached_cells, records) = round_trip(&mut client);
            assert_eq!(cached_cells, total, "a resubmit is all cache hits");
            assert_eq!(records, cold);
            elapsed
        })
        .collect();
    warm.sort();
    // Two-write framing without NODELAY parked four frames per round trip
    // behind the peer's ~40 ms delayed-ACK timer (160+ ms); the work
    // itself is 1-4 ms, so the bound has > 5x margin either way.
    let median = warm[warm.len() / 2];
    assert!(median < Duration::from_millis(20), "warm round trips: {warm:?}");

    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_daemon_over_a_surviving_cache_prepares_no_scene() {
    let dir = test_dir("cached-restart");
    let spec = smoke_spec();
    let total = spec.scenes.len() * spec.policies.len();

    let handle = Server::spawn(config(dir.clone())).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let terminal = client.submit_and_watch(spec.clone(), |_| {}).expect("submit");
    let Frame::Status { job, state, .. } = &terminal else { unreachable!() };
    assert_eq!(state, "done");
    let first = client.fetch_results(job).expect("results");
    assert_eq!(first.len(), total);
    // One configuration per scene: each stage builds once per scene.
    let n = spec.scenes.len();
    let each = StageCounts { scenes: n, trees: n, workloads: n, layouts: n, tapes: n };
    assert_eq!(handle.prepared().misses(), each, "cold fill prepares each scene once");
    handle.shutdown().expect("shutdown");

    // A new daemon life over the same dir: nothing says the cells are
    // done except the result cache itself.
    let handle = Server::spawn(config(dir.clone())).expect("respawn");
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let terminal = client.submit_and_watch(spec.clone(), |_| {}).expect("resubmit");
    let Frame::Status { job, state, cached_cells, total_cells, failed_cells, .. } = &terminal
    else {
        unreachable!()
    };
    assert_eq!((state.as_str(), *failed_cells), ("done", 0));
    assert_eq!((*cached_cells, *total_cells), (total, total));
    assert_eq!(client.fetch_results(job).expect("results"), first);

    // A different submission sharing the cells.
    let mut subset = spec;
    subset.policies.truncate(2);
    let terminal = client.submit_and_watch(subset.clone(), |_| {}).expect("subset submit");
    let Frame::Status { cached_cells, total_cells, .. } = &terminal else { unreachable!() };
    assert_eq!(*cached_cells, subset.scenes.len() * subset.policies.len());
    assert_eq!(cached_cells, total_cells);

    let nothing = StageCounts::default();
    assert_eq!(handle.prepared().misses(), nothing, "a fully cached job must not prepare anything");
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `results` answers from the records the job itself settled, in plan
/// order: not from the result cache, which a later job may have lost or
/// another job may have filled.
#[test]
fn results_are_the_records_the_job_settled() {
    let dir = test_dir("results");
    let mut cfg = config(dir.clone());
    cfg.before_cell = Some(stall_until_cancelled);
    let handle = Server::spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = smoke_spec();
    let labels: Vec<String> = spec.plan().matrix.cells().iter().map(|c| c.label.clone()).collect();

    let terminal = client.submit_and_watch(spec.clone(), |_| {}).expect("submit");
    let Frame::Status { job, state, .. } = &terminal else { unreachable!() };
    assert_eq!(state, "done");
    let settled = client.fetch_results(job).expect("results");
    let got: Vec<&str> = settled.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(got, labels, "every cell, in plan order");
    // The job's records outlive the cache entries they came from.
    let cache = dir.join(vtq_serve::cache::CACHE_DIR);
    for entry in std::fs::read_dir(&cache).expect("cache dir").flatten() {
        if entry.path().extension().is_some_and(|x| x == "jsonl") {
            std::fs::remove_file(entry.path()).expect("remove entry");
        }
    }
    assert_eq!(client.fetch_results(job).expect("results again"), settled);

    // A job stalled before its first cell has settled nothing, though
    // another job's run just cached a cell it names: every cell enters
    // the closure, where the stall precedes the cache probe.
    let terminal = client.submit_and_watch(tiny_spec(), |_| {}).expect("submit");
    let Frame::Status { state, .. } = &terminal else { unreachable!() };
    assert_eq!(state, "done");
    let stalled = SubmitSpec {
        tenant: "stall".to_string(),
        policies: vec![parse_policy("baseline").unwrap(), parse_policy("vtq").unwrap()],
        ..tiny_spec()
    };
    let job = match client.request(&Request::Submit(stalled)).expect("submit") {
        Frame::Accepted { job, .. } => job,
        other => panic!("expected accept, got {other:?}"),
    };
    wait_until_running(&mut client, &job);
    assert_eq!(client.fetch_results(&job).expect("results of a running job"), vec![]);
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon remembers a bounded number of finished jobs: the one that
/// finished longest ago gets the reply an id of an earlier daemon life
/// gets, while a running job is never forgotten.
#[test]
fn a_forgotten_job_is_an_unknown_job() {
    let dir = test_dir("forget");
    let mut cfg = config(dir.clone());
    cfg.before_cell = Some(stall_until_cancelled);
    let handle = Server::spawn(cfg).expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let submit = |client: &mut Client, tenant: &str| {
        let spec = SubmitSpec { tenant: tenant.to_string(), ..tiny_spec() };
        match client.request(&Request::Submit(spec)).expect("submit") {
            Frame::Accepted { job, .. } => job,
            other => panic!("expected accept, got {other:?}"),
        }
    };
    let running = submit(&mut client, "stall");
    wait_until_running(&mut client, &running);
    // Jobs cancelled while queued behind it finish at once.
    let mut finished = Vec::new();
    for _ in 0..=FINISHED_JOBS_KEPT {
        let job = submit(&mut client, "t");
        match client.request(&Request::Cancel { job: job.clone() }).expect("cancel") {
            Frame::Status { state, .. } => assert_eq!(state, "cancelled"),
            other => panic!("expected status, got {other:?}"),
        }
        finished.push(job);
    }
    let unknown = |frame: Frame| match frame {
        Frame::Rejected { reason: RejectReason::BadRequest, detail } => detail,
        other => panic!("expected bad_request, got {other:?}"),
    };
    let oldest = &finished[0];
    let status = client.request(&Request::Status { job: Some(oldest.clone()) }).expect("status");
    assert_eq!(unknown(status), format!("unknown job `{oldest}`"));
    let results = client.request(&Request::Results { job: oldest.clone() }).expect("results");
    assert_eq!(unknown(results), format!("unknown job `{oldest}`"));
    match client.request(&Request::Status { job: Some(finished[1].clone()) }).expect("status") {
        Frame::Status { state, .. } => assert_eq!(state, "cancelled"),
        other => panic!("expected status, got {other:?}"),
    }
    match client.request(&Request::Status { job: Some(running.clone()) }).expect("status") {
        Frame::Status { state, .. } => assert_eq!(state, "running"),
        other => panic!("expected status, got {other:?}"),
    }
    match client.request(&Request::Status { job: None }).expect("summary") {
        Frame::Summary { queued, running, finished: count, .. } => {
            assert_eq!((queued, running, count), (0, 1, finished.len()))
        }
        other => panic!("expected summary, got {other:?}"),
    }
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_campaign_all_green() {
    let dir = test_dir("chaos");
    let mut cfg = config(dir.clone());
    // Short client timeout so the slow-client scenario completes fast.
    cfg.client_timeout = Duration::from_millis(300);
    let handle = Server::spawn(cfg).expect("spawn");

    let report =
        vtq_serve::chaos::run_campaign(handle.addr(), Duration::from_millis(300), tiny_spec());
    for scenario in &report.scenarios {
        assert!(
            scenario.verdict.is_ok(),
            "chaos scenario `{}` failed: {:?}",
            scenario.name,
            scenario.verdict
        );
    }
    assert!(report.all_ok());
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
