//! `serve-roundtrip`: an in-process `vtq-serve` daemon and one client on
//! loopback. Set-up spawns the daemon and fills its result cache with one
//! cold submit; the timed loop resubmits the identical job, which the
//! daemon answers from its journal and cache without simulating anything.

use std::path::PathBuf;
use std::time::Instant;

use gpusim::{TraversalPolicy, VtqParams};
use rtscene::lumibench::SceneId;
use vtq_serve::{
    CellRecord, Client, Frame, Request, ResultCache, Server, ServerConfig, ServerHandle, SubmitSpec,
};

use super::{record_trace_health, vtq_speedup_geomean, with_prof};
use crate::harness::{ns_per_iter, run_passes, shuffle, timed, Check, Ctx, Outcome};
use crate::metrics::Values;
use crate::stats::{median, p90};
use crate::trace::{SpanId, Tracer, ROOT};

/// The job every submit of a run carries: all scenes (in an order drawn
/// from the seed) × the three policies the wire protocol names.
fn spec(ctx: &Ctx) -> SubmitSpec {
    let mut scenes = SceneId::ALL.to_vec();
    shuffle(&mut scenes, ctx.seed);
    let policies = vec![
        TraversalPolicy::Baseline,
        TraversalPolicy::TreeletPrefetch,
        TraversalPolicy::Vtq(VtqParams::default()),
    ];
    if ctx.smoke {
        scenes.truncate(2);
        SubmitSpec {
            scenes,
            policies,
            quick: true,
            res: Some(16),
            detail: Some(16),
            ..Default::default()
        }
    } else {
        // Quick geometry at 128×128: a cold fill of about two seconds, so
        // three fresh daemons fit a run.
        SubmitSpec { scenes, policies, quick: true, res: Some(128), ..Default::default() }
    }
}

/// One submit → last result fetched, and the instants in between.
struct RoundTrip {
    seconds: f64,
    ack_s: f64,
    first_event_s: f64,
    status_after_last_event_s: f64,
    fetch_s: f64,
    events: usize,
    done_cells: usize,
    cached_cells: usize,
    failed_cells: usize,
    state: String,
    records: Vec<CellRecord>,
}

fn round_trip(
    client: &mut Client,
    spec: &SubmitSpec,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<RoundTrip, String> {
    let start = Instant::now();
    let (mut ack, mut first_event, mut last_event, mut events) = (None, None, None, 0usize);
    let status = client.submit_and_watch(spec.clone(), |frame| {
        let now = Instant::now();
        match frame {
            Frame::Accepted { .. } => ack = Some(now),
            Frame::CellEvent { .. } => {
                first_event.get_or_insert(now);
                last_event = Some(now);
                events += 1;
            }
            _ => {}
        }
    })?;
    let watched = Instant::now();
    let Frame::Status { job, state, done_cells, cached_cells, failed_cells, .. } = status else {
        return Err(format!("submit was not accepted: {status:?}"));
    };
    let records = client.fetch_results(&job)?;
    let end = Instant::now();

    let ack = ack.unwrap_or(start);
    let first_event = first_event.unwrap_or(ack);
    let last_event = last_event.unwrap_or(first_event);
    let submit = tracer.span_between("serve.submit_and_watch", parent, 0, start, watched);
    tracer.span_between("serve.submit_ack", submit, 0, start, ack);
    tracer.span_between("serve.events", submit, 0, ack, last_event);
    tracer.span_between("serve.status_wait", submit, 0, last_event, watched);
    tracer.span_between("serve.fetch_results", parent, 0, watched, end);
    let s = |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64();
    Ok(RoundTrip {
        seconds: s(start, end),
        ack_s: s(start, ack),
        first_event_s: s(start, first_event),
        status_after_last_event_s: s(last_event, watched),
        fetch_s: s(watched, end),
        events,
        done_cells,
        cached_cells,
        failed_cells,
        state,
        records,
    })
}

/// A live daemon with its cache filled.
struct Daemon {
    handle: ServerHandle,
    client: Client,
    dir: PathBuf,
    spawn_s: f64,
    cold: RoundTrip,
}

fn start_daemon(ctx: &Ctx, spec: &SubmitSpec) -> Result<Daemon, String> {
    let dir = ctx.fresh_dir("serve");
    let mut config = ServerConfig::new(dir.clone());
    config.jobs = ctx.jobs;
    let (handle, spawn_s) = timed(|| Server::spawn(config));
    let handle = handle.map_err(|e| format!("daemon did not start: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let cold = round_trip(&mut client, spec, &Tracer::new(false), ROOT)?;
    Ok(Daemon { handle, client, dir, spawn_s, cold })
}

fn stop_daemon(check: &mut Check, mut daemon: Daemon) {
    let reply = daemon.client.request(&Request::Shutdown);
    let joined = daemon.handle.shutdown();
    check.op(matches!(reply, Ok(Frame::ShuttingDown)) && joined.is_ok(), || {
        format!("shutdown: reply {reply:?}, join {joined:?}")
    });
    let _ = std::fs::remove_dir_all(&daemon.dir);
}

/// Warm timings of every round trip of the run, pooled over the daemons.
#[derive(Default)]
struct Warm {
    seconds: Vec<f64>,
    ack_s: Vec<f64>,
    first_event_s: Vec<f64>,
    status_after_last_event_s: Vec<f64>,
    fetch_s: Vec<f64>,
    events_dropped: usize,
    rejects: usize,
    /// `cached_cells` of the latest terminal status.
    cached_cells: usize,
}

/// A warm round trip is correct when every cell came from the cache and
/// the records equal the cold ones. Returns the seconds to count.
fn check_warm(
    check: &mut Check,
    warm: &mut Warm,
    total: usize,
    cold: &RoundTrip,
    trip: Result<RoundTrip, String>,
) -> f64 {
    match trip {
        Ok(trip) => {
            let ok = trip.state == "done"
                && trip.cached_cells == total
                && trip.failed_cells == 0
                && trip.records == cold.records;
            check.op(ok, || {
                format!(
                    "warm submit: state {}, {} of {total} cells cached, {} failed, records {}",
                    trip.state,
                    trip.cached_cells,
                    trip.failed_cells,
                    if trip.records == cold.records { "equal cold" } else { "differ from cold" }
                )
            });
            warm.seconds.push(trip.seconds);
            warm.ack_s.push(trip.ack_s);
            warm.first_event_s.push(trip.first_event_s);
            warm.status_after_last_event_s.push(trip.status_after_last_event_s);
            warm.fetch_s.push(trip.fetch_s);
            warm.events_dropped += total.saturating_sub(trip.events);
            warm.cached_cells = trip.cached_cells;
            trip.seconds
        }
        Err(e) => {
            warm.rejects += 1;
            check.op(false, || format!("warm submit failed: {e}"));
            // A refused request counts as missing any latency limit.
            f64::INFINITY
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, check: &mut Check) -> Outcome {
    let spec = spec(ctx);
    let total = spec.scenes.len() * spec.policies.len();
    let off = Tracer::new(false);
    let mut layer = Values::default();
    let (mut setup_s, mut passes, mut pass_cpu_s) = (Vec::new(), Vec::new(), 0.0);
    let (mut spawn_s, mut cold_s) = (Vec::new(), Vec::new());
    let mut warm = Warm::default();

    let daemons = ctx.setup_reps();
    for n in 0..daemons {
        let (daemon, s) = timed(|| start_daemon(ctx, &spec));
        let mut daemon = match daemon {
            Ok(daemon) => daemon,
            Err(e) => {
                check.op(false, || e);
                continue;
            }
        };
        setup_s.push(s);
        spawn_s.push(daemon.spawn_s);
        cold_s.push(daemon.cold.seconds);
        let cold = &daemon.cold;
        let cold_ok = cold.state == "done"
            && cold.done_cells == total
            && cold.failed_cells == 0
            && cold.records.len() == total;
        check.op(cold_ok, || {
            format!(
                "cold submit: state {}, {} of {total} cells done, {} failed, {} records",
                cold.state,
                cold.done_cells,
                cold.failed_cells,
                cold.records.len()
            )
        });

        let (times, cpu_s) = run_passes(ctx, ctx.pass_budget_s() / daemons as f64, || {
            let trip = round_trip(&mut daemon.client, &spec, &off, ROOT);
            vec![check_warm(check, &mut warm, total, &daemon.cold, trip)]
        });
        passes.extend(times);
        pass_cpu_s += cpu_s;

        if ctx.trace && n + 1 == daemons {
            let warm_median = median(&warm.seconds);
            let (trip, _snapshot) = with_prof(|| round_trip(&mut daemon.client, &spec, &off, ROOT));
            let seconds = check_warm(check, &mut warm, total, &daemon.cold, trip);
            layer.set("prof.enabled_overhead_ratio", seconds / warm_median);
            let trip = ctx.tracer.span("pass", ROOT, 0, |root| {
                round_trip(&mut daemon.client, &spec, &ctx.tracer, root)
            });
            let seconds = check_warm(check, &mut warm, total, &daemon.cold, trip);
            record_trace_health(&mut layer, &ctx.tracer, "pass", seconds, warm_median);
            record_cold(&mut layer, &daemon.cold);
            probe_cache_and_proto(&mut layer, check, ctx, &spec, &daemon.cold.records);
        }
        stop_daemon(check, daemon);
    }

    if !warm.seconds.is_empty() {
        let p50 = median(&warm.seconds);
        layer.set("submit_to_done_cold_s", median(&cold_s));
        layer.set("submit_to_done_warm_s", p50);
        if let Some((pct, s)) = p90(&warm.seconds) {
            layer.set("submit_to_done_warm_p90_s", s);
            layer.set("submit_to_done_warm_p90_pct", pct as f64);
        }
        layer.set("submit_to_done_warm_samples", warm.seconds.len() as f64);
        layer.set("serve.spawn_ms", median(&spawn_s) * 1e3);
        layer.set("serve.submit_ack_ms", median(&warm.ack_s) * 1e3);
        layer.set("serve.first_event_ms", median(&warm.first_event_s) * 1e3);
        layer
            .set("serve.status_after_last_event_ms", median(&warm.status_after_last_event_s) * 1e3);
        layer.set("serve.fetch_results_ms", median(&warm.fetch_s) * 1e3);
        layer.set("serve.warm_cells_per_s", total as f64 / p50);
        layer.set("serve.cached_cells", warm.cached_cells as f64);
    }
    layer.set("serve.rejects", warm.rejects as f64);
    layer.set("serve.events_dropped", warm.events_dropped as f64);
    Outcome { setup_s, passes, pass_cpu_s, layer }
}

/// What the cold fill simulated, from the records it returned.
fn record_cold(layer: &mut Values, cold: &RoundTrip) {
    let sum = |f: fn(&CellRecord) -> u64| cold.records.iter().map(f).sum::<u64>() as f64;
    let cycles = sum(|r| r.cycles);
    layer.set("gpusim.sim_cycles", cycles);
    layer.set("gpusim.rays_completed", sum(|r| r.rays));
    layer.set("gpusim.box_tests", sum(|r| r.box_tests));
    layer.set("gpusim.tri_tests", sum(|r| r.tri_tests));
    layer.set("sim_mcycles_per_s", cycles / 1e6 / cold.seconds);
    layer.set(
        "gpusim.vtq_speedup_geomean",
        vtq_speedup_geomean(|label| {
            cold.records.iter().find(|r| r.label == label).map(|r| r.cycles as f64)
        }),
    );
}

/// The result cache and the wire codec on their own, outside a daemon.
fn probe_cache_and_proto(
    layer: &mut Values,
    check: &mut Check,
    ctx: &Ctx,
    spec: &SubmitSpec,
    records: &[CellRecord],
) {
    let dir = ctx.fresh_dir("cache-probe");
    let cache = ResultCache::open(&dir).expect("cache opens in a fresh dir");
    let keyed: Vec<(String, &CellRecord)> =
        records.iter().map(|r| (ResultCache::key(&r.scene, r.fingerprint), r)).collect();
    const CONFIG_FINGERPRINT: u64 = 0x5eed;
    let (_, s) = timed(|| {
        for (key, record) in &keyed {
            cache.store(key, CONFIG_FINGERPRINT, record).expect("cache store");
        }
    });
    layer.set("serve.cache_store_ms", s * 1e3 / keyed.len().max(1) as f64);
    let (loaded, s) = timed(|| {
        keyed.iter().filter(|(key, _)| cache.load(key, CONFIG_FINGERPRINT).is_some()).count()
    });
    check.op(loaded == keyed.len(), || {
        format!("result cache returned {loaded} of the {} entries just stored", keyed.len())
    });
    layer.set("serve.cache_load_ms", s * 1e3 / keyed.len().max(1) as f64);
    let _ = std::fs::remove_dir_all(&dir);

    let request = Request::Submit(spec.clone());
    let line = request.to_line();
    layer.set(
        "serve.proto_encode_us",
        ns_per_iter(4096, |_| {
            std::hint::black_box(std::hint::black_box(&request).to_line());
        }) / 1e3,
    );
    layer.set(
        "serve.proto_parse_us",
        ns_per_iter(4096, |_| {
            std::hint::black_box(Request::parse(std::hint::black_box(&line)).is_ok());
        }) / 1e3,
    );
}
