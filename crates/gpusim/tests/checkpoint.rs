//! Durable-simulation integration tests: mid-run checkpoints are pure
//! observation, a resumed run's final `SimStats` is bit-identical to the
//! uninterrupted run's across scenes × traversal policies, checkpoints
//! survive a JSONL round-trip losslessly, and every mismatch or corruption
//! path returns a typed error instead of panicking.

use std::collections::HashSet;

use gpusim::jsonl::{check_line, crc32, frame_line, parse_line, Opt};
use gpusim::{
    config_tag, AuditMode, Checkpoint, GpuConfig, NextNode, PathTask, PredictParams, RunOptions,
    SimError, SimReport, SimStats, Simulator, Tape, TraversalPolicy, VtqParams, Workload,
    CHECKPOINT_VERSION,
};
use rtbvh::{Bvh, BvhConfig};
use rtscene::lumibench::{self, SceneId};

fn small_scene(id: SceneId) -> (rtscene::Scene, Bvh) {
    let scene = lumibench::build_scaled(id, 16);
    let bvh =
        Bvh::build(scene.triangles(), &BvhConfig { treelet_bytes: 1024, ..Default::default() });
    (scene, bvh)
}

fn small_workload(scene: &rtscene::Scene, rays: u32) -> Workload {
    Workload {
        tasks: (0..rays)
            .map(|i| PathTask {
                rays: vec![scene.camera().primary_ray(i % 8, i / 8, 8, 8, None).into()],
            })
            .collect(),
    }
}

fn resume(
    sim: &Simulator<'_>,
    workload: &Workload,
    ckpt: &Checkpoint,
) -> Result<SimReport, SimError> {
    sim.try_run_with(workload, RunOptions::new().resume(ckpt))
}

/// `ckpt` survives the JSONL round trip and resumes to `plain`'s
/// `Debug`-equal statistics and memory counters, and equal hits.
fn assert_resumes(
    sim: &Simulator<'_>,
    workload: &Workload,
    ckpt: &Checkpoint,
    plain: &SimReport,
    label: &str,
) {
    let at = format!("{label}: resume from cycle {}", ckpt.cycle());
    let back = Checkpoint::from_jsonl(&ckpt.to_jsonl()).unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_eq!(&back, ckpt, "{at}: the JSONL round-trip lost state");
    let resumed = resume(sim, workload, &back).unwrap_or_else(|e| panic!("{at}: {e}"));
    assert_eq!(format!("{:?}", resumed.stats), format!("{:?}", plain.stats), "{at}: stats");
    assert_eq!(format!("{:?}", resumed.mem), format!("{:?}", plain.mem), "{at}: memory");
    assert_eq!(resumed.hits, plain.hits, "{at}: hits");
}

fn policies() -> [TraversalPolicy; 4] {
    [
        TraversalPolicy::Baseline,
        TraversalPolicy::TreeletPrefetch,
        TraversalPolicy::Vtq(VtqParams { max_virtual_rays: 256, ..Default::default() }),
        // A coarse key and a large table, so neighbouring rays share
        // predictions and some rays walk from a speculated leaf.
        TraversalPolicy::Predict(PredictParams {
            origin_bits: 2,
            dir_bits: 2,
            table_entries: 4096,
            ..Default::default()
        }),
    ]
}

fn config(policy: TraversalPolicy) -> GpuConfig {
    let mut cfg = GpuConfig::default().with_policy(policy);
    cfg.mem.num_sms = 2;
    cfg
}

/// Runs `workload` three ways — plain, checkpointed, and resumed from a
/// mid-run checkpoint — and asserts all three agree bit for bit. Returns
/// the captured checkpoints for further abuse by other tests.
fn run_all_ways(
    scene: &rtscene::Scene,
    bvh: &Bvh,
    cfg: GpuConfig,
    workload: &Workload,
    label: &str,
) -> (SimStats, Vec<Checkpoint>) {
    let sim = Simulator::new(bvh, scene.triangles(), cfg);
    let plain = sim.try_run(workload).unwrap_or_else(|e| panic!("{label}: plain run: {e}"));

    let mut ckpts: Vec<Checkpoint> = Vec::new();
    let checkpointed = sim
        .try_run_checkpointed(workload, 64, &mut |c| ckpts.push(c))
        .unwrap_or_else(|e| panic!("{label}: checkpointed run: {e}"));
    // Checkpointing is pure observation: the instrumented run is identical.
    assert_eq!(checkpointed.stats, plain.stats, "{label}: checkpoint capture perturbed the run");
    assert!(
        !ckpts.is_empty(),
        "{label}: run finished at cycle {} without crossing a checkpoint mark",
        plain.stats.cycles
    );
    for ckpt in &ckpts {
        assert_eq!(ckpt.version(), CHECKPOINT_VERSION);
        assert_eq!(ckpt.config_tag(), config_tag(&cfg));
        assert!(ckpt.cycle() <= plain.stats.cycles, "{label}: checkpoint past the end of the run");
    }

    // Resume from the first (most remaining work) and last (least) snapshot;
    // both must converge to the same final state as the uninterrupted run.
    for ckpt in [ckpts.first().unwrap(), ckpts.last().unwrap()] {
        assert_resumes(&sim, workload, ckpt, &plain, label);
    }
    (plain.stats, ckpts)
}

#[test]
fn resume_is_bit_identical_across_scenes_and_policies() {
    for id in [SceneId::Ref, SceneId::Bunny, SceneId::Spnza] {
        let (scene, bvh) = small_scene(id);
        let workload = small_workload(&scene, 32);
        for policy in policies() {
            let label = format!("{id:?}/{}", policy.label());
            run_all_ways(&scene, &bvh, config(policy), &workload, &label);
        }
    }
}

#[test]
fn every_checkpoint_of_one_run_resumes_identically() {
    let (scene, bvh) = small_scene(SceneId::Ref);
    let workload = small_workload(&scene, 32);
    let cfg = config(TraversalPolicy::Vtq(VtqParams::default()));
    let sim = Simulator::new(&bvh, scene.triangles(), cfg);
    let plain = sim.try_run(&workload).expect("plain run");

    let mut ckpts = Vec::new();
    sim.try_run_checkpointed(&workload, 48, &mut |c| ckpts.push(c)).expect("checkpointed run");
    assert!(ckpts.len() >= 2, "want several snapshots, got {}", ckpts.len());
    // Marks are spaced by the requested interval: strictly increasing cycles.
    for pair in ckpts.windows(2) {
        assert!(pair[0].cycle() < pair[1].cycle());
    }
    for ckpt in &ckpts {
        assert_resumes(&sim, &workload, ckpt, &plain, "REF/vtq");
    }
}

#[test]
fn checkpoint_round_trips_through_jsonl() {
    let (scene, bvh) = small_scene(SceneId::Bunny);
    let workload = small_workload(&scene, 24);
    let cfg = config(TraversalPolicy::Vtq(VtqParams::default()));
    let sim = Simulator::new(&bvh, scene.triangles(), cfg);
    let plain = sim.try_run(&workload).expect("plain run");

    let mut ckpts = Vec::new();
    sim.try_run_checkpointed(&workload, 64, &mut |c| ckpts.push(c)).expect("checkpointed run");
    // Lossless and behaviorally identical: each parsed snapshot equals
    // the captured one and resumes to the same end.
    for ckpt in &ckpts {
        assert_resumes(&sim, &workload, ckpt, &plain, "BUNNY/vtq");
    }
}

#[test]
fn resume_rejects_mismatched_config_and_workload() {
    let (scene, bvh) = small_scene(SceneId::Ref);
    let workload = small_workload(&scene, 32);
    let cfg = config(TraversalPolicy::Vtq(VtqParams::default()));
    let sim = Simulator::new(&bvh, scene.triangles(), cfg);
    let mut ckpts = Vec::new();
    sim.try_run_checkpointed(&workload, 64, &mut |c| ckpts.push(c)).expect("checkpointed run");
    let ckpt = ckpts.first().expect("at least one snapshot");

    // Different policy => different config fingerprint.
    let other = Simulator::new(&bvh, scene.triangles(), config(TraversalPolicy::Baseline));
    let err = resume(&other, &workload, ckpt).expect_err("config mismatch must be rejected");
    assert_eq!(err.kind(), "checkpoint");
    assert!(err.to_string().contains("checkpoint rejected"), "got: {err}");

    // Same config, different workload shape.
    let short = small_workload(&scene, 16);
    let err = resume(&sim, &short, ckpt).expect_err("workload mismatch must be rejected");
    assert_eq!(err.kind(), "checkpoint");

    // Same config, different machine geometry.
    let mut wide = config(TraversalPolicy::Vtq(VtqParams::default()));
    wide.mem.num_sms = 4;
    let wide_sim = Simulator::new(&bvh, scene.triangles(), wide);
    let err = resume(&wide_sim, &workload, ckpt).expect_err("geometry mismatch");
    assert_eq!(err.kind(), "checkpoint");

    // Same config and workload over another BVH of the scene, whose walks
    // the rays' steps do not index.
    let other = Bvh::build(scene.triangles(), &BvhConfig { max_leaf_prims: 8, ..*bvh.config() });
    assert_ne!(other.nodes().len(), bvh.nodes().len());
    let other_sim = Simulator::new(&other, scene.triangles(), cfg);
    let err = resume(&other_sim, &workload, ckpt).expect_err("BVH mismatch must be rejected");
    assert_eq!(err.kind(), "checkpoint");
    assert!(err.to_string().contains("nodes"), "got: {err}");
}

#[test]
fn corrupt_checkpoint_dumps_return_typed_errors() {
    let (scene, bvh) = small_scene(SceneId::Ref);
    let workload = small_workload(&scene, 24);
    let sim = Simulator::new(&bvh, scene.triangles(), config(TraversalPolicy::Baseline));
    let mut ckpts = Vec::new();
    sim.try_run_checkpointed(&workload, 64, &mut |c| ckpts.push(c)).expect("checkpointed run");
    let text = ckpts.first().expect("snapshot").to_jsonl();

    // Truncation: a dump with the terminal record torn off is detected.
    let torn = text.rsplit_once("\n{\"record\":\"ckpt_end\"").expect("dump ends in ckpt_end").0;
    let err = Checkpoint::from_jsonl(torn).expect_err("truncated dump must fail");
    assert!(err.reason.contains("truncated"), "got: {err}");

    let lines: Vec<&str> = text.lines().collect();
    let without = |needle: &str| -> String {
        let mut out = String::new();
        let mut dropped = false;
        for line in &lines {
            if !dropped && line.contains(needle) {
                dropped = true;
                continue;
            }
            out.push_str(line);
            out.push('\n');
        }
        assert!(dropped, "dump has no `{needle}` record to drop");
        out
    };

    // A missing per-SM stall record is caught by the parser's count check.
    let err = Checkpoint::from_jsonl(&without("\"ckpt_stall\"")).expect_err("lossy stall dump");
    assert!(err.reason.contains("ckpt_stall"), "got: {err}");

    // A missing engine record slips past the parser (fields default) but is
    // rejected by the restore validator — defense in depth, not a panic.
    let hollow = Checkpoint::from_jsonl(&without("\"ckpt_engine\""))
        .expect("engine-less dump parses (defaults)");
    let err = resume(&sim, &workload, &hollow).expect_err("restore must reject hollow state");
    assert_eq!(err.kind(), "checkpoint");

    // Garbage injection mid-stream names the offending line.
    let mut garbled = String::new();
    for (i, line) in lines.iter().enumerate() {
        garbled.push_str(if i == 2 { "not json at all" } else { line });
        garbled.push('\n');
    }
    let err = Checkpoint::from_jsonl(&garbled).expect_err("garbage line must fail");
    assert_eq!(err.line, 3, "got: {err}");

    // Version skew is rejected up front: a future version, and version 2,
    // whose rays carry stacks instead of positions.
    for version in [999, 2] {
        let (at, header) = payload_of(&text, "checkpoint").unwrap();
        let header = set_field(&header, "version", &version.to_string());
        let err = Checkpoint::from_jsonl(&with_line(&text, at, &[header]))
            .expect_err("another version must fail");
        assert!(err.reason.contains(&format!("unsupported checkpoint version {version}")), "{err}");
    }
}

/// Every `ckpt_ray` line of `text` as `(task, bounce, steps, lead)`, in
/// ray id order.
fn rays_of(text: &str) -> Vec<(usize, usize, u32, Option<u32>)> {
    let field = |l: &str| {
        let payload = check_line(l).expect("intact frame");
        let f = parse_line(&payload).expect("a record");
        (f.num("task"), f.num("bounce"), f.num("steps"), f.opt("lead"))
    };
    let rays = text.lines().filter(|l| l.contains("\"record\":\"ckpt_ray\"")).map(field);
    rays.map(|(t, b, s, l)| (t.unwrap(), b.unwrap(), s.unwrap(), l.unwrap())).collect()
}

/// The ids of the rays `text` holds in an RT unit: in a warp, on the way
/// to one, or queued.
fn resident(text: &str) -> HashSet<u32> {
    let mut ids = HashSet::new();
    for line in text.lines() {
        let payload = check_line(line).expect("intact frame");
        let f = parse_line(&payload).expect("a record");
        match f.str("record").expect("a kind").as_ref() {
            "ckpt_slot" => {
                ids.extend(f.list::<Opt<u32>>("lanes").unwrap().into_iter().flat_map(|l| l.0))
            }
            "ckpt_inc" | "ckpt_queue" => ids.extend(f.list::<u32>("rays").unwrap()),
            _ => {}
        }
    }
    ids
}

/// The steps of `call` of workload task `task`: its length on `tape`.
fn call_len(tape: &Tape, task: usize, call: usize) -> u32 {
    let mut cursor = tape.cursor(task, call);
    while let NextNode::Visit(node) = cursor.next_node(tape, None) {
        cursor.visit(tape, node);
    }
    cursor.steps(tape)
}

#[test]
fn a_snapshot_that_catches_a_ray_mid_call_resumes_identically() {
    // A ray's position is the steps it has taken in its call: some
    // snapshot must hold a ray part-way through (neither issued-only nor
    // finished), and exactly such a snapshot round-trips and resumes.
    let (scene, bvh) = small_scene(SceneId::Bunny);
    let workload = small_workload(&scene, 32);
    let tape = Tape::record(&bvh, scene.triangles(), &workload);
    let cfg = config(TraversalPolicy::Vtq(VtqParams::default()));
    let sim = Simulator::new(&bvh, scene.triangles(), cfg);
    let plain = sim.try_run(&workload).expect("plain run");

    let mut ckpts = Vec::new();
    sim.try_run_checkpointed(&workload, 32, &mut |c| ckpts.push(c)).expect("checkpointed run");
    let mid_call = |c: &&Checkpoint| {
        let rays = rays_of(&c.to_jsonl());
        rays.iter().any(|&(task, call, steps, _)| 0 < steps && steps < call_len(&tape, task, call))
    };
    let ckpt = ckpts.iter().find(mid_call).expect("some snapshot catches a ray mid-call");
    assert_resumes(&sim, &workload, ckpt, &plain, "BUNNY/vtq");
}

#[test]
fn a_speculated_ray_in_flight_resumes_identically() {
    // Each task traces its primary ray two or three times, so a repeat
    // finds the leaf its first trace trained and walks from it; a
    // snapshot records that lead beside the steps the ray has walked.
    let (scene, bvh) = small_scene(SceneId::Bunny);
    let workload = Workload {
        tasks: (0..256u32)
            .map(|i| {
                let ray = scene.camera().primary_ray(i % 16, i / 16, 16, 16, None).into();
                PathTask { rays: vec![ray; 2 + (i as usize / 64) % 2] }
            })
            .collect(),
    };
    let policy = policies()[3];
    let sim = Simulator::new(&bvh, scene.triangles(), config(policy));
    let plain = sim.try_run(&workload).expect("plain run");
    assert!(plain.stats.predict_hits > 0, "the coarse key must predict");

    let mut ckpts = Vec::new();
    sim.try_run_checkpointed(&workload, 64, &mut |c| ckpts.push(c)).expect("checkpointed run");
    let speculated_in_flight = |c: &&Checkpoint| {
        let text = c.to_jsonl();
        let resident = resident(&text);
        let rays = rays_of(&text).into_iter().enumerate();
        let mut in_flight = rays.filter(|(id, _)| resident.contains(&(*id as u32)));
        in_flight.any(|(_, (_, _, steps, lead))| lead.is_some() && steps > 0)
    };
    let speculated: Vec<&Checkpoint> = ckpts.iter().filter(speculated_in_flight).collect();
    assert!(!speculated.is_empty(), "no snapshot holds a speculated ray in flight");
    for ckpt in [speculated[0], speculated[speculated.len() - 1]] {
        assert_resumes(&sim, &workload, ckpt, &plain, "BUNNY/predict");
    }
}

#[test]
fn snapshots_taken_after_some_ctas_retired_resume_identically() {
    // The run ends on a count of retired CTAs that no checkpoint record
    // carries; a reader recounts it from the `ckpt_cta` phases. Four CTAs
    // of one, two, three and one bounces retire at different times, so
    // some snapshots hold a mix of finished and running CTAs.
    let (scene, bvh) = small_scene(SceneId::Bunny);
    let workload = Workload {
        tasks: (0..256u32)
            .map(|i| {
                let ray = scene.camera().primary_ray(i % 16, i / 16, 16, 16, None).into();
                PathTask { rays: vec![ray; 1 + (i as usize / 64) % 3] }
            })
            .collect(),
    };
    let done_ctas = |text: &str| {
        text.lines()
            .filter(|l| l.contains("\"record\":\"ckpt_cta\""))
            .fold((0, 0), |(d, n), l| (d + usize::from(l.contains("\"phase\":6,")), n + 1))
    };
    for policy in [TraversalPolicy::Baseline, TraversalPolicy::Vtq(VtqParams::default())] {
        let sim = Simulator::new(&bvh, scene.triangles(), config(policy));
        let plain = sim.try_run(&workload).expect("plain run");
        let mut ckpts = Vec::new();
        sim.try_run_checkpointed(&workload, 512, &mut |c| ckpts.push(c)).expect("checkpointed run");
        let mixed: Vec<(&Checkpoint, String)> = ckpts
            .iter()
            .map(|c| (c, c.to_jsonl()))
            .filter(
                |(_, text)| matches!(done_ctas(text), (done, total) if done > 0 && done < total),
            )
            .collect();
        let label = policy.label();
        assert!(!mixed.is_empty(), "{label}: no snapshot between the first and last retirement");
        for (ckpt, _) in [mixed.first().unwrap(), mixed.last().unwrap()] {
            assert_resumes(&sim, &workload, ckpt, &plain, label);
        }
    }
}

/// Format pin: the exact bytes `to_jsonl` writes for a fixed tiny run,
/// as CRC32 and length. The first checkpoint is pinned alone and every
/// checkpoint of the run together, so between the three policies each
/// record kind (`ckpt_queue`, `ckpt_hw`, `ckpt_pref`, `ckpt_pt`, ...) is
/// covered. Any deliberate change to the bytes re-pins these constants;
/// one that an older or newer reader could misread also bumps
/// `CHECKPOINT_VERSION`.
#[test]
fn checkpoint_bytes_are_pinned() {
    const PINS: [(&str, u32, usize, u32, usize); 3] = [
        ("vtq", 0x1122_f560, 28_409, 0xa077_40f1, 375_139),
        ("prefetch", 0x0bcd_6ce2, 28_178, 0x7351_7860, 431_050),
        ("predict", 0x9ac6_3293, 28_181, 0xeccf_b563, 507_741),
    ];
    assert_eq!(CHECKPOINT_VERSION, 3, "format version changed: re-pin the constants below");
    let (scene, bvh) = small_scene(SceneId::Bunny);
    let workload = small_workload(&scene, 64);
    let policies = [
        TraversalPolicy::Vtq(VtqParams::default()),
        TraversalPolicy::TreeletPrefetch,
        TraversalPolicy::Predict(PredictParams::default()),
    ];
    for (policy, (label, first_crc, first_len, all_crc, all_len)) in policies.into_iter().zip(PINS)
    {
        assert_eq!(policy.label(), label);
        // `AuditMode::Auto` audits in debug builds only, and the engine
        // record carries the last audit cycle: pin one profile-free mode.
        let cfg = GpuConfig { audit: AuditMode::Off, ..config(policy) };
        let sim = Simulator::new(&bvh, scene.triangles(), cfg);
        let mut texts = Vec::new();
        sim.try_run_checkpointed(&workload, 256, &mut |c| texts.push(c.to_jsonl()))
            .expect("checkpointed run");
        let all = texts.concat();
        assert_eq!(
            (crc32(texts[0].as_bytes()), texts[0].len(), crc32(all.as_bytes()), all.len()),
            (first_crc, first_len, all_crc, all_len),
            "{label}: checkpoint bytes moved"
        );
    }
}

/// The first line of `text` of record `kind`, as its unframed payload.
fn payload_of(text: &str, kind: &str) -> Option<(usize, String)> {
    let needle = format!("\"record\":\"{kind}\"");
    let (i, line) = text.lines().enumerate().find(|(_, l)| l.contains(&needle))?;
    Some((i, check_line(line).expect("intact frame")))
}

/// `text` with line `at` replaced by `lines`, each re-framed with a fresh
/// checksum — a CRC-valid file whose content is wrong.
fn with_line(text: &str, at: usize, lines: &[String]) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        if i == at {
            lines.iter().for_each(|l| out.push_str(&(frame_line(l) + "\n")));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// `payload` with the value of `key` (a bare number or a quoted string
/// without escapes) replaced by `value`, given as it should appear.
fn set_field(payload: &str, key: &str, value: &str) -> String {
    let start = payload.find(&format!("\"{key}\":")).expect("field present") + key.len() + 3;
    let rest = &payload[start..];
    let len = match rest.strip_prefix('"') {
        Some(s) => s.find('"').expect("closing quote") + 2,
        None => rest.find([',', '}']).expect("value end"),
    };
    format!("{}{value}{}", &payload[..start], &rest[len..])
}

#[test]
fn crc_valid_checkpoints_with_bad_indices_or_repeats_are_rejected_not_run() {
    let (scene, bvh) = small_scene(SceneId::Bunny);
    let workload = small_workload(&scene, 64);
    let sim =
        Simulator::new(&bvh, scene.triangles(), config(TraversalPolicy::Vtq(VtqParams::default())));
    let mut texts = Vec::new();
    sim.try_run_checkpointed(&workload, 32, &mut |c| texts.push(c.to_jsonl()))
        .expect("checkpointed run");
    // A snapshot with every record kind the cases below rewrite.
    let kinds = ["ckpt_ray", "ckpt_rt", "ckpt_slot", "ckpt_queue", "ckpt_hw"];
    let text = texts
        .iter()
        .find(|t| kinds.iter().all(|k| payload_of(t, k).is_some()))
        .expect("some snapshot has queued rays and a resident warp");
    // Node ids as a `lead` field holds them: the root, and some leaf.
    let root = format!("\"{}\"", bvh.root().0);
    assert!(!bvh.node(bvh.root()).is_leaf());
    let leaf = bvh.nodes().iter().position(|n| n.is_leaf()).expect("a leaf");
    let leaf = format!("\"{leaf}\"");

    // Typed rejection at either stage; a panic fails the test by itself.
    let assert_rejected = |label: &str, mutated: String| match Checkpoint::from_jsonl(&mutated) {
        Err(_) => {}
        Ok(ckpt) => match resume(&sim, &workload, &ckpt) {
            Ok(_) => panic!("{label}: accepted and resumed"),
            Err(err) => assert_eq!(err.kind(), "checkpoint", "{label}: {err}"),
        },
    };

    // The harness itself is sound: rewriting a field to a valid value and
    // re-framing still parses and resumes.
    let (at, observer) = payload_of(text, "ckpt_observer").unwrap();
    let same = with_line(text, at, &[set_field(&observer, "sink_events", "0")]);
    let ckpt = Checkpoint::from_jsonl(&same).expect("re-framed checkpoint parses");
    resume(&sim, &workload, &ckpt).expect("re-framed checkpoint resumes");

    // One field of one line pointing outside what the cycle loop indexes.
    let out_of_range = [
        ("ckpt_ray", "bounce", "7"),            // hits[task][bounce]
        ("ckpt_ray", "task", "4000000000"),     // hits[task]
        ("ckpt_ray", "steps", "4000000000"),    // past the call's end
        ("ckpt_ray", "lead", "\"4000000000\""), // bvh.node
        ("ckpt_ray", "lead", &root),            // not a leaf
        ("ckpt_queue", "treelet", "4000000000"),
        ("ckpt_queue", "rays", "\"4000000000\""),
        ("ckpt_rt", "current_queue", "\"4000000000\""),
        ("ckpt_rt", "preloaded", "\"4000000000\""),
        ("ckpt_rt", "hw_live", "77"),
        ("ckpt_slot", "restrict", "\"4000000000\""),
        ("ckpt_slot", "mode", "9"),
        ("ckpt_cta", "phase", "9"),
    ];
    for (kind, key, value) in out_of_range {
        let (at, payload) = payload_of(text, kind).unwrap();
        assert_rejected(
            &format!("{kind}.{key}={value}"),
            with_line(text, at, &[set_field(&payload, key, value)]),
        );
    }
    // A speculated ray re-walks from its lead: one whose walk ends before
    // its steps do is refused too.
    let (at, ray) = payload_of(text, "ckpt_ray").unwrap();
    let ray = set_field(&set_field(&ray, "lead", &leaf), "steps", "4000000000");
    assert_rejected("ckpt_ray.steps past a speculated walk", with_line(text, at, &[ray]));

    // Cache contents no running cache reaches, which the lookup state
    // derived on restore cannot represent: one valid tag in two ways of a
    // set (the scan used to let the first way win), and a valid line whose
    // `last_used + 1` victim priority wraps to an invalid line's.
    // The L1s and the ray reserve are one set each, so any two of their
    // valid lines share a set.
    let lines_of = |payload: &str| -> Vec<String> {
        let list = payload.split("\"lines\":\"").nth(1).unwrap().split('"').next().unwrap();
        list.split(' ').map(str::to_string).collect()
    };
    let valid_ways = |lines: &[String]| -> Vec<usize> {
        (0..lines.len()).filter(|&i| lines[i].ends_with(":1")).collect()
    };
    let (at, cache) = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("\"record\":\"ckpt_cache\"") && !l.contains("\"cache\":\"l2\""))
        .map(|(at, l)| (at, check_line(l).expect("intact frame")))
        .find(|(_, payload)| valid_ways(&lines_of(payload)).len() >= 2)
        .expect("some one-set cache holds two lines");
    let lines = lines_of(&cache);
    let valid = valid_ways(&lines);
    let tag = |i: usize| lines[i].split(':').next().unwrap();
    let bad_lines = [
        ("repeated tag", valid[1], format!("{}:5:1", tag(valid[0]))),
        ("last_used overflow", valid[0], format!("{}:{}:1", tag(valid[0]), u64::MAX)),
    ];
    for (label, way, entry) in bad_lines {
        let mut lines = lines.clone();
        lines[way] = entry;
        let payload = set_field(&cache, "lines", &format!("\"{}\"", lines.join(" ")));
        assert_rejected(&format!("ckpt_cache: {label}"), with_line(text, at, &[payload]));
    }

    // A record that may appear once, appearing twice, would silently
    // overwrite the first (a second `ckpt_rt` also empties the buckets its
    // SM's `ckpt_hw` lines filled): the parser refuses all of them.
    let once = ["ckpt_engine", "ckpt_observer", "ckpt_stats", "ckpt_mem"];
    for kind in once.into_iter().chain(["ckpt_rt", "ckpt_hw", "ckpt_queue"]) {
        let (at, payload) = payload_of(text, kind).unwrap();
        let err = Checkpoint::from_jsonl(&with_line(text, at, &[payload.clone(), payload]))
            .expect_err(&format!("a repeated `{kind}` must not parse"));
        assert_eq!(err.line, at + 2, "repeated `{kind}`: {err}");
    }
    // The repeated `ckpt_rt` is caught wherever it sits, e.g. after the
    // bucket lines it would have reset.
    let (_, rt) = payload_of(text, "ckpt_rt").unwrap();
    let (at, hw) = payload_of(text, "ckpt_hw").unwrap();
    let err = Checkpoint::from_jsonl(&with_line(text, at, &[hw, rt])).expect_err("late ckpt_rt");
    assert!(err.reason.contains("ckpt_rt"), "got: {err}");
}
