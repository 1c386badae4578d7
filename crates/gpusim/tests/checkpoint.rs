//! Durable-simulation integration tests: mid-run checkpoints are pure
//! observation, a resumed run's final `SimStats` is bit-identical to the
//! uninterrupted run's across scenes × traversal policies, checkpoints
//! survive a JSONL round-trip losslessly, and every mismatch or corruption
//! path returns a typed error instead of panicking.

use gpusim::jsonl::{check_line, crc32, frame_line};
use gpusim::{
    config_tag, AuditMode, Checkpoint, GpuConfig, PathTask, PredictParams, RunOptions, SimError,
    SimReport, SimStats, Simulator, TraversalPolicy, VtqParams, Workload, CHECKPOINT_VERSION,
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

fn policies() -> [TraversalPolicy; 3] {
    [
        TraversalPolicy::Baseline,
        TraversalPolicy::TreeletPrefetch,
        TraversalPolicy::Vtq(VtqParams { max_virtual_rays: 256, ..Default::default() }),
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
        let resumed = resume(&sim, workload, ckpt)
            .unwrap_or_else(|e| panic!("{label}: resume from cycle {}: {e}", ckpt.cycle()));
        assert_eq!(
            resumed.stats,
            plain.stats,
            "{label}: resume from cycle {} diverged",
            ckpt.cycle()
        );
        assert_eq!(resumed.hits, plain.hits, "{label}: resumed hits diverged");
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
        let resumed = resume(&sim, &workload, ckpt).expect("resume");
        assert_eq!(resumed.stats, plain.stats, "resume from cycle {} diverged", ckpt.cycle());
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
    for ckpt in &ckpts {
        let text = ckpt.to_jsonl();
        let back = Checkpoint::from_jsonl(&text)
            .unwrap_or_else(|e| panic!("round-trip of cycle-{} snapshot: {e}", ckpt.cycle()));
        // Lossless: the parsed snapshot is structurally identical...
        assert_eq!(&back, ckpt, "JSONL round-trip lost state at cycle {}", ckpt.cycle());
        // ...and behaviorally identical: resuming it reaches the same end.
        let resumed = resume(&sim, &workload, &back).expect("resume parsed snapshot");
        assert_eq!(resumed.stats, plain.stats);
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

    // Version skew is rejected up front.
    let skewed = text.replacen(&format!("\"version\":{CHECKPOINT_VERSION}"), "\"version\":999", 1);
    let err = Checkpoint::from_jsonl(&skewed).expect_err("future version must fail");
    assert!(err.reason.contains("version"), "got: {err}");
}

#[test]
fn mid_run_snapshots_carry_live_stack_entries() {
    // The flat-BVH4 refactor rebuilt the traversal stacks on pooled
    // arenas serialized as `StackEntry` pair tokens; this pins that the
    // new layout is genuinely exercised — some snapshot must capture an
    // in-flight ray with pending `node:t_bits` stack entries — and that
    // exactly such a snapshot survives the JSONL round-trip and resumes
    // bit-identically.
    let (scene, bvh) = small_scene(SceneId::Bunny);
    let workload = small_workload(&scene, 32);
    let cfg = config(TraversalPolicy::Vtq(VtqParams::default()));
    let sim = Simulator::new(&bvh, scene.triangles(), cfg);
    let plain = sim.try_run(&workload).expect("plain run");

    let mut ckpts = Vec::new();
    sim.try_run_checkpointed(&workload, 32, &mut |c| ckpts.push(c)).expect("checkpointed run");

    let has_live_stack = |text: &str| {
        text.lines().any(|l| {
            l.contains("\"record\":\"ckpt_ray\"")
                && !l.contains("\"cur_stack\":\"\"")
                && l.contains(':')
        })
    };
    let live = ckpts
        .iter()
        .map(|c| (c, c.to_jsonl()))
        .find(|(_, text)| has_live_stack(text))
        .expect("some snapshot must catch a ray mid-traversal with pending stack entries");

    let (ckpt, text) = live;
    let back = Checkpoint::from_jsonl(&text).expect("round-trip parses");
    assert_eq!(&back, ckpt, "live-stack snapshot lost state in the JSONL round-trip");
    let resumed = resume(&sim, &workload, &back).expect("resume live-stack snapshot");
    assert_eq!(resumed.stats, plain.stats, "resume from live-stack snapshot diverged");
    assert_eq!(resumed.hits, plain.hits);
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
        for (ckpt, text) in [mixed.first().unwrap(), mixed.last().unwrap()] {
            let back = Checkpoint::from_jsonl(text).expect("round-trip parses");
            assert_eq!(&back, *ckpt, "{label}: cycle {}", ckpt.cycle());
            let resumed = resume(&sim, &workload, &back).expect("resume");
            assert_eq!(resumed.stats, plain.stats, "{label}: cycle {}", ckpt.cycle());
            assert_eq!(resumed.hits, plain.hits);
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
        ("vtq", 0xfbe3_2f90, 45_400, 0x10ab_b334, 595_360),
        ("prefetch", 0xe945_46e7, 45_169, 0xc1b2_7ed3, 683_121),
        ("predict", 0x0e2d_7a75, 45_172, 0xd91c_2385, 793_931),
    ];
    assert_eq!(CHECKPOINT_VERSION, 2, "format version changed: re-pin the constants below");
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
    let (at, engine) = payload_of(text, "ckpt_engine").unwrap();
    let same = with_line(text, at, &[set_field(&engine, "sink_events", "0")]);
    let ckpt = Checkpoint::from_jsonl(&same).expect("re-framed checkpoint parses");
    resume(&sim, &workload, &ckpt).expect("re-framed checkpoint resumes");

    // One field of one line pointing outside what the cycle loop indexes.
    let out_of_range = [
        ("ckpt_ray", "bounce", "7"),                   // hits[task][bounce]
        ("ckpt_ray", "task", "4000000000"),            // hits[task]
        ("ckpt_ray", "treelet", "4000000000"),         // bvh.treelet_extent
        ("ckpt_ray", "cur_stack", "\"4000000000:0\""), // bvh.node
        ("ckpt_ray", "tre_stack", "\"4000000000:0\""),
        ("ckpt_ray", "best_node", "\"4000000000\""),
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
    for kind in ["ckpt_engine", "ckpt_stats", "ckpt_mem", "ckpt_rt", "ckpt_hw", "ckpt_queue"] {
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
