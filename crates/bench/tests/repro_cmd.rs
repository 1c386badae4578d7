//! End-to-end test of `vtq-bench repro`: the command replays a shrunk
//! reproducer file and returns the exit-code contract's verdicts.

use std::fs;

use gpusim::{PathTask, Workload};
use vtq::prelude::*;
use vtq_bench::{commands, HarnessOpts, EXIT_OK, EXIT_USAGE};

#[test]
fn repro_command_enforces_the_exit_code_contract() {
    let cmd = commands::find("repro").expect("repro is registered");
    let engine = SweepEngine::new(1);

    // A faithful reproducer: one ray under a watchdog budget shorter than
    // a memory round trip.
    let scene = lumibench::build_scaled(SceneId::Ref, 16);
    let workload = Workload {
        tasks: vec![PathTask { rays: vec![scene.camera().primary_ray(0, 0, 8, 8, None).into()] }],
    };
    let dump = |policy| {
        Repro::for_cell(
            SceneId::Ref,
            16,
            &BvhConfig { treelet_bytes: 1024, ..Default::default() },
            &GpuConfig { max_cycles: Some(4), policy, ..GpuConfig::default() },
            "cycle-budget",
            workload.clone(),
        )
        .expect("representable cell")
        .to_jsonl()
    };
    let good = dump(TraversalPolicy::Baseline);
    let good_vtq = dump(TraversalPolicy::Vtq(VtqParams::default()));
    // What a hand edit of one header field leaves behind.
    let edited = |text: &str, from: &str, to: &str| {
        assert!(text.contains(from), "no {from} in {text}");
        text.replacen(from, to, 1)
    };

    // No file argument, unreadable file, corrupt dump, a dump whose
    // machine `GpuConfig::validate` rejects: all usage errors.
    assert_eq!((cmd.run)(&HarnessOpts::default(), &engine), EXIT_USAGE);
    let dir = std::env::temp_dir().join(format!("vtq-repro-cmd-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    let run_file = |name: &str, text: &str| {
        let path = dir.join(name);
        fs::write(&path, text).expect("write");
        let opts = HarnessOpts { args: vec![path.display().to_string()], ..Default::default() };
        (cmd.run)(&opts, &engine)
    };
    let missing = dir.join("missing.jsonl").display().to_string();
    let opts = HarnessOpts { args: vec![missing], ..Default::default() };
    assert_eq!((cmd.run)(&opts, &engine), EXIT_USAGE);
    for (name, text) in [
        ("corrupt.jsonl", "not a reproducer\n".to_string()),
        ("no-sms.jsonl", edited(&good, r#""num_sms":16"#, r#""num_sms":0"#)),
        ("no-budget.jsonl", edited(&good, r#""max_cycles":"4""#, r#""max_cycles":"0""#)),
        ("no-dispatch.jsonl", edited(&good_vtq, ":2:128:22:", ":2:0:22:")),
    ] {
        assert_eq!(run_file(name, &text), EXIT_USAGE, "{name}");
    }

    // The faithful reproducer replays to the recorded error kind: exit 0,
    // under either policy.
    assert_eq!(run_file("good.jsonl", &good), EXIT_OK);
    assert_eq!(run_file("good-vtq.jsonl", &good_vtq), EXIT_OK);

    fs::remove_dir_all(&dir).ok();
}
