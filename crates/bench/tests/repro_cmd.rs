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

    // No file argument, unreadable file, corrupt dump: all usage errors.
    assert_eq!((cmd.run)(&HarnessOpts::default(), &engine), EXIT_USAGE);
    let dir = std::env::temp_dir().join(format!("vtq-repro-cmd-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    let missing = dir.join("missing.jsonl").display().to_string();
    let opts = HarnessOpts { args: vec![missing], ..Default::default() };
    assert_eq!((cmd.run)(&opts, &engine), EXIT_USAGE);
    let corrupt = dir.join("corrupt.jsonl");
    fs::write(&corrupt, "not a reproducer\n").expect("write");
    let opts = HarnessOpts { args: vec![corrupt.display().to_string()], ..Default::default() };
    assert_eq!((cmd.run)(&opts, &engine), EXIT_USAGE);

    // A faithful reproducer (one ray under a watchdog budget shorter than
    // a memory round trip) replays to the recorded error kind: exit 0.
    let scene = lumibench::build_scaled(SceneId::Ref, 16);
    let workload = Workload {
        tasks: vec![PathTask { rays: vec![scene.camera().primary_ray(0, 0, 8, 8, None).into()] }],
    };
    let repro = Repro::for_cell(
        SceneId::Ref,
        16,
        &BvhConfig { treelet_bytes: 1024, ..Default::default() },
        &GpuConfig { max_cycles: Some(4), ..GpuConfig::default() },
        "cycle-budget",
        workload,
    )
    .expect("representable cell");
    let good = dir.join("good.jsonl");
    fs::write(&good, repro.to_jsonl()).expect("write");
    let opts = HarnessOpts { args: vec![good.display().to_string()], ..Default::default() };
    assert_eq!((cmd.run)(&opts, &engine), EXIT_OK);

    fs::remove_dir_all(&dir).ok();
}
