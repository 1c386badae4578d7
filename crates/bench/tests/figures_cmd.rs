//! End-to-end tests of the figure subcommands against the real binary:
//! the exit-code contract when cells fail (a failed cell drops its scene
//! from the table and fails the run; a table with no surviving row is a
//! header, never a mean of nothing), and `--scenes` being honoured by the
//! commands that have a default subset of their own.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_vtq-bench");

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let Output { status, stdout, stderr } =
        Command::new(BIN).args(args).arg("--quiet").output().expect("run vtq-bench");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (status.code(), text(stdout), text(stderr))
}

#[test]
fn a_clean_figure_exits_zero() {
    let (code, stdout, stderr) = run(&["fig10", "--quick", "--scenes", "ref"]);
    assert_eq!(code, Some(0), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "header, dashes, REF, GEOMEAN: {stdout}");
    assert!(lines[2].trim_start().starts_with("REF"), "{stdout}");
    assert!(lines[3].trim_start().starts_with("GEOMEAN"), "{stdout}");
}

#[test]
fn a_figure_whose_cells_fail_prints_its_header_and_exits_one() {
    // A 1000-cycle watchdog budget fails every cell of the figure.
    let (code, stdout, stderr) =
        run(&["fig10", "--quick", "--scenes", "ref", "--max-cycles", "1000"]);
    assert_eq!(code, Some(1), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "a header and its dashes, no row, no summary: {stdout}");
    assert!(lines[0].contains("vtq_speedup"), "{stdout}");
    assert!(stderr.contains("[sweep] cell 0 (REF/baseline) panicked"), "{stderr}");
}

#[test]
fn all_with_failing_cells_reports_and_exits_one() {
    let (code, stdout, stderr) =
        run(&["all", "--quick", "--scenes", "ref", "--max-cycles", "1000"]);
    assert_eq!(code, Some(1), "{stderr}");
    // The cells' own panics are caught and reported; the command itself
    // must not die summarising an empty table.
    assert!(!stderr.contains("thread 'main'"), "{stderr}");
    assert!(!stderr.contains("of nothing"), "{stderr}");
    assert!(stderr.contains("[sweep] cell 0 (REF/baseline) panicked"), "{stderr}");
    // Every section is there, none with a row or a summary: the scene
    // statistics and the analytical model do not simulate and survive.
    assert!(stdout.contains("## Figure 10 — overall speedup\n\n| scene |"), "{stdout}");
    assert!(stdout.contains("| REF | 218 |"), "Table 2 keeps its row: {stdout}");
    assert!(!stdout.contains("**"), "no summary row of nothing: {stdout}");
}

#[test]
fn fig11_runs_every_scene_it_is_given() {
    // The fourteen default scenes, named explicitly: not "no --scenes".
    let all = "BUNNY,SPNZA,CHSNT,REF,CRNVL,BATH,PARTY,SPRNG,LANDS,FRST,PARK,FOX,CAR,ROBOT";
    let (code, stdout, stderr) = run(&["fig11", "--quick", "--scenes", all]);
    assert_eq!(code, Some(0), "{stderr}");
    let blocks: Vec<&str> = stdout.lines().filter(|l| l.starts_with("# ")).collect();
    assert_eq!(blocks.len(), 14, "{blocks:?}");
    for (block, scene) in blocks.iter().zip(all.split(',')) {
        assert!(block.starts_with(&format!("# {scene} ")), "{block}");
    }
    // Without --scenes it is the paper's LANDS plot.
    let (_, stdout, _) = run(&["fig11", "--quick"]);
    assert_eq!(stdout.lines().filter(|l| l.starts_with("# ")).count(), 1);
    assert!(stdout.starts_with("# LANDS "), "{stdout}");
}

#[test]
fn an_extension_experiment_whose_cells_fail_prints_its_header_and_exits_one() {
    let (code, stdout, stderr) =
        run(&["nee", "--quick", "--scenes", "ref", "--max-cycles", "1000"]);
    assert_eq!(code, Some(1), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "a header and its dashes, no row, no summary: {stdout}");
    assert!(lines[0].contains("nee_gain"), "{stdout}");
    assert!(stderr.contains("[sweep] cell 0 (REF/baseline) panicked"), "{stderr}");
}

#[test]
fn ablations_with_failing_cells_report_and_exit_one() {
    let (code, stdout, stderr) =
        run(&["ablations", "--quick", "--scenes", "ref", "--max-cycles", "1000"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(!stderr.contains("thread 'main'"), "{stderr}");
    assert!(stderr.contains("[sweep] cell 0 (REF/baseline) panicked"), "{stderr}");
    // Every section keeps its title and header; none has a row.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("-- Ablation")).count(), 7, "{stdout}");
    assert!(!stdout.contains("REF"), "{stdout}");
}

#[test]
fn an_extension_experiment_runs_its_own_scenes_unless_given_some() {
    let scenes = |stdout: &str| -> Vec<String> {
        let rows = stdout.lines().skip(2).filter_map(|l| l.split_whitespace().next());
        rows.filter(|scene| *scene != "GEOMEAN").map(str::to_string).collect()
    };
    let (code, stdout, stderr) = run(&["nee", "--quick"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(scenes(&stdout), ["BATH", "LANDS"], "{stdout}");
    let (code, stdout, stderr) = run(&["nee", "--quick", "--scenes", "ref"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(scenes(&stdout), ["REF"], "{stdout}");
}
