//! End-to-end tests against the real binary of the fault campaign — the
//! integrity net's cheapest run, so tier-1 drives it — and of what the CLI
//! refuses as a usage error: the switches the product no longer has, a
//! configuration no cell could run.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_vtq-bench");

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(BIN).args(args).output().expect("run vtq-bench");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn quick_campaign_is_clean_and_every_exported_line_is_framed() {
    let dir: PathBuf = std::env::temp_dir().join(format!("vtq-faults-cmd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (code, stderr) = run(&["faults", "--quick", "--out", dir.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(0), "campaign must be clean: {stderr}");
    assert!(stderr.contains("[faults] 25 cells"), "{stderr}");

    let text = std::fs::read_to_string(dir.join("faults.jsonl")).expect("faults.jsonl exported");
    let mut cells = 0;
    for line in text.lines() {
        assert!(vtq::jsonl::is_framed(line), "unframed line in faults.jsonl: {line}");
        let payload = vtq::jsonl::check_line(line).expect("every line passes its checksum");
        cells += usize::from(payload.contains("\"record\":\"fault_cell\""));
    }
    assert_eq!(cells, 25, "one record per cell after the provenance line");
    let _ = std::fs::remove_dir_all(&dir);

    // `--quick` sizes the campaign as a flag: a second flag that edits
    // the configuration must not turn it into the 64-cell full campaign.
    let (code, stderr) = run(&["faults", "--quick", "--strict-invariants"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("[faults] 25 cells"), "{stderr}");
}

#[test]
fn retired_switches_and_unrunnable_configurations_are_usage_errors() {
    for args in [
        &["perf"][..],
        &["chaos", "--quick", "--sabotage"],
        &["serve", "--chaos"],
        &["fig10", "--quick", "--trials", "3"],
        // Refused at parse, before any cell can panic on it.
        &["fig10", "--quick", "--scenes", "ref", "--res", "0"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
