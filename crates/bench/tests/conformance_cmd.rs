//! End-to-end test of `vtq-bench conformance` against the real binary and
//! the committed `golden/` snapshots: tier-1 checks one scene's row of the
//! oracle matrix and of every golden, and goes red on a moved figure
//! value. (The 14-scene matrix is the CI `conformance` job.)

use std::fs;
use std::path::Path;
use std::process::Command;

use vtq::jsonl::{check_line, frame_line, parse_line};

const BIN: &str = env!("CARGO_BIN_EXE_vtq-bench");
/// `golden/` resolves against the working directory.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn conformance_in(dir: &Path) -> (Option<i32>, String) {
    let out = Command::new(BIN)
        .args(["conformance", "--quick", "--scenes", "BUNNY", "--quiet"])
        .current_dir(dir)
        .output()
        .expect("run vtq-bench");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout) + &text(&out.stderr))
}

#[test]
fn committed_goldens_hold_and_a_moved_figure_value_fails() {
    let (code, output) = conformance_in(Path::new(REPO_ROOT));
    assert_eq!(code, Some(0), "{output}");
    assert!(output.contains("golden fig10: ok (2 entries within tolerance"), "{output}");

    // The same tree with BUNNY's Fig 10 speedup 30 % higher — a valid,
    // correctly framed snapshot of a number the simulator does not produce.
    let dir = std::env::temp_dir().join(format!("vtq-conformance-cmd-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(dir.join("golden")).expect("temp dir");
    for entry in fs::read_dir(Path::new(REPO_ROOT).join("golden")).expect("golden/") {
        let entry = entry.expect("entry");
        fs::copy(entry.path(), dir.join("golden").join(entry.file_name())).expect("copy");
    }
    let fig10 = dir.join("golden/fig10.json");
    let mut moved = 0;
    let doctored: Vec<String> = fs::read_to_string(&fig10)
        .expect("fig10.json")
        .lines()
        .map(|line| {
            let body = check_line(line).expect("committed golden lines verify");
            if !body.contains(r#""key":"scene/BUNNY/vtq_speedup""#) {
                return line.to_string();
            }
            let value = parse_line(&body).expect("flat JSON").f64("value").expect("value");
            moved += 1;
            frame_line(&body.replacen(
                &format!(r#""value":{value}"#),
                &format!(r#""value":{}"#, value * 1.3),
                1,
            ))
        })
        .collect();
    assert_eq!(moved, 1, "one entry to move");
    fs::write(&fig10, doctored.join("\n") + "\n").expect("write");

    let (code, output) = conformance_in(&dir);
    assert_eq!(code, Some(1), "{output}");
    assert!(output.contains("golden fig10: 1 violations"), "{output}");
    fs::remove_dir_all(&dir).ok();
}
