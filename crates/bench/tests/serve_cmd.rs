//! End-to-end test of the `serve`/`submit` subcommands against the real
//! binary: a resident daemon serves two concurrent CLI clients, survives
//! a SIGKILL mid-sweep, and — restarted over its surviving result cache
//! (`--resume DIR`, a synonym of `--out DIR`) — serves results
//! bit-identical to a serial in-process run (`--verify-local` is the
//! oracle: the submit client re-runs the whole matrix locally and fails
//! on any divergence).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vtq_serve::{discover_addr, Client, Frame, Request, SubmitSpec};

const BIN: &str = env!("CARGO_BIN_EXE_vtq-bench");

fn service_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtq-serve-cmd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_daemon(dir: &Path, resume: bool) -> Child {
    let dir_flag = if resume { "--resume" } else { "--out" };
    Command::new(BIN)
        .args(["serve", dir_flag])
        .arg(dir)
        .args(["--quick", "--jobs", "2", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon")
}

fn wait_for_addr(dir: &Path) -> std::net::SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = discover_addr(dir) {
            // The listener is live before the file is written, so a
            // parseable file means a connectable daemon.
            return addr;
        }
        assert!(Instant::now() < deadline, "daemon never wrote serve.addr");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn submit(dir: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(BIN).arg("submit").arg(dir).args(extra).output().expect("run submit")
}

#[test]
fn daemon_survives_sigkill_and_resumes_bit_identically() {
    let dir = service_dir();
    let daemon = spawn_daemon(&dir, false);
    let addr = wait_for_addr(&dir);

    // Two concurrent CLI clients against the live daemon.
    let d1 = dir.clone();
    let c1 = std::thread::spawn(move || {
        submit(
            &d1,
            &[
                "--quick",
                "--res",
                "8",
                "--scenes",
                "REF",
                "--policies",
                "baseline",
                "--tenant",
                "t1",
                "--quiet",
            ],
        )
    });
    let d2 = dir.clone();
    let c2 = std::thread::spawn(move || {
        submit(
            &d2,
            &[
                "--quick",
                "--res",
                "8",
                "--scenes",
                "BUNNY",
                "--policies",
                "baseline",
                "--tenant",
                "t2",
                "--quiet",
            ],
        )
    });
    let (out1, out2) = (c1.join().unwrap(), c2.join().unwrap());
    assert!(out1.status.success(), "client 1 failed: {}", String::from_utf8_lossy(&out1.stderr));
    assert!(out2.status.success(), "client 2 failed: {}", String::from_utf8_lossy(&out2.stderr));
    assert!(String::from_utf8_lossy(&out1.stdout).contains("REF/baseline"));
    assert!(String::from_utf8_lossy(&out2.stdout).contains("BUNNY/baseline"));

    // SIGKILL the daemon mid-sweep: submit a 4-cell watched job and pull
    // the plug as soon as the first cell settles.
    let mut watcher = Client::connect(addr).expect("connect watcher");
    let spec = SubmitSpec {
        scenes: vec![
            vtq_serve::proto::parse_scene("REF").unwrap(),
            vtq_serve::proto::parse_scene("BUNNY").unwrap(),
        ],
        policies: vec![
            vtq_serve::proto::parse_policy("baseline").unwrap(),
            vtq_serve::proto::parse_policy("vtq").unwrap(),
        ],
        res: Some(16),
        watch: true,
        ..SubmitSpec::default()
    };
    watcher.send(&Request::Submit(spec)).expect("send submit");
    assert!(matches!(watcher.read_frame().expect("accepted"), Frame::Accepted { .. }));
    let mut daemon = daemon;
    match watcher.read_frame() {
        Ok(Frame::CellEvent { .. }) => {}
        // The kill below is valid wherever the sweep stands; an early
        // disconnect just means the daemon died even earlier.
        other => eprintln!("watch stream ended before first event: {other:?}"),
    }
    daemon.kill().expect("SIGKILL daemon");
    daemon.wait().expect("reap daemon");

    // Restart over the surviving cache. The old address file is stale;
    // drop it so the wait below observes the *new* daemon's address.
    std::fs::remove_file(dir.join("serve.addr")).ok();
    let mut daemon = spawn_daemon(&dir, true);
    wait_for_addr(&dir);

    // Resubmit the identical matrix through the CLI. `--verify-local`
    // re-runs all 4 cells serially in-process and fails on any
    // divergence — this is the bit-identical-to-serial oracle, and it
    // also proves the cache lost nothing and duplicated nothing.
    let out = submit(
        &dir,
        &[
            "--quick",
            "--res",
            "16",
            "--scenes",
            "REF,BUNNY",
            "--policies",
            "baseline,vtq",
            "--verify-local",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "post-crash submit failed: {stderr}");
    assert!(stderr.contains("--verify-local: all 4 records match"), "verify oracle ran: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for label in ["REF/baseline", "REF/vtq", "BUNNY/baseline", "BUNNY/vtq"] {
        assert!(stdout.contains(label), "missing result row {label}: {stdout}");
    }

    // Protocol shutdown drains the daemon; it exits 0.
    let out = submit(&dir, &["shutdown"]);
    assert!(out.status.success(), "shutdown failed: {}", String::from_utf8_lossy(&out.stderr));
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "clean drain exits 0");
    assert!(!dir.join("journal.jsonl").exists(), "the daemon keeps no journal");

    let _ = std::fs::remove_dir_all(&dir);
}
