//! `vtq-bench`: the unified benchmark CLI. One subcommand per paper
//! table/figure plus the extension experiments; see `vtq-bench help`.
//!
//! ```text
//! vtq-bench all --quick --jobs 2 --out target/ci-artifacts
//! vtq-bench fig10 --scenes LANDS,FRST
//! vtq-bench trace --quick --scenes kitchen
//! ```
//!
//! Every subcommand shares one [`vtq::sweep::SweepEngine`] sized by
//! `--jobs` (default: all hardware threads); output is identical for
//! every `--jobs N`.
//!
//! This is the process's only exit point; subcommands *return* their
//! code (see the exit-code contract in [`vtq_bench`]'s docs). With an
//! output directory (`--out`/`--resume`) the engine journals cell
//! completion and Ctrl-C becomes a *graceful* drain: in-flight cells
//! finish, pending cells are journaled interrupted, and the process
//! exits [`EXIT_INTERRUPTED`] so callers know `--resume DIR` will pick
//! up where it stopped.

use std::process::ExitCode;

use vtq_bench::{commands, HarnessOpts, EXIT_INTERRUPTED, EXIT_USAGE, USAGE_OPTIONS};

fn usage() -> String {
    let mut s = String::from("usage: vtq-bench <command> [options]\n\ncommands:\n");
    for cmd in commands::ALL {
        s.push_str(&format!("  {:<12} {}\n", cmd.name, cmd.about));
    }
    s.push('\n');
    s.push_str(USAGE_OPTIONS);
    s.push('\n');
    s
}

/// Installs a SIGINT handler that flips the library's cooperative cancel
/// flag (an async-signal-safe atomic store) instead of killing the
/// process, so a journaled sweep drains and flushes before exiting, and
/// the daemon drains its running job. Registered only for those two —
/// elsewhere default SIGINT death is the honest behaviour (there is
/// nothing to resume).
#[cfg(unix)]
fn install_sigint_drain() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigint(_signum: i32) {
        vtq::durable::request_cancel();
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_drain() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h" | "list") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = commands::find(name) else {
        eprintln!("error: unknown command `{name}`\n");
        eprint!("{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    let opts = match HarnessOpts::parse(&args[1..]) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // `submit` is a *client* of a daemon, and `serve` is the daemon,
    // whose result cache is its one record of finished work: neither
    // opens a journal in the service directory. They get a bare engine;
    // every other command journals under --out/--resume.
    let engine = if matches!(cmd.name, "submit" | "serve") {
        vtq::sweep::SweepEngine::new(opts.jobs).scoped(cmd.name)
    } else {
        opts.engine().scoped(cmd.name)
    };
    if engine.journal().is_some() || cmd.name == "serve" {
        install_sigint_drain();
    }
    if opts.prof {
        vtq::prof::enable();
    }
    let code = (cmd.run)(&opts, &engine);
    if opts.prof {
        let snap = vtq::prof::snapshot();
        eprintln!("\n[prof] host-side profile:\n{}", snap.summary());
        if let Some(dir) = &opts.out {
            let path = dir.join("prof.jsonl");
            // Checksum-frame every line and publish durably (temp file +
            // fsync + rename), like every other persisted artifact.
            let mut body = format!(
                "{}\n",
                vtq::jsonl::frame_line(&vtq::provenance::provenance_line(None, None))
            );
            for record in vtq_bench::prof_records(&snap) {
                body.push_str(&record.framed());
                body.push('\n');
            }
            if let Err(e) = vtq::diskfault::write_file_durable(&path, body.as_bytes()) {
                eprintln!("[prof] cannot write {}: {e}", path.display());
            } else {
                eprintln!("[prof] snapshot in {}", path.display());
            }
        }
    }
    // A dropped journal write means journal.jsonl under-records reality:
    // a --resume would redo those cells. Never exit silently about it.
    let journal_drops = engine.journal().map(|j| j.drops()).unwrap_or(0);
    if journal_drops > 0 {
        eprintln!(
            "[journal] WARNING: {journal_drops} journal write(s) failed and were dropped; \
             a --resume run may redo the affected cells"
        );
    }
    if vtq::durable::cancel_requested() {
        if engine.journal().is_none() {
            // Only `serve` drains without a journal.
            eprintln!("[interrupted] daemon drained; its finished cells are in the result cache");
        } else if journal_drops > 0 {
            eprintln!(
                "[interrupted] sweep drained, but the journal is INCOMPLETE \
                 ({journal_drops} dropped write(s)) — --resume may redo cells"
            );
        } else {
            eprintln!(
                "[interrupted] sweep drained; journal flushed — rerun with --resume to continue"
            );
        }
        return ExitCode::from(EXIT_INTERRUPTED);
    }
    ExitCode::from(code)
}
