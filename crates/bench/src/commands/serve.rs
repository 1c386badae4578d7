//! Runs the resident sweep daemon (`vtq-serve`).
//!
//! ```text
//! vtq-bench serve --out target/daemon --quick          # fresh service dir
//! vtq-bench serve --resume target/daemon               # recover after a crash
//! ```
//!
//! The daemon binds an ephemeral local port (override with `--addr`),
//! writes it to `DIR/serve.addr` for clients to discover, and serves
//! until a protocol `shutdown` or SIGINT — both drain in-flight cells
//! through the journal before exiting, so `--resume` always picks up
//! cleanly. `--max-queue`, `--tenant-quota` and `--poison-threshold`
//! tune the robustness guardrails.

use vtq::prelude::SweepEngine;
use vtq_serve::{Server, ServerConfig};

use crate::{HarnessOpts, EXIT_OK, EXIT_USAGE};

pub fn run(opts: &HarnessOpts, _engine: &SweepEngine) -> u8 {
    let Some(dir) = opts.out.as_deref() else {
        eprintln!("usage: vtq-bench serve --out DIR (fresh) | --resume DIR (recover)");
        return EXIT_USAGE;
    };
    let mut config = ServerConfig::new(dir.to_path_buf());
    config.resume = opts.resume.is_some();
    config.jobs = opts.jobs;
    if let Some(addr) = &opts.addr {
        config.addr = addr.clone();
    }
    if let Some(n) = opts.max_queue {
        config.max_queue = n;
    }
    if let Some(n) = opts.tenant_quota {
        config.tenant_quota = n;
    }
    if let Some(n) = opts.poison_threshold {
        config.poison_threshold = n;
    }
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot start daemon in {}: {e}", dir.display());
            return EXIT_USAGE;
        }
    };
    if !opts.quiet {
        eprintln!(
            "[serve] listening on {} (service dir {}; submit with `vtq-bench submit {}`)",
            server.addr(),
            dir.display(),
            dir.display(),
        );
    }
    if let Err(e) = server.run() {
        eprintln!("error: daemon failed: {e}");
        return EXIT_USAGE;
    }
    if !opts.quiet {
        eprintln!("[serve] drained and stopped; restart with --resume {}", dir.display());
    }
    EXIT_OK
}
