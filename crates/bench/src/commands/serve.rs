//! Runs the resident sweep daemon (`vtq-serve`).
//!
//! ```text
//! vtq-bench serve --out target/daemon --quick          # start, or restart after a crash
//! ```
//!
//! The daemon binds an ephemeral local port (override with `--addr`),
//! writes it to `DIR/serve.addr` for clients to discover, and serves
//! until a protocol `shutdown` or SIGINT — both drain in-flight cells
//! before exiting. Its result cache in `DIR/cache/` is its one record of
//! finished work, so a daemon started over the same `DIR` (after a
//! drain or a `kill -9`) serves every cell an earlier one finished.
//! `--resume DIR` is accepted as a synonym of `--out DIR`.
//! `--max-queue`, `--tenant-quota` and `--poison-threshold` tune the
//! robustness guardrails.

use vtq::prelude::SweepEngine;
use vtq_serve::{Server, ServerConfig};

use crate::{HarnessOpts, EXIT_OK, EXIT_USAGE};

pub fn run(opts: &HarnessOpts, _engine: &SweepEngine) -> u8 {
    let Some(dir) = opts.out.as_deref() else {
        eprintln!("usage: vtq-bench serve --out DIR");
        return EXIT_USAGE;
    };
    let mut config = ServerConfig::new(dir.to_path_buf());
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
        eprintln!(
            "[serve] drained and stopped; a daemon started over {} serves what this one cached",
            dir.display()
        );
    }
    EXIT_OK
}
