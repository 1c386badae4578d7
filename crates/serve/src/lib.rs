//! `vtq-serve`: a crash-tolerant resident sweep service.
//!
//! The daemon keeps the expensive state of the treelet-rt evaluation —
//! prepared scenes, the [`vtq::sweep::PreparedCache`] — warm in one
//! process, and multiplexes sweep jobs from concurrent clients onto the
//! existing [`vtq::sweep::SweepEngine`], speaking line-delimited flat
//! JSON over plain [`std::net::TcpListener`] (no dependencies).
//!
//! Robustness contract:
//!
//! * **Admission control** — a bounded job queue and per-tenant quotas;
//!   excess load is rejected with a typed `overloaded`/`quota` response
//!   instead of queueing unboundedly ([`server`]).
//! * **Deadlines & cancellation** — each job carries a
//!   [`vtq::durable::CancelToken`]; an expired or cancelled job stops at
//!   the next cell boundary; its unstarted cells settle `interrupted`
//!   ([`jobs`]).
//! * **Poison quarantine** — a cell that panics accumulates persistent
//!   strikes; at the threshold it is quarantined and reported with its
//!   last panic message, never retried forever ([`jobs::PoisonList`]).
//! * **Crash recovery** — the content-addressed, provenance-stamped
//!   result cache is the daemon's one record of finished work: every
//!   finished cell is stored in it durably *before* it settles `done`, so
//!   a `kill -9` at any instant loses at most the in-flight cells, and a
//!   daemon restarted over the same dir serves completed cells from disk
//!   ([`cache`]).
//! * **Graceful degradation** — slow clients are disconnected by socket
//!   timeouts; progress events ride bounded channels that drop (counted)
//!   rather than block ([`server`], [`chaos`]).
//!
//! Both ends frame and flush through one [`wire::FrameWriter`] on
//! `TCP_NODELAY` sockets: a reply is one write, never a wait on the
//! peer's delayed-ACK timer.
//!
//! The `vtq-bench serve` / `vtq-bench submit` subcommands are thin CLI
//! shells over [`Server`] and [`Client`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod jobs;
pub mod proto;
pub mod server;
pub mod wire;

pub use cache::ResultCache;
pub use client::{discover_addr, Client};
pub use jobs::{Job, JobState, Plan, PoisonList, Registry};
pub use proto::{CellRecord, Frame, RejectReason, Request, SubmitSpec};
pub use server::{spec_config, Server, ServerConfig, ServerHandle};
