//! Sweep-as-a-service for the TTA design-space explorer.
//!
//! This crate turns the one-shot `ttadse explore` sweep into a
//! long-running service while *guaranteeing* the remote path cannot
//! drift from the local one:
//!
//! - [`spec`] — the wire-level [`spec::JobSpec`]: one JSON object per
//!   job, round-tripping exactly the knobs `ttadse explore` accepts.
//! - [`exec`] — the shared executor. The local CLI and the daemon
//!   both call [`exec::prepare`] → [`exec::PreparedJob::run`]
//!   and emit [`exec::JobOutput::output`] verbatim, so `--remote`
//!   output is byte-identical to a local run by construction.
//! - [`json`] / [`jsonparse`] — deterministic hand-rolled JSON in both
//!   directions (the container has no serde, and the byte-identity
//!   contract is stronger than serde's guarantees anyway).
//! - [`http`] — a deliberately small HTTP/1.1 subset: framed requests,
//!   plain and chunked responses, nothing a hand audit can't cover.
//! - [`queue`] — the admission gate: at most `--workers` jobs run at
//!   once, waiting ones start by priority, then budget, then FIFO.
//! - [`server`] — the daemon: one shared warm
//!   [`tta_core::cache::SweepCache`], one thread per connection (a job
//!   runs on the connection that submitted it) with per-job panic
//!   isolation, NDJSON progress streaming, cancel/resume, read and
//!   write deadlines, graceful SIGTERM.
//! - [`client`] — the thin `ttadse explore --remote URL` client.
//!
//! The protocol is documented in `docs/SERVE.md`, which is doc-tested
//! below so its embedded examples cannot rot.

#![warn(missing_docs)]

pub mod client;
pub mod exec;
pub mod http;
pub mod json;
pub mod jsonparse;
pub mod queue;
pub mod server;
pub mod spec;

#[cfg(doctest)]
mod serve_guide {
    #![doc = include_str!("../../../docs/SERVE.md")]
}
