//! # pd-serve — the long-running measurement service
//!
//! The paper's end state is a continuously available crowd-assisted
//! detection system: many users submitting checks against measurements
//! that were crawled once — not a batch CLI. This crate is that shape: a
//! real TCP daemon (`std::net`, blocking listener, fixed worker pool)
//! owning warm state behind `Arc`s — one process-wide memo of stage
//! artifacts and analysis frames ([`pd_core::StoreCache`]), the opened
//! artifact stores, the interner — and answering an HTTP/1.1 JSON API:
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /runs` | submit a scenario name or inline spec → `{"id": "j-N"}` |
//! | `GET /runs` | recent jobs, newest first |
//! | `GET /runs/:id` | status, timings, frame stats, rendered summary |
//! | `GET /runs/:id/report` | report JSON, byte-identical to `pd run --json` |
//! | `GET /healthz` | liveness (`ok`) |
//! | `GET /metrics` | text `key value` counters (jobs, frames, stage ms, memo) |
//! | `POST /shutdown` | graceful drain: queued jobs finish, then exit |
//!
//! Jobs run on a **runner pool** (`--runners N`, default cores /
//! job-threads) fed by a bounded queue — a full queue answers `503` +
//! `Retry-After` instead of ever blocking the accept loop — and
//! **identical submissions coalesce**: while a job for a given
//! (spec fingerprint, seed, profile) is queued or running, an identical
//! submission gets its own `j-N` id but attaches as a *follower* of the
//! in-flight *leader* instead of taking a queue slot; when the leader
//! finishes, every follower settles with the same (byte-identical)
//! report, its snapshot naming the leader in `coalesced_into`. The
//! `/metrics` counter `jobs_coalesced` counts followers. Every engine
//! shares the daemon's memo [`pd_core::StoreCache`] (injected through
//! [`pd_core::ExperimentBuilder::store_cache`]), so a repeated analysis
//! is served from warm frames (`frames_built == 0`,
//! `frames_reused > 0`), concurrent jobs load each measurement store
//! from disk at most once, and a seed's second execution keeps its
//! computed measurement artifacts — from the third on, a job reports
//! `store_loads == 3` and runs no crowd or crawl stage (`/metrics`
//! gauge `memo_entries`). The job table stores each distinct report
//! body once: executions of one submission share one allocation.
//!
//! The wire format is the byte-level codec in `pd_web::http`; the same
//! [`Request`](pd_web::http::Request)/[`Response`](pd_web::http::Response)
//! types serve the daemon, the blocking [`Client`], and the
//! `pd submit` / `pd poll` CLI. Connections are **HTTP/1.1 persistent**
//! on both sides: the accept workers serve a per-connection request
//! loop until the client sends `connection: close` (or goes idle), and
//! the [`Client`] caches its socket between requests, so polling pays
//! the TCP handshake once.
//!
//! ```
//! use pd_serve::{Client, ServeConfig, Server, SubmitRequest};
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".to_owned(), // ephemeral test port
//!     ..ServeConfig::default()
//! })
//! .expect("bind");
//! let client = Client::new(&server.addr().to_string());
//! let id = client
//!     .submit(&SubmitRequest {
//!         scenario: Some("smoke".to_owned()),
//!         seed: Some(7),
//!         profile: Some("smoke".to_owned()),
//!         ..SubmitRequest::default()
//!     })
//!     .expect("queued");
//! let done = client
//!     .wait_done(&id, std::time::Duration::from_secs(60))
//!     .expect("smoke job finishes");
//! assert!(done.has_report);
//! client.shutdown().expect("graceful drain");
//! server.join(); // returns once drained — exit 0, nothing orphaned
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod service;

pub use client::Client;
pub use server::Server;
pub use service::{
    JobSnapshot, JobState, Metrics, PdService, RunsList, ServeConfig, SubmitError, SubmitReply,
    SubmitRequest,
};
