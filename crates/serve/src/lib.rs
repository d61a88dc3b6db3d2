//! **pda-serve** — the analysis-as-a-service daemon.
//!
//! A long-lived, fully offline process that loads one Jaylite program,
//! keeps the expensive per-program artifacts resident — the parsed
//! program, call graph, the [`pda_tracer::ForwardCache`] of shared
//! forward runs, and a per-connection [`pda_tracer::InternCache`] — and
//! answers queries over a line-oriented JSON protocol (one flat object
//! per line, the same hand-rolled codec as the batch checkpoint format).
//!
//! The transport is a Unix domain socket (or stdin/stdout for one-shot
//! scripting); the interesting part is the **supervision layer** wrapped
//! around the resident analysis state:
//!
//! * **Per-request isolation** — every solve attempt runs inside
//!   [`pda_tracer::isolate`], the batch driver's `catch_unwind`
//!   boundary; a worker panic becomes a structured `engine_fault` error
//!   response, never a dead connection or a dead daemon.
//! * **Cache quarantine** — after a panic the warm-cache *generation* is
//!   retired: a fresh, empty forward cache is swapped in, the generation
//!   counter bumps, and every connection's interner is rebuilt before
//!   its next request, so a possibly-poisoned entry can never serve a
//!   later request. The retired cache's `Arc` dies with the requests
//!   already holding it.
//! * **Deadlines and retry** — each request attempt runs under its own
//!   fresh wall-clock deadline, and transient faults (engine faults;
//!   deadline hits when so configured) are retried on
//!   [`pda_tracer::retry_ladder`], the batch driver's deterministic
//!   [`pda_tracer::RetryPolicy`] backoff ladder.
//! * **Graceful drain** — SIGTERM/SIGINT (or a `shutdown` request) stops
//!   admission; in-flight work finishes or is checkpointed (the `batch`
//!   op runs under the drain flag as its cancel signal) and the process
//!   exits cleanly. A restarted daemon resumes finished queries from its
//!   journal, a standard batch checkpoint file.
//! * **Probes and spans** — a `health` op reports readiness and the
//!   supervision counters, and `--trace` streams the per-request
//!   structured event log as JSONL.
//!
//! See `DESIGN.md` ("Service architecture & failure model") for the
//! protocol schema and the failure-mode table.

#![warn(missing_docs)]

pub mod daemon;
pub mod proto;
pub mod signal;
pub mod supervisor;

pub use daemon::{request_line, run_daemon, DaemonOptions, DaemonReport, ServeError};
pub use proto::{parse_request, LineBuilder, Op, Request, Target};
pub use supervisor::{ConnState, Reply, ServeConfig, Supervisor};
