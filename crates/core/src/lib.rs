//! **TRACER** — the paper's Algorithm 1: iterative forward–backward search
//! for an *optimum* abstraction.
//!
//! Given a program, a parametric dataflow analysis, and a query, TRACER
//! repeatedly:
//!
//! 1. picks a **minimum-cost** abstraction from the current viable set
//!    (a min-cost SAT query over the parameter atoms, `pda-solver`);
//! 2. runs the **forward** analysis (`pda-dataflow`'s RHS engine) with it;
//! 3. if the query is proven — done: the abstraction is optimum, because
//!    everything cheaper was already proven unviable;
//! 4. otherwise extracts an abstract **counterexample trace** and runs the
//!    **backward meta-analysis** (`pda-meta`) over it, obtaining a formula
//!    describing a whole set of abstractions that are guaranteed to fail
//!    the same way; those are removed from the viable set;
//! 5. if the viable set empties — the query is **impossible** for this
//!    analysis, no abstraction in the (possibly exponential) family can
//!    prove it.
//!
//! The crate is generic over [`TracerClient`]; `pda-typestate` and
//! `pda-escape` implement the paper's two clients, and [`nullcli`]
//! provides a small self-contained demonstration client used in tests and
//! docs.
//!
//! # Example
//!
//! ```
//! use pda_tracer::{nullcli::NullClient, solve_query, Outcome, TracerConfig};
//!
//! let program = pda_lang::parse_program(r#"
//!     fn main() {
//!         var x, y;
//!         x = null;
//!         y = x;
//!         query q: local y;   // prove y is definitely null here
//!     }
//! "#).unwrap();
//! let pa = pda_analysis::PointsTo::analyze(&program);
//! let client = NullClient::new(&program);
//! let q = program.query_by_label("q").unwrap();
//! let query = client.query(&program, q);
//! let result = solve_query(
//!     &program,
//!     &|c| pa.callees(c).to_vec(),
//!     &client,
//!     &query,
//!     &TracerConfig::default(),
//! );
//! // Cheapest abstraction tracks exactly {x, y}.
//! match result.outcome {
//!     Outcome::Proven { cost, .. } => assert_eq!(cost, 2),
//!     other => panic!("expected proof, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod brute;
pub mod client;
pub mod nullcli;
pub mod resilience;
pub mod tracer;

pub use baseline::{solve_query_coarse, CoarseAtoms};
pub use batch::{
    default_jobs, emit_query_trace, isolate, outcome_tag, retry_ladder, solve_queries_batch,
    solve_queries_batch_traced, BatchConfig, BatchStats, ForwardCache, RetryPolicy, WorkerMeta,
};
pub use brute::brute_force_optimum;
pub use client::{AsAnalysis, AsMeta, Query, QueryLimits, TracerClient};
pub use resilience::{
    load_checkpoint, open_checkpoint, solve_queries_batch_checkpointed,
    solve_queries_batch_checkpointed_traced, CheckpointError, CheckpointWriter, ParamCodec,
};
pub use pda_meta::{InternCache, MetaStats};
pub use tracer::{
    solve_query, solve_query_logged, IterationLog, Outcome, QueryObs, QueryResult, Session,
    TracerConfig, Unresolved,
};
