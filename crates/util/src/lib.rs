//! Small shared utilities for the `optimum-pda` workspace.
//!
//! This crate is dependency-free and provides the plumbing every other crate
//! in the workspace leans on:
//!
//! * [`BitSet`] — a growable bit set used for abstraction parameters
//!   (sets of tracked variables, site→`L` maps) and worklists.
//! * [`define_idx!`] — typed index newtypes plus [`IdxVec`], a vector
//!   indexed by such a newtype, mirroring the arena style common in
//!   compiler IRs.
//! * [`Summary`] — a min/max/mean accumulator used when reproducing the
//!   paper's tables.
//! * [`CacheStats`] — hit/miss counters with rate reporting, shared by the
//!   batch scheduler's forward-run cache and the experiment drivers.
//! * [`SplitMix64`] — a tiny deterministic PRNG, replacing the external
//!   `rand` crate so the workspace builds offline.
//! * [`Deadline`] — a cooperative wall-clock cancel token polled by the
//!   tabulation and solver inner loops.
//! * [`MemBudget`] — one query's deterministic byte ledger, charged at
//!   the engines' allocation hot spots and polled by the TRACER memory
//!   governor's degradation ladder.
//! * [`obs`] — structured observability: the [`ObsRegistry`]
//!   counter/span registry, the typed [`Event`] trace stream, and the
//!   [`TraceSink`] implementations behind `--trace`/`--metrics`.
//! * [`json`] — the shared hand-rolled JSONL codec (flat objects) used by
//!   both the batch checkpoint format and the trace-event stream.
//! * [`faultplane`] — the deterministic fault-point injection plane:
//!   named seams ([`fault_point`]) armed by a [`FaultPlan`]
//!   (`--fault-plan`/`PDA_FAULT_PLAN`) that panics, stalls, IO-fails, or
//!   aborts at exact, reproducible visits.
//! * [`heartbeat`] — the thread-local progress counter the serve
//!   watchdog uses to tell a slow request from a non-cooperative stall.
//! * [`FxHashMap`] — a hash map keyed through [`FxHasher`], a fast,
//!   unseeded multiply-rotate hasher for the engines' internal id and
//!   state tables (deterministic iteration order, no DoS resistance),
//!   and [`fnv1a`], a fixed byte hash for values that must agree across
//!   builds.
//!
//! # Examples
//!
//! ```
//! use pda_util::BitSet;
//! let mut s = BitSet::new(8);
//! s.insert(3);
//! assert!(s.contains(3) && !s.contains(4));
//! assert_eq!(s.count(), 1);
//! ```

#![warn(missing_docs)]

mod bitset;
mod deadline;
pub mod faultplane;
mod fxhash;
pub mod heartbeat;
mod idx;
pub mod json;
mod membudget;
pub mod obs;
mod rng;
mod stats;

pub use bitset::BitSet;
pub use deadline::{AmbientDeadlineGuard, Deadline, DeadlineExceeded};
pub use faultplane::{fault_point, fault_point_io, FaultFile, FaultPlan};
pub use fxhash::{fnv1a, fx_hash, FxBuildHasher, FxHashMap, FxHasher};
pub use heartbeat::{beat, install_heartbeat, HeartbeatGuard};
pub use idx::IdxVec;
pub use membudget::{parse_bytes, MemBudget};
pub use obs::{
    Counter, Event, FileSink, NullSink, ObsRegistry, Recorder, Span, SpanKind, SpanStats,
    TraceSink,
};
pub use rng::SplitMix64;
pub use stats::{CacheStats, Summary};

/// Types usable as dense arena indices.
///
/// Implemented by the newtypes generated with [`define_idx!`]; the trait is
/// what lets [`IdxVec`] be indexed type-safely.
pub trait Idx: Copy + Eq + Ord + core::hash::Hash + core::fmt::Debug {
    /// Wraps a raw `usize` index.
    fn from_usize(i: usize) -> Self;
    /// Unwraps to the raw `usize` index.
    fn index(self) -> usize;
}
