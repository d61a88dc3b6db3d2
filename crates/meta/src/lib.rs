//! The backward meta-analysis of the paper's Section 4.
//!
//! When the forward analysis instantiated at abstraction `p` fails to prove
//! a query, TRACER hands this crate an abstract counterexample trace `t`
//! (a sequence of atomic commands), the abstraction `p`, and the initial
//! abstract state `d_I`. The meta-analysis walks `t` *backward*, tracking a
//! formula `f ∈ M` over primitives that talk about **both** the forward
//! analysis's abstract state `d` and the abstraction `p` — a sufficient
//! condition for the forward analysis to fail. Its guarantees (Theorem 3):
//!
//! 1. if `(p, F_p[t](d)) ∈ σ(f)` then `(p, d) ∈ σ(B[t](p, d, f))` — the
//!    current failure is retained, so each CEGAR iteration eliminates at
//!    least the abstraction it just tried; and
//! 2. every `(p₀, d₀) ∈ σ(B[t](p, d, f))` satisfies
//!    `(p₀, F_{p₀}[t](d₀)) ∈ σ(f)` — everything eliminated really does
//!    fail, so pruning never discards a viable abstraction.
//!
//! The implementation follows the paper's *disjunctive meta-analysis*
//! recipe (Section 4.1):
//!
//! * [`Formula`] over a client-supplied [`Primitive`] type;
//! * weakest preconditions are given per primitive ([`MetaClient::wp_prim`])
//!   and extended homomorphically over `¬/∧/∨` — exact because every
//!   forward transfer is a total deterministic function of `(p, d)`
//!   (requirement (2) of the framework);
//! * formulas are kept in DNF ([`Dnf`]) and under-approximated by
//!   [`approx()`]: `simplify` drops subsumed disjuncts, and `drop_k`
//!   (Figure 8) beam-searches down to `k` disjuncts while always keeping a
//!   disjunct containing the current `(p, d)` — whose existence Theorem 3
//!   guarantees and this implementation checks at runtime.
//!
//! The driver [`backward::analyze_trace`] is the `B[t]` of Figure 7;
//! [`backward::restrict`] evaluates the resulting trace-entry formula at
//! `d_I`, leaving a pure parameter formula — the set of unviable
//! abstractions handed to `pda-solver`.
//!
//! Two kernels implement that walk. The tree kernel above is the
//! reference semantics, kept as the test oracle;
//! [`interned::analyze_trace_interned`] is the production kernel — it lowers the client's tree formulas once per
//! trace into interned primitives, packed-literal cubes with subsumption
//! signatures, and a per-trace wp memo, and is bit-identical to the tree
//! kernel by construction (see the module docs of [`interned`]).

#![warn(missing_docs)]

pub mod approx;
pub mod backward;
pub mod formula;
pub mod interned;
pub mod stats;

pub use approx::{approx, approx_obs, simplify, simplify_obs, to_dnf_obs, BeamConfig};
pub use backward::{analyze_trace, check_wp_exact, restrict, MetaClient, MetaError};
pub use formula::{Cube, Dnf, Formula, Lit, Primitive};
pub use interned::{analyze_trace_interned, InternCache, TraceAnalysis, WarmStore};
pub use stats::MetaStats;
