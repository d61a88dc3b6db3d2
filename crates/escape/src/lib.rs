//! The parametric **thread-escape analysis** client (the paper's Figures 5
//! and 11, after Naik et al.).
//!
//! A heap object is *thread-local* when it is reachable from at most one
//! thread. The analysis summarizes objects with two abstract locations:
//! `L` (definitely thread-local, or null) and `E` (possibly escaping, or
//! null), plus `N` for definitely-null values. The abstraction parameter
//! maps each allocation site to `L` or `E`; mapping more sites to `L` is
//! more precise but more expensive (the paper's cost preorder counts
//! `L`-sites). The abstract state is an environment over local variables
//! and (the fields of `L`-summarized objects collectively) object fields.
//!
//! The crucial transfer function is `esc(d)` — invoked when an `L` object
//! may escape (stored into a global, into an escaped object, or passed to
//! a spawned thread): every non-null local flips to `E` and all field
//! knowledge resets, the "dramatic information loss" the paper describes,
//! and precisely what makes the *choice* of `L`-sites matter.
//!
//! # Design note
//!
//! Rather than transcribing the paper's Figure 11 backward transfer
//! functions literally, both directions are generated from one
//! *case table* per atomic command (`cases`): a list of disjoint, total
//! guarded symbolic updates. The weakest precondition is derived
//! mechanically from the table. The forward transfer — the hot path of
//! every forward run — is a direct `match` on the atom; an exhaustive
//! test checks it against the table's own reading. Further exhaustive
//! tests check the transfer and the weakest preconditions against each
//! other (requirement (2) of the paper's framework) and the table's
//! disjointness/totality.

#![warn(missing_docs)]

mod cases;
mod client;
mod domain;

pub use client::EscapeClient;
pub use domain::{Cell, Env, EscPrim, Val};
