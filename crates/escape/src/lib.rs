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
//! Figure 11's backward transfer functions are easy to mistranscribe, so
//! both directions are specified by one *case table* per atomic command
//! (`cases`): a list of disjoint, total guarded symbolic updates. The
//! production transfers are direct `match`es on the atom — the forward
//! transfer of every forward run, and the weakest precondition the
//! backward pass's wp closure asks for every `(atom, prim)` pair — and
//! the tables, compiled only into tests, are their oracle: exhaustive
//! tests check the forward transfer against the table's own reading and
//! the weakest precondition against the formula the table derives
//! (syntactically equal, since the meta kernel reads the formula's
//! shape). Further exhaustive tests check the transfer and the weakest
//! preconditions against each other (requirement (2) of the paper's
//! framework) and the table's disjointness/totality.

#![warn(missing_docs)]

mod cases;
mod client;
mod domain;

pub use client::EscapeClient;
pub use domain::{Cell, Env, EscPrim, Val};
