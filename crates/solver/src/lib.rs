//! Minimum-cost boolean model finding for abstraction selection.
//!
//! TRACER (Algorithm 1 of the paper) maintains a *viable set* of
//! abstractions: the initial family `P` minus, per CEGAR iteration, the set
//! of abstractions the backward meta-analysis proved unviable. Each
//! unviable set arrives as a boolean formula `φᵢ` over *parameter atoms*
//! ("variable `x` is tracked", "site `h` maps to `L`"), so the viable set
//! is the models of `⋀ᵢ ¬φᵢ`, and the paper's "choose a minimum `p`"
//! (line 8) is exactly a **minimum-cost model** query — costs count
//! tracked variables resp. `L`-sites, matching the paper's cost preorders
//! `p ⪯ p' ⟺ |p| ≤ |p'|`.
//!
//! This crate implements that query: [`PFormula`] (formulas over atoms)
//! and two engines that return the same cheapest model or report
//! unsatisfiability — the paper's *impossibility* outcome. [`Bdd`], a
//! resident ROBDD that absorbs one constraint per CEGAR iteration, is the
//! production engine; [`MinCostSolver`] (Tseitin conversion to CNF plus a
//! DPLL branch-and-bound search, rebuilt from scratch per call) is the
//! reference engine the tests check it against.
//!
//! # Example
//!
//! ```
//! use pda_solver::{MinCostSolver, PFormula};
//! // Viable abstractions must track atom 0 or atom 1, and not atom 2.
//! let mut solver = MinCostSolver::new(3, vec![1, 1, 1]);
//! solver.require(PFormula::or(vec![PFormula::lit(0, true), PFormula::lit(1, true)]));
//! solver.require(PFormula::lit(2, false));
//! let model = solver.solve().unwrap();
//! assert_eq!(model.cost, 1);
//! assert!(!model.assignment[2]);
//! ```

#![warn(missing_docs)]

mod bdd;
mod cnf;
mod dpll;

pub use bdd::Bdd;
pub use dpll::{MinCostSolver, Model};

/// A boolean formula over parameter atoms `0..n`.
///
/// Constructed by the backward meta-analysis when it restricts its final
/// trace-entry formula to the initial abstract state, leaving only
/// parameter primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PFormula {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// An atom or its negation.
    Lit {
        /// Atom index.
        atom: usize,
        /// `true` for the positive literal.
        pos: bool,
    },
    /// Negation.
    Not(Box<PFormula>),
    /// Conjunction (true if empty).
    And(Vec<PFormula>),
    /// Disjunction (false if empty).
    Or(Vec<PFormula>),
}

impl PFormula {
    /// A literal.
    pub fn lit(atom: usize, pos: bool) -> PFormula {
        PFormula::Lit { atom, pos }
    }

    /// Conjunction, flattening trivial cases.
    pub fn and(mut parts: Vec<PFormula>) -> PFormula {
        parts.retain(|p| *p != PFormula::True);
        if parts.contains(&PFormula::False) {
            return PFormula::False;
        }
        match parts.len() {
            0 => PFormula::True,
            1 => parts.pop().unwrap(),
            _ => PFormula::And(parts),
        }
    }

    /// Disjunction, flattening trivial cases.
    pub fn or(mut parts: Vec<PFormula>) -> PFormula {
        parts.retain(|p| *p != PFormula::False);
        if parts.contains(&PFormula::True) {
            return PFormula::True;
        }
        match parts.len() {
            0 => PFormula::False,
            1 => parts.pop().unwrap(),
            _ => PFormula::Or(parts),
        }
    }

    /// Negation, collapsing double negation and constants.
    // An associated constructor like `and`/`or`, not a `!` overload on
    // `self` — the by-value signature is the point.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: PFormula) -> PFormula {
        match f {
            PFormula::True => PFormula::False,
            PFormula::False => PFormula::True,
            PFormula::Lit { atom, pos } => PFormula::Lit { atom, pos: !pos },
            PFormula::Not(inner) => *inner,
            other => PFormula::Not(Box::new(other)),
        }
    }

    /// Evaluates under a total assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        match self {
            PFormula::True => true,
            PFormula::False => false,
            PFormula::Lit { atom, pos } => assignment[*atom] == *pos,
            PFormula::Not(f) => !f.eval(assignment),
            PFormula::And(fs) => fs.iter().all(|f| f.eval(assignment)),
            PFormula::Or(fs) => fs.iter().any(|f| f.eval(assignment)),
        }
    }

    /// Collects the atoms mentioned (sorted, deduplicated).
    pub fn atoms(&self) -> Vec<usize> {
        fn go(f: &PFormula, out: &mut Vec<usize>) {
            match f {
                PFormula::True | PFormula::False => {}
                PFormula::Lit { atom, .. } => out.push(*atom),
                PFormula::Not(f) => go(f, out),
                PFormula::And(fs) | PFormula::Or(fs) => fs.iter().for_each(|f| go(f, out)),
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_simplify() {
        assert_eq!(PFormula::and(vec![]), PFormula::True);
        assert_eq!(PFormula::or(vec![]), PFormula::False);
        assert_eq!(
            PFormula::and(vec![PFormula::True, PFormula::lit(0, true)]),
            PFormula::lit(0, true)
        );
        assert_eq!(
            PFormula::or(vec![PFormula::True, PFormula::lit(0, true)]),
            PFormula::True
        );
        assert_eq!(PFormula::not(PFormula::lit(1, true)), PFormula::lit(1, false));
        assert_eq!(
            PFormula::not(PFormula::not(PFormula::And(vec![
                PFormula::lit(0, true),
                PFormula::lit(1, true)
            ]))),
            PFormula::And(vec![PFormula::lit(0, true), PFormula::lit(1, true)])
        );
    }

    #[test]
    fn eval_matches_semantics() {
        let f = PFormula::or(vec![
            PFormula::and(vec![PFormula::lit(0, true), PFormula::lit(1, false)]),
            PFormula::lit(2, true),
        ]);
        assert!(f.eval(&[true, false, false]));
        assert!(!f.eval(&[true, true, false]));
        assert!(f.eval(&[false, true, true]));
    }

    #[test]
    fn atoms_sorted_unique() {
        let f = PFormula::and(vec![
            PFormula::lit(3, true),
            PFormula::or(vec![PFormula::lit(1, false), PFormula::lit(3, true)]),
        ]);
        assert_eq!(f.atoms(), vec![1, 3]);
    }
}
