//! The parametric-analysis interface shared by all engines and clients.

use pda_lang::{Atom, CallInfo, MethodId, PointId, Program};

/// A parametric dataflow analysis: per-atom transfer functions `⟦a⟧_p`
/// over a finite abstract domain, parameterized by an abstraction `p`.
///
/// Implementations must be **total and deterministic** in `(p, d)`;
/// the backward meta-analysis depends on this to compute exact weakest
/// preconditions (requirement (2) of the paper's Section 4).
pub trait ParametricAnalysis {
    /// The abstraction parameter `p ∈ P`.
    type Param;
    /// An abstract state `d ∈ D`.
    type State: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug;

    /// Applies `⟦atom⟧_p` to `d`.
    fn transfer(&self, p: &Self::Param, atom: &Atom, d: &Self::State) -> Self::State;
}

/// One step of a counterexample trace: an atomic command and the program
/// point it executed at ([`pda_lang::ir::SYNTHETIC_POINT`] for glue atoms
/// synthesized at call boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// The atomic command.
    pub atom: Atom,
    /// Its program point.
    pub point: PointId,
}

/// Replays a trace from `d0`, returning the final abstract state.
///
/// Used by tests and diagnostics to check that counterexample traces are
/// consistent with the engine that produced them: replaying a witness
/// must land exactly on the state the engine reported.
pub fn replay<A: ParametricAnalysis>(
    analysis: &A,
    p: &A::Param,
    steps: &[TraceStep],
    d0: &A::State,
) -> A::State {
    steps
        .iter()
        .fold(d0.clone(), |d, s| analysis.transfer(p, &s.atom, &d))
}

/// The parameter-binding atoms executed when `call` enters `callee`
/// (receiver and arguments copied into formals), yielded without
/// allocating: the tabulation runs this once per call edge. Shared by the
/// inliner convention, the RHS engine, and trace reconstruction so all
/// three agree on the trace alphabet.
pub fn call_binding_atoms<'p>(
    program: &'p Program,
    call: &'p CallInfo,
    callee: MethodId,
) -> impl Iterator<Item = Atom> + 'p {
    let recv = match call.kind {
        pda_lang::CallKind::Virtual { recv, .. } => Some(recv),
        pda_lang::CallKind::Static(_) => None,
    };
    let actuals = recv.into_iter().chain(call.args.iter().copied());
    program.methods[callee]
        .params
        .iter()
        .zip(actuals)
        .map(|(&formal, actual)| Atom::Copy { dst: formal, src: actual })
}

/// The result-copy atom executed when `call` returns from `callee`, if the
/// call binds a result.
pub fn call_return_atom(program: &Program, call: &CallInfo, callee: MethodId) -> Option<Atom> {
    let ret = program.methods[callee].ret?;
    call.dst.map(|dst| Atom::Copy { dst, src: ret })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_lang::parse_program;

    #[test]
    fn binding_atoms_cover_receiver_and_args() {
        let p = parse_program(
            r#"
            class A { fn m(a, b) { return a; } }
            fn main() { var o, x, r; o = new A; x = null; r = o.m(x, o); }
            "#,
        )
        .unwrap();
        let call = &p.calls[pda_lang::CallId(0)];
        let callee = match call.kind {
            pda_lang::CallKind::Virtual { method, .. } => {
                p.classes[pda_lang::ClassId(0)].methods[&method]
            }
            _ => unreachable!(),
        };
        let binds: Vec<Atom> = call_binding_atoms(&p, call, callee).collect();
        assert_eq!(binds.len(), 3); // this, a, b
        assert!(matches!(binds[0], Atom::Copy { .. }));
        let ret = call_return_atom(&p, call, callee).unwrap();
        assert!(matches!(ret, Atom::Copy { .. }));
    }

    #[test]
    fn no_return_atom_without_destination() {
        let p = parse_program(
            "fn f() { } fn main() { f(); }",
        )
        .unwrap();
        let call = &p.calls[pda_lang::CallId(0)];
        let callee = match call.kind {
            pda_lang::CallKind::Static(m) => m,
            _ => unreachable!(),
        };
        assert_eq!(call_binding_atoms(&p, call, callee).count(), 0);
        assert!(call_return_atom(&p, call, callee).is_none());
    }
}
