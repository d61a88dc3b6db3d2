//! Fault injection for exercising TRACER's failure paths.
//!
//! Production clients don't panic, diverge, or return unsound weakest
//! preconditions — so the resilience machinery (panic isolation,
//! deadlines, [`crate::tracer::Unresolved::MetaFailure`]) would otherwise
//! go untested. [`FaultInjectingClient`] wraps any [`TracerClient`] and
//! misbehaves *on demand*, per query:
//!
//! * [`Fault::Panic`] — the first evaluation of the query's failure
//!   condition panics, as a buggy client `transfer`/`holds` would;
//! * [`Fault::Stall`] — the first evaluation sleeps, simulating a
//!   diverging client so wall-clock deadlines have something to catch;
//! * [`Fault::BreakWp`] — the weakest precondition of the tripped
//!   primitive is unsound (constant `true`), which the backward
//!   meta-analysis detects as a broken Theorem 3 membership invariant and
//!   reports as [`MetaFailure`](crate::tracer::Unresolved::MetaFailure).
//!
//! Faults are carried *inside the query formula* (a [`FaultPrim::Trip`]
//! wrapper around each primitive), so one batch can mix healthy and
//! faulty queries against a single client instance: healthy queries see
//! primitives and weakest preconditions structurally identical to the
//! inner client's (modulo the [`FaultPrim::Inner`] constructor, which is
//! transparent to evaluation), which is what the determinism tests rely
//! on. A separate [`FaultInjectingClient::transfer_bomb`] makes every
//! *forward transfer* panic, planting the fault inside the RHS engine —
//! and, in batch mode, inside the shared forward cache's compute closure.

use crate::client::{Query, TracerClient};
use pda_lang::Atom;
use pda_meta::{Formula, Primitive};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One injected misbehaviour; fires at most once per [`Query`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fault {
    /// Panic with this message on first evaluation.
    Panic(String),
    /// Sleep this long on first evaluation (pair with a query timeout).
    Stall(Duration),
    /// Report an unsound weakest precondition for the tripped primitive,
    /// which the meta-analysis rejects as a membership-invariant break.
    BreakWp,
}

/// A client primitive, possibly booby-trapped.
///
/// The `fired` flag is *shared across clones* (formulas clone primitives
/// freely), which is what makes the fault one-shot per query; it is
/// deliberately excluded from equality/ordering/hashing so tripped and
/// untripped copies of the same primitive stay interchangeable inside
/// cubes and DNFs.
#[derive(Debug, Clone)]
pub enum FaultPrim<P> {
    /// A plain primitive of the inner client.
    Inner(P),
    /// A primitive that fires `fault` on first evaluation.
    Trip {
        /// The underlying primitive (evaluation delegates to it).
        inner: P,
        /// What goes wrong.
        fault: Fault,
        /// Whether the fault has already fired (shared across clones).
        fired: Arc<AtomicBool>,
    },
}

impl<P> FaultPrim<P> {
    fn key(&self) -> (&P, Option<&Fault>) {
        match self {
            FaultPrim::Inner(p) => (p, None),
            FaultPrim::Trip { inner, fault, .. } => (inner, Some(fault)),
        }
    }
}

impl<P: PartialEq> PartialEq for FaultPrim<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<P: Eq> Eq for FaultPrim<P> {}
impl<P: PartialOrd> PartialOrd for FaultPrim<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.key().partial_cmp(&other.key())
    }
}
impl<P: Ord> Ord for FaultPrim<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}
impl<P: std::hash::Hash> std::hash::Hash for FaultPrim<P> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl<P: fmt::Display> fmt::Display for FaultPrim<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPrim::Inner(p) => write!(f, "{p}"),
            FaultPrim::Trip { inner, .. } => write!(f, "trip({inner})"),
        }
    }
}

impl<P: Primitive> FaultPrim<P> {
    fn spring(&self) {
        let FaultPrim::Trip { fault, fired, .. } = self else { return };
        if fired.swap(true, Ordering::SeqCst) {
            return;
        }
        match fault {
            Fault::Panic(msg) => panic!("{msg}"),
            // Sleep in small slices polling the ambient deadline, so a
            // cooperative timeout shorter than the stall still fires at
            // the engine's next poll instead of waiting out the whole
            // sleep. With no deadline in scope the stall runs in full —
            // the non-cooperative case the serve watchdog exists for.
            Fault::Stall(d) => pda_util::faultplane::stall(*d),
            Fault::BreakWp => {}
        }
    }
}

impl<P: Primitive> Primitive for FaultPrim<P> {
    type Param = P::Param;
    type State = P::State;

    fn holds(&self, p: &P::Param, d: &P::State) -> bool {
        self.spring();
        match self {
            FaultPrim::Inner(x) | FaultPrim::Trip { inner: x, .. } => x.holds(p, d),
        }
    }

    fn eval_state(&self, d: &P::State) -> Option<bool> {
        self.spring();
        match self {
            FaultPrim::Inner(x) | FaultPrim::Trip { inner: x, .. } => x.eval_state(d),
        }
    }

    fn param_atom(&self) -> Option<(usize, bool)> {
        match self {
            FaultPrim::Inner(x) | FaultPrim::Trip { inner: x, .. } => x.param_atom(),
        }
    }

    fn implies(&self, other: &Self) -> bool {
        let (a, af) = self.key();
        let (b, bf) = other.key();
        af == bf && a.implies(b)
    }

    fn contradicts(&self, other: &Self) -> bool {
        self.key().0.contradicts(other.key().0)
    }
}

/// Maps a formula over inner primitives into the fault alphabet.
pub fn lift_formula<P: Primitive>(f: Formula<P>) -> Formula<FaultPrim<P>> {
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Prim(p) => Formula::Prim(FaultPrim::Inner(p)),
        Formula::Not(inner) => Formula::Not(Box::new(lift_formula(*inner))),
        Formula::And(parts) => Formula::And(parts.into_iter().map(lift_formula).collect()),
        Formula::Or(parts) => Formula::Or(parts.into_iter().map(lift_formula).collect()),
    }
}

fn map_prims<P: Primitive>(
    f: Formula<P>,
    wrap: &impl Fn(P) -> FaultPrim<P>,
) -> Formula<FaultPrim<P>> {
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Prim(p) => Formula::Prim(wrap(p)),
        Formula::Not(inner) => Formula::Not(Box::new(map_prims(*inner, wrap))),
        Formula::And(parts) => Formula::And(parts.into_iter().map(|g| map_prims(g, wrap)).collect()),
        Formula::Or(parts) => Formula::Or(parts.into_iter().map(|g| map_prims(g, wrap)).collect()),
    }
}

/// Lifts a healthy query into the fault alphabet unchanged.
pub fn lift_query<P: Primitive>(q: Query<P>) -> Query<FaultPrim<P>> {
    Query { point: q.point, not_q: lift_formula(q.not_q), source: q.source, limits: q.limits }
}

/// Booby-traps a query: every primitive of its failure condition fires
/// `fault` (once, whichever primitive is evaluated first — they share one
/// flag).
pub fn faulty_query<P: Primitive>(q: Query<P>, fault: Fault) -> Query<FaultPrim<P>> {
    let fired = Arc::new(AtomicBool::new(false));
    let wrap = move |p: P| FaultPrim::Trip { inner: p, fault: fault.clone(), fired: fired.clone() };
    Query { point: q.point, not_q: map_prims(q.not_q, &wrap), source: q.source, limits: q.limits }
}

/// Wraps a [`TracerClient`], delegating everything but the injected
/// faults.
#[derive(Debug, Clone)]
pub struct FaultInjectingClient<'c, C> {
    inner: &'c C,
    /// If set, *every* forward transfer panics with this message — the
    /// fault lives inside the RHS engine (and the batch forward cache),
    /// unlike per-query trips.
    pub transfer_bomb: Option<String>,
}

impl<'c, C: TracerClient> FaultInjectingClient<'c, C> {
    /// A transparent wrapper: no faults until configured.
    pub fn new(inner: &'c C) -> Self {
        FaultInjectingClient { inner, transfer_bomb: None }
    }

    /// Makes every forward transfer panic with `msg`.
    #[must_use]
    pub fn with_transfer_bomb(mut self, msg: &str) -> Self {
        self.transfer_bomb = Some(msg.to_string());
        self
    }
}

impl<C: TracerClient> TracerClient for FaultInjectingClient<'_, C> {
    type Param = C::Param;
    type State = C::State;
    type Prim = FaultPrim<C::Prim>;

    fn transfer(&self, p: &C::Param, atom: &Atom, d: &C::State) -> C::State {
        if let Some(msg) = &self.transfer_bomb {
            panic!("{msg}");
        }
        self.inner.transfer(p, atom, d)
    }

    fn wp_prim(&self, atom: &Atom, prim: &Self::Prim) -> Formula<Self::Prim> {
        match prim {
            FaultPrim::Inner(p) => lift_formula(self.inner.wp_prim(atom, p)),
            // Unsound on purpose: query failure conditions carry their
            // primitives *negatively* (`¬null(x)`), and the meta-analysis
            // computes `wp(¬π) = ¬wp(π)`; a constant-`true` precondition
            // therefore collapses the cube to `false`, and the Theorem 3
            // membership check catches it as `MembershipLost`. (`false`
            // here would negate to `true` and corrupt *silently* — the
            // failure mode this fault exists to distinguish.)
            FaultPrim::Trip { fault: Fault::BreakWp, .. } => Formula::True,
            FaultPrim::Trip { inner, .. } => lift_formula(self.inner.wp_prim(atom, inner)),
        }
    }

    fn n_atoms(&self) -> usize {
        self.inner.n_atoms()
    }

    fn atom_cost(&self, atom: usize) -> u64 {
        self.inner.atom_cost(atom)
    }

    fn param_of_model(&self, assignment: &[bool]) -> C::Param {
        self.inner.param_of_model(assignment)
    }

    fn initial_state(&self) -> C::State {
        self.inner.initial_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullcli::{NullClient, NullPrim};
    use crate::tracer::{solve_query, TracerConfig};
    use pda_analysis::PointsTo;
    use pda_lang::VarId;

    fn setup() -> (pda_lang::Program, PointsTo, NullClient, Query<NullPrim>) {
        let program = pda_lang::parse_program(
            "fn main() { var x, y; x = null; y = x; query q: local y; }",
        )
        .unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let q = program.query_by_label("q").unwrap();
        let query = client.query(&program, q);
        (program, pa, client, query)
    }

    #[test]
    fn lifted_query_solves_identically() {
        let (program, pa, client, query) = setup();
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let config = TracerConfig::default();
        let plain = solve_query(&program, &callees, &client, &query, &config);
        let wrapped = FaultInjectingClient::new(&client);
        let lifted = solve_query(&program, &callees, &wrapped, &lift_query(query), &config);
        assert_eq!(plain.outcome, lifted.outcome);
        assert_eq!(plain.iterations, lifted.iterations);
    }

    #[test]
    fn fault_prim_identity_ignores_fired_flag() {
        let a = FaultPrim::Trip {
            inner: NullPrim::Var(VarId(0)),
            fault: Fault::BreakWp,
            fired: Arc::new(AtomicBool::new(false)),
        };
        let b = FaultPrim::Trip {
            inner: NullPrim::Var(VarId(0)),
            fault: Fault::BreakWp,
            fired: Arc::new(AtomicBool::new(true)),
        };
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_ne!(a, FaultPrim::Inner(NullPrim::Var(VarId(0))));
    }

    /// Faulty weakest preconditions are rejected by both meta-kernels:
    /// the CEGAR loop (interned kernel) resolves as a meta failure, and
    /// the tree kernel, replayed on the counterexample of that same
    /// failing iteration, loses the Theorem 3 membership invariant too.
    #[test]
    fn broken_wp_is_rejected_by_both_kernels() {
        use crate::client::{AsAnalysis, AsMeta};
        use crate::tracer::{solve_query_logged, Outcome, Unresolved};
        let (program, pa, client, query) = setup();
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let wrapped = FaultInjectingClient::new(&client);
        let config = TracerConfig::default();
        let faulty = faulty_query(query, Fault::BreakWp);
        let (r, log) = solve_query_logged(&program, &callees, &wrapped, &faulty, &config);
        assert!(
            matches!(r.outcome, Outcome::Unresolved(Unresolved::MetaFailure(_))),
            "{:?}",
            r.outcome
        );
        // The log ends with the failing iteration: the abstraction it
        // tried, with nothing learned.
        assert_eq!(log.len(), r.iterations, "every iteration is logged");
        let failing = log.last().expect("the failing iteration is logged");
        assert!(failing.learned.is_none());
        let p = failing.param.clone();
        let d0 = wrapped.initial_state();
        let run = pda_dataflow::rhs::run(
            &program,
            &AsAnalysis(&wrapped),
            &p,
            d0.clone(),
            &callees,
            pda_dataflow::RhsLimits::default(),
        )
        .expect("forward run fits");
        let trace = run
            .witness(faulty.point, &|d: &_| faulty.not_q.holds(&p, d))
            .expect("the failing iteration has a counterexample");
        let atoms: Vec<_> = trace.iter().map(|s| s.atom).collect();
        let tree = pda_meta::analyze_trace(
            &AsMeta(&wrapped),
            &p,
            &d0,
            &atoms,
            &faulty.not_q,
            &config.beam,
        );
        assert!(matches!(tree, Err(pda_meta::MetaError::MembershipLost { .. })), "{tree:?}");
    }

    #[test]
    fn panic_fault_fires_once_through_the_formula() {
        let (_, _, _, query) = setup();
        let faulty = faulty_query(query, Fault::Panic("injected".into()));
        let err = std::panic::catch_unwind(|| {
            let d: std::collections::BTreeSet<VarId> = std::collections::BTreeSet::new();
            faulty.not_q.holds(&pda_util::BitSet::new(2), &d);
        })
        .unwrap_err();
        assert_eq!(err.downcast_ref::<String>().map(String::as_str), Some("injected"));
        // The shared flag is spent: a second evaluation is healthy.
        let d: std::collections::BTreeSet<VarId> = std::collections::BTreeSet::new();
        assert!(faulty.not_q.holds(&pda_util::BitSet::new(2), &d));
    }
}
