// A test-only client wrapper with an unsound weakest precondition, for
// the Theorem 3 membership check. Included (`include!`) by the test
// binaries that need it.

/// Wraps a [`pda_tracer::TracerClient`] and reports the weakest
/// precondition of each `broken` primitive as constant `true`, across
/// every atom; everything else delegates.
///
/// Unsound on purpose: failure conditions carry their primitives
/// negatively (`¬null(x)`) and the meta-analysis computes
/// `wp(¬π) = ¬wp(π)`, so a `true` precondition collapses the cube to
/// `false`, which the membership check reports as `MembershipLost`
/// (surfacing as `Unresolved::MetaFailure`). A `false` here would negate
/// to `true` and corrupt silently instead.
struct BreakWp<'c, C: pda_tracer::TracerClient> {
    inner: &'c C,
    broken: Vec<C::Prim>,
}

impl<'c, C: pda_tracer::TracerClient> BreakWp<'c, C> {
    /// Breaks the wp of every primitive of `query`'s failure condition.
    fn for_query(inner: &'c C, query: &pda_tracer::Query<C::Prim>) -> Self {
        fn prims<P: Clone>(f: &pda_meta::Formula<P>, out: &mut Vec<P>) {
            use pda_meta::Formula;
            match f {
                Formula::True | Formula::False => {}
                Formula::Prim(p) => out.push(p.clone()),
                Formula::Not(g) => prims(g, out),
                Formula::And(gs) | Formula::Or(gs) => gs.iter().for_each(|g| prims(g, out)),
            }
        }
        let mut broken = Vec::new();
        prims(&query.not_q, &mut broken);
        BreakWp { inner, broken }
    }
}

impl<C: pda_tracer::TracerClient> pda_tracer::TracerClient for BreakWp<'_, C> {
    type Param = C::Param;
    type State = C::State;
    type Prim = C::Prim;

    fn transfer(&self, p: &C::Param, atom: &pda_lang::Atom, d: &C::State) -> C::State {
        self.inner.transfer(p, atom, d)
    }

    fn wp_prim(&self, atom: &pda_lang::Atom, prim: &C::Prim) -> pda_meta::Formula<C::Prim> {
        if self.broken.contains(prim) {
            pda_meta::Formula::True
        } else {
            self.inner.wp_prim(atom, prim)
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
