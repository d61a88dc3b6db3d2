//! The thread-escape [`TracerClient`] and its query generators.

use crate::cases;
use crate::domain::{Cell, Env, EscPrim, Val};
use pda_lang::{Atom, Node, PointId, Program, QueryId, QueryKind, VarId};
use pda_meta::Formula;
use pda_tracer::{Query, QueryLimits, TracerClient};
use pda_util::BitSet;

/// The thread-escape client: one instance answers every `local` query of
/// a program (the forward run is shared across queries, unlike the
/// per-site type-state client).
///
/// The abstraction parameter is a [`BitSet`] over allocation sites —
/// bit set means the site is summarized by `L` — with cost equal to the
/// number of `L` sites, the paper's preorder.
#[derive(Debug, Clone)]
pub struct EscapeClient {
    n_vars: usize,
    n_fields: usize,
    n_sites: usize,
}

impl EscapeClient {
    /// Creates the client for `program`.
    pub fn new(program: &Program) -> EscapeClient {
        EscapeClient {
            n_vars: program.vars.len(),
            n_fields: program.fields.len(),
            n_sites: program.sites.len(),
        }
    }

    /// Adapts to the extended variable universe of an inlined program
    /// (for the exact term engine). Parameters are site-based, so only
    /// the environment width changes.
    pub fn with_extended_vars(mut self, inlined: &pda_lang::InlinedProgram) -> Self {
        self.n_vars = inlined.n_vars;
        self
    }

    /// Builds the TRACER query for a source-level `query l: local x`:
    /// failure is `d(x) = E` at the point.
    ///
    /// # Panics
    ///
    /// Panics if the source query is not a `local` query.
    pub fn local_query(&self, program: &Program, q: QueryId) -> Query<EscPrim> {
        let decl = &program.queries[q];
        let QueryKind::Local { var } = decl.kind else {
            panic!("local_query called on a non-local query");
        };
        Query {
            point: decl.point,
            not_q: Formula::prim(EscPrim::CellIs(Cell::Var(var), Val::E)),
            source: Some(q),
            limits: QueryLimits::default(),
        }
    }

    /// A thread-escape query at an arbitrary point: prove the object
    /// `var` points to is thread-local there.
    pub fn access_query(&self, point: PointId, var: VarId) -> Query<EscPrim> {
        Query {
            point,
            not_q: Formula::prim(EscPrim::CellIs(Cell::Var(var), Val::E)),
            source: None,
            limits: QueryLimits::default(),
        }
    }

    /// Generates the paper's evaluation queries: one per instance-field
    /// access (`v = w.f` queries `w`; `w.f = v` queries `w`), restricted
    /// to the given methods (typically the reachable application code).
    pub fn accesses(
        program: &Program,
        methods: impl IntoIterator<Item = pda_lang::MethodId>,
    ) -> Vec<(PointId, VarId)> {
        let mut out = Vec::new();
        for m in methods {
            for (_, node) in program.methods[m].cfg.iter() {
                if let Node::Atom(
                    Atom::Load { base, .. } | Atom::Store { base, .. },
                    point,
                ) = &node.kind
                {
                    out.push((*point, *base));
                }
            }
        }
        out
    }
}

impl TracerClient for EscapeClient {
    type Param = BitSet;
    type State = Env;
    type Prim = EscPrim;

    fn transfer(&self, p: &BitSet, atom: &Atom, d: &Env) -> Env {
        cases::apply(p, atom, d)
    }

    fn wp_prim(&self, atom: &Atom, prim: &EscPrim) -> Formula<EscPrim> {
        match *prim {
            EscPrim::SiteIs(..) => Formula::prim(*prim), // parameters never change
            EscPrim::CellIs(cell, val) => cases::wp(atom, cell, val),
        }
    }

    fn n_atoms(&self) -> usize {
        self.n_sites
    }

    fn param_of_model(&self, assignment: &[bool]) -> BitSet {
        BitSet::from_iter(
            self.n_sites,
            assignment
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(i, _)| i),
        )
    }

    fn initial_state(&self) -> Env {
        Env::initial(self.n_vars, self.n_fields)
    }
}

impl pda_tracer::CoarseAtoms for EscapeClient {
    /// Coarse refinement for the escape abstraction: every allocation
    /// site the counterexample mentions gets mapped to `L`.
    fn coarse_atoms(&self, atom: &Atom) -> Vec<usize> {
        match *atom {
            Atom::New { site, .. } => vec![site.0 as usize],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_analysis::PointsTo;
    use pda_tracer::{brute_force_optimum, solve_query, Outcome, TracerConfig};

    /// The example of Figure 6: `u = new h1; v = new h2; v.f = u; local(u)?`
    const FIG6: &str = r#"
        class Pair { field f; }
        fn main() {
            var u, v;
            u = new Pair;
            v = new Pair;
            v.f = u;
            query pc: local u;
        }
    "#;

    fn solve(src: &str, label: &str) -> (Program, pda_tracer::QueryResult<BitSet>) {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let client = EscapeClient::new(&program);
        let q = program.query_by_label(label).unwrap();
        let query = client.local_query(&program, q);
        let r = solve_query(
            &program,
            &|c| pa.callees(c).to_vec(),
            &client,
            &query,
            &TracerConfig::default(),
        );
        (program, r)
    }

    #[test]
    fn figure6_cheapest_maps_both_sites_to_l() {
        let (_, r) = solve(FIG6, "pc");
        match r.outcome {
            Outcome::Proven { param, cost } => {
                assert_eq!(cost, 2, "paper: cheapest is [h1↦L, h2↦L]");
                assert!(param.contains(0) && param.contains(1));
            }
            other => panic!("expected proof, got {other:?}"),
        }
        // Paper (Figure 6(b)): with k=1 under-approximation this takes
        // iterations p=[E,E], p=[L,E], p=[L,L]; our default k=5 may learn
        // faster but never more than 3 forward runs.
        assert!(r.iterations <= 3);
    }

    #[test]
    fn figure6_agrees_with_brute_force() {
        let program = pda_lang::parse_program(FIG6).unwrap();
        let pa = PointsTo::analyze(&program);
        let client = EscapeClient::new(&program);
        let q = program.query_by_label("pc").unwrap();
        let query = client.local_query(&program, q);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let truth = brute_force_optimum(
            &program,
            &callees,
            &client,
            &query,
            16,
            pda_dataflow::RhsLimits::default(),
        )
        .expect("provable");
        assert_eq!(truth.1, 2);
    }

    #[test]
    fn global_publication_is_impossible_to_prove() {
        let (_, r) = solve(
            r#"
            global g;
            class C {}
            fn main() {
                var x;
                x = new C;
                g = x;
                query q: local x;
            }
            "#,
            "q",
        );
        assert_eq!(r.outcome, Outcome::Impossible);
    }

    #[test]
    fn spawn_escapes_receiver() {
        let (_, r) = solve(
            r#"
            class C {}
            fn main() {
                var x;
                x = new C;
                spawn x;
                query q: local x;
            }
            "#,
            "q",
        );
        assert_eq!(r.outcome, Outcome::Impossible);
    }

    #[test]
    fn unrelated_sites_stay_out_of_the_abstraction() {
        let (program, r) = solve(
            r#"
            global g;
            class C { field f; }
            fn main() {
                var x, y;
                y = new C;   // h0: published, irrelevant to the query
                g = y;
                x = new C;   // h1: the queried object
                query q: local x;
            }
            "#,
            "q",
        );
        match r.outcome {
            Outcome::Proven { param, cost } => {
                assert_eq!(cost, 1, "only the queried site need be L");
                assert!(param.contains(1));
                assert!(!param.contains(0));
            }
            other => panic!("expected proof, got {other:?}"),
        }
        let _ = program;
    }

    #[test]
    fn flow_through_helper_call() {
        let (_, r) = solve(
            r#"
            class C { field f; }
            fn stash(container, item) { container.f = item; }
            fn main() {
                var box1, item;
                box1 = new C;
                item = new C;
                stash(box1, item);
                query q: local item;
            }
            "#,
            "q",
        );
        match r.outcome {
            // Both the container and the item must be L: storing an L item
            // into an E container escapes it.
            Outcome::Proven { cost, .. } => assert_eq!(cost, 2),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn accesses_generator_finds_loads_and_stores() {
        let program = pda_lang::parse_program(
            r#"
            class C { field f; }
            fn main() {
                var x, y;
                x = new C;
                x.f = x;
                y = x.f;
            }
            "#,
        )
        .unwrap();
        let accs = EscapeClient::accesses(&program, [program.main]);
        assert_eq!(accs.len(), 2);
        let x = program.main_var("x").unwrap();
        assert!(accs.iter().all(|&(_, v)| v == x));
    }
}
