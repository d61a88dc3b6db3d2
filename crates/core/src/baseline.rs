//! A coarse refinement **baseline**, for comparison with TRACER.
//!
//! The paper's Related Work (Section 7) contrasts its meta-analysis with
//! classic refinement-based analyses that "compute cause-effect
//! dependencies for finding aspects of the abstraction that might be
//! responsible for the failure ... and then refine these aspects", whose
//! drawback is that "they can refine much more than necessary and thereby
//! sacrifice scalability". This module implements that strategy so the
//! benches can measure the contrast:
//!
//! * on failure, every parameter atom *syntactically mentioned* by the
//!   counterexample trace is refined (enabled) — no backward
//!   meta-analysis, no unviability sets;
//! * consequently it cannot return minimum abstractions, and it can
//!   never prove impossibility: when refinement saturates without a
//!   proof it just gives up.

use crate::client::{AsAnalysis, Query, TracerClient};
use crate::tracer::{Outcome, QueryResult, TracerConfig, Unresolved};
use pda_dataflow::rhs;
use pda_lang::{Atom, CallId, MethodId, Program};
use std::time::Instant;

/// Extracts the parameter atoms syntactically relevant to one trace atom.
///
/// This is the "cause-effect" heuristic of coarse refinement: for the
/// type-state client every variable occurring in the command, for the
/// thread-escape client every allocation site occurring in it.
pub trait CoarseAtoms: TracerClient {
    /// Parameter atoms mentioned by `atom`.
    fn coarse_atoms(&self, atom: &Atom) -> Vec<usize>;
}

/// Runs the coarse-refinement baseline on one query.
///
/// Starts from the cheapest abstraction; each failure enables every
/// parameter atom the counterexample trace mentions. Stops on proof,
/// saturation (no new atoms to enable — reported as unresolved, since the
/// baseline cannot distinguish "needs a different abstraction" from
/// "impossible"), or the iteration budget.
pub fn solve_query_coarse<C: CoarseAtoms>(
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    query: &Query<C::Prim>,
    config: &TracerConfig,
) -> QueryResult<C::Param> {
    let start = Instant::now();
    let n = client.n_atoms();
    let mut enabled = vec![false; n];
    let mut iterations = 0;
    let outcome = loop {
        if iterations >= config.max_iters {
            break Outcome::Unresolved(Unresolved::IterationBudget);
        }
        iterations += 1;
        let p = client.param_of_model(&enabled);
        let run = match rhs::run(
            program,
            &AsAnalysis(client),
            &p,
            client.initial_state(),
            callees,
            config.rhs_limits,
        ) {
            Ok(r) => r,
            Err(_) => break Outcome::Unresolved(Unresolved::AnalysisTooBig),
        };
        let failing = |d: &C::State| query.not_q.holds(&p, d);
        let Some(trace) = run.witness(query.point, &failing) else {
            let cost = enabled
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(i, _)| client.atom_cost(i))
                .sum();
            break Outcome::Proven { param: p, cost };
        };
        let mut grew = false;
        for step in &trace {
            for a in client.coarse_atoms(&step.atom) {
                if !enabled[a] {
                    enabled[a] = true;
                    grew = true;
                }
            }
        }
        if !grew {
            // Refinement saturated without a proof: the baseline cannot
            // conclude impossibility.
            break Outcome::Unresolved(Unresolved::MetaFailure(
                "coarse refinement saturated".to_string(),
            ));
        }
    };
    QueryResult {
        outcome,
        iterations,
        micros: start.elapsed().as_micros(),
        retries: 0,
        meta: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullcli::NullClient;
    use pda_analysis::PointsTo;

    const SRC: &str = r#"
        fn main() {
            var x, y, junk1, junk2;
            x = null;
            junk1 = x;      // irrelevant to the query, but on the trace
            junk2 = junk1;
            y = x;
            query q: local y;
        }
    "#;

    #[test]
    fn coarse_overshoots_where_tracer_is_optimal() {
        let program = pda_lang::parse_program(SRC).unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let q = program.query_by_label("q").unwrap();
        let query = client.query(&program, q);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let config = TracerConfig::default();

        let coarse = solve_query_coarse(&program, &callees, &client, &query, &config);
        let optimal = crate::tracer::solve_query(&program, &callees, &client, &query, &config);

        let Outcome::Proven { cost: coarse_cost, .. } = coarse.outcome else {
            panic!("baseline should still prove this: {:?}", coarse.outcome)
        };
        let Outcome::Proven { cost: optimal_cost, .. } = optimal.outcome else {
            panic!("tracer should prove this")
        };
        assert_eq!(optimal_cost, 2, "optimum tracks x and y only");
        assert!(
            coarse_cost > optimal_cost,
            "coarse refinement should enable the junk variables too \
             (coarse {coarse_cost} vs optimal {optimal_cost})"
        );
        // But it typically converges in fewer forward runs.
        assert!(coarse.iterations <= optimal.iterations);
    }

    #[test]
    fn coarse_cannot_prove_impossibility() {
        let program = pda_lang::parse_program(
            "class C {} fn main() { var y; y = new C; query q: local y; }",
        )
        .unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let q = program.query_by_label("q").unwrap();
        let query = client.query(&program, q);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let r = solve_query_coarse(&program, &callees, &client, &query, &TracerConfig::default());
        assert!(
            matches!(r.outcome, Outcome::Unresolved(Unresolved::MetaFailure(_))),
            "baseline must give up, not claim impossibility: {:?}",
            r.outcome
        );
    }
}
