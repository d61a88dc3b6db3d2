//! Per-iteration oracle replay of a logged CEGAR solve.
//!
//! Production runs one engine per layer: the resident BDD picks each
//! iteration's cheapest viable abstraction and the interned kernel runs
//! the backward meta-analysis `B[t]`. The reference engines stay public —
//! DPLL over the CNF of the learned constraints ([`MinCostSolver`]) and
//! the tree kernel ([`analyze_trace`] + [`restrict`]) — and
//! [`check_iterations`] replays every iteration of a
//! [`pda_tracer::solve_query_logged`] run through them:
//!
//! 1. DPLL over the constraints learned *before* the iteration returns
//!    the logged `(p, cost)`, decoded with `param_of_model`;
//! 2. at a refining iteration, a fresh forward run at `p`, its witness,
//!    and the tree kernel (under the beam the solve ran with) give a
//!    `¬φ` syntactically equal to the logged constraint;
//! 3. at a final proving iteration, the forward run at `p` has no
//!    witness;
//! 4. a final iteration that left the query Unresolved (fact budget,
//!    meta failure, a deadline mid-step) learned nothing; check 1 is all
//!    there is to replay;
//! 5. the outcome is Impossible exactly when DPLL over every learned
//!    constraint is UNSAT (short of a budget stopping the loop before
//!    its next solve).
//!
//! Both engines share the production engines' canonical tie-break, so
//! agreement is exact: same model, same formula, not just the same cost.

use pda_dataflow::{rhs, RhsLimits};
use pda_lang::{CallId, MethodId, Program};
use pda_meta::{analyze_trace, restrict, BeamConfig};
use pda_solver::{MinCostSolver, Model, PFormula};
use pda_tracer::{
    AsAnalysis, AsMeta, IterationLog, Outcome, Query, QueryResult, TracerClient, Unresolved,
};
use pda_util::Deadline;

/// The minimum-cost model of `⋀ constraints` by DPLL, or `None` if UNSAT.
fn dpll<C: TracerClient>(client: &C, constraints: &[PFormula]) -> Option<Model> {
    let n = client.n_atoms();
    let mut solver = MinCostSolver::new(n, (0..n).map(|i| client.atom_cost(i)).collect());
    for c in constraints {
        solver.require(c.clone());
    }
    solver.solve()
}

/// Replays every iteration of a logged solve of `query`, run under the
/// backward `beam`, through the reference engines (see the module docs)
/// and returns the number of iterations checked.
///
/// # Errors
///
/// A description of the first disagreement between the log and the
/// reference engines.
pub fn check_iterations<C: TracerClient>(
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    query: &Query<C::Prim>,
    beam: &BeamConfig,
    result: &QueryResult<C::Param>,
    log: &[IterationLog<C::Param>],
) -> Result<usize, String>
where
    C::Param: PartialEq,
{
    if log.len() > result.iterations {
        return Err(format!("{} log entries for {} iterations", log.len(), result.iterations));
    }
    let d0 = client.initial_state();
    // A logged iteration's forward run fitted its fact budget; without
    // a budget it computes the same table.
    let limits = RhsLimits { max_facts: usize::MAX, deadline: Deadline::NEVER };
    let mut learned: Vec<PFormula> = Vec::with_capacity(log.len());
    for (i, entry) in log.iter().enumerate() {
        let model = dpll(client, &learned)
            .ok_or_else(|| format!("iteration {i}: DPLL finds the viable set empty"))?;
        if model.cost != entry.cost || client.param_of_model(&model.assignment) != entry.param {
            return Err(format!(
                "iteration {i}: DPLL picks {:?} at cost {}, the loop tried {:?} at cost {}",
                client.param_of_model(&model.assignment),
                model.cost,
                entry.param,
                entry.cost
            ));
        }
        let p = &entry.param;
        let last = i + 1 == log.len();
        if entry.learned.is_none() && last && matches!(result.outcome, Outcome::Unresolved(_)) {
            // The iteration that stopped the query: its forward run may
            // not even fit, and it has no constraint to compare.
            break;
        }
        let run = rhs::run(program, &AsAnalysis(client), p, d0.clone(), callees, limits)
            .map_err(|e| format!("iteration {i}: forward run interrupted: {e:?}"))?;
        let witness = run.witness(query.point, &|d| query.not_q.holds(p, d));
        let Some(phi) = &entry.learned else {
            let proven = matches!(&result.outcome,
                Outcome::Proven { param, cost } if param == p && *cost == entry.cost);
            if !last || !proven {
                return Err(format!("iteration {i}: learned nothing but is not the final proof"));
            }
            if witness.is_some() {
                return Err(format!("iteration {i}: proven, yet the forward run has a witness"));
            }
            return Ok(log.len());
        };
        let trace = witness
            .ok_or_else(|| format!("iteration {i}: learned a constraint without a witness"))?;
        let atoms: Vec<pda_lang::Atom> = trace.iter().map(|s| s.atom).collect();
        let dnf = analyze_trace(&AsMeta(client), p, &d0, &atoms, &query.not_q, beam)
            .map_err(|e| format!("iteration {i}: tree kernel failed: {e}"))?;
        let expected = PFormula::not(restrict(&dnf, &d0));
        if &expected != phi {
            return Err(format!(
                "iteration {i}: tree kernel learns {expected:?}, the loop learned {phi:?}"
            ));
        }
        learned.push(expected);
    }
    let empty = dpll(client, &learned).is_none();
    let stopped_by_budget = matches!(
        result.outcome,
        Outcome::Unresolved(
            Unresolved::IterationBudget
                | Unresolved::MemBudgetExceeded
                | Unresolved::DeadlineExceeded
        )
    );
    match (&result.outcome, empty) {
        (Outcome::Impossible, true) => Ok(log.len()),
        (Outcome::Impossible, false) => {
            Err("impossible, yet DPLL finds the learned constraints satisfiable".into())
        }
        (Outcome::Proven { .. }, _) => Err("proven, yet the log has no proving iteration".into()),
        (_, true) if !stopped_by_budget => Err(format!(
            "{:?} with an empty viable set that only Impossible may report",
            result.outcome
        )),
        _ => Ok(log.len()),
    }
}
