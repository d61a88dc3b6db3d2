//! The replay tracer: re-runs one query's CEGAR loop step by step through
//! the layer crates' public functions, timing each call, so a query's time
//! splits into forward (`pda-dataflow`), backward (`pda-meta`) and
//! viable-set (`pda-solver`) work.
//!
//! The replay mirrors `pda_tracer::solve_query` under the workload's
//! configuration (no deadline, no escalation, no memory budget): pick the
//! canonical minimum-cost model of the learned constraints, run RHS at it,
//! extract a counterexample, learn `¬φ` from the interned backward
//! analysis. It must reach the same verdict, cost and iteration count as
//! the production call; the caller checks that.

use crate::spans::SpanLog;
use pda_dataflow::{rhs, Interrupt, RhsLimits, RhsResult};
use pda_lang::{CallId, MethodId, Program};
use pda_meta::{analyze_trace_interned, InternCache};
use pda_solver::{Bdd, PFormula};
use pda_tracer::{AsAnalysis, AsMeta, Outcome, Query, TracerClient, TracerConfig, Unresolved};
use pda_util::{Counter, ObsRegistry};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Forward runs shared by the queries of one batch, keyed by the solver
/// assignment and fact budget — the same key the production forward cache
/// uses, so the replay runs each distinct abstraction once.
pub type ForwardMemo<'p, S> = HashMap<(Vec<bool>, usize), Rc<Result<RhsResult<'p, S>, Interrupt>>>;

/// Per-layer effort of replayed queries, summed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// RHS tabulation time, µs.
    pub forward_us: u64,
    /// Counterexample extraction time, µs.
    pub witness_us: u64,
    /// Backward meta-analysis (interned kernel + restrict) time, µs.
    pub backward_us: u64,
    /// Viable-set conjoin + min-cost model time, µs.
    pub solver_us: u64,
    /// RHS runs executed (cache hits in a batch replay excluded).
    pub forward_runs: u64,
    /// Path-edge facts over executed runs.
    pub facts: u64,
    /// Counterexample steps over all refinements.
    pub trace_steps: u64,
    /// Counterexamples extracted.
    pub traces: u64,
    /// Forward runs that exceeded the fact budget.
    pub too_big: u64,
    /// Min-cost model extractions.
    pub solver_calls: u64,
    /// BDD nodes created.
    pub solver_nodes: u64,
    /// CEGAR iterations.
    pub iterations: u64,
    /// Kernel effort counters (cubes, wp memo, subsumption, drops).
    pub meta: MetaCounts,
}

/// The backward kernel's effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaCounts {
    /// Cubes built by DNF products.
    pub cubes_built: u64,
    /// Cubes dropped by the beam.
    pub approx_drops: u64,
    /// wp conversions served from the memo.
    pub wp_hits: u64,
    /// wp conversions computed.
    pub wp_misses: u64,
    /// Subsumption tests.
    pub subsumption_checks: u64,
    /// Subsumption tests rejected by signature alone.
    pub fast_rejects: u64,
}

impl MetaCounts {
    fn from_obs(reg: &ObsRegistry) -> MetaCounts {
        MetaCounts {
            cubes_built: reg.get(Counter::CubesBuilt),
            approx_drops: reg.get(Counter::ApproxDrops),
            wp_hits: reg.get(Counter::WpHits),
            wp_misses: reg.get(Counter::WpMisses),
            subsumption_checks: reg.get(Counter::SubsumptionChecks),
            fast_rejects: reg.get(Counter::SubsumptionFastRejects),
        }
    }

    fn add(&mut self, o: &MetaCounts) {
        self.cubes_built += o.cubes_built;
        self.approx_drops += o.approx_drops;
        self.wp_hits += o.wp_hits;
        self.wp_misses += o.wp_misses;
        self.subsumption_checks += o.subsumption_checks;
        self.fast_rejects += o.fast_rejects;
    }
}

impl LayerTotals {
    /// Replayed dataflow time (forward + witness), µs.
    pub fn dataflow_us(&self) -> u64 {
        self.forward_us + self.witness_us
    }
}

/// A replayed query's verdict.
#[derive(Debug, Clone)]
pub struct Replayed<P> {
    /// Verdict (same type as the production result's).
    pub outcome: Outcome<P>,
    /// CEGAR iterations, counted as `solve_query` counts them.
    pub iterations: usize,
}

fn micros(t: Instant) -> u64 {
    t.elapsed().as_micros() as u64
}

/// Replays one query. Spans go to `log` under `parent`, tagged `qid`;
/// effort goes to `totals`. With `memo`, forward runs are shared with the
/// other queries replayed through the same memo.
#[allow(clippy::too_many_arguments)]
pub fn replay_query<'p, C: TracerClient>(
    program: &'p Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    query: &Query<C::Prim>,
    cfg: &TracerConfig,
    mut memo: Option<&mut ForwardMemo<'p, C::State>>,
    log: &mut SpanLog,
    parent: Option<usize>,
    qid: u64,
    totals: &mut LayerTotals,
) -> Replayed<C::Param> {
    let n = client.n_atoms();
    let mut bdd = Bdd::new(n, (0..n).map(|i| client.atom_cost(i)).collect());
    let mut constraints: Vec<PFormula> = Vec::new();
    let mut synced = 0;
    let mut icache = InternCache::new();
    let mut reg = ObsRegistry::default();
    let d0 = client.initial_state();
    let max_facts = query.limits.max_facts.unwrap_or(cfg.rhs_limits.max_facts);
    let mut iterations = 0;
    let outcome = loop {
        if iterations >= cfg.max_iters {
            break Outcome::Unresolved(Unresolved::IterationBudget);
        }
        let span = log.open("solver.solve", parent, qid);
        let t = Instant::now();
        let before = bdd.node_count();
        for c in &constraints[synced..] {
            bdd.conjoin(c);
        }
        synced = constraints.len();
        let model = bdd.solve();
        totals.solver_us += micros(t);
        totals.solver_nodes += (bdd.node_count() - before) as u64;
        totals.solver_calls += 1;
        log.close(span);
        let Some(model) = model else {
            break Outcome::Impossible;
        };
        iterations += 1;
        let p = client.param_of_model(&model.assignment);

        let span = log.open("dataflow.forward", parent, qid);
        let t = Instant::now();
        let limits = RhsLimits {
            max_facts,
            ..RhsLimits::default()
        };
        let fresh = || {
            rhs::run(
                program,
                &AsAnalysis(client),
                &p,
                d0.clone(),
                callees,
                limits,
            )
        };
        let run = match memo.as_deref_mut() {
            Some(m) => {
                let key = (model.assignment.clone(), max_facts);
                if let Some(hit) = m.get(&key) {
                    Rc::clone(hit)
                } else {
                    let r = Rc::new(fresh());
                    m.insert(key, Rc::clone(&r));
                    totals.forward_runs += 1;
                    if let Ok(ok) = r.as_ref() {
                        totals.facts += ok.n_facts() as u64;
                    }
                    r
                }
            }
            None => {
                let r = Rc::new(fresh());
                totals.forward_runs += 1;
                if let Ok(ok) = r.as_ref() {
                    totals.facts += ok.n_facts() as u64;
                }
                r
            }
        };
        totals.forward_us += micros(t);
        log.close(span);
        let run = match run.as_ref() {
            Ok(run) => run,
            Err(_) => {
                totals.too_big += 1;
                break Outcome::Unresolved(Unresolved::AnalysisTooBig);
            }
        };

        let span = log.open("dataflow.witness", parent, qid);
        let t = Instant::now();
        let failing = |d: &C::State| query.not_q.holds(&p, d);
        let trace = run.witness(query.point, &failing);
        totals.witness_us += micros(t);
        log.close(span);
        let Some(trace) = trace else {
            break Outcome::Proven {
                param: p,
                cost: model.cost,
            };
        };
        totals.traces += 1;
        totals.trace_steps += trace.len() as u64;
        let atoms: Vec<pda_lang::Atom> = trace.iter().map(|s| s.atom).collect();

        let span = log.open("meta.backward", parent, qid);
        let t = Instant::now();
        let phi = analyze_trace_interned(
            &AsMeta(client),
            &p,
            &d0,
            &atoms,
            &query.not_q,
            &cfg.beam,
            &mut icache,
            &mut reg,
        )
        .map(|out| out.restrict());
        totals.backward_us += micros(t);
        log.close(span);
        match phi {
            Ok(phi) => constraints.push(PFormula::not(phi)),
            Err(e) => break Outcome::Unresolved(Unresolved::MetaFailure(e.to_string())),
        }
    };
    totals.iterations += iterations as u64;
    totals.meta.add(&MetaCounts::from_obs(&reg));
    Replayed {
        outcome,
        iterations,
    }
}
