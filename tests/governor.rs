//! Integration tests for the memory-budget governor
//! (`pda_tracer::TracerConfig::mem_budget`, `QueryLimits::mem_budget`):
//!
//! * **Soundness of degradation** — a budget tight enough to force the
//!   governor onto its ladder (cache eviction first) leaves every
//!   verdict, optimum cost, and iteration count identical to the
//!   unbudgeted run. Rungs 1–2 only shed cache warmth, which Theorem 3
//!   says cannot change a verdict.
//! * **Determinism** — governed runs are bit-identical across repeats
//!   at `jobs = 1` and across `jobs ∈ {1, 2, 8}`: pressure decisions are
//!   pure functions of deterministic byte estimates, never of RSS or
//!   scheduling.
//! * **Graceful exhaustion** — a hopeless budget resolves long-running
//!   queries as `Unresolved::MemBudgetExceeded` after walking all eight
//!   ladder rungs, without panicking, and without poisoning the shared
//!   forward cache for unbudgeted copies of the same query in the same
//!   batch (degraded fact budgets key the cache differently).
//!
//! Budget constants are tuned to this fixture's deterministic byte
//! estimates (the probe data lives in the assertions): ~650 KiB trips
//! the ladder once or twice and relieves; 64 KiB can never be relieved
//! and exhausts after `LADDER_RUNGS` sustained-pressure boundaries.

use pda_analysis::PointsTo;
use pda_escape::EscapeClient;
use pda_tracer::{
    faulty_query, lift_query, solve_queries_batch, solve_query, BatchConfig, Fault,
    FaultInjectingClient, Outcome, Query, QueryLimits, QueryResult, TracerConfig, Unresolved,
};

/// Five of the six allocations escape through `leak`/globals/fields, so
/// `q1..q3` are impossible at every abstraction — each takes ~30 CEGAR
/// iterations, enough runway for the 8-rung ladder to exhaust. `p` never
/// escapes, so `q0` proves (cheaply, before sustained pressure matters).
const SRC: &str = r#"
    global g1, g2;
    class C { field f; }
    fn leak(a, b) { var r; if (*) { g1 = a; r = b; } else { r = a; } return r; }
    fn main() {
        var a, b, c, d, e, h, p;
        a = new C; b = new C; c = new C; d = new C; e = new C;
        p = new C;
        h = leak(a, b);
        h = leak(h, c);
        h = leak(h, d);
        if (*) { g2 = e; }
        a.f = b; b.f = c; c.f = d; d.f = e;
        query q0: local p;
        query q1: local a;
        query q2: local e;
        query q3: local h;
    }
"#;

/// Forces one or two eviction rungs on the long queries, then relieves:
/// verdicts and iteration counts must match the unbudgeted run exactly.
const RELIEF_BUDGET: u64 = 640 << 10;
/// Below every iteration's working set: sustained pressure walks the
/// whole ladder and exhausts it on the ~30-iteration queries.
const EXHAUST_BUDGET: u64 = 64 << 10;

struct Fixture {
    program: pda_lang::Program,
    pa: PointsTo,
    client: EscapeClient,
}

impl Fixture {
    fn new() -> Fixture {
        let program = pda_lang::parse_program(SRC).unwrap();
        let pa = PointsTo::analyze(&program);
        let client = EscapeClient::new(&program);
        Fixture { program, pa, client }
    }

    fn queries(&self) -> Vec<Query<pda_escape::EscPrim>> {
        self.program
            .queries
            .iter_enumerated()
            .map(|(qid, _)| self.client.local_query(&self.program, qid))
            .collect()
    }
}

/// The deterministic fields of a result — everything but wall time.
fn key<P: Clone>(r: &QueryResult<P>) -> (Outcome<P>, usize, u32, u32) {
    (r.outcome.clone(), r.iterations, r.escalations, r.degradations)
}

fn with_mem_budget<P: pda_meta::Primitive>(q: Query<P>, bytes: u64) -> Query<P> {
    q.with_limits(QueryLimits { timeout: None, max_facts: None, mem_budget: Some(bytes) })
}

#[test]
fn degraded_run_keeps_every_verdict_and_iteration_count() {
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let plain = TracerConfig::default();
    let governed = TracerConfig { mem_budget: Some(RELIEF_BUDGET), ..TracerConfig::default() };

    let mut degradations = 0;
    for q in fx.queries() {
        let base = solve_query(&fx.program, &callees, &fx.client, &q, &plain);
        let gov = solve_query(&fx.program, &callees, &fx.client, &q, &governed);
        assert_eq!(base.degradations, 0);
        assert_eq!(gov.outcome, base.outcome, "a ladder rung changed a verdict");
        assert_eq!(gov.iterations, base.iterations, "eviction rungs must not change the search");
        assert_eq!(gov.escalations, base.escalations);
        degradations += gov.degradations;
    }
    assert!(degradations >= 1, "budget was tuned to force at least one ladder step");
}

#[test]
fn exhausted_ladder_resolves_mem_budget_exceeded_without_panicking() {
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let config = TracerConfig { mem_budget: Some(EXHAUST_BUDGET), ..TracerConfig::default() };
    let baseline: Vec<_> = fx
        .queries()
        .iter()
        .map(|q| solve_query(&fx.program, &callees, &fx.client, q, &TracerConfig::default()))
        .collect();

    for (i, q) in fx.queries().into_iter().enumerate() {
        let r = solve_query(&fx.program, &callees, &fx.client, &q, &config);
        match &baseline[i].outcome {
            // A query that proves before pressure sustains still proves —
            // identically — under a hopeless budget.
            Outcome::Proven { param, cost } => {
                assert_eq!(
                    r.outcome,
                    Outcome::Proven { param: param.clone(), cost: *cost },
                    "query {i}"
                );
            }
            // The long impossibility searches walk all eight rungs and
            // then give up deterministically.
            _ => {
                assert_eq!(
                    r.outcome,
                    Outcome::Unresolved(Unresolved::MemBudgetExceeded),
                    "query {i}"
                );
                assert_eq!(r.degradations, 8, "query {i} must walk the full ladder first");
                assert!(
                    r.iterations < baseline[i].iterations,
                    "query {i} gave up without saving any work"
                );
            }
        }
    }
}

#[test]
fn governed_batches_are_deterministic_across_repeats_and_job_counts() {
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let queries = fx.queries();
    let tracer = TracerConfig { mem_budget: Some(RELIEF_BUDGET), ..TracerConfig::default() };

    let run = |jobs: usize| {
        let cfg = BatchConfig { jobs, tracer: tracer.clone(), ..BatchConfig::default() };
        let (results, stats) =
            solve_queries_batch(&fx.program, &callees, &fx.client, &queries, &cfg);
        (results.iter().map(key).collect::<Vec<_>>(), stats.degradations)
    };

    let (first, degradations) = run(1);
    assert!(degradations >= 1, "the batch surfaces governor activity in its stats");
    assert_eq!(first, run(1).0, "jobs=1 must be bit-identical across repeats");
    for jobs in [2usize, 8] {
        assert_eq!(first, run(jobs).0, "governed results diverged at jobs={jobs}");
    }
}

#[test]
fn exhausted_query_does_not_poison_the_shared_forward_cache() {
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let baseline: Vec<_> = fx
        .queries()
        .iter()
        .map(|q| solve_query(&fx.program, &callees, &fx.client, q, &TracerConfig::default()))
        .collect();

    // The same batch mixes starved copies (which degrade their fact
    // budgets and ultimately exhaust) with unbudgeted copies of the very
    // same queries sharing one forward cache.
    let n = fx.queries().len();
    let mut queries = fx.queries();
    queries.extend(fx.queries().into_iter().map(|q| with_mem_budget(q, EXHAUST_BUDGET)));

    for jobs in [1usize, 4] {
        let cfg = BatchConfig { jobs, ..BatchConfig::default() };
        let (results, _) =
            solve_queries_batch(&fx.program, &callees, &fx.client, &queries, &cfg);
        for i in 0..n {
            assert_eq!(
                key(&results[i]),
                key(&baseline[i]),
                "unbudgeted query {i} was perturbed by its starved twin at jobs={jobs}"
            );
            let starved = &results[n + i];
            assert!(
                starved.outcome == baseline[i].outcome
                    || starved.outcome == Outcome::Unresolved(Unresolved::MemBudgetExceeded),
                "starved query {i} at jobs={jobs}: {:?}",
                starved.outcome
            );
        }
    }
}

#[test]
fn adversarial_faults_under_budget_pressure_stay_isolated() {
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let wrapped = FaultInjectingClient::new(&fx.client);
    let baseline: Vec<_> = fx
        .queries()
        .iter()
        .map(|q| solve_query(&fx.program, &callees, &fx.client, q, &TracerConfig::default()))
        .collect();

    // Healthy lifted queries, a starved long query, and a panicking query
    // — all inside one batch.
    let n = fx.queries().len();
    for jobs in [1usize, 4] {
        // Rebuilt per run: a fault's one-shot `fired` latch is per query
        // *instance*, and a spent trap would solve healthily next time.
        let mut queries: Vec<_> = fx.queries().into_iter().map(lift_query).collect();
        let qs = fx.queries();
        queries.push(with_mem_budget(lift_query(qs[3].clone()), EXHAUST_BUDGET));
        queries.push(faulty_query(qs[1].clone(), Fault::Panic("governed panic".into())));

        let cfg = BatchConfig { jobs, ..BatchConfig::default() };
        let (results, stats) =
            solve_queries_batch(&fx.program, &callees, &wrapped, &queries, &cfg);
        assert_eq!(results.len(), queries.len(), "jobs={jobs}: the batch must complete");
        for i in 0..n {
            assert_eq!(key(&results[i]), key(&baseline[i]), "healthy query {i}, jobs={jobs}");
        }
        assert_eq!(
            results[n].outcome,
            Outcome::Unresolved(Unresolved::MemBudgetExceeded),
            "jobs={jobs}"
        );
        assert_eq!(
            results[n + 1].outcome,
            Outcome::Unresolved(Unresolved::EngineFault("governed panic".into())),
            "jobs={jobs}"
        );
        assert_eq!(stats.engine_faults, 1, "jobs={jobs}");
    }
}
