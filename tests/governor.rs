//! Integration tests for the per-query memory cap
//! (`pda_tracer::TracerConfig::mem_budget`, `QueryLimits::mem_budget`).
//!
//! At each refinement boundary a capped query estimates the state it
//! keeps across iterations (intern cache, learned constraints, resident
//! BDD) and resolves `Unresolved::MemBudgetExceeded` once that exceeds
//! the cap, with the iteration counted. The tests pin three properties:
//!
//! * **A cap stops a search, it never steers it** — a capped query's
//!   iteration log is a prefix of its unbudgeted log, and a cap above
//!   every retained maximum changes no result.
//! * **Determinism** — the estimate is entry counts × `size_of`, never
//!   RSS, so capped batches are bit-identical across repeats and across
//!   `jobs ∈ {1, 2, 8}`.
//! * **Isolation** — a capped query sharing a batch (and its forward
//!   cache) with unbudgeted copies of itself, or with a query that
//!   panics at its fault-plane seam, perturbs neither.
//!
//! The budgets follow the fixture's largest retained estimates at any
//! boundary: q0 248 636, q1 443 740, q2 248 404 and q3 442 668 bytes.

use pda_analysis::PointsTo;
use pda_escape::EscapeClient;
use pda_tracer::{
    solve_queries_batch, solve_query, solve_query_logged, BatchConfig, Outcome, Query,
    QueryLimits, QueryResult, TracerConfig, Unresolved,
};
use pda_util::faultplane;

include!("own_process.rs");

/// Five of the six allocations escape through `leak`/globals/fields, so
/// `q1..q3` are impossible at every abstraction — each takes ~30 CEGAR
/// iterations. `p` never escapes, so `q0` proves in 2.
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

/// Above every query's retained maximum: no query is capped.
const ROOMY_BUDGET: u64 = 640 << 10;
/// Between the two groups of maxima: q1 and q3 are capped, q0 and q2
/// are not.
const SPLIT_BUDGET: u64 = 384 << 10;
/// Below every query's first boundary: all four are capped after one
/// iteration.
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

    /// Every query solved alone under `config`.
    fn solve_all(&self, config: &TracerConfig) -> Vec<QueryResult<pda_util::BitSet>> {
        let callees = |c: pda_lang::CallId| self.pa.callees(c).to_vec();
        self.queries()
            .iter()
            .map(|q| solve_query(&self.program, &callees, &self.client, q, config))
            .collect()
    }
}

/// The deterministic fields of a result — everything but wall time.
fn key<P: Clone>(r: &QueryResult<P>) -> (Outcome<P>, usize) {
    (r.outcome.clone(), r.iterations)
}

fn capped(budget: u64) -> TracerConfig {
    TracerConfig { mem_budget: Some(budget), ..TracerConfig::default() }
}

fn with_mem_budget<P: pda_meta::Primitive>(q: Query<P>, bytes: u64) -> Query<P> {
    q.with_limits(QueryLimits { timeout: None, max_facts: None, mem_budget: Some(bytes) })
}

const MEM: Outcome<pda_util::BitSet> = Outcome::Unresolved(Unresolved::MemBudgetExceeded);

#[test]
fn budget_above_every_retained_maximum_changes_no_result() {
    let fx = Fixture::new();
    let plain = fx.solve_all(&TracerConfig::default());
    let roomy = fx.solve_all(&capped(ROOMY_BUDGET));
    for (i, (base, r)) in plain.iter().zip(&roomy).enumerate() {
        assert_eq!(key(r), key(base), "query {i}");
    }
}

#[test]
fn split_budget_caps_exactly_the_queries_that_outgrow_it() {
    let fx = Fixture::new();
    let plain = fx.solve_all(&TracerConfig::default());
    let split = fx.solve_all(&capped(SPLIT_BUDGET));
    for i in [0, 2] {
        assert_eq!(key(&split[i]), key(&plain[i]), "query {i} stays under the cap");
    }
    for i in [1, 3] {
        assert_eq!((&split[i].outcome, split[i].iterations), (&MEM, 6), "query {i}");
        assert!(plain[i].iterations > 6, "query {i} had work left to cut");
    }
}

#[test]
fn starvation_budget_caps_every_query_after_one_iteration() {
    let fx = Fixture::new();
    for (i, r) in fx.solve_all(&capped(EXHAUST_BUDGET)).iter().enumerate() {
        assert_eq!((&r.outcome, r.iterations), (&MEM, 1), "query {i}");
    }
}

#[test]
fn capped_logs_are_prefixes_of_the_unbudgeted_logs() {
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let mut compared = 0;
    for q in fx.queries() {
        let (base, full) =
            solve_query_logged(&fx.program, &callees, &fx.client, &q, &TracerConfig::default());
        assert_eq!(full.len(), base.iterations);
        for budget in [SPLIT_BUDGET, EXHAUST_BUDGET] {
            let (r, log) =
                solve_query_logged(&fx.program, &callees, &fx.client, &q, &capped(budget));
            assert_eq!(log.len(), r.iterations);
            if r.outcome != MEM {
                continue;
            }
            assert!(log.len() < full.len(), "a capped query stops early");
            for (i, (a, b)) in log.iter().zip(&full).enumerate() {
                assert_eq!(
                    (&a.param, a.cost, &a.learned),
                    (&b.param, b.cost, &b.learned),
                    "iteration {i} under a {budget}-byte cap left the unbudgeted path"
                );
            }
            compared += 1;
        }
    }
    assert_eq!(compared, 6, "two queries capped at 384 KiB, four at 64 KiB");
}

#[test]
fn governed_batches_are_deterministic_across_repeats_and_job_counts() {
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let queries = fx.queries();
    let tracer = capped(SPLIT_BUDGET);

    let run = |jobs: usize| {
        let cfg = BatchConfig { jobs, tracer: tracer.clone(), ..BatchConfig::default() };
        let (results, _) = solve_queries_batch(&fx.program, &callees, &fx.client, &queries, &cfg);
        results.iter().map(key).collect::<Vec<_>>()
    };

    let first = run(1);
    assert_eq!(first.iter().filter(|k| k.0 == MEM).count(), 2, "the cap applies in a batch");
    assert_eq!(first, run(1), "jobs=1 must be bit-identical across repeats");
    for jobs in [2usize, 8] {
        assert_eq!(first, run(jobs), "capped results diverged at jobs={jobs}");
    }
}

#[test]
fn exhausted_query_does_not_poison_the_shared_forward_cache() {
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let baseline = fx.solve_all(&TracerConfig::default());

    // The same batch mixes starved copies, which stop at their first
    // boundary, with unbudgeted copies of the very same queries sharing
    // one forward cache.
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
            assert_eq!(
                (&starved.outcome, starved.iterations),
                (&MEM, 1),
                "starved query {i} at jobs={jobs}"
            );
        }
    }
}

#[test]
fn adversarial_faults_under_budget_pressure_stay_isolated() {
    in_own_process("adversarial_faults_under_budget_pressure_stay_isolated", || {
        let fx = Fixture::new();
        let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
        let baseline = fx.solve_all(&TracerConfig::default());

        // Healthy queries, a starved long query, and a copy of q1 whose
        // first attempt panics — all inside one batch.
        let qs = fx.queries();
        let n = qs.len();
        let mut queries = qs.clone();
        queries.push(with_mem_budget(qs[3].clone(), EXHAUST_BUDGET));
        queries.push(qs[1].clone());
        let seam = format!("query.{}", n + 1);
        for jobs in [1usize, 4] {
            // Installing resets the visit counters: every run faults afresh.
            faultplane::install(&format!("{seam}@1=panic")).unwrap();
            let cfg = BatchConfig { jobs, ..BatchConfig::default() };
            let (results, stats) =
                solve_queries_batch(&fx.program, &callees, &fx.client, &queries, &cfg);
            faultplane::clear();
            assert_eq!(results.len(), queries.len(), "jobs={jobs}: the batch must complete");
            for i in 0..n {
                assert_eq!(key(&results[i]), key(&baseline[i]), "healthy query {i}, jobs={jobs}");
            }
            assert_eq!(results[n].outcome, MEM, "jobs={jobs}");
            assert_eq!(
                results[n + 1].outcome,
                Outcome::Unresolved(Unresolved::EngineFault(format!(
                    "injected fault at fault point `{seam}`"
                ))),
                "jobs={jobs}"
            );
            assert_eq!(stats.engine_faults, 1, "jobs={jobs}");
        }
    });
}

/// The intern cache's share of the estimate, pinned: each fixture query's
/// CEGAR iterations replayed through one cache, read after the last
/// learned constraint. The estimate charges a cube 40 bytes plus 4 per
/// literal however the kernel lays cubes out, so a change of layout moves
/// neither these bytes nor the iteration at which a budget stops a query.
#[test]
fn intern_cache_estimate_is_pinned_on_the_fixture() {
    use pda_dataflow::{rhs, RhsLimits};
    use pda_meta::{analyze_trace_interned, InternCache};
    use pda_tracer::{solve_query_logged, AsAnalysis, AsMeta, TracerClient};
    let fx = Fixture::new();
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let config = TracerConfig::default();
    let d0 = fx.client.initial_state();
    let mut bytes = Vec::new();
    for q in fx.queries() {
        let (_, log) = solve_query_logged(&fx.program, &callees, &fx.client, &q, &config);
        let mut cache = InternCache::new();
        let mut obs = pda_util::ObsRegistry::default();
        for entry in log.iter().filter(|e| e.learned.is_some()) {
            let p = &entry.param;
            let forward = AsAnalysis(&fx.client);
            let run = rhs::run(&fx.program, &forward, p, d0.clone(), &callees, RhsLimits::default())
                .unwrap();
            let trace = run
                .witness(q.point, &|d| q.not_q.holds(p, d))
                .expect("a learning iteration has a witness");
            let atoms: Vec<pda_lang::Atom> = trace.iter().map(|s| s.atom).collect();
            let meta = AsMeta(&fx.client);
            let beam = &config.beam;
            analyze_trace_interned(&meta, p, &d0, &atoms, &q.not_q, beam, &mut cache, &mut obs)
                .unwrap();
        }
        bytes.push(cache.approx_bytes());
    }
    assert_eq!(bytes, [248_340, 417_936, 229_864, 424_128]);
}
