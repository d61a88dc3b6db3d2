//! Differential validation of the BDD viable-set engine (production)
//! against DPLL (the reference minimum-cost search).
//!
//! The ROBDD engine is designed to be **bit-identical** to DPLL: same
//! satisfiability verdicts, same minimum cost, and the *same extracted
//! model* — both engines canonicalize ties to the lexicographically
//! least minimum-cost assignment. Four layers check that:
//!
//! 1. seeded random CNF-ish instances (SplitMix64): a resident `Bdd`
//!    conjoining constraints one at a time — exactly the CEGAR usage
//!    pattern — must agree with a fresh `MinCostSolver` over the full
//!    prefix after *every* conjoin, down to the exact model;
//! 2. every thread-escape and type-state query of the seeded suite's
//!    hedc benchmark (the realistic program of `tests/meta_effort.rs`):
//!    [`check_iterations`] replays each CEGAR iteration of a logged
//!    solve through DPLL (and the tree kernel), which must pick the
//!    logged abstraction at the logged cost; the corpus queries get the
//!    same replay in `tests/kernel_differential.rs`;
//! 3. the warm daemon path and batch solving at `jobs ∈ {1, 8}` match
//!    those oracle-checked lone solves query for query;
//! 4. crash recovery: a batch killed mid-run (torn checkpoint) resumes to
//!    results bit-identical to the uninterrupted, oracle-checked solves.

use pda_analysis::PointsTo;
use pda_bench::oracle::check_iterations;
use pda_escape::EscapeClient;
use pda_lang::{CallId, MethodId, PointId, Program};
use pda_solver::{Bdd, MinCostSolver, PFormula};
use pda_tracer::{
    solve_queries_batch, solve_queries_batch_checkpointed, solve_query_logged, BatchConfig,
    ForwardCache, InternCache, Outcome, Query, QueryObs, QueryResult, Session, TracerClient,
    TracerConfig,
};
use pda_typestate::{TsMode, TypestateClient};
use pda_util::{BitSet, SplitMix64};
use std::collections::{BTreeMap, HashSet};

include!("corpus.rs");

/// The bit-identity fingerprint of a result: everything except wall-clock
/// time and the effort counters.
fn fingerprint<P: Clone>(r: &QueryResult<P>) -> (Outcome<P>, usize) {
    (r.outcome.clone(), r.iterations)
}

/// Solves `query` alone with its iterations logged, replays every
/// iteration through the reference engines, and returns the result's
/// fingerprint plus the number of iterations checked.
fn oracle_checked<C: TracerClient<Param = BitSet>>(
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    query: &Query<C::Prim>,
    what: &str,
) -> ((Outcome<BitSet>, usize), usize) {
    let config = TracerConfig::default();
    let (r, log) = solve_query_logged(program, callees, client, query, &config);
    match check_iterations(program, callees, client, query, &config.beam, &r, &log) {
        Ok(n) => (fingerprint(&r), n),
        Err(e) => panic!("{what}: {e}"),
    }
}

/// The corpus program's thread-escape queries.
fn escape_queries(program: &Program, client: &EscapeClient) -> Vec<Query<pda_escape::EscPrim>> {
    program
        .queries
        .iter_enumerated()
        .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
        .map(|(qid, _)| client.local_query(program, qid))
        .collect()
}

/// The first suite benchmark with at least 16 thread-escape queries
/// (hedc with the default suite).
fn hedc() -> pda_suite::Benchmark {
    pda_suite::suite()
        .into_iter()
        .map(pda_suite::Benchmark::load)
        .find(|b| EscapeClient::accesses(&b.program, b.app_methods()).len() >= 16)
        .expect("some suite benchmark has >=16 escape queries")
}

/// A random shallow formula over `n` atoms: a disjunction of literals
/// and small conjunctions, the shape the tracer's negated-cube
/// constraints take.
fn random_clause(rng: &mut SplitMix64, n: usize) -> PFormula {
    let width = rng.gen_range_inclusive(1, 4.min(n));
    let lits: Vec<PFormula> = (0..width)
        .map(|_| {
            let atom = rng.gen_range(0, n);
            if rng.gen_bool(0.25) {
                PFormula::and(vec![
                    PFormula::lit(atom, rng.gen_bool(0.5)),
                    PFormula::lit(rng.gen_range(0, n), rng.gen_bool(0.5)),
                ])
            } else {
                PFormula::lit(atom, rng.gen_bool(0.5))
            }
        })
        .collect();
    PFormula::or(lits)
}

/// Layer 1: a resident BDD conjoining seeded random constraints one at a
/// time agrees with a from-scratch DPLL solve of the same prefix after
/// every single conjoin — satisfiability, minimum cost, and the exact
/// model. This is precisely the warm CEGAR usage the tracer relies on.
#[test]
fn resident_bdd_matches_fresh_dpll_on_random_instances() {
    let mut rng = SplitMix64::new(0x7e5_ab1e);
    for case in 0..60 {
        let n = rng.gen_range_inclusive(2, 24);
        let costs: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 5) as u64).collect();
        let mut bdd = Bdd::new(n, costs.clone());
        let mut constraints: Vec<PFormula> = Vec::new();
        for step in 0..rng.gen_range_inclusive(1, 12) {
            constraints.push(random_clause(&mut rng, n));
            bdd.conjoin(constraints.last().unwrap());
            bdd.check_reduced().unwrap();

            let mut dpll = MinCostSolver::new(n, costs.clone());
            for c in &constraints {
                dpll.require(c.clone());
            }
            let expected = dpll.solve();
            assert_eq!(
                bdd.solve(),
                expected,
                "case {case} step {step}: engines diverged on {n} atoms"
            );
            assert_eq!(bdd.is_false(), expected.is_none(), "case {case} step {step}: emptiness");
        }
    }
}

/// Layer 2a: every hedc thread-escape access query.
#[test]
fn solve_query_is_engine_invariant_for_escape() {
    let bench = hedc();
    let callees = |c: CallId| bench.pa.callees(c).to_vec();
    let client = EscapeClient::new(&bench.program);
    let mut checked = 0;
    for (point, var) in EscapeClient::accesses(&bench.program, bench.app_methods()) {
        let query = client.access_query(point, var);
        let what = format!("hedc escape p{}v{}", point.0, var.0);
        checked += oracle_checked(&bench.program, &callees, &client, &query, &what).1;
    }
    assert!(checked > 0);
}

/// Layer 2b: every hedc type-state stress query at the suite harness's
/// query points, one client per tracked site, as the experiment tables
/// pose them.
#[test]
fn solve_query_is_engine_invariant_for_typestate() {
    let bench = hedc();
    let program = &bench.program;
    let callees = |c: CallId| bench.pa.callees(c).to_vec();
    let harness = pda_suite::experiments::ExperimentConfig::default();
    let skip: HashSet<_> = program
        .methods
        .iter()
        .filter(|m| program.names.resolve(m.name).starts_with("lib_"))
        .map(|m| m.name)
        .collect();
    let mut by_site: BTreeMap<pda_lang::SiteId, Vec<PointId>> = BTreeMap::new();
    for (point, site) in pda_suite::experiments::typestate_query_points(&bench, &harness) {
        by_site.entry(site).or_default().push(point);
    }
    let mut checked = 0;
    for (site, points) in by_site {
        let client =
            TypestateClient::new(program, &bench.pa, site, TsMode::Stress { skip: skip.clone() });
        for pt in points {
            let what = format!("hedc typestate site {} p{}", site.0, pt.0);
            checked +=
                oracle_checked(program, &callees, &client, &client.stress_query(pt), &what).1;
        }
    }
    assert!(checked > 0);
}

/// Layer 3a: the warm daemon path — one resident intern cache and one
/// forward cache serving every corpus query in sequence. Warm
/// memoization is semantically transparent, so the warm run must match
/// the oracle-checked fresh solves query for query.
#[test]
fn warm_cache_solves_are_engine_invariant() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        let config = TracerConfig::default();
        let cache = ForwardCache::new();
        let mut icache = InternCache::default();
        for (i, query) in escape_queries(&program, &client).iter().enumerate() {
            let mut obs = QueryObs::new(i as u64, false, false);
            let warm = Session::new(&program, &callees, &client, query, &config)
                .cache(&cache)
                .intern(&mut icache)
                .observe(&mut obs)
                .run();
            let (fresh, _) = oracle_checked(&program, &callees, &client, query, src);
            assert_eq!(fingerprint(&warm), fresh, "query {i}: warm != fresh in:\n{src}");
        }
    }
}

/// Layer 4: crash recovery. A batch "killed" mid-run — its checkpoint
/// truncated to the header, a prefix of records, and a torn half-written
/// tail line — resumes, re-solving only the missing queries, and the
/// recovered results are bit-identical to an uninterrupted run and to
/// the oracle-checked lone solves. This pins that neither the
/// resident-BDD state nor the resume path leaks into verdicts.
#[test]
fn bdd_checkpoint_resume_matches_uninterrupted_dpll() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        let queries = escape_queries(&program, &client);
        if queries.len() < 2 {
            continue;
        }
        let reference: Vec<_> =
            queries.iter().map(|q| oracle_checked(&program, &callees, &client, q, src).0).collect();

        let cfg = BatchConfig { jobs: 2, ..BatchConfig::default() };
        let path = std::env::temp_dir().join(format!(
            "pda-viable-ckpt-{}-{}.jsonl",
            std::process::id(),
            queries.len()
        ));
        std::fs::remove_file(&path).ok();

        // Run the batch to completion once so the checkpoint holds a full
        // record stream, then simulate the kill: keep the header and the
        // first record, and leave a torn half-written line behind.
        let (full, stats) =
            solve_queries_batch_checkpointed(&program, &callees, &client, &queries, &cfg, &path)
                .unwrap();
        assert_eq!(stats.resumed, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&path, format!("{}\n{{\"i\":1,\"outc", keep.join("\n"))).unwrap();

        let (resumed, stats) =
            solve_queries_batch_checkpointed(&program, &callees, &client, &queries, &cfg, &path)
                .unwrap();
        assert_eq!(stats.resumed, 1, "exactly the surviving record is restored");
        for (i, ((r, f), d)) in resumed.iter().zip(&full).zip(&reference).enumerate() {
            assert_eq!(
                fingerprint(r),
                fingerprint(f),
                "query {i}: resumed != uninterrupted in:\n{src}"
            );
            assert_eq!(&fingerprint(r), d, "query {i}: resumed != oracle-checked solve in:\n{src}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Layer 3b: the batch scheduler at `jobs ∈ {1, 8}` on the corpus's
/// type-state queries (one batch per tracked site) agrees with the
/// oracle-checked lone solves on every verdict, iteration count, and
/// model.
#[test]
fn batch_verdicts_are_engine_and_jobs_invariant() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        for site in (0..program.sites.len()).map(|i| pda_lang::SiteId(i as u32)) {
            let client = TypestateClient::new(&program, &pa, site, TsMode::stress());
            let queries: Vec<_> =
                program.queries.iter().map(|d| client.stress_query(d.point)).collect();
            let reference: Vec<_> = queries
                .iter()
                .map(|q| oracle_checked(&program, &callees, &client, q, src).0)
                .collect();
            for jobs in [1usize, 8] {
                let cfg = BatchConfig { jobs, ..BatchConfig::default() };
                let (results, _) = solve_queries_batch(&program, &callees, &client, &queries, &cfg);
                let fps: Vec<_> = results.iter().map(fingerprint).collect();
                assert_eq!(fps, reference, "site {site} batch at jobs={jobs} diverged in:\n{src}");
            }
        }
    }
}
