//! Differential validation of the BDD viable-set engine against DPLL
//! (the reference minimum-cost search).
//!
//! The ROBDD engine is designed to be **bit-identical** to DPLL: same
//! satisfiability verdicts, same minimum cost, and the *same extracted
//! model* — both engines canonicalize ties to the lexicographically
//! least minimum-cost assignment. Three layers check that:
//!
//! 1. seeded random CNF-ish instances (SplitMix64): a resident `Bdd`
//!    conjoining constraints one at a time — exactly the CEGAR usage
//!    pattern — must agree with a fresh `MinCostSolver` over the full
//!    prefix after *every* conjoin, down to the exact model;
//! 2. every corpus query, both real clients, `ViableEngine::Dpll` vs
//!    `ViableEngine::Bdd`: outcome, iteration count, and escalation
//!    count must match exactly, fresh and warm (resident intern cache);
//! 3. batch solving at `jobs ∈ {1, 8}` under both engines: all four
//!    runs must agree on every verdict;
//! 4. crash recovery: a BDD batch killed mid-run (torn checkpoint)
//!    resumes to results bit-identical to an uninterrupted DPLL run.

use pda_analysis::PointsTo;
use pda_escape::EscapeClient;
use pda_solver::{Bdd, MinCostSolver, PFormula};
use pda_tracer::{
    solve_queries_batch, solve_queries_batch_checkpointed, solve_query, BatchConfig, ForwardCache,
    InternCache, Outcome, QueryObs, Session, TracerConfig, ViableEngine,
};
use pda_typestate::{TsMode, TypestateClient};
use pda_util::SplitMix64;

include!("corpus.rs");

fn engine_config(engine: ViableEngine) -> TracerConfig {
    TracerConfig { viable_engine: engine, ..TracerConfig::default() }
}

/// The bit-identity fingerprint of a result: everything except wall-clock
/// time and the effort counters (which differ across engines by design).
fn fingerprint<P: Clone>(r: &pda_tracer::QueryResult<P>) -> (Outcome<P>, usize, u32) {
    (r.outcome.clone(), r.iterations, r.escalations)
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

/// Layer 2a: end-to-end over the corpus, thread-escape client, fresh
/// caches per query.
#[test]
fn solve_query_is_engine_invariant_for_escape() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        for (qid, decl) in program.queries.iter_enumerated() {
            if !matches!(decl.kind, pda_lang::QueryKind::Local { .. }) {
                continue;
            }
            let query = client.local_query(&program, qid);
            let dpll = solve_query(
                &program,
                &callees,
                &client,
                &query,
                &engine_config(ViableEngine::Dpll),
            );
            let bdd = solve_query(
                &program,
                &callees,
                &client,
                &query,
                &engine_config(ViableEngine::Bdd),
            );
            assert_eq!(
                fingerprint(&dpll),
                fingerprint(&bdd),
                "engines diverged on {} in:\n{src}",
                decl.label
            );
        }
    }
}

/// Layer 2b: end-to-end over the corpus, type-state client, every site.
#[test]
fn solve_query_is_engine_invariant_for_typestate() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        for site in (0..program.sites.len()).map(|i| pda_lang::SiteId(i as u32)) {
            let client = TypestateClient::new(&program, &pa, site, TsMode::stress());
            for (_, decl) in program.queries.iter_enumerated() {
                let query = client.stress_query(decl.point);
                let dpll = solve_query(
                    &program,
                    &callees,
                    &client,
                    &query,
                    &engine_config(ViableEngine::Dpll),
                );
                let bdd = solve_query(
                    &program,
                    &callees,
                    &client,
                    &query,
                    &engine_config(ViableEngine::Bdd),
                );
                assert_eq!(
                    fingerprint(&dpll),
                    fingerprint(&bdd),
                    "engines diverged at {} site {site:?} in:\n{src}",
                    decl.label
                );
            }
        }
    }
}

/// Layer 2c: the warm daemon path — one resident intern cache serving
/// every corpus query in sequence, per engine. Warm memoization is
/// semantically transparent, so the warm BDD run must match the fresh
/// DPLL fingerprints query for query.
#[test]
fn warm_cache_solves_are_engine_invariant() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        let queries: Vec<_> = program
            .queries
            .iter_enumerated()
            .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
            .map(|(qid, _)| client.local_query(&program, qid))
            .collect();
        let mut warm_runs = Vec::new();
        for engine in [ViableEngine::Dpll, ViableEngine::Bdd] {
            let config = engine_config(engine);
            let cache = ForwardCache::new();
            let mut icache = InternCache::default();
            let mut fps = Vec::new();
            for (i, query) in queries.iter().enumerate() {
                let mut obs = QueryObs::new(i as u64, false, false);
                let r = Session::new(&program, &callees, &client, query, &config)
                    .cache(&cache)
                    .intern(&mut icache)
                    .observe(&mut obs)
                    .run();
                fps.push(fingerprint(&r));
            }
            warm_runs.push(fps);
        }
        assert_eq!(warm_runs[0], warm_runs[1], "warm engines diverged in:\n{src}");
        // And warm matches fresh (the sequential solve_query driver).
        for (i, (qid, _)) in program
            .queries
            .iter_enumerated()
            .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
            .enumerate()
        {
            let query = client.local_query(&program, qid);
            let fresh = solve_query(
                &program,
                &callees,
                &client,
                &query,
                &engine_config(ViableEngine::Bdd),
            );
            assert_eq!(fingerprint(&fresh), warm_runs[1][i], "warm BDD != fresh BDD in:\n{src}");
        }
    }
}

/// Layer 4: crash recovery is engine-invariant. A BDD-engine batch
/// "killed" mid-run — its checkpoint truncated to the header, a prefix
/// of records, and a torn half-written tail line — resumes under the
/// BDD engine, re-solving only the missing queries, and the recovered
/// results are bit-identical to an *uninterrupted DPLL* run of the same
/// batch. This pins that neither the resident-BDD state nor the resume
/// path leaks into verdicts: a restored-and-resumed BDD batch is
/// indistinguishable from the reference engine run fresh.
#[test]
fn bdd_checkpoint_resume_matches_uninterrupted_dpll() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        let queries: Vec<_> = program
            .queries
            .iter_enumerated()
            .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
            .map(|(qid, _)| client.local_query(&program, qid))
            .collect();
        if queries.len() < 2 {
            continue;
        }

        // The uninterrupted reference run, on the oracle engine.
        let dpll_cfg = BatchConfig {
            tracer: engine_config(ViableEngine::Dpll),
            ..BatchConfig::default()
        };
        let (reference, _) =
            solve_queries_batch(&program, &callees, &client, &queries, &dpll_cfg);

        let bdd_cfg = BatchConfig {
            jobs: 2,
            tracer: engine_config(ViableEngine::Bdd),
            ..BatchConfig::default()
        };
        let path = std::env::temp_dir().join(format!(
            "pda-viable-ckpt-{}-{}.jsonl",
            std::process::id(),
            queries.len()
        ));
        std::fs::remove_file(&path).ok();

        // Run the BDD batch to completion once so the checkpoint holds a
        // full record stream, then simulate the kill: keep the header and
        // the first record, and leave a torn half-written line behind.
        let (full, stats) = solve_queries_batch_checkpointed(
            &program, &callees, &client, &queries, &bdd_cfg, &path,
        )
        .unwrap();
        assert_eq!(stats.resumed, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&path, format!("{}\n{{\"i\":1,\"outc", keep.join("\n"))).unwrap();

        let (resumed, stats) = solve_queries_batch_checkpointed(
            &program, &callees, &client, &queries, &bdd_cfg, &path,
        )
        .unwrap();
        assert_eq!(stats.resumed, 1, "exactly the surviving record is restored");
        for (i, ((r, f), d)) in resumed.iter().zip(&full).zip(&reference).enumerate() {
            assert_eq!(
                fingerprint(r),
                fingerprint(f),
                "query {i}: resumed BDD != uninterrupted BDD in:\n{src}"
            );
            assert_eq!(
                fingerprint(r),
                fingerprint(d),
                "query {i}: resumed BDD != uninterrupted DPLL in:\n{src}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Layer 3: the batch scheduler at `jobs ∈ {1, 8}` crossed with both
/// engines — all four runs agree on every verdict, iteration count, and
/// model.
#[test]
fn batch_verdicts_are_engine_and_jobs_invariant() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        let queries: Vec<_> = program
            .queries
            .iter_enumerated()
            .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
            .map(|(qid, _)| client.local_query(&program, qid))
            .collect();
        let mut runs = Vec::new();
        for engine in [ViableEngine::Dpll, ViableEngine::Bdd] {
            for jobs in [1usize, 8] {
                let cfg = BatchConfig {
                    jobs,
                    tracer: engine_config(engine),
                    ..BatchConfig::default()
                };
                let (results, _) =
                    solve_queries_batch(&program, &callees, &client, &queries, &cfg);
                runs.push((engine, jobs, results.iter().map(fingerprint).collect::<Vec<_>>()));
            }
        }
        let (e0, j0, reference) = &runs[0];
        for (engine, jobs, fps) in &runs[1..] {
            assert_eq!(
                fps, reference,
                "batch run engine={engine} jobs={jobs} diverged from engine={e0} jobs={j0} \
                 in:\n{src}"
            );
        }
    }
}
