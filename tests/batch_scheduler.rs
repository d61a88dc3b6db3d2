//! Integration tests for the batch query scheduler
//! (`pda_tracer::solve_queries_batch`):
//!
//! * **Determinism** — for every program in the shared corpus, solving
//!   all thread-escape queries with `--jobs 1` and `--jobs 8` yields
//!   identical `Outcome`s, optimum costs, iteration counts, and
//!   forward-run cache counts. Both share forward runs through the cache;
//!   `jobs > 1` adds worker threads, which may change no verdict and no
//!   count.
//! * **Cache correctness** — a forward run served from the cache yields
//!   the same verdicts (per query point) as a freshly computed run, and
//!   repeated lookups execute the tabulation exactly once.

use pda_analysis::PointsTo;
use pda_escape::EscapeClient;
use pda_tracer::{
    solve_queries_batch, AsAnalysis, BatchConfig, ForwardCache, Outcome, Query, TracerClient,
};

include!("corpus.rs");

fn escape_queries(
    program: &pda_lang::Program,
    client: &EscapeClient,
) -> Vec<Query<pda_escape::EscPrim>> {
    program
        .queries
        .iter_enumerated()
        .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
        .map(|(qid, _)| client.local_query(program, qid))
        .collect()
}

#[test]
fn jobs_1_and_jobs_8_agree_on_every_corpus_program() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        let queries = escape_queries(&program, &client);
        assert!(!queries.is_empty());

        let seq_cfg = BatchConfig { jobs: 1, ..BatchConfig::default() };
        let par_cfg = BatchConfig { jobs: 8, ..BatchConfig::default() };
        let (seq, seq_stats) =
            solve_queries_batch(&program, &callees, &client, &queries, &seq_cfg);
        let (par, par_stats) =
            solve_queries_batch(&program, &callees, &client, &queries, &par_cfg);

        assert_eq!(
            seq_stats.cache, par_stats.cache,
            "both job counts share the same forward runs"
        );
        assert_eq!(seq.len(), par.len());
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(
                a.outcome, b.outcome,
                "outcome diverged for query {i} in:\n{src}"
            );
            assert_eq!(
                a.iterations, b.iterations,
                "iteration count diverged for query {i} in:\n{src}"
            );
            if let (Outcome::Proven { cost: ca, .. }, Outcome::Proven { cost: cb, .. }) =
                (&a.outcome, &b.outcome)
            {
                assert_eq!(ca, cb, "optimum cost diverged for query {i} in:\n{src}");
            }
        }
    }
}

#[test]
fn cached_forward_run_matches_fresh_run() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        let queries = escape_queries(&program, &client);
        let n = client.n_atoms();
        let cache: ForwardCache<'_, _> = ForwardCache::new();

        // A few representative abstractions, each looked up twice.
        let patterns: Vec<Vec<bool>> = vec![
            vec![false; n],
            vec![true; n],
            (0..n).map(|i| i % 2 == 0).collect(),
        ];
        for assignment in &patterns {
            let p = client.param_of_model(assignment);
            let fresh = pda_dataflow::rhs::run(
                &program,
                &AsAnalysis(&client),
                &p,
                client.initial_state(),
                &callees,
                pda_dataflow::RhsLimits::default(),
            )
            .unwrap();
            let max_facts = pda_dataflow::RhsLimits::default().max_facts;
            for round in 0..2 {
                let waits = std::sync::atomic::AtomicU64::new(0);
                let cached = cache
                    .forward(assignment, max_facts, pda_util::Deadline::NEVER, &waits, || {
                        assert_eq!(round, 0, "second lookup must not recompute");
                        pda_dataflow::rhs::run(
                            &program,
                            &AsAnalysis(&client),
                            &p,
                            client.initial_state(),
                            &callees,
                            pda_dataflow::RhsLimits::default(),
                        )
                    })
                    .unwrap();
                assert_eq!(cached.n_facts(), fresh.n_facts());
                for q in &queries {
                    let failing = |d: &pda_escape::Env| q.not_q.holds(&p, d);
                    let fresh_fails = fresh.witness(q.point, &failing).is_some();
                    let cached_fails = cached.witness(q.point, &failing).is_some();
                    assert_eq!(
                        fresh_fails, cached_fails,
                        "cached verdict diverged under p={p} in:\n{src}"
                    );
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses as usize, patterns.len());
        assert_eq!(stats.hits as usize, patterns.len());
    }
}
