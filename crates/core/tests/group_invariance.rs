//! Forward-run sharing invariants (the Section 6 query groups, done by
//! the batch scheduler's forward-run cache): outcomes are independent of
//! query order, and batched results match individually-solved results.

use pda_analysis::PointsTo;
use pda_tracer::nullcli::NullClient;
use pda_tracer::{solve_queries_batch, solve_query, BatchConfig, Outcome};

const SRC: &str = r#"
    class C {}
    fn main() {
        var a, b, c, d, e;
        a = null;
        b = a;
        c = new C;
        d = c;
        e = null;
        if (*) { e = c; }
        query q1: local a;
        query q2: local b;
        query q3: local c;
        query q4: local d;
        query q5: local e;
    }
"#;

fn outcomes_in_order(order: &[usize]) -> Vec<(usize, Option<u64>)> {
    let program = pda_lang::parse_program(SRC).unwrap();
    let pa = PointsTo::analyze(&program);
    let client = NullClient::new(&program);
    let all: Vec<_> = program
        .queries
        .iter_enumerated()
        .map(|(qid, _)| client.query(&program, qid))
        .collect();
    let queries: Vec<_> = order.iter().map(|&i| all[i].clone()).collect();
    let config = BatchConfig { jobs: 1, ..BatchConfig::default() };
    let (results, _) =
        solve_queries_batch(&program, &|c| pa.callees(c).to_vec(), &client, &queries, &config);
    let mut out: Vec<(usize, Option<u64>)> = order
        .iter()
        .zip(&results)
        .map(|(&i, r)| {
            (
                i,
                match &r.outcome {
                    Outcome::Proven { cost, .. } => Some(*cost),
                    Outcome::Impossible => None,
                    o => panic!("unresolved: {o:?}"),
                },
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn outcomes_invariant_under_query_order() {
    let base = outcomes_in_order(&[0, 1, 2, 3, 4]);
    for order in [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 4, 0, 3, 2]] {
        assert_eq!(outcomes_in_order(&order), base, "order {order:?} changed outcomes");
    }
}

#[test]
fn grouped_matches_individual_per_query() {
    let program = pda_lang::parse_program(SRC).unwrap();
    let pa = PointsTo::analyze(&program);
    let client = NullClient::new(&program);
    let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
    let queries: Vec<_> = program
        .queries
        .iter_enumerated()
        .map(|(qid, _)| client.query(&program, qid))
        .collect();
    let config = BatchConfig { jobs: 1, ..BatchConfig::default() };
    let (batched, stats) = solve_queries_batch(&program, &callees, &client, &queries, &config);
    let mut individual_runs = 0;
    for (q, g) in queries.iter().zip(&batched) {
        let ind = solve_query(&program, &callees, &client, q, &config.tracer);
        assert_eq!(ind.outcome, g.outcome);
        assert_eq!(ind.iterations, g.iterations);
        individual_runs += ind.iterations as u64;
    }
    // Forward runs executed are the cache misses; every query starts from
    // the empty abstraction, so the batch runs fewer than the queries
    // would alone.
    assert!(stats.cache.misses > 0);
    assert!(stats.cache.misses < individual_runs, "{}", stats.cache);
    assert_eq!(stats.cache.lookups(), individual_runs);
}
