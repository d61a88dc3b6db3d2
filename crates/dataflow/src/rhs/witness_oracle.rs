//! Differential test of [`RhsResult::witness`], which rebuilds a trace
//! back to front into one buffer, against the recursive reconstruction it
//! replaced ([`RhsResult::witness_recursive`]): both must return the same
//! `Vec<TraceStep>` for every query of the shared test corpus and of the
//! seven suite shapes, under both clients, at the empty abstraction, the
//! full one and seeded random ones.
//!
//! A run is capped at [`MAX_FACTS`]. Only eight escape runs of the larger
//! shapes exceed it: they reach 0.27–2 million facts, about a minute of
//! debug-build time in all, and are not compared.

use super::*;
use pda_analysis::PointsTo;
use pda_escape::EscapeClient;
use pda_suite::{experiments::typestate_query_points, Benchmark, ExperimentConfig};
use pda_tracer::{Query, TracerClient};
use pda_typestate::{TsMode, TypestateClient};
use pda_util::SplitMix64;

include!("../../../../tests/corpus.rs");

/// The fact budget of one forward run in this test.
const MAX_FACTS: usize = 100_000;

/// A client's forward transfer as this crate's [`ParametricAnalysis`].
struct Forward<'c, C>(&'c C);

impl<C: TracerClient> ParametricAnalysis for Forward<'_, C> {
    type Param = C::Param;
    type State = C::State;
    fn transfer(&self, p: &C::Param, atom: &Atom, d: &C::State) -> C::State {
        self.0.transfer(p, atom, d)
    }
}

/// The abstractions every client is run under: empty, full, and three
/// seeded random assignments.
fn assignments(n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SplitMix64::new(seed);
    let mut out = vec![vec![false; n], vec![true; n]];
    for _ in 0..3 {
        out.push((0..n).map(|_| rng.gen_bool(0.5)).collect());
    }
    out
}

/// Runs `client` under every assignment and compares both
/// reconstructions at every query point, for the query's failing states
/// and for any state. Returns the number of non-empty witnesses compared;
/// a run over [`MAX_FACTS`] compares none.
fn compare<C: TracerClient>(
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    queries: &[Query<C::Prim>],
    seed: u64,
) -> usize {
    let mut compared = 0;
    for assignment in assignments(client.n_atoms(), seed) {
        let p = client.param_of_model(&assignment);
        let limits = RhsLimits { max_facts: MAX_FACTS, ..RhsLimits::default() };
        let d0 = client.initial_state();
        let res = match run(program, &Forward(client), &p, d0, callees, limits) {
            Ok(res) => res,
            Err(Interrupt::TooBig(_)) => continue,
            Err(e) => panic!("{e}"),
        };
        for q in queries {
            let failing = |d: &C::State| q.not_q.holds(&p, d);
            let any = |_: &C::State| true;
            for pred in [&failing as &dyn Fn(&C::State) -> bool, &any] {
                let new = res.witness(q.point, pred);
                let old = res.witness_recursive(q.point, pred);
                assert_eq!(new, old, "witness at {:?}", q.point);
                compared += usize::from(new.is_some_and(|t| !t.is_empty()));
            }
        }
    }
    compared
}

/// Every local escape query, and for every site's type-state client the
/// stress query at every source query's point (as `engines_agree.rs`).
fn compare_program(program: &Program, pa: &PointsTo, seed: u64) -> usize {
    let callees = |c: CallId| pa.callees(c).to_vec();
    let escape = EscapeClient::new(program);
    let local: Vec<_> = program
        .queries
        .iter_enumerated()
        .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
        .map(|(q, _)| escape.local_query(program, q))
        .collect();
    let mut compared = compare(program, &callees, &escape, &local, seed);
    for site in (0..program.sites.len()).map(|i| pda_lang::SiteId(i as u32)) {
        let ts = TypestateClient::new(program, pa, site, TsMode::stress());
        let queries: Vec<_> = program.queries.iter().map(|d| ts.stress_query(d.point)).collect();
        compared += compare(program, &callees, &ts, &queries, seed);
    }
    compared
}

#[test]
fn witness_matches_recursive_reconstruction_on_corpus() {
    let mut compared = 0;
    for (i, src) in PROGRAMS.iter().enumerate() {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        compared += compare_program(&program, &pa, i as u64);
    }
    assert!(compared > 0, "no non-empty witness was compared");
}

#[test]
fn witness_matches_recursive_reconstruction_on_suite_shapes() {
    let cfg =
        ExperimentConfig { max_queries: 12, sites_per_call: 1, ..ExperimentConfig::default() };
    for shape in pda_suite::suite() {
        let bench = Benchmark::load(shape);
        let program = &bench.program;
        let callees = bench.callees();
        let escape = EscapeClient::new(program);
        let accesses = EscapeClient::accesses(program, bench.app_methods());
        let queries: Vec<_> = accesses
            .iter()
            .take(cfg.max_queries)
            .map(|&(pt, v)| escape.access_query(pt, v))
            .collect();
        let mut compared = compare(program, &callees, &escape, &queries, 7);
        for (point, site) in typestate_query_points(&bench, &cfg) {
            let ts = TypestateClient::new(program, &bench.pa, site, TsMode::stress());
            compared += compare(program, &callees, &ts, &[ts.stress_query(point)], 7);
        }
        assert!(compared > 0, "{}: no non-empty witness was compared", bench.name);
    }
}
