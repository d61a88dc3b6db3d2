//! Differential validation of the interned meta-kernel (production)
//! against the tree kernel (the reference semantics).
//!
//! The interned kernel is designed to be **bit-identical** to the tree
//! path — same DNFs, same restriction formulas, hence the same viable
//! sets and the same chosen abstractions. Three layers check that:
//!
//! 1. every corpus query, both real clients (thread-escape and
//!    type-state): [`check_iterations`] replays each CEGAR iteration of a
//!    logged solve through the tree kernel (and DPLL), which must
//!    reproduce the logged constraint syntactically;
//! 2. batch solving at `jobs ∈ {1, 8}`: both runs agree with those
//!    oracle-checked lone solves on every verdict;
//! 3. randomized backward runs (SplitMix64-seeded traces and `not_q`
//!    formulas over the definite-null meta-domain): the interned kernel's
//!    DNF and restriction are *syntactically equal* to the tree kernel's;
//! 4. a query stopped mid-iteration (fact budget, broken wp) logs that
//!    iteration too, and the replay checks its choice of abstraction.

use pda_analysis::PointsTo;
use pda_bench::oracle::check_iterations;
use pda_escape::EscapeClient;
use pda_lang::{Atom, CallId, MethodId, Program, VarId};
use pda_meta::{analyze_trace, analyze_trace_interned, restrict, BeamConfig, Formula, InternCache};
use pda_tracer::{
    nullcli::{NullClient, NullPrim},
    solve_queries_batch, solve_query_logged, AsAnalysis, AsMeta, BatchConfig, Outcome, Query,
    QueryResult, TracerClient, TracerConfig, Unresolved,
};
use pda_typestate::{TsMode, TypestateClient};
use pda_util::BitSet;
use std::collections::BTreeSet;

include!("corpus.rs");
include!("break_wp.rs");

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

fn escape_queries(
    program: &Program,
    client: &EscapeClient,
) -> Vec<(String, Query<pda_escape::EscPrim>)> {
    program
        .queries
        .iter_enumerated()
        .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
        .map(|(qid, d)| (d.label.clone(), client.local_query(program, qid)))
        .collect()
}

#[test]
fn solve_query_is_kernel_invariant_for_escape() {
    let mut checked = 0;
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        for (label, query) in escape_queries(&program, &client) {
            checked +=
                oracle_checked(&program, &callees, &client, &query, &format!("{label} in:\n{src}"))
                    .1;
        }
    }
    assert!(checked > 0);
}

#[test]
fn solve_query_is_kernel_invariant_for_typestate() {
    let mut checked = 0;
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        for site in (0..program.sites.len()).map(|i| pda_lang::SiteId(i as u32)) {
            let client = TypestateClient::new(&program, &pa, site, TsMode::stress());
            for decl in program.queries.iter() {
                let query = client.stress_query(decl.point);
                let what = format!("{} (site {site}) in:\n{src}", decl.label);
                checked += oracle_checked(&program, &callees, &client, &query, &what).1;
            }
        }
    }
    assert!(checked > 0);
}

#[test]
fn oracle_replays_the_iteration_that_left_a_query_unresolved() {
    let program =
        pda_lang::parse_program("fn main() { var x, y; x = null; y = x; query q: local y; }")
            .unwrap();
    let pa = PointsTo::analyze(&program);
    let callees = |c: CallId| pa.callees(c).to_vec();
    let client = NullClient::new(&program);
    let query = client.query(&program, program.query_by_label("q").unwrap());
    let healthy = BreakWp { inner: &client, broken: Vec::new() };
    let broken = BreakWp::for_query(&client, &query);
    let one_fact = TracerConfig {
        rhs_limits: pda_dataflow::RhsLimits { max_facts: 1, ..Default::default() },
        ..TracerConfig::default()
    };
    for (wrapped, config) in [(&healthy, one_fact), (&broken, TracerConfig::default())] {
        let (r, log) = solve_query_logged(&program, &callees, wrapped, &query, &config);
        assert!(
            matches!(
                r.outcome,
                Outcome::Unresolved(Unresolved::AnalysisTooBig | Unresolved::MetaFailure(_))
            ),
            "{:?}",
            r.outcome
        );
        let checked =
            check_iterations(&program, &callees, wrapped, &query, &config.beam, &r, &log);
        assert_eq!(checked, Ok(r.iterations), "every iteration, the failing one included");
    }
}

/// Faulty weakest preconditions are rejected by both meta-kernels: the
/// CEGAR loop (interned kernel) resolves as a meta failure, and the tree
/// kernel, replayed on the counterexample of that same failing
/// iteration, loses the Theorem 3 membership invariant too.
#[test]
fn broken_wp_is_rejected_by_both_kernels() {
    let program =
        pda_lang::parse_program("fn main() { var x, y; x = null; y = x; query q: local y; }")
            .unwrap();
    let pa = PointsTo::analyze(&program);
    let callees = |c: CallId| pa.callees(c).to_vec();
    let client = NullClient::new(&program);
    let query = client.query(&program, program.query_by_label("q").unwrap());
    let broken = BreakWp::for_query(&client, &query);
    let config = TracerConfig::default();
    let (r, log) = solve_query_logged(&program, &callees, &broken, &query, &config);
    assert!(
        matches!(r.outcome, Outcome::Unresolved(Unresolved::MetaFailure(_))),
        "{:?}",
        r.outcome
    );
    // The log ends with the failing iteration: the abstraction it tried,
    // with nothing learned.
    assert_eq!(log.len(), r.iterations, "every iteration is logged");
    let failing = log.last().expect("the failing iteration is logged");
    assert!(failing.learned.is_none());
    let p = failing.param.clone();
    let d0 = broken.initial_state();
    let run = pda_dataflow::rhs::run(
        &program,
        &AsAnalysis(&broken),
        &p,
        d0.clone(),
        &callees,
        pda_dataflow::RhsLimits::default(),
    )
    .expect("forward run fits");
    let trace = run
        .witness(query.point, &|d: &_| query.not_q.holds(&p, d))
        .expect("the failing iteration has a counterexample");
    let atoms: Vec<_> = trace.iter().map(|s| s.atom).collect();
    let tree = analyze_trace(&AsMeta(&broken), &p, &d0, &atoms, &query.not_q, &config.beam);
    assert!(matches!(tree, Err(pda_meta::MetaError::MembershipLost { .. })), "{tree:?}");
}

#[test]
fn batch_is_kernel_invariant_at_jobs_1_and_8() {
    for src in PROGRAMS {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let client = EscapeClient::new(&program);
        let (labels, queries): (Vec<_>, Vec<_>) =
            escape_queries(&program, &client).into_iter().unzip();
        assert!(!queries.is_empty());
        let reference: Vec<_> = labels
            .iter()
            .zip(&queries)
            .map(|(l, q)| oracle_checked(&program, &callees, &client, q, l).0)
            .collect();
        for jobs in [1usize, 8] {
            let cfg = BatchConfig { jobs, ..BatchConfig::default() };
            let (results, _) = solve_queries_batch(&program, &callees, &client, &queries, &cfg);
            let fps: Vec<_> = results.iter().map(fingerprint).collect();
            assert_eq!(fps, reference, "batch at jobs={jobs} diverged in:\n{src}");
        }
    }
}

// ---- randomized backward-run differential ----

/// SplitMix64 — tiny, seedable, and good enough for fuzzing inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const N_VARS: u64 = 4;

fn random_atom(rng: &mut SplitMix64) -> Atom {
    let v = |rng: &mut SplitMix64| VarId(rng.below(N_VARS) as u32);
    match rng.below(4) {
        0 => Atom::Null { dst: v(rng) },
        1 => Atom::Copy { dst: v(rng), src: v(rng) },
        2 => Atom::Havoc { dst: v(rng) },
        _ => Atom::New { dst: v(rng), site: pda_lang::SiteId(0) },
    }
}

fn random_formula(rng: &mut SplitMix64, depth: usize) -> Formula<NullPrim> {
    if depth == 0 || rng.below(3) == 0 {
        let v = VarId(rng.below(N_VARS) as u32);
        let prim = if rng.below(2) == 0 { NullPrim::Var(v) } else { NullPrim::Param(v) };
        return if rng.below(2) == 0 { Formula::prim(prim) } else { Formula::nprim(prim) };
    }
    match rng.below(3) {
        0 => Formula::and((0..2 + rng.below(2)).map(|_| random_formula(rng, depth - 1)).collect()),
        1 => Formula::or((0..2 + rng.below(2)).map(|_| random_formula(rng, depth - 1)).collect()),
        _ => Formula::not(random_formula(rng, depth - 1)),
    }
}

#[test]
fn random_backward_runs_are_kernel_identical() {
    // Fixed seed: failures reproduce exactly.
    let mut rng = SplitMix64(0x5EED_0001);
    let program = pda_lang::parse_program("fn main() { var a, b, c, d; }").unwrap();
    let client = NullClient::new(&program);
    let cfgs = [BeamConfig::with_k(1), BeamConfig::with_k(3), BeamConfig::default()];
    // A cache shared across all rounds: every round sees a superset
    // universe and a warm memo — the cross-iteration reuse the driver
    // relies on, stress-tested over unrelated traces and queries.
    let mut shared: InternCache<NullPrim> = InternCache::new();
    let mut compared = 0usize;
    for round in 0..600 {
        let trace: Vec<Atom> = (0..1 + rng.below(6)).map(|_| random_atom(&mut rng)).collect();
        let not_q = random_formula(&mut rng, 3);
        let cfg = &cfgs[(round % cfgs.len() as u64) as usize];
        let p =
            BitSet::from_iter(N_VARS as usize, (0..N_VARS as usize).filter(|_| rng.below(2) == 0));
        let d0: BTreeSet<VarId> =
            (0..N_VARS as u32).filter(|_| rng.below(2) == 0).map(VarId).collect();

        let tree = analyze_trace(&AsMeta(&client), &p, &d0, &trace, &not_q, cfg);
        let mut obs = pda_util::ObsRegistry::default();
        // Alternate fresh and shared caches: both must match the tree.
        let mut fresh = InternCache::new();
        let cache = if round % 2 == 0 { &mut fresh } else { &mut shared };
        let interned =
            analyze_trace_interned(&AsMeta(&client), &p, &d0, &trace, &not_q, cfg, cache, &mut obs);
        match (tree, interned) {
            (Ok(t), Ok(f)) => {
                assert_eq!(
                    t,
                    f.to_dnf(),
                    "DNF diverged on trace {trace:?}, not_q {not_q}, p={p}, d0={d0:?}"
                );
                assert_eq!(
                    restrict(&t, &d0),
                    f.restrict(),
                    "restriction diverged on trace {trace:?}, not_q {not_q}, p={p}, d0={d0:?}"
                );
                compared += 1;
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!(
                "outcome diverged on trace {trace:?}, not_q {not_q}: tree {a:?} vs interned {:?}",
                b.map(|f| f.to_dnf())
            ),
        }
    }
    assert!(compared >= 200, "only {compared} successful comparisons");
}
