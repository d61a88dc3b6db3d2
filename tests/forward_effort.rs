//! Golden forward-effort test: the RHS tabulation's deterministic effort
//! counts and witness traces, pinned byte for byte.
//!
//! For every corpus program (and the seeded suite's hedc benchmark) ×
//! {thread-escape, type-state} × {empty, full abstraction}, one forward
//! run records its fact count, its interned-state count, the distinct
//! states arriving at each query point, and a digest of the witness trace
//! each query would hand to the backward meta-analysis. Any change to the
//! engine's hashing, interning or reason bookkeeping that alters which
//! facts are found, which state ids they get, or which witness is chosen
//! shows up here as a diff — wall time never does.
//!
//! Regenerate the golden file after an intentional engine change with:
//!
//! ```text
//! PDA_BLESS=1 cargo test -p pda-bench --test forward_effort
//! ```

use pda_analysis::PointsTo;
use pda_dataflow::{rhs, RhsLimits, RhsResult, TraceStep};
use pda_escape::EscapeClient;
use pda_lang::{PointId, Program, VarId};
use pda_meta::Formula;
use pda_tracer::{AsAnalysis, TracerClient};
use pda_typestate::{TsMode, TsPrim, TypestateClient};
use pda_util::fnv1a;
use std::fmt::Write as _;

include!("corpus.rs");

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/forward_effort.txt"
);

/// Digest of a witness trace: its length and an FNV-1a hash of the
/// rendered `(atom, point)` steps.
fn trace_digest(trace: &[TraceStep]) -> String {
    let text: String = trace
        .iter()
        .map(|s| format!("{:?}@{};", s.atom, s.point.0))
        .collect();
    format!("len={} fnv={:016x}", trace.len(), fnv1a(text.as_bytes()))
}

/// The run's size summary (`RhsResult { facts: F, states: S, contexts: C }`
/// rendered as `facts=F states=S contexts=C`), checked against
/// [`RhsResult::n_facts`]. `states` is the interned-state count.
fn summary<S: Clone + Eq + std::hash::Hash>(run: &RhsResult<'_, S>) -> String {
    let dbg = format!("{run:?}");
    let text = dbg
        .trim_start_matches("RhsResult { ")
        .trim_end_matches(" }")
        .replace(": ", "=")
        .replace(", ", " ");
    assert!(
        text.starts_with(&format!("facts={} ", run.n_facts())),
        "summary {text} disagrees with n_facts"
    );
    text
}

/// One run's record: the size summary, then per query — a label and a
/// point, failing where `failing(index, state)` holds — the sorted
/// distinct arriving states (as a digest) and the witness digest.
fn record<S: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug>(
    out: &mut String,
    run: &RhsResult<'_, S>,
    queries: &[(String, PointId)],
    failing: impl Fn(usize, &S) -> bool,
) {
    writeln!(out, "  {}", summary(run)).unwrap();
    for (i, (label, point)) in queries.iter().enumerate() {
        let mut states: Vec<&S> = run.states_at(*point);
        states.sort();
        let rendered: String = states.iter().map(|s| format!("{s:?};")).collect();
        let witness = match run.witness(*point, &|d| failing(i, d)) {
            Some(trace) => trace_digest(&trace),
            None => "none".to_string(),
        };
        writeln!(
            out,
            "  {label}: states={} states_fnv={:016x} witness {witness}",
            states.len(),
            fnv1a(rendered.as_bytes())
        )
        .unwrap();
    }
}

/// Thread-escape runs; `accesses` are `(label, point, var)` queries.
fn escape_section(
    out: &mut String,
    name: &str,
    program: &Program,
    accesses: &[(String, PointId, VarId)],
) {
    let pa = PointsTo::analyze(program);
    let resolver = |c: pda_lang::CallId| pa.callees(c).to_vec();
    let client = EscapeClient::new(program);
    let n = client.n_atoms();
    let queries: Vec<(String, PointId)> =
        accesses.iter().map(|(l, pt, _)| (l.clone(), *pt)).collect();
    let built: Vec<_> = accesses
        .iter()
        .map(|&(_, pt, v)| client.access_query(pt, v))
        .collect();
    for (tag, assignment) in [("empty", vec![false; n]), ("full", vec![true; n])] {
        let p = client.param_of_model(&assignment);
        let run = rhs::run(
            program,
            &AsAnalysis(&client),
            &p,
            client.initial_state(),
            &resolver,
            RhsLimits::default(),
        )
        .expect("corpus runs fit the default budget");
        writeln!(out, "{name} escape {tag}").unwrap();
        record(out, &run, &queries, |i, d| built[i].not_q.holds(&p, d));
    }
}

/// Type-state runs (stress mode, one client per site) at every query
/// point of the program.
fn typestate_section(out: &mut String, name: &str, program: &Program) {
    let pa = PointsTo::analyze(program);
    let resolver = |c: pda_lang::CallId| pa.callees(c).to_vec();
    let not_q = Formula::prim(TsPrim::Err);
    let queries: Vec<(String, PointId)> = program
        .queries
        .iter()
        .map(|decl| (decl.label.clone(), decl.point))
        .collect();
    for site in (0..program.sites.len()).map(|i| pda_lang::SiteId(i as u32)) {
        let client = TypestateClient::new(program, &pa, site, TsMode::stress());
        let n = client.n_atoms();
        for (tag, assignment) in [("empty", vec![false; n]), ("full", vec![true; n])] {
            let p = client.param_of_model(&assignment);
            let run = rhs::run(
                program,
                &AsAnalysis(&client),
                &p,
                client.initial_state(),
                &resolver,
                RhsLimits::default(),
            )
            .expect("corpus runs fit the default budget");
            writeln!(out, "{name} typestate site={} {tag}", site.0).unwrap();
            record(out, &run, &queries, |_, d| not_q.holds(&p, d));
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    for (i, src) in PROGRAMS.iter().enumerate() {
        let program = pda_lang::parse_program(src).unwrap();
        let name = format!("corpus[{i}]");
        let locals: Vec<(String, PointId, VarId)> = program
            .queries
            .iter()
            .filter_map(|decl| match decl.kind {
                pda_lang::QueryKind::Local { var } => Some((decl.label.clone(), decl.point, var)),
                _ => None,
            })
            .collect();
        escape_section(&mut out, &name, &program, &locals);
        typestate_section(&mut out, &name, &program);
    }
    // A realistic program: the first suite benchmark with >= 16 escape
    // queries (hedc), thread-escape only, every access query.
    let bench = pda_suite::suite()
        .into_iter()
        .map(pda_suite::Benchmark::load)
        .find(|b| EscapeClient::accesses(&b.program, b.app_methods()).len() >= 16)
        .expect("some suite benchmark has >=16 escape queries");
    let accesses: Vec<(String, PointId, VarId)> =
        EscapeClient::accesses(&bench.program, bench.app_methods())
            .into_iter()
            .map(|(point, var)| (format!("p{}v{}", point.0, var.0), point, var))
            .collect();
    escape_section(&mut out, "hedc", &bench.program, &accesses);
    out
}

#[test]
fn forward_effort_matches_golden_file() {
    let text = render();
    assert_eq!(text, render(), "forward effort must be run-invariant");
    if std::env::var("PDA_BLESS").is_ok() {
        std::fs::write(GOLDEN, &text).expect("bless golden forward effort");
        eprintln!("blessed {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden forward effort missing — run with PDA_BLESS=1 to create it");
    assert_eq!(
        text, golden,
        "forward effort diverged from the golden file; if the change is intentional, \
         regenerate with PDA_BLESS=1 cargo test -p pda-bench --test forward_effort"
    );
}
