//! Golden meta-effort test: the CEGAR loop's deterministic outcomes and
//! backward-meta effort counts, pinned byte for byte.
//!
//! For every corpus program (and the seeded suite's hedc benchmark) ×
//! {thread-escape, type-state}, each query is solved on its own and
//! records its outcome, the chosen abstraction and its cost, the CEGAR
//! iteration count, the BDD nodes created, and the meta kernel's cubes
//! built and wp-memo hits/misses. A change to the backward walk that
//! alters which constraints are learned moves the first five columns; a
//! change that only saves work moves the last three. Wall time never
//! shows up here.
//!
//! Regenerate the golden file after an intentional kernel change with:
//!
//! ```text
//! PDA_BLESS=1 cargo test -p pda-bench --test meta_effort
//! ```

use pda_analysis::PointsTo;
use pda_escape::EscapeClient;
use pda_lang::{CallId, MethodId, PointId, Program};
use pda_tracer::{outcome_tag, Outcome, Query, QueryObs, Session, TracerClient, TracerConfig};
use pda_typestate::{TsMode, TypestateClient};
use pda_util::{BitSet, Counter};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

include!("corpus.rs");

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/meta_effort.txt"
);

/// The golden text, plus the backward steps the meta kernel skipped per
/// client (an effort meter kept out of the golden text).
#[derive(Default)]
struct Report {
    text: String,
    escape_skipped: u64,
    typestate_skipped: u64,
}

/// Solves each `(label, query)` alone, writes one line per query, and
/// adds the skipped backward steps to `skipped`.
fn record<C: TracerClient<Param = BitSet>>(
    out: &mut String,
    skipped: &mut u64,
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    queries: &[(String, Query<C::Prim>)],
) {
    let config = TracerConfig::default();
    for (label, query) in queries {
        let mut obs = QueryObs::untraced();
        let r = Session::new(program, callees, client, query, &config)
            .observe(&mut obs)
            .run();
        *skipped += obs.reg.get(Counter::MetaStepsSkipped);
        let (param, cost) = match &r.outcome {
            Outcome::Proven { param, cost } => {
                (param.to_string().replace(' ', ""), cost.to_string())
            }
            _ => ("-".to_string(), "-".to_string()),
        };
        writeln!(
            out,
            "  {label}: {} p={param} cost={cost} iters={} nodes={} cubes={} wp={}/{}",
            outcome_tag(&r.outcome),
            r.iterations,
            obs.reg.get(Counter::SolverNodes),
            r.meta.cubes_built,
            r.meta.wp_hits,
            r.meta.wp_misses,
        )
        .unwrap();
    }
}

/// Thread-escape queries, one per `(label, point, var)` access.
fn escape_section(
    out: &mut Report,
    name: &str,
    program: &Program,
    accesses: &[(String, PointId, pda_lang::VarId)],
) {
    let pa = PointsTo::analyze(program);
    let callees = |c: CallId| pa.callees(c).to_vec();
    let client = EscapeClient::new(program);
    let queries: Vec<_> = accesses
        .iter()
        .map(|(l, pt, v)| (l.clone(), client.access_query(*pt, *v)))
        .collect();
    writeln!(out.text, "{name} escape").unwrap();
    record(
        &mut out.text,
        &mut out.escape_skipped,
        program,
        &callees,
        &client,
        &queries,
    );
}

/// Type-state stress queries at every query point, one client per site.
fn typestate_section(out: &mut Report, name: &str, program: &Program) {
    let pa = PointsTo::analyze(program);
    let callees = |c: CallId| pa.callees(c).to_vec();
    for site in (0..program.sites.len()).map(|i| pda_lang::SiteId(i as u32)) {
        let client = TypestateClient::new(program, &pa, site, TsMode::stress());
        let queries: Vec<_> = program
            .queries
            .iter()
            .map(|decl| (decl.label.clone(), client.stress_query(decl.point)))
            .collect();
        writeln!(out.text, "{name} typestate site={}", site.0).unwrap();
        record(
            &mut out.text,
            &mut out.typestate_skipped,
            program,
            &callees,
            &client,
            &queries,
        );
    }
}

fn render_corpus(out: &mut Report) {
    for (i, src) in PROGRAMS.iter().enumerate() {
        let program = pda_lang::parse_program(src).unwrap();
        let name = format!("corpus[{i}]");
        let locals: Vec<_> = program
            .queries
            .iter()
            .filter_map(|decl| match decl.kind {
                pda_lang::QueryKind::Local { var } => Some((decl.label.clone(), decl.point, var)),
                _ => None,
            })
            .collect();
        escape_section(out, &name, &program, &locals);
        typestate_section(out, &name, &program);
    }
}

fn render() -> String {
    let mut out = Report::default();
    render_corpus(&mut out);
    // A realistic program: the first suite benchmark with >= 16 escape
    // queries (hedc), every access query, then the suite harness's
    // type-state query points (stress property, library calls skipped).
    let bench = pda_suite::suite()
        .into_iter()
        .map(pda_suite::Benchmark::load)
        .find(|b| EscapeClient::accesses(&b.program, b.app_methods()).len() >= 16)
        .expect("some suite benchmark has >=16 escape queries");
    let accesses: Vec<_> = EscapeClient::accesses(&bench.program, bench.app_methods())
        .into_iter()
        .map(|(point, var)| (format!("p{}v{}", point.0, var.0), point, var))
        .collect();
    escape_section(&mut out, "hedc", &bench.program, &accesses);
    hedc_typestate_section(&mut out, &bench);
    out.text
}

/// Type-state stress queries at the suite harness's query points, one
/// client per tracked site, as the experiment tables pose them.
fn hedc_typestate_section(out: &mut Report, bench: &pda_suite::Benchmark) {
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
    for (point, site) in pda_suite::experiments::typestate_query_points(bench, &harness) {
        by_site.entry(site).or_default().push(point);
    }
    for (site, points) in by_site {
        let client = TypestateClient::new(
            program,
            &bench.pa,
            site,
            TsMode::Stress { skip: skip.clone() },
        );
        let queries: Vec<_> = points
            .iter()
            .map(|&pt| (format!("p{}", pt.0), client.stress_query(pt)))
            .collect();
        writeln!(out.text, "hedc typestate site={}", site.0).unwrap();
        record(
            &mut out.text,
            &mut out.typestate_skipped,
            program,
            &callees,
            &client,
            &queries,
        );
    }
}

#[test]
fn meta_effort_matches_golden_file() {
    let text = render();
    if std::env::var("PDA_BLESS").is_ok() {
        std::fs::write(GOLDEN, &text).expect("bless golden meta effort");
        eprintln!("blessed {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden meta effort missing — run with PDA_BLESS=1 to create it");
    assert_eq!(
        text, golden,
        "meta effort diverged from the golden file; if the change is intentional, \
         regenerate with PDA_BLESS=1 cargo test -p pda-bench --test meta_effort"
    );
}

/// The meta kernel's cone-of-influence skip fires on both real clients:
/// on the corpus, some backward steps of escape and of type-state
/// counterexamples leave the current DNF alone and are skipped (debug
/// builds re-check each skipped step's wp against the client).
#[test]
fn meta_kernel_skips_steps_on_both_clients() {
    let mut out = Report::default();
    render_corpus(&mut out);
    assert!(out.escape_skipped > 0, "no escape step skipped");
    assert!(out.typestate_skipped > 0, "no type-state step skipped");
}
