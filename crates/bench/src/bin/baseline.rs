//! **Baseline comparison** (Related Work, Section 7): TRACER's
//! optimum-abstraction search vs. classic coarse refinement, which
//! enables every parameter atom the counterexample mentions.
//!
//! The paper's claim to validate: coarse refinement "can refine much more
//! than necessary" — it converges in few iterations but lands on far
//! more expensive abstractions, and it can never prove impossibility.

use pda_bench::{config_from_env, load_suite_verbose, render_table};
use pda_escape::EscapeClient;
use pda_suite::ExperimentConfig;
use pda_tracer::{solve_query, solve_query_coarse, Outcome, TracerConfig};
use pda_util::Summary;

fn main() {
    let cfg = config_from_env();
    let benches = load_suite_verbose();
    let mut rows = Vec::new();
    for b in &benches {
        let client = EscapeClient::new(&b.program);
        let accesses = EscapeClient::accesses(&b.program, b.app_methods());
        let n = cfg.max_queries.min(accesses.len()).min(16);
        let callees = b.callees();
        let tracer_cfg = tracer_config(&cfg);

        let mut opt_cost = Summary::new();
        let mut coarse_cost = Summary::new();
        let mut opt_iters = Summary::new();
        let mut coarse_iters = Summary::new();
        let mut impossible = 0usize;
        let mut coarse_gaveup = 0usize;
        for &(point, var) in accesses.iter().take(n) {
            let query = client.access_query(point, var);
            let opt = solve_query(&b.program, &callees, &client, &query, &tracer_cfg);
            let coarse = solve_query_coarse(&b.program, &callees, &client, &query, &tracer_cfg);
            match opt.outcome {
                Outcome::Proven { cost, .. } => {
                    opt_cost.add(cost as f64);
                    opt_iters.add(opt.iterations as f64);
                }
                Outcome::Impossible => impossible += 1,
                Outcome::Unresolved(_) => {}
            }
            match coarse.outcome {
                Outcome::Proven { cost, .. } => {
                    coarse_cost.add(cost as f64);
                    coarse_iters.add(coarse.iterations as f64);
                }
                _ => coarse_gaveup += 1,
            }
        }
        rows.push(vec![
            b.name.clone(),
            format!("{n}"),
            fmt_avg(opt_cost),
            fmt_avg(coarse_cost),
            fmt_avg(opt_iters),
            fmt_avg(coarse_iters),
            format!("{impossible}"),
            format!("{coarse_gaveup}"),
        ]);
    }
    println!("\nBaseline: TRACER (optimum) vs coarse refinement (thread-escape)\n");
    let header = [
        "benchmark",
        "queries",
        "opt |p| avg",
        "coarse |p| avg",
        "opt iters",
        "coarse iters",
        "opt impossible",
        "coarse gave up",
    ];
    print!("{}", render_table(&header, &rows));
    println!("\nexpected shape: coarse |p| >> optimum |p|; coarse cannot prove impossibility");
}

fn tracer_config(cfg: &ExperimentConfig) -> TracerConfig {
    TracerConfig {
        beam: pda_meta::BeamConfig::with_k(cfg.k),
        max_iters: cfg.max_iters,
        rhs_limits: pda_dataflow::RhsLimits { max_facts: cfg.max_facts, ..Default::default() },
        ..TracerConfig::default()
    }
}

fn fmt_avg(s: Summary) -> String {
    match s.mean() {
        Some(m) => format!("{m:.1}"),
        None => "-".into(),
    }
}
