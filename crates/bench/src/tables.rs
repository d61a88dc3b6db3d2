//! The paper's Table 1, Figure 12, Tables 2–4 and Figure 14, rendered
//! from runs that are already solved: nothing here solves a query, so
//! one solve of the suite feeds every table (the `suite` bin) and tests
//! can render small runs.

use crate::{fmt_summary, render_table};
use pda_suite::{benchmark_stats, AnalysisRun, Benchmark, Resolution};
use pda_util::Summary;
use std::fmt::Write as _;

/// Both client analyses' runs over one benchmark.
pub struct BenchmarkRuns {
    /// The type-state stress property's run ([`pda_suite::run_typestate`]).
    pub typestate: AnalysisRun,
    /// The thread-escape run ([`pda_suite::run_escape`]).
    pub escape: AnalysisRun,
}

/// **Table 1**: benchmark statistics — classes and methods (application /
/// total), source size, and the `log2` of the abstraction family searched
/// by each analysis.
pub fn table1(benches: &[Benchmark]) -> String {
    let rows: Vec<Vec<String>> = benches
        .iter()
        .map(|b| {
            let s = benchmark_stats(b);
            let (c, m) = (s.classes, s.methods);
            let counts = [c.0, c.1, m.0, m.1, s.loc, s.log2_typestate, s.log2_escape];
            std::iter::once(s.name).chain(counts.map(|n| n.to_string())).collect()
        })
        .collect();
    let header = [
        "benchmark",
        "classes(app)",
        "classes(tot)",
        "methods(app)",
        "methods(tot)",
        "loc",
        "log2|P| ts",
        "log2|P| esc",
    ];
    format!(
        "\nTable 1: benchmark statistics (0-CFA-reachable code)\n\n{}",
        render_table(&header, &rows)
    )
}

/// **Figure 12**: precision — per benchmark and analysis, how many
/// queries are proven with a cheapest abstraction, shown impossible to
/// prove, or left unresolved by the budget.
pub fn fig12(runs: &[BenchmarkRuns]) -> String {
    let mut rows = Vec::new();
    let mut totals = [0usize; 3];
    for run in runs.iter().flat_map(|r| [&r.typestate, &r.escape]) {
        let (p, i, u) = run.precision();
        let n = run.outcomes.len().max(1);
        totals[0] += p;
        totals[1] += i;
        totals[2] += u;
        let pct = |c: usize| format!("{c} ({:.0}%)", 100.0 * c as f64 / n as f64);
        rows.push(vec![
            run.benchmark.clone(),
            run.analysis.to_string(),
            format!("{}", run.outcomes.len()),
            pct(p),
            pct(i),
            pct(u),
        ]);
    }
    let header = ["benchmark", "analysis", "queries", "proven", "impossible", "unresolved"];
    let total: usize = totals.iter().sum();
    format!(
        "\nFigure 12: precision (proven / impossible / unresolved)\n\n{}\
         \nresolved: {:.1}% of {total} queries (paper: 92.5% on average)\n",
        render_table(&header, &rows),
        100.0 * (totals[0] + totals[1]) as f64 / total.max(1) as f64
    )
}

/// **Table 2**: scalability — CEGAR iteration counts (min/max/avg,
/// separately for proven and impossible queries) for both analyses, plus
/// the thread-escape running-time summaries.
pub fn table2(runs: &[BenchmarkRuns]) -> String {
    let triple = |s: Summary, unit: &str| {
        let (lo, hi, avg) = fmt_summary(s);
        format!("{lo}{unit}/{hi}{unit}/{avg}{unit}")
    };
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let (ts, esc) = (&r.typestate, &r.escape);
            vec![
                esc.benchmark.clone(),
                triple(ts.iterations(Resolution::Proven), ""),
                triple(ts.iterations(Resolution::Impossible), ""),
                triple(esc.iterations(Resolution::Proven), ""),
                triple(esc.iterations(Resolution::Impossible), ""),
                triple(esc.times_secs(Resolution::Proven), "s"),
                triple(esc.times_secs(Resolution::Impossible), "s"),
            ]
        })
        .collect();
    let header = [
        "benchmark",
        "ts-iters proven",
        "ts-iters imposs",
        "esc-iters proven",
        "esc-iters imposs",
        "esc-time proven",
        "esc-time imposs",
    ];
    format!(
        "\nTable 2: iterations (min/max/avg) and thread-escape running times\n\n{}",
        render_table(&header, &rows)
    )
}

/// **Table 3**: cheapest-abstraction sizes for proven queries — the
/// number of must-alias-tracked variables (type-state) resp. `L`-mapped
/// sites (thread-escape).
pub fn table3(runs: &[BenchmarkRuns]) -> String {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let (t0, t1, t2) = fmt_summary(r.typestate.cheapest_sizes());
            let (e0, e1, e2) = fmt_summary(r.escape.cheapest_sizes());
            vec![r.escape.benchmark.clone(), t0, t1, t2, e0, e1, e2]
        })
        .collect();
    let header = ["benchmark", "ts min", "ts max", "ts avg", "esc min", "esc max", "esc avg"];
    format!(
        "\nTable 3: cheapest-abstraction size for proven queries (min/max/avg)\n\n{}\
         \npaper shape: escape needs 1-2 L-sites on average; \
         type-state grows with benchmark size\n",
        render_table(&header, &rows)
    )
}

/// **Table 4**: cheapest-abstraction reuse — how many proven queries
/// share the same cheapest abstraction (group counts and min/max/avg
/// group sizes).
pub fn table4(runs: &[BenchmarkRuns]) -> String {
    let group_cells = |run: &AnalysisRun| {
        let groups = run.reuse_groups();
        let (lo, hi, avg) = fmt_summary(groups.iter().map(|&g| g as f64).collect());
        [format!("{}", groups.len()), lo, hi, avg]
    };
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let mut row = vec![r.escape.benchmark.clone()];
            row.extend(group_cells(&r.typestate));
            row.extend(group_cells(&r.escape));
            row
        })
        .collect();
    let header = [
        "benchmark",
        "ts #groups",
        "ts min",
        "ts max",
        "ts avg",
        "esc #groups",
        "esc min",
        "esc max",
        "esc avg",
    ];
    format!(
        "\nTable 4: cheapest-abstraction reuse among proven queries\n\n{}\
         \npaper shape: cheapest abstractions differ across queries (many small groups)\n",
        render_table(&header, &rows)
    )
}

/// **Figure 14**: the distribution of cheapest-abstraction sizes for
/// thread-escape queries on the last three benchmarks (the suite's three
/// largest) — most queries need only one or two `L`-mapped sites.
pub fn fig14(runs: &[BenchmarkRuns]) -> String {
    let mut out =
        String::from("\nFigure 14: histogram of cheapest-abstraction sizes (thread-escape)\n\n");
    for r in &runs[runs.len().saturating_sub(3)..] {
        let hist = r.escape.size_histogram();
        let _ = writeln!(out, "{}:", r.escape.benchmark);
        let max = hist.values().copied().max().unwrap_or(1);
        for (size, count) in &hist {
            let bar = "#".repeat(count * 40 / max.max(1));
            let _ = writeln!(out, "  |p| = {size:>3}: {count:>4} {bar}");
        }
        if hist.is_empty() {
            out.push_str("  (no proven queries)\n");
        }
        out.push('\n');
    }
    out
}
