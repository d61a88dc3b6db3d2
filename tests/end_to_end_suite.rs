//! End-to-end smoke of the full evaluation pipeline on the two smallest
//! generated benchmarks: both analyses run to completion, buckets add up,
//! the headline shape of the paper's results holds (most queries
//! resolved; escape proofs are cheap), and the tables rendered from the
//! runs count what the runs hold.

use pda_bench::tables::{fig12, fig14, table4, BenchmarkRuns};
use pda_suite::{run_escape, run_typestate, AnalysisRun, Benchmark, ExperimentConfig, Resolution};

fn small_cfg() -> ExperimentConfig {
    ExperimentConfig { max_queries: 12, max_iters: 30, ..ExperimentConfig::default() }
}

#[test]
fn smallest_two_benchmarks_end_to_end() {
    let cfg = small_cfg();
    let mut solved = Vec::new();
    for gen_cfg in pda_suite::suite().into_iter().take(2) {
        let bench = Benchmark::load(gen_cfg);
        let runs = BenchmarkRuns {
            typestate: run_typestate(&bench, &cfg),
            escape: run_escape(&bench, &cfg),
        };
        for run in [&runs.typestate, &runs.escape] {
            let (proven, impossible, unresolved) = run.precision();
            assert_eq!(proven + impossible + unresolved, run.outcomes.len());
            assert!(!run.outcomes.is_empty(), "{}: no queries", run.analysis);
            // Headline claim shape: the vast majority of queries resolve.
            let resolved = proven + impossible;
            assert!(
                resolved * 10 >= run.outcomes.len() * 7,
                "{} on {}: only {resolved}/{} resolved",
                run.analysis,
                run.benchmark,
                run.outcomes.len()
            );
            // Iteration counts are consistent with resolution.
            for o in &run.outcomes {
                match o.resolution {
                    Resolution::Proven => {
                        assert!(o.iterations >= 1);
                        assert!(o.cost.is_some());
                    }
                    Resolution::Impossible => assert!(o.cost.is_none()),
                    Resolution::Unresolved => {}
                }
            }
        }
        solved.push(runs);
    }
    check_fig12(&solved);
    check_table4(&solved);
    check_fig14(&solved);
}

fn all_runs(solved: &[BenchmarkRuns]) -> impl Iterator<Item = &AnalysisRun> {
    solved.iter().flat_map(|r| [&r.typestate, &r.escape])
}

/// Figure 12's `resolved:` line totals the runs' precision buckets.
fn check_fig12(solved: &[BenchmarkRuns]) {
    let (mut decided, mut total) = (0, 0);
    for run in all_runs(solved) {
        let (p, i, u) = run.precision();
        decided += p + i;
        total += p + i + u;
    }
    let text = fig12(solved);
    let line = text.lines().find(|l| l.starts_with("resolved: ")).expect("a resolved: line");
    let pct = 100.0 * decided as f64 / total as f64;
    assert_eq!(line, format!("resolved: {pct:.1}% of {total} queries (paper: 92.5% on average)"));
}

/// Each analysis's Table 4 groups hold exactly its proven queries: the
/// group count times the printed average size is the proven count, up to
/// the average's rounding.
fn check_table4(solved: &[BenchmarkRuns]) {
    let text = table4(solved);
    for runs in solved {
        let row: Vec<&str> = text
            .lines()
            .map(str::split_whitespace)
            .find_map(|mut cells| {
                (cells.next() == Some(runs.escape.benchmark.as_str())).then(|| cells.collect())
            })
            .unwrap_or_else(|| panic!("no Table 4 row for {}\n{text}", runs.escape.benchmark));
        assert_eq!(row.len(), 8, "{row:?}");
        for (run, cells) in [(&runs.typestate, &row[..4]), (&runs.escape, &row[4..])] {
            let proven = run.precision().0;
            let groups: usize = cells[0].parse().unwrap();
            assert_eq!(groups, run.reuse_groups().len());
            if groups == 0 {
                assert_eq!(proven, 0, "{}: proven queries but no group", run.analysis);
                continue;
            }
            let avg: f64 = cells[3].parse().unwrap();
            let sum = groups as f64 * avg;
            assert!(
                (sum - proven as f64).abs() <= 0.05 * groups as f64 + 1e-9,
                "{} on {}: {groups} groups of avg {avg} vs {proven} proven",
                run.analysis,
                run.benchmark
            );
        }
    }
}

/// Figure 14's bars count exactly the proven escape queries of each
/// benchmark it shows.
fn check_fig14(solved: &[BenchmarkRuns]) {
    let text = fig14(solved);
    for runs in solved {
        let header = format!("{}:", runs.escape.benchmark);
        let counted: usize = text
            .lines()
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| l.starts_with("  |p| = "))
            .map(|l| l.split(':').nth(1).unwrap().split_whitespace().next().unwrap())
            .map(|c| c.parse::<usize>().unwrap())
            .sum();
        assert!(text.lines().any(|l| l == header), "no Figure 14 section {header}\n{text}");
        assert_eq!(counted, runs.escape.precision().0, "{header}\n{text}");
    }
}

#[test]
fn escape_proofs_are_cheap_on_average() {
    // Paper, Table 3: thread-escape needs only 1-2 L-sites on average.
    let bench = Benchmark::load(pda_suite::suite().remove(0));
    let run = run_escape(&bench, &small_cfg());
    if let Some(avg) = run.cheapest_sizes().mean() {
        assert!(avg <= 6.0, "escape proofs unexpectedly expensive: avg {avg}");
    }
}

#[test]
fn deterministic_outcomes_across_runs() {
    let cfg = small_cfg();
    let bench = Benchmark::load(pda_suite::suite().remove(0));
    let a = run_escape(&bench, &cfg);
    let b = run_escape(&bench, &cfg);
    let key = |r: &pda_suite::AnalysisRun| -> Vec<(String, bool, Option<u64>)> {
        r.outcomes
            .iter()
            .map(|o| (o.label.clone(), o.resolution == Resolution::Proven, o.cost))
            .collect()
    };
    assert_eq!(key(&a), key(&b));
}
