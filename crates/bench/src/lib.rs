//! Shared plumbing for the experiment binaries and the micro-benchmarks.
//!
//! The binaries regenerate the PLDI'13 evaluation:
//!
//! | target          | paper artifact                                         |
//! |-----------------|--------------------------------------------------------|
//! | `suite`         | Tables 1–4 and Figures 12 and 14, from one solve       |
//! | `fig13`         | effect of the beam width `k` on running time           |
//! | `baseline`      | optimum vs. coarse refinement (Section 7)              |
//! | `ext_automaton` | type-state with a declared automaton (extension)       |
//!
//! `suite` solves both analyses once per benchmark and renders every
//! table from those runs ([`tables`]), each after a `=== <name> ===`
//! marker: `table1` (benchmark statistics), `fig12` (precision buckets),
//! `table2` (iterations + running times), `table3` (cheapest-abstraction
//! sizes), `table4` (reuse groups) and `fig14` (size distribution). One
//! `batch:` footer over all runs ends the output.
//!
//! Scale knobs come from the environment so CI can run a quick pass:
//! `PDA_MAX_QUERIES` (default 40), `PDA_MAX_ITERS` (default 40),
//! `PDA_JOBS` (batch workers, default 1; each batch shares forward runs
//! through the scheduler's cache at any value, so only wall time depends
//! on it), and `PDA_DEADLINE_MS` (per-query wall-clock budget, default
//! unlimited).

use pda_escape::EscapeClient;
use pda_suite::{AnalysisRun, Benchmark, ExperimentConfig};
use pda_tracer::{Outcome, QueryResult};
use pda_util::BitSet;

pub mod oracle;
pub mod tables;

/// Builds the experiment configuration, honoring the `PDA_MAX_QUERIES`,
/// `PDA_MAX_ITERS`, `PDA_JOBS`, and `PDA_DEADLINE_MS` environment
/// overrides.
pub fn config_from_env() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::default();
    if let Some(q) = env_usize("PDA_MAX_QUERIES") {
        cfg.max_queries = q;
    }
    if let Some(i) = env_usize("PDA_MAX_ITERS") {
        cfg.max_iters = i;
    }
    if let Some(j) = env_usize("PDA_JOBS") {
        cfg.jobs = j.max(1);
    }
    if let Some(ms) = env_usize("PDA_DEADLINE_MS") {
        cfg.timeout = Some(std::time::Duration::from_millis(ms as u64));
    }
    cfg
}

/// Builds the `batch:` footer registry over all analysis runs of an
/// invocation: every run's batch registries merged (throughput,
/// forward-run cache, faults, solver and meta-kernel counters), with the
/// worker count taken as the largest requested. It renders in the same
/// [`pda_util::ObsRegistry::render`] format as the CLI's and the batch
/// driver's footer.
pub fn batch_obs<'a>(runs: impl IntoIterator<Item = &'a AnalysisRun>) -> pda_util::ObsRegistry {
    let mut obs = pda_util::ObsRegistry::default();
    let mut jobs = 1;
    for r in runs {
        obs.merge(&r.obs);
        jobs = jobs.max(r.jobs);
    }
    obs.set(pda_util::Counter::Jobs, jobs as u64);
    obs
}

/// The environment variable `name` parsed as a `usize`; `None` when it
/// is unset or does not parse.
pub fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

/// The thread-escape batch of the `batch` and `scale` bins: the first
/// suite benchmark with at least 16 escape queries (hedc with the default
/// suite), its generator seed, and its first `PDA_MAX_QUERIES` (default
/// 32, floor 16) access queries as `(point, var)` pairs. The generator is
/// fully seeded, so the workload is fixed across runs and machines.
pub fn escape_batch() -> (u64, Benchmark, Vec<(pda_lang::PointId, pda_lang::VarId)>) {
    let max_queries = env_usize("PDA_MAX_QUERIES").unwrap_or(32).max(16);
    let (seed, bench, mut accesses) = pda_suite::suite()
        .into_iter()
        .map(|cfg| (cfg.seed, Benchmark::load(cfg)))
        .find_map(|(seed, b)| {
            let accesses = EscapeClient::accesses(&b.program, b.app_methods());
            (accesses.len() >= 16).then_some((seed, b, accesses))
        })
        .expect("some suite benchmark has >=16 escape queries");
    accesses.truncate(max_queries);
    (seed, bench, accesses)
}

/// One query's verdict, cost, abstraction and iteration count as the
/// stable one-line key the `batch` and `scale` bins compare across runs
/// and print as their `outcome N:` lines.
pub fn outcome_key(r: &QueryResult<BitSet>) -> String {
    let verdict = match &r.outcome {
        Outcome::Proven { param, cost } => format!("proven |p|={cost} {param}"),
        Outcome::Impossible => "impossible".into(),
        Outcome::Unresolved(u) => format!("unresolved {u:?}"),
    };
    format!("{verdict} after {} iterations", r.iterations)
}

/// Loads the full suite, printing progress to stderr.
pub fn load_suite_verbose() -> Vec<Benchmark> {
    pda_suite::suite()
        .into_iter()
        .map(|cfg| {
            eprintln!("loading {} ...", cfg.name);
            Benchmark::load(cfg)
        })
        .collect()
}

/// Formats one row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Renders a fixed-width table with a header rule, one line per row.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    let mut out = format!("{}\n{rule}\n", row(&head, &widths));
    for r in rows {
        out.push_str(&row(r, &widths));
        out.push('\n');
    }
    out
}

/// Times `iters` runs of `f` after one warmup run and prints the mean
/// per-iteration wall time — the offline, dependency-free stand-in for a
/// benchmark harness like Criterion. Returns the mean in microseconds so
/// drivers can compare configurations.
pub fn bench_case<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> f64 {
    assert!(iters > 0, "bench_case needs at least one iteration");
    std::hint::black_box(f());
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let mean_us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
    println!("{name:<44} {iters:>4} iters   avg {mean_us:>12.1} µs");
    mean_us
}

/// Renders a [`pda_util::Summary`] as the paper's `min max avg` triple.
pub fn fmt_summary(s: pda_util::Summary) -> (String, String, String) {
    match (s.min(), s.max(), s.mean()) {
        (Some(lo), Some(hi), Some(avg)) => {
            (format!("{lo:.0}"), format!("{hi:.0}"), format!("{avg:.1}"))
        }
        _ => ("-".into(), "-".into(), "-".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_config_defaults() {
        let cfg = config_from_env();
        assert!(cfg.max_queries > 0);
        assert!(cfg.max_iters > 0);
    }

    #[test]
    fn table_formatting_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
