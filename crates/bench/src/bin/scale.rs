//! Jobs-scaling bench: how the batch scheduler's wall time, aggregate
//! meta-phase attribution, and lock contention behave as the requested
//! worker count grows — the measurement behind the "make parallel
//! actually win" work.
//!
//! Loads the same seeded suite benchmark as the `batch` bin (hedc with
//! the default suite) and solves its thread-escape batch at
//! `jobs ∈ {1, 2, 4, 8, 16}`. For every point it records:
//!
//! * `wall_micros` — whole-batch wall time;
//! * `meta_micros` — aggregate backward/meta attribution summed over
//!   queries. Historically this *inflated* at high job counts because
//!   oversubscribed workers time-shared the core and every wall-clock
//!   span stretched; the scheduler now clamps spawned threads to
//!   available parallelism, so this must stay flat;
//! * `contention_micros` — metered waits: contended forward-cache map
//!   acquisitions and waits on a sibling's running forward run of the
//!   same key;
//! * `cache_hits` / `cache_misses` — forward runs shared vs executed;
//! * `outcomes_identical` — per-query outcome key equality against the
//!   `jobs = 1` sequential reference (must be `true` everywhere).
//!
//! Output: one line per grid point, a `scale:` summary line for the CI
//! scaling smoke, and a machine-readable `BENCH_scale.json` (path
//! override: `PDA_BENCH_OUT`) that also records the host's core count
//! and the repeats per point.
//!
//! Environment: `PDA_MAX_QUERIES` caps the batch (default 32, floor 16);
//! `PDA_JOBS_GRID` overrides the jobs grid (comma-separated);
//! `PDA_REPEATS` takes the fastest of N runs per point (default 1);
//! `PDA_BENCH_OUT` overrides the output path.

use pda_bench::{env_usize, escape_batch, outcome_key};
use pda_escape::EscapeClient;
use pda_tracer::{default_jobs, solve_queries_batch, BatchConfig, BatchStats, QueryResult};
use pda_util::BitSet;

struct Point {
    jobs: usize,
    wall_micros: u128,
    meta_micros: u64,
    contention_micros: u64,
    cache_hits: u64,
    cache_misses: u64,
    workers: usize,
    outcomes_identical: bool,
}

fn point_json(p: &Point) -> String {
    format!(
        "{{\"jobs\":{},\"wall_micros\":{},\"meta_micros\":{},\
         \"contention_micros\":{},\"cache_hits\":{},\"cache_misses\":{},\"workers\":{},\
         \"outcomes_identical\":{}}}",
        p.jobs,
        p.wall_micros,
        p.meta_micros,
        p.contention_micros,
        p.cache_hits,
        p.cache_misses,
        p.workers,
        p.outcomes_identical
    )
}

fn main() {
    let jobs_grid: Vec<usize> = std::env::var("PDA_JOBS_GRID")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|g: &Vec<usize>| !g.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16]);

    let (seed, bench, accesses) = escape_batch();
    let client = EscapeClient::new(&bench.program);
    let queries: Vec<_> =
        accesses.iter().map(|&(point, var)| client.access_query(point, var)).collect();
    let callees = bench.callees();

    println!(
        "benchmark {} (seed {seed}) — {} thread-escape queries, scaling grid {:?}\n",
        bench.name,
        queries.len(),
        jobs_grid
    );

    let run = |jobs: usize| -> (Vec<QueryResult<BitSet>>, BatchStats) {
        let cfg = BatchConfig { jobs, ..BatchConfig::default() };
        solve_queries_batch(&bench.program, &callees, &client, &queries, &cfg)
    };

    let repeats = env_usize("PDA_REPEATS").unwrap_or(1).max(1);

    // Min-of-`repeats` per grid point: wall time on a time-shared box is
    // one-sided noise (the minimum is the least-disturbed run), and
    // applying the same rule to every point — baseline included — keeps
    // the comparison fair. Outcome identity is asserted on the reported
    // (fastest) run; determinism across repeats is the test suite's job.
    let min_of = |jobs: usize| -> (Vec<QueryResult<BitSet>>, BatchStats) {
        let mut best = run(jobs);
        for _ in 1..repeats {
            let next = run(jobs);
            if next.1.wall_micros < best.1.wall_micros {
                best = next;
            }
        }
        best
    };

    // The sequential reference every grid point is compared against.
    let (baseline, base_stats) = min_of(1);
    let base_keys: Vec<String> = baseline.iter().map(outcome_key).collect();

    let mut points: Vec<Point> = Vec::new();
    for &jobs in &jobs_grid {
        let (results, stats) =
            if jobs == 1 { (baseline.clone(), base_stats.clone()) } else { min_of(jobs) };
        let identical = results.iter().map(outcome_key).zip(&base_keys).all(|(a, b)| a == *b);
        let p = Point {
            jobs,
            wall_micros: stats.wall_micros,
            meta_micros: stats.meta.micros,
            contention_micros: stats.contention_micros,
            cache_hits: stats.cache.hits,
            cache_misses: stats.cache.misses,
            workers: stats.worker_meta.len(),
            outcomes_identical: identical,
        };
        println!(
            "jobs={jobs:<2}  wall {:>9.1} ms  meta {:>9.1} ms  \
             contention {:>7} µs  cache {}/{}  workers={}  identical={identical}",
            p.wall_micros as f64 / 1e3,
            p.meta_micros as f64 / 1e3,
            p.contention_micros,
            p.cache_hits,
            p.cache_hits + p.cache_misses,
            p.workers,
        );
        assert!(identical, "jobs={jobs} diverged from the sequential run");
        points.push(p);
    }

    let at = |jobs: usize| points.iter().find(|p| p.jobs == jobs).expect("grid point present");
    let j1 = at(1);
    let j8 = at(8);
    let speedup = j1.wall_micros as f64 / j8.wall_micros.max(1) as f64;
    let meta_ratio = j8.meta_micros as f64 / j1.meta_micros.max(1) as f64;
    let all_identical = points.iter().all(|p| p.outcomes_identical);
    println!(
        "\nscale: jobs8_speedup={speedup:.3} meta_ratio_j8_vs_j1={meta_ratio:.3} \
         outcomes_identical={all_identical}"
    );

    let out_path = std::env::var("PDA_BENCH_OUT").unwrap_or_else(|_| "BENCH_scale.json".into());
    let json = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"seed\": {seed},\n  \"queries\": {},\n  \
         \"host_cores\": {},\n  \"repeats\": {repeats},\n  \"points\": [\n    {}\n  ],\n  \
         \"jobs8_speedup\": {speedup:.3},\n  \"meta_ratio_j8_vs_j1\": {meta_ratio:.3},\n  \
         \"outcomes_identical\": {all_identical}\n}}\n",
        bench.name,
        queries.len(),
        default_jobs(),
        points.iter().map(point_json).collect::<Vec<_>>().join(",\n    "),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_scale.json");
    println!("wrote {out_path}");
}
