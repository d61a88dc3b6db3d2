//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! the beam width `k` (Section 4.1 / Figure 13) and forward-run sharing
//! across queries (the Section 6 query-group optimization, done by the
//! batch scheduler's forward-run cache).
//!
//! Uses the in-tree [`pda_bench::bench_case`] timing harness (no external
//! benchmark framework, so the workspace builds offline). Run with
//! `cargo bench -p pda-bench --bench ablation`.

use pda_bench::bench_case;
use pda_suite::Benchmark;
use pda_tracer::{solve_queries_batch, solve_query, BatchConfig, TracerConfig};
use std::hint::black_box;

fn fixture() -> (Benchmark, Vec<pda_tracer::Query<pda_escape::EscPrim>>, pda_escape::EscapeClient)
{
    let bench = Benchmark::load(pda_suite::suite().remove(0));
    let client = pda_escape::EscapeClient::new(&bench.program);
    let accesses = pda_escape::EscapeClient::accesses(&bench.program, bench.app_methods());
    let queries: Vec<_> = accesses
        .iter()
        .take(6)
        .map(|&(point, var)| client.access_query(point, var))
        .collect();
    (bench, queries, client)
}

/// Beam-width ablation: resolve the same queries with k = 1, 5, 10, and
/// an effectively exhaustive beam (the paper's Figure 6(a) mode).
fn bench_beam_width() {
    let (bench, queries, client) = fixture();
    let callees = bench.callees();
    for k in [1usize, 5, 10, 1024] {
        let config = BatchConfig {
            jobs: 1,
            tracer: TracerConfig {
                beam: pda_meta::BeamConfig::with_k(k),
                ..TracerConfig::default()
            },
            ..BatchConfig::default()
        };
        bench_case(&format!("ablation/beam-width/{k}"), 10, || {
            black_box(solve_queries_batch(&bench.program, &callees, &client, &queries, &config))
        });
    }
}

/// Sharing ablation: one batch whose queries share forward runs vs.
/// solving each query independently.
fn bench_grouping() {
    let (bench, queries, client) = fixture();
    let callees = bench.callees();
    let config = BatchConfig { jobs: 1, ..BatchConfig::default() };
    bench_case("ablation/query-groups/shared", 10, || {
        black_box(solve_queries_batch(&bench.program, &callees, &client, &queries, &config))
    });
    bench_case("ablation/query-groups/individual", 10, || {
        queries
            .iter()
            .map(|q| solve_query(&bench.program, &callees, &client, q, &config.tracer))
            .map(|r| black_box(r.iterations))
            .sum::<usize>()
    });
}

fn main() {
    bench_beam_width();
    bench_grouping();
}
