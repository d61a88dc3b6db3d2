//! Golden-trace test: the structured JSONL event stream of a fixed
//! thread-escape batch over the seeded suite benchmark is (a) identical
//! across job counts (jobs ∈ {1, 8}) — the trace carries no wall-clock or
//! cache data and the driver drains per-query buffers in index order —
//! and (b) byte-identical to the checked-in golden file, replay after
//! replay.
//!
//! Regenerate the golden file after an intentional schema or driver
//! change with:
//!
//! ```text
//! PDA_BLESS=1 cargo test -p pda-bench --test golden_trace
//! ```

use pda_escape::EscapeClient;
use pda_suite::Benchmark;
use pda_tracer::{solve_queries_batch_traced, BatchConfig};
use pda_util::{Event, Recorder, TraceSink};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/hedc_trace.jsonl");

/// The fixed workload: the first suite benchmark with >= 16 thread-escape
/// queries (hedc with the default suite), capped to a debug-friendly
/// subset. Everything is seeded, so the workload is identical across
/// machines and runs.
fn workload() -> (Benchmark, usize) {
    let bench = pda_suite::suite()
        .into_iter()
        .map(Benchmark::load)
        .find(|b| EscapeClient::accesses(&b.program, b.app_methods()).len() >= 16)
        .expect("some suite benchmark has >=16 escape queries");
    (bench, 6)
}

fn traced_run(bench: &Benchmark, n_queries: usize, jobs: usize) -> Vec<Event> {
    let client = EscapeClient::new(&bench.program);
    let accesses = EscapeClient::accesses(&bench.program, bench.app_methods());
    let queries: Vec<_> = accesses
        .iter()
        .take(n_queries)
        .map(|&(point, var)| client.access_query(point, var))
        .collect();
    let callees = bench.callees();
    let config = BatchConfig { jobs, ..BatchConfig::default() };
    let recorder = Recorder::new();
    let (_, _) = solve_queries_batch_traced(
        &bench.program,
        &callees,
        &client,
        &queries,
        &config,
        Some(&recorder as &dyn TraceSink),
    );
    recorder.take()
}

#[test]
fn golden_trace_is_deterministic_and_matches_checked_in_file() {
    let (bench, n) = workload();
    let j1 = traced_run(&bench, n, 1);
    let j8 = traced_run(&bench, n, 8);
    assert_eq!(j1, j8, "trace must not depend on the job count");

    // Byte-identical replay: encoding the same events twice gives the
    // same JSONL.
    let encode = |events: &[Event]| {
        events.iter().map(|e| e.encode() + "\n").collect::<String>()
    };
    let jsonl = encode(&j1);
    assert_eq!(jsonl, encode(&j8));

    // Every line round-trips through the decoder.
    let reparsed = pda_util::obs::parse_trace(&jsonl).expect("golden trace parses");
    assert_eq!(reparsed, j1);

    if std::env::var("PDA_BLESS").is_ok() {
        std::fs::write(GOLDEN, &jsonl).expect("bless golden trace");
        eprintln!("blessed {GOLDEN} ({} events)", j1.len());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden trace missing — run with PDA_BLESS=1 to create it");
    assert_eq!(
        jsonl, golden,
        "trace diverged from the golden file; if the change is intentional, \
         regenerate with PDA_BLESS=1 cargo test -p pda-bench --test golden_trace"
    );
}
