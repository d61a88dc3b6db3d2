//! Integration tests for fault-tolerant batch execution
//! (`pda_tracer::batch` + `resilience`):
//!
//! * **Fault determinism** — a batch mixing healthy queries with a query
//!   whose first attempt panics (`query.<i>@1=panic` on the fault plane)
//!   and a zero-deadline query completes under `jobs ∈ {1, 2, 8}`, and
//!   every healthy query's result is bit-identical (outcome, iterations)
//!   to a sequential fault-free `solve_query`. The injected faults are
//!   deterministic, so the *entire* result vector agrees across job
//!   counts.
//! * **Panic isolation in the forward engine** — a panic at every
//!   forward-cache fill (`cache.slot_fill=panic`, inside the shared
//!   cache's compute closure) still yields a complete batch of
//!   `EngineFault` results, with no deadlocked cache waiters.
//! * **Deadlines** — a stall at the query's seam plus a per-query
//!   timeout resolves as `DeadlineExceeded` instead of hanging.
//! * **Meta-failure** — an unsound weakest precondition surfaces as
//!   `Unresolved::MetaFailure` through `solve_query`.
//! * **Fact budget** — a starved per-query fact budget resolves every
//!   query of a batch as `AnalysisTooBig`.
//! * **Checkpoint/resume** — a batch streams results to a JSONL
//!   checkpoint; rerunning (including from a truncated, torn file)
//!   skips restored queries and reproduces the uninterrupted results.

use pda_analysis::PointsTo;
use pda_tracer::{
    load_checkpoint, nullcli::NullClient, solve_queries_batch, solve_queries_batch_checkpointed,
    solve_query, BatchConfig, Outcome, Query, QueryLimits, QueryResult, TracerConfig, Unresolved,
};
use pda_util::{faultplane, BitSet};
use std::time::{Duration, Instant};

include!("break_wp.rs");
include!("own_process.rs");

const SRC: &str = r#"
    class C {}
    fn main() {
        var a, b, c, d, e;
        a = null;
        b = a;
        c = null;
        d = new C;
        e = b;
        query qa: local b;
        query qb: local e;
        query qc: local c;
        query qd: local d;
    }
"#;

struct Fixture {
    program: pda_lang::Program,
    pa: PointsTo,
    client: NullClient,
}

impl Fixture {
    fn new(src: &str) -> Fixture {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        Fixture { program, pa, client }
    }

    fn queries(&self) -> Vec<Query<pda_tracer::nullcli::NullPrim>> {
        self.program
            .queries
            .iter_enumerated()
            .map(|(qid, _)| self.client.query(&self.program, qid))
            .collect()
    }
}

/// The deterministic fields of a result — everything but wall time.
fn key(r: &QueryResult<BitSet>) -> (Outcome<BitSet>, usize) {
    (r.outcome.clone(), r.iterations)
}

fn injected(point: &str) -> Outcome<BitSet> {
    Outcome::Unresolved(Unresolved::EngineFault(format!("injected fault at fault point `{point}`")))
}

#[test]
fn faulted_batch_is_deterministic_across_job_counts() {
    in_own_process("faulted_batch_is_deterministic_across_job_counts", || {
        let fx = Fixture::new(SRC);
        let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
        let config = TracerConfig::default();

        // Fault-free sequential baseline.
        let plain = fx.queries();
        let baseline: Vec<_> = plain
            .iter()
            .map(|q| solve_query(&fx.program, &callees, &fx.client, q, &config))
            .collect();

        // The batch: all four healthy queries, plus a copy of qa whose
        // first attempt panics and a zero-deadline copy of qc.
        let healthy = plain.len();
        let mut queries = plain.clone();
        queries.push(plain[0].clone());
        let zero = QueryLimits { timeout: Some(Duration::ZERO), ..QueryLimits::default() };
        queries.push(plain[2].clone().with_limits(zero));

        let mut per_jobs = Vec::new();
        for jobs in [1usize, 2, 8] {
            // Installing resets the visit counters: every run faults afresh.
            faultplane::install(&format!("query.{healthy}@1=panic")).unwrap();
            let batch = BatchConfig { tracer: config.clone(), jobs, ..BatchConfig::default() };
            let (results, stats) =
                solve_queries_batch(&fx.program, &callees, &fx.client, &queries, &batch);
            faultplane::clear();
            assert_eq!(results.len(), queries.len());
            assert_eq!(stats.engine_faults, 1, "jobs={jobs}");
            assert_eq!(stats.deadline_exceeded, 1, "jobs={jobs}");
            assert_eq!(stats.resumed, 0);

            // Healthy queries are bit-identical to the fault-free baseline.
            for (i, (r, b)) in results.iter().zip(&baseline).enumerate() {
                assert_eq!(key(r), key(b), "healthy query {i} diverged under jobs={jobs}");
            }
            // The faulted queries resolved as their injected failures.
            let seam = format!("query.{healthy}");
            assert_eq!(results[healthy].outcome, injected(&seam), "jobs={jobs}");
            assert_eq!(
                results[healthy + 1].outcome,
                Outcome::Unresolved(Unresolved::DeadlineExceeded),
                "jobs={jobs}"
            );
            per_jobs.push(results.iter().map(key).collect::<Vec<_>>());
        }
        // Panic payloads and zero deadlines are schedule-independent, so
        // the whole vector agrees across job counts.
        assert_eq!(per_jobs[0], per_jobs[1]);
        assert_eq!(per_jobs[0], per_jobs[2]);

        // Sanity: the baseline itself resolved decisively.
        assert!(matches!(baseline[0].outcome, Outcome::Proven { .. }));
        assert!(matches!(baseline[3].outcome, Outcome::Impossible));
    });
}

#[test]
fn transfer_panic_inside_forward_cache_faults_every_query_without_deadlock() {
    in_own_process("transfer_panic_inside_forward_cache_faults_every_query_without_deadlock", || {
        let fx = Fixture::new(SRC);
        let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
        let queries = fx.queries();
        for jobs in [1usize, 4] {
            // A panic at every fill; the slot guard re-opens each slot, so
            // no waiter deadlocks.
            faultplane::install("cache.slot_fill=panic").unwrap();
            let batch = BatchConfig { jobs, ..BatchConfig::default() };
            let (results, stats) =
                solve_queries_batch(&fx.program, &callees, &fx.client, &queries, &batch);
            faultplane::clear();
            assert_eq!(stats.engine_faults, results.len(), "jobs={jobs}");
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.outcome, injected("cache.slot_fill"), "query {i}, jobs={jobs}");
            }
        }
    });
}

#[test]
fn stalling_client_hits_the_query_deadline() {
    in_own_process("stalling_client_hits_the_query_deadline", || {
        let fx = Fixture::new(SRC);
        let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
        let limits =
            QueryLimits { timeout: Some(Duration::from_millis(25)), ..QueryLimits::default() };
        let q = fx.queries()[0].clone().with_limits(limits);
        faultplane::install("query.0=stall:1000").unwrap();
        let started = Instant::now();
        let r = solve_query(&fx.program, &callees, &fx.client, &q, &TracerConfig::default());
        let elapsed = started.elapsed();
        faultplane::clear();
        assert_eq!(r.outcome, Outcome::Unresolved(Unresolved::DeadlineExceeded), "{r:?}");
        assert!(elapsed < Duration::from_millis(1000), "the stall ran out ({elapsed:?})");
    });
}

#[test]
fn unsound_wp_is_reported_as_meta_failure() {
    let fx = Fixture::new(SRC);
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let q = fx.queries()[0].clone();
    let broken = BreakWp::for_query(&fx.client, &q);
    let r = solve_query(&fx.program, &callees, &broken, &q, &TracerConfig::default());
    let Outcome::Unresolved(Unresolved::MetaFailure(msg)) = &r.outcome else {
        panic!("expected MetaFailure, got {:?}", r.outcome);
    };
    assert!(msg.contains("membership invariant"), "{msg}");
}

#[test]
fn starved_queries_resolve_too_big_in_a_batch() {
    let fx = Fixture::new(SRC);
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    // Every query starts with a 1-fact budget: its first forward run is
    // TooBig at any job count.
    let starved: Vec<_> = fx
        .queries()
        .into_iter()
        .map(|q| q.with_limits(QueryLimits { timeout: None, max_facts: Some(1), mem_budget: None }))
        .collect();
    for jobs in [1usize, 4] {
        let cfg = BatchConfig { jobs, ..BatchConfig::default() };
        let (broke, _) = solve_queries_batch(&fx.program, &callees, &fx.client, &starved, &cfg);
        assert!(
            broke.iter().all(|r| r.outcome == Outcome::Unresolved(Unresolved::AnalysisTooBig)),
            "jobs={jobs}"
        );
    }
}

#[test]
fn checkpoint_resume_skips_finished_queries_and_survives_torn_tails() {
    let fx = Fixture::new(SRC);
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let queries = fx.queries();
    let batch = BatchConfig { jobs: 2, ..BatchConfig::default() };
    let path = std::env::temp_dir()
        .join(format!("pda-resilience-ckpt-{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();

    let (first, stats) = solve_queries_batch_checkpointed(
        &fx.program, &callees, &fx.client, &queries, &batch, &path,
    )
    .unwrap();
    assert_eq!(stats.resumed, 0);

    // A full rerun restores everything from the file and solves nothing.
    let (second, stats) = solve_queries_batch_checkpointed(
        &fx.program, &callees, &fx.client, &queries, &batch, &path,
    )
    .unwrap();
    assert_eq!(stats.resumed, queries.len());
    assert_eq!(stats.cache.lookups(), 0, "resumed queries must not run");
    assert_eq!(first, second, "restored results must round-trip exactly");

    // Simulate a crash: keep the header and the first two records, plus a
    // torn half-written record. Resume re-solves only the missing two.
    let text = std::fs::read_to_string(&path).unwrap();
    let keep: Vec<&str> = text.lines().take(3).collect();
    std::fs::write(&path, format!("{}\n{{\"i\":3,\"outc", keep.join("\n"))).unwrap();
    let (third, stats) = solve_queries_batch_checkpointed(
        &fx.program, &callees, &fx.client, &queries, &batch, &path,
    )
    .unwrap();
    assert_eq!(stats.resumed, 2);
    for (a, b) in first.iter().zip(&third) {
        assert_eq!(key(a), key(b));
    }

    // A checkpoint for a different batch is refused outright.
    let err = solve_queries_batch_checkpointed(
        &fx.program, &callees, &fx.client, &queries[..2], &batch, &path,
    )
    .unwrap_err();
    assert!(err.to_string().contains("mismatch"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// Byte-offset truncation torture: a valid v2 checkpoint truncated at
/// *every* byte offset must never panic the loader, never fabricate or
/// corrupt a record, and must recover every record whose line survived
/// the cut completely — the exact durability contract a `kill -9`
/// mid-write relies on.
#[test]
fn checkpoint_truncated_at_every_byte_offset_recovers_the_complete_prefix() {
    let fx = Fixture::new(SRC);
    let callees = |c: pda_lang::CallId| fx.pa.callees(c).to_vec();
    let queries = fx.queries();
    let batch = BatchConfig { jobs: 1, ..BatchConfig::default() };
    let path = std::env::temp_dir()
        .join(format!("pda-resilience-trunc-src-{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    solve_queries_batch_checkpointed(&fx.program, &callees, &fx.client, &queries, &batch, &path)
        .unwrap();

    let bytes = std::fs::read(&path).unwrap();
    let text = String::from_utf8(bytes.clone()).unwrap();
    let full = load_checkpoint::<pda_util::BitSet>(&path, queries.len()).unwrap();
    assert_eq!(full.len(), queries.len(), "the untruncated journal holds every record");

    // Byte offset just past each line's newline, paired with the query
    // index its record carries (the header has no index).
    let mut header_end = 0;
    let mut record_ends: Vec<(usize, usize)> = Vec::new();
    let mut pos = 0;
    for (j, line) in text.split_inclusive('\n').enumerate() {
        pos += line.len();
        if j == 0 {
            header_end = pos;
            continue;
        }
        let idx: usize = pda_util::json::parse_json_line(line.trim_end())
            .and_then(|f| f.get("i").and_then(|v| v.parse().ok()))
            .expect("every full record line carries its index");
        record_ends.push((pos, idx));
    }

    let trunc = std::env::temp_dir()
        .join(format!("pda-resilience-trunc-{}.jsonl", std::process::id()));
    for t in 0..=bytes.len() {
        std::fs::write(&trunc, &bytes[..t]).unwrap();
        // Must never panic, whatever the offset.
        match load_checkpoint::<pda_util::BitSet>(&trunc, queries.len()) {
            Ok(restored) => {
                // Exactly the complete prefix: nothing fully written is
                // lost, and nothing is invented or altered.
                for &(end, idx) in &record_ends {
                    if end <= t {
                        assert!(
                            restored.contains_key(&idx),
                            "offset {t}: completely-written record {idx} was lost"
                        );
                    }
                }
                for (idx, r) in &restored {
                    assert_eq!(r, &full[idx], "offset {t}: record {idx} was corrupted");
                }
            }
            // Only an incomplete header may make the file unusable —
            // then nothing was durable yet.
            Err(e) => assert!(
                t < header_end,
                "offset {t}: a valid header plus a torn tail must load, got: {e}"
            ),
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&trunc).ok();
}

