//! Batch-scheduler driver: the batch scheduler with one worker and with
//! `N` workers, followed by a per-iteration oracle replay. Every phase
//! shares forward runs through the batch's cache.
//!
//! Loads the first suite benchmark with at least 16 thread-escape queries
//! (hedc with the default suite), and runs its query batch three ways:
//!
//! 1. `--jobs 1`;
//! 2. `--jobs N` — every per-query outcome must be identical to run 1;
//! 3. the oracle phase: each query solved alone with its iterations
//!    logged, and every iteration replayed through the reference engines
//!    (DPLL for the viable-set choice, the tree kernel for the backward
//!    meta-analysis) by [`pda_bench::oracle::check_iterations`]. It runs
//!    last, so it neither consumes nor trips a fault plan's armed hits.
//!
//! Unless running in deadline mode, the run is summarized into a
//! machine-readable `BENCH_batch.json` (path override:
//! `PDA_BENCH_OUT`; each phase runs once, recorded as `repeats`) so later
//! PRs have a perf trajectory to compare against, and per-query
//! `outcome N: ...` lines are printed for the CI perf smoke to diff
//! against the checked-in expected summary. The two engine identity lines
//! both report the oracle replay, which checks the two reference engines
//! together.
//!
//! Environment: `PDA_JOBS` sets the parallel worker count (default 8);
//! `PDA_MAX_QUERIES` caps the batch size (default 32, floor 16);
//! `PDA_MEM_BUDGET` sets a per-query memory cap in estimated bytes
//! (`k`/`m`/`g` suffixes accepted) — a query whose retained state
//! exceeds it at a refinement boundary resolves `MemBudgetExceeded`, and
//! the estimate is deterministic, so outcome lines stay diffable;
//! `PDA_DEADLINE_MS` sets a per-query wall-clock deadline — under a
//! deadline, queries may legitimately resolve as `DeadlineExceeded` and
//! the equality/cache/oracle/JSON steps are skipped (wall-clock aborts
//! are schedule-dependent by nature); the run still exercises the whole
//! resilient batch path and reports the resilience counters.
//! `PDA_FAULT_PLAN` arms the deterministic fault-injection plane for the
//! whole run (same grammar as `--fault-plan`; see `pda_util::faultplane`),
//! and `PDA_RETRY_FAULTS=N` gives every batch phase a deterministic retry
//! ladder so injected transient faults are absorbed and the outcome
//! lines stay diffable under chaos.
//! `PDA_TRACE=prefix` additionally streams the structured JSONL event
//! trace of the two batch runs to `<prefix>_j1.jsonl` / `<prefix>_jN.jsonl`
//! and self-validates it: every line must parse, the two files must be
//! byte-identical (the trace is job-count invariant), and the event
//! counts must match the run's own counters (skipped in deadline mode).

use pda_bench::oracle::check_iterations;
use pda_bench::{env_usize, escape_batch, outcome_key};
use pda_escape::EscapeClient;
use pda_tracer::{
    default_jobs, solve_queries_batch_traced, solve_query_logged, BatchConfig, BatchStats,
    MetaStats, QueryResult, RetryPolicy,
};
use pda_util::{BitSet, Event, FileSink, TraceSink};
use std::time::Instant;

fn meta_json(m: &MetaStats) -> String {
    format!(
        "{{\"cubes_built\":{},\"subsumption_checks\":{},\"subsumption_fast_rejects\":{},\
         \"wp_hits\":{},\"wp_misses\":{},\"approx_drops\":{},\"micros\":{}}}",
        m.cubes_built,
        m.subsumption_checks,
        m.subsumption_fast_rejects,
        m.wp_hits,
        m.wp_misses,
        m.approx_drops,
        m.micros
    )
}

fn workers_json(stats: &BatchStats) -> String {
    let entries: Vec<String> = stats
        .worker_meta
        .iter()
        .map(|w| {
            format!(
                "{{\"queries\":{},\"meta_micros\":{},\"busy_micros\":{},\
                 \"lock_wait_micros\":{}}}",
                w.queries, w.meta_micros, w.busy_micros, w.lock_wait_micros
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn run_json(results: &[QueryResult<BitSet>], stats: &BatchStats) -> String {
    format!(
        "{{\"wall_micros\":{},\"iterations\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"deadline_exceeded\":{},\"engine_faults\":{},\"contention_micros\":{},\
         \"meta\":{},\"workers\":{}}}",
        stats.wall_micros,
        results.iter().map(|r| r.iterations).sum::<usize>(),
        stats.cache.hits,
        stats.cache.misses,
        stats.deadline_exceeded,
        stats.engine_faults,
        stats.contention_micros,
        meta_json(&stats.meta),
        workers_json(stats)
    )
}

fn main() {
    // Arm the deterministic fault plane before any phase runs, so a
    // chaos smoke can inject panics/stalls/IO errors at exact hit
    // counts and still diff the outcome lines.
    match pda_util::faultplane::install_from_env() {
        Ok(false) => {}
        Ok(true) => println!("fault plane armed from PDA_FAULT_PLAN"),
        Err(e) => {
            eprintln!("PDA_FAULT_PLAN: {e}");
            std::process::exit(2);
        }
    }
    let retry: Option<RetryPolicy> = env_usize("PDA_RETRY_FAULTS")
        .and_then(|n| u32::try_from(n).ok())
        .filter(|&n| n > 0)
        .map(RetryPolicy::deterministic);
    let jobs = env_usize("PDA_JOBS").unwrap_or(8).max(2);
    let deadline_ms = env_usize("PDA_DEADLINE_MS").map(|ms| ms as u64);

    let (seed, bench, accesses) = escape_batch();
    let client = EscapeClient::new(&bench.program);
    let queries: Vec<_> =
        accesses.iter().map(|&(point, var)| client.access_query(point, var)).collect();
    let callees = bench.callees();

    println!(
        "benchmark {} (seed {seed}) — {} thread-escape queries\n",
        bench.name,
        queries.len()
    );

    let mem_budget =
        std::env::var("PDA_MEM_BUDGET").ok().and_then(|v| pda_util::parse_bytes(&v));
    let tracer = pda_tracer::TracerConfig {
        timeout: deadline_ms.map(std::time::Duration::from_millis),
        mem_budget,
        ..pda_tracer::TracerConfig::default()
    };

    // Structured-trace sinks for the two batch runs. The trace carries no
    // wall-clock data, so tracing does not perturb the timed phases
    // beyond buffer pushes; with `PDA_TRACE` unset both sinks are `None`
    // and the event paths compile to untraced no-ops.
    let trace_prefix = std::env::var("PDA_TRACE").ok().filter(|_| deadline_ms.is_none());
    let mk_sink = |suffix: &str| {
        trace_prefix.as_ref().map(|p| {
            FileSink::create(std::path::Path::new(&format!("{p}_{suffix}.jsonl")))
                .expect("create trace file")
        })
    };
    let (seq_sink, par_sink) = (mk_sink("j1"), mk_sink("jN"));

    // Phase 1: one worker.
    let seq_cfg = BatchConfig {
        jobs: 1,
        tracer: tracer.clone(),
        retry: retry.clone(),
        ..BatchConfig::default()
    };
    let (seq, seq_stats) = solve_queries_batch_traced(
        &bench.program,
        &callees,
        &client,
        &queries,
        &seq_cfg,
        seq_sink.as_ref().map(|s| s as &dyn TraceSink),
    );
    println!("jobs=1  wall {:>9.1} ms   {}", seq_stats.wall_micros as f64 / 1e3, seq_stats);

    // Phase 2: `jobs` workers.
    let par_cfg = BatchConfig {
        jobs,
        tracer: tracer.clone(),
        retry: retry.clone(),
        ..BatchConfig::default()
    };
    let (par, par_stats) = solve_queries_batch_traced(
        &bench.program,
        &callees,
        &client,
        &queries,
        &par_cfg,
        par_sink.as_ref().map(|s| s as &dyn TraceSink),
    );
    println!("jobs={jobs}  wall {:>9.1} ms   {}", par_stats.wall_micros as f64 / 1e3, par_stats);

    let par_speedup = seq_stats.wall_micros as f64 / par_stats.wall_micros.max(1) as f64;
    println!("\nparallel speedup (jobs={jobs} vs jobs=1): {par_speedup:.2}x");
    println!(
        "forward runs: {} looked up, {} executed with the shared cache ({} saved, hit rate {:.1}%)",
        seq.iter().map(|r| r.iterations).sum::<usize>(),
        par_stats.cache.misses,
        par_stats.cache.hits,
        par_stats.cache.hit_rate() * 100.0
    );

    println!(
        "resilience: deadline_exceeded={} engine_faults={} retries={} \
         faults_injected={} io_faults={}",
        seq_stats.deadline_exceeded + par_stats.deadline_exceeded,
        seq_stats.engine_faults + par_stats.engine_faults,
        seq_stats.retries + par_stats.retries,
        seq_stats.faults_injected + par_stats.faults_injected,
        seq_stats.io_faults + par_stats.io_faults,
    );

    if deadline_ms.is_some() {
        // Wall-clock aborts depend on machine speed and scheduling, so
        // per-query equality across job counts is not a meaningful
        // check here; completing the whole batch without a crash is.
        println!("deadline mode: skipping equality, cache-hit, oracle, and JSON steps");
        return;
    }

    // Oracle phase (last, see the module docs): every query solved
    // alone under the same configuration, its outcome compared with the
    // sequential batch's, and every iteration replayed through DPLL and
    // the tree kernel.
    let t0 = Instant::now();
    let mut checked = 0;
    let mut oracle_ok = true;
    for (i, query) in queries.iter().enumerate() {
        let (r, log) = solve_query_logged(&bench.program, &callees, &client, query, &tracer);
        match check_iterations(&bench.program, &callees, &client, query, &tracer.beam, &r, &log) {
            Ok(n) => checked += n,
            Err(e) => {
                println!("oracle: query {i}: {e}");
                oracle_ok = false;
            }
        }
        if outcome_key(&r) != outcome_key(&seq[i]) {
            println!("oracle: query {i}: solved alone: {}", outcome_key(&r));
            oracle_ok = false;
        }
    }
    println!(
        "oracle replay: {checked} iterations checked against DPLL and the tree kernel in {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // The stable per-query summary the CI perf smoke diffs against its
    // checked-in copy.
    for (i, r) in seq.iter().enumerate() {
        println!("outcome {i}: {}", outcome_key(r));
    }
    println!("tree/interned outcomes identical: {oracle_ok}");
    let par_identical = seq.iter().zip(&par).all(|(a, b)| outcome_key(a) == outcome_key(b));
    println!("per-query outcomes identical across job counts: {par_identical}");
    assert!(par_identical, "batch scheduler diverged from the sequential driver");
    assert!(par_stats.cache.hits > 0, "expected nonzero cache hits");

    // Self-validate the structured trace: strict parse, job-count
    // invariance, and event counts consistent with the run's counters.
    if let Some(prefix) = &trace_prefix {
        drop(seq_sink);
        drop(par_sink);
        let j1 = std::fs::read_to_string(format!("{prefix}_j1.jsonl")).expect("read j1 trace");
        let jn = std::fs::read_to_string(format!("{prefix}_jN.jsonl")).expect("read jN trace");
        let events = pda_util::obs::parse_trace(&j1).expect("every trace line parses");
        assert_eq!(j1, jn, "trace must be byte-identical across job counts");
        let iter_starts =
            events.iter().filter(|e| matches!(e, Event::IterationStart { .. })).count();
        let resolved = events.iter().filter(|e| matches!(e, Event::QueryResolved { .. })).count();
        assert_eq!(
            iter_starts,
            seq.iter().map(|r| r.iterations).sum::<usize>(),
            "one iteration_start per CEGAR iteration"
        );
        assert_eq!(resolved, queries.len(), "one query_resolved per query");
        println!(
            "trace: {} events, {iter_starts} iterations, {resolved} queries, \
             job-count invariant -> {prefix}_j1.jsonl",
            events.len()
        );
    }

    println!("viable-engine outcomes identical: {oracle_ok}");
    assert!(oracle_ok, "a logged iteration diverged from the reference engines");

    let out_path = std::env::var("PDA_BENCH_OUT").unwrap_or_else(|_| "BENCH_batch.json".into());
    let json = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"seed\": {seed},\n  \"queries\": {},\n  \"jobs\": {jobs},\n  \
         \"host_cores\": {},\n  \"repeats\": 1,\n  \
         \"sequential\": {},\n  \"parallel\": {},\n  \
         \"parallel_speedup\": {par_speedup:.3},\n  \"oracle_iterations\": {checked},\n  \
         \"outcomes_identical\": {}\n}}\n",
        bench.name,
        queries.len(),
        default_jobs(),
        run_json(&seq, &seq_stats),
        run_json(&par, &par_stats),
        oracle_ok && par_identical,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_batch.json");
    println!("\nwrote {out_path}");
}
