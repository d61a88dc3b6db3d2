//! Batch-scheduler driver: wall-clock comparison of the tree vs interned
//! meta-kernels with one worker, plus the batch scheduler with `N`
//! workers. Every phase shares forward runs through the batch's cache.
//!
//! Loads the first suite benchmark with at least 16 thread-escape queries
//! (hedc with the default suite), and runs its query batch three ways:
//!
//! 1. `--jobs 1` with the **tree** meta-kernel (the reference semantics);
//! 2. `--jobs 1` with the **interned** meta-kernel (the production hot
//!    path) — every per-query outcome must be bit-identical to run 1, and
//!    the backward/meta phase is expected to be ≥ 1.5x faster;
//! 3. `--jobs N` with the interned kernel.
//!
//! Unless running in deadline mode, the run is summarized into a
//! machine-readable `BENCH_batch.json` (path override:
//! `PDA_BENCH_OUT`) so later PRs have a perf trajectory to compare
//! against, and per-query `outcome N: ...` lines are printed for the CI
//! perf smoke to diff against the checked-in expected summary.
//!
//! Environment: `PDA_JOBS` sets the parallel worker count (default 8);
//! `PDA_META_JOBS` sets the in-query meta-kernel data parallelism for
//! every phase (default 1; outcomes and traces are bit-identical at any
//! value); `PDA_MAX_QUERIES` caps the batch size (default 32, floor 16);
//! `PDA_MEM_BUDGET` sets a per-query memory budget in estimated bytes
//! (`k`/`m`/`g` suffixes accepted) — the governor degrades deterministically
//! under pressure, so outcome lines stay diffable; `PDA_POOL_BUDGET` sets
//! the shared batch pool for the parallel phase (admission control);
//! `PDA_DEADLINE_MS` sets a per-query wall-clock deadline — under a
//! deadline, queries may legitimately resolve as `DeadlineExceeded` and
//! the equality/cache/JSON steps are skipped (wall-clock aborts are
//! schedule-dependent by nature); the run still exercises the whole
//! resilient batch path and reports the resilience counters.
//! `PDA_FAULT_PLAN` arms the deterministic fault-injection plane for the
//! whole run (same grammar as `--fault-plan`; see `pda_util::faultplane`),
//! and `PDA_RETRY_FAULTS=N` gives every phase a deterministic retry
//! ladder so injected transient faults are absorbed and the outcome
//! lines stay diffable under chaos.
//! `PDA_TRACE=prefix` additionally streams the structured JSONL event
//! trace of the interned runs to `<prefix>_j1.jsonl` / `<prefix>_jN.jsonl`
//! and self-validates it: every line must parse, the two files must be
//! byte-identical (the trace is job-count invariant), and the event
//! counts must match the run's own counters (skipped in deadline mode).
//!
//! A final viable-engine phase (skipped in deadline mode) re-runs the
//! sequential interned batch under both constraint engines — DPLL
//! branch-and-bound and the resident ROBDD — asserts byte-identical
//! per-query outcomes, and reports the solver-phase wall split
//! (min-of-`PDA_REPEATS` runs per engine, default 3) in the summary and
//! `BENCH_batch.json`.

use pda_escape::EscapeClient;
use pda_suite::Benchmark;
use pda_tracer::{
    solve_queries_batch, solve_queries_batch_traced, BatchConfig, BatchStats, MetaKernel,
    MetaStats, Outcome, QueryResult, RetryPolicy, ViableEngine,
};
use pda_util::{BitSet, Counter, Event, FileSink, TraceSink};

fn outcome_key(r: &QueryResult<BitSet>) -> String {
    let verdict = match &r.outcome {
        Outcome::Proven { param, cost } => format!("proven |p|={cost} {param}"),
        Outcome::Impossible => "impossible".into(),
        Outcome::Unresolved(u) => format!("unresolved {u:?}"),
    };
    format!("{verdict} after {} iterations", r.iterations)
}

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
    let retry: Option<RetryPolicy> = std::env::var("PDA_RETRY_FAULTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .map(RetryPolicy::deterministic);
    let jobs: usize = std::env::var("PDA_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
        .max(2);
    let max_queries: usize = std::env::var("PDA_MAX_QUERIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
        .max(16);
    let deadline_ms: Option<u64> =
        std::env::var("PDA_DEADLINE_MS").ok().and_then(|v| v.parse().ok());

    // Smallest suite benchmark whose thread-escape batch has >=16 queries.
    // The generator is fully seeded, so the workload is fixed across runs
    // and machines.
    let (seed, bench, accesses) = pda_suite::suite()
        .into_iter()
        .map(|cfg| (cfg.seed, Benchmark::load(cfg)))
        .find_map(|(seed, b)| {
            let accesses = EscapeClient::accesses(&b.program, b.app_methods());
            (accesses.len() >= 16).then_some((seed, b, accesses))
        })
        .expect("some suite benchmark has >=16 escape queries");
    let client = EscapeClient::new(&bench.program);
    let queries: Vec<_> = accesses
        .iter()
        .take(max_queries)
        .map(|&(point, var)| client.access_query(point, var))
        .collect();
    let callees = bench.callees();

    println!(
        "benchmark {} (seed {seed}) — {} thread-escape queries\n",
        bench.name,
        queries.len()
    );

    let mem_budget =
        std::env::var("PDA_MEM_BUDGET").ok().and_then(|v| pda_util::parse_bytes(&v));
    let pool_budget =
        std::env::var("PDA_POOL_BUDGET").ok().and_then(|v| pda_util::parse_bytes(&v));
    let meta_jobs: usize = std::env::var("PDA_META_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    // `PDA_VIABLE_ENGINE` selects the constraint engine for the main
    // phases (outcomes are bit-identical either way); the final
    // engine-split phase always runs both explicitly.
    let viable_engine = std::env::var("PDA_VIABLE_ENGINE")
        .ok()
        .and_then(|v| ViableEngine::parse(&v).ok())
        .unwrap_or_default();
    let tracer = |kernel: MetaKernel| pda_tracer::TracerConfig {
        timeout: deadline_ms.map(std::time::Duration::from_millis),
        kernel,
        mem_budget,
        meta_jobs,
        viable_engine,
        ..pda_tracer::TracerConfig::default()
    };

    // Phase 1: one worker, tree kernel (the oracle).
    let tree_cfg = BatchConfig {
        jobs: 1,
        tracer: tracer(MetaKernel::Tree),
        retry: retry.clone(),
        ..BatchConfig::default()
    };
    let (tree, tree_stats) =
        solve_queries_batch(&bench.program, &callees, &client, &queries, &tree_cfg);
    println!(
        "jobs=1 kernel=tree      wall {:>9.1} ms   {}",
        tree_stats.wall_micros as f64 / 1e3,
        tree_stats
    );

    // Structured-trace sinks for the interned runs. The trace carries no
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

    // Phase 2: one worker, interned kernel — the same work, packed.
    let int_cfg = BatchConfig {
        jobs: 1,
        tracer: tracer(MetaKernel::Interned),
        retry: retry.clone(),
        ..BatchConfig::default()
    };
    let (seq, seq_stats) = solve_queries_batch_traced(
        &bench.program,
        &callees,
        &client,
        &queries,
        &int_cfg,
        seq_sink.as_ref().map(|s| s as &dyn TraceSink),
    );
    println!(
        "jobs=1 kernel=interned  wall {:>9.1} ms   {}",
        seq_stats.wall_micros as f64 / 1e3,
        seq_stats
    );

    // Phase 3: `jobs` workers, interned kernel.
    let par_cfg = BatchConfig {
        jobs,
        tracer: tracer(MetaKernel::Interned),
        pool_budget,
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
    println!(
        "jobs={jobs} kernel=interned  wall {:>9.1} ms   {}",
        par_stats.wall_micros as f64 / 1e3,
        par_stats
    );

    let meta_speedup = tree_stats.meta.micros as f64 / seq_stats.meta.micros.max(1) as f64;
    let par_speedup = seq_stats.wall_micros as f64 / par_stats.wall_micros.max(1) as f64;
    println!(
        "\nbackward/meta phase: {:.1} ms tree vs {:.1} ms interned — {meta_speedup:.2}x",
        tree_stats.meta.micros as f64 / 1e3,
        seq_stats.meta.micros as f64 / 1e3
    );
    println!("parallel speedup (jobs={jobs} vs jobs=1): {par_speedup:.2}x");
    println!(
        "forward runs: {} looked up, {} executed with the shared cache ({} saved, hit rate {:.1}%)",
        seq.iter().map(|r| r.iterations).sum::<usize>(),
        par_stats.cache.misses,
        par_stats.cache.hits,
        par_stats.cache.hit_rate() * 100.0
    );

    println!(
        "resilience: deadline_exceeded={} engine_faults={} escalations={} degradations={} shed={} \
         retries={} faults_injected={} io_faults={}",
        tree_stats.deadline_exceeded + seq_stats.deadline_exceeded + par_stats.deadline_exceeded,
        tree_stats.engine_faults + seq_stats.engine_faults + par_stats.engine_faults,
        tree_stats.escalations + seq_stats.escalations + par_stats.escalations,
        tree_stats.degradations + seq_stats.degradations + par_stats.degradations,
        tree_stats.shed + seq_stats.shed + par_stats.shed,
        tree_stats.retries + seq_stats.retries + par_stats.retries,
        tree_stats.faults_injected + seq_stats.faults_injected + par_stats.faults_injected,
        tree_stats.io_faults + seq_stats.io_faults + par_stats.io_faults,
    );

    if deadline_ms.is_some() {
        // Wall-clock aborts depend on machine speed and scheduling, so
        // per-query equality across kernels/job counts is not a meaningful
        // check here; completing the whole batch without a crash is.
        println!("deadline mode: skipping equality, cache-hit, and JSON steps");
        return;
    }

    // The stable per-query summary the CI perf smoke diffs against its
    // checked-in copy.
    for (i, r) in seq.iter().enumerate() {
        println!("outcome {i}: {}", outcome_key(r));
    }

    let kernels_identical = tree
        .iter()
        .zip(&seq)
        .all(|(a, b)| outcome_key(a) == outcome_key(b));
    println!("tree/interned outcomes identical: {kernels_identical}");
    assert!(kernels_identical, "interned kernel diverged from the tree oracle");
    let par_identical = seq
        .iter()
        .zip(&par)
        .all(|(a, b)| outcome_key(a) == outcome_key(b));
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
        let resolved =
            events.iter().filter(|e| matches!(e, Event::QueryResolved { .. })).count();
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

    // Viable-engine split: the same sequential interned batch under both
    // constraint engines. Outcomes must be byte-identical (the ROBDD's
    // min-cost extraction shares DPLL's canonical tie-break); the
    // solver-phase wall is taken as the min over `PDA_REPEATS` runs per
    // engine, because a single solver phase is microseconds-scale and
    // scheduling noise on a shared box is one-sided.
    let repeats: usize = std::env::var("PDA_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let engine_run = |engine: ViableEngine| -> (Vec<QueryResult<BitSet>>, u64) {
        let cfg = BatchConfig {
            jobs: 1,
            tracer: pda_tracer::TracerConfig {
                viable_engine: engine,
                ..tracer(MetaKernel::Interned)
            },
            retry: retry.clone(),
            ..BatchConfig::default()
        };
        let (mut results, stats) =
            solve_queries_batch(&bench.program, &callees, &client, &queries, &cfg);
        let mut solver_micros = stats.obs.get(Counter::SolverMicros);
        for _ in 1..repeats {
            let (next, next_stats) =
                solve_queries_batch(&bench.program, &callees, &client, &queries, &cfg);
            let micros = next_stats.obs.get(Counter::SolverMicros);
            if micros < solver_micros {
                solver_micros = micros;
                results = next;
            }
        }
        (results, solver_micros)
    };
    let (dpll, dpll_solver_micros) = engine_run(ViableEngine::Dpll);
    let (bdd, bdd_solver_micros) = engine_run(ViableEngine::Bdd);
    let engines_identical = dpll.len() == bdd.len()
        && dpll.iter().zip(&bdd).all(|(a, b)| outcome_key(a) == outcome_key(b))
        && seq.iter().zip(&dpll).all(|(a, b)| outcome_key(a) == outcome_key(b));
    println!(
        "solver phase (min of {repeats}): {dpll_solver_micros} µs dpll vs \
         {bdd_solver_micros} µs bdd",
    );
    println!("viable-engine outcomes identical: {engines_identical}");
    assert!(engines_identical, "BDD viable engine diverged from the DPLL oracle");

    let out_path = std::env::var("PDA_BENCH_OUT").unwrap_or_else(|_| "BENCH_batch.json".into());
    let json = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"seed\": {seed},\n  \"queries\": {},\n  \"jobs\": {jobs},\n  \
         \"tree\": {},\n  \"interned\": {},\n  \"parallel\": {},\n  \
         \"meta_speedup\": {meta_speedup:.3},\n  \"parallel_speedup\": {par_speedup:.3},\n  \
         \"viable\": {{\"dpll_solver_micros\": {dpll_solver_micros}, \
         \"bdd_solver_micros\": {bdd_solver_micros}, \"outcomes_identical\": {engines_identical}}},\n  \
         \"outcomes_identical\": {}\n}}\n",
        bench.name,
        queries.len(),
        run_json(&tree, &tree_stats),
        run_json(&seq, &seq_stats),
        run_json(&par, &par_stats),
        kernels_identical && par_identical,
    );
    std::fs::write(&out_path, &json).expect("write BENCH_batch.json");
    println!("\nwrote {out_path}");
}
