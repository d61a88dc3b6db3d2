//! Determinism of the benchmark: two runs on a small seed give identical
//! verdicts and identical effort counts, the replay does the work
//! production counted, and a held-out seed runs clean.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pda_perfbench::workload::Workload;
use pda_perfbench::{execute, Options, Outcome};

/// Programs per draw: small enough for a test, large enough to pose
/// queries of every verdict kind.
const PROGRAMS: usize = 6;

fn run(wl: &Workload, seed: u64, trace: bool) -> Outcome {
    let opts = Options {
        seed,
        seconds: 0.0,
        trace,
        programs: Some(PROGRAMS),
        rounds: Some(1),
        write_files: false,
    };
    let out = execute(wl, &opts).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
    assert!(out.correct, "{} seed {seed}: {:?}", wl.name, out.errors);
    out
}

fn count(out: &Outcome, name: &str) -> u64 {
    out.counts
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no count {name}"))
        .1
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn two_traced_runs_agree_exactly() {
    for wl in Workload::all() {
        let a = run(&wl, 3, true);
        let b = run(&wl, 3, true);
        assert_eq!(a.verdicts, b.verdicts, "{}", wl.name);
        for name in [
            "core.iterations",
            "dataflow.facts",
            "dataflow.forward_runs",
            "meta.cubes_built",
            "solver.nodes",
            "core.forward_runs_distinct",
        ] {
            assert_eq!(count(&a, name), count(&b, name), "{} {name}", wl.name);
        }
        for out in [&a, &b] {
            let hits = count(out, "core.cache_hits");
            let misses = count(out, "core.cache_misses");
            if wl.jobs > 1 {
                // Which worker misses depends on the schedule; the sum
                // does not: every iteration looks the cache up once.
                assert_eq!(hits + misses, count(out, "core.iterations"), "{}", wl.name);
            } else {
                assert_eq!(hits + misses, 0, "{}: lone queries use no cache", wl.name);
            }
        }
    }
}

#[test]
fn replay_accounts_for_production_work() {
    for wl in Workload::all() {
        let out = run(&wl, 4, true);
        // Effort the replay and production count independently: one
        // forward lookup per iteration, one backward pass per
        // counterexample.
        let iterations = count(&out, "core.iterations");
        assert_eq!(
            count(&out, "production.iterations"),
            iterations,
            "{}",
            wl.name
        );
        assert_eq!(
            count(&out, "production.forward_spans"),
            iterations,
            "{}",
            wl.name
        );
        assert_eq!(
            count(&out, "production.backward_spans"),
            count(&out, "dataflow.traces"),
            "{}",
            wl.name
        );
        let runs = count(&out, "dataflow.forward_runs");
        if wl.jobs > 1 {
            // Every distinct abstraction misses the production cache once;
            // a worker waiting on a sibling's run misses as well.
            assert_eq!(
                count(&out, "core.forward_runs_distinct"),
                runs,
                "{}",
                wl.name
            );
            assert!(count(&out, "core.cache_misses") >= runs, "{}", wl.name);
            assert!(runs < iterations, "{}: the batch shares no run", wl.name);
        } else {
            assert_eq!(runs, iterations, "{}", wl.name);
        }
        // The residual is defined so the layer self times add up to the
        // production time to verdict.
        let parts: f64 = [
            "dataflow.forward_ms",
            "dataflow.witness_ms",
            "meta.backward_ms",
            "solver.ms",
            "core.self_ms",
        ]
        .iter()
        .map(|n| metric(&out, n))
        .sum();
        let solve = metric(&out, "core.solve_ms");
        assert!(
            (parts - solve).abs() <= 1e-9 * solve.max(1.0),
            "{}: {parts} vs {solve}",
            wl.name
        );
        assert_eq!(metric(&out, "core.queries") as usize, out.attempted);
    }
}

#[test]
fn untraced_run_verdicts_match_traced_run() {
    for wl in Workload::all() {
        let plain = run(&wl, 5, false);
        let traced = run(&wl, 5, true);
        assert_eq!(plain.verdicts, traced.verdicts, "{}", wl.name);
        assert_eq!(plain.metrics.len(), 8);
        assert_eq!(metric(&plain, "verdict_ratio"), 1.0);
    }
}

#[test]
fn held_out_seed_runs_clean() {
    for wl in Workload::all() {
        let out = run(&wl, 0x00c0_ffee, false);
        assert_eq!(out.failed, 0, "{}", wl.name);
        assert!(out.attempted > 0);
        assert_eq!(metric(&out, "decided_ratio"), 1.0);
    }
}
