//! Crash-point torture: enumerate every fault-point seam a seeded
//! checkpointed batch run actually crosses (faultplane `record` mode),
//! then re-run the same workload once per sampled `(seam, hit)` pair
//! with a fault armed at exactly that visit.
//!
//! * **Compute seams** (solver, forward cache, governor, interner) get
//!   a `panic` arm under the deterministic retry ladder: the fault must
//!   fire, be absorbed by per-query panic isolation plus one retry, and
//!   every outcome must stay byte-identical to the fault-free baseline.
//! * **Journal seams** get `ioerr` (and, at the raw write seam,
//!   `shortwrite`) arms on a fresh run: the run must surface a
//!   `CheckpointError` — never a panic — and a clean re-run over
//!   whatever survived on disk must resume to identical outcomes.
//! * **Compaction seams** are tortured on a *resume* run over a
//!   complete journal: a failed compaction must leave every previously
//!   durable record loadable — the crash-safe temp-file + atomic-rename
//!   rewrite can destroy nothing.
//!
//! `batch.worker.*` seams fire on the scheduler thread, outside
//! per-query panic isolation; they are crash-class and are exercised by
//! the CI chaos smoke in a subprocess (`abort` action) instead of here.
//!
//! Everything runs in ONE test function: the fault plane is process
//! state, so legs must not interleave with each other.

use pda_analysis::PointsTo;
use pda_escape::EscapeClient;
use pda_tracer::{
    load_checkpoint, nullcli::NullClient, solve_queries_batch_checkpointed, BatchConfig,
    BatchStats, CheckpointError, QueryResult, RetryPolicy, TracerConfig,
};
use pda_util::{faultplane, BitSet};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

include!("corpus.rs");

const NULL_SRC: &str = r#"
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

/// The governor workload from `tests/governor.rs`: long impossible
/// queries under a starvation budget, walking the whole degradation
/// ladder — the only way to reach the `governor.rung` and
/// `intern.reset` seams.
const GOVERNOR_SRC: &str = r#"
    global g1, g2;
    class C { field f; }
    fn leak(a, b) { var r; if (*) { g1 = a; r = b; } else { r = a; } return r; }
    fn main() {
        var a, b, c, d, e, h, p;
        a = new C; b = new C; c = new C; d = new C; e = new C;
        p = new C;
        h = leak(a, b);
        h = leak(h, c);
        h = leak(h, d);
        if (*) { g2 = e; }
        a.f = b; b.f = c; c.f = d; d.f = e;
        query q0: local p;
        query q1: local a;
        query q2: local e;
        query q3: local h;
    }
"#;
const EXHAUST_BUDGET: u64 = 64 << 10;

/// The deterministic identity of a result vector — everything but wall
/// time and the retry counter (an absorbed injected fault legitimately
/// consumes retries the baseline never needed).
fn keys(results: &[QueryResult<BitSet>]) -> Vec<String> {
    results
        .iter()
        .map(|r| format!("{:?} iters={} esc={} deg={}", r.outcome, r.iterations, r.escalations, r.degradations))
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pda-torture-{}-{name}.jsonl", std::process::id()))
}

/// Sampled 1-based hit ordinals: first, middle, last.
fn sample(count: u64) -> Vec<u64> {
    let mut v = vec![1, count / 2 + 1, count];
    v.sort_unstable();
    v.dedup();
    v
}

type RunResult = Result<(Vec<QueryResult<BitSet>>, BatchStats), CheckpointError>;
type Runner<'a> = dyn Fn(Option<RetryPolicy>, &Path) -> RunResult + 'a;

/// Seams whose visit is scheduling-dependent under parallel runs: their
/// arm may legitimately never fire on a torture re-run, so only outcome
/// equality is asserted, not the firing itself.
const RACY: &[&str] = &["cache.slot_wait"];

/// Records the seams a fresh run and a resume run of `run` cross, then
/// tortures every sampled hit of every seam not yet in `covered` (or in
/// `skip`). Extends `covered` with everything newly seen.
fn torture(name: &str, run: &Runner<'_>, skip: &[&str], covered: &mut BTreeSet<String>) {
    let path = temp_path(name);
    let _ = std::fs::remove_file(&path);

    // Record mode: enumerate the seams, and pin the fault-free baseline.
    faultplane::install("record").unwrap();
    let (baseline, _) = run(None, &path).expect("fault-free baseline");
    let fresh_hits = faultplane::hits();
    faultplane::install("record").unwrap();
    let (resumed, stats) = run(None, &path).expect("fault-free resume baseline");
    let resume_hits = faultplane::hits();
    faultplane::clear();
    assert_eq!(keys(&resumed), keys(&baseline), "[{name}] resume changed outcomes");
    assert_eq!(stats.resumed, baseline.len(), "[{name}] resume re-solved journaled queries");
    assert!(!fresh_hits.is_empty(), "[{name}] record mode saw no seams at all");
    // The complete, compacted journal — the resume legs restart from it.
    let golden = std::fs::read(&path).expect("golden journal");
    let expected = keys(&baseline);

    // Fresh-run legs.
    for (point, count) in &fresh_hits {
        let first_time = covered.insert(point.clone());
        if !first_time || skip.contains(&point.as_str()) {
            continue;
        }
        for h in sample(*count) {
            if point.starts_with("journal.") {
                let actions: &[&str] =
                    if point == "journal.write" { &["ioerr", "shortwrite"] } else { &["ioerr"] };
                for action in actions {
                    let _ = std::fs::remove_file(&path);
                    let before = faultplane::io_faults();
                    faultplane::install(&format!("{point}@{h}={action}")).unwrap();
                    let r = run(None, &path);
                    faultplane::clear();
                    assert!(
                        r.is_err(),
                        "[{name}] {action} at {point}@{h} must surface a CheckpointError"
                    );
                    assert!(
                        faultplane::io_faults() > before,
                        "[{name}] arm {point}@{h}={action} never fired"
                    );
                    // Whatever survived on disk, resuming over it must
                    // never panic and must reproduce the baseline. A
                    // torn *header* (shortwrite on the very first write)
                    // is the one case with nothing durable to save: the
                    // loader rejects the file and a fresh run takes over.
                    let (after, _) = match run(None, &path) {
                        Ok(out) => out,
                        Err(CheckpointError::Mismatch(_)) => {
                            let _ = std::fs::remove_file(&path);
                            run(None, &path).expect("fresh run after discarding torn header")
                        }
                        Err(e) => {
                            panic!("[{name}] journal after {point}@{h}={action} unusable: {e}")
                        }
                    };
                    assert_eq!(
                        keys(&after),
                        expected,
                        "[{name}] outcomes diverged resuming after {action} at {point}@{h}"
                    );
                }
            } else {
                let _ = std::fs::remove_file(&path);
                let before = faultplane::faults_injected();
                faultplane::install(&format!("{point}@{h}=panic")).unwrap();
                let r = run(Some(RetryPolicy::deterministic(2)), &path);
                faultplane::clear();
                let (results, _) = r.unwrap_or_else(|e| {
                    panic!("[{name}] panic at {point}@{h} escaped isolation: {e}")
                });
                if !RACY.contains(&point.as_str()) {
                    assert!(
                        faultplane::faults_injected() > before,
                        "[{name}] arm {point}@{h}=panic never fired"
                    );
                }
                assert_eq!(
                    keys(&results),
                    expected,
                    "[{name}] outcomes diverged with a panic at {point}@{h}"
                );
            }
        }
    }

    // Resume legs: compaction seams, over the complete golden journal.
    for (point, count) in &resume_hits {
        let first_time = covered.insert(point.clone());
        if !first_time || !point.starts_with("journal.") {
            continue;
        }
        for h in sample(*count) {
            std::fs::write(&path, &golden).expect("restore golden journal");
            let before = faultplane::io_faults();
            faultplane::install(&format!("{point}@{h}=ioerr")).unwrap();
            let r = run(None, &path);
            faultplane::clear();
            assert!(r.is_err(), "[{name}] ioerr at {point}@{h} on resume must fail the run");
            assert!(
                faultplane::io_faults() > before,
                "[{name}] resume arm {point}@{h}=ioerr never fired"
            );
            // The crash-safety contract: a failed compaction leaves
            // either the old journal or the finished new one — every
            // durable record is still there.
            let restored = load_checkpoint::<BitSet>(&path, baseline.len())
                .unwrap_or_else(|e| {
                    panic!("[{name}] failed compaction at {point}@{h} corrupted the journal: {e}")
                });
            assert_eq!(
                restored.len(),
                baseline.len(),
                "[{name}] failed compaction at {point}@{h} destroyed durable records"
            );
            let (after, stats) = run(None, &path).expect("clean resume after failed compaction");
            assert_eq!(keys(&after), expected, "[{name}] post-compaction-crash resume diverged");
            assert_eq!(stats.resumed, baseline.len());
        }
    }
    let _ = std::fs::remove_file(&path);
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn every_registered_seam_survives_crash_point_torture() {
    let mut covered: BTreeSet<String> = BTreeSet::new();

    // Workload 1: tiny NullClient batch, jobs=1 — deterministic ordinals
    // for the solver and journal seams.
    let program = pda_lang::parse_program(NULL_SRC).unwrap();
    let pa = PointsTo::analyze(&program);
    let null_client = NullClient::new(&program);
    let null_queries: Vec<_> = program
        .queries
        .iter_enumerated()
        .map(|(q, _)| null_client.query(&program, q))
        .collect();
    let run = |retry: Option<RetryPolicy>, path: &Path| {
        let cfg = BatchConfig { jobs: 1, retry, ..BatchConfig::default() };
        solve_queries_batch_checkpointed(
            &program,
            &|c| pa.callees(c).to_vec(),
            &null_client,
            &null_queries,
            &cfg,
            path,
        )
    };
    torture("null", &run, &[], &mut covered);

    // Workload 2: EscapeClient corpus program, jobs=2 — the parallel
    // scheduler's shared-cache seams. The worker
    // spawn/join seams are crash-class: recorded for coverage, tortured
    // in the CI subprocess smoke.
    let corpus = pda_lang::parse_program(PROGRAMS[0]).unwrap();
    let corpus_pa = PointsTo::analyze(&corpus);
    let escape = EscapeClient::new(&corpus);
    let escape_queries: Vec<_> = corpus
        .queries
        .iter_enumerated()
        .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
        .map(|(q, _)| escape.local_query(&corpus, q))
        .collect();
    let run = |retry: Option<RetryPolicy>, path: &Path| {
        // Two threads even on a one-core host: a lone worker runs inline
        // and crosses no `batch.worker.*` seam.
        let cfg = BatchConfig { jobs: 2, thread_cap: Some(2), retry, ..BatchConfig::default() };
        solve_queries_batch_checkpointed(
            &corpus,
            &|c| corpus_pa.callees(c).to_vec(),
            &escape,
            &escape_queries,
            &cfg,
            path,
        )
    };
    torture("escape-par", &run, &["batch.worker.spawn", "batch.worker.join"], &mut covered);

    // Workload 3: the governor workload under a starvation budget —
    // degradation-ladder seams (`governor.rung`, and `intern.reset` at
    // rung 2).
    let gov = pda_lang::parse_program(GOVERNOR_SRC).unwrap();
    let gov_pa = PointsTo::analyze(&gov);
    let gov_client = EscapeClient::new(&gov);
    let gov_queries: Vec<_> = gov
        .queries
        .iter_enumerated()
        .map(|(q, _)| gov_client.local_query(&gov, q))
        .collect();
    let run = |retry: Option<RetryPolicy>, path: &Path| {
        let cfg = BatchConfig {
            jobs: 1,
            tracer: TracerConfig {
                mem_budget: Some(EXHAUST_BUDGET),
                ..TracerConfig::default()
            },
            retry,
            ..BatchConfig::default()
        };
        solve_queries_batch_checkpointed(
            &gov,
            &|c| gov_pa.callees(c).to_vec(),
            &gov_client,
            &gov_queries,
            &cfg,
            path,
        )
    };
    torture("governor", &run, &[], &mut covered);

    // Every seam the engine registers must have been crossed by at
    // least one workload — a silently dead fault point is a hole in the
    // torture surface.
    for required in [
        "bdd.conjoin",
        "bdd.mincost",
        "cache.slot_fill",
        "batch.worker.spawn",
        "batch.worker.join",
        "governor.rung",
        "intern.reset",
        "journal.create",
        "journal.open",
        "journal.append",
        "journal.write",
        "journal.compact.begin",
        "journal.compact.write",
        "journal.compact.rename",
    ] {
        assert!(covered.contains(required), "seam `{required}` was never crossed: {covered:?}");
    }
}
