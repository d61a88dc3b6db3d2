//! Runs a workload's queries through the production API, untraced or
//! traced, in a closed loop with one client.
//!
//! An untraced run is a sequence of rounds. A round is one pass over every
//! unit of the draw, so all rounds do identical work, and a unit's times
//! over the rounds can be compared once the host probe has scaled them.

use crate::host::Probe;
use crate::replay::{replay_query, ForwardMemo, LayerTotals};
use crate::spans::SpanLog;
use crate::workload::{Group, Workload};
use pda_tracer::{
    outcome_tag, solve_queries_batch, solve_query, BatchConfig, Outcome, QueryResult, TracerClient,
};
use pda_util::{CacheStats, Counter, ObsRegistry, SpanKind};
use std::time::Instant;

/// How many rounds an untraced run makes.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start rounds until this many seconds have passed, and make at
    /// least [`MIN_ROUNDS`].
    Seconds(f64),
    /// Make exactly this many rounds.
    Rounds(usize),
}

/// Fewest rounds a timed run makes, so every unit has repeats to pick from.
pub const MIN_ROUNDS: usize = 3;

/// One query's production verdict.
#[derive(Debug, Clone)]
pub struct Solved<P> {
    /// Global query id.
    pub id: usize,
    /// Index of the query's group.
    pub group: usize,
    /// Index within the group.
    pub index: usize,
    /// Verdict.
    pub outcome: Outcome<P>,
    /// CEGAR iterations.
    pub iterations: usize,
    /// Time to verdict, µs: the call's wall time for a lone query, the
    /// query's own solve time inside a batch.
    pub latency_us: u64,
    /// Start of the query's unit on the host probe's clock, seconds (0 in
    /// a traced run).
    pub at_s: f64,
}

/// One round of an untraced run.
#[derive(Debug)]
pub struct Round<P> {
    /// Verdicts in completion order.
    pub solved: Vec<Solved<P>>,
    /// Wall time of each unit (one query, or one batch), µs.
    pub unit_us: Vec<u64>,
    /// Start of each unit, seconds on the probe's clock.
    pub unit_at_s: Vec<f64>,
    /// Wall time of the round, host probe samples left out, seconds.
    pub wall_s: f64,
    /// Process CPU over the round, host probe samples left out, seconds.
    pub cpu_s: f64,
}

/// Scheduling units: `(group, Some(query))` for one-at-a-time workloads,
/// `(group, None)` for a whole-group batch.
fn units<C: TracerClient>(groups: &[Group<'_, C>], batch: bool) -> Vec<(usize, Option<usize>)> {
    if batch {
        (0..groups.len())
            .filter(|&g| !groups[g].queries.is_empty())
            .map(|g| (g, None))
            .collect()
    } else {
        groups
            .iter()
            .enumerate()
            .flat_map(|(g, grp)| (0..grp.queries.len()).map(move |i| (g, Some(i))))
            .collect()
    }
}

fn solved<P>(
    g: usize,
    first_id: usize,
    i: usize,
    r: QueryResult<P>,
    latency_us: u64,
    at_s: f64,
) -> Solved<P> {
    Solved {
        id: first_id + i,
        group: g,
        index: i,
        outcome: r.outcome,
        iterations: r.iterations,
        latency_us,
        at_s,
    }
}

/// The untraced run: production calls only, timed by the benchmark, with
/// the host probe sampled at the start of every round and between units.
/// `between` runs after every round, outside its timing.
///
/// # Errors
///
/// Returns a message when the draw poses no query, `/proc` cannot be
/// read, or `between` fails.
pub fn run_plain<C>(
    groups: &[Group<'_, C>],
    wl: &Workload,
    budget: Budget,
    probe: &mut Probe,
    between: &dyn Fn(&mut Probe) -> Result<(), String>,
) -> Result<Vec<Round<C::Param>>, String>
where
    C: TracerClient + Sync,
    C::Param: Send,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    let units = units(groups, wl.jobs > 1);
    if units.is_empty() {
        return Err("the draw poses no queries".into());
    }
    let cfg = wl.tracer();
    let bcfg = BatchConfig {
        tracer: cfg.clone(),
        jobs: wl.jobs,
        ..BatchConfig::default()
    };
    let start = Instant::now();
    let mut rounds = Vec::new();
    while match budget {
        Budget::Seconds(s) => rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < s,
        Budget::Rounds(n) => rounds.len() < n,
    } {
        let mut out = Vec::new();
        let mut unit_us = Vec::with_capacity(units.len());
        let mut unit_at_s = Vec::with_capacity(units.len());
        probe.sample()?;
        let cpu0 = crate::procfs::cpu_seconds()? - probe.cpu_s;
        let wall0 = probe.wall_s;
        let t0 = Instant::now();
        for &(g, qi) in &units {
            let grp = &groups[g];
            let callees = |c| grp.callees(c);
            let at_s = probe.now();
            unit_at_s.push(at_s);
            let tu = Instant::now();
            match qi {
                Some(i) => {
                    let t = Instant::now();
                    let r = solve_query(
                        &grp.bench.program,
                        &callees,
                        &grp.client,
                        &grp.queries[i],
                        &cfg,
                    );
                    let lat = t.elapsed().as_micros() as u64;
                    out.push(solved(g, grp.first_id, i, r, lat, at_s));
                }
                None => {
                    let (rs, _) = solve_queries_batch(
                        &grp.bench.program,
                        &callees,
                        &grp.client,
                        &grp.queries,
                        &bcfg,
                    );
                    for (i, r) in rs.into_iter().enumerate() {
                        let lat = r.micros as u64;
                        out.push(solved(g, grp.first_id, i, r, lat, at_s));
                    }
                }
            }
            unit_us.push(tu.elapsed().as_micros() as u64);
            probe.maybe_sample()?;
        }
        let wall_s = t0.elapsed().as_secs_f64() - (probe.wall_s - wall0);
        let cpu_s = crate::procfs::cpu_seconds()? - probe.cpu_s - cpu0;
        rounds.push(Round {
            solved: out,
            unit_us,
            unit_at_s,
            wall_s,
            cpu_s,
        });
        between(probe)?;
    }
    Ok(rounds)
}

/// The traced run's measurements.
#[derive(Debug)]
pub struct TracedRun<P> {
    /// Production verdicts in completion order.
    pub solved: Vec<Solved<P>>,
    /// Wall time of the production calls of the traced round, seconds.
    pub solve_wall_s: f64,
    /// Wall time of the replay, seconds.
    pub replay_wall_s: f64,
    /// Production time to verdict summed over queries, µs.
    pub solve_us: u64,
    /// Replayed layer effort.
    pub replay: LayerTotals,
    /// Production registries merged over every batch call (timed spans).
    pub obs: ObsRegistry,
    /// Production forward-cache counters.
    pub cache: CacheStats,
    /// Distinct forward runs per batch, summed (the replay's memo size).
    pub distinct_runs: u64,
    /// Production lock waits, µs.
    pub lock_wait_us: u64,
    /// Production worker busy time, µs.
    pub busy_us: u64,
    /// Production worker capacity (batch wall × workers), µs.
    pub capacity_us: u64,
    /// Queries whose replay disagreed with production.
    pub mismatches: Vec<String>,
}

/// The traced run: one round in which each unit goes through
/// `solve_queries_batch` with span timing on (a one-query batch at
/// `jobs = 1` is the sequential loop), after which every query of the
/// unit is replayed layer by layer.
///
/// # Errors
///
/// Returns a message when the draw poses no query.
pub fn run_traced<C>(
    groups: &[Group<'_, C>],
    wl: &Workload,
    log: &mut SpanLog,
) -> Result<TracedRun<C::Param>, String>
where
    C: TracerClient + Sync,
    C::Param: Send,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    let batch = wl.jobs > 1;
    let units = units(groups, batch);
    if units.is_empty() {
        return Err("the draw poses no queries".into());
    }
    let cfg = wl.tracer();
    let bcfg = BatchConfig {
        tracer: cfg.clone(),
        jobs: wl.jobs,
        timed: true,
        ..BatchConfig::default()
    };
    let mut run = TracedRun {
        solved: Vec::new(),
        solve_wall_s: 0.0,
        replay_wall_s: 0.0,
        solve_us: 0,
        replay: LayerTotals::default(),
        obs: ObsRegistry::default(),
        cache: CacheStats::default(),
        distinct_runs: 0,
        lock_wait_us: 0,
        busy_us: 0,
        capacity_us: 0,
        mismatches: Vec::new(),
    };
    for &(g, qi) in &units {
        let grp = &groups[g];
        let callees = |c| grp.callees(c);
        let range = match qi {
            Some(i) => i..i + 1,
            None => 0..grp.queries.len(),
        };
        let unit_q = (grp.first_id + range.start) as u64;
        let span = log.open(
            if batch { "core.batch" } else { "core.solve" },
            None,
            unit_q,
        );
        let t = Instant::now();
        let (rs, stats) = solve_queries_batch(
            &grp.bench.program,
            &callees,
            &grp.client,
            &grp.queries[range.clone()],
            &bcfg,
        );
        run.solve_wall_s += t.elapsed().as_secs_f64();
        log.close(span);
        run.obs.merge(&stats.obs);
        run.cache.merge(stats.cache);
        run.lock_wait_us += stats.contention_micros;
        run.busy_us += stats.worker_meta.iter().map(|w| w.busy_micros).sum::<u64>();
        run.capacity_us += stats.wall_micros as u64 * stats.worker_meta.len().max(1) as u64;

        let t = Instant::now();
        let mut memo: ForwardMemo<'_, C::State> = ForwardMemo::new();
        for (k, r) in rs.into_iter().enumerate() {
            let i = range.start + k;
            let qid = (grp.first_id + i) as u64;
            let rspan = log.open("core.replay", None, qid);
            let rep = replay_query(
                &grp.bench.program,
                &callees,
                &grp.client,
                &grp.queries[i],
                &cfg,
                if batch { Some(&mut memo) } else { None },
                log,
                Some(rspan),
                qid,
                &mut run.replay,
            );
            log.close(rspan);
            let same_verdict = outcome_tag(&rep.outcome) == outcome_tag(&r.outcome)
                && cost_of(&rep.outcome) == cost_of(&r.outcome);
            if !same_verdict || rep.iterations != r.iterations {
                run.mismatches.push(format!(
                    "query {qid}: production {} cost {:?} in {} iterations, replay {} cost {:?} in {}",
                    outcome_tag(&r.outcome),
                    cost_of(&r.outcome),
                    r.iterations,
                    outcome_tag(&rep.outcome),
                    cost_of(&rep.outcome),
                    rep.iterations
                ));
            }
            run.solve_us += r.micros as u64;
            let lat = r.micros as u64;
            run.solved.push(solved(g, grp.first_id, i, r, lat, 0.0));
        }
        run.distinct_runs += memo.len() as u64;
        run.replay_wall_s += t.elapsed().as_secs_f64();
    }
    if !batch {
        // Lone queries share nothing: every replayed run is distinct.
        run.distinct_runs = run.replay.forward_runs;
    }
    Ok(run)
}

/// The optimum cost of a proven verdict.
pub fn cost_of<P>(o: &Outcome<P>) -> Option<u64> {
    match o {
        Outcome::Proven { cost, .. } => Some(*cost),
        _ => None,
    }
}

/// Production span totals the replay is cross-checked against:
/// `(forward µs, backward µs, solver µs)`.
pub fn production_layers(obs: &ObsRegistry) -> (u64, u64, u64) {
    (
        obs.span_stats(SpanKind::Forward).micros,
        obs.span_stats(SpanKind::Backward).micros,
        obs.get(Counter::SolverMicros),
    )
}
