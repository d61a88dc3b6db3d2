//! The experiment harness: runs both client analyses over a benchmark
//! through the batch scheduler (whose shared forward-run cache does the
//! work of the paper's Section 6 query groups) and aggregates the
//! statistics behind the paper's Tables 2–4 and Figures 12–14.

use crate::bench::Benchmark;
use pda_dataflow::RhsLimits;
use pda_escape::EscapeClient;
use pda_lang::{CallKind, Node, SiteId};
use pda_meta::BeamConfig;
use pda_tracer::{
    solve_queries_batch, BatchConfig, Outcome, Query, QueryResult, TracerClient, TracerConfig,
};
use pda_typestate::{TsMode, TypestateClient};
use pda_util::{CacheStats, Counter, Idx, ObsRegistry, Summary};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Backward beam width (the paper's `k`; 5 by default, Figure 13).
    pub k: usize,
    /// CEGAR iteration budget per query (timeout analogue).
    pub max_iters: usize,
    /// Forward fact budget per run.
    pub max_facts: usize,
    /// Cap on queries per analysis per benchmark (keeps the laptop-scale
    /// reproduction bounded; queries are sampled evenly).
    pub max_queries: usize,
    /// For type-state: cap on sites queried per call point.
    pub sites_per_call: usize,
    /// Workers for the batch scheduler (`pda_tracer::solve_queries_batch`;
    /// `1`, the default, solves the queries in order on the calling
    /// thread). Every batch of two or more queries shares forward runs
    /// through one cache whatever this is, so verdicts, costs, and
    /// iteration counts do not depend on it.
    pub jobs: usize,
    /// Per-query wall-clock deadline (`None` = unlimited, the default).
    pub timeout: Option<std::time::Duration>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            k: 5,
            max_iters: 40,
            max_facts: 1_200_000,
            max_queries: 40,
            sites_per_call: 2,
            jobs: 1,
            timeout: None,
        }
    }
}

impl ExperimentConfig {
    fn tracer(&self) -> TracerConfig {
        TracerConfig {
            beam: BeamConfig::with_k(self.k),
            max_iters: self.max_iters,
            rhs_limits: RhsLimits { max_facts: self.max_facts, ..RhsLimits::default() },
            timeout: self.timeout,
            mem_budget: None,
        }
    }
}

/// How a query resolved, in the paper's three buckets (Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Proven with a cheapest abstraction.
    Proven,
    /// No abstraction in the family proves it.
    Impossible,
    /// Budget exhausted (the paper's 1000-minute timeouts).
    Unresolved,
}

/// One query's outcome with the measurements the tables report.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Human-readable query identifier.
    pub label: String,
    /// Resolution bucket.
    pub resolution: Resolution,
    /// CEGAR iterations (forward runs the query's loop consumed, shared
    /// or not).
    pub iterations: usize,
    /// Wall time attributed to the query, µs.
    pub micros: u128,
    /// Cheapest-abstraction size, for proven queries (Table 3).
    pub cost: Option<u64>,
    /// Canonical form of the cheapest abstraction, for reuse grouping
    /// (Table 4).
    pub param_key: Option<String>,
}

/// All outcomes of one analysis over one benchmark.
#[derive(Debug, Clone)]
pub struct AnalysisRun {
    /// Benchmark name.
    pub benchmark: String,
    /// `"type-state"` or `"thread-escape"`.
    pub analysis: &'static str,
    /// Per-query outcomes.
    pub outcomes: Vec<QueryOutcome>,
    /// Total wall time, µs.
    pub wall_micros: u128,
    /// Batch workers requested.
    pub jobs: usize,
    /// The run's batches' registries ([`pda_tracer::BatchStats::to_obs`])
    /// merged: cache, fault, solver, span, and meta-kernel counters.
    pub obs: ObsRegistry,
}

impl AnalysisRun {
    /// Forward (RHS) runs executed; cache hits are runs saved.
    pub fn forward_runs(&self) -> u64 {
        self.obs.get(Counter::ForwardRuns)
    }

    /// Forward-run cache statistics (all-zero for batches of one query,
    /// which run uncached).
    pub fn cache(&self) -> CacheStats {
        CacheStats {
            hits: self.obs.get(Counter::CacheHits),
            misses: self.obs.get(Counter::CacheMisses),
        }
    }

    /// `(proven, impossible, unresolved)` counts (Figure 12).
    pub fn precision(&self) -> (usize, usize, usize) {
        let mut p = 0;
        let mut i = 0;
        let mut u = 0;
        for o in &self.outcomes {
            match o.resolution {
                Resolution::Proven => p += 1,
                Resolution::Impossible => i += 1,
                Resolution::Unresolved => u += 1,
            }
        }
        (p, i, u)
    }

    /// Iteration summary for one bucket (Table 2).
    pub fn iterations(&self, r: Resolution) -> Summary {
        self.outcomes
            .iter()
            .filter(|o| o.resolution == r)
            .map(|o| o.iterations as f64)
            .collect()
    }

    /// Per-query time summary in seconds for one bucket (Table 2, right).
    pub fn times_secs(&self, r: Resolution) -> Summary {
        self.outcomes
            .iter()
            .filter(|o| o.resolution == r)
            .map(|o| o.micros as f64 / 1e6)
            .collect()
    }

    /// Cheapest-abstraction size summary over proven queries (Table 3).
    pub fn cheapest_sizes(&self) -> Summary {
        self.outcomes
            .iter()
            .filter_map(|o| o.cost)
            .map(|c| c as f64)
            .collect()
    }

    /// Sizes of groups of proven queries sharing a cheapest abstraction
    /// (Table 4).
    pub fn reuse_groups(&self) -> Vec<usize> {
        let mut groups: BTreeMap<&str, usize> = BTreeMap::new();
        for o in &self.outcomes {
            if let Some(k) = &o.param_key {
                *groups.entry(k).or_default() += 1;
            }
        }
        groups.into_values().collect()
    }

    /// Histogram of cheapest-abstraction sizes (Figure 14).
    pub fn size_histogram(&self) -> BTreeMap<u64, usize> {
        let mut h = BTreeMap::new();
        for o in &self.outcomes {
            if let Some(c) = o.cost {
                *h.entry(c).or_default() += 1;
            }
        }
        h
    }
}

/// Samples at most `max` elements, evenly spaced, preserving order.
fn sample<T>(mut xs: Vec<T>, max: usize) -> Vec<T> {
    if xs.len() <= max {
        return xs;
    }
    let step = xs.len() as f64 / max as f64;
    let keep: Vec<usize> = (0..max).map(|i| (i as f64 * step) as usize).collect();
    let mut i = 0;
    let mut k = 0;
    xs.retain(|_| {
        let keep_it = k < keep.len() && keep[k] == i;
        if keep_it {
            k += 1;
        }
        i += 1;
        keep_it
    });
    xs
}

/// Solves one query batch through the batch scheduler. Returns per-query
/// results and the batch's registry ([`pda_tracer::BatchStats::to_obs`]).
fn solve_all<C>(
    program: &pda_lang::Program,
    callees: &(dyn Fn(pda_lang::CallId) -> Vec<pda_lang::MethodId> + Sync),
    client: &C,
    queries: &[Query<C::Prim>],
    cfg: &ExperimentConfig,
) -> (Vec<QueryResult<C::Param>>, ObsRegistry)
where
    C: TracerClient + Sync,
    C::Param: Send,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    let batch = BatchConfig { tracer: cfg.tracer(), jobs: cfg.jobs, ..BatchConfig::default() };
    let (results, stats) = solve_queries_batch(program, callees, client, queries, &batch);
    (results, stats.to_obs())
}

/// Maps one solved query to its table row. `key_prefix` qualifies the
/// cheapest abstraction for reuse grouping (Table 4): type-state
/// abstractions are only comparable on the same tracked site.
fn query_outcome<P: std::fmt::Display>(
    label: String,
    r: &QueryResult<P>,
    key_prefix: &str,
) -> QueryOutcome {
    let (resolution, cost, param_key) = match &r.outcome {
        Outcome::Proven { param, cost } => {
            (Resolution::Proven, Some(*cost), Some(format!("{key_prefix}{param}")))
        }
        Outcome::Impossible => (Resolution::Impossible, None, None),
        Outcome::Unresolved(_) => (Resolution::Unresolved, None, None),
    };
    QueryOutcome { label, resolution, iterations: r.iterations, micros: r.micros, cost, param_key }
}

fn analysis_run(
    bench: &Benchmark,
    analysis: &'static str,
    cfg: &ExperimentConfig,
    start: Instant,
    outcomes: Vec<QueryOutcome>,
    obs: ObsRegistry,
) -> AnalysisRun {
    AnalysisRun {
        benchmark: bench.name.clone(),
        analysis,
        outcomes,
        wall_micros: start.elapsed().as_micros(),
        jobs: cfg.jobs.max(1),
        obs,
    }
}

/// Runs the thread-escape analysis over a benchmark: one query per
/// instance-field access in reachable application code (Section 6),
/// solved as one batch with shared forward runs.
pub fn run_escape(bench: &Benchmark, cfg: &ExperimentConfig) -> AnalysisRun {
    let start = Instant::now();
    let client = EscapeClient::new(&bench.program);
    let accesses = sample(
        EscapeClient::accesses(&bench.program, bench.app_methods()),
        cfg.max_queries,
    );
    let queries: Vec<Query<pda_escape::EscPrim>> = accesses
        .iter()
        .map(|&(point, var)| client.access_query(point, var))
        .collect();
    let callees = bench.callees();
    let (results, obs) = solve_all(&bench.program, &callees, &client, &queries, cfg);
    let outcomes = results
        .iter()
        .zip(&accesses)
        .map(|(r, &(point, var))| {
            query_outcome(format!("pc{}:{}", point.index(), bench.program.var_name(var)), r, "")
        })
        .collect();
    analysis_run(bench, "thread-escape", cfg, start, outcomes, obs)
}

/// The `(call point, site)` pairs of a benchmark's reachable application
/// code: every virtual call whose method `keep_method` accepts, paired
/// with up to `cfg.sites_per_call` sites its receiver may point to that
/// `keep_site` accepts, sampled to `cfg.max_queries`.
fn virtual_call_points(
    bench: &Benchmark,
    cfg: &ExperimentConfig,
    keep_method: impl Fn(pda_lang::NameId) -> bool,
    keep_site: impl Fn(SiteId) -> bool,
) -> Vec<(pda_lang::PointId, SiteId)> {
    let mut out = Vec::new();
    for m in bench.app_methods() {
        for (_, node) in bench.program.methods[m].cfg.iter() {
            let Node::Call(c) = node.kind else { continue };
            let call = &bench.program.calls[c];
            let CallKind::Virtual { recv, method } = call.kind else { continue };
            if !keep_method(method) {
                continue;
            }
            let sites = bench.pa.pts_var(recv).iter().map(SiteId::from_usize);
            for h in sites.filter(|&h| keep_site(h)).take(cfg.sites_per_call) {
                out.push((call.point, h));
            }
        }
    }
    sample(out, cfg.max_queries)
}

/// Enumerates the type-state stress queries `(call point, site)` of a
/// benchmark: every virtual call in reachable application code, paired
/// with each application site its receiver may point to.
pub fn typestate_query_points(
    bench: &Benchmark,
    cfg: &ExperimentConfig,
) -> Vec<(pda_lang::PointId, SiteId)> {
    virtual_call_points(
        bench,
        cfg,
        |method| !bench.program.names.resolve(method).starts_with("lib_"),
        |h| bench.is_app_site(h),
    )
}

/// Solves type-state queries site by site: the points on one tracked
/// site share one client (`client_for`; `None` skips the site) and one
/// batch, so they share forward runs.
fn run_typestate_sites<'b>(
    bench: &'b Benchmark,
    cfg: &ExperimentConfig,
    analysis: &'static str,
    start: Instant,
    points: &[(pda_lang::PointId, SiteId)],
    client_for: impl Fn(SiteId) -> Option<TypestateClient<'b>>,
) -> AnalysisRun {
    let mut by_site: BTreeMap<SiteId, Vec<pda_lang::PointId>> = BTreeMap::new();
    for &(pc, h) in points {
        by_site.entry(h).or_default().push(pc);
    }
    let callees = bench.callees();
    let mut outcomes = Vec::new();
    let mut obs = ObsRegistry::default();
    for (h, pcs) in by_site {
        let Some(client) = client_for(h) else { continue };
        let queries: Vec<Query<pda_typestate::TsPrim>> =
            pcs.iter().map(|&pc| client.stress_query(pc)).collect();
        let (results, site_obs) = solve_all(&bench.program, &callees, &client, &queries, cfg);
        obs.merge(&site_obs);
        let site = bench.program.site_label(h);
        let key_prefix = format!("h{h}:");
        outcomes.extend(results.iter().zip(&pcs).map(|(r, pc)| {
            query_outcome(format!("pc{}@{site}", pc.index()), r, &key_prefix)
        }));
    }
    analysis_run(bench, analysis, cfg, start, outcomes, obs)
}

/// Runs the type-state analysis (stress property, Section 6) over a
/// benchmark. Queries sharing a tracked site share a client instance and
/// one batch, so they share forward runs.
pub fn run_typestate(bench: &Benchmark, cfg: &ExperimentConfig) -> AnalysisRun {
    let start = Instant::now();
    let points = typestate_query_points(bench, cfg);
    // Library method names are exempt from the stress property.
    let skip: HashSet<pda_lang::NameId> = bench
        .program
        .methods
        .iter()
        .filter(|m| bench.program.names.resolve(m.name).starts_with("lib_"))
        .map(|m| m.name)
        .collect();
    run_typestate_sites(bench, cfg, "type-state", start, &points, |h| {
        let mode = TsMode::Stress { skip: skip.clone() };
        Some(TypestateClient::new(&bench.program, &bench.pa, h, mode))
    })
}

/// Runs the type-state analysis in **automaton mode** over the generated
/// `Res` acquire/release protocol (the Figure 1 analogue at benchmark
/// scale): one query per protocol call site per may-aliased `Res` site.
///
/// This exercises the declared-automaton machinery end to end, beyond the
/// paper's stress property.
pub fn run_typestate_automaton(bench: &Benchmark, cfg: &ExperimentConfig) -> AnalysisRun {
    let start = Instant::now();
    let protocol: Vec<pda_lang::NameId> = ["acquire", "release"]
        .iter()
        .filter_map(|m| bench.program.names.get(m))
        .collect();
    let res_class = bench
        .program
        .classes
        .iter_enumerated()
        .find(|(_, c)| bench.program.names.resolve(c.name) == "Res")
        .map(|(id, _)| id);
    let points = virtual_call_points(
        bench,
        cfg,
        |method| protocol.contains(&method),
        |h| Some(bench.program.sites[h].class) == res_class,
    );
    run_typestate_sites(bench, cfg, "type-state (automaton)", start, &points, |h| {
        TypestateClient::for_declared_automaton(&bench.program, &bench.pa, h)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig { max_queries: 8, max_iters: 20, ..ExperimentConfig::default() }
    }

    #[test]
    fn escape_run_on_smallest_benchmark() {
        let b = Benchmark::load(crate::suite().remove(0));
        let run = run_escape(&b, &small_cfg());
        assert!(!run.outcomes.is_empty());
        let (p, i, u) = run.precision();
        assert_eq!(p + i + u, run.outcomes.len());
        // Every proven query has a cost and a param key.
        for o in &run.outcomes {
            assert_eq!(o.resolution == Resolution::Proven, o.cost.is_some());
            assert_eq!(o.cost.is_some(), o.param_key.is_some());
        }
    }

    #[test]
    fn typestate_run_on_smallest_benchmark() {
        let b = Benchmark::load(crate::suite().remove(0));
        let run = run_typestate(&b, &small_cfg());
        assert!(!run.outcomes.is_empty());
        let (p, i, u) = run.precision();
        assert_eq!(p + i + u, run.outcomes.len());
    }

    #[test]
    fn automaton_run_on_smallest_benchmark() {
        let b = Benchmark::load(crate::suite().remove(0));
        let run = run_typestate_automaton(&b, &small_cfg());
        // The protocol motif guarantees acquire/release sites exist.
        assert!(!run.outcomes.is_empty());
        let (p, i, u) = run.precision();
        assert_eq!(p + i + u, run.outcomes.len());
        // Protocol queries resolve decisively (the motif is small).
        assert!(p + i > 0, "no protocol query resolved");
    }

    #[test]
    fn parallel_escape_run_matches_sequential_verdicts() {
        let b = Benchmark::load(crate::suite().remove(0));
        let seq = run_escape(&b, &small_cfg());
        let par = run_escape(&b, &ExperimentConfig { jobs: 4, ..small_cfg() });
        assert_eq!(par.jobs, 4);
        assert_eq!(seq.jobs, 1);
        // One worker or four, the batch shares the same forward runs.
        assert_eq!(seq.cache(), par.cache());
        assert_eq!(par.forward_runs(), par.cache().misses);
        assert!(par.cache().hits > 0, "expected cross-query forward-run sharing");
        let key = |r: &AnalysisRun| {
            r.outcomes
                .iter()
                .map(|o| (o.label.clone(), o.resolution, o.cost, o.iterations))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&seq), key(&par));
    }

    #[test]
    fn sequential_run_honours_timeout() {
        let b = Benchmark::load(crate::suite().remove(0));
        let expired = ExperimentConfig {
            jobs: 1,
            timeout: Some(std::time::Duration::ZERO),
            ..small_cfg()
        };
        let run = run_escape(&b, &expired);
        assert!(!run.outcomes.is_empty());
        assert!(
            run.outcomes.iter().all(|o| o.resolution == Resolution::Unresolved),
            "an expired deadline must leave every query unresolved at jobs=1"
        );
    }

    #[test]
    fn sample_is_even_and_bounded() {
        let xs: Vec<usize> = (0..100).collect();
        let s = sample(xs, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 0);
        assert!(s.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(sample(vec![1, 2, 3], 10), vec![1, 2, 3]);
    }

    #[test]
    fn aggregations_are_consistent() {
        let b = Benchmark::load(crate::suite().remove(0));
        let run = run_escape(&b, &small_cfg());
        let (p, _, _) = run.precision();
        assert_eq!(run.reuse_groups().iter().sum::<usize>(), p);
        assert_eq!(run.size_histogram().values().sum::<usize>(), p);
        assert_eq!(run.cheapest_sizes().count() as usize, p);
    }
}
