//! The three workloads: which programs a seed draws, how each program is
//! set up, and which queries are posed about it.

use crate::spans::{SpanLog, NO_QUERY};
use pda_analysis::{PointsTo, Reachability};
use pda_dataflow::RhsLimits;
use pda_escape::{EscPrim, EscapeClient};
use pda_suite::{Benchmark, ExperimentConfig, GenConfig};
use pda_tracer::{Query, TracerConfig};
use pda_typestate::{TsMode, TsPrim, TypestateClient};
use pda_util::SplitMix64;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Which client a workload poses its queries with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Client {
    /// Thread-escape access queries on escape-pool programs.
    Escape,
    /// Type-state stress queries on fresh programs of every suite shape.
    Typestate,
}

/// A named workload: its program draw, its deterministic budgets and its
/// worker count.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Client the queries are posed with.
    pub client: Client,
    /// Programs drawn per seed.
    pub programs: usize,
    /// Batch workers: 1 poses one query at a time through `solve_query`,
    /// more poses each program's queries as one `solve_queries_batch`.
    pub jobs: usize,
    /// CEGAR iteration budget per query.
    pub max_iters: usize,
    /// Forward fact budget per run.
    pub max_facts: usize,
    /// One-line rationale.
    pub why: &'static str,
}

/// The seed whose verdicts are checked in under `data/`.
pub const REFERENCE_SEED: u64 = 1;

/// Escape programs whose every access query decides within the escape
/// workloads' budgets, one line each (see the README for how the list was
/// made).
const ESCAPE_POOL: &str = include_str!("../data/escape-pool.txt");

/// Largest forward effort (facts over one pass of its queries) of a pool
/// program. The cap trims the few programs that would otherwise set a
/// draw's tail latency and peak memory by themselves.
pub const POOL_MAX_FACTS: u64 = 100_000;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload {
                name: "escape-forward",
                client: Client::Escape,
                programs: 60,
                jobs: 1,
                max_iters: 12,
                max_facts: 20_000,
                why: "escape queries one at a time (jobs=1) on pool programs that all decide, so decided_ratio only guards regressions; measured: forward RHS 50%, backward meta 41%, solver <1%",
            },
            Workload {
                name: "typestate-meta",
                client: Client::Typestate,
                programs: 140,
                jobs: 1,
                max_iters: 40,
                max_facts: 300_000,
                why: "sub-ms type-state stress queries on all seven suite shapes (jobs=1); measured: backward meta 48%, forward 39%, loop residual 13%; 140 programs make set-up measurable",
            },
            Workload {
                name: "escape-shared",
                client: Client::Escape,
                programs: 100,
                jobs: 2,
                max_iters: 12,
                max_facts: 20_000,
                why: "escape batches via solve_queries_batch at jobs=2: the only workload with cache hits (1.4/query) and thread waits; all-deciding pool, decided_ratio guards regressions; meta 54%, forward 28%",
            },
        ]
    }

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The TRACER configuration: production defaults plus the workload's
    /// two deterministic budgets. No wall-clock deadline is ever set.
    pub fn tracer(&self) -> TracerConfig {
        TracerConfig {
            max_iters: self.max_iters,
            rhs_limits: RhsLimits {
                max_facts: self.max_facts,
                ..RhsLimits::default()
            },
            ..TracerConfig::default()
        }
    }

    /// The generator configurations `seed` draws, `programs` of them.
    pub fn draw(&self, seed: u64, programs: usize) -> Vec<GenConfig> {
        let shapes = pda_suite::suite();
        let mut rng = SplitMix64::new(seed ^ 0x5eed_da7a_0000_0000);
        match self.client {
            Client::Typestate => (0..programs)
                .map(|i| GenConfig {
                    seed: rng.next_u64(),
                    ..shapes[i % shapes.len()].clone()
                })
                .collect(),
            Client::Escape => {
                // Stratified draw: the pool, ordered by solve time, is cut
                // into `programs` strata of near-equal size and one program
                // is drawn from each, so every draw spans the whole range
                // and seeds differ in which programs, not how heavy.
                let mut pool = escape_pool();
                let time = |e: &PoolEntry| if self.jobs > 1 { e.batch_ms } else { e.ms };
                pool.sort_by(|a, b| time(a).total_cmp(&time(b)).then(a.seed.cmp(&b.seed)));
                let n = programs.clamp(1, pool.len());
                let mut picks: Vec<&PoolEntry> = (0..n)
                    .map(|k| &pool[rng.gen_range(k * pool.len() / n, (k + 1) * pool.len() / n)])
                    .collect();
                for i in (1..picks.len()).rev() {
                    picks.swap(i, rng.gen_range(0, i + 1));
                }
                picks
                    .into_iter()
                    .map(|e| {
                        let base = shapes
                            .iter()
                            .find(|c| c.name == e.shape)
                            .expect("pool shape");
                        GenConfig {
                            seed: e.seed,
                            ..base.clone()
                        }
                    })
                    .collect()
            }
        }
    }
}

/// One vetted escape program.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEntry {
    /// Suite shape the program is generated with.
    pub shape: String,
    /// Generator seed.
    pub seed: u64,
    /// CEGAR iterations of one pass over its queries.
    pub iterations: u64,
    /// Forward facts of one pass over its queries.
    pub facts: u64,
    /// Time of one pass over its queries, one at a time, at the reference
    /// host speed, ms (0 when not yet timed).
    pub ms: f64,
    /// Time of its queries as one batch at `escape-shared`'s `jobs`, at the
    /// reference host speed, ms (0 when not yet timed).
    pub batch_ms: f64,
}

/// The checked-in escape pool.
///
/// # Panics
///
/// Panics on a malformed line of the pool file.
pub fn escape_pool() -> Vec<PoolEntry> {
    parse_pool(ESCAPE_POOL)
}

/// Pool lines `shape seed iterations facts [ms batch_ms]`; comments and
/// blank lines are skipped.
///
/// # Panics
///
/// Panics on a malformed line.
pub fn parse_pool(text: &str) -> Vec<PoolEntry> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let num = |i: usize| -> u64 {
                f.get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("pool line is `shape seed iterations facts [ms batch_ms]`")
            };
            let time = |i: usize| {
                f.get(i).map_or(0.0, |v| {
                    v.parse().expect("pool time columns are numbers of ms")
                })
            };
            PoolEntry {
                shape: f[0].to_string(),
                seed: num(1),
                iterations: num(2),
                facts: num(3),
                ms: time(4),
                batch_ms: time(5),
            }
        })
        .collect()
}

/// Set-up cost of one pass over a draw, by layer.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Parse + resolve + CFG construction (`pda-lang`), µs.
    pub parse_us: u64,
    /// Points-to analysis (`pda-analysis`), µs.
    pub pointsto_us: u64,
    /// Reachability (`pda-analysis`), µs.
    pub reach_us: u64,
    /// Client and query construction, µs.
    pub client_us: u64,
    /// CFG nodes over all methods.
    pub cfg_nodes: u64,
    /// Methods reachable from `main`.
    pub reachable_methods: u64,
    /// Queries posed.
    pub queries: u64,
    /// Middle of the pass on the host probe's clock, seconds.
    pub at_s: f64,
}

impl SetupTimes {
    /// The whole set-up, seconds.
    pub fn total_s(&self) -> f64 {
        (self.parse_us + self.pointsto_us + self.reach_us + self.client_us) as f64 / 1e6
    }
}

/// Parses and pre-analyses every program of a draw. Source generation is
/// the benchmark's input and happens before, untimed.
///
/// # Errors
///
/// Returns the frontend error of a program that fails to parse.
pub fn load(
    draw: &[GenConfig],
    sources: &[String],
    log: &mut SpanLog,
    times: &mut SetupTimes,
) -> Result<Vec<Benchmark>, String> {
    let mut out = Vec::with_capacity(draw.len());
    for (cfg, src) in draw.iter().zip(sources) {
        let source = src.clone();
        let span = log.open("lang.parse", None, NO_QUERY);
        let t = Instant::now();
        let program = pda_lang::parse_program(&source)
            .map_err(|e| format!("{} seed {}: {e}", cfg.name, cfg.seed))?;
        times.parse_us += t.elapsed().as_micros() as u64;
        log.close(span);
        let span = log.open("analysis.pointsto", None, NO_QUERY);
        let t = Instant::now();
        let pa = PointsTo::analyze(&program);
        times.pointsto_us += t.elapsed().as_micros() as u64;
        log.close(span);
        let span = log.open("analysis.reach", None, NO_QUERY);
        let t = Instant::now();
        let reach = Reachability::compute(&program, &pa);
        times.reach_us += t.elapsed().as_micros() as u64;
        log.close(span);
        times.cfg_nodes += program
            .methods
            .iter()
            .map(|m| m.cfg.len() as u64)
            .sum::<u64>();
        times.reachable_methods += reach.count() as u64;
        out.push(Benchmark {
            name: cfg.name.clone(),
            source,
            program,
            pa,
            reach,
        });
    }
    Ok(out)
}

/// One client over one program, with the queries posed to it. Query ids
/// are global across the draw: `first_id + i` for `queries[i]`.
pub struct Group<'a, C: pda_tracer::TracerClient> {
    /// The loaded program.
    pub bench: &'a Benchmark,
    /// The client instance.
    pub client: C,
    /// Queries, in posing order.
    pub queries: Vec<Query<C::Prim>>,
    /// Global id of `queries[0]`.
    pub first_id: usize,
}

impl<C: pda_tracer::TracerClient> Group<'_, C> {
    /// Call resolution for the engines.
    pub fn callees(&self, c: pda_lang::CallId) -> Vec<pda_lang::MethodId> {
        self.bench.pa.callees(c).to_vec()
    }
}

/// Escape groups: one client per program, one query per instance-field
/// access in reachable application code (the paper's query set).
pub fn escape_groups<'a>(
    benches: &'a [Benchmark],
    log: &mut SpanLog,
    times: &mut SetupTimes,
) -> Vec<Group<'a, EscapeClient>> {
    let mut next = 0;
    let mut out = Vec::with_capacity(benches.len());
    for bench in benches {
        let span = log.open("client.build", None, NO_QUERY);
        let t = Instant::now();
        let client = EscapeClient::new(&bench.program);
        let queries: Vec<Query<EscPrim>> =
            EscapeClient::accesses(&bench.program, bench.app_methods())
                .into_iter()
                .map(|(point, var)| client.access_query(point, var))
                .collect();
        let us = t.elapsed().as_micros() as u64;
        times.client_us += us;
        log.close(span);
        times.queries += queries.len() as u64;
        let first_id = next;
        next += queries.len();
        out.push(Group {
            bench,
            client,
            queries,
            first_id,
        });
    }
    out
}

/// Type-state groups: one stress-property client per tracked application
/// site, with the suite harness's query points (at most 40 per program,
/// two sites per call).
pub fn typestate_groups<'a>(
    benches: &'a [Benchmark],
    log: &mut SpanLog,
    times: &mut SetupTimes,
) -> Vec<Group<'a, TypestateClient<'a>>> {
    let harness = ExperimentConfig::default();
    let mut next = 0;
    let mut out = Vec::new();
    for bench in benches {
        let span = log.open("client.build", None, NO_QUERY);
        let t = Instant::now();
        let points = pda_suite::experiments::typestate_query_points(bench, &harness);
        let skip: HashSet<pda_lang::NameId> = bench
            .program
            .methods
            .iter()
            .filter(|m| bench.program.names.resolve(m.name).starts_with("lib_"))
            .map(|m| m.name)
            .collect();
        let mut by_site: BTreeMap<pda_lang::SiteId, Vec<pda_lang::PointId>> = BTreeMap::new();
        for &(pc, h) in &points {
            by_site.entry(h).or_default().push(pc);
        }
        let mut built = Vec::with_capacity(by_site.len());
        for (h, pcs) in by_site {
            let client = TypestateClient::new(
                &bench.program,
                &bench.pa,
                h,
                TsMode::Stress { skip: skip.clone() },
            );
            let queries: Vec<Query<TsPrim>> =
                pcs.iter().map(|&pc| client.stress_query(pc)).collect();
            built.push((client, queries));
        }
        let us = t.elapsed().as_micros() as u64;
        times.client_us += us;
        log.close(span);
        for (client, queries) in built {
            times.queries += queries.len() as u64;
            let first_id = next;
            next += queries.len();
            out.push(Group {
                bench,
                client,
                queries,
                first_id,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_seeded_and_sized() {
        for w in Workload::all() {
            let a = w.draw(7, 9);
            let b = w.draw(7, 9);
            assert_eq!(a.len(), 9);
            let key = |d: &[GenConfig]| {
                d.iter()
                    .map(|c| (c.name.clone(), c.seed))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&a), key(&b));
            assert_ne!(key(&a), key(&w.draw(8, 9)));
        }
    }

    #[test]
    fn pool_is_nonempty_and_distinct() {
        let pool = escape_pool();
        assert!(pool.len() >= 64);
        assert!(
            pool.iter().all(|e| e.ms > 0.0 && e.batch_ms > 0.0),
            "every pool program is timed"
        );
        let set: HashSet<_> = pool.iter().map(|e| (&e.shape, e.seed)).collect();
        assert_eq!(set.len(), pool.len());
    }
}
