//! Benchmark of the TRACER reproduction: three workloads of analysis
//! queries, end-to-end metrics from an untraced run, and a per-crate
//! split of query time from a traced run that replays every CEGAR
//! iteration through the layer crates' public functions.
//!
//! The benchmark calls only public API: `solve_query`,
//! `solve_queries_batch`, the `TracerConfig` budgets, `jobs`, and the
//! layer crates' functions. It sets no engine or kernel selector and reads
//! no environment knob, so every workload runs the production defaults.
//!
//! The untraced run's times are scaled to a reference host speed by a
//! probe kernel timed between units (see [`host`]), because the shared
//! machines it runs on change speed for minutes at a time.

pub mod host;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod verify;
pub mod workload;

use host::Probe;
use pda_util::{Counter, SpanKind};
use report::{median, Metric};
use run::{production_layers, run_plain, run_traced, Budget, Round, Solved, TracedRun};
use spans::SpanLog;
use std::cell::RefCell;
use std::path::PathBuf;
use workload::{escape_groups, load, typestate_groups, Client, Group, SetupTimes, Workload};

/// Set-up passes before the first round. An untraced run makes one more
/// after every round, so the passes sample the host over the whole run.
pub const SETUP_REPS: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Programs drawn (the workload's default when `None`).
    pub programs: Option<usize>,
    /// Make exactly this many untraced rounds instead of timing by
    /// `seconds` (tests, reference writing).
    pub rounds: Option<usize>,
    /// Write spans and provenance under `out/`.
    pub write_files: bool,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// All verdict checks (and, traced, the replay agreement) passed.
    pub correct: bool,
    /// Queries solved in the measured region (repeats included).
    pub attempted: usize,
    /// Of those, queries left Unresolved.
    pub failed: usize,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// Failed checks, described.
    pub errors: Vec<String>,
    /// Deterministic effort counts (traced runs only), for the
    /// determinism tests.
    pub counts: Vec<(&'static str, u64)>,
    /// `(query id, verdict)` of every solved query, in completion order.
    pub verdicts: Vec<(usize, verify::Verdict)>,
    /// Provenance record (JSON object).
    pub provenance: String,
}

/// Root of the checkout the benchmark lives in.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

struct Setup {
    reps: RefCell<Vec<SetupTimes>>,
}

impl Setup {
    fn median_of(&self, f: impl Fn(&SetupTimes) -> f64) -> f64 {
        median(&self.reps.borrow().iter().map(f).collect::<Vec<_>>())
    }

    /// Each pass's whole set-up at the reference host speed, seconds: its
    /// time scaled by the host speed around it.
    fn scaled_s(&self, probe: &Probe) -> Vec<f64> {
        self.reps
            .borrow()
            .iter()
            .map(|t| t.total_s() * probe.scale_at(t.at_s))
            .collect()
    }
}

fn setup_pass(
    wl: &Workload,
    draw: &[pda_suite::GenConfig],
    sources: &[String],
    log: &mut SpanLog,
    probe: &mut Probe,
) -> Result<(Vec<pda_suite::Benchmark>, SetupTimes), String> {
    probe.sample()?;
    let start = probe.now();
    let mut times = SetupTimes::default();
    let benches = load(draw, sources, log, &mut times)?;
    match wl.client {
        Client::Typestate => drop(typestate_groups(&benches, log, &mut times)),
        Client::Escape => drop(escape_groups(&benches, log, &mut times)),
    }
    times.at_s = (start + probe.now()) / 2.0;
    probe.sample()?;
    Ok((benches, times))
}

/// Runs workload `wl` under `opts`. The verdicts are checked against the
/// checked-in reference when the draw is the reference draw: the default
/// number of programs at [`workload::REFERENCE_SEED`].
///
/// # Errors
///
/// Returns a message when a program fails to load, the reference cannot
/// be read, or `/proc` is unreadable.
pub fn execute(wl: &Workload, opts: &Options) -> Result<Outcome, String> {
    let reference_draw = opts.seed == workload::REFERENCE_SEED && opts.programs.is_none();
    execute_checked(wl, opts, reference_draw)
}

fn execute_checked(wl: &Workload, opts: &Options, use_reference: bool) -> Result<Outcome, String> {
    let programs = opts.programs.unwrap_or(wl.programs);
    let draw = wl.draw(opts.seed, programs);
    let sources: Vec<String> = draw.iter().map(pda_suite::generate_source).collect();
    let reference = if use_reference {
        Some(verify::load_reference(wl)?)
    } else {
        None
    };

    // The first pass records spans and keeps its programs; the others
    // only time.
    let mut log = SpanLog::new(opts.trace);
    // The probe's graph is resident for the whole run; peak RSS is reported
    // without it.
    let rss0 = procfs::rss_mb()?;
    let mut probe = Probe::new(wl.jobs);
    let probe_mb = procfs::rss_mb()? - rss0;
    let (benches, first) = setup_pass(wl, &draw, &sources, &mut log, &mut probe)?;
    let setup = Setup {
        reps: RefCell::new(vec![first]),
    };
    let more_setup = |probe: &mut Probe| -> Result<(), String> {
        let (_, t) = setup_pass(wl, &draw, &sources, &mut SpanLog::new(false), probe)?;
        setup.reps.borrow_mut().push(t);
        Ok(())
    };
    for _ in 1..SETUP_REPS {
        more_setup(&mut probe)?;
    }
    let draw_names: Vec<String> = draw
        .iter()
        .map(|c| format!("{}:{}", c.name, c.seed))
        .collect();
    let mut quiet = SpanLog::new(false);
    let mut unused = SetupTimes::default();
    let ctx = Ctx {
        wl,
        opts,
        setup: &setup,
        more_setup: &more_setup,
        draw: &draw_names,
        reference: reference.as_deref(),
        probe_mb,
    };
    match wl.client {
        Client::Typestate => {
            let groups = typestate_groups(&benches, &mut quiet, &mut unused);
            measure(&ctx, &groups, &mut log, &mut probe)
        }
        Client::Escape => {
            let groups = escape_groups(&benches, &mut quiet, &mut unused);
            measure(&ctx, &groups, &mut log, &mut probe)
        }
    }
}

struct Ctx<'a> {
    wl: &'a Workload,
    opts: &'a Options,
    setup: &'a Setup,
    more_setup: &'a dyn Fn(&mut Probe) -> Result<(), String>,
    draw: &'a [String],
    reference: Option<&'a [verify::Verdict]>,
    /// Resident memory of the host probe, MiB.
    probe_mb: f64,
}

fn budget(opts: &Options) -> Budget {
    match opts.rounds {
        Some(n) => Budget::Rounds(n),
        None => Budget::Seconds(opts.seconds),
    }
}

fn unresolved<P>(solved: &[Solved<P>]) -> usize {
    solved
        .iter()
        .filter(|s| matches!(s.outcome, pda_tracer::Outcome::Unresolved(_)))
        .count()
}

fn measure<C>(
    ctx: &Ctx<'_>,
    groups: &[Group<'_, C>],
    log: &mut SpanLog,
    probe: &mut Probe,
) -> Result<Outcome, String>
where
    C: pda_tracer::TracerClient + Sync,
    C::Param: Send,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    if ctx.opts.trace {
        let traced = run_traced(groups, ctx.wl, log)?;
        // One untraced round of the same work gives the tracing overhead:
        // the production calls with span timing on against the same calls
        // with it off, unit by unit.
        let plain = run_plain(groups, ctx.wl, Budget::Rounds(1), probe, &|_| Ok(()))?;
        let untraced_s = plain[0].unit_us.iter().sum::<u64>() as f64 / 1e6;
        let mut all = traced.solved.clone();
        all.extend(plain.iter().flat_map(|r| r.solved.iter().cloned()));
        let check = verify::check(groups, ctx.wl, &all, ctx.reference);
        let out = traced_outcome(ctx, &traced, untraced_s, check);
        if ctx.opts.write_files {
            write_out(ctx, &out, Some(log))?;
        }
        Ok(out)
    } else {
        let rounds = run_plain(groups, ctx.wl, budget(ctx.opts), probe, ctx.more_setup)?;
        let all: Vec<Solved<C::Param>> = rounds
            .iter()
            .flat_map(|r| r.solved.iter().cloned())
            .collect();
        let check = verify::check(groups, ctx.wl, &all, ctx.reference);
        let out = plain_outcome(ctx, &rounds, &all, check, probe)?;
        if ctx.opts.write_files {
            write_out(ctx, &out, None)?;
        }
        Ok(out)
    }
}

fn verdicts<P>(solved: &[Solved<P>]) -> Vec<(usize, verify::Verdict)> {
    solved
        .iter()
        .map(|s| (s.id, verify::verdict_of(&s.outcome)))
        .collect()
}

fn plain_outcome<P>(
    ctx: &Ctx<'_>,
    rounds: &[Round<P>],
    all: &[Solved<P>],
    check: verify::Check,
    probe: &Probe,
) -> Result<Outcome, String> {
    // Every round solves the same queries in the same order. Each time is
    // first scaled to the reference host speed by the probe samples around
    // it, which removes most of the host's slow phases. One at a time, what
    // is left of interference only slows a query down, so each unit's time
    // is its fastest scaled time over the rounds. A batch's time also
    // varies with its thread schedule (which worker runs a shared forward
    // run, which one waits), which is part of what its user waits for, so
    // a batch and its queries take their median scaled time instead. The
    // time of one pass is the sum over units (a query, or a batch). The
    // unscaled figures go to the provenance record beside them.
    let n = rounds[0].solved.len();
    let batch = ctx.wl.jobs > 1;
    let per_round =
        |pick: &dyn Fn(&[f64]) -> f64, of: &dyn Fn(&Round<P>, usize) -> f64, len: usize| {
            (0..len)
                .map(|j| pick(&rounds.iter().map(|r| of(r, j)).collect::<Vec<_>>()))
                .collect::<Vec<f64>>()
        };
    let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let pick = |xs: &[f64]| if batch { median(xs) } else { fastest(xs) };
    let raw_latency = |r: &Round<P>, j: usize| r.solved[j].latency_us as f64 / 1e3;
    let latency = |r: &Round<P>, j: usize| raw_latency(r, j) * probe.scale_at(r.solved[j].at_s);
    let raw_unit = |r: &Round<P>, u: usize| r.unit_us[u] as f64 / 1e6;
    let unit = |r: &Round<P>, u: usize| raw_unit(r, u) * probe.scale_at(r.unit_at_s[u]);
    let units = rounds[0].unit_us.len();
    let lat_ms = per_round(&pick, &latency, n);
    let pass_s: f64 = per_round(&pick, &unit, units).iter().sum();
    let raw_pass_s: f64 = per_round(&pick, &raw_unit, units).iter().sum();
    let raw_p50_ms = median(&per_round(&pick, &raw_latency, n));
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    // CPU per pass: the run's process CPU per wall second (both grow
    // together under interference) times the time of one pass.
    let utilisation = cpus.iter().sum::<f64>() / walls.iter().sum::<f64>();
    let (tail_p, tail_ms, beyond) = report::tail(&lat_ms);
    let failed = unresolved(all);
    let setup_scaled = ctx.setup.scaled_s(probe);
    let setup_s = median(&setup_scaled);
    let metrics = vec![
        metric("throughput_qps", n as f64 / pass_s, "1/s"),
        metric("query_p50_ms", median(&lat_ms), "ms"),
        metric("query_tail_ms", tail_ms, "ms"),
        metric("cpu_s", utilisation * pass_s, "s"),
        metric("peak_rss_mb", procfs::peak_rss_mb()? - ctx.probe_mb, "MB"),
        metric("setup_s", setup_s, "s"),
        metric(
            "decided_ratio",
            (all.len() - failed) as f64 / all.len() as f64,
            "ratio",
        ),
        metric(
            "verdict_ratio",
            check.passed as f64 / check.checked.max(1) as f64,
            "ratio",
        ),
    ];
    let provenance = format!(
        "\"queries_per_round\": {n}, \"rounds\": {}, \"round_wall_s\": [{}], \
         \"round_cpu_s\": [{}], \"pass_s\": {}, \"unscaled_pass_s\": {}, \
         \"unscaled_query_p50_ms\": {}, \"probe_samples\": {}, \"probe_median_ms\": {}, \
         \"probe_nominal_ms\": {}, \"probe_resident_mb\": {}, \"unit_pick\": {}, \
         \"setup_scaled_s\": [{}], \
         \"tail_percentile\": {tail_p}, \"tail_samples_beyond\": {beyond}, \
         \"reverified_proofs\": {}, \"optimality_checked\": {}",
        rounds.len(),
        walls
            .iter()
            .map(|w| report::json_num(*w))
            .collect::<Vec<_>>()
            .join(", "),
        cpus.iter()
            .map(|w| report::json_num(*w))
            .collect::<Vec<_>>()
            .join(", "),
        report::json_num(pass_s),
        report::json_num(raw_pass_s),
        report::json_num(raw_p50_ms),
        probe.samples.len(),
        report::json_num(probe.median_ms()),
        report::json_num(host::NOMINAL_MS),
        report::json_num(ctx.probe_mb),
        report::json_str(if batch { "median" } else { "fastest" }),
        setup_scaled
            .iter()
            .map(|x| report::json_num(*x))
            .collect::<Vec<_>>()
            .join(", "),
        check.reverified,
        check.optimality_checked
    );
    Ok(Outcome {
        correct: check.errors.is_empty(),
        attempted: all.len(),
        failed,
        metrics,
        errors: check.errors,
        counts: Vec::new(),
        verdicts: verdicts(all),
        provenance,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn traced_outcome<P>(
    ctx: &Ctx<'_>,
    traced: &TracedRun<P>,
    untraced_s: f64,
    check: verify::Check,
) -> Outcome {
    let n = traced.solved.len();
    let nq = n.max(1) as f64;
    let r = &traced.replay;
    let ms = |us: u64| us as f64 / 1e3;
    let per_q = |x: u64| x as f64 / nq;
    let per_q_ms = |us: u64| ms(us) / nq;
    let s = ctx.setup;
    let first = s.reps.borrow()[0].clone();
    let self_us = traced.solve_us as f64 - (r.dataflow_us() + r.backward_us + r.solver_us) as f64;
    let (pf, pb, ps) = production_layers(&traced.obs);
    let meta = &r.meta;
    let failed = unresolved(&traced.solved);
    let metrics = vec![
        metric("lang.parse_ms", s.median_of(|t| ms(t.parse_us)), "ms"),
        metric("lang.cfg_nodes", first.cfg_nodes as f64, "count"),
        metric(
            "analysis.pointsto_ms",
            s.median_of(|t| ms(t.pointsto_us)),
            "ms",
        ),
        metric("analysis.reach_ms", s.median_of(|t| ms(t.reach_us)), "ms"),
        metric(
            "analysis.reachable_methods",
            first.reachable_methods as f64,
            "count",
        ),
        metric("client.build_ms", s.median_of(|t| ms(t.client_us)), "ms"),
        metric("client.queries", first.queries as f64, "count"),
        metric("dataflow.forward_ms", per_q_ms(r.forward_us), "ms/query"),
        metric(
            "dataflow.forward_runs",
            per_q(r.forward_runs),
            "count/query",
        ),
        metric("dataflow.facts", per_q(r.facts), "count/query"),
        metric(
            "dataflow.facts_per_ms",
            ratio(r.facts as f64, ms(r.forward_us)),
            "1/ms",
        ),
        metric("dataflow.witness_ms", per_q_ms(r.witness_us), "ms/query"),
        metric(
            "dataflow.trace_len",
            ratio(r.trace_steps as f64, r.traces as f64),
            "steps",
        ),
        metric("dataflow.too_big", per_q(r.too_big), "count/query"),
        metric("meta.backward_ms", per_q_ms(r.backward_us), "ms/query"),
        metric("meta.cubes_built", per_q(meta.cubes_built), "count/query"),
        metric("meta.approx_drops", per_q(meta.approx_drops), "count/query"),
        metric(
            "meta.wp_hit_ratio",
            ratio(meta.wp_hits as f64, (meta.wp_hits + meta.wp_misses) as f64),
            "ratio",
        ),
        metric(
            "meta.fast_reject_ratio",
            ratio(meta.fast_rejects as f64, meta.subsumption_checks as f64),
            "ratio",
        ),
        metric("solver.ms", per_q_ms(r.solver_us), "ms/query"),
        metric("solver.calls", per_q(r.solver_calls), "count/query"),
        metric("solver.nodes", per_q(r.solver_nodes), "count/query"),
        metric("core.solve_ms", per_q_ms(traced.solve_us), "ms/query"),
        metric("core.self_ms", self_us / 1e3 / nq, "ms/query"),
        metric("core.iterations", per_q(r.iterations), "count/query"),
        metric("core.unresolved", per_q(failed as u64), "count/query"),
        metric("core.cache_hits", per_q(traced.cache.hits), "count/query"),
        metric(
            "core.cache_misses",
            per_q(traced.cache.misses),
            "count/query",
        ),
        metric(
            "core.forward_runs_distinct",
            per_q(traced.distinct_runs),
            "count/query",
        ),
        metric(
            "core.lock_wait_ms",
            per_q_ms(traced.lock_wait_us),
            "ms/query",
        ),
        metric(
            "core.worker_busy_ratio",
            ratio(traced.busy_us as f64, traced.capacity_us as f64),
            "ratio",
        ),
        metric("core.queries", n as f64, "count"),
        metric(
            "core.trace_overhead",
            ratio(traced.solve_wall_s, untraced_s),
            "ratio",
        ),
        metric(
            "core.replay_forward_ratio",
            ratio(r.forward_us as f64, pf as f64),
            "ratio",
        ),
        metric(
            "core.replay_backward_ratio",
            ratio(r.backward_us as f64, pb as f64),
            "ratio",
        ),
        metric(
            "core.replay_solver_ratio",
            ratio(r.solver_us as f64, ps as f64),
            "ratio",
        ),
    ];
    let counts = vec![
        ("core.iterations", r.iterations),
        ("dataflow.facts", r.facts),
        ("dataflow.forward_runs", r.forward_runs),
        ("meta.cubes_built", meta.cubes_built),
        ("solver.nodes", r.solver_nodes),
        ("core.forward_runs_distinct", traced.distinct_runs),
        ("core.cache_hits", traced.cache.hits),
        ("core.cache_misses", traced.cache.misses),
        ("core.queries", n as u64),
        ("dataflow.traces", r.traces),
        ("production.iterations", traced.obs.get(Counter::Iterations)),
        (
            "production.forward_spans",
            traced.obs.span_stats(SpanKind::Forward).count,
        ),
        (
            "production.backward_spans",
            traced.obs.span_stats(SpanKind::Backward).count,
        ),
    ];
    let solve = traced.solve_us as f64;
    let shares = format!(
        "{{\"dataflow\": {}, \"meta\": {}, \"solver\": {}, \"core_self\": {}}}",
        report::json_num(ratio(r.dataflow_us() as f64, solve)),
        report::json_num(ratio(r.backward_us as f64, solve)),
        report::json_num(ratio(r.solver_us as f64, solve)),
        report::json_num(ratio(self_us, solve)),
    );
    let mut errors = check.errors;
    errors.extend(traced.mismatches.iter().cloned());
    let provenance = format!(
        "\"queries_per_round\": {n}, \"traced_solve_s\": {}, \"untraced_solve_s\": {}, \
         \"replay_s\": {}, \"layer_shares\": {shares}, \"replay_mismatches\": {}, \
         \"reverified_proofs\": {}",
        report::json_num(traced.solve_wall_s),
        report::json_num(untraced_s),
        report::json_num(traced.replay_wall_s),
        traced.mismatches.len(),
        check.reverified
    );
    Outcome {
        correct: errors.is_empty(),
        attempted: n,
        failed,
        metrics,
        errors,
        counts,
        verdicts: verdicts(&traced.solved),
        provenance,
    }
}

fn write_out(ctx: &Ctx<'_>, out: &Outcome, log: Option<&SpanLog>) -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        ctx.wl.name,
        ctx.opts.seed,
        u8::from(ctx.opts.trace)
    );
    if let Some(log) = log {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        log.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let root = repo_root();
    let setup_reps: Vec<String> = ctx
        .setup
        .reps
        .borrow()
        .iter()
        .map(|t| report::json_num(t.total_s()))
        .collect();
    let draw: Vec<String> = ctx.draw.iter().map(|d| report::json_str(d)).collect();
    let text = format!(
        "{{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"host_cores\": {}, \
         \"git_revision\": {}, \"source_digest\": {}, \"jobs\": {}, \"max_iters\": {}, \
         \"max_facts\": {}, \"setup_reps_s\": [{}], {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}, \"errors\": [{}], \"draw\": [{}]}}\n",
        report::json_str(ctx.wl.name),
        report::json_str(ctx.wl.why),
        ctx.opts.seed,
        report::json_num(ctx.opts.seconds),
        pda_tracer::default_jobs(),
        report::git_revision(&root).map_or("null".to_string(), |r| report::json_str(&r)),
        report::json_str(&report::source_digest(&root)),
        ctx.wl.jobs,
        ctx.wl.max_iters,
        ctx.wl.max_facts,
        setup_reps.join(", "),
        out.provenance,
        out.correct,
        out.attempted,
        out.failed,
        report::metrics_json(&out.metrics),
        out.errors
            .iter()
            .map(|e| report::json_str(e))
            .collect::<Vec<_>>()
            .join(", "),
        draw.join(", "),
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Solves every query of the reference seed's draw once, checks every
/// proof, and writes the reference verdicts.
///
/// # Errors
///
/// Returns a message when a check fails or the file cannot be written.
pub fn write_reference(wl: &Workload) -> Result<usize, String> {
    let opts = Options {
        seed: workload::REFERENCE_SEED,
        seconds: 0.0,
        trace: false,
        programs: None,
        rounds: Some(1),
        write_files: false,
    };
    // The reference draw, solved without the reference it is about to
    // become.
    let out = execute_checked(wl, &opts, false)?;
    if !out.errors.is_empty() {
        return Err(out.errors.join("\n"));
    }
    let mut by_id: Vec<Option<verify::Verdict>> = Vec::new();
    for (id, v) in out.verdicts {
        if by_id.len() <= id {
            by_id.resize(id + 1, None);
        }
        by_id[id] = Some(v);
    }
    let all: Vec<verify::Verdict> = by_id
        .into_iter()
        .map(|v| v.ok_or("a query was not solved"))
        .collect::<Result<_, _>>()?;
    verify::write_reference(wl, wl.programs, &all)?;
    Ok(all.len())
}

/// Lists the escape programs of `shape` with generator seeds in `seeds`
/// whose every access query decides within the escape workloads' budgets
/// and whose queries take at most [`workload::POOL_MAX_FACTS`] forward
/// facts in all, as `shape seed iterations facts` pool lines: the CEGAR
/// iterations and forward facts one pass over the program's queries takes,
/// counted by the replay (deterministic).
///
/// # Errors
///
/// Returns a message for an unknown shape or a program that fails to load.
pub fn vet_escape(shape: &str, seeds: std::ops::Range<u64>) -> Result<Vec<String>, String> {
    let wl = Workload::named("escape-forward").expect("escape-forward exists");
    let base = pda_suite::suite()
        .into_iter()
        .find(|c| c.name == shape)
        .ok_or_else(|| format!("unknown shape {shape}"))?;
    let cfg = wl.tracer();
    let mut lines = Vec::new();
    for seed in seeds {
        let gen = pda_suite::GenConfig {
            seed,
            ..base.clone()
        };
        let src = pda_suite::generate_source(&gen);
        let mut log = SpanLog::new(false);
        let mut times = SetupTimes::default();
        let benches = load(std::slice::from_ref(&gen), &[src], &mut log, &mut times)?;
        let groups = escape_groups(&benches, &mut log, &mut times);
        let mut totals = replay::LayerTotals::default();
        let decided = groups.iter().all(|g| {
            g.queries.iter().all(|q| {
                let r = replay::replay_query(
                    &g.bench.program,
                    &|c| g.callees(c),
                    &g.client,
                    q,
                    &cfg,
                    None,
                    &mut log,
                    None,
                    0,
                    &mut totals,
                );
                !matches!(r.outcome, pda_tracer::Outcome::Unresolved(_))
            })
        });
        if decided && times.queries > 0 && totals.facts <= workload::POOL_MAX_FACTS {
            lines.push(format!(
                "{shape} {seed} {} {}",
                totals.iterations, totals.facts
            ));
        }
    }
    Ok(lines)
}

/// Times every program of the escape pool at `path` under the escape
/// budgets: one pass over its queries through `solve_query`, and its queries
/// as one `solve_queries_batch` at `escape-shared`'s `jobs`, each the
/// fastest of [`POOL_TIMING_PASSES`] at the reference host speed. Returns
/// the pool's program lines with the two time columns (ms) filled in.
///
/// # Errors
///
/// Returns a message when the file cannot be read or a program fails to
/// load.
pub fn time_pool(path: &std::path::Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let wl = Workload::named("escape-forward").expect("escape-forward exists");
    let shared = Workload::named("escape-shared").expect("escape-shared exists");
    let cfg = wl.tracer();
    let bcfg = pda_tracer::BatchConfig {
        tracer: shared.tracer(),
        jobs: shared.jobs,
        ..pda_tracer::BatchConfig::default()
    };
    let shapes = pda_suite::suite();
    let mut probe = Probe::new(1);
    let mut batch_probe = Probe::new(shared.jobs);
    let mut lines = Vec::new();
    for e in workload::parse_pool(&text) {
        let base = shapes
            .iter()
            .find(|c| c.name == e.shape)
            .ok_or_else(|| format!("unknown shape {}", e.shape))?;
        let gen = pda_suite::GenConfig {
            seed: e.seed,
            ..base.clone()
        };
        let src = pda_suite::generate_source(&gen);
        let mut log = SpanLog::new(false);
        let mut times = SetupTimes::default();
        let benches = load(std::slice::from_ref(&gen), &[src], &mut log, &mut times)?;
        let groups = escape_groups(&benches, &mut log, &mut times);
        let timed = |probe: &mut Probe, work: &dyn Fn()| -> Result<f64, String> {
            let mut best = f64::INFINITY;
            for _ in 0..POOL_TIMING_PASSES {
                probe.sample()?;
                let at = probe.now();
                let t = std::time::Instant::now();
                work();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                probe.sample()?;
                best = best.min(ms * probe.scale_at(at));
            }
            Ok(best)
        };
        let ms = timed(&mut probe, &|| {
            for g in &groups {
                for q in &g.queries {
                    pda_tracer::solve_query(
                        &g.bench.program,
                        &|c| g.callees(c),
                        &g.client,
                        q,
                        &cfg,
                    );
                }
            }
        })?;
        let batch_ms = timed(&mut batch_probe, &|| {
            for g in &groups {
                pda_tracer::solve_queries_batch(
                    &g.bench.program,
                    &|c| g.callees(c),
                    &g.client,
                    &g.queries,
                    &bcfg,
                );
            }
        })?;
        lines.push(format!(
            "{} {} {} {} {ms:.3} {batch_ms:.3}",
            e.shape, e.seed, e.iterations, e.facts
        ));
    }
    Ok(lines)
}

/// Passes per program when timing the escape pool.
pub const POOL_TIMING_PASSES: usize = 3;
