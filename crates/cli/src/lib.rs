//! Library backing the `pda` command-line tool.
//!
//! Subcommands:
//!
//! * `pda check <file.jay>` — parse, resolve, validate; print program
//!   statistics.
//! * `pda queries <file.jay>` — list the source queries with their kinds.
//! * `pda solve <file.jay> [--query LABEL] [--k N] [--max-iters N]
//!   [--jobs N] [--deadline MS] [--escalate N] [--mem-budget BYTES]
//!   [--retry-faults N] [--checkpoint PATH] [--trace OUT.jsonl]
//!   [--metrics] [--fault-plan PLAN]`
//!   — run TRACER on one labeled query (or all), choosing the client by
//!   the query kind (`local` → thread-escape, `state` → type-state).
//!   `--trace` streams the structured JSONL event log to a file;
//!   `--metrics` appends the per-span latency table to the report.
//! * `pda gen <benchmark>` — print a generated suite benchmark's source.
//!
//! The heavy lifting lives in the workspace crates; this module only
//! parses arguments and formats reports, and is unit-tested directly.
//! Failures are typed ([`CliError`]) so `main` can map them to exit
//! codes: usage mistakes exit 2, everything else exits 1.

#![warn(missing_docs)]

use pda_analysis::{PointsTo, Reachability};
use pda_escape::EscapeClient;
use pda_meta::BeamConfig;
use pda_tracer::{
    default_jobs, outcome_tag, solve_queries_batch_checkpointed_traced, solve_queries_batch_traced,
    solve_query, BatchConfig, Escalation, Outcome, QueryObs, Session, TracerConfig,
};
use pda_typestate::TypestateClient;
use pda_util::{Event, FileSink, Idx, ObsRegistry, TraceSink};
use std::fmt;
use std::fmt::Write as _;

/// Appends a report line; `fmt::Write` to a `String` cannot fail, so the
/// result is deliberately discarded instead of unwrapped.
macro_rules! out {
    ($dst:expr, $($arg:tt)*) => {{ let _ = writeln!($dst, $($arg)*); }};
}

/// Everything that can go wrong running the tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself is malformed (exit code 2).
    Usage(String),
    /// The input program is unreadable, unparsable, or ill-formed.
    Input(String),
    /// A checkpoint file could not be created, read, or trusted.
    Checkpoint(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) | CliError::Checkpoint(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Input(m) => write!(f, "{m}"),
            CliError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

fn usage<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `pda check <file>`
    Check {
        /// Input path.
        file: String,
    },
    /// `pda queries <file>`
    Queries {
        /// Input path.
        file: String,
    },
    /// `pda solve <file> [--query LABEL] [--k N] [--max-iters N]
    /// [--jobs N] [--deadline MS] [--escalate N] [--mem-budget BYTES]
    /// [--retry-faults N] [--checkpoint PATH] [--trace PATH] [--metrics]
    /// [--fault-plan PLAN]`
    Solve {
        /// Input path.
        file: String,
        /// Restrict to one labeled query.
        query: Option<String>,
        /// Beam width.
        k: usize,
        /// Iteration budget.
        max_iters: usize,
        /// Worker threads (1 = today's sequential driver; default = the
        /// machine's available parallelism).
        jobs: usize,
        /// Per-query wall-clock deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Fact-budget escalation retries on forward-run `TooBig`.
        escalate: Option<u32>,
        /// Per-query memory budget in estimated bytes (accepts `k`/`m`/`g`
        /// suffixes).
        mem_budget: Option<u64>,
        /// Retry transiently faulted queries up to N times on the
        /// deterministic backoff ladder.
        retry_faults: Option<u32>,
        /// Checkpoint file: resume finished thread-escape queries from it
        /// and stream new results into it.
        checkpoint: Option<String>,
        /// Structured JSONL trace output path.
        trace: Option<String>,
        /// Append the per-span latency table to the report (and enable
        /// span wall-clock measurement).
        metrics: bool,
        /// Deterministic fault plan armed for the run (chaos testing;
        /// `point@hit=action` entries or `seed:N`, see `pda_util::faultplane`).
        fault_plan: Option<String>,
    },
    /// `pda serve <file> [--socket PATH] [--journal PATH] [--jobs N]
    /// [--deadline MS] [--retry-faults N] [--k N] [--max-iters N]
    /// [--trace PATH] [--allow-inject] [--fault-plan PLAN]
    /// [--watchdog-ms MS]`
    Serve {
        /// Input path.
        file: String,
        /// Unix-socket path; omitted = serve one JSONL session on
        /// stdin/stdout.
        socket: Option<String>,
        /// Journal (batch checkpoint) path for crash-safe resume.
        journal: Option<String>,
        /// Worker threads for the `batch` op.
        jobs: usize,
        /// Default per-request wall-clock deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Retry transient faults (including deadline hits) up to N
        /// times per request on the deterministic backoff ladder.
        retry_faults: Option<u32>,
        /// Beam width.
        k: usize,
        /// Iteration budget.
        max_iters: usize,
        /// Structured JSONL trace output path (per-request obs spans).
        trace: Option<String>,
        /// Honor `"inject":"panic"` requests (tests and CI only).
        allow_inject: bool,
        /// Deterministic fault plan armed for the daemon's life.
        fault_plan: Option<String>,
        /// Abandon solve attempts that make no heartbeat progress for
        /// this many milliseconds (`engine_stall` + quarantine).
        watchdog_ms: Option<u64>,
    },
    /// `pda request <socket> <json-line>` — one-shot daemon client.
    Request {
        /// Daemon socket path.
        socket: String,
        /// The request line to send.
        line: String,
    },
    /// `pda gen <benchmark>`
    Gen {
        /// Suite benchmark name (tsp, elevator, ...).
        name: String,
    },
    /// `pda help` or no/invalid arguments.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
pda — optimum abstractions for parametric dataflow analysis (PLDI'13)

USAGE:
    pda check   <file.jay>                 parse, validate, report stats
    pda queries <file.jay>                 list source queries
    pda solve   <file.jay> [--query LABEL] [--k N] [--max-iters N] [--jobs N]
                [--deadline MS] [--escalate N] [--mem-budget BYTES]
                [--retry-faults N] [--checkpoint PATH] [--trace PATH]
                [--metrics] [--fault-plan PLAN]
                                           find optimum abstractions
                                           (--jobs 1 = sequential; default:
                                           available parallelism, batched
                                           with a shared forward-run cache)
                                           --deadline    per-query wall-clock
                                                         budget, milliseconds
                                           --escalate    retry TooBig forward
                                                         runs N times with a
                                                         4x fact budget each
                                           --mem-budget  per-query memory
                                                         budget in estimated
                                                         bytes (k/m/g ok);
                                                         under pressure the
                                                         governor degrades
                                                         before giving up
                                           --retry-faults retry transiently
                                                         faulted queries up to
                                                         N times on the
                                                         deterministic backoff
                                                         ladder
                                           --checkpoint  stream results to
                                                         PATH; on rerun, skip
                                                         queries already there
                                           --trace       stream structured
                                                         JSONL events to PATH
                                           --metrics     append the per-span
                                                         latency table to the
                                                         report
                                           --fault-plan  arm the deterministic
                                                         fault-injection plane:
                                                         `point@hit=action`
                                                         entries (actions
                                                         panic|stall:MS|
                                                         ioerr[:KIND]|abort)
                                                         or `seed:N[:permille]`
                                                         (env PDA_FAULT_PLAN)
    pda serve   <file.jay> [--socket PATH] [--journal PATH] [--jobs N]
                [--deadline MS] [--retry-faults N] [--k N]
                [--max-iters N] [--trace PATH] [--allow-inject]
                [--fault-plan PLAN] [--watchdog-ms MS]
                                           run the crash-safe analysis daemon
                                           (JSONL over the Unix socket, or
                                           stdin/stdout without --socket);
                                           --journal resumes finished queries
                                           across restarts, SIGTERM drains
                                           gracefully, --allow-inject enables
                                           fault-injection requests,
                                           --fault-plan arms the deterministic
                                           fault plane (env PDA_FAULT_PLAN),
                                           --watchdog-ms abandons solve
                                           attempts with no heartbeat progress
                                           for that long (engine_stall reply +
                                           cache quarantine)
    pda request <socket> <json-line>       send one request to a daemon and
                                           print the response
    pda gen     <benchmark>                print a generated suite program
";

fn parse_num<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, CliError> {
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .map_or_else(|| usage(format!("{flag} needs a number")), Ok)
}

fn parse_size(args: &[String], i: usize, flag: &str) -> Result<u64, CliError> {
    args.get(i + 1)
        .and_then(|v| pda_util::parse_bytes(v))
        .map_or_else(|| usage(format!("{flag} needs a byte size (e.g. 4096, 64k, 2m, 1g)")), Ok)
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// [`CliError::Usage`] on unknown commands, unknown flags, and malformed
/// flag values.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let args: Vec<String> = args.into_iter().collect();
    match args.first().map(String::as_str) {
        Some("check") => match args.get(1) {
            Some(f) => Ok(Command::Check { file: f.clone() }),
            None => usage("check: missing <file>"),
        },
        Some("queries") => match args.get(1) {
            Some(f) => Ok(Command::Queries { file: f.clone() }),
            None => usage("queries: missing <file>"),
        },
        Some("gen") => match args.get(1) {
            Some(n) => Ok(Command::Gen { name: n.clone() }),
            None => usage("gen: missing <benchmark>"),
        },
        Some("solve") => {
            let Some(file) = args.get(1).cloned() else {
                return usage("solve: missing <file>");
            };
            let mut query = None;
            let mut k = 5usize;
            let mut max_iters = 100usize;
            let mut jobs = default_jobs();
            let mut deadline_ms = None;
            let mut escalate = None;
            let mut mem_budget = None;
            let mut retry_faults = None;
            let mut checkpoint = None;
            let mut trace = None;
            let mut metrics = false;
            let mut fault_plan = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--query" => {
                        let Some(label) = args.get(i + 1) else {
                            return usage("--query needs a label");
                        };
                        query = Some(label.clone());
                    }
                    "--k" => k = parse_num(&args, i, "--k")?,
                    "--max-iters" => max_iters = parse_num(&args, i, "--max-iters")?,
                    "--jobs" => jobs = parse_num::<usize>(&args, i, "--jobs")?.max(1),
                    "--deadline" => deadline_ms = Some(parse_num(&args, i, "--deadline")?),
                    "--escalate" => escalate = Some(parse_num(&args, i, "--escalate")?),
                    "--mem-budget" => mem_budget = Some(parse_size(&args, i, "--mem-budget")?),
                    "--retry-faults" => {
                        retry_faults = Some(parse_num(&args, i, "--retry-faults")?);
                    }
                    "--checkpoint" => {
                        let Some(path) = args.get(i + 1) else {
                            return usage("--checkpoint needs a path");
                        };
                        checkpoint = Some(path.clone());
                    }
                    "--trace" => {
                        let Some(path) = args.get(i + 1) else {
                            return usage("--trace needs a path");
                        };
                        trace = Some(path.clone());
                    }
                    "--metrics" => {
                        metrics = true;
                        i += 1;
                        continue;
                    }
                    "--fault-plan" => {
                        let Some(spec) = args.get(i + 1) else {
                            return usage("--fault-plan needs a plan spec");
                        };
                        fault_plan = Some(spec.clone());
                    }
                    other => return usage(format!("solve: unknown flag `{other}`")),
                }
                i += 2;
            }
            Ok(Command::Solve {
                file,
                query,
                k,
                max_iters,
                jobs,
                deadline_ms,
                escalate,
                mem_budget,
                retry_faults,
                checkpoint,
                trace,
                metrics,
                fault_plan,
            })
        }
        Some("serve") => {
            let Some(file) = args.get(1).cloned() else {
                return usage("serve: missing <file>");
            };
            let mut socket = None;
            let mut journal = None;
            let mut jobs = default_jobs();
            let mut deadline_ms = None;
            let mut retry_faults = None;
            let mut k = 5usize;
            let mut max_iters = 100usize;
            let mut trace = None;
            let mut allow_inject = false;
            let mut fault_plan = None;
            let mut watchdog_ms = None;
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--socket" => {
                        let Some(path) = args.get(i + 1) else {
                            return usage("--socket needs a path");
                        };
                        socket = Some(path.clone());
                    }
                    "--journal" => {
                        let Some(path) = args.get(i + 1) else {
                            return usage("--journal needs a path");
                        };
                        journal = Some(path.clone());
                    }
                    "--jobs" => jobs = parse_num::<usize>(&args, i, "--jobs")?.max(1),
                    "--deadline" => deadline_ms = Some(parse_num(&args, i, "--deadline")?),
                    "--retry-faults" => {
                        retry_faults = Some(parse_num(&args, i, "--retry-faults")?);
                    }
                    "--k" => k = parse_num(&args, i, "--k")?,
                    "--max-iters" => max_iters = parse_num(&args, i, "--max-iters")?,
                    "--trace" => {
                        let Some(path) = args.get(i + 1) else {
                            return usage("--trace needs a path");
                        };
                        trace = Some(path.clone());
                    }
                    "--allow-inject" => {
                        allow_inject = true;
                        i += 1;
                        continue;
                    }
                    "--fault-plan" => {
                        let Some(spec) = args.get(i + 1) else {
                            return usage("--fault-plan needs a plan spec");
                        };
                        fault_plan = Some(spec.clone());
                    }
                    "--watchdog-ms" => {
                        watchdog_ms = Some(parse_num::<u64>(&args, i, "--watchdog-ms")?.max(1));
                    }
                    other => return usage(format!("serve: unknown flag `{other}`")),
                }
                i += 2;
            }
            Ok(Command::Serve {
                file,
                socket,
                journal,
                jobs,
                deadline_ms,
                retry_faults,
                k,
                max_iters,
                trace,
                allow_inject,
                fault_plan,
                watchdog_ms,
            })
        }
        Some("request") => match (args.get(1), args.get(2)) {
            (Some(socket), Some(line)) => {
                Ok(Command::Request { socket: socket.clone(), line: line.clone() })
            }
            _ => usage("request: needs <socket> <json-line>"),
        },
        Some("help") | None => Ok(Command::Help),
        Some(other) => usage(format!("unknown command `{other}`")),
    }
}

/// Executes a command against source text, returning the report.
///
/// File access for the *input program* happens in `main`; this function is
/// pure given the source — except for `--checkpoint`, which by design
/// reads and writes its path.
///
/// # Errors
///
/// [`CliError::Input`] for bad programs or unmatched query labels;
/// [`CliError::Checkpoint`] for unusable checkpoint files.
pub fn run_on_source(cmd: &Command, source: &str) -> Result<String, CliError> {
    match cmd {
        Command::Check { .. } => check_report(source),
        Command::Queries { .. } => queries_report(source),
        Command::Solve {
            query,
            k,
            max_iters,
            jobs,
            deadline_ms,
            escalate,
            mem_budget,
            retry_faults,
            checkpoint,
            trace,
            metrics,
            fault_plan,
            ..
        } => {
            arm_fault_plane(fault_plan.as_deref())?;
            let opts = SolveOpts {
                label: query.as_deref(),
                k: *k,
                max_iters: *max_iters,
                jobs: *jobs,
                deadline_ms: *deadline_ms,
                escalate: *escalate,
                mem_budget: *mem_budget,
                retry_faults: *retry_faults,
                checkpoint: checkpoint.as_deref(),
                trace: trace.as_deref(),
                metrics: *metrics,
            };
            let report = solve_report(source, &opts);
            dump_fault_hits();
            report
        }
        Command::Serve { .. } => run_serve(cmd, source),
        Command::Request { socket, line } => {
            pda_serve::request_line(std::path::Path::new(socket), line)
                .map(|r| format!("{r}\n"))
                .map_err(|e| CliError::Input(e.to_string()))
        }
        Command::Gen { name } => {
            let cfg = pda_suite::suite()
                .into_iter()
                .find(|c| c.name == *name)
                .ok_or_else(|| CliError::Input(format!("unknown benchmark `{name}`")))?;
            Ok(pda_suite::generate_source(&cfg))
        }
        Command::Help => Ok(USAGE.to_string()),
    }
}

fn load(source: &str) -> Result<pda_lang::Program, CliError> {
    pda_lang::parse_program(source).map_err(|e| CliError::Input(e.to_string()))
}

/// With the fault plane armed, prints the per-point hit counts the run
/// accumulated to stderr — the `record` plan's output, and the table a
/// plan author reads to pick `point@hit` ordinals for a real plan.
fn dump_fault_hits() {
    if !pda_util::faultplane::armed() {
        return;
    }
    let mut hits = pda_util::faultplane::hits();
    hits.sort();
    eprintln!("fault plane: {} point(s) crossed", hits.len());
    for (point, count) in hits {
        eprintln!("fault plane:   {point} x{count}");
    }
}

/// Arms the global fault-injection plane: an explicit `--fault-plan`
/// wins; otherwise `PDA_FAULT_PLAN` from the environment is consulted;
/// with neither, the plane is left untouched (zero-cost disabled).
fn arm_fault_plane(flag: Option<&str>) -> Result<(), CliError> {
    match flag {
        Some(spec) => pda_util::faultplane::install(spec)
            .map_err(|e| CliError::Usage(format!("--fault-plan: {e}"))),
        None => pda_util::faultplane::install_from_env()
            .map(|_| ())
            .map_err(|e| CliError::Usage(format!("PDA_FAULT_PLAN: {e}"))),
    }
}

fn check_report(source: &str) -> Result<String, CliError> {
    let program = load(source)?;
    let violations = pda_lang::validate::check(&program);
    let pa = PointsTo::analyze(&program);
    let reach = Reachability::compute(&program, &pa);
    let mut out = String::new();
    out!(out, "classes:   {}", program.classes.len());
    out!(out, "methods:   {} ({} reachable)", program.methods.len(), reach.count());
    out!(out, "variables: {}", program.vars.len());
    out!(out, "sites:     {}", program.sites.len());
    out!(out, "queries:   {}", program.queries.len());
    out!(
        out,
        "abstraction families: 2^{} (type-state), 2^{} (thread-escape)",
        program.vars.len(),
        program.sites.len()
    );
    if violations.is_empty() {
        out!(out, "IR: well-formed");
        Ok(out)
    } else {
        for v in &violations {
            out!(out, "violation: {v}");
        }
        Err(CliError::Input(out))
    }
}

fn queries_report(source: &str) -> Result<String, CliError> {
    let program = load(source)?;
    let mut out = String::new();
    for (_, q) in program.queries.iter_enumerated() {
        let line = program.points[q.point].line;
        match &q.kind {
            pda_lang::QueryKind::Local { var } => {
                out!(out, "{}: local {} (line {line})", q.label, program.var_name(*var));
            }
            pda_lang::QueryKind::State { var, allowed } => {
                let names: Vec<&str> =
                    allowed.iter().map(|&n| program.names.resolve(n)).collect();
                out!(
                    out,
                    "{}: state {} in {{{}}} (line {line})",
                    q.label,
                    program.var_name(*var),
                    names.join(", ")
                );
            }
        }
    }
    if out.is_empty() {
        out.push_str("(no queries)\n");
    }
    Ok(out)
}

struct SolveOpts<'a> {
    label: Option<&'a str>,
    k: usize,
    max_iters: usize,
    jobs: usize,
    deadline_ms: Option<u64>,
    escalate: Option<u32>,
    mem_budget: Option<u64>,
    retry_faults: Option<u32>,
    checkpoint: Option<&'a str>,
    trace: Option<&'a str>,
    metrics: bool,
}

/// Runs the analysis daemon until drained; the returned report is the
/// exit summary (the daemon itself writes protocol/status lines).
///
/// Resident queries are the program's thread-escape (`local`) queries in
/// declaration order, matching `solve`'s batch numbering; verdicts are
/// identical to the batch driver's.
fn run_serve(cmd: &Command, source: &str) -> Result<String, CliError> {
    let Command::Serve {
        socket,
        journal,
        jobs,
        deadline_ms,
        retry_faults,
        k,
        max_iters,
        trace,
        allow_inject,
        fault_plan,
        watchdog_ms,
        ..
    } = cmd
    else {
        unreachable!("dispatched on Command::Serve");
    };
    arm_fault_plane(fault_plan.as_deref())?;
    let program = load(source)?;
    let pa = PointsTo::analyze(&program);
    let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
    let client = EscapeClient::new(&program);
    let (labels, queries): (Vec<String>, Vec<_>) = program
        .queries
        .iter_enumerated()
        .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
        .map(|(qid, d)| (d.label.clone(), client.local_query(&program, qid)))
        .unzip();
    if queries.is_empty() {
        return Err(CliError::Input("program has no thread-escape queries to serve".into()));
    }
    let config = pda_serve::ServeConfig {
        tracer: TracerConfig {
            beam: BeamConfig::with_k(*k),
            max_iters: *max_iters,
            ..TracerConfig::default()
        },
        jobs: *jobs,
        deadline_ms: *deadline_ms,
        // Daemon requests run under per-request deadlines, so deadline
        // hits are retried too (each retry gets a fresh budget).
        retry: retry_faults.map(|n| pda_tracer::RetryPolicy {
            retry_deadline: true,
            ..pda_tracer::RetryPolicy::deterministic(n)
        }),
        allow_inject: *allow_inject,
        watchdog_ms: *watchdog_ms,
    };
    let options = pda_serve::DaemonOptions {
        socket: socket.as_ref().map(std::path::PathBuf::from),
        journal: journal.as_ref().map(std::path::PathBuf::from),
        trace: trace.as_ref().map(std::path::PathBuf::from),
    };
    let report =
        pda_serve::run_daemon(&program, &callees, &client, queries, labels, config, &options)
            .map_err(|e| match e {
                pda_serve::ServeError::Journal(m) => CliError::Checkpoint(m),
                pda_serve::ServeError::Io(m) => CliError::Input(m),
            })?;
    Ok(format!(
        "serve: drained cleanly — served={} faults={} quarantines={} watchdog={} resumed={}\n",
        report.served, report.faults, report.quarantines, report.watchdog_fired, report.resumed
    ))
}

fn solve_report(source: &str, opts: &SolveOpts<'_>) -> Result<String, CliError> {
    let program = load(source)?;
    let pa = PointsTo::analyze(&program);
    let config = TracerConfig {
        beam: BeamConfig::with_k(opts.k),
        max_iters: opts.max_iters,
        timeout: opts.deadline_ms.map(std::time::Duration::from_millis),
        escalation: opts
            .escalate
            .map_or_else(Escalation::default, |retries| Escalation { retries, ..Escalation::standard() }),
        mem_budget: opts.mem_budget,
        ..TracerConfig::default()
    };
    let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();

    // Observability: `--trace` streams structured JSONL events, and
    // `--metrics` turns on span wall-clock measurement for the footer
    // table. Either one forces the batched driver below so thread-escape
    // queries get traced uniformly.
    let sink: Option<FileSink> = match opts.trace {
        Some(path) => Some(
            FileSink::create(std::path::Path::new(path))
                .map_err(|e| CliError::Input(format!("trace: {e}")))?,
        ),
        None => None,
    };
    let sink_ref: Option<&dyn TraceSink> = sink.as_ref().map(|s| s as &dyn TraceSink);
    let observing = sink.is_some() || opts.metrics;
    // Span/counter totals from queries solved outside the batch driver
    // (type-state queries), merged into the `--metrics` table at the end.
    let mut extra_obs = ObsRegistry::default();

    // Thread-escape queries (which share one client) run upfront as one
    // batch with a shared forward-run cache whenever there are two or more
    // of them — sibling queries then share forward runs at any `--jobs`,
    // and jobs=1 runs the batch inline — and also for a lone query when
    // batching buys something else: parallelism, checkpoint/resume (the
    // checkpoint streams per-query batch results), or observability.
    // Per-query verdicts are identical to the sequential driver and get
    // rendered below in declaration order. The `batch:` footer is printed
    // only when one of those options asked for the batch driver, so a
    // plain jobs=1 report keeps its verdict lines and nothing else.
    let mut batched: Vec<(pda_lang::QueryId, pda_tracer::QueryResult<pda_util::BitSet>)> =
        Vec::new();
    let mut batch_stats = None;
    let client = EscapeClient::new(&program);
    let local: Vec<pda_lang::QueryId> = program
        .queries
        .iter_enumerated()
        .filter(|(_, d)| opts.label.is_none_or(|want| d.label == want))
        .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
        .map(|(qid, _)| qid)
        .collect();
    let footer = opts.jobs > 1 || opts.checkpoint.is_some() || opts.retry_faults.is_some() || observing;
    if footer || local.len() >= 2 {
        let queries: Vec<_> = local.iter().map(|&qid| client.local_query(&program, qid)).collect();
        if !queries.is_empty() {
            let batch = BatchConfig {
                tracer: config.clone(),
                jobs: opts.jobs,
                timed: opts.metrics,
                retry: opts.retry_faults.map(pda_tracer::RetryPolicy::deterministic),
                ..BatchConfig::default()
            };
            let (results, stats) = match opts.checkpoint {
                Some(path) => solve_queries_batch_checkpointed_traced(
                    &program,
                    &callees,
                    &client,
                    &queries,
                    &batch,
                    std::path::Path::new(path),
                    sink_ref,
                )
                .map_err(|e| CliError::Checkpoint(e.to_string()))?,
                None => solve_queries_batch_traced(
                    &program,
                    &callees,
                    &client,
                    &queries,
                    &batch,
                    sink_ref,
                ),
            };
            batched = local.into_iter().zip(results).collect();
            batch_stats = footer.then_some(stats);
        }
    }
    // Type-state queries below continue the trace's query numbering after
    // the batch.
    let mut next_query = batched.len() as u64;

    let mut out = String::new();
    let mut matched = false;
    for (qid, decl) in program.queries.iter_enumerated() {
        if let Some(want) = opts.label {
            if decl.label != want {
                continue;
            }
        }
        matched = true;
        match &decl.kind {
            pda_lang::QueryKind::Local { .. } => {
                let r = match batched.iter().position(|(id, _)| *id == qid) {
                    Some(i) => batched.swap_remove(i).1,
                    None => {
                        let query = client.local_query(&program, qid);
                        solve_query(&program, &callees, &client, &query, &config)
                    }
                };
                render(&mut out, &decl.label, "thread-escape", &r, |i| {
                    format!("site {}", program.site_label(pda_lang::SiteId::from_usize(i)))
                });
            }
            pda_lang::QueryKind::State { var, .. } => {
                let sites: Vec<pda_lang::SiteId> = pa
                    .pts_var(*var)
                    .iter()
                    .map(pda_lang::SiteId::from_usize)
                    .collect();
                if sites.is_empty() {
                    out!(out, "{}: vacuous (receiver points nowhere)", decl.label);
                }
                for site in sites {
                    let Some(client) =
                        TypestateClient::for_declared_automaton(&program, &pa, site)
                    else {
                        out!(
                            out,
                            "{}: site {} has no typestate declaration",
                            decl.label,
                            program.site_label(site)
                        );
                        continue;
                    };
                    let query = client.state_query(qid);
                    let r = if observing {
                        let mut qobs = QueryObs::new(next_query, sink.is_some(), opts.metrics);
                        let r = Session::new(&program, &callees, &client, &query, &config)
                            .observe(&mut qobs)
                            .run();
                        if let Some(s) = &sink {
                            for ev in &qobs.events {
                                s.emit(ev);
                            }
                            s.emit(&Event::QueryResolved {
                                query: next_query,
                                outcome: outcome_tag(&r.outcome).to_string(),
                                iterations: r.iterations as u64,
                            });
                        }
                        extra_obs.merge(&qobs.reg);
                        next_query += 1;
                        r
                    } else {
                        solve_query(&program, &callees, &client, &query, &config)
                    };
                    let tag = format!("{} @ {}", decl.label, program.site_label(site));
                    render(&mut out, &tag, "type-state", &r, |i| {
                        program.var_name(pda_lang::VarId(i as u32)).to_string()
                    });
                }
            }
        }
    }
    if !matched {
        return Err(CliError::Input(match opts.label {
            Some(l) => format!("no query labeled `{l}`"),
            None => "program has no queries".to_string(),
        }));
    }
    if let Some(stats) = &batch_stats {
        out!(out, "batch: {stats}");
    }
    if opts.metrics {
        let mut reg = batch_stats.map(|s| s.to_obs()).unwrap_or_default();
        reg.merge(&extra_obs);
        out!(out, "{}", reg.render_spans());
    }
    if let Some(s) = &sink {
        s.flush();
    }
    Ok(out)
}

fn render(
    out: &mut String,
    label: &str,
    analysis: &str,
    r: &pda_tracer::QueryResult<pda_util::BitSet>,
    atom_name: impl Fn(usize) -> String,
) {
    match &r.outcome {
        Outcome::Proven { param, cost } => {
            let parts: Vec<String> = param.iter().map(atom_name).collect();
            out!(
                out,
                "{label} [{analysis}]: PROVEN, optimum |p| = {cost} {{{}}} ({} iterations)",
                parts.join(", "),
                r.iterations
            );
        }
        Outcome::Impossible => {
            out!(
                out,
                "{label} [{analysis}]: IMPOSSIBLE for every abstraction ({} iterations)",
                r.iterations
            );
        }
        Outcome::Unresolved(u) => {
            out!(out, "{label} [{analysis}]: unresolved ({u})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        global g;
        class File { fn open(); fn close(); }
        typestate File {
            init closed;
            closed -> open -> opened;
            opened -> close -> closed;
            opened -> open -> error;
            closed -> close -> error;
        }
        class Box { field item; }
        fn main() {
            var f, b, x;
            f = new File;
            f.open();
            f.close();
            b = new Box;
            x = new Box;
            b.item = x;
            query protocol: state f in { closed };
            query localx: local x;
            if (*) { g = b; }
        }
    "#;

    fn solve_cmd(query: Option<&str>, jobs: usize) -> Command {
        solve_cmd_full(query, jobs, None, None)
    }

    fn solve_cmd_full(
        query: Option<&str>,
        jobs: usize,
        deadline_ms: Option<u64>,
        checkpoint: Option<String>,
    ) -> Command {
        Command::Solve {
            file: String::new(),
            query: query.map(String::from),
            k: 5,
            max_iters: 50,
            jobs,
            deadline_ms,
            escalate: None,
            mem_budget: None,
            retry_faults: None,
            checkpoint,
            trace: None,
            metrics: false,
            fault_plan: None,
        }
    }

    #[test]
    fn parse_args_all_commands() {
        let a = |xs: &[&str]| parse_args(xs.iter().map(|s| s.to_string()));
        assert_eq!(a(&["check", "f.jay"]).unwrap(), Command::Check { file: "f.jay".into() });
        assert_eq!(a(&["queries", "f.jay"]).unwrap(), Command::Queries { file: "f.jay".into() });
        assert_eq!(a(&["gen", "tsp"]).unwrap(), Command::Gen { name: "tsp".into() });
        assert_eq!(
            a(&["solve", "f.jay", "--query", "q", "--k", "3", "--max-iters", "9"]).unwrap(),
            Command::Solve {
                file: "f.jay".into(),
                query: Some("q".into()),
                k: 3,
                max_iters: 9,
                jobs: default_jobs(),
                deadline_ms: None,
                escalate: None,
                mem_budget: None,
                retry_faults: None,
                checkpoint: None,
                trace: None,
                metrics: false,
                    fault_plan: None,
            }
        );
        assert_eq!(
            a(&[
                "solve", "f.jay", "--jobs", "4", "--deadline", "250", "--escalate", "2",
                "--mem-budget", "64k", "--retry-faults", "3",
                "--checkpoint", "state.jsonl", "--metrics", "--trace", "out.jsonl",
                "--fault-plan", "journal.write@2=ioerr:perm"
            ])
            .unwrap(),
            Command::Solve {
                file: "f.jay".into(),
                query: None,
                k: 5,
                max_iters: 100,
                jobs: 4,
                deadline_ms: Some(250),
                escalate: Some(2),
                mem_budget: Some(64 << 10),
                retry_faults: Some(3),
                checkpoint: Some("state.jsonl".into()),
                trace: Some("out.jsonl".into()),
                metrics: true,
                fault_plan: Some("journal.write@2=ioerr:perm".into()),
            }
        );
        assert_eq!(
            a(&[
                "serve", "f.jay", "--socket", "/tmp/pda.sock", "--journal", "j.jsonl",
                "--jobs", "2", "--deadline", "500", "--retry-faults", "1",
                "--allow-inject", "--trace", "t.jsonl",
                "--watchdog-ms", "200", "--fault-plan", "record"
            ])
            .unwrap(),
            Command::Serve {
                file: "f.jay".into(),
                socket: Some("/tmp/pda.sock".into()),
                journal: Some("j.jsonl".into()),
                jobs: 2,
                deadline_ms: Some(500),
                retry_faults: Some(1),
                k: 5,
                max_iters: 100,
                trace: Some("t.jsonl".into()),
                allow_inject: true,
                fault_plan: Some("record".into()),
                watchdog_ms: Some(200),
            }
        );
        assert!(a(&["solve", "f", "--no-such-flag", "1"]).is_err());
        assert!(a(&["serve", "f", "--no-such-flag", "1"]).is_err());
        assert!(a(&["serve", "f", "--watchdog-ms", "soon"]).is_err());
        assert!(a(&["serve", "f", "--fault-plan"]).is_err());
        assert!(a(&["solve", "f", "--fault-plan"]).is_err());
        assert_eq!(
            a(&["request", "/tmp/pda.sock", "{\"op\":\"health\"}"]).unwrap(),
            Command::Request {
                socket: "/tmp/pda.sock".into(),
                line: "{\"op\":\"health\"}".into(),
            }
        );
        assert!(a(&["serve"]).is_err());
        assert!(a(&["serve", "f.jay", "--socket"]).is_err());
        assert!(a(&["serve", "f.jay", "--retry-faults", "NaN"]).is_err());
        assert!(a(&["request", "/tmp/pda.sock"]).is_err());
        assert!(a(&["solve", "f", "--retry-faults", "many"]).is_err());
        // --jobs 0 is clamped to the sequential driver.
        assert!(matches!(
            a(&["solve", "f.jay", "--jobs", "0"]).unwrap(),
            Command::Solve { jobs: 1, .. }
        ));
        assert_eq!(a(&[]).unwrap(), Command::Help);
        assert!(a(&["bogus"]).is_err());
        assert!(a(&["solve"]).is_err());
        assert!(a(&["solve", "f", "--k", "NaN"]).is_err());
        assert!(a(&["solve", "f", "--jobs", "many"]).is_err());
        assert!(a(&["solve", "f", "--deadline", "soon"]).is_err());
        assert!(a(&["solve", "f", "--mem-budget", "lots"]).is_err());
        // There is no shared batch pool: `--pool-budget` is a usage error.
        let e = a(&["solve", "f", "--pool-budget", "1m"]).unwrap_err();
        assert_eq!(e, CliError::Usage("solve: unknown flag `--pool-budget`".into()));
        assert_eq!(e.exit_code(), 2);
        assert!(a(&["solve", "f", "--checkpoint"]).is_err());
        assert!(a(&["solve", "f", "--trace"]).is_err());
        // --metrics is a plain flag: the next token is parsed normally.
        assert!(matches!(
            a(&["solve", "f", "--metrics", "--jobs", "2"]).unwrap(),
            Command::Solve { metrics: true, jobs: 2, .. }
        ));
    }

    /// The flags `parse_args` matches for a subcommand: the `"--flag" =>`
    /// arms of its block in this file's source.
    fn parsed_flags(block_start: &str, block_end: &str) -> std::collections::BTreeSet<String> {
        let src = include_str!("lib.rs");
        let a = src.find(block_start).expect("block start");
        let b = a + src[a..].find(block_end).expect("block end");
        src[a..b]
            .lines()
            .filter_map(|l| l.trim().strip_prefix('"')?.split_once("\" =>").map(|(f, _)| f))
            .filter(|f| f.starts_with("--"))
            .map(String::from)
            .collect()
    }

    /// The flags in a subcommand's synopsis in [`USAGE`]: the `[--flag`
    /// entries of the `pda <cmd>` line and its bracketed continuations.
    fn synopsis_flags(cmd: &str) -> std::collections::BTreeSet<String> {
        let mut lines = USAGE.lines().skip_while(|l| !l.trim_start().starts_with(&format!("pda {cmd} ")));
        let first = lines.next().expect("subcommand in USAGE");
        std::iter::once(first)
            .chain(lines.take_while(|l| l.trim_start().starts_with('[')))
            .flat_map(|l| l.split('[').skip(1))
            .filter_map(|t| t.split([' ', ']']).next())
            .filter(|f| f.starts_with("--"))
            .map(String::from)
            .collect()
    }

    #[test]
    fn every_parsed_flag_appears_in_its_synopsis() {
        let solve = parsed_flags("Some(\"solve\") => {", "Some(\"serve\") => {");
        let serve = parsed_flags("Some(\"serve\") => {", "Some(\"request\") =>");
        assert!(solve.contains("--fault-plan") && serve.contains("--watchdog-ms"), "{solve:?}");
        assert_eq!(solve, synopsis_flags("solve"), "pda solve synopsis");
        assert_eq!(serve, synopsis_flags("serve"), "pda serve synopsis");
    }

    #[test]
    fn usage_errors_exit_2_others_exit_1() {
        let a = |xs: &[&str]| parse_args(xs.iter().map(|s| s.to_string()));
        let e = a(&["bogus"]).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(matches!(e, CliError::Usage(_)));
        let e = run_on_source(&Command::Gen { name: "nope".into() }, "").unwrap_err();
        assert_eq!(e.exit_code(), 1);
        let e = run_on_source(&Command::Check { file: String::new() }, "fn main( {").unwrap_err();
        assert_eq!(e.exit_code(), 1);
    }

    #[test]
    fn check_reports_stats() {
        let report = run_on_source(&Command::Check { file: String::new() }, SRC).unwrap();
        assert!(report.contains("classes:   2"));
        assert!(report.contains("queries:   2"));
        assert!(report.contains("well-formed"));
    }

    #[test]
    fn queries_lists_both_kinds() {
        let report = run_on_source(&Command::Queries { file: String::new() }, SRC).unwrap();
        assert!(report.contains("protocol: state f in {closed}"));
        assert!(report.contains("localx: local x"));
    }

    #[test]
    fn solve_resolves_both_queries() {
        let report = run_on_source(&solve_cmd(None, 1), SRC).unwrap();
        assert!(report.contains("protocol @ File#0 [type-state]: PROVEN"), "{report}");
        assert!(report.contains("localx [thread-escape]: PROVEN"), "{report}");
    }

    #[test]
    fn solve_single_query_and_missing_label() {
        let report = run_on_source(&solve_cmd(Some("localx"), 1), SRC).unwrap();
        assert!(!report.contains("protocol"));
        assert!(run_on_source(&solve_cmd(Some("nope"), 1), SRC).is_err());
    }

    #[test]
    fn parallel_solve_matches_sequential_verdicts() {
        let seq_report = run_on_source(&solve_cmd(None, 1), SRC).unwrap();
        let par_report = run_on_source(&solve_cmd(None, 4), SRC).unwrap();
        // Same per-query lines; the parallel run appends batch + meta
        // stats lines.
        let verdicts = |r: &str| {
            r.lines()
                .filter(|l| !l.starts_with("batch:") && !l.starts_with("meta:"))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&seq_report), verdicts(&par_report));
        assert!(par_report.contains("batch: 1 queries, jobs="), "{par_report}");
        assert!(par_report.contains("meta: "), "{par_report}");
        assert!(!seq_report.contains("batch:"));
    }

    /// Two or more thread-escape queries go through the batch driver (and
    /// its shared forward-run cache) at jobs=1 too. The rendered verdict
    /// lines match jobs=2 and the one-query-at-a-time solves, and the
    /// plain jobs=1 report gains no footer.
    #[test]
    fn sequential_escape_queries_share_forward_runs_with_identical_lines() {
        const MULTI: &str = r#"
            global g;
            class File { fn open(); fn close(); }
            typestate File {
                init closed;
                closed -> open -> opened;
                opened -> close -> closed;
            }
            class Box { field item; }
            fn main() {
                var f, b, x, y;
                f = new File;
                f.open();
                f.close();
                b = new Box;
                x = new Box;
                y = new Box;
                b.item = x;
                query protocol: state f in { closed };
                query localb: local b;
                query localx: local x;
                query localy: local y;
                if (*) { g = b; }
            }
        "#;
        let verdicts = |r: &str| {
            r.lines()
                .filter(|l| !l.starts_with("batch:") && !l.starts_with("meta:"))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        let seq = run_on_source(&solve_cmd(None, 1), MULTI).unwrap();
        let par = run_on_source(&solve_cmd(None, 2), MULTI).unwrap();
        assert_eq!(verdicts(&seq), verdicts(&par));
        assert!(!seq.contains("batch:"), "{seq}");
        assert!(par.contains("batch: 3 queries, jobs=2"), "{par}");
        let one_at_a_time: Vec<String> = ["protocol", "localb", "localx", "localy"]
            .iter()
            .flat_map(|label| verdicts(&run_on_source(&solve_cmd(Some(label), 1), MULTI).unwrap()))
            .collect();
        assert_eq!(verdicts(&seq), one_at_a_time);
        assert_eq!(seq.lines().count(), 4, "{seq}");
    }

    #[test]
    fn retry_faults_engages_the_batch_driver_and_footer() {
        // `--retry-faults` routes thread-escape queries through the
        // batched driver even at jobs=1, so the retry ladder (and its
        // `retries=` footer counter) is in effect; a healthy program
        // consumes zero retries.
        let mut cmd = solve_cmd(Some("localx"), 1);
        if let Command::Solve { retry_faults, .. } = &mut cmd {
            *retry_faults = Some(2);
        }
        let report = run_on_source(&cmd, SRC).unwrap();
        assert!(report.contains("localx [thread-escape]: PROVEN"), "{report}");
        assert!(report.contains("batch: 1 queries"), "{report}");
        assert!(report.contains("retries=0"), "{report}");
    }

    #[test]
    fn zero_deadline_reports_deadline_exceeded() {
        let cmd = solve_cmd_full(Some("localx"), 1, Some(0), None);
        let report = run_on_source(&cmd, SRC).unwrap();
        assert!(report.contains("unresolved (wall-clock deadline exceeded)"), "{report}");
    }

    #[test]
    fn tiny_mem_budget_still_proves_soundly() {
        // A 1-byte budget keeps the governor under pressure at every
        // iteration boundary, but the degradation ladder is sound
        // (Theorem 3): a query that proves quickly still proves, with the
        // same verdict as the unbudgeted run.
        let mut cmd = solve_cmd(Some("localx"), 1);
        if let Command::Solve { mem_budget, .. } = &mut cmd {
            *mem_budget = Some(1);
        }
        let report = run_on_source(&cmd, SRC).unwrap();
        assert!(report.contains("localx [thread-escape]: PROVEN"), "{report}");
    }

    #[test]
    fn checkpoint_resumes_and_skips_finished_queries() {
        let path = std::env::temp_dir()
            .join(format!("pda-cli-ckpt-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let cmd = solve_cmd_full(
            Some("localx"),
            1,
            None,
            Some(path.to_string_lossy().into_owned()),
        );
        let first = run_on_source(&cmd, SRC).unwrap();
        assert!(first.contains("localx [thread-escape]: PROVEN"), "{first}");
        assert!(first.contains("resumed=0"), "{first}");
        // Second run restores the result from the checkpoint.
        let second = run_on_source(&cmd, SRC).unwrap();
        assert!(second.contains("localx [thread-escape]: PROVEN"), "{second}");
        assert!(second.contains("resumed=1"), "{second}");
        // A corrupted header is a typed checkpoint error.
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        let err = run_on_source(&cmd, SRC).unwrap_err();
        assert!(matches!(err, CliError::Checkpoint(_)), "{err:?}");
        assert_eq!(err.exit_code(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_file_parses_and_metrics_table_renders() {
        let path =
            std::env::temp_dir().join(format!("pda-cli-trace-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let cmd = Command::Solve {
            file: String::new(),
            query: None,
            k: 5,
            max_iters: 50,
            jobs: 1,
            deadline_ms: None,
            escalate: None,
            mem_budget: None,
            retry_faults: None,
            checkpoint: None,
            trace: Some(path.to_string_lossy().into_owned()),
            metrics: true,
            fault_plan: None,
        };
        let report = run_on_source(&cmd, SRC).unwrap();
        assert!(report.contains("localx [thread-escape]: PROVEN"), "{report}");
        assert!(report.contains("batch: 1 queries"), "{report}");
        assert!(report.contains("span solver"), "{report}");
        assert!(report.contains("solver nodes: "), "{report}");
        let text = std::fs::read_to_string(&path).unwrap();
        let events = pda_util::obs::parse_trace(&text).unwrap();
        assert!(
            events.iter().any(|e| matches!(e, Event::IterationStart { .. })),
            "trace should contain iteration events"
        );
        // One query_resolved per query instance, numbered batch-first:
        // the batched thread-escape query, then the type-state site.
        let resolved: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::QueryResolved { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        assert_eq!(resolved, vec![0, 1], "{events:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gen_produces_named_benchmark() {
        let out = run_on_source(&Command::Gen { name: "tsp".into() }, "").unwrap();
        assert!(out.contains("benchmark `tsp`"));
        assert!(run_on_source(&Command::Gen { name: "nope".into() }, "").is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = run_on_source(&Command::Check { file: String::new() }, "fn main( {").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }
}
