//! Library backing the `pda` command-line tool: `check`, `queries`,
//! `solve`, `serve`, `request` and `gen`.
//!
//! Two tables are the only lists of what the tool accepts: `COMMANDS`
//! (each subcommand's positional arguments and summary) and `FLAGS`
//! (each flag of `solve` and `serve`: spelling, value, help, the
//! subcommands that take it, and how it sets [`Options`]). `pda help`
//! prints the usage [`usage_text`] renders from them, and
//! [`parse_args`] parses every flag through `FLAGS`.
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
    default_jobs, emit_query_trace, isolate, retry_ladder, solve_queries_batch_checkpointed_traced,
    solve_queries_batch_traced, BatchConfig, Outcome, QueryObs, RetryPolicy, Session,
    TracerConfig,
};
use pda_typestate::TypestateClient;
use pda_util::{FileSink, Idx, ObsRegistry, TraceSink};
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

/// A parsed command line. `pda help` lists each subcommand's arguments
/// and flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `pda check`: parse, validate, print program statistics.
    Check {
        /// Input path.
        file: String,
    },
    /// `pda queries`: list the source queries with their kinds.
    Queries {
        /// Input path.
        file: String,
    },
    /// `pda solve`: run TRACER on one labeled query (or all), choosing
    /// the client by the query kind.
    Solve {
        /// Input path.
        file: String,
        /// The flags' values.
        opts: Options,
    },
    /// `pda serve`: run the analysis daemon over the program's
    /// thread-escape queries.
    Serve {
        /// Input path.
        file: String,
        /// The flags' values.
        opts: Options,
    },
    /// `pda request`: one-shot daemon client.
    Request {
        /// Daemon socket path.
        socket: String,
        /// The request line to send.
        line: String,
    },
    /// `pda gen`: print a generated suite benchmark's source.
    Gen {
        /// Suite benchmark name (tsp, elevator, ...).
        name: String,
    },
    /// `pda help` or no arguments.
    Help,
}

/// The flag values of `pda solve` and `pda serve`: one field per `FLAGS`
/// row, whose help documents it. A field whose flag the subcommand does
/// not take keeps its default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    query: Option<String>,
    socket: Option<String>,
    journal: Option<String>,
    k: usize,
    max_iters: usize,
    jobs: usize,
    deadline_ms: Option<u64>,
    mem_budget: Option<u64>,
    retry_faults: Option<u32>,
    checkpoint: Option<String>,
    trace: Option<String>,
    metrics: bool,
    fault_plan: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            query: None,
            socket: None,
            journal: None,
            k: 5,
            max_iters: 100,
            jobs: default_jobs(),
            deadline_ms: None,
            mem_budget: None,
            retry_faults: None,
            checkpoint: None,
            trace: None,
            metrics: false,
            fault_plan: None,
        }
    }
}

/// One row of `FLAGS`.
struct Flag {
    /// Spelling on the command line.
    name: &'static str,
    /// The value's placeholder in the usage text; `None` for a switch.
    metavar: Option<&'static str>,
    /// The subcommands that take the flag.
    cmds: &'static [&'static str],
    /// Usage help, filled to the usage width.
    help: &'static str,
    /// Stores the value (`""` for a switch) in the options; false when
    /// it does not parse.
    set: fn(&mut Options, &str) -> bool,
}

const SOLVE: &[&str] = &["solve"];
const SERVE: &[&str] = &["serve"];
const BOTH: &[&str] = &["solve", "serve"];

/// Every flag of `pda solve` and `pda serve`, in usage order.
const FLAGS: [Flag; 13] = [
    Flag {
        name: "--query",
        metavar: Some("LABEL"),
        cmds: SOLVE,
        help: "solve only the query labeled LABEL",
        set: |o, v| text(&mut o.query, v),
    },
    Flag {
        name: "--socket",
        metavar: Some("PATH"),
        cmds: SERVE,
        help: "serve JSONL over this Unix socket (default: one session on \
               stdin/stdout, status lines on stderr)",
        set: |o, v| text(&mut o.socket, v),
    },
    Flag {
        name: "--journal",
        metavar: Some("PATH"),
        cmds: SERVE,
        help: "journal finished verdicts to PATH and resume them across restarts",
        set: |o, v| text(&mut o.journal, v),
    },
    Flag {
        name: "--k",
        metavar: Some("N"),
        cmds: BOTH,
        help: "beam width of drop_k",
        set: |o, v| v.parse().map(|n| o.k = n).is_ok(),
    },
    Flag {
        name: "--max-iters",
        metavar: Some("N"),
        cmds: BOTH,
        help: "CEGAR iteration budget per query",
        set: |o, v| v.parse().map(|n| o.max_iters = n).is_ok(),
    },
    Flag {
        name: "--jobs",
        metavar: Some("N"),
        cmds: BOTH,
        help: "worker threads (0 counts as 1 = sequential; default: available \
               parallelism); a batch shares one forward-run cache",
        set: |o, v| v.parse().map(|n: usize| o.jobs = n.max(1)).is_ok(),
    },
    Flag {
        name: "--deadline",
        metavar: Some("MS"),
        cmds: BOTH,
        help: "per-query wall-clock budget in milliseconds (serve: the \
               default per request)",
        set: |o, v| v.parse().map(|n| o.deadline_ms = Some(n)).is_ok(),
    },
    Flag {
        name: "--mem-budget",
        metavar: Some("BYTES"),
        cmds: SOLVE,
        help: "per-query memory cap in estimated bytes (k/m/g ok); a query \
               whose kept state outgrows it stops unresolved",
        set: |o, v| pda_util::parse_bytes(v).map(|b| o.mem_budget = Some(b)).is_some(),
    },
    Flag {
        name: "--retry-faults",
        metavar: Some("N"),
        cmds: BOTH,
        help: "retry transiently faulted queries up to N times on the \
               deterministic backoff ladder (serve: deadline hits too)",
        set: |o, v| v.parse().map(|n| o.retry_faults = Some(n)).is_ok(),
    },
    Flag {
        name: "--checkpoint",
        metavar: Some("PATH"),
        cmds: SOLVE,
        help: "stream results to PATH; on rerun, skip queries already there",
        set: |o, v| text(&mut o.checkpoint, v),
    },
    Flag {
        name: "--trace",
        metavar: Some("PATH"),
        cmds: BOTH,
        help: "stream structured JSONL events to PATH",
        set: |o, v| text(&mut o.trace, v),
    },
    Flag {
        name: "--metrics",
        metavar: None,
        cmds: SOLVE,
        help: "append the per-span latency table to the report",
        set: |o, _| {
            o.metrics = true;
            true
        },
    },
    Flag {
        name: "--fault-plan",
        metavar: Some("PLAN"),
        cmds: BOTH,
        help: "arm the deterministic fault-injection plane: `point@hit=action` \
               entries (actions panic|stall:MS|ioerr[:KIND]|abort|shortwrite; \
               `query.I` is query I's seam, visited once per attempt) or \
               `record` (env PDA_FAULT_PLAN)",
        set: |o, v| text(&mut o.fault_plan, v),
    },
];

/// Sets a string-valued flag; every string is a valid value.
fn text(slot: &mut Option<String>, v: &str) -> bool {
    *slot = Some(v.to_string());
    true
}

impl Flag {
    /// The flag with its metavar, as the usage text spells it.
    fn spelled(&self) -> String {
        match self.metavar {
            Some(m) => format!("{} {m}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// What a value must be, named by its metavar, for the usage error.
fn needs(metavar: &str) -> &'static str {
    match metavar {
        "N" | "MS" => "a number",
        "BYTES" => "a byte size (e.g. 4096, 64k, 2m, 1g)",
        "LABEL" => "a label",
        "PLAN" => "a plan spec",
        _ => "a path",
    }
}

/// Every subcommand: name, positional arguments and summary. Its flags
/// are the `FLAGS` rows that name it.
const COMMANDS: [(&str, &str, &str); 6] = [
    ("check", "<file.jay>", "parse, validate, report stats"),
    ("queries", "<file.jay>", "list source queries"),
    (
        "solve",
        "<file.jay>",
        "find optimum abstractions, choosing the client by the query kind \
         (local: thread-escape, state: type-state)",
    ),
    (
        "serve",
        "<file.jay>",
        "run the crash-safe analysis daemon over the program's thread-escape \
         queries: JSONL requests, SIGTERM drains gracefully",
    ),
    ("request", "<socket> <json-line>", "send one request to a daemon and print the response"),
    ("gen", "<benchmark>", "print a generated suite program"),
];

/// The width the usage text is filled to.
const WIDTH: usize = 78;

/// The usage text, rendered from `COMMANDS` and `FLAGS`: each
/// subcommand's synopsis, summary and flag help rows.
pub fn usage_text() -> String {
    let mut out = String::from(
        "pda — optimum abstractions for parametric dataflow analysis (PLDI'13)\n\nUSAGE:\n",
    );
    for (name, args, summary) in COMMANDS {
        out.push_str(&command_usage(name, args, summary));
    }
    out
}

/// One subcommand's block of [`usage_text`].
fn command_usage(name: &str, args: &str, summary: &str) -> String {
    let flags: Vec<&Flag> = FLAGS.iter().filter(|f| f.cmds.contains(&name)).collect();
    let synopsis: Vec<String> = std::iter::once(args.to_string())
        .chain(flags.iter().map(|f| format!("[{}]", f.spelled())))
        .collect();
    let lead = format!("    pda {name}");
    let mut out = String::new();
    fill(&mut out, &lead, lead.len() + 1, synopsis.iter().map(String::as_str));
    fill(&mut out, "       ", 8, summary.split_whitespace());
    for f in flags {
        fill(&mut out, &format!("        {:<19}", f.spelled()), 28, f.help.split_whitespace());
    }
    out.push('\n');
    out
}

/// Appends `lead` and then `words` to `out`, each word after a space,
/// breaking lines before [`WIDTH`]; a continuation line puts its first
/// word at column `indent`.
fn fill<'a>(out: &mut String, lead: &str, indent: usize, words: impl IntoIterator<Item = &'a str>) {
    let mut line = lead.to_string();
    for word in words {
        if line.len() + 1 + word.len() > WIDTH && line.len() > indent {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(indent - 1);
        }
        line.push(' ');
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

/// Parses the flags after `pda <cmd>`'s positional arguments through
/// `FLAGS`; a subcommand no row names takes none.
fn parse_flags(cmd: &str, args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg && f.cmds.contains(&cmd)) else {
            return usage(format!("{cmd}: unknown flag `{arg}`"));
        };
        // A value spelled like a flag is the next flag: the value is
        // missing (`--trace --metrics` must not trace to `--metrics`).
        let value = match flag.metavar {
            None => Some(""),
            Some(_) => args.next().map(String::as_str).filter(|v| !v.starts_with("--")),
        };
        if !value.is_some_and(|v| (flag.set)(&mut opts, v)) {
            return usage(format!("{} needs {}", flag.name, flag.metavar.map_or("", needs)));
        }
    }
    Ok(opts)
}

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// [`CliError::Usage`] on unknown commands, unknown flags, and malformed
/// or missing flag values.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let args: Vec<String> = args.into_iter().collect();
    match args.first().map(String::as_str) {
        Some("check") => match args.get(1) {
            Some(f) => parse_flags("check", &args[2..]).map(|_| Command::Check { file: f.clone() }),
            None => usage("check: missing <file>"),
        },
        Some("queries") => match args.get(1) {
            Some(f) => {
                parse_flags("queries", &args[2..]).map(|_| Command::Queries { file: f.clone() })
            }
            None => usage("queries: missing <file>"),
        },
        Some("gen") => match args.get(1) {
            Some(n) => parse_flags("gen", &args[2..]).map(|_| Command::Gen { name: n.clone() }),
            None => usage("gen: missing <benchmark>"),
        },
        Some(cmd @ ("solve" | "serve")) => {
            let Some(file) = args.get(1).cloned() else {
                return usage(format!("{cmd}: missing <file>"));
            };
            let opts = parse_flags(cmd, &args[2..])?;
            Ok(if cmd == "solve" { Command::Solve { file, opts } } else { Command::Serve { file, opts } })
        }
        Some("request") => match (args.get(1), args.get(2)) {
            (Some(socket), Some(line)) => parse_flags("request", &args[3..])
                .map(|_| Command::Request { socket: socket.clone(), line: line.clone() }),
            _ => usage("request: needs <socket> <json-line>"),
        },
        Some("help") | None => Ok(Command::Help),
        Some(other) => usage(format!("unknown command `{other}`")),
    }
}

/// Executes a command against source text, returning the report.
///
/// File access for the *input program* happens in `main`; this function is
/// pure given the source — except for a checkpoint file, which by design
/// is read and written.
///
/// # Errors
///
/// [`CliError::Input`] for bad programs or unmatched query labels;
/// [`CliError::Checkpoint`] for unusable checkpoint files.
pub fn run_on_source(cmd: &Command, source: &str) -> Result<String, CliError> {
    match cmd {
        Command::Check { .. } => check_report(source),
        Command::Queries { .. } => queries_report(source),
        Command::Solve { opts, .. } => {
            arm_fault_plane(opts.fault_plan.as_deref())?;
            let report = solve_report(source, opts);
            dump_fault_hits();
            report
        }
        Command::Serve { opts, .. } => run_serve(source, opts),
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
        Command::Help => Ok(usage_text()),
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

/// Runs the analysis daemon until drained; the returned report is the
/// exit summary (the daemon itself writes protocol/status lines).
///
/// Resident queries are the program's thread-escape (`local`) queries in
/// declaration order, matching `solve`'s batch numbering; verdicts are
/// identical to the batch driver's.
fn run_serve(source: &str, opts: &Options) -> Result<String, CliError> {
    arm_fault_plane(opts.fault_plan.as_deref())?;
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
            beam: BeamConfig::with_k(opts.k),
            max_iters: opts.max_iters,
            ..TracerConfig::default()
        },
        jobs: opts.jobs,
        deadline_ms: opts.deadline_ms,
        // Daemon requests run under per-request deadlines, so deadline
        // hits are retried too (each retry gets a fresh budget).
        retry: opts.retry_faults.map(|n| pda_tracer::RetryPolicy {
            retry_deadline: true,
            ..pda_tracer::RetryPolicy::deterministic(n)
        }),
    };
    let options = pda_serve::DaemonOptions {
        socket: opts.socket.as_ref().map(std::path::PathBuf::from),
        journal: opts.journal.as_ref().map(std::path::PathBuf::from),
        trace: opts.trace.as_ref().map(std::path::PathBuf::from),
    };
    let report =
        pda_serve::run_daemon(&program, &callees, &client, queries, labels, config, &options)
            .map_err(|e| match e {
                pda_serve::ServeError::Journal(m) => CliError::Checkpoint(m),
                pda_serve::ServeError::Io(m) => CliError::Input(m),
            })?;
    Ok(format!(
        "serve: drained cleanly — served={} faults={} quarantines={} resumed={}\n",
        report.served, report.faults, report.quarantines, report.resumed
    ))
}

fn solve_report(source: &str, opts: &Options) -> Result<String, CliError> {
    let program = load(source)?;
    let pa = PointsTo::analyze(&program);
    let config = TracerConfig {
        beam: BeamConfig::with_k(opts.k),
        max_iters: opts.max_iters,
        timeout: opts.deadline_ms.map(std::time::Duration::from_millis),
        mem_budget: opts.mem_budget,
        ..TracerConfig::default()
    };
    let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();

    // Observability: `--trace` streams structured JSONL events, and
    // `--metrics` turns on span wall-clock measurement for the footer
    // table.
    let sink: Option<FileSink> = match &opts.trace {
        Some(path) => Some(
            FileSink::create(std::path::Path::new(path))
                .map_err(|e| CliError::Input(format!("trace: {e}")))?,
        ),
        None => None,
    };
    let sink_ref: Option<&dyn TraceSink> = sink.as_ref().map(|s| s as &dyn TraceSink);
    // Span/counter totals from queries solved outside the batch driver
    // (type-state queries), merged into the `--metrics` table at the end.
    let mut extra_obs = ObsRegistry::default();

    // Thread-escape queries (which share one client) run upfront as one
    // batch: siblings share forward runs at any `--jobs`, and a lone
    // query at jobs=1 runs inline and uncached. Per-query verdicts get
    // rendered below in declaration order. The `batch:` footer is printed
    // only when an option asked for the batch driver's extras
    // (parallelism, checkpoint/resume, retries, observability), so a
    // plain jobs=1 report keeps its verdict lines and nothing else.
    let client = EscapeClient::new(&program);
    let queries: Vec<_> = program
        .queries
        .iter_enumerated()
        .filter(|(_, d)| opts.query.as_ref().is_none_or(|want| d.label == *want))
        .filter(|(_, d)| matches!(d.kind, pda_lang::QueryKind::Local { .. }))
        .map(|(qid, _)| client.local_query(&program, qid))
        .collect();
    let footer = opts.jobs > 1
        || opts.checkpoint.is_some()
        || opts.retry_faults.is_some()
        || sink.is_some()
        || opts.metrics;
    let retry = opts.retry_faults.map(RetryPolicy::deterministic);
    let mut batch_stats = None;
    let mut batched = Vec::new().into_iter();
    if !queries.is_empty() {
        let batch = BatchConfig {
            tracer: config.clone(),
            jobs: opts.jobs,
            timed: opts.metrics,
            retry: retry.clone(),
            ..BatchConfig::default()
        };
        let (results, stats) = match &opts.checkpoint {
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
            None => {
                solve_queries_batch_traced(&program, &callees, &client, &queries, &batch, sink_ref)
            }
        };
        batched = results.into_iter();
        batch_stats = footer.then_some(stats);
    }
    // Type-state queries below continue the trace's query numbering after
    // the batch.
    let mut next_query = queries.len() as u64;

    let mut out = String::new();
    let mut matched = false;
    for (qid, decl) in program.queries.iter_enumerated() {
        if let Some(want) = &opts.query {
            if decl.label != *want {
                continue;
            }
        }
        matched = true;
        match &decl.kind {
            pda_lang::QueryKind::Local { .. } => {
                // The batch solved the local queries in this same order.
                let r = batched.next().expect("every local query was batched");
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
                    // Panic-isolated and retried like a batch worker's
                    // query: a fault ends this query unresolved, not the run.
                    let attempt = |_| {
                        let mut qobs = QueryObs::new(next_query, sink.is_some(), opts.metrics);
                        let r = isolate(|| {
                            Session::new(&program, &callees, &client, &query, &config)
                                .observe(&mut qobs)
                                .run()
                        });
                        (r, qobs)
                    };
                    let (r, qobs) =
                        retry_ladder(next_query as usize, retry.as_ref(), || false, attempt);
                    if let Some(s) = &sink {
                        emit_query_trace(s, &r, &qobs);
                    }
                    extra_obs.merge(&qobs.reg);
                    next_query += 1;
                    let tag = format!("{} @ {}", decl.label, program.site_label(site));
                    render(&mut out, &tag, "type-state", &r, |i| {
                        program.var_name(pda_lang::VarId(i as u32)).to_string()
                    });
                }
            }
        }
    }
    if !matched {
        return Err(CliError::Input(match &opts.query {
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
    use pda_util::Event;

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
        let opts = Options {
            query: query.map(String::from),
            max_iters: 50,
            jobs,
            deadline_ms,
            checkpoint,
            ..Default::default()
        };
        Command::Solve { file: String::new(), opts }
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
                opts: Options {
                    query: Some("q".into()),
                    k: 3,
                    max_iters: 9,
                    jobs: default_jobs(),
                    ..Default::default()
                },
            }
        );
        assert_eq!(
            a(&[
                "solve", "f.jay", "--jobs", "4", "--deadline", "250",
                "--mem-budget", "64k", "--retry-faults", "3",
                "--checkpoint", "state.jsonl", "--metrics", "--trace", "out.jsonl",
                "--fault-plan", "journal.write@2=ioerr:perm"
            ])
            .unwrap(),
            Command::Solve {
                file: "f.jay".into(),
                opts: Options {
                    query: None,
                    k: 5,
                    max_iters: 100,
                    jobs: 4,
                    deadline_ms: Some(250),
                    mem_budget: Some(64 << 10),
                    retry_faults: Some(3),
                    checkpoint: Some("state.jsonl".into()),
                    trace: Some("out.jsonl".into()),
                    metrics: true,
                    fault_plan: Some("journal.write@2=ioerr:perm".into()),
                    ..Default::default()
                },
            }
        );
        assert_eq!(
            a(&[
                "serve", "f.jay", "--socket", "/tmp/pda.sock", "--journal", "j.jsonl",
                "--jobs", "2", "--deadline", "500", "--retry-faults", "1",
                "--trace", "t.jsonl", "--fault-plan", "query.0@1=panic"
            ])
            .unwrap(),
            Command::Serve {
                file: "f.jay".into(),
                opts: Options {
                    socket: Some("/tmp/pda.sock".into()),
                    journal: Some("j.jsonl".into()),
                    jobs: 2,
                    deadline_ms: Some(500),
                    retry_faults: Some(1),
                    k: 5,
                    max_iters: 100,
                    trace: Some("t.jsonl".into()),
                    fault_plan: Some("query.0@1=panic".into()),
                    ..Default::default()
                },
            }
        );
        assert!(a(&["solve", "f", "--no-such-flag", "1"]).is_err());
        assert!(a(&["serve", "f", "--no-such-flag", "1"]).is_err());
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
            Command::Solve { opts: Options { jobs: 1, .. }, .. }
        ));
        // The retired daemon fault hooks are unknown flags.
        for (flag, value) in [("--allow-inject", None), ("--watchdog-ms", Some("200"))] {
            let mut argv = vec!["serve", "f.jay", flag];
            argv.extend(value);
            let e = a(&argv).unwrap_err();
            assert_eq!(e, CliError::Usage(format!("serve: unknown flag `{flag}`")));
            assert_eq!(e.exit_code(), 2);
        }
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
        // Nor is there a fact-budget escalation ladder.
        let e = a(&["solve", "f", "--escalate", "2"]).unwrap_err();
        assert_eq!(e, CliError::Usage("solve: unknown flag `--escalate`".into()));
        // The subcommands without flags reject anything after their
        // positional arguments.
        for (argv, extra) in [
            (&["check", "f.jay", "--k", "3"][..], "check: unknown flag `--k`"),
            (&["queries", "f.jay", "--jobs", "2"][..], "queries: unknown flag `--jobs`"),
            (&["gen", "tsp", "extra-arg"][..], "gen: unknown flag `extra-arg`"),
            (&["request", "/tmp/pda.sock", "{}", "{}"][..], "request: unknown flag `{}`"),
        ] {
            let e = a(argv).unwrap_err();
            assert_eq!(e, CliError::Usage(extra.into()), "{argv:?}");
            assert_eq!(e.exit_code(), 2);
        }
        assert!(a(&["solve", "f", "--checkpoint"]).is_err());
        assert!(a(&["solve", "f", "--trace"]).is_err());
        // --metrics is a plain flag: the next token is parsed normally.
        assert!(matches!(
            a(&["solve", "f", "--metrics", "--jobs", "2"]).unwrap(),
            Command::Solve { opts: Options { metrics: true, jobs: 2, .. }, .. }
        ));
    }

    /// Every `FLAGS` row, under every subcommand: `parse_args` takes the
    /// flag (with a sample value) exactly where the row says so, rejects
    /// it without its value, and the usage lists it under those
    /// subcommands and no other.
    #[test]
    fn every_parsed_flag_appears_in_its_synopsis() {
        let a = |xs: &[&str]| parse_args(xs.iter().map(|s| s.to_string()));
        let sample = |metavar: &str| match metavar {
            "BYTES" => "64k",
            "N" | "MS" => "3",
            _ => "x.jsonl",
        };
        let usage = usage_text();
        for (cmd, args, summary) in COMMANDS {
            let block = command_usage(cmd, args, summary);
            assert!(usage.contains(&block), "{cmd}");
            let known = |e: &CliError| !e.to_string().starts_with("unknown command");
            assert!(a(&[cmd]).as_ref().err().is_none_or(known), "parse_args knows pda {cmd}");
            let listed: std::collections::BTreeSet<&str> =
                block.split([' ', '\n', '[', ']']).filter(|t| t.starts_with("--")).collect();
            let taken: std::collections::BTreeSet<&str> =
                FLAGS.iter().filter(|f| f.cmds.contains(&cmd)).map(|f| f.name).collect();
            assert_eq!(listed, taken, "flags in the usage of pda {cmd}");
            if !matches!(cmd, "solve" | "serve") {
                assert!(taken.is_empty(), "{cmd}");
                continue;
            }
            for f in &FLAGS {
                let mut argv = vec![cmd, "f.jay", f.name];
                argv.extend(f.metavar.map(sample));
                let parsed = a(&argv);
                assert_eq!(parsed.is_ok(), taken.contains(f.name), "pda {argv:?}: {parsed:?}");
                if let (Some(metavar), true) = (f.metavar, taken.contains(f.name)) {
                    let e = a(&argv[..3]).unwrap_err();
                    assert_eq!(e, CliError::Usage(format!("{} needs {}", f.name, needs(metavar))));
                }
            }
        }
    }

    /// `--fault-plan`'s help lists exactly the actions the plan parser
    /// accepts, and names the per-query seam.
    #[test]
    fn fault_plan_help_lists_every_action_and_the_query_seam() {
        let flag = FLAGS.iter().find(|f| f.name == "--fault-plan").expect("--fault-plan row");
        let actions = pda_util::faultplane::ACTIONS.join("|");
        assert!(flag.help.contains(&format!("actions {actions};")), "{}", flag.help);
        assert!(flag.help.contains("`query.I`"), "{}", flag.help);
    }

    /// A value-taking flag never takes the next flag as its value.
    #[test]
    fn a_flag_value_never_swallows_the_next_flag() {
        let a = |xs: &[&str]| parse_args(xs.iter().map(|s| s.to_string()));
        let e = a(&["solve", "prog.jay", "--trace", "--metrics"]).unwrap_err();
        assert_eq!(e, CliError::Usage("--trace needs a path".into()));
        assert_eq!(e.exit_code(), 2);
        assert!(!std::path::Path::new("--metrics").exists());
        let e = a(&["solve", "prog.jay", "--checkpoint", "--jobs", "2"]).unwrap_err();
        assert_eq!(e, CliError::Usage("--checkpoint needs a path".into()));
        assert_eq!(e.exit_code(), 2);
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
        if let Command::Solve { opts, .. } = &mut cmd {
            opts.retry_faults = Some(2);
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
    fn tiny_mem_budget_caps_at_the_first_refinement() {
        // `localx` proves in 3 iterations unbudgeted. Any state kept past
        // the first refinement exceeds a 1-byte cap, so the query stops
        // there, unresolved rather than wrongly proven or refuted.
        let mut cmd = solve_cmd(Some("localx"), 1);
        let plain = run_on_source(&cmd, SRC).unwrap();
        assert!(plain.contains("localx [thread-escape]: PROVEN"), "{plain}");
        assert!(plain.contains("(3 iterations)"), "{plain}");
        if let Command::Solve { opts, .. } = &mut cmd {
            opts.mem_budget = Some(1);
        }
        let report = run_on_source(&cmd, SRC).unwrap();
        assert_eq!(report, "localx [thread-escape]: unresolved (memory budget exceeded)\n");
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
            opts: Options {
                max_iters: 50,
                jobs: 1,
                trace: Some(path.to_string_lossy().into_owned()),
                metrics: true,
                ..Default::default()
            },
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
