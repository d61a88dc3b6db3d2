//! Structured observability for the CEGAR loop: counters, spans, and a
//! typed trace-event stream.
//!
//! Three pieces, all registry-free and `std`-only:
//!
//! 1. **[`ObsRegistry`]** — a fixed-size counter/histogram registry. Every
//!    quantity the drivers report (batch throughput, forward-run cache
//!    effectiveness, meta-kernel cube/wp/subsumption counters, DPLL
//!    search nodes) is a [`Counter`] slot; every timed phase (DPLL solve,
//!    forward RHS run, backward meta-analysis, `approx`/`drop_k`,
//!    viable-set update) is a [`SpanKind`] slot with count, total/max
//!    duration, and a power-of-two latency histogram. The registry is the
//!    single snapshot type behind every driver footer
//!    ([`ObsRegistry::render`]).
//! 2. **Spans** — [`Span::enter`]/[`Span::exit`] (and the RAII
//!    [`SpanGuard`]) bracket a phase. Timing is gated on
//!    [`ObsRegistry::set_timed`]: when off (the default), entering a span
//!    costs one array increment and **no** clock read, so production runs
//!    pay nothing measurable.
//! 3. **Events** — the typed [`Event`] stream ([`Event::IterationStart`],
//!    [`Event::QueryResolved`], ...) encoded as hand-rolled JSONL (same
//!    codec style as the batch checkpoint format) behind the
//!    [`TraceSink`] trait with [`NullSink`], [`FileSink`], and in-memory
//!    [`Recorder`] implementations. Events deliberately carry **no
//!    wall-clock data**, so a seeded run's trace is byte-identical across
//!    machines and worker counts.

use crate::json::{json_escape, parse_json_line};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

// ---- counters ----

/// One scalar slot in the [`ObsRegistry`].
///
/// The discriminant doubles as the storage index, so counter access is a
/// bounds-check-free array load in release builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Queries in the batch.
    Queries,
    /// Worker threads used.
    Jobs,
    /// Batch wall time, µs.
    WallMicros,
    /// CEGAR iterations across all queries.
    Iterations,
    /// Fact-budget escalations taken.
    Escalations,
    /// Forward RHS runs executed.
    ForwardRuns,
    /// Forward-run cache hits.
    CacheHits,
    /// Forward-run cache misses.
    CacheMisses,
    /// Queries that panicked inside the engine.
    EngineFaults,
    /// Queries aborted by a wall-clock deadline.
    DeadlineExceeded,
    /// Queries restored from a checkpoint.
    Resumed,
    /// BDD nodes created by the viable-set solver.
    SolverNodes,
    /// Cubes materialized by the meta-analysis.
    CubesBuilt,
    /// Cube subsumption (`implies`) checks.
    SubsumptionChecks,
    /// Subsumption checks rejected by the signature fast path.
    SubsumptionFastRejects,
    /// wp-memo hits.
    WpHits,
    /// wp-memo misses.
    WpMisses,
    /// Cubes dropped by `approx`/`drop_k` beam pruning.
    ApproxDrops,
    /// Wall time inside the backward meta-analysis, µs.
    MetaMicros,
    /// Bytes charged against memory budgets (cumulative, incl. released).
    MemCharged,
    /// Memory-governor degradation-ladder steps applied.
    Degradations,
    /// wp-memo entries evicted (and caches reset) under memory pressure.
    MemEvictions,
    /// Transient-fault retry attempts consumed (deterministic backoff
    /// ladder; see the batch scheduler's `RetryPolicy`).
    Retries,
    /// Microseconds workers spent blocked on the shared forward cache: a
    /// contended map acquisition or a wait on a sibling's running
    /// forward run of the same key. A
    /// counter, not an [`Event`]: events deliberately carry no wall-clock
    /// data, so contention is attributable from the footer without
    /// perturbing trace byte-identity.
    LockWaitMicros,
    /// Wall time inside the viable-set solver (BDD conjoin + min-cost
    /// sweep), µs. Always-on like [`Counter::MetaMicros`], so the batch
    /// footers can split the solver out even with span timing off.
    SolverMicros,
    /// Faults fired by the deterministic fault plane
    /// (`--fault-plan`/`PDA_FAULT_PLAN`), all action classes.
    FaultsInjected,
    /// I/O-class injected faults (`ioerr`/`shortwrite`), a subset of
    /// [`Counter::FaultsInjected`].
    IoFaults,
    /// Backward trace steps skipped because their atom changes no
    /// primitive of the current DNF (the meta kernel's cone-of-influence
    /// skip). An effort meter only: no trace event, `MetaStats` field,
    /// checkpoint record or footer line carries it.
    MetaStepsSkipped,
    /// Wall time inside the forward phase (RHS runs, escalation retries
    /// and forward-cache reads), µs, less the forward-cache waits that
    /// [`Counter::LockWaitMicros`] counts. Always-on like
    /// [`Counter::SolverMicros`]; like every wall-clock counter it stays
    /// out of trace events.
    ForwardMicros,
}

/// Number of [`Counter`] slots.
pub const N_COUNTERS: usize = Counter::ForwardMicros as usize + 1;

// ---- spans ----

/// A timed phase of the CEGAR loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// Minimum-cost viable-set solve (BDD conjoin + cost sweep).
    Solver,
    /// Forward RHS dataflow run.
    Forward,
    /// Backward meta-analysis over the counterexample trace.
    Backward,
    /// `approx`/`drop_k` beam pruning (inside the backward phase).
    Approx,
    /// Viable-set update: restrict, negate, learn the new constraint.
    Viable,
}

/// Number of [`SpanKind`] slots.
pub const N_SPANS: usize = SpanKind::Viable as usize + 1;

/// Power-of-two latency buckets per span: bucket `i` counts durations
/// whose bit length is `i` — i.e. `d ∈ [2^(i-1), 2^i)` µs for `i >= 1`,
/// with bucket 0 holding `d = 0`; the last bucket is open-ended.
pub const N_HIST_BUCKETS: usize = 20;

/// Aggregated measurements for one [`SpanKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans.
    pub count: u64,
    /// Total duration, µs (0 unless timing is on).
    pub micros: u64,
    /// Longest single span, µs (0 unless timing is on).
    pub max_micros: u64,
    /// Power-of-two duration histogram (empty unless timing is on).
    pub hist: [u64; N_HIST_BUCKETS],
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats { count: 0, micros: 0, max_micros: 0, hist: [0; N_HIST_BUCKETS] }
    }
}

impl SpanStats {
    /// Mean duration in µs (0 when no span was timed).
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.micros as f64 / self.count as f64
        }
    }
}

fn hist_bucket(micros: u64) -> usize {
    ((64 - micros.leading_zeros()) as usize).min(N_HIST_BUCKETS - 1)
}

/// An in-flight span, opened with [`Span::enter`] and closed with
/// [`Span::exit`].
///
/// The two-call shape (rather than a `Drop` guard) lets the registry be
/// borrowed mutably *during* the span — the common case in the kernels,
/// where the bracketed code itself bumps counters. When the registry is
/// idle for the whole phase, prefer the RAII [`ObsRegistry::span`].
#[must_use = "a span must be closed with exit()"]
pub struct Span {
    kind: SpanKind,
    start: Option<Instant>,
}

impl Span {
    /// Opens a span. Reads the clock only when `reg` has timing enabled.
    #[inline]
    pub fn enter(reg: &ObsRegistry, kind: SpanKind) -> Span {
        Span { kind, start: if reg.timed { Some(Instant::now()) } else { None } }
    }

    /// Closes the span, recording it into `reg`.
    #[inline]
    pub fn exit(self, reg: &mut ObsRegistry) {
        reg.close_span(self.kind, self.start);
    }
}

/// RAII form of [`Span`]: records on drop. Borrows the registry for the
/// span's whole extent.
pub struct SpanGuard<'a> {
    reg: &'a mut ObsRegistry,
    kind: SpanKind,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.reg.close_span(self.kind, self.start);
    }
}

// ---- the registry ----

/// Fixed-size counter + span registry; the one snapshot type every
/// driver footer renders.
///
/// `Default` yields an all-zero, **untimed** registry: spans count but do
/// not read the clock, so the hot path stays free of `Instant::now`
/// calls. Enable timing with [`ObsRegistry::set_timed`] (the CLI's
/// `--metrics`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsRegistry {
    counters: [u64; N_COUNTERS],
    spans: [SpanStats; N_SPANS],
    timed: bool,
}

impl Default for ObsRegistry {
    fn default() -> Self {
        ObsRegistry {
            counters: [0; N_COUNTERS],
            spans: [SpanStats::default(); N_SPANS],
            timed: false,
        }
    }
}

impl ObsRegistry {
    /// An all-zero, untimed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables span timing (clock reads).
    pub fn set_timed(&mut self, timed: bool) {
        self.timed = timed;
    }

    /// Whether span timing (clock reads) is enabled.
    pub fn timed(&self) -> bool {
        self.timed
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.counters[c as usize] += 1;
    }

    /// Sets a counter to an absolute value.
    #[inline]
    pub fn set(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] = n;
    }

    /// Reads a counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Reads a span's aggregate.
    pub fn span_stats(&self, k: SpanKind) -> &SpanStats {
        &self.spans[k as usize]
    }

    /// Opens an RAII span guard (see [`SpanGuard`]).
    pub fn span(&mut self, kind: SpanKind) -> SpanGuard<'_> {
        let start = if self.timed { Some(Instant::now()) } else { None };
        SpanGuard { reg: self, kind, start }
    }

    fn close_span(&mut self, kind: SpanKind, start: Option<Instant>) {
        let s = &mut self.spans[kind as usize];
        s.count += 1;
        if let Some(t0) = start {
            let us = t0.elapsed().as_micros() as u64;
            s.micros += us;
            s.max_micros = s.max_micros.max(us);
            s.hist[hist_bucket(us)] += 1;
        }
    }

    /// Records an externally measured duration against a span (used where
    /// the caller already pays for the clock read, e.g. the backward
    /// phase's always-on meta timer).
    pub fn record_span_micros(&mut self, kind: SpanKind, micros: u64) {
        let s = &mut self.spans[kind as usize];
        s.count += 1;
        s.micros += micros;
        s.max_micros = s.max_micros.max(micros);
        s.hist[hist_bucket(micros)] += 1;
    }

    /// Accumulates another registry into this one (counters add, spans
    /// merge; the timing flag is unchanged).
    pub fn merge(&mut self, other: &ObsRegistry) {
        for i in 0..N_COUNTERS {
            self.counters[i] += other.counters[i];
        }
        for i in 0..N_SPANS {
            let (a, b) = (&mut self.spans[i], &other.spans[i]);
            a.count += b.count;
            a.micros += b.micros;
            a.max_micros = a.max_micros.max(b.max_micros);
            for j in 0..N_HIST_BUCKETS {
                a.hist[j] += b.hist[j];
            }
        }
    }

    /// Counter-wise difference versus an earlier snapshot (saturating;
    /// span data is differenced on count/micros only).
    pub fn since(&self, earlier: &ObsRegistry) -> ObsRegistry {
        let mut out = ObsRegistry { timed: self.timed, ..ObsRegistry::default() };
        for i in 0..N_COUNTERS {
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..N_SPANS {
            out.spans[i].count = self.spans[i].count.saturating_sub(earlier.spans[i].count);
            out.spans[i].micros = self.spans[i].micros.saturating_sub(earlier.spans[i].micros);
        }
        out
    }

    /// Renders the standard two-line batch footer from the registry —
    /// the single formatter behind the CLI, suite, and bench `batch`
    /// footers. Line 1 is the batch summary, line 2 the `meta:` kernel
    /// counters (see [`render_meta_line`]).
    pub fn render(&self) -> String {
        let queries = self.get(Counter::Queries);
        let wall = self.get(Counter::WallMicros).max(1);
        let qps = queries as f64 * 1e6 / wall as f64;
        let (hits, misses) = (self.get(Counter::CacheHits), self.get(Counter::CacheMisses));
        let lookups = hits + misses;
        let rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
        format!(
            "{} queries, jobs={}: {:.1} q/s, cache {}/{} hits ({:.1}%), {} forward runs saved, \
             faults={} deadlines={} escalations={} retries={} resumed={} degradations={} \
             injected={} io_injected={} contention={}µs forward={}µs solver={}µs\n{}",
            queries,
            self.get(Counter::Jobs),
            qps,
            hits,
            lookups,
            rate * 100.0,
            hits,
            self.get(Counter::EngineFaults),
            self.get(Counter::DeadlineExceeded),
            self.get(Counter::Escalations),
            self.get(Counter::Retries),
            self.get(Counter::Resumed),
            self.get(Counter::Degradations),
            self.get(Counter::FaultsInjected),
            self.get(Counter::IoFaults),
            self.get(Counter::LockWaitMicros),
            self.get(Counter::ForwardMicros),
            self.get(Counter::SolverMicros),
            render_meta_line(
                self.get(Counter::CubesBuilt),
                self.get(Counter::WpHits),
                self.get(Counter::WpHits) + self.get(Counter::WpMisses),
                self.get(Counter::SubsumptionFastRejects),
                self.get(Counter::SubsumptionChecks),
                self.get(Counter::ApproxDrops),
                self.get(Counter::MetaMicros),
            ),
        )
    }

    /// Renders the per-span metrics table (the CLI's `--metrics`): one
    /// line per span kind with count, total, mean, max, and the latency
    /// histogram (only non-empty buckets, as `<=Nµs:count`).
    pub fn render_spans(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kind = match i {
                0 => "solver",
                1 => "forward",
                2 => "backward",
                3 => "approx",
                4 => "viable",
                _ => unreachable!(),
            };
            let _ = write!(
                out,
                "span {kind:<8} count={} total={}µs mean={:.1}µs max={}µs",
                s.count,
                s.micros,
                s.mean_micros(),
                s.max_micros
            );
            let mut hist = String::new();
            for (b, &n) in s.hist.iter().enumerate() {
                if n > 0 {
                    let hi = if b == 0 { 0 } else { (1u64 << b) - 1 };
                    let _ = write!(hist, " <={hi}µs:{n}");
                }
            }
            if !hist.is_empty() {
                let _ = write!(out, " hist{hist}");
            }
            out.push('\n');
        }
        let _ = write!(out, "solver nodes: {}", self.get(Counter::SolverNodes));
        out
    }
}

/// Renders the frozen `meta:` footer line from the seven meta-kernel
/// counters. [`ObsRegistry::render`] and the `MetaStats` `Display` impl
/// both delegate here, so the format lives in exactly one place.
pub fn render_meta_line(
    cubes_built: u64,
    wp_hits: u64,
    wp_lookups: u64,
    fast_rejects: u64,
    checks: u64,
    drops: u64,
    micros: u64,
) -> String {
    format!(
        "meta: {cubes_built} cubes, wp {wp_hits}/{wp_lookups} memo hits, \
         subsumption {fast_rejects}/{checks} fast-rejected, {drops} drops, {micros}µs"
    )
}

// ---- trace events ----

/// One structured trace event.
///
/// Events carry only deterministic data (no wall-clock readings), so a
/// seeded run emits a byte-identical stream regardless of machine or
/// worker count. `query` is the query's index within its batch; `iter`
/// is the 0-based CEGAR iteration within that query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The DPLL solver produced a candidate abstraction; a new CEGAR
    /// iteration begins.
    IterationStart {
        /// Batch index of the query.
        query: u64,
        /// 0-based iteration within the query.
        iter: u64,
    },
    /// The candidate abstraction chosen by the minimum-cost solve.
    ParamChosen {
        /// Batch index of the query.
        query: u64,
        /// 0-based iteration within the query.
        iter: u64,
        /// Cost (size) of the chosen abstraction.
        cost: u64,
        /// Solver assignment as a `0`/`1` bitstring, atom order.
        param: String,
    },
    /// The forward RHS run converged.
    ForwardDone {
        /// Batch index of the query.
        query: u64,
        /// 0-based iteration within the query.
        iter: u64,
        /// Dataflow facts in the converged solution.
        facts: u64,
    },
    /// The backward meta-analysis finished for this iteration.
    MetaDone {
        /// Batch index of the query.
        query: u64,
        /// 0-based iteration within the query.
        iter: u64,
        /// Cubes built during this iteration's backward run.
        cubes: u64,
        /// wp-memo hits this iteration.
        wp_hits: u64,
        /// wp-memo misses this iteration.
        wp_misses: u64,
    },
    /// Cubes dropped by `approx`/`drop_k` pruning this iteration.
    Pruned {
        /// Batch index of the query.
        query: u64,
        /// 0-based iteration within the query.
        iter: u64,
        /// Cubes dropped.
        cubes: u64,
    },
    /// The query reached a final outcome.
    QueryResolved {
        /// Batch index of the query.
        query: u64,
        /// Outcome tag: `proven`, `impossible`, `iteration_budget`,
        /// `too_big`, `meta_failure`, `deadline`, `engine_fault`, or
        /// `mem_budget`.
        outcome: String,
        /// Total CEGAR iterations the query took.
        iterations: u64,
    },
}

impl Event {
    /// Encodes the event as one JSONL line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Event::IterationStart { query, iter } => {
                format!("{{\"ev\":\"iteration_start\",\"query\":{query},\"iter\":{iter}}}")
            }
            Event::ParamChosen { query, iter, cost, param } => format!(
                "{{\"ev\":\"param_chosen\",\"query\":{query},\"iter\":{iter},\"cost\":{cost},\
                 \"param\":\"{}\"}}",
                json_escape(param)
            ),
            Event::ForwardDone { query, iter, facts } => format!(
                "{{\"ev\":\"forward_done\",\"query\":{query},\"iter\":{iter},\"facts\":{facts}}}"
            ),
            Event::MetaDone { query, iter, cubes, wp_hits, wp_misses } => format!(
                "{{\"ev\":\"meta_done\",\"query\":{query},\"iter\":{iter},\"cubes\":{cubes},\
                 \"wp_hits\":{wp_hits},\"wp_misses\":{wp_misses}}}"
            ),
            Event::Pruned { query, iter, cubes } => format!(
                "{{\"ev\":\"pruned\",\"query\":{query},\"iter\":{iter},\"cubes\":{cubes}}}"
            ),
            Event::QueryResolved { query, outcome, iterations } => format!(
                "{{\"ev\":\"query_resolved\",\"query\":{query},\"outcome\":\"{}\",\
                 \"iterations\":{iterations}}}",
                json_escape(outcome)
            ),
        }
    }

    /// Decodes one JSONL line produced by [`Event::encode`].
    pub fn decode(line: &str) -> Option<Event> {
        let fields = parse_json_line(line)?;
        let num = |k: &str| fields.get(k).and_then(|v| v.parse::<u64>().ok());
        let ev = match fields.get("ev")?.as_str() {
            "iteration_start" => {
                Event::IterationStart { query: num("query")?, iter: num("iter")? }
            }
            "param_chosen" => Event::ParamChosen {
                query: num("query")?,
                iter: num("iter")?,
                cost: num("cost")?,
                param: fields.get("param")?.clone(),
            },
            "forward_done" => Event::ForwardDone {
                query: num("query")?,
                iter: num("iter")?,
                facts: num("facts")?,
            },
            "meta_done" => Event::MetaDone {
                query: num("query")?,
                iter: num("iter")?,
                cubes: num("cubes")?,
                wp_hits: num("wp_hits")?,
                wp_misses: num("wp_misses")?,
            },
            "pruned" => Event::Pruned { query: num("query")?, iter: num("iter")?, cubes: num("cubes")? },
            "query_resolved" => Event::QueryResolved {
                query: num("query")?,
                outcome: fields.get("outcome")?.clone(),
                iterations: num("iterations")?,
            },
            _ => return None,
        };
        Some(ev)
    }
}

/// Parses a whole JSONL trace, strictly: every line must decode.
///
/// # Errors
///
/// The 1-based number of the first undecodable line.
pub fn parse_trace(text: &str) -> Result<Vec<Event>, usize> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match Event::decode(line) {
            Some(ev) => out.push(ev),
            None => return Err(i + 1),
        }
    }
    Ok(out)
}

/// Parses a JSONL trace tolerating a **torn final line** — the signature
/// of a process killed mid-write, mirroring the checkpoint reader. An
/// undecodable line anywhere else is still an error.
///
/// # Errors
///
/// The 1-based number of the first undecodable non-final line.
pub fn recover_trace(text: &str) -> Result<Vec<Event>, usize> {
    let lines: Vec<&str> = text.lines().collect();
    let last = lines.len().saturating_sub(1);
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        match Event::decode(line) {
            Some(ev) => out.push(ev),
            None if i == last => {}
            None => return Err(i + 1),
        }
    }
    Ok(out)
}

// ---- sinks ----

/// Where trace events go. Implementations must be thread-safe: the batch
/// scheduler drains per-query buffers through one shared sink.
pub trait TraceSink: Sync {
    /// Consumes one event.
    fn emit(&self, event: &Event);
    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// Discards every event; all methods compile to no-ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn emit(&self, _event: &Event) {}
}

/// Writes events as JSONL lines to a buffered file.
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Creates (truncates) the trace file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: &Path) -> std::io::Result<FileSink> {
        Ok(FileSink { writer: Mutex::new(BufWriter::new(File::create(path)?)) })
    }
}

impl TraceSink for FileSink {
    fn emit(&self, event: &Event) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // Trace output is best-effort: a full disk must not abort the
        // analysis itself.
        let _ = writeln!(w, "{}", event.encode());
    }

    fn flush(&self) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = w.flush();
    }
}

/// Records events in memory, for tests and golden traces.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// A copy of everything recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Drains the recording.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl TraceSink for Recorder {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Event> {
        vec![
            Event::IterationStart { query: 3, iter: 0 },
            Event::ParamChosen { query: 3, iter: 0, cost: 2, param: "0101".into() },
            Event::ForwardDone { query: 3, iter: 0, facts: 812 },
            Event::MetaDone { query: 3, iter: 0, cubes: 44, wp_hits: 12, wp_misses: 3 },
            Event::Pruned { query: 3, iter: 0, cubes: 7 },
            Event::QueryResolved { query: 3, outcome: "proven".into(), iterations: 1 },
        ]
    }

    #[test]
    fn every_event_variant_round_trips() {
        for ev in all_variants() {
            let line = ev.encode();
            assert_eq!(Event::decode(&line).as_ref(), Some(&ev), "line {line}");
            // Re-encoding the decoded event reproduces the bytes.
            assert_eq!(Event::decode(&line).unwrap().encode(), line);
        }
    }

    #[test]
    fn escaped_payloads_survive() {
        let ev = Event::QueryResolved {
            query: 0,
            outcome: "fault: \"boom\"\nline2".into(),
            iterations: 0,
        };
        assert_eq!(Event::decode(&ev.encode()), Some(ev));
    }

    #[test]
    fn decode_rejects_unknown_and_partial() {
        assert_eq!(Event::decode("{\"ev\":\"nope\",\"query\":1}"), None);
        assert_eq!(Event::decode("{\"ev\":\"iteration_start\",\"query\":1}"), None);
        assert_eq!(Event::decode("{\"query\":1,\"iter\":0}"), None);
        assert_eq!(Event::decode("garbage"), None);
    }

    #[test]
    fn parse_trace_is_strict_but_recover_drops_torn_tail() {
        let mut text = String::new();
        for ev in all_variants() {
            text.push_str(&ev.encode());
            text.push('\n');
        }
        let full = parse_trace(&text).unwrap();
        assert_eq!(full, all_variants());

        // Tear the final line mid-write.
        let torn = &text[..text.len() - 10];
        assert!(parse_trace(torn).is_err());
        let recovered = recover_trace(torn).unwrap();
        assert_eq!(recovered, all_variants()[..all_variants().len() - 1]);

        // Corruption in the middle is an error either way, with the right
        // line number.
        let mut bad = text.clone();
        bad.insert_str(bad.find('\n').unwrap() + 1, "corrupt\n");
        assert_eq!(parse_trace(&bad), Err(2));
        assert_eq!(recover_trace(&bad), Err(2));
    }

    #[test]
    fn null_sink_discards_and_recorder_keeps_order(){
        let null = NullSink;
        let rec = Recorder::new();
        for ev in all_variants() {
            null.emit(&ev);
            rec.emit(&ev);
        }
        null.flush();
        assert_eq!(rec.events(), all_variants());
        assert_eq!(rec.take(), all_variants());
        assert!(rec.events().is_empty());
    }

    #[test]
    fn file_sink_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!("pda-obs-{}.jsonl", std::process::id()));
        let sink = FileSink::create(&path).unwrap();
        for ev in all_variants() {
            sink.emit(&ev);
        }
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_trace(&text).unwrap(), all_variants());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn untimed_spans_count_without_clock_data() {
        let mut reg = ObsRegistry::new();
        let s = Span::enter(&reg, SpanKind::Solver);
        s.exit(&mut reg);
        {
            let _g = reg.span(SpanKind::Forward);
        }
        assert_eq!(reg.span_stats(SpanKind::Solver).count, 1);
        assert_eq!(reg.span_stats(SpanKind::Solver).micros, 0);
        assert_eq!(reg.span_stats(SpanKind::Forward).count, 1);
        assert_eq!(reg.span_stats(SpanKind::Forward).hist, [0; N_HIST_BUCKETS]);
    }

    #[test]
    fn timed_spans_fill_the_histogram() {
        let mut reg = ObsRegistry::new();
        reg.set_timed(true);
        let s = Span::enter(&reg, SpanKind::Backward);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.exit(&mut reg);
        let st = reg.span_stats(SpanKind::Backward);
        assert_eq!(st.count, 1);
        assert!(st.micros >= 1_000, "slept 2ms but recorded {}µs", st.micros);
        assert_eq!(st.max_micros, st.micros);
        assert_eq!(st.hist.iter().sum::<u64>(), 1);
        assert!(reg.render_spans().contains("span backward count=1 total="));
    }

    #[test]
    fn merge_and_since_are_inverse_on_counters() {
        let mut a = ObsRegistry::new();
        a.add(Counter::CubesBuilt, 10);
        a.inc(Counter::Iterations);
        let snapshot = a.clone();
        a.add(Counter::CubesBuilt, 5);
        a.add(Counter::WpHits, 3);
        let delta = a.since(&snapshot);
        assert_eq!(delta.get(Counter::CubesBuilt), 5);
        assert_eq!(delta.get(Counter::WpHits), 3);
        assert_eq!(delta.get(Counter::Iterations), 0);
        let mut b = snapshot.clone();
        b.merge(&delta);
        assert_eq!(b, a);
    }

    #[test]
    fn render_matches_frozen_batch_footer_shape() {
        let mut reg = ObsRegistry::new();
        reg.set(Counter::Queries, 32);
        reg.set(Counter::Jobs, 8);
        reg.set(Counter::WallMicros, 2_000_000);
        reg.set(Counter::CacheHits, 57);
        reg.set(Counter::CacheMisses, 32);
        reg.set(Counter::Escalations, 1);
        reg.set(Counter::CubesBuilt, 7);
        reg.set(Counter::WpHits, 3);
        reg.set(Counter::WpMisses, 1);
        reg.set(Counter::SubsumptionChecks, 9);
        reg.set(Counter::ApproxDrops, 2);
        reg.set(Counter::MetaMicros, 15);
        reg.set(Counter::Degradations, 3);
        reg.set(Counter::Retries, 4);
        reg.set(Counter::LockWaitMicros, 11);
        reg.set(Counter::SolverMicros, 21);
        reg.set(Counter::ForwardMicros, 17);
        reg.set(Counter::FaultsInjected, 6);
        reg.set(Counter::IoFaults, 2);
        assert_eq!(
            reg.render(),
            "32 queries, jobs=8: 16.0 q/s, cache 57/89 hits (64.0%), 57 forward runs saved, \
             faults=0 deadlines=0 escalations=1 retries=4 resumed=0 degradations=3 \
             injected=6 io_injected=2 contention=11µs forward=17µs solver=21µs\n\
             meta: 7 cubes, wp 3/4 memo hits, subsumption 0/9 fast-rejected, 2 drops, 15µs"
        );
    }

    #[test]
    fn hist_buckets_are_powers_of_two() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(u64::MAX), N_HIST_BUCKETS - 1);
    }
}
