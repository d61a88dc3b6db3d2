//! The supervision layer: resident analysis state, per-request panic
//! isolation, cache quarantine by generation, retry/backoff, the result
//! journal, and the drain flag.
//!
//! One [`Supervisor`] is shared by every connection of a daemon. Warm
//! state lives at two levels with different blast radii:
//!
//! * the **forward cache** ([`ForwardCache`]) is process-wide and tagged
//!   with a *generation* number. A worker panic retires the whole
//!   generation — requests already running keep their `Arc` and finish,
//!   but every later request starts on a fresh, empty cache;
//! * the **interner** ([`InternCache`]) is per *connection* (it is
//!   mutable and cheap to rebuild). It carries the generation it was
//!   built under and is discarded whenever the generation has moved on,
//!   or whenever its own connection's request unwound mid-mutation.
//!
//! Finished verdicts are journaled to a standard batch checkpoint file
//! (flushed per record), so a killed daemon resumes without re-solving;
//! transient outcomes (engine faults, deadline hits) are deliberately
//! *not* journaled — a restart should retry them.
//!
//! The supervision machinery itself is the batch driver's: requests run
//! inside [`isolate`] on [`retry_ladder`], drain their trace through
//! [`emit_query_trace`], and the journal opens through
//! [`open_checkpoint`]. What is the daemon's own is the per-attempt
//! deadline and the quarantine. Faults are injected through the fault
//! plane, as for the batch: `query.<i>@1=panic` fails query `i`'s first
//! attempt.

use crate::proto::{parse_request, LineBuilder, Op, Request, Target};
use pda_lang::{CallId, MethodId, Program};
use pda_tracer::{
    emit_query_trace, isolate, open_checkpoint, outcome_tag, retry_ladder,
    solve_queries_batch_checkpointed, BatchConfig, CheckpointWriter, ForwardCache, InternCache,
    Outcome, ParamCodec, Query, QueryObs, QueryResult, RetryPolicy, Session, TracerClient,
    TracerConfig, Unresolved,
};
use pda_util::{faultplane, Deadline, FileSink, TraceSink};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Daemon-side policy knobs (everything except the transport).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-query tracer configuration shared by all requests.
    pub tracer: TracerConfig,
    /// Worker threads for the `batch` op.
    pub jobs: usize,
    /// Default per-request wall-clock deadline in milliseconds, used
    /// when the request carries none.
    pub deadline_ms: Option<u64>,
    /// Deterministic backoff ladder for transient faults. With
    /// [`RetryPolicy::retry_deadline`] set, deadline hits retry too:
    /// each attempt gets a fresh deadline window, so a request that a
    /// transient stall (an injected `stall` fault, a loaded machine)
    /// pushed past its window can still finish, and forward runs its
    /// earlier attempt or a sibling completed meanwhile are cache hits.
    pub retry: Option<RetryPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { tracer: TracerConfig::default(), jobs: 1, deadline_ms: None, retry: None }
    }
}

/// Per-connection resident state: the interner survives across requests
/// on one connection, but only within one cache generation.
pub struct ConnState<P: pda_meta::Primitive> {
    icache: InternCache<P>,
    generation: u64,
}

impl<P: pda_meta::Primitive> ConnState<P> {
    /// A fresh connection joining the given generation.
    pub fn new(generation: u64) -> ConnState<P> {
        ConnState { icache: InternCache::default(), generation }
    }
}

/// The outcome of handling one request line.
#[derive(Debug)]
pub struct Reply {
    /// The JSON response line (no trailing newline).
    pub text: String,
    /// The handler retired the cache generation (an engine fault).
    pub quarantine: bool,
    /// The request asked the daemon to drain and exit.
    pub shutdown: bool,
}

impl Reply {
    fn text(text: String) -> Reply {
        Reply { text, quarantine: false, shutdown: false }
    }
}

/// Journal state: the path plus the currently open writer. The writer is
/// closed (flushed) around the `batch` op, which owns the file while it
/// runs, and reopened in append mode afterwards.
struct Journal {
    path: Option<PathBuf>,
    writer: Option<CheckpointWriter>,
}

/// The shared supervision core. See the module docs for the state model.
pub struct Supervisor<'p, C: TracerClient> {
    program: &'p Program,
    callees: &'p (dyn Fn(CallId) -> Vec<MethodId> + Sync),
    client: &'p C,
    queries: Vec<Query<C::Prim>>,
    labels: Vec<String>,
    config: ServeConfig,
    cache: Mutex<Arc<ForwardCache<'p, C::State>>>,
    generation: AtomicU64,
    served: AtomicU64,
    faults: AtomicU64,
    quarantines: AtomicU64,
    drain: Arc<AtomicBool>,
    journal: Mutex<Journal>,
    answered: Mutex<HashMap<usize, QueryResult<C::Param>>>,
    trace: Option<FileSink>,
}

impl<'p, C> Supervisor<'p, C>
where
    C: TracerClient + Sync,
    C::Param: Send + ParamCodec,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    /// Builds a supervisor over resident program artifacts. `labels[i]`
    /// names `queries[i]` for `"query":label` requests and responses.
    ///
    /// # Panics
    ///
    /// Panics if `queries` and `labels` disagree in length.
    pub fn new(
        program: &'p Program,
        callees: &'p (dyn Fn(CallId) -> Vec<MethodId> + Sync),
        client: &'p C,
        queries: Vec<Query<C::Prim>>,
        labels: Vec<String>,
        config: ServeConfig,
    ) -> Supervisor<'p, C> {
        assert_eq!(queries.len(), labels.len(), "one label per query");
        Supervisor {
            program,
            callees,
            client,
            queries,
            labels,
            config,
            cache: Mutex::new(Arc::new(ForwardCache::new())),
            generation: AtomicU64::new(0),
            served: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            drain: Arc::new(AtomicBool::new(false)),
            journal: Mutex::new(Journal { path: None, writer: None }),
            answered: Mutex::new(HashMap::new()),
            trace: None,
        }
    }

    /// Streams per-request structured events (and one `query_resolved`
    /// line per request) to `sink`.
    pub fn attach_trace(&mut self, sink: FileSink) {
        self.trace = Some(sink);
    }

    /// Attaches a journal file. An existing file is loaded (finished
    /// verdicts become served-from-memory resumes), compacted — which
    /// also drops any torn tail from a crash mid-write — and kept open
    /// for appending. Returns how many queries were resumed.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the file exists but cannot be
    /// trusted (wrong batch, interior corruption) or rewritten.
    pub fn attach_journal(&mut self, path: PathBuf) -> Result<usize, String> {
        let (restored, writer) = open_checkpoint::<C::Param>(&path, self.queries.len())
            .map_err(|e| format!("journal {}: {e}", path.display()))?;
        // Only durable verdicts are served from memory; a journaled
        // transient (a batch op records those too) re-runs on request.
        let answered: HashMap<usize, QueryResult<C::Param>> =
            restored.into_iter().filter(|(_, r)| Self::durable(&r.outcome)).collect();
        let resumed = answered.len();
        *self.answered.lock().expect("answered poisoned") = answered;
        *self.journal.lock().expect("journal poisoned") =
            Journal { path: Some(path), writer: Some(writer) };
        Ok(resumed)
    }

    /// The current cache generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// A clone of the drain flag (the daemon wires signals into it; the
    /// `batch` op uses it as its cancel signal).
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.drain)
    }

    /// Whether admission has stopped.
    pub fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// Requests successfully served (including memo hits).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Requests that resolved as engine faults (after retries).
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::SeqCst)
    }

    /// Cache generations retired after a panic.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::SeqCst)
    }

    /// Flushes and closes the journal writer (end of daemon life).
    pub fn close_journal(&self) {
        self.journal.lock().expect("journal poisoned").writer = None;
    }

    /// Handles one request line against one connection's state; solve
    /// attempts run on the calling thread.
    pub fn handle_line(&self, conn: &mut ConnState<C::Prim>, line: &str) -> Reply {
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(reason) => {
                return Reply::text(
                    LineBuilder::new()
                        .str("ok", "false")
                        .str("error", "bad_request")
                        .str("detail", &reason)
                        .num("generation", u128::from(self.generation()))
                        .finish(),
                )
            }
        };
        match &req.op {
            Op::Health => Reply::text(self.health_line(&req)),
            Op::Shutdown => {
                self.drain.store(true, Ordering::SeqCst);
                let text = LineBuilder::new()
                    .opt_id(req.id.as_deref())
                    .str("ok", "true")
                    .str("op", "shutdown")
                    .str("draining", "true")
                    .num("generation", u128::from(self.generation()))
                    .finish();
                Reply { text, quarantine: false, shutdown: true }
            }
            Op::Batch => Reply::text(self.batch_line(&req)),
            Op::Solve { .. } => self.solve_reply(conn, &req),
        }
    }

    fn health_line(&self, req: &Request) -> String {
        LineBuilder::new()
            .opt_id(req.id.as_deref())
            .str("ok", "true")
            .str("op", "health")
            .str("ready", if self.draining() { "false" } else { "true" })
            .num("queries", self.queries.len() as u128)
            .num("generation", u128::from(self.generation()))
            .num("served", u128::from(self.served()))
            .num("faults", u128::from(self.faults()))
            .num("quarantines", u128::from(self.quarantines()))
            .num("faults_injected", u128::from(faultplane::faults_injected()))
            .num("io_faults", u128::from(faultplane::io_faults()))
            .finish()
    }

    fn error_line(&self, req: &Request, error: &str, detail: &str) -> String {
        LineBuilder::new()
            .opt_id(req.id.as_deref())
            .str("ok", "false")
            .str("op", "solve")
            .str("error", error)
            .str("detail", detail)
            .num("generation", u128::from(self.generation()))
            .finish()
    }

    fn resolve(&self, target: &Target) -> Option<usize> {
        match target {
            Target::Index(i) => (*i < self.queries.len()).then_some(*i),
            Target::Label(label) => self.labels.iter().position(|l| l == label),
        }
    }

    /// Whether an outcome is durable enough to journal and memoize:
    /// engine faults, deadline hits, and drains are transient (a retry
    /// or a restart may do better), everything else is a final verdict.
    fn durable(outcome: &Outcome<C::Param>) -> bool {
        !matches!(
            outcome,
            Outcome::Unresolved(Unresolved::EngineFault(_))
                | Outcome::Unresolved(Unresolved::DeadlineExceeded)
                | Outcome::Unresolved(Unresolved::Drained)
        )
    }

    fn record(&self, index: usize, r: &QueryResult<C::Param>) {
        let mut j = self.journal.lock().expect("journal poisoned");
        if let Some(w) = j.writer.as_mut() {
            // A failed journal write demotes the daemon to memory-only
            // durability rather than failing requests.
            if w.append(index, r).is_err() {
                j.writer = None;
            }
        }
    }

    fn result_line(
        &self,
        req: &Request,
        index: usize,
        r: &QueryResult<C::Param>,
        generation: u64,
        resumed: bool,
    ) -> String {
        let b = LineBuilder::new()
            .opt_id(req.id.as_deref())
            .str("ok", if matches!(r.outcome, Outcome::Unresolved(_)) { "false" } else { "true" })
            .str("op", "solve")
            .num("index", index as u128)
            .str("label", &self.labels[index]);
        let b = match &r.outcome {
            Outcome::Proven { param, cost } => b
                .str("outcome", "proven")
                .str("param", &param.encode_param())
                .num("cost", u128::from(*cost)),
            Outcome::Impossible => b.str("outcome", "impossible"),
            Outcome::Unresolved(u) => {
                b.str("error", outcome_tag(&r.outcome)).str("detail", &u.to_string())
            }
        };
        b.num("iterations", r.iterations as u128)
            .num("retries", u128::from(r.retries))
            .num("generation", u128::from(generation))
            .str("resumed", if resumed { "true" } else { "false" })
            .finish()
    }

    fn solve_reply(&self, conn: &mut ConnState<C::Prim>, req: &Request) -> Reply {
        let Op::Solve { target, deadline_ms } = &req.op else {
            unreachable!("dispatched on Op::Solve");
        };
        if self.draining() {
            return Reply::text(self.error_line(req, "draining", "admission stopped"));
        }
        let Some(index) = self.resolve(target) else {
            let detail = match target {
                Target::Index(i) => format!("index {i} out of range"),
                Target::Label(l) => format!("no query labeled `{l}`"),
            };
            return Reply::text(self.error_line(req, "unknown_query", &detail));
        };

        let generation = self.generation();
        if conn.generation != generation {
            // A quarantine happened since this connection last solved:
            // its interner may derive from the poisoned generation.
            conn.icache = InternCache::default();
            conn.generation = generation;
        }
        let hit = self.answered.lock().expect("answered poisoned").get(&index).cloned();
        if let Some(r) = hit {
            self.served.fetch_add(1, Ordering::SeqCst);
            return Reply::text(self.result_line(req, index, &r, generation, true));
        }

        let cache = Arc::clone(&self.cache.lock().expect("cache poisoned"));
        let timeout = deadline_ms.or(self.config.deadline_ms).map(Duration::from_millis);
        let icache = &mut conn.icache;
        let retry = self.config.retry.as_ref();
        let (result, qobs) = retry_ladder(index, retry, || self.draining(), |_| {
            let mut qobs = QueryObs::new(index as u64, self.trace.is_some(), false);
            let r = isolate(|| {
                let query = &self.queries[index];
                Session::new(self.program, self.callees, self.client, query, &self.config.tracer)
                    // Each attempt gets a fresh deadline: the point of
                    // retrying `DeadlineExceeded` is a fresh budget.
                    .within(Deadline::timeout(timeout))
                    .cache(&cache)
                    .intern(icache)
                    .observe(&mut qobs)
                    .run()
            });
            // An attempt that faulted may have unwound mid-mutation of
            // the interner, so the interner goes down with it.
            if matches!(r.outcome, Outcome::Unresolved(Unresolved::EngineFault(_))) {
                *icache = InternCache::default();
            }
            (r, qobs)
        });

        let faulted = matches!(result.outcome, Outcome::Unresolved(Unresolved::EngineFault(_)));
        let quarantine = if faulted {
            self.faults.fetch_add(1, Ordering::SeqCst);
            // The faulted attempt already discarded this connection's
            // interner; it joins the fresh generation as it is.
            conn.generation = self.quarantine_current();
            true
        } else {
            self.served.fetch_add(1, Ordering::SeqCst);
            if Self::durable(&result.outcome) {
                self.record(index, &result);
                self.answered.lock().expect("answered poisoned").insert(index, result.clone());
            }
            false
        };
        if let Some(sink) = &self.trace {
            emit_query_trace(sink, &result, &qobs);
            sink.flush();
        }
        Reply {
            text: self.result_line(req, index, &result, generation, false),
            quarantine,
            shutdown: false,
        }
    }

    /// Retires the running cache generation: a fresh empty forward cache
    /// is swapped in and the generation counter bumps. Requests already
    /// holding the old `Arc` finish on it; nothing new ever reads it.
    /// Returns the new generation number.
    fn quarantine_current(&self) -> u64 {
        let mut slot = self.cache.lock().expect("cache poisoned");
        *slot = Arc::new(ForwardCache::new());
        self.quarantines.fetch_add(1, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn batch_line(&self, req: &Request) -> String {
        if self.draining() {
            return self.error_line(req, "draining", "admission stopped");
        }
        let config = BatchConfig {
            tracer: self.config.tracer.clone(),
            jobs: self.config.jobs,
            retry: self.config.retry.clone(),
            cancel: Some(self.drain_flag()),
            ..BatchConfig::default()
        };
        let path = self.journal.lock().expect("journal poisoned").path.clone();
        let run = match &path {
            Some(path) => {
                // The checkpointed driver owns the journal file while it
                // runs; close our writer around the call.
                self.journal.lock().expect("journal poisoned").writer = None;
                solve_queries_batch_checkpointed(
                    self.program,
                    self.callees,
                    self.client,
                    &self.queries,
                    &config,
                    path,
                )
            }
            None => Ok(pda_tracer::solve_queries_batch(
                self.program,
                self.callees,
                self.client,
                &self.queries,
                &config,
            )),
        };
        if let Some(path) = &path {
            let mut j = self.journal.lock().expect("journal poisoned");
            j.writer = CheckpointWriter::open_append(path).ok();
        }
        let (results, stats) = match run {
            Ok(out) => out,
            Err(e) => {
                return LineBuilder::new()
                    .opt_id(req.id.as_deref())
                    .str("ok", "false")
                    .str("op", "batch")
                    .str("error", "checkpoint")
                    .str("detail", &e.to_string())
                    .num("generation", u128::from(self.generation()))
                    .finish()
            }
        };
        let mut proven = 0u64;
        let mut impossible = 0u64;
        let mut drained = 0u64;
        {
            let mut answered = self.answered.lock().expect("answered poisoned");
            for (i, r) in results.iter().enumerate() {
                match &r.outcome {
                    Outcome::Proven { .. } => proven += 1,
                    Outcome::Impossible => impossible += 1,
                    Outcome::Unresolved(Unresolved::Drained) => drained += 1,
                    Outcome::Unresolved(_) => {}
                }
                if Self::durable(&r.outcome) {
                    answered.insert(i, r.clone());
                }
            }
        }
        self.served.fetch_add(results.len() as u64 - drained, Ordering::SeqCst);
        LineBuilder::new()
            .opt_id(req.id.as_deref())
            .str("ok", "true")
            .str("op", "batch")
            .num("queries", results.len() as u128)
            .num("proven", u128::from(proven))
            .num("impossible", u128::from(impossible))
            .num("resumed", stats.resumed as u128)
            .num("faults", stats.engine_faults as u128)
            .num("deadlines", stats.deadline_exceeded as u128)
            .num("retries", u128::from(stats.retries))
            .num("drained", u128::from(drained))
            .num("generation", u128::from(self.generation()))
            .finish()
    }
}

