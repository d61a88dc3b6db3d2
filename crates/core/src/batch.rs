//! Batch query scheduler: all of a program's queries through TRACER on a
//! worker pool, with a shared forward-run cache and a fault-isolation
//! boundary per query.
//!
//! The paper evaluates TRACER one *suite program* at a time, but each
//! program carries dozens to thousands of queries, and every query's
//! CEGAR loop (Algorithm 1) re-runs the forward analysis for each
//! candidate abstraction it tries. Distinct queries over the same client
//! frequently try the *same* candidate abstractions — every query starts
//! from the empty abstraction, and cheap refinements recur — so their
//! forward runs are identical and redundant.
//!
//! [`solve_queries_batch`] exploits that: it schedules the per-query
//! CEGAR loops across a [`std::thread::scope`] worker pool
//! ([`BatchConfig::jobs`] workers) and routes every forward analysis
//! through a [`ForwardCache`] shared by the whole batch. A forward run is
//! fully determined by the `(client, abstraction parameter, program,
//! fact budget)` tuple; within one batch the client and program are
//! fixed, so the cache keys on the remaining coordinates — the solver
//! model assignment the parameter was decoded from, plus the effective
//! fact budget (escalated retries run under bigger budgets and must not
//! alias the base run). Cache hits skip the RHS tabulation entirely and
//! reuse the memoized [`RhsResult`].
//!
//! # Failure model
//!
//! Each per-query solve runs inside [`isolate`], a
//! [`std::panic::catch_unwind`] boundary: a panicking client or engine
//! yields [`Unresolved::EngineFault`] for that query and the batch carries
//! on. Transient faults are retried on [`retry_ladder`]. The analysis
//! daemon (`pda-serve`) supervises its requests with the same two
//! functions. Wall-clock deadlines (per query via
//! [`TracerConfig::timeout`] / `Query::limits`, whole-batch via
//! [`BatchConfig::batch_timeout`]) surface as
//! [`Unresolved::DeadlineExceeded`]. Neither fault class is ever stored
//! in the cache: a slot whose computation panics is reset so another
//! worker recomputes it, and a deadline-aborted run is returned to its
//! requester only. Cached values are therefore schedule-independent.
//!
//! Determinism: the RHS engine is a deterministic function of its inputs
//! (LIFO worklist, interned state ids, and `witness` resolves ties by
//! minimum `(entry, state)` id), so a cached result is *identical* to the
//! run it replaces and per-query outcomes, costs, and iteration counts do
//! not depend on `jobs` or on scheduling order — including in the
//! presence of faulted sibling queries. The cache is shared whenever the
//! batch has two or more queries to solve, whatever `jobs` is; `jobs`
//! only sets how many workers claim queries (one worker runs them inline
//! on the calling thread, in query order).
//!
//! The cache also does the work of the paper's Section 6 *query groups*:
//! the minimum-cost choice is canonical, so queries whose learned
//! constraint sets agree pick the same abstraction next and hit the same
//! slot — the one forward run a group would have shared.

use crate::client::{Query, TracerClient};
use crate::tracer::{Outcome, QueryObs, QueryResult, Session, TracerConfig, Unresolved};
use pda_dataflow::{Interrupt, RhsResult, TooBig};
use pda_lang::{CallId, MethodId, Program};
use pda_meta::MetaStats;
use pda_util::{
    fault_point, faultplane, CacheStats, Counter, Deadline, Event, ObsRegistry, SplitMix64,
    TraceSink,
};
use std::collections::HashMap;
use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, TryLockError};
use std::time::{Duration, Instant};

/// Deterministic retry-with-backoff for transient per-query faults.
///
/// A query that resolves as [`Unresolved::EngineFault`] (an isolated
/// panic) — or, when [`RetryPolicy::retry_deadline`] is set, as
/// [`Unresolved::DeadlineExceeded`] — is re-solved from scratch up to
/// [`RetryPolicy::retries`] times, sleeping an exponentially growing,
/// jittered delay between attempts. The jitter is drawn from
/// [`SplitMix64`] seeded by `(seed, query index, attempt)`, so the whole
/// retry schedule is a pure function of the policy and the query: two
/// runs of the same batch back off identically, which keeps faulted runs
/// reproducible and diffable.
///
/// One-shot injected faults (see [`crate::faultcli`]) are the model
/// transient: the first attempt springs the trap, the retry solves
/// healthily. Deterministic failures (a client that panics on every
/// evaluation) burn all retries and surface exactly as without a policy,
/// with [`QueryResult::retries`] recording the wasted attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry attempts per query (0 = fail fast, the default).
    pub retries: u32,
    /// Base backoff delay; attempt `a` sleeps `base * 2^a` plus jitter
    /// in `[0, base)`.
    pub base_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Also retry [`Unresolved::DeadlineExceeded`]. Off for batch runs
    /// (a batch deadline abort is not transient — retrying it would just
    /// re-starve); the analysis daemon turns it on because each request
    /// attempt gets a fresh deadline window.
    pub retry_deadline: bool,
}

impl RetryPolicy {
    /// The standard ladder: `retries` attempts, 5 ms base delay, a fixed
    /// seed, engine faults only.
    pub fn deterministic(retries: u32) -> Self {
        RetryPolicy {
            retries,
            base_delay: Duration::from_millis(5),
            seed: 0x0005_EED0_FBAC_C0FF,
            retry_deadline: false,
        }
    }

    /// Whether `u` is a transient fault under this policy.
    pub fn should_retry(&self, u: &Unresolved) -> bool {
        match u {
            Unresolved::EngineFault(_) => true,
            Unresolved::DeadlineExceeded => self.retry_deadline,
            _ => false,
        }
    }

    /// The deterministic backoff before retry `attempt` of `query`:
    /// `base * 2^attempt` plus SplitMix64 jitter in `[0, base)`.
    pub fn backoff(&self, query: u64, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(10));
        let base_us = self.base_delay.as_micros() as u64;
        if base_us == 0 {
            return exp;
        }
        let mut rng =
            SplitMix64::new(self.seed ^ query.rotate_left(17) ^ (u64::from(attempt) << 56));
        exp + Duration::from_micros(rng.next_u64() % base_us)
    }
}

/// Per-worker effort attribution for one batch run (one entry per
/// worker; a lone worker runs inline and reports a single entry). Entries
/// are in worker *completion* order — attribution data, not a schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerMeta {
    /// Queries this worker claimed and solved (drained claims excluded).
    pub queries: u64,
    /// Backward/meta-phase wall time attributed to this worker, µs.
    pub meta_micros: u64,
    /// Total wall time this worker spent solving (claim to finish), µs.
    pub busy_micros: u64,
    /// Microseconds this worker's queries spent blocked in the
    /// [`ForwardCache`]: contended map acquisitions and waits on a
    /// sibling's running forward run.
    pub lock_wait_micros: u64,
}

/// Configuration of a batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Per-query TRACER configuration.
    pub tracer: TracerConfig,
    /// Requested worker parallelism; `0` is treated as `1`. Workers only
    /// decide who claims which query: the forward-run cache is shared
    /// whenever the batch has two or more queries to solve, at any
    /// value. The number of workers actually used is
    /// additionally clamped to the machine's available parallelism —
    /// oversubscribing a core count only time-shares the CEGAR loops and
    /// inflates per-phase wall-clock attribution without finishing any
    /// sooner — and a single worker runs inline on the calling thread.
    /// The default is the machine's available parallelism. See
    /// [`BatchConfig::thread_cap`] to override the clamp.
    pub jobs: usize,
    /// Upper bound on *spawned* worker threads. `None` (the default)
    /// clamps to the machine's available parallelism. `Some(n)` replaces
    /// that clamp — used by tests that exercise genuine worker
    /// concurrency (cache races, a drain raised mid-batch) on small machines,
    /// and available to callers who want deliberate oversubscription.
    /// The effective thread count is always `<= jobs`.
    pub thread_cap: Option<usize>,
    /// Wall-clock budget for the *whole batch*: queries still running (or
    /// not yet started) when it expires resolve as
    /// [`Unresolved::DeadlineExceeded`]. `None` (default) = unbounded.
    pub batch_timeout: Option<Duration>,
    /// Enables span wall-clock timing in the per-query registries (the
    /// CLI's `--metrics`). Off by default: counters and events are always
    /// collected, but no extra clock reads happen on the hot path.
    pub timed: bool,
    /// Transient-fault retry ladder (`--retry-faults`). `None` (default)
    /// fails fast, preserving the historical batch behavior exactly.
    pub retry: Option<RetryPolicy>,
    /// Cooperative drain flag. When set to `true` (by a signal handler or
    /// service supervisor), workers stop *claiming* queries: in-flight
    /// solves finish normally, unstarted queries resolve as
    /// [`Unresolved::Drained`] and are **not** offered to the streaming
    /// `sink` — so a checkpoint journal written through the sink contains
    /// only genuinely finished queries and a resumed run re-solves the
    /// drained ones from scratch, reproducing the uninterrupted outcomes.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            tracer: TracerConfig::default(),
            jobs: default_jobs(),
            thread_cap: None,
            batch_timeout: None,
            timed: false,
            retry: None,
            cancel: None,
        }
    }
}

/// The machine's available parallelism (the `--jobs` default), `1` if
/// unknown.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Effort accounting for one batch, surfaced by the experiment binaries.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Queries scheduled.
    pub queries: usize,
    /// Requested worker parallelism (clamped to the query count; the
    /// spawned thread count is further clamped to available
    /// parallelism — see [`WorkerMeta`] for per-thread attribution).
    pub jobs: usize,
    /// Forward-run cache hits/misses (`misses` = RHS runs executed;
    /// `hits` = RHS runs saved). All-zero when fewer than two queries
    /// were solved (no cache).
    pub cache: CacheStats,
    /// Wall-clock time for the whole batch, microseconds.
    pub wall_micros: u128,
    /// Queries that resolved as [`Unresolved::EngineFault`] (isolated
    /// panics).
    pub engine_faults: usize,
    /// Queries that resolved as [`Unresolved::DeadlineExceeded`].
    pub deadline_exceeded: usize,
    /// Fact-budget escalation retries consumed across all queries.
    pub escalations: u64,
    /// Queries skipped because a checkpoint already held their result.
    pub resumed: usize,
    /// Memory-governor degradation-ladder rungs applied across all
    /// queries.
    pub degradations: u64,
    /// Transient-fault retry attempts consumed across all queries. Zero
    /// unless [`BatchConfig::retry`] is set.
    pub retries: u64,
    /// Total microseconds workers spent blocked in the [`ForwardCache`]:
    /// contended map acquisitions and waits on a sibling's running
    /// forward run of the same key. Rendered as `contention=` in the
    /// footer.
    pub contention_micros: u64,
    /// Faults the deterministic fault plane fired during this batch (the
    /// delta of [`pda_util::faultplane::faults_injected`] across the
    /// run). Zero unless a `--fault-plan`/`PDA_FAULT_PLAN` plan is armed.
    pub faults_injected: u64,
    /// I/O-class injected faults during this batch (subset of
    /// [`BatchStats::faults_injected`]).
    pub io_faults: u64,
    /// Per-worker effort attribution, in worker completion order (one
    /// entry per worker that ran; a single entry for a lone worker). Not
    /// part of the rendered footer — the bench emits it as JSON.
    pub worker_meta: Vec<WorkerMeta>,
    /// Backward/meta-phase counters summed over all queries (including
    /// checkpoint-restored ones, whose counters were persisted).
    pub meta: MetaStats,
    /// Merged per-query observability registries: spans, solver nodes,
    /// and kernel counters for queries solved *in this run* (resumed
    /// queries contribute to [`BatchStats::meta`] only).
    pub obs: ObsRegistry,
}

impl BatchStats {
    /// Batch throughput in queries per second. An instant (sub-µs) batch
    /// is accounted as one microsecond rather than reporting `0.0 q/s`,
    /// which reads as a hang.
    pub fn queries_per_sec(&self) -> f64 {
        self.queries as f64 * 1e6 / self.wall_micros.max(1) as f64
    }

    /// Forward runs the cache avoided (its hit count).
    pub fn forward_runs_saved(&self) -> u64 {
        self.cache.hits
    }

    /// The whole batch as one [`ObsRegistry`] snapshot: the merged
    /// per-query registry with the batch-level scalars (query/job counts,
    /// wall time, cache and fault counters) and the authoritative
    /// [`BatchStats::meta`] counters (which include resumed queries)
    /// written over the top. [`ObsRegistry::render`] on the result is the
    /// driver footer.
    pub fn to_obs(&self) -> ObsRegistry {
        let mut reg = self.obs.clone();
        reg.set(Counter::Queries, self.queries as u64);
        reg.set(Counter::Jobs, self.jobs as u64);
        reg.set(Counter::WallMicros, self.wall_micros as u64);
        reg.set(Counter::CacheHits, self.cache.hits);
        reg.set(Counter::CacheMisses, self.cache.misses);
        reg.set(Counter::EngineFaults, self.engine_faults as u64);
        reg.set(Counter::DeadlineExceeded, self.deadline_exceeded as u64);
        reg.set(Counter::Escalations, self.escalations);
        reg.set(Counter::Retries, self.retries);
        reg.set(Counter::Resumed, self.resumed as u64);
        reg.set(Counter::Degradations, self.degradations);
        reg.set(Counter::LockWaitMicros, self.contention_micros);
        reg.set(Counter::FaultsInjected, self.faults_injected);
        reg.set(Counter::IoFaults, self.io_faults);
        reg.set(Counter::CubesBuilt, self.meta.cubes_built);
        reg.set(Counter::SubsumptionChecks, self.meta.subsumption_checks);
        reg.set(Counter::SubsumptionFastRejects, self.meta.subsumption_fast_rejects);
        reg.set(Counter::WpHits, self.meta.wp_hits);
        reg.set(Counter::WpMisses, self.meta.wp_misses);
        reg.set(Counter::ApproxDrops, self.meta.approx_drops);
        reg.set(Counter::MemEvictions, self.meta.mem_evictions);
        reg.set(Counter::MetaMicros, self.meta.micros);
        reg
    }
}

impl std::fmt::Display for BatchStats {
    /// Two-line summary: `32 queries, jobs=8: 41.2 q/s, cache 57/89 hits
    /// (64.0%), 57 forward runs saved, faults=0 deadlines=0 escalations=0
    /// resumed=0` followed by the [`MetaStats`] footer line — rendered by
    /// [`ObsRegistry::render`], the shared footer formatter.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_obs().render())
    }
}

/// A shared, thread-safe memo table for forward (RHS) runs.
///
/// Keys are `(solver model assignment, fact budget)` pairs — the
/// canonical encoding of the abstraction parameter plus the budget the
/// run was attempted under (escalated retries use larger budgets and may
/// legitimately succeed where the base budget returned [`TooBig`]); the
/// client and program are fixed per cache, completing the key the batch
/// scheduler needs. Values are [`RhsResult`]s behind [`Arc`], so
/// concurrent queries share one tabulation.
///
/// Each slot is a small `Mutex`+`Condvar` state machine rather than a
/// `OnceLock`, because two outcomes must **not** be memoized:
///
/// * a computation that *panics* (fault-injected clients) resets its slot
///   so another worker retries instead of deadlocking the waiters;
/// * a run aborted by the computing query's *deadline* is returned to
///   that query only — caching it would poison healthy queries with a
///   schedule-dependent result.
///
/// Deterministic outcomes (`Ok` runs and fact-budget [`TooBig`]) are
/// cached; waiters poll their own deadline while blocked, so a slow
/// computation never pins a sibling query past its budget.
///
/// The slot map sits behind one plain [`Mutex`], held only to find or
/// insert a slot; every wait on a sibling's computation happens on that
/// slot's own state machine. Contended map acquisitions are rare and
/// short (0–2.6 ms per seeded hedc batch, 2–128 µs per ~2 s pass of the
/// `escape-shared` benchmark workload), so one mutex is enough.
pub struct ForwardCache<'p, S> {
    #[allow(clippy::type_complexity)]
    slots: Mutex<HashMap<(Vec<bool>, usize), Arc<Slot<'p, S>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct Slot<'p, S> {
    state: Mutex<SlotState<'p, S>>,
    ready: Condvar,
}

enum SlotState<'p, S> {
    /// Nobody is computing this run (initially, or after a computer
    /// panicked / hit its deadline).
    Empty,
    /// Some worker is computing; wait on `ready`.
    Running,
    /// Memoized outcome.
    Done(Result<Arc<RhsResult<'p, S>>, TooBig>),
}

/// Resets a slot to `Empty` if its computation unwinds, so waiting
/// workers retry instead of blocking forever.
struct SlotGuard<'s, 'p, S> {
    slot: &'s Slot<'p, S>,
    armed: bool,
}

impl<S> Drop for SlotGuard<'_, '_, S> {
    fn drop(&mut self) {
        if self.armed {
            *self.slot.state.lock().expect("forward-cache slot poisoned") = SlotState::Empty;
            self.slot.ready.notify_all();
        }
    }
}

impl<'p, S> ForwardCache<'p, S> {
    /// An empty cache.
    pub fn new() -> Self {
        ForwardCache {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The memoized forward run for `assignment` under `max_facts`,
    /// executing `compute` at most once per key across all threads
    /// (barring panics or deadline aborts, which release the key for a
    /// retry). Counts one miss per execution of `compute` and one hit per
    /// caller served a memoized result — including a caller that waited
    /// for a sibling's computation — so `misses` is the number of RHS
    /// runs executed, independent of the schedule. A waiter whose own
    /// deadline expires counts neither.
    ///
    /// `deadline` bounds *waiting* as well as computing: a caller whose
    /// deadline expires while a sibling computes gives up with
    /// [`Interrupt::DeadlineExceeded`] without disturbing the slot.
    ///
    /// Time spent blocked is metered into `lock_waits` (microseconds):
    /// a contended slot-map acquisition (the uncontended path is a
    /// `try_lock` that reads no clock) and every wait on a *running*
    /// sibling's computation of the same key. The caller's forward-phase
    /// time can thus leave the waits out and count only runs it executed
    /// or read.
    ///
    /// # Errors
    ///
    /// [`Interrupt::TooBig`] (memoized — deterministic for the key) or
    /// [`Interrupt::DeadlineExceeded`] (never memoized).
    pub fn forward(
        &self,
        assignment: &[bool],
        max_facts: usize,
        deadline: Deadline,
        lock_waits: &AtomicU64,
        compute: impl FnOnce() -> Result<RhsResult<'p, S>, Interrupt>,
    ) -> Result<Arc<RhsResult<'p, S>>, Interrupt> {
        let slot = {
            let mut slots = match self.slots.try_lock() {
                Ok(g) => g,
                Err(TryLockError::WouldBlock) => {
                    let t0 = Instant::now();
                    let g = self.slots.lock().expect("forward-cache map poisoned");
                    lock_waits.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    g
                }
                Err(TryLockError::Poisoned(_)) => panic!("forward-cache map poisoned"),
            };
            Arc::clone(
                slots
                    .entry((assignment.to_vec(), max_facts))
                    .or_insert_with(|| {
                        Arc::new(Slot { state: Mutex::new(SlotState::Empty), ready: Condvar::new() })
                    }),
            )
        };
        loop {
            let mut st = slot.state.lock().expect("forward-cache slot poisoned");
            match &*st {
                SlotState::Done(r) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return r.clone().map_err(Interrupt::TooBig);
                }
                SlotState::Empty => {
                    *st = SlotState::Running;
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    drop(st);
                    break;
                }
                SlotState::Running => {
                    if deadline.expired() {
                        return Err(Interrupt::DeadlineExceeded);
                    }
                    // Re-checks the state on every wakeup; `notify_all`
                    // fires on every slot transition, so no wakeup is
                    // missed. The timeout only serves the waiter's own
                    // deadline.
                    let t0 = Instant::now();
                    let waited = match deadline.remaining() {
                        None => slot.ready.wait(st).expect("forward-cache slot poisoned"),
                        Some(rem) => {
                            slot.ready
                                .wait_timeout(st, rem)
                                .expect("forward-cache slot poisoned")
                                .0
                        }
                    };
                    drop(waited);
                    lock_waits.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    // Fired with no slot lock held: a panic here is
                    // absorbed by the waiter's own isolation boundary and
                    // never disturbs the computing sibling or the slot.
                    fault_point("cache.slot_wait");
                }
            }
        }
        // Compute outside the slot lock; if `compute` unwinds (a
        // fault-injected client panic), the guard re-opens the slot.
        let mut guard = SlotGuard { slot: &slot, armed: true };
        // Under the guard on purpose: an injected panic at the fill seam
        // must re-open the slot exactly like a panicking compute would.
        fault_point("cache.slot_fill");
        let result = compute();
        let mut st = slot.state.lock().expect("forward-cache slot poisoned");
        guard.armed = false;
        let out = match result {
            Ok(run) => {
                let run = Arc::new(run);
                *st = SlotState::Done(Ok(Arc::clone(&run)));
                Ok(run)
            }
            Err(Interrupt::TooBig(e)) => {
                *st = SlotState::Done(Err(e));
                Err(Interrupt::TooBig(e))
            }
            Err(Interrupt::DeadlineExceeded) => {
                // Not this slot's fault: release it for a retry by a
                // query with a healthier deadline.
                *st = SlotState::Empty;
                Err(Interrupt::DeadlineExceeded)
            }
        };
        drop(st);
        slot.ready.notify_all();
        out
    }
}

impl<'p, S> Default for ForwardCache<'p, S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Extracts a displayable message from a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one solve attempt inside the per-query isolation boundary shared
/// by the batch workers and the analysis daemon: a panic (a faulty client
/// or engine, an injected fault) becomes an [`Unresolved::EngineFault`]
/// result carrying the panic message and the attempt's wall time, never
/// an unwinding caller. State the attempt was mutating when it unwound is
/// the caller's to discard.
pub fn isolate<Param>(solve: impl FnOnce() -> QueryResult<Param>) -> QueryResult<Param> {
    let started = Instant::now();
    catch_unwind(AssertUnwindSafe(solve)).unwrap_or_else(|payload| {
        let msg = panic_message(payload.as_ref());
        unrun_result(Unresolved::EngineFault(msg), started.elapsed().as_micros())
    })
}

/// The transient-fault retry ladder shared by the batch workers and the
/// analysis daemon. `attempt(a)` runs attempt `a` (0 first) and returns
/// its result with a *fresh* [`QueryObs`], so a recovered transient fault
/// leaves no event residue and the emitted trace stream stays invariant
/// across job counts and retry settings. A result the policy deems
/// transient is retried after [`RetryPolicy::backoff`] while retries
/// remain and `stop` is false (the current attempt's result stands once
/// it is true); [`QueryResult::retries`] records the attempts consumed,
/// successful or not. An attempt that returns `Err` ends the ladder at
/// once with that error (the daemon's watchdog: a stall is never
/// retried).
///
/// # Errors
///
/// The first `Err` an attempt returns.
pub fn retry_ladder<Param, E>(
    query: usize,
    retry: Option<&RetryPolicy>,
    stop: impl Fn() -> bool,
    mut attempt: impl FnMut(u32) -> Result<(QueryResult<Param>, QueryObs), E>,
) -> Result<(QueryResult<Param>, QueryObs), E> {
    let mut n: u32 = 0;
    loop {
        let (mut r, qobs) = attempt(n)?;
        r.retries = n;
        let transient = match (&r.outcome, retry) {
            (Outcome::Unresolved(u), Some(p)) => p.should_retry(u),
            _ => false,
        };
        match retry {
            Some(p) if transient && n < p.retries && !stop() => {
                std::thread::sleep(p.backoff(query as u64, n));
                n += 1;
            }
            _ => return Ok((r, qobs)),
        }
    }
}

/// Writes one finished query's trace to `sink`: its buffered events, then
/// one [`Event::QueryResolved`]. The batch drains every query through it
/// in index order; the analysis daemon drains each request through it.
/// Does not flush.
pub fn emit_query_trace<Param>(sink: &dyn TraceSink, r: &QueryResult<Param>, qobs: &QueryObs) {
    for ev in &qobs.events {
        sink.emit(ev);
    }
    sink.emit(&Event::QueryResolved {
        query: qobs.query,
        outcome: outcome_tag(&r.outcome).to_string(),
        iterations: r.iterations as u64,
    });
}

/// A result with no effort attributed: a query whose solve panicked (the
/// payload is preserved), or one the drain flag stopped before it started
/// (withheld from the streaming sink so resumed runs re-solve it).
fn unrun_result<Param>(reason: Unresolved, micros: u128) -> QueryResult<Param> {
    QueryResult {
        outcome: Outcome::Unresolved(reason),
        iterations: 0,
        micros,
        escalations: 0,
        degradations: 0,
        retries: 0,
        meta: MetaStats::default(),
    }
}

/// Resolves every query of one program, sharing forward runs.
///
/// Each query runs the same CEGAR loop as [`crate::tracer::solve_query`],
/// panic-isolated, with every iteration's forward analysis going through
/// one [`ForwardCache`] (when there are two or more queries). The queries
/// are claimed in order by `min(jobs, queries.len())` workers, clamped to
/// the machine. Results come back in query order, and per-query outcomes,
/// costs, and iteration counts are identical to solving each query alone
/// (see the module docs for the determinism argument); only the per-query
/// `micros` fields and the batch wall time vary.
///
/// The batch always completes: a panicking solve yields
/// [`Unresolved::EngineFault`] for that query only, and deadline expiry
/// ([`TracerConfig::timeout`], `Query::limits.timeout`, or
/// [`BatchConfig::batch_timeout`]) yields
/// [`Unresolved::DeadlineExceeded`].
pub fn solve_queries_batch<C>(
    program: &Program,
    callees: &(dyn Fn(CallId) -> Vec<MethodId> + Sync),
    client: &C,
    queries: &[Query<C::Prim>],
    config: &BatchConfig,
) -> (Vec<QueryResult<C::Param>>, BatchStats)
where
    C: TracerClient + Sync,
    C::Param: Send,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    run_batch(program, callees, client, queries, config, HashMap::new(), None, None)
}

/// [`solve_queries_batch`] with a structured trace: per-iteration
/// [`Event`]s are buffered per query and drained to `trace` in query-index
/// order once the batch completes, followed by one
/// [`Event::QueryResolved`] per query (including faulted, timed-out, and
/// checkpoint-resumed ones). Because the events carry no wall-clock or
/// cache data and the per-query loops are schedule-independent, the
/// emitted stream is byte-identical across `jobs` values.
pub fn solve_queries_batch_traced<C>(
    program: &Program,
    callees: &(dyn Fn(CallId) -> Vec<MethodId> + Sync),
    client: &C,
    queries: &[Query<C::Prim>],
    config: &BatchConfig,
    trace: Option<&dyn TraceSink>,
) -> (Vec<QueryResult<C::Param>>, BatchStats)
where
    C: TracerClient + Sync,
    C::Param: Send,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    run_batch(program, callees, client, queries, config, HashMap::new(), None, trace)
}

/// The `query_resolved` event's outcome tag — the same vocabulary as the
/// checkpoint codec in [`crate::resilience`].
pub fn outcome_tag<Param>(outcome: &Outcome<Param>) -> &'static str {
    match outcome {
        Outcome::Proven { .. } => "proven",
        Outcome::Impossible => "impossible",
        Outcome::Unresolved(Unresolved::IterationBudget) => "iteration_budget",
        Outcome::Unresolved(Unresolved::AnalysisTooBig) => "too_big",
        Outcome::Unresolved(Unresolved::MetaFailure(_)) => "meta_failure",
        Outcome::Unresolved(Unresolved::DeadlineExceeded) => "deadline",
        Outcome::Unresolved(Unresolved::EngineFault(_)) => "engine_fault",
        Outcome::Unresolved(Unresolved::MemBudgetExceeded) => "mem_budget",
        Outcome::Unresolved(Unresolved::Drained) => "drained",
    }
}

/// The shared batch runner behind [`solve_queries_batch`] and the
/// checkpointing driver in [`crate::resilience`]: `skip` holds results
/// restored from a checkpoint (those queries are not re-run), and `sink`
/// observes each freshly finished `(index, result)` as soon as it exists
/// — the streaming hook the checkpoint writer hangs off. `trace` receives
/// every query's buffered [`Event`]s in query-index order after the batch
/// completes (see [`solve_queries_batch_traced`]).
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
pub(crate) fn run_batch<'p, C>(
    program: &'p Program,
    callees: &(dyn Fn(CallId) -> Vec<MethodId> + Sync),
    client: &C,
    queries: &[Query<C::Prim>],
    config: &BatchConfig,
    skip: HashMap<usize, QueryResult<C::Param>>,
    sink: Option<&(dyn Fn(usize, &QueryResult<C::Param>) + Sync)>,
    trace: Option<&dyn TraceSink>,
) -> (Vec<QueryResult<C::Param>>, BatchStats)
where
    C: TracerClient + Sync,
    C::Param: Send,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    let start = Instant::now();
    let injected_at_start = faultplane::faults_injected();
    let io_at_start = faultplane::io_faults();
    let batch_deadline = Deadline::timeout(config.batch_timeout);
    let tracing = trace.is_some();
    let resumed = skip.len();
    let pending: Vec<usize> = (0..queries.len()).filter(|i| !skip.contains_key(i)).collect();
    let jobs = config.jobs.max(1).min(pending.len().max(1));
    // Requesting more workers than the machine has cores does not finish
    // the batch any sooner — it only time-shares the CEGAR loops, which
    // inflates every per-phase wall-clock attribution (a meta phase that
    // takes 10ms of CPU reads as 80ms of wall when eight threads share
    // one core).
    let workers = jobs.min(config.thread_cap.unwrap_or_else(default_jobs)).max(1);

    // Sibling queries share forward runs whatever the worker count; a
    // lone query has no sibling to share with, and within one query every
    // iteration tries a new assignment, so a cache there could only retain
    // memory.
    let cache: Option<ForwardCache<'p, C::State>> =
        (pending.len() >= 2).then(ForwardCache::new);
    let next = AtomicUsize::new(0);
    let cancelled = || config.cancel.as_ref().is_some_and(|c| c.load(Ordering::SeqCst));
    #[allow(clippy::type_complexity)]
    let done: Vec<Mutex<Option<(QueryResult<C::Param>, QueryObs)>>> =
        pending.iter().map(|_| Mutex::new(None)).collect();

    // One worker's claim-solve loop: claim the next pending index and
    // solve it. A raised drain flag resolves every later claim as
    // [`Unresolved::Drained`] while solves already running finish
    // normally.
    let work = || {
        let mut wm = WorkerMeta::default();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = pending.get(k) else { break };
            if cancelled() {
                let drained =
                    (unrun_result(Unresolved::Drained, 0), QueryObs::new(i as u64, false, false));
                *done[k].lock().expect("result slot poisoned") = Some(drained);
                continue;
            }
            let started = Instant::now();
            let stop = || batch_deadline.expired() || cancelled();
            let Ok((r, qobs)) = retry_ladder(i, config.retry.as_ref(), stop, |_| {
                let mut qobs = QueryObs::new(i as u64, tracing, config.timed);
                let r = isolate(|| {
                    let mut s = Session::new(program, callees, client, &queries[i], &config.tracer)
                        .within(batch_deadline)
                        .observe(&mut qobs);
                    if let Some(c) = &cache {
                        s = s.cache(c);
                    }
                    s.run()
                });
                Ok::<_, Infallible>((r, qobs))
            });
            wm.queries += 1;
            wm.meta_micros += r.meta.micros;
            wm.busy_micros += started.elapsed().as_micros() as u64;
            wm.lock_wait_micros += qobs.reg.get(Counter::LockWaitMicros);
            if let Some(sink) = sink {
                sink(i, &r);
            }
            *done[k].lock().expect("result slot poisoned") = Some((r, qobs));
        }
        wm
    };
    let worker_meta: Vec<WorkerMeta> = if workers == 1 {
        // A lone worker runs inline on the calling thread: no thread is
        // spawned, so thread-local state (the watchdog heartbeat, the
        // ambient deadline) reaches every query.
        vec![work()]
    } else {
        let finished = Mutex::new(Vec::with_capacity(workers));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                // Crash-class seams: fired outside any per-query isolation
                // boundary, on the coordinator and on a worker past its loop.
                fault_point("batch.worker.spawn");
                scope.spawn(|| {
                    let wm = work();
                    fault_point("batch.worker.join");
                    finished.lock().expect("worker meta poisoned").push(wm);
                });
            }
        });
        finished.into_inner().expect("worker meta poisoned")
    };

    let mut slots: Vec<Option<(QueryResult<C::Param>, QueryObs)>> =
        (0..queries.len()).map(|_| None).collect();
    for (i, r) in skip {
        slots[i] = Some((r, QueryObs::new(i as u64, false, false)));
    }
    for (k, slot) in done.into_iter().enumerate() {
        slots[pending[k]] = slot.into_inner().expect("result slot poisoned");
    }

    // Drain results, merge the per-query registries, and (if tracing)
    // emit every buffered event in query-index order — the master is the
    // only writer, so the stream is schedule-independent.
    let mut obs = ObsRegistry::default();
    obs.set_timed(config.timed);
    let mut results: Vec<QueryResult<C::Param>> = Vec::with_capacity(queries.len());
    for slot in slots {
        let (r, qobs) = slot.expect("every query resolved, resumed, or faulted");
        obs.merge(&qobs.reg);
        if let Some(sink) = trace {
            emit_query_trace(sink, &r, &qobs);
        }
        results.push(r);
    }
    if let Some(sink) = trace {
        sink.flush();
    }

    let contention_micros = worker_meta.iter().map(|w| w.lock_wait_micros).sum::<u64>();
    let stats = BatchStats {
        queries: queries.len(),
        jobs,
        cache: cache.as_ref().map(ForwardCache::stats).unwrap_or_default(),
        wall_micros: start.elapsed().as_micros(),
        engine_faults: results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Unresolved(Unresolved::EngineFault(_))))
            .count(),
        deadline_exceeded: results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Unresolved(Unresolved::DeadlineExceeded)))
            .count(),
        escalations: results.iter().map(|r| u64::from(r.escalations)).sum(),
        resumed,
        degradations: results.iter().map(|r| u64::from(r.degradations)).sum(),
        retries: results.iter().map(|r| u64::from(r.retries)).sum(),
        contention_micros,
        faults_injected: faultplane::faults_injected().saturating_sub(injected_at_start),
        io_faults: faultplane::io_faults().saturating_sub(io_at_start),
        worker_meta,
        meta: {
            let mut total = MetaStats::default();
            for r in &results {
                total.merge(&r.meta);
            }
            total
        },
        obs,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullcli::NullClient;
    use pda_analysis::PointsTo;
    use pda_dataflow::rhs;
    use pda_meta::InternCache;

    fn fixture() -> (pda_lang::Program, PointsTo) {
        let program = pda_lang::parse_program(
            r#"
            fn id(a) { return a; }
            fn main() {
                var x, y, z;
                x = null;
                z = x;
                while (*) { y = id(x); }
                y = x;
                query q1: local y;
                query q2: local z;
                query q3: local x;
            }
            "#,
        )
        .unwrap();
        let pa = PointsTo::analyze(&program);
        (program, pa)
    }

    fn queries(
        program: &pda_lang::Program,
        client: &NullClient,
    ) -> Vec<Query<crate::nullcli::NullPrim>> {
        ["q1", "q2", "q3"]
            .iter()
            .map(|l| client.query(program, program.query_by_label(l).unwrap()))
            .collect()
    }

    #[test]
    fn batch_matches_sequential_and_hits_cache() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let qs = queries(&program, &client);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let seq = BatchConfig { jobs: 1, ..BatchConfig::default() };
        let par = BatchConfig { jobs: 4, ..BatchConfig::default() };
        let (r1, s1) = solve_queries_batch(&program, &callees, &client, &qs, &seq);
        let (r4, s4) = solve_queries_batch(&program, &callees, &client, &qs, &par);
        assert_eq!(s1.queries, 3);
        for (a, b) in r1.iter().zip(&r4) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.iterations, b.iterations);
        }
        // The distinct abstractions the three loops try, each alone: one
        // forward run apiece is all the batch may execute.
        let mut distinct = std::collections::HashSet::new();
        for q in &qs {
            let (_, log) =
                crate::tracer::solve_query_logged(&program, &callees, &client, q, &seq.tracer);
            distinct.extend(log.into_iter().map(|it| it.param));
        }
        let iterations = r4.iter().map(|r| r.iterations).sum::<usize>() as u64;
        for s in [&s1, &s4] {
            assert_eq!(s.cache.misses, distinct.len() as u64, "misses are RHS runs: {}", s.cache);
            assert_eq!(
                s.cache.lookups(),
                iterations,
                "every CEGAR iteration does exactly one forward lookup"
            );
        }
        // Every query's loop starts from the same (empty) assignment.
        assert!(s4.cache.hits >= 2, "expected cross-query sharing, got {}", s4.cache);
        assert_eq!((s4.engine_faults, s4.deadline_exceeded, s4.resumed), (0, 0, 0));
        assert_eq!(s4.escalations, 0);
    }

    #[test]
    fn batch_matches_individual_and_shares_runs() {
        let program = pda_lang::parse_program(
            r#"
            class C {}
            fn main() {
                var x, y, z, w;
                x = null;
                y = x;
                z = x;
                w = new C;
                query q1: local y;
                query q2: local z;
                query q3: local w;
            }
            "#,
        )
        .unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let qs: Vec<_> =
            program.queries.iter_enumerated().map(|(qid, _)| client.query(&program, qid)).collect();
        let config = BatchConfig { jobs: 1, ..BatchConfig::default() };
        let (batched, stats) = solve_queries_batch(&program, &callees, &client, &qs, &config);
        let mut individual_runs = 0;
        for (q, b) in qs.iter().zip(&batched) {
            let alone = crate::tracer::solve_query(&program, &callees, &client, q, &config.tracer);
            assert_eq!(alone.outcome, b.outcome);
            assert_eq!(alone.iterations, b.iterations);
            individual_runs += alone.iterations as u64;
        }
        // The shared cache runs the common first abstraction once for all
        // three queries (the Section 6 query-group sharing).
        assert!(stats.cache.misses < individual_runs, "{}", stats.cache);
        assert_eq!(stats.cache.lookups(), individual_runs);
    }

    #[test]
    fn forward_cache_memoizes_and_counts() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let cache: ForwardCache<'_, _> = ForwardCache::new();
        let assignment = vec![false; client.n_atoms()];
        let p = client.param_of_model(&assignment);
        let limits = pda_dataflow::RhsLimits::default();
        let mut runs = 0;
        for _ in 0..3 {
            let r = cache
                .forward(&assignment, limits.max_facts, Deadline::NEVER, &AtomicU64::new(0), || {
                    runs += 1;
                    rhs::run(
                        &program,
                        &crate::client::AsAnalysis(&client),
                        &p,
                        client.initial_state(),
                        &callees,
                        limits,
                    )
                })
                .unwrap();
            assert!(r.n_facts() > 0);
        }
        assert_eq!(runs, 1, "compute must execute once per assignment");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn cache_keys_on_fact_budget_and_memoizes_too_big() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let cache: ForwardCache<'_, _> = ForwardCache::new();
        let assignment = vec![false; client.n_atoms()];
        let p = client.param_of_model(&assignment);
        let run_with = |budget: usize, runs: &mut u32| {
            cache.forward(&assignment, budget, Deadline::NEVER, &AtomicU64::new(0), || {
                *runs += 1;
                rhs::run(
                    &program,
                    &crate::client::AsAnalysis(&client),
                    &p,
                    client.initial_state(),
                    &callees,
                    pda_dataflow::RhsLimits { max_facts: budget, ..Default::default() },
                )
            })
        };
        let mut runs = 0;
        // A 1-fact budget fails deterministically — and the failure is
        // memoized under its own key.
        assert!(matches!(run_with(1, &mut runs), Err(Interrupt::TooBig(_))));
        assert!(matches!(run_with(1, &mut runs), Err(Interrupt::TooBig(_))));
        assert_eq!(runs, 1);
        // A generous budget is a distinct key and succeeds.
        assert!(run_with(1_000_000, &mut runs).is_ok());
        assert_eq!(runs, 2);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (2, 1));
    }

    #[test]
    fn cache_does_not_memoize_deadline_aborts() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let cache: ForwardCache<'_, _> = ForwardCache::new();
        let assignment = vec![false; client.n_atoms()];
        let p = client.param_of_model(&assignment);
        let budget = pda_dataflow::RhsLimits::default().max_facts;
        // First caller's run aborts on its expired deadline.
        let expired = Deadline::after(std::time::Duration::ZERO);
        let r = cache.forward(&assignment, budget, expired, &AtomicU64::new(0), || {
            rhs::run(
                &program,
                &crate::client::AsAnalysis(&client),
                &p,
                client.initial_state(),
                &callees,
                pda_dataflow::RhsLimits { max_facts: budget, deadline: expired },
            )
        });
        assert_eq!(r.unwrap_err(), Interrupt::DeadlineExceeded);
        // A healthy second caller recomputes and succeeds — the abort was
        // not cached.
        let r2 = cache.forward(&assignment, budget, Deadline::NEVER, &AtomicU64::new(0), || {
            rhs::run(
                &program,
                &crate::client::AsAnalysis(&client),
                &p,
                client.initial_state(),
                &callees,
                pda_dataflow::RhsLimits { max_facts: budget, ..Default::default() },
            )
        });
        assert!(r2.is_ok());
    }

    #[test]
    fn cache_recovers_from_panicking_compute() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let cache: ForwardCache<'_, _> = ForwardCache::new();
        let assignment = vec![false; client.n_atoms()];
        let p = client.param_of_model(&assignment);
        let budget = pda_dataflow::RhsLimits::default().max_facts;
        let boom = catch_unwind(AssertUnwindSafe(|| {
            cache.forward(&assignment, budget, Deadline::NEVER, &AtomicU64::new(0), || {
                panic!("injected")
            })
        }));
        assert!(boom.is_err());
        // The slot was re-opened: the next caller computes normally.
        let r = cache.forward(&assignment, budget, Deadline::NEVER, &AtomicU64::new(0), || {
            rhs::run(
                &program,
                &crate::client::AsAnalysis(&client),
                &p,
                client.initial_state(),
                &callees,
                pda_dataflow::RhsLimits::default(),
            )
        });
        assert!(r.is_ok());
    }

    /// The cache meters blocked time and nothing else: lookups on one
    /// thread add 0, a lookup that blocks on the held slot map adds its
    /// wait, and so does a lookup that waits for a sibling's running
    /// computation of the same key (served as a hit, never recomputed).
    #[test]
    fn forward_cache_meters_contended_and_sibling_waits() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let assignment = vec![false; client.n_atoms()];
        let p = client.param_of_model(&assignment);
        let limits = pda_dataflow::RhsLimits::default();
        let run = || {
            rhs::run(
                &program,
                &crate::client::AsAnalysis(&client),
                &p,
                client.initial_state(),
                &callees,
                limits,
            )
        };
        let budget = limits.max_facts;
        let pause = Duration::from_millis(50);

        let cache: ForwardCache<'_, _> = ForwardCache::new();
        let quiet = AtomicU64::new(0);
        assert!(cache.forward(&assignment, budget, Deadline::NEVER, &quiet, run).is_ok());
        assert!(cache.forward(&assignment, budget, Deadline::NEVER, &quiet, run).is_ok());
        assert_eq!(quiet.load(Ordering::Relaxed), 0, "an uncontended miss and hit add 0");

        let blocked = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let map = cache.slots.lock().expect("map");
            let (tx, rx) = std::sync::mpsc::channel();
            let (cache, assignment, blocked) = (&cache, &assignment, &blocked);
            let h = scope.spawn(move || {
                tx.send(()).expect("send");
                cache.forward(assignment, budget, Deadline::NEVER, blocked, run).is_ok()
            });
            rx.recv().expect("recv");
            std::thread::sleep(pause);
            drop(map);
            assert!(h.join().expect("lookup thread"));
        });
        assert!(blocked.load(Ordering::Relaxed) > 0, "a contended map lock is metered");

        let cache: ForwardCache<'_, _> = ForwardCache::new();
        let (runner, waiter) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let (cache, assignment, runner) = (&cache, &assignment, &runner);
            let h = scope.spawn(move || {
                cache.forward(assignment, budget, Deadline::NEVER, runner, || {
                    tx.send(()).expect("send");
                    std::thread::sleep(pause);
                    run()
                })
            });
            // The slot is `Running` once the computation has started.
            rx.recv().expect("recv");
            let r = cache.forward(assignment, budget, Deadline::NEVER, &waiter, || {
                panic!("a running sibling's key must not be recomputed")
            });
            assert!(r.is_ok() && h.join().expect("runner thread").is_ok());
        });
        assert!(waiter.load(Ordering::Relaxed) > 0, "a wait on a running sibling is metered");
        assert_eq!(runner.load(Ordering::Relaxed), 0, "the computing caller never waited");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn empty_batch_is_fine() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let (r, s) =
            solve_queries_batch(&program, &callees, &client, &[], &BatchConfig::default());
        assert!(r.is_empty());
        assert_eq!(s.queries, 0);
    }

    #[test]
    fn empty_query_set_runs_no_forward_pass() {
        let program = pda_lang::parse_program("fn main() { }").unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let (r, s) =
            solve_queries_batch(&program, &callees, &client, &[], &BatchConfig::default());
        assert!(r.is_empty());
        assert_eq!(s.cache.misses, 0, "{}", s.cache);
        assert_eq!(s.cache.lookups(), 0, "{}", s.cache);
    }

    /// Satellite regression for the footer unification: `BatchStats`'s
    /// `Display` now routes through `ObsRegistry::render`, and every
    /// field of the frozen two-line footer — including the `meta:` line —
    /// must survive the migration byte for byte.
    #[test]
    fn display_footer_fields_survive_obs_migration() {
        // Forward- and solver-phase micros ride the merged per-query
        // registry (not `BatchStats` scalars) — pin that pass-through too.
        let mut merged = ObsRegistry::default();
        merged.set(Counter::SolverMicros, 13);
        merged.set(Counter::ForwardMicros, 19);
        let stats = BatchStats {
            queries: 32,
            jobs: 8,
            cache: CacheStats { hits: 57, misses: 32 },
            wall_micros: 2_000_000,
            engine_faults: 1,
            deadline_exceeded: 2,
            escalations: 3,
            resumed: 4,
            degradations: 5,
            retries: 7,
            contention_micros: 9,
            faults_injected: 11,
            io_faults: 10,
            worker_meta: Vec::new(),
            meta: MetaStats {
                cubes_built: 12,
                subsumption_checks: 20,
                subsumption_fast_rejects: 5,
                wp_hits: 8,
                wp_misses: 2,
                approx_drops: 3,
                mem_evictions: 0,
                micros: 42,
            },
            obs: merged,
        };
        assert_eq!(
            stats.to_string(),
            "32 queries, jobs=8: 16.0 q/s, cache 57/89 hits (64.0%), 57 forward runs saved, \
             faults=1 deadlines=2 escalations=3 retries=7 resumed=4 degradations=5 \
             injected=11 io_injected=10 contention=9µs forward=19µs solver=13µs\n\
             meta: 12 cubes, wp 8/10 memo hits, subsumption 5/20 fast-rejected, 3 drops, 42µs"
        );
        // The meta: line is the MetaStats Display, verbatim.
        assert!(stats.to_string().ends_with(&stats.meta.to_string()));
    }

    #[test]
    fn traced_batch_events_are_job_count_invariant() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let qs = queries(&program, &client);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let mut streams = Vec::new();
        for jobs in [1, 4] {
            let rec = pda_util::Recorder::default();
            let config = BatchConfig { jobs, ..BatchConfig::default() };
            let (results, _) =
                solve_queries_batch_traced(&program, &callees, &client, &qs, &config, Some(&rec));
            let events = rec.take();
            let starts = events
                .iter()
                .filter(|e| matches!(e, Event::IterationStart { .. }))
                .count();
            assert_eq!(starts, results.iter().map(|r| r.iterations).sum::<usize>());
            let resolved: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    Event::QueryResolved { query, .. } => Some(*query),
                    _ => None,
                })
                .collect();
            assert_eq!(resolved, vec![0, 1, 2], "one query_resolved per query, in order");
            streams.push(events);
        }
        assert_eq!(streams[0], streams[1], "trace must not depend on the job count");
    }

    #[test]
    fn backoff_ladder_is_deterministic_and_monotone() {
        let a = RetryPolicy::deterministic(3);
        let b = RetryPolicy::deterministic(3);
        for q in [0u64, 7, 123] {
            for attempt in 0..3 {
                assert_eq!(a.backoff(q, attempt), b.backoff(q, attempt));
            }
            // Exponential base dominates the sub-base jitter.
            assert!(a.backoff(q, 2) > a.backoff(q, 0));
        }
        assert!(!a.should_retry(&Unresolved::DeadlineExceeded));
        assert!(a.should_retry(&Unresolved::EngineFault("x".into())));
        let daemon = RetryPolicy { retry_deadline: true, ..RetryPolicy::deterministic(1) };
        assert!(daemon.should_retry(&Unresolved::DeadlineExceeded));
    }

    #[test]
    fn retry_recovers_one_shot_fault() {
        use crate::faultcli::{faulty_query, lift_query, Fault, FaultInjectingClient};
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let wrapped = FaultInjectingClient::new(&client);
        let callees = |c: CallId| pa.callees(c).to_vec();
        for jobs in [1, 4] {
            let qs: Vec<_> = queries(&program, &client)
                .into_iter()
                .enumerate()
                .map(|(i, q)| {
                    if i == 1 {
                        faulty_query(q, Fault::Panic("transient".into()))
                    } else {
                        lift_query(q)
                    }
                })
                .collect();
            // Without a policy the one-shot fault is terminal.
            let cold = BatchConfig { jobs, ..BatchConfig::default() };
            let (r, s) = solve_queries_batch(&program, &callees, &wrapped, &qs, &cold);
            assert!(matches!(r[1].outcome, Outcome::Unresolved(Unresolved::EngineFault(_))));
            assert_eq!((s.engine_faults, s.retries), (1, 0));
            // With the ladder, the second attempt finds the trap spent.
            let qs: Vec<_> = queries(&program, &client)
                .into_iter()
                .enumerate()
                .map(|(i, q)| {
                    if i == 1 {
                        faulty_query(q, Fault::Panic("transient".into()))
                    } else {
                        lift_query(q)
                    }
                })
                .collect();
            let retrying = BatchConfig {
                jobs,
                retry: Some(RetryPolicy::deterministic(2)),
                ..BatchConfig::default()
            };
            let (r, s) = solve_queries_batch(&program, &callees, &wrapped, &qs, &retrying);
            assert!(
                matches!(r[1].outcome, Outcome::Proven { .. }),
                "retry should recover the one-shot fault: {:?}",
                r[1].outcome
            );
            assert_eq!(r[1].retries, 1);
            assert_eq!((s.engine_faults, s.retries), (0, 1));
        }
    }

    #[test]
    fn raised_cancel_flag_drains_unstarted_queries() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let qs = queries(&program, &client);
        let callees = |c: CallId| pa.callees(c).to_vec();
        for jobs in [1, 4] {
            let flag = Arc::new(AtomicBool::new(true));
            let config =
                BatchConfig { jobs, cancel: Some(Arc::clone(&flag)), ..BatchConfig::default() };
            let sunk = Mutex::new(Vec::new());
            let sink = |i: usize, _r: &QueryResult<pda_util::BitSet>| {
                sunk.lock().unwrap().push(i);
            };
            let (r, s) = run_batch(
                &program,
                &callees,
                &client,
                &qs,
                &config,
                HashMap::new(),
                Some(&sink),
                None,
            );
            assert!(
                r.iter().all(|r| r.outcome == Outcome::Unresolved(Unresolved::Drained)),
                "pre-raised drain flag must stop every query before it starts"
            );
            assert!(
                sunk.lock().unwrap().is_empty(),
                "drained queries must not reach the checkpoint sink"
            );
            assert_eq!(s.retries, 0);
        }
    }

    /// A drain raised while the batch runs: the sink raises the flag as
    /// soon as a query finishes. At jobs=1 the queries run in index
    /// order, so query 0 keeps its verdict and every later claim drains
    /// without running. At jobs=2 the schedule decides how many queries
    /// started before the flag; what holds on any schedule is that no
    /// drained result reaches the sink and every other result equals its
    /// lone solve.
    #[test]
    fn drain_raised_mid_batch_stops_later_claims() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let qs = queries(&program, &client);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let alone: Vec<_> = qs
            .iter()
            .map(|q| {
                crate::tracer::solve_query(&program, &callees, &client, q, &TracerConfig::default())
            })
            .collect();
        let drained = Outcome::Unresolved(Unresolved::Drained);
        for (jobs, thread_cap) in [(1, None), (2, Some(2))] {
            let flag = Arc::new(AtomicBool::new(false));
            let config = BatchConfig {
                jobs,
                thread_cap,
                cancel: Some(Arc::clone(&flag)),
                ..BatchConfig::default()
            };
            let sunk = Mutex::new(Vec::new());
            let sink = |i: usize, r: &QueryResult<pda_util::BitSet>| {
                flag.store(true, Ordering::SeqCst);
                sunk.lock().unwrap().push((i, r.clone()));
            };
            let (r, s) = run_batch(
                &program,
                &callees,
                &client,
                &qs,
                &config,
                HashMap::new(),
                Some(&sink),
                None,
            );
            let sunk = sunk.into_inner().unwrap();
            assert!(!sunk.is_empty(), "jobs={jobs}: the first finished query reaches the sink");
            for (i, sr) in &sunk {
                assert_ne!(sr.outcome, drained, "jobs={jobs}: a drained result reached the sink");
                assert_eq!(sr, &r[*i], "jobs={jobs}: the sink saw query {i}'s final result");
            }
            for (i, res) in r.iter().enumerate() {
                if res.outcome == drained {
                    assert_eq!(res.iterations, 0, "jobs={jobs}: drained query {i} ran");
                    assert!(sunk.iter().all(|(j, _)| *j != i), "jobs={jobs}: query {i}");
                } else {
                    assert_eq!(res.outcome, alone[i].outcome, "jobs={jobs}: query {i}");
                    assert_eq!(res.iterations, alone[i].iterations, "jobs={jobs}: query {i}");
                }
            }
            if jobs == 1 {
                assert_ne!(r[0].outcome, drained);
                assert!(r[1..].iter().all(|r| r.outcome == drained), "later claims drain");
                assert_eq!(sunk.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0]);
                assert_eq!(s.worker_meta.iter().map(|w| w.queries).sum::<u64>(), 1);
            }
        }
    }

    #[test]
    fn worker_meta_attributes_all_queries() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let qs = queries(&program, &client);
        let callees = |c: CallId| pa.callees(c).to_vec();
        for jobs in [1, 4] {
            let config = BatchConfig { jobs, ..BatchConfig::default() };
            let (r, s) = solve_queries_batch(&program, &callees, &client, &qs, &config);
            assert!(!s.worker_meta.is_empty());
            assert!(s.worker_meta.len() <= jobs.min(qs.len()));
            assert_eq!(
                s.worker_meta.iter().map(|w| w.queries).sum::<u64>(),
                qs.len() as u64,
                "every solved query is attributed to exactly one worker"
            );
            let attributed: u64 = s.worker_meta.iter().map(|w| w.meta_micros).sum();
            assert_eq!(attributed, r.iter().map(|r| r.meta.micros).sum::<u64>());
        }
    }

    #[test]
    fn warm_intern_cache_matches_cold_outcomes() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let qs = queries(&program, &client);
        let callees = |c: CallId| pa.callees(c).to_vec();
        let config = TracerConfig::default();
        let cache: ForwardCache<'_, _> = ForwardCache::new();
        let mut icache = InternCache::default();
        for q in &qs {
            let cold = Session::new(&program, &callees, &client, q, &config).cache(&cache).run();
            let warm = Session::new(&program, &callees, &client, q, &config)
                .cache(&cache)
                .intern(&mut icache)
                .run();
            assert_eq!(cold.outcome, warm.outcome);
            assert_eq!(cold.iterations, warm.iterations);
        }
    }

    #[test]
    fn batch_timeout_degrades_whole_batch() {
        let (program, pa) = fixture();
        let client = NullClient::new(&program);
        let qs = queries(&program, &client);
        let callees = |c: CallId| pa.callees(c).to_vec();
        for jobs in [1, 4] {
            let config = BatchConfig {
                jobs,
                batch_timeout: Some(std::time::Duration::ZERO),
                ..BatchConfig::default()
            };
            let (r, s) = solve_queries_batch(&program, &callees, &client, &qs, &config);
            assert!(r
                .iter()
                .all(|r| r.outcome == Outcome::Unresolved(Unresolved::DeadlineExceeded)));
            assert_eq!(s.deadline_exceeded, qs.len());
        }
    }
}
