//! The TRACER loop (Algorithm 1): one [`Session`] per query, one `run`
//! loop, and one `step`, shared by every driver.

use crate::batch::ForwardCache;
use crate::client::{AsAnalysis, AsMeta, Query, TracerClient};
use pda_dataflow::{rhs, Interrupt, RhsLimits};
use pda_lang::{CallId, MethodId, Program};
use pda_meta::{analyze_trace_interned, BeamConfig, InternCache, MetaStats, Primitive};
use pda_solver::{Bdd, Model, PFormula};
use pda_util::{
    fault_point, Counter, Deadline, DeadlineExceeded, Event, MemBudget, ObsRegistry, Span,
    SpanKind,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-query observability context threaded through the CEGAR loop: a
/// counter/span registry plus an ordered buffer of trace [`Event`]s.
///
/// Events are *buffered*, not written — the batch driver drains each
/// query's buffer to the [`pda_util::TraceSink`] in query-index order, so
/// the emitted stream is deterministic across worker schedules. With
/// `trace` off, [`QueryObs::emit`] is a no-op and the buffer stays empty.
#[derive(Debug, Clone)]
pub struct QueryObs {
    /// Counter and span registry for this query.
    pub reg: ObsRegistry,
    /// Buffered trace events, in emission order.
    pub events: Vec<Event>,
    /// The query's index within its batch (0 for lone queries).
    pub query: u64,
    trace: bool,
}

impl QueryObs {
    /// A context for query number `query`. `trace` enables event
    /// buffering; `timed` enables span wall-clock measurement (counters
    /// are always collected).
    pub fn new(query: u64, trace: bool, timed: bool) -> QueryObs {
        let mut reg = ObsRegistry::default();
        reg.set_timed(timed);
        QueryObs { reg, events: Vec::new(), query, trace }
    }

    /// A context that collects counters only (no events, no span timing).
    pub fn untraced() -> QueryObs {
        QueryObs::new(0, false, false)
    }

    /// Whether event buffering is on.
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Buffers `ev` if tracing is enabled.
    pub fn emit(&mut self, ev: Event) {
        if self.trace {
            self.events.push(ev);
        }
    }
}

/// Renders a solver model's assignment as a `01` bitstring for the
/// `param_chosen` trace event (`assignment[i]` is bit `i`, printed left to
/// right).
fn bitstring(assignment: &[bool]) -> String {
    assignment.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Per-query viable-set state, threaded through the CEGAR loop so the
/// resident BDD survives across iterations. The constraint `Vec` stays
/// the source of truth — the BDD mirrors it conjoin-by-conjoin (`synced`
/// counts how many constraints are already absorbed), which is also what
/// lets the governor drop the whole arena mid-query without losing
/// anything: the next solve rebuilds it from the `Vec`.
struct ViableState {
    bdd: Option<Bdd>,
    synced: usize,
}

impl ViableState {
    fn new() -> ViableState {
        ViableState { bdd: None, synced: 0 }
    }

    /// Estimated retained bytes of the resident BDD (0 once dropped);
    /// folded into the governor's retained-state accounting each
    /// iteration boundary.
    fn approx_bytes(&self) -> u64 {
        self.bdd.as_ref().map_or(0, |b| b.approx_bytes() as u64)
    }

    /// Memory-governor degradation: drop the BDD arena; the next solve
    /// rebuilds it from the constraint `Vec`. Returns whether an arena
    /// was dropped.
    fn drop_arena(&mut self) -> bool {
        self.synced = 0;
        self.bdd.take().is_some()
    }

    /// Minimum-cost model of `⋀ constraints` (canonical tie-break), or
    /// `None` when the viable set is empty.
    ///
    /// Only constraints beyond `synced` are conjoined (the resident graph
    /// already holds the prefix) and the cached cost sweep re-runs only
    /// after a conjoin; node growth is reported to
    /// [`Counter::SolverNodes`].
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] when `deadline` expires mid-solve.
    fn solve<C: crate::client::TracerClient>(
        &mut self,
        client: &C,
        constraints: &[PFormula],
        deadline: Deadline,
        obs: &mut ObsRegistry,
    ) -> Result<Option<Model>, DeadlineExceeded> {
        let span = Span::enter(obs, SpanKind::Solver);
        let result = (|| {
            if deadline.expired() {
                return Err(DeadlineExceeded);
            }
            let n = client.n_atoms();
            let bdd = self
                .bdd
                .get_or_insert_with(|| Bdd::new(n, (0..n).map(|i| client.atom_cost(i)).collect()));
            let before = bdd.node_count();
            for c in &constraints[self.synced..] {
                bdd.conjoin(c);
            }
            self.synced = constraints.len();
            obs.add(Counter::SolverNodes, (bdd.node_count() - before) as u64);
            if deadline.expired() {
                return Err(DeadlineExceeded);
            }
            Ok(bdd.solve())
        })();
        span.exit(obs);
        result
    }
}

/// Configuration of one TRACER run.
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// The backward beam (the paper's `k`; default 5 per Figure 13).
    pub beam: BeamConfig,
    /// Maximum CEGAR iterations per query (the paper's 1000-minute
    /// timeout analogue).
    pub max_iters: usize,
    /// Forward-engine fact budget.
    pub rhs_limits: RhsLimits,
    /// Per-query wall-clock budget (the paper's Section 6 timeout); the
    /// loop, tabulation, and solver all poll the same deadline. `None`
    /// (the default) means no wall-clock limit.
    pub timeout: Option<Duration>,
    /// Fact-budget escalation ladder applied on forward-run `TooBig`.
    pub escalation: Escalation,
    /// Per-query memory budget in estimated bytes. Under sustained
    /// pressure the memory governor walks its degradation ladder (evict
    /// memos, shrink the beam, shrink the fact budget) before resolving
    /// as [`Unresolved::MemBudgetExceeded`]. `None` (the default) keeps
    /// byte accounting on but never degrades.
    pub mem_budget: Option<u64>,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            beam: BeamConfig::default(),
            max_iters: 200,
            rhs_limits: RhsLimits::default(),
            timeout: None,
            escalation: Escalation::default(),
            mem_budget: None,
        }
    }
}

/// Geometric fact-budget escalation: when a forward run returns `TooBig`,
/// retry the same CEGAR step under `base * factor^attempt` facts, up to
/// `retries` retries. The ladder is deterministic, so escalated runs stay
/// reproducible (and cacheable) across schedules.
///
/// The default performs no retries, preserving the pre-escalation
/// behaviour; `Escalation::standard()` is the 1x → 4x → 16x ladder from
/// the issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Escalation {
    /// Number of retries after the initial attempt (0 = no escalation).
    pub retries: u32,
    /// Geometric growth factor per retry (≥ 2 to make progress).
    pub factor: u32,
}

impl Default for Escalation {
    fn default() -> Self {
        Escalation { retries: 0, factor: 4 }
    }
}

impl Escalation {
    /// The 1x → 4x → 16x ladder: two retries, factor 4.
    pub fn standard() -> Self {
        Escalation { retries: 2, factor: 4 }
    }

    /// Fact budget for the given attempt (0 = the initial run), with the
    /// growth saturating instead of overflowing.
    pub fn budget(&self, base: usize, attempt: u32) -> usize {
        (self.factor as usize)
            .checked_pow(attempt)
            .and_then(|m| base.checked_mul(m))
            .unwrap_or(usize::MAX)
    }
}

/// How a query got resolved (or not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<Param> {
    /// A cheapest abstraction proving the query.
    Proven {
        /// The optimum abstraction.
        param: Param,
        /// Its cost (`|p|` in the paper's preorders).
        cost: u64,
    },
    /// No abstraction in the family proves the query.
    Impossible,
    /// Budget exhausted before resolution.
    Unresolved(Unresolved),
}

/// Why a query went unresolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unresolved {
    /// Hit the CEGAR iteration budget.
    IterationBudget,
    /// A forward run exceeded its fact budget (after any escalation).
    AnalysisTooBig,
    /// The backward meta-analysis reported an internal soundness failure.
    MetaFailure(String),
    /// The query's wall-clock deadline expired.
    DeadlineExceeded,
    /// The engine or client panicked while solving this query; the
    /// payload message is preserved. Produced only by the batch driver's
    /// panic isolation — a lone [`solve_query`] still propagates panics.
    EngineFault(String),
    /// The memory governor exhausted its degradation ladder (memo
    /// eviction, beam shrinking, fact-budget shrinking) and the query
    /// still exceeded its byte budget.
    MemBudgetExceeded,
    /// The batch was draining (graceful shutdown) before this query
    /// started; no work was attempted. Drained queries are never written
    /// to a checkpoint, so a resumed run solves them afresh and its
    /// outcome lines match an uninterrupted run's.
    Drained,
}

/// Per-query result plus effort accounting for the experiment tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult<Param> {
    /// Resolution.
    pub outcome: Outcome<Param>,
    /// CEGAR iterations consumed (forward runs).
    pub iterations: usize,
    /// Wall-clock time spent, microseconds.
    pub micros: u128,
    /// Fact-budget escalation retries consumed across all iterations.
    pub escalations: u32,
    /// Memory-governor degradation-ladder steps applied (0 when the
    /// query never came under memory pressure).
    pub degradations: u32,
    /// Transient-fault retry attempts consumed before this result (the
    /// batch scheduler's deterministic backoff ladder; 0 outside
    /// retry-enabled drivers).
    pub retries: u32,
    /// Backward/meta-phase effort counters summed over all iterations.
    pub meta: MetaStats,
}

/// Runs Algorithm 1 for a single query.
///
/// Starting from the unconstrained viable set, each iteration solves for a
/// minimum-cost abstraction, runs the forward analysis, and on failure
/// prunes the viable set with the backward meta-analysis's unviability
/// formula. Returns [`Outcome::Proven`] with an optimum abstraction,
/// [`Outcome::Impossible`] when the viable set empties, or
/// [`Outcome::Unresolved`] on budget exhaustion.
///
/// A lone query runs uncached: within one loop every iteration tries a
/// new assignment (the previous one was just proven unviable), so a
/// forward-run cache could only retain memory.
pub fn solve_query<C: TracerClient>(
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    query: &Query<C::Prim>,
    config: &TracerConfig,
) -> QueryResult<C::Param> {
    Session::new(program, callees, client, query, config).run()
}

/// The deadline a query actually runs under: the earliest of the
/// configured per-query timeout and the query's own limit override.
fn effective_deadline<P>(query: &Query<P>, config: &TracerConfig) -> Deadline {
    Deadline::timeout(config.timeout).min(Deadline::timeout(query.limits.timeout))
}

/// The memory budget a query actually runs under: the query's own limit
/// override, else the configured per-query budget.
fn effective_mem_budget<P>(query: &Query<P>, config: &TracerConfig) -> Option<u64> {
    query.limits.mem_budget.or(config.mem_budget)
}

/// Deterministic node-count byte estimate of a learned constraint.
fn pformula_bytes(f: &PFormula) -> u64 {
    fn nodes(f: &PFormula) -> u64 {
        match f {
            PFormula::True | PFormula::False | PFormula::Lit { .. } => 1,
            PFormula::Not(g) => 1u64.saturating_add(nodes(g)),
            PFormula::And(fs) | PFormula::Or(fs) => {
                fs.iter().fold(1u64, |a, g| a.saturating_add(nodes(g)))
            }
        }
    }
    nodes(f).saturating_mul(std::mem::size_of::<PFormula>() as u64)
}

/// Rough per-cube byte estimate used to account the backward kernels'
/// transient cube traffic (both kernels report [`Counter::CubesBuilt`]).
const CUBE_BYTES: u64 = 96;

/// The last rung of the degradation ladder; sustained pressure past it
/// resolves the query as [`Unresolved::MemBudgetExceeded`].
const LADDER_RUNGS: u32 = 8;

/// The per-query memory governor: owns the query's byte budget, polls it
/// at CEGAR iteration boundaries, and under pressure walks a
/// deterministic degradation ladder — (1) evict `Unstable` wp-memo entries, (2) reset the
/// [`InternCache`], (3–4) quarter `max_cubes`, (5–6) halve the beam `k`
/// (both sound by Theorem 3: a narrower beam can cost precision of the
/// *optimum*, never soundness of a verdict), (7–8) shrink the base fact
/// budget — before giving up.
///
/// The ladder escalates only under *sustained* pressure: a rung whose
/// relief lasts until the next boundary restarts the ladder at eviction,
/// so transient spikes cost cache warmth, not beam width. Every pressure
/// decision is a pure function of deterministic byte estimates, so
/// governed runs reproduce bit-identically.
struct Governor {
    budget: MemBudget,
    level: u32,
    prev_pressure: bool,
    /// Ladder rungs applied so far (mirrors [`Counter::Degradations`]).
    degradations: u32,
    /// The effective (possibly shrunken) backward beam.
    beam: BeamConfig,
    /// The effective (possibly shrunken) base fact budget.
    base_facts: usize,
    factor: usize,
    last_retained: u64,
}

impl Governor {
    /// A governor for one query.
    fn new<P>(query: &Query<P>, config: &TracerConfig) -> Governor {
        Governor {
            budget: MemBudget::new(effective_mem_budget(query, config)),
            level: 0,
            prev_pressure: false,
            degradations: 0,
            beam: config.beam,
            base_facts: query.limits.max_facts.unwrap_or(config.rhs_limits.max_facts),
            factor: (config.escalation.factor as usize).max(2),
            last_retained: 0,
        }
    }

    /// Re-estimates the bytes retained across iterations (the intern
    /// cache, the learned constraint set, and the viable engine's
    /// resident BDD arena if any) and charges/releases the delta, so the
    /// ledger's `used()` tracks retained state between boundaries while
    /// transient charges come and go on top of it.
    fn account_retained<P: Primitive>(
        &mut self,
        icache: &InternCache<P>,
        constraints: &[PFormula],
        viable: &ViableState,
        obs: &mut ObsRegistry,
    ) {
        let retained = icache
            .approx_bytes()
            .saturating_add(
                constraints.iter().fold(0u64, |acc, c| acc.saturating_add(pformula_bytes(c))),
            )
            .saturating_add(viable.approx_bytes());
        if retained > self.last_retained {
            let delta = retained - self.last_retained;
            self.budget.charge(delta);
            obs.add(Counter::MemCharged, delta);
        } else {
            self.budget.release(self.last_retained - retained);
        }
        self.last_retained = retained;
    }

    /// Polls the consumed pressure signal at an iteration boundary and
    /// applies at most one ladder rung. Returns `true` when the ladder is
    /// exhausted (the caller resolves [`Unresolved::MemBudgetExceeded`]).
    fn poll<P: Primitive>(
        &mut self,
        icache: &mut InternCache<P>,
        viable: &mut ViableState,
        obs: &mut ObsRegistry,
    ) -> bool {
        if !self.budget.take_pressure() {
            self.prev_pressure = false;
            return false;
        }
        // Escalate only when the previous boundary was also under
        // pressure; relieved pressure restarts the ladder at eviction.
        self.level = if self.prev_pressure { self.level + 1 } else { 1 };
        self.prev_pressure = true;
        match self.level {
            1 => {
                let evicted = icache.evict_unstable();
                obs.add(Counter::MemEvictions, evicted);
            }
            2 => {
                // Drop both caches rebuilt on demand: the intern table and
                // the BDD arena (the next solve rebuilds it from the same
                // constraint Vec, so the search is unchanged).
                fault_point("intern.reset");
                *icache = InternCache::new();
                if viable.drop_arena() {
                    obs.inc(Counter::MemEvictions);
                }
                obs.inc(Counter::MemEvictions);
            }
            3 | 4 => self.beam.max_cubes = (self.beam.max_cubes / 4).max(1),
            5 | 6 => self.beam.k = (self.beam.k / 2).max(1),
            7..=LADDER_RUNGS => self.base_facts = (self.base_facts / self.factor).max(1),
            _ => return true,
        }
        self.degradations += 1;
        obs.inc(Counter::Degradations);
        fault_point("governor.rung");
        false
    }
}

/// One recorded CEGAR iteration of [`solve_query_logged`].
#[derive(Debug, Clone)]
pub struct IterationLog<Param> {
    /// The abstraction tried (a minimum of the viable set at the time).
    pub param: Param,
    /// Its cost.
    pub cost: u64,
    /// The backward beam this iteration ran under: the configured one,
    /// unless the memory governor had shrunk it.
    pub beam: BeamConfig,
    /// The unviability constraint learned from this iteration's
    /// counterexample. `None` only on a final iteration: the one that
    /// proved the query, or the one whose forward or backward phase left
    /// it Unresolved (fact budget, meta failure, a deadline mid-step).
    pub learned: Option<PFormula>,
    /// Memory-governor ladder rungs applied at this iteration's boundary.
    pub degradations: u32,
    /// Backward/meta-phase effort counters for this iteration alone.
    pub meta: MetaStats,
}

/// Like [`solve_query`], but records every iteration: which abstraction
/// was tried and what constraint the backward meta-analysis learned —
/// the data behind explanations like the `impossibility` example.
pub fn solve_query_logged<C: TracerClient>(
    program: &Program,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    client: &C,
    query: &Query<C::Prim>,
    config: &TracerConfig,
) -> (QueryResult<C::Param>, Vec<IterationLog<C::Param>>) {
    let mut log = Vec::new();
    let r = Session::new(program, callees, client, query, config).log(&mut log).run();
    (r, log)
}

/// State the session owns, or borrows from a caller that keeps it across
/// queries (the analysis daemon's warm intern cache, a batch worker's
/// per-attempt [`QueryObs`]).
enum Held<'s, T> {
    Owned(T),
    Borrowed(&'s mut T),
}

impl<T> std::ops::Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            Held::Owned(t) => t,
            Held::Borrowed(t) => t,
        }
    }
}

impl<T> std::ops::DerefMut for Held<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self {
            Held::Owned(t) => t,
            Held::Borrowed(t) => t,
        }
    }
}

/// One query's CEGAR loop (Algorithm 1) and everything it carries across
/// iterations: the deadline, the memory governor, the viable-set
/// engine state, the learned constraints, the interned meta-kernel cache,
/// an optional shared [`ForwardCache`], the observability context, and an
/// optional iteration log.
///
/// Every driver — [`solve_query`], [`solve_query_logged`], the batch
/// scheduler, and the analysis daemon — builds a session and calls
/// [`Session::run`]; the builder methods select what is shared:
///
/// ```
/// use pda_tracer::{nullcli::NullClient, ForwardCache, QueryObs, Session, TracerConfig};
///
/// let program = pda_lang::parse_program(
///     "fn main() { var x, y; x = null; y = x; query q: local y; }",
/// ).unwrap();
/// let pa = pda_analysis::PointsTo::analyze(&program);
/// let client = NullClient::new(&program);
/// let query = client.query(&program, program.query_by_label("q").unwrap());
/// let config = TracerConfig::default();
/// let callees = |c| pa.callees(c).to_vec();
/// let cache = ForwardCache::new();
/// let mut obs = QueryObs::untraced();
/// let r = Session::new(&program, &callees, &client, &query, &config)
///     .cache(&cache)
///     .observe(&mut obs)
///     .run();
/// assert_eq!(r.iterations as u64, cache.stats().misses);
/// ```
pub struct Session<'s, 'p, C: TracerClient> {
    program: &'p Program,
    callees: &'s dyn Fn(CallId) -> Vec<MethodId>,
    client: &'s C,
    query: &'s Query<C::Prim>,
    config: &'s TracerConfig,
    deadline: Deadline,
    gov: Governor,
    viable: ViableState,
    constraints: Vec<PFormula>,
    escalations: u32,
    icache: Held<'s, InternCache<C::Prim>>,
    cache: Option<&'s ForwardCache<'p, C::State>>,
    /// Forward-cache waits (contended map acquisitions and waits on a
    /// sibling's running forward run), drained into the registry once at
    /// the end (effort attribution, never part of the event stream).
    lock_waits: AtomicU64,
    obs: Held<'s, QueryObs>,
    log: Option<&'s mut Vec<IterationLog<C::Param>>>,
}

enum StepResult<Param> {
    /// The viable set is empty.
    Impossible,
    /// The solver gave up before picking an abstraction.
    Unresolved(Unresolved),
    /// The iteration tried `param` at `cost` and ended as `ended` says.
    Tried { param: Param, cost: u64, ended: Ended },
}

/// How an iteration that tried an abstraction ended.
enum Ended {
    /// The forward run proved the query.
    Proven,
    /// A constraint was learned; the loop goes on.
    Refined,
    /// The forward or backward phase stopped the query.
    Failed(Unresolved),
}

impl<'s, 'p, C: TracerClient> Session<'s, 'p, C> {
    /// A session for `query` with no outer deadline, a fresh intern
    /// cache, no forward-run cache, an untraced [`QueryObs`], and no log.
    pub fn new(
        program: &'p Program,
        callees: &'s dyn Fn(CallId) -> Vec<MethodId>,
        client: &'s C,
        query: &'s Query<C::Prim>,
        config: &'s TracerConfig,
    ) -> Self {
        Session {
            program,
            callees,
            client,
            query,
            config,
            deadline: effective_deadline(query, config),
            gov: Governor::new(query, config),
            viable: ViableState::new(),
            constraints: Vec::new(),
            escalations: 0,
            icache: Held::Owned(InternCache::new()),
            cache: None,
            lock_waits: AtomicU64::new(0),
            obs: Held::Owned(QueryObs::untraced()),
            log: None,
        }
    }

    /// Also bounds the query by an externally imposed `outer` deadline
    /// (a batch's whole-batch budget, a daemon request's window).
    pub fn within(mut self, outer: Deadline) -> Self {
        self.deadline = self.deadline.min(outer);
        self
    }

    /// Routes every forward run through `cache`, shared with sibling
    /// queries over the same program and client.
    pub fn cache(mut self, cache: &'s ForwardCache<'p, C::State>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Uses the caller's intern/wp-memo cache, which stays warm across
    /// queries of the same client. Memoization is semantically
    /// transparent: outcomes are identical to a cold-cache solve, only
    /// effort counters (wp hits/misses, micros) differ.
    pub fn intern(mut self, icache: &'s mut InternCache<C::Prim>) -> Self {
        self.icache = Held::Borrowed(icache);
        self
    }

    /// Collects spans, counters, and (if enabled on `obs`) buffered trace
    /// events into the caller's [`QueryObs`]. The returned
    /// [`QueryResult::meta`] reflects only this run's counter deltas, so
    /// an `obs` reused across queries still yields per-query stats.
    pub fn observe(mut self, obs: &'s mut QueryObs) -> Self {
        self.obs = Held::Borrowed(obs);
        self
    }

    /// Records every iteration into `log` (see [`solve_query_logged`]).
    fn log(mut self, log: &'s mut Vec<IterationLog<C::Param>>) -> Self {
        self.log = Some(log);
        self
    }

    /// Runs the CEGAR loop to a verdict or a budget.
    pub fn run(mut self) -> QueryResult<C::Param> {
        let start = Instant::now();
        let entry = self.obs.reg.clone();
        // Publish the query's deadline for out-of-band sleepers (injected
        // stalls, `Fault::Stall` clients) that sit outside the limit structs.
        let _ambient = self.deadline.enter_ambient();
        let mut iterations = 0;
        let outcome = loop {
            // One watchdog heartbeat per CEGAR iteration: a request that
            // stops beating is non-cooperatively stuck, not merely slow.
            pda_util::heartbeat::beat();
            if self.deadline.expired() {
                break Outcome::Unresolved(Unresolved::DeadlineExceeded);
            }
            if iterations >= self.config.max_iters {
                break Outcome::Unresolved(Unresolved::IterationBudget);
            }
            // Per-iteration snapshots cost a registry clone, so only a
            // logging session takes them.
            let before = self.log.is_some().then(|| self.obs.reg.clone());
            let (param, cost, ended) = match self.step(iterations) {
                StepResult::Impossible => break Outcome::Impossible,
                StepResult::Unresolved(u) => {
                    iterations += 1;
                    break Outcome::Unresolved(u);
                }
                StepResult::Tried { param, cost, ended } => (param, cost, ended),
            };
            iterations += 1;
            let refined = matches!(ended, Ended::Refined);
            let (rungs, beam) = (self.gov.degradations, self.gov.beam);
            let exhausted = refined && {
                let icache = &mut *self.icache;
                self.gov.account_retained(
                    icache,
                    &self.constraints,
                    &self.viable,
                    &mut self.obs.reg,
                );
                self.gov.poll(icache, &mut self.viable, &mut self.obs.reg)
            };
            if let (Some(log), Some(before)) = (self.log.as_deref_mut(), before) {
                log.push(IterationLog {
                    param: param.clone(),
                    cost,
                    beam,
                    learned: if refined { self.constraints.last().cloned() } else { None },
                    degradations: self.gov.degradations - rungs,
                    meta: MetaStats::from_obs(&self.obs.reg.since(&before)),
                });
            }
            match ended {
                Ended::Proven => break Outcome::Proven { param, cost },
                Ended::Failed(u) => break Outcome::Unresolved(u),
                Ended::Refined if exhausted => {
                    break Outcome::Unresolved(Unresolved::MemBudgetExceeded)
                }
                Ended::Refined => {}
            }
        };
        let reg = &mut self.obs.reg;
        reg.add(Counter::Iterations, iterations as u64);
        reg.add(Counter::Escalations, u64::from(self.escalations));
        reg.add(Counter::LockWaitMicros, self.lock_waits.load(Ordering::Relaxed));
        let meta = MetaStats::from_obs(&reg.since(&entry));
        QueryResult {
            outcome,
            iterations,
            micros: start.elapsed().as_micros(),
            escalations: self.escalations,
            degradations: self.gov.degradations,
            retries: 0,
            meta,
        }
    }

    /// One CEGAR iteration: pick minimum viable `p`, run forward, either
    /// prove or learn a new unviability constraint (pushed onto
    /// `constraints`).
    ///
    /// `iter` is the zero-based iteration index, used only to tag trace
    /// events. The `iteration_start` event is emitted only once the solver
    /// has produced a model, so its stream count equals the driver's
    /// iteration counter.
    fn step(&mut self, iter: usize) -> StepResult<C::Param> {
        let (client, query, config, deadline) =
            (self.client, self.query, self.config, self.deadline);
        // The solver, forward and backward phases are always timed, so
        // the per-layer split is visible in footers even with span timing
        // off.
        let t0 = Instant::now();
        let solved = self.viable.solve(client, &self.constraints, deadline, &mut self.obs.reg);
        self.obs.reg.add(Counter::SolverMicros, t0.elapsed().as_micros() as u64);
        let model = match solved {
            Ok(Some(m)) => m,
            Ok(None) => return StepResult::Impossible,
            Err(_) => return StepResult::Unresolved(Unresolved::DeadlineExceeded),
        };
        let q = self.obs.query;
        let iter = iter as u64;
        self.obs.emit(Event::IterationStart { query: q, iter });
        self.obs.emit(Event::ParamChosen {
            query: q,
            iter,
            cost: model.cost,
            param: bitstring(&model.assignment),
        });
        let p = client.param_of_model(&model.assignment);
        let d0 = client.initial_state();

        // Forward run under the escalation ladder: on TooBig, retry the
        // same abstraction with a geometrically larger fact budget while
        // retries remain and the deadline is alive. The governor may have
        // shrunk the base below the configured/query budget (ladder rungs
        // 7–8); a degraded budget is a different cache key, so degraded
        // runs never poison healthy ones.
        let mut attempt: u32 = 0;
        let mut executed = 0;
        let waits_before = self.lock_waits.load(Ordering::Relaxed);
        let t_fwd = Instant::now();
        let run = loop {
            let max_facts = config.escalation.budget(self.gov.base_facts, attempt);
            let limits = RhsLimits { max_facts, deadline };
            let mut compute = || {
                executed += 1;
                rhs::run(self.program, &AsAnalysis(client), &p, d0.clone(), self.callees, limits)
            };
            let result = match self.cache {
                Some(c) => {
                    c.forward(&model.assignment, max_facts, deadline, &self.lock_waits, compute)
                }
                None => compute().map(Arc::new),
            };
            match result {
                Ok(r) => break Ok(r),
                Err(Interrupt::TooBig(_))
                    if attempt < config.escalation.retries && !deadline.expired() =>
                {
                    attempt += 1;
                    self.escalations += 1;
                }
                Err(Interrupt::TooBig(_)) => break Err(Unresolved::AnalysisTooBig),
                Err(Interrupt::DeadlineExceeded) => break Err(Unresolved::DeadlineExceeded),
            }
        };
        // Waits on the shared cache are contention (`LockWaitMicros`), not
        // forward work.
        let waited = self.lock_waits.load(Ordering::Relaxed) - waits_before;
        let us = (t_fwd.elapsed().as_micros() as u64).saturating_sub(waited);
        self.obs.reg.add(Counter::ForwardMicros, us);
        self.obs.reg.record_span_micros(SpanKind::Forward, us);
        // RHS runs this query executed itself; runs a sibling executed
        // reach it as cache hits.
        self.obs.reg.add(Counter::ForwardRuns, executed);
        let run = match run {
            Ok(run) => run,
            Err(u) => return StepResult::Tried { param: p, cost: model.cost, ended: Ended::Failed(u) },
        };
        self.obs.emit(Event::ForwardDone { query: q, iter, facts: run.n_facts() as u64 });
        // The (possibly shared) fact/reason tables are this query's
        // working set until the end of the step; charge them so the
        // boundary poll sees the iteration's true footprint.
        let fwd_bytes = run.approx_bytes();
        self.gov.budget.charge(fwd_bytes);
        self.obs.reg.add(Counter::MemCharged, fwd_bytes);

        let failing = |d: &C::State| query.not_q.holds(&p, d);
        let Some(trace) = run.witness(query.point, &failing) else {
            self.gov.budget.release(fwd_bytes);
            return StepResult::Tried { param: p, cost: model.cost, ended: Ended::Proven };
        };
        let atoms: Vec<pda_lang::Atom> = trace.iter().map(|s| s.atom).collect();

        let before = self.obs.reg.clone();
        let phi = match self.backward(&p, &d0, &atoms) {
            Ok(phi) => phi,
            Err(e) => {
                self.gov.budget.release(fwd_bytes);
                let failed = Ended::Failed(Unresolved::MetaFailure(e.to_string()));
                return StepResult::Tried { param: p, cost: model.cost, ended: failed };
            }
        };
        let delta = self.obs.reg.since(&before);
        // Transient cube traffic of the backward phase, as a deterministic
        // per-cube estimate (charged and released in one breath — the peak
        // tracker still observes it).
        let cube_bytes = delta.get(Counter::CubesBuilt).saturating_mul(CUBE_BYTES);
        self.gov.budget.charge(cube_bytes);
        self.obs.reg.add(Counter::MemCharged, cube_bytes);
        self.gov.budget.release(cube_bytes);
        self.obs.emit(Event::MetaDone {
            query: q,
            iter,
            cubes: delta.get(Counter::CubesBuilt),
            wp_hits: delta.get(Counter::WpHits),
            wp_misses: delta.get(Counter::WpMisses),
        });
        self.obs.emit(Event::Pruned { query: q, iter, cubes: delta.get(Counter::ApproxDrops) });
        debug_assert!(
            phi.eval(&model.assignment),
            "backward analysis failed to eliminate the current abstraction (Theorem 3.1)"
        );
        let viable = Span::enter(&self.obs.reg, SpanKind::Viable);
        self.constraints.push(PFormula::not(phi));
        viable.exit(&mut self.obs.reg);
        self.gov.budget.release(fwd_bytes);
        StepResult::Tried { param: p, cost: model.cost, ended: Ended::Refined }
    }

    /// The backward phase of one CEGAR iteration: meta-analyze the
    /// counterexample trace with the interned kernel and restrict to a
    /// parameter formula. The elapsed time and kernel counters accumulate
    /// into the registry ([`Counter::MetaMicros`] plus the kernel effort
    /// counters), and the kernel's closure/memo state persists in the
    /// intern cache across iterations.
    fn backward(
        &mut self,
        p: &C::Param,
        d0: &C::State,
        atoms: &[pda_lang::Atom],
    ) -> Result<PFormula, pda_meta::MetaError> {
        let obs = &mut self.obs.reg;
        let t0 = Instant::now();
        let phi = analyze_trace_interned(
            &AsMeta(self.client),
            p,
            d0,
            atoms,
            &self.query.not_q,
            &self.gov.beam,
            &mut self.icache,
            obs,
        )
        .map(|out| out.restrict());
        // The span reuses the same measurement instead of taking a second
        // clock reading.
        let us = t0.elapsed().as_micros() as u64;
        obs.add(Counter::MetaMicros, us);
        obs.record_span_micros(SpanKind::Backward, us);
        phi
    }
}

impl<Param> std::fmt::Display for Outcome<Param> {
    /// One-line, user-facing verdict (details via `Debug`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Proven { cost, .. } => write!(f, "proven with optimum |p| = {cost}"),
            Outcome::Impossible => write!(f, "impossible for every abstraction"),
            Outcome::Unresolved(u) => write!(f, "unresolved: {u}"),
        }
    }
}

impl std::fmt::Display for Unresolved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unresolved::IterationBudget => write!(f, "iteration budget exhausted"),
            Unresolved::AnalysisTooBig => write!(f, "forward analysis exceeded its fact budget"),
            Unresolved::MetaFailure(m) => write!(f, "meta-analysis failure: {m}"),
            Unresolved::DeadlineExceeded => write!(f, "wall-clock deadline exceeded"),
            Unresolved::EngineFault(m) => write!(f, "engine fault: {m}"),
            Unresolved::MemBudgetExceeded => write!(f, "memory budget exceeded"),
            Unresolved::Drained => write!(f, "drained before start"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullcli::NullClient;
    use pda_analysis::PointsTo;

    fn solve(src: &str, label: &str) -> (pda_lang::Program, QueryResult<pda_util::BitSet>) {
        let program = pda_lang::parse_program(src).unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let q = program.query_by_label(label).unwrap();
        let query = client.query(&program, q);
        let r = solve_query(
            &program,
            &|c| pa.callees(c).to_vec(),
            &client,
            &query,
            &TracerConfig::default(),
        );
        (program, r)
    }

    #[test]
    fn proves_with_minimum_abstraction() {
        let (program, r) = solve(
            r#"
            fn main() {
                var x, y, z;
                x = null;
                z = x;      // tracking z is unnecessary
                y = x;
                query q: local y;
            }
            "#,
            "q",
        );
        match r.outcome {
            Outcome::Proven { param, cost } => {
                assert_eq!(cost, 2);
                let x = program.main_var("x").unwrap();
                let y = program.main_var("y").unwrap();
                let z = program.main_var("z").unwrap();
                assert!(param.contains(x.0 as usize));
                assert!(param.contains(y.0 as usize));
                assert!(!param.contains(z.0 as usize));
            }
            other => panic!("expected proof, got {other:?}"),
        }
        assert!(r.iterations >= 2); // starts from the empty abstraction
    }

    #[test]
    fn impossible_query_detected() {
        let (_, r) = solve(
            r#"
            class C {}
            fn main() {
                var y;
                y = new C;
                query q: local y;   // y is definitely NOT null
            }
            "#,
            "q",
        );
        assert_eq!(r.outcome, Outcome::Impossible);
    }

    #[test]
    fn trivially_true_query_proved_with_empty_abstraction() {
        let (_, r) = solve(
            r#"
            fn main() {
                var y;
                y = null;
                y = null;
                query q: local y;
            }
            "#,
            "q",
        );
        match r.outcome {
            // Tracking y alone suffices; nothing cheaper can prove it
            // (the empty abstraction can't track y's nullness).
            Outcome::Proven { cost, .. } => assert_eq!(cost, 1),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn proof_through_call_and_loop() {
        let (program, r) = solve(
            r#"
            fn id(a) { return a; }
            fn main() {
                var x, y;
                x = null;
                while (*) { y = id(x); }
                y = x;
                query q: local y;
            }
            "#,
            "q",
        );
        match r.outcome {
            Outcome::Proven { param, .. } => {
                let x = program.main_var("x").unwrap();
                assert!(param.contains(x.0 as usize));
            }
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn logged_run_has_monotone_costs_and_learned_constraints() {
        let (program, _) = solve(
            r#"
            fn main() {
                var x, y, z;
                x = null;
                z = x;
                y = x;
                query q: local y;
            }
            "#,
            "q",
        );
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let q = program.query_by_label("q").unwrap();
        let query = client.query(&program, q);
        let (r, log) = crate::tracer::solve_query_logged(
            &program,
            &|c| pa.callees(c).to_vec(),
            &client,
            &query,
            &TracerConfig::default(),
        );
        assert!(matches!(r.outcome, Outcome::Proven { .. }));
        assert_eq!(log.len(), r.iterations);
        // Every non-final iteration learned a constraint; the final did not.
        for (i, entry) in log.iter().enumerate() {
            assert_eq!(entry.learned.is_none(), i + 1 == log.len());
        }
        // Minimum viable cost can only grow as the viable set shrinks.
        assert!(log.windows(2).all(|w| w[0].cost <= w[1].cost));
    }

    /// The always-on phase timers measure disjoint stretches of the
    /// loop, so together they never exceed the query's own wall time,
    /// and the forward phase records one span per iteration.
    #[test]
    fn phase_micros_fit_inside_query_micros() {
        let (program, _) = solve(SIMPLE, "q");
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let query = client.query(&program, program.query_by_label("q").unwrap());
        let config = TracerConfig::default();
        let mut obs = QueryObs::untraced();
        let r = Session::new(&program, &|c| pa.callees(c).to_vec(), &client, &query, &config)
            .observe(&mut obs)
            .run();
        assert!(r.iterations >= 2);
        let phases = [Counter::ForwardMicros, Counter::MetaMicros, Counter::SolverMicros]
            .map(|c| obs.reg.get(c));
        assert!(
            phases.iter().sum::<u64>() as u128 <= r.micros,
            "phases {phases:?} exceed the query's {} µs",
            r.micros
        );
        assert_eq!(obs.reg.span_stats(SpanKind::Forward).count, r.iterations as u64);
    }

    #[test]
    fn iteration_budget_reported() {
        let program = pda_lang::parse_program(
            r#"
            fn main() {
                var x, y;
                x = null;
                y = x;
                query q: local y;
            }
            "#,
        )
        .unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        let q = program.query_by_label("q").unwrap();
        let query = client.query(&program, q);
        let config = TracerConfig { max_iters: 1, ..TracerConfig::default() };
        let r = solve_query(&program, &|c| pa.callees(c).to_vec(), &client, &query, &config);
        assert_eq!(r.outcome, Outcome::Unresolved(Unresolved::IterationBudget));
    }

    const SIMPLE: &str = r#"
        fn main() {
            var x, y;
            x = null;
            y = x;
            query q: local y;
        }
    "#;

    fn simple_setup() -> (pda_lang::Program, PointsTo, NullClient) {
        let program = pda_lang::parse_program(SIMPLE).unwrap();
        let pa = PointsTo::analyze(&program);
        let client = NullClient::new(&program);
        (program, pa, client)
    }

    #[test]
    fn zero_timeout_is_deterministic_deadline_exceeded() {
        let (program, pa, client) = simple_setup();
        let q = program.query_by_label("q").unwrap();
        let query = client.query(&program, q);
        let config = TracerConfig {
            timeout: Some(std::time::Duration::ZERO),
            ..TracerConfig::default()
        };
        let r = solve_query(&program, &|c| pa.callees(c).to_vec(), &client, &query, &config);
        assert_eq!(r.outcome, Outcome::Unresolved(Unresolved::DeadlineExceeded));
        // Expired before any iteration: nothing was attempted.
        assert_eq!(r.iterations, 0);
        assert_eq!(r.escalations, 0);
    }

    #[test]
    fn query_limit_timeout_overrides_config() {
        let (program, pa, client) = simple_setup();
        let q = program.query_by_label("q").unwrap();
        let query = client.query(&program, q).with_limits(crate::client::QueryLimits {
            timeout: Some(std::time::Duration::ZERO),
            max_facts: None,
            mem_budget: None,
        });
        let r = solve_query(
            &program,
            &|c| pa.callees(c).to_vec(),
            &client,
            &query,
            &TracerConfig::default(),
        );
        assert_eq!(r.outcome, Outcome::Unresolved(Unresolved::DeadlineExceeded));
    }

    #[test]
    fn escalation_ladder_recovers_from_too_big() {
        let (program, pa, client) = simple_setup();
        let q = program.query_by_label("q").unwrap();
        let query = client.query(&program, q).with_limits(crate::client::QueryLimits {
            timeout: None,
            max_facts: Some(1),
            mem_budget: None,
        });
        let callees = |c: pda_lang::CallId| pa.callees(c).to_vec();
        // Without escalation a 1-fact budget is hopeless.
        let r = solve_query(&program, &callees, &client, &query, &TracerConfig::default());
        assert_eq!(r.outcome, Outcome::Unresolved(Unresolved::AnalysisTooBig));
        assert_eq!(r.escalations, 0);
        // With the ladder (1, 4, 16, ... facts) it climbs until the run fits.
        let config = TracerConfig {
            escalation: Escalation { retries: 10, factor: 4 },
            ..TracerConfig::default()
        };
        let r = solve_query(&program, &callees, &client, &query, &config);
        assert!(matches!(r.outcome, Outcome::Proven { .. }), "got {:?}", r.outcome);
        assert!(r.escalations > 0);
        // The baseline (no overrides) proves the same query without retries.
        let plain = client.query(&program, q);
        let r0 = solve_query(&program, &callees, &client, &plain, &config);
        assert_eq!(r0.escalations, 0);
        assert_eq!(r0.outcome, r.outcome);
    }

    #[test]
    fn escalation_budget_saturates() {
        let e = Escalation { retries: 200, factor: 4 };
        assert_eq!(e.budget(10, 0), 10);
        assert_eq!(e.budget(10, 1), 40);
        assert_eq!(e.budget(10, 2), 160);
        assert_eq!(e.budget(usize::MAX, 3), usize::MAX);
        assert_eq!(e.budget(10, 200), usize::MAX);
        assert_eq!(Escalation::standard(), Escalation { retries: 2, factor: 4 });
    }
}
