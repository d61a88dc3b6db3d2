//! RHS-style interprocedural tabulation with counterexample extraction.
//!
//! The paper implements its forward analyses "as an instance of the RHS
//! tabulation framework" (its citation 19, Reps–Horwitz–Sagiv). This
//! module is the from-scratch equivalent:
//! facts are single abstract states (the analyses are disjunctive), path
//! edges are keyed by `(method, entry state)` — functional context
//! sensitivity — and summaries `(method, entry state) → exit states` are
//! reused across call sites. Recursion is handled by the fixpoint; no
//! inlining is required.
//!
//! Every propagated fact records a back-pointer (*reason*), so when a
//! query fails the engine reconstructs an interprocedurally valid,
//! flattened trace of atomic commands — exactly the abstract
//! counterexample trace the backward meta-analysis of Section 4 consumes.

use crate::traits::{call_binding_atoms, call_return_atom, ParametricAnalysis, TraceStep};
use pda_lang::{Atom, CallId, CallInfo, CallKind, MethodId, Node, NodeId, PointId, Program};
use pda_util::{fx_hash, Deadline, FxHashMap};
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

/// Resource limits for one tabulation run.
#[derive(Debug, Clone, Copy)]
pub struct RhsLimits {
    /// Maximum number of path-edge facts before giving up.
    pub max_facts: usize,
    /// Wall-clock deadline, polled cooperatively by the worklist loop.
    /// Defaults to [`Deadline::NEVER`].
    pub deadline: Deadline,
}

impl Default for RhsLimits {
    fn default() -> Self {
        RhsLimits { max_facts: 4_000_000, deadline: Deadline::NEVER }
    }
}

/// The tabulation exceeded its fact budget (the paper's timeout analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooBig {
    /// Facts created before giving up.
    pub facts: usize,
}

impl std::fmt::Display for TooBig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tabulation exceeded fact budget at {} facts", self.facts)
    }
}

impl std::error::Error for TooBig {}

/// Why a tabulation run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The fact budget was exhausted — a *deterministic* size limit.
    TooBig(TooBig),
    /// The wall-clock deadline in [`RhsLimits`] expired.
    DeadlineExceeded,
}

impl From<TooBig> for Interrupt {
    fn from(e: TooBig) -> Self {
        Interrupt::TooBig(e)
    }
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::TooBig(e) => e.fmt(f),
            Interrupt::DeadlineExceeded => write!(f, "tabulation hit its wall-clock deadline"),
        }
    }
}

impl std::error::Error for Interrupt {}

type Sid = u32;
/// A path edge `(method, context entry state, node, state)`; the same
/// shape also names a context's caller `(caller method, caller entry,
/// call node, pre-state)`.
type Fact = (MethodId, Sid, NodeId, Sid);

/// Why a fact was first derived: the back-pointer trace reconstruction
/// follows. The atoms an edge executed are not stored — they are a pure
/// function of the source node, the call's info and the callee, and
/// [`RhsResult::local_trace_rev`] rebuilds them on demand.
#[derive(Debug, Clone, Copy)]
enum Reason {
    Seed,
    /// A CFG edge out of `from_node` (see [`RhsResult::flow_steps`]).
    Flow { from_node: NodeId, from_state: Sid },
    /// A callee summary `callee_entry → callee_exit` applied at
    /// `call_node`, followed by the result copy, if any.
    Return {
        call_node: NodeId,
        caller_pre: Sid,
        callee: MethodId,
        callee_entry: Sid,
        callee_exit: Sid,
    },
}

/// Slot marker for an empty [`StateTable`] index slot.
const EMPTY: Sid = Sid::MAX;

/// Interned abstract states, each stored once: `states[sid]` is the state,
/// `hashes[sid]` its [`fx_hash`], and `slots` an open-addressing index of
/// sids (linear probing, at most half full) addressed by that hash. A
/// lookup compares the probed sid's hash and then `states[sid]` itself, so
/// no second copy of any state is kept as a map key.
struct StateTable<S> {
    states: Vec<S>,
    hashes: Vec<u64>,
    slots: Vec<Sid>,
}

impl<S: Eq + std::hash::Hash> StateTable<S> {
    fn new() -> Self {
        StateTable { states: Vec::new(), hashes: Vec::new(), slots: vec![EMPTY; 16] }
    }

    /// The home slot of `hash` in an index of `len` (a power of two)
    /// slots: the high bits of a Fibonacci-hashing product.
    fn home(hash: u64, len: usize) -> usize {
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - len.trailing_zeros())) as usize
    }

    fn intern(&mut self, s: S) -> Sid {
        let hash = fx_hash(&s);
        let mask = self.slots.len() - 1;
        let mut i = Self::home(hash, self.slots.len());
        loop {
            let sid = self.slots[i];
            if sid == EMPTY {
                break;
            }
            if self.hashes[sid as usize] == hash && self.states[sid as usize] == s {
                return sid;
            }
            i = (i + 1) & mask;
        }
        let id = self.states.len() as Sid;
        self.states.push(s);
        self.hashes.push(hash);
        self.slots[i] = id;
        if self.states.len() * 2 > self.slots.len() {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        let len = self.slots.len() * 2;
        let mut slots = vec![EMPTY; len];
        for (sid, &hash) in self.hashes.iter().enumerate() {
            let mut i = Self::home(hash, len);
            while slots[i] != EMPTY {
                i = (i + 1) & (len - 1);
            }
            slots[i] = sid as Sid;
        }
        self.slots = slots;
    }

    fn get(&self, id: Sid) -> &S {
        &self.states[id as usize]
    }
}

/// The result of one interprocedural forward run: path edges, summaries,
/// and back-pointers for trace reconstruction.
///
/// The `Debug` representation summarizes sizes rather than dumping the
/// full fact table.
pub struct RhsResult<'a, S> {
    program: &'a Program,
    /// Interned states by id (the run's lookup index is dropped).
    states: Vec<S>,
    reasons: FxHashMap<Fact, Reason>,
    /// First caller of each non-root context, recorded at context
    /// creation, hence acyclic: `(callee, entry) → (caller method, caller
    /// entry, call node, pre-state)`.
    ctx_parent: FxHashMap<(MethodId, Sid), Fact>,
    d0: Sid,
}

/// Runs the tabulation for the `p` instance of `analysis` from initial
/// state `d0` at `program.main`'s entry.
///
/// `callees` resolves call sites (normally
/// [`pda_analysis::PointsTo::callees`] wrapped in a closure).
///
/// # Errors
///
/// Returns [`Interrupt::TooBig`] if the fact budget in `limits` is
/// exhausted, or [`Interrupt::DeadlineExceeded`] if its wall-clock
/// deadline expires mid-run.
pub fn run<'a, A: ParametricAnalysis>(
    program: &'a Program,
    analysis: &A,
    p: &A::Param,
    d0: A::State,
    callees: &dyn Fn(CallId) -> Vec<MethodId>,
    limits: RhsLimits,
) -> Result<RhsResult<'a, A::State>, Interrupt> {
    let mut solver = Solver {
        program,
        analysis,
        p,
        callees,
        limits,
        states: StateTable::new(),
        reasons: FxHashMap::default(),
        worklist: Vec::new(),
        summaries: FxHashMap::default(),
        callers: FxHashMap::default(),
        ctx_parent: FxHashMap::default(),
    };
    let d0id = solver.states.intern(d0);
    let entry = program.methods[program.main].cfg.entry;
    solver.propagate((program.main, d0id, entry, d0id), Reason::Seed);
    solver.run()?;
    let (states, reasons, ctx_parent) = (solver.states.states, solver.reasons, solver.ctx_parent);
    Ok(RhsResult { program, states, reasons, ctx_parent, d0: d0id })
}

struct Solver<'a, A: ParametricAnalysis> {
    program: &'a Program,
    analysis: &'a A,
    p: &'a A::Param,
    callees: &'a dyn Fn(CallId) -> Vec<MethodId>,
    limits: RhsLimits,
    states: StateTable<A::State>,
    reasons: FxHashMap<Fact, Reason>,
    worklist: Vec<Fact>,
    /// `(method, entry) → exit states`.
    summaries: FxHashMap<(MethodId, Sid), BTreeSet<Sid>>,
    /// `(method, entry) → call sites waiting on its summaries`, each a
    /// caller [`Fact`].
    callers: FxHashMap<(MethodId, Sid), Vec<Fact>>,
    /// First caller per context (see [`RhsResult::ctx_parent`]).
    ctx_parent: FxHashMap<(MethodId, Sid), Fact>,
}

impl<'a, A: ParametricAnalysis> Solver<'a, A> {
    fn propagate(&mut self, fact: Fact, reason: Reason) {
        if let Entry::Vacant(slot) = self.reasons.entry(fact) {
            slot.insert(reason);
            self.worklist.push(fact);
        }
    }

    fn transfer(&mut self, a: &Atom, d: Sid) -> Sid {
        let out = self.analysis.transfer(self.p, a, self.states.get(d));
        self.states.intern(out)
    }

    fn run(&mut self) -> Result<(), Interrupt> {
        // Poll the wall clock every `DEADLINE_STRIDE` pops — including pop
        // zero, so an already-expired deadline aborts before any work and
        // a zero timeout behaves deterministically.
        const DEADLINE_STRIDE: u64 = 1024;
        let mut pops: u64 = 0;
        while let Some(fact) = self.worklist.pop() {
            if pops.is_multiple_of(DEADLINE_STRIDE) && self.limits.deadline.expired() {
                return Err(Interrupt::DeadlineExceeded);
            }
            pops += 1;
            if self.reasons.len() > self.limits.max_facts {
                return Err(TooBig { facts: self.reasons.len() }.into());
            }
            self.process(fact);
        }
        Ok(())
    }

    fn process(&mut self, fact: Fact) {
        let (m, de, n, d) = fact;
        let program: &'a Program = self.program;
        let node = &program.methods[m].cfg.nodes[n];
        let flow = Reason::Flow { from_node: n, from_state: d };
        match node.kind {
            Node::Entry => {
                for &succ in &node.succs {
                    self.propagate((m, de, succ, d), flow);
                }
            }
            Node::Atom(a, _) => {
                let d2 = self.transfer(&a, d);
                for &succ in &node.succs {
                    self.propagate((m, de, succ, d2), flow);
                }
            }
            Node::Exit => {
                if self.summaries.entry((m, de)).or_default().insert(d) {
                    // `apply_summary` never touches `callers`, so the list
                    // is lent out and put back instead of cloned.
                    if let Some(waiting) = self.callers.get_mut(&(m, de)) {
                        let waiting = std::mem::take(waiting);
                        for &caller in &waiting {
                            self.apply_summary(caller, m, de, d);
                        }
                        self.callers.insert((m, de), waiting);
                    }
                }
            }
            Node::Call(c) => self.process_call(fact, c, &node.succs),
        }
    }

    fn process_call(&mut self, fact: Fact, c: CallId, succs: &[NodeId]) {
        let (m, de, n, d) = fact;
        let program: &'a Program = self.program;
        let info = &program.calls[c];
        let d1 = match site_atom(info) {
            Some(a) => self.transfer(&a, d),
            None => d,
        };
        let targets = (self.callees)(c);
        let has_body = |t: MethodId| program.methods[t].body.is_some();

        // Bodyless targets (and unresolvable calls): havoc the result and
        // fall through directly.
        if targets.is_empty() || !targets.iter().all(|&t| has_body(t)) {
            let d2 = match info.dst {
                Some(dst) => self.transfer(&Atom::Havoc { dst }, d1),
                None => d1,
            };
            for &succ in succs {
                self.propagate((m, de, succ, d2), Reason::Flow { from_node: n, from_state: d });
            }
        }

        for callee in targets.into_iter().filter(|&t| has_body(t)) {
            let mut dentry = d1;
            for a in call_binding_atoms(program, info, callee) {
                dentry = self.transfer(&a, dentry);
            }
            let centry = program.methods[callee].cfg.entry;
            self.callers.entry((callee, dentry)).or_default().push(fact);
            self.ctx_parent.entry((callee, dentry)).or_insert(fact);
            self.propagate((callee, dentry, centry, dentry), Reason::Seed);
            // `apply_summary` never touches `summaries` either.
            if let Some(exits) = self.summaries.get_mut(&(callee, dentry)) {
                let exits = std::mem::take(exits);
                for &dexit in &exits {
                    self.apply_summary(fact, callee, dentry, dexit);
                }
                self.summaries.insert((callee, dentry), exits);
            }
        }
    }

    fn apply_summary(&mut self, caller: Fact, callee: MethodId, callee_entry: Sid, callee_exit: Sid) {
        let (m, de, n, d_pre) = caller;
        let program: &'a Program = self.program;
        let node = &program.methods[m].cfg.nodes[n];
        let Node::Call(c) = node.kind else {
            unreachable!("caller node must be a call");
        };
        let d3 = match call_return_atom(program, &program.calls[c], callee) {
            Some(a) => self.transfer(&a, callee_exit),
            None => callee_exit,
        };
        let reason = Reason::Return { call_node: n, caller_pre: d_pre, callee, callee_entry, callee_exit };
        for &succ in &node.succs {
            self.propagate((m, de, succ, d3), reason);
        }
    }
}

/// The atom executed at a call site itself, before any callee body: the
/// `Invoke` type-state transition for virtual calls.
fn site_atom(info: &CallInfo) -> Option<Atom> {
    match info.kind {
        CallKind::Virtual { recv, method } => Some(Atom::Invoke { recv, method }),
        CallKind::Static(_) => None,
    }
}

impl<S> std::fmt::Debug for RhsResult<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RhsResult")
            .field("facts", &self.reasons.len())
            .field("states", &self.states.len())
            .field("contexts", &(self.ctx_parent.len() + 1))
            .finish()
    }
}

impl<S: Clone + Eq + std::hash::Hash> RhsResult<'_, S> {
    /// Number of path-edge facts discovered (a size/effort proxy reported
    /// by the experiment harness).
    pub fn n_facts(&self) -> usize {
        self.reasons.len()
    }

    /// All abstract states arriving at `point` (over every context), in
    /// an order fixed by the run (the fact table's hasher is unseeded).
    pub fn states_at(&self, point: PointId) -> Vec<&S> {
        let info = &self.program.points[point];
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        for &(m, _, n, d) in self.reasons.keys() {
            if m == info.method && n == info.node && seen.insert(d) {
                out.push(&self.states[d as usize]);
            }
        }
        out
    }

    /// Reconstructs a whole-program trace ending just before `point` with
    /// an arriving state satisfying `pred`, or `None` if no such fact was
    /// discovered.
    ///
    /// The trace is rebuilt back to front into one buffer: the failing
    /// fact's local trace, then each context's entry steps and its
    /// caller's local trace up the `ctx_parent` chain to `main`, each
    /// pushed in reverse; one reversal at the end restores program order.
    pub fn witness(&self, point: PointId, pred: &dyn Fn(&S) -> bool) -> Option<Vec<TraceStep>> {
        let mut cur = self.arriving_fact(point, pred)?;
        let mut rev = Vec::new();
        loop {
            self.local_trace_rev(cur, &mut rev);
            let (m, de, _, _) = cur;
            if m == self.program.main && de == self.d0 {
                break;
            }
            // Follow the first registered caller; since a context's first
            // caller existed before the context did, this chain is acyclic.
            let caller = self.ctx_parent[&(m, de)];
            push_rev(&mut rev, self.enter_steps(caller.0, caller.2, m));
            cur = caller;
        }
        rev.reverse();
        Some(rev)
    }

    /// The initial state id (for diagnostics).
    pub fn initial(&self) -> &S {
        &self.states[self.d0 as usize]
    }

    /// The fact a witness ends in: of the facts arriving at `point` with
    /// a state satisfying `pred`, the least by (context entry, state).
    fn arriving_fact(&self, point: PointId, pred: &dyn Fn(&S) -> bool) -> Option<Fact> {
        let info = &self.program.points[point];
        self.reasons
            .keys()
            .filter(|&&(m, _, n, d)| {
                m == info.method && n == info.node && pred(&self.states[d as usize])
            })
            .min_by_key(|&&(_, de, _, d)| (de, d))
            .copied()
    }

    /// The call info of the call node `cnode` in method `cm`.
    fn call_at(&self, cm: MethodId, cnode: NodeId) -> &CallInfo {
        let Node::Call(c) = self.program.methods[cm].cfg.nodes[cnode].kind else {
            unreachable!("caller node must be a call");
        };
        &self.program.calls[c]
    }

    /// The call-site and binding steps for entering `callee` at the call
    /// node `cnode` of caller `cm`.
    fn enter_steps(
        &self,
        cm: MethodId,
        cnode: NodeId,
        callee: MethodId,
    ) -> impl Iterator<Item = TraceStep> + '_ {
        let info = self.call_at(cm, cnode);
        site_atom(info)
            .into_iter()
            .chain(call_binding_atoms(self.program, info, callee))
            .map(|atom| TraceStep { atom, point: info.point })
    }

    /// The steps a [`Reason::Flow`] edge out of `from_node` in method `m`
    /// executed, exactly as the tabulation applied them: none out of an
    /// entry, the node's atom, or — out of a call node, whose only flow
    /// edges are the bodyless fall-through — the call-site `Invoke` and
    /// the result havoc.
    fn flow_steps(&self, m: MethodId, from_node: NodeId) -> impl Iterator<Item = TraceStep> + '_ {
        let (first, second) = match self.program.methods[m].cfg.nodes[from_node].kind {
            Node::Entry | Node::Exit => (None, None),
            Node::Atom(atom, point) => (Some(TraceStep { atom, point }), None),
            Node::Call(_) => {
                let info = self.call_at(m, from_node);
                let step = |atom| TraceStep { atom, point: info.point };
                (site_atom(info).map(step), info.dst.map(|dst| step(Atom::Havoc { dst })))
            }
        };
        first.into_iter().chain(second)
    }

    /// Pushes the local trace within `fact`'s context, from the context
    /// entry, onto `out` in reverse: back-pointers are followed from
    /// `fact`, each edge's steps pushed last-first, and a summary edge
    /// pushes its result copy, the callee's local trace and the entry
    /// steps, in that order.
    fn local_trace_rev(&self, fact: Fact, out: &mut Vec<TraceStep>) {
        let (m, de, _, _) = fact;
        let entry = self.program.methods[m].cfg.entry;
        let mut cur = fact;
        loop {
            let (cm, cde, n, d) = cur;
            debug_assert_eq!((cm, cde), (m, de));
            if n == entry && d == de {
                break;
            }
            match *self.reasons.get(&cur).expect("fact without reason") {
                Reason::Seed => break,
                Reason::Flow { from_node, from_state } => {
                    push_rev(out, self.flow_steps(m, from_node));
                    cur = (m, de, from_node, from_state);
                }
                Reason::Return { call_node, caller_pre, callee, callee_entry, callee_exit } => {
                    let info = self.call_at(m, call_node);
                    if let Some(atom) = call_return_atom(self.program, info, callee) {
                        out.push(TraceStep { atom, point: info.point });
                    }
                    let cexit = self.program.methods[callee].cfg.exit;
                    self.local_trace_rev((callee, callee_entry, cexit, callee_exit), out);
                    push_rev(out, self.enter_steps(m, call_node, callee));
                    cur = (m, de, call_node, caller_pre);
                }
            }
        }
    }
}

/// The recursive reconstruction [`RhsResult::witness`] replaced, kept as
/// the oracle of its differential test (`witness_oracle`): the caller
/// chain's trace first, then the local trace, each segment a `Vec` of its
/// own, flattened on the way out.
#[cfg(test)]
impl<S: Clone + Eq + std::hash::Hash> RhsResult<'_, S> {
    fn witness_recursive(
        &self,
        point: PointId,
        pred: &dyn Fn(&S) -> bool,
    ) -> Option<Vec<TraceStep>> {
        Some(self.full_trace(self.arriving_fact(point, pred)?))
    }

    /// Full trace from program start to `fact`: the caller chain down to
    /// `main`, then the local trace.
    fn full_trace(&self, fact: Fact) -> Vec<TraceStep> {
        let (m, de, _, _) = fact;
        let mut prefix = Vec::new();
        if m != self.program.main || de != self.d0 {
            let (cm, cde, cnode, cpre) = self.ctx_parent[&(m, de)];
            prefix = self.full_trace((cm, cde, cnode, cpre));
            prefix.extend(self.enter_steps(cm, cnode, m));
        }
        prefix.extend(self.local_trace(fact));
        prefix
    }

    /// Local trace within `fact`'s context, from the context entry.
    fn local_trace(&self, fact: Fact) -> Vec<TraceStep> {
        let (m, de, _, _) = fact;
        let entry = self.program.methods[m].cfg.entry;
        let mut rev_segments: Vec<Vec<TraceStep>> = Vec::new();
        let mut cur = fact;
        loop {
            let (cm, cde, n, d) = cur;
            debug_assert_eq!((cm, cde), (m, de));
            if n == entry && d == de {
                break;
            }
            match *self.reasons.get(&cur).expect("fact without reason") {
                Reason::Seed => break,
                Reason::Flow { from_node, from_state } => {
                    rev_segments.push(self.flow_steps(m, from_node).collect());
                    cur = (m, de, from_node, from_state);
                }
                Reason::Return { call_node, caller_pre, callee, callee_entry, callee_exit } => {
                    let info = self.call_at(m, call_node);
                    rev_segments.push(
                        call_return_atom(self.program, info, callee)
                            .map(|atom| TraceStep { atom, point: info.point })
                            .into_iter()
                            .collect(),
                    );
                    let cexit = self.program.methods[callee].cfg.exit;
                    rev_segments.push(self.local_trace((callee, callee_entry, cexit, callee_exit)));
                    rev_segments.push(self.enter_steps(m, call_node, callee).collect());
                    cur = (m, de, call_node, caller_pre);
                }
            }
        }
        rev_segments.reverse();
        rev_segments.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod witness_oracle;

/// Appends `steps` to `out` in reverse order, without a buffer of its own.
fn push_rev(out: &mut Vec<TraceStep>, steps: impl Iterator<Item = TraceStep>) {
    let start = out.len();
    out.extend(steps);
    out[start..].reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_lang::{parse_program, VarId};
    use pda_analysis::PointsTo;
    use std::collections::BTreeSet;

    /// A toy analysis tracking which variables are definitely null.
    struct Nullness;

    impl ParametricAnalysis for Nullness {
        type Param = ();
        type State = BTreeSet<VarId>;
        fn transfer(&self, _p: &(), atom: &Atom, d: &Self::State) -> Self::State {
            let mut out = d.clone();
            match *atom {
                Atom::Null { dst } => {
                    out.insert(dst);
                }
                Atom::Copy { dst, src } => {
                    if out.contains(&src) {
                        out.insert(dst);
                    } else {
                        out.remove(&dst);
                    }
                }
                Atom::New { dst, .. } | Atom::Load { dst, .. } | Atom::GGet { dst, .. } | Atom::Havoc { dst } => {
                    out.remove(&dst);
                }
                _ => {}
            }
            out
        }
    }

    fn run_on(src: &str) -> (pda_lang::Program, PointsTo) {
        let p = parse_program(src).unwrap();
        let pa = PointsTo::analyze(&p);
        (p, pa)
    }

    fn states_at_query<'r>(
        res: &'r RhsResult<'_, BTreeSet<VarId>>,
        program: &pda_lang::Program,
        label: &str,
    ) -> Vec<&'r BTreeSet<VarId>> {
        let q = program.query_by_label(label).unwrap();
        res.states_at(program.queries[q].point)
    }

    #[test]
    fn straightline_flow() {
        let (p, pa) = run_on(
            r#"
            class C {}
            fn main() { var x, y; x = new C; y = x; query q: local y; }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let states = states_at_query(&res, &p, "q");
        assert_eq!(states.len(), 1);
        // x and y not null; $ret is null (entry init).
        let x = p.main_var("x").unwrap();
        let y = p.main_var("y").unwrap();
        assert!(!states[0].contains(&x) && !states[0].contains(&y));
    }

    #[test]
    fn branches_produce_both_states() {
        let (p, pa) = run_on(
            r#"
            class C {}
            fn main() {
                var x;
                if (*) { x = new C; } else { x = null; }
                query q: local x;
            }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let states = states_at_query(&res, &p, "q");
        let x = p.main_var("x").unwrap();
        let nullness: BTreeSet<bool> = states.iter().map(|s| s.contains(&x)).collect();
        assert_eq!(nullness, BTreeSet::from([false, true]));
    }

    #[test]
    fn flow_through_call_and_summary_reuse() {
        let (p, pa) = run_on(
            r#"
            class C {}
            fn id(a) { return a; }
            fn main() {
                var x, y, z;
                x = null;
                y = id(x);      // y null
                z = new C;
                z = id(z);      // z not null
                query q: local y;
            }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let states = states_at_query(&res, &p, "q");
        let y = p.main_var("y").unwrap();
        let z = p.main_var("z").unwrap();
        assert!(states.iter().all(|s| s.contains(&y)));
        assert!(states.iter().all(|s| !s.contains(&z)));
    }

    #[test]
    fn recursion_terminates() {
        let (p, pa) = run_on(
            r#"
            fn f(n) { if (*) { f(n); } }
            fn main() { var x; x = null; f(x); query q: local x; }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let states = states_at_query(&res, &p, "q");
        assert!(!states.is_empty());
        let x = p.main_var("x").unwrap();
        assert!(states.iter().all(|s| s.contains(&x)));
    }

    #[test]
    fn witness_replays_to_observed_state() {
        let (p, pa) = run_on(
            r#"
            class C {}
            fn mk() { var t; t = new C; return t; }
            fn main() {
                var x;
                x = null;
                while (*) { x = mk(); }
                query q: local x;
            }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let x = p.main_var("x").unwrap();
        let qpoint = p.queries[p.query_by_label("q").unwrap()].point;
        // Witness a state where x is NOT null (needs a loop iteration
        // through mk()).
        let tr = res
            .witness(qpoint, &|s: &BTreeSet<VarId>| !s.contains(&x))
            .expect("witness exists");
        // Replay the trace from the initial state; must end with x non-null.
        let a = Nullness;
        let mut d = BTreeSet::new();
        for step in &tr {
            d = a.transfer(&(), &step.atom, &d);
        }
        assert!(!d.contains(&x));
        // The trace goes through mk(): it contains a New and binding copies.
        assert!(tr.iter().any(|s| matches!(s.atom, Atom::New { .. })));
    }

    #[test]
    fn witness_none_for_impossible_state() {
        let (p, pa) = run_on(
            r#"
            fn main() { var x; x = null; query q: local x; }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let x = p.main_var("x").unwrap();
        let qpoint = p.queries[p.query_by_label("q").unwrap()].point;
        assert!(res.witness(qpoint, &|s: &BTreeSet<VarId>| !s.contains(&x)).is_none());
    }

    #[test]
    fn fact_budget_enforced() {
        let (p, pa) = run_on(
            r#"
            class C {}
            fn main() { var x, y; x = new C; y = x; query q: local y; }
            "#,
        );
        let limits = RhsLimits { max_facts: 2, ..RhsLimits::default() };
        let err = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), limits)
            .unwrap_err();
        let Interrupt::TooBig(too_big) = err else {
            panic!("expected TooBig, got {err:?}");
        };
        assert!(too_big.facts > 2);
    }

    #[test]
    fn expired_deadline_aborts_before_any_work() {
        let (p, pa) = run_on(
            r#"
            class C {}
            fn main() { var x, y; x = new C; y = x; query q: local y; }
            "#,
        );
        let limits = RhsLimits {
            deadline: pda_util::Deadline::after(std::time::Duration::ZERO),
            ..RhsLimits::default()
        };
        let err = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), limits)
            .unwrap_err();
        assert_eq!(err, Interrupt::DeadlineExceeded);
    }

    #[test]
    fn virtual_dispatch_enters_bodies_and_atomic_methods_havoc() {
        let (p, pa) = run_on(
            r#"
            class A { fn m(v) { return v; } }
            class F { fn get(); }
            fn main() {
                var a, f, r, x;
                a = new A;
                f = new F;
                x = null;
                r = a.m(x);     // body: r null
                query q1: local r;
                r = f.get();    // atomic: havoc, r not null
                query q2: local r;
            }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let r = p.main_var("r").unwrap();
        let s1 = states_at_query(&res, &p, "q1");
        assert!(s1.iter().all(|s| s.contains(&r)));
        let s2 = states_at_query(&res, &p, "q2");
        assert!(s2.iter().all(|s| !s.contains(&r)));
    }

    #[test]
    fn mutual_recursion_terminates_and_flows() {
        let (p, pa) = run_on(
            r#"
            fn even(n) { if (*) { odd(n); } }
            fn odd(n) { if (*) { even(n); } }
            fn main() { var x; x = null; even(x); query q: local x; }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let states = states_at_query(&res, &p, "q");
        assert!(!states.is_empty());
        let x = p.main_var("x").unwrap();
        assert!(states.iter().all(|s| s.contains(&x)));
    }

    #[test]
    fn multi_callee_dispatch_witnesses_one_target() {
        let (p, pa) = run_on(
            r#"
            class A { fn m(v) { return v; } }
            class B { fn m(v) { var t; t = null; return t; } }
            fn main() {
                var o, x, r;
                if (*) { o = new A; } else { o = new B; }
                x = new A;
                r = o.m(x);
                query q: local r;
            }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let r = p.main_var("r").unwrap();
        let qpoint = p.queries[p.query_by_label("q").unwrap()].point;
        // Both outcomes reachable: r null (via B) and r non-null (via A).
        let tr_null = res.witness(qpoint, &|s: &BTreeSet<VarId>| s.contains(&r)).unwrap();
        let tr_nonnull = res.witness(qpoint, &|s: &BTreeSet<VarId>| !s.contains(&r)).unwrap();
        for (tr, want_null) in [(tr_null, true), (tr_nonnull, false)] {
            let d = crate::traits::replay(&Nullness, &(), &tr, &BTreeSet::new());
            assert_eq!(d.contains(&r), want_null, "witness replay mismatch");
        }
    }

    #[test]
    fn states_at_unreached_point_is_empty() {
        let (p, pa) = run_on(
            r#"
            fn dead() { var y; y = null; query q: local y; }
            fn main() { var x; x = null; }
            "#,
        );
        let res = run(&p, &Nullness, &(), BTreeSet::new(), &|c| pa.callees(c).to_vec(), RhsLimits::default())
            .unwrap();
        let qpoint = p.queries[p.query_by_label("q").unwrap()].point;
        assert!(res.states_at(qpoint).is_empty());
        assert!(res.witness(qpoint, &|_s: &BTreeSet<VarId>| true).is_none());
    }
}

