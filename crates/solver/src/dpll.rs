//! DPLL with unit propagation and cost-pruning branch and bound.

use crate::cnf::Cnf;
use crate::PFormula;
use pda_util::{Counter, Deadline, DeadlineExceeded, ObsRegistry, Span, SpanKind};

/// A satisfying assignment together with its cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Truth value per original atom.
    pub assignment: Vec<bool>,
    /// Total cost of the atoms set to true.
    pub cost: u64,
}

/// Finds minimum-cost models of a conjunction of [`PFormula`] constraints.
///
/// Atom `i` set to true contributes `costs[i]`; false atoms are free. The
/// search is complete: [`MinCostSolver::solve`] returns a model of
/// globally minimal cost, or `None` when the constraints are
/// unsatisfiable (TRACER's *impossibility* outcome).
///
/// Among equal-cost minima the solver returns the **canonical** model:
/// the lexicographically least assignment under `Vec<bool>` order (atom 0
/// most significant, `false < true`). The rule is engine-independent —
/// the production [`crate::Bdd`]'s lo-edge-preferring extraction produces
/// the same model — which is what lets this search serve as the BDD's
/// reference oracle on chosen optima, not just on costs.
///
/// # Examples
///
/// ```
/// use pda_solver::{MinCostSolver, PFormula};
/// let mut s = MinCostSolver::new(2, vec![5, 1]);
/// s.require(PFormula::or(vec![PFormula::lit(0, true), PFormula::lit(1, true)]));
/// assert_eq!(s.solve().unwrap().assignment, vec![false, true]);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostSolver {
    n_atoms: usize,
    costs: Vec<u64>,
    constraints: Vec<PFormula>,
}

impl MinCostSolver {
    /// Creates a solver over `n_atoms` atoms with the given true-costs.
    ///
    /// # Panics
    ///
    /// Panics if `costs.len() != n_atoms`.
    pub fn new(n_atoms: usize, costs: Vec<u64>) -> MinCostSolver {
        assert_eq!(costs.len(), n_atoms, "one cost per atom required");
        MinCostSolver { n_atoms, costs, constraints: Vec::new() }
    }

    /// Uniform cost 1 per atom (the paper's `|p|` cost preorders).
    pub fn with_unit_costs(n_atoms: usize) -> MinCostSolver {
        MinCostSolver::new(n_atoms, vec![1; n_atoms])
    }

    /// Adds a hard constraint.
    pub fn require(&mut self, f: PFormula) {
        self.constraints.push(f);
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[PFormula] {
        &self.constraints
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Finds a minimum-cost model, or `None` if unsatisfiable.
    pub fn solve(&self) -> Option<Model> {
        match self.solve_within(Deadline::NEVER) {
            Ok(m) => m,
            Err(DeadlineExceeded) => unreachable!("NEVER deadline cannot expire"),
        }
    }

    /// Like [`MinCostSolver::solve`], but polls `deadline` between search
    /// nodes and aborts cooperatively once it expires.
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] if the deadline passes mid-search (a
    /// model found earlier in the search is discarded: it may not be the
    /// minimum, and TRACER needs minimality for Theorem 2).
    pub fn solve_within(&self, deadline: Deadline) -> Result<Option<Model>, DeadlineExceeded> {
        self.solve_within_observed(deadline, &mut ObsRegistry::default())
    }

    /// Like [`MinCostSolver::solve_within`], but records the search effort
    /// into `obs`: explored nodes go to [`Counter::SolverNodes`] and the
    /// whole solve is wrapped in a [`SpanKind::Solver`] span (timed only
    /// when the registry is).
    ///
    /// # Errors
    ///
    /// Returns [`DeadlineExceeded`] under exactly the conditions of
    /// [`MinCostSolver::solve_within`].
    pub fn solve_within_observed(
        &self,
        deadline: Deadline,
        obs: &mut ObsRegistry,
    ) -> Result<Option<Model>, DeadlineExceeded> {
        let span = Span::enter(obs, SpanKind::Solver);
        let result = self.solve_inner(deadline, obs);
        span.exit(obs);
        result
    }

    fn solve_inner(
        &self,
        deadline: Deadline,
        obs: &mut ObsRegistry,
    ) -> Result<Option<Model>, DeadlineExceeded> {
        let mut cnf = Cnf::new(self.n_atoms);
        for c in &self.constraints {
            cnf.require(c);
        }
        if cnf.clauses.iter().any(|c| c.is_empty()) {
            return Ok(None);
        }
        let mut search = Search {
            n_atoms: self.n_atoms,
            costs: &self.costs,
            clauses: &cnf.clauses,
            assign: vec![None; cnf.n_vars],
            trail: Vec::new(),
            cost: 0,
            best: None,
            deadline,
            nodes: 0,
            aborted: false,
        };
        search.dfs();
        let best = match search.best.take() {
            None => None,
            Some((cost, witness)) if !search.aborted => {
                Some(Model { assignment: search.canonicalize(cost, witness), cost })
            }
            Some(_) => None,
        };
        obs.add(Counter::SolverNodes, search.nodes);
        if search.aborted {
            return Err(DeadlineExceeded);
        }
        Ok(best)
    }

    /// Exhaustive reference solver (exponential); used to validate
    /// [`MinCostSolver::solve`] in tests. Applies the same canonical
    /// tie-break as the search: cheapest first, lexicographically least
    /// assignment among equal-cost minima.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 20 atoms.
    pub fn solve_brute(&self) -> Option<Model> {
        assert!(self.n_atoms <= 20, "brute force limited to 20 atoms");
        let mut best: Option<Model> = None;
        for bits in 0..(1u64 << self.n_atoms) {
            let assignment: Vec<bool> = (0..self.n_atoms).map(|i| (bits >> i) & 1 == 1).collect();
            if self.constraints.iter().all(|c| c.eval(&assignment)) {
                let cost = assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b)
                    .map(|(i, _)| self.costs[i])
                    .sum();
                if best.as_ref().is_none_or(|b| {
                    cost < b.cost || (cost == b.cost && assignment < b.assignment)
                }) {
                    best = Some(Model { assignment, cost });
                }
            }
        }
        best
    }
}

/// Poll the wall clock every this many search nodes — including the root,
/// so an already-expired deadline aborts without exploring.
const DEADLINE_STRIDE: u64 = 512;

struct Search<'a> {
    n_atoms: usize,
    costs: &'a [u64],
    clauses: &'a [Vec<crate::cnf::Lit>],
    assign: Vec<Option<bool>>,
    trail: Vec<usize>,
    cost: u64,
    best: Option<(u64, Vec<bool>)>,
    deadline: Deadline,
    nodes: u64,
    aborted: bool,
}

impl Search<'_> {
    fn set(&mut self, var: usize, value: bool) {
        debug_assert!(self.assign[var].is_none());
        self.assign[var] = Some(value);
        self.trail.push(var);
        if value && var < self.n_atoms {
            self.cost += self.costs[var];
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let var = self.trail.pop().unwrap();
            if self.assign[var] == Some(true) && var < self.n_atoms {
                self.cost -= self.costs[var];
            }
            self.assign[var] = None;
        }
    }

    /// Admissible lower bound on the cost of any completion: the current
    /// cost plus, for a greedily-chosen set of *variable-disjoint*
    /// unsatisfied clauses whose only unassigned literals are positive
    /// cost-bearing ones, the cheapest literal of each. Such clauses each
    /// force at least one distinct true assignment.
    fn lower_bound(&self) -> u64 {
        let mut lb = self.cost;
        let mut used = vec![false; self.assign.len()];
        'clauses: for clause in self.clauses {
            let mut cheapest: Option<u64> = None;
            for l in clause {
                match self.assign[l.var] {
                    Some(v) if v == l.pos => continue 'clauses, // satisfied
                    Some(_) => {}
                    None => {
                        if !l.pos || l.var >= self.n_atoms || used[l.var] {
                            continue 'clauses; // free/overlapping way out
                        }
                        let c = self.costs[l.var];
                        cheapest = Some(cheapest.map_or(c, |b: u64| b.min(c)));
                    }
                }
            }
            if let Some(c) = cheapest {
                for l in clause {
                    if self.assign[l.var].is_none() {
                        used[l.var] = true;
                    }
                }
                lb += c;
            }
        }
        lb
    }

    /// Runs unit propagation to fixpoint. Returns `false` on conflict.
    fn propagate(&mut self) -> bool {
        loop {
            let mut changed = false;
            for clause in self.clauses {
                let mut satisfied = false;
                let mut unassigned = None;
                let mut n_unassigned = 0;
                for l in clause {
                    match self.assign[l.var] {
                        Some(v) if v == l.pos => {
                            satisfied = true;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            n_unassigned += 1;
                            unassigned = Some(*l);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return false,
                    1 => {
                        let l = unassigned.unwrap();
                        self.set(l.var, l.pos);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// Picks the branching variable: an unassigned variable of an
    /// unsatisfied clause; `None` when every clause is satisfied.
    fn pick(&self) -> Option<usize> {
        for clause in self.clauses {
            let satisfied = clause
                .iter()
                .any(|l| self.assign[l.var] == Some(l.pos));
            if satisfied {
                continue;
            }
            for l in clause {
                if self.assign[l.var].is_none() {
                    return Some(l.var);
                }
            }
        }
        None
    }

    fn record_model(&mut self) {
        // Strictly cheaper only — the canonical lex tie-break among
        // equal-cost minima is applied by the second (canonicalization)
        // phase, never inside the branch and bound, whose `>=` pruning
        // would otherwise have to enumerate every tied model.
        if self.best.as_ref().is_none_or(|(c, _)| self.cost < *c) {
            let assignment =
                (0..self.n_atoms).map(|i| self.assign[i] == Some(true)).collect();
            self.best = Some((self.cost, assignment));
        }
    }

    /// Canonicalization phase: turns any minimum-cost `witness` (cost
    /// `cost`) into the lexicographically least model of the same cost.
    ///
    /// Walks atoms in ascending order keeping a working model. An atom the
    /// working model already sets false is lex-minimal as-is; for each
    /// atom it sets true, one *decision* query asks whether some model of
    /// cost ≤ `cost` extends the false-flipped prefix — if so that model
    /// becomes the working model. Decision queries stop at their first
    /// hit, so tied models are never enumerated (the trap a lex tie-break
    /// inside the branch and bound itself would fall into).
    ///
    /// On deadline abort the witness is returned unchanged; the caller
    /// checks `aborted` and discards it.
    fn canonicalize(&mut self, cost: u64, witness: Vec<bool>) -> Vec<bool> {
        let mut model = witness;
        for i in 0..self.n_atoms {
            if self.aborted {
                break;
            }
            if !model[i] {
                continue;
            }
            debug_assert!(self.trail.is_empty());
            let mark = self.trail.len();
            let mut conflict = false;
            for (j, &v) in model.iter().enumerate().take(i + 1) {
                let v = if j == i { false } else { v };
                match self.assign[j] {
                    None => self.set(j, v),
                    Some(prev) if prev != v => {
                        conflict = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            if !conflict {
                if let Some(found) = self.first_within(cost) {
                    debug_assert!(!found[i]);
                    model = found;
                }
            }
            self.undo_to(mark);
        }
        model
    }

    /// Decision search under the current assumptions: the first completion
    /// (false-completed over the original atoms) whose cost is within
    /// `cap`, or `None`. Returns on the first hit.
    fn first_within(&mut self, cap: u64) -> Option<Vec<bool>> {
        if self.aborted {
            return None;
        }
        if self.nodes.is_multiple_of(DEADLINE_STRIDE) && self.deadline.expired() {
            self.aborted = true;
            return None;
        }
        self.nodes += 1;
        let mark = self.trail.len();
        if !self.propagate() || self.lower_bound() > cap {
            self.undo_to(mark);
            return None;
        }
        let result = match self.pick() {
            None => {
                Some((0..self.n_atoms).map(|i| self.assign[i] == Some(true)).collect())
            }
            Some(var) => {
                let mut found = None;
                for value in [false, true] {
                    let inner = self.trail.len();
                    self.set(var, value);
                    found = self.first_within(cap);
                    self.undo_to(inner);
                    if found.is_some() {
                        break;
                    }
                }
                found
            }
        };
        self.undo_to(mark);
        result
    }

    fn dfs(&mut self) {
        if self.aborted {
            return;
        }
        if self.nodes.is_multiple_of(DEADLINE_STRIDE) && self.deadline.expired() {
            self.aborted = true;
            return;
        }
        self.nodes += 1;
        let mark = self.trail.len();
        if !self.propagate() {
            self.undo_to(mark);
            return;
        }
        if self.best.as_ref().is_some_and(|(c, _)| self.lower_bound() >= *c) {
            self.undo_to(mark);
            return;
        }
        match self.pick() {
            None => {
                // All clauses satisfied; unassigned atoms default to false
                // (zero cost), which can only help.
                self.record_model();
                self.undo_to(mark);
            }
            Some(var) => {
                for value in [false, true] {
                    let inner = self.trail.len();
                    self.set(var, value);
                    self.dfs();
                    self.undo_to(inner);
                }
                self.undo_to(mark);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_util::SplitMix64;

    #[test]
    fn empty_constraints_give_all_false() {
        let s = MinCostSolver::with_unit_costs(4);
        let m = s.solve().unwrap();
        assert_eq!(m.cost, 0);
        assert_eq!(m.assignment, vec![false; 4]);
    }

    #[test]
    fn unsat_detected() {
        let mut s = MinCostSolver::with_unit_costs(1);
        s.require(PFormula::lit(0, true));
        s.require(PFormula::lit(0, false));
        assert_eq!(s.solve(), None);
    }

    #[test]
    fn picks_cheapest_of_alternatives() {
        let mut s = MinCostSolver::new(3, vec![10, 3, 4]);
        s.require(PFormula::or(vec![
            PFormula::lit(0, true),
            PFormula::and(vec![PFormula::lit(1, true), PFormula::lit(2, true)]),
        ]));
        let m = s.solve().unwrap();
        assert_eq!(m.cost, 7);
        assert_eq!(m.assignment, vec![false, true, true]);
    }

    #[test]
    fn negated_compound_constraint() {
        // ¬(x0 ∧ ¬x1): forbids x0 without x1.
        let mut s = MinCostSolver::with_unit_costs(2);
        s.require(PFormula::not(PFormula::and(vec![
            PFormula::lit(0, true),
            PFormula::lit(1, false),
        ])));
        s.require(PFormula::lit(0, true));
        let m = s.solve().unwrap();
        assert_eq!(m.assignment, vec![true, true]);
    }

    #[test]
    fn observed_solve_counts_nodes_and_spans() {
        let mut s = MinCostSolver::with_unit_costs(3);
        s.require(PFormula::or(vec![PFormula::lit(0, true), PFormula::lit(1, true)]));
        let mut obs = ObsRegistry::default();
        let m = s.solve_within_observed(Deadline::NEVER, &mut obs).unwrap().unwrap();
        assert_eq!(m, s.solve().unwrap());
        assert!(obs.get(Counter::SolverNodes) > 0);
        assert_eq!(obs.span_stats(SpanKind::Solver).count, 1);
    }

    #[test]
    fn expired_deadline_aborts_search() {
        let mut s = MinCostSolver::with_unit_costs(8);
        s.require(PFormula::or(vec![PFormula::lit(0, true), PFormula::lit(1, true)]));
        let expired = Deadline::after(std::time::Duration::ZERO);
        assert_eq!(s.solve_within(expired), Err(DeadlineExceeded));
        // A live deadline behaves exactly like `solve`.
        let live = Deadline::timeout(Some(std::time::Duration::from_secs(3600)));
        assert_eq!(s.solve_within(live).unwrap(), s.solve());
    }

    /// A random formula over `n_atoms` atoms, depth-bounded. Literal,
    /// `True`, and `False` leaves; `And`/`Or`/`Not` interior nodes.
    fn random_formula(rng: &mut SplitMix64, n_atoms: usize, depth: u32) -> PFormula {
        if depth == 0 || rng.gen_bool(0.3) {
            return match rng.gen_range(0, 6) {
                0 => PFormula::True,
                1 => PFormula::False,
                _ => PFormula::lit(rng.gen_range(0, n_atoms), rng.gen_bool(0.5)),
            };
        }
        match rng.gen_range(0, 3) {
            0 => PFormula::And(
                (0..rng.gen_range(1, 4))
                    .map(|_| random_formula(rng, n_atoms, depth - 1))
                    .collect(),
            ),
            1 => PFormula::Or(
                (0..rng.gen_range(1, 4))
                    .map(|_| random_formula(rng, n_atoms, depth - 1))
                    .collect(),
            ),
            _ => PFormula::Not(Box::new(random_formula(rng, n_atoms, depth - 1))),
        }
    }

    /// Randomized oracle: the DPLL branch-and-bound agrees with exhaustive
    /// enumeration on satisfiability and on minimum cost, for random
    /// constraint sets over up to 12 atoms. Fixed seed — the run is
    /// deterministic and needs no external property-testing framework.
    #[test]
    fn solve_matches_brute_force() {
        let mut rng = SplitMix64::new(0x5eed_cafe);
        for case in 0..300 {
            let n_atoms = rng.gen_range_inclusive(1, 12);
            let costs: Vec<u64> = (0..n_atoms).map(|_| rng.gen_range(1, 6) as u64).collect();
            let mut s = MinCostSolver::new(n_atoms, costs);
            for _ in 0..rng.gen_range(0, 4) {
                s.require(random_formula(&mut rng, n_atoms, 3));
            }
            let fast = s.solve();
            let brute = s.solve_brute();
            match (fast, brute) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    // Canonical tie-break: the *exact* model must agree,
                    // not just the cost.
                    assert_eq!(a, b, "case {case}: model mismatch");
                    // The returned model must actually satisfy everything.
                    assert!(
                        s.constraints().iter().all(|c| c.eval(&a.assignment)),
                        "case {case}: model violates a constraint"
                    );
                }
                (a, b) => panic!("case {case}: disagree: fast={a:?} brute={b:?}"),
            }
        }
    }
}
