//! Reduced ordered BDD over parameter atoms with min-cost model extraction.
//!
//! The viable set `⋀ᵢ ¬φᵢ` only ever *shrinks* (the CEGAR loop conjoins a
//! new unviability constraint per iteration), which makes it a natural fit
//! for a resident ROBDD: [`Bdd::conjoin`] folds the next constraint into
//! the existing graph, "impossible" becomes a constant-time root check
//! ([`Bdd::is_false`]), and the minimum-cost model is re-extracted by a
//! weighted shortest-path sweep over the node arena instead of a fresh
//! CNF + branch-and-bound search.
//!
//! Variables are ordered by their dense atom index — the same u32
//! primitive ids the interner hands out — so BDD paths visit atoms in
//! ascending order. The arena is hash-consed and append-only: node ids are
//! never freed or reused, so the apply/restrict caches stay valid across
//! conjoins for the lifetime of the [`Bdd`]; only the cached cost sweep is
//! invalidated when the root moves.
//!
//! Among equal-cost minima [`Bdd::solve`] returns the **canonical** model:
//! the lexicographically least assignment under `Vec<bool>` order (atom 0
//! most significant, `false < true`). Because paths visit atoms in
//! ascending order, preferring the `lo` (false) edge on cost ties and
//! defaulting reduced-out atoms to false is exactly that rule — the same
//! one [`crate::MinCostSolver`] implements, which is what lets that DPLL
//! search serve as this engine's reference oracle, down to the model.

use crate::dpll::Model;
use crate::PFormula;
use pda_util::fault_point;
use std::collections::HashMap;

/// The ⊥ terminal: no satisfying assignment below this point.
const FALSE: u32 = 0;
/// The ⊤ terminal: every assignment below this point satisfies.
const TRUE: u32 = 1;
/// Sentinel variable index for terminals — orders after every real atom.
const TERM_VAR: u32 = u32::MAX;

/// Cost-sweep infinity: the ⊥ terminal is unreachable at any cost.
const INF: u64 = u64::MAX;

/// Apply-cache operation tags.
const OP_AND: u8 = 0;
const OP_OR: u8 = 1;
const OP_NOT: u8 = 2;
const OP_RESTRICT_F: u8 = 3;
const OP_RESTRICT_T: u8 = 4;

/// One decision node: branch on `var`, false edge `lo`, true edge `hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: u32,
    lo: u32,
    hi: u32,
}

/// A reduced ordered BDD holding the current viable-set formula.
///
/// Created once per query via [`Bdd::new`] (root = ⊤, the unconstrained
/// viable set), then narrowed one [`Bdd::conjoin`] at a time. The arena,
/// unique table, and operation caches persist across conjoins; dropping
/// the whole struct is the only deallocation.
#[derive(Debug, Clone)]
pub struct Bdd {
    n_vars: usize,
    costs: Vec<u64>,
    nodes: Vec<Node>,
    unique: HashMap<(u32, u32, u32), u32>,
    cache: HashMap<(u8, u32, u32), u32>,
    root: u32,
    /// Min completion cost per node, or `None` after a root change.
    sweep: Option<Vec<u64>>,
}

impl Bdd {
    /// An unconstrained BDD (root ⊤) over `n_vars` atoms with per-atom
    /// true-assignment costs.
    ///
    /// # Panics
    ///
    /// Panics if `costs.len() != n_vars`.
    pub fn new(n_vars: usize, costs: Vec<u64>) -> Bdd {
        assert_eq!(costs.len(), n_vars, "one cost per atom");
        let terminals = vec![
            Node { var: TERM_VAR, lo: FALSE, hi: FALSE },
            Node { var: TERM_VAR, lo: TRUE, hi: TRUE },
        ];
        Bdd {
            n_vars,
            costs,
            nodes: terminals,
            unique: HashMap::new(),
            cache: HashMap::new(),
            root: TRUE,
            sweep: Some(vec![INF, 0]),
        }
    }

    /// Number of atoms in the universe.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Total nodes in the arena, terminals included. Monotone — the arena
    /// is append-only, so this also bounds live reachable nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Deterministic size estimate for the per-query memory cap:
    /// arena + unique table + apply cache + cached sweep, counted as
    /// entries × entry size. Same convention as the interner's
    /// `approx_bytes` — an accounting figure, not allocator truth.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let arena = self.nodes.len().saturating_mul(size_of::<Node>());
        let unique = self
            .unique
            .len()
            .saturating_mul(size_of::<((u32, u32, u32), u32)>());
        let cache = self
            .cache
            .len()
            .saturating_mul(size_of::<((u8, u32, u32), u32)>());
        let sweep = self
            .sweep
            .as_ref()
            .map_or(0, |s| s.len().saturating_mul(size_of::<u64>()));
        arena
            .saturating_add(unique)
            .saturating_add(cache)
            .saturating_add(sweep)
    }

    /// True iff the conjoined constraints are unsatisfiable — the paper's
    /// *impossibility* verdict. Constant time: the root is ⊥.
    pub fn is_false(&self) -> bool {
        self.root == FALSE
    }

    /// Conjoins `f` into the resident formula and invalidates the cached
    /// cost sweep. The arena and operation caches are retained.
    pub fn conjoin(&mut self, f: &PFormula) {
        fault_point("bdd.conjoin");
        let g = self.build(f);
        self.root = self.and(self.root, g);
        self.sweep = None;
    }

    /// Replaces the formula with its restriction `f[var := val]`.
    pub fn restrict_var(&mut self, var: usize, val: bool) {
        self.root = self.restrict(self.root, var as u32, val);
        self.sweep = None;
    }

    /// Replaces the formula with `∃var. f` — true where either
    /// restriction is.
    pub fn exists_var(&mut self, var: usize) {
        let f = self.restrict(self.root, var as u32, false);
        let t = self.restrict(self.root, var as u32, true);
        self.root = self.or(f, t);
        self.sweep = None;
    }

    /// Evaluates the resident formula under a total assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        let mut cur = self.root;
        while cur > TRUE {
            let n = self.nodes[cur as usize];
            cur = if assignment[n.var as usize] { n.hi } else { n.lo };
        }
        cur == TRUE
    }

    /// Minimum-cost satisfying assignment, or `None` when impossible.
    ///
    /// Bottom-up sweep (cached until the next [`Bdd::conjoin`]): each
    /// node's min completion cost is `min(lo, hi + cost[var])`; the model
    /// is read back top-down preferring the `lo` edge on ties, with
    /// reduced-out atoms false — the canonical tie-break.
    pub fn solve(&mut self) -> Option<Model> {
        fault_point("bdd.mincost");
        if self.is_false() {
            return None;
        }
        let sweep = self.sweep.get_or_insert_with(|| {
            // Children are created before parents, so index order is a
            // valid bottom-up order over the whole arena.
            let mut memo = vec![0u64; self.nodes.len()];
            memo[FALSE as usize] = INF;
            for (i, n) in self.nodes.iter().enumerate().skip(2) {
                let via_hi = memo[n.hi as usize].saturating_add(self.costs[n.var as usize]);
                memo[i] = memo[n.lo as usize].min(via_hi);
            }
            memo
        });
        let mut assignment = vec![false; self.n_vars];
        let cost = sweep[self.root as usize];
        debug_assert_ne!(cost, INF, "non-⊥ root must reach ⊤");
        let mut cur = self.root;
        while cur > TRUE {
            let n = self.nodes[cur as usize];
            let via_hi = sweep[n.hi as usize].saturating_add(self.costs[n.var as usize]);
            if sweep[n.lo as usize] <= via_hi {
                cur = n.lo;
            } else {
                assignment[n.var as usize] = true;
                cur = n.hi;
            }
        }
        Some(Model { assignment, cost })
    }

    /// Verifies the reduced-form invariants over the whole arena: ordered
    /// children (`var` strictly increases downward), no redundant tests
    /// (`lo != hi`), and no duplicate `(var, lo, hi)` triples.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_reduced(&self) -> Result<(), String> {
        let mut seen = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            if n.lo == n.hi {
                return Err(format!("node {i} is a redundant test on var {}", n.var));
            }
            for child in [n.lo, n.hi] {
                if child as usize >= i {
                    return Err(format!("node {i} points forward to {child}"));
                }
                let cv = self.nodes[child as usize].var;
                if cv <= n.var {
                    return Err(format!(
                        "node {i} (var {}) has child {child} with var {cv} out of order",
                        n.var
                    ));
                }
            }
            if let Some(prev) = seen.insert((n.var, n.lo, n.hi), i) {
                return Err(format!("nodes {prev} and {i} duplicate ({}, {}, {})", n.var, n.lo, n.hi));
            }
        }
        Ok(())
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        if let Some(&id) = self.unique.get(&(var, lo, hi)) {
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("BDD arena overflow");
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        id
    }

    fn build(&mut self, f: &PFormula) -> u32 {
        match f {
            PFormula::True => TRUE,
            PFormula::False => FALSE,
            PFormula::Lit { atom, pos } => {
                let var = u32::try_from(*atom).expect("atom id fits u32");
                if *pos {
                    self.mk(var, FALSE, TRUE)
                } else {
                    self.mk(var, TRUE, FALSE)
                }
            }
            PFormula::Not(inner) => {
                let g = self.build(inner);
                self.not(g)
            }
            PFormula::And(parts) => {
                let mut acc = TRUE;
                for p in parts {
                    if acc == FALSE {
                        break;
                    }
                    let g = self.build(p);
                    acc = self.and(acc, g);
                }
                acc
            }
            PFormula::Or(parts) => {
                let mut acc = FALSE;
                for p in parts {
                    if acc == TRUE {
                        break;
                    }
                    let g = self.build(p);
                    acc = self.or(acc, g);
                }
                acc
            }
        }
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        if a == FALSE || b == FALSE {
            return FALSE;
        }
        if a == TRUE {
            return b;
        }
        if b == TRUE || a == b {
            return a;
        }
        let key = (OP_AND, a.min(b), a.max(b));
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let r = self.apply_branch(a, b, OP_AND);
        self.cache.insert(key, r);
        r
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        if a == TRUE || b == TRUE {
            return TRUE;
        }
        if a == FALSE {
            return b;
        }
        if b == FALSE || a == b {
            return a;
        }
        let key = (OP_OR, a.min(b), a.max(b));
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let r = self.apply_branch(a, b, OP_OR);
        self.cache.insert(key, r);
        r
    }

    /// Shannon expansion step shared by `and`/`or`: branch on the smaller
    /// top variable, recurse on cofactors.
    fn apply_branch(&mut self, a: u32, b: u32, op: u8) -> u32 {
        let na = self.nodes[a as usize];
        let nb = self.nodes[b as usize];
        let var = na.var.min(nb.var);
        let (alo, ahi) = if na.var == var { (na.lo, na.hi) } else { (a, a) };
        let (blo, bhi) = if nb.var == var { (nb.lo, nb.hi) } else { (b, b) };
        let (lo, hi) = if op == OP_AND {
            (self.and(alo, blo), self.and(ahi, bhi))
        } else {
            (self.or(alo, blo), self.or(ahi, bhi))
        };
        self.mk(var, lo, hi)
    }

    fn not(&mut self, a: u32) -> u32 {
        if a == FALSE {
            return TRUE;
        }
        if a == TRUE {
            return FALSE;
        }
        let key = (OP_NOT, a, 0);
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let n = self.nodes[a as usize];
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.cache.insert(key, r);
        r
    }

    fn restrict(&mut self, a: u32, var: u32, val: bool) -> u32 {
        if a <= TRUE {
            return a;
        }
        let n = self.nodes[a as usize];
        if n.var > var {
            // Ordered: `var` cannot appear below here.
            return a;
        }
        if n.var == var {
            return if val { n.hi } else { n.lo };
        }
        let op = if val { OP_RESTRICT_T } else { OP_RESTRICT_F };
        let key = (op, a, var);
        if let Some(&r) = self.cache.get(&key) {
            return r;
        }
        let lo = self.restrict(n.lo, var, val);
        let hi = self.restrict(n.hi, var, val);
        let r = self.mk(n.var, lo, hi);
        self.cache.insert(key, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinCostSolver;
    use pda_util::SplitMix64;

    /// Same shape as the DPLL module's generator: literal/constant leaves,
    /// `And`/`Or`/`Not` interior nodes, depth-bounded.
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

    /// Every assignment over `n` atoms, in lexicographic `Vec<bool>`
    /// order (atom 0 most significant, false before true).
    fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1u32 << n).map(move |bits| (0..n).map(|i| bits >> (n - 1 - i) & 1 == 1).collect())
    }

    /// Exhaustive min-cost oracle with the canonical tie-break: the
    /// lexicographically least among equal-cost minima.
    fn brute_min_cost(fs: &[PFormula], n: usize, costs: &[u64]) -> Option<Model> {
        let mut best: Option<Model> = None;
        for a in assignments(n) {
            if !fs.iter().all(|f| f.eval(&a)) {
                continue;
            }
            let cost: u64 = (0..n).filter(|&i| a[i]).map(|i| costs[i]).sum();
            if best.as_ref().is_none_or(|b| cost < b.cost) {
                best = Some(Model { assignment: a, cost });
            }
        }
        best
    }

    #[test]
    fn build_and_conjoin_match_truth_tables() {
        let mut rng = SplitMix64::new(0xbdd_0001);
        for case in 0..120 {
            let n = rng.gen_range_inclusive(1, 8);
            let mut bdd = Bdd::new(n, vec![1; n]);
            let mut fs = Vec::new();
            for _ in 0..rng.gen_range_inclusive(1, 4) {
                let f = random_formula(&mut rng, n, 3);
                bdd.conjoin(&f);
                fs.push(f);
                bdd.check_reduced().unwrap_or_else(|e| panic!("case {case}: {e}"));
                for a in assignments(n) {
                    assert_eq!(
                        bdd.eval(&a),
                        fs.iter().all(|f| f.eval(&a)),
                        "case {case}: eval mismatch at {a:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn restrict_and_exists_match_semantics() {
        let mut rng = SplitMix64::new(0xbdd_0002);
        for case in 0..150 {
            let n = rng.gen_range_inclusive(2, 8);
            let f = random_formula(&mut rng, n, 3);
            let var = rng.gen_range(0, n);
            let val = rng.gen_bool(0.5);

            let mut base = Bdd::new(n, vec![1; n]);
            base.conjoin(&f);

            let mut restricted = base.clone();
            restricted.restrict_var(var, val);
            restricted
                .check_reduced()
                .unwrap_or_else(|e| panic!("case {case} restrict: {e}"));

            let mut exists = base.clone();
            exists.exists_var(var);
            exists
                .check_reduced()
                .unwrap_or_else(|e| panic!("case {case} exists: {e}"));

            for a in assignments(n) {
                let mut fixed = a.clone();
                fixed[var] = val;
                assert_eq!(
                    restricted.eval(&a),
                    f.eval(&fixed),
                    "case {case}: restrict mismatch at {a:?}"
                );
                let mut lo = a.clone();
                lo[var] = false;
                let mut hi = a.clone();
                hi[var] = true;
                assert_eq!(
                    exists.eval(&a),
                    f.eval(&lo) || f.eval(&hi),
                    "case {case}: exists mismatch at {a:?}"
                );
            }
        }
    }

    #[test]
    fn min_cost_matches_exhaustive_enumeration() {
        let mut rng = SplitMix64::new(0xbdd_0003);
        for case in 0..200 {
            let n = rng.gen_range_inclusive(1, 12);
            let costs: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 5) as u64).collect();
            let mut bdd = Bdd::new(n, costs.clone());
            let mut fs = Vec::new();
            for _ in 0..rng.gen_range_inclusive(1, 5) {
                let f = random_formula(&mut rng, n, 3);
                bdd.conjoin(&f);
                fs.push(f);
                let expected = brute_min_cost(&fs, n, &costs);
                let got = bdd.solve();
                assert_eq!(got, expected, "case {case}: optimum mismatch");
                assert_eq!(bdd.is_false(), expected.is_none(), "case {case}: emptiness");
            }
        }
    }

    #[test]
    fn agrees_with_dpll_on_random_instances() {
        let mut rng = SplitMix64::new(0xbdd_0004);
        for case in 0..150 {
            let n = rng.gen_range_inclusive(1, 10);
            let costs: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 4) as u64).collect();
            let mut bdd = Bdd::new(n, costs.clone());
            let mut dpll = MinCostSolver::new(n, costs);
            for _ in 0..rng.gen_range_inclusive(1, 4) {
                let f = random_formula(&mut rng, n, 3);
                bdd.conjoin(&f);
                dpll.require(f);
                assert_eq!(
                    bdd.solve(),
                    dpll.solve(),
                    "case {case}: engines disagree"
                );
            }
        }
    }

    #[test]
    fn conjoin_only_narrows_and_false_is_absorbing() {
        let n = 4;
        let mut bdd = Bdd::new(n, vec![1; n]);
        assert!(!bdd.is_false());
        assert_eq!(
            bdd.solve(),
            Some(Model { assignment: vec![false; n], cost: 0 })
        );
        bdd.conjoin(&PFormula::lit(1, true));
        let m = bdd.solve().unwrap();
        assert_eq!(m.cost, 1);
        assert_eq!(m.assignment, vec![false, true, false, false]);
        bdd.conjoin(&PFormula::lit(1, false));
        assert!(bdd.is_false());
        assert_eq!(bdd.solve(), None);
        // ⊥ stays ⊥ under further constraints.
        bdd.conjoin(&PFormula::True);
        assert!(bdd.is_false());
    }

    #[test]
    fn canonical_tie_break_prefers_lex_least() {
        // x0 ⊕ x1 with equal costs: {x0} and {x1} both cost 1; the
        // canonical model is [false, true] (atom 0 most significant).
        let mut bdd = Bdd::new(2, vec![1, 1]);
        bdd.conjoin(&PFormula::or(vec![PFormula::lit(0, true), PFormula::lit(1, true)]));
        bdd.conjoin(&PFormula::not(PFormula::and(vec![
            PFormula::lit(0, true),
            PFormula::lit(1, true),
        ])));
        let m = bdd.solve().unwrap();
        assert_eq!(m.cost, 1);
        assert_eq!(m.assignment, vec![false, true]);
    }

    #[test]
    fn arena_accounting_is_monotone_and_nonzero() {
        let mut bdd = Bdd::new(6, vec![1; 6]);
        let base = bdd.approx_bytes();
        assert!(base > 0);
        let mut prev_nodes = bdd.node_count();
        for i in 0..6 {
            bdd.conjoin(&PFormula::or(vec![
                PFormula::lit(i, true),
                PFormula::lit((i + 1) % 6, false),
            ]));
            assert!(bdd.node_count() >= prev_nodes, "arena is append-only");
            prev_nodes = bdd.node_count();
        }
        assert!(bdd.approx_bytes() > base);
    }
}
