//! The interned meta-analysis kernel: the backward hot path of Figure 7
//! over packed integer cubes instead of `BTreeSet<Lit<P>>` trees.
//!
//! The tree representation ([`crate::formula`]) stays the client-facing
//! surface; a trace analysis lowers it at entry:
//!
//! * a per-solve [`InternCache`] closes the primitive set under `wp_prim`
//!   across all atoms seen so far, interns it into dense `u32` ids, and
//!   precomputes `param_atom` metadata and the pairwise implication /
//!   contradiction matrices — paid once per *query*, not once per CEGAR
//!   iteration, because the closure, the raw wp formulas, and the
//!   matrices depend only on the atoms and `not_q`, never on the
//!   abstraction `p` being refuted;
//! * literals are packed as `id << 1 | pos` and cubes become sorted
//!   `Vec<u32>` with a 64-bit occurrence signature, so subsumption and
//!   conjunction reject non-candidates with one `&`/`|` word op before
//!   falling back to the id-indexed matrices;
//! * a wp memo keyed by `(atom id, packed literal)` converts each weakest
//!   precondition to DNF once per *solve* instead of once per literal
//!   occurrence — entries whose conversion never hit emergency pruning
//!   are `p`-independent and survive across iterations;
//! * per atom, a row of the primitive ids whose raw wp is not the
//!   identity lets the walk skip every step whose atom changes no
//!   primitive of the current DNF (the cone-of-influence skip) — most
//!   steps of a counterexample, since an atom writes one or two cells.
//!
//! **Bit-identity contract.** The tree path is the reference the CEGAR
//! loop is checked against iteration by iteration, and that check
//! compares the learned parameter formulas *syntactically*, so this
//! kernel mirrors the tree path syntactically, not just semantically.
//! The mirror rests on five invariants, checked by the differential
//! tests:
//!
//! 1. ids are assigned in primitive `Ord` order, so packed-literal order
//!    equals [`Lit`] order and `Vec<u32>` lexicographic order equals
//!    `BTreeSet<Lit>` order — and this holds for **any** `Ord`-sorted
//!    superset of the trace's own closure, which is what lets one cache
//!    (whose universe only grows) serve every iteration of a solve;
//! 2. every operation (`insert` clash rules including the asymmetric
//!    contradiction direction, `conjoin`'s sequential inserts, `simplify`
//!    / `emergency_prune` / `approx` sort-and-cut orders, the
//!    [`Formula::and`] constant folding inside wp) replays the tree
//!    implementation's exact order of operations;
//! 3. a memoized wp DNF is reused only when its conversion never hit
//!    emergency pruning — pruning consults the per-step `keep` predicate,
//!    so a pruned conversion is recomputed at each step it is used (and
//!    whether a conversion prunes at all is `p`-independent, so the
//!    stable/unstable classification itself is safe to cache);
//! 4. everything that *does* depend on the current `p`/`d_I` — the
//!    per-step truth table and the `eval_state(d_I)` row — is recomputed
//!    on every call and never cached;
//! 5. **skip exactness**: a step whose atom's row meets none of `f`'s
//!    primitives is skipped, and the skip returns what the full step
//!    would. Every literal's wp is then itself, so `wp_dnf` rebuilds each
//!    cube by re-inserting its literals in ascending order; that cannot
//!    clash when `contradicts` is symmetric over the universe (checked
//!    per table, the skip is off otherwise). `f` is an `approx` fixed
//!    point — sorted, subsumption-free, at most `k` cubes — because the
//!    skip starts only after the initial `approx`, so `approx` would hand
//!    it back unchanged. The step's Theorem 3 membership check still runs,
//!    so `MembershipLost` fires at the same step as without the skip.
//!    Only effort counters move: skipped steps build no cubes and touch
//!    no memo entry. Debug builds re-ask the client for every skipped
//!    step's wp and assert the identity.

use crate::approx::BeamConfig;
use crate::backward::{MetaClient, MetaError, ParamOf, StateOf};
use crate::formula::{Cube, Dnf, Formula, Lit, Primitive};
use pda_lang::Atom;
use pda_util::{Counter, ObsRegistry, Span, SpanKind};
use pda_solver::PFormula;
use std::collections::{BTreeSet, HashMap};

/// A packed literal: `prim id << 1 | positive`.
///
/// Because ids are assigned in primitive `Ord` order, the natural `u32`
/// order of packed literals coincides with [`Lit`]'s derived order
/// (primitive first, then `pos` with `false < true`).
type PLit = u32;

fn plit(id: u32, pos: bool) -> PLit {
    id << 1 | pos as u32
}

fn lit_id(l: PLit) -> usize {
    (l >> 1) as usize
}

fn lit_pos(l: PLit) -> bool {
    l & 1 == 1
}

/// Signature bit for a literal's primitive: occurrence of prim `id` sets
/// bit `id mod 64`. Shared prims always share a bit, so disjoint
/// signatures prove disjoint prim sets (the converse can fail — that only
/// costs a fast path, never soundness).
fn sig_bit(l: PLit) -> u64 {
    1u64 << (lit_id(l) & 63)
}

/// A dense boolean matrix whose columns are primitive ids (row-major
/// bitset): square for the pairwise tables, one row per atom for the
/// per-atom wp rows.
struct Matrix {
    words: usize,
    bits: Vec<u64>,
}

impl Matrix {
    fn new(n: usize) -> Matrix {
        Matrix::rect(n, n)
    }

    fn rect(rows: usize, cols: usize) -> Matrix {
        let words = cols.div_ceil(64).max(1);
        Matrix { words, bits: vec![0; words.saturating_mul(rows)] }
    }

    /// Appends all-zero rows up to `rows`.
    fn grow_rows(&mut self, rows: usize) {
        let need = rows.saturating_mul(self.words);
        if self.bits.len() < need {
            self.bits.resize(need, 0);
        }
    }

    fn set(&mut self, i: usize, j: usize) {
        debug_assert!(j < self.words * 64, "column {j} outside the matrix");
        self.bits[i * self.words + j / 64] |= 1u64 << (j % 64);
    }

    fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }
}

/// The intern table: primitives, their cached metadata, and the
/// precomputed implication/contradiction matrices with the flags derived
/// from them. Rebuilt only when the cache's primitive universe grows.
struct PrimTable<P: Primitive> {
    /// Interned primitives in `Ord` order; the index is the id.
    prims: Vec<P>,
    id_of: HashMap<P, u32>,
    /// `param_atom()` per id, cached at intern time.
    param_atom: Vec<Option<(usize, bool)>>,
    /// `implies[i][j] = prims[i].implies(prims[j])`.
    implies: Matrix,
    /// `contradicts[i][j] = prims[i].contradicts(prims[j])`.
    contradicts: Matrix,
    /// Some pair of interned prims contradicts.
    any_contradiction: bool,
    /// `implies` is exactly the identity matrix (reflexive, no
    /// off-diagonal entries) — true for every client that only overrides
    /// `contradicts`, enabling the binary-search implication path.
    implies_identity: bool,
    /// `implies` is exactly the identity and no pair contradicts: literal
    /// implication degenerates to literal equality, enabling the
    /// signature-subset fast path.
    trivial: bool,
    /// `contradicts` is symmetric: re-inserting a consistent cube's
    /// literals in any order cannot clash, which the cone-of-influence
    /// skip relies on (module-doc invariant 5).
    contradicts_symmetric: bool,
}

impl<P: Primitive> PrimTable<P> {
    /// Interns the `Ord`-ordered universe `prims` and computes the
    /// pairwise matrices and their flags.
    fn new(prims: Vec<P>) -> PrimTable<P> {
        let n = prims.len();
        let id_of = prims.iter().enumerate().map(|(i, q)| (q.clone(), i as u32)).collect();
        let param_atom = prims.iter().map(|q| q.param_atom()).collect();
        let mut implies = Matrix::new(n);
        let mut contradicts = Matrix::new(n);
        let mut identity = true;
        let mut any_contradiction = false;
        for (i, a) in prims.iter().enumerate() {
            for (j, b) in prims.iter().enumerate() {
                if a.implies(b) {
                    implies.set(i, j);
                    if i != j {
                        identity = false;
                    }
                } else if i == j {
                    identity = false;
                }
                if a.contradicts(b) {
                    contradicts.set(i, j);
                    any_contradiction = true;
                }
            }
        }
        let contradicts_symmetric =
            (0..n).all(|i| (0..i).all(|j| contradicts.get(i, j) == contradicts.get(j, i)));
        PrimTable {
            prims,
            id_of,
            param_atom,
            implies,
            contradicts,
            any_contradiction,
            implies_identity: identity,
            trivial: identity && !any_contradiction,
            contradicts_symmetric,
        }
    }

    /// Mirrors [`Lit::implies`] on packed literals via the matrices.
    fn lit_implies(&self, a: PLit, b: PLit) -> bool {
        match (lit_pos(a), lit_pos(b)) {
            (true, true) => self.implies.get(lit_id(a), lit_id(b)),
            (false, false) => self.implies.get(lit_id(b), lit_id(a)),
            (true, false) => self.contradicts.get(lit_id(a), lit_id(b)),
            (false, true) => false,
        }
    }
}

/// An interned cube: sorted packed literals plus two occurrence
/// signatures — `sig` over all literals' prims, `pos_sig` over the prims
/// of *positive* literals only.
///
/// The derived `Ord` compares `lits` first; both signatures are functions
/// of `lits`, so the comparison coincides with the tree [`Cube`]'s
/// `BTreeSet` order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ICube {
    lits: Vec<PLit>,
    sig: u64,
    pos_sig: u64,
}

impl ICube {
    fn top() -> ICube {
        ICube { lits: Vec::new(), sig: 0, pos_sig: 0 }
    }

    /// Mirror of [`Cube::insert`]: clash on the opposite literal or on an
    /// *existing positive* literal contradicting a positive newcomer (the
    /// tree checks `existing.contradicts(new)` only — the asymmetry is
    /// load-bearing for bit-identity).
    fn insert<P: Primitive>(&mut self, lit: PLit, t: &PrimTable<P>) -> bool {
        if self.lits.binary_search(&(lit ^ 1)).is_ok() {
            return false;
        }
        if t.any_contradiction && lit_pos(lit) {
            let id = lit_id(lit);
            for &l in &self.lits {
                if lit_pos(l) && t.contradicts.get(lit_id(l), id) {
                    return false;
                }
            }
        }
        if let Err(i) = self.lits.binary_search(&lit) {
            self.lits.insert(i, lit);
        }
        self.sig |= sig_bit(lit);
        if lit_pos(lit) {
            self.pos_sig |= sig_bit(lit);
        }
        true
    }

    /// Mirror of [`Cube::conjoin`]: insert `other`'s literals in ascending
    /// order, failing on the first clash. When no interned pair
    /// contradicts and the signatures prove the prim sets disjoint, no
    /// insert can clash and a plain sorted merge suffices.
    fn conjoin<P: Primitive>(&self, other: &ICube, t: &PrimTable<P>) -> Option<ICube> {
        if !t.any_contradiction && self.sig & other.sig == 0 {
            let mut lits = Vec::with_capacity(self.lits.len() + other.lits.len());
            let (mut i, mut j) = (0, 0);
            while i < self.lits.len() && j < other.lits.len() {
                if self.lits[i] < other.lits[j] {
                    lits.push(self.lits[i]);
                    i += 1;
                } else {
                    lits.push(other.lits[j]);
                    j += 1;
                }
            }
            lits.extend_from_slice(&self.lits[i..]);
            lits.extend_from_slice(&other.lits[j..]);
            return Some(ICube {
                lits,
                sig: self.sig | other.sig,
                pos_sig: self.pos_sig | other.pos_sig,
            });
        }
        let mut out = self.clone();
        for &l in &other.lits {
            if !out.insert(l, t) {
                return None;
            }
        }
        Some(out)
    }

    /// Mirror of [`Cube::implies`]: every literal of `other` implied by
    /// some literal of `self`. With trivial matrices this is a literal
    /// subset test, signature-rejected in one word op. With an identity
    /// `implies` matrix (contradictions allowed — the common shape for
    /// clients that only override `contradicts`) a *positive* literal of
    /// `other` is implied only by its exact self, so a positive prim of
    /// `other` absent from `self`'s signature refutes the implication in
    /// one word op — negative literals are excluded from `pos_sig`
    /// because a contradicting positive can also imply them.
    fn implies<P: Primitive>(
        &self,
        other: &ICube,
        t: &PrimTable<P>,
        obs: &mut ObsRegistry,
    ) -> bool {
        obs.inc(Counter::SubsumptionChecks);
        if t.trivial {
            if other.sig & !self.sig != 0 {
                obs.inc(Counter::SubsumptionFastRejects);
                return false;
            }
            return is_subset(&other.lits, &self.lits);
        }
        if t.implies_identity {
            if other.pos_sig & !self.sig != 0 {
                obs.inc(Counter::SubsumptionFastRejects);
                return false;
            }
            return other.lits.iter().all(|&lo| {
                if self.lits.binary_search(&lo).is_ok() {
                    return true;
                }
                !lit_pos(lo)
                    && self
                        .lits
                        .iter()
                        .any(|&ls| lit_pos(ls) && t.contradicts.get(lit_id(ls), lit_id(lo)))
            });
        }
        other
            .lits
            .iter()
            .all(|&lo| self.lits.iter().any(|&ls| t.lit_implies(ls, lo)))
    }
}

/// `sub ⊆ sup` over sorted slices.
fn is_subset(sub: &[PLit], sup: &[PLit]) -> bool {
    let mut j = 0;
    'outer: for &l in sub {
        while j < sup.len() {
            match sup[j].cmp(&l) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Collects the primitives of a formula.
fn prims_of<P: Primitive>(f: &Formula<P>, out: &mut Vec<P>) {
    match f {
        Formula::True | Formula::False => {}
        Formula::Prim(p) => out.push(p.clone()),
        Formula::Not(g) => prims_of(g, out),
        Formula::And(fs) | Formula::Or(fs) => {
            for g in fs {
                prims_of(g, out);
            }
        }
    }
}

/// Counts the nodes of a formula tree (for deterministic byte estimates).
fn formula_nodes<P: Primitive>(f: &Formula<P>) -> u64 {
    match f {
        Formula::True | Formula::False | Formula::Prim(_) => 1,
        Formula::Not(g) => 1u64.saturating_add(formula_nodes(g)),
        Formula::And(fs) | Formula::Or(fs) => {
            fs.iter().fold(1u64, |acc, g| acc.saturating_add(formula_nodes(g)))
        }
    }
}

/// A memoized per-literal wp variant (the formula the tree path builds as
/// `wp` or `¬wp` before `Formula::and` folding).
enum WpEntry<P> {
    /// Folds away as a conjunct (`Formula::and` drops `True` parts).
    ConstTrue,
    /// Annihilates the whole cube's precondition.
    ConstFalse,
    /// DNF conversion that never hit emergency pruning — keep-independent
    /// (hence `p`-independent) and safe to reuse at any step of any
    /// iteration within the cache's current table generation.
    Stable(Vec<ICube>),
    /// Conversion pruned under some step's `keep`; the variant formula is
    /// kept so each use reconverts under its own step.
    Unstable(Formula<P>),
}

/// The wp memo, indexed `aid * 2 * n_prims + packed_lit`. Lives in the
/// [`InternCache`] so stable entries survive across CEGAR iterations; it
/// is cleared whenever the table is rebuilt (ids change) and grown when
/// new atoms register.
struct WpMemo<P> {
    stride: usize,
    entries: Vec<Option<WpEntry<P>>>,
}

impl<P: Primitive> WpMemo<P> {
    fn reset(&mut self, n_prims: usize) {
        self.stride = 2 * n_prims;
        self.entries.clear();
    }

    fn grow(&mut self, n_atoms: usize) {
        let need = n_atoms.saturating_mul(self.stride);
        if self.entries.len() < need {
            self.entries.resize_with(need, || None);
        }
    }

    fn key(&self, aid: u32, lit: PLit) -> usize {
        (aid as usize).saturating_mul(self.stride).saturating_add(lit as usize)
    }

    /// Materializes the entry for `(aid, lit)` if absent, counting memo
    /// hits/misses, and returns its key.
    fn ensure(
        &mut self,
        k: &Kernel<'_, P>,
        aid: u32,
        lit: PLit,
        cfg: &BeamConfig,
        step: usize,
        obs: &mut ObsRegistry,
    ) -> usize {
        let key = self.key(aid, lit);
        if self.entries[key].is_some() {
            obs.inc(Counter::WpHits);
            return key;
        }
        obs.inc(Counter::WpMisses);
        let prim = &k.table.prims[lit_id(lit)];
        // An absent entry is the closure's elided identity wp (the atom
        // leaves the prim untouched): reconstruct `prim` itself, which is
        // exactly the formula a storing closure would have kept, so every
        // downstream counter and memo entry is unchanged.
        let ident;
        let w = match k.wp_raw.get(&(aid, prim.clone())) {
            Some(w) => w,
            None => {
                ident = Formula::prim(prim.clone());
                &ident
            }
        };
        let v = if lit_pos(lit) { w.clone() } else { Formula::not(w.clone()) };
        let entry = if v == Formula::True {
            WpEntry::ConstTrue
        } else if v == Formula::False {
            WpEntry::ConstFalse
        } else {
            let mut pruned = false;
            let cubes = nnf_dnf_i(&v, true, cfg, k, step, obs, &mut pruned);
            if pruned {
                WpEntry::Unstable(v)
            } else {
                WpEntry::Stable(cubes)
            }
        };
        self.entries[key] = Some(entry);
        key
    }
}

/// The state the interned kernel keeps for a whole `solve_query` run.
///
/// Everything in here is independent of the abstraction `p` currently
/// being refuted, so it is computed incrementally as traces arrive and
/// reused across CEGAR iterations:
///
/// * the atom registry (ids are first-seen order — atom ids carry no
///   ordering obligation, unlike prim ids);
/// * the primitive universe, closed under `wp_prim` over all registered
///   atoms, with every raw wp formula retained;
/// * the intern table with its `Ord`-ordered ids and implication /
///   contradiction matrices, rebuilt only when the universe grows (a
///   superset universe preserves the id-order isomorphism, so outputs
///   stay bit-identical — see the module docs);
/// * one row per atom of the primitive ids its raw wp changes (exactly
///   the atom's `wp_raw` keys, since identity is stored by absence) —
///   the cone-of-influence rows the backward walk skips steps by;
/// * the wp memo (cleared on table rebuilds, since entries embed ids).
///
/// A cache must only be reused with the same client; the abstraction and
/// initial state may vary freely between calls (per-call truth tables and
/// `eval_state(d_I)` rows are never cached).
pub struct InternCache<P: Primitive> {
    atoms: Vec<Atom>,
    aid_of: HashMap<Atom, u32>,
    universe: BTreeSet<P>,
    wp_raw: HashMap<(u32, P), Formula<P>>,
    /// Bit `(aid, id)`: atom `aid`'s raw wp of prim `id` is not the
    /// identity, i.e. `wp_raw` holds `(aid, prims[id])`. Columns follow
    /// the current table's ids.
    touches: Matrix,
    table: Option<PrimTable<P>>,
    memo: WpMemo<P>,
}

impl<P: Primitive> Default for InternCache<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Primitive> InternCache<P> {
    /// An empty cache: first use pays the closure, later uses extend it.
    pub fn new() -> InternCache<P> {
        InternCache {
            atoms: Vec::new(),
            aid_of: HashMap::new(),
            universe: BTreeSet::new(),
            wp_raw: HashMap::new(),
            touches: Matrix::rect(0, 0),
            table: None,
            memo: WpMemo { stride: 0, entries: Vec::new() },
        }
    }

    /// Registers the trace's atoms, returning the per-step atom ids and
    /// the ids that are new to this cache.
    fn register_atoms(&mut self, trace: &[Atom]) -> (Vec<u32>, Vec<u32>) {
        let InternCache { atoms, aid_of, .. } = self;
        let mut fresh = Vec::new();
        let atom_of_step = trace
            .iter()
            .map(|a| {
                *aid_of.entry(*a).or_insert_with(|| {
                    atoms.push(*a);
                    let aid = atoms.len() as u32 - 1;
                    fresh.push(aid);
                    aid
                })
            })
            .collect();
        (atom_of_step, fresh)
    }

    /// Extends the primitive universe closure with `not_q`'s prims and the
    /// freshly registered atoms, computing (and retaining) the raw wp
    /// formula for every new `(atom, prim)` pair. Returns whether the
    /// universe grew (which forces a table rebuild).
    ///
    /// Incremental coverage argument: `(old atom, old prim)` pairs are
    /// already stored; `(new atom, old prim)` pairs are the snapshot loop;
    /// every genuinely new prim goes through `work`, which pairs it with
    /// *all* atoms, old and new.
    ///
    /// The snapshot loop also extends the fresh atoms' [`Self::touches`]
    /// rows: the snapshot is the universe in `Ord` order, which is the
    /// current table's id order. Pairs with a new prim need no row bit
    /// here — a grown universe forces [`Self::rebuild_table`], which
    /// re-indexes every row from `wp_raw`.
    fn close_universe<C: MetaClient<Prim = P>>(
        &mut self,
        client: &C,
        fresh_atoms: &[u32],
        not_q: &Formula<P>,
    ) -> bool {
        // Snapshot before seeding, so the snapshot loop never duplicates
        // work-loop pairs.
        let pre: Vec<P> = if fresh_atoms.is_empty() {
            Vec::new()
        } else {
            self.universe.iter().cloned().collect()
        };
        let mut scratch = Vec::new();
        let mut work: Vec<P> = Vec::new();
        let mut changed = false;
        prims_of(not_q, &mut scratch);
        for q in scratch.drain(..) {
            if self.universe.insert(q.clone()) {
                changed = true;
                work.push(q);
            }
        }
        self.touches.grow_rows(self.atoms.len());
        for &aid in fresh_atoms {
            for (id, q) in pre.iter().enumerate() {
                let atom = self.atoms[aid as usize];
                let w = client.wp_prim(&atom, q);
                // Identity wp — the atom leaves the prim untouched — is by
                // far the common case (~90% of all pairs on the suite
                // programs): its only prim is `q`, already in the
                // universe, so it grows nothing, and the kernel
                // reconstructs it on demand from the *absence* of an
                // entry. Eliding the store cuts the closure's dominant
                // cost (hash inserts and formula walks) for every run.
                if matches!(&w, Formula::Prim(p) if p == q) {
                    continue;
                }
                prims_of(&w, &mut scratch);
                for r in scratch.drain(..) {
                    if self.universe.insert(r.clone()) {
                        changed = true;
                        work.push(r);
                    }
                }
                self.touches.set(aid as usize, id);
                self.wp_raw.insert((aid, q.clone()), w);
            }
        }
        while let Some(pr) = work.pop() {
            for aid in 0..self.atoms.len() as u32 {
                let atom = self.atoms[aid as usize];
                let w = client.wp_prim(&atom, &pr);
                if matches!(&w, Formula::Prim(p) if *p == pr) {
                    continue;
                }
                prims_of(&w, &mut scratch);
                for r in scratch.drain(..) {
                    if self.universe.insert(r.clone()) {
                        changed = true;
                        work.push(r);
                    }
                }
                self.wp_raw.insert((aid, pr.clone()), w);
            }
        }
        changed
    }

    /// Deterministic estimate of the bytes this cache retains across CEGAR
    /// iterations: atoms, the closed primitive universe, raw wp formulas
    /// and their per-atom rows, the intern table with its matrices, and
    /// the wp memo. Counts ×
    /// `size_of` only — never allocator or RSS measurements — so the
    /// memory governor's pressure decisions reproduce bit-identically.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let node = size_of::<Formula<P>>() as u64;
        let cube = |c: &ICube| {
            (size_of::<ICube>() as u64).saturating_add((c.lits.len() as u64).saturating_mul(4))
        };
        let mut bytes = (self.atoms.len() as u64)
            .saturating_mul(size_of::<Atom>() as u64)
            .saturating_add((self.universe.len() as u64).saturating_mul(size_of::<P>() as u64))
            .saturating_add(
                (self.wp_raw.len() as u64).saturating_mul(4 + size_of::<P>() as u64),
            );
        for w in self.wp_raw.values() {
            bytes = bytes.saturating_add(formula_nodes(w).saturating_mul(node));
        }
        bytes = bytes.saturating_add((self.touches.bits.len() as u64).saturating_mul(8));
        if let Some(t) = &self.table {
            bytes = bytes
                .saturating_add((t.implies.bits.len() as u64).saturating_mul(8))
                .saturating_add((t.contradicts.bits.len() as u64).saturating_mul(8))
                .saturating_add((t.prims.len() as u64).saturating_mul(
                    size_of::<P>() as u64 + size_of::<Option<(usize, bool)>>() as u64,
                ));
        }
        bytes = bytes.saturating_add(
            (self.memo.entries.len() as u64)
                .saturating_mul(size_of::<Option<WpEntry<P>>>() as u64),
        );
        for e in self.memo.entries.iter().flatten() {
            bytes = bytes.saturating_add(match e {
                WpEntry::ConstTrue | WpEntry::ConstFalse => 0,
                WpEntry::Stable(cubes) => {
                    cubes.iter().fold(0u64, |acc, c| acc.saturating_add(cube(c)))
                }
                WpEntry::Unstable(v) => formula_nodes(v).saturating_mul(node),
            });
        }
        bytes
    }

    /// Evicts every [`WpEntry::Unstable`] memo entry (the first rung of
    /// the memory governor's degradation ladder), returning how many were
    /// dropped. Memo entries are pure accelerators — an evicted entry is
    /// recomputed from the retained raw wp formulas on its next use with a
    /// bit-identical result — so eviction changes cost, never outcomes.
    pub fn evict_unstable(&mut self) -> u64 {
        let mut evicted = 0;
        for e in &mut self.memo.entries {
            if matches!(e, Some(WpEntry::Unstable(_))) {
                *e = None;
                evicted += 1;
            }
        }
        evicted
    }

    /// Reinterns the universe in `Ord` order, precomputes the matrices and
    /// re-indexes the per-atom wp rows; the memo resets because its
    /// entries embed the old generation's ids.
    fn rebuild_table(&mut self) {
        let table = PrimTable::new(self.universe.iter().cloned().collect());
        let mut touches = Matrix::rect(self.atoms.len(), table.prims.len());
        for (aid, q) in self.wp_raw.keys() {
            touches.set(*aid as usize, table.id_of[q] as usize);
        }
        self.touches = touches;
        self.memo.reset(table.prims.len());
        self.table = Some(table);
    }
}

/// The per-call view the backward walk runs on: the cache's table and raw
/// wp formulas (shared borrows), plus everything that depends on this
/// call's `p`/`d_I`/trace — the truth table and the step→atom map.
struct Kernel<'c, P: Primitive> {
    table: &'c PrimTable<P>,
    /// `wp_raw[(aid, prim)]`: the client's raw `wp_prim` formula.
    wp_raw: &'c HashMap<(u32, P), Formula<P>>,
    /// `truth[step * twords ..]`: bit `id` = `prims[id].holds(p, states[step])`.
    truth: Vec<u64>,
    twords: usize,
    /// `atom_of_step[i]` is the cache-global atom id of trace step `i`.
    atom_of_step: Vec<u32>,
}

impl<P: Primitive> Kernel<'_, P> {
    fn truth_bit(&self, step: usize, id: usize) -> bool {
        self.truth[step * self.twords + id / 64] >> (id % 64) & 1 == 1
    }

    /// Mirror of the per-step `keep` predicate `cube.holds(p, states[step])`.
    fn holds_at(&self, c: &ICube, step: usize) -> bool {
        c.lits.iter().all(|&l| self.truth_bit(step, lit_id(l)) == lit_pos(l))
    }
}

/// Mirror of `approx::emergency_prune` on interned cubes. Sets `pruned`
/// only when cubes were actually cut (a dedup that fits under the cap
/// leaves the result keep-independent).
fn emergency_prune_i<P: Primitive>(
    mut cubes: Vec<ICube>,
    cfg: &BeamConfig,
    k: &Kernel<'_, P>,
    step: usize,
    obs: &mut ObsRegistry,
    pruned: &mut bool,
) -> Vec<ICube> {
    cubes.sort_by(|a, b| a.lits.len().cmp(&b.lits.len()).then_with(|| a.lits.cmp(&b.lits)));
    cubes.dedup();
    if cubes.len() <= cfg.max_cubes {
        return cubes;
    }
    *pruned = true;
    let cut = cfg.max_cubes / 2;
    let mut out: Vec<ICube> = cubes[..cut].to_vec();
    if !out.iter().any(|c| k.holds_at(c, step)) {
        if let Some(c) = cubes[cut..].iter().find(|c| k.holds_at(c, step)) {
            out.push(c.clone());
        }
    }
    obs.add(Counter::ApproxDrops, (cubes.len() - out.len()) as u64);
    out
}

/// Mirror of `approx::product`.
fn product_i<P: Primitive>(
    xs: &[ICube],
    ys: &[ICube],
    cfg: &BeamConfig,
    k: &Kernel<'_, P>,
    step: usize,
    obs: &mut ObsRegistry,
    pruned: &mut bool,
) -> Vec<ICube> {
    let pairs = xs.len().saturating_mul(ys.len());
    let mut out = Vec::with_capacity(pairs.min(cfg.max_cubes.saturating_add(1)));
    for x in xs {
        for y in ys {
            if let Some(c) = x.conjoin(y, k.table) {
                obs.inc(Counter::CubesBuilt);
                out.push(c);
            }
        }
        if out.len() > cfg.max_cubes {
            out = emergency_prune_i(out, cfg, k, step, obs, pruned);
        }
    }
    out
}

/// Mirror of `approx::nnf_dnf`; `step` indexes the truth table for the
/// `keep` predicate.
fn nnf_dnf_i<P: Primitive>(
    f: &Formula<P>,
    sign: bool,
    cfg: &BeamConfig,
    k: &Kernel<'_, P>,
    step: usize,
    obs: &mut ObsRegistry,
    pruned: &mut bool,
) -> Vec<ICube> {
    match (f, sign) {
        (Formula::True, true) | (Formula::False, false) => vec![ICube::top()],
        (Formula::True, false) | (Formula::False, true) => Vec::new(),
        (Formula::Prim(p), pos) => {
            let id = k.table.id_of[p];
            let mut c = ICube::top();
            let ok = c.insert(plit(id, pos), k.table);
            debug_assert!(ok);
            obs.inc(Counter::CubesBuilt);
            vec![c]
        }
        (Formula::Not(inner), s) => nnf_dnf_i(inner, !s, cfg, k, step, obs, pruned),
        (Formula::And(fs), true) | (Formula::Or(fs), false) => {
            let mut acc = vec![ICube::top()];
            for g in fs {
                let gs = nnf_dnf_i(g, sign, cfg, k, step, obs, pruned);
                acc = product_i(&acc, &gs, cfg, k, step, obs, pruned);
                if acc.is_empty() {
                    return acc;
                }
            }
            acc
        }
        (Formula::Or(fs), true) | (Formula::And(fs), false) => {
            let mut acc: Vec<ICube> = Vec::new();
            for g in fs {
                acc.extend(nnf_dnf_i(g, sign, cfg, k, step, obs, pruned));
                if acc.len() > cfg.max_cubes {
                    acc = emergency_prune_i(acc, cfg, k, step, obs, pruned);
                }
            }
            acc
        }
    }
}

/// Mirror of `approx::simplify`.
fn simplify_i<P: Primitive>(
    mut cubes: Vec<ICube>,
    k: &Kernel<'_, P>,
    obs: &mut ObsRegistry,
) -> Vec<ICube> {
    cubes.sort_by(|a, b| a.lits.len().cmp(&b.lits.len()).then_with(|| a.lits.cmp(&b.lits)));
    cubes.dedup();
    let mut kept: Vec<ICube> = Vec::new();
    for c in cubes {
        if !kept.iter().any(|kc| c.implies(kc, k.table, obs)) {
            kept.push(c);
        }
    }
    kept
}

/// Mirror of `approx::approx`.
fn approx_i<P: Primitive>(
    cubes: Vec<ICube>,
    cfg: &BeamConfig,
    k: &Kernel<'_, P>,
    step: usize,
    obs: &mut ObsRegistry,
) -> Option<Vec<ICube>> {
    let s = simplify_i(cubes, k, obs);
    if !s.iter().any(|c| k.holds_at(c, step)) {
        return None;
    }
    if s.len() <= cfg.k {
        return Some(s);
    }
    let take = cfg.k.saturating_sub(1);
    let mut out: Vec<ICube> = s[..take].to_vec();
    if !out.iter().any(|c| k.holds_at(c, step)) {
        let j = s.iter().find(|c| k.holds_at(c, step))?;
        out.push(j.clone());
    }
    obs.add(Counter::ApproxDrops, (s.len() - out.len()) as u64);
    Some(out)
}

/// Mirror of `backward::wp_dnf`: per cube, fold the per-literal wp
/// variants as [`Formula::and`] would, convert the conjunction to DNF,
/// and union across cubes. Conversions are served by the memo wherever
/// the memoized form is step-independent.
fn wp_dnf_i<P: Primitive>(
    k: &Kernel<'_, P>,
    memo: &mut WpMemo<P>,
    aid: u32,
    dnf: &[ICube],
    cfg: &BeamConfig,
    step: usize,
    obs: &mut ObsRegistry,
) -> Vec<ICube> {
    let mut out: Vec<ICube> = Vec::new();
    let mut part_keys: Vec<usize> = Vec::new();
    'cube: for cube in dnf {
        part_keys.clear();
        // Mirror of `Formula::and(parts)`: drop True parts, annihilate on
        // any False part.
        for &l in &cube.lits {
            let key = memo.ensure(k, aid, l, cfg, step, obs);
            match memo.entries[key].as_ref().unwrap() {
                WpEntry::ConstTrue => {}
                WpEntry::ConstFalse => continue 'cube,
                WpEntry::Stable(_) | WpEntry::Unstable(_) => part_keys.push(key),
            }
        }
        match part_keys.len() {
            // f = True → nnf_dnf yields the top cube.
            0 => out.push(ICube::top()),
            // f is the single surviving variant → its own DNF, no product
            // (mirrors `Formula::and`'s single-part unwrap).
            1 => match memo.entries[part_keys[0]].as_ref().unwrap() {
                WpEntry::Stable(cubes) => out.extend(cubes.iter().cloned()),
                WpEntry::Unstable(v) => {
                    let v = v.clone();
                    let mut pruned = false;
                    out.extend(nnf_dnf_i(&v, true, cfg, k, step, obs, &mut pruned));
                }
                _ => unreachable!(),
            },
            // f = And(parts) → fold products left to right, stopping on
            // an empty accumulator exactly as nnf_dnf does. Stable
            // entries are borrowed straight out of the memo — the product
            // only reads them.
            _ => {
                let mut acc = vec![ICube::top()];
                for &key in &part_keys {
                    let converted: Vec<ICube>;
                    let gs: &[ICube] = match memo.entries[key].as_ref().unwrap() {
                        WpEntry::Stable(cubes) => cubes,
                        WpEntry::Unstable(v) => {
                            let v = v.clone();
                            let mut pruned = false;
                            converted = nnf_dnf_i(&v, true, cfg, k, step, obs, &mut pruned);
                            &converted
                        }
                        _ => unreachable!(),
                    };
                    let mut pruned = false;
                    acc = product_i(&acc, gs, cfg, k, step, obs, &mut pruned);
                    if acc.is_empty() {
                        break;
                    }
                }
                out.extend(acc);
            }
        }
    }
    out
}

/// Sets `support` to the prim ids occurring in `f`.
fn fill_support(f: &[ICube], support: &mut [u64]) {
    support.fill(0);
    for c in f {
        for &l in &c.lits {
            support[lit_id(l) / 64] |= 1u64 << (lit_id(l) % 64);
        }
    }
}

/// Whether two id bitsets share a bit.
fn meets(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The debug-build oracle behind the skip: re-asks the client for the wp
/// of every support prim across `atom` and requires the identity. Reads
/// neither the memo nor any counter, so debug and release runs count
/// alike.
fn debug_check_identity<C: MetaClient>(
    client: &C,
    atom: &Atom,
    support: &[u64],
    table: &PrimTable<C::Prim>,
) {
    for (id, q) in table.prims.iter().enumerate() {
        if support[id / 64] >> (id % 64) & 1 == 1 {
            assert!(
                client.wp_prim(atom, q) == Formula::prim(q.clone()),
                "skipped a step whose atom {atom:?} changes support prim {q}"
            );
        }
    }
}

/// The result of an interned trace analysis: the final trace-entry DNF in
/// interned form, plus a snapshot of the metadata needed to restrict or
/// export it (so the result does not borrow the cache).
pub struct TraceAnalysis<P: Primitive> {
    prims: Vec<P>,
    param_atom: Vec<Option<(usize, bool)>>,
    eval_init: Vec<Option<bool>>,
    cubes: Vec<ICube>,
}

impl<P: Primitive> TraceAnalysis<P> {
    /// Mirror of [`crate::backward::restrict`], served entirely from the
    /// metadata cached at intern time (no client calls).
    pub fn restrict(&self) -> PFormula {
        let mut cubes = Vec::new();
        'cube: for cube in &self.cubes {
            let mut lits = Vec::new();
            for &l in &cube.lits {
                let id = lit_id(l);
                if let Some((atom, polarity)) = self.param_atom[id] {
                    lits.push(PFormula::lit(atom, polarity == lit_pos(l)));
                } else {
                    match self.eval_init[id] {
                        Some(b) if b == lit_pos(l) => {}
                        Some(_) => continue 'cube,
                        None => {
                            debug_assert!(false, "primitive is neither state- nor param-only");
                            continue 'cube;
                        }
                    }
                }
            }
            cubes.push(PFormula::and(lits));
        }
        PFormula::or(cubes)
    }

    /// Exports the result back to the tree representation (used by the
    /// differential oracle tests and diagnostics).
    pub fn to_dnf(&self) -> Dnf<P> {
        Dnf(self
            .cubes
            .iter()
            .map(|c| {
                Cube::from_lits_unchecked(c.lits.iter().map(|&l| Lit {
                    prim: self.prims[lit_id(l)].clone(),
                    pos: lit_pos(l),
                }))
            })
            .collect())
    }
}

/// The interned-kernel counterpart of [`crate::backward::analyze_trace`]:
/// same `B[t]` walk, same failure modes, bit-identical output (exported
/// via [`TraceAnalysis::to_dnf`] / [`TraceAnalysis::restrict`]), with the
/// hot path running on packed cubes and the solve-wide [`InternCache`].
/// `obs` accumulates the kernel's effort counters (the caller owns
/// `MetaMicros`).
///
/// The caller keeps one `cache` per solve (or any scope with a fixed
/// client) and passes it to every call; a fresh cache per call is merely
/// slower, never wrong.
///
/// # Errors
///
/// [`MetaError::MembershipLost`] under exactly the conditions of the tree
/// path — the Theorem 3 invariant check is mirrored per step.
#[allow(clippy::too_many_arguments)]
pub fn analyze_trace_interned<C: MetaClient>(
    client: &C,
    p: &ParamOf<C>,
    d_init: &StateOf<C>,
    trace: &[Atom],
    not_q: &Formula<C::Prim>,
    cfg: &BeamConfig,
    cache: &mut InternCache<C::Prim>,
    obs: &mut ObsRegistry,
) -> Result<TraceAnalysis<C::Prim>, MetaError>
where
    StateOf<C>: Clone,
{
    // Forward replay, exactly as the tree path does it.
    let mut states: Vec<StateOf<C>> = Vec::with_capacity(trace.len() + 1);
    states.push(d_init.clone());
    for a in trace {
        states.push(client.transfer(p, a, states.last().unwrap()));
    }

    // Bring the cache up to date with this trace; most iterations of a
    // solve see no new atoms and no new prims, making all three steps
    // no-ops.
    let (atom_of_step, fresh_atoms) = cache.register_atoms(trace);
    let changed = cache.close_universe(client, &fresh_atoms, not_q);
    if changed || cache.table.is_none() {
        cache.rebuild_table();
    }
    cache.memo.grow(cache.atoms.len());

    // Split the borrows: the walk reads the table, raw wps and rows,
    // mutates only the memo.
    let InternCache { atoms, wp_raw, touches, table, memo, .. } = cache;
    let table = table.as_ref().expect("table built above");
    let n = table.prims.len();

    // Per-call metadata — everything here depends on this call's `p` or
    // `d_I` and must never be cached.
    let eval_init: Vec<Option<bool>> = table.prims.iter().map(|q| q.eval_state(d_init)).collect();
    let twords = n.div_ceil(64).max(1);
    let mut truth = vec![0u64; twords.saturating_mul(states.len())];
    for (s, d) in states.iter().enumerate() {
        for (id, q) in table.prims.iter().enumerate() {
            if q.holds(p, d) {
                truth[s * twords + id / 64] |= 1u64 << (id % 64);
            }
        }
    }
    let k = Kernel { table, wp_raw, truth, twords, atom_of_step };

    let steps = trace.len();
    let mut pruned = false;
    let mut f = nnf_dnf_i(not_q, true, cfg, &k, steps, obs, &mut pruned);
    let span = Span::enter(obs, SpanKind::Approx);
    let approxed = approx_i(f, cfg, &k, steps, obs);
    span.exit(obs);
    f = approxed.ok_or(MetaError::MembershipLost { step: steps })?;
    // Cone-of-influence skip (module-doc invariant 5): `support` holds
    // the prim ids occurring in `f`, refreshed after every step that ran.
    let skip = table.contradicts_symmetric;
    let mut support = vec![0u64; twords];
    fill_support(&f, &mut support);
    for i in (0..steps).rev() {
        let aid = k.atom_of_step[i];
        if skip && !meets(touches.row(aid as usize), &support) {
            if cfg!(debug_assertions) {
                debug_check_identity(client, &atoms[aid as usize], &support, table);
            }
            obs.inc(Counter::MetaStepsSkipped);
            if !f.iter().any(|c| k.holds_at(c, i)) {
                return Err(MetaError::MembershipLost { step: i });
            }
            continue;
        }
        f = wp_dnf_i(&k, memo, aid, &f, cfg, i, obs);
        let span = Span::enter(obs, SpanKind::Approx);
        let approxed = approx_i(f, cfg, &k, i, obs);
        span.exit(obs);
        f = approxed.ok_or(MetaError::MembershipLost { step: i })?;
        fill_support(&f, &mut support);
    }
    Ok(TraceAnalysis {
        prims: table.prims.clone(),
        param_atom: table.param_atom.clone(),
        eval_init,
        cubes: f,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::{analyze_trace, restrict};
    use std::fmt;

    /// The toy bit-vector client from `backward.rs`'s tests, reused here
    /// for exhaustive tree-vs-interned differential checks.
    struct Bits;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum BP {
        Bit(u8),
        PBit(u8),
    }

    impl fmt::Display for BP {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                BP::Bit(i) => write!(f, "d{i}"),
                BP::PBit(i) => write!(f, "p{i}"),
            }
        }
    }

    impl Primitive for BP {
        type Param = u32;
        type State = u32;
        fn holds(&self, p: &u32, d: &u32) -> bool {
            match self {
                BP::Bit(i) => (d >> i) & 1 == 1,
                BP::PBit(i) => (p >> i) & 1 == 1,
            }
        }
        fn eval_state(&self, d: &u32) -> Option<bool> {
            match self {
                BP::Bit(i) => Some((d >> i) & 1 == 1),
                BP::PBit(_) => None,
            }
        }
        fn param_atom(&self) -> Option<(usize, bool)> {
            match self {
                BP::Bit(_) => None,
                BP::PBit(i) => Some((*i as usize, true)),
            }
        }
    }

    impl MetaClient for Bits {
        type Prim = BP;
        fn transfer(&self, p: &u32, atom: &Atom, d: &u32) -> u32 {
            match *atom {
                Atom::Null { dst } => {
                    if (p >> dst.0) & 1 == 1 {
                        d | (1 << dst.0)
                    } else {
                        *d
                    }
                }
                Atom::Havoc { dst } => d & !(1 << dst.0),
                Atom::Copy { dst, src } => {
                    if (d >> src.0) & 1 == 1 {
                        d | (1 << dst.0)
                    } else {
                        d & !(1 << dst.0)
                    }
                }
                _ => *d,
            }
        }
        fn wp_prim(&self, atom: &Atom, prim: &BP) -> Formula<BP> {
            match (*atom, *prim) {
                (Atom::Null { dst }, BP::Bit(i)) if dst.0 == i as u32 => Formula::or(vec![
                    Formula::prim(BP::Bit(i)),
                    Formula::prim(BP::PBit(i)),
                ]),
                (Atom::Havoc { dst }, BP::Bit(i)) if dst.0 == i as u32 => Formula::False,
                (Atom::Copy { dst, src }, BP::Bit(i)) if dst.0 == i as u32 => {
                    Formula::prim(BP::Bit(src.0 as u8))
                }
                (_, other) => Formula::prim(other),
            }
        }
    }

    use pda_lang::VarId;

    fn null(v: u32) -> Atom {
        Atom::Null { dst: VarId(v) }
    }
    fn copy(dst: u32, src: u32) -> Atom {
        Atom::Copy { dst: VarId(dst), src: VarId(src) }
    }
    fn havoc(v: u32) -> Atom {
        Atom::Havoc { dst: VarId(v) }
    }

    fn test_traces() -> Vec<Vec<Atom>> {
        vec![
            vec![null(0), copy(1, 0)],
            vec![null(0), copy(1, 0), havoc(0)],
            vec![null(1), null(0), copy(2, 1)],
            vec![copy(1, 0), null(1), copy(0, 1)],
            vec![havoc(2), null(2), copy(0, 2), copy(1, 0)],
        ]
    }

    fn test_not_qs() -> Vec<Formula<BP>> {
        vec![
            Formula::prim(BP::Bit(1)),
            Formula::or(vec![
                Formula::prim(BP::Bit(1)),
                Formula::and(vec![Formula::prim(BP::Bit(0)), Formula::prim(BP::Bit(2))]),
            ]),
            Formula::not(Formula::and(vec![
                Formula::prim(BP::Bit(0)),
                Formula::nprim(BP::Bit(1)),
            ])),
        ]
    }

    /// Exhaustive differential: for every genuine counterexample, the
    /// interned kernel's DNF and restriction are *identical* (not just
    /// equivalent) to the tree path's.
    #[test]
    fn interned_matches_tree_exhaustively() {
        // Small beams exercise drop_k and the keep predicate, exhaustive
        // exercises the unpruned paths.
        let cfgs =
            [BeamConfig::with_k(1), BeamConfig::with_k(2), BeamConfig::default(), BeamConfig::exhaustive()];
        let mut compared = 0usize;
        for trace in &test_traces() {
            for not_q in &test_not_qs() {
                for cfg in &cfgs {
                    for p in 0..8u32 {
                        for d0 in 0..8u32 {
                            let tree = analyze_trace(&Bits, &p, &d0, trace, not_q, cfg);
                            let mut obs = ObsRegistry::default();
                            let mut cache = InternCache::new();
                            let fast = analyze_trace_interned(
                                &Bits, &p, &d0, trace, not_q, cfg, &mut cache, &mut obs,
                            );
                            match (tree, fast) {
                                (Ok(t), Ok(f)) => {
                                    assert_eq!(t, f.to_dnf(), "DNF diverged on {trace:?} p={p:b} d0={d0:b}");
                                    assert_eq!(
                                        restrict(&t, &d0),
                                        f.restrict(),
                                        "restriction diverged on {trace:?} p={p:b} d0={d0:b}"
                                    );
                                    compared += 1;
                                }
                                (Err(a), Err(b)) => assert_eq!(a, b),
                                (a, b) => panic!(
                                    "outcome diverged on {trace:?} p={p:b} d0={d0:b}: tree {a:?} vs interned {:?}",
                                    b.map(|f| f.to_dnf())
                                ),
                            }
                        }
                    }
                }
            }
        }
        assert!(compared >= 500, "expected broad coverage, got {compared}");
    }

    /// One shared cache across many traces, queries, abstractions, and
    /// initial states must produce exactly the fresh-cache outputs: the
    /// universe only ever grows, and a superset universe preserves the
    /// id-order isomorphism (module-doc invariant 1).
    #[test]
    fn cache_reuse_is_bit_identical_to_fresh() {
        let cfg = BeamConfig::default();
        let mut shared: InternCache<BP> = InternCache::new();
        let mut compared = 0usize;
        for trace in &test_traces() {
            for not_q in &test_not_qs() {
                for p in 0..4u32 {
                    for d0 in 0..4u32 {
                        let mut s1 = ObsRegistry::default();
                        let mut fresh = InternCache::new();
                        let a = analyze_trace_interned(
                            &Bits, &p, &d0, trace, not_q, &cfg, &mut fresh, &mut s1,
                        );
                        let mut s2 = ObsRegistry::default();
                        let b = analyze_trace_interned(
                            &Bits, &p, &d0, trace, not_q, &cfg, &mut shared, &mut s2,
                        );
                        match (a, b) {
                            (Ok(x), Ok(y)) => {
                                assert_eq!(x.to_dnf(), y.to_dnf(), "warm cache diverged on {trace:?}");
                                assert_eq!(x.restrict(), y.restrict());
                                compared += 1;
                            }
                            (Err(x), Err(y)) => assert_eq!(x, y),
                            (x, y) => panic!(
                                "outcome diverged on {trace:?}: fresh {:?} vs warm {:?}",
                                x.map(|f| f.to_dnf()),
                                y.map(|f| f.to_dnf())
                            ),
                        }
                    }
                }
            }
        }
        assert!(compared >= 100, "expected broad coverage, got {compared}");
    }

    /// A second call over the same trace/query — the shape of every CEGAR
    /// iteration after the first — must be served entirely from the
    /// cache: no wp misses, even under a different abstraction.
    #[test]
    fn warm_cache_serves_wp_without_misses() {
        let trace = [null(0), copy(1, 0), havoc(2), null(2)];
        let not_q = Formula::prim(BP::Bit(1));
        let cfg = BeamConfig::default();
        let mut cache = InternCache::new();
        let mut obs = ObsRegistry::default();
        analyze_trace_interned(&Bits, &0b1, &0, &trace, &not_q, &cfg, &mut cache, &mut obs)
            .unwrap();
        assert!(obs.get(Counter::WpMisses) > 0, "cold cache must miss: {obs:?}");
        let misses_after_cold = obs.get(Counter::WpMisses);
        analyze_trace_interned(&Bits, &0b10, &0b1, &trace, &not_q, &cfg, &mut cache, &mut obs)
            .unwrap();
        assert_eq!(
            obs.get(Counter::WpMisses),
            misses_after_cold,
            "warm cache must serve every wp from the memo: {obs:?}"
        );
        assert!(obs.get(Counter::WpHits) > 0);
    }

    #[test]
    fn wp_memo_hits_on_repeated_atoms() {
        // A long trace over a few distinct atoms: wp conversions must be
        // served from the memo after their first computation.
        let trace: Vec<Atom> = (0..12).map(|i| if i % 2 == 0 { null(0) } else { copy(1, 0) }).collect();
        let not_q = Formula::prim(BP::Bit(1));
        let mut obs = ObsRegistry::default();
        let p = 0b1u32;
        let mut cache = InternCache::new();
        let r = analyze_trace_interned(
            &Bits, &p, &0, &trace, &not_q, &BeamConfig::default(), &mut cache, &mut obs,
        );
        assert!(r.is_ok());
        assert!(obs.get(Counter::WpHits) > obs.get(Counter::WpMisses), "memo ineffective: {obs:?}");
        assert!(obs.get(Counter::CubesBuilt) > 0);
    }

    #[test]
    fn signature_fast_path_fires_on_trivial_matrices() {
        // BP uses the default implies/contradicts (identity/none), so the
        // table is trivial and disjoint signatures must short-circuit
        // subsumption checks.
        let not_q = Formula::or(vec![
            Formula::and(vec![Formula::prim(BP::Bit(0)), Formula::prim(BP::Bit(1))]),
            Formula::and(vec![Formula::prim(BP::Bit(2)), Formula::prim(BP::Bit(3))]),
            Formula::prim(BP::Bit(4)),
        ]);
        let trace = [null(0)];
        let mut obs = ObsRegistry::default();
        let mut cache = InternCache::new();
        let r = analyze_trace_interned(
            &Bits,
            &0b1,
            &0b11111,
            &trace,
            &not_q,
            &BeamConfig::exhaustive(),
            &mut cache,
            &mut obs,
        );
        assert!(r.is_ok());
        assert!(obs.get(Counter::SubsumptionFastRejects) > 0, "no fast rejects: {obs:?}");
        assert!(obs.get(Counter::SubsumptionFastRejects) <= obs.get(Counter::SubsumptionChecks));
    }

    /// A primitive with an *asymmetric* contradiction, to pin down the
    /// existing→new direction of the insert clash mirror and the matrix
    /// fallback in subsumption.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct AP(u8);

    impl fmt::Display for AP {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "a{}", self.0)
        }
    }

    impl Primitive for AP {
        type Param = u32;
        type State = u32;
        fn holds(&self, _p: &u32, d: &u32) -> bool {
            (d >> self.0) & 1 == 1
        }
        fn eval_state(&self, d: &u32) -> Option<bool> {
            Some((d >> self.0) & 1 == 1)
        }
        fn param_atom(&self) -> Option<(usize, bool)> {
            None
        }
        fn implies(&self, other: &Self) -> bool {
            // a0 ⇒ a1 (and reflexivity): a non-identity matrix.
            self == other || (self.0 == 0 && other.0 == 1)
        }
        fn contradicts(&self, other: &Self) -> bool {
            // Asymmetric on purpose: only a2 contradicts a3.
            self.0 == 2 && other.0 == 3
        }
    }

    #[test]
    fn nontrivial_matrices_mirror_tree_cube_ops() {
        // Build a table over prims a0..a3 via a formula mentioning them
        // all; no atoms are needed.
        struct C;
        impl MetaClient for C {
            type Prim = AP;
            fn transfer(&self, _p: &u32, _a: &Atom, d: &u32) -> u32 {
                *d
            }
            fn wp_prim(&self, _a: &Atom, prim: &AP) -> Formula<AP> {
                Formula::prim(*prim)
            }
        }
        let not_q = Formula::or(vec![
            Formula::prim(AP(0)),
            Formula::prim(AP(1)),
            Formula::prim(AP(2)),
            Formula::prim(AP(3)),
        ]);
        let mut cache: InternCache<AP> = InternCache::new();
        let (_, fresh) = cache.register_atoms(&[]);
        cache.close_universe(&C, &fresh, &not_q);
        cache.rebuild_table();
        let t = cache.table.as_ref().unwrap();
        assert!(t.any_contradiction);
        assert!(!t.trivial);

        let mk = |lits: &[(u8, bool)]| {
            let mut c = ICube::top();
            for &(i, pos) in lits {
                assert!(c.insert(plit(i as u32, pos), t));
            }
            c
        };
        let mk_tree = |lits: &[(u8, bool)]| {
            let mut c = Cube::top();
            for &(i, pos) in lits {
                assert!(c.insert(Lit { prim: AP(i), pos }));
            }
            c
        };
        let mut obs = ObsRegistry::default();
        // Implication through the non-identity matrix: {a0} ⇒ {a1}.
        assert!(mk(&[(0, true)]).implies(&mk(&[(1, true)]), t, &mut obs));
        assert!(!mk(&[(1, true)]).implies(&mk(&[(0, true)]), t, &mut obs));
        // Positive a2 implies ¬a3 via the contradiction matrix.
        assert!(mk(&[(2, true)]).implies(&mk(&[(3, false)]), t, &mut obs));
        // Insert clash direction: existing a2 clashes with new a3 …
        let mut c = mk(&[(2, true)]);
        assert!(!c.insert(plit(3, true), t));
        assert!(!mk_tree(&[(2, true)]).insert(Lit { prim: AP(3), pos: true }));
        // … but existing a3 accepts new a2 (the tree's asymmetry).
        let mut c = mk(&[(3, true)]);
        assert!(c.insert(plit(2, true), t));
        assert!(mk_tree(&[(3, true)]).insert(Lit { prim: AP(2), pos: true }));
        // Conjoin mirrors the same order-sensitivity.
        assert!(mk(&[(2, true)]).conjoin(&mk(&[(3, true)]), t).is_none());
        assert!(mk_tree(&[(2, true)]).conjoin(&mk_tree(&[(3, true)])).is_none());
    }

    /// Evicting unstable memo entries and measuring the cache are pure
    /// accelerator operations: byte estimates are deterministic, and a
    /// post-eviction re-run produces bit-identical output.
    #[test]
    fn approx_bytes_and_eviction_preserve_outputs() {
        let trace = [null(0), copy(1, 0), havoc(2), null(2)];
        let not_q = Formula::prim(BP::Bit(1));
        let cfg = BeamConfig::with_k(1);
        let mut cache = InternCache::new();
        assert_eq!(cache.approx_bytes(), InternCache::<BP>::new().approx_bytes());
        let mut obs = ObsRegistry::default();
        let a = analyze_trace_interned(&Bits, &0b1, &0, &trace, &not_q, &cfg, &mut cache, &mut obs)
            .unwrap();
        let warm = cache.approx_bytes();
        assert!(warm > 0);
        assert_eq!(warm, cache.approx_bytes(), "estimate must be deterministic");
        cache.evict_unstable();
        assert!(cache.approx_bytes() <= warm);
        let b = analyze_trace_interned(&Bits, &0b1, &0, &trace, &not_q, &cfg, &mut cache, &mut obs)
            .unwrap();
        assert_eq!(a.to_dnf(), b.to_dnf(), "eviction must not change outputs");
        assert_eq!(a.restrict(), b.restrict());
    }

    /// A primitive with default (identity) `implies` but a real
    /// `contradicts` pair — the escape domain's shape, where the table is
    /// `implies_identity` but not `trivial`. This is the tier whose
    /// fast-reject was historically dead (the full-signature check only
    /// guarded the `trivial` tier), so every production subsumption scan
    /// walked the literals.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct IP(u8);

    impl fmt::Display for IP {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "i{}", self.0)
        }
    }

    impl Primitive for IP {
        type Param = u32;
        type State = u32;
        fn holds(&self, _p: &u32, d: &u32) -> bool {
            (d >> self.0) & 1 == 1
        }
        fn eval_state(&self, d: &u32) -> Option<bool> {
            Some((d >> self.0) & 1 == 1)
        }
        fn param_atom(&self) -> Option<(usize, bool)> {
            None
        }
        fn contradicts(&self, other: &Self) -> bool {
            self.0 == 2 && other.0 == 3
        }
    }

    #[test]
    fn positive_signature_fast_rejects_on_identity_matrices() {
        struct C;
        impl MetaClient for C {
            type Prim = IP;
            fn transfer(&self, _p: &u32, _a: &Atom, d: &u32) -> u32 {
                *d
            }
            fn wp_prim(&self, _a: &Atom, prim: &IP) -> Formula<IP> {
                Formula::prim(*prim)
            }
        }
        let not_q = Formula::or(vec![
            Formula::prim(IP(0)),
            Formula::prim(IP(1)),
            Formula::prim(IP(2)),
            Formula::prim(IP(3)),
        ]);
        let mut cache: InternCache<IP> = InternCache::new();
        let (_, fresh) = cache.register_atoms(&[]);
        cache.close_universe(&C, &fresh, &not_q);
        cache.rebuild_table();
        let t = cache.table.as_ref().unwrap();
        assert!(t.implies_identity && t.any_contradiction && !t.trivial, "not the hedc shape");

        let mk = |lits: &[(u8, bool)]| {
            let mut c = ICube::top();
            for &(i, pos) in lits {
                assert!(c.insert(plit(i as u32, pos), t));
            }
            c
        };
        let mut obs = ObsRegistry::default();
        // Non-subsuming pair: {i0} cannot imply {i1} — i1's prim never
        // occurs in {i0}, so the positive-occurrence signature refutes it
        // in one word op.
        assert!(!mk(&[(0, true)]).implies(&mk(&[(1, true)]), t, &mut obs));
        assert_eq!(obs.get(Counter::SubsumptionFastRejects), 1, "fast reject must fire: {obs:?}");
        // The tree oracle agrees it is a non-implication.
        let mk_tree = |lits: &[(u8, bool)]| {
            let mut c = Cube::top();
            for &(i, pos) in lits {
                assert!(c.insert(Lit { prim: IP(i), pos }));
            }
            c
        };
        assert!(!mk_tree(&[(0, true)]).implies(&mk_tree(&[(1, true)])));
        // Negative literals are excluded from `pos_sig`: i2 ⇒ ¬i3 goes
        // through the contradiction fallback, never the reject.
        assert!(mk(&[(2, true)]).implies(&mk(&[(3, false)]), t, &mut obs));
        assert!(mk_tree(&[(2, true)]).implies(&mk_tree(&[(3, false)])));
        // A genuinely subsuming pair passes untouched.
        assert!(mk(&[(0, true), (1, true)]).implies(&mk(&[(0, true)]), t, &mut obs));
        assert_eq!(obs.get(Counter::SubsumptionFastRejects), 1, "only the non-pair rejects");
        assert_eq!(obs.get(Counter::SubsumptionChecks), 3);
    }

    /// On the toy bit client every atom writes one bit, so most steps
    /// of the test traces leave the current DNF alone: the skip must
    /// fire, and (as the exhaustive differential above already checks)
    /// change nothing but effort counters.
    #[test]
    fn skip_fires_and_saves_work_on_bits() {
        let trace = [null(3), havoc(4), null(0), copy(1, 0), havoc(2), null(5)];
        let not_q = Formula::prim(BP::Bit(1));
        let cfg = BeamConfig::default();
        let mut obs = ObsRegistry::default();
        let mut cache = InternCache::new();
        let r = analyze_trace_interned(&Bits, &0b1, &0, &trace, &not_q, &cfg, &mut cache, &mut obs)
            .unwrap();
        assert_eq!(r.to_dnf(), analyze_trace(&Bits, &0b1, &0, &trace, &not_q, &cfg).unwrap());
        // Only `copy(1, 0)` and `null(0)` touch the support.
        assert_eq!(obs.get(Counter::MetaStepsSkipped), 4, "{obs:?}");
    }

    /// Identity-wp client over [`AP`], whose `contradicts` is asymmetric.
    struct AsymC;

    impl MetaClient for AsymC {
        type Prim = AP;
        fn transfer(&self, _p: &u32, _a: &Atom, d: &u32) -> u32 {
            *d
        }
        fn wp_prim(&self, _a: &Atom, prim: &AP) -> Formula<AP> {
            Formula::prim(*prim)
        }
    }

    /// Under an asymmetric `contradicts` the skip stays off. It would not
    /// be exact: the cube `{a2, a3}` is built by inserting `a2` into
    /// `{a3}` (no clash in that direction), but the full step re-inserts
    /// in ascending order, `a3` into `{a2}`, which clashes — so the tree
    /// kernel loses membership at the last step, where a skip would not.
    #[test]
    fn asymmetric_contradicts_keeps_the_skip_off() {
        let cfg = BeamConfig::default();
        let not_qs = [
            Formula::and(vec![Formula::prim(AP(3)), Formula::prim(AP(2))]),
            Formula::or(vec![
                Formula::and(vec![Formula::prim(AP(3)), Formula::prim(AP(2))]),
                Formula::prim(AP(0)),
            ]),
            Formula::or(vec![
                Formula::prim(AP(1)),
                Formula::and(vec![Formula::prim(AP(2)), Formula::nprim(AP(3))]),
            ]),
        ];
        let traces: [&[Atom]; 3] = [&[havoc(5)], &[null(6), havoc(5)], &[]];
        let mut lost = 0;
        for not_q in &not_qs {
            for trace in traces {
                for d0 in 0..16u32 {
                    let tree = analyze_trace(&AsymC, &0, &d0, trace, not_q, &cfg);
                    let mut obs = ObsRegistry::default();
                    let mut cache = InternCache::new();
                    let fast = analyze_trace_interned(
                        &AsymC, &0, &d0, trace, not_q, &cfg, &mut cache, &mut obs,
                    );
                    assert!(!cache.table.as_ref().unwrap().contradicts_symmetric);
                    assert_eq!(obs.get(Counter::MetaStepsSkipped), 0, "skip must stay off");
                    match (tree, fast) {
                        (Ok(t), Ok(f)) => assert_eq!(t, f.to_dnf()),
                        (Err(a), Err(b)) => {
                            assert_eq!(a, b);
                            lost += 1;
                        }
                        (a, b) => panic!(
                            "outcome diverged on {trace:?} d0={d0:b}: tree {a:?} vs interned {:?}",
                            b.map(|f| f.to_dnf())
                        ),
                    }
                }
            }
        }
        // d0 with bits 2 and 3 set, non-empty trace, first query: the
        // clash fires in both kernels.
        assert!(lost > 0, "the clash case was never exercised");
    }

    /// A deliberately unsound client: wp claims every atom is the
    /// identity, while `havoc` actually flips its bit.
    struct Liar;

    impl MetaClient for Liar {
        type Prim = BP;
        fn transfer(&self, _p: &u32, atom: &Atom, d: &u32) -> u32 {
            match *atom {
                Atom::Havoc { dst } => d ^ (1 << dst.0),
                _ => *d,
            }
        }
        fn wp_prim(&self, _a: &Atom, prim: &BP) -> Formula<BP> {
            Formula::prim(*prim)
        }
    }

    /// Every step of the trace is skipped (wp is the identity
    /// everywhere), yet the Theorem 3 check still runs on each: the
    /// membership loss is reported at the same step as the tree kernel's.
    #[test]
    fn skipped_steps_still_check_membership() {
        let not_q = Formula::prim(BP::Bit(1));
        let cfg = BeamConfig::default();
        // states: 0, 0b10, 0b110, 0b10 — bit 1 appears at step 0's havoc.
        let trace = [havoc(1), havoc(2), havoc(2)];
        let tree = analyze_trace(&Liar, &0, &0, &trace, &not_q, &cfg);
        assert_eq!(tree, Err(MetaError::MembershipLost { step: 0 }));
        let mut obs = ObsRegistry::default();
        let mut cache = InternCache::new();
        let fast =
            analyze_trace_interned(&Liar, &0, &0, &trace, &not_q, &cfg, &mut cache, &mut obs);
        assert_eq!(fast.err(), Some(MetaError::MembershipLost { step: 0 }));
        assert_eq!(obs.get(Counter::MetaStepsSkipped), 3, "the failing step was skipped too");
        // The loss sits mid-trace when the flip does.
        let trace = [havoc(2), havoc(1), havoc(2)];
        let tree = analyze_trace(&Liar, &0, &0, &trace, &not_q, &cfg);
        assert_eq!(tree, Err(MetaError::MembershipLost { step: 1 }));
        let fast =
            analyze_trace_interned(&Liar, &0, &0, &trace, &not_q, &cfg, &mut cache, &mut obs);
        assert_eq!(fast.err(), Some(MetaError::MembershipLost { step: 1 }));
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[1, 2]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[1], &[]));
    }
}
