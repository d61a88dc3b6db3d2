//! The thread-escape abstract domain: values, environments, primitives.

use pda_lang::{FieldId, SiteId, VarId};
use pda_meta::Primitive;
use pda_util::BitSet;
use std::fmt;

/// An abstract value: definitely null, local-or-null, escaping-or-null.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Val {
    /// Definitely null.
    N = 0,
    /// Points to a thread-local object (or null).
    L = 1,
    /// Points to a possibly-escaping object (or null).
    E = 2,
}

impl Val {
    /// All three values, for enumeration in tests and tables.
    pub const ALL: [Val; 3] = [Val::N, Val::L, Val::E];

    /// Bitmask singleton used in the case tables' guard value-sets.
    #[cfg(test)]
    pub(crate) fn mask(self) -> u8 {
        1 << (self as u8)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::N => write!(f, "N"),
            Val::L => write!(f, "L"),
            Val::E => write!(f, "E"),
        }
    }
}

/// A tracked storage cell: a local variable or an object field
/// (field-based over `L`-summarized objects, as in Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    /// A local variable.
    Var(VarId),
    /// An object field.
    Field(FieldId),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Var(v) => write!(f, "v{v}"),
            Cell::Field(x) => write!(f, "f{x}"),
        }
    }
}

/// The abstract state `d : (Locals ∪ Fields) → {L, E, N}`.
///
/// Stored densely: variables first, then fields. The environment's shape
/// (`n_vars`) is fixed per client instance.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Env {
    n_vars: usize,
    cells: Vec<Val>,
}

/// Hashes the shape, then the cells packed 2 bits each into `u64` words
/// (32 cells a word), so a forward run's state table hashes an
/// environment in a handful of word writes rather than one write per
/// cell. Equal environments (the derived `Eq`) have equal shapes and
/// cells, hence equal packed words and equal hashes.
impl std::hash::Hash for Env {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.n_vars);
        state.write_usize(self.cells.len());
        for chunk in self.cells.chunks(32) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &v)| w | (v as u64) << (2 * i));
            state.write_u64(word);
        }
    }
}

impl Env {
    /// The all-`N` environment (program entry: locals null, fields of
    /// future `L`-objects null).
    pub fn initial(n_vars: usize, n_fields: usize) -> Env {
        Env { n_vars, cells: vec![Val::N; n_vars + n_fields] }
    }

    fn index(&self, c: Cell) -> usize {
        match c {
            Cell::Var(v) => v.0 as usize,
            Cell::Field(f) => self.n_vars + f.0 as usize,
        }
    }

    /// Reads a cell.
    pub fn get(&self, c: Cell) -> Val {
        self.cells[self.index(c)]
    }

    /// Writes a cell (builder-style, by value).
    pub fn set(&mut self, c: Cell, v: Val) {
        let i = self.index(c);
        self.cells[i] = v;
    }

    /// The `esc` operator of Figure 5: every non-null local flips to `E`;
    /// all field knowledge resets to `N` (field tracking restarts for
    /// objects allocated after the escape).
    pub fn escape_all(&self) -> Env {
        let mut out = self.clone();
        for i in 0..out.cells.len() {
            if i < self.n_vars {
                if out.cells[i] != Val::N {
                    out.cells[i] = Val::E;
                }
            } else {
                out.cells[i] = Val::N;
            }
        }
        out
    }

    /// Number of variable cells.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of field cells.
    pub fn n_fields(&self) -> usize {
        self.cells.len() - self.n_vars
    }

    /// Iterates `(cell, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Cell, Val)> + '_ {
        (0..self.cells.len()).map(|i| {
            let cell = if i < self.n_vars {
                Cell::Var(VarId(i as u32))
            } else {
                Cell::Field(FieldId((i - self.n_vars) as u32))
            };
            (cell, self.cells[i])
        })
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (c, v)) in self.iter().enumerate() {
            if v == Val::N {
                continue; // keep dumps readable: N is the default
            }
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}↦{v}")?;
        }
        write!(f, "]")
    }
}

/// Primitive formulas of the thread-escape meta-domain (the paper's
/// `h.o`, `v.o`, `f.o`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EscPrim {
    /// `d(cell) = val`.
    CellIs(Cell, Val),
    /// `p(h) = L` (`true`) or `p(h) = E` (`false`).
    SiteIs(SiteId, bool),
}

impl fmt::Display for EscPrim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EscPrim::CellIs(c, v) => write!(f, "{c}.{v}"),
            EscPrim::SiteIs(h, true) => write!(f, "h{h}.L"),
            EscPrim::SiteIs(h, false) => write!(f, "h{h}.E"),
        }
    }
}

impl Primitive for EscPrim {
    type Param = BitSet;
    type State = Env;

    fn holds(&self, p: &BitSet, d: &Env) -> bool {
        match *self {
            EscPrim::CellIs(c, v) => d.get(c) == v,
            EscPrim::SiteIs(h, is_l) => p.contains(h.0 as usize) == is_l,
        }
    }

    fn eval_state(&self, d: &Env) -> Option<bool> {
        match *self {
            EscPrim::CellIs(c, v) => Some(d.get(c) == v),
            EscPrim::SiteIs(..) => None,
        }
    }

    fn param_atom(&self) -> Option<(usize, bool)> {
        match *self {
            EscPrim::CellIs(..) => None,
            EscPrim::SiteIs(h, is_l) => Some((h.0 as usize, is_l)),
        }
    }

    fn contradicts(&self, other: &Self) -> bool {
        match (*self, *other) {
            (EscPrim::CellIs(c1, v1), EscPrim::CellIs(c2, v2)) => c1 == c2 && v1 != v2,
            (EscPrim::SiteIs(h1, b1), EscPrim::SiteIs(h2, b2)) => h1 == h2 && b1 != b2,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_get_set_roundtrip() {
        let mut d = Env::initial(2, 1);
        assert_eq!(d.get(Cell::Var(VarId(1))), Val::N);
        d.set(Cell::Var(VarId(1)), Val::L);
        d.set(Cell::Field(FieldId(0)), Val::E);
        assert_eq!(d.get(Cell::Var(VarId(1))), Val::L);
        assert_eq!(d.get(Cell::Field(FieldId(0))), Val::E);
        assert_eq!(d.get(Cell::Var(VarId(0))), Val::N);
    }

    #[test]
    fn escape_all_matches_figure5() {
        let mut d = Env::initial(3, 2);
        d.set(Cell::Var(VarId(0)), Val::L);
        d.set(Cell::Var(VarId(1)), Val::E);
        d.set(Cell::Field(FieldId(0)), Val::L);
        d.set(Cell::Field(FieldId(1)), Val::E);
        let e = d.escape_all();
        assert_eq!(e.get(Cell::Var(VarId(0))), Val::E); // L → E
        assert_eq!(e.get(Cell::Var(VarId(1))), Val::E); // E → E
        assert_eq!(e.get(Cell::Var(VarId(2))), Val::N); // N stays N
        assert_eq!(e.get(Cell::Field(FieldId(0))), Val::N); // fields reset
        assert_eq!(e.get(Cell::Field(FieldId(1))), Val::N);
    }

    #[test]
    fn prim_semantics() {
        let p = BitSet::from_iter(2, [0]);
        let mut d = Env::initial(1, 0);
        d.set(Cell::Var(VarId(0)), Val::E);
        assert!(EscPrim::CellIs(Cell::Var(VarId(0)), Val::E).holds(&p, &d));
        assert!(!EscPrim::CellIs(Cell::Var(VarId(0)), Val::L).holds(&p, &d));
        assert!(EscPrim::SiteIs(SiteId(0), true).holds(&p, &d));
        assert!(EscPrim::SiteIs(SiteId(1), false).holds(&p, &d));
        assert_eq!(EscPrim::SiteIs(SiteId(0), true).eval_state(&d), None);
        assert_eq!(EscPrim::SiteIs(SiteId(0), true).param_atom(), Some((0, true)));
        assert_eq!(EscPrim::SiteIs(SiteId(1), false).param_atom(), Some((1, false)));
    }

    #[test]
    fn contradictions() {
        let c = Cell::Var(VarId(0));
        assert!(EscPrim::CellIs(c, Val::N).contradicts(&EscPrim::CellIs(c, Val::E)));
        assert!(!EscPrim::CellIs(c, Val::N).contradicts(&EscPrim::CellIs(Cell::Var(VarId(1)), Val::E)));
        assert!(EscPrim::SiteIs(SiteId(0), true).contradicts(&EscPrim::SiteIs(SiteId(0), false)));
    }

    /// The interned meta-kernel evaluates `param_atom`/`eval_state` once
    /// per primitive at intern time and precomputes `implies`/`contradicts`
    /// into per-trace matrices — all four must therefore be pure, and
    /// `contradicts` must be symmetric and sound (never claimed for a
    /// jointly satisfiable pair). Checked exhaustively over a small
    /// universe: 2 vars, 1 field, 2 sites.
    #[test]
    fn intern_contract_holds_exhaustively() {
        let mut prims = vec![];
        for c in [Cell::Var(VarId(0)), Cell::Var(VarId(1)), Cell::Field(FieldId(0))] {
            for v in Val::ALL {
                prims.push(EscPrim::CellIs(c, v));
            }
        }
        for h in [SiteId(0), SiteId(1)] {
            for b in [true, false] {
                prims.push(EscPrim::SiteIs(h, b));
            }
        }
        let envs: Vec<Env> = (0..27u32)
            .map(|code| {
                let mut d = Env::initial(2, 1);
                d.set(Cell::Var(VarId(0)), Val::ALL[(code % 3) as usize]);
                d.set(Cell::Var(VarId(1)), Val::ALL[(code / 3 % 3) as usize]);
                d.set(Cell::Field(FieldId(0)), Val::ALL[(code / 9) as usize]);
                d
            })
            .collect();
        let params: Vec<BitSet> =
            (0..4u32).map(|bits| BitSet::from_iter(2, (0..2).filter(|i| (bits >> i) & 1 == 1))).collect();
        for a in &prims {
            assert_eq!(a.param_atom(), a.param_atom());
            for d in &envs {
                assert_eq!(a.eval_state(d), a.eval_state(d));
            }
            for b in &prims {
                assert_eq!(a.contradicts(b), a.contradicts(b));
                assert_eq!(a.contradicts(b), b.contradicts(a), "{a} vs {b}");
                assert_eq!(a.implies(b), a.implies(b));
                if a.contradicts(b) {
                    for p in &params {
                        for d in &envs {
                            assert!(
                                !(a.holds(p, d) && b.holds(p, d)),
                                "{a} and {b} both hold under p={p}, d={d:?}"
                            );
                        }
                    }
                }
                if a.implies(b) {
                    for p in &params {
                        for d in &envs {
                            assert!(!a.holds(p, d) || b.holds(p, d), "{a} ⇒ {b} broken");
                        }
                    }
                }
            }
        }
    }

    /// `a == b ⇒ hash(a) == hash(b)` for the packed hash, over every
    /// environment of 2 variables and 1 field and across shapes with the
    /// same cell count; unequal environments of one shape hash apart.
    #[test]
    fn equal_envs_hash_equal() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        type Sip = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
        let all = |n_vars: usize, n_fields: usize| -> Vec<Env> {
            let n = n_vars + n_fields;
            (0..3usize.pow(n as u32))
                .map(|mut code| {
                    let mut d = Env::initial(n_vars, n_fields);
                    for i in 0..n {
                        d.cells[i] = Val::ALL[code % 3];
                        code /= 3;
                    }
                    d
                })
                .collect()
        };
        let mut envs = all(2, 1);
        envs.extend(all(1, 2));
        envs.extend(all(0, 3));
        // Long environments spanning more than one packed word.
        let mut wide = Env::initial(40, 30);
        wide.set(Cell::Field(FieldId(29)), Val::E);
        envs.push(wide.clone());
        wide.set(Cell::Var(VarId(33)), Val::L);
        envs.push(wide);
        for a in &envs {
            for b in &envs {
                let (fa, fb) = (pda_util::fx_hash(a), pda_util::fx_hash(b));
                let (sa, sb) = (Sip::default().hash_one(a), Sip::default().hash_one(b));
                if a == b {
                    assert_eq!(fa, fb, "{a:?}");
                    assert_eq!(sa, sb, "{a:?}");
                } else if a.n_vars == b.n_vars && a.cells.len() == b.cells.len() {
                    assert_ne!(fa, fb, "{a:?} vs {b:?}");
                }
            }
            assert_eq!(a, &a.clone());
            assert_eq!(pda_util::fx_hash(a), pda_util::fx_hash(&a.clone()));
        }
    }

    #[test]
    fn debug_env_is_compact() {
        let mut d = Env::initial(2, 0);
        d.set(Cell::Var(VarId(1)), Val::L);
        let s = format!("{d:?}");
        assert!(s.contains("v1↦L"));
        assert!(!s.contains("v0"));
    }
}
