//! The escape client's transfer functions: the direct forward transfer
//! (Figure 5) and the direct weakest precondition (Figure 11), both
//! written out as a `match` on the atom. Beside them, test builds keep
//! each atomic command as a disjoint, total list of guarded symbolic
//! updates — the case tables — which are the oracle for both
//! directions: tests check the forward transfer against the tables'
//! reading and the weakest precondition against the formula the tables
//! derive.

use crate::domain::{Cell, Env, EscPrim, Val};
use pda_lang::Atom;
use pda_meta::Formula;
use pda_util::BitSet;

/// A symbolic right-hand side for one cell update.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
enum Rhs {
    /// A constant value.
    Const(Val),
    /// Copy of another (pre-state) cell.
    Copy(Cell),
    /// The abstraction's summary for a site: `L` if `p(h) = L` else `E`.
    Site(pda_lang::SiteId),
}

/// The effect of one case.
#[cfg(test)]
#[derive(Debug, Clone)]
enum Effect {
    /// Point updates (reads happen in the pre-state).
    Assign(Vec<(Cell, Rhs)>),
    /// The `esc` operator: an `L` object may have escaped.
    Esc,
}

/// A guard: conjunction of `d(cell) ∈ value-set` tests (mask bits from
/// [`Val::mask`]). Repeated cells intersect.
#[cfg(test)]
type Guard = Vec<(Cell, u8)>;

/// One guarded case.
#[cfg(test)]
#[derive(Debug, Clone)]
struct Case {
    guard: Guard,
    effect: Effect,
}

#[cfg(test)]
const NE: u8 = 0b101; // N or E

#[cfg(test)]
fn guard_matches(guard: &Guard, d: &Env) -> bool {
    guard.iter().all(|&(c, mask)| d.get(c).mask() & mask != 0)
}

/// The case table for `atom`. Cases are pairwise disjoint and total
/// (checked by tests over all small environments).
#[cfg(test)]
fn cases(atom: &Atom) -> Vec<Case> {
    let id = || vec![Case { guard: Vec::new(), effect: Effect::Assign(Vec::new()) }];
    match *atom {
        Atom::New { dst, site } => vec![Case {
            guard: Vec::new(),
            effect: Effect::Assign(vec![(Cell::Var(dst), Rhs::Site(site))]),
        }],
        Atom::Copy { dst, src } => vec![Case {
            guard: Vec::new(),
            effect: Effect::Assign(vec![(Cell::Var(dst), Rhs::Copy(Cell::Var(src)))]),
        }],
        Atom::Null { dst } => vec![Case {
            guard: Vec::new(),
            effect: Effect::Assign(vec![(Cell::Var(dst), Rhs::Const(Val::N))]),
        }],
        // Reading a global, or the result of an unanalyzed call: the
        // value may refer to anything another thread can reach.
        Atom::GGet { dst, .. } | Atom::Havoc { dst } => vec![Case {
            guard: Vec::new(),
            effect: Effect::Assign(vec![(Cell::Var(dst), Rhs::Const(Val::E))]),
        }],
        // Publishing via a global or starting a thread on the object:
        // if it was L, everything L may now be shared.
        Atom::GSet { src, .. } | Atom::Spawn { src } => vec![
            Case { guard: vec![(Cell::Var(src), Val::L.mask())], effect: Effect::Esc },
            Case {
                guard: vec![(Cell::Var(src), NE)],
                effect: Effect::Assign(Vec::new()),
            },
        ],
        Atom::Load { dst, base, field } => vec![
            Case {
                guard: vec![(Cell::Var(base), Val::L.mask())],
                effect: Effect::Assign(vec![(Cell::Var(dst), Rhs::Copy(Cell::Field(field)))]),
            },
            Case {
                guard: vec![(Cell::Var(base), NE)],
                effect: Effect::Assign(vec![(Cell::Var(dst), Rhs::Const(Val::E))]),
            },
        ],
        Atom::Store { base, field, src } => {
            let b = Cell::Var(base);
            let s = Cell::Var(src);
            let f = Cell::Field(field);
            let l = Val::L.mask();
            let n = Val::N.mask();
            let e = Val::E.mask();
            vec![
                // Storing into an L object: join src into the collective
                // field summary.
                Case {
                    guard: vec![(b, l), (f, n), (s, l)],
                    effect: Effect::Assign(vec![(f, Rhs::Const(Val::L))]),
                },
                Case {
                    guard: vec![(b, l), (f, l), (s, n)],
                    effect: Effect::Assign(Vec::new()), // {L, N} joins to L
                },
                Case {
                    guard: vec![(b, l), (f, n), (s, e)],
                    effect: Effect::Assign(vec![(f, Rhs::Const(Val::E))]),
                },
                Case {
                    guard: vec![(b, l), (f, e), (s, n)],
                    effect: Effect::Assign(Vec::new()), // {E, N} joins to E
                },
                Case { guard: vec![(b, l), (f, n), (s, n)], effect: Effect::Assign(Vec::new()) },
                Case { guard: vec![(b, l), (f, l), (s, l)], effect: Effect::Assign(Vec::new()) },
                Case { guard: vec![(b, l), (f, e), (s, e)], effect: Effect::Assign(Vec::new()) },
                // L and E values through the same field cannot be
                // summarized: escape (Figure 5's {L, E} case).
                Case { guard: vec![(b, l), (f, l), (s, e)], effect: Effect::Esc },
                Case { guard: vec![(b, l), (f, e), (s, l)], effect: Effect::Esc },
                // Storing an L object into an escaped (or unknown) base
                // escapes it.
                Case { guard: vec![(b, NE), (s, l)], effect: Effect::Esc },
                Case { guard: vec![(b, NE), (s, NE)], effect: Effect::Assign(Vec::new()) },
            ]
        }
        Atom::Invoke { .. } | Atom::Nop => id(),
    }
}

/// Forward transfer (Figure 5), written out directly: the hot path of
/// every forward run, so it reads only the cells its atom tests and never
/// builds the case table. Tests check it against [`interpret`] — the
/// table's own reading — on every small environment.
pub(crate) fn apply(p: &BitSet, atom: &Atom, d: &Env) -> Env {
    let set = |cell: Cell, v: Val| {
        let mut out = d.clone();
        out.set(cell, v);
        out
    };
    match *atom {
        Atom::New { dst, site } => {
            set(Cell::Var(dst), if p.contains(site.0 as usize) { Val::L } else { Val::E })
        }
        Atom::Copy { dst, src } => set(Cell::Var(dst), d.get(Cell::Var(src))),
        Atom::Null { dst } => set(Cell::Var(dst), Val::N),
        Atom::GGet { dst, .. } | Atom::Havoc { dst } => set(Cell::Var(dst), Val::E),
        Atom::GSet { src, .. } | Atom::Spawn { src } => {
            if d.get(Cell::Var(src)) == Val::L {
                d.escape_all()
            } else {
                d.clone()
            }
        }
        Atom::Load { dst, base, field } => {
            let v = if d.get(Cell::Var(base)) == Val::L {
                d.get(Cell::Field(field))
            } else {
                Val::E
            };
            set(Cell::Var(dst), v)
        }
        Atom::Store { base, field, src } => {
            let f = Cell::Field(field);
            let (b, fv, s) = (d.get(Cell::Var(base)), d.get(f), d.get(Cell::Var(src)));
            match (b, fv, s) {
                // Storing into an L object joins src into the collective
                // field summary; L and E through one field cannot be
                // summarized and escape.
                (Val::L, Val::N, Val::L | Val::E) => set(f, s),
                (Val::L, Val::L, Val::E) | (Val::L, Val::E, Val::L) => d.escape_all(),
                // Storing an L object into an escaped (or null) base
                // escapes it.
                (Val::N | Val::E, _, Val::L) => d.escape_all(),
                _ => d.clone(),
            }
        }
        Atom::Invoke { .. } | Atom::Nop => d.clone(),
    }
}

/// What a `Store` into an `L` base does, given the field's and the
/// source's values.
#[derive(Clone, Copy)]
enum StoreEffect {
    /// The field summary keeps its value.
    Keep,
    /// The field summary becomes the value.
    SetField(Val),
    /// `L` and `E` through one field: the `esc` operator.
    Esc,
}

/// `Store`'s cases on an `L` base as `(field value, src value, effect)`,
/// in the case table's order (the order is the formula's branch order).
const STORE_INTO_L: [(Val, Val, StoreEffect); 9] = [
    (Val::N, Val::L, StoreEffect::SetField(Val::L)),
    (Val::L, Val::N, StoreEffect::Keep),
    (Val::N, Val::E, StoreEffect::SetField(Val::E)),
    (Val::E, Val::N, StoreEffect::Keep),
    (Val::N, Val::N, StoreEffect::Keep),
    (Val::L, Val::L, StoreEffect::Keep),
    (Val::E, Val::E, StoreEffect::Keep),
    (Val::L, Val::E, StoreEffect::Esc),
    (Val::E, Val::L, StoreEffect::Esc),
];

/// Weakest precondition of `CellIs(cell, val)` across `atom` (Figure 11),
/// written out directly: the wp closure of every backward call asks it
/// for each `(atom, prim)` pair, so it never builds the case table.
///
/// It returns exactly the formula the table derives ([`wp_cell`], the
/// test oracle): the same constant folding, branch order and nested
/// `And([guard, post])` shape, not merely an equivalent formula, because
/// the meta kernel's DNF conversion and `drop_k` read the formula's
/// shape. Tests check this on every atom kind, cell and value.
pub(crate) fn wp(atom: &Atom, cell: Cell, val: Val) -> Formula<EscPrim> {
    use Formula as F;
    let keep = || is(cell, val);
    let set = |v: Val| if v == val { F::True } else { F::False };
    match *atom {
        Atom::New { dst, site } if cell == Cell::Var(dst) => match val {
            Val::L => F::prim(EscPrim::SiteIs(site, true)),
            Val::E => F::prim(EscPrim::SiteIs(site, false)),
            Val::N => F::False,
        },
        Atom::Copy { dst, src } if cell == Cell::Var(dst) => is(Cell::Var(src), val),
        Atom::Null { dst } if cell == Cell::Var(dst) => set(Val::N),
        Atom::GGet { dst, .. } | Atom::Havoc { dst } if cell == Cell::Var(dst) => set(Val::E),
        // A single unguarded update of another cell, or no update at all.
        Atom::New { .. }
        | Atom::Copy { .. }
        | Atom::Null { .. }
        | Atom::GGet { .. }
        | Atom::Havoc { .. }
        | Atom::Invoke { .. }
        | Atom::Nop => keep(),
        Atom::GSet { src, .. } | Atom::Spawn { src } => {
            let s = Cell::Var(src);
            F::or(vec![branch(is(s, Val::L), esc_post(cell, val)), branch(ne(s), keep())])
        }
        Atom::Load { dst, base, field } => {
            let b = Cell::Var(base);
            let (via_l, via_ne) = if cell == Cell::Var(dst) {
                (is(Cell::Field(field), val), set(Val::E))
            } else {
                (keep(), keep())
            };
            F::or(vec![branch(is(b, Val::L), via_l), branch(ne(b), via_ne)])
        }
        Atom::Store { base, field, src } => {
            let (b, f, s) = (Cell::Var(base), Cell::Field(field), Cell::Var(src));
            let mut branches = Vec::with_capacity(STORE_INTO_L.len() + 2);
            for &(fv, sv, effect) in &STORE_INTO_L {
                let post = match effect {
                    StoreEffect::SetField(v) if cell == f => set(v),
                    StoreEffect::Keep | StoreEffect::SetField(_) => keep(),
                    StoreEffect::Esc => esc_post(cell, val),
                };
                branches.push(branch(F::And(vec![is(b, Val::L), is(f, fv), is(s, sv)]), post));
            }
            branches.push(branch(F::And(vec![ne(b), is(s, Val::L)]), esc_post(cell, val)));
            branches.push(branch(F::And(vec![ne(b), ne(s)]), keep()));
            F::or(branches)
        }
    }
}

fn is(cell: Cell, val: Val) -> Formula<EscPrim> {
    Formula::prim(EscPrim::CellIs(cell, val))
}

/// The guard `d(cell) ∈ {N, E}`.
fn ne(cell: Cell) -> Formula<EscPrim> {
    Formula::Or(vec![is(cell, Val::N), is(cell, Val::E)])
}

/// One case's branch `guard ∧ post`, folded as `Formula::and` folds it
/// (a guard is never constant).
fn branch(guard: Formula<EscPrim>, post: Formula<EscPrim>) -> Formula<EscPrim> {
    match post {
        Formula::True => guard,
        Formula::False => Formula::False,
        post => Formula::And(vec![guard, post]),
    }
}

/// `CellIs(cell, val)` pulled back through the `esc` operator: a local
/// is `E` after it if it was non-null, a field is `N`.
fn esc_post(cell: Cell, val: Val) -> Formula<EscPrim> {
    match (cell, val) {
        (Cell::Var(_), Val::N) => is(cell, Val::N),
        (Cell::Var(_), Val::E) => Formula::Or(vec![is(cell, Val::L), is(cell, Val::E)]),
        (Cell::Var(_), Val::L) => Formula::False,
        (Cell::Field(_), Val::N) => Formula::True,
        (Cell::Field(_), _) => Formula::False,
    }
}

/// Forward transfer by interpreting the (unique) matching case of
/// [`cases`]: the reference [`apply`] is tested against.
#[cfg(test)]
fn interpret(p: &BitSet, atom: &Atom, d: &Env) -> Env {
    let table = cases(atom);
    let case = table
        .iter()
        .find(|c| guard_matches(&c.guard, d))
        .expect("case table must be total");
    match &case.effect {
        Effect::Esc => d.escape_all(),
        Effect::Assign(assigns) => {
            let mut out = d.clone();
            for &(cell, rhs) in assigns {
                let v = match rhs {
                    Rhs::Const(v) => v,
                    Rhs::Copy(c) => d.get(c),
                    Rhs::Site(h) => {
                        if p.contains(h.0 as usize) {
                            Val::L
                        } else {
                            Val::E
                        }
                    }
                };
                out.set(cell, v);
            }
            out
        }
    }
}

/// Weakest precondition of `CellIs(cell, val)` across `atom`, derived
/// from the case table: the union over cases of
/// `guard ∧ (post-condition pulled back through the update)`. The oracle
/// [`wp`] is tested against.
#[cfg(test)]
fn wp_cell(atom: &Atom, cell: Cell, val: Val) -> Formula<EscPrim> {
    use Formula as F;
    let mut branches = Vec::new();
    for case in cases(atom) {
        let guard_f = F::and(
            case.guard
                .iter()
                .map(|&(c, mask)| {
                    F::or(
                        Val::ALL
                            .iter()
                            .filter(|v| v.mask() & mask != 0)
                            .map(|&v| F::prim(EscPrim::CellIs(c, v)))
                            .collect(),
                    )
                })
                .collect(),
        );
        let post = match &case.effect {
            Effect::Esc => esc_post(cell, val),
            Effect::Assign(assigns) => match assigns.iter().find(|(c, _)| *c == cell) {
                None => F::prim(EscPrim::CellIs(cell, val)),
                Some(&(_, rhs)) => match rhs {
                    Rhs::Const(v) => {
                        if v == val {
                            F::True
                        } else {
                            F::False
                        }
                    }
                    Rhs::Copy(c2) => F::prim(EscPrim::CellIs(c2, val)),
                    Rhs::Site(h) => match val {
                        Val::L => F::prim(EscPrim::SiteIs(h, true)),
                        Val::E => F::prim(EscPrim::SiteIs(h, false)),
                        Val::N => F::False,
                    },
                },
            },
        };
        branches.push(F::and(vec![guard_f, post]));
    }
    F::or(branches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_lang::{FieldId, SiteId, VarId};

    fn all_envs(n_vars: usize, n_fields: usize) -> Vec<Env> {
        let n = n_vars + n_fields;
        let mut out = Vec::new();
        for mut code in 0..3usize.pow(n as u32) {
            let mut d = Env::initial(n_vars, n_fields);
            for i in 0..n {
                let v = Val::ALL[code % 3];
                code /= 3;
                let cell = if i < n_vars {
                    Cell::Var(VarId(i as u32))
                } else {
                    Cell::Field(FieldId((i - n_vars) as u32))
                };
                d.set(cell, v);
            }
            out.push(d);
        }
        out
    }

    fn sample_atoms() -> Vec<Atom> {
        let v0 = VarId(0);
        let v1 = VarId(1);
        let f0 = FieldId(0);
        vec![
            Atom::New { dst: v0, site: SiteId(0) },
            Atom::New { dst: v1, site: SiteId(1) },
            Atom::Copy { dst: v0, src: v1 },
            Atom::Copy { dst: v1, src: v1 },
            Atom::Null { dst: v0 },
            Atom::GGet { dst: v1, global: pda_lang::GlobalId(0) },
            Atom::GSet { global: pda_lang::GlobalId(0), src: v0 },
            Atom::Spawn { src: v1 },
            Atom::Havoc { dst: v0 },
            Atom::Load { dst: v0, base: v1, field: f0 },
            Atom::Load { dst: v1, base: v1, field: f0 },
            Atom::Store { base: v0, field: f0, src: v1 },
            Atom::Store { base: v1, field: f0, src: v1 }, // base == src
            Atom::Invoke { recv: v0, method: pda_lang::NameId(0) },
            Atom::Nop,
        ]
    }

    /// Figure 5 requires a deterministic transfer: exactly one case of
    /// every table applies to every state.
    #[test]
    fn tables_are_disjoint_and_total() {
        for atom in sample_atoms() {
            let table = cases(&atom);
            for d in all_envs(2, 1) {
                let n = table.iter().filter(|c| guard_matches(&c.guard, &d)).count();
                assert_eq!(n, 1, "atom {atom:?} has {n} matching cases for {d:?}");
            }
        }
    }

    /// The direct transfer is the table's reading, exhaustively: every
    /// sampled atom, every environment over 2 variables and 1 field, and
    /// all four parameters over 2 sites.
    #[test]
    fn direct_apply_matches_table_interpretation() {
        for atom in sample_atoms() {
            for pbits in 0..4u32 {
                let p = BitSet::from_iter(2, (0..2).filter(|i| (pbits >> i) & 1 == 1));
                for d in all_envs(2, 1) {
                    assert_eq!(
                        apply(&p, &atom, &d),
                        interpret(&p, &atom, &d),
                        "atom {atom:?}, p={p}, d={d:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn store_into_local_joins_field_summary() {
        let p = BitSet::new(2);
        let v0 = Cell::Var(VarId(0));
        let v1 = Cell::Var(VarId(1));
        let f0 = Cell::Field(FieldId(0));
        let mut d = Env::initial(2, 1);
        d.set(v0, Val::L);
        d.set(v1, Val::L);
        let out = apply(&p, &Atom::Store { base: VarId(0), field: FieldId(0), src: VarId(1) }, &d);
        assert_eq!(out.get(f0), Val::L); // {N, L} joins to L

        // Now store an E value through the same field: mixed {L, E} escapes.
        let mut d2 = out;
        d2.set(v1, Val::E);
        let out2 = apply(&p, &Atom::Store { base: VarId(0), field: FieldId(0), src: VarId(1) }, &d2);
        assert_eq!(out2.get(v0), Val::E); // esc flips locals
        assert_eq!(out2.get(f0), Val::N); // esc resets fields
    }

    #[test]
    fn store_into_escaped_base_escapes_source() {
        let p = BitSet::new(2);
        let mut d = Env::initial(2, 1);
        d.set(Cell::Var(VarId(0)), Val::E);
        d.set(Cell::Var(VarId(1)), Val::L);
        let out = apply(&p, &Atom::Store { base: VarId(0), field: FieldId(0), src: VarId(1) }, &d);
        assert_eq!(out.get(Cell::Var(VarId(1))), Val::E);
    }

    #[test]
    fn load_from_escaped_base_gives_e() {
        let p = BitSet::new(2);
        let mut d = Env::initial(2, 1);
        d.set(Cell::Var(VarId(1)), Val::E);
        d.set(Cell::Field(FieldId(0)), Val::L);
        let out = apply(&p, &Atom::Load { dst: VarId(0), base: VarId(1), field: FieldId(0) }, &d);
        assert_eq!(out.get(Cell::Var(VarId(0))), Val::E);
    }

    #[test]
    fn new_uses_parameter() {
        let d = Env::initial(1, 0);
        let a = Atom::New { dst: VarId(0), site: SiteId(0) };
        let p_l = BitSet::from_iter(1, [0]);
        let p_e = BitSet::new(1);
        assert_eq!(apply(&p_l, &a, &d).get(Cell::Var(VarId(0))), Val::L);
        assert_eq!(apply(&p_e, &a, &d).get(Cell::Var(VarId(0))), Val::E);
    }

    #[test]
    fn gset_of_local_escapes_everything() {
        let p = BitSet::new(1);
        let mut d = Env::initial(2, 1);
        d.set(Cell::Var(VarId(0)), Val::L);
        d.set(Cell::Var(VarId(1)), Val::L);
        d.set(Cell::Field(FieldId(0)), Val::L);
        let out = apply(&p, &Atom::GSet { global: pda_lang::GlobalId(0), src: VarId(0) }, &d);
        assert_eq!(out.get(Cell::Var(VarId(0))), Val::E);
        assert_eq!(out.get(Cell::Var(VarId(1))), Val::E);
        assert_eq!(out.get(Cell::Field(FieldId(0))), Val::N);
        // Publishing an already-escaped or null value is a no-op.
        let mut d2 = Env::initial(2, 1);
        d2.set(Cell::Var(VarId(0)), Val::E);
        d2.set(Cell::Var(VarId(1)), Val::L);
        let out2 = apply(&p, &Atom::GSet { global: pda_lang::GlobalId(0), src: VarId(0) }, &d2);
        assert_eq!(out2.get(Cell::Var(VarId(1))), Val::L);
    }

    /// Every atom over variables `v0..v2`, fields `f0`, `f1` and two
    /// sites, each operand tuple in turn — aliased operands included
    /// (`Copy` with dst == src, `Load` with dst == base, `Store` with
    /// base == src).
    fn every_atom() -> Vec<Atom> {
        let vars = || (0..3).map(VarId);
        let fields = || (0..2).map(FieldId);
        let g = pda_lang::GlobalId(0);
        let mut out = vec![Atom::Nop];
        for v in vars() {
            out.push(Atom::Null { dst: v });
            out.push(Atom::GGet { dst: v, global: g });
            out.push(Atom::GSet { global: g, src: v });
            out.push(Atom::Spawn { src: v });
            out.push(Atom::Havoc { dst: v });
            out.push(Atom::Invoke { recv: v, method: pda_lang::NameId(0) });
            for h in 0..2 {
                out.push(Atom::New { dst: v, site: SiteId(h) });
            }
            for w in vars() {
                out.push(Atom::Copy { dst: v, src: w });
                for f in fields() {
                    out.push(Atom::Load { dst: v, base: w, field: f });
                    out.push(Atom::Store { base: v, field: f, src: w });
                }
            }
        }
        out
    }

    /// The client's direct wp is exactly what the case table derives:
    /// the same formula, not merely an equivalent one, since the meta
    /// kernel's output depends on wp syntax. Checked on every atom of
    /// [`every_atom`], every cell it can read or write, and every value.
    #[test]
    fn client_wp_prim_matches_wp_cell() {
        use pda_tracer::TracerClient as _;
        let program = pda_lang::parse_program("fn main() { }").unwrap();
        let client = crate::EscapeClient::new(&program);
        let cells: Vec<Cell> = (0..3)
            .map(|v| Cell::Var(VarId(v)))
            .chain((0..2).map(|f| Cell::Field(FieldId(f))))
            .collect();
        for atom in every_atom() {
            for &cell in &cells {
                for &val in &Val::ALL {
                    assert_eq!(
                        client.wp_prim(&atom, &EscPrim::CellIs(cell, val)),
                        wp_cell(&atom, cell, val),
                        "atom {atom:?}, {cell}.{val}"
                    );
                }
            }
            for h in 0..2 {
                let site = EscPrim::SiteIs(SiteId(h), h == 0);
                assert_eq!(client.wp_prim(&atom, &site), Formula::prim(site));
            }
        }
    }

    /// Requirement (2), exhaustively: σ(wp_cell(a, c, o)) is the exact
    /// preimage of `{d | d(c) = o}` under the forward transfer, for all
    /// sampled atoms, cells, values, parameters, and environments.
    #[test]
    fn wp_is_exact_exhaustively() {
        use pda_meta::Primitive as _;
        let cells = [Cell::Var(VarId(0)), Cell::Var(VarId(1)), Cell::Field(FieldId(0))];
        for atom in sample_atoms() {
            for &cell in &cells {
                for &val in &Val::ALL {
                    let wp = wp_cell(&atom, cell, val);
                    for pbits in 0..4u32 {
                        let p = BitSet::from_iter(2, (0..2).filter(|i| (pbits >> i) & 1 == 1));
                        for d in all_envs(2, 1) {
                            let post = apply(&p, &atom, &d);
                            let want = EscPrim::CellIs(cell, val).holds(&p, &post);
                            let got = wp.holds(&p, &d);
                            assert_eq!(
                                want, got,
                                "wp mismatch: atom {atom:?}, {cell}.{val}, p={p}, d={d:?}, wp={wp}"
                            );
                        }
                    }
                }
            }
        }
    }
}
