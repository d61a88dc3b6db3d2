//! Case tables: each atomic command as a disjoint, total list of guarded
//! symbolic updates, from which the backward weakest preconditions
//! (Figure 11) are derived and against which the direct forward transfer
//! (Figure 5) is tested.

use crate::domain::{Cell, Env, EscPrim, Val};
use pda_lang::Atom;
use pda_meta::Formula;
use pda_util::BitSet;

/// A symbolic right-hand side for one cell update.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rhs {
    /// A constant value.
    Const(Val),
    /// Copy of another (pre-state) cell.
    Copy(Cell),
    /// The abstraction's summary for a site: `L` if `p(h) = L` else `E`.
    Site(pda_lang::SiteId),
}

/// The effect of one case.
#[derive(Debug, Clone)]
pub(crate) enum Effect {
    /// Point updates (reads happen in the pre-state).
    Assign(Vec<(Cell, Rhs)>),
    /// The `esc` operator: an `L` object may have escaped.
    Esc,
}

/// A guard: conjunction of `d(cell) ∈ value-set` tests (mask bits from
/// [`Val::mask`]). Repeated cells intersect.
pub(crate) type Guard = Vec<(Cell, u8)>;

/// One guarded case.
#[derive(Debug, Clone)]
pub(crate) struct Case {
    pub guard: Guard,
    pub effect: Effect,
}

const NE: u8 = 0b101; // N or E

#[cfg(test)]
fn guard_matches(guard: &Guard, d: &Env) -> bool {
    guard.iter().all(|&(c, mask)| d.get(c).mask() & mask != 0)
}

/// The case table for `atom`. Cases are pairwise disjoint and total
/// (checked by tests over all small environments).
pub(crate) fn cases(atom: &Atom) -> Vec<Case> {
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
/// from the same case table: the union over cases of
/// `guard ∧ (post-condition pulled back through the update)`.
pub(crate) fn wp_cell(atom: &Atom, cell: Cell, val: Val) -> Formula<EscPrim> {
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
            Effect::Esc => match (cell, val) {
                (Cell::Var(_), Val::N) => F::prim(EscPrim::CellIs(cell, Val::N)),
                (Cell::Var(_), Val::E) => F::or(vec![
                    F::prim(EscPrim::CellIs(cell, Val::L)),
                    F::prim(EscPrim::CellIs(cell, Val::E)),
                ]),
                (Cell::Var(_), Val::L) => F::False,
                (Cell::Field(_), Val::N) => F::True,
                (Cell::Field(_), _) => F::False,
            },
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

    /// The client's wp fast paths (identity for cells an atom does not
    /// write) are exactly what the case table derives: same formula,
    /// not merely an equivalent one, since the meta kernel's output
    /// depends on wp syntax.
    #[test]
    fn client_wp_prim_matches_wp_cell() {
        use pda_tracer::TracerClient as _;
        let program = pda_lang::parse_program("fn main() { }").unwrap();
        let client = crate::EscapeClient::new(&program);
        let cells = [Cell::Var(VarId(0)), Cell::Var(VarId(1)), Cell::Field(FieldId(0))];
        for atom in sample_atoms() {
            for &cell in &cells {
                for &val in &Val::ALL {
                    assert_eq!(
                        client.wp_prim(&atom, &EscPrim::CellIs(cell, val)),
                        wp_cell(&atom, cell, val),
                        "atom {atom:?}, {cell}.{val}"
                    );
                }
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
