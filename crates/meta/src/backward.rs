//! The backward driver `B[t]` (Figure 7) and the restriction of its result
//! to a parameter formula.

use crate::approx::{approx_obs, to_dnf_obs, BeamConfig};
use crate::formula::{Cube, Dnf, Formula, Primitive};
use pda_lang::Atom;
use pda_solver::PFormula;
use pda_util::{ObsRegistry, Span, SpanKind};
use std::fmt;

/// Convenience alias: the parameter type of a [`MetaClient`].
pub type ParamOf<C> = <<C as MetaClient>::Prim as Primitive>::Param;
/// Convenience alias: the state type of a [`MetaClient`].
pub type StateOf<C> = <<C as MetaClient>::Prim as Primitive>::State;

/// A client of the backward meta-analysis: the forward transfer functions
/// (used to replay the trace) and per-primitive weakest preconditions.
///
/// # Soundness obligation
///
/// `wp_prim(a, π)` must denote the **exact preimage** of `σ(π)` under the
/// forward transfer (the paper's requirement (2)):
///
/// ```text
/// σ(wp_prim(a, π)) = { (p, d) | (p, ⟦a⟧_p(d)) ∈ σ(π) }
/// ```
///
/// Exactness (not just soundness) is what lets the driver extend wp over
/// negation homomorphically. [`check_wp_exact`] verifies the obligation
/// pointwise and backs the clients' property tests.
pub trait MetaClient {
    /// The primitive formula alphabet of this client's meta-domain.
    type Prim: Primitive;

    /// The forward transfer `⟦atom⟧_p(d)` (must match the client's
    /// `ParametricAnalysis` implementation exactly).
    fn transfer(&self, p: &ParamOf<Self>, atom: &Atom, d: &StateOf<Self>) -> StateOf<Self>;

    /// Weakest precondition of a positive primitive across `atom`.
    fn wp_prim(&self, atom: &Atom, prim: &Self::Prim) -> Formula<Self::Prim>;
}

/// Failures of the backward analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// The `(p, dᵢ)` membership invariant of Theorem 3 broke at trace
    /// index `step` — this indicates a wp/transfer mismatch in the client
    /// (or a non-counterexample trace) and is surfaced loudly rather than
    /// silently producing unsound prunings.
    MembershipLost {
        /// Index into the trace at which the invariant broke (trace
        /// length = position of the query point).
        step: usize,
    },
}

impl fmt::Display for MetaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaError::MembershipLost { step } => {
                write!(f, "meta-analysis membership invariant lost at trace step {step}")
            }
        }
    }
}

impl std::error::Error for MetaError {}

/// Weakest precondition of a whole DNF across one atom.
///
/// Per cube: conjoin the per-literal preconditions (`wp(¬π) = ¬wp(π)` by
/// exactness) and re-normalize; the union over cubes is the result.
/// `keep` guides emergency pruning on blowup.
fn wp_dnf<C: MetaClient>(
    client: &C,
    atom: &Atom,
    dnf: &Dnf<C::Prim>,
    cfg: &BeamConfig,
    keep: &dyn Fn(&Cube<C::Prim>) -> bool,
    obs: &mut ObsRegistry,
) -> Dnf<C::Prim> {
    let mut out: Vec<Cube<C::Prim>> = Vec::new();
    for cube in &dnf.0 {
        let parts: Vec<Formula<C::Prim>> = cube
            .lits()
            .map(|l| {
                let wp = client.wp_prim(atom, &l.prim);
                if l.pos {
                    wp
                } else {
                    Formula::not(wp)
                }
            })
            .collect();
        let f = Formula::and(parts);
        out.extend(to_dnf_obs(&f, cfg, keep, obs).0);
    }
    Dnf(out)
}

/// The backward meta-analysis `B[t](p, d_I, not_q)` of Figure 7.
///
/// Replays the forward analysis along `trace` to obtain the intermediate
/// states `d_0 … d_n`, seeds the formula with `not_q` (the weakest
/// condition under which the query fails at the end of the trace), then
/// walks backward applying `wp` and `approx` at every step. The result is
/// a sufficient condition *at the start of the trace* for the forward
/// analysis to fail — over both state and parameter primitives.
///
/// # Errors
///
/// [`MetaError::MembershipLost`] if the Theorem 3 invariant
/// `(p, dᵢ) ∈ σ(fᵢ)` is ever violated, which indicates an unsound client.
pub fn analyze_trace<C: MetaClient>(
    client: &C,
    p: &ParamOf<C>,
    d_init: &StateOf<C>,
    trace: &[Atom],
    not_q: &Formula<C::Prim>,
    cfg: &BeamConfig,
) -> Result<Dnf<C::Prim>, MetaError>
where
    StateOf<C>: Clone,
{
    // Effort counters are meters of the production kernel; the
    // reference walk records into a throwaway registry.
    let obs = &mut ObsRegistry::default();
    // Replay forward: states[i] arrives before trace[i]; states[n] is final.
    let mut states: Vec<StateOf<C>> = Vec::with_capacity(trace.len() + 1);
    states.push(d_init.clone());
    for a in trace {
        let next = client.transfer(p, a, states.last().unwrap());
        states.push(next);
    }
    let n = trace.len();
    let keep_n = |c: &Cube<C::Prim>| c.holds(p, &states[n]);
    let mut f = to_dnf_obs(not_q, cfg, &keep_n, obs);
    let span = Span::enter(obs, SpanKind::Approx);
    let approxed = approx_obs(p, &states[n], f, cfg, obs);
    span.exit(obs);
    f = approxed.ok_or(MetaError::MembershipLost { step: n })?;
    for i in (0..n).rev() {
        let keep_i = |c: &Cube<C::Prim>| c.holds(p, &states[i]);
        f = wp_dnf(client, &trace[i], &f, cfg, &keep_i, obs);
        let span = Span::enter(obs, SpanKind::Approx);
        let approxed = approx_obs(p, &states[i], f, cfg, obs);
        span.exit(obs);
        f = approxed.ok_or(MetaError::MembershipLost { step: i })?;
    }
    Ok(f)
}

/// Restricts a trace-entry formula to the parameter: evaluates every
/// state primitive at `d_I` and keeps parameter primitives symbolic,
/// yielding the solver formula for the unviable-abstraction set
/// `Φ = { p' | (p', d_I) ∈ σ(f) }` (Algorithm 1, line 14).
pub fn restrict<P: Primitive>(dnf: &Dnf<P>, d_init: &P::State) -> PFormula {
    let mut cubes = Vec::new();
    'cube: for cube in &dnf.0 {
        let mut lits = Vec::new();
        for l in cube.lits() {
            if let Some((atom, polarity)) = l.prim.param_atom() {
                lits.push(PFormula::lit(atom, polarity == l.pos));
            } else {
                match l.prim.eval_state(d_init) {
                    Some(b) if b == l.pos => {} // literal true at d_I
                    Some(_) => continue 'cube,  // cube false at d_I
                    None => {
                        // A primitive depending on both p and d would need
                        // a richer restriction; none of our clients has
                        // one. Dropping the cube under-approximates, which
                        // is sound.
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

/// Checks requirement (2) pointwise: wp of `prim` across `atom` evaluated
/// at `(p, d)` must equal `σ(prim)`-membership of the forward result.
///
/// # Errors
///
/// Returns a human-readable description of the first violated instance;
/// client property tests call this over sampled `(p, d, atom, prim)`.
pub fn check_wp_exact<C: MetaClient>(
    client: &C,
    atom: &Atom,
    prim: &C::Prim,
    p: &ParamOf<C>,
    d: &StateOf<C>,
) -> Result<(), String>
where
    ParamOf<C>: fmt::Debug,
    StateOf<C>: fmt::Debug,
{
    let post = client.transfer(p, atom, d);
    let want = prim.holds(p, &post);
    let wp = client.wp_prim(atom, prim);
    let got = wp.holds(p, d);
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "wp not exact for atom {atom:?}, prim {prim}: \
             transfer({p:?}, {d:?}) = {post:?}, σ-membership {want}, but wp = {wp} evaluates to {got}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::to_dnf;

    /// Toy client over bit-vector states/params.
    ///
    /// * `Null{v}`  — set state bit `v` iff param bit `v` is set.
    /// * `Havoc{v}` — clear state bit `v`.
    /// * `Copy{dst,src}` — state bit `dst` := state bit `src`.
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

    #[test]
    fn wp_exactness_holds_for_toy_client() {
        let atoms = [null(0), null(2), Atom::Havoc { dst: VarId(1) }, copy(1, 0), copy(0, 2)];
        let prims = [BP::Bit(0), BP::Bit(1), BP::Bit(2), BP::PBit(0), BP::PBit(2)];
        for a in &atoms {
            for prim in &prims {
                for p in 0..8u32 {
                    for d in 0..8u32 {
                        check_wp_exact(&Bits, a, prim, &p, &d).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn backward_finds_parameter_condition() {
        // Trace: d0 --null(0)--> d1 --copy(1<-0)--> d2.
        // Failure: bit 1 set at the end. That happens iff p tracks bit 0.
        let trace = [null(0), copy(1, 0)];
        let not_q = Formula::prim(BP::Bit(1));
        let p = 0b1; // current abstraction: track bit 0 (fails).
        let d0 = 0u32;
        let cfg = BeamConfig::default();
        let f = analyze_trace(&Bits, &p, &d0, &trace, &not_q, &cfg).unwrap();
        // Sufficient condition at entry: d0-bit ∨ p0-bit.
        let phi = restrict(&f, &d0);
        // d0 = 0 evaluates the state part away; unviable set = { p | p0 }.
        for bits in 0..4u32 {
            let asg = [(bits & 1) == 1, (bits & 2) == 2];
            let in_phi = phi.eval(&asg);
            assert_eq!(in_phi, asg[0], "phi should be exactly p0; got {phi:?}");
        }
    }

    #[test]
    fn backward_soundness_everything_eliminated_really_fails() {
        // Random-ish traces; check Theorem 3(2) by enumeration.
        let traces: Vec<Vec<Atom>> = vec![
            vec![null(0), copy(1, 0), Atom::Havoc { dst: VarId(0) }],
            vec![null(1), null(0), copy(2, 1)],
            vec![copy(1, 0), null(1), copy(0, 1)],
        ];
        let not_q = Formula::or(vec![
            Formula::prim(BP::Bit(1)),
            Formula::and(vec![Formula::prim(BP::Bit(0)), Formula::prim(BP::Bit(2))]),
        ]);
        let cfg = BeamConfig::with_k(1);
        for trace in &traces {
            for p in 0..8u32 {
                for d0 in 0..8u32 {
                    // Only analyze genuine counterexamples.
                    let mut d = d0;
                    for a in trace {
                        d = Bits.transfer(&p, a, &d);
                    }
                    if !not_q.holds(&p, &d) {
                        continue;
                    }
                    let f = analyze_trace(&Bits, &p, &d0, trace, &not_q, &cfg).unwrap();
                    // (1) the current (p, d0) is eliminated:
                    assert!(f.holds(&p, &d0));
                    // (2) everything in σ(f) really fails:
                    for p2 in 0..8u32 {
                        for d2 in 0..8u32 {
                            if f.holds(&p2, &d2) {
                                let mut dd = d2;
                                for a in trace {
                                    dd = Bits.transfer(&p2, a, &dd);
                                }
                                assert!(
                                    not_q.holds(&p2, &dd),
                                    "unsound elimination of (p={p2:b}, d={d2:b}) on {trace:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn membership_lost_detected_for_bogus_trace() {
        // Final state does not fail the query -> not a counterexample.
        let trace = [Atom::Havoc { dst: VarId(1) }];
        let not_q = Formula::prim(BP::Bit(1));
        let err = analyze_trace(&Bits, &0, &0, &trace, &not_q, &BeamConfig::default()).unwrap_err();
        assert!(matches!(err, MetaError::MembershipLost { step: 1 }));
    }

    #[test]
    fn restrict_drops_cubes_false_at_initial_state() {
        let f = Formula::or(vec![
            Formula::prim(BP::Bit(0)), // false at d0 = 0
            Formula::and(vec![Formula::prim(BP::PBit(1)), Formula::nprim(BP::Bit(2))]),
        ]);
        let dnf = to_dnf(&f, &BeamConfig::exhaustive(), &|_| true);
        let phi = restrict(&dnf, &0u32);
        // Only the p1 cube survives; ¬d2 is true at d0.
        assert!(phi.eval(&[false, true, false]));
        assert!(!phi.eval(&[true, false, false]));
    }
}
