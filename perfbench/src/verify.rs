//! Verdict checks behind `verdict_ratio`: agreement with the checked-in
//! reference, agreement between repeats of a query, and an independent
//! re-verification of every Proven abstraction.

use crate::run::{cost_of, Solved};
use crate::workload::{Group, Workload};
use pda_dataflow::{rhs, RhsLimits};
use pda_tracer::{outcome_tag, AsAnalysis, Outcome, TracerClient};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

/// One reference verdict: the outcome tag and, for a proof, its cost.
pub type Verdict = (String, Option<u64>);

/// Where the reference verdicts of `wl` live.
pub fn reference_path(wl: &Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(format!("reference-{}.txt", wl.name))
}

fn verdict_line(v: &Verdict) -> String {
    match v.1 {
        Some(c) => format!("{} {c}", v.0),
        None => v.0.clone(),
    }
}

/// Loads the reference verdicts of `wl`, indexed by global query id.
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn load_reference(wl: &Workload) -> Result<Vec<Verdict>, String> {
    let path = reference_path(wl);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut parts = l.split_whitespace();
            let tag = parts.next().ok_or("empty reference line")?.to_string();
            let cost = match parts.next() {
                Some(c) => Some(
                    c.parse::<u64>()
                        .map_err(|e| format!("reference cost '{c}': {e}"))?,
                ),
                None => None,
            };
            Ok((tag, cost))
        })
        .collect()
}

/// Writes the reference verdicts of `wl` (one line per query id).
///
/// # Errors
///
/// Returns the I/O error as a message.
pub fn write_reference(wl: &Workload, programs: usize, verdicts: &[Verdict]) -> Result<(), String> {
    let mut text = format!(
        "# Reference verdicts of workload {} at seed {}, {programs} programs, {} queries.\n\
         # One line per global query id: `proven <optimum cost>`, `impossible`, or an\n\
         # unresolved tag. Written by `--write-reference`; every proof re-verified.\n",
        wl.name,
        crate::workload::REFERENCE_SEED,
        verdicts.len()
    );
    for v in verdicts {
        text.push_str(&verdict_line(v));
        text.push('\n');
    }
    let path = reference_path(wl);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The verdict of a solved query in reference form.
pub fn verdict_of<P>(o: &Outcome<P>) -> Verdict {
    (outcome_tag(o).to_string(), cost_of(o))
}

/// Outcome of the verdict checks.
#[derive(Debug, Default)]
pub struct Check {
    /// Solved entries (repeats included) whose every check passed.
    pub passed: usize,
    /// Solved entries checked.
    pub checked: usize,
    /// Proofs re-verified by a fresh forward run (distinct abstractions).
    pub reverified: usize,
    /// Cost-1 proofs whose optimality the empty abstraction confirmed.
    pub optimality_checked: usize,
    /// Every failed check, described.
    pub errors: Vec<String>,
}

/// Checks every solved query: repeats agree with the first solve, the
/// first solve agrees with `reference` (when given), and each Proven
/// abstraction proves its query in a fresh, uncached forward run. A
/// cost-1 proof is optimal when the empty abstraction fails the query;
/// that run is made too.
pub fn check<C: TracerClient>(
    groups: &[Group<'_, C>],
    wl: &Workload,
    solved: &[Solved<C::Param>],
    reference: Option<&[Verdict]>,
) -> Check {
    let mut ok: HashMap<usize, bool> = HashMap::new();
    let mut first: BTreeMap<usize, &Solved<C::Param>> = BTreeMap::new();
    let mut errors = Vec::new();
    for s in solved {
        let f = *first.entry(s.id).or_insert(s);
        if verdict_of(&f.outcome) != verdict_of(&s.outcome) || f.iterations != s.iterations {
            errors.push(format!(
                "query {}: a repeat solve gave a different verdict",
                s.id
            ));
            ok.insert(s.id, false);
        }
    }
    if let Some(reference) = reference {
        for (&id, s) in &first {
            let got = verdict_of(&s.outcome);
            match reference.get(id) {
                Some(want) if *want == got => {}
                Some(want) => {
                    errors.push(format!(
                        "query {id}: verdict `{}` differs from reference `{}`",
                        verdict_line(&got),
                        verdict_line(want)
                    ));
                    ok.insert(id, false);
                }
                None => {
                    errors.push(format!("query {id}: not in the reference"));
                    ok.insert(id, false);
                }
            }
        }
    }

    // Re-verify proofs, one fresh forward run per distinct abstraction.
    let limits = RhsLimits {
        max_facts: wl.max_facts,
        ..RhsLimits::default()
    };
    let mut by_param: BTreeMap<(usize, String), Vec<&Solved<C::Param>>> = BTreeMap::new();
    let mut cost_one: BTreeMap<usize, Vec<&Solved<C::Param>>> = BTreeMap::new();
    for s in first.values() {
        if let Outcome::Proven { param, cost } = &s.outcome {
            by_param
                .entry((s.group, format!("{param:?}")))
                .or_default()
                .push(s);
            if *cost == 1 {
                cost_one.entry(s.group).or_default().push(s);
            }
        }
    }
    let mut reverified = 0;
    for ((g, _), qs) in &by_param {
        let grp = &groups[*g];
        let Outcome::Proven { param, .. } = &qs[0].outcome else {
            unreachable!("proofs only")
        };
        let callees = |c| grp.callees(c);
        let run = rhs::run(
            &grp.bench.program,
            &AsAnalysis(&grp.client),
            param,
            grp.client.initial_state(),
            &callees,
            limits,
        );
        reverified += 1;
        for s in qs {
            let q = &grp.queries[s.index];
            let proven = match &run {
                Ok(r) => r.witness(q.point, &|d| q.not_q.holds(param, d)).is_none(),
                Err(_) => false,
            };
            if !proven {
                errors.push(format!(
                    "query {}: its optimum abstraction does not prove it",
                    s.id
                ));
                ok.insert(s.id, false);
            }
        }
    }
    let mut optimality_checked = 0;
    for (g, qs) in &cost_one {
        let grp = &groups[*g];
        let empty = grp
            .client
            .param_of_model(&vec![false; grp.client.n_atoms()]);
        let callees = |c| grp.callees(c);
        let run = rhs::run(
            &grp.bench.program,
            &AsAnalysis(&grp.client),
            &empty,
            grp.client.initial_state(),
            &callees,
            limits,
        );
        for s in qs {
            let q = &grp.queries[s.index];
            // A budget overrun proves nothing about the empty abstraction.
            let fails = match &run {
                Ok(r) => r.witness(q.point, &|d| q.not_q.holds(&empty, d)).is_some(),
                Err(_) => false,
            };
            if fails {
                optimality_checked += 1;
            } else {
                errors.push(format!(
                    "query {}: the empty abstraction proves it, cost 1 is not optimal",
                    s.id
                ));
                ok.insert(s.id, false);
            }
        }
    }
    let passed = solved
        .iter()
        .filter(|s| ok.get(&s.id).copied().unwrap_or(true))
        .count();
    Check {
        passed,
        checked: solved.len(),
        reverified,
        optimality_checked,
        errors,
    }
}
