//! **Extension experiment**: the type-state client in declared-automaton
//! mode, at benchmark scale.
//!
//! The paper's evaluation uses a fictitious stress property; its worked
//! example (Figure 1) uses a real `File` protocol. This experiment runs
//! the real-automaton machinery on every benchmark's generated
//! acquire/release resource protocol: provable uses need must-alias
//! tracking through the aliasing the generator plants; buggy uses
//! (double acquire, double release) are shown impossible.

use pda_bench::{config_from_env, fmt_summary, load_suite_verbose, render_table};
use pda_suite::run_typestate_automaton;

fn main() {
    let cfg = config_from_env();
    let benches = load_suite_verbose();
    let mut rows = Vec::new();
    for b in &benches {
        let run = run_typestate_automaton(b, &cfg);
        let (p, i, u) = run.precision();
        let (c0, c1, c2) = fmt_summary(run.cheapest_sizes());
        rows.push(vec![
            b.name.clone(),
            format!("{}", run.outcomes.len()),
            format!("{p}"),
            format!("{i}"),
            format!("{u}"),
            format!("{c0}/{c1}/{c2}"),
            format!("{:.1}s", run.wall_micros as f64 / 1e6),
        ]);
    }
    println!("\nExtension: type-state with the declared acquire/release automaton\n");
    let header =
        ["benchmark", "queries", "proven", "impossible", "unresolved", "|p| min/max/avg", "time"];
    print!("{}", render_table(&header, &rows));
}
