//! Regenerates **Figure 13**: the effect of the under-approximation beam
//! width `k ∈ {1, 5, 10}` on the thread-escape analysis's running time,
//! over the four smallest benchmarks.
//!
//! The paper's finding: `k = 1` prunes little per iteration (more
//! iterations), `k = 10` tracks large formulas (slow backward runs, more
//! memory); `k = 5` is the sweet spot. The same tradeoff shows up here as
//! total time and iteration counts.

use pda_bench::{config_from_env, load_suite_verbose, render_table};
use pda_suite::run_escape;

fn main() {
    let cfg = config_from_env();
    let benches = load_suite_verbose();
    let mut rows = Vec::new();
    // The four mid-to-large benchmarks: big enough that the beam tradeoff
    // is visible (the paper uses its four smallest because k=1/k=10 ran
    // out of memory on the rest; our scale is shifted accordingly).
    for b in benches.iter().skip(3).take(4) {
        let mut cells = vec![b.name.clone()];
        for k in [1, 5, 10] {
            let mut kcfg = cfg.clone();
            kcfg.k = k;
            let run = run_escape(b, &kcfg);
            let (p, i, u) = run.precision();
            cells.push(format!(
                "{:.2}s ({} runs, {p}/{i}/{u})",
                run.wall_micros as f64 / 1e6,
                run.forward_runs()
            ));
        }
        rows.push(cells);
    }
    println!("\nFigure 13: thread-escape wall time by beam width k\n");
    print!("{}", render_table(&["benchmark", "k=1", "k=5", "k=10"], &rows));
    println!("\ncells: total time (forward runs, proven/impossible/unresolved)");
}
