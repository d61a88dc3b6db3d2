//! Regenerates **Table 1**, **Figure 12**, **Tables 2–4** and **Figure
//! 14** from one solve: loads the suite once, runs both client analyses
//! once per benchmark, prints each table after a `=== <name> ===` marker
//! and the batch footer once at the end.

use pda_bench::tables::{fig12, fig14, table1, table2, table3, table4, BenchmarkRuns};
use pda_bench::{batch_obs, config_from_env, load_suite_verbose};
use pda_suite::{run_escape, run_typestate};

fn main() {
    let cfg = config_from_env();
    let benches = load_suite_verbose();
    let runs: Vec<BenchmarkRuns> = benches
        .iter()
        .map(|b| BenchmarkRuns { typestate: run_typestate(b, &cfg), escape: run_escape(b, &cfg) })
        .collect();
    let sections = [
        ("table1", table1(&benches)),
        ("fig12", fig12(&runs)),
        ("table2", table2(&runs)),
        ("table3", table3(&runs)),
        ("table4", table4(&runs)),
        ("fig14", fig14(&runs)),
    ];
    for (name, text) in sections {
        println!("=== {name} ===");
        print!("{text}");
    }
    let obs = batch_obs(runs.iter().flat_map(|r| [&r.typestate, &r.escape]));
    println!("\nbatch: {}", obs.render());
}
