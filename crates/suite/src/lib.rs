//! The benchmark suite and experiment harness reproducing the PLDI'13
//! evaluation (Section 6).
//!
//! The paper evaluates on seven real-world concurrent Java programs
//! (tsp, elevator, hedc, weblech, antlr, avrora, lusearch) analyzed with
//! Chord. Neither the JVM nor those programs are available to this
//! reproduction, so this crate provides the documented substitute
//! (DESIGN.md §2): a deterministic, seeded **generator** of Jaylite
//! programs whose structural knobs (library vs. application code, call
//! depth, aliasing chains, shared globals, thread spawns, loops) are set
//! per benchmark to mirror the paper's relative sizes. Names are kept so
//! the regenerated tables read like the paper's.
//!
//! [`experiments`] drives both client analyses over every benchmark
//! through the batch scheduler and aggregates exactly the statistics
//! behind the paper's Tables 1–4 and Figures 12–14; the `pda-bench`
//! binaries print them.

#![warn(missing_docs)]

pub mod bench;
pub mod experiments;
pub mod gen;
pub mod stats;

pub use bench::Benchmark;
pub use experiments::{
    run_escape, run_typestate, run_typestate_automaton, AnalysisRun, ExperimentConfig,
    QueryOutcome, Resolution,
};
pub use gen::{generate_source, GenConfig};
pub use stats::{benchmark_stats, BenchStats};

/// The seven benchmark configurations, smallest to largest, named after
/// the paper's suite (Table 1).
pub fn suite() -> Vec<GenConfig> {
    vec![
        GenConfig::named("tsp", 11, 1, 2, 4, 2, 6),
        GenConfig::named("elevator", 12, 1, 2, 5, 2, 6),
        GenConfig::named("hedc", 13, 2, 4, 7, 3, 7),
        GenConfig::named("weblech", 14, 2, 5, 8, 3, 8),
        GenConfig::named("antlr", 15, 3, 7, 10, 3, 8),
        GenConfig::named("avrora", 16, 3, 9, 12, 3, 8),
        GenConfig::named("lusearch", 17, 3, 8, 11, 3, 8),
    ]
}

/// Loads every benchmark in the suite (generation + parse + pre-analyses).
pub fn load_suite() -> Vec<Benchmark> {
    suite().into_iter().map(Benchmark::load).collect()
}
