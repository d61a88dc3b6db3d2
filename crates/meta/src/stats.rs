//! Effort counters for the backward meta-analysis kernel.

use pda_util::{Counter, ObsRegistry};
use std::fmt;

/// Counter block for the backward/meta hot path, filled by the interned
/// kernel ([`crate::interned::analyze_trace_interned`]) and threaded by
/// the driver through `IterationLog`/`QueryResult`/`BatchStats` so the
/// effect of the packed representation is observable, not asserted.
///
/// All counters are cumulative and merge by addition; `micros` is the
/// wall-clock time the driver spent inside the backward phase (trace
/// replay + wp + approx + restrict), which is the quantity the perf
/// acceptance criterion compares across kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MetaStats {
    /// Cubes materialized by DNF distribution (`product` conjunctions).
    pub cubes_built: u64,
    /// Cube-subsumption tests performed by `simplify`.
    pub subsumption_checks: u64,
    /// Subsumption tests rejected by the 64-bit occurrence signature
    /// alone, without touching literals.
    pub subsumption_fast_rejects: u64,
    /// Weakest-precondition DNF conversions served from the per-trace
    /// `(atom, primitive)` memo.
    pub wp_hits: u64,
    /// Weakest-precondition DNF conversions computed fresh.
    pub wp_misses: u64,
    /// Cubes dropped by `approx`'s beam and by emergency pruning.
    pub approx_drops: u64,
    /// Wall-clock time spent in the backward/meta phase, microseconds.
    pub micros: u64,
}

impl MetaStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &MetaStats) {
        self.cubes_built += other.cubes_built;
        self.subsumption_checks += other.subsumption_checks;
        self.subsumption_fast_rejects += other.subsumption_fast_rejects;
        self.wp_hits += other.wp_hits;
        self.wp_misses += other.wp_misses;
        self.approx_drops += other.approx_drops;
        self.micros += other.micros;
    }

    /// The counter delta accumulated since `earlier` (a snapshot of the
    /// same counter block); saturates rather than underflowing.
    pub fn since(&self, earlier: &MetaStats) -> MetaStats {
        MetaStats {
            cubes_built: self.cubes_built.saturating_sub(earlier.cubes_built),
            subsumption_checks: self
                .subsumption_checks
                .saturating_sub(earlier.subsumption_checks),
            subsumption_fast_rejects: self
                .subsumption_fast_rejects
                .saturating_sub(earlier.subsumption_fast_rejects),
            wp_hits: self.wp_hits.saturating_sub(earlier.wp_hits),
            wp_misses: self.wp_misses.saturating_sub(earlier.wp_misses),
            approx_drops: self.approx_drops.saturating_sub(earlier.approx_drops),
            micros: self.micros.saturating_sub(earlier.micros),
        }
    }

    /// Total wp-memo lookups.
    pub fn wp_lookups(&self) -> u64 {
        self.wp_hits + self.wp_misses
    }

    /// Snapshots the meta-kernel counters out of an [`ObsRegistry`] —
    /// the kernels count into the registry; this view is what rides in
    /// `QueryResult`/`IterationLog`/checkpoint records.
    pub fn from_obs(reg: &ObsRegistry) -> MetaStats {
        MetaStats {
            cubes_built: reg.get(Counter::CubesBuilt),
            subsumption_checks: reg.get(Counter::SubsumptionChecks),
            subsumption_fast_rejects: reg.get(Counter::SubsumptionFastRejects),
            wp_hits: reg.get(Counter::WpHits),
            wp_misses: reg.get(Counter::WpMisses),
            approx_drops: reg.get(Counter::ApproxDrops),
            micros: reg.get(Counter::MetaMicros),
        }
    }

    /// Writes the counters into an [`ObsRegistry`] (additive).
    pub fn add_to_obs(&self, reg: &mut ObsRegistry) {
        reg.add(Counter::CubesBuilt, self.cubes_built);
        reg.add(Counter::SubsumptionChecks, self.subsumption_checks);
        reg.add(Counter::SubsumptionFastRejects, self.subsumption_fast_rejects);
        reg.add(Counter::WpHits, self.wp_hits);
        reg.add(Counter::WpMisses, self.wp_misses);
        reg.add(Counter::ApproxDrops, self.approx_drops);
        reg.add(Counter::MetaMicros, self.micros);
    }
}

impl fmt::Display for MetaStats {
    /// Compact one-line form used by the batch footer: `meta: 12 cubes,
    /// wp 8/10 memo hits, subsumption 5/20 fast-rejected, 3 drops, 42µs`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One source of truth for the footer format: pda-util::obs.
        f.write_str(&pda_util::obs::render_meta_line(
            self.cubes_built,
            self.wp_hits,
            self.wp_lookups(),
            self.subsumption_fast_rejects,
            self.subsumption_checks,
            self.approx_drops,
            self.micros,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_since_are_inverse() {
        let a = MetaStats {
            cubes_built: 5,
            subsumption_checks: 10,
            subsumption_fast_rejects: 4,
            wp_hits: 7,
            wp_misses: 3,
            approx_drops: 2,
            micros: 100,
        };
        let mut total = a;
        let b = MetaStats { cubes_built: 1, wp_hits: 2, micros: 50, ..MetaStats::default() };
        total.merge(&b);
        assert_eq!(total.since(&a), b);
        assert_eq!(total.wp_lookups(), 12);
    }

    #[test]
    fn display_is_stable() {
        let s = MetaStats {
            cubes_built: 12,
            subsumption_checks: 20,
            subsumption_fast_rejects: 5,
            wp_hits: 8,
            wp_misses: 2,
            approx_drops: 3,
            micros: 42,
        };
        assert_eq!(
            s.to_string(),
            "meta: 12 cubes, wp 8/10 memo hits, subsumption 5/20 fast-rejected, 3 drops, 42µs"
        );
    }
}
