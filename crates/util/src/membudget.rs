//! Byte-accounted memory budgets for the resource governor.
//!
//! A [`MemBudget`] is one query's ledger of *estimated* bytes: the engines
//! charge deterministic, count-based size estimates (never RSS or other
//! wall-clock-adjacent measurements) at their allocation hot spots, and
//! the TRACER governor that owns the ledger polls it at CEGAR iteration
//! boundaries to decide whether to walk its degradation ladder. Because
//! every charge is a pure function of the work performed, pressure — and
//! therefore every degradation decision — is bit-reproducible across runs
//! and machines.
//!
//! ```
//! use pda_util::MemBudget;
//! let mut b = MemBudget::new(Some(1024));
//! b.charge(2000);
//! b.release(2000);
//! assert!(b.take_pressure());      // the 2000-byte spike is observed …
//! assert!(!b.take_pressure());     // … exactly once: peak reset to usage
//! ```

/// A byte ledger with an optional limit, owned by one query's governor.
#[derive(Debug)]
pub struct MemBudget {
    limit: Option<u64>,
    used: u64,
    peak: u64,
}

impl MemBudget {
    /// A budget with the given byte limit (`None` = accounting only,
    /// never under pressure).
    pub fn new(limit: Option<u64>) -> MemBudget {
        MemBudget { limit, used: 0, peak: 0 }
    }

    /// Records `bytes` as allocated (saturating).
    pub fn charge(&mut self, bytes: u64) {
        self.used = self.used.saturating_add(bytes);
        self.peak = self.peak.max(self.used);
    }

    /// Records `bytes` as freed (saturating at zero).
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Polls (and consumes) the pressure signal: `true` iff the peak
    /// usage since the previous poll exceeded the limit. The peak resets
    /// to the *current* usage, so transient spikes are observed exactly
    /// once. Always `false` for a limitless budget.
    pub fn take_pressure(&mut self) -> bool {
        let Some(limit) = self.limit else { return false };
        std::mem::replace(&mut self.peak, self.used) > limit
    }
}

/// Parses a human byte size: a plain integer, optionally suffixed with
/// `k`/`m`/`g` (case-insensitive, powers of 1024). Returns `None` for
/// anything else, including overflow.
///
/// ```
/// use pda_util::parse_bytes;
/// assert_eq!(parse_bytes("4096"), Some(4096));
/// assert_eq!(parse_bytes("64k"), Some(64 << 10));
/// assert_eq!(parse_bytes("2M"), Some(2 << 20));
/// assert_eq!(parse_bytes("1g"), Some(1 << 30));
/// assert_eq!(parse_bytes("lots"), None);
/// ```
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_and_totals() {
        let mut b = MemBudget::new(Some(100));
        b.charge(60);
        b.release(100); // saturates at zero, never underflows
        assert!(!b.take_pressure(), "a 60-byte peak fits");
        b.charge(100);
        assert!(!b.take_pressure(), "usage restarted from zero: 100 fits exactly");
        b.charge(1);
        assert!(b.take_pressure(), "101 outstanding bytes exceed the limit");
    }

    #[test]
    fn pressure_is_peak_based_and_consumed() {
        let mut b = MemBudget::new(Some(100));
        b.charge(150);
        b.release(150);
        assert!(b.take_pressure(), "spike above the limit must be seen");
        assert!(!b.take_pressure(), "and seen exactly once");
        b.charge(150);
        assert!(b.take_pressure());
        assert!(b.take_pressure(), "sustained usage keeps signaling");
        b.release(150);
    }

    #[test]
    fn unlimited_never_pressures_but_counts() {
        let mut b = MemBudget::new(None);
        b.charge(u64::MAX);
        b.charge(u64::MAX); // saturates instead of wrapping
        assert!(!b.take_pressure());
        b.release(u64::MAX);
        assert!(!b.take_pressure());
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes(" 10 "), Some(10));
        assert_eq!(parse_bytes("3K"), Some(3072));
        assert_eq!(parse_bytes("5m"), Some(5 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("k"), None);
        assert_eq!(parse_bytes("-1"), None);
        assert_eq!(parse_bytes("99999999999999999999g"), None);
    }
}
