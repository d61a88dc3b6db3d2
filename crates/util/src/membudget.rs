//! Byte sizes for the per-query memory cap (`--mem-budget`,
//! `PDA_MEM_BUDGET`).

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
