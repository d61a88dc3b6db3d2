//! Process CPU time and peak memory, read from `/proc` (Linux only; no
//! registry dependency).

use std::fs;

/// `AT_CLKTCK` in the ELF auxiliary vector: the unit of the CPU times in
/// `/proc/self/stat`.
const AT_CLKTCK: u64 = 17;

/// Clock ticks per second, from `/proc/self/auxv` (100 if unreadable,
/// which is the Linux default).
fn clock_ticks() -> u64 {
    let Ok(raw) = fs::read("/proc/self/auxv") else {
        return 100;
    };
    let words: Vec<u64> = raw
        .chunks_exact(8)
        .map(|c| u64::from_ne_bytes(c.try_into().expect("chunk of 8 bytes")))
        .collect();
    words
        .chunks_exact(2)
        .find(|kv| kv[0] == AT_CLKTCK)
        .map(|kv| kv[1])
        .filter(|&t| t > 0)
        .unwrap_or(100)
}

/// User plus system CPU time of the whole process (all threads), seconds.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is missing or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, utime and stime being the
    // 12th and 13th of them.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no ')'")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat: field {i} unreadable"))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(ticks as f64 / clock_ticks() as f64)
}

/// Peak resident set size of the process (`VmHWM`), MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

/// Resident set size of the process now (`VmRSS`), MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` has no `VmRSS` line.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS")
}

fn status_mb(key: &str) -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("/proc/self/status: {key} unreadable"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_cpu_and_rss() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_seconds().unwrap() >= before);
        assert!(peak_rss_mb().unwrap() >= rss_mb().unwrap());
        assert!(rss_mb().unwrap() > 0.0);
        assert!(clock_ticks() > 0);
    }
}
