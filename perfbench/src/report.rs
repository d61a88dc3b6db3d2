//! Metric values, order statistics, and the JSON the benchmark prints and
//! writes.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail metric may report, highest last.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples beyond the reported tail percentile. Ten would do for a
/// percentile to exist, but a tail over about ten queries moved by a
/// quarter between runs of the same code; fifty keep it steady.
pub const TAIL_MIN_BEYOND: usize = 50;

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it: `(percentile, value, samples
/// beyond)`, by the nearest-rank rule. Falls back to the median for fewer
/// than `2 * TAIL_MIN_BEYOND` samples.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = (50.0, median(xs), n / 2);
    for &p in &TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_MIN_BEYOND {
            best = (p, v[rank - 1], n - rank);
        }
    }
    best
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON form (non-finite values become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// 64-bit FNV-1a over the repository's program sources (`crates/` plus the
/// root manifest and lock file): identifies the code measured when the
/// checkout is not a git repository.
pub fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

/// `git rev-parse HEAD` of `root`, or `None` when `root` is not itself a
/// git checkout (a parent directory's repository would name the wrong
/// code).
pub fn git_revision(root: &std::path::Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_fifty_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v, beyond) = tail(&xs);
        assert_eq!((p, v, beyond), (95.0, 950.0, 50));
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 4950.0, 50));
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 50.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\"), "\"a\\\"b\\\\\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
