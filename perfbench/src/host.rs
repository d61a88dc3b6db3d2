//! Host-speed probe: a fixed kernel, owned by the benchmark and independent
//! of the program under test, timed between the units of a run.
//!
//! The machine the benchmark runs on is shared, and its speed moves by a
//! quarter over seconds to minutes, for every process alike. The probe's
//! kernel does the same work at every commit, so its time at a moment
//! measures the host's speed then, and the times of the units around it can
//! be scaled to a fixed host speed.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

use crate::procfs;

/// Nodes of the kernel's graph (16 MiB of successor lists: beyond the
/// per-core caches, within the shared last-level cache of a quiet host, the
/// way the analyses' working sets are).
const NODES: usize = 1 << 20;
/// Successors per node.
const FANOUT: usize = 4;
/// Facts the kernel's worklist derives before it stops.
const FACTS: usize = 20_000;
/// Kernel runs that warm the caches before the first sample.
const WARMUP: u64 = 3;

/// Kernel time at the reference host speed, ms: the median kernel time
/// measured on the 2-core machine the benchmark was written on. Scaled
/// times read as that machine's times at its usual speed.
pub const NOMINAL_MS: f64 = 2.2;

/// Fewest ms of measured work between two probes.
pub const PROBE_EVERY_MS: f64 = 60.0;

/// Samples the host speed at a moment is taken from: the median of the
/// nearest this many, which smooths the kernel's own jitter while following
/// changes that last a few hundred ms.
pub const NEAREST: usize = 7;

fn next(x: &mut u64) -> u64 {
    // SplitMix64, written out so the kernel shares no code with the
    // program.
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The probe: its graph and the samples taken so far.
pub struct Probe {
    succ: Vec<[u32; FANOUT]>,
    threads: usize,
    start: Instant,
    last: Instant,
    /// `(seconds since the probe was made, kernel ms)`, in time order.
    pub samples: Vec<(f64, f64)>,
    /// Wall time spent sampling, seconds.
    pub wall_s: f64,
    /// Process CPU time spent sampling, seconds.
    pub cpu_s: f64,
}

impl Probe {
    /// A probe that runs `threads` kernels at once (one per batch worker)
    /// and records the slowest. The kernel runs a few times before the
    /// first sample, so no sample pays for cold caches.
    pub fn new(threads: usize) -> Probe {
        let mut x = 0x05ee_d0f0_0d15_ea5e;
        let succ: Vec<[u32; FANOUT]> = (0..NODES)
            .map(|_| std::array::from_fn(|_| (next(&mut x) % NODES as u64) as u32))
            .collect();
        for k in 0..WARMUP {
            Probe::kernel(&succ, u64::MAX - k);
        }
        let now = Instant::now();
        Probe {
            succ,
            threads: threads.max(1),
            start: now,
            last: now,
            samples: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
        }
    }

    /// The kernel, shaped like the analyses' inner loops: a worklist that
    /// derives `(node, fact)` pairs along the graph's edges into a hash
    /// set until it holds [`FACTS`] of them. Returns its time, ms.
    fn kernel(succ: &[[u32; FANOUT]], seed: u64) -> f64 {
        let t = Instant::now();
        let mut x = seed;
        let mut seen: HashSet<u64, BuildHasherDefault<DefaultHasher>> = HashSet::default();
        let mut work: Vec<u64> = (0..16)
            .map(|_| (next(&mut x) % NODES as u64) << 8)
            .collect();
        while let Some(f) = work.pop() {
            let (node, fact) = ((f >> 8) as usize, f & 0xff);
            for &s in &succ[node] {
                let g = (u64::from(s) << 8) | ((fact * 31 + u64::from(s)) & 0xff);
                if seen.insert(g) {
                    work.push(g);
                }
            }
            if seen.len() >= FACTS {
                break;
            }
        }
        black_box(seen.len());
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Times the kernel now, on every thread at once, and records the
    /// slowest thread's time.
    ///
    /// # Errors
    ///
    /// Returns a message when `/proc` cannot be read.
    pub fn sample(&mut self) -> Result<(), String> {
        let cpu0 = procfs::cpu_seconds()?;
        let t0 = Instant::now();
        let seed = self.samples.len() as u64;
        let ms = if self.threads == 1 {
            Probe::kernel(&self.succ, seed)
        } else {
            let succ = &self.succ;
            std::thread::scope(|s| {
                let hs: Vec<_> = (0..self.threads)
                    .map(|k| s.spawn(move || Probe::kernel(succ, seed + k as u64)))
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().expect("probe kernel thread"))
                    .fold(0.0, f64::max)
            })
        };
        self.last = Instant::now();
        self.samples
            .push((self.last.duration_since(self.start).as_secs_f64(), ms));
        self.wall_s += self.last.duration_since(t0).as_secs_f64();
        self.cpu_s += procfs::cpu_seconds()? - cpu0;
        Ok(())
    }

    /// Samples when at least [`PROBE_EVERY_MS`] have passed since the last
    /// sample.
    ///
    /// # Errors
    ///
    /// Returns a message when `/proc` cannot be read.
    pub fn maybe_sample(&mut self) -> Result<(), String> {
        if self.last.elapsed().as_secs_f64() * 1e3 >= PROBE_EVERY_MS {
            self.sample()?;
        }
        Ok(())
    }

    /// Seconds since the probe was made.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The factor that scales a time measured at `at_s` (seconds on the
    /// probe's clock) to the reference host speed: [`NOMINAL_MS`] over the
    /// median of the [`NEAREST`] samples nearest to `at_s`. 1 without
    /// samples.
    pub fn scale_at(&self, at_s: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let i = self.samples.partition_point(|&(t, _)| t < at_s);
        let k = NEAREST.min(self.samples.len());
        // The window of k samples around position i, shifted inside.
        let lo = i.saturating_sub(k / 2).min(self.samples.len() - k);
        let window: Vec<f64> = self.samples[lo..lo + k].iter().map(|s| s.1).collect();
        NOMINAL_MS / crate::report::median(&window)
    }

    /// Median kernel time over every sample, ms.
    pub fn median_ms(&self) -> f64 {
        crate::report::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_nearest_samples() {
        let mut p = Probe::new(1);
        p.samples = (0..20)
            .map(|i| (i as f64, if i < 10 { NOMINAL_MS } else { 2.0 * NOMINAL_MS }))
            .collect();
        assert_eq!(p.scale_at(1.0), 1.0);
        assert_eq!(p.scale_at(18.5), 0.5);
        assert_eq!(p.scale_at(-3.0), 1.0);
        assert_eq!(p.scale_at(99.0), 0.5);
        p.sample().unwrap();
        assert!(p.samples[20].1 > 0.0);
        assert!(p.wall_s > 0.0);
    }
}
