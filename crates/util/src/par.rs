//! Lock striping for shared concurrent maps.
//!
//! [`StripedLock`] holds `N` mutex-protected shards selected by a caller
//! hash, so independent keys stop convoying on a single `Mutex`. The
//! accessor meters *contended* lock waits into an [`AtomicU64`] of
//! microseconds: the clock is read only when `try_lock` fails, so the
//! uncontended fast path costs no timing syscalls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// A lock-striped value store: `N` independent [`Mutex`] shards selected
/// by a caller-supplied hash, so threads touching distinct keys rarely
/// contend. Used by the batch scheduler's forward-run cache (shards of
/// the slot map) and the warm meta store.
#[derive(Debug)]
pub struct StripedLock<T> {
    shards: Box<[Mutex<T>]>,
}

impl<T: Default> StripedLock<T> {
    /// `n` default-initialized shards (rounded up to at least 1).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        StripedLock { shards: (0..n).map(|_| Mutex::new(T::default())).collect() }
    }
}

impl<T> StripedLock<T> {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Locks the shard for `hash`, metering any *contended* wait into
    /// `wait_micros`. The uncontended path is a plain `try_lock` with no
    /// clock read; only when the shard is held elsewhere does the caller
    /// pay two `Instant` reads around the blocking `lock`.
    pub fn lock(&self, hash: u64, wait_micros: &AtomicU64) -> MutexGuard<'_, T> {
        let shard = &self.shards[(hash % self.shards.len() as u64) as usize];
        match shard.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                let t0 = Instant::now();
                let g = shard.lock().expect("striped shard poisoned");
                wait_micros.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                g
            }
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("striped shard poisoned"),
        }
    }

    /// Visits every shard in index order (used to drain aggregate stats
    /// once concurrent use has ended).
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for s in self.shards.iter() {
            f(&s.lock().expect("striped shard poisoned"));
        }
    }
}

/// FNV-1a over bytes: the deterministic, dependency-free hash used to
/// pick [`StripedLock`] shards (the std `RandomState` hasher is seeded
/// per-process, which would make shard assignment — and therefore
/// contention patterns — non-reproducible).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_lock_shards_and_meters() {
        let lock: StripedLock<Vec<u32>> = StripedLock::new(4);
        assert_eq!(lock.shards(), 4);
        let waits = AtomicU64::new(0);
        for k in 0..16u64 {
            lock.lock(k, &waits).push(k as u32);
        }
        let mut total = 0;
        lock.for_each(|v| total += v.len());
        assert_eq!(total, 16);
        // Uncontended single-threaded use never reads the clock.
        assert_eq!(waits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }
}
