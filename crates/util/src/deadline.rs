//! Cooperative wall-clock deadlines.
//!
//! A [`Deadline`] is a tiny cancel token: an optional absolute
//! [`Instant`] after which long-running loops should stop. It is `Copy`,
//! so it threads through limit structs (`RhsLimits`, solver calls) with
//! no sharing machinery; "shared" here means every component of one query
//! observes the *same* instant, so the whole pipeline — tabulation inner
//! loop, DPLL search, CEGAR iteration — gives up coherently.
//!
//! The token is *cooperative*: nothing is interrupted preemptively. Hot
//! loops poll [`Deadline::expired`] every few hundred steps (an `Instant`
//! read is tens of nanoseconds, so polling is essentially free at that
//! granularity).

use std::cell::Cell;
use std::fmt;
use std::time::{Duration, Instant};

thread_local! {
    /// The deadline governing whatever work this thread is currently
    /// doing, for code (injected stalls, fault actions) that sits outside
    /// the normal limit-struct plumbing.
    static AMBIENT: Cell<Deadline> = const { Cell::new(Deadline::NEVER) };
}

/// An optional absolute point in time after which work should stop.
///
/// The default ([`Deadline::NEVER`]) never expires, so existing call
/// sites opt in by construction only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// The deadline that never expires.
    pub const NEVER: Deadline = Deadline(None);

    /// A deadline `d` from now. Saturates to [`Deadline::NEVER`] on
    /// `Instant` overflow (absurdly large durations).
    pub fn after(d: Duration) -> Deadline {
        Deadline(Instant::now().checked_add(d))
    }

    /// A deadline at the absolute instant `t`.
    pub fn at(t: Instant) -> Deadline {
        Deadline(Some(t))
    }

    /// Converts an optional timeout: `None` means no deadline.
    pub fn timeout(t: Option<Duration>) -> Deadline {
        match t {
            None => Deadline::NEVER,
            Some(d) => Deadline::after(d),
        }
    }

    /// Returns `true` if this deadline can never expire.
    pub fn is_never(&self) -> bool {
        self.0.is_none()
    }

    /// Returns `true` once the deadline has passed. A zero-duration
    /// deadline reports expired from the first check.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left, or `None` for a never-expiring deadline. Zero once
    /// expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.0.map(|t| t.saturating_duration_since(Instant::now()))
    }

    /// The earlier of two deadlines (never-expiring counts as latest).
    pub fn min(self, other: Deadline) -> Deadline {
        match (self.0, other.0) {
            (None, _) => other,
            (_, None) => self,
            (Some(a), Some(b)) => Deadline(Some(a.min(b))),
        }
    }

    /// `Err(DeadlineExceeded)` once expired, for `?`-style call sites.
    pub fn check(&self) -> Result<(), DeadlineExceeded> {
        if self.expired() {
            Err(DeadlineExceeded)
        } else {
            Ok(())
        }
    }

    /// The deadline governing the current thread's work, as installed by
    /// the innermost live [`Deadline::enter_ambient`] scope
    /// ([`Deadline::NEVER`] outside any scope).
    pub fn ambient() -> Deadline {
        AMBIENT.with(Cell::get)
    }

    /// Publishes this deadline as the thread's ambient deadline for the
    /// returned guard's lifetime. Scopes nest: dropping the guard
    /// restores whatever was ambient before.
    ///
    /// Solve entry points install their per-query/per-attempt deadline
    /// here so out-of-band sleepers — injected `stall` faults — can poll
    /// it and cut a sleep short, even though they sit outside the
    /// limit-struct plumbing.
    #[must_use = "the ambient scope ends when the guard drops"]
    pub fn enter_ambient(self) -> AmbientDeadlineGuard {
        let prev = AMBIENT.with(|c| c.replace(self));
        AmbientDeadlineGuard { prev }
    }
}

/// Restores the previous ambient deadline on drop (see
/// [`Deadline::enter_ambient`]).
#[derive(Debug)]
pub struct AmbientDeadlineGuard {
    prev: Deadline,
}

impl Drop for AmbientDeadlineGuard {
    fn drop(&mut self) {
        AMBIENT.with(|c| c.set(self.prev));
    }
}

/// The error reported by work aborted at an expired [`Deadline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded;

impl fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wall-clock deadline exceeded")
    }
}

impl std::error::Error for DeadlineExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_never_expires() {
        let d = Deadline::NEVER;
        assert!(d.is_never());
        assert!(!d.expired());
        assert!(d.remaining().is_none());
        assert!(d.check().is_ok());
        assert_eq!(Deadline::timeout(None), Deadline::NEVER);
        assert_eq!(Deadline::default(), Deadline::NEVER);
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        assert_eq!(d.check(), Err(DeadlineExceeded));
    }

    #[test]
    fn far_future_not_expired() {
        let d = Deadline::timeout(Some(Duration::from_secs(3600)));
        assert!(!d.is_never());
        assert!(!d.expired());
        assert!(d.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn min_picks_earlier() {
        let soon = Deadline::after(Duration::ZERO);
        let late = Deadline::after(Duration::from_secs(3600));
        assert_eq!(soon.min(late), soon);
        assert_eq!(late.min(soon), soon);
        assert_eq!(Deadline::NEVER.min(soon), soon);
        assert_eq!(soon.min(Deadline::NEVER), soon);
        assert_eq!(Deadline::NEVER.min(Deadline::NEVER), Deadline::NEVER);
    }

    #[test]
    fn saturating_overflow_is_never() {
        // An `Instant` cannot represent now + Duration::MAX; `after`
        // saturates to a never-expiring deadline instead of panicking.
        let d = Deadline::after(Duration::MAX);
        assert!(d.is_never() || !d.expired());
    }

    #[test]
    fn ambient_scopes_nest_and_restore() {
        assert_eq!(Deadline::ambient(), Deadline::NEVER);
        let outer = Deadline::after(Duration::from_secs(3600));
        {
            let _a = outer.enter_ambient();
            assert_eq!(Deadline::ambient(), outer);
            let inner = Deadline::after(Duration::from_secs(60));
            {
                let _b = inner.enter_ambient();
                assert_eq!(Deadline::ambient(), inner);
            }
            assert_eq!(Deadline::ambient(), outer);
        }
        assert_eq!(Deadline::ambient(), Deadline::NEVER);
    }

    #[test]
    fn display_and_error() {
        let e = DeadlineExceeded;
        assert_eq!(e.to_string(), "wall-clock deadline exceeded");
        let _: &dyn std::error::Error = &e;
    }
}
