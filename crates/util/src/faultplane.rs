//! Deterministic fault-point injection plane.
//!
//! A **fault point** is a named seam in the engine — `cache.slot_fill`,
//! `journal.append`, `bdd.conjoin` — where a crash, stall, or I/O error
//! is physically possible in production. Code marks the seam with a call
//! to [`fault_point`] (or [`fault_point_io`] for seams that can surface a
//! structured [`std::io::Error`]); the call is a single relaxed atomic
//! load when no plan is armed, so shipping the markers costs nothing.
//!
//! A [`FaultPlan`] arms the plane. Plans are parsed from a spec string
//! (`--fault-plan` / `PDA_FAULT_PLAN`) with this grammar:
//!
//! ```text
//! plan     := entry (';' entry)*
//! entry    := point '@' hit '=' action     fire at the hit-th visit (1-based)
//!           | point '=' action             fire at every visit
//!           | 'record'                     record-only: count visits, fire nothing
//! action   := 'panic' | 'stall:' ms | 'ioerr' [':' kind] | 'abort' | 'shortwrite'
//! kind     := 'notfound' | 'perm' | 'interrupted' | 'brokenpipe' | 'timedout' | 'other'
//! ```
//!
//! Everything is deterministic: entries key on per-point visit counters,
//! so the same plan against the same workload fires at the same seams on
//! every run.
//!
//! Action semantics at a [`fault_point`] (non-I/O seam):
//!
//! * `panic` — panics with a tagged message; the engine's panic-isolation
//!   boundary turns it into a structured `EngineFault`.
//! * `stall:ms` — sleeps non-cooperatively, in small slices that observe
//!   the ambient [`Deadline`] (see [`Deadline::enter_ambient`]) so a
//!   cooperative timeout shorter than the stall still fires.
//! * `ioerr` / `shortwrite` — no real I/O to fail here, so they panic
//!   with an `injected io error` tag (and count in [`io_faults`]).
//! * `abort` — [`std::process::abort`]: the crash-class action, for
//!   kill-at-point torture of checkpoint/journal recovery.
//!
//! At a [`fault_point_io`] or inside a [`FaultFile`], `ioerr` surfaces as
//! a real `Err(std::io::Error)` and `shortwrite` writes only a prefix of
//! the buffer before failing — the signature of a torn record.
//!
//! [`FaultFile`] wraps a [`File`] so every write syscall of a checkpoint
//! or journal writer routes through the plane without touching callers.
//!
//! The plane keeps global counters ([`faults_injected`], [`io_faults`])
//! and per-point visit counts ([`hits`]); a `record` plan makes a dry run
//! enumerate every seam a workload crosses, which is what the crash-point
//! torture harness replays one fault at a time.

use crate::Deadline;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed fault point does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a tagged message (absorbed by panic isolation).
    Panic,
    /// Sleep this long, non-cooperatively but in deadline-observing
    /// slices.
    Stall(Duration),
    /// Fail with this I/O error kind (a tagged panic at non-I/O seams).
    IoErr(io::ErrorKind),
    /// Abort the whole process — the crash-class action.
    Abort,
    /// Write only a prefix of the buffer, then fail (I/O seams only;
    /// behaves as `ioerr` elsewhere).
    ShortWrite,
}

/// Every action [`FaultPlan::parse`] accepts, spelled as the usage
/// shows it: `MS` is a number of milliseconds, `[:KIND]` an optional
/// error kind.
pub const ACTIONS: [&str; 5] = ["panic", "stall:MS", "ioerr[:KIND]", "abort", "shortwrite"];

/// One armed entry: fire `action` at the `hit`-th visit (0 = every
/// visit).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Arm {
    hit: u64,
    action: FaultAction,
}

/// A parsed, deterministic fault plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Explicit arms per point name.
    arms: BTreeMap<String, Vec<Arm>>,
    /// Record-only mode requested.
    record: bool,
}

impl FaultPlan {
    /// Parses a plan spec (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            if entry == "record" {
                plan.record = true;
                continue;
            }
            let (target, action) = entry
                .split_once('=')
                .ok_or_else(|| format!("`{entry}`: expected point[@hit]=action"))?;
            let action = parse_action(action).ok_or_else(|| {
                format!("`{entry}`: unknown action `{action}` ({})", ACTIONS.join("|"))
            })?;
            let (point, hit) = match target.split_once('@') {
                None => (target, 0),
                Some((p, h)) => {
                    let h: u64 =
                        h.parse().map_err(|_| format!("`{entry}`: bad hit ordinal `{h}`"))?;
                    if h == 0 {
                        return Err(format!("`{entry}`: hit ordinals are 1-based"));
                    }
                    (p, h)
                }
            };
            if point.is_empty() {
                return Err(format!("`{entry}`: empty point name"));
            }
            plan.arms.entry(point.to_string()).or_default().push(Arm { hit, action });
        }
        Ok(plan)
    }

    /// True if the plan does nothing at all.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty() && !self.record
    }

    /// The action to fire at the `hit`-th (1-based) visit of `point`, if
    /// any.
    fn action_for(&self, point: &str, hit: u64) -> Option<FaultAction> {
        let arms = self.arms.get(point)?;
        arms.iter().find(|arm| arm.hit == 0 || arm.hit == hit).map(|arm| arm.action.clone())
    }
}

fn parse_action(s: &str) -> Option<FaultAction> {
    match s {
        "panic" => Some(FaultAction::Panic),
        "abort" => Some(FaultAction::Abort),
        "shortwrite" => Some(FaultAction::ShortWrite),
        "ioerr" => Some(FaultAction::IoErr(io::ErrorKind::Other)),
        _ => {
            if let Some(ms) = s.strip_prefix("stall:") {
                return Some(FaultAction::Stall(Duration::from_millis(ms.parse().ok()?)));
            }
            if let Some(kind) = s.strip_prefix("ioerr:") {
                let kind = match kind {
                    "notfound" => io::ErrorKind::NotFound,
                    "perm" => io::ErrorKind::PermissionDenied,
                    "interrupted" => io::ErrorKind::Interrupted,
                    "brokenpipe" => io::ErrorKind::BrokenPipe,
                    "timedout" => io::ErrorKind::TimedOut,
                    "other" => io::ErrorKind::Other,
                    _ => return None,
                };
                return Some(FaultAction::IoErr(kind));
            }
            None
        }
    }
}

/// Global plane state: the armed plan plus per-point visit counters.
struct PlaneState {
    plan: FaultPlan,
    hits: BTreeMap<String, u64>,
}

/// Fast-path gate: true iff a plan is installed. The *only* cost a
/// disabled fault point pays is one relaxed load of this flag.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<PlaneState>> = Mutex::new(None);
/// Total faults fired (all actions, including I/O ones).
static FAULTS_INJECTED: AtomicU64 = AtomicU64::new(0);
/// Faults of the I/O class (`ioerr`/`shortwrite`), wherever fired.
static IO_FAULTS: AtomicU64 = AtomicU64::new(0);

fn lock_state() -> std::sync::MutexGuard<'static, Option<PlaneState>> {
    // A panic *action* fired while a sibling thread holds the lock can
    // never happen (actions fire after the guard drops), but a panicking
    // test elsewhere must not wedge the plane — recover from poisoning.
    STATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs (arms) a fault plan parsed from `spec`, replacing any
/// previous plan and resetting per-point visit counters.
///
/// # Errors
///
/// The parse error for a malformed spec; the previous plan stays armed.
pub fn install(spec: &str) -> Result<(), String> {
    let plan = FaultPlan::parse(spec)?;
    let mut state = lock_state();
    if plan.is_empty() {
        *state = None;
        ARMED.store(false, Ordering::Release);
    } else {
        *state = Some(PlaneState { plan, hits: BTreeMap::new() });
        ARMED.store(true, Ordering::Release);
    }
    Ok(())
}

/// Arms the plan from `PDA_FAULT_PLAN`, if set. Returns whether a plan
/// was installed.
///
/// # Errors
///
/// The parse error for a malformed spec.
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("PDA_FAULT_PLAN") {
        Ok(spec) if !spec.trim().is_empty() => install(&spec).map(|()| true),
        _ => Ok(false),
    }
}

/// Disarms the plane entirely (visit counters are kept readable until
/// the next [`install`]).
pub fn clear() {
    let mut state = lock_state();
    if let Some(s) = state.as_mut() {
        s.plan = FaultPlan::default();
    }
    ARMED.store(false, Ordering::Release);
}

/// True iff a plan is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Total faults fired since process start (monotonic; callers snapshot
/// and diff).
pub fn faults_injected() -> u64 {
    FAULTS_INJECTED.load(Ordering::Relaxed)
}

/// I/O-class faults fired since process start (monotonic).
pub fn io_faults() -> u64 {
    IO_FAULTS.load(Ordering::Relaxed)
}

/// Per-point visit counts accumulated since the last [`install`] —
/// the `record` plan's output, enumerating every seam a workload
/// crossed and how often.
pub fn hits() -> Vec<(String, u64)> {
    lock_state()
        .as_ref()
        .map(|s| s.hits.iter().map(|(k, &v)| (k.clone(), v)).collect())
        .unwrap_or_default()
}

/// Looks up (and counts) a visit, returning the action to fire, if any.
fn check(point: &str) -> Option<FaultAction> {
    let mut state = lock_state();
    let s = state.as_mut()?;
    let hit = {
        let h = s.hits.entry(point.to_string()).or_insert(0);
        *h += 1;
        *h
    };
    s.plan.action_for(point, hit)
    // The guard drops here: actions (sleep! panic!) never run under the
    // plane lock.
}

fn count_fault(io_class: bool) {
    FAULTS_INJECTED.fetch_add(1, Ordering::Relaxed);
    if io_class {
        IO_FAULTS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sleeps `d` in small slices, returning early once the ambient
/// [`Deadline`] expires — so a cooperative timeout shorter than an
/// injected stall still fires at the engine's next poll.
pub fn stall(d: Duration) {
    let deadline = Deadline::ambient();
    let slice = Duration::from_millis(1).min(d);
    let until = std::time::Instant::now() + d;
    loop {
        if deadline.expired() {
            return;
        }
        let now = std::time::Instant::now();
        if now >= until {
            return;
        }
        std::thread::sleep(slice.min(until - now));
    }
}

fn fire(point: &str, action: FaultAction) {
    match action {
        FaultAction::Panic => {
            count_fault(false);
            panic!("injected fault at fault point `{point}`");
        }
        FaultAction::Stall(d) => {
            count_fault(false);
            stall(d);
        }
        FaultAction::IoErr(_) | FaultAction::ShortWrite => {
            // No real I/O to fail at this seam: surface as a tagged
            // panic so the panic-isolation boundary absorbs it.
            count_fault(true);
            panic!("injected io error at fault point `{point}`");
        }
        FaultAction::Abort => {
            count_fault(false);
            eprintln!("faultplane: aborting process at fault point `{point}`");
            std::process::abort();
        }
    }
}

/// Marks a non-I/O fault-point seam. Free (one relaxed atomic load)
/// unless a plan is armed; may panic, stall, or abort when armed.
pub fn fault_point(point: &str) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    if let Some(action) = check(point) {
        fire(point, action);
    }
}

/// Marks an I/O fault-point seam: `ioerr`/`shortwrite` surface as a real
/// [`std::io::Error`] instead of a panic.
///
/// # Errors
///
/// The injected error when an I/O-class action fires at this visit.
pub fn fault_point_io(point: &str) -> io::Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    match check(point) {
        Some(FaultAction::IoErr(kind)) => {
            count_fault(true);
            Err(io::Error::new(kind, format!("injected io error at `{point}`")))
        }
        Some(FaultAction::ShortWrite) => {
            count_fault(true);
            Err(io::Error::new(
                io::ErrorKind::WriteZero,
                format!("injected short write at `{point}`"),
            ))
        }
        Some(action) => {
            fire(point, action);
            Ok(())
        }
        None => Ok(()),
    }
}

/// A [`File`] whose writes route through the fault plane under a fixed
/// point name, so checkpoint/journal writers get `ioerr` and torn
/// `shortwrite` faults injected without their callers changing.
#[derive(Debug)]
pub struct FaultFile {
    inner: File,
    point: String,
}

impl FaultFile {
    /// Wraps an open file; all writes report to fault point `point`.
    pub fn new(inner: File, point: impl Into<String>) -> FaultFile {
        FaultFile { inner, point: point.into() }
    }

    /// Flushes OS buffers to disk (delegates to [`File::sync_all`]).
    ///
    /// # Errors
    ///
    /// Any filesystem error, including an injected one at `<point>.sync`.
    pub fn sync_all(&mut self) -> io::Result<()> {
        if ARMED.load(Ordering::Relaxed) {
            fault_point_io(&format!("{}.sync", self.point))?;
        }
        self.inner.sync_all()
    }
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if ARMED.load(Ordering::Relaxed) {
            match check(&self.point) {
                Some(FaultAction::ShortWrite) => {
                    count_fault(true);
                    // A genuine torn write: half the buffer reaches the
                    // file, then the "device" fails. `write_all` loops on
                    // Ok(n < len), so the failure must be an Err — a
                    // short Ok would just be retried and never tear.
                    let n = buf.len() / 2;
                    if n > 0 {
                        self.inner.write_all(&buf[..n])?;
                    }
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        format!("injected short write at `{}`", self.point),
                    ));
                }
                Some(FaultAction::IoErr(kind)) => {
                    count_fault(true);
                    return Err(io::Error::new(
                        kind,
                        format!("injected io error at `{}`", self.point),
                    ));
                }
                Some(action) => fire(&self.point, action),
                None => {}
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plane is process-global; tests that arm it must not overlap.
    static PLANE_TESTS: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        PLANE_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn plan_grammar_parses_and_rejects() {
        let p = FaultPlan::parse("a.b@2=panic; c=stall:50 ;record").unwrap();
        assert_eq!(p.arms["a.b"], vec![Arm { hit: 2, action: FaultAction::Panic }]);
        assert_eq!(
            p.arms["c"],
            vec![Arm { hit: 0, action: FaultAction::Stall(Duration::from_millis(50)) }]
        );
        assert!(p.record);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        let q = FaultPlan::parse("x@1=ioerr:notfound;y=shortwrite;z@3=abort").unwrap();
        assert_eq!(q.arms["x"][0].action, FaultAction::IoErr(io::ErrorKind::NotFound));
        assert_eq!(q.arms["y"][0].action, FaultAction::ShortWrite);
        assert_eq!(q.arms["z"][0].action, FaultAction::Abort);
        for bad in
            ["nope", "x@0=panic", "x@z=panic", "x@1=explode", "x@1=stall:", "=panic", "seed:1"]
        {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should be rejected");
        }
        // Every listed action parses, with and without its option.
        for action in ACTIONS {
            let action = action.replace("MS", "5");
            for spelled in [action.replace("[:KIND]", ""), action.replace("[:KIND]", ":perm")] {
                assert!(parse_action(&spelled).is_some(), "{spelled}");
            }
        }
    }

    #[test]
    fn explicit_arm_fires_at_exact_hit() {
        let p = FaultPlan::parse("pt@3=panic;every=ioerr").unwrap();
        assert_eq!(p.action_for("pt", 1), None);
        assert_eq!(p.action_for("pt", 2), None);
        assert_eq!(p.action_for("pt", 3), Some(FaultAction::Panic));
        assert_eq!(p.action_for("pt", 4), None);
        for hit in 1..10 {
            assert!(p.action_for("every", hit).is_some());
        }
        assert_eq!(p.action_for("unknown", 1), None);
    }

    #[test]
    fn record_mode_counts_without_firing() {
        let _g = serial();
        install("record").unwrap();
        assert!(armed());
        fault_point("alpha");
        fault_point("alpha");
        fault_point("beta");
        assert!(fault_point_io("gamma").is_ok());
        assert_eq!(
            hits(),
            vec![("alpha".into(), 2), ("beta".into(), 1), ("gamma".into(), 1)]
        );
        clear();
        assert!(!armed());
        // Disarmed points are free and uncounted.
        fault_point("alpha");
        assert_eq!(hits().iter().find(|(n, _)| n == "alpha").unwrap().1, 2);
        install("").unwrap();
        assert!(hits().is_empty(), "install resets counters");
    }

    #[test]
    fn armed_panic_and_ioerr_fire_and_count() {
        let _g = serial();
        install("boom@2=panic;disk@1=ioerr:perm").unwrap();
        let before = faults_injected();
        let io_before = io_faults();
        fault_point("boom"); // hit 1: nothing
        let err = std::panic::catch_unwind(|| fault_point("boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault at fault point `boom`"), "{msg}");
        let e = fault_point_io("disk").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::PermissionDenied);
        assert!(fault_point_io("disk").is_ok(), "hit 2 is clean");
        assert_eq!(faults_injected() - before, 2);
        assert_eq!(io_faults() - io_before, 1);
        // An armed IoErr at a *non-IO* point surfaces as a tagged panic.
        install("dry@1=ioerr").unwrap();
        let err = std::panic::catch_unwind(|| fault_point("dry")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected io error"), "{msg}");
        clear();
    }

    #[test]
    fn fault_file_injects_ioerr_and_short_write() {
        let _g = serial();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pda-faultfile-{}.txt", std::process::id()));
        install("ff@2=ioerr;ff@3=shortwrite").unwrap();
        let mut f = FaultFile::new(File::create(&path).unwrap(), "ff");
        f.write_all(b"first\n").unwrap(); // hit 1: clean
        let e = f.write_all(b"second\n").unwrap_err(); // hit 2: ioerr
        assert_eq!(e.kind(), io::ErrorKind::Other);
        let e = f.write_all(b"0123456789\n").unwrap_err(); // hit 3: torn
        assert_eq!(e.kind(), io::ErrorKind::WriteZero);
        f.write_all(b"last\n").unwrap(); // hit 4: clean again
        f.flush().unwrap();
        clear();
        let body = std::fs::read_to_string(&path).unwrap();
        // The torn write left exactly half of its buffer behind.
        assert_eq!(body, "first\n01234last\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stall_respects_ambient_deadline() {
        let _g = serial();
        let long = Duration::from_secs(5);
        let t0 = std::time::Instant::now();
        {
            let _scope = Deadline::after(Duration::from_millis(20)).enter_ambient();
            stall(long);
        }
        assert!(t0.elapsed() < Duration::from_secs(1), "stall ignored the ambient deadline");
        // Without an ambient deadline the full (short) stall happens.
        let t0 = std::time::Instant::now();
        stall(Duration::from_millis(15));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn install_from_env_roundtrip() {
        let _g = serial();
        // Not set (or set empty) installs nothing.
        std::env::remove_var("PDA_FAULT_PLAN");
        assert_eq!(install_from_env(), Ok(false));
        std::env::set_var("PDA_FAULT_PLAN", "p@1=panic");
        assert_eq!(install_from_env(), Ok(true));
        assert!(armed());
        std::env::set_var("PDA_FAULT_PLAN", "garbage");
        assert!(install_from_env().is_err());
        std::env::remove_var("PDA_FAULT_PLAN");
        clear();
    }
}
