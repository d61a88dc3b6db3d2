//! The transport loop: Unix-socket accept loop (one thread per
//! connection, scoped so handlers may borrow the resident program) or a
//! single-threaded stdin/stdout JSONL session.
//!
//! Drain discipline: SIGTERM/SIGINT raise the [`crate::signal`] latch,
//! which the accept loop copies into the supervisor's drain flag. From
//! that moment no new request is admitted; connection handlers finish
//! the request they are on (a running `batch` op sees the same flag as
//! its cancel signal and checkpoints instead), the listener closes, the
//! journal is flushed, and [`run_daemon`] returns — the daemon exits 0.

use crate::signal;
use crate::supervisor::{ConnState, ServeConfig, Supervisor};
use pda_lang::{CallId, MethodId, Program};
use pda_tracer::{ParamCodec, Query, TracerClient};
use pda_util::FileSink;
use std::fmt;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Everything that can go wrong starting or running a daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket, journal, or trace-file I/O failure.
    Io(String),
    /// The journal exists but cannot be trusted.
    Journal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "{m}"),
            ServeError::Journal(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Transport options (policy lives in [`ServeConfig`]).
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Unix-socket path; `None` serves one JSONL session on
    /// stdin/stdout instead (status lines then go to stderr).
    pub socket: Option<PathBuf>,
    /// Journal path: finished verdicts stream here and are resumed on
    /// restart. A standard batch checkpoint file.
    pub journal: Option<PathBuf>,
    /// Structured JSONL trace output path (per-request obs spans).
    pub trace: Option<PathBuf>,
}

/// What a drained daemon reports on clean exit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonReport {
    /// Requests successfully served (including memo hits).
    pub served: u64,
    /// Requests that resolved as engine faults.
    pub faults: u64,
    /// Cache generations retired after panics.
    pub quarantines: u64,
    /// Queries resumed from the journal at startup.
    pub resumed: usize,
}

/// Loads the resident state and serves until drained.
///
/// Blocks for the daemon's whole life; returns the exit report on a
/// clean drain (signal or `shutdown` op).
///
/// # Errors
///
/// [`ServeError::Io`] when the socket or trace file cannot be set up;
/// [`ServeError::Journal`] when an existing journal cannot be trusted.
pub fn run_daemon<C>(
    program: &Program,
    callees: &(dyn Fn(CallId) -> Vec<MethodId> + Sync),
    client: &C,
    queries: Vec<Query<C::Prim>>,
    labels: Vec<String>,
    config: ServeConfig,
    options: &DaemonOptions,
) -> Result<DaemonReport, ServeError>
where
    C: TracerClient + Sync,
    C::Param: Send + ParamCodec,
    C::State: Send + Sync,
    C::Prim: Sync + Send,
{
    let mut sup = Supervisor::new(program, callees, client, queries, labels, config);
    if let Some(path) = &options.trace {
        let sink = FileSink::create(path)
            .map_err(|e| ServeError::Io(format!("trace {}: {e}", path.display())))?;
        sup.attach_trace(sink);
    }
    let mut resumed = 0;
    if let Some(path) = &options.journal {
        resumed = sup.attach_journal(path.clone()).map_err(ServeError::Journal)?;
    }
    signal::install_term_latch();
    match &options.socket {
        Some(path) => serve_socket(&sup, path, resumed)?,
        None => serve_stdio(&sup, resumed)?,
    }
    sup.close_journal();
    Ok(DaemonReport {
        served: sup.served(),
        faults: sup.faults(),
        quarantines: sup.quarantines(),
        resumed,
    })
}

fn serve_socket<C>(
    sup: &Supervisor<'_, C>,
    path: &PathBuf,
    resumed: usize,
) -> Result<(), ServeError>
where
    C: TracerClient + Sync,
    C::Param: Send + ParamCodec,
    C::State: Send + Sync,
    C::Prim: Sync + Send,
{
    // A stale socket file from a killed daemon would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .map_err(|e| ServeError::Io(format!("bind {}: {e}", path.display())))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Io(format!("nonblocking listener: {e}")))?;
    // The readiness line scripts wait for before connecting.
    println!("pda-serve: listening on {} ({} resumed)", path.display(), resumed);
    let _ = std::io::stdout().flush();

    let drain = sup.drain_flag();
    std::thread::scope(|scope| {
        loop {
            if signal::term_requested() {
                drain.store(true, Ordering::SeqCst);
            }
            if drain.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    scope.spawn(move || handle_connection(sup, stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
        // Scope exit joins every connection handler: each notices the
        // drain flag at its next read-timeout tick and returns.
    });
    let _ = std::fs::remove_file(path);
    println!(
        "pda-serve: drained (served {} faults {} quarantines {})",
        sup.served(),
        sup.faults(),
        sup.quarantines()
    );
    Ok(())
}

fn handle_connection<C>(sup: &Supervisor<'_, C>, stream: UnixStream)
where
    C: TracerClient + Sync,
    C::Param: Send + ParamCodec,
    C::State: Send + Sync,
    C::Prim: Sync + Send,
{
    // The timeout bounds how long a drained daemon waits on an idle
    // connection; requests in progress are never interrupted.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = LineReader::default();
    let mut input = &stream;
    let mut output = &stream;
    let mut conn = ConnState::new(sup.generation());
    while let Some(line) = reader.next_line(&mut input, || sup.draining()) {
        if line.trim().is_empty() {
            continue;
        }
        let reply = sup.handle_line(&mut conn, &line);
        if writeln!(output, "{}", reply.text).and_then(|()| output.flush()).is_err() {
            break; // client went away mid-response
        }
        if reply.shutdown {
            break;
        }
    }
}

/// Accumulates raw reads into complete lines, surviving read timeouts
/// mid-line; `stop` is polled only between reads, so a request already
/// admitted always gets its response.
#[derive(Default)]
struct LineReader {
    buf: Vec<u8>,
}

impl LineReader {
    fn next_line(&mut self, stream: &mut impl Read, stop: impl Fn() -> bool) -> Option<String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                return Some(String::from_utf8_lossy(&line).into_owned());
            }
            if stop() {
                return None;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return None,
            }
        }
    }
}

fn serve_stdio<C>(sup: &Supervisor<'_, C>, resumed: usize) -> Result<(), ServeError>
where
    C: TracerClient + Sync,
    C::Param: Send + ParamCodec,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    eprintln!("pda-serve: serving stdio ({resumed} resumed)");
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut conn = ConnState::new(sup.generation());
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| ServeError::Io(format!("stdin: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = sup.handle_line(&mut conn, &line);
        {
            let mut out = stdout.lock();
            writeln!(out, "{}", reply.text)
                .and_then(|()| out.flush())
                .map_err(|e| ServeError::Io(format!("stdout: {e}")))?;
        }
        if reply.shutdown || sup.draining() || signal::term_requested() {
            break;
        }
    }
    Ok(())
}

/// One-shot client helper: connects to a daemon socket, sends one
/// request line, and returns the response line. Used by `pda request`
/// and the tests.
///
/// # Errors
///
/// [`ServeError::Io`] when the daemon is unreachable or hangs up before
/// responding.
pub fn request_line(socket: &std::path::Path, line: &str) -> Result<String, ServeError> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| ServeError::Io(format!("connect {}: {e}", socket.display())))?;
    let mut writer = &stream;
    writeln!(writer, "{line}")
        .and_then(|()| writer.flush())
        .map_err(|e| ServeError::Io(format!("send: {e}")))?;
    let mut reader = std::io::BufReader::new(&stream);
    let mut response = String::new();
    reader
        .read_line(&mut response)
        .map_err(|e| ServeError::Io(format!("recv: {e}")))?;
    if response.is_empty() {
        return Err(ServeError::Io("daemon closed the connection without a response".into()));
    }
    Ok(response.trim_end_matches('\n').to_string())
}
