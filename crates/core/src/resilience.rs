//! Checkpoint/resume for batch runs: never lose finished work.
//!
//! [`solve_queries_batch_checkpointed`] streams every finished
//! [`QueryResult`] to a JSONL file *as soon as it exists* (one flushed
//! line per query, so a `kill -9` loses at most the in-flight queries),
//! and on restart loads the file, skips every already-resolved query, and
//! solves only the remainder. The final result vector is identical to an
//! uninterrupted run's, modulo the timing fields.
//!
//! # Checkpoint format
//!
//! Line 1 is a header; each further line is one result record:
//!
//! ```text
//! {"v":3,"kind":"pda-batch-checkpoint","queries":23}
//! {"i":0,"outcome":"proven","param":"9:1,4","cost":2,"iterations":3,"micros":412,"retries":0,...}
//! {"i":2,"outcome":"impossible","iterations":4,"micros":96,"retries":0,...}
//! {"i":1,"outcome":"unresolved","reason":"engine_fault","detail":"...","iterations":0,"micros":8,"retries":2,...}
//! ```
//!
//! The writer is hand-rolled (the workspace is offline and registry-free
//! by policy); the reader tolerates a torn final line — the signature of
//! a kill mid-write — by re-running that query. A header whose `queries`
//! count or `kind` disagrees with the current batch is rejected: resuming
//! against the wrong program would silently mis-assign results.
//!
//! Version 2 adds the per-record `retries` counter (the transient-fault
//! ladder of [`crate::batch::RetryPolicy`]), so a resumed run's
//! [`BatchStats`] totals — including `retries` — match an uninterrupted
//! run's instead of resetting restored counters to zero. Version 3 drops
//! the per-record `escalations` count (the fact-budget escalation ladder
//! is gone), so a binary that still requires it reports a version
//! mismatch instead of a corrupt record. Version 1 and 2 files still
//! load: their records decode with `retries = 0` where it is missing,
//! and a leftover `escalations` key is ignored. Queries stopped
//! by the drain flag ([`Unresolved::Drained`]) are *never* journaled:
//! the batch runner withholds them from the streaming sink, so a resumed
//! run re-solves them and reproduces the uninterrupted outcome lines.
//!
//! Abstraction parameters cross the serialization boundary via
//! [`ParamCodec`]; both real clients (and [`crate::nullcli::NullClient`])
//! use [`BitSet`] parameters, covered by the impl here.

use crate::batch::{outcome_tag, run_batch, BatchConfig, BatchStats, Resume};
use crate::client::{Query, TracerClient};
use crate::tracer::{Outcome, QueryResult, Unresolved};
use pda_lang::{CallId, MethodId, Program};
use pda_meta::MetaStats;
use pda_util::json::{json_escape, parse_json_line};
use pda_util::{fault_point_io, BitSet, FaultFile, TraceSink};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Round-trips an abstraction parameter through a checkpoint record.
pub trait ParamCodec: Sized {
    /// Encodes the parameter as a single-line string.
    fn encode_param(&self) -> String;
    /// Decodes a string produced by [`ParamCodec::encode_param`].
    fn decode_param(s: &str) -> Option<Self>;
}

/// `universe:elem,elem,...` — e.g. `9:1,4` for `{1,4} ⊆ 0..9`, `9:` for
/// the empty set.
impl ParamCodec for BitSet {
    fn encode_param(&self) -> String {
        let elems: Vec<String> = self.iter().map(|i| i.to_string()).collect();
        format!("{}:{}", self.universe(), elems.join(","))
    }

    fn decode_param(s: &str) -> Option<Self> {
        let (n, elems) = s.split_once(':')?;
        let n: usize = n.parse().ok()?;
        let mut out = BitSet::new(n);
        for e in elems.split(',').filter(|e| !e.is_empty()) {
            let i: usize = e.parse().ok()?;
            if i >= n {
                return None;
            }
            out.insert(i);
        }
        Some(out)
    }
}

/// Why a checkpoint could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A non-final line failed to parse (torn *final* lines are
    /// tolerated).
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The header does not belong to this batch.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt { line, reason } => {
                write!(f, "checkpoint corrupt at line {line}: {reason}")
            }
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}


const KIND: &str = "pda-batch-checkpoint";
const VERSION: &str = "3";
/// Header versions the loader accepts (older records decode with their
/// missing counters at zero).
const READABLE_VERSIONS: [&str; 3] = ["1", "2", "3"];

fn header_line(n_queries: usize) -> String {
    format!("{{\"v\":{VERSION},\"kind\":\"{KIND}\",\"queries\":{n_queries}}}")
}

fn record_line<P: ParamCodec>(i: usize, r: &QueryResult<P>) -> String {
    let m = &r.meta;
    let tail = format!(
        "\"iterations\":{},\"micros\":{},\"retries\":{},\
         \"m_cubes\":{},\"m_sub\":{},\"m_subf\":{},\"m_wph\":{},\"m_wpm\":{},\"m_drop\":{},\
         \"m_us\":{}",
        r.iterations,
        r.micros,
        r.retries,
        m.cubes_built,
        m.subsumption_checks,
        m.subsumption_fast_rejects,
        m.wp_hits,
        m.wp_misses,
        m.approx_drops,
        m.micros,
    );
    match &r.outcome {
        Outcome::Proven { param, cost } => format!(
            "{{\"i\":{i},\"outcome\":\"proven\",\"param\":\"{}\",\"cost\":{cost},{tail}}}",
            json_escape(&param.encode_param())
        ),
        Outcome::Impossible => format!("{{\"i\":{i},\"outcome\":\"impossible\",{tail}}}"),
        Outcome::Unresolved(u) => {
            let detail = match u {
                Unresolved::MetaFailure(m) | Unresolved::EngineFault(m) => {
                    format!("\"detail\":\"{}\",", json_escape(m))
                }
                _ => String::new(),
            };
            let reason = outcome_tag(&r.outcome);
            format!(
                "{{\"i\":{i},\"outcome\":\"unresolved\",\"reason\":\"{reason}\",{detail}{tail}}}"
            )
        }
    }
}

fn decode_record<P: ParamCodec>(line: &str) -> Option<(usize, QueryResult<P>)> {
    let fields = parse_json_line(line)?;
    let i: usize = fields.get("i")?.parse().ok()?;
    let iterations: usize = fields.get("iterations")?.parse().ok()?;
    let micros: u128 = fields.get("micros")?.parse().ok()?;
    // Absent before v2; defaulting keeps v1 checkpoints readable. Meta
    // counters default to zero for the same reason, and fields an older
    // writer wrote that this one no longer does are ignored.
    let retries: u32 = fields.get("retries").and_then(|v| v.parse().ok()).unwrap_or(0);
    let m = |k: &str| fields.get(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let meta = MetaStats {
        cubes_built: m("m_cubes"),
        subsumption_checks: m("m_sub"),
        subsumption_fast_rejects: m("m_subf"),
        wp_hits: m("m_wph"),
        wp_misses: m("m_wpm"),
        approx_drops: m("m_drop"),
        micros: m("m_us"),
    };
    let outcome = match fields.get("outcome")?.as_str() {
        "proven" => Outcome::Proven {
            param: P::decode_param(fields.get("param")?)?,
            cost: fields.get("cost")?.parse().ok()?,
        },
        "impossible" => Outcome::Impossible,
        "unresolved" => Outcome::Unresolved(match fields.get("reason")?.as_str() {
            "iteration_budget" => Unresolved::IterationBudget,
            "too_big" => Unresolved::AnalysisTooBig,
            "meta_failure" => Unresolved::MetaFailure(fields.get("detail")?.clone()),
            "deadline" => Unresolved::DeadlineExceeded,
            "engine_fault" => Unresolved::EngineFault(fields.get("detail")?.clone()),
            "mem_budget" => Unresolved::MemBudgetExceeded,
            "drained" => Unresolved::Drained,
            _ => return None,
        }),
        _ => return None,
    };
    Some((i, QueryResult { outcome, iterations, micros, retries, meta }))
}

/// Streams finished results to a checkpoint file, one flushed line each.
///
/// Every write syscall routes through a [`FaultFile`] under the
/// `journal.write` fault point, so I/O-error and torn-write faults are
/// injectable without touching any caller.
pub struct CheckpointWriter {
    out: BufWriter<FaultFile>,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint for a batch of `n_queries`,
    /// writing the header line.
    ///
    /// # Errors
    ///
    /// Any filesystem error, including injected ones at `journal.create`
    /// / `journal.write`.
    pub fn create(path: &Path, n_queries: usize) -> Result<Self, CheckpointError> {
        fault_point_io("journal.create")?;
        let mut out = BufWriter::new(FaultFile::new(File::create(path)?, "journal.write"));
        writeln!(out, "{}", header_line(n_queries))?;
        out.flush()?;
        Ok(CheckpointWriter { out })
    }

    /// Reopens an existing checkpoint for appending, without truncating
    /// or rewriting what is already there. The caller vouches that the
    /// file ends in a complete line (e.g. it was just written by this
    /// writer, or validated via [`load_checkpoint`]); the analysis
    /// daemon uses this to hand its journal back and forth with the
    /// batch driver across requests.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn open_append(path: &Path) -> Result<Self, CheckpointError> {
        fault_point_io("journal.open")?;
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(CheckpointWriter { out: BufWriter::new(FaultFile::new(file, "journal.write")) })
    }

    /// Appends (and flushes) one result record.
    ///
    /// # Errors
    ///
    /// Any filesystem error, including injected ones at `journal.append`
    /// (before any bytes move) / `journal.write` (the write itself).
    pub fn append<P: ParamCodec>(
        &mut self,
        i: usize,
        r: &QueryResult<P>,
    ) -> Result<(), CheckpointError> {
        fault_point_io("journal.append")?;
        writeln!(self.out, "{}", record_line(i, r))?;
        self.out.flush()?;
        Ok(())
    }
}

/// Crash-safely rewrites `path` to exactly `header + records` and
/// returns a writer appending to the rewritten file.
///
/// The rewrite goes through a temp file in the same directory
/// (`<path>.tmp`), which is flushed, fsynced, and atomically renamed
/// over `path` (the parent directory is then fsynced too, best-effort).
/// A crash at *any* step — enumerable via the `journal.compact.begin`,
/// `journal.compact.write`, and `journal.compact.rename` fault points —
/// leaves either the old file or the new one intact, never a
/// half-rewritten journal: previously durable records cannot be
/// destroyed by a failed compaction.
///
/// `records` need not be sorted; they are written in ascending index
/// order.
///
/// # Errors
///
/// Any filesystem error (injected or real). On error `path` is
/// untouched; a stale `<path>.tmp` may remain and is overwritten by the
/// next compaction.
fn compact_checkpoint<P: ParamCodec>(
    path: &Path,
    n_queries: usize,
    records: &[(usize, &QueryResult<P>)],
) -> Result<CheckpointWriter, CheckpointError> {
    fault_point_io("journal.compact.begin")?;
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let mut sorted: Vec<&(usize, &QueryResult<P>)> = records.iter().collect();
    sorted.sort_by_key(|(i, _)| *i);
    let mut out =
        BufWriter::new(FaultFile::new(File::create(&tmp)?, "journal.compact.write"));
    writeln!(out, "{}", header_line(n_queries))?;
    for (i, r) in sorted {
        writeln!(out, "{}", record_line(*i, r))?;
    }
    out.flush()?;
    let mut file = out.into_inner().map_err(|e| CheckpointError::Io(e.into_error()))?;
    file.sync_all()?;
    drop(file);
    fault_point_io("journal.compact.rename")?;
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable. Failure to fsync the directory is
    // tolerated (some filesystems refuse); the rename is still atomic.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        }) {
            let _ = dir.sync_all();
        }
    }
    CheckpointWriter::open_append(path)
}

/// Loads a checkpoint written for a batch of `n_queries`, returning the
/// restored per-index results.
///
/// A torn final line (kill mid-write) is dropped; its query re-runs on
/// resume. Duplicate indices keep the last record.
///
/// # Errors
///
/// [`CheckpointError::Mismatch`] if the header disagrees with this batch,
/// [`CheckpointError::Corrupt`] for a malformed non-final line, or
/// [`CheckpointError::Io`].
pub fn load_checkpoint<P: ParamCodec>(
    path: &Path,
    n_queries: usize,
) -> Result<HashMap<usize, QueryResult<P>>, CheckpointError> {
    let lines: Vec<String> = BufReader::new(File::open(path)?)
        .lines()
        .collect::<Result<_, _>>()?;
    let Some(header) = lines.first() else {
        return Err(CheckpointError::Mismatch("empty checkpoint file".into()));
    };
    let fields = parse_json_line(header)
        .ok_or_else(|| CheckpointError::Mismatch("unparsable header".into()))?;
    if fields.get("kind").map(String::as_str) != Some(KIND) {
        return Err(CheckpointError::Mismatch(format!(
            "not a {KIND} file (kind={:?})",
            fields.get("kind")
        )));
    }
    if !fields.get("v").is_some_and(|v| READABLE_VERSIONS.contains(&v.as_str())) {
        return Err(CheckpointError::Mismatch(format!("unsupported version {:?}", fields.get("v"))));
    }
    if fields.get("queries").and_then(|q| q.parse::<usize>().ok()) != Some(n_queries) {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint is for {:?} queries, batch has {n_queries}",
            fields.get("queries")
        )));
    }
    let mut restored = HashMap::new();
    let last = lines.len() - 1;
    for (idx, line) in lines.iter().enumerate().skip(1) {
        match decode_record::<P>(line) {
            Some((i, r)) if i < n_queries => {
                restored.insert(i, r);
            }
            Some((i, _)) => {
                return Err(CheckpointError::Corrupt {
                    line: idx + 1,
                    reason: format!("query index {i} out of range"),
                });
            }
            None if idx == last => {} // torn final line: re-run that query
            None => {
                return Err(CheckpointError::Corrupt {
                    line: idx + 1,
                    reason: "unparsable record".into(),
                });
            }
        }
    }
    Ok(restored)
}

/// Opens the checkpoint at `path` for a batch of `n_queries`, for both
/// the checkpointing batch driver and the analysis daemon's journal. An
/// existing file is loaded and rewritten compactly through the crash-safe
/// compaction above, which drops a torn final line (it would otherwise
/// corrupt the first appended record) and duplicate records; a missing
/// file is created. Returns the restored records, by query index, and a
/// writer appending after them. Which restored records to trust is the
/// caller's policy.
///
/// # Errors
///
/// Those of [`load_checkpoint`], or a filesystem error creating or
/// compacting the file (on which an existing file is left untouched).
pub fn open_checkpoint<P: ParamCodec>(
    path: &Path,
    n_queries: usize,
) -> Result<(HashMap<usize, QueryResult<P>>, CheckpointWriter), CheckpointError> {
    if !path.exists() {
        return Ok((HashMap::new(), CheckpointWriter::create(path, n_queries)?));
    }
    let restored = load_checkpoint::<P>(path, n_queries)?;
    let records: Vec<(usize, &QueryResult<P>)> = restored.iter().map(|(&i, r)| (i, r)).collect();
    let writer = compact_checkpoint(path, n_queries, &records)?;
    Ok((restored, writer))
}

/// Results plus batch statistics, as returned by the plain batch driver.
pub type BatchOutput<P> = (Vec<QueryResult<P>>, BatchStats);

/// [`crate::batch::solve_queries_batch`] with checkpoint/resume.
///
/// If `path` exists it must be a checkpoint for this batch (same query
/// count); its records are restored and those queries skipped. Otherwise
/// the file is created. Every freshly finished query is appended and
/// flushed immediately, so an interrupted run resumes where it left off
/// and the combined result set equals an uninterrupted run's.
///
/// # Errors
///
/// Checkpoint load/validation errors before solving starts; a checkpoint
/// *write* failure mid-run surfaces after the batch completes (results
/// are computed either way, but the file can no longer be trusted as a
/// resume point).
pub fn solve_queries_batch_checkpointed<C>(
    program: &Program,
    callees: &(dyn Fn(CallId) -> Vec<MethodId> + Sync),
    client: &C,
    queries: &[Query<C::Prim>],
    config: &BatchConfig,
    path: &Path,
) -> Result<BatchOutput<C::Param>, CheckpointError>
where
    C: TracerClient + Sync,
    C::Param: Send + ParamCodec,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    solve_queries_batch_checkpointed_traced(program, callees, client, queries, config, path, None)
}

/// [`solve_queries_batch_checkpointed`] with a structured trace (see
/// [`crate::batch::solve_queries_batch_traced`]). Checkpoint-resumed
/// queries contribute only their `query_resolved` event.
///
/// # Errors
///
/// Exactly those of [`solve_queries_batch_checkpointed`].
pub fn solve_queries_batch_checkpointed_traced<C>(
    program: &Program,
    callees: &(dyn Fn(CallId) -> Vec<MethodId> + Sync),
    client: &C,
    queries: &[Query<C::Prim>],
    config: &BatchConfig,
    path: &Path,
    trace: Option<&dyn TraceSink>,
) -> Result<BatchOutput<C::Param>, CheckpointError>
where
    C: TracerClient + Sync,
    C::Param: Send + ParamCodec,
    C::State: Send + Sync,
    C::Prim: Send + Sync,
{
    // Every restored record is skipped, whatever its outcome.
    let (skip, writer) = open_checkpoint::<C::Param>(path, queries.len())?;
    let writer = Mutex::new(writer);
    let write_err: Mutex<Option<CheckpointError>> = Mutex::new(None);
    let sink = |i: usize, r: &QueryResult<C::Param>| {
        // Fail-stop: after the first write error the file may end in a
        // torn line, and appending past it would bury the tear mid-file
        // where the loader (rightly) treats it as corruption. Stopping
        // keeps everything up to the tear a loadable prefix.
        let mut err = write_err.lock().expect("error slot poisoned");
        if err.is_some() {
            return;
        }
        let mut w = writer.lock().expect("checkpoint writer poisoned");
        if let Err(e) = w.append(i, r) {
            *err = Some(e);
        }
    };
    let resume = Resume { skip, sink: Some(&sink), trace };
    let (results, stats) = run_batch(program, callees, client, queries, config, resume);
    if let Some(e) = write_err.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pda-ckpt-{}-{name}.jsonl", std::process::id()))
    }

    fn sample_results() -> Vec<QueryResult<BitSet>> {
        vec![
            QueryResult {
                outcome: Outcome::Proven { param: BitSet::from_iter(9, [1, 4]), cost: 2 },
                iterations: 3,
                micros: 412,
                retries: 1,
                meta: MetaStats {
                    cubes_built: 12,
                    subsumption_checks: 20,
                    subsumption_fast_rejects: 5,
                    wp_hits: 8,
                    wp_misses: 2,
                    approx_drops: 3,
                    micros: 42,
                },
            },
            QueryResult {
                outcome: Outcome::Impossible,
                iterations: 4,
                micros: 96,
                retries: 0,
                meta: MetaStats { wp_misses: 1, micros: 7, ..MetaStats::default() },
            },
            QueryResult {
                outcome: Outcome::Unresolved(Unresolved::EngineFault(
                    "panicked: \"quote\\backslash\"\nnewline".into(),
                )),
                iterations: 0,
                micros: 8,
                retries: 3,
                meta: MetaStats::default(),
            },
            QueryResult {
                outcome: Outcome::Unresolved(Unresolved::MetaFailure("step 3".into())),
                iterations: 2,
                micros: 33,
                retries: 0,
                meta: MetaStats::default(),
            },
            QueryResult {
                outcome: Outcome::Unresolved(Unresolved::DeadlineExceeded),
                iterations: 0,
                micros: 1,
                retries: 2,
                meta: MetaStats::default(),
            },
            QueryResult {
                outcome: Outcome::Unresolved(Unresolved::IterationBudget),
                iterations: 200,
                micros: 99_999,
                retries: 0,
                meta: MetaStats::default(),
            },
            QueryResult {
                outcome: Outcome::Unresolved(Unresolved::AnalysisTooBig),
                iterations: 1,
                micros: 77,
                retries: 1,
                meta: MetaStats::default(),
            },
            QueryResult {
                outcome: Outcome::Unresolved(Unresolved::MemBudgetExceeded),
                iterations: 6,
                micros: 210,
                retries: 0,
                meta: MetaStats { wp_hits: 2, ..MetaStats::default() },
            },
        ]
    }

    #[test]
    fn bitset_codec_roundtrips() {
        for s in [
            BitSet::new(0),
            BitSet::new(7),
            BitSet::from_iter(9, [1, 4]),
            BitSet::full(65),
        ] {
            let enc = s.encode_param();
            assert_eq!(BitSet::decode_param(&enc), Some(s), "via {enc:?}");
        }
        assert_eq!(BitSet::decode_param("junk"), None);
        assert_eq!(BitSet::decode_param("3:9"), None, "element outside universe");
    }

    #[test]
    fn records_roundtrip_every_outcome() {
        for (i, r) in sample_results().iter().enumerate() {
            let line = record_line(i, r);
            let (j, back) = decode_record::<BitSet>(&line).expect("decodes");
            assert_eq!(j, i);
            assert_eq!(&back, r, "via {line}");
        }
    }

    #[test]
    fn v1_checkpoints_still_load_with_zero_retries() {
        let path = temp_path("v1");
        // A file exactly as the v1 writer produced it: no "retries", no
        // governor/meta fields on the second record.
        std::fs::write(
            &path,
            "{\"v\":1,\"kind\":\"pda-batch-checkpoint\",\"queries\":2}\n\
             {\"i\":0,\"outcome\":\"proven\",\"param\":\"9:1,4\",\"cost\":2,\"iterations\":3,\"micros\":412,\"escalations\":1}\n\
             {\"i\":1,\"outcome\":\"impossible\",\"iterations\":4,\"micros\":96,\"escalations\":0}\n",
        )
        .unwrap();
        let restored = load_checkpoint::<BitSet>(&path, 2).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[&0].retries, 0);
        assert!(matches!(restored[&1].outcome, Outcome::Impossible));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn readable_header_versions_load_and_later_ones_are_a_mismatch() {
        let path = temp_path("versions");
        let record = record_line(0, &sample_results()[1]);
        for v in ["1", "2", "3"] {
            let header = format!("{{\"v\":{v},\"kind\":\"{KIND}\",\"queries\":1}}");
            std::fs::write(&path, format!("{header}\n{record}\n")).unwrap();
            let restored = load_checkpoint::<BitSet>(&path, 1).unwrap();
            assert_eq!(restored[&0], sample_results()[1], "v{v}");
        }
        assert_eq!(header_line(1), format!("{{\"v\":3,\"kind\":\"{KIND}\",\"queries\":1}}"));
        std::fs::write(&path, format!("{{\"v\":4,\"kind\":\"{KIND}\",\"queries\":1}}\n{record}\n"))
            .unwrap();
        assert!(matches!(
            load_checkpoint::<BitSet>(&path, 1),
            Err(CheckpointError::Mismatch(m)) if m.contains("unsupported version")
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_with_retired_governor_fields_still_load() {
        let path = temp_path("governor-fields");
        // A v2 record exactly as a writer with the degradation ladder
        // produced it: nonzero `degradations` and `m_mev`.
        std::fs::write(
            &path,
            "{\"v\":2,\"kind\":\"pda-batch-checkpoint\",\"queries\":1}\n\
             {\"i\":0,\"outcome\":\"unresolved\",\"reason\":\"mem_budget\",\"iterations\":6,\
             \"micros\":210,\"escalations\":0,\"degradations\":8,\"retries\":1,\"m_cubes\":4,\
             \"m_sub\":0,\"m_subf\":0,\"m_wph\":3,\"m_wpm\":1,\"m_drop\":0,\"m_mev\":2,\
             \"m_us\":9}\n",
        )
        .unwrap();
        let restored = load_checkpoint::<BitSet>(&path, 1).unwrap();
        let r = &restored[&0];
        assert_eq!(r.outcome, Outcome::Unresolved(Unresolved::MemBudgetExceeded));
        assert_eq!((r.iterations, r.micros, r.retries), (6, 210, 1));
        assert_eq!(
            r.meta,
            MetaStats {
                cubes_built: 4,
                wp_hits: 3,
                wp_misses: 1,
                micros: 9,
                ..MetaStats::default()
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_with_or_without_retired_escalations_load() {
        let path = temp_path("escalations-field");
        // Record 0 exactly as a v2 writer with the fact-budget escalation
        // ladder produced it; record 1 as this writer does, without it.
        let fields = "\"iterations\":3,\"micros\":412,\"retries\":1,\"m_cubes\":4,\
                      \"m_sub\":5,\"m_subf\":1,\"m_wph\":3,\"m_wpm\":1,\"m_drop\":2,\"m_us\":9";
        let with_key = fields.replace("\"retries\"", "\"escalations\":2,\"retries\"");
        std::fs::write(
            &path,
            format!(
                "{{\"v\":2,\"kind\":\"pda-batch-checkpoint\",\"queries\":2}}\n\
                 {{\"i\":0,\"outcome\":\"proven\",\"param\":\"9:1,4\",\"cost\":2,{with_key}}}\n\
                 {{\"i\":1,\"outcome\":\"proven\",\"param\":\"9:1,4\",\"cost\":2,{fields}}}\n"
            ),
        )
        .unwrap();
        let restored = load_checkpoint::<BitSet>(&path, 2).unwrap();
        let expected = QueryResult {
            outcome: Outcome::Proven { param: BitSet::from_iter(9, [1, 4]), cost: 2 },
            iterations: 3,
            micros: 412,
            retries: 1,
            meta: MetaStats {
                cubes_built: 4,
                subsumption_checks: 5,
                subsumption_fast_rejects: 1,
                wp_hits: 3,
                wp_misses: 1,
                approx_drops: 2,
                micros: 9,
            },
        };
        assert_eq!(restored[&0], expected);
        assert_eq!(restored[&1], expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drained_record_roundtrips_but_is_never_journaled_by_the_runner() {
        // Codec totality: a drained result encodes/decodes like any other…
        let r = QueryResult::<BitSet> {
            outcome: Outcome::Unresolved(Unresolved::Drained),
            iterations: 0,
            micros: 0,
            retries: 0,
            meta: MetaStats::default(),
        };
        let line = record_line(7, &r);
        assert!(line.contains("\"reason\":\"drained\""));
        let (i, back) = decode_record::<BitSet>(&line).unwrap();
        assert_eq!((i, back), (7, r));
        // …but a drained batch journals nothing beyond the header.
        let program =
            pda_lang::parse_program("fn main() { var x; x = null; query q: local x; }").unwrap();
        let pa = pda_analysis::PointsTo::analyze(&program);
        let client = crate::nullcli::NullClient::new(&program);
        let q = program.query_by_label("q").unwrap();
        let queries = vec![client.query(&program, q)];
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let config = BatchConfig { jobs: 1, cancel: Some(flag), ..BatchConfig::default() };
        let path = temp_path("drained");
        std::fs::remove_file(&path).ok();
        let (results, _) = solve_queries_batch_checkpointed(
            &program,
            &|c| pa.callees(c).to_vec(),
            &client,
            &queries,
            &config,
            &path,
        )
        .unwrap();
        assert_eq!(results[0].outcome, Outcome::Unresolved(Unresolved::Drained));
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 1, "only the header: {body:?}");
        // Resuming with the flag lowered re-solves the query from scratch
        // and matches an uninterrupted run.
        let resumed_config = BatchConfig { jobs: 1, ..BatchConfig::default() };
        let (resumed, stats) = solve_queries_batch_checkpointed(
            &program,
            &|c| pa.callees(c).to_vec(),
            &client,
            &queries,
            &resumed_config,
            &path,
        )
        .unwrap();
        let (uninterrupted, _) = crate::batch::solve_queries_batch(
            &program,
            &|c| pa.callees(c).to_vec(),
            &client,
            &queries,
            &resumed_config,
        );
        assert_eq!(resumed[0].outcome, uninterrupted[0].outcome);
        assert_eq!(stats.resumed, 0, "nothing was restored from the drained journal");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_write_load_roundtrip_and_torn_tail() {
        let path = temp_path("roundtrip");
        let results = sample_results();
        let mut w = CheckpointWriter::create(&path, results.len()).unwrap();
        for (i, r) in results.iter().enumerate() {
            w.append(i, r).unwrap();
        }
        drop(w);
        // Simulate a kill mid-write: append half a record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"i\":99,\"outcome\":\"prov").unwrap();
        }
        let restored = load_checkpoint::<BitSet>(&path, results.len()).unwrap();
        assert_eq!(restored.len(), results.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(&restored[&i], r);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_or_corrupt_checkpoints_rejected() {
        let path = temp_path("reject");
        let mut w = CheckpointWriter::create(&path, 3).unwrap();
        w.append(0, &sample_results()[1]).unwrap();
        drop(w);
        // Wrong query count.
        assert!(matches!(
            load_checkpoint::<BitSet>(&path, 4),
            Err(CheckpointError::Mismatch(_))
        ));
        // Garbage on a NON-final line is an error, not a torn tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "garbage").unwrap();
            writeln!(f, "{}", record_line(1, &sample_results()[1])).unwrap();
        }
        assert!(matches!(
            load_checkpoint::<BitSet>(&path, 3),
            Err(CheckpointError::Corrupt { line: 3, .. })
        ));
        // A record index outside the batch is corruption too.
        let path2 = temp_path("range");
        let mut w = CheckpointWriter::create(&path2, 1).unwrap();
        w.append(5, &sample_results()[1]).unwrap();
        drop(w);
        assert!(matches!(
            load_checkpoint::<BitSet>(&path2, 1),
            Err(CheckpointError::Corrupt { .. })
        ));
        // Not a checkpoint at all.
        let path3 = temp_path("kind");
        std::fs::write(&path3, "{\"v\":1,\"kind\":\"other\",\"queries\":1}\n").unwrap();
        assert!(matches!(
            load_checkpoint::<BitSet>(&path3, 1),
            Err(CheckpointError::Mismatch(_))
        ));
        for p in [path, path2, path3] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn json_escape_handles_control_chars() {
        let s = "a\"b\\c\nd\te\u{1}";
        let line = format!("{{\"k\":\"{}\"}}", json_escape(s));
        let fields = parse_json_line(&line).unwrap();
        assert_eq!(fields["k"], s);
    }
}
