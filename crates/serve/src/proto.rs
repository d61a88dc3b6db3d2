//! The daemon's wire protocol: one flat JSON object per line in each
//! direction, using the same hand-rolled codec as the batch checkpoint
//! format (`pda_util::json`). Values are strings or unsigned integers;
//! there is no nesting, so every line parses with
//! [`pda_util::json::parse_json_line`].
//!
//! Requests:
//!
//! ```json
//! {"op":"health"}
//! {"op":"solve","query":"q3"}
//! {"op":"solve","index":4,"deadline_ms":500,"id":"req-17"}
//! {"op":"batch"}
//! {"op":"shutdown"}
//! ```
//!
//! A key the op does not read is a `bad_request`, so a misspelled or
//! retired field never passes as a plain request.
//!
//! Responses always carry `"ok"` (`"true"`/`"false"` — the codec has no
//! booleans), `"op"`, and `"generation"`, plus the echoed `"id"` when the
//! request had one. Successful solves add `outcome`/`param`/`cost`/
//! `iterations`/`retries`/`resumed`; failures add `error` (the outcome
//! tag, e.g. `engine_fault`) and a human-readable `detail`.

use pda_util::json::{json_escape, parse_json_line};

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// The operation.
    pub op: Op,
}

/// The operations the daemon understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Liveness/readiness probe with the supervision counters.
    Health,
    /// Solve one resident query.
    Solve {
        /// Which query.
        target: Target,
        /// Per-request wall-clock deadline override, in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Run every resident query through the checkpointed batch driver.
    Batch,
    /// Stop admission and drain.
    Shutdown,
}

/// How a solve request names its query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// By batch index (declaration order of the resident queries).
    Index(usize),
    /// By source label.
    Label(String),
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable reason for malformed lines, unknown ops, keys the op
/// does not read, and ill-typed fields; the daemon maps it to a
/// `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_json_line(line).ok_or_else(|| "malformed json line".to_string())?;
    let id = fields.get("id").cloned();
    // Each op with the keys it reads besides `op` and `id`.
    let (op, reads): (Op, &[&str]) = match fields.get("op").map(String::as_str) {
        Some("health") => (Op::Health, &[]),
        Some("batch") => (Op::Batch, &[]),
        Some("shutdown") => (Op::Shutdown, &[]),
        Some("solve") => {
            let target = match (fields.get("query"), fields.get("index")) {
                (Some(label), None) => Target::Label(label.clone()),
                (None, Some(i)) => {
                    Target::Index(i.parse().map_err(|_| format!("bad index `{i}`"))?)
                }
                (Some(_), Some(_)) => return Err("give `query` or `index`, not both".into()),
                (None, None) => return Err("solve needs `query` or `index`".into()),
            };
            let deadline_ms = match fields.get("deadline_ms") {
                Some(v) => {
                    Some(v.parse().map_err(|_| format!("bad deadline_ms `{v}`"))?)
                }
                None => None,
            };
            (Op::Solve { target, deadline_ms }, &["query", "index", "deadline_ms"])
        }
        Some(other) => return Err(format!("unknown op `{other}`")),
        None => return Err("missing `op`".into()),
    };
    let unread = fields.keys().filter(|k| !matches!(k.as_str(), "op" | "id"));
    if let Some(key) = unread.filter(|k| !reads.contains(&k.as_str())).min() {
        return Err(format!("unknown field `{key}`"));
    }
    Ok(Request { id, op })
}

/// Builds one flat JSON line, preserving field insertion order.
#[derive(Debug, Default)]
pub struct LineBuilder {
    parts: Vec<String>,
}

impl LineBuilder {
    /// Starts an empty object.
    pub fn new() -> LineBuilder {
        LineBuilder::default()
    }

    /// Appends a string field (escaped and quoted).
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.parts.push(format!("\"{}\":\"{}\"", json_escape(key), json_escape(value)));
        self
    }

    /// Appends an unsigned numeric field.
    #[must_use]
    pub fn num(mut self, key: &str, value: u128) -> Self {
        self.parts.push(format!("\"{}\":{value}", json_escape(key)));
        self
    }

    /// Echoes the request id, when present.
    #[must_use]
    pub fn opt_id(self, id: Option<&str>) -> Self {
        match id {
            Some(v) => self.str("id", v),
            None => self,
        }
    }

    /// Closes the object into one line (no trailing newline).
    pub fn finish(self) -> String {
        format!("{{{}}}", self.parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_reject() {
        assert_eq!(
            parse_request("{\"op\":\"health\"}"),
            Ok(Request { id: None, op: Op::Health })
        );
        assert_eq!(
            parse_request("{\"op\":\"solve\",\"query\":\"q1\",\"id\":\"a\"}"),
            Ok(Request {
                id: Some("a".into()),
                op: Op::Solve { target: Target::Label("q1".into()), deadline_ms: None },
            })
        );
        assert_eq!(
            parse_request("{\"op\":\"solve\",\"index\":3,\"deadline_ms\":250}"),
            Ok(Request {
                id: None,
                op: Op::Solve { target: Target::Index(3), deadline_ms: Some(250) },
            })
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\",\"id\":\"bye\"}"),
            Ok(Request { id: Some("bye".into()), op: Op::Shutdown })
        );
        for bad in [
            "not json",
            "{\"op\":\"warp\"}",
            "{\"query\":\"q\"}",
            "{\"op\":\"solve\"}",
            "{\"op\":\"solve\",\"index\":\"x\"}",
            "{\"op\":\"solve\",\"index\":1,\"query\":\"q\"}",
            "{\"op\":\"solve\",\"index\":1,\"deadline_ms\":\"soon\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad} must be rejected");
        }
    }

    /// A key the op does not read is refused by name: the retired
    /// `inject` hook and a misspelling both get a `bad_request` instead
    /// of a silent plain solve, and only `solve` reads solve's keys.
    #[test]
    fn keys_the_op_does_not_read_are_rejected() {
        for (line, key) in [
            ("{\"op\":\"solve\",\"index\":0,\"inject\":\"panic\"}", "inject"),
            ("{\"op\":\"solve\",\"index\":0,\"inject\":\"stall:300\"}", "inject"),
            ("{\"op\":\"solve\",\"index\":0,\"deadline\":500}", "deadline"),
            ("{\"op\":\"health\",\"index\":0}", "index"),
            ("{\"op\":\"batch\",\"deadline_ms\":5}", "deadline_ms"),
        ] {
            assert_eq!(parse_request(line), Err(format!("unknown field `{key}`")), "{line}");
        }
    }

    #[test]
    fn line_builder_round_trips_through_the_parser() {
        let line = LineBuilder::new()
            .opt_id(Some("id \"quoted\""))
            .str("ok", "true")
            .num("generation", 7)
            .str("detail", "panic: \\ \n done")
            .finish();
        let fields = parse_json_line(&line).expect("own output must parse");
        assert_eq!(fields["id"], "id \"quoted\"");
        assert_eq!(fields["ok"], "true");
        assert_eq!(fields["generation"], "7");
        assert_eq!(fields["detail"], "panic: \\ \n done");
    }
}
