//! The JSONL wire protocol of the query service.
//!
//! One request per line, one response per request — always. The parser is
//! total: any byte sequence (malformed JSON, truncated lines, non-UTF-8
//! garbage) maps to a typed [`ParseError`], never a panic, so a misbehaving
//! client costs the server exactly one typed error response. Incoming lines
//! are depth-screened before they reach the recursive JSON parser, which
//! turns a nesting bomb into [`ParseError::TooDeep`] instead of a stack
//! overflow.
//!
//! Responses are journaled through `mcpb-resilience`: a response log *is* a
//! sweep journal (header + one entry per request, `payload` last), so
//! `mcpbench journal-diff` and `mcpbench obs` consume response logs with no
//! new tooling. Wall-clock fields use the journal's canonical timing keys
//! (`runtime`, `elapsed_secs`) so [`mcpb_resilience::normalize_timing`]
//! zeroes them during comparisons.

use mcpb_resilience::journal::push_json_string;
use serde::Value;

/// Hard cap on the per-request seed budget `k`.
pub const MAX_BUDGET: usize = 64;
/// Hard cap on one request line, in bytes (defensive: a line longer than
/// this is rejected before any parsing work happens).
pub const MAX_LINE_BYTES: usize = 64 * 1024;
/// Maximum JSON nesting depth accepted on the wire. The in-repo JSON
/// parser is recursive; screening depth first keeps hostile nesting from
/// reaching it.
pub const MAX_JSON_DEPTH: usize = 32;

/// Which problem a request asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryTask {
    /// Maximum coverage.
    Mcp,
    /// Influence maximization.
    Im,
}

impl QueryTask {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryTask::Mcp => "mcp",
            QueryTask::Im => "im",
        }
    }
}

/// One parsed seed-set query.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// MCP or IM.
    pub task: QueryTask,
    /// Catalog dataset name, e.g. `Damascus`.
    pub dataset: String,
    /// Solver display name, e.g. `LazyGreedy` or `CELF-RIS`.
    pub solver: String,
    /// Seed budget `k`.
    pub budget: usize,
    /// Optional per-request soft deadline, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Optional admission-cost override, in logical work units.
    pub cost: Option<u64>,
}

/// Why a request line could not become a [`Request`]. Every variant has a
/// stable, deterministic `Display` so error responses are bit-identical
/// across runs and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The line is empty or whitespace-only (skipped, never answered).
    Empty,
    /// The line is not valid UTF-8.
    NotUtf8 {
        /// Bytes of valid UTF-8 before the first bad byte.
        valid_up_to: usize,
    },
    /// The line exceeds [`MAX_LINE_BYTES`].
    TooLong {
        /// Observed length in bytes.
        len: usize,
    },
    /// Nesting exceeds [`MAX_JSON_DEPTH`].
    TooDeep {
        /// First depth past the limit.
        depth: usize,
    },
    /// The line is not parseable JSON.
    Json(String),
    /// The line parses but is not a JSON object.
    NotObject,
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but malformed.
    BadField {
        /// Field name.
        field: &'static str,
        /// What is wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty request line"),
            ParseError::NotUtf8 { valid_up_to } => {
                write!(f, "request is not UTF-8 (valid up to byte {valid_up_to})")
            }
            ParseError::TooLong { len } => {
                write!(f, "request line is {len} bytes (limit {MAX_LINE_BYTES})")
            }
            ParseError::TooDeep { depth } => {
                write!(
                    f,
                    "JSON nesting depth {depth} exceeds limit {MAX_JSON_DEPTH}"
                )
            }
            ParseError::Json(detail) => write!(f, "malformed JSON: {detail}"),
            ParseError::NotObject => write!(f, "request must be a JSON object"),
            ParseError::MissingField(name) => write!(f, "missing required field `{name}`"),
            ParseError::BadField { field, detail } => {
                write!(f, "bad field `{field}`: {detail}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Screens raw text for JSON nesting depth, string-aware. Returns the
/// first depth past [`MAX_JSON_DEPTH`], or `None` when the text is safe to
/// hand to the recursive parser.
fn excessive_depth(text: &str) -> Option<usize> {
    let (mut depth, mut in_str, mut esc) = (0usize, false, false);
    for c in text.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => {
                depth += 1;
                if depth > MAX_JSON_DEPTH {
                    return Some(depth);
                }
            }
            '}' | ']' if !in_str => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    None
}

fn get_u64(obj: &Value, field: &'static str) -> Result<Option<u64>, ParseError> {
    match obj.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| ParseError::BadField {
            field,
            detail: "expected a non-negative integer".to_string(),
        }),
    }
}

fn get_str<'v>(obj: &'v Value, field: &'static str) -> Result<&'v str, ParseError> {
    match obj.get(field) {
        None | Some(Value::Null) => Err(ParseError::MissingField(field)),
        Some(v) => v.as_str().ok_or_else(|| ParseError::BadField {
            field,
            detail: "expected a string".to_string(),
        }),
    }
}

/// Parses one request line from raw bytes. Total: every input yields
/// `Ok(Request)` or a typed [`ParseError`].
pub fn parse_request_bytes(line: &[u8]) -> Result<Request, ParseError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ParseError::TooLong { len: line.len() });
    }
    let text = std::str::from_utf8(line).map_err(|e| ParseError::NotUtf8 {
        valid_up_to: e.valid_up_to(),
    })?;
    parse_request(text)
}

/// Parses one request line from text. Total: every input yields
/// `Ok(Request)` or a typed [`ParseError`].
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(ParseError::Empty);
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(ParseError::TooLong { len: line.len() });
    }
    if let Some(depth) = excessive_depth(line) {
        return Err(ParseError::TooDeep { depth });
    }
    let value: Value = serde_json::from_str(line).map_err(|e| ParseError::Json(e.to_string()))?;
    if value.as_object().is_none() {
        return Err(ParseError::NotObject);
    }
    let id = get_u64(&value, "id")?.ok_or(ParseError::MissingField("id"))?;
    let task = match get_str(&value, "task")? {
        "mcp" => QueryTask::Mcp,
        "im" => QueryTask::Im,
        other => {
            return Err(ParseError::BadField {
                field: "task",
                detail: format!("unknown task `{other}` (expected `mcp` or `im`)"),
            })
        }
    };
    let dataset = get_str(&value, "dataset")?.to_string();
    let solver = get_str(&value, "solver")?.to_string();
    let budget = get_u64(&value, "budget")?.ok_or(ParseError::MissingField("budget"))?;
    if budget == 0 || budget > MAX_BUDGET as u64 {
        return Err(ParseError::BadField {
            field: "budget",
            detail: format!("budget {budget} outside 1..={MAX_BUDGET}"),
        });
    }
    let deadline_ms = get_u64(&value, "deadline_ms")?;
    let cost = get_u64(&value, "cost")?;
    Ok(Request {
        id,
        task,
        dataset,
        solver,
        budget: budget as usize,
        deadline_ms,
        cost,
    })
}

/// How a request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Answered by the requested solver within policy.
    Served,
    /// Answered by the degradation ladder (overload or primary failure);
    /// `reason` names the cause and `served_by` the fallback engine.
    Degraded,
    /// Load-shed at admission: no answer computed, typed refusal returned.
    Shed,
    /// The request itself was invalid (parse/validation error).
    Error,
}

impl Verdict {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Served => "served",
            Verdict::Degraded => "degraded",
            Verdict::Shed => "shed",
            Verdict::Error => "error",
        }
    }
}

/// One response. Everything except `runtime_secs` is deterministic for a
/// fixed request log, state, and fault plan — at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// 1-based position of the request line in its log/connection.
    pub seq: usize,
    /// Echoed request id (absent when the line never parsed).
    pub id: Option<u64>,
    /// Outcome class.
    pub verdict: Verdict,
    /// Requested solver name (`?` when the line never parsed).
    pub solver: String,
    /// Engine that actually produced the seeds, when any did.
    pub served_by: Option<String>,
    /// Requested budget (0 when the line never parsed).
    pub budget: usize,
    /// Selected seed nodes (empty for shed/error responses).
    pub seeds: Vec<u32>,
    /// Common-scorer quality of `seeds` (coverage fraction for MCP,
    /// normalized spread for IM); 0 for shed/error responses.
    pub quality: f64,
    /// Degradation/shed/error reason; `None` for clean serves.
    pub reason: Option<String>,
    /// Attempts consumed by the answering cell.
    pub attempts: u32,
    /// Wall-clock seconds spent answering (0 under deterministic timing).
    pub runtime_secs: f64,
}

impl Response {
    /// Stable journal cell key for the response at `seq`.
    pub fn cell_key(seq: usize) -> String {
        format!("req-{seq:05}")
    }

    /// Renders the response body as one JSON object. `runtime` is the
    /// canonical timing key, so journal diffs normalize it away.
    pub fn body_json(&self) -> String {
        let mut s = String::from("{\"id\":");
        match self.id {
            Some(id) => s.push_str(&id.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"verdict\":\"");
        s.push_str(self.verdict.as_str());
        s.push_str("\",\"solver\":");
        push_json_string(&mut s, &self.solver);
        s.push_str(",\"served_by\":");
        match &self.served_by {
            Some(name) => push_json_string(&mut s, name),
            None => s.push_str("null"),
        }
        s.push_str(",\"budget\":");
        s.push_str(&self.budget.to_string());
        s.push_str(",\"seeds\":[");
        for (i, seed) in self.seeds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&seed.to_string());
        }
        s.push_str("],\"quality\":");
        if self.quality.is_finite() {
            s.push_str(&format!("{}", self.quality));
        } else {
            s.push_str("null");
        }
        s.push_str(",\"reason\":");
        match &self.reason {
            Some(r) => push_json_string(&mut s, r),
            None => s.push_str("null"),
        }
        s.push_str(",\"runtime\":");
        s.push_str(&format!("{}", self.runtime_secs));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_full_request() {
        let line = r#"{"id":7,"task":"im","dataset":"Damascus","solver":"CELF-RIS","budget":10,"deadline_ms":250,"cost":12}"#;
        let req = parse_request(line).expect("parses");
        assert_eq!(req.id, 7);
        assert_eq!(req.task, QueryTask::Im);
        assert_eq!(req.dataset, "Damascus");
        assert_eq!(req.solver, "CELF-RIS");
        assert_eq!(req.budget, 10);
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.cost, Some(12));
    }

    #[test]
    fn optional_fields_default_off() {
        let line = r#"{"id":1,"task":"mcp","dataset":"Israel","solver":"TopDegree","budget":3}"#;
        let req = parse_request(line).expect("parses");
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.cost, None);
    }

    #[test]
    fn every_failure_mode_is_typed() {
        assert_eq!(parse_request("   "), Err(ParseError::Empty));
        assert!(matches!(
            parse_request_bytes(b"{\"id\":1,\xff\xfe}"),
            Err(ParseError::NotUtf8 { .. })
        ));
        assert!(matches!(
            parse_request("{\"id\":"),
            Err(ParseError::Json(_))
        ));
        assert_eq!(parse_request("[1,2,3]"), Err(ParseError::NotObject));
        assert_eq!(
            parse_request(r#"{"task":"mcp","dataset":"a","solver":"b","budget":1}"#),
            Err(ParseError::MissingField("id"))
        );
        assert!(matches!(
            parse_request(r#"{"id":1,"task":"tsp","dataset":"a","solver":"b","budget":1}"#),
            Err(ParseError::BadField { field: "task", .. })
        ));
        assert!(matches!(
            parse_request(r#"{"id":1,"task":"mcp","dataset":"a","solver":"b","budget":0}"#),
            Err(ParseError::BadField {
                field: "budget",
                ..
            })
        ));
        assert!(matches!(
            parse_request(r#"{"id":-3,"task":"mcp","dataset":"a","solver":"b","budget":1}"#),
            Err(ParseError::BadField { field: "id", .. })
        ));
    }

    #[test]
    fn nesting_bomb_is_screened_before_the_recursive_parser() {
        let mut bomb = String::from("{\"id\":");
        bomb.push_str(&"[".repeat(1_000));
        let err = parse_request(&bomb).expect_err("must be screened");
        assert!(matches!(err, ParseError::TooDeep { .. }), "{err:?}");
    }

    #[test]
    fn oversized_line_is_rejected_cheaply() {
        let line = format!("{{\"id\":1,\"pad\":\"{}\"}}", "x".repeat(MAX_LINE_BYTES));
        assert!(matches!(
            parse_request(&line),
            Err(ParseError::TooLong { .. })
        ));
    }

    #[test]
    fn body_json_is_stable_and_balanced() {
        let resp = Response {
            seq: 3,
            id: Some(9),
            verdict: Verdict::Degraded,
            solver: "LazyGreedy".to_string(),
            served_by: Some("TopDegree (degraded)".to_string()),
            budget: 5,
            seeds: vec![4, 1, 7],
            quality: 0.25,
            reason: Some("overload: backlog 50 over degrade threshold 48".to_string()),
            attempts: 1,
            runtime_secs: 0.0,
        };
        let body = resp.body_json();
        assert_eq!(
            body,
            "{\"id\":9,\"verdict\":\"degraded\",\"solver\":\"LazyGreedy\",\
             \"served_by\":\"TopDegree (degraded)\",\"budget\":5,\"seeds\":[4,1,7],\
             \"quality\":0.25,\"reason\":\"overload: backlog 50 over degrade threshold 48\",\
             \"runtime\":0}"
        );
        assert_eq!(Response::cell_key(3), "req-00003");
    }
}
