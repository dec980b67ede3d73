//! The wire protocol of the analysis daemon: line-delimited JSON.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line, wrapped in the workspace's versioned
//! envelope (`{"schema": "awam/v1", "kind": …}` — see
//! [`awam_obs::envelope()`]). Requests carry an `op` field naming the
//! operation and may carry an `id` (any integer) that the response
//! echoes, so clients may pipeline requests over one connection.
//!
//! | op | fields | response kind |
//! |---|---|---|
//! | `register` | `tenant`, `program` (source text) | `register` |
//! | `analyze` | `tenant`, `program` (16-hex hash) or `source`, `goal`, `entry` (spec array), optional `budget`, `reuse` | `analyze` |
//! | `batch` | like `analyze` with `goals: [{goal, entry}, …]` | `batch` |
//! | `update` | `program` (16-hex hash of the old version), `source` (new text) | `update` |
//! | `stats` | — | `stats` |
//! | `shutdown` | — | `shutdown` |
//!
//! Failures come back as the standard error envelope
//! (`kind: "error"`, `ok: false`, `error.code` ∈ `bad_request`,
//! `unknown_program`, `parse_error`, `compile_error`,
//! `analysis_error`, `over_budget`, `overloaded`, `shutting_down`)
//! with the request `id` echoed when it was present.

use awam_obs::{error_envelope, Json};

/// One goal of a `batch` request: entry predicate plus spec strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GoalSpec {
    /// Entry predicate name.
    pub goal: String,
    /// Entry calling-pattern specs (one per argument).
    pub entry: Vec<String>,
}

/// How an `analyze`/`batch` request names its program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramRef {
    /// A 16-hex-digit fingerprint of previously registered source.
    Hash(u64),
    /// Inline source text (registered implicitly).
    Source(String),
}

/// A parsed daemon request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Compile (or find cached) `program` and return its fingerprint.
    Register {
        /// Tenant namespace for the warm-session pool.
        tenant: String,
        /// Prolog source text.
        source: String,
    },
    /// Analyze one entry goal against a registered program.
    Analyze {
        /// Tenant namespace for the warm-session pool.
        tenant: String,
        /// The program to analyze.
        program: ProgramRef,
        /// The goal to run.
        goal: GoalSpec,
        /// Per-request abstract-instruction budget (overrides the
        /// server default; capped by the server maximum).
        budget: Option<u64>,
        /// Reuse the tenant's warm session pool (default `true`). When
        /// `false` the request runs in a fresh session, byte-identical
        /// to a standalone `Analyzer::analyze`.
        reuse: bool,
    },
    /// Analyze several goals, fanned across the server's batch workers,
    /// each in a fresh session (batch results are always
    /// single-shot-identical).
    Batch {
        /// Tenant namespace (counted per tenant; batch goals always run
        /// in fresh sessions).
        tenant: String,
        /// The program to analyze.
        program: ProgramRef,
        /// The goals to run.
        goals: Vec<GoalSpec>,
        /// Per-request abstract-instruction budget for every goal.
        budget: Option<u64>,
    },
    /// Replace a registered program with an edited version, migrating
    /// every parked warm session (all tenants) onto the new fingerprint
    /// via the incremental invalidation path instead of purging them.
    Update {
        /// Fingerprint of the program being replaced.
        program: u64,
        /// The edited source text.
        source: String,
    },
    /// Snapshot the server counters, cache and pool state.
    Stats,
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
}

/// A request plus the optional client-chosen `id` echoed in responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// The operation.
    pub request: Request,
    /// Client correlation id, echoed verbatim.
    pub id: Option<i64>,
}

/// Why a request line could not be turned into a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BadRequest {}

fn required_str(doc: &Json, key: &str, op: &str) -> Result<String, BadRequest> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| BadRequest(format!("{op}: missing string field `{key}`")))
}

fn spec_list(doc: &Json, key: &str, op: &str) -> Result<Vec<String>, BadRequest> {
    let Some(value) = doc.get(key) else {
        return Err(BadRequest(format!("{op}: missing array field `{key}`")));
    };
    let Some(items) = value.as_arr() else {
        return Err(BadRequest(format!("{op}: `{key}` must be an array")));
    };
    items
        .iter()
        .map(|i| {
            i.as_str()
                .map(str::to_owned)
                .ok_or_else(|| BadRequest(format!("{op}: `{key}` must contain strings")))
        })
        .collect()
}

/// Parse a program reference: `program` as a 16-hex hash, or inline
/// `source` text. Inline source implicitly registers.
fn program_ref(doc: &Json, op: &str) -> Result<ProgramRef, BadRequest> {
    if let Some(hash) = doc.get("program").and_then(Json::as_str) {
        let parsed = u64::from_str_radix(hash, 16)
            .map_err(|_| BadRequest(format!("{op}: `program` must be a 16-hex-digit hash")))?;
        return Ok(ProgramRef::Hash(parsed));
    }
    if let Some(source) = doc.get("source").and_then(Json::as_str) {
        return Ok(ProgramRef::Source(source.to_owned()));
    }
    Err(BadRequest(format!(
        "{op}: need `program` (registered hash) or `source` (inline text)"
    )))
}

fn budget(doc: &Json) -> Result<Option<u64>, BadRequest> {
    match doc.get("budget") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| BadRequest("`budget` must be a non-negative integer".to_owned())),
    }
}

/// Parse one request line.
///
/// # Errors
///
/// [`BadRequest`] with a human-readable reason; the server maps it to a
/// `bad_request` error envelope.
pub fn parse_request(line: &str) -> Result<Envelope, BadRequest> {
    let doc = Json::parse(line).map_err(|e| BadRequest(format!("malformed JSON: {e}")))?;
    let id = doc.get("id").and_then(Json::as_i64);
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| BadRequest("missing string field `op`".to_owned()))?;
    let request = match op {
        "register" => Request::Register {
            tenant: tenant(&doc),
            source: required_str(&doc, "program", "register")?,
        },
        "analyze" => Request::Analyze {
            tenant: tenant(&doc),
            program: program_ref(&doc, "analyze")?,
            goal: GoalSpec {
                goal: required_str(&doc, "goal", "analyze")?,
                entry: spec_list(&doc, "entry", "analyze")?,
            },
            budget: budget(&doc)?,
            reuse: doc.get("reuse").and_then(Json::as_bool).unwrap_or(true),
        },
        "batch" => {
            let Some(goal_docs) = doc.get("goals").and_then(Json::as_arr) else {
                return Err(BadRequest("batch: missing array field `goals`".to_owned()));
            };
            let goals = goal_docs
                .iter()
                .map(|g| {
                    Ok(GoalSpec {
                        goal: required_str(g, "goal", "batch")?,
                        entry: spec_list(g, "entry", "batch")?,
                    })
                })
                .collect::<Result<Vec<_>, BadRequest>>()?;
            if goals.is_empty() {
                return Err(BadRequest("batch: `goals` must not be empty".to_owned()));
            }
            Request::Batch {
                tenant: tenant(&doc),
                program: program_ref(&doc, "batch")?,
                goals,
                budget: budget(&doc)?,
            }
        }
        "update" => {
            let hash = required_str(&doc, "program", "update")?;
            let program = u64::from_str_radix(&hash, 16).map_err(|_| {
                BadRequest("update: `program` must be a 16-hex-digit hash".to_owned())
            })?;
            Request::Update {
                program,
                source: required_str(&doc, "source", "update")?,
            }
        }
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => return Err(BadRequest(format!("unknown op `{other}`"))),
    };
    Ok(Envelope { request, id })
}

/// The default tenant when a request names none: every anonymous client
/// shares one pool namespace.
fn tenant(doc: &Json) -> String {
    doc.get("tenant")
        .and_then(Json::as_str)
        .unwrap_or("default")
        .to_owned()
}

/// Render a program fingerprint the way the wire carries it: 16 hex
/// digits, zero-padded.
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// An error envelope with the request `id` echoed (when present).
pub fn error_response(code: &str, message: &str, id: Option<i64>) -> Json {
    attach_id(error_envelope(code, message), id)
}

/// Echo the request `id` into a response document.
pub fn attach_id(mut doc: Json, id: Option<i64>) -> Json {
    if let (Json::Obj(pairs), Some(id)) = (&mut doc, id) {
        pairs.push(("id".to_owned(), Json::Int(id)));
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_register() {
        let env = parse_request(r#"{"op":"register","tenant":"t1","program":"a.","id":7}"#)
            .expect("parses");
        assert_eq!(env.id, Some(7));
        assert_eq!(
            env.request,
            Request::Register {
                tenant: "t1".to_owned(),
                source: "a.".to_owned()
            }
        );
    }

    #[test]
    fn parses_analyze_with_hash_and_budget() {
        let env = parse_request(
            r#"{"op":"analyze","program":"00000000000000ff","goal":"app","entry":["glist","var"],"budget":1000,"reuse":false}"#,
        )
        .expect("parses");
        let Request::Analyze {
            tenant,
            program,
            goal,
            budget,
            reuse,
        } = env.request
        else {
            panic!("wrong op");
        };
        assert_eq!(tenant, "default");
        assert_eq!(program, ProgramRef::Hash(0xff));
        assert_eq!(goal.goal, "app");
        assert_eq!(goal.entry, vec!["glist".to_owned(), "var".to_owned()]);
        assert_eq!(budget, Some(1000));
        assert!(!reuse);
    }

    #[test]
    fn parses_update() {
        let env = parse_request(
            r#"{"op":"update","program":"00000000000000ff","source":"a.\nb.","id":4}"#,
        )
        .expect("parses");
        assert_eq!(env.id, Some(4));
        assert_eq!(
            env.request,
            Request::Update {
                program: 0xff,
                source: "a.\nb.".to_owned()
            }
        );
        assert!(parse_request(r#"{"op":"update","source":"a."}"#).is_err());
        assert!(parse_request(r#"{"op":"update","program":"zz","source":"a."}"#).is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"nope"}"#).is_err());
        assert!(parse_request(r#"{"op":"analyze","goal":"a","entry":[]}"#).is_err());
        assert!(parse_request(r#"{"op":"analyze","program":"zz","goal":"a","entry":[]}"#).is_err());
        assert!(parse_request(r#"{"op":"batch","source":"a.","goals":[]}"#).is_err());
    }

    #[test]
    fn hash_roundtrips_through_hex() {
        let h = awam_core::program_fingerprint("app([], L, L).");
        let env = parse_request(&format!(
            r#"{{"op":"analyze","program":"{}","goal":"app","entry":[]}}"#,
            hash_hex(h)
        ))
        .expect("parses");
        let Request::Analyze { program, .. } = env.request else {
            panic!("wrong op");
        };
        assert_eq!(program, ProgramRef::Hash(h));
    }
}
