//! End-to-end tests of the `awam serve` daemon: a real TCP server on an
//! ephemeral port, concurrent clients across tenants, and the three
//! contracts the serving layer makes —
//!
//! 1. **Fidelity**: a served analysis is byte-identical to calling
//!    [`Analyzer::analyze`] in-process (fresh sessions exactly; warm
//!    sessions up to the run-header counters, which legitimately read 0
//!    iterations on a memo hit).
//! 2. **Compile-once**: N clients × M queries against one program
//!    compile it exactly once; the counters prove it.
//! 3. **Shedding**: a request that exceeds its abstract-instruction
//!    budget is rejected with the documented `over_budget` error
//!    envelope, not a hang or a panic.

use awam::serve::{Client, ServeConfig, Server, MAX_LINE_BYTES};
use awam::syntax::parse_program;
use awam::{obs::Json, Analyzer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const NREV: &str = "
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
";

const QPERM: &str = "
    qperm([], []).
    qperm(L, [H|T]) :- del(H, L, R), qperm(R, T).
    del(X, [X|T], T).
    del(X, [H|T], [H|R]) :- del(X, T, R).
";

/// The report a standalone in-process analysis produces — the string
/// served responses must reproduce byte-for-byte.
fn direct_report(source: &str, goal: &str, entry: &[&str]) -> String {
    let program = parse_program(source).expect("test program parses");
    let analyzer = Analyzer::compile(&program).expect("test program compiles");
    let analysis = analyzer.analyze_query(goal, entry).expect("analysis runs");
    analysis.report(&analyzer)
}

#[test]
fn concurrent_tenants_get_single_shot_identical_results() {
    let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind ephemeral port")
        .spawn();
    let addr = handle.addr().to_string();

    // Register both programs once, up front.
    let mut setup = Client::connect(&addr).expect("connect");
    let nrev_hash = setup
        .register("tenant-a", NREV)
        .expect("register nrev")
        .get("program")
        .and_then(Json::as_str)
        .expect("nrev hash")
        .to_owned();
    let qperm_hash = setup
        .register("tenant-b", QPERM)
        .expect("register qperm")
        .get("program")
        .and_then(Json::as_str)
        .expect("qperm hash")
        .to_owned();

    let expected_nrev = direct_report(NREV, "nrev", &["glist", "var"]);
    let expected_qperm = direct_report(QPERM, "qperm", &["glist", "var"]);

    // 8 concurrent clients, 2 tenants, 4 queries each. `reuse: false`
    // pins every query to a fresh session, the configuration with an
    // exact byte-equality contract against Analyzer::analyze.
    std::thread::scope(|scope| {
        for client_idx in 0..8 {
            let addr = &addr;
            let (nrev_hash, qperm_hash) = (&nrev_hash, &qperm_hash);
            let (expected_nrev, expected_qperm) = (&expected_nrev, &expected_qperm);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let (tenant, hash, goal, expected) = if client_idx % 2 == 0 {
                    ("tenant-a", nrev_hash, "nrev", expected_nrev)
                } else {
                    ("tenant-b", qperm_hash, "qperm", expected_qperm)
                };
                for _ in 0..4 {
                    let response = client
                        .analyze(tenant, hash, goal, &["glist", "var"], false)
                        .expect("analyze round-trips");
                    assert_eq!(
                        response.get("schema").and_then(Json::as_str),
                        Some("awam/v1"),
                        "every response carries the versioned envelope"
                    );
                    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
                    assert_eq!(
                        response.get("report").and_then(Json::as_str),
                        Some(expected.as_str()),
                        "served fresh-session report is byte-identical to Analyzer::analyze"
                    );
                }
            });
        }
    });

    // Compile-once: 2 registers compiled 2 programs; the 32 analyze
    // requests all hit the cache.
    let stats = setup.stats().expect("stats");
    let counters = stats.get("counters").expect("counters object");
    assert_eq!(
        counters.get("program_cache_misses").and_then(Json::as_i64),
        Some(2),
        "each program compiled exactly once"
    );
    assert_eq!(
        counters.get("program_cache_hits").and_then(Json::as_i64),
        Some(32),
        "every analyze found its program compiled"
    );
    assert_eq!(
        counters.get("responses_error").and_then(Json::as_i64),
        Some(0)
    );
    // The whole `counters` object, keys in order. `reuse: false`
    // bypasses the session pools, and the stats op counts itself.
    let Json::Obj(pairs) = counters else {
        panic!("counters is an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "requests",
            "control_ops",
            "responses_ok",
            "responses_error",
            "shed_overload",
            "shed_budget",
            "program_cache_hits",
            "program_cache_misses",
            "program_cache_evictions",
            "session_pool_hits",
            "session_pool_misses",
            "warm_hits",
            "updates",
            "sessions_migrated",
            "compile_dedup_waits",
            "cache_hit_rate",
            "pool_hit_rate",
        ]
    );
    let counts: Vec<(&str, i64)> = pairs
        .iter()
        .filter_map(|(k, v)| Some((k.as_str(), v.as_i64()?)))
        .collect();
    assert_eq!(
        counts,
        [
            ("requests", 34),
            ("control_ops", 1),
            ("responses_ok", 34),
            ("responses_error", 0),
            ("shed_overload", 0),
            ("shed_budget", 0),
            ("program_cache_hits", 32),
            ("program_cache_misses", 2),
            ("program_cache_evictions", 0),
            ("session_pool_hits", 0),
            ("session_pool_misses", 0),
            ("warm_hits", 0),
            ("updates", 0),
            ("sessions_migrated", 0),
            ("compile_dedup_waits", 0),
        ]
    );
    assert_eq!(
        counters.get("cache_hit_rate").and_then(Json::as_f64),
        Some(32.0 / 34.0)
    );
    assert_eq!(
        counters.get("pool_hit_rate").and_then(Json::as_f64),
        Some(0.0)
    );
    handle.shutdown();
}

#[test]
fn warm_sessions_reuse_the_memo_table_across_requests() {
    let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind")
        .spawn();
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let hash = client
        .register("warm-tenant", NREV)
        .expect("register")
        .get("program")
        .and_then(Json::as_str)
        .expect("hash")
        .to_owned();

    let cold = client
        .analyze("warm-tenant", &hash, "nrev", &["glist", "var"], true)
        .expect("cold analyze");
    assert_eq!(cold.get("warm").and_then(Json::as_bool), Some(false));
    assert!(cold.get("iterations").and_then(Json::as_i64).unwrap_or(0) > 0);

    let warm = client
        .analyze("warm-tenant", &hash, "nrev", &["glist", "var"], true)
        .expect("warm analyze");
    assert_eq!(
        warm.get("warm").and_then(Json::as_bool),
        Some(true),
        "second identical goal is answered from the pooled session's table"
    );
    assert_eq!(warm.get("iterations").and_then(Json::as_i64), Some(0));

    // The answers (per-predicate results after the run header) match.
    let results = |doc: &Json| {
        let report = doc.get("report").and_then(Json::as_str).expect("report");
        report[report.find("\n\n").expect("result section")..].to_owned()
    };
    assert_eq!(results(&warm), results(&cold));

    // A different tenant gets no warm session — pools are namespaced.
    let other = client
        .analyze("other-tenant", &hash, "nrev", &["glist", "var"], true)
        .expect("other tenant");
    assert_eq!(other.get("warm").and_then(Json::as_bool), Some(false));
    handle.shutdown();
}

/// A request line longer than [`MAX_LINE_BYTES`] costs its connection
/// one `bad_request` and nothing more: the same connection then gets a
/// normal `stats` reply, and another tenant's answers, served while the
/// long line is still arriving, stay byte-identical.
#[test]
fn oversized_lines_are_refused_and_the_connection_keeps_serving() {
    let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind")
        .spawn();
    let addr = handle.addr().to_string();
    let mut other = Client::connect(&addr).expect("connect");
    let hash = other
        .register("tenant-b", NREV)
        .expect("register")
        .get("program")
        .and_then(Json::as_str)
        .expect("hash")
        .to_owned();
    let request = format!(
        r#"{{"op":"analyze","tenant":"tenant-b","program":"{hash}","goal":"nrev","entry":["glist","var"],"reuse":false}}"#
    );
    let analyze = |client: &mut Client| -> String {
        client.send_line(&request).expect("send");
        client.flush().expect("flush");
        client.recv_line().expect("analyze response").to_owned()
    };
    let expected = analyze(&mut other);
    assert!(expected.contains(r#""ok":true"#), "{expected}");

    // One byte past the limit, no newline yet: the daemon answers as
    // soon as the limit is crossed, then skips to the newline.
    let mut sender = TcpStream::connect(&addr).expect("connect");
    // A daemon that waits for the newline instead fails the test here.
    sender
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut replies = BufReader::new(sender.try_clone().expect("clone stream"));
    let mut reply = String::new();
    sender
        .write_all("x".repeat(MAX_LINE_BYTES + 1).as_bytes())
        .expect("send the oversized line");
    replies.read_line(&mut reply).expect("bad_request response");
    let refused = Json::parse(reply.trim_end()).expect("JSON response");
    assert_eq!(refused.get("kind").and_then(Json::as_str), Some("error"));
    let error = refused.get("error").expect("error object");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("bad_request")
    );
    assert!(error
        .get("message")
        .and_then(Json::as_str)
        .expect("message")
        .contains("longer than"));

    // The other tenant is served while that line is still open...
    for _ in 0..3 {
        assert_eq!(analyze(&mut other), expected);
    }
    // ...and the refused connection serves its next line normally.
    sender
        .write_all(b"xxxx\n{\"op\":\"stats\"}\n")
        .expect("end the line, then ask for stats");
    reply.clear();
    replies.read_line(&mut reply).expect("stats response");
    let stats = Json::parse(reply.trim_end()).expect("JSON response");
    assert_eq!(stats.get("kind").and_then(Json::as_str), Some("stats"));
    assert!(stats.get("counters").is_some(), "{stats:?}");
    assert_eq!(analyze(&mut other), expected);
    handle.shutdown();
}

#[test]
fn over_budget_requests_shed_with_the_documented_envelope() {
    let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let hash = client
        .register("default", NREV)
        .expect("register")
        .get("program")
        .and_then(Json::as_str)
        .expect("hash")
        .to_owned();

    let response = client
        .call(&Json::obj(vec![
            ("op", Json::Str("analyze".to_owned())),
            ("program", Json::Str(hash.clone())),
            ("goal", Json::Str("nrev".to_owned())),
            (
                "entry",
                Json::Arr(vec![
                    Json::Str("glist".to_owned()),
                    Json::Str("var".to_owned()),
                ]),
            ),
            ("budget", Json::Int(1)),
            ("id", Json::Int(77)),
        ]))
        .expect("over-budget round-trip");

    // The documented error envelope, id echoed.
    assert_eq!(
        response.get("schema").and_then(Json::as_str),
        Some("awam/v1")
    );
    assert_eq!(response.get("kind").and_then(Json::as_str), Some("error"));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(response.get("id").and_then(Json::as_i64), Some(77));
    let error = response.get("error").expect("error object");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("over_budget")
    );
    assert!(error
        .get("message")
        .and_then(Json::as_str)
        .expect("message")
        .contains("budget"));

    // The shed is counted, and the daemon still serves afterwards.
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats
            .get("counters")
            .and_then(|c| c.get("shed_budget"))
            .and_then(Json::as_i64),
        Some(1)
    );
    let retry = client
        .analyze("default", &hash, "nrev", &["glist", "var"], true)
        .expect("unbudgeted retry");
    assert_eq!(retry.get("ok").and_then(Json::as_bool), Some(true));
    handle.shutdown();
}

#[test]
fn update_migrates_warm_sessions_to_the_edited_program() {
    let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind")
        .spawn();
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let old_hash = client
        .register("edit-tenant", NREV)
        .expect("register")
        .get("program")
        .and_then(Json::as_str)
        .expect("hash")
        .to_owned();

    // Park a warm session under the old fingerprint.
    let cold = client
        .analyze("edit-tenant", &old_hash, "nrev", &["glist", "var"], true)
        .expect("cold analyze");
    assert_eq!(cold.get("warm").and_then(Json::as_bool), Some(false));

    // A duplicate clause: a real clause-level diff with identical
    // semantics, so the migrated session's answers must not move.
    let edited = format!("{NREV}app([], L, L).\n");
    let response = client.update(&old_hash, &edited).expect("update");
    assert_eq!(response.get("kind").and_then(Json::as_str), Some("update"));
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        response.get("previous").and_then(Json::as_str),
        Some(old_hash.as_str())
    );
    let new_hash = response
        .get("program")
        .and_then(Json::as_str)
        .expect("new hash")
        .to_owned();
    assert_ne!(new_hash, old_hash);
    assert_eq!(
        response.get("migrated").and_then(Json::as_i64),
        Some(1),
        "the parked session was migrated, not purged"
    );
    let invalidation = response.get("invalidation").expect("invalidation stats");
    let field = |k: &str| invalidation.get(k).and_then(Json::as_i64).expect(k);
    assert_eq!(
        field("entries_before"),
        field("entries_kept") + field("entries_reset") + field("entries_dropped"),
        "kept/reset/dropped partition the pre-edit table"
    );
    assert!(field("entries_reset") > 0, "app's cone was invalidated");

    // The migrated session is parked under the NEW fingerprint and is
    // already reconverged: the next identical goal is a warm hit whose
    // answers are byte-identical to a fresh register+analyze.
    let warm = client
        .analyze("edit-tenant", &new_hash, "nrev", &["glist", "var"], true)
        .expect("analyze after update");
    assert_eq!(warm.get("warm").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("iterations").and_then(Json::as_i64), Some(0));
    let results = |doc: &Json| {
        let report = doc.get("report").and_then(Json::as_str).expect("report");
        report[report.find("\n\n").expect("result section")..].to_owned()
    };
    let fresh = direct_report(&edited, "nrev", &["glist", "var"]);
    assert_eq!(
        results(&warm),
        fresh[fresh.find("\n\n").expect("result section")..],
        "migrated session answers match a fresh analysis of the edited source"
    );

    // The old fingerprint's pool was drained: analyzing the old program
    // again starts cold.
    let old_again = client
        .analyze("edit-tenant", &old_hash, "nrev", &["glist", "var"], true)
        .expect("old program still registered");
    assert_eq!(old_again.get("warm").and_then(Json::as_bool), Some(false));

    let stats = client.stats().expect("stats");
    let counters = stats.get("counters").expect("counters");
    assert_eq!(counters.get("updates").and_then(Json::as_i64), Some(1));
    assert_eq!(
        counters.get("sessions_migrated").and_then(Json::as_i64),
        Some(1)
    );

    // Updating a fingerprint the daemon has never seen is a clean error.
    let unknown = client
        .update("00000000deadbeef", NREV)
        .expect("error round-trip");
    assert_eq!(
        unknown
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_program")
    );
    handle.shutdown();
}

#[test]
fn batch_matches_per_goal_single_shot_results() {
    let handle = Server::bind("127.0.0.1:0", ServeConfig::default())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let response = client
        .call(&Json::obj(vec![
            ("op", Json::Str("batch".to_owned())),
            ("source", Json::Str(NREV.to_owned())),
            (
                "goals",
                Json::Arr(vec![
                    Json::obj(vec![
                        ("goal", Json::Str("nrev".to_owned())),
                        (
                            "entry",
                            Json::Arr(vec![
                                Json::Str("glist".to_owned()),
                                Json::Str("var".to_owned()),
                            ]),
                        ),
                    ]),
                    Json::obj(vec![
                        ("goal", Json::Str("app".to_owned())),
                        (
                            "entry",
                            Json::Arr(vec![
                                Json::Str("glist".to_owned()),
                                Json::Str("glist".to_owned()),
                                Json::Str("var".to_owned()),
                            ]),
                        ),
                    ]),
                ]),
            ),
        ]))
        .expect("batch round-trip");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    let results = response
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0].get("report").and_then(Json::as_str),
        Some(direct_report(NREV, "nrev", &["glist", "var"]).as_str())
    );
    assert_eq!(
        results[1].get("report").and_then(Json::as_str),
        Some(direct_report(NREV, "app", &["glist", "glist", "var"]).as_str())
    );
    handle.shutdown();
}
