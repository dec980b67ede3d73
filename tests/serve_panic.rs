//! A request whose analysis panics costs its client one `internal`
//! error envelope, and nothing else: the connection keeps serving, its
//! admission slot and pipeline count come back, the session it checked
//! out is not parked, and other tenants' answers stay byte-identical.
//!
//! The panic comes from the one-shot `panic-in-analyze` fault, which is
//! process-global; this file holds a single test so nothing else in the
//! process can trip it.

use awam::analysis::fault;
use awam::serve::{Client, ServeConfig, Server};
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

/// A raw connection that fails the test instead of waiting forever for
/// an answer that never comes.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Conn { writer, reader }
    }

    fn call(&mut self, line: &str) -> Json {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        let read = self.reader.read_line(&mut reply).expect("a response line");
        assert!(read > 0, "the daemon closed the connection");
        Json::parse(reply.trim_end()).expect("JSON response")
    }
}

fn error_code(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

/// One daemon: tenant A's analyze panics, then everything still works.
/// `id` sends A's requests id-tagged; with `workers` > 1 that runs them
/// on the worker pool, else on the connection's reader thread.
fn check_containment(workers: usize, id: bool, expected: &str) {
    // One admission slot: a request that leaked its slot would get every
    // later analysis shed as `overloaded`.
    let config = ServeConfig {
        workers,
        max_inflight: 1,
        ..ServeConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).expect("bind").spawn();
    let addr = handle.addr().to_string();
    let mut b = Client::connect(&addr).expect("connect");
    let hash = b
        .register("tenant-b", NREV)
        .expect("register")
        .get("program")
        .and_then(Json::as_str)
        .expect("hash")
        .to_owned();
    let fresh = format!(
        r#"{{"op":"analyze","tenant":"tenant-b","program":"{hash}","goal":"nrev","entry":["glist","var"],"reuse":false}}"#
    );
    let b_report = |b: &mut Client| -> String {
        let response = b.call_line(&fresh).expect("tenant-b analyze");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        response
            .get("report")
            .and_then(Json::as_str)
            .expect("report")
            .to_owned()
    };
    assert_eq!(b_report(&mut b), expected);

    let mut a = Conn::connect(&addr);
    let a_analyze = |n: i64| {
        let id = if id {
            format!(r#","id":{n}"#)
        } else {
            String::new()
        };
        format!(
            r#"{{"op":"analyze","tenant":"tenant-a","program":"{hash}","goal":"nrev","entry":["glist","var"]{id}}}"#
        )
    };
    fault::set_panic_in_analyze(true);
    let failed = a.call(&a_analyze(7));
    assert_eq!(failed.get("kind").and_then(Json::as_str), Some("error"));
    assert_eq!(error_code(&failed), Some("internal"), "{failed:?}");
    let expected_id = id.then_some(7);
    assert_eq!(failed.get("id").and_then(Json::as_i64), expected_id);
    assert!(failed
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("message")
        .contains("panic-in-analyze"));

    // The same connection still answers, and nothing is in flight.
    let stats = a.call(r#"{"op":"stats"}"#);
    assert_eq!(stats.get("kind").and_then(Json::as_str), Some("stats"));
    assert_eq!(stats.get("inflight").and_then(Json::as_i64), Some(0));

    // The other tenant's answers are unchanged...
    for _ in 0..3 {
        assert_eq!(b_report(&mut b), expected);
    }
    // ...and tenant A's next analyze of the program runs on a fresh
    // session (the one the panic interrupted was not parked).
    let again = a.call(&a_analyze(8));
    assert_eq!(
        again.get("ok").and_then(Json::as_bool),
        Some(true),
        "{again:?}"
    );
    assert_eq!(again.get("reused").and_then(Json::as_bool), Some(false));
    assert_eq!(
        again.get("report").and_then(Json::as_str),
        Some(expected),
        "a fresh session's report is the standalone analysis"
    );

    let stats = b.stats().expect("stats");
    let counters = stats.get("counters").expect("counters");
    assert_eq!(
        counters.get("responses_error").and_then(Json::as_i64),
        Some(1),
        "exactly the panicking request failed"
    );
    assert_eq!(
        counters.get("shed_overload").and_then(Json::as_i64),
        Some(0)
    );
    handle.shutdown();
}

#[test]
fn a_panicking_analysis_costs_one_internal_envelope() {
    let program = parse_program(NREV).expect("parses");
    let analyzer = Analyzer::compile(&program).expect("compiles");
    let expected = analyzer
        .analyze_query("nrev", &["glist", "var"])
        .expect("analysis runs")
        .report(&analyzer);
    // Id-tagged on a multi-worker daemon: the worker pool's path.
    check_containment(2, true, &expected);
    // Id-less: a barrier, run on the connection's reader thread.
    check_containment(2, false, &expected);
    // One worker: every request runs inline, id-tagged or not.
    check_containment(1, true, &expected);
}
