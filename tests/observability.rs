//! The instrumentation itself under test: exact counter values on small
//! fixed programs, fixpoint-round events, and the JSONL trace format
//! round-tripping through our own serializer.

use awam::analysis::Analyzer;
use awam::machine::Machine;
use awam::obs::{parse_jsonl, JsonlTracer, RecordingTracer, TraceEvent};
use awam::syntax::parse_program;
use awam::wam::compile_program;

const NREV: &str = "
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
";

#[test]
fn exact_counters_on_nreverse() {
    let program = parse_program(NREV).unwrap();
    let analyzer = Analyzer::compile(&program).unwrap();
    let analysis = analyzer.analyze_query("nrev", &["glist", "var"]).unwrap();

    // These are exact values for this program under the default settings
    // (k = 4, global restart). The analysis is deterministic, so any
    // drift here means the machine's behavior changed — the test is a
    // tripwire, not an approximation.
    assert_eq!(analysis.iterations, 3);
    let t = &analysis.table_stats;
    assert_eq!(
        t.lookups,
        t.hits + t.misses,
        "hit/miss split covers lookups"
    );
    assert_eq!(t.hits, 8);
    assert_eq!(t.misses, 3);
    assert_eq!(t.inserts, 3, "nrev/2 once, app/3 twice");
    assert_eq!(t.summary_updates, 11);
    assert_eq!(t.lub_widenings, 2);
    assert_eq!(t.version_bumps, 5);

    // The leq memo cache answers summary-update subsumption checks: one
    // leq per update that found an existing summary (11 updates − 3
    // first-sets = 8), of which 2 repeat an already-decided id pair.
    // Exact values again — if these read 0 the cache came unwired, and
    // if they drift the update path changed shape.
    let i = &analysis.intern_stats;
    assert_eq!(i.leq_calls, 8);
    assert_eq!(i.leq_cache_hits, 2);
    // A leq miss computes its answer through the lub cache, warming it
    // for the widening that follows.
    assert_eq!(i.lub_calls, 8);
    assert_eq!(i.lub_cache_hits, 2);

    // The per-opcode histogram totals the instruction counter.
    assert_eq!(analysis.opcodes.total(), analysis.instructions_executed);
    assert_eq!(
        analysis.machine_stats.instructions,
        analysis.instructions_executed
    );
    assert!(analysis.machine_stats.heap_high_water > 0);
}

/// The same kind of tripwire under a restricted domain, on the suite's
/// nreverse. Outside the full domain every clause success goes through
/// `update_success` (the machine's "summary unchanged" skip is
/// full-domain only), so `summary_updates` and the `EtUpdate` events
/// count every clause success.
#[test]
fn exact_counters_on_nreverse_without_aliasing() {
    let b = awam::suite::by_name("nreverse").unwrap();
    let program = b.parse().unwrap();
    let analyzer = Analyzer::builder()
        .domain_config(awam::absdom::DomainConfig {
            aliasing: false,
            ..awam::absdom::DomainConfig::FULL
        })
        .compile(&program)
        .unwrap();
    let entry = awam::absdom::Pattern::from_spec(b.entry_specs).unwrap();
    let mut tracer = RecordingTracer::default();
    let analysis = analyzer
        .analyze_traced(b.entry, &entry, &mut tracer)
        .unwrap();

    let t = &analysis.table_stats;
    assert_eq!(t.lookups, 88);
    assert_eq!(t.hits, 65);
    assert_eq!(t.misses, 23);
    assert_eq!(t.inserts, 23);
    assert_eq!(t.summary_updates, 85);
    assert_eq!(t.lub_widenings, 14);
    assert_eq!(t.version_bumps, 37);
    let updates = tracer
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::EtUpdate { .. }))
        .count();
    assert_eq!(updates, 85);
}

#[test]
fn intern_stats_are_sampled_live_not_at_construction() {
    let program = parse_program(NREV).unwrap();
    let analyzer = Analyzer::compile(&program).unwrap();
    let mut session = analyzer.session();
    let cold = session.analyze_query("nrev", &["glist", "var"]).unwrap();
    let warm = session.analyze_query("nrev", &["glist", "var"]).unwrap();

    // The cold run's counters reflect the finished fixpoint, not the
    // freshly-built interner.
    assert_eq!(cold.intern_stats.leq_calls, 8);
    // The warm hit's subsumption probe goes through the same leq cache,
    // and its answer samples the counters *after* that probe: exactly
    // one more leq decision than the cold run reported.
    assert_eq!(warm.intern_stats.leq_calls, cold.intern_stats.leq_calls + 1);
    assert!(warm.intern_stats.leq_cache_hits >= cold.intern_stats.leq_cache_hits);
}

#[test]
fn fixpoint_round_events_match_iteration_count() {
    let program = parse_program(NREV).unwrap();
    let analyzer = Analyzer::compile(&program).unwrap();
    let entry = awam::absdom::Pattern::from_spec(&["glist", "var"]).unwrap();
    let mut tracer = RecordingTracer::default();
    let analysis = analyzer
        .analyze_traced("nrev", &entry, &mut tracer)
        .unwrap();

    assert_eq!(tracer.rounds(), analysis.iterations);
    // Round events bracket properly: starts and ends pair up, and the
    // final round reports no change (that is why the fixpoint stopped).
    let starts: Vec<u64> = tracer
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RoundStart { round } => Some(*round),
            _ => None,
        })
        .collect();
    let ends: Vec<(u64, bool)> = tracer
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RoundEnd { round, changed } => Some((*round, *changed)),
            _ => None,
        })
        .collect();
    assert_eq!(starts, vec![1, 2, 3]);
    assert_eq!(ends.len(), 3);
    assert!(!ends[2].1, "last round must be quiescent");

    // ET consults in the event stream agree with the counters.
    let consults = tracer
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::EtConsult { .. }))
        .count() as u64;
    assert_eq!(consults, analysis.table_stats.lookups);
    let inserts = tracer
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::EtInsert { .. }))
        .count() as u64;
    assert_eq!(inserts, analysis.table_stats.inserts);
}

#[test]
fn analysis_trace_roundtrips_through_jsonl() {
    let program = parse_program(NREV).unwrap();
    let entry = awam::absdom::Pattern::from_spec(&["glist", "var"]).unwrap();

    // Record the events directly…
    let mut recorder = RecordingTracer::default();
    Analyzer::compile(&program)
        .unwrap()
        .analyze_traced("nrev", &entry, &mut recorder)
        .unwrap();

    // …and through the JSONL writer.
    let mut jsonl = JsonlTracer::new(Vec::new());
    Analyzer::compile(&program)
        .unwrap()
        .analyze_traced("nrev", &entry, &mut jsonl)
        .unwrap();
    assert_eq!(jsonl.io_errors, 0);
    let bytes = jsonl.into_inner().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let parsed = parse_jsonl(&text).unwrap();

    // The analysis is deterministic, so the decoded stream must equal the
    // directly recorded one event for event.
    assert_eq!(parsed, recorder.events);
    assert!(!parsed.is_empty());
}

#[test]
fn concrete_trace_roundtrips_through_jsonl() {
    let program = parse_program(NREV).unwrap();
    let compiled = compile_program(&program).unwrap();

    let mut recorder = RecordingTracer::default();
    {
        let mut machine = Machine::new(&compiled);
        machine.set_tracer(&mut recorder);
        machine.query_str("nrev([1,2,3], R)").unwrap().unwrap();
    }

    let mut jsonl = JsonlTracer::new(Vec::new());
    {
        let mut machine = Machine::new(&compiled);
        machine.set_tracer(&mut jsonl);
        machine.query_str("nrev([1,2,3], R)").unwrap().unwrap();
    }
    let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    let parsed = parse_jsonl(&text).unwrap();
    assert_eq!(parsed, recorder.events);

    // nrev([1,2,3]) descends through nrev for the suffixes [2,3], [3],
    // and [], and app runs 1+2+3 activations for the reversed prefixes;
    // the traced call events for this query total exactly 9.
    let calls = recorder.calls();
    assert_eq!(calls.len(), 9);
    // Every traced call names a predicate that exists in the program.
    for (pid, _) in &calls {
        assert!(*pid < compiled.predicates.len());
    }
}

#[test]
fn concrete_opcode_counts_total_steps() {
    let program = parse_program(NREV).unwrap();
    let compiled = compile_program(&program).unwrap();
    let mut machine = Machine::new(&compiled);
    machine.query_str("nrev([1,2], R)").unwrap().unwrap();
    let stats = machine.machine_stats();
    assert_eq!(machine.opcodes().total(), stats.instructions);
    assert!(stats.calls > 0);
}
