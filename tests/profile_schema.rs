//! The self-profiling JSON surface under test: the document `awam
//! profile --metrics-json` emits must keep every key the checked-in
//! schema snapshot (`tests/snapshots/metrics_schema.json`) promises —
//! counters, histograms with their quantile fields, the span tree shape
//! and the layer leaves of every predicate span — because external
//! scrapers key on exactly those names.

use awam::analysis::AnalyzerBuilder;
use awam::obs::Json;
use awam::syntax::parse_program;

const NREV: &str = "
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
";

/// Build the same document the CLI's `--metrics-json` prints.
fn profile_doc() -> Json {
    let program = parse_program(NREV).unwrap();
    let analyzer = AnalyzerBuilder::new()
        .profiling(true)
        .compile(&program)
        .unwrap();
    let analysis = analyzer.analyze_query("nrev", &["glist", "var"]).unwrap();
    analysis
        .profile_json(&analyzer)
        .expect("profiling was enabled")
}

fn schema() -> Json {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/snapshots/metrics_schema.json"
    ))
    .expect("schema snapshot present");
    Json::parse(&text).expect("schema snapshot parses")
}

fn string_list(schema: &Json, key: &str) -> Vec<String> {
    let Some(Json::Arr(items)) = schema.get(key) else {
        panic!("schema key {key} is not an array");
    };
    items
        .iter()
        .map(|i| i.as_str().expect("schema lists strings").to_owned())
        .collect()
}

/// Every span node, recursively, must carry the promised fields, and
/// every predicate span (named `name/arity`) the promised layer leaves.
/// Returns the number of predicate spans checked.
fn check_span(node: &Json, fields: &[String], leaves: &[String]) -> usize {
    for f in fields {
        assert!(node.get(f).is_some(), "span node missing field {f}");
    }
    let Some(Json::Arr(children)) = node.get("children") else {
        panic!("span children is not an array");
    };
    let name = node.get("name").and_then(Json::as_str).unwrap_or_default();
    let mut predicates = 0;
    if name
        .rsplit_once('/')
        .is_some_and(|(_, arity)| arity.parse::<usize>().is_ok())
    {
        let names: Vec<&str> = children
            .iter()
            .filter_map(|c| c.get("name").and_then(Json::as_str))
            .collect();
        for leaf in leaves {
            assert!(names.contains(&leaf.as_str()), "{name} has no {leaf} leaf");
        }
        predicates += 1;
    }
    for c in children {
        predicates += check_span(c, fields, leaves);
    }
    predicates
}

#[test]
fn metrics_json_matches_the_schema_snapshot() {
    let schema = schema();
    let doc = profile_doc();

    for key in string_list(&schema, "top_level") {
        assert!(doc.get(&key).is_some(), "missing top-level key {key}");
    }
    let metrics = doc.get("metrics").unwrap();
    for key in string_list(&schema, "metrics_sections") {
        assert!(metrics.get(&key).is_some(), "missing metrics section {key}");
    }

    let counters = metrics.get("counters").unwrap();
    for key in string_list(&schema, "required_counters") {
        assert!(counters.get(&key).is_some(), "missing counter {key}");
    }

    let histograms = metrics.get("histograms").unwrap();
    let hist_fields = string_list(&schema, "histogram_fields");
    for key in string_list(&schema, "required_histograms") {
        let h = histograms
            .get(&key)
            .unwrap_or_else(|| panic!("missing histogram {key}"));
        for f in &hist_fields {
            assert!(h.get(f).is_some(), "histogram {key} missing field {f}");
        }
    }

    let predicates = check_span(
        doc.get("spans").unwrap(),
        &string_list(&schema, "span_fields"),
        &string_list(&schema, "required_span_leaves"),
    );
    assert!(predicates > 0, "the span tree has predicate spans");
}

#[test]
fn profile_json_is_parseable_and_roundtrips() {
    let doc = profile_doc();
    let text = doc.emit_pretty();
    let parsed = Json::parse(&text).expect("emitted profile JSON parses back");
    // Structure survives the round trip (nanosecond values vary between
    // runs, so compare the re-emission of the same parse, not two runs).
    assert_eq!(parsed.emit(), doc.emit());
}

#[test]
fn profile_is_none_without_opt_in() {
    let program = parse_program(NREV).unwrap();
    let analyzer = AnalyzerBuilder::new().compile(&program).unwrap();
    let analysis = analyzer.analyze_query("nrev", &["glist", "var"]).unwrap();
    assert!(analysis.profile.is_none());
    assert!(analysis.profile_json(&analyzer).is_none());
}
