//! The span tree pinned to the counters. On every Table 1 program the
//! profiler's layer leaves and predicate spans must count exactly the
//! work the analyzer's counters count, the self times must partition the
//! root's total, and switching profiling on must change no result.

use awam::analysis::{Analysis, AnalyzerBuilder, IterationStrategy};
use awam::obs::{Layer, SpanProfiler};
use awam::suite;

fn analyze(b: &suite::Benchmark, profiling: bool) -> (Analysis, String) {
    analyze_with(b, profiling, IterationStrategy::GlobalRestart)
}

fn analyze_with(
    b: &suite::Benchmark,
    profiling: bool,
    strategy: IterationStrategy,
) -> (Analysis, String) {
    let program = b.parse().expect("parse");
    let analyzer = AnalyzerBuilder::new()
        .profiling(profiling)
        .strategy(strategy)
        .compile(&program)
        .expect("compile");
    let analysis = analyzer
        .analyze_query(b.entry, b.entry_specs)
        .expect("analysis");
    let report = analysis.report(&analyzer);
    (analysis, report)
}

/// Calls summed over every leaf of `layer` in the tree.
fn layer_calls(spans: &SpanProfiler, layer: Layer) -> u64 {
    spans
        .walk()
        .iter()
        .filter(|(_, node)| node.layer == Some(layer))
        .map(|(_, node)| node.calls)
        .sum()
}

/// Predicate spans are the ones named `name/arity`.
fn is_predicate_span(name: &str) -> bool {
    name.rsplit_once('/')
        .is_some_and(|(_, arity)| arity.parse::<usize>().is_ok())
}

#[test]
fn span_tree_counts_what_the_counters_count() {
    for b in suite::all() {
        let (analysis, _) = analyze(&b, true);
        let profile = analysis.profile.as_ref().expect("profiling was enabled");
        let spans = &profile.spans;
        let walk = spans.walk();

        assert_eq!(
            layer_calls(spans, Layer::EtConsult),
            analysis.table_stats.lookups,
            "{}: et-consult calls",
            b.name
        );
        assert_eq!(
            layer_calls(spans, Layer::Materialize),
            analysis.machine_stats.backtracks,
            "{}: materialize calls",
            b.name
        );
        assert_eq!(
            layer_calls(spans, Layer::EtUpdate),
            analysis.table_stats.summary_updates,
            "{}: et-update calls",
            b.name
        );
        let self_sum: u64 = walk.iter().map(|(_, node)| node.self_ns()).sum();
        assert_eq!(
            self_sum,
            spans.root().total_ns,
            "{}: self times partition the root",
            b.name
        );
    }
}

/// Calls summed over every predicate span.
fn predicate_calls(spans: &SpanProfiler) -> u64 {
    spans
        .walk()
        .iter()
        .filter(|(_, node)| node.layer.is_none() && is_predicate_span(node.name))
        .map(|(_, node)| node.calls)
        .sum()
}

/// One predicate span per exploration, under both strategies; the
/// worklist strategy reports its explorations as `iterations`, so there
/// the span tree also agrees with a counter the profile does not own.
#[test]
fn predicate_spans_count_the_explorations() {
    for strategy in [
        IterationStrategy::GlobalRestart,
        IterationStrategy::Dependency,
    ] {
        for b in suite::all() {
            let (analysis, _) = analyze_with(&b, true, strategy);
            let profile = analysis.profile.as_ref().expect("profiling was enabled");
            let calls = predicate_calls(&profile.spans);
            assert_eq!(
                calls, profile.explorations,
                "{} ({strategy:?}): predicate-span calls",
                b.name
            );
            if strategy == IterationStrategy::Dependency {
                assert_eq!(
                    calls, analysis.iterations,
                    "{}: worklist explorations",
                    b.name
                );
            }
        }
    }
}

#[test]
fn every_predicate_span_lists_the_four_layers() {
    for b in suite::all() {
        let (analysis, _) = analyze(&b, true);
        let spans = analysis.profile.expect("profiling was enabled").spans;
        let walk = spans.walk();
        for (i, (depth, node)) in walk.iter().enumerate() {
            if node.layer.is_some() || !is_predicate_span(node.name) {
                continue;
            }
            let leaves: Vec<Layer> = walk[i + 1..]
                .iter()
                .take_while(|(d, _)| d > depth)
                .filter(|(d, _)| *d == depth + 1)
                .filter_map(|(_, child)| child.layer)
                .collect();
            assert_eq!(leaves, Layer::ALL, "{}: layers of {}", b.name, node.name);
        }
    }
}

#[test]
fn profiling_changes_no_result() {
    for b in suite::all() {
        let (plain, plain_report) = analyze(&b, false);
        let (profiled, profiled_report) = analyze(&b, true);
        assert_eq!(plain_report, profiled_report, "{}: report", b.name);
        assert_eq!(plain.table_stats, profiled.table_stats, "{}", b.name);
        assert_eq!(plain.intern_stats, profiled.intern_stats, "{}", b.name);
        assert_eq!(plain.machine_stats, profiled.machine_stats, "{}", b.name);
        assert!(plain.profile.is_none() && profiled.profile.is_some());
    }
}
