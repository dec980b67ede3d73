//! Property-based end-to-end soundness: for randomly generated ground
//! inputs, the concrete solution of a benchmark-style predicate must be
//! covered by the abstract success summary inferred for the matching
//! entry pattern. Inputs come from the shared deterministic
//! [`awam::testkit::Rng`] (the workspace builds offline, so no
//! proptest); the per-property case budget honors `AWAM_FUZZ_ITERS`.

use awam::analysis::Analyzer;
use awam::machine::Machine;
use awam::syntax::parse_program;
use awam::testkit::{fuzz_iters, Rng};
use awam::wam::compile_program;

fn cases() -> u64 {
    fuzz_iters(48)
}

const LIB: &str = "
    app([], L, L).
    app([H|T], L, [H|R]) :- app(T, L, R).
    nrev([], []).
    nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
    qsort([], R, R).
    qsort([X|L], R, R0) :-
        partition(L, X, L1, L2), qsort(L2, R1, R0), qsort(L1, R, [X|R1]).
    partition([], _, [], []).
    partition([X|L], Y, [X|L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
    partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
";

fn int_list(items: &[i64]) -> String {
    let items: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn check(query: &str, entry: &str, specs: &[&str], out_var: &str) {
    let program = parse_program(LIB).expect("parse");
    let compiled = compile_program(&program).expect("compile");
    let mut machine = Machine::new(&compiled);
    let solution = machine
        .query_str(query)
        .expect("concrete run")
        .expect("query succeeds");
    let (_, out_term, _) = solution
        .bindings
        .iter()
        .find(|(n, _, _)| n == out_var)
        .expect("output variable bound")
        .clone();

    let analyzer = Analyzer::compile(&program).expect("compile");
    let analysis = analyzer.analyze_query(entry, specs).expect("analysis");
    let pred = analysis
        .predicate(entry, specs.len())
        .expect("entry analyzed");
    let summary = pred.success_summary().expect("can succeed");
    // Check coverage of the output argument in isolation (leaf check):
    // the output position's abstract type must cover the concrete term.
    let out_idx = specs
        .iter()
        .position(|s| *s == "var")
        .expect("one output position");
    let single = project(&summary, out_idx);
    assert!(
        single.covers(std::slice::from_ref(&out_term)),
        "summary {single:?} does not cover concrete output of {query}"
    );
}

/// The one-argument pattern of argument `i` of `p` (its subgraph, with
/// the sharing inside it).
fn project(p: &absdom::Pattern, i: usize) -> absdom::Pattern {
    use absdom::{PNode, PatternBuilder};
    let mut graph = PatternBuilder::new(1);
    let mut spans = Vec::new();
    for &node in p.nodes() {
        match node {
            PNode::Struct(f, span) => {
                let (_, new_span) = graph.push_struct(f, span.len());
                spans.push((new_span, span));
            }
            _ => {
                graph.push(node);
            }
        }
    }
    for (new_span, span) in spans {
        for (k, a) in p.args(span).enumerate() {
            graph.set_arg(new_span, k, a);
        }
    }
    graph.set_root(0, p.root(i));
    absdom::Pattern::new(graph)
}

#[test]
fn nrev_outputs_covered() {
    let mut rng = Rng::new(1);
    for _ in 0..cases() {
        let items = rng.int_vec(12, -20, 20);
        let query = format!("nrev({}, Out)", int_list(&items));
        check(&query, "nrev", &["glist", "var"], "Out");
    }
}

#[test]
fn append_outputs_covered() {
    let mut rng = Rng::new(2);
    for _ in 0..cases() {
        let a = rng.int_vec(8, -9, 9);
        let b = rng.int_vec(8, -9, 9);
        let query = format!("app({}, {}, Out)", int_list(&a), int_list(&b));
        check(&query, "app", &["glist", "glist", "var"], "Out");
    }
}

#[test]
fn qsort_outputs_covered() {
    let mut rng = Rng::new(3);
    for _ in 0..cases() {
        let items = rng.int_vec(10, 0, 50);
        let query = format!("qsort({}, Out, [])", int_list(&items));
        check(&query, "qsort", &["glist", "var", "nil"], "Out");
    }
}

#[test]
fn len_outputs_covered() {
    let mut rng = Rng::new(4);
    for _ in 0..cases() {
        let items = rng.int_vec(10, 0, 5);
        let query = format!("len({}, Out)", int_list(&items));
        check(&query, "len", &["glist", "var"], "Out");
    }
}
