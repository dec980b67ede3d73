//! End-to-end analysis tests: compile Prolog source, run the abstract
//! WAM to fixpoint, and check the inferred modes/types/aliasing.

use absdom::{AbsLeaf, Pattern};
use awam_core::{Analyzer, ArgMode};
use prolog_syntax::parse_program;

fn analyze(src: &str, pred: &str, specs: &[&str]) -> (awam_core::Analysis, Analyzer) {
    let program = parse_program(src).expect("parse");
    let analyzer = Analyzer::compile(&program).expect("compile");
    let analysis = analyzer.analyze_query(pred, specs).expect("analyze");
    (analysis, analyzer)
}

/// Leaf approximations of a predicate's success summary.
fn success_leaves(analysis: &awam_core::Analysis, name: &str, arity: usize) -> Vec<AbsLeaf> {
    let pred = analysis.predicate(name, arity).expect("predicate analyzed");
    let s = pred.success_summary().expect("has a success pattern");
    (0..arity).map(|i| s.leaf_approx(s.root(i))).collect()
}

const APPEND: &str = "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).";

#[test]
fn append_ground_lists_give_ground_result() {
    let (analysis, analyzer) = analyze(APPEND, "app", &["glist", "glist", "var"]);
    let leaves = success_leaves(&analysis, "app", 3);
    assert!(leaves.iter().all(|l| l.is_ground()), "{leaves:?}");
    // And the third argument is in fact inferred to be a ground *list*.
    let pred = analysis.predicate("app", 3).unwrap();
    let s = pred.success_summary().unwrap();
    let rendered = s.display(analyzer.interner());
    assert!(
        rendered.contains("glist") || rendered.contains("[g"),
        "expected list type in {rendered}"
    );
}

#[test]
fn append_modes_are_in_in_out() {
    let (analysis, _) = analyze(APPEND, "app", &["glist", "glist", "var"]);
    let pred = analysis.predicate("app", 3).unwrap();
    let modes = pred.modes();
    assert_eq!(modes[2], ArgMode::OutGround, "{modes:?}");
}

#[test]
fn append_open_mode_stays_sound() {
    // Backward mode: app(X, Y, [1,2]) — first two args must come out
    // as (possibly improper prefixes…) lists; at minimum not claimed var.
    let (analysis, _) = analyze(APPEND, "app", &["var", "var", "glist"]);
    let leaves = success_leaves(&analysis, "app", 3);
    assert!(leaves[0].is_ground(), "prefix of a ground list is ground");
    assert!(leaves[1].is_ground(), "suffix of a ground list is ground");
}

#[test]
fn nrev_infers_ground_list() {
    let src = "
        nrev([], []).
        nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
    ";
    let (analysis, analyzer) = analyze(src, "nrev", &["glist", "var"]);
    let pred = analysis.predicate("nrev", 2).unwrap();
    let s = pred.success_summary().unwrap();
    assert!(s.node_is_ground(s.root(1)));
    let report = analysis.report(&analyzer);
    assert!(report.contains("nrev/2"), "{report}");
    assert!(report.contains("app/3"), "{report}");
}

#[test]
fn arithmetic_grounds_outputs() {
    let src = "double(X, Y) :- Y is X * 2.";
    let (analysis, _) = analyze(src, "double", &["int", "var"]);
    let leaves = success_leaves(&analysis, "double", 2);
    assert_eq!(leaves[1], AbsLeaf::Integer);
}

#[test]
fn comparison_grounds_inputs() {
    let src = "check(X, Y) :- X < Y.";
    let (analysis, _) = analyze(src, "check", &["any", "any"]);
    let leaves = success_leaves(&analysis, "check", 2);
    assert!(leaves[0].is_ground());
    assert!(leaves[1].is_ground());
}

#[test]
fn factorial_fixpoint_terminates() {
    let src = "
        fact(0, 1) :- !.
        fact(N, F) :- N > 0, M is N - 1, fact(M, G), F is N * G.
    ";
    let (analysis, _) = analyze(src, "fact", &["int", "var"]);
    let leaves = success_leaves(&analysis, "fact", 2);
    assert_eq!(leaves[1], AbsLeaf::Integer);
    assert!(
        analysis.iterations <= 5,
        "iterations: {}",
        analysis.iterations
    );
}

#[test]
fn tak_terminates_and_types() {
    let src = "
        tak(X, Y, Z, A) :- X =< Y, !, Z = A.
        tak(X, Y, Z, A) :-
            X1 is X - 1, Y1 is Y - 1, Z1 is Z - 1,
            tak(X1, Y, Z, A1), tak(Y1, Z, X, A2), tak(Z1, X, Y, A3),
            tak(A1, A2, A3, A).
    ";
    let (analysis, _) = analyze(src, "tak", &["int", "int", "int", "var"]);
    let leaves = success_leaves(&analysis, "tak", 4);
    // The result is either Z (int via entry) or the recursive result.
    assert!(leaves[3].is_ground(), "{leaves:?}");
}

#[test]
fn qsort_infers_ground_lists() {
    let src = "
        qsort([], R, R).
        qsort([X|L], R, R0) :-
            partition(L, X, L1, L2),
            qsort(L2, R1, R0),
            qsort(L1, R, [X|R1]).
        partition([], _, [], []).
        partition([X|L], Y, [X|L1], L2) :- X =< Y, !, partition(L, Y, L1, L2).
        partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).
    ";
    let (analysis, _) = analyze(src, "qsort", &["glist", "var", "nil"]);
    let pred = analysis.predicate("qsort", 3).unwrap();
    let s = pred.success_summary().unwrap();
    assert!(s.node_is_ground(s.root(1)), "sorted output is ground");
    // partition/4 must also be analyzed.
    assert!(analysis.predicate("partition", 4).is_some());
}

#[test]
fn failure_is_detected() {
    let src = "p(X) :- q(X), r(X). q(1). r(a).";
    let (analysis, _) = analyze(src, "p", &["var"]);
    let pred = analysis.predicate("p", 1).unwrap();
    // q binds X to 1 (int); r requires atom a → abstract failure.
    assert!(pred.success_summary().is_none(), "{pred:?}");
}

#[test]
fn aliasing_is_tracked_through_heads() {
    let src = "same(X, X).";
    let (analysis, _) = analyze(src, "same", &["var", "var"]);
    let pred = analysis.predicate("same", 2).unwrap();
    let aliases = awam_core::report::aliased_arg_pairs(pred);
    assert_eq!(aliases, vec![(0, 1)], "args aliased on success");
}

#[test]
fn aliasing_propagates_groundness() {
    // After same(X, Y), grounding X must ground Y.
    let src = "
        same(X, X).
        test(X, Y) :- same(X, Y), X = 5.
    ";
    let (analysis, _) = analyze(src, "test", &["var", "var"]);
    let leaves = success_leaves(&analysis, "test", 2);
    assert!(
        leaves[1].is_ground(),
        "aliased variable must be grounded: {leaves:?}"
    );
}

#[test]
fn deriv_types_flow() {
    let src = "
        d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).
        d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).
        d(X, X, 1) :- !.
        d(_, _, 0).
    ";
    let (analysis, _) = analyze(src, "d", &["g", "atom", "var"]);
    let leaves = success_leaves(&analysis, "d", 3);
    assert!(leaves[2].is_ground(), "derivative is ground: {leaves:?}");
}

#[test]
fn type_tests_narrow() {
    let src = "
        classify(X, atom) :- atom(X).
        classify(X, num) :- integer(X).
    ";
    let (analysis, _) = analyze(src, "classify", &["const", "var"]);
    let pred = analysis.predicate("classify", 2).unwrap();
    // Both clauses can abstractly succeed on const.
    assert_eq!(pred.entries.len(), 1);
    assert!(pred.success_summary().is_some());
    // With an int input only the integer clause survives.
    let (analysis, analyzer) = analyze(src, "classify", &["int", "var"]);
    let pred = analysis.predicate("classify", 2).unwrap();
    let s = pred.success_summary().unwrap();
    let rendered = s.display(analyzer.interner());
    assert!(rendered.contains("num"), "only the num branch: {rendered}");
    assert!(!rendered.contains("atom"), "{rendered}");
}

#[test]
fn var_type_test_fails_on_concrete() {
    let src = "isvar(X) :- var(X).";
    let (analysis, _) = analyze(src, "isvar", &["int"]);
    let pred = analysis.predicate("isvar", 1).unwrap();
    assert!(pred.success_summary().is_none());
    let (analysis, _) = analyze(src, "isvar", &["var"]);
    let pred = analysis.predicate("isvar", 1).unwrap();
    assert!(pred.success_summary().is_some());
}

#[test]
fn disjunction_branches_lub() {
    let src = "p(X) :- (X = 1 ; X = a).";
    let (analysis, _) = analyze(src, "p", &["var"]);
    let leaves = success_leaves(&analysis, "p", 1);
    assert_eq!(leaves[0], AbsLeaf::Const, "lub of int and atom: {leaves:?}");
}

#[test]
fn negation_is_sound() {
    let src = "p(X) :- \\+ q(X). q(1).";
    let (analysis, _) = analyze(src, "p", &["any"]);
    let pred = analysis.predicate("p", 1).unwrap();
    // \+ may succeed with no bindings.
    assert!(pred.success_summary().is_some());
}

#[test]
fn multiple_calling_patterns_kept_separately() {
    let src = "
        id(X, X).
        both(A, B) :- id(1, A), id(foo, B).
    ";
    let (analysis, _) = analyze(src, "both", &["var", "var"]);
    let id = analysis.predicate("id", 2).unwrap();
    assert_eq!(id.entries.len(), 2, "two distinct calling patterns: {id:?}");
    let leaves = success_leaves(&analysis, "both", 2);
    assert_eq!(leaves[0], AbsLeaf::Integer);
    assert_eq!(leaves[1], AbsLeaf::Atom);
}

#[test]
fn depth_restriction_controls_precision() {
    let src = "
        wrap(X, f(f(f(f(f(X)))))).
    ";
    let program = parse_program(src).unwrap();
    // Deep k keeps the whole structure; shallow k summarizes.
    let deep = Analyzer::builder().depth(8).compile(&program).unwrap();
    let a_deep = deep.analyze_query("wrap", &["int", "var"]).unwrap();
    let shallow = Analyzer::builder().depth(2).compile(&program).unwrap();
    let a_shallow = shallow.analyze_query("wrap", &["int", "var"]).unwrap();
    let s_deep = a_deep
        .predicate("wrap", 2)
        .unwrap()
        .success_summary()
        .unwrap();
    let s_shallow = a_shallow
        .predicate("wrap", 2)
        .unwrap()
        .success_summary()
        .unwrap();
    let d = s_deep.display(deep.interner());
    let s = s_shallow.display(shallow.interner());
    assert!(d.matches("f(").count() >= 5, "deep keeps structure: {d}");
    assert!(s.matches("f(").count() < 5, "shallow summarizes: {s}");
    // Both remain sound (ground in both cases).
    assert!(s_deep.node_is_ground(s_deep.root(1)));
    assert!(s_shallow.node_is_ground(s_shallow.root(1)));
}

#[test]
fn instruction_counter_is_populated() {
    let (analysis, _) = analyze(APPEND, "app", &["glist", "glist", "var"]);
    assert!(analysis.instructions_executed > 0);
    assert!(analysis.table_stats.lookups > 0);
    assert!(analysis.table_stats.inserts > 0);
    assert_eq!(
        analysis.table_stats.hits + analysis.table_stats.misses,
        analysis.table_stats.lookups
    );
}

#[test]
fn zero_arity_predicates_analyze() {
    let src = "go :- helper. helper.";
    let (analysis, _) = analyze(src, "go", &[]);
    let pred = analysis.predicate("go", 0).unwrap();
    assert!(pred.success_summary().is_some());
    assert_eq!(pred.entries[0].0, Pattern::empty());
}

#[test]
fn unknown_entry_pattern_is_error() {
    let program = parse_program(APPEND).unwrap();
    let analyzer = Analyzer::compile(&program).unwrap();
    assert!(analyzer
        .analyze_query("app", &["frobnicate", "g", "g"])
        .is_err());
    assert!(analyzer.analyze_query("nosuch", &["g"]).is_err());
}

#[test]
fn success_pattern_application_narrows_caller() {
    // The caller's own variable must be narrowed by the callee's summary.
    let src = "
        mk(f(1, a)).
        use(X, Y) :- mk(X), X = f(Y, _).
    ";
    let (analysis, _) = analyze(src, "use", &["var", "var"]);
    let leaves = success_leaves(&analysis, "use", 2);
    assert!(leaves[0].is_ground());
    assert_eq!(leaves[1], AbsLeaf::Integer, "{leaves:?}");
}

#[test]
fn nonvar_test_on_var_fails() {
    let src = "p(X) :- nonvar(X).";
    let (analysis, _) = analyze(src, "p", &["var"]);
    assert!(analysis
        .predicate("p", 1)
        .unwrap()
        .success_summary()
        .is_none());
    let (analysis, _) = analyze(src, "p", &["g"]);
    assert!(analysis
        .predicate("p", 1)
        .unwrap()
        .success_summary()
        .is_some());
}

#[test]
fn list_instantiation_from_ground() {
    // get_list on a `ground` argument: [g|g] instance (Figure 4).
    let src = "head([H|_], H).";
    let (analysis, _) = analyze(src, "head", &["g", "var"]);
    let leaves = success_leaves(&analysis, "head", 2);
    assert!(leaves[1].is_ground(), "head of ground term is ground");
}

#[test]
fn list_instantiation_from_glist() {
    // get_list on glist: [g|glist] — the cdr stays a list.
    let src = "tail([_|T], T).";
    let (analysis, analyzer) = analyze(src, "tail", &["glist", "var"]);
    let pred = analysis.predicate("tail", 2).unwrap();
    let s = pred.success_summary().unwrap();
    let rendered = s.display(analyzer.interner());
    assert!(
        rendered.contains("glist"),
        "cdr keeps list type: {rendered}"
    );
}
