//! A runaway abstract unification ends the run instead of spinning.
//!
//! Serialise plus one mutant `arrange/2` clause unifies a cyclic list
//! against a list type: each pair lays out a fresh list cell, so the
//! unifier's pair memo never closes the loop. Under a step budget the
//! loop charges the budget; without one it stops at a safety rail.
//! The pair memo that keeps such long unifications linear belongs to
//! one unification, nested ones included.

use absdom::AbsLeaf;
use awam_core::extract::deref;
use awam_core::{ACell, AbstractMachine, AnalysisError, Analyzer};
use prolog_syntax::Symbol;
use std::sync::mpsc;
use std::time::Duration;

const MUTANT: &str = "arrange(V2, f1(V0)) :- \
    split([V2|(0)], [V0|V2], f1(V1, [(-1)|(-2)]), V3), serialise([], V2).";

/// Analyze the mutant with `budget` on another thread; the result, or
/// `None` if it took longer than `limit`.
fn analyze_within(budget: Option<u64>, limit: Duration) -> Option<Result<u64, AnalysisError>> {
    let source = format!(
        "{}\n{MUTANT}\n",
        bench_suite::by_name("serialise").unwrap().source
    );
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let program = prolog_syntax::parse_program(&source).unwrap();
        let analyzer = Analyzer::builder()
            .step_budget(budget)
            .compile(&program)
            .unwrap();
        let result = analyzer
            .analyze_query("serialise", &[])
            .map(|a| a.instructions_executed);
        let _ = tx.send(result);
    });
    rx.recv_timeout(limit).ok()
}

#[test]
fn budgeted_runaway_unification_ends_over_budget() {
    let result = analyze_within(Some(100_000), Duration::from_secs(1))
        .expect("the budgeted analysis returned within 1 s");
    assert!(
        matches!(
            result,
            Err(AnalysisError::BudgetExceeded {
                budget: 100_000,
                executed
            }) if executed > 100_000
        ),
        "{result:?}"
    );
}

#[test]
fn unbudgeted_runaway_unification_hits_the_safety_rail() {
    let result = analyze_within(None, Duration::from_secs(5))
        .expect("the unbudgeted analysis returned within 5 s");
    assert_eq!(result, Err(AnalysisError::IterationLimit));
}

// ----- the spilled pair memo under nesting -----

/// Push `cell` onto `heap`; its address.
fn push(heap: &mut Vec<ACell>, cell: ACell) -> usize {
    heap.push(cell);
    heap.len() - 1
}

/// Lay out `f(args…)` with each argument referencing its cell; the
/// address of the `Str` cell.
fn structure(heap: &mut Vec<ACell>, f: Symbol, args: &[usize]) -> usize {
    let h = push(heap, ACell::Fun(f, args.len() as u16));
    heap.extend(args.iter().map(|&a| ACell::Ref(a)));
    push(heap, ACell::Str(h))
}

/// `f(first, any, …, any)` with `n` arguments.
fn type_struct(heap: &mut Vec<ACell>, f: Symbol, first: usize, n: usize) -> usize {
    let mut args = vec![first];
    args.extend((1..n).map(|_| push(heap, ACell::Abs(AbsLeaf::Any))));
    structure(heap, f, &args)
}

/// Unify `h(X, Q, L1, any × pad)` with `h(T, [X|T], L2, any × pad)`,
/// where `Q` is `list(list(g(list(any), any × (N-2))))`, `L1` is
/// `list(f(int, any × (N-1)))` and `L2` is `list(f(list(any), any ×
/// (N-1)))`. The pairs are taken last argument first. `L1 = L2` runs a
/// nested unification of N + 1 pairs that fails on its last pair, so
/// both lists become `[]`; `Q = [X|T]` then types `X` as `list(g(…))`
/// and `T` as `list(list(g(…)))`, which lays its cells out where the
/// failed nested unification had its own, and the pair `(X, T)` lands
/// on the address pair of the nested unification's first pair. `X = T`
/// makes both `[]`. Returns whether the unification succeeded, `X`'s
/// cell, and whether `X` and `T` end up as one cell.
fn nested_failing_unification(pad: usize) -> (bool, ACell, bool) {
    const N: usize = 70;
    let mut compiled = wam::compile_program(&prolog_syntax::parse_program("p.").unwrap()).unwrap();
    let [f, g, h] = ["f", "g", "h"].map(|name| compiled.interner.intern(name));
    let mut machine = AbstractMachine::new(&compiled, 4);
    let heap = machine.heap_mut();
    let [x, t] = [0, 1].map(|_| {
        let at = heap.len();
        push(heap, ACell::Ref(at))
    });
    let list_any = {
        let any = push(heap, ACell::Abs(AbsLeaf::Any));
        push(heap, ACell::AbsList(any))
    };
    let elem = type_struct(heap, g, list_any, N - 1);
    let list_elem = push(heap, ACell::AbsList(elem));
    let q = push(heap, ACell::AbsList(list_elem));
    let int = push(heap, ACell::Abs(AbsLeaf::Integer));
    let e1 = type_struct(heap, f, int, N);
    let list_any = {
        let any = push(heap, ACell::Abs(AbsLeaf::Any));
        push(heap, ACell::AbsList(any))
    };
    let e2 = type_struct(heap, f, list_any, N);
    let l1 = push(heap, ACell::AbsList(e1));
    let l2 = push(heap, ACell::AbsList(e2));
    let pair = push(heap, ACell::Ref(x));
    push(heap, ACell::Ref(t));
    let cons = push(heap, ACell::Lis(pair));
    let mut left = vec![x, q, l1];
    let mut right = vec![t, cons, l2];
    for side in [&mut left, &mut right] {
        side.extend((0..pad).map(|_| push(heap, ACell::Abs(AbsLeaf::Any))));
    }
    let a = structure(heap, h, &left);
    let b = structure(heap, h, &right);
    let ok = machine.unify_cells(ACell::Ref(a), ACell::Ref(b));
    let (cell, x_at) = deref(machine.heap(), ACell::Ref(x));
    let (_, t_at) = deref(machine.heap(), ACell::Ref(t));
    (ok, cell, x_at == t_at)
}

#[test]
fn a_failed_nested_unification_leaves_the_outer_pair_memo_alone() {
    let nil = ACell::Con(absdom::nil_symbol());
    // Without padding the outer unification stays under the memo's
    // spill size; with 70 padding pairs it spills before the nested one
    // runs. Both must unify `X` with `T`.
    for pad in [0, 70] {
        assert_eq!(
            nested_failing_unification(pad),
            (true, nil, true),
            "pad {pad}"
        );
    }
}

#[test]
fn a_runaway_unify_cells_leaves_no_error_for_the_next_run() {
    let compiled = wam::compile_program(&prolog_syntax::parse_program("p.").unwrap()).unwrap();
    let mut machine = AbstractMachine::new(&compiled, 4);
    // The cyclic list `L = [[]|L]` against `list(any)`: every pair lays
    // out a fresh list cell, so only the safety rail ends it.
    let heap = machine.heap_mut();
    let any = push(heap, ACell::Abs(AbsLeaf::Any));
    let list_type = push(heap, ACell::AbsList(any));
    let car = push(heap, ACell::Con(absdom::nil_symbol()));
    push(heap, ACell::Ref(car + 2));
    let list = push(heap, ACell::Lis(car));
    assert!(!machine.unify_cells(ACell::Ref(list), ACell::Ref(list_type)));
    let p = compiled.predicate("p", 0).unwrap();
    assert!(machine
        .run_to_fixpoint(p, &absdom::Pattern::empty())
        .is_ok());
}
