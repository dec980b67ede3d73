//! `ProgramDiff::between` compares clause terms structurally. These tests
//! hold it to the rendered-text diff it replaced, kept here as the
//! reference: on random programs and their random edits, in both
//! directions, and on hand cases for the ways the two could part.

use awam_core::{ProgramDiff, ProgramEdit};
use awam_testkit::{gen_edit, gen_program, GenConfig, Rng};
use prolog_syntax::{parse_program, pretty, Program};
use std::collections::BTreeMap;

/// The reference: every predicate's clauses pretty-printed, and a
/// predicate changed when its list of clause texts differs.
fn rendered_diff(old: &Program, new: &Program) -> ProgramDiff {
    fn clause_map(program: &Program) -> BTreeMap<(String, usize), Vec<String>> {
        let mut map: BTreeMap<(String, usize), Vec<String>> = BTreeMap::new();
        for clause in &program.clauses {
            let key = clause.pred_key();
            map.entry((program.interner.resolve(key.name).to_owned(), key.arity))
                .or_default()
                .push(pretty::clause_to_string(clause, &program.interner));
        }
        map
    }
    let (old_map, new_map) = (clause_map(old), clause_map(new));
    ProgramDiff {
        changed: new_map
            .iter()
            .filter(|(key, clauses)| old_map.get(*key) != Some(clauses))
            .map(|(key, _)| key.clone())
            .collect(),
        removed: old_map
            .keys()
            .filter(|key| !new_map.contains_key(*key))
            .cloned()
            .collect(),
    }
}

fn parse(src: &str) -> Program {
    parse_program(src).unwrap_or_else(|e| panic!("{src}: {e}"))
}

/// Both diffs, both directions; returns the structural `old → new` one.
fn agree(old: &Program, new: &Program) -> ProgramDiff {
    for (a, b) in [(old, new), (new, old)] {
        assert_eq!(
            ProgramDiff::between(a, b),
            rendered_diff(a, b),
            "\n--- from\n{a}--- to\n{b}"
        );
    }
    ProgramDiff::between(old, new)
}

/// Apply `edits` random edits to `program`, checking every step.
fn check_edits(rng: &mut Rng, program: &Program, edits: usize) -> usize {
    let mut checked = 0;
    for _ in 0..edits {
        let Ok(text) = gen_edit(rng, program).apply(program) else {
            continue;
        };
        let Ok(edited) = parse_program(&text) else {
            continue;
        };
        agree(program, &edited);
        checked += 1;
    }
    checked
}

#[test]
fn structural_diff_matches_rendered_on_random_edits() {
    let mut rng = Rng::new(7);
    let mut pairs = 0;
    for _ in 0..600 {
        let source = gen_program(&mut rng, &GenConfig::default()).source();
        let program = parse(&source);
        pairs += check_edits(&mut rng, &program, 2);
    }
    assert!(pairs >= 1_000, "only {pairs} edit pairs checked");
}

#[test]
fn structural_diff_matches_rendered_on_suite_mutants() {
    let mut rng = Rng::new(11);
    for b in bench_suite::all() {
        let program = b.parse().expect("benchmark parses");
        assert!(check_edits(&mut rng, &program, 40) > 30, "{}", b.name);
    }
}

#[test]
fn edit_round_trip_prints_anonymous_variables_as_generated_names() {
    let program = parse("p(_, X) :- q(X, _).\nq(a, _).\nr.\n");
    let text = ProgramEdit::AddClause {
        clause: "r :- r.".to_owned(),
    }
    .apply(&program)
    .unwrap();
    assert!(text.contains("_G0"), "{text}");
    let diff = agree(&program, &parse(&text));
    assert_eq!(diff.changed, vec![("r".to_owned(), 0)]);
    assert!(diff.removed.is_empty());
    // A named variable spelled like the generated name is the same text
    // (`_` is variable 0 here)...
    assert!(agree(&parse("q(a, _)."), &parse("q(a, _G0).")).is_empty());
    // ... but not when the number differs.
    assert!(!agree(&parse("q(a, _)."), &parse("q(a, _G00).")).is_empty());
    assert!(!agree(&parse("q(a, _)."), &parse("q(a, _G1).")).is_empty());
}

#[test]
fn whitespace_and_comments_are_no_change() {
    let old = parse("p(X) :- q(X), r.\nq(a).\nr.\n");
    let new = parse("% a comment\np(X) :-\n    q(X),   % inline\n    r.\n\n\nq( a ).\nr.\n");
    assert!(agree(&old, &new).is_empty());
}

#[test]
fn renaming_a_variable_is_a_change() {
    let diff = agree(
        &parse("p(X) :- q(X).\nq(a).\n"),
        &parse("p(Y) :- q(Y).\nq(a).\n"),
    );
    assert_eq!(diff.changed, vec![("p".to_owned(), 1)]);
}

#[test]
fn discontiguous_clauses_compare_per_predicate() {
    let old = parse("p(a).\nq(b).\np(c).\n");
    // Interleaving across predicates is not a change...
    assert!(agree(&old, &parse("q(b).\np(a).\np(c).\n")).is_empty());
    // ... reordering within one is.
    let diff = agree(&old, &parse("p(c).\nq(b).\np(a).\n"));
    assert_eq!(diff.changed, vec![("p".to_owned(), 1)]);
}

#[test]
fn removed_and_added_predicates() {
    let diff = agree(
        &parse("p(X) :- q(X).\nq(a).\ns(1).\n"),
        &parse("p(X) :- q(X).\nq(a).\nt(1).\ns.\n"),
    );
    assert_eq!(diff.changed, vec![("s".to_owned(), 0), ("t".to_owned(), 1)]);
    assert_eq!(diff.removed, vec![("s".to_owned(), 1)]);
}

#[test]
fn renumbered_symbols_are_no_change() {
    // Same clauses, different first-occurrence order of every name.
    let old = parse("a(x, y).\nb(y, x) :- a(x, y).\n");
    let new = parse("b(y, x) :- a(x, y).\na(x, y).\n");
    assert!(agree(&old, &new).is_empty());
    let diff = agree(&old, &parse("b(y, x) :- a(x, y).\na(x, z).\n"));
    assert_eq!(diff.changed, vec![("a".to_owned(), 2)]);
}
