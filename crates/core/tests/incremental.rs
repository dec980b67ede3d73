//! Hand-built incremental edit scenarios over the Table 1 benchmarks.
//!
//! Three shapes, each with exact [`InvalidationStats`] tripwires (the
//! pinned numbers are observed values; a change means the invalidation
//! algorithm's precision moved and must be re-justified):
//!
//! * a **no-op edit** (whitespace-only source change) invalidates
//!   nothing — the clause diff sees through formatting;
//! * a **leaf edit** (duplicating a clause of a predicate near the
//!   bottom of the call graph) resets only that predicate's reverse-
//!   dependency cone — entries outside the cone survive verbatim;
//! * an **entry/bottom edit** at the cone's extremes: editing the entry
//!   predicate resets only its own entry (nothing depends on it), while
//!   editing a leaf that everything depends on resets the entire table
//!   (a full re-fixpoint).
//!
//! Every scenario also checks the headline correctness claim: after the
//! incremental update, the reachable core of the table (and its
//! rendered report) is byte-identical to a cold analysis of the edited
//! source.

use awam_core::incremental::{ProgramEdit, Workspace};
use awam_obs::InvalidationStats;
use bench_suite::Benchmark;

/// A warm workspace for one benchmark: compiled, analyzed once.
fn warm_workspace(b: &Benchmark) -> Workspace {
    let mut ws = Workspace::from_source(b.source)
        .unwrap_or_else(|e| panic!("{}: workspace build failed: {e}", b.name));
    ws.analyze(b.entry, b.entry_specs)
        .unwrap_or_else(|e| panic!("{}: cold analysis failed: {e}", b.name));
    ws
}

/// The partition invariant every migration must uphold.
fn assert_partition(name: &str, stats: &InvalidationStats) {
    assert_eq!(
        stats.entries_before,
        stats.entries_kept + stats.entries_reset + stats.entries_dropped,
        "{name}: kept/reset/dropped must partition the pre-edit table: {stats:?}"
    );
}

/// Incremental core (dump + report) must be byte-equal to a cold
/// analysis of the same edited source.
fn assert_matches_cold(name: &str, ws: &mut Workspace, b: &Benchmark) {
    let mut cold = Workspace::from_source(ws.source())
        .unwrap_or_else(|e| panic!("{name}: cold rebuild failed: {e}"));
    let warm_dump = ws
        .core_dump(b.entry, b.entry_specs)
        .unwrap_or_else(|e| panic!("{name}: warm core dump failed: {e}"));
    let cold_dump = cold
        .core_dump(b.entry, b.entry_specs)
        .unwrap_or_else(|e| panic!("{name}: cold core dump failed: {e}"));
    assert_eq!(warm_dump, cold_dump, "{name}: reachable cores diverge");
    let warm_report = ws
        .core_report(b.entry, b.entry_specs)
        .unwrap_or_else(|e| panic!("{name}: warm core report failed: {e}"));
    let cold_report = cold
        .core_report(b.entry, b.entry_specs)
        .unwrap_or_else(|e| panic!("{name}: cold core report failed: {e}"));
    assert_eq!(warm_report, cold_report, "{name}: rendered reports diverge");
}

#[test]
fn whitespace_only_edit_invalidates_nothing_on_any_benchmark() {
    for b in bench_suite::all() {
        let mut ws = warm_workspace(&b);
        let before = ws.memo_len() as u64;
        assert!(before > 0, "{}: analysis populated the table", b.name);
        let reformatted = format!("\n{}\n\n", b.source);
        let stats = ws
            .update_source(&reformatted)
            .unwrap_or_else(|e| panic!("{}: no-op update failed: {e}", b.name));
        assert_eq!(
            stats,
            InvalidationStats {
                entries_before: before,
                entries_kept: before,
                ..InvalidationStats::default()
            },
            "{}: a whitespace-only edit must keep every entry untouched",
            b.name
        );
        let warm = ws
            .analyze(b.entry, b.entry_specs)
            .unwrap_or_else(|e| panic!("{}: post-edit analysis failed: {e}", b.name));
        assert_eq!(warm.iterations, 0, "{}: still a warm hit", b.name);
    }
}

#[test]
fn duplicate_clause_edit_reconverges_on_every_benchmark() {
    // Duplicating the entry predicate's first clause is a real textual
    // change (non-empty clause diff) with identical semantics, so it
    // exercises the full migrate-and-repair path on all 11 benchmarks.
    for b in bench_suite::all() {
        let mut ws = warm_workspace(&b);
        let first_clause = {
            let program = ws.program();
            program
                .clauses
                .iter()
                .find(|c| {
                    let key = c.pred_key();
                    program.interner.resolve(key.name) == b.entry && key.arity == 0
                })
                .map(|c| prolog_syntax::pretty::clause_to_string(c, &program.interner))
                .unwrap_or_else(|| panic!("{}: entry predicate has a clause", b.name))
        };
        let stats = ws
            .apply_edit(&ProgramEdit::AddClause {
                clause: first_clause,
            })
            .unwrap_or_else(|e| panic!("{}: duplicate-clause edit failed: {e}", b.name));
        assert_partition(b.name, &stats);
        assert_eq!(stats.preds_changed, 1, "{}: only the entry changed", b.name);
        assert!(
            stats.entries_reset >= 1,
            "{}: the entry entry resets",
            b.name
        );
        assert_eq!(stats.entries_dropped, 0, "{}: nothing was removed", b.name);
        assert_matches_cold(b.name, &mut ws, &b);
    }
}

#[test]
fn leaf_edit_resets_only_its_cone() {
    // query.pl has two independent leaves under density/2: pop/2 and
    // area/2. Duplicating a pop/2 clause must reset pop's cone (pop,
    // density, query/1, the query/0 driver) and spare area/2 entirely.
    let b = bench_suite::by_name("query").expect("query benchmark exists");
    let mut ws = warm_workspace(&b);
    let stats = ws
        .apply_edit(&ProgramEdit::AddClause {
            clause: "pop(china, 8250).".to_owned(),
        })
        .expect("duplicate pop clause applies");
    assert_partition(b.name, &stats);
    // Observed tripwires: query's table holds 5 entries (query/0,
    // query/1, density/2, pop/2, area/2). The pop cone is everything
    // but area/2.
    assert_eq!(stats.preds_changed, 1, "only pop/2 changed");
    assert_eq!(stats.entries_before, 5);
    assert_eq!(stats.entries_kept, 1, "area/2 survives outside the cone");
    assert_eq!(
        stats.entries_reset, 4,
        "pop, density, query/1, query/0 reset"
    );
    assert_eq!(stats.entries_dropped, 0);
    assert_eq!(stats.frontier, 4);
    assert!(stats.refix_explorations > 0, "the repair run did real work");
    assert_matches_cold(b.name, &mut ws, &b);
}

#[test]
fn entry_edit_resets_only_the_entry() {
    // Nothing depends on the entry driver, so editing it invalidates
    // exactly one entry — the reverse-dependency direction in miniature.
    let b = bench_suite::by_name("query").expect("query benchmark exists");
    let mut ws = warm_workspace(&b);
    let stats = ws
        .apply_edit(&ProgramEdit::AddClause {
            clause: "query :- query(_).".to_owned(),
        })
        .expect("duplicate driver clause applies");
    assert_partition(b.name, &stats);
    assert_eq!(stats.preds_changed, 1, "only query/0 changed");
    assert_eq!(stats.entries_before, 5);
    assert_eq!(stats.entries_kept, 4, "everything below the entry survives");
    assert_eq!(stats.entries_reset, 1, "only the driver's entry resets");
    assert_eq!(stats.entries_dropped, 0);
    assert_eq!(stats.frontier, 1);
    assert_matches_cold(b.name, &mut ws, &b);
}

#[test]
fn bottom_edit_forces_a_full_refixpoint() {
    // nreverse is a straight chain (nreverse -> nrev -> concatenate):
    // editing the bottom leaf puts every entry in the cone, so the
    // repair is a full re-fixpoint seeded from an empty frontier table.
    let b = bench_suite::by_name("nreverse").expect("nreverse benchmark exists");
    let mut ws = warm_workspace(&b);
    let before = ws.memo_len() as u64;
    let stats = ws
        .apply_edit(&ProgramEdit::AddClause {
            clause: "concatenate([], L, L).".to_owned(),
        })
        .expect("duplicate concatenate clause applies");
    assert_partition(b.name, &stats);
    assert_eq!(stats.preds_changed, 1, "only concatenate/3 changed");
    assert_eq!(stats.entries_before, before);
    assert_eq!(stats.entries_kept, 0, "the whole chain is in the cone");
    assert_eq!(stats.entries_reset, before);
    assert_eq!(stats.frontier, before);
    assert!(stats.refix_explorations > 0);
    let warm = ws
        .analyze(b.entry, b.entry_specs)
        .expect("post-repair analysis");
    assert_eq!(warm.iterations, 0, "the repair already reconverged");
    assert_matches_cold(b.name, &mut ws, &b);
}

#[test]
fn replace_and_remove_clause_edits_reconverge() {
    let b = bench_suite::by_name("qsort").expect("qsort benchmark exists");
    let mut ws = warm_workspace(&b);
    let stats = ws
        .apply_edit(&ProgramEdit::ReplaceClause {
            pred: "partition".to_owned(),
            arity: 4,
            clause: 0,
            text: "partition([], _, [], []).".to_owned(),
        })
        .expect("replace partition base clause");
    // The replacement text is identical to the existing clause, so the
    // diff is empty: this is the no-op-edit fast path through the edit
    // (not source) API.
    assert_eq!(stats.entries_reset, 0, "identical replacement is a no-op");
    assert_eq!(stats.entries_kept, stats.entries_before);

    // Now a real removal: drop partition's third clause (the
    // no-cut backtracking arm). The program still compiles; partition's
    // cone must reset and the result must match a cold analysis.
    let stats = ws
        .apply_edit(&ProgramEdit::RemoveClause {
            pred: "partition".to_owned(),
            arity: 4,
            clause: 2,
        })
        .expect("remove partition clause");
    assert_partition(b.name, &stats);
    assert!(stats.entries_reset >= 1, "partition's cone resets");
    assert_matches_cold(b.name, &mut ws, &b);
}
