//! Byte-for-byte goldens of the analyzer's text outputs, committed under
//! `tests/golden/`:
//!
//! * the report of every Table 1 program under both iteration
//!   strategies;
//! * `core_dump` / `core_report` (plus the invalidation counters) of the
//!   four incremental benchmarks after the leaf-clause duplicate that
//!   `BENCH_incremental.json` measures, and again after its undo;
//! * `Pattern::display` (and the interner-free `Display`) of 2,000
//!   seeded random patterns with aliased nodes (`#n=` marks).
//!
//! Every other output check compares two runs of the same build; these
//! files pin the text itself, so a rewrite of the renderers, the program
//! diff or the table migration must reproduce it exactly.

use absdom::{PNode, Pattern};
use awam_core::{Analyzer, IterationStrategy, ProgramEdit, Workspace};
use awam_testkit::{random_pattern_n, Rng};
use prolog_syntax::{parse_program, pretty, Interner};
use std::fmt::Write;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Compare `actual` with the committed golden file `name`, reporting the
/// first differing line.
fn check(name: &str, actual: &str) {
    let path = format!("{GOLDEN_DIR}/{name}");
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if expected == actual {
        return;
    }
    let (want, got): (Vec<&str>, Vec<&str>) =
        (expected.lines().collect(), actual.lines().collect());
    let at = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(0);
    panic!(
        "{name} differs at line {}:\n  golden: {:?}\n  actual: {:?}",
        at + 1,
        want.get(at),
        got.get(at)
    );
}

fn reports(strategy: IterationStrategy) -> String {
    let mut out = String::new();
    for b in bench_suite::all() {
        let program = b.parse().expect("benchmark parses");
        let analyzer = Analyzer::builder()
            .strategy(strategy)
            .compile(&program)
            .expect("benchmark compiles");
        let entry = Pattern::from_spec(b.entry_specs).expect("entry spec");
        let analysis = analyzer.analyze(b.entry, &entry).expect("analysis");
        writeln!(out, "== {} ==", b.name).unwrap();
        out.push_str(&analysis.report(&analyzer));
    }
    out
}

#[test]
fn reports_under_global_restart_match_golden() {
    check(
        "reports_global_restart.txt",
        &reports(IterationStrategy::GlobalRestart),
    );
}

#[test]
fn reports_under_dependency_match_golden() {
    check(
        "reports_dependency.txt",
        &reports(IterationStrategy::Dependency),
    );
}

/// `BENCH_incremental.json`'s programs, each with the leaf predicate
/// whose first clause is duplicated.
const INCREMENTAL: [(&str, &str, usize); 4] = [
    ("zebra", "right_of", 3),
    ("serialise", "pairlists", 3),
    ("queens_8", "range", 3),
    ("query", "pop", 2),
];

#[test]
fn incremental_edit_and_undo_match_golden() {
    let mut out = String::new();
    for (name, leaf, arity) in INCREMENTAL {
        let b = bench_suite::by_name(name).expect("benchmark exists");
        let program = parse_program(b.source).expect("benchmark parses");
        let first = program
            .clauses
            .iter()
            .find(|c| {
                let key = c.pred_key();
                key.arity == arity && program.interner.resolve(key.name) == leaf
            })
            .expect("leaf clause");
        let edit = ProgramEdit::AddClause {
            clause: pretty::clause_to_string(first, &program.interner),
        };
        let mut ws = Workspace::from_source(b.source).expect("workspace");
        ws.analyze(b.entry, b.entry_specs).expect("analysis");
        let steps = [
            ("edit", edit.apply(&program).expect("edit applies")),
            ("undo", b.source.to_owned()),
        ];
        for (step, source) in steps {
            let stats = ws.update_source(&source).expect("update");
            writeln!(out, "== {name} {step} ==\n{stats:?}").unwrap();
            out.push_str(&ws.core_dump(b.entry, b.entry_specs).expect("core dump"));
            out.push_str("--\n");
            out.push_str(&ws.core_report(b.entry, b.entry_specs).expect("core report"));
        }
    }
    check("incremental.txt", &out);
}

/// A random pattern with aliasing: a testkit pattern whose edges are
/// partly redirected to later nodes (so the graph stays acyclic), with
/// some leaves turned into named atoms and some binary structures into
/// list cells, then canonicalized.
fn aliased_pattern(rng: &mut Rng, interner: &mut Interner) -> Pattern {
    let arity = 1 + rng.below(3) as usize;
    let p = random_pattern_n(rng, arity, 3, interner);
    let n = p.nodes().len();
    let atoms = [interner.intern("g"), interner.intern("a"), interner.dot()];
    let mut graph = p.clone().into_builder();
    for (i, &node) in p.nodes().iter().enumerate() {
        match node {
            PNode::Struct(_, span) => {
                if span.len() == 2 && rng.below(3) == 0 {
                    graph.set(i, PNode::Struct(atoms[2], span));
                }
                for k in 0..span.len() {
                    if i + 1 < n && rng.below(3) == 0 {
                        graph.set_arg(span, k, i + 1 + rng.below((n - i - 1) as u64) as usize);
                    }
                }
            }
            PNode::List(_) if i + 1 < n && rng.below(3) == 0 => {
                graph.set(
                    i,
                    PNode::List(i + 1 + rng.below((n - i - 1) as u64) as usize),
                );
            }
            PNode::Leaf(_) if rng.below(8) == 0 => {
                graph.set(i, PNode::Atom(atoms[rng.below(2) as usize]));
            }
            _ => {}
        }
    }
    for i in 0..arity {
        if rng.below(3) == 0 {
            graph.set_root(i, rng.below(n as u64) as usize);
        }
    }
    Pattern::new(graph)
}

#[test]
fn pattern_display_matches_golden() {
    let mut rng = Rng::new(20);
    let mut interner = Interner::new();
    let mut out = String::new();
    let mut aliased = 0;
    while aliased < 2_000 {
        let p = aliased_pattern(&mut rng, &mut interner);
        let text = p.display(&interner);
        if text.contains('#') {
            aliased += 1;
            writeln!(out, "{text}\t{p}").unwrap();
        }
    }
    check("pattern_display.txt", &out);
}
