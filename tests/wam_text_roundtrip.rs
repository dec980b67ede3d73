//! The `awam compile --emit` / `awam analyze-wam` workflow, end to end:
//! every benchmark's compiled code must survive the textual WAM format,
//! and analyzing the reloaded code must give exactly the same extension
//! table as analyzing the freshly compiled code.

use awam::analysis::Analyzer;
use awam::machine::Machine;
use awam::suite;
use awam::wam::text::{from_text, to_text};

#[test]
fn benchmarks_round_trip_through_the_text_format() {
    for b in suite::all() {
        let program = b.parse().expect("parse");
        let compiled = awam::wam::compile_program(&program).expect("compile");
        let text = to_text(&compiled);
        let reloaded = from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(compiled.code, reloaded.code, "{}", b.name);
        assert_eq!(compiled.pools, reloaded.pools, "{}", b.name);

        // Same analysis results from the reloaded code…
        let fresh = Analyzer::from_compiled(compiled);
        let loaded = Analyzer::from_compiled(reloaded.clone());
        let a = fresh
            .analyze_query(b.entry, b.entry_specs)
            .expect("fresh analysis");
        let l = loaded
            .analyze_query(b.entry, b.entry_specs)
            .expect("loaded analysis");
        assert_eq!(a.predicates.len(), l.predicates.len(), "{}", b.name);
        for (pa, pl) in a.predicates.iter().zip(&l.predicates) {
            assert_eq!(pa.entries, pl.entries, "{}: {}", b.name, pa.name);
        }

        // …and the reloaded code still *runs*.
        let mut machine = Machine::new(&reloaded);
        machine.set_max_steps(2_000_000_000);
        assert!(
            machine.query_str(b.entry).expect("runs").is_some(),
            "{}: reloaded code must execute",
            b.name
        );
    }
}
