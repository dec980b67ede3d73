//! Ablation A: analysis time and precision versus the term-depth
//! restriction k (the paper fixes k = 4, following Taylor's analyzer).

use absdom::Pattern;
use awam_core::Analyzer;

fn main() {
    println!("Ablation A — term-depth restriction k (paper: k = 4)\n");
    println!(
        "{:<10} {:>3} {:>10} {:>8} {:>6} {:>8}",
        "Benchmark", "k", "time(us)", "Exec", "Iter", "entries"
    );
    println!("{}", "-".repeat(52));
    for b in bench_suite::all() {
        let program = b.parse().expect("parse");
        for k in [1, 2, 3, 4, 6, 8] {
            let analyzer = Analyzer::builder()
                .depth(k)
                .compile(&program)
                .expect("compile");
            let entry = Pattern::from_spec(b.entry_specs).expect("entry");
            let analysis = match analyzer.analyze(b.entry, &entry) {
                Ok(a) => a,
                Err(e) => {
                    println!("{:<10} {:>3} {e}", b.name, k);
                    continue;
                }
            };
            let entries: usize = analysis.predicates.iter().map(|p| p.entries.len()).sum();
            let us = awam_bench::time_us(
                || {
                    let _ = analyzer.analyze(b.entry, &entry).expect("analysis");
                },
                20,
            );
            println!(
                "{:<10} {:>3} {:>10.1} {:>8} {:>6} {:>8}",
                b.name, k, us, analysis.instructions_executed, analysis.iterations, entries
            );
        }
        println!();
    }
}
