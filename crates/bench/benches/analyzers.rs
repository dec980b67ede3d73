//! Benches: one group per Table 1 column, timed with the workspace's own
//! adaptive minimum-of-N timer (`awam_bench::time_us`) — the workspace
//! builds offline, so no criterion.
//!
//! `analysis_compiled/*` — the abstract WAM (the paper's contribution);
//! `analysis_native/*` — the native meta-interpreting baseline;
//! `analysis_hosted/*` — the Prolog-hosted analyzer on the concrete WAM;
//! `concrete_execution/*` — plain execution of the benchmarks;
//! `domain/*` — micro-benchmarks of the abstract-domain machinery.
//!
//! Run with `cargo bench --bench analyzers`.

use absdom::Pattern;
use awam_bench::time_us;
use awam_core::Analyzer;
use baseline::BaselineAnalyzer;
use std::hint::black_box;

const MIN_MS: u64 = 200;
const MIN_MS_SLOW: u64 = 50;

fn report(group: &str, name: &str, us: f64) {
    println!("{group}/{name:<24} {us:>12.2} us");
}

fn analysis_compiled() {
    for b in bench_suite::all() {
        let program = b.parse().unwrap();
        let analyzer = Analyzer::compile(&program).unwrap();
        let entry = Pattern::from_spec(b.entry_specs).unwrap();
        let us = time_us(
            || {
                black_box(analyzer.analyze(b.entry, &entry).unwrap());
            },
            MIN_MS,
        );
        report("analysis_compiled", b.name, us);
    }
}

fn analysis_native() {
    for b in bench_suite::all() {
        let program = b.parse().unwrap();
        let mut analyzer = BaselineAnalyzer::new(&program).unwrap();
        let entry = Pattern::from_spec(b.entry_specs).unwrap();
        let us = time_us(
            || {
                black_box(analyzer.analyze(b.entry, &entry).unwrap());
            },
            MIN_MS,
        );
        report("analysis_native", b.name, us);
    }
}

fn analysis_hosted() {
    for b in bench_suite::all() {
        let program = b.parse().unwrap();
        let hosted = hosted::HostedAnalyzer::build(&program, b.entry, b.entry_specs).unwrap();
        let us = time_us(
            || {
                black_box(hosted.run().unwrap());
            },
            MIN_MS_SLOW,
        );
        report("analysis_hosted", b.name, us);
    }
}

fn concrete_execution() {
    for b in bench_suite::all() {
        // tak(18,12,6) runs 1.4M instructions; keep it but with few samples.
        let program = b.parse().unwrap();
        let compiled = wam::compile_program(&program).unwrap();
        let us = time_us(
            || {
                let mut machine = wam_machine::Machine::new(&compiled);
                machine.set_max_steps(2_000_000_000);
                black_box(machine.query_str(b.entry).unwrap());
            },
            MIN_MS_SLOW,
        );
        report("concrete_execution", b.name, us);
    }
}

fn domain_micro() {
    let p = Pattern::from_spec(&["glist", "list(any)", "var", "g"]).unwrap();
    let q = Pattern::from_spec(&["list(int)", "glist", "g", "nv"]).unwrap();
    report(
        "domain",
        "pattern_lub",
        time_us(
            || {
                black_box(p.lub(&q));
            },
            MIN_MS,
        ),
    );
    report(
        "domain",
        "pattern_eq",
        time_us(
            || {
                black_box(p == q);
            },
            MIN_MS,
        ),
    );
    let mut heap = Vec::new();
    let cells = awam_core::extract::materialize(&mut heap, &p);
    report(
        "domain",
        "extract",
        time_us(
            || {
                black_box(awam_core::extract::extract(&heap, &cells, 4));
            },
            MIN_MS,
        ),
    );
}

fn main() {
    analysis_compiled();
    analysis_native();
    analysis_hosted();
    concrete_execution();
    domain_micro();
}
