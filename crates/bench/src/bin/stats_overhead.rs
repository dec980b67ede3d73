//! Guard that self-profiling (the span tree with its layer leaves, the
//! per-predicate times and the metrics registry) stays cheap: analyze
//! the whole Table 1 suite with profiling off and with profiling on in
//! adjacent passes, and fail when the median profiled/plain ratio over
//! the pairs exceeds the threshold.
//!
//! The host's speed drifts over seconds, so each ratio compares two
//! passes run back to back, and the arm that runs first alternates from
//! pair to pair: a pass that gains or loses from running second would
//! otherwise read as overhead, or hide it. The gate is the median of at
//! least 41 ratios; a best-of-N statistic can only ever read low, so it
//! passes whatever the overhead. Interleaved with the measured pairs,
//! plain/plain control pairs run with the same alternation; their median
//! (the A/A line) reads 1.00 when the method is unbiased on the host.
//!
//! ```sh
//! cargo run -p awam-bench --release --bin stats_overhead [--pct N] [--reps N]
//! AWAM_OVERHEAD_PCT=10 cargo run -p awam-bench --release --bin stats_overhead
//! ```
//!
//! `--reps` is the number of pairs of each kind (at least 41). Exits 1 on
//! breach, so CI can use it directly.

use awam_core::AnalyzerBuilder;

/// Fewest pairs the gate takes a median over.
const MIN_PAIRS: usize = 41;

/// One timed pass over the whole suite; returns total nanoseconds.
fn suite_pass(profiling: bool) -> u64 {
    let start = std::time::Instant::now();
    for b in bench_suite::all() {
        let program = b.parse().expect("suite program parses");
        let analyzer = AnalyzerBuilder::new()
            .profiling(profiling)
            .compile(&program)
            .expect("suite program compiles");
        let analysis = analyzer
            .analyze_query(b.entry, b.entry_specs)
            .expect("suite program analyzes");
        // Keep the result alive so the work is not optimized away.
        assert!(!analysis.predicates.is_empty());
        if profiling {
            assert!(analysis.profile.is_some());
        }
    }
    start.elapsed().as_nanos() as u64
}

/// The time of a pass with `profiling` over that of a plain pass run
/// back to back with it, the plain pass first when `plain_first`.
fn pair_ratio(plain_first: bool, profiling: bool) -> f64 {
    let (plain, other) = if plain_first {
        let plain = suite_pass(false);
        (plain, suite_pass(profiling))
    } else {
        let other = suite_pass(profiling);
        (suite_pass(false), other)
    };
    other as f64 / plain as f64
}

/// `(first quartile, median, third quartile)` of `ratios`, by nearest
/// rank (the lower median for an even count).
fn quartiles(ratios: &mut [f64]) -> (f64, f64, f64) {
    ratios.sort_by(f64::total_cmp);
    let at = |quarter: usize| ratios[(ratios.len() - 1) * quarter / 4];
    (at(1), at(2), at(3))
}

fn arg_after(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let pct: f64 = arg_after("--pct")
        .or_else(|| std::env::var("AWAM_OVERHEAD_PCT").ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let pairs: usize = arg_after("--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(MIN_PAIRS)
        .max(MIN_PAIRS);

    // Warm up caches, the allocator, and the TSC calibration before
    // timing anything.
    suite_pass(false);
    suite_pass(true);

    let mut overhead = Vec::with_capacity(pairs);
    let mut control = Vec::with_capacity(pairs);
    for i in 0..pairs {
        overhead.push(pair_ratio(i % 2 == 0, true));
        control.push(pair_ratio(i % 2 == 0, false));
    }

    let (q1, median, q3) = quartiles(&mut overhead);
    let (c1, control_median, c3) = quartiles(&mut control);
    let overhead_pct = (median - 1.0) * 100.0;
    println!(
        "stats overhead: median profiled/plain {median:.3} (quartiles {q1:.3}-{q3:.3}) over {pairs} alternating pairs, overhead {overhead_pct:+.2}% (threshold {pct}%)"
    );
    println!(
        "A/A control: median plain/plain {control_median:.3} (quartiles {c1:.3}-{c3:.3}) over {pairs} pairs"
    );
    if overhead_pct > pct {
        eprintln!("stats_overhead: instrumentation overhead {overhead_pct:.2}% exceeds {pct}%");
        std::process::exit(1);
    }
}
