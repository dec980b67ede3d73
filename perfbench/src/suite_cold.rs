//! `suite_cold`: what `awam analyze FILE GOAL SPECS` does, op after op,
//! over the 11 Table 1 programs in Table 1 order.
//!
//! Every op starts from source: parse, compile, build (fuse and seed the
//! interner), fixpoint, report. This is the paper's path and the whole
//! cost a CLI user pays; the fixpoint does most of the work and `serve`
//! none.

use crate::trace::{span, Layer, Tracer};
use crate::{digest, inject, median, ns_since, Config, Inject, Metric, Outcome};
use crate::{peak_rss_kb, peak_rss_metric, reset_peak_rss, Recorder, SAMPLE_CAPACITY};
use absdom::Pattern;
use awam_core::{Analysis, AnalyzerBuilder};
use baseline::BaselineAnalyzer;
use bench_suite::Benchmark;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Fresh processes per run, spread over the timed phase, that each run
/// one pass over the suite; the median of their spawn-to-exit times is
/// the workload's `setup_s` (see `cold_pass_main`).
const COLD_STARTS: usize = 11;

/// One op's outputs: the report and the counters behind it.
struct Done {
    report: String,
    analysis: Analysis,
    code_size: usize,
}

/// One `awam analyze` op, with a span around each layer call when
/// tracing.
fn op(b: &Benchmark, tracer: &mut Option<Tracer>, inject_ns: u64) -> Result<Done, String> {
    let program = span(tracer, Layer::Parse, || {
        prolog_syntax::parse_program(b.source)
    })
    .map_err(|e| format!("{}: {e}", b.name))?;
    let compiled = span(tracer, Layer::Compile, || wam::compile_program(&program))
        .map_err(|e| format!("{}: {e}", b.name))?;
    let analyzer = span(tracer, Layer::Build, || {
        AnalyzerBuilder::default().build(compiled)
    });
    let entry = Pattern::from_spec(b.entry_specs).ok_or("bad entry spec")?;
    let analysis = span(tracer, Layer::Fixpoint, || {
        analyzer.analyze(b.entry, &entry)
    })
    .map_err(|e| format!("{}: {e}", b.name))?;
    inject(inject_ns);
    let report = span(tracer, Layer::Report, || analysis.report(&analyzer));
    Ok(Done {
        report,
        analysis,
        code_size: analyzer.program().code_size(),
    })
}

/// The seeded op order: Table 1 order, starting where the seed says.
fn script(seed: u64, suite: &[Benchmark]) -> Vec<&Benchmark> {
    let offset = (seed % suite.len() as u64) as usize;
    (0..suite.len())
        .map(|k| &suite[(offset + k) % suite.len()])
        .collect()
}

/// `perfbench cold-pass SEED`: one pass over the suite in a fresh
/// process. `suite_cold` has no set-up of its own, since every op starts
/// from source; what a process pays once, on top of the work, shows in
/// this spawn-to-exit time, so it stands in for set-up.
pub fn cold_pass_main(seed: u64) -> ExitCode {
    let suite = bench_suite::all();
    for b in script(seed, &suite) {
        if op(b, &mut None, 0).is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Spawn-to-exit seconds of one `cold-pass` child.
fn cold_start(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let status = Command::new(exe)
        .args(["cold-pass", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning a cold pass: {e}"))?;
    if !status.success() {
        return Err(format!("cold pass exited with {status}"));
    }
    Ok(start.elapsed().as_secs_f64())
}

/// The independent check of `tests/agreement.rs`: the native
/// meta-interpreting baseline must reach the same extension table.
fn agrees_with_baseline(b: &Benchmark, analysis: &Analysis) -> Result<(), String> {
    let program = b.parse().map_err(|e| e.to_string())?;
    let native = BaselineAnalyzer::new(&program)
        .map_err(|e| e.to_string())?
        .analyze_query(b.entry, b.entry_specs)
        .map_err(|e| e.to_string())?;
    let names = |v: Vec<&str>| v.join(",");
    if names(
        analysis
            .predicates
            .iter()
            .map(|p| p.name.as_str())
            .collect(),
    ) != names(native.predicates.iter().map(|p| p.name.as_str()).collect())
    {
        return Err(format!(
            "{}: analyzed predicates differ from baseline",
            b.name
        ));
    }
    for (pa, pn) in analysis.predicates.iter().zip(&native.predicates) {
        let mut ea = pa.entries.clone();
        let mut en = pn.entries.clone();
        ea.sort_by_key(|(c, _)| format!("{c:?}"));
        en.sort_by_key(|(c, _)| format!("{c:?}"));
        if ea != en {
            return Err(format!(
                "{}: extension table of {} differs from baseline",
                b.name, pa.name
            ));
        }
    }
    Ok(())
}

/// Per-cycle counts from the public stats structs (exact and seed
/// independent: one cycle analyzes each program once).
fn counts(done: &[Done]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Done) -> u64| done.iter().map(f).sum::<u64>();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let lookups = sum(&|d| d.analysis.table_stats.lookups);
    let intern = |d: &Done| d.analysis.intern_stats;
    vec![
        Metric::new(
            "core.iterations",
            sum(&|d| d.analysis.iterations) as f64,
            "count",
        ),
        Metric::new(
            "exec.instructions",
            sum(&|d| d.analysis.instructions_executed) as f64,
            "count",
        ),
        Metric::new("core.et_lookups", lookups as f64, "count"),
        Metric::new(
            "core.et_hit_ratio",
            ratio(sum(&|d| d.analysis.table_stats.hits), lookups),
            "ratio",
        ),
        Metric::new(
            "core.et_lub_widenings",
            sum(&|d| d.analysis.table_stats.lub_widenings) as f64,
            "count",
        ),
        Metric::new(
            "exec.heap_high_water",
            done.iter()
                .map(|d| d.analysis.machine_stats.heap_high_water)
                .max()
                .unwrap_or(0) as f64,
            "cells",
        ),
        Metric::new(
            "absdom.intern_hit_ratio",
            ratio(
                sum(&|d| intern(d).intern_hits),
                sum(&|d| intern(d).intern_hits + intern(d).intern_misses),
            ),
            "ratio",
        ),
        Metric::new(
            "absdom.lub_cache_hit_ratio",
            ratio(
                sum(&|d| intern(d).lub_cache_hits),
                sum(&|d| intern(d).lub_calls),
            ),
            "ratio",
        ),
        Metric::new(
            "absdom.leq_cache_hit_ratio",
            ratio(
                sum(&|d| intern(d).leq_cache_hits),
                sum(&|d| intern(d).leq_calls),
            ),
            "ratio",
        ),
        Metric::new(
            "wam.code_size",
            sum(&|d| d.code_size as u64) as f64,
            "instrs",
        ),
    ]
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let suite = bench_suite::all();
    let order = script(config.seed, &suite);
    let mut failed = 0u64;

    // Reference pass, untimed: each program's table must equal the
    // baseline's; its report digest is what every timed op must match.
    let mut reference = Vec::with_capacity(order.len());
    for b in &order {
        let done = op(b, &mut None, 0)?;
        if let Err(e) = agrees_with_baseline(b, &done.analysis) {
            eprintln!("suite_cold: {e}");
            failed += 1;
        }
        reference.push(done);
    }
    let expected: Vec<u64> = reference
        .iter()
        .map(|d| digest(d.report.as_bytes()))
        .collect();

    // Timed phase: whole passes until the time is up. A traced run
    // alternates traced and plain passes, so the plain ones measure the
    // tracing overhead under the same host conditions. An untraced run
    // times its cold starts between passes, outside the ops' clock. The
    // baseline pass above may have set the peak resident set; it is
    // reset once the phase's buffers are in place.
    let mut setup = Vec::with_capacity(COLD_STARTS);
    let mut tracer = config.trace.then(Tracer::new);
    let mut plain: Option<Tracer> = None;
    let mut recorder = Recorder::fixed(SAMPLE_CAPACITY, config.seconds);
    let mut clock = 0u64;
    let mut plain_ns = (0u64, 0u64);
    reset_peak_rss()?;
    let start = Instant::now();
    recorder.start();
    'timed: for pass in 0.. {
        let traced = config.trace && pass % 2 == 0;
        for (b, want) in order.iter().zip(&expected) {
            let t = if traced { &mut tracer } else { &mut plain };
            let op_start = Instant::now();
            if let Some(t) = t.as_mut() {
                t.open(Layer::Op);
            }
            let result = op(b, t, config.inject_ns(Inject::Fixpoint));
            if let Some(t) = t.as_mut() {
                t.close();
            }
            let ns = ns_since(op_start);
            clock += ns;
            let room = recorder.record(ns);
            if !traced {
                plain_ns = (plain_ns.0 + ns, plain_ns.1 + 1);
            }
            match result {
                Ok(done) if digest(done.report.as_bytes()) == *want => {}
                Ok(_) => {
                    eprintln!(
                        "suite_cold: {} report differs from the verified run",
                        b.name
                    );
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("suite_cold: {e}");
                    failed += 1;
                }
            }
            if !room {
                break 'timed;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let due = (setup.len() as f64 + 0.5) * config.seconds / COLD_STARTS as f64;
        if !config.trace && setup.len() < COLD_STARTS && elapsed >= due {
            setup.push(cold_start(config.seed)?);
        }
        if elapsed >= config.seconds {
            break;
        }
    }
    let peak_kb = peak_rss_kb(None)?;
    while !config.trace && setup.len() < COLD_STARTS {
        setup.push(cold_start(config.seed)?);
    }
    let attempted = recorder.ops();

    let mut detail = vec![
        ("workload", "\"suite_cold\"".to_owned()),
        (
            "script",
            format!(
                "[{}]",
                order
                    .iter()
                    .map(|b| format!("\"{}\"", b.name))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
        ("ops", attempted.to_string()),
    ];
    let metrics = if let Some(tracer) = tracer {
        detail.push(("programs", program_rows(&reference)));
        crate::write_trace(config, &tracer)?;
        let traced_mean = tracer.op_mean_us();
        let plain_mean = plain_ns.0 as f64 / plain_ns.1.max(1) as f64 / 1e3;
        let mut metrics = tracer.self_time_metrics();
        metrics.extend(counts(&reference));
        metrics.push(Metric::new(
            "trace.overhead_ratio",
            traced_mean / plain_mean,
            "ratio",
        ));
        metrics
    } else {
        let mut metrics = recorder.metrics(clock, &mut detail);
        metrics.push(peak_rss_metric(peak_kb));
        metrics.push(Metric::new("setup_s", median(setup), "s"));
        metrics
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// Per-program counter rows (Table 1's Size and Exec columns) for the
/// detail line.
fn program_rows(reference: &[Done]) -> String {
    let rows: Vec<String> = reference
        .iter()
        .map(|d| {
            format!(
                "{{\"iterations\":{},\"exec\":{},\"code_size\":{},\"report_bytes\":{}}}",
                d.analysis.iterations,
                d.analysis.instructions_executed,
                d.code_size,
                d.report.len()
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}
