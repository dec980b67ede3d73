//! The `awam` command-line tool: compile, run, and analyze Prolog
//! programs from the shell.
//!
//! ```text
//! awam compile FILE.pl [--emit F.wam]  print the WAM listing (or save it)
//! awam disasm FILE.pl|FILE.wam         print the shared code area both machines run
//! awam run FILE.pl 'GOAL' [-n N]       run a query, print up to N solutions
//! awam analyze FILE.pl PRED [SPECS]    dataflow analysis from an entry
//! awam analyze-wam FILE.wam PRED [SPECS]  analyze saved WAM code
//! awam batch FILE.pl GOAL... [--workers N]   parallel multi-entry analysis
//! awam batch --suite NAME... [--workers N]   parallel analysis of suite programs
//! awam bench NAME                      run one Table 1 benchmark
//! awam explain FILE.pl PRED[/ARITY] [--entry PRED[:SPEC,…]] [--json]
//!                                      print how the analysis derived PRED's summaries
//! awam profile FILE.pl PRED [SPECS] [--top N] [--metrics-json]
//!                                      self-profile one analysis run
//! awam watch FILE.pl PRED [SPECS] [--interval MS] [--max-updates N]
//!                                      re-analyze FILE incrementally on change
//! awam fuzz [--seed N] [--cases N] [--oracle NAME,...] [--no-minimize]
//!           [--fault NAME] [--json]  differential fuzzing campaign
//! awam serve [--addr HOST:PORT] [--cache-mb N] [--max-inflight N]
//!            [--default-budget N] [--max-budget N] [--pool N]
//!            [--shards N] [--workers N] [--pipeline-depth N]
//!                                      run the multi-tenant analysis daemon
//! awam loadgen [--addr HOST:PORT] [--programs N] [--clients N] [--queries N]
//!              [--tenants N] [--seed N] [--pipeline-depth N] [--out FILE]
//!                                      drive load at a daemon, write BENCH_serve.json
//! ```
//!
//! A batch `GOAL` is `PRED` or `PRED:SPEC,SPEC,…` (e.g. `app:glist,glist,var`).
//!
//! Every machine-readable document any subcommand prints (`--stats-json`,
//! `--metrics-json`, `--json`, serve responses, the loadgen summary) is
//! wrapped in the workspace's versioned envelope:
//! `{"schema": "awam/v1", "kind": …, …payload…}`.
//!
//! Observability flags (on `run`, `analyze`, `analyze-wam` and `bench`):
//!
//! ```text
//! --stats          append a human-readable counter/timing table
//! --stats-json     emit the counters as one JSON document instead of a report
//! --trace FILE     stream machine events to FILE as JSON Lines
//! ```
//!
//! All commands exit non-zero on failure and report errors through the
//! unified [`awam::Error`] type — no panics on user input.

use awam::analysis::{Analysis, AnalyzerBuilder, BatchGoal, ProfileData};
use awam::machine::Machine;
use awam::obs::{envelope, envelope_obj, Json, JsonlTracer, SpanProfiler, Tracer};
use awam::syntax::parse_program;
use awam::wam::compile_program;
use awam::{Analyzer, Error};
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compile") => cmd_compile(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("analyze-wam") => cmd_analyze_wam(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  awam compile FILE.pl [--emit F.wam]\n  awam disasm FILE.pl|FILE.wam\n  \
                 awam run FILE.pl 'GOAL' [-n N]\n  \
                 awam analyze FILE.pl PRED [SPEC,SPEC,…]\n  awam analyze-wam FILE.wam PRED [SPEC,…]\n  \
                 awam batch FILE.pl GOAL… [--workers N] | awam batch --suite NAME… [--workers N]\n  \
                 awam bench NAME\n  \
                 awam explain FILE.pl PRED[/ARITY] [--entry PRED[:SPEC,…]] [--json]\n  \
                 awam profile FILE.pl PRED [SPEC,SPEC,…] [--top N] [--metrics-json]\n  \
                 awam watch FILE.pl PRED [SPEC,SPEC,…] [--interval MS] [--max-updates N]\n  \
                 awam fuzz [--seed N] [--cases N] [--oracle NAME,…] [--no-minimize] [--fault NAME] [--json]\n  \
                 awam serve [--addr HOST:PORT] [--cache-mb N] [--max-inflight N] [--default-budget N] [--max-budget N] [--pool N] [--shards N] [--workers N] [--pipeline-depth N]\n  \
                 awam loadgen [--addr HOST:PORT] [--programs N] [--clients N] [--queries N] [--tenants N] [--seed N] [--pipeline-depth N] [--out FILE]\n\
                 observability flags: --stats | --stats-json | --trace FILE"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stopped reading (`awam … | head`) is not a failure.
        Err(Error::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("awam: {e}");
            ExitCode::FAILURE
        }
    }
}

type CmdResult = Result<(), Error>;

/// The `--stats`/`--stats-json`/`--trace FILE` flag set shared by the
/// subcommands, split away from the positional arguments.
struct ObsFlags {
    stats: bool,
    stats_json: bool,
    trace: Option<String>,
}

fn split_flags(args: &[String]) -> Result<(Vec<String>, ObsFlags), Error> {
    let mut flags = ObsFlags {
        stats: false,
        stats_json: false,
        trace: None,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stats" => flags.stats = true,
            "--stats-json" => flags.stats_json = true,
            "--trace" => {
                let path = it.next().ok_or("--trace needs a file path")?;
                flags.trace = Some(path.clone());
            }
            other if other.starts_with("--") => {
                return Err(Error::Usage(format!("unknown flag {other}")));
            }
            _ => positional.push(a.clone()),
        }
    }
    Ok((positional, flags))
}

/// Open the `--trace` sink, if requested.
fn open_tracer(
    flags: &ObsFlags,
) -> Result<Option<JsonlTracer<BufWriter<std::fs::File>>>, std::io::Error> {
    match &flags.trace {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            Ok(Some(JsonlTracer::new(BufWriter::new(file))))
        }
        None => Ok(None),
    }
}

fn load(path: &str) -> Result<awam::syntax::Program, Error> {
    let source = std::fs::read_to_string(path)?;
    Ok(parse_program(&source)?)
}

fn cmd_compile(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("compile: missing FILE.pl")?;
    let program = load(path)?;
    let compiled = compile_program(&program)?;
    let mut out = io::stdout().lock();
    if let Some(i) = args.iter().position(|a| a == "--emit") {
        let dest = args.get(i + 1).ok_or("compile: --emit needs a path")?;
        std::fs::write(dest, awam::wam::text::to_text(&compiled))?;
        writeln!(
            out,
            "wrote {} instructions ({} predicates) to {dest}",
            compiled.code_size(),
            compiled.predicates.len()
        )?;
        return Ok(());
    }
    writeln!(
        out,
        "% {} predicates, {} instructions",
        compiled.predicates.len(),
        compiled.code_size()
    )?;
    writeln!(out, "{}", compiled.listing())?;
    Ok(())
}

/// Disassemble a program to the human-readable WAM assembly listing: the
/// one code area that both the concrete machine and the abstract analyzer
/// execute (via `awam-exec`). Accepts Prolog source or saved `.wam` text.
fn cmd_disasm(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("disasm: missing FILE.pl or FILE.wam")?;
    let compiled = if path.ends_with(".wam") {
        awam::wam::text::from_text(&std::fs::read_to_string(path)?)?
    } else {
        compile_program(&load(path)?)?
    };
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "% {} predicates, {} instructions",
        compiled.predicates.len(),
        compiled.code_size()
    )?;
    writeln!(out, "{}", compiled.listing())?;
    Ok(())
}

/// The analyzer configuration for the analysis subcommands: paper
/// defaults, with per-predicate profiling switched on when the caller
/// asked to see the numbers.
fn analyzer_builder(flags: &ObsFlags) -> AnalyzerBuilder {
    AnalyzerBuilder::new().profiling(flags.stats || flags.stats_json)
}

/// The pipeline phases the CLI records as root spans, in the order the
/// `phases` JSON object and the `--stats` lines list them.
const PHASES: [&str; 5] = ["parse", "compile", "analyze", "execute", "report"];

/// The `phases` JSON object: `{"parse_ns": …, "compile_ns": …, …}`.
fn phases_json(phases: &SpanProfiler) -> Json {
    Json::Obj(
        PHASES
            .iter()
            .map(|p| (format!("{p}_ns"), Json::Int(phases.phase_ns(p) as i64)))
            .collect(),
    )
}

/// The `--stats` lines of the phases that ran.
fn render_phases(phases: &SpanProfiler) -> String {
    PHASES
        .iter()
        .map(|p| (p, phases.phase_ns(p) as f64 / 1000.0))
        .filter(|&(_, us)| us > 0.0)
        .map(|(p, us)| format!("phase {p:<8} {us:>10.1} us\n"))
        .collect()
}

/// Shared tail of `analyze`/`analyze-wam`/`bench`: run the analysis with
/// the requested instrumentation and render either the report or the
/// stats document.
fn run_analysis(
    analyzer: &Analyzer,
    pred: &str,
    specs: &[&str],
    flags: &ObsFlags,
    mut phases: SpanProfiler,
) -> CmdResult {
    let entry = awam::absdom::Pattern::from_spec(specs)
        .ok_or_else(|| Error::Usage(format!("bad entry specs: {}", specs.join(","))))?;
    let analysis = phases.time("analyze", || -> Result<Analysis, Error> {
        Ok(match open_tracer(flags)? {
            Some(mut tracer) => {
                let analysis = analyzer.analyze_traced(pred, &entry, &mut tracer)?;
                tracer.into_inner()?; // flush
                analysis
            }
            None => analyzer.analyze(pred, &entry)?,
        })
    })?;
    let report = phases.time("report", || analysis.report(analyzer));

    let mut out = io::stdout().lock();
    if flags.stats_json {
        writeln!(
            out,
            "{}",
            envelope_obj("stats", stats_doc(&analysis, &phases)).emit_pretty()
        )?;
        return Ok(());
    }
    write!(out, "{report}")?;
    if flags.stats {
        write!(out, "{}", render_stats(&analysis, &phases))?;
    }
    Ok(())
}

/// The `--stats-json` document: analysis counters plus the CLI's phase
/// timings.
fn stats_doc(analysis: &Analysis, phases: &SpanProfiler) -> Json {
    let Json::Obj(mut pairs) = analysis.stats_json() else {
        unreachable!("stats_json always returns an object");
    };
    pairs.push(("phases".to_owned(), phases_json(phases)));
    Json::Obj(pairs)
}

/// The `--stats` human-readable table.
fn render_stats(analysis: &Analysis, phases: &SpanProfiler) -> String {
    let mut out = String::new();
    out.push_str("\n--- stats ---\n");
    let m = &analysis.machine_stats;
    out.push_str(&format!(
        "machine: {} instructions, {} calls, {} backtracks, {} choice points\n",
        m.instructions, m.calls, m.backtracks, m.choice_points
    ));
    out.push_str(&format!(
        "high water: heap {}, trail {}\n",
        m.heap_high_water, m.trail_high_water
    ));
    let t = &analysis.table_stats;
    out.push_str(&format!(
        "extension table: hit rate {:.1}% over {} lookups\n",
        t.hit_rate() * 100.0,
        t.lookups
    ));
    let i = &analysis.intern_stats;
    out.push_str(&format!(
        "interner: {} patterns, dedup rate {:.1}%, lub cache {}/{}, leq cache {}/{}, ~{} bytes saved\n",
        i.intern_misses,
        i.hit_rate() * 100.0,
        i.lub_cache_hits,
        i.lub_calls,
        i.leq_cache_hits,
        i.leq_calls,
        i.bytes_saved
    ));
    out.push_str(&render_phases(phases));
    let pred_times = analysis
        .profile
        .as_ref()
        .map(ProfileData::pred_self_ns)
        .unwrap_or_default();
    if !pred_times.is_empty() {
        out.push_str("self-time by predicate:\n");
        for (name, ns) in pred_times.iter().take(10) {
            out.push_str(&format!(
                "  {:<20} {:>10.1} us\n",
                name,
                *ns as f64 / 1000.0
            ));
        }
    }
    out.push_str("opcode dispatches:\n");
    for (name, count) in analysis.opcodes.nonzero(&awam::wam::OPCODE_NAMES) {
        out.push_str(&format!("  {name:<20} {count:>10}\n"));
    }
    out
}

fn cmd_analyze_wam(args: &[String]) -> CmdResult {
    let (pos, flags) = split_flags(args)?;
    let path = pos.first().ok_or("analyze-wam: missing FILE.wam")?;
    let pred = pos.get(1).ok_or("analyze-wam: missing PRED")?;
    let specs: Vec<&str> = match pos.get(2) {
        Some(s) if !s.is_empty() => s.split(',').map(str::trim).collect(),
        _ => Vec::new(),
    };
    let mut phases = SpanProfiler::new();
    let compiled = phases.time("parse", || -> Result<_, Error> {
        let text = std::fs::read_to_string(path)?;
        Ok(awam::wam::text::from_text(&text)?)
    })?;
    let analyzer = analyzer_builder(&flags).build(compiled);
    run_analysis(&analyzer, pred, &specs, &flags, phases)
}

fn cmd_run(args: &[String]) -> CmdResult {
    let (pos, flags) = split_flags(args)?;
    let path = pos.first().ok_or("run: missing FILE.pl")?;
    let goal = pos.get(1).ok_or("run: missing 'GOAL'")?;
    let limit: usize = match pos.iter().position(|a| a == "-n") {
        Some(i) => pos
            .get(i + 1)
            .ok_or("run: -n needs a number")?
            .parse()
            .map_err(|_| "run: -n needs a number")?,
        None => 5,
    };
    let mut phases = SpanProfiler::new();
    let program = phases.time("parse", || load(path))?;
    let compiled = phases.time("compile", || compile_program(&program))?;

    let mut tracer = open_tracer(&flags)?;
    let mut machine = Machine::new(&compiled);
    if let Some(tracer) = tracer.as_mut() {
        machine.set_tracer(tracer as &mut dyn Tracer);
    }
    let solutions = phases.time("execute", || machine.solve_all(goal, limit))?;

    let mut out = io::stdout().lock();
    if flags.stats_json {
        let doc = Json::obj(vec![
            ("solutions", Json::Int(solutions.len() as i64)),
            ("machine", machine.machine_stats().to_json()),
            (
                "opcodes",
                machine.opcodes().to_json(&awam::wam::OPCODE_NAMES),
            ),
            ("phases", phases_json(&phases)),
        ]);
        drop(machine);
        if let Some(tracer) = tracer {
            tracer.into_inner()?;
        }
        writeln!(out, "{}", envelope_obj("run", doc).emit_pretty())?;
        return Ok(());
    }
    if solutions.is_empty() {
        writeln!(out, "false.")?;
    }
    for s in &solutions {
        if s.bindings.is_empty() {
            writeln!(out, "true.")?;
        } else {
            let bindings: Vec<String> = s
                .bindings
                .iter()
                .map(|(name, _, text)| format!("{name} = {text}"))
                .collect();
            writeln!(out, "{} ;", bindings.join(", "))?;
        }
    }
    if !machine.output.is_empty() {
        writeln!(out, "--- output ---\n{}", machine.output)?;
    }
    if flags.stats {
        let m = machine.machine_stats();
        writeln!(out, "\n--- stats ---")?;
        writeln!(
            out,
            "machine: {} instructions, {} calls, {} backtracks, {} choice points",
            m.instructions, m.calls, m.backtracks, m.choice_points
        )?;
        writeln!(
            out,
            "high water: heap {}, trail {}",
            m.heap_high_water, m.trail_high_water
        )?;
        write!(out, "{}", render_phases(&phases))?;
        writeln!(out, "opcode dispatches:")?;
        for (name, count) in machine.opcodes().nonzero(&awam::wam::OPCODE_NAMES) {
            writeln!(out, "  {name:<20} {count:>10}")?;
        }
    }
    drop(machine);
    if let Some(tracer) = tracer {
        tracer.into_inner()?;
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> CmdResult {
    let (pos, flags) = split_flags(args)?;
    let path = pos.first().ok_or("analyze: missing FILE.pl")?;
    let pred = pos.get(1).ok_or("analyze: missing PRED")?;
    let specs: Vec<&str> = match pos.get(2) {
        Some(s) if !s.is_empty() => s.split(',').map(str::trim).collect(),
        _ => Vec::new(),
    };
    let mut phases = SpanProfiler::new();
    let program = phases.time("parse", || load(path))?;
    let analyzer = phases.time("compile", || analyzer_builder(&flags).compile(&program))?;
    run_analysis(&analyzer, pred, &specs, &flags, phases)
}

/// Parse a batch goal: `PRED` or `PRED:SPEC,SPEC,…`.
fn parse_goal(text: &str) -> Result<BatchGoal, Error> {
    let (name, specs) = match text.split_once(':') {
        Some((name, specs)) if !specs.is_empty() => {
            (name, specs.split(',').map(str::trim).collect::<Vec<_>>())
        }
        Some((name, _)) => (name, Vec::new()),
        None => (text, Vec::new()),
    };
    if name.is_empty() {
        return Err(Error::Usage(format!("batch: empty predicate in `{text}`")));
    }
    Ok(BatchGoal::from_spec(name, &specs)?)
}

/// `awam batch`: fan independent analysis goals out across worker
/// threads — either several entry goals of one program, or the entry
/// goals of several Table 1 suite programs.
fn cmd_batch(args: &[String]) -> CmdResult {
    let mut workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut suite = false;
    let mut stats_json = false;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                workers = it
                    .next()
                    .ok_or("batch: --workers needs a number")?
                    .parse()
                    .map_err(|_| "batch: --workers needs a number")?;
                if workers == 0 {
                    return Err("batch: --workers must be at least 1".into());
                }
            }
            "--suite" => suite = true,
            "--stats-json" => stats_json = true,
            other if other.starts_with("--") => {
                return Err(Error::Usage(format!("batch: unknown flag {other}")));
            }
            _ => positional.push(a.clone()),
        }
    }

    if suite {
        return batch_suite(&positional, workers, stats_json);
    }
    let path = positional
        .first()
        .ok_or("batch: missing FILE.pl (or --suite NAME…)")?;
    let goal_args = &positional[1..];
    if goal_args.is_empty() {
        return Err("batch: missing GOAL (PRED or PRED:SPEC,SPEC,…)".into());
    }
    let goals: Vec<BatchGoal> = goal_args
        .iter()
        .map(|g| parse_goal(g))
        .collect::<Result<_, _>>()?;
    let program = load(path)?;
    let analyzer = Analyzer::compile(&program)?;

    let start = Instant::now();
    let results = analyzer.analyze_batch(&goals, workers);
    let batch_ns = start.elapsed().as_nanos() as u64;

    let mut out = io::stdout().lock();
    let mut docs = Vec::new();
    let mut failed = 0usize;
    for (goal, result) in goals.iter().zip(&results) {
        let label = goal.entry.display(analyzer.interner());
        match result {
            Ok(analysis) => {
                if stats_json {
                    let Json::Obj(mut pairs) = analysis.stats_json() else {
                        unreachable!("stats_json always returns an object");
                    };
                    pairs.insert(0, ("goal".to_owned(), Json::Str(goal.name.clone())));
                    pairs.insert(1, ("entry".to_owned(), Json::Str(label)));
                    docs.push(Json::Obj(pairs));
                } else {
                    writeln!(
                        out,
                        "{}{}: {} predicates, {} iterations, {} instructions",
                        goal.name,
                        label,
                        analysis.predicates.len(),
                        analysis.iterations,
                        analysis.instructions_executed
                    )?;
                }
            }
            Err(e) => {
                failed += 1;
                if !stats_json {
                    writeln!(out, "{}{}: error: {e}", goal.name, label)?;
                }
            }
        }
    }
    if stats_json {
        let doc = Json::obj(vec![
            ("goals", Json::Arr(docs)),
            ("workers", Json::Int(workers as i64)),
            ("failed", Json::Int(failed as i64)),
            ("batch_ns", Json::Int(batch_ns as i64)),
        ]);
        writeln!(out, "{}", envelope_obj("batch", doc).emit_pretty())?;
    } else {
        writeln!(
            out,
            "batch: {} goals on {} workers in {:.1} ms ({} failed)",
            goals.len(),
            workers,
            batch_ns as f64 / 1e6,
            failed
        )?;
    }
    if failed > 0 {
        return Err(Error::Usage(format!("batch: {failed} goal(s) failed")));
    }
    Ok(())
}

/// `awam batch --suite`: analyze the entry goals of the named Table 1
/// programs (all eleven when no name is given), one compiled analyzer
/// per program, fanned across workers.
fn batch_suite(names: &[String], workers: usize, stats_json: bool) -> CmdResult {
    let benches: Vec<awam::suite::Benchmark> = if names.is_empty() {
        awam::suite::all()
    } else {
        names
            .iter()
            .map(|name| {
                awam::suite::by_name(name)
                    .ok_or_else(|| Error::Usage(format!("batch: unknown benchmark {name}")))
            })
            .collect::<Result<_, _>>()?
    };

    let start = Instant::now();
    let results = awam::analysis::par_map(&benches, workers, |_, b| -> Result<Analysis, Error> {
        let program = b.parse()?;
        let analyzer = Analyzer::compile(&program)?;
        let mut session = analyzer.session();
        Ok(session.analyze_query(b.entry, b.entry_specs)?)
    });
    let batch_ns = start.elapsed().as_nanos() as u64;

    let mut out = io::stdout().lock();
    let mut docs = Vec::new();
    let mut failed = 0usize;
    for (b, result) in benches.iter().zip(&results) {
        match result {
            Ok(analysis) => {
                if stats_json {
                    let Json::Obj(mut pairs) = analysis.stats_json() else {
                        unreachable!("stats_json always returns an object");
                    };
                    pairs.insert(0, ("benchmark".to_owned(), Json::Str(b.name.to_owned())));
                    docs.push(Json::Obj(pairs));
                } else {
                    writeln!(
                        out,
                        "{}: {} predicates, {} iterations, {} instructions",
                        b.name,
                        analysis.predicates.len(),
                        analysis.iterations,
                        analysis.instructions_executed
                    )?;
                }
            }
            Err(e) => {
                failed += 1;
                if !stats_json {
                    writeln!(out, "{}: error: {e}", b.name)?;
                }
            }
        }
    }
    if stats_json {
        let doc = Json::obj(vec![
            ("benchmarks", Json::Arr(docs)),
            ("workers", Json::Int(workers as i64)),
            ("failed", Json::Int(failed as i64)),
            ("batch_ns", Json::Int(batch_ns as i64)),
        ]);
        writeln!(out, "{}", envelope_obj("batch", doc).emit_pretty())?;
    } else {
        writeln!(
            out,
            "batch: {} programs on {} workers in {:.1} ms ({} failed)",
            benches.len(),
            workers,
            batch_ns as f64 / 1e6,
            failed
        )?;
    }
    if failed > 0 {
        return Err(Error::Usage(format!("batch: {failed} program(s) failed")));
    }
    Ok(())
}

/// Resolve `PRED` or `PRED/ARITY` against the compiled program. A bare
/// name resolves only when the program defines exactly one arity for it.
fn resolve_pred(analyzer: &Analyzer, target: &str) -> Result<(String, usize), Error> {
    if let Some((name, arity)) = target.rsplit_once('/') {
        if let Ok(arity) = arity.parse::<usize>() {
            return Ok((name.to_owned(), arity));
        }
    }
    let arities: Vec<usize> = analyzer
        .program()
        .predicates
        .iter()
        .filter_map(|p| {
            let key = p.key.display(analyzer.interner());
            let (name, arity) = key.rsplit_once('/')?;
            if name == target {
                arity.parse().ok()
            } else {
                None
            }
        })
        .collect();
    match arities.as_slice() {
        [arity] => Ok((target.to_owned(), *arity)),
        [] => Err(Error::Usage(format!("unknown predicate {target}"))),
        _ => Err(Error::Usage(format!(
            "ambiguous predicate {target}: say {target}/ARITY"
        ))),
    }
}

/// The default entry calling pattern: every argument unknown (`any`).
fn all_any_entry(arity: usize) -> Result<awam::absdom::Pattern, Error> {
    let specs = vec!["any"; arity];
    awam::absdom::Pattern::from_spec(&specs)
        .ok_or_else(|| Error::Usage(format!("no default entry pattern for arity {arity}")))
}

/// `awam explain`: analyze with provenance tracking on and print how the
/// fixpoint derived the named predicate's success summaries — which
/// clause and iteration created each extension-table entry, from which
/// parent call, and the ordered lub chain its summary folds from.
fn cmd_explain(args: &[String]) -> CmdResult {
    let mut json = false;
    let mut entry_goal: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--entry" => {
                let goal = it.next().ok_or("explain: --entry needs PRED[:SPEC,…]")?;
                entry_goal = Some(goal.clone());
            }
            other if other.starts_with("--") => {
                return Err(Error::Usage(format!("explain: unknown flag {other}")));
            }
            _ => positional.push(a.clone()),
        }
    }
    let path = positional.first().ok_or("explain: missing FILE.pl")?;
    let target = positional.get(1).ok_or("explain: missing PRED[/ARITY]")?;
    let program = load(path)?;
    let analyzer = AnalyzerBuilder::new().provenance(true).compile(&program)?;
    let (name, arity) = resolve_pred(&analyzer, target)?;

    let (entry_name, entry_pattern) = match &entry_goal {
        Some(text) => {
            let goal = parse_goal(text)?;
            if goal.entry.arity() == 0 {
                let (entry_name, entry_arity) = resolve_pred(&analyzer, &goal.name)?;
                (entry_name, all_any_entry(entry_arity)?)
            } else {
                (goal.name, goal.entry)
            }
        }
        None => (name.clone(), all_any_entry(arity)?),
    };

    let analysis = analyzer.analyze(&entry_name, &entry_pattern)?;
    let report = analysis
        .provenance
        .as_ref()
        .expect("provenance was enabled on the builder");
    let Some(pred) = report.predicate(&name, arity) else {
        return Err(Error::Usage(format!(
            "explain: {name}/{arity} was not reached from entry {entry_name}{}",
            entry_pattern.display(analyzer.interner())
        )));
    };
    let mut out = io::stdout().lock();
    if json {
        let single = awam::analysis::DerivationReport {
            predicates: vec![pred.clone()],
        };
        writeln!(
            out,
            "{}",
            envelope_obj("explain", single.to_json()).emit_pretty()
        )?;
    } else {
        writeln!(
            out,
            "entry {entry_name}{}",
            entry_pattern.display(analyzer.interner())
        )?;
        write!(out, "{}", pred.render())?;
    }
    Ok(())
}

/// `awam profile`: analyze with self-profiling on and print where the
/// run spent its time — hot predicates (self time and instruction heat),
/// hot opcodes, and the hierarchical span tree. `--metrics-json` emits
/// the run's counters, histograms and span tree as one JSON document.
fn cmd_profile(args: &[String]) -> CmdResult {
    let mut top = 10usize;
    let mut metrics_json = false;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                top = it
                    .next()
                    .ok_or("profile: --top needs a number")?
                    .parse()
                    .map_err(|_| "profile: --top needs a number")?;
            }
            "--metrics-json" => metrics_json = true,
            other if other.starts_with("--") => {
                return Err(Error::Usage(format!("profile: unknown flag {other}")));
            }
            _ => positional.push(a.clone()),
        }
    }
    let path = positional.first().ok_or("profile: missing FILE.pl")?;
    let target = positional.get(1).ok_or("profile: missing PRED")?;
    let program = load(path)?;
    let analyzer = AnalyzerBuilder::new().profiling(true).compile(&program)?;
    let (name, arity) = resolve_pred(&analyzer, target)?;
    let entry = match positional.get(2) {
        Some(s) if !s.is_empty() => {
            let specs: Vec<&str> = s.split(',').map(str::trim).collect();
            awam::absdom::Pattern::from_spec(&specs)
                .ok_or_else(|| Error::Usage(format!("bad entry specs: {s}")))?
        }
        _ => all_any_entry(arity)?,
    };

    let analysis = analyzer.analyze(&name, &entry)?;
    let mut out = io::stdout().lock();
    if metrics_json {
        let doc = analysis
            .profile_json(&analyzer)
            .expect("profiling was enabled on the builder");
        writeln!(out, "{}", doc.emit_pretty())?;
        return Ok(());
    }
    let profile = analysis
        .profile
        .as_ref()
        .expect("profiling was enabled on the builder");

    writeln!(
        out,
        "profile: {name}/{arity} entry {} — {} iterations, {} instructions, {:.2} ms",
        entry.display(analyzer.interner()),
        analysis.iterations,
        analysis.instructions_executed,
        analysis.analyze_ns as f64 / 1e6
    )?;
    let pred_times = profile.pred_self_ns();
    if !pred_times.is_empty() {
        let program = analyzer.program();
        let instrs: std::collections::HashMap<String, u64> = program
            .predicates
            .iter()
            .zip(&profile.pred_instructions)
            .map(|(p, &n)| (p.key.display(&program.interner), n))
            .collect();
        writeln!(out, "hot predicates (self time):")?;
        for (pred, ns) in pred_times.iter().take(top) {
            writeln!(
                out,
                "  {:<20} {:>10.1} us {:>10} instructions",
                pred,
                *ns as f64 / 1000.0,
                instrs.get(*pred).copied().unwrap_or(0)
            )?;
        }
    }
    let mut opcodes = analysis.opcodes.nonzero(&awam::wam::OPCODE_NAMES);
    opcodes.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    writeln!(out, "hot opcodes:")?;
    for (op, count) in opcodes.iter().take(top) {
        writeln!(out, "  {op:<20} {count:>10}")?;
    }
    writeln!(out, "spans:")?;
    for (depth, node) in profile.spans.walk() {
        writeln!(
            out,
            "  {:indent$}{:<24} {:>8} calls {:>12.1} us total {:>12.1} us self",
            "",
            node.name,
            node.calls,
            node.total_ns as f64 / 1000.0,
            node.self_ns() as f64 / 1000.0,
            indent = depth * 2
        )?;
    }
    Ok(())
}

/// Map an incremental-update failure onto the CLI's unified error.
fn update_error(e: awam::analysis::UpdateError) -> Error {
    use awam::analysis::UpdateError as U;
    match e {
        U::Parse(p) => Error::Parse(p),
        U::Compile(c) => Error::Compile(c),
        U::Analysis(a) => Error::Analysis(a),
        U::Edit(edit) => Error::Usage(edit.to_string()),
    }
}

/// `awam watch`: analyze FILE once, then poll it and re-analyze
/// incrementally on every change, printing what each edit invalidated.
/// A broken intermediate save (parse or compile error) is reported and
/// skipped — the last good analysis stays warm. `--max-updates N` exits
/// after N successful re-analyses (0 = analyze once and exit), which is
/// what scripted smoke tests use; without it the watch runs until ^C.
fn cmd_watch(args: &[String]) -> CmdResult {
    let mut interval_ms: u64 = 500;
    let mut max_updates: Option<u64> = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval" => {
                interval_ms = it
                    .next()
                    .ok_or("watch: --interval needs milliseconds")?
                    .parse()
                    .map_err(|_| Error::Usage("watch: --interval needs an integer".to_owned()))?;
            }
            "--max-updates" => {
                max_updates = Some(
                    it.next()
                        .ok_or("watch: --max-updates needs a count")?
                        .parse()
                        .map_err(|_| {
                            Error::Usage("watch: --max-updates needs an integer".to_owned())
                        })?,
                );
            }
            other if other.starts_with("--") => {
                return Err(Error::Usage(format!("unknown flag {other}")));
            }
            _ => positional.push(a.clone()),
        }
    }
    let path = positional.first().ok_or("watch: missing FILE.pl")?;
    let pred = positional.get(1).ok_or("watch: missing entry predicate")?;
    let specs: Vec<&str> = match positional.get(2).map(String::as_str) {
        Some(s) if !s.is_empty() => s.split(',').map(str::trim).collect(),
        _ => Vec::new(),
    };
    let source = std::fs::read_to_string(path)?;
    let mut ws = awam::analysis::Workspace::from_source(&source).map_err(update_error)?;
    let analysis = ws.analyze(pred, &specs)?;
    let mut out = io::stdout().lock();
    writeln!(out, "{}", analysis.report(ws.analyzer()))?;
    writeln!(
        out,
        "watching {path} ({} entries memoized, polling every {interval_ms}ms)",
        ws.memo_len()
    )?;
    let mut updates = 0u64;
    while max_updates.is_none_or(|m| updates < m) {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        let new_source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("watch: {path}: {e}");
                continue;
            }
        };
        if new_source == ws.source() {
            continue;
        }
        match ws.update_source(&new_source) {
            Ok(stats) => {
                updates += 1;
                writeln!(
                    out,
                    "-- update {updates}: {} predicate(s) changed, {} removed; \
                     entries kept {}/{}, reset {}, dropped {}; frontier {}, \
                     repair explorations {}",
                    stats.preds_changed,
                    stats.preds_removed,
                    stats.entries_kept,
                    stats.entries_before,
                    stats.entries_reset,
                    stats.entries_dropped,
                    stats.frontier,
                    stats.refix_explorations
                )?;
                match ws.analyze(pred, &specs) {
                    Ok(analysis) => writeln!(out, "{}", analysis.report(ws.analyzer()))?,
                    Err(e) => eprintln!("watch: analysis failed: {e}"),
                }
            }
            Err(e) => eprintln!("watch: {e} (keeping the last good analysis)"),
        }
    }
    Ok(())
}

/// `awam fuzz`: run a differential fuzzing campaign — generate random
/// well-formed programs and hold every one to the oracle matrix (see
/// `awam::testkit`). Long campaigns belong here, outside `cargo test`;
/// a failing case prints a minimal counterexample and a replay command.
fn cmd_fuzz(args: &[String]) -> CmdResult {
    use awam::testkit::{run_campaign, FuzzConfig, Oracle};

    let mut config = FuzzConfig::default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                config.seed = it
                    .next()
                    .ok_or("fuzz: --seed needs a number")?
                    .parse()
                    .map_err(|_| "fuzz: --seed needs a number")?;
            }
            "--cases" => {
                config.cases = it
                    .next()
                    .ok_or("fuzz: --cases needs a number")?
                    .parse()
                    .map_err(|_| "fuzz: --cases needs a number")?;
            }
            "--oracle" => {
                let names = it.next().ok_or("fuzz: --oracle needs a name")?;
                config.oracles = names
                    .split(',')
                    .map(|n| {
                        Oracle::from_name(n.trim()).ok_or_else(|| {
                            let all: Vec<&str> = Oracle::ALL.iter().map(|o| o.name()).collect();
                            Error::Usage(format!(
                                "fuzz: unknown oracle `{n}` (available: {})",
                                all.join(", ")
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--minimize" => config.minimize = true,
            "--no-minimize" => config.minimize = false,
            "--dump" => config.dump = true,
            "--fault" => {
                let name = it.next().ok_or("fuzz: --fault needs a name")?;
                // Validate eagerly so a typo is a usage error, not a
                // panic inside the campaign.
                awam::analysis::fault::enable(name).map_err(Error::Usage)?;
                config.fault = Some(name.clone());
            }
            "--json" => json = true,
            other => {
                return Err(Error::Usage(format!("fuzz: unknown flag {other}")));
            }
        }
    }

    let report = run_campaign(&config);
    let mut out = io::stdout().lock();
    match report.failure {
        None => {
            if json {
                let doc = awam::obs::Json::obj(vec![
                    ("seed", awam::obs::Json::Int(config.seed as i64)),
                    ("cases", awam::obs::Json::Int(report.cases_run as i64)),
                    ("checks", awam::obs::Json::Int(report.checks_run as i64)),
                    ("failed", awam::obs::Json::Bool(false)),
                ]);
                writeln!(out, "{}", envelope_obj("fuzz", doc).emit_pretty())?;
            } else {
                let oracles: Vec<&str> = config.oracles.iter().map(|o| o.name()).collect();
                writeln!(
                    out,
                    "fuzz: {} cases x {} oracles ({}) from seed {}: all passed ({} checks)",
                    report.cases_run,
                    config.oracles.len(),
                    oracles.join(","),
                    config.seed,
                    report.checks_run
                )?;
            }
            Ok(())
        }
        Some(failure) => {
            if json {
                writeln!(
                    out,
                    "{}",
                    envelope_obj("fuzz", failure.to_json()).emit_pretty()
                )?;
            } else {
                write!(out, "{}", failure.render())?;
            }
            Err(Error::Usage(format!(
                "fuzz: oracle `{}` failed on case {} after {} checks",
                failure.oracle, failure.case, report.checks_run
            )))
        }
    }
}

/// Parse a `--flag N` numeric argument.
fn num_flag<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, Error> {
    it.next()
        .ok_or_else(|| Error::Usage(format!("{flag} needs a number")))?
        .parse()
        .map_err(|_| Error::Usage(format!("{flag} needs a number")))
}

/// `awam serve`: run the multi-tenant analysis daemon (see
/// `awam::serve`) until a client sends `{"op":"shutdown"}`. The first
/// stdout line is a `{"kind":"serving","addr":…}` envelope announcing
/// the bound address, so scripts can bind port 0 and read it back.
fn cmd_serve(args: &[String]) -> CmdResult {
    use awam::serve::{ServeConfig, Server};

    let mut addr = "127.0.0.1:0".to_owned();
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                addr = it.next().ok_or("serve: --addr needs HOST:PORT")?.clone();
            }
            "--cache-mb" => {
                let mb: usize = num_flag(&mut it, "serve: --cache-mb")?;
                config.cache_bytes = mb << 20;
            }
            "--max-inflight" => config.max_inflight = num_flag(&mut it, "serve: --max-inflight")?,
            "--default-budget" => {
                config.default_budget = Some(num_flag(&mut it, "serve: --default-budget")?);
            }
            "--max-budget" => {
                config.max_budget = Some(num_flag(&mut it, "serve: --max-budget")?);
            }
            "--pool" => config.pool_per_key = num_flag(&mut it, "serve: --pool")?,
            "--batch-workers" => {
                config.batch_workers = num_flag(&mut it, "serve: --batch-workers")?;
            }
            "--shards" => config.shards = num_flag(&mut it, "serve: --shards")?,
            "--workers" => config.workers = num_flag(&mut it, "serve: --workers")?,
            "--pipeline-depth" => {
                config.pipeline_depth = num_flag(&mut it, "serve: --pipeline-depth")?;
            }
            other => {
                return Err(Error::Usage(format!("serve: unknown flag {other}")));
            }
        }
    }
    let server = Server::bind(&addr, config)?;
    let announce = envelope(
        "serving",
        vec![("addr", Json::Str(server.local_addr().to_string()))],
    );
    // The announcement must reach a piping consumer before the first
    // request arrives (and the lock must not outlive it).
    {
        let mut out = io::stdout().lock();
        writeln!(out, "{}", announce.emit())?;
        out.flush()?;
    }
    server.run()?;
    Ok(())
}

/// `awam loadgen`: drive concurrent analysis traffic at a daemon and
/// write a `BENCH_serve.json` summary (throughput, latency quantiles,
/// cache/pool hit rates). Without `--addr` an in-process daemon is
/// spawned on an ephemeral port, so the benchmark is self-contained.
fn cmd_loadgen(args: &[String]) -> CmdResult {
    use awam::serve::loadgen::{run_loadgen, LoadgenConfig};

    let mut config = LoadgenConfig::default();
    let mut out = "BENCH_serve.json".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => {
                config.addr = Some(it.next().ok_or("loadgen: --addr needs HOST:PORT")?.clone());
            }
            "--programs" => config.programs = num_flag(&mut it, "loadgen: --programs")?,
            "--clients" => config.clients = num_flag(&mut it, "loadgen: --clients")?,
            "--queries" => config.queries = num_flag(&mut it, "loadgen: --queries")?,
            "--tenants" => config.tenants = num_flag(&mut it, "loadgen: --tenants")?,
            "--seed" => config.seed = num_flag(&mut it, "loadgen: --seed")?,
            "--pipeline-depth" => {
                config.pipeline_depth = num_flag(&mut it, "loadgen: --pipeline-depth")?;
            }
            "--out" => out = it.next().ok_or("loadgen: --out needs a path")?.clone(),
            other => {
                return Err(Error::Usage(format!("loadgen: unknown flag {other}")));
            }
        }
    }
    if config.programs == 0 || config.clients == 0 || config.queries == 0 || config.tenants == 0 {
        return Err("loadgen: --programs/--clients/--queries/--tenants must be at least 1".into());
    }

    let doc = run_loadgen(&config)?;
    std::fs::write(&out, format!("{}\n", doc.emit_pretty()))?;
    writeln!(io::stdout().lock(), "{}", doc.emit_pretty())?;
    let total = doc.get("total_queries").and_then(Json::as_i64).unwrap_or(0);
    let wall_ms = doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let throughput = doc
        .get("throughput_qps")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    eprintln!(
        "loadgen: {total} queries over {} clients in {wall_ms:.1} ms ({throughput:.0} q/s) -> {out}",
        config.clients
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> CmdResult {
    let (pos, flags) = split_flags(args)?;
    let name = pos.first().ok_or("bench: missing NAME (e.g. nreverse)")?;
    let bench = awam::suite::by_name(name)
        .ok_or_else(|| Error::Usage(format!("unknown benchmark {name}")))?;
    let mut phases = SpanProfiler::new();
    let program = phases.time("parse", || bench.parse())?;
    let analyzer = phases.time("compile", || analyzer_builder(&flags).compile(&program))?;
    if flags.stats || flags.stats_json || flags.trace.is_some() {
        return run_analysis(&analyzer, bench.entry, bench.entry_specs, &flags, phases);
    }
    let entry = awam::absdom::Pattern::from_spec(bench.entry_specs)
        .ok_or_else(|| Error::Usage("bad entry specs".to_owned()))?;
    let start = Instant::now();
    let analysis = analyzer.analyze(bench.entry, &entry)?;
    let elapsed = start.elapsed();
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "{name}: analyzed in {elapsed:?} ({} abstract instructions, {} iterations)",
        analysis.instructions_executed, analysis.iterations
    )?;
    write!(out, "{}", analysis.report(&analyzer))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_derive_from_root_spans() {
        let mut phases = SpanProfiler::new();
        let sum = phases.time("parse", || {
            std::hint::black_box((0..10_000u64).sum::<u64>())
        });
        assert_eq!(sum, 49_995_000);
        phases.time("report", || std::hint::black_box(vec![0u8; 64]));
        let json = phases_json(&phases);
        let Json::Obj(pairs) = &json else {
            panic!("phases is an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "parse_ns",
                "compile_ns",
                "analyze_ns",
                "execute_ns",
                "report_ns"
            ]
        );
        assert!(json.get("parse_ns").and_then(Json::as_u64) > Some(0));
        assert_eq!(json.get("compile_ns").and_then(Json::as_u64), Some(0));
        let lines = render_phases(&phases);
        let names: Vec<&str> = lines
            .lines()
            .filter_map(|l| l.split_whitespace().nth(1))
            .collect();
        assert_eq!(names, ["parse", "report"], "only phases that ran");
    }
}
