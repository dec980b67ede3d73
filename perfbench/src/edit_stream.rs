//! `edit_stream`: what `awam watch` does per save, over one `Workspace`
//! for each Table 1 program with at least five predicates.
//!
//! Each op is `update_source`, `analyze`, `report`. The seeded script
//! alternates a clause-level edit with its undo. Parse, diff, compile
//! and migrate do most of the work; the fixpoint runs only as a seeded
//! repair.

use crate::trace::{span, Layer, Tracer};
use crate::{digest, inject, median, ns_since, peak_rss_kb, peak_rss_metric, reset_peak_rss};
use crate::{Config, Inject, Metric, Outcome, Recorder, SAMPLE_CAPACITY};
use absdom::Pattern;
use awam_core::{migrate_parts, AnalysisError, Analyzer, AnalyzerBuilder, ProgramDiff};
use awam_core::{ProgramEdit, Session};
use awam_core::{SessionParts, Workspace};
use awam_obs::InvalidationStats;
use awam_testkit::{gen_edit, Rng};
use prolog_syntax::{parse_program, Program};
use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// `BENCH_incremental.json`'s programs, each with the leaf predicate
/// whose first clause that benchmark duplicates.
const PROGRAMS: [(&str, &str, usize); 4] = [
    ("zebra", "right_of", 3),
    ("serialise", "pairlists", 3),
    ("queens_8", "range", 3),
    ("query", "pop", 2),
];

/// Edits per program in one pass of the script (each followed by its
/// undo): the leaf-clause duplicate plus testkit `gen_edit` draws.
const EDITS_PER_PROGRAM: usize = 64;

/// One program of the stream.
struct Target {
    name: &'static str,
    entry: &'static str,
    specs: &'static [&'static str],
    source: &'static str,
}

/// One op of the script: bring workspace `ws` to source `text`.
struct Step {
    ws: usize,
    text: usize,
}

/// The seeded op script over a table of distinct source texts, with
/// the drawn edits whose cold analysis failed to terminate (kept out of
/// the ops, and reported as failed).
struct Script {
    texts: Vec<String>,
    steps: Vec<Step>,
    nonterminating: Vec<String>,
}

fn defines(program: &Program, name: &str, arity: usize) -> bool {
    program
        .predicate_index()
        .iter()
        .any(|(k, _)| k.arity == arity && program.interner.resolve(k.name) == name)
}

/// How long a candidate edit's cold analysis may run before it counts
/// as hung. The suite's edits analyze in milliseconds.
const CHECK_TIMEOUT: Duration = Duration::from_secs(5);

/// What a cold analysis of a candidate edit did.
enum Verdict {
    /// It parses, compiles, still defines the entry goal and analyzes.
    Usable,
    /// It does not parse or compile, or leaves the entry goal undefined:
    /// re-drawn.
    Unusable,
    /// The analysis hit its iteration or depth bound, a termination
    /// failure (as oracle #9 counts it).
    Bound,
    /// The analysis did not finish within [`CHECK_TIMEOUT`].
    Hung,
}

/// The exit code `check-edit` gives for [`Verdict::Bound`].
const EXIT_BOUND: u8 = 3;

fn verdict(text: &str, t: &Target) -> Verdict {
    let Ok(program) = parse_program(text) else {
        return Verdict::Unusable;
    };
    if !defines(&program, t.entry, t.specs.len()) {
        return Verdict::Unusable;
    }
    let Ok(analyzer) = Analyzer::compile(&program) else {
        return Verdict::Unusable;
    };
    match analyzer.analyze_query(t.entry, t.specs) {
        Ok(_) => Verdict::Usable,
        Err(AnalysisError::IterationLimit | AnalysisError::DepthLimit) => Verdict::Bound,
        Err(_) => Verdict::Unusable,
    }
}

/// `perfbench check-edit NAME`: judge the text on stdin as an edit of
/// the named program. Exits 0 when it is usable, 1 when it is not, and
/// [`EXIT_BOUND`] when its analysis hits a bound.
pub fn check_edit_main(name: &str) -> ExitCode {
    let mut text = String::new();
    let Some(t) = targets()
        .ok()
        .and_then(|ts| ts.into_iter().find(|t| t.name == name))
    else {
        return ExitCode::from(2);
    };
    if io::stdin().read_to_string(&mut text).is_err() {
        return ExitCode::from(2);
    }
    match verdict(&text, &t) {
        Verdict::Usable => ExitCode::SUCCESS,
        Verdict::Bound => ExitCode::from(EXIT_BOUND),
        Verdict::Unusable | Verdict::Hung => ExitCode::FAILURE,
    }
}

/// Judge a candidate edit in a child process, so that an analysis that
/// never returns can be stopped.
fn judge(text: &str, t: &Target) -> Result<Verdict, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["check-edit", t.name])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning an edit check: {e}"))?;
    let written = child
        .stdin
        .take()
        .map(|mut stdin| stdin.write_all(text.as_bytes()));
    let deadline = Instant::now() + CHECK_TIMEOUT;
    let verdict = loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => break Verdict::Usable,
            Ok(Some(status)) if status.code() == Some(EXIT_BOUND.into()) => break Verdict::Bound,
            Ok(Some(_)) => break Verdict::Unusable,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            _ => {
                drop(child.kill());
                break Verdict::Hung;
            }
        }
    };
    drop(child.wait());
    match written {
        Some(Err(e)) if !matches!(verdict, Verdict::Hung) => Err(format!("edit check: {e}")),
        _ => Ok(verdict),
    }
}

/// The clauses an edit adds (`+`) and removes (`-`), for failure
/// messages.
fn edit_summary(before: &str, after: &str) -> String {
    let clauses = |text: &str| {
        parse_program(text).map_or_else(
            |_| Vec::new(),
            |p| {
                p.clauses
                    .iter()
                    .map(|c| prolog_syntax::pretty::clause_to_string(c, &p.interner))
                    .collect()
            },
        )
    };
    let (old, new): (Vec<String>, Vec<String>) = (clauses(before), clauses(after));
    let added = new
        .iter()
        .filter(|c| !old.contains(c))
        .map(|c| format!("+ {c}"));
    let removed = old
        .iter()
        .filter(|c| !new.contains(c))
        .map(|c| format!("- {c}"));
    added.chain(removed).collect::<Vec<_>>().join(" ")
}

/// The first line at which two dumps differ, from each.
fn first_difference<'a>(a: &'a str, b: &'a str) -> (&'a str, &'a str) {
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let at = (0..a.len().max(b.len()))
        .find(|&j| a.get(j) != b.get(j))
        .unwrap_or(0);
    let line = |v: &[&'a str]| v.get(at).copied().unwrap_or("(no line)");
    (line(&a), line(&b))
}

fn build_script(seed: u64, targets: &[Target]) -> Result<Script, String> {
    let mut rng = Rng::new(seed);
    let mut texts: Vec<String> = targets.iter().map(|t| t.source.to_owned()).collect();
    let mut per_target: Vec<Vec<usize>> = vec![Vec::new(); targets.len()];
    let mut nonterminating = Vec::new();
    for (k, t) in targets.iter().enumerate() {
        let program = parse_program(t.source).map_err(|e| e.to_string())?;
        let (_, leaf, arity) = PROGRAMS[k];
        let first = program
            .clauses
            .iter()
            .find(|c| {
                let key = c.pred_key();
                key.arity == arity && program.interner.resolve(key.name) == leaf
            })
            .ok_or_else(|| format!("{}: no {leaf}/{arity}", t.name))?;
        let duplicate = ProgramEdit::AddClause {
            clause: prolog_syntax::pretty::clause_to_string(first, &program.interner),
        };
        let mut edits = vec![duplicate.apply(&program).map_err(|e| e.to_string())?];
        let mut draws = 0;
        while edits.len() < EDITS_PER_PROGRAM {
            draws += 1;
            if draws > 1000 {
                return Err(format!("{}: no usable edit in 1000 draws", t.name));
            }
            let Ok(text) = gen_edit(&mut rng, &program).apply(&program) else {
                continue;
            };
            let failure = match judge(&text, t)? {
                Verdict::Usable => {
                    edits.push(text);
                    continue;
                }
                Verdict::Unusable => continue,
                Verdict::Bound => "hit its iteration or depth bound".to_owned(),
                Verdict::Hung => format!("did not finish in {CHECK_TIMEOUT:?}"),
            };
            nonterminating.push(format!(
                "{} draw {draws}, the edit `{}`: the cold analysis {failure}",
                t.name,
                edit_summary(t.source, &text)
            ));
        }
        for text in edits {
            per_target[k].push(texts.len());
            texts.push(text);
        }
    }
    // Interleave the programs; every edit is followed by its undo.
    let mut steps = Vec::new();
    for j in 0..EDITS_PER_PROGRAM {
        for (k, edits) in per_target.iter().enumerate() {
            steps.push(Step {
                ws: k,
                text: edits[j],
            });
            steps.push(Step { ws: k, text: k });
        }
    }
    Ok(Script {
        texts,
        steps,
        nonterminating,
    })
}

/// `Workspace::update_source` + `analyze` replayed through the public
/// calls it is made of, so each layer call gets its own span.
struct Replay {
    builder: AnalyzerBuilder,
    program: Program,
    analyzer: Analyzer,
    parts: Option<SessionParts>,
}

impl Replay {
    fn open(t: &Target) -> Result<Replay, String> {
        let program = parse_program(t.source).map_err(|e| e.to_string())?;
        let builder = AnalyzerBuilder::default();
        let analyzer = builder.compile(&program).map_err(|e| e.to_string())?;
        let mut replay = Replay {
            builder,
            program,
            analyzer,
            parts: None,
        };
        replay.analyze(t, &mut None)?;
        Ok(replay)
    }

    fn update_source(
        &mut self,
        text: &str,
        tracer: &mut Option<Tracer>,
        inject_ns: u64,
    ) -> Result<InvalidationStats, String> {
        let program =
            span(tracer, Layer::Parse, || parse_program(text)).map_err(|e| e.to_string())?;
        let diff = span(tracer, Layer::Diff, || {
            ProgramDiff::between(&self.program, &program)
        });
        if diff.is_empty() {
            let memo = self.parts.as_ref().map_or(0, SessionParts::memo_len) as u64;
            self.program = program;
            return Ok(InvalidationStats {
                entries_before: memo,
                entries_kept: memo,
                ..InvalidationStats::default()
            });
        }
        let compiled = span(tracer, Layer::Compile, || wam::compile_program(&program))
            .map_err(|e| e.to_string())?;
        let analyzer = span(tracer, Layer::Build, || self.builder.build(compiled));
        let stats = match self.parts.take() {
            Some(parts) => {
                let (parts, stats) = span(tracer, Layer::Migrate, || {
                    migrate_parts(
                        &self.program,
                        &program,
                        &self.analyzer,
                        &analyzer,
                        parts,
                        None,
                    )
                })
                .map_err(|e| e.to_string())?;
                inject(inject_ns);
                self.parts = Some(parts);
                stats
            }
            None => InvalidationStats {
                preds_changed: diff.changed.len() as u64,
                preds_removed: diff.removed.len() as u64,
                ..InvalidationStats::default()
            },
        };
        self.program = program;
        self.analyzer = analyzer;
        Ok(stats)
    }

    fn analyze(&mut self, t: &Target, tracer: &mut Option<Tracer>) -> Result<String, String> {
        let analysis = span(tracer, Layer::Requery, || {
            let parts = self
                .parts
                .take()
                .unwrap_or_else(|| Session::new(&self.analyzer).into_parts());
            let mut session = Session::resume(&self.analyzer, parts);
            let result = session.analyze_query(t.entry, t.specs);
            self.parts = Some(session.into_parts());
            result
        })
        .map_err(|e| e.to_string())?;
        Ok(span(tracer, Layer::Report, || {
            analysis.report(&self.analyzer)
        }))
    }
}

/// One untraced op through the real `Workspace`.
fn workspace_op(
    ws: &mut Workspace,
    text: &str,
    t: &Target,
    inject_ns: u64,
) -> Result<(String, InvalidationStats), String> {
    let stats = ws.update_source(text).map_err(|e| e.to_string())?;
    inject(inject_ns);
    let analysis = ws.analyze(t.entry, t.specs).map_err(|e| e.to_string())?;
    Ok((analysis.report(ws.analyzer()), stats))
}

/// The stream's programs.
fn targets() -> Result<Vec<Target>, String> {
    PROGRAMS
        .iter()
        .map(|&(name, _, _)| {
            let b = bench_suite::by_name(name).ok_or_else(|| format!("no benchmark {name}"))?;
            Ok(Target {
                name: b.name,
                entry: b.entry,
                specs: b.entry_specs,
                source: b.source,
            })
        })
        .collect()
}

/// Open a workspace on the original program and run its first analysis.
fn open(t: &Target) -> Result<Workspace, String> {
    let mut ws = Workspace::from_source(t.source).map_err(|e| e.to_string())?;
    ws.analyze(t.entry, t.specs).map_err(|e| e.to_string())?;
    Ok(ws)
}

/// Cold parse + compile + analyze + report of one text, in nanoseconds.
fn cold_ns(text: &str, t: &Target) -> Result<u64, String> {
    let start = Instant::now();
    let program = parse_program(text).map_err(|e| e.to_string())?;
    let analyzer = Analyzer::compile(&program).map_err(|e| e.to_string())?;
    let entry = Pattern::from_spec(t.specs).ok_or("bad entry spec")?;
    let analysis = analyzer
        .analyze(t.entry, &entry)
        .map_err(|e| e.to_string())?;
    std::hint::black_box(analysis.report(&analyzer));
    Ok(ns_since(start))
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let targets = targets()?;
    let script = build_script(config.seed, &targets)?;
    let mut failed = 0u64;
    for edit in &script.nonterminating {
        eprintln!("edit_stream: {edit}");
        failed += 1;
    }

    // Verified pass, untimed: after every op the reachable core of the
    // table must equal a cold analysis of the same text (oracle #9's
    // check). Its report digests and invalidation counters are what
    // every timed op must reproduce.
    let mut workspaces = targets.iter().map(open).collect::<Result<Vec<_>, _>>()?;
    let mut expected = Vec::with_capacity(script.steps.len());
    let mut cold_dumps: HashMap<usize, String> = HashMap::new();
    for (i, step) in script.steps.iter().enumerate() {
        let t = &targets[step.ws];
        let text = &script.texts[step.text];
        if i % 2 == 0 {
            workspaces[step.ws] = open(t)?;
        }
        let (report, stats) = workspace_op(&mut workspaces[step.ws], text, t, 0)?;
        let incremental = workspaces[step.ws]
            .core_dump(t.entry, t.specs)
            .map_err(|e| e.to_string())?;
        let cold = match cold_dumps.entry(step.text) {
            Entry::Occupied(dump) => dump.into_mut(),
            Entry::Vacant(slot) => {
                let mut cold = Workspace::from_source(text).map_err(|e| e.to_string())?;
                slot.insert(
                    cold.core_dump(t.entry, t.specs)
                        .map_err(|e| e.to_string())?,
                )
            }
        };
        if *cold != incremental {
            // An undo changes the workspace from the edit's text back to
            // the original.
            let before = if i % 2 == 0 {
                t.source
            } else {
                &script.texts[script.steps[i - 1].text]
            };
            let (inc, cold) = first_difference(&incremental, cold);
            eprintln!(
                "edit_stream: {} core differs from a cold analysis after the edit \
                 `{}`: incremental `{inc}`, cold `{cold}`",
                t.name,
                edit_summary(before, text)
            );
            failed += 1;
        }
        expected.push((digest(report.as_bytes()), stats));
    }
    drop(cold_dumps);

    // Timed phase: whole passes until the time is up. An undo does not
    // restore a memo table exactly (calling patterns the edit introduced
    // can stay), so each edit starts from a freshly opened workspace.
    // Those opens are timed on their own (`setup_s`: opening all four
    // workspaces, the median over the run) and kept out of the ops'
    // throughput. A traced run replays the ops through the public calls
    // and alternates traced and plain passes. The verified pass above may
    // have set the peak resident set; it is reset once the phase's
    // buffers are in place (set-up samples in one touched up front, like
    // the recorder's: one per round of edits over the four workspaces).
    let mut tracer = config.trace.then(Tracer::new);
    let mut plain: Option<Tracer> = None;
    let mut recorder = Recorder::fixed(SAMPLE_CAPACITY, config.seconds);
    let mut clock = 0u64;
    let mut setup = vec![f64::MAX; SAMPLE_CAPACITY / (2 * targets.len())];
    setup.clear();
    let mut opens_ns = 0u64;
    let mut plain_ns = vec![(0u64, 0u64); script.steps.len()];
    let mut traced_ns = (0u64, 0u64);
    let mut replays: Vec<Option<Replay>> = targets.iter().map(|_| None).collect();
    reset_peak_rss()?;
    let start = Instant::now();
    recorder.start();
    'timed: for pass in 0.. {
        let traced = config.trace && pass % 2 == 0;
        for (i, step) in script.steps.iter().enumerate() {
            let t = &targets[step.ws];
            let text = &script.texts[step.text];
            if i % 2 == 0 {
                let open_start = Instant::now();
                if config.trace {
                    replays[step.ws] = Some(Replay::open(t)?);
                } else {
                    workspaces[step.ws] = open(t)?;
                }
                opens_ns += ns_since(open_start);
                if step.ws + 1 == targets.len() {
                    setup.push(opens_ns as f64 / 1e9);
                    opens_ns = 0;
                }
            }
            let op_start = Instant::now();
            let result = if config.trace {
                let tr = if traced { &mut tracer } else { &mut plain };
                if let Some(tr) = tr.as_mut() {
                    tr.open(Layer::Op);
                }
                let replay = replays[step.ws].as_mut().expect("opened before its edit");
                let result = replay
                    .update_source(text, tr, config.inject_ns(Inject::Migrate))
                    .and_then(|stats| Ok((replay.analyze(t, tr)?, stats)));
                if let Some(tr) = tr.as_mut() {
                    tr.close();
                }
                result
            } else {
                workspace_op(
                    &mut workspaces[step.ws],
                    text,
                    t,
                    config.inject_ns(Inject::Migrate),
                )
            };
            let ns = ns_since(op_start);
            clock += ns;
            let room = recorder.record(ns);
            if traced {
                traced_ns = (traced_ns.0 + ns, traced_ns.1 + 1);
            } else {
                plain_ns[i] = (plain_ns[i].0 + ns, plain_ns[i].1 + 1);
            }
            match result {
                Ok((report, stats)) if (digest(report.as_bytes()), stats) == expected[i] => {}
                Ok(_) => {
                    eprintln!(
                        "edit_stream: {} op {i} differs from the verified pass",
                        t.name
                    );
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("edit_stream: {e}");
                    failed += 1;
                }
            }
            if !room {
                break 'timed;
            }
        }
        if start.elapsed().as_secs_f64() >= config.seconds {
            break;
        }
    }
    let peak_kb = peak_rss_kb(None)?;
    let attempted = recorder.ops();

    let mut detail = vec![
        ("workload", "\"edit_stream\"".to_owned()),
        (
            "script_digest",
            format!("\"{:016x}\"", script_digest(&script)),
        ),
        ("ops_per_pass", script.steps.len().to_string()),
        ("ops", attempted.to_string()),
        (
            "nonterminating_edits",
            script.nonterminating.len().to_string(),
        ),
    ];
    let metrics = if let Some(tracer) = tracer {
        crate::write_trace(config, &tracer)?;
        let mut metrics = tracer.self_time_metrics();
        metrics.extend(invalidation_counts(&expected));
        // Edit-to-report against a cold analysis of the same text, both
        // as sums over one pass of the script.
        let mut incremental = 0.0;
        let mut cold = 0.0;
        for (step, &(sum, n)) in script.steps.iter().zip(&plain_ns) {
            incremental += sum as f64 / n.max(1) as f64;
            cold += cold_ns(&script.texts[step.text], &targets[step.ws])? as f64;
        }
        metrics.push(Metric::new(
            "core.incr_vs_cold",
            incremental / cold,
            "ratio",
        ));
        let plain_total: (u64, u64) = plain_ns
            .iter()
            .fold((0, 0), |(s, n), &(a, b)| (s + a, n + b));
        let plain_mean = plain_total.0 as f64 / plain_total.1.max(1) as f64;
        let traced_mean = traced_ns.0 as f64 / traced_ns.1.max(1) as f64;
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

/// `InvalidationStats` over one pass of the script, per op.
fn invalidation_counts(expected: &[(u64, InvalidationStats)]) -> Vec<Metric> {
    let sum =
        |f: &dyn Fn(&InvalidationStats) -> u64| expected.iter().map(|(_, s)| f(s)).sum::<u64>();
    let ops = expected.len().max(1) as f64;
    vec![
        Metric::new(
            "core.kept_ratio",
            sum(&|s| s.entries_kept) as f64 / sum(&|s| s.entries_before).max(1) as f64,
            "ratio",
        ),
        Metric::new("core.frontier", sum(&|s| s.frontier) as f64 / ops, "count"),
        Metric::new(
            "core.refix_explorations",
            sum(&|s| s.refix_explorations) as f64 / ops,
            "count",
        ),
        Metric::new(
            "core.refix_instructions",
            sum(&|s| s.refix_instructions) as f64 / ops,
            "count",
        ),
    ]
}

fn script_digest(script: &Script) -> u64 {
    let mut all = String::new();
    for step in &script.steps {
        all.push_str(&script.texts[step.text]);
        all.push('\u{0}');
    }
    digest(all.as_bytes())
}
