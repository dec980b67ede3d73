//! Benchmark harness: timing helpers and the regenerators for the
//! paper's Table 1 and Table 2, plus our ablations.
//!
//! Binaries (run with `--release`):
//!
//! * `table1` — analysis times of the compiled analyzer vs. the
//!   Prolog-hosted (meta-interpreted and transformed) and native
//!   comparators on the eleven benchmarks, next to the paper's columns;
//! * `table2` — speed ratios across the paper's nine platforms
//!   (simulated via the published indices; see DESIGN.md §4);
//! * `figure3` — the compiled WAM code for the paper's §2/§4 example
//!   clause and its abstract execution result;
//! * `ablation_depth` — A: analysis time/precision vs. term-depth k;
//! * `ablation_domain` — C: domain precision vs. time;
//! * `ablation_strategy` — D: global-restart vs. worklist fixpoint;
//! * `opt_report` — the optimizations the analysis enables (`wam-opt`);
//! * `run_concrete` — concrete execution times of the benchmarks (sanity
//!   check that the substrate WAM actually runs them);
//! * `hosted_check` / `hosted_dump` — inspection tools.

use absdom::Pattern;
use awam_core::{Analyzer, ProgramEdit, Workspace};
use awam_obs::{InvalidationStats, Json, TableStats};
use baseline::BaselineAnalyzer;
use bench_suite::Benchmark;
use hosted::{HostedAnalyzer, TransformedAnalyzer};
use prolog_syntax::term::{Program, Term};
use prolog_syntax::Symbol;
use std::time::Instant;

/// Measured results for one benchmark.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `Args` (from the parsed source).
    pub args: usize,
    /// `Preds`.
    pub preds: usize,
    /// Static WAM code size (our compiler).
    pub size: usize,
    /// Abstract instructions executed (our analyzer).
    pub exec: u64,
    /// Fixpoint iterations.
    pub iterations: u64,
    /// Compiled-analyzer time, microseconds (median of repeats).
    pub compiled_us: f64,
    /// Native meta-interpreting analyzer time, microseconds.
    pub baseline_us: f64,
    /// Prolog-hosted meta-interpreting analyzer time, microseconds (the
    /// paper's comparator: the analysis itself runs as a Prolog program
    /// on the concrete WAM).
    pub hosted_us: f64,
    /// Concrete WAM instructions the hosted analysis executes.
    pub hosted_steps: u64,
    /// Prolog-hosted *transformed* analyzer time, microseconds (the
    /// paper's other prior approach: partial evaluation into specialized
    /// Prolog).
    pub transformed_us: f64,
    /// `hosted_us / compiled_us` — the paper's Speed-Up column.
    pub speedup: f64,
    /// `baseline_us / compiled_us` — speed-up over the *native* baseline.
    pub native_speedup: f64,
    /// Extension-table counters from the instrumented compiled run.
    pub table_stats: TableStats,
    /// The full counter document of the instrumented compiled run
    /// ([`awam_core::Analysis::stats_json`]): opcode counts, machine
    /// high-water marks, per-phase analyze time.
    pub stats: Json,
    /// The paper's reported numbers.
    pub paper: bench_suite::PaperRow,
}

/// Time `f` adaptively: repeat until ≥ `min_total_ms` and ≥ 5 runs, and
/// return the *minimum* duration in microseconds — the estimator least
/// sensitive to scheduler interference on a shared machine.
pub fn time_us<F: FnMut()>(mut f: F, min_total_ms: u64) -> f64 {
    let mut best = f64::INFINITY;
    let mut runs = 0u32;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
        runs += 1;
        if runs >= 5 && start.elapsed().as_millis() as u64 >= min_total_ms {
            break;
        }
        if runs >= 2000 {
            break;
        }
    }
    best
}

/// Run the full measurement for one benchmark.
///
/// # Panics
///
/// Panics if the benchmark fails to parse, compile or analyze — the test
/// suite guarantees it does not.
pub fn run_benchmark(b: &Benchmark, depth_k: usize) -> Row {
    let program = b.parse().expect("benchmark parses");
    let compiled = wam::compile_program(&program).expect("benchmark compiles");
    let size = compiled.code_size();

    // One instrumented run for Exec / iterations.
    let analyzer = Analyzer::builder().depth(depth_k).build(compiled.clone());
    let entry = Pattern::from_spec(b.entry_specs).expect("entry spec");
    let analysis = analyzer.analyze(b.entry, &entry).expect("analysis runs");

    // Timed runs.
    let compiled_us = time_us(
        || {
            let _ = analyzer.analyze(b.entry, &entry).expect("analysis runs");
        },
        80,
    );
    let mut base = BaselineAnalyzer::new(&program)
        .expect("baseline accepts benchmark")
        .with_depth(depth_k);
    let baseline_us = time_us(
        || {
            let _ = base.analyze(b.entry, &entry).expect("baseline runs");
        },
        80,
    );
    let hosted_an =
        HostedAnalyzer::build(&program, b.entry, b.entry_specs).expect("hosted analyzer builds");
    let hosted_steps = hosted_an.run().expect("hosted analysis runs").steps;
    let hosted_us = time_us(
        || {
            let _ = hosted_an.run().expect("hosted analysis runs");
        },
        80,
    );
    let transformed_an = TransformedAnalyzer::build(&program, b.entry, b.entry_specs)
        .expect("transformed analyzer builds");
    let transformed_us = time_us(
        || {
            let _ = transformed_an.run().expect("transformed analysis runs");
        },
        80,
    );

    Row {
        name: b.name,
        args: program.total_arg_places(),
        preds: program.num_predicates(),
        size,
        exec: analysis.instructions_executed,
        iterations: analysis.iterations,
        compiled_us,
        baseline_us,
        hosted_us,
        hosted_steps,
        transformed_us,
        speedup: hosted_us / compiled_us,
        native_speedup: baseline_us / compiled_us,
        table_stats: analysis.table_stats,
        stats: analysis.stats_json(),
        paper: b.paper,
    }
}

/// The measured rows as one JSON document (`BENCH_TABLE1.json` shape):
/// timing columns plus the counter document of each instrumented run.
pub fn rows_to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", Json::Str(r.name.to_owned())),
                    ("args", Json::Int(r.args as i64)),
                    ("preds", Json::Int(r.preds as i64)),
                    ("size", Json::Int(r.size as i64)),
                    ("exec", Json::Int(r.exec as i64)),
                    ("iterations", Json::Int(r.iterations as i64)),
                    ("compiled_us", Json::Float(r.compiled_us)),
                    ("baseline_us", Json::Float(r.baseline_us)),
                    ("hosted_us", Json::Float(r.hosted_us)),
                    ("hosted_steps", Json::Int(r.hosted_steps as i64)),
                    ("transformed_us", Json::Float(r.transformed_us)),
                    ("speedup", Json::Float(r.speedup)),
                    ("native_speedup", Json::Float(r.native_speedup)),
                    ("counters", r.stats.clone()),
                ])
            })
            .collect(),
    )
}

/// Run all benchmarks at the paper's settings (k = 4).
pub fn table1_rows() -> Vec<Row> {
    bench_suite::all()
        .iter()
        .map(|b| run_benchmark(b, absdom::DEFAULT_TERM_DEPTH))
        .collect()
}

/// Render Table 1: measured columns next to the paper's.
pub fn render_table1(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 1 — The Efficiency of Dataflow Analyzers (measured | paper)\n\
         Hosted   = the analysis as a Prolog meta-interpreter on the concrete WAM\n\
                    (how Aquarius ran on Quintus — the paper's comparator);\n\
         Transf   = the analysis as a *transformed* Prolog program (the paper's\n\
                    other prior approach, cf. its section 5);\n\
         Native   = the meta-interpreting analyzer rewritten natively in Rust;\n\
         Compiled = the abstract WAM (the paper's contribution).\n\n",
    );
    out.push_str(&format!(
        "{:<10} {:>4} {:>5} | {:>5} {:>7} {:>4} | {:>11} {:>11} {:>11} {:>12} | {:>8} {:>7} | {:>5} {:>6} {:>9} {:>8}\n",
        "Benchmark", "Args", "Preds", "Size", "Exec", "Iter",
        "Hosted(us)", "Transf(us)", "Native(us)", "Compiled(us)",
        "Speed-Up", "vs Nat",
        "Size", "Exec", "Ours(ms)", "Speed-Up"
    ));
    out.push_str(&format!("{}\n", "-".repeat(152)));
    let mut total_speedup = 0.0;
    let mut total_native = 0.0;
    let mut paper_total = 0.0;
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>4} {:>5} | {:>5} {:>7} {:>4} | {:>11.0} {:>11.0} {:>11.1} {:>12.1} | {:>8.0} {:>7.1} | {:>5} {:>6} {:>9.1} {:>8.0}\n",
            r.name, r.args, r.preds, r.size, r.exec, r.iterations,
            r.hosted_us, r.transformed_us, r.baseline_us, r.compiled_us,
            r.speedup, r.native_speedup,
            r.paper.size, r.paper.exec, r.paper.ours_msec, r.paper.speedup
        ));
        total_speedup += r.speedup;
        total_native += r.native_speedup;
        paper_total += r.paper.speedup;
    }
    let n = rows.len() as f64;
    out.push_str(&format!("{}\n", "-".repeat(152)));
    out.push_str(&format!(
        "{:<10} {:>4} {:>5} | {:>5} {:>7} {:>4} | {:>11} {:>11} {:>11} {:>12} | {:>8.0} {:>7.1} | {:>5} {:>6} {:>9} {:>8.0}\n",
        "average", "", "", "", "", "", "", "", "", "", total_speedup / n, total_native / n, "", "", "", paper_total / n
    ));
    out
}

/// Render Table 2: per-platform speed ratios. With 1990s hardware
/// unavailable, the eight non-3/60 columns are regenerated by scaling our
/// measured per-benchmark ratio by the paper's published platform indices
/// (last row of the paper's Table 2); the paper's own numbers print below
/// for comparison.
pub fn render_table2(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("Table 2 — Speed Ratios on Various Platforms\n");
    out.push_str(
        "(measured: `this machine` column; other platforms simulated by the\n\
         paper's published speed indices — see DESIGN.md §4)\n\n",
    );
    let platforms = bench_suite::TABLE2_PLATFORMS;
    out.push_str(&format!("{:<10}", "Benchmark"));
    for (name, _) in &platforms[1..] {
        out.push_str(&format!(" {:>12}", name));
    }
    out.push('\n');
    out.push_str(&format!(
        "{}\n",
        "-".repeat(10 + 13 * (platforms.len() - 1))
    ));
    for r in rows {
        out.push_str(&format!("{:<10}", r.name));
        for (_, index) in &platforms[1..] {
            out.push_str(&format!(" {:>12.1}", r.speedup * index));
        }
        out.push('\n');
    }
    out.push_str("\npaper's rows (speed ratios vs Aquarius on the 3/60):\n");
    for (name, ratios) in bench_suite::TABLE2_RATIOS {
        out.push_str(&format!("{name:<10}"));
        for v in ratios {
            out.push_str(&format!(" {v:>12.1}"));
        }
        out.push('\n');
    }
    out
}

/// Measured results for one incremental-reanalysis benchmark: the cost
/// of re-analyzing after a single-clause leaf edit, warm (seeded repair
/// through [`Workspace::apply_edit`]) vs. cold (fresh analysis of the
/// edited source).
#[derive(Clone, Debug)]
pub struct IncrementalRow {
    /// Benchmark name.
    pub name: &'static str,
    /// The edited leaf predicate, as `name/arity`.
    pub leaf: String,
    /// The duplicated clause text used as the edit.
    pub clause: String,
    /// Cold analysis of the edited source: wall time, microseconds
    /// (minimum over repeats; includes parse + compile + fixpoint).
    pub cold_us: f64,
    /// Cold fixpoint iterations under the worklist (Dependency)
    /// strategy — entry explorations, the same unit the seeded repair
    /// reports in `refix_explorations`.
    pub cold_iterations: u64,
    /// Cold abstract instructions executed (Dependency strategy).
    pub cold_exec: u64,
    /// Incremental update: wall time, microseconds (minimum over
    /// repeats; includes parse + diff + compile + migrate + repair).
    pub incremental_us: f64,
    /// Invalidation counters from the incremental update.
    pub invalidation: InvalidationStats,
    /// `refix_explorations / cold_iterations` — fraction of the cold
    /// fixpoint iterations the seeded repair re-runs (the headline
    /// incrementality claim: < 25% on every suite benchmark).
    pub iter_ratio: f64,
    /// `refix_instructions / cold_exec` — fraction of the cold abstract
    /// work the seeded repair re-executes.
    pub exec_ratio: f64,
    /// `incremental_us / cold_us` — wall-time fraction. On programs
    /// this small, parse + compile dominates both sides, so this hovers
    /// near 1 even when the repair does a fraction of the abstract work.
    pub time_ratio: f64,
}

/// The benchmarks the incremental suite edits: every Table 1 program
/// with at least five predicates — enough call-graph structure for a
/// leaf edit to have a proper cone. The rest are excluded by that
/// structural cut: the deriv family (divide10, times10, log10, ops8),
/// tak, nreverse and qsort are one or two workhorse predicates plus a
/// driver, so every clause edit covers the whole program and there is
/// nothing for the invalidation to spare.
pub const INCREMENTAL_BENCHMARKS: &[&str] = &["zebra", "serialise", "query", "queens_8"];

/// The headline subset of [`INCREMENTAL_BENCHMARKS`] the < 25% claim is
/// gated on: the largest suite members by the paper's Exec column
/// (zebra 1262, serialise 912). The win scales with program size — on
/// the five-predicate toys (query, queens_8's chain) a leaf cone is
/// most of the table, so their rows are contrast, not claim.
pub const INCREMENTAL_HEADLINE: &[&str] = &["zebra", "serialise"];

/// Collect every predicate name/arity that `term` mentions as a functor,
/// at any nesting depth (conservative: a data constructor that shadows a
/// predicate key counts as a call).
fn collect_functors(term: &Term, out: &mut Vec<(Symbol, usize)>) {
    if let Some(key) = term.functor() {
        out.push(key);
    }
    if let Term::Struct(_, args) = term {
        for arg in args {
            collect_functors(arg, out);
        }
    }
}

/// Pick the benchmark's leaf predicate: among predicates other than the
/// entry whose clause bodies mention no user predicate besides
/// themselves, the one whose reverse-dependency cone (the predicates
/// that transitively call it, per the static call graph) is smallest —
/// the edit whose invalidation spares the most. Ties break toward the
/// leaf with the fewest external call sites (fewer distinct calling
/// patterns to re-derive), then source order. Returns `name/arity` and
/// the rendered text of the predicate's first clause.
///
/// # Panics
///
/// Panics if the program has no such predicate — every suite benchmark
/// does.
fn leaf_clause(program: &Program, entry: &str) -> (String, String) {
    let index = program.predicate_index();
    let user: std::collections::HashSet<(Symbol, usize)> =
        index.iter().map(|(key, _)| (key.name, key.arity)).collect();
    // Static call graph: callers[callee] = set of callers, over the
    // conservative deep-functor scan of each clause body.
    let mut callers: std::collections::HashMap<(Symbol, usize), Vec<(Symbol, usize)>> =
        std::collections::HashMap::new();
    for (key, clause_ids) in &index {
        for &id in clause_ids {
            let mut called = Vec::new();
            collect_functors(&program.clauses[id].body, &mut called);
            for f in called {
                if user.contains(&f) && f != (key.name, key.arity) {
                    let entry = callers.entry(f).or_default();
                    if !entry.contains(&(key.name, key.arity)) {
                        entry.push((key.name, key.arity));
                    }
                }
            }
        }
    }
    // Reverse reachability from `start`: how many predicates an edit to
    // it invalidates (itself plus everything that transitively calls it).
    let cone_size = |start: (Symbol, usize)| -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![start];
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                if let Some(cs) = callers.get(&p) {
                    stack.extend(cs.iter().copied());
                }
            }
        }
        seen.len()
    };
    // External call sites per predicate: body occurrences outside the
    // predicate's own clauses.
    let call_sites = |target: (Symbol, usize)| -> usize {
        index
            .iter()
            .filter(|(key, _)| (key.name, key.arity) != target)
            .flat_map(|(_, ids)| ids.iter())
            .map(|&id| {
                let mut called = Vec::new();
                collect_functors(&program.clauses[id].body, &mut called);
                called.iter().filter(|&&f| f == target).count()
            })
            .sum()
    };
    let mut best: Option<(usize, usize, String, String)> = None;
    for (key, clause_ids) in &index {
        let name = program.interner.resolve(key.name);
        if name == entry || name.starts_with('$') {
            continue;
        }
        let is_leaf = clause_ids.iter().all(|&id| {
            let mut called = Vec::new();
            collect_functors(&program.clauses[id].body, &mut called);
            called
                .iter()
                .all(|f| !user.contains(f) || *f == (key.name, key.arity))
        });
        if !is_leaf {
            continue;
        }
        let cone = cone_size((key.name, key.arity));
        let sites = call_sites((key.name, key.arity));
        if best
            .as_ref()
            .is_none_or(|(c, s, _, _)| (cone, sites) < (*c, *s))
        {
            let text = prolog_syntax::pretty::clause_to_string(
                &program.clauses[clause_ids[0]],
                &program.interner,
            );
            best = Some((cone, sites, format!("{name}/{}", key.arity), text));
        }
    }
    let (_, _, leaf, text) = best.expect("no leaf predicate found besides the entry");
    (leaf, text)
}

/// Measure one benchmark: duplicate its leaf predicate's first clause
/// (a real textual edit with identical semantics, so cold and warm must
/// reconverge to the same table) and compare the seeded repair against
/// a cold analysis of the edited source.
///
/// # Panics
///
/// Panics if the benchmark fails to parse, compile or analyze.
pub fn run_incremental(b: &Benchmark) -> IncrementalRow {
    let program = b.parse().expect("benchmark parses");
    let (leaf, clause) = leaf_clause(&program, b.entry);
    let edit = ProgramEdit::AddClause {
        clause: clause.clone(),
    };

    // Incremental: a fresh warm workspace per run (the edit consumes
    // it); time only the apply_edit call.
    let mut incremental_us = f64::INFINITY;
    let mut invalidation = InvalidationStats::default();
    let mut edited_source = String::new();
    for _ in 0..10 {
        let mut ws = Workspace::from_source(b.source).expect("workspace builds");
        ws.analyze(b.entry, b.entry_specs).expect("warm analysis");
        let t = Instant::now();
        invalidation = ws.apply_edit(&edit).expect("edit applies");
        incremental_us = incremental_us.min(t.elapsed().as_secs_f64() * 1e6);
        edited_source = ws.source().to_owned();
    }

    // Cold comparator: fresh parse + compile + fixpoint of the same
    // edited source under the worklist strategy, so `iterations` (entry
    // explorations) and `instructions_executed` are in the same units
    // the repair reports.
    let edited_program =
        prolog_syntax::parse_program(&edited_source).expect("edited source parses");
    let compiled = wam::compile_program(&edited_program).expect("edited source compiles");
    let cold_analyzer = Analyzer::builder()
        .strategy(awam_core::IterationStrategy::Dependency)
        .build(compiled);
    let entry_pattern = Pattern::from_spec(b.entry_specs).expect("entry spec");
    let analysis = cold_analyzer
        .analyze(b.entry, &entry_pattern)
        .expect("cold analysis");
    let cold_exec = analysis.instructions_executed;
    let cold_iterations = analysis.iterations;
    let cold_us = time_us(
        || {
            let mut ws = Workspace::from_source(&edited_source).expect("cold workspace builds");
            let _ = ws.analyze(b.entry, b.entry_specs).expect("cold analysis");
        },
        80,
    );

    IncrementalRow {
        name: b.name,
        leaf,
        clause,
        cold_us,
        cold_iterations,
        cold_exec,
        incremental_us,
        invalidation,
        iter_ratio: invalidation.refix_explorations as f64 / cold_iterations.max(1) as f64,
        exec_ratio: invalidation.refix_instructions as f64 / cold_exec.max(1) as f64,
        time_ratio: incremental_us / cold_us,
    }
}

/// Run the incremental suite over [`INCREMENTAL_BENCHMARKS`].
pub fn incremental_rows() -> Vec<IncrementalRow> {
    INCREMENTAL_BENCHMARKS
        .iter()
        .map(|name| {
            let b = bench_suite::by_name(name).expect("incremental benchmark exists");
            run_incremental(&b)
        })
        .collect()
}

/// The incremental rows as one JSON document (`BENCH_incremental.json`
/// shape).
pub fn incremental_rows_to_json(rows: &[IncrementalRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", Json::Str(r.name.to_owned())),
                    ("leaf", Json::Str(r.leaf.clone())),
                    ("clause", Json::Str(r.clause.clone())),
                    ("cold_us", Json::Float(r.cold_us)),
                    ("cold_iterations", Json::Int(r.cold_iterations as i64)),
                    ("cold_exec", Json::Int(r.cold_exec as i64)),
                    ("incremental_us", Json::Float(r.incremental_us)),
                    ("invalidation", r.invalidation.to_json()),
                    ("iter_ratio", Json::Float(r.iter_ratio)),
                    ("exec_ratio", Json::Float(r.exec_ratio)),
                    ("time_ratio", Json::Float(r.time_ratio)),
                ])
            })
            .collect(),
    )
}

/// Render the incremental table for the terminal.
pub fn render_incremental(rows: &[IncrementalRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Incremental re-analysis — single-clause leaf edit, warm repair vs. cold rebuild\n\n",
    );
    out.push_str(&format!(
        "{:<10} {:<14} {:>9} {:>9} {:>10} {:>7} {:>7} {:>7} {:>7}\n",
        "bench", "leaf", "cold_it", "refix_it", "cold_exec", "refix", "iter%", "exec%", "time%"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<14} {:>9} {:>9} {:>10} {:>7} {:>6.1}% {:>6.1}% {:>6.1}%\n",
            r.name,
            r.leaf,
            r.cold_iterations,
            r.invalidation.refix_explorations,
            r.cold_exec,
            r.invalidation.refix_instructions,
            r.iter_ratio * 100.0,
            r.exec_ratio * 100.0,
            r.time_ratio * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helper_returns_positive() {
        let us = time_us(
            || {
                std::hint::black_box(1 + 1);
            },
            1,
        );
        assert!(us >= 0.0);
    }

    #[test]
    fn single_benchmark_runs() {
        let b = bench_suite::by_name("tak").unwrap();
        let row = run_benchmark(&b, 4);
        assert!(row.exec > 0);
        assert!(row.compiled_us > 0.0);
        assert!(row.baseline_us > 0.0);
        assert_eq!(row.args, 4);
    }
}
