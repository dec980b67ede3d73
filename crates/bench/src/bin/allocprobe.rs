//! Diagnostic: allocator traffic per cold analysis, and the heap a
//! built analyzer and a parked session hold, for every Table 1 program
//! and for one program of the serving corpus.
//!
//! ```sh
//! cargo run -p awam-bench --release --bin allocprobe
//! ```
//!
//! One row per program:
//!
//! * `parse`, `compile`, `build` — the `alloc` calls `parse_program`,
//!   `wam::compile_program` and `AnalyzerBuilder::build` make (the
//!   second of two identical runs each);
//! * `allocs`, `reallocs`, `bytes` — the `alloc` and `realloc` calls and
//!   the bytes they asked for in one cold `Analyzer::analyze` (the
//!   second of two identical runs, so one-time process set-up is not
//!   charged to it);
//! * `an_bytes`, `an_blocks` — what a built `Analyzer` holds (what
//!   dropping it frees);
//! * `sym_bytes`, `sym_blocks` — what a copy of its symbol table holds
//!   (the same as the table itself once the build has shrunk it);
//! * `code_bytes`, `code_blocks` — the same for its code area: the
//!   instructions and their operand pools;
//! * `parked_bytes`, `parked_blocks` — what a parked session holds after
//!   one query: what dropping its `SessionParts` frees.
//!
//! The `corpus` row is the serving corpus's seed-3 testkit program
//! (default generator settings), queried at `p0` with all-`any`.
//!
//! A last line holds what the daemon's program cache holds for the whole
//! seed-1 serving corpus (the 1,000 programs perfbench's serve_warm
//! registers): the `Arc<Analyzer>`s built together, in bytes and blocks
//! per program, and how many distinct seed arenas they share.
//! Scratch-reuse and footprint regressions show up here as raw counts
//! instead of a profile guess.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_BLOCKS: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: forwards every call to `System` unchanged; the counters are
// side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// `(alloc calls, realloc calls, bytes asked for)` so far.
fn traffic() -> (u64, u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        REALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// `(bytes, blocks)` currently live.
fn live() -> (i64, i64) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

/// The heap `value` holds: what dropping it frees.
fn held<T>(value: T) -> (i64, i64) {
    let before = live();
    drop(value);
    let after = live();
    (before.0 - after.0, before.1 - after.1)
}

/// `alloc` calls `f` makes on a fresh `input()` (run twice; the second
/// run counts, and making its input does not).
fn allocs_of<I, T>(input: impl Fn() -> I, f: impl Fn(I) -> T) -> (T, u64) {
    drop(f(input()));
    let arg = input();
    let before = traffic().0;
    let value = f(arg);
    (value, traffic().0 - before)
}

fn probe(name: &str, source: &str, goal: &str, specs: &[&str]) {
    let (program, parse) = allocs_of(
        || source,
        |s| prolog_syntax::parse_program(s).expect("parses"),
    );
    let (compiled, compile) =
        allocs_of(|| &program, |p| wam::compile_program(p).expect("compiles"));
    let builder = awam_core::Analyzer::builder();
    let (analyzer, build) = allocs_of(|| compiled.clone(), |c| builder.build(c));
    let entry = absdom::Pattern::from_spec(specs).expect("entry specs");

    analyzer.analyze(goal, &entry).expect("analysis runs");
    let before = traffic();
    analyzer.analyze(goal, &entry).expect("analysis runs");
    let after = traffic();

    let mut session = analyzer.session();
    session.analyze(goal, &entry).expect("analysis runs");
    let parked = held(session.into_parts());
    let symbols = held(analyzer.program().interner.clone());
    let code = held((
        analyzer.program().code.clone(),
        analyzer.program().pools.clone(),
    ));
    let built = held(analyzer);

    println!(
        "{:<10} {:>6} {:>8} {:>6} {:>7} {:>8} {:>9} {:>9} {:>10} {:>9} {:>10} {:>10} {:>11} {:>12} {:>13}",
        name,
        parse,
        compile,
        build,
        after.0 - before.0,
        after.1 - before.1,
        after.2 - before.2,
        built.0,
        built.1,
        symbols.0,
        symbols.1,
        code.0,
        code.1,
        parked.0,
        parked.1,
    );
}

/// What the cached analyzers of the 1,000-program seed-1 serving corpus
/// hold together, and how many seed arenas they share.
fn probe_cache() {
    const PROGRAMS: usize = 1_000;
    let mut rng = awam_testkit::Rng::new(1);
    let config = awam_testkit::GenConfig::default();
    let sources: Vec<String> = (0..PROGRAMS)
        .map(|_| awam_testkit::gen_program(&mut rng, &config).source())
        .collect();
    let analyzers: Vec<std::sync::Arc<awam_core::Analyzer>> = sources
        .iter()
        .map(|source| {
            let program = prolog_syntax::parse_program(source).expect("parses");
            std::sync::Arc::new(awam_core::Analyzer::compile(&program).expect("compiles"))
        })
        .collect();
    let mut seeds: Vec<*const absdom::PatternInterner> = analyzers
        .iter()
        .map(|a| a.seed_patterns() as *const _)
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    let list = std::mem::size_of_val(analyzers.as_slice()) as i64;
    let (bytes, blocks) = held(analyzers);
    println!(
        "seed-1 corpus, {PROGRAMS} cached analyzers: {:.1} B in {:.2} blocks per program, {} seed arenas",
        (bytes - list) as f64 / PROGRAMS as f64,
        (blocks - 1) as f64 / PROGRAMS as f64,
        seeds.len()
    );
}

fn main() {
    println!(
        "{:<10} {:>6} {:>8} {:>6} {:>7} {:>8} {:>9} {:>9} {:>10} {:>9} {:>10} {:>10} {:>11} {:>12} {:>13}",
        "program",
        "parse",
        "compile",
        "build",
        "allocs",
        "reallocs",
        "bytes",
        "an_bytes",
        "an_blocks",
        "sym_bytes",
        "sym_blocks",
        "code_bytes",
        "code_blocks",
        "parked_bytes",
        "parked_blocks"
    );
    for b in bench_suite::all() {
        probe(b.name, b.source, b.entry, b.entry_specs);
    }
    let corpus = awam_testkit::gen_program(
        &mut awam_testkit::Rng::new(3),
        &awam_testkit::GenConfig::default(),
    );
    let specs = vec!["any"; corpus.entry_arity()];
    probe("corpus", &corpus.source(), "p0", &specs);
    probe_cache();
}
