//! Heap footprint of what a serving daemon keeps: a built analyzer and
//! its symbol table, a parked session ([`SessionParts`]) and the
//! patterns its interner holds, and the pool slot a parked session
//! takes, counted exactly by a counting global allocator.
//!
//! The counters are const-initialized thread-locals, so tests running on
//! parallel threads do not see each other's allocations. What a value
//! *holds* is what dropping it frees: the bytes and blocks released
//! between two reads of the counters around the `drop`.

use awam::absdom::{Pattern, PatternInterner};
use awam::analysis::{Session, SessionParts};
use awam::serve::SessionPool;
use awam::testkit::{gen_program, GenConfig, Rng};
use awam::Analyzer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Live heap bytes allocated by this thread (net of its frees).
    static BYTES: Cell<i64> = const { Cell::new(0) };
    /// Live heap blocks allocated by this thread (net of its frees).
    static BLOCKS: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: i64, blocks: i64) {
    // `try_with`: the allocator can run while the thread's locals are
    // being torn down; those calls are simply not counted.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
    let _ = BLOCKS.try_with(|b| b.set(b.get() + blocks));
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are side effects on plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64, 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64), -1);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64, 0);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(bytes, blocks)` currently live on this thread.
fn live() -> (i64, i64) {
    (BYTES.with(Cell::get), BLOCKS.with(Cell::get))
}

/// The heap bytes and blocks `value` holds: what dropping it frees.
fn held<T>(value: T) -> (i64, i64) {
    let before = live();
    drop(value);
    let after = live();
    (before.0 - after.0, before.1 - after.1)
}

/// The parked session after one query of `goal` with `specs`.
fn parked(analyzer: &Analyzer, goal: &str, specs: &[&str]) -> SessionParts {
    let mut session = analyzer.session();
    session.analyze_query(goal, specs).expect("analysis runs");
    session.into_parts()
}

fn suite_analyzer(name: &str) -> (Analyzer, awam::suite::Benchmark) {
    let b = awam::suite::by_name(name).expect("Table 1 program");
    let analyzer = Analyzer::compile(&b.parse().expect("parses")).expect("compiles");
    (analyzer, b)
}

/// Bounds on a parked Table 1 session, in bytes and blocks.
fn check_suite_session(name: &str, max_bytes: i64, max_blocks: i64) {
    let (analyzer, b) = suite_analyzer(name);
    let (bytes, blocks) = held(parked(&analyzer, b.entry, b.entry_specs));
    eprintln!("{name}: parked session holds {bytes} B in {blocks} blocks");
    assert!(
        bytes <= max_bytes && blocks <= max_blocks,
        "{name}: parked session holds {bytes} B in {blocks} blocks \
         (bounds {max_bytes} B, {max_blocks} blocks)"
    );
}

// Bounds: 24,448 B in 166 blocks and 135,405 B in 646 blocks when
// written; 85,652 B in 480 blocks and 291,388 B in 2,087 blocks before
// the memo tables grew on demand and patterns became two blocks.

#[test]
fn parked_nreverse_session_is_small() {
    check_suite_session("nreverse", 30_000, 180);
}

#[test]
fn parked_zebra_session_is_small() {
    check_suite_session("zebra", 150_000, 700);
}

/// One program of the serving corpus: a seeded testkit program drawn
/// with the default generator settings, compiled, and the arity of its
/// entry predicate `p0`.
fn testkit_analyzer() -> (Analyzer, usize) {
    let generated = gen_program(&mut Rng::new(3), &GenConfig::default());
    let program = awam::syntax::parse_program(&generated.source()).expect("parses");
    let analyzer = Analyzer::compile(&program).expect("compiles");
    (analyzer, generated.entry_arity())
}

/// The corpus program's session, queried at `p0` with all-`any`
/// (1,041 B in 14 blocks when written; 41,268 B before).
#[test]
fn parked_testkit_session_is_small() {
    let (analyzer, arity) = testkit_analyzer();
    let specs = vec!["any"; arity];
    let (bytes, blocks) = held(parked(&analyzer, "p0", &specs));
    eprintln!("testkit seed 3: parked session holds {bytes} B in {blocks} blocks");
    assert!(
        bytes <= 2_000 && blocks <= 20,
        "testkit seed 3: parked session holds {bytes} B in {blocks} blocks"
    );
}

/// A pattern is two heap blocks (its node slab and its argument slab),
/// and interning one adds nothing else per pattern: no bucket vector.
#[test]
fn every_interned_pattern_costs_two_blocks() {
    for name in ["nreverse", "zebra", "serialise", "query"] {
        let (analyzer, b) = suite_analyzer(name);
        let entry = Pattern::from_spec(b.entry_specs).expect("specs");
        let analysis = analyzer.analyze(b.entry, &entry).expect("analysis runs");
        let mut patterns: Vec<Pattern> = analysis
            .predicates
            .iter()
            .flat_map(|p| &p.entries)
            .flat_map(|(call, success)| std::iter::once(call).chain(success))
            .filter(|p| p.arity() > 0)
            .cloned()
            .collect();
        patterns.sort();
        patterns.dedup();
        for p in &patterns {
            assert_eq!(held(p.clone()).1, 2, "{name}: {p:?}");
        }
        // The arena, groundness, chain and index tables exist after the
        // first intern; every distinct pattern after that adds its own
        // two blocks (growth reallocates or swaps a table, never adds
        // one).
        let mut interner = PatternInterner::new();
        interner.intern(patterns[0].clone());
        let before = live();
        for p in &patterns[1..] {
            let (_, hit) = interner.intern(p.clone());
            assert!(!hit, "{name}: patterns were deduplicated");
        }
        let blocks = live().1 - before.1;
        let fresh = patterns.len() as i64 - 1;
        assert_eq!(blocks, 2 * fresh, "{name}: {fresh} patterns interned");
    }
}

/// A built analyzer for the corpus program: code area, operand pools,
/// predicate table, symbol table and seed arena, at exact size. The
/// seed arena is shared with any live analyzer whose program has the
/// same arity set, so when another test holds one, dropping frees less:
/// the bound is an upper bound either way (2,636 B in 21 blocks when
/// written, with the seed; 4,292 B in 26 blocks before instructions
/// shrank to 16 bytes and the predicate table went flat; 5,486 B in 75
/// blocks before names were stored once and the built state shrunk).
#[test]
fn built_testkit_analyzer_is_small() {
    let (analyzer, _) = testkit_analyzer();
    let (bytes, blocks) = held(analyzer);
    eprintln!("testkit seed 3: built analyzer holds {bytes} B in {blocks} blocks");
    assert!(
        bytes <= 2_700 && blocks <= 21,
        "testkit seed 3: built analyzer holds {bytes} B in {blocks} blocks"
    );
}

/// The 1,000 programs of the seed-1 serving corpus (the programs
/// perfbench's serve_warm registers), each compiled into the
/// `Arc<Analyzer>` the daemon's program cache keeps, held together: the
/// cache's share of the daemon's memory. Per program: 3,449 B in 23.9
/// blocks before instructions shrank to 16 bytes, the predicate table
/// went flat and programs with one arity set shared one seed arena.
#[test]
fn cached_corpus_analyzers_are_small() {
    const PROGRAMS: i64 = 1_000;
    let mut rng = Rng::new(1);
    let config = GenConfig::default();
    let sources: Vec<String> = (0..PROGRAMS)
        .map(|_| gen_program(&mut rng, &config).source())
        .collect();
    let analyzers: Vec<Arc<Analyzer>> = sources
        .iter()
        .map(|source| {
            let program = awam::syntax::parse_program(source).expect("parses");
            Arc::new(Analyzer::compile(&program).expect("compiles"))
        })
        .collect();
    let list = (std::mem::size_of_val(analyzers.as_slice()) as i64, 1);
    let (bytes, blocks) = held(analyzers);
    let (bytes, blocks) = (bytes - list.0, blocks - list.1);
    eprintln!(
        "seed-1 corpus: {PROGRAMS} cached analyzers hold {bytes} B in {blocks} blocks, {:.1} B in {:.2} blocks each",
        bytes as f64 / PROGRAMS as f64,
        blocks as f64 / PROGRAMS as f64
    );
    assert!(
        bytes <= 2_000 * PROGRAMS && blocks <= 12 * PROGRAMS,
        "seed-1 corpus: {PROGRAMS} cached analyzers hold {bytes} B in {blocks} blocks"
    );
}

/// A symbol table keeps all its names in one text buffer, one end
/// table, one chain table and one hash index: four blocks, whatever the
/// number of names (zebra's took 91 blocks for 44 names when each name
/// was two strings).
#[test]
fn every_symbol_table_is_four_blocks() {
    for b in awam::suite::all() {
        let program = b.parse().expect("parses");
        let compiled = awam::wam::compile_program(&program).expect("compiles");
        let names = compiled.interner.len();
        let (bytes, blocks) = held(compiled.interner);
        eprintln!("{}: {names} names in {bytes} B, {blocks} blocks", b.name);
        assert!(blocks <= 4, "{}: {names} names in {blocks} blocks", b.name);
    }
}

/// A pool key that parks one session holds one `SessionParts` slot,
/// not the four a vector's first growth reserves (1,568 B per key
/// before). 64 keys of one tenant, beyond the parked sessions' own heap.
#[test]
fn a_parked_session_takes_one_pool_slot() {
    let (analyzer, _) = testkit_analyzer();
    let keys = 64u64;
    let mut parts: Vec<SessionParts> = (0..keys)
        .map(|_| Session::new(&analyzer).into_parts())
        .collect();
    let pool = SessionPool::new(4);
    let before = live();
    for key in 0..keys {
        pool.checkin("tenant", key, parts.pop().expect("one per key"));
    }
    let per_key = (live().0 - before.0) / keys as i64;
    let slot = std::mem::size_of::<SessionParts>() as i64;
    eprintln!("pool: {per_key} B per key, one slot is {slot} B");
    assert!(
        per_key < 2 * slot,
        "pool: {per_key} B per parked key, one slot is {slot} B"
    );
    assert_eq!(pool.snapshot().0, keys as usize);
}
