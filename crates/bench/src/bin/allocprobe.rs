//! Diagnostic: allocator traffic per cold analysis, and the heap a
//! parked session holds, for every Table 1 program.
//!
//! ```sh
//! cargo run -p awam-bench --release --bin allocprobe
//! ```
//!
//! One row per program: the `alloc` and `realloc` calls and the bytes
//! they asked for in one cold `Analyzer::analyze` (the second of two
//! identical runs, so one-time process set-up is not charged to it),
//! and the bytes and blocks a parked session holds after one query —
//! what dropping its `SessionParts` frees. Scratch-reuse and footprint
//! regressions show up here as raw counts instead of a profile guess.

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

fn main() {
    println!(
        "{:<10} {:>7} {:>8} {:>9} {:>12} {:>13}",
        "program", "allocs", "reallocs", "bytes", "parked_bytes", "parked_blocks"
    );
    for b in bench_suite::all() {
        let program = b.parse().expect("Table 1 program parses");
        let compiled = wam::compile_program(&program).expect("Table 1 program compiles");
        let analyzer = awam_core::Analyzer::builder().build(compiled);
        let entry = absdom::Pattern::from_spec(b.entry_specs).expect("entry specs");

        analyzer.analyze(b.entry, &entry).expect("analysis runs");
        let before = traffic();
        analyzer.analyze(b.entry, &entry).expect("analysis runs");
        let after = traffic();

        let mut session = analyzer.session();
        session.analyze(b.entry, &entry).expect("analysis runs");
        let parts = session.into_parts();
        let held = live();
        drop(parts);
        let freed = live();

        println!(
            "{:<10} {:>7} {:>8} {:>9} {:>12} {:>13}",
            b.name,
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
            held.0 - freed.0,
            held.1 - freed.1,
        );
    }
}
