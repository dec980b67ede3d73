//! Fault injection for the correctness harness.
//!
//! The fuzz harness (`awam-testkit`, `awam fuzz`) needs to demonstrate
//! that its oracle matrix actually catches analyzer bugs, not just that
//! healthy code passes. This module provides process-global switches
//! that plant a known bug in a hot invariant; the harness turns one on,
//! runs a campaign, and asserts the oracles fail and shrink the
//! counterexample.
//!
//! Faults are **off** by default and exist only for the harness — never
//! enable one outside a dedicated fuzz/test process. They are globals
//! (not per-analyzer knobs) on purpose: the point is to corrupt the
//! analyzer *as deployed*, behind its public API, exactly the way a real
//! regression would.

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, [`crate::ExtensionTable::update_success`] never widens an
/// existing success summary: the first success pattern recorded for a
/// calling pattern is frozen and later lubs are skipped. This breaks the
/// monotone-accumulation invariant of §6's extension table and yields
/// unsound (too narrow) summaries.
static SKIP_LUB: AtomicBool = AtomicBool::new(false);

/// Enable or disable the skip-lub fault (see [`skip_lub`]).
pub fn set_skip_lub(on: bool) {
    SKIP_LUB.store(on, Ordering::Relaxed);
}

/// Whether the skip-lub fault is active.
pub fn skip_lub() -> bool {
    SKIP_LUB.load(Ordering::Relaxed)
}

/// When set, the next analysis to start (any [`crate::Analyzer`],
/// [`crate::Session`] or incremental query) panics, and the switch turns
/// itself off: a one-shot fault for checking that a server contains a
/// panicking request. Not reachable from the CLI's `--fault`.
static PANIC_IN_ANALYZE: AtomicBool = AtomicBool::new(false);

/// Arm or disarm the one-shot panic-in-analyze fault: once armed, the
/// next analysis to start panics and disarms it.
pub fn set_panic_in_analyze(on: bool) {
    PANIC_IN_ANALYZE.store(on, Ordering::Relaxed);
}

/// Panic if the panic-in-analyze fault is armed, disarming it first.
pub(crate) fn maybe_panic_in_analyze() {
    if PANIC_IN_ANALYZE.load(Ordering::Relaxed) && PANIC_IN_ANALYZE.swap(false, Ordering::Relaxed) {
        panic!("injected fault: panic-in-analyze");
    }
}

/// Parse a fault name from the CLI surface and enable it.
///
/// # Errors
///
/// Returns the unknown name back for error reporting.
pub fn enable(name: &str) -> Result<(), String> {
    match name {
        "skip-lub" => {
            set_skip_lub(true);
            Ok(())
        }
        other => Err(format!("unknown fault `{other}` (available: skip-lub)")),
    }
}
