//! # awam-testkit — the generative-testing subsystem
//!
//! One deterministic, seed-replayable harness shared by every randomized
//! test in the workspace and by the `awam fuzz` CLI subcommand:
//!
//! * [`Rng`] — the single PRNG (xorshift64* with a splitmix64 seed
//!   scrambler and an unbiased [`Rng::below`]), replacing the three
//!   divergent inline copies the test files used to carry;
//! * [`proggen`] — random well-formed Prolog programs with a configurable
//!   size/recursion/builtin mix ([`GenConfig`]);
//! * [`patgen`] — random abstract patterns and random concrete instances
//!   of a pattern (γ-sampling);
//! * [`editgen`] — random well-formed clause-level edits over a parsed
//!   program, each replayable from `(seed, case, edit index)`, plus a
//!   greedy edit-sequence minimizer;
//! * [`mod@shrink`] — a greedy delta-debugging shrinker (drop predicates →
//!   drop clauses → drop goals → simplify terms) that re-checks the
//!   failing oracle at every step;
//! * [`oracle`] — the differential oracle matrix: concrete-call-coverage
//!   soundness, sequential-vs-batch equality, cold-vs-warm session
//!   equality, termination/step-budget, provenance and fusion
//!   invisibility, and incremental-vs-cold equality;
//! * [`campaign`] — the campaign driver gluing it all together, with
//!   per-case replay seeds and JSON failure dumps.
//!
//! In-tree tests are thin bounded wrappers over this crate; their
//! iteration counts honor the `AWAM_FUZZ_ITERS` environment variable
//! (see [`fuzz_iters`]). Long campaigns run outside `cargo test` via
//! `awam fuzz --seed N --cases N [--oracle NAME] [--minimize]`.

#![warn(missing_docs)]

pub mod campaign;
pub mod editgen;
pub mod oracle;
pub mod patgen;
pub mod proggen;
pub mod rng;
pub mod shrink;

pub use campaign::{run_campaign, FuzzConfig, FuzzFailure, FuzzReport, Minimized};
pub use editgen::{gen_edit, minimize_edits};
pub use oracle::{check, Oracle, OracleOutcome};
pub use patgen::{gamma_instance, instance_of_leaf, random_pattern, random_pattern_n};
pub use proggen::{gen_program, GenConfig, GenProgram};
pub use rng::{case_seed, fuzz_iters, Rng};
pub use shrink::{shrink, ShrinkReport};
