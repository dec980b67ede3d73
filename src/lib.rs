//! # awam — compiled dataflow analysis of logic programs
//!
//! A reproduction of *Compiling Dataflow Analysis of Logic Programs*
//! (Tan & Lin, PLDI 1992): a Prolog dataflow analyzer (mode, type and
//! variable-aliasing inference) that runs as a reinterpretation of the WAM
//! instruction set over an abstract domain, with an extension-table control
//! scheme, instead of as a meta-interpreter hosted on Prolog.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`syntax`] — Prolog terms, parser and printer;
//! * [`wam`] — the WAM instruction set, compiler and textual code format;
//! * [`exec`] — the shared execution substrate both machines instantiate;
//! * [`machine`] — the concrete WAM runtime (standard Prolog execution);
//! * [`absdom`] — the abstract domain of §3 of the paper;
//! * [`analysis`] — the abstract WAM analyzer (the paper's contribution);
//! * [`baseline`] — the native meta-interpreting comparator;
//! * [`hosted_analyzer`] — the Prolog-hosted comparators (meta-interpreted
//!   and transformed), run on [`machine`];
//! * [`opt`] — analysis-driven WAM optimizations;
//! * [`serve`] — the multi-tenant analysis daemon behind `awam serve`
//!   (compiled-program cache, warm session pools, line-JSON protocol);
//! * [`suite`] — the Table 1 benchmark programs;
//! * [`testkit`] — the generative-testing subsystem (shared PRNG,
//!   program/pattern generators, shrinker, differential oracle matrix)
//!   behind the randomized tests and `awam fuzz`.
//!
//! # Quickstart
//!
//! ```
//! use awam::{Analyzer, Error};
//! use awam::syntax::parse_program;
//!
//! let program = parse_program(
//!     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
//! )?;
//! let analyzer = Analyzer::compile(&program)?;
//! let result = analyzer.analyze_query("app", &["glist", "glist", "var"])?;
//! let report = result.report(&analyzer);
//! assert!(report.contains("app/3"));
//! # Ok::<(), Error>(())
//! ```
//!
//! # Sessions and batch analysis
//!
//! [`Analyzer::analyze`] takes `&self`; for cross-query reuse open a
//! [`Session`] (persistent extension table, warm-start for subsumed
//! queries), and for throughput fan goals out with
//! [`Analyzer::analyze_batch`]:
//!
//! ```
//! use awam::{Analyzer, BatchGoal, Error};
//! use awam::syntax::parse_program;
//!
//! let program = parse_program(
//!     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
//! )?;
//! let analyzer = Analyzer::compile(&program)?;
//!
//! // Session: the second, identical query is a warm hit.
//! let mut session = analyzer.session();
//! session.analyze_query("app", &["glist", "glist", "var"])?;
//! let warm = session.analyze_query("app", &["glist", "glist", "var"])?;
//! assert_eq!(warm.iterations, 0);
//!
//! // Batch: independent goals across scoped threads.
//! let goals = vec![
//!     BatchGoal::from_spec("app", &["glist", "glist", "var"])?,
//!     BatchGoal::from_spec("app", &["var", "var", "glist"])?,
//! ];
//! for result in analyzer.analyze_batch(&goals, 2) {
//!     result?;
//! }
//! # Ok::<(), Error>(())
//! ```

#![warn(missing_docs)]

use std::fmt;

pub use absdom;
pub use awam_core as analysis;
pub use awam_exec as exec;
pub use awam_obs as obs;
pub use awam_serve as serve;
pub use awam_testkit as testkit;
pub use baseline;
pub use bench_suite as suite;
pub use hosted as hosted_analyzer;
pub use prolog_syntax as syntax;
pub use wam;
pub use wam_machine as machine;
pub use wam_opt as opt;

pub use awam_core::{
    Analysis, Analyzer, AnalyzerBuilder, BatchGoal, DerivationReport, ProfileData, Session,
};

/// The unified error type of the `awam` facade: everything a parse →
/// compile → analyze (or run) pipeline can fail with, one enum.
///
/// Every variant wraps the layer-specific error and forwards it as
/// [`std::error::Error::source`], so callers can either match on the
/// phase or just `?`-propagate and print.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Prolog source text failed to parse.
    Parse(syntax::ParseError),
    /// The WAM compiler rejected the program.
    Compile(wam::CompileError),
    /// The abstract analyzer failed (unknown entry, bad spec, resource
    /// bounds).
    Analysis(analysis::AnalysisError),
    /// The concrete WAM runtime failed.
    Machine(machine::RunError),
    /// Saved `.wam` text failed to parse back.
    Text(wam::text::TextError),
    /// Reading or writing a file failed.
    Io(std::io::Error),
    /// Malformed command-line or API usage (bad flags, missing
    /// arguments, unparseable spec strings).
    Usage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Analysis(e) => write!(f, "analysis error: {e}"),
            Error::Machine(e) => write!(f, "runtime error: {e}"),
            Error::Text(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Analysis(e) => Some(e),
            Error::Machine(e) => Some(e),
            Error::Text(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Usage(_) => None,
        }
    }
}

impl From<syntax::ParseError> for Error {
    fn from(e: syntax::ParseError) -> Error {
        Error::Parse(e)
    }
}

impl From<wam::CompileError> for Error {
    fn from(e: wam::CompileError) -> Error {
        Error::Compile(e)
    }
}

impl From<analysis::AnalysisError> for Error {
    fn from(e: analysis::AnalysisError) -> Error {
        Error::Analysis(e)
    }
}

impl From<machine::RunError> for Error {
    fn from(e: machine::RunError) -> Error {
        Error::Machine(e)
    }
}

impl From<wam::text::TextError> for Error {
    fn from(e: wam::text::TextError) -> Error {
        Error::Text(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Io(e)
    }
}

impl From<String> for Error {
    fn from(msg: String) -> Error {
        Error::Usage(msg)
    }
}

impl From<&str> for Error {
    fn from(msg: &str) -> Error {
        Error::Usage(msg.to_owned())
    }
}
