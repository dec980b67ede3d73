//! Prolog front-end: terms, lexer, operator-precedence parser and
//! pretty-printer.
//!
//! This crate is the source-language substrate of the `awam` workspace. It
//! knows nothing about the WAM or abstract interpretation; it only reads
//! Prolog text into a [`Program`] of [`Clause`]s over [`Term`]s, and prints
//! them back.
//!
//! # Examples
//!
//! ```
//! use prolog_syntax::parse_program;
//!
//! let program = parse_program("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).")?;
//! assert_eq!(program.clauses.len(), 2);
//! let preds = program.predicate_index();
//! assert_eq!(preds.len(), 1);
//! # Ok::<(), prolog_syntax::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod fxhash;
pub mod interner;
pub mod lexer;
pub mod ops;
pub mod parser;
pub mod pretty;
pub mod term;

pub use interner::{Interner, Symbol};
pub use lexer::{LexError, Lexer, Token, TokenKind};
pub use parser::{parse_program, parse_program_with_interner, parse_term, ParseError, Parser};
pub use pretty::{clause_to_string, term_to_string};
pub use term::{Clause, PredKey, Program, Term, VarId};
