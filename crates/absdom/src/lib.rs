//! The abstract domain of Tan & Lin (PLDI 1992), §3: simple types
//! (`any`, `nv`, `ground`, `const`, `atom`, `integer`, `var`), parametric
//! `α-list` and `struct(f/n, …)` types, and argument-tuple patterns with
//! definite-aliasing information.
//!
//! The domain is shared by the compiled analyzer (`awam-core`), which
//! manipulates its elements as instantiable heap cells, and by the
//! meta-interpreting baseline (`baseline`), which manipulates them as
//! pattern graphs directly.
//!
//! # Examples
//!
//! ```
//! use absdom::{AbsLeaf, Pattern};
//!
//! // s_unify(any, ground) = ground — §4.1 of the paper.
//! assert_eq!(AbsLeaf::Any.unify(AbsLeaf::Ground), Some(AbsLeaf::Ground));
//!
//! // Patterns are canonical: `glist` and `list(g)` are the same element.
//! let p = Pattern::from_spec(&["atom", "glist"]).unwrap();
//! assert_eq!(p, Pattern::from_spec(&["atom", "list(g)"]).unwrap());
//! ```

#![warn(missing_docs)]

pub mod intern;
pub mod leaf;
pub mod pattern;
pub mod weaken;

pub use intern::{FxHashMap, PatternId, PatternInterner, SessionInterner};
pub use leaf::AbsLeaf;
pub use pattern::{
    dot_symbol, is_dot_symbol, nil_symbol, ArgSpan, LubScratch, NodeId, PNode, Pattern,
    PatternBuilder,
};
pub use weaken::DomainConfig;

/// The paper's term-depth restriction constant (§6): subterms at depth
/// `k` or greater are summarized by their primary approximation, trading
/// precision for guaranteed termination.
pub const DEFAULT_TERM_DEPTH: usize = 4;
