//! String interning for atoms and functor names.
//!
//! Every atom and functor name in a [`crate::Program`] is interned into a
//! [`Symbol`] — a cheap, `Copy`, hashable handle. The [`Interner`] owns the
//! backing text and pre-interns the handful of atoms the rest of the
//! workspace needs to recognize structurally (`[]`, `'.'`, `','`, …) as
//! symbols 0–12, so those are the same constants in every interner.

use crate::fxhash::FxHashMap;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// An interned atom or functor name.
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; comparing symbols from different interners is a logic error (but
/// not UB — they are plain indices). The well-known atoms are the
/// exception: every interner numbers them alike ([`Symbol::NIL`], …).
///
/// # Examples
///
/// ```
/// use prolog_syntax::{Interner, Symbol};
/// let mut i = Interner::new();
/// let a = i.intern("foo");
/// let b = i.intern("foo");
/// assert_eq!(a, b);
/// assert_eq!(i.resolve(a), "foo");
/// assert_eq!(i.nil(), Symbol::NIL);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Raw index of this symbol in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a symbol from a raw index previously obtained via
    /// [`Symbol::index`].
    pub fn from_index(index: usize) -> Self {
        Symbol(index as u32)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

macro_rules! well_known {
    ($($method:ident, $constant:ident => $text:expr, $doc:expr;)*) => {
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum WellKnown { $($method),* }

        /// The atoms every [`Interner`] pre-interns, in interning order.
        impl Symbol {
            $(
                #[doc = $doc]
                pub const $constant: Symbol = Symbol(WellKnown::$method as u32);
            )*
        }

        /// Accessors for atoms that are pre-interned by [`Interner::new`].
        impl Interner {
            $(
                #[doc = $doc]
                pub const fn $method(&self) -> Symbol {
                    Symbol::$constant
                }
            )*
        }

        const WELL_KNOWN_TEXTS: &[&str] = &[$($text),*];
    };
}

well_known! {
    nil, NIL => "[]", "The empty-list atom `[]`.";
    dot, DOT => ".", "The list constructor functor `'.'`.";
    comma, COMMA => ",", "The conjunction functor `','`.";
    semicolon, SEMICOLON => ";", "The disjunction functor `';'`.";
    arrow, ARROW => "->", "The if-then functor `'->'`.";
    neck, NECK => ":-", "The clause-neck functor `':-'`.";
    true_, TRUE => "true", "The atom `true`.";
    fail, FAIL => "fail", "The atom `fail`.";
    cut, CUT => "!", "The cut atom `!`.";
    not, NOT => "\\+", "The negation-as-failure functor `'\\\\+'`.";
    curly, CURLY => "{}", "The curly-braces atom `{}`.";
    question, QUESTION => "?-", "The query functor `'?-'`.";
    ellipsis, ELLIPSIS => "...", "The atom `'...'` marking a cyclic-term cut during reification.";
}

/// End of a bucket chain in [`Interner`]'s `next` table.
const CHAIN_END: u32 = u32::MAX;

/// Interns strings into [`Symbol`]s.
///
/// Every name is stored once: all names sit back to back in one text
/// buffer, symbol `i` being the span that ends at `ends[i]`. A hash
/// index maps a name's hash to the first symbol of its bucket, and the
/// rest of the bucket is chained through one `u32` per symbol, in
/// interning order — so an interner is four heap blocks whatever its
/// size. See the [module documentation](self) for an overview.
#[derive(Debug, Clone)]
pub struct Interner {
    /// Every name, in interning order.
    text: String,
    /// Symbol → the end of its name in `text` (it starts where the
    /// previous symbol's ends).
    ends: Vec<u32>,
    /// Name hash → the bucket's first symbol.
    index: FxHashMap<u64, u32>,
    /// Symbol → the next symbol of its bucket, or [`CHAIN_END`].
    next: Vec<u32>,
    /// Hashes names with a per-interner random key: names come from
    /// program text a client sends, and a fixed-seed hash would let it
    /// craft names that all chain into one bucket.
    hasher: RandomState,
}

impl Default for Interner {
    /// The same as [`Interner::new`]: the well-known atoms are always
    /// present.
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// Create an interner with the well-known atoms pre-interned.
    pub fn new() -> Self {
        let mut interner = Interner {
            text: String::new(),
            ends: Vec::new(),
            index: FxHashMap::default(),
            next: Vec::new(),
            hasher: RandomState::new(),
        };
        for text in WELL_KNOWN_TEXTS {
            interner.intern(text);
        }
        interner
    }

    /// Intern `name`, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let hash = self.hasher.hash_one(name);
        let tail = match self.probe(hash, name) {
            Ok(symbol) => return symbol,
            Err(tail) => tail,
        };
        let symbol = u32::try_from(self.ends.len()).expect("interner overflow");
        assert_ne!(symbol, CHAIN_END, "interner overflow");
        match tail {
            Some(tail) => self.next[tail as usize] = symbol,
            None => {
                self.index.insert(hash, symbol);
            }
        }
        self.text.push_str(name);
        self.ends
            .push(u32::try_from(self.text.len()).expect("interner text overflow"));
        self.next.push(CHAIN_END);
        Symbol(symbol)
    }

    /// Look up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.probe(self.hasher.hash_one(name), name).ok()
    }

    /// Walk `hash`'s bucket in interning order: the symbol named `name`,
    /// or else the bucket's last symbol (`None`: no bucket yet).
    fn probe(&self, hash: u64, name: &str) -> Result<Symbol, Option<u32>> {
        let Some(&first) = self.index.get(&hash) else {
            return Err(None);
        };
        let mut symbol = first;
        loop {
            if self.resolve(Symbol(symbol)) == name {
                return Ok(Symbol(symbol));
            }
            match self.next[symbol as usize] {
                CHAIN_END => return Err(Some(symbol)),
                next => symbol = next,
            }
        }
    }

    /// The text of `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` did not come from this interner.
    pub fn resolve(&self, symbol: Symbol) -> &str {
        let i = symbol.0 as usize;
        let end = self.ends[i] as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..end]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no strings have been interned (never true: every
    /// interner pre-interns the well-known atoms).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Drop the text buffer's and per-symbol tables' spare capacity (a
    /// built analyzer keeps its symbol table at exact size).
    pub fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.next.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("hello");
        let b = i.intern("hello");
        assert_eq!(a, b);
        assert_eq!(i.resolve(a), "hello");
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
    }

    #[test]
    fn well_known_atoms_are_preinterned() {
        let i = Interner::new();
        assert_eq!(i.resolve(i.nil()), "[]");
        assert_eq!(i.resolve(i.dot()), ".");
        assert_eq!(i.resolve(i.comma()), ",");
        assert_eq!(i.resolve(i.neck()), ":-");
        assert_eq!(i.resolve(i.cut()), "!");
        assert_eq!(i.resolve(i.not()), "\\+");
    }

    #[test]
    fn default_preinterns_the_well_known_atoms() {
        let i = Interner::default();
        assert_eq!(i.len(), WELL_KNOWN_TEXTS.len());
        assert_eq!(i.resolve(i.nil()), "[]");
        assert_eq!(i.resolve(Symbol::ELLIPSIS), "...");
        assert_eq!(i.lookup("true"), Some(Symbol::TRUE));
    }

    #[test]
    fn names_are_stored_once_in_interning_order() {
        let mut i = Interner::new();
        let first = i.len();
        let names = ["p", "q", "", "p", "longer_name", "q"];
        let symbols: Vec<Symbol> = names.iter().map(|n| i.intern(n)).collect();
        assert_eq!(symbols[0].index(), first);
        assert_eq!(symbols[1].index(), first + 1);
        assert_eq!(symbols[2].index(), first + 2);
        assert_eq!(symbols[3], symbols[0]);
        assert_eq!(symbols[4].index(), first + 3);
        assert_eq!(symbols[5], symbols[1]);
        for (name, symbol) in names.iter().zip(&symbols) {
            assert_eq!(i.resolve(*symbol), *name);
        }
        assert_eq!(i.len(), first + 4);
    }

    #[test]
    fn colliding_names_chain_in_interning_order() {
        // Point the buckets of "b" and of a fresh "c" at the one that
        // starts with "a": lookups must walk the chain, and interning
        // "c" must append it at the chain's end.
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        i.next[a.0 as usize] = b.0;
        i.index.insert(i.hasher.hash_one("b"), a.0);
        i.index.insert(i.hasher.hash_one("c"), a.0);
        assert_eq!(i.lookup("b"), Some(b));
        assert_eq!(i.lookup("c"), None);
        let c = i.intern("c");
        assert_eq!(i.next[b.0 as usize], c.0);
        assert_eq!(i.lookup("c"), Some(c));
        assert_eq!(i.intern("b"), b);
        assert_eq!(i.resolve(c), "c");
    }

    #[test]
    fn lookup_does_not_intern() {
        let i = Interner::new();
        assert!(i.lookup("never_seen").is_none());
        assert!(i.lookup("[]").is_some());
    }

    #[test]
    fn symbol_index_round_trips() {
        let mut i = Interner::new();
        let s = i.intern("roundtrip");
        assert_eq!(Symbol::from_index(s.index()), s);
    }
}
