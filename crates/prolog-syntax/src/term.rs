//! Terms, clauses and programs.

use crate::interner::{Interner, Symbol};
use std::fmt;

/// A clause-local variable identifier.
///
/// Variables are numbered per clause in first-occurrence order; the clause's
/// [`Clause::var_names`] table maps them back to source names for display.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// Raw index of the variable within its clause.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A Prolog term.
///
/// Lists are represented structurally: `[H|T]` is `Struct('.', [H, T])` and
/// `[]` is `Atom(nil)`. The parser produces this representation directly.
///
/// # Examples
///
/// ```
/// use prolog_syntax::{parse_term, Term};
/// let (term, interner, names) = parse_term("f(X, [a], 3)")?;
/// match &term {
///     Term::Struct(f, args) => {
///         assert_eq!(interner.resolve(*f), "f");
///         assert_eq!(args.len(), 3);
///     }
///     _ => unreachable!(),
/// }
/// # Ok::<(), prolog_syntax::ParseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable, numbered within its clause.
    Var(VarId),
    /// An integer constant.
    Int(i64),
    /// An atom (including `[]`).
    Atom(Symbol),
    /// A compound term `f(t1, …, tn)` with `n >= 1`.
    Struct(Symbol, Vec<Term>),
}

impl Term {
    /// Construct a cons cell `[head|tail]`.
    pub fn cons(interner: &Interner, head: Term, tail: Term) -> Term {
        Term::Struct(interner.dot(), vec![head, tail])
    }

    /// Construct the empty list `[]`.
    pub fn nil(interner: &Interner) -> Term {
        Term::Atom(interner.nil())
    }

    /// Construct a proper list from `items`.
    pub fn list(interner: &Interner, items: impl IntoIterator<Item = Term>) -> Term {
        let items: Vec<Term> = items.into_iter().collect();
        let mut tail = Term::nil(interner);
        for item in items.into_iter().rev() {
            tail = Term::cons(interner, item, tail);
        }
        tail
    }

    /// The functor name and arity of this term, treating atoms as arity-0
    /// functors. Variables and integers have no functor.
    pub fn functor(&self) -> Option<(Symbol, usize)> {
        match self {
            Term::Atom(name) => Some((*name, 0)),
            Term::Struct(name, args) => Some((*name, args.len())),
            Term::Var(_) | Term::Int(_) => None,
        }
    }

    /// Whether this term is the atom `sym`.
    pub fn is_atom(&self, sym: Symbol) -> bool {
        matches!(self, Term::Atom(s) if *s == sym)
    }

    /// Whether this term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Int(_) | Term::Atom(_) => true,
            Term::Struct(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// All variables occurring in the term, in first-occurrence order,
    /// without duplicates.
    pub fn variables(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut Vec<VarId>) {
        match self {
            Term::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Term::Int(_) | Term::Atom(_) => {}
            Term::Struct(_, args) => {
                for arg in args {
                    arg.collect_variables(out);
                }
            }
        }
    }

    /// The maximum nesting depth of the term (constants and variables have
    /// depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Term::Var(_) | Term::Int(_) | Term::Atom(_) => 1,
            Term::Struct(_, args) => 1 + args.iter().map(Term::depth).max().unwrap_or(0),
        }
    }

    /// View a conjunction `(a, b, c)` as a flat list of goals.
    pub fn conjuncts(&self, interner: &Interner) -> Vec<Term> {
        let mut out = Vec::new();
        self.collect_conjuncts(interner.comma(), &mut out);
        out
    }

    fn collect_conjuncts(&self, comma: Symbol, out: &mut Vec<Term>) {
        match self {
            Term::Struct(f, args) if *f == comma && args.len() == 2 => {
                args[0].collect_conjuncts(comma, out);
                args[1].collect_conjuncts(comma, out);
            }
            other => out.push(other.clone()),
        }
    }
}

/// A predicate key: functor name and arity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PredKey {
    /// The predicate's functor name.
    pub name: Symbol,
    /// The predicate's arity.
    pub arity: usize,
}

impl PredKey {
    /// Build a key from a callable term (atom or struct).
    pub fn of_term(term: &Term) -> Option<PredKey> {
        term.functor().map(|(name, arity)| PredKey { name, arity })
    }

    /// Render as `name/arity`.
    pub fn display(&self, interner: &Interner) -> String {
        format!("{}/{}", interner.resolve(self.name), self.arity)
    }
}

/// One program clause `Head :- Body`.
///
/// Facts have body `true`. The body is kept as a term so that control
/// constructs (`;`, `->`, `\+`) survive parsing; the WAM compiler performs
/// its own normalization.
#[derive(Clone, Debug, PartialEq)]
pub struct Clause {
    /// The clause head (an atom or compound term, never a variable).
    pub head: Term,
    /// The clause body; the atom `true` for facts.
    pub body: Term,
    /// Source names of the clause's variables, indexed by [`VarId`].
    /// Anonymous variables are named `_`.
    pub var_names: Vec<String>,
}

impl Clause {
    /// The predicate this clause belongs to.
    pub fn pred_key(&self) -> PredKey {
        PredKey::of_term(&self.head).expect("clause head is atom or struct")
    }

    /// Number of distinct variables in the clause.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }
}

/// A parsed program: an interner plus clauses in source order.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The interner for all atoms/functors in the program.
    pub interner: Interner,
    /// Clauses in source order.
    pub clauses: Vec<Clause>,
    /// Directive goals (`:- Goal.`) in source order, currently only recorded.
    pub directives: Vec<Term>,
}

impl Program {
    /// Create an empty program with a fresh interner.
    pub fn new() -> Self {
        Program {
            interner: Interner::new(),
            clauses: Vec::new(),
            directives: Vec::new(),
        }
    }

    /// Group clause indices by predicate, preserving first-occurrence order.
    pub fn predicate_index(&self) -> Vec<(PredKey, Vec<usize>)> {
        let mut order: Vec<PredKey> = Vec::new();
        let mut groups: std::collections::HashMap<PredKey, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, clause) in self.clauses.iter().enumerate() {
            let key = clause.pred_key();
            let entry = groups.entry(key).or_default();
            if entry.is_empty() {
                order.push(key);
            }
            entry.push(i);
        }
        order
            .into_iter()
            .map(|key| {
                let clauses = groups.remove(&key).unwrap_or_default();
                (key, clauses)
            })
            .collect()
    }

    /// Total number of argument places over all predicates (the `Args`
    /// column of the paper's Table 1).
    pub fn total_arg_places(&self) -> usize {
        self.predicate_index()
            .iter()
            .map(|(key, _)| key.arity)
            .sum()
    }

    /// Number of distinct predicates (the `Preds` column of Table 1).
    pub fn num_predicates(&self) -> usize {
        self.predicate_index().len()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for clause in &self.clauses {
            writeln!(
                f,
                "{}",
                crate::pretty::clause_to_string(clause, &self.interner)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> Program {
        crate::parse_program(src).expect("parse")
    }

    #[test]
    fn list_construction_round_trips() {
        let mut i = Interner::new();
        let a = Term::Atom(i.intern("a"));
        let b = Term::Atom(i.intern("b"));
        let list = Term::list(&i, vec![a.clone(), b.clone()]);
        match &list {
            Term::Struct(dot, args) => {
                assert_eq!(*dot, i.dot());
                assert_eq!(args[0], a);
            }
            _ => panic!("expected cons"),
        }
    }

    #[test]
    fn default_program_knows_the_well_known_atoms() {
        let p = Program::default();
        assert_eq!(p.interner.resolve(p.interner.nil()), "[]");
        assert_eq!(p.interner.len(), Program::new().interner.len());
    }

    #[test]
    fn ground_detection() {
        let p = program("p(f(a, 1), X).");
        let head = &p.clauses[0].head;
        match head {
            Term::Struct(_, args) => {
                assert!(args[0].is_ground());
                assert!(!args[1].is_ground());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let p = program("p(X, Y, X, Z).");
        let vars = p.clauses[0].head.variables();
        assert_eq!(vars, vec![VarId(0), VarId(1), VarId(2)]);
    }

    #[test]
    fn conjuncts_flatten() {
        let p = program("p :- a, b, c.");
        let goals = p.clauses[0].body.conjuncts(&p.interner);
        assert_eq!(goals.len(), 3);
    }

    #[test]
    fn predicate_index_groups_and_orders() {
        let p = program("a. b(1). a. c(X) :- b(X).");
        let index = p.predicate_index();
        assert_eq!(index.len(), 3);
        assert_eq!(index[0].1, vec![0, 2]);
        assert_eq!(p.num_predicates(), 3);
        assert_eq!(p.total_arg_places(), 1 + 1);
    }

    #[test]
    fn depth_counts_nesting() {
        let p = program("p(f(g(h(a)))).");
        assert_eq!(p.clauses[0].head.depth(), 5);
    }
}
