//! Conversion between syntax [`Term`]s and heap cells.

use crate::cell::Cell;
use crate::eval::deref;
use prolog_syntax::{Interner, Symbol, Term, VarId};
use std::collections::HashMap;
use wam::CompiledProgram;

/// Build `term` on the heap and return the cell referring to it.
///
/// `var_addrs` maps each [`VarId`] in the term to its heap address, shared
/// across multiple `build` calls so that variables repeated between
/// arguments alias correctly. Symbols are resolved through `interner`
/// (which may be an extension of the program's interner) and re-interned
/// into the program's symbol space via text when necessary — in practice
/// the two interners share prefixes, so symbols pass through unchanged.
pub fn build(
    heap: &mut Vec<Cell>,
    term: &Term,
    var_addrs: &mut Vec<Option<usize>>,
    interner: &Interner,
    program: &CompiledProgram,
) -> Cell {
    match term {
        Term::Var(v) => {
            let idx = v.index();
            if idx >= var_addrs.len() {
                var_addrs.resize(idx + 1, None);
            }
            match var_addrs[idx] {
                Some(addr) => Cell::Ref(addr),
                None => {
                    let addr = heap.len();
                    heap.push(Cell::Ref(addr));
                    var_addrs[idx] = Some(addr);
                    Cell::Ref(addr)
                }
            }
        }
        Term::Int(i) => Cell::Int(*i),
        Term::Atom(a) => Cell::Con(translate(*a, interner, program)),
        Term::Struct(f, args) => {
            let is_cons = interner.resolve(*f) == "." && args.len() == 2;
            // Children first (they may allocate), then the spine.
            let child_cells: Vec<Cell> = args
                .iter()
                .map(|a| build(heap, a, var_addrs, interner, program))
                .collect();
            if is_cons {
                let p = heap.len();
                heap.push(child_cells[0]);
                heap.push(child_cells[1]);
                Cell::Lis(p)
            } else {
                let p = heap.len();
                heap.push(Cell::Fun(
                    translate(*f, interner, program),
                    args.len() as u16,
                ));
                for c in child_cells {
                    heap.push(c);
                }
                Cell::Str(p)
            }
        }
    }
}

/// Map a symbol from a (possibly extended) interner into the program's
/// symbol space. Because extensions share the program interner's prefix,
/// symbols that exist in both resolve to themselves.
fn translate(
    sym: prolog_syntax::Symbol,
    interner: &Interner,
    program: &CompiledProgram,
) -> prolog_syntax::Symbol {
    if sym.index() < program.interner.len() {
        sym
    } else {
        // A genuinely new symbol: it cannot match anything in the program,
        // but it must still render. Fall back to looking it up by text (it
        // will be absent, so keep the foreign symbol — comparisons against
        // program symbols will simply fail, which is the right semantics).
        program
            .interner
            .lookup(interner.resolve(sym))
            .unwrap_or(sym)
    }
}

/// Names fresh variables `_G0`, `_G1`, … during reification.
#[derive(Debug, Default)]
pub struct Namer {
    names: Vec<String>,
    by_addr: HashMap<usize, VarId>,
}

impl Namer {
    /// Create an empty namer.
    pub fn new() -> Self {
        Namer::default()
    }

    /// The generated names, indexed by [`VarId`].
    pub fn names(&self) -> &[String] {
        &self.names
    }

    fn var_for(&mut self, addr: usize) -> VarId {
        if let Some(&v) = self.by_addr.get(&addr) {
            return v;
        }
        let v = VarId(self.names.len() as u32);
        self.names.push(format!("_G{}", self.names.len()));
        self.by_addr.insert(addr, v);
        v
    }
}

/// Convert the heap term rooted at `cell` back into a syntax [`Term`].
///
/// Unbound variables become fresh [`Term::Var`]s named by `namer`, with
/// aliasing preserved (two occurrences of the same unbound cell map to the
/// same variable). Occurs-check-free unification can leave cyclic terms on
/// the heap; a back-edge to a compound already on the current path is cut
/// to the atom `'...'` (the way toplevels conventionally print cycles).
pub fn reify(heap: &[Cell], cell: Cell, namer: &mut Namer) -> Term {
    reify_acyclic(heap, cell, namer, &mut Vec::new())
}

fn reify_acyclic(heap: &[Cell], cell: Cell, namer: &mut Namer, path: &mut Vec<usize>) -> Term {
    match deref(heap, cell) {
        Cell::Ref(addr) => Term::Var(namer.var_for(addr)),
        Cell::Int(i) => Term::Int(i),
        Cell::Con(s) => Term::Atom(s),
        Cell::Lis(p) => {
            if path.contains(&p) {
                return Term::Atom(Symbol::ELLIPSIS);
            }
            path.push(p);
            let head = reify_acyclic(heap, Cell::Ref(p), namer, path);
            let tail = reify_acyclic(heap, Cell::Ref(p + 1), namer, path);
            path.pop();
            // `.`/2 — rebuild structurally; the dot symbol is well-known.
            Term::Struct(Symbol::DOT, vec![head, tail])
        }
        Cell::Str(p) => {
            if path.contains(&p) {
                return Term::Atom(Symbol::ELLIPSIS);
            }
            path.push(p);
            let Cell::Fun(f, n) = heap[p] else {
                unreachable!("Str points at Fun")
            };
            let args = (0..n as usize)
                .map(|i| reify_acyclic(heap, Cell::Ref(p + 1 + i), namer, path))
                .collect();
            path.pop();
            Term::Struct(f, args)
        }
        Cell::Fun(..) => unreachable!("bare functor cell"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog_syntax::parse_program;
    use wam::compile_program;

    fn setup() -> CompiledProgram {
        compile_program(&parse_program("p(a).").unwrap()).unwrap()
    }

    #[test]
    fn build_reify_roundtrip() {
        let program = setup();
        let (term, interner, names) = prolog_syntax::parse_term("f(X, [a, 2], g(X))").unwrap();
        let mut heap = Vec::new();
        let mut vars = vec![None; names.len()];
        let cell = build(&mut heap, &term, &mut vars, &interner, &program);
        let mut namer = Namer::new();
        let back = reify(&heap, cell, &mut namer);
        let rendered = prolog_syntax::term_to_string(&back, &interner, namer.names());
        assert_eq!(rendered, "f(_G0, [a, 2], g(_G0))");
    }

    #[test]
    fn shared_variables_alias() {
        let program = setup();
        let (term, interner, names) = prolog_syntax::parse_term("pair(X, X)").unwrap();
        let mut heap = Vec::new();
        let mut vars = vec![None; names.len()];
        let cell = build(&mut heap, &term, &mut vars, &interner, &program);
        let Cell::Str(p) = cell else { panic!() };
        let a = deref(&heap, Cell::Ref(p + 1));
        let b = deref(&heap, Cell::Ref(p + 2));
        assert_eq!(a, b, "both args deref to the same unbound cell");
    }

    #[test]
    fn lists_are_lis_cells() {
        let program = setup();
        let (term, interner, _) = prolog_syntax::parse_term("[1, 2]").unwrap();
        let mut heap = Vec::new();
        let mut vars = Vec::new();
        let cell = build(&mut heap, &term, &mut vars, &interner, &program);
        assert!(matches!(cell, Cell::Lis(_)));
        let mut namer = Namer::new();
        let back = reify(&heap, cell, &mut namer);
        let rendered = prolog_syntax::term_to_string(&back, &interner, &[]);
        assert_eq!(rendered, "[1, 2]");
        let _ = back;
    }
}
