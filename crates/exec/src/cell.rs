//! The cell-representation contract, the concrete cell type, and `deref`.
//!
//! Every interpretation runs over a heap of tagged words. The concrete
//! machine uses exactly the standard WAM tags ([`Cell`]); the abstract
//! machine extends them with instantiable abstract cells. [`CellRepr`]
//! captures what the shared dispatch loop needs from either: how to build
//! each tag, and which cells are references (so [`deref()`] can chase them).

use prolog_syntax::Symbol;
use wam::WamConst;

/// The tagged-word interface of one interpretation's heap cells.
///
/// The shared dispatch loop builds cells only through these constructors,
/// so the write-mode halves of the `put_*`/`unify_*` instructions — which
/// construct terms rather than inspect them — are domain-independent.
/// Inspection (the read-mode halves) goes through [`Interpretation`]
/// methods instead, because tags beyond the standard six may exist.
///
/// [`Interpretation`]: crate::interp::Interpretation
pub trait CellRepr: Copy + PartialEq + std::fmt::Debug {
    /// A reference to heap address `addr` (unbound iff self-referential).
    fn mk_ref(addr: usize) -> Self;
    /// A pointer to a functor cell followed by argument cells.
    fn mk_str(addr: usize) -> Self;
    /// A pointer to two consecutive cells (car, cdr).
    fn mk_lis(addr: usize) -> Self;
    /// An atom.
    fn mk_con(name: Symbol) -> Self;
    /// An integer.
    fn mk_int(value: i64) -> Self;
    /// A functor cell (only ever pointed to by `str` cells).
    fn mk_fun(name: Symbol, arity: u16) -> Self;

    /// The heap address this cell references, if it is a reference.
    ///
    /// Only plain `ref` cells return `Some`; variable-*like* cells of
    /// richer domains (abstract leaves) return `None` so that [`deref()`]
    /// stops on them and reports their address to the caller.
    fn as_ref_addr(self) -> Option<usize>;

    /// The cell for a compiled constant operand.
    fn mk_const(c: WamConst) -> Self {
        match c {
            WamConst::Atom(a) => Self::mk_con(a),
            WamConst::Int(i) => Self::mk_int(i.get()),
        }
    }

    /// Filler for uninitialized registers (never observed by a correct
    /// program; any cell works).
    fn null() -> Self {
        Self::mk_int(0)
    }
}

/// One tagged word, exactly as in the standard WAM.
///
/// An unbound variable is a `Ref` pointing at its own heap address. This
/// is the concrete machine's cell type; the abstract machine's `ACell`
/// extends the same six tags with abstract cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cell {
    /// Reference (possibly unbound: a self-reference).
    Ref(usize),
    /// Pointer to a `Fun` cell followed by the argument cells.
    Str(usize),
    /// Pointer to two consecutive cells (car, cdr).
    Lis(usize),
    /// An atom.
    Con(Symbol),
    /// An integer.
    Int(i64),
    /// A functor cell (only ever pointed to by `Str`).
    Fun(Symbol, u16),
}

impl Cell {
    /// Whether this cell is an unbound variable at address `addr`.
    pub fn is_unbound_at(self, addr: usize) -> bool {
        matches!(self, Cell::Ref(a) if a == addr)
    }
}

impl CellRepr for Cell {
    fn mk_ref(addr: usize) -> Self {
        Cell::Ref(addr)
    }
    fn mk_str(addr: usize) -> Self {
        Cell::Str(addr)
    }
    fn mk_lis(addr: usize) -> Self {
        Cell::Lis(addr)
    }
    fn mk_con(name: Symbol) -> Self {
        Cell::Con(name)
    }
    fn mk_int(value: i64) -> Self {
        Cell::Int(value)
    }
    fn mk_fun(name: Symbol, arity: u16) -> Self {
        Cell::Fun(name, arity)
    }
    fn as_ref_addr(self) -> Option<usize> {
        match self {
            Cell::Ref(a) => Some(a),
            _ => None,
        }
    }
}

/// Follow reference chains to the representative cell.
///
/// Returns the final cell and the heap address it lives at, if any: a
/// bound chain ends in `(value, Some(address of the last ref))`, an
/// unbound variable in `(ref-to-self, Some(its address))`, and a cell
/// that was never a reference (e.g. a register-resident constant) in
/// `(cell, None)`. Variable-like non-`ref` cells (abstract leaves) stop
/// the chase exactly like values do, with their address reported — which
/// is what instantiation needs.
pub fn deref<C: CellRepr>(heap: &[C], mut cell: C) -> (C, Option<usize>) {
    let mut addr = None;
    while let Some(a) = cell.as_ref_addr() {
        let next = heap[a];
        if next == cell {
            // Unbound: a self-reference.
            return (cell, Some(a));
        }
        addr = Some(a);
        cell = next;
    }
    (cell, addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbound_detection() {
        assert!(Cell::Ref(3).is_unbound_at(3));
        assert!(!Cell::Ref(3).is_unbound_at(4));
        assert!(!Cell::Int(3).is_unbound_at(3));
    }

    #[test]
    fn deref_chases_chains() {
        // heap: 0 -> 1 -> Int(7); 2 unbound; Int in a register.
        let heap = vec![Cell::Ref(1), Cell::Int(7), Cell::Ref(2)];
        assert_eq!(deref(&heap, Cell::Ref(0)), (Cell::Int(7), Some(1)));
        assert_eq!(deref(&heap, Cell::Ref(2)), (Cell::Ref(2), Some(2)));
        assert_eq!(deref(&heap, Cell::Int(5)), (Cell::Int(5), None));
    }
}
