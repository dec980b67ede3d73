//! Random abstract patterns, and random concrete instances of a pattern
//! (γ-sampling).
//!
//! Promoted from the inline generators of `gamma_soundness.rs` (shape
//! language + LCG) and `interning.rs` (node-level generator): one
//! generator, one PRNG, shared by every γ-soundness and lattice property
//! test.

use crate::rng::Rng;
use absdom::{AbsLeaf, PNode, Pattern, PatternBuilder};
use prolog_syntax::{Interner, Term, VarId};
use std::collections::HashMap;

/// A random single-root pattern of at most `depth` nesting levels.
/// Structure functors are interned as `f`/`g` through `interner`.
pub fn random_pattern(rng: &mut Rng, depth: usize, interner: &mut Interner) -> Pattern {
    random_pattern_n(rng, 1, depth, interner)
}

/// A random pattern with `arity` roots.
pub fn random_pattern_n(
    rng: &mut Rng,
    arity: usize,
    depth: usize,
    interner: &mut Interner,
) -> Pattern {
    let mut graph = PatternBuilder::new(arity);
    for i in 0..arity {
        let root = random_node(rng, depth, &mut graph, interner);
        graph.set_root(i, root);
    }
    Pattern::new(graph)
}

fn random_node(
    rng: &mut Rng,
    depth: usize,
    graph: &mut PatternBuilder,
    interner: &mut Interner,
) -> usize {
    let node = if depth > 0 && rng.below(3) == 0 {
        if rng.below(2) == 0 {
            let e = random_node(rng, depth - 1, graph, interner);
            PNode::List(e)
        } else {
            let f = interner.intern(if rng.below(2) == 0 { "f" } else { "g" });
            let n = 1 + rng.below(2) as usize;
            let (id, span) = graph.push_struct(f, n);
            for i in 0..n {
                let arg = random_node(rng, depth - 1, graph, interner);
                graph.set_arg(span, i, arg);
            }
            return id;
        }
    } else {
        match rng.below(3) {
            0 => PNode::Leaf(AbsLeaf::ALL[rng.below(AbsLeaf::ALL.len() as u64) as usize]),
            1 => PNode::Int(rng.range_i64(-3, 4)),
            _ => PNode::Atom(absdom::nil_symbol()),
        }
    };
    graph.push(node)
}

/// A concrete term in γ(node `id` of `p`) — a random instance covered by
/// the pattern.
///
/// `var_base` offsets generated variable ids so instances of two patterns
/// can be kept variable-disjoint. `shared` memoizes one instance per
/// pattern node, so every occurrence of a shared node materializes the
/// same subterm (call with a fresh map per instance).
pub fn gamma_instance(
    p: &Pattern,
    id: usize,
    interner: &mut Interner,
    rng: &mut Rng,
    var_base: u32,
    shared: &mut HashMap<usize, Term>,
) -> Term {
    if let Some(t) = shared.get(&id) {
        return t.clone();
    }
    let term = match p.node(id) {
        PNode::Leaf(l) => instance_of_leaf(*l, interner, rng, var_base),
        PNode::Int(i) => Term::Int(*i),
        PNode::Atom(a) => Term::Atom(*a),
        PNode::Struct(f, span) => {
            let args = p
                .args(*span)
                .map(|a| gamma_instance(p, a, interner, rng, var_base, shared))
                .collect();
            Term::Struct(*f, args)
        }
        PNode::List(e) => {
            let n = rng.below(3);
            let items: Vec<Term> = (0..n)
                .map(|_| gamma_instance(p, *e, interner, rng, var_base, shared))
                .collect();
            Term::list(interner, items)
        }
    };
    shared.insert(id, term.clone());
    term
}

/// A concrete term in γ(leaf).
pub fn instance_of_leaf(l: AbsLeaf, interner: &mut Interner, rng: &mut Rng, var_base: u32) -> Term {
    use AbsLeaf::*;
    match l {
        Var => Term::Var(VarId(var_base + rng.below(4) as u32)),
        Integer => Term::Int(rng.range_i64(-3, 4)),
        Atom => Term::Atom(interner.intern(["a", "b", "c"][rng.below(3) as usize])),
        Const => {
            if rng.below(2) == 0 {
                Term::Int(rng.range_i64(0, 5))
            } else {
                Term::Atom(interner.intern("k"))
            }
        }
        Ground => match rng.below(3) {
            0 => Term::Int(rng.range_i64(0, 5)),
            1 => Term::Atom(interner.intern("gr")),
            _ => {
                let f = interner.intern("h");
                Term::Struct(f, vec![Term::Int(rng.range_i64(0, 3))])
            }
        },
        NonVar => match rng.below(2) {
            0 => Term::Atom(interner.intern("nv")),
            _ => {
                let f = interner.intern("h");
                Term::Struct(f, vec![Term::Var(VarId(var_base + rng.below(4) as u32))])
            }
        },
        Any => match rng.below(3) {
            0 => Term::Var(VarId(var_base + rng.below(4) as u32)),
            1 => Term::Int(rng.range_i64(0, 5)),
            _ => Term::Atom(interner.intern("x")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_instances_are_covered_by_their_pattern() {
        // The γ-sampler's whole contract: what it produces for a pattern
        // lies in that pattern's concretization.
        for case in 0..256u64 {
            let mut rng = Rng::new(0x6A77A ^ case);
            let mut interner = Interner::new();
            let p = random_pattern(&mut rng, 2, &mut interner);
            let t = gamma_instance(
                &p,
                p.root(0),
                &mut interner,
                &mut rng,
                0,
                &mut HashMap::new(),
            );
            assert!(
                p.covers(std::slice::from_ref(&t)),
                "case {case}: sampled instance {t:?} escapes γ({p:?})"
            );
        }
    }
}
