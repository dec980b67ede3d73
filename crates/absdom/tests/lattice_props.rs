//! Property tests for the abstract-domain lattice: lub laws on randomly
//! generated patterns, and γ-soundness of lub with respect to coverage of
//! randomly generated concrete terms. Shapes come from a deterministic
//! inline PRNG (the workspace builds offline, so no proptest).

use absdom::{AbsLeaf, PNode, Pattern, PatternBuilder};
use prolog_syntax::{Interner, Term, VarId};

/// xorshift64* — deterministic shape generator driver.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generator for pattern shapes (built into a node arena afterwards).
#[derive(Clone, Debug)]
enum Shape {
    Leaf(u8),
    Int(i64),
    Nil,
    List(Box<Shape>),
    Struct(u8, Vec<Shape>),
    Cons(Box<Shape>, Box<Shape>),
}

fn shape(rng: &mut Rng, depth: usize) -> Shape {
    // Compound shapes with probability 1/3 below the depth cap; the same
    // leaf mix as before (Leaf, Int, Nil).
    if depth > 0 && rng.below(3) == 0 {
        match rng.below(3) {
            0 => Shape::List(Box::new(shape(rng, depth - 1))),
            1 => {
                let f = rng.below(3) as u8;
                let n = 1 + rng.below(2) as usize;
                let args = (0..n).map(|_| shape(rng, depth - 1)).collect();
                Shape::Struct(f, args)
            }
            _ => Shape::Cons(
                Box::new(shape(rng, depth - 1)),
                Box::new(shape(rng, depth - 1)),
            ),
        }
    } else {
        match rng.below(3) {
            0 => Shape::Leaf(rng.below(7) as u8),
            1 => Shape::Int(rng.below(10) as i64 - 5),
            _ => Shape::Nil,
        }
    }
}

fn shape_vec(rng: &mut Rng, len: usize) -> Vec<Shape> {
    (0..len).map(|_| shape(rng, 3)).collect()
}

fn leaf_of(i: u8) -> AbsLeaf {
    AbsLeaf::ALL[i as usize % AbsLeaf::ALL.len()]
}

fn functor_symbol(i: u8, interner: &mut Interner) -> prolog_syntax::Symbol {
    interner.intern(match i % 3 {
        0 => "f",
        1 => "g",
        _ => "h",
    })
}

fn build(shape: &Shape, graph: &mut PatternBuilder, interner: &mut Interner) -> usize {
    let node = match shape {
        Shape::Leaf(i) => PNode::Leaf(leaf_of(*i)),
        Shape::Int(i) => PNode::Int(*i),
        Shape::Nil => PNode::Atom(absdom::nil_symbol()),
        Shape::List(e) => {
            let e = build(e, graph, interner);
            PNode::List(e)
        }
        Shape::Struct(f, args) => {
            let sym = functor_symbol(*f, interner);
            let (id, span) = graph.push_struct(sym, args.len());
            for (i, a) in args.iter().enumerate() {
                let arg = build(a, graph, interner);
                graph.set_arg(span, i, arg);
            }
            return id;
        }
        Shape::Cons(h, t) => {
            let (id, span) = graph.push_struct(interner.dot(), 2);
            let h = build(h, graph, interner);
            graph.set_arg(span, 0, h);
            let t = build(t, graph, interner);
            graph.set_arg(span, 1, t);
            return id;
        }
    };
    graph.push(node)
}

fn pattern_of(shapes: &[Shape]) -> Pattern {
    let mut interner = Interner::new();
    let mut graph = PatternBuilder::new(shapes.len());
    for (i, s) in shapes.iter().enumerate() {
        let root = build(s, &mut graph, &mut interner);
        graph.set_root(i, root);
    }
    Pattern::new(graph)
}

/// Generator for small concrete terms (sharing one global interner layout).
#[derive(Clone, Debug)]
enum CShape {
    Var(u32),
    Int(i64),
    Atom(u8),
    Nil,
    Struct(u8, Vec<CShape>),
    ConsList(Vec<CShape>),
}

fn cshape(rng: &mut Rng, depth: usize) -> CShape {
    if depth > 0 && rng.below(3) == 0 {
        if rng.below(2) == 0 {
            let f = rng.below(3) as u8;
            let n = 1 + rng.below(2) as usize;
            let args = (0..n).map(|_| cshape(rng, depth - 1)).collect();
            CShape::Struct(f, args)
        } else {
            let n = rng.below(3) as usize;
            CShape::ConsList((0..n).map(|_| cshape(rng, depth - 1)).collect())
        }
    } else {
        match rng.below(4) {
            0 => CShape::Var(rng.below(3) as u32),
            1 => CShape::Int(rng.below(10) as i64 - 5),
            2 => CShape::Atom(rng.below(3) as u8),
            _ => CShape::Nil,
        }
    }
}

fn cterm(shape: &CShape, interner: &mut Interner) -> Term {
    match shape {
        CShape::Var(v) => Term::Var(VarId(*v)),
        CShape::Int(i) => Term::Int(*i),
        CShape::Atom(i) => Term::Atom(functor_symbol(*i, interner)),
        CShape::Nil => Term::Atom(interner.nil()),
        CShape::Struct(f, args) => {
            let sym = functor_symbol(*f, interner);
            let args = args.iter().map(|a| cterm(a, interner)).collect();
            Term::Struct(sym, args)
        }
        CShape::ConsList(items) => {
            let items: Vec<Term> = items.iter().map(|i| cterm(i, interner)).collect();
            Term::list(interner, items)
        }
    }
}

const CASES: u64 = 128;

#[test]
fn lub_commutative() {
    let mut rng = Rng::new(0xa11c_e001);
    for case in 0..CASES {
        let len = 1 + rng.below(2) as usize;
        let a = shape_vec(&mut rng, len);
        let b = shape_vec(&mut rng, len);
        let (p, q) = (pattern_of(&a), pattern_of(&b));
        assert_eq!(p.lub(&q), q.lub(&p), "case {case}");
    }
}

#[test]
fn lub_idempotent() {
    let mut rng = Rng::new(0xa11c_e002);
    for case in 0..CASES {
        let len = 1 + rng.below(2) as usize;
        let a = shape_vec(&mut rng, len);
        let p = pattern_of(&a);
        assert_eq!(p.lub(&p), p, "case {case}");
    }
}

#[test]
fn lub_associative() {
    let mut rng = Rng::new(0xa11c_e003);
    for case in 0..CASES {
        let a = shape_vec(&mut rng, 1);
        let b = shape_vec(&mut rng, 1);
        let c = shape_vec(&mut rng, 1);
        let (p, q, r) = (pattern_of(&a), pattern_of(&b), pattern_of(&c));
        assert_eq!(p.lub(&q).lub(&r), p.lub(&q.lub(&r)), "case {case}");
    }
}

#[test]
fn canonicalization_stable() {
    let mut rng = Rng::new(0xa11c_e004);
    for case in 0..CASES {
        let len = 1 + rng.below(3) as usize;
        let a = shape_vec(&mut rng, len);
        let p = pattern_of(&a);
        // Pattern::new canonicalizes; re-wrapping must be a fixpoint.
        let q = Pattern::new(p.clone().into_builder());
        assert_eq!(p, q, "case {case}");
    }
}

#[test]
fn lub_is_upper_bound_for_coverage() {
    let mut rng = Rng::new(0xa11c_e005);
    for case in 0..CASES {
        let a = shape(&mut rng, 3);
        let b = shape(&mut rng, 3);
        let t = cshape(&mut rng, 3);
        let p = pattern_of(std::slice::from_ref(&a));
        let q = pattern_of(std::slice::from_ref(&b));
        let mut interner = Interner::new();
        let term = cterm(&t, &mut interner);
        let j = p.lub(&q);
        if p.covers(std::slice::from_ref(&term)) || q.covers(std::slice::from_ref(&term)) {
            assert!(
                j.covers(std::slice::from_ref(&term)),
                "case {case}: lub {j} does not cover a term covered by an operand"
            );
        }
    }
}

#[test]
fn lub_never_panics_on_mixed_arity_roots() {
    let mut rng = Rng::new(0xa11c_e006);
    for _ in 0..CASES {
        let len = 2 + rng.below(2) as usize;
        let a = shape_vec(&mut rng, len);
        let p = pattern_of(&a);
        let q = pattern_of(&a);
        let _ = p.lub(&q);
    }
}
