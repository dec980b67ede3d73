//! The baseline's abstract term store: a node arena with value-trailed
//! binding, general abstract unification against source terms, and
//! pattern extraction/materialization.
//!
//! This mirrors what a Prolog-hosted analyzer keeps in its interpreted
//! term representation; nothing here is specialized per program point.

use absdom::{AbsLeaf, NodeId, PNode, Pattern, PatternBuilder};
use awam_exec::{TrailMark, ValueTrail};
use prolog_syntax::{Symbol, Term};
use std::collections::HashMap;

/// Index into the store.
pub type Ref = usize;

/// One abstract store node.
#[derive(Clone, PartialEq, Debug)]
pub enum BNode {
    /// An unbound (free) variable.
    Free,
    /// Forwarding pointer (created by binding).
    Bound(Ref),
    /// An instantiable abstract leaf (never `var` — that is `Free`).
    Leaf(AbsLeaf),
    /// `α-list`; the element reference is an unaliased type subgraph.
    ListOf(Ref),
    /// A specific atom.
    Atom(Symbol),
    /// A specific integer.
    Int(i64),
    /// A compound term.
    Struct(Symbol, Vec<Ref>),
}

/// The abstract store.
#[derive(Debug, Default)]
pub struct Store {
    nodes: Vec<BNode>,
    /// The substrate's value-trail discipline over the node arena.
    trail: ValueTrail<BNode>,
    /// Number of unification steps performed (cost accounting).
    pub unify_steps: u64,
}

impl Store {
    /// Create an empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Current trail mark, for later [`Store::undo_to`].
    pub fn mark(&self) -> TrailMark {
        self.trail.mark(self.nodes.len())
    }

    /// Undo bindings and allocations past `mark`.
    pub fn undo_to(&mut self, mark: TrailMark) {
        self.trail.undo_to(mark, &mut self.nodes);
    }

    /// Allocate a node.
    pub fn alloc(&mut self, node: BNode) -> Ref {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Allocate a fresh free variable.
    pub fn fresh(&mut self) -> Ref {
        self.alloc(BNode::Free)
    }

    fn bind(&mut self, r: Ref, node: BNode) {
        self.trail.record(r, self.nodes[r].clone());
        self.nodes[r] = node;
    }

    /// Narrow a node back to a definitely-free variable (used by the
    /// `var/1` type test on an `any`-typed node; trailed like any binding).
    pub fn narrow_free(&mut self, r: Ref) {
        let rr = self.resolve(r);
        self.bind(rr, BNode::Free);
    }

    /// Follow `Bound` chains.
    pub fn resolve(&self, mut r: Ref) -> Ref {
        while let BNode::Bound(next) = self.nodes[r] {
            r = next;
        }
        r
    }

    /// The representative node for `r`.
    pub fn node(&self, r: Ref) -> &BNode {
        &self.nodes[self.resolve(r)]
    }

    // ----- building store terms from source terms (clause renaming) -----

    /// Build the store representation of a source term, renaming clause
    /// variables through `frame` (one slot per clause variable).
    pub fn build(&mut self, term: &Term, frame: &mut [Option<Ref>]) -> Ref {
        match term {
            Term::Var(v) => {
                let slot = &mut frame[v.index()];
                match slot {
                    Some(r) => *r,
                    None => {
                        let r = self.fresh();
                        *slot = Some(r);
                        r
                    }
                }
            }
            Term::Int(i) => self.alloc(BNode::Int(*i)),
            Term::Atom(a) => self.alloc(BNode::Atom(*a)),
            Term::Struct(f, args) => {
                let children: Vec<Ref> = args.iter().map(|a| self.build(a, frame)).collect();
                self.alloc(BNode::Struct(*f, children))
            }
        }
    }

    // ----- general abstract unification -----

    /// Unify a source term (under `frame`) with a store node — the general
    /// head-unification procedure an interpreter runs for every argument.
    pub fn unify_term(&mut self, term: &Term, r: Ref, frame: &mut [Option<Ref>]) -> bool {
        self.unify_steps += 1;
        match term {
            Term::Var(v) => {
                let slot = &mut frame[v.index()];
                match *slot {
                    Some(existing) => self.unify(existing, r),
                    None => {
                        *slot = Some(r);
                        true
                    }
                }
            }
            Term::Int(i) => self.unify_with_int(*i, r),
            Term::Atom(a) => self.unify_with_atom(*a, r),
            Term::Struct(f, args) => {
                let (f, arity) = (*f, args.len());
                match self.node(self.resolve(r)).clone() {
                    BNode::Free => {
                        let t = self.build(term, frame);
                        let rr = self.resolve(r);
                        self.bind(rr, BNode::Bound(t));
                        true
                    }
                    BNode::Struct(g, children) => {
                        if g != f || children.len() != arity {
                            return false;
                        }
                        args.iter()
                            .zip(children)
                            .all(|(a, c)| self.unify_term(a, c, frame))
                    }
                    BNode::Leaf(l) => {
                        if !(l.admits_struct() || (is_cons(f, arity) && l.admits_list())) {
                            return false;
                        }
                        // Complex-term instantiation: materialize an
                        // instance and recurse.
                        let child = l.instance_child();
                        let rr = self.resolve(r);
                        let children: Vec<Ref> =
                            (0..arity).map(|_| self.alloc_child(child)).collect();
                        self.bind(rr, BNode::Struct(f, children.clone()));
                        args.iter()
                            .zip(children)
                            .all(|(a, c)| self.unify_term(a, c, frame))
                    }
                    BNode::ListOf(e) => {
                        if !is_cons(f, arity) {
                            return false;
                        }
                        let rr = self.resolve(r);
                        let car = self.copy_type(e);
                        let elem = self.copy_type(e);
                        let cdr = self.alloc(BNode::ListOf(elem));
                        self.bind(rr, BNode::Struct(f, vec![car, cdr]));
                        self.unify_term(&args[0], car, frame)
                            && self.unify_term(&args[1], cdr, frame)
                    }
                    BNode::Atom(_) | BNode::Int(_) => false,
                    BNode::Bound(_) => unreachable!("resolved"),
                }
            }
        }
    }

    fn alloc_child(&mut self, child: AbsLeaf) -> Ref {
        if child == AbsLeaf::Var {
            self.fresh()
        } else {
            self.alloc(BNode::Leaf(child))
        }
    }

    fn unify_with_atom(&mut self, a: Symbol, r: Ref) -> bool {
        let rr = self.resolve(r);
        match self.nodes[rr].clone() {
            BNode::Free => {
                self.bind(rr, BNode::Atom(a));
                true
            }
            BNode::Atom(b) => a == b,
            BNode::Leaf(l) if l.admits_atom() => {
                self.bind(rr, BNode::Atom(a));
                true
            }
            BNode::ListOf(_) if a == absdom::nil_symbol() => {
                self.bind(rr, BNode::Atom(a));
                true
            }
            _ => false,
        }
    }

    fn unify_with_int(&mut self, i: i64, r: Ref) -> bool {
        let rr = self.resolve(r);
        match self.nodes[rr].clone() {
            BNode::Free => {
                self.bind(rr, BNode::Int(i));
                true
            }
            BNode::Int(j) => i == j,
            BNode::Leaf(l) if l.admits_integer() => {
                self.bind(rr, BNode::Int(i));
                true
            }
            _ => false,
        }
    }

    /// Node-to-node abstract unification.
    pub fn unify(&mut self, a: Ref, b: Ref) -> bool {
        self.unify_steps += 1;
        let (ra, rb) = (self.resolve(a), self.resolve(b));
        if ra == rb {
            return true;
        }
        let (na, nb) = (self.nodes[ra].clone(), self.nodes[rb].clone());
        match (na, nb) {
            (BNode::Free, _) => {
                self.bind(ra, BNode::Bound(rb));
                true
            }
            (_, BNode::Free) => {
                self.bind(rb, BNode::Bound(ra));
                true
            }
            (BNode::Leaf(t1), BNode::Leaf(t2)) => match t1.unify(t2) {
                None => false,
                Some(t) => {
                    if t != t1 {
                        self.bind(ra, BNode::Leaf(t));
                    }
                    self.bind(rb, BNode::Bound(ra));
                    true
                }
            },
            (BNode::Leaf(l), BNode::Atom(s)) | (BNode::Atom(s), BNode::Leaf(l)) => {
                let target = if matches!(self.nodes[ra], BNode::Leaf(_)) {
                    ra
                } else {
                    rb
                };
                if l.admits_atom() {
                    self.bind(target, BNode::Atom(s));
                    true
                } else {
                    false
                }
            }
            (BNode::Leaf(l), BNode::Int(i)) | (BNode::Int(i), BNode::Leaf(l)) => {
                let target = if matches!(self.nodes[ra], BNode::Leaf(_)) {
                    ra
                } else {
                    rb
                };
                if l.admits_integer() {
                    self.bind(target, BNode::Int(i));
                    true
                } else {
                    false
                }
            }
            (BNode::Leaf(l), BNode::Struct(f, children))
            | (BNode::Struct(f, children), BNode::Leaf(l)) => {
                let (leaf_ref, str_ref) = if matches!(self.nodes[ra], BNode::Leaf(_)) {
                    (ra, rb)
                } else {
                    (rb, ra)
                };
                if !(l.admits_struct() || (is_cons(f, children.len()) && l.admits_list())) {
                    return false;
                }
                self.bind(leaf_ref, BNode::Bound(str_ref));
                let child = l.instance_child();
                children.iter().all(|&c| self.constrain(c, child))
            }
            (BNode::Leaf(l), BNode::ListOf(e)) | (BNode::ListOf(e), BNode::Leaf(l)) => {
                let (leaf_ref, list_ref) = if matches!(self.nodes[ra], BNode::Leaf(_)) {
                    (ra, rb)
                } else {
                    (rb, ra)
                };
                match l {
                    AbsLeaf::Any | AbsLeaf::NonVar | AbsLeaf::Var => {
                        self.bind(leaf_ref, BNode::Bound(list_ref));
                        true
                    }
                    AbsLeaf::Ground => {
                        if !self.constrain(e, AbsLeaf::Ground) {
                            return false;
                        }
                        self.bind(leaf_ref, BNode::Bound(list_ref));
                        true
                    }
                    AbsLeaf::Const | AbsLeaf::Atom => {
                        let nil = BNode::Atom(absdom::nil_symbol());
                        self.bind(list_ref, nil.clone());
                        self.bind(leaf_ref, BNode::Bound(list_ref));
                        true
                    }
                    AbsLeaf::Integer => false,
                }
            }
            (BNode::ListOf(e1), BNode::ListOf(e2)) => {
                // list(α) ⊓ list(β): when the element types clash the
                // intersection is still {[]}.
                let mark = self.mark();
                let c1 = self.copy_type(e1);
                let c2 = self.copy_type(e2);
                if self.unify(c1, c2) {
                    self.bind(ra, BNode::ListOf(c1));
                } else {
                    self.undo_to(mark);
                    self.bind(ra, BNode::Atom(absdom::nil_symbol()));
                }
                self.bind(rb, BNode::Bound(ra));
                true
            }
            (BNode::ListOf(e), BNode::Struct(f, children))
            | (BNode::Struct(f, children), BNode::ListOf(e)) => {
                let (list_ref, str_ref) = if matches!(self.nodes[ra], BNode::ListOf(_)) {
                    (ra, rb)
                } else {
                    (rb, ra)
                };
                if !is_cons(f, children.len()) {
                    return false;
                }
                let car_type = self.copy_type(e);
                let elem = self.copy_type(e);
                let cdr_type = self.alloc(BNode::ListOf(elem));
                self.bind(list_ref, BNode::Bound(str_ref));
                self.unify(children[0], car_type) && self.unify(children[1], cdr_type)
            }
            (BNode::ListOf(e), BNode::Atom(s)) | (BNode::Atom(s), BNode::ListOf(e)) => {
                let _ = e;
                let list_ref = if matches!(self.nodes[ra], BNode::ListOf(_)) {
                    ra
                } else {
                    rb
                };
                if s == absdom::nil_symbol() {
                    self.bind(list_ref, BNode::Atom(s));
                    true
                } else {
                    false
                }
            }
            (BNode::Atom(x), BNode::Atom(y)) => x == y,
            (BNode::Int(x), BNode::Int(y)) => x == y,
            (BNode::Struct(f, xs), BNode::Struct(g, ys)) => {
                f == g && xs.len() == ys.len() && xs.iter().zip(ys).all(|(&x, y)| self.unify(x, y))
            }
            _ => false,
        }
    }

    /// Constrain a node to the meet with a leaf type.
    pub fn constrain(&mut self, r: Ref, leaf: AbsLeaf) -> bool {
        if leaf == AbsLeaf::Any || leaf == AbsLeaf::Var {
            return true;
        }
        let rr = self.resolve(r);
        match self.nodes[rr].clone() {
            BNode::Free => {
                self.bind(rr, BNode::Leaf(leaf));
                true
            }
            BNode::Leaf(t) => match t.unify(leaf) {
                None => false,
                Some(new) => {
                    if new != t {
                        self.bind(rr, BNode::Leaf(new));
                    }
                    true
                }
            },
            BNode::ListOf(e) => match leaf {
                AbsLeaf::NonVar => true,
                AbsLeaf::Ground => self.constrain(e, AbsLeaf::Ground),
                AbsLeaf::Const | AbsLeaf::Atom => {
                    self.bind(rr, BNode::Atom(absdom::nil_symbol()));
                    true
                }
                AbsLeaf::Integer => false,
                AbsLeaf::Any | AbsLeaf::Var => true,
            },
            BNode::Atom(_) => leaf.admits_atom(),
            BNode::Int(_) => leaf.admits_integer(),
            BNode::Struct(f, children) => {
                if !(leaf.admits_struct() || (is_cons(f, children.len()) && leaf.admits_list())) {
                    return false;
                }
                let child = if leaf == AbsLeaf::Ground {
                    AbsLeaf::Ground
                } else {
                    AbsLeaf::Any
                };
                children.iter().all(|&c| self.constrain(c, child))
            }
            BNode::Bound(_) => unreachable!("resolved"),
        }
    }

    fn copy_type(&mut self, r: Ref) -> Ref {
        let rr = self.resolve(r);
        match self.nodes[rr].clone() {
            BNode::Free => self.fresh(),
            BNode::Leaf(l) => self.alloc(BNode::Leaf(l)),
            BNode::Atom(a) => self.alloc(BNode::Atom(a)),
            BNode::Int(i) => self.alloc(BNode::Int(i)),
            BNode::ListOf(e) => {
                let c = self.copy_type(e);
                self.alloc(BNode::ListOf(c))
            }
            BNode::Struct(f, children) => {
                let copies: Vec<Ref> = children.iter().map(|&c| self.copy_type(c)).collect();
                self.alloc(BNode::Struct(f, copies))
            }
            BNode::Bound(_) => unreachable!("resolved"),
        }
    }

    // ----- pattern extraction / materialization -----

    /// Extract the canonical pattern of the given roots at `depth_k`.
    pub fn extract(&self, roots: &[Ref], depth_k: usize) -> Pattern {
        let mut graph = PatternBuilder::new(roots.len());
        let mut map: HashMap<Ref, NodeId> = HashMap::new();
        for (i, &r) in roots.iter().enumerate() {
            let id = self.extract_node(r, 0, depth_k, &mut graph, &mut map);
            graph.set_root(i, id);
        }
        Pattern::new(graph)
    }

    fn extract_node(
        &self,
        r: Ref,
        depth: usize,
        depth_k: usize,
        graph: &mut PatternBuilder,
        map: &mut HashMap<Ref, NodeId>,
    ) -> NodeId {
        let rr = self.resolve(r);
        if let Some(&id) = map.get(&rr) {
            return id;
        }
        if depth >= depth_k {
            let leaf = self.summarize(rr, &mut Vec::new());
            let leaf = if leaf == AbsLeaf::Var {
                AbsLeaf::Any
            } else {
                leaf
            };
            return graph.push(PNode::Leaf(leaf));
        }
        match self.nodes[rr].clone() {
            BNode::Free => {
                let id = graph.push(PNode::Leaf(AbsLeaf::Var));
                map.insert(rr, id);
                id
            }
            BNode::Leaf(l) => {
                let id = graph.push(PNode::Leaf(l));
                map.insert(rr, id);
                id
            }
            BNode::Atom(a) => graph.push(PNode::Atom(a)),
            BNode::Int(i) => graph.push(PNode::Int(i)),
            BNode::ListOf(e) => {
                let id = graph.push(PNode::Leaf(AbsLeaf::Any)); // placeholder
                map.insert(rr, id);
                let elem = self.extract_node(e, depth + 1, depth_k, graph, map);
                graph.set(id, PNode::List(elem));
                id
            }
            BNode::Struct(f, children) => {
                let (id, span) = graph.push_struct(f, children.len());
                map.insert(rr, id);
                for (i, &c) in children.iter().enumerate() {
                    let arg = self.extract_node(c, depth + 1, depth_k, graph, map);
                    graph.set_arg(span, i, arg);
                }
                id
            }
            BNode::Bound(_) => unreachable!("resolved"),
        }
    }

    fn summarize(&self, r: Ref, visiting: &mut Vec<Ref>) -> AbsLeaf {
        let rr = self.resolve(r);
        if visiting.contains(&rr) {
            return AbsLeaf::NonVar;
        }
        match self.nodes[rr].clone() {
            BNode::Free => AbsLeaf::Var,
            BNode::Leaf(l) => l,
            BNode::Atom(_) | BNode::Int(_) => AbsLeaf::Ground,
            BNode::ListOf(e) => {
                visiting.push(rr);
                let g = self.summarize(e, visiting).is_ground();
                visiting.pop();
                if g {
                    AbsLeaf::Ground
                } else {
                    AbsLeaf::NonVar
                }
            }
            BNode::Struct(_, children) => {
                visiting.push(rr);
                let g = children
                    .iter()
                    .all(|&c| self.summarize(c, visiting).is_ground());
                visiting.pop();
                if g {
                    AbsLeaf::Ground
                } else {
                    AbsLeaf::NonVar
                }
            }
            BNode::Bound(_) => unreachable!("resolved"),
        }
    }

    /// Materialize `pattern` into fresh store nodes, one per root.
    pub fn materialize(&mut self, pattern: &Pattern) -> Vec<Ref> {
        let mut done: HashMap<NodeId, Ref> = HashMap::new();
        (0..pattern.arity())
            .map(|i| self.materialize_node(pattern, pattern.root(i), &mut done))
            .collect()
    }

    fn materialize_node(
        &mut self,
        pattern: &Pattern,
        id: NodeId,
        done: &mut HashMap<NodeId, Ref>,
    ) -> Ref {
        if let Some(&r) = done.get(&id) {
            return r;
        }
        let r = match pattern.node(id) {
            PNode::Leaf(AbsLeaf::Var) => self.fresh(),
            PNode::Leaf(l) => self.alloc(BNode::Leaf(*l)),
            PNode::Atom(a) => self.alloc(BNode::Atom(*a)),
            PNode::Int(i) => self.alloc(BNode::Int(*i)),
            PNode::List(e) => {
                let r = self.alloc(BNode::Free); // placeholder
                done.insert(id, r);
                let elem = self.materialize_node(pattern, *e, done);
                self.nodes[r] = BNode::ListOf(elem);
                return r;
            }
            PNode::Struct(f, span) => {
                let r = self.alloc(BNode::Free); // placeholder
                done.insert(id, r);
                let children: Vec<Ref> = pattern
                    .args(*span)
                    .map(|a| self.materialize_node(pattern, a, done))
                    .collect();
                self.nodes[r] = BNode::Struct(*f, children);
                return r;
            }
        };
        done.insert(id, r);
        r
    }
}

fn is_cons(f: Symbol, arity: usize) -> bool {
    absdom::is_dot_symbol(f) && arity == 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(specs: &[&str]) -> Pattern {
        Pattern::from_spec(specs).unwrap()
    }

    #[test]
    fn materialize_extract_round_trip() {
        for spec in [
            vec!["any", "var"],
            vec!["glist"],
            vec!["atom", "int", "list(any)"],
        ] {
            let p = pat(&spec);
            let mut store = Store::new();
            let roots = store.materialize(&p);
            assert_eq!(store.extract(&roots, 6), p, "{spec:?}");
        }
    }

    #[test]
    fn unify_term_against_leaf() {
        // Unifying source term [H|T] with glist gives H=g, T=glist.
        let (term, _, names) = prolog_syntax::parse_term("[H|T]").unwrap();
        let mut store = Store::new();
        let roots = store.materialize(&pat(&["glist"]));
        let mut frame = vec![None; names.len()];
        assert!(store.unify_term(&term, roots[0], &mut frame));
        let h = frame[0].unwrap();
        let t = frame[1].unwrap();
        assert_eq!(store.extract(&[h], 4), pat(&["g"]));
        assert_eq!(store.extract(&[t], 4), pat(&["glist"]));
    }

    #[test]
    fn undo_restores_state() {
        let mut store = Store::new();
        let roots = store.materialize(&pat(&["any"]));
        let mark = store.mark();
        assert!(store.constrain(roots[0], AbsLeaf::Ground));
        assert_eq!(store.extract(&roots, 4), pat(&["g"]));
        store.undo_to(mark);
        assert_eq!(store.extract(&roots, 4), pat(&["any"]));
    }

    #[test]
    fn aliasing_through_unify() {
        let mut store = Store::new();
        let x = store.fresh();
        let y = store.fresh();
        assert!(store.unify(x, y));
        assert!(store.constrain(x, AbsLeaf::Ground));
        let p = store.extract(&[x, y], 4);
        assert!(p.node_is_ground(p.root(1)), "alias must be grounded");
    }

    #[test]
    fn clash_fails() {
        let mut store = Store::new();
        let roots = store.materialize(&pat(&["atom"]));
        let mark = store.mark();
        assert!(!store.unify_with_int_public(5, roots[0]));
        store.undo_to(mark);
    }

    impl Store {
        fn unify_with_int_public(&mut self, i: i64, r: Ref) -> bool {
            self.unify_with_int(i, r)
        }
    }
}
