//! Pattern extraction (heap → [`Pattern`]) and materialization
//! (pattern → heap).
//!
//! Extraction is the `abstract(X, Xα)` step of the transformed program in
//! §5: the argument registers are abstracted, to the term-depth limit `k`,
//! into a canonical calling pattern. Aliasing among the arguments is
//! captured by mapping each *open* (instantiable) or non-ground compound
//! heap cell to a single pattern node.
//!
//! Materialization is the inverse: a fresh set of heap cells whose shape
//! and sharing mirror the pattern — used both to analyze a callee
//! independently of its caller and to apply a memoized success pattern at
//! a call site.

use crate::acell::ACell;
use absdom::{AbsLeaf, NodeId, PNode, Pattern, PatternBuilder};

/// Follow reference chains; returns the representative cell and its heap
/// address when it has one (open cells and compounds always do). This is
/// the shared [`awam_exec::deref`]: `Abs`/`AbsList` cells are not
/// references, so the chase stops on them with their address reported.
pub fn deref(heap: &[ACell], cell: ACell) -> (ACell, Option<usize>) {
    awam_exec::deref(heap, cell)
}

/// Extract the calling/success pattern of `args`, limited to `depth_k`.
pub fn extract(heap: &[ACell], args: &[ACell], depth_k: usize) -> Pattern {
    let mut scratch = ExtractScratch::default();
    extract_with(heap, args, depth_k, &mut scratch);
    scratch.out
}

/// Reusable buffers for [`extract_with`]: every vector an extraction
/// walks through, including the output pattern itself. The abstract
/// machine extracts a pattern per consult and per summary update; holding
/// one scratch per machine keeps that path off the allocator entirely
/// (pair with [`absdom::SessionInterner::intern_ref`], which clones the
/// output only when the arena has never seen it).
#[derive(Debug, Default)]
pub struct ExtractScratch {
    map: AddrMap,
    pair_map: AddrMap,
    open: Vec<usize>,
    open_lists: Vec<usize>,
    visiting: Vec<usize>,
    out: Pattern,
}

/// A generation-stamped dense heap-address → node map: O(1) probe and
/// insert, O(1) reset (bumping the generation invalidates every stale
/// entry at once). The linear pair-vector it replaced was quadratic in
/// pattern size, which showed up on struct-heavy benchmarks.
#[derive(Debug, Default)]
struct AddrMap {
    /// `slots[addr] = (generation, node)`; a stale generation means empty.
    slots: Vec<(u32, NodeId)>,
    gen: u32,
}

impl AddrMap {
    /// Start a new extraction over a heap of `len` cells.
    fn begin(&mut self, len: usize) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation counter wrapped: stamps from the previous epoch
            // could alias, so wipe and restart.
            self.slots.clear();
            self.gen = 1;
        }
        if self.slots.len() < len {
            self.slots.resize(len, (0, 0));
        }
    }

    fn get(&self, addr: usize) -> Option<NodeId> {
        match self.slots.get(addr) {
            Some(&(gen, id)) if gen == self.gen => Some(id),
            _ => None,
        }
    }

    fn insert(&mut self, addr: usize, id: NodeId) {
        self.slots[addr] = (self.gen, id);
    }
}

/// [`extract`] through caller-provided scratch buffers; the canonical
/// pattern is left in the scratch and returned by reference.
pub fn extract_with<'s>(
    heap: &[ACell],
    args: &[ACell],
    depth_k: usize,
    scratch: &'s mut ExtractScratch,
) -> &'s Pattern {
    let mut out = std::mem::take(&mut scratch.out).into_builder();
    out.reset(args.len());
    scratch.map.begin(heap.len());
    scratch.pair_map.begin(heap.len());
    scratch.open.clear();
    scratch.open_lists.clear();
    let mut ex = Extractor {
        heap,
        depth_k,
        out,
        map: std::mem::take(&mut scratch.map),
        pair_map: std::mem::take(&mut scratch.pair_map),
        open: std::mem::take(&mut scratch.open),
        open_lists: std::mem::take(&mut scratch.open_lists),
        visiting: std::mem::take(&mut scratch.visiting),
    };
    for (i, &a) in args.iter().enumerate() {
        let root = ex.node(a, 0);
        ex.out.set_root(i, root);
    }
    scratch.map = ex.map;
    scratch.pair_map = ex.pair_map;
    scratch.open = ex.open;
    scratch.open_lists = ex.open_lists;
    scratch.visiting = ex.visiting;
    // The extractor emits canonical form directly (pre-order numbering
    // and argument spans, ground subgraphs unshared), so the
    // canonicalization pass is skipped.
    scratch.out = Pattern::from_canonical(ex.out);
    &scratch.out
}

struct Extractor<'h> {
    heap: &'h [ACell],
    depth_k: usize,
    out: PatternBuilder,
    /// Open-cell heap address → node, for sharing-preserving extraction.
    map: AddrMap,
    /// Compound payload address → node (cons pairs and structs).
    pair_map: AddrMap,
    /// Payload addresses of `Lis`/`Str` compounds currently being
    /// extracted (the path from the roots to here). A sharing hit on one
    /// of these is a back-edge — a cyclic heap term (occurs-check-free
    /// unification can build them) — and must be summarized, not shared:
    /// patterns are acyclic by construction. Kept separate from
    /// [`Self::open_lists`] because payload addresses and cell addresses
    /// are different namespaces (a var can live in-place in a car slot).
    open: Vec<usize>,
    /// Cell addresses of `AbsList`s currently being extracted.
    open_lists: Vec<usize>,
    /// Scratch cycle-guard for [`Self::summarize`] walks (summaries run
    /// on every sharing check and depth cut; reallocating the guard per
    /// walk showed up in profiles).
    visiting: Vec<usize>,
}

impl Extractor<'_> {
    /// [`Self::summarize`] through the reusable scratch guard.
    fn summarize_scratch(&mut self, cell: ACell) -> AbsLeaf {
        let mut visiting = std::mem::take(&mut self.visiting);
        visiting.clear();
        let leaf = self.summarize(cell, &mut visiting);
        self.visiting = visiting;
        leaf
    }

    /// Emit `cell`'s summary leaf — the depth cut, also used to break
    /// back-edges of cyclic heap terms.
    fn summary_node(&mut self, cell: ACell) -> NodeId {
        let leaf = self.summarize_scratch(cell);
        // A summarized subterm loses its aliasing links, so it may not
        // claim definite freeness (see DESIGN.md §3.4).
        let leaf = if leaf == AbsLeaf::Var {
            AbsLeaf::Any
        } else {
            leaf
        };
        self.out.push(PNode::Leaf(leaf))
    }

    fn node(&mut self, cell: ACell, depth: usize) -> NodeId {
        let (cell, addr) = deref(self.heap, cell);
        // Sharing identity: open cells by their own address, compounds by
        // their payload address. Ground subgraphs are never shared (their
        // sharing carries no dataflow information), which keeps the output
        // canonical.
        match cell {
            ACell::Ref(_) | ACell::Abs(_) | ACell::AbsList(_) => {
                if let Some(a) = addr {
                    if let Some(n) = self.map.get(a) {
                        // A `Ref`/`Abs` hit is always a cross-edge (leaves
                        // have no descendants); only an `AbsList` can be
                        // an in-progress ancestor.
                        if matches!(cell, ACell::AbsList(_)) && self.open_lists.contains(&a) {
                            return self.summary_node(cell);
                        }
                        // Ground cells are never shared (checked lazily:
                        // hits are rare, groundness walks are not free).
                        if !self.summarize_scratch(cell).is_ground() {
                            return n;
                        }
                    }
                }
            }
            ACell::Lis(p) | ACell::Str(p) => {
                if let Some(n) = self.pair_map.get(p) {
                    if self.open.contains(&p) {
                        return self.summary_node(cell);
                    }
                    if !self.summarize_scratch(cell).is_ground() {
                        return n;
                    }
                }
            }
            _ => {}
        }
        if depth >= self.depth_k {
            return self.summary_node(cell);
        }
        match cell {
            ACell::Ref(a) => {
                let id = self.out.push(PNode::Leaf(AbsLeaf::Var));
                self.map.insert(a, id);
                id
            }
            ACell::Abs(l) => {
                let id = self.out.push(PNode::Leaf(l));
                if let Some(a) = addr {
                    if !l.is_ground() {
                        self.map.insert(a, id);
                    }
                }
                id
            }
            ACell::AbsList(e) => {
                let id = self.out.push(PNode::Leaf(AbsLeaf::Any)); // placeholder
                if let Some(a) = addr {
                    self.map.insert(a, id);
                }
                // Element subgraphs are unaliased type descriptions;
                // extract them fresh below the list node.
                if let Some(a) = addr {
                    self.open_lists.push(a);
                }
                let elem = self.node(ACell::Ref(e), depth + 1);
                if addr.is_some() {
                    self.open_lists.pop();
                }
                self.out.set(id, PNode::List(elem));
                id
            }
            ACell::Con(s) => self.out.push(PNode::Atom(s)),
            ACell::Int(i) => self.out.push(PNode::Int(i)),
            ACell::Lis(p) => {
                let (id, span) = self.out.push_struct(absdom::dot_symbol(), 2);
                self.pair_map.insert(p, id);
                self.open.push(p);
                let car = self.node(ACell::Ref(p), depth + 1);
                self.out.set_arg(span, 0, car);
                let cdr = self.node(ACell::Ref(p + 1), depth + 1);
                self.out.set_arg(span, 1, cdr);
                self.open.pop();
                id
            }
            ACell::Str(p) => {
                let ACell::Fun(f, n) = self.heap[p] else {
                    unreachable!("Str points at Fun");
                };
                let (id, span) = self.out.push_struct(f, n as usize);
                self.pair_map.insert(p, id);
                self.open.push(p);
                for i in 0..n as usize {
                    let child = self.node(ACell::Ref(p + 1 + i), depth + 1);
                    self.out.set_arg(span, i, child);
                }
                self.open.pop();
                id
            }
            ACell::Fun(..) => unreachable!("bare functor cell"),
        }
    }

    /// Primary approximation of a heap term (used at the depth cut).
    fn summarize(&self, cell: ACell, visiting: &mut Vec<usize>) -> AbsLeaf {
        let (cell, _) = deref(self.heap, cell);
        match cell {
            ACell::Ref(_) => AbsLeaf::Var,
            ACell::Abs(l) => l,
            ACell::AbsList(e) => {
                if visiting.contains(&e) {
                    return AbsLeaf::NonVar;
                }
                visiting.push(e);
                let ground = self.summarize(ACell::Ref(e), visiting).is_ground();
                visiting.pop();
                if ground {
                    AbsLeaf::Ground
                } else {
                    AbsLeaf::NonVar
                }
            }
            ACell::Con(_) | ACell::Int(_) => AbsLeaf::Ground,
            ACell::Lis(p) => self.summarize_compound(p, 2, p, visiting),
            ACell::Str(p) => {
                let ACell::Fun(_, n) = self.heap[p] else {
                    unreachable!()
                };
                self.summarize_compound(p + 1, n as usize, p, visiting)
            }
            ACell::Fun(..) => unreachable!(),
        }
    }

    /// Summarize a compound whose children live in the contiguous cell
    /// range `start..start + count` (cons pairs and struct argument
    /// blocks both do — which is what keeps this walk allocation-free).
    fn summarize_compound(
        &self,
        start: usize,
        count: usize,
        mark: usize,
        visiting: &mut Vec<usize>,
    ) -> AbsLeaf {
        if visiting.contains(&mark) {
            // Cyclic term: certainly nonvar; groundness undecidable here,
            // so answer conservatively.
            return AbsLeaf::NonVar;
        }
        visiting.push(mark);
        let all_ground =
            (start..start + count).all(|a| self.summarize(ACell::Ref(a), visiting).is_ground());
        visiting.pop();
        if all_ground {
            AbsLeaf::Ground
        } else {
            AbsLeaf::NonVar
        }
    }
}

/// Materialize `pattern` as fresh heap cells; returns one cell per root.
/// Sharing in the pattern becomes sharing on the heap.
pub fn materialize(heap: &mut Vec<ACell>, pattern: &Pattern) -> Vec<ACell> {
    materialize_with(heap, pattern, &mut Vec::new())
}

/// [`materialize`] with a caller-provided memo scratch, so hot callers
/// (one materialization per clause exploration and per consult hit)
/// reuse one allocation instead of building a fresh memo each time.
pub fn materialize_with(
    heap: &mut Vec<ACell>,
    pattern: &Pattern,
    done: &mut Vec<Option<ACell>>,
) -> Vec<ACell> {
    let mut out = Vec::new();
    materialize_into(heap, pattern, done, &mut out);
    out
}

/// [`materialize_with`] writing the root cells into `out` (cleared
/// first) — the fully scratch-backed form the abstract machine uses, so
/// applying a memoized success pattern allocates nothing.
pub fn materialize_into(
    heap: &mut Vec<ACell>,
    pattern: &Pattern,
    done: &mut Vec<Option<ACell>>,
    out: &mut Vec<ACell>,
) {
    done.clear();
    done.resize(pattern.nodes().len(), None);
    out.clear();
    for i in 0..pattern.arity() {
        let cell = materialize_node(heap, pattern, pattern.root(i), done);
        out.push(cell);
    }
}

/// Materialize a single node subgraph (fresh cells, memoized sharing).
pub fn materialize_node(
    heap: &mut Vec<ACell>,
    pattern: &Pattern,
    id: NodeId,
    done: &mut Vec<Option<ACell>>,
) -> ACell {
    if let Some(c) = done[id] {
        return c;
    }
    let cell = match pattern.node(id) {
        PNode::Leaf(AbsLeaf::Var) => {
            let a = heap.len();
            heap.push(ACell::Ref(a));
            ACell::Ref(a)
        }
        PNode::Leaf(l) => {
            let a = heap.len();
            heap.push(ACell::Abs(*l));
            ACell::Ref(a)
        }
        PNode::Int(i) => ACell::Int(*i),
        PNode::Atom(s) => ACell::Con(*s),
        PNode::List(e) => {
            // Memoize the list cell BEFORE the element to cut cycles.
            let a = heap.len();
            heap.push(ACell::AbsList(usize::MAX)); // patched below
            done[id] = Some(ACell::Ref(a));
            let elem = materialize_node(heap, pattern, *e, done);
            let elem_addr = match elem {
                ACell::Ref(ea) => ea,
                other => {
                    let ea = heap.len();
                    heap.push(other);
                    ea
                }
            };
            heap[a] = ACell::AbsList(elem_addr);
            return ACell::Ref(a);
        }
        PNode::Struct(f, span) => {
            let (f, span) = (*f, *span);
            if absdom::is_dot_symbol(f) && span.len() == 2 {
                let p = heap.len();
                heap.push(ACell::Ref(p));
                heap.push(ACell::Ref(p + 1));
                done[id] = Some(ACell::Lis(p));
                let car = materialize_node(heap, pattern, pattern.arg(span, 0), done);
                let cdr = materialize_node(heap, pattern, pattern.arg(span, 1), done);
                heap[p] = normalize_store(heap, p, car);
                heap[p + 1] = normalize_store(heap, p + 1, cdr);
                return ACell::Lis(p);
            }
            let p = heap.len();
            heap.push(ACell::Fun(f, span.len() as u16));
            for i in 0..span.len() {
                let a = p + 1 + i;
                heap.push(ACell::Ref(a));
            }
            done[id] = Some(ACell::Str(p));
            for (i, argid) in pattern.args(span).enumerate() {
                let c = materialize_node(heap, pattern, argid, done);
                heap[p + 1 + i] = normalize_store(heap, p + 1 + i, c);
            }
            return ACell::Str(p);
        }
    };
    done[id] = Some(cell);
    cell
}

/// Storing a cell into a slot must not create a self-reference.
fn normalize_store(_heap: &[ACell], _slot: usize, cell: ACell) -> ACell {
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog_syntax::Symbol;

    /// One node of a literal test graph: a plain node, or a struct with
    /// its argument ids.
    enum Lit {
        N(PNode),
        S(Symbol, Vec<NodeId>),
    }

    /// The canonical pattern of a literal graph and its roots.
    fn lit(nodes: Vec<Lit>, roots: &[NodeId]) -> Pattern {
        let mut b = PatternBuilder::new(roots.len());
        let mut spans = Vec::new();
        for node in nodes {
            match node {
                Lit::N(n) => {
                    b.push(n);
                }
                Lit::S(f, args) => {
                    let (_, span) = b.push_struct(f, args.len());
                    spans.push((span, args));
                }
            }
        }
        for (span, args) in spans {
            for (i, a) in args.into_iter().enumerate() {
                b.set_arg(span, i, a);
            }
        }
        for (i, &r) in roots.iter().enumerate() {
            b.set_root(i, r);
        }
        Pattern::new(b)
    }

    fn leaf(heap: &mut Vec<ACell>, l: AbsLeaf) -> ACell {
        let a = heap.len();
        heap.push(ACell::Abs(l));
        ACell::Ref(a)
    }

    #[test]
    fn extract_simple_leaves() {
        let mut heap = Vec::new();
        let g = leaf(&mut heap, AbsLeaf::Ground);
        let a = heap.len();
        heap.push(ACell::Ref(a));
        let p = extract(&heap, &[g, ACell::Ref(a), ACell::Int(3)], 4);
        assert_eq!(p, Pattern::from_spec(&["g", "var", "3"]).unwrap());
    }

    #[test]
    fn extract_preserves_aliasing() {
        let mut heap = Vec::new();
        let a = heap.len();
        heap.push(ACell::Ref(a));
        let p = extract(&heap, &[ACell::Ref(a), ACell::Ref(a)], 4);
        let shared = lit(vec![Lit::N(PNode::Leaf(AbsLeaf::Var))], &[0, 0]);
        assert_eq!(p, shared);
    }

    #[test]
    fn extract_lists() {
        let mut heap = Vec::new();
        let e = heap.len();
        heap.push(ACell::Abs(AbsLeaf::Ground));
        let l = heap.len();
        heap.push(ACell::AbsList(e));
        let p = extract(&heap, &[ACell::Ref(l)], 4);
        assert_eq!(p, Pattern::from_spec(&["glist"]).unwrap());
    }

    #[test]
    fn extract_cuts_at_depth() {
        // f(f(f(f(a)))) with k=2 → struct(f, struct-summarized).
        let mut heap = Vec::new();
        let mut inner = ACell::Con(absdom::nil_symbol());
        let f = prolog_syntax::Interner::new().intern("f");
        for _ in 0..4 {
            let p = heap.len();
            heap.push(ACell::Fun(f, 1));
            heap.push(inner);
            inner = ACell::Str(p);
        }
        let p2 = extract(&heap, &[inner], 2);
        // Depth 0: f(·); depth 1: its arg; depth 2: cut → ground leaf.
        let expected_nodes = vec![
            Lit::S(f, vec![1]),
            Lit::S(f, vec![2]),
            Lit::N(PNode::Leaf(AbsLeaf::Ground)),
        ];
        assert_eq!(p2, lit(expected_nodes, &[0]));
    }

    #[test]
    fn summarized_var_weakens_to_any() {
        // [X] (a one-element list holding a var) cut at depth 1 keeps the
        // cons at depth 0 and summarizes X (depth 1) to any, not var.
        let mut heap = Vec::new();
        let x = heap.len();
        heap.push(ACell::Ref(x));
        let p = heap.len();
        heap.push(ACell::Ref(x));
        heap.push(ACell::Con(absdom::nil_symbol()));
        let pat = extract(&heap, &[ACell::Lis(p)], 1);
        let dot = absdom::dot_symbol();
        let expected = lit(
            vec![
                Lit::S(dot, vec![1, 2]),
                Lit::N(PNode::Leaf(AbsLeaf::Any)),
                Lit::N(PNode::Leaf(AbsLeaf::Ground)),
            ],
            &[0],
        );
        assert_eq!(pat, expected);
    }

    #[test]
    fn cyclic_term_extracts_to_summary() {
        // f(X) = X without an occurs check leaves heap[x] = Str(p) with
        // the struct's argument pointing back at x. The back-edge must be
        // summarized (patterns are acyclic), not turned into a cyclic
        // pattern graph — that used to overflow every recursive pattern
        // walk downstream.
        let f = prolog_syntax::Interner::new().intern("f");
        let mut heap = Vec::new();
        let p = heap.len();
        heap.push(ACell::Fun(f, 1));
        heap.push(ACell::Ref(2));
        let x = heap.len();
        heap.push(ACell::Str(p));
        heap[p + 1] = ACell::Ref(x);
        let pat = extract(&heap, &[ACell::Ref(x)], 4);
        let expected = lit(
            vec![Lit::S(f, vec![1]), Lit::N(PNode::Leaf(AbsLeaf::NonVar))],
            &[0],
        );
        assert_eq!(pat, expected);
    }

    #[test]
    fn in_place_var_shares_across_compounds() {
        // A cons whose car slot *is* the unbound variable (heap[p] =
        // Ref(p)) makes the var's cell address collide with the pair's
        // payload address. A second occurrence of the var under another
        // compound must still share — the back-edge cut only applies to
        // compound ancestry, not to leaf cells that happen to reuse the
        // address.
        let mut heap = Vec::new();
        let p = heap.len();
        heap.push(ACell::Ref(p)); // car: unbound var, in place
        heap.push(ACell::Con(absdom::nil_symbol())); // cdr: []
        let q = heap.len();
        heap.push(ACell::Lis(p)); // car: the inner cons
        heap.push(ACell::Con(absdom::nil_symbol())); // cdr: []
        let pat = extract(&heap, &[ACell::Lis(p), ACell::Lis(q)], 4);
        let dot = absdom::dot_symbol();
        let expected = lit(
            vec![
                Lit::S(dot, vec![1, 2]),
                Lit::N(PNode::Leaf(AbsLeaf::Var)),
                Lit::N(PNode::Atom(absdom::nil_symbol())),
                Lit::S(dot, vec![0, 4]),
                Lit::N(PNode::Atom(absdom::nil_symbol())),
            ],
            &[0, 3],
        );
        assert_eq!(pat, expected);
    }

    #[test]
    fn materialize_round_trips() {
        for spec in [
            vec!["any", "var"],
            vec!["glist", "g"],
            vec!["atom", "int", "list(list(any))"],
            vec!["5", "nil"],
        ] {
            let p = Pattern::from_spec(&spec).unwrap();
            let mut heap = Vec::new();
            let cells = materialize(&mut heap, &p);
            let back = extract(&heap, &cells, 6);
            assert_eq!(back, p, "round-trip failed for {spec:?}");
        }
    }

    #[test]
    fn materialize_preserves_sharing() {
        let shared = lit(vec![Lit::N(PNode::Leaf(AbsLeaf::Any))], &[0, 0]);
        let mut heap = Vec::new();
        let cells = materialize(&mut heap, &shared);
        let (_, a0) = deref(&heap, cells[0]);
        let (_, a1) = deref(&heap, cells[1]);
        assert_eq!(a0, a1, "shared node materializes to one cell");
        let back = extract(&heap, &cells, 4);
        assert_eq!(back, shared);
    }

    #[test]
    fn materialize_concrete_structures() {
        let f = prolog_syntax::Interner::new().intern("f");
        let p = lit(
            vec![Lit::N(PNode::Leaf(AbsLeaf::Var)), Lit::S(f, vec![0])],
            &[1, 0],
        );
        let mut heap = Vec::new();
        let cells = materialize(&mut heap, &p);
        // arg0 = f(X), arg1 = X with the same X.
        let (c0, _) = deref(&heap, cells[0]);
        let ACell::Str(sp) = c0 else {
            panic!("expected struct")
        };
        let (_, inner_addr) = deref(&heap, ACell::Ref(sp + 1));
        let (_, arg1_addr) = deref(&heap, cells[1]);
        assert_eq!(inner_addr, arg1_addr);
    }
}
