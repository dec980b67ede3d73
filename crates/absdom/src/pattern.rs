//! Calling/success patterns: abstract term graphs with aliasing.
//!
//! A [`Pattern`] describes a tuple of abstract terms (the arguments of a
//! call, or of a successful return). It is a small arena of [`PNode`]s
//! plus one root per argument; *shared* node ids encode **definite
//! aliasing** ("these positions hold the very same term"), which is the
//! machine-level form of the paper's "complete aliasing information".
//!
//! Patterns are kept **canonical** (nodes renumbered in first-visit DFS
//! order, each struct's argument span reserved in that same order after
//! the roots, ground subgraphs unshared) so that structural equality is
//! pattern equality — the extension table keys on this.
//!
//! # The lub and aliasing
//!
//! [`Pattern::lub`] is an n-way product construction: the result node for
//! a *group* of source nodes is shared exactly when the same group recurs,
//! so definite sharing survives the join only where it is present on both
//! sides. When one side's sharing is dropped, a `var` leaf may no longer
//! claim definite freeness (its alias might have been bound through the
//! other occurrence), so such leaves are weakened to `any` — `var` is the
//! only type not closed under instantiation. See DESIGN.md §3.4.

use crate::leaf::AbsLeaf;
use prolog_syntax::{Interner, Symbol, Term};
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// Index of a node within its [`Pattern`].
pub type NodeId = usize;

/// Where a struct node's arguments sit in its pattern's argument slab
/// (see [`Pattern::args`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArgSpan {
    start: u32,
    len: u32,
}

impl ArgSpan {
    /// Number of arguments (the functor's arity).
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the struct has no arguments.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The slab index of argument `i`.
    fn at(self, i: usize) -> usize {
        assert!(i < self.len(), "argument {i} of a span of {}", self.len);
        self.start as usize + i
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// A node id as the argument slab stores it.
fn slot(id: NodeId) -> u32 {
    u32::try_from(id).expect("pattern node id overflow")
}

/// One node of a pattern graph: a 16-byte `Copy` value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PNode {
    /// An instantiable simple abstract type.
    Leaf(AbsLeaf),
    /// A specific integer.
    Int(i64),
    /// A specific atom.
    Atom(Symbol),
    /// `struct(f/n, α₁…αₙ)`: the αᵢ are [`Pattern::args`] of the span.
    Struct(Symbol, ArgSpan),
    /// `α-list` (the set of *proper* lists with elements of type α).
    List(NodeId),
}

const _: () = assert!(std::mem::size_of::<PNode>() == 16);

/// A canonical abstract description of an argument tuple.
///
/// Two heap blocks hold it (none for the empty pattern): the node slab,
/// and the argument slab, which starts with the roots and continues with
/// every struct's arguments.
///
/// # Examples
///
/// ```
/// use absdom::Pattern;
/// let p = Pattern::from_spec(&["atom", "glist"]).unwrap();
/// let q = Pattern::from_spec(&["atom", "list(g)"]).unwrap();
/// assert_eq!(p, q);
/// ```
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pattern {
    nodes: Vec<PNode>,
    /// The `arity` roots, then each struct node's span, in node order.
    args: Vec<u32>,
    arity: usize,
}

/// A pattern graph under construction: nodes in any order, sharing as
/// the edges say. [`Pattern::new`] canonicalizes it; builders that emit
/// canonical form directly hand it to [`Pattern::from_canonical`].
///
/// A struct's argument span is reserved when its node is pushed
/// ([`PatternBuilder::push_struct`]), so a builder that pushes nodes in
/// pre-order from the roots lays the argument slab out canonically too.
#[derive(Clone, Default, Debug)]
pub struct PatternBuilder {
    graph: Pattern,
}

impl PatternBuilder {
    /// An empty graph of `arity` roots, each provisionally node 0.
    pub fn new(arity: usize) -> PatternBuilder {
        let mut builder = PatternBuilder::default();
        builder.reset(arity);
        builder
    }

    /// Clear the graph for `arity` roots, keeping the buffers.
    pub fn reset(&mut self, arity: usize) {
        self.graph.reset(arity);
    }

    /// Append `node`; returns its id.
    pub fn push(&mut self, node: PNode) -> NodeId {
        self.graph.push(node)
    }

    /// Append a struct node `f` with `arity` argument slots (each
    /// provisionally node 0); returns its id and its span.
    pub fn push_struct(&mut self, f: Symbol, arity: usize) -> (NodeId, ArgSpan) {
        let span = self.graph.reserve_args(arity);
        (self.graph.push(PNode::Struct(f, span)), span)
    }

    /// Replace node `id` (a placeholder pushed before its children).
    /// A struct node keeps the span [`PatternBuilder::push_struct`] gave it.
    pub fn set(&mut self, id: NodeId, node: PNode) {
        self.graph.nodes[id] = node;
    }

    /// Point argument `i` of `span` at node `id`.
    pub fn set_arg(&mut self, span: ArgSpan, i: usize, id: NodeId) {
        self.graph.args[span.at(i)] = slot(id);
    }

    /// Point root `i` at node `id`.
    pub fn set_root(&mut self, i: usize, id: NodeId) {
        assert!(i < self.graph.arity, "root {i} of {}", self.graph.arity);
        self.graph.args[i] = slot(id);
    }
}

impl Pattern {
    /// Canonicalize a built graph.
    pub fn new(graph: PatternBuilder) -> Pattern {
        graph.graph.canonicalize()
    }

    /// Take a graph that is **already canonical** (pre-order numbering
    /// and argument spans from the roots, ground subgraphs unshared).
    /// The extractor in `awam-core` produces this form directly; in debug
    /// builds the invariant is checked.
    pub fn from_canonical(graph: PatternBuilder) -> Pattern {
        let p = graph.graph;
        debug_assert_eq!(
            p,
            p.canonicalize(),
            "from_canonical got a non-canonical graph"
        );
        p
    }

    /// This pattern as a builder holding the same graph, so builders can
    /// recycle its buffers or edit it in place.
    pub fn into_builder(self) -> PatternBuilder {
        PatternBuilder { graph: self }
    }

    /// The empty (zero-argument) pattern.
    pub fn empty() -> Pattern {
        Pattern::default()
    }

    /// Number of argument roots.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The root node of argument `i`.
    pub fn root(&self, i: usize) -> NodeId {
        self.args[..self.arity][i] as NodeId
    }

    /// The root node of every argument.
    pub fn roots(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.args[..self.arity].iter().map(|&a| a as NodeId)
    }

    /// The node table.
    pub fn nodes(&self) -> &[PNode] {
        &self.nodes
    }

    /// The node with id `id`.
    pub fn node(&self, id: NodeId) -> &PNode {
        &self.nodes[id]
    }

    /// The argument nodes of a struct node's span.
    pub fn args(&self, span: ArgSpan) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.args[span.range()].iter().map(|&a| a as NodeId)
    }

    /// Argument `i` of a struct node's span.
    pub fn arg(&self, span: ArgSpan, i: usize) -> NodeId {
        self.args[span.at(i)] as NodeId
    }

    /// The argument slab: the roots, then every struct's arguments.
    pub(crate) fn arg_slab(&self) -> &[u32] {
        &self.args
    }

    /// Whether every argument is ground.
    pub fn is_ground(&self) -> bool {
        self.roots().all(|r| self.node_is_ground(r))
    }

    /// Whether the subgraph rooted at `id` denotes only ground terms.
    pub fn node_is_ground(&self, id: NodeId) -> bool {
        match self.nodes[id] {
            PNode::Leaf(l) => l.is_ground(),
            PNode::Int(_) | PNode::Atom(_) => true,
            PNode::Struct(_, span) => self.args(span).all(|a| self.node_is_ground(a)),
            PNode::List(e) => self.node_is_ground(e),
        }
    }

    /// The primary approximation (§4.2's `AbsType`) of the subgraph at
    /// `id`, ignoring sub-structure.
    pub fn leaf_approx(&self, id: NodeId) -> AbsLeaf {
        match self.nodes[id] {
            PNode::Leaf(l) => l,
            PNode::Int(_) => AbsLeaf::Integer,
            PNode::Atom(_) => AbsLeaf::Atom,
            PNode::Struct(..) | PNode::List(_) => {
                if self.node_is_ground(id) {
                    AbsLeaf::Ground
                } else {
                    AbsLeaf::NonVar
                }
            }
        }
    }

    // ----- building -----

    /// Clear to an empty graph of `arity` roots, each provisionally 0.
    fn reset(&mut self, arity: usize) {
        self.nodes.clear();
        self.args.clear();
        self.args.resize(arity, 0);
        self.arity = arity;
    }

    fn push(&mut self, node: PNode) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Reserve `len` argument slots (each provisionally node 0).
    fn reserve_args(&mut self, len: usize) -> ArgSpan {
        let span = ArgSpan {
            start: u32::try_from(self.args.len()).expect("argument slab overflow"),
            len: u32::try_from(len).expect("struct arity overflow"),
        };
        self.args.resize(self.args.len() + len, 0);
        span
    }

    // ----- canonicalization -----

    /// Renumber nodes in first-visit DFS order from the roots, reserving
    /// each struct's span as its node is numbered; ground subgraphs are
    /// duplicated per occurrence (sharing of ground terms carries no
    /// dataflow information, and unsharing them is a sound
    /// over-approximation that improves extension-table reuse).
    fn canonicalize(&self) -> Pattern {
        let mut out = Pattern::empty();
        self.canonicalize_into(&mut Vec::new(), &mut out);
        out
    }

    /// [`Pattern::canonicalize`] into `out` (cleared first) through a
    /// caller-provided renumbering map, so hot callers reuse both.
    fn canonicalize_into(&self, map: &mut Vec<Option<NodeId>>, out: &mut Pattern) {
        out.reset(self.arity);
        map.clear();
        map.resize(self.nodes.len(), None);
        for i in 0..self.arity {
            out.args[i] = slot(self.canon_node(self.args[i] as NodeId, map, out));
        }
    }

    fn canon_node(&self, id: NodeId, map: &mut [Option<NodeId>], out: &mut Pattern) -> NodeId {
        let shareable = !self.node_is_ground(id);
        if shareable {
            if let Some(new) = map[id] {
                return new;
            }
        }
        // Number the node (and reserve its span) before its children:
        // pre-order numbering, and cycles cannot recurse forever.
        let node = self.nodes[id];
        let numbered = match node {
            PNode::Struct(f, span) => PNode::Struct(f, out.reserve_args(span.len())),
            _ => node,
        };
        let new = out.push(numbered);
        if shareable {
            map[id] = Some(new);
        }
        match (node, numbered) {
            (PNode::Struct(_, span), PNode::Struct(_, new_span)) => {
                for i in 0..span.len() {
                    let child = self.canon_node(self.arg(span, i), map, out);
                    out.args[new_span.at(i)] = slot(child);
                }
            }
            (PNode::List(e), _) => out.nodes[new] = PNode::List(self.canon_node(e, map, out)),
            _ => {}
        }
        new
    }

    // ----- lub -----

    /// Least upper bound of two patterns of the same arity.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ (an internal invariant: the extension
    /// table lubs success patterns of a single predicate).
    pub fn lub(&self, other: &Pattern) -> Pattern {
        self.lub_with(other, &mut LubScratch::default())
    }

    /// [`Pattern::lub`] with caller-provided scratch buffers. The lattice
    /// memo layer computes thousands of structural lubs per analysis;
    /// reusing the context buffers (group memo, occurrence counts,
    /// pre-canonical output, canonicalization map) keeps the hot path off
    /// the allocator.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ, like [`Pattern::lub`].
    pub fn lub_with(&self, other: &Pattern, scratch: &mut LubScratch) -> Pattern {
        self.lub_core(other, scratch);
        let mut out = Pattern::empty();
        scratch
            .out
            .canonicalize_into(&mut scratch.canon_map, &mut out);
        out
    }

    /// [`Pattern::lub_with`], but the canonical result is left inside the
    /// scratch (and returned by reference) instead of freshly allocated.
    /// Pair with [`crate::intern::SessionInterner::intern_ref`] for a
    /// fully allocation-free lub on arena hits.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ, like [`Pattern::lub`].
    pub fn lub_in<'s>(&self, other: &Pattern, scratch: &'s mut LubScratch) -> &'s Pattern {
        self.lub_core(other, scratch);
        scratch
            .out
            .canonicalize_into(&mut scratch.canon_map, &mut scratch.canon_out);
        &scratch.canon_out
    }

    /// Shared body of [`Pattern::lub_with`] / [`Pattern::lub_in`]: builds
    /// the pre-canonical join into `scratch.out`.
    fn lub_core(&self, other: &Pattern, scratch: &mut LubScratch) {
        assert_eq!(self.arity(), other.arity(), "lub of mismatched arities");
        scratch.reset(self.nodes.len(), other.nodes.len(), self.arity);
        let mut ctx = LubCtx {
            sides: [self, other],
            s: scratch,
        };
        for i in 0..self.arity() {
            let mut group = ctx.s.take_group();
            group.push((0, self.root(i)));
            group.push((1, other.root(i)));
            let root = ctx.lub_group(group);
            ctx.s.out.args[i] = slot(root);
        }
        // Aliasing-drop weakening: a source node that participated in more
        // than one distinct group lost (some of) its sharing; `var` leaves
        // built from such nodes must weaken to `any`.
        // (`memo[i]` is the group result node `i` was built from: results
        // are numbered in memo insertion order.)
        for result in 0..ctx.s.memo.len() {
            if matches!(ctx.s.out.nodes[result], PNode::Leaf(AbsLeaf::Var))
                && ctx.s.memo[result]
                    .0
                    .iter()
                    .any(|&(side, n)| ctx.s.occurrences[side][n] > 1)
            {
                ctx.s.out.nodes[result] = PNode::Leaf(AbsLeaf::Any);
            }
        }
    }

    /// Whether `self` is subsumed by `other` (`self ⊑ other`): every
    /// concrete argument tuple described by `self` is also described by
    /// `other`. Computed through the canonical lub — patterns are kept
    /// canonical, so `self ⊑ other` holds exactly when joining `self`
    /// into `other` adds nothing.
    ///
    /// This is the reuse test of the session layer: a query whose entry
    /// pattern is subsumed by an already-analyzed calling pattern can be
    /// answered from the extension table without running the fixpoint.
    pub fn leq(&self, other: &Pattern) -> bool {
        if self.arity() != other.arity() {
            return false;
        }
        self == other || self.lub(other) == *other
    }

    // ----- coverage (the soundness oracle) -----

    /// Whether the concrete argument tuple `args` is described by this
    /// pattern. Shared (aliased) nodes require structurally identical
    /// terms; `var` requires the term to be a variable; `list(α)` requires
    /// a proper list.
    ///
    /// This is the γ-membership check used by the end-to-end soundness
    /// tests: every concrete call observed when running a benchmark must
    /// be covered by the analyzer's extension-table entry.
    pub fn covers(&self, args: &[Term]) -> bool {
        if args.len() != self.arity() {
            return false;
        }
        let refs = self.in_degrees();
        let mut seen: HashMap<NodeId, Term> = HashMap::new();
        self.roots()
            .zip(args)
            .all(|(r, t)| self.covers_node(r, t, &refs, &mut seen))
    }

    fn covers_node(
        &self,
        id: NodeId,
        term: &Term,
        refs: &[u32],
        seen: &mut HashMap<NodeId, Term>,
    ) -> bool {
        // Definite sharing: the same node must describe identical terms.
        if refs[id] > 1 {
            if let Some(prev) = seen.get(&id) {
                if prev != term {
                    return false;
                }
            } else {
                seen.insert(id, term.clone());
            }
        }
        match self.nodes[id] {
            PNode::Leaf(l) => leaf_covers(l, term),
            PNode::Int(i) => matches!(term, Term::Int(j) if *j == i),
            PNode::Atom(a) => matches!(term, Term::Atom(b) if *b == a),
            PNode::Struct(f, span) => match term {
                Term::Struct(g, args) if *g == f && args.len() == span.len() => self
                    .args(span)
                    .zip(args)
                    .all(|(n, a)| self.covers_node(n, a, refs, seen)),
                _ => false,
            },
            PNode::List(e) => self.covers_list(e, term, refs, seen),
        }
    }

    fn covers_list(
        &self,
        elem: NodeId,
        term: &Term,
        refs: &[u32],
        seen: &mut HashMap<NodeId, Term>,
    ) -> bool {
        let mut t = term;
        loop {
            match t {
                Term::Atom(_) => {
                    // Must be `[]`; we cannot resolve the symbol here, so
                    // accept any arity-0 atom named like nil by checking
                    // the well-known index.
                    return is_nil_atom(t);
                }
                Term::Struct(f, args) if args.len() == 2 && is_dot_symbol(*f) => {
                    if !self.covers_node(elem, &args[0], refs, seen) {
                        return false;
                    }
                    t = &args[1];
                }
                _ => return false,
            }
        }
    }

    /// How many references each node has: root occurrences, struct
    /// arguments (together, the whole argument slab) and list elements.
    /// A node with more than one is definitely shared.
    pub(crate) fn in_degrees(&self) -> Vec<u32> {
        let mut refs = vec![0u32; self.nodes.len()];
        for &a in &self.args {
            refs[a as NodeId] += 1;
        }
        for node in &self.nodes {
            if let PNode::List(e) = *node {
                refs[e] += 1;
            }
        }
        refs
    }

    // ----- parsing and display -----

    /// Parse a pattern from one spec string per argument.
    ///
    /// Specs: `any`, `nv`, `g`/`ground`, `const`, `atom`, `int`/`integer`,
    /// `var`, `glist` (= `list(g)`), `ilist` (= `list(int)`),
    /// `list(<spec>)`, `<integer literal>`.
    ///
    /// Returns `None` on an unrecognized spec.
    pub fn from_spec(specs: &[&str]) -> Option<Pattern> {
        let mut graph = PatternBuilder::new(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let id = parse_spec(spec.trim(), &mut graph)?;
            graph.set_root(i, id);
        }
        Some(Pattern::new(graph))
    }

    /// Render with `interner` for atom names; shared nodes print as
    /// `#n=…` on first occurrence and `#n` after.
    pub fn display(&self, interner: &Interner) -> String {
        let mut out = String::new();
        self.write_display(interner, &mut out);
        out
    }

    /// [`Pattern::display`], appended to `out`. Linear in the pattern:
    /// one pass counts every node's references, one prints.
    pub fn write_display(&self, interner: &Interner, out: &mut String) {
        self.write_roots(interner, |_| true, out);
    }

    /// The argument tuple; a root `printable` rejects shows as `<node N>`.
    fn write_roots(
        &self,
        interner: &Interner,
        printable: impl Fn(NodeId) -> bool,
        out: &mut String,
    ) {
        let mut printer = Printer::new(self, interner);
        out.push('(');
        for (i, r) in self.roots().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if printable(r) {
                printer.node(r, out);
            } else {
                let _ = write!(out, "<node {r}>");
            }
        }
        out.push(')');
    }

    fn symbols_in_range(&self, id: NodeId, len: usize) -> bool {
        match self.nodes[id] {
            PNode::Atom(a) => a.index() < len,
            PNode::Struct(f, span) => {
                f.index() < len && self.args(span).all(|a| self.symbols_in_range(a, len))
            }
            PNode::List(e) => self.symbols_in_range(e, len),
            _ => true,
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Displays without an interner resolve only the well-known atoms;
        // an argument mentioning any other symbol prints as `<node N>`.
        let interner = Interner::new();
        let mut out = String::new();
        self.write_roots(
            &interner,
            |r| self.symbols_in_range(r, interner.len()),
            &mut out,
        );
        f.write_str(&out)
    }
}

/// Print state of one node in [`Printer::marks`].
const UNSHARED: u32 = u32::MAX;
/// A shared node not printed yet (it gets the next `#n=` mark).
const UNMARKED: u32 = u32::MAX - 1;

/// One display pass over a pattern: each node's state is [`UNSHARED`],
/// [`UNMARKED`], or the `#n` mark it was first printed with.
struct Printer<'a> {
    pattern: &'a Pattern,
    interner: &'a Interner,
    marks: Vec<u32>,
    next_mark: u32,
}

impl<'a> Printer<'a> {
    fn new(pattern: &'a Pattern, interner: &'a Interner) -> Printer<'a> {
        let mut marks = pattern.in_degrees();
        for m in &mut marks {
            *m = if *m > 1 { UNMARKED } else { UNSHARED };
        }
        Printer {
            pattern,
            interner,
            marks,
            next_mark: 0,
        }
    }

    fn node(&mut self, id: NodeId, out: &mut String) {
        match self.marks[id] {
            UNSHARED => {}
            UNMARKED => {
                self.marks[id] = self.next_mark;
                self.next_mark += 1;
                let _ = write!(out, "#{}=", self.marks[id]);
            }
            mark => {
                let _ = write!(out, "#{mark}");
                return;
            }
        }
        let pattern = self.pattern;
        match pattern.nodes[id] {
            PNode::Leaf(l) => out.push_str(l.name()),
            PNode::Int(i) => {
                let _ = write!(out, "{i}");
            }
            PNode::Atom(a) => out.push_str(self.interner.resolve(a)),
            PNode::Struct(f, span) => {
                let name = self.interner.resolve(f);
                if name == "." && span.len() == 2 {
                    out.push('[');
                    self.node(pattern.arg(span, 0), out);
                    out.push('|');
                    self.node(pattern.arg(span, 1), out);
                    out.push(']');
                } else {
                    out.push_str(name);
                    out.push('(');
                    for (i, a) in pattern.args(span).enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        self.node(a, out);
                    }
                    out.push(')');
                }
            }
            // `list(g)` abbreviates to `glist` whenever the element prints
            // as `g`: an unshared ground leaf, or an atom named `g`.
            PNode::List(e) => {
                let prints_g = self.marks[e] == UNSHARED
                    && match pattern.nodes[e] {
                        PNode::Leaf(l) => l == AbsLeaf::Ground,
                        PNode::Atom(a) => self.interner.resolve(a) == "g",
                        _ => false,
                    };
                if prints_g {
                    out.push_str("glist");
                } else {
                    out.push_str("list(");
                    self.node(e, out);
                    out.push(')');
                }
            }
        }
    }
}

/// Reusable buffers for [`Pattern::lub_with`]: everything a lub computes
/// through except the returned canonical pattern itself. Freed group
/// vectors are pooled and handed back out, so a warm scratch performs no
/// allocation at all on patterns it has seen the shape of before.
///
/// A scratch belongs to one run (the abstract machine owns one per
/// fixpoint); nothing that outlives the run keeps it.
#[derive(Clone, Debug, Default)]
pub struct LubScratch {
    /// Group → result node; groups are tiny, linear search wins. Entry
    /// `i` is the group result node `i` was built from (results are
    /// numbered in insertion order).
    memo: Vec<(Vec<(usize, NodeId)>, NodeId)>,
    /// How many distinct groups each source node participates in
    /// (dense per side).
    occurrences: [Vec<u8>; 2],
    /// The pre-canonical output under construction.
    out: Pattern,
    /// Retired group vectors, reissued by [`LubScratch::take_group`].
    pool: Vec<Vec<(usize, NodeId)>>,
    /// Canonicalization renumbering map.
    canon_map: Vec<Option<NodeId>>,
    /// The canonical result of the last [`Pattern::lub_in`].
    canon_out: Pattern,
    /// Group-hash → first memo index with that hash, so a group lookup
    /// probes once instead of scanning the whole memo (which is quadratic
    /// on large patterns). Cleared (capacity kept) per join.
    group_index: crate::intern::FxHashMap<u64, u32>,
    /// Memo indices whose group hash collided with an earlier entry;
    /// scanned linearly (in practice always empty).
    group_overflow: Vec<(u64, u32)>,
}

impl LubScratch {
    /// Prepare for a lub of two patterns with the given node counts and
    /// `arity` roots.
    fn reset(&mut self, left_nodes: usize, right_nodes: usize, arity: usize) {
        for (group, _) in self.memo.drain(..) {
            self.pool.push(group);
        }
        for (side, len) in [left_nodes, right_nodes].into_iter().enumerate() {
            self.occurrences[side].clear();
            self.occurrences[side].resize(len, 0);
        }
        self.out.reset(arity);
        self.group_index.clear();
        self.group_overflow.clear();
    }

    /// The memo entry for `group`, probed through the hash index.
    fn find_group(&self, hash: u64, group: &[(usize, NodeId)]) -> Option<NodeId> {
        if let Some(&i) = self.group_index.get(&hash) {
            if self.memo[i as usize].0 == group {
                return Some(self.memo[i as usize].1);
            }
            // First-slot mismatch: same hash, different group — check the
            // collision overflow.
            for &(h, j) in &self.group_overflow {
                if h == hash && self.memo[j as usize].0 == group {
                    return Some(self.memo[j as usize].1);
                }
            }
        }
        None
    }

    /// Record that memo entry `memo_idx` holds the group hashing to `hash`.
    fn index_group(&mut self, hash: u64, memo_idx: usize) {
        let memo_idx = u32::try_from(memo_idx).expect("lub memo overflow");
        match self.group_index.entry(hash) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(memo_idx);
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                self.group_overflow.push((hash, memo_idx));
            }
        }
    }

    /// Hash of a (sorted, deduped) group, for the memo bucket index.
    fn group_hash(group: &[(usize, NodeId)]) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::intern::FxHasher::default();
        group.hash(&mut h);
        h.finish()
    }

    /// An empty group vector, reusing a retired one when available.
    fn take_group(&mut self) -> Vec<(usize, NodeId)> {
        self.pool
            .pop()
            .map(|mut g| {
                g.clear();
                g
            })
            .unwrap_or_default()
    }

    /// Return a group vector to the pool without memoizing it.
    fn recycle(&mut self, group: Vec<(usize, NodeId)>) {
        self.pool.push(group);
    }
}

struct LubCtx<'a> {
    sides: [&'a Pattern; 2],
    s: &'a mut LubScratch,
}

impl LubCtx<'_> {
    /// Lub of a group of source nodes (normally one per side; list
    /// summarization can merge several from one side). Takes ownership of
    /// `group` (pool-allocated via [`LubScratch::take_group`]) and either
    /// memoizes or recycles it.
    fn lub_group(&mut self, mut group: Vec<(usize, NodeId)>) -> NodeId {
        group.sort_unstable();
        group.dedup();
        let hash = LubScratch::group_hash(&group);
        if let Some(id) = self.s.find_group(hash, &group) {
            self.s.recycle(group);
            return id;
        }
        // Reserve result slot (guards against cycles, preserves sharing).
        let result = self.s.out.push(PNode::Leaf(AbsLeaf::Any));
        for &(side, n) in &group {
            self.s.occurrences[side][n] = self.s.occurrences[side][n].saturating_add(1);
        }
        self.s.index_group(hash, self.s.memo.len());
        self.s.memo.push((group, result));

        let node = self.compute(result);
        self.s.out.nodes[result] = node;
        result
    }

    /// Compute the node for memo entry `result` (its group is read from
    /// the memo, which recursion only appends to).
    fn compute(&mut self, result: usize) -> PNode {
        let group_len = self.s.memo[result].0.len();
        let view = |ctx: &Self, i: usize| {
            let (side, n) = ctx.s.memo[result].0[i];
            *ctx.sides[side].node(n)
        };

        // All identical integers / atoms.
        if let PNode::Int(i) = view(self, 0) {
            if (0..group_len).all(|k| view(self, k) == PNode::Int(i)) {
                return PNode::Int(i);
            }
        }
        if let PNode::Atom(a) = view(self, 0) {
            if (0..group_len).all(|k| view(self, k) == PNode::Atom(a)) {
                return PNode::Atom(a);
            }
        }
        // All structs with the same functor (including cons/cons).
        if let PNode::Struct(f, span0) = view(self, 0) {
            let arity = span0.len();
            if (0..group_len)
                .all(|k| matches!(view(self, k), PNode::Struct(g, s) if g == f && s.len() == arity))
            {
                let span = self.s.out.reserve_args(arity);
                for i in 0..arity {
                    let mut child_group = self.s.take_group();
                    for k in 0..group_len {
                        let (side, n) = self.s.memo[result].0[k];
                        let PNode::Struct(_, s) = *self.sides[side].node(n) else {
                            unreachable!()
                        };
                        child_group.push((side, self.sides[side].arg(s, i)));
                    }
                    let child = self.lub_group(child_group);
                    self.s.out.args[span.at(i)] = slot(child);
                }
                return PNode::Struct(f, span);
            }
        }
        // All list-shaped (List / nil / cons chains) → α-list.
        if let Some(elem_groups) = self.try_list_view(result) {
            if elem_groups.is_empty() {
                // All nil.
                self.s.recycle(elem_groups);
                return PNode::Atom(nil_symbol());
            }
            let elem = self.lub_group(elem_groups);
            return PNode::List(elem);
        }
        // Fallback: leaf lub of primary approximations.
        let (s0, n0) = self.s.memo[result].0[0];
        let mut leaf = self.sides[s0].leaf_approx(n0);
        for k in 1..group_len {
            let (side, n) = self.s.memo[result].0[k];
            leaf = leaf.lub(self.sides[side].leaf_approx(n));
        }
        PNode::Leaf(leaf)
    }

    /// If every member of the group of memo entry `result` is
    /// list-shaped, return the union of their element nodes (to be lubbed
    /// into the α parameter). `None` if any member is not a
    /// (proper-)list shape.
    fn try_list_view(&mut self, result: usize) -> Option<Vec<(usize, NodeId)>> {
        let mut elems = self.s.take_group();
        for k in 0..self.s.memo[result].0.len() {
            let (side, n) = self.s.memo[result].0[k];
            if self.collect_list_elems(side, n, &mut elems, 0).is_none() {
                self.s.recycle(elems);
                return None;
            }
        }
        Some(elems)
    }

    fn collect_list_elems(
        &self,
        side: usize,
        node: NodeId,
        elems: &mut Vec<(usize, NodeId)>,
        depth: usize,
    ) -> Option<()> {
        if depth > 64 {
            return None;
        }
        let pattern = self.sides[side];
        match *pattern.node(node) {
            PNode::List(e) => {
                elems.push((side, e));
                Some(())
            }
            PNode::Atom(a) if a == nil_symbol() => Some(()),
            PNode::Struct(f, span) if is_dot_symbol(f) && span.len() == 2 => {
                elems.push((side, pattern.arg(span, 0)));
                self.collect_list_elems(side, pattern.arg(span, 1), elems, depth + 1)
            }
            _ => None,
        }
    }
}

fn leaf_covers(leaf: AbsLeaf, term: &Term) -> bool {
    use AbsLeaf::*;
    match leaf {
        Any => true,
        Var => matches!(term, Term::Var(_)),
        NonVar => !matches!(term, Term::Var(_)),
        Ground => term.is_ground(),
        Const => matches!(term, Term::Atom(_) | Term::Int(_)),
        Atom => matches!(term, Term::Atom(_)),
        Integer => matches!(term, Term::Int(_)),
    }
}

/// The well-known `[]` symbol (fixed index in every [`Interner`]).
pub fn nil_symbol() -> Symbol {
    Symbol::NIL
}

/// The well-known `'.'` symbol (fixed index in every [`Interner`]).
pub fn dot_symbol() -> Symbol {
    Symbol::DOT
}

/// Whether `sym` is the well-known `'.'` symbol.
pub fn is_dot_symbol(sym: Symbol) -> bool {
    sym == Symbol::DOT
}

fn is_nil_atom(term: &Term) -> bool {
    matches!(term, Term::Atom(a) if *a == nil_symbol())
}

fn parse_spec(spec: &str, graph: &mut PatternBuilder) -> Option<NodeId> {
    if let Ok(i) = spec.parse::<i64>() {
        return Some(graph.push(PNode::Int(i)));
    }
    let leaf = match spec {
        "any" => Some(AbsLeaf::Any),
        "nv" | "nonvar" => Some(AbsLeaf::NonVar),
        "g" | "ground" => Some(AbsLeaf::Ground),
        "const" => Some(AbsLeaf::Const),
        "atom" => Some(AbsLeaf::Atom),
        "int" | "integer" => Some(AbsLeaf::Integer),
        "var" => Some(AbsLeaf::Var),
        _ => None,
    };
    if let Some(l) = leaf {
        return Some(graph.push(PNode::Leaf(l)));
    }
    match spec {
        "glist" => {
            let e = graph.push(PNode::Leaf(AbsLeaf::Ground));
            Some(graph.push(PNode::List(e)))
        }
        "ilist" => {
            let e = graph.push(PNode::Leaf(AbsLeaf::Integer));
            Some(graph.push(PNode::List(e)))
        }
        "nil" | "[]" => Some(graph.push(PNode::Atom(nil_symbol()))),
        _ => {
            let inner = spec.strip_prefix("list(")?.strip_suffix(')')?;
            let e = parse_spec(inner, graph)?;
            Some(graph.push(PNode::List(e)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prolog_syntax::parse_term;

    fn spec(s: &[&str]) -> Pattern {
        Pattern::from_spec(s).expect("valid spec")
    }

    fn term(src: &str) -> Term {
        parse_term(src).unwrap().0
    }

    /// A pattern from a struct-free graph and its roots.
    fn graph(nodes: &[PNode], roots: &[NodeId]) -> Pattern {
        let mut b = PatternBuilder::new(roots.len());
        for &node in nodes {
            b.push(node);
        }
        for (i, &r) in roots.iter().enumerate() {
            b.set_root(i, r);
        }
        Pattern::new(b)
    }

    #[test]
    fn spec_parsing_and_equality() {
        assert_eq!(spec(&["glist"]), spec(&["list(g)"]));
        assert_ne!(spec(&["glist"]), spec(&["list(any)"]));
        assert_eq!(spec(&["any", "var"]).arity(), 2);
        assert!(Pattern::from_spec(&["bogus"]).is_none());
        assert_eq!(spec(&["list(list(int))"]).arity(), 1);
    }

    #[test]
    fn canonical_equality_is_structural() {
        // Build the same shape with scrambled node order.
        let a = graph(&[PNode::Leaf(AbsLeaf::Ground), PNode::List(0)], &[1]);
        let b = graph(
            &[
                PNode::List(2),
                PNode::Leaf(AbsLeaf::Atom),
                PNode::Leaf(AbsLeaf::Ground),
            ],
            &[0],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn argument_spans_follow_the_roots_in_pre_order() {
        // (f(X, [X|g]), X) built children-first, with X shared.
        let mut interner = Interner::new();
        let f = interner.intern("f");
        let dot = interner.dot();
        let mut b = PatternBuilder::new(2);
        let x = b.push(PNode::Leaf(AbsLeaf::Var));
        let g = b.push(PNode::Leaf(AbsLeaf::Ground));
        let (cons, cons_args) = b.push_struct(dot, 2);
        b.set_arg(cons_args, 0, x);
        b.set_arg(cons_args, 1, g);
        let (s, s_args) = b.push_struct(f, 2);
        b.set_arg(s_args, 0, x);
        b.set_arg(s_args, 1, cons);
        b.set_root(0, s);
        b.set_root(1, x);
        let p = Pattern::new(b);
        // Pre-order: f(…) = 0, X = 1, [X|g] = 2, g = 3; the slab holds
        // the roots, then f's span, then the cons cell's.
        assert_eq!(p.roots().collect::<Vec<_>>(), [0, 1]);
        let PNode::Struct(_, span) = *p.node(0) else {
            panic!("root 0 is f(…)")
        };
        assert_eq!(p.args(span).collect::<Vec<_>>(), [1, 2]);
        let PNode::Struct(_, span) = *p.node(2) else {
            panic!("node 2 is the cons cell")
        };
        assert_eq!(p.args(span).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(p.arg_slab(), &[0, 1, 1, 2, 1, 3]);
        assert_eq!(p.display(&interner), "(f(#0=var, [#0|g]), #0)");
        // Canonical form is a fixpoint, so `from_canonical` accepts it.
        assert_eq!(Pattern::from_canonical(p.clone().into_builder()), p);
    }

    #[test]
    fn sharing_is_part_of_identity() {
        // (var, var) unshared vs (X, X) shared.
        let unshared = graph(
            &[PNode::Leaf(AbsLeaf::Var), PNode::Leaf(AbsLeaf::Var)],
            &[0, 1],
        );
        let shared = graph(&[PNode::Leaf(AbsLeaf::Var)], &[0, 0]);
        assert_ne!(unshared, shared);
    }

    #[test]
    fn lub_of_equal_is_identity() {
        for s in [
            vec!["any"],
            vec!["glist", "var"],
            vec!["atom", "int", "list(any)"],
        ] {
            let p = spec(&s);
            assert_eq!(p.lub(&p), p, "{s:?}");
        }
    }

    #[test]
    fn lub_leaf_examples() {
        assert_eq!(spec(&["atom"]).lub(&spec(&["int"])), spec(&["const"]));
        assert_eq!(spec(&["var"]).lub(&spec(&["g"])), spec(&["any"]));
        assert_eq!(spec(&["g"]).lub(&spec(&["nv"])), spec(&["nv"]));
    }

    #[test]
    fn lub_lists() {
        assert_eq!(spec(&["glist"]).lub(&spec(&["glist"])), spec(&["glist"]));
        assert_eq!(
            spec(&["glist"]).lub(&spec(&["list(any)"])),
            spec(&["list(any)"])
        );
        assert_eq!(spec(&["glist"]).lub(&spec(&["nil"])), spec(&["glist"]));
        // list vs non-list struct falls back to a leaf.
        let f = prolog_syntax::Interner::new().intern("f");
        let mut b = PatternBuilder::new(1);
        let (s, args) = b.push_struct(f, 1);
        let a = b.push(PNode::Leaf(AbsLeaf::Ground));
        b.set_arg(args, 0, a);
        b.set_root(0, s);
        let strct = Pattern::new(b);
        assert_eq!(spec(&["glist"]).lub(&strct), spec(&["g"]));
    }

    #[test]
    fn lub_cons_with_list_summarizes() {
        // [g|glist] ⊔ glist = glist
        let dot = prolog_syntax::Interner::new().dot();
        let mut b = PatternBuilder::new(1);
        let car = b.push(PNode::Leaf(AbsLeaf::Ground));
        let elem = b.push(PNode::Leaf(AbsLeaf::Ground));
        let cdr = b.push(PNode::List(elem));
        let (cons, args) = b.push_struct(dot, 2);
        b.set_arg(args, 0, car);
        b.set_arg(args, 1, cdr);
        b.set_root(0, cons);
        let cons = Pattern::new(b);
        assert_eq!(cons.lub(&spec(&["glist"])), spec(&["glist"]));
    }

    #[test]
    fn lub_keeps_sharing_present_on_both_sides() {
        let shared = graph(&[PNode::Leaf(AbsLeaf::Var)], &[0, 0]);
        let joined = shared.lub(&shared);
        assert_eq!(joined, shared);
    }

    #[test]
    fn lub_drops_one_sided_sharing_and_weakens_var() {
        let shared = graph(&[PNode::Leaf(AbsLeaf::Var)], &[0, 0]);
        let unshared = graph(
            &[PNode::Leaf(AbsLeaf::Var), PNode::Leaf(AbsLeaf::Var)],
            &[0, 1],
        );
        let joined = shared.lub(&unshared);
        // Sharing dropped, and var weakened to any (the dropped alias may
        // bind through the other occurrence).
        assert_eq!(joined, spec(&["any", "any"]));
    }

    #[test]
    fn lub_is_commutative_and_monotone_on_samples() {
        let samples = [
            spec(&["any", "var"]),
            spec(&["glist", "g"]),
            spec(&["atom", "int"]),
            spec(&["nv", "list(any)"]),
            graph(&[PNode::Leaf(AbsLeaf::Var)], &[0, 0]),
        ];
        for p in &samples {
            for q in &samples {
                assert_eq!(p.lub(q), q.lub(p));
                let j = p.lub(q);
                // lub is an upper bound in the coverage sense: anything
                // covered by p is covered by j (spot-check with terms).
                for t in ["f(a)", "[1, 2]", "7", "foo"] {
                    let t1 = term(t);
                    let t2 = term(t);
                    if p.covers(&[t1.clone(), t2.clone()]) {
                        assert!(j.covers(&[t1, t2]), "{p} ⊑ {j} violated on {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn covers_leaves() {
        assert!(spec(&["any"]).covers(&[term("f(X)")]));
        assert!(spec(&["g"]).covers(&[term("f(a, [1])")]));
        assert!(!spec(&["g"]).covers(&[term("f(X)")]));
        assert!(spec(&["var"]).covers(&[term("X")]));
        assert!(!spec(&["var"]).covers(&[term("a")]));
        assert!(spec(&["atom"]).covers(&[term("foo")]));
        assert!(!spec(&["atom"]).covers(&[term("3")]));
        assert!(spec(&["const"]).covers(&[term("3")]));
        assert!(spec(&["nv"]).covers(&[term("f(X)")]));
    }

    #[test]
    fn covers_lists() {
        assert!(spec(&["glist"]).covers(&[term("[1, 2, 3]")]));
        assert!(spec(&["glist"]).covers(&[term("[]")]));
        assert!(!spec(&["glist"]).covers(&[term("[1|X]")]));
        assert!(!spec(&["glist"]).covers(&[term("[X]")]));
        assert!(spec(&["list(any)"]).covers(&[term("[X, 1]")]));
        assert!(spec(&["ilist"]).covers(&[term("[1, 2]")]));
        assert!(!spec(&["ilist"]).covers(&[term("[a]")]));
    }

    #[test]
    fn covers_respects_sharing() {
        let shared = graph(&[PNode::Leaf(AbsLeaf::Any)], &[0, 0]);
        // Parse both argument terms together so they share one interner.
        let Term::Struct(_, args) = term("pair(f(a), f(a), g(b))") else {
            panic!()
        };
        assert!(shared.covers(&[args[0].clone(), args[1].clone()]));
        assert!(!shared.covers(&[args[0].clone(), args[2].clone()]));
    }

    #[test]
    fn display_formats() {
        let interner = Interner::new();
        assert_eq!(spec(&["glist", "var"]).display(&interner), "(glist, var)");
        let shared = graph(&[PNode::Leaf(AbsLeaf::Var)], &[0, 0]);
        assert_eq!(shared.display(&interner), "(#0=var, #0)");
    }

    #[test]
    fn ground_subgraphs_are_unshared_by_canonicalization() {
        // Two roots sharing one ground list node → duplicated.
        let p = graph(&[PNode::Leaf(AbsLeaf::Ground), PNode::List(0)], &[1, 1]);
        assert_eq!(p, spec(&["glist", "glist"]));
    }
}
