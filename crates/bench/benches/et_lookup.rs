//! Extension-table consult cost: structural linear scan vs. structural
//! ordered index vs. interned-id probe, at 10/100/1000 memoized calling
//! patterns.
//!
//! The production table only stores interned `PatternId`s now, so the
//! two structural comparators are rebuilt here exactly as the table used
//! to implement them: a `Vec<Pattern>` scanned by structural equality
//! (the paper's linear list) and a `BTreeMap<Pattern, usize>` whose
//! probes pay O(log n) full pattern `Ord` walks (the pre-interning
//! hashed index). The interned probe hashes the probe pattern once
//! into the session interner, then looks up a fixed-seed
//! `FxHashMap<PatternId, usize>` — the consult path
//! `ExtensionTable::find` uses today.
//!
//! The workload models what one predicate's extension table actually
//! holds: a *family* of calling patterns produced by the same call
//! sites, sharing their argument skeleton (functors and shape) and
//! differing only in leaves deep inside the terms. Canonical numbering
//! is pre-order, so structural comparisons must walk the whole common
//! prefix before reaching a difference, while the interner's bounded
//! suffix hash reaches it in O(1). (For a table of *unrelated* tiny
//! patterns that diverge at their first node, structural comparisons
//! early-exit immediately and interning's consult win shrinks to its
//! asymptotic O(1)-vs-O(log n) edge — real tables are families.)
//!
//! The workspace builds offline (no criterion): timings are min-of-passes
//! over a deterministic xorshift64* workload. Run with
//! `cargo bench --bench et_lookup`.

use absdom::{AbsLeaf, FxHashMap, PNode, Pattern, PatternBuilder, PatternId, SessionInterner};
use prolog_syntax::Symbol;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// xorshift64* — the workspace's deterministic PRNG.
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

/// Builds one member of the calling-pattern family: a fixed skeleton
/// `f(g(h(·,·,·), h(·,·,·)), g(h(·,·,·), h(·,·,·)))` over twelve leaf
/// slots, where only the last three (the rightmost, deepest leaves — the
/// *end* of the canonical pre-order node table) vary between members.
struct FamilyBuilder<'a> {
    graph: PatternBuilder,
    emitted_leaves: usize,
    rng: &'a mut Rng,
}

/// Leaf slots that are identical across the family (out of 12).
const FIXED_LEAVES: usize = 9;

impl FamilyBuilder<'_> {
    fn leaf(&mut self) -> usize {
        let node = if self.emitted_leaves < FIXED_LEAVES {
            PNode::Leaf(AbsLeaf::Ground)
        } else if self.rng.below(4) == 0 {
            PNode::Int(self.rng.below(20) as i64)
        } else {
            PNode::Leaf(AbsLeaf::ALL[self.rng.below(AbsLeaf::ALL.len() as u64) as usize])
        };
        self.emitted_leaves += 1;
        self.graph.push(node)
    }

    fn h(&mut self, h: Symbol) -> usize {
        let (id, span) = self.graph.push_struct(h, 3);
        for i in 0..3 {
            let leaf = self.leaf();
            self.graph.set_arg(span, i, leaf);
        }
        id
    }

    fn g(&mut self, g: Symbol, h: Symbol) -> usize {
        let (id, span) = self.graph.push_struct(g, 2);
        for i in 0..2 {
            let arg = self.h(h);
            self.graph.set_arg(span, i, arg);
        }
        id
    }
}

fn family_member(rng: &mut Rng, f: Symbol, g: Symbol, h: Symbol) -> Pattern {
    let mut b = FamilyBuilder {
        graph: PatternBuilder::new(3),
        emitted_leaves: 0,
        rng,
    };
    let (arg0, span) = b.graph.push_struct(f, 2);
    for i in 0..2 {
        let arg = b.g(g, h);
        b.graph.set_arg(span, i, arg);
    }
    let elem = b.graph.push(PNode::Leaf(AbsLeaf::Ground));
    let arg1 = b.graph.push(PNode::List(elem));
    let arg2 = b.graph.push(PNode::Leaf(AbsLeaf::Var));
    for (i, root) in [arg0, arg1, arg2].into_iter().enumerate() {
        b.graph.set_root(i, root);
    }
    Pattern::new(b.graph)
}

/// `n` distinct family members (regenerating on collisions,
/// deterministically).
fn distinct_patterns(rng: &mut Rng, n: usize) -> Vec<Pattern> {
    let mut symbols = prolog_syntax::Interner::new();
    let f = symbols.intern("f");
    let g = symbols.intern("g");
    let h = symbols.intern("h");
    let mut out: Vec<Pattern> = Vec::with_capacity(n);
    while out.len() < n {
        let p = family_member(rng, f, g, h);
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

const PASSES: u32 = 30;
const LOOKUPS_PER_PASS: usize = 2_000;

/// Min-of-passes nanoseconds for `LOOKUPS_PER_PASS` consults.
fn time_ns(mut consult: impl FnMut(usize) -> Option<usize>, probes: &[usize]) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..PASSES {
        let start = Instant::now();
        for i in 0..LOOKUPS_PER_PASS {
            black_box(consult(probes[i % probes.len()]));
        }
        best = best.min(start.elapsed().as_nanos());
    }
    best
}

fn main() {
    println!(
        "et_lookup: {} consults per pass, min of {} passes; per-consult ns",
        LOOKUPS_PER_PASS, PASSES
    );
    println!(
        "{:>8} {:>16} {:>16} {:>16} {:>10}",
        "entries", "linear(ns)", "struct-ord(ns)", "interned(ns)", "speedup"
    );
    let mut rng = Rng::new(0x0E71_100C);
    for &n in &[10usize, 100, 1000] {
        let patterns = distinct_patterns(&mut rng, n);
        // Probe order: a deterministic shuffle over the stored patterns
        // (every consult is a hit, like a converged fixpoint's steady
        // state, where consult cost dominates).
        let probes: Vec<usize> = (0..LOOKUPS_PER_PASS)
            .map(|_| rng.below(n as u64) as usize)
            .collect();

        // Structural linear list — the paper's table.
        let linear: Vec<Pattern> = patterns.clone();
        let linear_ns = time_ns(
            |probe| linear.iter().position(|p| *p == patterns[probe]),
            &probes,
        );

        // Structural ordered index — the pre-interning hashed index
        // (`BTreeMap<Pattern, usize>`: O(log n) pattern Ord walks).
        let structural: BTreeMap<Pattern, usize> = patterns.iter().cloned().zip(0..).collect();
        let structural_ns = time_ns(|probe| structural.get(&patterns[probe]).copied(), &probes);

        // Interned probe — today's consult: hash the probe pattern
        // once into the interner (every steady-state consult is a dedup
        // hit: no clone, no allocation), then an id-keyed fixed-seed
        // hash-map lookup, as in the production table.
        let mut interner = SessionInterner::default();
        let index: FxHashMap<PatternId, usize> = patterns
            .iter()
            .map(|p| interner.intern(p.clone()))
            .zip(0..)
            .collect();
        let interned_ns = time_ns(
            |probe| {
                let id = interner.lookup(&patterns[probe])?;
                index.get(&id).copied()
            },
            &probes,
        );

        let per = |ns: u128| ns as f64 / LOOKUPS_PER_PASS as f64;
        println!(
            "{:>8} {:>16.1} {:>16.1} {:>16.1} {:>9.2}x",
            n,
            per(linear_ns),
            per(structural_ns),
            per(interned_ns),
            structural_ns as f64 / interned_ns as f64
        );
    }
    println!("speedup = structural ordered index / interned probe");
}
