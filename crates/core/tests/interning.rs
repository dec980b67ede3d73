//! Hash-consing: a real fixpoint run dedups its repeated patterns
//! through the interner, plus randomized checks that the session
//! interner's memoized lattice operations agree with direct computation.

use absdom::{AbsLeaf, LubScratch, PNode, Pattern, PatternBuilder, SessionInterner};
use awam_core::Analyzer;

#[test]
fn end_to_end_interner_counters_show_dedup() {
    // Regression guard for the insert path: with id-keyed entries the
    // table never clones a pattern, so the only pattern constructions
    // are the interner's misses — and the repeated patterns of a real
    // fixpoint run must show up as dedup hits and saved bytes.
    let b = bench_suite::all()
        .into_iter()
        .find(|b| b.name == "nreverse")
        .expect("nreverse in suite");
    let entry = Pattern::from_spec(b.entry_specs).expect("specs");
    let program = b.parse().expect("parse");
    let analyzer = Analyzer::compile(&program).expect("compile");
    let analysis = analyzer.analyze(b.entry, &entry).expect("analysis");
    let i = analysis.intern_stats;
    assert!(i.intern_hits > 0, "no dedup hits at all");
    assert!(i.bytes_saved > 0, "dedup saved no bytes");
    assert!(i.intern_misses <= i.intern_hits + i.intern_misses, "sanity");
    // The stats surface carries the counters out.
    let json = analysis.stats_json();
    let interner = json.get("interner").expect("interner key in stats_json");
    assert!(interner.get("intern_hits").is_some());
    assert!(interner.get("lub_cache_hits").is_some());
    assert!(interner.get("bytes_saved").is_some());
}

// ----- randomized memo-cache agreement -----

/// xorshift64* — the workspace's deterministic PRNG (offline build, no
/// proptest).
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

/// A random small pattern: leaves, integers, nil, lists, structs.
fn random_pattern(rng: &mut Rng, arity: usize) -> Pattern {
    let mut interner = prolog_syntax::Interner::new();
    let mut graph = PatternBuilder::new(arity);
    for i in 0..arity {
        let root = random_node(rng, 2, &mut graph, &mut interner);
        graph.set_root(i, root);
    }
    Pattern::new(graph)
}

fn random_node(
    rng: &mut Rng,
    depth: usize,
    graph: &mut PatternBuilder,
    interner: &mut prolog_syntax::Interner,
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
            1 => PNode::Int(rng.below(5) as i64),
            _ => PNode::Atom(absdom::nil_symbol()),
        }
    };
    graph.push(node)
}

#[test]
fn memoized_lattice_ops_agree_with_direct_computation() {
    let mut rng = Rng::new(0xE71D_2026);
    let mut session = SessionInterner::default();
    let scratch = &mut LubScratch::default();
    for round in 0..500 {
        let arity = 1 + rng.below(3) as usize;
        let a = random_pattern(&mut rng, arity);
        let b = random_pattern(&mut rng, a.arity());
        let ia = session.intern(a.clone());
        let ib = session.intern(b.clone());
        // Interning is the identity on the element.
        assert_eq!(session.resolve(ia), &a, "round {round}");
        assert_eq!(session.resolve(ib), &b, "round {round}");
        assert_eq!(session.is_ground(ia), a.is_ground(), "round {round}");
        // Memoized lub and leq equal direct computation — twice, so the
        // second answer comes from the cache.
        let direct = a.lub(&b);
        for pass in 0..2 {
            let joined = session.lub(ia, ib, scratch);
            assert_eq!(
                session.resolve(joined),
                &direct,
                "round {round} pass {pass}: lub mismatch"
            );
            assert_eq!(
                session.leq(ia, ib, scratch),
                a.leq(&b),
                "round {round} pass {pass}: leq mismatch"
            );
            assert_eq!(
                session.leq(ib, ia, scratch),
                b.leq(&a),
                "round {round} pass {pass}: reversed leq mismatch"
            );
        }
    }
    let stats = session.stats();
    assert!(stats.lub_cache_hits > 0, "second passes must hit the cache");
    assert!(stats.leq_cache_hits > 0);
    assert!(stats.intern_hits > 0, "random duplicates must deduplicate");
}
