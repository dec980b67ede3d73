//! Domain-precision ablations: controlled weakenings of patterns.
//!
//! The paper's §7 frames analyzer design as a time/precision trade-off
//! ("more precise dataflow analysis can be used if the analyzer is more
//! efficient") and credits its domain as "considerably more complex" than
//! the Aquarius analyzer's. [`DomainConfig`] lets the analysis run with
//! selected parts of the domain disabled — aliasing, `α-list` types,
//! `struct(f/n, …)` shapes — by weakening every pattern at the extraction
//! boundary, so the precision each feature buys can be measured.

use crate::leaf::AbsLeaf;
use crate::pattern::{PNode, Pattern, PatternBuilder};

/// Which components of the abstract domain are enabled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DomainConfig {
    /// Track definite aliasing between argument positions.
    pub aliasing: bool,
    /// Keep `α-list` types (otherwise lists collapse to `g`/`nv`).
    pub list_types: bool,
    /// Keep `struct(f/n, …)` shapes (otherwise structures collapse to
    /// `g`/`nv`; cons cells may still convert to list types when those
    /// are enabled).
    pub struct_types: bool,
}

impl DomainConfig {
    /// The paper's full domain.
    pub const FULL: DomainConfig = DomainConfig {
        aliasing: true,
        list_types: true,
        struct_types: true,
    };

    /// Whether this is the full domain (no weakening needed).
    pub fn is_full(self) -> bool {
        self == DomainConfig::FULL
    }
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig::FULL
    }
}

impl Pattern {
    /// Weaken this pattern according to `config`. With the full config
    /// this is the identity.
    pub fn weaken(&self, config: DomainConfig) -> Pattern {
        if config.is_full() {
            return self.clone();
        }
        let mut out = PatternBuilder::new(self.arity());
        // Count references so dropped sharing can weaken `var` soundly.
        let refs = self.in_degrees();
        let mut memo: Vec<Option<usize>> = vec![None; self.nodes().len()];
        for i in 0..self.arity() {
            let root = self.weaken_node(self.root(i), config, &refs, &mut memo, &mut out);
            out.set_root(i, root);
        }
        Pattern::new(out)
    }

    fn weaken_node(
        &self,
        id: usize,
        config: DomainConfig,
        refs: &[u32],
        memo: &mut Vec<Option<usize>>,
        out: &mut PatternBuilder,
    ) -> usize {
        // With aliasing on, preserve sharing through the memo; with it
        // off, re-emit the subgraph per occurrence.
        if config.aliasing {
            if let Some(n) = memo[id] {
                return n;
            }
        }
        let shared_here = refs[id] > 1;
        let new = match *self.node(id) {
            PNode::Leaf(AbsLeaf::Var) if !config.aliasing && shared_here => {
                // Dropped aliasing: a multiply-referenced var may be bound
                // through another occurrence — weaken to any (the same
                // rule the lub applies, DESIGN.md §3.4).
                out.push(PNode::Leaf(AbsLeaf::Any))
            }
            node @ (PNode::Leaf(_) | PNode::Int(_) | PNode::Atom(_)) => out.push(node),
            PNode::List(e) => {
                if config.list_types {
                    let slot = out.push(PNode::Leaf(AbsLeaf::Any));
                    if config.aliasing {
                        memo[id] = Some(slot);
                    }
                    let e = self.weaken_node(e, config, refs, memo, out);
                    out.set(slot, PNode::List(e));
                    return slot;
                }
                out.push(PNode::Leaf(self.collapse_leaf(id, config)))
            }
            PNode::Struct(f, span) => {
                let is_cons = crate::pattern::is_dot_symbol(f) && span.len() == 2;
                let keep = config.struct_types || (is_cons && config.list_types);
                if keep {
                    let (slot, out_span) = out.push_struct(f, span.len());
                    if config.aliasing {
                        memo[id] = Some(slot);
                    }
                    for (i, a) in self.args(span).enumerate() {
                        let arg = self.weaken_node(a, config, refs, memo, out);
                        out.set_arg(out_span, i, arg);
                    }
                    return slot;
                }
                out.push(PNode::Leaf(self.collapse_leaf(id, config)))
            }
        };
        if config.aliasing {
            memo[id] = Some(new);
        }
        new
    }

    /// The leaf a collapsed subgraph becomes. Groundness is preserved;
    /// everything else collapses to `nv` (subgraphs here are always
    /// compound, hence nonvar). A reachable dropped-`var` does not affect
    /// groundness (a subgraph containing `var` is non-ground anyway).
    fn collapse_leaf(&self, id: usize, _config: DomainConfig) -> AbsLeaf {
        if self.node_is_ground(id) {
            AbsLeaf::Ground
        } else {
            AbsLeaf::NonVar
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &[&str]) -> Pattern {
        Pattern::from_spec(s).unwrap()
    }

    const NO_LISTS: DomainConfig = DomainConfig {
        aliasing: true,
        list_types: false,
        struct_types: true,
    };
    const NO_STRUCTS: DomainConfig = DomainConfig {
        aliasing: true,
        list_types: true,
        struct_types: false,
    };
    const NO_ALIASING: DomainConfig = DomainConfig {
        aliasing: false,
        list_types: true,
        struct_types: true,
    };
    const LEAVES_ONLY: DomainConfig = DomainConfig {
        aliasing: false,
        list_types: false,
        struct_types: false,
    };

    #[test]
    fn full_config_is_identity() {
        for s in [vec!["glist", "var"], vec!["atom"], vec!["list(any)", "g"]] {
            let p = spec(&s);
            assert_eq!(p.weaken(DomainConfig::FULL), p);
        }
    }

    #[test]
    fn lists_collapse_by_groundness() {
        assert_eq!(spec(&["glist"]).weaken(NO_LISTS), spec(&["g"]));
        assert_eq!(spec(&["list(any)"]).weaken(NO_LISTS), spec(&["nv"]));
        // Leaves survive untouched.
        assert_eq!(
            spec(&["var", "atom"]).weaken(NO_LISTS),
            spec(&["var", "atom"])
        );
    }

    /// The one-root pattern `f(args…)` over the given leaf nodes.
    fn strct(f: prolog_syntax::Symbol, args: &[PNode]) -> Pattern {
        let mut b = PatternBuilder::new(1);
        let (s, span) = b.push_struct(f, args.len());
        for (i, &node) in args.iter().enumerate() {
            let a = b.push(node);
            b.set_arg(span, i, a);
        }
        b.set_root(0, s);
        Pattern::new(b)
    }

    /// `(X, X)`, one shared `leaf` node.
    fn shared(leaf: AbsLeaf) -> Pattern {
        let mut b = PatternBuilder::new(2);
        let x = b.push(PNode::Leaf(leaf));
        b.set_root(0, x);
        b.set_root(1, x);
        Pattern::new(b)
    }

    #[test]
    fn structs_collapse_but_cons_can_stay_as_list_info() {
        let f = prolog_syntax::Interner::new().intern("f");
        let ground_struct = strct(f, &[PNode::Int(1)]);
        assert_eq!(ground_struct.weaken(NO_STRUCTS), spec(&["g"]));
        let open_struct = strct(f, &[PNode::Leaf(AbsLeaf::Var)]);
        assert_eq!(open_struct.weaken(NO_STRUCTS), spec(&["nv"]));
        // A cons keeps its shape when list types are on (it carries list
        // information).
        let dot = crate::pattern::dot_symbol();
        let mut b = PatternBuilder::new(1);
        let (cons, span) = b.push_struct(dot, 2);
        let car = b.push(PNode::Leaf(AbsLeaf::Ground));
        let elem = b.push(PNode::Leaf(AbsLeaf::Ground));
        let cdr = b.push(PNode::List(elem));
        b.set_arg(span, 0, car);
        b.set_arg(span, 1, cdr);
        b.set_root(0, cons);
        let cons = Pattern::new(b);
        assert_eq!(cons.weaken(NO_STRUCTS), cons);
    }

    #[test]
    fn aliasing_drop_weakens_shared_vars() {
        assert_eq!(
            shared(AbsLeaf::Var).weaken(NO_ALIASING),
            spec(&["any", "any"])
        );
        // Unshared vars keep their freeness.
        assert_eq!(
            spec(&["var", "var"]).weaken(NO_ALIASING),
            spec(&["var", "var"])
        );
        // Shared non-var leaves just unshare.
        assert_eq!(
            shared(AbsLeaf::Any).weaken(NO_ALIASING),
            spec(&["any", "any"])
        );
    }

    #[test]
    fn leaves_only_is_aquarius_coarse() {
        let p = spec(&["glist", "list(any)", "var", "atom"]);
        assert_eq!(p.weaken(LEAVES_ONLY), spec(&["g", "nv", "var", "atom"]));
    }

    #[test]
    fn weaken_is_an_upper_bound() {
        use prolog_syntax::parse_term;
        let patterns = [spec(&["glist"]), spec(&["list(any)"]), spec(&["nv"])];
        let configs = [NO_LISTS, NO_STRUCTS, NO_ALIASING, LEAVES_ONLY];
        for p in &patterns {
            for c in configs {
                let w = p.weaken(c);
                for t in ["[1, 2]", "[]", "f(a)"] {
                    let term = parse_term(t).unwrap().0;
                    if p.covers(std::slice::from_ref(&term)) {
                        assert!(
                            w.covers(std::slice::from_ref(&term)),
                            "weaken({c:?}) lost coverage of {t}"
                        );
                    }
                }
            }
        }
    }
}
