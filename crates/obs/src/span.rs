//! Hierarchical span profiler: a tree of named spans with call counts,
//! total time, and self time (total minus time spent in child spans).
//!
//! The profiler is push/pop based: [`SpanProfiler::enter`] finds or
//! creates a child of the current span by name, [`SpanProfiler::exit`]
//! charges the elapsed time to the span and to its parent's child time,
//! which is what makes self time cheap to derive. Aggregation is by name
//! *per parent*: two `enter("p/2")` calls under the same parent
//! accumulate into one node, so the tree stays small over millions of
//! calls.
//!
//! Inside a span, the fixpoint's hot layers ([`Layer`]) are charged to
//! fixed slots instead of pushed spans: each span has one slot per layer,
//! reached by index, so charging a layer never scans child names.
//! [`SpanProfiler::walk`] and [`SpanProfiler::to_json`] render a span's
//! slots as its first four leaf children.
//!
//! Every boundary costs exactly one clock read, and each read closes the
//! interval since the previous one: [`SpanProfiler::lap`] charges it to a
//! layer slot of the current span, [`SpanProfiler::exit`] closes the
//! current span, and [`SpanProfiler::mark`] leaves it to the current
//! span's self time. [`SpanProfiler::enter`] reads nothing: a span begins
//! at the latest reading, so a span entered right after a lap or an exit
//! shares that read, and so does a layer that begins where a span begins
//! or another layer ends.
//!
//! On x86_64 a read is the timestamp counter (`rdtsc`, ~22 ns on a
//! 2-vCPU VM where `Instant::now` costs ~55 ns), converted to nanoseconds
//! with a scale calibrated once per process against the monotonic clock;
//! other architectures read `Instant`.
//!
//! The owner decides *whether* to hold a profiler at all — machines keep
//! an `Option<SpanProfiler>` that is `None` unless profiling was
//! requested, which keeps the off path to a single branch.
//!
//! Serialization ([`SpanProfiler::to_json`]) is stable: children appear
//! in creation order, which is deterministic for a deterministic
//! execution (only the nanosecond values vary between runs).

use crate::json::Json;

/// One reading of the profiling clock.
#[derive(Clone, Copy, Debug)]
struct Tick(
    #[cfg(target_arch = "x86_64")] u64,
    #[cfg(not(target_arch = "x86_64"))] std::time::Instant,
);

#[cfg(target_arch = "x86_64")]
impl Tick {
    fn now() -> Tick {
        // SAFETY: `rdtsc` is unprivileged and available on every x86_64
        // CPU. It is not serializing, which is fine for profiling.
        Tick(unsafe { core::arch::x86_64::_rdtsc() })
    }

    fn ns_since(self, earlier: Tick) -> u64 {
        let scale = *NS_PER_MIB_TICKS.get_or_init(calibrate);
        ((u128::from(self.0.wrapping_sub(earlier.0)) * u128::from(scale)) >> 20) as u64
    }
}

#[cfg(not(target_arch = "x86_64"))]
impl Tick {
    fn now() -> Tick {
        Tick(std::time::Instant::now())
    }

    fn ns_since(self, earlier: Tick) -> u64 {
        self.0.duration_since(earlier.0).as_nanos() as u64
    }
}

/// Nanoseconds per 2²⁰ timestamp-counter ticks (fixed point).
#[cfg(target_arch = "x86_64")]
static NS_PER_MIB_TICKS: std::sync::OnceLock<u64> = std::sync::OnceLock::new();

/// Measure the timestamp counter against the monotonic clock over a
/// 200 µs spin, which bounds the scale's error near the monotonic
/// clock's resolution.
#[cfg(target_arch = "x86_64")]
fn calibrate() -> u64 {
    let t0 = std::time::Instant::now();
    let c0 = Tick::now();
    while t0.elapsed().as_micros() < 200 {
        std::hint::spin_loop();
    }
    let dt = Tick::now().0.wrapping_sub(c0.0).max(1);
    let ns = t0.elapsed().as_nanos() as u64;
    ((u128::from(ns) << 20) / u128::from(dt)).max(1) as u64
}

/// A fixpoint layer charged to a fixed slot of the current span (see
/// the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Backtracking into a clause and instantiating the calling pattern
    /// on the heap for it.
    Materialize,
    /// Abstracting a successful clause's arguments into an interned
    /// success pattern.
    Extract,
    /// Abstracting a call's arguments into a calling pattern, looking it
    /// up in the extension table, and inserting it on a miss.
    EtConsult,
    /// Lubbing a clause's success pattern into its entry's summary.
    EtUpdate,
}

impl Layer {
    /// Every layer, in the order its leaf spans appear.
    pub const ALL: [Layer; 4] = [
        Layer::Materialize,
        Layer::Extract,
        Layer::EtConsult,
        Layer::EtUpdate,
    ];

    /// The name of the layer's leaf span.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Materialize => "materialize",
            Layer::Extract => "extract",
            Layer::EtConsult => "et-consult",
            Layer::EtUpdate => "et-update",
        }
    }
}

/// One node of the span tree as [`SpanProfiler::walk`] renders it: a
/// pushed span, or one of a span's layer leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanNode<'a> {
    /// Span name (e.g. `"iteration 2"`, `"nrev/2"`, `"et-consult"`).
    pub name: &'a str,
    /// Times this span was entered (for a layer leaf: times the layer
    /// was charged).
    pub calls: u64,
    /// Total nanoseconds spent inside this span, children included.
    pub total_ns: u64,
    /// Nanoseconds spent in child spans and layer leaves (so self =
    /// total − child).
    pub child_ns: u64,
    /// The layer this node is the leaf of; `None` for a pushed span.
    pub layer: Option<Layer>,
}

impl SpanNode<'_> {
    /// Nanoseconds spent in this span excluding its children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// A pushed span as stored. Its name lives in the profiler's name buffer
/// and its children are linked through their siblings, so creating a
/// span allocates nothing of its own.
#[derive(Clone, Debug)]
struct Span {
    /// Byte range of the name in [`SpanProfiler::names`].
    name: (usize, usize),
    calls: u64,
    total_ns: u64,
    child_ns: u64,
    /// `(calls, ns)` charged to each layer, indexed by `Layer as usize`.
    layers: [(u64, u64); 4],
    /// First and last child, next sibling; 0 (the root, no one's child)
    /// means none.
    first_child: usize,
    last_child: usize,
    next_sibling: usize,
}

impl Span {
    fn new(name: (usize, usize)) -> Span {
        Span {
            name,
            calls: 0,
            total_ns: 0,
            child_ns: 0,
            layers: [(0, 0); 4],
            first_child: 0,
            last_child: 0,
            next_sibling: 0,
        }
    }

    /// The layer leaves of this span, all four once any was charged.
    fn leaves(&self) -> impl Iterator<Item = SpanNode<'static>> + '_ {
        let charged = self.layers.iter().any(|&(calls, _)| calls > 0);
        Layer::ALL
            .into_iter()
            .filter(move |_| charged)
            .map(|layer| {
                let (calls, total_ns) = self.layers[layer as usize];
                SpanNode {
                    name: layer.name(),
                    calls,
                    total_ns,
                    child_ns: 0,
                    layer: Some(layer),
                }
            })
    }
}

/// A tree of timed spans (see the module docs).
#[derive(Clone, Debug)]
pub struct SpanProfiler {
    nodes: Vec<Span>,
    /// Every span name, back to back.
    names: String,
    /// Open spans: `(node index, reading it began at)`. The root (node
    /// 0) is always open.
    stack: Vec<(usize, Tick)>,
    /// The latest clock reading.
    mark: Tick,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        SpanProfiler::new()
    }
}

impl SpanProfiler {
    /// A fresh profiler with an open root span named `"total"`.
    pub fn new() -> SpanProfiler {
        // Calibrate first, so the one-time spin never lands in a span.
        #[cfg(target_arch = "x86_64")]
        NS_PER_MIB_TICKS.get_or_init(calibrate);
        let mut root = Span::new((0, "total".len()));
        root.calls = 1;
        let now = Tick::now();
        SpanProfiler {
            nodes: vec![root],
            names: "total".to_owned(),
            stack: vec![(0, now)],
            mark: now,
        }
    }

    /// Index of the currently open span.
    fn top(&self) -> usize {
        self.stack.last().expect("root span is always open").0
    }

    fn name(&self, idx: usize) -> &str {
        let (start, end) = self.nodes[idx].name;
        &self.names[start..end]
    }

    /// The children of `idx`, in creation order.
    fn children(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let first = self.nodes[idx].first_child;
        std::iter::successors((first != 0).then_some(first), |&c| {
            let next = self.nodes[c].next_sibling;
            (next != 0).then_some(next)
        })
    }

    fn view(&self, idx: usize) -> SpanNode<'_> {
        let span = &self.nodes[idx];
        SpanNode {
            name: self.name(idx),
            calls: span.calls,
            total_ns: span.total_ns,
            child_ns: span.child_ns,
            layer: None,
        }
    }

    /// Find or create the child of `parent` named `name`. Children are
    /// scanned linearly — span trees are small by construction (names
    /// aggregate per parent).
    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(idx) = self.children(parent).find(|&c| self.name(c) == name) {
            return idx;
        }
        let idx = self.nodes.len();
        let start = self.names.len();
        self.names.push_str(name);
        self.nodes.push(Span::new((start, self.names.len())));
        match self.nodes[parent].last_child {
            0 => self.nodes[parent].first_child = idx,
            last => self.nodes[last].next_sibling = idx,
        }
        self.nodes[parent].last_child = idx;
        idx
    }

    /// Open a span named `name` under the current span, beginning at the
    /// latest clock reading (no read of its own; call [`Self::mark`]
    /// first if that reading is stale).
    pub fn enter(&mut self, name: &str) {
        let parent = self.top();
        let idx = self.child(parent, name);
        self.nodes[idx].calls += 1;
        self.stack.push((idx, self.mark));
    }

    /// Close the innermost open span, charging its elapsed time. The
    /// root cannot be popped.
    pub fn exit(&mut self) {
        if self.stack.len() <= 1 {
            return;
        }
        let now = Tick::now();
        let (idx, start) = self.stack.pop().expect("checked non-root");
        let ns = now.ns_since(start);
        self.nodes[idx].total_ns += ns;
        let parent = self.top();
        self.nodes[parent].child_ns += ns;
        self.mark = now;
    }

    /// Run `f` inside a span named `name` that begins now: a
    /// [`Self::mark`], then [`Self::enter`].
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.mark();
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// Read the clock, leaving the interval since the previous reading
    /// to the current span's self time: where a layer or a span begins
    /// and the latest reading is not adjacent.
    pub fn mark(&mut self) {
        self.mark = Tick::now();
    }

    /// Read the clock where a layer ends, charge the interval since the
    /// previous reading to `layer`'s slot of the current span, and return
    /// it in nanoseconds.
    pub fn lap(&mut self, layer: Layer) -> u64 {
        let now = Tick::now();
        let ns = now.ns_since(self.mark);
        self.mark = now;
        let top = self.top();
        let span = &mut self.nodes[top];
        let slot = &mut span.layers[layer as usize];
        slot.0 += 1;
        slot.1 += ns;
        span.child_ns += ns;
        ns
    }

    /// Splice an externally-measured phase in as a child of the *root*,
    /// extending the root's total accordingly. Used for work that
    /// happened outside the profiled run (e.g. compilation, timed before
    /// the machine existed); safe to call after [`Self::finish`].
    pub fn record_phase(&mut self, name: &str, ns: u64) {
        let idx = self.child(0, name);
        self.nodes[idx].calls += 1;
        self.nodes[idx].total_ns += ns;
        self.nodes[0].child_ns += ns;
        self.nodes[0].total_ns += ns;
    }

    /// Total nanoseconds of the root's child span `name` (a phase entered
    /// at the top level or spliced in by [`Self::record_phase`]); 0 if
    /// there is none.
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.children(0)
            .find(|&c| self.name(c) == name)
            .map_or(0, |c| self.nodes[c].total_ns)
    }

    /// Close every open span (root included: its total becomes the time
    /// since construction). Call once, when profiling ends.
    pub fn finish(&mut self) {
        while self.stack.len() > 1 {
            self.exit();
        }
        let now = Tick::now();
        let (root, start) = self.stack[0];
        self.nodes[root].total_ns += now.ns_since(start);
        self.stack[0].1 = now;
        self.mark = now;
    }

    /// The root node.
    pub fn root(&self) -> SpanNode<'_> {
        self.view(0)
    }

    /// Every `(depth, node)` in depth-first creation order — the shape
    /// renderers and tests consume. A span's layer leaves come first
    /// among its children, all four once any layer was charged to it.
    pub fn walk(&self) -> Vec<(usize, SpanNode<'_>)> {
        let mut out = Vec::with_capacity(self.nodes.len() * 5);
        self.walk_into(0, 0, &mut out);
        out
    }

    fn walk_into<'a>(&'a self, idx: usize, depth: usize, out: &mut Vec<(usize, SpanNode<'a>)>) {
        out.push((depth, self.view(idx)));
        out.extend(self.nodes[idx].leaves().map(|leaf| (depth + 1, leaf)));
        for c in self.children(idx) {
            self.walk_into(c, depth + 1, out);
        }
    }

    /// A flat profile: time per span name over the pushed spans at
    /// `min_depth` or deeper, each span's layer leaves counted as its own
    /// time — so a name gets its spans' totals minus their child spans.
    /// Sorted by time descending, ties by name.
    pub fn self_ns_by_name(&self, min_depth: usize) -> Vec<(&str, u64)> {
        let mut by_name: Vec<(&str, u64)> = Vec::new();
        let mut pending = vec![(0, 0)];
        while let Some((idx, depth)) = pending.pop() {
            pending.extend(self.children(idx).map(|c| (c, depth + 1)));
            if depth < min_depth {
                continue;
            }
            let span = &self.nodes[idx];
            let layers: u64 = span.layers.iter().map(|&(_, ns)| ns).sum();
            let ns = span.total_ns.saturating_sub(span.child_ns - layers);
            let name = self.name(idx);
            match by_name.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += ns,
                None => by_name.push((name, ns)),
            }
        }
        by_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        by_name
    }

    /// Encode the tree as nested JSON objects:
    /// `{"name", "calls", "total_ns", "self_ns", "children": […]}`,
    /// layer leaves included.
    pub fn to_json(&self) -> Json {
        self.span_json(0)
    }

    fn span_json(&self, idx: usize) -> Json {
        let children = self.nodes[idx]
            .leaves()
            .map(|leaf| node_json(leaf, Vec::new()))
            .chain(self.children(idx).map(|c| self.span_json(c)))
            .collect();
        node_json(self.view(idx), children)
    }
}

fn node_json(n: SpanNode<'_>, children: Vec<Json>) -> Json {
    Json::obj(vec![
        ("name", Json::Str(n.name.to_owned())),
        ("calls", Json::Int(n.calls as i64)),
        ("total_ns", Json::Int(n.total_ns as i64)),
        ("self_ns", Json::Int(n.self_ns() as i64)),
        ("children", Json::Arr(children)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_moves_forward() {
        let start = Tick::now();
        let mut spin = 0u64;
        for i in 0..100_000u64 {
            spin = std::hint::black_box(spin.wrapping_add(i));
        }
        assert!(spin > 0);
        let first = Tick::now().ns_since(start);
        assert!(first > 0, "a spin of 100k additions takes measurable time");
        assert!(Tick::now().ns_since(start) >= first);
    }

    #[test]
    fn spans_nest_and_aggregate_by_name() {
        let mut p = SpanProfiler::new();
        p.enter("iteration 1");
        p.enter("nrev/2");
        p.exit();
        p.enter("nrev/2");
        p.enter("app/3");
        p.exit();
        p.exit();
        p.exit();
        p.finish();
        let walk = p.walk();
        let names: Vec<(usize, &str)> = walk.iter().map(|(d, n)| (*d, n.name)).collect();
        assert_eq!(
            names,
            vec![
                (0, "total"),
                (1, "iteration 1"),
                (2, "nrev/2"),
                (3, "app/3")
            ]
        );
        // Two enters of nrev/2 under the same parent share one node.
        assert_eq!(walk[2].1.calls, 2);
    }

    #[test]
    fn recorded_leaves_count_as_child_time() {
        let mut p = SpanProfiler::new();
        p.enter("pred");
        p.lap(Layer::Materialize);
        p.mark();
        p.lap(Layer::EtConsult);
        p.enter("callee");
        p.lap(Layer::Materialize);
        p.exit();
        p.mark();
        p.lap(Layer::Extract);
        p.lap(Layer::EtUpdate);
        p.mark();
        p.lap(Layer::Materialize);
        p.exit();
        p.finish();
        let walk = p.walk();
        let shape: Vec<(usize, &str, u64)> =
            walk.iter().map(|(d, n)| (*d, n.name, n.calls)).collect();
        assert_eq!(
            shape,
            vec![
                (0, "total", 1),
                (1, "pred", 1),
                (2, "materialize", 2),
                (2, "extract", 1),
                (2, "et-consult", 1),
                (2, "et-update", 1),
                (2, "callee", 1),
                (3, "materialize", 1),
                (3, "extract", 0),
                (3, "et-consult", 0),
                (3, "et-update", 0),
            ]
        );
        for (_, node) in &walk {
            let leaf = Layer::ALL.iter().find(|l| l.name() == node.name).copied();
            assert_eq!(node.layer, leaf, "{}", node.name);
        }
        let pred = walk[1].1;
        let children: u64 = walk
            .iter()
            .filter(|(d, _)| *d == 2)
            .map(|(_, n)| n.total_ns)
            .sum();
        assert_eq!(pred.child_ns, children, "layers count as child time");
        let self_sum: u64 = walk.iter().map(|(_, n)| n.self_ns()).sum();
        assert_eq!(self_sum, p.root().total_ns, "self times partition the root");
    }

    #[test]
    fn flat_profile_subtracts_child_spans_but_not_layers() {
        let mut p = SpanProfiler::new();
        p.enter("run");
        for _ in 0..2 {
            p.enter("a/1");
            p.lap(Layer::Materialize);
            p.enter("b/2");
            p.lap(Layer::Materialize);
            p.exit();
            p.mark();
            p.lap(Layer::Extract);
            p.exit();
        }
        p.finish();
        let walk = p.walk();
        let total = |name: &str| -> u64 {
            walk.iter()
                .filter(|(_, n)| n.name == name)
                .map(|(_, n)| n.total_ns)
                .sum()
        };
        let mut flat = p.self_ns_by_name(2);
        flat.sort();
        assert_eq!(
            flat,
            vec![("a/1", total("a/1") - total("b/2")), ("b/2", total("b/2"))]
        );
    }

    #[test]
    fn json_shape_is_stable() {
        let mut p = SpanProfiler::new();
        p.enter("a");
        p.exit();
        p.enter("b");
        p.exit();
        p.finish();
        let json = p.to_json();
        assert_eq!(
            json.get("name").and_then(Json::as_str),
            Some("total"),
            "root name"
        );
        let Some(Json::Arr(children)) = json.get("children") else {
            panic!("children array");
        };
        let names: Vec<&str> = children
            .iter()
            .filter_map(|c| c.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, vec!["a", "b"], "creation order preserved");
        for c in children {
            assert!(c.get("calls").is_some());
            assert!(c.get("total_ns").is_some());
            assert!(c.get("self_ns").is_some());
        }
    }

    #[test]
    fn exit_never_pops_the_root() {
        let mut p = SpanProfiler::new();
        p.exit();
        p.exit();
        p.enter("x");
        p.finish();
        assert_eq!(p.root().name, "total");
        assert_eq!(p.walk().len(), 2);
    }

    #[test]
    fn time_charges_the_closure() {
        let mut p = SpanProfiler::new();
        assert_eq!(p.time("parse", || 41 + 1), 42);
        let walk = p.walk();
        assert_eq!(walk[1].1.name, "parse");
        assert_eq!(walk[1].1.calls, 1);
    }
}
