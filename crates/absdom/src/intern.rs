//! Hash-consing for the abstract domain: a [`PatternInterner`] arena
//! mapping canonical [`Pattern`] graphs to dense [`PatternId`]s, plus a
//! per-session overlay ([`SessionInterner`]) with id-keyed memo caches
//! for the lattice operations.
//!
//! # Why interning is sound
//!
//! Patterns are *canonical* (see `pattern.rs`: first-visit DFS numbering,
//! ground subgraphs unshared), so structural equality coincides with
//! semantic equality of domain elements. Interning therefore preserves
//! the lattice exactly: two ids are equal **iff** the patterns they name
//! are the same domain element, which turns every equality test on the
//! extension-table hot path into an integer compare.
//!
//! Patterns are immutable and the lattice operations are pure, so the
//! memo caches never need invalidation — an entry, once computed, is
//! correct forever.
//!
//! # Sharing across threads
//!
//! A [`PatternInterner`] can be frozen into an `Arc` and shared
//! read-only by any number of [`SessionInterner`] overlays: the overlay
//! probes the shared base first and falls back to a private local arena
//! whose ids start where the base ids end. Batch workers therefore stay
//! lock-free — nothing in this module takes a lock.

use crate::pattern::{LubScratch, Pattern};
use awam_obs::InternStats;
pub use prolog_syntax::fxhash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dense id naming one interned canonical [`Pattern`].
///
/// Ids are only meaningful relative to the interner that produced them;
/// within one interner, `a == b` iff the named patterns are equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PatternId(u32);

impl PatternId {
    /// The id as a plain index (dense, starting at zero).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

type DetHashMap<K, V> = FxHashMap<K, V>;

/// How many trailing nodes (and trailing argument-slab entries)
/// participate in a pattern's bucket hash.
const HASH_SUFFIX_NODES: usize = 12;

/// Bucket hash for a pattern: arity, node count, and a bounded *suffix*
/// of the node table and of the argument slab. A suffix is enough — the
/// hash only has to *distribute* (membership is always confirmed by full
/// structural equality), so hashing the whole graph would spend O(n) on
/// every consult for no correctness gain. The suffix is the right bound:
/// canonical numbering is pre-order, and the calling patterns that share
/// a table (one predicate's call sites) share their argument skeleton
/// and diverge in the deep leaves — the *end* of both slabs. Patterns
/// that still collide merely share a bucket and pay an extra equality
/// check.
fn pattern_hash(p: &Pattern) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(p.arity());
    let nodes = p.nodes();
    h.write_usize(nodes.len());
    let tail = nodes.len().saturating_sub(HASH_SUFFIX_NODES);
    for node in &nodes[tail..] {
        node.hash(&mut h);
    }
    let args = p.arg_slab();
    for &a in &args[args.len().saturating_sub(HASH_SUFFIX_NODES)..] {
        h.write_u32(a);
    }
    h.finish()
}

/// Heap bytes held by a pattern's node and argument slabs (what a
/// deduplicated intern avoids keeping alive).
fn pattern_heap_bytes(p: &Pattern) -> u64 {
    (std::mem::size_of_val(p.nodes()) + std::mem::size_of_val(p.arg_slab())) as u64
}

/// End of a bucket chain in [`PatternInterner::next`].
const CHAIN_END: u32 = u32::MAX;

/// A hash-consed arena of canonical patterns.
///
/// Each distinct pattern is stored exactly once; the side index maps a
/// pattern's hash to the first arena slot of its bucket, and the rest of
/// the bucket is chained through one `u32` per slot, in insertion order.
/// So the pattern bytes are never duplicated as map keys, and a bucket
/// costs no heap block of its own. Groundness is precomputed per slot.
#[derive(Clone, Debug, Default)]
pub struct PatternInterner {
    arena: Vec<Pattern>,
    ground: Vec<bool>,
    /// Bucket hash → the bucket's first slot.
    index: DetHashMap<u64, u32>,
    /// Slot → the next slot of its bucket, or [`CHAIN_END`].
    next: Vec<u32>,
}

impl PatternInterner {
    /// An empty interner.
    pub fn new() -> PatternInterner {
        PatternInterner::default()
    }

    /// Number of interned patterns.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Intern `pattern`, returning its id and whether it was already
    /// present (`true` = deduplicated, the argument was dropped).
    pub fn intern(&mut self, pattern: Pattern) -> (PatternId, bool) {
        self.intern_hashed(pattern_hash(&pattern), pattern)
    }

    /// The id of `pattern` if it is already interned (no insertion).
    pub fn lookup(&self, pattern: &Pattern) -> Option<PatternId> {
        self.lookup_hashed(pattern_hash(pattern), pattern)
    }

    /// [`PatternInterner::intern`] with the bucket hash already computed
    /// (lets the session overlay hash a probe exactly once).
    fn intern_hashed(&mut self, hash: u64, pattern: Pattern) -> (PatternId, bool) {
        match self.probe(hash, &pattern) {
            Ok(id) => (id, true),
            Err(tail) => (self.insert(hash, tail, pattern), false),
        }
    }

    /// [`PatternInterner::intern_hashed`], clone-on-miss: the probe is by
    /// reference and the pattern is only cloned if it must be inserted.
    fn intern_ref_hashed(&mut self, hash: u64, pattern: &Pattern) -> (PatternId, bool) {
        match self.probe(hash, pattern) {
            Ok(id) => (id, true),
            Err(tail) => (self.insert(hash, tail, pattern.clone()), false),
        }
    }

    /// [`PatternInterner::lookup`] with the bucket hash already computed.
    fn lookup_hashed(&self, hash: u64, pattern: &Pattern) -> Option<PatternId> {
        self.probe(hash, pattern).ok()
    }

    /// Walk `hash`'s bucket in insertion order: the slot holding
    /// `pattern`, or else the bucket's last slot (`None`: no bucket yet).
    fn probe(&self, hash: u64, pattern: &Pattern) -> Result<PatternId, Option<u32>> {
        let Some(&first) = self.index.get(&hash) else {
            return Err(None);
        };
        let mut slot = first;
        loop {
            if self.arena[slot as usize] == *pattern {
                return Ok(PatternId(slot));
            }
            match self.next[slot as usize] {
                CHAIN_END => return Err(Some(slot)),
                next => slot = next,
            }
        }
    }

    /// Append `pattern` to the arena and to the end of its bucket, whose
    /// last slot [`PatternInterner::probe`] returned as `tail`.
    fn insert(&mut self, hash: u64, tail: Option<u32>, pattern: Pattern) -> PatternId {
        let slot = u32::try_from(self.arena.len()).expect("interner overflow");
        assert_ne!(slot, CHAIN_END, "interner overflow");
        match tail {
            Some(tail) => self.next[tail as usize] = slot,
            None => {
                self.index.insert(hash, slot);
            }
        }
        self.next.push(CHAIN_END);
        self.ground.push(pattern.is_ground());
        self.arena.push(pattern);
        PatternId(slot)
    }

    /// The pattern named by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this interner.
    pub fn resolve(&self, id: PatternId) -> &Pattern {
        &self.arena[id.index()]
    }

    /// Whether the pattern named by `id` is ground (precomputed).
    pub fn is_ground(&self, id: PatternId) -> bool {
        self.ground[id.index()]
    }

    /// Drop the per-slot vectors' spare capacity (a no-op when nothing
    /// was interned since the last call).
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.ground.shrink_to_fit();
        self.next.shrink_to_fit();
    }
}

/// A session-private interner layered over a shared read-only base.
///
/// Owned by one analysis session (or one batch worker): probes the
/// `Arc`-shared base arena first, falls back to a private local arena
/// whose ids are offset past the base, and memoizes `lub`/`leq` by id
/// pair. No locks anywhere; clones of the `Arc` are the only sharing.
/// It holds no per-run scratch: a structural lub borrows the caller's
/// [`LubScratch`].
#[derive(Clone, Debug)]
pub struct SessionInterner {
    base: Arc<PatternInterner>,
    local: PatternInterner,
    lub_cache: DetHashMap<(PatternId, PatternId), PatternId>,
    leq_cache: DetHashMap<(PatternId, PatternId), bool>,
    stats: InternStats,
}

impl Default for SessionInterner {
    fn default() -> Self {
        SessionInterner::new(Arc::new(PatternInterner::new()))
    }
}

impl SessionInterner {
    /// An overlay over `base` with an empty local arena and empty memo
    /// caches. The caches grow with use: an analysis pays only for the
    /// pairs it memoizes, and a parked session keeps no empty slots.
    pub fn new(base: Arc<PatternInterner>) -> SessionInterner {
        SessionInterner {
            base,
            local: PatternInterner::new(),
            lub_cache: DetHashMap::default(),
            leq_cache: DetHashMap::default(),
            stats: InternStats::default(),
        }
    }

    /// Drop the local arena's spare capacity: a parked session keeps
    /// only the slots it fills.
    pub fn shrink_to_fit(&mut self) {
        self.local.shrink_to_fit();
    }

    /// The shared base arena this overlay reads through to.
    pub fn base(&self) -> &Arc<PatternInterner> {
        &self.base
    }

    /// Total patterns reachable (base + session-local).
    pub fn len(&self) -> usize {
        self.base.len() + self.local.len()
    }

    /// Whether no pattern is interned at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters accumulated by this overlay.
    pub fn stats(&self) -> &InternStats {
        &self.stats
    }

    /// Intern `pattern` (base arena first, then the local overlay). The
    /// probe is hashed exactly once, shared by both arena lookups.
    pub fn intern(&mut self, pattern: Pattern) -> PatternId {
        let hash = pattern_hash(&pattern);
        if let Some(id) = self.base.lookup_hashed(hash, &pattern) {
            self.stats.intern_hits += 1;
            self.stats.bytes_saved += pattern_heap_bytes(&pattern);
            return id;
        }
        let offset = self.base.len() as u32;
        let bytes = pattern_heap_bytes(&pattern);
        let (PatternId(local), hit) = self.local.intern_hashed(hash, pattern);
        if hit {
            self.stats.intern_hits += 1;
            self.stats.bytes_saved += bytes;
        } else {
            self.stats.intern_misses += 1;
        }
        PatternId(offset + local)
    }

    /// [`SessionInterner::intern`], clone-on-miss: callers that build
    /// their probe in a reusable scratch buffer pass it by reference, and
    /// the bytes are copied only when the pattern is genuinely new. The
    /// counters are identical to the owning variant.
    pub fn intern_ref(&mut self, pattern: &Pattern) -> PatternId {
        let hash = pattern_hash(pattern);
        if let Some(id) = self.base.lookup_hashed(hash, pattern) {
            self.stats.intern_hits += 1;
            self.stats.bytes_saved += pattern_heap_bytes(pattern);
            return id;
        }
        let offset = self.base.len() as u32;
        let bytes = pattern_heap_bytes(pattern);
        let (PatternId(local), hit) = self.local.intern_ref_hashed(hash, pattern);
        if hit {
            self.stats.intern_hits += 1;
            self.stats.bytes_saved += bytes;
        } else {
            self.stats.intern_misses += 1;
        }
        PatternId(offset + local)
    }

    /// The id of `pattern` if already interned, without inserting and
    /// without touching the counters (for debug-only consistency checks).
    pub fn lookup(&self, pattern: &Pattern) -> Option<PatternId> {
        let hash = pattern_hash(pattern);
        if let Some(id) = self.base.lookup_hashed(hash, pattern) {
            return Some(id);
        }
        let offset = self.base.len() as u32;
        self.local
            .lookup_hashed(hash, pattern)
            .map(|PatternId(local)| PatternId(offset + local))
    }

    /// The pattern named by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this overlay (or its base).
    pub fn resolve(&self, id: PatternId) -> &Pattern {
        let offset = self.base.len();
        if id.index() < offset {
            self.base.resolve(id)
        } else {
            self.local.resolve(PatternId((id.index() - offset) as u32))
        }
    }

    /// Whether the pattern named by `id` is ground (precomputed at
    /// intern time; no graph walk).
    pub fn is_ground(&self, id: PatternId) -> bool {
        let offset = self.base.len();
        if id.index() < offset {
            self.base.is_ground(id)
        } else {
            self.local
                .is_ground(PatternId((id.index() - offset) as u32))
        }
    }

    /// Memoized least upper bound: `a ⊔ b`, computed at most once per
    /// unordered id pair (lub is commutative, so `(a, b)` and `(b, a)`
    /// share a cache slot; `a ⊔ a = a` by idempotence without a lookup).
    /// A cache miss joins the patterns through `scratch`.
    pub fn lub(&mut self, a: PatternId, b: PatternId, scratch: &mut LubScratch) -> PatternId {
        self.stats.lub_calls += 1;
        if a == b {
            self.stats.lub_cache_hits += 1;
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&id) = self.lub_cache.get(&key) {
            self.stats.lub_cache_hits += 1;
            return id;
        }
        // Cache miss: structural lub through the caller's scratch.
        // `lub_in` leaves the canonical join inside the scratch and
        // `intern_ref` clones it only if the arena has never seen it, so
        // a warm lub touches the allocator zero times.
        let joined = self.resolve(a).lub_in(self.resolve(b), scratch);
        let id = self.intern_ref(joined);
        self.lub_cache.insert(key, id);
        id
    }

    /// Memoized partial-order test: `a ⊑ b`. A miss computes through the
    /// lub cache (`a ⊑ b ⟺ a ⊔ b = b`), warming it for later joins.
    pub fn leq(&mut self, a: PatternId, b: PatternId, scratch: &mut LubScratch) -> bool {
        self.stats.leq_calls += 1;
        if a == b {
            self.stats.leq_cache_hits += 1;
            return true;
        }
        if let Some(&ans) = self.leq_cache.get(&(a, b)) {
            self.stats.leq_cache_hits += 1;
            return ans;
        }
        let ans = self.lub(a, b, scratch) == b;
        self.leq_cache.insert((a, b), ans);
        ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(specs: &[&str]) -> Pattern {
        Pattern::from_spec(specs).unwrap()
    }

    #[test]
    fn interning_deduplicates() {
        let mut i = PatternInterner::new();
        let (a, hit_a) = i.intern(pat(&["glist", "var"]));
        let (b, hit_b) = i.intern(pat(&["glist", "var"]));
        let (c, _) = i.intern(pat(&["any", "var"]));
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), &pat(&["glist", "var"]));
        assert_eq!(i.lookup(&pat(&["any", "var"])), Some(c));
        assert_eq!(i.lookup(&pat(&["int"])), None);
        let (ground_id, _) = i.intern(pat(&["g", "atom"]));
        assert!(i.is_ground(ground_id));
        assert!(!i.is_ground(a));
    }

    #[test]
    fn overlay_ids_extend_the_base() {
        let mut base = PatternInterner::new();
        let (base_id, _) = base.intern(pat(&["glist"]));
        let mut s = SessionInterner::new(Arc::new(base));
        // Base hit: same id, no local growth.
        assert_eq!(s.intern(pat(&["glist"])), base_id);
        assert_eq!(s.stats().intern_hits, 1);
        // Local miss: id past the base range.
        let local = s.intern(pat(&["var"]));
        assert_eq!(local.index(), 1);
        assert_eq!(s.stats().intern_misses, 1);
        assert_eq!(s.resolve(local), &pat(&["var"]));
        assert_eq!(s.lookup(&pat(&["glist"])), Some(base_id));
        assert_eq!(s.lookup(&pat(&["var"])), Some(local));
        assert_eq!(s.lookup(&pat(&["int"])), None);
        assert_eq!(s.len(), 2);
        // Deduplicated re-intern reports saved bytes.
        assert_eq!(s.intern(pat(&["var"])), local);
        assert!(s.stats().bytes_saved > 0);
    }

    #[test]
    fn memoized_lub_and_leq_match_direct_computation() {
        let mut s = SessionInterner::default();
        let scratch = &mut LubScratch::default();
        let a = s.intern(pat(&["atom", "var"]));
        let b = s.intern(pat(&["int", "var"]));
        let direct = pat(&["atom", "var"]).lub(&pat(&["int", "var"]));
        let joined = s.lub(a, b, scratch);
        assert_eq!(s.resolve(joined), &direct);
        assert_eq!(s.stats().lub_calls, 1);
        assert_eq!(s.stats().lub_cache_hits, 0);
        // Commutative cache slot.
        assert_eq!(s.lub(b, a, scratch), joined);
        assert_eq!(s.stats().lub_cache_hits, 1);
        // leq agrees with the direct order.
        assert!(s.leq(a, joined, scratch));
        assert!(!s.leq(joined, a, scratch));
        assert!(s.leq(a, a, scratch));
        // Cached on repeat.
        let hits = s.stats().leq_cache_hits;
        assert!(s.leq(a, joined, scratch));
        assert_eq!(s.stats().leq_cache_hits, hits + 1);
    }

    #[test]
    fn colliding_patterns_chain_in_insertion_order() {
        // Force every pattern into one bucket: ids stay dense and in
        // insertion order, and each probe finds its own slot.
        let mut i = PatternInterner::new();
        let patterns = [pat(&["g"]), pat(&["var"]), pat(&["int"]), pat(&["atom"])];
        for (n, p) in patterns.iter().enumerate() {
            assert_eq!(i.intern_hashed(7, p.clone()), (PatternId(n as u32), false));
        }
        for (n, p) in patterns.iter().enumerate() {
            assert_eq!(i.lookup_hashed(7, p), Some(PatternId(n as u32)));
            assert_eq!(i.intern_ref_hashed(7, p), (PatternId(n as u32), true));
        }
        assert_eq!(i.lookup_hashed(7, &pat(&["any"])), None);
        assert_eq!(i.lookup_hashed(8, &pat(&["g"])), None);
        assert_eq!(i.index.len(), 1);
        assert_eq!(i.next, [1, 2, 3, CHAIN_END]);
    }

    #[test]
    fn groundness_is_precomputed_and_correct() {
        let mut s = SessionInterner::default();
        for specs in [&["g", "glist"][..], &["any", "g"], &["var"], &[]] {
            let p = pat(specs);
            let id = s.intern(p.clone());
            assert_eq!(s.is_ground(id), p.is_ground(), "{specs:?}");
        }
    }
}
