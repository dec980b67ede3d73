//! The compiled-program cache and the per-tenant warm-session pools,
//! sharded so the serve hot path never serializes on a process-global
//! lock.
//!
//! The paper's whole premise is *compile once, analyze many*; at
//! service scale that becomes these two layers:
//!
//! * [`ProgramCache`] — fingerprint → `Arc<Analyzer>`. Compilation
//!   happens at most once per distinct source text; every worker thread
//!   shares the same immutable compiled artifact through the `Arc`
//!   (the regorus `Engine`/`CompiledPolicy` pattern). The cache is
//!   split into independently locked shards (fingerprint-addressed);
//!   each shard carries its own LRU clock and byte budget so a
//!   long-running daemon's memory stays bounded no matter how many
//!   programs tenants register, without any cross-shard coordination on
//!   the lookup path. A miss still compiles at most once under
//!   concurrency: the first requester installs a pending ticket in the
//!   shard and compiles outside the lock; concurrent requesters of the
//!   same fingerprint block on the ticket instead of duplicating the
//!   compile.
//! * [`SessionPool`] — `(tenant, fingerprint)` → parked
//!   [`SessionParts`], likewise sharded by a hash of the key. A request
//!   checks a warm session out, runs its query (repeat/subsumed goals
//!   are answered from the memo table with zero fixpoint iterations),
//!   and checks it back in. Pools are per-tenant so one tenant's
//!   accumulated extension table never leaks into another tenant's
//!   answers.

use awam_core::{Analyzer, SessionParts};
use awam_obs::ServeStats;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Default shard count for both caches: enough to make cross-request
/// lock collisions rare at realistic connection counts, small enough
/// that per-shard byte budgets stay meaningful.
pub const DEFAULT_SHARDS: usize = 8;

/// Finalizer-strength mixer (splitmix64) applied before taking shard
/// bits: program fingerprints are well distributed, but unit tests and
/// embedders may key with small sequential integers, and the shard
/// index must not degenerate for those.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string, used to fold tenant names into the pool
/// shard key.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic compile failure, broadcast to every requester that
/// was waiting on the same in-flight compile.
#[derive(Clone, Debug)]
pub struct CompileFailed {
    /// Protocol error code (`parse_error` or `compile_error`, or
    /// `internal` when the leader's compile panicked).
    pub code: &'static str,
    /// Human-readable reason.
    pub message: String,
}

/// One cached compiled program.
struct CacheSlot {
    analyzer: Arc<Analyzer>,
    /// Rough resident size estimate (code area + interner seed) used
    /// against the byte budget.
    approx_bytes: usize,
    /// LRU clock stamp of the last `get`/insert (per-shard clock).
    last_used: u64,
}

/// The ticket concurrent requesters of an in-flight compile block on.
struct Pending {
    result: Mutex<Option<Result<Arc<Analyzer>, CompileFailed>>>,
    ready: Condvar,
}

struct ShardInner {
    slots: HashMap<u64, CacheSlot>,
    pending: HashMap<u64, Arc<Pending>>,
    clock: u64,
    bytes: usize,
    /// The shard's `program_cache_*` and `compile_dedup_waits` counts.
    stats: ServeStats,
}

struct Shard {
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            inner: Mutex::new(ShardInner {
                slots: HashMap::new(),
                pending: HashMap::new(),
                clock: 0,
                bytes: 0,
                stats: ServeStats::default(),
            }),
        }
    }
}

/// A sharded, thread-safe LRU cache of compiled [`Analyzer`]s keyed by
/// program fingerprint. Each shard is bounded by its slice of the byte
/// budget and locked independently, so concurrent requests for
/// different programs never contend.
pub struct ProgramCache {
    shards: Box<[Shard]>,
    /// Byte budget per shard (total budget split evenly).
    shard_budget: usize,
    mask: u64,
}

impl ProgramCache {
    /// A cache of [`DEFAULT_SHARDS`] shards holding at most
    /// ~`byte_budget` bytes of compiled programs overall (estimates; a
    /// budget of 0 still holds each shard's most recently inserted
    /// program, because evicting the artifact a request is about to use
    /// would defeat the cache's purpose).
    pub fn new(byte_budget: usize) -> ProgramCache {
        ProgramCache::with_shards(byte_budget, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (rounded up to a power of
    /// two, minimum 1). The byte budget is split evenly across shards;
    /// LRU accounting is shard-local.
    pub fn with_shards(byte_budget: usize, shards: usize) -> ProgramCache {
        let n = shards.max(1).next_power_of_two();
        ProgramCache {
            shards: (0..n).map(|_| Shard::new()).collect(),
            shard_budget: byte_budget / n,
            mask: (n - 1) as u64,
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a fingerprint lives in; exposed so tests can assert
    /// the key distribution.
    pub fn shard_of(&self, hash: u64) -> usize {
        (mix64(hash) & self.mask) as usize
    }

    fn shard(&self, hash: u64) -> &Shard {
        &self.shards[self.shard_of(hash)]
    }

    /// Look up a compiled program by fingerprint, bumping its LRU stamp.
    pub fn get(&self, hash: u64) -> Option<Arc<Analyzer>> {
        let mut inner = self.shard(hash).inner.lock().expect("cache shard poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        let found = inner.slots.get_mut(&hash).map(|slot| {
            slot.last_used = clock;
            Arc::clone(&slot.analyzer)
        });
        if found.is_some() {
            inner.stats.program_cache_hits += 1;
        }
        found
    }

    /// Look up without touching the hit/miss counters (used by paths
    /// that already counted the lookup).
    pub fn peek(&self, hash: u64) -> Option<Arc<Analyzer>> {
        let mut inner = self.shard(hash).inner.lock().expect("cache shard poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        inner.slots.get_mut(&hash).map(|slot| {
            slot.last_used = clock;
            Arc::clone(&slot.analyzer)
        })
    }

    /// Resolve `hash` to its compiled program, running `compile` on a
    /// miss — at most once per fingerprint under concurrency. Returns
    /// the analyzer, the fingerprints evicted to make room (the server
    /// purges their session pools), and whether this call compiled
    /// (`true` exactly when `compile` ran and succeeded).
    ///
    /// The first requester of an absent fingerprint installs a pending
    /// ticket and compiles *outside* the shard lock; concurrent
    /// requesters block on the ticket and share the result — including
    /// a deterministic failure, which is broadcast rather than
    /// recompiled.
    ///
    /// # Errors
    ///
    /// Whatever `compile` returned (or, for a waiter, the leader's
    /// failure).
    pub fn get_or_compile(
        &self,
        hash: u64,
        compile: impl FnOnce() -> Result<(Arc<Analyzer>, usize), CompileFailed>,
    ) -> Result<(Arc<Analyzer>, Vec<u64>, bool), CompileFailed> {
        let shard = self.shard(hash);
        let ticket = {
            let mut inner = shard.inner.lock().expect("cache shard poisoned");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(slot) = inner.slots.get_mut(&hash) {
                slot.last_used = clock;
                let found = Arc::clone(&slot.analyzer);
                inner.stats.program_cache_hits += 1;
                return Ok((found, Vec::new(), false));
            }
            if let Some(pending) = inner.pending.get(&hash).map(Arc::clone) {
                inner.stats.compile_dedup_waits += 1;
                Some(pending)
            } else {
                let pending = Arc::new(Pending {
                    result: Mutex::new(None),
                    ready: Condvar::new(),
                });
                inner.pending.insert(hash, pending);
                None
            }
        };

        if let Some(pending) = ticket {
            // Another request is compiling this fingerprint right now;
            // wait for its verdict instead of compiling again.
            let mut result = pending.result.lock().expect("pending lock poisoned");
            while result.is_none() {
                result = pending.ready.wait(result).expect("pending wait poisoned");
            }
            return match result.as_ref().expect("loop exits on Some") {
                Ok(analyzer) => {
                    // Count the dedup'd waiter as a hit: it found the
                    // program compiled (just barely).
                    let mut inner = shard.inner.lock().expect("cache shard poisoned");
                    inner.stats.program_cache_hits += 1;
                    Ok((Arc::clone(analyzer), Vec::new(), false))
                }
                Err(failed) => Err(failed.clone()),
            };
        }

        // This request is the compile leader. Compile with no lock held;
        // if the compile unwinds, the guard fails the ticket.
        let guard = LeaderGuard { shard, hash };
        let compiled = compile();
        std::mem::forget(guard);
        let mut inner = shard.inner.lock().expect("cache shard poisoned");
        let pending = inner
            .pending
            .remove(&hash)
            .expect("leader's pending ticket is present");
        match compiled {
            Ok((analyzer, approx_bytes)) => {
                inner.stats.program_cache_misses += 1;
                let evicted = insert_locked(
                    &mut inner,
                    hash,
                    Arc::clone(&analyzer),
                    approx_bytes,
                    self.shard_budget,
                );
                *pending.result.lock().expect("pending lock poisoned") =
                    Some(Ok(Arc::clone(&analyzer)));
                pending.ready.notify_all();
                Ok((analyzer, evicted, true))
            }
            Err(failed) => {
                *pending.result.lock().expect("pending lock poisoned") = Some(Err(failed.clone()));
                pending.ready.notify_all();
                Err(failed)
            }
        }
    }

    /// Insert a freshly compiled program and evict least-recently-used
    /// slots of its shard until the estimate fits the shard budget
    /// again. Returns the fingerprints that were evicted (the server
    /// purges their session pools). Counts one miss.
    pub fn insert(&self, hash: u64, analyzer: Arc<Analyzer>, source_len: usize) -> Vec<u64> {
        let approx_bytes = approx_program_bytes(&analyzer, source_len);
        let mut inner = self.shard(hash).inner.lock().expect("cache shard poisoned");
        inner.stats.program_cache_misses += 1;
        insert_locked(&mut inner, hash, analyzer, approx_bytes, self.shard_budget)
    }

    /// Snapshot `(programs, bytes, total byte budget, merged counters)`
    /// across all shards.
    pub fn snapshot(&self) -> (usize, usize, usize, ServeStats) {
        let mut programs = 0;
        let mut bytes = 0;
        let mut stats = ServeStats::default();
        for shard in self.shards.iter() {
            let inner = shard.inner.lock().expect("cache shard poisoned");
            programs += inner.slots.len();
            bytes += inner.bytes;
            stats.merge(&inner.stats);
        }
        (
            programs,
            bytes,
            self.shard_budget * self.shards.len(),
            stats,
        )
    }
}

/// Held by a compile leader while its compile runs. Dropped only when
/// the compile unwinds: it removes the leader's pending ticket and fails
/// it, so waiters get an error instead of blocking forever and a later
/// request compiles afresh.
struct LeaderGuard<'a> {
    shard: &'a Shard,
    hash: u64,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        // Never panic while unwinding: take the locks even if poisoned.
        let pending = self
            .shard
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .remove(&self.hash);
        if let Some(pending) = pending {
            *pending
                .result
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(Err(CompileFailed {
                code: "internal",
                message: "the compile of this program panicked".to_owned(),
            }));
            pending.ready.notify_all();
        }
    }
}

/// Shard-local insert + LRU eviction; the shard lock is already held.
fn insert_locked(
    inner: &mut ShardInner,
    hash: u64,
    analyzer: Arc<Analyzer>,
    approx_bytes: usize,
    shard_budget: usize,
) -> Vec<u64> {
    inner.clock += 1;
    let clock = inner.clock;
    if let Some(old) = inner.slots.insert(
        hash,
        CacheSlot {
            analyzer,
            approx_bytes,
            last_used: clock,
        },
    ) {
        // Racing registration of the same source: keep the newer
        // artifact, reclaim the older estimate.
        inner.bytes -= old.approx_bytes;
    }
    inner.bytes += approx_bytes;
    let mut evicted = Vec::new();
    while inner.bytes > shard_budget && inner.slots.len() > 1 {
        let Some((&victim, _)) = inner
            .slots
            .iter()
            .filter(|(&h, _)| h != hash)
            .min_by_key(|(_, slot)| slot.last_used)
        else {
            break;
        };
        let slot = inner.slots.remove(&victim).expect("victim present");
        inner.bytes -= slot.approx_bytes;
        inner.stats.program_cache_evictions += 1;
        evicted.push(victim);
    }
    evicted
}

/// Estimate a compiled program's resident bytes: instruction stream,
/// predicate table, seed interner, and the source's symbol table. Only
/// has to be *monotone and stable* — eviction decisions need a
/// consistent yardstick, not an allocator audit.
pub(crate) fn approx_program_bytes(analyzer: &Analyzer, source_len: usize) -> usize {
    let program = analyzer.program();
    program.code_size() * 48 + program.predicates.len() * 96 + source_len + 1024
}

struct PoolShard {
    inner: Mutex<PoolInner>,
}

struct PoolInner {
    /// Tenant → program fingerprint → parked sessions. Keyed by tenant
    /// first so a lookup borrows the tenant instead of cloning it.
    pools: HashMap<String, HashMap<u64, Vec<SessionParts>>>,
    /// The shard's `session_pool_*` counts.
    stats: ServeStats,
}

/// Per-`(tenant, program)` pools of parked warm sessions, sharded by a
/// hash of the key so concurrent checkouts for different tenants or
/// programs never contend on one lock.
pub struct SessionPool {
    shards: Box<[PoolShard]>,
    /// Upper bound of parked sessions per `(tenant, program)` key;
    /// check-ins beyond it are dropped (bounding memory under bursts).
    max_per_key: usize,
    mask: u64,
}

impl SessionPool {
    /// A pool of [`DEFAULT_SHARDS`] shards keeping at most
    /// `max_per_key` parked sessions per `(tenant, program)` key.
    pub fn new(max_per_key: usize) -> SessionPool {
        SessionPool::with_shards(max_per_key, DEFAULT_SHARDS)
    }

    /// A pool with an explicit shard count (rounded up to a power of
    /// two, minimum 1).
    pub fn with_shards(max_per_key: usize, shards: usize) -> SessionPool {
        let n = shards.max(1).next_power_of_two();
        SessionPool {
            shards: (0..n)
                .map(|_| PoolShard {
                    inner: Mutex::new(PoolInner {
                        pools: HashMap::new(),
                        stats: ServeStats::default(),
                    }),
                })
                .collect(),
            max_per_key,
            mask: (n - 1) as u64,
        }
    }

    /// The shard a `(tenant, program)` key lives in; exposed so tests
    /// can assert the key distribution.
    pub fn shard_of(&self, tenant: &str, hash: u64) -> usize {
        (mix64(fnv1a(tenant.as_bytes()) ^ mix64(hash)) & self.mask) as usize
    }

    fn shard(&self, tenant: &str, hash: u64) -> &PoolShard {
        &self.shards[self.shard_of(tenant, hash)]
    }

    /// Check a warm session out for `tenant` × `hash`; `None` means the
    /// caller starts a fresh one.
    pub fn checkout(&self, tenant: &str, hash: u64) -> Option<SessionParts> {
        let mut inner = self
            .shard(tenant, hash)
            .inner
            .lock()
            .expect("pool shard poisoned");
        let parts = inner
            .pools
            .get_mut(tenant)
            .and_then(|programs| programs.get_mut(&hash))
            .and_then(Vec::pop);
        match parts {
            Some(p) => {
                inner.stats.session_pool_hits += 1;
                Some(p)
            }
            None => {
                inner.stats.session_pool_misses += 1;
                None
            }
        }
    }

    /// Park a session's parts for later reuse (dropped when the key's
    /// pool is full).
    pub fn checkin(&self, tenant: &str, hash: u64, parts: SessionParts) {
        let mut inner = self
            .shard(tenant, hash)
            .inner
            .lock()
            .expect("pool shard poisoned");
        // Only a tenant new to this shard pays for a key string.
        let programs = match inner.pools.get_mut(tenant) {
            Some(programs) => programs,
            None => inner.pools.entry(tenant.to_owned()).or_default(),
        };
        let pool = programs.entry(hash).or_default();
        if pool.len() < self.max_per_key {
            // One slot per parked session: `push`'s first growth would
            // reserve four, and most keys park one.
            pool.reserve_exact(1);
            pool.push(parts);
        }
    }

    /// Drop every parked session of an evicted program (all tenants,
    /// all shards): their tables hold pattern ids that resolve through
    /// the evicted analyzer's interner.
    pub fn purge_program(&self, hash: u64) {
        for shard in self.shards.iter() {
            let mut inner = shard.inner.lock().expect("pool shard poisoned");
            inner.pools.retain(|_, programs| {
                programs.remove(&hash);
                !programs.is_empty()
            });
        }
    }

    /// Drain every parked session of a program across all tenants and
    /// shards, returning each with the tenant it was parked under. The
    /// `update` op uses this to migrate warm sessions onto the edited
    /// program's fingerprint instead of discarding them.
    pub fn take_program(&self, hash: u64) -> Vec<(String, SessionParts)> {
        let mut taken = Vec::new();
        for shard in self.shards.iter() {
            let mut inner = shard.inner.lock().expect("pool shard poisoned");
            inner.pools.retain(|tenant, programs| {
                if let Some(parked) = programs.remove(&hash) {
                    taken.extend(parked.into_iter().map(|p| (tenant.clone(), p)));
                }
                !programs.is_empty()
            });
        }
        taken
    }

    /// Snapshot `(parked sessions across all keys, merged counters)`.
    pub fn snapshot(&self) -> (usize, ServeStats) {
        let mut parked = 0;
        let mut stats = ServeStats::default();
        for shard in self.shards.iter() {
            let inner = shard.inner.lock().expect("pool shard poisoned");
            parked += inner
                .pools
                .values()
                .flat_map(HashMap::values)
                .map(Vec::len)
                .sum::<usize>();
            stats.merge(&inner.stats);
        }
        (parked, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awam_core::Session;
    use prolog_syntax::parse_program;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn compiled(source: &str) -> Arc<Analyzer> {
        let program = parse_program(source).expect("test source parses");
        Arc::new(Analyzer::compile(&program).expect("test source compiles"))
    }

    const APP: &str = "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).";

    #[test]
    fn cache_compiles_once_and_counts() {
        let cache = ProgramCache::new(usize::MAX);
        let hash = awam_core::program_fingerprint(APP);
        assert!(cache.get(hash).is_none());
        cache.insert(hash, compiled(APP), APP.len());
        let a = cache.get(hash).expect("cached");
        let b = cache.get(hash).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "one compiled artifact, shared");
        let (programs, bytes, _, stats) = cache.snapshot();
        assert_eq!(programs, 1);
        assert!(bytes > 0);
        assert_eq!(
            (
                stats.program_cache_hits,
                stats.program_cache_misses,
                stats.program_cache_evictions
            ),
            (2, 1, 0)
        );
    }

    #[test]
    fn cache_evicts_lru_under_byte_budget() {
        // Single shard so the second insert lands on the same byte
        // budget as the first; budget below two programs means the
        // second insert evicts the first.
        let one = compiled(APP);
        let budget = approx_program_bytes(&one, APP.len()) + 512;
        let cache = ProgramCache::with_shards(budget, 1);
        cache.insert(1, one, APP.len());
        let evicted = cache.insert(2, compiled("p(x)."), 6);
        assert_eq!(evicted, vec![1], "LRU slot evicted");
        assert!(cache.peek(1).is_none());
        assert!(cache.peek(2).is_some(), "newest insert is never evicted");
        let (_, _, _, stats) = cache.snapshot();
        assert_eq!(stats.program_cache_evictions, 1);
    }

    #[test]
    fn zero_budget_still_serves_the_latest_program() {
        let cache = ProgramCache::new(0);
        cache.insert(1, compiled(APP), APP.len());
        assert!(cache.peek(1).is_some());
    }

    #[test]
    fn get_or_compile_dedupes_concurrent_compiles() {
        // 8 threads race get_or_compile on one fingerprint; the compile
        // closure sleeps so the waiters genuinely overlap the leader.
        let cache = ProgramCache::new(usize::MAX);
        let compiles = AtomicUsize::new(0);
        let hash = awam_core::program_fingerprint(APP);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        cache
                            .get_or_compile(hash, || {
                                compiles.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                let a = compiled(APP);
                                let bytes = approx_program_bytes(&a, APP.len());
                                Ok((a, bytes))
                            })
                            .expect("compiles")
                            .0
                    })
                })
                .collect();
            let artifacts: Vec<Arc<Analyzer>> = handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect();
            for other in &artifacts[1..] {
                assert!(
                    Arc::ptr_eq(&artifacts[0], other),
                    "every racer shares the single compiled artifact"
                );
            }
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "compiled exactly once");
        let (_, _, _, stats) = cache.snapshot();
        assert_eq!(stats.program_cache_misses, 1);
        assert_eq!(
            stats.program_cache_hits, 7,
            "each non-leader counts one hit"
        );
        assert!(
            stats.compile_dedup_waits <= 7,
            "waiters that overlapped the compile counted a dedup wait"
        );
    }

    #[test]
    fn get_or_compile_broadcasts_failure() {
        let cache = ProgramCache::new(usize::MAX);
        let err = cache
            .get_or_compile(99, || {
                Err(CompileFailed {
                    code: "compile_error",
                    message: "nope".to_owned(),
                })
            })
            .expect_err("leader failure propagates");
        assert_eq!(err.code, "compile_error");
        // The failed fingerprint is not cached; a later attempt can
        // compile successfully.
        let (analyzer, _, compiled_now) = cache
            .get_or_compile(99, || {
                let a = compiled(APP);
                let bytes = approx_program_bytes(&a, APP.len());
                Ok((a, bytes))
            })
            .expect("second attempt succeeds");
        assert!(compiled_now);
        assert!(Arc::ptr_eq(&analyzer, &cache.peek(99).expect("cached")));
    }

    #[test]
    fn a_panicking_compile_leaves_no_ticket_behind() {
        // At most 5 s for the second lookup: a leaked ticket would make
        // it wait forever, so it runs on a thread the test can give up on.
        let cache = Arc::new(ProgramCache::new(usize::MAX));
        let (done, verdict) = std::sync::mpsc::channel();
        let worker = Arc::clone(&cache);
        std::thread::spawn(move || {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker.get_or_compile(42, || -> Result<(Arc<Analyzer>, usize), CompileFailed> {
                    panic!("the compile blew up")
                })
            }))
            .is_err();
            let second = worker.get_or_compile(42, || {
                let a = compiled(APP);
                let bytes = approx_program_bytes(&a, APP.len());
                Ok((a, bytes))
            });
            drop(done.send((unwound, second.map(|(_, _, compiled_now)| compiled_now))));
        });
        let (unwound, second) = verdict
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the second get_or_compile returned within 5 s");
        assert!(unwound, "the leader's panic reached its caller");
        assert!(
            matches!(second, Ok(true)),
            "the second request compiled afresh"
        );
        assert!(cache.peek(42).is_some());
    }

    #[test]
    fn cache_shard_keys_spread() {
        // Sequential fingerprints (the worst realistic case: tests and
        // embedders keying 1, 2, 3, …) must still spread across shards.
        let cache = ProgramCache::with_shards(usize::MAX, 8);
        let mut per_shard = vec![0usize; cache.shard_count()];
        for hash in 0..4096u64 {
            per_shard[cache.shard_of(hash)] += 1;
        }
        let (min, max) = (
            per_shard.iter().copied().min().expect("shards"),
            per_shard.iter().copied().max().expect("shards"),
        );
        assert!(min > 0, "no empty shard: {per_shard:?}");
        assert!(
            max < min * 2,
            "sequential keys spread within 2x: {per_shard:?}"
        );
    }

    #[test]
    fn pool_shard_keys_spread() {
        let pool = SessionPool::with_shards(4, 8);
        let mut per_shard = vec![0usize; 8];
        for t in 0..64 {
            let tenant = format!("tenant{t}");
            for hash in 0..64u64 {
                per_shard[pool.shard_of(&tenant, hash)] += 1;
            }
        }
        let (min, max) = (
            per_shard.iter().copied().min().expect("shards"),
            per_shard.iter().copied().max().expect("shards"),
        );
        assert!(min > 0, "no empty shard: {per_shard:?}");
        assert!(
            max < min * 2,
            "(tenant, program) keys spread within 2x: {per_shard:?}"
        );
        // Same tenant, same program → same shard (stability).
        assert_eq!(pool.shard_of("a", 7), pool.shard_of("a", 7));
    }

    #[test]
    fn pool_parks_and_reuses_per_tenant() {
        let analyzer = compiled(APP);
        let pool = SessionPool::new(2);
        assert!(pool.checkout("t1", 1).is_none());

        // Grow a session, park it, and get the warm table back.
        let mut session = Session::new(&analyzer);
        session
            .analyze_query("app", &["glist", "glist", "var"])
            .expect("analysis runs");
        let memo = session.memo_len();
        assert!(memo > 0);
        pool.checkin("t1", 1, session.into_parts());

        assert!(pool.checkout("t2", 1).is_none(), "tenant isolation");
        let parts = pool.checkout("t1", 1).expect("parked session");
        assert_eq!(parts.memo_len(), memo);
        let mut warm = Session::resume(&analyzer, parts);
        let analysis = warm
            .analyze_query("app", &["glist", "glist", "var"])
            .expect("analysis runs");
        assert_eq!(analysis.iterations, 0, "warm hit from the parked table");

        let (_, stats) = pool.snapshot();
        assert_eq!(stats.session_pool_hits, 1);
        assert_eq!(stats.session_pool_misses, 2);
    }

    #[test]
    fn pool_bounds_and_purges() {
        let analyzer = compiled(APP);
        let pool = SessionPool::new(1);
        pool.checkin("t", 9, Session::new(&analyzer).into_parts());
        pool.checkin("t", 9, Session::new(&analyzer).into_parts());
        let (parked, _) = pool.snapshot();
        assert_eq!(parked, 1, "per-key bound drops the overflow");
        // Park the same program under many tenants so the purge has to
        // sweep several shards.
        for t in 0..16 {
            pool.checkin(&format!("t{t}"), 9, Session::new(&analyzer).into_parts());
        }
        pool.purge_program(9);
        let (parked, _) = pool.snapshot();
        assert_eq!(parked, 0, "purge sweeps every shard");
    }

    #[test]
    fn take_program_drains_every_tenant_and_spares_others() {
        let analyzer = compiled(APP);
        let pool = SessionPool::new(4);
        for t in 0..8 {
            pool.checkin(&format!("t{t}"), 9, Session::new(&analyzer).into_parts());
        }
        pool.checkin("t0", 10, Session::new(&analyzer).into_parts());
        let taken = pool.take_program(9);
        assert_eq!(taken.len(), 8, "every shard's parked sessions drained");
        let mut tenants: Vec<&str> = taken.iter().map(|(t, _)| t.as_str()).collect();
        tenants.sort_unstable();
        tenants.dedup();
        assert_eq!(tenants.len(), 8, "tenant names preserved");
        let (parked, _) = pool.snapshot();
        assert_eq!(parked, 1, "other programs' sessions untouched");
    }
}
