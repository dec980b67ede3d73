//! Connection-local serve counters, merged only on snapshot.
//!
//! PR 8 kept one `Mutex<ServeStats>` and one `Mutex<Histogram>` for the
//! whole daemon, which every request had to take twice — at 16
//! concurrent connections those two locks (plus the cache and pool
//! locks) were the dominant cost of a request. This module inverts the
//! arrangement: every connection owns its own [`ConnStats`] block and
//! records into it with an uncontended lock (shared at most with the
//! worker-pool threads executing that connection's pipelined requests),
//! and a `stats` request walks the registry and *merges* — both
//! [`awam_obs::ServeStats`] and [`awam_obs::Histogram`] merge exactly,
//! so a snapshot is indistinguishable from the old global-lock
//! accounting.
//!
//! Lifecycle: a connection registers a [`ConnStatsHandle`] on accept;
//! when the connection (and every in-flight worker job borrowing it)
//! finishes, the handle's drop folds the block into the registry's
//! `retired` accumulator so completed traffic is never lost. Retiring
//! and snapshotting take the same registry lock, so a snapshot counts
//! every connection exactly once, even one that is closing.

use awam_obs::{Histogram, ServeStats};
use std::sync::{Arc, Mutex, PoisonError};

/// One connection's slice of the serve counters plus its latency
/// histogram (microseconds, analyze/batch requests only).
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// Request/response/shed counters.
    pub serve: ServeStats,
    /// Client-visible latency of analyze/batch requests, microseconds.
    pub latency_us: Histogram,
}

impl ConnStats {
    fn merge(&mut self, other: &ConnStats) {
        self.serve.merge(&other.serve);
        self.latency_us.merge(&other.latency_us);
    }
}

struct HandleInner {
    /// The connection's block, also held by the registry's live list
    /// until this handle retires it.
    stats: Arc<Mutex<ConnStats>>,
    registry: Arc<Mutex<Registry>>,
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        // Retire under the registry lock: a snapshot sees this block
        // either live or retired, never neither and never both. Merging
        // only adds counters, so a poisoned lock still holds valid ones.
        let mut registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = registry
            .live
            .iter()
            .position(|block| Arc::ptr_eq(block, &self.stats))
        {
            registry.live.swap_remove(i);
        }
        let finished = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        registry.retired.merge(&finished);
    }
}

/// A live connection's registered stats block. Clone-cheap (`Arc`);
/// the last clone's drop retires the counters into the registry.
#[derive(Clone)]
pub struct ConnStatsHandle {
    inner: Arc<HandleInner>,
}

impl ConnStatsHandle {
    /// Record into the connection's block under its (uncontended) lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut ConnStats) -> R) -> R {
        f(&mut self.inner.stats.lock().expect("conn stats poisoned"))
    }
}

/// The live blocks and the retired total, under one lock (taken before
/// any block's own lock).
#[derive(Default)]
struct Registry {
    live: Vec<Arc<Mutex<ConnStats>>>,
    retired: ConnStats,
}

/// The daemon-wide registry of per-connection stats blocks.
pub struct StatsRegistry {
    inner: Arc<Mutex<Registry>>,
}

impl Default for StatsRegistry {
    fn default() -> StatsRegistry {
        StatsRegistry::new()
    }
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry {
            inner: Arc::new(Mutex::new(Registry::default())),
        }
    }

    /// Register a new connection's stats block. Called once per accept;
    /// never on the request path.
    pub fn register(&self) -> ConnStatsHandle {
        let stats = Arc::new(Mutex::new(ConnStats::default()));
        self.inner
            .lock()
            .expect("stats registry poisoned")
            .live
            .push(Arc::clone(&stats));
        ConnStatsHandle {
            inner: Arc::new(HandleInner {
                stats,
                registry: Arc::clone(&self.inner),
            }),
        }
    }

    /// Merge retired + live connection counters into one snapshot.
    pub fn snapshot(&self) -> ConnStats {
        let registry = self.inner.lock().expect("stats registry poisoned");
        let mut total = registry.retired.clone();
        for block in &registry.live {
            total.merge(&block.lock().expect("conn stats poisoned"));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_retired_counters_both_appear() {
        let registry = StatsRegistry::new();
        let a = registry.register();
        a.with(|s| {
            s.serve.requests += 3;
            s.latency_us.record(100);
        });
        {
            let b = registry.register();
            b.with(|s| {
                s.serve.requests += 2;
                s.serve.responses_ok += 2;
                s.latency_us.record(7);
            });
            // b drops here → retired.
        }
        let snap = registry.snapshot();
        assert_eq!(snap.serve.requests, 5, "live (3) + retired (2)");
        assert_eq!(snap.serve.responses_ok, 2);
        assert_eq!(snap.latency_us.count, 2);
        assert_eq!(snap.latency_us.max, 100);
        // Dropping the last live handle moves it to retired; totals are
        // unchanged.
        drop(a);
        let snap = registry.snapshot();
        assert_eq!(snap.serve.requests, 5);
        assert_eq!(snap.latency_us.count, 2);
    }

    #[test]
    fn clones_share_one_block() {
        let registry = StatsRegistry::new();
        let handle = registry.register();
        let clone = handle.clone();
        handle.with(|s| s.serve.requests += 1);
        clone.with(|s| s.serve.requests += 1);
        drop(handle);
        // Still live through the clone — and counted once, not twice.
        assert_eq!(registry.snapshot().serve.requests, 2);
        drop(clone);
        assert_eq!(registry.snapshot().serve.requests, 2);
    }
}
