//! Plain counters: extension-table statistics, per-opcode dispatch
//! counts, and machine-level work/high-water counters.
//!
//! All counters are unconditional `u64` increments — cheap enough to
//! leave on in release builds, which is what makes compiled-vs-hosted
//! comparisons report *work done* instead of just wall time.

use crate::json::Json;

/// Statistics for the extension table (the analysis memo table).
///
/// Replaces the anonymous `(lookups, scan_steps)` tuple the analyzer
/// used to expose.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Number of `find`/`find_by` consultations.
    pub lookups: u64,
    /// Consultations that found an existing entry.
    pub hits: u64,
    /// Consultations that found nothing (usually followed by an insert).
    pub misses: u64,
    /// Entries examined across all consultations (list-scan cost).
    pub scan_steps: u64,
    /// Fresh entries inserted.
    pub inserts: u64,
    /// Success-pattern updates applied (lub of old and new summary).
    pub summary_updates: u64,
    /// Updates whose lub strictly grew the stored summary.
    pub lub_widenings: u64,
    /// Table version bumps (each one can force dependent re-iteration).
    pub version_bumps: u64,
}

impl TableStats {
    /// Encode as a JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lookups", Json::Int(self.lookups as i64)),
            ("hits", Json::Int(self.hits as i64)),
            ("misses", Json::Int(self.misses as i64)),
            ("scan_steps", Json::Int(self.scan_steps as i64)),
            ("inserts", Json::Int(self.inserts as i64)),
            ("summary_updates", Json::Int(self.summary_updates as i64)),
            ("lub_widenings", Json::Int(self.lub_widenings as i64)),
            ("version_bumps", Json::Int(self.version_bumps as i64)),
        ])
    }

    /// Hit rate in [0, 1]; zero when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Statistics for a pattern interner (the hash-consed arena mapping
/// canonical patterns to dense integer ids) and its id-keyed memo
/// caches for the lattice operations.
///
/// One instance per session interner; a probe against the shared base
/// arena and a probe against the session-local overlay both count as a
/// single intern. `bytes_saved` estimates the heap bytes a deduplicated
/// intern avoided allocating (the node and root vectors of the pattern
/// that was dropped in favor of the arena copy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Intern probes that found the pattern already in the arena.
    pub intern_hits: u64,
    /// Intern probes that had to add a fresh arena slot.
    pub intern_misses: u64,
    /// Memoized `lub` requests.
    pub lub_calls: u64,
    /// `lub` requests answered from the memo cache (including the
    /// `a ⊔ a = a` identical-operand fast path).
    pub lub_cache_hits: u64,
    /// Memoized `leq` requests.
    pub leq_calls: u64,
    /// `leq` requests answered from the memo cache (including the
    /// reflexive fast path).
    pub leq_cache_hits: u64,
    /// Estimated heap bytes deduplication avoided allocating.
    pub bytes_saved: u64,
}

impl InternStats {
    /// Encode as a JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("intern_hits", Json::Int(self.intern_hits as i64)),
            ("intern_misses", Json::Int(self.intern_misses as i64)),
            ("lub_calls", Json::Int(self.lub_calls as i64)),
            ("lub_cache_hits", Json::Int(self.lub_cache_hits as i64)),
            ("leq_calls", Json::Int(self.leq_calls as i64)),
            ("leq_cache_hits", Json::Int(self.leq_cache_hits as i64)),
            ("bytes_saved", Json::Int(self.bytes_saved as i64)),
        ])
    }

    /// Intern hit rate in [0, 1]; zero when there were no probes.
    pub fn hit_rate(&self) -> f64 {
        let total = self.intern_hits + self.intern_misses;
        if total == 0 {
            0.0
        } else {
            self.intern_hits as f64 / total as f64
        }
    }
}

/// Per-opcode dispatch counts.
///
/// The layer is machine-agnostic: the machine supplies the opcode count
/// at construction and the opcode names at render time (`wam` exports
/// `OPCODE_NAMES`), so this crate needs no dependency on the
/// instruction set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpcodeCounts {
    counts: Vec<u64>,
}

impl OpcodeCounts {
    /// A counter vector for `num_opcodes` opcodes, all zero.
    pub fn new(num_opcodes: usize) -> Self {
        OpcodeCounts {
            counts: vec![0; num_opcodes],
        }
    }

    /// Count one dispatch of opcode `index`.
    #[inline]
    pub fn hit(&mut self, index: usize) {
        self.counts[index] += 1;
    }

    /// Count `n` dispatches of opcode `index` at once — fused
    /// superinstruction runs attribute their constituents in one step.
    #[inline]
    pub fn hit_n(&mut self, index: usize, n: u64) {
        self.counts[index] += n;
    }

    /// The count for opcode `index` (zero if out of range).
    pub fn get(&self, index: usize) -> u64 {
        self.counts.get(index).copied().unwrap_or(0)
    }

    /// Total dispatches across all opcodes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(name, count)` for every opcode with a non-zero count, sorted by
    /// count descending (ties broken by opcode order).
    ///
    /// # Panics
    ///
    /// Panics if `names` is shorter than the counter vector.
    pub fn nonzero<'n>(&self, names: &[&'n str]) -> Vec<(&'n str, u64)> {
        assert!(names.len() >= self.counts.len(), "name table too short");
        let mut rows: Vec<(&str, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (names[i], c))
            .collect();
        rows.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        rows
    }

    /// Encode as a JSON object keyed by opcode name (non-zero only).
    ///
    /// # Panics
    ///
    /// Panics if `names` is shorter than the counter vector.
    pub fn to_json(&self, names: &[&str]) -> Json {
        Json::Obj(
            self.nonzero(names)
                .into_iter()
                .map(|(name, count)| (name.to_owned(), Json::Int(count as i64)))
                .collect(),
        )
    }
}

/// Counters for one analysis session: how often queries were answered
/// from the persistent extension table (warm hits) versus by running the
/// fixpoint (cold runs), and how much of the table each cold run reused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries answered from the persistent table without any fixpoint
    /// iteration (the entry pattern was subsumed by a memoized calling
    /// pattern).
    pub session_warm_hits: u64,
    /// Queries that had to run the fixpoint (possibly seeded with
    /// previously memoized entries).
    pub session_cold_runs: u64,
    /// Table entries already present when cold runs started (work the
    /// session saved those runs from re-deriving).
    pub entries_reused: u64,
    /// Table entries created by this session's cold runs.
    pub entries_created: u64,
}

impl SessionStats {
    /// Encode as a JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "session_warm_hits",
                Json::Int(self.session_warm_hits as i64),
            ),
            (
                "session_cold_runs",
                Json::Int(self.session_cold_runs as i64),
            ),
            ("entries_reused", Json::Int(self.entries_reused as i64)),
            ("entries_created", Json::Int(self.entries_created as i64)),
        ])
    }

    /// Warm-hit rate in [0, 1]; zero when no queries were made.
    pub fn warm_rate(&self) -> f64 {
        let total = self.session_warm_hits + self.session_cold_runs;
        if total == 0 {
            0.0
        } else {
            self.session_warm_hits as f64 / total as f64
        }
    }
}

/// Counters for one incremental re-analysis (`apply_edit` /
/// `update_source`): how the edit's invalidation wave partitioned the
/// extension table and how much work the seeded re-fixpoint did.
///
/// `entries_before = entries_kept + entries_reset + entries_dropped`
/// always holds — the three buckets are a partition of the pre-edit
/// table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationStats {
    /// Table entries present before the edit was applied.
    pub entries_before: u64,
    /// Entries that survived untouched (their dependency cone avoided
    /// every changed predicate).
    pub entries_kept: u64,
    /// Entries reset to an unexplored state (kept calling pattern,
    /// summary cleared) because they transitively depend on a changed
    /// predicate — the re-fixpoint frontier.
    pub entries_reset: u64,
    /// Entries dropped outright (their predicate was removed, or their
    /// calling pattern mentions a symbol absent from the new program).
    pub entries_dropped: u64,
    /// Predicates whose clause list changed (added or edited).
    pub preds_changed: u64,
    /// Predicates removed by the edit.
    pub preds_removed: u64,
    /// Frontier size: reset entries seeded into the re-fixpoint worklist.
    pub frontier: u64,
    /// Entry explorations performed by the seeded re-fixpoint.
    pub refix_explorations: u64,
    /// Abstract instructions executed by the seeded re-fixpoint.
    pub refix_instructions: u64,
}

impl InvalidationStats {
    /// Encode as a JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("entries_before", Json::Int(self.entries_before as i64)),
            ("entries_kept", Json::Int(self.entries_kept as i64)),
            ("entries_reset", Json::Int(self.entries_reset as i64)),
            ("entries_dropped", Json::Int(self.entries_dropped as i64)),
            ("preds_changed", Json::Int(self.preds_changed as i64)),
            ("preds_removed", Json::Int(self.preds_removed as i64)),
            ("frontier", Json::Int(self.frontier as i64)),
            (
                "refix_explorations",
                Json::Int(self.refix_explorations as i64),
            ),
            (
                "refix_instructions",
                Json::Int(self.refix_instructions as i64),
            ),
        ])
    }

    /// Fraction of pre-edit entries that survived, in [0, 1]; one when
    /// the table was empty (a no-op edit keeps everything).
    pub fn kept_rate(&self) -> f64 {
        if self.entries_before == 0 {
            1.0
        } else {
            self.entries_kept as f64 / self.entries_before as f64
        }
    }
}

/// Counters for the serving daemon: request/response totals, the two
/// shedding paths, compiled-program cache behavior, and warm-session
/// pool behavior.
///
/// The serve layer keeps one block per connection and one per program
/// cache and session pool shard, each under the lock its owner already
/// holds, and merges them for `stats` responses; the struct itself is
/// plain `u64`s so it serializes and diffs like every other counter
/// block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Analysis-plane requests received (`register`/`analyze`/`batch`,
    /// plus unparseable lines), before any shedding. Control ops
    /// (`stats`/`shutdown`) are counted in [`ServeStats::control_ops`]
    /// instead so they never dilute hit/error rates.
    pub requests: u64,
    /// Control-plane ops received (`stats`, `shutdown`); their
    /// responses are not counted in `responses_ok`/`responses_error`.
    pub control_ops: u64,
    /// Requests answered with an `ok` response.
    pub responses_ok: u64,
    /// Requests answered with an error envelope (all codes).
    pub responses_error: u64,
    /// Analyze/batch requests rejected because the in-flight limit was
    /// reached (the 429-style `overloaded` error).
    pub shed_overload: u64,
    /// Analysis runs aborted because they crossed their
    /// abstract-instruction budget (the `over_budget` error).
    pub shed_budget: u64,
    /// Analyze requests that found their compiled program in the cache.
    pub program_cache_hits: u64,
    /// Register requests that compiled a program not in the cache.
    pub program_cache_misses: u64,
    /// Compiled programs evicted to stay under the cache byte budget.
    pub program_cache_evictions: u64,
    /// Requests that reused a parked warm session from a tenant pool.
    pub session_pool_hits: u64,
    /// Requests that had to start a fresh session.
    pub session_pool_misses: u64,
    /// Queries the reused sessions answered without any fixpoint run
    /// (the session layer's warm hits, aggregated across the pool).
    pub warm_hits: u64,
    /// `update` ops that patched a registered program in place.
    pub updates: u64,
    /// Parked warm sessions migrated to the patched program by `update`
    /// ops (invalidated incrementally instead of being discarded).
    pub sessions_migrated: u64,
    /// Program lookups that found a concurrent compile of the same
    /// fingerprint in flight and waited for it instead of compiling
    /// again.
    pub compile_dedup_waits: u64,
}

impl ServeStats {
    /// Encode as a JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("requests", Json::Int(self.requests as i64)),
            ("control_ops", Json::Int(self.control_ops as i64)),
            ("responses_ok", Json::Int(self.responses_ok as i64)),
            ("responses_error", Json::Int(self.responses_error as i64)),
            ("shed_overload", Json::Int(self.shed_overload as i64)),
            ("shed_budget", Json::Int(self.shed_budget as i64)),
            (
                "program_cache_hits",
                Json::Int(self.program_cache_hits as i64),
            ),
            (
                "program_cache_misses",
                Json::Int(self.program_cache_misses as i64),
            ),
            (
                "program_cache_evictions",
                Json::Int(self.program_cache_evictions as i64),
            ),
            (
                "session_pool_hits",
                Json::Int(self.session_pool_hits as i64),
            ),
            (
                "session_pool_misses",
                Json::Int(self.session_pool_misses as i64),
            ),
            ("warm_hits", Json::Int(self.warm_hits as i64)),
            ("updates", Json::Int(self.updates as i64)),
            (
                "sessions_migrated",
                Json::Int(self.sessions_migrated as i64),
            ),
            (
                "compile_dedup_waits",
                Json::Int(self.compile_dedup_waits as i64),
            ),
        ])
    }

    /// Fold another counter block into this one (field-wise sums). The
    /// serve layer keeps one `ServeStats` per connection so the request
    /// hot path never touches a process-global lock; a `stats` snapshot
    /// merges the shards with this.
    pub fn merge(&mut self, other: &ServeStats) {
        self.requests += other.requests;
        self.control_ops += other.control_ops;
        self.responses_ok += other.responses_ok;
        self.responses_error += other.responses_error;
        self.shed_overload += other.shed_overload;
        self.shed_budget += other.shed_budget;
        self.program_cache_hits += other.program_cache_hits;
        self.program_cache_misses += other.program_cache_misses;
        self.program_cache_evictions += other.program_cache_evictions;
        self.session_pool_hits += other.session_pool_hits;
        self.session_pool_misses += other.session_pool_misses;
        self.warm_hits += other.warm_hits;
        self.updates += other.updates;
        self.sessions_migrated += other.sessions_migrated;
        self.compile_dedup_waits += other.compile_dedup_waits;
    }

    /// Program-cache hit rate in [0, 1]; zero when no lookups happened.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.program_cache_hits + self.program_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.program_cache_hits as f64 / total as f64
        }
    }

    /// Warm-session pool hit rate in [0, 1]; zero when no checkouts.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.session_pool_hits + self.session_pool_misses;
        if total == 0 {
            0.0
        } else {
            self.session_pool_hits as f64 / total as f64
        }
    }
}

/// Work and high-water counters for one machine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Instructions dispatched.
    pub instructions: u64,
    /// Predicate calls entered.
    pub calls: u64,
    /// Backtracks / forced failures taken.
    pub backtracks: u64,
    /// Choice points pushed.
    pub choice_points: u64,
    /// Maximum heap size observed (cells).
    pub heap_high_water: u64,
    /// Maximum trail size observed (entries).
    pub trail_high_water: u64,
}

impl MachineStats {
    /// Fold a heap-size sample into the high-water mark.
    #[inline]
    pub fn note_heap(&mut self, len: usize) {
        self.heap_high_water = self.heap_high_water.max(len as u64);
    }

    /// Fold a trail-size sample into the high-water mark.
    #[inline]
    pub fn note_trail(&mut self, len: usize) {
        self.trail_high_water = self.trail_high_water.max(len as u64);
    }

    /// Encode as a JSON object with one field per counter.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("instructions", Json::Int(self.instructions as i64)),
            ("calls", Json::Int(self.calls as i64)),
            ("backtracks", Json::Int(self.backtracks as i64)),
            ("choice_points", Json::Int(self.choice_points as i64)),
            ("heap_high_water", Json::Int(self.heap_high_water as i64)),
            ("trail_high_water", Json::Int(self.trail_high_water as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_stats_json_has_every_field() {
        let stats = TableStats {
            lookups: 10,
            hits: 7,
            misses: 3,
            scan_steps: 21,
            inserts: 3,
            summary_updates: 5,
            lub_widenings: 2,
            version_bumps: 2,
        };
        let json = stats.to_json();
        assert_eq!(json.get("lookups").and_then(Json::as_u64), Some(10));
        assert_eq!(json.get("lub_widenings").and_then(Json::as_u64), Some(2));
        assert!((stats.hit_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn intern_stats_json_has_every_field() {
        let stats = InternStats {
            intern_hits: 9,
            intern_misses: 3,
            lub_calls: 5,
            lub_cache_hits: 4,
            leq_calls: 6,
            leq_cache_hits: 2,
            bytes_saved: 480,
        };
        let json = stats.to_json();
        assert_eq!(json.get("intern_hits").and_then(Json::as_u64), Some(9));
        assert_eq!(json.get("intern_misses").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("lub_cache_hits").and_then(Json::as_u64), Some(4));
        assert_eq!(json.get("leq_calls").and_then(Json::as_u64), Some(6));
        assert_eq!(json.get("bytes_saved").and_then(Json::as_u64), Some(480));
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(InternStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn opcode_counts_sort_and_filter() {
        let mut counts = OpcodeCounts::new(3);
        counts.hit(0);
        counts.hit(2);
        counts.hit(2);
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.get(1), 0);
        let rows = counts.nonzero(&["a", "b", "c"]);
        assert_eq!(rows, vec![("c", 2), ("a", 1)]);
        let json = counts.to_json(&["a", "b", "c"]);
        assert_eq!(json.get("c").and_then(Json::as_u64), Some(2));
        assert!(json.get("b").is_none());
    }

    #[test]
    fn invalidation_stats_json_has_every_field() {
        let stats = InvalidationStats {
            entries_before: 12,
            entries_kept: 6,
            entries_reset: 4,
            entries_dropped: 2,
            preds_changed: 1,
            preds_removed: 1,
            frontier: 4,
            refix_explorations: 9,
            refix_instructions: 310,
        };
        let json = stats.to_json();
        assert_eq!(json.get("entries_before").and_then(Json::as_u64), Some(12));
        assert_eq!(json.get("entries_kept").and_then(Json::as_u64), Some(6));
        assert_eq!(json.get("entries_reset").and_then(Json::as_u64), Some(4));
        assert_eq!(json.get("entries_dropped").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("preds_changed").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("preds_removed").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("frontier").and_then(Json::as_u64), Some(4));
        assert_eq!(
            json.get("refix_explorations").and_then(Json::as_u64),
            Some(9)
        );
        assert_eq!(
            json.get("refix_instructions").and_then(Json::as_u64),
            Some(310)
        );
        assert!((stats.kept_rate() - 0.5).abs() < 1e-12);
        assert_eq!(InvalidationStats::default().kept_rate(), 1.0);
    }

    #[test]
    fn serve_stats_merge_covers_update_counters() {
        let mut a = ServeStats {
            updates: 1,
            sessions_migrated: 2,
            compile_dedup_waits: 1,
            ..ServeStats::default()
        };
        let b = ServeStats {
            updates: 3,
            sessions_migrated: 5,
            compile_dedup_waits: 2,
            ..ServeStats::default()
        };
        a.merge(&b);
        assert_eq!(a.updates, 4);
        assert_eq!(a.sessions_migrated, 7);
        assert_eq!(a.compile_dedup_waits, 3);
        let json = a.to_json();
        assert_eq!(json.get("updates").and_then(Json::as_u64), Some(4));
        assert_eq!(
            json.get("sessions_migrated").and_then(Json::as_u64),
            Some(7)
        );
    }

    #[test]
    fn high_water_marks_keep_the_max() {
        let mut stats = MachineStats::default();
        stats.note_heap(10);
        stats.note_heap(4);
        stats.note_trail(2);
        stats.note_trail(9);
        assert_eq!(stats.heap_high_water, 10);
        assert_eq!(stats.trail_high_water, 9);
    }
}
