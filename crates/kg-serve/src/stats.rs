//! Serve-path counters.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative counters of a [`crate::SnapshotServer`]'s cache behavior.
///
/// Maintained unconditionally (they are a handful of integer increments);
/// mirrored into `kg-telemetry` counters (`votekg.serve.*`) when
/// collection is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests answered from cache.
    pub hits: u64,
    /// Requests that had to evaluate phi (no entry, or the entry was
    /// built over a different answer list).
    pub misses: u64,
    /// Cached queries evicted because the changed edges can reach them
    /// ([`kg_sim::affected_queries`]).
    pub invalidated: u64,
    /// Always `0`: the cache refreshes by eviction only. Kept so the
    /// serialized stats keep their shape for existing readers.
    pub repaired: u64,
    /// Cached queries that survived a sync because the changed edges
    /// cannot reach them — the work the cache saved.
    pub retained: u64,
    /// Version syncs that saw at least one changed edge.
    pub dirty_syncs: u64,
    /// Whole-cache clears (version regression: the graph jumped to an
    /// unknown lineage, e.g. reloaded from disk).
    pub full_clears: u64,
}

impl ServeStats {
    /// Fraction of requests served from cache (`0.0` when no requests).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Atomic mirror of [`ServeStats`] for [`crate::SnapshotServer`]: many
/// reader threads bump counters without any lock; [`Self::snapshot`]
/// folds them into a plain [`ServeStats`].
///
/// Individual counters are updated with relaxed atomics, so a snapshot
/// taken *while requests are in flight* may observe one counter of a
/// logically-single event before another (e.g. a miss counted whose
/// ranking is still being computed). Quiescent snapshots are exact.
#[derive(Debug, Default)]
pub struct SharedServeStats {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    retained: AtomicU64,
    dirty_syncs: AtomicU64,
    full_clears: AtomicU64,
}

impl SharedServeStats {
    pub(crate) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn invalidated(&self, n: u64) {
        self.invalidated.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn retained(&self, n: u64) {
        self.retained.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn dirty_sync(&self) {
        self.dirty_syncs.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn full_clear(&self) {
        self.full_clears.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter values as a plain [`ServeStats`].
    pub fn snapshot(&self) -> ServeStats {
        ServeStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            repaired: 0,
            retained: self.retained.load(Ordering::Relaxed),
            dirty_syncs: self.dirty_syncs.load(Ordering::Relaxed),
            full_clears: self.full_clears.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_stats_fold_into_plain_stats() {
        let s = SharedServeStats::default();
        s.hit();
        s.hit();
        s.miss();
        s.invalidated(3);
        s.retained(2);
        s.dirty_sync();
        s.full_clear();
        let snap = s.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.invalidated, 3);
        assert_eq!(snap.repaired, 0);
        assert_eq!(snap.retained, 2);
        assert_eq!(snap.dirty_syncs, 1);
        assert_eq!(snap.full_clears, 1);
        assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        assert_eq!(ServeStats::default().hit_rate(), 0.0);
        let s = ServeStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
