//! Serving layer for vote-optimized knowledge graphs.
//!
//! The paper's deployment story (Section VII) is a loop: users query, the
//! system ranks answers by extended inverse P-distance, votes accumulate,
//! an optimization round adjusts edge weights, and the cycle repeats. The
//! expensive step at serve time is ranking — `O(L·|E|)` per query — yet
//! an optimization round touches only a handful of edges, and an edge
//! `(u, v)` can only move the scores of queries within `L − 1` hops of
//! `u`. Recomputing every query after every round throws that locality
//! away.
//!
//! [`SnapshotServer`] keeps it: rankings are cached per query in one
//! immutable cache state, stamped with the epoch of the
//! [`GraphSnapshot`](kg_graph::GraphSnapshot) it is valid for. Once per
//! publish, [`SnapshotServer::advance`] moves it forward: it pulls the
//! [`WeightDelta`](kg_graph::WeightDelta) of edges changed since the
//! cache's epoch and evicts **only** the cached queries that
//! [`kg_sim::affected_queries`] proves reachable from those edges — every
//! other cached ranking is still exact, byte for byte. The framework's
//! writer runs the advance before the new snapshot becomes visible, so
//! its readers never pay for it. Misses are evaluated on a warm,
//! allocation-free [`kg_sim::PhiWorkspace`];
//! [`SnapshotServer::rank_batch_at`] fans misses out over scoped worker
//! threads. A read waits at most for one pointer swap and never blocks
//! the writer, so a [`ServeHandle`] serves coherent rankings from any
//! thread while optimization rounds publish new epochs (see
//! `concurrent`).
//!
//! The cache is *provably coherent*, not heuristically fresh: the
//! property test in `tests/proptest_serve.rs` interleaves arbitrary
//! weight mutations, publishes, writer-side advances, snapshot restores,
//! stale reads and clears with lookups and checks the server's output is
//! bit-identical to an uncached [`kg_sim::rank_answers`] call at every
//! step; the
//! workspace-level stress suite `tests/concurrent_serving.rs` does the
//! same for rankings served *during* optimization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
pub mod stats;

pub use concurrent::{ServeConfig, ServeHandle, SnapshotServer};
pub use stats::{ServeStats, SharedServeStats};
