//! Lock-free snapshot serving: concurrent reads under live optimization.
//!
//! [`SnapshotServer`] is the serving layer's one ranking cache:
//!
//! * Readers rank against an immutable, epoch-stamped
//!   [`GraphSnapshot`](kg_graph::GraphSnapshot); the writer mutates a
//!   private graph and publishes via
//!   [`SharedGraph::publish`](kg_graph::SharedGraph::publish), an atomic
//!   pointer swap that never blocks readers.
//! * The ranking cache is split into shards, each an immutable
//!   [`ShardCache`] behind an [`ArcCell`](kg_graph::ArcCell). The read
//!   fast path is: load the snapshot, load the shard, hash-lookup, copy
//!   the ranking out — no lock anywhere, and wait-free with respect to
//!   writers (an in-flight publish never makes a reader spin or retry).
//! * Cache maintenance is RCU: syncs and miss-fills build a *new* shard
//!   map and publish it with [`ArcCell::update`](kg_graph::ArcCell);
//!   concurrent readers keep the old one until their next load.
//!
//! Coherence does not depend on winning races. A cached ranking is served
//! only when its shard's epoch equals the epoch of the snapshot being
//! ranked against, and within one graph lineage equal epochs imply
//! identical weights (every effective change bumps the version). A lost
//! cache update therefore costs a recomputation, never a wrong answer —
//! the stress suite in `tests/concurrent_serving.rs` checks every result
//! byte-for-byte against an uncached evaluation at its reported epoch.
//!
//! A sync evicts exactly the cached queries that
//! [`kg_sim::affected_queries`] proves reachable from the changed edges;
//! the next read of an evicted query recomputes it on a warm
//! [`kg_sim::PhiWorkspace`]. The changed-edge extraction is memoized
//! across shards: the first shard syncing over an epoch transition pays
//! the `O(|E|)` scan, the rest reuse the shared [`WeightDelta`].

use crate::stats::{ServeStats, SharedServeStats};
use kg_graph::{ArcCell, GraphSnapshot, NodeId, SharedGraph, WeightDelta};
use kg_sim::{
    affected_queries, rank_many, with_local_workspace, BatchQuery, RankedAnswer, SimilarityConfig,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Configuration of a [`SnapshotServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Similarity parameters used for every evaluation. Must match the
    /// config the optimizer assumes (the invalidation radius is
    /// `sim.max_path_len - 1` hops).
    pub sim: SimilarityConfig,
    /// Worker threads for batch misses; `1` evaluates inline on the
    /// calling thread. Results are identical for any value.
    pub workers: usize,
    /// Cache shards. More shards mean less publish contention between
    /// concurrent miss-fills at a small per-sync cost; results are
    /// identical for any value `>= 1` (`0` is treated as `1`).
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sim: SimilarityConfig::default(),
            workers: 1,
            shards: 16,
        }
    }
}

#[derive(Debug)]
struct CacheEntry {
    /// The answer list the ranking was computed over (request order).
    answers: Vec<NodeId>,
    /// Full ranking over `answers` (`k = answers.len()`), so any request
    /// with `k <= answers.len()` is served by truncation.
    ranking: Vec<RankedAnswer>,
}

/// One cache shard: immutable once published. Entries are `Arc`-shared so
/// republishing a shard with one entry added or removed clones only the
/// map skeleton, not the rankings.
#[derive(Debug, Clone, Default)]
struct ShardCache {
    /// Snapshot epoch every entry in this shard is valid for.
    epoch: u64,
    entries: HashMap<NodeId, Arc<CacheEntry>>,
}

/// A sharded, multi-reader ranking cache over published
/// [`GraphSnapshot`]s.
///
/// Shared by reference (`&self` everywhere): wrap it in an [`Arc`] and
/// hand clones to any number of reader threads. Each shard is keyed by
/// the snapshot epoch it was validated against; a reader that arrives
/// with a newer snapshot migrates the shard first —
/// [`changes_since`](kg_graph::KnowledgeGraph::changes_since) pulls the
/// edges that moved, [`kg_sim::affected_queries`] proves which cached
/// queries they can reach, and only those are dropped.
///
/// Shards only ever move *forward*: a reader still holding an older
/// snapshot while newer ones are being published — the normal case under
/// live optimization — is served by direct evaluation of its snapshot
/// (a miss, never cached) instead of rewinding the shard and thrashing
/// every newer reader's entries. Consequently, binding the server to a
/// graph from a *different lineage* (a reload, a fresh build — epochs
/// restart) keeps results correct but permanently bypasses the cache;
/// call [`Self::clear`] when switching lineages.
///
/// A request whose entry exists and was built over the same answer list
/// is a hit; everything else is a miss. Under concurrency, two threads
/// missing on the same query both count a miss (both compute; one insert
/// wins).
///
/// ```
/// use kg_graph::{GraphBuilder, NodeKind};
/// use kg_serve::SnapshotServer;
///
/// let mut b = GraphBuilder::new();
/// let q = b.add_node("q", NodeKind::Query);
/// let h = b.add_node("h", NodeKind::Entity);
/// let a1 = b.add_node("a1", NodeKind::Answer);
/// let a2 = b.add_node("a2", NodeKind::Answer);
/// b.add_edge(q, h, 1.0).unwrap();
/// let e1 = b.add_edge(h, a1, 0.7).unwrap();
/// b.add_edge(h, a2, 0.3).unwrap();
/// let mut g = b.build();
///
/// let server = SnapshotServer::default();
/// let snap = g.publish();
/// let first = server.rank_at(&snap, q, &[a1, a2], 2);
/// assert_eq!(first[0].node, a1);
/// assert_eq!(server.rank_at(&snap, q, &[a1, a2], 2), first); // cache hit
/// assert_eq!(server.stats().hits, 1);
///
/// g.set_weight(e1, 0.1).unwrap(); // optimizer demotes a1
/// let after = server.rank_at(&g.publish(), q, &[a1, a2], 2); // evicted, recomputed
/// assert_eq!(after[0].node, a2);
/// assert_eq!(server.stats().invalidated, 1);
/// ```
#[derive(Debug)]
pub struct SnapshotServer {
    cfg: ServeConfig,
    shards: Box<[ArcCell<ShardCache>]>,
    stats: SharedServeStats,
    /// Last changed-edge extraction, shared across shards: every shard
    /// syncing over the same `(from, to]` epoch transition reuses one
    /// `changes_since` scan instead of paying `O(|E|)` each. Last writer
    /// wins; a lost race costs a redundant scan, never a wrong delta
    /// (the interval is part of the key, see [`WeightDelta::covers`]).
    delta_memo: ArcCell<WeightDelta>,
}

/// A memo value that can never satisfy [`WeightDelta::covers`] — real
/// sync intervals `(from, to]` always have `from < to`.
fn empty_memo() -> Arc<WeightDelta> {
    Arc::new(WeightDelta {
        from_version: u64::MAX,
        to_version: u64::MAX,
        edges: Vec::new(),
    })
}

impl Default for SnapshotServer {
    fn default() -> Self {
        SnapshotServer::new(ServeConfig::default())
    }
}

impl SnapshotServer {
    /// Creates an empty server with the given configuration
    /// (`cfg.shards` cache shards; `0` is treated as `1`).
    pub fn new(cfg: ServeConfig) -> Self {
        let n = cfg.shards.max(1);
        let shards = (0..n)
            .map(|_| ArcCell::new(Arc::new(ShardCache::default())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SnapshotServer {
            cfg,
            shards,
            stats: SharedServeStats::default(),
            delta_memo: ArcCell::new(empty_memo()),
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Cumulative cache counters (folded from the atomic counters; exact
    /// when no requests are in flight).
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// Number of queries currently cached across all shards.
    pub fn cached_queries(&self) -> usize {
        self.shards.iter().map(|s| s.load().entries.len()).sum()
    }

    /// Drops every cached ranking and rewinds every shard to epoch 0, so
    /// the cache can re-attach to a new graph lineage (counted as one
    /// full clear; request stats are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.store(Arc::new(ShardCache::default()));
        }
        // The memo is keyed by version interval only; a new lineage
        // restarts versions, so a stale memo could alias its intervals.
        self.delta_memo.store(empty_memo());
        self.stats.full_clear();
        if kg_telemetry::is_enabled() {
            kg_telemetry::counter("votekg.serve.full_clears").incr();
        }
    }

    fn shard_for(&self, query: NodeId) -> &ArcCell<ShardCache> {
        // Fibonacci hashing spreads consecutive node ids across shards.
        let h = (query.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// The changed-edge set covering `(from, snap.epoch()]`, shared
    /// across shards: a memo hit skips the `O(|E|)` stamp scan entirely.
    /// Computed outside any shard lock; concurrent callers over different
    /// intervals overwrite each other (last writer wins), which only
    /// costs the loser's scan.
    fn shared_delta(&self, snap: &GraphSnapshot, from: u64) -> Arc<WeightDelta> {
        let memo = self.delta_memo.load();
        if memo.covers(from, snap.epoch()) {
            if kg_telemetry::is_enabled() {
                kg_telemetry::counter("votekg.serve.delta_memo_hits").incr();
            }
            return memo;
        }
        let delta = Arc::new(snap.changes_since(from));
        self.delta_memo.store(Arc::clone(&delta));
        delta
    }

    /// Migrates one shard *forward* to `snap`'s epoch, evicting exactly
    /// the entries the intervening weight changes can affect (RCU
    /// republish; a no-op if another thread already migrated it at least
    /// that far — shards never move backwards).
    fn sync_shard(&self, cell: &ArcCell<ShardCache>, snap: &GraphSnapshot) {
        let target = snap.epoch();
        cell.update(|cache| {
            if cache.epoch >= target {
                return None; // lost the race to another reader — fine
            }
            let mut span = kg_telemetry::span!("votekg.serve.shard_sync", {
                from_epoch: cache.epoch,
                to_epoch: target,
            });
            let next = if cache.entries.is_empty() {
                ShardCache {
                    epoch: target,
                    entries: HashMap::new(),
                }
            } else {
                let delta = self.shared_delta(snap, cache.epoch);
                if delta.is_empty() {
                    ShardCache {
                        epoch: target,
                        entries: cache.entries.clone(),
                    }
                } else {
                    self.stats.dirty_sync();
                    let cached: Vec<NodeId> = cache.entries.keys().copied().collect();
                    let affected: HashSet<NodeId> =
                        affected_queries(snap, &delta.edges, &cached, &self.cfg.sim)
                            .into_iter()
                            .collect();
                    let mut entries: HashMap<NodeId, Arc<CacheEntry>> =
                        HashMap::with_capacity(cache.entries.len());
                    entries.extend(
                        cache
                            .entries
                            .iter()
                            .filter(|(q, _)| !affected.contains(q))
                            .map(|(q, e)| (*q, Arc::clone(e))),
                    );
                    let evicted = affected.len();
                    let retained = entries.len();
                    self.stats.invalidated(evicted as u64);
                    self.stats.retained(retained as u64);
                    span.field("changed_edges", delta.len());
                    span.field("invalidated", evicted);
                    span.field("retained", retained);
                    if kg_telemetry::is_enabled() {
                        kg_telemetry::counter("votekg.serve.invalidations").add(evicted as u64);
                        kg_telemetry::counter("votekg.serve.retained").add(retained as u64);
                        kg_telemetry::histogram("votekg.serve.delta_edges")
                            .record(delta.len() as u64);
                    }
                    ShardCache {
                        epoch: target,
                        entries,
                    }
                }
            };
            Some(Arc::new(next))
        });
    }

    /// Loads `query`'s shard, migrating it forward to `snap`'s epoch
    /// first when it lags. The returned cache can still be *ahead* of
    /// `snap` (the caller holds an old snapshot, or a concurrent reader
    /// raced the shard further forward) — callers must re-check the epoch
    /// before serving from it.
    fn shard_at(&self, cell: &ArcCell<ShardCache>, snap: &GraphSnapshot) -> Arc<ShardCache> {
        let cache = cell.load();
        if cache.epoch >= snap.epoch() {
            cache
        } else {
            self.sync_shard(cell, snap);
            cell.load()
        }
    }

    /// Ranks `answers` for `query` against `snap`, serving from cache
    /// when possible. Output is always identical to
    /// `kg_sim::rank_answers(&snap, query, answers, &cfg.sim, k)`.
    ///
    /// The cache-hit path takes no lock and is wait-free with respect to
    /// concurrent publishers and miss-fills.
    pub fn rank_at(
        &self,
        snap: &GraphSnapshot,
        query: NodeId,
        answers: &[NodeId],
        k: usize,
    ) -> Vec<RankedAnswer> {
        let epoch = snap.epoch();
        let cell = self.shard_for(query);
        let cache = self.shard_at(cell, snap);
        if cache.epoch == epoch {
            if let Some(entry) = cache.entries.get(&query) {
                if entry.answers == answers {
                    self.stats.hit();
                    if kg_telemetry::is_enabled() {
                        kg_telemetry::counter("votekg.serve.hits").incr();
                    }
                    return entry.ranking.iter().take(k).copied().collect();
                }
            }
        }
        self.stats.miss();
        if kg_telemetry::is_enabled() {
            kg_telemetry::counter("votekg.serve.misses").incr();
        }
        let mut full = Vec::with_capacity(answers.len());
        with_local_workspace(|ws| {
            ws.rank_into(
                snap,
                query,
                answers,
                &self.cfg.sim,
                answers.len(),
                &mut full,
            );
        });
        let out = full.iter().take(k).copied().collect();
        self.install(cell, epoch, query, answers.to_vec(), full);
        out
    }

    /// Publishes a freshly computed ranking into its shard — but only if
    /// the shard is still at the epoch it was computed for. A shard that
    /// moved on (newer snapshot published meanwhile) silently drops the
    /// fill: inserting would poison a newer-epoch cache, and the entry
    /// was about to be invalidated anyway.
    fn install(
        &self,
        cell: &ArcCell<ShardCache>,
        epoch: u64,
        query: NodeId,
        answers: Vec<NodeId>,
        ranking: Vec<RankedAnswer>,
    ) {
        let entry = Arc::new(CacheEntry { answers, ranking });
        cell.update(|cache| {
            if cache.epoch != epoch {
                return None;
            }
            let mut next = ShardCache {
                epoch: cache.epoch,
                entries: cache.entries.clone(),
            };
            next.entries.insert(query, entry);
            Some(Arc::new(next))
        });
    }

    /// Ranks a whole batch against `snap`, evaluating cache misses in
    /// parallel over the configured worker count. Results are in request
    /// order and per-request identical to [`Self::rank_at`]. Duplicate
    /// queries within one batch are deduplicated: the first occurrence
    /// computes, an identical repeat is a hit, and a repeat with a
    /// different answer list is computed separately (the last one wins
    /// the cache slot).
    pub fn rank_batch_at(
        &self,
        snap: &GraphSnapshot,
        requests: &[BatchQuery<'_>],
    ) -> Vec<Vec<RankedAnswer>> {
        let epoch = snap.epoch();
        let mut span = kg_telemetry::span!("votekg.serve.batch", {
            requests: requests.len(),
        });
        /// Where each request's ranking comes from.
        enum Source {
            /// Served from a cache entry captured at lookup time.
            Hit(Arc<CacheEntry>),
            /// Index into the computed-miss results.
            Computed(usize),
        }
        let mut sources: Vec<Source> = Vec::with_capacity(requests.len());
        let mut miss_requests: Vec<BatchQuery<'_>> = Vec::new();
        let mut miss_index: HashMap<NodeId, usize> = HashMap::new();
        for req in requests {
            let cell = self.shard_for(req.query);
            let cache = self.shard_at(cell, snap);
            let entry = (cache.epoch == epoch)
                .then(|| cache.entries.get(&req.query))
                .flatten()
                .filter(|e| e.answers == req.answers);
            if let Some(e) = entry {
                self.stats.hit();
                sources.push(Source::Hit(Arc::clone(e)));
            } else if let Some(&mi) = miss_index.get(&req.query) {
                if miss_requests[mi].answers == req.answers {
                    self.stats.hit();
                    sources.push(Source::Computed(mi));
                } else {
                    self.stats.miss();
                    miss_index.insert(req.query, miss_requests.len());
                    sources.push(Source::Computed(miss_requests.len()));
                    miss_requests.push(BatchQuery {
                        k: req.answers.len(),
                        ..*req
                    });
                }
            } else {
                self.stats.miss();
                miss_index.insert(req.query, miss_requests.len());
                sources.push(Source::Computed(miss_requests.len()));
                miss_requests.push(BatchQuery {
                    k: req.answers.len(),
                    ..*req
                });
            }
        }
        span.field("misses", miss_requests.len());
        if kg_telemetry::is_enabled() {
            kg_telemetry::counter("votekg.serve.batches").incr();
            kg_telemetry::histogram("votekg.serve.batch_misses").record(miss_requests.len() as u64);
        }
        let computed = rank_many(snap, &miss_requests, &self.cfg.sim, self.cfg.workers);
        for (req, ranking) in miss_requests.iter().zip(&computed) {
            self.install(
                self.shard_for(req.query),
                epoch,
                req.query,
                req.answers.to_vec(),
                ranking.clone(),
            );
        }
        sources
            .iter()
            .zip(requests)
            .map(|(src, req)| {
                let full = match src {
                    Source::Hit(e) => &e.ranking,
                    Source::Computed(mi) => &computed[*mi],
                };
                full.iter().take(req.k).copied().collect()
            })
            .collect()
    }
}

/// A cheap, cloneable reader handle: one [`SharedGraph`] publication
/// point plus one [`SnapshotServer`] cache. `Clone + Send + Sync`, so one
/// handle per reader thread is the intended usage.
///
/// Every call resolves the *current* snapshot first, so two successive
/// [`Self::rank`] calls may observe different epochs while an optimizer
/// publishes concurrently. [`Self::rank_snapshot`] returns the snapshot
/// actually used, which is what coherence checks want.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shared: Arc<SharedGraph>,
    server: Arc<SnapshotServer>,
}

impl ServeHandle {
    /// Creates a handle over an existing publication point and cache.
    pub fn new(shared: Arc<SharedGraph>, server: Arc<SnapshotServer>) -> Self {
        ServeHandle { shared, server }
    }

    /// The publication point this handle reads from.
    pub fn shared(&self) -> &Arc<SharedGraph> {
        &self.shared
    }

    /// The cache this handle serves through.
    pub fn server(&self) -> &Arc<SnapshotServer> {
        &self.server
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> GraphSnapshot {
        self.shared.snapshot()
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// Cumulative cache counters of the underlying server.
    pub fn stats(&self) -> ServeStats {
        self.server.stats()
    }

    /// Ranks against the currently published snapshot.
    pub fn rank(&self, query: NodeId, answers: &[NodeId], k: usize) -> Vec<RankedAnswer> {
        self.server
            .rank_at(&self.shared.snapshot(), query, answers, k)
    }

    /// Like [`Self::rank`], but also returns the snapshot the ranking was
    /// evaluated against, so callers can verify the result against an
    /// uncached evaluation of that exact graph state.
    pub fn rank_snapshot(
        &self,
        query: NodeId,
        answers: &[NodeId],
        k: usize,
    ) -> (GraphSnapshot, Vec<RankedAnswer>) {
        let snap = self.shared.snapshot();
        let ranking = self.server.rank_at(&snap, query, answers, k);
        (snap, ranking)
    }

    /// Ranks a whole batch against the currently published snapshot (one
    /// snapshot for the entire batch).
    pub fn rank_batch(&self, requests: &[BatchQuery<'_>]) -> Vec<Vec<RankedAnswer>> {
        self.server.rank_batch_at(&self.shared.snapshot(), requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_graph::{EdgeId, GraphBuilder, KnowledgeGraph, NodeKind};
    use kg_sim::rank_answers;
    use std::thread;

    /// Two independent regions behind one graph: changing region 0 must
    /// not evict region 1's cache entry.
    fn two_regions() -> (KnowledgeGraph, Vec<NodeId>, Vec<Vec<NodeId>>, Vec<EdgeId>) {
        let mut b = GraphBuilder::new();
        let mut queries = Vec::new();
        let mut answers = Vec::new();
        let mut hub_edges = Vec::new();
        for r in 0..2 {
            let q = b.add_node(format!("q{r}"), NodeKind::Query);
            let h = b.add_node(format!("h{r}"), NodeKind::Entity);
            let a1 = b.add_node(format!("a1_{r}"), NodeKind::Answer);
            let a2 = b.add_node(format!("a2_{r}"), NodeKind::Answer);
            b.add_edge(q, h, 1.0).unwrap();
            hub_edges.push(b.add_edge(h, a1, 0.7).unwrap());
            b.add_edge(h, a2, 0.3).unwrap();
            queries.push(q);
            answers.push(vec![a1, a2]);
        }
        (b.build(), queries, answers, hub_edges)
    }

    #[test]
    fn hit_after_miss_and_results_match_uncached() {
        let (g, queries, answers, _) = two_regions();
        let snap = g.publish();
        let s = SnapshotServer::default();
        let cfg = s.config().sim;
        let first = s.rank_at(&snap, queries[0], &answers[0], 2);
        let second = s.rank_at(&snap, queries[0], &answers[0], 2);
        assert_eq!(first, second);
        assert_eq!(first, rank_answers(&g, queries[0], &answers[0], &cfg, 2));
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn unrelated_change_keeps_entry_related_change_evicts() {
        let (mut g, queries, answers, hub_edges) = two_regions();
        let s = SnapshotServer::default();
        let snap = g.publish();
        s.rank_at(&snap, queries[0], &answers[0], 2);
        s.rank_at(&snap, queries[1], &answers[1], 2);
        assert_eq!(s.cached_queries(), 2);

        // Change region 1's hub edge: only q1 is affected, so only q1's
        // entry is evicted and recomputed.
        g.set_weight(hub_edges[1], 0.1).unwrap();
        let snap2 = g.publish();
        let cfg = s.config().sim;
        let r0 = s.rank_at(&snap2, queries[0], &answers[0], 2);
        let r1 = s.rank_at(&snap2, queries[1], &answers[1], 2);
        assert_eq!(r0, rank_answers(&g, queries[0], &answers[0], &cfg, 2));
        assert_eq!(r1, rank_answers(&g, queries[1], &answers[1], &cfg, 2));
        let stats = s.stats();
        assert_eq!(stats.invalidated, 1);
        assert_eq!(stats.repaired, 0);
        assert_eq!(stats.retained, 1);
        assert_eq!(stats.hits, 1, "q0 must survive the sync as a hit");
        assert_eq!(stats.misses, 3);
        assert_eq!(s.cached_queries(), 2);
    }

    /// Two shards syncing over the same epoch transition must share one
    /// `changes_since` extraction through the cross-shard memo.
    #[test]
    fn shards_share_one_delta_extraction() {
        kg_telemetry::enable();
        let (mut g, queries, answers, hub_edges) = two_regions();
        // Enough shards that the two queries land in different ones.
        let s = SnapshotServer::new(ServeConfig {
            shards: 16,
            ..Default::default()
        });
        let snap = g.publish();
        s.rank_at(&snap, queries[0], &answers[0], 2);
        s.rank_at(&snap, queries[1], &answers[1], 2);
        g.set_weight(hub_edges[0], 0.2).unwrap();
        g.set_weight(hub_edges[1], 0.4).unwrap();
        let snap2 = g.publish();
        let before = kg_telemetry::Snapshot::capture();
        s.rank_at(&snap2, queries[0], &answers[0], 2);
        s.rank_at(&snap2, queries[1], &answers[1], 2);
        let after = kg_telemetry::Snapshot::capture();
        let hits = |snap: &kg_telemetry::Snapshot| {
            snap.counters
                .iter()
                .find(|(k, _)| k == "votekg.serve.delta_memo_hits")
                .map_or(0, |(_, v)| *v)
        };
        assert!(
            hits(&after) > hits(&before),
            "second shard's sync must hit the delta memo"
        );
        assert_eq!(s.stats().invalidated, 2, "both entries evicted");
    }

    #[test]
    fn changed_answer_list_is_a_miss() {
        let (g, queries, answers, _) = two_regions();
        let snap = g.publish();
        let s = SnapshotServer::default();
        s.rank_at(&snap, queries[0], &answers[0], 2);
        let shorter = &answers[0][..1];
        let r = s.rank_at(&snap, queries[0], shorter, 1);
        assert_eq!(s.stats().misses, 2);
        assert_eq!(r.len(), 1);
        // And the shorter list is now the cached one.
        s.rank_at(&snap, queries[0], shorter, 1);
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn older_epoch_reads_bypass_the_cache_until_cleared() {
        let (mut g, queries, answers, hub_edges) = two_regions();
        g.set_weight(hub_edges[0], 0.6).unwrap();
        let snap = g.publish();
        let s = SnapshotServer::default();
        let newer = s.rank_at(&snap, queries[0], &answers[0], 2);
        // A fresh build of the same topology restarts at epoch 0: an
        // unknown lineage. Results stay correct (direct evaluation), the
        // shard is not rewound, and nothing of the old cache is served.
        let (g2, _, _, _) = two_regions();
        let snap2 = g2.publish();
        assert!(snap2.epoch() < snap.epoch());
        let cfg = s.config().sim;
        for _ in 0..2 {
            let r = s.rank_at(&snap2, queries[0], &answers[0], 2);
            assert_eq!(r, rank_answers(&g2, queries[0], &answers[0], &cfg, 2));
        }
        assert_eq!(s.stats().misses, 3, "bypassed reads never cache");
        // The newer snapshot's entry survived the stragglers.
        assert_eq!(s.rank_at(&snap, queries[0], &answers[0], 2), newer);
        assert_eq!(s.stats().hits, 1);
        // Re-attaching to the new lineage goes through clear().
        s.clear();
        assert_eq!(s.stats().full_clears, 1);
        s.rank_at(&snap2, queries[0], &answers[0], 2);
        s.rank_at(&snap2, queries[0], &answers[0], 2);
        assert_eq!(s.stats().hits, 2, "cache works again after clear");
    }

    #[test]
    fn batch_matches_singles_and_dedups_repeated_queries() {
        let (g, queries, answers, _) = two_regions();
        let snap = g.publish();
        let requests = vec![
            BatchQuery {
                query: queries[0],
                answers: &answers[0],
                k: 2,
            },
            BatchQuery {
                query: queries[1],
                answers: &answers[1],
                k: 1,
            },
            BatchQuery {
                query: queries[0],
                answers: &answers[0],
                k: 1,
            },
        ];
        for workers in [1, 4] {
            let s = SnapshotServer::new(ServeConfig {
                workers,
                ..Default::default()
            });
            let got = s.rank_batch_at(&snap, &requests);
            let cfg = s.config().sim;
            assert_eq!(got[0], rank_answers(&g, queries[0], &answers[0], &cfg, 2));
            assert_eq!(got[1], rank_answers(&g, queries[1], &answers[1], &cfg, 1));
            assert_eq!(got[2], rank_answers(&g, queries[0], &answers[0], &cfg, 1));
            // Two unique queries computed, the duplicate was a hit.
            assert_eq!(s.stats().misses, 2, "workers {workers}");
            assert_eq!(s.stats().hits, 1, "workers {workers}");
        }
    }

    #[test]
    fn stale_miss_fill_does_not_poison_a_newer_shard() {
        let (mut g, queries, answers, hub_edges) = two_regions();
        let s = SnapshotServer::new(ServeConfig {
            shards: 1, // force both epochs through the same shard
            ..Default::default()
        });
        let old_snap = g.publish();
        g.set_weight(hub_edges[0], 0.05).unwrap();
        let new_snap = g.publish();
        // A reader on the *new* snapshot migrates the shard forward...
        let new_r = s.rank_at(&new_snap, queries[0], &answers[0], 2);
        // ...then a straggler still holding the old snapshot computes.
        // Its fill must be dropped, not inserted into the newer shard.
        let old_r = s.rank_at(&old_snap, queries[0], &answers[0], 2);
        let cfg = s.config().sim;
        assert_eq!(
            old_r,
            rank_answers(&old_snap, queries[0], &answers[0], &cfg, 2)
        );
        assert_ne!(old_r, new_r, "the weight change must reorder the answers");
        // The shard still serves the new snapshot's ranking, not the
        // straggler's.
        assert_eq!(s.rank_at(&new_snap, queries[0], &answers[0], 2), new_r);
        assert_eq!(s.stats().hits, 1);
    }

    /// Readers hammer a shared server while a writer keeps publishing;
    /// every ranking must match an uncached evaluation of the snapshot it
    /// was served from. (The root-level stress suite runs a bigger
    /// version of this; this one keeps the crate self-checking.)
    #[test]
    fn concurrent_readers_stay_coherent_under_publishing() {
        let (g, queries, answers, hub_edges) = two_regions();
        let shared = Arc::new(SharedGraph::new(g.clone()));
        let server = Arc::new(SnapshotServer::new(ServeConfig {
            shards: 2,
            ..Default::default()
        }));
        let handle = ServeHandle::new(shared.clone(), server);
        let cfg = handle.server().config().sim;

        thread::scope(|scope| {
            for t in 0..4 {
                let handle = handle.clone();
                let queries = &queries;
                let answers = &answers;
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    for i in 0..200 {
                        let r = (t + i) % queries.len();
                        let (snap, ranking) = handle.rank_snapshot(queries[r], &answers[r], 2);
                        assert!(snap.epoch() >= last_epoch, "epochs ran backwards");
                        last_epoch = snap.epoch();
                        assert_eq!(
                            ranking,
                            rank_answers(&snap, queries[r], &answers[r], &cfg, 2),
                            "epoch {} query {r}",
                            snap.epoch()
                        );
                    }
                });
            }
            let mut writer_graph = g.clone();
            for i in 0..100 {
                let w = 0.05 + 0.9 * ((i % 10) as f64) / 10.0;
                writer_graph.set_weight(hub_edges[i % 2], w).unwrap();
                shared.publish(&writer_graph);
            }
        });

        // Quiescent: one more read per query must match the final graph.
        let final_snap = handle.snapshot();
        for r in 0..queries.len() {
            assert_eq!(
                handle.rank(queries[r], &answers[r], 2),
                rank_answers(&final_snap, queries[r], &answers[r], &cfg, 2)
            );
        }
    }

    #[test]
    fn k_larger_than_answers_returns_all_and_clear_forces_recompute() {
        let (g, queries, answers, _) = two_regions();
        let snap = g.publish();
        let s = SnapshotServer::default();
        let r = s.rank_at(&snap, queries[0], &answers[0], 10);
        assert_eq!(r.len(), answers[0].len());
        s.clear();
        assert_eq!(s.cached_queries(), 0);
        s.rank_at(&snap, queries[0], &answers[0], 2);
        assert_eq!(s.stats().misses, 2);
    }
}
