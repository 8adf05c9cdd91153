//! Snapshot serving: concurrent reads under live optimization.
//!
//! [`SnapshotServer`] is the serving layer's one ranking cache:
//!
//! * Readers rank against an immutable, epoch-stamped
//!   [`GraphSnapshot`](kg_graph::GraphSnapshot); the writer mutates a
//!   private graph and publishes via
//!   [`SharedGraph::publish`](kg_graph::SharedGraph::publish), a pointer
//!   swap in an [`ArcCell`](kg_graph::ArcCell).
//! * The whole cache is one immutable state behind an `ArcCell`: the
//!   epoch every entry is valid for, and the entries split over a fixed
//!   number of small maps. The read fast path is: load the snapshot,
//!   load the cache, hash-lookup, copy the ranking out. Each load waits
//!   at most for one pointer swap; no reader ever waits for a writer's
//!   work.
//! * Cache maintenance is RCU: [`SnapshotServer::advance`] and miss-fills
//!   build a *new* state and publish it with
//!   [`ArcCell::update`](kg_graph::ArcCell); a fill clones only the maps
//!   it touches, and concurrent readers keep the old state until their
//!   next load.
//!
//! Coherence does not depend on winning races. A cached ranking is served
//! only when the cache's epoch equals the epoch of the snapshot being
//! ranked against, and within one graph lineage equal epochs imply
//! identical weights (every effective change bumps the version). A lost
//! cache update therefore costs a recomputation, never a wrong answer —
//! the stress suite in `tests/concurrent_serving.rs` checks every result
//! byte-for-byte against an uncached evaluation at its reported epoch.
//!
//! One advance per publish moves the cache forward: one
//! [`changes_since`](kg_graph::KnowledgeGraph::changes_since), one
//! [`kg_sim::affected_queries`] over every cached query, one republish
//! that evicts exactly the queries the changed edges can reach. The next
//! read of an evicted query recomputes it on a warm
//! [`kg_sim::PhiWorkspace`].

use crate::stats::{ServeStats, SharedServeStats};
use kg_graph::{ArcCell, GraphSnapshot, NodeId, SharedGraph};
use kg_sim::{
    affected_queries, rank_many, with_local_workspace, BatchQuery, RankedAnswer, SimilarityConfig,
};
use std::collections::HashMap;
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sim: SimilarityConfig::default(),
            workers: 1,
        }
    }
}

/// Number of maps the cached entries are split over, so a miss-fill
/// clones one small map instead of every entry's key.
const MAPS: usize = 16;

/// The map a query's entry lives in. Fibonacci hashing spreads
/// consecutive node ids across maps.
fn map_of(query: NodeId) -> usize {
    let h = (query.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 32) as usize % MAPS
}

#[derive(Debug)]
struct CacheEntry {
    /// The answer list the ranking was computed over (request order).
    answers: Vec<NodeId>,
    /// Full ranking over `answers` (`k = answers.len()`), so any request
    /// with `k <= answers.len()` is served by truncation.
    ranking: Vec<RankedAnswer>,
}

/// The cache's one published state, immutable once published. Maps and
/// entries are `Arc`-shared, so a republish with entries added or removed
/// clones only the maps it touches, and never a ranking.
#[derive(Debug, Clone, Default)]
struct CacheState {
    /// Snapshot epoch every entry is valid for.
    epoch: u64,
    maps: [Arc<HashMap<NodeId, Arc<CacheEntry>>>; MAPS],
}

impl CacheState {
    fn get(&self, query: NodeId) -> Option<&Arc<CacheEntry>> {
        self.maps[map_of(query)].get(&query)
    }
}

/// A multi-reader ranking cache over published [`GraphSnapshot`]s.
///
/// Shared by reference (`&self` everywhere): wrap it in an [`Arc`] and
/// hand clones to any number of reader threads. The cache is stamped with
/// the snapshot epoch its entries are valid for. [`Self::advance`] moves
/// it to a newer snapshot —
/// [`changes_since`](kg_graph::KnowledgeGraph::changes_since) pulls the
/// edges that moved, [`kg_sim::affected_queries`] proves which cached
/// queries they can reach, and only those are dropped. A writer calls it
/// once per publish, before readers can see the new snapshot; a reader
/// that arrives with a newer snapshot than the cache calls it itself.
///
/// The cache only ever moves *forward*: a reader still holding an older
/// snapshot while newer ones are being published — the normal case under
/// live optimization — is served by direct evaluation of its snapshot
/// (a miss, never cached) instead of rewinding the cache and thrashing
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
/// let next = g.publish();
/// server.advance(&next); // the writer moves the cache: q is evicted
/// assert_eq!(server.stats().invalidated, 1);
/// let after = server.rank_at(&next, q, &[a1, a2], 2); // recomputed
/// assert_eq!(after[0].node, a2);
/// ```
#[derive(Debug)]
pub struct SnapshotServer {
    cfg: ServeConfig,
    cache: ArcCell<CacheState>,
    stats: SharedServeStats,
}

impl Default for SnapshotServer {
    fn default() -> Self {
        SnapshotServer::new(ServeConfig::default())
    }
}

impl SnapshotServer {
    /// Creates an empty server with the given configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        SnapshotServer {
            cfg,
            cache: ArcCell::new(Arc::default()),
            stats: SharedServeStats::default(),
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

    /// Number of queries currently cached.
    pub fn cached_queries(&self) -> usize {
        self.cache.load().maps.iter().map(|m| m.len()).sum()
    }

    /// Drops every cached ranking and rewinds the cache to epoch 0, so it
    /// can re-attach to a new graph lineage (counted as one full clear;
    /// request stats are kept).
    pub fn clear(&self) {
        self.cache.store(Arc::default());
        self.stats.full_clear();
        if kg_telemetry::is_enabled() {
            kg_telemetry::counter("votekg.serve.full_clears").incr();
        }
    }

    /// Moves the cache *forward* to `snap`'s epoch, evicting exactly the
    /// cached queries the intervening weight changes can reach: one
    /// `changes_since`, one `affected_queries` over every cached query,
    /// one republish. A no-op when the cache is already at that epoch or
    /// beyond — the cache never moves backwards.
    ///
    /// A writer calls this once per publish, before the new snapshot
    /// becomes visible, so its readers never pay for it. Reads call it
    /// too, when they hold a newer snapshot than the cache.
    pub fn advance(&self, snap: &GraphSnapshot) {
        let target = snap.epoch();
        self.cache.update(|cache| {
            if cache.epoch >= target {
                return None; // already there, e.g. moved by another reader
            }
            let mut span = kg_telemetry::span!("votekg.serve.advance", {
                from_epoch: cache.epoch,
                to_epoch: target,
            });
            let mut next = CacheState {
                epoch: target,
                maps: cache.maps.clone(),
            };
            let cached: Vec<NodeId> = cache.maps.iter().flat_map(|m| m.keys().copied()).collect();
            if cached.is_empty() {
                return Some(Arc::new(next));
            }
            let delta = snap.changes_since(cache.epoch);
            if delta.is_empty() {
                return Some(Arc::new(next));
            }
            self.stats.dirty_sync();
            let affected = affected_queries(snap, &delta.edges, &cached, &self.cfg.sim);
            for &q in &affected {
                Arc::make_mut(&mut next.maps[map_of(q)]).remove(&q);
            }
            let evicted = affected.len();
            let retained = cached.len() - evicted;
            self.stats.invalidated(evicted as u64);
            self.stats.retained(retained as u64);
            span.field("changed_edges", delta.len());
            span.field("invalidated", evicted);
            span.field("retained", retained);
            if kg_telemetry::is_enabled() {
                kg_telemetry::counter("votekg.serve.invalidations").add(evicted as u64);
                kg_telemetry::counter("votekg.serve.retained").add(retained as u64);
                kg_telemetry::histogram("votekg.serve.delta_edges").record(delta.len() as u64);
            }
            Some(Arc::new(next))
        });
    }

    /// Loads the cache, advancing it to `snap`'s epoch first when it
    /// lags. The returned cache can still be *ahead* of `snap` (the
    /// caller holds an old snapshot) — callers must re-check the epoch
    /// before serving from it.
    fn cache_at(&self, snap: &GraphSnapshot) -> Arc<CacheState> {
        let cache = self.cache.load();
        if cache.epoch >= snap.epoch() {
            return cache;
        }
        self.advance(snap);
        self.cache.load()
    }

    /// Ranks `answers` for `query` against `snap`, serving from cache
    /// when possible. Output is always identical to
    /// `kg_sim::rank_answers(&snap, query, answers, &cfg.sim, k)`.
    ///
    /// A cache hit is one cache load and one hash lookup; it waits at
    /// most for one pointer swap of a concurrent publish or miss-fill.
    pub fn rank_at(
        &self,
        snap: &GraphSnapshot,
        query: NodeId,
        answers: &[NodeId],
        k: usize,
    ) -> Vec<RankedAnswer> {
        let epoch = snap.epoch();
        let cache = self.cache_at(snap);
        if cache.epoch == epoch {
            if let Some(entry) = cache.get(query) {
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
        self.install(epoch, [(query, answers.to_vec(), full)]);
        out
    }

    /// Publishes freshly computed rankings in one republish — but only if
    /// the cache is still at the epoch they were computed for. A cache
    /// that moved on (newer snapshot published meanwhile) silently drops
    /// the fills: inserting would poison a newer-epoch cache, and the
    /// entries were about to be invalidated anyway. Later fills of the
    /// same query win.
    fn install(
        &self,
        epoch: u64,
        fills: impl IntoIterator<Item = (NodeId, Vec<NodeId>, Vec<RankedAnswer>)>,
    ) {
        self.cache.update(|cache| {
            if cache.epoch != epoch {
                return None;
            }
            let mut next = cache.clone();
            for (query, answers, ranking) in fills {
                Arc::make_mut(&mut next.maps[map_of(query)])
                    .insert(query, Arc::new(CacheEntry { answers, ranking }));
            }
            Some(Arc::new(next))
        });
    }

    /// Ranks a whole batch against `snap`, evaluating cache misses in
    /// parallel over the configured worker count and installing them in
    /// one republish. Results are in request order and per-request
    /// identical to [`Self::rank_at`]. Duplicate queries within one
    /// batch are deduplicated: the first occurrence computes, an
    /// identical repeat is a hit, and a repeat with a different answer
    /// list is computed separately (the last one wins the cache slot).
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
        let cache = self.cache_at(snap);
        let mut sources: Vec<Source> = Vec::with_capacity(requests.len());
        let mut miss_requests: Vec<BatchQuery<'_>> = Vec::new();
        let mut miss_index: HashMap<NodeId, usize> = HashMap::new();
        for req in requests {
            let entry = (cache.epoch == epoch)
                .then(|| cache.get(req.query))
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
        if !computed.is_empty() {
            self.install(
                epoch,
                miss_requests
                    .iter()
                    .zip(&computed)
                    .map(|(req, ranking)| (req.query, req.answers.to_vec(), ranking.clone())),
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

    /// One publish whose changed edges reach cached queries in different
    /// maps is one advance: one dirty sync, however many maps it touches
    /// and however many readers arrive with the new snapshot.
    #[test]
    fn one_publish_is_one_dirty_sync_across_maps() {
        let (mut g, queries, answers, hub_edges) = two_regions();
        assert_ne!(map_of(queries[0]), map_of(queries[1]));
        let s = SnapshotServer::default();
        let snap = g.publish();
        s.rank_at(&snap, queries[0], &answers[0], 2);
        s.rank_at(&snap, queries[1], &answers[1], 2);
        g.set_weight(hub_edges[0], 0.2).unwrap();
        g.set_weight(hub_edges[1], 0.4).unwrap();
        let snap2 = g.publish();
        s.rank_at(&snap2, queries[0], &answers[0], 2);
        s.rank_at(&snap2, queries[1], &answers[1], 2);
        let stats = s.stats();
        assert_eq!(stats.dirty_syncs, 1, "one advance for the publish");
        assert_eq!(stats.invalidated, 2, "both entries evicted");
        assert_eq!(stats.misses, 4);
        // A writer-side advance leaves nothing for the readers to do.
        g.set_weight(hub_edges[0], 0.6).unwrap();
        let snap3 = g.publish();
        s.advance(&snap3);
        assert_eq!(s.stats().dirty_syncs, 2);
        assert_eq!(s.stats().invalidated, 3, "only q0 is reachable");
        s.rank_at(&snap3, queries[0], &answers[0], 2);
        s.rank_at(&snap3, queries[1], &answers[1], 2);
        assert_eq!(s.stats().dirty_syncs, 2, "readers never sync");
        assert_eq!(s.stats().hits, 1, "q1 survived the advance");
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
        // cache is not rewound, and nothing of the old cache is served.
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
    fn stale_miss_fill_does_not_poison_a_newer_cache() {
        let (mut g, queries, answers, hub_edges) = two_regions();
        let s = SnapshotServer::default();
        let old_snap = g.publish();
        g.set_weight(hub_edges[0], 0.05).unwrap();
        let new_snap = g.publish();
        // A reader on the *new* snapshot moves the cache forward...
        let new_r = s.rank_at(&new_snap, queries[0], &answers[0], 2);
        // ...then a straggler still holding the old snapshot computes.
        // Its fill must be dropped, not inserted into the newer cache.
        let old_r = s.rank_at(&old_snap, queries[0], &answers[0], 2);
        let cfg = s.config().sim;
        assert_eq!(
            old_r,
            rank_answers(&old_snap, queries[0], &answers[0], &cfg, 2)
        );
        assert_ne!(old_r, new_r, "the weight change must reorder the answers");
        // The cache still serves the new snapshot's ranking, not the
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
        let server = Arc::new(SnapshotServer::default());
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
            // Odd rounds move the cache on the writer before the publish
            // (as the framework does); even rounds leave it to readers.
            let mut writer_graph = g.clone();
            for i in 0..100 {
                let w = 0.05 + 0.9 * ((i % 10) as f64) / 10.0;
                writer_graph.set_weight(hub_edges[i % 2], w).unwrap();
                let snap = writer_graph.publish();
                if i % 2 == 1 {
                    handle.server().advance(&snap);
                }
                shared.store(&snap);
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
