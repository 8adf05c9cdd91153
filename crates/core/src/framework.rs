//! The interactive optimization framework (Fig. 1 of the paper): rank →
//! collect votes → optimize → rank better next time.

use crate::durable::{Durability, DurableOptions, RecoveryReport};
use kg_cluster::{solve_split_merge, SplitMergeOptions, SplitMergeReport};
use kg_graph::{GraphSnapshot, KnowledgeGraph, NodeId, SharedGraph, WeightSnapshot};
use kg_serve::{ServeConfig, ServeHandle, ServeStats, SnapshotServer};
use kg_sim::topk::RankedAnswer;
use kg_sim::{BatchQuery, SimilarityConfig};
use kg_votes::wal::WalError;
use kg_votes::{
    solve_multi_votes, solve_single_votes, MultiVoteOptions, OptimizationReport, SingleVoteOptions,
    Vote, VoteKind, VoteSet,
};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// Which optimization pipeline [`Framework::optimize`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Algorithm 1: greedy, one SGP program per negative vote.
    SingleVote,
    /// Section V: one batch SGP over all votes, conflicts handled by the
    /// sigmoid violation counter.
    MultiVote,
    /// Section VI: affinity-propagation split, per-cluster multi-vote
    /// solves, voting merge.
    SplitMerge,
}

/// Configuration of a [`Framework`].
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct FrameworkConfig {
    /// Single-vote pipeline options.
    pub single: SingleVoteOptions,
    /// Multi-vote pipeline options.
    pub multi: MultiVoteOptions,
    /// Split-and-merge pipeline options.
    pub split_merge: SplitMergeOptions,
    /// Collapse repeated votes on the same question into majority
    /// verdicts before optimizing (see [`kg_votes::aggregate_votes`]).
    pub aggregate: bool,
}

impl Strategy {
    /// Stable lowercase name, used as the telemetry label.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::SingleVote => "single",
            Strategy::MultiVote => "multi",
            Strategy::SplitMerge => "split_merge",
        }
    }
}

impl FrameworkConfig {
    /// The similarity parameters used for ranking (taken from the
    /// multi-vote encoding, which all pipelines share by default).
    pub fn sim(&self) -> SimilarityConfig {
        self.multi.encode.sim
    }

    /// Sets one wall-clock budget on every pipeline's solves (`None`
    /// removes it). A solve hitting the budget stops early and applies
    /// its best iterate so far, reported as
    /// [`kg_votes::SolveOutcome::TimedOut`].
    pub fn set_solve_timeout(&mut self, budget: Option<std::time::Duration>) {
        self.single.solve.time_budget = budget;
        self.multi.solve.time_budget = budget;
        self.split_merge.multi.solve.time_budget = budget;
    }
}

/// The interactive framework: owns the (augmented) knowledge graph and a
/// buffer of pending votes.
///
/// # Concurrency model
///
/// The framework is the single *writer*: optimization mutates its private
/// [`KnowledgeGraph`] and publishes the finished state as an immutable,
/// epoch-stamped [`GraphSnapshot`] through a [`SharedGraph`]. Reads —
/// [`Self::rank`], [`Self::rank_batch`], and every [`ServeHandle`]
/// obtained from [`Self::handle`] — evaluate against the latest published
/// snapshot via a [`SnapshotServer`] cache, so any number of reader
/// threads serve concurrently while an optimization round runs. The
/// writer moves the cache to each new snapshot before publishing it, so
/// readers never pay for the refresh, and a read waits at most for one
/// pointer swap.
#[derive(Debug)]
pub struct Framework {
    graph: KnowledgeGraph,
    config: FrameworkConfig,
    pending: VoteSet,
    /// Snapshot of the weights before the most recent optimize call.
    last_snapshot: Option<WeightSnapshot>,
    /// Publication point between this writer and concurrent readers.
    shared: Arc<SharedGraph>,
    /// Ranking cache over published snapshots, advanced by every publish.
    server: Arc<SnapshotServer>,
    /// Vote WAL + snapshot checkpointing, when opened via
    /// [`Self::open_durable`]. `None` keeps every entry point infallible,
    /// exactly as before durability existed.
    durability: Option<Durability>,
}

impl Clone for Framework {
    fn clone(&self) -> Self {
        // The clone gets its own publication point and an empty cache:
        // sharing either would let one clone's optimization rounds
        // invalidate (or serve!) the other's rankings.
        Framework {
            graph: self.graph.clone(),
            config: self.config.clone(),
            pending: self.pending.clone(),
            last_snapshot: self.last_snapshot.clone(),
            shared: Arc::new(SharedGraph::new(self.graph.clone())),
            server: Arc::new(SnapshotServer::new(*self.server.config())),
            // Two frameworks appending to one WAL would interleave their
            // rounds into a single unreplayable history: the clone is
            // in-memory only until it opens its own durable directory.
            durability: None,
        }
    }
}

impl Framework {
    /// Wraps an augmented knowledge graph.
    pub fn new(graph: KnowledgeGraph, config: FrameworkConfig) -> Self {
        let serve_cfg = ServeConfig {
            sim: config.sim(),
            ..Default::default()
        };
        let shared = Arc::new(SharedGraph::new(graph.clone()));
        Framework {
            graph,
            config,
            pending: VoteSet::new(),
            last_snapshot: None,
            shared,
            server: Arc::new(SnapshotServer::new(serve_cfg)),
            durability: None,
        }
    }

    /// Opens a crash-recoverable framework over the durable directory
    /// `dir`: loads the newest valid graph snapshot (falling back to the
    /// supplied `graph` when none exists), replays the WAL tail onto it
    /// — bit-identical to the pre-crash weights — restores the pending
    /// vote queue, and arms WAL logging for every subsequent
    /// `record_vote` / `optimize` call. An empty or missing directory
    /// simply starts a fresh durable history.
    ///
    /// `graph` must have the topology the directory was recorded against
    /// (weights are irrelevant — they are recovered); a different graph
    /// is rejected with [`WalError::GraphMismatch`].
    pub fn open_durable(
        dir: &Path,
        mut graph: KnowledgeGraph,
        config: FrameworkConfig,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), WalError> {
        let (durability, report, pending) = Durability::open(dir, &mut graph, opts)?;
        let mut fw = Framework::new(graph, config);
        fw.pending = pending;
        fw.durability = Some(durability);
        Ok((fw, report))
    }

    /// True when this framework writes a WAL (opened via
    /// [`Self::open_durable`]).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable directory, when [`Self::is_durable`].
    pub fn durable_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir())
    }

    /// Forces a checkpoint now: snapshot the current graph to disk,
    /// compact the WAL down to the pending votes, prune old snapshots.
    /// Returns the snapshotted version, or `None` without durability.
    pub fn checkpoint(&mut self) -> Result<Option<u64>, WalError> {
        match self.durability.as_mut() {
            Some(d) => {
                d.checkpoint(&self.graph, &self.pending)?;
                Ok(Some(self.graph.version()))
            }
            None => Ok(None),
        }
    }

    /// Flushes buffered WAL vote appends to disk without committing a
    /// round. No-op without durability.
    pub fn sync_wal(&mut self) -> Result<(), WalError> {
        match self.durability.as_mut() {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Commits the current round to the WAL when durability is armed.
    fn commit_if_durable(&mut self, votes_consumed: usize) -> Result<(), WalError> {
        match self.durability.as_mut() {
            Some(d) => d.commit(&self.graph, &self.pending, votes_consumed),
            None => Ok(()),
        }
    }

    /// Renders a WAL failure for the infallible entry points. Only
    /// reachable when durability is armed — without it the durable hooks
    /// are no-ops — so the panic message points at the `_durable` API.
    fn wal_panic(e: WalError) -> ! {
        panic!(
            "vote WAL write failed: {e}; call the *_durable variant of this method to \
             handle durability errors instead of panicking"
        )
    }

    /// Sets the worker-thread count the serving cache uses for batched
    /// re-ranking (1 = inline). Results are identical for any value.
    /// Rebuilds the cache, so call it before handing out [`Self::handle`]s.
    pub fn with_serve_workers(mut self, workers: usize) -> Self {
        let cfg = ServeConfig {
            workers,
            ..*self.server.config()
        };
        self.server = Arc::new(SnapshotServer::new(cfg));
        self
    }

    /// Publishes the graph's current state if it is newer than the last
    /// published snapshot, and returns the up-to-date snapshot. Reads go
    /// through this, so single-threaded callers always observe their own
    /// [`Self::graph_mut`] edits, exactly as before snapshotting existed.
    ///
    /// The serving cache advances to the new snapshot *before* it becomes
    /// visible: the writer pays the one eviction pass, and no reader ever
    /// meets a snapshot newer than the cache.
    fn published(&self) -> GraphSnapshot {
        let snap = self.shared.snapshot();
        if snap.epoch() == self.graph.version() {
            return snap;
        }
        let next = self.graph.publish();
        self.server.advance(&next);
        self.shared.store(&next);
        next
    }

    /// Makes the graph's current state visible to every [`ServeHandle`]
    /// and returns the published snapshot. Optimization entry points call
    /// this at their consistency points; it only matters to call it
    /// manually after direct [`Self::graph_mut`] edits that concurrent
    /// readers should observe.
    pub fn publish(&self) -> GraphSnapshot {
        self.published()
    }

    /// A cheap, cloneable, `Send + Sync` reader handle over this
    /// framework's published snapshots and serving cache: hand one clone
    /// to each reader thread and they serve concurrently while the
    /// framework keeps optimizing; a read waits at most for one pointer
    /// swap, and never for a round or a cache refresh.
    ///
    /// Handles observe state as of the last [`Self::publish`] (every
    /// optimization entry point publishes when it finishes a batch).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle::new(Arc::clone(&self.shared), Arc::clone(&self.server))
    }

    /// The current graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Mutable access to the graph (e.g. for external weight edits).
    pub fn graph_mut(&mut self) -> &mut KnowledgeGraph {
        &mut self.graph
    }

    /// The configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    /// Ranks `answers` for `query`, returning the top `k`.
    ///
    /// Served through the framework's [`SnapshotServer`]: repeated
    /// requests between weight changes hit the cache (no lock taken), and
    /// after an optimization round only the queries the changed edges can
    /// reach are recomputed. Output is always identical to an uncached
    /// [`kg_sim::rank_answers`] call on the current graph.
    pub fn rank(&self, query: NodeId, answers: &[NodeId], k: usize) -> Vec<RankedAnswer> {
        self.server.rank_at(&self.published(), query, answers, k)
    }

    /// Ranks a whole batch of requests through the serving cache, with
    /// misses evaluated in parallel over the configured serve workers.
    pub fn rank_batch(&self, requests: &[BatchQuery<'_>]) -> Vec<Vec<RankedAnswer>> {
        self.server.rank_batch_at(&self.published(), requests)
    }

    /// Cumulative cache counters of the serving layer.
    pub fn serve_stats(&self) -> ServeStats {
        self.server.stats()
    }

    /// Buffers a user vote; returns its kind.
    ///
    /// Panics when the framework is durable and the WAL append fails —
    /// use [`Self::record_vote_durable`] to handle that error.
    pub fn record_vote(&mut self, vote: Vote) -> VoteKind {
        match self.record_vote_durable(vote) {
            Ok(kind) => kind,
            Err(e) => Self::wal_panic(e),
        }
    }

    /// Buffers a user vote, appending it to the WAL first when durable.
    /// The append is buffered; it reaches disk at the next committed
    /// round or [`Self::sync_wal`] call.
    pub fn record_vote_durable(&mut self, vote: Vote) -> Result<VoteKind, WalError> {
        if let Some(d) = self.durability.as_mut() {
            d.append_vote(&vote)?;
        }
        let kind = vote.kind();
        self.pending.push(vote);
        Ok(kind)
    }

    /// Builds and buffers a vote from a ranked list the framework
    /// previously returned plus the user's chosen best answer.
    pub fn record_feedback(
        &mut self,
        query: NodeId,
        ranked: &[RankedAnswer],
        chosen: NodeId,
    ) -> VoteKind {
        let answers: Vec<NodeId> = ranked.iter().map(|r| r.node).collect();
        self.record_vote(Vote::new(query, answers, chosen))
    }

    /// Votes buffered since the last optimization.
    pub fn pending_votes(&self) -> &VoteSet {
        &self.pending
    }

    /// Runs the chosen pipeline over the pending votes (draining them)
    /// and returns the rank outcomes. With `config.aggregate` set,
    /// repeated votes on the same question are first collapsed into
    /// majority verdicts; outcomes then refer to the aggregated votes.
    ///
    /// Panics when the framework is durable and the round's WAL commit
    /// fails — use [`Self::optimize_durable`] to handle that error.
    pub fn optimize(&mut self, strategy: Strategy) -> OptimizationReport {
        match self.optimize_durable(strategy) {
            Ok(report) => report,
            Err(e) => Self::wal_panic(e),
        }
    }

    /// [`Self::optimize`] with the round's WAL commit (weight deltas +
    /// checksum, fsynced) surfaced as a `Result`. On a durable framework
    /// the round is recoverable once this returns `Ok`.
    pub fn optimize_durable(&mut self, strategy: Strategy) -> Result<OptimizationReport, WalError> {
        let raw_votes = self.pending.len();
        let mut votes = std::mem::take(&mut self.pending);
        if self.config.aggregate {
            votes = kg_votes::aggregate_votes(&votes).0;
        }
        let mut round = kg_telemetry::span!("votekg.framework.round", {
            strategy: strategy.as_str(),
            raw_votes: raw_votes,
            votes: votes.len(),
        });
        self.last_snapshot = Some(WeightSnapshot::capture(&self.graph));
        let report = match strategy {
            Strategy::SingleVote => {
                solve_single_votes(&mut self.graph, &votes, &self.config.single)
            }
            Strategy::MultiVote => solve_multi_votes(&mut self.graph, &votes, &self.config.multi),
            Strategy::SplitMerge => {
                solve_split_merge(&mut self.graph, &votes, &self.config.split_merge).report
            }
        };
        self.record_round(strategy, &mut round, &report);
        {
            let _phase = kg_telemetry::span!("votekg.framework.publish");
            self.published();
        }
        self.commit_if_durable(raw_votes)?;
        Ok(report)
    }

    /// Like [`Self::optimize`] with [`Strategy::SplitMerge`], but returns
    /// the full split-and-merge report (clusters, timings, conflicts).
    ///
    /// Panics when the framework is durable and the round's WAL commit
    /// fails.
    pub fn optimize_split_merge(&mut self) -> SplitMergeReport {
        let raw_votes = self.pending.len();
        let votes = std::mem::take(&mut self.pending);
        self.last_snapshot = Some(WeightSnapshot::capture(&self.graph));
        let report = solve_split_merge(&mut self.graph, &votes, &self.config.split_merge);
        self.published();
        if let Err(e) = self.commit_if_durable(raw_votes) {
            Self::wal_panic(e);
        }
        report
    }

    /// Incremental operation: optimizes the pending votes in arrival-order
    /// batches of at most `batch_size`, re-ranking between batches — the
    /// deployment mode where feedback trickles in continuously and waiting
    /// for a large batch is not acceptable. Returns one report per batch.
    ///
    /// Between batches the serving cache is refreshed *selectively*: each
    /// batch's publish evicts only the cached queries its changed edges
    /// can reach (within `L − 1` hops), and the graph's
    /// [`kg_graph::WeightDelta`] since the batch started is fed to
    /// [`kg_sim::affected_queries`] to re-rank the voted queries those
    /// edges can reach — through [`Self::rank_batch`], so concurrent
    /// readers of the framework see warm, current rankings the whole time.
    ///
    /// Compared to one big [`Self::optimize`] call, smaller batches trade
    /// some conflict-resolution quality (conflicts spanning batches are
    /// resolved greedily, like the single-vote solution's order bias) for
    /// much smaller SGP programs.
    ///
    /// Panics when the framework is durable and a batch's WAL commit
    /// fails — use [`Self::optimize_incremental_durable`] to handle that
    /// error.
    pub fn optimize_incremental(
        &mut self,
        strategy: Strategy,
        batch_size: usize,
    ) -> Vec<OptimizationReport> {
        match self.optimize_incremental_durable(strategy, batch_size) {
            Ok(reports) => reports,
            Err(e) => Self::wal_panic(e),
        }
    }

    /// [`Self::optimize_incremental`] with WAL commits surfaced as a
    /// `Result`. On a durable framework each batch is committed (and
    /// fsynced) individually as soon as it publishes, so a crash between
    /// batches loses nothing: finished batches replay from the WAL,
    /// unprocessed votes are restored to the pending queue.
    pub fn optimize_incremental_durable(
        &mut self,
        strategy: Strategy,
        batch_size: usize,
    ) -> Result<Vec<OptimizationReport>, WalError> {
        assert!(batch_size > 0, "batch size must be positive");
        self.last_snapshot = Some(WeightSnapshot::capture(&self.graph));
        // Distinct voted questions, in arrival order: the re-rank universe.
        let mut questions: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for v in &self.pending.votes {
            if !questions.iter().any(|(q, _)| *q == v.query) {
                questions.push((v.query, v.answers.clone()));
            }
        }
        let sim = self.config.sim();
        let mut reports = Vec::new();
        // Batches drain the pending queue one chunk at a time (rather than
        // taking it wholesale up front) so `self.pending` always holds
        // exactly the not-yet-optimized votes: a WAL checkpoint between
        // batches then compacts to the correct remainder, and a crash
        // recovers it.
        while !self.pending.is_empty() {
            let take = batch_size.min(self.pending.len());
            let chunk: Vec<Vote> = self.pending.votes.drain(..take).collect();
            let version_before = self.graph.version();
            let batch = VoteSet::from_votes(chunk);
            let report = match strategy {
                Strategy::SingleVote => {
                    solve_single_votes(&mut self.graph, &batch, &self.config.single)
                }
                Strategy::MultiVote => {
                    solve_multi_votes(&mut self.graph, &batch, &self.config.multi)
                }
                Strategy::SplitMerge => {
                    solve_split_merge(&mut self.graph, &batch, &self.config.split_merge).report
                }
            };
            reports.push(report);
            // Publish the batch's result before re-ranking, so concurrent
            // handles switch to the new weights even when no cached query
            // is affected.
            {
                let _phase = kg_telemetry::span!("votekg.framework.publish");
                self.published();
            }

            // Between-batch re-rank of exactly the queries this batch's
            // weight changes can affect.
            let delta = self.graph.changes_since(version_before);
            if !delta.is_empty() {
                let mut rerank = kg_telemetry::span!("votekg.framework.rerank");
                let queries: Vec<NodeId> = questions.iter().map(|(q, _)| *q).collect();
                let affected = kg_sim::affected_queries(&self.graph, &delta.edges, &queries, &sim);
                let requests: Vec<BatchQuery<'_>> = questions
                    .iter()
                    .filter(|(q, _)| affected.contains(q))
                    .map(|(q, answers)| BatchQuery {
                        query: *q,
                        answers,
                        k: answers.len(),
                    })
                    .collect();
                rerank.field("queries", requests.len());
                if kg_telemetry::is_enabled() {
                    kg_telemetry::counter("votekg.framework.incremental_reranks")
                        .add(requests.len() as u64);
                }
                self.rank_batch(&requests);
            }
            self.commit_if_durable(take)?;
        }
        Ok(reports)
    }

    /// One structured summary per optimization round: outcome fields on
    /// the `votekg.framework.round` span, per-strategy counters, and an
    /// info-level `VOTEKG_LOG` event.
    fn record_round(
        &self,
        strategy: Strategy,
        round: &mut kg_telemetry::Span,
        report: &OptimizationReport,
    ) {
        let stderr_logging =
            kg_telemetry::log_enabled("votekg.framework", kg_telemetry::Level::Info);
        if !kg_telemetry::is_enabled() && !stderr_logging {
            return;
        }
        if kg_telemetry::is_enabled() {
            round.field("omega", report.omega());
            round.field("satisfied", report.satisfied_votes());
            round.field("violated_before", report.violated_votes_before());
            round.field("violated_after", report.violated_votes_after());
            round.field("discarded", report.discarded_votes);
            round.field("quarantined", report.quarantined_votes);
            round.field("failed_solves", report.failed_solves());
            round.field("edges_changed", report.edges_changed);
            let labels = [("strategy", strategy.as_str())];
            kg_telemetry::counter_labeled("votekg.framework.rounds", &labels).incr();
            kg_telemetry::counter_labeled("votekg.framework.votes_processed", &labels)
                .add(report.outcomes.len() as u64);
            kg_telemetry::gauge("votekg.framework.last_omega_avg").set(report.omega_avg());
        }
        kg_telemetry::tevent!(
            kg_telemetry::Level::Info,
            "votekg.framework",
            "{} round: {} votes, omega {} (avg {:.3}), violated {} -> {}, \
             {} edges changed, {} discarded",
            strategy.as_str(),
            report.outcomes.len(),
            report.omega(),
            report.omega_avg(),
            report.violated_votes_before(),
            report.violated_votes_after(),
            report.edges_changed,
            report.discarded_votes
        );
    }

    /// Reverts the graph to its weights before the last optimize call.
    /// Returns false when there is nothing to revert.
    ///
    /// On a durable framework the revert is itself committed to the WAL
    /// as a zero-vote round (panicking if that write fails), so recovery
    /// reproduces the reverted weights.
    pub fn revert_last_optimization(&mut self) -> bool {
        match self.last_snapshot.take() {
            Some(snap) => {
                snap.restore(&mut self.graph);
                self.published();
                if let Err(e) = self.commit_if_durable(0) {
                    Self::wal_panic(e);
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_graph::{GraphBuilder, NodeKind};

    fn scene() -> (KnowledgeGraph, NodeId, NodeId, NodeId) {
        // Hubs have a second out-edge so the post-optimization row
        // normalization (NormalizeEdges) keeps relative changes — as in
        // any realistically dense knowledge graph.
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let h1 = b.add_node("h1", NodeKind::Entity);
        let h2 = b.add_node("h2", NodeKind::Entity);
        let other = b.add_node("other", NodeKind::Entity);
        let a1 = b.add_node("a1", NodeKind::Answer);
        let a2 = b.add_node("a2", NodeKind::Answer);
        b.add_edge(q, h1, 0.5).unwrap();
        b.add_edge(q, h2, 0.5).unwrap();
        b.add_edge(h1, a1, 0.7).unwrap();
        b.add_edge(h1, other, 0.3).unwrap();
        b.add_edge(h2, a2, 0.3).unwrap();
        b.add_edge(h2, other, 0.7).unwrap();
        (b.build(), q, a1, a2)
    }

    #[test]
    fn end_to_end_multi_vote() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        let ranked = fw.rank(q, &[a1, a2], 2);
        assert_eq!(ranked[0].node, a1);
        let kind = fw.record_feedback(q, &ranked, a2);
        assert_eq!(kind, VoteKind::Negative);
        assert_eq!(fw.pending_votes().len(), 1);
        let report = fw.optimize(Strategy::MultiVote);
        assert!(fw.pending_votes().is_empty());
        assert_eq!(report.outcomes[0].rank_after, 1);
        // Ranking now prefers a2.
        let ranked2 = fw.rank(q, &[a1, a2], 2);
        assert_eq!(ranked2[0].node, a2);
    }

    #[test]
    fn positive_feedback_is_recorded_as_positive() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        let ranked = fw.rank(q, &[a1, a2], 2);
        assert_eq!(fw.record_feedback(q, &ranked, a1), VoteKind::Positive);
    }

    #[test]
    fn revert_restores_weights() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g.clone(), FrameworkConfig::default());
        fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        fw.optimize(Strategy::MultiVote);
        assert!(fw.revert_last_optimization());
        for e in g.edges() {
            assert_eq!(fw.graph().weight(e.edge), e.weight);
        }
        assert!(!fw.revert_last_optimization());
    }

    #[test]
    fn all_strategies_run() {
        for strategy in [
            Strategy::SingleVote,
            Strategy::MultiVote,
            Strategy::SplitMerge,
        ] {
            let (g, q, a1, a2) = scene();
            let mut fw = Framework::new(g, FrameworkConfig::default());
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            let report = fw.optimize(strategy);
            assert_eq!(report.outcomes.len(), 1, "{strategy:?}");
            assert!(
                report.outcomes[0].rank_after <= report.outcomes[0].rank_before,
                "{strategy:?} made the ranking worse"
            );
        }
    }

    #[test]
    fn split_merge_report_exposes_clusters() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        let report = fw.optimize_split_merge();
        assert_eq!(report.clusters.len(), 1);
    }

    #[test]
    fn incremental_batches_cover_all_votes() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        for _ in 0..3 {
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        }
        let reports = fw.optimize_incremental(Strategy::MultiVote, 2);
        assert_eq!(reports.len(), 2); // batches of 2 + 1
        let total: usize = reports.iter().map(|r| r.outcomes.len()).sum();
        assert_eq!(total, 3);
        assert!(fw.pending_votes().is_empty());
        // The repeated negative vote ends satisfied.
        assert_eq!(
            reports.last().unwrap().outcomes.last().unwrap().rank_after,
            1
        );
        // Revert undoes all batches at once.
        assert!(fw.revert_last_optimization());
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn incremental_rejects_zero_batch() {
        let (g, _, _, _) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        fw.optimize_incremental(Strategy::MultiVote, 0);
    }

    #[test]
    fn optimize_with_no_votes_is_safe() {
        let (g, _, _, _) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        let report = fw.optimize(Strategy::MultiVote);
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn rank_is_cached_and_evicted_across_optimization() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        let first = fw.rank(q, &[a1, a2], 2);
        assert_eq!(fw.rank(q, &[a1, a2], 2), first);
        assert_eq!(fw.serve_stats().hits, 1);
        assert_eq!(fw.serve_stats().misses, 1);

        fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        fw.optimize(Strategy::MultiVote);
        // The optimization changed weights on q's walks: the cached entry
        // is evicted, and the next read recomputes it against the new
        // weights, bitwise equal to an uncached evaluation.
        let after = fw.rank(q, &[a1, a2], 2);
        assert_eq!(
            after,
            kg_sim::rank_answers(fw.graph(), q, &[a1, a2], &fw.config().sim(), 2)
        );
        assert_eq!(after[0].node, a2);
        let stats = fw.serve_stats();
        assert_eq!(stats.invalidated, 1, "q's entry is evicted");
        assert_eq!(stats.misses, 2, "the evicted entry recomputes");
        assert_eq!(stats.repaired, 0);
        // The recomputed entry serves the next read from cache.
        assert_eq!(fw.rank(q, &[a1, a2], 2), after);
        assert_eq!(fw.serve_stats().hits, 2);
    }

    #[test]
    fn optimize_moves_the_cache_before_any_read() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        fw.rank(q, &[a1, a2], 2);
        fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        fw.optimize(Strategy::MultiVote);
        // The writer advanced the cache at publish: the eviction is done
        // before any reader arrives.
        let stats = fw.serve_stats();
        assert_eq!(stats.invalidated, 1);
        assert_eq!(stats.dirty_syncs, 1);
        // A concurrent reader's read and the framework's own add no sync.
        let served = fw.handle().rank(q, &[a1, a2], 2);
        assert_eq!(fw.rank(q, &[a1, a2], 2), served);
        let stats = fw.serve_stats();
        assert_eq!(stats.dirty_syncs, 1, "readers never sync");
        assert_eq!((stats.misses, stats.hits), (2, 1));
    }

    #[test]
    fn incremental_rerank_leaves_cache_warm() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default()).with_serve_workers(2);
        for _ in 0..3 {
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        }
        fw.optimize_incremental(Strategy::MultiVote, 1);
        // The between-batch re-rank already recomputed q's entry for the
        // final weights, so serving it now is a pure cache hit.
        let hits_before = fw.serve_stats().hits;
        let served = fw.rank(q, &[a1, a2], 2);
        assert_eq!(fw.serve_stats().hits, hits_before + 1);
        assert_eq!(
            served,
            kg_sim::rank_answers(fw.graph(), q, &[a1, a2], &fw.config().sim(), 2)
        );
    }

    #[test]
    fn clone_preserves_graph_and_serving_behavior() {
        let (g, q, a1, a2) = scene();
        let fw = Framework::new(g, FrameworkConfig::default());
        let reference = fw.rank(q, &[a1, a2], 2);
        let copy = fw.clone();
        assert_eq!(copy.rank(q, &[a1, a2], 2), reference);
    }

    #[test]
    fn handle_reads_race_optimization_and_stay_coherent() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        for _ in 0..6 {
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        }
        let handle = fw.handle();
        let sim = fw.config().sim();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let handle = handle.clone();
                s.spawn(move || {
                    let mut last_epoch = 0;
                    for _ in 0..50 {
                        let (snap, ranking) = handle.rank_snapshot(q, &[a1, a2], 2);
                        assert!(snap.epoch() >= last_epoch);
                        last_epoch = snap.epoch();
                        assert_eq!(ranking, kg_sim::rank_answers(&snap, q, &[a1, a2], &sim, 2));
                    }
                });
            }
            fw.optimize_incremental(Strategy::MultiVote, 1);
        });
        // Quiescent: the handle serves the final optimized graph.
        assert_eq!(handle.epoch(), fw.graph().version());
        assert_eq!(
            handle.rank(q, &[a1, a2], 2),
            kg_sim::rank_answers(fw.graph(), q, &[a1, a2], &sim, 2)
        );
    }

    #[test]
    fn graph_mut_edits_are_visible_to_the_next_rank() {
        let (g, q, a1, a2) = scene();
        let mut fw = Framework::new(g, FrameworkConfig::default());
        let before = fw.rank(q, &[a1, a2], 2);
        assert_eq!(before[0].node, a1);
        // Flip the hub weights by hand: a2's path now dominates.
        let (e_h1a1, e_h2a2) = {
            let g = fw.graph();
            let find = |w: f64| {
                g.edges()
                    .find(|e| (e.weight - w).abs() < 1e-9)
                    .unwrap()
                    .edge
            };
            (find(0.7), find(0.3))
        };
        fw.graph_mut().set_weight(e_h1a1, 0.05).unwrap();
        fw.graph_mut().set_weight(e_h2a2, 0.95).unwrap();
        let after = fw.rank(q, &[a1, a2], 2);
        assert_eq!(after[0].node, a2, "rank must see graph_mut edits");
        assert_eq!(
            after,
            kg_sim::rank_answers(fw.graph(), q, &[a1, a2], &fw.config().sim(), 2)
        );
    }

    #[test]
    fn rank_batch_matches_single_ranks() {
        let (g, q, a1, a2) = scene();
        let fw = Framework::new(g, FrameworkConfig::default());
        let answers = [a1, a2];
        let got = fw.rank_batch(&[kg_sim::BatchQuery {
            query: q,
            answers: &answers,
            k: 2,
        }]);
        assert_eq!(got[0], fw.rank(q, &answers, 2));
    }
}

#[cfg(test)]
mod durable_tests {
    use super::*;
    use crate::durable::DurableOptions;
    use kg_graph::{GraphBuilder, NodeKind};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scene() -> (KnowledgeGraph, NodeId, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let h1 = b.add_node("h1", NodeKind::Entity);
        let h2 = b.add_node("h2", NodeKind::Entity);
        let other = b.add_node("other", NodeKind::Entity);
        let a1 = b.add_node("a1", NodeKind::Answer);
        let a2 = b.add_node("a2", NodeKind::Answer);
        b.add_edge(q, h1, 0.5).unwrap();
        b.add_edge(q, h2, 0.5).unwrap();
        b.add_edge(h1, a1, 0.7).unwrap();
        b.add_edge(h1, other, 0.3).unwrap();
        b.add_edge(h2, a2, 0.3).unwrap();
        b.add_edge(h2, other, 0.7).unwrap();
        (b.build(), q, a1, a2)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "votekg-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn weight_bits(g: &KnowledgeGraph) -> Vec<u64> {
        g.weights().iter().map(|w| w.to_bits()).collect()
    }

    #[test]
    fn recovery_is_bit_identical_after_optimize() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("roundtrip");
        let (expected_bits, expected_version) = {
            let (mut fw, report) = Framework::open_durable(
                &dir,
                g.clone(),
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .unwrap();
            assert_eq!(report.recovered_version, 0);
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            fw.optimize_durable(Strategy::MultiVote).unwrap();
            (weight_bits(fw.graph()), fw.graph().version())
        };
        let (fw2, report) = Framework::open_durable(
            &dir,
            g,
            FrameworkConfig::default(),
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(report.recovered_version, expected_version);
        assert_eq!(report.rounds_applied, 1);
        assert_eq!(weight_bits(fw2.graph()), expected_bits);
        assert!(report.torn_tail.is_none());
        assert!(report.corrupt_snapshots.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_votes_survive_restart_without_optimize() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("pending");
        {
            let (mut fw, _) = Framework::open_durable(
                &dir,
                g.clone(),
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .unwrap();
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            fw.record_vote(Vote::new(q, vec![a1, a2], a1));
            fw.sync_wal().unwrap();
        }
        let (mut fw2, report) = Framework::open_durable(
            &dir,
            g,
            FrameworkConfig::default(),
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(report.votes_recovered, 2);
        assert_eq!(fw2.pending_votes().len(), 2);
        // The recovered votes optimize exactly like fresh ones.
        let report = fw2.optimize_durable(Strategy::MultiVote).unwrap();
        assert_eq!(report.outcomes.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_compact_the_wal_and_recovery_uses_them() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("snapshot");
        let opts = DurableOptions {
            snapshot_every: 1, // checkpoint after every round
            keep_snapshots: 2,
        };
        let expected_bits = {
            let (mut fw, _) =
                Framework::open_durable(&dir, g.clone(), FrameworkConfig::default(), opts.clone())
                    .unwrap();
            for _ in 0..3 {
                fw.record_vote(Vote::new(q, vec![a1, a2], a2));
                fw.optimize_durable(Strategy::MultiVote).unwrap();
            }
            weight_bits(fw.graph())
        };
        let snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().to_string_lossy().into_owned();
                name.ends_with(".vkgs").then_some(name)
            })
            .collect();
        assert_eq!(snaps.len(), 2, "pruned to keep_snapshots: {snaps:?}");
        let (fw2, report) =
            Framework::open_durable(&dir, g, FrameworkConfig::default(), opts).unwrap();
        assert!(report.snapshot_version.is_some());
        assert_eq!(report.rounds_applied, 0, "snapshot already current");
        assert_eq!(weight_bits(fw2.graph()), expected_bits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_falls_back_past_a_corrupt_snapshot() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("corrupt-snap");
        let opts = DurableOptions {
            snapshot_every: 1,
            keep_snapshots: 2,
        };
        let expected_bits = {
            let (mut fw, _) =
                Framework::open_durable(&dir, g.clone(), FrameworkConfig::default(), opts.clone())
                    .unwrap();
            for _ in 0..2 {
                fw.record_vote(Vote::new(q, vec![a1, a2], a2));
                fw.optimize_durable(Strategy::MultiVote).unwrap();
            }
            weight_bits(fw.graph())
        };
        // Corrupt the newest snapshot: flip one payload byte.
        let mut snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "vkgs"))
            .collect();
        snaps.sort();
        let newest = snaps.last().unwrap();
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(newest, &bytes).unwrap();
        // The WAL was compacted at the newest snapshot, so falling back to
        // the older snapshot alone cannot reach the final state — but the
        // graph is still recovered (without the last round) rather than
        // recovery failing outright, and the damage is reported.
        let (fw2, report) =
            Framework::open_durable(&dir, g, FrameworkConfig::default(), opts).unwrap();
        assert_eq!(report.corrupt_snapshots.len(), 1);
        assert!(
            report.corrupt_snapshots[0].1.contains("checksum")
                || report.corrupt_snapshots[0].1.contains("corrupt"),
            "{:?}",
            report.corrupt_snapshots
        );
        assert!(report.snapshot_version.is_some());
        assert!(fw2.graph().version() < expected_bits.len() as u64 * 100); // sanity
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_batches_commit_individually() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("incremental");
        let (expected_bits, expected_version) = {
            let (mut fw, _) = Framework::open_durable(
                &dir,
                g.clone(),
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .unwrap();
            for _ in 0..3 {
                fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            }
            let reports = fw
                .optimize_incremental_durable(Strategy::MultiVote, 1)
                .unwrap();
            assert_eq!(reports.len(), 3);
            (weight_bits(fw.graph()), fw.graph().version())
        };
        let (fw2, report) = Framework::open_durable(
            &dir,
            g,
            FrameworkConfig::default(),
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(report.rounds_applied, 3, "one WAL round per batch");
        assert_eq!(report.votes_recovered, 0);
        assert_eq!(report.recovered_version, expected_version);
        assert_eq!(weight_bits(fw2.graph()), expected_bits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manual_graph_edits_fold_into_the_next_round() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("manual-edit");
        let (expected_bits, expected_version) = {
            let (mut fw, _) = Framework::open_durable(
                &dir,
                g.clone(),
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .unwrap();
            // A manual out-of-band weight edit between rounds…
            let e = fw.graph().edges().next().unwrap().edge;
            fw.graph_mut().set_weight(e, 0.123456789).unwrap();
            // …is carried by the next committed round's delta.
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            fw.optimize_durable(Strategy::MultiVote).unwrap();
            (weight_bits(fw.graph()), fw.graph().version())
        };
        let (fw2, report) = Framework::open_durable(
            &dir,
            g,
            FrameworkConfig::default(),
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(report.recovered_version, expected_version);
        assert_eq!(weight_bits(fw2.graph()), expected_bits);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn revert_is_durable() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("revert");
        let (expected_bits, expected_version) = {
            let (mut fw, _) = Framework::open_durable(
                &dir,
                g.clone(),
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .unwrap();
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            fw.optimize_durable(Strategy::MultiVote).unwrap();
            assert!(fw.revert_last_optimization());
            (weight_bits(fw.graph()), fw.graph().version())
        };
        let (fw2, report) = Framework::open_durable(
            &dir,
            g.clone(),
            FrameworkConfig::default(),
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(report.recovered_version, expected_version);
        assert_eq!(weight_bits(fw2.graph()), expected_bits);
        // The reverted weights equal the originals.
        assert_eq!(weight_bits(fw2.graph()), weight_bits(&g));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_tolerated_and_reported() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("torn");
        {
            let (mut fw, _) = Framework::open_durable(
                &dir,
                g.clone(),
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .unwrap();
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            fw.optimize_durable(Strategy::MultiVote).unwrap();
            fw.record_vote(Vote::new(q, vec![a1, a2], a1));
            fw.sync_wal().unwrap();
        }
        // Tear the final record (the second vote) mid-frame.
        let wal = dir.join("wal.log");
        let len = std::fs::metadata(&wal).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        let (fw2, report) = Framework::open_durable(
            &dir,
            g,
            FrameworkConfig::default(),
            DurableOptions::default(),
        )
        .unwrap();
        assert!(report.torn_tail.is_some(), "{report:?}");
        assert_eq!(report.rounds_applied, 1, "committed round survives");
        assert_eq!(report.votes_recovered, 0, "torn vote dropped");
        assert!(fw2.pending_votes().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_wal_corruption_is_a_hard_error() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("interior");
        {
            let (mut fw, _) = Framework::open_durable(
                &dir,
                g.clone(),
                FrameworkConfig::default(),
                DurableOptions::default(),
            )
            .unwrap();
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            fw.optimize_durable(Strategy::MultiVote).unwrap();
        }
        // Flip a byte inside the header record (interior, not the tail).
        let wal = dir.join("wal.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(&wal, &bytes).unwrap();
        let err = Framework::open_durable(
            &dir,
            g,
            FrameworkConfig::default(),
            DurableOptions::default(),
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("checksum") || msg.contains("corrupt") || msg.contains("mismatch"),
            "undescriptive error: {msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_framework_has_no_durability() {
        let (g, _, _, _) = scene();
        let fw = Framework::new(g, FrameworkConfig::default());
        assert!(!fw.is_durable());
        assert!(fw.durable_dir().is_none());
    }

    #[test]
    fn clone_of_durable_framework_is_in_memory_only() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("clone");
        let (mut fw, _) = Framework::open_durable(
            &dir,
            g,
            FrameworkConfig::default(),
            DurableOptions::default(),
        )
        .unwrap();
        fw.record_vote(Vote::new(q, vec![a1, a2], a2));
        let mut copy = fw.clone();
        assert!(!copy.is_durable());
        // The clone optimizes without touching fw's WAL.
        let wal_len_before = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        copy.optimize(Strategy::MultiVote);
        assert_eq!(
            std::fs::metadata(dir.join("wal.log")).unwrap().len(),
            wal_len_before
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_checkpoint_compacts_and_recovers() {
        let (g, q, a1, a2) = scene();
        let dir = temp_dir("checkpoint");
        let opts = DurableOptions {
            snapshot_every: 0, // manual checkpoints only
            keep_snapshots: 1,
        };
        let expected_bits = {
            let (mut fw, _) =
                Framework::open_durable(&dir, g.clone(), FrameworkConfig::default(), opts.clone())
                    .unwrap();
            fw.record_vote(Vote::new(q, vec![a1, a2], a2));
            fw.optimize_durable(Strategy::MultiVote).unwrap();
            let v = fw.checkpoint().unwrap();
            assert_eq!(v, Some(fw.graph().version()));
            weight_bits(fw.graph())
        };
        let (fw2, report) =
            Framework::open_durable(&dir, g, FrameworkConfig::default(), opts).unwrap();
        assert!(report.snapshot_version.is_some());
        assert_eq!(report.rounds_applied, 0, "WAL compacted at checkpoint");
        assert_eq!(weight_bits(fw2.graph()), expected_bits);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;
    use kg_graph::{GraphBuilder, NodeKind};

    #[test]
    fn aggregation_collapses_repeated_votes() {
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let h1 = b.add_node("h1", NodeKind::Entity);
        let h2 = b.add_node("h2", NodeKind::Entity);
        let a1 = b.add_node("a1", NodeKind::Answer);
        let a2 = b.add_node("a2", NodeKind::Answer);
        b.add_edge(q, h1, 0.5).unwrap();
        b.add_edge(q, h2, 0.5).unwrap();
        b.add_edge(h1, a1, 0.7).unwrap();
        b.add_edge(h2, a2, 0.3).unwrap();
        let g = b.build();

        let mut fw = Framework::new(
            g,
            FrameworkConfig {
                aggregate: true,
                ..Default::default()
            },
        );
        // Three users: two want a2, one confirms a1 -> aggregated to one
        // negative vote for a2.
        for best in [a2, a2, a1] {
            fw.record_vote(Vote::new(q, vec![a1, a2], best));
        }
        let report = fw.optimize(Strategy::MultiVote);
        assert_eq!(report.outcomes.len(), 1, "{report:?}");
        assert_eq!(report.outcomes[0].rank_after, 1);
        // The majority's answer now wins.
        let ranked = fw.rank(q, &[a1, a2], 2);
        assert_eq!(ranked[0].node, a2);
    }
}
