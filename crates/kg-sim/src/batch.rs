//! Batched multi-query ranking.
//!
//! Re-ranking after an optimization round is embarrassingly parallel:
//! each query's phi evaluation is independent and reads the graph
//! immutably. [`rank_many`] fans a batch out over the shared worker loop
//! ([`crate::par::run_worker_loop`]); each worker owns one
//! [`PhiWorkspace`], so per-query work is allocation-free once the
//! workspaces are warm no matter how large the batch grows.

use crate::config::SimilarityConfig;
use crate::par::run_worker_loop;
use crate::topk::RankedAnswer;
use crate::workspace::PhiWorkspace;
use kg_graph::{KnowledgeGraph, NodeId};
use std::sync::Mutex;

/// One ranking request of a batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The query node to evaluate.
    pub query: NodeId,
    /// Candidate answers to rank.
    pub answers: &'a [NodeId],
    /// Number of top entries to return (clamped to `answers.len()`).
    pub k: usize,
}

/// Picks a claim-chunk size that keeps the shared counter cold without
/// starving workers: at least 1, at most 16, aiming for ~4 claims per
/// worker.
fn chunk_for(n_tasks: usize, workers: usize) -> usize {
    (n_tasks / (workers.max(1) * 4)).clamp(1, 16)
}

/// Ranks every request of `batch` against `graph`, returning results in
/// request order. `workers <= 1` runs inline on the caller's thread;
/// otherwise up to `workers` scoped threads claim chunks of the batch,
/// each reusing a private [`PhiWorkspace`].
///
/// Per-request output is identical to [`crate::rank_answers`] — same
/// scores, same deterministic tie-breaking — regardless of worker count
/// or claim order.
pub fn rank_many(
    graph: &KnowledgeGraph,
    batch: &[BatchQuery<'_>],
    cfg: &SimilarityConfig,
    workers: usize,
) -> Vec<Vec<RankedAnswer>> {
    let _span = kg_telemetry::span!("votekg.sim.rank_many");
    if kg_telemetry::is_enabled() {
        kg_telemetry::counter("votekg.sim.rank_many_batches").incr();
        kg_telemetry::counter("votekg.sim.rank_many_queries").add(batch.len() as u64);
        kg_telemetry::histogram("votekg.sim.rank_many_batch_size").record(batch.len() as u64);
    }
    let mut results: Vec<Option<Vec<RankedAnswer>>> = vec![None; batch.len()];
    let slots = Mutex::new(&mut results);
    run_worker_loop(
        workers,
        batch.len(),
        chunk_for(batch.len(), workers),
        || (PhiWorkspace::new(), Vec::new()),
        |(ws, out), i| {
            let req = &batch[i];
            ws.rank_into(graph, req.query, req.answers, cfg, req.k, out);
            // The lock guards only the result hand-off, never the phi
            // evaluation, so contention stays negligible.
            slots.lock().unwrap()[i] = Some(std::mem::take(out));
        },
    );
    results
        .into_iter()
        .map(|r| r.expect("worker loop covers every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::rank_answers;
    use kg_graph::{GraphBuilder, NodeKind};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_graph(seed: u64) -> (KnowledgeGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let queries: Vec<NodeId> = (0..10)
            .map(|i| b.add_node(format!("q{i}"), NodeKind::Query))
            .collect();
        let hubs: Vec<NodeId> = (0..20)
            .map(|i| b.add_node(format!("h{i}"), NodeKind::Entity))
            .collect();
        let answers: Vec<NodeId> = (0..8)
            .map(|i| b.add_node(format!("a{i}"), NodeKind::Answer))
            .collect();
        for &q in &queries {
            for &h in &hubs {
                if rng.gen::<f64>() < 0.4 {
                    b.add_edge(q, h, rng.gen::<f64>() + 0.01).unwrap();
                }
            }
        }
        for &h in &hubs {
            for &a in &answers {
                if rng.gen::<f64>() < 0.3 {
                    b.add_edge(h, a, rng.gen::<f64>() + 0.01).unwrap();
                }
            }
        }
        (b.build(), queries, answers)
    }

    #[test]
    fn matches_sequential_rank_answers_for_any_worker_count() {
        let (g, queries, answers) = random_graph(7);
        let cfg = SimilarityConfig::default();
        let batch: Vec<BatchQuery> = queries
            .iter()
            .map(|&q| BatchQuery {
                query: q,
                answers: &answers,
                k: 5,
            })
            .collect();
        let reference: Vec<_> = queries
            .iter()
            .map(|&q| rank_answers(&g, q, &answers, &cfg, 5))
            .collect();
        for workers in [1, 2, 4, 9] {
            let got = rank_many(&g, &batch, &cfg, workers);
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    /// Snapshot serving: `rank_many` over a published [`GraphSnapshot`]
    /// (deref to the frozen graph) is identical to evaluating the graph
    /// it froze, for any worker count, even while the live graph moves on.
    #[test]
    fn rank_many_over_a_snapshot_is_stable_under_live_mutation() {
        let (mut g, queries, answers) = random_graph(11);
        let cfg = SimilarityConfig::default();
        let batch: Vec<BatchQuery> = queries
            .iter()
            .map(|&q| BatchQuery {
                query: q,
                answers: &answers,
                k: 5,
            })
            .collect();
        let snap = g.publish();
        let reference = rank_many(&snap, &batch, &cfg, 1);
        for e in 0..g.edge_count() as u32 {
            let id = kg_graph::EdgeId(e);
            g.set_weight(id, g.weight(id) * 0.3 + 0.02).unwrap();
        }
        for workers in [1, 2, 8] {
            assert_eq!(
                rank_many(&snap, &batch, &cfg, workers),
                reference,
                "workers = {workers}"
            );
        }
        assert_ne!(rank_many(&g, &batch, &cfg, 1), reference);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let (g, _, _) = random_graph(1);
        assert!(rank_many(&g, &[], &SimilarityConfig::default(), 4).is_empty());
    }

    #[test]
    fn heterogeneous_requests_keep_their_order() {
        let (g, queries, answers) = random_graph(3);
        let cfg = SimilarityConfig::default();
        let batch = vec![
            BatchQuery {
                query: queries[0],
                answers: &answers,
                k: 1,
            },
            BatchQuery {
                query: queries[1],
                answers: &answers[..3],
                k: 10,
            },
            BatchQuery {
                query: queries[0],
                answers: &answers,
                k: answers.len(),
            },
        ];
        let got = rank_many(&g, &batch, &cfg, 3);
        assert_eq!(got[0].len(), 1);
        assert_eq!(got[1].len(), 3);
        assert_eq!(got[2].len(), answers.len());
        assert_eq!(got[0], rank_answers(&g, queries[0], &answers, &cfg, 1));
        assert_eq!(
            got[1],
            rank_answers(&g, queries[1], &answers[..3], &cfg, 10)
        );
    }

    #[test]
    fn chunk_sizing_is_sane() {
        assert_eq!(chunk_for(0, 4), 1);
        assert_eq!(chunk_for(10, 4), 1);
        assert_eq!(chunk_for(1000, 4), 16);
        assert_eq!(chunk_for(100, 0), 16);
    }
}
