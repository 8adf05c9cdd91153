//! Version-regression coherence under the snapshot rules: the cache only
//! ever moves forward, so a snapshot from an *older lineage* (a reload or
//! a fresh build — epochs restart) is served by direct evaluation without
//! rewinding the cache, until [`SnapshotServer::clear`] re-attaches the
//! cache; and a weight-snapshot restore on the same graph (the version
//! moves forward) is invalidated through the changed-edge path, without
//! a full clear. In every case each ranking served must be bit-identical
//! to an uncached [`kg_sim::rank_answers`] evaluation.

use kg_graph::{
    EdgeId, GraphBuilder, GraphSnapshot, KnowledgeGraph, NodeId, NodeKind, WeightSnapshot,
};
use kg_serve::SnapshotServer;
use kg_sim::rank_answers;

fn scene() -> (KnowledgeGraph, NodeId, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let q = b.add_node("q", NodeKind::Query);
    let hubs: Vec<NodeId> = (0..4)
        .map(|i| b.add_node(format!("h{i}"), NodeKind::Entity))
        .collect();
    let answers: Vec<NodeId> = (0..3)
        .map(|i| b.add_node(format!("a{i}"), NodeKind::Answer))
        .collect();
    for (i, &h) in hubs.iter().enumerate() {
        b.add_edge(q, h, 0.2 + 0.1 * i as f64).unwrap();
        for (j, &a) in answers.iter().enumerate() {
            b.add_edge(h, a, 0.1 + 0.07 * ((i + j) % 5) as f64).unwrap();
        }
    }
    (b.build(), q, answers)
}

/// Bitwise comparison against the uncached oracle.
fn assert_matches_oracle(
    server: &SnapshotServer,
    snap: &GraphSnapshot,
    query: NodeId,
    answers: &[NodeId],
    context: &str,
) {
    let cfg = server.config().sim;
    let served = server.rank_at(snap, query, answers, answers.len());
    let oracle = rank_answers(snap, query, answers, &cfg, answers.len());
    assert_eq!(served.len(), oracle.len(), "{context}: length mismatch");
    for (s, o) in served.iter().zip(&oracle) {
        assert_eq!(s.node, o.node, "{context}: node order differs");
        assert_eq!(s.rank, o.rank, "{context}: rank differs");
        assert_eq!(
            s.score.to_bits(),
            o.score.to_bits(),
            "{context}: score must be byte-identical ({} vs {})",
            s.score,
            o.score
        );
    }
}

#[test]
fn older_lineage_is_served_uncached_until_clear() {
    let (mut graph, q, answers) = scene();
    graph.set_weight(EdgeId(0), 0.9).unwrap();
    graph.set_weight(EdgeId(4), 0.05).unwrap();
    let newer = graph.publish();
    // A fresh build of the same topology with different weights: its
    // epochs restart, so it sits behind the epoch the newer lineage
    // moved the cache to.
    let (mut other, _, _) = scene();
    other.set_weight(EdgeId(1), 0.6).unwrap();
    let older = other.publish();
    assert!(older.epoch() < newer.epoch());

    let server = SnapshotServer::default();
    assert_matches_oracle(&server, &newer, q, &answers, "warm-up on newer lineage");
    assert_eq!(server.cached_queries(), 1);

    // The older lineage is evaluated directly: never cached, never a
    // hit, and the cache is not rewound.
    for round in 0..2 {
        assert_matches_oracle(&server, &older, q, &answers, "older lineage");
        assert_eq!(server.stats().hits, 0, "round {round}");
    }
    let stats = server.stats();
    assert_eq!(stats.misses, 3, "every older-lineage read is a miss");
    assert_eq!(stats.full_clears, 0, "no implicit clear");
    assert_eq!(stats.invalidated, 0, "the newer entry is not touched");
    // The newer lineage's entry survived the stragglers.
    assert_matches_oracle(&server, &newer, q, &answers, "newer lineage, cached");
    assert_eq!(server.stats().hits, 1);

    // clear() re-attaches the cache to the older lineage.
    server.clear();
    assert_eq!(server.stats().full_clears, 1);
    assert_eq!(server.cached_queries(), 0);
    assert_matches_oracle(&server, &older, q, &answers, "older lineage after clear");
    assert_matches_oracle(&server, &older, q, &answers, "older lineage, cached");
    assert_eq!(
        server.stats().hits,
        2,
        "the cache serves the older lineage again"
    );
}

#[test]
fn forward_restore_is_invalidated_without_a_full_clear() {
    let (mut graph, q, answers) = scene();
    let captured = WeightSnapshot::capture(&graph);

    let server = SnapshotServer::default();
    assert_matches_oracle(&server, &graph.publish(), q, &answers, "initial weights");

    // Perturb, serve, then roll back via the weight snapshot. The restore
    // moves the version *forward* (kg-graph's restore re-writes weights),
    // so the server must invalidate through the changed edges, not a
    // full clear.
    graph.set_weight(EdgeId(0), 0.95).unwrap();
    assert_matches_oracle(&server, &graph.publish(), q, &answers, "perturbed");
    let before = server.stats();
    captured.restore(&mut graph);
    let restored = graph.publish();
    assert_matches_oracle(&server, &restored, q, &answers, "restored");
    let after = server.stats();
    assert_eq!(
        after.full_clears, before.full_clears,
        "forward-version restore must not need a full clear"
    );
    assert_eq!(after.invalidated, before.invalidated + 1, "q is evicted");
    assert_eq!(after.misses, before.misses + 1, "and recomputed");

    // After the restore the rankings equal a fresh server's output on the
    // restored graph, bit for bit.
    let fresh = SnapshotServer::default();
    let cached = server.rank_at(&restored, q, &answers, answers.len());
    let uncached = fresh.rank_at(&restored, q, &answers, answers.len());
    assert_eq!(server.stats().hits, after.hits + 1);
    for (c, u) in cached.iter().zip(&uncached) {
        assert_eq!(c.node, u.node);
        assert_eq!(c.score.to_bits(), u.score.to_bits());
    }
}
