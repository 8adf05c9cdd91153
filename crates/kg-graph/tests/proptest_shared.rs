//! Property tests for the shared-graph publication layer: arbitrary
//! interleavings of weight mutation, weight-snapshot capture/restore,
//! and snapshot publication are checked against a naive shadow model.
//!
//! Invariants pinned here:
//!
//! * `version()` is monotone non-decreasing under every operation —
//!   including `WeightSnapshot::restore`, which rolls weights *back* but
//!   must still move the version *forward* (the serving layer's
//!   forward-only ranking cache depends on this).
//! * `changes_since(v)` is complete: every edge whose weight differs
//!   from its value at version `v` appears in the delta.
//! * Published [`GraphSnapshot`]s are frozen: later mutations of the
//!   writer's graph never leak into an already-published snapshot, and
//!   `SharedGraph::snapshot()` always returns the latest publication.

use kg_graph::{
    EdgeId, GraphBuilder, GraphSnapshot, KnowledgeGraph, NodeId, NodeKind, SharedGraph,
    WeightSnapshot,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// One step of the interleaving, chosen by the strategy.
#[derive(Debug, Clone)]
enum Op {
    /// `set_weight(edge % E, w)`.
    Set(usize, f64),
    /// Capture a [`WeightSnapshot`] (pushed on a stack).
    Capture,
    /// Restore the most recently captured snapshot, if any.
    Restore,
    /// Publish the current graph through the [`SharedGraph`].
    Publish,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0usize..64, 0.05f64..2.0).prop_map(|(e, w)| Op::Set(e, w)),
        Just(Op::Capture),
        Just(Op::Restore),
        Just(Op::Publish),
    ];
    proptest::collection::vec(op, 1..60)
}

/// A fixed small graph: 8 nodes in a dense-ish weighted digraph.
fn base_graph() -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..8)
        .map(|i| b.add_node(format!("n{i}"), NodeKind::Entity))
        .collect();
    let mut w = 0.11f64;
    for (i, &from) in nodes.iter().enumerate() {
        for (j, &to) in nodes.iter().enumerate() {
            if i != j && (i + 2 * j) % 3 == 0 {
                b.add_edge(from, to, w).unwrap();
                w = (w * 1.37) % 1.0 + 0.05;
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The full interleaving property: run an arbitrary op sequence and
    /// check version monotonicity, delta completeness against a shadow
    /// weight map, and snapshot immutability at every publication.
    #[test]
    fn interleavings_preserve_version_and_delta_invariants(ops in arb_ops()) {
        let mut graph = base_graph();
        let edge_count = graph.edge_count();
        prop_assert!(edge_count > 0);
        let edges: Vec<EdgeId> = graph.edges().map(|e| e.edge).collect();

        let shared = SharedGraph::new(graph.clone());
        let v0 = graph.version();
        // Shadow model: edge -> weight, tracked naively alongside.
        let mut shadow: HashMap<EdgeId, f64> =
            edges.iter().map(|&e| (e, graph.weight(e))).collect();
        let initial = shadow.clone();
        let mut captured: Vec<(WeightSnapshot, HashMap<EdgeId, f64>)> = Vec::new();
        // (published snapshot, shadow at publication time)
        let mut published: Vec<(GraphSnapshot, HashMap<EdgeId, f64>)> =
            vec![(shared.snapshot(), shadow.clone())];
        let mut last_version = graph.version();

        for op in &ops {
            match op {
                Op::Set(i, w) => {
                    let e = edges[i % edges.len()];
                    graph.set_weight(e, *w).unwrap();
                    shadow.insert(e, *w);
                }
                Op::Capture => {
                    captured.push((WeightSnapshot::capture(&graph), shadow.clone()));
                }
                Op::Restore => {
                    if let Some((snap, at_capture)) = captured.pop() {
                        snap.restore(&mut graph);
                        shadow = at_capture;
                    }
                }
                Op::Publish => {
                    let snap = shared.publish(&graph);
                    prop_assert_eq!(snap.epoch(), graph.version());
                    prop_assert_eq!(shared.epoch(), graph.version());
                    published.push((snap, shadow.clone()));
                }
            }
            // Version never moves backwards, whatever the op — restore
            // included.
            prop_assert!(
                graph.version() >= last_version,
                "version regressed: {} -> {}",
                last_version,
                graph.version()
            );
            last_version = graph.version();

            // The graph agrees with the shadow model after every step.
            for (&e, &w) in &shadow {
                prop_assert_eq!(graph.weight(e), w);
            }
        }

        // Delta completeness: every edge that ended up different from its
        // initial weight is reported by changes_since(v0).
        let delta = graph.changes_since(v0);
        for (&e, &w) in &shadow {
            if w != initial[&e] {
                prop_assert!(
                    delta.edges.contains(&e),
                    "edge {:?} changed {} -> {} but is missing from changes_since({})",
                    e,
                    initial[&e],
                    w,
                    v0
                );
            }
        }
        prop_assert_eq!(delta.to_version, graph.version());

        // Published snapshots are frozen at their shadow state, epochs
        // are monotone in publication order, and the shared cell serves
        // the latest one.
        let mut prev_epoch = 0u64;
        for (snap, at_publish) in &published {
            prop_assert!(snap.epoch() >= prev_epoch);
            prev_epoch = snap.epoch();
            for (&e, &w) in at_publish {
                prop_assert_eq!(snap.weight(e), w);
            }
        }
        prop_assert_eq!(shared.snapshot().epoch(), prev_epoch);

        // A snapshot's delta view is coherent: edges that changed after
        // its epoch are exactly those where the live graph disagrees
        // with it (completeness direction).
        let (last_snap, _) = published.last().unwrap();
        let since = graph.changes_since(last_snap.epoch());
        for &e in &edges {
            if graph.weight(e) != last_snap.weight(e) {
                prop_assert!(
                    since.edges.contains(&e),
                    "edge {:?} differs from snapshot epoch {} but not in delta",
                    e,
                    last_snap.epoch()
                );
            }
        }
    }
}
