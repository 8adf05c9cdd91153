//! Weight-change deltas: the answer to "which edges moved since version
//! `v`?".
//!
//! The serving layer caches per-query rankings keyed by
//! [`crate::KnowledgeGraph::version`]; after an optimization round it asks the
//! graph for a [`WeightDelta`] and invalidates only the queries whose
//! similarity the changed edges can reach (see `kg_sim::affected_queries`).
//! The graph keeps one `u64` stamp per edge rather than an append-only
//! changelog, so delta extraction is `O(|E|)` and memory stays flat no
//! matter how many optimization rounds run.

use crate::ids::EdgeId;
use serde::{Deserialize, Serialize};

/// The set of edges whose weight changed in a version interval
/// `(from_version, to_version]`, produced by
/// [`crate::KnowledgeGraph::changes_since`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightDelta {
    /// Exclusive lower bound of the covered interval (the version the
    /// caller last synchronized at).
    pub from_version: u64,
    /// Inclusive upper bound: the graph's version when the delta was
    /// taken.
    pub to_version: u64,
    /// Changed edges, in increasing id order.
    pub edges: Vec<EdgeId>,
}

impl WeightDelta {
    /// True when no edge changed in the interval.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of changed edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::graph::{KnowledgeGraph, NodeKind};
    use crate::snapshot::WeightSnapshot;

    fn triangle() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", NodeKind::Entity);
        let c = b.add_node("c", NodeKind::Entity);
        let d = b.add_node("d", NodeKind::Entity);
        b.add_edge(a, c, 0.5).unwrap();
        b.add_edge(c, d, 0.25).unwrap();
        b.add_edge(d, a, 0.25).unwrap();
        b.build()
    }

    #[test]
    fn fresh_graph_is_version_zero_with_no_changes() {
        let g = triangle();
        assert_eq!(g.version(), 0);
        let d = g.changes_since(0);
        assert!(d.is_empty());
        assert_eq!(d.from_version, 0);
        assert_eq!(d.to_version, 0);
    }

    #[test]
    fn set_weight_bumps_version_and_reports_edge() {
        let mut g = triangle();
        g.set_weight(EdgeId(1), 0.9).unwrap();
        assert_eq!(g.version(), 1);
        let d = g.changes_since(0);
        assert_eq!(d.edges, vec![EdgeId(1)]);
        assert_eq!(d.to_version, 1);
        // Catching up leaves nothing pending.
        assert!(g.changes_since(g.version()).is_empty());
    }

    #[test]
    fn writing_the_same_value_is_not_a_change() {
        let mut g = triangle();
        g.set_weight(EdgeId(0), 0.5).unwrap();
        assert_eq!(g.version(), 0);
        assert!(g.changes_since(0).is_empty());
    }

    #[test]
    fn deltas_cover_only_the_requested_interval() {
        let mut g = triangle();
        g.set_weight(EdgeId(0), 0.6).unwrap();
        let mid = g.version();
        g.set_weight(EdgeId(2), 0.1).unwrap();
        g.set_weight(EdgeId(0), 0.7).unwrap(); // edge 0 changes again
        let d = g.changes_since(mid);
        assert_eq!(d.edges, vec![EdgeId(0), EdgeId(2)]);
        assert_eq!(d.from_version, mid);
        assert_eq!(d.to_version, g.version());
        // The full history still reports each edge once.
        assert_eq!(g.changes_since(0).len(), 2);
    }

    #[test]
    fn normalization_stamps_scaled_edges() {
        let mut g = triangle();
        let v0 = g.version();
        g.set_weight(EdgeId(0), 3.0).unwrap();
        g.normalize_out_edges();
        let d = g.changes_since(v0);
        assert!(d.edges.contains(&EdgeId(0)));
        assert!(g.version() > v0 + 1, "normalize must stamp its rescale");
        // Already-normalized rows (single out-edge of weight w scaled by
        // w/w = 1) are untouched only if the division is exact; edge 1 and
        // 2 each form their node's only out-edge, so sum == weight and the
        // scaled value is exactly 1.0 — a change from 0.25.
        assert!(d.edges.contains(&EdgeId(1)));
    }

    #[test]
    fn snapshot_restore_records_changes() {
        let mut g = triangle();
        let snap = WeightSnapshot::capture(&g);
        g.set_weight(EdgeId(1), 0.9).unwrap();
        let v_after_edit = g.version();
        snap.restore(&mut g);
        assert!(g.version() > v_after_edit);
        let d = g.changes_since(v_after_edit);
        assert_eq!(d.edges, vec![EdgeId(1)]);
        // Restoring identical weights is a no-op.
        let v = g.version();
        snap.restore(&mut g);
        assert_eq!(g.version(), v);
    }

    #[test]
    fn clone_continues_the_version_lineage() {
        let mut g = triangle();
        g.set_weight(EdgeId(0), 0.8).unwrap();
        let v = g.version();
        let mut c = g.clone();
        assert_eq!(c.version(), v);
        c.set_weight(EdgeId(2), 0.05).unwrap();
        assert_eq!(c.changes_since(v).edges, vec![EdgeId(2)]);
        // The original is unaffected.
        assert_eq!(g.version(), v);
    }
}
