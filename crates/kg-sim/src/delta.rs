//! Incremental maintenance: which queries a weight change can affect.
//!
//! After an optimization pass adjusts a set of edges, a deployment with
//! cached rankings only needs to re-rank the queries whose similarity
//! could have moved. A query `q`'s scores depend exactly on the edges
//! reachable within `L` hops of `q` — i.e. edge `(u, v)` matters iff `u`
//! lies within `L − 1` hops of `q`. Walking *backward* from the changed
//! edges' sources finds all such queries in one sweep, regardless of how
//! many queries exist ([`affected_queries`]). The serving cache evicts
//! exactly this set; every other cached ranking is still exact.

use crate::config::SimilarityConfig;
use kg_graph::{EdgeId, KnowledgeGraph, NodeId};
use std::collections::HashSet;

/// Returns the subset of `queries` whose similarity scores can change
/// when the weights of `changed` edges change, under path bound
/// `cfg.max_path_len`. Output preserves the order of `queries`.
pub fn affected_queries(
    graph: &KnowledgeGraph,
    changed: &[EdgeId],
    queries: &[NodeId],
    cfg: &SimilarityConfig,
) -> Vec<NodeId> {
    if changed.is_empty() || queries.is_empty() {
        return Vec::new();
    }
    // Backward multi-source BFS from the changed edges' source nodes, up
    // to depth L-1 (a source at distance d from q puts the edge on walks
    // of length d+1 <= L).
    let mut reached: HashSet<NodeId> = HashSet::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    for &e in changed {
        let (from, _) = graph.endpoints(e);
        if reached.insert(from) {
            frontier.push(from);
        }
    }
    let mut depth = 0usize;
    while !frontier.is_empty() && depth + 1 < cfg.max_path_len {
        depth += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for e in graph.in_edges(v) {
                if reached.insert(e.from) {
                    next.push(e.from);
                }
            }
        }
        frontier = next;
    }
    queries
        .iter()
        .copied()
        .filter(|q| reached.contains(q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_graph::{GraphBuilder, NodeKind};

    /// q1 -> a -> b -> c -> d (a chain), q2 -> d directly.
    fn chain() -> (KnowledgeGraph, Vec<NodeId>, Vec<EdgeId>) {
        let mut bld = GraphBuilder::new();
        let q1 = bld.add_node("q1", NodeKind::Query);
        let q2 = bld.add_node("q2", NodeKind::Query);
        let a = bld.add_node("a", NodeKind::Entity);
        let b = bld.add_node("b", NodeKind::Entity);
        let c = bld.add_node("c", NodeKind::Entity);
        let d = bld.add_node("d", NodeKind::Entity);
        let e0 = bld.add_edge(q1, a, 1.0).unwrap();
        let e1 = bld.add_edge(a, b, 1.0).unwrap();
        let e2 = bld.add_edge(b, c, 1.0).unwrap();
        let e3 = bld.add_edge(c, d, 1.0).unwrap();
        let e4 = bld.add_edge(q2, d, 1.0).unwrap();
        (bld.build(), vec![q1, q2], vec![e0, e1, e2, e3, e4])
    }

    #[test]
    fn nearby_change_affects_only_reaching_query() {
        let (g, queries, edges) = chain();
        let cfg = SimilarityConfig::new(0.15, 5);
        // a->b is 1 hop from q1 (on its walks), unreachable from q2.
        let hit = affected_queries(&g, &[edges[1]], &queries, &cfg);
        assert_eq!(hit, vec![queries[0]]);
    }

    #[test]
    fn change_beyond_l_hops_does_not_affect() {
        let (g, queries, edges) = chain();
        // c->d lies on q1-walks of length 4; with L = 3 it is out of range.
        let cfg = SimilarityConfig::new(0.15, 3);
        let hit = affected_queries(&g, &[edges[3]], &queries, &cfg);
        assert!(!hit.contains(&queries[0]), "{hit:?}");
        // q2 -> d: the edge c->d is NOT on q2's walks (q2 reaches d, but
        // c is not reachable from q2), so q2 is unaffected too.
        assert!(hit.is_empty(), "{hit:?}");
    }

    #[test]
    fn direct_edge_affects_its_query() {
        let (g, queries, edges) = chain();
        let cfg = SimilarityConfig::new(0.15, 2);
        let hit = affected_queries(&g, &[edges[4]], &queries, &cfg);
        assert_eq!(hit, vec![queries[1]]);
    }

    #[test]
    fn multiple_changes_union_their_queries() {
        let (g, queries, edges) = chain();
        let cfg = SimilarityConfig::new(0.15, 5);
        let hit = affected_queries(&g, &[edges[1], edges[4]], &queries, &cfg);
        assert_eq!(hit, queries);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        let (g, queries, edges) = chain();
        let cfg = SimilarityConfig::default();
        assert!(affected_queries(&g, &[], &queries, &cfg).is_empty());
        assert!(affected_queries(&g, &edges, &[], &cfg).is_empty());
    }

    /// Soundness against the engine: if a query is NOT reported affected,
    /// changing the edge must not change any of its similarity scores.
    #[test]
    fn unaffected_queries_scores_are_invariant() {
        let (g, queries, edges) = chain();
        for l in 2..=5 {
            let cfg = SimilarityConfig::new(0.15, l);
            for &e in &edges {
                let hit = affected_queries(&g, &[e], &queries, &cfg);
                let mut g2 = g.clone();
                g2.set_weight(e, g.weight(e) * 0.5).unwrap();
                for &q in &queries {
                    if !hit.contains(&q) {
                        let before = crate::pdist::phi_vector(&g, q, &cfg);
                        let after = crate::pdist::phi_vector(&g2, q, &cfg);
                        assert_eq!(before, after, "edge {e:?}, L={l}, query {q}");
                    }
                }
            }
        }
    }
}
