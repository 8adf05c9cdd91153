//! Cache-coherence property: under *arbitrary* interleavings of weight
//! mutations, publishes (the cache moved by the writer at publish, or
//! left to the next reader), weight-snapshot captures and restores, lookups
//! against the latest or an older published snapshot, batched lookups,
//! and cache clears, a [`SnapshotServer`]'s output is bit-identical
//! (`f64::to_bits`) to an uncached [`kg_sim::rank_answers`] evaluation of
//! the snapshot it ranked against, at every step.
//!
//! This is the contract the whole serving design rests on — affected-set
//! eviction is only a performance trick if it can never serve a stale
//! ranking.

use kg_graph::{
    EdgeId, GraphBuilder, GraphSnapshot, KnowledgeGraph, NodeId, NodeKind, WeightSnapshot,
};
use kg_serve::{ServeConfig, SnapshotServer};
use kg_sim::{rank_answers, BatchQuery, RankedAnswer, SimilarityConfig};
use proptest::prelude::*;
use std::collections::HashSet;

const N_QUERIES: usize = 4;
const N_HUBS: usize = 10;
const N_ANSWERS: usize = 5;

/// Builds a layered graph (queries → hubs → hubs/answers) from a raw
/// edge-selector list, so topology itself is property-generated.
fn build_graph(edge_picks: &[(u8, u8, f64)]) -> (KnowledgeGraph, Vec<NodeId>, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let queries: Vec<NodeId> = (0..N_QUERIES)
        .map(|i| b.add_node(format!("q{i}"), NodeKind::Query))
        .collect();
    let hubs: Vec<NodeId> = (0..N_HUBS)
        .map(|i| b.add_node(format!("h{i}"), NodeKind::Entity))
        .collect();
    let answers: Vec<NodeId> = (0..N_ANSWERS)
        .map(|i| b.add_node(format!("a{i}"), NodeKind::Answer))
        .collect();
    let mut seen = HashSet::new();
    // Guarantee every query reaches at least one hub and every hub one
    // answer, then sprinkle the generated edges on top.
    for (i, &q) in queries.iter().enumerate() {
        b.add_edge(q, hubs[i % N_HUBS], 0.5).unwrap();
        seen.insert((q, hubs[i % N_HUBS]));
    }
    for (i, &h) in hubs.iter().enumerate() {
        b.add_edge(h, answers[i % N_ANSWERS], 0.5).unwrap();
        seen.insert((h, answers[i % N_ANSWERS]));
    }
    for &(from_sel, to_sel, w) in edge_picks {
        // Sources: queries then hubs. Targets: hubs then answers.
        let from = if (from_sel as usize) < N_QUERIES {
            queries[from_sel as usize]
        } else {
            hubs[(from_sel as usize - N_QUERIES) % N_HUBS]
        };
        let to = if (to_sel as usize) < N_HUBS {
            hubs[to_sel as usize]
        } else {
            answers[(to_sel as usize - N_HUBS) % N_ANSWERS]
        };
        if from != to && seen.insert((from, to)) {
            b.add_edge(from, to, w).unwrap();
        }
    }
    (b.build(), queries, answers)
}

/// Bitwise comparison against the uncached oracle — `==` on `f64` would
/// let `-0.0`/`0.0` confusions slide.
fn bits_equal(served: &[RankedAnswer], oracle: &[RankedAnswer]) -> Result<(), String> {
    if served.len() != oracle.len() {
        return Err(format!(
            "length mismatch: served {} vs oracle {}",
            served.len(),
            oracle.len()
        ));
    }
    for (s, o) in served.iter().zip(oracle) {
        if s.node != o.node || s.rank != o.rank || s.score.to_bits() != o.score.to_bits() {
            return Err(format!("entry diverged: served {s:?} vs oracle {o:?}"));
        }
    }
    Ok(())
}

/// One step of the interleaving, decoded from generated integers:
/// `0` → set a weight on the writer's graph, `1` → publish it,
/// `2` → rank against the latest snapshot, `3` → batch rank against it,
/// `4` → capture the writer's weights, `5` → restore the captured
/// weights and publish (the version moves forward), `6` → rank against
/// an older published snapshot, `7` → clear the cache, `8` → publish
/// the way the framework's writer does: advance the cache to the new
/// snapshot first (`1` leaves the advance to the next reader).
type Op = (u8, u8, f64, u8);

fn arb_scenario() -> impl Strategy<Value = (Vec<(u8, u8, f64)>, Vec<Op>)> {
    (
        proptest::collection::vec(
            (
                0u8..(N_QUERIES + N_HUBS) as u8,
                0u8..(N_HUBS + N_ANSWERS) as u8,
                0.05f64..1.0,
            ),
            0..60,
        ),
        proptest::collection::vec((0u8..9, 0u8..64, 0.05f64..1.0, 1u8..6), 1..48),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn server_is_always_bit_identical_to_uncached_ranking(
        (edge_picks, ops) in arb_scenario()
    ) {
        let (mut graph, queries, answers) = build_graph(&edge_picks);
        let sim = SimilarityConfig::default();
        let server = SnapshotServer::new(ServeConfig { sim, workers: 2 });
        let edge_ids: Vec<EdgeId> = graph.edges().map(|e| e.edge).collect();
        // Every snapshot published so far, oldest first; the last one is
        // the latest.
        let mut published: Vec<GraphSnapshot> = vec![graph.publish()];
        let mut captured: Option<WeightSnapshot> = None;
        let mut rank_ops = 0u64;

        for &(op, sel, weight, k) in &ops {
            let k = k as usize;
            let q = queries[sel as usize % queries.len()];
            match op {
                0 => {
                    let e = edge_ids[sel as usize % edge_ids.len()];
                    graph.set_weight(e, weight).unwrap();
                }
                1 => published.push(graph.publish()),
                2 => {
                    let snap = published.last().unwrap();
                    let got = server.rank_at(snap, q, &answers, k);
                    let want = rank_answers(snap, q, &answers, &sim, k);
                    prop_assert!(bits_equal(&got, &want).is_ok(),
                        "rank_at query {}: {}", q, bits_equal(&got, &want).unwrap_err());
                    rank_ops += 1;
                }
                3 => {
                    let snap = published.last().unwrap();
                    let requests: Vec<BatchQuery> = queries
                        .iter()
                        .map(|&q| BatchQuery { query: q, answers: &answers, k })
                        .collect();
                    let got = server.rank_batch_at(snap, &requests);
                    for (i, &q) in queries.iter().enumerate() {
                        let want = rank_answers(snap, q, &answers, &sim, k);
                        prop_assert!(bits_equal(&got[i], &want).is_ok(),
                            "rank_batch_at query {}: {}", q, bits_equal(&got[i], &want).unwrap_err());
                    }
                    rank_ops += queries.len() as u64;
                }
                4 => captured = Some(WeightSnapshot::capture(&graph)),
                5 => {
                    if let Some(c) = &captured {
                        c.restore(&mut graph);
                        published.push(graph.publish());
                    }
                }
                6 => {
                    let snap = &published[sel as usize % published.len()];
                    let got = server.rank_at(snap, q, &answers, k);
                    let want = rank_answers(snap, q, &answers, &sim, k);
                    prop_assert!(bits_equal(&got, &want).is_ok(),
                        "older snapshot at epoch {}: {}", snap.epoch(),
                        bits_equal(&got, &want).unwrap_err());
                    rank_ops += 1;
                }
                7 => server.clear(),
                _ => {
                    let snap = graph.publish();
                    server.advance(&snap);
                    published.push(snap);
                }
            }
        }
        // Every rank op is accounted for as exactly one hit or one miss.
        let stats = server.stats();
        prop_assert_eq!(stats.hits + stats.misses, rank_ops);
        prop_assert_eq!(stats.repaired, 0);
    }
}
