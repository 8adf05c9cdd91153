//! Reusable, allocation-free scratch state for the phi kernel.
//!
//! [`crate::phi_vector`] is correct but serves each query with three fresh
//! `n`-sized allocations plus an `O(n)` zero-fill — fine for one-off
//! experiments, fatal for a serving loop that re-ranks thousands of
//! queries between vote rounds. [`PhiWorkspace`] keeps the dense scratch
//! buffers alive across queries and replaces the zero-fills with *epoch
//! marking*: every buffer slot carries the token of the pass that last
//! wrote it, so "clearing" a buffer is a single counter increment. Once
//! the workspace has warmed up on a graph (buffers grown to `n`, frontier
//! and ranking scratch at their high-water marks), a query evaluates with
//! **zero heap allocations** — verified by the counting-allocator test in
//! `tests/no_alloc_phi.rs`.
//!
//! The propagation itself is the same sparse frontier DP as
//! [`crate::phi_vector`] (which is now a thin wrapper over this type) and
//! produces bitwise-identical scores for `prune_eps = 0`.

use crate::config::SimilarityConfig;
use crate::topk::{by_score_then_id, RankedAnswer};
use kg_graph::{KnowledgeGraph, NodeId};

/// Dense scratch buffers for repeated phi evaluations.
///
/// ```
/// use kg_graph::{GraphBuilder, NodeKind};
/// use kg_sim::{PhiWorkspace, SimilarityConfig};
///
/// let mut b = GraphBuilder::new();
/// let q = b.add_node("q", NodeKind::Query);
/// let e = b.add_node("e", NodeKind::Entity);
/// let a = b.add_node("a", NodeKind::Answer);
/// b.add_edge(q, e, 1.0).unwrap();
/// b.add_edge(e, a, 0.5).unwrap();
/// let g = b.build();
///
/// let cfg = SimilarityConfig::default();
/// let mut ws = PhiWorkspace::new();
/// ws.compute(&g, q, &cfg);
/// assert!((ws.phi(a) - 0.5 * 0.15 * 0.85f64.powi(2)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhiWorkspace {
    // phi accumulator; valid where `phi_stamp == phi_token`.
    phi: Vec<f64>,
    phi_stamp: Vec<u64>,
    // Nodes with a valid phi entry this pass, in first-touch order.
    touched: Vec<NodeId>,
    // Current / next level walk mass. Reads go through the active lists,
    // so only `next` needs stamping (one fresh token per level).
    mass: Vec<f64>,
    next_mass: Vec<f64>,
    mass_stamp: Vec<u64>,
    next_stamp: Vec<u64>,
    active: Vec<NodeId>,
    next_active: Vec<NodeId>,
    // Ranking scratch for `rank_into`.
    scored: Vec<(NodeId, f64)>,
    // Monotonic token source; bumped once per pass and once per level.
    token: u64,
    // Token of the most recent `compute` pass (guards phi reads).
    phi_token: u64,
    // Node count the buffers are sized for.
    n: usize,
    // Upper bound on the phi error introduced by `prune_eps` this pass.
    pruned_bound: f64,
    // Edges expanded by the most recent pass (the pass's work measure).
    edge_ops: u64,
}

impl PhiWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for a graph with `n` nodes.
    pub fn with_node_capacity(n: usize) -> Self {
        let mut ws = Self::default();
        ws.ensure_capacity(n);
        ws
    }

    fn ensure_capacity(&mut self, n: usize) {
        if self.n >= n {
            return;
        }
        self.phi.resize(n, 0.0);
        self.phi_stamp.resize(n, 0);
        self.mass.resize(n, 0.0);
        self.next_mass.resize(n, 0.0);
        self.mass_stamp.resize(n, 0);
        self.next_stamp.resize(n, 0);
        self.n = n;
    }

    /// Computes `Φ(query, ·)` by sparse frontier propagation, leaving the
    /// result readable through [`Self::phi`] until the next pass. Frontier
    /// entries with mass below `cfg.prune_eps` are dropped (and accounted
    /// in [`Self::pruned_bound`]); with the default `prune_eps = 0` the
    /// scores are bitwise-identical to [`crate::phi_vector`].
    pub fn compute(&mut self, graph: &KnowledgeGraph, query: NodeId, cfg: &SimilarityConfig) {
        assert!(
            query.index() < graph.node_count(),
            "query node {query} out of range"
        );
        self.ensure_capacity(graph.node_count());
        let c = cfg.restart;
        let eps = cfg.prune_eps;
        self.pruned_bound = 0.0;
        self.edge_ops = 0;

        self.token += 1;
        self.phi_token = self.token;
        self.touched.clear();
        self.active.clear();

        // The length-0 walk.
        self.phi[query.index()] = c;
        self.phi_stamp[query.index()] = self.phi_token;
        self.touched.push(query);

        self.mass[query.index()] = 1.0;
        self.active.push(query);

        let mut decay = 1.0;
        for _level in 1..=cfg.max_path_len {
            decay *= 1.0 - c;
            self.token += 1;
            let level_token = self.token;
            self.next_active.clear();
            for ai in 0..self.active.len() {
                let u = self.active[ai];
                let m = self.mass[u.index()];
                if m == 0.0 {
                    continue;
                }
                if m < eps {
                    // Everything this mass could still contribute — levels
                    // `_level..=L`, never amplified on a row-stochastic
                    // graph — is at most `m · (1-c)^_level = m · decay`.
                    self.pruned_bound += m * decay;
                    continue;
                }
                // One contiguous CSR row per source: targets and weights
                // sit side by side in slot order, so the hot loop runs two
                // parallel streams instead of chasing `weights[edge_id]`.
                let (targets, weights) = graph.out_row(u);
                self.edge_ops += targets.len() as u64;
                for (&t, &w) in targets.iter().zip(weights) {
                    let idx = t.index();
                    if self.next_stamp[idx] != level_token {
                        self.next_stamp[idx] = level_token;
                        self.next_mass[idx] = 0.0;
                        self.next_active.push(t);
                    }
                    self.next_mass[idx] += m * w;
                }
            }
            for ni in 0..self.next_active.len() {
                let v = self.next_active[ni];
                let i = v.index();
                if self.phi_stamp[i] != self.phi_token {
                    self.phi_stamp[i] = self.phi_token;
                    self.phi[i] = 0.0;
                    self.touched.push(v);
                }
                self.phi[i] += c * decay * self.next_mass[i];
            }
            std::mem::swap(&mut self.mass, &mut self.next_mass);
            std::mem::swap(&mut self.mass_stamp, &mut self.next_stamp);
            std::mem::swap(&mut self.active, &mut self.next_active);
            if self.active.is_empty() {
                break;
            }
        }
    }

    /// The score `Φ(query, node)` of the most recent [`Self::compute`]
    /// pass (`0.0` for nodes the walk never reached).
    #[inline]
    pub fn phi(&self, node: NodeId) -> f64 {
        let i = node.index();
        if i < self.n && self.phi_stamp[i] == self.phi_token {
            self.phi[i]
        } else {
            0.0
        }
    }

    /// Nodes with non-trivial phi mass this pass, in first-touch order.
    pub fn reached(&self) -> &[NodeId] {
        &self.touched
    }

    /// Upper bound on `|Φ_exact − Φ_pruned|` for any single node, valid on
    /// row-stochastic graphs: the total future contribution of every
    /// frontier entry dropped by `prune_eps` in the most recent pass.
    /// `0.0` when `prune_eps = 0`.
    pub fn pruned_bound(&self) -> f64 {
        self.pruned_bound
    }

    /// Number of edges expanded by the most recent pass — the kernel's
    /// work measure.
    pub fn edge_ops(&self) -> u64 {
        self.edge_ops
    }

    /// Writes the dense `Φ(query, ·)` vector of the most recent pass into
    /// `out` (resized to the graph's node count).
    pub fn write_phi_dense(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.n, 0.0);
        for &v in &self.touched {
            out[v.index()] = self.phi[v.index()];
        }
    }

    /// Evaluates the query and writes the top-`k` ranked `answers` into
    /// `out` (cleared first), with the same ordering and tie-breaking as
    /// [`crate::rank_answers`]. Allocation-free once warm: reuses the
    /// workspace's internal ranking scratch and `out`'s capacity.
    pub fn rank_into(
        &mut self,
        graph: &KnowledgeGraph,
        query: NodeId,
        answers: &[NodeId],
        cfg: &SimilarityConfig,
        k: usize,
        out: &mut Vec<RankedAnswer>,
    ) {
        self.compute(graph, query, cfg);
        self.rank_current_into(answers, k, out);
    }

    /// Ranks `answers` against the scores of the most recent compute pass
    /// without re-evaluating the query.
    pub fn rank_current_into(&mut self, answers: &[NodeId], k: usize, out: &mut Vec<RankedAnswer>) {
        let mut scored = std::mem::take(&mut self.scored);
        scored.clear();
        scored.extend(answers.iter().map(|&a| (a, self.phi(a))));
        scored.sort_unstable_by(by_score_then_id);
        scored.truncate(k);
        out.clear();
        out.extend(
            scored
                .iter()
                .enumerate()
                .map(|(i, &(node, score))| RankedAnswer {
                    node,
                    score,
                    rank: i + 1,
                }),
        );
        self.scored = scored;
    }
}

thread_local! {
    /// One warm workspace per thread, for callers that serve queries
    /// from `&self` contexts (the concurrent score server) and cannot
    /// hold a mutable workspace of their own.
    static LOCAL_WORKSPACE: std::cell::RefCell<PhiWorkspace> =
        std::cell::RefCell::new(PhiWorkspace::new());
}

/// Runs `f` with this thread's private [`PhiWorkspace`]. The workspace
/// stays warm across calls on the same thread, so repeated evaluations
/// are allocation-free just like a long-lived owned workspace.
///
/// Do not call [`with_local_workspace`] again from inside `f` — the
/// workspace is exclusively borrowed for the duration of the call.
pub fn with_local_workspace<R>(f: impl FnOnce(&mut PhiWorkspace) -> R) -> R {
    LOCAL_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::rank_answers;
    use kg_graph::{GraphBuilder, NodeKind};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The pre-workspace `phi_vector` implementation, kept verbatim as an
    /// independent reference: `crate::phi_vector` is now a wrapper over
    /// [`PhiWorkspace`], so comparing against it would be circular.
    fn reference_phi(graph: &KnowledgeGraph, query: NodeId, cfg: &SimilarityConfig) -> Vec<f64> {
        let n = graph.node_count();
        let c = cfg.restart;
        let mut phi = vec![0.0f64; n];
        let mut mass = vec![0.0f64; n];
        let mut active: Vec<NodeId> = vec![query];
        mass[query.index()] = 1.0;
        phi[query.index()] = c;
        let mut next_mass = vec![0.0f64; n];
        let mut next_active: Vec<NodeId> = Vec::new();
        let mut decay = 1.0;
        for _level in 1..=cfg.max_path_len {
            decay *= 1.0 - c;
            next_active.clear();
            for &u in &active {
                let m = mass[u.index()];
                if m == 0.0 {
                    continue;
                }
                for e in graph.out_edges(u) {
                    let idx = e.to.index();
                    if next_mass[idx] == 0.0 {
                        next_active.push(e.to);
                    }
                    next_mass[idx] += m * e.weight;
                }
            }
            for &v in &next_active {
                phi[v.index()] += c * decay * next_mass[v.index()];
            }
            for &u in &active {
                mass[u.index()] = 0.0;
            }
            std::mem::swap(&mut mass, &mut next_mass);
            std::mem::swap(&mut active, &mut next_active);
            if active.is_empty() {
                break;
            }
        }
        phi
    }

    /// A two-layer random graph: queries -> hubs -> answers plus random
    /// hub-hub links, out-normalized so the pruning bound applies.
    fn random_graph(seed: u64) -> (KnowledgeGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        let queries: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(format!("q{i}"), NodeKind::Query))
            .collect();
        let hubs: Vec<NodeId> = (0..12)
            .map(|i| b.add_node(format!("h{i}"), NodeKind::Entity))
            .collect();
        let answers: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(format!("a{i}"), NodeKind::Answer))
            .collect();
        for &q in &queries {
            for &h in &hubs {
                if rng.gen::<f64>() < 0.5 {
                    b.add_edge(q, h, rng.gen::<f64>() + 0.01).unwrap();
                }
            }
        }
        for &h in &hubs {
            for &h2 in &hubs {
                if h != h2 && rng.gen::<f64>() < 0.2 {
                    b.add_edge(h, h2, rng.gen::<f64>() + 0.01).unwrap();
                }
            }
            for &a in &answers {
                if rng.gen::<f64>() < 0.4 {
                    b.add_edge(h, a, rng.gen::<f64>() + 0.01).unwrap();
                }
            }
        }
        let mut g = b.build();
        g.normalize_out_edges();
        (g, queries, answers)
    }

    #[test]
    fn matches_phi_vector_bitwise() {
        for seed in 0..5 {
            let (g, queries, _) = random_graph(seed);
            let cfg = SimilarityConfig::default();
            let mut ws = PhiWorkspace::new();
            let mut dense = Vec::new();
            for &q in &queries {
                let reference = reference_phi(&g, q, &cfg);
                ws.compute(&g, q, &cfg);
                ws.write_phi_dense(&mut dense);
                assert_eq!(reference, dense, "seed {seed}, query {q}");
            }
        }
    }

    #[test]
    fn workspace_reuse_across_graphs_of_different_sizes() {
        let (big, queries, _) = random_graph(1);
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let a = b.add_node("a", NodeKind::Answer);
        b.add_edge(q, a, 1.0).unwrap();
        let small = b.build();

        let mut ws = PhiWorkspace::new();
        ws.compute(&big, queries[0], &SimilarityConfig::default());
        // Shrinking to a smaller graph must not leak stale mass.
        ws.compute(&small, q, &SimilarityConfig::default());
        let reference = reference_phi(&small, q, &SimilarityConfig::default());
        let mut dense = Vec::new();
        ws.write_phi_dense(&mut dense);
        assert_eq!(&dense[..reference.len()], reference.as_slice());
        assert_eq!(dense[a.index()], reference[a.index()]);
    }

    #[test]
    fn rank_into_matches_rank_answers() {
        for seed in 0..5 {
            let (g, queries, answers) = random_graph(seed);
            let cfg = SimilarityConfig::default();
            let mut ws = PhiWorkspace::new();
            let mut out = Vec::new();
            for &q in &queries {
                for k in [1, 3, answers.len()] {
                    let reference = rank_answers(&g, q, &answers, &cfg, k);
                    ws.rank_into(&g, q, &answers, &cfg, k, &mut out);
                    assert_eq!(reference, out, "seed {seed}, query {q}, k {k}");
                }
            }
        }
    }

    #[test]
    fn prune_eps_zero_is_exact_and_bound_is_zero() {
        let (g, queries, _) = random_graph(2);
        let cfg = SimilarityConfig::default();
        let mut ws = PhiWorkspace::new();
        ws.compute(&g, queries[0], &cfg);
        assert_eq!(ws.pruned_bound(), 0.0);
    }

    /// The satellite's error-bound contract: with pruning on, every score
    /// differs from the exact one by at most the reported bound.
    #[test]
    fn prune_eps_error_is_within_reported_bound() {
        for seed in 0..8 {
            let (g, queries, _) = random_graph(seed);
            for eps in [1e-6, 1e-4, 1e-2] {
                let exact = SimilarityConfig::default();
                let pruned = exact.with_prune_eps(eps);
                let mut ws = PhiWorkspace::new();
                for &q in &queries {
                    let reference = reference_phi(&g, q, &exact);
                    ws.compute(&g, q, &pruned);
                    let bound = ws.pruned_bound();
                    let mut dense = Vec::new();
                    ws.write_phi_dense(&mut dense);
                    for (i, (&got, &want)) in dense.iter().zip(&reference).enumerate() {
                        assert!(
                            (got - want).abs() <= bound + 1e-15,
                            "seed {seed}, eps {eps}, query {q}, node {i}: \
                             |{got} - {want}| > bound {bound}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_actually_drops_work_at_coarse_eps() {
        let (g, queries, _) = random_graph(3);
        let coarse = SimilarityConfig::default().with_prune_eps(0.05);
        let mut ws = PhiWorkspace::new();
        let mut any_pruned = false;
        for &q in &queries {
            ws.compute(&g, q, &coarse);
            any_pruned |= ws.pruned_bound() > 0.0;
        }
        assert!(any_pruned, "eps = 0.05 should prune something");
    }

    #[test]
    fn evaluating_a_snapshot_matches_the_graph_it_froze() {
        let (mut g, queries, answers) = random_graph(4);
        let cfg = SimilarityConfig::default();
        let snap = g.publish();
        let mut ws = PhiWorkspace::new();
        let mut frozen = Vec::new();
        let mut live = Vec::new();
        for &q in &queries {
            ws.rank_into(&snap, q, &answers, &cfg, answers.len(), &mut frozen);
            ws.rank_into(&g, q, &answers, &cfg, answers.len(), &mut live);
            assert_eq!(frozen, live, "query {q}");
        }
        // Mutate the live graph: the snapshot's evaluation is unchanged.
        let e = kg_graph::EdgeId(0);
        g.set_weight(e, g.weight(e) * 0.5 + 0.01).unwrap();
        for &q in &queries {
            ws.rank_into(&snap, q, &answers, &cfg, answers.len(), &mut frozen);
            ws.rank_into(&g, q, &answers, &cfg, answers.len(), &mut live);
            let reference = rank_answers(&snap, q, &answers, &cfg, answers.len());
            assert_eq!(frozen, reference, "snapshot drifted for query {q}");
        }
    }

    #[test]
    fn local_workspace_is_reused_and_correct() {
        let (g, queries, answers) = random_graph(5);
        let cfg = SimilarityConfig::default();
        for &q in &queries {
            let got = with_local_workspace(|ws| {
                let mut out = Vec::new();
                ws.rank_into(&g, q, &answers, &cfg, answers.len(), &mut out);
                out
            });
            assert_eq!(got, rank_answers(&g, q, &answers, &cfg, answers.len()));
        }
    }

    #[test]
    fn phi_of_unreached_node_is_zero() {
        let mut b = GraphBuilder::new();
        let q = b.add_node("q", NodeKind::Query);
        let a = b.add_node("a", NodeKind::Answer);
        let island = b.add_node("island", NodeKind::Entity);
        b.add_edge(q, a, 1.0).unwrap();
        let g = b.build();
        let mut ws = PhiWorkspace::new();
        ws.compute(&g, q, &SimilarityConfig::default());
        assert_eq!(ws.phi(island), 0.0);
        assert!(ws.phi(a) > 0.0);
        assert_eq!(ws.reached().first(), Some(&q));
    }
}
