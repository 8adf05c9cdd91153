//! The traced run's layer replay. It re-runs a workload's inputs through
//! each layer's public functions, timing every call from here; the program
//! itself carries no tracing. Each round is replayed right after the wire
//! round it mirrors, so both see the same stretch of host time, and counts
//! only when it reproduces that round (votes, edges changed, Ω, epoch and
//! weight CRC), so its timings describe the work the workload did.

use crate::sched::{Universe, CLUSTER_PROBE_VOTES, TOP_K};
use crate::stats::median;
use crate::workload::{ms, us, Ctx, Live, Outcome, Samples};
use kg_cluster::merge::apply_merged;
use kg_cluster::{
    affinity_propagation, merge_deltas, solve_split_merge, vote_footprint, vote_similarity_matrix,
    ClusterDelta, SplitMergeOptions,
};
use kg_graph::io::{read_snapshot_file, weights_crc, write_snapshot_file};
use kg_graph::{KnowledgeGraph, NodeId, SharedGraph, WeightSnapshot};
use kg_serve::{ServeConfig, SnapshotServer};
use kg_sim::{affected_queries, BatchQuery, PhiWorkspace};
use kg_votes::encode::encode_multi;
use kg_votes::report::{NormalizeMode, OptimizationReport, SolveOutcome};
use kg_votes::single::{normalize_after, validate_votes};
use kg_votes::solver_choice::run_solver_resilient;
use kg_votes::wal::{replay_wal_bytes, RoundRecord, VoteWal};
use kg_votes::{solve_multi_votes, Vote, VoteSet};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use votekg::{DurableOptions, Framework, FrameworkConfig};

/// The exact outcome of one optimization round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundObs {
    pub votes: usize,
    pub edges: usize,
    pub omega: i64,
    pub crc: u32,
    pub epoch: u64,
}

fn votes_of(uni: &Universe, idx: &[usize]) -> Vec<Vote> {
    idx.iter().map(|&i| uni.votes[i].clone()).collect()
}

/// A query node no pool question uses, for probing the cache without
/// touching any entry the workload reads.
fn probe_query(uni: &Universe) -> NodeId {
    (0..uni.graph.node_count() as u32)
        .map(NodeId)
        .find(|n| uni.questions.iter().all(|q| q.query != *n))
        .expect("graph has a node that is not a pool query")
}

/// In-process reads of `order` through the live server's `ServeHandle`
/// after the wire served the same sequence, so every read is a hit.
/// Returns the p50.
pub fn serve_mirror(uni: &Universe, live: &Live, order: &[usize], out: &mut Outcome) -> f64 {
    let handle = live.server.handle();
    let before = handle.stats();
    let mut inproc = Vec::with_capacity(order.len());
    for &qi in order {
        let q = &uni.questions[qi];
        let t = Instant::now();
        let (_, ranking) = handle.rank_snapshot(q.query, &q.answers, TOP_K);
        inproc.push(us(t));
        std::hint::black_box(ranking);
    }
    let misses = handle.stats().misses - before.misses;
    out.check(misses == 0, || {
        format!("mirror reads missed {misses} times")
    });
    let p50 = median(&inproc);
    out.set("kg-serve.hit_p50_us", p50);
    p50
}

/// Per-call timings and counts of every replayed round.
#[derive(Default)]
pub struct RoundTimes {
    encode_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    capture_us: Vec<f64>,
    publish_us: Vec<f64>,
    changes_us: Vec<f64>,
    affected_us: Vec<f64>,
    first_us: Vec<f64>,
    crc_us: Vec<f64>,
    commit_us: Vec<f64>,
    snapshot_write_ms: Vec<f64>,
    wal_rewrite_ms: Vec<f64>,
    unattributed_ms: Vec<f64>,
    constraints: usize,
    inner_iters: usize,
    applied: usize,
    edges: usize,
    reproduced: usize,
}

impl RoundTimes {
    /// The per-layer metrics of every round replayed so far.
    pub fn report(&self, out: &mut Outcome) {
        let med = |v: &[f64]| (!v.is_empty()).then(|| median(v));
        for (name, value) in [
            ("kg-votes.encode_ms", med(&self.encode_ms)),
            ("sgp.solve_ms", med(&self.solve_ms)),
            ("kg-graph.capture_us", med(&self.capture_us)),
            ("kg-graph.publish_us", med(&self.publish_us)),
            ("kg-graph.changes_since_us", med(&self.changes_us)),
            ("kg-graph.weights_crc_us", med(&self.crc_us)),
            ("kg-graph.snapshot_write_ms", med(&self.snapshot_write_ms)),
            ("kg-sim.affected_us", med(&self.affected_us)),
            ("kg-serve.first_after_publish_us", med(&self.first_us)),
            ("kg-votes.commit_round_us", med(&self.commit_us)),
            ("kg-votes.wal_rewrite_ms", med(&self.wal_rewrite_ms)),
            ("core.round_unattributed_ms", med(&self.unattributed_ms)),
        ] {
            if let Some(v) = value {
                out.set(name, v);
            }
        }
        out.set("kg-votes.constraints", self.constraints as f64);
        out.set("kg-graph.edges_changed", self.edges as f64);
        out.set("sgp.inner_iters", self.inner_iters as f64);
        out.set(
            "sgp.applied_frac",
            self.applied as f64 / self.solve_ms.len().max(1) as f64,
        );
        out.count("replay_rounds_reproduced", self.reproduced);
    }
}

/// A mirror of one served durable framework's multi-vote rounds on a
/// private graph, shared snapshot, cache and scratch WAL. Each round runs
/// one layer call at a time as `Framework::optimize_incremental_durable`
/// sequences it, durable commit and checkpoints included, right after the
/// wire round it mirrors, so both are timed in the same stretch of host
/// time.
pub struct Replayer {
    g: KnowledgeGraph,
    shared: SharedGraph,
    server: SnapshotServer,
    wal: VoteWal,
    wal_path: PathBuf,
    snap_path: PathBuf,
    committed: u64,
    commits: usize,
    probe: NodeId,
    read_us: Vec<f64>,
}

impl Replayer {
    /// A mirror of a framework just set up: every question read once.
    pub fn new(ctx: &Ctx, uni: &Universe) -> Result<Replayer, String> {
        let g = uni.graph.clone();
        let shared = SharedGraph::new(g.clone());
        let server = SnapshotServer::new(ServeConfig {
            sim: FrameworkConfig::default().sim(),
            ..ServeConfig::default()
        });
        let snap0 = shared.snapshot();
        for q in &uni.questions {
            server.rank_at(&snap0, q.query, &q.answers, TOP_K);
        }
        let wal_path = ctx.work.join("replay.wal");
        let wal = VoteWal::create(&wal_path, &g).map_err(|e| format!("replay wal: {e}"))?;
        Ok(Replayer {
            committed: g.version(),
            g,
            shared,
            server,
            wal,
            wal_path,
            snap_path: ctx.work.join("replay.vkgs"),
            commits: 0,
            probe: probe_query(uni),
            read_us: Vec::new(),
        })
    }

    /// Replays one round of `batch` (vote-pool indices). It must reproduce
    /// `wire`, the wire round's outcome and client time; then, when given,
    /// `reads` are timed in process against the round's snapshot.
    pub fn round(
        &mut self,
        uni: &Universe,
        batch: &[usize],
        wire: Option<(&RoundObs, f64)>,
        reads: Option<&[usize]>,
        t: &mut RoundTimes,
        out: &mut Outcome,
    ) {
        let cfg = FrameworkConfig::default();
        let sim = cfg.sim();
        let g = &mut self.g;
        let votes = votes_of(uni, batch);
        // The votes were appended and synced when they were acked.
        for v in &votes {
            out.op(self
                .wal
                .append_vote(v)
                .map_err(|e| format!("replay wal: {e}")));
        }
        out.op(self.wal.sync().map_err(|e| format!("replay wal: {e}")));

        // kg-votes and sgp, probed on this round's program.
        let c = Instant::now();
        let prog = encode_multi(g, &votes, &cfg.multi.encode, &cfg.multi.params);
        t.encode_ms.push(ms(c));
        t.constraints += prog.problem.n_constraints() + prog.vote_margins.len();
        if prog.problem.n_vars() > 0 {
            let c = Instant::now();
            let solved = run_solver_resilient(
                &prog.problem,
                &cfg.multi.solve,
                cfg.multi.use_auglag,
                cfg.multi.inner,
                &cfg.multi.retry,
            );
            t.solve_ms.push(ms(c));
            t.inner_iters += solved.result.as_ref().map_or(0, |r| r.inner_iterations);
            t.applied += usize::from(matches!(solved.outcome, SolveOutcome::Applied));
        }

        // The round itself.
        let c = Instant::now();
        std::hint::black_box(WeightSnapshot::capture(g));
        let capture_us = us(c);
        let version_before = g.version();
        let c = Instant::now();
        let report = solve_multi_votes(g, &VoteSet::from_votes(votes.clone()), &cfg.multi);
        let pipeline_ms = ms(c);
        let c = Instant::now();
        let snap = self.shared.publish(g);
        let publish_us = us(c);
        let c = Instant::now();
        let delta = g.changes_since(version_before);
        let changes_us = us(c);
        let mut queries: Vec<&Vote> = Vec::new();
        for v in &votes {
            if !queries.iter().any(|q| q.query == v.query) {
                queries.push(v);
            }
        }
        let query_ids: Vec<NodeId> = queries.iter().map(|v| v.query).collect();
        let c = Instant::now();
        let affected = if delta.is_empty() {
            Vec::new()
        } else {
            affected_queries(g, &delta.edges, &query_ids, &sim)
        };
        let affected_us = us(c);
        let requests: Vec<BatchQuery<'_>> = queries
            .iter()
            .filter(|v| affected.contains(&v.query))
            .map(|v| BatchQuery {
                query: v.query,
                answers: &v.answers,
                k: v.answers.len(),
            })
            .collect();
        let c = Instant::now();
        self.server.rank_batch_at(&snap, &requests);
        let rerank_us = us(c);

        // The durable commit: the delta since the last commit, the CRC of
        // every weight, the fsynced round record, and a checkpoint every
        // `snapshot_every` commits.
        let c = Instant::now();
        let since = g.changes_since(self.committed);
        let deltas: Vec<(u32, u64)> = since
            .edges
            .iter()
            .map(|&e| (e.0, g.weight(e).to_bits()))
            .collect();
        let commit_changes_us = us(c);
        let c = Instant::now();
        let crc = weights_crc(g);
        let crc_us = us(c);
        let record = RoundRecord {
            version_before: self.committed,
            version_after: g.version(),
            votes_consumed: votes.len(),
            deltas,
            weights_crc: crc,
        };
        let c = Instant::now();
        out.op(self
            .wal
            .commit_round(&record)
            .map_err(|e| format!("replay commit: {e}")));
        let commit_us = us(c);
        self.committed = g.version();
        self.commits += 1;
        let mut checkpoint_ms = 0.0;
        if self.commits >= DurableOptions::default().snapshot_every {
            let c = Instant::now();
            out.op(write_snapshot_file(&self.snap_path, g)
                .map_err(|e| format!("replay snapshot: {e}")));
            let write_ms = ms(c);
            let c = Instant::now();
            match VoteWal::rewrite(&self.wal_path, g, &VoteSet::default()) {
                Ok(w) => {
                    self.wal = w;
                    out.op(Ok(()));
                }
                Err(e) => out.op(Err(format!("replay rewrite: {e}"))),
            }
            let rewrite_ms = ms(c);
            t.snapshot_write_ms.push(write_ms);
            t.wal_rewrite_ms.push(rewrite_ms);
            checkpoint_ms = write_ms + rewrite_ms;
            self.commits = 0;
        }

        // Not part of the round: the first rank after the publish pays the
        // shard sync.
        let c = Instant::now();
        self.server
            .rank_at(&snap, self.probe, &uni.questions[0].answers, TOP_K);
        t.first_us.push(us(c));

        t.capture_us.push(capture_us);
        t.publish_us.push(publish_us);
        t.changes_us.extend([changes_us, commit_changes_us]);
        t.affected_us.push(affected_us);
        t.crc_us.push(crc_us);
        t.commit_us.push(commit_us);
        t.edges += delta.edges.len();
        let attributed_ms = pipeline_ms
            + checkpoint_ms
            + (capture_us
                + publish_us
                + changes_us
                + affected_us
                + rerank_us
                + commit_changes_us
                + crc_us
                + commit_us)
                / 1e3;
        let obs = RoundObs {
            votes: report.outcomes.len(),
            edges: report.edges_changed,
            omega: report.omega(),
            crc,
            epoch: g.version(),
        };
        match wire {
            Some((w, wire_ms)) if *w == obs => {
                t.reproduced += 1;
                t.unattributed_ms.push(wire_ms - attributed_ms);
            }
            w => out.fail(format!(
                "replayed round does not reproduce the workload's: {obs:?} vs {w:?}"
            )),
        }

        for &qi in reads.unwrap_or_default() {
            let q = &uni.questions[qi];
            let c = Instant::now();
            let ranking = self.server.rank_at(&snap, q.query, &q.answers, TOP_K);
            self.read_us.push(us(c));
            std::hint::black_box(ranking);
        }
    }

    /// The p50 of the timed in-process reads; removes the scratch files.
    pub fn finish(self) -> Option<f64> {
        let _ = std::fs::remove_file(&self.wal_path);
        let _ = std::fs::remove_file(&self.snap_path);
        (!self.read_us.is_empty()).then(|| median(&self.read_us))
    }
}

/// Per-phase times and results of one split-and-merge round, run as
/// `kg_cluster::solve_split_merge` sequences it (one worker).
struct Decomposed {
    footprint_ms: f64,
    similarity_ms: f64,
    nonzero_frac: f64,
    ap_ms: f64,
    ap_iters: usize,
    clusters: usize,
    solve_ms: f64,
    merge_ms: f64,
    edges: usize,
}

impl Decomposed {
    fn report(&self, out: &mut Outcome) {
        out.set("kg-cluster.footprint_ms", self.footprint_ms);
        out.set("kg-cluster.similarity_ms", self.similarity_ms);
        out.set("kg-cluster.sim_nonzero_frac", self.nonzero_frac);
        out.set("kg-cluster.ap_ms", self.ap_ms);
        out.set("kg-cluster.ap_iters", self.ap_iters as f64);
        out.set("kg-cluster.clusters", self.clusters as f64);
        out.set("kg-cluster.solve_ms", self.solve_ms);
        out.set("kg-cluster.merge_ms", self.merge_ms);
        out.count("probe_ap_iterations", self.ap_iters);
        out.count("probe_clusters", self.clusters);
    }
}

/// Share of vote pairs whose footprints share an edge, i.e. whose
/// similarity is nonzero. Counted from the footprints, so it does not
/// depend on how the similarity matrix is stored.
fn nonzero_pair_frac(footprints: &[Vec<kg_graph::EdgeId>]) -> f64 {
    let n = footprints.len();
    if n < 2 {
        return 0.0;
    }
    let mut by_edge: HashMap<kg_graph::EdgeId, Vec<usize>> = HashMap::new();
    for (i, fp) in footprints.iter().enumerate() {
        for &e in fp {
            by_edge.entry(e).or_default().push(i);
        }
    }
    let mut partners: Vec<Vec<usize>> = vec![Vec::new(); n];
    for members in by_edge.values() {
        for &a in members {
            partners[a].extend(members.iter().copied().filter(|&b| b > a));
        }
    }
    let pairs: usize = partners
        .iter_mut()
        .map(|p| {
            p.sort_unstable();
            p.dedup();
            p.len()
        })
        .sum();
    pairs as f64 / (n * (n - 1) / 2) as f64
}

fn decompose(graph: &mut KnowledgeGraph, votes: &VoteSet, opts: &SplitMergeOptions) -> Decomposed {
    let sim = opts.multi.encode.sim;
    let mut report = OptimizationReport::default();
    let ranks_before = validate_votes(graph, votes, &opts.multi.encode, &mut report);
    let valid: Vec<usize> = (0..votes.len())
        .filter(|&i| ranks_before[i].is_some())
        .collect();

    let t = Instant::now();
    let footprints: Vec<_> = valid
        .iter()
        .map(|&i| {
            vote_footprint(
                graph,
                &votes.votes[i],
                &sim,
                opts.multi.encode.max_expansions,
            )
        })
        .collect();
    let footprint_ms = ms(t);
    let nonzero_frac = nonzero_pair_frac(&footprints);
    let t = Instant::now();
    let similarity = vote_similarity_matrix(&footprints);
    let similarity_ms = ms(t);
    let t = Instant::now();
    let ap = affinity_propagation(&similarity, &opts.ap);
    let ap_ms = ms(t);
    drop(similarity);
    let clusters: Vec<Vec<usize>> = ap
        .clusters
        .iter()
        .map(|c| c.iter().map(|&local| valid[local]).collect())
        .collect();

    let baseline = WeightSnapshot::capture(graph);
    let mut cluster_opts = opts.multi.clone();
    cluster_opts.normalize = NormalizeMode::None;
    let t = Instant::now();
    let mut deltas = Vec::with_capacity(clusters.len());
    for members in &clusters {
        let mut local = graph.clone();
        let cluster_votes =
            VoteSet::from_votes(members.iter().map(|&vi| votes.votes[vi].clone()).collect());
        solve_multi_votes(&mut local, &cluster_votes, &cluster_opts);
        deltas.push(ClusterDelta {
            votes: cluster_votes.len(),
            deltas: baseline.diff(&local, 1e-12).into_iter().collect(),
        });
    }
    let solve_ms = ms(t);
    let t = Instant::now();
    let merged = merge_deltas(&deltas, opts.merge_rule);
    let changed = apply_merged(
        graph,
        &merged,
        opts.multi.encode.weight_lo,
        opts.multi.encode.weight_hi,
    );
    normalize_after(graph, &changed, opts.normalize);
    let merge_ms = ms(t);

    Decomposed {
        footprint_ms,
        similarity_ms,
        nonzero_frac,
        ap_ms,
        ap_iters: ap.iterations,
        clusters: clusters.len(),
        solve_ms,
        merge_ms,
        edges: changed.len(),
    }
}

/// Layer probes common to every workload, run after the workload on its
/// own inputs: `scheduled` are its votes in order, `dir` its final
/// durable directory.
pub fn probes(
    ctx: &Ctx,
    uni: &Universe,
    scheduled: &[usize],
    dir: &Path,
    s: &Samples,
    out: &mut Outcome,
) {
    let cfg = FrameworkConfig::default();
    let sample: Vec<usize> = scheduled
        .iter()
        .copied()
        .take(CLUSTER_PROBE_VOTES)
        .collect();
    let votes = votes_of(uni, &sample);

    // kg-cluster, which multi-vote rounds never call: the decomposed
    // round must match `solve_split_merge` on the same votes.
    let set = VoteSet::from_votes(votes.clone());
    let mut g = uni.graph.clone();
    let d = decompose(&mut g, &set, &cfg.split_merge);
    let mut reference = uni.graph.clone();
    let expect = solve_split_merge(&mut reference, &set, &cfg.split_merge);
    out.check(
        d.clusters == expect.clusters.len()
            && d.edges == expect.report.edges_changed
            && weights_crc(&g) == weights_crc(&reference),
        || "kg-cluster probe does not reproduce solve_split_merge".to_string(),
    );
    d.report(out);

    // kg-votes WAL: fsynced appends on a scratch log.
    let wal_path = ctx.work.join("probe.wal");
    match VoteWal::create(&wal_path, &uni.graph) {
        Ok(mut wal) => {
            let start = wal.offset();
            let mut t_sync = Vec::new();
            for v in &votes {
                let t = Instant::now();
                let r = wal.append_vote(v).and_then(|()| wal.sync());
                t_sync.push(us(t));
                out.op(r.map_err(|e| format!("probe wal: {e}")));
            }
            out.set("kg-votes.wal_sync_us", median(&t_sync));
            out.set(
                "kg-votes.wal_bytes_per_vote",
                (wal.offset() - start) as f64 / votes.len().max(1) as f64,
            );
        }
        Err(e) => out.op(Err(format!("probe wal: {e}"))),
    }

    // kg-votes replay and kg-graph snapshot load on the run's own files.
    let mut newest: Option<std::path::PathBuf> = None;
    if let Ok(entries) = std::fs::read_dir(dir) {
        let mut snaps: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "vkgs"))
            .collect();
        snaps.sort();
        newest = snaps.pop();
    }
    let base = match &newest {
        Some(p) => read_snapshot_file(p).map(|(g, _)| g).ok(),
        None => Some(uni.graph.clone()),
    };
    let wal = std::fs::read(dir.join("wal.log"));
    let mut final_graph = None;
    match (base, wal) {
        (Some(base), Ok(data)) => {
            let mut t_replay = Vec::new();
            for _ in 0..3 {
                let mut g = base.clone();
                let t = Instant::now();
                let r = replay_wal_bytes(&data, &mut g);
                t_replay.push(ms(t));
                out.op(r.map(|_| ()).map_err(|e| format!("wal replay: {e}")));
                final_graph = Some(g);
            }
            out.set("kg-votes.replay_ms", median(&t_replay));
        }
        _ => out.op(Err("cannot read the run's snapshot or WAL".to_string())),
    }
    let g = final_graph.unwrap_or_else(|| uni.graph.clone());
    if let Some(last) = s.rounds.last() {
        out.check(weights_crc(&g) == last.crc, || {
            "WAL replay does not reproduce the final weights".to_string()
        });
    }
    let snap_path = ctx.work.join("probe.vkgs");
    match write_snapshot_file(&snap_path, &g) {
        Ok(()) => {
            let mut t_load = Vec::new();
            for _ in 0..5 {
                let t = Instant::now();
                let r = read_snapshot_file(&snap_path);
                t_load.push(ms(t));
                out.op(r.map(|_| ()).map_err(|e| format!("snapshot load: {e}")));
            }
            out.set("kg-graph.snapshot_load_ms", median(&t_load));
        }
        Err(e) => out.op(Err(format!("snapshot write: {e}"))),
    }

    // core: durable in-process votes and checkpoints.
    let core_dir = ctx.work.join("probe-core");
    match Framework::open_durable(
        &core_dir,
        uni.graph.clone(),
        FrameworkConfig::default(),
        DurableOptions::default(),
    ) {
        Ok((mut fw, _)) => {
            let mut t_vote = Vec::new();
            for v in &votes {
                let v = v.clone();
                let t = Instant::now();
                let r = fw.record_vote_durable(v).and_then(|_| fw.sync_wal());
                t_vote.push(us(t));
                out.op(r.map_err(|e| format!("durable vote: {e}")));
            }
            out.set("core.vote_inproc_p50_us", median(&t_vote));
            let mut t_ckpt = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                let r = fw.checkpoint();
                t_ckpt.push(ms(t));
                out.op(r.map(|_| ()).map_err(|e| format!("checkpoint: {e}")));
            }
            out.set("core.checkpoint_ms", median(&t_ckpt));
        }
        Err(e) => out.op(Err(format!("probe framework: {e}"))),
    }

    // kg-sim: edge operations per uncached evaluation on the final graph.
    let sim = cfg.sim();
    let mut ws = PhiWorkspace::new();
    let mut ops = 0u64;
    for q in &uni.questions {
        ws.compute(&g, q.query, &sim);
        ops += ws.edge_ops();
    }
    out.set(
        "kg-sim.edge_ops",
        ops as f64 / uni.questions.len().max(1) as f64,
    );

    // What one benchmark-side span costs.
    let mut spans = Vec::with_capacity(100_000);
    let t = Instant::now();
    for _ in 0..100_000 {
        let t0 = Instant::now();
        spans.push(t0.elapsed().as_nanos() as u64);
    }
    std::hint::black_box(&spans);
    out.set("trace.span_ns", t.elapsed().as_nanos() as f64 / 100_000.0);
}
