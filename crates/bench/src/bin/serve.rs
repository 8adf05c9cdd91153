//! Serving benchmark: replays N optimize rounds over a fig6-style vote
//! workload and, after every round, re-ranks the full query universe two
//! ways —
//!
//! * **uncached**: a full [`kg_sim::rank_answers`] recompute for every
//!   query, every round (what the pipeline did before `kg-serve`);
//! * **cached**: one [`kg_serve::SnapshotServer::rank_batch_at`] call
//!   against the round's published snapshot, which evicts only the
//!   queries within `L − 1` hops of the round's changed edges and
//!   recomputes just those.
//!
//! Both arms run on the *same* published snapshot (publishing is the
//! writer's cost, paid once per round, and is not timed), and every
//! cached ranking is asserted identical to the uncached one, so the
//! speedup is never bought with staleness. Results land in
//! `BENCH_serve.json` (repo root when run through
//! `scripts/bench_serve.sh`).
//!
//! Run: `cargo run -p kg-bench --release --bin serve
//!       [--scale f] [--seed u] [--votes n] [--rounds n] [--workers n] [--out path]`

use kg_bench::setups::{experiment_multi_opts, vote_scenario};
use kg_bench::table::f2;
use kg_bench::{Args, Table};
use kg_datasets::TWITTER;
use kg_graph::NodeId;
use kg_serve::{ServeConfig, SnapshotServer};
use kg_sim::{rank_answers, BatchQuery, SimilarityConfig};
use kg_votes::{solve_multi_votes, VoteSet};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Per-round measurement: both arms' re-rank wall-clock plus how much of
/// the cache the round's weight changes actually touched.
#[derive(Debug, Serialize)]
struct RoundRow {
    round: usize,
    votes: usize,
    edges_changed: usize,
    uncached_ms: f64,
    cached_ms: f64,
    invalidated: u64,
    recomputed: u64,
}

/// Interpolated latency quantiles of one arm's per-round re-rank times
/// (within-bucket interpolation over a log-scale
/// [`kg_telemetry::Histogram`] — the telemetry exporters' summarization,
/// so bench numbers and production dumps are comparable).
#[derive(Debug, Serialize)]
struct LatencySummary {
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
}

impl LatencySummary {
    fn of(h: &kg_telemetry::Histogram) -> LatencySummary {
        LatencySummary {
            p50_ms: h.quantile(0.50) / 1e6,
            p90_ms: h.quantile(0.90) / 1e6,
            p99_ms: h.quantile(0.99) / 1e6,
        }
    }
}

/// The emitted `BENCH_serve.json` document.
#[derive(Debug, Serialize)]
struct ServeBench {
    dataset: String,
    scale: f64,
    seed: u64,
    votes: usize,
    rounds: usize,
    batch: usize,
    queries: usize,
    k: usize,
    workers: usize,
    warmup_ms: f64,
    uncached_ms: f64,
    cached_ms: f64,
    speedup: f64,
    uncached_latency: LatencySummary,
    cached_latency: LatencySummary,
    stats: kg_serve::ServeStats,
    per_round: Vec<RoundRow>,
}

fn flag(args: &Args, name: &str) -> Option<String> {
    args.rest
        .iter()
        .position(|a| a == name)
        .and_then(|p| args.rest.get(p + 1).cloned())
}

fn num_flag(args: &Args, name: &str, default: usize) -> usize {
    flag(args, name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} wants a number"))
        })
        .unwrap_or(default)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let args = Args::parse(0.05);
    let _telemetry = args.telemetry_guard();
    let n_votes = num_flag(&args, "--votes", 128);
    let rounds = num_flag(&args, "--rounds", 32).max(1);
    let workers = num_flag(&args, "--workers", 1).max(1);
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let k = 10usize;

    println!(
        "Serving bench — {rounds} optimize rounds, cached vs uncached re-ranking \
         (scale {}, seed {})\n",
        args.scale, args.seed
    );

    let scenario = vote_scenario(&TWITTER, n_votes, args.scale, args.seed);
    let mut graph = scenario.graph.clone();
    let sim = SimilarityConfig::default();

    // The query universe: every distinct voted question, in arrival
    // order — the set a deployment would keep warm.
    let mut questions: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for v in &scenario.votes.votes {
        if !questions.iter().any(|(q, _)| *q == v.query) {
            questions.push((v.query, v.answers.clone()));
        }
    }
    let requests: Vec<BatchQuery<'_>> = questions
        .iter()
        .map(|(q, answers)| BatchQuery {
            query: *q,
            answers,
            k,
        })
        .collect();
    let batch = scenario.votes.len().div_ceil(rounds);
    println!(
        "workload: {} votes over {} queries ({} per round)\n",
        scenario.votes.len(),
        questions.len(),
        batch
    );

    let server = SnapshotServer::new(ServeConfig { sim, workers });

    // Warm both arms once on the pristine graph (the cached arm fills its
    // cache; the uncached arm has no state to warm, its pass is just the
    // baseline cost of a cold full recompute).
    let snap = graph.publish();
    let started = Instant::now();
    server.rank_batch_at(&snap, &requests);
    let warmup = started.elapsed();

    let budget = Duration::from_secs(60);
    let opts = experiment_multi_opts(budget);
    let mut per_round = Vec::new();
    let mut uncached_total = Duration::ZERO;
    let mut cached_total = Duration::ZERO;
    let uncached_hist = kg_telemetry::Histogram::standalone();
    let cached_hist = kg_telemetry::Histogram::standalone();
    let mut t = Table::new(&[
        "round",
        "votes",
        "edges",
        "uncached ms",
        "cached ms",
        "invalidated",
        "recomputed",
    ]);
    for (round, chunk) in scenario.votes.votes.chunks(batch).enumerate() {
        let version_before = graph.version();
        solve_multi_votes(&mut graph, &VoteSet::from_votes(chunk.to_vec()), &opts);
        let edges_changed = graph.changes_since(version_before).len();
        let snap = graph.publish();

        let started = Instant::now();
        let uncached: Vec<_> = questions
            .iter()
            .map(|(q, answers)| rank_answers(&snap, *q, answers, &sim, k))
            .collect();
        let uncached_time = started.elapsed();

        let stats_before = server.stats();
        let started = Instant::now();
        let cached = server.rank_batch_at(&snap, &requests);
        let cached_time = started.elapsed();
        let stats_after = server.stats();

        // Coherence gate: a stale ranking disqualifies the measurement.
        assert_eq!(cached, uncached, "cache diverged on round {round}");

        uncached_total += uncached_time;
        cached_total += cached_time;
        uncached_hist.record_duration(uncached_time);
        cached_hist.record_duration(cached_time);
        let invalidated = stats_after.invalidated - stats_before.invalidated;
        let recomputed = stats_after.misses - stats_before.misses;
        t.row(&[
            format!("{round}"),
            format!("{}", chunk.len()),
            format!("{edges_changed}"),
            f2(ms(uncached_time)),
            f2(ms(cached_time)),
            format!("{invalidated}"),
            format!("{recomputed}"),
        ]);
        per_round.push(RoundRow {
            round,
            votes: chunk.len(),
            edges_changed,
            uncached_ms: ms(uncached_time),
            cached_ms: ms(cached_time),
            invalidated,
            recomputed,
        });
    }
    t.print();

    let speedup = if cached_total.is_zero() {
        f64::INFINITY
    } else {
        uncached_total.as_secs_f64() / cached_total.as_secs_f64()
    };
    let uncached_latency = LatencySummary::of(&uncached_hist);
    let cached_latency = LatencySummary::of(&cached_hist);
    println!(
        "\ntotal re-rank: uncached {} ms, cached {} ms — {:.2}x speedup",
        f2(ms(uncached_total)),
        f2(ms(cached_total)),
        speedup
    );
    println!(
        "per-round latency (interpolated): uncached p50 {} / p90 {} / p99 {} ms, \
         cached p50 {} / p90 {} / p99 {} ms",
        f2(uncached_latency.p50_ms),
        f2(uncached_latency.p90_ms),
        f2(uncached_latency.p99_ms),
        f2(cached_latency.p50_ms),
        f2(cached_latency.p90_ms),
        f2(cached_latency.p99_ms),
    );

    let bench = ServeBench {
        dataset: scenario.name.clone(),
        scale: args.scale,
        seed: args.seed,
        votes: scenario.votes.len(),
        rounds: per_round.len(),
        batch,
        queries: questions.len(),
        k,
        workers,
        warmup_ms: ms(warmup),
        uncached_ms: ms(uncached_total),
        cached_ms: ms(cached_total),
        speedup,
        uncached_latency,
        cached_latency,
        stats: server.stats(),
        per_round,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench json");
    println!("wrote {out_path}");
}
