//! Network-serving load harness: drives a live [`kg_server::KgServer`]
//! over real sockets with a simulated voter population and reports
//! wire-level latency/throughput while optimization rounds run mid-load.
//!
//! The workload is a deterministic [`kg_bench::load::LoadPlan`]
//! (Zipfian question mix, exponential think times, vote bursts, open-
//! loop arrival schedule — all a pure function of the seed) replayed in
//! one or both loop disciplines:
//!
//! * **closed** — each client waits for the response, thinks, then
//!   sends the next request; latency is service time.
//! * **open** — each client fires at its plan's absolute arrival
//!   offsets regardless of responses; latency is measured from the
//!   *scheduled* arrival, so queueing delay under overload is charged
//!   to the server (no coordinated omission).
//!
//! A trigger thread fires `POST /optimize` rounds at event-count
//! thresholds, so part of every run executes against a live optimizer —
//! the serving path's headline condition. Clients mix the HTTP/1.1 and
//! binary wire formats (`--binary-frac`), verify per-connection epoch
//! monotonicity, and count every protocol/io error.
//!
//! Results land in `BENCH_server.json` (schema: DESIGN.md, "Network
//! serving"). With `--enforce`, any error, epoch regression, or unclean
//! drain exits nonzero — this is the `scripts/check.sh` smoke gate.
//!
//! Run: `cargo run -p kg-bench --release --bin server_load --
//!       [--scale f] [--seed u] [--clients n] [--requests n]
//!       [--mode closed|open|both] [--binary-frac f] [--vote-frac f]
//!       [--burst n] [--zipf f] [--think-us n] [--open-rate f]
//!       [--server-workers n] [--queue-depth n]
//!       [--opt-rounds n] [--batch n] [--votes n] [--durable]
//!       [--enforce] [--out path]`

use kg_bench::load::{EventKind, LoadConfig, LoadPlan, PlanSummary};
use kg_bench::setups::vote_scenario;
use kg_bench::table::f2;
use kg_bench::{Args, Table};
use kg_datasets::TWITTER;
use kg_server::{BinClient, ClientError, HttpClient, KgServer, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use votekg::{Framework, FrameworkConfig};

use serde::Serialize;

/// One question the clients can ask: a query node plus its answer set.
struct Question {
    query: u32,
    answers: Vec<u32>,
}

/// Everything a single mode run needs.
struct RunParams<'a> {
    addr: SocketAddr,
    questions: &'a [Question],
    plan: &'a LoadPlan,
    binary_frac: f64,
    open_loop: bool,
    k: usize,
    opt_rounds: usize,
    opt_batch: usize,
}

/// What one client observed: latency samples plus error tallies.
#[derive(Default)]
struct ClientOutcome {
    /// `(is_vote, latency_ns)` per completed request.
    samples: Vec<(bool, u64)>,
    io_errors: u64,
    protocol_errors: u64,
    server_errors: u64,
    epoch_regressions: u64,
    reconnects: u64,
    late_sends: u64,
    max_late_ns: u64,
    min_epoch: u64,
    max_epoch: u64,
}

/// Latency summary for one request class, microseconds: exact
/// nearest-rank quantiles over the raw samples. A quantile is `null`
/// unless at least ten samples lie beyond it.
#[derive(Debug, Serialize)]
struct LatencyOut {
    count: u64,
    p50_us: Option<f64>,
    p90_us: Option<f64>,
    p99_us: Option<f64>,
    p999_us: Option<f64>,
    max_us: f64,
}

/// One optimization round fired mid-run.
#[derive(Debug, Serialize)]
struct TriggerOut {
    /// Events completed when the trigger fired.
    at_event: u64,
    /// Incremental rounds the server ran for this trigger.
    rounds: u64,
    /// Votes applied across those rounds.
    votes_applied: u64,
    /// Server-side wall clock of the optimize call.
    elapsed_ms: u64,
    /// Published epoch after the call.
    epoch: u64,
}

/// One loop discipline's results.
#[derive(Debug, Serialize)]
struct ModeOut {
    mode: &'static str,
    wall_ms: f64,
    requests: u64,
    requests_per_sec: f64,
    /// Requests per second divided by available cores — the container
    /// has one, so this is the honest per-core number.
    requests_per_sec_per_core: f64,
    rank: LatencyOut,
    vote: LatencyOut,
    io_errors: u64,
    protocol_errors: u64,
    server_errors: u64,
    /// Responses whose epoch went backwards on one connection (must
    /// stay 0: snapshot publication is monotone).
    epoch_regressions: u64,
    /// Transparent HTTP keep-alive reconnects.
    reconnects: u64,
    /// Open loop only: sends that fired behind schedule.
    late_sends: u64,
    /// Open loop only: worst schedule slip.
    max_late_us: f64,
    /// Lowest / highest epoch any response carried — a live optimizer
    /// shows up as max > min.
    epoch_min: u64,
    epoch_max: u64,
    /// Optimization rounds fired while this mode's clients were running.
    triggers: Vec<TriggerOut>,
}

/// The emitted `BENCH_server.json` document.
#[derive(Debug, Serialize)]
struct ServerBench {
    dataset: String,
    scale: f64,
    seed: u64,
    clients: usize,
    requests_per_client: usize,
    binary_frac: f64,
    questions: usize,
    k: usize,
    cores: usize,
    server_workers: usize,
    queue_depth: usize,
    durable: bool,
    plan: PlanSummary,
    closed: Option<ModeOut>,
    open: Option<ModeOut>,
    drain_clean: bool,
    queued_at_shutdown: u64,
    server_stats: kg_server::ServerStatsSnapshot,
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

fn float_flag(args: &Args, name: &str, default: f64) -> f64 {
    flag(args, name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} wants a number"))
        })
        .unwrap_or(default)
}

/// A client connection in either wire format, with a uniform
/// rank/vote surface that reports the response's epoch (votes carry
/// none).
enum Conn {
    Http(HttpClient),
    Bin(BinClient),
}

impl Conn {
    fn dial(addr: SocketAddr, binary: bool) -> Result<Conn, ClientError> {
        if binary {
            BinClient::connect(addr).map(Conn::Bin)
        } else {
            HttpClient::connect(addr).map(Conn::Http)
        }
    }

    fn rank(&mut self, q: &Question, k: usize) -> Result<u64, ClientError> {
        match self {
            Conn::Http(http) => {
                let body = rank_body(q, k);
                let resp = http.post_json("/rank", &body)?;
                let doc = resp.json()?;
                doc.get("epoch")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| ClientError::Protocol("rank response lacks epoch".to_string()))
            }
            Conn::Bin(bin) => Ok(bin.rank(q.query, &q.answers, k as u16)?.epoch),
        }
    }

    fn vote(&mut self, q: &Question, best: u32) -> Result<(), ClientError> {
        match self {
            Conn::Http(http) => {
                let body = vote_body(q, best);
                http.post_json("/vote", &body).map(|_| ())
            }
            Conn::Bin(bin) => bin.vote(q.query, best, &q.answers).map(|_| ()),
        }
    }

    fn reconnects(&self) -> u64 {
        match self {
            Conn::Http(http) => http.reconnects,
            Conn::Bin(_) => 0,
        }
    }
}

fn rank_body(q: &Question, k: usize) -> String {
    format!(
        "{{\"query\":{},\"answers\":[{}],\"k\":{k}}}",
        q.query,
        join_ids(&q.answers)
    )
}

fn vote_body(q: &Question, best: u32) -> String {
    format!(
        "{{\"query\":{},\"answers\":[{}],\"best\":{best}}}",
        q.query,
        join_ids(&q.answers)
    )
}

fn join_ids(ids: &[u32]) -> String {
    ids.iter()
        .map(|id| id.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn classify(outcome: &mut ClientOutcome, e: &ClientError) {
    match e {
        ClientError::Io(_) => outcome.io_errors += 1,
        ClientError::Protocol(_) => outcome.protocol_errors += 1,
        ClientError::Server { .. } => outcome.server_errors += 1,
    }
}

/// Replays one client's schedule against the server. Closed loop paces
/// with think times; open loop fires at the plan's arrival offsets and
/// measures latency from the *scheduled* send, so a server that falls
/// behind pays for its queue.
fn run_client(
    params: &RunParams<'_>,
    client_idx: usize,
    start: Instant,
    completed: &AtomicU64,
) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        min_epoch: u64::MAX,
        ..Default::default()
    };
    let share = (client_idx as f64 + 0.5) / params.plan.clients.len() as f64;
    let binary = share < params.binary_frac;
    let mut conn = match Conn::dial(params.addr, binary) {
        Ok(conn) => conn,
        Err(e) => {
            classify(&mut outcome, &e);
            return outcome;
        }
    };
    for event in &params.plan.clients[client_idx].events {
        let q = &params.questions[event.question % params.questions.len()];
        // Pace the send, and fix the instant latency is measured from.
        let latency_from = if params.open_loop {
            let scheduled = Duration::from_nanos(event.arrival_ns);
            let now = start.elapsed();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            } else {
                let late = (now - scheduled).as_nanos() as u64;
                if late > 1_000 {
                    outcome.late_sends += 1;
                    outcome.max_late_ns = outcome.max_late_ns.max(late);
                }
            }
            start.checked_add(scheduled).unwrap_or_else(Instant::now)
        } else {
            if event.think_ns > 0 {
                std::thread::sleep(Duration::from_nanos(event.think_ns));
            }
            Instant::now()
        };
        let (is_vote, result) = match event.kind {
            EventKind::Rank => (false, conn.rank(q, params.k).map(Some)),
            EventKind::Vote { best_pos } => {
                let best = q.answers[best_pos % q.answers.len()];
                (true, conn.vote(q, best).map(|()| None))
            }
        };
        completed.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(epoch) => {
                outcome
                    .samples
                    .push((is_vote, latency_from.elapsed().as_nanos() as u64));
                if let Some(epoch) = epoch {
                    if epoch < outcome.max_epoch {
                        outcome.epoch_regressions += 1;
                    }
                    outcome.min_epoch = outcome.min_epoch.min(epoch);
                    outcome.max_epoch = outcome.max_epoch.max(epoch);
                }
            }
            Err(e) => classify(&mut outcome, &e),
        }
    }
    outcome.reconnects = conn.reconnects();
    outcome
}

/// Fires `opt_rounds` optimize calls as the global completed-event
/// counter crosses evenly spaced thresholds — optimization runs *while*
/// clients are mid-schedule, which is the condition being measured.
fn trigger_loop(
    params: &RunParams<'_>,
    completed: &AtomicU64,
    done: &AtomicBool,
) -> (Vec<TriggerOut>, u64) {
    let mut triggers = Vec::new();
    let mut errors = 0u64;
    if params.opt_rounds == 0 {
        return (triggers, errors);
    }
    let total: u64 = params.plan.total_events();
    let mut http = match HttpClient::connect(params.addr) {
        Ok(c) => c,
        Err(_) => return (triggers, 1),
    };
    let body = format!(
        "{{\"strategy\":\"multi\",\"batch\":{}}}",
        params.opt_batch.max(1)
    );
    for i in 1..=params.opt_rounds as u64 {
        let threshold = total * i / (params.opt_rounds as u64 + 1);
        loop {
            let now = completed.load(Ordering::Relaxed);
            if now >= threshold || done.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let at_event = completed.load(Ordering::Relaxed);
        match http.post_json("/optimize", &body).and_then(|r| r.json()) {
            Ok(doc) => {
                let field = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
                triggers.push(TriggerOut {
                    at_event,
                    rounds: field("rounds"),
                    votes_applied: field("votes_applied"),
                    elapsed_ms: field("elapsed_ms"),
                    epoch: field("epoch"),
                });
            }
            Err(_) => errors += 1,
        }
    }
    (triggers, errors)
}

/// Folds per-class samples into the reported quantiles.
fn latency_out(samples: &[(bool, u64)], votes: bool) -> LatencyOut {
    let mut ns: Vec<u64> = samples
        .iter()
        .filter(|&&(is_vote, _)| is_vote == votes)
        .map(|&(_, ns)| ns)
        .collect();
    ns.sort_unstable();
    let n = ns.len();
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it, reported only with ten or more samples beyond it.
    let quantile = |q: f64| {
        let rank = ((q * n as f64).ceil() as usize).max(1);
        (n >= rank + 10).then(|| ns[rank - 1] as f64 / 1e3)
    };
    LatencyOut {
        count: n as u64,
        p50_us: quantile(0.50),
        p90_us: quantile(0.90),
        p99_us: quantile(0.99),
        p999_us: quantile(0.999),
        max_us: ns.last().map_or(0.0, |&max| max as f64 / 1e3),
    }
}

/// Runs one loop discipline: all clients in parallel, the optimize
/// trigger thread racing them, then folds the outcomes.
fn run_mode(params: &RunParams<'_>) -> ModeOut {
    let completed = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let mut outcomes: Vec<ClientOutcome> = Vec::new();
    let mut triggers = Vec::new();
    let mut trigger_errors = 0u64;
    std::thread::scope(|s| {
        let trigger_handle = s.spawn(|| trigger_loop(params, &completed, &done));
        let handles: Vec<_> = (0..params.plan.clients.len())
            .map(|i| {
                let completed = &completed;
                s.spawn(move || run_client(params, i, start, completed))
            })
            .collect();
        for h in handles {
            outcomes.push(h.join().expect("client thread"));
        }
        done.store(true, Ordering::Relaxed);
        (triggers, trigger_errors) = trigger_handle.join().expect("trigger thread");
    });
    let wall = start.elapsed();

    let samples: Vec<(bool, u64)> = outcomes.iter().flat_map(|o| o.samples.clone()).collect();
    let sum = |f: fn(&ClientOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let requests = samples.len() as u64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rps = requests as f64 / wall.as_secs_f64().max(1e-9);
    ModeOut {
        mode: if params.open_loop { "open" } else { "closed" },
        wall_ms: wall.as_secs_f64() * 1e3,
        requests,
        requests_per_sec: rps,
        requests_per_sec_per_core: rps / cores as f64,
        rank: latency_out(&samples, false),
        vote: latency_out(&samples, true),
        io_errors: sum(|o| o.io_errors),
        protocol_errors: sum(|o| o.protocol_errors),
        server_errors: sum(|o| o.server_errors) + trigger_errors,
        epoch_regressions: sum(|o| o.epoch_regressions),
        reconnects: sum(|o| o.reconnects),
        late_sends: sum(|o| o.late_sends),
        max_late_us: outcomes.iter().map(|o| o.max_late_ns).max().unwrap_or(0) as f64 / 1e3,
        epoch_min: outcomes
            .iter()
            .map(|o| o.min_epoch)
            .min()
            .unwrap_or(u64::MAX),
        epoch_max: outcomes.iter().map(|o| o.max_epoch).max().unwrap_or(0),
        triggers,
    }
}

fn mode_row(t: &mut Table, m: &ModeOut) {
    let q = |v: Option<f64>| v.map_or_else(|| "-".to_string(), f2);
    t.row(&[
        m.mode.to_string(),
        format!("{}", m.requests),
        f2(m.wall_ms),
        f2(m.requests_per_sec_per_core),
        q(m.rank.p50_us),
        q(m.rank.p99_us),
        q(m.rank.p999_us),
        q(m.vote.p99_us),
        format!(
            "{}",
            m.io_errors + m.protocol_errors + m.server_errors + m.epoch_regressions
        ),
    ]);
}

fn main() {
    let args = Args::parse(0.05);
    let _telemetry = args.telemetry_guard();

    let clients = num_flag(&args, "--clients", 8).max(1);
    let requests = num_flag(&args, "--requests", 40).max(1);
    let n_votes = num_flag(&args, "--votes", 24);
    let server_workers = num_flag(&args, "--server-workers", 4);
    let queue_depth = num_flag(&args, "--queue-depth", 128);
    let opt_rounds = num_flag(&args, "--opt-rounds", 2);
    let opt_batch = num_flag(&args, "--batch", 4);
    let binary_frac = float_flag(&args, "--binary-frac", 0.5);
    let vote_frac = float_flag(&args, "--vote-frac", 0.15);
    let burst = num_flag(&args, "--burst", 3);
    let zipf_s = float_flag(&args, "--zipf", 1.1);
    let think_us = num_flag(&args, "--think-us", 300) as u64;
    let open_rate = float_flag(&args, "--open-rate", 1500.0);
    let mode = flag(&args, "--mode").unwrap_or_else(|| "both".to_string());
    let durable = args.has_flag("--durable");
    let enforce = args.has_flag("--enforce");
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_server.json".to_string());
    let k = 10usize;

    println!(
        "Server load bench — {clients} clients x {requests} events over live wire \
         ({} workers, scale {}, seed {})\n",
        server_workers.max(1),
        args.scale,
        args.seed
    );

    // Workload: the Section VII vote scenario's questions become the
    // serving question pool.
    let scenario = vote_scenario(&TWITTER, n_votes, args.scale, args.seed);
    let mut questions: Vec<Question> = Vec::new();
    for v in &scenario.votes.votes {
        if !questions.iter().any(|q| q.query == v.query.0) {
            questions.push(Question {
                query: v.query.0,
                answers: v.answers.iter().map(|a| a.0).collect(),
            });
        }
    }
    assert!(!questions.is_empty(), "scenario produced no questions");

    let plan = LoadPlan::generate(&LoadConfig {
        clients,
        requests_per_client: requests,
        questions: questions.len(),
        zipf_s,
        vote_fraction: vote_frac,
        vote_burst: burst,
        mean_think_us: think_us,
        open_rate_rps: open_rate,
        seed: args.seed,
    });
    println!(
        "plan: {} ranks + {} votes in {} bursts over {} questions\n",
        plan.summary.ranks,
        plan.summary.votes,
        plan.summary.vote_bursts,
        questions.len()
    );

    // The served framework, optionally durable in a scratch WAL dir.
    let wal_dir = std::env::temp_dir().join(format!("votekg-server-load-{}", std::process::id()));
    let fw = if durable {
        let (fw, _report) = Framework::open_durable(
            &wal_dir,
            scenario.graph.clone(),
            FrameworkConfig::default(),
            votekg::DurableOptions::default(),
        )
        .expect("open durable framework");
        fw
    } else {
        Framework::new(scenario.graph.clone(), FrameworkConfig::default())
    };
    let server = KgServer::start(
        fw,
        ServerConfig {
            workers: server_workers,
            queue_depth,
            ..Default::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let run = |open_loop: bool| {
        run_mode(&RunParams {
            addr,
            questions: &questions,
            plan: &plan,
            binary_frac,
            open_loop,
            k,
            opt_rounds,
            opt_batch,
        })
    };
    let closed = matches!(mode.as_str(), "closed" | "both").then(|| run(false));
    let open = matches!(mode.as_str(), "open" | "both").then(|| run(true));
    assert!(
        closed.is_some() || open.is_some(),
        "--mode must be closed | open | both, got {mode:?}"
    );

    let report = server.shutdown();
    if durable {
        let _ = std::fs::remove_dir_all(&wal_dir);
    }

    let mut t = Table::new(&[
        "mode",
        "requests",
        "wall ms",
        "req/s/core",
        "rank p50 us",
        "rank p99 us",
        "rank p999 us",
        "vote p99 us",
        "errors",
    ]);
    for m in closed.iter().chain(open.iter()) {
        mode_row(&mut t, m);
    }
    t.print();

    let mut failures: Vec<String> = Vec::new();
    for m in closed.iter().chain(open.iter()) {
        let errors = m.io_errors + m.protocol_errors + m.server_errors;
        if errors > 0 {
            failures.push(format!("{}: {errors} wire errors", m.mode));
        }
        if m.epoch_regressions > 0 {
            failures.push(format!(
                "{}: {} epoch regressions",
                m.mode, m.epoch_regressions
            ));
        }
        if opt_rounds > 0 && m.triggers.is_empty() {
            failures.push(format!("{}: no optimize round fired mid-run", m.mode));
        }
    }
    if !report.clean {
        failures.push(format!(
            "unclean drain: {} handler panics",
            report.stats.handler_panics
        ));
    }

    let bench = ServerBench {
        dataset: scenario.name.clone(),
        scale: args.scale,
        seed: args.seed,
        clients,
        requests_per_client: requests,
        binary_frac,
        questions: questions.len(),
        k,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        server_workers: server_workers.max(1),
        queue_depth,
        durable,
        plan: plan.summary.clone(),
        closed,
        open,
        drain_clean: report.clean,
        queued_at_shutdown: report.queued_at_shutdown,
        server_stats: report.stats,
    };
    let json = serde_json::to_string_pretty(&bench).expect("bench report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write bench json");
    println!("\nwrote {out_path}");

    if !failures.is_empty() {
        eprintln!("\nserver load harness found problems:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        if enforce {
            std::process::exit(1);
        }
    } else if enforce {
        println!("enforce: zero wire errors, monotone epochs, clean drain");
    }
}
