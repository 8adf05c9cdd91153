//! The two workloads. Each times `SETUPS` set-ups, runs its measured
//! phases strictly in sequence, checks every answer, and times recovery of
//! its durable directories.

use crate::replay::{self, Replayer, RoundObs, RoundTimes};
use crate::sched::{Schedule, Universe, DIGG_400, PRELUDE_ROUNDS, ROUND_VOTES, TOP_K};
use crate::stats::{median, summarize, Summary};
use crate::verify::Verifier;
use crate::wire::{json_int, parse_bin_rank, parse_http_rank, rank_body, Bin, Http, WireRanking};
use kg_graph::io::weights_crc;
use kg_serve::ServeStats;
use kg_server::protocol::{encode_rank_request, BinRankRequest};
use kg_server::{KgServer, ServerConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use votekg::{DurableOptions, Framework, FrameworkConfig};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Recoveries per run, on copies of durable directories that each take
/// the same work to recover; `recover_ms` is the fastest, since host
/// interference only ever adds time. On a shared 2-vCPU host the fastest
/// of 80 recoveries made in one second spread 0.22 between runs, and of 80
/// spread over the run 0.05, so they are spread over the run.
const RECOVERIES: usize = 80;
/// Server worker threads: at least the connection count.
const SERVER_WORKERS: usize = 2;
/// Segments of equal work `rank_hot`'s measured phase is cut into (see
/// [`Samples::end_segment`]): 4 prelude rounds each, so every second
/// segment's rounds end on a checkpoint.
const SEGMENTS: usize = 10;

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work: PathBuf,
}

/// Everything a run measured, checked and counted.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact counts of the work done: identical on every run of a seed.
    pub counts: BTreeMap<&'static str, String>,
    pub dataset: String,
    pub scale: f64,
    /// `VmHWM` once the served framework is set up, before the measured
    /// phase: what set-up alone holds at its peak.
    pub setup_rss_mb: f64,
}

impl Outcome {
    /// Counts one operation; a failed one carries its reason.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// A failed check or operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn count(&mut self, name: &'static str, value: impl ToString) {
        self.counts.insert(name, value.to_string());
    }
}

/// End-to-end samples. Reads and votes are kept raw only for the open
/// segment and summarized when it closes, so the harness's footprint does
/// not grow with the run.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub scenario_s: Vec<f64>,
    rank_us: Vec<f64>,
    http_us: Vec<f64>,
    bin_us: Vec<f64>,
    vote_us: Vec<f64>,
    /// Reads and read seconds of the open segment.
    open_reads: (usize, f64),
    /// The measured phase's closed segments, in order.
    segments: Vec<Segment>,
    pub round_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub rounds: Vec<RoundObs>,
    pub wire_errors: u64,
    /// Process CPU seconds and requests over the wire read phases.
    pub cpu: (f64, usize),
    rank_samples: usize,
    vote_samples: usize,
    /// Requests sent per protocol, timed or not.
    requests_http: usize,
    requests_bin: usize,
    /// `Some(n)` when every segment repeats the same `n` rounds: each
    /// round is then timed by its fastest repetition and `round_ms` is the
    /// median of those. Otherwise segments differ in their votes and
    /// `round_ms` is the median over all rounds (a best segment would pick
    /// the cheapest votes).
    pub repeated_rounds: Option<usize>,
}

/// One closed segment's summaries.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    rank: Option<Summary>,
    http_p50: Option<f64>,
    bin_p50: Option<f64>,
    vote_p50: Option<f64>,
    /// Reads over read seconds.
    rps: Option<f64>,
}

impl Samples {
    /// Closes the open segment of the measured phase. Host interference
    /// on a shared machine comes in bursts of a few seconds and only ever
    /// adds time, so each read and vote timing is taken from the run's
    /// best segment of equal work (lowest latency, highest rate): medians
    /// over whole runs spread by up to 0.36 between runs, best segments by
    /// a third of that.
    pub fn end_segment(&mut self) {
        let (reads, secs) = std::mem::take(&mut self.open_reads);
        let p50 = |v: &[f64]| (!v.is_empty()).then(|| median(v));
        self.segments.push(Segment {
            rank: (!self.rank_us.is_empty()).then(|| summarize(&self.rank_us)),
            http_p50: p50(&self.http_us),
            bin_p50: p50(&self.bin_us),
            vote_p50: p50(&self.vote_us),
            rps: (secs > 0.0).then(|| reads as f64 / secs),
        });
        self.rank_samples += self.rank_us.len();
        self.vote_samples += self.vote_us.len();
        for raw in [
            &mut self.rank_us,
            &mut self.http_us,
            &mut self.bin_us,
            &mut self.vote_us,
        ] {
            raw.clear();
        }
    }
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn ids(nodes: &[kg_graph::NodeId]) -> Vec<u32> {
    nodes.iter().map(|n| n.0).collect()
}

/// Process user + system CPU seconds (from `/proc/self/stat`, 100 Hz).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Rank requests pre-encoded per question, so the timed span holds only
/// the round trip.
struct Requests {
    http: Vec<String>,
    bin: Vec<Vec<u8>>,
}

impl Requests {
    fn new(uni: &Universe) -> Requests {
        Requests {
            http: uni
                .questions
                .iter()
                .map(|q| rank_body(q.query.0, &ids(&q.answers), TOP_K))
                .collect(),
            bin: uni
                .questions
                .iter()
                .map(|q| {
                    encode_rank_request(&BinRankRequest {
                        query: q.query.0,
                        k: TOP_K as u16,
                        answers: ids(&q.answers),
                    })
                })
                .collect(),
        }
    }
}

/// A served durable framework plus the benchmark client's two connections.
pub struct Live {
    pub server: KgServer,
    pub http: Http,
    pub bin: Bin,
    pub dir: PathBuf,
}

impl Live {
    pub fn start(fw: Framework, dir: PathBuf) -> Result<Live, String> {
        let server = KgServer::start(
            fw,
            ServerConfig {
                workers: SERVER_WORKERS,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("server start: {e}"))?;
        let http = Http::connect(server.addr())?;
        let bin = Bin::connect(server.addr())?;
        Ok(Live {
            server,
            http,
            bin,
            dir,
        })
    }

    fn stats(&self) -> ServeStats {
        self.server.handle().stats()
    }

    /// Drains the server; returns the live weights' CRC.
    fn shutdown(self, out: &mut Outcome) -> u32 {
        let crc = self.server.with_framework(|fw| weights_crc(fw.graph()));
        drop(self.http);
        drop(self.bin);
        let drain = self.server.shutdown();
        out.check(drain.clean, || "server drain was not clean".to_string());
        release_free_heap();
        crc
    }
}

/// Hands memory freed by a stopped server back to the OS. The allocator
/// keeps the per-thread heaps of the server's finished worker threads,
/// and the next server's workers allocate afresh, so without this a run
/// of several passes peaked at 112 MB where one pass peaked at 70 MB:
/// `peak_rss_mb` would report the allocator's leftovers, not one served
/// framework.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn open_durable(uni: &Universe, dir: &Path) -> Result<Framework, String> {
    Framework::open_durable(
        dir,
        uni.graph.clone(),
        FrameworkConfig::default(),
        DurableOptions::default(),
    )
    .map(|(fw, _)| fw)
    .map_err(|e| format!("open durable framework: {e}"))
}

/// One timed rank round trip over either protocol; the ranking is
/// decoded after the clock stops.
fn wire_rank(
    conn: &mut Conn<'_>,
    reqs: &Requests,
    qi: usize,
) -> Result<(f64, u64, WireRanking), String> {
    match conn {
        Conn::Http(http) => {
            let t = Instant::now();
            let body = http.post("/rank", &reqs.http[qi])?;
            let took = us(t);
            let (epoch, ranking) = parse_http_rank(&body)?;
            Ok((took, epoch, ranking))
        }
        Conn::Bin(bin) => {
            let t = Instant::now();
            let payload = bin.rank_raw(&reqs.bin[qi])?;
            let took = us(t);
            let (epoch, ranking) = parse_bin_rank(&payload)?;
            Ok((took, epoch, ranking))
        }
    }
}

enum Conn<'a> {
    Http(&'a mut Http),
    Bin(&'a mut Bin),
}

/// Reads `order` sequentially, even positions over HTTP and odd over
/// VKB1 when `alternate`, else all over HTTP.
#[allow(clippy::too_many_arguments)]
fn read_pass(
    live: &mut Live,
    reqs: &Requests,
    order: &[usize],
    alternate: bool,
    timed: bool,
    s: &mut Samples,
    ver: &mut Verifier,
    out: &mut Outcome,
) {
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    for (j, &qi) in order.iter().enumerate() {
        let binary = alternate && j % 2 == 1;
        let mut conn = if binary {
            s.requests_bin += 1;
            Conn::Bin(&mut live.bin)
        } else {
            s.requests_http += 1;
            Conn::Http(&mut live.http)
        };
        match wire_rank(&mut conn, reqs, qi) {
            Ok((took, epoch, ranking)) => {
                if timed {
                    s.rank_us.push(took);
                    if binary {
                        &mut s.bin_us
                    } else {
                        &mut s.http_us
                    }
                    .push(took);
                }
                ver.record(epoch, qi, ranking);
                out.op(Ok(()));
            }
            Err(e) => {
                s.wire_errors += 1;
                out.op(Err(format!("rank: {e}")));
            }
        }
    }
    if timed {
        s.open_reads.0 += order.len();
        s.open_reads.1 += started.elapsed().as_secs_f64();
        s.cpu.0 += cpu_seconds() - cpu0;
        s.cpu.1 += order.len();
    }
}

fn check_reads(live: &Live, uni: &Universe, ver: &mut Verifier) {
    let snap = live.server.handle().snapshot();
    ver.check(&snap, uni, &FrameworkConfig::default().sim());
}

/// One optimization round over the wire: the round's votes over VKB1
/// (durable acks), then `POST /optimize` over HTTP. No other request is
/// in flight, so the round's work is exactly the scheduled batch.
fn wire_round(
    live: &mut Live,
    uni: &Universe,
    batch: &[usize],
    s: &mut Samples,
    out: &mut Outcome,
) {
    for &vi in batch {
        let v = &uni.votes[vi];
        let answers = ids(&v.answers);
        s.requests_bin += 1;
        let t = Instant::now();
        let ack = live.bin.vote(v.query.0, &answers, v.best.0);
        let took = us(t);
        match ack {
            Ok(true) => {
                s.vote_us.push(took);
                out.op(Ok(()));
            }
            Ok(false) => out.op(Err("vote acknowledged without fsync".to_string())),
            Err(e) => {
                s.wire_errors += 1;
                out.op(Err(format!("vote: {e}")));
            }
        }
    }
    let pending = live.server.with_framework(|fw| fw.pending_votes().len());
    out.check(pending == batch.len(), || {
        format!(
            "{pending} votes pending before the round, {} scheduled",
            batch.len()
        )
    });
    let body = format!("{{\"strategy\":\"multi\",\"batch\":{ROUND_VOTES}}}");
    s.requests_http += 1;
    let t = Instant::now();
    let resp = live.http.post("/optimize", &body);
    let took = ms(t);
    let resp = match resp {
        Ok(r) => r,
        Err(e) => {
            s.wire_errors += 1;
            out.op(Err(format!("optimize: {e}")));
            return;
        }
    };
    s.round_ms.push(took);
    let field = |k: &str| json_int(&resp, k);
    let (crc, pending) = live
        .server
        .with_framework(|fw| (weights_crc(fw.graph()), fw.pending_votes().len()));
    match (
        field("rounds"),
        field("votes_applied"),
        field("edges_changed"),
        field("omega"),
        field("epoch"),
    ) {
        (Ok(rounds), Ok(applied), Ok(edges), Ok(omega), Ok(epoch)) => {
            out.op(Ok(()));
            out.check(rounds == 1 && pending == 0, || {
                format!("round ran as {rounds} batches, {pending} votes left pending")
            });
            s.rounds.push(RoundObs {
                votes: applied as usize,
                edges: edges as usize,
                omega: omega as i64,
                crc,
                epoch: epoch as u64,
            });
        }
        _ => out.op(Err(format!(
            "optimize response: {}",
            String::from_utf8_lossy(&resp)
        ))),
    }
}

/// One timed set-up of a wire workload in `ctx.work/tag`: dataset
/// synthesis, durable framework open, server start, connections, and one
/// read of every question.
fn wire_setup(
    ctx: &Ctx,
    tag: &str,
    s: &mut Samples,
    ver: &mut Verifier,
    out: &mut Outcome,
) -> Result<(Universe, Requests, Live), String> {
    let t = Instant::now();
    let ts = Instant::now();
    let uni = Universe::build(DIGG_400);
    s.scenario_s.push(ts.elapsed().as_secs_f64());
    let dir = ctx.work.join(tag);
    let mut live = Live::start(open_durable(&uni, &dir)?, dir)?;
    let reqs = Requests::new(&uni);
    let all: Vec<usize> = (0..uni.questions.len()).collect();
    read_pass(&mut live, &reqs, &all, false, false, s, ver, out);
    s.setup_s.push(t.elapsed().as_secs_f64());
    check_reads(&live, &uni, ver);
    out.dataset = uni.dataset.spec.name.to_string();
    out.scale = uni.dataset.scale;
    Ok((uni, reqs, live))
}

/// `n` set-ups that are timed and then thrown away, so that every run
/// times `SETUPS` of them.
fn spare_setups(
    ctx: &Ctx,
    n: usize,
    s: &mut Samples,
    ver: &mut Verifier,
    out: &mut Outcome,
) -> Result<(), String> {
    for i in 0..n {
        let (_, _, live) = wire_setup(ctx, &format!("spare-{i}"), s, ver, out)?;
        let dir = live.dir.clone();
        live.shutdown(out);
        ver.retire();
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

/// Times `Framework::open_durable` on `copies` copies of `dir`; each
/// recovery must reproduce `live_crc`.
fn recover(
    ctx: &Ctx,
    uni: &Universe,
    dir: &Path,
    live_crc: u32,
    copies: usize,
    s: &mut Samples,
    out: &mut Outcome,
) {
    for i in 0..copies {
        let copy = ctx.work.join(format!("recover-{i}"));
        if let Err(e) = copy_dir(dir, &copy) {
            out.op(Err(format!("copy durable dir: {e}")));
            continue;
        }
        let graph = uni.graph.clone();
        let t = Instant::now();
        let opened = Framework::open_durable(
            &copy,
            graph,
            FrameworkConfig::default(),
            DurableOptions::default(),
        );
        let took = ms(t);
        match opened {
            Ok((fw, report)) => {
                s.recover_ms.push(took);
                let live = weights_crc(fw.graph());
                out.op(if report.weights_crc == live && live == live_crc {
                    Ok(())
                } else {
                    Err(format!(
                        "recovered weights crc {:08x} (report {:08x}), live {live_crc:08x}",
                        live, report.weights_crc
                    ))
                });
            }
            Err(e) => out.op(Err(format!("recovery: {e}"))),
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn stats_delta(before: ServeStats, after: ServeStats) -> ServeStats {
    ServeStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        invalidated: after.invalidated - before.invalidated,
        repaired: after.repaired - before.repaired,
        retained: after.retained - before.retained,
        dirty_syncs: after.dirty_syncs - before.dirty_syncs,
        full_clears: after.full_clears - before.full_clears,
    }
}

fn stats_sum(a: ServeStats, b: ServeStats) -> ServeStats {
    ServeStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        invalidated: a.invalidated + b.invalidated,
        repaired: a.repaired + b.repaired,
        retained: a.retained + b.retained,
        dirty_syncs: a.dirty_syncs + b.dirty_syncs,
        full_clears: a.full_clears + b.full_clears,
    }
}

fn count_stats(out: &mut Outcome, d: &ServeStats) {
    out.count("serve_hits", d.hits);
    out.count("serve_misses", d.misses);
    out.count("serve_repaired", d.repaired);
    out.count("serve_invalidated", d.invalidated);
    out.count("serve_retained", d.retained);
    out.set("kg-serve.hit_rate", d.hit_rate());
    out.set("kg-serve.misses", d.misses as f64);
    out.set("kg-serve.repaired", d.repaired as f64);
    out.set("kg-serve.invalidated", d.invalidated as f64);
    out.set("kg-serve.retained", d.retained as f64);
}

fn count_rounds(out: &mut Outcome, rounds: &[RoundObs]) {
    let edges: Vec<String> = rounds.iter().map(|r| r.edges.to_string()).collect();
    out.count("rounds", rounds.len());
    out.count(
        "votes_applied",
        rounds.iter().map(|r| r.votes).sum::<usize>(),
    );
    out.count("edges_changed_per_round", edges.join(","));
    out.count("omega", rounds.iter().map(|r| r.omega).sum::<i64>());
    if let Some(last) = rounds.last() {
        out.count("final_weights_crc", format!("{:08x}", last.crc));
    }
}

/// Runs the workload named in `ctx`.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let mut ver = Verifier::default();
    let result = match ctx.workload.as_str() {
        "rank_hot" => rank_hot(ctx, &mut s, &mut ver, &mut out),
        "feedback_loop" => feedback_loop(ctx, &mut s, &mut ver, &mut out),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = result {
        out.op(Err(e));
    }
    finish(&s, &ver, &mut out);
    out
}

/// Folds the samples into the end-to-end metrics.
fn finish(s: &Samples, ver: &Verifier, out: &mut Outcome) {
    out.check(ver.failures() == 0, || {
        format!(
            "rankings: {} differ from the oracle, {} repeats differ, {} unverifiable",
            ver.mismatches, ver.repeat_mismatches, ver.stale
        )
    });
    out.failed += ver.failures().saturating_sub(1);
    out.count("rankings_verified", ver.checked);
    out.count("requests_http", s.requests_http);
    out.count("requests_bin", s.requests_bin);
    out.count("rank_samples", s.rank_samples);
    out.count("vote_samples", s.vote_samples);
    out.count("segments", s.segments.len());
    let nonempty = |v: &[f64]| (!v.is_empty()).then(|| median(v));
    if let Some(v) = nonempty(&s.setup_s) {
        out.set("setup_s", v);
    }
    if let Some(v) = nonempty(&s.scenario_s) {
        out.set("kg-datasets.scenario_s", v);
    }
    // The best segment: lowest latency, highest rate.
    let lowest = |f: &dyn Fn(&Segment) -> Option<f64>| {
        s.segments.iter().filter_map(f).min_by(f64::total_cmp)
    };
    for (name, value) in [
        ("rank_p50_us", lowest(&|g| g.rank.map(|r| r.p50))),
        ("rank_p99_us", lowest(&|g| g.rank.and_then(|r| r.p99))),
        ("vote_p50_us", lowest(&|g| g.vote_p50)),
        ("kg-server.http_p50_us", lowest(&|g| g.http_p50)),
        ("kg-server.bin_p50_us", lowest(&|g| g.bin_p50)),
        (
            "rank_rps",
            s.segments
                .iter()
                .filter_map(|g| g.rps)
                .max_by(f64::total_cmp),
        ),
        (
            "round_ms",
            match s.repeated_rounds {
                Some(n) => nonempty(
                    &(0..n)
                        .filter_map(|i| {
                            s.round_ms
                                .iter()
                                .skip(i)
                                .step_by(n)
                                .copied()
                                .min_by(f64::total_cmp)
                        })
                        .collect::<Vec<_>>(),
                ),
                None => nonempty(&s.round_ms),
            },
        ),
        (
            "recover_ms",
            s.recover_ms.iter().copied().min_by(f64::total_cmp),
        ),
    ] {
        if let Some(v) = value {
            out.set(name, v);
        }
    }
    let (omega, votes) = s
        .rounds
        .iter()
        .fold((0i64, 0usize), |(o, n), r| (o + r.omega, n + r.votes));
    if votes > 0 {
        out.set("omega_avg", omega as f64 / votes as f64);
    }
    if s.cpu.1 > 0 {
        out.set("kg-server.cpu_us_per_req", s.cpu.0 * 1e6 / s.cpu.1 as f64);
    }
    out.set("kg-server.errors", s.wire_errors as f64);
    if !ver.kernel_us.is_empty() {
        let k = summarize(&ver.kernel_us);
        out.set("kg-sim.kernel_p50_us", k.p50);
        out.set(
            "kg-sim.kernel_p99_us",
            k.p99.unwrap_or_else(|| {
                ver.kernel_us
                    .iter()
                    .copied()
                    .max_by(f64::total_cmp)
                    .expect("nonempty")
            }),
        );
    }
    for (traced, e2e) in [
        ("trace.rank_p50_us", "rank_p50_us"),
        ("trace.round_ms", "round_ms"),
        ("trace.vote_p50_us", "vote_p50_us"),
    ] {
        if let Some(&v) = out.metrics.get(e2e) {
            out.set(traced, v);
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "ok_frac",
        (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64,
    );
}

/// One wire round and, in the traced run, its replay right after it, on
/// `reads` when given.
#[allow(clippy::too_many_arguments)]
fn round(
    live: &mut Live,
    uni: &Universe,
    batch: &[usize],
    reads: Option<&[usize]>,
    replayer: Option<&mut Replayer>,
    times: &mut RoundTimes,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let (r0, m0) = (s.rounds.len(), s.round_ms.len());
    wire_round(live, uni, batch, s, out);
    if let Some(rp) = replayer {
        let wire = s.rounds.get(r0).zip(s.round_ms.get(m0).copied());
        rp.round(uni, batch, wire, reads, times, out);
    }
}

/// Hot-cache serving over both protocols.
fn rank_hot(
    ctx: &Ctx,
    s: &mut Samples,
    ver: &mut Verifier,
    out: &mut Outcome,
) -> Result<(), String> {
    spare_setups(ctx, SETUPS - 1, s, ver, out)?;
    let (uni, reqs, mut live) = wire_setup(ctx, "served", s, ver, out)?;
    out.setup_rss_mb = peak_rss_mb();
    let Schedule::RankHot { prelude, hot } = Schedule::new(
        "rank_hot",
        ctx.seed,
        ctx.seconds,
        uni.votes.len(),
        uni.questions.len(),
    ) else {
        unreachable!("rank_hot schedule")
    };

    // Each segment: a burst of the fixed feedback prelude (this workload's
    // write-path metrics), an untimed read of every question so the cache
    // is full, then a chunk of the hot phase, drawn when it is about to be
    // sent. Spreading the prelude over the run keeps its fsync-bound vote
    // acks from all landing in one slow stretch of shared storage. One
    // client thread alternates the two connections: two concurrent closed
    // loops on two shared vCPUs spread 0.18–0.29 in rank p50 and rate
    // between runs, one alternating client 0.07–0.12.
    let all: Vec<usize> = (0..uni.questions.len()).collect();
    let rounds: Vec<&[usize]> = prelude.batches().collect();
    let mut d = ServeStats::default();
    let mut part = Vec::new();
    let mut times = RoundTimes::default();
    let mut replayer = ctx.trace.then(|| Replayer::new(ctx, &uni)).transpose()?;
    let snapshot_every = DurableOptions::default().snapshot_every;
    for i in 0..SEGMENTS {
        for batch in &rounds[i * rounds.len() / SEGMENTS..(i + 1) * rounds.len() / SEGMENTS] {
            let rp = replayer.as_mut();
            round(&mut live, &uni, batch, None, rp, &mut times, s, out);
        }
        // Right after a checkpoint the durable directory is a snapshot and
        // an empty WAL tail: the same work to recover at each of the
        // prelude's checkpoints, the last of which is the final state.
        if !s.rounds.is_empty() && s.rounds.len().is_multiple_of(snapshot_every) {
            let crc = live.server.with_framework(|fw| weights_crc(fw.graph()));
            let copies = RECOVERIES / (PRELUDE_ROUNDS / snapshot_every).max(1);
            recover(ctx, &uni, &live.dir, crc, copies, s, out);
        }
        read_pass(&mut live, &reqs, &all, false, false, s, ver, out);
        check_reads(&live, &uni, ver);
        part = hot.chunk(i, SEGMENTS);
        let before = live.stats();
        read_pass(&mut live, &reqs, &part, true, true, s, ver, out);
        let chunk = stats_delta(before, live.stats());
        out.check(
            chunk.misses == 0 && chunk.hits as usize == part.len(),
            || {
                format!(
                    "hot segment {i}: {} hits, {} misses for {} requests",
                    chunk.hits,
                    chunk.misses,
                    part.len()
                )
            },
        );
        check_reads(&live, &uni, ver);
        s.end_segment();
        d = stats_sum(d, chunk);
    }
    out.check(s.rounds.len() == PRELUDE_ROUNDS, || {
        format!(
            "{} of {PRELUDE_ROUNDS} prelude rounds completed",
            s.rounds.len()
        )
    });
    count_stats(out, &d);
    count_rounds(out, &s.rounds);

    if let Some(rp) = replayer {
        rp.finish();
        times.report(out);
        // What the server adds to a hit: the last segment's wire p50 minus
        // the in-process p50 of the same reads.
        let mirror = replay::serve_mirror(&uni, &live, &part, out);
        if let Some(wire) = s.segments.last().and_then(|g| g.rank) {
            out.set("kg-server.overhead_p50_us", wire.p50 - mirror);
        }
    }
    let dir = live.dir.clone();
    let crc = live.shutdown(out);
    if s.recover_ms.is_empty() {
        // No checkpoint fell in the prelude: recover the final state.
        recover(ctx, &uni, &dir, crc, RECOVERIES, s, out);
    }
    if ctx.trace {
        replay::probes(ctx, &uni, &prelude.votes, &dir, s, out);
    }
    Ok(())
}

/// The full feedback loop over the wire, one cycle at a time, in identical
/// passes that each start from a fresh durable framework.
fn feedback_loop(
    ctx: &Ctx,
    s: &mut Samples,
    ver: &mut Verifier,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut first = Some(wire_setup(ctx, "pass-0", s, ver, out)?);
    out.setup_rss_mb = peak_rss_mb();
    let Some((uni, _, _)) = &first else {
        unreachable!("set up above")
    };
    let Schedule::FeedbackLoop { pass, repetitions } = Schedule::new(
        "feedback_loop",
        ctx.seed,
        ctx.seconds,
        uni.votes.len(),
        uni.questions.len(),
    ) else {
        unreachable!("feedback_loop schedule")
    };
    // Every pass is the same work, so each is one segment and every round
    // is repeated once per pass.
    s.repeated_rounds = Some(pass.batches().len());
    let mut serve: Option<ServeStats> = None;
    let mut kept = None;
    let mut times = RoundTimes::default();
    let mut overhead = Vec::new();
    for rep in 0..repetitions {
        let (uni, reqs, mut live) = match first.take() {
            Some(set_up) => set_up,
            None => wire_setup(ctx, &format!("pass-{rep}"), s, ver, out)?,
        };
        let before = live.stats();
        let rounds_before = s.rounds.len();
        let mut replayer = ctx.trace.then(|| Replayer::new(ctx, &uni)).transpose()?;
        for (cycle, (batch, order)) in pass.batches().zip(&pass.reads).enumerate() {
            let rp = replayer.as_mut();
            round(&mut live, &uni, batch, Some(order), rp, &mut times, s, out);
            let hm = live.stats();
            read_pass(&mut live, &reqs, order, true, true, s, ver, out);
            let looked = stats_delta(hm, live.stats());
            out.check(looked.hits + looked.misses == order.len() as u64, || {
                format!(
                    "pass {rep} cycle {cycle}: {} lookups for {} reads",
                    looked.hits + looked.misses,
                    order.len()
                )
            });
            check_reads(&live, &uni, ver);
        }
        s.end_segment();
        // What the server adds to a read: the pass's wire p50 minus the
        // in-process p50 of the same reads with the same cache history.
        let inproc = replayer.and_then(Replayer::finish);
        if let (Some(inproc), Some(wire)) = (inproc, s.segments.last().and_then(|g| g.rank)) {
            overhead.push(wire.p50 - inproc);
        }
        let d = stats_delta(before, live.stats());
        match &serve {
            Some(first) => {
                out.check(*first == d, || {
                    format!("pass {rep} cache counters differ: {d:?} vs {first:?}")
                });
                let (head, this) = s.rounds.split_at(rounds_before);
                out.check(head[..this.len()] == *this, || {
                    format!("pass {rep} rounds differ from the first pass's")
                });
            }
            None => serve = Some(d),
        }
        if ctx.trace && rep + 1 == repetitions {
            let last = pass.reads.last().cloned().unwrap_or_default();
            replay::serve_mirror(&uni, &live, &last, out);
        }
        let dir = live.dir.clone();
        let crc = live.shutdown(out);
        ver.retire();
        recover(
            ctx,
            &uni,
            &dir,
            crc,
            RECOVERIES.div_ceil(repetitions),
            s,
            out,
        );
        if rep + 1 < repetitions {
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((uni, dir));
        }
    }
    spare_setups(ctx, SETUPS.saturating_sub(repetitions), s, ver, out)?;
    let rounds = pass.batches().len();
    if let Some(d) = serve {
        count_stats(out, &d);
    }
    count_rounds(out, &s.rounds[..rounds.min(s.rounds.len())]);
    out.count("passes", repetitions);

    let (uni, dir) = kept.ok_or("no pass ran")?;
    if ctx.trace {
        times.report(out);
        if !overhead.is_empty() {
            out.set("kg-server.overhead_p50_us", median(&overhead));
        }
        replay::probes(ctx, &uni, &pass.votes, &dir, s, out);
    }
    Ok(())
}
