//! The `votekg` command-line entry point. See `votekg help`.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::ExitCode;
use votekg_cli::{
    ask, build, explain, fuzz_campaign, fuzz_replay, gen_corpus, optimize_instrumented,
    parse_inject_skew, parse_seed_range, recover, serve, stats, trace_export, trace_record,
    trace_report, vote, CliError, FuzzArgs, OptimizeStrategy, ServeArgs, TelemetryMode,
};

const HELP: &str = "\
votekg — voting-based knowledge-graph optimization (ICDE 2020)

USAGE:
  votekg gen-corpus --docs N --out corpus.json [--seed S]
  votekg build      --corpus corpus.json --out system.json
                    [--min-doc-count N] [--max-path-len L]
  votekg ask        --system system.json --question TEXT [-k N]
  votekg vote       --system system.json --log votes.jsonl
                    --question TEXT --best DOC_ID [-k N]
  votekg optimize   --system system.json --log votes.jsonl
                    [--strategy single|multi|split-merge[:WORKERS]]
                    [--batch N] [--telemetry json|prom|off]
                    [--solve-timeout-ms N] [--trace trace.json]
                    [--wal DIR]
  votekg serve      --system system.json [--addr HOST:PORT]
                    [--server-workers N] [--serve-workers N]
                    [--queue-depth N] [--read-timeout-ms N]
                    [--wal DIR] [--max-seconds N]
  votekg recover    --system system.json --wal DIR [--out recovered.json]
  votekg explain    --system system.json --question TEXT --doc DOC_ID
                    [--top N]
  votekg stats      --system system.json
  votekg trace record --system system.json --log votes.jsonl
                    --out trace.json [--strategy S] [--batch N]
  votekg trace export --in trace.json [--out normalized.json]
  votekg trace report --in trace.json [--min-coverage FRAC]
  votekg fuzz       --seed-range A..B [--timeout-ms N] [--out DIR]
                    [--inject-skew INNER:FRAC] [--shrink-checks N]
                    [--telemetry json|prom|off] [--trace trace.json]
  votekg fuzz       --replay FILE [--telemetry json|prom|off]
                    [--trace trace.json]
  votekg help

`trace record` profiles one optimization run with the flight recorder on
(without persisting the bundle) and writes a Chrome trace-event file
loadable in Perfetto / chrome://tracing; `trace report` attributes each
round's wall-clock to phases (p50/p99 per phase).

`serve` exposes the bundle over HTTP/1.1 and a compact binary protocol
on one port (rank, vote, optimize, stats, Prometheus metrics); it prints
`listening on HOST:PORT` once bound and drains on `POST /shutdown`.
With `--wal DIR` every acknowledged vote is fsynced to the write-ahead
log first, so acked votes survive a crash (`votekg recover`).

`optimize --wal DIR` journals accepted votes and every committed round to
an fsynced write-ahead log (plus periodic compacted graph snapshots) in
DIR; after a crash, `votekg recover` replays it onto the bundle and
restores the exact committed weights, bit for bit.
";

/// Tiny flag map: `--name value` pairs plus `-k N`. It remembers which
/// keys a subcommand looked up, so [`Flags::done`] can reject the rest.
struct Flags {
    map: HashMap<String, String>,
    read: RefCell<HashSet<String>>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-'))
                .ok_or_else(|| CliError::Usage(format!("unexpected argument {a:?}")))?;
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("flag --{key} requires a value")))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Flags {
            map,
            read: RefCell::default(),
        })
    }

    fn req(&self, key: &str) -> Result<&str, CliError> {
        self.opt(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.map.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid value for --{key}: {v:?}"))),
        }
    }

    /// Fails naming every flag the subcommand never looked up. Call it
    /// after reading the flags and before doing any work.
    fn done(&self) -> Result<(), CliError> {
        let read = self.read.borrow();
        let mut unread: Vec<String> = self
            .map
            .keys()
            .filter(|k| !read.contains(*k))
            .map(|k| format!("--{k}"))
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        unread.sort();
        Err(CliError::Usage(format!(
            "unknown flag(s) for this command: {}; run `votekg help`",
            unread.join(", ")
        )))
    }
}

fn run_trace(sub: &str, flags: &Flags) -> Result<(), CliError> {
    match sub {
        "record" => {
            let system = PathBuf::from(flags.req("system")?);
            let log = PathBuf::from(flags.req("log")?);
            let out = PathBuf::from(flags.req("out")?);
            let strategy = OptimizeStrategy::parse(flags.opt("strategy").unwrap_or("multi"))?;
            let batch = flags.num("batch", 0usize)?;
            flags.done()?;
            let (report, parsed) = trace_record(&system, &log, strategy, batch, &out)?;
            println!(
                "recorded {} events ({} spans, {} dropped) from optimizing {} votes -> {}",
                parsed.events,
                parsed.spans.len(),
                parsed.dropped,
                report.outcomes.len(),
                out.display()
            );
            println!("view in Perfetto / chrome://tracing, or run `votekg trace report`");
        }
        "export" => {
            let input = PathBuf::from(flags.req("in")?);
            let out = flags.opt("out");
            flags.done()?;
            let (parsed, normalized) = trace_export(&input)?;
            match out {
                Some(out) => {
                    std::fs::write(out, &normalized).map_err(|e| CliError::io(out, e))?;
                    println!(
                        "exported {} spans ({} events in, {} dropped) -> {out}",
                        parsed.spans.len(),
                        parsed.events,
                        parsed.dropped
                    );
                }
                None => println!("{normalized}"),
            }
        }
        "report" => {
            let input = PathBuf::from(flags.req("in")?);
            let min_coverage = match flags.opt("min-coverage") {
                None => None,
                Some(v) => Some(v.parse::<f64>().map_err(|_| {
                    CliError::Usage(format!("invalid value for --min-coverage: {v:?}"))
                })?),
            };
            flags.done()?;
            let (_, rendered) = trace_report(&input, min_coverage)?;
            print!("{rendered}");
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown trace subcommand {other:?} (expected record | export | report)"
            )))
        }
    }
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        print!("{HELP}");
        return Ok(());
    };
    // `trace` takes a positional subcommand before its flags.
    if cmd == "trace" {
        let sub = args.get(1).ok_or_else(|| {
            CliError::Usage("trace requires a subcommand: record | export | report".into())
        })?;
        let flags = Flags::parse(&args[2..])?;
        return run_trace(sub, &flags);
    }
    let flags = Flags::parse(&args[1..])?;

    match cmd.as_str() {
        "gen-corpus" => {
            let out = PathBuf::from(flags.req("out")?);
            let docs = flags.num("docs", 120usize)?;
            let seed = flags.num("seed", 42u64)?;
            flags.done()?;
            let n = gen_corpus(docs, seed, &out)?;
            println!("wrote {n} documents to {}", out.display());
        }
        "build" => {
            let corpus = PathBuf::from(flags.req("corpus")?);
            let out = PathBuf::from(flags.req("out")?);
            let min_doc_count = flags.num("min-doc-count", 2usize)?;
            let max_path_len = flags.num("max-path-len", 2usize)?;
            flags.done()?;
            let bundle = build(&corpus, &out, min_doc_count, max_path_len)?;
            println!(
                "built system: {} entities, {} edges, {} documents -> {}",
                bundle.vocab.len(),
                bundle.graph.edges.len(),
                bundle.doc_ids.len(),
                out.display()
            );
        }
        "ask" => {
            let system = PathBuf::from(flags.req("system")?);
            let question = flags.req("question")?;
            let k = flags.num("k", 10usize)?;
            flags.done()?;
            let outcome = ask(&system, question, k)?;
            for (rank, (doc, score)) in outcome.ranked.iter().enumerate() {
                println!("#{:<3} {doc}  (score {score:.6})", rank + 1);
            }
        }
        "vote" => {
            let system = PathBuf::from(flags.req("system")?);
            let log = PathBuf::from(flags.req("log")?);
            let question = flags.req("question")?;
            let best = flags.req("best")?;
            let k = flags.num("k", 10usize)?;
            flags.done()?;
            let (v, negative) = vote(&system, &log, question, best, k)?;
            println!(
                "recorded {} vote: best answer ranked #{} of {}",
                if negative { "negative" } else { "positive" },
                v.best_rank(),
                v.answers.len()
            );
        }
        "optimize" => {
            let system = PathBuf::from(flags.req("system")?);
            let log = PathBuf::from(flags.req("log")?);
            let strategy = OptimizeStrategy::parse(flags.opt("strategy").unwrap_or("multi"))?;
            let telemetry = TelemetryMode::parse(flags.opt("telemetry").unwrap_or("off"))?;
            let batch = flags.num("batch", 0usize)?;
            let solve_timeout = match flags.opt("solve-timeout-ms") {
                None => None,
                Some(v) => {
                    let ms: u64 = v.parse().map_err(|_| {
                        CliError::Usage(format!("invalid value for --solve-timeout-ms: {v:?}"))
                    })?;
                    Some(std::time::Duration::from_millis(ms))
                }
            };
            let trace = flags.opt("trace").map(PathBuf::from);
            let wal = flags.opt("wal").map(PathBuf::from);
            flags.done()?;
            let (report, dump) = optimize_instrumented(
                &system,
                &log,
                strategy,
                batch,
                telemetry,
                solve_timeout,
                trace.as_deref(),
                wal.as_deref(),
            )?;
            let mode = if batch > 0 {
                format!(" (incremental, batches of {batch})")
            } else {
                String::new()
            };
            let mut summary = format!(
                "optimized {} votes{mode}: omega = {} (omega_avg {:.2}), {} satisfied, {} discarded, {} edges adjusted",
                report.outcomes.len(),
                report.omega(),
                report.omega_avg(),
                report.satisfied_votes(),
                report.discarded_votes,
                report.edges_changed,
            );
            let (failed, timed_out, degraded) = (
                report.failed_solves(),
                report.timed_out_solves(),
                report.degraded_solves(),
            );
            if failed + timed_out + degraded + report.quarantined_votes > 0 {
                summary.push_str(&format!(
                    "; solver faults: {failed} failed, {timed_out} timed out, \
                     {degraded} degraded, {} votes quarantined",
                    report.quarantined_votes
                ));
            }
            match dump {
                // With a telemetry dump requested, the dump owns stdout
                // (so `--telemetry json > out.json` yields valid JSON)
                // and the human summary moves to stderr.
                Some(dump) => {
                    eprintln!("{summary}");
                    println!("{dump}");
                }
                None => println!("{summary}"),
            }
        }
        "serve" => {
            let max_seconds = match flags.opt("max-seconds") {
                None => None,
                Some(v) => Some(v.parse::<u64>().map_err(|_| {
                    CliError::Usage(format!("invalid value for --max-seconds: {v:?}"))
                })?),
            };
            let serve_args = ServeArgs {
                system: PathBuf::from(flags.req("system")?),
                addr: flags.opt("addr").unwrap_or("127.0.0.1:0").to_string(),
                server_workers: flags.num("server-workers", 4usize)?,
                serve_workers: flags.num("serve-workers", 1usize)?,
                queue_depth: flags.num("queue-depth", 128usize)?,
                read_timeout: std::time::Duration::from_millis(
                    flags.num("read-timeout-ms", 5_000u64)?,
                ),
                wal: flags.opt("wal").map(PathBuf::from),
                max_seconds,
            };
            flags.done()?;
            let report = serve(&serve_args)?;
            let s = &report.stats;
            eprintln!(
                "drained {}: {} http + {} binary requests, {} votes acked, \
                 {} optimization rounds, {} panics",
                if report.clean { "clean" } else { "UNCLEAN" },
                s.http_requests,
                s.bin_requests,
                s.votes_positive + s.votes_negative,
                s.optimize_rounds,
                s.handler_panics
            );
            if !report.clean {
                return Err(CliError::Usage(
                    "serve drained uncleanly (handler panics)".into(),
                ));
            }
        }
        "recover" => {
            let system = PathBuf::from(flags.req("system")?);
            let wal = PathBuf::from(flags.req("wal")?);
            let out = flags.opt("out").map(PathBuf::from);
            flags.done()?;
            let outcome = recover(&system, &wal, out.as_deref())?;
            let r = &outcome.report;
            // The first line and the `verified` line are deterministic
            // functions of the recovered state, so repeated recoveries of
            // the same WAL print them identically.
            println!(
                "recovered: version {}, weights crc 0x{:08x}, {} pending vote(s)",
                r.recovered_version, r.weights_crc, r.votes_recovered
            );
            let snapshot = match (&r.snapshot_path, r.snapshot_version) {
                (Some(path), Some(v)) => format!("snapshot {} (version {v})", path.display()),
                _ => "no snapshot (replayed full WAL)".to_string(),
            };
            println!(
                "replay: {snapshot}, {} round(s) applied, {} skipped",
                r.rounds_applied, r.rounds_skipped
            );
            if let Some(torn) = &r.torn_tail {
                println!(
                    "torn tail: dropped {} incomplete byte(s) at offset {} (uncommitted write)",
                    torn.bytes_dropped, torn.offset
                );
            }
            for (path, reason) in &r.corrupt_snapshots {
                println!("skipped damaged snapshot {}: {reason}", path.display());
            }
            println!("verified: applied rounds match their committed weight checksums");
            println!("wrote {}", outcome.out_path.display());
        }
        "explain" => {
            let system = PathBuf::from(flags.req("system")?);
            let question = flags.req("question")?;
            let doc = flags.req("doc")?;
            let top = flags.num("top", 5usize)?;
            flags.done()?;
            for line in explain(&system, question, doc, top)? {
                println!("{line}");
            }
        }
        "stats" => {
            let system = PathBuf::from(flags.req("system")?);
            flags.done()?;
            println!("{}", stats(&system)?);
        }
        "fuzz" => {
            let telemetry = TelemetryMode::parse(flags.opt("telemetry").unwrap_or("off"))?;
            let trace = flags.opt("trace").map(PathBuf::from);
            if let Some(replay_path) = flags.opt("replay") {
                let path = PathBuf::from(replay_path);
                flags.done()?;
                let (report, dump) = fuzz_replay(&path, telemetry, trace.as_deref())?;
                let summary = format!(
                    "replayed {}: verdict {} ({} solves, stored {}) — deterministic across 2 runs",
                    path.display(),
                    report.verdict,
                    report.solves,
                    report.stored_verdict
                );
                match dump {
                    Some(dump) => {
                        eprintln!("{summary}");
                        println!("{dump}");
                    }
                    None => println!("{summary}"),
                }
                if !report.reproduced {
                    return Err(CliError::Fuzz(format!(
                        "{}: stored verdict {} no longer reproduces (got {})",
                        path.display(),
                        report.stored_verdict,
                        report.verdict
                    )));
                }
            } else {
                let args = FuzzArgs {
                    seeds: parse_seed_range(flags.req("seed-range")?)?,
                    timeout: match flags.opt("timeout-ms") {
                        None => None,
                        Some(v) => {
                            let ms: u64 = v.parse().map_err(|_| {
                                CliError::Usage(format!("invalid value for --timeout-ms: {v:?}"))
                            })?;
                            Some(std::time::Duration::from_millis(ms))
                        }
                    },
                    out_dir: flags.opt("out").map(PathBuf::from),
                    inject: flags
                        .opt("inject-skew")
                        .map(parse_inject_skew)
                        .transpose()?,
                    shrink_checks: flags.num("shrink-checks", 600usize)?,
                    telemetry,
                    trace,
                };
                flags.done()?;
                let (summary, dump) = fuzz_campaign(&args)?;
                for d in &summary.divergences {
                    let loc = d
                        .path
                        .as_ref()
                        .map(|p| format!(" -> {}", p.display()))
                        .unwrap_or_default();
                    eprintln!(
                        "divergence at seed {}: {} (shrunk to {} votes in {} steps){loc}",
                        d.seed, d.verdict, d.votes, d.shrink_steps
                    );
                }
                match dump {
                    Some(dump) => {
                        eprintln!("{}", summary.line());
                        println!("{dump}");
                    }
                    None => println!("{}", summary.line()),
                }
                if !summary.divergences.is_empty() {
                    return Err(CliError::Fuzz(format!(
                        "found {} divergence(s); replay with `votekg fuzz --replay FILE`",
                        summary.divergences.len()
                    )));
                }
            }
        }
        "help" | "--help" | "-h" => {
            flags.done()?;
            print!("{HELP}");
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?}; run `votekg help`"
            )))
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("votekg: {e}");
            ExitCode::FAILURE
        }
    }
}
