//! The CLI subcommand implementations.

use crate::bundle::SystemBundle;
use crate::error::CliError;
use kg_datasets::corpus_gen::{generate_corpus, CorpusGenConfig};
use kg_qa::{Corpus, Document, QaSystem, QaSystemOptions, VocabularyOptions};
use kg_sim::SimilarityConfig;
use kg_votes::{read_log, write_log, OptimizationReport, Vote, VoteSet};
use std::io::Write as _;
use std::path::Path;

/// Which optimization pipeline `votekg optimize` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizeStrategy {
    /// Algorithm 1 (greedy per-negative-vote).
    Single,
    /// The batch multi-vote solution (default).
    Multi,
    /// Split-and-merge with the given worker count.
    SplitMerge {
        /// Worker threads for per-cluster solves.
        workers: usize,
    },
}

impl OptimizeStrategy {
    /// Parses a strategy name (`single`, `multi`, `split-merge[:N]`).
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "single" => Ok(OptimizeStrategy::Single),
            "multi" => Ok(OptimizeStrategy::Multi),
            _ => {
                if let Some(rest) = s.strip_prefix("split-merge") {
                    let workers = match rest.strip_prefix(':') {
                        None if rest.is_empty() => 1,
                        Some(n) => n
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad worker count in {s:?}")))?,
                        _ => return Err(CliError::Usage(format!("unknown strategy {s:?}"))),
                    };
                    Ok(OptimizeStrategy::SplitMerge { workers })
                } else {
                    Err(CliError::Usage(format!(
                        "unknown strategy {s:?} (expected single | multi | split-merge[:N])"
                    )))
                }
            }
        }
    }
}

/// Output format of `votekg optimize --telemetry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No instrumentation (default): the zero-cost disabled path.
    Off,
    /// Enable telemetry for the run and dump the registry as JSON.
    Json,
    /// Enable telemetry and dump Prometheus text exposition format.
    Prom,
}

impl TelemetryMode {
    /// Parses a `--telemetry` value (`json`, `prom`, `off`).
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "off" => Ok(TelemetryMode::Off),
            "json" => Ok(TelemetryMode::Json),
            "prom" | "prometheus" => Ok(TelemetryMode::Prom),
            _ => Err(CliError::Usage(format!(
                "unknown telemetry mode {s:?} (expected json | prom | off)"
            ))),
        }
    }
}

/// `votekg gen-corpus`: writes a synthetic demo corpus as JSON.
pub fn gen_corpus(docs: usize, seed: u64, out: &Path) -> Result<usize, CliError> {
    let (corpus, _) = generate_corpus(&CorpusGenConfig {
        n_docs: docs,
        seed,
        ..Default::default()
    });
    let json = serde_json::to_string_pretty(&corpus.docs).expect("documents serialize");
    std::fs::write(out, json).map_err(|e| CliError::io(out.display().to_string(), e))?;
    Ok(corpus.len())
}

/// `votekg build`: compiles a corpus JSON (array of `{id,title,text}`)
/// into a system bundle.
pub fn build(
    corpus_path: &Path,
    out: &Path,
    min_doc_count: usize,
    max_path_len: usize,
) -> Result<SystemBundle, CliError> {
    let text = std::fs::read_to_string(corpus_path)
        .map_err(|e| CliError::io(corpus_path.display().to_string(), e))?;
    let docs: Vec<Document> = serde_json::from_str(&text)
        .map_err(|e| CliError::parse(corpus_path.display().to_string(), e))?;
    if docs.is_empty() {
        return Err(CliError::Usage("corpus contains no documents".into()));
    }
    let corpus = Corpus { docs };
    let qa = QaSystem::build(
        &corpus,
        &QaSystemOptions {
            vocab: VocabularyOptions {
                min_doc_count,
                max_doc_fraction: 0.8,
                min_token_len: 3,
            },
            sim: SimilarityConfig::new(0.15, max_path_len),
        },
    );
    let doc_ids = corpus.docs.iter().map(|d| d.id.clone()).collect();
    let bundle = SystemBundle::from_system(&qa, doc_ids);
    bundle.save(out)?;
    Ok(bundle)
}

/// Result of `votekg ask`.
#[derive(Debug, Clone)]
pub struct AskOutcome {
    /// `(document id, similarity score)` rows, best first.
    pub ranked: Vec<(String, f64)>,
}

/// `votekg ask`: ranks documents for a question. Does not persist the
/// transient query node.
pub fn ask(system_path: &Path, question: &str, k: usize) -> Result<AskOutcome, CliError> {
    let bundle = SystemBundle::load(system_path)?;
    let (mut qa, doc_ids) = bundle.into_system()?;
    let (_, ranked) = qa.ask(question, k);
    Ok(AskOutcome {
        ranked: ranked
            .into_iter()
            .map(|r| {
                let d = qa.document_of(r.node).expect("ranked nodes are answers");
                (doc_ids[d].clone(), r.score)
            })
            .collect(),
    })
}

/// `votekg vote`: ranks documents for the question, records a vote for
/// `best_doc_id`, appends it to the log, and persists the updated bundle
/// (the question's query node must survive for the log to stay valid).
/// Returns the vote's position list and whether it was negative.
pub fn vote(
    system_path: &Path,
    log_path: &Path,
    question: &str,
    best_doc_id: &str,
    k: usize,
) -> Result<(Vote, bool), CliError> {
    let bundle = SystemBundle::load(system_path)?;
    let (mut qa, doc_ids) = bundle.into_system()?;
    let (query, ranked) = qa.ask(question, k);
    let list: Vec<_> = ranked
        .iter()
        .take_while(|r| r.score > 0.0)
        .map(|r| r.node)
        .collect();
    if list.is_empty() {
        return Err(CliError::NotFound(format!(
            "question {question:?} matches no document (no vote recorded)"
        )));
    }
    let best = doc_ids
        .iter()
        .position(|d| d == best_doc_id)
        .map(|i| qa.answers[i])
        .ok_or_else(|| CliError::NotFound(format!("document id {best_doc_id:?}")))?;
    if !list.contains(&best) {
        return Err(CliError::NotFound(format!(
            "document {best_doc_id:?} is not in the top-{k} list for this question"
        )));
    }
    let v = Vote::new(query, list, best);
    let negative = !v.is_positive();

    // Append to the log: votes reference the *updated* graph (with the new
    // query node), so the log is rewritten against it.
    let mut votes = if log_path.exists() {
        // Existing entries were recorded against earlier versions of the
        // graph; queries are append-only so old node ids remain valid.
        let file = std::fs::File::open(log_path)
            .map_err(|e| CliError::io(log_path.display().to_string(), e))?;
        match read_log(file, &qa.graph) {
            Ok(votes) => votes,
            Err(kg_votes::LogError::GraphMismatch { .. }) => {
                // The graph gained this question's query node since the log
                // header was written; re-read leniently by skipping the
                // fingerprint check via a fresh header below.
                let file = std::fs::File::open(log_path)
                    .map_err(|e| CliError::io(log_path.display().to_string(), e))?;
                read_log_lenient(file, log_path)?
            }
            Err(e) => return Err(CliError::LogMismatch(e.to_string())),
        }
    } else {
        VoteSet::new()
    };
    votes.push(v.clone());
    let mut out = Vec::new();
    write_log(&mut out, &qa.graph, &votes).map_err(|e| CliError::LogMismatch(e.to_string()))?;
    std::fs::File::create(log_path)
        .and_then(|mut f| f.write_all(&out))
        .map_err(|e| CliError::io(log_path.display().to_string(), e))?;

    // Persist the bundle with the new query node.
    let bundle = SystemBundle::from_system(&qa, doc_ids);
    bundle.save(system_path)?;
    Ok((v, negative))
}

/// Reads a vote log without the fingerprint check (used when the graph
/// has legitimately grown since the header was written).
fn read_log_lenient(r: impl std::io::Read, path: &Path) -> Result<VoteSet, CliError> {
    use std::io::BufRead;
    let reader = std::io::BufReader::new(r);
    let mut votes = VoteSet::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| CliError::io(path.display().to_string(), e))?;
        if i == 0 || line.trim().is_empty() {
            continue; // header
        }
        let vote: Vote = serde_json::from_str(&line)
            .map_err(|e| CliError::parse(format!("{}:{}", path.display(), i + 1), e))?;
        votes.push(vote);
    }
    Ok(votes)
}

/// `votekg optimize`: applies the vote log to the bundle's graph with the
/// chosen strategy and persists the optimized bundle. `batch = 0` solves
/// all votes at once; `batch = n > 0` runs the incremental pipeline in
/// arrival-order batches of `n`, one framework round per batch.
pub fn optimize(
    system_path: &Path,
    log_path: &Path,
    strategy: OptimizeStrategy,
    batch: usize,
) -> Result<OptimizationReport, CliError> {
    Ok(optimize_instrumented(
        system_path,
        log_path,
        strategy,
        batch,
        TelemetryMode::Off,
        None,
        None,
        None,
    )?
    .0)
}

/// [`optimize`] with the telemetry layer switched on for the duration of
/// the run and an optional wall-clock budget per solve (`votekg optimize
/// --solve-timeout-ms`; a solve that hits it applies its best iterate so
/// far). `trace` additionally turns on the flight recorder for the run
/// and writes a Chrome trace-event file there (`votekg optimize
/// --trace`). `wal` makes the run durable (`votekg optimize --wal DIR`):
/// accepted votes and every committed round are written to an fsynced
/// write-ahead log in that directory, so a crash mid-run loses at most
/// the uncommitted round — `votekg recover` replays the rest. Returns
/// the report plus the rendered telemetry dump (`None` with
/// [`TelemetryMode::Off`]).
#[allow(clippy::too_many_arguments)]
pub fn optimize_instrumented(
    system_path: &Path,
    log_path: &Path,
    strategy: OptimizeStrategy,
    batch: usize,
    telemetry: TelemetryMode,
    solve_timeout: Option<std::time::Duration>,
    trace: Option<&Path>,
    wal: Option<&Path>,
) -> Result<(OptimizationReport, Option<String>), CliError> {
    let instrumented = telemetry != TelemetryMode::Off || trace.is_some();
    if instrumented {
        kg_telemetry::reset();
        kg_telemetry::enable();
    }
    if trace.is_some() {
        kg_telemetry::start_recording();
    }
    let result = optimize_inner(
        system_path,
        log_path,
        strategy,
        batch,
        solve_timeout,
        true,
        wal,
    );
    let trace_result = trace.map(|path| {
        kg_telemetry::stop_recording();
        std::fs::write(path, kg_telemetry::chrome_trace_json())
            .map_err(|e| CliError::io(path.display().to_string(), e))
    });
    let dump = match telemetry {
        TelemetryMode::Off => None,
        TelemetryMode::Json => Some(kg_telemetry::export_json()),
        TelemetryMode::Prom => Some(kg_telemetry::export_prometheus()),
    };
    if instrumented {
        kg_telemetry::disable();
    }
    let report = result?;
    if let Some(trace_result) = trace_result {
        trace_result?;
    }
    Ok((report, dump))
}

/// Runs the vote log through a [`votekg::Framework`] over the bundle's
/// graph — one round for `batch = 0`, one round per batch of `batch`
/// votes otherwise — and persists the result when `persist` is set.
///
/// With `wal`, the framework is durable: it opens (or creates) the
/// write-ahead log there, recovering any state a previous crashed run
/// committed, commits every round with an fsync, and checkpoints a
/// compacted snapshot on completion. Votes still pending in the WAL from
/// a crashed run take precedence: when any are recovered, the vote log
/// is *not* re-ingested (its votes are already in the WAL), so
/// re-running after a crash never applies a vote twice.
pub(crate) fn optimize_inner(
    system_path: &Path,
    log_path: &Path,
    strategy: OptimizeStrategy,
    batch: usize,
    solve_timeout: Option<std::time::Duration>,
    persist: bool,
    wal: Option<&Path>,
) -> Result<OptimizationReport, CliError> {
    let bundle = SystemBundle::load(system_path)?;
    let (mut qa, doc_ids) = bundle.into_system()?;
    let file = std::fs::File::open(log_path)
        .map_err(|e| CliError::io(log_path.display().to_string(), e))?;
    let votes = read_log(file, &qa.graph).map_err(|e| CliError::LogMismatch(e.to_string()))?;
    if votes.is_empty() {
        return Err(CliError::Usage("vote log contains no votes".into()));
    }

    let (config, fw_strategy) = framework_config(qa.sim, strategy, solve_timeout);
    let graph = std::mem::replace(&mut qa.graph, empty_graph());
    let wal_error = |e: votekg::WalError| CliError::Wal(e.to_string());
    let mut fw = match wal {
        None => votekg::Framework::new(graph, config),
        Some(dir) => {
            let opts = votekg::DurableOptions {
                snapshot_every: 4,
                ..Default::default()
            };
            let (fw, recovery) =
                votekg::Framework::open_durable(dir, graph, config, opts).map_err(wal_error)?;
            if recovery.votes_recovered > 0 {
                eprintln!(
                    "recovered {} pending vote(s) from {} (committed version {}); \
                     optimizing those instead of re-reading the vote log",
                    recovery.votes_recovered,
                    dir.display(),
                    recovery.recovered_version
                );
            }
            fw
        }
    };
    if fw.pending_votes().is_empty() {
        for v in votes.votes {
            fw.record_vote_durable(v).map_err(wal_error)?;
        }
    }
    let reports = if batch > 0 {
        fw.optimize_incremental_durable(fw_strategy, batch)
            .map_err(wal_error)?
    } else {
        vec![fw.optimize_durable(fw_strategy).map_err(wal_error)?]
    };
    // A durable run that completed cleanly snapshots and compacts, so the
    // WAL stays bounded and the next open is O(snapshot) instead of
    // O(history). No-op without a WAL.
    fw.checkpoint().map_err(wal_error)?;
    qa.graph = std::mem::replace(fw.graph_mut(), empty_graph());

    if persist {
        let bundle = SystemBundle::from_system(&qa, doc_ids);
        bundle.save(system_path)?;
    }
    Ok(merge_reports(reports))
}

/// Builds a framework configuration for the bundle's similarity settings
/// (pipelines default to L = 5) and the CLI strategy, returning the
/// matching framework strategy.
fn framework_config(
    sim: SimilarityConfig,
    strategy: OptimizeStrategy,
    solve_timeout: Option<std::time::Duration>,
) -> (votekg::FrameworkConfig, votekg::Strategy) {
    let mut config = votekg::FrameworkConfig::default();
    config.single.encode.sim = sim;
    config.multi.encode.sim = sim;
    config.split_merge.multi.encode.sim = sim;
    config.set_solve_timeout(solve_timeout);
    let fw_strategy = match strategy {
        OptimizeStrategy::Single => votekg::Strategy::SingleVote,
        OptimizeStrategy::Multi => votekg::Strategy::MultiVote,
        OptimizeStrategy::SplitMerge { workers } => {
            config.split_merge.workers = workers;
            votekg::Strategy::SplitMerge
        }
    };
    (config, fw_strategy)
}

/// Folds per-batch reports into one.
fn merge_reports(reports: Vec<OptimizationReport>) -> OptimizationReport {
    let mut merged = OptimizationReport::default();
    for r in reports {
        merged.outcomes.extend(r.outcomes);
        merged.discarded_votes += r.discarded_votes;
        merged.quarantined_votes += r.quarantined_votes;
        merged.discards.extend(r.discards);
        merged.solves.extend(r.solves);
        merged.edges_changed += r.edges_changed;
        merged.solver_inner_iterations += r.solver_inner_iterations;
        merged.solver_elapsed += r.solver_elapsed;
        merged.total_elapsed += r.total_elapsed;
    }
    merged
}

/// What `votekg recover` reconstructed, ready for rendering.
#[derive(Debug)]
pub struct RecoverOutcome {
    /// The durable layer's replay report.
    pub report: votekg::RecoveryReport,
    /// Where the recovered bundle was written.
    pub out_path: std::path::PathBuf,
}

/// `votekg recover`: loads the system bundle, replays the WAL directory
/// on top of it (newest valid snapshot + WAL tail — every applied round
/// is verified against its committed weight checksum), and persists the
/// recovered bundle to `out` (defaulting to the system path itself).
/// Idempotent: running it again recovers the identical state.
pub fn recover(
    system_path: &Path,
    wal_dir: &Path,
    out: Option<&Path>,
) -> Result<RecoverOutcome, CliError> {
    let bundle = SystemBundle::load(system_path)?;
    let (mut qa, doc_ids) = bundle.into_system()?;
    let (mut fw, report) = votekg::Framework::open_durable(
        wal_dir,
        std::mem::replace(&mut qa.graph, empty_graph()),
        votekg::FrameworkConfig::default(),
        votekg::DurableOptions::default(),
    )
    .map_err(|e| CliError::Wal(e.to_string()))?;
    qa.graph = std::mem::replace(fw.graph_mut(), empty_graph());
    drop(fw); // syncs the WAL; the pending votes stay queued in it
    let out_path = out.unwrap_or(system_path).to_path_buf();
    let bundle = SystemBundle::from_system(&qa, doc_ids);
    bundle.save(&out_path)?;
    Ok(RecoverOutcome { report, out_path })
}

fn empty_graph() -> kg_graph::KnowledgeGraph {
    kg_graph::GraphBuilder::new().build()
}

/// `votekg explain`: the top contributing relation chains behind a
/// document's score for a question.
pub fn explain(
    system_path: &Path,
    question: &str,
    doc_id: &str,
    top_n: usize,
) -> Result<Vec<String>, CliError> {
    let bundle = SystemBundle::load(system_path)?;
    let (mut qa, doc_ids) = bundle.into_system()?;
    let answer = doc_ids
        .iter()
        .position(|d| d == doc_id)
        .map(|i| qa.answers[i])
        .ok_or_else(|| CliError::NotFound(format!("document id {doc_id:?}")))?;
    let (query, _) = qa.ask(question, 1);
    let sim = qa.sim;
    let explanations = kg_sim::explain_ranking(&qa.graph, query, answer, &sim, top_n, 500_000);
    if explanations.is_empty() {
        return Err(CliError::NotFound(format!(
            "no relation chain links this question to {doc_id:?} within L = {}",
            sim.max_path_len
        )));
    }
    Ok(explanations
        .iter()
        .map(|e| format!("{:5.1}%  {}", 100.0 * e.share, e.render(&qa.graph)))
        .collect())
}

/// `votekg stats`: human-readable bundle summary.
pub fn stats(system_path: &Path) -> Result<String, CliError> {
    let bundle = SystemBundle::load(system_path)?;
    let (qa, doc_ids) = bundle.into_system()?;
    let s = kg_graph::GraphStats::of(&qa.graph);
    Ok(format!(
        "{s}\nvocabulary: {} entities\ndocuments: {}\nregistered questions: {}\nsimilarity: c = {}, L = {}",
        qa.vocab.len(),
        doc_ids.len(),
        qa.queries.len(),
        qa.sim.restart,
        qa.sim.max_path_len,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_parsing() {
        assert_eq!(
            OptimizeStrategy::parse("single").unwrap(),
            OptimizeStrategy::Single
        );
        assert_eq!(
            OptimizeStrategy::parse("multi").unwrap(),
            OptimizeStrategy::Multi
        );
        assert_eq!(
            OptimizeStrategy::parse("split-merge").unwrap(),
            OptimizeStrategy::SplitMerge { workers: 1 }
        );
        assert_eq!(
            OptimizeStrategy::parse("split-merge:4").unwrap(),
            OptimizeStrategy::SplitMerge { workers: 4 }
        );
        assert!(OptimizeStrategy::parse("magic").is_err());
        assert!(OptimizeStrategy::parse("split-merge:x").is_err());
    }
}
