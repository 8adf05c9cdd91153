//! `votekg serve`: the network front-end over a persisted system
//! bundle.
//!
//! Loads the bundle, wraps it in a [`votekg::Framework`] (durable when
//! `--wal DIR` is given — votes are then fsynced to the write-ahead log
//! before they are acknowledged), and runs a [`kg_server::KgServer`]
//! until `POST /shutdown` arrives or `--max-seconds` elapses. Prints
//! exactly one `listening on HOST:PORT` line to stdout once the socket
//! is bound, so scripts and tests can discover an OS-assigned port.

use crate::bundle::SystemBundle;
use crate::error::CliError;
use kg_server::{DrainReport, KgServer, ServerConfig};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything `votekg serve` needs.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Path of the system bundle to serve.
    pub system: PathBuf,
    /// Bind address (port 0 picks a free port).
    pub addr: String,
    /// Connection-handling worker threads.
    pub server_workers: usize,
    /// Serving-cache re-rank workers (1 = inline; results identical).
    pub serve_workers: usize,
    /// Bounded accept-queue depth.
    pub queue_depth: usize,
    /// Per-socket read timeout.
    pub read_timeout: Duration,
    /// Durable directory: arms the vote WAL and fsynced acks.
    pub wal: Option<PathBuf>,
    /// Hard wall-clock cap; the server drains itself when it elapses
    /// (keeps orphaned test servers from lingering).
    pub max_seconds: Option<u64>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            system: PathBuf::new(),
            addr: "127.0.0.1:0".to_string(),
            server_workers: 4,
            serve_workers: 1,
            queue_depth: 128,
            read_timeout: Duration::from_secs(5),
            wal: None,
            max_seconds: None,
        }
    }
}

/// Serves the bundle until shutdown, returning the drain report.
pub fn serve(args: &ServeArgs) -> Result<DrainReport, CliError> {
    let bundle = SystemBundle::load(&args.system)?;
    let (qa, _doc_ids) = bundle.into_system()?;
    let mut config = votekg::FrameworkConfig::default();
    config.single.encode.sim = qa.sim;
    config.multi.encode.sim = qa.sim;
    config.split_merge.multi.encode.sim = qa.sim;

    let mut fw = match &args.wal {
        Some(wal_dir) => {
            let opts = votekg::DurableOptions {
                snapshot_every: 4,
                ..Default::default()
            };
            let (fw, recovery) = votekg::Framework::open_durable(wal_dir, qa.graph, config, opts)
                .map_err(|e| CliError::Wal(e.to_string()))?;
            if recovery.votes_recovered > 0 || recovery.rounds_applied > 0 {
                eprintln!(
                    "recovered from {}: version {}, {} round(s) applied, {} pending vote(s)",
                    wal_dir.display(),
                    recovery.recovered_version,
                    recovery.rounds_applied,
                    recovery.votes_recovered
                );
            }
            fw
        }
        None => votekg::Framework::new(qa.graph, config),
    };
    fw = fw.with_serve_workers(args.serve_workers.max(1));

    let server = KgServer::start(
        fw,
        ServerConfig {
            addr: args.addr.clone(),
            workers: args.server_workers,
            queue_depth: args.queue_depth,
            read_timeout: args.read_timeout,
            ..Default::default()
        },
    )
    .map_err(|e| CliError::io(args.addr.clone(), e))?;

    // The discovery line: must reach the pipe before we block, so flush
    // past stdout's block buffering explicitly.
    {
        let mut out = std::io::stdout();
        writeln!(out, "listening on {}", server.addr())
            .and_then(|()| out.flush())
            .map_err(|e| CliError::io("stdout", e))?;
    }

    let started = Instant::now();
    loop {
        if server.shutdown_requested() {
            break;
        }
        if let Some(max) = args.max_seconds {
            if started.elapsed() >= Duration::from_secs(max) {
                eprintln!("serve: --max-seconds {max} elapsed, draining");
                server.request_shutdown();
                break;
            }
        }
        std::thread::park_timeout(Duration::from_millis(25));
    }
    Ok(server.shutdown())
}
