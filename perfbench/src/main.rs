//! votekg benchmark: one command, two workloads, exact quantiles, and a
//! traced run that times each layer from outside. See README.md.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rank_hot|feedback_loop> \
//!     --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last stdout line is the result object; the line before it records
//! the run's context and exact counts.

mod metrics;
mod replay;
mod sched;
mod stats;
mod verify;
mod wire;
mod workload;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use workload::{Ctx, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} wants a whole number"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match value("--trace")
        .unwrap_or_else(|_| "0".to_string())
        .as_str()
    {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.clamp(1, 600),
        trace,
    })
}

/// The checkout's revision from `.git`, without running git.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(Path::new(".git").join(name))
            .map(|r| r.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = Scratch(PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&scratch.0);
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: scratch.0.clone(),
    };
    let out = workload::run(&ctx);
    drop(scratch);
    let _ = std::fs::remove_dir(".bench_work");

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit, _) in wanted {
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )),
            _ => missing.push(name),
        }
    }
    report(&args, nproc, &out, &missing);
    let correct = out.failed == 0 && missing.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed + missing.len() as u64,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The context line: what ran, where, and the exact counts it produced.
fn report(args: &Args, nproc: usize, out: &Outcome, missing: &[&str]) {
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let problems: Vec<String> = out
        .problems
        .iter()
        .cloned()
        .chain(
            missing
                .iter()
                .map(|m| format!("metric {m} was not measured")),
        )
        .map(|p| json_str(&p))
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"revision\": {}, \"dataset\": {}, \"scale\": {}, \"rss_after_setup_mb\": {}, \
         \"counts\": {{{}}}, \"problems\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_revision()),
        json_str(&out.dataset),
        json_num(out.scale),
        json_num(out.setup_rss_mb),
        counts.join(", "),
        problems.join(", ")
    );
    for p in &out.problems {
        eprintln!("perfbench: {p}");
    }
}
