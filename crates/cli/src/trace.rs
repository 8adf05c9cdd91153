//! The `votekg trace` subcommand: record a flight-recorder trace of an
//! optimization run, round-trip/validate Chrome trace-event files, and
//! render the per-round timeline report (see DESIGN.md "Observability").
//!
//! Trace files are the Chrome "JSON Array Format" written by
//! [`kg_telemetry::chrome_trace_json`]: every `X` (complete-span) event
//! carries exact nanosecond `ts_ns`/`dur_ns` in its `args`, so parsing a
//! file back recovers the spans losslessly. `otherData.schema` must be
//! [`kg_telemetry::TRACE_SCHEMA`].

use crate::commands::{optimize_inner, OptimizeStrategy};
use crate::error::CliError;
use kg_telemetry::{TimelineReport, TraceSpan, TRACE_SCHEMA};
use kg_votes::OptimizationReport;
use serde::Value;
use std::path::Path;

/// A trace file parsed back into spans, with its header metadata.
#[derive(Debug, Clone)]
pub struct ParsedTrace {
    /// Completed (`X`) spans, in file order.
    pub spans: Vec<TraceSpan>,
    /// Total `traceEvents` entries of any kind.
    pub events: usize,
    /// `otherData.dropped_events` — events lost to ring overwrite.
    pub dropped: u64,
}

/// `votekg trace record`: runs one optimization pass with the flight
/// recorder on and writes the Chrome trace to `out`. Unlike
/// `votekg optimize --trace`, the optimized bundle is **not** persisted —
/// recording is a pure observation of the run.
pub fn trace_record(
    system_path: &Path,
    log_path: &Path,
    strategy: OptimizeStrategy,
    batch: usize,
    out: &Path,
) -> Result<(OptimizationReport, ParsedTrace), CliError> {
    kg_telemetry::reset();
    kg_telemetry::enable();
    kg_telemetry::start_recording();
    let result = optimize_inner(system_path, log_path, strategy, batch, None, false, None);
    kg_telemetry::stop_recording();
    let json = kg_telemetry::chrome_trace_json();
    kg_telemetry::disable();
    let report = result?;
    std::fs::write(out, &json).map_err(|e| CliError::io(out.display().to_string(), e))?;
    // Parse our own output: guarantees everything `record` writes is
    // loadable by `export`/`report` (and any Chrome-format viewer).
    let parsed = parse_chrome_trace(&json)
        .map_err(|e| CliError::Trace(format!("recorded trace failed to round-trip: {e}")))?;
    Ok((report, parsed))
}

fn bad(msg: impl Into<String>) -> CliError {
    CliError::Trace(msg.into())
}

fn as_number(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn ns_of(event: &Value, exact_key: &str, us_key: &str) -> Option<u64> {
    // Prefer the exact nanosecond value our exporter stashes in `args`;
    // fall back to the Chrome-standard microsecond field (possibly
    // fractional) for traces produced by other tools.
    if let Some(ns) = event
        .get("args")
        .and_then(|args| args.get(exact_key))
        .and_then(Value::as_u64)
    {
        return Some(ns);
    }
    event
        .get(us_key)
        .and_then(as_number)
        .map(|us| (us * 1_000.0).round() as u64)
}

/// Parses Chrome trace-event JSON, validating the `votekg` schema tag
/// and lifting every complete (`X`) span back into a [`TraceSpan`].
pub fn parse_chrome_trace(json: &str) -> Result<ParsedTrace, CliError> {
    let doc: Value = serde_json::from_str(json).map_err(|e| bad(format!("not valid JSON: {e}")))?;
    let other_data = doc.get("otherData");
    let schema = other_data
        .and_then(|o| o.get("schema"))
        .and_then(Value::as_str)
        .unwrap_or("<missing>");
    if schema != TRACE_SCHEMA {
        return Err(bad(format!(
            "unsupported trace schema {schema:?} (expected {TRACE_SCHEMA:?})"
        )));
    }
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing traceEvents array"))?;
    let mut spans = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if event.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| bad(format!("event {i}: X event without a name")))?;
        let thread = event
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| bad(format!("event {i}: X event without a tid")))?;
        let ts_ns = ns_of(event, "ts_ns", "ts")
            .ok_or_else(|| bad(format!("event {i}: X event without a timestamp")))?;
        let dur_ns = ns_of(event, "dur_ns", "dur")
            .ok_or_else(|| bad(format!("event {i}: X event without a duration")))?;
        spans.push(TraceSpan {
            thread,
            name: name.to_string(),
            ts_ns,
            dur_ns,
        });
    }
    Ok(ParsedTrace {
        spans,
        events: events.len(),
        dropped: other_data
            .and_then(|o| o.get("dropped_events"))
            .and_then(Value::as_u64)
            .unwrap_or(0),
    })
}

/// `votekg trace export`: validates a trace file and re-emits it as
/// normalized Chrome trace-event JSON containing exactly the complete
/// spans (one `X` event each, exact `ts_ns`/`dur_ns` preserved). The
/// output loads in Perfetto / `chrome://tracing` and parses back with
/// [`parse_chrome_trace`] to the identical span set.
pub fn trace_export(input: &Path) -> Result<(ParsedTrace, String), CliError> {
    let json =
        std::fs::read_to_string(input).map_err(|e| CliError::io(input.display().to_string(), e))?;
    let parsed = parse_chrome_trace(&json)
        .map_err(|e| CliError::Trace(format!("{}: {e}", input.display())))?;
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let mut events = Vec::with_capacity(parsed.spans.len());
    for span in &parsed.spans {
        events.push(obj(vec![
            ("ph", Value::Str("X".to_string())),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(span.thread)),
            ("name", Value::Str(span.name.clone())),
            ("cat", Value::Str("votekg".to_string())),
            ("ts", Value::Float(span.ts_ns as f64 / 1_000.0)),
            ("dur", Value::Float(span.dur_ns as f64 / 1_000.0)),
            (
                "args",
                obj(vec![
                    ("ts_ns", Value::UInt(span.ts_ns)),
                    ("dur_ns", Value::UInt(span.dur_ns)),
                ]),
            ),
        ]));
    }
    let doc = obj(vec![
        ("traceEvents", Value::Array(events)),
        (
            "otherData",
            obj(vec![
                ("schema", Value::Str(TRACE_SCHEMA.to_string())),
                ("dropped_events", Value::UInt(parsed.dropped)),
            ]),
        ),
    ]);
    let out = serde_json::to_string_pretty(&doc)
        .map_err(|e| CliError::Trace(format!("normalized trace failed to serialize: {e}")))?;
    Ok((parsed, out))
}

/// `votekg trace report`: parses a trace file and renders the per-round
/// timeline (wall-clock attributed to phases with p50/p99 per phase).
/// With `min_coverage` set, errors when any round's phase spans cover
/// less than that fraction of its wall-clock — the check.sh gate.
pub fn trace_report(
    input: &Path,
    min_coverage: Option<f64>,
) -> Result<(TimelineReport, String), CliError> {
    let json =
        std::fs::read_to_string(input).map_err(|e| CliError::io(input.display().to_string(), e))?;
    let parsed = parse_chrome_trace(&json)
        .map_err(|e| CliError::Trace(format!("{}: {e}", input.display())))?;
    let report = TimelineReport::build(&parsed.spans);
    let mut rendered = report.render();
    if parsed.dropped > 0 {
        rendered.push_str(&format!(
            "warning: {} events lost to ring overwrite; timings above are from the retained window\n",
            parsed.dropped
        ));
    }
    if let Some(floor) = min_coverage {
        if report.rounds.is_empty() {
            return Err(CliError::Trace(format!(
                "{}: no optimization rounds in trace, cannot check coverage",
                input.display()
            )));
        }
        let min = report.min_coverage();
        if min < floor {
            return Err(CliError::Trace(format!(
                "{}: phase coverage {:.1}% below required {:.1}%",
                input.display(),
                min * 100.0,
                floor * 100.0
            )));
        }
    }
    Ok((report, rendered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    // The recorder is process-global; tests that reset/record must not
    // interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    fn serialized() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn sample_trace() -> String {
        kg_telemetry::reset();
        kg_telemetry::enable();
        kg_telemetry::start_recording();
        {
            let _round = kg_telemetry::span!("votekg.votes.multi");
            let _encode = kg_telemetry::span!("votekg.votes.encode", { votes: 2usize });
        }
        kg_telemetry::stop_recording();
        let json = kg_telemetry::chrome_trace_json();
        kg_telemetry::disable();
        kg_telemetry::reset();
        json
    }

    #[test]
    fn recorded_trace_parses_back() {
        let _lock = serialized();
        let json = sample_trace();
        let parsed = parse_chrome_trace(&json).expect("parses");
        let names: Vec<_> = parsed.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"votekg.votes.multi"), "{names:?}");
        assert!(names.contains(&"votekg.votes.encode"), "{names:?}");
        let report = TimelineReport::build(&parsed.spans);
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.rounds[0].name, "votekg.votes.multi");
    }

    #[test]
    fn bad_schema_is_rejected() {
        let json = r#"{"traceEvents": [], "otherData": {"schema": "speedscope/v9"}}"#;
        let err = parse_chrome_trace(json).unwrap_err();
        assert!(err.to_string().contains("speedscope/v9"), "{err}");
        assert!(parse_chrome_trace("{not json").is_err());
    }

    #[test]
    fn microsecond_fallback_when_args_missing() {
        let json = format!(
            r#"{{"traceEvents": [
                {{"ph": "X", "tid": 3, "name": "votekg.votes.multi", "ts": 1.5, "dur": 2.0}}
            ], "otherData": {{"schema": "{TRACE_SCHEMA}"}}}}"#
        );
        let parsed = parse_chrome_trace(&json).expect("parses");
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.spans[0].ts_ns, 1_500);
        assert_eq!(parsed.spans[0].dur_ns, 2_000);
        assert_eq!(parsed.spans[0].thread, 3);
    }

    #[test]
    fn export_round_trips_span_set() {
        let _lock = serialized();
        let json = sample_trace();
        let dir = std::env::temp_dir().join(format!("votekg-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace.json");
        std::fs::write(&path, &json).unwrap();
        let (parsed, normalized) = trace_export(&path).expect("export");
        let reparsed = parse_chrome_trace(&normalized).expect("normalized parses");
        assert_eq!(parsed.spans, reparsed.spans);
        std::fs::remove_dir_all(&dir).ok();
    }
}
