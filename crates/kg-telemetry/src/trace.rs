//! Flight-recorder exporters: Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`), the per-round timeline report that
//! attributes a round's wall-clock to phases, and panic-time crash
//! dumps.
//!
//! The Chrome format is the "JSON Array Format" subset every trace
//! viewer accepts: an object with a `traceEvents` array of `X`
//! (complete span), `B` (still-open span), `i` (instant), `C`
//! (counter), and `M` (thread-name metadata) events. Timestamps are
//! microseconds; the exact nanosecond values ride along in `args` so
//! round-tripping the file loses nothing.

use crate::export::json_string;
use crate::recorder::{capture_timelines, CapturedEvent, EventKind, ThreadTimeline};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema tag stamped into every trace file's `otherData`.
pub const TRACE_SCHEMA: &str = "votekg.trace/v1";

/// A completed span lifted out of a timeline (or parsed back out of a
/// trace file): absolute start time and duration, both in nanoseconds
/// since the recorder epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Recording thread id.
    pub thread: u64,
    /// Span name (owned so parsed traces need no interning).
    pub name: String,
    /// Start time in nanoseconds.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

impl TraceSpan {
    fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }

    fn contains(&self, other: &TraceSpan) -> bool {
        self.ts_ns <= other.ts_ns && self.end_ns() >= other.end_ns()
    }
}

/// Extracts completed spans from captured timelines (span-end events
/// carry the duration; the start is derived exactly).
pub fn trace_spans(timelines: &[ThreadTimeline]) -> Vec<TraceSpan> {
    let mut spans = Vec::new();
    for timeline in timelines {
        for event in &timeline.events {
            if event.kind == EventKind::SpanEnd {
                spans.push(TraceSpan {
                    thread: timeline.thread,
                    name: event.name.to_string(),
                    ts_ns: event.ts_ns.saturating_sub(event.arg),
                    dur_ns: event.arg,
                });
            }
        }
    }
    spans
}

fn push_ts_us(out: &mut String, ns: u64) {
    // Chrome expects microseconds; keep sub-microsecond precision as a
    // decimal fraction so nothing collapses to equal timestamps.
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

fn push_common(out: &mut String, ph: &str, name: &str, thread: u64, ts_ns: u64) {
    out.push_str(&format!(
        "{{\"ph\": \"{ph}\", \"pid\": 1, \"tid\": {thread}, \"name\": {}, \
         \"cat\": \"votekg\", \"ts\": ",
        json_string(name)
    ));
    push_ts_us(out, ts_ns);
}

fn push_fields_json(out: &mut String, event: &CapturedEvent) {
    for (key, value) in &event.fields {
        out.push_str(&format!(", {}: {}", json_string(key), value.to_json()));
    }
}

/// Renders captured timelines as Chrome trace-event JSON. `extra`
/// key/value pairs (already JSON-encoded values) land in `otherData`
/// next to the schema tag.
pub fn chrome_trace_json_from(timelines: &[ThreadTimeline], extra: &[(&str, String)]) -> String {
    let mut out = String::from("{\n\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |out: &mut String, body: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&body);
    };

    let mut total_dropped = 0u64;
    for timeline in timelines {
        total_dropped += timeline.dropped;
        // Thread-name metadata so viewers label the rows.
        push_event(
            &mut out,
            format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {0}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"votekg-thread-{0}\"}}}}",
                timeline.thread
            ),
        );

        let mut open: Vec<&CapturedEvent> = Vec::new();
        let mut counter_totals: HashMap<&'static str, u64> = HashMap::new();
        for event in &timeline.events {
            match event.kind {
                EventKind::SpanBegin => open.push(event),
                EventKind::SpanEnd => {
                    if open.last().map(|b| b.name) == Some(event.name) {
                        open.pop();
                    }
                    let mut body = String::new();
                    push_common(
                        &mut body,
                        "X",
                        event.name,
                        timeline.thread,
                        event.ts_ns.saturating_sub(event.arg),
                    );
                    body.push_str(", \"dur\": ");
                    push_ts_us(&mut body, event.arg);
                    body.push_str(&format!(
                        ", \"args\": {{\"ts_ns\": {}, \"dur_ns\": {}, \"seq\": {}",
                        event.ts_ns.saturating_sub(event.arg),
                        event.arg,
                        event.seq
                    ));
                    push_fields_json(&mut body, event);
                    body.push_str("}}");
                    push_event(&mut out, body);
                }
                EventKind::Instant => {
                    let mut body = String::new();
                    push_common(&mut body, "i", event.name, timeline.thread, event.ts_ns);
                    body.push_str(&format!(
                        ", \"s\": \"t\", \"args\": {{\"ts_ns\": {}, \"seq\": {}}}}}",
                        event.ts_ns, event.seq
                    ));
                    push_event(&mut out, body);
                }
                EventKind::Counter => {
                    let total = counter_totals.entry(event.name).or_insert(0);
                    *total += event.arg;
                    let mut body = String::new();
                    push_common(&mut body, "C", event.name, timeline.thread, event.ts_ns);
                    body.push_str(&format!(", \"args\": {{\"value\": {total}}}}}"));
                    push_event(&mut out, body);
                }
            }
        }
        // Spans still open at capture time (the interesting ones in a
        // crash dump): emit begin events so viewers show them unclosed.
        for begin in open {
            let mut body = String::new();
            push_common(&mut body, "B", begin.name, timeline.thread, begin.ts_ns);
            body.push_str(&format!(
                ", \"args\": {{\"ts_ns\": {}, \"seq\": {}}}}}",
                begin.ts_ns, begin.seq
            ));
            push_event(&mut out, body);
        }
    }

    out.push_str("\n],\n\"otherData\": {");
    out.push_str(&format!(
        "\"schema\": \"{TRACE_SCHEMA}\", \"threads\": {}, \"dropped_events\": {}",
        timelines.len(),
        total_dropped
    ));
    for (key, value) in extra {
        out.push_str(&format!(", {}: {value}", json_string(key)));
    }
    out.push_str("}\n}\n");
    out
}

/// Captures all thread rings and renders them as Chrome trace-event
/// JSON.
pub fn chrome_trace_json() -> String {
    chrome_trace_json_from(&capture_timelines(), &[])
}

// ---------------------------------------------------------------------------
// Timeline report
// ---------------------------------------------------------------------------

/// Span names that demarcate one optimization round. A round-named span
/// nested (in time) inside another candidate is a phase of the outer
/// round, not a round of its own — e.g. the per-cluster
/// `votekg.votes.multi` solves inside `votekg.cluster.round`. On the
/// outer round's thread such a span's self time counts as unattributed,
/// so wrapping a round in another one does not raise its coverage.
pub const ROUND_NAMES: &[&str] = &[
    "votekg.framework.round",
    "votekg.cluster.round",
    "votekg.votes.multi",
    "votekg.votes.single",
];

/// Aggregate statistics for one phase (span name) within a round.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Span name.
    pub name: String,
    /// Completed instances inside the round.
    pub count: u64,
    /// Sum of instance durations.
    pub total_ns: u64,
    /// Sum of instance *self* times (duration minus same-thread direct
    /// children) — these sum to at most the round's duration per thread,
    /// so they attribute without double counting.
    pub self_ns: u64,
    /// Median instance duration (nearest rank).
    pub p50_ns: u64,
    /// 99th-percentile instance duration (nearest rank).
    pub p99_ns: u64,
}

/// One optimization round with its wall-clock attributed to phases.
#[derive(Debug, Clone)]
pub struct RoundTimeline {
    /// The round span's name.
    pub name: String,
    /// Thread the round span ran on.
    pub thread: u64,
    /// Round start (ns since recorder epoch).
    pub ts_ns: u64,
    /// Round duration.
    pub dur_ns: u64,
    /// Phases sorted by attributed self time, descending.
    pub phases: Vec<PhaseStat>,
    /// Round time on the round's thread that no phase span covers: the
    /// round span's own self time plus the self time of every
    /// round-named span nested on the same thread (such a span only
    /// wraps phases, e.g. `votekg.cluster.round` inside
    /// `votekg.framework.round`).
    pub unattributed_ns: u64,
    /// Fraction of the round's duration covered by phase spans on its
    /// own thread (`1.0` = every nanosecond attributed).
    pub coverage: f64,
}

/// Per-round phase attribution built from completed spans.
#[derive(Debug, Clone, Default)]
pub struct TimelineReport {
    /// Rounds in start order.
    pub rounds: Vec<RoundTimeline>,
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl TimelineReport {
    /// Builds the report: computes each span's self time via a
    /// same-thread interval-nesting sweep, picks the outermost
    /// round-named spans as rounds, and attributes every span inside a
    /// round's time window to that round's phase table (a nested
    /// round-named span on the round's thread adds its self time to
    /// the round's unattributed time instead).
    pub fn build(spans: &[TraceSpan]) -> TimelineReport {
        let mut order: Vec<usize> = (0..spans.len()).collect();
        // Parents sort before children: by thread, then start time, then
        // longer-first on ties.
        order.sort_by(|&a, &b| {
            (
                spans[a].thread,
                spans[a].ts_ns,
                std::cmp::Reverse(spans[a].dur_ns),
            )
                .cmp(&(
                    spans[b].thread,
                    spans[b].ts_ns,
                    std::cmp::Reverse(spans[b].dur_ns),
                ))
        });

        // Same-thread nesting sweep -> per-span direct-children time.
        let mut children_ns = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut current_thread = u64::MAX;
        for &i in &order {
            let span = &spans[i];
            if span.thread != current_thread {
                stack.clear();
                current_thread = span.thread;
            }
            while let Some(&top) = stack.last() {
                if spans[top].contains(span) {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                children_ns[parent] = children_ns[parent].saturating_add(span.dur_ns);
            }
            stack.push(i);
        }

        // Outermost round-named spans are rounds; round-named spans
        // nested in another candidate's time window are phases.
        let mut candidates: Vec<usize> = (0..spans.len())
            .filter(|&i| ROUND_NAMES.contains(&spans[i].name.as_str()))
            .collect();
        candidates.sort_by_key(|&i| std::cmp::Reverse(spans[i].dur_ns));
        let mut round_ids: Vec<usize> = Vec::new();
        for &i in &candidates {
            if !round_ids
                .iter()
                .any(|&r| r != i && spans[r].contains(&spans[i]))
            {
                round_ids.push(i);
            }
        }
        round_ids.sort_by_key(|&i| spans[i].ts_ns);

        let mut rounds = Vec::with_capacity(round_ids.len());
        for &r in &round_ids {
            let round = &spans[r];
            let mut unattributed_ns = round.dur_ns.saturating_sub(children_ns[r]);
            // Group member spans (any thread, inside the round's window,
            // assigned to the *smallest* containing round) by name.
            let mut phases: HashMap<&str, (u64, u64, u64, Vec<u64>)> = HashMap::new();
            for (i, span) in spans.iter().enumerate() {
                if i == r || !round.contains(span) {
                    continue;
                }
                let smallest = round_ids
                    .iter()
                    .filter(|&&o| o != i && spans[o].contains(span))
                    .min_by_key(|&&o| spans[o].dur_ns);
                if smallest != Some(&r) {
                    continue;
                }
                let mut self_ns = span.dur_ns.saturating_sub(children_ns[i]);
                // A nested round span's self time is time no phase names,
                // so it stays unattributed rather than covering itself.
                if span.thread == round.thread && ROUND_NAMES.contains(&span.name.as_str()) {
                    unattributed_ns = unattributed_ns.saturating_add(self_ns);
                    self_ns = 0;
                }
                let entry = phases
                    .entry(span.name.as_str())
                    .or_insert((0, 0, 0, Vec::new()));
                entry.0 += 1;
                entry.1 += span.dur_ns;
                entry.2 += self_ns;
                entry.3.push(span.dur_ns);
            }
            let mut phases: Vec<PhaseStat> = phases
                .into_iter()
                .map(|(name, (count, total_ns, self_ns, mut durs))| {
                    durs.sort_unstable();
                    PhaseStat {
                        name: name.to_string(),
                        count,
                        total_ns,
                        self_ns,
                        p50_ns: nearest_rank(&durs, 0.5),
                        p99_ns: nearest_rank(&durs, 0.99),
                    }
                })
                .collect();
            phases.sort_by_key(|p| std::cmp::Reverse(p.self_ns));

            let coverage = if round.dur_ns == 0 {
                1.0
            } else {
                1.0 - unattributed_ns as f64 / round.dur_ns as f64
            };
            rounds.push(RoundTimeline {
                name: round.name.clone(),
                thread: round.thread,
                ts_ns: round.ts_ns,
                dur_ns: round.dur_ns,
                phases,
                unattributed_ns,
                coverage,
            });
        }
        TimelineReport { rounds }
    }

    /// The lowest per-round coverage, or 1.0 with no rounds. check.sh
    /// gates on this: it is the fraction of round wall-clock the phase
    /// spans account for.
    pub fn min_coverage(&self) -> f64 {
        self.rounds.iter().map(|r| r.coverage).fold(1.0, f64::min)
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        if self.rounds.is_empty() {
            return "no optimization rounds found in trace\n".to_string();
        }
        let mut out = String::new();
        for round in &self.rounds {
            out.push_str(&format!(
                "round {}  thread {}  wall {}  coverage {:.1}%\n",
                round.name,
                round.thread,
                fmt_ns(round.dur_ns),
                round.coverage * 100.0
            ));
            for phase in &round.phases {
                let share = if round.dur_ns > 0 {
                    phase.self_ns as f64 / round.dur_ns as f64 * 100.0
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {:<40} n={:<4} self {:>9} ({:>5.1}%)  p50 {:>9}  p99 {:>9}\n",
                    phase.name,
                    phase.count,
                    fmt_ns(phase.self_ns),
                    share,
                    fmt_ns(phase.p50_ns),
                    fmt_ns(phase.p99_ns)
                ));
            }
            out.push_str(&format!(
                "  {:<40} self {:>9}\n",
                "(unattributed round self-time)",
                fmt_ns(round.unattributed_ns)
            ));
        }
        out
    }
}

/// Renders nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------------------
// Crash dumps
// ---------------------------------------------------------------------------

static CRASH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Dumps every thread's retained events to a Chrome trace file when a
/// pipeline `catch_unwind` trips. Returns the written path, or `None`
/// when telemetry is disabled, no crash directory is configured (via
/// [`crate::set_crash_dir`] or `VOTEKG_CRASH_DIR`), or the write fails —
/// a crash dump must never cascade the failure.
pub fn dump_crash(tag: &str) -> Option<PathBuf> {
    if !crate::is_enabled() {
        return None;
    }
    let dir = crate::registry::crash_dir_override()
        .or_else(|| std::env::var_os("VOTEKG_CRASH_DIR").map(PathBuf::from))?;
    let seq = CRASH_SEQ.fetch_add(1, Ordering::Relaxed);
    let tag: String = tag
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .take(48)
        .collect();
    let path = dir.join(format!(
        "votekg-crash-{}-{}-{}.trace.json",
        std::process::id(),
        seq,
        tag
    ));
    let json = chrome_trace_json_from(&capture_timelines(), &[("crash_reason", json_string(&tag))]);
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::write(&path, json).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(thread: u64, name: &str, ts: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            thread,
            name: name.to_string(),
            ts_ns: ts,
            dur_ns: dur,
        }
    }

    #[test]
    fn report_attributes_self_time_per_phase() {
        // round [0, 100): encode [5, 25), solve [30, 90) with nested
        // inner [40, 80).
        let spans = vec![
            span(0, "votekg.votes.multi", 0, 100),
            span(0, "votekg.votes.encode", 5, 20),
            span(0, "votekg.votes.solve.lbfgs", 30, 60),
            span(0, "votekg.sgp.auglag", 40, 40),
        ];
        let report = TimelineReport::build(&spans);
        assert_eq!(report.rounds.len(), 1);
        let round = &report.rounds[0];
        assert_eq!(round.name, "votekg.votes.multi");
        // Direct children: encode (20) + solve (60) -> 20 ns self.
        assert_eq!(round.unattributed_ns, 20);
        assert!((round.coverage - 0.8).abs() < 1e-9, "{}", round.coverage);
        let solve = round
            .phases
            .iter()
            .find(|p| p.name == "votekg.votes.solve.lbfgs")
            .expect("solve phase");
        assert_eq!(solve.total_ns, 60);
        assert_eq!(solve.self_ns, 20, "inner auglag time excluded from self");
        let inner = round
            .phases
            .iter()
            .find(|p| p.name == "votekg.sgp.auglag")
            .expect("inner phase");
        assert_eq!(inner.self_ns, 40);
        // All self times + unattributed == round duration.
        let total: u64 =
            round.phases.iter().map(|p| p.self_ns).sum::<u64>() + round.unattributed_ns;
        assert_eq!(total, 100);
    }

    #[test]
    fn nested_round_names_are_phases_not_rounds() {
        // cluster.round contains two per-cluster votes.multi solves on
        // worker threads: only the cluster round is a round.
        let spans = vec![
            span(0, "votekg.cluster.round", 0, 100),
            span(1, "votekg.votes.multi", 10, 30),
            span(2, "votekg.votes.multi", 10, 35),
        ];
        let report = TimelineReport::build(&spans);
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.rounds[0].name, "votekg.cluster.round");
        let multi = report.rounds[0]
            .phases
            .iter()
            .find(|p| p.name == "votekg.votes.multi")
            .expect("multi phase");
        assert_eq!(multi.count, 2);
        assert_eq!(multi.total_ns, 65);
    }

    #[test]
    fn nested_round_self_time_is_unattributed() {
        // framework.round [0, 100) wraps votes.multi [2, 98), whose only
        // phases are encode [10, 30) and solve [30, 60): the 46 ns of
        // multi's own time and the round's 4 ns are both unexplained.
        let spans = vec![
            span(0, "votekg.framework.round", 0, 100),
            span(0, "votekg.votes.multi", 2, 96),
            span(0, "votekg.votes.encode", 10, 20),
            span(0, "votekg.votes.solve.lbfgs", 30, 30),
        ];
        let report = TimelineReport::build(&spans);
        assert_eq!(report.rounds.len(), 1);
        let round = &report.rounds[0];
        assert_eq!(round.name, "votekg.framework.round");
        assert_eq!(round.unattributed_ns, 50);
        assert!((round.coverage - 0.5).abs() < 1e-9, "{}", round.coverage);
        let multi = round
            .phases
            .iter()
            .find(|p| p.name == "votekg.votes.multi")
            .expect("multi phase");
        assert_eq!((multi.count, multi.total_ns, multi.self_ns), (1, 96, 0));
        let total: u64 =
            round.phases.iter().map(|p| p.self_ns).sum::<u64>() + round.unattributed_ns;
        assert_eq!(total, 100);
    }

    #[test]
    fn consecutive_rounds_split_members() {
        let spans = vec![
            span(0, "votekg.votes.multi", 0, 50),
            span(0, "votekg.votes.encode", 10, 10),
            span(0, "votekg.votes.multi", 60, 50),
            span(0, "votekg.votes.encode", 70, 30),
        ];
        let report = TimelineReport::build(&spans);
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.rounds[0].phases[0].total_ns, 10);
        assert_eq!(report.rounds[1].phases[0].total_ns, 30);
        assert!(report.min_coverage() <= report.rounds[0].coverage);
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let json = chrome_trace_json_from(&[], &[("note", "\"x\"".to_string())]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains(TRACE_SCHEMA));
        assert!(json.contains("\"note\": \"x\""));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
