//! Zero-dependency observability for the vote-optimization pipeline:
//! counters, gauges, log-scale histograms, nesting wall-time spans, a
//! per-thread lock-free **flight recorder** with Chrome-trace export and
//! crash dumps, a pluggable [`Collector`] sink, JSON / Prometheus-text
//! exporters, and an opt-in `VOTEKG_LOG`-filtered stderr event logger.
//!
//! # Naming scheme
//!
//! Every metric and span is named `votekg.<crate>.<phase>`, e.g.
//! `votekg.sgp.solve`, `votekg.cluster.ap`, `votekg.sim.ppr_iters`.
//! Low-cardinality dimensions (solver kind, convergence reason, worker)
//! go in labels or span fields, never in the name.
//!
//! # Cost model
//!
//! Telemetry is **off by default**. Every entry point checks one global
//! `AtomicBool` first and returns an inert handle when disabled — the
//! disabled hot path performs no allocation and acquires no lock (see
//! `tests/no_alloc.rs`). When enabled, the per-event path is lock-free:
//! span completion writes to the calling thread's recorder ring and a
//! CAS-claimed statistics table, and unlabeled [`counter`] lookups
//! resolve through a lock-free table. Only labeled-handle creation and a
//! thread's very first event (ring claim) take the registry mutex; hot
//! loops should still hoist handles.
//!
//! On top of the enabled baseline, [`start_recording`] turns on full
//! event recording: instants and counter deltas join the span
//! begin/ends in the rings, ready for [`chrome_trace_json`] /
//! [`TimelineReport`] export. Each thread retains the last
//! [`RING_CAP`] events; overwrites are counted in the
//! `votekg.telemetry.dropped_events` counter, and [`dump_crash`] writes
//! every thread's retained events to disk when a pipeline catch_unwind
//! trips.
//!
//! ```
//! kg_telemetry::enable();
//! {
//!     let _span = kg_telemetry::span!("votekg.demo.phase", { items: 3usize });
//!     kg_telemetry::counter("votekg.demo.work").add(3);
//! }
//! let json = kg_telemetry::export_json();
//! assert!(json.contains("votekg.demo.phase"));
//! # kg_telemetry::disable();
//! # kg_telemetry::reset();
//! ```

mod export;
mod log;
mod metrics;
mod recorder;
mod registry;
mod span;
mod trace;

pub use export::{export_json, export_prometheus, HistogramEntry, Snapshot};
pub use log::{log_enabled, log_event, Level};
pub use metrics::{interpolate_quantile, Counter, Gauge, Histogram};
pub use recorder::{
    capture_timelines, dropped_events, instant, is_recording, start_recording, stop_recording,
    CapturedEvent, EventKind, ThreadTimeline, MAX_EVENT_FIELDS, RING_CAP,
};
pub use registry::{
    counter, counter_labeled, gauge, histogram, recent_spans, reset, set_collector, set_crash_dir,
    Collector,
};
pub use span::{current_thread_id, FieldValue, Span, SpanRecord};
pub use trace::{
    chrome_trace_json, chrome_trace_json_from, dump_crash, fmt_ns, trace_spans, PhaseStat,
    RoundTimeline, TimelineReport, TraceSpan, ROUND_NAMES, TRACE_SCHEMA,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry collection on, process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns telemetry collection off. Existing handles become inert for
/// exports (their updates still land in the registry but cost only an
/// atomic); newly requested handles are no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether telemetry is currently enabled.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a wall-time span: `span!("votekg.crate.phase")` or
/// `span!("votekg.crate.phase", { field: value, ... })`. The returned
/// guard records the span on drop. When telemetry is disabled this
/// evaluates no field expressions and allocates nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::is_enabled() {
            $crate::Span::enter($name, ::std::vec::Vec::new())
        } else {
            $crate::Span::inert()
        }
    };
    ($name:expr, { $($key:ident : $value:expr),* $(,)? }) => {
        if $crate::is_enabled() {
            $crate::Span::enter(
                $name,
                ::std::vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::Span::inert()
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn enable_disable_toggle() {
        // Other tests in this binary toggle the same global; just assert
        // the transitions themselves.
        super::enable();
        assert!(super::is_enabled());
        super::disable();
        assert!(!super::is_enabled());
    }
}
