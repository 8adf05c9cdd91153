//! Snapshot + exporters. JSON and Prometheus text are hand-rolled so the
//! crate stays dependency-free.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::metrics::{interpolate_quantile, HistogramCore, HISTOGRAM_BUCKETS};
use crate::registry::{registry, RECENT_SPAN_CAP};
use crate::span::SpanRecord;

/// One histogram in a [`Snapshot`].
pub struct HistogramEntry {
    /// Rendered key (name plus labels).
    pub key: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of the samples.
    pub sum: u64,
    /// Largest sample (0 when empty); quantiles are clamped to it.
    pub max: u64,
    /// Non-empty `(lower_bound, count)` buckets.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramEntry {
    /// The entry's interpolated `q` quantile (see
    /// [`interpolate_quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        interpolate_quantile(&self.buckets, self.count, self.max, q)
    }
}

/// Point-in-time copy of the registry, ordered deterministically.
pub struct Snapshot {
    /// `(rendered key, value)`, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// `(rendered key, value)`, sorted by key.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by key.
    pub histograms: Vec<HistogramEntry>,
    /// `(span name, count, total, max)`, sorted by name.
    pub spans: Vec<(String, u64, Duration, Duration)>,
    /// Retained finished spans, oldest first.
    pub recent: Vec<SpanRecord>,
}

impl Snapshot {
    /// Captures the current registry contents plus the lock-free
    /// flight-recorder state (span statistics, unlabeled counters, and
    /// the reconstructed recent-span view) — all without stopping
    /// writers.
    pub fn capture() -> Snapshot {
        let (mut counter_map, gauges, histograms) = {
            let inner = match registry().inner.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            let counter_map: BTreeMap<String, u64> = inner
                .counters
                .iter()
                .map(|(k, v)| (k.render(), v.load(Ordering::Relaxed)))
                .collect();
            let mut gauges: Vec<(String, f64)> = inner
                .gauges
                .iter()
                .map(|(k, v)| (k.render(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect();
            gauges.sort_by(|a, b| a.0.cmp(&b.0));
            let mut histograms: Vec<HistogramEntry> = inner
                .histograms
                .iter()
                .map(|(k, core)| {
                    let buckets: Vec<(u64, u64)> = (0..HISTOGRAM_BUCKETS)
                        .filter_map(|i| {
                            let n = core.buckets[i].load(Ordering::Relaxed);
                            (n > 0).then(|| (HistogramCore::bucket_lower_bound(i), n))
                        })
                        .collect();
                    HistogramEntry {
                        key: k.render(),
                        count: core.count.load(Ordering::Relaxed),
                        sum: core.sum.load(Ordering::Relaxed),
                        max: core.max.load(Ordering::Relaxed),
                        buckets,
                    }
                })
                .collect();
            histograms.sort_by(|a, b| a.key.cmp(&b.key));
            (counter_map, gauges, histograms)
        };

        // Merge in the lock-free unlabeled-counter table and the ring
        // loss counter (summed on the spot from every thread's ring).
        for (name, value) in crate::recorder::counters_snapshot() {
            *counter_map.entry(name.to_string()).or_insert(0) += value;
        }
        *counter_map
            .entry("votekg.telemetry.dropped_events".to_string())
            .or_insert(0) += crate::recorder::dropped_events();
        let counters: Vec<(String, u64)> = counter_map.into_iter().collect();

        // Span statistics come from the lock-free table; distinct static
        // strings with equal contents merge here.
        let mut span_map: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (name, count, total_ns, max_ns) in crate::recorder::span_stats_snapshot() {
            let entry = span_map.entry(name.to_string()).or_insert((0, 0, 0));
            entry.0 += count;
            entry.1 += total_ns;
            entry.2 = entry.2.max(max_ns);
        }
        let spans: Vec<(String, u64, Duration, Duration)> = span_map
            .into_iter()
            .map(|(name, (count, total_ns, max_ns))| {
                (
                    name,
                    count,
                    Duration::from_nanos(total_ns),
                    Duration::from_nanos(max_ns),
                )
            })
            .collect();

        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
            recent: crate::recorder::reconstruct_recent_spans(RECENT_SPAN_CAP),
        }
    }

    /// Renders the snapshot as a JSON object. Shape:
    ///
    /// ```json
    /// {
    ///   "counters": {"votekg.sgp.iterations": 840},
    ///   "gauges": {"votekg.sim.ppr_residual": 1e-9},
    ///   "histograms": {"name": {"count": 3, "sum": 10, "max": 4,
    ///                            "buckets": [[2, 2], [4, 1]],
    ///                            "p50": 3.0, "p90": 4.0, ...}},
    ///   "spans": {"votekg.cluster.ap": {"count": 1, "total_ns": 12,
    ///              "mean_ns": 12, "max_ns": 12}},
    ///   "recent_spans": [{"name": "...", "path": "...", "depth": 0,
    ///                      "thread": 0, "duration_ns": 12,
    ///                      "fields": {"clusters": 4}}]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |out, (k, v)| {
            out.push_str(&json_string(k));
            out.push_str(": ");
            out.push_str(&v.to_string());
        });
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, self.gauges.iter(), |out, (k, v)| {
            out.push_str(&json_string(k));
            out.push_str(": ");
            if v.is_finite() {
                out.push_str(&format!("{v:?}"));
            } else {
                out.push_str("null");
            }
        });
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str(&json_string(&h.key));
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.max
            ));
            for (i, (lo, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{lo}, {n}]"));
            }
            out.push(']');
            for (label, q) in QUANTILES {
                out.push_str(&format!(", \"{label}\": {:?}", h.quantile(*q)));
            }
            out.push('}');
        });
        out.push_str("},\n  \"spans\": {");
        push_entries(
            &mut out,
            self.spans.iter(),
            |out, (name, count, total, max)| {
                let total_ns = total.as_nanos();
                let mean_ns = if *count > 0 {
                    total_ns / *count as u128
                } else {
                    0
                };
                out.push_str(&json_string(name));
                out.push_str(&format!(
                    ": {{\"count\": {count}, \"total_ns\": {total_ns}, \
                 \"mean_ns\": {mean_ns}, \"max_ns\": {}}}",
                    max.as_nanos()
                ));
            },
        );
        out.push_str("},\n  \"recent_spans\": [");
        for (i, span) in self.recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&span_record_json(span));
        }
        if !self.recent.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Renders the snapshot in Prometheus text exposition format. Metric
    /// names have `.` rewritten to `_`; counters gain a `_total` suffix;
    /// histograms emit cumulative `_bucket{le="..."}` series; span stats
    /// become `_seconds_count` / `_seconds_sum` / `_seconds_max`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        // One `# TYPE` header per metric family (label variants of a name
        // share one; entries are sorted so variants are adjacent).
        let mut last_family = String::new();
        let mut type_header = |out: &mut String, family: &str, kind: &str| {
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = family.to_string();
            }
        };
        for (key, value) in &self.counters {
            let (name, labels) = split_rendered_key(key);
            let family = format!("{}_total", prom_name(&name));
            type_header(&mut out, &family, "counter");
            out.push_str(&format!("{}{} {}\n", family, prom_labels(&labels), value));
        }
        for (key, value) in &self.gauges {
            let (name, labels) = split_rendered_key(key);
            let family = prom_name(&name);
            type_header(&mut out, &family, "gauge");
            out.push_str(&format!(
                "{}{} {}\n",
                family,
                prom_labels(&labels),
                prom_f64(*value)
            ));
        }
        for h in &self.histograms {
            let HistogramEntry {
                key,
                count,
                sum,
                buckets,
                ..
            } = h;
            let (name, labels) = split_rendered_key(key);
            let name = prom_name(&name);
            type_header(&mut out, &name, "histogram");
            let mut cumulative = 0u64;
            for (lo, n) in buckets {
                cumulative += n;
                // Our bucket [2^(i-1), 2^i) with lower bound `lo` is the
                // Prometheus bucket le = upper bound - 1 (inclusive).
                let le = upper_bound_for_lower(*lo);
                let mut bucket_labels = labels.clone();
                bucket_labels.push(("le".to_string(), le));
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    name,
                    prom_labels(&bucket_labels),
                    cumulative
                ));
            }
            let mut inf_labels = labels.clone();
            inf_labels.push(("le".to_string(), "+Inf".to_string()));
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                name,
                prom_labels(&inf_labels),
                count
            ));
            out.push_str(&format!("{}_sum{} {}\n", name, prom_labels(&labels), sum));
            out.push_str(&format!(
                "{}_count{} {}\n",
                name,
                prom_labels(&labels),
                count
            ));
            // Interpolated quantiles as a companion summary-style gauge
            // family (`_quantiles` so the histogram family stays valid).
            let quantile_family = format!("{name}_quantiles");
            type_header(&mut out, &quantile_family, "gauge");
            for (_, q) in QUANTILES {
                let mut q_labels = labels.clone();
                q_labels.push(("quantile".to_string(), format!("{q}")));
                out.push_str(&format!(
                    "{}{} {}\n",
                    quantile_family,
                    prom_labels(&q_labels),
                    prom_f64(h.quantile(*q))
                ));
            }
        }
        for (name, count, total, max) in &self.spans {
            let name = prom_name(name);
            out.push_str(&format!("{name}_seconds_count {count}\n"));
            out.push_str(&format!(
                "{name}_seconds_sum {}\n",
                prom_f64(total.as_secs_f64())
            ));
            out.push_str(&format!(
                "{name}_seconds_max {}\n",
                prom_f64(max.as_secs_f64())
            ));
        }
        out
    }
}

/// The quantiles surfaced in histogram exports, with their JSON keys.
const QUANTILES: &[(&str, f64)] = &[("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)];

fn push_entries<T>(
    out: &mut String,
    entries: impl ExactSizeIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    let len = entries.len();
    for (i, entry) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        write(out, entry);
    }
    if len > 0 {
        out.push_str("\n  ");
    }
}

fn span_record_json(span: &SpanRecord) -> String {
    let mut fields = String::from("{");
    for (i, (key, value)) in span.fields.iter().enumerate() {
        if i > 0 {
            fields.push_str(", ");
        }
        fields.push_str(&json_string(key));
        fields.push_str(": ");
        fields.push_str(&value.to_json());
    }
    fields.push('}');
    format!(
        "{{\"name\": {}, \"path\": {}, \"depth\": {}, \"thread\": {}, \
         \"duration_ns\": {}, \"fields\": {}}}",
        json_string(span.name),
        json_string(&span.path),
        span.depth,
        span.thread,
        span.duration.as_nanos(),
        fields
    )
}

/// Escapes and quotes a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Splits a rendered key `name{k="v",...}` back into name and label pairs.
fn split_rendered_key(key: &str) -> (String, Vec<(String, String)>) {
    let Some(brace) = key.find('{') else {
        return (key.to_string(), Vec::new());
    };
    let name = key[..brace].to_string();
    let body = &key[brace + 1..key.len() - 1];
    let mut labels = Vec::new();
    let mut rest = body;
    while let Some(eq) = rest.find('=') {
        let label_key = rest[..eq].to_string();
        // Value is a JSON string literal; scan for its closing quote.
        let value_str = &rest[eq + 1..];
        let mut end = 1;
        let bytes = value_str.as_bytes();
        while end < bytes.len() {
            match bytes[end] {
                b'\\' => end += 2,
                b'"' => break,
                _ => end += 1,
            }
        }
        labels.push((
            label_key,
            unescape_json(&value_str[1..end.min(bytes.len())]),
        ));
        rest = value_str.get(end + 1..).unwrap_or("");
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    (name, labels)
}

fn unescape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Rewrites a dotted metric name into a valid Prometheus metric name.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders `{k="v",...}` with Prometheus label-value escaping
/// (backslash, double quote, and newline must be escaped).
fn prom_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), prom_label_value(v)))
        .collect();
    format!("{{{}}}", rendered.join(","))
}

fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v:?}")
    }
}

fn upper_bound_for_lower(lower: u64) -> String {
    let upper = HistogramCore::bucket_upper_bound(HistogramCore::bucket_index(lower));
    if upper == u64::MAX {
        "+Inf".to_string()
    } else {
        // The bucket is `[lower, upper)`; Prometheus `le` is inclusive.
        (upper - 1).to_string()
    }
}

/// Captures the registry and renders it as JSON (see [`Snapshot::to_json`]).
pub fn export_json() -> String {
    Snapshot::capture().to_json()
}

/// Captures the registry and renders Prometheus text exposition format.
pub fn export_prometheus() -> String {
    Snapshot::capture().to_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn split_rendered_key_roundtrip() {
        let (name, labels) = split_rendered_key("m{a=\"x\",b=\"y\\\"z\"}");
        assert_eq!(name, "m");
        assert_eq!(
            labels,
            vec![
                ("a".to_string(), "x".to_string()),
                ("b".to_string(), "y\"z".to_string())
            ]
        );
    }

    #[test]
    fn prom_label_value_escaping() {
        assert_eq!(prom_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn prom_name_sanitizes_dots() {
        assert_eq!(prom_name("votekg.sgp.iterations"), "votekg_sgp_iterations");
    }
}
