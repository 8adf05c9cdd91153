//! The metric catalogue. `BENCHMARK.json` lists exactly these names; a
//! self-test keeps the two in step.

/// Workloads the command runs, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["rank_hot", "feedback_loop"];

/// `(name, unit, better)` of every end-to-end metric, printed by every
/// workload's untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("rank_p50_us", "us", "lower"),
    ("rank_p99_us", "us", "lower"),
    ("rank_rps", "1/s", "higher"),
    ("vote_p50_us", "us", "lower"),
    ("round_ms", "ms", "lower"),
    ("omega_avg", "ranks/vote", "higher"),
    ("recover_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
];

/// `(name, unit, better)` of every per-layer metric, printed by every
/// workload's traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("kg-server.http_p50_us", "us", "lower"),
    ("kg-server.bin_p50_us", "us", "lower"),
    ("kg-server.overhead_p50_us", "us", "lower"),
    ("kg-server.cpu_us_per_req", "us/req", "lower"),
    ("kg-server.errors", "count", "lower"),
    ("kg-serve.hit_p50_us", "us", "lower"),
    ("kg-serve.hit_rate", "ratio", "higher"),
    ("kg-serve.misses", "count", "lower"),
    ("kg-serve.repaired", "count", "higher"),
    ("kg-serve.invalidated", "count", "lower"),
    ("kg-serve.retained", "count", "higher"),
    ("kg-serve.first_after_publish_us", "us", "lower"),
    ("kg-sim.kernel_p50_us", "us", "lower"),
    ("kg-sim.kernel_p99_us", "us", "lower"),
    ("kg-sim.edge_ops", "count", "lower"),
    ("kg-sim.affected_us", "us", "lower"),
    ("kg-graph.publish_us", "us", "lower"),
    ("kg-graph.changes_since_us", "us", "lower"),
    ("kg-graph.edges_changed", "count", "lower"),
    ("kg-graph.snapshot_load_ms", "ms", "lower"),
    ("kg-graph.capture_us", "us", "lower"),
    ("kg-graph.weights_crc_us", "us", "lower"),
    ("kg-graph.snapshot_write_ms", "ms", "lower"),
    ("kg-votes.encode_ms", "ms", "lower"),
    ("kg-votes.constraints", "count", "lower"),
    ("kg-votes.wal_sync_us", "us", "lower"),
    ("kg-votes.wal_bytes_per_vote", "B/vote", "lower"),
    ("kg-votes.replay_ms", "ms", "lower"),
    ("kg-votes.commit_round_us", "us", "lower"),
    ("kg-votes.wal_rewrite_ms", "ms", "lower"),
    ("sgp.solve_ms", "ms", "lower"),
    ("sgp.inner_iters", "count", "lower"),
    ("sgp.applied_frac", "ratio", "higher"),
    ("kg-cluster.footprint_ms", "ms", "lower"),
    ("kg-cluster.similarity_ms", "ms", "lower"),
    ("kg-cluster.sim_nonzero_frac", "ratio", "lower"),
    ("kg-cluster.ap_ms", "ms", "lower"),
    ("kg-cluster.ap_iters", "count", "lower"),
    ("kg-cluster.clusters", "count", "higher"),
    ("kg-cluster.solve_ms", "ms", "lower"),
    ("kg-cluster.merge_ms", "ms", "lower"),
    ("core.vote_inproc_p50_us", "us", "lower"),
    ("core.checkpoint_ms", "ms", "lower"),
    ("core.round_unattributed_ms", "ms", "lower"),
    ("kg-datasets.scenario_s", "s", "lower"),
    ("trace.rank_p50_us", "us", "lower"),
    ("trace.round_ms", "ms", "lower"),
    ("trace.vote_p50_us", "us", "lower"),
    ("trace.span_ns", "ns", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `key` in BENCHMARK.json, in order.
    fn listed(doc: &str, key: &str) -> Vec<String> {
        let start = doc.find(&format!("\"{key}\"")).expect("key present");
        let end = doc[start..].find(']').expect("list closes") + start;
        doc[start..end]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| {
                let open = chunk.find('"').expect("name value") + 1;
                let close = chunk[open..].find('"').expect("name closes") + open;
                chunk[open..close].to_string()
            })
            .collect()
    }

    #[test]
    fn emitted_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = |list: &[(&str, &str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _, _)| n.to_string()).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), names(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), names(PER_LAYER));
        assert_eq!(listed(&doc, "workloads"), WORKLOADS);
    }
}
