//! The metric catalog: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; the smoke test checks the two
//! agree.

use std::collections::BTreeMap;

/// One reported metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the detector sees, reported by untraced runs of every
/// workload. Each workload's "operation" is its user-visible unit of work:
/// one detection run (`offline_detect`), one frame's verdict
/// (`stream_steady`, `fleet_burst`) or one ingest's acknowledgement
/// (`serve_wire`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("latency_p95_ms", "ms"),
    m("star_frames_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer numbers, reported by traced runs. Every workload reports every
/// one: times come from the workload's own calls or from probes on a twin
/// of its model, so they are always measured; counters read 0 where the
/// layer has nothing to do on that workload.
pub const PER_LAYER: &[MetricDef] = &[
    m("train.fit_s", "s"),
    m("online.calibrate_s", "s"),
    m("model.stage1_ms", "ms"),
    m("model.stage2_ms", "ms"),
    m("graph_learn.adjacency_us", "us"),
    m("tensor.proj_gflops", "GFLOP/s"),
    m("tensor.ffn_gflops", "GFLOP/s"),
    m("tensor.roofline_gflops", "GFLOP/s"),
    m("tensor.workspace_misses", "count"),
    m("tensor.heap_allocs_per_op", "count"),
    m("evt.pot_ms", "ms"),
    m("persist.save_ms", "ms"),
    m("persist.load_ms", "ms"),
    m("persist.checkpoint_bytes", "B"),
    m("wal.append_us_p50", "us"),
    m("wal.replay_ms", "ms"),
    m("wal.bytes_per_frame", "B"),
    m("service.call_ms_p50", "ms"),
    m("service.call_ms_p99", "ms"),
    m("serve.encode_us", "us"),
    m("serve.decode_us", "us"),
    m("online.frames_dropped_stale", "count"),
    m("overload.queue_depth_p99", "count"),
    m("overload.frames_rejected", "count"),
    m("overload.star_sheds", "count"),
    m("overload.ladder_steps_down", "count"),
    m("overload.fallback_scores", "count"),
    m("overload.held_verdicts", "count"),
    m("overload.degraded_ratio", "ratio"),
    m("overload.failed_ratio", "ratio"),
    m("fleet.shard_queue_skew", "count"),
    m("fleet.frames_replayed", "count"),
    m("fleet.resume_s", "s"),
    m("fleet.burst_p95_ms", "ms"),
    m("gen.late_pct_p99", "%"),
    m("eval.f1", "ratio"),
    m("trace.overhead_est_pct", "%"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// Per-layer values collected by a traced run.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    /// Counters, and the fleet layer's numbers, start at zero: a layer a
    /// workload never enters did no work. Other times start absent, so a
    /// time a workload forgot to measure is caught by [`Layers::missing`]
    /// instead of reading as zero.
    fn default() -> Self {
        let mut map = BTreeMap::new();
        for d in PER_LAYER {
            if matches!(d.unit, "count" | "ratio" | "%" | "B") || d.name.starts_with("fleet.") {
                map.insert(d.name, 0.0);
            }
        }
        Self(map)
    }
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Catalogued per-layer metrics that were never set.
    pub fn missing(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }
}
