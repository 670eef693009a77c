//! Metric names, summary statistics and the result line.
//!
//! Every workload reports every metric named here, so runs of different
//! workloads can be compared metric by metric. End-to-end metrics are
//! never zero; a per-layer metric is zero on a workload that never
//! enters the layer, which is itself the prediction the benchmark makes
//! for that workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::wrap::MSG_KINDS;

/// End-to-end metrics, reported with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("raw_mbps", "MB/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics other than the per-message-kind counts, reported
/// with `--trace 1`: (name, unit). Counts and times are per migration
/// unit (one live or simulated migration, one fleet scenario run).
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("vdisk.src.reads", "count"),
    ("vdisk.src.writes", "count"),
    ("vdisk.src.read_s", "s"),
    ("vdisk.src.write_s", "s"),
    ("vdisk.src.reads_per_block", "ratio"),
    ("vdisk.dst.reads", "count"),
    ("vdisk.dst.writes", "count"),
    ("vdisk.dst.read_s", "s"),
    ("vdisk.dst.write_s", "s"),
    ("simnet.src.sends", "count"),
    ("simnet.src.recvs", "count"),
    ("simnet.src.send_s", "s"),
    ("simnet.src.recv_wait_s", "s"),
    ("simnet.src.send_mib", "MiB"),
    ("simnet.dst.sends", "count"),
    ("simnet.dst.recvs", "count"),
    ("simnet.dst.send_s", "s"),
    ("simnet.dst.recv_wait_s", "s"),
    ("simnet.dst.send_mib", "MiB"),
    ("codec.frames", "count"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("lz.blocks", "count"),
    ("lz.compress_s", "s"),
    ("lz.decompress_s", "s"),
    ("lz.ratio", "ratio"),
    ("content.blocks", "count"),
    ("content.hash_s", "s"),
    ("live.wire_mib", "MiB"),
    ("live.downtime_ms.p50", "ms"),
    ("live.downtime_ms.max", "ms"),
    ("live.precopy_passes", "count"),
    ("live.blocks_resent", "count"),
    ("live.frozen_dirty", "count"),
    ("live.pushed", "count"),
    ("live.pulled", "count"),
    ("live.dropped", "count"),
    ("live.stalled_reads", "count"),
    ("live.blocks_deduped", "count"),
    ("live.blocks_compressed", "count"),
    ("live.reconnects", "count"),
    ("sim.engine_new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.disk_passes", "count"),
    ("sim.blocks_sent", "count"),
    ("sim.pages_sent", "count"),
    ("sim.postcopy.pushed", "count"),
    ("sim.postcopy.pulled", "count"),
    ("sim.postcopy.dropped", "count"),
    ("sim.postcopy.pending_high_water", "count"),
    ("sim.io_blocked_s", "s"),
    ("model.total_s", "s"),
    ("model.downtime_ms", "ms"),
    ("model.disruption_s", "s"),
    ("model.wire_mib", "MiB"),
    ("model.makespan_s", "s"),
    ("bitmap.bits", "count"),
    ("bitmap.scan_s", "s"),
    ("bitmap.count_s", "s"),
    ("workloads.ops", "count"),
    ("workloads.gen_s", "s"),
    ("orchestrator.ticks", "count"),
    ("orchestrator.tick_self_us", "us"),
    ("orchestrator.migrations", "count"),
    ("orchestrator.incremental", "count"),
    ("orchestrator.peer_served_blocks", "count"),
    ("scenario.advance_s", "s"),
    ("scenario.queries", "count"),
    ("scenario.query_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
    ("host.reference_s", "s"),
    ("host.memcpy_gbps", "GB/s"),
    ("host.scalar_ns", "ns"),
];

/// Every per-layer metric: the fixed list plus one message count per
/// `MigMessage` variant (`simnet.msgs.<Variant>`, both sides' sends).
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(
            MSG_KINDS
                .iter()
                .map(|k| (format!("simnet.msgs.{k}"), "count")),
        )
        .collect()
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` for `q` in [0, 1], interpolated linearly
/// between the two nearest order statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Metric values gathered by one run, keyed by name: (value, samples).
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, (f64, usize)>);

impl Values {
    /// Record `value` for `name`, summarising `samples` observations.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.0.insert(name.into(), (value, samples));
    }

    /// Record the median of `xs`.
    pub fn median(&mut self, name: impl Into<String>, xs: &[f64]) {
        self.set(name, median(xs), xs.len());
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    fn entry(&self, name: &str) -> (f64, usize) {
        self.0.get(name).copied().unwrap_or((0.0, 0))
    }
}

/// Per-migration observations of named quantities.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Add one observation of `name`.
    pub fn push(&mut self, name: impl Into<String>, x: f64) {
        self.0.entry(name.into()).or_default().push(x);
    }

    /// Record the mean of every quantity into `v`.
    pub fn means_into(&self, v: &mut Values) {
        for (name, xs) in &self.0 {
            v.set(
                name.clone(),
                xs.iter().sum::<f64>() / xs.len() as f64,
                xs.len(),
            );
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Migrations attempted.
    pub attempted: u64,
    /// Migrations that returned an error or whose output failed a check.
    pub failed: u64,
    /// Measured values.
    pub values: Values,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Count one attempted migration and whether it passed its checks;
    /// a failure is reported with the seed that reproduces it.
    pub fn check(&mut self, ok: bool, seed: u64, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED (seed {seed}): {}", what()));
        }
    }

    /// The metric set for this trace mode, in declaration order:
    /// (name, value, unit, samples).
    pub fn metrics(&self, traced: bool) -> Vec<(String, f64, &'static str, usize)> {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        names
            .into_iter()
            .map(|(n, u)| {
                let (v, s) = self.values.entry(&n);
                (n, v, u, s)
            })
            .collect()
    }

    /// Aligned table of `metrics` with sample counts.
    pub fn table(&self, traced: bool) -> String {
        let mut out = format!(
            "{:<36} {:>16} {:<6} {:>4}\n",
            "metric", "value", "unit", "n"
        );
        for (n, v, u, s) in self.metrics(traced) {
            let _ = writeln!(out, "{n:<36} {v:>16.6} {u:<6} {s:>4}");
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (n, v, u, _)) in self.metrics(traced).into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(out, "{sep}\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 9.0, 8.0, 10.0, 11.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.1), 2.0);
        assert_eq!(quantile(&xs, 1.0), 11.0);
        assert!((quantile(&[1.0, 2.0], 0.1) - 1.1).abs() < 1e-12);
        assert_eq!(quantile(&[4.0], 0.1), 4.0);
    }

    #[test]
    fn json_line_lists_every_metric_of_the_mode() {
        let mut r = RunResult::default();
        r.values.set("wall_s", 1.25, 3);
        r.check(true, 1, String::new);
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        for (n, _) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\"")));
        }
        let parsed: serde_json::Value =
            serde_json::from_str(&r.json_line(true)).expect("valid JSON");
        let metrics = parsed.get("metrics").expect("metrics key");
        for (n, _) in per_layer() {
            assert!(metrics.get(&n).is_some(), "{n} missing");
        }
    }

    #[test]
    fn a_failed_check_marks_the_run_incorrect() {
        let mut r = RunResult::default();
        r.check(true, 7, String::new);
        r.check(false, 7, || "1 inconsistent block".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.json_line(false).starts_with("{\"correct\": false"));
        assert!(r.notes[0].contains("seed 7"));
    }
}
