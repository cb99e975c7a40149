//! Metric catalogue, run report, and output formatting.
//!
//! Every metric the benchmark can emit is declared here with its unit.
//! `END_TO_END` is what an untraced run prints in its result line;
//! `PER_LAYER` is what a traced run prints. A workload that does not run
//! a layer reports that layer's metrics as 0.

use crate::stats::Dist;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name, unit. Defined on every
/// workload and never 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("seg_per_s", "seg/s"),
    ("cpu_us_per_seg", "us"),
    ("egress_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Lossless arms, in roster order, as their metric-name suffixes.
pub const LOSSLESS_ARMS: [&str; 6] = ["gzip", "snappy", "gorilla", "zlib-6", "buff", "sprintz"];
/// Lossy arms (offline recoding), as their metric-name suffixes.
pub const LOSSY_ARMS: [&str; 5] = ["paa", "pla", "fft", "buff-lossy", "rrd-sample"];

/// Per-layer metrics (traced runs): name, unit. Workload-specific
/// end-to-end quality metrics (link delivery, offline accuracy, failure
/// share) are listed here too, because a workload without a link or a
/// budgeted store has no value for them other than 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str| v.push((n.to_string(), u));
    add("datasets.fill_us", "us");
    add("datasets.fill_us.tail", "us");
    add("engine.producer_wait_share", "ratio");
    add("engine.overhead_us", "us");
    add("engine.spills", "count");
    add("engine.selector_syncs", "count");
    add("selector.decisions", "count");
    add("selector.select_ns", "ns");
    add("selector.select_ns.tail", "ns");
    add("selector.report_ns", "ns");
    add("selector.report_ns.tail", "ns");
    add("selector.explore_share", "ratio");
    for arm in LOSSLESS_ARMS {
        add(&format!("selector.pulls.{arm}"), "count");
    }
    add("selector.degraded_share", "ratio");
    for arm in LOSSLESS_ARMS.iter().chain(&LOSSY_ARMS) {
        add(&format!("codecs.compress_us.{arm}"), "us");
    }
    add("codecs.compress_share", "ratio");
    add("codecs.explore_time_share", "ratio");
    add("codecs.decompress_us", "us");
    add("codecs.decompress_us.tail", "us");
    add("fleet.overhead_us", "us");
    add("fleet.posterior_load_ms", "ms");
    add("fleet.restores", "count");
    add("fleet.evictions", "count");
    add("fleet.peak_resident", "count");
    add("fleet.state_bytes_per_stream", "B");
    add("frame.frames", "count");
    add("frame.fill_ratio", "ratio");
    add("spool.append_us", "us");
    add("spool.append_us.tail", "us");
    add("spool.sync_us", "us");
    add("spool.ack_us", "us");
    add("spool.replay_us", "us");
    add("spool.syncs", "count");
    add("spool.peak_bytes", "B");
    add("spool.replayed_records", "count");
    add("uplink.tick_us", "us");
    add("uplink.tick_us.tail", "us");
    add("uplink.offer_us", "us");
    add("uplink.frames_sent", "count");
    add("uplink.retries", "count");
    add("uplink.trips", "count");
    add("uplink.cancelled_on_trip", "count");
    add("uplink.peak_backlog", "count");
    add("uplink.retry_share", "ratio");
    add("receiver.on_frame_us", "us");
    add("receiver.duplicates", "count");
    add("receiver.rejected", "count");
    add("receiver.peak_pending", "count");
    add("offline.ingest_us", "us");
    add("offline.ingest_us.tail", "us");
    add("offline.lossless_us", "us");
    add("offline.recode_us", "us");
    add("offline.recodes_per_seg", "1/seg");
    add("offline.reconstruct_us", "us");
    add("store.utilization", "ratio");
    add("trace.overhead_share", "ratio");
    add("goodput_B_per_tick", "B/tick");
    add("delivery_ticks_p50", "ticks");
    add("delivery_ticks_p99", "ticks");
    add("agg_rel_error", "ratio");
    add("failed_share", "ratio");
    v
}

/// One correctness check's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed values, for the log.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Resolved configuration (key, value), printed with the run.
    pub config: Vec<(String, String)>,
    /// Metric values by name (end-to-end and per-layer share one map).
    pub values: BTreeMap<String, f64>,
    /// Per-call timing distributions, for the log (name, unit, dist).
    pub dists: Vec<(String, &'static str, Dist)>,
    /// Segments attempted in the measured phase.
    pub attempted: u64,
    /// Segments that failed (contained codec failure, lost or mismatched
    /// delivery, ingest error).
    pub failed: u64,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Self time (ns) per span name over the last traced episode.
    pub self_ns: Vec<(&'static str, i64)>,
}

impl Report {
    /// An empty report for `workload` at `seed`.
    pub fn new(workload: &str, seed: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            ..Self::default()
        }
    }

    /// Record a resolved configuration entry.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Set a metric. Panics on a name the catalogue does not declare.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name.to_string(), value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Set `name` to the median and `name.tail` (when declared) to the tail
    /// percentile of `samples_ns`, scaled by `per_ns` (e.g. 1e-3 for µs).
    pub fn set_timing(&mut self, name: &str, samples_ns: &[f64], per_ns: f64) {
        let scaled: Vec<f64> = samples_ns.iter().map(|x| x * per_ns).collect();
        let d = crate::stats::dist(&scaled);
        self.set(name, d.median);
        let tail = format!("{name}.tail");
        if unit_of(&tail).is_some() {
            self.set(&tail, d.tail);
        }
        let unit = unit_of(name).expect("checked by set");
        self.dists.push((name.to_string(), unit, d));
    }

    /// Record a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable log lines followed by the one-line JSON result.
    /// The result carries the end-to-end metrics, or the per-layer ones
    /// when `traced`.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# workload={} seed={} traced={}\n",
            self.workload, self.seed, traced
        ));
        for (k, v) in &self.config {
            out.push_str(&format!("# config {k}={v}\n"));
        }
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "# attempted={} failed={} failed_share={} ratio\n",
            self.attempted, self.failed, failed_share
        ));
        for (name, value) in &self.values {
            let unit = unit_of(name).expect("set() admits catalogued names only");
            out.push_str(&format!("metric {name} {value} {unit}\n"));
        }
        for (name, unit, d) in &self.dists {
            out.push_str(&format!(
                "timing {name} median={} {unit} {}={} {unit} n={}\n",
                d.median, d.tail_label, d.tail, d.n
            ));
        }
        let traced_ns: i64 = self.self_ns.iter().map(|(_, t)| t).sum();
        for (name, t) in &self.self_ns {
            out.push_str(&format!(
                "self {name} {} ms share={}\n",
                *t as f64 * 1e-6,
                *t as f64 / traced_ns as f64
            ));
        }
        for c in &self.checks {
            out.push_str(&format!(
                "check {} {} {}\n",
                if c.ok { "ok" } else { "FAILED" },
                c.name,
                c.detail
            ));
        }
        let names: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(n, u)| {
                let v = self.get(n).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v))
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut seen = std::collections::HashSet::new();
        for n in &all {
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
            assert!(n.len() <= 64);
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_is_last_and_complete() {
        let mut r = Report::new("online", 1);
        r.attempted = 10;
        r.set("seg_per_s", 12.5);
        r.check("x", true, "");
        let text = r.render(false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (n, u) in END_TO_END {
            assert!(last.contains(&format!("\"{n}\": {{\"value\": ")), "{n}");
            assert!(last.contains(&format!("\"unit\": \"{u}\"")));
        }
        assert!(last.contains("\"seg_per_s\": {\"value\": 12.5,"));
    }
}
