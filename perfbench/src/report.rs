//! The metric vocabulary, the result line, and the small statistics the
//! workloads share.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A metric name and its unit, as listed in `BENCHMARK.json`.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by every untraced run. Each workload gives the operation
/// metrics its own meaning: one cold analysis-to-snapshot (`cold_study`),
/// one semantic edit until the server answers with the new ETag
/// (`edit_to_fresh`), one GET (`serve_mixed`).
///
/// Timings are read at the slow end of the run, over windows:
/// `op_p90_ms` is the latency 90% of the windows stay under and
/// `ops_per_s_p10` the completion rate 90% of them reach. A window is one
/// operation (one semantic-plus-cosmetic edit pair for the edit rate), or
/// for `serve_mixed` a half-second slice, whose latency is its own 90th
/// percentile.
///
/// The shared 2-vCPU host the benchmark was tuned on switches between
/// CPU speeds up to 1.6x apart every few seconds, and the mix of fast and
/// slow seconds differs from run to run: the median edit time lands on
/// whichever speed held half the run and spread by 27% (quartile distance
/// over median, six 30-s runs), while the slow end, which every run
/// reaches, spread by 5%.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("op_p90_ms", "ms"),
    m("ops_per_s_p10", "1/s"),
];

/// The latency percentile `op_p90_ms` reports.
pub const OP_QUANTILE: f64 = 0.9;

/// Printed by every traced run. A layer a workload never calls reads 0.
pub const PER_LAYER: &[Metric] = &[
    // The cold analysis-to-snapshot, stage by stage (every workload's
    // set-up analyzes its tree cold, so all three report these).
    m("core.read_ms", "ms"),
    m("nettopo.parse_ms", "ms"),
    m("ioscfg.lines_per_ms", "lines/ms"),
    m("nettopo.assemble_ms", "ms"),
    m("nettopo.links_ms", "ms"),
    m("nettopo.external_ms", "ms"),
    m("routing_model.processes_ms", "ms"),
    m("routing_model.adjacencies_ms", "ms"),
    m("routing_model.instances_ms", "ms"),
    m("routing_model.graphs_ms", "ms"),
    m("netaddr.blocks_ms", "ms"),
    m("routing_model.classify_ms", "ms"),
    m("routing_model.diagnose_ms", "ms"),
    m("core.capture_ms", "ms"),
    m("rd_snap.encode_ms", "ms"),
    m("rd_snap.persist_ms", "ms"),
    m("rd_snap.bytes", "bytes"),
    m("rd_par.busy_ratio", "ratio"),
    m("rd_par.critical_ms", "ms"),
    m("rd_par.speedup", "ratio"),
    m("cold.unattributed_ms", "ms"),
    m("cold.trace_overhead_ms", "ms"),
    // One semantic edit on the write side.
    m("core.detect_ms", "ms"),
    m("core.refresh_ms", "ms"),
    m("core.reuse_ratio", "ratio"),
    m("core.files_reparsed", "count"),
    m("rd_snap.edit_persist_ms", "ms"),
    m("rd_serve.publish_ms", "ms"),
    m("rd_serve.render_pathways_ms", "ms"),
    m("rd_serve.render_instances_ms", "ms"),
    m("rd_serve.render_networks_ms", "ms"),
    m("rd_serve.render_other_ms", "ms"),
    m("fresh.unattributed_ms", "ms"),
    m("fresh.trace_overhead_ms", "ms"),
    // Server boot and the read side.
    m("rd_snap.decode_ms", "ms"),
    m("rd_serve.boot_ms", "ms"),
    m("rd_serve.p50_us.collection", "us"),
    m("rd_serve.p50_us.network", "us"),
    m("rd_serve.p50_us.processes", "us"),
    m("rd_serve.p50_us.healthz", "us"),
    m("rd_serve.p99_us", "us"),
    m("rd_serve.cache_hit_ratio", "ratio"),
    m("rd_serve.bytes_per_req", "bytes"),
    m("rd_serve.wakeups_per_req", "ratio"),
    m("rd_serve.events_per_wakeup", "ratio"),
    m("rd_serve.epoll_wait_share", "ratio"),
    m("serve.trace_overhead_us", "us"),
];

/// One run's outcome: operations attempted and failed, and the metric
/// values measured so far.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation; a failed one is also explained on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: failed: {}", what());
            }
        }
    }

    /// Counts `attempted` operations at once, `failures` of them failed.
    pub fn ops(&mut self, attempted: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        for what in failures.iter().take(20) {
            eprintln!("perfbench: failed: {what}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric (traced). The run is correct when no operation
    /// failed and every end-to-end metric was measured as a finite
    /// number above zero.
    pub fn to_json(&self, trace: bool) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let list = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(list.len());
        for metric in list {
            let value = match self.values.get(metric.name) {
                Some(v) if v.is_finite() && (trace || *v > 0.0) => *v,
                Some(v) if v.is_finite() => {
                    correct = false;
                    *v
                }
                None if trace => 0.0,
                _ => {
                    correct = false;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f`, returning its value and wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, ms(t0.elapsed()))
}

/// Linear-interpolated quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latencies in a fixed-size log-linear histogram: 64 buckets per power
/// of two (each under 1.6% wide), so memory stays the same however many
/// requests a run completes.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
}

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB],
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (shift as usize + 1) * SUB + ((ns >> shift) as usize - SUB)
    }

    /// Lower edge and width of bucket `i`, in ns.
    fn bucket(i: usize) -> (f64, f64) {
        let (block, sub) = (i / SUB, i % SUB);
        if block == 0 {
            (sub as f64, 1.0)
        } else {
            let width = (1u64 << (block - 1)) as f64;
            ((SUB + sub) as f64 * width, width)
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Histogram::index(ns)] += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q` quantile in ns, interpolated within its bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (lower, width) = Histogram::bucket(i);
                return lower + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        0.0
    }
}

/// Writes every dirty page out before a measurement starts. Set-ups
/// rewrite whole trees; left in the page cache, that writeback lands in
/// the first measured seconds, where the `fsync`s of
/// `rd_snap::write_atomic` wait for it (an ext4 journal commit flushes
/// the data of every file written before it) and the first edits of a
/// run took up to 1.9 times as long as the rest.
pub fn flush_disk() {
    // Best effort: where `sync` cannot run, the run is only noisier.
    let _ = std::process::Command::new("sync").status();
}

/// The process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    rd_obs::metrics::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// Set-up time in seconds: the median over the set-up the run used,
/// which took `first_s`, and `crate::SETUPS - 1` more, each torn down
/// untimed. The extra set-ups run after the measurement, so whatever
/// they leave in the allocator never reaches a measured peak.
pub fn setup_seconds<T>(
    first_s: f64,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<f64, String> {
    let mut times = vec![first_s];
    for _ in 1..crate::SETUPS {
        let (value, wall) = timed(&mut setup);
        times.push(wall / 1e3);
        teardown(value?);
    }
    Ok(median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let ok_name = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(metric.name.chars().all(ok_name), "{}", metric.name);
            assert!(
                metric.name.len() <= 64
                    && metric.name.starts_with(|c: char| c.is_ascii_alphanumeric())
            );
            let ok_unit = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                metric.unit.chars().all(ok_unit) && metric.unit.len() <= 16,
                "{}",
                metric.unit
            );
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                metric.name, metric.unit
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = Histogram::new();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        for q in [0.5, 0.99] {
            let exact = q * 999_990.0 + 10.0;
            assert!(
                (h.quantile(q) / exact - 1.0).abs() < 0.016,
                "q{q}: {}",
                h.quantile(q)
            );
        }
        assert_eq!(Histogram::index(63), 63);
        assert!(Histogram::bucket(Histogram::index(1_000_000)).0 as u64 <= 1_000_000);
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_marks_missing_end_to_end_metrics_incorrect() {
        let mut r = Report::default();
        r.op(true, String::new);
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
        for metric in END_TO_END {
            r.set(metric.name, 1.5);
        }
        assert!(r
            .to_json(false)
            .starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(r
            .to_json(true)
            .contains("\"rd_par.speedup\": {\"value\": 0, \"unit\": \"ratio\"}"));
    }
}
