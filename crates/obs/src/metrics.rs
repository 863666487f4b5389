//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, collected process-wide and dumped deterministically.
//!
//! Metrics are always on (unlike tracing, which needs a sink): updates are
//! coarse-grained — once per file or per stage, never per line — so a
//! single mutex-guarded `BTreeMap` is cheap, keeps the dump ordering
//! deterministic, and needs no unsafe or external crates.
//!
//! Conventions: dotted lowercase names (`parse.lines`,
//! `parse.unrecognized_lines`, `instances.count`); `rss.peak_kb[.stage]`
//! gauges carry the peak resident set read from `/proc/self/status` on
//! Linux (portable fallback: absent). Counters and histograms over
//! pipeline inputs are deterministic at any thread count; `rss.*` gauges
//! are not, and determinism checks skip them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{Layout, Writer};

/// A histogram with caller-fixed bucket bounds: `buckets[i]` counts values
/// `<= bounds[i]`, with one final overflow bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `bounds.len() + 1` entries (last = overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Histogram {
    /// An empty histogram with the given inclusive upper bounds. Public so
    /// hot paths (the rd-serve event loop) can accumulate into a local
    /// histogram and fold it into the registry once per batch via
    /// [`histogram_merge`] instead of taking the registry mutex per value.
    pub fn new(bounds: &[u64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let slot = self.bounds.iter().position(|b| value <= *b).unwrap_or(self.bounds.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds another histogram's buckets into this one. The two must share
    /// bounds; mismatched shapes are ignored under `debug_assert`.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds != other.bounds {
            debug_assert!(false, "histogram merge with mismatched bounds");
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts,
    /// interpolating linearly inside the winning bucket — the same
    /// convention as Prometheus's `histogram_quantile`. Values landing in
    /// the overflow bucket are reported as the highest finite bound (a
    /// deliberate under-estimate: fixed-bucket histograms cannot see past
    /// their last bound). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            if *bucket == 0 {
                continue;
            }
            let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
            if cumulative + bucket >= rank {
                let Some(upper) = self.bounds.get(i) else {
                    // Overflow bucket: clamp to the last finite bound.
                    return self.bounds.last().copied().unwrap_or(0);
                };
                let into = (rank - cumulative) as f64 / *bucket as f64;
                return lower + ((*upper - lower) as f64 * into).round() as u64;
            }
            cumulative += bucket;
        }
        self.bounds.last().copied().unwrap_or(0)
    }
}

/// One registered metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write (or max-tracked) gauge.
    Gauge(i64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<String, Metric>) -> R) -> R {
    f(&mut REGISTRY.lock().expect("metrics registry poisoned"))
}

/// Adds `n` to the named counter (creating it at zero).
pub fn counter_add(name: &str, n: u64) {
    with_registry(|reg| match reg.entry(name.to_string()).or_insert(Metric::Counter(0)) {
        Metric::Counter(v) => *v += n,
        other => debug_assert!(false, "{name} is not a counter: {other:?}"),
    });
}

/// Sets the named gauge.
pub fn gauge_set(name: &str, value: i64) {
    with_registry(|reg| match reg.entry(name.to_string()).or_insert(Metric::Gauge(value)) {
        Metric::Gauge(v) => *v = value,
        other => debug_assert!(false, "{name} is not a gauge: {other:?}"),
    });
}

/// Raises the named gauge to `value` if larger (peak tracking).
pub fn gauge_max(name: &str, value: i64) {
    with_registry(|reg| match reg.entry(name.to_string()).or_insert(Metric::Gauge(value)) {
        Metric::Gauge(v) => *v = (*v).max(value),
        other => debug_assert!(false, "{name} is not a gauge: {other:?}"),
    });
}

/// Records `value` into the named fixed-bucket histogram. The first call
/// fixes the bounds; later calls reuse them (`bounds` is then ignored).
pub fn histogram_record(name: &str, value: u64, bounds: &[u64]) {
    with_registry(|reg| {
        match reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.record(value),
            other => debug_assert!(false, "{name} is not a histogram: {other:?}"),
        }
    });
}

/// Registers an empty histogram with the given bounds if the name is not
/// already taken. Servers pre-register their metric families at startup
/// so `/metrics` exposes every family (at zero) before the first
/// observation — scrape contracts can then assert presence uncondition-
/// ally instead of racing the first request.
pub fn histogram_register(name: &str, bounds: &[u64]) {
    with_registry(|reg| {
        reg.entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)));
    });
}

/// Merges a locally-accumulated histogram into the named registry
/// histogram under a single registry lock — the batched alternative to
/// per-value [`histogram_record`] calls for paths that observe hundreds
/// of values per event-loop round. The first merge installs a copy.
pub fn histogram_merge(name: &str, local: &Histogram) {
    if local.is_empty() {
        return;
    }
    with_registry(|reg| {
        match reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(&local.bounds)))
        {
            Metric::Histogram(h) => h.merge(local),
            other => debug_assert!(false, "{name} is not a histogram: {other:?}"),
        }
    });
}

/// Clears every metric (tests and determinism comparisons).
pub fn reset() {
    with_registry(|reg| reg.clear());
}

/// A deterministic copy of the registry (sorted by name).
pub fn snapshot() -> Vec<(String, Metric)> {
    with_registry(|reg| reg.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
}

/// The process's peak resident set size in kB, from `/proc/self/status`
/// (`VmHWM`). `None` where the proc filesystem is unavailable — the
/// portable fallback is to simply not record the gauge.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Records the current peak RSS under `rss.peak_kb` and, when `label` is
/// non-empty, `rss.peak_kb.<label>` — the per-stage memory high-water
/// marks the bench harness folds into `BENCH_repro.json`.
pub fn record_peak_rss(label: &str) {
    let Some(kb) = peak_rss_kb() else {
        return;
    };
    gauge_max("rss.peak_kb", kb as i64);
    if !label.is_empty() {
        gauge_max(&format!("rss.peak_kb.{label}"), kb as i64);
    }
}

/// Renders the registry as an aligned text table, one metric per line,
/// sorted by name (`rdx --metrics`).
pub fn dump() -> String {
    let mut out = String::new();
    let snap = snapshot();
    if snap.is_empty() {
        return "no metrics recorded\n".to_string();
    }
    let width = snap.iter().map(|(name, _)| name.len()).max().unwrap_or(0).max(6);
    let _ = writeln!(out, "{:<width$} {:>14}", "metric", "value");
    for (name, metric) in snap {
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(out, "{name:<width$} {v:>14}");
            }
            Metric::Gauge(v) => {
                let _ = writeln!(out, "{name:<width$} {v:>14}");
            }
            Metric::Histogram(h) => {
                let mean = if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 };
                let _ = writeln!(
                    out,
                    "{name:<width$} {:>14} (sum {}, mean {mean:.1}, buckets {:?} ≤ {:?})",
                    h.count, h.sum, h.buckets, h.bounds
                );
            }
        }
    }
    out
}

/// Writes `metrics` (a [`snapshot`]) into `w` as one block object, the
/// `metrics` section of `BENCH_repro.json`: counters and gauges as
/// numbers, histograms as inline objects.
pub fn write_json(w: &mut Writer, metrics: &[(String, Metric)]) {
    w.obj(Layout::Block, |w| {
        for (name, metric) in metrics {
            w.key(name);
            match metric {
                Metric::Counter(v) => w.num(v),
                Metric::Gauge(v) => w.num(v),
                Metric::Histogram(h) => w.obj(Layout::Inline, |w| {
                    w.key("count").num(h.count).key("sum").num(h.sum);
                    for (key, values) in [("bounds", &h.bounds), ("buckets", &h.buckets)] {
                        w.key(key).arr(Layout::Inline, |w| {
                            for v in values {
                                w.num(v);
                            }
                        });
                    }
                }),
            };
        }
    });
}

/// Maps a dotted metric name onto the Prometheus name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other illegal characters become
/// underscores, and a leading digit gets an underscore prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

static BUILD_INFO: Mutex<Option<(String, Instant)>> = Mutex::new(None);

/// Declares the running build for `/metrics`: adds an
/// `rd_build_info{version="..."} 1` gauge and starts the
/// `process_uptime_seconds` clock. Called once by server startup; the
/// lines appear only in [`render_prometheus`], never in the
/// deterministic dump/JSON renderings, so analysis-output comparisons
/// stay byte-stable.
pub fn set_build_info(version: &str) {
    let mut info = BUILD_INFO.lock().expect("build info poisoned");
    if info.is_none() {
        *info = Some((version.to_string(), Instant::now()));
    }
}

fn build_info() -> Option<(String, Instant)> {
    BUILD_INFO.lock().expect("build info poisoned").clone()
}

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4), sorted by metric name — served at `/metrics` by
/// `rdx serve`. When [`set_build_info`] has been called, the
/// `rd_build_info` and `process_uptime_seconds` gauges are appended
/// after the sorted registry families.
///
/// Counters gain a `_total` suffix per convention; histograms render as
/// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
pub fn render_prometheus() -> String {
    let mut out = String::new();
    for (name, metric) in snapshot() {
        let pname = prometheus_name(&name);
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(out, "# TYPE {pname}_total counter");
                let _ = writeln!(out, "{pname}_total {v}");
            }
            Metric::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {pname} gauge");
                let _ = writeln!(out, "{pname} {v}");
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {pname} histogram");
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(&h.buckets) {
                    cumulative += count;
                    let _ = writeln!(out, "{pname}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{pname}_sum {}", h.sum);
                let _ = writeln!(out, "{pname}_count {}", h.count);
            }
        }
    }
    if let Some((version, started)) = build_info() {
        let _ = writeln!(out, "# TYPE rd_build_info gauge");
        let _ = writeln!(out, "rd_build_info{{version=\"{}\"}} 1", crate::json::escape(&version));
        let _ = writeln!(out, "# TYPE process_uptime_seconds gauge");
        let _ = writeln!(out, "process_uptime_seconds {:.3}", started.elapsed().as_secs_f64());
    }
    out
}

/// Lints text in the Prometheus exposition format, returning the first
/// problem found. Checks, per the format spec: sample and `# TYPE` names
/// stay in the legal charset; every sample line carries a numeric value;
/// for each declared histogram, `_bucket{le=...}` counts are cumulative
/// (non-decreasing), the series ends with `le="+Inf"`, the `+Inf` bucket
/// equals `_count`, and `_sum`/`_count` are present.
///
/// This backs the format contract test on [`render_prometheus`] and is
/// cheap enough for integration tests to run against a live `/metrics`
/// scrape.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        let Some(first) = chars.next() else {
            return false;
        };
        (first.is_ascii_alphabetic() || first == '_' || first == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    let mut histograms: Vec<String> = Vec::new();
    let mut samples: Vec<(String, String, f64)> = Vec::new(); // (name, labels, value)
    for (lineno, line) in text.lines().enumerate() {
        let err = |what: &str| Err(format!("line {}: {what}: {line:?}", lineno + 1));
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return err("malformed TYPE comment");
            };
            if !name_ok(name) {
                return err("illegal metric name in TYPE");
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return err("unknown metric type");
            }
            if kind == "histogram" {
                histograms.push(name.to_string());
            }
            continue;
        }
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        // Sample line: `name[{labels}] value`.
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !name_ok(name) {
            return err("illegal sample name");
        }
        let rest = &line[name_end..];
        let (labels, value_text) = if let Some(rest) = rest.strip_prefix('{') {
            let Some(close) = rest.find('}') else {
                return err("unterminated label set");
            };
            (&rest[..close], rest[close + 1..].trim())
        } else {
            ("", rest.trim())
        };
        let Ok(value) = value_text.parse::<f64>() else {
            return err("non-numeric sample value");
        };
        samples.push((name.to_string(), labels.to_string(), value));
    }

    for h in &histograms {
        let buckets: Vec<&(String, String, f64)> =
            samples.iter().filter(|(n, _, _)| n == &format!("{h}_bucket")).collect();
        if buckets.is_empty() {
            return Err(format!("histogram {h}: no _bucket series"));
        }
        let mut prev = f64::MIN;
        for (_, labels, value) in &buckets {
            if !labels.contains("le=\"") {
                return Err(format!("histogram {h}: bucket without le label"));
            }
            if *value < prev {
                return Err(format!("histogram {h}: bucket counts not cumulative"));
            }
            prev = *value;
        }
        let (_, last_labels, inf_count) = buckets[buckets.len() - 1];
        if !last_labels.contains("le=\"+Inf\"") {
            return Err(format!("histogram {h}: last bucket must be le=\"+Inf\""));
        }
        let count = samples.iter().find(|(n, _, _)| n == &format!("{h}_count"));
        let Some((_, _, count)) = count else {
            return Err(format!("histogram {h}: missing _count"));
        };
        if (inf_count - count).abs() > f64::EPSILON {
            return Err(format!("histogram {h}: +Inf bucket ({inf_count}) != _count ({count})"));
        }
        if !samples.iter().any(|(n, _, _)| n == &format!("{h}_sum")) {
            return Err(format!("histogram {h}: missing _sum"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_doc(metrics: &[(String, Metric)]) -> String {
        let mut w = Writer::object(Layout::Block);
        w.key("metrics");
        write_json(&mut w, metrics);
        w.finish()
    }

    // One test function: the registry is process-global state and `cargo
    // test` runs #[test] functions concurrently.
    #[test]
    fn registry_lifecycle() {
        reset();
        counter_add("t.files", 2);
        counter_add("t.files", 3);
        gauge_set("t.gauge", 7);
        gauge_max("t.gauge", 5); // lower: ignored
        gauge_max("t.gauge", 11);
        for v in [1, 8, 9, 100] {
            histogram_record("t.hist", v, &[8, 16]);
        }

        let snap: BTreeMap<String, Metric> = snapshot().into_iter().collect();
        assert_eq!(snap["t.files"], Metric::Counter(5));
        assert_eq!(snap["t.gauge"], Metric::Gauge(11));
        match &snap["t.hist"] {
            Metric::Histogram(h) => {
                assert_eq!(h.buckets, vec![2, 1, 1]);
                assert_eq!((h.count, h.sum), (4, 118));
            }
            other => panic!("wrong metric: {other:?}"),
        }

        let text = dump();
        assert!(text.contains("t.files") && text.contains("5"));
        let json = json_doc(&snapshot());
        assert!(json.contains("\"t.files\": 5"));
        assert!(json.contains("\"count\": 4"));
        crate::json::validate_object(&json).unwrap();

        let prom = render_prometheus();
        assert!(prom.contains("# TYPE t_files_total counter"));
        assert!(prom.contains("t_files_total 5"));
        assert!(prom.contains("# TYPE t_gauge gauge"));
        assert!(prom.contains("t_gauge 11"));
        assert!(prom.contains("t_hist_bucket{le=\"8\"} 2"));
        assert!(prom.contains("t_hist_bucket{le=\"16\"} 3"));
        assert!(prom.contains("t_hist_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("t_hist_sum 118"));
        assert!(prom.contains("t_hist_count 4"));
        assert_eq!(prometheus_name("9lives.x-y"), "_9lives_x_y");

        // The exposition output passes its own format lint, and the lint
        // actually catches the failure modes it claims to.
        lint_prometheus(&prom).expect("rendered exposition must lint clean");
        let broken = [
            // Buckets not cumulative.
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
            // Missing +Inf terminator.
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
            // +Inf bucket disagrees with _count.
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
            // Missing _sum.
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
            // Non-numeric value and illegal name.
            "ok_metric nope\n",
            "9bad_name 1\n",
        ];
        for text in broken {
            assert!(lint_prometheus(text).is_err(), "lint accepted: {text:?}");
        }

        // Pre-registration exposes an empty family; later records reuse
        // its bounds.
        histogram_register("t.pre", &[10, 20]);
        histogram_register("t.pre", &[999]); // second registration: no-op
        let snap: BTreeMap<String, Metric> = snapshot().into_iter().collect();
        match &snap["t.pre"] {
            Metric::Histogram(h) => {
                assert!(h.is_empty());
                assert_eq!(h.bounds, vec![10, 20]);
            }
            other => panic!("wrong metric: {other:?}"),
        }

        // Build info: appended to the exposition output only, with a
        // ticking uptime gauge — and still lint-clean.
        set_build_info("1.2.3-test");
        set_build_info("9.9.9-ignored"); // first call wins
        let prom = render_prometheus();
        assert!(prom.contains("rd_build_info{version=\"1.2.3-test\"} 1"), "{prom}");
        assert!(prom.contains("# TYPE process_uptime_seconds gauge"), "{prom}");
        lint_prometheus(&prom).expect("exposition with build info must lint clean");
        assert!(!json_doc(&snapshot()).contains("build_info"));
        assert!(!dump().contains("uptime"));

        // Batched merge: a local histogram folds in under one lock.
        let mut local = Histogram::new(&[8, 16]);
        for v in [2, 3, 50] {
            local.record(v);
        }
        histogram_merge("t.hist", &local);
        histogram_merge("t.hist", &Histogram::new(&[8, 16])); // empty: no-op
        let snap: BTreeMap<String, Metric> = snapshot().into_iter().collect();
        match &snap["t.hist"] {
            Metric::Histogram(h) => {
                assert_eq!(h.buckets, vec![4, 1, 2]);
                assert_eq!((h.count, h.sum), (7, 173));
            }
            other => panic!("wrong metric: {other:?}"),
        }

        // Quantiles: interpolated within buckets, overflow clamps to the
        // last finite bound, empty histograms report zero.
        let mut q = Histogram::new(&[100, 200, 400]);
        assert_eq!(q.quantile(0.5), 0);
        for v in [50, 50, 150, 150, 150, 150, 150, 150, 350, 9999] {
            q.record(v);
        }
        assert_eq!(q.quantile(0.0), 50);
        assert!(q.quantile(0.5) > 100 && q.quantile(0.5) <= 200);
        assert_eq!(q.quantile(0.9), 400); // 9th of 10 sits in (200, 400]
        assert_eq!(q.quantile(1.0), 400); // overflow clamps to last bound

        // Peak RSS: on Linux this must parse; elsewhere it may be None.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb().unwrap() > 0);
            record_peak_rss("stage");
            let snap: BTreeMap<String, Metric> = snapshot().into_iter().collect();
            assert!(matches!(snap["rss.peak_kb"], Metric::Gauge(v) if v > 0));
            assert!(snap.contains_key("rss.peak_kb.stage"));
        }

        reset();
        assert!(snapshot().is_empty());
        assert_eq!(json_doc(&snapshot()), "{\n  \"metrics\": {}\n}\n");
    }
}
