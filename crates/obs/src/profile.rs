//! The folded-profile view of [`crate::span`](mod@crate::span): while profiling is on,
//! every closing span folds one sample into a process-global table keyed
//! by its `;`-joined stack path, rendered as collapsed-stack ("folded")
//! lines consumable by standard flamegraph tooling
//! (`stack;substack self_microseconds` per line).
//!
//! A sample's **self time** is the span's duration minus the durations of
//! its direct children, including the child time that ran on `rd_par`
//! workers and was credited back after the join (parallel child time can
//! exceed the parent's wall clock; the subtraction saturates).
//!
//! Determinism: the table is a `BTreeMap`, so [`render_folded`] is sorted
//! by stack path, and every opened stack records its key even at zero
//! self time. With `RD_PROF_ZERO=1` the rendered counts are zeroed,
//! making profiles byte-identical at any `RD_THREADS` — the same
//! convention as `RD_TRACE_ZERO` for trace timestamps.
//!
//! Profiling is off by default. `rdx --profile <path>` /
//! `repro --profile <path>` enable it and write the folded table on exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Environment variable: when `1`/`true`, [`render_folded`] via
/// [`zero_from_env`] reports every count as 0, making folded profiles
/// byte-comparable across thread counts and machines.
pub const PROF_ZERO_ENV: &str = "RD_PROF_ZERO";

/// Aggregated samples for one distinct call stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackStat {
    /// How many spans closed with exactly this stack.
    pub calls: u64,
    /// Accumulated self time in microseconds (span duration minus the
    /// durations of child spans, saturating at zero for parallel
    /// children).
    pub self_us: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TABLE: Mutex<BTreeMap<String, StackStat>> = Mutex::new(BTreeMap::new());

/// True when span recording is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on (idempotent). Enable **before** the work you
/// want profiled: spans opened while disabled do not fold.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off. Spans opened while it was on still fold
/// their samples when they close.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears the aggregated stack table (tests, repeated harness runs).
pub fn reset() {
    TABLE.lock().expect("profile table poisoned").clear();
}

/// True when `RD_PROF_ZERO` asks for zeroed counts.
pub fn zero_from_env() -> bool {
    std::env::var(PROF_ZERO_ENV).is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Folds one closed span's sample into the table.
pub(crate) fn fold(path: String, self_us: u64) {
    let mut table = TABLE.lock().expect("profile table poisoned");
    let stat = table.entry(path).or_default();
    stat.calls += 1;
    stat.self_us += self_us;
}

/// Renders the table in collapsed-stack format — one
/// `stack;substack self_us` line per distinct stack, sorted by path.
/// With `zero` the counts render as 0: the line set (which stacks ran)
/// is thread-count-invariant, so zeroed output is byte-comparable.
pub fn render_folded(zero: bool) -> String {
    let table = TABLE.lock().expect("profile table poisoned");
    let mut out = String::new();
    for (path, stat) in table.iter() {
        let count = if zero { 0 } else { stat.self_us };
        let _ = writeln!(out, "{path} {count}");
    }
    out
}

/// Writes [`render_folded`] to `path`, honoring `RD_PROF_ZERO`.
pub fn write_folded(path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_folded(zero_from_env()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{context, span, stages};
    use std::time::Duration;

    fn us(d: Duration) -> u64 {
        d.as_micros() as u64
    }

    fn table() -> BTreeMap<String, StackStat> {
        TABLE.lock().expect("profile table poisoned").clone()
    }

    /// The `dur_us` of the one `span_close` named `name` among `lines`.
    fn closed_us(lines: &[String], name: &str) -> u64 {
        let needle = format!("\"ev\":\"span_close\",\"name\":\"{name}\",");
        let found: Vec<&String> = lines.iter().filter(|l| l.contains(&needle)).collect();
        assert_eq!(found.len(), 1, "one span_close for {name}: {lines:?}");
        let rest = &found[0][found[0].find("\"dur_us\":").expect("dur_us") + 9..];
        rest[..rest.find(',').expect("field end")].parse().expect("numeric dur_us")
    }

    // Every number below is a duration a span reported itself, so the
    // checks are exact arithmetic: no sleeps, no wall-clock bounds.
    #[test]
    fn span_lifecycle_and_folded_output() {
        let _global = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        // Nothing listening: the span is unarmed, reads no clock, and the
        // format form never builds its name.
        reset();
        assert_eq!(span("cold").close(), Duration::ZERO);
        let mut built = false;
        drop(crate::span!("lazy:{}", {
            built = true;
            1
        }));
        assert!(!built, "an unarmed span must not format its name");
        assert!(render_folded(false).is_empty());

        enable();
        crate::trace::install_memory_sink(false);

        // Nesting: the child folds under the parent's path, and the
        // parent's self time is its duration minus the child's, exactly.
        let root = span("root");
        let child = span("child");
        let child_d = child.close();
        let root_d = root.close();
        let t = table();
        assert_eq!(t.len(), 2, "{t:?}");
        assert_eq!(t["root;child"], StackStat { calls: 1, self_us: us(child_d) });
        assert_eq!(t["root"], StackStat { calls: 1, self_us: us(root_d) - us(child_d) });
        // The trace carries the same durations.
        let lines = crate::trace::take_memory();
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(lines[0].contains("\"span_open\"") && lines[0].contains("\"root\""));
        assert_eq!(closed_us(&lines, "child"), us(child_d));
        assert_eq!(closed_us(&lines, "root"), us(root_d));

        // Cross-thread replay: a worker running under the captured
        // context folds under the caller's stack, its events flush on
        // replay, and its child time is subtracted from the caller's self
        // time exactly.
        reset();
        let outer = span("outer");
        let ctx = context();
        let (inner_d, item) = std::thread::scope(|s| {
            s.spawn(|| ctx.run(|| span("inner").close())).join().expect("worker")
        });
        let before_replay = crate::trace::take_memory();
        assert!(!before_replay.iter().any(|l| l.contains("\"inner\"")), "worker events wait for replay");
        item.replay();
        let outer_d = outer.close();
        let t = table();
        assert_eq!(t["outer;inner"], StackStat { calls: 1, self_us: us(inner_d) });
        assert_eq!(t["outer"], StackStat { calls: 1, self_us: us(outer_d) - us(inner_d) });
        let lines = crate::trace::take_memory();
        assert_eq!(closed_us(&lines, "inner"), us(inner_d));
        assert_eq!(closed_us(&lines, "outer"), us(outer_d));

        // Stage records: direct children of a `stages` call, each with
        // the duration the span reported (and the trace carried); deeper
        // spans and nested records stay out. A worker's stage joins the
        // caller's record on replay, in input order.
        reset();
        let (durations, record) = stages(|| {
            let a = span("a");
            drop(span("a.deeper"));
            let a_d = a.close();
            let ((), nested) = stages(|| drop(crate::span!("b:{}", 1)));
            assert_eq!(nested.stages.len(), 1);
            assert_eq!(nested.stages[0].0, "b:1");
            let ctx = context();
            let (w_d, item) = std::thread::scope(|s| {
                s.spawn(|| ctx.run(|| span("w").close())).join().expect("worker")
            });
            item.replay();
            (a_d, w_d)
        });
        let names: Vec<&str> = record.stages.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, ["a", "w"]);
        assert_eq!(record.get("a"), Some(durations.0));
        assert_eq!(record.get("w"), Some(durations.1));
        let lines = crate::trace::take_memory();
        assert_eq!(closed_us(&lines, "a"), us(durations.0));
        assert_eq!(closed_us(&lines, "w"), us(durations.1));
        // Stages fold as roots: the record is no frame of its own.
        let t = table();
        assert!(t.contains_key("a") && t.contains_key("a;a.deeper") && t.contains_key("w"));

        // Folded output is sorted and zeroing blanks only the counts.
        let folded = render_folded(false);
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "folded output must be path-sorted");
        let zeroed = render_folded(true);
        assert!(zeroed.lines().all(|l| l.ends_with(" 0")), "{zeroed}");
        assert_eq!(zeroed.lines().count(), lines.len(), "zeroing must keep the line set");

        crate::trace::clear_sink();
        disable();
        reset();
        assert!(render_folded(false).is_empty());
    }
}
