//! The one timing primitive: an RAII span on a thread-local stack.
//!
//! [`span`] (or the `span!` macro) reads the clock when it opens and
//! again when its guard drops, and hands that one duration to every view
//! that is listening:
//!
//! - the folded profile table ([`crate::profile`]), when profiling is on,
//!   as self time (the span's duration minus its children's);
//! - a `span_open`/`span_close` pair on the trace stream
//!   ([`crate::trace`]), when a sink is installed, whose `dur_us` is that
//!   same duration;
//! - the [`StageTimings`] of the innermost [`stages`] call, when the span
//!   is that call's direct child (or of an [`all_stages`] call, at any
//!   depth). This is what fills `NetworkAnalysis::timings`,
//!   `Plan::timings`, the refresh phases and the bench's cache-build
//!   record, so a folded profile's root stacks, the trace's span names
//!   and the `--timings` table are one vocabulary and cannot disagree.
//!
//! A span nobody listens to is unarmed: it costs a few relaxed atomic
//! loads, reads no clock, and (through the `span!` macro) never builds its
//! name.
//!
//! Cross-thread stacks: `rd_par` captures the caller's [`Context`] before a
//! fan-out and runs each work item under [`Context::run`], so a span opened
//! on a worker folds under the same stack, lands in the same stage record,
//! and traces in the same order as in the sequential path. The returned
//! [`Item`] is replayed on the caller in input order: its trace events
//! flush, its child time is credited to the caller's open span (keeping
//! that span's self time exclusive), and its stages join the caller's
//! record.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::trace::{self, Event, EventKind};

/// A span or stage name: static for the fixed names (no allocation),
/// owned for dynamic ones like `render:/networks`.
pub type StageName = Cow<'static, str>;

/// Named wall-clock durations for the stages of one run, in the order
/// the stage spans closed.
#[derive(Clone, Debug, Default)]
pub struct StageTimings {
    /// `(stage name, wall-clock duration)`, in the order recorded.
    pub stages: Vec<(StageName, Duration)>,
}

impl StageTimings {
    /// An empty record.
    pub fn new() -> StageTimings {
        StageTimings::default()
    }

    /// Appends a stage.
    pub fn push(&mut self, name: impl Into<StageName>, duration: Duration) {
        self.stages.push((name.into(), duration));
    }

    /// The duration of one named stage, if recorded.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }

    /// Sum of all recorded stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }

    /// Accumulates another record stage-by-stage (summing durations of
    /// equally named stages; new names are appended in their order).
    pub fn merge(&mut self, other: &StageTimings) {
        for (name, duration) in &other.stages {
            match self.stages.iter_mut().find(|(n, _)| n == name) {
                Some((_, d)) => *d += *duration,
                None => self.stages.push((name.clone(), *duration)),
            }
        }
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        let width = self.stages.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(14);
        writeln!(f, "{:<width$} {:>12} {:>7}", "stage", "wall", "share")?;
        for (name, duration) in &self.stages {
            let share = if total.is_zero() {
                0.0
            } else {
                duration.as_secs_f64() / total.as_secs_f64() * 100.0
            };
            writeln!(
                f,
                "{:<width$} {:>9.3} ms {:>6.1}%",
                name,
                duration.as_secs_f64() * 1e3,
                share
            )?;
        }
        writeln!(f, "{:<width$} {:>9.3} ms", "total", total.as_secs_f64() * 1e3)
    }
}

/// Stage records open on any thread. While it is zero an unarmed span
/// needs nothing but atomic loads to know it is unarmed. `Relaxed`
/// suffices: a span can only be a stage of a record its own thread
/// pushed, and a thread always sees its own increments.
static RECORDING: AtomicUsize = AtomicUsize::new(0);

struct Frame {
    name: StageName,
    start: Instant,
    /// Summed durations of the closed direct children, in microseconds.
    child_us: u64,
    /// Profiling was on at open: fold a sample at close.
    fold: bool,
    /// A `span_open` went out: send the matching `span_close`.
    trace: bool,
}

/// Which closing spans a stage record collects.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Collect {
    /// Its direct children ([`stages`]).
    Children,
    /// Every span under it ([`all_stages`]).
    All,
}

/// A [`stages`] or [`all_stages`] call: collects the spans that close at
/// `depth` (or below it, for [`Collect::All`]).
struct Record {
    depth: usize,
    collect: Collect,
    stages: StageTimings,
}

struct Stack {
    frames: Vec<Frame>,
    records: Vec<Record>,
}

impl Stack {
    /// How the innermost stage record would collect a span opened now,
    /// if it collects it at all.
    fn record_collect(&self) -> Option<Collect> {
        let r = self.records.last()?;
        let here = self.frames.len();
        (here == r.depth || (r.collect == Collect::All && here > r.depth)).then_some(r.collect)
    }

    /// True when the innermost stage record collects a span opened now.
    fn at_record(&self) -> bool {
        self.record_collect().is_some()
    }

    fn path(&self) -> String {
        let names: Vec<&str> = self.frames.iter().map(|f| f.name.as_ref()).collect();
        names.join(";")
    }
}

thread_local! {
    static STACK: RefCell<Stack> =
        const { RefCell::new(Stack { frames: Vec::new(), records: Vec::new() }) };
}

/// Opens a span named `name` under this thread's innermost open span.
/// Prefer the `span!` macro, which also takes format arguments.
pub fn span(name: &'static str) -> Span {
    open(|| Cow::Borrowed(name), false)
}

/// [`span`] with a name built only when the span is armed: the `span!`
/// macro's format-argument form.
pub fn span_with(name: impl FnOnce() -> String) -> Span {
    open(|| Cow::Owned(name()), false)
}

/// A span armed whether or not anything listens, for a caller that reads
/// its duration back through [`Span::close`].
pub fn timed(name: &'static str) -> Span {
    open(|| Cow::Borrowed(name), true)
}

fn open(name: impl FnOnce() -> StageName, always: bool) -> Span {
    let fold = crate::profile::enabled();
    let traced = trace::enabled();
    if !(always || fold || traced || RECORDING.load(Ordering::Relaxed) > 0) {
        return Span { armed: false };
    }
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if !(always || fold || traced || stack.at_record()) {
            return Span { armed: false };
        }
        let name = name();
        let start = Instant::now();
        if traced {
            trace::emit(span_event(EventKind::SpanOpen, &name, start, None));
        }
        stack.frames.push(Frame { name, start, child_us: 0, fold, trace: traced });
        Span { armed: true }
    })
}

fn span_event(kind: EventKind, name: &str, at: Instant, dur: Option<Duration>) -> Event {
    Event {
        kind,
        name: name.to_string(),
        ts_us: trace::ts_us(at),
        dur_us: dur.map(|d| d.as_micros() as u64),
        fields: Vec::new(),
    }
}

/// An open span; dropping it (or [`close`](Span::close)) closes it.
#[must_use = "a span closes when dropped; bind it with `let _span = ...`"]
pub struct Span {
    armed: bool,
}

impl Span {
    /// Closes the span now and returns its duration: the one value every
    /// listening view received. Zero for an unarmed span.
    pub fn close(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        if !std::mem::take(&mut self.armed) {
            return Duration::ZERO;
        }
        let end = Instant::now();
        let closed = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.frames.pop()?;
            let dur = end.saturating_duration_since(frame.start);
            let dur_us = dur.as_micros() as u64;
            let path = frame.fold.then(|| match stack.frames.is_empty() {
                true => frame.name.to_string(),
                false => format!("{};{}", stack.path(), frame.name),
            });
            if let Some(parent) = stack.frames.last_mut() {
                parent.child_us += dur_us;
            }
            if stack.at_record() {
                let record = stack.records.last_mut().expect("at_record found one");
                record.stages.push(frame.name.clone(), dur);
            }
            Some((frame, dur, path))
        });
        let Some((frame, dur, path)) = closed else {
            return Duration::ZERO;
        };
        if let Some(path) = path {
            let dur_us = dur.as_micros() as u64;
            crate::profile::fold(path, dur_us.saturating_sub(frame.child_us));
        }
        if frame.trace {
            trace::emit(span_event(EventKind::SpanClose, &frame.name, end, Some(dur)));
        }
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Runs `f` and returns its value with its stage record: the name and
/// duration of every span that closed as a direct child of this call, in
/// close order. Such spans are armed even when nothing else listens.
pub fn stages<R>(f: impl FnOnce() -> R) -> (R, StageTimings) {
    let guard = RecordGuard::push(None, Some(Collect::Children));
    let value = f();
    (value, guard.take())
}

/// [`stages`] over every span that closes inside `f`, at any depth, in
/// close order: a parent follows its children.
pub fn all_stages<R>(f: impl FnOnce() -> R) -> (R, StageTimings) {
    let guard = RecordGuard::push(None, Some(Collect::All));
    let value = f();
    (value, guard.take())
}

/// Pops a pushed stage record (and an optional frame under it) even if
/// the work unwinds.
struct RecordGuard {
    /// Whether this guard pushed a record (a replay may push none).
    record: bool,
    /// A context prefix frame pushed under the record, if any.
    frame: bool,
}

impl RecordGuard {
    /// Pushes `prefix` as a frame when given, then a stage record when
    /// `record` says how it collects.
    fn push(prefix: Option<&str>, record: Option<Collect>) -> RecordGuard {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(prefix) = prefix {
                stack.frames.push(Frame {
                    name: Cow::Owned(prefix.to_string()),
                    start: Instant::now(),
                    child_us: 0,
                    fold: false,
                    trace: false,
                });
            }
            if let Some(collect) = record {
                let depth = stack.frames.len();
                stack.records.push(Record { depth, collect, stages: StageTimings::new() });
            }
        });
        if record.is_some() {
            RECORDING.fetch_add(1, Ordering::Relaxed);
        }
        RecordGuard { record: record.is_some(), frame: prefix.is_some() }
    }

    /// The record's stages so far (empty when none was pushed).
    fn take(&self) -> StageTimings {
        if !self.record {
            return StageTimings::new();
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            std::mem::take(&mut stack.records.last_mut().expect("record pushed").stages)
        })
    }

    /// The prefix frame's child time so far (0 when none was pushed).
    fn child_us(&self) -> u64 {
        if !self.frame {
            return 0;
        }
        STACK.with(|s| s.borrow().frames.last().map_or(0, |f| f.child_us))
    }
}

impl Drop for RecordGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if self.record {
                stack.records.pop();
            }
            if self.frame {
                stack.frames.pop();
            }
        });
        if self.record {
            RECORDING.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A thread's span context, captured before a fan-out: the open stack
/// (while profiling) and how a stage record would collect spans opened
/// here.
pub struct Context {
    prefix: Option<String>,
    stage: Option<Collect>,
}

/// Captures the calling thread's [`Context`].
pub fn context() -> Context {
    STACK.with(|s| {
        let stack = s.borrow();
        let profiling = crate::profile::enabled();
        let prefix = (profiling && !stack.frames.is_empty()).then(|| stack.path());
        Context { prefix, stage: stack.record_collect() }
    })
}

impl Context {
    /// Runs one work item under this context on the current thread: the
    /// captured stack is its root, its stage spans are recorded, and its
    /// trace events are buffered ([`trace::scoped`]). Replay the returned
    /// [`Item`] on the capturing thread, in input order.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> (R, Item) {
        let guard = RecordGuard::push(self.prefix.as_deref(), self.stage);
        let (value, events) = trace::scoped(f);
        let item = Item { events, child_us: guard.child_us(), stages: guard.take() };
        (value, item)
    }
}

/// What one work item left for the capturing thread: see [`Item::replay`].
pub struct Item {
    events: Vec<Event>,
    child_us: u64,
    stages: StageTimings,
}

impl Item {
    /// On the capturing thread, in input order: flushes the item's trace
    /// events, credits its direct-child span time to the innermost open
    /// span, and appends its stages to the innermost stage record.
    pub fn replay(self) {
        trace::emit_events(self.events);
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(top) = stack.frames.last_mut() {
                top.child_us += self.child_us;
            }
            if stack.at_record() {
                let record = stack.records.last_mut().expect("at_record found one");
                record.stages.stages.extend(self.stages.stages);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_equal_stages_and_appends_new_ones() {
        let mut a = StageTimings::new();
        a.push("parse", Duration::from_millis(5));
        a.push("links", Duration::from_millis(2));
        let mut b = StageTimings::new();
        b.push("parse", Duration::from_millis(1));
        b.push(format!("analyze:net{}", 15), Duration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.get("parse"), Some(Duration::from_millis(6)));
        assert_eq!(a.get("analyze:net15"), Some(Duration::from_millis(3)));
        assert_eq!(a.stages.len(), 3);
        assert_eq!(a.total(), Duration::from_millis(11));
    }

    /// `all_stages` records every span under it in close order, a worker's
    /// nested spans included; `stages` keeps only direct children.
    #[test]
    fn all_stages_records_every_depth() {
        let _global = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let build = || {
            let _outer = span("build");
            drop(crate::span!("render:{}", "/a"));
            let ctx = context();
            std::thread::scope(|s| {
                s.spawn(|| ctx.run(|| drop(span("render:/b")))).join().expect("worker")
            })
            .1
            .replay();
        };
        let ((), all) = all_stages(build);
        let names: Vec<&str> = all.stages.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, ["render:/a", "render:/b", "build"]);
        assert!(all.get("render:/a").unwrap() <= all.get("build").unwrap());
        let ((), direct) = stages(build);
        let names: Vec<&str> = direct.stages.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, ["build"]);
    }

    #[test]
    fn display_renders_every_stage() {
        let mut t = StageTimings::new();
        t.push("parse", Duration::from_millis(10));
        t.push("analyze:net15-long-label", Duration::from_millis(30));
        let text = t.to_string();
        assert!(text.contains("parse"));
        assert!(text.contains("analyze:net15-long-label"));
        assert!(text.contains("total"));
    }
}
