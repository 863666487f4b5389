//! Observability for the analysis pipeline: structured tracing, a metrics
//! registry, and first-class diagnostics — all in-tree, with no external
//! dependencies, matching the workspace's offline build policy.
//!
//! The paper's workflow (Section 8.1) is an operator interrogating
//! thousands of configuration files; at that scale, silently dropping a
//! line or a file corrupts every downstream abstraction. This crate is how
//! a run explains *what it saw and what it ignored*, not just how long it
//! took:
//!
//! - [`span`](mod@span): the one timing primitive. An RAII span (the [`span!`]
//!   macro) reads the clock at open and close and hands that one duration
//!   to every listening view: the folded profile, the trace, and the
//!   [`StageTimings`] record behind `--timings` and `BENCH_repro.json`.
//! - [`trace`]: point events and span boundaries with key–value fields,
//!   emitted as deterministic JSONL to the sink that `rdx`/`repro
//!   --trace <path|->` names. Events raised inside `rd_par::par_map`
//!   workers are buffered per work item and flushed in input order, so
//!   the event sequence is byte-identical at any `RD_THREADS` setting
//!   once timestamps are zeroed (`RD_TRACE_ZERO=1`).
//! - [`profile`]: the spans' collapsed-stack aggregation for flamegraph
//!   tooling, enabled by `rdx`/`repro --profile <path>` and
//!   byte-identical across thread counts under `RD_PROF_ZERO=1`.
//! - [`metrics`]: named counters, gauges, and fixed-bucket histograms
//!   (e.g. `parse.lines`, `parse.unrecognized_lines`, `instances.count`,
//!   and a `rss.peak_kb` gauge read from `/proc/self/status` on Linux).
//!   Dumped by `rdx --metrics` and folded into `BENCH_repro.json`.
//! - [`diag`]: per-file/per-line diagnostics (unknown stanza, dangling
//!   policy reference, ambiguous structure) with severity, carried through
//!   `ioscfg` → `nettopo` → `routing-model` instead of being dropped, and
//!   surfaced by `rdx <dir> diag`.
//! - [`json`]: [`json::Writer`], the one JSON writer behind every JSON
//!   output, plus the recognizer behind the `trace_check` self-check
//!   binary that `scripts/verify.sh` runs over emitted trace files.
//! - [`cli`]: the one command-line parser every binary shares, with
//!   flag tables, `--flag value`/`--flag=value` values typed through
//!   `FromStr`, and one [`CliError`](cli::CliError) that exits 2.
//!
//! [`Outputs`] is the trace-sink and profile setup and teardown every
//! binary shares; [`OBS_FLAGS`] is the flag slice that asks for it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod diag;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod trace;

pub use diag::{Diagnostic, Diagnostics, Severity};
pub use span::{Span, StageTimings};
pub use trace::{Event, Value};

/// Opens a [`Span`] named by a string literal or `format!`-style
/// arguments: `span!("parse")`, `span!("render:{}", path)`. A lone literal
/// is passed through verbatim (no allocation, no `{}` interpolation); the
/// multi-argument form formats its name only when the span is armed.
/// Bind the guard (`let _span = ...`) so the span covers the intended
/// scope. Costs only atomic loads when nothing listens.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::span($name)
    };
    ($($arg:tt)*) => {
        $crate::span::span_with(|| format!($($arg)*))
    };
}

/// `--timings`, `--metrics`, `--trace <path>` and `--profile <path>`: the
/// observability flags of every analysis command line (`rdx <dir> ...`
/// and `repro`).
pub const OBS_FLAGS: &[cli::Flag] = &[
    cli::Flag::switch("--timings"),
    cli::Flag::switch("--metrics"),
    cli::Flag::value("--trace", "<path>"),
    cli::Flag::value("--profile", "<path>"),
];

/// What the [`OBS_FLAGS`] of one command line asked for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Observe {
    /// `--timings`: per-stage wall-clock times on stderr.
    pub timings: bool,
    /// `--metrics`: the metrics registry dumped on stderr.
    pub metrics: bool,
    /// `--trace`: the trace sink, `-` for stderr.
    pub trace: Option<String>,
    /// `--profile`: where the folded profile is written.
    pub profile: Option<String>,
}

impl Observe {
    /// Reads the [`OBS_FLAGS`] of a command line parsed with them.
    pub fn from_args(args: &cli::Args) -> Observe {
        Observe {
            timings: args.switch("--timings"),
            metrics: args.switch("--metrics"),
            trace: args.value("--trace").map(str::to_string),
            profile: args.value("--profile").map(str::to_string),
        }
    }

    /// Sets up the trace sink and profile these flags name, for `tool`.
    pub fn outputs(&self, tool: &'static str) -> std::io::Result<Outputs> {
        Outputs::new(tool, self.profile.clone()).trace(self.trace.as_deref())
    }
}

/// The observability outputs one command line asked for — a trace sink
/// and a folded-profile path — set up and torn down the same way by every
/// binary. `tool` prefixes the error messages (`rdx: ...`).
pub struct Outputs {
    tool: &'static str,
    profile: Option<String>,
}

impl Outputs {
    /// Enables profiling when `profile` names an output file.
    pub fn new(tool: &'static str, profile: Option<String>) -> Outputs {
        if profile.is_some() {
            profile::enable();
        }
        Outputs { tool, profile }
    }

    /// Installs the trace sink `trace` names: `-` or `stderr`, else a file
    /// path; without one, none. The error is a sink that cannot be
    /// opened; the caller reports it and picks the exit code.
    pub fn trace(self, trace: Option<&str>) -> std::io::Result<Outputs> {
        match trace {
            Some("-" | "stderr") => trace::set_stderr_sink(),
            Some(path) => trace::set_file_sink(path)?,
            None => {}
        }
        Ok(self)
    }

    /// Flushes the trace sink and writes the folded profile, saying where.
    pub fn finish(&self) {
        trace::flush();
        let Some(path) = &self.profile else {
            return;
        };
        match profile::write_folded(path) {
            Ok(()) => eprintln!("profile: collapsed stacks written to {path}"),
            Err(e) => eprintln!("{}: cannot write profile {path}: {e}", self.tool),
        }
    }
}

/// Serializes this crate's tests that touch the process-global trace sink
/// or profiling flag.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
