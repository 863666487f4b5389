//! `perfbench`: the repository benchmark.
//!
//! Three seeded workloads drive the toolchain through its public API:
//!
//! - `cold_study` — batch analysis of the full-scale tree to a snapshot
//!   file (parse, topology, routing model, encode, persist; no delta
//!   cache, no server);
//! - `edit_to_fresh` — the write side of `rdx watch` on the small tree:
//!   single-router edits until the server answers with the new ETag;
//! - `serve_mixed` — the read side: pipelined keep-alive GETs against
//!   a server booted from the small tree's snapshot.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_study --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of stdout is the result: `correct`, `attempted`,
//! `failed`, and every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`) with its unit; the line before it
//! records the environment. Per-layer figures come from timing calls
//! into each layer's public functions from here, never from inside the
//! program. Files live under `.bench_work/<workload>/` in the current
//! directory, kept between runs so that set-ups overwrite them in place
//! (see `inputs::build_tree`); runs of one workload must not overlap.

mod cold;
mod fresh;
mod http;
mod inputs;
mod report;
mod serve;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use inputs::Scale;
use report::Report;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cold-path repetitions in the traced runs of the small workloads.
const TRACE_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ColdStudy,
    EditToFresh,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdStudy,
        Workload::EditToFresh,
        Workload::ServeMixed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdStudy => "cold_study",
            Workload::EditToFresh => "edit_to_fresh",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Full scale where the run budget allows it: a full-scale server
    /// boot renders `/pathways` for ~15 s, so the two server workloads
    /// use the small study.
    fn scale(self) -> Scale {
        match self {
            Workload::ColdStudy => Scale::Full,
            Workload::EditToFresh | Workload::ServeMixed => Scale::Small,
        }
    }

    fn run(self, work: &Path, opts: &Options) -> Result<Report, String> {
        match self {
            Workload::ColdStudy => cold::run(work, opts),
            Workload::EditToFresh => fresh::run(work, opts),
            Workload::ServeMixed => serve::run(work, opts),
        }
    }
}

/// What one run measures.
pub struct Options {
    seed: u64,
    seconds: Duration,
    trace: bool,
    scale: Scale,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s >= 1)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.unwrap_or(false),
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins `RD_THREADS` to a value no larger than the machine's cores
/// (an explicit smaller setting is kept) and returns it.
fn pin_threads() -> usize {
    let threads = std::env::var(rd_par::THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|t| (1..=nproc()).contains(t))
        .unwrap_or_else(nproc);
    std::env::set_var(rd_par::THREADS_ENV, threads.to_string());
    threads
}

/// Server event loops for the serving workloads: half the cores.
fn server_loops() -> usize {
    (nproc() / 2).max(1)
}

/// Load-generator connections: the cores the server's loops leave.
fn client_conns() -> usize {
    nproc().saturating_sub(server_loops()).max(1)
}

/// The workload's directory under `.bench_work/`.
fn work_dir(workload: Workload) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_work").join(workload.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        // Report this checkout's revision, never that of a repository above it.
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn env_line(args: &Args, threads: usize) -> String {
    use rd_obs::json::escape;
    format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"scale\": \"{}\", \"nproc\": {}, \"rd_threads\": {threads}, \"server_loops\": {}, \
         \"client_conns\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.scale().name(),
        nproc(),
        server_loops(),
        client_conns(),
        escape(&command_line("git", &["rev-parse", "HEAD"])),
        escape(&command_line("rustc", &["--version"])),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_study|edit_to_fresh|serve_mixed> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let threads = pin_threads();
    let opts = Options {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        scale: args.workload.scale(),
    };
    let result = work_dir(args.workload).and_then(|work| args.workload.run(&work, &opts));
    match result {
        Ok(report) => {
            println!("{}", env_line(&args, threads));
            println!("{}", report.to_json(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_strictly() {
        let a = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeMixed, 4, 10, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "cold_study", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "cold_study",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "cold_study",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--x",
            "1"
        ])
        .is_err());
    }

    /// Every workload, traced and untraced, on the tiny study: all checks
    /// pass and every metric of the run's kind is measured.
    #[test]
    fn tiny_smoke_run_covers_all_workloads() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let dir = std::env::temp_dir().join(format!(
                    "perfbench-smoke-{}-{trace}-{}",
                    workload.name(),
                    std::process::id()
                ));
                std::fs::create_dir_all(&dir).expect("work dir");
                let opts = Options {
                    seed: 11,
                    seconds: Duration::from_millis(400),
                    trace,
                    scale: Scale::Tiny,
                };
                let report = workload.run(&dir, &opts).expect("run");
                let _ = std::fs::remove_dir_all(&dir);
                let line = report.to_json(trace);
                assert!(
                    line.starts_with("{\"correct\": true"),
                    "{} trace={trace}: {line}",
                    workload.name()
                );
                assert_eq!(report.failed, 0);
                let names = if trace {
                    report::PER_LAYER
                } else {
                    report::END_TO_END
                };
                for metric in names {
                    assert!(line.contains(&format!("\"{}\": {{\"value\": ", metric.name)));
                }
                if trace {
                    let own = match workload {
                        Workload::ColdStudy => "cold.unattributed_ms",
                        Workload::EditToFresh => "core.refresh_ms",
                        Workload::ServeMixed => "rd_serve.p50_us.healthz",
                    };
                    assert!(
                        report.get(own).is_some(),
                        "{} measured no {own}",
                        workload.name()
                    );
                }
            }
        }
    }
}
