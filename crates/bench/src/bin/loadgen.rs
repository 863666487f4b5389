//! Standalone load generator for a live `rdx serve` instance.
//!
//! ```sh
//! cargo run --release -p rd-bench --bin loadgen -- 127.0.0.1:8080 \
//!     --conns 4 --pipeline 64 --duration-ms 3000 --json
//! ```
//!
//! Drives mixed-endpoint keep-alive traffic (every static endpoint plus
//! both per-network routes, discovered from `/networks` unless `--paths`
//! overrides them) and prints throughput and exact p50/p99/p999
//! latencies — aggregate and per endpoint, so a slow path cannot hide
//! behind a fast mix. `--json` emits the same data as one machine-
//! readable JSON object with an `endpoints` array. Exits 1 when any
//! response failed or came back non-200, so verify.sh can use it as a
//! pass/fail burst probe.

use std::io::{Read, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::time::Duration;

use rd_bench::loadgen::{self, LoadOptions};
use rd_obs::cli::{self, CliError, Flag, Table};
use rd_obs::json::{Layout, Writer};

static TABLE: Table = Table {
    name: "loadgen",
    operands: "<addr>",
    flags: &[&[
        Flag::value("--conns", "N"),
        Flag::value("--pipeline", "N"),
        Flag::value("--duration", "<secs>"),
        Flag::value("--duration-ms", "N"),
        Flag::value("--batches", "N"),
        Flag::value("--paths", "/a,/b,..."),
        Flag::value("--connect-retries", "N"),
        Flag::switch("--json"),
    ]],
};

/// How the two run modes relate, printed under the `--help` usage line.
const MODES: &str = "time-bounded by default (--duration/--duration-ms); --batches N switches to \
                     batch-count mode (each connection issues exactly N pipelined batches)";

/// One loadgen command line.
#[derive(Debug, PartialEq)]
struct Run {
    addr: SocketAddr,
    opts: LoadOptions,
    json: bool,
}

fn parse_args<S: AsRef<str>>(argv: &[S]) -> Result<Run, CliError> {
    let args = TABLE.parse(argv)?;
    args.at_most(1)?;
    let text = args.operand(0, "<addr>")?;
    let addr = text.to_socket_addrs().ok().and_then(|mut a| a.next());
    let addr = addr.ok_or_else(|| CliError::bad_value("<addr>", text, "cannot resolve"))?;
    let positive = |name| -> Result<Option<u64>, CliError> {
        Ok(args.get::<NonZeroU64>(name)?.map(NonZeroU64::get))
    };
    let defaults = LoadOptions::default();
    let (secs, ms) = (positive("--duration")?, positive("--duration-ms")?);
    let duration = match args.last_of(&["--duration", "--duration-ms"]) {
        Some("--duration") => secs.map(Duration::from_secs),
        _ => ms.map(Duration::from_millis),
    };
    Ok(Run {
        addr,
        opts: LoadOptions {
            conns: args.get("--conns")?.map_or(defaults.conns, NonZeroUsize::get),
            pipeline: args.get("--pipeline")?.map_or(defaults.pipeline, NonZeroUsize::get),
            duration: duration.unwrap_or(defaults.duration),
            max_batches: positive("--batches")?,
            paths: match args.value("--paths") {
                Some(list) => list.split(',').map(str::to_string).collect(),
                None => defaults.paths,
            },
            connect_retries: args.get("--connect-retries")?.unwrap_or(defaults.connect_retries),
        },
        json: args.switch("--json"),
    })
}

/// One `connection: close` GET used for path discovery.
fn fetch(addr: SocketAddr, path: &str, retries: u32) -> Result<String, String> {
    let mut stream = loadgen::connect_with_retries(addr, retries)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut out = String::new();
    stream.read_to_string(&mut out).map_err(|e| format!("read: {e}"))?;
    let (head, body) = out.split_once("\r\n\r\n").ok_or("malformed response")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("")));
    }
    Ok(body.to_string())
}

/// Network names scraped from the `/networks` index body.
fn discover_networks(addr: SocketAddr, retries: u32) -> Result<Vec<String>, String> {
    let body = fetch(addr, "/networks", retries)?;
    let mut names = Vec::new();
    let mut rest = body.as_str();
    while let Some(i) = rest.find("\"name\": \"") {
        rest = &rest[i + 9..];
        let Some(end) = rest.find('"') else { break };
        names.push(rest[..end].to_string());
        rest = &rest[end..];
    }
    Ok(names)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if cli::requested(&argv, &[cli::HELP]).is_some() {
        println!("{}\n{MODES}", TABLE.usage());
        return ExitCode::SUCCESS;
    }
    let Run { addr, mut opts, json } = match parse_args(&argv) {
        Ok(run) => run,
        Err(e) => return e.report(&TABLE),
    };

    if opts.paths.is_empty() {
        match discover_networks(addr, opts.connect_retries) {
            Ok(names) => opts.paths = loadgen::mixed_paths(&names),
            Err(e) => {
                eprintln!("loadgen: path discovery failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let stats = match loadgen::run(addr, &opts) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        let mut w = Writer::object(Layout::Block);
        w.key("conns").num(opts.conns);
        w.key("pipeline").num(opts.pipeline);
        w.key("duration_ms").num(format_args!("{:.3}", stats.duration.as_secs_f64() * 1e3));
        w.key("requests").num(stats.requests);
        w.key("errors").num(stats.errors);
        w.key("throughput_rps").num(format_args!("{:.0}", stats.throughput_rps));
        w.key("p50_us").num(stats.p50_us);
        w.key("p99_us").num(stats.p99_us);
        w.key("p999_us").num(stats.p999_us);
        w.key("body_bytes").num(stats.body_bytes);
        w.key("endpoints").arr(Layout::Block, |w| {
            for e in &stats.endpoints {
                w.obj(Layout::Inline, |w| {
                    w.key("path").str(&e.path);
                    w.key("requests").num(e.requests);
                    w.key("p50_us").num(e.p50_us);
                    w.key("p99_us").num(e.p99_us);
                    w.key("p999_us").num(e.p999_us);
                });
            }
        });
        print!("{}", w.finish());
    } else {
        println!(
            "loadgen: {} conns x {} pipelined against {addr}, {:.0} ms",
            opts.conns,
            opts.pipeline,
            stats.duration.as_secs_f64() * 1e3,
        );
        println!(
            "  {} requests ({} errors), {:.0} req/s",
            stats.requests, stats.errors, stats.throughput_rps,
        );
        println!(
            "  latency p50 {} us, p99 {} us, p99.9 {} us",
            stats.p50_us, stats.p99_us, stats.p999_us,
        );
        for e in &stats.endpoints {
            println!(
                "  {:<32} {:>8} reqs  p50 {:>6} us  p99 {:>6} us  p99.9 {:>6} us",
                e.path, e.requests, e.p50_us, e.p99_us, e.p999_us,
            );
        }
    }
    if stats.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Run, CliError> {
        parse_args(&line.split_whitespace().collect::<Vec<_>>())
    }

    fn run(conns: usize, pipeline: usize, duration_ms: u64, retries: u32, json: bool) -> Run {
        Run {
            addr: "127.0.0.1:9".parse().expect("addr"),
            opts: LoadOptions {
                conns,
                pipeline,
                duration: Duration::from_millis(duration_ms),
                connect_retries: retries,
                ..LoadOptions::default()
            },
            json,
        }
    }

    /// Every loadgen command shape in scripts/verify.sh and README.md, and
    /// the rest of its flags.
    #[test]
    fn parse_documented_command_lines() {
        let defaults = LoadOptions::default();
        let d = defaults.duration.as_millis() as u64;
        let batches = Run {
            opts: LoadOptions {
                max_batches: Some(10),
                paths: vec!["/healthz".into(), "/networks".into()],
                ..run(2, 4, d, defaults.connect_retries, false).opts
            },
            ..run(2, 4, d, defaults.connect_retries, false)
        };
        let cases: Vec<(&str, Run)> = vec![
            (
                "127.0.0.1:9 --conns 2 --pipeline 4 --duration-ms 500 --json",
                run(2, 4, 500, defaults.connect_retries, true),
            ),
            (
                "127.0.0.1:9 --conns 2 --pipeline 4 --duration-ms 300 --connect-retries 5",
                run(2, 4, 300, 5, false),
            ),
            (
                "--conns=2 127.0.0.1:9 --pipeline=4 --duration=3",
                run(2, 4, 3000, defaults.connect_retries, false),
            ),
            ("127.0.0.1:9 --batches 10 --paths /healthz,/networks --conns 2 --pipeline 4", batches),
            // The later of --duration and --duration-ms wins.
            (
                "127.0.0.1:9 --conns 2 --pipeline 4 --duration 2 --duration-ms 500",
                run(2, 4, 500, defaults.connect_retries, false),
            ),
            (
                "127.0.0.1:9 --conns 2 --pipeline 4 --duration-ms 500 --duration 2",
                run(2, 4, 2000, defaults.connect_retries, false),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line), Ok(want), "{line}");
        }
    }

    #[test]
    fn every_value_flag_takes_both_spellings() {
        for flag in TABLE.all_flags().filter(|f| f.value.is_some()) {
            let good = if flag.name == "--paths" { "/healthz" } else { "3" };
            let spaced = parse(&format!("127.0.0.1:9 {} {good}", flag.name));
            assert!(spaced.is_ok(), "{}: {spaced:?}", flag.name);
            assert_eq!(
                parse(&format!("127.0.0.1:9 {}={good}", flag.name)),
                spaced,
                "{}",
                flag.name
            );
            assert!(
                matches!(
                    parse(&format!("127.0.0.1:9 {}", flag.name)),
                    Err(CliError::MissingValue { flag: missing, .. }) if missing == flag.name
                ),
                "{}",
                flag.name
            );
        }
    }

    #[test]
    fn usage_errors() {
        let zero = |name| CliError::BadValue {
            name,
            value: "0".into(),
            reason: "number would be zero for non-zero type".into(),
        };
        let cases: &[(&str, CliError)] = &[
            ("", CliError::MissingArgument("<addr>")),
            ("127.0.0.1:9 extra", CliError::UnexpectedArgument("extra".into())),
            ("127.0.0.1:9 --no-such-flag", CliError::UnknownFlag("--no-such-flag".into())),
            ("127.0.0.1:9 --conns 0", zero("--conns")),
            ("127.0.0.1:9 --pipeline=0", zero("--pipeline")),
            ("127.0.0.1:9 --duration 0", zero("--duration")),
            ("127.0.0.1:9 --duration-ms 0 --duration-ms 5", zero("--duration-ms")),
            ("127.0.0.1:9 --batches 0", zero("--batches")),
            (
                "127.0.0.1:9 --paths",
                CliError::MissingValue { flag: "--paths", metavar: "/a,/b,..." },
            ),
            (
                "127.0.0.1:9 --connect-retries x",
                CliError::BadValue {
                    name: "--connect-retries",
                    value: "x".into(),
                    reason: "invalid digit found in string".into(),
                },
            ),
            (
                "not-an-address",
                CliError::BadValue {
                    name: "<addr>",
                    value: "not-an-address".into(),
                    reason: "cannot resolve".into(),
                },
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line).as_ref(), Err(want), "{line}");
        }
    }
}
