//! `rdx` — routing design explorer.
//!
//! The operator-facing front end of the toolchain: point it at a directory
//! of router configuration files and interrogate the network's routing
//! design, exactly the workflow the paper's Section 8.1 sketches for
//! inventory management, vulnerability assessment, and diagnosis.
//! `rdx --help` is the reference for every command, flag and exit code
//! (pinned by `tests/golden/rdx_help.txt`).
//!
//! The command line is read into a [`Command`] before anything runs. Each
//! subcommand (`snap`, `serve`, `watch`, `chaos`, and the analysis
//! commands) has one flag table, read by the shared `rd_obs::cli` parser:
//! flags may appear anywhere on the line, every value flag takes both
//! `--flag value` and `--flag=value`, and any other word starting with `-`
//! is a usage error. Every failure is one [`Error`], whose variant picks
//! the exit code — `1` for analysis or diagnostic errors, `2` for usage
//! errors — and `main` prints it once.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::num::{NonZeroU32, NonZeroUsize};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rd_obs::cli::{self, Args, CliError, Flag, Table};
use rd_obs::Observe;
use rd_serve::ServeOptions;
use reachability::{Flow, FlowProto};
use routing_design::watch::WatchOptions;
use routing_design::{NetworkAnalysis, Prefix, RouterId, Severity};

/// The analysis commands' own switches; `--timings/--metrics/--trace/
/// --profile` are the observability slice they share with `repro`.
const ANALYSIS_FLAGS: &[Flag] =
    &[Flag::switch("--json"), Flag::switch("--check"), Flag::switch("--networks")];

/// The HTTP server flags `serve` and `watch` share.
const SERVER_FLAGS: &[Flag] = &[
    Flag::value("--addr", "HOST:PORT"),
    Flag::value("--workers", "N"),
    Flag::value("--max-conns", "N"),
];

static ANALYZE: Table = Table {
    name: "rdx",
    operands: "<config-dir> [summary|instances|roles|blocks|external|pathway <router>|\
               dot [process|instances]|reach <src> <dst>|flow <src> <dst> [proto] [port]|\
               separation <a> <b>|whatif <router> [...]|audit|diag|diff <other-dir>|\
               plan <target-dir>|anonymize <out-dir> <key>]",
    flags: &[ANALYSIS_FLAGS, rd_obs::OBS_FLAGS],
};

static SNAP: Table = Table {
    name: "rdx snap",
    operands: "<dir>",
    flags: &[&[
        Flag::value("--out", "<file.rdsnap>").short("-o"),
        Flag::value("--from", "<prev.rdsnap>"),
        Flag::value("--info", "<file.rdsnap>"),
    ]],
};

static SERVE: Table = Table {
    name: "rdx serve",
    operands: "<file.rdsnap>",
    flags: &[
        SERVER_FLAGS,
        &[Flag::value("--plan", "<plan.json>"), Flag::value("--profile", "<path>")],
    ],
};

static WATCH: Table = Table {
    name: "rdx watch",
    operands: "<config-dir>",
    flags: &[
        &[
            Flag::value("--snapshot", "<file.rdsnap>"),
            Flag::value("--poll-ms", "N"),
            Flag::value("--debounce-ms", "N"),
            Flag::value("--backoff-ms", "N"),
            Flag::value("--backoff-max-ms", "N"),
            Flag::value("--degraded-after", "N"),
            Flag::value("--seed", "N"),
        ],
        SERVER_FLAGS,
    ],
};

static CHAOS: Table = Table {
    name: "rdx chaos",
    operands: "<dir>",
    flags: &[&[
        Flag::value("--seed", "N"),
        Flag::value("--configs", "M"),
        Flag::value("--snapshots", "K"),
        Flag::value("--max-rss-mb", "MB"),
    ]],
};

/// One rdx command line, read in full before anything runs. `Analyze`
/// covers every command that loads `<config-dir>` as one network; `plan`
/// analyzes every intermediate state itself and `anonymize` only copies
/// files, so they load nothing up front.
#[derive(Debug, PartialEq)]
enum Command {
    Version,
    Help,
    Snap { dir: String, out: String, from: Option<String> },
    SnapInfo { file: String },
    Serve { file: String, server: Server, plan: Option<String>, profile: Option<String> },
    Watch { dir: String, snapshot: String, server: Server, watch: WatchOptions },
    Chaos { dir: String, seed: u64, configs: usize, snapshots: usize, max_rss_mb: u64 },
    Analyze { dir: String, action: Action, obs: Observe },
    Plan { dir: String, target: String, json: bool, check: bool, obs: Observe },
    Anonymize { dir: String, out: String, key: String, obs: Observe },
}

/// The `--addr/--workers/--max-conns` values.
#[derive(Debug, PartialEq)]
struct Server {
    addr: String,
    options: ServeOptions,
}

/// A command over one loaded network.
#[derive(Debug, PartialEq)]
enum Action {
    Summary { json: bool },
    Instances,
    Roles,
    Blocks,
    External,
    Pathway(String),
    Dot { process: bool },
    Reach(Prefix, Prefix),
    Flow(Flow),
    Separation(usize, usize),
    Whatif(Vec<String>),
    Audit,
    Diag,
    Diff { other: String, networks: bool },
}

/// Why an rdx run failed; the variant picks the exit code.
#[derive(Debug, PartialEq)]
enum Error {
    /// The command line does not parse against the table (exit 2).
    Cli(&'static Table, CliError),
    /// Arguments that parse but point at nothing usable, found while
    /// running, such as a comparison directory that is not one (exit 2).
    Usage(String),
    /// The analysis or its I/O failed (exit 1).
    Failed(String),
}

impl Error {
    /// Prints the error on stderr and returns its exit code.
    fn report(&self) -> ExitCode {
        match self {
            // An analysis command line gets the whole usage, command list
            // included.
            Error::Cli(table, e) if std::ptr::eq(*table, &ANALYZE) => {
                eprintln!("rdx: {e}\n{}", usage());
                ExitCode::from(CliError::EXIT)
            }
            Error::Cli(table, e) => e.report(table),
            Error::Usage(message) => {
                eprintln!("rdx: {message}");
                ExitCode::from(CliError::EXIT)
            }
            Error::Failed(message) => {
                eprintln!("rdx: {message}");
                ExitCode::FAILURE
            }
        }
    }
}

/// What an analysis command prints after its result or error message:
/// stage timings (a failed load reports the time it took), the metrics
/// dump, then the trace flush and profile.
#[derive(Default)]
struct After {
    stderr: String,
    metrics: bool,
    outputs: Option<rd_obs::Outputs>,
}

impl After {
    fn finish(self) {
        eprint!("{}", self.stderr);
        if self.metrics {
            eprint!("{}", rd_obs::metrics::dump());
        }
        if let Some(outputs) = self.outputs {
            outputs.finish();
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut after = After::default();
    let code = match parse_command(&argv).and_then(|command| run(command, &mut after)) {
        Ok(code) => code,
        Err(e) => e.report(),
    };
    after.finish();
    code
}

/// Reads `argv` (program name excluded) into a [`Command`]. The first word
/// picks the flag table: `snap`, `serve`, `watch` and `chaos` have their
/// own; anything else is an analysis command line.
fn parse_command<S: AsRef<str>>(argv: &[S]) -> Result<Command, Error> {
    match cli::requested(argv, &[cli::VERSION, cli::HELP]) {
        Some(&cli::VERSION) => return Ok(Command::Version),
        Some(_) => return Ok(Command::Help),
        None => {}
    }
    type Read = fn(&Args) -> Result<Command, CliError>;
    let (table, read, words): (&'static Table, Read, _) = match argv.first().map(AsRef::as_ref) {
        Some("snap") => (&SNAP, snap_command, &argv[1..]),
        Some("serve") => (&SERVE, serve_command, &argv[1..]),
        Some("watch") => (&WATCH, watch_command, &argv[1..]),
        Some("chaos") => (&CHAOS, chaos_command, &argv[1..]),
        _ => (&ANALYZE, analysis_command, argv),
    };
    table.parse(words).and_then(|args| read(&args)).map_err(|e| Error::Cli(table, e))
}

fn snap_command(args: &Args) -> Result<Command, CliError> {
    args.at_most(1)?;
    if let Some(file) = args.value("--info") {
        return Ok(Command::SnapInfo { file: file.to_string() });
    }
    Ok(Command::Snap {
        dir: args.operand(0, "<dir>")?.to_string(),
        out: args.value("--out").unwrap_or("study.rdsnap").to_string(),
        from: args.value("--from").map(str::to_string),
    })
}

fn server(args: &Args) -> Result<Server, CliError> {
    let defaults = ServeOptions::default();
    Ok(Server {
        addr: args.value("--addr").unwrap_or("127.0.0.1:8080").to_string(),
        options: ServeOptions {
            workers: args.get("--workers")?.unwrap_or(defaults.workers),
            max_conns: args.get("--max-conns")?.map_or(defaults.max_conns, NonZeroUsize::get),
            ..defaults
        },
    })
}

fn serve_command(args: &Args) -> Result<Command, CliError> {
    args.at_most(1)?;
    Ok(Command::Serve {
        file: args.operand(0, "<file.rdsnap>")?.to_string(),
        server: server(args)?,
        plan: args.value("--plan").map(str::to_string),
        profile: args.value("--profile").map(str::to_string),
    })
}

fn watch_command(args: &Args) -> Result<Command, CliError> {
    args.at_most(1)?;
    let dir = args.operand(0, "<config-dir>")?.to_string();
    let defaults = WatchOptions::default();
    let ms =
        |name, default| Ok::<_, CliError>(args.get(name)?.map_or(default, Duration::from_millis));
    let watch = WatchOptions {
        poll_interval: ms("--poll-ms", defaults.poll_interval)?,
        debounce: ms("--debounce-ms", defaults.debounce)?,
        backoff_base: ms("--backoff-ms", defaults.backoff_base)?,
        backoff_max: ms("--backoff-max-ms", defaults.backoff_max)?,
        degraded_after: args
            .get("--degraded-after")?
            .map_or(defaults.degraded_after, NonZeroU32::get),
        seed: args.get("--seed")?.unwrap_or(defaults.seed),
    };
    // Default the persisted snapshot next to the config dir so recovery
    // after a crash finds it without flags: `<dir>.rdsnap`.
    let snapshot = match args.value("--snapshot") {
        Some(path) => path.to_string(),
        None => format!("{}.rdsnap", dir.trim_end_matches('/')),
    };
    Ok(Command::Watch { dir, snapshot, server: server(args)?, watch })
}

fn chaos_command(args: &Args) -> Result<Command, CliError> {
    args.at_most(1)?;
    Ok(Command::Chaos {
        dir: args.operand(0, "<dir>")?.to_string(),
        seed: args.get("--seed")?.unwrap_or(1),
        configs: args.get("--configs")?.unwrap_or(500),
        snapshots: args.get("--snapshots")?.unwrap_or(100),
        max_rss_mb: args.get("--max-rss-mb")?.unwrap_or(4096),
    })
}

/// `rdx <config-dir> [command] [operands]`. Operands past those the
/// command reads are ignored.
fn analysis_command(args: &Args) -> Result<Command, CliError> {
    let dir = args.operand(0, "<config-dir>")?.to_string();
    let obs = Observe::from_args(args);
    let word = |index: usize| args.operands().get(index).map(String::as_str);
    let bad = CliError::bad_value;
    let action = match word(1).unwrap_or("summary") {
        "summary" => Action::Summary { json: args.switch("--json") },
        "instances" => Action::Instances,
        "roles" => Action::Roles,
        "blocks" => Action::Blocks,
        "external" => Action::External,
        "audit" => Action::Audit,
        "diag" => Action::Diag,
        "pathway" => Action::Pathway(args.operand(2, "<router>")?.to_string()),
        "dot" => match word(2).unwrap_or("instances") {
            "process" => Action::Dot { process: true },
            "instances" => Action::Dot { process: false },
            other => return Err(bad("dot", other, "expected process or instances")),
        },
        "reach" => Action::Reach(args.operand_as(2, "<src>")?, args.operand_as(3, "<dst>")?),
        "flow" => Action::Flow(Flow {
            src: args.operand_as(2, "<src>")?,
            dst: args.operand_as(3, "<dst>")?,
            proto: match word(4) {
                Some(text) => FlowProto::parse(text)
                    .ok_or_else(|| bad("[proto]", text, "expected ip, tcp, udp, icmp or pim"))?,
                None => FlowProto::Ip,
            },
            src_port: None,
            // A port that does not parse leaves the flow portless.
            dst_port: word(5).and_then(|text| text.parse().ok()),
        }),
        "separation" => {
            let id = |index, metavar| {
                let text = args.operand(index, metavar)?;
                cli::parse_value(metavar, text.trim_start_matches("instance").trim())
            };
            Action::Separation(id(2, "<a>")?, id(3, "<b>")?)
        }
        "whatif" => {
            args.operand(2, "<router>")?;
            Action::Whatif(args.operands()[2..].to_vec())
        }
        "diff" => Action::Diff {
            other: args.operand(2, "<other-dir>")?.to_string(),
            networks: args.switch("--networks"),
        },
        "plan" => {
            let target = args.operand(2, "<target-dir>")?.to_string();
            let (json, check) = (args.switch("--json"), args.switch("--check"));
            return Ok(Command::Plan { dir, target, json, check, obs });
        }
        "anonymize" => {
            let (out, key) = (args.operand(2, "<out-dir>")?, args.operand(3, "<key>")?);
            return Ok(Command::Anonymize { dir, out: out.into(), key: key.into(), obs });
        }
        other => return Err(bad("<command>", other, "unknown command")),
    };
    Ok(Command::Analyze { dir, action, obs })
}

fn run(command: Command, after: &mut After) -> Result<ExitCode, Error> {
    match command {
        Command::Version => println!("rdx {}", env!("CARGO_PKG_VERSION")),
        Command::Help => print!("{}", help_text()),
        Command::Snap { dir, out, from } => return snap(&dir, &out, from.as_deref()),
        Command::SnapInfo { file } => snap_info(&file)?,
        Command::Serve { file, server, plan, profile } => serve(&file, server, plan, profile)?,
        Command::Watch { dir, snapshot, server, watch } => {
            rd_serve::install_signal_handlers();
            let (dir, snapshot) = (Path::new(&dir), Path::new(&snapshot));
            routing_design::watch::run_daemon(dir, snapshot, &server.addr, watch, server.options)
                .map_err(|e| Error::Failed(format!("watch: {e}")))?;
            let _ = writeln!(std::io::stderr(), "rdx: shut down cleanly");
        }
        Command::Chaos { dir, seed, configs, snapshots, max_rss_mb } => {
            return chaos(&dir, seed, configs, snapshots, max_rss_mb)
        }
        Command::Analyze { dir, action, obs } => return analyze(&dir, action, &obs, after),
        Command::Plan { dir, target, json, check, obs } => {
            after.outputs = Some(open_outputs(&obs)?);
            plan(&dir, &target, json, check, obs.timings)?;
        }
        Command::Anonymize { dir, out, key, obs } => {
            // Opened for the trace sink alone; anonymize records nothing.
            let _outputs = open_outputs(&obs)?;
            anonymize(&dir, &out, &key)?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn open_outputs(obs: &Observe) -> Result<rd_obs::Outputs, Error> {
    obs.outputs("rdx").map_err(|e| Error::Failed(format!("cannot open trace sink: {e}")))
}

/// The short usage: the analysis command line, then each subcommand's
/// line, every one rendered from its flag table.
fn usage() -> String {
    let lines: Vec<String> =
        [&ANALYZE, &SNAP, &SERVE, &WATCH, &CHAOS].iter().map(|table| table.synopsis()).collect();
    format!(
        "usage: {}\nrdx --help shows the full reference (commands, flags, exit codes)",
        lines.join("\n       ")
    )
}

fn help_text() -> String {
    format!(
        "rdx {} — routing design explorer

usage:
  rdx <config-dir> [command] [flags]     analyze a config directory
  rdx snap <dir> -o <file.rdsnap> [--from <prev.rdsnap>]
                                         analyze once, write a snapshot;
                                         --from seeds the incremental
                                         delta engine from a previous
                                         snapshot so only changed
                                         networks are re-analyzed (the
                                         output stays byte-identical to
                                         a cold run)
  rdx snap --info <file.rdsnap>          print the snapshot's section/
                                         manifest table (per-network
                                         names, offsets, byte sizes)
                                         without decoding any payload
  rdx serve <file.rdsnap> [--addr HOST:PORT] [--workers N]
            [--max-conns N] [--plan <plan.json>] [--profile <path>]
                                         serve a snapshot over HTTP from an
                                         epoll event loop: --workers N sets
                                         the loop-thread count (0 = auto),
                                         --max-conns caps live connections
                                         (default 1024; past it, 503 +
                                         Retry-After), --profile writes the
                                         cache-build span profile on shutdown
  rdx watch <config-dir> [--addr HOST:PORT] [--snapshot <file.rdsnap>]
            [--poll-ms N] [--debounce-ms N] [--backoff-ms N]
            [--backoff-max-ms N] [--degraded-after N] [--seed N]
            [--workers N] [--max-conns N]
                                         supervised continuous analysis:
                                         poll <config-dir> for semantic
                                         changes (debounced per-router
                                         fingerprints), re-analyze in a
                                         failure-isolated worker, persist
                                         crash-safely to --snapshot
                                         (default <config-dir>.rdsnap),
                                         and hot-swap the co-hosted HTTP
                                         server. Failures keep last-good
                                         serving and retry with jittered
                                         exponential backoff; /healthz
                                         turns 503 after --degraded-after
                                         consecutive failures (while
                                         queries still answer), and
                                         /healthz?live=1 stays 200 for
                                         process liveness
  rdx chaos <dir> [--seed N] [--configs M] [--snapshots K] [--max-rss-mb MB]
                                         deterministic fault-injection sweep:
                                         mutate the corpus M times and corrupt
                                         its snapshot K times, asserting
                                         error-not-panic, bounded memory, and
                                         deterministic diagnostics

commands (default: summary):
  summary [--json]           overview + design classification
  instances                  the routing instance graph
  roles                      Table-1 style role counts
  blocks                     recovered address blocks
  external                   external-facing interfaces
  pathway <router>           route pathway of one router
  dot [process|instances]    Graphviz output
  reach <src> <dst>          block reachability between prefixes
  flow <src> <dst> [proto] [port]
                             packet-filter verdicts for one flow
  separation <a> <b>         minimum router cut between instances
  whatif <router> [...]      failure simulation
  audit                      vulnerability findings (paper section 8.1)
  diag                       pipeline diagnostics
  diff <other-dir>           design changes between snapshots;
                             --networks prints the networks the change
                             invalidates (one per line; study
                             directories are diffed pairwise by
                             network name) instead of the router diff
  plan <target-dir> [--check]
                             safe reconfiguration plan from <config-dir>
                             to <target-dir>: per-router change units,
                             dependency-ordered so every intermediate
                             state preserves connectivity, instance
                             integrity, external-peering containment,
                             and border reachability (each state is
                             re-analyzed in memory). --json prints the
                             machine-readable plan (servable via
                             `rdx serve --plan`), --check replays every
                             step with fresh analyses, --timings reports
                             diff/dag/search phase times on stderr.
                             Exit 1 when no safe per-router ordering
                             exists.
  anonymize <out-dir> <key>  anonymize the corpus

  <router> accepts rN, a file name, or a hostname.

flags:
  --json             render summary as JSON (the body `rdx serve`
                     answers for /networks/{{id}}); render plan as the
                     canonical plan JSON
  --check            (plan only) independently re-verify every emitted
                     step with fresh analyses
  --networks         (diff only) print which networks the diff touches
                     via the router → owning-network invalidation map
  --timings          per-stage pipeline wall-clock times on stderr
  --metrics          dump the metrics registry on stderr
  --trace <path>     structured JSONL trace to path ('-' for stderr)
  --profile <path>   collapsed-stack wall-clock profile to path
                     (one 'stack;substack self_us' line per stack, for
                     flamegraph tooling; roots are the --timings stage
                     names; RD_PROF_ZERO=1 zeroes counts for byte-exact
                     determinism comparisons)
  --version, -V      print the version and exit
  --help, -h         print this reference and exit

serve endpoints:
  /healthz            health state machine (fresh / stale-serving-last-good
                      / degraded; 503 only when degraded); ?live=1 is pure
                      process liveness and always answers 200
  /networks /networks/{{id}} /networks/{{id}}/processes
  /instances /pathways /diag /metrics
  /plan               the reconfiguration plan given via --plan (404
                      when the server was started without one)
  /admin/debug/loop   per-event-loop health (wakeups, slab, wheel)
  /admin/debug/conns  live connections (state, age, buffers)
  /admin/debug/cache  serving snapshot + reload history ring
  /admin/debug/watch  watch supervisor state (generation, failures,
                      backoff, last error; null under plain `rdx serve`)
  Snapshot-derived responses carry the snapshot's FNV-1a-64 trailer as
  an ETag and honor If-None-Match with 304. Under rdx serve, SIGHUP or
  POST /admin/reload re-reads the snapshot file and hot-swaps it with
  zero dropped requests; under rdx watch the watcher is the only
  publisher, so POST /admin/reload answers 409 and SIGHUP is ignored.
  /metrics includes per-request and per-loop histograms (request_us,
  conn_age_ms, epoll_wait_us, wakeup_events, iter_us), backpressure and
  rejection counters, rd_build_info, and process_uptime_seconds.

exit codes:
  0  success
  1  analysis or diagnostic errors (load failures, error-severity
     diagnostics from diag, unknown routers or instances; snap when a
     network was dropped by the error budget; chaos when a panic
     escaped, diagnostics were unstable, or the RSS cap was exceeded;
     plan when no safe per-router ordering exists or --check fails)
  2  usage errors (unknown command or flag, missing or malformed
     arguments)

degraded mode:
  Unreadable config files (non-UTF-8, empty, unparseable) are
  quarantined as error diagnostics and the analysis proceeds with the
  surviving routers. A network whose quarantined fraction exceeds the
  error budget (RD_ERROR_BUDGET, default 0.25) is dropped from study
  snapshots. Coverage appears in `summary --json` and /networks/{{id}}.
",
        env!("CARGO_PKG_VERSION")
    )
}

fn snap(dir: &str, out: &str, from: Option<&str>) -> Result<ExitCode, Error> {
    let started = Instant::now();
    let analyze_failed = |e| Error::Failed(format!("failed to analyze {dir}: {e}"));
    let (outcome, bytes, incr) = if let Some(prev) = from {
        // Incremental path: decode the previous snapshot once, seed the
        // delta engine from it, refresh against the directory, and splice
        // unchanged networks' encoded bytes straight through. Output is
        // byte-identical to a cold run over the same directory.
        let previous = rd_snap::Corpus::read_file(Path::new(prev))
            .map_err(|e| Error::Failed(format!("snap: {e}")))?;
        let mut engine = routing_design::incremental::DeltaEngine::new(Path::new(dir));
        engine.seed(&previous);
        let refresh = engine.refresh().map_err(analyze_failed)?;
        (refresh.outcome, refresh.bytes, Some(refresh.stats))
    } else {
        let outcome = routing_design::snapshot::snap_dir(Path::new(dir)).map_err(analyze_failed)?;
        let bytes = outcome.corpus.to_bytes();
        (outcome, bytes, None)
    };
    let analyze_ms = started.elapsed().as_secs_f64() * 1e3;
    let write_started = Instant::now();
    rd_snap::write_atomic(Path::new(out), &bytes)
        .map_err(|e| Error::Failed(format!("cannot write {out}: {e}")))?;
    eprintln!(
        "snapshotted {} network(s) into {out}: {} bytes \
         (analyze {analyze_ms:.1} ms, encode+write {:.1} ms)",
        outcome.corpus.networks.len(),
        bytes.len(),
        write_started.elapsed().as_secs_f64() * 1e3,
    );
    if let Some(stats) = incr {
        eprintln!(
            "incremental: {} network(s) reused, {} recomputed, {} file(s) reparsed",
            stats.reused, stats.recomputed, stats.files_reparsed,
        );
    }
    for n in &outcome.corpus.networks {
        let c = &n.network.coverage;
        if c.degraded() {
            eprintln!(
                "rdx: snap: {} DEGRADED: {}/{} file(s) quarantined ({})",
                n.name,
                c.quarantined.len(),
                c.total_files,
                c.quarantined.join(", "),
            );
        }
    }
    if outcome.dropped.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    // The snapshot is still written (the survivors are valid), but the
    // run is reported as a failure so scripts notice the missing data.
    for d in &outcome.dropped {
        eprintln!("rdx: snap: DROPPED {}: {}", d.name, d.reason);
    }
    eprintln!(
        "rdx: snap: {} network(s) dropped by the error budget ({:.0}%)",
        outcome.dropped.len(),
        routing_design::error_budget() * 100.0,
    );
    Ok(ExitCode::FAILURE)
}

/// `rdx snap --info <file>`: print the container's frame table
/// ([`rd_snap::Frames`]) — no network payload is decoded, so this is
/// cheap even for a large study snapshot.
fn snap_info(file: &str) -> Result<(), Error> {
    let bytes =
        std::fs::read(file).map_err(|e| Error::Failed(format!("snap: cannot read {file}: {e}")))?;
    let frames = rd_snap::Frames::read(&bytes)
        .map_err(|e| Error::Failed(format!("snap: {file} is not a valid snapshot: {e}")))?;
    println!("{file}: {} bytes, {} network section(s)", bytes.len(), frames.sections.len());
    let row = |name: &str, at: &std::ops::Range<usize>| {
        println!("{name:<24} {:>12} {:>12}", at.start, at.len());
    };
    println!("{:<24} {:>12} {:>12}", "section", "offset", "bytes");
    for frame in &frames.sections {
        row(&frame.name, &frame.payload);
    }
    row("(manifest)", &frames.manifest);
    row("(footer: len + fnv64)", &frames.footer);
    Ok(())
}

fn serve(
    file: &str,
    server: Server,
    plan: Option<String>,
    profile: Option<String>,
) -> Result<(), Error> {
    let mut options = server.options;
    if let Some(path) = plan {
        options.plan = Some(
            std::fs::read_to_string(&path)
                .map_err(|e| Error::Usage(format!("serve: cannot read plan {path}: {e}")))?,
        );
    }
    let outputs = rd_obs::Outputs::new("rdx", profile);
    rd_serve::install_signal_handlers();
    // start_file wires the snapshot in as the hot-reload source: SIGHUP
    // or `POST /admin/reload` re-reads it and swaps atomically.
    let running = rd_serve::Server::start_file(Path::new(file), &server.addr, options)
        .map_err(|e| Error::Failed(format!("serve: {e}")))?;
    let networks = running.network_count();
    // Scripts parse this line for the bound (possibly ephemeral) port.
    // Status lines ignore write errors: a closed stdout or stderr must
    // not stop the server.
    let (mut out, addr) = (std::io::stdout(), running.local_addr());
    let _ = writeln!(out, "listening on http://{addr} ({networks} network(s) from {file})");
    let _ = out.flush();
    running.run_until_shutdown();
    outputs.finish();
    let _ = writeln!(std::io::stderr(), "rdx: shut down cleanly");
    Ok(())
}

/// Every network under `dir` as [`routing_design::snapshot::read_tree`]
/// reads it — the same networks `rdx snap` would write — when at least
/// one of them holds a config file.
fn read_corpus(dir: &str) -> Result<Vec<(String, rd_plan::CorpusFiles)>, String> {
    let networks =
        routing_design::snapshot::read_tree(Path::new(dir)).map_err(|e| e.to_string())?;
    if networks.iter().all(|(_, files)| files.is_empty()) {
        return Err(format!("{dir} holds no config files"));
    }
    Ok(networks)
}

// ---------------------------------------------------------------------------
// `rdx chaos` — deterministic fault-injection sweep (the rd-chaos driver).

fn chaos(
    dir: &str,
    seed: u64,
    configs: usize,
    snapshots: usize,
    max_rss_mb: u64,
) -> Result<ExitCode, Error> {
    let mut networks = read_corpus(dir).map_err(|e| Error::Failed(format!("chaos: {e}")))?;
    // A trial damages one file of its network, so a network needs one.
    networks.retain(|(_, files)| !files.is_empty());

    println!(
        "chaos sweep: seed {seed}, {configs} config trial(s), \
         {snapshots} snapshot trial(s), {} network(s)",
        networks.len()
    );

    // The sweep *expects* caught panics; silence the default hook so the
    // summary is not buried under backtraces. Restored before returning.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    #[derive(Default)]
    struct MutStats {
        trials: u64,
        degraded: u64,
        panics: u64,
    }
    let mut config_stats: BTreeMap<&'static str, MutStats> = BTreeMap::new();
    let mut code_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Rolling FNV-1a over the sweep's diagnostic stream: the determinism
    // witness printed at the end (two runs with the same seed must print
    // the same digest at any `RD_THREADS`).
    let mut digest = rd_snap::fnv1a64(&[]);
    let mut escaped_panics: u64 = 0;
    let mut caught_worker_panics: u64 = 0;

    for trial in 0..configs {
        let (_, files) = &networks[trial % networks.len()];
        let (mutator, mut rng) = rd_chaos::config_trial(seed, trial);
        let victim = rng.gen_range(0..files.len());
        let mut mutated: Vec<(String, Vec<u8>)> = Vec::with_capacity(files.len());
        for (i, (name, bytes)) in files.iter().enumerate() {
            if i == victim {
                if let Some(out) = rd_chaos::mutate_config(&mut rng, mutator, bytes) {
                    mutated.push((name.clone(), out));
                }
            } else {
                mutated.push((name.clone(), bytes.clone()));
            }
        }
        let stats = config_stats.entry(mutator.name()).or_default();
        stats.trials += 1;
        digest = rd_snap::fnv1a64_extend(digest, &(trial as u64).to_le_bytes());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            NetworkAnalysis::from_bytes_list(mutated)
        }));
        match result {
            Ok(analysis) => {
                if analysis.network.coverage.degraded() {
                    stats.degraded += 1;
                }
                for d in analysis.diagnostics.iter() {
                    if matches!(
                        d.code,
                        "parse-error" | "invalid-utf8" | "empty-config" | "worker-panic"
                    ) {
                        *code_counts.entry(d.code).or_default() += 1;
                        digest = rd_snap::fnv1a64_extend(digest, d.to_string().as_bytes());
                        if d.code == "worker-panic" {
                            caught_worker_panics += 1;
                        }
                    }
                }
            }
            Err(_) => {
                stats.panics += 1;
                escaped_panics += 1;
            }
        }
    }

    // Clean baseline corpus for the snapshot corruptors.
    let baseline: Vec<rd_snap::NetworkSnapshot> = networks
        .iter()
        .map(|(name, files)| {
            routing_design::snapshot::capture(
                name,
                NetworkAnalysis::from_bytes_list(files.clone()),
            )
        })
        .collect();
    let corpus_bytes = rd_snap::Corpus::new(baseline).to_bytes();

    #[derive(Default)]
    struct SnapStats {
        trials: u64,
        rejected: u64,
        decoded: u64,
        panics: u64,
    }
    let mut snap_stats: BTreeMap<&'static str, SnapStats> = BTreeMap::new();
    for trial in 0..snapshots {
        let mutator = rd_chaos::SNAP_MUTATORS[trial % rd_chaos::SNAP_MUTATORS.len()];
        let mut rng = rd_rng::StdRng::seed_from_u64(
            seed ^ (trial as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        let corrupted = rd_chaos::corrupt_snapshot(&mut rng, mutator, &corpus_bytes);
        let stats = snap_stats.entry(mutator.name()).or_default();
        stats.trials += 1;
        match std::panic::catch_unwind(|| rd_snap::Corpus::from_bytes(&corrupted)) {
            Ok(Ok(_)) => stats.decoded += 1,
            Ok(Err(e)) => {
                stats.rejected += 1;
                digest = rd_snap::fnv1a64_extend(digest, e.to_string().as_bytes());
            }
            Err(_) => {
                stats.panics += 1;
                escaped_panics += 1;
            }
        }
    }
    std::panic::set_hook(prev_hook);

    println!("config mutators:");
    for (name, s) in &config_stats {
        println!(
            "  {name:<20} trials {:>4}  degraded {:>4}  panics {:>2}",
            s.trials, s.degraded, s.panics
        );
    }
    println!("quarantine codes:");
    for (code, n) in &code_counts {
        println!("  {code:<20} {n:>6}");
    }
    println!("snapshot mutators:");
    for (name, s) in &snap_stats {
        println!(
            "  {name:<20} trials {:>4}  rejected {:>4}  decoded {:>2}  panics {:>2}",
            s.trials, s.rejected, s.decoded, s.panics
        );
    }
    println!("diagnostics digest: {digest:#018x}");

    let mut failed = false;
    if escaped_panics > 0 {
        println!("INVARIANT VIOLATED: {escaped_panics} panic(s) escaped the pipeline");
        failed = true;
    } else if caught_worker_panics > 0 {
        println!(
            "INVARIANT VIOLATED: {caught_worker_panics} parse worker panic(s) \
             (caught, but parse must fail via typed errors)"
        );
        failed = true;
    } else {
        println!(
            "invariant held: error-not-panic across {} trial(s)",
            configs + snapshots
        );
    }
    // RSS goes to stderr: it is the one machine-dependent number, and
    // stdout must stay byte-identical across runs for the determinism gate.
    if let Some(kb) = rd_obs::metrics::peak_rss_kb() {
        eprintln!("rdx: chaos: peak RSS {} MB (cap {max_rss_mb} MB)", kb / 1024);
        if kb / 1024 > max_rss_mb {
            eprintln!("rdx: chaos: INVARIANT VIOLATED: RSS cap exceeded");
            failed = true;
        }
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn analyze(dir: &str, action: Action, obs: &Observe, after: &mut After) -> Result<ExitCode, Error> {
    after.outputs = Some(open_outputs(obs)?);
    let load_started = Instant::now();
    let analysis = NetworkAnalysis::from_dir(Path::new(dir)).map_err(|e| {
        if obs.timings {
            after.stderr = format!(
                "load failed after {:.3} ms ({} worker thread(s))\n",
                load_started.elapsed().as_secs_f64() * 1e3,
                rd_par::thread_count()
            );
        }
        Error::Failed(format!("failed to load {dir}: {e}"))
    })?;

    let coverage = &analysis.network.coverage;
    if coverage.degraded() {
        eprintln!(
            "rdx: DEGRADED coverage: {}/{} config file(s) quarantined ({}); \
             analysis covers the surviving routers only",
            coverage.quarantined.len(),
            coverage.total_files,
            coverage.quarantined.join(", "),
        );
    }
    if obs.timings {
        after.stderr = format!(
            "pipeline stage timings ({} routers, {} worker thread(s)):\n{}",
            analysis.network.len(),
            rd_par::thread_count(),
            analysis.timings
        );
    }
    after.metrics = obs.metrics;
    run_action(&analysis, dir, action)
}

fn run_action(a: &NetworkAnalysis, dir: &str, action: Action) -> Result<ExitCode, Error> {
    match action {
        Action::Summary { json: true } => {
            let name = routing_design::snapshot::network_name(Path::new(dir));
            let snap = routing_design::snapshot::capture(&name, a.clone());
            print!("{}", rd_serve::render::network_summary(&snap));
        }
        Action::Summary { json: false } => summary(a),
        Action::Instances => print!("{}", a.instance_graph_text()),
        Action::Roles => print!("{}", a.table1),
        Action::Blocks => blocks(a),
        Action::External => external(a),
        Action::Pathway(router) => {
            let rid = resolve_router(a, &router)?;
            println!("route pathway of {} ({}):", rid, a.network.router(rid).name());
            print!("{}", a.pathway_text(rid));
        }
        Action::Dot { process: true } => print!("{}", a.process_graph_dot()),
        Action::Dot { process: false } => print!("{}", a.instance_graph_dot()),
        Action::Reach(src, dst) => {
            let reachability = a.reachability();
            let forward = reachability.block_reachable(src, dst);
            let reverse = reachability.block_reachable(dst, src);
            println!("{src} -> {dst}: {}", if forward { "reachable" } else { "UNREACHABLE" });
            println!("{dst} -> {src}: {}", if reverse { "reachable" } else { "UNREACHABLE" });
        }
        Action::Flow(probe) => flow(a, &probe),
        Action::Separation(x, y) => separation(a, x, y)?,
        Action::Whatif(routers) => whatif(a, &routers)?,
        Action::Audit => {
            let findings = routing_design::audit(a);
            if findings.is_empty() {
                println!("no findings");
            }
            for f in findings {
                println!("[{}] {}", f.kind, f.detail);
            }
        }
        Action::Diag => return Ok(diag(a)),
        Action::Diff { other, networks } => diff(a, dir, &other, networks)?,
    }
    Ok(ExitCode::SUCCESS)
}

fn summary(a: &NetworkAnalysis) {
    println!("routers:             {}", a.network.len());
    println!("logical links:       {}", a.links.links.len());
    let (internal, external, unaddressed) = a.external.counts();
    println!(
        "interfaces:          {} internal-facing, {} external-facing, {} unaddressed",
        internal, external, unaddressed
    );
    println!("routing processes:   {}", a.processes.len());
    println!("routing instances:   {}", a.instances.len());
    for inst in a.instances.list.iter().take(10) {
        println!("  {}: {}", inst.id, inst.label());
    }
    if a.instances.len() > 10 {
        println!("  ... {} more", a.instances.len() - 10);
    }
    println!("external peer ASes:  {:?}", a.instance_graph.external_ases());
    println!("classification:      {}", a.design.class);
    println!(
        "  bgp speakers {} | internal ASes {} | ibgp {} | ebgp {} ext / {} int | bgp→igp {}",
        a.design.bgp_speakers,
        a.design.internal_ases,
        a.design.ibgp_sessions,
        a.design.external_ebgp_sessions,
        a.design.internal_ebgp_sessions,
        a.design.bgp_into_igp,
    );
    for mesh in a.ibgp_meshes() {
        if mesh.routers < 2 {
            continue;
        }
        println!(
            "  IBGP in {}: {} sessions over {} routers ({:.0}% of full mesh{})",
            a.instances.get(mesh.instance).label(),
            mesh.sessions,
            mesh.routers,
            mesh.completeness * 100.0,
            if mesh.uses_reflection() {
                format!(", {} route reflector(s)", mesh.reflectors.len())
            } else {
                String::new()
            }
        );
    }
    for area in a.area_structures() {
        if area.is_flat() {
            continue;
        }
        println!(
            "  OSPF areas in {}: {} areas, {} ABR(s), backbone area {}",
            a.instances.get(area.instance).label(),
            area.area_count(),
            area.abrs.len(),
            if area.has_backbone_area() { "present" } else { "MISSING" }
        );
    }
    let hints = &a.external.missing_router_hints;
    if !hints.is_empty() {
        println!("possible missing routers (external-facing inside internal blocks):");
        for h in hints.iter().take(5) {
            println!("  {} on {} (block {})", h.subnet, h.iface.router, h.block);
        }
    }
}

/// Prints every pipeline diagnostic (parse, topology, design level) and
/// a severity summary. Exits with failure iff any error-severity
/// diagnostic exists, so scripts can gate on corpus health.
fn diag(a: &NetworkAnalysis) -> ExitCode {
    for d in a.diagnostics.iter() {
        println!("{d}");
    }
    println!("{}", a.diagnostics.summary());
    if a.diagnostics.count(Severity::Error) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn blocks(a: &NetworkAnalysis) {
    println!("{:<20} {:>12} {:>8}", "block", "addresses", "used");
    for b in &a.blocks.roots {
        println!(
            "{:<20} {:>12} {:>7.0}%",
            b.prefix.to_string(),
            b.prefix.size(),
            b.utilization() * 100.0
        );
    }
}

fn external(a: &NetworkAnalysis) {
    for (iref, class) in a.external.classes.iter() {
        if class != routing_design::IfaceClass::External {
            continue;
        }
        let router = a.network.router(iref.router);
        let iface = &router.config.interfaces[iref.iface];
        let addr = iface
            .address
            .map(|x| x.subnet().to_string())
            .unwrap_or_else(|| "-".to_string());
        println!("{} {} {}", router.name(), iface.name, addr);
    }
}

fn resolve_router(a: &NetworkAnalysis, text: &str) -> Result<RouterId, Error> {
    if let Some(stripped) = text.strip_prefix('r') {
        if let Ok(n) = stripped.parse::<usize>() {
            if n < a.network.len() {
                return Ok(RouterId(n));
            }
        }
    }
    a.network
        .iter()
        .find(|(_, r)| r.file_name == text || r.name() == text)
        .map(|(id, _)| id)
        .ok_or_else(|| Error::Failed(format!("no router named {text:?}")))
}

fn separation(a: &NetworkAnalysis, x: usize, y: usize) -> Result<(), Error> {
    if x >= a.instances.len() || y >= a.instances.len() {
        return Err(Error::Failed(format!(
            "instance ids out of range (have {})",
            a.instances.len()
        )));
    }
    let (ia, ib) = (routing_design::InstanceId(x), routing_design::InstanceId(y));
    match a.instance_separation(ia, ib) {
        Some(n) => println!(
            "{} and {} are separated by the failure of {n} router(s)",
            a.instances.get(ia).label(),
            a.instances.get(ib).label()
        ),
        None => println!("instances share a router or cannot be separated"),
    }
    Ok(())
}

fn flow(a: &NetworkAnalysis, probe: &Flow) {
    let verdicts = reachability::flow_verdicts(&a.network, probe);
    if verdicts.is_empty() {
        println!("no packet filters applied anywhere");
        return;
    }
    let mut dropped = 0;
    for v in &verdicts {
        if v.permitted {
            continue;
        }
        dropped += 1;
        let router = a.network.router(v.iface.router);
        let iface = &router.config.interfaces[v.iface.iface];
        let clause = v
            .deciding_clause
            .map(|c| format!("clause {c}"))
            .unwrap_or_else(|| "implicit deny".to_string());
        println!(
            "DROPPED at {} {} ({:?}) by access-list {} ({clause})",
            router.name(),
            iface.name,
            v.direction,
            v.acl
        );
    }
    if dropped == 0 {
        println!("permitted by all {} filter applications", verdicts.len());
    } else {
        println!("({dropped} of {} filter applications drop this flow)", verdicts.len());
    }
}

fn whatif(a: &NetworkAnalysis, routers: &[String]) -> Result<(), Error> {
    let failed =
        routers.iter().map(|text| resolve_router(a, text)).collect::<Result<BTreeSet<_>, _>>()?;
    let graph = routing_design::RouterGraph::build(&a.network, &a.links);
    let before = graph.components().len();
    let after = graph.components_without(&failed);
    println!(
        "failing {} router(s): {} component(s) before, {} after",
        failed.len(),
        before,
        after.len()
    );
    if after.len() > before {
        println!("NETWORK PARTITIONS. resulting component sizes:");
        for comp in &after {
            println!("  {} routers (first: {})", comp.len(), a.network.router(comp[0]).name());
        }
    } else {
        println!("network stays as connected as before");
    }
    let arts = graph.articulation_routers();
    if !arts.is_empty() {
        let names: Vec<&str> = arts.iter().take(8).map(|r| a.network.router(*r).name()).collect();
        println!("single points of failure in this network: {names:?}");
    }
    Ok(())
}

fn diff(old: &NetworkAnalysis, dir: &str, other: &str, networks: bool) -> Result<(), Error> {
    // A missing or unreadable comparison directory is a usage error (the
    // caller pointed at the wrong place), not an analysis failure.
    if !Path::new(other).is_dir() {
        return Err(Error::Usage(format!("diff: {other:?} is not a readable config directory")));
    }
    if networks {
        return diff_networks(dir, other);
    }
    let new = NetworkAnalysis::from_dir(Path::new(other))
        .map_err(|e| Error::Usage(format!("diff: cannot load {other}: {e}")))?;
    print!("{}", routing_design::DesignDiff::between(old, &new));
    Ok(())
}

/// `rdx <dir> diff <other> --networks`: instead of the router-level diff,
/// print which networks the change touches (the incremental engine
/// answers the same question from per-file hashes instead). Both sides
/// are read as `rdx snap` reads them (a study directory, each
/// subdirectory a network, or a single network). A network is touched
/// when it exists on one side only or when its own pairwise
/// [`DesignDiff`](routing_design::DesignDiff) is non-empty; routers are
/// compared within a network only, since hostnames repeat across them.
fn diff_networks(dir: &str, other: &str) -> Result<(), Error> {
    let load = |d: &str| -> Result<BTreeMap<String, NetworkAnalysis>, Error> {
        let networks = read_corpus(d).map_err(|e| Error::Usage(format!("diff: {e}")))?;
        Ok(networks
            .into_iter()
            .map(|(name, files)| (name, NetworkAnalysis::from_bytes_list(files)))
            .collect())
    };
    let (old_nets, new_nets) = (load(dir)?, load(other)?);
    let names: BTreeSet<&String> = old_nets.keys().chain(new_nets.keys()).collect();
    let touched: Vec<&String> = names
        .into_iter()
        .filter(|name| match (old_nets.get(*name), new_nets.get(*name)) {
            (Some(old), Some(new)) => !routing_design::DesignDiff::between(old, new).is_empty(),
            _ => true,
        })
        .collect();
    if touched.is_empty() {
        println!("no networks touched");
    } else {
        for name in touched {
            println!("{name}");
        }
    }
    Ok(())
}

fn plan(dir: &str, target_dir: &str, json: bool, check: bool, timings: bool) -> Result<(), Error> {
    for (label, d) in [("current", dir), ("target", target_dir)] {
        if !Path::new(d).is_dir() {
            return Err(Error::Usage(format!(
                "plan: {label} directory {d:?} is not a readable config directory"
            )));
        }
    }
    let read = |label: &str, d: &str| {
        routing_design::read_network(Path::new(d))
            .map_err(|e| Error::Usage(format!("plan: {label} corpus: {e}")))
    };
    let current = read("current", dir)?;
    let target = read("target", target_dir)?;
    let plan = routing_design::plan::plan_corpora(&current, &target)
        .map_err(|e| Error::Failed(format!("plan: {e}")))?;
    if json {
        print!("{}", rd_plan::render_json(&plan));
    } else {
        print!("{}", rd_plan::render_table(&plan));
    }
    if timings {
        eprintln!(
            "plan phase timings ({} unit(s), {} intermediate state(s), \
             {} worker thread(s)):",
            plan.units.len(),
            plan.stats.states_analyzed,
            rd_par::thread_count()
        );
        eprint!("{}", plan.timings);
    }
    if check {
        let steps =
            rd_plan::verify_plan(&current, &target, &plan, routing_design::plan::analyze_files)
                .map_err(|e| Error::Failed(format!("plan check FAILED: {e}")))?;
        eprintln!("plan check: {steps} step(s) independently re-verified");
    }
    Ok(())
}

fn anonymize(dir: &str, out: &str, key: &str) -> Result<(), Error> {
    let anon = anonymizer::Anonymizer::new(key.as_bytes());
    std::fs::create_dir_all(out).map_err(|e| Error::Failed(format!("cannot create {out}: {e}")))?;
    let files =
        routing_design::read_network(Path::new(dir)).map_err(|e| Error::Failed(e.to_string()))?;
    for (i, (name, bytes)) in files.iter().enumerate() {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            Error::Failed(format!(
                "cannot read {}: stream did not contain valid UTF-8",
                Path::new(dir).join(name).display()
            ))
        })?;
        let out_path = Path::new(out).join(format!("config{}", i + 1));
        std::fs::write(&out_path, anon.anonymize_config(text))
            .map_err(|e| Error::Failed(format!("cannot write {}: {e}", out_path.display())))?;
    }
    println!("anonymized {} files into {out}", files.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, Error> {
        parse_command(&line.split_whitespace().collect::<Vec<_>>())
    }

    fn analyze(dir: &str, action: Action, obs: Observe) -> Command {
        Command::Analyze { dir: dir.to_string(), action, obs }
    }

    fn traced(trace: Option<&str>, profile: Option<&str>, timings: bool, metrics: bool) -> Observe {
        Observe {
            timings,
            metrics,
            trace: trace.map(str::to_string),
            profile: profile.map(str::to_string),
        }
    }

    fn plain() -> Observe {
        Observe::default()
    }

    fn server(addr: &str) -> Server {
        Server { addr: addr.to_string(), options: ServeOptions::default() }
    }

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn prefix(text: &str) -> Prefix {
        text.parse().expect("test prefix")
    }

    /// Every distinct command shape in scripts/verify.sh, README.md,
    /// EXPERIMENTS.md and tests/, with the command it must read as.
    #[test]
    fn parse_documented_command_lines() {
        let d = "/tmp/study/net15";
        let watch_opts = WatchOptions {
            poll_interval: Duration::from_millis(50),
            debounce: Duration::from_millis(100),
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_millis(400),
            degraded_after: 2,
            seed: 1,
        };
        let chaos = |dir: &str, seed, configs, snapshots, max_rss_mb| Command::Chaos {
            dir: dir.to_string(),
            seed,
            configs,
            snapshots,
            max_rss_mb,
        };
        let snap = |out: &str, from: Option<&str>| Command::Snap {
            dir: "/tmp/study".to_string(),
            out: out.to_string(),
            from: from.map(str::to_string),
        };
        let plan = |json, check, obs| Command::Plan {
            dir: "/tmp/mig/current".to_string(),
            target: "/tmp/mig/target".to_string(),
            json,
            check,
            obs,
        };
        let cases: Vec<(&str, Command)> = vec![
            ("--help", Command::Help),
            ("-h", Command::Help),
            ("--version", Command::Version),
            ("-V", Command::Version),
            (d, analyze(d, Action::Summary { json: false }, plain())),
            ("/tmp/study/net15 summary", analyze(d, Action::Summary { json: false }, plain())),
            (
                "/tmp/study/net15 summary --json",
                analyze(d, Action::Summary { json: true }, plain()),
            ),
            (
                "/tmp/study/net15 summary --trace /tmp/t1.jsonl",
                analyze(
                    d,
                    Action::Summary { json: false },
                    traced(Some("/tmp/t1.jsonl"), None, false, false),
                ),
            ),
            (
                "/tmp/study/net15 summary --timings --trace /tmp/v.jsonl --profile /tmp/v.folded",
                analyze(
                    d,
                    Action::Summary { json: false },
                    traced(Some("/tmp/v.jsonl"), Some("/tmp/v.folded"), true, false),
                ),
            ),
            (
                "/tmp/study/net15 summary --metrics",
                analyze(d, Action::Summary { json: false }, traced(None, None, false, true)),
            ),
            (
                "/tmp/study/net15 summary --timings",
                analyze(d, Action::Summary { json: false }, traced(None, None, true, false)),
            ),
            ("/tmp/study/net15 instances", analyze(d, Action::Instances, plain())),
            ("/tmp/study/net15 roles", analyze(d, Action::Roles, plain())),
            ("/tmp/study/net15 blocks", analyze(d, Action::Blocks, plain())),
            ("/tmp/study/net15 external", analyze(d, Action::External, plain())),
            ("/tmp/study/net15 pathway r3", analyze(d, Action::Pathway("r3".into()), plain())),
            ("/tmp/study/net15 dot", analyze(d, Action::Dot { process: false }, plain())),
            ("/tmp/study/net15 dot process", analyze(d, Action::Dot { process: true }, plain())),
            (
                "/tmp/study/net15 reach 10.2.0.0/16 10.4.0.0/16",
                analyze(d, Action::Reach(prefix("10.2.0.0/16"), prefix("10.4.0.0/16")), plain()),
            ),
            (
                "/tmp/study/net15 flow 10.0.0.5 10.1.0.5 tcp 445",
                analyze(
                    d,
                    Action::Flow(Flow {
                        src: "10.0.0.5".parse().expect("addr"),
                        dst: "10.1.0.5".parse().expect("addr"),
                        proto: FlowProto::Tcp,
                        src_port: None,
                        dst_port: Some(445),
                    }),
                    plain(),
                ),
            ),
            ("/tmp/study/net15 audit", analyze(d, Action::Audit, plain())),
            ("/tmp/study/net15 diag", analyze(d, Action::Diag, plain())),
            (
                "/tmp/study/net15 whatif r1 r2",
                analyze(d, Action::Whatif(strings(&["r1", "r2"])), plain()),
            ),
            ("/tmp/study/net15 separation 0 3", analyze(d, Action::Separation(0, 3), plain())),
            (
                "/tmp/study/net15 diff /tmp/other",
                analyze(d, Action::Diff { other: "/tmp/other".into(), networks: false }, plain()),
            ),
            (
                "/tmp/study/net15 diff /tmp/other --networks",
                analyze(d, Action::Diff { other: "/tmp/other".into(), networks: true }, plain()),
            ),
            ("/tmp/mig/current plan /tmp/mig/target", plan(false, false, plain())),
            ("/tmp/mig/current plan /tmp/mig/target --json", plan(true, false, plain())),
            ("/tmp/mig/current plan /tmp/mig/target --check", plan(false, true, plain())),
            (
                "/tmp/mig/current plan /tmp/mig/target --timings",
                plan(false, false, traced(None, None, true, false)),
            ),
            (
                "/tmp/study/net15 anonymize /tmp/anon key1",
                Command::Anonymize {
                    dir: d.into(),
                    out: "/tmp/anon".into(),
                    key: "key1".into(),
                    obs: plain(),
                },
            ),
            ("snap /tmp/study -o study.rdsnap", snap("study.rdsnap", None)),
            ("snap /tmp/study", snap("study.rdsnap", None)),
            (
                "snap /tmp/study -o study.rdsnap --from study.rdsnap",
                snap("study.rdsnap", Some("study.rdsnap")),
            ),
            ("snap --info study.rdsnap", Command::SnapInfo { file: "study.rdsnap".into() }),
            (
                "serve study.rdsnap --addr 127.0.0.1:0",
                Command::Serve {
                    file: "study.rdsnap".into(),
                    server: server("127.0.0.1:0"),
                    plan: None,
                    profile: None,
                },
            ),
            (
                "serve study.rdsnap --plan plan.json",
                Command::Serve {
                    file: "study.rdsnap".into(),
                    server: server("127.0.0.1:8080"),
                    plan: Some("plan.json".into()),
                    profile: None,
                },
            ),
            (
                "serve study.rdsnap --workers 4 --max-conns 64 --profile serve.folded",
                Command::Serve {
                    file: "study.rdsnap".into(),
                    server: Server {
                        addr: "127.0.0.1:8080".into(),
                        options: ServeOptions {
                            workers: 4,
                            max_conns: 64,
                            ..ServeOptions::default()
                        },
                    },
                    plan: None,
                    profile: Some("serve.folded".into()),
                },
            ),
            (
                "watch /tmp/w/configs --addr 127.0.0.1:0 --snapshot /tmp/w/last-good.rdsnap \
                 --poll-ms 50 --debounce-ms 100 --backoff-ms 100 --backoff-max-ms 400 \
                 --degraded-after 2 --seed 1",
                Command::Watch {
                    dir: "/tmp/w/configs".into(),
                    snapshot: "/tmp/w/last-good.rdsnap".into(),
                    server: server("127.0.0.1:0"),
                    watch: watch_opts,
                },
            ),
            (
                "watch /configs --addr 127.0.0.1:8080 --snapshot /var/lib/rdx/last-good.rdsnap",
                Command::Watch {
                    dir: "/configs".into(),
                    snapshot: "/var/lib/rdx/last-good.rdsnap".into(),
                    server: server("127.0.0.1:8080"),
                    watch: WatchOptions::default(),
                },
            ),
            (
                "watch /configs/",
                Command::Watch {
                    dir: "/configs/".into(),
                    snapshot: "/configs.rdsnap".into(),
                    server: server("127.0.0.1:8080"),
                    watch: WatchOptions::default(),
                },
            ),
            ("chaos /tmp/study --seed 1", chaos("/tmp/study", 1, 500, 100, 4096)),
            (
                "chaos /tmp/study --seed 1 --configs 1000 --snapshots 200 --max-rss-mb 2048",
                chaos("/tmp/study", 1, 1000, 200, 2048),
            ),
            ("chaos /tmp/c --seed 7 --configs 40 --snapshots 12", chaos("/tmp/c", 7, 40, 12, 4096)),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line), Ok(want), "{line}");
        }
    }

    /// Lines that are not in the docs but read as they always have.
    #[test]
    fn parse_keeps_the_old_readings() {
        let d = "d";
        let cases: Vec<(&str, Command)> = vec![
            // Flags anywhere, help and version over everything else.
            ("--json d", analyze(d, Action::Summary { json: true }, plain())),
            ("--bogus --help", Command::Help),
            ("snap --help", Command::Help),
            ("--help --version", Command::Version),
            // Separation takes `instanceN` as well as `N`.
            ("d separation instance0 instance3", analyze(d, Action::Separation(0, 3), plain())),
            // A port that does not parse leaves the flow portless.
            (
                "d flow 10.0.0.5 10.1.0.5 udp xyz",
                analyze(
                    d,
                    Action::Flow(Flow {
                        src: "10.0.0.5".parse().expect("addr"),
                        dst: "10.1.0.5".parse().expect("addr"),
                        proto: FlowProto::Udp,
                        src_port: None,
                        dst_port: None,
                    }),
                    plain(),
                ),
            ),
            // Trailing operands of an analysis command are ignored.
            ("d summary extra", analyze(d, Action::Summary { json: false }, plain())),
            ("d pathway r1 r2", analyze(d, Action::Pathway("r1".into()), plain())),
            // `--info` wins over a directory operand.
            ("snap st --info s.rdsnap", Command::SnapInfo { file: "s.rdsnap".into() }),
            // `--trace -` names stderr; `--out` is `-o`'s long form.
            (
                "d --trace - summary",
                analyze(d, Action::Summary { json: false }, traced(Some("-"), None, false, false)),
            ),
            (
                "snap --out o.rdsnap st",
                Command::Snap { dir: "st".into(), out: "o.rdsnap".into(), from: None },
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line), Ok(want), "{line}");
        }
    }

    /// Every value flag, by table: a base line and flag, a good value and,
    /// for a typed flag, a bad one.
    static VALUE_FLAGS: &[(&Table, &str, &str, &str, Option<&str>)] = &[
        (&ANALYZE, "d summary", "--trace", "t.jsonl", None),
        (&ANALYZE, "d summary", "--profile", "p.folded", None),
        (&SNAP, "snap st", "--out", "o.rdsnap", None),
        (&SNAP, "snap st", "--from", "p.rdsnap", None),
        (&SNAP, "snap", "--info", "s.rdsnap", None),
        (&SERVE, "serve s.rdsnap", "--addr", "127.0.0.1:0", None),
        (&SERVE, "serve s.rdsnap", "--workers", "2", Some("x")),
        (&SERVE, "serve s.rdsnap", "--max-conns", "8", Some("0")),
        (&SERVE, "serve s.rdsnap", "--plan", "plan.json", None),
        (&SERVE, "serve s.rdsnap", "--profile", "p.folded", None),
        (&WATCH, "watch d", "--snapshot", "d.rdsnap", None),
        (&WATCH, "watch d", "--poll-ms", "50", Some("x")),
        (&WATCH, "watch d", "--debounce-ms", "100", Some("-1")),
        (&WATCH, "watch d", "--backoff-ms", "100", Some("1.5")),
        (&WATCH, "watch d", "--backoff-max-ms", "400", Some("x")),
        (&WATCH, "watch d", "--degraded-after", "2", Some("0")),
        (&WATCH, "watch d", "--seed", "1", Some("x")),
        (&WATCH, "watch d", "--addr", "127.0.0.1:0", None),
        (&WATCH, "watch d", "--workers", "2", Some("x")),
        (&WATCH, "watch d", "--max-conns", "8", Some("0")),
        (&CHAOS, "chaos d", "--seed", "1", Some("x")),
        (&CHAOS, "chaos d", "--configs", "40", Some("x")),
        (&CHAOS, "chaos d", "--snapshots", "12", Some("-3")),
        (&CHAOS, "chaos d", "--max-rss-mb", "2048", Some("x")),
    ];

    #[test]
    fn every_value_flag_takes_both_spellings_and_rejects_what_it_cannot_use() {
        for table in [&ANALYZE, &SNAP, &SERVE, &WATCH, &CHAOS] {
            for flag in table.all_flags().filter(|f| f.value.is_some()) {
                assert!(
                    VALUE_FLAGS
                        .iter()
                        .any(|(t, _, name, _, _)| std::ptr::eq(*t, table) && *name == flag.name),
                    "{} of `{}` has no row in VALUE_FLAGS",
                    flag.name,
                    table.name
                );
            }
        }
        for (table, base, flag, good, bad) in VALUE_FLAGS {
            let spaced = parse(&format!("{base} {flag} {good}"));
            assert!(spaced.is_ok(), "{base} {flag} {good}: {spaced:?}");
            assert_eq!(parse(&format!("{base} {flag}={good}")), spaced, "{base} {flag}={good}");
            let missing = CliError::MissingValue { flag, metavar: flag_metavar(table, flag) };
            assert_eq!(parse(&format!("{base} {flag}")), Err(Error::Cli(table, missing)));
            if let Some(bad) = bad {
                assert!(
                    matches!(
                        parse(&format!("{base} {flag} {bad}")),
                        Err(Error::Cli(t, CliError::BadValue { name, .. }))
                            if std::ptr::eq(t, *table) && name == *flag
                    ),
                    "{base} {flag} {bad}"
                );
            }
        }
    }

    fn flag_metavar(table: &Table, name: &str) -> &'static str {
        table.all_flags().find(|f| f.name == name).and_then(|f| f.value).expect("a value flag")
    }

    #[test]
    fn usage_errors_are_typed() {
        let cli = |table, e| Err(Error::Cli(table, e));
        let bad = |name, value: &str, reason: &str| CliError::BadValue {
            name,
            value: value.to_string(),
            reason: reason.to_string(),
        };
        let unknown = |flag: &str| CliError::UnknownFlag(flag.to_string());
        let extra = |word: &str| CliError::UnexpectedArgument(word.to_string());
        let cases: Vec<(&str, Result<Command, Error>)> = vec![
            ("", cli(&ANALYZE, CliError::MissingArgument("<config-dir>"))),
            ("--json", cli(&ANALYZE, CliError::MissingArgument("<config-dir>"))),
            ("d summary --bogus", cli(&ANALYZE, unknown("--bogus"))),
            ("d summary -x", cli(&ANALYZE, unknown("-x"))),
            ("d summary --no-cache", cli(&ANALYZE, unknown("--no-cache"))),
            ("d summary --json=1", cli(&ANALYZE, unknown("--json=1"))),
            ("d frob", cli(&ANALYZE, bad("<command>", "frob", "unknown command"))),
            ("d pathway", cli(&ANALYZE, CliError::MissingArgument("<router>"))),
            ("d dot bogus", cli(&ANALYZE, bad("dot", "bogus", "expected process or instances"))),
            ("d reach 10.0.0.0/8", cli(&ANALYZE, CliError::MissingArgument("<dst>"))),
            ("d reach x 10.0.0.0/8", cli(&ANALYZE, bad("<src>", "x", "invalid prefix: \"x\""))),
            ("d flow 10.0.0.1", cli(&ANALYZE, CliError::MissingArgument("<dst>"))),
            (
                "d flow 10.0.0.1 10.0.0.2 bogus",
                cli(&ANALYZE, bad("[proto]", "bogus", "expected ip, tcp, udp, icmp or pim")),
            ),
            ("d separation 0", cli(&ANALYZE, CliError::MissingArgument("<b>"))),
            ("d whatif", cli(&ANALYZE, CliError::MissingArgument("<router>"))),
            ("d diff", cli(&ANALYZE, CliError::MissingArgument("<other-dir>"))),
            ("d plan", cli(&ANALYZE, CliError::MissingArgument("<target-dir>"))),
            ("d anonymize out", cli(&ANALYZE, CliError::MissingArgument("<key>"))),
            ("snap", cli(&SNAP, CliError::MissingArgument("<dir>"))),
            ("snap st extra", cli(&SNAP, extra("extra"))),
            ("snap --info s.rdsnap a b", cli(&SNAP, extra("b"))),
            ("snap st --timings", cli(&SNAP, unknown("--timings"))),
            ("snap st -x", cli(&SNAP, unknown("-x"))),
            ("serve", cli(&SERVE, CliError::MissingArgument("<file.rdsnap>"))),
            ("serve s.rdsnap extra", cli(&SERVE, extra("extra"))),
            ("serve s.rdsnap --no-such-flag", cli(&SERVE, unknown("--no-such-flag"))),
            ("serve s.rdsnap --no-cache", cli(&SERVE, unknown("--no-cache"))),
            (
                "serve s.rdsnap --max-conns 0",
                cli(&SERVE, bad("--max-conns", "0", "number would be zero for non-zero type")),
            ),
            ("watch", cli(&WATCH, CliError::MissingArgument("<config-dir>"))),
            ("watch d extra", cli(&WATCH, extra("extra"))),
            ("watch d --profile p", cli(&WATCH, unknown("--profile"))),
            ("watch d --no-cache", cli(&WATCH, unknown("--no-cache"))),
            ("chaos", cli(&CHAOS, CliError::MissingArgument("<dir>"))),
            ("chaos d extra", cli(&CHAOS, extra("extra"))),
            ("chaos d --seed x", cli(&CHAOS, bad("--seed", "x", "invalid digit found in string"))),
            // A flag given twice must parse both times.
            (
                "chaos d --seed x --seed 1",
                cli(&CHAOS, bad("--seed", "x", "invalid digit found in string")),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line), want, "{line}");
        }
    }

    /// The words of `text`, stripped of synopsis brackets and list commas.
    fn words(text: &str) -> Vec<&str> {
        text.split_whitespace()
            .map(|w| w.trim_matches(|c| c == '[' || c == ']' || c == ','))
            .collect()
    }

    #[test]
    fn every_table_flag_is_in_its_help_synopsis() {
        let help = help_text();
        for (table, prefix) in [
            (&SNAP, "  rdx snap "),
            (&SERVE, "  rdx serve "),
            (&WATCH, "  rdx watch "),
            (&CHAOS, "  rdx chaos "),
        ] {
            // A synopsis is its `rdx <sub>` lines plus their `[...]`
            // continuation lines.
            let mut synopsis = String::new();
            let mut inside = false;
            for line in help.lines() {
                inside = line.starts_with(prefix) || (inside && line.starts_with("            ["));
                if inside {
                    synopsis.push_str(line);
                    synopsis.push('\n');
                }
            }
            let synopsis = words(&synopsis);
            for flag in table.all_flags() {
                assert!(
                    synopsis.contains(&flag.name)
                        || flag.short.is_some_and(|s| synopsis.contains(&s)),
                    "{} is missing from the `{}` synopsis of rdx --help",
                    flag.name,
                    table.name
                );
            }
        }
        let flags_section = help.split("\nflags:\n").nth(1).and_then(|s| s.split("\n\n").next());
        let flags_section = words(flags_section.expect("rdx --help has a flags section"));
        for flag in ANALYZE.all_flags() {
            assert!(
                flags_section.contains(&flag.name),
                "{} is missing from the flags section",
                flag.name
            );
        }
    }

    #[test]
    fn help_matches_the_golden_reference() {
        assert_eq!(help_text(), include_str!("../../../../tests/golden/rdx_help.txt"));
    }
}
