//! `serve_mixed`: closed-loop, pipelined, keep-alive GETs over the
//! `loadgen::mixed_paths` set in a seeded order (each connection keeps
//! `IN_FLIGHT` batches of `PIPELINE` requests outstanding and writes the
//! next batch when the oldest is answered), against a server booted
//! from the small study's snapshot. Nothing is written during the run:
//! this is the request path and the event loop alone. (At full scale the
//! 1–2.3 MB collection bodies turn the run into a loopback-copy test.)
//!
//! Every response must be a 200; the first of every path and every
//! response of one batch in `CHECK_EVERY` must be byte-equal to
//! `rd_serve::render::*` over the same corpus.
//!
//! The traced run loads for half its time as the untraced one does, then
//! for the other half between two `/metrics` scrapes, reporting latency
//! per endpoint class and the server's own counters over that window.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rd_serve::{render, HealthState, ServeOptions, Server};
use rd_snap::Corpus;
use routing_design::snapshot::snap_dir;

use crate::http::{self, Client};
use crate::inputs::{self, Tree};
use crate::report::{
    flush_disk, median, peak_rss_mb, quantile, setup_seconds, timed, Histogram, Report, OP_QUANTILE,
};
use crate::Options;

/// Requests pipelined per write on each connection.
const PIPELINE: usize = 4;
/// Batches a connection keeps written ahead of the responses it reads,
/// so the server's loop finds the next batch waiting instead of idling
/// until the generator is woken, reads, and writes again.
const IN_FLIGHT: usize = 2;
/// One batch in this many has its bodies checked.
const CHECK_EVERY: u64 = 64;
/// Unmeasured load before the measured window.
const WARM_UP: Duration = Duration::from_millis(300);
/// Latency and throughput are read per slice this long, so that both can
/// be taken at the slow end of the run (see `report::END_TO_END`).
const SLICE: Duration = Duration::from_millis(500);

struct Rig {
    tree: Tree,
    snapshot: PathBuf,
    server: Server,
    boot_ms: f64,
}

impl Rig {
    fn boot(work: &Path, opts: &Options) -> Result<Rig, String> {
        let tree = inputs::build_tree(&work.join("tree"), opts.scale, opts.seed)?;
        let outcome = snap_dir(&tree.dir).map_err(|e| format!("snap: {e}"))?;
        if !outcome.dropped.is_empty() {
            return Err(format!("snap dropped {} network(s)", outcome.dropped.len()));
        }
        let snapshot = work.join("serve.rdsnap");
        rd_snap::write_atomic(&snapshot, &outcome.corpus.to_bytes())
            .map_err(|e| format!("persist: {e}"))?;
        let (server, boot_ms) = timed(|| {
            let opts = ServeOptions {
                workers: crate::server_loops(),
                ..ServeOptions::default()
            };
            Server::start_file(&snapshot, "127.0.0.1:0", opts)
        });
        let server = server.map_err(|e| format!("boot server: {e}"))?;
        Ok(Rig {
            tree,
            snapshot,
            server,
            boot_ms,
        })
    }

    fn teardown(self) {
        self.server.shutdown();
    }
}

pub fn run(work: &Path, opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let (rig, first_ms) = timed(|| Rig::boot(work, opts));
    let rig = rig?;
    let result = drive(&rig, work, opts, &mut report);
    rig.teardown();
    result?;
    if !opts.trace {
        let setup_s = setup_seconds(first_ms / 1e3, || Rig::boot(work, opts), Rig::teardown)?;
        report.set("setup_s", setup_s);
    }
    Ok(report)
}

fn drive(rig: &Rig, work: &Path, opts: &Options, report: &mut Report) -> Result<(), String> {
    let (corpus, decode_ms) = timed(|| Corpus::read_file_with_trailer(&rig.snapshot));
    let (corpus, trailer) = corpus?;
    let names: Vec<String> = corpus.networks.iter().map(|n| n.name.clone()).collect();
    let paths = inputs::request_order(opts.seed, rd_bench::loadgen::mixed_paths(&names));
    let expected: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| expected_body(&corpus, p).ok_or_else(|| format!("no renderer for {p}")))
        .collect::<Result<_, _>>()?;
    let addr = rig.server.local_addr();

    if opts.trace {
        crate::cold::trace(
            &rig.tree,
            work,
            Duration::ZERO,
            crate::TRACE_REPS,
            trailer,
            report,
        )?;
        report.set("rd_snap.decode_ms", decode_ms);
        report.set("rd_serve.boot_ms", rig.boot_ms - decode_ms);
        let renders: Vec<[f64; 4]> = (0..crate::TRACE_REPS)
            .map(|_| crate::fresh::render_ms(&corpus))
            .collect();
        for (i, name) in crate::fresh::RENDER_METRICS.into_iter().enumerate() {
            report.set(
                name,
                median(&renders.iter().map(|r| r[i]).collect::<Vec<_>>()),
            );
        }
    }

    flush_disk();
    let warm = load(addr, &paths, &expected, WARM_UP, true);
    report.ops(warm.requests, &warm.failures);
    // Serving allocates nothing that lasts, so the peak is reached by now.
    report.set("peak_rss_mb", peak_rss_mb());
    if !opts.trace {
        let run = load(addr, &paths, &expected, opts.seconds, false);
        report.ops(run.requests, &run.failures);
        report.set("op_p90_ms", run.slow_latency() / 1e6);
        report.set("ops_per_s_p10", run.throughput());
        return Ok(());
    }

    let plain = load(addr, &paths, &expected, opts.seconds / 2, false);
    report.ops(plain.requests, &plain.failures);
    let before = scrape(addr)?;
    let traced = load(addr, &paths, &expected, opts.seconds / 2, false);
    report.ops(traced.requests, &traced.failures);
    let after = scrape(addr)?;
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };

    for class in ["collection", "network", "processes", "healthz"] {
        let mut lat = Histogram::new();
        for (_, h) in paths
            .iter()
            .zip(&traced.latency)
            .filter(|(p, _)| class_of(p) == class)
        {
            lat.merge(h);
        }
        let name = match class {
            "collection" => "rd_serve.p50_us.collection",
            "network" => "rd_serve.p50_us.network",
            "processes" => "rd_serve.p50_us.processes",
            _ => "rd_serve.p50_us.healthz",
        };
        report.set(name, lat.quantile(0.5) / 1e3);
    }
    let all = traced.all();
    report.set("rd_serve.p99_us", all.quantile(0.99) / 1e3);
    report.set(
        "serve.trace_overhead_us",
        (all.quantile(0.5) - plain.all().quantile(0.5)) / 1e3,
    );
    report.set(
        "rd_serve.bytes_per_req",
        traced.body_bytes as f64 / traced.requests.max(1) as f64,
    );
    let (hit, miss) = (
        delta("http_cache_hit_total"),
        delta("http_cache_miss_total"),
    );
    report.set("rd_serve.cache_hit_ratio", hit / (hit + miss).max(1.0));
    report.set(
        "rd_serve.wakeups_per_req",
        delta("loop_wakeups_total") / delta("http_requests_total").max(1.0),
    );
    report.set(
        "rd_serve.events_per_wakeup",
        delta("loop_wakeup_events_sum") / delta("loop_wakeup_events_count").max(1.0),
    );
    let (wait, busy) = (delta("loop_epoll_wait_us_sum"), delta("loop_iter_us_sum"));
    report.set("rd_serve.epoll_wait_share", wait / (wait + busy).max(1.0));
    Ok(())
}

/// Endpoint class of a request path.
fn class_of(path: &str) -> &'static str {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => "healthz",
        ["networks", _] => "network",
        ["networks", _, "processes"] => "processes",
        _ => "collection",
    }
}

/// The body `rd_serve::render` gives for `path` on `corpus`.
fn expected_body(corpus: &Corpus, path: &str) -> Option<Vec<u8>> {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let body = match segments.as_slice() {
        ["healthz"] => render::healthz(corpus, HealthState::Fresh),
        ["networks"] => render::networks_index(corpus),
        ["networks", id] => render::network_summary(corpus.get(id)?),
        ["networks", id, "processes"] => render::network_processes(corpus.get(id)?),
        ["instances"] => render::instances(corpus),
        ["pathways"] => render::pathways(corpus),
        ["diag"] => render::diag(corpus),
        _ => return None,
    };
    Some(body.into_bytes())
}

/// What one load window saw.
struct Load {
    requests: u64,
    body_bytes: u64,
    /// Latencies of the responses completed in each `SLICE` of the window.
    slices: Vec<Histogram>,
    /// Latencies (batch send → response complete) by path index.
    latency: Vec<Histogram>,
    failures: Vec<String>,
}

impl Load {
    fn new(paths: usize) -> Load {
        Load {
            requests: 0,
            body_bytes: 0,
            slices: Vec::new(),
            latency: vec![Histogram::new(); paths],
            failures: Vec::new(),
        }
    }

    /// The slices the window ran to their end.
    fn whole_slices(&self) -> &[Histogram] {
        match self.slices.len() {
            0 | 1 => &self.slices[..],
            n => &self.slices[..n - 1],
        }
    }

    /// Responses per second that 90% of the window's whole slices reach.
    fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .whole_slices()
            .iter()
            .map(|h| h.count() as f64 / SLICE.as_secs_f64())
            .collect();
        quantile(&rates, 1.0 - OP_QUANTILE)
    }

    /// The 90th-percentile latency, in ns, that 90% of the window's whole
    /// slices stay under. (A slice's median shifted by 13% between runs
    /// whose throughput moved by 2%, as the four responses of a batch
    /// straddle it; its 90th percentile moved by 6%.)
    fn slow_latency(&self) -> f64 {
        let p90s: Vec<f64> = self
            .whole_slices()
            .iter()
            .map(|h| h.quantile(OP_QUANTILE))
            .collect();
        quantile(&p90s, OP_QUANTILE)
    }

    fn all(&self) -> Histogram {
        let mut all = Histogram::new();
        for h in &self.latency {
            all.merge(h);
        }
        all
    }
}

/// Closed-loop load for `duration`: each connection keeps `IN_FLIGHT`
/// batches of `PIPELINE` GETs written, and writes another only after
/// reading every response of the oldest. The server's loops plus these
/// connections fill the machine's cores.
fn load(
    addr: SocketAddr,
    paths: &[String],
    expected: &[Vec<u8>],
    duration: Duration,
    check_all: bool,
) -> Load {
    let conns = crate::client_conns();
    let requests: Vec<Vec<u8>> = paths.iter().map(|p| http::request(p)).collect();
    let started = Instant::now();
    let per_conn: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let requests = &requests;
                scope.spawn(move || {
                    connection(
                        addr,
                        requests,
                        expected,
                        c * paths.len() / conns,
                        started,
                        duration,
                        check_all,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect()
    });
    let mut total = Load::new(paths.len());
    for one in per_conn {
        total.requests += one.requests;
        total.body_bytes += one.body_bytes;
        if total.slices.len() < one.slices.len() {
            total.slices.resize(one.slices.len(), Histogram::new());
        }
        for (all, mine) in total.slices.iter_mut().zip(&one.slices) {
            all.merge(mine);
        }
        for (all, mine) in total.latency.iter_mut().zip(&one.latency) {
            all.merge(mine);
        }
        total.failures.extend(one.failures);
    }
    total
}

fn connection(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    expected: &[Vec<u8>],
    mut cursor: usize,
    started: Instant,
    duration: Duration,
    check_all: bool,
) -> Load {
    let n = requests.len();
    let mut out = Load::new(n);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.requests = 1;
            out.failures.push(e);
            return out;
        }
    };
    let mut batch = Vec::new();
    let mut batches = 0u64;
    // Batches written and not yet read: (first path index, send time).
    let mut in_flight = VecDeque::with_capacity(IN_FLIGHT);
    loop {
        while in_flight.len() < IN_FLIGHT && started.elapsed() < duration {
            batch.clear();
            for i in 0..PIPELINE {
                batch.extend_from_slice(&requests[(cursor + i) % n]);
            }
            if let Err(e) = client.send(&batch) {
                out.requests += PIPELINE as u64;
                out.failures.push(e);
                return out;
            }
            in_flight.push_back((cursor, Instant::now()));
            cursor += PIPELINE;
        }
        let Some((first, sent)) = in_flight.pop_front() else {
            break;
        };
        let check = check_all || batches.is_multiple_of(CHECK_EVERY);
        batches += 1;
        for i in 0..PIPELINE {
            let idx = (first + i) % n;
            out.requests += 1;
            match client.recv(check) {
                Ok(resp) => {
                    let ns = sent.elapsed().as_nanos() as u64;
                    out.latency[idx].record(ns);
                    let slice = (started.elapsed().as_nanos() / SLICE.as_nanos()) as usize;
                    if out.slices.len() <= slice {
                        out.slices.resize(slice + 1, Histogram::new());
                    }
                    out.slices[slice].record(ns);
                    out.body_bytes += resp.body_len as u64;
                    if resp.status != 200 {
                        out.failures
                            .push(format!("GET {idx}: status {}", resp.status));
                    } else if check && resp.body != expected[idx] {
                        out.failures
                            .push(format!("GET path #{idx}: body differs from render::*"));
                    }
                }
                Err(e) => {
                    out.failures.push(e);
                    return out;
                }
            }
        }
    }
    out
}

/// The server's `/metrics` sample values by name.
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let resp = Client::connect(addr)?.get("/metrics")?;
    if resp.status != 200 {
        return Err(format!("/metrics: status {}", resp.status));
    }
    let text = String::from_utf8_lossy(&resp.body);
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}
