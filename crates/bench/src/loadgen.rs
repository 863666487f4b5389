//! A keep-alive HTTP load generator for `rd-serve`: N connections, each
//! pipelining batches of mixed-endpoint GETs, with exact latency
//! percentiles from every response.
//!
//! The generator and the server usually share one machine (and in CI one
//! core), so the design optimizes for syscall economy over realism: each
//! connection writes a whole batch of requests in one `write`, then
//! drains the batch's responses through a chunked reader. Latency is
//! measured per response as *completion minus batch send* — the number a
//! pipelined client actually experiences, including queueing behind its
//! own batch. Percentiles are exact (every latency is kept and sorted),
//! not histogram-bucketed, since a few million `u64`s are cheap.
//!
//! Used by `repro --bench` for the `bench_serve` section of
//! `BENCH_repro.json` and by the standalone `loadgen` binary that
//! verify.sh drives against a live `rdx serve`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Load shape: how many connections, how deep each pipeline batch is,
/// how long to run, and which paths to cycle through.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadOptions {
    /// Concurrent keep-alive connections (each gets its own thread).
    pub conns: usize,
    /// Requests pipelined per write on each connection.
    pub pipeline: usize,
    /// How long to keep issuing batches (time-bounded mode). Ignored
    /// when [`max_batches`](LoadOptions::max_batches) is set.
    pub duration: Duration,
    /// Batch-count mode: each connection issues exactly this many
    /// batches (`max_batches * pipeline` requests) instead of running
    /// until the deadline — a deterministic request count for
    /// comparisons across machines of different speeds.
    pub max_batches: Option<u64>,
    /// Request paths, cycled per request. Must be non-empty by the time
    /// [`run`] is called; empty means "let the caller fill in the
    /// standard mix" (see [`mixed_paths`]).
    pub paths: Vec<String>,
    /// Extra connection attempts after the first fails (capped-backoff
    /// spaced), so a server still binding — or an `rdx watch` daemon
    /// mid-boot — does not fail the whole run on a refused connect.
    pub connect_retries: u32,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        // Tuned on the CI box (one core shared with the server): two
        // connections keep both sides busy without scheduler thrash, and
        // 4-deep pipelines amortize syscalls while keeping p99 under the
        // old threaded server's p50 — deeper pipelines buy a little more
        // throughput but each response then queues behind its whole
        // batch (32-deep more than triples p99 for <10% extra req/s).
        LoadOptions {
            conns: 2,
            pipeline: 4,
            duration: Duration::from_secs(3),
            max_batches: None,
            paths: Vec::new(),
            connect_retries: 3,
        }
    }
}

/// Connects to `addr`, retrying up to `retries` additional times with
/// capped exponential spacing (50 ms, 100 ms, 200 ms, … capped at
/// 500 ms). Returns the last error when every attempt fails.
pub fn connect_with_retries(addr: SocketAddr, retries: u32) -> Result<TcpStream, String> {
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(_) if attempt < retries => {
                let delay = Duration::from_millis((50u64 << attempt.min(4)).min(500));
                std::thread::sleep(delay);
                attempt += 1;
            }
            Err(e) => {
                return Err(format!("connect {addr}: {e} (after {} attempt(s))", attempt + 1))
            }
        }
    }
}

/// Aggregate result of one load run.
pub struct LoadStats {
    /// Responses fully received across all connections.
    pub requests: u64,
    /// Non-200 responses plus I/O failures.
    pub errors: u64,
    /// Wall-clock of the measured window.
    pub duration: Duration,
    /// `requests / duration`.
    pub throughput_rps: f64,
    /// Median response latency, microseconds (batch send → completion).
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
    /// Response body bytes received (sanity signal: zero means the
    /// server sent empty bodies, not that the run went fast).
    pub body_bytes: u64,
    /// Per-path breakdown in `opts.paths` order; paths that saw no
    /// responses are omitted.
    pub endpoints: Vec<EndpointStats>,
}

/// Exact percentiles for one request path, split out of the aggregate so
/// a slow endpoint cannot hide behind a fast mix.
pub struct EndpointStats {
    pub path: String,
    pub requests: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
}

/// Per-connection tallies merged into [`LoadStats`] at the end.
struct WorkerStats {
    latencies_us: Vec<u64>,
    /// Latencies split by index into `opts.paths`, parallel to
    /// `latencies_us`.
    by_path: Vec<Vec<u64>>,
    errors: u64,
    body_bytes: u64,
}

/// A chunked response reader over one connection: buffers socket reads
/// and splits them into `content-length`-framed responses.
struct ResponseReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
}

impl ResponseReader {
    fn new() -> ResponseReader {
        ResponseReader { buf: Vec::with_capacity(256 * 1024), pos: 0 }
    }

    /// Reads one response; returns `(status, body_len)`.
    fn next_response(&mut self, stream: &mut TcpStream) -> Result<(u16, usize), String> {
        let head_end = loop {
            if let Some(end) = find_terminator(&self.buf[self.pos..]) {
                break self.pos + end;
            }
            self.fill(stream)?;
        };
        let head = &self.buf[self.pos..head_end];
        let status = parse_status(head)?;
        let body_len = parse_content_length(head)?;
        // 304 and HEAD responses elide the body; the generator only
        // issues plain GETs, so only 304 matters here.
        let body_len = if status == 304 { 0 } else { body_len };
        let total = head_end + body_len;
        while self.buf.len() < total {
            self.fill(stream)?;
        }
        self.pos = total;
        // Reclaim the buffer once the unconsumed tail is small.
        if self.pos > 512 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok((status, body_len))
    }

    fn fill(&mut self, stream: &mut TcpStream) -> Result<(), String> {
        let mut chunk = [0u8; 64 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => Err("connection closed mid-response".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(format!("read failed: {e}")),
        }
    }
}

/// Index one past `\r\n\r\n` in `buf`, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

fn parse_status(head: &[u8]) -> Result<u16, String> {
    let line = head.split(|b| *b == b'\r').next().unwrap_or(head);
    let text = std::str::from_utf8(line).map_err(|_| "non-UTF-8 status line".to_string())?;
    text.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {text}"))
}

fn parse_content_length(head: &[u8]) -> Result<usize, String> {
    let text = std::str::from_utf8(head).map_err(|_| "non-UTF-8 head".to_string())?;
    text.lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .ok_or_else(|| "response without content-length".to_string())?
        .trim()
        .parse()
        .map_err(|e| format!("bad content-length: {e}"))
}

/// One connection's run loop: batches of pipelined GETs until the
/// deadline (or, in batch-count mode, until `max_batches` batches have
/// been issued). Stops (recording one error) on the first I/O failure.
fn worker(addr: SocketAddr, opts: &LoadOptions, offset: usize) -> Result<WorkerStats, String> {
    let stream = connect_with_retries(addr, opts.connect_retries)?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut stream = stream;
    let mut reader = ResponseReader::new();
    let mut stats = WorkerStats {
        latencies_us: Vec::new(),
        by_path: vec![Vec::new(); opts.paths.len()],
        errors: 0,
        body_bytes: 0,
    };

    // Pre-render each path's request once; batches are concatenations.
    let requests: Vec<Vec<u8>> = opts
        .paths
        .iter()
        .map(|p| format!("GET {p} HTTP/1.1\r\nhost: loadgen\r\n\r\n").into_bytes())
        .collect();
    let mut batch = Vec::with_capacity(opts.pipeline * 64);
    let mut cursor = offset; // connections start on different paths

    let deadline = Instant::now() + opts.duration;
    let mut batches_sent = 0u64;
    loop {
        let done = match opts.max_batches {
            Some(n) => batches_sent >= n,
            None => Instant::now() >= deadline,
        };
        if done {
            break;
        }
        batches_sent += 1;
        batch.clear();
        let base = cursor; // response j below came from path (base + j)
        for i in 0..opts.pipeline {
            batch.extend_from_slice(&requests[(cursor + i) % requests.len()]);
        }
        cursor += opts.pipeline;
        let sent = Instant::now();
        if let Err(e) = stream.write_all(&batch) {
            stats.errors += 1;
            return Err(format!("write failed: {e}"));
        }
        for j in 0..opts.pipeline {
            match reader.next_response(&mut stream) {
                Ok((status, body_len)) => {
                    let latency = sent.elapsed().as_micros() as u64;
                    stats.latencies_us.push(latency);
                    stats.by_path[(base + j) % requests.len()].push(latency);
                    stats.body_bytes += body_len as u64;
                    if status != 200 {
                        stats.errors += 1;
                    }
                }
                Err(e) => {
                    stats.errors += 1;
                    return Err(format!("response failed: {e}"));
                }
            }
        }
    }
    Ok(stats)
}

/// Runs the load described by `opts` against `addr` and aggregates the
/// result. Fails if any connection cannot complete its run.
pub fn run(addr: SocketAddr, opts: &LoadOptions) -> Result<LoadStats, String> {
    if opts.paths.is_empty() {
        return Err("no request paths configured".to_string());
    }
    if opts.conns == 0 || opts.pipeline == 0 {
        return Err("conns and pipeline must both be positive".to_string());
    }
    let started = Instant::now();
    let workers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.conns)
            .map(|i| scope.spawn(move || worker(addr, opts, i)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker panicked")).collect()
    });
    let duration = started.elapsed();

    let mut latencies = Vec::new();
    let mut by_path: Vec<Vec<u64>> = vec![Vec::new(); opts.paths.len()];
    let mut errors = 0u64;
    let mut body_bytes = 0u64;
    for w in workers {
        let w = w?;
        latencies.extend(w.latencies_us);
        for (merged, local) in by_path.iter_mut().zip(w.by_path) {
            merged.extend(local);
        }
        errors += w.errors;
        body_bytes += w.body_bytes;
    }
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let endpoints = opts
        .paths
        .iter()
        .zip(by_path.iter_mut())
        .filter(|(_, lats)| !lats.is_empty())
        .map(|(path, lats)| {
            lats.sort_unstable();
            EndpointStats {
                path: path.clone(),
                requests: lats.len() as u64,
                p50_us: percentile(lats, 0.50),
                p99_us: percentile(lats, 0.99),
                p999_us: percentile(lats, 0.999),
            }
        })
        .collect();
    Ok(LoadStats {
        requests,
        errors,
        duration,
        throughput_rps: requests as f64 / duration.as_secs_f64().max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        body_bytes,
        endpoints,
    })
}

/// Exact quantile over sorted latencies (0 for an empty set).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[((sorted.len() - 1) as f64 * q) as usize]
    }
}

/// The standard mixed-endpoint path set for a server with the given
/// network names: every static endpoint plus both per-network routes.
pub fn mixed_paths(networks: &[String]) -> Vec<String> {
    let mut paths = vec![
        "/healthz".to_string(),
        "/networks".to_string(),
        "/instances".to_string(),
        "/pathways".to_string(),
        "/diag".to_string(),
    ];
    for name in networks {
        paths.push(format!("/networks/{name}"));
        paths.push(format!("/networks/{name}/processes"));
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_reader_splits_pipelined_responses() {
        let head = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\n";
        assert_eq!(find_terminator(head), Some(head.len()));
        assert_eq!(parse_status(head).unwrap(), 200);
        assert_eq!(parse_content_length(head).unwrap(), 5);
        assert!(parse_content_length(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        assert_eq!(
            parse_status(b"HTTP/1.1 304 Not Modified\r\n\r\n").unwrap(),
            304
        );
    }

    #[test]
    fn mixed_paths_cover_every_endpoint() {
        let paths = mixed_paths(&["net1".to_string()]);
        assert!(paths.contains(&"/diag".to_string()));
        assert!(paths.contains(&"/networks/net1/processes".to_string()));
        assert_eq!(paths.len(), 7);
    }
}
