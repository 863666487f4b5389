//! A minimal keep-alive HTTP/1.1 client for `rd-serve`: pipelined GETs,
//! `content-length` framing, and the `etag` header. Unlike the repo's
//! `loadgen` it keeps bodies on request, so responses can be checked.
//!
//! The socket is non-blocking and the client yields its core while it
//! waits instead of sleeping in `read`: a sleeping client lets its
//! virtual CPU halt, and every batch of responses then has to wake it
//! through the host. In four alternating 20-s `serve_mixed` runs on a
//! shared 2-vCPU VM the yielding client saw 96k–115k responses/s and a
//! 90th-percentile latency of 100–109 µs, the sleeping one 87k–97k/s and
//! 107–121 µs.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a read or write may wait before the connection counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One response; `body` is empty unless it was asked for.
pub struct Response {
    pub status: u16,
    pub etag: Option<String>,
    pub body_len: usize,
    pub body: Vec<u8>,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Length of the response `recv` last returned, still at the front
    /// of `buf`.
    pos: usize,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 20),
            pos: 0,
        })
    }

    /// Writes pre-rendered requests (one or many, pipelined) in one call.
    pub fn send(&mut self, requests: &[u8]) -> Result<(), String> {
        let deadline = Instant::now() + TIMEOUT;
        let mut rest = requests;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err("write: connection closed".to_string()),
                Ok(n) => rest = &rest[n..],
                Err(e) if retry(&e, deadline) => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Reads the next response, copying its body only when `keep_body`.
    pub fn recv(&mut self, keep_body: bool) -> Result<Response, String> {
        // Offsets below stay valid only while nothing is drained mid-read.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let head_end = loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                break end + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "non-UTF-8 response head".to_string())?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let mut body_len = 0;
        let mut etag = None;
        for line in head.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                body_len = value
                    .trim()
                    .parse()
                    .map_err(|e| format!("content-length: {e}"))?;
            } else if name.eq_ignore_ascii_case("etag") {
                etag = Some(value.trim().to_string());
            }
        }
        if status == 304 {
            body_len = 0;
        }
        while self.buf.len() < head_end + body_len {
            self.fill()?;
        }
        let body = if keep_body {
            self.buf[head_end..head_end + body_len].to_vec()
        } else {
            Vec::new()
        };
        self.pos = head_end + body_len;
        Ok(Response {
            status,
            etag,
            body_len,
            body,
        })
    }

    /// One GET, body kept.
    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.send(&request(path))?;
        self.recv(true)
    }

    fn fill(&mut self) -> Result<(), String> {
        let start = self.buf.len();
        self.buf.resize(start + 64 * 1024, 0);
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match self.stream.read(&mut self.buf[start..]) {
                Ok(0) => {
                    self.buf.truncate(start);
                    return Err("connection closed mid-response".to_string());
                }
                Ok(n) => {
                    self.buf.truncate(start + n);
                    return Ok(());
                }
                Err(e) if retry(&e, deadline) => {}
                Err(e) => {
                    self.buf.truncate(start);
                    return Err(format!("read: {e}"));
                }
            }
        }
    }
}

/// Whether a non-blocking call that failed with `e` should be retried:
/// it would have blocked (the core is yielded first) or was interrupted,
/// and `deadline` has not passed.
fn retry(e: &std::io::Error, deadline: Instant) -> bool {
    match e.kind() {
        ErrorKind::Interrupted => true,
        ErrorKind::WouldBlock if Instant::now() < deadline => {
            std::thread::yield_now();
            true
        }
        _ => false,
    }
}

/// The request bytes of one keep-alive GET.
pub fn request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n\r\n").into_bytes()
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
