//! Minimal HTTP/1.1 parsing and response rendering over byte buffers.
//!
//! The event loop accumulates raw bytes per connection and asks this
//! module two questions: *is there a complete request head in this
//! buffer?* ([`find_head_end`], resumable so slowloris clients cost O(1)
//! per byte) and *what does it say?* ([`parse_head`], zero-allocation —
//! every field borrows the buffer). Strict input limits are enforced
//! before buffering grows, so a hostile client cannot make the server
//! allocate unboundedly:
//!
//! - request line longer than [`MAX_REQUEST_LINE`] → 400
//! - header block longer than [`MAX_HEAD_BYTES`] (or any single header
//!   line longer than [`MAX_HEADER_LINE`], or more than [`MAX_HEADERS`]
//!   headers) → 431
//! - declared body longer than [`MAX_BODY_BYTES`] → 413
//!
//! Every response is a `Response` value that frames itself onto the
//! connection's write buffer; a cache entry carries its pre-framed
//! keep-alive bytes, so the hot path is one copy of them.

use std::borrow::Cow;
use std::io::Write as _;

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 4096;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8192;
/// Cap on the whole request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 32 * 1024;
/// Most headers accepted in one request.
pub const MAX_HEADERS: usize = 64;
/// Largest declared request body the server will drain.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// A parsed request head, borrowing the connection's read buffer.
#[derive(Debug)]
pub struct HeadView<'a> {
    /// Request method as received (`GET`, `HEAD`, `POST`, ...).
    pub method: &'a str,
    /// The request target (path + optional query), as received.
    pub target: &'a str,
    /// True when the connection should stay open after the response.
    pub keep_alive: bool,
    /// Declared `Content-Length`, if any.
    pub content_length: usize,
    /// Trimmed `If-None-Match` value, if the header was present.
    pub if_none_match: Option<&'a str>,
}

impl HeadView<'_> {
    /// The target with any query string stripped — what routing matches.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(self.target)
    }

    /// True when `If-None-Match` matches the entity tag `etag` (already
    /// quoted), honoring the `*` wildcard and weak-comparison prefixes.
    pub fn none_match(&self, etag: &str) -> bool {
        let Some(raw) = self.if_none_match else {
            return false;
        };
        raw.split(',').map(str::trim).any(|candidate| {
            candidate == "*" || candidate == etag || candidate.strip_prefix("W/") == Some(etag)
        })
    }
}

/// A protocol-level rejection: status to send, plus a short reason for
/// the JSON error body. After any of these the connection must close —
/// the stream position is unreliable past a malformed request.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status code to respond with.
    pub status: u16,
    /// Short human-readable reason, included in the JSON error body.
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError { status, message: message.into() }
    }
}

/// Finds the end of a request head in `buf`: the index one past the
/// blank line (`\r\n\r\n`, or bare `\n\n`, tolerated). `scanned` is how
/// far a previous call already looked, so repeated calls on a growing
/// buffer re-examine only new bytes (minus a 3-byte overlap for a
/// terminator split across reads).
pub fn find_head_end(buf: &[u8], scanned: usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    for (off, b) in buf[from..].iter().enumerate() {
        let i = from + off;
        if *b != b'\n' || i == 0 {
            continue;
        }
        if buf[i - 1] == b'\n' {
            return Some(i + 1);
        }
        if i >= 3 && buf[i - 1] == b'\r' && buf[i - 2] == b'\n' && buf[i - 3] == b'\r' {
            return Some(i + 1);
        }
    }
    None
}

/// Case-insensitive ASCII substring test (for `Connection` tokens).
fn contains_token(value: &str, token: &str) -> bool {
    let (v, t) = (value.as_bytes(), token.as_bytes());
    v.len() >= t.len()
        && v.windows(t.len()).any(|w| w.eq_ignore_ascii_case(t))
}

/// Parses a complete request head (everything through the blank line).
/// Borrows `head` throughout — the hot path allocates nothing.
pub fn parse_head(head: &[u8]) -> Result<HeadView<'_>, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::new(400, "request head is not valid UTF-8"))?;
    let mut lines = text.split_terminator('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(HttpError::new(400, "request line exceeds limit"));
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::new(400, "malformed request line")),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::new(400, "unsupported HTTP version")),
    };

    let mut keep_alive = http11;
    let mut content_length = 0usize;
    let mut if_none_match = None;
    let mut count = 0usize;
    for line in lines {
        if line.is_empty() {
            break;
        }
        count += 1;
        if count > MAX_HEADERS {
            return Err(HttpError::new(431, "too many headers"));
        }
        if line.len() > MAX_HEADER_LINE {
            return Err(HttpError::new(431, "header line exceeds limit"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, "malformed header line"));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("connection") {
            if contains_token(value, "close") {
                keep_alive = false;
            } else if contains_token(value, "keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length =
                value.parse().map_err(|_| HttpError::new(400, "invalid Content-Length"))?;
        } else if name.eq_ignore_ascii_case("if-none-match") {
            if_none_match = Some(value);
        }
    }

    Ok(HeadView { method, target, keep_alive, content_length, if_none_match })
}

/// The canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response as the server decided it; [`Response::write`] frames it
/// onto a connection's write buffer. Every response the server sends
/// goes through one of these.
pub(crate) struct Response<'a> {
    /// Status code; the reason phrase comes from [`reason`].
    pub status: u16,
    /// The `content-type` value (omitted on a 304, which has no body).
    pub content_type: &'static str,
    /// The body; HEAD elides it but keeps its `content-length`.
    pub body: Cow<'a, [u8]>,
    /// The snapshot's entity tag, on snapshot-derived responses.
    pub etag: Option<&'a str>,
    /// Status-specific header lines, such as `allow: ...\r\n`.
    pub extra: &'static str,
    /// This same response already framed for keep-alive (a cache
    /// entry), copied whole when the request keeps the connection open
    /// and wants the body.
    pub framed: Option<&'a [u8]>,
}

impl Response<'_> {
    /// A JSON response with no entity tag and no extra headers.
    pub(crate) fn json(status: u16, body: String) -> Response<'static> {
        Response {
            status,
            content_type: "application/json",
            body: Cow::Owned(body.into_bytes()),
            etag: None,
            extra: "",
            framed: None,
        }
    }

    /// A JSON error response (see [`error_body`]).
    pub(crate) fn error(status: u16, message: &str) -> Response<'static> {
        Response::json(status, error_body(status, message))
    }

    /// Appends the response to `out`. Headers are lowercase, in a fixed
    /// order (`content-type`, `content-length`, `etag`, `connection`,
    /// then `extra` verbatim), so a cache entry framed once and the same
    /// body framed per request are byte-identical. `head_only` elides
    /// the body while keeping its `content-length`: the HEAD semantics.
    pub(crate) fn write(&self, out: &mut Vec<u8>, keep_alive: bool, head_only: bool) {
        if let (Some(framed), true, false) = (self.framed, keep_alive, head_only) {
            // The hot path: one copy of the pre-framed response.
            out.extend_from_slice(framed);
            return;
        }
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        if self.status != 304 {
            let _ = write!(out, "content-type: {}\r\n", self.content_type);
        }
        let _ = write!(out, "content-length: {}\r\n", self.body.len());
        if let Some(tag) = self.etag {
            let _ = write!(out, "etag: {tag}\r\n");
        }
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let _ = write!(out, "connection: {connection}\r\n{}\r\n", self.extra);
        if !head_only {
            out.extend_from_slice(&self.body);
        }
    }
}

/// The prebuilt 503 rejection written when the connection cap is hit:
/// `retry-after` tells well-behaved clients when to come back, and the
/// connection always closes.
pub fn busy_response() -> Vec<u8> {
    let busy = Response::error(503, "server busy; connection limit reached");
    let mut out = Vec::new();
    Response { extra: "retry-after: 1\r\n", ..busy }.write(&mut out, false, false);
    out
}

/// A JSON error body for non-200 responses.
pub fn error_body(status: u16, message: &str) -> String {
    let mut w = rd_obs::json::Writer::object(rd_obs::json::Layout::Inline);
    w.key("error").str(message).key("status").num(status);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n", 0), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n", 0), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nGET /x", 0), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n", 0), None);
        // Mixed bare-LF line + CRLF blank is not a terminator (matches the
        // old byte-at-a-time reader).
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\r\n", 0), None);
        // Resumable: a terminator split across reads is still found when
        // the scan restarts past it minus the overlap.
        let full = b"GET / HTTP/1.1\r\n\r\n";
        for split in 1..full.len() {
            assert_eq!(find_head_end(full, split), Some(18), "split at {split}");
        }
    }

    #[test]
    fn head_parsing() {
        let req = parse_head(b"GET /networks HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/networks");
        assert!(req.keep_alive);
        assert_eq!(req.content_length, 0);
        assert!(req.if_none_match.is_none());

        // HTTP/1.0 defaults to close; keep-alive is opt-in.
        let req = parse_head(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
        let req = parse_head(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);

        let req = parse_head(b"POST / HTTP/1.1\r\nContent-Length: 12\r\n\r\n").unwrap();
        assert_eq!(req.content_length, 12);

        // Query stripping and conditional requests.
        let req =
            parse_head(b"GET /networks?verbose=1 HTTP/1.1\r\nIf-None-Match: \"abc\"\r\n\r\n")
                .unwrap();
        assert_eq!(req.path(), "/networks");
        assert_eq!(req.if_none_match, Some("\"abc\""));
        assert!(req.none_match("\"abc\""));
        assert!(!req.none_match("\"def\""));
        let req = parse_head(b"GET / HTTP/1.1\r\nif-none-match: W/\"x\", \"y\"\r\n\r\n").unwrap();
        assert!(req.none_match("\"x\""));
        assert!(req.none_match("\"y\""));
        let req = parse_head(b"GET / HTTP/1.1\r\nIf-None-Match: *\r\n\r\n").unwrap();
        assert!(req.none_match("\"anything\""));
    }

    #[test]
    fn head_rejections() {
        assert_eq!(parse_head(b"GET\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse_head(b"GET /\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse_head(b"GET / SPDY/9\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse_head(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse_head(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").unwrap_err().status,
            400
        );

        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert_eq!(parse_head(long_line.as_bytes()).unwrap_err().status, 400);

        let long_header =
            format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "b".repeat(MAX_HEADER_LINE));
        assert_eq!(parse_head(long_header.as_bytes()).unwrap_err().status, 431);

        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..=MAX_HEADERS).map(|i| format!("x-{i}: v\r\n")).collect::<String>()
        );
        assert_eq!(parse_head(many.as_bytes()).unwrap_err().status, 431);
    }

    #[test]
    fn response_rendering() {
        let render = |r: Response<'_>, keep_alive: bool, head_only: bool| {
            let mut out = Vec::new();
            r.write(&mut out, keep_alive, head_only);
            String::from_utf8(out).unwrap()
        };
        let tagged = |status, body: &str| Response {
            etag: Some("\"t\""),
            ..Response::json(status, body.to_string())
        };
        assert_eq!(
            render(tagged(200, "{}"), true, false),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\netag: \"t\"\r\nconnection: keep-alive\r\n\r\n{}"
        );

        // Zero-length body keeps explicit framing; HEAD keeps the length
        // of the body it elides.
        let text = render(Response::json(200, String::new()), false, false);
        assert!(text.contains("content-length: 0\r\n"));
        let text = render(Response::json(200, "abcde".to_string()), true, true);
        assert!(text.contains("content-length: 5\r\n") && text.ends_with("\r\n\r\n"));

        // A pre-framed response is copied whole only for a keep-alive
        // GET; HEAD and close frame the body afresh.
        let framed = Response { framed: Some(b"FRAMED"), ..tagged(200, "{}") };
        assert_eq!(render(framed, true, false), "FRAMED");
        let framed = Response { framed: Some(b"FRAMED"), ..tagged(200, "{}") };
        assert!(render(framed, false, false).ends_with("connection: close\r\n\r\n{}"));

        // 304 has no content-type and an empty body, and the busy
        // rejection carries retry-after + close.
        let text = render(tagged(304, ""), true, false);
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(!text.contains("content-type"));
        assert!(text.contains("content-length: 0\r\n") && text.contains("etag: \"t\"\r\n"));
        let busy = String::from_utf8(busy_response()).unwrap();
        assert!(busy.starts_with("HTTP/1.1 503 "));
        assert!(busy.contains("retry-after: 1\r\n") && busy.contains("connection: close\r\n"));
    }
}
