//! Event-loop behavior of the epoll-based `rd-serve`: conditional
//! requests, HEAD/zero-length framing, pipelined errors, slowloris
//! deadlines, partial writes under buffer pressure, connection-cap
//! rejection, and snapshot hot reload under load.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rd_serve::{ServeOptions, Server};

mod common;
use common::{connect, corpus_of, counter, workers};

fn start_server() -> Server {
    let corpus = corpus_of(&["net1", "net2"]);
    Server::start(corpus, None, "127.0.0.1:0", workers(2)).expect("server starts")
}

/// Reads one complete response from a persistent stream: returns
/// (head text, body bytes) using `content-length` framing.
fn read_response_full(stream: &mut TcpStream, head_only: bool) -> (String, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head_text = String::from_utf8(head).expect("utf-8 head");
    let len: usize = head_text
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length header")
        .parse()
        .expect("numeric content-length");
    // HEAD and 304 responses declare the length but elide the body.
    let status: u16 = head_text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body_len = if status == 304 || head_only { 0 } else { len };
    let mut body = vec![0u8; body_len];
    stream.read_exact(&mut body).expect("response body");
    (head_text, body)
}

/// [`read_response_full`] for a GET/POST exchange (body expected).
fn read_response(stream: &mut TcpStream) -> (String, Vec<u8>) {
    read_response_full(stream, false)
}

#[test]
fn plan_endpoint_serves_the_attached_document_and_404s_without_one() {
    let plan_doc = "{\n  \"plan\": {\"units\": 0, \"steps\": []}\n}\n".to_string();
    let opts = ServeOptions { workers: 1, plan: Some(plan_doc.clone()), ..ServeOptions::default() };
    let server = Server::start(corpus_of(&["net1"]), None, "127.0.0.1:0", opts).expect("starts");
    let mut stream = connect(&server);
    stream.write_all(b"GET /plan HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("etag: "), "plan responses are snapshot-tagged: {head}");
    assert_eq!(body, plan_doc.as_bytes(), "served verbatim");
    // A non-canonical spelling reaches the same cached bytes.
    stream.write_all(b"GET //plan HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, plan_doc.as_bytes());
    drop(stream);
    server.shutdown();

    let server =
        Server::start(corpus_of(&["net1"]), None, "127.0.0.1:0", workers(1)).expect("starts");
    let mut stream = connect(&server);
    stream.write_all(b"GET /plan HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(
        String::from_utf8_lossy(&body).contains("no plan loaded"),
        "{}",
        String::from_utf8_lossy(&body)
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn non_canonical_spellings_are_served_from_the_cache() {
    let opts = ServeOptions { workers: 1, ..ServeOptions::default() };
    let server =
        Server::start(corpus_of(&["net1", "net2"]), None, "127.0.0.1:0", opts).expect("starts");
    let etag = server.etag();
    let hits_before = counter("http.cache_hit");
    let mut stream = connect(&server);
    let mut get = |target: &str, validator: &str| -> (String, Vec<u8>) {
        let mut request = format!("GET {target} HTTP/1.1\r\nhost: t\r\n");
        if !validator.is_empty() {
            request += &format!("if-none-match: {validator}\r\n");
        }
        stream.write_all(format!("{request}\r\n").as_bytes()).unwrap();
        read_response(&mut stream)
    };

    let mut paths: Vec<String> =
        ["/networks", "/instances", "/pathways", "/diag"].map(String::from).to_vec();
    for id in ["net1", "net2"] {
        paths.push(format!("/networks/{id}"));
        paths.push(format!("/networks/{id}/processes"));
    }
    let mut sent = 0u64;
    for path in &paths {
        let (head, body) = get(path, "");
        assert!(head.starts_with("HTTP/1.1 200"), "{path}: {head}");
        assert!(head.contains(&format!("etag: {etag}\r\n")), "{path}: {head}");
        for spelling in [format!("/{path}"), format!("{path}/")] {
            // Same status line, headers (etag included) and body.
            let (h, b) = get(&spelling, "");
            assert_eq!(h, head, "{spelling}");
            assert_eq!(b, body, "{spelling}");
            let (h, b) = get(&spelling, &etag);
            assert!(h.starts_with("HTTP/1.1 304"), "{spelling}: {h}");
            assert!(h.contains(&format!("etag: {etag}\r\n")), "{spelling}: {h}");
            assert!(b.is_empty());
            sent += 2;
        }
    }

    // `/metrics` on the same connection folds this loop's batched stats
    // into the registry before it renders.
    let (head, _) = get("/metrics", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let hits = counter("http.cache_hit") - hits_before;
    assert!(hits >= sent, "{hits} cache hits for {sent} non-canonical requests");
    server.shutdown();
}

#[test]
fn etag_and_conditional_requests() {
    let server = start_server();
    let etag = server.etag();
    assert!(etag.starts_with('"') && etag.ends_with('"') && etag.len() == 18, "{etag}");

    let mut stream = connect(&server);
    stream
        .write_all(b"GET /networks HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains(&format!("etag: {etag}\r\n")), "{head}");
    assert!(!body.is_empty());

    // Matching validator → 304 with the etag, no content-type, no body.
    stream
        .write_all(
            format!("GET /networks HTTP/1.1\r\nhost: t\r\nif-none-match: {etag}\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 304 Not Modified"), "{head}");
    assert!(head.contains(&format!("etag: {etag}\r\n")), "{head}");
    assert!(!head.contains("content-type"), "{head}");
    assert!(body.is_empty());

    // Weak and list forms match too; a stale validator gets a 200.
    for value in [format!("W/{etag}"), format!("\"stale\", {etag}"), "*".to_string()] {
        stream
            .write_all(
                format!("GET /networks HTTP/1.1\r\nhost: t\r\nif-none-match: {value}\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
        let (head, _) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 304"), "{value}: {head}");
    }
    stream
        .write_all(
            b"GET /networks HTTP/1.1\r\nhost: t\r\nif-none-match: \"0000000000000000\"\r\n\r\n",
        )
        .unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(!body.is_empty());
    server.shutdown();
}

#[test]
fn request_right_after_publish_gets_the_new_snapshot() {
    let server =
        Server::start(corpus_of(&["net1"]), None, "127.0.0.1:0", workers(1)).expect("starts");
    let mut stream = connect(&server);
    let get = b"GET /networks HTTP/1.1\r\nhost: t\r\n\r\n";
    stream.write_all(get).unwrap();
    let (head, old_body) = read_response(&mut stream);
    assert!(head.contains(&format!("etag: {}\r\n", server.etag())), "{head}");

    // The loop is idle in its wait when `publish` returns; the next
    // request on the same connection must already see the new corpus.
    let corpus = corpus_of(&["net1", "net2"]);
    let new_body = rd_serve::render::networks_index(&corpus);
    server.controller().publish(corpus, None, "test");
    let etag = server.etag();
    stream.write_all(get).unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.contains(&format!("etag: {etag}\r\n")), "stale etag after publish: {head}");
    assert_eq!(String::from_utf8(body).unwrap(), new_body);
    assert_ne!(new_body.as_bytes(), old_body);
    drop(stream);
    server.shutdown();
}

#[test]
fn head_requests_and_zero_length_framing() {
    let server = start_server();
    let mut stream = connect(&server);

    // HEAD declares the GET's length but sends no body; the connection
    // must stay correctly framed for the next request.
    stream
        .write_all(b"HEAD /networks/net1 HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (head, body) = read_response_full(&mut stream, true);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("connection: keep-alive"), "{head}");
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(declared > 0);
    assert!(body.is_empty(), "HEAD must elide the body");

    // A zero-length (304) response next on the same connection.
    let etag = server.etag();
    stream
        .write_all(
            format!("GET /networks/net1 HTTP/1.1\r\nhost: t\r\nif-none-match: {etag}\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let (head, _) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 304"), "{head}");
    assert!(head.contains("content-length: 0\r\n"), "{head}");

    // And the full GET still arrives intact with exactly the HEAD length.
    stream
        .write_all(b"GET /networks/net1 HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body.len(), declared, "HEAD length must match GET body");

    // HEAD on an error path frames correctly too.
    let mut stream = connect(&server);
    stream
        .write_all(b"HEAD /nope HTTP/1.1\r\nhost: t\r\n\r\nGET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let (head, body) = read_response_full(&mut stream, true);
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(body.is_empty(), "HEAD 404 must elide the body");
    let (head, _) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    server.shutdown();
}

#[test]
fn pipelined_errors_close_cleanly() {
    let server = start_server();

    // A malformed request followed by pipelined input: the 400 must
    // arrive in full (lingering close), and nothing after it is served.
    let mut stream = connect(&server);
    stream
        .write_all(b"NOT-HTTP\r\n\r\nGET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read to close");
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    assert!(out.contains("connection: close"), "{out}");
    assert_eq!(out.matches("HTTP/1.1").count(), 1, "pipelined request must not be served: {out}");

    // Same for an oversized declared body (413) with the body bytes and
    // another request already in flight behind it.
    let mut stream = connect(&server);
    let mut bytes = b"POST /networks HTTP/1.1\r\nhost: t\r\ncontent-length: 999999999\r\n\r\n"
        .to_vec();
    bytes.extend_from_slice(&[b'x'; 4096]);
    bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    stream.write_all(&bytes).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read to close");
    assert!(out.starts_with("HTTP/1.1 413"), "{out}");
    assert_eq!(out.matches("HTTP/1.1").count(), 1, "{out}");

    // A request with a small declared body is drained and the connection
    // survives: the pipelined request behind it is answered.
    let mut stream = connect(&server);
    stream
        .write_all(
            b"POST /admin/reload HTTP/1.1\r\nhost: t\r\ncontent-length: 2\r\n\r\n{}GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
    let (head, _) = read_response(&mut stream);
    // No reload file is configured on this server → 409, keep-alive.
    assert!(head.starts_with("HTTP/1.1 409"), "{head}");
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(String::from_utf8(body).unwrap().contains("\"status\": \"ok\""));
    server.shutdown();
}

#[test]
fn truncated_body_then_eof_closes_with_single_400() {
    // One worker: if the loop spins on the truncated body (the skip
    // surviving into the error state), the follow-up connection below
    // would never be served.
    let opts = ServeOptions { workers: 1, ..ServeOptions::default() };
    let server = Server::start(corpus_of(&["net1"]), None, "127.0.0.1:0", opts).expect("starts");

    // Declared body never arrives at all, then FIN: the request itself
    // is answered, the truncation gets exactly one 400, and the
    // connection closes.
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 10\r\n\r\n")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read to close");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert_eq!(out.matches("HTTP/1.1 400").count(), 1, "exactly one 400: {out}");

    // Same with a partially delivered body.
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\ncontent-length: 10\r\n\r\nabc")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read to close");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert_eq!(out.matches("HTTP/1.1 400").count(), 1, "exactly one 400: {out}");

    // The lone loop thread must still be serving.
    let mut stream = connect(&server);
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    server.shutdown();
}

#[test]
fn slowloris_hits_deadline_wheel() {
    let server = start_server();
    let mut stream = connect(&server);

    // Drip header bytes slower than the read deadline: the timer wheel
    // must cut the connection off with a 400 rather than waiting forever.
    let started = Instant::now();
    for chunk in [&b"GET /hea"[..], &b"lthz HT"[..], &b"TP/1.1\r\n"[..], &b"host:"[..]] {
        stream.write_all(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(700));
    }
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read to close");
    assert!(out.starts_with("HTTP/1.1 400"), "{out}");
    assert!(out.contains("timed out"), "{out}");
    // The deadline is absolute from the last completed request, so the
    // drip-feed cannot extend it indefinitely.
    assert!(started.elapsed() < Duration::from_secs(8), "deadline fired too late");
    server.shutdown();
}

#[test]
fn partial_writes_drain_under_buffer_pressure() {
    let server = start_server();
    let mut stream = connect(&server);

    // Pipeline enough keep-alive requests that the aggregate response
    // bytes far exceed the socket buffer: the server must take the
    // partial-write path (EPOLLOUT re-arm) and, once its write buffer
    // passes the high-water mark, pause reading until the client drains.
    const N: usize = 600;
    let mut pipelined = Vec::new();
    for i in 0..N {
        let connection = if i == N - 1 { "close" } else { "keep-alive" };
        pipelined.extend_from_slice(
            format!("GET /networks/net1 HTTP/1.1\r\nhost: t\r\nconnection: {connection}\r\n\r\n")
                .as_bytes(),
        );
    }
    stream.write_all(&pipelined).unwrap();

    let mut reference: Option<Vec<u8>> = None;
    for i in 0..N {
        let (head, body) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
        match &reference {
            None => reference = Some(body),
            Some(r) => assert_eq!(&body, r, "response {i} diverged"),
        }
    }
    assert!(reference.map(|r| r.len()).unwrap_or(0) > 500, "bodies unexpectedly small");
    // The final response carried connection: close; the stream must EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "bytes after final response");
    server.shutdown();
}

#[test]
fn accept_overflow_rejects_with_busy_503() {
    let opts = ServeOptions { workers: 1, max_conns: 2, ..ServeOptions::default() };
    let server = Server::start(corpus_of(&["net1"]), None, "127.0.0.1:0", opts).expect("starts");
    let before = counter("http.rejected_busy");

    // Fill both connection slots and prove they are registered by
    // completing a request on each.
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut stream = connect(&server);
        stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
        let (head, _) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        held.push(stream);
    }

    // The connection over the cap gets an immediate 503 with
    // retry-after and a close, and the rejection is counted.
    let mut stream = connect(&server);
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read rejection");
    assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    assert!(out.contains("retry-after: 1"), "{out}");
    assert!(out.contains("connection: close"), "{out}");
    assert!(counter("http.rejected_busy") > before, "rejection not counted");

    // Releasing a slot lets new connections through again.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut stream = connect(&server);
        stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        if out.starts_with("HTTP/1.1 200") {
            break;
        }
        assert!(Instant::now() < deadline, "slot never freed: {out}");
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
}

#[test]
fn hot_reload_swaps_snapshot_mid_burst() {
    let dir = std::env::temp_dir().join(format!("rd-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.rdsnap");
    rd_snap::write_atomic(&path, &corpus_of(&["net1", "net2"]).to_bytes()).unwrap();

    let server =
        Server::start_file(&path, "127.0.0.1:0", ServeOptions::default()).expect("starts");
    let etag_before = server.etag();
    let ok_before = counter("http.reload_ok");

    // Reference bodies for both snapshot versions.
    let body_of = |server: &Server, path: &str| -> Vec<u8> {
        let mut stream = connect(server);
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes())
            .unwrap();
        let (head, body) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        body
    };
    let healthz_v1 = body_of(&server, "/healthz");
    let net1_pre = body_of(&server, "/networks/net1");

    // Burst traffic on a keep-alive connection throughout the reloads.
    // Every response must be complete and byte-identical to one snapshot
    // version — never dropped, never a mix.
    let stop = Arc::new(AtomicBool::new(false));
    let burst = {
        let stop = stop.clone();
        let addr = server.local_addr();
        std::thread::spawn(move || -> Vec<Vec<u8>> {
            let mut stream = TcpStream::connect(addr).expect("burst connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut bodies = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                    .expect("burst write");
                let (head, body) = read_response(&mut stream);
                assert!(head.starts_with("HTTP/1.1 200"), "burst: {head}");
                bodies.push(body);
            }
            bodies
        })
    };

    // First reload: same file content. The swap must land (counted) and
    // bodies must compare equal before/after.
    server.trigger_reload();
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter("http.reload_ok") < ok_before + 1 {
        assert!(Instant::now() < deadline, "reload never landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.etag(), etag_before, "same snapshot must keep its etag");
    assert_eq!(body_of(&server, "/networks/net1"), net1_pre, "same-content reload changed bytes");

    // Second reload: a different corpus, triggered over HTTP. The etag
    // and the rendered bodies must move to the new snapshot.
    rd_snap::write_atomic(&path, &corpus_of(&["net1", "net2", "net3"]).to_bytes()).unwrap();
    let mut stream = connect(&server);
    stream
        .write_all(b"POST /admin/reload HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(String::from_utf8(body).unwrap().contains("reload scheduled"));
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter("http.reload_ok") < ok_before + 2 {
        assert!(Instant::now() < deadline, "second reload never landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_ne!(server.etag(), etag_before, "new snapshot must change the etag");
    let healthz_v2 = body_of(&server, "/healthz");
    assert_ne!(healthz_v2, healthz_v1);
    assert!(String::from_utf8_lossy(&healthz_v2).contains("\"networks\": 3"));

    stop.store(true, Ordering::Relaxed);
    let bodies = burst.join().expect("burst thread");
    assert!(!bodies.is_empty());
    for (i, body) in bodies.iter().enumerate() {
        assert!(
            body == &healthz_v1 || body == &healthz_v2,
            "burst response {i} matches neither snapshot version: {}",
            String::from_utf8_lossy(body)
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
