//! HTTP protocol edge cases and concurrency behavior of `rd-serve`,
//! exercised over real sockets against a hand-built mini corpus, and the
//! full response bytes of every route class.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rd_serve::{HealthState, ServeOptions, Server};

mod common;
use common::{connect, corpus_of, workers};

fn start_server() -> Server {
    let corpus = corpus_of(&["net1", "net2"]);
    Server::start(corpus, None, "127.0.0.1:0", workers(4)).expect("server starts")
}

/// Sends raw bytes, half-closes the write side, and returns the raw
/// response text.
fn raw_request(server: &Server, bytes: &[u8]) -> String {
    let mut stream = connect(server);
    // The server may reject mid-send (oversized head): tolerate write
    // errors and read whatever response made it back.
    let _ = stream.write_all(bytes);
    stream.shutdown(std::net::Shutdown::Write).ok();
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// GETs `path` and returns (status line, body).
fn get(server: &Server, path: &str) -> (String, String) {
    let response = raw_request(
        server,
        format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    );
    let (head, body) = response.split_once("\r\n\r\n").expect("has header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

#[test]
fn endpoints_answer() {
    let server = start_server();

    let (status, body) = get(&server, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"status\": \"ok\"") && body.contains("\"networks\": 2"), "{body}");

    let (status, body) = get(&server, "/networks");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"name\": \"net1\"") && body.contains("\"name\": \"net2\""));

    let (status, body) = get(&server, "/networks/net1");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"name\": \"net1\"") && body.contains("\"design\""), "{body}");

    let (status, body) = get(&server, "/networks/net1/processes");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"proto\": \"ospf 1\"") || body.contains("\"proto\""), "{body}");

    let (status, body) = get(&server, "/instances");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"network\": \"net1\""), "{body}");

    let (status, body) = get(&server, "/pathways");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"max_depth\""), "{body}");

    let (status, body) = get(&server, "/diag");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"diagnostics\""), "{body}");

    // Request metrics are visible at /metrics after the calls above.
    let (status, body) = get(&server, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("http_requests_total"), "{body}");
    assert!(body.contains("http_request_us_bucket"), "{body}");

    server.shutdown();
}

#[test]
fn protocol_rejections() {
    let server = start_server();

    // Truncated request line: bytes stop mid-line, then EOF.
    let response = raw_request(&server, b"GET /netwo");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // Oversized header → 431.
    let big = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(10 * 1024));
    let response = raw_request(&server, big.as_bytes());
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");

    // Oversized request head overall → 431.
    let huge = format!(
        "GET / HTTP/1.1\r\n{}\r\n",
        (0..8).map(|i| format!("x-{i}: {}\r\n", "b".repeat(7 * 1024))).collect::<String>()
    );
    let response = raw_request(&server, huge.as_bytes());
    assert!(response.starts_with("HTTP/1.1 431"), "{response}");

    // Unknown path → 404.
    let (status, body) = get(&server, "/nope");
    assert!(status.contains("404"), "{status}");
    assert!(body.contains("\"error\""), "{body}");
    let (status, _) = get(&server, "/networks/does-not-exist");
    assert!(status.contains("404"), "{status}");

    // Wrong method → 405 with Allow header.
    let response =
        raw_request(&server, b"POST /networks HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    assert!(response.to_ascii_lowercase().contains("allow: get"), "{response}");

    // Declared body over the cap → 413 (before any method handling).
    let response = raw_request(
        &server,
        b"POST /networks HTTP/1.1\r\nhost: t\r\ncontent-length: 999999999\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");

    // Garbage request line → 400.
    let response = raw_request(&server, b"NOT-HTTP\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests() {
    let server = start_server();
    let mut stream = connect(&server);

    let mut bodies = Vec::new();
    for i in 0..3 {
        let close = i == 2;
        let connection = if close { "close" } else { "keep-alive" };
        stream
            .write_all(
                format!("GET /networks/net1 HTTP/1.1\r\nhost: t\r\nconnection: {connection}\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
        // Read one full response using its content-length.
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            stream.read_exact(&mut byte).expect("response head");
            head.push(byte[0]);
        }
        let head_text = String::from_utf8(head).unwrap();
        assert!(head_text.starts_with("HTTP/1.1 200"), "{head_text}");
        let expected = if close { "connection: close" } else { "connection: keep-alive" };
        assert!(head_text.contains(expected), "{head_text}");
        let len: usize = head_text
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .expect("content-length")
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).expect("response body");
        bodies.push(String::from_utf8(body).unwrap());
    }
    assert_eq!(bodies[0], bodies[1]);
    assert_eq!(bodies[1], bodies[2]);
    server.shutdown();
}

#[test]
fn concurrent_clients_get_identical_bodies() {
    let server = start_server();
    let addr = server.local_addr();
    let (reference_status, reference) = get(&server, "/networks/net2");
    assert!(reference_status.contains("200"), "{reference_status}");

    let mut handles = Vec::new();
    for _ in 0..8 {
        let reference = reference.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..25 {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                stream
                    .write_all(
                        b"GET /networks/net2 HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
                    )
                    .unwrap();
                let mut response = String::new();
                stream.read_to_string(&mut response).expect("read");
                let (head, body) = response.split_once("\r\n\r\n").expect("split");
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                assert_eq!(body, reference, "concurrent body diverged");
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn graceful_shutdown_closes_listener() {
    let server = start_server();
    let addr = server.local_addr();
    let (status, _) = get(&server, "/healthz");
    assert!(status.contains("200"));
    server.shutdown();
    // After shutdown the port no longer accepts (or accepts-then-drops
    // without answering). Either way no 200 comes back.
    let alive = TcpStream::connect_timeout(&addr.into(), Duration::from_millis(300))
        .and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_millis(500)))?;
            s.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")?;
            let mut out = String::new();
            s.read_to_string(&mut out)?;
            Ok(out)
        })
        .map(|out| out.contains("200 OK"))
        .unwrap_or(false);
    assert!(!alive, "server still answering after shutdown");
}

/// The head of a response whose body changes with time, with its
/// content-length masked.
fn masked_head(response: &str) -> String {
    let (head, _) = response.split_once("\r\n\r\n").expect("has header/body split");
    let lines: Vec<&str> = head
        .split("\r\n")
        .map(|l| if l.starts_with("content-length: ") { "content-length: #" } else { l })
        .collect();
    lines.join("\r\n")
}

#[test]
fn every_route_class_answers_with_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("rd-serve-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.rdsnap");
    rd_snap::write_atomic(&path, &corpus_of(&["net1"]).to_bytes()).unwrap();
    let server = Server::start_file(&path, "127.0.0.1:0", ServeOptions::default()).unwrap();
    let send = |request: &str| raw_request(&server, request.as_bytes());
    let get = |target: &str| send(&format!("GET {target} HTTP/1.1\r\nhost: t\r\n\r\n"));

    // Cached 200 as GET, as HEAD, and with `connection: close`, then 304.
    assert_eq!(
        get("/networks"),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 128\r\netag: \"c563c906ea8b55d1\"\r\nconnection: keep-alive\r\n\r\n{\n  \"networks\": [\n    {\"name\": \"net1\", \"routers\": 2, \"links\": 1, \"instances\": 2, \"design\": \"backbone\", \"degraded\": false}\n  ]\n}\n"
    );
    assert_eq!(
        send("HEAD /networks HTTP/1.1\r\nhost: t\r\n\r\n"),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 128\r\netag: \"c563c906ea8b55d1\"\r\nconnection: keep-alive\r\n\r\n"
    );
    assert_eq!(
        send("GET /networks HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 128\r\netag: \"c563c906ea8b55d1\"\r\nconnection: close\r\n\r\n{\n  \"networks\": [\n    {\"name\": \"net1\", \"routers\": 2, \"links\": 1, \"instances\": 2, \"design\": \"backbone\", \"degraded\": false}\n  ]\n}\n"
    );
    assert_eq!(
        send("GET /networks HTTP/1.1\r\nhost: t\r\nif-none-match: \"c563c906ea8b55d1\"\r\n\r\n"),
        "HTTP/1.1 304 Not Modified\r\ncontent-length: 0\r\netag: \"c563c906ea8b55d1\"\r\nconnection: keep-alive\r\n\r\n"
    );

    // Dynamic: /healthz at 200 and 503, ?live=1, /metrics, a debug view.
    assert_eq!(
        get("/healthz"),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 51\r\nconnection: keep-alive\r\ncache-control: no-store\r\n\r\n{\"status\": \"ok\", \"health\": \"fresh\", \"networks\": 1}\n"
    );
    server.controller().set_health(HealthState::Degraded);
    assert_eq!(
        get("/healthz"),
        "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\ncontent-length: 60\r\nconnection: keep-alive\r\ncache-control: no-store\r\n\r\n{\"status\": \"degraded\", \"health\": \"degraded\", \"networks\": 1}\n"
    );
    assert_eq!(
        get("/healthz?live=1"),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 34\r\nconnection: keep-alive\r\ncache-control: no-store\r\n\r\n{\"status\": \"live\", \"networks\": 1}\n"
    );
    server.controller().set_health(HealthState::Fresh);
    assert_eq!(
        masked_head(&get("/metrics")),
        "HTTP/1.1 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\ncontent-length: #\r\nconnection: keep-alive"
    );
    assert_eq!(
        masked_head(&get("/admin/debug/loop")),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: #\r\nconnection: keep-alive\r\ncache-control: no-store"
    );

    // The three 404 wordings, 405, 413 to a POST and (head only) to a HEAD,
    // and a protocol-error 400.
    assert_eq!(
        get("/networks/net99/processes"),
        "HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\ncontent-length: 47\r\nconnection: keep-alive\r\n\r\n{\"error\": \"no network 'net99'\", \"status\": 404}\n"
    );
    assert_eq!(
        get("/plan"),
        "HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\ncontent-length: 85\r\nconnection: keep-alive\r\n\r\n{\"error\": \"no plan loaded; start the server with --plan <plan.json>\", \"status\": 404}\n"
    );
    assert_eq!(
        get("/admin/reload"),
        "HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\ncontent-length: 55\r\nconnection: keep-alive\r\n\r\n{\"error\": \"no route for /admin/reload\", \"status\": 404}\n"
    );
    assert_eq!(
        send("DELETE /networks HTTP/1.1\r\nhost: t\r\n\r\n"),
        "HTTP/1.1 405 Method Not Allowed\r\ncontent-type: application/json\r\ncontent-length: 54\r\nconnection: keep-alive\r\nallow: GET, HEAD\r\n\r\n{\"error\": \"method DELETE not allowed\", \"status\": 405}\n"
    );
    assert_eq!(
        send("POST /networks HTTP/1.1\r\nhost: t\r\ncontent-length: 999999999\r\n\r\n"),
        "HTTP/1.1 413 Payload Too Large\r\ncontent-type: application/json\r\ncontent-length: 55\r\nconnection: close\r\n\r\n{\"error\": \"request body exceeds limit\", \"status\": 413}\n"
    );
    assert_eq!(
        send("HEAD /networks HTTP/1.1\r\nhost: t\r\ncontent-length: 70000\r\n\r\n"),
        "HTTP/1.1 413 Payload Too Large\r\ncontent-type: application/json\r\ncontent-length: 55\r\nconnection: close\r\n\r\n"
    );
    assert_eq!(
        send("NOT-HTTP\r\n\r\n"),
        "HTTP/1.1 400 Bad Request\r\ncontent-type: application/json\r\ncontent-length: 51\r\nconnection: close\r\n\r\n{\"error\": \"malformed request line\", \"status\": 400}\n"
    );

    // POST /admin/reload with a reload source (200) and without (409).
    assert_eq!(
        send("POST /admin/reload HTTP/1.1\r\nhost: t\r\n\r\n"),
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 31\r\nconnection: keep-alive\r\n\r\n{\"status\": \"reload scheduled\"}\n"
    );
    server.shutdown();
    let server = Server::start(corpus_of(&["net1"]), None, "127.0.0.1:0", workers(1)).unwrap();
    assert_eq!(
        raw_request(&server, b"POST /admin/reload HTTP/1.1\r\nhost: t\r\n\r\n"),
        "HTTP/1.1 409 Conflict\r\ncontent-type: application/json\r\ncontent-length: 95\r\nconnection: keep-alive\r\n\r\n{\"error\": \"no reload source configured; start the server from a snapshot file\", \"status\": 409}\n"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
