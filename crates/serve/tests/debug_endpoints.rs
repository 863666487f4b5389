//! `/admin/debug/*` live-state endpoints: valid JSON under a concurrent
//! request burst, and corrupt-reload observability (the failure is
//! counted, the old snapshot keeps serving, and the cache debug view
//! reports the pre-failure version plus the failed event).
//!
//! One test function: the rd-obs metrics registry is process-global, so
//! splitting these scenarios across `#[test]`s would race their counters.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rd_serve::{ServeOptions, Server};

mod common;
use common::{connect, corpus_of, counter};

/// Reads one complete response (content-length framing).
fn read_response(stream: &mut TcpStream) -> (String, Vec<u8>) {
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
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    (head_text, body)
}

/// One-shot GET returning (head, body text); asserts the status.
fn get(server: &Server, path: &str, status: &str) -> (String, String) {
    let mut stream = connect(server);
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes())
        .unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with(&format!("HTTP/1.1 {status}")), "{path}: {head}");
    (head, String::from_utf8(body).expect("utf-8 body"))
}

/// Asserts `body` is one well-formed JSON object and returns its keys.
fn valid_json(body: &str) -> Vec<String> {
    rd_obs::json::validate_object(body)
        .unwrap_or_else(|e| panic!("invalid debug JSON ({e}): {body}"))
}

#[test]
fn debug_endpoints_and_corrupt_reload_observability() {
    let dir = std::env::temp_dir().join(format!("rd-serve-debug-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.rdsnap");
    rd_snap::write_atomic(&path, &corpus_of(&["net1", "net2"]).to_bytes()).unwrap();

    let server =
        Server::start_file(&path, "127.0.0.1:0", ServeOptions::default()).expect("starts");
    let etag = server.etag();
    let etag_hex = etag.trim_matches('"').to_string();

    // Keep-alive burst traffic from several threads for the whole test:
    // the debug endpoints must render valid JSON while the loops are busy.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let stop = stop.clone();
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("burst connect");
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    stream
                        .write_all(b"GET /networks HTTP/1.1\r\nhost: t\r\n\r\n")
                        .expect("burst write");
                    let (head, _) = read_response(&mut stream);
                    assert!(head.starts_with("HTTP/1.1 200"), "burst: {head}");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // /admin/debug/loop: valid JSON; loops publish their snapshots within
    // the publish interval, so `published` reaches the configured count.
    let deadline = Instant::now() + Duration::from_secs(5);
    let loops_body = loop {
        let (head, body) = get(&server, "/admin/debug/loop", "200");
        assert!(head.contains("cache-control: no-store"), "{head}");
        let keys = valid_json(&body);
        assert!(keys.contains(&"loops".to_string()), "{keys:?}");
        assert!(keys.contains(&"published".to_string()), "{keys:?}");
        if !body.contains("\"published\": 0,") {
            break body;
        }
        assert!(Instant::now() < deadline, "no loop ever published: {body}");
        std::thread::sleep(Duration::from_millis(50));
    };
    for field in ["\"wakeups\": ", "\"wheel_depth\": ", "\"live\": ", "\"requests\": "] {
        assert!(loops_body.contains(field), "{field} missing: {loops_body}");
    }

    // /admin/debug/conns: the burst's keep-alive connections show up
    // (open state, ages, buffer sizes) once a snapshot containing them
    // publishes.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, body) = get(&server, "/admin/debug/conns", "200");
        let keys = valid_json(&body);
        assert!(keys.contains(&"conns".to_string()), "{keys:?}");
        if body.contains("\"state\": \"open\"") && body.contains("\"age_ms\": ") {
            break;
        }
        assert!(Instant::now() < deadline, "burst conns never published: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // /admin/debug/cache: serving snapshot + boot history entry.
    let (_, cache_body) = get(&server, "/admin/debug/cache", "200");
    let keys = valid_json(&cache_body);
    for key in ["etag", "networks", "entries", "reload_history"] {
        assert!(keys.contains(&key.to_string()), "{key} missing: {keys:?}");
    }
    assert!(cache_body.contains(&etag_hex), "etag missing: {cache_body}");
    assert!(cache_body.contains("\"networks\": 2"), "{cache_body}");
    assert!(cache_body.contains("\"detail\": \"boot\""), "{cache_body}");
    assert!(!cache_body.contains("\"entries\": 0,"), "cache unexpectedly empty: {cache_body}");

    // An unknown debug path 404s like any other route.
    get(&server, "/admin/debug/nope", "404");

    // Corrupt the snapshot on disk, then ask for a reload over HTTP: the
    // failure must be counted, the old cache must keep serving
    // byte-identical bodies, and the cache debug view must still report
    // the pre-failure version plus a failed history entry.
    let (_, nets_before) = get(&server, "/networks", "200");
    let failed_before = counter("http.reload_failed");
    std::fs::write(&path, b"definitely not a snapshot file").unwrap();

    let mut stream = connect(&server);
    stream
        .write_all(b"POST /admin/reload HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .unwrap();
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(String::from_utf8(body).unwrap().contains("reload scheduled"));

    let deadline = Instant::now() + Duration::from_secs(5);
    while counter("http.reload_failed") <= failed_before {
        assert!(Instant::now() < deadline, "reload failure never counted");
        std::thread::sleep(Duration::from_millis(20));
    }

    assert_eq!(server.etag(), etag, "failed reload must not move the etag");
    let (_, nets_after) = get(&server, "/networks", "200");
    assert_eq!(nets_after, nets_before, "old snapshot must keep serving");

    let (_, cache_body) = get(&server, "/admin/debug/cache", "200");
    valid_json(&cache_body);
    assert!(cache_body.contains(&etag_hex), "pre-failure etag gone: {cache_body}");
    assert!(cache_body.contains("\"ok\": false"), "failed event missing: {cache_body}");
    assert!(cache_body.contains("\"detail\": \"boot\""), "boot event dropped: {cache_body}");

    stop.store(true, Ordering::Relaxed);
    let mut total = 0;
    for w in workers {
        total += w.join().expect("burst thread");
    }
    assert!(total > 0, "burst served nothing");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
