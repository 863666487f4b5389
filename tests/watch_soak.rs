//! Seeded chaos soak for the `rdx watch` supervisor: hundreds of
//! iterations of config mutations, injected analysis panics, and
//! injected disk faults against a live watcher + server, with a
//! concurrent client hammering the query endpoint throughout.
//!
//! Invariants asserted:
//!
//! - the soak thread never dies (a panic anywhere fails the test);
//! - no response is ever torn or mixed-version: every (etag, body)
//!   pair observed by the concurrent client maps one etag to exactly
//!   one body, and every observed etag is a version the watcher
//!   actually published (or the boot version);
//! - the last-good snapshot file decodes after every iteration;
//! - once the faults stop, the watcher converges back to `fresh`.
//!
//! `RD_SOAK_ITERS` scales the iteration count (default 250 — the
//! acceptance floor of 200 plus slack).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use routing_design::watch::{Tick, WatchOptions, Watcher};
use rd_rng::StdRng;
use rd_serve::{HealthState, ServeOptions, Server};

const RA: &str = "hostname ra\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
                  router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n";
const RB: &str = "hostname rb\ninterface Ethernet0\n ip address 10.0.0.2 255.255.255.0\n\
                  router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdx-soak-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// GET `path`; returns `(status, etag, body)`. I/O errors surface as a
/// synthetic status so the client loop can fail the test with context.
fn get(addr: std::net::SocketAddr, path: &str) -> Result<(u16, String, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).map_err(|e| format!("head: {e}"))?;
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).map_err(|e| format!("head utf-8: {e}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head}"))?;
    let etag = head
        .lines()
        .find_map(|l| l.strip_prefix("etag: "))
        .unwrap_or("")
        .trim_matches('"')
        .to_string();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .ok_or("missing content-length")?
        .parse()
        .map_err(|e| format!("bad content-length: {e}"))?;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).map_err(|e| format!("body: {e}"))?;
    Ok((status, etag, body))
}

/// A semantically distinct variant of `ra.cfg` keyed by `tag`; tag 0 is
/// the pristine config (so "revert to the published state" is exact).
fn ra_variant(tag: usize) -> String {
    if tag == 0 {
        return RA.to_string();
    }
    format!("{RA}router ospf {}\n network 10.{}.0.0 0.0.0.255 area 0\n", tag % 97 + 2, tag % 200 + 1)
}

fn write_ra(net: &Path, text: &str) {
    std::fs::write(net.join("ra.cfg"), text).expect("write ra.cfg");
}

#[test]
fn seeded_soak_never_serves_torn_or_mixed_versions() {
    let iters: usize = std::env::var("RD_SOAK_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(250);
    let seed: u64 = std::env::var("RD_SOAK_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(seed);

    let base = scratch_dir("main");
    // The snapshot lives beside — never inside — the watched tree.
    let dir = base.join("configs");
    let net = dir.join("netA");
    std::fs::create_dir_all(&net).expect("network dir");
    write_ra(&net, RA);
    std::fs::write(net.join("rb.cfg"), RB).expect("rb.cfg");
    let snapshot_path = base.join("last-good.rdsnap");

    let outcome = routing_design::snapshot::snap_dir(&dir).expect("initial analysis");
    rd_snap::write_atomic(&snapshot_path, &outcome.corpus.to_bytes()).expect("seed snapshot");
    let serve = ServeOptions { workers: 1, ..ServeOptions::default() };
    let server = Server::start(outcome.corpus, None, "127.0.0.1:0", serve).expect("server");
    let addr = server.local_addr();

    let opts = WatchOptions {
        poll_interval: Duration::from_millis(1),
        debounce: Duration::from_millis(1),
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        degraded_after: 3,
        seed,
    };
    let mut watcher = Watcher::new(&dir, &snapshot_path, server.controller(), opts);

    // Every version the server has legitimately served: the boot etag
    // plus one entry per successful publish (recorded after the tick
    // that published it, i.e. before the soak ends).
    // `Server::etag()` renders with the surrounding quote characters;
    // strip them so entries compare against the client's parsed header.
    let bare_etag = |e: String| e.trim_matches('"').to_string();
    let published_etags = Arc::new(Mutex::new(BTreeSet::from([bare_etag(server.etag())])));

    // Concurrent client: hammer the query endpoint for the whole soak,
    // recording every (etag, body) pair it observes.
    let stop = Arc::new(AtomicBool::new(false));
    let observed = Arc::new(Mutex::new(BTreeMap::<String, Vec<u8>>::new()));
    let client = {
        let (stop, observed) = (Arc::clone(&stop), Arc::clone(&observed));
        std::thread::spawn(move || {
            let mut torn: Vec<String> = Vec::new();
            let mut requests = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (status, etag, body) = match get(addr, "/networks/netA") {
                    Ok(r) => r,
                    Err(e) => {
                        torn.push(format!("request failed mid-soak: {e}"));
                        break;
                    }
                };
                requests += 1;
                if status != 200 {
                    torn.push(format!("non-200 ({status}) from the query endpoint"));
                    break;
                }
                let mut seen = observed.lock().expect("observed lock");
                if let Some(prior) = seen.get(&etag) {
                    if prior != &body {
                        torn.push(format!("etag {etag} served two different bodies"));
                        break;
                    }
                } else {
                    seen.insert(etag, body);
                }
            }
            (torn, requests)
        })
    };

    let faults = rd_chaos::DISK_FAULTS;
    let mut published_variant = 0usize; // tag of ra.cfg at the last publish
    let mut pending_variant = 0usize;
    for i in 1..=iters {
        // One chaos action per iteration, seeded: mostly clean semantic
        // mutations, with panics, disk faults, and reverts mixed in.
        match rng.gen_range(0..10u32) {
            0 => watcher.inject_analysis_panic(),
            1 | 2 => {
                let fault = faults[rng.gen_range(0..faults.len())];
                watcher.inject_disk_fault(fault);
            }
            3 => {
                // Revert to the last successfully published content: the
                // watcher must converge without another publish.
                pending_variant = published_variant;
                write_ra(&net, &ra_variant(published_variant));
            }
            _ => {
                pending_variant = i;
                write_ra(&net, &ra_variant(i));
            }
        }

        // Drive ticks until the pending state lands (published or
        // reverted-to-settled); injected faults retry through backoff.
        let mut done = false;
        for _ in 0..4000 {
            let tick = watcher.tick();
            if tick == Tick::Published {
                published_variant = pending_variant;
                published_etags.lock().expect("etag lock").insert(bare_etag(server.etag()));
            }
            if watcher.settled() && watcher.consecutive_failures() == 0 {
                done = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(done, "iteration {i}: watcher never settled");
        assert!(
            rd_snap::Corpus::read_file_with_trailer(&snapshot_path).is_ok(),
            "iteration {i}: last-good snapshot no longer decodes"
        );
    }

    // Quiesce: restore the canonical config and require convergence.
    write_ra(&net, RA);
    let mut fresh = false;
    for _ in 0..4000 {
        if watcher.tick() == Tick::Published {
            published_etags.lock().expect("etag lock").insert(bare_etag(server.etag()));
        }
        if watcher.settled() && watcher.health() == HealthState::Fresh {
            fresh = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(fresh, "watcher did not converge to fresh after the soak");
    assert!(watcher.generation() > 0, "soak never published anything");

    stop.store(true, Ordering::Relaxed);
    let (torn, requests) = client.join().expect("client thread panicked");
    assert!(torn.is_empty(), "torn/mixed responses observed: {torn:?}");
    assert!(requests > 0, "client never completed a request");

    // Every version the client saw is one the watcher published.
    let published = published_etags.lock().expect("etag lock");
    let observed = observed.lock().expect("observed lock");
    for etag in observed.keys() {
        assert!(
            published.contains(etag),
            "client observed etag {etag} that was never published (published: {published:?})"
        );
    }

    eprintln!(
        "soak summary: {iters} iterations, {} publishes, {} failed attempts survived, \
         {requests} concurrent requests, {} distinct versions served, 0 torn responses",
        watcher.generation(),
        watcher.total_failures(),
        observed.len(),
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}
