//! Robustness table tests for the `rdx watch` daemon pieces: crash-safe
//! snapshot persistence (a torn staging file at *every* truncation
//! boundary must be quarantined on recovery while the last-good file
//! keeps reading), failure isolation (an analysis panic must leave the
//! co-hosted server answering byte-identically from last-good), the
//! watcher as the daemon's only publisher (a reload request cannot clear
//! a failing daemon's health), and the daemon outliving a closed stdout
//! or stderr and a last-good file that does not load.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use routing_design::watch::{Tick, WatchOptions, Watcher};
use routing_design::{snapshot, NetworkAnalysis};
use rd_serve::{HealthState, ServeOptions, Server};

const RA: &str = "hostname ra\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
                  router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n";
const RB: &str = "hostname rb\ninterface Ethernet0\n ip address 10.0.0.2 255.255.255.0\n\
                  router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdx-watch-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn write_config_dir(dir: &Path) {
    let net = dir.join("netA");
    std::fs::create_dir_all(&net).expect("network dir");
    std::fs::write(net.join("ra.cfg"), RA).expect("ra.cfg");
    std::fs::write(net.join("rb.cfg"), RB).expect("rb.cfg");
}

fn corpus_bytes() -> Vec<u8> {
    let texts = vec![("ra".to_string(), RA.to_string()), ("rb".to_string(), RB.to_string())];
    let analysis = NetworkAnalysis::from_texts(texts).expect("corpus parses");
    rd_snap::Corpus::new(vec![snapshot::capture("netA", analysis)]).to_bytes()
}

/// One-shot GET against a test server; returns (response head, body).
fn get(server: &Server, path: &str) -> (String, Vec<u8>) {
    request(server.local_addr(), "GET", path)
}

/// One-shot request without a body; returns (response head, body).
fn request(addr: SocketAddr, method: &str, path: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream
        .write_all(
            format!("{method} {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
                .as_bytes(),
        )
        .expect("request");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length")
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    (head, body)
}

/// Drives `tick` until the watcher reports the wanted outcome (waiting
/// out debounce and backoff windows), failing the test on timeout.
fn tick_until(watcher: &mut Watcher, wanted: Tick, what: &str) {
    for _ in 0..2000 {
        if watcher.tick() == wanted {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("{what}: watcher never reached {wanted:?}");
}

#[test]
fn torn_tmp_at_every_boundary_is_quarantined_and_last_good_survives() {
    let dir = scratch_dir("torn");
    let last_good = dir.join("study.rdsnap");
    let bytes = corpus_bytes();
    rd_snap::write_atomic(&last_good, &bytes).expect("seed last-good");

    let frames = rd_snap::Frames::read(&bytes).expect("frame table");
    let mut cuts: Vec<usize> =
        frames.boundaries().into_iter().filter(|&b| b < bytes.len()).collect();
    cuts.push(0);
    cuts.push(bytes.len() - 1);
    assert!(cuts.len() > 4, "the frame table has no boundaries to truncate at");

    for cut in cuts {
        let tmp = rd_snap::tmp_path(&last_good);
        std::fs::write(&tmp, &bytes[..cut]).expect("stage torn tmp");

        let swept = rd_snap::recover_dir(&dir).expect("recovery sweep");
        assert_eq!(swept.len(), 1, "cut {cut}: exactly the torn tmp is quarantined");
        assert!(!tmp.exists(), "cut {cut}: staging file must not survive recovery");
        let quarantined = rd_snap::quarantine_path(&tmp);
        assert!(quarantined.exists(), "cut {cut}: quarantine file missing");

        // The last-good snapshot under the final name is untouched.
        let (corpus, _) =
            rd_snap::Corpus::read_file_with_trailer(&last_good).expect("last-good reads");
        assert_eq!(corpus.networks.len(), 1, "cut {cut}: corpus shrank");

        std::fs::remove_file(&quarantined).expect("reset quarantine");
    }

    // A *complete* stale tmp (the crash hit between fsync and rename) is
    // quarantined just the same: the rename never happened, so the bytes
    // were never the serving version.
    let tmp = rd_snap::tmp_path(&last_good);
    std::fs::write(&tmp, &bytes).expect("stage complete stale tmp");
    let swept = rd_snap::recover_dir(&dir).expect("recovery sweep");
    assert_eq!(swept.len(), 1);
    assert!(!tmp.exists());
    assert!(rd_snap::Corpus::read_file_with_trailer(&last_good).is_ok());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_sweep_of_missing_dir_is_empty_not_an_error() {
    let dir = std::env::temp_dir().join(format!("rdx-watch-test-{}-absent", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let swept = rd_snap::recover_dir(&dir).expect("missing dir sweeps clean");
    assert!(swept.is_empty());
}

#[test]
fn analysis_panic_keeps_last_good_serving_byte_identically() {
    let base = scratch_dir("panic");
    // The snapshot lives beside — never inside — the watched tree.
    let dir = base.join("configs");
    write_config_dir(&dir);
    let snapshot_path = base.join("last-good.rdsnap");

    let outcome = routing_design::snapshot::snap_dir(&dir).expect("initial analysis");
    let bytes = outcome.corpus.to_bytes();
    rd_snap::write_atomic(&snapshot_path, &bytes).expect("seed snapshot");
    let serve = ServeOptions { workers: 1, ..ServeOptions::default() };
    let server = Server::start(outcome.corpus, None, "127.0.0.1:0", serve).expect("server");

    let opts = WatchOptions {
        poll_interval: Duration::from_millis(1),
        debounce: Duration::from_millis(1),
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(5),
        degraded_after: 3,
        seed: 42,
    };
    let mut watcher = Watcher::new(&dir, &snapshot_path, server.controller(), opts);
    assert!(watcher.settled(), "freshly built watcher starts settled");
    assert_eq!(watcher.tick(), Tick::Idle);

    let (_, before) = get(&server, "/networks/netA");

    // A semantic change arrives together with a worker that panics: the
    // daemon must survive, keep serving last-good, and go non-fresh.
    watcher.inject_analysis_panic();
    let net = dir.join("netA");
    std::fs::write(net.join("ra.cfg"), format!("{RA}router ospf 7\n network 10.7.0.0 0.0.0.255 area 0\n"))
        .expect("mutate ra.cfg");
    tick_until(&mut watcher, Tick::Failed, "injected panic");
    assert_eq!(watcher.consecutive_failures(), 1);
    assert_ne!(watcher.health(), HealthState::Fresh);
    assert_eq!(watcher.generation(), 0);

    let (head, after) = get(&server, "/networks/netA");
    assert!(head.starts_with("HTTP/1.1 200"), "last-good must keep answering: {head}");
    assert_eq!(before, after, "served body changed across an isolated failure");

    // The panic was one-shot: the retry (post backoff) re-analyzes for
    // real, publishes, and converges back to fresh.
    tick_until(&mut watcher, Tick::Published, "retry after panic");
    assert_eq!(watcher.health(), HealthState::Fresh);
    assert_eq!(watcher.generation(), 1);
    assert!(watcher.settled());
    let (_, published) = get(&server, "/networks/netA");
    assert_ne!(before, published, "publish must swap in the re-analyzed body");

    // The published snapshot also persisted crash-safely: the file on
    // disk decodes and no staging remnants linger.
    assert!(rd_snap::Corpus::read_file_with_trailer(&snapshot_path).is_ok());
    assert!(!rd_snap::tmp_path(&snapshot_path).exists());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn disk_faults_fail_the_attempt_but_never_corrupt_last_good() {
    let base = scratch_dir("faults");
    let dir = base.join("configs");
    write_config_dir(&dir);
    let snapshot_path = base.join("last-good.rdsnap");

    let outcome = routing_design::snapshot::snap_dir(&dir).expect("initial analysis");
    rd_snap::write_atomic(&snapshot_path, &outcome.corpus.to_bytes()).expect("seed snapshot");
    let serve = ServeOptions { workers: 1, ..ServeOptions::default() };
    let server = Server::start(outcome.corpus, None, "127.0.0.1:0", serve).expect("server");

    let opts = WatchOptions {
        poll_interval: Duration::from_millis(1),
        debounce: Duration::from_millis(1),
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(5),
        degraded_after: 100, // keep /healthz at 200 throughout this test
        seed: 7,
    };
    let mut watcher = Watcher::new(&dir, &snapshot_path, server.controller(), opts);
    let net = dir.join("netA");

    for (i, fault) in [rd_chaos::DiskFault::TornWrite, rd_chaos::DiskFault::ShortWrite, rd_chaos::DiskFault::RenameFailure]
        .into_iter()
        .enumerate()
    {
        watcher.inject_disk_fault(fault);
        std::fs::write(
            net.join("ra.cfg"),
            format!("{RA}router ospf {}\n network 10.{}.0.0 0.0.0.255 area 0\n", i + 2, i + 2),
        )
        .expect("mutate ra.cfg");
        tick_until(&mut watcher, Tick::Failed, fault.name());
        // Injected persist faults leave last-good decodable; the failed
        // staging file (when the fault left one) is swept on recovery.
        assert!(
            rd_snap::Corpus::read_file_with_trailer(&snapshot_path).is_ok(),
            "{}: last-good corrupted",
            fault.name()
        );
        rd_snap::recover_dir(&dir).expect("sweep staging remnants");

        // Next attempt (no fault armed) publishes the pending change.
        tick_until(&mut watcher, Tick::Published, "retry after disk fault");
        assert_eq!(watcher.health(), HealthState::Fresh);
    }
    assert_eq!(watcher.generation(), 3);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

/// Kills the spawned daemon however the test ends.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn reload_cannot_clear_a_degraded_watch_daemon() {
    let base = scratch_dir("degraded");
    let dir = base.join("configs");
    write_config_dir(&dir);
    let snapshot_path = base.join("last-good.rdsnap");
    let any_port = "127.0.0.1:0".parse().expect("address");
    let child = watch_command(&dir, &snapshot_path, any_port)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rdx watch");
    let mut daemon = Daemon(child);
    let mut line = String::new();
    // Read for as long as the daemon runs: it prints a second line.
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut line).expect("listening line");
    let addr: SocketAddr = line
        .strip_prefix("listening on http://")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));
    let health = || {
        let (head, body) = request(addr, "GET", "/healthz");
        (head, String::from_utf8(body).expect("utf-8 body"))
    };
    assert!(health().1.contains("\"health\": \"fresh\""), "boots fresh: {:?}", health());

    // A parse-fatal push: the daemon keeps serving last-good and, at
    // --degraded-after 1, turns /healthz 503.
    std::fs::write(dir.join("netA").join("ra.cfg"), b"\xff\xfe not a router config\n")
        .expect("push invalid config");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !health().0.starts_with("HTTP/1.1 503") {
        assert!(Instant::now() < deadline, "never degraded: {:?}", health());
        std::thread::sleep(Duration::from_millis(10));
    }

    // The watcher is the only publisher: no reload file to re-read, so
    // the request is refused and the failure stays on /healthz.
    let (head, body) = request(addr, "POST", "/admin/reload");
    assert!(head.starts_with("HTTP/1.1 409"), "{head}");
    assert!(String::from_utf8_lossy(&body).contains("no reload source configured"));
    std::thread::sleep(Duration::from_millis(500));
    let (head, body) = health();
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
    assert!(body.contains("\"health\": \"degraded\""), "{body}");

    drop(daemon);
    drop(stdout);
    let _ = std::fs::remove_dir_all(&base);
}

/// A loopback address with a port no listener holds right now.
fn free_addr() -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.local_addr().expect("local addr")
}

/// `rdx watch` over `dir` on `addr`, failing fast and turning degraded
/// on the first failed attempt; any unparseable config is fatal for its
/// network.
fn watch_command(dir: &Path, snapshot_path: &Path, addr: SocketAddr) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_rdx"));
    command
        .arg("watch")
        .arg(dir)
        .arg("--snapshot")
        .arg(snapshot_path)
        .args(["--addr", &addr.to_string(), "--poll-ms", "10", "--debounce-ms", "10"])
        .args(["--backoff-ms", "10", "--backoff-max-ms", "20", "--degraded-after", "1"])
        .env("RD_ERROR_BUDGET", "0");
    command
}

/// Waits until `addr` answers `/healthz?live=1` with 200.
fn wait_live(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if TcpStream::connect(addr).is_ok() {
            let (head, _) = request(addr, "GET", "/healthz?live=1");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            return;
        }
        assert!(Instant::now() < deadline, "the daemon never answered on {addr}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Waits until `/healthz` reports `health`.
fn wait_health(addr: SocketAddr, health: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    let wanted = format!("\"health\": \"{health}\"");
    loop {
        let (head, body) = request(addr, "GET", "/healthz");
        if String::from_utf8_lossy(&body).contains(&wanted) {
            return;
        }
        assert!(Instant::now() < deadline, "never {health}: {head}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_closed_stdout_or_stderr_never_stops_the_watch_daemon() {
    for closed in ["stdout", "stderr"] {
        let base = scratch_dir(&format!("closed-{closed}"));
        let dir = base.join("configs");
        write_config_dir(&dir);
        let addr = free_addr();
        let mut command = watch_command(&dir, &base.join("last-good.rdsnap"), addr);
        // The pipe's read end is gone before the daemon starts: every
        // write to it fails with EPIPE.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        if closed == "stdout" {
            command.stdout(writer).stderr(Stdio::null());
        } else {
            command.stdout(Stdio::null()).stderr(writer);
        }
        let daemon = Daemon(command.spawn().expect("spawn rdx watch"));

        wait_live(addr);
        wait_health(addr, "fresh");
        // A parse-fatal push makes the watcher write its failure line,
        // then the restore must bring it back to fresh.
        let ra = dir.join("netA").join("ra.cfg");
        std::fs::write(&ra, b"\xff\xfe not a router config\n").expect("push invalid config");
        wait_health(addr, "degraded");
        std::fs::write(&ra, RA).expect("restore config");
        wait_health(addr, "fresh");
        wait_live(addr);

        drop(daemon);
        let _ = std::fs::remove_dir_all(&base);
    }
}

#[test]
fn a_last_good_file_that_does_not_load_is_named_on_stderr() {
    let base = scratch_dir("garbage");
    let dir = base.join("configs");
    write_config_dir(&dir);
    let snapshot_path = base.join("last-good.rdsnap");
    std::fs::write(&snapshot_path, b"not a snapshot").expect("garbage snapshot");
    let addr = free_addr();
    let mut command = watch_command(&dir, &snapshot_path, addr);
    let child = command.stdout(Stdio::null()).stderr(Stdio::piped()).spawn().expect("spawn");
    let mut daemon = Daemon(child);

    wait_live(addr);
    wait_health(addr, "fresh");
    let (head, _) = request(addr, "GET", "/networks/netA");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    // The fresh analysis replaced the garbage.
    assert!(rd_snap::Corpus::read_file(&snapshot_path).is_ok());

    let mut stderr = daemon.0.stderr.take().expect("piped stderr");
    drop(daemon);
    let mut text = String::new();
    stderr.read_to_string(&mut text).expect("stderr");
    let first = text.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("rdx watch: last-good snapshot does not load (")
            && first.contains(&snapshot_path.display().to_string())
            && first.ends_with("); analyzing afresh"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
