//! `rdx watch`: a supervised, self-healing continuous-analysis daemon.
//!
//! Operators push router configs a few at a time; the analysis must keep
//! answering queries through bad pushes, partial writes, and transient
//! failures. [`Watcher`] polls a config directory through the incremental
//! delta engine ([`DeltaEngine`]), the tree's one change detector: each
//! poll's [`probe`](DeltaEngine::probe) stats every file but reads,
//! hashes and parses only what moved, and returns a digest of the
//! tree's semantic state, so cosmetic churn (comments, whitespace, `!`
//! separators) never triggers a rebuild. The watcher compares that
//! digest with the last one it saw (the debounce clock, so a mid-push
//! partial state coalesces into one re-analysis) and with the one it
//! last published (settled or not). Rebuilds reuse the probe's parse
//! products: only the networks the change actually touched are
//! re-analyzed, every other network's encoded snapshot bytes splice
//! through unchanged, and the output stays byte-identical to a cold
//! run. Analysis runs in a failure-isolated worker: a panic, a parse
//! failure, or an over-budget network ([`nettopo::error_budget`]) marks
//! the attempt failed without touching the serving snapshot. Results
//! persist through the crash-safe [`rd_snap::write_atomic`] and publish
//! into the co-hosted `rd-serve` instance via its atomic-Arc swap
//! ([`rd_serve::Controller::publish`]), so the last-good snapshot keeps
//! serving whenever the new analysis fails.
//!
//! The served corpus is the only copy of the analysis. The watcher seeds
//! its engine from the networks the server is serving
//! ([`rd_serve::Controller::corpus`]), so its first probe hashes the
//! tree, parses only files whose bytes moved (a rebuild takes every
//! other file's parse from the served networks), and decides whether
//! that corpus is still [`current`](crate::incremental::Probe::current):
//! only when every network is reused and none was added, removed or
//! turned unreadable does the first tick stay idle; otherwise it
//! re-analyzes what changed. The watcher is the server's only
//! publisher: [`run_daemon`] starts the server from a corpus, not a
//! file, so `POST /admin/reload` answers 409, SIGHUP changes nothing,
//! and no reload can overwrite what the watcher reports.
//!
//! Failure handling is a small state machine surfaced at `/healthz` and
//! `/admin/debug/watch`:
//!
//! - `fresh` — the served snapshot reflects the latest config state;
//! - `stale-serving-last-good` — the latest attempt failed, last-good
//!   serves, a retry is scheduled with exponential backoff plus
//!   `rd_rng` jitter (so a fleet of watchers never thunders in sync);
//! - `degraded` — [`WatchOptions::degraded_after`] consecutive failures;
//!   `/healthz` turns 503 while queries still answer from last-good.
//!
//! A successful publish — or the configs reverting to the last published
//! state — converges back to `fresh` and resets the backoff.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rd_chaos::DiskFault;
use rd_rng::StdRng;
use rd_serve::{Controller, HealthState, ServeOptions, Server, WatchStatus};

use crate::incremental::DeltaEngine;
use crate::snapshot::{snap_dir, SnapOutcome};

/// Supervisor tuning knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchOptions {
    /// How often the config directory is probed.
    pub poll_interval: Duration,
    /// How long the directory must be quiet after a change before
    /// re-analysis — mid-push partial states coalesce into one rebuild.
    pub debounce: Duration,
    /// First retry delay after a failed analysis; doubles per
    /// consecutive failure.
    pub backoff_base: Duration,
    /// Retry delay ceiling (jitter excluded).
    pub backoff_max: Duration,
    /// Consecutive failures before `stale-serving-last-good` escalates
    /// to `degraded` (and `/healthz` turns 503).
    pub degraded_after: u32,
    /// Seed for the backoff jitter (and any injected faults).
    pub seed: u64,
}

impl Default for WatchOptions {
    fn default() -> WatchOptions {
        WatchOptions {
            poll_interval: Duration::from_millis(500),
            debounce: Duration::from_millis(1000),
            backoff_base: Duration::from_millis(1000),
            backoff_max: Duration::from_secs(60),
            degraded_after: 3,
            seed: 0,
        }
    }
}

/// The outcome of one [`Watcher::tick`], for callers that drive the
/// watcher manually (tests, the chaos soak).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tick {
    /// Nothing to do: no change pending, serving state is current.
    Idle,
    /// A change is pending but still inside the debounce window or the
    /// retry backoff.
    Waiting,
    /// An analysis attempt ran and published successfully.
    Published,
    /// An analysis attempt ran and failed; last-good keeps serving.
    Failed,
}

/// The supervised continuous-analysis loop. Create with [`Watcher::new`]
/// against a running server's [`Controller`], then either [`run`]
/// (daemon) or [`tick`](Watcher::tick) manually (tests, soak harnesses).
///
/// [`run`]: Watcher::run
pub struct Watcher {
    snapshot_path: PathBuf,
    ctrl: Controller,
    opts: WatchOptions,
    rng: StdRng,
    /// The change detector and incremental re-analysis engine: probes
    /// digest the config state, and rebuild ticks recompute only the
    /// networks the debounced change actually touched, splicing every
    /// other network's snapshot bytes through unchanged (`incr.*`
    /// metrics record the split).
    engine: DeltaEngine,
    /// Digest of the latest probed config state.
    latest: u64,
    /// Digest of the config state the serving snapshot was analyzed
    /// from; `None` while the served corpus is not known to match any
    /// (a boot corpus the first probe found out of date).
    published: Option<u64>,
    /// When `latest` last changed — the debounce clock. `None` once the
    /// change has been acted on (or at a quiet start).
    changed_at: Option<Instant>,
    /// Earliest time the next analysis attempt may run (backoff gate).
    next_attempt: Instant,
    consecutive_failures: u32,
    status: WatchStatus,
    /// One-shot injected persist fault (chaos soak / tests).
    inject_fault: Option<DiskFault>,
    /// One-shot injected analysis panic (failure-isolation tests).
    inject_panic: bool,
}

impl Watcher {
    /// Builds a watcher over `dir`, persisting snapshots to
    /// `snapshot_path` and publishing into `ctrl`. The delta engine is
    /// seeded from the corpus `ctrl` is serving, then probes the tree:
    /// the served corpus counts as published only when that probe finds
    /// it current (every network reused, none added, removed or
    /// unreadable); otherwise the first tick re-analyzes what changed.
    pub fn new(dir: &Path, snapshot_path: &Path, ctrl: Controller, opts: WatchOptions) -> Watcher {
        let mut engine = DeltaEngine::new(dir);
        engine.seed(&ctrl.corpus());
        let probe = engine.probe();
        let w = Watcher {
            snapshot_path: snapshot_path.to_path_buf(),
            ctrl,
            rng: StdRng::seed_from_u64(opts.seed ^ 0x77a7c8_57a7e5),
            engine,
            opts,
            latest: probe.digest,
            published: probe.current.then_some(probe.digest),
            changed_at: None,
            next_attempt: Instant::now(),
            consecutive_failures: 0,
            status: WatchStatus { fingerprints: probe.files, ..WatchStatus::default() },
            inject_fault: None,
            inject_panic: false,
        };
        w.publish_status();
        w
    }

    /// Arms a one-shot injected panic inside the next analysis attempt —
    /// how tests prove a worker panic cannot take the daemon down.
    pub fn inject_analysis_panic(&mut self) {
        self.inject_panic = true;
    }

    /// Arms a one-shot disk fault for the next snapshot persist.
    pub fn inject_disk_fault(&mut self, fault: DiskFault) {
        self.inject_fault = Some(fault);
    }

    /// The server's current health state.
    pub fn health(&self) -> HealthState {
        self.ctrl.health()
    }

    /// Successful publishes since the watcher started.
    pub fn generation(&self) -> u64 {
        self.status.generation
    }

    /// Failed attempts since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Failed attempts over the watcher's whole lifetime.
    pub fn total_failures(&self) -> u64 {
        self.status.failures
    }

    /// True when the serving snapshot reflects the latest observed
    /// config state (nothing pending).
    pub fn settled(&self) -> bool {
        self.published == Some(self.latest)
    }

    /// One poll cycle: probe, debounce, and — when a change is due and
    /// the backoff allows — re-analyze, persist, and publish.
    pub fn tick(&mut self) -> Tick {
        let _span = rd_obs::span!("watch.tick");
        rd_obs::metrics::counter_add("watch.scans", 1);
        let now = Instant::now();

        let probe = {
            let _span = rd_obs::span!("watch.scan");
            self.engine.probe()
        };
        if probe.digest != self.latest {
            // A semantic change (cosmetic churn digests identically and
            // falls through). Restart the debounce window so a push in
            // progress coalesces.
            self.latest = probe.digest;
            self.changed_at = Some(now);
            self.status.last_change_ms = self.ctrl.uptime_ms();
            self.status.fingerprints = probe.files;
            rd_obs::metrics::counter_add("watch.changes", 1);
            self.publish_status();
        }

        if self.settled() {
            // Nothing pending. If we were failing and the configs
            // reverted to the last published state, the served snapshot
            // is current again: converge back to fresh.
            if self.consecutive_failures > 0 {
                self.clear_failures();
                self.ctrl.set_health(HealthState::Fresh);
                self.publish_status();
            }
            self.changed_at = None;
            return Tick::Idle;
        }
        if let Some(at) = self.changed_at {
            if now.duration_since(at) < self.opts.debounce {
                return Tick::Waiting;
            }
        }
        if now < self.next_attempt {
            return Tick::Waiting;
        }
        self.changed_at = None;
        if self.attempt() {
            Tick::Published
        } else {
            Tick::Failed
        }
    }

    /// The daemon loop: tick at `poll_interval` until the co-hosted
    /// server shuts down (signal or programmatic).
    pub fn run(mut self) {
        while !self.ctrl.is_shutdown() {
            self.tick();
            std::thread::sleep(self.opts.poll_interval);
        }
    }

    /// One failure-isolated analyze → persist → publish attempt.
    /// Returns true on publish.
    fn attempt(&mut self) -> bool {
        let _span = rd_obs::span!("watch.analyze");
        let inject_panic = std::mem::take(&mut self.inject_panic);

        // The worker: anything it throws — an injected panic, a parser
        // bug, an allocation failure surfaced as panic — is caught here
        // and handled as a failed attempt. The daemon itself never dies.
        // The delta engine recomputes only the networks the change
        // touched and splices the rest through (it commits its analyses
        // only after a complete pass, so a panic here cannot leave them
        // half-updated).
        let engine = &mut self.engine;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected analysis panic");
            }
            engine.refresh()
        }));
        let (corpus, bytes, digest) = match result {
            Err(payload) => {
                rd_obs::metrics::counter_add("watch.analysis_panics", 1);
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                return self.fail(format!("analysis panicked: {what}"));
            }
            Ok(Err(e)) => return self.fail(format!("analysis failed: {e}")),
            Ok(Ok(refresh)) => {
                if let Err(e) = publishable(&refresh.outcome) {
                    return self.fail(e);
                }
                (refresh.outcome.corpus, refresh.bytes, refresh.digest)
            }
        };

        let persisted = match self.inject_fault.take() {
            Some(fault) => {
                rd_chaos::faulty_persist(&mut self.rng, fault, &self.snapshot_path, &bytes)
            }
            None => rd_snap::write_atomic(&self.snapshot_path, &bytes),
        };
        if let Err(e) = persisted {
            // The staging `.tmp` may be torn; last-good under the final
            // name is untouched by design. Serve memory? No: a snapshot
            // we could not persist is a snapshot a restart would lose —
            // treat the attempt as failed and retry whole.
            return self.fail(format!("snapshot persist failed: {e}"));
        }

        let _publish = rd_obs::span!("watch.publish");
        self.ctrl.publish(corpus, rd_snap::trailer_of(&bytes), "watch");
        self.ctrl.set_health(HealthState::Fresh);
        // The state the refresh analyzed: if the configs moved again
        // since the probe, the next tick sees them as unsettled.
        self.published = Some(digest);
        self.clear_failures();
        self.status.generation += 1;
        self.status.last_publish_ms = self.ctrl.uptime_ms();
        rd_obs::metrics::counter_add("watch.publish_ok", 1);
        self.publish_status();
        true
    }

    /// Books a failed attempt: count it, keep last-good serving, move
    /// the health state, and schedule the retry with exponential backoff
    /// plus seeded jitter.
    fn fail(&mut self, error: String) -> bool {
        self.consecutive_failures += 1;
        self.status.failures += 1;
        self.status.consecutive_failures = self.consecutive_failures;
        self.status.last_error = Some(error.clone());
        self.ctrl.record_failure(&error);
        self.ctrl.set_health(if self.consecutive_failures >= self.opts.degraded_after {
            HealthState::Degraded
        } else {
            HealthState::Stale
        });

        let base_ms = self.opts.backoff_base.as_millis().max(1) as u64;
        let cap_ms = self.opts.backoff_max.as_millis().max(1) as u64;
        let exp_ms =
            base_ms.saturating_mul(1u64 << (self.consecutive_failures - 1).min(20)).min(cap_ms);
        // Up to +25% jitter so a fleet of watchers retrying against the
        // same flapping input decorrelates.
        let jitter_ms = self.rng.gen_range(0..=exp_ms / 4);
        let backoff = Duration::from_millis(exp_ms + jitter_ms);
        self.next_attempt = Instant::now() + backoff;
        self.status.backoff_ms = backoff.as_millis() as u64;

        rd_obs::metrics::counter_add("watch.publish_failed", 1);
        rd_obs::metrics::gauge_set("watch.consecutive_failures", self.consecutive_failures as i64);
        rd_obs::metrics::gauge_set("watch.backoff_ms", self.status.backoff_ms as i64);
        // A status line: a closed stderr must not take the watch loop down.
        let _ = writeln!(
            std::io::stderr(),
            "rdx watch: analysis attempt failed ({error}); serving last-good, retry in {} ms",
            self.status.backoff_ms
        );
        self.publish_status();
        false
    }

    fn clear_failures(&mut self) {
        self.consecutive_failures = 0;
        self.status.consecutive_failures = 0;
        self.status.backoff_ms = 0;
        self.status.last_error = None;
        self.next_attempt = Instant::now();
        rd_obs::metrics::gauge_set("watch.consecutive_failures", 0);
        rd_obs::metrics::gauge_set("watch.backoff_ms", 0);
    }

    fn publish_status(&self) {
        self.ctrl.set_watch_status(self.status.clone());
    }
}

/// The one publish check, shared by the boot analysis and every
/// [`Watcher`] attempt. A result that dropped a network (unreadable, or
/// over the error budget) would silently shrink the served corpus. One
/// with no router at all — a vanished or emptied config dir analyzes
/// "cleanly" into zero routers — would wipe it, on what is far more
/// likely a broken push (rm + copy in flight) than a real decommission of
/// every router at once. Either keeps last-good serving.
fn publishable(outcome: &SnapOutcome) -> Result<(), String> {
    if !outcome.dropped.is_empty() {
        let names: Vec<&str> = outcome.dropped.iter().map(|d| d.name.as_str()).collect();
        return Err(format!("{} network(s) dropped: {}", outcome.dropped.len(), names.join(", ")));
    }
    if outcome.corpus.networks.iter().all(|n| n.network.routers.is_empty()) {
        return Err("analysis produced an empty corpus".to_string());
    }
    Ok(())
}

/// Boots the full daemon: recovery sweep, the boot corpus (the persisted
/// last-good snapshot, decoded once, or — when that does not load — a
/// fresh synchronous analysis, persisted), a co-hosted server on `addr`
/// started from that corpus, and the watch loop on a supervisor thread,
/// the server's only publisher. Blocks until shutdown (SIGTERM/SIGINT).
/// This is `rdx watch`. Its status lines ignore write errors, so a
/// closed stdout or stderr never stops the daemon.
pub fn run_daemon(
    dir: &Path,
    snapshot_path: &Path,
    addr: &str,
    watch_opts: WatchOptions,
    serve_opts: ServeOptions,
) -> Result<(), String> {
    // The snapshot must live outside the watched tree: inside it, the
    // analyzer would read the binary artifact as a router config (and
    // the study-layout detection would misfire on the stray file).
    let canonical_dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let canonical_snap = snapshot_path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .and_then(|p| std::fs::canonicalize(p).ok());
    if canonical_snap.is_some_and(|p| p.starts_with(&canonical_dir)) {
        return Err(format!(
            "snapshot path {} is inside the watched directory {}; pass --snapshot \
             pointing outside it",
            snapshot_path.display(),
            dir.display()
        ));
    }

    // Crash recovery first: a torn `.tmp` from a previous life must not
    // sit where the next write_atomic stages.
    if let Some(parent) = snapshot_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let swept = rd_snap::recover_dir(parent)
            .map_err(|e| format!("recovery sweep of {} failed: {e}", parent.display()))?;
        for q in &swept {
            let q = q.display();
            let _ = writeln!(std::io::stderr(), "rdx watch: quarantined stale staging file -> {q}");
        }
    }

    // Boot corpus: the persisted last-good snapshot when it loads
    // (instant start, survives a config dir that is currently broken);
    // a fresh analysis, persisted, only when it does not. Either way the
    // ETag is the container's trailer, and the watcher's first probe
    // decides whether the corpus is current.
    let (corpus, trailer) = match rd_snap::Corpus::read_file_with_trailer(snapshot_path) {
        Ok((corpus, trailer)) => (corpus, Some(trailer)),
        Err(e) => {
            // No file is a first boot; one that does not load is replaced.
            if snapshot_path.exists() {
                let why = format!("last-good snapshot does not load ({e})");
                let _ = writeln!(std::io::stderr(), "rdx watch: {why}; analyzing afresh");
            }
            let outcome = snap_dir(dir).map_err(|e| format!("initial analysis failed: {e}"))?;
            publishable(&outcome).map_err(|e| {
                format!("initial analysis failed ({e}) and no last-good snapshot loads")
            })?;
            let bytes = outcome.corpus.to_bytes();
            rd_snap::write_atomic(snapshot_path, &bytes)
                .map_err(|e| format!("cannot persist initial snapshot: {e}"))?;
            (outcome.corpus, rd_snap::trailer_of(&bytes))
        }
    };
    let server = Server::start(corpus, trailer, addr, serve_opts)
        .map_err(|e| format!("cannot start server: {e}"))?;
    let (addr, nets, snap) = (server.local_addr(), server.network_count(), snapshot_path.display());
    let (poll, debounce) = (watch_opts.poll_interval.as_millis(), watch_opts.debounce.as_millis());
    let mut out = std::io::stdout();
    let _ = writeln!(out, "listening on http://{addr} ({nets} network(s) from {snap})");
    let _ = writeln!(out, "watching {} (poll {poll} ms, debounce {debounce} ms)", dir.display());
    let _ = out.flush();

    let watcher = Watcher::new(dir, snapshot_path, server.controller(), watch_opts);
    let supervisor = std::thread::Builder::new()
        .name("rdx-watch".to_string())
        .spawn(move || watcher.run())
        .map_err(|e| format!("cannot spawn watch loop: {e}"))?;
    server.run_until_shutdown();
    supervisor.join().map_err(|_| "watch loop panicked".to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::SystemTime;

    fn config(octet: u8) -> String {
        format!(
            "hostname ra\ninterface Ethernet0\n ip address 10.0.{octet}.1 255.255.255.0\n\
             router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
        )
    }

    /// Writes `text` to `path` and sets the file's mtime to `mtime`.
    fn write_at(path: &Path, text: &str, mtime: SystemTime) {
        std::fs::write(path, text).expect("write config");
        std::fs::File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_modified(mtime))
            .expect("set mtime");
    }

    #[test]
    fn same_size_rewrite_within_one_mtime_tick_publishes() {
        let base = std::env::temp_dir().join(format!("rd-watch-racy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dir = base.join("configs");
        let path = dir.join("netA").join("ra.cfg");
        std::fs::create_dir_all(dir.join("netA")).expect("network dir");
        // Both writes carry one mtime: the second lands within the
        // first's timestamp tick, at the same size.
        let tick = SystemTime::now();
        write_at(&path, &config(1), tick);
        let outcome = snap_dir(&dir).expect("initial analysis");
        let snapshot_path = base.join("last-good.rdsnap");
        rd_snap::write_atomic(&snapshot_path, &outcome.corpus.to_bytes()).expect("persist");
        let serve = ServeOptions { workers: 1, ..ServeOptions::default() };
        let server = Server::start(outcome.corpus, None, "127.0.0.1:0", serve).expect("server");
        let opts = WatchOptions {
            poll_interval: Duration::ZERO,
            debounce: Duration::ZERO,
            ..WatchOptions::default()
        };
        let mut watcher = Watcher::new(&dir, &snapshot_path, server.controller(), opts);
        assert_eq!(watcher.tick(), Tick::Idle);

        write_at(&path, &config(2), tick);
        assert_eq!(watcher.tick(), Tick::Published);
        assert!(watcher.settled());
        // A comment changes the bytes but not the analysis.
        write_at(&path, &format!("{}! change ticket 7\n", config(2)), tick);
        assert_eq!(watcher.tick(), Tick::Idle);
        assert_eq!(watcher.generation(), 1);

        server.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A two-network tree under a fresh scratch directory, its snapshot
    /// persisted beside it, and a server booted from that file, as `rdx
    /// serve` would. Returns (scratch dir, tree, snapshot, server).
    fn booted_from_snapshot(tag: &str) -> (PathBuf, PathBuf, PathBuf, Server) {
        let base =
            std::env::temp_dir().join(format!("rd-watch-boot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dir = base.join("configs");
        for (net, octet) in [("netA", 1), ("netB", 2)] {
            std::fs::create_dir_all(dir.join(net)).expect("network dir");
            std::fs::write(dir.join(net).join("ra.cfg"), config(octet)).expect("write config");
        }
        let outcome = snap_dir(&dir).expect("initial analysis");
        let snapshot_path = base.join("last-good.rdsnap");
        rd_snap::write_atomic(&snapshot_path, &outcome.corpus.to_bytes()).expect("persist");
        let serve = ServeOptions { workers: 1, ..ServeOptions::default() };
        let server = Server::start_file(&snapshot_path, "127.0.0.1:0", serve).expect("server");
        (base, dir, snapshot_path, server)
    }

    fn immediate() -> WatchOptions {
        let zero = Duration::ZERO;
        WatchOptions { poll_interval: zero, debounce: zero, ..WatchOptions::default() }
    }

    #[test]
    fn booting_on_a_current_snapshot_publishes_nothing() {
        let (base, dir, snapshot_path, server) = booted_from_snapshot("current");
        let persisted = std::fs::read(&snapshot_path).expect("snapshot");
        let mut watcher = Watcher::new(&dir, &snapshot_path, server.controller(), immediate());
        assert!(watcher.settled(), "the served corpus matches the tree");
        assert_eq!(watcher.tick(), Tick::Idle);
        assert_eq!(watcher.generation(), 0);
        let now = std::fs::read(&snapshot_path).expect("snapshot");
        assert_eq!(now, persisted, "nothing re-persisted");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn booting_on_an_outdated_snapshot_publishes_the_change() {
        let (base, dir, snapshot_path, server) = booted_from_snapshot("outdated");
        let etag = server.etag();
        // The config changes after the snapshot was written (while the
        // daemon was down).
        std::fs::write(dir.join("netB").join("ra.cfg"), config(7)).expect("edit config");
        let mut watcher = Watcher::new(&dir, &snapshot_path, server.controller(), immediate());
        assert!(!watcher.settled());
        assert_eq!(watcher.tick(), Tick::Published);
        assert_eq!(watcher.generation(), 1);
        assert_ne!(server.etag(), etag);
        let cold = snap_dir(&dir).expect("cold analysis").corpus.to_bytes();
        assert_eq!(std::fs::read(&snapshot_path).expect("snapshot"), cold);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&base);
    }
}
