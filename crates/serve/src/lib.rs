//! `rd-serve`: a zero-dependency, epoll-based HTTP/1.1 query server over
//! `rd-snap` analysis snapshots.
//!
//! The paper's analysis is extracted once (`rdx snap`) and then queried
//! cheaply: `rdx serve study.rdsnap --addr 127.0.0.1:0` loads the corpus
//! into memory and serves it from a readiness-driven event loop (see
//! [`event_loop`] internals: non-blocking accept/read/write,
//! per-connection state machines with partial-read/partial-write
//! buffers, a lazy deadline wheel). Because every GET body is a pure
//! function of the loaded snapshot, snapshot-derived endpoints are
//! rendered once per snapshot into a pre-rendered response cache tagged
//! with the snapshot's FNV-1a-64 trailer — every snapshot-derived
//! response is a single memcpy of one cached buffer (a non-canonical
//! spelling such as `//pathways` is looked up under its canonical path),
//! which is what takes mixed-endpoint throughput from thousands to
//! hundreds of thousands of requests per second. One route table decides
//! what a path names: a request target that misses the cache is parsed
//! once into a `Route`, and the cache's path list and renderers, the
//! canonical-spelling retry, the 404 wording, and the dynamic and POST
//! handlers all match on it. Every response, cached or not, leaves
//! through one writer ([`http`]'s response value):
//!
//! | Endpoint | Body |
//! |---|---|
//! | `/healthz` | health state + corpus size (`?live=1` = pure liveness) |
//! | `/networks` | per-network summary rows |
//! | `/networks/{id}` | one network's full summary |
//! | `/networks/{id}/processes` | that network's routing processes |
//! | `/instances` | routing instances across the corpus |
//! | `/pathways` | per-router pathway depth summaries |
//! | `/diag` | all pipeline diagnostics |
//! | `/plan` | the reconfiguration plan given at start (404 without one) |
//! | `/metrics` | the rd-obs registry, Prometheus text format |
//! | `/admin/debug/loop` | per-event-loop health (wakeups, slab, wheel) |
//! | `/admin/debug/conns` | live connections: state, age, buffers |
//! | `/admin/debug/cache` | serving snapshot + reload history ring |
//! | `/admin/debug/watch` | watcher health state + supervisor status |
//! | `POST /admin/reload` | schedule a snapshot hot reload |
//!
//! Snapshot-derived responses carry the trailer as an `ETag` and honor
//! `If-None-Match` with `304`. A server started from a snapshot file
//! ([`Server::start_file`], `rdx serve`) hot-reloads it: SIGHUP or `POST
//! /admin/reload` re-reads the file and rebuilds the cache on a manager
//! thread, then swaps an `Arc` — in-flight requests keep the snapshot
//! they started with, so no response ever mixes versions and none are
//! dropped. A server started from a corpus ([`Server::start`], `rdx
//! watch`) has no reload file: its supervisor publishes through
//! [`Controller::publish`] alone, and `POST /admin/reload` answers 409.
//! GET and HEAD are served everywhere (HEAD elides the body, keeps
//! `content-length`); keep-alive and pipelining are honored;
//! `400`/`413`/`431` rejections close cleanly through a lingering close.
//!
//! Every request is traced (`http.request` events) and measured
//! (`http.requests`, `http.cache_hit`/`http.cache_miss`, status-class
//! counters, the `http.request_us` histogram) with per-loop batching so
//! the metrics mutex is off the hot path. Strict input limits (see
//! [`http`]) bound per-connection memory; read, write, and linger
//! deadlines bound slow clients; past `--max-conns` live connections,
//! new ones get a `503` + `Retry-After` (counted as
//! `http.rejected_busy`), delivered through the same lingering close as
//! other rejections, with the socket briefly holding a connection slot
//! while the refusal flushes. Shutdown is graceful: a flag flipped either
//! programmatically ([`Server::shutdown`]) or by SIGTERM/SIGINT
//! ([`install_signal_handlers`]) stops accepting, flushes in-flight
//! responses, and joins every loop.

#![warn(missing_docs)]

pub mod http;
pub mod render;

mod cache;
mod debug;
mod event_loop;
mod reload;
mod route;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rd_snap::Corpus;

use cache::SnapshotState;
use debug::{LoopDebug, ReloadEvent};
use route::DebugView;

/// Latency histogram bounds, in microseconds.
pub(crate) const LATENCY_BOUNDS_US: &[u64] =
    &[50, 100, 250, 500, 1000, 2500, 5000, 25000, 100_000];
/// Bounds for `loop.epoll_wait_us` and `loop.iter_us`: a healthy loop
/// either sleeps (wait up to the 100 ms epoll timeout) or turns over in
/// microseconds, so the interesting signal is the tail.
pub(crate) const LOOP_US_BOUNDS: &[u64] = &[10, 100, 1000, 10_000, 100_000];
/// Bounds for `loop.wakeup_events` (events delivered per epoll wake-up).
pub(crate) const WAKEUP_BATCH_BOUNDS: &[u64] = &[1, 2, 4, 16, 64, 256];
/// Bounds for `http.conn_age_ms` (connection age at close).
pub(crate) const CONN_AGE_BOUNDS_MS: &[u64] = &[1, 10, 100, 1000, 10_000, 60_000];

/// How often `run_until_shutdown` and the reload manager re-check flags.
const POLL_IDLE: Duration = Duration::from_millis(50);

/// Set by SIGTERM/SIGINT; checked by every loop alongside the server's
/// own flag.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Set by SIGHUP; drained by the reload manager.
static SIGNAL_RELOAD: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that request a graceful shutdown of
/// every [`Server`] in the process, and a SIGHUP handler that requests a
/// snapshot hot reload.
///
/// The handlers only store to atomic flags (the sole async-signal-safe
/// thing they could do); the loops and the reload manager notice within
/// their poll intervals.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(sig: i32) {
            const SIGHUP: i32 = 1;
            if sig == SIGHUP {
                SIGNAL_RELOAD.store(true, Ordering::SeqCst);
            } else {
                SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
            }
        }
        // Minimal libc binding — the workspace carries no external crates.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGHUP: i32 = 1;
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGHUP, handler);
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// True once a shutdown signal has been delivered.
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// The serving health state machine surfaced at `/healthz`.
///
/// `rdx serve` alone moves between `Fresh` and `Stale` (a failed hot
/// reload keeps the last-good snapshot serving); `rdx watch`, whose
/// watcher is the server's only publisher, drives all three states —
/// repeated analysis failures escalate `Stale` to `Degraded`, which
/// turns `/healthz` non-200 (the liveness form `/healthz?live=1` stays
/// 200 as long as the process answers at all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// The served snapshot reflects the latest known input.
    Fresh,
    /// The latest reload/analysis failed; the last-good snapshot is
    /// still serving.
    Stale,
    /// Repeated failures: still serving last-good, but operator
    /// attention is needed. `/healthz` answers 503.
    Degraded,
}

impl HealthState {
    /// The wire name of the state, as rendered in `/healthz` bodies and
    /// the `watch_health` gauge.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Fresh => "fresh",
            HealthState::Stale => "stale-serving-last-good",
            HealthState::Degraded => "degraded",
        }
    }

    fn from_u8(v: u8) -> HealthState {
        match v {
            1 => HealthState::Stale,
            2 => HealthState::Degraded,
            _ => HealthState::Fresh,
        }
    }
}

/// Watcher status published by `rdx watch` and rendered at
/// `/admin/debug/watch`. All timestamps are uptime milliseconds
/// ([`Controller::uptime_ms`]).
#[derive(Clone, Debug, Default)]
pub struct WatchStatus {
    /// Successful analysis publishes since the watcher started.
    pub generation: u64,
    /// Total failed analysis attempts.
    pub failures: u64,
    /// Failed attempts since the last success.
    pub consecutive_failures: u32,
    /// Current backoff before the next retry (0 when healthy).
    pub backoff_ms: u64,
    /// The last analysis error, if the most recent attempt failed.
    pub last_error: Option<String>,
    /// When the last config change was observed.
    pub last_change_ms: u64,
    /// When the last successful publish landed.
    pub last_publish_ms: u64,
    /// Router-config fingerprints currently tracked.
    pub fingerprints: usize,
}

/// Server tuning knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Event-loop threads; 0 sizes by [`rd_par::thread_count`].
    pub workers: usize,
    /// Live-connection cap; past it, accepts get `503` + `Retry-After`.
    pub max_conns: usize,
    /// Reconfiguration-plan document (the `rdx plan --json` bytes)
    /// served verbatim at `/plan`; `None` 404s the endpoint. The plan
    /// survives hot reloads — it describes the migration, not the
    /// snapshot.
    pub plan: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { workers: 0, max_conns: 1024, plan: None }
    }
}

/// State shared by every loop thread and the reload manager.
pub(crate) struct Shared {
    state: Mutex<Arc<SnapshotState>>,
    epoch: AtomicU64,
    shutdown: AtomicBool,
    reload_requested: AtomicBool,
    pub(crate) conn_count: AtomicUsize,
    pub(crate) max_conns: usize,
    /// True when a reload manager re-reads a snapshot file on SIGHUP and
    /// `POST /admin/reload`; a server started from a corpus has none, so
    /// [`Controller::publish`] is the only way a new corpus gets in.
    pub(crate) reloadable: bool,
    /// The `/plan` document, rendered into every rebuilt snapshot state.
    plan: Option<String>,
    /// When the server started (uptime base for debug timestamps).
    started: Instant,
    /// Per-loop self-published debug snapshots, indexed by loop id.
    debug: Mutex<Vec<Option<LoopDebug>>>,
    /// Ring of (re)load events, oldest first; entry zero is the boot load.
    reload_history: Mutex<Vec<ReloadEvent>>,
    /// The `/healthz` state machine (a [`HealthState`] as `u8`).
    health: AtomicU8,
    /// Last watcher status published by `rdx watch`, if any.
    watch: Mutex<Option<WatchStatus>>,
}

impl Shared {
    /// The current snapshot state. Loops call this only when the epoch
    /// moved, so the mutex is off the request path.
    pub(crate) fn current_state(&self) -> Arc<SnapshotState> {
        Arc::clone(&self.state.lock().unwrap_or_else(|p| p.into_inner()))
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The one publish path after boot, shared by hot reload and
    /// [`Controller::publish`]: builds the state for `corpus` (cache and
    /// all) on the calling thread, swaps it in with one `Arc` store, and
    /// records the publish in the reload-history ring.
    pub(crate) fn publish(&self, corpus: Corpus, trailer: Option<u64>, detail: &str) {
        let state = SnapshotState::build(corpus, trailer, self.plan.as_deref());
        let event = ReloadEvent::new(&state, self.uptime_ms(), true, detail);
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) = Arc::new(state);
        self.epoch.fetch_add(1, Ordering::Release);
        self.push_reload_event(event);
    }

    /// Records a failed (re)load in the reload-history ring; the entry
    /// names the snapshot that is still serving.
    pub(crate) fn record_failure(&self, detail: &str) {
        let event = ReloadEvent::new(&self.current_state(), self.uptime_ms(), false, detail);
        self.push_reload_event(event);
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal_shutdown_requested()
    }

    pub(crate) fn request_reload(&self) {
        self.reload_requested.store(true, Ordering::SeqCst);
    }

    /// Drains both reload triggers (admin endpoint, SIGHUP).
    pub(crate) fn take_reload_request(&self) -> bool {
        let admin = self.reload_requested.swap(false, Ordering::SeqCst);
        let sighup = SIGNAL_RELOAD.swap(false, Ordering::SeqCst);
        admin || sighup
    }

    pub(crate) fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Stores a loop's self-published debug snapshot.
    pub(crate) fn publish_loop_debug(&self, loop_id: usize, snap: LoopDebug) {
        let mut slots = self.debug.lock().unwrap_or_else(|p| p.into_inner());
        if loop_id < slots.len() {
            slots[loop_id] = Some(snap);
        }
    }

    /// Appends to the reload-history ring, dropping the oldest entry
    /// past capacity.
    pub(crate) fn push_reload_event(&self, ev: ReloadEvent) {
        let mut ring = self.reload_history.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() >= debug::RELOAD_HISTORY {
            ring.remove(0);
        }
        ring.push(ev);
    }

    /// Renders one `/admin/debug/*` view: the loop and connection views
    /// from the snapshots the loops publish, the cache view against the
    /// snapshot state the calling loop is serving from, the watch view
    /// from the status `rdx watch` last published.
    pub(crate) fn render_debug(&self, view: DebugView, st: &SnapshotState) -> String {
        let loops = || self.debug.lock().unwrap_or_else(|p| p.into_inner());
        match view {
            DebugView::Loop => debug::render_loops(&loops()),
            DebugView::Conns => debug::render_conns(&loops()),
            DebugView::Cache => {
                let ring = self.reload_history.lock().unwrap_or_else(|p| p.into_inner());
                debug::render_cache(st, &ring, self.uptime_ms())
            }
            DebugView::Watch => {
                let status = self.watch.lock().unwrap_or_else(|p| p.into_inner());
                debug::render_watch(self.health(), status.as_ref(), self.uptime_ms())
            }
        }
    }

    pub(crate) fn health(&self) -> HealthState {
        HealthState::from_u8(self.health.load(Ordering::SeqCst))
    }

    pub(crate) fn set_health(&self, state: HealthState) {
        self.health.store(state as u8, Ordering::SeqCst);
        rd_obs::metrics::gauge_set("watch.health", state as u8 as i64);
    }

    pub(crate) fn set_watch_status(&self, status: WatchStatus) {
        *self.watch.lock().unwrap_or_else(|p| p.into_inner()) = Some(status);
    }
}

/// Pre-registers every metric family the server emits, so `/metrics`
/// exposes them (at zero) from the first scrape — the metrics contract
/// in verify.sh asserts presence unconditionally instead of racing the
/// first request or reload. Also stamps `rd.build_info` / uptime.
fn register_serve_metrics() {
    use rd_obs::metrics::{counter_add, gauge_max, histogram_register, set_build_info};
    for name in [
        "http.requests",
        "http.responses.2xx",
        "http.responses.3xx",
        "http.responses.4xx",
        "http.responses.5xx",
        "http.cache_hit",
        "http.cache_miss",
        "http.rejected_busy",
        "http.reload_ok",
        "http.reload_failed",
        "loop.wakeups",
        "loop.backpressure_engaged",
        "loop.backpressure_released",
        "watch.scans",
        "watch.changes",
        "watch.publish_ok",
        "watch.publish_failed",
        "watch.analysis_panics",
    ] {
        counter_add(name, 0);
    }
    rd_obs::metrics::gauge_set("watch.health", HealthState::Fresh as u8 as i64);
    rd_obs::metrics::gauge_set("watch.consecutive_failures", 0);
    rd_obs::metrics::gauge_set("watch.backoff_ms", 0);
    histogram_register("http.request_us", LATENCY_BOUNDS_US);
    histogram_register("http.conn_age_ms", CONN_AGE_BOUNDS_MS);
    histogram_register("loop.epoll_wait_us", LOOP_US_BOUNDS);
    histogram_register("loop.wakeup_events", WAKEUP_BATCH_BOUNDS);
    histogram_register("loop.iter_us", LOOP_US_BOUNDS);
    gauge_max("loop.slab_live_hw", 0);
    gauge_max("loop.wheel_depth_hw", 0);
    set_build_info(env!("CARGO_PKG_VERSION"));
}

/// A running snapshot query server.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
    /// `corpus`. The `ETag` is `trailer`, the container trailer of the
    /// corpus's bytes, or when `None` is computed by re-encoding it. No
    /// reload file: `POST /admin/reload` answers 409, SIGHUP changes
    /// nothing, and [`Controller::publish`] is the only publisher.
    pub fn start(
        corpus: Corpus,
        trailer: Option<u64>,
        addr: &str,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        Server::boot(corpus, trailer, None, addr, opts)
    }

    /// Loads a snapshot file and serves it, wiring the file in as the
    /// hot-reload source (SIGHUP / `POST /admin/reload` re-read it).
    /// The `ETag` comes from the file's stored trailer — no re-encode.
    /// A file that cannot be read or decoded fails with
    /// [`io::ErrorKind::InvalidData`] before anything binds, so a caller
    /// can tell it from a failed bind.
    pub fn start_file(path: &std::path::Path, addr: &str, opts: ServeOptions) -> io::Result<Server> {
        let (corpus, trailer) = Corpus::read_file_with_trailer(path)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Server::boot(corpus, Some(trailer), Some(path.to_path_buf()), addr, opts)
    }

    /// Starts the server, with a reload manager when there is a
    /// `reload_path` for it to re-read.
    fn boot(
        corpus: Corpus,
        trailer: Option<u64>,
        reload_path: Option<PathBuf>,
        addr: &str,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let listener = Arc::new(listener);

        let state = SnapshotState::build(corpus, trailer, opts.plan.as_deref());
        let boot = ReloadEvent::new(&state, 0, true, "boot");
        let loops = if opts.workers == 0 { rd_par::thread_count().max(1) } else { opts.workers };
        let shared = Arc::new(Shared {
            state: Mutex::new(Arc::new(state)),
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            reload_requested: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            max_conns: opts.max_conns.max(1),
            reloadable: reload_path.is_some(),
            plan: opts.plan,
            started: Instant::now(),
            debug: Mutex::new((0..loops).map(|_| None).collect()),
            reload_history: Mutex::new(Vec::new()),
            health: AtomicU8::new(HealthState::Fresh as u8),
            watch: Mutex::new(None),
        });
        shared.push_reload_event(boot);
        register_serve_metrics();

        let mut handles = Vec::with_capacity(loops + 1);
        for i in 0..loops {
            let shared = Arc::clone(&shared);
            let listener = Arc::clone(&listener);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rd-serve-loop-{i}"))
                    .spawn(move || event_loop::run(shared, listener, i))
                    .expect("spawn event loop"),
            );
        }
        if let Some(path) = reload_path {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name("rd-serve-reload".to_string())
                    .spawn(move || reload::run(shared, path))
                    .expect("spawn reload manager"),
            );
        }
        rd_obs::metrics::gauge_set("http.workers", loops as i64);
        Ok(Server { local_addr, shared, handles })
    }

    /// The actual bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The entity tag currently served (`"<trailer hex>"`, quoted) —
    /// how tests and operators observe which snapshot is live.
    pub fn etag(&self) -> String {
        self.shared.current_state().etag.clone()
    }

    /// Networks in the currently served corpus.
    pub fn network_count(&self) -> usize {
        self.shared.current_state().corpus.networks.len()
    }

    /// A cloneable publishing handle for an external supervisor (`rdx
    /// watch`): snapshot publishes, health transitions, and watcher
    /// status, without holding the `Server` itself.
    pub fn controller(&self) -> Controller {
        Controller { shared: Arc::clone(&self.shared) }
    }

    /// Schedules a file-based hot reload, as `POST /admin/reload` does.
    /// No-op unless the server was started by [`Server::start_file`].
    pub fn trigger_reload(&self) {
        self.shared.request_reload();
    }

    /// Requests a graceful stop and joins every loop. In-flight
    /// responses flush; idle keep-alive connections are closed.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for h in self.handles {
            let _ = h.join();
        }
    }

    /// Blocks until a shutdown is requested (programmatically or via a
    /// signal), then joins the loops. This is what `rdx serve` calls
    /// after printing the bound address.
    pub fn run_until_shutdown(self) {
        while !self.shared.is_shutdown() {
            std::thread::sleep(POLL_IDLE);
        }
        self.shutdown();
    }
}

/// A cloneable handle into a running [`Server`] for an out-of-process
/// supervisor loop — how `rdx watch` publishes re-analysis results into
/// the co-hosted server. Obtained via [`Server::controller`].
#[derive(Clone)]
pub struct Controller {
    shared: Arc<Shared>,
}

impl Controller {
    /// Publishes a new corpus atomically, exactly like a successful hot
    /// reload: the snapshot state (cache and all) is built on the calling
    /// thread, then swapped in one `Arc` store. Pass the container
    /// `trailer` when the bytes were just encoded (avoids a re-encode and
    /// keeps the `ETag` equal to the on-disk trailer); `detail` lands in
    /// the `/admin/debug/cache` reload-history ring.
    pub fn publish(&self, corpus: Corpus, trailer: Option<u64>, detail: &str) {
        self.shared.publish(corpus, trailer, detail);
    }

    /// Records a failed analysis attempt in the reload-history ring
    /// (the served snapshot is untouched).
    pub fn record_failure(&self, detail: &str) {
        self.shared.record_failure(detail);
    }

    /// The corpus currently served. Its networks are the very
    /// `Arc<NetworkSnapshot>`s the server renders from, so a supervisor
    /// can take them over without a copy or a second decode.
    pub fn corpus(&self) -> Arc<Corpus> {
        Arc::clone(&self.shared.current_state().corpus)
    }

    /// The `/healthz` state.
    pub fn health(&self) -> HealthState {
        self.shared.health()
    }

    /// Sets the `/healthz` state.
    pub fn set_health(&self, state: HealthState) {
        self.shared.set_health(state);
    }

    /// Publishes watcher status for `/admin/debug/watch`.
    pub fn set_watch_status(&self, status: WatchStatus) {
        self.shared.set_watch_status(status);
    }

    /// Milliseconds since the server started (the timestamp base for
    /// [`WatchStatus`]).
    pub fn uptime_ms(&self) -> u64 {
        self.shared.uptime_ms()
    }

    /// True once shutdown has been requested (flag or signal) — the
    /// watcher's loop-exit condition.
    pub fn is_shutdown(&self) -> bool {
        self.shared.is_shutdown()
    }
}
