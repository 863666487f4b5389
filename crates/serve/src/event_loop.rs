//! The epoll event loop: readiness-driven, non-blocking connection
//! handling with per-connection state machines and a deadline wheel.
//!
//! Zero-dependency per the workspace's offline policy: epoll is reached
//! through four `extern "C"` bindings (`epoll_create1` / `epoll_ctl` /
//! `epoll_wait` / `close`), shaped like mio's poll-registry-token model.
//! Each loop thread owns one epoll instance; the shared listener is
//! registered level-triggered in every loop, so whichever thread wakes
//! first accepts — no cross-thread connection handoff, no wake pipe.
//!
//! A connection is a small state machine ([`Conn`]): bytes accumulate in
//! `read_buf` (possibly many pipelined requests per read), responses
//! accumulate in `write_buf` (partial writes keep `EPOLLOUT` interest
//! until drained), and `state` tracks the path to close — `FlushClose`
//! finishes the pending response first, and error closes go through
//! `Draining` (shutdown write side, discard input briefly) so the error
//! body is not lost to a TCP reset. Deadlines live on a coarse timer
//! wheel with lazy re-insertion: one entry per connection, re-validated
//! against the connection's actual deadline when its slot fires, so a
//! slowloris client dribbling header bytes cannot push its deadline out.
//!
//! Hot-path observability is batched: counters and the latency histogram
//! accumulate in a per-loop [`LoopStats`] and fold into the rd-obs
//! registry once per wake-up (and right before `/metrics` renders), not
//! once per request.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::SnapshotState;
use crate::debug::{ConnDebug, LoopDebug, MAX_CONNS_LISTED, PUBLISH_INTERVAL};
use crate::http::{self, HeadView, Response};
use crate::render;
use crate::route::Route;
use crate::{
    HealthState, Shared, CONN_AGE_BOUNDS_MS, LATENCY_BOUNDS_US, LOOP_US_BOUNDS,
    WAKEUP_BATCH_BOUNDS,
};

/// Per-connection read deadline: bounds keep-alive idle time and how
/// long a client can take to deliver one request head (slowloris).
const READ_TIMEOUT: Duration = Duration::from_millis(2000);
/// Per-connection write deadline: bounds how long a stalled client
/// (zero receive window) can hold response bytes unflushed.
const WRITE_TIMEOUT: Duration = Duration::from_millis(2000);
/// How long an error close drains unread input before dropping the
/// socket, and the cap on bytes drained.
const LINGER_TIMEOUT: Duration = Duration::from_millis(500);
const LINGER_BUDGET: usize = 1024 * 1024;
/// Backpressure high-water mark: past this many pending response bytes,
/// a connection's pipelined requests wait in `read_buf` (and its read
/// interest drops) until the peer drains what it already asked for.
const WRITE_HIGH_WATER: usize = 1024 * 1024;
/// The header that keeps caches from storing a per-request body.
const NO_STORE: &str = "cache-control: no-store\r\n";
/// Longest an epoll wait sleeps, so shutdown flags and cross-loop
/// snapshot swaps are noticed promptly even on an idle loop.
const EPOLL_WAIT_MS: i32 = 100;
/// Most connections accepted per listener wake-up (fairness bound).
const ACCEPT_BURST: usize = 256;
/// How long a shutting-down loop keeps flushing in-flight responses.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(1000);
/// Timer wheel shape: 64 slots of 128 ms cover every deadline above.
const WHEEL_SLOTS: usize = 64;
const WHEEL_TICK: Duration = Duration::from_millis(128);
/// An idle loop (no requests since the last flush) still folds its
/// batch after this many wake-ups (~6.4 s at the 100 ms epoll timeout),
/// so loop-health metrics stay fresh without touching the registry
/// mutex on every idle wake-up. Under load the flush cadence is
/// unchanged: once per wake-up that served anything.
const IDLE_FLUSH_WAKEUPS: u64 = 64;

// ---------------------------------------------------------------------
// Raw epoll bindings (Linux). The `epoll_event` struct is packed on
// x86-64 (kernel ABI); natural layout elsewhere.

#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// The token carried in `epoll_event.data` for the listener itself.
const LISTENER_TOKEN: u64 = u64::MAX;

fn token_data(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

/// An owned epoll instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, data: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, data: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, data, events)
    }

    fn modify(&self, fd: RawFd, data: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, data, events)
    }

    fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness; EINTR (a signal landed) reads as zero events
    /// so the loop re-checks its shutdown/reload flags.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> usize {
        let n = unsafe {
            epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

// ---------------------------------------------------------------------
// Connection state machine.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConnState {
    /// Serving requests.
    Open,
    /// Flush `write_buf`, then close — lingering (error responses: shut
    /// down the write side and drain briefly so the response survives
    /// unread pipelined input) or immediate (`connection: close`).
    FlushClose { linger: bool },
    /// Write side closed; discarding input until EOF, the linger budget,
    /// or the deadline.
    Draining,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// Unparsed request bytes; requests are consumed from the front.
    read_buf: Vec<u8>,
    /// How much of `read_buf` a previous head-end scan already covered.
    scanned: usize,
    /// Remaining declared-body bytes to discard before the next head.
    body_skip: usize,
    /// Pending response bytes and how many are already written.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Current epoll interest mask.
    interest: u32,
    /// The live deadline (read, write, or linger — per `state`).
    deadline: Instant,
    /// Remaining bytes the draining close will discard.
    linger_budget: usize,
    read_eof: bool,
    /// When the connection was accepted (close-age telemetry).
    created: Instant,
    /// True while past the write high-water mark — tracked so the
    /// engaged/released transition counters fire exactly once per edge.
    backpressured: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant, deadline: Instant) -> Conn {
        Conn {
            stream,
            state: ConnState::Open,
            read_buf: Vec::new(),
            scanned: 0,
            body_skip: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            deadline,
            linger_budget: LINGER_BUDGET,
            read_eof: false,
            created: now,
            backpressured: false,
        }
    }

    fn state_name(&self) -> &'static str {
        match self.state {
            ConnState::Open => "open",
            ConnState::FlushClose { linger: false } => "flush-close",
            ConnState::FlushClose { linger: true } => "flush-close-linger",
            ConnState::Draining => "draining",
        }
    }

    fn write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

/// Slot arena for connections. Tokens are `(index, generation)`: the
/// generation bumps on release, so stale epoll events or wheel entries
/// for a recycled slot never touch the wrong connection.
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab { slots: Vec::new(), gens: Vec::new(), free: Vec::new(), live: 0 }
    }

    fn insert(&mut self, conn: Conn) -> (usize, u32) {
        self.live += 1;
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(conn);
                (idx, self.gens[idx])
            }
            None => {
                self.slots.push(Some(conn));
                self.gens.push(0);
                (self.slots.len() - 1, 0)
            }
        }
    }

    /// Takes the connection out for processing; `put_back` or `release`
    /// must follow. Stale generations return `None`.
    fn take_if(&mut self, idx: usize, gen: u32) -> Option<Conn> {
        if idx >= self.slots.len() || self.gens[idx] != gen {
            return None;
        }
        self.slots[idx].take()
    }

    fn put_back(&mut self, idx: usize, conn: Conn) {
        self.slots[idx] = Some(conn);
    }

    fn release(&mut self, idx: usize) {
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
    }
}

/// The lazy timer wheel: one entry per live connection. A fired entry
/// whose connection's real deadline is still in the future is simply
/// re-inserted at the right slot — updating a deadline is a field write,
/// not a wheel operation.
struct Wheel {
    slots: Vec<Vec<(usize, u32)>>,
    cursor: usize,
    cursor_time: Instant,
}

impl Wheel {
    fn new(now: Instant) -> Wheel {
        Wheel { slots: vec![Vec::new(); WHEEL_SLOTS], cursor: 0, cursor_time: now }
    }

    fn insert(&mut self, idx: usize, gen: u32, deadline: Instant, now: Instant) {
        let base = self.cursor_time.max(now);
        let ticks = if deadline > base {
            (deadline - base).as_millis() as u64 / WHEEL_TICK.as_millis() as u64 + 1
        } else {
            1
        };
        let offset = (ticks as usize).min(WHEEL_SLOTS - 1);
        let slot = (self.cursor + offset) % WHEEL_SLOTS;
        self.slots[slot].push((idx, gen));
    }

    /// Drains every slot the cursor passes catching up to `now`.
    fn expire(&mut self, now: Instant, fired: &mut Vec<(usize, u32)>) {
        while now.duration_since(self.cursor_time) >= WHEEL_TICK {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            self.cursor_time += WHEEL_TICK;
            fired.append(&mut self.slots[self.cursor]);
        }
    }

    /// `(total entries, deepest bucket)` — telemetry; entries for
    /// deadlines that have since moved are counted as they sit.
    fn depth(&self) -> (usize, usize) {
        let mut total = 0;
        let mut deepest = 0;
        for slot in &self.slots {
            total += slot.len();
            deepest = deepest.max(slot.len());
        }
        (total, deepest)
    }
}

/// Per-loop metrics batch, folded into rd-obs once per wake-up (or, on
/// an idle loop, once per [`IDLE_FLUSH_WAKEUPS`]).
struct LoopStats {
    requests: u64,
    /// Response counts by status class (index = class - 2 for 2xx..5xx).
    classes: [u64; 4],
    latency: rd_obs::metrics::Histogram,
    cache_hits: u64,
    cache_misses: u64,
    rejected_busy: u64,
    /// Epoll wake-ups since the last flush.
    wakeups: u64,
    /// Time spent blocked in `epoll_wait` per wake-up.
    epoll_wait_us: rd_obs::metrics::Histogram,
    /// Readiness events delivered per wake-up (batch size).
    wakeup_events: rd_obs::metrics::Histogram,
    /// Time spent processing one wake-up (dispatch + wheel).
    iter_us: rd_obs::metrics::Histogram,
    /// Connection age at close.
    conn_age_ms: rd_obs::metrics::Histogram,
    /// Write-buffer backpressure edges since the last flush.
    backpressure_engaged: u64,
    backpressure_released: u64,
    /// High-water marks since the last flush.
    slab_live_hw: usize,
    wheel_depth_hw: usize,
    /// Cumulative since loop start (never reset — debug snapshots).
    total_wakeups: u64,
    total_requests: u64,
}

impl LoopStats {
    fn new() -> LoopStats {
        LoopStats {
            requests: 0,
            classes: [0; 4],
            latency: rd_obs::metrics::Histogram::new(LATENCY_BOUNDS_US),
            cache_hits: 0,
            cache_misses: 0,
            rejected_busy: 0,
            wakeups: 0,
            epoll_wait_us: rd_obs::metrics::Histogram::new(LOOP_US_BOUNDS),
            wakeup_events: rd_obs::metrics::Histogram::new(WAKEUP_BATCH_BOUNDS),
            iter_us: rd_obs::metrics::Histogram::new(LOOP_US_BOUNDS),
            conn_age_ms: rd_obs::metrics::Histogram::new(CONN_AGE_BOUNDS_MS),
            backpressure_engaged: 0,
            backpressure_released: 0,
            slab_live_hw: 0,
            wheel_depth_hw: 0,
            total_wakeups: 0,
            total_requests: 0,
        }
    }

    /// Records one response locally; the trace event (when a sink is
    /// installed) still fires per request.
    fn record(&mut self, method: &str, target: &str, status: u16, us: u64) {
        self.requests += 1;
        self.total_requests += 1;
        let class = (status / 100).clamp(2, 5) as usize - 2;
        self.classes[class] += 1;
        self.latency.record(us);
        if rd_obs::trace::enabled() {
            rd_obs::trace::event(
                "http.request",
                &[
                    ("method", method.into()),
                    ("target", target.into()),
                    ("status", i64::from(status).into()),
                    ("us", (us as i64).into()),
                ],
            );
        }
    }

    /// Counts a protocol-error or rejection response without a latency
    /// sample: these paths measure no request service time, and 0-µs
    /// samples would drag the `http.request_us` percentiles down under
    /// an error burst.
    fn record_error(&mut self, status: u16) {
        self.requests += 1;
        self.total_requests += 1;
        let class = (status / 100).clamp(2, 5) as usize - 2;
        self.classes[class] += 1;
        if rd_obs::trace::enabled() {
            rd_obs::trace::event(
                "http.request",
                &[
                    ("method", "-".into()),
                    ("target", "-".into()),
                    ("status", i64::from(status).into()),
                ],
            );
        }
    }

    fn flush(&mut self) {
        if self.requests == 0 && self.rejected_busy == 0 && self.wakeups < IDLE_FLUSH_WAKEUPS {
            return;
        }
        use rd_obs::metrics::{counter_add, gauge_max, histogram_merge, Histogram};
        if self.requests > 0 {
            counter_add("http.requests", self.requests);
            self.requests = 0;
        }
        for (i, n) in self.classes.iter_mut().enumerate() {
            if *n > 0 {
                counter_add(&format!("http.responses.{}xx", i + 2), *n);
                *n = 0;
            }
        }
        if !self.latency.is_empty() {
            histogram_merge("http.request_us", &self.latency);
            self.latency = Histogram::new(LATENCY_BOUNDS_US);
        }
        if self.cache_hits > 0 {
            counter_add("http.cache_hit", self.cache_hits);
            self.cache_hits = 0;
        }
        if self.cache_misses > 0 {
            counter_add("http.cache_miss", self.cache_misses);
            self.cache_misses = 0;
        }
        if self.rejected_busy > 0 {
            counter_add("http.rejected_busy", self.rejected_busy);
            self.rejected_busy = 0;
        }
        if self.wakeups > 0 {
            counter_add("loop.wakeups", self.wakeups);
            self.wakeups = 0;
        }
        if !self.epoll_wait_us.is_empty() {
            histogram_merge("loop.epoll_wait_us", &self.epoll_wait_us);
            self.epoll_wait_us = Histogram::new(LOOP_US_BOUNDS);
        }
        if !self.wakeup_events.is_empty() {
            histogram_merge("loop.wakeup_events", &self.wakeup_events);
            self.wakeup_events = Histogram::new(WAKEUP_BATCH_BOUNDS);
        }
        if !self.iter_us.is_empty() {
            histogram_merge("loop.iter_us", &self.iter_us);
            self.iter_us = Histogram::new(LOOP_US_BOUNDS);
        }
        if !self.conn_age_ms.is_empty() {
            histogram_merge("http.conn_age_ms", &self.conn_age_ms);
            self.conn_age_ms = Histogram::new(CONN_AGE_BOUNDS_MS);
        }
        if self.backpressure_engaged > 0 {
            counter_add("loop.backpressure_engaged", self.backpressure_engaged);
            self.backpressure_engaged = 0;
        }
        if self.backpressure_released > 0 {
            counter_add("loop.backpressure_released", self.backpressure_released);
            self.backpressure_released = 0;
        }
        if self.slab_live_hw > 0 {
            gauge_max("loop.slab_live_hw", self.slab_live_hw as i64);
            self.slab_live_hw = 0;
        }
        if self.wheel_depth_hw > 0 {
            gauge_max("loop.wheel_depth_hw", self.wheel_depth_hw as i64);
            self.wheel_depth_hw = 0;
        }
    }
}

// ---------------------------------------------------------------------
// Request handling (pure functions over a taken-out connection, so the
// loop struct's disjoint fields borrow cleanly).

/// What answering one request decided about its connection.
struct Outcome {
    keep_alive: bool,
    /// Protocol-level error: close after flushing, with a draining
    /// (lingering) close so the response survives pipelined input.
    error: bool,
    /// Declared request-body bytes to discard before the next head.
    body_skip: usize,
}

/// Appends a protocol-error response and flags the connection for a
/// lingering close. Used for 400/413/431 and head timeouts.
fn push_error(conn: &mut Conn, stats: &mut LoopStats, status: u16, message: &str) {
    Response::error(status, message).write(&mut conn.write_buf, false, false);
    stats.record_error(status);
    // The close is decided: any declared body still owed is now just
    // discarded input. A stale skip here would re-enter the
    // truncated-body branch forever once EOF is set.
    conn.body_skip = 0;
    conn.state = ConnState::FlushClose { linger: true };
}

/// Answers one parsed request, appending the response to `out` in one
/// write.
fn respond(
    st: &SnapshotState,
    shared: &Shared,
    stats: &mut LoopStats,
    head: &HeadView<'_>,
    out: &mut Vec<u8>,
    force_close: bool,
    started: Instant,
) -> Outcome {
    let keep_alive = head.keep_alive && !force_close;
    let mut outcome = Outcome { keep_alive, error: false, body_skip: head.content_length };
    let reply = if head.content_length > http::MAX_BODY_BYTES {
        outcome = Outcome { keep_alive: false, error: true, body_skip: 0 };
        Response::error(413, "request body exceeds limit")
    } else {
        match head.method {
            "GET" | "HEAD" => get(st, shared, stats, head),
            "POST" if Route::parse(head.target) == Route::Reload => reload(shared),
            method => Response {
                extra: "allow: GET, HEAD\r\n",
                ..Response::error(405, &format!("method {method} not allowed"))
            },
        }
    };
    reply.write(out, outcome.keep_alive, head.method == "HEAD");
    let us = started.elapsed().as_micros() as u64;
    stats.record(head.method, head.target, reply.status, us);
    outcome
}

/// Answers a GET or HEAD: from the cache when the request names a
/// snapshot-derived route, else per request.
fn get<'a>(
    st: &'a SnapshotState,
    shared: &Shared,
    stats: &mut LoopStats,
    head: &HeadView<'_>,
) -> Response<'a> {
    let lookup = st.lookup(head);
    if lookup.is_ok() {
        stats.cache_hits += 1;
    }
    match lookup {
        Ok(_) if head.none_match(&st.etag) => st.not_modified(),
        // The hot path: `write` copies the pre-framed keep-alive response
        // whole.
        Ok(cached) => cached.response(&st.etag),
        // Dynamic on purpose: the body reflects the live health state
        // machine, so it is never cached. `?live=1` is pure liveness
        // (always 200); the plain form goes non-200 when degraded.
        Err(Route::Healthz { live }) => {
            let health = shared.health();
            let body = if live {
                render::healthz_live(&st.corpus)
            } else {
                render::healthz(&st.corpus, health)
            };
            let status = if !live && health == HealthState::Degraded { 503 } else { 200 };
            Response { extra: NO_STORE, ..Response::json(status, body) }
        }
        Err(Route::Metrics) => {
            // Fold this loop's batch in first so the scrape sees its own
            // request history.
            stats.flush();
            let body = rd_obs::metrics::render_prometheus();
            Response { content_type: "text/plain; version=0.0.4", ..Response::json(200, body) }
        }
        // The debug views render from state the loops publish off the
        // hot path (and, for the cache view, from this loop's current
        // snapshot state) — never from another loop's live slab.
        Err(Route::Debug(view)) => {
            Response { extra: NO_STORE, ..Response::json(200, shared.render_debug(view, st)) }
        }
        // No cached entry under any spelling and no dynamic route: a
        // 404, counted as a cache miss.
        Err(route) => {
            stats.cache_misses += 1;
            Response::error(404, &route.not_found(head.path()))
        }
    }
}

/// Answers `POST /admin/reload`: schedules a hot reload when the server
/// has a snapshot file to re-read.
fn reload(shared: &Shared) -> Response<'static> {
    if !shared.reloadable {
        return Response::error(
            409,
            "no reload source configured; start the server from a snapshot file",
        );
    }
    shared.request_reload();
    let mut w = rd_obs::json::Writer::object(rd_obs::json::Layout::Inline);
    w.key("status").str("reload scheduled");
    Response::json(200, w.finish())
}

/// Parses and answers every complete pipelined request currently in
/// `read_buf`. Returns `(alive, backpressured)`.
fn process_buffer(
    conn: &mut Conn,
    st: &SnapshotState,
    shared: &Shared,
    stats: &mut LoopStats,
    now: Instant,
) -> (bool, bool) {
    let force_close = shared.is_shutdown();
    loop {
        if conn.state != ConnState::Open {
            // Past an error or a `connection: close` response, remaining
            // pipelined input (including any body still owed) is
            // discarded — the close is already decided. Checked before
            // the body skip so a decided close can never re-enter the
            // truncated-body branch.
            conn.read_buf.clear();
            conn.scanned = 0;
            conn.body_skip = 0;
            return (true, false);
        }
        if conn.body_skip > 0 {
            let take = conn.body_skip.min(conn.read_buf.len());
            conn.read_buf.drain(..take);
            conn.body_skip -= take;
            conn.scanned = 0;
            if conn.body_skip > 0 {
                if conn.read_eof {
                    push_error(conn, stats, 400, "request body truncated");
                    continue;
                }
                return (true, false);
            }
        }
        if conn.write_buf.len() - conn.write_pos > WRITE_HIGH_WATER {
            return (true, true);
        }
        let Some(end) = http::find_head_end(&conn.read_buf, conn.scanned) else {
            conn.scanned = conn.read_buf.len();
            if conn.read_buf.len() > http::MAX_HEAD_BYTES {
                push_error(conn, stats, 431, "request head exceeds limit");
                continue;
            }
            if conn.read_eof {
                if conn.read_buf.is_empty() {
                    if conn.write_pending() {
                        conn.state = ConnState::FlushClose { linger: false };
                        return (true, false);
                    }
                    return (false, false);
                }
                push_error(conn, stats, 400, "truncated request head");
                continue;
            }
            return (true, false);
        };
        if end > http::MAX_HEAD_BYTES {
            push_error(conn, stats, 431, "request head exceeds limit");
            continue;
        }
        let started = Instant::now();
        let parsed = {
            let (read_buf, write_buf) = (&conn.read_buf, &mut conn.write_buf);
            http::parse_head(&read_buf[..end])
                .map(|head| respond(st, shared, stats, &head, write_buf, force_close, started))
        };
        match parsed {
            Ok(outcome) => {
                conn.read_buf.drain(..end);
                conn.scanned = 0;
                conn.body_skip = outcome.body_skip;
                if outcome.error {
                    conn.state = ConnState::FlushClose { linger: true };
                } else if !outcome.keep_alive {
                    conn.state = ConnState::FlushClose { linger: false };
                } else {
                    conn.deadline = now + READ_TIMEOUT;
                }
            }
            Err(e) => push_error(conn, stats, e.status, &e.message),
        }
    }
}

/// Writes as much of `write_buf` as the socket accepts. Returns false
/// when the connection should close now.
fn flush(conn: &mut Conn, now: Instant) -> bool {
    while conn.write_pending() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.deadline = now + WRITE_TIMEOUT;
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if !conn.write_buf.is_empty() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    match conn.state {
        ConnState::FlushClose { linger: false } => false,
        ConnState::FlushClose { linger: true } => {
            // Lingering close: stop sending, keep reading (and
            // discarding) briefly so unread pipelined input cannot turn
            // the close into an RST that eats the error response.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.state = ConnState::Draining;
            conn.deadline = now + LINGER_TIMEOUT;
            true
        }
        _ => true,
    }
}

// ---------------------------------------------------------------------
// The loop proper.

struct EventLoop {
    shared: Arc<Shared>,
    listener: Arc<TcpListener>,
    epoll: Epoll,
    slab: Slab,
    wheel: Wheel,
    stats: LoopStats,
    state: Arc<SnapshotState>,
    local_epoch: u64,
    accepting: bool,
    busy: Vec<u8>,
    scratch: Vec<u8>,
    loop_id: usize,
    /// Last `/admin/debug` snapshot publication (None = never).
    last_publish: Option<Instant>,
}

/// Runs one event loop until shutdown completes. Spawned once per
/// worker thread by [`crate::Server`].
pub(crate) fn run(shared: Arc<Shared>, listener: Arc<TcpListener>, loop_id: usize) {
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("rd-serve: epoll_create1 failed: {e}");
            return;
        }
    };
    if let Err(e) = epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN) {
        eprintln!("rd-serve: registering listener failed: {e}");
        return;
    }
    let state = shared.current_state();
    let local_epoch = shared.epoch();
    let mut el = EventLoop {
        shared,
        listener,
        epoll,
        slab: Slab::new(),
        wheel: Wheel::new(Instant::now()),
        stats: LoopStats::new(),
        state,
        local_epoch,
        accepting: true,
        busy: http::busy_response(),
        scratch: vec![0u8; 64 * 1024],
        loop_id,
        last_publish: None,
    };
    el.run();
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
        let mut fired: Vec<(usize, u32)> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;

        loop {
            if self.shared.is_shutdown() {
                let now = Instant::now();
                if self.accepting {
                    let _ = self.epoll.del(self.listener.as_raw_fd());
                    self.accepting = false;
                    drain_deadline = Some(now + SHUTDOWN_GRACE);
                    self.begin_shutdown();
                }
                if self.slab.live == 0 || drain_deadline.is_some_and(|d| now >= d) {
                    break;
                }
            }

            let wait_start = Instant::now();
            let n = self.epoll.wait(&mut events, EPOLL_WAIT_MS);
            let woke = Instant::now();
            // Snapshot pickup after the wait: a request sent after a publish
            // returned is answered from it. Locks only when the epoch moved.
            let epoch = self.shared.epoch();
            if epoch != self.local_epoch {
                self.local_epoch = epoch;
                self.state = self.shared.current_state();
            }
            self.stats.wakeups += 1;
            self.stats.total_wakeups += 1;
            self.stats
                .epoll_wait_us
                .record(woke.duration_since(wait_start).as_micros() as u64);
            self.stats.wakeup_events.record(n as u64);
            for ev in events.iter().take(n) {
                let (revents, data) = (ev.events, ev.data);
                if data == LISTENER_TOKEN {
                    self.accept_burst();
                } else {
                    let (idx, gen) = ((data & 0xffff_ffff) as usize, (data >> 32) as u32);
                    self.handle_conn_event(idx, gen, revents);
                }
            }

            let now = Instant::now();
            self.wheel.expire(now, &mut fired);
            for (idx, gen) in fired.drain(..) {
                self.on_wheel_fire(idx, gen, now);
            }

            self.stats.iter_us.record(woke.elapsed().as_micros() as u64);
            self.stats.slab_live_hw = self.stats.slab_live_hw.max(self.slab.live);
            let (wheel_depth, _) = self.wheel.depth();
            self.stats.wheel_depth_hw = self.stats.wheel_depth_hw.max(wheel_depth);
            self.maybe_publish_debug(now);
            self.stats.flush();
        }

        // Teardown: force-close whatever the grace period left behind.
        for idx in 0..self.slab.slots.len() {
            if self.slab.slots[idx].take().is_some() {
                self.slab.release(idx);
                self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.stats.flush();
    }

    fn accept_burst(&mut self) {
        if !self.accepting {
            return;
        }
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Reserve capacity before deciding: a load-then-add
                    // would race across loop threads, letting concurrent
                    // accepts each slip one connection past the cap. A
                    // rejected connection keeps its reservation until it
                    // closes — its fd is open while the 503 flushes, so
                    // it occupies a slot like any live connection.
                    let reserved = self.shared.conn_count.fetch_add(1, Ordering::Relaxed);
                    let over = reserved >= self.shared.max_conns;
                    if stream.set_nonblocking(true).is_err() {
                        self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let now = Instant::now();
                    let fd = stream.as_raw_fd();
                    let deadline =
                        if over { now + LINGER_TIMEOUT } else { now + READ_TIMEOUT };
                    let mut conn = Conn::new(stream, now, deadline);
                    let mut interest = EPOLLIN | EPOLLRDHUP;
                    if over {
                        // Over the connection cap: refuse loudly rather
                        // than queueing unboundedly — but deliver the
                        // refusal through the normal flush and
                        // lingering-drain machinery, so a partial write
                        // or unread client bytes cannot turn the 503 +
                        // retry-after into a lost response or an RST.
                        self.stats.rejected_busy += 1;
                        self.stats.record_error(503);
                        conn.write_buf.extend_from_slice(&self.busy);
                        conn.state = ConnState::FlushClose { linger: true };
                        interest = EPOLLOUT;
                        conn.interest = interest;
                    }
                    let (idx, gen) = self.slab.insert(conn);
                    if self.epoll.add(fd, token_data(idx, gen), interest).is_err() {
                        self.slab.take_if(idx, gen);
                        self.slab.release(idx);
                        self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    self.wheel.insert(idx, gen, deadline, now);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn handle_conn_event(&mut self, idx: usize, gen: u32, revents: u32) {
        let Some(mut conn) = self.slab.take_if(idx, gen) else {
            return;
        };
        let now = Instant::now();
        let mut alive = true;

        if revents & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
            alive = self.read_once(&mut conn);
        }
        if alive {
            alive = self.drive(&mut conn, now);
        }

        if alive {
            self.update_interest(idx, gen, &mut conn);
            self.slab.put_back(idx, conn);
        } else {
            self.close_conn(idx, conn);
        }
    }

    /// One non-blocking read (level-triggered epoll re-arms for more).
    fn read_once(&mut self, conn: &mut Conn) -> bool {
        match conn.stream.read(&mut self.scratch) {
            Ok(0) => {
                conn.read_eof = true;
                if conn.state == ConnState::Draining {
                    return false;
                }
                true
            }
            Ok(n) => {
                if conn.state == ConnState::Draining {
                    conn.linger_budget = conn.linger_budget.saturating_sub(n);
                    return conn.linger_budget > 0;
                }
                conn.read_buf.extend_from_slice(&self.scratch[..n]);
                true
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                true
            }
            Err(_) => false,
        }
    }

    /// Advances the state machine: parse + respond + flush, repeating
    /// when a drained write buffer unblocks backpressured pipelining.
    fn drive(&mut self, conn: &mut Conn, now: Instant) -> bool {
        loop {
            let mut backpressured = false;
            if conn.state == ConnState::Open
                && (!conn.read_buf.is_empty() || conn.body_skip > 0 || conn.read_eof)
            {
                let (alive, bp) =
                    process_buffer(conn, &self.state, &self.shared, &mut self.stats, now);
                if !alive {
                    return false;
                }
                backpressured = bp;
            }
            if !flush(conn, now) {
                return false;
            }
            // Backpressure cleared by the flush? Serve the rest.
            if !(backpressured && !conn.write_pending()) {
                return true;
            }
        }
    }

    fn update_interest(&mut self, idx: usize, gen: u32, conn: &mut Conn) {
        let mut want = 0;
        if conn.write_pending() {
            want |= EPOLLOUT;
        }
        let backpressured = conn.write_buf.len() - conn.write_pos > WRITE_HIGH_WATER;
        if backpressured != conn.backpressured {
            conn.backpressured = backpressured;
            if backpressured {
                self.stats.backpressure_engaged += 1;
            } else {
                self.stats.backpressure_released += 1;
            }
        }
        match conn.state {
            ConnState::Open => {
                if !conn.read_eof && !backpressured {
                    want |= EPOLLIN | EPOLLRDHUP;
                }
            }
            ConnState::Draining => want |= EPOLLIN | EPOLLRDHUP,
            ConnState::FlushClose { .. } => {}
        }
        if want == 0 {
            // Nothing to wait for shouldn't happen on a live connection;
            // keep hangup visibility as a safety net.
            want = EPOLLIN | EPOLLRDHUP;
        }
        if want != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), token_data(idx, gen), want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    fn on_wheel_fire(&mut self, idx: usize, gen: u32, now: Instant) {
        let Some(mut conn) = self.slab.take_if(idx, gen) else {
            return;
        };
        if conn.deadline > now {
            // Deadline moved since this entry was queued: requeue.
            self.wheel.insert(idx, gen, conn.deadline, now);
            self.slab.put_back(idx, conn);
            return;
        }
        let alive = match conn.state {
            ConnState::Draining | ConnState::FlushClose { .. } => false,
            ConnState::Open => {
                if conn.write_pending() {
                    false // stalled write
                } else if !conn.read_buf.is_empty() || conn.body_skip > 0 {
                    // Mid-head (slowloris) or mid-body: answer 400, then
                    // the lingering-close path.
                    push_error(&mut conn, &mut self.stats, 400, "request head timed out");
                    flush(&mut conn, now)
                } else {
                    false // idle keep-alive past its welcome
                }
            }
        };
        if alive {
            self.update_interest(idx, gen, &mut conn);
            self.wheel.insert(idx, gen, conn.deadline, now);
            self.slab.put_back(idx, conn);
        } else {
            self.close_conn(idx, conn);
        }
    }

    fn close_conn(&mut self, idx: usize, conn: Conn) {
        self.stats.conn_age_ms.record(conn.created.elapsed().as_millis() as u64);
        if conn.backpressured {
            // A connection that dies while backpressured still balances
            // the engaged/released pair.
            self.stats.backpressure_released += 1;
        }
        drop(conn); // closes the fd, which also deregisters it from epoll
        self.slab.release(idx);
        self.shared.conn_count.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes this loop's `/admin/debug` snapshot — a bounded copy of
    /// slab and wheel state into [`Shared`], at most once per
    /// [`PUBLISH_INTERVAL`], so the debug endpoints never walk another
    /// loop's live structures.
    fn maybe_publish_debug(&mut self, now: Instant) {
        if self
            .last_publish
            .is_some_and(|t| now.duration_since(t) < PUBLISH_INTERVAL)
        {
            return;
        }
        self.last_publish = Some(now);
        let mut conns = Vec::with_capacity(self.slab.live.min(MAX_CONNS_LISTED));
        let mut truncated = 0usize;
        for (slot, entry) in self.slab.slots.iter().enumerate() {
            let Some(conn) = entry else { continue };
            if conns.len() >= MAX_CONNS_LISTED {
                truncated += 1;
                continue;
            }
            let deadline_ms = if conn.deadline >= now {
                conn.deadline.duration_since(now).as_millis() as i64
            } else {
                -(now.duration_since(conn.deadline).as_millis() as i64)
            };
            conns.push(ConnDebug {
                slot,
                state: conn.state_name(),
                age_ms: now.duration_since(conn.created).as_millis() as u64,
                read_buf: conn.read_buf.len(),
                write_pending: conn.write_buf.len() - conn.write_pos,
                backpressured: conn.backpressured,
                deadline_ms,
            });
        }
        let (wheel_depth, wheel_max_bucket) = self.wheel.depth();
        self.shared.publish_loop_debug(
            self.loop_id,
            LoopDebug {
                loop_id: self.loop_id,
                live: self.slab.live,
                slots: self.slab.slots.len(),
                wakeups: self.stats.total_wakeups,
                requests: self.stats.total_requests,
                wheel_depth,
                wheel_max_bucket,
                conns,
                conns_truncated: truncated,
            },
        );
    }

    /// On shutdown: flush connections that owe responses, drop the rest.
    fn begin_shutdown(&mut self) {
        for idx in 0..self.slab.slots.len() {
            let Some(mut conn) = self.slab.slots[idx].take() else {
                continue;
            };
            if conn.write_pending() || conn.state == ConnState::Draining {
                if conn.state == ConnState::Open {
                    conn.state = ConnState::FlushClose { linger: false };
                }
                self.slab.put_back(idx, conn);
            } else {
                self.close_conn(idx, conn);
            }
        }
    }
}
