//! Live introspection state behind `/admin/debug/*`.
//!
//! The event loops are single-threaded over their own slab and wheel, so
//! a debug endpoint cannot walk them directly from another loop's
//! request. Instead each loop publishes a [`LoopDebug`] snapshot of
//! itself into [`crate::Shared`] at most once per [`PUBLISH_INTERVAL`] —
//! a bounded copy off the hot path — and the endpoints render whatever
//! was last published. Each body is one inline object written by
//! [`rd_obs::json::Writer`], like every other body the server sends.

use std::time::Duration;

use rd_obs::json::{Layout, Writer};

use crate::cache::SnapshotState;

/// Reload-history ring capacity (oldest events drop first).
pub(crate) const RELOAD_HISTORY: usize = 32;
/// Most connections listed per loop in `/admin/debug/conns`; the rest
/// are summarized by `conns_truncated` so a connection flood cannot turn
/// the debug endpoint into an allocation amplifier.
pub(crate) const MAX_CONNS_LISTED: usize = 256;
/// How often a loop republishes its [`LoopDebug`] snapshot.
pub(crate) const PUBLISH_INTERVAL: Duration = Duration::from_millis(200);

/// One connection, as last published by its owning loop.
pub(crate) struct ConnDebug {
    /// Slab slot index.
    pub slot: usize,
    /// `"open"`, `"flush-close"`, `"flush-close-linger"`, or `"draining"`.
    pub state: &'static str,
    /// Milliseconds since the connection was accepted.
    pub age_ms: u64,
    /// Buffered unparsed request bytes.
    pub read_buf: usize,
    /// Response bytes not yet written to the socket.
    pub write_pending: usize,
    /// True while past the write high-water mark (reads paused).
    pub backpressured: bool,
    /// Milliseconds until the live deadline fires (negative = overdue,
    /// the wheel just hasn't swept it yet).
    pub deadline_ms: i64,
}

/// One event loop's self-published state.
pub(crate) struct LoopDebug {
    /// Loop thread index (`rd-serve-loop-{id}`).
    pub loop_id: usize,
    /// Live connections in the slab.
    pub live: usize,
    /// Total slab slots (live + free).
    pub slots: usize,
    /// Cumulative epoll wake-ups since the loop started.
    pub wakeups: u64,
    /// Cumulative requests answered by this loop.
    pub requests: u64,
    /// Total entries across all timer-wheel buckets.
    pub wheel_depth: usize,
    /// Deepest single wheel bucket.
    pub wheel_max_bucket: usize,
    /// Per-connection detail, capped at [`MAX_CONNS_LISTED`].
    pub conns: Vec<ConnDebug>,
    /// Connections beyond the cap (listed count + this = live).
    pub conns_truncated: usize,
}

/// One entry in the reload history ring (the boot load is entry zero).
pub(crate) struct ReloadEvent {
    /// Milliseconds since server start.
    pub at_ms: u64,
    /// Whether the (re)load published a new snapshot.
    pub ok: bool,
    /// The entity tag serving after this event (unchanged on failure).
    pub etag: String,
    /// Networks in the serving corpus after this event.
    pub networks: usize,
    /// `"boot"`, `"reload"`, or the failure message.
    pub detail: String,
}

impl ReloadEvent {
    /// An event naming `st` as the snapshot serving after it.
    pub fn new(st: &SnapshotState, at_ms: u64, ok: bool, detail: &str) -> ReloadEvent {
        ReloadEvent {
            at_ms,
            ok,
            etag: st.etag.clone(),
            networks: st.corpus.networks.len(),
            detail: detail.to_string(),
        }
    }
}

/// `/admin/debug/loop`: per-loop health, no per-connection detail.
pub(crate) fn render_loops(loops: &[Option<LoopDebug>]) -> String {
    let mut w = Writer::object(Layout::Inline);
    w.key("loops").arr(Layout::Inline, |w| {
        for l in loops.iter().flatten() {
            w.obj(Layout::Inline, |w| {
                w.key("loop").num(l.loop_id);
                w.key("live").num(l.live);
                w.key("slots").num(l.slots);
                w.key("wakeups").num(l.wakeups);
                w.key("requests").num(l.requests);
                w.key("wheel_depth").num(l.wheel_depth);
                w.key("wheel_max_bucket").num(l.wheel_max_bucket);
            });
        }
    });
    w.key("published").num(loops.iter().flatten().count());
    w.key("configured").num(loops.len());
    w.finish()
}

/// `/admin/debug/conns`: every published connection, flattened across
/// loops, each tagged with its owning loop.
pub(crate) fn render_conns(loops: &[Option<LoopDebug>]) -> String {
    let mut w = Writer::object(Layout::Inline);
    w.key("conns").arr(Layout::Inline, |w| {
        for l in loops.iter().flatten() {
            for c in &l.conns {
                w.obj(Layout::Inline, |w| {
                    w.key("loop").num(l.loop_id);
                    w.key("slot").num(c.slot);
                    w.key("state").str(c.state);
                    w.key("age_ms").num(c.age_ms);
                    w.key("read_buf").num(c.read_buf);
                    w.key("write_pending").num(c.write_pending);
                    w.key("backpressured").num(c.backpressured);
                    w.key("deadline_ms").num(c.deadline_ms);
                });
            }
        }
    });
    w.key("live").num(loops.iter().flatten().map(|l| l.live).sum::<usize>());
    w.key("truncated").num(loops.iter().flatten().map(|l| l.conns_truncated).sum::<usize>());
    w.finish()
}

/// `/admin/debug/cache`: the serving snapshot (as this loop sees it —
/// after a failed reload this is still the pre-failure version) plus the
/// reload history ring.
pub(crate) fn render_cache(
    st: &SnapshotState,
    history: &[ReloadEvent],
    uptime_ms: u64,
) -> String {
    let mut w = Writer::object(Layout::Inline);
    w.key("etag").str(&st.etag);
    w.key("networks").num(st.corpus.networks.len());
    w.key("entries").num(st.cache.len());
    w.key("body_bytes").num(st.cache.values().map(|c| c.body().len()).sum::<usize>());
    w.key("response_bytes").num(st.cache.values().map(|c| c.framed.len()).sum::<usize>());
    w.key("uptime_ms").num(uptime_ms);
    w.key("reload_history").arr(Layout::Inline, |w| {
        for ev in history {
            w.obj(Layout::Inline, |w| {
                w.key("at_ms").num(ev.at_ms);
                w.key("ok").num(ev.ok);
                w.key("etag").str(&ev.etag);
                w.key("networks").num(ev.networks);
                w.key("detail").str(&ev.detail);
            });
        }
    });
    w.finish()
}

/// `/admin/debug/watch`: the health state machine plus whatever status
/// the supervisor last published (`"watch": null` under plain `rdx
/// serve`, which never publishes one).
pub(crate) fn render_watch(
    health: crate::HealthState,
    status: Option<&crate::WatchStatus>,
    uptime_ms: u64,
) -> String {
    let mut w = Writer::object(Layout::Inline);
    w.key("health").str(health.as_str());
    w.key("uptime_ms").num(uptime_ms);
    w.key("watch");
    let Some(s) = status else {
        w.num("null");
        return w.finish();
    };
    w.obj(Layout::Inline, |w| {
        w.key("generation").num(s.generation);
        w.key("failures").num(s.failures);
        w.key("consecutive_failures").num(s.consecutive_failures);
        w.key("backoff_ms").num(s.backoff_ms);
        w.key("last_error");
        match &s.last_error {
            Some(e) => w.str(e),
            None => w.num("null"),
        };
        w.key("last_change_ms").num(s.last_change_ms);
        w.key("last_publish_ms").num(s.last_publish_ms);
        w.key("fingerprints").num(s.fingerprints);
    });
    w.finish()
}
