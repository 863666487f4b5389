//! The snapshot hot-reload manager.
//!
//! One thread per server started from a snapshot file
//! ([`crate::Server::start_file`]), off the accept path: it polls the
//! reload triggers (SIGHUP, `POST /admin/reload`,
//! [`crate::Server::trigger_reload`]), re-reads the snapshot file,
//! rebuilds the pre-rendered response cache,
//! and only then publishes the new state with an atomic Arc swap. The
//! event loops pick it up at their next wake-up via an epoch check;
//! requests in flight keep rendering from the state they started with,
//! so a reload never drops a response and never mixes snapshot versions
//! within one response.
//!
//! A failed reload (unreadable or corrupt snapshot) keeps the old state
//! serving and counts `http.reload_failed`; successes count
//! `http.reload_ok`. Both are visible on `/metrics`, which is how
//! verify.sh waits for a SIGHUP reload to land before byte-comparing
//! pre/post bodies.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use rd_snap::Corpus;

use crate::{Shared, POLL_IDLE};

/// Serves reload requests for `shared` from the snapshot file at `path`
/// until shutdown.
pub(crate) fn run(shared: Arc<Shared>, path: PathBuf) {
    loop {
        std::thread::sleep(POLL_IDLE);
        if shared.is_shutdown() {
            return;
        }
        if !shared.take_reload_request() {
            continue;
        }
        match Corpus::read_file_with_trailer(&path) {
            Ok((corpus, trailer)) => {
                // The expensive part — rendering every static endpoint —
                // happens here, on this thread, against a corpus the
                // loops cannot see yet. The swap itself is one Arc store.
                shared.publish(corpus, Some(trailer), "reload");
                shared.set_health(crate::HealthState::Fresh);
                rd_obs::metrics::counter_add("http.reload_ok", 1);
            }
            Err(e) => {
                // Keep serving the old snapshot; a bad file on disk must
                // not take the server down. `/healthz` now reports the
                // serving state as stale until a reload lands.
                shared.set_health(crate::HealthState::Stale);
                rd_obs::metrics::counter_add("http.reload_failed", 1);
                // Ignored on error: a closed stderr must not stop reloads.
                let _ = writeln!(std::io::stderr(), "rd-serve: reload failed: {e}");
                // The history entry records what is *still serving*.
                shared.record_failure(&e.to_string());
            }
        }
    }
}
