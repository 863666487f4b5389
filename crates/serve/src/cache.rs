//! The pre-rendered response cache: every static endpoint body rendered
//! once per snapshot, keyed by the snapshot's FNV-1a-64 trailer.
//!
//! Every GET body this server produces is a pure function of the loaded
//! corpus (byte-identical at any thread count — the determinism gate in
//! verify.sh depends on it), so the serving hot path collapses to
//! "render once per snapshot, memcpy cached bytes thereafter". A cache
//! entry stores the complete keep-alive response — status line, headers
//! (including the `etag` derived from the snapshot trailer), and body —
//! so the common case is a single `extend_from_slice` into the
//! connection's write buffer, no formatting, no allocation. The cache is
//! the only source of snapshot-derived bodies: a request is served from
//! its exact path or, failing that, from its [`canonical`] spelling
//! (`//pathways` and `/networks/` reach the same entries), and anything
//! else is a 404 — no request renders one.
//!
//! [`SnapshotState`] bundles the corpus, its entity tag, and the cache
//! into one immutable unit behind an `Arc`: hot reload builds a fresh
//! state off the accept path and swaps the Arc, so in-flight requests
//! keep rendering from the snapshot they started with and no response
//! ever mixes two snapshot versions.

use std::collections::BTreeMap;
use std::sync::Arc;

use rd_snap::Corpus;

use crate::{http, render};

/// One cached endpoint: the body plus both pre-rendered framings.
pub(crate) struct Cached {
    /// The response body bytes (shared by HEAD and `connection: close`
    /// responses).
    pub body: Vec<u8>,
    /// The complete keep-alive response: head + body, ready to copy.
    pub resp_ka: Vec<u8>,
}

/// An immutable snapshot-serving unit: corpus, entity tag, cache.
pub(crate) struct SnapshotState {
    /// The loaded corpus (`/healthz` and the debug views read it).
    pub corpus: Arc<Corpus>,
    /// The quoted entity tag served on snapshot-derived responses:
    /// `"<fnv1a64 trailer as 16 hex digits>"`.
    pub etag: String,
    /// Pre-rendered responses by canonical path.
    pub cache: BTreeMap<String, Cached>,
    /// Pre-rendered `304 Not Modified` (keep-alive framing).
    pub not_modified_ka: Vec<u8>,
    /// Total cached body bytes (for `/admin/debug/cache`).
    pub cache_body_bytes: usize,
    /// Total cached pre-framed response bytes.
    pub cache_resp_bytes: usize,
}

impl SnapshotState {
    /// Renders every static endpoint of `corpus` once — `/plan` from the
    /// attached `plan` document, if any — and fixes the entity tag from
    /// the snapshot's FNV-1a-64 `trailer`, recomputed by re-encoding when
    /// the corpus did not come from a snapshot file.
    pub fn build(corpus: Corpus, trailer: Option<u64>, plan: Option<&str>) -> SnapshotState {
        let trailer = trailer.unwrap_or_else(|| corpus.trailer());
        let etag = format!("\"{trailer:016x}\"");
        let corpus = Arc::new(corpus);
        let mut cache = BTreeMap::new();
        let (mut cache_body_bytes, mut cache_resp_bytes) = (0usize, 0usize);
        // Profiled as one span with a child per endpoint render, so
        // `--profile` shows where reload-rebuild time goes.
        let _span = rd_obs::span!("serve.cache_build");
        for path in static_paths(&corpus, plan.is_some()) {
            let body = {
                let _render = rd_obs::span!("render:{}", path);
                let Some(body) = render_path(&corpus, plan, &path) else {
                    continue;
                };
                body.into_bytes()
            };
            let mut resp_ka = Vec::with_capacity(body.len() + 160);
            http::push_response(
                &mut resp_ka,
                200,
                "application/json",
                &body,
                true,
                Some(&etag),
                "",
                false,
            );
            cache_body_bytes += body.len();
            cache_resp_bytes += resp_ka.len();
            cache.insert(path, Cached { body, resp_ka });
        }
        let mut not_modified_ka = Vec::with_capacity(96);
        http::push_response(&mut not_modified_ka, 304, "", b"", true, Some(&etag), "", false);
        SnapshotState { corpus, etag, cache, not_modified_ka, cache_body_bytes, cache_resp_bytes }
    }
}

/// The canonical spelling of a request path: its non-empty segments
/// joined by `/` (`//pathways` and `/networks/net15/` become `/pathways`
/// and `/networks/net15`). Cache keys are canonical, so a request that
/// misses on its exact path retries under this one.
pub(crate) fn canonical(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for segment in path.split('/').filter(|s| !s.is_empty()) {
        out.push('/');
        out.push_str(segment);
    }
    out
}

/// The canonical cacheable paths of a corpus, in render order.
pub(crate) fn static_paths(corpus: &Corpus, has_plan: bool) -> Vec<String> {
    // `/healthz` is deliberately absent: its body depends on the live
    // health state, so it renders dynamically on every request.
    let mut paths = vec![
        "/networks".to_string(),
        "/instances".to_string(),
        "/pathways".to_string(),
        "/diag".to_string(),
    ];
    if has_plan {
        paths.push("/plan".to_string());
    }
    for n in &corpus.networks {
        paths.push(format!("/networks/{}", n.name));
        paths.push(format!("/networks/{}/processes", n.name));
    }
    paths
}

/// Routes a canonical path to its rendered JSON body, `None` when the
/// path has no snapshot-derived endpoint (the cache builder then skips
/// it, so requests for it 404).
pub(crate) fn render_path(corpus: &Corpus, plan: Option<&str>, path: &str) -> Option<String> {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["networks"] => Some(render::networks_index(corpus)),
        ["networks", id] => corpus.get(id).map(render::network_summary),
        ["networks", id, "processes"] => corpus.get(id).map(render::network_processes),
        ["instances"] => Some(render::instances(corpus)),
        ["pathways"] => Some(render::pathways(corpus)),
        ["diag"] => Some(render::diag(corpus)),
        // The reconfiguration plan is served verbatim as produced by
        // `rdx plan --json`; without one the path 404s.
        ["plan"] => plan.map(str::to_string),
        _ => None,
    }
}

/// The 404 message for a path the cache does not hold — same wording as
/// the original threaded server.
pub(crate) fn not_found_message(path: &str) -> String {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["networks", id] | ["networks", id, "processes"] => format!("no network '{id}'"),
        ["plan"] => "no plan loaded; start the server with --plan <plan.json>".to_string(),
        _ => format!("no route for {path}"),
    }
}
