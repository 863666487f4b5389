//! The pre-rendered response cache: every snapshot-derived endpoint
//! rendered once per snapshot, keyed by its canonical path and tagged
//! with the snapshot's FNV-1a-64 trailer.
//!
//! Every GET body this server produces is a pure function of the loaded
//! corpus (byte-identical at any thread count — the determinism gate in
//! verify.sh depends on it), so the serving hot path collapses to
//! "render once per snapshot, memcpy cached bytes thereafter". A cache
//! entry is one buffer: the complete keep-alive response — status line,
//! headers (including the `etag` derived from the snapshot trailer), and
//! body — so the common case is a single `extend_from_slice` into the
//! connection's write buffer, no formatting, no allocation. HEAD and
//! `connection: close` responses frame the body sliced out of it. The
//! cache is the only source of snapshot-derived bodies: the entries are
//! [`Route::cached`], a request is served from its exact path or,
//! failing that, from its route's canonical path (`//pathways` and
//! `/networks/` reach the same entries), and anything else is answered
//! per request or 404s — no request renders a snapshot body.
//!
//! [`SnapshotState`] bundles the corpus, its entity tag, and the cache
//! into one immutable unit behind an `Arc`: hot reload builds a fresh
//! state off the accept path and swaps the Arc, so in-flight requests
//! keep rendering from the snapshot they started with and no response
//! ever mixes two snapshot versions.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use rd_snap::Corpus;

use crate::http::{HeadView, Response};
use crate::route::Route;

/// One cached endpoint: its complete keep-alive response.
pub(crate) struct Cached {
    /// Head and body, ready to copy.
    pub framed: Vec<u8>,
    /// Where the body starts in `framed`.
    head_len: usize,
}

impl Cached {
    /// Frames `body` as the keep-alive 200 tagged `etag`.
    fn new(body: &[u8], etag: &str) -> Cached {
        let mut framed = Vec::with_capacity(body.len() + 160);
        snapshot_response(body, etag).write(&mut framed, true, false);
        Cached { head_len: framed.len() - body.len(), framed }
    }

    /// The response body.
    pub fn body(&self) -> &[u8] {
        &self.framed[self.head_len..]
    }

    /// The response this entry answers with under the entity tag `etag`.
    pub fn response<'a>(&'a self, etag: &'a str) -> Response<'a> {
        Response { framed: Some(&self.framed), ..snapshot_response(self.body(), etag) }
    }
}

/// A snapshot-derived 200: a JSON body tagged with the snapshot's etag.
fn snapshot_response<'a>(body: &'a [u8], etag: &'a str) -> Response<'a> {
    Response { body: Cow::Borrowed(body), etag: Some(etag), ..Response::json(200, String::new()) }
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
}

impl SnapshotState {
    /// Renders every snapshot-derived route of `corpus` once — `/plan`
    /// from the attached `plan` document, if any — and fixes the entity
    /// tag from the snapshot's FNV-1a-64 `trailer`, recomputed by
    /// re-encoding when the corpus did not come from a snapshot file.
    pub fn build(corpus: Corpus, trailer: Option<u64>, plan: Option<&str>) -> SnapshotState {
        let trailer = trailer.unwrap_or_else(|| corpus.trailer());
        let etag = format!("\"{trailer:016x}\"");
        let corpus = Arc::new(corpus);
        let mut cache = BTreeMap::new();
        // Profiled as one span with a child per endpoint render, so
        // `--profile` shows where reload-rebuild time goes.
        let _span = rd_obs::span!("serve.cache_build");
        for route in Route::cached(&corpus, plan.is_some()) {
            let Some(path) = route.cache_key() else {
                continue;
            };
            let body = {
                let _render = rd_obs::span!("render:{}", path);
                route.render(&corpus, plan)
            };
            if let Some(body) = body {
                cache.insert(path, Cached::new(body.as_bytes(), &etag));
            }
        }
        SnapshotState { corpus, etag, cache }
    }

    /// The cache entry a request names, else the request's route. The
    /// exact path is tried first, so a hit parses nothing; a miss
    /// retries under the route's canonical path.
    pub fn lookup<'t>(&self, head: &HeadView<'t>) -> Result<&Cached, Route<'t>> {
        if let Some(hit) = self.cache.get(head.path()) {
            return Ok(hit);
        }
        let route = Route::parse(head.target);
        route.cache_key().and_then(|key| self.cache.get(&key)).ok_or(route)
    }

    /// The `304 Not Modified` for a request whose validator matches.
    pub fn not_modified(&self) -> Response<'_> {
        Response { etag: Some(&self.etag), ..Response::json(304, String::new()) }
    }
}
