//! The route table: a request target is parsed once into a [`Route`],
//! and everything that depends on which endpoint a path names matches on
//! it — the cache's path list and renderers, the canonical-spelling
//! retry, the 404 wording, and the event loop's dynamic and POST
//! handlers.

use rd_snap::Corpus;

use crate::render;

/// The endpoint a request target names. Empty path segments are
/// ignored, so `//pathways` and `/networks/net15/` name the same routes
/// as `/pathways` and `/networks/net15`; the query string is ignored
/// except for `/healthz`'s `live=1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route<'a> {
    /// `/networks`: one summary row per network.
    Networks,
    /// `/networks/{id}`: one network's full summary.
    Network(&'a str),
    /// `/networks/{id}/processes`: that network's routing processes.
    Processes(&'a str),
    /// `/instances`: routing instances across the corpus.
    Instances,
    /// `/pathways`: per-router pathway depth summaries.
    Pathways,
    /// `/diag`: every pipeline diagnostic.
    Diag,
    /// `/plan`: the reconfiguration plan attached at start, if any.
    Plan,
    /// `/healthz`; `live` is set by a `live=1` query (pure liveness).
    Healthz { live: bool },
    /// `/metrics`: the rd-obs registry in Prometheus text format.
    Metrics,
    /// One of the `/admin/debug/*` views.
    Debug(DebugView),
    /// `/admin/reload`, which only POST answers.
    Reload,
    /// Anything else.
    Unknown,
}

/// The `/admin/debug/*` views.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DebugView {
    /// `/admin/debug/loop`: per-event-loop health.
    Loop,
    /// `/admin/debug/conns`: live connections.
    Conns,
    /// `/admin/debug/cache`: the serving snapshot and reload history.
    Cache,
    /// `/admin/debug/watch`: watcher health and supervisor status.
    Watch,
}

impl<'a> Route<'a> {
    /// Parses a request target (path plus optional query). This is the
    /// only place the server splits a path into segments.
    pub(crate) fn parse(target: &'a str) -> Route<'a> {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let mut segments = path.split('/').filter(|s| !s.is_empty());
        // No route has more than three segments; a fourth only rules a
        // match out.
        match [segments.next(), segments.next(), segments.next(), segments.next()] {
            [Some("networks"), None, ..] => Route::Networks,
            [Some("networks"), Some(id), None, _] => Route::Network(id),
            [Some("networks"), Some(id), Some("processes"), None] => Route::Processes(id),
            [Some("instances"), None, ..] => Route::Instances,
            [Some("pathways"), None, ..] => Route::Pathways,
            [Some("diag"), None, ..] => Route::Diag,
            [Some("plan"), None, ..] => Route::Plan,
            [Some("healthz"), None, ..] => {
                Route::Healthz { live: query.split('&').any(|kv| kv == "live=1") }
            }
            [Some("metrics"), None, ..] => Route::Metrics,
            [Some("admin"), Some("reload"), None, _] => Route::Reload,
            [Some("admin"), Some("debug"), Some(view), None] => match view {
                "loop" => Route::Debug(DebugView::Loop),
                "conns" => Route::Debug(DebugView::Conns),
                "cache" => Route::Debug(DebugView::Cache),
                "watch" => Route::Debug(DebugView::Watch),
                _ => Route::Unknown,
            },
            _ => Route::Unknown,
        }
    }

    /// Every snapshot-derived route of `corpus`, in render order: the
    /// collections, `/plan` when one is attached, then each network's
    /// two endpoints. `/healthz` is deliberately absent: its body
    /// reflects the live health state, so it is rendered per request.
    pub(crate) fn cached(corpus: &'a Corpus, has_plan: bool) -> Vec<Route<'a>> {
        let mut routes = vec![Route::Networks, Route::Instances, Route::Pathways, Route::Diag];
        if has_plan {
            routes.push(Route::Plan);
        }
        for n in &corpus.networks {
            routes.push(Route::Network(&n.name));
            routes.push(Route::Processes(&n.name));
        }
        routes
    }

    /// The canonical path of a snapshot-derived route, which is its
    /// cache key; `None` for the routes answered per request.
    pub(crate) fn cache_key(&self) -> Option<String> {
        Some(match self {
            Route::Networks => "/networks".to_string(),
            Route::Network(id) => format!("/networks/{id}"),
            Route::Processes(id) => format!("/networks/{id}/processes"),
            Route::Instances => "/instances".to_string(),
            Route::Pathways => "/pathways".to_string(),
            Route::Diag => "/diag".to_string(),
            Route::Plan => "/plan".to_string(),
            _ => return None,
        })
    }

    /// Renders a snapshot-derived route's JSON body; `None` when the
    /// corpus has no such network, the route is `/plan` and no plan is
    /// attached, or the route is answered per request.
    pub(crate) fn render(&self, corpus: &Corpus, plan: Option<&str>) -> Option<String> {
        match self {
            Route::Networks => Some(render::networks_index(corpus)),
            Route::Network(id) => corpus.get(id).map(render::network_summary),
            Route::Processes(id) => corpus.get(id).map(render::network_processes),
            Route::Instances => Some(render::instances(corpus)),
            Route::Pathways => Some(render::pathways(corpus)),
            Route::Diag => Some(render::diag(corpus)),
            // The plan is served verbatim as `rdx plan --json` wrote it.
            Route::Plan => plan.map(str::to_string),
            _ => None,
        }
    }

    /// The 404 message for a GET or HEAD of this route that nothing
    /// answered; `path` is the request's path as it was spelled.
    pub(crate) fn not_found(&self, path: &str) -> String {
        match self {
            Route::Network(id) | Route::Processes(id) => format!("no network '{id}'"),
            Route::Plan => "no plan loaded; start the server with --plan <plan.json>".to_string(),
            _ => format!("no route for {path}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_parse_into_routes() {
        assert_eq!(Route::parse("/networks"), Route::Networks);
        assert_eq!(Route::parse("//networks/"), Route::Networks);
        assert_eq!(Route::parse("/networks/net15"), Route::Network("net15"));
        assert_eq!(Route::parse("/networks//net15/processes/"), Route::Processes("net15"));
        assert_eq!(Route::parse("/networks/net15/processes/x"), Route::Unknown);
        assert_eq!(Route::parse("/networks/net15/nope"), Route::Unknown);
        assert_eq!(Route::parse("/pathways?x=1"), Route::Pathways);
        assert_eq!(Route::parse("/healthz"), Route::Healthz { live: false });
        assert_eq!(Route::parse("/healthz?a=b&live=1"), Route::Healthz { live: true });
        assert_eq!(Route::parse("/healthz?live=0"), Route::Healthz { live: false });
        assert_eq!(Route::parse("/admin/debug/cache"), Route::Debug(DebugView::Cache));
        assert_eq!(Route::parse("/admin/debug/nope"), Route::Unknown);
        assert_eq!(Route::parse("/admin/reload"), Route::Reload);
        assert_eq!(Route::parse("/"), Route::Unknown);
        assert_eq!(Route::parse("//"), Route::Unknown);
    }
}
