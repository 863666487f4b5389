//! JSON renderers over snapshot types.
//!
//! Every endpoint body is produced here, from `rd-snap` types only,
//! through the one JSON writer, [`rd_obs::json::Writer`]. The renderers
//! are also used directly by `rdx summary --json`, which is how verify.sh
//! can diff a served `/networks/{id}` body against a direct analysis run:
//! both sides call [`network_summary`] on structurally equal data.
//!
//! All output is deterministic: inputs are sorted (snapshot order is
//! canonical) and maps are `BTreeMap`s.

use rd_obs::json::{Layout, Writer};
use rd_snap::{Corpus, NetworkSnapshot};
use routing_model::{PathwayIndex, RoutingInstance};

/// `/healthz`: readiness plus corpus size. `status` stays `"ok"` as long
/// as the server can answer from *some* snapshot (fresh or
/// stale-serving-last-good); only `degraded` — repeated analysis failures
/// under `rdx watch` — flips it (and the HTTP status to 503). `health`
/// carries the full state-machine word.
pub fn healthz(corpus: &Corpus, health: crate::HealthState) -> String {
    let status = match health {
        crate::HealthState::Degraded => "degraded",
        _ => "ok",
    };
    let mut w = Writer::object(Layout::Inline);
    w.key("status").str(status);
    w.key("health").str(health.as_str());
    w.key("networks").num(corpus.networks.len());
    w.finish()
}

/// `/healthz?live=1`: pure liveness — a 200 whenever the event loop can
/// answer at all, independent of the health state machine. Startup waits
/// (verify.sh) and process supervisors key on this form.
pub fn healthz_live(corpus: &Corpus) -> String {
    let mut w = Writer::object(Layout::Inline);
    w.key("status").str("live").key("networks").num(corpus.networks.len());
    w.finish()
}

/// `/networks`: one summary row per network.
pub fn networks_index(corpus: &Corpus) -> String {
    let mut w = Writer::object(Layout::Block);
    w.key("networks").arr(Layout::Block, |w| {
        for n in &corpus.networks {
            w.obj(Layout::Inline, |w| {
                w.key("name").str(&n.name);
                w.key("routers").num(n.network.routers.len());
                w.key("links").num(n.links.links.len());
                w.key("instances").num(n.instances.list.len());
                w.key("design").str(n.design.class);
                w.key("degraded").num(n.network.coverage.degraded());
            });
        }
    });
    w.finish()
}

/// `/networks/{id}` — and the body of `rdx summary --json`.
pub fn network_summary(n: &NetworkSnapshot) -> String {
    let d = &n.design;
    let coverage = &n.network.coverage;
    let mut w = Writer::object(Layout::Block);
    w.key("name").str(&n.name);
    w.key("routers").num(n.network.routers.len());
    w.key("links").num(n.links.links.len());
    w.key("external_subnets").num(n.external.external_subnets.len());
    w.key("processes").num(n.processes.list.len());
    w.key("address_blocks").num(n.blocks.len());
    w.key("design").obj(Layout::Block, |w| {
        w.key("class").str(d.class);
        w.key("bgp_speakers").num(d.bgp_speakers);
        w.key("internal_ases").num(d.internal_ases);
        w.key("ibgp_sessions").num(d.ibgp_sessions);
        w.key("external_ebgp_sessions").num(d.external_ebgp_sessions);
        w.key("internal_ebgp_sessions").num(d.internal_ebgp_sessions);
        w.key("igp_instances").num(d.igp_instances);
        w.key("staging_instances").num(d.staging_instances);
        w.key("bgp_into_igp").num(d.bgp_into_igp);
        w.key("total_instances").num(d.total_instances);
    });
    w.key("table1").obj(Layout::Block, |w| {
        w.key("igp_instances").obj(Layout::Block, |w| {
            for (label, c) in &n.table1.igp_instances {
                w.key(label).obj(Layout::Inline, |w| {
                    w.key("intra").num(c.intra).key("inter").num(c.inter);
                });
            }
        });
        let ebgp = &n.table1.ebgp_sessions;
        w.key("ebgp_sessions").obj(Layout::Inline, |w| {
            w.key("intra").num(ebgp.intra).key("inter").num(ebgp.inter);
        });
        w.key("ibgp_sessions").num(n.table1.ibgp_sessions);
    });
    w.key("instances").arr(Layout::Block, |w| {
        for i in &n.instances.list {
            w.obj(Layout::Inline, |w| instance_fields(w, i));
        }
    });
    let (errors, warnings, infos) = n.diagnostics.counts();
    w.key("diagnostics").obj(Layout::Inline, |w| {
        w.key("errors").num(errors).key("warnings").num(warnings).key("infos").num(infos);
    });
    w.key("coverage").obj(Layout::Inline, |w| {
        w.key("files").num(coverage.total_files);
        w.key("parsed").num(coverage.parsed());
        w.key("quarantined").arr(Layout::Inline, |w| {
            for file in &coverage.quarantined {
                w.str(file);
            }
        });
    });
    w.key("degraded").num(coverage.degraded());
    w.finish()
}

/// `/networks/{id}/processes`: every routing process of one network.
pub fn network_processes(n: &NetworkSnapshot) -> String {
    let mut w = Writer::object(Layout::Block);
    w.key("network").str(&n.name);
    w.key("processes").arr(Layout::Block, |w| {
        for p in &n.processes.list {
            w.obj(Layout::Inline, |w| {
                w.key("key").str(p.key);
                w.key("router");
                match n.network.routers.get(p.key.router.0) {
                    Some(r) => w.str(r.name()),
                    None => w.str(p.key.router),
                };
                w.key("proto").str(p.key.proto);
                w.key("covered_ifaces").num(p.covered_ifaces.len());
                w.key("passive_ifaces").num(p.passive_ifaces.len());
                w.key("redistributes").num(p.redistributes.len());
            });
        }
    });
    w.finish()
}

/// One routing instance's members, shared by `/networks/{id}` and
/// `/instances` rows.
fn instance_fields(w: &mut Writer, i: &RoutingInstance) {
    w.key("id").num(i.id.0);
    w.key("kind").str(i.kind);
    w.key("asn");
    match i.asn {
        Some(asn) => w.num(asn),
        None => w.num("null"),
    };
    w.key("routers").num(i.routers.len());
    w.key("processes").num(i.processes.len());
}

/// `/instances`: routing instances across the whole corpus.
pub fn instances(corpus: &Corpus) -> String {
    let mut w = Writer::object(Layout::Block);
    w.key("instances").arr(Layout::Block, |w| {
        for n in &corpus.networks {
            for i in &n.instances.list {
                w.obj(Layout::Inline, |w| {
                    w.key("network").str(&n.name);
                    instance_fields(w, i);
                });
            }
        }
    });
    w.finish()
}

/// `/pathways`: per-router route pathway depth summaries (Section 3.3).
pub fn pathways(corpus: &Corpus) -> String {
    let mut w = Writer::object(Layout::Block);
    w.key("pathways").arr(Layout::Block, |w| {
        for n in &corpus.networks {
            // One multi-source BFS per network summarizes every router:
            // O(distinct seeds / 64 · graph) plus the nodes each seed
            // reaches.
            let index = PathwayIndex::new(&n.instances, &n.instance_graph);
            let summaries = index.summaries(n.network.routers.len());
            for (router, s) in n.network.routers.iter().zip(summaries) {
                w.obj(Layout::Inline, |w| {
                    w.key("network").str(&n.name);
                    w.key("router").str(router.name());
                    w.key("max_depth").num(s.max_depth);
                    w.key("reaches_external_world").num(s.reaches_external_world);
                    w.key("nodes").num(s.nodes);
                    w.key("edges").num(s.edges);
                });
            }
        }
    });
    w.finish()
}

/// `/diag`: every pipeline diagnostic across the corpus.
pub fn diag(corpus: &Corpus) -> String {
    let mut w = Writer::object(Layout::Block);
    w.key("diagnostics").arr(Layout::Block, |w| {
        for n in &corpus.networks {
            for d in n.diagnostics.iter() {
                w.obj(Layout::Inline, |w| {
                    w.key("network").str(&n.name);
                    w.key("file").str(&d.file);
                    w.key("line").num(d.line);
                    w.key("severity").str(d.severity);
                    w.key("code").str(d.code);
                    w.key("message").str(&d.message);
                });
            }
        }
    });
    w.finish()
}
