//! The routing instance graph (paper Section 3.2, Figures 6 and 9).
//!
//! Routers and processes are collapsed into their routing instances;
//! the edges that remain are exactly the places where route exchange
//! crosses protocol or AS boundaries: redistribution points, EBGP
//! sessions, and peerings with the external world. [`exchanges`] lists
//! those places once, each with the configuration it comes from; the
//! graph's edges and the reachability analysis's route filters are both
//! built from that list.

use std::collections::BTreeSet;
use std::fmt;

use ioscfg::Redistribution;
use nettopo::{Network, RouterId};

use crate::adjacency::{Adjacencies, BgpSession, SessionScope};
use crate::instance::{InstanceId, Instances};
use crate::process::Processes;

/// A node of the instance graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstanceNode {
    /// One of this network's routing instances.
    Instance(InstanceId),
    /// An external AS peered with via EBGP.
    ExternalAs(u32),
    /// The external world reached through an IGP edge (no AS number is
    /// visible when an IGP is used as the edge protocol).
    ExternalWorld,
}

impl InstanceNode {
    /// True for an external AS or the external world.
    pub fn is_external(&self) -> bool {
        matches!(self, InstanceNode::ExternalAs(_) | InstanceNode::ExternalWorld)
    }
}

impl fmt::Display for InstanceNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceNode::Instance(id) => write!(f, "{id}"),
            InstanceNode::ExternalAs(asn) => write!(f, "AS{asn}"),
            InstanceNode::ExternalWorld => write!(f, "external world"),
        }
    }
}

/// The mechanism of a route exchange between instances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Redistribution inside a router (directed `from` → `to`).
    Redistribution {
        /// The router doing the redistribution.
        router: RouterId,
        /// Policy annotation, if any (route map, tag).
        policy: Option<String>,
    },
    /// An EBGP session (undirected route exchange) between two internal
    /// instances, or to an external AS.
    Ebgp {
        /// The border router on our side.
        router: RouterId,
    },
    /// An IGP adjacency crossing the network boundary.
    IgpEdge {
        /// The router with the external-facing covered interface.
        router: RouterId,
    },
}

/// The configuration behind one [`Exchange`].
#[derive(Clone, Copy, Debug)]
pub enum ExchangeVia<'a> {
    /// A `redistribute` statement inside the receiving process's stanza.
    Redistribution {
        /// The router doing the redistribution.
        router: RouterId,
        /// The statement.
        redist: &'a Redistribution,
    },
    /// An EBGP session, to another instance or to an external AS.
    Ebgp(&'a BgpSession),
    /// An IGP process covering an interface that faces outside the
    /// network.
    IgpCoverage {
        /// The router with the external-facing covered interface.
        router: RouterId,
    },
}

/// One route exchange that crosses an instance boundary.
#[derive(Clone, Copy, Debug)]
pub struct Exchange<'a> {
    /// The instance on our side: the source of a redistribution, the
    /// local end of a session, the instance with the external coverage.
    pub from: InstanceId,
    /// The other side: another instance, an external AS or the external
    /// world.
    pub to: InstanceNode,
    /// The configuration that makes the exchange.
    pub via: ExchangeVia<'a>,
}

/// Every route exchange that crosses an instance boundary: redistributions
/// between two instances (in process order), EBGP sessions (in
/// [`Adjacencies::bgp`] order), then external IGP coverage, once per
/// instance and router.
pub fn exchanges<'a>(
    procs: &'a Processes,
    adj: &'a Adjacencies,
    instances: &Instances,
) -> Vec<Exchange<'a>> {
    let mut out = Vec::new();
    for p in &procs.list {
        let Some(to) = instances.instance_of(p.key) else { continue };
        for redist in &p.redistributes {
            let Some(src_key) = procs.resolve_source(p.key.router, redist.source) else {
                continue; // connected/static: local, not inter-instance
            };
            let Some(from) = instances.instance_of(src_key) else { continue };
            if from != to {
                let via = ExchangeVia::Redistribution { router: p.key.router, redist };
                out.push(Exchange { from, to: InstanceNode::Instance(to), via });
            }
        }
    }
    for s in &adj.bgp {
        let Some(from) = instances.instance_of(s.local) else { continue };
        let to = match s.scope {
            SessionScope::Ibgp => continue, // inside one instance
            SessionScope::EbgpInternal => {
                match s.peer.and_then(|peer| instances.instance_of(peer)) {
                    Some(peer) => InstanceNode::Instance(peer),
                    None => continue,
                }
            }
            SessionScope::EbgpExternal => InstanceNode::ExternalAs(s.remote_as),
        };
        out.push(Exchange { from, to, via: ExchangeVia::Ebgp(s) });
    }
    let mut seen: BTreeSet<(InstanceId, RouterId)> = BTreeSet::new();
    for (key, iref) in &adj.igp_external {
        let Some(from) = instances.instance_of(*key) else { continue };
        if seen.insert((from, iref.router)) {
            let via = ExchangeVia::IgpCoverage { router: iref.router };
            out.push(Exchange { from, to: InstanceNode::ExternalWorld, via });
        }
    }
    out
}

/// The policy annotation of a redistribution edge, in the instance and
/// process graphs alike: its route map and tag, if any.
pub(crate) fn redist_label(r: &Redistribution) -> Option<String> {
    let mut parts = Vec::new();
    if let Some(map) = &r.route_map {
        parts.push(format!("route-map {map}"));
    }
    if let Some(tag) = r.tag {
        parts.push(format!("tag {tag}"));
    }
    (!parts.is_empty()).then(|| parts.join(", "))
}

/// One edge of the instance graph.
#[derive(Clone, Debug)]
pub struct InstanceEdge {
    /// Source node (direction meaningful only for redistribution).
    pub from: InstanceNode,
    /// Destination node.
    pub to: InstanceNode,
    /// How routes move.
    pub kind: ExchangeKind,
}

/// The instance graph of one network.
#[derive(Clone, Debug, Default)]
pub struct InstanceGraph {
    /// All nodes.
    pub nodes: Vec<InstanceNode>,
    /// All edges (parallel edges preserved: each redistribution router
    /// contributes its own edge — net5's six redundant redistributors
    /// appear as six parallel edges).
    pub edges: Vec<InstanceEdge>,
}

impl InstanceGraph {
    /// Builds the instance graph: one edge per [`exchanges`] entry.
    pub fn build(
        _net: &Network,
        procs: &Processes,
        adj: &Adjacencies,
        instances: &Instances,
    ) -> InstanceGraph {
        let mut nodes: BTreeSet<InstanceNode> = instances
            .list
            .iter()
            .map(|i| InstanceNode::Instance(i.id))
            .collect();
        let exchanges = exchanges(procs, adj, instances);
        let mut edges = Vec::with_capacity(exchanges.len());
        for x in exchanges {
            let kind = match x.via {
                ExchangeVia::Redistribution { router, redist } => {
                    ExchangeKind::Redistribution { router, policy: redist_label(redist) }
                }
                ExchangeVia::Ebgp(s) => ExchangeKind::Ebgp { router: s.local.router },
                ExchangeVia::IgpCoverage { router } => ExchangeKind::IgpEdge { router },
            };
            if x.to.is_external() {
                nodes.insert(x.to);
            }
            edges.push(InstanceEdge { from: InstanceNode::Instance(x.from), to: x.to, kind });
        }
        InstanceGraph { nodes: nodes.into_iter().collect(), edges }
    }

    /// The routers redistributing between two given instances (net5's
    /// redundancy question: 6 routers redistribute between instances 4
    /// and 1).
    pub fn redistribution_routers(
        &self,
        from: InstanceId,
        to: InstanceId,
    ) -> Vec<RouterId> {
        let mut out: Vec<RouterId> = self
            .edges
            .iter()
            .filter_map(|e| match (&e.kind, e.from, e.to) {
                (
                    ExchangeKind::Redistribution { router, .. },
                    InstanceNode::Instance(f),
                    InstanceNode::Instance(t),
                ) if f == from && t == to => Some(*router),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// External ASes this network peers with.
    pub fn external_ases(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                InstanceNode::ExternalAs(asn) => Some(*asn),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// The instances with an edge to the outside world (external EBGP or
    /// IGP edge) — the inter-domain role test of Section 5.2 — in one
    /// pass over the edges.
    pub fn inter_domain(&self) -> BTreeSet<InstanceId> {
        let mut out = BTreeSet::new();
        for e in &self.edges {
            if e.from.is_external() || e.to.is_external() {
                for node in [e.from, e.to] {
                    if let InstanceNode::Instance(id) = node {
                        out.insert(id);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instances;
    use nettopo::{ExternalAnalysis, LinkMap, Network};

    fn build(net: &Network) -> (Processes, Instances, InstanceGraph) {
        let links = LinkMap::build(net);
        let external = ExternalAnalysis::build(net, &links);
        let procs = Processes::extract(net);
        let adj = Adjacencies::build(net, &links, &procs, &external);
        let inst = Instances::compute(&procs, &adj);
        let graph = InstanceGraph::build(net, &procs, &adj, &inst);
        (procs, inst, graph)
    }

    /// The paper's enterprise pattern: border router with EBGP to an
    /// external AS, redistributing into OSPF.
    #[test]
    fn enterprise_pattern_edges() {
        let net = Network::from_texts(vec![
            (
                "config1".into(), // border
                "interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n \
                  redistribute bgp 65001 subnets\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n \
                  redistribute ospf 1\n"
                    .into(),
            ),
            (
                "config2".into(), // interior
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, inst, graph) = build(&net);
        assert_eq!(inst.len(), 2); // one OSPF (2 routers), one BGP (1 router)
        assert_eq!(graph.external_ases(), vec![7018]);
        // Redistribution edges both directions + EBGP to AS7018.
        let redists = graph
            .edges
            .iter()
            .filter(|e| matches!(e.kind, ExchangeKind::Redistribution { .. }))
            .count();
        assert_eq!(redists, 2);
        let ebgp = graph
            .edges
            .iter()
            .filter(|e| matches!(e.kind, ExchangeKind::Ebgp { .. }))
            .count();
        assert_eq!(ebgp, 1);
        // The BGP instance is inter-domain; OSPF is intra-domain.
        let bgp_inst = inst.list.iter().find(|i| i.asn.is_some()).unwrap();
        let ospf_inst = inst.list.iter().find(|i| i.asn.is_none()).unwrap();
        assert!(graph.inter_domain().contains(&bgp_inst.id));
        assert!(!graph.inter_domain().contains(&ospf_inst.id));
    }

    /// Redundant redistribution points show up as parallel edges.
    #[test]
    fn redundant_redistributors_counted() {
        let mk_border = |serial_ip: &str, eth_ip: &str| {
            format!(
                "interface Serial0\n ip address {serial_ip} 255.255.255.252\n\
                 interface Ethernet0\n ip address {eth_ip} 255.255.255.0\n\
                 router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n \
                  redistribute rip\n\
                 router rip\n network 10.2.0.0\n"
            )
        };
        // Two borders redistribute RIP into OSPF; RIP island shared.
        let net = Network::from_texts(vec![
            ("config1".into(), mk_border("10.1.0.1", "10.2.0.1")),
            ("config2".into(), mk_border("10.1.0.5", "10.2.0.2")),
            (
                "config3".into(),
                "interface Serial0\n ip address 10.1.0.2 255.255.255.252\n\
                 interface Serial1\n ip address 10.1.0.6 255.255.255.252\n\
                 router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"
                    .into(),
            ),
            (
                "config4".into(),
                "interface Ethernet0\n ip address 10.2.0.3 255.255.255.0\n\
                 router rip\n network 10.2.0.0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, inst, graph) = build(&net);
        let rip = inst.list.iter().find(|i| i.kind == crate::ProtoKind::Rip).unwrap();
        let ospf = inst.list.iter().find(|i| i.kind == crate::ProtoKind::Ospf).unwrap();
        let routers = graph.redistribution_routers(rip.id, ospf.id);
        assert_eq!(routers.len(), 2);
    }

    #[test]
    fn igp_external_edge_creates_world_node() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
             router rip\n network 10.0.0.0\n"
                .into(),
        )])
        .unwrap();
        let (_, inst, graph) = build(&net);
        assert!(graph.nodes.contains(&InstanceNode::ExternalWorld));
        assert!(graph.inter_domain().contains(&inst.list[0].id));
    }
}
