//! The routing process graph (paper Section 3.1, Figures 3 and 5).
//!
//! Vertices are RIBs: one per routing process, plus each router's local
//! RIB (connected subnets and static routes) and its router RIB (the
//! routes actually used for forwarding). Edges are added wherever routes
//! can move between RIBs: protocol adjacencies and BGP sessions between
//! routers, route redistribution inside a router, and route selection
//! into the router RIB. Policies annotate edges.

use std::collections::BTreeMap;
use std::fmt;

use nettopo::{Network, RouterId};

use crate::adjacency::{Adjacencies, SessionScope};
use crate::instance_graph::redist_label;
use crate::process::{ProcKey, Processes};

/// A vertex of the process graph: one RIB.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RibNode {
    /// A routing process's RIB.
    Process(ProcKey),
    /// The local RIB holding connected subnets and static routes.
    Local(RouterId),
    /// The router RIB that stores selected routes used for forwarding.
    RouterRib(RouterId),
}

impl RibNode {
    /// The router this RIB lives on.
    pub fn router(&self) -> RouterId {
        match self {
            RibNode::Process(k) => k.router,
            RibNode::Local(r) | RibNode::RouterRib(r) => *r,
        }
    }
}

impl fmt::Display for RibNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RibNode::Process(k) => write!(f, "{k}"),
            RibNode::Local(r) => write!(f, "{r}:local"),
            RibNode::RouterRib(r) => write!(f, "{r}:RIB"),
        }
    }
}

/// What kind of route movement an edge represents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// An IGP adjacency (undirected: routes flow both ways).
    Adjacency,
    /// A BGP session, with its scope.
    Session(SessionScope),
    /// Route redistribution inside one router (directed).
    Redistribution,
    /// Route selection into the router RIB (directed).
    Selection,
}

/// One edge of the process graph.
#[derive(Clone, Debug)]
pub struct ProcessEdge {
    /// Source RIB (for undirected kinds, the smaller endpoint).
    pub from: RibNode,
    /// Destination RIB.
    pub to: RibNode,
    /// The kind of route movement.
    pub kind: EdgeKind,
    /// Human-readable policy annotation (route maps, distribute lists,
    /// tags) if any policy governs this edge.
    pub policy: Option<String>,
}

/// The routing process graph of one network.
#[derive(Clone, Debug, Default)]
pub struct ProcessGraph {
    /// All vertices, sorted.
    pub nodes: Vec<RibNode>,
    /// All edges.
    pub edges: Vec<ProcessEdge>,
}

impl ProcessGraph {
    /// Builds the graph from processes and adjacencies.
    pub fn build(net: &Network, procs: &Processes, adj: &Adjacencies) -> ProcessGraph {
        let mut nodes: Vec<RibNode> = Vec::new();
        for p in &procs.list {
            nodes.push(RibNode::Process(p.key));
        }
        for (rid, _) in net.iter() {
            nodes.push(RibNode::Local(rid));
            nodes.push(RibNode::RouterRib(rid));
        }
        nodes.sort();

        let mut edges = Vec::new();

        // IGP adjacencies.
        for a in &adj.igp {
            edges.push(ProcessEdge {
                from: RibNode::Process(a.a),
                to: RibNode::Process(a.b),
                kind: EdgeKind::Adjacency,
                policy: None,
            });
        }

        // BGP sessions (internal both-ends; external sessions appear in
        // the instance graph instead, since the far RIB is not ours).
        for s in &adj.bgp {
            if let Some(peer) = s.peer {
                edges.push(ProcessEdge {
                    from: RibNode::Process(s.local),
                    to: RibNode::Process(peer),
                    kind: EdgeKind::Session(s.scope),
                    policy: session_policy(net, s.local, s.peer_addr),
                });
            }
        }

        // Redistribution and selection.
        for p in &procs.list {
            let rid = p.key.router;
            for r in &p.redistributes {
                let from = match procs.resolve_source(rid, r.source) {
                    Some(src) => RibNode::Process(src),
                    None => RibNode::Local(rid),
                };
                edges.push(ProcessEdge {
                    from,
                    to: RibNode::Process(p.key),
                    kind: EdgeKind::Redistribution,
                    policy: redist_label(r),
                });
            }
            edges.push(ProcessEdge {
                from: RibNode::Process(p.key),
                to: RibNode::RouterRib(rid),
                kind: EdgeKind::Selection,
                policy: None,
            });
        }
        for (rid, _) in net.iter() {
            edges.push(ProcessEdge {
                from: RibNode::Local(rid),
                to: RibNode::RouterRib(rid),
                kind: EdgeKind::Selection,
                policy: None,
            });
        }

        ProcessGraph { nodes, edges }
    }

    /// Nodes grouped by router (for per-router rendering).
    pub fn by_router(&self) -> BTreeMap<RouterId, Vec<RibNode>> {
        let mut map: BTreeMap<RouterId, Vec<RibNode>> = BTreeMap::new();
        for n in &self.nodes {
            map.entry(n.router()).or_default().push(*n);
        }
        map
    }
}

/// Annotation text for a BGP session edge: the local side's per-neighbor
/// policies.
fn session_policy(net: &Network, local: ProcKey, peer_addr: netaddr::Addr) -> Option<String> {
    let bgp = net.router(local.router).config.bgp.as_ref()?;
    let n = bgp.neighbors.iter().find(|n| n.addr == peer_addr)?;
    let mut parts = Vec::new();
    if let Some(m) = &n.route_map_in {
        parts.push(format!("route-map {m} in"));
    }
    if let Some(m) = &n.route_map_out {
        parts.push(format!("route-map {m} out"));
    }
    if let Some(d) = n.distribute_in {
        parts.push(format!("distribute-list {d} in"));
    }
    if let Some(d) = n.distribute_out {
        parts.push(format!("distribute-list {d} out"));
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::{ExternalAnalysis, LinkMap, Network};

    /// The paper's R2 (Figure 2/3): two OSPF processes, one BGP process,
    /// local RIB, router RIB, with redistribution arrows as in Figure 3.
    fn r2_like() -> (Network, ProcessGraph) {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Ethernet0\n ip address 66.251.75.144 255.255.255.128\n\
             interface Serial1/0.5 point-to-point\n ip address 66.253.32.85 255.255.255.252\n\
             interface Hssi2/0 point-to-point\n ip address 66.253.160.67 255.255.255.252\n\
             router ospf 64\n redistribute connected metric-type 1 subnets\n \
              redistribute bgp 64780 metric 1 subnets\n network 66.251.75.128 0.0.0.127 area 0\n\
             router ospf 128\n redistribute connected metric-type 1 subnets\n\
              network 66.253.32.84 0.0.0.3 area 11\n\
             router bgp 64780\n redistribute ospf 64 route-map 8aTzlvBrbaW\n \
              neighbor 66.253.160.68 remote-as 12762\n"
                .into(),
        )])
        .unwrap();
        let links = LinkMap::build(&net);
        let external = ExternalAnalysis::build(&net, &links);
        let procs = Processes::extract(&net);
        let adj = Adjacencies::build(&net, &links, &procs, &external);
        let graph = ProcessGraph::build(&net, &procs, &adj);
        (net, graph)
    }

    #[test]
    fn figure3_node_set() {
        let (_, g) = r2_like();
        // 3 process RIBs + local + router RIB.
        assert_eq!(g.nodes.len(), 5);
        assert_eq!(
            g.nodes.iter().filter(|n| matches!(n, RibNode::Process(_))).count(),
            3
        );
    }

    #[test]
    fn figure3_redistribution_edges() {
        let (_, g) = r2_like();
        let redists: Vec<&ProcessEdge> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Redistribution)
            .collect();
        // connected→ospf64, bgp→ospf64, connected→ospf128, ospf64→bgp.
        assert_eq!(redists.len(), 4);
        let from_local =
            redists.iter().filter(|e| matches!(e.from, RibNode::Local(_))).count();
        assert_eq!(from_local, 2);
        // The ospf64→bgp edge carries the route-map annotation.
        let policied: Vec<_> = redists.iter().filter(|e| e.policy.is_some()).collect();
        assert_eq!(policied.len(), 1);
        assert!(policied[0].policy.as_ref().unwrap().contains("8aTzlvBrbaW"));
    }

    #[test]
    fn selection_edges_into_router_rib() {
        let (_, g) = r2_like();
        let selections = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Selection)
            .count();
        // 3 processes + local RIB.
        assert_eq!(selections, 4);
    }
}
