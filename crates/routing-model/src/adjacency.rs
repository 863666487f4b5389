//! Routing-process adjacencies (paper Section 2.2).
//!
//! For OSPF/EIGRP/RIP processes to be adjacent, the processes must be of
//! the same type, there must be a link between their routers, and each
//! process must cover its interface on that link (EIGRP additionally
//! requires matching AS numbers, and `passive-interface` suppresses
//! adjacency). Two BGP processes are adjacent when they are explicitly
//! configured to speak to each other.

use std::collections::{BTreeMap, BTreeSet};

use netaddr::{Addr, Prefix};
use nettopo::{ExternalAnalysis, IfaceClass, IfaceRef, LinkMap, Network, RouterId};

use crate::process::{ProcKey, Processes, Proto};

/// One IGP adjacency between two processes over a shared subnet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct IgpAdjacency {
    /// One endpoint (the smaller key).
    pub a: ProcKey,
    /// The other endpoint.
    pub b: ProcKey,
    /// The shared subnet.
    pub subnet: Prefix,
}

/// How a BGP session relates to the network boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SessionScope {
    /// Same AS on both sides, both inside the corpus.
    Ibgp,
    /// Different ASes, both routers inside the corpus — EBGP used as an
    /// intra-network mechanism (one of the paper's headline findings).
    EbgpInternal,
    /// Peer address not owned by any router in the corpus: a session to
    /// another administrative domain.
    EbgpExternal,
}

/// One BGP session (deduplicated: each internal session appears once).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BgpSession {
    /// The local process (smaller key for internal sessions).
    pub local: ProcKey,
    /// The peer process, when the peer is in the corpus.
    pub peer: Option<ProcKey>,
    /// The configured peer address.
    pub peer_addr: Addr,
    /// The configured remote AS.
    pub remote_as: u32,
    /// Session classification.
    pub scope: SessionScope,
}

/// All adjacencies of a network.
#[derive(Clone, Debug, Default)]
pub struct Adjacencies {
    /// IGP adjacencies (deduplicated, `a < b`).
    pub igp: Vec<IgpAdjacency>,
    /// BGP sessions (deduplicated).
    pub bgp: Vec<BgpSession>,
    /// IGP processes actively covering an external-facing interface —
    /// candidate adjacencies with processes of *other* networks, the
    /// signature of an IGP used in an inter-domain role (Section 5.2).
    pub igp_external: Vec<(ProcKey, IfaceRef)>,
}

impl Adjacencies {
    /// Computes all adjacencies.
    pub fn build(
        net: &Network,
        links: &LinkMap,
        procs: &Processes,
        external: &ExternalAnalysis,
    ) -> Adjacencies {
        let mut out = Adjacencies::default();
        build_igp(links, procs, &mut out);
        build_igp_external(net, procs, external, &mut out);
        build_bgp(net, &mut out);
        out
    }
}

/// Whether two same-router-pair processes can be IGP-adjacent.
fn igp_compatible(a: Proto, b: Proto) -> bool {
    match (a, b) {
        (Proto::Ospf(_), Proto::Ospf(_)) => true, // pids have no global meaning
        (Proto::Eigrp(x), Proto::Eigrp(y)) => x == y, // EIGRP requires same AS
        (Proto::Igrp(x), Proto::Igrp(y)) => x == y,
        (Proto::Rip, Proto::Rip) => true,
        _ => false,
    }
}

fn build_igp(links: &LinkMap, procs: &Processes, out: &mut Adjacencies) {
    let mut seen: BTreeSet<(ProcKey, ProcKey, Prefix)> = BTreeSet::new();
    for link in links.links.values() {
        if link.endpoints.len() < 2 {
            continue;
        }
        for (i, ea) in link.endpoints.iter().enumerate() {
            for eb in &link.endpoints[i + 1..] {
                if ea.router == eb.router {
                    continue;
                }
                for pa in procs.on_router(ea.router) {
                    if !pa.key.proto.kind().is_igp() || !pa.active_on(ea.iface) {
                        continue;
                    }
                    for pb in procs.on_router(eb.router) {
                        if !igp_compatible(pa.key.proto, pb.key.proto)
                            || !pb.active_on(eb.iface)
                        {
                            continue;
                        }
                        let (a, b) = if pa.key < pb.key {
                            (pa.key, pb.key)
                        } else {
                            (pb.key, pa.key)
                        };
                        if seen.insert((a, b, link.subnet)) {
                            out.igp.push(IgpAdjacency { a, b, subnet: link.subnet });
                        }
                    }
                }
            }
        }
    }
    out.igp.sort();
}

fn build_igp_external(
    net: &Network,
    procs: &Processes,
    external: &ExternalAnalysis,
    out: &mut Adjacencies,
) {
    for (rid, _) in net.iter() {
        for proc in procs.on_router(rid) {
            if !proc.key.proto.kind().is_igp() {
                continue;
            }
            for &idx in &proc.covered_ifaces {
                if proc.passive_ifaces.contains(&idx) {
                    continue;
                }
                let iref = IfaceRef { router: rid, iface: idx };
                if external.class_of(iref) == IfaceClass::External {
                    out.igp_external.push((proc.key, iref));
                }
            }
        }
    }
}

fn build_bgp(net: &Network, out: &mut Adjacencies) {
    // Address → owning router (primaries and secondaries).
    let mut owner: BTreeMap<Addr, RouterId> = BTreeMap::new();
    for (rid, router) in net.iter() {
        for iface in &router.config.interfaces {
            for a in iface.address.iter().chain(iface.secondary.iter()) {
                owner.insert(a.addr, rid);
            }
        }
    }

    let mut seen: BTreeSet<(ProcKey, ProcKey)> = BTreeSet::new();
    for (rid, router) in net.iter() {
        let Some(bgp) = &router.config.bgp else { continue };
        let local = ProcKey { router: rid, proto: Proto::Bgp(bgp.asn) };
        for n in &bgp.neighbors {
            let Some(remote_as) = n.remote_as else { continue };
            match owner.get(&n.addr) {
                Some(&peer_rid) if peer_rid != rid => {
                    // Internal session. Use the peer's *actual* ASN when it
                    // runs BGP; fall back to the configured remote-as.
                    let peer_asn = net
                        .router(peer_rid)
                        .config
                        .bgp
                        .as_ref()
                        .map(|b| b.asn)
                        .unwrap_or(remote_as);
                    let peer = ProcKey { router: peer_rid, proto: Proto::Bgp(peer_asn) };
                    let (lo, hi) = if local < peer { (local, peer) } else { (peer, local) };
                    if !seen.insert((lo, hi)) {
                        continue;
                    }
                    let scope = if bgp.asn == peer_asn {
                        SessionScope::Ibgp
                    } else {
                        SessionScope::EbgpInternal
                    };
                    out.bgp.push(BgpSession {
                        local: lo,
                        peer: Some(hi),
                        peer_addr: n.addr,
                        remote_as,
                        scope,
                    });
                }
                Some(_) => {} // neighbor pointing at self: ignore
                None => {
                    // Peer outside the corpus: a session to another
                    // administrative domain (even if the configured ASN
                    // matches ours, the router is not in the data set).
                    out.bgp.push(BgpSession {
                        local,
                        peer: None,
                        peer_addr: n.addr,
                        remote_as,
                        scope: SessionScope::EbgpExternal,
                    });
                }
            }
        }
    }
    out.bgp.sort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::Network;

    fn analyze(net: &Network) -> (Processes, Adjacencies) {
        let links = LinkMap::build(net);
        let external = ExternalAnalysis::build(net, &links);
        let procs = Processes::extract(net);
        let adj = Adjacencies::build(net, &links, &procs, &external);
        (procs, adj)
    }

    #[test]
    fn ospf_adjacency_requires_coverage_on_both_sides() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 64\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 99\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, adj) = analyze(&net);
        // Different pids still form an adjacency (pids are router-local).
        assert_eq!(adj.igp.len(), 1);
        assert_eq!(adj.igp[0].subnet.to_string(), "10.0.0.0/30");
    }

    #[test]
    fn no_adjacency_without_coverage() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 64\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 64\n network 192.168.0.0 0.0.255.255 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, adj) = analyze(&net);
        assert!(adj.igp.is_empty());
    }

    #[test]
    fn passive_interface_suppresses_adjacency() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 64\n network 10.0.0.0 0.0.0.3 area 0\n passive-interface Serial0\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 64\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, adj) = analyze(&net);
        assert!(adj.igp.is_empty());
    }

    #[test]
    fn eigrp_requires_matching_asn() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router eigrp 100\n network 10.0.0.0\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router eigrp 200\n network 10.0.0.0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, adj) = analyze(&net);
        assert!(adj.igp.is_empty());
    }

    #[test]
    fn ospf_never_adjacent_to_rip() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router rip\n network 10.0.0.0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, adj) = analyze(&net);
        assert!(adj.igp.is_empty());
    }

    #[test]
    fn bgp_sessions_classified_and_deduplicated() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 interface Serial1\n ip address 192.0.2.1 255.255.255.252\n\
                 router bgp 65001\n \
                 neighbor 10.0.0.2 remote-as 65001\n \
                 neighbor 192.0.2.2 remote-as 7018\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router bgp 65001\n neighbor 10.0.0.1 remote-as 65001\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, adj) = analyze(&net);
        assert_eq!(adj.bgp.len(), 2);
        let scopes: Vec<SessionScope> = adj.bgp.iter().map(|s| s.scope).collect();
        assert!(scopes.contains(&SessionScope::Ibgp));
        assert!(scopes.contains(&SessionScope::EbgpExternal));
    }

    #[test]
    fn internal_ebgp_detected() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router bgp 65001\n neighbor 10.0.0.2 remote-as 65002\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router bgp 65002\n neighbor 10.0.0.1 remote-as 65001\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, adj) = analyze(&net);
        assert_eq!(adj.bgp.len(), 1);
        assert_eq!(adj.bgp[0].scope, SessionScope::EbgpInternal);
    }

    #[test]
    fn igp_covering_external_interface_is_flagged() {
        // RIP on a /30 whose other end is missing from the corpus: the
        // classic "IGP as edge protocol to a customer" pattern.
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
             router rip\n network 10.0.0.0\n"
                .into(),
        )])
        .unwrap();
        let (procs, adj) = analyze(&net);
        assert_eq!(adj.igp_external.len(), 1);
        assert_eq!(adj.igp_external[0].0, procs.list[0].key);
    }
}
