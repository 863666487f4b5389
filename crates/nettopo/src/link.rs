//! Logical-link inference by subnet matching (paper Section 2.1).
//!
//! "From the configuration files, we infer the logical IP links between
//! routers by matching interfaces with the same subnet." An interface that
//! matches no other interface is a candidate external-facing interface;
//! subnets with more than two interfaces are multipoint links.

use std::collections::BTreeMap;

use netaddr::Prefix;

use crate::network::{Network, RouterId};

/// A reference to one interface: router plus index into its interface list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IfaceRef {
    /// Owning router.
    pub router: RouterId,
    /// Index into that router's `config.interfaces`.
    pub iface: usize,
}

/// The kind of an inferred link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Exactly two interfaces share the subnet.
    PointToPoint,
    /// More than two interfaces share the subnet (e.g. an Ethernet).
    Multipoint,
    /// Only one interface was found in the corpus; the other end is
    /// outside the data set (external peer, host LAN, or missing router).
    Unmatched,
}

/// A logical IP link: a subnet and the interfaces on it.
#[derive(Clone, Debug)]
pub struct Link {
    /// The shared subnet.
    pub subnet: Prefix,
    /// Interfaces configured into this subnet, in (router, iface) order.
    pub endpoints: Vec<IfaceRef>,
}

impl Link {
    /// Classifies the link by endpoint count.
    pub fn kind(&self) -> LinkKind {
        match self.endpoints.len() {
            0 | 1 => LinkKind::Unmatched,
            2 => LinkKind::PointToPoint,
            _ => LinkKind::Multipoint,
        }
    }

    /// The distinct routers on the link.
    pub fn routers(&self) -> Vec<RouterId> {
        let mut ids: Vec<RouterId> = self.endpoints.iter().map(|e| e.router).collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

/// All inferred links of a network, indexed by subnet.
#[derive(Clone, Debug, Default)]
pub struct LinkMap {
    /// Subnet → link. BTreeMap for deterministic iteration.
    pub links: BTreeMap<Prefix, Link>,
}

impl LinkMap {
    /// Infers links for a network.
    ///
    /// Shutdown interfaces are skipped (they terminate no live link);
    /// unnumbered interfaces contribute no subnet and are handled by the
    /// external-facing analysis instead. Secondary addresses participate
    /// exactly like primaries.
    pub fn build(net: &Network) -> LinkMap {
        let mut links: BTreeMap<Prefix, Link> = BTreeMap::new();
        for (rid, router) in net.iter() {
            for (idx, iface) in router.config.interfaces.iter().enumerate() {
                if iface.shutdown {
                    continue;
                }
                for subnet in iface.subnets() {
                    // /32s identify the router itself (loopbacks), not links.
                    if subnet.len() == 32 {
                        continue;
                    }
                    links
                        .entry(subnet)
                        .or_insert_with(|| Link { subnet, endpoints: Vec::new() })
                        .endpoints
                        .push(IfaceRef { router: rid, iface: idx });
                }
            }
        }
        LinkMap { links }
    }

    /// Links that connect two or more routers of the corpus.
    pub fn internal_links(&self) -> impl Iterator<Item = &Link> {
        self.links.values().filter(|l| l.routers().len() >= 2)
    }

    /// The link a given interface's primary address is on, if any.
    pub fn link_of(&self, subnet: Prefix) -> Option<&Link> {
        self.links.get(&subnet)
    }

    /// Pairs of routers that share at least one link (deduplicated).
    pub fn router_pairs(&self) -> Vec<(RouterId, RouterId)> {
        let mut pairs = Vec::new();
        for link in self.links.values() {
            let routers = link.routers();
            for (i, a) in routers.iter().enumerate() {
                for b in &routers[i + 1..] {
                    pairs.push((*a, *b));
                }
            }
        }
        pairs.sort();
        pairs.dedup();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn net3() -> Network {
        // r0 -- /30 -- r1 ; r0,r1,r2 on a /24 Ethernet; r2 has a stub /30.
        Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 interface Ethernet0\n ip address 10.1.0.2 255.255.255.0\n"
                    .into(),
            ),
            (
                "config3".into(),
                "interface Ethernet0\n ip address 10.1.0.3 255.255.255.0\n\
                 interface Serial1\n ip address 192.0.2.1 255.255.255.252\n"
                    .into(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn matches_interfaces_into_links() {
        let net = net3();
        let links = LinkMap::build(&net);
        assert_eq!(links.links.len(), 3);
        let p2p = links.link_of("10.0.0.0/30".parse().unwrap()).unwrap();
        assert_eq!(p2p.kind(), LinkKind::PointToPoint);
        assert_eq!(p2p.routers(), vec![RouterId(0), RouterId(1)]);
        let mp = links.link_of("10.1.0.0/24".parse().unwrap()).unwrap();
        assert_eq!(mp.kind(), LinkKind::Multipoint);
        assert_eq!(mp.routers().len(), 3);
        let stub = links.link_of("192.0.2.0/30".parse().unwrap()).unwrap();
        assert_eq!(stub.kind(), LinkKind::Unmatched);
    }

    #[test]
    fn internal_and_unmatched_partitions() {
        let net = net3();
        let links = LinkMap::build(&net);
        assert_eq!(links.internal_links().count(), 2);
    }

    #[test]
    fn router_pairs_deduplicated() {
        let net = net3();
        let links = LinkMap::build(&net);
        let pairs = links.router_pairs();
        assert_eq!(
            pairs,
            vec![
                (RouterId(0), RouterId(1)),
                (RouterId(0), RouterId(2)),
                (RouterId(1), RouterId(2)),
            ]
        );
    }

    #[test]
    fn shutdown_and_loopback_excluded() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Loopback0\n ip address 10.9.9.9 255.255.255.255\n\
             interface Serial0\n ip address 10.0.0.1 255.255.255.252\n shutdown\n"
                .into(),
        )])
        .unwrap();
        let links = LinkMap::build(&net);
        assert!(links.links.is_empty());
    }
}
