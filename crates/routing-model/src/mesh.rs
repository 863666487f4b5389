//! IBGP mesh structure analysis.
//!
//! Section 7.1 notes that the networks redistributing BGP into IGPs
//! "differed in ... the completeness of the IBGP mesh inside the ASs",
//! and Section 6.1 explains why net5 avoided a mesh entirely ("a simple
//! IBGP mesh would not be scalable, and a complex set of IBGP reflectors
//! would be required"). This module measures exactly that per BGP
//! instance: how complete the mesh is, and whether route reflection is in
//! use.

use std::collections::BTreeSet;

use nettopo::{Network, RouterId};

use crate::adjacency::{Adjacencies, SessionScope};
use crate::instance::{InstanceId, Instances, RoutingInstance};

/// The IBGP structure of one BGP instance.
#[derive(Clone, Debug, PartialEq)]
pub struct IbgpMesh {
    /// The instance.
    pub instance: InstanceId,
    /// Routers in the instance.
    pub routers: usize,
    /// IBGP sessions inside the instance.
    pub sessions: usize,
    /// Sessions ÷ (n choose 2): 1.0 = full mesh. 0 for single-router
    /// instances, which have no pair to connect.
    pub completeness: f64,
    /// Routers configured as route reflectors (they have at least one
    /// `route-reflector-client` neighbor).
    pub reflectors: Vec<RouterId>,
    /// Routers that are clients of some reflector.
    pub clients: usize,
}

impl IbgpMesh {
    /// True if the instance uses route reflection instead of a mesh.
    pub fn uses_reflection(&self) -> bool {
        !self.reflectors.is_empty()
    }
}

/// Analyzes the IBGP structure of every multi-router BGP instance.
pub fn ibgp_meshes(
    net: &Network,
    instances: &Instances,
    adj: &Adjacencies,
) -> Vec<IbgpMesh> {
    instances
        .list
        .iter()
        .filter(|i| i.asn.is_some())
        .map(|i| mesh_of(net, i, adj))
        .collect()
}

fn mesh_of(net: &Network, instance: &RoutingInstance, adj: &Adjacencies) -> IbgpMesh {
    let members: BTreeSet<RouterId> = instance.routers.iter().copied().collect();
    let sessions = adj
        .bgp
        .iter()
        .filter(|s| {
            s.scope == SessionScope::Ibgp
                && members.contains(&s.local.router)
                && s.peer.is_some_and(|p| members.contains(&p.router))
        })
        .count();
    let n = members.len();
    let pairs = n * n.saturating_sub(1) / 2;
    let completeness = if pairs == 0 { 0.0 } else { sessions as f64 / pairs as f64 };

    // Reflector detection: a member with any route-reflector-client
    // neighbor statement. Clients: members that appear as somebody's
    // client address.
    let mut reflectors = Vec::new();
    let mut client_addrs: BTreeSet<netaddr::Addr> = BTreeSet::new();
    for &rid in &members {
        let Some(bgp) = &net.router(rid).config.bgp else { continue };
        let client_neighbors: Vec<netaddr::Addr> = bgp
            .neighbors
            .iter()
            .filter(|nb| nb.route_reflector_client)
            .map(|nb| nb.addr)
            .collect();
        if !client_neighbors.is_empty() {
            reflectors.push(rid);
            client_addrs.extend(client_neighbors);
        }
    }
    let clients = members
        .iter()
        .filter(|&&rid| {
            net.router(rid)
                .config
                .interfaces
                .iter()
                .flat_map(|i| i.address.iter().chain(i.secondary.iter()))
                .any(|a| client_addrs.contains(&a.addr))
        })
        .count();

    IbgpMesh {
        instance: instance.id,
        routers: n,
        sessions,
        completeness,
        reflectors,
        clients,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Processes;
    use nettopo::{ExternalAnalysis, LinkMap};

    fn analyze(net: &Network) -> (Instances, Adjacencies) {
        let links = LinkMap::build(net);
        let external = ExternalAnalysis::build(net, &links);
        let procs = Processes::extract(net);
        let adj = Adjacencies::build(net, &links, &procs, &external);
        let inst = Instances::compute(&procs, &adj);
        (inst, adj)
    }

    fn bgp_router(host: u8, peers: &[u8], rr_client_of: &[u8]) -> String {
        let mut t = format!(
            "interface Ethernet0\n ip address 10.0.{host}.1 255.255.255.0\n\
             interface Serial0\n ip address 10.9.{host}.1 255.255.255.252\n"
        );
        // Chain links so everything shares one physical network.
        if host > 1 {
            let up = host - 1;
            t.push_str(&format!(
                "interface Serial1\n ip address 10.9.{up}.2 255.255.255.252\n"
            ));
        }
        t.push_str("router bgp 65001\n");
        for p in peers {
            t.push_str(&format!(" neighbor 10.0.{p}.1 remote-as 65001\n"));
        }
        for p in rr_client_of {
            t.push_str(&format!(" neighbor 10.0.{p}.1 route-reflector-client\n"));
        }
        t
    }

    #[test]
    fn full_mesh_detected() {
        let net = Network::from_texts(vec![
            ("config1".into(), bgp_router(1, &[2, 3], &[])),
            ("config2".into(), bgp_router(2, &[1, 3], &[])),
            ("config3".into(), bgp_router(3, &[1, 2], &[])),
        ])
        .unwrap();
        let (inst, adj) = analyze(&net);
        let meshes = ibgp_meshes(&net, &inst, &adj);
        assert_eq!(meshes.len(), 1);
        assert_eq!(meshes[0].routers, 3);
        assert_eq!(meshes[0].sessions, 3);
        assert_eq!(meshes[0].completeness, 1.0);
        assert!(!meshes[0].uses_reflection());
    }

    #[test]
    fn reflection_detected_with_partial_mesh() {
        // Router 1 reflects for 2 and 3; no session between 2 and 3.
        let net = Network::from_texts(vec![
            ("config1".into(), bgp_router(1, &[2, 3], &[2, 3])),
            ("config2".into(), bgp_router(2, &[1], &[])),
            ("config3".into(), bgp_router(3, &[1], &[])),
        ])
        .unwrap();
        let (inst, adj) = analyze(&net);
        let meshes = ibgp_meshes(&net, &inst, &adj);
        assert_eq!(meshes.len(), 1);
        assert_eq!(meshes[0].sessions, 2);
        assert!(meshes[0].completeness < 1.0);
        assert!((meshes[0].completeness - 2.0 / 3.0).abs() < 1e-9);
        assert!(meshes[0].uses_reflection());
        assert_eq!(meshes[0].reflectors, vec![RouterId(0)]);
        assert_eq!(meshes[0].clients, 2);
    }

    #[test]
    fn single_router_instance_is_vacuously_full() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
             router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n"
                .into(),
        )])
        .unwrap();
        let (inst, adj) = analyze(&net);
        let meshes = ibgp_meshes(&net, &inst, &adj);
        assert_eq!(meshes.len(), 1);
        // Fewer than two routers: no pair is left unconnected.
        assert_eq!(meshes[0].routers, 1);
        assert_eq!(meshes[0].sessions, 0);
    }
}
