//! Textbook backbone networks (paper Section 3.1, Figure 6 right).
//!
//! The hallmark: external routes are learned via EBGP at the borders and
//! distributed to every router via IBGP (here through a route-reflector
//! hierarchy — a full mesh over 500+ routers would be operationally
//! absurd, as the paper notes for net5). The IGP carries only
//! infrastructure routes, and external routes are *never* redistributed
//! into it. POP structure with POS long-haul links; one of the paper's
//! four backbones is HSSI/ATM-based instead, which `use_pos = false`
//! reproduces.

use ioscfg::{BgpProcess, InterfaceType, OspfProcess, Redistribution, RedistSource};
use rd_rng::StdRng;

use crate::alloc::AddressPlan;
use crate::designs::{ospf_internal_covers, DesignOutput};

/// Parameters for one backbone network.
#[derive(Clone, Copy, Debug)]
pub struct BackboneSpec {
    /// Total routers (≥ 8).
    pub routers: usize,
    /// Use POS for inter-POP links (3 of 4 paper backbones); otherwise
    /// HSSI/ATM.
    pub use_pos: bool,
    /// The backbone's public AS number.
    pub asn: u32,
    /// Mean external EBGP peers per edge router.
    pub peers_per_edge: usize,
}

/// Generates a textbook backbone.
pub fn generate(spec: BackboneSpec, rng: &mut StdRng) -> DesignOutput {
    assert!(spec.routers >= 8, "backbone needs at least 8 routers");
    let mut out = DesignOutput::default();
    let mut plan = AddressPlan::for_compartment(10, 0);

    let pops = (spec.routers / 20).clamp(2, 16);
    let long_haul =
        if spec.use_pos { InterfaceType::Pos } else { InterfaceType::Hssi };
    let intra_pop = if spec.use_pos { InterfaceType::GigabitEthernet } else { InterfaceType::Atm };

    // Each POP: 2 cores + edges.
    let per_pop = spec.routers / pops;
    let mut cores: Vec<usize> = Vec::new();
    let mut edges: Vec<usize> = Vec::new();
    let mut pop_members: Vec<Vec<usize>> = Vec::new();
    let mut built = 0usize;
    for p in 0..pops {
        let count = if p == pops - 1 { spec.routers - built } else { per_pop };
        built += count;
        let c1 = out.builder.add_router(format!("pop{p}-core0"));
        let c2 = out.builder.add_router(format!("pop{p}-core1"));
        let subnet = plan.p2p.alloc(30);
        let (i1, i2) = out.builder.p2p_link(c1, c2, subnet, intra_pop.clone());
        out.internal_ifaces.push((c1, i1));
        out.internal_ifaces.push((c2, i2));
        let mut members = vec![c1, c2];
        for e in 0..count.saturating_sub(2) {
            let edge = out.builder.add_router(format!("pop{p}-edge{e}"));
            // Edge uplinks alternate between serial and the POP fabric
            // technology (ATM or GigE), as mixed-vintage POPs do.
            let uplink = if e % 2 == 0 {
                InterfaceType::Serial
            } else {
                intra_pop.clone()
            };
            for &core in &[c1, c2] {
                let subnet = plan.p2p.alloc(30);
                let (ic, ie) =
                    out.builder.p2p_link(core, edge, subnet, uplink.clone());
                out.internal_ifaces.push((core, ic));
                out.internal_ifaces.push((edge, ie));
            }
            // Every edge router fronts a management/service LAN.
            let lan = plan.lan.alloc(24);
            out.builder.lan(edge, lan, InterfaceType::FastEthernet);
            members.push(edge);
            edges.push(edge);
        }
        cores.push(c1);
        cores.push(c2);
        pop_members.push(members);
    }

    // Long-haul: ring over core0s plus chords.
    for p in 0..pops {
        let a = pop_members[p][0];
        let b = pop_members[(p + 1) % pops][0];
        if pops == 2 && p == 1 {
            break;
        }
        let subnet = plan.p2p.alloc(30);
        let (ia, ib) = out.builder.p2p_link(a, b, subnet, long_haul.clone());
        out.internal_ifaces.push((a, ia));
        out.internal_ifaces.push((b, ib));
    }
    for p in (0..pops).step_by(3) {
        let q = (p + pops / 2) % pops;
        if q == p || (p + 1) % pops == q || (q + 1) % pops == p {
            continue;
        }
        let subnet = plan.p2p.alloc(30);
        let (ia, ib) =
            out.builder
                .p2p_link(pop_members[p][1], pop_members[q][1], subnet, long_haul.clone());
        out.internal_ifaces.push((pop_members[p][1], ia));
        out.internal_ifaces.push((pop_members[q][1], ib));
    }

    // OSPF everywhere, infrastructure only: the customer-facing external
    // pool is deliberately NOT covered (the backbone hallmark — external
    // routes never touch the IGP).
    for idx in 0..out.builder.len() {
        let mut p = OspfProcess::new(1);
        p.networks = ospf_internal_covers(&plan);
        p.policy.redistribute.push(Redistribution::plain(RedistSource::Connected));
        out.builder.router(idx).ospf.push(p);
    }

    // IBGP route-reflector hierarchy: cores form a full mesh; each edge is
    // a client of its two local cores. Sessions peer on each router's
    // first interface address.
    let addresses: Vec<netaddr::Addr> = out
        .builder
        .routers
        .iter()
        .map(|r| {
            r.interfaces[0]
                .address
                .expect("every backbone router has an addressed first interface")
                .addr
        })
        .collect();

    for idx in 0..out.builder.len() {
        let mut bgp = BgpProcess::new(spec.asn);
        bgp.no_synchronization = true;
        out.builder.router(idx).bgp = Some(bgp);
    }
    // Core mesh.
    for (i, &a) in cores.iter().enumerate() {
        for &b in &cores[i + 1..] {
            peer(&mut out, a, addresses[b], spec.asn, false);
            peer(&mut out, b, addresses[a], spec.asn, false);
        }
    }
    // Edge clients.
    for members in &pop_members {
        let (c1, c2) = (members[0], members[1]);
        for &edge in &members[2..] {
            for &core in &[c1, c2] {
                peer(&mut out, edge, addresses[core], spec.asn, false);
                peer(&mut out, core, addresses[edge], spec.asn, true);
            }
        }
    }

    // External customers/peers on edge routers (and a couple on cores).
    let mut next_customer_as = 2000u32;
    for &edge in &edges {
        let peers = if spec.peers_per_edge == 0 {
            0
        } else {
            rng.gen_range(1..=spec.peers_per_edge * 2)
        };
        for _ in 0..peers {
            let subnet = plan.external.alloc(30);
            let (iface, peer_addr) =
                out.builder.external_stub(edge, subnet, InterfaceType::Serial);
            out.external_ifaces.push((edge, iface));
            let n = out.builder.router(edge).bgp.as_mut().expect("bgp set above");
            let nb = n.neighbor_mut(peer_addr);
            nb.remote_as = Some(next_customer_as);
            nb.route_map_in = Some("from-customer".to_string());
            next_customer_as += 1;
        }
    }
    // Transit peerings on two cores.
    for (i, &core) in cores.iter().take(2).enumerate() {
        let subnet = plan.external.alloc(30);
        let (iface, peer_addr) =
            out.builder.external_stub(core, subnet, long_haul.clone());
        out.external_ifaces.push((core, iface));
        let n = out.builder.router(core).bgp.as_mut().expect("bgp set above");
        n.neighbor_mut(peer_addr).remote_as = Some([701, 3356][i]);
    }

    // The from-customer policy (accept anything for generation purposes;
    // real filters are applied by the dressing layer).
    for &edge in &edges {
        let cfg = out.builder.router(edge);
        if cfg.bgp.as_ref().is_some_and(|b| {
            b.neighbors.iter().any(|n| n.route_map_in.is_some())
        }) {
            cfg.route_maps.insert(
                "from-customer".to_string(),
                ioscfg::RouteMap {
                    name: "from-customer".to_string(),
                    clauses: vec![ioscfg::RouteMapClause {
                        seq: 10,
                        action: ioscfg::AclAction::Permit,
                        matches: Vec::new(),
                        sets: vec![ioscfg::RmSet::LocalPreference(90)],
                    }],
                },
            );
        }
    }

    out
}

/// Adds an IBGP neighbor statement on `router` toward `addr`.
fn peer(out: &mut DesignOutput, router: usize, addr: netaddr::Addr, asn: u32, rr_client: bool) {
    let bgp = out.builder.router(router).bgp.as_mut().expect("bgp configured");
    let n = bgp.neighbor_mut(addr);
    n.remote_as = Some(asn);
    n.route_reflector_client = rr_client;
    n.send_community = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(routers: usize, use_pos: bool) -> nettopo::Network {
        let mut rng = StdRng::seed_from_u64(11);
        let out = generate(
            BackboneSpec { routers, use_pos, asn: 65100, peers_per_edge: 2 },
            &mut rng,
        );
        nettopo::Network::from_texts(out.builder.to_texts()).unwrap()
    }

    #[test]
    fn classifies_as_backbone() {
        let net = build(60, true);
        assert_eq!(net.len(), 60);
        let links = nettopo::LinkMap::build(&net);
        let external = nettopo::ExternalAnalysis::build(&net, &links);
        let procs = routing_model::Processes::extract(&net);
        let adj = routing_model::Adjacencies::build(&net, &links, &procs, &external);
        let inst = routing_model::Instances::compute(&procs, &adj);
        let graph = routing_model::InstanceGraph::build(&net, &procs, &adj, &inst);
        let t1 = routing_model::Table1::compute(&inst, &graph, &adj);
        let summary = routing_model::classify_network(&net, &inst, &graph, &adj, &t1);
        assert_eq!(summary.class, routing_model::DesignClass::Backbone, "{summary:?}");
        assert!(!summary.bgp_into_igp);
        assert!(summary.ibgp_sessions > 50, "{summary:?}");
        assert!(summary.external_ebgp_sessions > 10, "{summary:?}");
        // One BGP instance spanning everything + one OSPF instance.
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn pos_signature_matches_section_7_3() {
        let net_pos = build(40, true);
        let census = nettopo::stats::InterfaceCensus::of(&net_pos);
        assert!(census.uses_pos());
        let net_hssi = build(40, false);
        let census2 = nettopo::stats::InterfaceCensus::of(&net_hssi);
        assert!(!census2.uses_pos());
        assert!(census2.count("Hssi") > 0);
    }

    #[test]
    fn topology_is_connected() {
        let net = build(80, true);
        let links = nettopo::LinkMap::build(&net);
        let graph = nettopo::RouterGraph::build(&net, &links);
        assert_eq!(graph.components().len(), 1);
    }
}
