//! "Unclassifiable" hybrid designs (paper Section 7.1: twenty of the 31
//! networks "exhibited designs that were so markedly different both from
//! textbook examples and from each other as to defy classification").
//!
//! The generator composes the ingredients the paper reports seeing:
//! multiple IGP compartments (mixed OSPF/EIGRP/RIP, often relics of
//! mergers), compartments glued by mutual redistribution or by internal
//! EBGP between private ASes, IGPs used as edge protocols toward
//! customers, and partial BGP→IGP redistribution.

use ioscfg::{
    BgpProcess, EigrpProcess, InterfaceType, OspfProcess, Redistribution, RedistSource,
    RipProcess,
};
use rd_rng::StdRng;

use crate::alloc::AddressPlan;
use crate::designs::{compartment_slab, eigrp_cover, hub_spoke, ospf_cover, DesignOutput};

/// Parameters for one hybrid network.
#[derive(Clone, Copy, Debug)]
pub struct HybridSpec {
    /// Total routers (≥ 4).
    pub routers: usize,
    /// Number of IGP compartments (1..=8; clamped to fit `routers`).
    pub compartments: usize,
    /// Fraction of compartment pairs glued by internal EBGP (vs mutual
    /// IGP redistribution), 0..=1 in 1/8ths.
    pub ebgp_glue_eighths: u8,
    /// Mean IGP-as-edge customer links per compartment.
    pub igp_edge_customers: usize,
    /// Whether the network also has a real external BGP upstream.
    pub has_upstream: bool,
}

/// IGP flavour of one compartment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavour {
    Ospf(u32),
    Eigrp(u32),
    Rip,
}

/// Generates a hybrid network.
pub fn generate(spec: HybridSpec, rng: &mut StdRng) -> DesignOutput {
    assert!(spec.routers >= 4);
    let mut out = DesignOutput::default();
    let compartments = spec.compartments.clamp(1, 8).min(spec.routers / 2).max(1);

    // Partition routers over compartments: first gets the lion's share.
    let mut sizes = vec![0usize; compartments];
    let mut left = spec.routers;
    for (i, s) in sizes.iter_mut().enumerate() {
        let remaining_groups = compartments - i;
        let take = if remaining_groups == 1 {
            left
        } else {
            let share = (left * 3 / 5).max(2).min(left - 2 * (remaining_groups - 1));
            share
        };
        *s = take;
        left -= take;
    }

    // Build each compartment with its own plan and flavour.
    let mut comp_hubs: Vec<usize> = Vec::new();
    let mut flavours: Vec<Flavour> = Vec::new();
    let mut plans: Vec<AddressPlan> = Vec::new();
    for (c, &size) in sizes.iter().enumerate() {
        let mut plan = AddressPlan::for_compartment(10, c as u16);
        let hubs = if size > 30 { 2 } else { 1 };
        let spokes = size - hubs;
        let (hub_ids, spoke_ids) =
            hub_spoke(&mut out, &mut plan, rng, &format!("c{c}"), hubs, spokes);
        let slab = compartment_slab(&plan);
        // Deterministic flavour cycle: even compartments run EIGRP, odd
        // ones alternate OSPF and RIP, so adjacent compartments always
        // differ (merged-company relics, Section 8.2).
        let flavour = if c % 2 == 0 {
            Flavour::Eigrp(10 + c as u32)
        } else if c % 4 == 1 {
            Flavour::Ospf(1 + c as u32)
        } else {
            Flavour::Rip
        };
        for &id in hub_ids.iter().chain(&spoke_ids) {
            attach_igp(&mut out, id, flavour, slab);
        }
        // IGP-as-edge: customer-facing stubs covered by the IGP.
        let customers = if spec.igp_edge_customers == 0 {
            0
        } else {
            rng.gen_range(1..=spec.igp_edge_customers * 2)
        };
        for _ in 0..customers {
            let subnet = plan.external.alloc(30);
            let (iface, _) =
                out.builder.external_stub(hub_ids[0], subnet, InterfaceType::Serial);
            out.external_ifaces.push((hub_ids[0], iface));
            cover_extra(&mut out, hub_ids[0], flavour, subnet);
        }
        comp_hubs.push(hub_ids[0]);
        flavours.push(flavour);
        plans.push(plan);
    }

    // Glue compartments into a chain (hub_i — hub_{i+1}).
    for c in 0..compartments.saturating_sub(1) {
        let (a, b) = (comp_hubs[c], comp_hubs[c + 1]);
        let subnet = plans[c].p2p.alloc(30);
        let (ia, ib) = out.builder.p2p_link(a, b, subnet, InterfaceType::Serial);
        out.internal_ifaces.push((a, ia));
        out.internal_ifaces.push((b, ib));
        let use_ebgp = rng.gen_range(0..8) < spec.ebgp_glue_eighths;
        if use_ebgp {
            // Internal EBGP between two private ASes, with redistribution
            // into each side's IGP (the net5 mechanism in miniature).
            let (addr_a, addr_b) = subnet.p2p_hosts().expect("glue /30");
            ensure_bgp(&mut out, a, 65010 + c as u32 * 2);
            ensure_bgp(&mut out, b, 65011 + c as u32 * 2);
            // A hub may already run BGP from an earlier glue segment; the
            // session and redistribution must reference its actual ASN.
            let asn_a = out.builder.router(a).bgp.as_ref().expect("ensured").asn;
            let asn_b = out.builder.router(b).bgp.as_ref().expect("ensured").asn;
            {
                let bgp = out.builder.router(a).bgp.as_mut().expect("just ensured");
                bgp.neighbor_mut(addr_b).remote_as = Some(asn_b);
                bgp.redistribute.push(redist_of(flavours[c]));
            }
            {
                let bgp = out.builder.router(b).bgp.as_mut().expect("just ensured");
                bgp.neighbor_mut(addr_a).remote_as = Some(asn_a);
                bgp.redistribute.push(redist_of(flavours[c + 1]));
            }
            push_igp_redist(
                &mut out,
                a,
                flavours[c],
                Redistribution {
                    tag: Some(900 + c as u32),
                    ..Redistribution::plain(RedistSource::Bgp(asn_a))
                },
            );
            push_igp_redist(
                &mut out,
                b,
                flavours[c + 1],
                Redistribution {
                    tag: Some(901 + c as u32),
                    ..Redistribution::plain(RedistSource::Bgp(asn_b))
                },
            );
        } else {
            // Mutual IGP redistribution: hub `a` joins compartment c+1's
            // IGP over the glue link (both ends must cover the link for
            // the adjacency to form) and leaks routes between its two
            // processes.
            attach_igp(&mut out, a, flavours[c + 1], compartment_slab(&plans[c + 1]));
            cover_extra(&mut out, a, flavours[c + 1], subnet);
            cover_extra(&mut out, b, flavours[c + 1], subnet);
            push_igp_redist(&mut out, a, flavours[c], redist_of(flavours[c + 1]));
            push_igp_redist(&mut out, a, flavours[c + 1], redist_of(flavours[c]));
        }
    }

    // Optional real upstream on compartment 0's hub.
    if spec.has_upstream {
        let hub = comp_hubs[0];
        let subnet = plans[0].external.alloc(30);
        let (iface, peer) = out.builder.external_stub(hub, subnet, InterfaceType::Serial);
        out.external_ifaces.push((hub, iface));
        let asn = 64900;
        ensure_bgp(&mut out, hub, asn);
        let bgp = out.builder.router(hub).bgp.as_mut().expect("just ensured");
        bgp.neighbor_mut(peer).remote_as = Some(7018);
        bgp.redistribute.push(redist_of(flavours[0]));
        push_igp_redist(
            &mut out,
            hub,
            flavours[0],
            Redistribution::plain(RedistSource::Bgp(asn)),
        );
    }

    out
}

fn attach_igp(out: &mut DesignOutput, id: usize, flavour: Flavour, slab: netaddr::Prefix) {
    let cfg = out.builder.router(id);
    match flavour {
        Flavour::Ospf(pid) => {
            if cfg.ospf.iter().any(|p| p.id == pid) {
                return;
            }
            let mut p = OspfProcess::new(pid);
            p.networks.push(ospf_cover(slab));
            cfg.ospf.push(p);
        }
        Flavour::Eigrp(asn) => {
            if cfg.eigrp.iter().any(|p| p.asn == asn) {
                return;
            }
            let mut p = EigrpProcess::new(asn);
            p.networks.push(eigrp_cover(slab));
            p.no_auto_summary = true;
            cfg.eigrp.push(p);
        }
        Flavour::Rip => {
            let p = cfg.rip.get_or_insert_with(|| {
                let mut p = RipProcess::new();
                p.version = Some(2);
                p
            });
            let net = netaddr::Addr::new(10, 0, 0, 0);
            if !p.networks.contains(&net) {
                p.networks.push(net);
            }
        }
    }
}

/// Extends a flavour's coverage to one extra subnet (customer stubs).
fn cover_extra(out: &mut DesignOutput, id: usize, flavour: Flavour, subnet: netaddr::Prefix) {
    let cfg = out.builder.router(id);
    match flavour {
        Flavour::Ospf(pid) => {
            if let Some(p) = cfg.ospf.iter_mut().find(|p| p.id == pid) {
                p.networks.push(ioscfg::OspfNetwork {
                    addr: subnet.first(),
                    wildcard: subnet.mask().to_wildcard(),
                    area: ioscfg::OspfArea(0),
                });
            }
        }
        Flavour::Eigrp(asn) => {
            if let Some(p) = cfg.eigrp.iter_mut().find(|p| p.asn == asn) {
                p.networks.push(eigrp_cover(subnet));
            }
        }
        Flavour::Rip => {} // classful 10.0.0.0 already covers the stubs
    }
}

fn redist_of(flavour: Flavour) -> Redistribution {
    let source = match flavour {
        Flavour::Ospf(pid) => RedistSource::Ospf(pid),
        Flavour::Eigrp(asn) => RedistSource::Eigrp(asn),
        Flavour::Rip => RedistSource::Rip,
    };
    Redistribution { subnets: true, ..Redistribution::plain(source) }
}

/// Adds a redistribution statement *into* the given flavour's process.
fn push_igp_redist(out: &mut DesignOutput, id: usize, flavour: Flavour, redist: Redistribution) {
    let cfg = out.builder.router(id);
    let policy = match flavour {
        Flavour::Ospf(pid) => cfg.ospf.iter_mut().find(|p| p.id == pid).map(|p| &mut p.policy),
        Flavour::Eigrp(asn) => cfg.eigrp.iter_mut().find(|p| p.asn == asn).map(|p| &mut p.policy),
        Flavour::Rip => cfg.rip.as_mut().map(|p| &mut p.policy),
    };
    if let Some(policy) = policy {
        policy.redistribute.push(redist);
    }
}

fn ensure_bgp(out: &mut DesignOutput, id: usize, asn: u32) {
    let cfg = out.builder.router(id);
    if cfg.bgp.is_none() {
        let mut bgp = BgpProcess::new(asn);
        bgp.no_synchronization = true;
        cfg.bgp = Some(bgp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(seed: u64, spec: HybridSpec) -> nettopo::Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = generate(spec, &mut rng);
        nettopo::Network::from_texts(out.builder.to_texts()).unwrap()
    }

    fn summary(net: &nettopo::Network) -> routing_model::DesignSummary {
        let links = nettopo::LinkMap::build(net);
        let external = nettopo::ExternalAnalysis::build(net, &links);
        let procs = routing_model::Processes::extract(net);
        let adj = routing_model::Adjacencies::build(net, &links, &procs, &external);
        let inst = routing_model::Instances::compute(&procs, &adj);
        let graph = routing_model::InstanceGraph::build(net, &procs, &adj, &inst);
        let t1 = routing_model::Table1::compute(&inst, &graph, &adj);
        routing_model::classify_network(net, &inst, &graph, &adj, &t1)
    }

    #[test]
    fn produces_requested_router_count() {
        for (seed, n) in [(1u64, 12usize), (2, 36), (3, 80)] {
            let net = build(
                seed,
                HybridSpec {
                    routers: n,
                    compartments: 3,
                    ebgp_glue_eighths: 4,
                    igp_edge_customers: 1,
                    has_upstream: true,
                },
            );
            assert_eq!(net.len(), n);
        }
    }

    #[test]
    fn multi_compartment_hybrids_defy_classification() {
        let net = build(
            7,
            HybridSpec {
                routers: 40,
                compartments: 4,
                ebgp_glue_eighths: 8,
                igp_edge_customers: 2,
                has_upstream: true,
            },
        );
        let s = summary(&net);
        assert_eq!(s.class, routing_model::DesignClass::Unclassifiable, "{s:?}");
        assert!(s.internal_ases >= 2, "{s:?}");
        assert!(s.internal_ebgp_sessions >= 1, "{s:?}");
    }

    #[test]
    fn igp_edge_customers_produce_inter_domain_igps() {
        let net = build(
            9,
            HybridSpec {
                routers: 30,
                compartments: 2,
                ebgp_glue_eighths: 0,
                igp_edge_customers: 4,
                has_upstream: false,
            },
        );
        let links = nettopo::LinkMap::build(&net);
        let external = nettopo::ExternalAnalysis::build(&net, &links);
        let procs = routing_model::Processes::extract(&net);
        let adj = routing_model::Adjacencies::build(&net, &links, &procs, &external);
        assert!(!adj.igp_external.is_empty());
    }

    #[test]
    fn topology_stays_connected() {
        let net = build(
            5,
            HybridSpec {
                routers: 50,
                compartments: 5,
                ebgp_glue_eighths: 4,
                igp_edge_customers: 1,
                has_upstream: true,
            },
        );
        let links = nettopo::LinkMap::build(&net);
        let graph = nettopo::RouterGraph::build(&net, &links);
        assert_eq!(graph.components().len(), 1);
    }
}
