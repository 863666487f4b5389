//! Textbook enterprise networks (paper Sections 3.1/3.2, Figure 6 left).
//!
//! A small number of border BGP speakers peer with the provider, craft a
//! few summary routes, and inject them into the IGP; every other router
//! learns everything from the IGP. The largest of the paper's seven
//! textbook enterprises split its 101 routers across *two* IGP instances,
//! which `split_igp` reproduces.

use ioscfg::{
    AccessList, AclAction, AclAddr, AclEntry, BgpProcess, InterfaceType, OspfProcess,
    Redistribution, RedistSource, RouteMap, RouteMapClause, RmMatch, RmSet,
};
use rd_rng::StdRng;

use crate::alloc::AddressPlan;
use crate::designs::{hub_spoke, ospf_internal_covers, DesignOutput};

/// Parameters for one enterprise network.
#[derive(Clone, Copy, Debug)]
pub struct EnterpriseSpec {
    /// Total routers (≥ 3).
    pub routers: usize,
    /// Split the routers across two IGP instances (the 101-router case).
    pub split_igp: bool,
    /// Number of upstream provider ASes (1 or 2).
    pub upstreams: usize,
    /// Hierarchical OSPF areas (spoke LANs in per-region areas).
    pub multi_area: bool,
}

/// The ACL/route-map names used by the border policy.
const SUMMARY_ACL: u32 = 50;
const EXPORT_ACL: u32 = 51;

/// Generates a textbook enterprise network.
pub fn generate(spec: EnterpriseSpec, rng: &mut StdRng) -> DesignOutput {
    assert!(spec.routers >= 3, "enterprise needs at least 3 routers");
    let mut out = DesignOutput::default();

    let halves: Vec<usize> = if spec.split_igp {
        vec![spec.routers / 2, spec.routers - spec.routers / 2]
    } else {
        vec![spec.routers]
    };

    let mut border_id = None;
    for (half_idx, &count) in halves.iter().enumerate() {
        let mut plan = AddressPlan::for_compartment(10, half_idx as u16);
        let hubs = if count > 40 { 2 } else { 1 };
        let spokes = count - hubs - usize::from(half_idx == 0); // border extra
        let (hub_ids, spoke_ids) =
            hub_spoke(&mut out, &mut plan, rng, &format!("site{half_idx}"), hubs, spokes);

        // The border router lives in half 0 and links to that half's hub;
        // in split mode it also links into half 1's hub so both instances
        // learn external routes from the same border.
        let border = if half_idx == 0 {
            let b = out.builder.add_router("border");
            let subnet = plan.p2p.alloc(30);
            let (ib, ih) =
                out.builder.p2p_link(b, hub_ids[0], subnet, InterfaceType::Serial);
            out.internal_ifaces.push((b, ib));
            out.internal_ifaces.push((hub_ids[0], ih));
            border_id = Some(b);
            b
        } else {
            let b = border_id.expect("half 0 builds the border first");
            let subnet = plan.p2p.alloc(30);
            let (ib, ih) =
                out.builder.p2p_link(b, hub_ids[0], subnet, InterfaceType::Serial);
            out.internal_ifaces.push((b, ib));
            out.internal_ifaces.push((hub_ids[0], ih));
            b
        };

        // One OSPF process per half; process ids differ per half (and the
        // paper stresses ids are router-local anyway). Coverage excludes
        // the external pool: the provider link is BGP-only.
        let pid = 100 + half_idx as u32;
        let multi_area = spec.multi_area || count > 40;
        for &id in hub_ids.iter().chain(&spoke_ids).chain([&border]) {
            let mut p = OspfProcess::new(pid);
            // Larger enterprises use a hierarchical area design: spoke
            // LANs sit in per-region areas, the hub-spoke links in the
            // backbone area — making every spoke an ABR. The LAN
            // statement must precede the backbone cover (first match
            // wins in IOS).
            if multi_area && spoke_ids.contains(&id) {
                let lan = out.builder.routers[id]
                    .interfaces
                    .iter()
                    .filter(|i| {
                        matches!(
                            i.name.ty,
                            ioscfg::InterfaceType::FastEthernet
                                | ioscfg::InterfaceType::Ethernet
                        )
                    })
                    .find_map(|i| i.address.map(|a| a.subnet()));
                if let Some(lan) = lan {
                    p.networks.push(ioscfg::OspfNetwork {
                        addr: lan.first(),
                        wildcard: lan.mask().to_wildcard(),
                        area: ioscfg::OspfArea(1 + (id as u32 % 3)),
                    });
                }
            }
            p.networks.extend(ospf_internal_covers(&plan));
            // Interior routers redistribute their connected LANs.
            p.policy.redistribute.push(Redistribution {
                source: RedistSource::Connected,
                metric: None,
                metric_type: Some(1),
                subnets: true,
                route_map: None,
                tag: None,
            });
            if id == border {
                // Inject BGP-learned summaries into the IGP.
                p.policy.redistribute.push(Redistribution {
                    source: RedistSource::Bgp(65001),
                    metric: Some(100),
                    metric_type: Some(1),
                    subnets: true,
                    route_map: Some("bgp-to-igp".to_string()),
                    tag: None,
                });
            }
            out.builder.router(id).ospf.push(p);
        }
    }

    // Border BGP: EBGP to the upstream provider(s), summary policy.
    let border = border_id.expect("at least one half");
    let mut plan0 = AddressPlan::for_compartment(10, 0);
    let mut bgp = BgpProcess::new(65001);
    bgp.no_synchronization = true;
    for u in 0..spec.upstreams.max(1) {
        let subnet = plan0.external.alloc(30);
        let (iface, peer_addr) =
            out.builder.external_stub(border, subnet, InterfaceType::Serial);
        out.external_ifaces.push((border, iface));
        let provider_as = [7018, 1239][u % 2];
        let n = bgp.neighbor_mut(peer_addr);
        n.remote_as = Some(provider_as);
        n.route_map_in = Some("from-provider".to_string());
        n.route_map_out = Some("to-provider".to_string());
    }
    bgp.redistribute.push(Redistribution {
        source: RedistSource::Ospf(100),
        metric: None,
        metric_type: None,
        subnets: false,
        route_map: Some("igp-to-bgp".to_string()),
        tag: None,
    });
    let cfg = out.builder.router(border);
    cfg.bgp = Some(bgp);

    // Policy scaffolding: the summaries the border injects (a handful of
    // key routes, Section 3.1) and the blocks it exports.
    cfg.access_lists.insert(
        SUMMARY_ACL,
        AccessList {
            id: SUMMARY_ACL,
            entries: vec![
                std_entry("198.18.0.0", "0.0.255.255"),
                std_entry("198.19.0.0", "0.0.255.255"),
                std_entry("203.0.113.0", "0.0.0.255"),
            ],
        },
    );
    cfg.access_lists.insert(
        EXPORT_ACL,
        AccessList {
            id: EXPORT_ACL,
            entries: vec![std_entry("10.0.0.0", "0.15.255.255")],
        },
    );
    for (name, acl) in
        [("bgp-to-igp", SUMMARY_ACL), ("from-provider", SUMMARY_ACL), ("to-provider", EXPORT_ACL), ("igp-to-bgp", EXPORT_ACL)]
    {
        cfg.route_maps.insert(
            name.to_string(),
            RouteMap {
                name: name.to_string(),
                clauses: vec![RouteMapClause {
                    seq: 10,
                    action: AclAction::Permit,
                    matches: vec![RmMatch::IpAddress(vec![acl])],
                    sets: if name == "bgp-to-igp" {
                        vec![RmSet::Tag(500)]
                    } else {
                        Vec::new()
                    },
                }],
            },
        );
    }

    out
}

fn std_entry(addr: &str, wild: &str) -> AclEntry {
    AclEntry::Standard {
        action: AclAction::Permit,
        addr: AclAddr::Wild(
            addr.parse().expect("literal acl address"),
            wild.parse().expect("literal acl wildcard"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(spec: EnterpriseSpec) -> nettopo::Network {
        let mut rng = StdRng::seed_from_u64(7);
        let out = generate(spec, &mut rng);
        nettopo::Network::from_texts(out.builder.to_texts()).unwrap()
    }

    fn analyze(
        net: &nettopo::Network,
    ) -> (routing_model::Instances, routing_model::DesignSummary) {
        let links = nettopo::LinkMap::build(net);
        let external = nettopo::ExternalAnalysis::build(net, &links);
        let procs = routing_model::Processes::extract(net);
        let adj = routing_model::Adjacencies::build(net, &links, &procs, &external);
        let inst = routing_model::Instances::compute(&procs, &adj);
        let graph = routing_model::InstanceGraph::build(net, &procs, &adj, &inst);
        let t1 = routing_model::Table1::compute(&inst, &graph, &adj);
        let summary = routing_model::classify_network(net, &inst, &graph, &adj, &t1);
        (inst, summary)
    }

    #[test]
    fn classifies_as_enterprise() {
        let net = build(EnterpriseSpec { routers: 25, split_igp: false, upstreams: 1, multi_area: false });
        assert_eq!(net.len(), 25);
        let (inst, summary) = analyze(&net);
        assert_eq!(summary.class, routing_model::DesignClass::Enterprise, "{summary:?}");
        // One OSPF instance spanning all routers + one single-router BGP.
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.list[0].router_count(), 25);
    }

    #[test]
    fn split_igp_yields_two_instances() {
        let net = build(EnterpriseSpec { routers: 101, split_igp: true, upstreams: 1, multi_area: true });
        assert_eq!(net.len(), 101);
        let (inst, summary) = analyze(&net);
        let ospf_instances: Vec<_> = inst
            .list
            .iter()
            .filter(|i| i.kind == routing_model::ProtoKind::Ospf)
            .collect();
        assert_eq!(ospf_instances.len(), 2, "{summary:?}");
        // Split roughly in half, as the paper describes for the
        // 101-router enterprise.
        let sizes: Vec<usize> = ospf_instances.iter().map(|i| i.router_count()).collect();
        assert!(sizes.iter().all(|&s| s >= 45), "sizes {sizes:?}");
        assert_eq!(summary.class, routing_model::DesignClass::Enterprise, "{summary:?}");
    }

    #[test]
    fn two_upstreams_supported() {
        let net = build(EnterpriseSpec { routers: 12, split_igp: false, upstreams: 2, multi_area: false });
        let links = nettopo::LinkMap::build(&net);
        let external = nettopo::ExternalAnalysis::build(&net, &links);
        assert_eq!(external.border_routers().len(), 1);
        let (_, _, unaddressed) = external.counts();
        let _ = unaddressed;
        let procs = routing_model::Processes::extract(&net);
        let adj = routing_model::Adjacencies::build(&net, &links, &procs, &external);
        assert_eq!(
            adj.bgp
                .iter()
                .filter(|s| s.scope == routing_model::SessionScope::EbgpExternal)
                .count(),
            2
        );
    }
}
