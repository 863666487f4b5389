//! The paper's net15 case study (Section 6.2, Figure 12, Table 2).
//!
//! A 79-router network of two sites, six routing instances, and EBGP
//! peerings with two public ASes. Ingress/egress policies A1–A5 over
//! address blocks AB0–AB4 restrict reachability: no default route is
//! permitted in; the only external routes admitted are the two /16s and
//! three /24s listed by A1/A3/A5; and the sites are mutually isolated
//! because A2 ∩ A5 = A2 ∩ A3 = A4 ∩ A1 = ∅.
//!
//! Block map (Table 2):
//! - AB0 = the three /24s `198.18.{0,1,2}.0/24` (permitted by A1, A3, A5)
//! - AB1 = `172.20.0.0/16` (permitted by A1)
//! - AB2 = `10.2.0.0/16` — left-site hosts (exported by A2)
//! - AB3 = `172.21.0.0/16` (permitted by A3)
//! - AB4 = `10.4.0.0/16` — right-site hosts (exported by A4)

use ioscfg::{
    AccessList, AclAction, AclAddr, AclEntry, BgpProcess, InterfaceType, OspfProcess,
    Redistribution, RedistSource, RouteMap, RouteMapClause, RmMatch,
};
use netaddr::Prefix;
use rd_rng::StdRng;

use crate::alloc::AddressPlan;
use crate::builder::NetworkBuilder;
use crate::designs::{hub_spoke, DesignOutput};

/// The public AS peered by the left site (Figure 12).
pub const PUBLIC_AS_LEFT: u32 = 25286;
/// The public AS peered by the right site (Figure 12).
pub const PUBLIC_AS_RIGHT: u32 = 12762;

/// Address blocks AB0–AB4 (Table 2).
pub fn address_blocks() -> [(&'static str, Vec<Prefix>); 5] {
    let p = |s: &str| s.parse::<Prefix>().expect("literal prefix");
    [
        ("AB0", vec![p("198.18.0.0/24"), p("198.18.1.0/24"), p("198.18.2.0/24")]),
        ("AB1", vec![p("172.20.0.0/16")]),
        ("AB2", vec![p("10.2.0.0/16")]),
        ("AB3", vec![p("172.21.0.0/16")]),
        ("AB4", vec![p("10.4.0.0/16")]),
    ]
}

/// Policy contents (Table 2): which blocks each policy permits.
pub fn policy_blocks() -> [(&'static str, Vec<&'static str>); 5] {
    [
        ("A1", vec!["AB0", "AB1"]),
        ("A2", vec!["AB2"]),
        ("A3", vec!["AB0", "AB3"]),
        ("A4", vec!["AB4"]),
        ("A5", vec!["AB0"]),
    ]
}

/// Scale parameter; 1.0 = the paper's 79 routers.
#[derive(Clone, Copy, Debug)]
pub struct Net15Spec {
    /// Site size multiplier.
    pub scale: f64,
}

/// ACL numbers for policies A1..A5.
fn acl_id(policy: &str) -> u32 {
    match policy {
        "A1" => 11,
        "A2" => 12,
        "A3" => 13,
        "A4" => 14,
        "A5" => 15,
        other => panic!("unknown policy {other}"),
    }
}

fn policy_acl(policy: &str) -> AccessList {
    let blocks = address_blocks();
    let contents = policy_blocks()
        .into_iter()
        .find(|(name, _)| *name == policy)
        .expect("known policy")
        .1;
    let entries = contents
        .iter()
        .flat_map(|ab| {
            blocks
                .iter()
                .find(|(name, _)| name == ab)
                .expect("known block")
                .1
                .iter()
                .map(|p| AclEntry::Standard {
                    action: AclAction::Permit,
                    addr: AclAddr::Wild(p.first(), p.mask().to_wildcard()),
                })
                .collect::<Vec<_>>()
        })
        .collect();
    AccessList { id: acl_id(policy), entries }
}

fn policy_map(cfg: &mut ioscfg::RouterConfig, name: &str, policy: &str) {
    cfg.access_lists.insert(acl_id(policy), policy_acl(policy));
    cfg.route_maps.insert(
        name.to_string(),
        RouteMap {
            name: name.to_string(),
            clauses: vec![RouteMapClause {
                seq: 10,
                action: AclAction::Permit,
                matches: vec![RmMatch::IpAddress(vec![acl_id(policy)])],
                sets: Vec::new(),
            }],
        },
    );
}

/// One site: an OSPF instance over `site_routers` routers (two of which
/// are borders running BGP), plus a 2-router secondary BGP instance.
struct Site {
    borders: Vec<usize>,
    secondary: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn build_site(
    out: &mut DesignOutput,
    rng: &mut StdRng,
    name: &str,
    compartment: u16,
    site_routers: usize,
    ospf_pid: u32,
    host_block: Prefix,
    border_asn: u32,
    secondary_asn: u32,
) -> Site {
    let mut plan = AddressPlan::for_compartment(10, compartment);
    let hubs = 2.min(site_routers - 1).max(1);
    let (hub_ids, spoke_ids) =
        hub_spoke(out, &mut plan, rng, name, hubs, site_routers - hubs);
    let all: Vec<usize> = hub_ids.iter().chain(&spoke_ids).copied().collect();

    // Host LANs inside the published host block (AB2 / AB4).
    let mut host_alloc = crate::alloc::BlockAlloc::new(host_block);
    for &id in &all {
        let lan = host_alloc.alloc(24);
        out.builder.lan(id, lan, InterfaceType::FastEthernet);
    }

    // OSPF over the site: cover the compartment slab and the host block.
    for &id in &all {
        let mut p = OspfProcess::new(ospf_pid);
        p.networks.push(crate::designs::ospf_cover(crate::designs::compartment_slab(&plan)));
        p.networks.push(ioscfg::OspfNetwork {
            addr: host_block.first(),
            wildcard: host_block.mask().to_wildcard(),
            area: ioscfg::OspfArea(0),
        });
        out.builder.router(id).ospf.push(p);
    }

    // Borders: the two hubs run BGP.
    let borders: Vec<usize> = hub_ids.clone();
    for &b in &borders {
        let mut bgp = BgpProcess::new(border_asn);
        bgp.no_synchronization = true;
        out.builder.router(b).bgp = Some(bgp);
    }
    // IBGP between the borders (over the hub-hub link address).
    if borders.len() == 2 {
        let addr0 = out.builder.routers[borders[0]].interfaces[0]
            .address
            .expect("hub link addressed")
            .addr;
        let addr1 = out.builder.routers[borders[1]].interfaces[0]
            .address
            .expect("hub link addressed")
            .addr;
        out.builder.router(borders[0]).bgp.as_mut().expect("set").neighbor_mut(addr1).remote_as = Some(border_asn);
        out.builder.router(borders[1]).bgp.as_mut().expect("set").neighbor_mut(addr0).remote_as = Some(border_asn);
    }

    // Secondary BGP pair hanging off hub 0 (instances 4 and 5 of Fig 12).
    let mut secondary = Vec::new();
    for i in 0..2 {
        let id = out.builder.add_router(format!("{name}-dmz{i}"));
        let subnet = plan.p2p.alloc(30);
        let (ih, is) =
            out.builder.p2p_link(hub_ids[0], id, subnet, InterfaceType::Serial);
        out.internal_ifaces.push((hub_ids[0], ih));
        out.internal_ifaces.push((id, is));
        let mut bgp = BgpProcess::new(secondary_asn);
        bgp.no_synchronization = true;
        out.builder.router(id).bgp = Some(bgp);
        secondary.push(id);
    }
    // IBGP between the secondary pair: a shared LAN.
    let dmz_lan = plan.lan.alloc(24);
    out.builder.multi_lan(&secondary, dmz_lan, InterfaceType::Ethernet);
    let a0 = netaddr::Addr::from_u32(dmz_lan.first().to_u32() + 1);
    let a1 = netaddr::Addr::from_u32(dmz_lan.first().to_u32() + 2);
    out.builder.router(secondary[0]).bgp.as_mut().expect("set").neighbor_mut(a1).remote_as = Some(secondary_asn);
    out.builder.router(secondary[1]).bgp.as_mut().expect("set").neighbor_mut(a0).remote_as = Some(secondary_asn);
    // The secondary pair members join the site OSPF themselves (covering
    // their uplink /30), so their BGP instance can redistribute with the
    // site IGP directly.
    for &id in &secondary {
        let mut p = OspfProcess::new(ospf_pid);
        p.networks.push(crate::designs::ospf_cover(crate::designs::compartment_slab(&plan)));
        out.builder.router(id).ospf.push(p);
    }

    // External peerings and policy bindings happen in `generate` (they
    // differ per site half).
    Site { borders, secondary }
}

/// Adds an EBGP peering with policy route maps to `router`.
fn add_peering(
    builder: &mut NetworkBuilder,
    external_ifaces: &mut Vec<(usize, ioscfg::InterfaceName)>,
    plan_comp: u16,
    slot: u32,
    router: usize,
    public_as: u32,
    policy_in: &str,
    policy_out: &str,
) {
    // Each peering gets a distinct /30 from a shared external range.
    let subnet: Prefix = Prefix::new(
        netaddr::Addr::new(192, 0, 2, (plan_comp as u8) * 64 + (slot as u8) * 4),
        30,
    )
    .expect("/30");
    let (iface, peer) = builder.external_stub(router, subnet, InterfaceType::Serial);
    external_ifaces.push((router, iface));
    let map_in = format!("in-{policy_in}");
    let map_out = format!("out-{policy_out}");
    {
        let cfg = builder.router(router);
        policy_map(cfg, &map_in, policy_in);
        policy_map(cfg, &map_out, policy_out);
    }
    let bgp = builder.router(router).bgp.as_mut().expect("border runs BGP");
    let n = bgp.neighbor_mut(peer);
    n.remote_as = Some(public_as);
    n.route_map_in = Some(map_in);
    n.route_map_out = Some(map_out);
}

/// Wires mutual redistribution between a BGP border and its site OSPF.
fn redistribute_site(builder: &mut NetworkBuilder, router: usize, ospf_pid: u32, egress: &str) {
    let asn = builder.router(router).bgp.as_ref().expect("border runs BGP").asn;
    {
        let cfg = builder.router(router);
        policy_map(cfg, &format!("rd-{egress}"), egress);
    }
    let bgp = builder.router(router).bgp.as_mut().expect("border runs BGP");
    bgp.redistribute.push(Redistribution {
        route_map: Some(format!("rd-{egress}")),
        ..Redistribution::plain(RedistSource::Ospf(ospf_pid))
    });
    let ospf = builder
        .router(router)
        .ospf
        .iter_mut()
        .find(|p| p.id == ospf_pid)
        .expect("border is a site member");
    ospf.policy.redistribute.push(Redistribution {
        subnets: true,
        metric: Some(200),
        metric_type: Some(1),
        ..Redistribution::plain(RedistSource::Bgp(asn))
    });
}

/// Generates net15.
pub fn generate(spec: Net15Spec, rng: &mut StdRng) -> DesignOutput {
    let mut out = DesignOutput::default();
    // 79 routers at scale 1.0: left site 38 + its 2-router DMZ pair,
    // right site 37 + its pair (38 + 2 + 37 + 2 = 79).
    let left_size = ((38.0 * spec.scale).round() as usize).max(4);
    let right_size = ((37.0 * spec.scale).round() as usize).max(4);

    let ab = address_blocks();
    let ab2 = ab[2].1[0];
    let ab4 = ab[4].1[0];

    let left = build_site(&mut out, rng, "left", 0, left_size, 1, ab2, 65101, 65102);
    let right = build_site(&mut out, rng, "right", 4, right_size, 2, ab4, 65201, 65202);

    // Peerings (Figure 12):
    //  left borders → public AS 25286:  in = A1, out = A2
    //  left dmz     → public AS 12762:  in = A3, out = A2
    //  right borders → public AS 12762: in = A5, out = A4
    //  right dmz    → public AS 25286:  in = A5, out = A4
    add_peering(&mut out.builder, &mut out.external_ifaces, 0, 0, left.borders[0], PUBLIC_AS_LEFT, "A1", "A2");
    add_peering(&mut out.builder, &mut out.external_ifaces, 0, 1, left.secondary[0], PUBLIC_AS_RIGHT, "A3", "A2");
    add_peering(&mut out.builder, &mut out.external_ifaces, 1, 0, right.borders[0], PUBLIC_AS_RIGHT, "A5", "A4");
    add_peering(&mut out.builder, &mut out.external_ifaces, 1, 1, right.secondary[0], PUBLIC_AS_LEFT, "A5", "A4");

    // Redistribution between BGP instances and their site OSPF.
    redistribute_site(&mut out.builder, left.borders[0], 1, "A2");
    redistribute_site(&mut out.builder, left.secondary[0], 1, "A2");
    redistribute_site(&mut out.builder, right.borders[0], 2, "A4");
    redistribute_site(&mut out.builder, right.secondary[0], 2, "A4");

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(scale: f64) -> nettopo::Network {
        let mut rng = StdRng::seed_from_u64(15);
        let out = generate(Net15Spec { scale }, &mut rng);
        nettopo::Network::from_texts(out.builder.to_texts()).unwrap()
    }

    #[test]
    fn full_scale_has_79_routers_and_6_instances() {
        let net = build(1.0);
        assert_eq!(net.len(), 79);
        let links = nettopo::LinkMap::build(&net);
        let external = nettopo::ExternalAnalysis::build(&net, &links);
        let procs = routing_model::Processes::extract(&net);
        let adj = routing_model::Adjacencies::build(&net, &links, &procs, &external);
        let inst = routing_model::Instances::compute(&procs, &adj);
        assert_eq!(
            inst.len(),
            6,
            "instances: {:?}",
            inst.list.iter().map(|i| i.label()).collect::<Vec<_>>()
        );
        let graph = routing_model::InstanceGraph::build(&net, &procs, &adj, &inst);
        let mut ases = graph.external_ases();
        ases.sort_unstable();
        assert_eq!(ases, vec![PUBLIC_AS_RIGHT, PUBLIC_AS_LEFT]);
    }

    #[test]
    fn table2_policy_disjointness() {
        // A2 ∩ A5 = A2 ∩ A3 = A4 ∩ A1 = ∅ — checked on the actual ACL
        // prefix sets.
        let set_of = |policy: &str| {
            policy_acl(policy).permitted_source_set()
        };
        assert!(set_of("A2").intersection(&set_of("A5")).is_empty());
        assert!(set_of("A2").intersection(&set_of("A3")).is_empty());
        assert!(set_of("A4").intersection(&set_of("A1")).is_empty());
        // Non-trivial policies.
        assert!(!set_of("A1").is_empty());
        assert!(!set_of("A5").is_empty());
    }

    #[test]
    fn reachability_matches_section_6_2() {
        let net = build(0.4);
        let links = nettopo::LinkMap::build(&net);
        let external = nettopo::ExternalAnalysis::build(&net, &links);
        let procs = routing_model::Processes::extract(&net);
        let adj = routing_model::Adjacencies::build(&net, &links, &procs, &external);
        let inst = routing_model::Instances::compute(&procs, &adj);
        let reach = reachability::ReachAnalysis::new(&net, &procs, &adj, &inst);

        let ab2: Prefix = "10.2.0.0/16".parse().unwrap();
        let ab4: Prefix = "10.4.0.0/16".parse().unwrap();
        // Site isolation.
        assert!(!reach.block_reachable(ab2, ab4));
        assert!(!reach.block_reachable(ab4, ab2));
        // No default route enters any instance.
        for i in &inst.list {
            let external_routes = reach.external_routes_entering(i.id);
            assert!(!external_routes.covers_prefix(Prefix::DEFAULT), "{}", i.label());
        }
        // The ingress ceiling: external routes into the left OSPF are
        // bounded by A1 ∪ A3 (two /16s + three /24s = at most 5 prefixes).
        let left_ospf = inst
            .list
            .iter()
            .find(|i| i.kind == routing_model::ProtoKind::Ospf)
            .unwrap();
        let load = reach.load_prediction(left_ospf.id);
        let max = load.max_external_routes.expect("bounded");
        assert!(max <= 5, "predicted {max} external routes");
        assert!(max >= 1);
    }
}
