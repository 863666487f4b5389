//! The paper's net5 case study (Sections 5.1 and 6.1, Figures 9 and 10).
//!
//! net5 is an 881-router enterprise with a deliberately compartmentalized
//! design: ten EIGRP compartments glued by fourteen internal BGP ASes,
//! EBGP sessions to sixteen external ASes, EIGRP used as an *inter-domain*
//! protocol (carrying external routes between BGP instances) and EBGP used
//! as an *intra-domain* protocol. The designer avoided an IBGP mesh by
//! (a) laying out addresses so compartment policies are expressible as
//! address-based route maps, and (b) tagging external routes at
//! redistribution points and keying route selection off the tags.
//!
//! The generator reproduces that structure at a configurable scale:
//! `scale = 1.0` yields the paper's 881 routers / 24 routing instances /
//! 14 internal ASes / 16 external peer ASes, including the six redundant
//! redistribution routers between EIGRP instance 1 and BGP instance 4.

use ioscfg::{
    AccessList, AclAction, AclAddr, AclEntry, BgpProcess, InterfaceType, Redistribution,
    RedistSource, RouteMap, RouteMapClause, RmMatch, RmSet,
};
use rd_rng::StdRng;

use crate::alloc::AddressPlan;
use crate::designs::{compartment_slab, eigrp_internal_covers, hub_spoke, DesignOutput};

/// Scale parameter for net5.
#[derive(Clone, Copy, Debug)]
pub struct Net5Spec {
    /// 1.0 reproduces the paper's sizes; smaller values shrink the
    /// compartments while preserving the instance structure.
    pub scale: f64,
}

/// Derived concrete sizes.
#[derive(Clone, Debug)]
pub struct Net5Params {
    /// Routers per EIGRP compartment (compartment `i` runs EIGRP AS
    /// `10 + i`).
    pub eigrp_sizes: Vec<usize>,
    /// Internal BGP ASes: `(asn, compartment, member_count)`.
    pub bgp_groups: Vec<(u32, usize, usize)>,
    /// External peer ASes.
    pub external_ases: Vec<u32>,
}

/// Figure 9's "instance 4": the AS whose six routers redundantly
/// redistribute with EIGRP instance 1.
pub const AS_INSTANCE4: u32 = 65001;
/// Figure 9's "instance 2" (39 routers).
pub const AS_INSTANCE2: u32 = 65010;
/// Figure 9's "instance 3" (7 routers).
pub const AS_INSTANCE3: u32 = 65040;
/// Figure 9's "instance 5" (3 routers).
pub const AS_INSTANCE5: u32 = 10436;

impl Net5Spec {
    /// Computes the concrete sizes for this scale.
    pub fn params(&self) -> Net5Params {
        let s = self.scale;
        let scaled = |base: usize, floor: usize| -> usize {
            ((base as f64 * s).round() as usize).max(floor)
        };
        // Figure 9's three labelled compartments first (445 / 32 / 64),
        // then seven more, including the single-router instance the paper
        // mentions as the smallest.
        let bgp_groups: Vec<(u32, usize, usize)> = {
            let mut g = vec![
                (AS_INSTANCE4, 0, 6), // always exactly six (the headline)
                (AS_INSTANCE2, 0, scaled(39, 2)),
                (AS_INSTANCE3, 2, scaled(7, 2)),
                (AS_INSTANCE5, 1, scaled(3, 2)),
            ];
            for i in 0..10u32 {
                // Ten more small internal ASes over compartments 3..=9.
                g.push((64600 + i, 3 + (i as usize % 6), 2));
            }
            g
        };
        // Compartments must be large enough to host their BGP members.
        let base_sizes = [445usize, 32, 64, 151, 80, 40, 30, 20, 18, 1];
        let eigrp_sizes: Vec<usize> = base_sizes
            .iter()
            .enumerate()
            .map(|(c, &b)| {
                let members: usize = bgp_groups
                    .iter()
                    .filter(|(_, comp, _)| *comp == c)
                    .map(|(_, _, m)| m)
                    .sum();
                scaled(b, 1).max(members + 1).max(if c == 9 { 1 } else { 2 })
            })
            .collect();
        let external_ases = vec![
            1629, 6470, 2914, 3549, 6453, 7132, 19262, 22773, 209, 3561, 4323, 6939,
            174, 2828, 3257, 3300,
        ];
        Net5Params { eigrp_sizes, bgp_groups, external_ases }
    }
}

/// Generates net5.
pub fn generate(spec: Net5Spec, rng: &mut StdRng) -> DesignOutput {
    let params = spec.params();
    let mut out = DesignOutput::default();

    // --- EIGRP compartments ---
    let mut comp_members: Vec<Vec<usize>> = Vec::new();
    let mut plans: Vec<AddressPlan> = Vec::new();
    for (c, &size) in params.eigrp_sizes.iter().enumerate() {
        let mut plan = AddressPlan::for_compartment(10, c as u16);
        let hubs = if size > 100 {
            3
        } else if size > 20 {
            2
        } else {
            1
        };
        let hubs = hubs.min(size);
        let (hub_ids, spoke_ids) =
            hub_spoke(&mut out, &mut plan, rng, &format!("c{c}"), hubs, size - hubs);
        let members: Vec<usize> = hub_ids.into_iter().chain(spoke_ids).collect();
        for &id in &members {
            let mut p = ioscfg::EigrpProcess::new(10 + c as u32);
            // Internal pools only: net5's external world is reached via
            // BGP, never via the EIGRP compartments (Figure 9).
            p.networks = eigrp_internal_covers(&plan);
            p.no_auto_summary = true;
            out.builder.router(id).eigrp.push(p);
        }
        comp_members.push(members);
        plans.push(plan);
    }

    // The singleton compartment (the paper's "smallest instance contains
    // only a single router") still needs a physical uplink; the link is
    // covered by neither side's EIGRP, so its routing instance stays a
    // singleton — its routes travel via static routes only.
    {
        let lone = *comp_members[9].first().expect("compartment 9 exists");
        let hub0 = comp_members[0][0];
        let subnet = plans[0].p2p.alloc(30);
        let (ia, ib) = out.builder.p2p_link(hub0, lone, subnet, InterfaceType::Serial);
        out.internal_ifaces.push((hub0, ia));
        out.internal_ifaces.push((lone, ib));
        let (hub_addr, _) = subnet.p2p_hosts().expect("/30");
        out.builder.router(lone).static_routes.push(ioscfg::StaticRoute {
            dest: netaddr::Addr::ZERO,
            mask: netaddr::Netmask::ANY,
            target: ioscfg::StaticTarget::NextHop(hub_addr),
            distance: None,
            tag: None,
        });
    }

    // --- Compartment address ACLs (the "careful address layout" that
    //     lets policies be expressed by address, Section 6.1) ---
    let comp_acl = |c: usize| 60 + c as u32;
    let comp_block = |plans: &[AddressPlan], c: usize| compartment_slab(&plans[c]);

    // --- Internal BGP glue ---
    let member_addr: Vec<netaddr::Addr> = out
        .builder
        .routers
        .iter()
        .map(|r| r.interfaces[0].address.expect("all net5 routers addressed").addr)
        .collect();

    let mut bgp_members: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    // BGP groups sharing a compartment take disjoint member slices (a
    // router runs at most one BGP process).
    let mut comp_offset = vec![0usize; comp_members.len()];
    for (asn, comp, count) in &params.bgp_groups {
        let start = comp_offset[*comp];
        let members: Vec<usize> =
            comp_members[*comp].iter().copied().skip(start).take(*count).collect();
        comp_offset[*comp] = start + count;
        assert_eq!(members.len(), *count, "compartment {comp} too small for AS{asn}");
        // IBGP mesh within the group (keeps the AS one routing instance).
        for &m in &members {
            let mut bgp = BgpProcess::new(*asn);
            bgp.no_synchronization = true;
            out.builder.router(m).bgp = Some(bgp);
        }
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let (addr_a, addr_b) = (member_addr[a], member_addr[b]);
                out.builder.router(a).bgp.as_mut().expect("set above").neighbor_mut(addr_b).remote_as = Some(*asn);
                out.builder.router(b).bgp.as_mut().expect("set above").neighbor_mut(addr_a).remote_as = Some(*asn);
            }
        }
        // Mutual redistribution with the home compartment's EIGRP, using
        // the tag discipline: BGP→EIGRP stamps tag = asn % 1000; the
        // EIGRP→BGP direction matches compartment addresses and refuses
        // tagged (already-injected) routes — the loop-free, mesh-free
        // design the paper praises.
        let tag = asn % 1000;
        let block = comp_block(&plans, *comp);
        for &m in &members {
            let cfg = out.builder.router(m);
            cfg.access_lists.insert(
                comp_acl(*comp),
                AccessList {
                    id: comp_acl(*comp),
                    entries: vec![AclEntry::Standard {
                        action: AclAction::Permit,
                        addr: AclAddr::Wild(
                            block.first(),
                            block.mask().to_wildcard(),
                        ),
                    }],
                },
            );
            cfg.route_maps.insert(
                "from-eigrp".to_string(),
                RouteMap {
                    name: "from-eigrp".to_string(),
                    clauses: vec![
                        RouteMapClause {
                            seq: 10,
                            action: AclAction::Deny,
                            matches: vec![RmMatch::Tag(vec![tag])],
                            sets: Vec::new(),
                        },
                        RouteMapClause {
                            seq: 20,
                            action: AclAction::Permit,
                            matches: vec![RmMatch::IpAddress(vec![comp_acl(*comp)])],
                            sets: Vec::new(),
                        },
                    ],
                },
            );
            let bgp = cfg.bgp.as_mut().expect("set above");
            bgp.redistribute.push(Redistribution {
                route_map: Some("from-eigrp".to_string()),
                ..Redistribution::plain(RedistSource::Eigrp(10 + *comp as u32))
            });
            let eigrp = cfg
                .eigrp
                .iter_mut()
                .find(|p| p.asn == 10 + *comp as u32)
                .expect("member belongs to its compartment");
            eigrp.policy.redistribute.push(Redistribution {
                tag: Some(tag),
                metric: Some(1000),
                ..Redistribution::plain(RedistSource::Bgp(*asn))
            });
        }
        bgp_members.insert(*asn, members);
    }

    // --- Internal EBGP sessions between BGP instances (EBGP used
    //     intra-domain): instance 5 ↔ instance 4, instance 3 ↔ instance 2,
    //     and each small AS ↔ instance 2 ---
    let mut ebgp_pairs: Vec<(u32, u32)> =
        vec![(AS_INSTANCE5, AS_INSTANCE4), (AS_INSTANCE3, AS_INSTANCE2)];
    for (asn, _, _) in params.bgp_groups.iter().skip(4) {
        ebgp_pairs.push((*asn, AS_INSTANCE2));
    }
    for (x, y) in ebgp_pairs {
        let a = bgp_members[&x][0];
        let b = bgp_members[&y][0];
        // A dedicated /30 between the two border routers.
        let subnet = plans[0].p2p.alloc(30);
        let (ia, ib) = out.builder.p2p_link(a, b, subnet, InterfaceType::Serial);
        out.internal_ifaces.push((a, ia));
        out.internal_ifaces.push((b, ib));
        let (addr_a, addr_b) = subnet.p2p_hosts().expect("/30");
        out.builder.router(a).bgp.as_mut().expect("member has bgp").neighbor_mut(addr_b).remote_as = Some(y);
        out.builder.router(b).bgp.as_mut().expect("member has bgp").neighbor_mut(addr_a).remote_as = Some(x);
    }

    // --- External EBGP peerings: 16 external ASes spread over the BGP
    //     groups (instance 5 → AS1629 and instance 3 → AS6470 first, as in
    //     Figure 9) ---
    let mut hosts: Vec<u32> = vec![AS_INSTANCE5, AS_INSTANCE3];
    for (asn, _, _) in params.bgp_groups.iter().skip(4) {
        hosts.push(*asn);
    }
    hosts.push(AS_INSTANCE2);
    hosts.push(AS_INSTANCE2);
    hosts.push(AS_INSTANCE4);
    hosts.push(AS_INSTANCE2);
    for (i, ext_as) in params.external_ases.iter().enumerate() {
        let host_asn = hosts[i % hosts.len()];
        let member = bgp_members[&host_asn][i % bgp_members[&host_asn].len()];
        let subnet = plans[0].external.alloc(30);
        let (iface, peer) = out.builder.external_stub(member, subnet, InterfaceType::Serial);
        out.external_ifaces.push((member, iface));
        let bgp = out.builder.router(member).bgp.as_mut().expect("member has bgp");
        bgp.neighbor_mut(peer).remote_as = Some(*ext_as);
    }

    // Interior routers select on tags: a representative route map exists
    // on every hub so the configuration records the tag discipline.
    for members in &comp_members {
        let hub = members[0];
        let cfg = out.builder.router(hub);
        cfg.route_maps.entry("prefer-tagged".to_string()).or_insert_with(|| RouteMap {
            name: "prefer-tagged".to_string(),
            clauses: vec![RouteMapClause {
                seq: 10,
                action: AclAction::Permit,
                matches: vec![RmMatch::Tag(vec![1, 10, 40, 436])],
                sets: vec![RmSet::Weight(200)],
            }],
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(scale: f64) -> (Net5Params, nettopo::Network) {
        let spec = Net5Spec { scale };
        let params = spec.params();
        let mut rng = StdRng::seed_from_u64(55);
        let out = generate(spec, &mut rng);
        (params, nettopo::Network::from_texts(out.builder.to_texts()).unwrap())
    }

    struct Analysis {
        instances: routing_model::Instances,
        graph: routing_model::InstanceGraph,
        summary: routing_model::DesignSummary,
    }

    fn analyze(net: &nettopo::Network) -> Analysis {
        let links = nettopo::LinkMap::build(net);
        let external = nettopo::ExternalAnalysis::build(net, &links);
        let procs = routing_model::Processes::extract(net);
        let adj = routing_model::Adjacencies::build(net, &links, &procs, &external);
        let instances = routing_model::Instances::compute(&procs, &adj);
        let graph = routing_model::InstanceGraph::build(net, &procs, &adj, &instances);
        let t1 = routing_model::Table1::compute(&instances, &graph, &adj);
        let summary = routing_model::classify_network(net, &instances, &graph, &adj, &t1);
        Analysis { instances, graph, summary }
    }

    #[test]
    fn small_scale_matches_figure9_structure() {
        let (params, net) = build(0.12);
        let total: usize = params.eigrp_sizes.iter().sum();
        assert_eq!(net.len(), total);
        let a = analyze(&net);
        // 24 routing instances: 10 EIGRP + 14 BGP.
        assert_eq!(a.instances.len(), 24, "instances: {:#?}", a.instances.list.iter().map(|i| i.label()).collect::<Vec<_>>());
        let eigrp = a
            .instances
            .list
            .iter()
            .filter(|i| i.kind == routing_model::ProtoKind::Eigrp)
            .count();
        assert_eq!(eigrp, 10);
        // 14 distinct internal ASes.
        assert_eq!(a.summary.internal_ases, 14);
        // 16 external peer ASes.
        assert_eq!(a.graph.external_ases().len(), 16);
        // The design defies textbook classification.
        assert_eq!(a.summary.class, routing_model::DesignClass::Unclassifiable);
        // EBGP used internally.
        assert!(a.summary.internal_ebgp_sessions >= 12, "{:?}", a.summary);
    }

    #[test]
    fn six_redundant_redistribution_routers() {
        let (_, net) = build(0.12);
        let a = analyze(&net);
        // Find EIGRP compartment 0's instance (the largest) and BGP
        // AS65001's instance.
        let inst1 = a.instances.list.iter().find(|i| i.kind == routing_model::ProtoKind::Eigrp).unwrap();
        let inst4 = a
            .instances
            .list
            .iter()
            .find(|i| i.asn == Some(AS_INSTANCE4))
            .unwrap();
        let routers = a.graph.redistribution_routers(inst4.id, inst1.id);
        assert_eq!(routers.len(), 6, "redundant redistributors: {routers:?}");
        let back = a.graph.redistribution_routers(inst1.id, inst4.id);
        assert_eq!(back.len(), 6);
    }

    #[test]
    fn largest_instance_dominates() {
        let (params, net) = build(0.12);
        let a = analyze(&net);
        assert_eq!(
            a.instances.list[0].router_count(),
            params.eigrp_sizes[0],
            "instance 0 must be the big compartment"
        );
        // Smallest instance is a single router (the paper's observation).
        assert_eq!(a.instances.list.last().unwrap().router_count(), 1);
    }

    #[test]
    fn full_scale_params_match_paper() {
        let params = Net5Spec { scale: 1.0 }.params();
        assert_eq!(params.eigrp_sizes.iter().sum::<usize>(), 881);
        assert_eq!(params.eigrp_sizes[0], 445);
        assert_eq!(params.eigrp_sizes[1], 32);
        assert_eq!(params.eigrp_sizes[2], 64);
        assert_eq!(params.bgp_groups.len(), 14);
        assert_eq!(params.external_ases.len(), 16);
        assert_eq!(params.bgp_groups[0], (AS_INSTANCE4, 0, 6));
        assert_eq!(params.bgp_groups[1].2, 39);
    }

    #[test]
    fn pathway_depth_reaches_three_layers() {
        // Router 3 of Figure 10 sits behind ≥3 layers of protocols; any
        // plain compartment-0 spoke reproduces that depth.
        let (_, net) = build(0.12);
        let links = nettopo::LinkMap::build(&net);
        let external = nettopo::ExternalAnalysis::build(&net, &links);
        let procs = routing_model::Processes::extract(&net);
        let adj = routing_model::Adjacencies::build(&net, &links, &procs, &external);
        let instances = routing_model::Instances::compute(&procs, &adj);
        let graph = routing_model::InstanceGraph::build(&net, &procs, &adj, &instances);
        // Pick a compartment-0 spoke with no BGP process.
        let spoke = net
            .iter()
            .find(|(_, r)| {
                r.config.bgp.is_none()
                    && r.config.eigrp.first().is_some_and(|p| p.asn == 10)
            })
            .map(|(id, _)| id)
            .expect("compartment 0 has plain spokes");
        let pathway = routing_model::PathwayGraph::trace(spoke, &instances, &graph);
        assert!(pathway.max_depth() >= 3, "depth {}", pathway.max_depth());
        assert!(pathway.reaches_external_world());
    }
}
