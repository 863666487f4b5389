//! Networks that use no BGP at all (3 of the paper's 31 networks).
//!
//! A single IGP instance plus static default routes toward the provider.
//! External connectivity exists — it just is not visible to any routing
//! protocol, which is exactly why these networks stand out in Table 1.

use ioscfg::{InterfaceType, Redistribution, RedistSource, RipProcess, StaticRoute, StaticTarget};
use netaddr::{Addr, Netmask};
use rd_rng::StdRng;

use crate::alloc::AddressPlan;
use crate::designs::{hub_spoke, ospf_internal_covers, DesignOutput};

/// Parameters for a no-BGP network.
#[derive(Clone, Copy, Debug)]
pub struct NoBgpSpec {
    /// Total routers (≥ 2).
    pub routers: usize,
    /// Use RIP instead of OSPF.
    pub use_rip: bool,
}

/// Generates a no-BGP network.
pub fn generate(spec: NoBgpSpec, rng: &mut StdRng) -> DesignOutput {
    assert!(spec.routers >= 2);
    let mut out = DesignOutput::default();
    let mut plan = AddressPlan::for_compartment(10, 0);
    let hubs = if spec.routers > 30 { 2 } else { 1 };
    let (hub_ids, spoke_ids) =
        hub_spoke(&mut out, &mut plan, rng, "site", hubs, spec.routers - hubs);

    for &id in hub_ids.iter().chain(&spoke_ids) {
        if spec.use_rip {
            let mut p = RipProcess::new();
            p.version = Some(2);
            // RIP network statements are classful; 10.0.0.0 covers the plan.
            p.networks.push(Addr::new(10, 0, 0, 0));
            p.policy.redistribute.push(Redistribution::plain(RedistSource::Static));
            out.builder.router(id).rip = Some(p);
        } else {
            let mut p = ioscfg::OspfProcess::new(1);
            // OSPF covers internal pools only; RIP's classful statement
            // (above) intentionally covers the external link too — one of
            // the paper's IGP-at-the-edge cases.
            p.networks = ospf_internal_covers(&plan);
            p.policy.redistribute.push(Redistribution::plain(RedistSource::Static));
            out.builder.router(id).ospf.push(p);
        }
    }

    // The hub has an external /30 with a static default toward it — an
    // external-facing link with no routing protocol on it.
    let hub = hub_ids[0];
    let subnet = plan.external.alloc(30);
    let (iface, provider) = out.builder.external_stub(hub, subnet, InterfaceType::Serial);
    out.external_ifaces.push((hub, iface));
    out.builder.router(hub).static_routes.push(StaticRoute {
        dest: Addr::ZERO,
        mask: Netmask::ANY,
        target: StaticTarget::NextHop(provider),
        distance: None,
        tag: None,
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(use_rip: bool) -> nettopo::Network {
        let mut rng = StdRng::seed_from_u64(3);
        let out = generate(NoBgpSpec { routers: 9, use_rip }, &mut rng);
        nettopo::Network::from_texts(out.builder.to_texts()).unwrap()
    }

    #[test]
    fn classifies_as_no_bgp() {
        for use_rip in [true, false] {
            let net = build(use_rip);
            assert_eq!(net.len(), 9);
            let links = nettopo::LinkMap::build(&net);
            let external = nettopo::ExternalAnalysis::build(&net, &links);
            let procs = routing_model::Processes::extract(&net);
            let adj = routing_model::Adjacencies::build(&net, &links, &procs, &external);
            let inst = routing_model::Instances::compute(&procs, &adj);
            let graph = routing_model::InstanceGraph::build(&net, &procs, &adj, &inst);
            let t1 = routing_model::Table1::compute(&inst, &graph, &adj);
            let summary = routing_model::classify_network(&net, &inst, &graph, &adj, &t1);
            assert_eq!(summary.class, routing_model::DesignClass::NoBgp);
            assert_eq!(summary.bgp_speakers, 0);
            assert_eq!(t1.ebgp_sessions.total(), 0);
        }
    }

    #[test]
    fn single_igp_instance_spans_network() {
        let net = build(false);
        let links = nettopo::LinkMap::build(&net);
        let external = nettopo::ExternalAnalysis::build(&net, &links);
        let procs = routing_model::Processes::extract(&net);
        let adj = routing_model::Adjacencies::build(&net, &links, &procs, &external);
        let inst = routing_model::Instances::compute(&procs, &adj);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.list[0].router_count(), 9);
    }
}
