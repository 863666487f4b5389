//! Route propagation over the instance graph.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use ioscfg::{DistributeList, Igp, RedistSource, Redistribution, RouterConfig};
use netaddr::{Prefix, PrefixSet};
use nettopo::Network;
use routing_model::{
    exchanges, Adjacencies, ExchangeVia, InstanceId, InstanceNode, Instances, ProcKey,
    Processes, Proto,
};

use crate::filter::{acl_prefix_set, resolve_route_map_filter, RouteFilter};
use crate::routeset::TaggedRoutes;

/// A directed route-flow edge with its compiled policy.
#[derive(Clone, Debug)]
struct FlowEdge {
    from: InstanceNode,
    to: InstanceNode,
    filter: RouteFilter,
    /// Tag stamped on routes crossing this edge (`redistribute ... tag N`).
    retag: Option<u32>,
}

/// Prediction of the route load an instance must carry (Section 6.2:
/// "the maximum load on the OSPF processes can be predicted").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadPrediction {
    /// The instance.
    pub instance: InstanceId,
    /// Routers in the instance (each carries the full route load).
    pub routers: usize,
    /// Maximum external routes injectable, as a minimal prefix count.
    /// `None` when a default route (or unfiltered full space) can enter,
    /// making the bound meaningless.
    pub max_external_routes: Option<usize>,
}

/// The static reachability analysis for one network.
pub struct ReachAnalysis<'a> {
    net: &'a Network,
    instances: &'a Instances,
    edges: Vec<FlowEdge>,
    /// The external ASes and the external world, where outside routes
    /// enter.
    externals: BTreeSet<InstanceNode>,
    origination: BTreeMap<InstanceId, TaggedRoutes>,
    /// Built on first use: see [`Unions`].
    unions: OnceLock<Unions>,
}

/// What every route source's propagation reaches, unioned per target:
/// per instance, the external routes that can enter it; per external AS,
/// the routes announced to it. Each source propagates once per analysis,
/// however many instances and ASes are asked about.
#[derive(Default)]
struct Unions {
    entering: BTreeMap<InstanceId, PrefixSet>,
    announced: BTreeMap<u32, PrefixSet>,
}

impl<'a> ReachAnalysis<'a> {
    /// Compiles the propagation graph: the route filters of every
    /// exchange in [`routing_model::exchanges`], in both directions
    /// where routes flow both ways.
    pub fn new(
        net: &'a Network,
        procs: &'a Processes,
        adj: &'a Adjacencies,
        instances: &'a Instances,
    ) -> ReachAnalysis<'a> {
        let mut edges = Vec::new();
        let mut externals = BTreeSet::new();
        let mut edge = |from, to, filter, retag| edges.push(FlowEdge { from, to, filter, retag });
        // An instance's distribute lists do not depend on the router, so
        // its external IGP coverage compiles to one pair of edges.
        let mut igp_covered: BTreeSet<InstanceId> = BTreeSet::new();
        for x in exchanges(procs, adj, instances) {
            let (local, other) = (InstanceNode::Instance(x.from), x.to);
            if other.is_external() {
                externals.insert(other);
            }
            match x.via {
                ExchangeVia::Redistribution { router, redist } => {
                    let filter = redistribution_filter(&net.router(router).config, redist);
                    edge(local, other, filter, redist.tag);
                }
                ExchangeVia::Ebgp(s) => {
                    let local_in = neighbor_filter(net, s.local, Some(s.peer_addr), Dir::In);
                    let local_out = neighbor_filter(net, s.local, Some(s.peer_addr), Dir::Out);
                    match (other, s.peer) {
                        // Each way: the sender's out-policy, then the
                        // receiver's in-policy toward the sender.
                        (InstanceNode::Instance(_), Some(peer)) => {
                            let back = session_local_addr(net, s.local, peer);
                            let peer_in = neighbor_filter(net, peer, back, Dir::In);
                            let peer_out = neighbor_filter(net, peer, back, Dir::Out);
                            edge(local, other, local_out.then(peer_in), None);
                            edge(other, local, peer_out.then(local_in), None);
                        }
                        _ => {
                            edge(other, local, local_in, None);
                            edge(local, other, local_out, None);
                        }
                    }
                }
                ExchangeVia::IgpCoverage { .. } => {
                    if igp_covered.insert(x.from) {
                        let filter_in = igp_distribute_filter(net, instances, x.from, Dir::In);
                        let filter_out = igp_distribute_filter(net, instances, x.from, Dir::Out);
                        edge(other, local, filter_in, None);
                        edge(local, other, filter_out, None);
                    }
                }
            }
        }
        let origination = originations(net, procs, instances);
        ReachAnalysis { net, instances, edges, externals, origination, unions: OnceLock::new() }
    }

    /// Routes an instance originates (connected subnets, BGP networks,
    /// redistributed local RIB entries).
    pub fn origination(&self, id: InstanceId) -> TaggedRoutes {
        self.origination.get(&id).cloned().unwrap_or_default()
    }

    /// Propagates `seed` routes from `origin` to a fixpoint; returns the
    /// routes visible at every node.
    pub fn propagate(
        &self,
        origin: InstanceNode,
        seed: TaggedRoutes,
    ) -> BTreeMap<InstanceNode, TaggedRoutes> {
        let mut state: BTreeMap<InstanceNode, TaggedRoutes> = BTreeMap::new();
        state.entry(origin).or_default().merge(&seed);
        // Monotone fixpoint; the round cap is a safety net (tag rewrites
        // can only produce tags present in some `set tag`, so the lattice
        // is finite).
        let max_rounds = 4 * self.edges.len().max(4);
        for _ in 0..max_rounds {
            let mut changed = false;
            for e in &self.edges {
                let Some(input) = state.get(&e.from).cloned() else { continue };
                if input.is_empty() {
                    continue;
                }
                let mut out = e.filter.apply(&input);
                if let Some(tag) = e.retag {
                    out = out.retag(tag);
                }
                if out.is_empty() {
                    continue;
                }
                if state.entry(e.to).or_default().merge(&out) {
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        state
    }

    /// The external routes (from any external AS or the external world)
    /// that can appear in `id`'s RIBs.
    pub fn external_routes_entering(&self, id: InstanceId) -> PrefixSet {
        self.unions().entering.get(&id).cloned().unwrap_or_else(PrefixSet::empty)
    }

    /// The routes this network can announce to a given external AS.
    pub fn routes_announced_to(&self, asn: u32) -> PrefixSet {
        self.unions().announced.get(&asn).cloned().unwrap_or_else(PrefixSet::empty)
    }

    /// [`Unions`], propagating from every external node (all routes) and
    /// from every instance that originates routes, once each.
    fn unions(&self) -> &Unions {
        self.unions.get_or_init(|| {
            let mut unions = Unions::default();
            for node in &self.externals {
                let state = self.propagate(*node, TaggedRoutes::untagged(PrefixSet::all()));
                for (reached, routes) in &state {
                    if let InstanceNode::Instance(id) = reached {
                        let total = unions.entering.entry(*id).or_insert_with(PrefixSet::empty);
                        *total = total.union(&routes.all_prefixes());
                    }
                }
            }
            for inst in &self.instances.list {
                let seed = self.origination(inst.id);
                if seed.is_empty() {
                    continue;
                }
                let state = self.propagate(InstanceNode::Instance(inst.id), seed);
                for (reached, routes) in &state {
                    if let InstanceNode::ExternalAs(asn) = reached {
                        let total = unions.announced.entry(*asn).or_insert_with(PrefixSet::empty);
                        *total = total.union(&routes.all_prefixes());
                    }
                }
            }
            unions
        })
    }

    /// Instances that have an interface inside `block` (where those hosts
    /// attach to the routing design).
    pub fn instances_attached_to(&self, block: Prefix) -> Vec<InstanceId> {
        let mut out = Vec::new();
        for inst in &self.instances.list {
            let orig = self.origination(inst.id);
            if orig.intersects_prefix(block) {
                out.push(inst.id);
            }
        }
        out
    }

    /// Can hosts in `src_block` send packets that reach hosts in
    /// `dst_block`? True when routes toward `dst_block` propagate to an
    /// instance serving `src_block` (the paper's route-policy middle
    /// ground: no route ⟹ no reachability).
    pub fn block_reachable(&self, src_block: Prefix, dst_block: Prefix) -> bool {
        let dst_set = PrefixSet::from_prefix(dst_block);
        let src_instances = self.instances_attached_to(src_block);
        if src_instances.is_empty() {
            return false;
        }
        for dst_inst in self.instances_attached_to(dst_block) {
            if src_instances.contains(&dst_inst) {
                return true; // same instance: intra-instance routing
            }
            let seed = self.origination(dst_inst).restrict(&dst_set);
            if seed.is_empty() {
                continue;
            }
            let state = self.propagate(InstanceNode::Instance(dst_inst), seed);
            for src_inst in &src_instances {
                if let Some(routes) = state.get(&InstanceNode::Instance(*src_inst)) {
                    if routes.intersects_prefix(dst_block) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Predicts the maximum external-route load on an instance.
    pub fn load_prediction(&self, id: InstanceId) -> LoadPrediction {
        let external = self.external_routes_entering(id);
        let max_external_routes = if external.covers_prefix(Prefix::DEFAULT) {
            None
        } else {
            Some(external.to_prefixes().len())
        };
        LoadPrediction {
            instance: id,
            routers: self.instances.get(id).router_count(),
            max_external_routes,
        }
    }

    /// The underlying network (handy for callers composing reports).
    pub fn network(&self) -> &Network {
        self.net
    }
}

/// The routes each instance originates: covered interface subnets, BGP
/// `network` statements, and the local RIB entries (connected, static)
/// its processes redistribute.
fn originations(
    net: &Network,
    procs: &Processes,
    instances: &Instances,
) -> BTreeMap<InstanceId, TaggedRoutes> {
    let mut origination: BTreeMap<InstanceId, TaggedRoutes> = BTreeMap::new();
    for p in &procs.list {
        let Some(inst) = instances.instance_of(p.key) else { continue };
        let entry = origination.entry(inst).or_default();
        let cfg = &net.router(p.key.router).config;

        // Covered interface subnets are carried natively.
        for &idx in &p.covered_ifaces {
            if let Some(a) = cfg.interfaces[idx].address {
                entry.merge(&TaggedRoutes::untagged(PrefixSet::from_prefix(a.subnet())));
            }
        }
        // BGP `network` statements.
        if let (Proto::Bgp(_), Some(bgp)) = (p.key.proto, &cfg.bgp) {
            for (addr, mask) in &bgp.networks {
                let prefix = match mask {
                    Some(m) => Prefix::from_mask(*addr, *m),
                    None => ioscfg::classful_prefix(*addr),
                };
                entry.merge(&TaggedRoutes::untagged(PrefixSet::from_prefix(prefix)));
            }
        }
        // Redistribution of the local RIB (connected / static).
        for r in &p.redistributes {
            let seeds: PrefixSet = match r.source {
                RedistSource::Connected => cfg.interface_subnets().collect(),
                RedistSource::Static => cfg.static_routes.iter().map(|sr| sr.prefix()).collect(),
                _ => continue,
            };
            let mut routes = redistribution_filter(cfg, r).apply(&TaggedRoutes::untagged(seeds));
            if let Some(tag) = r.tag {
                routes = routes.retag(tag);
            }
            entry.merge(&routes);
        }
    }
    origination
}

/// The route map of a `redistribute` statement as a filter (none passes
/// everything).
fn redistribution_filter(cfg: &RouterConfig, r: &Redistribution) -> RouteFilter {
    match &r.route_map {
        Some(name) => resolve_route_map_filter(cfg, name),
        None => RouteFilter::Pass,
    }
}

/// Direction of a per-neighbor policy.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    In,
    Out,
}

/// The local side's address a peer would configure as its neighbor —
/// needed to look up the peer's per-neighbor policies for this session.
fn session_local_addr(
    net: &Network,
    local: ProcKey,
    peer: ProcKey,
) -> Option<netaddr::Addr> {
    let peer_cfg = &net.router(peer.router).config;
    let local_cfg = &net.router(local.router).config;
    let local_addrs: BTreeSet<netaddr::Addr> = local_cfg
        .interfaces
        .iter()
        .flat_map(|i| i.address.iter().chain(i.secondary.iter()))
        .map(|a| a.addr)
        .collect();
    peer_cfg
        .bgp
        .as_ref()?
        .neighbors
        .iter()
        .map(|n| n.addr)
        .find(|a| local_addrs.contains(a))
}

/// Per-neighbor policy of `local` toward `peer_addr`; a session with no
/// known neighbor address (one-sided) passes everything.
fn neighbor_filter(
    net: &Network,
    local: ProcKey,
    peer_addr: Option<netaddr::Addr>,
    dir: Dir,
) -> RouteFilter {
    let cfg = &net.router(local.router).config;
    let Some(bgp) = &cfg.bgp else { return RouteFilter::Pass };
    let Some(n) = bgp.neighbors.iter().find(|n| Some(n.addr) == peer_addr) else {
        return RouteFilter::Pass;
    };
    let (dl, rm) = match dir {
        Dir::In => (n.distribute_in, &n.route_map_in),
        Dir::Out => (n.distribute_out, &n.route_map_out),
    };
    let mut filter = RouteFilter::Pass;
    if let Some(acl) = dl {
        filter = filter.then(match acl_prefix_set(cfg, acl) {
            Some(set) => RouteFilter::Restrict(set),
            None => RouteFilter::Block,
        });
    }
    if let Some(name) = rm {
        filter = filter.then(resolve_route_map_filter(cfg, name));
    }
    filter
}

/// Global (interface-unscoped) distribute lists of an IGP instance's
/// member processes, unioned. Interface-scoped lists are conservatively
/// ignored (they admit at most what the global list admits in our
/// corpora), and one member without a global list lets everything pass.
fn igp_distribute_filter(
    net: &Network,
    instances: &Instances,
    id: InstanceId,
    dir: Dir,
) -> RouteFilter {
    let mut admitted: Option<PrefixSet> = None;
    for key in &instances.get(id).processes {
        let cfg = &net.router(key.router).config;
        let lists = distribute_lists(cfg, key.proto, dir);
        let mut global = lists.iter().filter(|dl| dl.interface.is_none()).peekable();
        if global.peek().is_none() {
            return RouteFilter::Pass;
        }
        for set in global.filter_map(|dl| acl_prefix_set(cfg, dl.acl)) {
            admitted = Some(match admitted {
                Some(before) => before.union(&set),
                None => set,
            });
        }
    }
    admitted.map_or(RouteFilter::Pass, RouteFilter::Restrict)
}

/// The distribute lists the IGP process `proto` on `cfg` applies in
/// `dir`. The process is found by its full identity, so `router igrp 10`
/// and `router eigrp 10` on one router keep their own lists.
fn distribute_lists(cfg: &RouterConfig, proto: Proto, dir: Dir) -> &[DistributeList] {
    match cfg.igps().find(|igp| Proto::of_igp(*igp) == proto).map(Igp::policy) {
        Some(policy) if dir == Dir::In => &policy.distribute_in,
        Some(policy) => &policy.distribute_out,
        None => &[],
    }
}
