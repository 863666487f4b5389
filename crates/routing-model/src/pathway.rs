//! Route pathway graphs (paper Section 3.3, Figures 7 and 10).
//!
//! For a chosen router, a breadth-first search backward through the
//! instance graph records every instance (and external source) whose
//! routes can reach that router's RIB, and at what depth. The result
//! locates all the routing policies that affect the routes the router
//! sees, and makes structural differences between designs visible: a
//! textbook enterprise router is fed by one IGP instance fed by one BGP
//! instance; net5's router 3 sits behind three layers of protocols and
//! redistributions.

use std::collections::{BTreeMap, VecDeque};

use nettopo::RouterId;

use crate::instance::{InstanceId, Instances};
use crate::instance_graph::{ExchangeKind, InstanceGraph, InstanceNode};

/// One node of a pathway graph, with its BFS depth from the router RIB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathwayNode {
    /// The instance-graph node.
    pub node: InstanceNode,
    /// Hops from the router RIB (0 = instances the router belongs to).
    pub depth: usize,
}

/// The route pathway graph for one router.
#[derive(Clone, Debug)]
pub struct PathwayGraph {
    /// The router whose routes are being traced.
    pub router: RouterId,
    /// Reached nodes with depths, in BFS order.
    pub nodes: Vec<PathwayNode>,
    /// The pathway edges: `(source, dest, policy)` meaning routes flow
    /// from `source` toward the router via `dest`.
    pub edges: Vec<(InstanceNode, InstanceNode, Option<String>)>,
}

/// The four figures of one router's pathway that the corpus-wide
/// `/pathways` view serves, without the graph itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathwaySummary {
    /// [`PathwayGraph::max_depth`]: the protocol layers routes cross to
    /// reach the router.
    pub max_depth: usize,
    /// [`PathwayGraph::reaches_external_world`]: whether an external AS
    /// or the external world feeds the router.
    pub reaches_external_world: bool,
    /// The pathway's node count, the router's own instances included.
    pub nodes: usize,
    /// The pathway's edge count, as [`PathwayIndex::trace`] deduplicates
    /// its edges.
    pub edges: usize,
}

/// A reverse-flow adjacency index over one instance graph, shared
/// across many traces.
///
/// [`PathwayIndex::trace`] needs, for each reached node, the set of
/// nodes whose routes flow *into* it; with the index built once, one
/// trace costs O(V + E). The corpus-wide `/pathways` view needs only
/// each router's [`PathwaySummary`], and [`PathwayIndex::summaries`]
/// computes those for every router at once: one bit-parallel BFS per 64
/// distinct seeds, O(seeds / 64 · (V + E)), plus one step per node each
/// seed reaches.
pub struct PathwayIndex<'g> {
    /// `graph.nodes`, sorted and deduplicated: a node's position is its
    /// dense id in [`PathwayIndex::summaries`].
    nodes: &'g [InstanceNode],
    /// node → `(source, policy)` pairs whose routes flow into it, in
    /// edge order.
    backward: BTreeMap<InstanceNode, Vec<(InstanceNode, Option<&'g str>)>>,
    /// router → instances it participates in (the trace seed), in
    /// `instances.list` order.
    membership: BTreeMap<RouterId, Vec<InstanceId>>,
}

impl<'g> PathwayIndex<'g> {
    /// Indexes `graph` for repeated tracing.
    pub fn new(instances: &Instances, graph: &'g InstanceGraph) -> PathwayIndex<'g> {
        let mut backward: BTreeMap<InstanceNode, Vec<(InstanceNode, Option<&'g str>)>> =
            BTreeMap::new();
        for e in &graph.edges {
            match &e.kind {
                // Redistribution is directed: routes flow from → to.
                ExchangeKind::Redistribution { policy, .. } => {
                    backward.entry(e.to).or_default().push((e.from, policy.as_deref()));
                }
                // Exchange edges (EBGP, IGP edges) flow both ways.
                ExchangeKind::Ebgp { .. } | ExchangeKind::IgpEdge { .. } => {
                    backward.entry(e.to).or_default().push((e.from, None));
                    backward.entry(e.from).or_default().push((e.to, None));
                }
            }
        }
        let mut membership: BTreeMap<RouterId, Vec<InstanceId>> = BTreeMap::new();
        for inst in &instances.list {
            for router in &inst.routers {
                membership.entry(*router).or_default().push(inst.id);
            }
        }
        PathwayIndex { nodes: &graph.nodes, backward, membership }
    }

    /// The depth-0 instance set of `router` — its trace seed. Two
    /// routers with equal seeds produce pathways that differ only in
    /// the `router` field.
    fn seed(&self, router: RouterId) -> &[InstanceId] {
        self.membership.get(&router).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Traces where `router`'s routes come from.
    pub fn trace(&self, router: RouterId) -> PathwayGraph {
        let mut depths: BTreeMap<InstanceNode, usize> = BTreeMap::new();
        let mut edges = Vec::new();
        let mut queue: VecDeque<InstanceNode> = VecDeque::new();

        // Depth 0: instances this router participates in feed its RIB.
        for id in self.seed(router) {
            let node = InstanceNode::Instance(*id);
            depths.insert(node, 0);
            queue.push_back(node);
        }

        // Walk edges *backwards* along route flow via the prebuilt
        // index. A self-loop contributes its entry twice (once per
        // endpoint); the sort + dedup below collapses it, matching the
        // single match-arm hit of the unindexed scan.
        while let Some(current) = queue.pop_front() {
            let depth = depths[&current];
            let Some(incoming) = self.backward.get(&current) else {
                continue;
            };
            for (source, policy) in incoming {
                edges.push((*source, current, policy.map(str::to_string)));
                if !depths.contains_key(source) {
                    depths.insert(*source, depth + 1);
                    queue.push_back(*source);
                }
            }
        }

        let mut nodes: Vec<PathwayNode> = depths
            .into_iter()
            .map(|(node, depth)| PathwayNode { node, depth })
            .collect();
        nodes.sort_by_key(|n| (n.depth, n.node));
        edges.sort_by_key(|(a, b, _)| (*a, *b));
        edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1 && a.2 == b.2);

        PathwayGraph { router, nodes, edges }
    }

    /// The [`PathwaySummary`] of every router `RouterId(0..routers)`:
    /// entry `r` equals `self.trace(RouterId(r)).summary()`.
    ///
    /// [`trace`](PathwayIndex::trace) dequeues each node it reaches
    /// once, so one visited set per seed gives all four figures: `nodes`
    /// is its size, `reaches_external_world` whether it holds an
    /// external node, `max_depth` the last BFS level that reached a new
    /// node, and `edges` a sum of per-node constants (the incoming
    /// `(source, policy)` runs that `trace`'s stable sort and adjacent
    /// dedup keep). Routers with equal seeds share a visited set, and 64
    /// distinct seeds share one level-synchronous BFS, one bit of a
    /// `u64` each (Then et al., "The More the Merrier: Efficient
    /// Multi-Source Graph Traversal", VLDB 2015).
    pub fn summaries(&self, routers: usize) -> Vec<PathwaySummary> {
        // Each router's index among the distinct non-empty seeds; a
        // router in no instance traces nothing.
        let mut distinct: BTreeMap<&[InstanceId], usize> = BTreeMap::new();
        let seed_of: Vec<Option<usize>> = (0..routers)
            .map(|r| {
                let seed = self.seed(RouterId(r));
                let next = distinct.len();
                (!seed.is_empty()).then(|| *distinct.entry(seed).or_insert(next))
            })
            .collect();
        let mut ids = DenseIds { nodes: self.nodes, extra: BTreeMap::new() };
        let mut seeds = vec![Vec::new(); distinct.len()];
        for (seed, i) in distinct {
            seeds[i] = seed.iter().map(|id| ids.id(InstanceNode::Instance(*id))).collect();
        }
        let flow = DenseFlow::build(&self.backward, ids);

        let mut bfs = MultiBfs::new(flow.len());
        let per_seed: Vec<PathwaySummary> =
            seeds.chunks(u64::BITS as usize).flat_map(|batch| bfs.run(&flow, batch)).collect();
        seed_of
            .into_iter()
            .map(|i| i.map_or_else(PathwaySummary::default, |i| per_seed[i]))
            .collect()
    }
}

/// Dense node ids for [`PathwayIndex::summaries`]: a node's position in
/// `graph.nodes`, or an id past its end for a node the list lacks (which
/// only a hand-built snapshot can contain).
struct DenseIds<'g> {
    nodes: &'g [InstanceNode],
    extra: BTreeMap<InstanceNode, usize>,
}

impl DenseIds<'_> {
    fn id(&mut self, node: InstanceNode) -> usize {
        match self.nodes.binary_search(&node) {
            Ok(id) => id,
            Err(_) => {
                let next = self.nodes.len() + self.extra.len();
                *self.extra.entry(node).or_insert(next)
            }
        }
    }
}

/// The reverse-flow index over dense node ids.
struct DenseFlow {
    /// `sources[offsets[v]..offsets[v + 1]]`: the distinct nodes whose
    /// routes flow into `v`.
    offsets: Vec<usize>,
    sources: Vec<usize>,
    /// The edges into `v` that [`PathwayIndex::trace`] keeps when it
    /// reaches `v`.
    weight: Vec<usize>,
    /// Whether `v` is an external AS or the external world.
    external: Vec<bool>,
}

impl DenseFlow {
    fn build<'g>(
        backward: &BTreeMap<InstanceNode, Vec<(InstanceNode, Option<&'g str>)>>,
        mut ids: DenseIds<'g>,
    ) -> DenseFlow {
        // `(dest, source, policy)` in edge order per dest; the stable sort
        // groups each dest's sources as `trace`'s sort does, so its
        // adjacent dedup keeps one edge per run of equal triples.
        let mut flat: Vec<(usize, usize, Option<&str>)> = Vec::new();
        for (dest, incoming) in backward {
            let dest = ids.id(*dest);
            for (source, policy) in incoming {
                flat.push((dest, ids.id(*source), *policy));
            }
        }
        flat.sort_by_key(|&(dest, source, _)| (dest, source));

        let len = ids.nodes.len() + ids.extra.len();
        let mut external: Vec<bool> = ids.nodes.iter().map(InstanceNode::is_external).collect();
        external.resize(len, false);
        for (node, id) in &ids.extra {
            external[*id] = node.is_external();
        }
        let mut weight = vec![0; len];
        let mut offsets = vec![0; len + 1];
        let mut sources = Vec::new();
        for (i, &(dest, source, _)) in flat.iter().enumerate() {
            let prev = i.checked_sub(1).map(|p| flat[p]);
            if prev != Some(flat[i]) {
                weight[dest] += 1;
            }
            if prev.map(|(d, s, _)| (d, s)) != Some((dest, source)) {
                sources.push(source);
                offsets[dest + 1] += 1;
            }
        }
        for v in 0..len {
            offsets[v + 1] += offsets[v];
        }
        DenseFlow { offsets, sources, weight, external }
    }

    fn len(&self) -> usize {
        self.weight.len()
    }

    fn sources(&self, v: usize) -> &[usize] {
        &self.sources[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// A level-synchronous BFS over [`DenseFlow`] for up to 64 seeds at
/// once: bit `i` of a node's mask is lane `i`. Each level visits only
/// its frontier, through the sparse `active` lists.
struct MultiBfs {
    /// Lanes that have reached each node.
    seen: Vec<u64>,
    /// Lanes whose frontier holds each node, at this level and the next.
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// The nodes with a non-zero `frontier` / `next` mask.
    active: Vec<usize>,
    next_active: Vec<usize>,
}

impl MultiBfs {
    fn new(len: usize) -> MultiBfs {
        MultiBfs {
            seen: vec![0; len],
            frontier: vec![0; len],
            next: vec![0; len],
            active: Vec::new(),
            next_active: Vec::new(),
        }
    }

    /// Runs lane `i` from the dense node ids `batch[i]` (at most 64
    /// lanes) and returns each lane's summary.
    fn run(&mut self, flow: &DenseFlow, batch: &[Vec<usize>]) -> Vec<PathwaySummary> {
        let mut out = vec![PathwaySummary::default(); batch.len()];
        self.seen.fill(0);
        for (lane, seed) in batch.iter().enumerate() {
            for &v in seed {
                self.reach(flow, v, 1 << lane, &mut out);
            }
        }
        let mut depth = 0;
        while !self.next_active.is_empty() {
            std::mem::swap(&mut self.frontier, &mut self.next);
            std::mem::swap(&mut self.active, &mut self.next_active);
            let mut lanes = self.active.iter().fold(0, |acc, &v| acc | self.frontier[v]);
            while lanes != 0 {
                out[lanes.trailing_zeros() as usize].max_depth = depth;
                lanes &= lanes - 1;
            }
            for i in 0..self.active.len() {
                let v = self.active[i];
                let lanes = std::mem::take(&mut self.frontier[v]);
                for &source in flow.sources(v) {
                    self.reach(flow, source, lanes, &mut out);
                }
            }
            self.active.clear();
            depth += 1;
        }
        out
    }

    /// `lanes` step onto `v`: the ones reaching it first count it and
    /// carry it into the next level.
    fn reach(&mut self, flow: &DenseFlow, v: usize, lanes: u64, out: &mut [PathwaySummary]) {
        let new = lanes & !self.seen[v];
        if new == 0 {
            return;
        }
        self.seen[v] |= new;
        if self.next[v] == 0 {
            self.next_active.push(v);
        }
        self.next[v] |= new;
        let mut bits = new;
        while bits != 0 {
            let summary = &mut out[bits.trailing_zeros() as usize];
            summary.nodes += 1;
            summary.edges += flow.weight[v];
            summary.reaches_external_world |= flow.external[v];
            bits &= bits - 1;
        }
    }
}

impl PathwayGraph {
    /// Traces where `router`'s routes come from. One-shot form of
    /// [`PathwayIndex::trace`]; callers tracing many routers of the
    /// same network should build the index once instead.
    pub fn trace(
        router: RouterId,
        instances: &Instances,
        graph: &InstanceGraph,
    ) -> PathwayGraph {
        PathwayIndex::new(instances, graph).trace(router)
    }

    /// The maximum depth (number of protocol layers routes must traverse
    /// to reach this router) — net5's router 3 shows "at least 3 layers".
    pub fn max_depth(&self) -> usize {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// True if routes from the external world can reach this router.
    pub fn reaches_external_world(&self) -> bool {
        self.nodes.iter().any(|n| n.node.is_external())
    }

    /// The four figures `/pathways` serves for this pathway.
    pub fn summary(&self) -> PathwaySummary {
        PathwaySummary {
            max_depth: self.max_depth(),
            reaches_external_world: self.reaches_external_world(),
            nodes: self.nodes.len(),
            edges: self.edges.len(),
        }
    }

    /// Instances on the pathway (excluding external nodes).
    pub fn instances(&self) -> Vec<InstanceId> {
        self.nodes
            .iter()
            .filter_map(|n| match n.node {
                InstanceNode::Instance(id) => Some(id),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacencies;
    use crate::instance_graph::InstanceGraph;
    use crate::process::Processes;
    use nettopo::{ExternalAnalysis, LinkMap, Network};

    fn build(net: &Network) -> (Instances, InstanceGraph) {
        let links = LinkMap::build(net);
        let external = ExternalAnalysis::build(net, &links);
        let procs = Processes::extract(net);
        let adj = Adjacencies::build(net, &links, &procs, &external);
        let inst = Instances::compute(&procs, &adj);
        let graph = InstanceGraph::build(net, &procs, &adj, &inst);
        (inst, graph)
    }

    /// Figure 7(a): interior enterprise router learns everything from the
    /// IGP, which learns from BGP, which learns from the world.
    #[test]
    fn enterprise_interior_pathway_is_layered() {
        let net = Network::from_texts(vec![
            (
                "config1".into(), // border
                "interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n \
                  redistribute bgp 65001 subnets\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n"
                    .into(),
            ),
            (
                "config2".into(), // interior: router 1 of Fig. 7(a)
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (inst, graph) = build(&net);
        let pathway = PathwayGraph::trace(RouterId(1), &inst, &graph);
        // OSPF at depth 0, BGP at depth 1, external AS at depth 2.
        assert_eq!(pathway.max_depth(), 2);
        assert!(pathway.reaches_external_world());
        assert_eq!(pathway.instances().len(), 2);
        let depth0: Vec<&PathwayNode> =
            pathway.nodes.iter().filter(|n| n.depth == 0).collect();
        assert_eq!(depth0.len(), 1);
    }

    /// A router cut off from external routes never reaches the world node.
    #[test]
    fn isolated_igp_island() {
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
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (inst, graph) = build(&net);
        let pathway = PathwayGraph::trace(RouterId(0), &inst, &graph);
        assert_eq!(pathway.max_depth(), 0);
        assert!(!pathway.reaches_external_world());
    }

    /// Redistribution direction matters: routes flow along redistribution
    /// arrows, so an instance that only *receives* our routes does not
    /// appear in our pathway.
    #[test]
    fn one_way_redistribution_respected() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                // OSPF→RIP redistribution only: RIP hears OSPF routes but
                // OSPF hears nothing from RIP.
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 interface Ethernet0\n ip address 10.2.0.1 255.255.255.0\n\
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n\
                 router rip\n network 10.2.0.0\n redistribute ospf 1\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (inst, graph) = build(&net);
        // Router 1 runs only OSPF: its pathway must not include RIP.
        let pathway = PathwayGraph::trace(RouterId(1), &inst, &graph);
        let kinds: Vec<_> = pathway
            .instances()
            .iter()
            .map(|id| inst.get(*id).kind)
            .collect();
        assert!(!kinds.contains(&crate::ProtoKind::Rip));
    }

    /// Three borders redistribute RIP into OSPF under route-maps A, B
    /// and A. `trace` keeps one edge per run of equal `(source, policy)`
    /// after its stable sort, so it reports 3 edges where a count of
    /// distinct pairs would give 2; `summaries` must report 3 as well.
    #[test]
    fn summaries_count_policy_runs_as_trace_does() {
        let border = |serial_ip: &str, eth_ip: &str, map: &str| {
            format!(
                "interface Serial0\n ip address {serial_ip} 255.255.255.252\n\
                 interface Ethernet0\n ip address {eth_ip} 255.255.255.0\n\
                 router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n \
                  redistribute rip route-map {map}\n\
                 router rip\n network 10.2.0.0\n"
            )
        };
        let mut texts: Vec<(String, String)> = vec![
            ("config1".into(), border("10.1.0.1", "10.2.0.1", "A")),
            ("config2".into(), border("10.1.0.5", "10.2.0.2", "B")),
            ("config3".into(), border("10.1.0.9", "10.2.0.3", "A")),
        ];
        texts.push((
            "config4".into(), // OSPF interior facing all three borders
            "interface Serial0\n ip address 10.1.0.2 255.255.255.252\n\
             interface Serial1\n ip address 10.1.0.6 255.255.255.252\n\
             interface Serial2\n ip address 10.1.0.10 255.255.255.252\n\
             router ospf 1\n network 10.1.0.0 0.0.255.255 area 0\n"
                .into(),
        ));
        texts.push((
            "config5".into(), // RIP-only router on the shared LAN
            "interface Ethernet0\n ip address 10.2.0.4 255.255.255.0\n\
             router rip\n network 10.2.0.0\n"
                .into(),
        ));
        let net = Network::from_texts(texts).unwrap();
        let (inst, graph) = build(&net);
        let index = PathwayIndex::new(&inst, &graph);
        let interior = index.trace(RouterId(3));
        let policies: Vec<Option<&str>> =
            interior.edges.iter().map(|(_, _, p)| p.as_deref()).collect();
        assert_eq!(policies, [Some("route-map A"), Some("route-map B"), Some("route-map A")]);
        let summaries = index.summaries(net.len());
        assert_eq!(summaries[3], interior.summary());
        assert_eq!(summaries[3].edges, 3);
        for (rid, _) in net.iter() {
            assert_eq!(summaries[rid.0], index.trace(rid).summary(), "router {}", rid.0);
        }
    }

    /// A router in no instance traces nothing; a summary past the
    /// instance list's routers is all zeros too.
    #[test]
    fn summaries_of_unseeded_routers_are_zero() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n".into(),
        )])
        .unwrap();
        let (inst, graph) = build(&net);
        let index = PathwayIndex::new(&inst, &graph);
        assert_eq!(index.trace(RouterId(0)).summary(), PathwaySummary::default());
        assert_eq!(index.summaries(2), [PathwaySummary::default(); 2]);
    }
}
