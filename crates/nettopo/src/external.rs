//! Internal/external-facing classification (paper Sections 2.1 and 5.2).
//!
//! Point-to-point /30 links are internal exactly when both usable host
//! addresses appear in the corpus. Multipoint links (and unmatched LAN
//! subnets) are internal unless some router uses an address on the subnet
//! as the next hop toward an *external* destination — then an external
//! router must be present on the link to accept those packets.
//!
//! The same analysis yields the paper's Figure 11 metric (what fraction of
//! packet-filter rules sit on internal links) and the address-block
//! heuristic for detecting routers missing from the data set.

use std::collections::BTreeSet;

use netaddr::{AddrSet, BlockTree, Prefix, PrefixMap};

use crate::link::{IfaceRef, LinkMap};
use crate::network::{Network, RouterId};

/// Classification of one interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IfaceClass {
    /// Both ends of the link are inside the corpus.
    Internal,
    /// The other side is outside the network.
    External,
    /// No IP address and no link (loopbacks, shutdown, unnumbered).
    Unaddressed,
}

/// Per-interface classifications in a dense per-router layout: router
/// `r`'s interfaces occupy `flat[offsets[r] .. offsets[r + 1]]`, indexed
/// by interface position. [`IfaceRef`] is already `(router, iface index)`,
/// so a lookup is two array reads — no tree to walk.
///
/// The table is *total* by construction: [`ExternalAnalysis::build`] gives
/// every interface of every router a slot, so there is no lookup-miss
/// path. An out-of-range [`IfaceRef`] can only come from a different
/// network and panics like any slice misuse.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IfaceClasses {
    /// `offsets[r]` is where router `r`'s slots start; len = routers + 1.
    offsets: Vec<usize>,
    /// All classes, router-major, interface order within each router.
    flat: Vec<IfaceClass>,
}

impl IfaceClasses {
    /// Builds from per-router class vectors (one entry per interface, in
    /// interface order).
    pub fn from_per_router(per_router: Vec<Vec<IfaceClass>>) -> IfaceClasses {
        let mut offsets = Vec::with_capacity(per_router.len() + 1);
        offsets.push(0);
        let mut flat = Vec::new();
        for classes in per_router {
            flat.extend(classes);
            offsets.push(flat.len());
        }
        IfaceClasses { offsets, flat }
    }

    /// Total number of interface slots.
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// True if no router has any interface.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Number of routers.
    pub fn routers(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The class of `iface`. Slicing by the router's own bounds makes a
    /// stale reference into a different network panic rather than silently
    /// read a neighbouring router's slot.
    pub fn get(&self, iface: IfaceRef) -> IfaceClass {
        self.router_classes(iface.router)[iface.iface]
    }

    /// One router's classes, in interface order. Routers beyond the table
    /// read as interface-less: a snapshot cannot record trailing routers
    /// that have no interfaces (they contribute no `(key, class)` pairs),
    /// so a decoded table may be shorter than the network — exactly the
    /// lookup-miss case the old `BTreeMap` representation tolerated.
    pub fn router_classes(&self, router: RouterId) -> &[IfaceClass] {
        match (self.offsets.get(router.0), self.offsets.get(router.0 + 1)) {
            (Some(&start), Some(&end)) => &self.flat[start..end],
            _ => &[],
        }
    }

    /// Iterates `(IfaceRef, IfaceClass)` in `(router, interface)` order —
    /// the same order the previous `BTreeMap` representation iterated in,
    /// which downstream output (audit listings, hints) depends on.
    pub fn iter(&self) -> impl Iterator<Item = (IfaceRef, IfaceClass)> + '_ {
        (0..self.routers()).flat_map(move |r| {
            self.router_classes(RouterId(r)).iter().enumerate().map(
                move |(i, &class)| (IfaceRef { router: RouterId(r), iface: i }, class),
            )
        })
    }

    /// All classes, router-major (the dense backing store).
    pub fn as_slice(&self) -> &[IfaceClass] {
        &self.flat
    }
}

/// A hint that an "external-facing" interface is probably the stub of a
/// router whose configuration is missing from the data set (Section 3.4).
#[derive(Clone, Debug)]
pub struct MissingRouterHint {
    /// The suspicious interface.
    pub iface: IfaceRef,
    /// Its subnet.
    pub subnet: Prefix,
    /// The internal address block the subnet falls inside.
    pub block: Prefix,
}

/// Results of the external-facing analysis.
#[derive(Clone, Debug)]
pub struct ExternalAnalysis {
    /// Per-interface classification (total: every interface has a slot).
    pub classes: IfaceClasses,
    /// Subnets classified as external-facing links.
    pub external_subnets: BTreeSet<Prefix>,
    /// Candidate missing routers.
    pub missing_router_hints: Vec<MissingRouterHint>,
}

impl ExternalAnalysis {
    /// Runs the analysis.
    ///
    /// The "known to be inside the network" test uses address blocks
    /// recovered from *interface* subnets only — static-route and BGP
    /// `network` destinations may well be external space, which is exactly
    /// what the next-hop rule needs to detect.
    pub fn build(net: &Network, links: &LinkMap) -> ExternalAnalysis {
        let blocks: BlockTree =
            netaddr::recover_blocks(net.iter().flat_map(|(_, r)| r.config.interface_subnets()));
        // Every interface address in the corpus (for next-hop matching),
        // as a sorted slice: O(log n) membership, O(log n) range queries.
        let internal_addrs: AddrSet = net
            .iter()
            .flat_map(|(_, r)| {
                r.config.interfaces.iter().flat_map(|iface| {
                    iface.address.iter().chain(iface.secondary.iter()).map(|a| a.addr)
                })
            })
            .collect();

        // Destinations "known to be inside the network": covered by a
        // recovered address block. Roots are sorted and disjoint, so one
        // binary search replaces the old scan over every root.
        let is_internal_dest = |p: Prefix| -> bool { blocks.covering_root(p).is_some() };

        // Next-hop addresses used toward external destinations, plus all
        // EBGP neighbor addresses that are not internal interfaces.
        let mut hops: Vec<netaddr::Addr> = Vec::new();
        for (_, router) in net.iter() {
            for sr in &router.config.static_routes {
                if let ioscfg::StaticTarget::NextHop(nh) = sr.target {
                    if !internal_addrs.contains(nh) && !is_internal_dest(sr.prefix()) {
                        hops.push(nh);
                    }
                }
            }
            if let Some(bgp) = &router.config.bgp {
                for n in bgp.ebgp_neighbors() {
                    if !internal_addrs.contains(n.addr) {
                        hops.push(n.addr);
                    }
                }
            }
        }
        let external_next_hops = AddrSet::new(hops);

        // Classification is pure per interface, so it fans out over routers;
        // the cost floor keeps small networks inline where thread setup
        // would cost more than the work.
        let iface_total: usize =
            net.routers.iter().map(|r| r.config.interfaces.len()).sum();
        let per_router: Vec<Vec<IfaceClass>> = rd_par::par_map_cost(
            iface_total as u64 * CLASSIFY_COST_PER_IFACE,
            &net.routers,
            |_, router| {
                router
                    .config
                    .interfaces
                    .iter()
                    .map(|iface| classify_iface(iface, links, &external_next_hops))
                    .collect()
            },
        );
        let classes = IfaceClasses::from_per_router(per_router);

        let mut external_subnets = BTreeSet::new();
        for (rid, router) in net.iter() {
            for (idx, iface) in router.config.interfaces.iter().enumerate() {
                if classes.get(IfaceRef { router: rid, iface: idx }) == IfaceClass::External
                {
                    if let Some(a) = iface.address {
                        external_subnets.insert(a.subnet());
                    }
                }
            }
        }

        let missing_router_hints =
            find_missing_hints(net, &classes, &blocks, &external_subnets);

        ExternalAnalysis { classes, external_subnets, missing_router_hints }
    }

    /// The classification of one interface. The class table is total over
    /// the analyzed network's interfaces, so there is no miss path.
    pub fn class_of(&self, iface: IfaceRef) -> IfaceClass {
        self.classes.get(iface)
    }

    /// Counts `(internal, external, unaddressed)` interfaces — one linear
    /// pass over the dense class slice.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for class in self.classes.as_slice() {
            match class {
                IfaceClass::Internal => c.0 += 1,
                IfaceClass::External => c.1 += 1,
                IfaceClass::Unaddressed => c.2 += 1,
            }
        }
        c
    }

    /// Figure 11 metric: `(rules_on_internal, total_applied_rules)`.
    ///
    /// Each access-list clause counts once per interface application, so a
    /// 47-clause filter on one interface contributes 47 rules (the paper
    /// counts "each clause as a separate filter rule").
    pub fn filter_placement(&self, net: &Network) -> (usize, usize) {
        let mut internal = 0usize;
        let mut total = 0usize;
        for (rid, router) in net.iter() {
            let classes = self.classes.router_classes(rid);
            for (iface, &class) in router.config.interfaces.iter().zip(classes) {
                for acl_id in [iface.access_group_in, iface.access_group_out]
                    .into_iter()
                    .flatten()
                {
                    let rules = router
                        .config
                        .access_lists
                        .get(&acl_id)
                        .map(|acl| acl.entries.len())
                        .unwrap_or(0);
                    total += rules;
                    if class == IfaceClass::Internal {
                        internal += rules;
                    }
                }
            }
        }
        (internal, total)
    }

    /// Routers that have at least one external-facing interface (the
    /// network's border routers). One contiguous scan per router.
    pub fn border_routers(&self) -> BTreeSet<RouterId> {
        (0..self.classes.routers())
            .map(RouterId)
            .filter(|&r| {
                self.classes.router_classes(r).contains(&IfaceClass::External)
            })
            .collect()
    }
}

/// Rough per-interface classification cost in [`rd_par::COST_FLOOR`] units
/// (a couple of binary searches plus a link lookup); chosen so whale
/// networks fan out and small fixtures stay inline.
const CLASSIFY_COST_PER_IFACE: u64 = 64;

fn classify_iface(
    iface: &ioscfg::Interface,
    links: &LinkMap,
    external_next_hops: &AddrSet,
) -> IfaceClass {
    let Some(addr) = iface.address else {
        return IfaceClass::Unaddressed;
    };
    if iface.shutdown {
        return IfaceClass::Unaddressed;
    }
    let subnet = addr.subnet();
    if subnet.len() == 32 {
        return IfaceClass::Unaddressed; // loopback-style host address
    }
    let endpoints = links.link_of(subnet).map(|l| l.endpoints.len()).unwrap_or(1);

    if subnet.is_p2p() {
        // Internal iff both usable host addresses are in the corpus.
        return if endpoints >= 2 { IfaceClass::Internal } else { IfaceClass::External };
    }

    // Multipoint (or stub LAN): external if some address of the subnet is
    // used as a next hop toward external destinations. This was the
    // stage's O(interfaces × next-hops) hot spot; the sorted-slice range
    // query answers it in O(log n).
    if external_next_hops.any_in_prefix(subnet) {
        IfaceClass::External
    } else {
        IfaceClass::Internal
    }
}

/// Section 3.4's heuristic: an external-facing interface whose address
/// falls *inside* an internal address block probably points at a missing
/// router, not a real external peer.
fn find_missing_hints(
    net: &Network,
    classes: &IfaceClasses,
    blocks: &BlockTree,
    external_subnets: &BTreeSet<Prefix>,
) -> Vec<MissingRouterHint> {
    // A block counts as "internal" when most of its leaves are internal
    // link subnets — approximate by requiring the block to contain at
    // least 4 subnets, of which at most one is external-facing.
    //
    // The per-root `(leaf count, external leaf count)` statistics are
    // computed once up front (the old code re-walked `block.leaves()` for
    // every external candidate) and looked up per candidate in O(log n).
    let stats: PrefixMap<(usize, usize)> = blocks
        .roots
        .iter()
        .map(|b| {
            let mut total = 0usize;
            let mut external = 0usize;
            b.for_each_leaf(&mut |leaf| {
                total += 1;
                if external_subnets.contains(&leaf) {
                    external += 1;
                }
            });
            (b.prefix, (total, external))
        })
        .collect();

    let mut hints = Vec::new();
    for (iref, class) in classes.iter() {
        if class != IfaceClass::External {
            continue;
        }
        let router = net.router(iref.router);
        let Some(addr) = router.config.interfaces[iref.iface].address else { continue };
        let subnet = addr.subnet();
        let Some((block, &(leaves, external_leaves))) = stats.lookup(addr.addr) else {
            continue;
        };
        if leaves < 4 {
            continue;
        }
        if external_leaves <= 1 {
            hints.push(MissingRouterHint { iface: iref, subnet, block });
        }
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkMap;
    use crate::network::Network;

    fn analyze(net: &Network) -> ExternalAnalysis {
        let links = LinkMap::build(net);
        ExternalAnalysis::build(net, &links)
    }

    #[test]
    fn p2p_with_both_ends_is_internal() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n".into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n".into(),
            ),
        ])
        .unwrap();
        let a = analyze(&net);
        assert_eq!(a.counts(), (2, 0, 0));
        assert!(a.external_subnets.is_empty());
    }

    #[test]
    fn p2p_with_one_end_is_external() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n".into(),
        )])
        .unwrap();
        let a = analyze(&net);
        assert_eq!(a.counts(), (0, 1, 0));
        assert_eq!(a.border_routers().len(), 1);
    }

    #[test]
    fn lan_is_internal_without_external_next_hops() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n".into(),
        )])
        .unwrap();
        let a = analyze(&net);
        assert_eq!(a.counts(), (1, 0, 0));
    }

    #[test]
    fn lan_with_external_next_hop_is_external() {
        // A static route to a destination outside every internal block,
        // via a next hop on the Ethernet that is not any internal iface.
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n\
             ip route 198.51.100.0 255.255.255.0 10.1.0.254\n"
                .into(),
        )])
        .unwrap();
        let a = analyze(&net);
        assert_eq!(a.counts(), (0, 1, 0));
    }

    #[test]
    fn ebgp_neighbor_marks_link_external() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
             router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n"
                .into(),
        )])
        .unwrap();
        let a = analyze(&net);
        assert_eq!(a.counts(), (0, 1, 0));
    }

    #[test]
    fn filter_placement_counts_rules_per_application() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n ip access-group 10 in\n\
                 access-list 10 deny 192.0.2.0 0.0.0.255\n\
                 access-list 10 permit any\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n".into(),
            ),
        ])
        .unwrap();
        let a = analyze(&net);
        let (internal, total) = a.filter_placement(&net);
        assert_eq!((internal, total), (2, 2));
    }

    #[test]
    fn missing_router_hint_fires_inside_internal_block() {
        // Five /30s from one block: four fully-populated (internal) and
        // one with a single end — the signature of a router whose config
        // file is missing from the data set (Section 3.4).
        let mk = |n: u32, both: bool| {
            let base = n * 4;
            let mut texts = vec![format!(
                "interface Serial0\n ip address 10.0.0.{} 255.255.255.252\n",
                base + 1
            )];
            if both {
                texts.push(format!(
                    "interface Serial0\n ip address 10.0.0.{} 255.255.255.252\n",
                    base + 2
                ));
            }
            texts
        };
        let mut configs = Vec::new();
        for n in 0..4 {
            for t in mk(n, true) {
                configs.push((format!("config{}", configs.len() + 1), t));
            }
        }
        for t in mk(4, false) {
            configs.push((format!("config{}", configs.len() + 1), t));
        }
        let net = Network::from_texts(configs).unwrap();
        let a = analyze(&net);
        assert_eq!(a.counts().1, 1, "one external-facing interface");
        assert_eq!(a.missing_router_hints.len(), 1, "{:?}", a.missing_router_hints);
        let hint = &a.missing_router_hints[0];
        assert_eq!(hint.subnet.to_string(), "10.0.0.16/30");
        assert!(hint.block.covers(hint.subnet));
    }

    #[test]
    fn no_hint_for_genuinely_external_block() {
        // A lone external /30 from its own distant block: no hint.
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
             interface Serial1\n ip address 10.0.0.1 255.255.255.252\n"
                .into(),
        ), (
            "config2".into(),
            "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n".into(),
        )])
        .unwrap();
        let a = analyze(&net);
        assert!(a.missing_router_hints.is_empty(), "{:?}", a.missing_router_hints);
    }

    #[test]
    fn loopbacks_are_unaddressed_class() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Loopback0\n ip address 10.9.9.9 255.255.255.255\n".into(),
        )])
        .unwrap();
        let a = analyze(&net);
        assert_eq!(a.counts(), (0, 0, 1));
    }
}
