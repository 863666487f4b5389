//! Routing processes and their identities.
//!
//! One router runs any number of routing processes (Figure 2 shows two
//! OSPF processes and a BGP process on a single router). Each process
//! keeps its own RIB; the local RIB holds connected subnets and static
//! routes; route selection fills the router RIB (Figure 3).

use std::collections::BTreeMap;
use std::fmt;

use ioscfg::{Igp, RedistSource, RouterConfig};
use nettopo::{Network, RouterId};

/// The protocol family of a process (without instance identifiers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtoKind {
    /// OSPFv2.
    Ospf,
    /// EIGRP.
    Eigrp,
    /// Legacy IGRP (counted with EIGRP in the paper's Table 1).
    Igrp,
    /// RIP.
    Rip,
    /// BGP-4.
    Bgp,
}

impl ProtoKind {
    /// True for the protocols conventionally labelled IGPs.
    pub fn is_igp(self) -> bool {
        !matches!(self, ProtoKind::Bgp)
    }

    /// The Table 1 row this protocol contributes to (IGRP folds into
    /// EIGRP, as the paper does).
    pub fn table1_label(self) -> &'static str {
        match self {
            ProtoKind::Ospf => "OSPF",
            ProtoKind::Eigrp | ProtoKind::Igrp => "EIGRP",
            ProtoKind::Rip => "RIP",
            ProtoKind::Bgp => "BGP",
        }
    }
}

impl fmt::Display for ProtoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtoKind::Ospf => "ospf",
            ProtoKind::Eigrp => "eigrp",
            ProtoKind::Igrp => "igrp",
            ProtoKind::Rip => "rip",
            ProtoKind::Bgp => "bgp",
        };
        f.write_str(s)
    }
}

/// The full protocol identity of a process on one router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proto {
    /// `router ospf <pid>`.
    Ospf(u32),
    /// `router eigrp <asn>`.
    Eigrp(u32),
    /// `router igrp <asn>`.
    Igrp(u32),
    /// `router rip`.
    Rip,
    /// `router bgp <asn>`.
    Bgp(u32),
}

impl Proto {
    /// The protocol family.
    pub fn kind(self) -> ProtoKind {
        match self {
            Proto::Ospf(_) => ProtoKind::Ospf,
            Proto::Eigrp(_) => ProtoKind::Eigrp,
            Proto::Igrp(_) => ProtoKind::Igrp,
            Proto::Rip => ProtoKind::Rip,
            Proto::Bgp(_) => ProtoKind::Bgp,
        }
    }

    /// The identity of an IGP process; IGRP and EIGRP processes with the
    /// same AS number stay distinct.
    pub fn of_igp(igp: Igp<'_>) -> Proto {
        match igp {
            Igp::Ospf(p) => Proto::Ospf(p.id),
            Igp::Eigrp(p) if p.is_igrp => Proto::Igrp(p.asn),
            Igp::Eigrp(p) => Proto::Eigrp(p.asn),
            Igp::Rip(_) => Proto::Rip,
        }
    }

    /// The BGP AS number, if this is a BGP process.
    pub fn bgp_asn(self) -> Option<u32> {
        match self {
            Proto::Bgp(asn) => Some(asn),
            _ => None,
        }
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Ospf(id) => write!(f, "ospf {id}"),
            Proto::Eigrp(asn) => write!(f, "eigrp {asn}"),
            Proto::Igrp(asn) => write!(f, "igrp {asn}"),
            Proto::Rip => write!(f, "rip"),
            Proto::Bgp(asn) => write!(f, "bgp AS{asn}"),
        }
    }
}

/// Identifies one routing process: router plus protocol identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcKey {
    /// The router running the process.
    pub router: RouterId,
    /// The protocol identity on that router.
    pub proto: Proto,
}

impl fmt::Display for ProcKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.router, self.proto)
    }
}

/// One routing process, with the interface coverage the analyses need.
#[derive(Clone, Debug)]
pub struct RoutingProcess {
    /// Identity.
    pub key: ProcKey,
    /// Indices (into the router's interface list) of interfaces associated
    /// with this process via `network` statements. Empty for BGP (BGP
    /// associates with neighbors, not interfaces).
    pub covered_ifaces: Vec<usize>,
    /// Of those, the interfaces marked `passive-interface` (no adjacency).
    pub passive_ifaces: Vec<usize>,
    /// Redistribution statements targeting *this* process (i.e. appearing
    /// inside its stanza), with resolved sources.
    pub redistributes: Vec<ioscfg::Redistribution>,
}

impl RoutingProcess {
    /// True if this process actively covers interface `idx` (covered and
    /// not passive).
    pub fn active_on(&self, idx: usize) -> bool {
        self.covered_ifaces.contains(&idx) && !self.passive_ifaces.contains(&idx)
    }
}

/// All routing processes of a network, with lookup by key.
#[derive(Clone, Debug, Default)]
pub struct Processes {
    /// Processes in deterministic order (by key).
    pub list: Vec<RoutingProcess>,
    index: BTreeMap<ProcKey, usize>,
}

impl Processes {
    /// Extracts every routing process from a network's configurations.
    pub fn extract(net: &Network) -> Processes {
        let mut list = Vec::new();
        for (rid, router) in net.iter() {
            extract_router(rid, &router.config, &mut list);
        }
        list.sort_by_key(|p| p.key);
        let index = list.iter().enumerate().map(|(i, p)| (p.key, i)).collect();
        Processes { list, index }
    }

    /// Rebuilds a `Processes` from an already-extracted, key-sorted list
    /// (e.g. one restored from a snapshot). The lookup index is derived
    /// from the list, so the result is identical to the `extract` output
    /// the list came from.
    pub fn from_list(mut list: Vec<RoutingProcess>) -> Processes {
        list.sort_by_key(|p| p.key);
        let index = list.iter().enumerate().map(|(i, p)| (p.key, i)).collect();
        Processes { list, index }
    }

    /// Looks up a process by key.
    pub fn get(&self, key: ProcKey) -> Option<&RoutingProcess> {
        self.index.get(&key).map(|&i| &self.list[i])
    }

    /// The position of a key in `list`.
    pub fn position(&self, key: ProcKey) -> Option<usize> {
        self.index.get(&key).copied()
    }

    /// All processes on one router.
    ///
    /// `list` is sorted by key and `ProcKey` orders by router first, so a
    /// router's processes form one contiguous run found by binary search —
    /// this is on the hot path of adjacency computation over large
    /// corpora.
    pub fn on_router(&self, router: RouterId) -> impl Iterator<Item = &RoutingProcess> {
        let start = self.list.partition_point(|p| p.key.router < router);
        let end = self.list.partition_point(|p| p.key.router <= router);
        self.list[start..end].iter()
    }

    /// Resolves a redistribution source on `router` to a process key.
    /// `Connected`/`Static` resolve to `None` (they live in the local RIB).
    pub fn resolve_source(
        &self,
        router: RouterId,
        source: RedistSource,
    ) -> Option<ProcKey> {
        let proto = match source {
            RedistSource::Connected | RedistSource::Static => return None,
            RedistSource::Ospf(id) => Proto::Ospf(id),
            RedistSource::Eigrp(asn) => Proto::Eigrp(asn),
            RedistSource::Igrp(asn) => Proto::Igrp(asn),
            RedistSource::Rip => Proto::Rip,
            RedistSource::Bgp(asn) => Proto::Bgp(asn),
        };
        let key = ProcKey { router, proto };
        self.get(key).map(|p| p.key)
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if no processes exist.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

fn extract_router(rid: RouterId, cfg: &RouterConfig, out: &mut Vec<RoutingProcess>) {
    let iface_addrs: Vec<Option<netaddr::Addr>> =
        cfg.interfaces.iter().map(|i| i.address.map(|a| a.addr)).collect();
    for igp in cfg.igps() {
        let policy = igp.policy();
        out.push(RoutingProcess {
            key: ProcKey { router: rid, proto: Proto::of_igp(igp) },
            covered_ifaces: iface_addrs
                .iter()
                .enumerate()
                .filter_map(|(idx, addr)| addr.filter(|a| igp.covers(*a)).map(|_| idx))
                .collect(),
            passive_ifaces: cfg
                .interfaces
                .iter()
                .enumerate()
                .filter(|(_, i)| policy.passive.contains(&i.name))
                .map(|(idx, _)| idx)
                .collect(),
            redistributes: policy.redistribute.clone(),
        });
    }
    if let Some(p) = &cfg.bgp {
        out.push(RoutingProcess {
            key: ProcKey { router: rid, proto: Proto::Bgp(p.asn) },
            covered_ifaces: Vec::new(),
            passive_ifaces: Vec::new(),
            redistributes: p.redistribute.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettopo::Network;

    fn sample() -> Network {
        Network::from_texts(vec![(
            "config1".into(),
            "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
             interface Serial0\n ip address 10.0.1.1 255.255.255.252\n\
             router ospf 64\n network 10.0.0.0 0.0.0.255 area 0\n passive-interface Ethernet0\n\
             router ospf 128\n network 10.0.1.0 0.0.0.3 area 1\n\
             router bgp 65001\n redistribute ospf 64\n"
                .into(),
        )])
        .unwrap()
    }

    #[test]
    fn extracts_all_processes() {
        let procs = Processes::extract(&sample());
        assert_eq!(procs.len(), 3);
        let keys: Vec<String> = procs.list.iter().map(|p| p.key.to_string()).collect();
        assert_eq!(keys, vec!["r0:ospf 64", "r0:ospf 128", "r0:bgp AS65001"]);
    }

    #[test]
    fn coverage_and_passivity() {
        let procs = Processes::extract(&sample());
        let ospf64 = procs
            .get(ProcKey { router: RouterId(0), proto: Proto::Ospf(64) })
            .unwrap();
        assert_eq!(ospf64.covered_ifaces, vec![0]);
        assert_eq!(ospf64.passive_ifaces, vec![0]);
        assert!(!ospf64.active_on(0));
        let ospf128 = procs
            .get(ProcKey { router: RouterId(0), proto: Proto::Ospf(128) })
            .unwrap();
        assert!(ospf128.active_on(1));
        assert!(!ospf128.active_on(0));
    }

    #[test]
    fn resolves_redistribution_sources() {
        let procs = Processes::extract(&sample());
        let rid = RouterId(0);
        assert_eq!(
            procs.resolve_source(rid, RedistSource::Ospf(64)),
            Some(ProcKey { router: rid, proto: Proto::Ospf(64) })
        );
        assert_eq!(procs.resolve_source(rid, RedistSource::Ospf(999)), None);
        assert_eq!(procs.resolve_source(rid, RedistSource::Connected), None);
    }

    #[test]
    fn proto_ordering_is_stable() {
        // Ospf < Eigrp < Igrp < Rip < Bgp by declaration order.
        assert!(Proto::Ospf(999) < Proto::Eigrp(1));
        assert!(Proto::Eigrp(999) < Proto::Rip);
        assert!(Proto::Rip < Proto::Bgp(1));
    }

    #[test]
    fn table1_labels() {
        assert_eq!(ProtoKind::Igrp.table1_label(), "EIGRP");
        assert_eq!(ProtoKind::Eigrp.table1_label(), "EIGRP");
        assert!(ProtoKind::Ospf.is_igp());
        assert!(!ProtoKind::Bgp.is_igp());
    }
}
