//! Routing instances (paper Section 3.2).
//!
//! A routing instance is the set of routing processes that share routing
//! information directly: the transitive closure of same-protocol
//! adjacency, computed by flood fill that stops at protocol-type changes
//! and at EBGP adjacencies between BGP speakers with different AS numbers.
//! Process ids are deliberately ignored — they have no network-wide
//! semantics (the paper shows same-id processes in different instances
//! and different-id processes in the same instance).

use std::collections::BTreeMap;
use std::fmt;

use nettopo::RouterId;

use crate::adjacency::{Adjacencies, SessionScope};
use crate::process::{ProcKey, Processes, ProtoKind};

/// Identifier of a routing instance within one network's analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub usize);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance {}", self.0)
    }
}

/// One routing instance.
#[derive(Clone, Debug)]
pub struct RoutingInstance {
    /// Stable id (assigned in descending router-count order, so instance 0
    /// is the largest — mirroring how the paper numbers net5's instances).
    pub id: InstanceId,
    /// The protocol family all members share.
    pub kind: ProtoKind,
    /// For BGP instances, the shared AS number.
    pub asn: Option<u32>,
    /// Member processes, sorted.
    pub processes: Vec<ProcKey>,
    /// Distinct routers with a member process, sorted.
    pub routers: Vec<RouterId>,
}

impl RoutingInstance {
    /// Number of routers participating.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// A short human label like `eigrp (445 routers)` or `bgp AS65001`.
    pub fn label(&self) -> String {
        let n = self.routers.len();
        let noun = if n == 1 { "router" } else { "routers" };
        match self.asn {
            Some(asn) => format!("{} AS{asn} ({n} {noun})", self.kind),
            None => format!("{} ({n} {noun})", self.kind),
        }
    }
}

/// The set of routing instances of one network.
#[derive(Clone, Debug, Default)]
pub struct Instances {
    /// Instances, largest first.
    pub list: Vec<RoutingInstance>,
    membership: BTreeMap<ProcKey, InstanceId>,
}

impl Instances {
    /// Computes the instances by union-find over adjacency edges.
    pub fn compute(procs: &Processes, adj: &Adjacencies) -> Instances {
        let n = procs.len();
        let mut uf = UnionFind::new(n);

        // IGP adjacencies merge (same type was already enforced when the
        // adjacency was built).
        for a in &adj.igp {
            let (Some(i), Some(j)) = (procs.position(a.a), procs.position(a.b)) else {
                continue;
            };
            uf.union(i, j);
        }
        // BGP sessions merge only within an AS (IBGP). EBGP — internal or
        // external — is a boundary the flood fill must stop at.
        for s in &adj.bgp {
            if s.scope != SessionScope::Ibgp {
                continue;
            }
            let (Some(peer), Some(i)) = (s.peer, procs.position(s.local)) else { continue };
            let Some(j) = procs.position(peer) else { continue };
            uf.union(i, j);
        }

        // Gather members per root.
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..n {
            groups.entry(uf.find(i)).or_default().push(i);
        }

        let mut list: Vec<RoutingInstance> = groups
            .into_values()
            .map(|members| {
                let processes: Vec<ProcKey> =
                    members.iter().map(|&i| procs.list[i].key).collect();
                let kind = processes[0].proto.kind();
                let asn = processes[0].proto.bgp_asn();
                let mut routers: Vec<RouterId> =
                    processes.iter().map(|k| k.router).collect();
                routers.sort();
                routers.dedup();
                RoutingInstance {
                    id: InstanceId(0), // assigned below
                    kind,
                    asn,
                    processes,
                    routers,
                }
            })
            .collect();

        // Largest instance first; ties broken by protocol and members for
        // determinism.
        list.sort_by(|a, b| {
            b.routers
                .len()
                .cmp(&a.routers.len())
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.processes.cmp(&b.processes))
        });
        let mut membership = BTreeMap::new();
        for (idx, inst) in list.iter_mut().enumerate() {
            inst.id = InstanceId(idx);
            for p in &inst.processes {
                membership.insert(*p, inst.id);
            }
        }

        Instances { list, membership }
    }

    /// Rebuilds an `Instances` from an already-computed list (e.g. one
    /// restored from a snapshot). Ids are trusted to match list positions
    /// — which `compute` guarantees — and the membership index is derived
    /// from each instance's process set.
    pub fn from_list(list: Vec<RoutingInstance>) -> Instances {
        let mut membership = BTreeMap::new();
        for inst in &list {
            for p in &inst.processes {
                membership.insert(*p, inst.id);
            }
        }
        Instances { list, membership }
    }

    /// The instance a process belongs to.
    pub fn instance_of(&self, key: ProcKey) -> Option<InstanceId> {
        self.membership.get(&key).copied()
    }

    /// The instance by id.
    pub fn get(&self, id: InstanceId) -> &RoutingInstance {
        &self.list[id.0]
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if there are no instances.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// IGP instances that contain exactly one router — the "staging"
    /// instances characteristic of tier-2 providers (Section 7.1).
    pub fn staging_instances(&self) -> impl Iterator<Item = &RoutingInstance> {
        self.list
            .iter()
            .filter(|i| i.kind.is_igp() && i.routers.len() == 1)
    }
}

/// Minimal union-find with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacencies;
    use crate::process::Processes;
    use nettopo::{ExternalAnalysis, LinkMap, Network};

    fn compute(net: &Network) -> (Processes, Instances) {
        let links = LinkMap::build(net);
        let external = ExternalAnalysis::build(net, &links);
        let procs = Processes::extract(net);
        let adj = Adjacencies::build(net, &links, &procs, &external);
        let inst = Instances::compute(&procs, &adj);
        (procs, inst)
    }

    /// A 3-router OSPF chain with *different* process ids: one instance.
    #[test]
    fn different_pids_one_instance() {
        let mk = |addr1: &str, addr2: Option<&str>, pid: u32| {
            let mut text = format!(
                "interface Serial0\n ip address {addr1} 255.255.255.252\n"
            );
            if let Some(a2) = addr2 {
                text.push_str(&format!(
                    "interface Serial1\n ip address {a2} 255.255.255.252\n"
                ));
            }
            text.push_str(&format!(
                "router ospf {pid}\n network 10.0.0.0 0.0.255.255 area 0\n"
            ));
            text
        };
        let net = Network::from_texts(vec![
            ("config1".into(), mk("10.0.0.1", None, 7)),
            ("config2".into(), mk("10.0.0.2", Some("10.0.1.1"), 88)),
            ("config3".into(), mk("10.0.1.2", None, 7)),
        ])
        .unwrap();
        let (_, inst) = compute(&net);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.list[0].router_count(), 3);
        assert_eq!(inst.list[0].kind, ProtoKind::Ospf);
    }

    /// Two OSPF islands (no shared link): two instances, even with the
    /// same process id.
    #[test]
    fn same_pid_disconnected_two_instances() {
        let mk = |addr: &str| {
            format!(
                "interface Serial0\n ip address {addr} 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
            )
        };
        let net = Network::from_texts(vec![
            ("config1".into(), mk("10.0.0.1")),
            ("config2".into(), mk("10.0.0.2")),
            ("config3".into(), mk("10.0.9.1")),
            ("config4".into(), mk("10.0.9.2")),
        ])
        .unwrap();
        let (_, inst) = compute(&net);
        assert_eq!(inst.len(), 2);
        assert!(inst.list.iter().all(|i| i.router_count() == 2));
    }

    /// IBGP merges into one instance; EBGP between different internal ASes
    /// stays split (net5's structure in miniature).
    #[test]
    fn ibgp_merges_ebgp_splits() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.1.1 255.255.255.252\n\
                 router bgp 65001\n neighbor 10.0.0.2 remote-as 65001\n \
                 neighbor 10.0.1.2 remote-as 65002\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router bgp 65001\n neighbor 10.0.0.1 remote-as 65001\n"
                    .into(),
            ),
            (
                "config3".into(),
                "interface Serial0\n ip address 10.0.1.2 255.255.255.252\n\
                 router bgp 65002\n neighbor 10.0.1.1 remote-as 65001\n"
                    .into(),
            ),
        ])
        .unwrap();
        let (_, inst) = compute(&net);
        assert_eq!(inst.len(), 2);
        let asns: Vec<Option<u32>> = inst.list.iter().map(|i| i.asn).collect();
        assert!(asns.contains(&Some(65001)));
        assert!(asns.contains(&Some(65002)));
        let big = &inst.list[0];
        assert_eq!(big.router_count(), 2);
        assert_eq!(big.asn, Some(65001));
    }

    /// Instances partition the processes.
    #[test]
    fn instances_partition_processes() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n\
                 router rip\n network 10.0.0.0\n"
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
        let (procs, inst) = compute(&net);
        let total: usize = inst.list.iter().map(|i| i.processes.len()).sum();
        assert_eq!(total, procs.len());
        for p in &procs.list {
            assert!(inst.instance_of(p.key).is_some());
        }
        // RIP and OSPF never share an instance.
        for i in &inst.list {
            let kinds: std::collections::BTreeSet<ProtoKind> =
                i.processes.iter().map(|p| p.proto.kind()).collect();
            assert_eq!(kinds.len(), 1);
        }
    }

    /// Single-router IGP instances are recognized as staging instances.
    #[test]
    fn staging_instance_detection() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
             router rip\n network 10.0.0.0\n"
                .into(),
        )])
        .unwrap();
        let (_, inst) = compute(&net);
        assert_eq!(inst.staging_instances().count(), 1);
    }
}
