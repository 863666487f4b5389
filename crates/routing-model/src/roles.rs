//! Intra-/inter-domain role classification (paper Section 5.2, Table 1).
//!
//! "Routing protocol instances that have adjacencies with the instances of
//! another network are considered to be serving as an EGP or inter-domain
//! protocol; otherwise they are being used as an IGP or intra-domain
//! protocol." EBGP sessions are classified by whether the peer is inside
//! the corpus (intra-network use of EBGP) or outside (conventional
//! inter-domain use).

use std::collections::BTreeMap;
use std::fmt;

use crate::adjacency::{Adjacencies, SessionScope};
use crate::instance::Instances;
use crate::instance_graph::InstanceGraph;

/// Intra/inter counts for one protocol row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoleCounts {
    /// Used inside the network.
    pub intra: usize,
    /// Used across the network boundary.
    pub inter: usize,
}

impl RoleCounts {
    /// Total uses.
    pub fn total(&self) -> usize {
        self.intra + self.inter
    }

    /// Fraction of uses that are inter-domain (0 when empty).
    pub fn inter_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.inter as f64 / self.total() as f64
        }
    }
}

/// Table 1: per-protocol intra/inter counts. IGP rows count routing
/// *instances*; the EBGP row counts *sessions*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table1 {
    /// Rows keyed by protocol label (`OSPF`, `EIGRP`, `RIP`).
    pub igp_instances: BTreeMap<&'static str, RoleCounts>,
    /// The EBGP session row.
    pub ebgp_sessions: RoleCounts,
    /// IBGP sessions (not a Table 1 row, but needed by the design
    /// classifier and interesting in its own right).
    pub ibgp_sessions: usize,
}

impl Table1 {
    /// Computes the counts for one network.
    pub fn compute(instances: &Instances, graph: &InstanceGraph, adj: &Adjacencies) -> Table1 {
        let mut t = Table1::default();
        let inter_domain = graph.inter_domain();
        for inst in &instances.list {
            if !inst.kind.is_igp() {
                continue;
            }
            let row = t.igp_instances.entry(inst.kind.table1_label()).or_default();
            if inter_domain.contains(&inst.id) {
                row.inter += 1;
            } else {
                row.intra += 1;
            }
        }
        for s in &adj.bgp {
            match s.scope {
                SessionScope::Ibgp => t.ibgp_sessions += 1,
                SessionScope::EbgpInternal => t.ebgp_sessions.intra += 1,
                SessionScope::EbgpExternal => t.ebgp_sessions.inter += 1,
            }
        }
        t
    }

    /// Accumulates another network's counts (the paper's Table 1 sums all
    /// 31 networks).
    pub fn add(&mut self, other: &Table1) {
        for (label, counts) in &other.igp_instances {
            let row = self.igp_instances.entry(label).or_default();
            row.intra += counts.intra;
            row.inter += counts.inter;
        }
        self.ebgp_sessions.intra += other.ebgp_sessions.intra;
        self.ebgp_sessions.inter += other.ebgp_sessions.inter;
        self.ibgp_sessions += other.ibgp_sessions;
    }

    /// Counts for one IGP row.
    pub fn igp_row(&self, label: &str) -> RoleCounts {
        self.igp_instances.get(label).copied().unwrap_or_default()
    }

    /// Total IGP instances across rows.
    pub fn igp_totals(&self) -> RoleCounts {
        let mut total = RoleCounts::default();
        for c in self.igp_instances.values() {
            total.intra += c.intra;
            total.inter += c.inter;
        }
        total
    }

    /// Fraction of IGP instances serving an inter-domain role (the paper
    /// reports ≈11%).
    pub fn igp_inter_fraction(&self) -> f64 {
        self.igp_totals().inter_fraction()
    }

    /// Fraction of EBGP sessions used intra-network (the paper reports
    /// ≈10%).
    pub fn ebgp_intra_fraction(&self) -> f64 {
        let t = self.ebgp_sessions.total();
        if t == 0 {
            0.0
        } else {
            self.ebgp_sessions.intra as f64 / t as f64
        }
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<16} {:>10} {:>10}", "", "Intra-", "Inter-")?;
        writeln!(
            f,
            "{:<16} {:>10} {:>10}",
            "EBGP Sessions", self.ebgp_sessions.intra, self.ebgp_sessions.inter
        )?;
        for label in ["OSPF", "EIGRP", "RIP"] {
            let row = self.igp_row(label);
            writeln!(f, "{:<16} {:>10} {:>10}", label, row.intra, row.inter)?;
        }
        let t = self.igp_totals();
        writeln!(f, "{:<16} {:>10} {:>10}", "IGP total", t.intra, t.inter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacencies;
    use crate::instance_graph::InstanceGraph;
    use crate::process::Processes;
    use nettopo::{ExternalAnalysis, LinkMap, Network};

    fn compute(net: &Network) -> Table1 {
        let links = LinkMap::build(net);
        let external = ExternalAnalysis::build(net, &links);
        let procs = Processes::extract(net);
        let adj = Adjacencies::build(net, &links, &procs, &external);
        let inst = Instances::compute(&procs, &adj);
        let graph = InstanceGraph::build(net, &procs, &adj, &inst);
        Table1::compute(&inst, &graph, &adj)
    }

    #[test]
    fn igp_as_edge_protocol_counts_as_inter() {
        // RIP covering an external-facing /30: an IGP in an EGP role.
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
             router rip\n network 10.0.0.0\n"
                .into(),
        )])
        .unwrap();
        let t = compute(&net);
        assert_eq!(t.igp_row("RIP"), RoleCounts { intra: 0, inter: 1 });
        assert_eq!(t.igp_inter_fraction(), 1.0);
    }

    #[test]
    fn interior_ospf_counts_as_intra() {
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
        let t = compute(&net);
        assert_eq!(t.igp_row("OSPF"), RoleCounts { intra: 1, inter: 0 });
        assert_eq!(t.igp_inter_fraction(), 0.0);
    }

    #[test]
    fn ebgp_rows_split_by_peer_location() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 interface Serial1\n ip address 192.0.2.1 255.255.255.252\n\
                 router bgp 65001\n \
                  neighbor 10.0.0.2 remote-as 65002\n \
                  neighbor 192.0.2.2 remote-as 7018\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router bgp 65002\n neighbor 10.0.0.1 remote-as 65001\n"
                    .into(),
            ),
        ])
        .unwrap();
        let t = compute(&net);
        assert_eq!(t.ebgp_sessions, RoleCounts { intra: 1, inter: 1 });
        assert_eq!(t.ebgp_intra_fraction(), 0.5);
        assert_eq!(t.ibgp_sessions, 0);
    }

    #[test]
    fn accumulation_across_networks() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
             router rip\n network 10.0.0.0\n"
                .into(),
        )])
        .unwrap();
        let t1 = compute(&net);
        let mut total = Table1::default();
        total.add(&t1);
        total.add(&t1);
        assert_eq!(total.igp_row("RIP").inter, 2);
    }

    #[test]
    fn igrp_folds_into_eigrp_row() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
             router igrp 5\n network 10.0.0.0\n"
                .into(),
        )])
        .unwrap();
        let t = compute(&net);
        assert_eq!(t.igp_row("EIGRP").total(), 1);
    }

    #[test]
    fn display_renders_all_rows() {
        let t = Table1::default();
        let text = t.to_string();
        for label in ["EBGP Sessions", "OSPF", "EIGRP", "RIP", "IGP total"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
