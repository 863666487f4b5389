//! Design-archetype classification (paper Section 7.1).
//!
//! The paper distinguishes: textbook **backbone** designs (EBGP at the
//! edge, an IBGP mesh distributing external routes, a small number of IGP
//! instances carrying infrastructure routes, and — the hallmark — external
//! routes never redistributed into the IGP); textbook **enterprise**
//! designs (a few border BGP speakers injecting summarized external routes
//! into a small number of IGP instances); **tier-2** providers (backbone
//! BGP structure plus many single-router "staging" IGP instances feeding
//! non-BGP customers); networks that use **no BGP** at all; and the
//! remaining designs "so markedly different both from textbook examples
//! and from each other as to defy classification".

use std::fmt;

use nettopo::Network;

use crate::adjacency::Adjacencies;
use crate::instance::Instances;
use crate::instance_graph::{ExchangeKind, InstanceGraph, InstanceNode};
use crate::process::ProtoKind;
use crate::roles::Table1;

/// The design archetype of one network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DesignClass {
    /// Textbook backbone (Section 3.1's "typical backbone network").
    Backbone,
    /// Textbook enterprise (border BGP redistributed into the IGP).
    Enterprise,
    /// Backbone BGP structure plus many staging IGP instances.
    Tier2,
    /// No BGP anywhere (3 of the paper's 31 networks).
    NoBgp,
    /// None of the above.
    Unclassifiable,
}

impl fmt::Display for DesignClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DesignClass::Backbone => "backbone",
            DesignClass::Enterprise => "enterprise",
            DesignClass::Tier2 => "tier-2",
            DesignClass::NoBgp => "no-bgp",
            DesignClass::Unclassifiable => "unclassifiable",
        };
        f.write_str(s)
    }
}

/// The evidence behind a classification, kept for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DesignSummary {
    /// The verdict.
    pub class: DesignClass,
    /// Router count.
    pub routers: usize,
    /// Routers running BGP.
    pub bgp_speakers: usize,
    /// Distinct internal AS numbers.
    pub internal_ases: usize,
    /// IBGP session count.
    pub ibgp_sessions: usize,
    /// EBGP sessions to external peers.
    pub external_ebgp_sessions: usize,
    /// EBGP sessions between internal routers.
    pub internal_ebgp_sessions: usize,
    /// Multi-router IGP instances.
    pub igp_instances: usize,
    /// Single-router IGP instances facing the outside (staging).
    pub staging_instances: usize,
    /// True if any BGP instance redistributes into any IGP instance.
    pub bgp_into_igp: bool,
    /// Total routing instances.
    pub total_instances: usize,
}

/// Classifies one network's routing design.
pub fn classify_network(
    net: &Network,
    instances: &Instances,
    graph: &InstanceGraph,
    adj: &Adjacencies,
    table1: &Table1,
) -> DesignSummary {
    let routers = net.len();
    let bgp_speakers = net
        .iter()
        .filter(|(_, r)| r.config.bgp.is_some())
        .count();
    let internal_ases = {
        let mut asns: Vec<u32> = net
            .iter()
            .filter_map(|(_, r)| r.config.bgp.as_ref().map(|b| b.asn))
            .collect();
        asns.sort_unstable();
        asns.dedup();
        asns.len()
    };
    let inter_domain = graph.inter_domain();
    let staging_instances = instances
        .staging_instances()
        .filter(|i| inter_domain.contains(&i.id))
        .count();
    let igp_instances = instances
        .list
        .iter()
        .filter(|i| i.kind.is_igp() && i.routers.len() > 1)
        .count();
    let bgp_into_igp = graph.edges.iter().any(|e| {
        matches!(e.kind, ExchangeKind::Redistribution { .. })
            && matches!(
                (e.from, e.to),
                (InstanceNode::Instance(f), InstanceNode::Instance(t))
                    if instances.get(f).kind == ProtoKind::Bgp
                        && instances.get(t).kind.is_igp()
            )
    });

    let summary_base = |class| DesignSummary {
        class,
        routers,
        bgp_speakers,
        internal_ases,
        ibgp_sessions: table1.ibgp_sessions,
        external_ebgp_sessions: table1.ebgp_sessions.inter,
        internal_ebgp_sessions: table1.ebgp_sessions.intra,
        igp_instances,
        staging_instances,
        bgp_into_igp,
        total_instances: instances.len(),
    };

    let _ = adj;

    // No BGP at all.
    if bgp_speakers == 0 {
        return summary_base(DesignClass::NoBgp);
    }

    let has_external_bgp = table1.ebgp_sessions.inter > 0;
    let has_ibgp_mesh = table1.ibgp_sessions > 0;
    let few_igp_instances = igp_instances <= 3;
    let single_as = internal_ases == 1;

    // Tier-2: backbone BGP structure + many staging IGP instances.
    if has_external_bgp && has_ibgp_mesh && staging_instances >= 5 {
        return summary_base(DesignClass::Tier2);
    }

    // Backbone: widespread IBGP, external routes never pushed into IGP.
    let bgp_widespread = bgp_speakers * 2 >= routers && routers >= 2;
    if has_external_bgp
        && has_ibgp_mesh
        && bgp_widespread
        && !bgp_into_igp
        && few_igp_instances
        && single_as
    {
        return summary_base(DesignClass::Backbone);
    }

    // Enterprise: few border BGP speakers injecting into the IGP — and
    // nothing *else* going on. The textbook pattern has a homogeneous IGP
    // and uses redistribution only at the BGP border: compartmentalized
    // designs glued by IGP↔IGP redistribution or internal EBGP are
    // exactly what the paper calls "markedly different from textbook".
    let bgp_confined = bgp_speakers <= 4.max(routers / 10);
    let igp_homogeneous = {
        let kinds: std::collections::BTreeSet<ProtoKind> = instances
            .list
            .iter()
            .filter(|i| i.kind.is_igp() && i.routers.len() > 1)
            .map(|i| i.kind)
            .collect();
        kinds.len() <= 1
    };
    let igp_to_igp_glue = graph.edges.iter().any(|e| {
        matches!(e.kind, ExchangeKind::Redistribution { .. })
            && matches!(
                (e.from, e.to),
                (InstanceNode::Instance(f), InstanceNode::Instance(t))
                    if instances.get(f).kind.is_igp()
                        && instances.get(t).kind.is_igp()
            )
    });
    if has_external_bgp
        && bgp_confined
        && bgp_into_igp
        && few_igp_instances
        && single_as
        && igp_homogeneous
        && !igp_to_igp_glue
        && table1.ebgp_sessions.intra == 0
        && staging_instances == 0
    {
        return summary_base(DesignClass::Enterprise);
    }

    summary_base(DesignClass::Unclassifiable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacencies;
    use crate::instance_graph::InstanceGraph;
    use crate::process::Processes;
    use nettopo::{ExternalAnalysis, LinkMap, Network};

    fn classify(net: &Network) -> DesignSummary {
        let links = LinkMap::build(net);
        let external = ExternalAnalysis::build(net, &links);
        let procs = Processes::extract(net);
        let adj = Adjacencies::build(net, &links, &procs, &external);
        let inst = Instances::compute(&procs, &adj);
        let graph = InstanceGraph::build(net, &procs, &adj, &inst);
        let t1 = Table1::compute(&inst, &graph, &adj);
        classify_network(net, &inst, &graph, &adj, &t1)
    }

    /// A 3-router textbook backbone: full IBGP mesh, OSPF for
    /// infrastructure, EBGP at the border, no redistribution into OSPF.
    fn backbone() -> Network {
        let mk = |host: u8, peers: &[u8], ext: Option<&str>| {
            let mut t = String::new();
            // Loopback-ish /24 per router for IBGP peering over Ethernet.
            t.push_str(&format!(
                "interface Ethernet0\n ip address 10.0.{host}.1 255.255.255.0\n"
            ));
            // Chain of /30s.
            if host < 3 {
                t.push_str(&format!(
                    "interface Serial0\n ip address 10.9.{host}.1 255.255.255.252\n"
                ));
            }
            if host > 1 {
                let up = host - 1;
                t.push_str(&format!(
                    "interface Serial1\n ip address 10.9.{up}.2 255.255.255.252\n"
                ));
            }
            if let Some(e) = ext {
                t.push_str(&format!(
                    "interface POS3/0\n ip address {e} 255.255.255.252\n"
                ));
            }
            t.push_str("router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n");
            t.push_str("router bgp 65001\n");
            for p in peers {
                t.push_str(&format!(" neighbor 10.0.{p}.1 remote-as 65001\n"));
            }
            if ext.is_some() {
                t.push_str(" neighbor 192.0.2.2 remote-as 7018\n");
            }
            t
        };
        Network::from_texts(vec![
            ("config1".into(), mk(1, &[2, 3], Some("192.0.2.1"))),
            ("config2".into(), mk(2, &[1, 3], None)),
            ("config3".into(), mk(3, &[1, 2], None)),
        ])
        .unwrap()
    }

    #[test]
    fn backbone_classified() {
        let s = classify(&backbone());
        assert_eq!(s.class, DesignClass::Backbone, "summary: {s:?}");
        assert_eq!(s.bgp_speakers, 3);
        assert!(s.ibgp_sessions >= 3);
        assert!(!s.bgp_into_igp);
    }

    /// Border router redistributes BGP into OSPF; interior routers have
    /// no BGP at all.
    fn enterprise() -> Network {
        Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n \
                  redistribute bgp 65001 subnets\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.0.5 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .into(),
            ),
            (
                "config3".into(),
                "interface Serial0\n ip address 10.0.0.6 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .into(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn enterprise_classified() {
        let s = classify(&enterprise());
        assert_eq!(s.class, DesignClass::Enterprise, "summary: {s:?}");
        assert!(s.bgp_into_igp);
        assert_eq!(s.bgp_speakers, 1);
    }

    #[test]
    fn no_bgp_classified() {
        let net = Network::from_texts(vec![(
            "config1".into(),
            "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
             router rip\n network 10.0.0.0\n"
                .into(),
        )])
        .unwrap();
        assert_eq!(classify(&net).class, DesignClass::NoBgp);
    }

    /// Multiple internal ASes glued by EBGP with IGP redistribution — the
    /// net5 pattern — lands in "unclassifiable".
    #[test]
    fn compartmentalized_design_defies_classification() {
        let net = Network::from_texts(vec![
            (
                "config1".into(),
                "interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n\
                 router eigrp 10\n network 10.1.0.0 0.0.255.255\n \
                  redistribute bgp 65010\n\
                 router bgp 65010\n neighbor 10.0.0.2 remote-as 65020\n \
                  redistribute eigrp 10\n"
                    .into(),
            ),
            (
                "config2".into(),
                "interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 interface Ethernet0\n ip address 10.2.0.1 255.255.255.0\n\
                 router eigrp 20\n network 10.2.0.0 0.0.255.255\n \
                  redistribute bgp 65020\n\
                 router bgp 65020\n neighbor 10.0.0.1 remote-as 65010\n \
                  redistribute eigrp 20\n"
                    .into(),
            ),
        ])
        .unwrap();
        let s = classify(&net);
        assert_eq!(s.class, DesignClass::Unclassifiable, "summary: {s:?}");
        assert_eq!(s.internal_ases, 2);
        assert_eq!(s.internal_ebgp_sessions, 1);
    }
}
