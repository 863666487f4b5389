//! Graphviz DOT and plain-text rendering of the three graph abstractions.
//!
//! The paper communicates designs through pictures (Figures 5, 6, 7, 9,
//! 10, 12); these renderers produce the same pictures as DOT for graphviz
//! and as indented text for terminals and tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use nettopo::Network;

use crate::instance::Instances;
use crate::instance_graph::{ExchangeKind, InstanceEdge, InstanceGraph, InstanceNode};
use crate::pathway::PathwayGraph;
use crate::process_graph::{EdgeKind, ProcessGraph};

/// Renders a process graph (Figure 5 style) as DOT, grouping each
/// router's RIBs into a cluster.
pub fn process_graph_dot(net: &Network, graph: &ProcessGraph) -> String {
    let mut out = String::from("digraph process_graph {\n  rankdir=LR;\n  node [shape=box];\n");
    for (rid, nodes) in graph.by_router() {
        let _ = writeln!(out, "  subgraph cluster_{} {{", rid.0);
        let _ = writeln!(out, "    label=\"{}\";", net.router(rid).name());
        for n in nodes {
            let _ = writeln!(out, "    \"{n}\";");
        }
        out.push_str("  }\n");
    }
    for e in &graph.edges {
        let attrs = match &e.kind {
            EdgeKind::Adjacency => "dir=none".to_string(),
            EdgeKind::Session(scope) => format!("dir=none, style=bold, label=\"{scope:?}\""),
            EdgeKind::Redistribution => "style=dashed".to_string(),
            EdgeKind::Selection => "color=gray".to_string(),
        };
        let label = e
            .policy
            .as_ref()
            .map(|p| format!(", xlabel=\"{p}\""))
            .unwrap_or_default();
        let _ = writeln!(out, "  \"{}\" -> \"{}\" [{attrs}{label}];", e.from, e.to);
    }
    out.push_str("}\n");
    out
}

/// Renders an instance graph (Figure 6/9 style) as DOT.
pub fn instance_graph_dot(instances: &Instances, graph: &InstanceGraph) -> String {
    let mut out = String::from("digraph instance_graph {\n  node [shape=box];\n");
    for n in &graph.nodes {
        let label = node_label(n, instances);
        let shape = match n {
            InstanceNode::Instance(_) => "box",
            _ => "ellipse",
        };
        let _ = writeln!(out, "  \"{n}\" [label=\"{label}\", shape={shape}];");
    }
    for e in &graph.edges {
        let (attrs, label) = match &e.kind {
            ExchangeKind::Redistribution { router, policy } => {
                let mut l = format!("redist via {router}");
                if let Some(p) = policy {
                    let _ = write!(l, " [{p}]");
                }
                ("style=dashed".to_string(), l)
            }
            ExchangeKind::Ebgp { router } => {
                ("dir=none, style=bold".to_string(), format!("EBGP via {router}"))
            }
            ExchangeKind::IgpEdge { router } => {
                ("dir=none".to_string(), format!("IGP edge via {router}"))
            }
        };
        let _ = writeln!(out, "  \"{}\" -> \"{}\" [{attrs}, label=\"{label}\"];", e.from, e.to);
    }
    out.push_str("}\n");
    out
}

/// Renders an instance graph as indented text (for terminals).
pub fn instance_graph_text(instances: &Instances, graph: &InstanceGraph) -> String {
    // Each node's incident edges in edge order, a self-loop once.
    let mut incident: BTreeMap<InstanceNode, Vec<&InstanceEdge>> = BTreeMap::new();
    for e in &graph.edges {
        incident.entry(e.from).or_default().push(e);
        if e.to != e.from {
            incident.entry(e.to).or_default().push(e);
        }
    }
    let mut out = String::new();
    for inst in &instances.list {
        let _ = writeln!(out, "{}: {}", inst.id, inst.label());
        for e in incident.get(&InstanceNode::Instance(inst.id)).into_iter().flatten() {
            let arrow = match (&e.kind, e.from) {
                (ExchangeKind::Redistribution { .. }, InstanceNode::Instance(f))
                    if f == inst.id =>
                {
                    format!("--> {}", node_label(&e.to, instances))
                }
                (ExchangeKind::Redistribution { .. }, _) => {
                    format!("<-- {}", node_label(&e.from, instances))
                }
                (_, f) if f == InstanceNode::Instance(inst.id) => {
                    format!("<-> {}", node_label(&e.to, instances))
                }
                (_, _) => format!("<-> {}", node_label(&e.from, instances)),
            };
            let detail = match &e.kind {
                ExchangeKind::Redistribution { router, policy } => match policy {
                    Some(p) => format!("redistribution via {router} [{p}]"),
                    None => format!("redistribution via {router}"),
                },
                ExchangeKind::Ebgp { router } => format!("EBGP via {router}"),
                ExchangeKind::IgpEdge { router } => format!("IGP edge via {router}"),
            };
            let _ = writeln!(out, "  {arrow}  ({detail})");
        }
    }
    out
}

/// Renders a pathway graph (Figure 7/10 style) as indented text, outermost
/// source first — matching the paper's top-to-bottom "External World down
/// to Router RIB" layout.
pub fn pathway_text(pathway: &PathwayGraph, instances: &Instances) -> String {
    let mut out = String::new();
    let max = pathway.max_depth();
    for depth in (0..=max).rev() {
        for n in pathway.nodes.iter().filter(|n| n.depth == depth) {
            let indent = " ".repeat(2 * (max - depth));
            let _ = writeln!(out, "{indent}{}", node_label(&n.node, instances));
        }
    }
    let indent = " ".repeat(2 * (max + 1));
    let _ = writeln!(out, "{indent}Router RIB of {}", pathway.router);
    out
}

fn node_label(node: &InstanceNode, instances: &Instances) -> String {
    match node {
        InstanceNode::Instance(id) => {
            format!("{id} [{}]", instances.get(*id).label())
        }
        InstanceNode::ExternalAs(asn) => format!("external AS{asn}"),
        InstanceNode::ExternalWorld => "External World".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacencies;
    use crate::pathway::PathwayGraph;
    use crate::process::Processes;
    use nettopo::{ExternalAnalysis, LinkMap, Network, RouterId};

    fn sample() -> Network {
        Network::from_texts(vec![
            (
                "config1".into(),
                "hostname border\n\
                 interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n \
                  redistribute bgp 65001 subnets\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n"
                    .into(),
            ),
            (
                "config2".into(),
                "hostname core\n\
                 interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .into(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn renders_all_formats_without_panic() {
        let net = sample();
        let links = LinkMap::build(&net);
        let external = ExternalAnalysis::build(&net, &links);
        let procs = Processes::extract(&net);
        let adj = Adjacencies::build(&net, &links, &procs, &external);
        let inst = Instances::compute(&procs, &adj);
        let igraph = InstanceGraph::build(&net, &procs, &adj, &inst);
        let pgraph = ProcessGraph::build(&net, &procs, &adj);

        let dot1 = process_graph_dot(&net, &pgraph);
        assert!(dot1.starts_with("digraph"));
        assert!(dot1.contains("cluster_0"));
        assert!(dot1.contains("border"));

        let dot2 = instance_graph_dot(&inst, &igraph);
        assert!(dot2.contains("AS7018"));

        let text = instance_graph_text(&inst, &igraph);
        assert!(text.contains("instance 0"));
        assert!(text.contains("EBGP"));

        let pathway = PathwayGraph::trace(RouterId(1), &inst, &igraph);
        let ptext = pathway_text(&pathway, &inst);
        assert!(ptext.contains("external AS7018"));
        assert!(ptext.contains("Router RIB of r1"));
        // External world prints before (above) the router RIB.
        let ext_pos = ptext.find("external AS7018").unwrap();
        let rib_pos = ptext.find("Router RIB").unwrap();
        assert!(ext_pos < rib_pos);
    }
}
