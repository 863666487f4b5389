//! Golden output of the Section 6.2 reachability analysis. For the
//! small-study net5 and net15, every instance's admitted external routes
//! and load prediction, and the routes announced to every external AS,
//! must equal `tests/golden/reach.txt` line for line.

use std::fmt::Write as _;

use netgen::{study_roster, StudyScale};
use routing_design::NetworkAnalysis;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/reach.txt");

/// The reachability lines of one network, instances first, then
/// external ASes.
fn render(name: &str, analysis: &NetworkAnalysis) -> String {
    let reach = analysis.reachability();
    let mut out = String::new();
    for inst in &analysis.instances.list {
        let entering = reach.external_routes_entering(inst.id);
        let load = reach.load_prediction(inst.id);
        let _ = writeln!(out, "{name} {} entering {entering}", inst.id);
        let _ = writeln!(
            out,
            "{name} {} load routers={} max_external_routes={:?}",
            inst.id, load.routers, load.max_external_routes
        );
    }
    for asn in analysis.instance_graph.external_ases() {
        let _ = writeln!(out, "{name} AS{asn} announced {}", reach.routes_announced_to(asn));
    }
    out
}

#[test]
fn net5_and_net15_reachability_matches_golden() {
    let mut out = String::new();
    for spec in study_roster(StudyScale::Small) {
        if spec.name != "net5" && spec.name != "net15" {
            continue;
        }
        let generated = netgen::study::generate_network(&spec, StudyScale::Small);
        let analysis = NetworkAnalysis::from_texts(generated.texts).expect("study network parses");
        out.push_str(&render(&spec.name, &analysis));
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file");
    assert_eq!(out, golden, "reachability differs from tests/golden/reach.txt");
}
