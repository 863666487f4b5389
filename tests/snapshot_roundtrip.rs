//! Snapshot persistence golden test: analyzing a corpus directly and
//! reloading it from an `.rdsnap` container must be indistinguishable —
//! every report byte-identical — and the reload must never touch the IOS
//! parser (checked through the `rd-obs` metrics registry: a freshly reset
//! registry records no `parse.*` counters during decode + render).

use std::collections::BTreeMap;

use netgen::StudyScale;
use routing_design::{snapshot, NetworkAnalysis};

/// Two study networks (the smallest and the net15 case study) generated
/// at small scale — enough to cover OSPF/EIGRP/BGP material without
/// making the test slow.
fn study_subset() -> Vec<(String, Vec<(String, String)>)> {
    netgen::study::generate_study(StudyScale::Small)
        .into_iter()
        .filter(|g| g.spec.name == "net1" || g.spec.name == "net15")
        .map(|g| (g.spec.name.clone(), g.texts))
        .collect()
}

/// Everything the toolchain can say about one analysis, rendered into a
/// single comparable string: the served JSON summary, the instance
/// graph, Table-1 roles, and every diagnostic line.
fn render(name: &str, analysis: &NetworkAnalysis) -> String {
    let snap = snapshot::capture(name, analysis.clone());
    let mut out = rd_serve::render::network_summary(&snap);
    out.push_str(&analysis.instance_graph_text());
    out.push_str(&analysis.table1.to_string());
    for d in analysis.diagnostics.iter() {
        out.push_str(&format!("{d}\n"));
    }
    out.push_str(&analysis.diagnostics.summary());
    out
}

#[test]
fn snapshot_reload_reproduces_reports_without_parsing() {
    let subset = study_subset();
    assert_eq!(subset.len(), 2, "expected net1 and net15 in the roster");

    let mut direct = BTreeMap::new();
    let mut snaps = Vec::new();
    for (name, texts) in subset {
        let analysis =
            NetworkAnalysis::from_texts(texts).unwrap_or_else(|e| panic!("{name}: {e}"));
        direct.insert(name.clone(), render(&name, &analysis));
        snaps.push(snapshot::capture(&name, analysis));
    }
    // Sanity: the direct pipeline really did go through the parser.
    assert!(
        rd_obs::metrics::dump().contains("parse.files"),
        "direct analysis should have recorded parse metrics"
    );
    let bytes = rd_snap::Corpus::new(snaps).to_bytes();

    // From here on, nothing may invoke the parser: decode, restore, and
    // render against a clean registry, then inspect it.
    rd_obs::metrics::reset();
    let corpus = rd_snap::Corpus::from_bytes(&bytes).expect("container decodes");
    assert_eq!(corpus.networks.len(), direct.len());
    for snap in corpus.networks {
        let name = snap.name.clone();
        let snap = std::sync::Arc::try_unwrap(snap).unwrap_or_else(|a| (*a).clone());
        let analysis = snapshot::restore(snap);
        let rendered = render(&name, &analysis);
        let expected = direct.get(&name).expect("network present in direct run");
        assert_eq!(
            &rendered, expected,
            "{name}: snapshot-restored report differs from direct analysis"
        );
    }
    let metrics = rd_obs::metrics::dump();
    assert!(
        !metrics.contains("parse."),
        "snapshot load invoked the parser:\n{metrics}"
    );
}
