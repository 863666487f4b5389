//! The diagnostics channel end to end: malformed corpora must surface
//! exact (file, line, severity, code) tuples through
//! `NetworkAnalysis::diagnostics`, and the generated study corpus must be
//! error-free — the generator only emits configurations the parser fully
//! understands, so any error here is a pipeline regression.

use netgen::StudyScale;
use routing_design::{NetworkAnalysis, Severity};

fn analyze(texts: Vec<(&str, &str)>) -> NetworkAnalysis {
    let texts: Vec<(String, String)> =
        texts.into_iter().map(|(n, t)| (n.to_string(), t.to_string())).collect();
    NetworkAnalysis::from_texts(texts).expect("corpus parses")
}

#[test]
fn malformed_corpus_surfaces_exact_tuples() {
    let a = analyze(vec![
        (
            "config-a",
            "hostname ra\n\
             glitter beams everywhere\n\
             interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n \
             ip access-group 120 in\n",
        ),
        (
            "config-b",
            "hostname rb\n\
             interface Ethernet0\n ip address 10.0.0.2 255.255.255.0\n\
             interface Serial1\n ip unnumbered Loopback0\n",
        ),
    ]);
    let tuples: Vec<(&str, usize, Severity, &str)> = a
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.severity, d.code))
        .collect();
    assert_eq!(
        tuples,
        vec![
            ("config-a", 2, Severity::Warning, "unknown-stanza"),
            ("config-a", 0, Severity::Error, "undefined-acl"),
            ("config-b", 0, Severity::Error, "undefined-unnumbered-target"),
        ],
    );
    assert!(a.diagnostics.count(Severity::Error) > 0);
    assert_eq!(a.diagnostics.counts(), (2, 1, 0));
    assert_eq!(a.diagnostics.summary(), "2 errors, 1 warning, 0 info");

    // Rendered form carries the location exactly as `rdx diag` prints it.
    let rendered = a.diagnostics.to_string();
    assert!(rendered.contains("config-a:2: warning [unknown-stanza]"), "{rendered}");
    assert!(rendered.contains("config-a: error [undefined-acl]"), "{rendered}");
}

#[test]
fn design_level_diagnostics_flow_through_analysis() {
    // A BGP process with no neighbors is a design smell (warning), not a
    // parse problem: it comes from `routing_model::design_diagnostics`.
    let a = analyze(vec![(
        "config-c",
        "hostname rc\n\
         interface Ethernet0\n ip address 10.1.0.1 255.255.255.0\n\
         router bgp 65000\n",
    )]);
    let tuples: Vec<(&str, usize, Severity, &str)> = a
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.severity, d.code))
        .collect();
    assert_eq!(tuples, vec![("config-c", 0, Severity::Warning, "bgp-no-neighbors")]);
}

#[test]
fn generated_study_corpus_is_error_free() {
    for g in netgen::study::generate_study(StudyScale::Small) {
        let name = g.spec.name.clone();
        let a = NetworkAnalysis::from_texts(g.texts)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            a.diagnostics.count(Severity::Error),
            0,
            "{name} has errors:\n{}",
            a.diagnostics,
        );
    }
}
