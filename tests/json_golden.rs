//! Golden bytes for the JSON the workspace emits. Each document is
//! rendered in process, the way `rdx serve`, `rdx summary --json` and
//! `rdx plan --json` produce it, and must equal its file under
//! `tests/golden/json/` byte for byte. rd-bench's
//! `json_document_is_well_formed_enough` pins `bench.json` the same way.
//! verify.sh compares the served bodies against the same files.

use std::path::Path;

use netgen::StudyScale;
use rd_serve::{render, HealthState};
use rd_snap::Corpus;
use routing_design::plan::plan_corpora;
use routing_design::{snapshot, NetworkAnalysis};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/json");

fn check(name: &str, text: &str) {
    let path = Path::new(GOLDEN).join(name);
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(text, golden, "{name} differs from its golden file");
}

/// One network analyzed from its files in file-name order, as `rdx snap`
/// reads a directory, and decoded from snapshot bytes, as `rdx serve`
/// loads it.
fn corpus(name: &str, mut files: Vec<(String, Vec<u8>)>) -> Corpus {
    files.sort();
    let network = snapshot::capture(name, NetworkAnalysis::from_bytes_list(files));
    Corpus::from_bytes(&Corpus::new(vec![network]).to_bytes()).expect("snapshot decodes")
}

#[test]
fn every_golden_file_is_one_json_object() {
    let mut files = 0;
    for entry in std::fs::read_dir(GOLDEN).expect("golden directory") {
        let path = entry.expect("golden entry").path();
        let text = std::fs::read_to_string(&path).expect("golden file");
        rd_obs::json::validate_object(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        files += 1;
    }
    assert_eq!(files, 12);
}

/// The corpus `emit_study <dir> --small net15` writes and verify.sh serves.
#[test]
fn net15_study_bodies() {
    let spec = netgen::study_roster(StudyScale::Small)
        .into_iter()
        .find(|spec| spec.name == "net15")
        .expect("net15 is in the roster");
    let texts = netgen::study::generate_network(&spec, StudyScale::Small).texts;
    let corpus = corpus("net15", texts.into_iter().map(|(n, t)| (n, t.into_bytes())).collect());
    let net15 = corpus.get("net15").expect("net15 is in the corpus");
    check("networks.json", &render::networks_index(&corpus));
    check("net15.json", &render::network_summary(net15));
    check("net15_processes.json", &render::network_processes(net15));
    check("instances.json", &render::instances(&corpus));
    check("pathways.json", &render::pathways(&corpus));
    check("diag.json", &render::diag(&corpus));
    check("healthz.json", &render::healthz(&corpus, HealthState::Fresh));
}

/// A one-router network with no routing process: its `igp_instances`,
/// `instances` and `processes` collections are all empty.
#[test]
fn one_router_network_bodies() {
    let config = "hostname lone\n!\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n!\nend\n";
    let corpus = corpus("lone", vec![("config1".to_string(), config.as_bytes().to_vec())]);
    let lone = corpus.get("lone").expect("lone is in the corpus");
    check("lone.json", &render::network_summary(lone));
    check("lone_processes.json", &render::network_processes(lone));
}

/// `plan_scenario --seed 42` planned forward, and its current corpus
/// planned against itself (no steps).
#[test]
fn plan_documents() {
    let (mut current, mut target) = rd_plan::scenario::demo(42);
    current.sort();
    target.sort();
    let plan = plan_corpora(&current, &target).expect("a safe ordering exists");
    check("plan.json", &rd_plan::render_json(&plan));
    let unchanged = plan_corpora(&current, &current).expect("an empty plan");
    check("plan_self.json", &rd_plan::render_json(&unchanged));
}
