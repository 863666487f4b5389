//! The incremental delta engine must be observationally invisible: after
//! any sequence of config churn, a refresh produces snapshot bytes,
//! reports, and summary JSON byte-identical to a cold re-run of the same
//! directory — at any `RD_THREADS` setting. Churn comes from the seeded
//! `rd-chaos` config mutators applied router-by-router, so the engine is
//! exercised against realistic damage (truncation, duplication, garbage,
//! cosmetic noise), not just clean edits.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use netgen::StudyScale;
use routing_design::incremental::DeltaEngine;
use routing_design::report::{StudyNetwork, StudyReport};

/// Tests here mutate the process-global `RD_THREADS` environment
/// variable; the lock keeps them from racing each other.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Two generated small-study networks as `(name, files)` — enough churn
/// surface without analyzing the whole roster every round.
fn study_files() -> Vec<(String, Vec<(String, String)>)> {
    netgen::study::generate_study(StudyScale::Small)
        .into_iter()
        .filter(|g| g.spec.name == "net1" || g.spec.name == "net2")
        .map(|g| (g.spec.name.clone(), g.texts))
        .collect()
}

fn write_study(base: &Path, networks: &[(String, Vec<(String, String)>)]) {
    for (net, files) in networks {
        let sub = base.join(net);
        std::fs::create_dir_all(&sub).expect("network dir");
        for (name, text) in files {
            std::fs::write(sub.join(name), text).expect("config file");
        }
    }
}

/// Everything a refresh must reproduce byte-for-byte: the encoded
/// container, every per-network summary JSON body, and the study report.
fn observable(corpus: &rd_snap::Corpus) -> String {
    let mut out = String::new();
    for snap in &corpus.networks {
        out.push_str(&rd_serve::render::network_summary(snap));
    }
    let networks: Vec<StudyNetwork> = corpus
        .networks
        .iter()
        .map(|snap| StudyNetwork {
            name: snap.name.clone(),
            analysis: routing_design::snapshot::restore((**snap).clone()),
        })
        .collect();
    let report = StudyReport::build(&networks);
    out.push_str(&report.table1.to_string());
    out.push_str(&report.section7.to_string());
    out
}

/// Cold ground truth for the directory's current state.
fn cold_outputs(dir: &Path) -> (Vec<u8>, String) {
    let outcome = routing_design::snapshot::snap_dir(dir).expect("cold run");
    let bytes = outcome.corpus.to_bytes();
    let rendered = observable(&outcome.corpus);
    (bytes, rendered)
}

/// One full churn run at the given thread count: seed the engine from a
/// cold snapshot, then mutate one router file per round (cycling the
/// seeded rd-chaos mutators across networks and routers), refreshing and
/// checking against a cold re-run after every round. Returns the
/// per-round outputs so runs at different thread counts can be compared.
fn run_churn(threads: &str) -> Vec<(Vec<u8>, String)> {
    std::env::set_var(rd_par::THREADS_ENV, threads);
    let base: PathBuf = std::env::temp_dir()
        .join(format!("rd-incr-churn-{}-t{threads}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let networks = study_files();
    write_study(&base, &networks);

    // Seed from a decoded cold snapshot rather than a warm refresh, so
    // the restart path (cache rebuilt from a persisted corpus) is on
    // trial too.
    let (seed_bytes, _) = cold_outputs(&base);
    let mut engine = DeltaEngine::new(&base);
    engine.seed(&rd_snap::Corpus::from_bytes(&seed_bytes).expect("snapshot decodes"));

    let mut outputs = Vec::new();
    let mut round = 0usize;
    for (net, files) in &networks {
        for (file_name, _) in files.iter().take(3) {
            let (mutator, mut rng) = rd_chaos::config_trial(0x5eed, round);
            let path = base.join(net).join(file_name);
            let bytes = std::fs::read(&path).expect("victim readable");
            match rd_chaos::mutate_config(&mut rng, mutator, &bytes) {
                Some(mutated) => std::fs::write(&path, mutated).expect("victim rewritten"),
                None => std::fs::remove_file(&path).expect("victim removed"),
            }

            let refresh = engine.refresh().expect("incremental refresh");
            let (cold_bytes, cold_rendered) = cold_outputs(&base);
            assert_eq!(
                refresh.bytes, cold_bytes,
                "round {round} ({} on {net}/{file_name}): incremental snapshot \
                 bytes diverge from a cold run at RD_THREADS={threads}",
                mutator.name(),
            );
            let incr_rendered = observable(&refresh.outcome.corpus);
            assert_eq!(
                incr_rendered, cold_rendered,
                "round {round}: incremental reports/summaries diverge from cold",
            );
            outputs.push((refresh.bytes, incr_rendered));
            round += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    outputs
}

#[test]
fn seeded_churn_stays_byte_identical_to_cold_at_any_thread_count() {
    let _env = ENV_LOCK.lock().expect("env lock");
    let one = run_churn("1");
    let four = run_churn("4");
    std::env::remove_var(rd_par::THREADS_ENV);

    assert!(!one.is_empty(), "churn run produced no rounds");
    assert_eq!(one.len(), four.len());
    for (i, ((bytes_1, text_1), (bytes_4, text_4))) in one.iter().zip(&four).enumerate() {
        assert_eq!(bytes_1, bytes_4, "round {i}: snapshot bytes differ by thread count");
        assert_eq!(text_1, text_4, "round {i}: rendered output differs by thread count");
    }
    // The churn must have actually moved the corpus at least once,
    // otherwise every assertion above compared a fixed point.
    assert!(
        one.windows(2).any(|w| w[0].0 != w[1].0),
        "no mutation round ever changed the snapshot"
    );
}
