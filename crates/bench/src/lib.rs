//! Shared harness code for the `repro` and `loadgen` binaries: study
//! generation/analysis helpers, the `repro --bench` timing harness
//! ([`timing`]) and the HTTP load generator ([`loadgen`]).

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod timing;

use netgen::{study_roster, StudyScale};
use routing_design::report::StudyNetwork;
use routing_design::snapshot::DroppedNetwork;
use routing_design::NetworkAnalysis;

/// Generates and fully analyzes the whole study at the given scale.
///
/// The per-network generate + analyze pipeline fans out across
/// `RD_THREADS` workers (see [`rd_par::thread_count`]); each network owns
/// its generator seed, so the results are identical at any thread count
/// and come back in roster order.
pub fn analyzed_study(scale: StudyScale) -> Vec<StudyNetwork> {
    let roster = study_roster(scale);
    rd_par::par_map(&roster, |_, spec| {
        let generated = netgen::study::generate_network(spec, scale);
        StudyNetwork {
            name: spec.name.clone(),
            analysis: NetworkAnalysis::from_bytes_list(
                generated.texts.into_iter().map(|(n, t)| (n, t.into_bytes())).collect(),
            ),
        }
    })
}

/// Like [`analyzed_study`], but damages each network's corpus with one
/// seeded `rd-chaos` mutation before analysis — the degraded-pipeline
/// benchmark and test path (`repro --chaos <seed>`).
///
/// The mutation seed is derived from `(seed, roster index)`, never from
/// worker identity, so the damaged corpus — and every diagnostic it
/// produces — is byte-identical at any `RD_THREADS`. Returns the
/// surviving networks (possibly degraded, coverage intact) and the
/// networks dropped by [`nettopo::error_budget`].
pub fn chaos_study(scale: StudyScale, seed: u64) -> (Vec<StudyNetwork>, Vec<DroppedNetwork>) {
    let roster = study_roster(scale);
    let budget = nettopo::error_budget();
    let analyzed = rd_par::par_map(&roster, |index, spec| {
        let generated = netgen::study::generate_network(spec, scale);
        let mut files: Vec<(String, Vec<u8>)> =
            generated.texts.into_iter().map(|(n, t)| (n, t.into_bytes())).collect();
        let (mutator, mut rng) = rd_chaos::config_trial(seed, index);
        if !files.is_empty() {
            let victim = rng.gen_range(0..files.len());
            match rd_chaos::mutate_config(&mut rng, mutator, &files[victim].1) {
                Some(bytes) => files[victim].1 = bytes,
                None => {
                    files.remove(victim);
                }
            }
        }
        StudyNetwork {
            name: spec.name.clone(),
            analysis: NetworkAnalysis::from_bytes_list(files),
        }
    });
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for sn in analyzed {
        match DroppedNetwork::over_budget(&sn.name, &sn.analysis.network.coverage, budget) {
            Some(drop) => dropped.push(drop),
            None => kept.push(sn),
        }
    }
    (kept, dropped)
}
