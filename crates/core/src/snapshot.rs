//! Bridging [`NetworkAnalysis`] to the `rd-snap` persistence layer.
//!
//! `rdx snap <dir> -o study.rdsnap` lands here: a config directory (one
//! network, or a study directory of `netN` subdirectories) is analyzed
//! once and serialized; [`restore`] turns a loaded snapshot back into a
//! [`NetworkAnalysis`] without invoking the IOS parser — stage timings
//! are the only field not carried over (the snapshot stores the analysis,
//! not the run that produced it).

use std::path::{Path, PathBuf};

use nettopo::Coverage;
use rd_snap::{Corpus, NetworkSnapshot};

use crate::{read_network, LoadError, NetworkAnalysis};

/// Converts a finished analysis into its snapshot form, named `name`.
pub fn capture(name: &str, analysis: NetworkAnalysis) -> NetworkSnapshot {
    NetworkSnapshot {
        name: name.to_string(),
        network: analysis.network,
        links: analysis.links,
        external: analysis.external,
        processes: analysis.processes,
        adjacencies: analysis.adjacencies,
        instances: analysis.instances,
        instance_graph: analysis.instance_graph,
        process_graph: analysis.process_graph,
        blocks: analysis.blocks,
        table1: analysis.table1,
        design: analysis.design,
        diagnostics: analysis.diagnostics,
        file_hashes: analysis.file_hashes,
    }
}

/// Reconstitutes an analysis from a loaded snapshot. No parsing, no
/// recomputation: every derived product comes straight from the snapshot
/// (`timings` is empty — nothing ran).
pub fn restore(snap: NetworkSnapshot) -> NetworkAnalysis {
    NetworkAnalysis {
        network: snap.network,
        links: snap.links,
        external: snap.external,
        processes: snap.processes,
        adjacencies: snap.adjacencies,
        instances: snap.instances,
        instance_graph: snap.instance_graph,
        process_graph: snap.process_graph,
        blocks: snap.blocks,
        table1: snap.table1,
        design: snap.design,
        diagnostics: snap.diagnostics,
        timings: Default::default(),
        file_hashes: snap.file_hashes,
    }
}

/// The name a network directory is published under: its basename, or
/// `network` when the path has none. `rdx snap`, the delta engine and
/// `rdx <dir> summary --json` all name a network by it, so the summary of
/// a directory matches the served `/networks/{id}` body for it.
pub fn network_name(dir: &Path) -> String {
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "network".to_string())
}

/// The networks under `dir`, in name order, with their names
/// ([`network_name`]). `dir` is a study layout (flag true, one network per
/// subdirectory) when it holds no plain file and some subdirectory holds
/// one; otherwise it is a single network's config directory. Cold runs
/// and the delta engine both read the tree through this, so they always
/// agree on what a network is.
pub(crate) fn network_dirs(dir: &Path) -> (bool, Vec<(String, PathBuf)>) {
    let mut subdirs = Vec::new();
    let mut has_plain_file = false;
    for path in std::fs::read_dir(dir).into_iter().flatten().flatten().map(|e| e.path()) {
        if path.is_dir() {
            subdirs.push(path);
        } else if path.is_file() {
            has_plain_file = true;
        }
    }
    let holds_files = |sub: &PathBuf| {
        std::fs::read_dir(sub).is_ok_and(|mut s| s.any(|e| e.is_ok_and(|e| e.path().is_file())))
    };
    if has_plain_file || !subdirs.iter().any(holds_files) {
        return (false, vec![(network_name(dir), dir.to_path_buf())]);
    }
    subdirs.sort();
    (true, subdirs.into_iter().map(|p| (network_name(&p), p)).collect())
}

/// Every network under `dir` with its config files, named and ordered as
/// [`snap_dir`] and the delta engine see the tree: `dir` is a study (one
/// network per subdirectory) when it holds no plain file and some
/// subdirectory holds one, else a single network, and [`read_network`]
/// reads each network's files. A network directory without files is
/// returned empty.
pub fn read_tree(dir: &Path) -> Result<Vec<(String, rd_plan::CorpusFiles)>, LoadError> {
    network_dirs(dir).1.into_iter().map(|(name, path)| Ok((name, read_network(&path)?))).collect()
}

/// One network excluded from a study: either its parse coverage exceeded
/// the error budget (see [`nettopo::error_budget`]) or its directory could
/// not be read at all.
pub struct DroppedNetwork {
    /// Directory basename (or study roster name) of the network.
    pub name: String,
    /// Config files found under the network directory (0 when unreadable).
    pub total_files: usize,
    /// How many of those files were quarantined during parsing.
    pub quarantined: usize,
    /// Human-readable explanation of why the network was dropped.
    pub reason: String,
}

impl DroppedNetwork {
    /// The drop record for `name` when its parse coverage exceeds
    /// `budget`, else `None`.
    pub fn over_budget(name: &str, coverage: &Coverage, budget: f64) -> Option<Self> {
        coverage.over_budget(budget).then(|| DroppedNetwork {
            name: name.to_string(),
            total_files: coverage.total_files,
            quarantined: coverage.quarantined.len(),
            reason: format!(
                "{}/{} files quarantined exceeds error budget {:.0}%",
                coverage.quarantined.len(),
                coverage.total_files,
                budget * 100.0,
            ),
        })
    }

    /// The drop record for `name`, whose directory could not be read.
    pub(crate) fn unreadable(name: String, error: &LoadError) -> Self {
        DroppedNetwork {
            name,
            total_files: 0,
            quarantined: 0,
            reason: format!("network directory unreadable: {error}"),
        }
    }
}

/// Result of snapshotting a directory: the corpus of surviving networks
/// plus every network dropped by the error budget. A study run proceeds
/// with the survivors; callers decide how loudly to report the drops
/// (`rdx snap` and `repro` exit non-zero when any network was dropped).
pub struct SnapOutcome {
    /// Snapshots of the networks that stayed within the error budget.
    pub corpus: Corpus,
    /// Networks excluded from the corpus, in name order.
    pub dropped: Vec<DroppedNetwork>,
}

/// Analyzes `dir` — one network, or a whole study directory of `netN`
/// subdirectories (analyzed in parallel with `rd-par`) — and returns the
/// snapshot corpus plus any networks dropped by the error budget. Network
/// names are the directory basenames. Only a top-level read failure of
/// `dir` itself is a hard error; per-network failures degrade or drop that
/// network and the rest of the study proceeds.
pub fn snap_dir(dir: &Path) -> Result<SnapOutcome, LoadError> {
    let budget = nettopo::error_budget();
    let (study, units) = network_dirs(dir);
    if !study {
        let (name, path) = &units[0];
        return Ok(SnapOutcome {
            corpus: Corpus::new(vec![capture(name, NetworkAnalysis::from_dir(path)?)]),
            dropped: Vec::new(),
        });
    }
    let results = rd_par::par_map(&units, |_, (name, sub)| {
        NetworkAnalysis::from_dir(sub).map(|a| capture(name, a))
    });
    let mut networks = Vec::new();
    let mut dropped = Vec::new();
    for ((name, _), result) in units.into_iter().zip(results) {
        match result {
            Ok(snap) => match DroppedNetwork::over_budget(&name, &snap.network.coverage, budget) {
                Some(drop) => dropped.push(drop),
                None => networks.push(snap),
            },
            Err(error) => dropped.push(DroppedNetwork::unreadable(name, &error)),
        }
    }
    Ok(SnapOutcome { corpus: Corpus::new(networks), dropped })
}
