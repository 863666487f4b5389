//! `cold_study`: `rdx snap <dir> -o <file>` over the full-scale tree —
//! `snapshot::snap_dir`, `Corpus::to_bytes`, `rd_snap::write_atomic` —
//! with no delta cache and no server.
//!
//! The traced run re-does the same analysis stage by stage from outside
//! the program: each stage calls one layer's public functions for every
//! network (fanned out over `rd_par`, as `snap_dir` does) and is timed on
//! its own, so the stages plus the `cold.unattributed_ms` remainder add up
//! to the traced wall. Its snapshot must carry the same trailer as the
//! untraced path, or the run is counted failed.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use nettopo::{ExternalAnalysis, LinkMap, Network};
use rd_snap::Corpus;
use routing_design::snapshot::{capture, snap_dir};
use routing_design::{
    classify_network, Adjacencies, Diagnostic, InstanceGraph, Instances, NetworkAnalysis,
    ProcessGraph, Processes, Severity, Table1,
};

use crate::inputs::{self, Tree};
use crate::report::{
    flush_disk, median, peak_rss_mb, quantile, setup_seconds, timed, Report, OP_QUANTILE,
};
use crate::Options;

/// Cold analyses always measured, however short the run.
const MIN_OPS: usize = 3;

pub fn run(work: &Path, opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let build = || inputs::build_tree(&work.join("tree"), opts.scale, opts.seed);
    let (tree, first_ms) = timed(build);
    let tree = tree?;
    let out = work.join("study.rdsnap");

    // Warm-up: fills the allocator and page cache, and fixes the
    // trailer every later iteration must reproduce. Its peak is that of
    // one `rdx snap` process; repeated analyses in one process creep
    // upward through allocator fragmentation, so a peak read later would
    // grow with the number of analyses that fit in the run.
    let first = snap_once(&tree.dir, &out)?;
    check(&mut report, &tree, &first, first.trailer);
    report.set("peak_rss_mb", peak_rss_mb());
    flush_disk();

    if opts.trace {
        trace(&tree, work, opts.seconds, 1, first.trailer, &mut report)?;
    } else {
        let mut walls = Vec::new();
        let started = Instant::now();
        while walls.len() < MIN_OPS || started.elapsed() < opts.seconds {
            let (snapped, wall) = timed(|| snap_once(&tree.dir, &out));
            walls.push(wall);
            check(&mut report, &tree, &snapped?, first.trailer);
        }
        let slow = quantile(&walls, OP_QUANTILE);
        report.set("op_p90_ms", slow);
        report.set("ops_per_s_p10", 1e3 / slow);
        report.set("setup_s", setup_seconds(first_ms / 1e3, build, drop)?);
    }
    Ok(report)
}

/// What one cold analysis-to-snapshot produced.
pub struct Snapped {
    pub networks: usize,
    pub routers: usize,
    pub dropped: usize,
    pub trailer: u64,
}

/// One cold analysis-to-snapshot, exactly as `rdx snap <dir> -o <out>`.
pub fn snap_once(tree: &Path, out: &Path) -> Result<Snapped, String> {
    let outcome = snap_dir(tree).map_err(|e| format!("snap {}: {e}", tree.display()))?;
    let bytes = outcome.corpus.to_bytes();
    rd_snap::write_atomic(out, &bytes).map_err(|e| format!("persist {}: {e}", out.display()))?;
    Ok(Snapped {
        networks: outcome.corpus.networks.len(),
        routers: outcome
            .corpus
            .networks
            .iter()
            .map(|n| n.network.routers.len())
            .sum(),
        dropped: outcome.dropped.len(),
        trailer: rd_snap::trailer_of(&bytes).unwrap_or_default(),
    })
}

/// Every network and router of the tree made it, nothing was dropped,
/// and the snapshot is the expected one.
fn check(report: &mut Report, tree: &Tree, s: &Snapped, trailer: u64) {
    let ok = s.networks == tree.networks.len()
        && s.routers == tree.routers()
        && s.dropped == 0
        && s.trailer == trailer;
    report.op(ok, || {
        format!(
            "cold snapshot: {} networks, {} routers, {} dropped, trailer {:016x} \
             (want {}, {}, 0, {trailer:016x})",
            s.networks,
            s.routers,
            s.dropped,
            s.trailer,
            tree.networks.len(),
            tree.routers()
        )
    });
}

/// The traced cold analysis of `tree`: at least `min_reps` pairs of
/// untraced and stage-by-stage runs (more while `budget` lasts), then
/// one instrumented network fan-out and a 1-thread run for the `rd_par`
/// figures. Every workload calls this on its set-up tree.
pub fn trace(
    tree: &Tree,
    work: &Path,
    budget: Duration,
    min_reps: usize,
    trailer: u64,
    report: &mut Report,
) -> Result<(), String> {
    let out = work.join("trace-untraced.rdsnap");
    let staged_out = work.join("trace-staged.rdsnap");
    let mut stage_ms: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let (mut lines_per_ms, mut bytes, mut unattributed, mut overhead) =
        (Vec::new(), 0, Vec::new(), Vec::new());
    let started = Instant::now();
    let mut reps = 0;
    while reps < min_reps.max(1) || started.elapsed() < budget {
        reps += 1;
        let (untraced, untraced_ms) = timed(|| snap_once(&tree.dir, &out));
        check(report, tree, &untraced?, trailer);
        let (staged, total_ms) = timed(|| staged_snap(&tree.dir, &staged_out));
        let staged = staged?;
        report.op(staged.trailer == trailer, || {
            format!(
                "staged snapshot trailer {:016x} != untraced {trailer:016x}",
                staged.trailer
            )
        });
        let attributed: f64 = staged.stages.iter().map(|(_, v)| v).sum();
        for (name, value) in &staged.stages {
            match stage_ms.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(*value),
                None => stage_ms.push((name, vec![*value])),
            }
        }
        let parse = staged
            .stages
            .iter()
            .find(|(n, _)| *n == "nettopo.parse_ms")
            .map_or(0.0, |s| s.1);
        lines_per_ms.push(staged.lines as f64 / parse.max(1e-9));
        bytes = staged.bytes;
        unattributed.push(total_ms - attributed);
        overhead.push(total_ms - untraced_ms);
    }
    for (name, values) in &stage_ms {
        report.set(name, median(values));
    }
    report.set("ioscfg.lines_per_ms", median(&lines_per_ms));
    report.set("rd_snap.bytes", bytes as f64);
    report.set("cold.unattributed_ms", median(&unattributed));
    report.set("cold.trace_overhead_ms", median(&overhead));

    let (busy_ratio, critical_ms) = fan_out(&tree.dir)?;
    report.set("rd_par.busy_ratio", busy_ratio);
    report.set("rd_par.critical_ms", critical_ms);
    report.set("rd_par.speedup", speedup(&tree.dir)?);
    Ok(())
}

/// The stage-by-stage analysis-to-snapshot.
struct Staged {
    stages: Vec<(&'static str, f64)>,
    lines: u64,
    bytes: usize,
    trailer: u64,
}

fn stage<T>(stages: &mut Vec<(&'static str, f64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let (value, wall) = timed(f);
    stages.push((name, wall));
    value
}

/// `rd_par::par_map` over owned items (for stages that consume their input).
fn par_map_owned<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U> {
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    rd_par::par_map(&slots, |_, slot| {
        f(slot
            .lock()
            .expect("slot lock")
            .take()
            .expect("each slot is taken once"))
    })
}

/// The network directories of a study tree, in name order (as `snap_dir`).
fn network_dirs(tree: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut dirs: Vec<(String, PathBuf)> = std::fs::read_dir(tree)
        .map_err(|e| format!("list {}: {e}", tree.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .map(|p| {
            (
                p.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                p,
            )
        })
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Reads a network directory's files in name order, as the analysis does.
fn read_files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("list {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            std::fs::read(&p)
                .map(|b| (name, b))
                .map_err(|e| format!("read {}: {e}", p.display()))
        })
        .collect()
}

/// `snap_dir` + `to_bytes` + `write_atomic`, one layer call per stage.
/// Mirrors `NetworkAnalysis::from_bytes_list`/`from_network` and
/// `snap_dir`'s error budget; the trailer check catches any drift.
fn staged_snap(tree: &Path, out: &Path) -> Result<Staged, String> {
    let dirs = network_dirs(tree)?;
    let mut st = Vec::new();
    let read = stage(&mut st, "core.read_ms", || {
        rd_par::par_map(&dirs, |_, (_, dir)| {
            read_files(dir).map(|files| {
                let hashes: Vec<(String, u64)> = files
                    .iter()
                    .map(|(n, b)| (n.clone(), rd_snap::fnv1a64(b)))
                    .collect();
                (files, hashes)
            })
        })
    });
    let (files, hashes): (Vec<_>, Vec<_>) = read
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let parsed = stage(&mut st, "nettopo.parse_ms", || {
        rd_par::par_map(&files, |_, f| Network::parse_files(f))
    });
    drop(files);
    let nets = stage(&mut st, "nettopo.assemble_ms", || {
        par_map_owned(parsed, Network::from_parsed)
    });
    let lines: u64 = nets
        .iter()
        .flat_map(|n| n.routers.iter())
        .map(|r| r.command_lines as u64)
        .sum();
    let idx: Vec<usize> = (0..nets.len()).collect();
    let links = stage(&mut st, "nettopo.links_ms", || {
        rd_par::par_map(&nets, |_, n| LinkMap::build(n))
    });
    let external = stage(&mut st, "nettopo.external_ms", || {
        rd_par::par_map(&idx, |_, &i| ExternalAnalysis::build(&nets[i], &links[i]))
    });
    let procs = stage(&mut st, "routing_model.processes_ms", || {
        rd_par::par_map(&nets, |_, n| Processes::extract(n))
    });
    let adjs = stage(&mut st, "routing_model.adjacencies_ms", || {
        rd_par::par_map(&idx, |_, &i| {
            Adjacencies::build(&nets[i], &links[i], &procs[i], &external[i])
        })
    });
    let insts = stage(&mut st, "routing_model.instances_ms", || {
        rd_par::par_map(&idx, |_, &i| Instances::compute(&procs[i], &adjs[i]))
    });
    let graphs = stage(&mut st, "routing_model.graphs_ms", || {
        rd_par::par_map(&idx, |_, &i| {
            (
                InstanceGraph::build(&nets[i], &procs[i], &adjs[i], &insts[i]),
                ProcessGraph::build(&nets[i], &procs[i], &adjs[i]),
            )
        })
    });
    let blocks = stage(&mut st, "netaddr.blocks_ms", || {
        rd_par::par_map(&nets, |_, n| n.address_blocks())
    });
    let classified = stage(&mut st, "routing_model.classify_ms", || {
        rd_par::par_map(&idx, |_, &i| {
            let table1 = Table1::compute(&insts[i], &graphs[i].0, &adjs[i]);
            let design = classify_network(&nets[i], &insts[i], &graphs[i].0, &adjs[i], &table1);
            (table1, design)
        })
    });
    let diags = stage(&mut st, "routing_model.diagnose_ms", || {
        rd_par::par_map(&idx, |_, &i| {
            diagnose(&nets[i], &external[i], &procs[i], &insts[i])
        })
    });
    let snaps = stage(&mut st, "core.capture_ms", || {
        let budget = nettopo::error_budget();
        let mut nets = nets.into_iter();
        let (mut links, mut external, mut procs, mut adjs, mut insts) = (
            links.into_iter(),
            external.into_iter(),
            procs.into_iter(),
            adjs.into_iter(),
            insts.into_iter(),
        );
        let (mut graphs, mut blocks, mut classified, mut diags, mut hashes) = (
            graphs.into_iter(),
            blocks.into_iter(),
            classified.into_iter(),
            diags.into_iter(),
            hashes.into_iter(),
        );
        let mut snaps = Vec::with_capacity(dirs.len());
        for (name, _) in &dirs {
            let one = "one result per network";
            let (instance_graph, process_graph) = graphs.next().expect(one);
            let (table1, design) = classified.next().expect(one);
            let analysis = NetworkAnalysis {
                network: nets.next().expect(one),
                links: links.next().expect(one),
                external: external.next().expect(one),
                processes: procs.next().expect(one),
                adjacencies: adjs.next().expect(one),
                instances: insts.next().expect(one),
                instance_graph,
                process_graph,
                blocks: blocks.next().expect(one),
                table1,
                design,
                diagnostics: diags.next().expect(one),
                timings: Default::default(),
                file_hashes: hashes.next().expect(one),
            };
            if !analysis.network.coverage.over_budget(budget) {
                snaps.push(capture(name, analysis));
            }
        }
        snaps
    });
    let bytes = stage(&mut st, "rd_snap.encode_ms", || {
        Corpus::new(snaps).to_bytes()
    });
    stage(&mut st, "rd_snap.persist_ms", || {
        rd_snap::write_atomic(out, &bytes)
    })
    .map_err(|e| format!("persist {}: {e}", out.display()))?;
    Ok(Staged {
        stages: st,
        lines,
        bytes: bytes.len(),
        trailer: rd_snap::trailer_of(&bytes).unwrap_or_default(),
    })
}

/// The diagnose stage of `NetworkAnalysis::from_network`: parse
/// diagnostics, then missing-router hints, then design smells.
fn diagnose(
    network: &Network,
    external: &ExternalAnalysis,
    processes: &Processes,
    instances: &Instances,
) -> routing_design::Diagnostics {
    let mut diagnostics = network.diagnostics.clone();
    for hint in &external.missing_router_hints {
        let router = network.router(hint.iface.router);
        diagnostics.push(Diagnostic {
            file: router.file_name.clone(),
            line: 0,
            severity: Severity::Warning,
            code: "possible-missing-router",
            message: format!(
                "interface {} ({}) is external-facing inside internal block {} — \
                 a router configuration may be missing from the data set",
                router.config.interfaces[hint.iface.iface].name, hint.subnet, hint.block,
            ),
        });
    }
    diagnostics.extend(routing_model::design_diagnostics(
        network, processes, instances,
    ));
    diagnostics
}

/// `snap_dir`'s network fan-out with each network's analysis timed:
/// (Σ per-network busy time ÷ (wall × threads), slowest network in ms).
fn fan_out(tree: &Path) -> Result<(f64, f64), String> {
    let dirs = network_dirs(tree)?;
    let threads = rd_par::thread_count().min(dirs.len()).max(1);
    let (busy, wall) = timed(|| {
        rd_par::par_map(&dirs, |_, (name, dir)| {
            let (analysis, busy) =
                timed(|| NetworkAnalysis::from_dir(dir).map(|a| capture(name, a)));
            analysis
                .map(|_| busy)
                .map_err(|e| format!("analyze {}: {e}", dir.display()))
        })
    });
    let busy = busy.into_iter().collect::<Result<Vec<f64>, _>>()?;
    let critical = busy.iter().copied().fold(0.0, f64::max);
    Ok((busy.iter().sum::<f64>() / (wall * threads as f64), critical))
}

/// `snap_dir` wall at one thread ÷ the mean of the runs at the
/// configured thread count just before and after it.
fn speedup(tree: &Path) -> Result<f64, String> {
    let threads = rd_par::thread_count();
    let snap = || -> Result<f64, String> {
        let (outcome, wall) = timed(|| snap_dir(tree));
        outcome.map_err(|e| format!("snap {}: {e}", tree.display()))?;
        Ok(wall)
    };
    let before = snap()?;
    std::env::set_var(rd_par::THREADS_ENV, "1");
    let one = snap();
    std::env::set_var(rd_par::THREADS_ENV, threads.to_string());
    let after = snap()?;
    Ok(one? / ((before + after) / 2.0))
}
