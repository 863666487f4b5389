//! `edit_to_fresh`: an in-process `rdx watch` — an `rd_serve::Server`
//! booted from the tree's snapshot plus a `watch::Watcher` with zero poll
//! interval and debounce, driven with `tick()` — under a seeded sequence
//! of single-router edits.
//!
//! A semantic edit is timed from its write returning until the server
//! answers `/networks/{net}` with a new ETag; it must change both the
//! ETag and the body. A cosmetic edit is timed over one `tick()`, which
//! must return `Idle`, and must change neither. The run ends on a
//! semantic edit, so the last persisted snapshot covers every edit and
//! must equal a cold `snap_dir` of the final tree byte for byte.
//!
//! The traced run spends its first half like the untraced one and its
//! second half tracing: after each semantic edit a twin `DeltaEngine`,
//! kept in step with the watcher's, repeats the refresh, the persist,
//! the publish, and the renders the publish performs, each timed alone.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rd_serve::{render, ServeOptions, Server};
use rd_snap::Corpus;
use routing_design::incremental::DeltaEngine;
use routing_design::snapshot::snap_dir;
use routing_design::watch::{Tick, WatchOptions, Watcher};

use crate::http::Client;
use crate::inputs::{self, Edit, EditKind, Tree};
use crate::report::{
    flush_disk, median, ms, peak_rss_mb, quantile, setup_seconds, timed, Report, OP_QUANTILE,
};
use crate::Options;

/// Semantic edits always measured, however short the run.
const MIN_SEMANTIC: usize = 3;
/// Semantic edits after which the peak RSS is read. The watcher's RSS
/// creeps up with every publish, so reading it at a fixed edit count
/// keeps `peak_rss_mb` from rising merely because edits got faster.
const RSS_AFTER: usize = 16;
/// Leading edits (one semantic, one cosmetic) left out of the figures:
/// the watcher's delta engine starts empty, so the first publish
/// re-analyzes every network and fills its caches.
const WARM_UP_EDITS: usize = 2;
/// Longest edit sequence drawn; a run stops far earlier.
const MAX_EDITS: usize = 100_000;
/// How long a published edit may keep answering with the old ETag.
const STALE_WAIT: Duration = Duration::from_secs(5);

/// A booted `rdx watch`: the tree, its persisted snapshot, the server
/// and the watcher publishing into it.
struct Rig {
    tree: Tree,
    snapshot: PathBuf,
    server: Server,
    watcher: Watcher,
    boot_ms: f64,
}

impl Rig {
    fn boot(work: &Path, opts: &Options) -> Result<Rig, String> {
        let tree = inputs::build_tree(&work.join("tree"), opts.scale, opts.seed)?;
        let outcome = snap_dir(&tree.dir).map_err(|e| format!("initial snap: {e}"))?;
        if !outcome.dropped.is_empty() {
            return Err(format!(
                "initial snap dropped {} network(s)",
                outcome.dropped.len()
            ));
        }
        let snapshot = work.join("live.rdsnap");
        rd_snap::write_atomic(&snapshot, &outcome.corpus.to_bytes())
            .map_err(|e| format!("persist: {e}"))?;
        let (server, boot_ms) = timed(|| {
            let opts = ServeOptions {
                workers: crate::server_loops(),
                ..ServeOptions::default()
            };
            Server::start_file(&snapshot, "127.0.0.1:0", opts)
        });
        let server = server.map_err(|e| format!("boot server: {e}"))?;
        let watch = WatchOptions {
            poll_interval: Duration::ZERO,
            debounce: Duration::ZERO,
            seed: opts.seed,
            ..WatchOptions::default()
        };
        let watcher = Watcher::new(&tree.dir, &snapshot, server.controller(), watch);
        Ok(Rig {
            tree,
            snapshot,
            server,
            watcher,
            boot_ms,
        })
    }

    fn teardown(self) {
        self.server.shutdown();
    }
}

/// The per-edit figures of the traced half.
#[derive(Default)]
struct Traced {
    detect: Vec<f64>,
    fresh: Vec<f64>,
    refresh: Vec<f64>,
    reuse: Vec<f64>,
    reparsed: Vec<f64>,
    persist: Vec<f64>,
    publish: Vec<f64>,
    render: [Vec<f64>; 4],
}

pub fn run(work: &Path, opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let (rig, first_ms) = timed(|| Rig::boot(work, opts));
    let mut rig = rig?;
    let result = drive(&mut rig, work, opts, &mut report);
    rig.teardown();
    result?;
    if !opts.trace {
        let setup_s = setup_seconds(first_ms / 1e3, || Rig::boot(work, opts), Rig::teardown)?;
        report.set("setup_s", setup_s);
    }
    Ok(report)
}

fn drive(rig: &mut Rig, work: &Path, opts: &Options, report: &mut Report) -> Result<(), String> {
    let mut trace_from = None;
    let mut twin = None;
    if opts.trace {
        let trailer =
            rd_snap::trailer_of(&std::fs::read(&rig.snapshot).map_err(|e| e.to_string())?)
                .unwrap_or_default();
        crate::cold::trace(
            &rig.tree,
            work,
            Duration::ZERO,
            crate::TRACE_REPS,
            trailer,
            report,
        )?;
        let (decoded, decode_ms) = timed(|| Corpus::read_file(&rig.snapshot));
        decoded?;
        report.set("rd_snap.decode_ms", decode_ms);
        report.set("rd_serve.boot_ms", rig.boot_ms - decode_ms);
        trace_from = Some(opts.seconds / 2);
    }

    let mut client = Client::connect(rig.server.local_addr())?;
    let edits = inputs::edit_sequence(opts.seed, &rig.tree.networks, MAX_EDITS);
    let mut fresh = Vec::new();
    // Wall of each semantic edit plus the cosmetic one after it, checks
    // included: each pair is one window of two edits.
    let (mut pairs, mut pair) = (Vec::new(), 0.0);
    let mut rss_mb = None;
    let mut traced = Traced::default();
    flush_disk();
    for edit in &edits[..WARM_UP_EDITS] {
        one_edit(rig, &mut client, edit, report)?;
    }
    let started = Instant::now();
    for edit in &edits[WARM_UP_EDITS..] {
        let elapsed = started.elapsed();
        let tracing = twin.is_some()
            || (edit.kind == EditKind::Semantic
                && fresh.len() >= MIN_SEMANTIC
                && trace_from.is_some_and(|from| elapsed >= from));
        if edit.kind == EditKind::Cosmetic && elapsed >= opts.seconds {
            let semantic = if tracing {
                traced.fresh.len()
            } else {
                fresh.len()
            };
            if semantic >= MIN_SEMANTIC {
                break;
            }
        }
        if tracing && twin.is_none() {
            // The twin starts cold on the tree as the watcher last
            // published it, then follows the watcher's refreshes.
            let mut engine = DeltaEngine::new(&rig.tree.dir);
            engine.refresh().map_err(|e| format!("twin warm-up: {e}"))?;
            twin = Some(engine);
        }
        let (wall, cycle) = timed(|| one_edit(rig, &mut client, edit, report));
        let wall = wall?;
        match (edit.kind, tracing) {
            (EditKind::Semantic, false) => {
                fresh.push(wall);
                pair = cycle;
                if fresh.len() == RSS_AFTER {
                    rss_mb = Some(peak_rss_mb());
                }
            }
            (EditKind::Cosmetic, false) => pairs.push(pair + cycle),
            (EditKind::Cosmetic, true) => traced.detect.push(wall),
            (EditKind::Semantic, true) => {
                traced.fresh.push(wall);
                let engine = twin.as_mut().expect("twin set up before tracing");
                trace_publish(rig, engine, work, &mut traced, report)?;
            }
        }
    }

    // The last edit was semantic and published, so the persisted
    // snapshot must be exactly what a cold run over the final tree gives.
    let persisted = std::fs::read(&rig.snapshot).map_err(|e| format!("read snapshot: {e}"))?;
    let cold = snap_dir(&rig.tree.dir).map_err(|e| format!("final cold snap: {e}"))?;
    report.op(persisted == cold.corpus.to_bytes(), || {
        "final persisted snapshot differs from a cold snap_dir of the final tree".to_string()
    });

    if opts.trace {
        let detect = median(&traced.detect);
        report.set("core.detect_ms", detect);
        report.set("core.refresh_ms", median(&traced.refresh));
        report.set("core.reuse_ratio", median(&traced.reuse));
        report.set("core.files_reparsed", median(&traced.reparsed));
        report.set("rd_snap.edit_persist_ms", median(&traced.persist));
        report.set("rd_serve.publish_ms", median(&traced.publish));
        for (name, values) in RENDER_METRICS.into_iter().zip(&traced.render) {
            report.set(name, median(values));
        }
        let unattributed: Vec<f64> = (0..traced.fresh.len())
            .map(|i| {
                traced.fresh[i] - detect - traced.refresh[i] - traced.persist[i] - traced.publish[i]
            })
            .collect();
        report.set("fresh.unattributed_ms", median(&unattributed));
        report.set(
            "fresh.trace_overhead_ms",
            median(&traced.fresh) - median(&fresh),
        );
    } else {
        report.set("op_p90_ms", quantile(&fresh, OP_QUANTILE));
        report.set("ops_per_s_p10", 2e3 / quantile(&pairs, OP_QUANTILE));
        report.set("peak_rss_mb", rss_mb.unwrap_or_else(peak_rss_mb));
    }
    Ok(())
}

/// Applies one edit and times it (semantic: write returned → new ETag
/// served; cosmetic: one `tick()`), checking what the server answers.
fn one_edit(
    rig: &mut Rig,
    client: &mut Client,
    edit: &Edit,
    report: &mut Report,
) -> Result<f64, String> {
    let path = format!("/networks/{}", edit.network);
    let before = client.get(&path)?;
    inputs::apply(&rig.tree.dir, edit)?;
    let t0 = Instant::now();
    match edit.kind {
        EditKind::Semantic => {
            // Zero debounce and no failures: one tick re-analyzes and publishes.
            let tick = rig.watcher.tick();
            // An event loop picks up a publish on its next wake-up, so
            // the first answer after it may still carry the old ETag.
            let mut after = client.get(&path)?;
            let deadline = Instant::now() + STALE_WAIT;
            while after.etag == before.etag && tick == Tick::Published && Instant::now() < deadline
            {
                after = client.get(&path)?;
            }
            let wall = ms(t0.elapsed());
            let ok = tick == Tick::Published
                && after.status == 200
                && after.etag.is_some()
                && after.etag != before.etag
                && after.body != before.body;
            report.op(ok, || {
                format!(
                    "semantic edit {} of {}/{}: tick {tick:?}, etag {:?} -> {:?}, body changed: {}",
                    edit.serial,
                    edit.network,
                    edit.file,
                    before.etag,
                    after.etag,
                    after.body != before.body
                )
            });
            Ok(wall)
        }
        EditKind::Cosmetic => {
            let tick = rig.watcher.tick();
            let wall = ms(t0.elapsed());
            let after = client.get(&path)?;
            let ok = tick == Tick::Idle
                && after.status == 200
                && after.etag == before.etag
                && after.body == before.body;
            report.op(ok, || {
                format!(
                    "cosmetic edit {} of {}/{}: tick {tick:?}, etag {:?} -> {:?}",
                    edit.serial, edit.network, edit.file, before.etag, after.etag
                )
            });
            Ok(wall)
        }
    }
}

/// Repeats, each timed alone, what the watcher's publish just did: the
/// delta refresh (on the twin engine), the persist, the server publish,
/// and the endpoint renders inside that publish.
fn trace_publish(
    rig: &mut Rig,
    twin: &mut DeltaEngine,
    work: &Path,
    traced: &mut Traced,
    report: &mut Report,
) -> Result<(), String> {
    let (refresh, refresh_ms) = timed(|| twin.refresh());
    let refresh = refresh.map_err(|e| format!("twin refresh: {e}"))?;
    let persisted = std::fs::read(&rig.snapshot).map_err(|e| format!("read snapshot: {e}"))?;
    report.op(refresh.bytes == persisted, || {
        "twin refresh bytes differ from the watcher's persisted snapshot".to_string()
    });
    traced.refresh.push(refresh_ms);
    traced
        .reuse
        .push(refresh.stats.reused as f64 / refresh.stats.networks.max(1) as f64);
    traced.reparsed.push(refresh.stats.files_reparsed as f64);

    let twin_path = work.join("twin.rdsnap");
    let (written, persist_ms) = timed(|| rd_snap::write_atomic(&twin_path, &refresh.bytes));
    written.map_err(|e| format!("twin persist: {e}"))?;
    traced.persist.push(persist_ms);

    let corpus = refresh.outcome.corpus;
    let trailer = rd_snap::trailer_of(&refresh.bytes);
    // Republishing the content already served leaves the ETag as it is.
    let ((), publish_ms) = timed(|| {
        rig.server
            .controller()
            .publish(corpus.clone(), trailer, "perfbench")
    });
    traced.publish.push(publish_ms);

    for (values, value) in traced.render.iter_mut().zip(render_ms(&corpus)) {
        values.push(value);
    }
    Ok(())
}

/// Wall of each group of cached endpoint renders a publish performs:
/// `/pathways`, `/instances`, `/networks` with every `/networks/{id}`,
/// and `/diag` with every `/networks/{id}/processes`.
pub fn render_ms(corpus: &Corpus) -> [f64; 4] {
    [
        timed(|| render::pathways(corpus).len()).1,
        timed(|| render::instances(corpus).len()).1,
        timed(|| {
            let each: usize = corpus
                .networks
                .iter()
                .map(|n| render::network_summary(n).len())
                .sum();
            render::networks_index(corpus).len() + each
        })
        .1,
        timed(|| {
            let each: usize = corpus
                .networks
                .iter()
                .map(|n| render::network_processes(n).len())
                .sum();
            render::diag(corpus).len() + each
        })
        .1,
    ]
}

pub const RENDER_METRICS: [&str; 4] = [
    "rd_serve.render_pathways_ms",
    "rd_serve.render_instances_ms",
    "rd_serve.render_networks_ms",
    "rd_serve.render_other_ms",
];
