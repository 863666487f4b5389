//! The self-contained bench mode behind `repro --bench`: times the
//! generate + analyze pipeline per network and per stage, and renders the
//! result as `BENCH_repro.json` through `rd_obs::json::Writer`. All of it
//! is in-tree, so the harness works with no external crates and no network
//! access.

use std::time::{Duration, Instant};

use netgen::{study_roster, StudyScale};
use rd_obs::json::{Layout, Writer};
use rd_obs::metrics::Metric;
use rd_obs::StageTimings;
use rd_snap::Corpus;
use routing_design::report::StudyNetwork;
use routing_design::NetworkAnalysis;

/// Timing record of one network's generate + analyze run.
pub struct NetworkBench {
    /// Roster name (`net1`...).
    pub name: String,
    /// Router count of the generated corpus.
    pub routers: usize,
    /// Wall-clock of corpus generation (netgen).
    pub generate: Duration,
    /// Per-stage wall-clock of the analysis (includes `"parse"`).
    pub stages: StageTimings,
}

impl NetworkBench {
    /// Generation plus every analysis stage.
    pub fn total(&self) -> Duration {
        self.generate + self.stages.total()
    }
}

/// Timing record of one whole-study run at one scale.
pub struct ScaleBench {
    /// `"small"` or `"full"`.
    pub scale: &'static str,
    /// Worker threads the parallel run used.
    pub threads: usize,
    /// End-to-end wall-clock of the parallel run.
    pub wall: Duration,
    /// End-to-end wall-clock of the same work on one thread, measured
    /// only when `threads > 1` (it is the same run otherwise).
    pub sequential_wall: Option<Duration>,
    /// Per-network records from the parallel run, in roster order.
    pub networks: Vec<NetworkBench>,
}

impl ScaleBench {
    /// Stage durations summed across every network.
    pub fn stage_totals(&self) -> StageTimings {
        let mut totals = StageTimings::new();
        totals.push("generate", self.networks.iter().map(|n| n.generate).sum());
        for n in &self.networks {
            totals.merge(&n.stages);
        }
        totals
    }

    /// `sequential_wall / wall`, when both were measured.
    pub fn speedup(&self) -> Option<f64> {
        self.sequential_wall.map(|s| s.as_secs_f64() / self.wall.as_secs_f64())
    }
}

/// Runs the whole study at `scale` on `threads` workers, timing each
/// network's generation and each analysis stage. Per-network work runs
/// through the same `rd_par` fan-out as `analyzed_study`.
pub fn bench_study(scale: StudyScale, threads: usize) -> Vec<NetworkBench> {
    let roster = study_roster(scale);
    rd_par::par_map_threads(threads, &roster, |_, spec| {
        let started = Instant::now();
        let generated = netgen::study::generate_network(spec, scale);
        let generate = started.elapsed();
        let analysis = NetworkAnalysis::from_texts(generated.texts)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        rd_obs::trace::event(
            "bench.network",
            &[
                ("name", spec.name.as_str().into()),
                ("routers", analysis.network.len().into()),
            ],
        );
        NetworkBench {
            name: spec.name.clone(),
            routers: analysis.network.len(),
            generate,
            stages: analysis.timings,
        }
    })
}

/// Benches one scale end to end: a parallel run on [`rd_par::thread_count`]
/// workers plus, when that is more than one, a single-thread run of the
/// same work for the speedup baseline.
pub fn bench_scale(scale: StudyScale) -> ScaleBench {
    let threads = rd_par::thread_count();
    let started = Instant::now();
    let networks = bench_study(scale, threads);
    let wall = started.elapsed();
    let sequential_wall = (threads > 1).then(|| {
        let started = Instant::now();
        // The inner parse fan-out still sees RD_THREADS; pin it to 1 so
        // the baseline is truly sequential, then restore.
        let saved = std::env::var(rd_par::THREADS_ENV).ok();
        std::env::set_var(rd_par::THREADS_ENV, "1");
        let baseline = bench_study(scale, 1);
        match saved {
            Some(v) => std::env::set_var(rd_par::THREADS_ENV, v),
            None => std::env::remove_var(rd_par::THREADS_ENV),
        }
        drop(baseline);
        started.elapsed()
    });
    ScaleBench { scale: scale_name(scale), threads, wall, sequential_wall, networks }
}

/// The label a bench record carries for `scale`.
fn scale_name(scale: StudyScale) -> &'static str {
    match scale {
        StudyScale::Small => "small",
        StudyScale::Full => "full",
    }
}

/// Timing record of one isolated `ExternalAnalysis::build` run — the
/// address-analytics stage the `netaddr` prefix index layer serves.
pub struct ExternalBench {
    /// Roster name of the measured network.
    pub network: String,
    /// Routers in the generated corpus.
    pub routers: usize,
    /// Interfaces the build classified.
    pub interfaces: usize,
    /// Wall-clock of one `ExternalAnalysis::build`.
    pub build: Duration,
}

/// Times `ExternalAnalysis::build` in isolation on the largest roster
/// network (`net18`, 1,750 routers at full scale; the last roster entry
/// should that name ever disappear). Generation, parse, and link
/// inference all run outside the timed region, so the record tracks just
/// the external-classification stage across benchmark history.
pub fn bench_external(scale: StudyScale) -> ExternalBench {
    let roster = study_roster(scale);
    let spec = roster
        .iter()
        .find(|s| s.name == "net18")
        .or_else(|| roster.last())
        .expect("non-empty study roster");
    let generated = netgen::study::generate_network(spec, scale);
    let net = nettopo::Network::from_texts(generated.texts)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let links = nettopo::LinkMap::build(&net);
    let started = Instant::now();
    let analysis = nettopo::ExternalAnalysis::build(&net, &links);
    let build = started.elapsed();
    ExternalBench {
        network: spec.name.clone(),
        routers: net.len(),
        interfaces: analysis.classes.len(),
        build,
    }
}

/// Timing record of the snapshot (`rd-snap`) round trip over an analyzed
/// study: encode-to-bytes vs decode-from-bytes vs the analysis wall that
/// produced the corpus in the first place.
pub struct SnapBench {
    /// Networks in the snapshotted corpus.
    pub networks: usize,
    /// Encoded container size.
    pub bytes: usize,
    /// Wall-clock of encoding the whole corpus (`snap:write`).
    pub write: Duration,
    /// Wall-clock of decoding it back (`snap:load`).
    pub load: Duration,
    /// Summed per-stage analysis wall of the same corpus — what a load
    /// replaces, measured on the same (sequential) terms.
    pub analyze: Duration,
}

impl SnapBench {
    /// How many times faster loading the snapshot is than re-analyzing.
    pub fn speedup(&self) -> f64 {
        self.analyze.as_secs_f64() / self.load.as_secs_f64().max(1e-9)
    }
}

/// Snapshots an analyzed study in memory, timing the encode and decode
/// halves. Returns the record plus the decoded corpus (handy for pushing
/// straight into [`bench_serve_load`]).
///
/// Consumes the analyses so at most one full copy of the study is alive
/// at a time — on memory-tight machines, extra resident copies perturb
/// the very timings being measured.
pub fn bench_snapshot(networks: Vec<StudyNetwork>) -> (SnapBench, Corpus) {
    let analyze = networks.iter().map(|n| n.analysis.timings.total()).sum();
    let snaps = networks
        .into_iter()
        .map(|n| routing_design::snapshot::capture(&n.name, n.analysis))
        .collect();
    snapshot_roundtrip(snaps, analyze)
}

/// Encodes `snaps` and decodes them back, timing each half.
fn snapshot_roundtrip(
    snaps: Vec<rd_snap::NetworkSnapshot>,
    analyze: Duration,
) -> (SnapBench, Corpus) {
    let networks = snaps.len();
    let corpus = Corpus::new(snaps);
    let started = Instant::now();
    let bytes = corpus.to_bytes();
    let write = started.elapsed();
    drop(corpus);
    let started = Instant::now();
    let loaded = Corpus::from_bytes(&bytes).expect("snapshot roundtrip");
    let load = started.elapsed();
    (SnapBench { networks, bytes: bytes.len(), write, load, analyze }, loaded)
}

/// Builds the snapshot corpus of a study scale without timing anything
/// — for benches that need a served corpus but measure the query
/// server, not snapshot I/O.
pub fn study_corpus(scale: StudyScale) -> Corpus {
    let networks = crate::analyzed_study(scale);
    Corpus::new(
        networks
            .into_iter()
            .map(|n| routing_design::snapshot::capture(&n.name, n.analysis))
            .collect(),
    )
}

/// Result of the pipelined mixed-endpoint load run (`bench_serve` in
/// `BENCH_repro.json`): what the epoll server sustains when clients
/// batch requests instead of strict request/response lockstep.
pub struct ServeLoadBench {
    /// Concurrent keep-alive connections.
    pub conns: usize,
    /// Requests pipelined per write.
    pub pipeline: usize,
    /// What the run measured (errors must be zero).
    pub stats: crate::loadgen::LoadStats,
}

/// Serves `corpus` on an ephemeral port and runs the pipelined load
/// against it — over the standard endpoint mix when `load` names no
/// paths.
pub fn bench_serve_load(corpus: Corpus, load: &crate::loadgen::LoadOptions) -> ServeLoadBench {
    let mut opts = load.clone();
    if opts.paths.is_empty() {
        let names: Vec<String> = corpus.networks.iter().map(|n| n.name.clone()).collect();
        opts.paths = crate::loadgen::mixed_paths(&names);
    }
    let serve = rd_serve::ServeOptions::default();
    let server = rd_serve::Server::start(corpus, None, "127.0.0.1:0", serve).expect("bench server");
    let stats = crate::loadgen::run(server.local_addr(), &opts).expect("load run");
    server.shutdown();
    ServeLoadBench { conns: opts.conns, pipeline: opts.pipeline, stats }
}

/// The spans of a response-cache build that [`bench_cache_build`] keeps:
/// the whole build and its `/pathways` render, the costliest endpoint.
const CACHE_BUILD_SPANS: [&str; 2] = ["serve.cache_build", "render:/pathways"];

/// Timing record of one query-server response-cache build
/// (`bench_cache_build` in `BENCH_repro.json`): what every boot, hot
/// reload and `rdx watch` publish spends rendering the served bodies.
pub struct CacheBuildBench {
    /// `"small"` or `"full"`.
    pub scale: &'static str,
    /// Networks in the served corpus.
    pub networks: usize,
    /// `serve.cache_build` and its `render:/pathways` child, by span
    /// name.
    pub phases: StageTimings,
}

/// Boots a query server on `corpus` and records its response-cache
/// build, read from the spans the build opens, so the figures carry the
/// names the folded profile and the trace use.
pub fn bench_cache_build(scale: StudyScale, corpus: Corpus) -> CacheBuildBench {
    let networks = corpus.networks.len();
    let (server, spans) = rd_obs::span::all_stages(|| {
        let opts = rd_serve::ServeOptions { workers: 1, ..rd_serve::ServeOptions::default() };
        rd_serve::Server::start(corpus, None, "127.0.0.1:0", opts).expect("bench server")
    });
    server.shutdown();
    let mut phases = StageTimings::new();
    for name in CACHE_BUILD_SPANS {
        if let Some(d) = spans.get(name) {
            phases.push(name, d);
        }
    }
    CacheBuildBench { scale: scale_name(scale), networks, phases }
}

/// Timing record of one reconfiguration-planning scenario (`bench_plan`
/// in `BENCH_repro.json`): the rd-plan diff → DAG → verified-search
/// pipeline run end to end through the real analysis bridge.
pub struct PlanBench {
    /// Scenario label (`"demo"`, `"star6"`).
    pub scenario: &'static str,
    /// Router count of the target corpus.
    pub routers: usize,
    /// Atomic change units between the corpora.
    pub units: usize,
    /// Steps in the safe ordering (equals `units` on success).
    pub steps: usize,
    /// Intermediate corpus states fully re-analyzed by the search.
    pub states_analyzed: usize,
    /// Wall-clock of the fingerprint diff phase.
    pub diff: Duration,
    /// Wall-clock of the dependency-DAG build.
    pub dag: Duration,
    /// Wall-clock of the verified ordering search (dominant phase: it
    /// re-analyzes every intermediate state).
    pub search: Duration,
}

/// Plans the two seeded rd-plan scenarios (the four-router demo whose
/// naive order is unsafe, and a six-spoke hub renumbering) through the
/// full analysis pipeline and records per-phase wall-clock.
pub fn bench_plan() -> Vec<PlanBench> {
    let scenarios: [(&'static str, _); 2] = [
        ("demo", rd_plan::scenario::demo(42)),
        ("star6", rd_plan::scenario::star(6, 7)),
    ];
    scenarios
        .into_iter()
        .map(|(scenario, (current, target))| {
            let routers = target.len();
            let plan = routing_design::plan::plan_corpora(&current, &target)
                .unwrap_or_else(|e| panic!("bench_plan {scenario}: {e}"));
            let phase = |name: &str| plan.timings.get(name).unwrap_or_default();
            PlanBench {
                scenario,
                routers,
                units: plan.units.len(),
                steps: plan.order.len(),
                states_analyzed: plan.stats.states_analyzed,
                diff: phase("plan.diff"),
                dag: phase("plan.dag"),
                search: phase("plan.search"),
            }
        })
        .collect()
}

/// Timing record of the incremental re-analysis engine (`bench_incremental`
/// in `BENCH_repro.json`): a cold study snapshot vs delta refreshes after
/// small config changes, with the engine's reuse accounting.
pub struct IncrementalBench {
    /// Networks in the study.
    pub networks: usize,
    /// Wall-clock of the cold run (`snap_dir` + encode), the baseline a
    /// refresh competes against.
    pub cold: Duration,
    /// Wall-clock of one refresh after a single-router change (the best
    /// of three rounds).
    pub one_change: Duration,
    /// That round's refresh phases ([`Refresh::phases`]).
    ///
    /// [`Refresh::phases`]: routing_design::incremental::Refresh::phases
    pub one_phases: StageTimings,
    /// Engine accounting for the single-router refresh.
    pub one_stats: routing_design::incremental::RefreshStats,
    /// Wall-clock of one refresh after changes in five networks.
    pub five_change: Duration,
    /// Engine accounting for the five-network refresh.
    pub five_stats: routing_design::incremental::RefreshStats,
}

impl IncrementalBench {
    /// `cold / one_change`: how many times faster a one-router refresh is.
    pub fn one_change_speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.one_change.as_secs_f64().max(1e-9)
    }

    /// The one-change wall no phase accounts for.
    pub fn one_change_unattributed(&self) -> Duration {
        self.one_change.saturating_sub(self.one_phases.total())
    }
}

/// Benches the delta engine over the generated study at `scale`: writes
/// the corpus to a scratch directory, times a cold `snap_dir` run, then
/// times delta refreshes after a one-router change and after changes in
/// five networks. The scratch directory is removed afterwards.
pub fn bench_incremental(scale: StudyScale) -> IncrementalBench {
    let dir = std::env::temp_dir().join(format!("rd_bench_incr_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let roster = study_roster(scale);
    for spec in &roster {
        let sub = dir.join(&spec.name);
        std::fs::create_dir_all(&sub).expect("scratch network dir");
        let generated = netgen::study::generate_network(spec, scale);
        for (name, text) in &generated.texts {
            std::fs::write(sub.join(name), text).expect("scratch config");
        }
    }

    let started = Instant::now();
    let outcome = routing_design::snapshot::snap_dir(&dir).expect("cold study run");
    let cold_bytes = outcome.corpus.to_bytes();
    let cold = started.elapsed();
    drop(cold_bytes);

    let mut engine = routing_design::incremental::DeltaEngine::new(&dir);
    engine.refresh().expect("warm-up refresh");

    // One router in one network grows a new loopback, inserted before
    // the config's `end` line: the parser stops there, so an edit after
    // it would change the bytes but never the analysis.
    let mut loopbacks = 0u32;
    let mut touch = |net: &str| {
        let sub = dir.join(net);
        let mut files: Vec<_> = std::fs::read_dir(&sub)
            .expect("scratch network readable")
            .flatten()
            .map(|e| e.path())
            .collect();
        files.sort();
        let victim = files.first().expect("network has files");
        let mut text = std::fs::read_to_string(victim).expect("victim readable");
        loopbacks += 1;
        let stanza = format!(
            "interface Loopback{loopbacks}\n ip address 10.99.{loopbacks}.1 255.255.255.255\n"
        );
        let at = text.find("\nend\n").map_or(text.len(), |i| i + 1);
        text.insert_str(at, &stanza);
        std::fs::write(victim, text).expect("victim rewritten");
    };
    // Best-of-three shaves scheduler noise, same as the parallel-speedup
    // bench: each round adds another loopback to the same router and
    // refreshes, so every round recomputes exactly one network.
    let mut one_change = Duration::MAX;
    let mut one_phases = StageTimings::new();
    let mut one_stats = routing_design::incremental::RefreshStats::default();
    for _ in 0..3 {
        touch(&roster[0].name);
        let started = Instant::now();
        let one = engine.refresh().expect("one-change refresh");
        let wall = started.elapsed();
        if wall < one_change {
            (one_change, one_phases) = (wall, one.phases);
        }
        one_stats = one.stats;
    }

    for spec in roster.iter().take(5) {
        touch(&spec.name);
    }
    let started = Instant::now();
    let five = engine.refresh().expect("five-change refresh");
    let five_change = started.elapsed();

    let _ = std::fs::remove_dir_all(&dir);
    IncrementalBench {
        networks: roster.len(),
        cold,
        one_change,
        one_phases,
        one_stats,
        five_change,
        five_stats: five.stats,
    }
}

/// The machine and build a bench ran on, so figures from different runs
/// can be compared honestly.
pub struct BenchEnv {
    /// Cores the OS reports ([`std::thread::available_parallelism`]).
    pub nproc: usize,
    /// The `RD_THREADS` setting, if any.
    pub rd_threads: Option<String>,
    /// `git describe --always --dirty` of the working directory, or
    /// `"unknown"` outside a git checkout.
    pub git_rev: String,
}

impl BenchEnv {
    /// Reads the environment of the current process.
    pub fn detect() -> BenchEnv {
        let git_rev = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=12"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|rev| rev.trim().to_string())
            .filter(|rev| !rev.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        BenchEnv {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rd_threads: std::env::var(rd_par::THREADS_ENV).ok(),
            git_rev,
        }
    }
}

/// The measured sections of a `repro --bench` run, beside its per-scale
/// study walls.
pub struct BenchSections<'a> {
    /// Snapshot size and write/load timings vs re-analysis.
    pub snap: &'a SnapBench,
    /// The pipelined mixed-endpoint load run.
    pub serve_load: &'a ServeLoadBench,
    /// The isolated external-classification stage.
    pub external: &'a ExternalBench,
    /// The reconfiguration-planning scenarios.
    pub plan: &'a [PlanBench],
    /// Cold study wall vs delta refreshes.
    pub incremental: &'a IncrementalBench,
    /// The serve cache build per scale.
    pub cache_builds: &'a [CacheBuildBench],
}

/// Renders bench results as the `BENCH_repro.json` document, a pure
/// function of its arguments. Besides `"scales"`, the document carries
/// the run's `"env"` ([`BenchEnv`]), `metrics` (`rd_obs::metrics::snapshot()`
/// in a real run) as a top-level `"metrics"` object (counters/gauges as
/// numbers, histograms as objects), and one member per section:
/// `"snap"` (snapshot size and write/load timings vs re-analysis),
/// `"bench_serve"` (the pipelined mixed-endpoint load run: throughput
/// plus p50/p99/p999), `"bench_external"` (the isolated
/// external-classification stage), `"bench_plan"` (the
/// reconfiguration-planning scenarios), `"bench_incremental"` (cold study
/// wall vs delta refreshes with reuse accounting and the one-change
/// refresh's phases), and `"bench_cache_build"` (the serve cache build
/// per scale).
pub fn render_json(
    env: &BenchEnv,
    metrics: &[(String, Metric)],
    scales: &[ScaleBench],
    sections: &BenchSections<'_>,
) -> String {
    let BenchSections { snap: s, serve_load: l, external: e, plan, incremental: i, cache_builds } =
        *sections;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let stages = |w: &mut Writer, t: &StageTimings| {
        w.obj(Layout::Block, |w| {
            for (name, d) in &t.stages {
                w.key(name).num(format_args!("{:.3}", ms(*d)));
            }
        });
    };
    let mut w = Writer::object(Layout::Block);
    w.key("benchmark").str("repro");
    w.key("unit").str("ms");
    w.key("env").obj(Layout::Block, |w| {
        w.key("nproc").num(env.nproc);
        w.key("rd_threads");
        match &env.rd_threads {
            Some(v) => w.str(v),
            None => w.num("null"),
        };
        w.key("git_rev").str(&env.git_rev);
    });
    rd_obs::metrics::write_json(w.key("metrics"), metrics);
    w.key("snap").obj(Layout::Block, |w| {
        w.key("networks").num(s.networks);
        w.key("bytes").num(s.bytes);
        w.key("write_ms").num(format_args!("{:.3}", ms(s.write)));
        w.key("load_ms").num(format_args!("{:.3}", ms(s.load)));
        w.key("analyze_ms").num(format_args!("{:.3}", ms(s.analyze)));
        w.key("load_speedup").num(format_args!("{:.1}", s.speedup()));
    });
    w.key("bench_serve").obj(Layout::Block, |w| {
        w.key("conns").num(l.conns);
        w.key("pipeline").num(l.pipeline);
        w.key("duration_ms").num(format_args!("{:.3}", ms(l.stats.duration)));
        w.key("requests").num(l.stats.requests);
        w.key("errors").num(l.stats.errors);
        w.key("throughput_rps").num(format_args!("{:.0}", l.stats.throughput_rps));
        w.key("p50_us").num(l.stats.p50_us);
        w.key("p99_us").num(l.stats.p99_us);
        w.key("p999_us").num(l.stats.p999_us);
    });
    w.key("bench_external").obj(Layout::Block, |w| {
        w.key("network").str(&e.network);
        w.key("routers").num(e.routers);
        w.key("interfaces").num(e.interfaces);
        w.key("build_ms").num(format_args!("{:.3}", ms(e.build)));
    });
    w.key("bench_plan").arr(Layout::Block, |w| {
        for p in plan {
            w.obj(Layout::Block, |w| {
                w.key("scenario").str(p.scenario);
                w.key("routers").num(p.routers);
                w.key("units").num(p.units);
                w.key("steps").num(p.steps);
                w.key("states_analyzed").num(p.states_analyzed);
                w.key("diff_ms").num(format_args!("{:.3}", ms(p.diff)));
                w.key("dag_ms").num(format_args!("{:.3}", ms(p.dag)));
                w.key("search_ms").num(format_args!("{:.3}", ms(p.search)));
            });
        }
    });
    w.key("bench_incremental").obj(Layout::Block, |w| {
        w.key("networks").num(i.networks);
        w.key("cold_ms").num(format_args!("{:.3}", ms(i.cold)));
        w.key("one_change_ms").num(format_args!("{:.3}", ms(i.one_change)));
        stages(w.key("one_change_phases_ms"), &i.one_phases);
        w.key("one_change_unattributed_ms")
            .num(format_args!("{:.3}", ms(i.one_change_unattributed())));
        w.key("one_change_reused").num(i.one_stats.reused);
        w.key("one_change_recomputed").num(i.one_stats.recomputed);
        w.key("one_change_files_reparsed").num(i.one_stats.files_reparsed);
        w.key("one_change_speedup").num(format_args!("{:.1}", i.one_change_speedup()));
        w.key("five_change_ms").num(format_args!("{:.3}", ms(i.five_change)));
        w.key("five_change_reused").num(i.five_stats.reused);
        w.key("five_change_recomputed").num(i.five_stats.recomputed);
        w.key("five_change_files_reparsed").num(i.five_stats.files_reparsed);
    });
    w.key("bench_cache_build").arr(Layout::Block, |w| {
        for c in cache_builds {
            w.obj(Layout::Block, |w| {
                w.key("scale").str(c.scale);
                w.key("networks").num(c.networks);
                stages(w.key("phases_ms"), &c.phases);
            });
        }
    });
    w.key("scales").arr(Layout::Block, |w| {
        for s in scales {
            w.obj(Layout::Block, |w| {
                w.key("scale").str(s.scale);
                w.key("threads").num(s.threads);
                w.key("wall_ms").num(format_args!("{:.3}", ms(s.wall)));
                if let Some(seq) = s.sequential_wall {
                    w.key("sequential_wall_ms").num(format_args!("{:.3}", ms(seq)));
                    w.key("speedup")
                        .num(format_args!("{:.2}", s.speedup().expect("speedup measured")));
                }
                stages(w.key("stage_totals_ms"), &s.stage_totals());
                w.key("networks").arr(Layout::Block, |w| {
                    for n in &s.networks {
                        w.obj(Layout::Block, |w| {
                            w.key("name").str(&n.name);
                            w.key("routers").num(n.routers);
                            w.key("total_ms").num(format_args!("{:.3}", ms(n.total())));
                            w.key("generate_ms").num(format_args!("{:.3}", ms(n.generate)));
                            stages(w.key("stages_ms"), &n.stages);
                        });
                    }
                });
            });
        }
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_small_scale_records_every_network_and_stage() {
        let networks = bench_study(StudyScale::Small, 1);
        assert_eq!(networks.len(), study_roster(StudyScale::Small).len());
        for n in &networks {
            assert!(n.routers > 0, "{} generated no routers", n.name);
            for stage in
                ["parse", "links", "external", "processes", "adjacencies", "instances"]
            {
                assert!(n.stages.get(stage).is_some(), "{} missing stage {stage}", n.name);
            }
        }
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let scales = vec![ScaleBench {
            scale: "small",
            threads: 2,
            wall: Duration::from_millis(10),
            sequential_wall: Some(Duration::from_millis(18)),
            networks: vec![NetworkBench {
                name: "net1".into(),
                routers: 7,
                generate: Duration::from_millis(1),
                stages: {
                    let mut t = StageTimings::new();
                    t.push("parse", Duration::from_millis(2));
                    t.push("links", Duration::from_millis(3));
                    t
                },
            }],
        }];
        let snap = SnapBench {
            networks: 1,
            bytes: 4096,
            write: Duration::from_millis(1),
            load: Duration::from_millis(2),
            analyze: Duration::from_millis(40),
        };
        let external = ExternalBench {
            network: "net18".into(),
            routers: 1750,
            interfaces: 7000,
            build: Duration::from_millis(120),
        };
        let serve_load = ServeLoadBench {
            conns: 4,
            pipeline: 64,
            stats: crate::loadgen::LoadStats {
                requests: 360000,
                errors: 0,
                duration: Duration::from_secs(3),
                throughput_rps: 120000.0,
                p50_us: 150,
                p99_us: 210,
                p999_us: 400,
                body_bytes: 0,
                endpoints: Vec::new(),
            },
        };
        let plans = vec![PlanBench {
            scenario: "demo",
            routers: 4,
            units: 4,
            steps: 4,
            states_analyzed: 9,
            diff: Duration::from_millis(1),
            dag: Duration::from_millis(1),
            search: Duration::from_millis(30),
        }];
        let incremental = IncrementalBench {
            networks: 31,
            cold: Duration::from_millis(3100),
            one_change: Duration::from_millis(100),
            one_phases: {
                let mut t = StageTimings::new();
                t.push("incr.sweep", Duration::from_millis(60));
                t.push("incr.recompute", Duration::from_millis(30));
                t
            },
            one_stats: routing_design::incremental::RefreshStats {
                networks: 31,
                reused: 30,
                recomputed: 1,
                files_reparsed: 1,
                dropped: 0,
            },
            five_change: Duration::from_millis(500),
            five_stats: routing_design::incremental::RefreshStats {
                networks: 31,
                reused: 26,
                recomputed: 5,
                files_reparsed: 5,
                dropped: 0,
            },
        };
        let cache_builds = vec![CacheBuildBench {
            scale: "full",
            networks: 31,
            phases: {
                let mut t = StageTimings::new();
                t.push("serve.cache_build", Duration::from_millis(120));
                t.push("render:/pathways", Duration::from_millis(80));
                t
            },
        }];
        let mut request_us = rd_obs::metrics::Histogram::new(&[100, 1000]);
        for v in [90, 150, 4000] {
            request_us.record(v);
        }
        let metrics = vec![
            ("parse.lines".to_string(), Metric::Counter(1200)),
            ("rss.peak_kb".to_string(), Metric::Gauge(65536)),
            ("serve.request_us".to_string(), Metric::Histogram(request_us)),
        ];
        let env = BenchEnv { nproc: 2, rd_threads: Some("2".into()), git_rev: "abc123".into() };
        let sections = BenchSections {
            snap: &snap,
            serve_load: &serve_load,
            external: &external,
            plan: &plans,
            incremental: &incremental,
            cache_builds: &cache_builds,
        };
        let text = render_json(&env, &metrics, &scales, &sections);
        assert!(text.contains("\"speedup\": 1.80"));
        assert!(text.contains("\"parse\": 2.000"));
        assert!(text.contains("\"routers\": 7"));
        assert!(text.contains("\"load_speedup\": 20.0"));
        assert!(text.contains("\"env\": {\n    \"nproc\": 2,\n    \"rd_threads\": \"2\""));
        assert!(text.contains("\"git_rev\": \"abc123\""));
        assert!(text.contains("\"p99_us\": 210"));
        assert!(!text.contains("\"serve\""));
        assert!(text.contains("\"bench_serve\""));
        assert!(text.contains("\"throughput_rps\": 120000"));
        assert!(text.contains("\"p999_us\": 400"));
        assert!(text.contains("\"bench_external\""));
        assert!(text.contains("\"build_ms\": 120.000"));
        assert!(text.contains("\"bench_plan\""));
        assert!(text.contains("\"states_analyzed\": 9"));
        assert!(text.contains("\"search_ms\": 30.000"));
        assert!(text.contains("\"bench_incremental\""));
        assert!(text.contains("\"one_change_reused\": 30"));
        assert!(text.contains("\"incr.sweep\": 60.000"));
        assert!(text.contains("\"one_change_unattributed_ms\": 10.000"));
        assert!(text.contains("\"one_change_speedup\": 31.0"));
        assert!(text.contains("\"five_change_recomputed\": 5"));
        assert!(text.contains("\"bench_cache_build\""));
        assert!(text.contains("\"render:/pathways\": 80.000"));
        assert_eq!(text, include_str!("../../../tests/golden/json/bench.json"));

        // An unset RD_THREADS renders as null.
        let env = BenchEnv { nproc: 1, rd_threads: None, git_rev: "unknown".into() };
        assert!(render_json(&env, &[], &scales, &sections).contains("\"rd_threads\": null"));
    }

    #[test]
    fn external_bench_isolates_the_largest_network() {
        let e = bench_external(StudyScale::Small);
        assert_eq!(e.network, "net18");
        assert!(e.routers > 0, "no routers generated");
        assert!(e.interfaces > 0, "no interfaces classified");
    }

    #[test]
    fn snapshot_bench_roundtrips_with_positive_speedup() {
        let networks = rd_bench_study_subset();
        let count = networks.len();
        let (snap, corpus) = bench_snapshot(networks);
        assert_eq!(snap.networks, count);
        assert_eq!(corpus.networks.len(), count);
        assert!(snap.bytes > 0);
        // No wall-clock assertion beyond sanity: timings are environment
        // dependent. `BENCH_repro.json`'s `snap` section records the ratio.
        assert!(snap.speedup() > 0.0);
    }

    #[test]
    fn serve_load_bench_runs_mixed_pipelined_traffic() {
        let networks = rd_bench_study_subset();
        let (_, corpus) = bench_snapshot(networks);
        let load = crate::loadgen::LoadOptions {
            conns: 2,
            pipeline: 8,
            duration: Duration::from_millis(300),
            max_batches: None,
            paths: Vec::new(),
            connect_retries: 3,
        };
        let bench = bench_serve_load(corpus, &load);
        let stats = &bench.stats;
        assert_eq!(stats.errors, 0, "load run saw errors");
        assert!(stats.requests >= bench.conns as u64 * bench.pipeline as u64);
        assert!(stats.p50_us <= stats.p99_us && stats.p99_us <= stats.p999_us);
        assert!(stats.throughput_rps > 0.0);
    }

    #[test]
    fn cache_build_bench_reads_the_build_spans() {
        let (_, corpus) = bench_snapshot(rd_bench_study_subset());
        let bench = bench_cache_build(StudyScale::Small, corpus);
        assert_eq!((bench.scale, bench.networks), ("small", 2));
        let names: Vec<&str> = bench.phases.stages.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, CACHE_BUILD_SPANS);
        assert!(bench.phases.get("render:/pathways") <= bench.phases.get("serve.cache_build"));
    }

    #[test]
    fn incremental_bench_reuses_unchanged_networks() {
        let bench = bench_incremental(StudyScale::Small);
        assert_eq!(bench.networks, study_roster(StudyScale::Small).len());
        assert_eq!(bench.one_stats.recomputed, 1, "one changed network recomputed");
        assert_eq!(bench.one_stats.reused, bench.networks - 1);
        assert_eq!(bench.one_stats.files_reparsed, 1, "only the changed file reparses");
        let phases: Vec<&str> = bench.one_phases.stages.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(phases, ["incr.sweep", "incr.recompute", "incr.assemble", "incr.handout"]);
        assert!(bench.one_phases.total() <= bench.one_change, "phases sit inside the wall");
        assert_eq!(bench.five_stats.recomputed, 5);
        assert_eq!(bench.five_stats.reused, bench.networks - 5);
        assert_eq!(bench.five_stats.files_reparsed, 5);
    }

    /// Two small study networks analyzed for the snapshot/serve benches.
    fn rd_bench_study_subset() -> Vec<StudyNetwork> {
        study_roster(StudyScale::Small)
            .into_iter()
            .filter(|spec| spec.name == "net1" || spec.name == "net2")
            .map(|spec| {
                let generated = netgen::study::generate_network(&spec, StudyScale::Small);
                let analysis =
                    NetworkAnalysis::from_texts(generated.texts).expect("subset analyzes");
                StudyNetwork { name: spec.name.clone(), analysis }
            })
            .collect()
    }
}
