//! The table/figure regeneration harness.
//!
//! For every table and figure in the paper's evaluation, prints the
//! paper's published value next to the value measured on the regenerated
//! corpus. Absolute counts depend on the authors' private population; the
//! claims to check are the *shapes* (who dominates, ratios, crossovers).
//!
//! ```sh
//! cargo run --release -p rd-bench --bin repro             # full scale, all targets
//! cargo run -p rd-bench --bin repro -- --small table1     # one target, ~10% scale
//! cargo run --release -p rd-bench --bin repro -- --bench  # write BENCH_repro.json
//! ```
//!
//! Targets: `all` (default), `table1`, `table3`, `fig4`, `fig8`, `fig11`,
//! `section7`, `net5`, `net15`, `diag` (per-network diagnostic totals
//! from the `rd-obs` channel; not part of `all`).
//!
//! Flags (anywhere on the line; every value flag also takes
//! `--flag=value`; a usage error exits 2): `--small` runs the ~10%-scale
//! corpus; `--timings` prints aggregate per-stage wall-clock times to
//! stderr, followed by one `analyze:netNN` row per network; `--metrics`
//! dumps the `rd-obs` metrics registry to stderr; `--trace <path>`
//! (`--trace -` for stderr) writes the structured JSONL event stream
//! there (without it, no trace is written);
//! `--profile <path>` enables the rd-obs span profiler and writes
//! collapsed-stack output (`stack;sub count_us` lines, flamegraph-ready)
//! there on exit — set `RD_PROF_ZERO=1` to zero the counts for
//! byte-stable diffing across thread counts; `--bench` skips the tables
//! and instead times the generate + analyze pipeline per network and per
//! stage — at both scales, or only the small one under `--small` —
//! writing `BENCH_repro.json` (including a `metrics` section) to the
//! current directory; `--chaos <seed>` damages each network's corpus with
//! one seeded `rd-chaos` mutation before analysis, prints the per-network
//! coverage table, and exits 1 if any network was dropped by the error
//! budget (`RD_ERROR_BUDGET`, default 25% of files quarantined). Worker
//! count for all of these comes from `RD_THREADS` (default: all cores).

use std::process::ExitCode;

use netgen::{repository_sizes, StudyScale};
use rd_bench::analyzed_study;
use rd_bench::timing::{bench_scale, render_json, BenchSections};
use rd_obs::cli::{self, CliError, Flag, Table};
use rd_obs::Observe;
use routing_design::report::{render_fig4, render_table3, StudyNetwork, StudyReport};
use routing_design::snapshot::DroppedNetwork;
use routing_design::{DesignClass, Prefix, StageTimings};

static TABLE: Table = Table {
    name: "repro",
    operands: "[target ...]",
    flags: &[
        &[Flag::switch("--small"), Flag::switch("--bench"), Flag::value("--chaos", "<seed>")],
        rd_obs::OBS_FLAGS,
    ],
};

const TARGETS: &[&str] =
    &["all", "table1", "table3", "fig4", "fig8", "fig11", "section7", "net5", "net15", "diag"];

/// One repro command line.
#[derive(Debug, PartialEq)]
struct Options {
    small: bool,
    bench: bool,
    chaos: Option<u64>,
    obs: Observe,
    targets: Vec<&'static str>,
}

fn parse_args<S: AsRef<str>>(argv: &[S]) -> Result<Options, CliError> {
    let args = TABLE.parse(argv)?;
    let bench = args.switch("--bench");
    // `--bench` renders no table, so it reads (and checks) no target.
    let targets = args.operands().iter().filter(|_| !bench).map(|target| {
        TARGETS.iter().copied().find(|known| known == target).ok_or_else(|| {
            CliError::bad_value("<target>", target, format!("targets: {}", TARGETS.join(" ")))
        })
    });
    Ok(Options {
        small: args.switch("--small"),
        bench,
        chaos: args.get("--chaos")?,
        obs: Observe::from_args(&args),
        targets: targets.collect::<Result<_, _>>()?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if cli::requested(&argv, &[cli::VERSION]).is_some() {
        println!("repro {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let Options { small, bench: bench_only, chaos: chaos_seed, obs, targets } =
        match parse_args(&argv) {
            Ok(options) => options,
            Err(e) => return e.report(&TABLE),
        };
    let outputs = match obs.outputs("repro") {
        Ok(outputs) => outputs,
        Err(e) => {
            eprintln!("repro: cannot open trace sink: {e}");
            return ExitCode::from(2);
        }
    };
    let (timings, show_metrics) = (obs.timings, obs.metrics);
    let scale = if small { StudyScale::Small } else { StudyScale::Full };
    if bench_only {
        bench(small);
        return finish(show_metrics, &outputs, &[]);
    }
    let want = |t: &str| targets.is_empty() || targets.contains(&"all") || targets.contains(&t);

    eprintln!(
        "generating + analyzing the 31-network study at {} scale on {} thread(s)...",
        if small { "small" } else { "full (paper)" },
        rd_par::thread_count(),
    );
    let (networks, dropped) = match chaos_seed {
        Some(seed) => {
            eprintln!("injecting one seeded rd-chaos mutation per network (seed {seed})...");
            rd_bench::chaos_study(scale, seed)
        }
        None => (analyzed_study(scale), Vec::new()),
    };
    if timings {
        let mut totals = StageTimings::new();
        for n in &networks {
            totals.merge(&n.analysis.timings);
        }
        // The rd-snap round trip rides along so a slow snapshot path is
        // as visible as a slow pipeline stage.
        let (snap, _) = rd_bench::timing::bench_snapshot(networks.clone());
        totals.push("snap:write", snap.write);
        totals.push("snap:load", snap.load);
        // Per-network rows ride along under dynamic Cow labels.
        for n in &networks {
            totals.push(format!("analyze:{}", n.name), n.analysis.timings.total());
        }
        eprintln!("aggregate stage timings across {} networks:", networks.len());
        eprint!("{totals}");
    }
    if chaos_seed.is_some() || !dropped.is_empty() {
        coverage_table(&networks, &dropped);
    }
    if targets.contains(&"diag") {
        diag(&networks);
        if targets.len() == 1 {
            return finish(show_metrics, &outputs, &dropped);
        }
    }
    let report = StudyReport::build(&networks);

    if want("fig8") {
        fig8(&report);
    }
    if want("table1") {
        table1(&report);
    }
    if want("fig11") {
        fig11(&report);
    }
    if want("table3") {
        table3(&report);
    }
    if want("section7") {
        section7(&report);
    }
    if want("fig4") {
        fig4(&networks);
    }
    if want("net5") {
        net5(&networks);
    }
    if want("net15") {
        net15(&networks);
    }
    finish(show_metrics, &outputs, &dropped)
}

/// End-of-run bookkeeping shared by every mode: the optional metrics
/// dump, then the trace flush and the collapsed-stack profile if
/// `--profile` asked for one. Any network dropped by the error budget
/// makes the run exit 1, so scripts cannot mistake a partial study for a
/// complete one.
fn finish(
    show_metrics: bool,
    outputs: &rd_obs::Outputs,
    dropped: &[DroppedNetwork],
) -> ExitCode {
    if show_metrics {
        eprint!("{}", rd_obs::metrics::dump());
    }
    outputs.finish();
    if dropped.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "repro: {} network(s) dropped by the error budget; study aggregates are partial",
        dropped.len()
    );
    ExitCode::FAILURE
}

/// The per-network parse coverage table printed by chaos runs: every
/// surviving network's file counts, then the dropped networks.
fn coverage_table(networks: &[StudyNetwork], dropped: &[DroppedNetwork]) {
    heading("Per-network parse coverage (degraded pipeline)");
    println!(
        "{:<10} {:>6} {:>7} {:>12} {:>9}",
        "network", "files", "parsed", "quarantined", "status"
    );
    for n in networks {
        let c = &n.analysis.network.coverage;
        println!(
            "{:<10} {:>6} {:>7} {:>12} {:>9}",
            n.name,
            c.total_files,
            c.parsed(),
            c.quarantined.len(),
            if c.degraded() { "DEGRADED" } else { "ok" }
        );
    }
    for d in dropped {
        println!(
            "{:<10} {:>6} {:>7} {:>12} {:>9}",
            d.name,
            d.total_files,
            d.total_files - d.quarantined,
            d.quarantined,
            "DROPPED"
        );
    }
}

/// The `diag` target: per-network diagnostic totals from the `rd-obs`
/// channel (parse, topology, and design level all counted).
fn diag(networks: &[StudyNetwork]) {
    heading("Pipeline diagnostics per network");
    println!("{:<10} {:>7} {:>7} {:>8} {:>6}", "network", "errors", "warns", "infos", "total");
    let mut totals = (0usize, 0usize, 0usize);
    for n in networks {
        let d = &n.analysis.diagnostics;
        let (errors, warnings, infos) = d.counts();
        totals = (totals.0 + errors, totals.1 + warnings, totals.2 + infos);
        println!(
            "{:<10} {:>7} {:>7} {:>8} {:>6}",
            n.name,
            errors,
            warnings,
            infos,
            d.len()
        );
    }
    println!(
        "{:<10} {:>7} {:>7} {:>8} {:>6}",
        "total",
        totals.0,
        totals.1,
        totals.2,
        totals.0 + totals.1 + totals.2
    );
}

fn bench(small_only: bool) {
    let scales: &[StudyScale] = if small_only {
        &[StudyScale::Small]
    } else {
        &[StudyScale::Small, StudyScale::Full]
    };
    let bench_scale_for_snap = if small_only { StudyScale::Small } else { StudyScale::Full };
    let results: Vec<_> = scales
        .iter()
        .map(|&scale| {
            eprintln!(
                "benching {} scale on {} thread(s)...",
                match scale {
                    StudyScale::Small => "small",
                    StudyScale::Full => "full",
                },
                rd_par::thread_count(),
            );
            let result = bench_scale(scale);
            eprintln!(
                "  wall {:.1} ms{}",
                result.wall.as_secs_f64() * 1e3,
                match result.speedup() {
                    Some(s) => format!(
                        " (sequential {:.1} ms, speedup {s:.2}x)",
                        result.sequential_wall.expect("measured").as_secs_f64() * 1e3
                    ),
                    None => String::new(),
                }
            );
            eprint!("{}", result.stage_totals());
            result
        })
        .collect();
    eprintln!("benching external-classification stage in isolation...");
    let external = rd_bench::timing::bench_external(bench_scale_for_snap);
    eprintln!(
        "  external: {} ({} routers, {} interfaces) built in {:.1} ms",
        external.network,
        external.routers,
        external.interfaces,
        external.build.as_secs_f64() * 1e3,
    );
    eprintln!("benching snapshot round trip + query server...");
    let networks = analyzed_study(bench_scale_for_snap);
    let (snap, corpus) = rd_bench::timing::bench_snapshot(networks);
    eprintln!(
        "  snapshot: {} bytes, write {:.1} ms, load {:.1} ms vs analyze {:.1} ms ({:.0}x)",
        snap.bytes,
        snap.write.as_secs_f64() * 1e3,
        snap.load.as_secs_f64() * 1e3,
        snap.analyze.as_secs_f64() * 1e3,
        snap.speedup(),
    );
    // Serve capacity is measured on the paper-scale corpus even when the
    // analysis benches run full scale: full-scale summary bodies reach
    // 1.4 MB, so a mixed run against them measures loopback byte
    // throughput (~12k req/s no matter how the server is built), not
    // request handling. EXPERIMENTS.md records both figures.
    let mut cache_builds =
        vec![rd_bench::timing::bench_cache_build(bench_scale_for_snap, corpus.clone())];
    let serve_corpus = if small_only {
        corpus
    } else {
        drop(corpus);
        let small = rd_bench::timing::study_corpus(StudyScale::Small);
        cache_builds
            .insert(0, rd_bench::timing::bench_cache_build(StudyScale::Small, small.clone()));
        small
    };
    for c in &cache_builds {
        let phases: Vec<String> = c
            .phases
            .stages
            .iter()
            .map(|(name, d)| format!("{name} {:.1} ms", d.as_secs_f64() * 1e3))
            .collect();
        eprintln!("  cache build, {} scale: {}", c.scale, phases.join(", "));
    }
    let load = rd_bench::loadgen::LoadOptions::default();
    let serve_load = rd_bench::timing::bench_serve_load(serve_corpus, &load);
    eprintln!(
        "  loadgen: {} conns x {} pipelined, {} requests ({} errors), {:.0} req/s, \
         p50 {} us, p99 {} us, p99.9 {} us",
        serve_load.conns,
        serve_load.pipeline,
        serve_load.stats.requests,
        serve_load.stats.errors,
        serve_load.stats.throughput_rps,
        serve_load.stats.p50_us,
        serve_load.stats.p99_us,
        serve_load.stats.p999_us,
    );
    eprintln!("benching reconfiguration planning scenarios...");
    let plans = rd_bench::timing::bench_plan();
    for p in &plans {
        eprintln!(
            "  plan {}: {} router(s), {} unit(s), {} intermediate state(s) analyzed, \
             diff {:.1} ms, dag {:.1} ms, search {:.1} ms",
            p.scenario,
            p.routers,
            p.units,
            p.states_analyzed,
            p.diff.as_secs_f64() * 1e3,
            p.dag.as_secs_f64() * 1e3,
            p.search.as_secs_f64() * 1e3,
        );
    }
    eprintln!("benching incremental re-analysis (delta engine)...");
    let incremental = rd_bench::timing::bench_incremental(bench_scale_for_snap);
    eprintln!(
        "  incremental: {} network(s), cold {:.1} ms; 1-router change {:.1} ms \
         ({} reused, {} recomputed, {} file(s) reparsed, {:.1}x, {:.1} ms unattributed); \
         5-network change {:.1} ms ({} reused, {} recomputed)",
        incremental.networks,
        incremental.cold.as_secs_f64() * 1e3,
        incremental.one_change.as_secs_f64() * 1e3,
        incremental.one_stats.reused,
        incremental.one_stats.recomputed,
        incremental.one_stats.files_reparsed,
        incremental.one_change_speedup(),
        incremental.one_change_unattributed().as_secs_f64() * 1e3,
        incremental.five_change.as_secs_f64() * 1e3,
        incremental.five_stats.reused,
        incremental.five_stats.recomputed,
    );
    eprint!("{}", incremental.one_phases);
    let path = "BENCH_repro.json";
    std::fs::write(
        path,
        render_json(
            &rd_bench::timing::BenchEnv::detect(),
            &rd_obs::metrics::snapshot(),
            &results,
            &BenchSections {
                snap: &snap,
                serve_load: &serve_load,
                external: &external,
                plan: &plans,
                incremental: &incremental,
                cache_builds: &cache_builds,
            },
        ),
    )
    .expect("write BENCH_repro.json");
    eprintln!("wrote {path}");
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn row(label: &str, paper: &str, measured: String) {
    println!("{label:<46} {paper:>16} {measured:>16}");
}

fn header() {
    println!("{:<46} {:>16} {:>16}", "claim", "paper", "measured");
}

fn fig8(report: &StudyReport) {
    heading("Figure 8: network size distribution (study vs repository)");
    let hist = report.size_histogram(&repository_sizes(17));
    print!("{hist}");
    header();
    row(
        "repository networks with <10 routers",
        "~55%",
        format!("{:.0}%", hist.buckets[0].2 * 100.0),
    );
    row(
        "study networks with <10 routers",
        "minority",
        format!("{:.0}%", hist.buckets[0].1 * 100.0),
    );
    row(
        "study overweights networks >20 routers",
        "yes",
        format!(
            "{}",
            hist.buckets[2..].iter().map(|b| b.1).sum::<f64>()
                > hist.buckets[2..].iter().map(|b| b.2).sum::<f64>()
        ),
    );
}

fn table1(report: &StudyReport) {
    heading("Table 1: protocol instances by intra-/inter-domain role");
    print!("{}", report.table1);
    header();
    row(
        "IGP instances in inter-domain role",
        "~11%",
        format!("{:.1}%", report.table1.igp_inter_fraction() * 100.0),
    );
    row(
        "EBGP sessions used intra-network",
        "~10%",
        format!("{:.1}%", report.table1.ebgp_intra_fraction() * 100.0),
    );
    let igp = report.table1.igp_totals();
    row("IGP instances intra (paper 22,521 total)", "22,521", igp.intra.to_string());
    row("IGP instances inter (paper 2,664 total)", "2,664", igp.inter.to_string());
    row(
        "EBGP sessions inter",
        "13,830",
        report.table1.ebgp_sessions.inter.to_string(),
    );
    row(
        "EBGP sessions intra",
        "1,490",
        report.table1.ebgp_sessions.intra.to_string(),
    );
    row(
        "EIGRP ≥ OSPF ≥ RIP (intra ordering)",
        "yes",
        format!(
            "{}",
            report.table1.igp_row("EIGRP").intra >= report.table1.igp_row("OSPF").intra
                && report.table1.igp_row("OSPF").intra
                    >= report.table1.igp_row("RIP").intra
        ),
    );
    row("IS-IS instances", "0", "0".to_string());
}

fn fig11(report: &StudyReport) {
    heading("Figure 11: CDF of % filter rules on internal links");
    print!("{}", report.filter_cdf);
    header();
    row("networks with no packet filters", "3", report.filter_cdf.filterless.to_string());
    row(
        "networks with ≥40% of rules internal",
        ">30%",
        format!("{:.0}%", report.filter_cdf.fraction_at_least(0.4) * 100.0),
    );
}

fn table3(report: &StudyReport) {
    heading("Table 3: interface census");
    print!("{}", render_table3(&report.census));
    header();
    row("total interfaces", "96,487", report.census.total.to_string());
    row("Serial (most common)", "53,337", report.census.count("Serial").to_string());
    row("FastEthernet (second)", "20,420", report.census.count("FastEthernet").to_string());
    row("unnumbered interfaces", "528", report.census.unnumbered.to_string());
    row(
        "Serial share",
        "55%",
        format!("{:.0}%", 100.0 * report.census.count("Serial") as f64 / report.census.total as f64),
    );
}

fn section7(report: &StudyReport) {
    heading("Section 7: design classification");
    print!("{}", report.section7);
    header();
    row("textbook backbones", "4", report.section7.count(DesignClass::Backbone).to_string());
    row("textbook enterprises", "7", report.section7.count(DesignClass::Enterprise).to_string());
    row("other (defy classification)", "20", report.section7.nonclassic().len().to_string());
    row("networks without BGP", "3", report.section7.count(DesignClass::NoBgp).to_string());
    if let Some((min, max, mean, _)) = report.section7.size_stats(DesignClass::Backbone) {
        row("backbone size range", "400–600", format!("{min}–{max}"));
        row("backbone mean size", "540", format!("{mean:.0}"));
    }
    if let Some((min, max, _, _)) = report.section7.size_stats(DesignClass::Enterprise) {
        row("enterprise size range", "19–101", format!("{min}–{max}"));
    }
    let nonclassic = report.section7.nonclassic();
    if !nonclassic.is_empty() {
        let median = nonclassic[nonclassic.len() / 2];
        let mean: f64 =
            nonclassic.iter().sum::<usize>() as f64 / nonclassic.len() as f64;
        row(
            "other sizes",
            "4–1750",
            format!("{}–{}", nonclassic[0], nonclassic.last().copied().unwrap_or(nonclassic[0])),
        );
        row("other mean / median", "300 / 36", format!("{mean:.0} / {median}"));
    }
    row("networks redistributing BGP into IGP", "17", report.section7.bgp_into_igp.to_string());
}

fn fig4(networks: &[StudyNetwork]) {
    heading("Figure 4: configuration sizes of net5");
    let Some(net5) = networks.iter().find(|n| n.name == "net5") else {
        println!("net5 was dropped from this run (error budget); skipping");
        return;
    };
    let stats = nettopo::stats::ConfigSizeStats::of(&net5.analysis.network);
    print!("{}", render_fig4(&stats));
    header();
    row("routers in net5", "881", net5.analysis.network.len().to_string());
    row("mean config lines", "~270", format!("{:.0}", stats.mean()));
    row("total commands", "237,870", stats.total_commands.to_string());
    row(
        "long tail (max >> median)",
        "yes (max ~1,900)",
        format!("max {} vs median {}", stats.max(), stats.quantile(0.5)),
    );
}

fn net5(networks: &[StudyNetwork]) {
    heading("net5 case study (Figures 9 & 10, Sections 5.1 & 6.1)");
    let Some(study) = networks.iter().find(|n| n.name == "net5") else {
        println!("net5 was dropped from this run (error budget); skipping");
        return;
    };
    let a = &study.analysis;
    let (Some(largest), Some(smallest)) = (a.instances.list.first(), a.instances.list.last())
    else {
        println!("net5 has no routing instances in this run; skipping");
        return;
    };
    header();
    row("routers", "881", a.network.len().to_string());
    row("routing instances", "24", a.instances.len().to_string());
    row("largest instance (EIGRP)", "445", largest.router_count().to_string());
    row("smallest instance", "1", smallest.router_count().to_string());
    row("internal BGP ASes", "14", a.design.internal_ases.to_string());
    row("external peer ASes", "16", a.instance_graph.external_ases().len().to_string());
    let inst1 = a
        .instances
        .list
        .iter()
        .find(|i| i.kind == routing_design::ProtoKind::Eigrp);
    let inst4 = a
        .instances
        .list
        .iter()
        .find(|i| i.asn == Some(netgen::designs::net5::AS_INSTANCE4));
    let (Some(inst1), Some(inst4)) = (inst1, inst4) else {
        println!("net5 lost its case-study landmark instances in this run; skipping remainder");
        return;
    };
    row(
        "redundant redistributors (inst 4 ↔ inst 1)",
        "6",
        a.instance_graph.redistribution_routers(inst4.id, inst1.id).len().to_string(),
    );
    let spoke = a
        .network
        .iter()
        .find(|(_, r)| {
            r.config.bgp.is_none() && r.config.eigrp.first().is_some_and(|p| p.asn == 10)
        })
        .map(|(id, _)| id);
    let Some(spoke) = spoke else {
        println!("net5 lost its plain-spoke router in this run; skipping remainder");
        return;
    };
    let pathway = a.pathway(spoke);
    row(
        "protocol layers to interior router",
        "≥3",
        pathway.max_depth().to_string(),
    );
    row("classification", "defies textbook", a.design.class.to_string());
}

fn net15(networks: &[StudyNetwork]) {
    heading("net15 case study (Figure 12 & Table 2, Section 6.2)");
    let Some(study) = networks.iter().find(|n| n.name == "net15") else {
        println!("net15 was dropped from this run (error budget); skipping");
        return;
    };
    let a = &study.analysis;
    header();
    row("routers", "79", a.network.len().to_string());
    row("routing instances", "6", a.instances.len().to_string());
    row(
        "public peer ASes",
        "2",
        a.instance_graph.external_ases().len().to_string(),
    );
    let reach = a.reachability();
    let default_anywhere = a.instances.list.iter().any(|i| {
        reach.external_routes_entering(i.id).covers_prefix(Prefix::DEFAULT)
    });
    row("default route admitted", "no", format!("{}", !default_anywhere).replace("true", "no").replace("false", "YES"));
    let ab2: Prefix = "10.2.0.0/16".parse().expect("AB2");
    let ab4: Prefix = "10.4.0.0/16".parse().expect("AB4");
    row(
        "site isolation (AB2 ↮ AB4)",
        "isolated",
        if !reach.block_reachable(ab2, ab4) && !reach.block_reachable(ab4, ab2) {
            "isolated".to_string()
        } else {
            "REACHABLE".to_string()
        },
    );
    // Table 2 disjointness.
    for (x, y) in [("A2", "A5"), ("A2", "A3"), ("A4", "A1")] {
        let sx = policy_set(x);
        let sy = policy_set(y);
        row(
            &format!("{x} ∩ {y}"),
            "∅",
            if sx.intersection(&sy).is_empty() { "∅".to_string() } else { "NON-EMPTY".to_string() },
        );
    }
    // Ingress ceiling.
    let Some(ospf) = a
        .instances
        .list
        .iter()
        .find(|i| i.kind == routing_design::ProtoKind::Ospf)
    else {
        println!("net15 lost its site OSPF instance in this run; skipping remainder");
        return;
    };
    let load = reach.load_prediction(ospf.id);
    row(
        "max external routes into site IGP",
        "2 /16s + 3 /24s",
        match load.max_external_routes {
            Some(n) => format!("{n} prefixes"),
            None => "unbounded".to_string(),
        },
    );
}

fn policy_set(policy: &str) -> routing_design::PrefixSet {
    let blocks = netgen::designs::net15::address_blocks();
    let contents = netgen::designs::net15::policy_blocks()
        .into_iter()
        .find(|(name, _)| *name == policy)
        .expect("known policy")
        .1;
    let mut set = routing_design::PrefixSet::empty();
    for ab in contents {
        for p in &blocks.iter().find(|(n, _)| *n == ab).expect("known block").1 {
            set = set.union(&routing_design::PrefixSet::from_prefix(*p));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, CliError> {
        parse_args(&line.split_whitespace().collect::<Vec<_>>())
    }

    fn options(small: bool, bench: bool, chaos: Option<u64>, targets: &[&'static str]) -> Options {
        Options { small, bench, chaos, obs: Observe::default(), targets: targets.to_vec() }
    }

    fn observed(
        options: Options,
        timings: bool,
        trace: Option<&str>,
        profile: Option<&str>,
    ) -> Options {
        Options {
            obs: Observe {
                timings,
                metrics: false,
                trace: trace.map(str::to_string),
                profile: profile.map(str::to_string),
            },
            ..options
        }
    }

    /// Every repro command shape in scripts/verify.sh, README.md,
    /// EXPERIMENTS.md and tests/.
    #[test]
    fn parse_documented_command_lines() {
        let cases: Vec<(&str, Options)> = vec![
            ("", options(false, false, None, &[])),
            ("--small", options(true, false, None, &[])),
            ("--small all", options(true, false, None, &["all"])),
            ("--small diag", options(true, false, None, &["diag"])),
            ("--small fig4 net15", options(true, false, None, &["fig4", "net15"])),
            ("--bench", options(false, true, None, &[])),
            ("--bench --small", options(true, true, None, &[])),
            ("--timings", observed(options(false, false, None, &[]), true, None, None)),
            (
                "--bench --trace /tmp/b.jsonl",
                observed(options(false, true, None, &[]), false, Some("/tmp/b.jsonl"), None),
            ),
            (
                "--small table1 --profile /tmp/p1.folded",
                observed(
                    options(true, false, None, &["table1"]),
                    false,
                    None,
                    Some("/tmp/p1.folded"),
                ),
            ),
            (
                "--small all --profile study.folded",
                observed(options(true, false, None, &["all"]), false, None, Some("study.folded")),
            ),
            ("--small --chaos 3", options(true, false, Some(3), &[])),
            ("--small table1 --chaos=3", options(true, false, Some(3), &["table1"])),
            // `--bench` reads no target, so none is checked.
            ("--bench bogus", options(false, true, None, &[])),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line), Ok(want), "{line}");
        }
    }

    #[test]
    fn usage_errors() {
        let bad = |name, value: &str, reason: &str| CliError::BadValue {
            name,
            value: value.to_string(),
            reason: reason.to_string(),
        };
        let cases: &[(&str, CliError)] = &[
            ("--small --bogus", CliError::UnknownFlag("--bogus".into())),
            ("-x", CliError::UnknownFlag("-x".into())),
            ("--small=1", CliError::UnknownFlag("--small=1".into())),
            ("--small bogus", bad("<target>", "bogus", &format!("targets: {}", TARGETS.join(" ")))),
            ("--chaos x", bad("--chaos", "x", "invalid digit found in string")),
            ("--chaos=-3", bad("--chaos", "-3", "invalid digit found in string")),
            ("--chaos", CliError::MissingValue { flag: "--chaos", metavar: "<seed>" }),
            ("--small --trace", CliError::MissingValue { flag: "--trace", metavar: "<path>" }),
            ("--profile", CliError::MissingValue { flag: "--profile", metavar: "<path>" }),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line).as_ref(), Err(want), "{line}");
        }
    }
}
