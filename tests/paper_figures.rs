//! Structural assertions for every table and figure, on the small-scale
//! study (the full-scale numbers are produced by the `repro` harness in
//! `crates/bench` and recorded in EXPERIMENTS.md).
//!
//! Absolute counts scale with the corpus; the assertions here pin the
//! *shape* the paper reports: who dominates, in what ratio, and which
//! qualitative claims hold.

use netgen::{repository_sizes, study_roster, StudyScale};
use routing_design::report::{FilterCdf, Section7Report, SizeHistogram, StudyNetwork, StudyReport};
use routing_design::{DesignClass, NetworkAnalysis};

fn analyzed_study() -> Vec<StudyNetwork> {
    study_roster(StudyScale::Small)
        .iter()
        .map(|spec| {
            let generated = netgen::study::generate_network(spec, StudyScale::Small);
            StudyNetwork {
                name: spec.name.clone(),
                analysis: NetworkAnalysis::from_texts(generated.texts)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name)),
            }
        })
        .collect()
}

/// Table 1 shape: most IGP instances are intra-domain but a visible
/// minority (paper: ≈11%) serve as EGPs; most EBGP sessions are
/// inter-domain but a visible minority (paper: ≈10%) are intra-network;
/// no IS-IS anywhere; some networks use no BGP.
#[test]
fn table1_shape() {
    let networks = analyzed_study();
    let report = StudyReport::build(&networks);
    let igp = report.table1.igp_totals();
    assert!(igp.intra > 0 && igp.inter > 0, "{:?}", report.table1);
    let igp_inter = report.table1.igp_inter_fraction();
    assert!(
        (0.02..=0.40).contains(&igp_inter),
        "IGP inter-domain fraction {igp_inter}"
    );
    let ebgp_intra = report.table1.ebgp_intra_fraction();
    assert!(
        (0.01..=0.35).contains(&ebgp_intra),
        "EBGP intra fraction {ebgp_intra}"
    );
    // All three IGP rows are populated, with OSPF and EIGRP dominating RIP.
    let (ospf, eigrp, rip) = (
        report.table1.igp_row("OSPF").total(),
        report.table1.igp_row("EIGRP").total(),
        report.table1.igp_row("RIP").total(),
    );
    assert!(ospf > 0 && eigrp > 0 && rip > 0, "{:?}", report.table1);
    // Three networks use no BGP at all.
    let no_bgp = networks
        .iter()
        .filter(|n| n.analysis.design.bgp_speakers == 0)
        .count();
    assert_eq!(no_bgp, 3);
}

/// Table 3 shape: Serial dominates, FastEthernet second; POS concentrated
/// in backbone-style networks; a sliver of unnumbered interfaces.
#[test]
fn table3_shape() {
    let networks = analyzed_study();
    let report = StudyReport::build(&networks);
    let serial = report.census.count("Serial");
    let fast = report.census.count("FastEthernet");
    assert!(serial > fast, "Serial {serial} vs FastEthernet {fast}");
    assert!(
        serial * 2 > report.census.total,
        "Serial should be ~half of {} but is {serial}",
        report.census.total
    );
    assert!(fast * 3 > report.census.total / 4, "FastEthernet too rare: {fast}");
    // POS exists, but only in backbone/tier-2 style networks.
    assert!(report.census.count("POS") > 0);
    for n in &networks {
        let census = nettopo::stats::InterfaceCensus::of(&n.analysis.network);
        if census.uses_pos() {
            assert!(
                matches!(
                    n.analysis.design.class,
                    DesignClass::Backbone | DesignClass::Tier2
                ),
                "{} uses POS but is {}",
                n.name,
                n.analysis.design.class
            );
        }
    }
    // Unnumbered interfaces are present but rare (paper: 528 of 96,487).
    assert!(report.census.unnumbered > 0);
    assert!(report.census.unnumbered * 50 < report.census.total);
}

/// Figure 11 shape: three networks have no filters; >30% of networks put
/// ≥40% of their rules on internal links.
#[test]
fn fig11_shape() {
    let networks = analyzed_study();
    let cdf = FilterCdf::build(&networks);
    assert_eq!(cdf.filterless, 3);
    let heavy = cdf.fraction_at_least(0.4);
    assert!(heavy > 0.3, "heavy-internal fraction {heavy}");
    // The CDF is non-degenerate: some networks filter mostly at borders.
    assert!(cdf.fraction_at_least(0.05) < 1.0);
    // Section 5.3's anecdote: somewhere, one applied filter crams ~47
    // clauses of several policies into a single list.
    let max_applied_clauses = networks
        .iter()
        .flat_map(|n| n.analysis.network.iter())
        .flat_map(|(_, r)| {
            r.config.interfaces.iter().flat_map(|i| {
                [i.access_group_in, i.access_group_out]
                    .into_iter()
                    .flatten()
                    .filter_map(|id| r.config.access_lists.get(&id))
                    .map(|acl| acl.entries.len())
                    .collect::<Vec<_>>()
            })
        })
        .max()
        .unwrap_or(0);
    assert!(
        max_applied_clauses >= 40,
        "largest applied filter has only {max_applied_clauses} clauses"
    );
}

/// Section 7 shape: 4 backbones, 7 textbook enterprises, 20 "other"
/// networks (tier-2, no-BGP, unclassifiable); the backbones are large but
/// not the largest; 17 networks redistribute BGP into an IGP.
#[test]
fn section7_shape() {
    let networks = analyzed_study();
    let report = Section7Report::build(&networks);
    assert_eq!(report.count(DesignClass::Backbone), 4, "{report}");
    assert_eq!(report.count(DesignClass::Enterprise), 7, "{report}");
    assert_eq!(report.nonclassic().len(), 20, "{report}");
    assert_eq!(report.count(DesignClass::NoBgp), 3);
    assert_eq!(report.count(DesignClass::Tier2), 2);
    // Some non-classic networks are larger than every backbone.
    let (_, backbone_max, _, _) = report.size_stats(DesignClass::Backbone).unwrap();
    let bigger = report.nonclassic().iter().filter(|&&s| s > backbone_max).count();
    assert_eq!(bigger, 4, "{report}");
    // A majority of networks (paper: 17 of 31) redistribute BGP → IGP.
    assert!(
        (10..=26).contains(&report.bgp_into_igp),
        "bgp→igp in {} networks",
        report.bgp_into_igp
    );
}

/// Figure 8 shape: the repository is dominated by small networks while
/// the study over-weights networks with more than 20 routers.
#[test]
fn fig8_shape() {
    let networks = analyzed_study();
    let report = StudyReport::build(&networks);
    // Compare at full scale sizes (the roster's real distribution).
    let full_sizes: Vec<usize> =
        study_roster(StudyScale::Full).iter().map(|s| s.routers).collect();
    let hist = SizeHistogram::build(&full_sizes, &repository_sizes(17));
    // Repository: majority < 10 routers.
    assert!(hist.buckets[0].2 > 0.5, "repo <10 fraction {}", hist.buckets[0].2);
    // Study: minority < 10 routers (over-weighted toward ≥20).
    assert!(hist.buckets[0].1 < 0.2, "study <10 fraction {}", hist.buckets[0].1);
    let study_large: f64 = hist.buckets[2..].iter().map(|b| b.1).sum();
    let repo_large: f64 = hist.buckets[2..].iter().map(|b| b.2).sum();
    assert!(study_large > repo_large, "study {study_large} vs repo {repo_large}");
    let _ = report;
}

/// Figure 4 shape (on the small corpus): config sizes vary widely with a
/// long tail — hubs are much bigger than spokes.
#[test]
fn fig4_shape() {
    let networks = analyzed_study();
    let net5 = networks.iter().find(|n| n.name == "net5").expect("net5 present");
    let stats = nettopo::stats::ConfigSizeStats::of(&net5.analysis.network);
    assert!(stats.max() > 2 * stats.quantile(0.5), "no long tail: {stats:?}");
    assert!(stats.mean() > 10.0);
}

/// Beyond-the-figures structure: large enterprises use hierarchical OSPF
/// areas (ABRs present), and backbone/tier-2 BGP instances use route
/// reflection rather than brute-force full meshes.
#[test]
fn hierarchy_structures_present() {
    let networks = analyzed_study();
    let mut saw_multi_area = false;
    let mut saw_reflection = false;
    for n in &networks {
        for area in n.analysis.area_structures() {
            if !area.is_flat() {
                saw_multi_area = true;
                assert!(
                    !area.abrs.is_empty(),
                    "{}: multi-area instance without ABRs",
                    n.name
                );
                assert!(area.has_backbone_area(), "{}: no backbone area", n.name);
            }
        }
        for mesh in n.analysis.ibgp_meshes() {
            if mesh.uses_reflection() {
                saw_reflection = true;
                assert!(mesh.routers > 2, "{}: reflection in a tiny mesh", n.name);
            }
        }
    }
    assert!(saw_multi_area, "no multi-area OSPF instance in the corpus");
    assert!(saw_reflection, "no route reflection in the corpus");
}

/// The full-study report renders every table without panicking.
#[test]
fn reports_render() {
    let networks = analyzed_study();
    let report = StudyReport::build(&networks);
    let t1 = report.table1.to_string();
    assert!(t1.contains("EBGP Sessions"));
    let t3 = routing_design::report::render_table3(&report.census);
    assert!(t3.contains("Serial"));
    let s7 = report.section7.to_string();
    assert!(s7.contains("backbone"));
    let cdf = report.filter_cdf.to_string();
    assert!(cdf.contains("CDF"));
}

/// Section 3.3: `/pathways` summarizes every router with one
/// multi-source BFS per network, and each summary must equal the full
/// trace of its router. Three networks have more than 64 distinct seeds
/// (instance sets), so their BFS runs in more than one 64-lane batch.
#[test]
fn pathway_summaries_match_trace_for_every_router() {
    let networks = analyzed_study();
    let (mut routers, mut multi_batch) = (0, 0);
    for n in &networks {
        let a = &n.analysis;
        let index = routing_model::PathwayIndex::new(&a.instances, &a.instance_graph);
        let summaries = index.summaries(a.network.len());
        assert_eq!(summaries.len(), a.network.len(), "{}", n.name);
        for (rid, _) in a.network.iter() {
            assert_eq!(summaries[rid.0], index.trace(rid).summary(), "{} router {}", n.name, rid.0);
        }
        routers += summaries.len();

        let mut seeds = vec![Vec::new(); a.network.len()];
        for inst in &a.instances.list {
            for r in &inst.routers {
                seeds[r.0].push(inst.id);
            }
        }
        let distinct: std::collections::BTreeSet<_> =
            seeds.into_iter().filter(|s| !s.is_empty()).collect();
        if distinct.len() > 64 {
            multi_batch += 1;
        }
    }
    assert_eq!(routers, 853);
    assert_eq!(multi_batch, 3, "net17, net18 and net19 need two or three batches");
}
