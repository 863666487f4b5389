//! Fuzzing of the whole pipeline on *random* networks — not the
//! calibrated study roster, but arbitrary topologies with arbitrary
//! process/policy assignments. The pipeline must never panic, and its
//! structural invariants must hold for any input.
//!
//! Driven by a fixed-seed `rd_rng` stream so the suite is deterministic
//! and runs offline (this file previously used proptest; the sampled
//! space is the same).

use ioscfg::{InterfaceType, OspfProcess, Redistribution, RedistSource, RipProcess};
use netgen::{AddressPlan, NetworkBuilder};
use rd_rng::StdRng;
use routing_design::{NetworkAnalysis, ProtoKind};

/// A compact random network description: a list of spanning-tree edges
/// plus per-router protocol choices.
#[derive(Clone, Debug)]
struct RandomNet {
    /// parent[i] < i: router i links to parent[i] (router 0 is the root).
    parents: Vec<usize>,
    /// Extra chord edges (a, b).
    chords: Vec<(usize, usize)>,
    /// Per-router protocol selector.
    protos: Vec<u8>,
    /// Per-router: add an external stub?
    stubs: Vec<bool>,
}

fn random_net(rng: &mut StdRng, max_routers: usize) -> RandomNet {
    let n: usize = rng.gen_range(2..=max_routers);
    let parents = (1..n).map(|i| rng.gen_range(0..i)).collect();
    let chord_count: usize = rng.gen_range(0..4);
    let chords = (0..chord_count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let protos = (0..n).map(|_| rng.gen_range(0..6u8)).collect();
    let stubs = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    RandomNet { parents, chords, protos, stubs }
}

/// Materializes the description into configuration texts.
fn build(desc: &RandomNet) -> Vec<(String, String)> {
    let n = desc.protos.len();
    let mut b = NetworkBuilder::new();
    let mut plan = AddressPlan::for_compartment(10, 0);
    for i in 0..n {
        b.add_router(format!("r{i}"));
    }
    for (i, &p) in desc.parents.iter().enumerate() {
        let subnet = plan.p2p.alloc(30);
        b.p2p_link(p, i + 1, subnet, InterfaceType::Serial);
    }
    for &(x, y) in &desc.chords {
        if x == y {
            continue;
        }
        let subnet = plan.p2p.alloc(30);
        b.p2p_link(x, y, subnet, InterfaceType::Serial);
    }
    let slab: netaddr::Prefix = "10.0.0.0/12".parse().expect("slab");
    for i in 0..n {
        let lan = plan.lan.alloc(24);
        b.lan(i, lan, InterfaceType::FastEthernet);
        if desc.stubs[i] {
            let stub = plan.external.alloc(30);
            b.external_stub(i, stub, InterfaceType::Serial);
        }
        let cfg = b.router(i);
        match desc.protos[i] {
            0 => {} // static-only router
            1 | 2 => {
                let mut p = OspfProcess::new(1 + (desc.protos[i] as u32 - 1) * 7);
                p.networks.push(ioscfg::OspfNetwork {
                    addr: slab.first(),
                    wildcard: slab.mask().to_wildcard(),
                    area: ioscfg::OspfArea(0),
                });
                p.policy.redistribute.push(Redistribution::plain(RedistSource::Connected));
                cfg.ospf.push(p);
            }
            3 | 4 => {
                let mut p = ioscfg::EigrpProcess::new(100 + (desc.protos[i] as u32 % 2));
                p.networks.push(ioscfg::EigrpNetwork {
                    addr: slab.first(),
                    wildcard: Some(slab.mask().to_wildcard()),
                });
                cfg.eigrp.push(p);
            }
            _ => {
                let mut p = RipProcess::new();
                p.version = Some(2);
                p.networks.push(netaddr::Addr::new(10, 0, 0, 0));
                cfg.rip = Some(p);
            }
        }
    }
    b.to_texts()
}

/// The pipeline runs to completion and its invariants hold on arbitrary
/// networks.
#[test]
fn pipeline_invariants_on_random_networks() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for case in 0..48 {
        let desc = random_net(&mut rng, 12);
        let texts = build(&desc);
        let analysis = NetworkAnalysis::from_texts(texts).expect("generated configs parse");

        // Instances partition the processes, homogeneously.
        let total: usize = analysis.instances.list.iter().map(|i| i.processes.len()).sum();
        assert_eq!(total, analysis.processes.len(), "case {case}: {desc:?}");
        for inst in &analysis.instances.list {
            let kinds: std::collections::BTreeSet<ProtoKind> =
                inst.processes.iter().map(|p| p.proto.kind()).collect();
            assert_eq!(kinds.len(), 1, "case {case}: mixed-kind instance");
        }
        // Instance sizes are ordered descending.
        for w in analysis.instances.list.windows(2) {
            assert!(w[0].router_count() >= w[1].router_count(), "case {case}");
        }

        // Adjacencies stay inside instances.
        for adj in &analysis.adjacencies.igp {
            assert_eq!(
                analysis.instances.instance_of(adj.a),
                analysis.instances.instance_of(adj.b),
                "case {case}"
            );
        }

        // The topology is connected by construction (spanning tree).
        let graph = routing_design::RouterGraph::build(&analysis.network, &analysis.links);
        assert_eq!(graph.components().len(), 1, "case {case}: {desc:?}");

        // Pathways never include instances that cannot feed the router.
        for (rid, _) in analysis.network.iter().take(3) {
            let pathway = analysis.pathway(rid);
            assert!(
                pathway.nodes.iter().all(|n| n.depth <= analysis.instances.len()),
                "case {case}"
            );
        }

        // The `/pathways` summaries equal a full trace of every router.
        let index = routing_model::PathwayIndex::new(&analysis.instances, &analysis.instance_graph);
        let summaries = index.summaries(analysis.network.len());
        for (rid, _) in analysis.network.iter() {
            assert_eq!(summaries[rid.0], index.trace(rid).summary(), "case {case}: {desc:?}");
        }

        // Rendering never panics.
        let _ = analysis.instance_graph_text();
        let _ = analysis.process_graph_dot();
    }
}

/// Anonymization invariance holds on arbitrary networks, not just the
/// calibrated roster.
#[test]
fn anonymization_invariance_on_random_networks() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    for case in 0..32 {
        let desc = random_net(&mut rng, 8);
        let key: u64 = rng.gen_range(0..=u64::MAX);
        let texts = build(&desc);
        let anon = anonymizer::Anonymizer::new(&key.to_be_bytes());
        let anonymized: Vec<(String, String)> = texts
            .iter()
            .map(|(n, t)| (n.clone(), anon.anonymize_config(t)))
            .collect();
        let a = NetworkAnalysis::from_texts(texts).expect("original parses");
        let b = NetworkAnalysis::from_texts(anonymized).expect("anonymized parses");
        assert_eq!(a.instances.len(), b.instances.len(), "case {case}: {desc:?}");
        assert_eq!(a.links.links.len(), b.links.links.len(), "case {case}");
        assert_eq!(a.external.counts(), b.external.counts(), "case {case}");
        assert_eq!(a.design.class, b.design.class, "case {case}");
        assert_eq!(a.table1, b.table1, "case {case}");
    }
}
