//! The bridge from the full analysis pipeline to `rd-plan`'s
//! analysis-agnostic planning engine.
//!
//! `rd-plan` sits *below* this crate in the dependency graph (so `rdx`,
//! rd-serve, and rd-bench can all reach it without a cycle) and never
//! parses a config itself; it plans over [`rd_plan::StateFacts`]
//! produced by a caller-supplied closure. This module is that closure:
//! it runs [`NetworkAnalysis`] over a corpus of `(file_name, bytes)`
//! pairs and projects the result — connectivity components, instance
//! membership, border classification, redistribution points, external
//! ASes, parse coverage, and per-router configuration fingerprints —
//! into the planner's fact tables.

use std::collections::BTreeMap;

use nettopo::graph::RouterGraph;
use rd_plan::{CorpusFiles, RouterState, StateFacts};
use routing_model::instance_graph::ExchangeKind;

use crate::diff::config_fingerprint;
use crate::NetworkAnalysis;

/// Projects a completed analysis into the planner's fact tables.
pub fn state_facts(analysis: &NetworkAnalysis) -> StateFacts {
    let graph = RouterGraph::build(&analysis.network, &analysis.links);
    let components = graph.components();
    let mut component_of = BTreeMap::new();
    for (index, members) in components.iter().enumerate() {
        for rid in members {
            component_of.insert(*rid, index);
        }
    }
    let borders = analysis.external.border_routers();
    let mut instance_keys: BTreeMap<_, Vec<String>> = BTreeMap::new();
    let mut instance_counts: BTreeMap<String, usize> = BTreeMap::new();
    for instance in &analysis.instances.list {
        let key = match instance.asn {
            Some(asn) => format!("{}:{asn}", instance.kind),
            None => instance.kind.to_string(),
        };
        *instance_counts.entry(key.clone()).or_insert(0) += 1;
        for rid in &instance.routers {
            instance_keys.entry(*rid).or_default().push(key.clone());
        }
    }
    let mut redistributes: std::collections::BTreeSet<_> = Default::default();
    for edge in &analysis.instance_graph.edges {
        if let ExchangeKind::Redistribution { router, .. } = &edge.kind {
            redistributes.insert(*router);
        }
    }

    let routers = analysis
        .network
        .iter()
        .map(|(rid, router)| {
            let mut keys = instance_keys.remove(&rid).unwrap_or_default();
            keys.sort();
            keys.dedup();
            let mut link_subnets: Vec<String> =
                router.config.interface_subnets().map(|p| p.to_string()).collect();
            link_subnets.sort();
            link_subnets.dedup();
            RouterState {
                name: router.name().to_string(),
                file_name: router.file_name.clone(),
                fingerprint: config_fingerprint(&router.config),
                external_facing: borders.contains(&rid),
                redistributes: redistributes.contains(&rid),
                component: component_of.get(&rid).copied().unwrap_or(0),
                instance_keys: keys,
                link_subnets,
            }
        })
        .collect();

    StateFacts {
        routers,
        components: components.len(),
        instance_counts,
        external_ases: analysis.instance_graph.external_ases().into_iter().collect(),
        quarantined: analysis.network.coverage.quarantined.len(),
    }
}

/// The planner's `analyze` closure: full pipeline over in-memory file
/// bytes, projected to fact tables. Infallible — unparseable files land
/// in quarantine and surface through the coverage invariant.
pub fn analyze_files(files: &CorpusFiles) -> StateFacts {
    state_facts(&NetworkAnalysis::from_bytes_list(files.clone()))
}

/// Plans a safe migration between two in-memory corpora using the full
/// analysis pipeline as the verifier.
///
/// Every intermediate state the search evaluates is some mix of
/// `current` and `target` file versions, so each distinct
/// `(file_name, content)` version is parsed **once** up front; the
/// per-state analyses then assemble from the shared parse cache through
/// the same [`nettopo::Network::from_parsed`] path a cold load uses —
/// identical [`StateFacts`], a fraction of the parse work. The
/// topology/routing-model stages still run per state (they are what the
/// plan verifies).
pub fn plan_corpora(
    current: &CorpusFiles,
    target: &CorpusFiles,
) -> Result<rd_plan::Plan, rd_plan::PlanError> {
    // The file-version universe: every distinct (name, raw-FNV) pair
    // either corpus contains, parsed once, in deterministic order.
    let mut versions: BTreeMap<(String, u64), Vec<u8>> = BTreeMap::new();
    for (name, bytes) in current.iter().chain(target.iter()) {
        versions
            .entry((name.clone(), rd_snap::fnv1a64(bytes)))
            .or_insert_with(|| bytes.clone());
    }
    let inputs: Vec<(String, Vec<u8>)> =
        versions.iter().map(|((name, _), bytes)| (name.clone(), bytes.clone())).collect();
    let parsed = nettopo::Network::parse_files(&inputs);
    let cache: BTreeMap<(String, u64), nettopo::PreparsedFile> =
        versions.into_keys().zip(parsed).collect();
    rd_obs::metrics::counter_add("incr.plan_versions_parsed", cache.len() as u64);

    let analyze = move |files: &CorpusFiles| -> StateFacts {
        let mut hashes = Vec::with_capacity(files.len());
        let mut products = Vec::with_capacity(files.len());
        for (name, bytes) in files {
            let hash = rd_snap::fnv1a64(bytes);
            match cache.get(&(name.clone(), hash)) {
                Some(product) => products.push(product.clone()),
                // Unreachable for states the planner materializes (they
                // only combine current/target versions), but stay total.
                None => products.extend(
                    nettopo::Network::parse_files(&[(name.clone(), bytes.clone())]),
                ),
            }
            hashes.push((name.clone(), hash));
        }
        let network = nettopo::Network::from_parsed(products);
        let mut analysis = NetworkAnalysis::from_network(network);
        analysis.file_hashes = hashes;
        state_facts(&analysis)
    };
    rd_plan::plan(current, target, analyze)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(texts: &[(&str, &str)]) -> CorpusFiles {
        texts.iter().map(|(n, t)| (n.to_string(), t.as_bytes().to_vec())).collect()
    }

    #[test]
    fn state_facts_cover_the_planner_axes() {
        let files = corpus(&[
            (
                "a.cfg",
                "hostname alpha\n\
                 interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 interface Serial1\n ip address 192.0.2.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 65010\n",
            ),
            (
                "b.cfg",
                "hostname beta\n\
                 interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n",
            ),
        ]);
        let facts = analyze_files(&files);
        assert_eq!(facts.routers.len(), 2);
        assert_eq!(facts.components, 1);
        assert_eq!(facts.quarantined, 0);
        assert!(facts.external_ases.contains(&65010));
        let alpha = facts.router("alpha").expect("alpha analyzed");
        assert!(alpha.external_facing, "alpha holds the external peering");
        assert!(alpha.instance_keys.iter().any(|k| k.starts_with("ospf")));
        assert!(alpha.link_subnets.iter().any(|s| s.starts_with("10.0.0.0")));
        let beta = facts.router("beta").expect("beta analyzed");
        assert!(!beta.external_facing);
        assert_ne!(alpha.fingerprint, beta.fingerprint);
        // Identical corpus -> identical facts (the determinism the memo
        // and the RD_THREADS gate both lean on).
        let again = analyze_files(&files);
        assert_eq!(facts.routers, again.routers);
    }

    #[test]
    fn cached_plan_matches_uncached_plan() {
        let current = corpus(&[
            (
                "a.cfg",
                "hostname alpha\n\
                 interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n",
            ),
            (
                "b.cfg",
                "hostname beta\n\
                 interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n",
            ),
        ]);
        let mut target = current.clone();
        // beta grows a loopback: one changed file version in the universe.
        target[1].1.extend_from_slice(
            b"interface Loopback0\n ip address 10.9.0.1 255.255.255.255\n",
        );
        // The shared-parse-cache path and the parse-per-state path must
        // produce the same plan, step for step.
        let cached = plan_corpora(&current, &target).expect("cached plan");
        let uncached =
            rd_plan::plan(&current, &target, analyze_files).expect("uncached plan");
        // Everything but the wall-clock timings must agree.
        let strip = |p: &rd_plan::Plan| {
            let text = format!("{p:?}");
            text.split(", timings: ").next().map(str::to_string).unwrap_or(text)
        };
        assert_eq!(strip(&cached), strip(&uncached));
    }
}
