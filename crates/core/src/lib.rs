//! Reverse engineering of routing designs from router configurations —
//! a from-scratch reproduction of *Routing Design in Operational
//! Networks: A Look from the Inside* (SIGCOMM 2004).
//!
//! This crate is the public face of the toolchain: point it at a directory
//! of Cisco-IOS-style configuration files (or in-memory texts) and it
//! derives the paper's four abstractions plus every aggregate analysis:
//!
//! ```
//! use routing_design::NetworkAnalysis;
//!
//! let configs = vec![
//!     ("config1".to_string(), "\
//! hostname border
//! interface Serial0
//!  ip address 192.0.2.1 255.255.255.252
//! interface Serial1
//!  ip address 10.0.0.1 255.255.255.252
//! router ospf 1
//!  network 10.0.0.0 0.0.255.255 area 0
//!  redistribute bgp 65001 subnets
//! router bgp 65001
//!  neighbor 192.0.2.2 remote-as 7018
//! ".to_string()),
//!     ("config2".to_string(), "\
//! hostname core
//! interface Serial0
//!  ip address 10.0.0.2 255.255.255.252
//! router ospf 1
//!  network 10.0.0.0 0.0.255.255 area 0
//! ".to_string()),
//! ];
//! let analysis = NetworkAnalysis::from_texts(configs).unwrap();
//! assert_eq!(analysis.instances.len(), 2); // one OSPF + one BGP instance
//! assert_eq!(
//!     analysis.design.class,
//!     routing_design::DesignClass::Enterprise
//! );
//! ```
//!
//! The [`report`] module renders the paper's tables and figures
//! (Table 1/2/3, Figures 4/8/11, the Section 7 classification) from one
//! or many analyzed networks; the `netgen` crate regenerates the paper's
//! 31-network population to feed them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod diff;
pub mod incremental;
pub mod plan;
pub mod report;
pub mod snapshot;
pub mod watch;

use std::path::{Path, PathBuf};

pub use ioscfg::{parse_config, RouterConfig};
pub use netaddr::{Addr, BlockTree, Prefix, PrefixSet};
pub use nettopo::{
    error_budget, Coverage, ExternalAnalysis, IfaceClass, LinkMap, LoadError, Network,
    Router, RouterGraph, RouterId,
};
pub use audit::{audit, Finding, FindingKind};
pub use diff::DesignDiff;
pub use reachability::{ReachAnalysis, RouteFilter, TaggedRoutes};
pub use routing_model::{
    classify_network, AreaStructure, Adjacencies, DesignClass, DesignSummary,
    IbgpMesh, InstanceGraph, InstanceId, InstanceNode, Instances, PathwayGraph,
    ProcKey, Processes, Proto, ProtoKind, ProcessGraph, SessionScope, Table1,
};
pub use rd_obs::{Diagnostic, Diagnostics, Severity};
pub use rd_obs::StageTimings;

/// The complete static analysis of one network: every abstraction the
/// paper derives, computed in dependency order from the parsed configs.
#[derive(Clone)]
pub struct NetworkAnalysis {
    /// The parsed configurations.
    pub network: Network,
    /// Inferred logical links (Section 2.1).
    pub links: LinkMap,
    /// Internal/external classification (Section 5.2).
    pub external: ExternalAnalysis,
    /// Routing processes.
    pub processes: Processes,
    /// IGP adjacencies and BGP sessions (Section 2.2).
    pub adjacencies: Adjacencies,
    /// Routing instances (Section 3.2).
    pub instances: Instances,
    /// The routing instance graph.
    pub instance_graph: InstanceGraph,
    /// The routing process graph (Section 3.1).
    pub process_graph: ProcessGraph,
    /// Recovered address-space structure (Section 3.4).
    pub blocks: BlockTree,
    /// Intra/inter role counts (Table 1).
    pub table1: Table1,
    /// Design classification (Section 7).
    pub design: DesignSummary,
    /// Everything the pipeline could not vouch for, end to end: parse
    /// diagnostics (unknown stanzas, dangling policy references), topology
    /// hints (possible missing routers), and design smells (inert
    /// redistribution, missing backbone area, neighborless BGP). See
    /// `rdx <dir> diag`.
    pub diagnostics: Diagnostics,
    /// Wall-clock time of every pipeline stage of this analysis (and of
    /// the parse, when loaded through [`from_texts`](Self::from_texts) or
    /// [`from_dir`](Self::from_dir)):
    /// the stage spans' own durations, so each equals the `dur_us` of that
    /// stage's trace `span_close`, and each stage is a root of the folded
    /// profile. See `rdx --timings` and `repro --bench`.
    pub timings: StageTimings,
    /// Raw-byte FNV-1a-64 hash of every input config file, in input
    /// order — what the [`incremental`] delta engine compares to decide
    /// whether this analysis is still current. Populated by the
    /// byte-level loaders ([`from_bytes_list`], [`from_dir`],
    /// [`from_texts`]); empty when built from an already-parsed
    /// [`Network`] whose raw bytes never existed.
    ///
    /// [`from_bytes_list`]: NetworkAnalysis::from_bytes_list
    /// [`from_dir`]: NetworkAnalysis::from_dir
    /// [`from_texts`]: NetworkAnalysis::from_texts
    pub file_hashes: Vec<(String, u64)>,
}

impl NetworkAnalysis {
    /// Analyzes a network already parsed into a [`Network`].
    pub fn from_network(network: Network) -> NetworkAnalysis {
        let (mut analysis, timings) = rd_obs::span::stages(|| analyze(network));
        analysis.timings = timings;
        analysis
    }

    /// Parses and analyzes `(file_name, text)` pairs. The parse itself is
    /// recorded as the `"parse"` stage in [`timings`](NetworkAnalysis::timings).
    pub fn from_texts<I>(texts: I) -> Result<NetworkAnalysis, LoadError>
    where
        I: IntoIterator<Item = (String, String)>,
    {
        Ok(NetworkAnalysis::from_bytes_list(
            texts.into_iter().map(|(name, text)| (name, text.into_bytes())).collect(),
        ))
    }

    /// Parses and analyzes `(file_name, bytes)` pairs. Unlike
    /// [`from_texts`](NetworkAnalysis::from_texts) this path is infallible:
    /// unreadable files (non-UTF-8, empty, unparseable) are quarantined into
    /// per-file error diagnostics and recorded in the network's
    /// [`Coverage`](nettopo::Coverage), and the analysis proceeds with the
    /// surviving routers.
    pub fn from_bytes_list(files: Vec<(String, Vec<u8>)>) -> NetworkAnalysis {
        let file_hashes: Vec<(String, u64)> = files
            .iter()
            .map(|(name, bytes)| (name.clone(), rd_snap::fnv1a64(bytes)))
            .collect();
        let (mut analysis, timings) = rd_obs::span::stages(|| {
            let network = stage("parse", || Network::from_bytes_list(files));
            rd_obs::metrics::record_peak_rss("parse");
            analyze(network)
        });
        analysis.timings = timings;
        analysis.file_hashes = file_hashes;
        analysis
    }

    /// True when at least one input file was quarantined during parsing,
    /// i.e. the analysis covers only a subset of the corpus.
    pub fn degraded(&self) -> bool {
        self.network.coverage.degraded()
    }

    /// Loads and analyzes a directory of configuration files. Parsing is
    /// recorded as the `"parse"` stage.
    pub fn from_dir(dir: &Path) -> Result<NetworkAnalysis, LoadError> {
        Ok(NetworkAnalysis::from_bytes_list(read_network(dir)?))
    }

    /// The route pathway graph for one router (Section 3.3).
    pub fn pathway(&self, router: RouterId) -> PathwayGraph {
        PathwayGraph::trace(router, &self.instances, &self.instance_graph)
    }

    /// IBGP mesh structure of every BGP instance (Section 7.1's
    /// "completeness of the IBGP mesh" dimension).
    pub fn ibgp_meshes(&self) -> Vec<IbgpMesh> {
        routing_model::ibgp_meshes(&self.network, &self.instances, &self.adjacencies)
    }

    /// OSPF area structure of every OSPF instance.
    pub fn area_structures(&self) -> Vec<AreaStructure> {
        routing_model::area_structures(&self.network, &self.processes, &self.instances)
    }

    /// A reachability analysis over this network (Section 6.2).
    pub fn reachability(&self) -> ReachAnalysis<'_> {
        ReachAnalysis::new(&self.network, &self.processes, &self.adjacencies, &self.instances)
    }

    /// Minimum routers whose failure separates two instances (the net5
    /// question from Section 5.1), or `None` if they cannot be separated.
    pub fn instance_separation(&self, a: InstanceId, b: InstanceId) -> Option<usize> {
        let graph = RouterGraph::build(&self.network, &self.links);
        let sources = self.instances.get(a).routers.iter().copied().collect();
        let sinks = self.instances.get(b).routers.iter().copied().collect();
        graph.min_router_cut(&sources, &sinks)
    }

    /// DOT rendering of the instance graph (Figure 6/9 style).
    pub fn instance_graph_dot(&self) -> String {
        routing_model::render::instance_graph_dot(&self.instances, &self.instance_graph)
    }

    /// Text rendering of the instance graph.
    pub fn instance_graph_text(&self) -> String {
        routing_model::render::instance_graph_text(&self.instances, &self.instance_graph)
    }

    /// DOT rendering of the process graph (Figure 5 style).
    pub fn process_graph_dot(&self) -> String {
        routing_model::render::process_graph_dot(&self.network, &self.process_graph)
    }

    /// Text rendering of a router's pathway graph (Figure 7/10 style).
    pub fn pathway_text(&self, router: RouterId) -> String {
        routing_model::render::pathway_text(&self.pathway(router), &self.instances)
    }
}

/// Runs `f` under a span named `name`: one pipeline stage. The caller's
/// stage record (the [`rd_obs::span::stages`] call around the pipeline)
/// takes the span's duration.
fn stage<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = rd_obs::span::span(name);
    f()
}

/// The pipeline after parse, one stage span per abstraction in dependency
/// order; [`NetworkAnalysis::timings`] is left for the caller's record.
fn analyze(network: Network) -> NetworkAnalysis {
    let links = stage("links", || LinkMap::build(&network));
    let external = stage("external", || ExternalAnalysis::build(&network, &links));
    let processes = stage("processes", || Processes::extract(&network));
    let adjacencies =
        stage("adjacencies", || Adjacencies::build(&network, &links, &processes, &external));
    let instances = stage("instances", || Instances::compute(&processes, &adjacencies));
    let (instance_graph, process_graph) = stage("graphs", || {
        (
            InstanceGraph::build(&network, &processes, &adjacencies, &instances),
            ProcessGraph::build(&network, &processes, &adjacencies),
        )
    });
    let blocks = stage("blocks", || network.address_blocks());
    let (table1, design) = stage("classify", || {
        let table1 = Table1::compute(&instances, &instance_graph, &adjacencies);
        let design =
            classify_network(&network, &instances, &instance_graph, &adjacencies, &table1);
        (table1, design)
    });

    // Fold the whole pipeline's diagnostics into one channel: parse
    // level, then topology hints, then design smells.
    let diagnostics = stage("diagnose", || {
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
                    router.config.interfaces[hint.iface.iface].name,
                    hint.subnet,
                    hint.block,
                ),
            });
        }
        diagnostics
            .extend(routing_model::design_diagnostics(&network, &processes, &instances));
        diagnostics
    });

    rd_obs::metrics::counter_add("instances.count", instances.len() as u64);
    rd_obs::metrics::counter_add("links.count", links.links.len() as u64);
    let (errors, warnings, _) = diagnostics.counts();
    rd_obs::metrics::counter_add("diag.errors", errors as u64);
    rd_obs::metrics::counter_add("diag.warnings", warnings as u64);
    rd_obs::metrics::record_peak_rss("analyze");
    rd_obs::trace::event(
        "analyze.done",
        &[
            ("routers", network.len().into()),
            ("instances", instances.len().into()),
            ("diagnostics", diagnostics.len().into()),
        ],
    );

    NetworkAnalysis {
        network,
        links,
        external,
        processes,
        adjacencies,
        instances,
        instance_graph,
        process_graph,
        blocks,
        table1,
        design,
        diagnostics,
        timings: StageTimings::new(),
        file_hashes: Vec::new(),
    }
}

/// Every plain file in `dir` (symlinks followed) with its name and
/// metadata, in file-name order: the one definition of a network's
/// inputs, shared by cold loads ([`read_network`]) and the
/// [`incremental`] engine's sweep, which stats each file exactly once.
pub(crate) fn config_files(
    dir: &Path,
) -> Result<Vec<(String, PathBuf, std::fs::Metadata)>, LoadError> {
    let mut files: Vec<(String, PathBuf, std::fs::Metadata)> = std::fs::read_dir(dir)
        .map_err(|error| LoadError { path: dir.to_path_buf(), error })?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let path = e.path();
            let meta = std::fs::metadata(&path).ok().filter(|m| m.is_file())?;
            Some((path.file_name()?.to_string_lossy().into_owned(), path, meta))
        })
        .collect();
    files.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(files)
}

/// One network directory's config files as `(file name, bytes)`, in
/// file-name order: what [`NetworkAnalysis::from_dir`] analyzes.
/// [`snapshot::read_tree`] reads a whole tree through this.
pub fn read_network(dir: &Path) -> Result<rd_plan::CorpusFiles, LoadError> {
    config_files(dir)?
        .into_iter()
        .map(|(name, path, _)| match std::fs::read(&path) {
            Ok(bytes) => Ok((name, bytes)),
            Err(error) => Err(LoadError { path, error }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enterprise_texts() -> Vec<(String, String)> {
        vec![
            (
                "config1".to_string(),
                "hostname border\n\
                 interface Serial0\n ip address 192.0.2.1 255.255.255.252\n\
                 interface Serial1\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n \
                  redistribute bgp 65001 subnets\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n"
                    .to_string(),
            ),
            (
                "config2".to_string(),
                "hostname core\n\
                 interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .to_string(),
            ),
        ]
    }

    #[test]
    fn full_pipeline_smoke() {
        let a = NetworkAnalysis::from_texts(enterprise_texts()).unwrap();
        assert_eq!(a.network.len(), 2);
        assert_eq!(a.instances.len(), 2);
        assert_eq!(a.design.class, DesignClass::Enterprise);
        assert!(a.instance_graph_dot().contains("AS7018"));
        assert!(a.process_graph_dot().contains("digraph"));
        assert!(a.pathway_text(RouterId(1)).contains("Router RIB"));
        assert!(!a.blocks.is_empty());
    }

    #[test]
    fn instance_separation_simple() {
        // border is the only path between the OSPF instance and the BGP
        // instance — but they share the border router, so separation is
        // impossible (None).
        let a = NetworkAnalysis::from_texts(enterprise_texts()).unwrap();
        let ospf = a.instances.list.iter().find(|i| i.asn.is_none()).unwrap().id;
        let bgp = a.instances.list.iter().find(|i| i.asn.is_some()).unwrap().id;
        assert_eq!(a.instance_separation(ospf, bgp), None);
    }

    #[test]
    fn reachability_accessor_works() {
        let a = NetworkAnalysis::from_texts(enterprise_texts()).unwrap();
        let reach = a.reachability();
        // Unfiltered upstream: the default route can enter.
        let ospf = a.instances.list.iter().find(|i| i.asn.is_none()).unwrap().id;
        let external = reach.external_routes_entering(ospf);
        assert!(external.covers_prefix(Prefix::DEFAULT));
    }

    #[test]
    fn load_error_names_the_path() {
        let missing =
            std::env::temp_dir().join(format!("rd-load-error-{}-missing", std::process::id()));
        let cold = NetworkAnalysis::from_dir(&missing).err().expect("a missing dir fails");
        let delta = incremental::DeltaEngine::new(&missing).refresh().err().expect("fails too");
        for err in [cold, delta] {
            assert_eq!(err.path, missing);
            let text = err.to_string();
            assert!(text.starts_with(&format!("cannot read {}: ", missing.display())), "{text}");
        }
    }
}
