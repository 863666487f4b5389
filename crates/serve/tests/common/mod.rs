//! The mini corpus and client helpers rd-serve's integration tests share.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::net::TcpStream;
use std::time::Duration;

use nettopo::{ExternalAnalysis, LinkMap, Network};
use rd_serve::{ServeOptions, Server};
use rd_snap::{Corpus, NetworkSnapshot};
use routing_model::{
    classify_network, Adjacencies, InstanceGraph, Instances, ProcessGraph, Processes, Table1,
};

/// Analyzes a two-router corpus through the real pipeline (no netgen or
/// core dependency) and snapshots it under `name`.
pub fn tiny_snapshot(name: &str) -> NetworkSnapshot {
    let r1 = "\
hostname edge1
interface Loopback0
 ip address 10.0.0.1 255.255.255.255
interface Serial0/0
 ip address 10.1.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
 network 10.1.0.0 0.0.255.255 area 0
router bgp 65000
 neighbor 10.0.0.2 remote-as 65000
";
    let r2 = "\
hostname edge2
interface Loopback0
 ip address 10.0.0.2 255.255.255.255
interface Serial0/0
 ip address 10.1.0.2 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
 network 10.1.0.0 0.0.255.255 area 0
router bgp 65000
 neighbor 10.0.0.1 remote-as 65000
 neighbor 192.168.50.1 remote-as 7018
";
    let texts = vec![
        ("config1".to_string(), r1.to_string()),
        ("config2".to_string(), r2.to_string()),
    ];
    let network = Network::from_texts(texts).expect("tiny corpus parses");
    let links = LinkMap::build(&network);
    let external = ExternalAnalysis::build(&network, &links);
    let processes = Processes::extract(&network);
    let adjacencies = Adjacencies::build(&network, &links, &processes, &external);
    let instances = Instances::compute(&processes, &adjacencies);
    let instance_graph = InstanceGraph::build(&network, &processes, &adjacencies, &instances);
    let process_graph = ProcessGraph::build(&network, &processes, &adjacencies);
    let blocks = network.address_blocks();
    let table1 = Table1::compute(&instances, &instance_graph, &adjacencies);
    let design = classify_network(&network, &instances, &instance_graph, &adjacencies, &table1);
    let diagnostics = network.diagnostics.clone();
    NetworkSnapshot {
        name: name.to_string(),
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
        file_hashes: Vec::new(),
    }
}

/// Default server options with `n` event-loop threads.
pub fn workers(n: usize) -> ServeOptions {
    ServeOptions { workers: n, ..ServeOptions::default() }
}

/// The corpus of one [`tiny_snapshot`] per name.
pub fn corpus_of(names: &[&str]) -> Corpus {
    Corpus::new(names.iter().map(|n| tiny_snapshot(n)).collect())
}

/// Connects to `server` with a 10 s read timeout.
pub fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// The current value of the rd-obs counter `name` (0 when unset).
pub fn counter(name: &str) -> u64 {
    rd_obs::metrics::snapshot()
        .into_iter()
        .find_map(|(n, m)| match m {
            rd_obs::metrics::Metric::Counter(v) if n == name => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}
