//! The paper's four routing-design abstractions, computed from parsed
//! configurations:
//!
//! - [`process`]: routing processes and their RIBs (Figure 3's model —
//!   every routing process, plus a local RIB for connected/static routes
//!   and the router RIB that holds selected routes).
//! - [`adjacency`]: which processes exchange routes directly — IGP
//!   adjacencies over shared links, and BGP sessions (IBGP/EBGP, internal
//!   or to external peers).
//! - [`process_graph`]: the routing process graph (Section 3.1), with
//!   redistribution/selection edges and policy annotations.
//! - [`instance`]: routing instances (Section 3.2) — the transitive
//!   closure of same-protocol adjacency, stopping at protocol-type changes
//!   and at EBGP edges between different ASes.
//! - [`instance_graph`]: the routing instance graph with route-exchange
//!   edges (redistribution and EBGP) and external-AS nodes.
//! - [`pathway`]: route pathway graphs (Section 3.3) — where a given
//!   router's routes can come from.
//! - [`mesh`]: IBGP mesh completeness and route-reflection detection
//!   (Section 7.1's "completeness of the IBGP mesh" dimension).
//! - [`areas`]: OSPF area structure and ABR detection.
//! - [`roles`]: the intra-/inter-domain role classification behind
//!   Table 1.
//! - [`classify`]: the design-archetype classification of Section 7
//!   (textbook backbone, textbook enterprise, tier-2 with staging IGPs,
//!   no-BGP, unclassifiable).
//! - [`diagnose`]: design-level diagnostics (inert redistribution,
//!   missing backbone area, neighborless BGP) on the `rd-obs` channel.
//! - [`render`]: Graphviz DOT output for the three graph abstractions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod areas;
pub mod classify;
pub mod diagnose;
pub mod instance;
pub mod instance_graph;
pub mod mesh;
pub mod pathway;
pub mod process;
pub mod process_graph;
pub mod render;
pub mod roles;

pub use adjacency::{Adjacencies, BgpSession, IgpAdjacency, SessionScope};
pub use areas::{area_structures, AreaStructure};
pub use classify::{classify_network, DesignClass, DesignSummary};
pub use diagnose::design_diagnostics;
pub use instance::{InstanceId, Instances, RoutingInstance};
pub use instance_graph::{
    exchanges, Exchange, ExchangeKind, ExchangeVia, InstanceEdge, InstanceGraph, InstanceNode,
};
pub use mesh::{ibgp_meshes, IbgpMesh};
pub use pathway::{PathwayGraph, PathwayIndex, PathwayNode, PathwaySummary};
pub use process::{ProcKey, Processes, Proto, ProtoKind, RoutingProcess};
pub use process_graph::{EdgeKind, ProcessEdge, ProcessGraph, RibNode};
pub use roles::{RoleCounts, Table1};
