//! A Cisco IOS-style router-configuration toolchain: lexer, typed model,
//! parser, and emitter.
//!
//! The paper's entire methodology starts from "dumps of the local
//! configuration state of each router" — IOS `show running-config` text.
//! This crate turns that text into a typed [`RouterConfig`] model and back:
//!
//! - [`raw`]: the lexer. [`RawConfig`] is one flat table of a file's
//!   command lines, borrowed from its text, each with its line number, its
//!   words (split once) and the extent of its indented subtree; a
//!   [`Stanza`] views one line and walks its children — the
//!   indentation-structured tree the paper's scripts walk over.
//! - [`model`]: the typed router model — [`Interface`]s, routing processes
//!   ([`OspfProcess`], [`EigrpProcess`], [`RipProcess`], [`BgpProcess`]),
//!   [`StaticRoute`]s, [`AccessList`]s and [`RouteMap`]s. The three IGP
//!   process types share one [`IgpPolicy`] block (redistribution,
//!   distribute lists, passive interfaces), and [`RouterConfig::igps`]
//!   walks them as [`Igp`]s.
//! - [`parse`]: tolerant parsing. Real configuration corpora always contain
//!   commands outside any parser's grammar; unknown lines are preserved in
//!   [`RouterConfig::unparsed`] rather than failing the file, while
//!   malformed *known* commands are hard errors with line numbers.
//! - [`diagnose`]: per-configuration diagnostics — everything the tolerant
//!   parser skipped (unknown stanzas) or cannot vouch for (dangling ACL /
//!   route-map / unnumbered references), as `rd_obs::Diagnostic`s with
//!   file, line, and severity.
//! - [`emit`]: canonical serialization back to IOS text. `netgen` uses this
//!   to produce the synthetic corpus, and round-trip property tests pin the
//!   parser and emitter against each other.
//! - [`vocabulary`]: the set of bare keywords the grammar knows, which the
//!   anonymizer uses as its "published command reference" whitelist
//!   (paper Section 4.1).
//!
//! The grammar covers the 2004-era constructs the paper's analyses consume:
//! interface addressing and packet-filter bindings, OSPF/EIGRP/IGRP/RIP/BGP
//! processes with `network`, `neighbor`, `redistribute` and
//! `distribute-list` statements, standard and extended access lists, route
//! maps, and static routes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnose;
pub mod emit;
mod error;
mod ifname;
pub mod model;
pub mod parse;
pub mod raw;
mod vocab;

pub use diagnose::config_diagnostics;
pub use error::{ParseError, ParseErrorKind};
pub use ifname::{InterfaceName, InterfaceType};
pub use emit::emit_config;
pub use model::{
    classful_prefix, AccessList, AclAction, AclAddr, AclEntry, BgpNeighbor, BgpProcess,
    DistributeList, EigrpNetwork, EigrpProcess, IfAddr, Igp, IgpPolicy, Interface, OspfArea,
    OspfNetwork, OspfProcess, PortMatch, Redistribution, RedistSource, RipProcess, RouteMap,
    RouteMapClause, RouterConfig, RmMatch, RmSet, StaticRoute, StaticTarget,
};
pub use parse::{parse_config, parse_raw};
pub use raw::{lex_config, RawConfig, Stanza};
pub use vocab::{is_keyword, vocabulary};
