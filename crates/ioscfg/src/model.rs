//! The typed router-configuration model.
//!
//! This is the "router level model of the network" the paper's method
//! populates (contribution 2): every construct the routing-design analyses
//! consume, as plain data. All types are `Clone + PartialEq` so model-level
//! isomorphism checks (e.g. the anonymization-invariance test) are direct.

use std::collections::BTreeMap;
use std::fmt;

use netaddr::{Addr, Netmask, Prefix, Wildcard};

use crate::ifname::InterfaceName;

/// A complete parsed router configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouterConfig {
    /// The router's configured hostname, if present.
    pub hostname: Option<String>,
    /// Interface definitions, in file order.
    pub interfaces: Vec<Interface>,
    /// OSPF routing processes (`router ospf <pid>`), in file order.
    pub ospf: Vec<OspfProcess>,
    /// EIGRP (and legacy IGRP) routing processes, in file order.
    pub eigrp: Vec<EigrpProcess>,
    /// The RIP process (`router rip`); IOS allows at most one.
    pub rip: Option<RipProcess>,
    /// The BGP process (`router bgp <asn>`); IOS allows at most one.
    pub bgp: Option<BgpProcess>,
    /// Static routes (`ip route ...`), in file order.
    pub static_routes: Vec<StaticRoute>,
    /// Numbered access lists, keyed by number.
    pub access_lists: BTreeMap<u32, AccessList>,
    /// Route maps, keyed by name.
    pub route_maps: BTreeMap<String, RouteMap>,
    /// Commands the grammar does not cover, preserved verbatim with their
    /// line numbers. A tolerant parser is part of the methodology: real
    /// corpora always contain such lines.
    pub unparsed: Vec<(usize, String)>,
}

impl RouterConfig {
    /// The hostname, or a placeholder for anonymized files.
    pub fn name(&self) -> &str {
        self.hostname.as_deref().unwrap_or("<unnamed>")
    }

    /// Looks up an interface by name.
    pub fn interface(&self, name: &InterfaceName) -> Option<&Interface> {
        self.interfaces.iter().find(|i| &i.name == name)
    }

    /// Iterates over all primary and secondary interface subnets.
    pub fn interface_subnets(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.interfaces.iter().flat_map(|i| i.subnets())
    }

    /// The IGP processes in model order: OSPF, EIGRP/IGRP, then RIP.
    pub fn igps(&self) -> impl Iterator<Item = Igp<'_>> {
        let ospf = self.ospf.iter().map(Igp::Ospf);
        ospf.chain(self.eigrp.iter().map(Igp::Eigrp)).chain(self.rip.iter().map(Igp::Rip))
    }
}

/// An interface address: host address plus netmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IfAddr {
    /// The interface's own address.
    pub addr: Addr,
    /// The subnet mask.
    pub mask: Netmask,
}

impl IfAddr {
    /// The subnet this address lives in.
    pub fn subnet(self) -> Prefix {
        Prefix::from_mask(self.addr, self.mask)
    }
}

impl fmt::Display for IfAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.addr, self.mask)
    }
}

/// An interface definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Interface {
    /// The interface name (type + unit).
    pub name: InterfaceName,
    /// `description` text (anonymized corpora hash this).
    pub description: Option<String>,
    /// Primary `ip address`, absent for unnumbered/unaddressed interfaces.
    pub address: Option<IfAddr>,
    /// `ip address ... secondary` entries.
    pub secondary: Vec<IfAddr>,
    /// `ip unnumbered <interface>`: borrow another interface's address.
    pub unnumbered: Option<InterfaceName>,
    /// Inbound packet filter (`ip access-group <n> in`).
    pub access_group_in: Option<u32>,
    /// Outbound packet filter (`ip access-group <n> out`).
    pub access_group_out: Option<u32>,
    /// `encapsulation` argument (e.g. `frame-relay`, `ppp`).
    pub encapsulation: Option<String>,
    /// `frame-relay interface-dlci <n>`.
    pub frame_relay_dlci: Option<u32>,
    /// `bandwidth <kbps>`.
    pub bandwidth_kbps: Option<u32>,
    /// Interface is administratively down.
    pub shutdown: bool,
    /// `point-to-point` mode flag from the `interface` line itself.
    pub point_to_point: bool,
}

impl Interface {
    /// Creates an interface with the given name and all else defaulted.
    pub fn new(name: InterfaceName) -> Interface {
        Interface {
            name,
            description: None,
            address: None,
            secondary: Vec::new(),
            unnumbered: None,
            access_group_in: None,
            access_group_out: None,
            encapsulation: None,
            frame_relay_dlci: None,
            bandwidth_kbps: None,
            shutdown: false,
            point_to_point: false,
        }
    }

    /// All subnets (primary first, then secondaries).
    pub fn subnets(&self) -> Vec<Prefix> {
        self.address
            .iter()
            .chain(self.secondary.iter())
            .map(|a| a.subnet())
            .collect()
    }

    /// True if the interface has no address of its own.
    pub fn is_unnumbered(&self) -> bool {
        self.address.is_none() && self.unnumbered.is_some()
    }
}

/// `redistribute <source> ...` inside a routing process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Redistribution {
    /// Where the routes come from.
    pub source: RedistSource,
    /// `metric <n>` seed metric.
    pub metric: Option<u64>,
    /// `metric-type <1|2>` (OSPF external type).
    pub metric_type: Option<u8>,
    /// OSPF `subnets` keyword (redistribute subnetted routes too).
    pub subnets: bool,
    /// `route-map <name>` policy filter.
    pub route_map: Option<String>,
    /// `tag <n>` administrative tag stamped on redistributed routes.
    pub tag: Option<u32>,
}

impl Redistribution {
    /// A plain redistribution of `source` with no options.
    pub fn plain(source: RedistSource) -> Redistribution {
        Redistribution {
            source,
            metric: None,
            metric_type: None,
            subnets: false,
            route_map: None,
            tag: None,
        }
    }
}

/// The source of a route redistribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RedistSource {
    /// Directly connected subnets (the paper's "local RIB").
    Connected,
    /// Static routes (also part of the local RIB).
    Static,
    /// An OSPF process by pid.
    Ospf(u32),
    /// An EIGRP process by AS number.
    Eigrp(u32),
    /// A legacy IGRP process by AS number.
    Igrp(u32),
    /// The RIP process.
    Rip,
    /// The BGP process by AS number.
    Bgp(u32),
}

impl fmt::Display for RedistSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedistSource::Connected => write!(f, "connected"),
            RedistSource::Static => write!(f, "static"),
            RedistSource::Ospf(id) => write!(f, "ospf {id}"),
            RedistSource::Eigrp(asn) => write!(f, "eigrp {asn}"),
            RedistSource::Igrp(asn) => write!(f, "igrp {asn}"),
            RedistSource::Rip => write!(f, "rip"),
            RedistSource::Bgp(asn) => write!(f, "bgp {asn}"),
        }
    }
}

/// `distribute-list <acl> in|out [interface|protocol]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistributeList {
    /// The access list defining the filter.
    pub acl: u32,
    /// Optional interface scope (e.g. `Serial1/0.5` on line 21 of Fig. 2).
    pub interface: Option<InterfaceName>,
}

/// The routing policy an IGP process attaches to the edges of the process
/// and instance graphs (paper Sections 3.1–3.2): OSPF, EIGRP, IGRP and
/// RIP stanzas all carry these statements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IgpPolicy {
    /// `redistribute` statements.
    pub redistribute: Vec<Redistribution>,
    /// Inbound distribute lists.
    pub distribute_in: Vec<DistributeList>,
    /// Outbound distribute lists.
    pub distribute_out: Vec<DistributeList>,
    /// `passive-interface` names (no adjacencies formed there).
    pub passive: Vec<InterfaceName>,
}

/// One IGP process of a router, whichever protocol it runs.
#[derive(Clone, Copy, Debug)]
pub enum Igp<'a> {
    /// A `router ospf` process.
    Ospf(&'a OspfProcess),
    /// A `router eigrp` or `router igrp` process.
    Eigrp(&'a EigrpProcess),
    /// The `router rip` process.
    Rip(&'a RipProcess),
}

impl<'a> Igp<'a> {
    /// The process's routing policy.
    #[inline]
    pub fn policy(self) -> &'a IgpPolicy {
        match self {
            Igp::Ospf(p) => &p.policy,
            Igp::Eigrp(p) => &p.policy,
            Igp::Rip(p) => &p.policy,
        }
    }

    /// True if some network statement of the process covers `addr`.
    #[inline]
    pub fn covers(self, addr: Addr) -> bool {
        match self {
            Igp::Ospf(p) => p.covers(addr),
            Igp::Eigrp(p) => p.covers(addr),
            Igp::Rip(p) => p.covers(addr),
        }
    }
}

/// The stanza header: `router ospf 64`, `router igrp 10`, `router rip`.
impl fmt::Display for Igp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Igp::Ospf(p) => write!(f, "router ospf {}", p.id),
            Igp::Eigrp(p) => {
                write!(f, "router {} {}", if p.is_igrp { "igrp" } else { "eigrp" }, p.asn)
            }
            Igp::Rip(_) => f.write_str("router rip"),
        }
    }
}

/// An OSPF area identifier (plain number or dotted-quad form).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OspfArea(pub u32);

impl fmt::Display for OspfArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An OSPF `network <addr> <wildcard> area <area>` statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OspfNetwork {
    /// Address pattern.
    pub addr: Addr,
    /// Wildcard mask (1-bits are "don't care").
    pub wildcard: Wildcard,
    /// The area interfaces matching this statement join.
    pub area: OspfArea,
}

impl OspfNetwork {
    /// True if this statement covers the given interface address.
    pub fn covers(&self, addr: Addr) -> bool {
        self.wildcard.matches(self.addr, addr)
    }
}

/// A `router ospf <pid>` process.
#[derive(Clone, Debug, PartialEq)]
pub struct OspfProcess {
    /// Process id (router-local scope only; paper Section 3.2 stresses
    /// these carry no network-wide meaning).
    pub id: u32,
    /// `network` statements, in file order (first match wins in IOS).
    pub networks: Vec<OspfNetwork>,
    /// Redistribution, distribute lists and passive interfaces.
    pub policy: IgpPolicy,
    /// `default-information originate` flag.
    pub default_information: bool,
}

impl OspfProcess {
    /// An empty process with the given pid.
    pub fn new(id: u32) -> OspfProcess {
        OspfProcess {
            id,
            networks: Vec::new(),
            policy: IgpPolicy::default(),
            default_information: false,
        }
    }

    /// True if some network statement covers `addr` (associates the owning
    /// interface with this process).
    pub fn covers(&self, addr: Addr) -> bool {
        self.networks.iter().any(|n| n.covers(addr))
    }
}

/// A `network` statement in EIGRP (classful address, optional wildcard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EigrpNetwork {
    /// Network address.
    pub addr: Addr,
    /// Optional wildcard; when absent the statement is classful.
    pub wildcard: Option<Wildcard>,
}

impl EigrpNetwork {
    /// True if this statement covers the given interface address.
    pub fn covers(&self, addr: Addr) -> bool {
        match self.wildcard {
            Some(w) => w.matches(self.addr, addr),
            None => classful_prefix(self.addr).contains(addr),
        }
    }
}

/// The classful prefix implied by a bare network address (A/B/C).
pub fn classful_prefix(addr: Addr) -> Prefix {
    let first = addr.octets()[0];
    let len = if first < 128 {
        8
    } else if first < 192 {
        16
    } else {
        24
    };
    // Invariant: len is one of 8/16/24, always <= 32.
    Prefix::new(addr, len).expect("classful lengths are valid")
}

/// A `router eigrp <asn>` (or legacy `router igrp <asn>`) process.
#[derive(Clone, Debug, PartialEq)]
pub struct EigrpProcess {
    /// The autonomous-system number scoping this process.
    pub asn: u32,
    /// True for legacy `router igrp` (the paper folds its two IGRP
    /// instances into the EIGRP counts).
    pub is_igrp: bool,
    /// `network` statements.
    pub networks: Vec<EigrpNetwork>,
    /// Redistribution, distribute lists and passive interfaces.
    pub policy: IgpPolicy,
    /// `no auto-summary` present.
    pub no_auto_summary: bool,
}

impl EigrpProcess {
    /// An empty EIGRP process with the given ASN.
    pub fn new(asn: u32) -> EigrpProcess {
        EigrpProcess {
            asn,
            is_igrp: false,
            networks: Vec::new(),
            policy: IgpPolicy::default(),
            no_auto_summary: false,
        }
    }

    /// True if some network statement covers `addr`.
    pub fn covers(&self, addr: Addr) -> bool {
        self.networks.iter().any(|n| n.covers(addr))
    }
}

/// The `router rip` process.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RipProcess {
    /// `version 1|2`.
    pub version: Option<u8>,
    /// Classful `network` statements.
    pub networks: Vec<Addr>,
    /// Redistribution, distribute lists and passive interfaces.
    pub policy: IgpPolicy,
}

impl RipProcess {
    /// An empty RIP process.
    pub fn new() -> RipProcess {
        RipProcess::default()
    }

    /// True if some classful network statement covers `addr`.
    pub fn covers(&self, addr: Addr) -> bool {
        self.networks.iter().any(|n| classful_prefix(*n).contains(addr))
    }
}

/// A BGP neighbor definition (the union of that neighbor's
/// `neighbor <ip> ...` lines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpNeighbor {
    /// Peer address.
    pub addr: Addr,
    /// `remote-as <asn>` — determines IBGP vs EBGP.
    pub remote_as: Option<u32>,
    /// `description` text.
    pub description: Option<String>,
    /// `update-source <interface>`.
    pub update_source: Option<InterfaceName>,
    /// `next-hop-self` flag.
    pub next_hop_self: bool,
    /// Inbound `route-map <name> in`.
    pub route_map_in: Option<String>,
    /// Outbound `route-map <name> out`.
    pub route_map_out: Option<String>,
    /// Inbound `distribute-list <acl> in`.
    pub distribute_in: Option<u32>,
    /// Outbound `distribute-list <acl> out`.
    pub distribute_out: Option<u32>,
    /// `route-reflector-client` flag.
    pub route_reflector_client: bool,
    /// `send-community` flag.
    pub send_community: bool,
}

impl BgpNeighbor {
    /// A neighbor with only the address set.
    pub fn new(addr: Addr) -> BgpNeighbor {
        BgpNeighbor {
            addr,
            remote_as: None,
            description: None,
            update_source: None,
            next_hop_self: false,
            route_map_in: None,
            route_map_out: None,
            distribute_in: None,
            distribute_out: None,
            route_reflector_client: false,
            send_community: false,
        }
    }
}

/// The `router bgp <asn>` process.
#[derive(Clone, Debug, PartialEq)]
pub struct BgpProcess {
    /// The local autonomous-system number.
    pub asn: u32,
    /// `bgp router-id <addr>`.
    pub router_id: Option<Addr>,
    /// `network <addr> [mask <mask>]` originations.
    pub networks: Vec<(Addr, Option<Netmask>)>,
    /// Neighbor definitions, keyed in file order.
    pub neighbors: Vec<BgpNeighbor>,
    /// `redistribute` statements.
    pub redistribute: Vec<Redistribution>,
    /// `no synchronization` present.
    pub no_synchronization: bool,
}

impl BgpProcess {
    /// An empty BGP process with the given ASN.
    pub fn new(asn: u32) -> BgpProcess {
        BgpProcess {
            asn,
            router_id: None,
            networks: Vec::new(),
            neighbors: Vec::new(),
            redistribute: Vec::new(),
            no_synchronization: false,
        }
    }

    /// Finds (or creates) the neighbor entry for `addr`.
    pub fn neighbor_mut(&mut self, addr: Addr) -> &mut BgpNeighbor {
        if let Some(pos) = self.neighbors.iter().position(|n| n.addr == addr) {
            return &mut self.neighbors[pos];
        }
        self.neighbors.push(BgpNeighbor::new(addr));
        // Invariant: the push above makes the vec non-empty.
        self.neighbors.last_mut().expect("just pushed")
    }

    /// Neighbors whose `remote-as` differs from the local ASN (EBGP peers).
    pub fn ebgp_neighbors(&self) -> impl Iterator<Item = &BgpNeighbor> {
        self.neighbors
            .iter()
            .filter(|n| n.remote_as.is_some_and(|asn| asn != self.asn))
    }
}

/// The target of a static route: a next-hop address or an exit interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StaticTarget {
    /// Forward toward this next-hop address.
    NextHop(Addr),
    /// Send out this interface.
    Interface(InterfaceName),
}

impl fmt::Display for StaticTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaticTarget::NextHop(a) => write!(f, "{a}"),
            StaticTarget::Interface(i) => write!(f, "{i}"),
        }
    }
}

/// An `ip route <dest> <mask> <target> [distance] [tag <t>]` command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticRoute {
    /// Destination network address (as written; host bits preserved by the
    /// emitter but the analyses use [`StaticRoute::prefix`]).
    pub dest: Addr,
    /// Destination mask.
    pub mask: Netmask,
    /// Next hop or exit interface.
    pub target: StaticTarget,
    /// Administrative distance override.
    pub distance: Option<u8>,
    /// Route tag.
    pub tag: Option<u32>,
}

impl StaticRoute {
    /// The canonical destination prefix.
    pub fn prefix(&self) -> Prefix {
        Prefix::from_mask(self.dest, self.mask)
    }

    /// True for a default route (`0.0.0.0 0.0.0.0`).
    pub fn is_default(&self) -> bool {
        self.prefix() == Prefix::DEFAULT
    }
}

/// Permit or deny.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AclAction {
    /// Matching traffic/routes are allowed.
    Permit,
    /// Matching traffic/routes are dropped.
    Deny,
}

impl fmt::Display for AclAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AclAction::Permit => write!(f, "permit"),
            AclAction::Deny => write!(f, "deny"),
        }
    }
}

/// An address matcher inside an ACL entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AclAddr {
    /// `any`.
    Any,
    /// `host <addr>`.
    Host(Addr),
    /// `<addr> <wildcard>`.
    Wild(Addr, Wildcard),
}

impl AclAddr {
    /// True if `addr` matches.
    pub fn matches(&self, addr: Addr) -> bool {
        match self {
            AclAddr::Any => true,
            AclAddr::Host(h) => *h == addr,
            AclAddr::Wild(base, w) => w.matches(*base, addr),
        }
    }

    /// The matched address set as a prefix set (exact when the wildcard is
    /// contiguous; discontiguous wildcards over-approximate to the covering
    /// prefix, which is the conservative direction for reachability).
    pub fn to_prefix_set(&self) -> netaddr::PrefixSet {
        match self {
            AclAddr::Any => netaddr::PrefixSet::all(),
            AclAddr::Host(h) => netaddr::PrefixSet::from_prefix(Prefix::host(*h)),
            AclAddr::Wild(base, w) => match w.to_netmask() {
                Some(mask) => {
                    netaddr::PrefixSet::from_prefix(Prefix::from_mask(*base, mask))
                }
                None => {
                    // Over-approximate: cover with the contiguous prefix of
                    // the leading fixed bits.
                    let fixed = w.bits().leading_zeros() as u8;
                    netaddr::PrefixSet::from_prefix(
                        // Invariant: leading_zeros of a u32 is at most 32.
                        Prefix::new(*base, fixed).expect("fixed <= 32"),
                    )
                }
            },
        }
    }
}

impl fmt::Display for AclAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AclAddr::Any => write!(f, "any"),
            AclAddr::Host(a) => write!(f, "host {a}"),
            AclAddr::Wild(a, w) => write!(f, "{a} {w}"),
        }
    }
}

/// A port match in an extended ACL entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortMatch {
    /// `eq <port>`.
    Eq(u16),
    /// `lt <port>`.
    Lt(u16),
    /// `gt <port>`.
    Gt(u16),
    /// `range <lo> <hi>`.
    Range(u16, u16),
}

impl PortMatch {
    /// True if `port` matches.
    pub fn matches(&self, port: u16) -> bool {
        match *self {
            PortMatch::Eq(p) => port == p,
            PortMatch::Lt(p) => port < p,
            PortMatch::Gt(p) => port > p,
            PortMatch::Range(lo, hi) => (lo..=hi).contains(&port),
        }
    }
}

impl fmt::Display for PortMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortMatch::Eq(p) => write!(f, "eq {p}"),
            PortMatch::Lt(p) => write!(f, "lt {p}"),
            PortMatch::Gt(p) => write!(f, "gt {p}"),
            PortMatch::Range(lo, hi) => write!(f, "range {lo} {hi}"),
        }
    }
}

/// One `access-list` clause ("filter rule" in the paper's Fig. 11 metric).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AclEntry {
    /// A standard (1–99) entry: matches source addresses only.
    Standard {
        /// Permit or deny.
        action: AclAction,
        /// The matched source addresses.
        addr: AclAddr,
    },
    /// An extended (100–199) entry.
    Extended {
        /// Permit or deny.
        action: AclAction,
        /// Protocol keyword (`ip`, `tcp`, `udp`, `icmp`, `pim`, ...).
        protocol: String,
        /// Source address matcher.
        src: AclAddr,
        /// Source port matcher (tcp/udp only).
        src_port: Option<PortMatch>,
        /// Destination address matcher.
        dst: AclAddr,
        /// Destination port matcher (tcp/udp only).
        dst_port: Option<PortMatch>,
        /// `established` flag.
        established: bool,
    },
}

impl AclEntry {
    /// The clause's action.
    pub fn action(&self) -> AclAction {
        match self {
            AclEntry::Standard { action, .. } => *action,
            AclEntry::Extended { action, .. } => *action,
        }
    }
}

/// A numbered access list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessList {
    /// The list number (1–99 standard, 100–199 extended).
    pub id: u32,
    /// Clauses in match order; IOS appends an implicit `deny any`.
    pub entries: Vec<AclEntry>,
}

impl AccessList {
    /// An empty list.
    pub fn new(id: u32) -> AccessList {
        AccessList { id, entries: Vec::new() }
    }

    /// The set of source addresses the list permits, as exact set algebra
    /// over the clauses (first match wins, implicit deny at the end).
    pub fn permitted_source_set(&self) -> netaddr::PrefixSet {
        let mut permitted = netaddr::PrefixSet::empty();
        let mut already_matched = netaddr::PrefixSet::empty();
        for e in &self.entries {
            let (action, set) = match e {
                AclEntry::Standard { action, addr } => (*action, addr.to_prefix_set()),
                AclEntry::Extended { action, src, .. } => (*action, src.to_prefix_set()),
            };
            let fresh = set.difference(&already_matched);
            if action == AclAction::Permit {
                permitted = permitted.union(&fresh);
            }
            already_matched = already_matched.union(&set);
        }
        permitted
    }
}

/// A `match` condition inside a route-map clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmMatch {
    /// `match ip address <acl>...`.
    IpAddress(Vec<u32>),
    /// `match tag <t>...`.
    Tag(Vec<u32>),
    /// `match as-path <acl>`.
    AsPath(u32),
    /// `match community <list>`.
    Community(u32),
}

/// A `set` action inside a route-map clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RmSet {
    /// `set metric <n>`.
    Metric(u64),
    /// `set metric-type type-1|type-2`.
    MetricType(u8),
    /// `set tag <t>`.
    Tag(u32),
    /// `set local-preference <n>`.
    LocalPreference(u32),
    /// `set weight <n>`.
    Weight(u32),
    /// `set community <value>`.
    Community(String),
}

/// One clause of a route map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteMapClause {
    /// Sequence number.
    pub seq: u32,
    /// Permit or deny.
    pub action: AclAction,
    /// Match conditions (all must hold).
    pub matches: Vec<RmMatch>,
    /// Set actions applied on permit.
    pub sets: Vec<RmSet>,
}

/// A named route map (ordered clauses; first matching clause decides).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteMap {
    /// The route-map name (hashed in anonymized corpora).
    pub name: String,
    /// Clauses in sequence order.
    pub clauses: Vec<RouteMapClause>,
}

impl RouteMap {
    /// An empty route map.
    pub fn new(name: impl Into<String>) -> RouteMap {
        RouteMap { name: name.into(), clauses: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn classful_prefixes() {
        assert_eq!(classful_prefix(addr("10.0.0.0")).to_string(), "10.0.0.0/8");
        assert_eq!(classful_prefix(addr("172.16.0.0")).to_string(), "172.16.0.0/16");
        assert_eq!(classful_prefix(addr("192.168.1.0")).to_string(), "192.168.1.0/24");
    }

    #[test]
    fn acl_first_match_wins() {
        // Mirrors Fig. 2 lines 30-31: deny 134.161/16 then permit any.
        let acl = AccessList {
            id: 143,
            entries: vec![
                AclEntry::Standard {
                    action: AclAction::Deny,
                    addr: AclAddr::Wild(addr("134.161.0.0"), "0.0.255.255".parse().unwrap()),
                },
                AclEntry::Standard { action: AclAction::Permit, addr: AclAddr::Any },
            ],
        };
        let set = acl.permitted_source_set();
        assert!(!set.contains(addr("134.161.5.5")));
        assert!(set.contains(addr("8.8.8.8")));
        assert!(!set.contains(addr("134.161.255.255")));
        assert!(set.contains(addr("134.162.0.0")));
    }

    #[test]
    fn acl_implicit_deny() {
        let acl = AccessList {
            id: 4,
            entries: vec![AclEntry::Standard {
                action: AclAction::Permit,
                addr: AclAddr::Host(addr("10.0.0.1")),
            }],
        };
        let set = acl.permitted_source_set();
        assert!(set.contains(addr("10.0.0.1")));
        assert!(!set.contains(addr("10.0.0.2")));
        assert_eq!(set.size(), 1);
    }

    #[test]
    fn bgp_neighbor_classification() {
        let mut bgp = BgpProcess::new(64780);
        bgp.neighbor_mut(addr("66.253.160.68")).remote_as = Some(12762);
        bgp.neighbor_mut(addr("10.0.0.2")).remote_as = Some(64780);
        assert_eq!(bgp.ebgp_neighbors().count(), 1);
        // Updating an existing neighbor does not duplicate it.
        bgp.neighbor_mut(addr("10.0.0.2")).next_hop_self = true;
        assert_eq!(bgp.neighbors.len(), 2);
    }

    #[test]
    fn ospf_network_coverage() {
        let mut ospf = OspfProcess::new(64);
        ospf.networks.push(OspfNetwork {
            addr: addr("66.251.75.128"),
            wildcard: "0.0.0.127".parse().unwrap(),
            area: OspfArea(0),
        });
        assert!(ospf.covers(addr("66.251.75.144")));
        assert!(!ospf.covers(addr("66.251.75.1")));
    }

    #[test]
    fn static_route_prefix_and_default() {
        let r = StaticRoute {
            dest: addr("10.235.240.71"),
            mask: "255.255.0.0".parse().unwrap(),
            target: StaticTarget::NextHop(addr("10.234.12.7")),
            distance: None,
            tag: None,
        };
        assert_eq!(r.prefix().to_string(), "10.235.0.0/16");
        assert!(!r.is_default());
        let d = StaticRoute {
            dest: Addr::ZERO,
            mask: Netmask::ANY,
            target: StaticTarget::NextHop(addr("10.0.0.1")),
            distance: None,
            tag: None,
        };
        assert!(d.is_default());
    }

    #[test]
    fn interface_subnets_include_secondaries() {
        let mut i = Interface::new("Ethernet0".parse().unwrap());
        i.address = Some(IfAddr { addr: addr("10.0.0.1"), mask: "255.255.255.0".parse().unwrap() });
        i.secondary.push(IfAddr { addr: addr("10.0.1.1"), mask: "255.255.255.0".parse().unwrap() });
        let subnets = i.subnets();
        assert_eq!(subnets.len(), 2);
        assert_eq!(subnets[0].to_string(), "10.0.0.0/24");
        assert!(!i.is_unnumbered());
    }

    #[test]
    fn port_match_semantics() {
        assert!(PortMatch::Eq(80).matches(80));
        assert!(PortMatch::Lt(1024).matches(1023));
        assert!(!PortMatch::Lt(1024).matches(1024));
        assert!(PortMatch::Gt(1024).matches(1025));
        assert!(PortMatch::Range(20, 21).matches(21));
        assert!(!PortMatch::Range(20, 21).matches(22));
    }
}
