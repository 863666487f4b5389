//! [`Snap`] declarations for the analysis model types.
//!
//! Everything a fully analyzed network consists of — parsed configs
//! (`ioscfg`), topology (`nettopo`), routing design (`routing-model`),
//! address blocks (`netaddr`) and diagnostics (`rd-obs`) — round-trips
//! through the snapshot byte format here. The declarations below *are*
//! the format: a `snap_struct!` is its fields in order, a `snap_enum!` is
//! a tag byte followed by the variant's fields in order, and each
//! hand-written impl says in one line why it is not a declaration.
//! Editing a tag, a field order or any hand-written impl changes the
//! bytes and requires a [`crate::FORMAT_VERSION`] bump.
//!
//! Two types need interning on decode. `rd_obs::Diagnostic::code` and the
//! `Table1` protocol labels are `&'static str` in the model; known values
//! map back to the original statics, and unknown ones (from a newer
//! writer) are leaked once per distinct string, which is bounded by the
//! snapshot's vocabulary.

use crate::codec::{DecodeError, Reader, Snap, Writer};
use ioscfg::{
    AccessList, AclAction, AclAddr, AclEntry, BgpNeighbor, BgpProcess, DistributeList,
    EigrpNetwork, EigrpProcess, IfAddr, IgpPolicy, Interface, InterfaceName, InterfaceType,
    OspfArea, OspfNetwork, OspfProcess, PortMatch, Redistribution, RedistSource, RipProcess,
    RouteMap, RouteMapClause, RouterConfig, RmMatch, RmSet, StaticRoute, StaticTarget,
};
use netaddr::{Addr, AddressBlock, BlockTree, Netmask, Prefix, Wildcard};
use nettopo::{
    Coverage, ExternalAnalysis, IfaceClass, IfaceClasses, IfaceRef, Link, LinkMap,
    MissingRouterHint, Network, Router, RouterId,
};
use routing_model::{
    Adjacencies, BgpSession, DesignClass, DesignSummary, EdgeKind, ExchangeKind, IgpAdjacency,
    InstanceEdge, InstanceGraph, InstanceId, InstanceNode, Instances, ProcKey, ProcessEdge,
    ProcessGraph, Processes, Proto, ProtoKind, RibNode, RoleCounts, RoutingInstance,
    RoutingProcess, SessionScope, Table1,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// netaddr

// Hand-written: rebuilt through `Addr::from_u32`.
impl Snap for Addr {
    fn encode(&self, w: &mut Writer) {
        w.u64(u64::from(self.to_u32()));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Addr::from_u32(u32::decode(r)?))
    }
}

// Hand-written: a length over 32 is rejected.
impl Snap for Netmask {
    fn encode(&self, w: &mut Writer) {
        w.byte(self.len());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.byte()?;
        Netmask::from_len(len).ok_or_else(|| DecodeError::new(format!("invalid netmask /{len}")))
    }
}

// Hand-written: rebuilt through `Wildcard::from_bits`.
impl Snap for Wildcard {
    fn encode(&self, w: &mut Writer) {
        w.u64(u64::from(self.bits()));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Wildcard::from_bits(u32::decode(r)?))
    }
}

// Hand-written: a length over 32 is rejected, and host bits are zeroed.
impl Snap for Prefix {
    fn encode(&self, w: &mut Writer) {
        self.addr().encode(w);
        w.byte(self.len());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let addr = Addr::decode(r)?;
        let len = r.byte()?;
        Prefix::new(addr, len)
            .ok_or_else(|| DecodeError::new(format!("invalid prefix {addr}/{len}")))
    }
}

snap_struct!(AddressBlock { prefix, used, children });
snap_struct!(BlockTree { roots });

// ---------------------------------------------------------------------------
// ioscfg

// A tag byte rather than the spelled-out name: interface names are the
// single most numerous string in a snapshot (one per interface, plus
// unnumbered/static-route references), so this both shrinks the container
// and spares the decoder a string allocation and prefix match per
// occurrence.
snap_enum!(InterfaceType {
    0 => Serial,
    1 => FastEthernet,
    2 => Atm,
    3 => Pos,
    4 => Ethernet,
    5 => Hssi,
    6 => GigabitEthernet,
    7 => TokenRing,
    8 => Dialer,
    9 => Bri,
    10 => Tunnel,
    11 => PortChannel,
    12 => Async,
    13 => Virtual,
    14 => Channel,
    15 => Cbr,
    16 => Fddi,
    17 => Multilink,
    18 => Null,
    19 => Loopback,
    20 => Other(name),
});
snap_struct!(InterfaceName { ty, unit });

snap_struct!(IfAddr { addr, mask });
snap_struct!(Interface {
    name,
    description,
    address,
    secondary,
    unnumbered,
    access_group_in,
    access_group_out,
    encapsulation,
    frame_relay_dlci,
    bandwidth_kbps,
    shutdown,
    point_to_point,
});

snap_enum!(RedistSource {
    0 => Connected,
    1 => Static,
    2 => Ospf(id),
    3 => Eigrp(asn),
    4 => Igrp(asn),
    5 => Rip,
    6 => Bgp(asn),
});
snap_struct!(Redistribution { source, metric, metric_type, subnets, route_map, tag });
snap_struct!(DistributeList { acl, interface });

snap_struct!(OspfArea(area));
snap_struct!(OspfNetwork { addr, wildcard, area });
snap_struct!(IgpPolicy { redistribute, distribute_in, distribute_out, passive });
snap_struct!(OspfProcess { id, networks, policy, default_information });
snap_struct!(EigrpNetwork { addr, wildcard });
snap_struct!(EigrpProcess { asn, is_igrp, networks, policy, no_auto_summary });
snap_struct!(RipProcess { version, networks, policy });
snap_struct!(BgpNeighbor {
    addr,
    remote_as,
    description,
    update_source,
    next_hop_self,
    route_map_in,
    route_map_out,
    distribute_in,
    distribute_out,
    route_reflector_client,
    send_community,
});
snap_struct!(BgpProcess {
    asn,
    router_id,
    networks,
    neighbors,
    redistribute,
    no_synchronization,
});

snap_enum!(StaticTarget { 0 => NextHop(addr), 1 => Interface(name) });
snap_struct!(StaticRoute { dest, mask, target, distance, tag });

snap_enum!(AclAction { 0 => Permit, 1 => Deny });
snap_enum!(AclAddr { 0 => Any, 1 => Host(addr), 2 => Wild(addr, wildcard) });
snap_enum!(PortMatch { 0 => Eq(port), 1 => Lt(port), 2 => Gt(port), 3 => Range(lo, hi) });
snap_enum!(AclEntry {
    0 => Standard { action, addr },
    1 => Extended { action, protocol, src, src_port, dst, dst_port, established },
});
snap_struct!(AccessList { id, entries });

snap_enum!(RmMatch { 0 => IpAddress(acls), 1 => Tag(tags), 2 => AsPath(n), 3 => Community(n) });
snap_enum!(RmSet {
    0 => Metric(v),
    1 => MetricType(v),
    2 => Tag(v),
    3 => LocalPreference(v),
    4 => Weight(v),
    5 => Community(v),
});
snap_struct!(RouteMapClause { seq, action, matches, sets });
snap_struct!(RouteMap { name, clauses });
snap_struct!(RouterConfig {
    hostname,
    interfaces,
    ospf,
    eigrp,
    rip,
    bgp,
    static_routes,
    access_lists,
    route_maps,
    unparsed,
});

// ---------------------------------------------------------------------------
// rd-obs diagnostics

snap_enum!(rd_obs::Severity { 0 => Info, 1 => Warning, 2 => Error });

/// Map a decoded diagnostic code back to a `&'static str`.
///
/// The known codes come from the fixed vocabulary emitted by the pipeline;
/// an unknown code (snapshot written by a newer tool) is leaked once per
/// distinct string and then reused.
fn intern_static(s: String, known: &[&'static str]) -> &'static str {
    if let Some(k) = known.iter().find(|k| **k == s) {
        return k;
    }
    static LEAKED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut leaked = LEAKED.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(k) = leaked.iter().find(|k| **k == s) {
        return k;
    }
    let k: &'static str = Box::leak(s.into_boxed_str());
    leaked.push(k);
    k
}

/// Diagnostic codes emitted anywhere in the pipeline, for interning.
const KNOWN_CODES: &[&str] = &[
    "unknown-stanza",
    "duplicate-interface",
    "undefined-acl",
    "undefined-route-map",
    "undefined-unnumbered-target",
    "possible-missing-router",
    "redistribute-unknown-source",
    "missing-backbone-area",
    "bgp-no-neighbors",
    "parse-error",
    "invalid-utf8",
    "empty-config",
    "worker-panic",
];

// Hand-written: `code` is a `&'static str`, interned on decode.
impl Snap for rd_obs::Diagnostic {
    fn encode(&self, w: &mut Writer) {
        self.file.encode(w);
        self.line.encode(w);
        self.severity.encode(w);
        w.string(self.code);
        self.message.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(rd_obs::Diagnostic {
            file: String::decode(r)?,
            line: usize::decode(r)?,
            severity: rd_obs::Severity::decode(r)?,
            code: intern_static(r.string()?, KNOWN_CODES),
            message: String::decode(r)?,
        })
    }
}

snap_struct!(rd_obs::Diagnostics { list });

// ---------------------------------------------------------------------------
// nettopo

snap_struct!(RouterId(index));
snap_struct!(Router { file_name, config, command_lines });
snap_struct!(Coverage { total_files, quarantined });
snap_struct!(Network { routers, diagnostics, coverage });
snap_struct!(IfaceRef { router, iface });
snap_struct!(Link { subnet, endpoints });
snap_struct!(LinkMap { links });
snap_enum!(IfaceClass { 0 => Internal, 1 => External, 2 => Unaddressed });

// Hand-written: decode checks the pairs are contiguous and ascending.
// `IfaceClasses` encodes exactly like the `BTreeMap<IfaceRef, IfaceClass>`
// it replaced — an element count followed by sorted `(key, value)` pairs —
// so snapshots are byte-compatible across the dense-layout change. The
// table is total over `(router, iface)` in order, which decode validates
// before rebuilding the flat layout; routers that appear in no pair decode
// as interface-less.
impl Snap for IfaceClasses {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for (iref, class) in self.iter() {
            iref.encode(w);
            class.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.len()?;
        let mut per_router: Vec<Vec<IfaceClass>> = Vec::new();
        for _ in 0..n {
            let iref = IfaceRef::decode(r)?;
            let class = IfaceClass::decode(r)?;
            if iref.router.0 >= per_router.len() {
                // Bound the resize so a corrupted router index cannot
                // trigger a huge allocation (2^24 routers is far beyond
                // any corpus this format will ever hold).
                if iref.router.0 >= (1 << 24) {
                    return Err(DecodeError::new("interface class router index too large"));
                }
                per_router.resize_with(iref.router.0 + 1, Vec::new);
            } else if iref.router.0 + 1 < per_router.len() {
                return Err(DecodeError::new("interface classes out of router order"));
            }
            let slots = &mut per_router[iref.router.0];
            if iref.iface != slots.len() {
                return Err(DecodeError::new("interface classes not contiguous"));
            }
            slots.push(class);
        }
        Ok(IfaceClasses::from_per_router(per_router))
    }
}

snap_struct!(MissingRouterHint { iface, subnet, block });
snap_struct!(ExternalAnalysis { classes, external_subnets, missing_router_hints });

// ---------------------------------------------------------------------------
// routing-model

snap_enum!(ProtoKind { 0 => Ospf, 1 => Eigrp, 2 => Igrp, 3 => Rip, 4 => Bgp });
snap_enum!(Proto { 0 => Ospf(id), 1 => Eigrp(asn), 2 => Igrp(asn), 3 => Rip, 4 => Bgp(asn) });
snap_struct!(ProcKey { router, proto });
snap_struct!(RoutingProcess { key, covered_ifaces, passive_ifaces, redistributes });

// Hand-written: `Processes::from_list` rebuilds the key index.
impl Snap for Processes {
    fn encode(&self, w: &mut Writer) {
        self.list.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Processes::from_list(Vec::decode(r)?))
    }
}

snap_struct!(InstanceId(index));
snap_struct!(RoutingInstance { id, kind, asn, processes, routers });

// Hand-written: `Instances::from_list` rebuilds the membership index.
impl Snap for Instances {
    fn encode(&self, w: &mut Writer) {
        self.list.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Instances::from_list(Vec::decode(r)?))
    }
}

snap_enum!(SessionScope { 0 => Ibgp, 1 => EbgpInternal, 2 => EbgpExternal });
snap_struct!(IgpAdjacency { a, b, subnet });
snap_struct!(BgpSession { local, peer, peer_addr, remote_as, scope });
snap_struct!(Adjacencies { igp, bgp, igp_external });

snap_enum!(InstanceNode { 0 => Instance(id), 1 => ExternalAs(asn), 2 => ExternalWorld });
snap_enum!(ExchangeKind {
    0 => Redistribution { router, policy },
    1 => Ebgp { router },
    2 => IgpEdge { router },
});
snap_struct!(InstanceEdge { from, to, kind });
snap_struct!(InstanceGraph { nodes, edges });

snap_enum!(RibNode { 0 => Process(key), 1 => Local(router), 2 => RouterRib(router) });
snap_enum!(EdgeKind { 0 => Adjacency, 1 => Session(scope), 2 => Redistribution, 3 => Selection });
snap_struct!(ProcessEdge { from, to, kind, policy });
snap_struct!(ProcessGraph { nodes, edges });
snap_enum!(DesignClass {
    0 => Backbone,
    1 => Enterprise,
    2 => Tier2,
    3 => NoBgp,
    4 => Unclassifiable,
});
snap_struct!(DesignSummary {
    class,
    routers,
    bgp_speakers,
    internal_ases,
    ibgp_sessions,
    external_ebgp_sessions,
    internal_ebgp_sessions,
    igp_instances,
    staging_instances,
    bgp_into_igp,
    total_instances,
});
snap_struct!(RoleCounts { intra, inter });

/// Table 1 row labels, for interning the `&'static str` map keys.
const KNOWN_LABELS: &[&str] = &["OSPF", "EIGRP", "RIP", "BGP"];

// Hand-written: the row labels are `&'static str` keys, interned on decode.
impl Snap for Table1 {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.igp_instances.len() as u64);
        for (label, counts) in &self.igp_instances {
            w.string(label);
            counts.encode(w);
        }
        self.ebgp_sessions.encode(w);
        self.ibgp_sessions.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.len()?;
        let mut igp_instances = BTreeMap::new();
        for _ in 0..n {
            let label = intern_static(r.string()?, KNOWN_LABELS);
            igp_instances.insert(label, RoleCounts::decode(r)?);
        }
        Ok(Table1 {
            igp_instances,
            ebgp_sessions: RoleCounts::decode(r)?,
            ibgp_sessions: usize::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `value` to exactly `bytes`, and checks that `bytes` decode
    /// to a value that re-encodes to the same bytes.
    fn pin<T: Snap>(value: T, bytes: &[u8]) {
        let mut w = Writer::new();
        value.encode(&mut w);
        assert_eq!(w.into_bytes(), bytes);
        let mut r = Reader::new(bytes);
        let back = T::decode(&mut r).unwrap_or_else(|e| panic!("{bytes:?}: {e}"));
        assert!(r.is_at_end(), "{bytes:?} decodes with bytes left over");
        let mut w = Writer::new();
        back.encode(&mut w);
        assert_eq!(w.into_bytes(), bytes);
    }

    /// Decoding the lone tag byte `tag` fails with `message`.
    fn unused_tag<T: Snap>(tag: u8, message: &str) {
        match T::decode(&mut Reader::new(&[tag])) {
            Ok(_) => panic!("tag {tag} decoded: {message}"),
            Err(e) => assert_eq!(e.message, message),
        }
    }

    /// One value per variant of every `snap_enum!` type, against the bytes
    /// of the hand-written codec the declarations replaced: a changed tag
    /// or field order fails here before it reaches a snapshot.
    #[test]
    fn every_enum_variant_encodes_to_pinned_bytes() {
        use InterfaceType as I;
        let a = Addr::from_u32(0x0a00_0001);
        pin(I::Serial, &[0]);
        pin(I::FastEthernet, &[1]);
        pin(I::Atm, &[2]);
        pin(I::Pos, &[3]);
        pin(I::Ethernet, &[4]);
        pin(I::Hssi, &[5]);
        pin(I::GigabitEthernet, &[6]);
        pin(I::TokenRing, &[7]);
        pin(I::Dialer, &[8]);
        pin(I::Bri, &[9]);
        pin(I::Tunnel, &[10]);
        pin(I::PortChannel, &[11]);
        pin(I::Async, &[12]);
        pin(I::Virtual, &[13]);
        pin(I::Channel, &[14]);
        pin(I::Cbr, &[15]);
        pin(I::Fddi, &[16]);
        pin(I::Multilink, &[17]);
        pin(I::Null, &[18]);
        pin(I::Loopback, &[19]);
        pin(I::Other("Vlan".to_string()), &[20, 4, 86, 108, 97, 110]);
        unused_tag::<InterfaceType>(21, "invalid InterfaceType tag 21");

        pin(RedistSource::Connected, &[0]);
        pin(RedistSource::Static, &[1]);
        pin(RedistSource::Ospf(1), &[2, 1]);
        pin(RedistSource::Eigrp(300), &[3, 172, 2]);
        pin(RedistSource::Igrp(7), &[4, 7]);
        pin(RedistSource::Rip, &[5]);
        pin(RedistSource::Bgp(65000), &[6, 232, 251, 3]);
        unused_tag::<RedistSource>(7, "invalid RedistSource tag 7");

        let serial = InterfaceName { ty: I::Serial, unit: "0/1".to_string() };
        pin(StaticTarget::NextHop(a), &[0, 129, 128, 128, 80]);
        pin(StaticTarget::Interface(serial), &[1, 0, 3, 48, 47, 49]);
        unused_tag::<StaticTarget>(2, "invalid StaticTarget tag 2");

        pin(AclAction::Permit, &[0]);
        pin(AclAction::Deny, &[1]);
        unused_tag::<AclAction>(2, "invalid AclAction tag 2");

        pin(AclAddr::Any, &[0]);
        pin(AclAddr::Host(a), &[1, 129, 128, 128, 80]);
        pin(AclAddr::Wild(a, Wildcard::from_bits(255)), &[2, 129, 128, 128, 80, 255, 1]);
        unused_tag::<AclAddr>(3, "invalid AclAddr tag 3");

        pin(PortMatch::Eq(80), &[0, 80]);
        pin(PortMatch::Lt(1024), &[1, 128, 8]);
        pin(PortMatch::Gt(49151), &[2, 255, 255, 2]);
        pin(PortMatch::Range(20, 21), &[3, 20, 21]);
        unused_tag::<PortMatch>(4, "invalid PortMatch tag 4");

        let standard = AclEntry::Standard { action: AclAction::Deny, addr: AclAddr::Host(a) };
        pin(standard, &[0, 1, 1, 129, 128, 128, 80]);
        let extended = AclEntry::Extended {
            action: AclAction::Permit,
            protocol: "tcp".to_string(),
            src: AclAddr::Any,
            src_port: None,
            dst: AclAddr::Host(a),
            dst_port: Some(PortMatch::Eq(179)),
            established: true,
        };
        pin(extended, &[1, 0, 3, 116, 99, 112, 0, 0, 1, 129, 128, 128, 80, 1, 0, 179, 1, 1]);
        unused_tag::<AclEntry>(2, "invalid AclEntry tag 2");

        pin(RmMatch::IpAddress(vec![10, 20]), &[0, 2, 10, 20]);
        pin(RmMatch::Tag(vec![300]), &[1, 1, 172, 2]);
        pin(RmMatch::AsPath(5), &[2, 5]);
        pin(RmMatch::Community(6), &[3, 6]);
        unused_tag::<RmMatch>(4, "invalid RmMatch tag 4");

        pin(RmSet::Metric(1000), &[0, 232, 7]);
        pin(RmSet::MetricType(1), &[1, 1]);
        pin(RmSet::Tag(99), &[2, 99]);
        pin(RmSet::LocalPreference(200), &[3, 200, 1]);
        pin(RmSet::Weight(50), &[4, 50]);
        pin(RmSet::Community("65000:1".to_string()), &[5, 7, 54, 53, 48, 48, 48, 58, 49]);
        unused_tag::<RmSet>(6, "invalid RmSet tag 6");

        pin(rd_obs::Severity::Info, &[0]);
        pin(rd_obs::Severity::Warning, &[1]);
        pin(rd_obs::Severity::Error, &[2]);
        unused_tag::<rd_obs::Severity>(3, "invalid rd_obs::Severity tag 3");

        pin(IfaceClass::Internal, &[0]);
        pin(IfaceClass::External, &[1]);
        pin(IfaceClass::Unaddressed, &[2]);
        unused_tag::<IfaceClass>(3, "invalid IfaceClass tag 3");

        pin(ProtoKind::Ospf, &[0]);
        pin(ProtoKind::Eigrp, &[1]);
        pin(ProtoKind::Igrp, &[2]);
        pin(ProtoKind::Rip, &[3]);
        pin(ProtoKind::Bgp, &[4]);
        unused_tag::<ProtoKind>(5, "invalid ProtoKind tag 5");

        pin(Proto::Ospf(1), &[0, 1]);
        pin(Proto::Eigrp(100), &[1, 100]);
        pin(Proto::Igrp(200), &[2, 200, 1]);
        pin(Proto::Rip, &[3]);
        pin(Proto::Bgp(65000), &[4, 232, 251, 3]);
        unused_tag::<Proto>(5, "invalid Proto tag 5");

        pin(SessionScope::Ibgp, &[0]);
        pin(SessionScope::EbgpInternal, &[1]);
        pin(SessionScope::EbgpExternal, &[2]);
        unused_tag::<SessionScope>(3, "invalid SessionScope tag 3");

        pin(InstanceNode::Instance(InstanceId(3)), &[0, 3]);
        pin(InstanceNode::ExternalAs(7018), &[1, 234, 54]);
        pin(InstanceNode::ExternalWorld, &[2]);
        unused_tag::<InstanceNode>(3, "invalid InstanceNode tag 3");

        let policy = Some("rm".to_string());
        let redistribution = ExchangeKind::Redistribution { router: RouterId(2), policy };
        pin(redistribution, &[0, 2, 1, 2, 114, 109]);
        pin(ExchangeKind::Ebgp { router: RouterId(4) }, &[1, 4]);
        pin(ExchangeKind::IgpEdge { router: RouterId(5) }, &[2, 5]);
        unused_tag::<ExchangeKind>(3, "invalid ExchangeKind tag 3");

        let key = ProcKey { router: RouterId(1), proto: Proto::Rip };
        pin(RibNode::Process(key), &[0, 1, 3]);
        pin(RibNode::Local(RouterId(2)), &[1, 2]);
        pin(RibNode::RouterRib(RouterId(3)), &[2, 3]);
        unused_tag::<RibNode>(3, "invalid RibNode tag 3");

        pin(EdgeKind::Adjacency, &[0]);
        pin(EdgeKind::Session(SessionScope::EbgpExternal), &[1, 2]);
        pin(EdgeKind::Redistribution, &[2]);
        pin(EdgeKind::Selection, &[3]);
        unused_tag::<EdgeKind>(4, "invalid EdgeKind tag 4");

        pin(DesignClass::Backbone, &[0]);
        pin(DesignClass::Enterprise, &[1]);
        pin(DesignClass::Tier2, &[2]);
        pin(DesignClass::NoBgp, &[3]);
        pin(DesignClass::Unclassifiable, &[4]);
        unused_tag::<DesignClass>(5, "invalid DesignClass tag 5");
    }

    /// A policy block with one entry in each of its four lists.
    fn policy(
        redist: Redistribution,
        dl_in: &DistributeList,
        dl_out: &DistributeList,
        passive: &InterfaceName,
    ) -> IgpPolicy {
        IgpPolicy {
            redistribute: vec![redist],
            distribute_in: vec![dl_in.clone()],
            distribute_out: vec![dl_out.clone()],
            passive: vec![passive.clone()],
        }
    }

    /// One process of each IGP with all four policy lists non-empty,
    /// against the bytes of the codec from before the lists moved into
    /// [`IgpPolicy`]: the nested block must encode as the flat fields did.
    #[test]
    fn igp_processes_encode_to_pinned_bytes() {
        let a = Addr::from_u32(0x0a00_0001);
        let serial = InterfaceName { ty: InterfaceType::Serial, unit: "0/1".to_string() };
        let ether = InterfaceName { ty: InterfaceType::Ethernet, unit: "0".to_string() };
        let scoped = DistributeList { acl: 44, interface: Some(serial.clone()) };
        let global = DistributeList { acl: 45, interface: None };

        let mut ospf = OspfProcess::new(64);
        let wildcard = Wildcard::from_bits(255);
        ospf.networks.push(OspfNetwork { addr: a, wildcard, area: OspfArea(11) });
        let redist = Redistribution {
            source: RedistSource::Bgp(65000),
            metric: Some(20),
            metric_type: Some(1),
            subnets: true,
            route_map: Some("rm".to_string()),
            tag: Some(7),
        };
        ospf.policy = policy(redist, &scoped, &global, &ether);
        ospf.default_information = true;
        pin(
            ospf,
            &[
                64, 1, 129, 128, 128, 80, 255, 1, 11, 1, 6, 232, 251, 3, 1, 20, 1, 1, 1, 1, 2,
                114, 109, 1, 7, 1, 44, 1, 0, 3, 48, 47, 49, 1, 45, 0, 1, 4, 1, 48, 1,
            ],
        );

        let mut eigrp = EigrpProcess::new(100);
        eigrp.networks.push(EigrpNetwork { addr: a, wildcard: None });
        eigrp.policy =
            policy(Redistribution::plain(RedistSource::Static), &global, &scoped, &serial);
        eigrp.no_auto_summary = true;
        let mut igrp = eigrp.clone();
        igrp.asn = 10;
        igrp.is_igrp = true;
        igrp.policy.redistribute[0] = Redistribution::plain(RedistSource::Eigrp(100));
        pin(
            eigrp,
            &[
                100, 0, 1, 129, 128, 128, 80, 0, 1, 1, 0, 0, 0, 0, 0, 1, 45, 0, 1, 44, 1, 0, 3,
                48, 47, 49, 1, 0, 3, 48, 47, 49, 1,
            ],
        );
        pin(
            igrp,
            &[
                10, 1, 1, 129, 128, 128, 80, 0, 1, 3, 100, 0, 0, 0, 0, 0, 1, 45, 0, 1, 44, 1, 0,
                3, 48, 47, 49, 1, 0, 3, 48, 47, 49, 1,
            ],
        );

        let mut rip = RipProcess::new();
        rip.version = Some(2);
        rip.networks.push(a);
        let connected = Redistribution::plain(RedistSource::Connected);
        rip.policy = policy(connected, &scoped, &global, &ether);
        pin(
            rip,
            &[
                1, 2, 1, 129, 128, 128, 80, 1, 0, 0, 0, 0, 0, 0, 1, 44, 1, 0, 3, 48, 47, 49, 1,
                45, 0, 1, 4, 1, 48,
            ],
        );
    }
}
