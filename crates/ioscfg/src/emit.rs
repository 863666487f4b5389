//! Canonical serialization of the typed model back to IOS text.
//!
//! `netgen` uses this to produce the synthetic corpus; round-trip property
//! tests (`emit` → [`crate::parse_config`] → compare models) pin the parser
//! and emitter against each other. Output follows `show running-config`
//! conventions: one-space indentation for mode sub-commands and `!`
//! separators between sections.

use std::fmt::Write as _;

use crate::model::{
    AclEntry, BgpProcess, EigrpProcess, Igp, IgpPolicy, Interface, OspfProcess, Redistribution,
    RipProcess, RouteMap, RouterConfig, StaticRoute,
};

/// Renders a full configuration file.
pub fn emit_config(cfg: &RouterConfig) -> String {
    let mut out = String::new();
    out.push_str("version 12.2\nservice timestamps log datetime\n!\n");
    if let Some(hostname) = &cfg.hostname {
        let _ = writeln!(out, "hostname {hostname}");
        out.push_str("!\n");
    }
    for iface in &cfg.interfaces {
        emit_interface(&mut out, iface);
        out.push_str("!\n");
    }
    for ospf in &cfg.ospf {
        emit_ospf(&mut out, ospf);
        out.push_str("!\n");
    }
    for eigrp in &cfg.eigrp {
        emit_eigrp(&mut out, eigrp);
        out.push_str("!\n");
    }
    if let Some(rip) = &cfg.rip {
        emit_rip(&mut out, rip);
        out.push_str("!\n");
    }
    if let Some(bgp) = &cfg.bgp {
        emit_bgp(&mut out, bgp);
        out.push_str("!\n");
    }
    for route in &cfg.static_routes {
        emit_static(&mut out, route);
    }
    if !cfg.static_routes.is_empty() {
        out.push_str("!\n");
    }
    for acl in cfg.access_lists.values() {
        for entry in &acl.entries {
            emit_acl_entry(&mut out, acl.id, entry);
        }
    }
    if !cfg.access_lists.is_empty() {
        out.push_str("!\n");
    }
    for map in cfg.route_maps.values() {
        emit_route_map(&mut out, map);
    }
    out.push_str("end\n");
    out
}

fn emit_interface(out: &mut String, iface: &Interface) {
    let _ = write!(out, "interface {}", iface.name);
    if iface.point_to_point {
        out.push_str(" point-to-point");
    }
    out.push('\n');
    if let Some(desc) = &iface.description {
        let _ = writeln!(out, " description {desc}");
    }
    if let Some(bw) = iface.bandwidth_kbps {
        let _ = writeln!(out, " bandwidth {bw}");
    }
    match (&iface.address, &iface.unnumbered) {
        (Some(a), _) => {
            let _ = writeln!(out, " ip address {a}");
        }
        (None, Some(other)) => {
            let _ = writeln!(out, " ip unnumbered {other}");
        }
        (None, None) => out.push_str(" no ip address\n"),
    }
    for sec in &iface.secondary {
        let _ = writeln!(out, " ip address {sec} secondary");
    }
    if let Some(acl) = iface.access_group_in {
        let _ = writeln!(out, " ip access-group {acl} in");
    }
    if let Some(acl) = iface.access_group_out {
        let _ = writeln!(out, " ip access-group {acl} out");
    }
    if let Some(encap) = &iface.encapsulation {
        let _ = writeln!(out, " encapsulation {encap}");
    }
    if let Some(dlci) = iface.frame_relay_dlci {
        let _ = writeln!(out, " frame-relay interface-dlci {dlci}");
    }
    if iface.shutdown {
        out.push_str(" shutdown\n");
    }
}

fn emit_redistribute(out: &mut String, redistribute: &[Redistribution]) {
    for r in redistribute {
        let _ = write!(out, " redistribute {}", r.source);
        if let Some(m) = r.metric {
            let _ = write!(out, " metric {m}");
        }
        if let Some(t) = r.metric_type {
            let _ = write!(out, " metric-type {t}");
        }
        if r.subnets {
            out.push_str(" subnets");
        }
        if let Some(tag) = r.tag {
            let _ = write!(out, " tag {tag}");
        }
        if let Some(map) = &r.route_map {
            let _ = write!(out, " route-map {map}");
        }
        out.push('\n');
    }
}

/// The passive-interface and distribute-list lines of an IGP stanza,
/// which follow its `network` statements.
fn emit_filters(out: &mut String, policy: &IgpPolicy) {
    for p in &policy.passive {
        let _ = writeln!(out, " passive-interface {p}");
    }
    for (dir, lists) in [("in", &policy.distribute_in), ("out", &policy.distribute_out)] {
        for dl in lists {
            let _ = write!(out, " distribute-list {} {dir}", dl.acl);
            if let Some(iface) = &dl.interface {
                let _ = write!(out, " {iface}");
            }
            out.push('\n');
        }
    }
}

fn emit_ospf(out: &mut String, p: &OspfProcess) {
    let _ = writeln!(out, "{}", Igp::Ospf(p));
    emit_redistribute(out, &p.policy.redistribute);
    for n in &p.networks {
        let _ = writeln!(out, " network {} {} area {}", n.addr, n.wildcard, n.area);
    }
    emit_filters(out, &p.policy);
    if p.default_information {
        out.push_str(" default-information originate\n");
    }
}

fn emit_eigrp(out: &mut String, p: &EigrpProcess) {
    let _ = writeln!(out, "{}", Igp::Eigrp(p));
    emit_redistribute(out, &p.policy.redistribute);
    for n in &p.networks {
        match n.wildcard {
            Some(w) => {
                let _ = writeln!(out, " network {} {w}", n.addr);
            }
            None => {
                let _ = writeln!(out, " network {}", n.addr);
            }
        }
    }
    emit_filters(out, &p.policy);
    if p.no_auto_summary {
        out.push_str(" no auto-summary\n");
    }
}

fn emit_rip(out: &mut String, p: &RipProcess) {
    let _ = writeln!(out, "{}", Igp::Rip(p));
    if let Some(v) = p.version {
        let _ = writeln!(out, " version {v}");
    }
    emit_redistribute(out, &p.policy.redistribute);
    for n in &p.networks {
        let _ = writeln!(out, " network {n}");
    }
    emit_filters(out, &p.policy);
}

fn emit_bgp(out: &mut String, p: &BgpProcess) {
    let _ = writeln!(out, "router bgp {}", p.asn);
    if p.no_synchronization {
        out.push_str(" no synchronization\n");
    }
    if let Some(id) = p.router_id {
        let _ = writeln!(out, " bgp router-id {id}");
    }
    emit_redistribute(out, &p.redistribute);
    for (addr, mask) in &p.networks {
        match mask {
            Some(m) => {
                let _ = writeln!(out, " network {addr} mask {m}");
            }
            None => {
                let _ = writeln!(out, " network {addr}");
            }
        }
    }
    for n in &p.neighbors {
        if let Some(asn) = n.remote_as {
            let _ = writeln!(out, " neighbor {} remote-as {asn}", n.addr);
        }
        if let Some(desc) = &n.description {
            let _ = writeln!(out, " neighbor {} description {desc}", n.addr);
        }
        if let Some(src) = &n.update_source {
            let _ = writeln!(out, " neighbor {} update-source {src}", n.addr);
        }
        if n.next_hop_self {
            let _ = writeln!(out, " neighbor {} next-hop-self", n.addr);
        }
        if n.route_reflector_client {
            let _ = writeln!(out, " neighbor {} route-reflector-client", n.addr);
        }
        if n.send_community {
            let _ = writeln!(out, " neighbor {} send-community", n.addr);
        }
        if let Some(map) = &n.route_map_in {
            let _ = writeln!(out, " neighbor {} route-map {map} in", n.addr);
        }
        if let Some(map) = &n.route_map_out {
            let _ = writeln!(out, " neighbor {} route-map {map} out", n.addr);
        }
        if let Some(acl) = n.distribute_in {
            let _ = writeln!(out, " neighbor {} distribute-list {acl} in", n.addr);
        }
        if let Some(acl) = n.distribute_out {
            let _ = writeln!(out, " neighbor {} distribute-list {acl} out", n.addr);
        }
    }
}

fn emit_static(out: &mut String, r: &StaticRoute) {
    let _ = write!(out, "ip route {} {} {}", r.dest, r.mask, r.target);
    if let Some(d) = r.distance {
        let _ = write!(out, " {d}");
    }
    if let Some(t) = r.tag {
        let _ = write!(out, " tag {t}");
    }
    out.push('\n');
}

fn emit_acl_entry(out: &mut String, id: u32, e: &AclEntry) {
    match e {
        AclEntry::Standard { action, addr } => {
            let _ = writeln!(out, "access-list {id} {action} {addr}");
        }
        AclEntry::Extended { action, protocol, src, src_port, dst, dst_port, established } => {
            let _ = write!(out, "access-list {id} {action} {protocol} {src}");
            if let Some(p) = src_port {
                let _ = write!(out, " {p}");
            }
            let _ = write!(out, " {dst}");
            if let Some(p) = dst_port {
                let _ = write!(out, " {p}");
            }
            if *established {
                out.push_str(" established");
            }
            out.push('\n');
        }
    }
}

fn emit_route_map(out: &mut String, map: &RouteMap) {
    for clause in &map.clauses {
        let _ = writeln!(out, "route-map {} {} {}", map.name, clause.action, clause.seq);
        for m in &clause.matches {
            match m {
                crate::model::RmMatch::IpAddress(ids) => {
                    let list =
                        ids.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
                    let _ = writeln!(out, " match ip address {list}");
                }
                crate::model::RmMatch::Tag(tags) => {
                    let list =
                        tags.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(" ");
                    let _ = writeln!(out, " match tag {list}");
                }
                crate::model::RmMatch::AsPath(acl) => {
                    let _ = writeln!(out, " match as-path {acl}");
                }
                crate::model::RmMatch::Community(list) => {
                    let _ = writeln!(out, " match community {list}");
                }
            }
        }
        for s in &clause.sets {
            match s {
                crate::model::RmSet::Metric(n) => {
                    let _ = writeln!(out, " set metric {n}");
                }
                crate::model::RmSet::MetricType(t) => {
                    let _ = writeln!(out, " set metric-type type-{t}");
                }
                crate::model::RmSet::Tag(t) => {
                    let _ = writeln!(out, " set tag {t}");
                }
                crate::model::RmSet::LocalPreference(n) => {
                    let _ = writeln!(out, " set local-preference {n}");
                }
                crate::model::RmSet::Weight(n) => {
                    let _ = writeln!(out, " set weight {n}");
                }
                crate::model::RmSet::Community(v) => {
                    let _ = writeln!(out, " set community {v}");
                }
            }
        }
        out.push_str("!\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_config;

    #[test]
    fn emit_parse_roundtrip_of_rich_config() {
        let text = "\
hostname border-1
!
interface Serial1/0.5 point-to-point
 description link-to-core
 bandwidth 1544
 ip address 66.253.32.85 255.255.255.252
 ip access-group 143 in
 encapsulation frame-relay
 frame-relay interface-dlci 28
!
router ospf 128
 redistribute connected metric-type 1 subnets
 network 66.253.32.84 0.0.0.3 area 11
 distribute-list 44 in Serial1/0.5
!
router bgp 64780
 no synchronization
 redistribute ospf 128 route-map themap
 network 66.253.0.0 mask 255.255.0.0
 neighbor 66.253.160.68 remote-as 12762
 neighbor 66.253.160.68 route-map themap out
!
ip route 10.235.0.0 255.255.0.0 10.234.12.7 200 tag 5
!
access-list 143 deny 134.161.0.0 0.0.255.255
access-list 143 permit any
!
route-map themap permit 10
 match ip address 4
 set tag 100
";
        let model = parse_config(text).unwrap();
        let emitted = emit_config(&model);
        let reparsed = parse_config(&emitted).unwrap();
        assert_eq!(model, reparsed);
    }

    #[test]
    fn unaddressed_interface_emits_no_ip_address() {
        let model = parse_config("interface Null0\n no ip address\n").unwrap();
        let emitted = emit_config(&model);
        assert!(emitted.contains("interface Null0\n no ip address"));
        let reparsed = parse_config(&emitted).unwrap();
        assert_eq!(model, reparsed);
    }
}
