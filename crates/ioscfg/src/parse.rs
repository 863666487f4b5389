//! Tolerant parsing from the raw stanza tree to the typed model.
//!
//! Unknown commands are collected into [`RouterConfig::unparsed`]; malformed
//! arguments to *known* commands are hard [`ParseError`]s. This split
//! matches how a real corpus must be handled: the grammar will never cover
//! every IOS feature, but silently mis-reading a command the analyses rely
//! on would corrupt the extracted design.

use netaddr::{Addr, Netmask, Wildcard};

use crate::error::{ParseError, ParseErrorKind};
use crate::ifname::InterfaceName;
use crate::model::{
    AccessList, AclAction, AclAddr, AclEntry, BgpProcess, DistributeList, EigrpNetwork,
    EigrpProcess, IfAddr, IgpPolicy, Interface, OspfArea, OspfNetwork, OspfProcess, PortMatch,
    Redistribution, RedistSource, RouteMap, RouteMapClause, RouterConfig,
    RmMatch, RmSet, StaticRoute, StaticTarget,
};
use crate::raw::{lex_config, RawConfig, Stanza};

/// Parses IOS configuration text into the typed model.
pub fn parse_config(text: &str) -> Result<RouterConfig, ParseError> {
    parse_raw(&lex_config(text))
}

/// Parses an already-lexed configuration.
pub fn parse_raw(raw: &RawConfig<'_>) -> Result<RouterConfig, ParseError> {
    let mut cfg = RouterConfig::default();
    for stanza in raw.stanzas() {
        match stanza.words() {
            ["hostname", name, ..] => cfg.hostname = Some(name.to_string()),
            ["interface", ..] => parse_interface(stanza, &mut cfg)?,
            ["router", "ospf", ..] => parse_ospf(stanza, &mut cfg)?,
            ["router", "eigrp", ..] => parse_eigrp(stanza, &mut cfg, false)?,
            ["router", "igrp", ..] => parse_eigrp(stanza, &mut cfg, true)?,
            ["router", "rip", ..] => parse_rip(stanza, &mut cfg)?,
            ["router", "bgp", ..] => parse_bgp(stanza, &mut cfg)?,
            ["ip", "route", ..] => parse_static_route(stanza, &mut cfg)?,
            ["access-list", ..] => parse_access_list(stanza, &mut cfg)?,
            ["route-map", ..] => parse_route_map(stanza, &mut cfg)?,
            // Common commands that carry no routing-design information are
            // accepted silently rather than polluting `unparsed`.
            ["version", ..] | ["ip", "classless"] | ["ip", "subnet-zero"]
            | ["service", ..] | ["no", ..] | ["boot", ..] | ["logging", ..]
            | ["snmp-server", ..] | ["line", ..] | ["banner", ..]
            | ["enable", ..] | ["clock", ..] | ["ntp", ..] => {}
            _ => record_unparsed(stanza, &mut cfg),
        }
    }
    // Clauses run in sequence-number order; a stable sort keeps clauses
    // with equal numbers in file order.
    for map in cfg.route_maps.values_mut() {
        map.clauses.sort_by_key(|c| c.seq);
    }
    Ok(cfg)
}

fn record_unparsed(stanza: Stanza<'_>, cfg: &mut RouterConfig) {
    cfg.unparsed.push((stanza.line(), stanza.text().to_string()));
    for child in stanza.children() {
        record_unparsed(child, cfg);
    }
}

// ---------- shared field parsers ----------

fn err(stanza: Stanza<'_>, kind: ParseErrorKind) -> ParseError {
    ParseError { line: stanza.line(), command: stanza.text().to_string(), kind }
}

fn parse_addr(stanza: Stanza<'_>, text: &str) -> Result<Addr, ParseError> {
    text.parse()
        .map_err(|_| err(stanza, ParseErrorKind::BadAddress(text.to_string())))
}

fn parse_mask(stanza: Stanza<'_>, text: &str) -> Result<Netmask, ParseError> {
    text.parse()
        .map_err(|_| err(stanza, ParseErrorKind::BadMask(text.to_string())))
}

fn parse_wildcard(stanza: Stanza<'_>, text: &str) -> Result<Wildcard, ParseError> {
    text.parse()
        .map_err(|_| err(stanza, ParseErrorKind::BadMask(text.to_string())))
}

fn parse_num<T: std::str::FromStr>(stanza: Stanza<'_>, text: &str) -> Result<T, ParseError> {
    text.parse()
        .map_err(|_| err(stanza, ParseErrorKind::BadNumber(text.to_string())))
}

fn parse_ifname(stanza: Stanza<'_>, text: &str) -> Result<InterfaceName, ParseError> {
    text.parse()
        .map_err(|_| err(stanza, ParseErrorKind::BadInterfaceName(text.to_string())))
}

fn need<'a>(
    stanza: Stanza<'_>,
    words: &[&'a str],
    idx: usize,
    what: &'static str,
) -> Result<&'a str, ParseError> {
    words
        .get(idx)
        .copied()
        .ok_or_else(|| err(stanza, ParseErrorKind::MissingArgument(what)))
}

// ---------- interface ----------

fn parse_interface(stanza: Stanza<'_>, cfg: &mut RouterConfig) -> Result<(), ParseError> {
    let words = stanza.words();
    let name_text = need(stanza, words, 1, "interface name")?;
    let name = parse_ifname(stanza, name_text)?;
    let mut iface = Interface::new(name);
    iface.point_to_point = words.iter().any(|w| w.eq_ignore_ascii_case("point-to-point"));

    for child in stanza.children() {
        match child.words() {
            ["ip", "address", addr, mask, rest @ ..] => {
                let ifaddr = IfAddr {
                    addr: parse_addr(child, addr)?,
                    mask: parse_mask(child, mask)?,
                };
                if rest.first().is_some_and(|w| w.eq_ignore_ascii_case("secondary")) {
                    iface.secondary.push(ifaddr);
                } else {
                    iface.address = Some(ifaddr);
                }
            }
            ["ip", "unnumbered", other] => {
                iface.unnumbered = Some(parse_ifname(child, other)?);
            }
            ["ip", "access-group", acl, dir] => {
                let acl_id: u32 = parse_num(child, acl)?;
                match *dir {
                    "in" => iface.access_group_in = Some(acl_id),
                    "out" => iface.access_group_out = Some(acl_id),
                    other => {
                        return Err(err(
                            child,
                            ParseErrorKind::UnexpectedArgument(other.to_string()),
                        ))
                    }
                }
            }
            ["description", ..] => {
                iface.description =
                    Some(child.text().trim_start_matches("description").trim().to_string());
            }
            ["encapsulation", kind, ..] => iface.encapsulation = Some(kind.to_string()),
            ["frame-relay", "interface-dlci", dlci, ..] => {
                iface.frame_relay_dlci = Some(parse_num(child, dlci)?);
            }
            ["bandwidth", kbps] => iface.bandwidth_kbps = Some(parse_num(child, kbps)?),
            ["shutdown"] => iface.shutdown = true,
            ["no", "ip", "address"] => iface.address = None,
            ["no", ..] => {}
            _ => record_unparsed(child, cfg),
        }
    }
    cfg.interfaces.push(iface);
    Ok(())
}

// ---------- redistribution (shared by all process types) ----------

fn parse_redistribute(stanza: Stanza<'_>, words: &[&str]) -> Result<Redistribution, ParseError> {
    debug_assert!(words[0].eq_ignore_ascii_case("redistribute"));
    let source_word = need(stanza, words, 1, "redistribution source")?;
    let mut idx = 2;
    let source = match source_word {
        w if w.eq_ignore_ascii_case("connected") => RedistSource::Connected,
        w if w.eq_ignore_ascii_case("static") => RedistSource::Static,
        w if w.eq_ignore_ascii_case("rip") => RedistSource::Rip,
        w if w.eq_ignore_ascii_case("ospf") => {
            let id = parse_num(stanza, need(stanza, words, idx, "ospf pid")?)?;
            idx += 1;
            RedistSource::Ospf(id)
        }
        w if w.eq_ignore_ascii_case("eigrp") => {
            let asn = parse_num(stanza, need(stanza, words, idx, "eigrp asn")?)?;
            idx += 1;
            RedistSource::Eigrp(asn)
        }
        w if w.eq_ignore_ascii_case("igrp") => {
            let asn = parse_num(stanza, need(stanza, words, idx, "igrp asn")?)?;
            idx += 1;
            RedistSource::Igrp(asn)
        }
        w if w.eq_ignore_ascii_case("bgp") => {
            let asn = parse_num(stanza, need(stanza, words, idx, "bgp asn")?)?;
            idx += 1;
            RedistSource::Bgp(asn)
        }
        other => return Err(unexpected_lowercase(stanza, other)),
    };

    let mut redist = Redistribution::plain(source);
    while idx < words.len() {
        match words[idx] {
            w if w.eq_ignore_ascii_case("metric") => {
                idx += 1;
                redist.metric = Some(parse_num(stanza, need(stanza, words, idx, "metric")?)?);
            }
            w if w.eq_ignore_ascii_case("metric-type") => {
                idx += 1;
                redist.metric_type =
                    Some(parse_num(stanza, need(stanza, words, idx, "metric-type")?)?);
            }
            w if w.eq_ignore_ascii_case("subnets") => redist.subnets = true,
            w if w.eq_ignore_ascii_case("route-map") => {
                idx += 1;
                redist.route_map =
                    Some(need(stanza, words, idx, "route-map name")?.to_string());
            }
            w if w.eq_ignore_ascii_case("tag") => {
                idx += 1;
                redist.tag = Some(parse_num(stanza, need(stanza, words, idx, "tag")?)?);
            }
            // `match route-map X` appears in some BGP redistribute forms
            // (Fig. 2 line 25: "redistribute ospf 64 match route-map ...").
            w if w.eq_ignore_ascii_case("match") => {}
            other => return Err(unexpected_lowercase(stanza, other)),
        }
        idx += 1;
    }
    Ok(redist)
}

/// The error for a word `redistribute` does not take, naming the word in
/// lower case.
fn unexpected_lowercase(stanza: Stanza<'_>, word: &str) -> ParseError {
    err(stanza, ParseErrorKind::UnexpectedArgument(word.to_ascii_lowercase()))
}

fn parse_distribute_list(
    stanza: Stanza<'_>,
    words: &[&str],
    policy: &mut IgpPolicy,
) -> Result<(), ParseError> {
    let acl: u32 = parse_num(stanza, need(stanza, words, 1, "acl number")?)?;
    let lists = match need(stanza, words, 2, "direction")? {
        "in" => &mut policy.distribute_in,
        "out" => &mut policy.distribute_out,
        other => {
            return Err(err(stanza, ParseErrorKind::UnexpectedArgument(other.to_string())))
        }
    };
    let interface = match words.get(3) {
        Some(text) => Some(parse_ifname(stanza, text)?),
        None => None,
    };
    lists.push(DistributeList { acl, interface });
    Ok(())
}

/// Parses one of the policy statements every IGP stanza shares into
/// `policy`; false when `words` is some other statement.
fn parse_policy(
    stanza: Stanza<'_>,
    words: &[&str],
    policy: &mut IgpPolicy,
) -> Result<bool, ParseError> {
    match words {
        ["redistribute", ..] => policy.redistribute.push(parse_redistribute(stanza, words)?),
        ["distribute-list", ..] => parse_distribute_list(stanza, words, policy)?,
        ["passive-interface", name] => policy.passive.push(parse_ifname(stanza, name)?),
        _ => return Ok(false),
    }
    Ok(true)
}

// ---------- OSPF ----------

fn parse_ospf(stanza: Stanza<'_>, cfg: &mut RouterConfig) -> Result<(), ParseError> {
    let words = stanza.words();
    let id: u32 = parse_num(stanza, need(stanza, words, 2, "ospf pid")?)?;
    let mut proc = OspfProcess::new(id);

    for child in stanza.children() {
        let cw = child.words();
        if parse_policy(child, cw, &mut proc.policy)? {
            continue;
        }
        match cw {
            ["network", addr, wildcard, "area", area] => {
                proc.networks.push(OspfNetwork {
                    addr: parse_addr(child, addr)?,
                    wildcard: parse_wildcard(child, wildcard)?,
                    area: parse_area(child, area)?,
                });
            }
            ["default-information", "originate", ..] => proc.default_information = true,
            ["router-id", ..] | ["area", ..] | ["maximum-paths", ..] | ["no", ..]
            | ["auto-cost", ..] | ["timers", ..] | ["log-adjacency-changes", ..] => {}
            _ => record_unparsed(child, cfg),
        }
    }
    if cfg.ospf.iter().any(|p| p.id == id) {
        return Err(err(stanza, ParseErrorKind::Conflict(format!("duplicate router ospf {id}"))));
    }
    cfg.ospf.push(proc);
    Ok(())
}

fn parse_area(stanza: Stanza<'_>, text: &str) -> Result<OspfArea, ParseError> {
    if let Ok(n) = text.parse::<u32>() {
        return Ok(OspfArea(n));
    }
    // Dotted-quad area ids are permitted by IOS.
    let addr: Addr = text
        .parse()
        .map_err(|_| err(stanza, ParseErrorKind::BadNumber(text.to_string())))?;
    Ok(OspfArea(addr.to_u32()))
}

// ---------- EIGRP / IGRP ----------

fn parse_eigrp(stanza: Stanza<'_>, cfg: &mut RouterConfig, is_igrp: bool) -> Result<(), ParseError> {
    let words = stanza.words();
    let asn: u32 = parse_num(stanza, need(stanza, words, 2, "asn")?)?;
    let mut proc = EigrpProcess::new(asn);
    proc.is_igrp = is_igrp;

    for child in stanza.children() {
        let cw = child.words();
        if parse_policy(child, cw, &mut proc.policy)? {
            continue;
        }
        match cw {
            ["network", addr] => {
                proc.networks
                    .push(EigrpNetwork { addr: parse_addr(child, addr)?, wildcard: None });
            }
            ["network", addr, wildcard] => {
                proc.networks.push(EigrpNetwork {
                    addr: parse_addr(child, addr)?,
                    wildcard: Some(parse_wildcard(child, wildcard)?),
                });
            }
            ["no", "auto-summary"] => proc.no_auto_summary = true,
            ["no", ..] | ["eigrp", ..] | ["variance", ..] | ["default-metric", ..] => {}
            _ => record_unparsed(child, cfg),
        }
    }
    let kind = if is_igrp { "igrp" } else { "eigrp" };
    if cfg.eigrp.iter().any(|p| p.asn == asn && p.is_igrp == is_igrp) {
        return Err(err(
            stanza,
            ParseErrorKind::Conflict(format!("duplicate router {kind} {asn}")),
        ));
    }
    cfg.eigrp.push(proc);
    Ok(())
}

// ---------- RIP ----------

fn parse_rip(stanza: Stanza<'_>, cfg: &mut RouterConfig) -> Result<(), ParseError> {
    let mut proc = cfg.rip.take().unwrap_or_default();
    for child in stanza.children() {
        let cw = child.words();
        if parse_policy(child, cw, &mut proc.policy)? {
            continue;
        }
        match cw {
            ["version", v] => proc.version = Some(parse_num(child, v)?),
            ["network", addr] => proc.networks.push(parse_addr(child, addr)?),
            ["no", ..] | ["default-metric", ..] | ["timers", ..] => {}
            _ => record_unparsed(child, cfg),
        }
    }
    cfg.rip = Some(proc);
    Ok(())
}

// ---------- BGP ----------

fn parse_bgp(stanza: Stanza<'_>, cfg: &mut RouterConfig) -> Result<(), ParseError> {
    let words = stanza.words();
    let asn: u32 = parse_num(stanza, need(stanza, words, 2, "asn")?)?;
    if let Some(existing) = &cfg.bgp {
        if existing.asn != asn {
            return Err(err(
                stanza,
                ParseErrorKind::Conflict(format!(
                    "router bgp {asn} conflicts with router bgp {}",
                    existing.asn
                )),
            ));
        }
    }
    let mut proc = cfg.bgp.take().unwrap_or_else(|| BgpProcess::new(asn));

    for child in stanza.children() {
        let cw = child.words();
        match cw {
            ["bgp", "router-id", addr] => proc.router_id = Some(parse_addr(child, addr)?),
            ["network", addr] => proc.networks.push((parse_addr(child, addr)?, None)),
            ["network", addr, "mask", mask] => proc
                .networks
                .push((parse_addr(child, addr)?, Some(parse_mask(child, mask)?))),
            ["redistribute", ..] => proc.redistribute.push(parse_redistribute(child, cw)?),
            ["no", "synchronization"] => proc.no_synchronization = true,
            ["neighbor", addr, rest @ ..] => {
                let peer = parse_addr(child, addr)?;
                let n = proc.neighbor_mut(peer);
                match rest {
                    ["remote-as", asn_text] => n.remote_as = Some(parse_num(child, asn_text)?),
                    ["description", ..] => {
                        n.description = Some(rest[1..].join(" "));
                    }
                    ["update-source", ifname] => {
                        n.update_source = Some(parse_ifname(child, ifname)?)
                    }
                    ["next-hop-self"] => n.next_hop_self = true,
                    ["route-reflector-client"] => n.route_reflector_client = true,
                    ["send-community", ..] => n.send_community = true,
                    ["route-map", name, "in"] => n.route_map_in = Some(name.to_string()),
                    ["route-map", name, "out"] => n.route_map_out = Some(name.to_string()),
                    ["distribute-list", acl, "in"] => {
                        n.distribute_in = Some(parse_num(child, acl)?)
                    }
                    ["distribute-list", acl, "out"] => {
                        n.distribute_out = Some(parse_num(child, acl)?)
                    }
                    ["soft-reconfiguration", ..] | ["version", ..] | ["timers", ..] => {}
                    _ => record_unparsed(child, cfg),
                }
            }
            ["bgp", ..] | ["no", ..] | ["timers", ..] => {}
            _ => record_unparsed(child, cfg),
        }
    }
    cfg.bgp = Some(proc);
    Ok(())
}

// ---------- static routes ----------

fn parse_static_route(stanza: Stanza<'_>, cfg: &mut RouterConfig) -> Result<(), ParseError> {
    let words = stanza.words();
    let dest = parse_addr(stanza, need(stanza, words, 2, "destination")?)?;
    let mask = parse_mask(stanza, need(stanza, words, 3, "mask")?)?;
    let target_text = need(stanza, words, 4, "next hop")?;
    let target = match target_text.parse::<Addr>() {
        Ok(a) => StaticTarget::NextHop(a),
        Err(_) => StaticTarget::Interface(parse_ifname(stanza, target_text)?),
    };
    let mut route = StaticRoute { dest, mask, target, distance: None, tag: None };
    let mut idx = 5;
    while idx < words.len() {
        match words[idx] {
            "tag" => {
                idx += 1;
                route.tag = Some(parse_num(stanza, need(stanza, words, idx, "tag")?)?);
            }
            other => {
                if let Ok(d) = other.parse::<u8>() {
                    route.distance = Some(d);
                } else {
                    return Err(err(
                        stanza,
                        ParseErrorKind::UnexpectedArgument(other.to_string()),
                    ));
                }
            }
        }
        idx += 1;
    }
    cfg.static_routes.push(route);
    Ok(())
}

// ---------- access lists ----------

fn parse_acl_action(stanza: Stanza<'_>, text: &str) -> Result<AclAction, ParseError> {
    match text {
        "permit" => Ok(AclAction::Permit),
        "deny" => Ok(AclAction::Deny),
        other => Err(err(stanza, ParseErrorKind::UnexpectedArgument(other.to_string()))),
    }
}

/// Parses an address matcher, consuming 1 (`any`), 2 (`host A`), or 2
/// (`A W`) words; returns the matcher and words consumed.
fn parse_acl_addr(stanza: Stanza<'_>, words: &[&str]) -> Result<(AclAddr, usize), ParseError> {
    match words {
        ["any", ..] => Ok((AclAddr::Any, 1)),
        ["host", addr, ..] => Ok((AclAddr::Host(parse_addr(stanza, addr)?), 2)),
        [addr, wild, ..] => Ok((
            AclAddr::Wild(parse_addr(stanza, addr)?, parse_wildcard(stanza, wild)?),
            2,
        )),
        [addr] => Ok((AclAddr::Host(parse_addr(stanza, addr)?), 1)),
        [] => Err(err(stanza, ParseErrorKind::MissingArgument("acl address"))),
    }
}

/// Parses an optional port matcher; returns (match, words consumed).
fn parse_port_match(
    stanza: Stanza<'_>,
    words: &[&str],
) -> Result<(Option<PortMatch>, usize), ParseError> {
    match words {
        ["eq", p, ..] => Ok((Some(PortMatch::Eq(parse_num(stanza, p)?)), 2)),
        ["lt", p, ..] => Ok((Some(PortMatch::Lt(parse_num(stanza, p)?)), 2)),
        ["gt", p, ..] => Ok((Some(PortMatch::Gt(parse_num(stanza, p)?)), 2)),
        ["range", lo, hi, ..] => Ok((
            Some(PortMatch::Range(parse_num(stanza, lo)?, parse_num(stanza, hi)?)),
            3,
        )),
        _ => Ok((None, 0)),
    }
}

fn parse_access_list(stanza: Stanza<'_>, cfg: &mut RouterConfig) -> Result<(), ParseError> {
    let words = stanza.words();
    let id: u32 = parse_num(stanza, need(stanza, words, 1, "acl number")?)?;
    let action = parse_acl_action(stanza, need(stanza, words, 2, "permit/deny")?)?;
    let rest = &words[3..];

    // Numbers 1-99 are standard lists; 100-199 are extended. The paper's
    // Figure 2 nonetheless writes list 143 with standard (source-only)
    // syntax, so for the extended range we dispatch on whether the first
    // operand is a protocol keyword and fall back to standard parsing.
    const PROTOCOLS: &[&str] =
        &["ip", "tcp", "udp", "icmp", "pim", "igmp", "gre", "esp", "ahp", "ospf", "eigrp"];
    let extended = id >= 100
        && rest
            .first()
            .is_some_and(|w| PROTOCOLS.iter().any(|p| w.eq_ignore_ascii_case(p)));
    let entry = if !extended {
        let (addr, _) = parse_acl_addr(stanza, rest)?;
        AclEntry::Standard { action, addr }
    } else {
        let protocol = rest
            .first()
            .ok_or_else(|| err(stanza, ParseErrorKind::MissingArgument("protocol")))?
            .to_string();
        let mut pos = 1;
        let (src, used) = parse_acl_addr(stanza, &rest[pos..])?;
        pos += used;
        let (src_port, used) = parse_port_match(stanza, &rest[pos..])?;
        pos += used;
        let (dst, used) = parse_acl_addr(stanza, &rest[pos..])?;
        pos += used;
        let (dst_port, used) = parse_port_match(stanza, &rest[pos..])?;
        pos += used;
        let established = rest[pos..].contains(&"established");
        AclEntry::Extended { action, protocol, src, src_port, dst, dst_port, established }
    };

    cfg.access_lists.entry(id).or_insert_with(|| AccessList::new(id)).entries.push(entry);
    Ok(())
}

// ---------- route maps ----------

fn parse_route_map(stanza: Stanza<'_>, cfg: &mut RouterConfig) -> Result<(), ParseError> {
    let words = stanza.words();
    let name = need(stanza, words, 1, "route-map name")?.to_string();
    let action = match words.get(2) {
        Some(text) => parse_acl_action(stanza, text)?,
        None => AclAction::Permit,
    };
    let seq: u32 = match words.get(3) {
        Some(text) => parse_num(stanza, text)?,
        None => 10,
    };

    let mut clause = RouteMapClause { seq, action, matches: Vec::new(), sets: Vec::new() };
    for child in stanza.children() {
        match child.words() {
            ["match", "ip", "address", acls @ ..] => {
                let ids = acls
                    .iter()
                    .map(|t| parse_num(child, t))
                    .collect::<Result<Vec<u32>, _>>()?;
                clause.matches.push(RmMatch::IpAddress(ids));
            }
            ["match", "tag", tags @ ..] => {
                let ids = tags
                    .iter()
                    .map(|t| parse_num(child, t))
                    .collect::<Result<Vec<u32>, _>>()?;
                clause.matches.push(RmMatch::Tag(ids));
            }
            ["match", "as-path", acl] => {
                clause.matches.push(RmMatch::AsPath(parse_num(child, acl)?))
            }
            ["match", "community", list] => {
                clause.matches.push(RmMatch::Community(parse_num(child, list)?))
            }
            ["set", "metric", n] => clause.sets.push(RmSet::Metric(parse_num(child, n)?)),
            ["set", "metric-type", t] => {
                let ty = match *t {
                    "type-1" => 1,
                    "type-2" => 2,
                    other => parse_num(child, other)?,
                };
                clause.sets.push(RmSet::MetricType(ty));
            }
            ["set", "tag", n] => clause.sets.push(RmSet::Tag(parse_num(child, n)?)),
            ["set", "local-preference", n] => {
                clause.sets.push(RmSet::LocalPreference(parse_num(child, n)?))
            }
            ["set", "weight", n] => clause.sets.push(RmSet::Weight(parse_num(child, n)?)),
            ["set", "community", v, ..] => {
                clause.sets.push(RmSet::Community(v.to_string()))
            }
            _ => record_unparsed(child, cfg),
        }
    }

    let map = cfg
        .route_maps
        .entry(name.clone())
        .or_insert_with(|| RouteMap::new(name));
    map.clauses.push(clause);
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ifname::InterfaceType;

    /// The verbatim configlet from Figure 2 of the paper.
    pub(crate) const FIGURE2: &str = "\
interface Ethernet0
 ip address 66.251.75.144 255.255.255.128
 ip access-group 143 in
!
interface Serial1/0.5 point-to-point
 ip address 66.253.32.85 255.255.255.252
 ip access-group 143 in
 frame-relay interface-dlci 28
!
interface Hssi2/0 point-to-point
 ip address 66.253.160.67 255.255.255.252
!
router ospf 64
 redistribute connected metric-type 1 subnets
 redistribute bgp 64780 metric 1 subnets
 network 66.251.75.128 0.0.0.127 area 0
!
router ospf 128
 redistribute connected metric-type 1 subnets
 network 66.253.32.84 0.0.0.3 area 11
 distribute-list 44 in Serial1/0.5
 distribute-list 45 out
!
router bgp 64780
 redistribute ospf 64 match route-map 8aTzlvBrbaW
 neighbor 66.253.160.68 remote-as 12762
 neighbor 66.253.160.68 distribute-list 4 in
 neighbor 66.253.160.68 distribute-list 3 out
!
access-list 143 deny 134.161.0.0 0.0.255.255
access-list 143 permit any
route-map 8aTzlvBrbaW deny 10
 match ip address 4
route-map 8aTzlvBrbaW permit 20
 match ip address 7
ip route 10.235.240.71 255.255.0.0 10.234.12.7
";

    #[test]
    fn parses_figure2_interfaces() {
        let cfg = parse_config(FIGURE2).unwrap();
        assert_eq!(cfg.interfaces.len(), 3);
        let eth = &cfg.interfaces[0];
        assert_eq!(eth.name.ty, InterfaceType::Ethernet);
        assert_eq!(eth.address.unwrap().subnet().to_string(), "66.251.75.128/25");
        assert_eq!(eth.access_group_in, Some(143));
        let serial = &cfg.interfaces[1];
        assert!(serial.point_to_point);
        assert_eq!(serial.frame_relay_dlci, Some(28));
        assert_eq!(serial.address.unwrap().subnet().to_string(), "66.253.32.84/30");
        let hssi = &cfg.interfaces[2];
        assert_eq!(hssi.name.ty, InterfaceType::Hssi);
        assert_eq!(hssi.address.unwrap().subnet().to_string(), "66.253.160.64/30");
    }

    #[test]
    fn parses_figure2_ospf_processes() {
        let cfg = parse_config(FIGURE2).unwrap();
        assert_eq!(cfg.ospf.len(), 2);
        let ospf64 = &cfg.ospf[0];
        assert_eq!(ospf64.id, 64);
        assert_eq!(ospf64.policy.redistribute.len(), 2);
        assert_eq!(ospf64.policy.redistribute[0].source, RedistSource::Connected);
        assert_eq!(ospf64.policy.redistribute[0].metric_type, Some(1));
        assert!(ospf64.policy.redistribute[0].subnets);
        assert_eq!(ospf64.policy.redistribute[1].source, RedistSource::Bgp(64780));
        assert_eq!(ospf64.policy.redistribute[1].metric, Some(1));
        assert_eq!(ospf64.networks.len(), 1);
        assert_eq!(ospf64.networks[0].area, OspfArea(0));
        assert!(ospf64.covers("66.251.75.144".parse().unwrap()));

        let ospf128 = &cfg.ospf[1];
        assert_eq!(ospf128.id, 128);
        assert_eq!(ospf128.networks[0].area, OspfArea(11));
        assert_eq!(ospf128.policy.distribute_in.len(), 1);
        assert_eq!(ospf128.policy.distribute_in[0].acl, 44);
        assert_eq!(
            ospf128.policy.distribute_in[0].interface.as_ref().unwrap().to_string(),
            "Serial1/0.5"
        );
        assert_eq!(ospf128.policy.distribute_out.len(), 1);
        assert_eq!(ospf128.policy.distribute_out[0].acl, 45);
        assert!(ospf128.policy.distribute_out[0].interface.is_none());
    }

    #[test]
    fn parses_figure2_bgp() {
        let cfg = parse_config(FIGURE2).unwrap();
        let bgp = cfg.bgp.as_ref().unwrap();
        assert_eq!(bgp.asn, 64780);
        assert_eq!(bgp.redistribute.len(), 1);
        assert_eq!(bgp.redistribute[0].source, RedistSource::Ospf(64));
        assert_eq!(bgp.redistribute[0].route_map.as_deref(), Some("8aTzlvBrbaW"));
        assert_eq!(bgp.neighbors.len(), 1);
        let n = &bgp.neighbors[0];
        assert_eq!(n.addr.to_string(), "66.253.160.68");
        assert_eq!(n.remote_as, Some(12762));
        assert_eq!(n.distribute_in, Some(4));
        assert_eq!(n.distribute_out, Some(3));
        assert_eq!(bgp.ebgp_neighbors().count(), 1);
    }

    #[test]
    fn parses_figure2_policies_and_static() {
        let cfg = parse_config(FIGURE2).unwrap();
        let acl = &cfg.access_lists[&143];
        assert_eq!(acl.entries.len(), 2);
        assert_eq!(acl.entries[0].action(), AclAction::Deny);
        let rm = &cfg.route_maps["8aTzlvBrbaW"];
        assert_eq!(rm.clauses.len(), 2);
        assert_eq!(rm.clauses[0].seq, 10);
        assert_eq!(rm.clauses[0].action, AclAction::Deny);
        assert_eq!(rm.clauses[0].matches, vec![RmMatch::IpAddress(vec![4])]);
        assert_eq!(rm.clauses[1].action, AclAction::Permit);
        assert_eq!(cfg.static_routes.len(), 1);
        assert_eq!(cfg.static_routes[0].prefix().to_string(), "10.235.0.0/16");
        assert!(cfg.unparsed.is_empty(), "unexpected unparsed lines: {:?}", cfg.unparsed);
    }

    #[test]
    fn unknown_commands_are_tolerated() {
        let cfg = parse_config("mystery command here\ninterface Ethernet0\n exotic subcommand\n").unwrap();
        assert_eq!(cfg.unparsed.len(), 2);
        assert_eq!(cfg.unparsed[0].0, 1);
        assert_eq!(cfg.interfaces.len(), 1);
    }

    #[test]
    fn malformed_known_commands_fail_with_location() {
        let e = parse_config("interface Ethernet0\n ip address banana 255.0.0.0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ParseErrorKind::BadAddress(_)));
        let e = parse_config("router bgp 100\nrouter bgp 200\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Conflict(_)));
    }

    #[test]
    fn secondary_addresses_and_unnumbered() {
        let text = "\
interface Loopback0
 ip address 10.0.0.1 255.255.255.255
interface Serial0
 ip unnumbered Loopback0
interface Ethernet0
 ip address 10.1.0.1 255.255.255.0
 ip address 10.2.0.1 255.255.255.0 secondary
";
        let cfg = parse_config(text).unwrap();
        assert!(cfg.interfaces[1].is_unnumbered());
        assert_eq!(cfg.interfaces[2].secondary.len(), 1);
        assert_eq!(cfg.interfaces[2].subnets().len(), 2);
    }

    #[test]
    fn extended_acl_with_ports() {
        let text = "access-list 101 permit tcp 10.0.0.0 0.0.0.255 any eq 80\n\
                    access-list 101 deny udp any range 5000 5010 host 10.1.1.1\n\
                    access-list 101 permit ip any any\n";
        let cfg = parse_config(text).unwrap();
        let acl = &cfg.access_lists[&101];
        assert_eq!(acl.entries.len(), 3);
        match &acl.entries[0] {
            AclEntry::Extended { protocol, dst_port, .. } => {
                assert_eq!(protocol, "tcp");
                assert_eq!(*dst_port, Some(PortMatch::Eq(80)));
            }
            other => panic!("wrong entry: {other:?}"),
        }
        match &acl.entries[1] {
            AclEntry::Extended { src_port, dst, .. } => {
                assert_eq!(*src_port, Some(PortMatch::Range(5000, 5010)));
                assert_eq!(*dst, AclAddr::Host("10.1.1.1".parse().unwrap()));
            }
            other => panic!("wrong entry: {other:?}"),
        }
    }

    #[test]
    fn static_route_with_distance_tag_and_interface_target() {
        let cfg = parse_config(
            "ip route 0.0.0.0 0.0.0.0 192.0.2.1 250 tag 77\nip route 10.0.0.0 255.0.0.0 Null0\n",
        )
        .unwrap();
        assert_eq!(cfg.static_routes[0].distance, Some(250));
        assert_eq!(cfg.static_routes[0].tag, Some(77));
        assert!(cfg.static_routes[0].is_default());
        assert!(matches!(cfg.static_routes[1].target, StaticTarget::Interface(_)));
    }

    #[test]
    fn rip_and_eigrp_processes() {
        let text = "\
router rip
 version 2
 network 10.0.0.0
 redistribute static
router eigrp 109
 network 10.0.0.0
 network 172.16.1.0 0.0.0.255
 no auto-summary
router igrp 7
 network 192.168.1.0
";
        let cfg = parse_config(text).unwrap();
        let rip = cfg.rip.as_ref().unwrap();
        assert_eq!(rip.version, Some(2));
        assert!(rip.covers("10.9.9.9".parse().unwrap()));
        assert_eq!(cfg.eigrp.len(), 2);
        assert!(!cfg.eigrp[0].is_igrp);
        assert!(cfg.eigrp[0].no_auto_summary);
        assert!(cfg.eigrp[0].covers("10.1.1.1".parse().unwrap()));
        assert!(cfg.eigrp[0].covers("172.16.1.5".parse().unwrap()));
        assert!(!cfg.eigrp[0].covers("172.16.2.5".parse().unwrap()));
        assert!(cfg.eigrp[1].is_igrp);
    }
}
