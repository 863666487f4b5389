//! Fixed-seed property tests of the IOS model: emit → parse round-trips
//! on randomly generated well-formed models, plus never-panics fuzzing of
//! the lexer/parser/anonymizer — all driven by a deterministic `rd_rng`
//! stream so they run in every offline build.

use ioscfg::{
    emit_config, parse_config, AccessList, AclAction, AclAddr, AclEntry, BgpProcess,
    DistributeList, EigrpNetwork, EigrpProcess, IfAddr, IgpPolicy, Interface, InterfaceName,
    InterfaceType, OspfArea, OspfNetwork, OspfProcess, PortMatch, Redistribution,
    RedistSource, RipProcess, RouteMap, RouteMapClause, RouterConfig, RmMatch, RmSet,
    StaticRoute, StaticTarget,
};
use netaddr::{Addr, Netmask, Wildcard};
use rd_rng::StdRng;

fn addr(rng: &mut StdRng) -> Addr {
    Addr::from_u32(rng.next_u32())
}

fn mask(rng: &mut StdRng) -> Netmask {
    Netmask::from_len(rng.gen_range(0..=32u8)).unwrap()
}

fn contiguous_wildcard(rng: &mut StdRng) -> Wildcard {
    Netmask::from_len(rng.gen_range(0..=32u8)).unwrap().to_wildcard()
}

fn name(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
    let mut out = String::from(FIRST[rng.gen_range(0..FIRST.len())] as char);
    for _ in 0..rng.gen_range(0..=14usize) {
        out.push(REST[rng.gen_range(0..REST.len())] as char);
    }
    out
}

fn opt<T>(rng: &mut StdRng, f: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| f(rng))
}

fn vec_of<T>(rng: &mut StdRng, max: usize, mut f: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    let n: usize = rng.gen_range(0..=max);
    (0..n).map(|_| f(rng)).collect()
}

fn ifname(rng: &mut StdRng) -> InterfaceName {
    let ty = match rng.gen_range(0..6usize) {
        0 => InterfaceType::Serial,
        1 => InterfaceType::Ethernet,
        2 => InterfaceType::FastEthernet,
        3 => InterfaceType::Hssi,
        4 => InterfaceType::Pos,
        _ => InterfaceType::Atm,
    };
    let (a, b): (u8, u8) = (rng.gen_range(0..4), rng.gen_range(0..4));
    InterfaceName::new(ty, format!("{a}/{b}"))
}

fn interface(rng: &mut StdRng) -> Interface {
    let mut i = Interface::new(ifname(rng));
    i.address = opt(rng, |r| IfAddr { addr: addr(r), mask: mask(r) });
    i.access_group_in = opt(rng, |r| r.gen_range(1..200u32));
    i.access_group_out = opt(rng, |r| r.gen_range(1..200u32));
    i.point_to_point = rng.gen_bool(0.5);
    i.frame_relay_dlci = opt(rng, |r| r.gen_range(1..1000u32));
    i.description = opt(rng, name);
    if i.frame_relay_dlci.is_some() {
        i.encapsulation = Some("frame-relay".to_string());
    }
    i
}

fn redist(rng: &mut StdRng) -> Redistribution {
    let source = match rng.gen_range(0..6usize) {
        0 => RedistSource::Connected,
        1 => RedistSource::Static,
        2 => RedistSource::Rip,
        3 => RedistSource::Ospf(rng.gen_range(1..65000u32)),
        4 => RedistSource::Eigrp(rng.gen_range(1..65000u32)),
        _ => RedistSource::Bgp(rng.gen_range(1..65000u32)),
    };
    Redistribution {
        source,
        metric: opt(rng, |r| r.gen_range(1..10_000_000u64)),
        metric_type: opt(rng, |r| r.gen_range(1..3u8)),
        subnets: rng.gen_bool(0.5),
        route_map: opt(rng, name),
        tag: opt(rng, |r| r.gen_range(1..65536u32)),
    }
}

fn distribute_list(rng: &mut StdRng) -> DistributeList {
    DistributeList { acl: rng.gen_range(1..200u32), interface: opt(rng, ifname) }
}

/// A random policy block: every IGP draws all four lists.
fn policy(rng: &mut StdRng) -> IgpPolicy {
    IgpPolicy {
        redistribute: vec_of(rng, 2, redist),
        distribute_in: vec_of(rng, 2, distribute_list),
        distribute_out: vec_of(rng, 2, distribute_list),
        passive: vec_of(rng, 2, ifname),
    }
}

fn ospf(rng: &mut StdRng) -> OspfProcess {
    let mut p = OspfProcess::new(rng.gen_range(1..65536u32));
    p.networks = vec_of(rng, 3, |r| OspfNetwork {
        addr: addr(r),
        wildcard: contiguous_wildcard(r),
        area: OspfArea(r.gen_range(0..100u32)),
    });
    p.policy = policy(rng);
    p.default_information = rng.gen_bool(0.5);
    p
}

fn eigrp(rng: &mut StdRng) -> EigrpProcess {
    let mut p = EigrpProcess::new(rng.gen_range(1..65536u32));
    p.is_igrp = rng.gen_bool(0.5);
    p.networks = vec_of(rng, 3, |r| EigrpNetwork {
        addr: addr(r),
        wildcard: opt(r, contiguous_wildcard),
    });
    p.policy = policy(rng);
    p.no_auto_summary = rng.gen_bool(0.5);
    p
}

fn rip(rng: &mut StdRng) -> RipProcess {
    let mut p = RipProcess::new();
    p.version = opt(rng, |r| r.gen_range(1..3u8));
    p.networks = vec_of(rng, 2, addr);
    p.policy = policy(rng);
    p
}

fn bgp(rng: &mut StdRng) -> BgpProcess {
    let mut p = BgpProcess::new(rng.gen_range(1..65536u32));
    for _ in 0..rng.gen_range(0..=3usize) {
        let peer = addr(rng);
        let remote_as = rng.gen_range(1..65536u32);
        let nhs = rng.gen_bool(0.5);
        let rm_out = opt(rng, name);
        let dl_in = opt(rng, |r| r.gen_range(1..200u32));
        let n = p.neighbor_mut(peer);
        n.remote_as = Some(remote_as);
        n.next_hop_self = nhs;
        n.route_map_out = rm_out;
        n.distribute_in = dl_in;
    }
    p.redistribute = vec_of(rng, 1, redist);
    p.no_synchronization = rng.gen_bool(0.5);
    p.networks = vec_of(rng, 2, |r| (addr(r), opt(r, mask)));
    p
}

fn acl_addr(rng: &mut StdRng) -> AclAddr {
    match rng.gen_range(0..3usize) {
        0 => AclAddr::Any,
        1 => AclAddr::Host(addr(rng)),
        _ => AclAddr::Wild(addr(rng), contiguous_wildcard(rng)),
    }
}

fn std_acl(rng: &mut StdRng) -> AccessList {
    let id = rng.gen_range(1..100u32);
    let n: usize = rng.gen_range(1..5);
    let entries = (0..n)
        .map(|_| AclEntry::Standard {
            action: if rng.gen_bool(0.5) { AclAction::Permit } else { AclAction::Deny },
            addr: acl_addr(rng),
        })
        .collect();
    AccessList { id, entries }
}

fn port_match(rng: &mut StdRng) -> PortMatch {
    match rng.gen_range(0..4usize) {
        0 => PortMatch::Eq(rng.gen_range(1..65535u16)),
        1 => PortMatch::Lt(rng.gen_range(1..65535u16)),
        2 => PortMatch::Gt(rng.gen_range(1..65535u16)),
        _ => PortMatch::Range(rng.gen_range(1..1000u16), rng.gen_range(1000..65535u16)),
    }
}

fn ext_acl(rng: &mut StdRng) -> AccessList {
    let id = rng.gen_range(100..200u32);
    let n: usize = rng.gen_range(1..4);
    let entries = (0..n)
        .map(|_| {
            let protocol = ["ip", "tcp", "udp", "icmp", "pim"][rng.gen_range(0..5usize)];
            let ports_ok = protocol == "tcp" || protocol == "udp";
            let dst_port = opt(rng, port_match);
            AclEntry::Extended {
                action: if rng.gen_bool(0.5) { AclAction::Permit } else { AclAction::Deny },
                protocol: protocol.to_string(),
                src: acl_addr(rng),
                src_port: None,
                dst: acl_addr(rng),
                dst_port: if ports_ok { dst_port } else { None },
                established: rng.gen_bool(0.5) && protocol == "tcp",
            }
        })
        .collect();
    AccessList { id, entries }
}

fn route_map(rng: &mut StdRng) -> RouteMap {
    let mut map = RouteMap::new(name(rng));
    let clauses: usize = rng.gen_range(1..4);
    for i in 0..clauses {
        let mut clause = RouteMapClause {
            seq: (i as u32 + 1) * 10,
            action: if rng.gen_bool(0.5) { AclAction::Permit } else { AclAction::Deny },
            matches: Vec::new(),
            sets: Vec::new(),
        };
        let acls = vec_of(rng, 2, |r| r.gen_range(1..200u32));
        let tags = vec_of(rng, 1, |r| r.gen_range(1..65536u32));
        if !acls.is_empty() {
            clause.matches.push(RmMatch::IpAddress(acls));
        }
        if !tags.is_empty() {
            clause.matches.push(RmMatch::Tag(tags));
        }
        if let Some(t) = opt(rng, |r| r.gen_range(1..65536u32)) {
            clause.sets.push(RmSet::Tag(t));
        }
        map.clauses.push(clause);
    }
    map
}

fn static_route(rng: &mut StdRng) -> StaticRoute {
    let m = mask(rng);
    StaticRoute {
        dest: m.apply(addr(rng)), // emitter writes canonical destinations
        mask: m,
        target: if rng.gen_bool(0.5) {
            StaticTarget::NextHop(addr(rng))
        } else {
            StaticTarget::Interface(ifname(rng))
        },
        distance: opt(rng, |r| r.gen_range(1..255u8)),
        tag: opt(rng, |r| r.gen_range(1..65536u32)),
    }
}

/// A well-formed random `RouterConfig`.
fn random_config(rng: &mut StdRng) -> RouterConfig {
    let mut cfg = RouterConfig {
        hostname: opt(rng, name),
        interfaces: vec_of(rng, 4, interface),
        ospf: vec_of(rng, 2, ospf),
        eigrp: vec_of(rng, 1, eigrp),
        rip: opt(rng, rip),
        bgp: opt(rng, bgp),
        static_routes: vec_of(rng, 3, static_route),
        ..RouterConfig::default()
    };
    // Deduplicate process ids/names so the model is well-formed.
    cfg.ospf.sort_by_key(|p| p.id);
    cfg.ospf.dedup_by_key(|p| p.id);
    cfg.eigrp.sort_by_key(|p| (p.asn, p.is_igrp));
    cfg.eigrp.dedup_by_key(|p| (p.asn, p.is_igrp));
    for acl in vec_of(rng, 2, std_acl).into_iter().chain(vec_of(rng, 1, ext_acl)) {
        cfg.access_lists.insert(acl.id, acl);
    }
    for map in vec_of(rng, 2, route_map) {
        cfg.route_maps.insert(map.name.clone(), map);
    }
    cfg
}

#[test]
fn emit_then_parse_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for case in 0..300 {
        let cfg = random_config(&mut rng);
        let text = emit_config(&cfg);
        let reparsed = parse_config(&text)
            .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}\n--- emitted ---\n{text}"));
        assert!(
            reparsed.unparsed.is_empty(),
            "case {case}: emitter produced lines the parser does not understand: {:?}",
            reparsed.unparsed
        );
        assert_eq!(reparsed, cfg, "case {case}");
    }
}

#[test]
fn emitted_text_is_stable() {
    let mut rng = StdRng::seed_from_u64(0xC2);
    for case in 0..300 {
        // Emitting the reparsed model yields identical text (canonical form).
        let cfg = random_config(&mut rng);
        let text = emit_config(&cfg);
        let reparsed = parse_config(&text).unwrap();
        assert_eq!(emit_config(&reparsed), text, "case {case}");
    }
}

/// Random config-looking text, biased toward real keywords so the fuzz
/// reaches deep parser paths, not just the "unknown command" bailout.
fn random_configish(rng: &mut StdRng) -> String {
    const WORDS: &[&str] = &[
        "interface", "router", "ospf", "bgp", "eigrp", "rip", "network", "neighbor",
        "redistribute", "access-list", "route-map", "ip", "address", "permit", "deny",
        "match", "set", "area", "remote-as", "!",
    ];
    let word = |rng: &mut StdRng| match rng.gen_range(0..23usize) {
        n if n < 20 => WORDS[n].to_string(),
        20 => rng.gen_range(0..100_000u32).to_string(),
        21 => format!(
            "{}.{}.{}.{}",
            rng.gen_range(0..=255u32),
            rng.gen_range(0..=255u32),
            rng.gen_range(0..=255u32),
            rng.gen_range(0..=255u32)
        ),
        _ => {
            const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!/.-";
            let n: usize = rng.gen_range(1..=8);
            (0..n).map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char).collect()
        }
    };
    let lines: usize = rng.gen_range(0..25);
    (0..lines)
        .map(|_| {
            let indent = " ".repeat(rng.gen_range(0..3usize));
            let words: usize = rng.gen_range(0..7);
            let body: Vec<String> = (0..words).map(|_| word(rng)).collect();
            format!("{indent}{}", body.join(" "))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn lexer_never_panics_and_counts_command_lines() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    for _ in 0..500 {
        let text = random_configish(&mut rng);
        let raw = ioscfg::lex_config(&text);
        let mut expected = 0usize;
        for line in text.lines() {
            let t = line.trim();
            if t.eq_ignore_ascii_case("end") {
                break;
            }
            if !t.is_empty() && !t.starts_with('!') {
                expected += 1;
            }
        }
        assert_eq!(raw.command_lines(), expected, "text:\n{text}");
    }
}

/// One stanza as a nested tree: the shape the lexer's line table stands
/// for.
#[derive(Debug, PartialEq)]
struct Node {
    line: usize,
    text: String,
    words: Vec<String>,
    children: Vec<Node>,
}

fn node(line: usize, text: &str) -> Node {
    let words = text.split_whitespace().map(str::to_string).collect();
    Node { line, text: text.to_string(), words, children: Vec::new() }
}

/// The nested-tree lexer the line table replaced (a stack of open
/// indentation levels, each line pushed under its parent), kept as the
/// reference; words come from `str::split_whitespace`.
fn reference_tree(text: &str) -> Vec<Node> {
    let mut root: Vec<Node> = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let trimmed_end = raw_line.trim_end();
        let content = trimmed_end.trim_start();
        if content.is_empty() || content.starts_with('!') {
            continue;
        }
        if content.eq_ignore_ascii_case("end") {
            break;
        }
        let indent = trimmed_end.len() - content.len();
        while stack.last().is_some_and(|(i, _)| *i >= indent) {
            stack.pop();
        }
        let mut slot = &mut root;
        for &(_, child) in &stack {
            slot = &mut slot[child].children;
        }
        slot.push(node(idx + 1, content));
        stack.push((indent, slot.len() - 1));
    }
    root
}

fn tree_of(stanza: ioscfg::Stanza<'_>) -> Node {
    Node {
        line: stanza.line(),
        text: stanza.text().to_string(),
        words: stanza.words().iter().map(|w| w.to_string()).collect(),
        children: stanza.children().map(tree_of).collect(),
    }
}

/// Config-ish text whose whitespace, indentation included, mixes the
/// ASCII separators (0x0B among them) with Unicode ones, around ASCII
/// and non-ASCII words (and chars that look like separators but are
/// not: U+200B and 0x1F).
fn whitespace_configish(rng: &mut StdRng) -> String {
    const SPACE: &[&str] = &[
        " ", "\t", "\u{b}", "\u{c}", "\r", "\u{85}", "\u{a0}", "\u{2028}", "\u{3000}",
    ];
    const WORDS: &[&str] = &[
        "interface", "router", "ospf", "ip", "address", "10.0.0.1", "über", "ключ", "日本",
        "é", "a\u{200b}b", "x\u{1f}y", "!", "ÿ", "end", "End",
    ];
    fn pick(rng: &mut StdRng, set: &[&'static str]) -> &'static str {
        set[rng.gen_range(0..set.len())]
    }
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..30usize) {
        for _ in 0..rng.gen_range(0..4usize) {
            text.push_str(pick(rng, SPACE));
        }
        for w in 0..rng.gen_range(0..6usize) {
            for _ in 0..usize::from(w > 0) + rng.gen_range(0..2usize) {
                text.push_str(pick(rng, SPACE));
            }
            text.push_str(pick(rng, WORDS));
        }
        if rng.gen_bool(0.3) {
            text.push_str(pick(rng, SPACE));
        }
        text.push_str(if rng.gen_bool(0.2) { "\r\n" } else { "\n" });
    }
    text
}

#[test]
fn line_table_matches_the_nested_reference_lexer() {
    let mut rng = StdRng::seed_from_u64(0xC7);
    let mut stanzas = 0;
    for _ in 0..2_000 {
        let text = whitespace_configish(&mut rng);
        let raw = ioscfg::lex_config(&text);
        let got: Vec<Node> = raw.stanzas().map(tree_of).collect();
        assert_eq!(got, reference_tree(&text), "text: {text:?}");
        stanzas += got.len();
    }
    assert!(stanzas > 4_000, "only {stanzas} top-level stanzas generated");
}

#[test]
fn parser_never_panics_and_errors_carry_locations() {
    let mut rng = StdRng::seed_from_u64(0xC4);
    for _ in 0..500 {
        let text = random_configish(&mut rng);
        match ioscfg::parse_config(&text) {
            Ok(cfg) => {
                let emitted = ioscfg::emit_config(&cfg);
                assert!(ioscfg::parse_config(&emitted).is_ok(), "text:\n{text}");
            }
            Err(e) => {
                assert!(e.line >= 1);
                assert!(e.line <= text.lines().count().max(1), "text:\n{text}");
            }
        }
    }
}

#[test]
fn parser_survives_arbitrary_text() {
    let mut rng = StdRng::seed_from_u64(0xC5);
    for _ in 0..300 {
        let n: usize = rng.gen_range(0..300);
        let text: String = (0..n)
            .map(|_| {
                // Printable-ish unicode: ASCII plus some multibyte points.
                match rng.gen_range(0..4usize) {
                    0..=2 => char::from(rng.gen_range(0x20..0x7fu8)),
                    _ => char::from_u32(rng.gen_range(0xa0..0x2000u32)).unwrap_or('ö'),
                }
            })
            .collect();
        let _ = ioscfg::parse_config(&text);
    }
}

#[test]
fn anonymizer_never_panics_and_preserves_line_structure() {
    let mut rng = StdRng::seed_from_u64(0xC6);
    for _ in 0..500 {
        let text = random_configish(&mut rng);
        let key: u64 = rng.gen_range(0..=u64::MAX);
        let anon = anonymizer::Anonymizer::new(&key.to_be_bytes());
        let out = anon.anonymize_config(&text);
        // Line structure is preserved (comments collapse to bare "!").
        assert_eq!(out.lines().count(), text.lines().count(), "text:\n{text}");
    }
}
