//! The realism layer: interface mixes, packet-filter profiles, and other
//! configuration bulk.
//!
//! Real routers carry far more configuration than the minimum needed to
//! route: unused ports, dial backup, tunnels, filters, static routes. The
//! paper's population statistics (Table 3's interface census, Figure 4's
//! config sizes, Figure 11's filter placement) all reflect that bulk, so
//! the generator reproduces it here, calibrated to the published mix.

use ioscfg::{
    AccessList, AclAction, AclAddr, AclEntry, InterfaceType, PortMatch,
};
use netaddr::{Addr, Wildcard};
use rd_rng::StdRng;

use crate::builder::NetworkBuilder;

/// Weighted interface mix for dressing (per mille).
///
/// Derived from Table 3 of the paper: Serial dominates (~55%), then
/// FastEthernet (~21%), ATM, POS, Ethernet, Hssi, GigabitEthernet, and a
/// long tail. POS weight is zero outside backbone-style networks — the
/// paper notes POS appears in three of four backbones and only two
/// enterprises.
#[derive(Clone, Debug)]
pub struct InterfaceMix {
    weights: Vec<(InterfaceType, u32)>,
    total: u32,
}

impl InterfaceMix {
    /// The mix for ordinary enterprise-style networks.
    pub fn enterprise() -> InterfaceMix {
        InterfaceMix::from_weights(vec![
            (InterfaceType::Serial, 425),
            (InterfaceType::FastEthernet, 290),
            (InterfaceType::Atm, 75),
            (InterfaceType::Ethernet, 55),
            (InterfaceType::Hssi, 20),
            (InterfaceType::GigabitEthernet, 22),
            (InterfaceType::TokenRing, 16),
            (InterfaceType::Dialer, 15),
            (InterfaceType::Bri, 13),
            (InterfaceType::Tunnel, 3),
            (InterfaceType::PortChannel, 2),
            (InterfaceType::Async, 2),
            (InterfaceType::Virtual, 1),
            (InterfaceType::Channel, 1),
        ])
    }

    /// The mix for backbone/tier-2 networks (adds POS, more ATM/GigE).
    pub fn backbone() -> InterfaceMix {
        InterfaceMix::from_weights(vec![
            (InterfaceType::Serial, 410),
            (InterfaceType::FastEthernet, 200),
            (InterfaceType::Atm, 110),
            (InterfaceType::Pos, 120),
            (InterfaceType::Ethernet, 35),
            (InterfaceType::Hssi, 55),
            (InterfaceType::GigabitEthernet, 40),
            (InterfaceType::TokenRing, 5),
            (InterfaceType::Dialer, 8),
            (InterfaceType::Bri, 6),
            (InterfaceType::Tunnel, 5),
            (InterfaceType::PortChannel, 3),
            (InterfaceType::Async, 2),
            (InterfaceType::Virtual, 1),
        ])
    }

    fn from_weights(weights: Vec<(InterfaceType, u32)>) -> InterfaceMix {
        let total = weights.iter().map(|(_, w)| w).sum();
        InterfaceMix { weights, total }
    }

    /// Samples one interface type.
    pub fn sample(&self, rng: &mut StdRng) -> InterfaceType {
        let mut roll = rng.gen_range(0..self.total);
        for (ty, w) in &self.weights {
            if roll < *w {
                return ty.clone();
            }
            roll -= w;
        }
        InterfaceType::Serial
    }
}

/// Adds `extra_per_router` unaddressed interfaces per router from the
/// mix, with roughly 0.5% of them configured `ip unnumbered` (Section 2.1
/// reports 528 unnumbered of 96,487 total).
pub fn dress_interfaces(
    builder: &mut NetworkBuilder,
    rng: &mut StdRng,
    mix: &InterfaceMix,
    extra_per_router: usize,
) {
    for idx in 0..builder.len() {
        // Vary per-router counts around the mean (hubs are dressed more
        // heavily by the design generators themselves).
        let count = if extra_per_router > 1 {
            rng.gen_range(extra_per_router / 2..=extra_per_router + extra_per_router / 2)
        } else {
            extra_per_router
        };
        let anchor = builder.routers[idx]
            .interfaces
            .first()
            .map(|i| i.name.clone());
        for _ in 0..count {
            let ty = mix.sample(rng);
            let name = builder.add_iface(idx, ty, None);
            // A sliver of unnumbered serials, as in the paper's corpus.
            if let Some(anchor_name) = &anchor {
                if rng.gen_ratio(1, 100) {
                    let n = builder.routers[idx]
                        .interfaces
                        .iter_mut()
                        .find(|i| i.name == name)
                        .expect("interface just added");
                    n.unnumbered = Some(anchor_name.clone());
                }
            }
        }
    }
}

/// Adds exactly `count` interfaces of a rare type somewhere in the
/// network (the Table 3 long tail: CBR 14, Fddi 6, Multilink 4, Null 2
/// across the whole corpus — too rare to sample).
pub fn sprinkle(
    builder: &mut NetworkBuilder,
    rng: &mut StdRng,
    ty: InterfaceType,
    count: usize,
) {
    for _ in 0..count {
        let idx = rng.gen_range(0..builder.len());
        builder.add_iface(idx, ty.clone(), None);
    }
}

/// Adds site-local IGP processes: single-router OSPF/EIGRP processes
/// covering one local LAN each.
///
/// Real routers carry several routing processes (Table 1's ≈23,000 IGP
/// instances over 8,035 routers imply ≈3 per router): site LAN segments,
/// legacy islands, and lab networks all run their own little IGP that
/// never touches another router. These are the *intra-domain* bulk of
/// Table 1. EIGRP ASNs are unique per router so the processes never
/// accidentally form adjacencies; OSPF processes cover only the LAN,
/// which has no second router on it.
pub fn add_site_igps(builder: &mut NetworkBuilder, rng: &mut StdRng, mean_per_router: usize) {
    if mean_per_router == 0 {
        return;
    }
    // Subnets visible from more than one router: a site OSPF/RIP process
    // speaking on one of these would form an adjacency with a neighbor's
    // process and stop being single-router, so they are excluded.
    let shared_subnets: std::collections::BTreeSet<netaddr::Prefix> = {
        let mut owner: std::collections::BTreeMap<netaddr::Prefix, usize> =
            std::collections::BTreeMap::new();
        let mut shared = std::collections::BTreeSet::new();
        for (idx, cfg) in builder.routers.iter().enumerate() {
            for subnet in cfg.interfaces.iter().filter_map(|i| i.address.map(|a| a.subnet())) {
                match owner.get(&subnet) {
                    Some(&first) if first != idx => {
                        shared.insert(subnet);
                    }
                    Some(_) => {}
                    None => {
                        owner.insert(subnet, idx);
                    }
                }
            }
        }
        shared
    };
    for idx in 0..builder.len() {
        let lan_subnets: Vec<netaddr::Prefix> = builder.routers[idx]
            .interfaces
            .iter()
            .filter(|i| {
                matches!(
                    i.name.ty,
                    InterfaceType::FastEthernet
                        | InterfaceType::Ethernet
                        | InterfaceType::GigabitEthernet
                        | InterfaceType::TokenRing
                )
            })
            .filter_map(|i| i.address.map(|a| a.subnet()))
            .filter(|s| !shared_subnets.contains(s))
            .collect();
        if lan_subnets.is_empty() {
            continue;
        }
        let count = rng.gen_range(0..=mean_per_router * 2);
        for j in 0..count {
            let subnet = lan_subnets[j % lan_subnets.len()];
            // ~55% EIGRP, ~35% OSPF, ~10% RIP: the paper's Table 1 has
            // EIGRP as the most numerous intra-domain protocol, with OSPF
            // close behind.
            let roll = rng.gen_range(0..20);
            let cfg = builder.router(idx);
            if roll < 11 {
                // Unique per (router, slot): these never form adjacencies.
                let asn = 20000 + (idx as u32) * 4 + j as u32;
                if cfg.eigrp.iter().any(|p| p.asn == asn) {
                    continue;
                }
                let mut p = ioscfg::EigrpProcess::new(asn);
                p.networks.push(ioscfg::EigrpNetwork {
                    addr: subnet.first(),
                    wildcard: Some(subnet.mask().to_wildcard()),
                });
                cfg.eigrp.push(p);
            } else if roll < 18 {
                let pid = 500 + j as u32;
                if cfg.ospf.iter().any(|p| p.id == pid) {
                    continue;
                }
                let mut p = ioscfg::OspfProcess::new(pid);
                p.networks.push(ioscfg::OspfNetwork {
                    addr: subnet.first(),
                    wildcard: subnet.mask().to_wildcard(),
                    area: ioscfg::OspfArea(0),
                });
                cfg.ospf.push(p);
            } else {
                // A site RIP segment: RIP coverage is classful, so every
                // other interface is made passive — the process speaks
                // only on its LAN and stays a single-router instance.
                if cfg.rip.is_some() {
                    continue;
                }
                let lan_iface = cfg
                    .interfaces
                    .iter()
                    .find(|i| i.address.is_some_and(|a| a.subnet() == subnet))
                    .map(|i| i.name.clone());
                let Some(lan_name) = lan_iface else { continue };
                let mut p = ioscfg::RipProcess::new();
                p.version = Some(2);
                p.networks.push(netaddr::Addr::new(10, 0, 0, 0));
                p.policy.passive = cfg
                    .interfaces
                    .iter()
                    .filter(|i| i.name != lan_name)
                    .map(|i| i.name.clone())
                    .collect();
                cfg.rip = Some(p);
            }
        }
    }
}

/// Configuration verbosity profile (Figure 4 calibration).
///
/// Production configurations carry far more text than the routing design
/// itself: interface descriptions, bandwidth statements, static routes,
/// and — above all — access lists, many of them long and some not bound
/// to any interface at all. net5's mean of ≈270 command lines per router
/// comes from this bulk.
#[derive(Clone, Copy, Debug)]
pub struct Verbosity {
    /// Add `description`/`bandwidth` to interfaces.
    pub describe_interfaces: bool,
    /// Mean static routes per router.
    pub static_routes: usize,
    /// Mean total clauses of unapplied (standard, 60–99) ACLs per router.
    pub acl_lines: usize,
}

impl Verbosity {
    /// Light bulk for small networks.
    pub fn light() -> Verbosity {
        Verbosity { describe_interfaces: true, static_routes: 4, acl_lines: 20 }
    }

    /// The net5-style heavy bulk.
    pub fn heavy() -> Verbosity {
        Verbosity { describe_interfaces: true, static_routes: 22, acl_lines: 190 }
    }
}

/// Applies the verbosity profile.
pub fn add_verbosity(builder: &mut NetworkBuilder, rng: &mut StdRng, v: Verbosity) {
    for idx in 0..builder.len() {
        // A next hop for static routes: the far end of the router's first
        // /30 (an internal address, so externality analysis is unmoved).
        let next_hop = builder.routers[idx].interfaces.iter().find_map(|i| {
            let a = i.address?;
            let subnet = a.subnet();
            let (lo, hi) = subnet.p2p_hosts()?;
            Some(if a.addr == lo { hi } else { lo })
        });

        let cfg = builder.router(idx);
        if v.describe_interfaces {
            for iface in &mut cfg.interfaces {
                if iface.description.is_none() {
                    iface.description = Some(format!(
                        "ckt-{:05}-{}",
                        rng.gen_range(0..100_000u32),
                        iface.name.ty.census_label().to_ascii_lowercase()
                    ));
                }
                if iface.bandwidth_kbps.is_none()
                    && matches!(
                        iface.name.ty,
                        InterfaceType::Serial | InterfaceType::Hssi
                    )
                {
                    iface.bandwidth_kbps =
                        Some([64, 128, 256, 512, 1544][rng.gen_range(0..5)]);
                }
            }
        }

        if let Some(nh) = next_hop {
            let n = rng.gen_range(0..=v.static_routes * 2);
            for _ in 0..n {
                cfg.static_routes.push(ioscfg::StaticRoute {
                    dest: Addr::new(10, rng.gen_range(0..16), rng.gen_range(0..=255), 0),
                    mask: "255.255.255.0".parse().expect("mask"),
                    target: ioscfg::StaticTarget::NextHop(nh),
                    distance: None,
                    tag: None,
                });
            }
        }

        // Unapplied standard ACLs: defined but bound to nothing, the most
        // common kind of configuration cruft (and invisible to Figure 11,
        // which counts *applied* rules).
        let mut remaining = rng.gen_range(0..=v.acl_lines * 2);
        let mut id = 60u32;
        while remaining > 0 && id < 100 {
            let clauses = rng.gen_range(4..=47.min(remaining.max(4)));
            let mut entries = Vec::with_capacity(clauses);
            for k in 0..clauses {
                entries.push(AclEntry::Standard {
                    action: if k % 5 == 4 { AclAction::Permit } else { AclAction::Deny },
                    addr: AclAddr::Wild(
                        Addr::new(
                            10,
                            rng.gen_range(0..16),
                            rng.gen_range(0..=255),
                            0,
                        ),
                        Wildcard::from_bits(0xff),
                    ),
                });
            }
            remaining = remaining.saturating_sub(clauses);
            cfg.access_lists.insert(id, AccessList { id, entries });
            id += 1;
        }
    }
}

/// Filter profile for one network (Figure 11 calibration).
#[derive(Clone, Copy, Debug)]
pub struct FilterProfile {
    /// Target fraction of filter rules applied to internal links, 0..1.
    /// `None` disables filters entirely (3 of the 31 networks).
    pub internal_fraction: Option<f64>,
}

/// The starting number for generated internal-filter ACLs (extended
/// syntax, so they live in the 120–199 range).
const INTERNAL_ACL_BASE: u32 = 120;
/// The ACL number used on external-facing interfaces.
const BORDER_ACL: u32 = 110;

/// Builds a multi-clause border filter (anti-spoofing + junk-port drops).
fn border_acl() -> AccessList {
    let wild = |a: &str, w: &str| {
        AclAddr::Wild(a.parse().expect("literal address"), w.parse().expect("literal wildcard"))
    };
    AccessList {
        id: BORDER_ACL,
        entries: vec![
            AclEntry::Extended {
                action: AclAction::Deny,
                protocol: "ip".into(),
                src: wild("10.0.0.0", "0.255.255.255"),
                src_port: None,
                dst: AclAddr::Any,
                dst_port: None,
                established: false,
            },
            AclEntry::Extended {
                action: AclAction::Deny,
                protocol: "ip".into(),
                src: wild("192.168.0.0", "0.0.255.255"),
                src_port: None,
                dst: AclAddr::Any,
                dst_port: None,
                established: false,
            },
            AclEntry::Extended {
                action: AclAction::Deny,
                protocol: "udp".into(),
                src: AclAddr::Any,
                src_port: None,
                dst: AclAddr::Any,
                dst_port: Some(PortMatch::Range(135, 139)),
                established: false,
            },
            AclEntry::Extended {
                action: AclAction::Permit,
                protocol: "ip".into(),
                src: AclAddr::Any,
                src_port: None,
                dst: AclAddr::Any,
                dst_port: None,
                established: false,
            },
        ],
    }
}

/// Builds one internal-policy filter with `clauses` clauses: PIM
/// disabling, port-based application restrictions, host scoping — the
/// goals Section 5.3 observed on internal links.
fn internal_acl(id: u32, clauses: usize, rng: &mut StdRng) -> AccessList {
    let mut entries = Vec::with_capacity(clauses);
    for c in 0..clauses.saturating_sub(1) {
        let kind = rng.gen_range(0..3);
        let entry = match kind {
            0 => AclEntry::Extended {
                action: AclAction::Deny,
                protocol: "pim".into(),
                src: AclAddr::Any,
                src_port: None,
                dst: AclAddr::Any,
                dst_port: None,
                established: false,
            },
            1 => AclEntry::Extended {
                action: AclAction::Deny,
                protocol: if rng.gen_bool(0.5) { "tcp" } else { "udp" }.into(),
                src: AclAddr::Any,
                src_port: None,
                dst: AclAddr::Any,
                dst_port: Some(PortMatch::Eq(rng.gen_range(1024..9000))),
                established: false,
            },
            _ => AclEntry::Extended {
                action: if c % 2 == 0 { AclAction::Permit } else { AclAction::Deny },
                protocol: "tcp".into(),
                src: AclAddr::Host(Addr::new(
                    10,
                    rng.gen_range(0..16),
                    rng.gen_range(0..255),
                    rng.gen_range(1..255),
                )),
                src_port: None,
                dst: AclAddr::Wild(
                    Addr::new(10, rng.gen_range(0..16), 0, 0),
                    Wildcard::from_bits(0x0000_ffff),
                ),
                dst_port: Some(PortMatch::Eq(rng.gen_range(1024..9000))),
                established: false,
            },
        };
        entries.push(entry);
    }
    entries.push(AclEntry::Extended {
        action: AclAction::Permit,
        protocol: "ip".into(),
        src: AclAddr::Any,
        src_port: None,
        dst: AclAddr::Any,
        dst_port: None,
        established: false,
    });
    AccessList { id, entries }
}

/// Applies the filter profile: border ACLs on every external-facing
/// interface named in `external_ifaces` (as `(router, iface_name)`), then
/// internal ACLs sized to hit the target internal-rule fraction.
///
/// `internal_candidates` are `(router, iface_name)` pairs on internal
/// links that may carry filters.
pub fn apply_filters(
    builder: &mut NetworkBuilder,
    rng: &mut StdRng,
    profile: FilterProfile,
    external_ifaces: &[(usize, ioscfg::InterfaceName)],
    internal_candidates: &[(usize, ioscfg::InterfaceName)],
) {
    let Some(target) = profile.internal_fraction else { return };

    // Border filters.
    let mut external_rules = 0usize;
    for (router, iface) in external_ifaces {
        let cfg = builder.router(*router);
        cfg.access_lists.entry(BORDER_ACL).or_insert_with(border_acl);
        if let Some(i) = cfg.interfaces.iter_mut().find(|i| &i.name == iface) {
            i.access_group_in = Some(BORDER_ACL);
            external_rules += 4;
        }
    }
    // Internal filters: choose a rule budget R so that
    // R / (R + external_rules) ≈ target.
    let budget = if target >= 0.999 {
        24.max(external_rules * 4)
    } else {
        ((target / (1.0 - target)) * external_rules as f64).round() as usize
    };
    let mut placed = 0usize;
    let mut acl_id = INTERNAL_ACL_BASE;
    let mut candidates = internal_candidates.to_vec();
    let mut first = true;
    while placed < budget && !candidates.is_empty() {
        let pick = rng.gen_range(0..candidates.len());
        let (router, iface) = candidates.swap_remove(pick);
        // Section 5.3's anecdote: one filter crams 47 clauses of several
        // policies into a single list, because IOS allows only one filter
        // per interface. Networks with a big enough budget get one.
        let clauses = if first && budget >= 60 {
            first = false;
            47
        } else {
            rng.gen_range(3..=9).min(budget - placed).max(2)
        };
        let acl = internal_acl(acl_id, clauses, rng);
        let rules = acl.entries.len();
        let cfg = builder.router(router);
        cfg.access_lists.insert(acl_id, acl);
        if let Some(i) = cfg.interfaces.iter_mut().find(|i| i.name == iface) {
            if rng.gen_bool(0.5) {
                i.access_group_in = Some(acl_id);
            } else {
                i.access_group_out = Some(acl_id);
            }
            placed += rules;
        }
        acl_id += 1;
        if acl_id >= 200 {
            break; // end of the extended numbered-ACL range
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn mix_sampling_respects_dominance() {
        let mix = InterfaceMix::enterprise();
        let mut r = rng();
        let mut serial = 0;
        let mut pos = 0;
        for _ in 0..2000 {
            match mix.sample(&mut r) {
                InterfaceType::Serial => serial += 1,
                InterfaceType::Pos => pos += 1,
                _ => {}
            }
        }
        assert!(serial > 700, "serial only {serial}/2000");
        assert_eq!(pos, 0, "enterprise mix must not contain POS");
        let bmix = InterfaceMix::backbone();
        let pos_b = (0..2000).filter(|_| bmix.sample(&mut r) == InterfaceType::Pos).count();
        assert!(pos_b > 100, "backbone POS only {pos_b}/2000");
    }

    #[test]
    fn dressing_adds_interfaces_and_unnumbered() {
        let mut b = NetworkBuilder::new();
        for i in 0..50 {
            let r = b.add_router(format!("r{i}"));
            b.lan(r, format!("10.0.{i}.0/24").parse().unwrap(), InterfaceType::FastEthernet);
        }
        let mut r = rng();
        dress_interfaces(&mut b, &mut r, &InterfaceMix::enterprise(), 10);
        let total: usize = b.routers.iter().map(|c| c.interfaces.len()).sum();
        assert!(total >= 50 * 9, "only {total} interfaces");
        let unnumbered: usize = b
            .routers
            .iter()
            .flat_map(|c| &c.interfaces)
            .filter(|i| i.is_unnumbered())
            .count();
        assert!(unnumbered <= total / 50, "too many unnumbered: {unnumbered}");
    }

    #[test]
    fn sprinkle_exact_counts() {
        let mut b = NetworkBuilder::new();
        for i in 0..5 {
            b.add_router(format!("r{i}"));
        }
        let mut r = rng();
        sprinkle(&mut b, &mut r, InterfaceType::Fddi, 6);
        let fddi: usize = b
            .routers
            .iter()
            .flat_map(|c| &c.interfaces)
            .filter(|i| i.name.ty == InterfaceType::Fddi)
            .count();
        assert_eq!(fddi, 6);
    }

    #[test]
    fn filters_hit_internal_fraction() {
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("border");
        let mut internals = Vec::new();
        let ext = b.external_stub(r0, "192.0.2.0/30".parse().unwrap(), InterfaceType::Serial);
        for i in 0..10 {
            let r = b.add_router(format!("core{i}"));
            let (ia, _) = b.p2p_link(
                r0,
                r,
                format!("10.0.0.{}/30", i * 4).parse().unwrap(),
                InterfaceType::Serial,
            );
            internals.push((r0, ia));
        }
        let mut r = rng();
        apply_filters(
            &mut b,
            &mut r,
            FilterProfile { internal_fraction: Some(0.5) },
            &[(r0, ext.0)],
            &internals,
        );
        // Analyze with the real pipeline.
        let net = nettopo::Network::from_texts(b.to_texts()).unwrap();
        let links = nettopo::LinkMap::build(&net);
        let analysis = nettopo::ExternalAnalysis::build(&net, &links);
        let (internal, total) = analysis.filter_placement(&net);
        assert!(total > 0);
        let frac = internal as f64 / total as f64;
        assert!((0.3..=0.7).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn no_filter_profile_adds_nothing() {
        let mut b = NetworkBuilder::new();
        let r0 = b.add_router("r");
        b.lan(r0, "10.0.0.0/24".parse().unwrap(), InterfaceType::Ethernet);
        let mut r = rng();
        apply_filters(
            &mut b,
            &mut r,
            FilterProfile { internal_fraction: None },
            &[],
            &[],
        );
        assert!(b.routers[0].access_lists.is_empty());
    }
}
