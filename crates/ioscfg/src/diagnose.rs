//! Per-configuration diagnostics: everything the tolerant parser skipped
//! or cannot vouch for, reported with file/line/severity instead of being
//! silently dropped (`rd-obs` diagnostics channel, surfaced by
//! `rdx <dir> diag`).
//!
//! Severity policy:
//!
//! - **warning** — input was skipped: unknown stanzas/subcommands
//!   (`unknown-stanza`), duplicate interface definitions
//!   (`duplicate-interface`). The analyses run, but on less than the file
//!   said.
//! - **error** — the configuration references policy objects that do not
//!   exist in the file: `undefined-acl`, `undefined-route-map`,
//!   `undefined-unnumbered-target`. The derived design is likely wrong
//!   around these, because a missing filter parses as "no filter".

use rd_obs::{Diagnostic, Severity};

use crate::model::{RmMatch, RouterConfig};

fn diag(
    file: &str,
    line: usize,
    severity: Severity,
    code: &'static str,
    message: String,
) -> Diagnostic {
    Diagnostic { file: file.to_string(), line, severity, code, message }
}

/// Collects every diagnostic one parsed configuration warrants, in a
/// deterministic order (unparsed lines by line number, then reference
/// checks in model order).
pub fn config_diagnostics(file: &str, cfg: &RouterConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Unknown stanzas and subcommands the parser preserved but skipped.
    for (line, text) in &cfg.unparsed {
        out.push(diag(
            file,
            *line,
            Severity::Warning,
            "unknown-stanza",
            format!("skipped unrecognized command {text:?}"),
        ));
    }

    // Interfaces defined twice shadow each other in by-name lookups.
    for (i, iface) in cfg.interfaces.iter().enumerate() {
        if cfg.interfaces[..i].iter().any(|other| other.name == iface.name) {
            out.push(diag(
                file,
                0,
                Severity::Warning,
                "duplicate-interface",
                format!("interface {} is defined more than once", iface.name),
            ));
        }
    }

    let acl_defined = |id: u32| cfg.access_lists.contains_key(&id);
    let map_defined = |name: &str| cfg.route_maps.contains_key(name);
    let missing_acl = |out: &mut Vec<Diagnostic>, id: u32, context: String| {
        if !acl_defined(id) {
            out.push(diag(
                file,
                0,
                Severity::Error,
                "undefined-acl",
                format!("{context} references access-list {id}, which is not defined"),
            ));
        }
    };
    let missing_map = |out: &mut Vec<Diagnostic>, name: &str, context: String| {
        if !map_defined(name) {
            out.push(diag(
                file,
                0,
                Severity::Error,
                "undefined-route-map",
                format!("{context} references route-map {name:?}, which is not defined"),
            ));
        }
    };

    // Interface-level references.
    for iface in &cfg.interfaces {
        for (dir, acl) in
            [("in", iface.access_group_in), ("out", iface.access_group_out)]
        {
            if let Some(id) = acl {
                missing_acl(
                    &mut out,
                    id,
                    format!("interface {} ip access-group {dir}", iface.name),
                );
            }
        }
        if let Some(target) = &iface.unnumbered {
            if cfg.interface(target).is_none() {
                out.push(diag(
                    file,
                    0,
                    Severity::Error,
                    "undefined-unnumbered-target",
                    format!(
                        "interface {} is unnumbered to {target}, which is not defined",
                        iface.name
                    ),
                ));
            }
        }
    }

    // BGP per-neighbor references, then routing-process policy references
    // (distribute lists + redistribution route maps) in model order:
    // OSPF, EIGRP/IGRP, RIP, BGP.
    for n in cfg.bgp.iter().flat_map(|p| &p.neighbors) {
        for acl in [n.distribute_in, n.distribute_out].into_iter().flatten() {
            missing_acl(&mut out, acl, format!("neighbor {} distribute-list", n.addr));
        }
        for map in [&n.route_map_in, &n.route_map_out].into_iter().flatten() {
            missing_map(&mut out, map, format!("neighbor {} route-map", n.addr));
        }
    }
    for igp in cfg.igps() {
        let policy = igp.policy();
        for dl in policy.distribute_in.iter().chain(&policy.distribute_out) {
            missing_acl(&mut out, dl.acl, format!("{igp} distribute-list"));
        }
        for map in policy.redistribute.iter().filter_map(|r| r.route_map.as_deref()) {
            missing_map(&mut out, map, igp.to_string());
        }
    }
    if let Some(p) = &cfg.bgp {
        for map in p.redistribute.iter().filter_map(|r| r.route_map.as_deref()) {
            missing_map(&mut out, map, format!("router bgp {}", p.asn));
        }
    }

    // Route-map clauses matching on undefined access lists.
    for (name, map) in &cfg.route_maps {
        for clause in &map.clauses {
            for m in &clause.matches {
                if let RmMatch::IpAddress(ids) = m {
                    for id in ids {
                        missing_acl(
                            &mut out,
                            *id,
                            format!("route-map {name} seq {} match ip address", clause.seq),
                        );
                    }
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_config;

    #[test]
    fn clean_config_yields_no_diagnostics() {
        let cfg = parse_config(crate::parse::tests::FIGURE2).unwrap();
        // Figure 2 references access lists 3, 4, 44, 45, and route-map
        // matches on 4 and 7, none of which the configlet defines — the
        // paper's own excerpt is partial. Those must surface as errors.
        let diags = config_diagnostics("config1", &cfg);
        assert!(diags.iter().all(|d| d.code == "undefined-acl"), "{diags:?}");
        assert_eq!(diags.len(), 6);

        // A self-contained config is clean.
        let cfg = parse_config(
            "interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n \
             ip access-group 10 in\naccess-list 10 permit any\n",
        )
        .unwrap();
        assert!(config_diagnostics("config1", &cfg).is_empty());
    }

    #[test]
    fn unknown_stanzas_surface_with_lines() {
        let cfg = parse_config("mystery command\ninterface Ethernet0\n exotic sub\n").unwrap();
        let diags = config_diagnostics("config7", &cfg);
        assert_eq!(diags.len(), 2);
        assert_eq!(
            (diags[0].file.as_str(), diags[0].line, diags[0].severity, diags[0].code),
            ("config7", 1, Severity::Warning, "unknown-stanza"),
        );
        assert_eq!(diags[1].line, 3);
    }

    #[test]
    fn dangling_references_are_errors() {
        let text = "\
interface Serial0
 ip address 10.0.0.1 255.255.255.252
 ip access-group 120 out
interface Serial1
 ip unnumbered Loopback9
router ospf 1
 network 10.0.0.0 0.0.0.255 area 0
 redistribute static route-map GHOST
 distribute-list 55 in
";
        let cfg = parse_config(text).unwrap();
        let diags = config_diagnostics("config2", &cfg);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![
                "undefined-acl",
                "undefined-unnumbered-target",
                "undefined-acl",
                "undefined-route-map",
            ],
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        assert!(diags[1].message.contains("Loopback9"));
    }

    #[test]
    fn duplicate_interfaces_warn_once_per_extra_definition() {
        let text = "interface Ethernet0\ninterface Ethernet0\ninterface Ethernet0\n";
        let cfg = parse_config(text).unwrap();
        let diags = config_diagnostics("config3", &cfg);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "duplicate-interface"));
    }
}
