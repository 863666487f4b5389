//! Longitudinal comparison of routing-design snapshots.
//!
//! Paper Section 8.1: "Snapshots of the routing design over time can be
//! used to track the steps in adding or removing equipment from the
//! network", and Section 8.2 calls the longitudinal study future work.
//! [`DesignDiff`] compares two analyzed snapshots of (nominally) the same
//! network and reports what changed at the design level — routers,
//! instances, external peerings, redistribution points, and
//! classification.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ioscfg::RouterConfig;
use routing_model::instance_graph::ExchangeKind;

use crate::NetworkAnalysis;

/// FNV-1a-64 fingerprint of a router's *parsed* configuration, computed
/// over its canonical snapshot encoding. Cosmetic byte churn — comment
/// lines, `!` separators, whitespace the parser discards — does not move
/// the fingerprint; any semantic change does. Shared by [`DesignDiff`],
/// the rd-plan change-unit decomposition, and the delta engine's change
/// digest ([`crate::incremental::Probe`]).
pub fn config_fingerprint(config: &RouterConfig) -> u64 {
    rd_snap::fnv1a64(&rd_snap::config_bytes(config))
}

/// [`config_fingerprint`] with the hostname cleared: a removed and an
/// added router with identical *body* fingerprints are the same box
/// under a new name — a rename, not a redesign.
pub fn body_fingerprint(config: &RouterConfig) -> u64 {
    let mut body = config.clone();
    body.hostname = None;
    rd_snap::fnv1a64(&rd_snap::config_bytes(&body))
}

/// A design-level instance signature that is stable across snapshots
/// (ids are not: they renumber when sizes change).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct InstanceSignature {
    /// Protocol family.
    pub kind: String,
    /// BGP AS number if applicable.
    pub asn: Option<u32>,
    /// Hostnames of member routers (sorted) — the stable identity.
    pub members: Vec<String>,
}

/// The differences between two snapshots.
#[derive(Clone, Debug, Default)]
pub struct DesignDiff {
    /// Router hostnames present only in the new snapshot (renames
    /// excluded — see [`routers_renamed`](DesignDiff::routers_renamed)).
    pub routers_added: Vec<String>,
    /// Router hostnames present only in the old snapshot (renames
    /// excluded).
    pub routers_removed: Vec<String>,
    /// Routers present in both snapshots whose configuration fingerprint
    /// changed ([`config_fingerprint`]) — modified in place.
    pub routers_modified: Vec<String>,
    /// `(old, new)` hostname pairs where a removed and an added router
    /// carry an identical body fingerprint: the same configuration under
    /// a new name.
    pub routers_renamed: Vec<(String, String)>,
    /// Instances (by signature) only in the new snapshot.
    pub instances_added: Vec<InstanceSignature>,
    /// Instances only in the old snapshot.
    pub instances_removed: Vec<InstanceSignature>,
    /// External AS numbers newly peered with.
    pub external_as_added: Vec<u32>,
    /// External AS numbers no longer peered with.
    pub external_as_removed: Vec<u32>,
    /// Hostnames of routers that redistribute in the new snapshot but
    /// not the old.
    pub redistributors_added: Vec<String>,
    /// Hostnames of routers that redistributed only in the old snapshot.
    pub redistributors_removed: Vec<String>,
    /// Classification change, if any: `(old, new)`.
    pub class_changed: Option<(String, String)>,
}

impl DesignDiff {
    /// Compares two snapshots (`old` → `new`).
    ///
    /// Routers are matched by hostname (falling back to file name), the
    /// only identity that survives re-collection; instances are matched
    /// by their member-set signature.
    pub fn between(old: &NetworkAnalysis, new: &NetworkAnalysis) -> DesignDiff {
        // name -> (full fingerprint, body fingerprint), the semantic
        // identity of each router's configuration.
        let prints = |a: &NetworkAnalysis| -> BTreeMap<String, (u64, u64)> {
            a.network
                .iter()
                .map(|(_, r)| {
                    (
                        r.name().to_string(),
                        (config_fingerprint(&r.config), body_fingerprint(&r.config)),
                    )
                })
                .collect()
        };
        let (old_prints, new_prints) = (prints(old), prints(new));
        let old_names: BTreeSet<String> = old_prints.keys().cloned().collect();
        let new_names: BTreeSet<String> = new_prints.keys().cloned().collect();

        let routers_modified: Vec<String> = old_names
            .intersection(&new_names)
            .filter(|name| old_prints.get(*name).map(|p| p.0) != new_prints.get(*name).map(|p| p.0))
            .cloned()
            .collect();

        // Rename detection: pair removed and added routers with identical
        // body fingerprints, greedily in sorted order (deterministic).
        let mut routers_removed: Vec<String> =
            old_names.difference(&new_names).cloned().collect();
        let mut routers_added: Vec<String> = new_names.difference(&old_names).cloned().collect();
        let mut routers_renamed: Vec<(String, String)> = Vec::new();
        for added in std::mem::take(&mut routers_added) {
            let body = new_prints.get(&added).map(|p| p.1);
            let matched = routers_removed
                .iter()
                .position(|removed| old_prints.get(removed).map(|p| p.1) == body);
            match matched {
                Some(i) => routers_renamed.push((routers_removed.remove(i), added)),
                None => routers_added.push(added),
            }
        }

        let signatures = |a: &NetworkAnalysis| -> BTreeSet<InstanceSignature> {
            a.instances
                .list
                .iter()
                .map(|i| InstanceSignature {
                    kind: i.kind.to_string(),
                    asn: i.asn,
                    members: i
                        .routers
                        .iter()
                        .map(|r| a.network.router(*r).name().to_string())
                        .collect(),
                })
                .collect()
        };
        let (old_sigs, new_sigs) = (signatures(old), signatures(new));

        let external = |a: &NetworkAnalysis| -> BTreeSet<u32> {
            a.instance_graph.external_ases().into_iter().collect()
        };
        let (old_ext, new_ext) = (external(old), external(new));

        let redistributors = |a: &NetworkAnalysis| -> BTreeSet<String> {
            a.instance_graph
                .edges
                .iter()
                .filter_map(|e| match &e.kind {
                    ExchangeKind::Redistribution { router, .. } => {
                        Some(a.network.router(*router).name().to_string())
                    }
                    _ => None,
                })
                .collect()
        };
        let (old_rd, new_rd) = (redistributors(old), redistributors(new));

        let class_changed = if old.design.class != new.design.class {
            Some((old.design.class.to_string(), new.design.class.to_string()))
        } else {
            None
        };

        DesignDiff {
            routers_added,
            routers_removed,
            routers_modified,
            routers_renamed,
            instances_added: new_sigs.difference(&old_sigs).cloned().collect(),
            instances_removed: old_sigs.difference(&new_sigs).cloned().collect(),
            external_as_added: new_ext.difference(&old_ext).copied().collect(),
            external_as_removed: old_ext.difference(&new_ext).copied().collect(),
            redistributors_added: new_rd.difference(&old_rd).cloned().collect(),
            redistributors_removed: old_rd.difference(&new_rd).cloned().collect(),
            class_changed,
        }
    }

    /// True if the snapshots describe the same design.
    pub fn is_empty(&self) -> bool {
        self.routers_added.is_empty()
            && self.routers_removed.is_empty()
            && self.routers_modified.is_empty()
            && self.routers_renamed.is_empty()
            && self.instances_added.is_empty()
            && self.instances_removed.is_empty()
            && self.external_as_added.is_empty()
            && self.external_as_removed.is_empty()
            && self.redistributors_added.is_empty()
            && self.redistributors_removed.is_empty()
            && self.class_changed.is_none()
    }
}

impl fmt::Display for DesignDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "no design-level changes");
        }
        let list = |f: &mut fmt::Formatter<'_>, title: &str, items: &[String]| {
            if items.is_empty() {
                return Ok(());
            }
            writeln!(f, "{title}: {}", items.join(", "))
        };
        list(f, "+ routers", &self.routers_added)?;
        list(f, "- routers", &self.routers_removed)?;
        list(f, "~ routers", &self.routers_modified)?;
        for (old_name, new_name) in &self.routers_renamed {
            writeln!(f, "renamed: {old_name} → {new_name}")?;
        }
        for sig in &self.instances_added {
            writeln!(f, "+ instance {} ({} routers)", label(sig), sig.members.len())?;
        }
        for sig in &self.instances_removed {
            writeln!(f, "- instance {} ({} routers)", label(sig), sig.members.len())?;
        }
        if !self.external_as_added.is_empty() {
            writeln!(f, "+ external peers: {:?}", self.external_as_added)?;
        }
        if !self.external_as_removed.is_empty() {
            writeln!(f, "- external peers: {:?}", self.external_as_removed)?;
        }
        list(f, "+ redistribution points", &self.redistributors_added)?;
        list(f, "- redistribution points", &self.redistributors_removed)?;
        if let Some((old, new)) = &self.class_changed {
            writeln!(f, "classification changed: {old} → {new}")?;
        }
        Ok(())
    }
}

fn label(sig: &InstanceSignature) -> String {
    match sig.asn {
        Some(asn) => format!("{} AS{asn}", sig.kind),
        None => sig.kind.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_texts() -> Vec<(String, String)> {
        vec![
            (
                "config1".to_string(),
                "hostname alpha\n\
                 interface Serial0\n ip address 10.0.0.1 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .to_string(),
            ),
            (
                "config2".to_string(),
                "hostname beta\n\
                 interface Serial0\n ip address 10.0.0.2 255.255.255.252\n\
                 router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                    .to_string(),
            ),
        ]
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let a = NetworkAnalysis::from_texts(base_texts()).unwrap();
        let b = NetworkAnalysis::from_texts(base_texts()).unwrap();
        let diff = DesignDiff::between(&a, &b);
        assert!(diff.is_empty(), "{diff}");
        assert_eq!(diff.to_string(), "no design-level changes\n");
    }

    #[test]
    fn added_router_and_peering_detected() {
        let a = NetworkAnalysis::from_texts(base_texts()).unwrap();
        let mut texts = base_texts();
        // beta grows an EBGP peering; a new router gamma joins the OSPF.
        texts[1].1.push_str(
            "interface Serial1\n ip address 192.0.2.1 255.255.255.252\n\
             router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n",
        );
        texts.push((
            "config3".to_string(),
            "hostname gamma\n\
             interface Serial0\n ip address 10.0.1.1 255.255.255.252\n\
             router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
                .to_string(),
        ));
        // gamma links to alpha.
        texts[0].1.push_str(
            "interface Serial1\n ip address 10.0.1.2 255.255.255.252\n",
        );
        let b = NetworkAnalysis::from_texts(texts).unwrap();
        let diff = DesignDiff::between(&a, &b);
        assert_eq!(diff.routers_added, vec!["gamma".to_string()]);
        assert!(diff.routers_removed.is_empty());
        assert_eq!(diff.external_as_added, vec![7018]);
        // The OSPF instance's member set changed → old removed, new added.
        assert_eq!(diff.instances_removed.len(), 1);
        assert!(diff.instances_added.len() >= 1);
        let text = diff.to_string();
        assert!(text.contains("+ routers: gamma"));
        assert!(text.contains("external peers: [7018]"));
    }

    #[test]
    fn modified_router_is_not_a_rename() {
        let a = NetworkAnalysis::from_texts(base_texts()).unwrap();
        let mut texts = base_texts();
        // alpha grows a loopback: same name, different fingerprint.
        texts[0].1.push_str("interface Loopback0\n ip address 10.9.0.1 255.255.255.255\n");
        let b = NetworkAnalysis::from_texts(texts).unwrap();
        let diff = DesignDiff::between(&a, &b);
        assert_eq!(diff.routers_modified, vec!["alpha".to_string()]);
        assert!(diff.routers_added.is_empty());
        assert!(diff.routers_removed.is_empty());
        assert!(diff.routers_renamed.is_empty());
        assert!(!diff.is_empty());
        assert!(diff.to_string().contains("~ routers: alpha"));
    }

    #[test]
    fn rename_pairs_identical_bodies_instead_of_add_remove() {
        let a = NetworkAnalysis::from_texts(base_texts()).unwrap();
        let mut texts = base_texts();
        // beta keeps its exact configuration body under a new hostname.
        texts[1].1 = texts[1].1.replace("hostname beta", "hostname betamax");
        let b = NetworkAnalysis::from_texts(texts).unwrap();
        let diff = DesignDiff::between(&a, &b);
        assert_eq!(diff.routers_renamed, vec![("beta".to_string(), "betamax".to_string())]);
        assert!(diff.routers_added.is_empty(), "{:?}", diff.routers_added);
        assert!(diff.routers_removed.is_empty(), "{:?}", diff.routers_removed);
        assert!(diff.routers_modified.is_empty());
        assert!(diff.to_string().contains("renamed: beta → betamax"));
    }

    #[test]
    fn empty_vs_empty_is_no_change() {
        let a = NetworkAnalysis::from_bytes_list(Vec::new());
        let b = NetworkAnalysis::from_bytes_list(Vec::new());
        let diff = DesignDiff::between(&a, &b);
        assert!(diff.is_empty(), "{diff}");
        assert_eq!(diff.to_string(), "no design-level changes\n");
    }

    #[test]
    fn cosmetic_churn_does_not_move_the_fingerprint() {
        let a = NetworkAnalysis::from_texts(base_texts()).unwrap();
        let mut texts = base_texts();
        // Bang separators and blank lines are parser noise.
        texts[0].1 = texts[0].1.replace("interface Serial0\n", "!\n\ninterface Serial0\n!\n");
        let b = NetworkAnalysis::from_texts(texts).unwrap();
        let diff = DesignDiff::between(&a, &b);
        assert!(diff.routers_modified.is_empty(), "{:?}", diff.routers_modified);
        assert!(diff.is_empty(), "{diff}");
    }

    #[test]
    fn classification_change_detected() {
        let a = NetworkAnalysis::from_texts(base_texts()).unwrap();
        let mut texts = base_texts();
        texts[1].1.push_str(
            "interface Serial1\n ip address 192.0.2.1 255.255.255.252\n\
             router bgp 65001\n neighbor 192.0.2.2 remote-as 7018\n",
        );
        // Redistribute BGP into the IGP so the design becomes enterprise.
        texts[1].1 = texts[1].1.replace(
            "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
            "router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n redistribute bgp 65001 subnets\n",
        );
        let b = NetworkAnalysis::from_texts(texts).unwrap();
        let diff = DesignDiff::between(&a, &b);
        assert_eq!(
            diff.class_changed,
            Some(("no-bgp".to_string(), "enterprise".to_string()))
        );
        assert_eq!(diff.redistributors_added, vec!["beta".to_string()]);
    }
}
