//! Anonymization invariance at the single-file level.
//!
//! The methodology requires that anonymized configurations describe the
//! *same routing design* as the originals. Here we check the file-level
//! half: an anonymized config still parses, with identical structure
//! (counts, process shapes, policy wiring) and consistently renamed user
//! data. The end-to-end network-level check lives in the workspace
//! integration tests.

use anonymizer::Anonymizer;
use ioscfg::{parse_config, RedistSource};
use netaddr::Addr;

const FIGURE2: &str = "\
hostname r2-border
!
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
 redistribute ospf 64 match route-map corp-export-policy
 neighbor 66.253.160.68 remote-as 12762
 neighbor 66.253.160.68 distribute-list 4 in
 neighbor 66.253.160.68 distribute-list 3 out
!
access-list 143 deny 134.161.0.0 0.0.255.255
access-list 143 permit any
route-map corp-export-policy deny 10
 match ip address 4
route-map corp-export-policy permit 20
 match ip address 7
ip route 10.235.240.71 255.255.0.0 10.234.12.7
";

#[test]
fn figure2_anonymizes_to_isomorphic_structure() {
    let anon = Anonymizer::new(b"integration");
    let original = parse_config(FIGURE2).unwrap();
    let anonymized_text = anon.anonymize_config(FIGURE2);
    let anonymized = parse_config(&anonymized_text).unwrap();

    // No identifying strings leak.
    assert!(!anonymized_text.contains("corp-export-policy"));
    assert!(!anonymized_text.contains("r2-border"));
    assert!(!anonymized_text.contains("66.251.75.144"));

    // Structure is identical.
    assert_eq!(anonymized.interfaces.len(), original.interfaces.len());
    assert_eq!(anonymized.ospf.len(), original.ospf.len());
    assert_eq!(anonymized.ospf[0].id, 64); // process ids are plain integers
    assert_eq!(anonymized.ospf[0].policy.redistribute.len(), 2);
    assert_eq!(
        anonymized.access_lists[&143].entries.len(),
        original.access_lists[&143].entries.len()
    );
    assert_eq!(anonymized.route_maps.len(), 1);
    let anon_map = anonymized.route_maps.values().next().unwrap();
    assert_eq!(anon_map.clauses.len(), 2);

    // Cross-references stay consistent: the BGP redistribute's route-map
    // name matches the route-map definition's name.
    let bgp = anonymized.bgp.as_ref().unwrap();
    assert_eq!(bgp.redistribute[0].route_map.as_deref(), Some(anon_map.name.as_str()));

    // The private-range BGP ASN is preserved; the public peer ASN is not.
    assert_eq!(bgp.asn, 64780);
    let peer_as = bgp.neighbors[0].remote_as.unwrap();
    assert_ne!(peer_as, 12762);

    // Subnet structure is preserved: the Serial interface still lives in a
    // /30, and redistribution sources still line up.
    assert_eq!(anonymized.interfaces[1].address.unwrap().subnet().len(), 30);
    assert_eq!(anonymized.ospf[0].policy.redistribute[1].source, RedistSource::Bgp(64780));

    // The OSPF network statement still covers the Ethernet interface.
    let eth_addr = anonymized.interfaces[0].address.unwrap().addr;
    assert!(anonymized.ospf[0].covers(eth_addr));
}

#[test]
fn anonymization_is_idempotent_in_structure() {
    // Anonymizing twice (different keys) still parses to the same shape.
    let a1 = Anonymizer::new(b"first");
    let a2 = Anonymizer::new(b"second");
    let once = a1.anonymize_config(FIGURE2);
    let twice = a2.anonymize_config(&once);
    let m1 = parse_config(&once).unwrap();
    let m2 = parse_config(&twice).unwrap();
    assert_eq!(m1.interfaces.len(), m2.interfaces.len());
    assert_eq!(m1.ospf.len(), m2.ospf.len());
    assert_eq!(m1.unparsed.len(), 0);
    assert_eq!(m2.unparsed.len(), 0);
}

fn addr_class(x: Addr) -> char {
    match x.octets()[0] {
        0..=127 => 'A',
        128..=191 => 'B',
        192..=223 => 'C',
        _ => 'D',
    }
}

/// The anonymizer's address and token properties, checked over a
/// deterministic `rd_rng` stream so they run in every (offline) build.
mod fixed_seed {
    use super::*;
    use rd_rng::StdRng;

    /// Shared-prefix lengths are preserved exactly for arbitrary pairs.
    #[test]
    fn prefix_preservation_holds() {
        let mut rng = StdRng::seed_from_u64(0xA1);
        for _ in 0..2000 {
            let key: u64 = rng.gen_range(0..=u64::MAX);
            let anon = Anonymizer::new(&key.to_be_bytes());
            let a = Addr::from_u32(rng.next_u32());
            let b = Addr::from_u32(rng.next_u32());
            let (x, y) = (anon.anon_addr(a), anon.anon_addr(b));
            let before = (a.to_u32() ^ b.to_u32()).leading_zeros();
            let after = (x.to_u32() ^ y.to_u32()).leading_zeros();
            assert_eq!(before, after, "{a} vs {b} mapped to {x} vs {y}");
        }
    }

    /// The address class (A/B/C/D-E) is preserved, keeping classful
    /// `network` statements meaningful.
    #[test]
    fn class_preservation_holds() {
        let mut rng = StdRng::seed_from_u64(0xA2);
        for _ in 0..2000 {
            let key: u64 = rng.gen_range(0..=u64::MAX);
            let anon = Anonymizer::new(&key.to_be_bytes());
            let a = Addr::from_u32(rng.next_u32());
            let mapped = anon.anon_addr(a);
            assert_eq!(addr_class(a), addr_class(mapped), "{a} -> {mapped}");
        }
    }

    /// Token hashing never produces a keyword, a number, or a collisionish
    /// short string that the parser could misread.
    #[test]
    fn hashed_tokens_are_opaque_names() {
        let mut rng = StdRng::seed_from_u64(0xA3);
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        const REST: &[u8] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
        for _ in 0..2000 {
            let key: u64 = rng.gen_range(0..=u64::MAX);
            let anon = Anonymizer::new(&key.to_be_bytes());
            let len: usize = rng.gen_range(0..=20);
            let mut token =
                String::from(FIRST[rng.gen_range(0..FIRST.len())] as char);
            for _ in 0..len {
                token.push(REST[rng.gen_range(0..REST.len())] as char);
            }
            let h = anon.hash_token(&token);
            assert_eq!(h.len(), 11, "token {token:?}");
            assert!(h.chars().next().unwrap().is_ascii_alphabetic());
            assert!(!ioscfg::is_keyword(&h), "hash {h:?} is a keyword");
            assert!(h.chars().all(|c| c.is_ascii_alphanumeric()));
        }
    }
}
