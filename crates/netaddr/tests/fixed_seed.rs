//! Fixed-seed sampled property tests: set algebra vs a naive model, the
//! sorted indexes vs a linear scan, and block recovery coverage, exercised
//! over a deterministic `rd_rng` stream so they run in every build with no
//! external crates.

use std::collections::BTreeSet;

use netaddr::{Addr, AddrSet, Prefix, PrefixMap, PrefixSet};
use rd_rng::StdRng;

fn random_prefix(rng: &mut StdRng) -> Prefix {
    let bits = rng.next_u32();
    let len: u8 = rng.gen_range(0..=32);
    Prefix::new(Addr::from_u32(bits), len).expect("len <= 32")
}

fn random_prefixes(rng: &mut StdRng) -> Vec<Prefix> {
    let n: usize = rng.gen_range(0..12);
    (0..n).map(|_| random_prefix(rng)).collect()
}

/// Sample membership probes: prefix boundaries plus arbitrary addresses.
fn probes(sets: &[&[Prefix]], rng: &mut StdRng) -> Vec<Addr> {
    let mut out: BTreeSet<u32> = (0..8).map(|_| rng.next_u32()).collect();
    for prefixes in sets {
        for p in *prefixes {
            for a in [
                p.first().to_u32().wrapping_sub(1),
                p.first().to_u32(),
                p.last().to_u32(),
                p.last().to_u32().wrapping_add(1),
            ] {
                out.insert(a);
            }
        }
    }
    out.into_iter().map(Addr::from_u32).collect()
}

fn naive_contains(prefixes: &[Prefix], addr: Addr) -> bool {
    prefixes.iter().any(|p| p.contains(addr))
}

/// Random prefixes biased toward the shapes the analysis indexes see:
/// nested sub-blocks of a common parent plus the hot /30 and /32 cases.
fn random_nested_prefixes(rng: &mut StdRng) -> Vec<Prefix> {
    let mut out = random_prefixes(rng);
    let parents: usize = rng.gen_range(1..4);
    for _ in 0..parents {
        let parent = {
            let len: u8 = rng.gen_range(8..=24);
            Prefix::new(Addr::from_u32(rng.next_u32()), len).expect("len <= 32")
        };
        out.push(parent);
        let kids: usize = rng.gen_range(0..5);
        for _ in 0..kids {
            let len: u8 = match rng.gen_range(0..4u32) {
                0 => 30,
                1 => 32,
                _ => rng.gen_range(u32::from(parent.len())..=32) as u8,
            }
            .max(parent.len());
            let inside = parent.first().to_u32()
                + (rng.next_u32() as u64 % parent.size()) as u32;
            // `Prefix::new` masks the address down to the network address.
            out.push(Prefix::new(Addr::from_u32(inside), len).expect("len <= 32"));
        }
    }
    out
}

/// `Addr::from_str` as it was before it became one byte pass (split on
/// `.`, check each part, parse it as a `u8`), kept as the reference;
/// `Err` is the error's text.
fn split_reference_addr(s: &str) -> Result<Addr, String> {
    let err = || format!("invalid IPv4 address: {s:?}");
    let mut octets = [0u8; 4];
    let mut parts = s.split('.');
    for slot in &mut octets {
        let part = parts.next().ok_or_else(err)?;
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err());
        }
        *slot = part.parse().map_err(|_| err())?;
    }
    if parts.next().is_some() {
        return Err(err());
    }
    Ok(Addr::new(octets[0], octets[1], octets[2], octets[3]))
}

/// A random dotted string: mostly four parts, sometimes three, five or
/// any count up to seven; parts are octets, zero-padded numbers up to
/// 999, or one of the malformed shapes.
fn random_dotted(rng: &mut StdRng) -> String {
    const ODD: &[&str] =
        &["", "256", "+1", "-1", "0x1", "1e2", " 1", "1 ", "\u{661}", "\u{ff11}", "\u{b2}", "a"];
    let parts = match rng.gen_range(0..10u32) {
        0 => 3,
        1 => 5,
        2 => rng.gen_range(0..=7usize),
        _ => 4,
    };
    let part = |rng: &mut StdRng| match rng.gen_range(0..8u32) {
        0 => ODD[rng.gen_range(0..ODD.len())].to_string(),
        1 => format!("{:01$}", rng.gen_range(0..=999u32), rng.gen_range(1..=4usize)),
        _ => rng.gen_range(0..=255u32).to_string(),
    };
    (0..parts).map(|_| part(rng)).collect::<Vec<_>>().join(".")
}

#[test]
fn addr_parse_matches_the_split_reference() {
    let fixed = [
        "0.0.0.0", "255.255.255.255", "010.001.000.7", "0001.2.3.4", "256.0.0.1", "1.2.3",
        "1.2.3.4.5", "1..2.3", ".1.2.3", "1.2.3.4.", "+1.2.3.4", "1.2.3.\u{661}", "",
    ];
    for text in fixed {
        let got = text.parse::<Addr>().map_err(|e| e.to_string());
        assert_eq!(got, split_reference_addr(text), "{text:?}");
    }
    let mut rng = StdRng::seed_from_u64(0xB0);
    let mut accepted = 0;
    for _ in 0..20_000 {
        let text = random_dotted(&mut rng);
        let got = text.parse::<Addr>().map_err(|e| e.to_string());
        assert_eq!(got, split_reference_addr(&text), "{text:?}");
        accepted += usize::from(got.is_ok());
    }
    // Both outcomes are exercised.
    assert!((2_000..18_000).contains(&accepted), "{accepted} of 20000 accepted");
}

#[test]
fn prefix_parse_display_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xB1);
    for _ in 0..500 {
        let p = random_prefix(&mut rng);
        let back: Prefix = p.to_string().parse().unwrap();
        assert_eq!(back, p);
    }
}

#[test]
fn set_algebra_matches_naive() {
    let mut rng = StdRng::seed_from_u64(0xB2);
    for _ in 0..200 {
        let a = random_prefixes(&mut rng);
        let b = random_prefixes(&mut rng);
        let sa = PrefixSet::from_prefixes(a.iter().copied());
        let sb = PrefixSet::from_prefixes(b.iter().copied());
        let union = sa.union(&sb);
        let intersection = sa.intersection(&sb);
        let difference = sa.difference(&sb);
        for probe in probes(&[&a, &b], &mut rng) {
            let in_a = naive_contains(&a, probe);
            let in_b = naive_contains(&b, probe);
            assert_eq!(union.contains(probe), in_a || in_b, "union probe {probe}");
            assert_eq!(
                intersection.contains(probe),
                in_a && in_b,
                "intersection probe {probe}"
            );
            assert_eq!(
                difference.contains(probe),
                in_a && !in_b,
                "difference probe {probe}"
            );
        }
    }
}

#[test]
fn complement_is_involutive_and_partitions_space() {
    let mut rng = StdRng::seed_from_u64(0xB3);
    for _ in 0..200 {
        let a = random_prefixes(&mut rng);
        let s = PrefixSet::from_prefixes(a.iter().copied());
        let c = s.complement();
        assert_eq!(c.complement(), s);
        assert!(s.intersection(&c).is_empty());
        assert_eq!(s.size() + c.size(), 1u64 << 32);
    }
}

#[test]
fn to_prefixes_is_exact_and_canonical() {
    let mut rng = StdRng::seed_from_u64(0xB4);
    for _ in 0..200 {
        let a = random_prefixes(&mut rng);
        let s = PrefixSet::from_prefixes(a.iter().copied());
        let decomposed = s.to_prefixes();
        let rebuilt = PrefixSet::from_prefixes(decomposed.iter().copied());
        assert_eq!(rebuilt, s);
        let total: u64 = decomposed.iter().map(|p| p.size()).sum();
        assert_eq!(total, s.size());
    }
}

#[test]
fn addr_set_queries_match_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0xB7);
    for _ in 0..200 {
        let n: usize = rng.gen_range(0..24);
        let addrs: Vec<Addr> =
            (0..n).map(|_| Addr::from_u32(rng.next_u32())).collect();
        let set = AddrSet::new(addrs.clone());
        let queries = random_nested_prefixes(&mut rng);
        for probe in probes(&[&queries], &mut rng) {
            assert_eq!(
                set.contains(probe),
                addrs.contains(&probe),
                "contains probe {probe}"
            );
        }
        for a in &addrs {
            assert!(set.contains(*a), "own address {a} missing");
        }
        for q in &queries {
            assert_eq!(
                set.any_in_prefix(*q),
                addrs.iter().any(|a| q.contains(*a)),
                "range query {q} over {addrs:?}"
            );
        }
    }
}

#[test]
fn prefix_map_lpm_matches_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0xB8);
    for _ in 0..200 {
        let a = random_nested_prefixes(&mut rng);
        let map: PrefixMap<usize> =
            a.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        for probe in probes(&[&a], &mut rng) {
            // Unique prefixes can tie on length only by being equal, so the
            // longest containing prefix is well defined.
            let expect = a.iter().filter(|p| p.contains(probe)).map(|p| p.len()).max();
            let got = map.lookup(probe).map(|(p, _)| p.len());
            assert_eq!(got, expect, "LPM probe {probe} over {a:?}");
        }
    }
}

#[test]
fn prefix_map_covering_matches_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0xB9);
    for _ in 0..200 {
        let a = random_nested_prefixes(&mut rng);
        let map: PrefixMap<()> = a.iter().map(|p| (*p, ())).collect();
        let queries = random_nested_prefixes(&mut rng);
        for q in a.iter().chain(queries.iter()) {
            let expect = a.iter().filter(|p| p.covers(*q)).map(|p| p.len()).max();
            let got = map.covering(*q).map(|(p, _)| p.len());
            assert_eq!(got, expect, "covering query {q} over {a:?}");
        }
    }
}

#[test]
fn intersects_prefix_matches_allocating_intersection() {
    let mut rng = StdRng::seed_from_u64(0xBA);
    for _ in 0..200 {
        let a = random_nested_prefixes(&mut rng);
        let s = PrefixSet::from_prefixes(a.iter().copied());
        for q in random_nested_prefixes(&mut rng) {
            assert_eq!(
                s.intersects_prefix(q),
                !s.intersection(&PrefixSet::from_prefix(q)).is_empty(),
                "intersects query {q} over {a:?}"
            );
        }
    }
}

#[test]
fn block_tree_binary_search_matches_linear_scan() {
    let mut rng = StdRng::seed_from_u64(0xBB);
    for _ in 0..200 {
        let a = random_nested_prefixes(&mut rng);
        let tree = netaddr::recover_blocks(a.iter().copied());
        for probe in probes(&[&a], &mut rng) {
            let expect =
                tree.roots.iter().find(|b| b.prefix.contains(probe)).map(|b| b.prefix);
            assert_eq!(
                tree.block_of(probe).map(|b| b.prefix),
                expect,
                "block_of probe {probe}"
            );
        }
        for q in &a {
            let expect =
                tree.roots.iter().find(|b| b.prefix.covers(*q)).map(|b| b.prefix);
            assert_eq!(
                tree.covering_root(*q).map(|b| b.prefix),
                expect,
                "covering_root query {q}"
            );
        }
    }
}

#[test]
fn block_recovery_covers_all_inputs() {
    let mut rng = StdRng::seed_from_u64(0xB6);
    for _ in 0..200 {
        let a = random_prefixes(&mut rng);
        let tree = netaddr::recover_blocks(a.iter().copied());
        for p in &a {
            assert!(
                tree.roots.iter().any(|b| b.prefix.covers(*p)),
                "input {p} not covered by any root"
            );
        }
        let roots = tree.root_prefixes();
        for (i, x) in roots.iter().enumerate() {
            for y in &roots[i + 1..] {
                assert!(!x.overlaps(*y), "roots {x} and {y} overlap");
            }
        }
        for b in &tree.roots {
            assert!(b.used <= b.prefix.size());
        }
    }
}
