//! Snapshot robustness table test: an `.rdsnap` container truncated at
//! *every* frame boundary — with or without a freshly recomputed checksum
//! — must come back as a decode error, never a panic and never a
//! silently-partial corpus. Same for length-bomb variants that splice an
//! absurd section length behind a valid checksum: the decoder's hard caps
//! must reject them before allocating. The boundaries and length fields
//! come from rd-snap's frame table; one fixed container pins them, and
//! what each `rd-chaos` snapshot mutator makes of it, byte for byte.

use std::panic::catch_unwind;

use routing_design::{snapshot, NetworkAnalysis};

fn corpus_bytes() -> Vec<u8> {
    let texts = vec![
        (
            "ra".to_string(),
            "hostname ra\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
             router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
                .to_string(),
        ),
        (
            "rb".to_string(),
            "hostname rb\ninterface Ethernet0\n ip address 10.0.0.2 255.255.255.0\n\
             router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n"
                .to_string(),
        ),
    ];
    let analysis = NetworkAnalysis::from_texts(texts).expect("corpus parses");
    let snap = snapshot::capture("truncation-test", analysis);
    rd_snap::Corpus::new(vec![snap]).to_bytes()
}

/// `bytes` (a whole container) with the varint `field` replaced by
/// `value`, written as the container writer writes one, and a freshly
/// valid checksum, so only the structural decoder can reject it.
fn bomb(bytes: &[u8], field: std::ops::Range<usize>, value: u64) -> Vec<u8> {
    let mut varint = rd_snap::Writer::new();
    varint.u64(value);
    let mut body = bytes[..bytes.len() - 8].to_vec();
    body.splice(field, varint.into_bytes());
    let sum = rd_snap::fnv1a64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Decodes under `catch_unwind`; panics the test if decoding panics.
fn decode_must_error(bytes: Vec<u8>, what: &str) {
    let result = catch_unwind(move || rd_snap::Corpus::from_bytes(&bytes).map(|_| ()));
    match result {
        Ok(Err(_)) => {}
        Ok(Ok(())) => panic!("{what}: decoder accepted a damaged container"),
        Err(_) => panic!("{what}: decoder PANICKED instead of returning an error"),
    }
}

#[test]
fn truncation_at_every_boundary_is_an_error_not_a_panic() {
    let bytes = corpus_bytes();
    let boundaries = rd_snap::Frames::read(&bytes).expect("frame table").boundaries();
    let body_len = bytes.len() - 8;
    assert!(boundaries.len() >= 3 + 3, "too few boundaries: {boundaries:?}");

    for &cut in &boundaries {
        if cut >= body_len {
            continue; // cutting at the end reproduces the original
        }
        // Raw truncation: the trailer is destroyed along with the tail, so
        // the checksum gate must fire.
        decode_must_error(bytes[..cut].to_vec(), &format!("raw truncation at {cut}"));
        // Re-checksummed truncation: the trailer is valid for the damaged
        // body, so the *structural* decoder must catch the missing frames.
        decode_must_error(
            rd_chaos::truncate_rechecksum(&bytes, cut),
            &format!("re-checksummed truncation at {cut}"),
        );
    }
}

#[test]
fn length_bombs_are_rejected_by_the_decode_caps() {
    let bytes = corpus_bytes();
    let frames = rd_snap::Frames::read(&bytes).expect("frame table");
    assert!(!frames.sections.is_empty(), "no section length fields found");

    // Claimed lengths far beyond the real payload and beyond the decoder's
    // MAX_SECTION_BYTES cap. Each variant gets a freshly valid checksum so
    // only the cap can reject it.
    for frame in &frames.sections {
        for value in [u64::MAX, 1 << 40, u32::MAX as u64] {
            decode_must_error(
                bomb(&bytes, frame.len_field.clone(), value),
                &format!("length bomb {value:#x} at offset {}", frame.len_field.start),
            );
        }
    }
}

#[test]
fn section_count_bomb_is_rejected() {
    let bytes = corpus_bytes();
    // The section count lies between the ends of the version and the
    // count.
    let header = rd_snap::Frames::read(&bytes).expect("frame table").header;
    decode_must_error(bomb(&bytes, header[1]..header[2], u64::MAX), "section count bomb");
}

/// Two one-router networks, `alpha` and `beta`: 429 bytes.
fn pinned_container() -> Vec<u8> {
    let texts = |host: &str, octet: u8| {
        vec![(
            "config1".to_string(),
            format!(
                "hostname {host}\ninterface Ethernet0\n ip address 10.0.{octet}.1 255.255.255.0\n\
                 router ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
            ),
        )]
    };
    let alpha = NetworkAnalysis::from_texts(texts("ra", 1)).expect("alpha parses");
    let beta = NetworkAnalysis::from_texts(texts("rb", 2)).expect("beta parses");
    rd_snap::Corpus::new(vec![snapshot::capture("beta", beta), snapshot::capture("alpha", alpha)])
        .to_bytes()
}

/// The frame table of one fixed container, and the decode error each
/// cut and each snapshot mutator produces on it. Every figure was
/// captured from the container walker that rd-chaos carried before
/// rd-snap's frame table replaced it, and from the decoder of that time.
#[test]
fn frame_table_and_mutator_errors_are_pinned() {
    let bytes = pinned_container();
    assert_eq!(bytes.len(), 429);
    assert_eq!(rd_snap::fnv1a64(&bytes), 0x3e8d_6589_b10c_0d5f);
    let frames = rd_snap::Frames::read(&bytes).expect("frame table");
    assert_eq!(frames.boundaries(), [6, 7, 8, 14, 16, 202, 207, 209, 394, 413, 421]);
    let len_fields: Vec<_> = frames.sections.iter().map(|f| f.len_field.clone()).collect();
    assert_eq!(len_fields, [14..16, 207..209]);

    let cuts: &[(usize, &str)] = &[
        (6, "unexpected end of snapshot"),
        (7, "unexpected end of snapshot"),
        (8, "length 2 exceeds remaining 0 bytes"),
        (14, "unexpected end of snapshot"),
        (16, "length 186 exceeds remaining 0 bytes"),
        (202, "unexpected end of snapshot"),
        (207, "unexpected end of snapshot"),
        (209, "length 185 exceeds remaining 0 bytes"),
        (394, "manifest length 1146065880437736125 exceeds the container"),
        (413, "manifest length 124132463524210018 exceeds the container"),
    ];
    for &(cut, want) in cuts {
        let err = rd_snap::Corpus::from_bytes(&rd_chaos::truncate_rechecksum(&bytes, cut));
        assert_eq!(err.err().map(|e| e.message).as_deref(), Some(want), "cut at {cut}");
    }

    let mutated: &[(rd_chaos::SnapMutator, &str)] = &[
        (
            rd_chaos::SnapMutator::TruncateAtBoundary,
            "manifest length 1146065880437736125 exceeds the container",
        ),
        (
            rd_chaos::SnapMutator::BitFlip,
            "checksum mismatch: stored 825ca70fec8f48f9, computed 826a3f0fec9ad59d",
        ),
        (rd_chaos::SnapMutator::LengthBomb, "length 281474976710656 exceeds remaining 405 bytes"),
    ];
    for &(mutator, want) in mutated {
        let mut rng = rd_rng::StdRng::seed_from_u64(7);
        let out = rd_chaos::corrupt_snapshot(&mut rng, mutator, &bytes);
        let err = rd_snap::Corpus::from_bytes(&out);
        assert_eq!(err.err().map(|e| e.message).as_deref(), Some(want), "{}", mutator.name());
    }
}

/// The delta engine seeds from a decoded corpus and re-encodes each
/// network's payload, which reproduces the container only if decoding it
/// and encoding the corpus again gives back its bytes. Checked over the
/// whole small study.
#[test]
fn decoding_then_encoding_the_small_study_gives_back_its_bytes() {
    let scale = netgen::StudyScale::Small;
    let roster = netgen::study_roster(scale);
    let networks = rd_par::par_map(&roster, |_, spec| {
        let texts = netgen::study::generate_network(spec, scale).texts;
        let analysis = NetworkAnalysis::from_texts(texts).expect("study network parses");
        snapshot::capture(&spec.name, analysis)
    });
    let bytes = rd_snap::Corpus::new(networks).to_bytes();
    let decoded = rd_snap::Corpus::from_bytes(&bytes).expect("container decodes");
    assert_eq!(decoded.networks.len(), roster.len());
    assert!(decoded.to_bytes() == bytes, "decode then encode changed the container's bytes");
}
