//! `rd-chaos`: a deterministic fault-injection engine for the toolchain.
//!
//! The paper's methodology was forged on 8,035 *anonymized production*
//! configs — truncated files, encoding damage, anonymization smears and
//! per-network quirks included — while this repository's pipeline
//! normally only sees pristine `netgen` output. This crate closes that
//! gap: it turns clean corpora into systematically damaged ones so the
//! rest of the toolchain can prove the invariant
//! **error-not-panic, bounded memory, deterministic diagnostics**.
//!
//! Two corruption surfaces:
//!
//! - [`ConfigMutator`]: composable byte-level mutations of router
//!   configuration files (mid-line truncation, garbage/binary bytes,
//!   non-UTF-8 sequences, CRLF/whitespace mangling, dropped `!` section
//!   terminators, duplicated hostnames, deleted files, zero-byte files,
//!   over-long lines, anonymization-style token smears).
//! - [`SnapMutator`]: corruption of `.rdsnap` containers (truncation at
//!   every frame boundary — with the checksum *recomputed*, so the damage
//!   reaches the decoder instead of dying at the checksum gate — plus raw
//!   bit flips and length-prefix bombs). The boundaries and length fields
//!   come from the container's frame table, [`rd_snap::Frames`]: rd-snap
//!   is the one reader of the container framing, and this crate walks
//!   none of it itself.
//!
//! Everything is driven by `rd_rng::StdRng`, so a seed fully determines
//! the fault corpus: two sweeps with the same seed mutate identically on
//! any machine at any `RD_THREADS`. The sweep driver itself lives in
//! `rdx chaos` (the `routing-design` crate); this crate stays at the
//! byte level and depends only on `rd-rng` and `rd-snap`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rd_rng::StdRng;

// ---------------------------------------------------------------------------
// Configuration-file mutators

/// One way to damage a configuration file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigMutator {
    /// Cut the file mid-line (not at a line boundary), like an
    /// interrupted transfer.
    TruncateMidLine,
    /// Splice a short run of random binary bytes into the file.
    GarbageBytes,
    /// Overwrite a span with bytes that are not valid UTF-8.
    InvalidUtf8,
    /// Rewrite line endings to CRLF for a random subset of lines and
    /// sprinkle stray carriage returns and tabs.
    CrlfMangle,
    /// Drop every `!` section-terminator line.
    DropBangs,
    /// Append a duplicate `hostname` command with a clashing name.
    DuplicateHostname,
    /// Delete the file from the corpus entirely.
    DeleteFile,
    /// Replace the file with zero bytes.
    EmptyFile,
    /// Append a single absurdly long command line.
    OverlongLine,
    /// Smear random alphanumeric tokens into `XXXX` runs, the way
    /// aggressive anonymizers do.
    TokenSmear,
}

/// Every config mutator, in a fixed order (sweeps cycle through this so
/// each mutator gets coverage regardless of trial count).
pub const CONFIG_MUTATORS: &[ConfigMutator] = &[
    ConfigMutator::TruncateMidLine,
    ConfigMutator::GarbageBytes,
    ConfigMutator::InvalidUtf8,
    ConfigMutator::CrlfMangle,
    ConfigMutator::DropBangs,
    ConfigMutator::DuplicateHostname,
    ConfigMutator::DeleteFile,
    ConfigMutator::EmptyFile,
    ConfigMutator::OverlongLine,
    ConfigMutator::TokenSmear,
];

/// Config trial `trial` of a sweep seeded with `seed`: its mutator (trials
/// cycle through [`CONFIG_MUTATORS`]) and a generator derived from
/// `(seed, trial)` alone, so the damage never depends on worker or order.
pub fn config_trial(seed: u64, trial: usize) -> (ConfigMutator, StdRng) {
    let mutator = CONFIG_MUTATORS[trial % CONFIG_MUTATORS.len()];
    let rng = StdRng::seed_from_u64(seed ^ (trial as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (mutator, rng)
}

impl ConfigMutator {
    /// Stable kebab-case name (used in sweep summaries).
    pub fn name(self) -> &'static str {
        match self {
            ConfigMutator::TruncateMidLine => "truncate-mid-line",
            ConfigMutator::GarbageBytes => "garbage-bytes",
            ConfigMutator::InvalidUtf8 => "invalid-utf8",
            ConfigMutator::CrlfMangle => "crlf-mangle",
            ConfigMutator::DropBangs => "drop-bangs",
            ConfigMutator::DuplicateHostname => "duplicate-hostname",
            ConfigMutator::DeleteFile => "delete-file",
            ConfigMutator::EmptyFile => "empty-file",
            ConfigMutator::OverlongLine => "overlong-line",
            ConfigMutator::TokenSmear => "token-smear",
        }
    }
}

/// Applies `mutator` to one configuration file. Returns `None` when the
/// file is deleted from the corpus ([`ConfigMutator::DeleteFile`]);
/// otherwise the mutated bytes. Deterministic in (`rng` state, input).
pub fn mutate_config(rng: &mut StdRng, mutator: ConfigMutator, bytes: &[u8]) -> Option<Vec<u8>> {
    let mut out = bytes.to_vec();
    match mutator {
        ConfigMutator::TruncateMidLine => {
            if out.len() > 2 {
                // Aim inside a line: step back from a random cut until the
                // previous byte is not a newline.
                let mut cut = rng.gen_range(1..out.len());
                while cut > 1 && out[cut - 1] == b'\n' {
                    cut -= 1;
                }
                out.truncate(cut);
            }
        }
        ConfigMutator::GarbageBytes => {
            let n = rng.gen_range(1..=64usize);
            let at = rng.gen_range(0..=out.len());
            let garbage: Vec<u8> = (0..n).map(|_| (rng.next_u32() & 0xff) as u8).collect();
            out.splice(at..at, garbage);
        }
        ConfigMutator::InvalidUtf8 => {
            if out.is_empty() {
                out.extend_from_slice(&[0xff, 0xfe]);
            } else {
                let at = rng.gen_range(0..out.len());
                let n = rng.gen_range(1..=4usize).min(out.len() - at);
                for b in &mut out[at..at + n] {
                    // 0xF8..0xFF never appear in well-formed UTF-8.
                    *b = 0xf8 | ((rng.next_u32() & 0x07) as u8);
                }
            }
        }
        ConfigMutator::CrlfMangle => {
            let mut mangled = Vec::with_capacity(out.len() + 16);
            for &b in &out {
                if b == b'\n' && rng.gen_bool(0.5) {
                    mangled.push(b'\r');
                }
                mangled.push(b);
                if b == b' ' && rng.gen_bool(0.05) {
                    mangled.push(b'\t');
                }
            }
            out = mangled;
        }
        ConfigMutator::DropBangs => {
            let text: Vec<u8> = out
                .split(|&b| b == b'\n')
                .filter(|line| line.iter().any(|&b| b != b'!' && b != b' ' && b != b'\r'))
                .flat_map(|line| line.iter().copied().chain(std::iter::once(b'\n')))
                .collect();
            out = text;
        }
        ConfigMutator::DuplicateHostname => {
            let tag = rng.gen_range(0..10_000u32);
            out.extend_from_slice(format!("hostname dup-{tag}\n").as_bytes());
        }
        ConfigMutator::DeleteFile => return None,
        ConfigMutator::EmptyFile => out.clear(),
        ConfigMutator::OverlongLine => {
            let len = rng.gen_range(16_384..=65_536usize);
            out.extend_from_slice(b"description ");
            out.extend(std::iter::repeat(b'x').take(len));
            out.push(b'\n');
        }
        ConfigMutator::TokenSmear => {
            let mut i = 0usize;
            while i < out.len() {
                if out[i].is_ascii_alphanumeric() {
                    let start = i;
                    while i < out.len() && out[i].is_ascii_alphanumeric() {
                        i += 1;
                    }
                    if i - start >= 3 && rng.gen_bool(0.15) {
                        for b in &mut out[start..i] {
                            *b = b'X';
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------------
// Snapshot corruptors

/// One way to damage an `.rdsnap` container.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapMutator {
    /// Truncate the body at a frame boundary and *recompute the checksum*
    /// so the decoder sees internally-consistent-looking truncation
    /// instead of failing at the checksum gate.
    TruncateAtBoundary,
    /// Flip one random bit anywhere in the file (checksum included).
    BitFlip,
    /// Rewrite one section's length prefix to a huge value (checksum
    /// recomputed): an attacker-controlled allocation probe.
    LengthBomb,
}

/// Every snapshot mutator, in a fixed order.
pub const SNAP_MUTATORS: &[SnapMutator] =
    &[SnapMutator::TruncateAtBoundary, SnapMutator::BitFlip, SnapMutator::LengthBomb];

impl SnapMutator {
    /// Stable kebab-case name (used in sweep summaries).
    pub fn name(self) -> &'static str {
        match self {
            SnapMutator::TruncateAtBoundary => "truncate-at-boundary",
            SnapMutator::BitFlip => "bit-flip",
            SnapMutator::LengthBomb => "length-bomb",
        }
    }
}

/// Truncates the body at `cut` and appends a freshly computed checksum,
/// producing a file whose trailer is valid for its (damaged) body.
pub fn truncate_rechecksum(bytes: &[u8], cut: usize) -> Vec<u8> {
    let body_len = bytes.len().saturating_sub(8);
    let cut = cut.min(body_len);
    let mut out = bytes[..cut].to_vec();
    let sum = rd_snap::fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Applies `mutator` to a snapshot file. Deterministic in (`rng` state,
/// input bytes). Frame boundaries and length fields come from the
/// container's frame table ([`rd_snap::Frames`]); a container too damaged
/// to read gets raw positions instead.
pub fn corrupt_snapshot(rng: &mut StdRng, mutator: SnapMutator, bytes: &[u8]) -> Vec<u8> {
    match mutator {
        SnapMutator::TruncateAtBoundary => {
            let body_len = bytes.len().saturating_sub(8);
            // Boundaries strictly inside the body: cutting at the very end
            // would reproduce the original file, which is not a fault.
            let cuts: Vec<usize> = rd_snap::Frames::read(bytes)
                .map(|f| f.boundaries())
                .unwrap_or_default()
                .into_iter()
                .filter(|&b| b < body_len)
                .collect();
            let cut = if cuts.is_empty() {
                rng.gen_range(0..body_len.max(1))
            } else {
                cuts[rng.gen_range(0..cuts.len())]
            };
            truncate_rechecksum(bytes, cut)
        }
        SnapMutator::BitFlip => {
            let mut out = bytes.to_vec();
            if !out.is_empty() {
                let at = rng.gen_range(0..out.len());
                out[at] ^= 1 << rng.gen_range(0..8u32);
            }
            out
        }
        SnapMutator::LengthBomb => {
            let sections = rd_snap::Frames::read(bytes).map(|f| f.sections).unwrap_or_default();
            let mut out = bytes[..bytes.len().saturating_sub(8)].to_vec();
            if let Some(frame) = sections.get(rng.gen_range(0..sections.len().max(1))) {
                // A bomb well past any plausible corpus size, but still a
                // valid varint: the decoder's length caps must reject it
                // before allocating.
                let mut bomb = rd_snap::Writer::new();
                bomb.u64(1u64 << rng.gen_range(40..62u32));
                out.splice(frame.len_field.clone(), bomb.into_bytes());
            } else if !out.is_empty() {
                let at = out.len() - 1;
                out[at] = 0xff; // dangling continuation bit
            }
            let sum = rd_snap::fnv1a64(&out);
            out.extend_from_slice(&sum.to_le_bytes());
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Disk-fault injectors

/// One way a snapshot persist (or the analysis feeding it) can go wrong
/// on a real machine: the faults `rdx watch` must survive without ever
/// serving a torn or mixed-version snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// The process dies (or the disk fills) mid-write: a prefix of the
    /// bytes lands in the staging `.tmp`, the rename never happens.
    TornWrite,
    /// A buggy short write: only the first few bytes make it to the
    /// staging `.tmp` before the write errors out.
    ShortWrite,
    /// The staging file is written completely — valid bytes and all —
    /// but the final rename fails, leaving a *valid but stale* `.tmp`.
    RenameFailure,
    /// The write itself is fine; the analysis producing it stalls
    /// (seeded sleep), so changes pile up behind a slow worker.
    SlowAnalysis,
}

/// Every disk fault, in a fixed sweep order.
pub const DISK_FAULTS: &[DiskFault] =
    &[DiskFault::TornWrite, DiskFault::ShortWrite, DiskFault::RenameFailure, DiskFault::SlowAnalysis];

impl DiskFault {
    /// Stable name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            DiskFault::TornWrite => "torn_write",
            DiskFault::ShortWrite => "short_write",
            DiskFault::RenameFailure => "rename_failure",
            DiskFault::SlowAnalysis => "slow_analysis",
        }
    }
}

/// Persists `bytes` to `path` the way a machine suffering `fault` would:
/// the on-disk aftermath is real (a torn or stale `rd_snap::tmp_path`
/// staging file where the fault calls for one) and the returned error
/// mirrors what the caller's `write_atomic` would have surfaced.
/// [`DiskFault::SlowAnalysis`] is not a write fault — it sleeps a seeded
/// few milliseconds and then persists correctly.
///
/// Deterministic for a given `(rng state, fault, bytes)`; the caller's
/// recovery path (`rd_snap::recover_dir` + serving last-good) is what the
/// chaos soak asserts on.
pub fn faulty_persist(
    rng: &mut StdRng,
    fault: DiskFault,
    path: &std::path::Path,
    bytes: &[u8],
) -> std::io::Result<()> {
    use std::io::{Error, ErrorKind};
    let tmp = rd_snap::tmp_path(path);
    match fault {
        DiskFault::TornWrite => {
            // Anywhere strictly inside the payload: the checksum trailer
            // can never be complete, so a later reader must reject it.
            let cut = rng.gen_range(1..bytes.len().max(2));
            std::fs::write(&tmp, &bytes[..cut.min(bytes.len())])?;
            Err(Error::new(ErrorKind::UnexpectedEof, "torn write (injected)"))
        }
        DiskFault::ShortWrite => {
            let cut = rng.gen_range(0..=bytes.len().min(64));
            std::fs::write(&tmp, &bytes[..cut])?;
            Err(Error::new(ErrorKind::WriteZero, "short write (injected)"))
        }
        DiskFault::RenameFailure => {
            std::fs::write(&tmp, bytes)?;
            Err(Error::other("rename failed (injected)"))
        }
        DiskFault::SlowAnalysis => {
            std::thread::sleep(std::time::Duration::from_millis(rng.gen_range(1..10)));
            rd_snap::write_atomic(path, bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    const SAMPLE: &[u8] = b"hostname r1\n!\ninterface Serial0\n ip address 10.0.0.1 255.255.255.252\n!\nend\n";

    #[test]
    fn mutators_are_deterministic() {
        for &m in CONFIG_MUTATORS {
            let a = mutate_config(&mut rng(), m, SAMPLE);
            let b = mutate_config(&mut rng(), m, SAMPLE);
            assert_eq!(a, b, "{} not deterministic", m.name());
        }
    }

    #[test]
    fn mutators_change_or_remove_the_input() {
        for &m in CONFIG_MUTATORS {
            match mutate_config(&mut rng(), m, SAMPLE) {
                None => assert_eq!(m, ConfigMutator::DeleteFile),
                Some(out) => {
                    assert_ne!(out, SAMPLE, "{} left input intact", m.name());
                }
            }
        }
    }

    #[test]
    fn empty_file_mutator_produces_zero_bytes() {
        assert_eq!(
            mutate_config(&mut rng(), ConfigMutator::EmptyFile, SAMPLE),
            Some(Vec::new())
        );
    }

    #[test]
    fn invalid_utf8_mutator_breaks_utf8() {
        let out = mutate_config(&mut rng(), ConfigMutator::InvalidUtf8, SAMPLE).unwrap();
        assert!(std::str::from_utf8(&out).is_err());
    }

    #[test]
    fn truncate_rechecksum_keeps_trailer_valid() {
        let corpus = rd_snap::Corpus::default();
        let bytes = corpus.to_bytes();
        let cut = truncate_rechecksum(&bytes, 7);
        assert_eq!(cut.len(), 7 + 8);
        let stored = u64::from_le_bytes(cut[7..].try_into().expect("8-byte trailer"));
        assert_eq!(stored, rd_snap::fnv1a64(&cut[..7]));
    }

    #[test]
    fn snapshot_corruptors_are_deterministic() {
        let corpus = rd_snap::Corpus::default();
        let bytes = corpus.to_bytes();
        for &m in SNAP_MUTATORS {
            let a = corrupt_snapshot(&mut rng(), m, &bytes);
            let b = corrupt_snapshot(&mut rng(), m, &bytes);
            assert_eq!(a, b, "{} not deterministic", m.name());
            assert!(rd_snap::Corpus::from_bytes(&a).is_err(), "{} decoded", m.name());
        }
    }
}
