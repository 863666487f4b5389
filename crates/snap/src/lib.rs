//! `rd-snap`: a versioned, compact binary snapshot format for fully
//! analyzed routing-design corpora.
//!
//! Re-running the analysis pipeline over a config corpus costs parse +
//! topology + routing-model time on every `rdx`/`repro` invocation. A
//! snapshot pays that cost once: `rdx snap <dir> -o study.rdsnap`
//! serializes every derived product — parsed configs, links, external
//! classification, processes, adjacencies, instances, both graphs,
//! address blocks, Table 1, the design summary and all diagnostics — and
//! the loader restores the whole corpus without ever touching the IOS
//! parser. `repro --bench` records the two in `BENCH_repro.json`'s `snap`
//! section: at full scale the committed run loads in 99.5 ms against
//! 789.8 ms of summed analysis stages, 7.9× faster.
//!
//! # Container format
//!
//! ```text
//! +---------------------------+
//! | magic  "RDSNAP"  (6 B)    |
//! | format version   (varint) |
//! | section count    (varint) |
//! +---------------------------+
//! | section: name    (string) |  repeated `section count` times;
//! |          length  (varint) |  one section per network, sorted
//! |          payload (bytes)  |  by network name
//! +---------------------------+
//! | manifest: count  (varint) |  per section: name (string),
//! |   entries        (bytes)  |  absolute payload offset (varint),
//! |                           |  payload length (varint)
//! | manifest length  (8 B LE) |  fixed width, so the manifest is
//! |                           |  locatable from the end of the file
//! +---------------------------+
//! | FNV-1a-64 checksum (8 B,  |  over every preceding byte
//! |   little endian)          |
//! +---------------------------+
//! ```
//!
//! All multi-byte integers inside payloads are LEB128 varints (see
//! [`codec`]); the only fixed-width fields are the 8-byte manifest length
//! and the 8-byte checksum trailer. The loader validates magic, version
//! and checksum before looking at any section, so truncation and bit rot
//! are detected up front. Sections are length-prefixed, which lets a
//! reader skip networks it does not care about without decoding them.
//!
//! The manifest footer ([`Manifest`]) indexes each section's payload by
//! absolute byte range. It is purely structural — derivable from the
//! sections themselves — so re-encoding a decoded corpus reproduces it
//! byte for byte. Its purpose is incremental splicing: the delta engine
//! copies an unchanged network's encoded bytes straight out of the
//! previous container (located via the manifest) instead of re-encoding
//! the network, and [`assemble_container`] glues pre-encoded payloads
//! back into a valid container.
//!
//! The payload layout is *not* self-describing. The `snap_struct!` and
//! `snap_enum!` declarations in [`model`] (and [`NetworkSnapshot`]'s
//! below) are the format, together with the few hand-written `Snap`
//! impls beside them: editing a tag or a field order, or any hand-written
//! impl, changes the bytes and requires a [`FORMAT_VERSION`] bump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Implements [`Snap`] for a struct as the listed fields, in the order
/// listed: `snap_struct!(Link { subnet, endpoints })`. A tuple struct
/// names its fields as in a pattern: `snap_struct!(RouterId(index))`.
/// Decode builds the value from the list, so it must name every field.
macro_rules! snap_struct {
    ($ty:ident ( $($field:ident),+ $(,)? )) => {
        impl Snap for $ty {
            fn encode(&self, w: &mut Writer) {
                let Self($($field),+) = self;
                $($field.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                $(let $field = Snap::decode(r)?;)+
                Ok(Self($($field),+))
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl Snap for $ty {
            fn encode(&self, w: &mut Writer) {
                $(self.$field.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                $(let $field = Snap::decode(r)?;)+
                Ok(Self { $($field),+ })
            }
        }
    };
}

/// Implements [`Snap`] for an enum as a one-byte tag followed by the
/// variant's fields in order. Unit, tuple and struct variants mix freely;
/// tuple fields are named as in a pattern:
/// `snap_enum!(AclAddr { 0 => Any, 1 => Host(addr), 2 => Wild(addr, wildcard) })`.
/// Encode matches on the list, so it must name every variant and field.
/// Any other tag fails to decode with `invalid <type> tag <byte>`.
macro_rules! snap_enum {
    ($ty:ty {
        $($tag:literal => $variant:ident
            $(( $($pos:ident),+ ))?
            $({ $($field:ident),+ })?
        ),+ $(,)?
    }) => {
        impl Snap for $ty {
            fn encode(&self, w: &mut Writer) {
                match self {
                    $(Self::$variant $(( $($pos),+ ))? $({ $($field),+ })? => {
                        w.byte($tag);
                        $($($pos.encode(w);)+)?
                        $($($field.encode(w);)+)?
                    })+
                }
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                match r.byte()? {
                    $($tag => {
                        $($(let $pos = Snap::decode(r)?;)+)?
                        $($(let $field = Snap::decode(r)?;)+)?
                        Ok(Self::$variant $(( $($pos),+ ))? $({ $($field),+ })?)
                    })+
                    b => Err(DecodeError::new(format!(
                        concat!("invalid ", stringify!($ty), " tag {}"), b))),
                }
            }
        }
    };
}

pub mod codec;
mod model;

pub use codec::{fnv1a64, fnv1a64_extend, DecodeError, Reader, Snap, Writer};

use ioscfg::RouterConfig;
use netaddr::BlockTree;
use nettopo::{ExternalAnalysis, LinkMap, Network};
use routing_model::{
    Adjacencies, DesignSummary, InstanceGraph, Instances, ProcessGraph, Processes, Table1,
};

/// Magic bytes at the start of every snapshot file.
pub const MAGIC: &[u8; 6] = b"RDSNAP";

/// Current snapshot format version. Bump on any layout change.
/// Version 2 added per-network corpus coverage (`nettopo::Coverage`).
/// Version 3 added the manifest footer (per-network section offsets)
/// and per-network config file hashes (`NetworkSnapshot::file_hashes`).
pub const FORMAT_VERSION: u16 = 3;

/// Hard cap on the section count a reader will accept. Sections are one
/// per network; no plausible corpus approaches this, so anything larger
/// is treated as a corrupted or hostile length prefix rather than an
/// allocation request.
pub const MAX_SECTIONS: usize = 65_536;

/// Hard cap on a single section's declared payload length (1 GiB). The
/// byte-level `Reader::len` already bounds every length prefix by the
/// bytes actually present; this coarser cap additionally bounds what a
/// `write_file`/`read_file` round trip will ever produce per network.
pub const MAX_SECTION_BYTES: usize = 1 << 30;

/// The complete analysis of one network, as stored in a snapshot.
///
/// This mirrors `routing_design::NetworkAnalysis` minus its stage timings
/// (timings describe the run that produced the analysis, not the analysis
/// itself, so they are not part of the artifact).
#[derive(Clone, Debug)]
pub struct NetworkSnapshot {
    /// Corpus-level network name (e.g. `net15`).
    pub name: String,
    /// The parsed configurations (with parse-time diagnostics).
    pub network: Network,
    /// Inferred logical links.
    pub links: LinkMap,
    /// Internal/external interface classification.
    pub external: ExternalAnalysis,
    /// Routing processes.
    pub processes: Processes,
    /// IGP adjacencies and BGP sessions.
    pub adjacencies: Adjacencies,
    /// Routing instances.
    pub instances: Instances,
    /// The routing instance graph.
    pub instance_graph: InstanceGraph,
    /// The routing process graph.
    pub process_graph: ProcessGraph,
    /// Recovered address-space structure.
    pub blocks: BlockTree,
    /// Intra/inter role counts (Table 1).
    pub table1: Table1,
    /// Design classification.
    pub design: DesignSummary,
    /// End-to-end pipeline diagnostics (parse + topology + design).
    pub diagnostics: rd_obs::Diagnostics,
    /// Raw-byte FNV-1a-64 hash of each input config file, in the input
    /// order the analysis consumed them. This is what lets a delta engine
    /// decide, file by file, whether a restored network is still current
    /// without re-reading any parse product. Empty for analyses built
    /// from sources that never materialized raw bytes.
    pub file_hashes: Vec<(String, u64)>,
}

snap_struct!(NetworkSnapshot {
    name,
    network,
    links,
    external,
    processes,
    adjacencies,
    instances,
    instance_graph,
    process_graph,
    blocks,
    table1,
    design,
    diagnostics,
    file_hashes,
});

/// A snapshotted corpus: one or more fully analyzed networks.
///
/// Networks are held behind [`Arc`] so a corpus clone — handing the same
/// snapshot to a server, a watcher publish, or an incremental-refresh
/// result — is a refcount bump per network, not a deep copy of every
/// parsed structure. Snapshots are immutable once captured, so sharing
/// is safe; encoding reads through the `Arc` and produces the same
/// bytes as an owned corpus would.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    /// The networks, sorted by name (the encoder enforces the order, so
    /// equal corpora produce byte-identical snapshots).
    pub networks: Vec<std::sync::Arc<NetworkSnapshot>>,
}

impl Corpus {
    /// Builds a corpus, sorting networks into canonical (name) order.
    pub fn new(networks: Vec<NetworkSnapshot>) -> Corpus {
        Corpus::from_shared(networks.into_iter().map(std::sync::Arc::new).collect())
    }

    /// Builds a corpus from already-shared networks (no re-allocation),
    /// sorting into canonical (name) order.
    pub fn from_shared(mut networks: Vec<std::sync::Arc<NetworkSnapshot>>) -> Corpus {
        networks.sort_by(|a, b| a.name.cmp(&b.name));
        Corpus { networks }
    }

    /// Looks up a network by name.
    pub fn get(&self, name: &str) -> Option<&NetworkSnapshot> {
        self.networks.iter().find(|n| n.name == name).map(|n| n.as_ref())
    }

    /// Serializes the corpus into the container format. Sections are
    /// independent, so their payloads encode in parallel over `rd-par`
    /// (`RD_THREADS` applies); assembly order is canonical regardless,
    /// so the bytes never depend on the worker count.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Canonical order regardless of how the corpus was assembled.
        let mut order: Vec<usize> = (0..self.networks.len()).collect();
        order.sort_by(|&a, &b| self.networks[a].name.cmp(&self.networks[b].name));
        let payloads = rd_par::par_map(&order, |_, &i| {
            let mut section = Writer::new();
            self.networks[i].encode(&mut section);
            section.into_bytes()
        });
        let sections: Vec<(&str, &[u8])> = order
            .iter()
            .zip(&payloads)
            .map(|(&i, payload)| (self.networks[i].name.as_str(), payload.as_slice()))
            .collect();
        assemble_container(&sections)
    }

    /// Deserializes a corpus, validating magic, version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Corpus, DecodeError> {
        let body = validated_body(bytes)?;
        let mut r = Reader::new(body);
        let count = read_header(&mut r)?;
        // First pass: slice out the (name, payload) frames sequentially —
        // cheap, no decoding. Second pass: decode section payloads in
        // parallel over `rd-par`; results come back in input order, so
        // the corpus is identical at any `RD_THREADS`.
        let mut sections = Vec::with_capacity(count);
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.string()?;
            let len = r.len()?;
            if len > MAX_SECTION_BYTES {
                return Err(DecodeError::new(format!(
                    "section '{name}' declares {len} bytes, over the {MAX_SECTION_BYTES} cap"
                )));
            }
            let offset = r.position();
            sections.push((name.clone(), r.raw(len)?));
            entries.push(ManifestEntry { name, offset, len });
        }
        // What remains must be exactly the manifest payload plus its
        // 8-byte length field, and the manifest must agree with the
        // frames just sliced — the splicing index is only trustworthy if
        // it matches the data it indexes.
        let declared = read_manifest_len(body)?;
        if r.remaining() != declared + 8 {
            return Err(DecodeError::new(format!(
                "{} bytes between last section and manifest length field \
                 (manifest declares {declared})",
                r.remaining().saturating_sub(8),
            )));
        }
        let manifest = decode_manifest(r.raw(declared)?)?;
        if manifest.entries != entries {
            return Err(DecodeError::new(
                "manifest does not match the section frames it indexes",
            ));
        }
        let decoded = rd_par::par_map(&sections, |_, (name, payload)| {
            let mut pr = Reader::new(payload);
            let net = NetworkSnapshot::decode(&mut pr)?;
            if !pr.is_at_end() {
                return Err(DecodeError::new(format!(
                    "section '{name}' has {} trailing bytes",
                    pr.remaining()
                )));
            }
            if net.name != *name {
                return Err(DecodeError::new(format!(
                    "section name '{name}' does not match network name '{}'",
                    net.name
                )));
            }
            Ok(net)
        });
        let mut networks = Vec::with_capacity(count);
        for result in decoded {
            networks.push(std::sync::Arc::new(result?));
        }
        Ok(Corpus { networks })
    }

    /// Writes the snapshot to a file via [`write_atomic`]: a crash at any
    /// point leaves either the previous file or the new one, never a torn
    /// mix.
    pub fn write_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        write_atomic(path, &self.to_bytes())
    }

    /// Reads a snapshot from a file.
    pub fn read_file(path: &std::path::Path) -> Result<Corpus, String> {
        Self::read_file_with_trailer(path).map(|(corpus, _)| corpus)
    }

    /// Reads a snapshot from a file, also returning its FNV-1a-64
    /// checksum trailer — the content identity `rd-serve` exposes as the
    /// `ETag` of every snapshot-derived response. The trailer comes
    /// straight from the validated container bytes, so equal corpora have
    /// equal trailers and any re-analysis that changes a single byte of
    /// the snapshot changes it.
    pub fn read_file_with_trailer(path: &std::path::Path) -> Result<(Corpus, u64), String> {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let corpus =
            Corpus::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        let trailer = trailer_of(&bytes)
            .ok_or_else(|| format!("{}: snapshot shorter than its trailer", path.display()))?;
        Ok((corpus, trailer))
    }

    /// The FNV-1a-64 trailer this corpus would serialize with. Encodes
    /// the whole container to compute it — cheap for query-server reloads
    /// (once per snapshot swap), not something to call per request.
    pub fn trailer(&self) -> u64 {
        let bytes = self.to_bytes();
        trailer_of(&bytes).unwrap_or_default()
    }
}

/// One manifest entry: a section's name and the absolute byte range its
/// encoded payload occupies in the container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Section (network) name, matching the frame's name field.
    pub name: String,
    /// Absolute offset of the payload's first byte from the start of the
    /// container.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// The per-section offset table stored as the container's footer.
///
/// Purely structural — [`Corpus::to_bytes`] regenerates it from the
/// sections, so it never carries state of its own — but it lets a reader
/// locate any network's encoded payload without walking the frames:
/// [`Manifest::read`] validates only the checksum/magic/version and the
/// footer itself, never decoding a section. The delta engine uses this
/// to splice unchanged networks' bytes from a previous container, and
/// `rdx snap --info` prints it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Entries in container (canonical name) order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Reads the manifest footer from full container bytes, validating
    /// the checksum, magic, and version but decoding no section payload.
    pub fn read(bytes: &[u8]) -> Result<Manifest, DecodeError> {
        let body = validated_body(bytes)?;
        let mut r = Reader::new(body);
        let count = read_header(&mut r)?;
        let declared = read_manifest_len(body)?;
        let manifest_start = body
            .len()
            .checked_sub(8 + declared)
            .filter(|&s| s >= r.position())
            .ok_or_else(|| {
                DecodeError::new("manifest length field overlaps the container header")
            })?;
        let manifest = decode_manifest(&body[manifest_start..body.len() - 8])?;
        if manifest.entries.len() != count {
            return Err(DecodeError::new(format!(
                "manifest holds {} entries but the header declares {count} sections",
                manifest.entries.len()
            )));
        }
        for e in &manifest.entries {
            let end = e.offset.checked_add(e.len);
            if e.offset < MAGIC.len() || end.map_or(true, |end| end > manifest_start) {
                return Err(DecodeError::new(format!(
                    "manifest entry '{}' points outside the section region",
                    e.name
                )));
            }
        }
        Ok(manifest)
    }

    /// The payload byte range of section `name`, sliced out of the same
    /// container bytes the manifest was read from.
    pub fn payload<'a>(&self, bytes: &'a [u8], name: &str) -> Option<&'a [u8]> {
        let e = self.entries.iter().find(|e| e.name == name)?;
        bytes.get(e.offset..e.offset + e.len)
    }
}

/// Glues pre-encoded section payloads (already in canonical sorted name
/// order) into a complete container: header, frames, manifest footer,
/// checksum. [`Corpus::to_bytes`] is exactly this over freshly encoded
/// payloads, so splicing a cached payload for an unchanged network
/// produces bytes identical to a cold re-encode.
pub fn assemble_container(sections: &[(&str, &[u8])]) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u64(u64::from(FORMAT_VERSION));
    w.u64(sections.len() as u64);
    let mut offsets = Vec::with_capacity(sections.len());
    for (name, payload) in sections {
        w.string(name);
        w.u64(payload.len() as u64);
        offsets.push(w.len());
        w.raw(payload);
    }
    let mut m = Writer::new();
    m.u64(sections.len() as u64);
    for ((name, payload), offset) in sections.iter().zip(&offsets) {
        m.string(name);
        m.u64(*offset as u64);
        m.u64(payload.len() as u64);
    }
    let manifest = m.into_bytes();
    w.raw(&manifest);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&(manifest.len() as u64).to_le_bytes());
    let sum = fnv1a64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Validates the container's length and checksum, returning the body
/// (everything before the 8-byte trailer).
fn validated_body(bytes: &[u8]) -> Result<&[u8], DecodeError> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(DecodeError::new("snapshot shorter than header + checksum"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let mut trailer_bytes = [0u8; 8];
    trailer_bytes.copy_from_slice(trailer);
    let stored = u64::from_le_bytes(trailer_bytes);
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(DecodeError::new(format!(
            "checksum mismatch: stored {stored:016x}, computed {actual:016x}"
        )));
    }
    Ok(body)
}

/// Reads and validates the container header (magic, version, section
/// count), leaving `r` positioned at the first section frame.
fn read_header(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    if r.raw(MAGIC.len())? != MAGIC {
        return Err(DecodeError::new("bad magic: not an rd-snap file"));
    }
    let version = r.u64()?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(DecodeError::new(format!(
            "unsupported snapshot format version {version} (this tool reads {FORMAT_VERSION})"
        )));
    }
    let count = r.len()?;
    if count > MAX_SECTIONS {
        return Err(DecodeError::new(format!(
            "section count {count} exceeds hard cap {MAX_SECTIONS}"
        )));
    }
    Ok(count)
}

/// Reads the fixed-width manifest length field from the last 8 bytes of
/// the body, bounds-checked against the body itself.
fn read_manifest_len(body: &[u8]) -> Result<usize, DecodeError> {
    if body.len() < MAGIC.len() + 8 {
        return Err(DecodeError::new("container too short for a manifest length field"));
    }
    let mut field = [0u8; 8];
    field.copy_from_slice(&body[body.len() - 8..]);
    let declared = u64::from_le_bytes(field);
    usize::try_from(declared)
        .ok()
        .filter(|&d| d + 8 <= body.len())
        .ok_or_else(|| {
            DecodeError::new(format!("manifest length {declared} exceeds the container"))
        })
}

/// Decodes the manifest payload (count + entries).
fn decode_manifest(payload: &[u8]) -> Result<Manifest, DecodeError> {
    let mut r = Reader::new(payload);
    let count = r.len()?;
    if count > MAX_SECTIONS {
        return Err(DecodeError::new(format!(
            "manifest entry count {count} exceeds hard cap {MAX_SECTIONS}"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name = r.string()?;
        let offset = r.usize()?;
        let len = r.usize()?;
        entries.push(ManifestEntry { name, offset, len });
    }
    if !r.is_at_end() {
        return Err(DecodeError::new(format!(
            "{} trailing bytes after the manifest entries",
            r.remaining()
        )));
    }
    Ok(Manifest { entries })
}

/// Extracts the stored FNV-1a-64 trailer from raw snapshot bytes without
/// decoding them. `None` when `bytes` is too short to carry one.
pub fn trailer_of(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < 8 {
        return None;
    }
    let mut trailer = [0u8; 8];
    trailer.copy_from_slice(&bytes[bytes.len() - 8..]);
    Some(u64::from_le_bytes(trailer))
}

/// Convenience: snapshot-encode a single router config (used by tests and
/// by size accounting in the bench harness).
pub fn config_bytes(config: &RouterConfig) -> Vec<u8> {
    let mut w = Writer::new();
    config.encode(&mut w);
    w.into_bytes()
}

/// The staging path [`write_atomic`] writes through: `<path>.tmp`, in the
/// same directory so the final rename stays within one filesystem.
pub fn tmp_path(path: &std::path::Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The quarantine path [`recover_dir`] moves a stale `.tmp` to:
/// `<path>.tmp.quarantined`. Quarantined files are never loaded and never
/// collide with a concurrent [`write_atomic`] of the same target.
pub fn quarantine_path(tmp: &std::path::Path) -> std::path::PathBuf {
    let mut name = tmp.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".quarantined");
    tmp.with_file_name(name)
}

/// Crash-safe file write: `bytes` go to `<path>.tmp`, the file is fsynced,
/// renamed over `path`, and the parent directory is fsynced so the rename
/// itself is durable. A crash at any point leaves either the old `path`
/// (plus at worst a stale `.tmp` for [`recover_dir`] to sweep) or the
/// complete new one — never a torn file under the final name.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = tmp_path(path);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Persist the rename in the directory entry. Directories open
            // read-only; on platforms where fsync-of-directory is not
            // supported the data fsync above still bounds the damage.
            if let Ok(d) = std::fs::File::open(dir) {
                d.sync_all().ok();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// Startup recovery sweep: quarantines every stale `.tmp` left in `dir` by
/// an interrupted [`write_atomic`] (renaming it to `.tmp.quarantined`, so
/// it can be inspected but never mistaken for live data or clobbered by
/// the next write). Returns the quarantined paths in sorted order. Missing
/// `dir` is not an error — there is simply nothing to recover.
pub fn recover_dir(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut quarantined = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path.is_file()
            && path.extension().map(|e| e == "tmp").unwrap_or(false);
        if is_tmp {
            let dest = quarantine_path(&path);
            std::fs::rename(&path, &dest)?;
            quarantined.push(dest);
        }
    }
    quarantined.sort();
    Ok(quarantined)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny two-router corpus assembled through the real pipeline
    /// (parse → topology → routing model), without depending on netgen
    /// or core.
    fn tiny_snapshot(name: &str) -> NetworkSnapshot {
        let r1 = "\
hostname r1
interface Loopback0
 ip address 10.0.0.1 255.255.255.255
interface Serial0/0
 ip address 10.1.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
 network 10.1.0.0 0.0.255.255 area 0
router bgp 65000
 neighbor 10.0.0.2 remote-as 65000
";
        let r2 = "\
hostname r2
interface Loopback0
 ip address 10.0.0.2 255.255.255.255
interface Serial0/0
 ip address 10.1.0.2 255.255.255.252
 ip access-group 101 in
access-list 101 permit ip any any
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
 network 10.1.0.0 0.0.255.255 area 0
router bgp 65000
 neighbor 10.0.0.1 remote-as 65000
 neighbor 192.168.50.1 remote-as 7018
";
        let texts = vec![
            ("config1".to_string(), r1.to_string()),
            ("config2".to_string(), r2.to_string()),
        ];
        let network = Network::from_texts(texts).expect("tiny corpus parses");
        let links = LinkMap::build(&network);
        let external = ExternalAnalysis::build(&network, &links);
        let processes = Processes::extract(&network);
        let adjacencies = Adjacencies::build(&network, &links, &processes, &external);
        let instances = Instances::compute(&processes, &adjacencies);
        let instance_graph =
            InstanceGraph::build(&network, &processes, &adjacencies, &instances);
        let process_graph = ProcessGraph::build(&network, &processes, &adjacencies);
        let blocks = network.address_blocks();
        let table1 = Table1::compute(&instances, &instance_graph, &adjacencies);
        let design = routing_model::classify_network(
            &network,
            &instances,
            &instance_graph,
            &adjacencies,
            &table1,
        );
        let diagnostics = network.diagnostics.clone();
        let file_hashes = vec![
            ("config1".to_string(), fnv1a64(r1.as_bytes())),
            ("config2".to_string(), fnv1a64(r2.as_bytes())),
        ];
        NetworkSnapshot {
            name: name.to_string(),
            network,
            links,
            external,
            processes,
            adjacencies,
            instances,
            instance_graph,
            process_graph,
            blocks,
            table1,
            design,
            diagnostics,
            file_hashes,
        }
    }

    #[test]
    fn corpus_roundtrip() {
        let corpus = Corpus::new(vec![tiny_snapshot("beta"), tiny_snapshot("alpha")]);
        let bytes = corpus.to_bytes();
        let restored = Corpus::from_bytes(&bytes).expect("roundtrip decodes");
        // Canonical order: sorted by name.
        assert_eq!(restored.networks.len(), 2);
        assert_eq!(restored.networks[0].name, "alpha");
        assert_eq!(restored.networks[1].name, "beta");
        // Re-encoding the restored corpus is byte-identical.
        assert_eq!(restored.to_bytes(), bytes);
        // Derived lookups survive the roundtrip (index/membership rebuilt).
        let orig = corpus.get("alpha").unwrap();
        let back = restored.get("alpha").unwrap();
        assert_eq!(back.processes.list.len(), orig.processes.list.len());
        for p in &orig.processes.list {
            assert_eq!(back.processes.position(p.key), orig.processes.position(p.key));
            assert_eq!(back.instances.instance_of(p.key), orig.instances.instance_of(p.key));
        }
        assert_eq!(back.design, orig.design);
        assert_eq!(back.table1.igp_instances, orig.table1.igp_instances);
        assert_eq!(back.diagnostics.len(), orig.diagnostics.len());
    }

    #[test]
    fn truncation_detected() {
        let corpus = Corpus::new(vec![tiny_snapshot("alpha")]);
        let bytes = corpus.to_bytes();
        for cut in [0, 1, MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Corpus::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let corpus = Corpus::new(vec![tiny_snapshot("alpha")]);
        let bytes = corpus.to_bytes();
        // Flip one bit in the middle: the checksum must catch it.
        let mut corrupted = bytes.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        let err = Corpus::from_bytes(&corrupted).unwrap_err();
        assert!(err.message.contains("checksum"), "got: {err}");
    }

    #[test]
    fn bad_magic_and_version_detected() {
        let corpus = Corpus::new(vec![tiny_snapshot("alpha")]);
        let mut bytes = corpus.to_bytes();
        // Wrong magic (re-checksum so the magic check is what fires).
        bytes[0] = b'X';
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = Corpus::from_bytes(&bytes).unwrap_err();
        assert!(err.message.contains("magic"), "got: {err}");

        // Unsupported version.
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u64(u64::from(FORMAT_VERSION) + 1);
        w.u64(0);
        let mut v = w.into_bytes();
        let sum = fnv1a64(&v);
        v.extend_from_slice(&sum.to_le_bytes());
        let err = Corpus::from_bytes(&v).unwrap_err();
        assert!(err.message.contains("version"), "got: {err}");
    }

    #[test]
    fn empty_corpus_roundtrip() {
        let corpus = Corpus::default();
        let bytes = corpus.to_bytes();
        let restored = Corpus::from_bytes(&bytes).unwrap();
        assert!(restored.networks.is_empty());
        let manifest = Manifest::read(&bytes).expect("empty manifest reads");
        assert!(manifest.entries.is_empty());
    }

    #[test]
    fn manifest_indexes_every_section() {
        let corpus = Corpus::new(vec![tiny_snapshot("beta"), tiny_snapshot("alpha")]);
        let bytes = corpus.to_bytes();
        let manifest = Manifest::read(&bytes).expect("manifest reads");
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entries[0].name, "alpha");
        assert_eq!(manifest.entries[1].name, "beta");
        // Each entry's byte range decodes to exactly its network.
        for e in &manifest.entries {
            let payload = manifest.payload(&bytes, &e.name).expect("payload slice");
            assert_eq!(payload.len(), e.len);
            let mut r = Reader::new(payload);
            let net = NetworkSnapshot::decode(&mut r).expect("payload decodes");
            assert_eq!(net.name, e.name);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn spliced_container_is_byte_identical() {
        // Reassembling from manifest-located payload slices reproduces
        // the container exactly — the property the delta engine's
        // unchanged-network splicing rests on.
        let corpus = Corpus::new(vec![tiny_snapshot("beta"), tiny_snapshot("alpha")]);
        let bytes = corpus.to_bytes();
        let manifest = Manifest::read(&bytes).expect("manifest reads");
        let sections: Vec<(&str, &[u8])> = manifest
            .entries
            .iter()
            .map(|e| (e.name.as_str(), manifest.payload(&bytes, &e.name).expect("slice")))
            .collect();
        assert_eq!(assemble_container(&sections), bytes);
    }

    #[test]
    fn tampered_manifest_rejected() {
        let corpus = Corpus::new(vec![tiny_snapshot("alpha")]);
        let bytes = corpus.to_bytes();
        let manifest_len = read_manifest_len(&bytes[..bytes.len() - 8]).expect("length");
        // Flip a byte inside the manifest region and re-checksum: the
        // frames still decode, but the index no longer matches them.
        let mut tampered = bytes.clone();
        let body_len = tampered.len() - 8;
        let in_manifest = body_len - 8 - manifest_len + 2;
        tampered[in_manifest] ^= 0x01;
        let sum = fnv1a64(&tampered[..body_len]).to_le_bytes();
        tampered[body_len..].copy_from_slice(&sum);
        assert!(Corpus::from_bytes(&tampered).is_err(), "tampered manifest must not decode");
    }
}
