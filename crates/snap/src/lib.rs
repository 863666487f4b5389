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
//! section: at full scale the committed run loads in 79.1 ms against
//! 385.2 ms of summed analysis stages, 4.9× faster.
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
//! [`Frames::read`] is the one reader of this framing: it walks a
//! container once and returns its frame table, the byte range of every
//! field above. Everything else that needs an offset takes it from that
//! table: [`Corpus::from_bytes`] decodes the payload ranges, `rdx snap
//! --info` prints the table, and `rd-chaos` truncates and bombs
//! containers at its boundaries. [`assemble_container`] is the one
//! writer; the delta engine hands it cached payloads, re-encoded once
//! from a decoded corpus, which gives back the container's bytes.
//!
//! The manifest footer indexes each section's payload by absolute byte
//! range. It is purely structural — derivable from the sections
//! themselves — so re-encoding a decoded corpus reproduces it byte for
//! byte. No reader takes offsets from it any more: [`Frames::read`]
//! cross-checks it against the frames it walked and rejects a container
//! where the two disagree. Dropping it would change the bytes and needs
//! a [`FORMAT_VERSION`] bump.
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

use std::ops::Range;

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
/// [`write_atomic`]/[`Corpus::read_file`] round trip will ever produce per
/// network.
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

    /// Deserializes a corpus: reads the container's frame table
    /// ([`Frames::read`]), then decodes the payload of every section it
    /// lists, in parallel over `rd-par`. Results come back in section
    /// order, so the corpus is identical at any `RD_THREADS`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Corpus, DecodeError> {
        let frames = Frames::read(bytes)?;
        let decoded = rd_par::par_map(&frames.sections, |_, frame| {
            let name = &frame.name;
            let payload = bytes.get(frame.payload.clone()).ok_or_else(|| {
                DecodeError::new(format!("section '{name}' lies outside the container"))
            })?;
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
        let mut networks = Vec::with_capacity(decoded.len());
        for result in decoded {
            networks.push(std::sync::Arc::new(result?));
        }
        Ok(Corpus { networks })
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

/// Where one section's frame lies in a container: the network's name,
/// then its payload's length field, then the payload.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Section (network) name.
    pub name: String,
    /// Byte range of the payload's length field, a varint.
    pub len_field: Range<usize>,
    /// Byte range of the encoded [`NetworkSnapshot`].
    pub payload: Range<usize>,
}

/// A container's frame table: the byte range of every framing field,
/// read by one walk over the container ([`Frames::read`]). Offsets are
/// absolute, from the first byte of the file.
///
/// [`Corpus::from_bytes`] decodes the payload ranges it lists; `rdx snap
/// --info` prints them; `rd-chaos` cuts and bombs a container at them.
#[derive(Clone, Debug)]
pub struct Frames {
    /// The ends of the magic, the format version and the section count.
    pub header: [usize; 3],
    /// The section frames, in container (canonical name) order.
    pub sections: Vec<Frame>,
    /// Byte range of the manifest footer's entries.
    pub manifest: Range<usize>,
    /// Byte range of the manifest's fixed-width length field and the
    /// checksum trailer that follows it (8 bytes each).
    pub footer: Range<usize>,
}

impl Frames {
    /// Walks a container once, validating the checksum, magic, version,
    /// section count, every section frame and the manifest footer, which
    /// must index exactly the frames walked. No payload is decoded.
    pub fn read(bytes: &[u8]) -> Result<Frames, DecodeError> {
        let body = validated_body(bytes)?;
        let mut r = Reader::new(body);
        let mut header = [0; 3];
        if r.raw(MAGIC.len())? != MAGIC {
            return Err(DecodeError::new("bad magic: not an rd-snap file"));
        }
        header[0] = r.position();
        let version = r.u64()?;
        if version != u64::from(FORMAT_VERSION) {
            return Err(DecodeError::new(format!(
                "unsupported snapshot format version {version} (this tool reads {FORMAT_VERSION})"
            )));
        }
        header[1] = r.position();
        let count = r.len()?;
        if count > MAX_SECTIONS {
            return Err(DecodeError::new(format!(
                "section count {count} exceeds hard cap {MAX_SECTIONS}"
            )));
        }
        header[2] = r.position();
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.string()?;
            let len_at = r.position();
            let len = r.len()?;
            if len > MAX_SECTION_BYTES {
                return Err(DecodeError::new(format!(
                    "section '{name}' declares {len} bytes, over the {MAX_SECTION_BYTES} cap"
                )));
            }
            let start = r.position();
            r.raw(len)?;
            sections.push(Frame { name, len_field: len_at..start, payload: start..start + len });
        }
        // What remains must be exactly the manifest entries plus their
        // 8-byte length field, and the entries must agree with the frames
        // just walked.
        let declared = read_manifest_len(body)?;
        if r.remaining() != declared + 8 {
            return Err(DecodeError::new(format!(
                "{} bytes between last section and manifest length field \
                 (manifest declares {declared})",
                r.remaining().saturating_sub(8),
            )));
        }
        let start = r.position();
        let indexed = decode_manifest(r.raw(declared)?)?;
        let walked = sections.iter().map(|f| (f.name.as_str(), f.payload.start, f.payload.len()));
        if !indexed.iter().map(|(name, at, len)| (name.as_str(), *at, *len)).eq(walked) {
            return Err(DecodeError::new(
                "manifest does not match the section frames it indexes",
            ));
        }
        let footer = body.len() - 8..bytes.len();
        Ok(Frames { header, sections, manifest: start..start + declared, footer })
    }

    /// The offset after each framing field, in file order: the magic, the
    /// version, the section count, each section's name, length field and
    /// payload, the manifest entries and the manifest length field.
    /// Cutting the container at one of them leaves only whole fields.
    pub fn boundaries(&self) -> Vec<usize> {
        let mut cuts = self.header.to_vec();
        for f in &self.sections {
            cuts.extend([f.len_field.start, f.payload.start, f.payload.end]);
        }
        cuts.extend([self.manifest.end, self.footer.start + 8]);
        cuts
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
        .filter(|&d| d <= body.len() - 8)
        .ok_or_else(|| {
            DecodeError::new(format!("manifest length {declared} exceeds the container"))
        })
}

/// Decodes the manifest entries: per section its name, absolute payload
/// offset and payload length.
fn decode_manifest(payload: &[u8]) -> Result<Vec<(String, usize, usize)>, DecodeError> {
    let mut r = Reader::new(payload);
    let count = r.len()?;
    if count > MAX_SECTIONS {
        return Err(DecodeError::new(format!(
            "manifest entry count {count} exceeds hard cap {MAX_SECTIONS}"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push((r.string()?, r.usize()?, r.usize()?));
    }
    if !r.is_at_end() {
        return Err(DecodeError::new(format!(
            "{} trailing bytes after the manifest entries",
            r.remaining()
        )));
    }
    Ok(entries)
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
    }

    #[test]
    fn layout_walks_an_empty_corpus() {
        let bytes = Corpus::default().to_bytes();
        let frames = Frames::read(&bytes).expect("empty container reads");
        // magic | version | count, no sections, then the manifest entries
        // and their length field.
        assert_eq!(frames.boundaries(), [6, 7, 8, 9, 17]);
        assert!(frames.sections.is_empty());
        assert_eq!(frames.manifest, 8..9);
        assert_eq!(frames.footer, 9..25);
        assert_eq!(frames.footer.end, bytes.len());
    }

    #[test]
    fn manifest_indexes_every_section() {
        let corpus = Corpus::new(vec![tiny_snapshot("beta"), tiny_snapshot("alpha")]);
        let bytes = corpus.to_bytes();
        let frames = Frames::read(&bytes).expect("frames read");
        let names: Vec<&str> = frames.sections.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        // The manifest footer lists each frame's payload range...
        let entries = decode_manifest(&bytes[frames.manifest.clone()]).expect("manifest");
        for (f, (name, offset, len)) in frames.sections.iter().zip(&entries) {
            assert_eq!((name, *offset, *len), (&f.name, f.payload.start, f.payload.len()));
        }
        // ...and each range decodes to exactly its network.
        for f in &frames.sections {
            let mut r = Reader::new(&bytes[f.payload.clone()]);
            let net = NetworkSnapshot::decode(&mut r).expect("payload decodes");
            assert_eq!(net.name, f.name);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn spliced_container_is_byte_identical() {
        // Reassembling from the frame table's payload slices reproduces
        // the container exactly — the property the delta engine's
        // unchanged-network splicing rests on.
        let corpus = Corpus::new(vec![tiny_snapshot("beta"), tiny_snapshot("alpha")]);
        let bytes = corpus.to_bytes();
        let frames = Frames::read(&bytes).expect("frames read");
        let sections: Vec<(&str, &[u8])> = frames
            .sections
            .iter()
            .map(|f| (f.name.as_str(), &bytes[f.payload.clone()]))
            .collect();
        assert_eq!(assemble_container(&sections), bytes);
    }

    #[test]
    fn huge_manifest_length_is_an_error_not_an_overflow() {
        let mut bytes = Corpus::default().to_bytes();
        let body_len = bytes.len() - 8;
        bytes[body_len - 8..body_len].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = fnv1a64(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        let err = Corpus::from_bytes(&bytes).unwrap_err();
        assert!(err.message.ends_with("exceeds the container"), "got: {err}");
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
