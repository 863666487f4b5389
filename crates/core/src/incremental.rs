//! The incremental re-analysis engine — and the config tree's one change
//! detector.
//!
//! Operational networks change a few routers at a time (Section 8.1's
//! maintenance reality), yet a cold `rdx snap` pays parse + topology +
//! routing-model cost for all 31 networks on every run. [`DeltaEngine`]
//! remembers each config file's stat stamp, raw-byte FNV hash
//! ([`rd_snap::fnv1a64`]) and [`config_fingerprint`], and each network's
//! finished [`NetworkSnapshot`] with its encoded section payload: the
//! committed analysis, which holds the parse of every file whose bytes
//! have not moved since it was built. One sweep, shared by [`probe`] and [`refresh`],
//! stats every file, reads and hashes only the files whose `(size,
//! mtime)` stamp moved (a `touch` stops there), and parses only the files
//! whose hash moved, keeping each product until a refresh commits it.
//! Stamps follow git's "racily clean" rule: a file whose mtime is not
//! older than the start of the sweep that stat'ed it by more than 2 s
//! (the coarsest common mtime tick) gets no stamp, so the next sweep
//! re-hashes it, and a same-size rewrite within one tick cannot hide.
//!
//! [`probe`] stops there and digests the per-file fingerprints, so
//! cosmetic churn never reads as a change; `rdx watch` debounces on the
//! digest. [`refresh`] re-analyzes only the networks whose file hashes no
//! longer match their committed analysis, through the exact cold-path
//! assembly ([`Network::from_parsed`] → [`NetworkAnalysis::from_network`]):
//! each moved file brings its fresh product, and every other file's
//! product comes back from the committed network ([`Network::to_parsed`]),
//! so no unmoved file is parsed again. Every other network's encoded
//! section bytes are copied straight into the output container
//! ([`rd_snap::assemble_container`]). A successful refresh then drops
//! every product: the new committed analyses hold them.
//!
//! The result — snapshot bytes, restored corpus, and everything derived
//! from them — is **byte-identical to a cold [`snap_dir`] run at any
//! `RD_THREADS`**, because every recomputed network flows through the
//! same deterministic pipeline and every reused network contributes the
//! very bytes a cold run would re-produce. The engine can also be
//! seeded from a corpus already in memory ([`seed`]): `rdx watch` hands
//! it the networks its server is serving, `rdx snap --from` the ones it
//! decoded from the previous snapshot. The engine shares those networks,
//! re-encodes each one's payload (decoding a container and re-encoding
//! it gives back its bytes), and takes each file's hash from
//! [`NetworkSnapshot::file_hashes`], so a seeded engine holds what a
//! refresh leaves behind (hashes and fingerprints, no parse product),
//! only without stamps, which its first sweep takes. That sweep parses
//! only the files whose bytes moved and reports whether the seeded
//! corpus is still [`current`](Probe::current), and the next refresh
//! reuses every network that did not change and recomputes the rest
//! from the moved files' products and the seeded networks.
//!
//! Observability: each refresh runs under an `analyze.incr` span whose
//! duration feeds the `incr.last_wall_us` gauge, with one child span per
//! phase — `incr.sweep` (stat and hash; its `incr.parse` child re-parses),
//! `incr.recompute` (analyze and encode), `incr.assemble` (the container)
//! and `incr.handout` (the corpus) — whose durations are
//! [`Refresh::phases`]. Counters: `incr.networks_reused`,
//! `incr.networks_recomputed` and `incr.files_reparsed`.
//!
//! [`probe`]: DeltaEngine::probe
//! [`refresh`]: DeltaEngine::refresh
//! [`seed`]: DeltaEngine::seed
//! [`snap_dir`]: crate::snapshot::snap_dir

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use nettopo::{Network, PreparsedFile};
use rd_snap::{assemble_container, fnv1a64_extend, Corpus, NetworkSnapshot, Snap, Writer};

use crate::diff::config_fingerprint;
use crate::snapshot::{capture, network_dirs, DroppedNetwork, SnapOutcome};
use crate::{config_files, LoadError, NetworkAnalysis};

/// How much older than the start of the sweep that stats it a file's
/// mtime must be before later sweeps trust the file's stamp.
const MTIME_GRANULARITY: Duration = Duration::from_secs(2);

/// What one [`DeltaEngine::refresh`] actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Networks considered (readable or not).
    pub networks: usize,
    /// Networks whose cached analysis was reused unchanged.
    pub reused: usize,
    /// Networks re-analyzed because at least one input file moved.
    pub recomputed: usize,
    /// Config files this refresh fed to the parser. Files a preceding
    /// [`DeltaEngine::probe`] already parsed are not counted again.
    pub files_reparsed: usize,
    /// Networks excluded from the output (unreadable or over the error
    /// budget) — mirrors [`SnapOutcome::dropped`].
    pub dropped: usize,
}

/// The product of one [`DeltaEngine::refresh`]: the same outcome a cold
/// [`snap_dir`](crate::snapshot::snap_dir) would return, the serialized
/// container bytes (byte-identical to `outcome.corpus.to_bytes()`), and
/// the delta statistics.
pub struct Refresh {
    /// Surviving corpus plus dropped networks, exactly as a cold run.
    pub outcome: SnapOutcome,
    /// The container bytes, spliced from cached payloads where possible.
    pub bytes: Vec<u8>,
    /// What the delta pass reused and recomputed.
    pub stats: RefreshStats,
    /// The [`Probe::digest`] of the config state this refresh analyzed.
    pub digest: u64,
    /// The refresh's phases (`incr.sweep`, `incr.recompute`,
    /// `incr.assemble`, `incr.handout`) with their span durations.
    pub phases: rd_obs::StageTimings,
}

/// What one [`DeltaEngine::probe`] found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Probe {
    /// Digest of the tree's semantic state: the layout, every network's
    /// name, and every config file's name and fingerprint (the parsed
    /// config's [`config_fingerprint`], or the raw hash of a quarantined
    /// file). Cosmetic churn leaves it unchanged; any change to what a
    /// refresh would parse moves it. 0 when the tree cannot be read.
    pub digest: u64,
    /// Config files the digest covers.
    pub files: usize,
    /// Files the probe fed to the parser: those whose raw hash moved.
    pub parsed: usize,
    /// True when a refresh now would hand out the committed analyses
    /// unchanged: every network reused, none added, gone, unreadable or
    /// (in a study) over the error budget.
    pub current: bool,
}

/// What the engine knows about one config file.
struct FileRecord {
    /// The `(size, mtime)` a later sweep trusts without reading the
    /// file. `None` makes the next sweep re-hash it: the record was
    /// seeded from a corpus, or its mtime was too recent to trust.
    stamp: Option<(u64, SystemTime)>,
    /// Raw-byte FNV-1a-64.
    hash: u64,
    /// The file's contribution to [`Probe::digest`].
    print: u64,
    /// Parse product of the bytes behind `hash`, held only while they
    /// have moved since the last commit. `None` means the committed
    /// analysis of the network was built from exactly these bytes.
    parsed: Option<PreparsedFile>,
}

/// The committed analysis of one network.
struct NetCache {
    /// The finished analysis, shared with every corpus handed out — a
    /// reused network costs a refcount bump per refresh, not a deep copy.
    /// Its `file_hashes` are the inputs it was built from.
    snap: Arc<NetworkSnapshot>,
    /// `snap`'s encoded section payload — the bytes spliced into the
    /// output container when the network is reused.
    payload: Vec<u8>,
}

/// What a refresh must do for one network, as the sweep decided it.
enum Work {
    /// Files hash exactly as the committed analysis recorded: reuse it.
    Reuse,
    /// Files moved: re-analyze from the parse products of these
    /// `(file, hash)` inputs, in input order.
    Recompute(Vec<(String, u64)>),
    /// The network directory, or a file in it, could not be read.
    Unreadable(LoadError),
}

/// One network directory as the sweep found it.
struct Listing {
    /// Config files in input order.
    files: Vec<String>,
    /// Every file's record, keyed by name.
    records: BTreeMap<String, FileRecord>,
    /// Files this sweep parsed.
    parsed: usize,
    /// True when the hashes no longer match the committed analysis.
    stale: bool,
}

/// What one sweep found: every network in analysis order with the work a
/// refresh would do for it, and the probe figures.
struct Sweep {
    study: bool,
    units: Vec<(String, Work)>,
    probe: Probe,
}

/// The incremental re-analysis engine. One engine watches one directory
/// (a single network or a `netN/` study layout, re-detected on every
/// sweep); its cache key is the network name, i.e. the directory
/// basename.
pub struct DeltaEngine {
    dir: PathBuf,
    /// Every config file as the last sweep found it, per network.
    files: BTreeMap<String, BTreeMap<String, FileRecord>>,
    /// The committed analysis per network (the last refresh's or seed's).
    nets: BTreeMap<String, NetCache>,
}

impl DeltaEngine {
    /// An engine over `dir` with an empty cache: the first
    /// [`refresh`](DeltaEngine::refresh) is a cold run that populates it.
    pub fn new(dir: &Path) -> DeltaEngine {
        DeltaEngine { dir: dir.to_path_buf(), files: BTreeMap::new(), nets: BTreeMap::new() }
    }

    /// Replaces the cache with a corpus already in memory, as if a
    /// refresh had just produced it: the engine shares its networks,
    /// re-encodes each one's section payload, and takes each file's hash
    /// from [`NetworkSnapshot::file_hashes`], with no stamp (the next
    /// sweep hashes every file) and no parse product (the seeded network
    /// holds the parse, which a recompute takes back through
    /// [`Network::to_parsed`]; so the file hashes must name each
    /// network's inputs in load order, as in every corpus a cold run or
    /// a refresh produced). Returns the networks seeded.
    pub fn seed(&mut self, corpus: &Corpus) -> usize {
        let seeded = rd_par::par_map(&corpus.networks, |_, snap| {
            // A parse of the same bytes would fingerprint each router
            // exactly as the corpus's config does; a quarantined file
            // digests by its raw hash.
            let routers = snap.network.routers.iter();
            let prints: BTreeMap<&str, u64> =
                routers.map(|r| (r.file_name.as_str(), config_fingerprint(&r.config))).collect();
            let records = snap.file_hashes.iter().map(|(file, hash)| {
                let print = prints.get(file.as_str()).copied().unwrap_or(*hash);
                (file.clone(), FileRecord { stamp: None, hash: *hash, print, parsed: None })
            });
            (records.collect(), NetCache { snap: Arc::clone(snap), payload: encode_payload(snap) })
        });
        self.files.clear();
        self.nets.clear();
        for (snap, (records, cache)) in corpus.networks.iter().zip(seeded) {
            self.files.insert(snap.name.clone(), records);
            self.nets.insert(snap.name.clone(), cache);
        }
        self.nets.len()
    }

    /// Brings the file records up to date with the directory — parsing
    /// only the files whose raw hash moved — and returns a digest of the
    /// tree's semantic state. Nothing is analyzed; the parse products
    /// wait for the next [`refresh`](DeltaEngine::refresh).
    /// This is the cheap check `rdx watch` runs on every poll.
    pub fn probe(&mut self) -> Probe {
        self.sweep().map(|s| s.probe).unwrap_or_default()
    }

    /// Brings the cache up to date with the directory and returns the
    /// corpus, container bytes, and delta statistics. The outputs are
    /// byte-identical to a cold [`snap_dir`](crate::snapshot::snap_dir)
    /// and `to_bytes()` of the same directory at any `RD_THREADS`; only
    /// the work done differs. A failure (I/O error in single-network
    /// mode, or a panic out of the pipeline) leaves the committed
    /// analyses, and the parse products of the files that moved since,
    /// as they were — commits happen only after every network's result
    /// is in hand. (File records may advance: they only ever describe
    /// files as they are on disk.)
    pub fn refresh(&mut self) -> Result<Refresh, LoadError> {
        let span = rd_obs::span::timed("analyze.incr");
        let (refresh, phases) = rd_obs::span::stages(|| self.refresh_phases());
        let wall = span.close();
        let refresh = refresh?;
        rd_obs::metrics::gauge_set(
            "incr.last_wall_us",
            wall.as_micros().min(i64::MAX as u128) as i64,
        );
        Ok(Refresh { phases, ..refresh })
    }

    /// [`refresh`](DeltaEngine::refresh), one span per phase.
    fn refresh_phases(&mut self) -> Result<Refresh, LoadError> {
        let budget = nettopo::error_budget();
        let Sweep { study, units, probe } = self.sweep()?;

        // Recompute phase: the stale networks, in parallel, from the
        // sweep's parse products and their committed analyses. Results
        // come back in input order, so output never depends on the
        // worker count.
        let todo: Vec<(&str, &[(String, u64)])> = units
            .iter()
            .filter_map(|(name, work)| match work {
                Work::Recompute(hashes) => Some((name.as_str(), hashes.as_slice())),
                _ => None,
            })
            .collect();
        let recomputed = {
            let _span = rd_obs::span!("incr.recompute");
            rd_par::par_map(&todo, |_, (name, hashes)| self.recompute(name, hashes))
        };

        // Commit phase: splice the new cache together, apply the error
        // budget (study mode only — cold single-network runs never
        // drop), and assemble the output.
        let assemble = rd_obs::span!("incr.assemble");
        let mut stats = RefreshStats {
            networks: units.len(),
            files_reparsed: probe.parsed,
            ..Default::default()
        };
        let mut fresh = recomputed.into_iter();
        let mut nets = BTreeMap::new();
        let mut dropped = Vec::new();
        let mut dropped_names = BTreeSet::new();
        for (name, work) in units {
            match work {
                Work::Reuse => {
                    stats.reused += 1;
                    // The sweep only reports Reuse for committed names.
                    if let Some(cache) = self.nets.remove(&name) {
                        nets.insert(name, cache);
                    }
                }
                Work::Recompute(_) => {
                    stats.recomputed += 1;
                    if let Some(cache) = fresh.next() {
                        nets.insert(name, cache);
                    }
                }
                Work::Unreadable(e) => {
                    dropped_names.insert(name.clone());
                    dropped.push(DroppedNetwork::unreadable(name, &e));
                }
            }
        }
        if study {
            for (name, cache) in &nets {
                let coverage = &cache.snap.network.coverage;
                if let Some(drop) = DroppedNetwork::over_budget(name, coverage, budget) {
                    dropped_names.insert(name.clone());
                    dropped.push(drop);
                }
            }
            // Cold snap_dir reports drops in subdir (name) order; the
            // two loops above may interleave unreadable and over-budget
            // entries out of order.
            dropped.sort_by(|a, b| a.name.cmp(&b.name));
        }
        self.nets = nets;
        // The committed analyses now hold every parse: a record keeps a
        // product only while its bytes differ from them.
        for record in self.files.values_mut().flat_map(BTreeMap::values_mut) {
            record.parsed = None;
        }
        stats.dropped = dropped.len();

        let survivors: Vec<&NetCache> = self
            .nets
            .values()
            .filter(|c| !dropped_names.contains(&c.snap.name))
            .collect();
        let sections: Vec<(&str, &[u8])> = survivors
            .iter()
            .map(|c| (c.snap.name.as_str(), c.payload.as_slice()))
            .collect();
        let bytes = assemble_container(&sections);
        drop(assemble);
        let corpus = {
            let _span = rd_obs::span!("incr.handout");
            Corpus::from_shared(survivors.iter().map(|c| c.snap.clone()).collect())
        };

        rd_obs::metrics::counter_add("incr.networks_reused", stats.reused as u64);
        rd_obs::metrics::counter_add("incr.networks_recomputed", stats.recomputed as u64);
        rd_obs::metrics::counter_add("incr.files_reparsed", stats.files_reparsed as u64);
        rd_obs::trace::event(
            "incr.refresh",
            &[
                ("networks", stats.networks.into()),
                ("reused", stats.reused.into()),
                ("recomputed", stats.recomputed.into()),
                ("files_reparsed", stats.files_reparsed.into()),
            ],
        );
        Ok(Refresh {
            outcome: SnapOutcome { corpus, dropped },
            bytes,
            stats,
            digest: probe.digest,
            phases: rd_obs::StageTimings::new(),
        })
    }

    /// The one change detector behind [`probe`](DeltaEngine::probe) and
    /// [`refresh`](DeltaEngine::refresh): brings every network's file
    /// records up to date ([`list_network`]), digests them, and decides
    /// per network whether its committed analysis still stands. Fails
    /// only when a single-network directory cannot be read.
    fn sweep(&mut self) -> Result<Sweep, LoadError> {
        let _span = rd_obs::span!("incr.sweep");
        let started = SystemTime::now();
        let budget = nettopo::error_budget();
        let (study, dirs) = network_dirs(&self.dir);
        let mut prior = std::mem::take(&mut self.files);
        // The digest covers the layout, then per network its name, its
        // file count (u64::MAX when unreadable) and every file's name and
        // print.
        let mut digest = rd_snap::fnv1a64(&[u8::from(study)]);
        let (mut files, mut parsed) = (0, 0);
        let mut units = Vec::with_capacity(dirs.len());
        for (name, dir) in dirs {
            let records = prior.remove(&name).unwrap_or_default();
            let committed = self.nets.get(&name).map(|c| c.snap.file_hashes.as_slice());
            digest = fnv1a64_extend(fnv1a64_extend(digest, name.as_bytes()), &[0]);
            let work = match list_network(&dir, records, started, committed) {
                // Single-network mode mirrors cold snap_dir: a read
                // failure is a hard error, not a dropped network.
                Err(e) if !study => return Err(e),
                Err(e) => {
                    digest = fnv1a64_extend(digest, &u64::MAX.to_le_bytes());
                    Work::Unreadable(e)
                }
                Ok(listing) => {
                    let records = &listing.records;
                    digest = fnv1a64_extend(digest, &(listing.files.len() as u64).to_le_bytes());
                    for file in &listing.files {
                        digest = fnv1a64_extend(fnv1a64_extend(digest, file.as_bytes()), &[0]);
                        digest = fnv1a64_extend(digest, &records[file].print.to_le_bytes());
                    }
                    files += listing.files.len();
                    parsed += listing.parsed;
                    let work = if listing.stale {
                        Work::Recompute(
                            listing.files.iter().map(|f| (f.clone(), records[f].hash)).collect(),
                        )
                    } else {
                        Work::Reuse
                    };
                    self.files.insert(name.clone(), listing.records);
                    work
                }
            };
            units.push((name, work));
        }
        // Reuse is reported only for committed names, so all-reuse over
        // as many networks as are committed means none is new or gone.
        let current = units.len() == self.nets.len()
            && units.iter().all(|(name, work)| {
                matches!(work, Work::Reuse)
                    && !(study && self.nets[name].snap.network.coverage.over_budget(budget))
            });
        Ok(Sweep { study, units, probe: Probe { digest, files, parsed, current } })
    }

    /// Re-analyzes one stale network and returns the new cache entry. A
    /// file whose bytes moved since the last commit brings the product
    /// the sweep parsed; every other file's product comes back from the
    /// committed network, which was built from exactly its bytes.
    fn recompute(&self, name: &str, hashes: &[(String, u64)]) -> NetCache {
        let records = &self.files[name];
        let mut committed = BTreeMap::new();
        if let Some(cache) = self.nets.get(name) {
            let files = || cache.snap.file_hashes.iter().map(|(file, _)| file.as_str());
            committed = files().zip(cache.snap.network.to_parsed(files())).collect();
        }
        let parsed: Vec<PreparsedFile> = hashes
            .iter()
            .map(|(file, _)| match &records[file].parsed {
                Some(product) => product.clone(),
                None => committed.remove(file.as_str()).expect("unmoved files are committed"),
            })
            .collect();
        let network = Network::from_parsed(parsed);
        let mut analysis = NetworkAnalysis::from_network(network);
        analysis.file_hashes = hashes.to_vec();
        let snap = Arc::new(capture(name, analysis));
        let payload = encode_payload(&snap);
        NetCache { snap, payload }
    }
}

/// Sweeps one network directory against its `records`: stats every file
/// once ([`config_files`]), reads and hashes the files whose stamp moved,
/// and parses those whose hash moved. The network is stale when its
/// hashes no longer match `committed`. No file is read twice.
fn list_network(
    dir: &Path,
    mut records: BTreeMap<String, FileRecord>,
    started: SystemTime,
    committed: Option<&[(String, u64)]>,
) -> Result<Listing, LoadError> {
    let entries = config_files(dir)?;
    let mut files = Vec::with_capacity(entries.len());
    let mut unparsed = Vec::new();
    for (name, path, meta) in &entries {
        files.push(name.clone());
        let stamp = meta.modified().ok().map(|mtime| (meta.len(), mtime));
        if records.get(name).is_some_and(|r| r.stamp.is_some() && r.stamp == stamp) {
            continue;
        }
        let bytes =
            std::fs::read(path).map_err(|error| LoadError { path: path.clone(), error })?;
        let hash = rd_snap::fnv1a64(&bytes);
        // Racily clean: an mtime within one tick of the sweep's start
        // could hide a later same-size rewrite, so it is not trusted.
        let stamp = stamp.filter(|&(_, mtime)| {
            started.duration_since(mtime).is_ok_and(|age| age > MTIME_GRANULARITY)
        });
        match records.get_mut(name) {
            Some(record) if record.hash == hash => record.stamp = stamp,
            _ => {
                records.insert(name.clone(), FileRecord { stamp, hash, print: hash, parsed: None });
                unparsed.push((name.clone(), bytes));
            }
        }
    }
    if records.len() > files.len() {
        let listed: BTreeSet<&str> = files.iter().map(String::as_str).collect();
        records.retain(|name, _| listed.contains(name.as_str()));
    }

    let stale = committed.is_none_or(|hashes| {
        hashes.len() != files.len()
            || hashes.iter().zip(&files).any(|((f, h), name)| f != name || records[name].hash != *h)
    });
    let products = {
        let _span = rd_obs::span!("incr.parse");
        Network::parse_files(&unparsed)
    };
    for product in products {
        let record = records.get_mut(product.file_name()).expect("queued files have records");
        record.print = product.config().map_or(record.hash, config_fingerprint);
        record.parsed = Some(product);
    }
    Ok(Listing { files, records, parsed: unparsed.len(), stale })
}

/// Encodes one network's section payload — the same bytes
/// [`Corpus::to_bytes`] would produce for its section.
fn encode_payload(snap: &NetworkSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    snap.encode(&mut w);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::snap_dir;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir().join(format!(
                "rd-incr-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id(),
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn write_config(dir: &Path, name: &str, text: &str) {
        std::fs::create_dir_all(dir).expect("network dir");
        std::fs::write(dir.join(name), text).expect("write config");
    }

    fn config(host: &str, octet: u8) -> String {
        format!(
            "hostname {host}\n\
             interface Serial0\n ip address 10.0.{octet}.1 255.255.255.252\n\
             router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n"
        )
    }

    fn study(tag: &str) -> TempDir {
        let tmp = TempDir::new(tag);
        for (net, host) in [("net1", "alpha"), ("net2", "bravo"), ("net3", "charlie")] {
            let dir = tmp.0.join(net);
            write_config(&dir, "config1", &config(host, 1));
            write_config(&dir, "config2", &config(&format!("{host}2"), 2));
        }
        tmp
    }

    fn cold_bytes(dir: &Path) -> Vec<u8> {
        snap_dir(dir).expect("cold snap").corpus.to_bytes()
    }

    /// The corpus a server booted from `bytes` would serve.
    fn decoded(bytes: &[u8]) -> Corpus {
        Corpus::from_bytes(bytes).expect("snapshot decodes")
    }

    fn append(path: &Path, text: &str) {
        let mut old = std::fs::read_to_string(path).expect("read");
        old.push_str(text);
        std::fs::write(path, old).expect("write");
    }

    #[test]
    fn first_refresh_matches_cold_run() {
        let tmp = study("cold");
        let mut engine = DeltaEngine::new(&tmp.0);
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
        assert_eq!(refresh.bytes, refresh.outcome.corpus.to_bytes());
        assert_eq!(refresh.stats.networks, 3);
        assert_eq!(refresh.stats.recomputed, 3);
        assert_eq!(refresh.stats.reused, 0);
        assert_eq!(refresh.stats.files_reparsed, 6);
    }

    #[test]
    fn untouched_refresh_reuses_everything() {
        let tmp = study("idle");
        let mut engine = DeltaEngine::new(&tmp.0);
        let first = engine.refresh().expect("first");
        let second = engine.refresh().expect("second");
        assert_eq!(second.bytes, first.bytes);
        assert_eq!(second.stats.reused, 3);
        assert_eq!(second.stats.recomputed, 0);
        assert_eq!(second.stats.files_reparsed, 0);
    }

    #[test]
    fn one_file_change_recomputes_one_network_one_file() {
        let tmp = study("delta");
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.refresh().expect("warm up");
        let changed = tmp.0.join("net2").join("config1");
        let mut text = std::fs::read_to_string(&changed).expect("read");
        text.push_str("interface Loopback0\n ip address 10.9.0.1 255.255.255.255\n");
        std::fs::write(&changed, text).expect("write");

        let refresh = engine.refresh().expect("delta refresh");
        assert_eq!(refresh.stats.recomputed, 1);
        assert_eq!(refresh.stats.reused, 2);
        assert_eq!(refresh.stats.files_reparsed, 1);
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
    }

    #[test]
    fn touch_without_content_change_is_reuse() {
        let tmp = study("touch");
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.refresh().expect("warm up");
        // Rewrite identical bytes: size stays, mtime moves.
        let path = tmp.0.join("net1").join("config1");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes).expect("rewrite");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.reused, 3);
        assert_eq!(refresh.stats.recomputed, 0);
    }

    #[test]
    fn added_and_removed_networks_track_the_directory() {
        let tmp = study("addrm");
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.refresh().expect("warm up");
        write_config(&tmp.0.join("net4"), "config1", &config("delta", 4));
        std::fs::remove_dir_all(tmp.0.join("net1")).expect("remove net1");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.networks, 3);
        assert_eq!(refresh.stats.recomputed, 1); // net4 is new
        assert_eq!(refresh.stats.reused, 2); // net2 + net3
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
        let names: Vec<&str> =
            refresh.outcome.corpus.networks.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["net2", "net3", "net4"]);
    }

    #[test]
    fn snapshot_seeded_engine_reuses_without_parsing() {
        let tmp = study("seed");
        let bytes = cold_bytes(&tmp.0);
        let mut engine = DeltaEngine::new(&tmp.0);
        assert_eq!(engine.seed(&decoded(&bytes)), 3);
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.reused, 3);
        assert_eq!(refresh.stats.recomputed, 0);
        assert_eq!(refresh.stats.files_reparsed, 0);
        assert_eq!(refresh.bytes, bytes);
    }

    #[test]
    fn snapshot_seeded_engine_recovers_from_a_change() {
        let tmp = study("seedchg");
        let bytes = cold_bytes(&tmp.0);
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.seed(&decoded(&bytes));
        let changed = tmp.0.join("net3").join("config2");
        let mut text = std::fs::read_to_string(&changed).expect("read");
        text.push_str("interface Loopback0\n ip address 10.8.0.1 255.255.255.255\n");
        std::fs::write(&changed, text).expect("write");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.recomputed, 1);
        // Only the edited file parses: its neighbour comes back from the
        // seeded network, and the other two networks splice through.
        assert_eq!(refresh.stats.files_reparsed, 1);
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
    }

    /// True when no file record holds a parse product.
    fn holds_no_product(engine: &DeltaEngine) -> bool {
        engine.files.values().flat_map(BTreeMap::values).all(|r| r.parsed.is_none())
    }

    #[test]
    fn a_seeded_network_rebuilds_around_its_quarantined_file_parsing_one() {
        let tmp = study("seedquarantine");
        let net4 = tmp.0.join("net4");
        for i in 1..=4 {
            write_config(&net4, &format!("config{i}"), &config(&format!("delta{i}"), i));
        }
        write_config(&net4, "config5", "interface E0\n ip address bad 255.0.0.0\n");
        let seed = decoded(&cold_bytes(&tmp.0));
        let net4_seeded = seed.networks.iter().find(|n| n.name == "net4").expect("net4");
        assert_eq!(net4_seeded.network.coverage.quarantined, vec!["config5".to_string()]);

        let loopback = |octet: u8| {
            format!("interface Loopback0\n ip address 10.9.0.{octet} 255.255.255.255\n")
        };

        let mut engine = DeltaEngine::new(&tmp.0);
        engine.seed(&seed);
        assert!(holds_no_product(&engine));
        append(&net4.join("config1"), &loopback(1));
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.files_reparsed, 1);
        assert_eq!((refresh.stats.recomputed, refresh.stats.reused), (1, 3));
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
        assert!(holds_no_product(&engine), "a successful refresh commits every product");

        // A probe keeps the product of what moved until a refresh commits it.
        append(&net4.join("config2"), &loopback(2));
        assert_eq!(engine.probe().parsed, 1);
        assert!(!holds_no_product(&engine));
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.files_reparsed, 0, "the probe parsed the edit");
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
        assert!(holds_no_product(&engine));
    }

    #[test]
    fn a_seeded_network_over_the_error_budget_is_not_current() {
        let tmp = study("seedbudget");
        // Both files of net2 quarantined: over the error budget, so a
        // refresh would drop it.
        write_config(&tmp.0.join("net2"), "config1", "interface E0\n ip address bad 255.0.0.0\n");
        write_config(&tmp.0.join("net2"), "config2", "interface E0\n ip address bad 255.0.0.0\n");
        // A corpus that still holds it, as one written under a laxer
        // budget would.
        let networks = ["net1", "net2", "net3"].map(|net| {
            capture(net, NetworkAnalysis::from_dir(&tmp.0.join(net)).expect("readable"))
        });
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.seed(&Corpus::new(networks.into()));
        let probe = engine.probe();
        assert_eq!(probe.parsed, 0);
        assert!(!probe.current, "a refresh would drop net2 from the seeded corpus");
    }

    #[test]
    fn single_network_dir_matches_cold_run() {
        let tmp = TempDir::new("single");
        write_config(&tmp.0, "config1", &config("solo", 1));
        write_config(&tmp.0, "config2", &config("solo2", 2));
        let mut engine = DeltaEngine::new(&tmp.0);
        let first = engine.refresh().expect("first");
        assert_eq!(first.bytes, cold_bytes(&tmp.0));
        let second = engine.refresh().expect("second");
        assert_eq!(second.stats.reused, 1);
        assert_eq!(second.bytes, first.bytes);
    }

    #[test]
    fn over_budget_network_drops_exactly_like_cold() {
        let tmp = study("budget");
        let mut engine = DeltaEngine::new(&tmp.0);
        engine.refresh().expect("warm up");
        // Corrupt both files of net2: 2/2 quarantined, over any budget.
        write_config(&tmp.0.join("net2"), "config1", "interface E0\n ip address bad 255.0.0.0\n");
        write_config(&tmp.0.join("net2"), "config2", "interface E0\n ip address bad 255.0.0.0\n");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.dropped, 1);
        assert_eq!(refresh.outcome.dropped.len(), 1);
        let cold = snap_dir(&tmp.0).expect("cold");
        assert_eq!(cold.dropped.len(), 1);
        assert_eq!(refresh.outcome.dropped[0].name, cold.dropped[0].name);
        assert_eq!(refresh.outcome.dropped[0].reason, cold.dropped[0].reason);
        assert_eq!(refresh.bytes, cold.corpus.to_bytes());
        // The dropped network stays cached: restoring its files brings
        // it back (recomputed, because its contents changed again).
        write_config(&tmp.0.join("net2"), "config1", &config("bravo", 1));
        write_config(&tmp.0.join("net2"), "config2", &config("bravo2", 2));
        let healed = engine.refresh().expect("healed");
        assert_eq!(healed.stats.dropped, 0);
        assert_eq!(healed.bytes, cold_bytes(&tmp.0));
    }

    #[test]
    fn same_size_rewrite_within_one_mtime_tick_is_rehashed() {
        let tmp = study("racy");
        let path = tmp.0.join("net2").join("config1");
        let mtime = std::fs::metadata(&path).expect("stat").modified().expect("mtime");
        let mut engine = DeltaEngine::new(&tmp.0);
        let before = engine.refresh().expect("warm up");
        // Same size, same mtime (a rewrite within one timestamp tick):
        // only the bytes tell the new address apart.
        std::fs::write(&path, config("bravo", 1).replace("10.0.1.1", "10.0.7.1")).expect("write");
        std::fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_modified(mtime))
            .expect("restore mtime");
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.recomputed, 1);
        assert_ne!(refresh.bytes, before.bytes);
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
    }

    #[test]
    fn probe_parses_only_what_moved_and_refresh_reuses_its_products() {
        let tmp = study("probe");
        let mut engine = DeltaEngine::new(&tmp.0);
        let first = engine.probe();
        assert_eq!((first.files, first.parsed), (6, 6));
        let warm = engine.refresh().expect("warm up");
        assert_eq!(warm.stats.recomputed, 3);
        assert_eq!(warm.stats.files_reparsed, 0, "the probe already parsed every file");
        assert_eq!(warm.digest, first.digest);

        let idle = engine.probe();
        assert_eq!(idle.parsed, 0, "a probe of an unchanged tree parses nothing");
        assert_eq!(idle.digest, first.digest);

        append(
            &tmp.0.join("net2").join("config1"),
            "interface Loopback0\n ip address 10.9.0.1 255.255.255.255\n",
        );
        let moved = engine.probe();
        assert_eq!(moved.parsed, 1);
        assert_ne!(moved.digest, idle.digest);
        let refresh = engine.refresh().expect("refresh");
        assert_eq!(refresh.stats.files_reparsed, 0, "the edit is parsed once, by the probe");
        assert_eq!(refresh.stats.recomputed, 1);
        assert_eq!(refresh.digest, moved.digest);
        assert_eq!(refresh.bytes, cold_bytes(&tmp.0));
    }

    #[test]
    fn cosmetic_churn_keeps_the_digest() {
        let tmp = study("cosmetic");
        let mut engine = DeltaEngine::new(&tmp.0);
        let before = engine.probe();
        let path = tmp.0.join("net1").join("config2");
        append(&path, "! change ticket 7\n!\n");
        let cosmetic = engine.probe();
        assert_eq!(cosmetic.parsed, 1);
        assert_eq!(cosmetic.digest, before.digest);
        append(&path, "router ospf 2\n network 10.2.0.0 0.0.255.255 area 0\n");
        assert_ne!(engine.probe().digest, before.digest);
    }

    #[test]
    fn seeded_engine_digests_like_one_that_parsed() {
        let tmp = study("seedprint");
        // A quarantined file (1 of 5, inside the error budget) digests by
        // its raw hash either way.
        let net4 = tmp.0.join("net4");
        for i in 1..=4 {
            write_config(&net4, &format!("config{i}"), &config(&format!("delta{i}"), i));
        }
        write_config(&net4, "config5", "");
        let bytes = cold_bytes(&tmp.0);
        let mut seeded = DeltaEngine::new(&tmp.0);
        assert_eq!(seeded.seed(&decoded(&bytes)), 4);
        let probe = seeded.probe();
        assert_eq!(probe.parsed, 0, "seeded files hash as recorded: nothing to parse");
        assert!(probe.current, "an unchanged tree leaves the seeded corpus current");
        assert_eq!(probe.digest, DeltaEngine::new(&tmp.0).probe().digest);
    }

    #[test]
    fn seeded_probe_is_current_only_while_nothing_needs_redoing() {
        let tmp = study("seedcurrent");
        let corpus = decoded(&cold_bytes(&tmp.0));
        let probe_seeded = || {
            let mut engine = DeltaEngine::new(&tmp.0);
            engine.seed(&corpus);
            engine.probe()
        };
        assert!(probe_seeded().current);

        // A changed file, a new network and a vanished one each leave
        // work for a refresh.
        let path = tmp.0.join("net2").join("config1");
        let original = std::fs::read(&path).expect("read");
        append(&path, "interface Loopback0\n ip address 10.9.0.1 255.255.255.255\n");
        let changed = probe_seeded();
        assert!(!changed.current);
        assert_eq!(changed.parsed, 1, "only the edited file parses");
        std::fs::write(&path, &original).expect("restore");
        assert!(probe_seeded().current, "restored bytes hash as recorded again");

        write_config(&tmp.0.join("net4"), "config1", &config("delta", 4));
        assert!(!probe_seeded().current, "an added network is not in the seeded corpus");
        std::fs::remove_dir_all(tmp.0.join("net4")).expect("remove net4");
        let net1 = std::fs::read(tmp.0.join("net1").join("config1")).expect("read");
        std::fs::remove_dir_all(tmp.0.join("net1")).expect("remove net1");
        assert!(!probe_seeded().current, "a removed network is still in the seeded corpus");
        write_config(&tmp.0.join("net1"), "config1", std::str::from_utf8(&net1).expect("utf-8"));
        write_config(&tmp.0.join("net1"), "config2", &config("alpha2", 2));
        assert!(probe_seeded().current);
    }
}
