//! Seeded inputs: the config tree on disk, the edit sequence, and the
//! request order. The workload seed is the only thing that changes them;
//! the program under test sees nothing but the files, snapshots and
//! requests made here.

use std::path::{Path, PathBuf};

use netgen::{study_roster, NetworkSpec, StudyScale};
use rd_rng::StdRng;

/// Corpus size of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper-sized study: 31 networks, 8,035 routers, ~47 MB.
    Full,
    /// netgen's ~10% study: 31 networks, ~850 routers.
    Small,
    /// The four smallest networks of the small study (self-tests only).
    Tiny,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
            Scale::Tiny => "tiny",
        }
    }

    fn netgen(self) -> StudyScale {
        match self {
            Scale::Full => StudyScale::Full,
            Scale::Small | Scale::Tiny => StudyScale::Small,
        }
    }
}

/// SplitMix64: spreads one workload seed into independent stream seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const EDIT_STREAM: u64 = 1 << 32;
const REQUEST_STREAM: u64 = 2 << 32;

/// The study roster at `scale`, with every network's generator seed
/// (`NetworkSpec::seed`) derived from the workload seed.
pub fn roster(scale: Scale, seed: u64) -> Vec<NetworkSpec> {
    let mut roster = study_roster(scale.netgen());
    for (i, spec) in roster.iter_mut().enumerate() {
        spec.seed = mix(seed, i as u64);
    }
    if scale == Scale::Tiny {
        roster.sort_by_key(|s| (s.routers, s.name.clone()));
        roster.truncate(4);
    }
    roster
}

/// One network of a generated tree: its directory name and config files.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetworkFiles {
    pub name: String,
    pub files: Vec<String>,
}

/// A study tree written to disk as `<dir>/<net>/<config>`.
pub struct Tree {
    pub dir: PathBuf,
    pub networks: Vec<NetworkFiles>,
}

impl Tree {
    /// Routers in the tree: one per config file.
    pub fn routers(&self) -> usize {
        self.networks.iter().map(|n| n.files.len()).sum()
    }
}

/// Generates the seeded study at `scale` and writes it under `dir`, one
/// network per worker, leaving nothing else there.
///
/// Files a previous set-up left at the same paths are overwritten in
/// place rather than deleted and re-created: on a filesystem mounted with
/// `discard` (as ext4 here is), creating a tree this size right after
/// deleting one runs up to ten times slower, which made set-up time
/// depend on what ran before.
pub fn build_tree(dir: &Path, scale: Scale, seed: u64) -> Result<Tree, String> {
    let roster = roster(scale, seed);
    let written = rd_par::par_map(&roster, |_, spec| -> Result<NetworkFiles, String> {
        let generated = netgen::study::generate_network(spec, scale.netgen());
        let net_dir = dir.join(&spec.name);
        std::fs::create_dir_all(&net_dir)
            .map_err(|e| format!("create {}: {e}", net_dir.display()))?;
        let mut files = Vec::with_capacity(generated.texts.len());
        for (name, text) in &generated.texts {
            overwrite(&net_dir.join(name), text.as_bytes())
                .map_err(|e| format!("write {}/{name}: {e}", net_dir.display()))?;
            files.push(name.clone());
        }
        remove_others(&net_dir, &files)?;
        Ok(NetworkFiles {
            name: spec.name.clone(),
            files,
        })
    });
    let mut networks = written.into_iter().collect::<Result<Vec<_>, _>>()?;
    networks.sort_by(|a, b| a.name.cmp(&b.name));
    let names: Vec<String> = networks.iter().map(|n| n.name.clone()).collect();
    remove_others(dir, &names)?;
    Ok(Tree {
        dir: dir.to_path_buf(),
        networks,
    })
}

/// Writes `bytes` to `path` over whatever blocks the file already has.
fn overwrite(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)
}

/// Removes every entry of `dir` whose name is not in `keep`.
fn remove_others(dir: &Path, keep: &[String]) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !keep.contains(&name) {
            let path = entry.path();
            let removed = if path.is_dir() {
                std::fs::remove_dir_all(&path)
            } else {
                std::fs::remove_file(&path)
            };
            removed.map_err(|e| format!("remove {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Whether an edit changes what the analysis sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// Adds a routing process: the router's fingerprint, the analysis
    /// and the served `/networks/{net}` body all change.
    Semantic,
    /// Adds a `!` comment line: bytes change, the parsed config does not.
    Cosmetic,
}

/// One single-router config edit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edit {
    pub network: String,
    pub file: String,
    pub kind: EditKind,
    /// Position in the sequence; makes every inserted stanza unique.
    pub serial: usize,
}

/// The seeded edit sequence over `networks`: semantic and cosmetic edits
/// alternate, starting with a semantic one. Semantic edits walk a fresh
/// seeded permutation of all networks per cycle, so every network — the
/// largest included — is edited once per cycle; each cosmetic edit lands
/// on another network of the same permutation. Routers are drawn
/// uniformly within the network.
pub fn edit_sequence(seed: u64, networks: &[NetworkFiles], len: usize) -> Vec<Edit> {
    let mut rng = StdRng::seed_from_u64(mix(seed, EDIT_STREAM));
    let mut order: Vec<usize> = Vec::new();
    let mut edits = Vec::with_capacity(len);
    for serial in 0..len {
        let step = serial / 2;
        if step % networks.len() == 0 && serial % 2 == 0 {
            order = (0..networks.len()).collect();
            shuffle(&mut rng, &mut order);
        }
        let (kind, slot) = if serial % 2 == 0 {
            (EditKind::Semantic, step % networks.len())
        } else {
            (
                EditKind::Cosmetic,
                (step + networks.len() / 2) % networks.len(),
            )
        };
        let net = &networks[order[slot]];
        let file = net.files[rng.gen_range(0..net.files.len())].clone();
        edits.push(Edit {
            network: net.name.clone(),
            file,
            kind,
            serial,
        });
    }
    edits
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `text` with the edit's stanza inserted before the config's
/// terminating `end` line — the IOS parser stops reading at `end`, so
/// anything appended after it is never seen.
pub fn edited(text: &str, edit: &Edit) -> String {
    let stanza = match edit.kind {
        // Process ids 60000+ sit far above any the generator emits.
        EditKind::Semantic => format!(
            "router ospf {}\n network 10.254.{}.{} 0.0.0.0 area 0\n",
            60_000 + edit.serial % 5_000,
            edit.serial / 250 % 250,
            edit.serial % 250 + 1,
        ),
        EditKind::Cosmetic => format!("! change ticket {}\n", edit.serial),
    };
    let mut at = None;
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if line.trim().eq_ignore_ascii_case("end") {
            at = Some(offset);
            break;
        }
        offset += line.len();
    }
    match at {
        Some(at) => [&text[..at], stanza.as_str(), &text[at..]].concat(),
        None if text.is_empty() || text.ends_with('\n') => format!("{text}{stanza}"),
        None => format!("{text}\n{stanza}"),
    }
}

/// Applies `edit` to its config file under `tree`.
pub fn apply(tree: &Path, edit: &Edit) -> Result<(), String> {
    let path = tree.join(&edit.network).join(&edit.file);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    std::fs::write(&path, edited(&text, edit)).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The seeded request order: a permutation of `paths`, cycled by the
/// load generator.
pub fn request_order(seed: u64, mut paths: Vec<String>) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(mix(seed, REQUEST_STREAM));
    shuffle(&mut rng, &mut paths);
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_design::diff::config_fingerprint;

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tree_bytes(tree: &Tree) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for net in &tree.networks {
            for file in &net.files {
                let bytes = std::fs::read(tree.dir.join(&net.name).join(file)).expect("read");
                out.push((format!("{}/{file}", net.name), bytes));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = build_tree(&temp("seed-a"), Scale::Tiny, 7).expect("tree a");
        let b = build_tree(&temp("seed-b"), Scale::Tiny, 7).expect("tree b");
        let c = build_tree(&temp("seed-c"), Scale::Tiny, 8).expect("tree c");
        assert_eq!(tree_bytes(&a), tree_bytes(&b));
        assert_ne!(tree_bytes(&a), tree_bytes(&c));

        // Re-using a directory leaves exactly the new tree behind.
        std::fs::write(c.dir.join(&c.networks[0].name).join("stray"), "x").expect("stray file");
        apply(
            &c.dir,
            &Edit {
                network: c.networks[0].name.clone(),
                file: c.networks[0].files[0].clone(),
                kind: EditKind::Semantic,
                serial: 1,
            },
        )
        .expect("edit");
        let reused = build_tree(&c.dir, Scale::Tiny, 7).expect("tree over c");
        assert_eq!(tree_bytes(&reused), tree_bytes(&a));
        let on_disk: usize = reused
            .networks
            .iter()
            .map(|n| {
                std::fs::read_dir(reused.dir.join(&n.name))
                    .expect("list")
                    .count()
            })
            .sum();
        assert_eq!(on_disk, reused.routers());

        assert_eq!(
            edit_sequence(7, &a.networks, 40),
            edit_sequence(7, &b.networks, 40)
        );
        assert_ne!(
            edit_sequence(7, &a.networks, 40),
            edit_sequence(8, &a.networks, 40)
        );

        let paths: Vec<String> = (0..20).map(|i| format!("/p{i}")).collect();
        assert_eq!(
            request_order(7, paths.clone()),
            request_order(7, paths.clone())
        );
        assert_ne!(
            request_order(7, paths.clone()),
            request_order(8, paths.clone())
        );
        for t in [a, b, c] {
            let _ = std::fs::remove_dir_all(t.dir);
        }
    }

    #[test]
    fn edit_sequence_alternates_and_covers_every_network() {
        let networks: Vec<NetworkFiles> = (0..5)
            .map(|i| NetworkFiles {
                name: format!("net{i}"),
                files: vec!["config1".into()],
            })
            .collect();
        let edits = edit_sequence(3, &networks, 10);
        let semantic: std::collections::BTreeSet<&str> = edits
            .iter()
            .filter(|e| e.kind == EditKind::Semantic)
            .map(|e| e.network.as_str())
            .collect();
        assert_eq!(semantic.len(), 5);
        assert!(edits
            .iter()
            .step_by(2)
            .all(|e| e.kind == EditKind::Semantic));
        assert!(edits
            .iter()
            .skip(1)
            .step_by(2)
            .all(|e| e.kind == EditKind::Cosmetic));
    }

    #[test]
    fn edits_land_before_end_and_only_semantic_ones_change_the_fingerprint() {
        let text =
            "hostname r1\n!\ninterface Serial0\n ip address 10.0.0.1 255.255.255.252\n!\nend\n";
        let base = config_fingerprint(&ioscfg::parse_config(text).expect("base parses"));
        let edit = |kind, serial| Edit {
            network: "net1".into(),
            file: "config1".into(),
            kind,
            serial,
        };

        let semantic = edited(text, &edit(EditKind::Semantic, 3));
        assert!(semantic.ends_with("end\n"));
        let fp = config_fingerprint(&ioscfg::parse_config(&semantic).expect("semantic parses"));
        assert_ne!(fp, base);

        let cosmetic = edited(text, &edit(EditKind::Cosmetic, 4));
        assert_ne!(cosmetic, text);
        let fp = config_fingerprint(&ioscfg::parse_config(&cosmetic).expect("cosmetic parses"));
        assert_eq!(fp, base);

        // The old harnesses appended after `end`, which the parser never reads.
        let appended = format!("{text}router ospf 60001\n network 10.254.0.1 0.0.0.0 area 0\n");
        let fp = config_fingerprint(&ioscfg::parse_config(&appended).expect("appended parses"));
        assert_eq!(fp, base);
    }
}
