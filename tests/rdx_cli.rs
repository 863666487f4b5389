//! The `rdx` command line end to end: usage errors exit 2, and every
//! command reads a config tree the way `rdx snap` does.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn rdx(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rdx")).args(args).output().expect("spawn rdx")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdx-cli-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

const HUB: &str = "hostname c0-hub0\n\
                   interface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n\
                   router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n";
const SPOKE: &str = "hostname c0-spoke{n}\n\
                     interface Ethernet0\n ip address 10.0.0.{n} 255.255.255.0\n\
                     router ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n";

/// The hub with one loopback added: a change to its analysis.
fn edited_hub() -> String {
    HUB.replace(
        "router ospf",
        "interface Loopback9\n ip address 10.9.0.1 255.255.255.255\nrouter ospf",
    )
}

/// `<root>/mix`: `config1` at the top level and two more configs one
/// directory down, in `sub/`.
fn mixed_tree(root: &Path, hub: &str) -> PathBuf {
    let mix = root.join("mix");
    fs::create_dir_all(mix.join("sub")).expect("create tree");
    fs::write(mix.join("config1"), hub).expect("write config1");
    for n in [2, 3] {
        let text = SPOKE.replace("{n}", &n.to_string());
        fs::write(mix.join("sub").join(format!("config{n}")), text).expect("write spoke");
    }
    mix
}

#[test]
fn diff_networks_reads_a_mixed_tree_as_snap_does() {
    let root = scratch("mixed");
    let old = mixed_tree(&root.join("a"), HUB);
    let new = mixed_tree(&root.join("b"), &edited_hub());

    // snap sees one network: the top-level config directory itself.
    let snap_path = root.join("mix.rdsnap");
    let out = rdx(&[Path::new("snap"), &old, Path::new("-o"), &snap_path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let corpus = rd_snap::Corpus::from_bytes(&fs::read(&snap_path).expect("snapshot written"))
        .expect("snapshot decodes");
    let names: Vec<&str> = corpus.networks.iter().map(|n| n.name.as_str()).collect();
    assert_eq!(names, ["mix"]);

    // The router diff sees the edit...
    let out = rdx(&[&old, Path::new("diff"), &new]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let diff = String::from_utf8_lossy(&out.stdout);
    assert!(diff.contains("c0-hub0"), "router diff missed the edit:\n{diff}");

    // ...and so must the network view of the same two trees.
    let out = rdx(&[&old, Path::new("diff"), &new, Path::new("--networks")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "mix\n");

    fs::remove_dir_all(&root).ok();
}

/// Two networks built from the same hostnames (as `emit_study` builds
/// them): editing the hub of one touches that network alone.
#[test]
fn diff_networks_names_only_the_edited_network_when_hostnames_repeat() {
    let root = scratch("shared");
    // `<root>/<side>/{net1,net2}`, the hub of network `edited` edited.
    let study = |side: &str, edited: &str| {
        let tree = root.join(side);
        for net in ["net1", "net2"] {
            let dir = tree.join(net);
            fs::create_dir_all(&dir).expect("create network");
            let hub = if net == edited { edited_hub() } else { HUB.to_string() };
            fs::write(dir.join("config1"), hub).expect("write hub");
            for n in [2, 3] {
                let text = SPOKE.replace("{n}", &n.to_string());
                fs::write(dir.join(format!("config{n}")), text).expect("write spoke");
            }
        }
        tree
    };
    let old = study("a", "");
    let new = study("b", "net2");

    let out = rdx(&[&old, Path::new("diff"), &new, Path::new("--networks")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "net2\n");

    fs::remove_dir_all(&root).ok();
}

#[test]
fn usage_errors_exit_2() {
    let root = scratch("usage");
    for line in [
        &["--no-such-flag"][..],
        &["snap", "d", "--no-such-flag"],
        &["serve", "s.rdsnap", "--max-conns", "0"],
        &["watch", "d", "--degraded-after=0"],
        &["chaos", "d", "--seed", "x"],
        &["d", "summary", "--trace"],
        &["d", "frob"],
    ] {
        let args: Vec<&Path> = line.iter().map(Path::new).collect();
        let out = Command::new(env!("CARGO_BIN_EXE_rdx"))
            .args(&args)
            .current_dir(&root)
            .output()
            .expect("spawn rdx");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{line:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "{line:?} printed to stdout");
    }
    fs::remove_dir_all(&root).ok();
}

/// `rdx snap --info` prints the frame table of the snapshot of
/// `emit_study --small net15` exactly as `tests/golden/snap_info_net15.txt`
/// holds it (the file is named relative to the working directory, so
/// the first line is fixed too).
#[test]
fn snap_info_prints_the_pinned_frame_table() {
    let root = scratch("info");
    let spec = netgen::study_roster(netgen::StudyScale::Small)
        .into_iter()
        .find(|spec| spec.name == "net15")
        .expect("net15 is in the roster");
    let net15 = root.join("tree").join("net15");
    fs::create_dir_all(&net15).expect("create tree");
    for (name, text) in netgen::study::generate_network(&spec, netgen::StudyScale::Small).texts {
        fs::write(net15.join(name), text).expect("write config");
    }
    let snap = root.join("net15.rdsnap");
    let out = rdx(&[Path::new("snap"), &root.join("tree"), Path::new("-o"), &snap]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    let out = Command::new(env!("CARGO_BIN_EXE_rdx"))
        .args(["snap", "--info", "net15.rdsnap"])
        .current_dir(&root)
        .output()
        .expect("spawn rdx");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/snap_info_net15.txt");
    let golden = fs::read_to_string(golden).expect("golden file");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden);
    fs::remove_dir_all(&root).ok();
}
