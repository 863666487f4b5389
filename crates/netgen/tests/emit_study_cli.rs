//! `emit_study` command lines end to end: `--small` anywhere on the line
//! is the scale switch, and a flag it does not know is a usage error
//! (exit 2) that writes nothing.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory to run `emit_study` in.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emit-study-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn emit_study(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_emit_study"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn emit_study")
}

#[test]
fn small_before_the_output_directory_is_the_scale_switch() {
    let cwd = scratch("small-first");
    let out = emit_study(&cwd, &["--small", "st", "net15"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!cwd.join("--small").exists(), "--small was taken as the output directory");
    let written = fs::read_dir(cwd.join("st").join("net15")).expect("st/net15 written").count();
    let small = netgen::study_roster(netgen::StudyScale::Small)
        .into_iter()
        .find(|spec| spec.name == "net15")
        .expect("net15 in the roster");
    let expected = netgen::study::generate_network(&small, netgen::StudyScale::Small).texts.len();
    assert_eq!(written, expected, "st/net15 is not the small-scale net15");
    fs::remove_dir_all(&cwd).ok();
}

#[test]
fn unknown_flags_and_missing_operands_are_usage_errors() {
    let cwd = scratch("usage");
    for args in [&["st", "--smal", "net5"][..], &["st", "--no-such-flag"], &[]] {
        let out = emit_study(&cwd, args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!cwd.join("st").exists(), "{args:?} wrote a corpus");
    }
    fs::remove_dir_all(&cwd).ok();
}
