//! Writes the generated study corpus to disk as directories of config
//! files (`<out>/net1/config1` ...), for use with `rdx` or any external
//! tool.
//!
//! ```sh
//! cargo run --release -p netgen --bin emit_study -- <out-dir> [--small] [netNN ...]
//! ```
//!
//! `--small` may appear anywhere on the line; any other flag is a usage
//! error and exits 2.

use std::process::ExitCode;

use rd_obs::cli::{CliError, Flag, Table};

static TABLE: Table = Table {
    name: "emit_study",
    operands: "<out-dir> [netNN ...]",
    flags: &[&[Flag::switch("--small")]],
};

/// The output directory, whether `--small` was given, and the networks
/// to write (all when none is named).
type Emit = (String, bool, Vec<String>);

fn parse_args<S: AsRef<str>>(argv: &[S]) -> Result<Emit, CliError> {
    let args = TABLE.parse(argv)?;
    let out = args.operand(0, "<out-dir>")?.to_string();
    Ok((out, args.switch("--small"), args.operands()[1..].to_vec()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (out, small, networks) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => return e.report(&TABLE),
    };
    let scale = if small { netgen::StudyScale::Small } else { netgen::StudyScale::Full };
    for spec in netgen::study_roster(scale) {
        if !networks.is_empty() && !networks.contains(&spec.name) {
            continue;
        }
        let dir = std::path::Path::new(&out).join(&spec.name);
        std::fs::create_dir_all(&dir).expect("create network dir");
        let generated = netgen::study::generate_network(&spec, scale);
        for (name, text) in &generated.texts {
            std::fs::write(dir.join(name), text).expect("write config");
        }
        eprintln!("{}: {} configs", spec.name, generated.texts.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(out: &str, small: bool, networks: &[&str]) -> Emit {
        (out.to_string(), small, networks.iter().map(|n| n.to_string()).collect())
    }

    #[test]
    fn parse_emit_study_command_lines() {
        let cases: &[(&[&str], Emit)] = &[
            (&["/tmp/study"], emit("/tmp/study", false, &[])),
            (&["/tmp/study", "--small", "net5"], emit("/tmp/study", true, &["net5"])),
            (&["/tmp/study", "--small"], emit("/tmp/study", true, &[])),
            (&["--small", "st", "net5"], emit("st", true, &["net5"])),
            (&["st", "net1", "--small", "net15"], emit("st", true, &["net1", "net15"])),
        ];
        for (argv, want) in cases {
            assert_eq!(parse_args(argv).as_ref(), Ok(want), "{argv:?}");
        }
    }

    #[test]
    fn usage_errors() {
        let cases: &[(&[&str], CliError)] = &[
            (&[], CliError::MissingArgument("<out-dir>")),
            (&["--small"], CliError::MissingArgument("<out-dir>")),
            (&["st", "--smal", "net5"], CliError::UnknownFlag("--smal".into())),
            (&["st", "--small=1"], CliError::UnknownFlag("--small=1".into())),
            (&["st", "--no-such-flag"], CliError::UnknownFlag("--no-such-flag".into())),
        ];
        for (argv, want) in cases {
            assert_eq!(parse_args(argv), Err(want.clone()), "{argv:?}");
        }
    }
}
