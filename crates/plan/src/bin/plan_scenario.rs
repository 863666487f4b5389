//! Materializes a seeded planner scenario onto disk as two config
//! directories — `<out>/current` and `<out>/target` — ready for
//! `rdx plan`. Used by the verify.sh plan stage and EXPERIMENTS.md.
//!
//! Usage: `plan_scenario <out-dir> [--seed N] [--star SPOKES]` (either
//! flag also as `--seed=N`). Usage errors and write failures exit 2.

use std::path::Path;
use std::process::ExitCode;

use rd_obs::cli::{CliError, Flag, Table};

static TABLE: Table = Table {
    name: "plan_scenario",
    operands: "<out-dir>",
    flags: &[&[Flag::value("--seed", "N"), Flag::value("--star", "SPOKES")]],
};

/// The output directory, the seed, and the star scenario's spoke count
/// (the demo scenario when absent).
type Scenario = (String, u64, Option<usize>);

fn parse_args<S: AsRef<str>>(argv: &[S]) -> Result<Scenario, CliError> {
    let args = TABLE.parse(argv)?;
    args.at_most(1)?;
    let out = args.operand(0, "<out-dir>")?.to_string();
    Ok((out, args.get("--seed")?.unwrap_or(42), args.get("--star")?))
}

fn write_corpus(dir: &Path, corpus: &rd_plan::CorpusFiles) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (name, bytes) in corpus {
        let path = dir.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

fn run((out, seed, star): Scenario) -> Result<(), String> {
    let (current, target) = match star {
        Some(spokes) => rd_plan::scenario::star(spokes, seed),
        None => rd_plan::scenario::demo(seed),
    };
    let out = Path::new(&out);
    write_corpus(&out.join("current"), &current)?;
    write_corpus(&out.join("target"), &target)?;
    println!(
        "wrote {} current + {} target config(s) under {} (seed {seed})",
        current.len(),
        target.len(),
        out.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let scenario = match parse_args(&argv) {
        Ok(scenario) => scenario,
        Err(e) => return e.report(&TABLE),
    };
    match run(scenario) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("plan_scenario: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(out: &str, seed: u64, star: Option<usize>) -> Scenario {
        (out.to_string(), seed, star)
    }

    #[test]
    fn parse_plan_scenario_command_lines() {
        let cases: &[(&[&str], Scenario)] = &[
            (&["/tmp/mig"], scenario("/tmp/mig", 42, None)),
            (&["/tmp/mig", "--seed", "42"], scenario("/tmp/mig", 42, None)),
            (&["/tmp/mig", "--seed=42"], scenario("/tmp/mig", 42, None)),
            (&["--seed", "7", "d", "--star", "12"], scenario("d", 7, Some(12))),
            (&["d", "--star=3"], scenario("d", 42, Some(3))),
        ];
        for (argv, want) in cases {
            assert_eq!(parse_args(argv).as_ref(), Ok(want), "{argv:?}");
        }
    }

    #[test]
    fn usage_errors() {
        let bad = |name, value: &str, reason: &str| CliError::BadValue {
            name,
            value: value.to_string(),
            reason: reason.to_string(),
        };
        let cases: &[(&[&str], CliError)] = &[
            (&[], CliError::MissingArgument("<out-dir>")),
            (&["d", "e"], CliError::UnexpectedArgument("e".into())),
            (&["d", "--seed"], CliError::MissingValue { flag: "--seed", metavar: "N" }),
            (&["d", "--seed", "x"], bad("--seed", "x", "invalid digit found in string")),
            (&["d", "--star=-1"], bad("--star", "-1", "invalid digit found in string")),
            (&["d", "--no-such-flag"], CliError::UnknownFlag("--no-such-flag".into())),
        ];
        for (argv, want) in cases {
            assert_eq!(parse_args(argv), Err(want.clone()), "{argv:?}");
        }
    }
}
