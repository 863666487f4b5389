//! `trace_check` — validates an emitted JSONL trace file.
//!
//! Every line must be a syntactically valid JSON object carrying the
//! required event keys (`ev`, `name`, `ts_us`). Used by `scripts/verify.sh`
//! as the self-check over traces emitted by `rdx` and `repro`.
//!
//! ```sh
//! trace_check <trace.jsonl>
//! ```
//!
//! Exits 0 printing a line/kind summary, 1 naming the first bad line, or
//! 2 on a usage error.

use std::process::ExitCode;

use rd_obs::cli::{CliError, Table};

static TABLE: Table = Table { name: "trace_check", operands: "<trace.jsonl>", flags: &[] };

/// The one trace file a command line names.
fn parse_args<S: AsRef<str>>(argv: &[S]) -> Result<String, CliError> {
    let args = TABLE.parse(argv)?;
    args.at_most(1)?;
    Ok(args.operand(0, "<trace.jsonl>")?.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let path = match parse_args(&argv) {
        Ok(path) => path,
        Err(e) => return e.report(&TABLE),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut total = 0usize;
    let mut opens = 0usize;
    let mut closes = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        if let Err(e) = rd_obs::json::validate_event_line(line) {
            eprintln!("trace_check: {path}:{}: {e}", i + 1);
            eprintln!("  {line}");
            return ExitCode::FAILURE;
        }
        total += 1;
        // Cheap kind census; the schema puts "ev" first.
        if line.starts_with("{\"ev\":\"span_open\"") {
            opens += 1;
        } else if line.starts_with("{\"ev\":\"span_close\"") {
            closes += 1;
        }
    }
    if opens != closes {
        eprintln!("trace_check: {path}: {opens} span_open vs {closes} span_close");
        return ExitCode::FAILURE;
    }
    println!(
        "trace_check: {path}: {total} valid event line(s) ({opens} spans, {} point events)",
        total - opens - closes
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_trace_check_command_lines() {
        assert_eq!(parse_args(&["/tmp/net15.jsonl"]), Ok("/tmp/net15.jsonl".to_string()));
        assert_eq!(parse_args(&["-"]), Ok("-".to_string()));
        let cases: &[(&[&str], CliError)] = &[
            (&[], CliError::MissingArgument("<trace.jsonl>")),
            (&["a.jsonl", "b.jsonl"], CliError::UnexpectedArgument("b.jsonl".into())),
            (&["a.jsonl", "--no-such-flag"], CliError::UnknownFlag("--no-such-flag".into())),
        ];
        for (argv, want) in cases {
            assert_eq!(parse_args(argv), Err(want.clone()), "{argv:?}");
        }
    }
}
