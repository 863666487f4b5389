//! The one command-line parser every binary shares.
//!
//! A command declares its flags as a [`Table`] of [`Flag`]s, and
//! [`Table::parse`] reads every command line the same way: flags may
//! appear anywhere on the line; a value flag takes the next word, whatever
//! it looks like (`--trace -`), or the text after `=` (`--seed=42`); any
//! other word of two or more characters starting with `-` is a flag, and
//! an undeclared one is an error; a flag given twice keeps its last value.
//! [`Args::get`] types values through [`FromStr`], so `NonZeroUsize`
//! stands in for a hand-written "needs a positive number" check. Every
//! failure is one [`CliError`], and every usage error exits 2.

use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

/// One flag a command line may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flag {
    /// The long spelling, `--name`.
    pub name: &'static str,
    /// A short alias such as `-o`.
    pub short: Option<&'static str>,
    /// The value's metavar for the usage line (`N`, `<path>`); `None`
    /// makes the flag a switch.
    pub value: Option<&'static str>,
}

impl Flag {
    /// A switch: present or absent, no value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, short: None, value: None }
    }

    /// A flag that takes one value, shown as `metavar` in usage lines.
    pub const fn value(name: &'static str, metavar: &'static str) -> Flag {
        Flag { name, short: None, value: Some(metavar) }
    }

    /// This flag with the short alias `alias` (`-o`).
    pub const fn short(self, alias: &'static str) -> Flag {
        Flag { short: Some(alias), ..self }
    }

    /// True when `word` is one of this flag's spellings.
    fn spelled(&self, word: &str) -> bool {
        word == self.name || self.short == Some(word)
    }
}

/// `--help` / `-h`.
pub const HELP: Flag = Flag::switch("--help").short("-h");

/// `--version` / `-V`.
pub const VERSION: Flag = Flag::switch("--version").short("-V");

/// The first of `flags`, in their order, spelled anywhere in `argv`.
/// `--help` and `--version` answer through this, so they win over
/// everything else on the line, a usage error included.
pub fn requested<'f, S: AsRef<str>>(argv: &[S], flags: &'f [Flag]) -> Option<&'f Flag> {
    flags.iter().find(|flag| argv.iter().any(|word| flag.spelled(word.as_ref())))
}

/// One command's flag table: the name and operand synopsis its usage line
/// shows, and the flag slices it accepts. Commands that share flags share
/// the slice.
#[derive(Debug, PartialEq, Eq)]
pub struct Table {
    /// The command as typed (`rdx serve`).
    pub name: &'static str,
    /// The positional operands' synopsis (`<file.rdsnap>`), possibly empty.
    pub operands: &'static str,
    /// Every accepted flag, in usage-line order.
    pub flags: &'static [&'static [Flag]],
}

impl Table {
    /// Every flag this table accepts, in usage-line order.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|slice| slice.iter())
    }

    /// Separates `argv` (program name excluded) into flags and operands.
    pub fn parse<S: AsRef<str>>(&self, argv: &[S]) -> Result<Args, CliError> {
        let mut args = Args { declared: self.flags, given: Vec::new(), operands: Vec::new() };
        let mut words = argv.iter().map(AsRef::as_ref);
        while let Some(word) = words.next() {
            if word.len() < 2 || !word.starts_with('-') {
                args.operands.push(word.to_string());
                continue;
            }
            let (spelling, inline) = match word.split_once('=') {
                Some((spelling, value)) => (spelling, Some(value)),
                None => (word, None),
            };
            let flag = self
                .all_flags()
                .find(|flag| flag.spelled(spelling) && (inline.is_none() || flag.value.is_some()))
                .ok_or_else(|| CliError::UnknownFlag(word.to_string()))?;
            let value = match (flag.value, inline) {
                (None, _) => None,
                (Some(_), Some(value)) => Some(value.to_string()),
                (Some(metavar), None) => match words.next() {
                    Some(value) => Some(value.to_string()),
                    None => return Err(CliError::MissingValue { flag: flag.name, metavar }),
                },
            };
            args.given.push((flag.name, value));
        }
        Ok(args)
    }

    /// The command with its operands and every flag, e.g.
    /// `rdx snap <dir> [-o|--out <file.rdsnap>] [--from <prev.rdsnap>]`.
    pub fn synopsis(&self) -> String {
        let flags = self.all_flags().map(|flag| {
            let short = flag.short.map(|s| format!("{s}|")).unwrap_or_default();
            let value = flag.value.map(|m| format!(" {m}")).unwrap_or_default();
            format!(" [{short}{}{value}]", flag.name)
        });
        format!("{} {}", self.name, self.operands).trim_end().to_string()
            + &flags.collect::<String>()
    }

    /// `usage: ` and the [`synopsis`](Table::synopsis).
    pub fn usage(&self) -> String {
        format!("usage: {}", self.synopsis())
    }
}

/// A command line separated by [`Table::parse`].
#[derive(Debug)]
pub struct Args {
    declared: &'static [&'static [Flag]],
    given: Vec<(&'static str, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// Every value given for flag `name`, in order (`None` for a switch).
    ///
    /// # Panics
    ///
    /// When the table does not declare `name`: that is a typo in the
    /// caller, not a usage error.
    fn given(&self, name: &'static str) -> impl Iterator<Item = Option<&str>> {
        assert!(
            self.declared.iter().flat_map(|slice| slice.iter()).any(|flag| flag.name == name),
            "flag {name} is not in this command's table"
        );
        self.given.iter().filter(move |(given, _)| *given == name).map(|(_, v)| v.as_deref())
    }

    /// True when switch `name` was given.
    pub fn switch(&self, name: &'static str) -> bool {
        self.given(name).next().is_some()
    }

    /// The value of flag `name`, as typed.
    pub fn value(&self, name: &'static str) -> Option<&str> {
        self.given(name).last().flatten()
    }

    /// The value of flag `name` parsed as a `T`. Every occurrence must
    /// parse; the last one is returned.
    pub fn get<T>(&self, name: &'static str) -> Result<Option<T>, CliError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        self.given(name)
            .try_fold(None, |_, value| parse_value(name, value.unwrap_or_default()).map(Some))
    }

    /// Which of `names` was given last, for flags that override each
    /// other.
    pub fn last_of(&self, names: &[&str]) -> Option<&'static str> {
        self.given.iter().rev().map(|(name, _)| *name).find(|name| names.contains(name))
    }

    /// The positional operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// Fails when there are more than `max` operands.
    pub fn at_most(&self, max: usize) -> Result<(), CliError> {
        self.operands
            .get(max)
            .map_or(Ok(()), |extra| Err(CliError::UnexpectedArgument(extra.clone())))
    }

    /// Operand `index`, which the usage line calls `metavar`.
    pub fn operand(&self, index: usize, metavar: &'static str) -> Result<&str, CliError> {
        self.operands.get(index).map(String::as_str).ok_or(CliError::MissingArgument(metavar))
    }

    /// Operand `index`, which the usage line calls `metavar`, parsed as a
    /// `T`.
    pub fn operand_as<T>(&self, index: usize, metavar: &'static str) -> Result<T, CliError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        parse_value(metavar, self.operand(index, metavar)?)
    }
}

/// `value` parsed as a `T`; `name` (a flag, or an operand's metavar) says
/// where it came from when it does not parse.
pub fn parse_value<T>(name: &'static str, value: &str) -> Result<T, CliError>
where
    T: FromStr,
    T::Err: fmt::Display,
{
    value.parse().map_err(|e: T::Err| CliError::bad_value(name, value, e))
}

/// Why a command line was rejected. Every variant is a usage error and
/// exits 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A flag-shaped word the table does not declare (or a switch given a
    /// value with `=`).
    UnknownFlag(String),
    /// A value flag that ends the line.
    MissingValue {
        /// The flag.
        flag: &'static str,
        /// What its value should be.
        metavar: &'static str,
    },
    /// A flag value or operand that does not parse.
    BadValue {
        /// The flag, or the operand's metavar.
        name: &'static str,
        /// The value as typed.
        value: String,
        /// Why it does not parse.
        reason: String,
    },
    /// An operand beyond those the command takes.
    UnexpectedArgument(String),
    /// A required operand that is absent.
    MissingArgument(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(word) => write!(f, "unknown flag {word:?}"),
            CliError::MissingValue { flag, metavar } => write!(f, "{flag} needs {metavar}"),
            CliError::BadValue { name, value, reason } => {
                write!(f, "bad value {value:?} for {name}: {reason}")
            }
            CliError::UnexpectedArgument(word) => write!(f, "unexpected argument {word:?}"),
            CliError::MissingArgument(metavar) => write!(f, "missing {metavar}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// The exit status of every usage error.
    pub const EXIT: u8 = 2;

    /// A [`CliError::BadValue`]: `value`, given for `name`, fails for
    /// `reason`.
    pub fn bad_value(name: &'static str, value: &str, reason: impl fmt::Display) -> CliError {
        CliError::BadValue { name, value: value.to_string(), reason: reason.to_string() }
    }

    /// Prints `<command>: <error>` and `table`'s usage line on stderr and
    /// returns exit status 2.
    pub fn report(&self, table: &Table) -> ExitCode {
        eprintln!("{}: {self}\n{}", table.name, table.usage());
        ExitCode::from(CliError::EXIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    const SHARED: &[Flag] = &[Flag::value("--addr", "HOST:PORT"), Flag::switch("--no-cache")];
    const OWN: &[Flag] =
        &[Flag::value("--out", "<file>").short("-o"), Flag::value("--max-conns", "N")];
    static TABLE: Table = Table { name: "tool run", operands: "<dir>", flags: &[SHARED, OWN] };

    fn parse(line: &str) -> Result<Args, CliError> {
        TABLE.parse(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn flags_anywhere_in_both_spellings() {
        for line in [
            "d --addr h:1 -o x --no-cache",
            "--addr=h:1 d --out=x --no-cache",
            "--no-cache -o=x --addr h:1 d",
        ] {
            let args = parse(line).expect(line);
            assert_eq!(args.operands(), ["d"], "{line}");
            assert_eq!(args.value("--addr"), Some("h:1"), "{line}");
            assert_eq!(args.value("--out"), Some("x"), "{line}");
            assert!(args.switch("--no-cache"), "{line}");
        }
    }

    #[test]
    fn last_value_wins_and_values_are_taken_verbatim() {
        let args = parse("--out a --out - --addr --no-cache").expect("parses");
        assert_eq!(args.value("--out"), Some("-"));
        assert_eq!(args.value("--addr"), Some("--no-cache"));
        assert!(!args.switch("--no-cache"));
        assert_eq!(parse("- d").expect("parses").operands(), ["-", "d"]);
    }

    #[test]
    fn every_failure_is_one_typed_error() {
        let cases: &[(&str, CliError)] = &[
            ("d --bogus", CliError::UnknownFlag("--bogus".into())),
            ("d -x", CliError::UnknownFlag("-x".into())),
            ("d --no-cache=1", CliError::UnknownFlag("--no-cache=1".into())),
            ("d --addr", CliError::MissingValue { flag: "--addr", metavar: "HOST:PORT" }),
            ("d -o", CliError::MissingValue { flag: "--out", metavar: "<file>" }),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line).expect_err(line), *want, "{line}");
        }
        let args = parse("d e --max-conns 0").expect("parses");
        assert_eq!(
            args.get::<NonZeroUsize>("--max-conns"),
            Err(CliError::BadValue {
                name: "--max-conns",
                value: "0".into(),
                reason: "number would be zero for non-zero type".into(),
            })
        );
        assert_eq!(args.at_most(1), Err(CliError::UnexpectedArgument("e".into())));
        assert_eq!(args.operand(2, "<key>"), Err(CliError::MissingArgument("<key>")));
        assert_eq!(parse("--max-conns=7").expect("parses").get("--max-conns"), Ok(Some(7usize)));
    }

    #[test]
    #[should_panic(expected = "not in this command's table")]
    fn undeclared_lookup_is_a_bug() {
        parse("d").expect("parses").switch("--no-cahce");
    }

    #[test]
    fn usage_line_is_rendered_from_the_table() {
        assert_eq!(
            TABLE.usage(),
            "usage: tool run <dir> [--addr HOST:PORT] [--no-cache] [-o|--out <file>] \
             [--max-conns N]"
        );
    }

    #[test]
    fn help_and_version_win_anywhere_in_table_order() {
        let flags = [VERSION, HELP];
        assert_eq!(requested(&["--bogus", "-h"], &flags), Some(&HELP));
        assert_eq!(requested(&["--help", "x", "-V"], &flags), Some(&VERSION));
        assert_eq!(requested(&["--helpx"], &flags), None);
    }
}
