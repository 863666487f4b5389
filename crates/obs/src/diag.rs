//! First-class diagnostics: what the pipeline saw and chose not to (or
//! could not) use, kept with file/line/severity instead of being dropped.
//!
//! The parser is deliberately tolerant — real corpora always contain
//! commands outside any grammar — but tolerance without a record is silent
//! data loss. Every layer that skips or distrusts something records a
//! [`Diagnostic`] here: `ioscfg` for unknown stanzas and dangling policy
//! references, `nettopo` for corpus-level anomalies, `routing-model` for
//! suspicious design structure. `rdx <dir> diag` prints the merged stream.

use std::fmt;

/// How much a diagnostic undermines the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Observation; the analysis is unaffected.
    Info,
    /// Input was skipped or guessed at; derived results may be partial.
    Warning,
    /// The configuration references something that does not exist; the
    /// derived design is likely wrong around it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic, located at a file (and line, when meaningful).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Source configuration file name.
    pub file: String,
    /// 1-based source line; 0 when the diagnostic is file-scoped (e.g. a
    /// reference that is missing rather than present-but-wrong).
    pub line: usize,
    /// Severity.
    pub severity: Severity,
    /// Stable machine-readable code (kebab-case, e.g. `unknown-stanza`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: ", self.file, self.line)?;
        } else {
            write!(f, "{}: ", self.file)?;
        }
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)
    }
}

/// An ordered collection of diagnostics (file/load order, so output is
/// deterministic at any thread count).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Diagnostics {
    /// The diagnostics, in the order recorded.
    pub list: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Appends one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.list.push(d);
    }

    /// Appends many diagnostics.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.list.extend(ds);
    }

    /// Number recorded.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Iterates in recorded order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.list.iter()
    }

    /// Count at one severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.list.iter().filter(|d| d.severity == severity).count()
    }

    /// `(errors, warnings, infos)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        )
    }

    /// One-line summary, e.g. `2 errors, 3 warnings, 0 info`.
    pub fn summary(&self) -> String {
        let (e, w, i) = self.counts();
        format!(
            "{e} error{}, {w} warning{}, {i} info",
            if e == 1 { "" } else { "s" },
            if w == 1 { "" } else { "s" },
        )
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.list {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(file: &str, line: usize, severity: Severity, code: &'static str) -> Diagnostic {
        Diagnostic { file: file.into(), line, severity, code, message: "m".into() }
    }

    #[test]
    fn counts_and_summary() {
        let mut ds = Diagnostics::new();
        ds.push(d("config1", 3, Severity::Warning, "unknown-stanza"));
        ds.push(d("config1", 0, Severity::Error, "undefined-acl"));
        ds.push(d("config2", 9, Severity::Info, "note"));
        assert_eq!(ds.counts(), (1, 1, 1));
        assert!(ds.count(Severity::Error) > 0);
        assert_eq!(ds.summary(), "1 error, 1 warning, 1 info");
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn display_includes_location_when_present() {
        let with_line = d("config1", 3, Severity::Warning, "unknown-stanza").to_string();
        assert_eq!(with_line, "config1:3: warning [unknown-stanza] m");
        let file_scoped = d("config1", 0, Severity::Error, "undefined-acl").to_string();
        assert_eq!(file_scoped, "config1: error [undefined-acl] m");
    }

    #[test]
    fn severity_orders_by_weight() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
