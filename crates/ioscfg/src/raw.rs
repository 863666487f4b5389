//! Lossless stanza-tree lexing of IOS configuration text.
//!
//! IOS `show running-config` output is line-oriented: top-level commands
//! start in column zero, mode sub-commands are indented by one (or more)
//! spaces, and `!` lines separate sections (and introduce comments). The
//! lexer turns that into a tree of [`Stanza`]s, preserving original line
//! numbers so later passes can report precise locations.

use std::fmt;

/// One configuration command with its sub-commands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stanza {
    /// 1-based line number in the source text.
    pub line: usize,
    /// The command text, trimmed of indentation and trailing whitespace.
    pub text: String,
    /// Indented sub-commands.
    pub children: Vec<Stanza>,
}

impl Stanza {
    /// The whitespace-separated words of the command.
    pub fn words(&self) -> Vec<&str> {
        self.text.split_whitespace().collect()
    }

    /// The first word (the command verb), if any.
    pub fn verb(&self) -> Option<&str> {
        self.text.split_whitespace().next()
    }

    /// True if the command starts with the given words (case-insensitive).
    pub fn starts_with(&self, expected: &[&str]) -> bool {
        let words = self.words();
        words.len() >= expected.len()
            && words.iter().zip(expected).all(|(w, e)| w.eq_ignore_ascii_case(e))
    }
}

impl fmt::Display for Stanza {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.text)?;
        for child in &self.children {
            write!(f, " {child}")?;
        }
        Ok(())
    }
}

/// The stanza tree of one configuration file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RawConfig {
    /// Top-level stanzas in file order.
    pub stanzas: Vec<Stanza>,
    /// Total number of non-blank, non-comment command lines (the unit
    /// counted by the paper's Figure 4: "lines of configuration commands").
    pub command_lines: usize,
}

impl RawConfig {
    /// Finds the first top-level stanza starting with `words`.
    pub fn find(&self, words: &[&str]) -> Option<&Stanza> {
        self.stanzas.iter().find(|s| s.starts_with(words))
    }
}

/// Lexes configuration text into a stanza tree.
///
/// Indentation defines nesting: a line indented deeper than the previous
/// command becomes its child. `!` lines and blank lines are structural
/// separators and are dropped (the paper's anonymizer strips comments the
/// same way). `end` terminates the file.
pub fn lex_config(text: &str) -> RawConfig {
    let mut root: Vec<Stanza> = Vec::new();
    // Stack of (indent, child-index) pairs: the index path from the root to
    // the most recent stanza at each open indentation level.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut command_lines = 0usize;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed_end = raw_line.trim_end();
        let content = trimmed_end.trim_start();
        if content.is_empty() || content.starts_with('!') {
            continue;
        }
        if content.eq_ignore_ascii_case("end") {
            break;
        }
        command_lines += 1;
        let indent = trimmed_end.len() - content.len();
        let stanza = Stanza { line: line_no, text: content.to_string(), children: Vec::new() };

        // Pop anything at the same or deeper indentation: this stanza is a
        // sibling (or uncle) of those, not a child.
        while stack.last().is_some_and(|(i, _)| *i >= indent) {
            stack.pop();
        }

        // Walk the index path to the insertion point. Depth is tiny in IOS
        // configs (≤3), so the walk is effectively O(1) per line.
        let mut slot: &mut Vec<Stanza> = &mut root;
        for &(_, child_idx) in &stack {
            slot = &mut slot[child_idx].children;
        }
        slot.push(stanza);
        stack.push((indent, slot.len() - 1));
    }

    RawConfig { stanzas: root, command_lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
hostname r1
!
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
 ip access-group 143 in
!
router ospf 64
 redistribute connected metric-type 1 subnets
 network 10.0.0.0 0.0.0.255 area 0
!
ip route 10.235.240.0 255.255.255.0 10.234.12.7
end
ignored after end
";

    #[test]
    fn builds_nested_stanzas() {
        let cfg = lex_config(SAMPLE);
        assert_eq!(cfg.stanzas.len(), 4);
        assert_eq!(cfg.stanzas[0].text, "hostname r1");
        let iface = &cfg.stanzas[1];
        assert_eq!(iface.verb(), Some("interface"));
        assert_eq!(iface.children.len(), 2);
        assert_eq!(iface.children[0].text, "ip address 10.0.0.1 255.255.255.0");
        let ospf = &cfg.stanzas[2];
        assert!(ospf.starts_with(&["router", "ospf"]));
        assert_eq!(ospf.children.len(), 2);
    }

    #[test]
    fn counts_command_lines_excluding_separators() {
        let cfg = lex_config(SAMPLE);
        // hostname, interface + 2 children, router + 2 children, ip route.
        assert_eq!(cfg.command_lines, 8);
    }

    #[test]
    fn line_numbers_are_source_positions() {
        let cfg = lex_config(SAMPLE);
        assert_eq!(cfg.stanzas[0].line, 1);
        assert_eq!(cfg.stanzas[1].line, 3);
        assert_eq!(cfg.stanzas[1].children[1].line, 5);
        assert_eq!(cfg.stanzas[3].line, 11);
    }

    #[test]
    fn end_terminates_lexing() {
        let cfg = lex_config(SAMPLE);
        assert!(cfg
            .stanzas
            .iter()
            .all(|s| !s.text.contains("ignored")));
    }

    #[test]
    fn deeper_indentation_nests_further() {
        let text = "a\n b\n  c\n b2\nd\n";
        let cfg = lex_config(text);
        assert_eq!(cfg.stanzas.len(), 2);
        let a = &cfg.stanzas[0];
        assert_eq!(a.children.len(), 2);
        assert_eq!(a.children[0].children.len(), 1);
        assert_eq!(a.children[0].children[0].text, "c");
        assert_eq!(a.children[1].text, "b2");
        assert_eq!(cfg.stanzas[1].text, "d");
    }

    #[test]
    fn find_helpers() {
        let cfg = lex_config(SAMPLE);
        assert!(cfg.find(&["router", "ospf"]).is_some());
        assert!(cfg.find(&["router", "bgp"]).is_none());
    }

    #[test]
    fn empty_and_comment_only_input() {
        assert_eq!(lex_config("").stanzas.len(), 0);
        assert_eq!(lex_config("!\n! comment\n\n").command_lines, 0);
    }
}
