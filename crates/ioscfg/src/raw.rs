//! Lexing of IOS configuration text into a flat line table that borrows
//! from the text.
//!
//! IOS `show running-config` output is line-oriented: top-level commands
//! start in column zero, mode sub-commands are indented by one (or more)
//! spaces, and `!` lines separate sections (and introduce comments). The
//! lexer records each command line once, in file order: its original
//! line number (so later passes can report precise locations), its text
//! as a slice of the file, its words (split once, here, into one shared
//! table) and the index just past its subtree. The stanza tree is a view
//! over that table: a [`Stanza`] is one line, and its children are the
//! next level of its subtree.

/// One command line of a [`RawConfig`].
#[derive(Debug)]
struct Line<'a> {
    /// 1-based line number in the source text.
    line: usize,
    /// The command text, trimmed of indentation and trailing whitespace.
    text: &'a str,
    /// This line's words: `RawConfig::words[words.0..words.1]`.
    words: (usize, usize),
    /// The index just past this line's subtree in `RawConfig::lines`.
    end: usize,
}

/// The command lines of one configuration file, borrowed from its text.
#[derive(Debug)]
pub struct RawConfig<'a> {
    /// Every command line, in file order (a pre-order walk of the tree).
    lines: Vec<Line<'a>>,
    /// The words of every line, line after line.
    words: Vec<&'a str>,
}

impl RawConfig<'_> {
    /// The top-level stanzas, in file order.
    pub fn stanzas(&self) -> impl Iterator<Item = Stanza<'_>> {
        walk(self, 0, self.lines.len())
    }

    /// Total number of non-blank, non-comment command lines (the unit
    /// counted by the paper's Figure 4: "lines of configuration commands").
    pub fn command_lines(&self) -> usize {
        self.lines.len()
    }
}

/// One configuration command with its sub-commands: a view of one line
/// of a [`RawConfig`].
#[derive(Clone, Copy)]
pub struct Stanza<'a> {
    raw: &'a RawConfig<'a>,
    idx: usize,
}

impl<'a> Stanza<'a> {
    fn at(self) -> &'a Line<'a> {
        &self.raw.lines[self.idx]
    }

    /// 1-based line number in the source text.
    pub fn line(self) -> usize {
        self.at().line
    }

    /// The command text, trimmed of indentation and trailing whitespace.
    pub fn text(self) -> &'a str {
        self.at().text
    }

    /// The whitespace-separated words of the command, as
    /// `str::split_whitespace` splits them.
    pub fn words(self) -> &'a [&'a str] {
        let (first, end) = self.at().words;
        &self.raw.words[first..end]
    }

    /// The indented sub-commands, in file order.
    pub fn children(self) -> impl Iterator<Item = Stanza<'a>> {
        walk(self.raw, self.idx + 1, self.at().end)
    }
}

/// The stanzas whose lines start at `first` and at the end of each
/// earlier one's subtree, up to `end`: one level of the tree.
fn walk<'a>(raw: &'a RawConfig<'a>, first: usize, end: usize) -> impl Iterator<Item = Stanza<'a>> {
    let mut next = first;
    std::iter::from_fn(move || {
        if next >= end {
            return None;
        }
        let stanza = Stanza { raw, idx: next };
        next = raw.lines[next].end;
        Some(stanza)
    })
}

/// Lexes configuration text into its line table.
///
/// Indentation defines nesting: a line indented deeper than the previous
/// command becomes its child. `!` lines and blank lines are structural
/// separators and are dropped (the paper's anonymizer strips comments the
/// same way). `end` terminates the file.
pub fn lex_config(text: &str) -> RawConfig<'_> {
    // Reserved above the study corpus's density (about 33 bytes a command
    // line and 9 a word), so most files never regrow either table.
    let mut raw = RawConfig {
        lines: Vec::with_capacity(text.len() / 24),
        words: Vec::with_capacity(text.len() / 6),
    };
    // The lines whose subtrees are still open, with their indentation:
    // the ancestors of the next line.
    let mut open: Vec<(usize, usize)> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let trimmed_end = raw_line.trim_end();
        let content = trimmed_end.trim_start();
        if content.is_empty() || content.starts_with('!') {
            continue;
        }
        if content.eq_ignore_ascii_case("end") {
            break;
        }
        let indent = trimmed_end.len() - content.len();
        let here = raw.lines.len();

        // Close anything at the same or deeper indentation: this line is
        // a sibling (or uncle) of those, so their subtrees end here.
        while let Some(&(_, closed)) = open.last().filter(|(i, _)| *i >= indent) {
            raw.lines[closed].end = here;
            open.pop();
        }

        let first = raw.words.len();
        split_words(content, &mut raw.words);
        let words = (first, raw.words.len());
        raw.lines.push(Line { line: idx + 1, text: content, words, end: here + 1 });
        open.push((indent, here));
    }
    let total = raw.lines.len();
    for (_, closed) in open {
        raw.lines[closed].end = total;
    }
    raw
}

/// Appends the words of `text` to `words`, splitting exactly where
/// `str::split_whitespace` does.
fn split_words<'a>(text: &'a str, words: &mut Vec<&'a str>) {
    let mut i = 0;
    loop {
        while let Some((true, width)) = char_at(text, i) {
            i += width;
        }
        let start = i;
        while let Some((false, width)) = char_at(text, i) {
            i += width;
        }
        if start == i {
            return;
        }
        words.push(&text[start..i]);
    }
}

/// Whether the char at byte `i` of `text` is whitespace, and its width;
/// `None` past the end. An ASCII byte is classified directly (0x0B is
/// whitespace to `char::is_whitespace`, though not to
/// `u8::is_ascii_whitespace`); a char is decoded only at a non-ASCII byte.
#[inline]
fn char_at(text: &str, i: usize) -> Option<(bool, usize)> {
    match *text.as_bytes().get(i)? {
        b'!'..=0x7f => Some((false, 1)),
        b' ' | b'\t'..=b'\r' => Some((true, 1)),
        b if b.is_ascii() => Some((false, 1)),
        _ => text[i..].chars().next().map(|c| (c.is_whitespace(), c.len_utf8())),
    }
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

    fn top(cfg: &RawConfig<'_>) -> Vec<String> {
        cfg.stanzas().map(|s| s.text().to_string()).collect()
    }

    #[test]
    fn builds_nested_stanzas() {
        let cfg = lex_config(SAMPLE);
        let stanzas: Vec<Stanza<'_>> = cfg.stanzas().collect();
        assert_eq!(stanzas.len(), 4);
        assert_eq!(stanzas[0].text(), "hostname r1");
        let iface = stanzas[1];
        assert_eq!(iface.words().first(), Some(&"interface"));
        let children: Vec<Stanza<'_>> = iface.children().collect();
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].text(), "ip address 10.0.0.1 255.255.255.0");
        assert_eq!(children[0].words(), ["ip", "address", "10.0.0.1", "255.255.255.0"]);
        let ospf = stanzas[2];
        assert!(ospf.words().starts_with(&["router", "ospf"]));
        assert_eq!(ospf.children().count(), 2);
    }

    #[test]
    fn counts_command_lines_excluding_separators() {
        let cfg = lex_config(SAMPLE);
        // hostname, interface + 2 children, router + 2 children, ip route.
        assert_eq!(cfg.command_lines(), 8);
    }

    #[test]
    fn line_numbers_are_source_positions() {
        let cfg = lex_config(SAMPLE);
        let lines: Vec<usize> = cfg.stanzas().map(|s| s.line()).collect();
        assert_eq!(lines, [1, 3, 7, 11]);
        let iface = cfg.stanzas().nth(1).expect("interface stanza");
        assert_eq!(iface.children().nth(1).map(|s| s.line()), Some(5));
    }

    #[test]
    fn end_terminates_lexing() {
        let cfg = lex_config(SAMPLE);
        assert!(top(&cfg).iter().all(|t| !t.contains("ignored")));
    }

    #[test]
    fn deeper_indentation_nests_further() {
        let cfg = lex_config("a\n b\n  c\n b2\nd\n");
        assert_eq!(top(&cfg), ["a", "d"]);
        let a = cfg.stanzas().next().expect("stanza a");
        let children: Vec<Stanza<'_>> = a.children().collect();
        assert_eq!(children.len(), 2);
        let grandchildren: Vec<&str> = children[0].children().map(|s| s.text()).collect();
        assert_eq!(grandchildren, ["c"]);
        assert_eq!(children[1].text(), "b2");
    }

    #[test]
    fn find_helpers() {
        let cfg = lex_config(SAMPLE);
        let find = |words: &[&str]| cfg.stanzas().find(|s| s.words().starts_with(words));
        assert_eq!(find(&["router", "ospf"]).map(|s| s.line()), Some(7));
        assert!(find(&["router", "bgp"]).is_none());
    }

    #[test]
    fn empty_and_comment_only_input() {
        assert_eq!(lex_config("").stanzas().count(), 0);
        assert_eq!(lex_config("!\n! comment\n\n").command_lines(), 0);
    }
}
