//! The workspace's one JSON writer, plus the validating recognizer
//! behind the `trace_check` self-check. Hand-rolled so the workspace
//! stays free of external dependencies.
//!
//! [`Writer`] writes every JSON document the workspace emits and owns
//! its syntax: brackets, commas, newlines, indentation and escaping.
//! Callers pick a [`Layout`] per object or array, and the text of each
//! number, e.g. `num(format_args!("{:.3}", ms))`; the writer has no float
//! formatting of its own.

use std::fmt::{self, Display, Write as _};

/// How an object or array lays out its members. Code picks one per
/// container; nothing at run time changes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `{"k":1,"l":[2,3]}`: no whitespace at all (trace lines).
    Compact,
    /// `{"k": 1, "l": [2, 3]}`: one line, a space after each `:` and `,`.
    Inline,
    /// One member per line, indented two spaces deeper than the enclosing
    /// block; an empty container prints as `{}` or `[]`.
    Block,
}

/// A streaming JSON writer appending to one `String`, with no value tree.
/// A document is one object, from [`Writer::object`] to
/// [`Writer::finish`]; an object member is a [`key`](Writer::key)
/// followed by one value, and an array is a run of values.
pub struct Writer {
    out: String,
    /// Layout of the innermost open container.
    layout: Layout,
    /// Indent level of a member line in the innermost open block.
    depth: usize,
    /// True until the innermost open container gets its first member.
    empty: bool,
    /// True between a key and its value.
    after_key: bool,
}

impl Writer {
    /// Starts a document whose top-level object has `layout`.
    pub fn object(layout: Layout) -> Writer {
        let mut w = Writer {
            out: String::with_capacity(256),
            layout,
            depth: usize::from(layout == Layout::Block),
            empty: true,
            after_key: false,
        };
        w.out.push('{');
        w
    }

    /// Closes the top-level object and returns the text. An `Inline` or
    /// `Block` document ends with a newline; a `Compact` one is a JSONL
    /// line, returned without it.
    pub fn finish(mut self) -> String {
        self.close('}');
        if self.layout != Layout::Compact {
            self.out.push('\n');
        }
        self.out
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.member();
        self.out.push('"');
        push_escaped(&mut self.out, key);
        self.out.push_str(if self.layout == Layout::Compact { "\":" } else { "\": " });
        self.after_key = true;
        self
    }

    /// Writes `value` as an escaped JSON string.
    pub fn str(&mut self, value: impl Display) -> &mut Writer {
        self.member();
        self.out.push('"');
        write!(Escaping(&mut self.out), "{value}").expect("writing to a String cannot fail");
        self.out.push('"');
        self
    }

    /// Writes `value` verbatim: a number, `true`/`false` or `null`.
    pub fn num(&mut self, value: impl Display) -> &mut Writer {
        self.member();
        write!(self.out, "{value}").expect("writing to a String cannot fail");
        self
    }

    /// Writes an object with `layout`; `members` writes its keys and values.
    pub fn obj(&mut self, layout: Layout, members: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nest(layout, '{', '}', members)
    }

    /// Writes an array with `layout`; `items` writes its values.
    pub fn arr(&mut self, layout: Layout, items: impl FnOnce(&mut Writer)) -> &mut Writer {
        self.nest(layout, '[', ']', items)
    }

    fn nest(
        &mut self,
        layout: Layout,
        open: char,
        close: char,
        members: impl FnOnce(&mut Writer),
    ) -> &mut Writer {
        self.member();
        self.out.push(open);
        let outer = (self.layout, self.depth, self.empty);
        self.layout = layout;
        self.empty = true;
        if layout == Layout::Block {
            self.depth += 1;
        }
        members(self);
        self.close(close);
        (self.layout, self.depth, self.empty) = outer;
        self
    }

    /// Ends the innermost container: a non-empty block closes on its own
    /// line, one level out.
    fn close(&mut self, bracket: char) {
        if self.layout == Layout::Block && !self.empty {
            self.newline(self.depth - 1);
        }
        self.out.push(bracket);
    }

    /// Starts a member of the innermost container: the separator and, in
    /// a block, the line break and indent. A value after its key starts
    /// nothing.
    fn member(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push_str(if self.layout == Layout::Inline { ", " } else { "," });
        }
        if self.layout == Layout::Block {
            self.newline(self.depth);
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }
}

/// Escapes what a `Display` value writes, as it writes it.
struct Escaping<'a>(&'a mut String);

impl fmt::Write for Escaping<'_> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        push_escaped(self.0, text);
        Ok(())
    }
}

/// Appends `text` escaped for a JSON string literal. Text with no `"`,
/// `\` or control byte, the common case, is copied in one `push_str`.
fn push_escaped(out: &mut String, text: &str) {
    if !text.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(text);
        return;
    }
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal (adds no
/// surrounding quotes).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    push_escaped(&mut out, text);
    out
}

/// Validates that `line` is one syntactically correct JSON object and
/// returns its top-level keys. This is a recognizer, not a full parser:
/// values are checked for well-formedness but not materialized.
pub fn validate_object(line: &str) -> Result<Vec<String>, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    let keys = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(keys)
}

/// Validates one trace line: a JSON object carrying at least the required
/// event keys (`ev`, `name`, `ts_us`).
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let keys = validate_object(line)?;
    for required in ["ev", "name", "ts_us"] {
        if !keys.iter().any(|k| k == required) {
            return Err(format!("missing required key {required:?}"));
        }
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn object(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'{')?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(keys);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') | Some(b'f') => {}
                        Some(b'u') => {
                            for _ in 0..4 {
                                self.pos += 1;
                                if !self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                                    return Err(format!(
                                        "bad \\u escape at byte {}",
                                        self.pos
                                    ));
                                }
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (the input is a &str, so
                    // continuation bytes are always well-formed).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos] & 0xC0) == 0x80
                    {
                        self.pos += 1;
                    }
                    // Invariant: `bytes` came from a `&str`, and the span
                    // covers a whole character, so it is valid UTF-8.
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("span of a &str is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad number at byte {start}"));
            }
        }
        Ok(())
    }

    fn literal(&mut self, text: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object().map(|_| ()),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One document with a scalar, a nested object, a nested array and
    /// an empty array, every container in `layout`.
    fn sample(layout: Layout) -> String {
        let mut w = Writer::object(layout);
        w.key("k").num(1);
        w.key("o").obj(layout, |w| {
            w.key("s").str("x").key("b").num(true);
        });
        w.key("l").arr(layout, |w| {
            w.num(2).num(3);
        });
        w.key("e").arr(layout, |_| {});
        w.finish()
    }

    #[test]
    fn writer_layouts() {
        assert_eq!(sample(Layout::Compact), r#"{"k":1,"o":{"s":"x","b":true},"l":[2,3],"e":[]}"#);
        assert_eq!(
            sample(Layout::Inline),
            "{\"k\": 1, \"o\": {\"s\": \"x\", \"b\": true}, \"l\": [2, 3], \"e\": []}\n"
        );
        assert_eq!(
            sample(Layout::Block),
            "{\n  \"k\": 1,\n  \"o\": {\n    \"s\": \"x\",\n    \"b\": true\n  },\n  \"l\": [\n    2,\n    3\n  ],\n  \"e\": []\n}\n"
        );
        for layout in [Layout::Compact, Layout::Inline, Layout::Block] {
            validate_object(&sample(layout)).unwrap();
        }
    }

    #[test]
    fn writer_nests_inline_rows_in_blocks() {
        let mut w = Writer::object(Layout::Block);
        w.key("rows").arr(Layout::Block, |w| {
            for id in 0..2 {
                w.obj(Layout::Inline, |w| {
                    w.key("id").num(id).key("tags").arr(Layout::Inline, |w| {
                        w.str("a").str("b");
                    });
                });
            }
        });
        w.key("table").obj(Layout::Block, |w| {
            w.key("inner").obj(Layout::Block, |w| {
                w.key("row").obj(Layout::Inline, |w| {
                    w.key("n").num(format_args!("{:.3}", 1.5));
                });
            });
        });
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"rows\": [\n    {\"id\": 0, \"tags\": [\"a\", \"b\"]},\n    \
             {\"id\": 1, \"tags\": [\"a\", \"b\"]}\n  ],\n  \"table\": {\n    \"inner\": {\n      \
             \"row\": {\"n\": 1.500}\n    }\n  }\n}\n"
        );
        validate_object(&text).unwrap();
    }

    #[test]
    fn writer_empty_containers() {
        for (layout, object) in
            [(Layout::Compact, "{}"), (Layout::Inline, "{}\n"), (Layout::Block, "{}\n")]
        {
            assert_eq!(Writer::object(layout).finish(), object);
            let mut w = Writer::object(layout);
            w.key("a").arr(layout, |_| {}).key("o").obj(layout, |_| {});
            let text = w.finish();
            let expected = match layout {
                Layout::Compact => r#"{"a":[],"o":{}}"#,
                Layout::Inline => "{\"a\": [], \"o\": {}}\n",
                Layout::Block => "{\n  \"a\": [],\n  \"o\": {}\n}\n",
            };
            assert_eq!(text, expected);
            validate_object(&text).unwrap();
        }
    }

    #[test]
    fn writer_escapes_keys_and_values() {
        let mut w = Writer::object(Layout::Inline);
        // Fast path: nothing to escape, non-ASCII included.
        w.key("plain").str("héllo → wörld");
        // Slow path: quote, backslash, newline, control byte, non-ASCII.
        w.key("q\"k\\").str("a\"b\\c\nd\u{1}é");
        // Display values are escaped as they are written.
        w.key("shown").str(format_args!("{}\t{}", "x", 7));
        let text = w.finish();
        assert_eq!(
            text,
            "{\"plain\": \"héllo → wörld\", \"q\\\"k\\\\\": \"a\\\"b\\\\c\\nd\\u0001é\", \
             \"shown\": \"x\\t7\"}\n"
        );
        let keys = validate_object(&text).unwrap();
        assert_eq!(keys, ["plain", "q\"k\\", "shown"]);
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn validates_well_formed_objects() {
        let keys = validate_object(
            r#"{"ev":"event","name":"x","ts_us":0,"fields":{"a":1,"b":[true,null,-2.5e3]}}"#,
        )
        .unwrap();
        assert_eq!(keys, vec!["ev", "name", "ts_us", "fields"]);
        assert!(validate_object("{}").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(validate_object("").is_err());
        assert!(validate_object("{").is_err());
        assert!(validate_object(r#"{"a":}"#).is_err());
        assert!(validate_object(r#"{"a":1} extra"#).is_err());
        assert!(validate_object(r#"{"a":01e}"#).is_err());
        assert!(validate_object(r#"["not","an","object"]"#).is_err());
    }

    #[test]
    fn event_lines_need_required_keys() {
        assert!(validate_event_line(r#"{"ev":"event","name":"x","ts_us":12}"#).is_ok());
        assert!(validate_event_line(r#"{"ev":"event","name":"x"}"#).is_err());
        assert!(validate_event_line(r#"{"name":"x","ts_us":0}"#).is_err());
    }

    #[test]
    fn unicode_strings_survive_validation() {
        assert!(validate_object("{\"k\":\"héllo → wörld\"}").is_ok());
        assert!(validate_object(r#"{"k":"é\n"}"#).is_ok());
    }
}
