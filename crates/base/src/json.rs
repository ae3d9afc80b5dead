//! The workspace's one JSON dialect: the [`Writer`] every emitted
//! document goes through and the strict [`parse`] every gate reads
//! them back with. Std-only, like the rest of the workspace.
//!
//! **Dialect.** `"key": value` everywhere. A container is laid out
//! either *inline* (`{"a": 1, "b": [2, 3]}`, members separated by
//! `, `) or as a *block* (one member per line, two spaces of indent
//! per open container, the closing bracket on its own line; an empty
//! block is `{}` / `[]`). A block document ends with a newline.
//! Numbers are integers, fixed-precision decimals ([`Fixed`]) or the
//! shortest `f64` form; a non-finite float renders as zero, so every
//! document the writer produces is one [`parse`] accepts. Strings and
//! keys are escaped by the one escaper here (`"`, `\`, `\n`, `\r`,
//! `\t`, other controls as `\u00XX`).
//!
//! **Parser limits.** Containers nest at most [`MAX_DEPTH`] deep, an
//! object may not repeat a key, numbers follow the JSON grammar and
//! must be finite as `f64`, strings hold no raw control characters,
//! and nothing but whitespace may follow the value. Violations are
//! `Err`, never a panic: the gates run it on files and socket bytes
//! they did not write.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a container places its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line at the current indent.
    Block,
    /// All members on the opening line.
    Inline,
}

/// A value with no members: it renders in place, wherever the
/// [`Writer`] is.
pub trait Scalar {
    fn write_json(&self, out: &mut String);
}

/// A float at a fixed number of decimals (`{:.3}`, `{:.6}`).
#[derive(Debug, Clone, Copy)]
pub struct Fixed(pub f64, pub usize);

fn finite(v: f64) -> f64 {
    if v.is_finite() { v } else { 0.0 }
}

// Formatting into a `String` cannot fail, hence the dropped results.
impl Scalar for u64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Scalar for usize {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Scalar for f64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{}", finite(*self));
    }
}

impl Scalar for Fixed {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{:.*}", self.1, finite(self.0));
    }
}

impl Scalar for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut copied = 0;
        for (i, b) in self.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so both cuts are on
            // character boundaries.
            out.push_str(&self[copied..i]);
            copied = i + 1;
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
        }
        out.push_str(&self[copied..]);
        out.push('"');
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` is `null`.
impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Appends one document to one buffer, keeping the comma and indent
/// state of every open container. Calls mirror the document: `object`
/// / `array` … `end`, with `key` before each value inside an object.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// Open containers, at most [`MAX_DEPTH`]. The three masks below
    /// hold one bit per open container, the innermost in bit 0.
    depth: usize,
    block: u64,
    array: u64,
    nonempty: u64,
}

impl Writer {
    /// An empty document. The buffer starts large enough for a query
    /// log record or a small `STATS` body, so those never regrow it.
    pub fn new() -> Self {
        Self { out: String::with_capacity(512), ..Self::default() }
    }

    /// The separator and indent a member of the innermost container
    /// starts with.
    fn begin_member(&mut self) {
        let first = self.nonempty & 1 == 0;
        self.nonempty |= 1;
        if self.block & 1 == 1 {
            self.out.push_str(if first { "\n" } else { ",\n" });
            self.indent(self.depth);
        } else if !first {
            self.out.push_str(", ");
        }
    }

    /// An object member is begun by its key, an array element by
    /// the value itself.
    fn begin_value(&mut self) {
        if self.array & 1 == 1 {
            self.begin_member();
        }
    }

    fn indent(&mut self, levels: usize) {
        for _ in 0..levels {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, array: bool, layout: Layout) -> &mut Self {
        assert!(self.depth < MAX_DEPTH, "json::Writer: nested deeper than parse() reads back");
        self.begin_value();
        self.out.push(if array { '[' } else { '{' });
        self.depth += 1;
        self.block = self.block << 1 | u64::from(layout == Layout::Block);
        self.array = self.array << 1 | u64::from(array);
        self.nonempty <<= 1;
        self
    }

    /// Open an object as the next value.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.open(false, layout)
    }

    /// Open an array as the next value.
    pub fn array(&mut self, layout: Layout) -> &mut Self {
        self.open(true, layout)
    }

    /// Close the innermost container.
    pub fn end(&mut self) -> &mut Self {
        assert!(self.depth > 0, "json::Writer: end() without an open container");
        self.depth -= 1;
        let block = self.block & 1 == 1;
        if block && self.nonempty & 1 == 1 {
            self.out.push('\n');
            self.indent(self.depth);
        }
        self.out.push(if self.array & 1 == 1 { ']' } else { '}' });
        self.block >>= 1;
        self.array >>= 1;
        self.nonempty >>= 1;
        if block && self.depth == 0 {
            self.out.push('\n');
        }
        self
    }

    /// The key of the next value in the innermost object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.begin_member();
        key.write_json(&mut self.out);
        self.out.push_str(": ");
        self
    }

    /// A scalar as the next value.
    pub fn value(&mut self, value: impl Scalar) -> &mut Self {
        self.begin_value();
        value.write_json(&mut self.out);
        self
    }

    /// `key` then `value`.
    pub fn member(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        self.key(key).value(value)
    }

    /// Splice already-rendered text where the next value goes: a whole
    /// document (EXPLAIN's plan under `"plan"`), or the pieces of a
    /// value whose layout is neither of the two (the chrome trace's
    /// one-event-per-line list). Inside an object no separator is
    /// written until the next `key`, so pieces may follow one another.
    pub fn raw(&mut self, rendered: &str) -> &mut Self {
        self.begin_value();
        self.out.push_str(rendered);
        self
    }

    /// Hand what has been rendered so far to `sink` and empty the
    /// buffer; the container state carries on. For documents too
    /// large to hold whole.
    pub(crate) fn flush_to(&mut self, sink: &mut dyn std::io::Write) -> std::io::Result<()> {
        sink.write_all(self.out.as_bytes())?;
        self.out.clear();
        Ok(())
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        debug_assert_eq!(self.depth, 0, "json::Writer: unclosed container");
        self.out
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest container nesting [`parse`] accepts. The deepest document
/// the workspace emits is an EXPLAIN tree, at two levels per plan node.
pub(crate) const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Numbers are held as `f64`, exact for the
/// integer nanosecond magnitudes the artifacts carry (under 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The member map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Parse a complete JSON document, within the limits in the module
/// docs.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte; always a character
    /// boundary, because it only ever stops before or after ASCII.
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn unexpected(&self, wanted: &str) -> String {
        format!("expected {wanted} at byte {}, found {:?}", self.pos, self.peek().map(|b| b as char))
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() != Some(byte) {
            return Err(self.unexpected(&format!("'{}'", byte as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(format!("invalid literal at byte {}", self.pos));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected("a value")),
        }
    }

    /// A container's members, from its opening bracket through
    /// `close`: the depth limit, the empty case and the separators.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                member(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return Err(self.unexpected(&format!("',' or '{}'", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        let mut map = BTreeMap::new();
        self.members(b'}', |p| {
            p.skip_ws();
            let at = p.pos;
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            match map.insert(key, p.value()?) {
                None => Ok(()),
                Some(_) => Err(format!("duplicate key at byte {at}")),
            }
        })?;
        Ok(Value::Object(map))
    }

    fn array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        self.members(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let Some(stop) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match stop {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                _ => return Err(format!("raw control character at byte {}", self.pos - 1)),
            }
        }
    }

    /// The character an escape stands for, the backslash already read.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self.peek().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or("invalid \\u escape")?;
                self.pos += 4;
                let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                // Surrogates (only astral-plane characters need them,
                // and no writer here escapes those) are replaced, not
                // paired.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => return Err(format!("bad escape '\\{}'", other as char)),
        })
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits > 0 && !(leading_zero && int_digits > 1);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            ok &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            ok &= self.digits() > 0;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if ok && n.is_finite() => Ok(Value::Number(n)),
            _ => Err(format!("invalid number '{text}' at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Layout::{Block, Inline};
    use super::*;

    #[test]
    fn writer_lays_out_blocks_and_inlines_and_escapes_once() {
        let mut w = Writer::new();
        w.object(Block).member("n", 3u64).member("t", Fixed(0.25, 3)).member("g", f64::NAN);
        w.key("empty").object(Block).end();
        w.key("rows").array(Block);
        w.object(Inline).member("id", "a\"b\\c\nd\u{1}é").member("none", None::<u64>).end();
        w.array(Inline).value(1u64).value(true).end();
        w.end();
        w.key("spliced").raw("{\"x\": 1}").end();
        let doc = w.finish();
        assert_eq!(
            doc,
            "{\n  \"n\": 3,\n  \"t\": 0.250,\n  \"g\": 0,\n  \"empty\": {},\n  \"rows\": [\n    \
             {\"id\": \"a\\\"b\\\\c\\nd\\u0001é\", \"none\": null},\n    [1, true]\n  ],\n  \
             \"spliced\": {\"x\": 1}\n}\n"
        );
        let back = parse(&doc).unwrap();
        let row = &back.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("id").unwrap().as_str(), Some("a\"b\\c\nd\u{1}é"));
    }

    #[test]
    fn parses_bench_result_schema() {
        let doc = parse(
            r#"{
              "benchmarks": [
                {"id": "g/q1", "median_ns": 1200, "throughput_eps": 8.5e6},
                {"id": "g/q2", "median_ns": 900, "throughput_eps": null}
              ]
            }"#,
        )
        .unwrap();
        let benches = doc.get("benchmarks").unwrap().as_array().unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].get("id").unwrap().as_str(), Some("g/q1"));
        assert_eq!(benches[0].get("median_ns").unwrap().as_f64(), Some(1200.0));
        assert_eq!(benches[0].get("throughput_eps").unwrap().as_f64(), Some(8.5e6));
        assert_eq!(benches[1].get("throughput_eps"), Some(&Value::Null));
    }

    #[test]
    fn parses_scalars_and_escapes() {
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" null ").unwrap(), Value::Null);
        assert_eq!(parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(parse("1e-9").unwrap(), Value::Number(1e-9));
        assert_eq!(parse("-0").unwrap(), Value::Number(0.0));
        assert_eq!(
            parse(r#""a\"b\\c\ndA""#).unwrap(),
            Value::String("a\"b\\c\ndA".into())
        );
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", r#"{"a" 1}"#, "12 34", "\"unterminated", "\"raw\nnewline\"",
            "\"\\u12g4\"", "-", "1.", ".5", "1e", "+1", "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        // Unbounded recursion here used to overflow the stack (SIGABRT)
        // at ~50 000 brackets.
        assert!(parse(&"[".repeat(50_000)).unwrap_err().contains("nested deeper"));
        assert!(parse(&"{\"a\": ".repeat(50_000)).is_err());
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        assert!(parse(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn duplicate_keys_are_an_error() {
        assert!(parse(r#"{"a": 1, "a": 2}"#).unwrap_err().contains("duplicate key"));
        assert!(parse(r#"{"a": {"b": 1}, "c": {"b": 1}}"#).is_ok());
    }

    #[test]
    fn numbers_must_be_finite() {
        assert!(parse("1e999").is_err());
        assert!(parse("-1e999").is_err());
        assert_eq!(parse("1e308").unwrap(), Value::Number(1e308));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        assert!(parse("01.").is_err());
        assert!(parse("01").is_err());
        assert!(parse("-01.5").is_err());
        assert_eq!(parse("0.5").unwrap(), Value::Number(0.5));
        assert_eq!(parse("10").unwrap(), Value::Number(10.0));
    }
}
