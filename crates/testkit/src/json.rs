//! The workspace's one JSON module: the parser behind every document it
//! reads back and the escaper behind every string it writes.
//!
//! Service requests and responses, trace events, `BENCH_*.json`
//! snapshots, optgap lines and benchmark results all go through here.
//! The workspace is std-only, so this module stands in for `serde_json`
//! with exactly the surface the workspace uses:
//!
//! * [`parse`] reads one document into a [`Value`] tree by recursive
//!   descent. A number written as an integer is kept exact
//!   ([`Value::Int`], enough for `u64` counters and `i128` sums); any
//!   other number is an `f64`. Objects are sorted maps, and the last of
//!   duplicate keys wins. Arrays and objects nested deeper than
//!   [`MAX_DEPTH`] are an ordinary parse error, so no input can overflow
//!   the stack.
//! * [`escape`] is the one string escaper: `"` and `\`, `\n`, `\r` and
//!   `\t`, and `\u00XX` for the other control characters. Nothing else is
//!   escaped, so the encoding is byte-stable.
//! * [`json_object`] renders one flat object line from ordered fields,
//!   and [`Value`]'s `Display` renders any value as compact JSON.
//!
//! The grammar is the one the scheduling service has always accepted,
//! slightly laxer than RFC 8259: a number may carry a leading `+`,
//! leading zeros or a bare fraction (`.5`), strings may hold raw control
//! characters, and a lone `\u` surrogate decodes to U+FFFD. Parse error
//! strings reach service responses, so they are part of the wire format
//! and stay fixed.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes nests 6 levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value, also the field type of [`json_object`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written as an integer (no fraction or exponent) that fits
    /// `i128`, held exactly. `-0` is the exception: it stays a
    /// [`Value::Num`] so [`Value::as_f64`] keeps its sign.
    Int(i128),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Iteration order is key order, not document order.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64` (rounded to nearest for integers beyond
    /// 2⁵³), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an `i64` if it is integral and within ±9·10¹⁵, where
    /// `f64` is exact: `2` and `2.0` both read as 2, `2.5` and `1e17` as
    /// `None`. Use [`Value::as_int`] where only integer syntax may pass.
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        (n.fract() == 0.0 && n.abs() <= 9.0e15).then_some(n as i64)
    }

    /// The number as an exact integer of type `T`: `Some` only for
    /// numbers written as integers that fit `T`.
    pub fn as_int<T: TryFrom<i128>>(&self) -> Option<T> {
        match self {
            Value::Int(i) => T::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Field lookup on an object; `None` for missing fields and
    /// non-objects alike.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Compact JSON. Non-finite numbers render as `null`; any other `f64`
/// renders in Rust's shortest round-trip decimal form.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Num(n) if n.is_finite() => write!(f, "{n}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => {
                f.write_char('"')?;
                escape_into(f, s)?;
                f.write_char('"')
            }
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Value::Obj(map) => {
                f.write_char('{')?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_field(f, k, v)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Renders one JSON object line from `(key, value)` pairs, in the order
/// given (no trailing newline).
pub fn json_object(fields: &[(&str, Value)]) -> String {
    let mut out = String::with_capacity(32 + fields.len() * 16);
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, key, value).expect("writing to a String cannot fail");
    }
    out.push('}');
    out
}

fn write_field(out: &mut impl Write, key: &str, value: &Value) -> fmt::Result {
    out.write_char('"')?;
    escape_into(out, key)?;
    write!(out, "\":{value}")
}

/// Escapes `s` for embedding in a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s).expect("writing to a String cannot fail");
    out
}

fn escape_into(out: &mut impl Write, s: &str) -> fmt::Result {
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Parses one complete JSON document from `text` (surrounding whitespace
/// allowed, trailing characters rejected).
///
/// # Errors
///
/// A human-readable description of the first syntax error, with the byte
/// offset where it was detected.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// Recursive-descent state. `pos` only ever stops on a character
/// boundary of `text`: it advances over ASCII bytes and whole string
/// runs.
struct Parser<'a> {
    text: &'a str,
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

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    /// Parses an array or object one level deeper, or fails when that
    /// would pass [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = body(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !text.contains(['.', 'e', 'E']) {
            match text.parse::<i128>() {
                Ok(i) if i != 0 || !text.starts_with('-') => return Ok(Value::Int(i)),
                _ => {}
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is copied
            // verbatim; both are ASCII, so the run ends on a boundary.
            let run = bytes[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = *bytes.get(self.pos).ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{0008}',
                b'f' => '\u{000C}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                    self.pos += 4;
                    // Surrogate pairs are not decoded: the workspace never
                    // writes them. A lone surrogate becomes U+FFFD.
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
                _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
            });
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{check, Gen, PropConfig};
    use crate::rng::Rng;

    /// What one row of the parser table expects.
    enum Want {
        /// `parse` returns exactly this value.
        Is(Value),
        /// `parse` succeeds.
        Parses,
        /// `parse` succeeds and `as_i64` returns this.
        I64(Option<i64>),
        /// `parse` succeeds and `as_f64` returns this, bit for bit.
        F64(f64),
        /// `parse` fails with exactly this message.
        Fails(&'static str),
        /// `escape` of the input is exactly this.
        Escapes(&'static str),
    }

    fn s(text: &str) -> Value {
        Value::Str(text.to_string())
    }

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn parser_table() {
        use Value::{Arr, Bool, Int, Null, Num};
        use Want::*;
        let deep_ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let deep_obj = "{\"a\":".repeat(200_000);
        let huge = "[".repeat(200_000);
        let rows: Vec<(&str, Want)> = vec![
            // The service's wire shapes.
            (
                r#"{"id":"k-1","budget_ratio":2.5,"max_ii":null,"ops":["add","mul"],
                   "edges":[[0,1,3,0,"flow",false]],"flag":true}"#,
                Is(obj(vec![
                    ("id", s("k-1")),
                    ("budget_ratio", Num(2.5)),
                    ("max_ii", Null),
                    ("ops", Arr(vec![s("add"), s("mul")])),
                    (
                        "edges",
                        Arr(vec![Arr(vec![
                            Int(0),
                            Int(1),
                            Int(3),
                            Int(0),
                            s("flow"),
                            Bool(false),
                        ])]),
                    ),
                    ("flag", Bool(true)),
                ])),
            ),
            // Escaped keys and nesting, as in a snapshot.
            (
                r#"{"a\n\"bA": [1, -2, {"c": true}, null, false]}"#,
                Is(obj(vec![(
                    "a\n\"bA",
                    Arr(vec![
                        Int(1),
                        Int(-2),
                        obj(vec![("c", Bool(true))]),
                        Null,
                        Bool(false),
                    ]),
                )])),
            ),
            (r#"{"a":1,"a":2}"#, Is(obj(vec![("a", Int(2))]))),
            (" [ ] ", Is(Arr(vec![]))),
            // Numbers: integer syntax is exact, the rest is f64.
            ("-42", I64(Some(-42))),
            ("2.0", I64(Some(2))),
            ("2.5", I64(None)),
            ("+2", I64(Some(2))),
            ("9000000000000000", I64(Some(9_000_000_000_000_000))),
            ("-9000000000000001", I64(None)),
            ("1e17", I64(None)),
            ("100000000000000000", I64(None)),
            ("1e3", F64(1000.0)),
            ("-0", F64(-0.0)),
            ("0.5e-3", F64(0.0005)),
            ("18446744073709551615", Is(Int(u64::MAX as i128))),
            (
                "-170141183460469231731687303715884105728",
                Is(Int(i128::MIN)),
            ),
            ("1000000000000000000000000000000000000000", Is(Num(1e39))),
            // Strings.
            (r#""a\"b\\c\ndA""#, Is(s("a\"b\\c\ndA"))),
            ("\"π ≈ 3\"", Is(s("π ≈ 3"))),
            (r#""é\/\b\f\r\t""#, Is(s("é/\u{8}\u{c}\r\t"))),
            (r#""\ud83d""#, Is(s("\u{FFFD}"))),
            // Malformed documents, with the exact messages responses carry.
            ("", Fails("unexpected end of input")),
            ("{", Fails("expected '\"' at byte 1")),
            ("{\"a\":1,}", Fails("expected '\"' at byte 7")),
            ("[1 2]", Fails("expected ',' or ']' at byte 3")),
            ("{\"a\" 1}", Fails("expected ':' at byte 5")),
            ("{\"a\":1 \"b\"}", Fails("expected ',' or '}' at byte 7")),
            ("{\"a\":1} extra", Fails("trailing characters at byte 8")),
            ("nul", Fails("invalid literal at byte 0")),
            ("not json", Fails("invalid literal at byte 0")),
            ("[1,]", Fails("invalid number \"\" at byte 3")),
            ("1.2.3", Fails("invalid number \"1.2.3\" at byte 0")),
            ("\"unterminated", Fails("unterminated string")),
            ("\"a\\", Fails("unterminated escape")),
            (r#""\q""#, Fails("invalid escape at byte 2")),
            (r#""\u12""#, Fails("truncated \\u escape")),
            (r#""\uzzzz""#, Fails("invalid \\u escape")),
            // The depth bound.
            (&deep_ok, Parses),
            (&too_deep, Fails("nesting deeper than 64 levels at byte 64")),
            (&huge, Fails("nesting deeper than 64 levels at byte 64")),
            (
                &deep_obj,
                Fails("nesting deeper than 64 levels at byte 320"),
            ),
            // The escaper.
            ("a\"b\\c\nd", Escapes(r#"a\"b\\c\nd"#)),
            ("\u{0007}\r\t\u{1f}", Escapes("\\u0007\\r\\t\\u001f")),
            ("π/\u{7f}", Escapes("π/\u{7f}")),
        ];
        for (text, want) in &rows {
            let got = parse(text);
            let shown = &text[..text.len().min(60)];
            match want {
                Is(v) => assert_eq!(got.as_ref(), Ok(v), "{shown}"),
                Parses => assert!(got.is_ok(), "{shown}: {got:?}"),
                I64(n) => assert_eq!(got.unwrap().as_i64(), *n, "{shown}"),
                F64(x) => {
                    let n = got.unwrap().as_f64().unwrap();
                    assert_eq!(n.to_bits(), x.to_bits(), "{shown}: {n}");
                }
                Fails(msg) => assert_eq!(got, Err(msg.to_string()), "{shown}"),
                Escapes(e) => assert_eq!(escape(text), *e, "{shown}"),
            }
        }
    }

    #[test]
    fn exact_integers_read_through_as_int() {
        let v = parse(r#"{"c":18446744073709551615,"g":-5,"f":2.0}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_int::<u64>(), Some(u64::MAX));
        assert_eq!(v.get("c").unwrap().as_int::<i64>(), None, "does not fit");
        assert_eq!(v.get("g").unwrap().as_int::<u64>(), None, "negative");
        assert_eq!(v.get("g").unwrap().as_int::<i64>(), Some(-5));
        assert_eq!(v.get("f").unwrap().as_int::<i64>(), None, "float syntax");
        assert_eq!(v.get("f").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn json_object_renders_fields_in_order() {
        let line = json_object(&[
            ("ev", Value::Str("op_scheduled".into())),
            ("node", Value::Int(3)),
            ("forced", Value::Bool(false)),
            ("ratio", Value::Num(1.5)),
            ("bad", Value::Num(f64::NAN)),
        ]);
        assert_eq!(
            line,
            r#"{"ev":"op_scheduled","node":3,"forced":false,"ratio":1.5,"bad":null}"#
        );
        assert_eq!(json_object(&[]), "{}");
    }

    /// A string over the characters escaping must get right: quotes,
    /// backslashes, every control character, and multi-byte characters.
    fn tricky_string(g: &mut Gen) -> String {
        const SPECIAL: [char; 6] = ['"', '\\', '/', 'é', 'π', '😀'];
        g.vec_with(12, |g| match g.unscaled(0..4u32) {
            0 => char::from_u32(g.unscaled(0..0x20u32)).unwrap(),
            1 => *g.rng().choose(&SPECIAL).unwrap(),
            2 => char::from_u32(g.unscaled(0x20..0x7fu32)).unwrap(),
            _ => char::from_u32(g.unscaled(0x80..0xd800u32)).unwrap(),
        })
        .into_iter()
        .collect()
    }

    fn scalar(g: &mut Gen) -> Value {
        match g.unscaled(0..6u32) {
            0 => Value::Str(tricky_string(g)),
            1 => Value::Int(
                *g.rng()
                    .choose(&[0, u64::MAX as i128, i64::MIN as i128, i64::MAX as i128])
                    .unwrap(),
            ),
            2 => Value::Int(g.i64_in(-1_000_000, 1_000_000).into()),
            3 => Value::Bool(g.bool()),
            // Any finite f64 bit pattern, integral ones included.
            _ => loop {
                let x = f64::from_bits(g.u64());
                if x.is_finite() {
                    break Value::Num(x);
                }
            },
        }
    }

    /// Whether `read` is what writing `written` should parse back to: the
    /// same value, except that an integral float comes back as
    /// [`Value::Int`], so floats compare by their `as_f64` bits.
    fn same(written: &Value, read: &Value) -> bool {
        match written {
            Value::Num(x) => read.as_f64().map(f64::to_bits) == Some(x.to_bits()),
            _ => written == read,
        }
    }

    #[test]
    fn written_objects_parse_back_to_the_same_values() {
        check(
            "json_object_round_trip",
            &PropConfig::with_cases(256),
            &[],
            |g| g.vec_with(8, |g| (tricky_string(g), scalar(g))),
            |fields| {
                let borrowed: Vec<(&str, Value)> = fields
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                let line = json_object(&borrowed);
                let parsed = parse(&line).map_err(|e| format!("{line}: {e}"))?;
                let map = parsed.as_obj().ok_or("not an object")?;
                // The last of duplicate keys wins.
                let want: BTreeMap<&str, &Value> =
                    fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
                if map.len() != want.len() {
                    return Err(format!("{line}: {} keys, want {}", map.len(), want.len()));
                }
                for (k, v) in want {
                    match map.get(k) {
                        Some(r) if same(v, r) => {}
                        other => return Err(format!("{line}: {k:?} read {other:?}, wrote {v:?}")),
                    }
                }
                // Display is the same writer, one value at a time.
                if parsed.to_string() != parse(&parsed.to_string()).unwrap().to_string() {
                    return Err(format!("{line}: Display does not round-trip"));
                }
                Ok(())
            },
        );
    }
}
