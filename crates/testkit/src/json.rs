//! The workspace's one JSON module: the parser behind every document it
//! reads back and the escaper behind every string it writes.
//!
//! Service requests and responses, trace events, `BENCH_*.json`
//! snapshots, optgap lines and benchmark results all go through here.
//! The workspace is std-only, so this module stands in for `serde_json`
//! with exactly the surface the workspace uses:
//!
//! * [`Reader`] is the one lexer: a pull reader that returns a document's
//!   [`Token`]s in order, strings borrowed from the text unless they hold
//!   an escape. A consumer that needs a few fields walks the tokens and
//!   builds no tree; the service decodes its requests this way.
//!   Arrays and objects nested deeper than [`MAX_DEPTH`] are an ordinary
//!   error, so no input can overflow the stack.
//! * [`parse`] reads one document into a [`Value`] tree, built from the
//!   reader's tokens, so it has the reader's grammar and error texts. A
//!   number written as an integer is kept exact ([`Value::Int`], enough
//!   for `u64` counters and `i128` sums); any other number is an `f64`.
//!   Objects are sorted maps, and the last of duplicate keys wins.
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

use std::borrow::Cow;
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
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        const LIMIT: i64 = 9_000_000_000_000_000;
        match *self {
            // Exact below 2⁵³, so the same answer as the float test.
            Value::Int(i) => i64::try_from(i)
                .ok()
                .filter(|n| (-LIMIT..=LIMIT).contains(n)),
            _ => {
                let n = self.as_f64()?;
                (n.fract() == 0.0 && n.abs() <= LIMIT as f64).then_some(n as i64)
            }
        }
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
    let mut reader = Reader::new(text);
    let value = match reader.next_token() {
        Ok(first) => reader.build(first)?,
        Err(e) => return Err(e),
    };
    reader.finish()?;
    Ok(value)
}

/// One token of a JSON document, as [`Reader::next_token`] returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `{`: an object opens. Its keys follow, each before its value.
    ObjectStart,
    /// `}`: the innermost open object closes.
    ObjectEnd,
    /// `[`: an array opens. Its elements follow.
    ArrayStart,
    /// `]`: the innermost open array closes.
    ArrayEnd,
    /// An object key, unescaped; its value is the next token.
    Key(Cow<'a, str>),
    /// A string value, unescaped.
    Str(Cow<'a, str>),
    /// `null`, a boolean or a number, held as [`parse`] holds it.
    Scalar(Value),
}

/// What the reader expects at its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// A value: the document's, an object member's, or an array element
    /// after a comma.
    Value,
    /// The first key of an object, or its `}`.
    FirstKey,
    /// The first element of an array, or its `]`.
    FirstElement,
    /// A `,` or the close of the innermost container.
    AfterValue,
    /// Nothing: the document's value is complete.
    Done,
}

/// A pull reader over one JSON document: the workspace's one JSON lexer.
///
/// [`Reader::next_token`] returns the document's tokens in order and
/// checks the grammar between them, so a consumer walks the document
/// without building a tree. Strings borrow from the text unless they hold
/// an escape. Containers nested deeper than [`MAX_DEPTH`] are an error,
/// and every error text is the one [`parse`], which is built on this
/// reader, reports.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    /// Always on a character boundary of `text`: it advances over ASCII
    /// bytes and whole string runs.
    pos: usize,
    /// Open containers.
    depth: usize,
    /// Bit `d` is set when the container at depth `d + 1` is an object.
    objects: u64,
    state: State,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            objects: 0,
            state: State::Value,
        }
    }

    /// The next token.
    ///
    /// # Errors
    ///
    /// The first syntax error at or before the token, with [`parse`]'s
    /// text, or `unexpected end of input` and `trailing characters at
    /// byte N` once the document's value is complete. After an error the
    /// reader's position is unspecified.
    pub fn next_token(&mut self) -> Result<Token<'a>, String> {
        let bytes = self.text.as_bytes();
        self.skip_ws();
        let c = bytes.get(self.pos).copied();
        match self.state {
            State::Value => self.state = self.after_value(),
            State::FirstElement if c == Some(b']') => return Ok(self.close()),
            State::FirstElement => self.state = State::AfterValue,
            State::FirstKey if c == Some(b'}') => return Ok(self.close()),
            State::FirstKey => return self.key(),
            State::AfterValue => match (c, self.in_object()) {
                (Some(b','), true) => {
                    self.pos += 1;
                    self.skip_ws();
                    return self.key();
                }
                (Some(b','), false) => {
                    self.pos += 1;
                    self.skip_ws();
                }
                (Some(b'}'), true) | (Some(b']'), false) => return Ok(self.close()),
                (_, true) => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                (_, false) => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            },
            State::Done if c.is_none() => return Err("unexpected end of input".to_string()),
            State::Done => return Err(format!("trailing characters at byte {}", self.pos)),
        }
        // A value starts at `pos`, and the state is the one after it. Each
        // arm returns its token as it is made: re-wrapping a returned
        // scalar costs more than lexing it.
        let rest = &bytes[self.pos..];
        match rest.first() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.open(true),
            Some(b'[') => self.open(false),
            Some(b'"') => self.string(false),
            Some(b't') if rest.starts_with(b"true") => self.literal(4, Value::Bool(true)),
            Some(b'f') if rest.starts_with(b"false") => self.literal(5, Value::Bool(false)),
            Some(b'n') if rest.starts_with(b"null") => self.literal(4, Value::Null),
            Some(b't' | b'f' | b'n') => Err(format!("invalid literal at byte {}", self.pos)),
            Some(_) => self.number(),
        }
    }

    /// Reads past the rest of the value that `first`, the token just
    /// read, begins: nothing for a scalar or a string, up to the matching
    /// close for an array or an object. Since only nesting is counted, an
    /// opening token also reads past the rest of the innermost open
    /// container when some of it has been read already.
    ///
    /// # Errors
    ///
    /// As [`Reader::next_token`], the [`MAX_DEPTH`] bound included.
    pub fn skip_value(&mut self, first: &Token<'a>) -> Result<(), String> {
        let mut open = usize::from(matches!(first, Token::ObjectStart | Token::ArrayStart));
        while open > 0 {
            match self.next_token()? {
                Token::ObjectStart | Token::ArrayStart => open += 1,
                Token::ObjectEnd | Token::ArrayEnd => open -= 1,
                Token::Key(_) | Token::Str(_) | Token::Scalar(_) => {}
            }
        }
        Ok(())
    }

    /// Checks that the document's value is complete and only whitespace
    /// follows it.
    ///
    /// # Errors
    ///
    /// `unexpected end of input` when the value is not complete, or
    /// `trailing characters at byte N`.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.state != State::Done {
            return Err("unexpected end of input".to_string());
        }
        if self.pos != self.text.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(())
    }

    /// The tree of the value that begins with `first`, read to its end.
    /// The recursion is as deep as the document, which the reader bounds
    /// by [`MAX_DEPTH`]. Each token is matched inside the `Result` that
    /// [`Reader::next_token`] returns: moving a whole `Token` out with `?`
    /// first costs more than lexing a scalar.
    fn build(&mut self, first: Token<'a>) -> Result<Value, String> {
        Ok(match first {
            Token::Scalar(v) => v,
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::ArrayStart => {
                let mut items = Vec::new();
                loop {
                    items.push(match self.next_token() {
                        Ok(Token::ArrayEnd) => break Value::Arr(items),
                        Ok(Token::Scalar(v)) => v,
                        Ok(token) => self.build(token)?,
                        Err(e) => return Err(e),
                    });
                }
            }
            Token::ObjectStart => {
                let mut map = BTreeMap::new();
                loop {
                    let key = match self.next_token() {
                        Ok(Token::Key(key)) => key.into_owned(),
                        Ok(_) => break Value::Obj(map),
                        Err(e) => return Err(e),
                    };
                    let value = match self.next_token() {
                        Ok(Token::Scalar(v)) => v,
                        Ok(token) => self.build(token)?,
                        Err(e) => return Err(e),
                    };
                    map.insert(key, value);
                }
            }
            Token::ObjectEnd | Token::ArrayEnd | Token::Key(_) => {
                unreachable!("a value never starts with {first:?}")
            }
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.text.as_bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    fn in_object(&self) -> bool {
        self.objects >> (self.depth - 1) & 1 == 1
    }

    /// The state after a complete value.
    fn after_value(&self) -> State {
        if self.depth == 0 {
            State::Done
        } else {
            State::AfterValue
        }
    }

    /// Opens an array or object one level deeper, or fails when that
    /// would pass [`MAX_DEPTH`].
    fn open(&mut self, object: bool) -> Result<Token<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.objects = (self.objects & !(1 << self.depth)) | (u64::from(object) << self.depth);
        self.depth += 1;
        if object {
            self.state = State::FirstKey;
            Ok(Token::ObjectStart)
        } else {
            self.state = State::FirstElement;
            Ok(Token::ArrayStart)
        }
    }

    /// Closes the innermost container on its `]` or `}`.
    fn close(&mut self) -> Token<'a> {
        let object = self.in_object();
        self.pos += 1;
        self.depth -= 1;
        self.state = self.after_value();
        if object {
            Token::ObjectEnd
        } else {
            Token::ArrayEnd
        }
    }

    /// A key at `pos` and its `:`.
    fn key(&mut self) -> Result<Token<'a>, String> {
        let key = self.string(true)?;
        self.skip_ws();
        if self.text.as_bytes().get(self.pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", self.pos));
        }
        self.pos += 1;
        self.state = State::Value;
        Ok(key)
    }

    fn literal(&mut self, len: usize, v: Value) -> Result<Token<'a>, String> {
        self.pos += len;
        Ok(Token::Scalar(v))
    }

    fn number(&mut self) -> Result<Token<'a>, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // Most numbers are short integers: an optional `-` and at most 18
        // digits, which fit an `i64` and read as the general path reads
        // them. `-0` is left to it, so it stays a float.
        let negative = bytes.get(start) == Some(&b'-');
        let mut end = start + usize::from(negative);
        let mut n = 0i64;
        while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
            n = n.wrapping_mul(10).wrapping_add(i64::from(d - b'0'));
            end += 1;
        }
        let digits = end - start - usize::from(negative);
        let number_goes_on = matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if (1..=18).contains(&digits) && !number_goes_on && !(negative && n == 0) {
            self.pos = end;
            let n = if negative { -n } else { n };
            return Ok(Token::Scalar(Value::Int(n.into())));
        }
        self.pos = end;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(self.pos) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !text.contains(['.', 'e', 'E']) {
            match text.parse::<i128>() {
                Ok(i) if i != 0 || !text.starts_with('-') => {
                    return Ok(Token::Scalar(Value::Int(i)))
                }
                _ => {}
            }
        }
        text.parse::<f64>()
            .map(|n| Token::Scalar(Value::Num(n)))
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    /// The string at `pos`, quotes included, as a key or a value.
    fn string(&mut self, key: bool) -> Result<Token<'a>, String> {
        let text = self.text;
        let bytes = text.as_bytes();
        if bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {}", self.pos));
        }
        self.pos += 1;
        let mut owned: Option<String> = None;
        loop {
            // Everything up to the next quote or backslash is copied
            // verbatim; both are ASCII, so the run ends on a boundary.
            let start = self.pos;
            let mut end = start;
            while let Some(&c) = bytes.get(end) {
                if c == b'"' || c == b'\\' {
                    break;
                }
                end += 1;
            }
            let stop = *bytes.get(end).ok_or("unterminated string")?;
            let piece = &text[start..end];
            self.pos = end + 1;
            if stop == b'"' {
                let s = match owned {
                    None => Cow::Borrowed(piece),
                    Some(mut out) => {
                        out.push_str(piece);
                        Cow::Owned(out)
                    }
                };
                return Ok(if key { Token::Key(s) } else { Token::Str(s) });
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(piece);
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
    fn the_reader_yields_tokens_and_borrows_plain_strings() {
        use Token::*;
        let text = " {\"a\": [1, -2.5, \"x\\ny\", true], \"b\\u0041\": {}, \"c\": null} ";
        let mut r = Reader::new(text);
        let tokens: Vec<Token> = (0..14).map(|_| r.next_token().unwrap()).collect();
        let want = [
            ObjectStart,
            Key("a".into()),
            ArrayStart,
            Scalar(Value::Int(1)),
            Scalar(Value::Num(-2.5)),
            Str("x\ny".into()),
            Scalar(Value::Bool(true)),
            ArrayEnd,
            Key("bA".into()),
            ObjectStart,
            ObjectEnd,
            Key("c".into()),
            Scalar(Value::Null),
            ObjectEnd,
        ];
        assert_eq!(tokens, want);
        assert!(matches!(tokens[1], Key(Cow::Borrowed(_))));
        assert!(matches!(tokens[5], Str(Cow::Owned(_))));
        assert!(matches!(tokens[8], Key(Cow::Owned(_))));
        // The document is over: no token follows it.
        assert_eq!(r.next_token(), Err("unexpected end of input".to_string()));
        assert_eq!(r.finish(), Ok(()));
    }

    /// Reads past the next whole value.
    fn skip(r: &mut Reader<'_>) -> Result<(), String> {
        let first = r.next_token()?;
        r.skip_value(&first)
    }

    #[test]
    fn skip_value_passes_whole_values_within_the_depth_bound() {
        let mut r = Reader::new(r#"{"skip":{"a":[1,{"b":[]}],"c":"d"},"next":7}"#);
        assert_eq!(r.next_token(), Ok(Token::ObjectStart));
        assert_eq!(r.next_token(), Ok(Token::Key("skip".into())));
        skip(&mut r).unwrap();
        assert_eq!(r.next_token(), Ok(Token::Key("next".into())));
        skip(&mut r).unwrap();
        assert_eq!(r.next_token(), Ok(Token::ObjectEnd));
        assert_eq!(r.finish(), Ok(()));

        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let ok = nested(MAX_DEPTH);
        let mut r = Reader::new(&ok);
        skip(&mut r).unwrap();
        assert_eq!(r.finish(), Ok(()));
        let deep = nested(MAX_DEPTH + 1);
        assert_eq!(
            skip(&mut Reader::new(&deep)),
            Err("nesting deeper than 64 levels at byte 64".to_string())
        );
        // Past a scalar or a string there is nothing left to skip.
        let mut r = Reader::new(r#"["s",1]"#);
        assert_eq!(r.next_token(), Ok(Token::ArrayStart));
        skip(&mut r).unwrap();
        skip(&mut r).unwrap();
        assert_eq!(r.next_token(), Ok(Token::ArrayEnd));
        // An opening token reads past the rest of a container already begun.
        let mut r = Reader::new("[1,[2],3] ");
        assert_eq!(r.next_token(), Ok(Token::ArrayStart));
        assert_eq!(r.next_token(), Ok(Token::Scalar(Value::Int(1))));
        r.skip_value(&Token::ArrayStart).unwrap();
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn finish_rejects_unfinished_and_trailing_documents() {
        let mut r = Reader::new("[1] x");
        skip(&mut r).unwrap();
        assert_eq!(r.finish(), Err("trailing characters at byte 4".to_string()));
        let mut r = Reader::new("[1,2");
        assert_eq!(r.next_token(), Ok(Token::ArrayStart));
        assert_eq!(r.next_token(), Ok(Token::Scalar(Value::Int(1))));
        assert_eq!(r.finish(), Err("unexpected end of input".to_string()));
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
    fn as_i64_on_integers_matches_the_float_rule() {
        let float_rule = |i: i128| {
            let n = i as f64;
            (n.fract() == 0.0 && n.abs() <= 9.0e15).then_some(n as i64)
        };
        let limit = 9_000_000_000_000_000i128;
        for i in [
            0,
            -1,
            limit,
            limit + 1,
            -limit,
            -limit - 1,
            1 << 53,
            i64::MAX.into(),
            i64::MIN.into(),
            u64::MAX.into(),
            i128::MAX,
            i128::MIN,
        ] {
            assert_eq!(Value::Int(i).as_i64(), float_rule(i), "{i}");
        }
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
