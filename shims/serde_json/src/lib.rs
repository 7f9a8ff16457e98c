//! Vendored offline stand-in for `serde_json`.
//!
//! Writing streams: `JsonWriter`, the one JSON renderer, implements the
//! `serde` shim's [`Serializer`] sink and appends text as a value is
//! walked, with no intermediate tree. Reading parses into the shim's
//! [`Value`] tree, which `Deserialize` impls consume. Integers keep full
//! 64-bit precision (they are emitted and re-parsed as integer literals,
//! never routed through `f64`), and finite floats use Rust's shortest
//! round-trip formatting, so `to_string` → `from_str` is lossless for every
//! type the workspace serialises.

use serde::{Deserialize, Serialize, Serializer, Value};
use std::fmt::{self, Write as _};

#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialises a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&mut out, value);
    Ok(out)
}

/// Serialises a value to indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize(&mut JsonWriter::<true>::new(&mut out));
    Ok(out)
}

/// Appends the compact JSON of `value` to `out`: [`to_string`] without a
/// fresh buffer, for writers that concatenate many documents (JSON Lines).
pub fn write_compact<T: Serialize + ?Sized>(out: &mut String, value: &T) {
    value.serialize(&mut JsonWriter::<false>::new(out));
}

/// Parses JSON and deserialises into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        src: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(Error::new(format!("trailing input at byte {}", p.pos)));
    }
    T::deserialize(&v).map_err(|e| Error::new(e.to_string()))
}

/// Spaces per nesting level in pretty output.
const INDENT: usize = 2;

/// The JSON renderer: a [`Serializer`] that appends indented JSON text
/// to a `String` when `PRETTY`, compact text otherwise.
///
/// The layout is a type parameter, so the compact writer is compiled
/// with no indentation branches at all. Its whole state is the nesting
/// depth and two flags, so writing allocates nothing beyond the output's
/// own growth.
struct JsonWriter<'a, const PRETTY: bool> {
    out: &'a mut String,
    /// Open containers.
    depth: usize,
    /// Nothing has been written yet in the innermost open container.
    first: bool,
    /// A map key was just written; the next value completes its pair.
    after_key: bool,
}

impl<'a, const PRETTY: bool> JsonWriter<'a, PRETTY> {
    fn new(out: &'a mut String) -> Self {
        JsonWriter {
            out,
            depth: 0,
            first: true,
            after_key: false,
        }
    }

    /// Separates a new element from its predecessor in the open
    /// container: a comma after the first, then the line break and
    /// indent of pretty output.
    #[inline(always)]
    fn element(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline_indent();
    }

    /// Called before every value: sequence elements get their separator,
    /// map values follow their key directly.
    #[inline(always)]
    fn before_value(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if self.depth > 0 {
            self.element();
        }
    }

    #[inline(always)]
    fn newline_indent(&mut self) {
        if PRETTY {
            self.write_indent();
        }
    }

    /// Starts a new line indented to the current depth.
    fn write_indent(&mut self) {
        const SPACES: &str = "                                ";
        self.out.push('\n');
        let mut n = self.depth * INDENT;
        while n > 0 {
            let k = n.min(SPACES.len());
            self.out.push_str(&SPACES[..k]);
            n -= k;
        }
    }

    /// Writes what precedes a map key's text: the element separator and
    /// the opening quote.
    #[inline(always)]
    fn open_key(&mut self) {
        if PRETTY {
            self.element();
            self.out.push('"');
        } else if self.first {
            self.first = false;
            self.out.push('"');
        } else {
            self.out.push_str(",\"");
        }
    }

    /// Writes what follows a map key's text, up to its value.
    #[inline(always)]
    fn close_key(&mut self) {
        self.out.push_str("\":");
        if PRETTY {
            self.out.push(' ');
        }
        self.after_key = true;
    }

    #[inline(always)]
    fn open(&mut self, bracket: char) {
        self.before_value();
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    #[inline(always)]
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        // An empty container closes on the same line: `[]`, `{}`.
        if !self.first {
            self.newline_indent();
        }
        self.first = false;
        self.out.push(bracket);
    }
}

// Every sink call is forced inline. The derived `serialize` bodies that
// drive the writer are instantiated in the calling crate, and left to its
// own judgement the compiler kept these as out-of-line calls there, which
// cost about a fifth of the JSONL trace export.
impl<const PRETTY: bool> Serializer for JsonWriter<'_, PRETTY> {
    #[inline(always)]
    fn serialize_null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    #[inline(always)]
    fn serialize_bool(&mut self, v: bool) {
        self.before_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    #[inline(always)]
    fn serialize_u64(&mut self, v: u64) {
        self.before_value();
        write_u64(self.out, v);
    }

    #[inline(always)]
    fn serialize_i64(&mut self, v: i64) {
        self.before_value();
        if v < 0 {
            self.out.push('-');
        }
        write_u64(self.out, v.unsigned_abs());
    }

    #[inline]
    fn serialize_f64(&mut self, v: f64) {
        self.before_value();
        if v.is_finite() {
            // `{}` is Rust's shortest exact round-trip representation.
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    #[inline(always)]
    fn serialize_str(&mut self, v: &str) {
        self.before_value();
        write_string(self.out, v);
    }

    #[inline(always)]
    fn begin_seq(&mut self) {
        self.open('[');
    }

    #[inline(always)]
    fn end_seq(&mut self) {
        self.close(']');
    }

    #[inline(always)]
    fn begin_map(&mut self) {
        self.open('{');
    }

    #[inline(always)]
    fn serialize_key(&mut self, key: &str) {
        self.open_key();
        write_string_body(self.out, key);
        self.close_key();
    }

    #[inline(always)]
    fn serialize_field(&mut self, name: &'static str) {
        debug_assert!(
            !name.bytes().any(|b| NEEDS_ESCAPE[usize::from(b)]),
            "field name {name:?} needs escaping"
        );
        self.open_key();
        self.out.push_str(name);
        self.close_key();
    }

    #[inline(always)]
    fn end_map(&mut self) {
        self.close('}');
    }
}

/// The two-digit decimal text of 0 through 99, back to back.
static PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends the decimal digits of `n`, written back to front straight into
/// the string's spare capacity, two at a time.
#[inline(always)]
fn write_u64(out: &mut String, mut n: u64) {
    let len = n.checked_ilog10().unwrap_or(0) as usize + 1;
    out.reserve(len);
    // SAFETY: `len` bytes of capacity were reserved above, every one of
    // them is written with an ASCII digit before the length covers it,
    // and ASCII is valid UTF-8.
    unsafe {
        let v = out.as_mut_vec();
        let start = v.len();
        let dst = v.as_mut_ptr().add(start);
        let pairs = PAIRS.as_ptr();
        let mut i = len;
        while n >= 100 {
            let d = (n % 100) as usize * 2;
            n /= 100;
            i -= 2;
            std::ptr::copy_nonoverlapping(pairs.add(d), dst.add(i), 2);
        }
        if n >= 10 {
            std::ptr::copy_nonoverlapping(pairs.add(n as usize * 2), dst, 2);
        } else {
            *dst = b'0' + n as u8;
        }
        v.set_len(start + len);
    }
}

/// Bytes a JSON string literal cannot hold as themselves: `"`, `\` and
/// the control characters.
static NEEDS_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Appends `s` as a JSON string literal.
#[inline(always)]
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    write_string_body(out, s);
    out.push('"');
}

/// Appends `s` escaped, without quotes. A string with nothing to escape,
/// which is nearly every enum tag, is copied in one go.
#[inline(always)]
fn write_string_body(out: &mut String, s: &str) {
    if s.bytes().all(|b| !NEEDS_ESCAPE[usize::from(b)]) {
        out.push_str(s);
    } else {
        write_escaped(out, s);
    }
}

/// [`write_string_body`] for a string that needs escapes: runs of plain
/// bytes are copied whole between them.
#[cold]
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !NEEDS_ESCAPE[usize::from(b)] {
            continue;
        }
        // `b` is ASCII, so both slice ends fall on char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.src[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    entries.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.src.len()
                && self.src[self.pos] != b'"'
                && self.src[self.pos] != b'\\'
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| Error::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_keyword("\\u") {
                                    return Err(Error::new("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                let combined =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("bad surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| Error::new("bad \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(Error::new("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.src.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.src[self.pos..self.pos + 4])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let n = u32::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos += 4;
        Ok(n)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Demo {
        name: String,
        count: u64,
        ratio: f64,
        tags: Vec<u32>,
    }

    #[test]
    fn struct_roundtrip_compact_and_pretty() {
        let d = Demo {
            name: "hello \"world\"\n".into(),
            count: u64::MAX,
            ratio: 0.1,
            tags: vec![1, 2, 3],
        };
        let back: Demo = from_str(&to_string(&d).unwrap()).unwrap();
        assert_eq!(d, back);
        let back: Demo = from_str(&to_string_pretty(&d).unwrap()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn large_integers_are_exact() {
        let v = vec![u64::MAX, u64::MAX - 1, 0];
        let back: Vec<u64> = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn float_shortest_roundtrip() {
        for f in [0.1, 1.0, -2.5e300, f64::MIN_POSITIVE, 1e-12] {
            let back: f64 = from_str(&to_string(&f).unwrap()).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f}");
        }
    }

    #[test]
    fn floats_at_the_integer_limits_do_not_saturate() {
        // 2⁶⁴ and 2⁶³ parse as floats; neither fits its target type.
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<u64>("18446744073709551616.0").is_err());
        assert!(from_str::<i64>("9223372036854775808.0").is_err());
        assert_eq!(
            from_str::<u64>("18446744073709549568.0").unwrap(),
            18_446_744_073_709_549_568
        );
        assert_eq!(
            from_str::<i64>("9223372036854774784.0").unwrap(),
            9_223_372_036_854_774_784
        );
    }

    #[test]
    fn parsed_value_writes_back_unchanged() {
        let text = r#"{"a":[1,-2,0.5,null,true],"b":{},"c":[],"d":"x\ny","e":{"f":[[]]}}"#;
        let parse = |src: &str| {
            Parser {
                src: src.as_bytes(),
                pos: 0,
            }
            .value()
            .unwrap()
        };
        let v = parse(text);
        assert_eq!(to_string(&v).unwrap(), text);
        assert_eq!(parse(&to_string_pretty(&v).unwrap()), v);
    }

    #[test]
    fn write_compact_appends() {
        let mut out = String::from("x");
        write_compact(&mut out, &vec![1u8, 2]);
        write_compact(&mut out, "y");
        assert_eq!(out, r#"x[1,2]"y""#);
    }

    #[test]
    fn integers_render_as_their_decimal_text() {
        let mut n = 1u64;
        let mut cases = vec![0, u64::MAX];
        for _ in 0..20 {
            cases.extend([n - 1, n, n + 1, n.wrapping_mul(7) / 3]);
            n = n.saturating_mul(10);
        }
        for v in cases {
            assert_eq!(to_string(&v).unwrap(), v.to_string());
            let neg = -(v as i64 & i64::MAX);
            assert_eq!(to_string(&neg).unwrap(), neg.to_string());
        }
        let mut out = String::from("a");
        write_compact(&mut out, &[7u64, 10, 99, 100][..]);
        assert_eq!(out, "a[7,10,99,100]");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("12 34").is_err());
    }
}
