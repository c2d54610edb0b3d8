//! A minimal JSON value type, writer, and parser.
//!
//! The workspace is hermetic — no crates.io access — so the handful of
//! places that serialize results (the `repro` harness, the bench
//! harness) and deserialize scenario configs use this module instead of
//! `serde_json`. It supports exactly the JSON the workspace emits:
//! objects, arrays, strings, finite numbers, booleans, and null.
//!
//! Number fidelity: values are written with Rust's shortest round-trip
//! `f64` formatting, so `parse(write(x)) == x` bit-for-bit for every
//! finite `f64` including `-0.0` and extreme exponents. Non-finite
//! numbers have no JSON representation and are written as `null`
//! (matching `serde_json`'s lossy default).
//!
//! The writer primitives ([`write_number`], [`write_integer`],
//! [`write_escaped`]) are public so a hot serializer can write a
//! document straight into a buffer, without building a [`Json`] tree
//! first, and still produce the bytes the tree writer would: the tree
//! writer calls the same functions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) so output is canonical —
    /// the same value always serializes to the same bytes.
    Obj(BTreeMap<String, Json>),
}

/// A parse error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array by mapping `f` over `items`.
    pub fn arr<T, I, F>(items: I, f: F) -> Json
    where
        I: IntoIterator<Item = T>,
        F: Fn(T) -> Json,
    {
        Json::Arr(items.into_iter().map(f).collect())
    }

    /// A string value.
    pub fn str<S: Into<String>>(s: S) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Fetch a required numeric field from an object.
    pub fn req_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.get(key).and_then(Json::as_f64).ok_or_else(|| JsonError {
            message: format!("missing or non-numeric field `{key}`"),
            offset: 0,
        })
    }

    /// Serialize to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    /// Append the compact serialization to `out`: the bytes
    /// [`to_json_string`](Self::to_json_string) returns.
    pub fn write_to(&self, out: &mut String) {
        self.write_skipping(out, None);
    }

    /// Serialize with one top-level object key left out: the bytes
    /// [`to_json_string`](Self::to_json_string) would give after
    /// removing `key`, without cloning the document to remove it.
    /// Non-objects serialize unchanged.
    pub fn to_json_string_without(&self, key: &str) -> String {
        let mut out = String::new();
        self.write_skipping(&mut out, Some(key));
        out
    }

    fn write_skipping(&self, out: &mut String, skip: Option<&str>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                let mut first = true;
                for (k, v) in map {
                    if skip == Some(k.as_str()) {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    write_escaped(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. The whole input must be one value (plus
    /// surrounding whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

/// 2^53: below it every integer is an `f64`, one ulp apart at most.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Append `x` as a JSON number: the shortest decimal that parses back
/// to the same bits, or `null` for a non-finite value.
pub fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // Fast path for integral values below 2^53 in magnitude (checkpoint
    // documents are mostly cell indices and counters). There an ulp is
    // at most 1, so no other decimal with fewer significant digits lies
    // within half an ulp: the shortest round-trip digits `{x}` prints
    // are the integer itself. `-0.0` keeps the general path (`-0`).
    if x.fract() == 0.0 && x.abs() < EXACT_INT_LIMIT && !(x == 0.0 && x.is_sign_negative()) {
        write_integer(x as i64, out);
        return;
    }
    // Rust's `{}` for f64 is the shortest string that parses back to the
    // same bits — ideal for fidelity. It writes `-0` for negative zero
    // and never produces a leading `.` or `+`, so it is always valid
    // JSON except for the exponent-free rendering of huge values, which
    // is also valid JSON (just long).
    let _ = write!(out, "{x}");
}

/// `"00" "01" … "99"`: the two ASCII digits of every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append the decimal digits of `n`, as `{n}` prints them, two digits
/// per step. For `|n| < 2^53` this is also what [`write_number`]
/// writes for `n as f64`.
pub fn write_integer(n: i64, out: &mut String) {
    // 19 digits plus a sign fit any i64.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut m = n.unsigned_abs();
    while m >= 100 {
        let pair = (m % 100) as usize * 2;
        m /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if m >= 10 {
        let pair = m as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + m as u8;
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    // Every byte written above is ASCII, so this never fails.
    if let Ok(digits) = std::str::from_utf8(&buf[at..]) {
        out.push_str(digits);
    }
}

/// Append `s` as a JSON string literal: quoted, with `"`, `\\` and
/// control characters escaped.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Containers may nest at most this deep. The parser recurses once per
/// `[`/`{` level, so hostile input like `[[[[…` would otherwise turn a
/// parse call into a stack overflow (an abort, not a catchable error).
/// 128 levels is far beyond any document this workspace writes — the
/// checkpoint format nests 5 deep — while keeping worst-case stack use
/// a few tens of kilobytes.
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Run one container parse a level deeper, bounding total recursion.
    fn nested(
        &mut self,
        f: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain (unescaped, ASCII-or-UTF-8) run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
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
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid code point"))?);
                            // hex4 advanced pos already; skip the +1 below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { message: format!("invalid number `{text}`"), offset: start })
    }
}

/// Types that can serialize themselves to a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Types that can reconstruct themselves from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parse `self` out of a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        v.as_f64().ok_or_else(|| JsonError { message: "expected number".into(), offset: 0 })
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_json_string()).expect("self-written JSON must parse")
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Inside the limit: parses fine (round-trips, even).
        let deep_ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&deep_ok).is_ok());

        // One level past the limit: a typed error, not a stack overflow.
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&over).unwrap_err();
        assert!(err.message.contains("nesting"), "got: {err}");

        // Hostile depth (would overflow the stack without the limit);
        // mixed container kinds both count toward the same budget.
        let hostile = "[{\"k\":".repeat(50_000) + "null" + &"}]".repeat(50_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.message.contains("nesting"), "got: {err}");

        // Siblings at the same level do not consume depth budget.
        let wide = format!("[{}]", vec!["[1]"; 10_000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn scalars_round_trip() {
        for v in [Json::Null, Json::Bool(true), Json::Bool(false), Json::Num(3.5)] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn f64_fidelity_including_negative_zero_and_extremes() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            5e-324, // smallest subnormal
            1e300,
            -2.2250738585072014e-308,
            std::f64::consts::PI,
            6.02214076e23,
        ] {
            let back = round_trip(&Json::Num(x));
            let y = back.as_f64().unwrap();
            assert_eq!(y.to_bits(), x.to_bits(), "fidelity lost for {x:e}: got {y:e}");
        }
    }

    /// `write_number`'s output for one value, against `{x}` — the
    /// shortest round-trip formatting of the general path.
    fn assert_writes_like_display(x: f64) {
        let mut out = String::new();
        write_number(x, &mut out);
        assert_eq!(out, format!("{x}"), "bits {:#018x}", x.to_bits());
    }

    #[test]
    fn integer_fast_path_matches_display_exactly() {
        let two53 = 9_007_199_254_740_992.0f64;
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            two53 - 1.0,
            -(two53 - 1.0),
            two53,
            -two53,
            two53 + 2.0,
            1e15,
            1e16,
            1e21,
            -1e21,
            5e-324,
            -5e-324,
            0.5,
            -0.5,
            4_503_599_627_370_495.5, // 2^52 - 0.5: the last half-integer
        ] {
            assert_writes_like_display(x);
        }
        // Seeded sweep: integers at every magnitude (both sides of
        // 2^53), values just off an integer, and arbitrary bit
        // patterns (any finite f64 at all).
        let mut rng = crate::rng::Rng64::from_seed(0x15EA_1D0C);
        for _ in 0..20_000 {
            let bits = rng.next_u64();
            let scale = (bits % 64) as i32;
            let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
            let int = sign * (rng.next_u64() >> (bits % 63)) as f64;
            assert_writes_like_display(int);
            assert_writes_like_display(int * 2f64.powi(scale - 32));
            assert_writes_like_display(int + rng.gen_range(-1.0..1.0));
            let any = f64::from_bits(rng.next_u64());
            if any.is_finite() {
                assert_writes_like_display(any);
            }
        }
    }

    #[test]
    fn integer_writer_matches_display_at_every_width() {
        let mut cases = vec![i64::MIN, i64::MAX, i64::MIN + 1];
        let mut p = 1i64;
        for _ in 0..19 {
            cases.extend([p - 1, p, p + 1, -(p - 1), -p, -(p + 1)]);
            p = p.saturating_mul(10);
        }
        let mut rng = crate::rng::Rng64::from_seed(0x001D_1617);
        cases.extend((0..10_000).map(|_| (rng.next_u64() as i64) >> (rng.next_u64() % 64)));
        for n in cases {
            let mut out = String::from("x");
            write_integer(n, &mut out);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn skipping_a_key_matches_removing_it() {
        let doc = Json::obj([
            ("crc", Json::Num(12.0)),
            ("a", Json::obj([("crc", Json::Num(1.0))])),
            ("z", Json::Arr(vec![Json::Num(-0.0), Json::Null])),
        ]);
        for key in ["crc", "a", "z", "missing"] {
            let mut stripped = doc.clone();
            if let Json::Obj(map) = &mut stripped {
                map.remove(key);
            }
            assert_eq!(doc.to_json_string_without(key), stripped.to_json_string(), "{key}");
        }
        // Only the top level is filtered; non-objects are unaffected.
        assert_eq!(doc.to_json_string_without("crc"), r#"{"a":{"crc":1},"z":[-0,null]}"#);
        assert_eq!(Json::Num(3.0).to_json_string_without("crc"), "3");
        assert_eq!(Json::obj([("crc", Json::Null)]).to_json_string_without("crc"), "{}");
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_json_string(), "null");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslash\\",
            "line\nbreak\ttab\rreturn",
            "control \u{1} char",
            "unicode: λ/2 ≈ 16 cm, 完全",
            "emoji \u{1F600} pair",
        ] {
            let v = Json::str(s);
            assert_eq!(round_trip(&v), v, "string {s:?}");
        }
    }

    #[test]
    fn parses_foreign_escapes() {
        let v = Json::parse(r#""aAé😀\/b\f\b""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aAé😀/b\u{c}\u{8}");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("id", Json::str("fig13")),
            ("accuracy", Json::Num(0.914)),
            (
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::str("A"), Json::Num(-0.0)]),
                    Json::Arr(vec![Json::str("B"), Json::Num(1e300)]),
                ]),
            ),
            ("nested", Json::obj([("deep", Json::obj([("x", Json::Null)]))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(Vec::<(&str, Json)>::new())),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn canonical_output_is_stable() {
        let a = Json::obj([("b", Json::Num(2.0)), ("a", Json::Num(1.0))]);
        let b = Json::obj([("a", Json::Num(1.0)), ("b", Json::Num(2.0))]);
        assert_eq!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.to_json_string(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" \n\t{ \"k\" : [ 1 , 2.5e1 , -3 ] }\r\n").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap(),
            &[Json::Num(1.0), Json::Num(25.0), Json::Num(-3.0)]
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'single':1}",
            "[1] trailing",
            "\"bad \\x escape\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn accessors_behave() {
        let v = Json::parse(r#"{"x": 2.5, "s": "hi", "b": true, "a": [null]}"#).unwrap();
        assert_eq!(v.req_f64("x").unwrap(), 2.5);
        assert!(v.req_f64("s").is_err());
        assert!(v.req_f64("missing").is_err());
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("a").unwrap().as_f64(), None);
    }
}
