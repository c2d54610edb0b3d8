//! A minimal JSON value type, writer, and parser.
//!
//! The workspace is hermetic — no crates.io access — so the handful of
//! places that serialize results (the `repro` harness, the bench
//! harness) and deserialize scenario configs use this module instead of
//! `serde_json`. It supports exactly the JSON the workspace emits:
//! objects, arrays, strings, finite numbers, booleans, and null.
//!
//! Number fidelity: values are written in shortest round-trip form, so
//! `parse(write(x)) == x` bit-for-bit for every finite `f64` including
//! `-0.0` and extreme exponents. The digits come from the module's own
//! writer (Schubfach's shortest-digit search over a `const`-built table
//! of powers of ten, with the digits emitted eight at a time), and its
//! text is exactly what Rust's `{x}` Display prints: Display survives
//! only as the oracle the unit tests hold the writer to. Non-finite
//! numbers have no JSON representation and are written as `null`
//! (matching `serde_json`'s lossy default).
//!
//! The writer primitives ([`write_number`], [`write_integer`],
//! [`write_u32_array`], [`write_u32_f64_pairs`], [`write_escaped`]) are
//! public so a hot serializer can write a document straight into a
//! buffer, without building a [`Json`] tree first, and still produce
//! the bytes the tree writer would: the tree writer calls the same
//! functions, and the array writers write each item exactly as the
//! scalar writers do.

use std::collections::BTreeMap;

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

    /// Fetch a required count or index field: a whole number in
    /// `0..=2^64`, where `2^64` reads back as `usize::MAX` (what
    /// `usize::MAX as f64` writes). See [`whole_number`].
    pub fn req_usize(&self, key: &str) -> Result<usize, JsonError> {
        Ok(whole_number(self.req_f64(key)?, usize::MAX as f64, key)? as usize)
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
        self.write_batched(&mut TextBatch::<ARRAY_BATCH>::new(out), skip);
    }

    /// The tree walk behind [`write_skipping`](Self::write_skipping):
    /// one batch carries the whole document, so its numbers, strings
    /// and punctuation reach the `String` a few kilobytes at a time.
    fn write_batched<const N: usize>(&self, text: &mut TextBatch<'_, N>, skip: Option<&str>) {
        match self {
            Json::Null => text.bytes(b"null"),
            Json::Bool(b) => text.bytes(if *b { b"true" } else { b"false" }),
            Json::Num(x) => text.number(*x),
            Json::Str(s) => text.escaped(s),
            Json::Arr(items) => {
                text.bytes(b"[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        text.bytes(b",");
                    }
                    item.write_batched(text, None);
                }
                text.bytes(b"]");
            }
            Json::Obj(map) => {
                text.bytes(b"{");
                let mut first = true;
                for (k, v) in map {
                    if skip == Some(k.as_str()) {
                        continue;
                    }
                    if !first {
                        text.bytes(b",");
                    }
                    first = false;
                    text.escaped(k);
                    text.bytes(b":");
                    v.write_batched(text, None);
                }
                text.bytes(b"}");
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

/// `x` checked to be a whole number in `0..=max`. An `as` cast would
/// read `-1` as 0 and `2.5` as 2 and accept a value no writer wrote, so
/// a negative, fractional, non-finite or too-large value is an error
/// naming `what`.
pub fn whole_number(x: f64, max: f64, what: &str) -> Result<f64, JsonError> {
    if x >= 0.0 && x <= max && x.fract() == 0.0 {
        Ok(x)
    } else {
        Err(JsonError {
            message: format!("`{what}` must be a whole number in 0..={max}, got {x}"),
            offset: 0,
        })
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

/// 2^53: below it every integer is an `f64`, one ulp apart at most.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// The room one [`TextBatch::number`] step writes into: a sign, 17
/// digits, and the 16-byte block a fraction moves in to make way for
/// the point. Runs of zeros, which can be hundreds long, go out in
/// separate steps.
const NUMBER_ROOM: usize = 34;

/// Append `x` as a JSON number: the shortest decimal that parses back
/// to the same bits, or `null` for a non-finite value. The text is
/// exactly what Rust's `{x}` Display writes — the closest of the
/// shortest round-trip digit strings, a tie going to the larger
/// magnitude, never an exponent, `-0` for negative zero.
pub fn write_number(x: f64, out: &mut String) {
    TextBatch::<NUMBER_ROOM>::new(out).number(x);
}

/// Append the decimal digits of `n`, as `{n}` prints them. For
/// `|n| < 2^53` this is also what [`write_number`] writes for
/// `n as f64`.
pub fn write_integer(n: i64, out: &mut String) {
    // 19 digits plus a sign fit any i64.
    TextBatch::<20>::new(out).integer(n);
}

/// Append `items` as a JSON array of integers: the text of writing
/// each with [`write_integer`], comma-separated, in brackets, with the
/// digits batched in a stack buffer and handed to `out` a few
/// kilobytes at a time.
pub fn write_u32_array(items: &[u32], out: &mut String) {
    // Room for a comma and the ten digits of any u32.
    const ITEM: usize = 11;
    let mut text = TextBatch::<ARRAY_BATCH>::new(out);
    if items.is_empty() {
        text.bytes(b"[]");
        return;
    }
    // Every item is written after a comma; the first comma becomes the
    // opening bracket.
    for (i, chunk) in items.chunks(ARRAY_BATCH / ITEM).enumerate() {
        let dst = text.reserve(chunk.len() * ITEM);
        let mut len = 0;
        for &n in chunk {
            dst[len] = b',';
            len += 1 + put_u64(n.into(), &mut dst[len + 1..]);
        }
        if i == 0 {
            dst[0] = b'[';
        }
        text.advance(len);
    }
    text.bytes(b"]");
}

/// Append `pairs` as a JSON array of `[integer, number]` pairs, each
/// item written as [`write_integer`] and [`write_number`] write it,
/// batched like [`write_u32_array`].
pub fn write_u32_f64_pairs(pairs: impl IntoIterator<Item = (u32, f64)>, out: &mut String) {
    let mut text = TextBatch::<ARRAY_BATCH>::new(out);
    text.bytes(b"[");
    for (i, (n, x)) in pairs.into_iter().enumerate() {
        // `,[`, the ten digits of any u32, and `,`.
        let dst = text.reserve(13);
        let lead = usize::from(i > 0);
        dst[0] = b',';
        dst[lead] = b'[';
        let len = lead + 1 + put_u64(n.into(), &mut dst[lead + 1..]);
        dst[len] = b',';
        text.advance(len + 1);
        text.number(x);
        text.bytes(b"]");
    }
    text.bytes(b"]");
}

/// Stack bytes an array writer batches before handing them to its
/// `String`.
const ARRAY_BATCH: usize = 4096;

/// Text written into an `N`-byte stack buffer and appended to a
/// `String` one batch at a time — when the next item might not fit, and
/// on drop — so many small values cost one `push_str` per batch rather
/// than one each. Every write is ASCII or one whole UTF-8 character, so
/// a batch always holds valid UTF-8.
struct TextBatch<'a, const N: usize> {
    out: &'a mut String,
    buf: [u8; N],
    len: usize,
}

impl<'a, const N: usize> TextBatch<'a, N> {
    fn new(out: &'a mut String) -> Self {
        TextBatch { out, buf: [0; N], len: 0 }
    }

    /// At least `n ≤ N` free bytes to write into; [`advance`](Self::advance)
    /// then keeps what was written.
    fn reserve(&mut self, n: usize) -> &mut [u8] {
        if N - self.len < n {
            self.flush();
        }
        &mut self.buf[self.len..]
    }

    fn advance(&mut self, written: usize) {
        self.len += written;
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.advance(bytes.len());
    }

    fn integer(&mut self, n: i64) {
        let dst = self.reserve(20);
        let sign = usize::from(n < 0);
        dst[0] = b'-';
        let len = sign + put_u64(n.unsigned_abs(), &mut dst[sign..]);
        self.advance(len);
    }

    /// Write the [`write_number`] text of `x`. `N` must be at least
    /// [`NUMBER_ROOM`].
    fn number(&mut self, x: f64) {
        let dst = self.reserve(NUMBER_ROOM);
        if !x.is_finite() {
            dst[..4].copy_from_slice(b"null");
            return self.advance(4);
        }
        let sign = usize::from(x.is_sign_negative());
        dst[0] = b'-';
        if x == 0.0 {
            dst[sign] = b'0';
            return self.advance(sign + 1);
        }
        // Integral values below 2^53 in magnitude (checkpoint documents
        // are mostly cell indices and counters): there an ulp is at most
        // 1, so no decimal with fewer significant digits lies within half
        // an ulp, and the shortest round-trip digits are the integer.
        if x.abs() < EXACT_INT_LIMIT && x.abs() >= 1.0 {
            // 1 ≤ |x| < 2^53: `below` of the 53 significand bits lie
            // below the binary point, and an integer has them all zero.
            let bits = x.to_bits();
            let significand = bits & ((1 << 52) - 1) | 1 << 52;
            let below = 1075 - ((bits >> 52) & 0x7FF);
            if significand & ((1 << below) - 1) == 0 {
                let len = put_u64(significand >> below, &mut dst[sign..]);
                return self.advance(sign + len);
            }
        }
        let (mut digits, mut exp) = shortest_decimal(x.to_bits());
        while digits % 10 == 0 {
            digits /= 10;
            exp += 1;
        }
        let n = decimal_len(digits) as i32;
        // The value is 0.d₁d₂…dₙ × 10^point.
        let point = exp + n;
        if point <= 0 {
            // 0.000ddd
            dst[sign..sign + 2].copy_from_slice(b"0.");
            self.advance(sign + 2);
            self.zeros(-point as usize);
            let len = put_u64(digits, self.reserve(NUMBER_ROOM));
            self.advance(len);
        } else if point < n {
            // ddd.ddd: move the fraction digits (at most 16) one place
            // right as one fixed-size block, and put the point in the gap.
            let (dst, point) = (&mut dst[sign..], point as usize);
            let len = put_u64(digits, dst);
            let mut fraction = [0u8; 16];
            fraction.copy_from_slice(&dst[point..point + 16]);
            dst[point + 1..point + 17].copy_from_slice(&fraction);
            dst[point] = b'.';
            self.advance(sign + len + 1);
        } else {
            // ddd000
            let len = put_u64(digits, &mut dst[sign..]);
            self.advance(sign + len);
            self.zeros((point - n) as usize);
        }
    }

    /// Write the [`write_escaped`] text of `s`, one character at a
    /// time so a batch never splits one.
    fn escaped(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.bytes(b"\"");
        for c in s.chars() {
            let mut utf8 = [0u8; 4];
            let code = c as usize;
            match c {
                '"' => self.bytes(b"\\\""),
                '\\' => self.bytes(b"\\\\"),
                '\n' => self.bytes(b"\\n"),
                '\r' => self.bytes(b"\\r"),
                '\t' => self.bytes(b"\\t"),
                _ if code < 0x20 => {
                    self.bytes(&[b'\\', b'u', b'0', b'0', HEX[code >> 4], HEX[code & 15]]);
                }
                c => self.bytes(c.encode_utf8(&mut utf8).as_bytes()),
            }
        }
        self.bytes(b"\"");
    }

    /// Write `count` zeros, a batch at a time.
    fn zeros(&mut self, mut count: usize) {
        while count > 0 {
            let step = count.min(N);
            self.reserve(step)[..step].fill(b'0');
            self.advance(step);
            count -= step;
        }
    }

    fn flush(&mut self) {
        // Every batch holds whole characters, so this never fails.
        if let Ok(text) = std::str::from_utf8(&self.buf[..self.len]) {
            self.out.push_str(text);
        }
        self.len = 0;
    }
}

impl<const N: usize> Drop for TextBatch<'_, N> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Number of decimal digits of `n` (1 for 0).
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// The eight decimal digits of `n < 10^8`, most significant in the
/// lowest byte, computed in parallel lanes of one `u64`: split into
/// two 4-digit halves (32-bit lanes), each into two 2-digit parts
/// (16-bit lanes), each into two digits (bytes). The multiply-shifts
/// divide exactly below 10^4 (by 100) and below 100 (by 10).
fn eight_digits(n: u32) -> u64 {
    let halves = u64::from(n / 10_000) | u64::from(n % 10_000) << 32;
    let hundreds = ((halves * 10_486) >> 20) & 0x0000_007F_0000_007F;
    let pairs = (halves - hundreds * 100) << 16 | hundreds;
    let tens = ((pairs * 103) >> 10) & 0x000F_000F_000F_000F;
    (pairs - tens * 10) << 8 | tens
}

/// `b'0'` in every byte: turns [`eight_digits`] into ASCII.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// The ASCII digits of `n < 10^8` from the lowest byte on, without
/// leading zeros, and how many there are. The count comes from `n`
/// itself rather than from the digits, so a caller waiting on the
/// length does not wait on the multiplications.
fn short_digits(n: u32) -> (u64, usize) {
    let len = decimal_len(n.into());
    ((eight_digits(n) + ASCII_ZEROS) >> (8 * (8 - len)), len)
}

/// Write the decimal digits of `n` at the front of `dst`; returns how
/// many (at most 20). Digits go out eight at a time, so `dst` must
/// hold at least 8 bytes even for a shorter `n`: bytes past the
/// returned length are scratch.
fn put_u64(n: u64, dst: &mut [u8]) -> usize {
    const E8: u64 = 100_000_000;
    if n < E8 {
        let (text, len) = short_digits(n as u32);
        dst[..8].copy_from_slice(&text.to_le_bytes());
        return len;
    }
    // A leading group of up to eight digits, then whole groups of eight.
    let (lead, groups) = if n < E8 * E8 { (n / E8, 1) } else { (n / (E8 * E8), 2) };
    let (text, mut len) = short_digits(lead as u32);
    dst[..8].copy_from_slice(&text.to_le_bytes());
    if groups == 2 {
        let group = eight_digits((n / E8 % E8) as u32) + ASCII_ZEROS;
        dst[len..len + 8].copy_from_slice(&group.to_le_bytes());
        len += 8;
    }
    let last = eight_digits((n % E8) as u32) + ASCII_ZEROS;
    dst[len..len + 8].copy_from_slice(&last.to_le_bytes());
    len + 8
}

// ----------------------------------------------------------------------
// Shortest round-trip decimal digits (Schubfach).
//
// R. Giulietti, "The Schubfach way to render doubles" (2020): with
// v = c·2^q, the candidates are the multiples of 10^k and 10^(k+1)
// nearest v, for the k where 10^k ≤ 2^q < 10^(k+1) (so the rounding
// interval R_v, one ulp wide, holds at most one multiple of 10^(k+1)
// and at least one of 10^k). The interval ends and v are scaled by
// 10^-k with a 126-bit approximation g of it and rounded to odd, which
// keeps every comparison against a candidate exact. Two choices here
// differ from the paper's Java `Double.toString`, to give Display's
// digits: one digit is enough (Java keeps at least two), and when v
// lies exactly halfway between the two nearest candidates the larger
// wins (Rust's Dragon4 rounds half up; Java rounds half to even).
// Display's decoder also treats the smallest normal's lower spacing as
// irregular, like every other power of two.
// ----------------------------------------------------------------------

/// Decimal exponents `k` whose `10^-k` the table holds: `k` for the
/// smallest subnormal's `2^-1074` and for `f64::MAX`'s `2^971`.
const K_MIN: i32 = -324;
const K_MAX: i32 = 292;

/// `G[k - K_MIN] = ⌊β⌋ + 1`, where `10^-k = β·2^r` and
/// `2^125 ≤ β < 2^126`: a 126-bit approximation of `10^-k` from above.
static G: [u128; (K_MAX - K_MIN + 1) as usize] = pow10_table();

/// 64-bit limbs of the big integers the table is built from (powers of
/// ten up to `10^324` and `2^1096 / 10^k`), least significant first.
const LIMBS: usize = 18;

const fn big_mul_small(mut a: [u64; LIMBS], m: u64) -> [u64; LIMBS] {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let p = a[i] as u128 * m as u128 + carry;
        a[i] = p as u64;
        carry = p >> 64;
        i += 1;
    }
    a
}

const fn big_div_small(mut a: [u64; LIMBS], d: u64) -> [u64; LIMBS] {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | a[i] as u128;
        a[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    a
}

const fn big_bit_len(a: &[u64; LIMBS]) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if a[i] != 0 {
            return i as u32 * 64 + (64 - a[i].leading_zeros());
        }
    }
    0
}

/// Bits `shift .. shift + 128` of `a`.
const fn big_bits_from(a: &[u64; LIMBS], shift: u32) -> u128 {
    let limb = (shift / 64) as usize;
    let off = shift % 64;
    let mut out = 0u128;
    let mut i = 0;
    // Three limbs cover 128 bits at any offset.
    while i < 3 && limb + i < LIMBS {
        let word = a[limb + i] as u128;
        let at = 64 * i as u32;
        if at >= off {
            if at - off < 128 {
                out |= word << (at - off);
            }
        } else {
            out |= word >> (off - at);
        }
        i += 1;
    }
    out
}

const fn pow10_table() -> [u128; (K_MAX - K_MIN + 1) as usize] {
    let mut table = [0u128; (K_MAX - K_MIN + 1) as usize];
    // pow = 10^n; inv = ⌊2^M / 10^n⌋ with M = 125 + bit_len(10^K_MAX).
    const M: u32 = 1096;
    let mut pow = [0u64; LIMBS];
    pow[0] = 1;
    let mut inv = [0u64; LIMBS];
    inv[(M / 64) as usize] = 1 << (M % 64);
    let mut n = 0;
    while n <= -K_MIN {
        let len = big_bit_len(&pow);
        // k = -n: 10^n = β·2^r with r = len - 126.
        table[(-n - K_MIN) as usize] = if len <= 126 {
            (big_bits_from(&pow, 0) << (126 - len)) + 1
        } else {
            big_bits_from(&pow, len - 126) + 1
        };
        // k = n > 0: 10^-n = β·2^r with β = 2^(125 + len) / 10^n.
        if n > 0 && n <= K_MAX {
            table[(n - K_MIN) as usize] = big_bits_from(&inv, M - 125 - len) + 1;
        }
        pow = big_mul_small(pow, 10);
        inv = big_div_small(inv, 10);
        n += 1;
    }
    table
}

/// `⌊q·log10(2)⌋` for `|q| ≤ 2^12`.
fn flog10_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083) >> 41) as i32
}

/// `⌊log10(3/4 · 2^q)⌋` for `|q| ≤ 2^12`.
fn flog10_three_quarters_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `⌊e·log2(10)⌋` for `|e| ≤ 2^10`.
fn flog2_pow10(e: i32) -> i32 {
    ((e as i64 * 913_124_641_741) >> 38) as i32
}

/// `g·cp / 2^127` rounded to odd: the floor, with its lowest bit set
/// when the quotient is not an integer.
fn round_to_odd(g: u128, cp: u64) -> u64 {
    const MASK_63: u64 = (1 << 63) - 1;
    let (g1, g0) = ((g >> 63) as u64, g as u64 & MASK_63);
    let x1 = ((g0 as u128 * cp as u128) >> 64) as u64;
    let y = g1 as u128 * cp as u128;
    let z = ((y as u64) >> 1) + x1;
    let floor = (y >> 64) as u64 + (z >> 63);
    floor | ((z & MASK_63) + MASK_63) >> 63
}

/// The shortest digits of a finite nonzero `f64` (given by its bits;
/// the sign is ignored): `(d, e)` with `d·10^e` the decimal with the
/// fewest significant digits inside the value's rounding interval,
/// the nearest such on a choice, the larger on a tie. `d` may carry
/// trailing zeros.
fn shortest_decimal(bits: u64) -> (u64, i32) {
    const FRACTION_BITS: u32 = 52;
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    let biased = ((bits >> FRACTION_BITS) & 0x7FF) as i32;
    let (c, q) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << FRACTION_BITS, biased - 1075)
    };
    // An odd significand rounds away from the interval's ends, so they
    // are excluded; an even one rounds to them, so they are included.
    let out = c & 1;
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if c == 1 << FRACTION_BITS {
        // A power of two: the value below is half an ulp closer.
        (cb - 1, flog10_three_quarters_pow2(q))
    } else {
        (cb - 2, flog10_pow2(q))
    };
    let h = q + flog2_pow10(-k) + 2;
    let g = G[(k - K_MIN) as usize];
    // 4·v, 4·low and 4·high, scaled by 10^-k and rounded to odd.
    let vb = round_to_odd(g, cb << h);
    let vbl = round_to_odd(g, cbl << h);
    let vbr = round_to_odd(g, cbr << h);
    let s = vb >> 2;
    if s >= 10 {
        // The multiples of 10^(k+1) below and above v: at most one is
        // in the interval, and if one is, it is the shortest.
        let sp = s / 10;
        let upin = vbl + out <= (10 * sp) << 2;
        let wpin = ((10 * (sp + 1)) << 2) + out <= vbr;
        if upin != wpin {
            return (sp + u64::from(wpin), k + 1);
        }
    }
    // The multiples of 10^k below and above v: at least one is in.
    let t = s + 1;
    let uin = vbl + out <= s << 2;
    let win = (t << 2) + out <= vbr;
    if uin != win {
        return (if uin { s } else { t }, k);
    }
    // Both are: the nearer, and on a tie the larger.
    (if vb < (s + t) << 1 { s } else { t }, k)
}

/// Append `s` as a JSON string literal: quoted, with `"`, `\\` and
/// control characters escaped.
pub fn write_escaped(s: &str, out: &mut String) {
    // Bytes below 0x20 are exactly the control characters: UTF-8
    // continuation bytes are all 0x80 or above.
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push('"');
        out.push_str(s);
        out.push('"');
    } else {
        TextBatch::<NUMBER_ROOM>::new(out).escaped(s);
    }
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
            assert_display_text(x);
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
            assert_display_text(int);
            assert_display_text(int * 2f64.powi(scale - 32));
            assert_display_text(int + rng.gen_range(-1.0..1.0));
            let any = f64::from_bits(rng.next_u64());
            if any.is_finite() {
                assert_display_text(any);
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

    /// `write_number` against `{x}` — Display, the oracle — for one
    /// value and its negation.
    fn assert_display_text(x: f64) {
        for x in [x, -x] {
            let mut out = String::new();
            write_number(x, &mut out);
            let want = if x.is_finite() { format!("{x}") } else { "null".to_string() };
            assert_eq!(out, want, "bits {:#018x}", x.to_bits());
        }
    }

    #[test]
    fn number_writer_matches_display_on_every_class() {
        let mut rng = crate::rng::Rng64::from_seed(0x5C4B_FAC4);
        // Arbitrary bit patterns: every exponent, normal and subnormal,
        // both signs (non-finite ones write `null`).
        for _ in 0..2_000_000 {
            assert_display_text(f64::from_bits(rng.next_u64()));
        }
        // Subnormals, at every significand width.
        for _ in 0..200_000 {
            let bits = rng.next_u64() & ((1 << 52) - 1);
            assert_display_text(f64::from_bits(bits >> (rng.next_u64() % 52)));
        }
        for fraction in (1..=10_000u64).chain((1 << 52) - 10_000..1 << 52) {
            assert_display_text(f64::from_bits(fraction));
        }
        // f32-widened values (the fast kernel's scores): short binary
        // significands, where the shortest f64 digits are long.
        for _ in 0..500_000 {
            let narrow = f32::from_bits(rng.next_u64() as u32);
            assert_display_text(f64::from(narrow));
            assert_display_text(f64::from(narrow) * 2f64.powi((rng.next_u64() % 64) as i32 - 32));
        }
        // Binary fractions and integers above 2^53 with few significant
        // bits: the values whose decimal expansion ends within reach,
        // where the two nearest candidates can tie and a candidate can
        // land on an interval end.
        for _ in 0..500_000 {
            let significand = (rng.next_u64() >> (11 + rng.next_u64() % 50)) | 1;
            let scale = (rng.next_u64() % 200) as i32 - 100;
            assert_display_text(significand as f64 * 2f64.powi(scale));
        }
        // Powers of two and of ten, with their ±3-ulp neighbours.
        let powers_of_two = (-1074..=1023).map(|e: i64| {
            let bits = if e < -1022 { 1 << (e + 1074) } else { ((e + 1023) as u64) << 52 };
            f64::from_bits(bits)
        });
        let powers_of_ten = (-323..=308).filter_map(|e: i32| format!("1e{e}").parse().ok());
        for p in powers_of_two.chain(powers_of_ten) {
            for d in 0..=3u64 {
                assert_display_text(f64::from_bits(p.to_bits() + d));
                assert_display_text(f64::from_bits(p.to_bits().saturating_sub(d)));
            }
        }
        // Around 2^53, where the exact-integer path ends.
        let two53 = EXACT_INT_LIMIT.to_bits();
        for d in 0..=1_000u64 {
            assert_display_text(f64::from_bits(two53 + d));
            assert_display_text(f64::from_bits(two53 - d));
            assert_display_text(EXACT_INT_LIMIT - d as f64 - 0.5);
        }
        for x in [
            0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            f64::from_bits((1 << 52) - 1), // the largest subnormal
            0.1,
            1.0 / 3.0,
            2f64.powi(50) + 0.25, // a tie between …624.2 and …624.3
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_display_text(x);
        }
    }

    #[test]
    fn exponent_estimates_are_exact_over_their_range() {
        // The nearest integer to any product below is at least 1e-6
        // away (checked), far beyond the f64 products' error.
        let floor = |x: f64| {
            assert!((x - x.round()).abs() > 1e-6, "{x} too close to call");
            x.floor() as i32
        };
        for q in -1100..=1100 {
            let q2 = q as f64;
            if q != 0 {
                assert_eq!(flog10_pow2(q), floor(q2 * std::f64::consts::LOG10_2), "q {q}");
                assert_eq!(flog2_pow10(q), floor(q2 * std::f64::consts::LOG2_10), "e {q}");
            }
            let three_quarters = q2 * std::f64::consts::LOG10_2 + 0.75f64.log10();
            assert_eq!(flog10_three_quarters_pow2(q), floor(three_quarters), "q {q}");
        }
        assert_eq!((flog10_pow2(0), flog2_pow10(0)), (0, 0));
        // Each table entry is a 126-bit value just above its power.
        assert_eq!(G[(0 - K_MIN) as usize], (1 << 125) + 1);
        assert_eq!(G[(-1 - K_MIN) as usize], (5 << 123) + 1);
        // 10^-1 = 2^129 / 10 × 2^-129, and ⌊2^128 / 5⌋ = ⌊(2^128 - 1) / 5⌋.
        assert_eq!(G[(1 - K_MIN) as usize], u128::MAX / 5 + 1);
        assert!(G.iter().all(|&g| (1 << 125) < g && g < 1 << 126));
    }

    #[test]
    fn array_writers_match_the_item_writers() {
        // Every width, then a long run that crosses many batches.
        let mut items = vec![0u32, 9, 10, 99, 100, u32::MAX];
        let mut p = 1u32;
        while let Some(next) = p.checked_mul(10) {
            items.extend([p - 1, p, p + 1]);
            p = next;
        }
        let mut rng = crate::rng::Rng64::from_seed(0xA77A_7E57);
        items.extend((0..5_000).map(|_| (rng.next_u64() as u32) >> (rng.next_u64() % 32)));
        for len in [0, 1, 2, items.len()] {
            let mut out = String::from("x");
            write_u32_array(&items[..len], &mut out);
            let want: Vec<String> = items[..len].iter().map(|n| format!("{n}")).collect();
            assert_eq!(out, format!("x[{}]", want.join(",")), "{len} items");
        }
        // Pairs, with numbers of every length up to the longest.
        let mut pairs = vec![(0u32, -5e-324), (u32::MAX, f64::MAX), (7, -0.0), (8, f64::NAN)];
        pairs.extend((0..5_000).map(|i| (i as u32 * 977, f64::from_bits(rng.next_u64()))));
        for len in [0, 1, 3, pairs.len()] {
            let mut out = String::from("x");
            write_u32_f64_pairs(pairs[..len].iter().copied(), &mut out);
            let want: Vec<String> = pairs[..len]
                .iter()
                .map(|&(n, x)| {
                    let mut item = format!("[{n},");
                    write_number(x, &mut item);
                    item + "]"
                })
                .collect();
            assert_eq!(out, format!("x[{}]", want.join(",")), "{len} pairs");
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

    /// The tree writer carries one batch through a whole document; its
    /// text must be the item writers' text joined by punctuation, also
    /// where numbers, escapes and multi-byte characters straddle a
    /// batch boundary.
    #[test]
    fn tree_writer_matches_the_item_writers_across_batches() {
        let texts = ["k", "tab\there", "λ/2 ≈ 16 cm", "\u{1F600}\"q\"", "ctl \u{1f}"];
        let mut items = Vec::new();
        let mut want = String::from("[");
        for i in 0..3000u32 {
            if i > 0 {
                want.push(',');
            }
            let x = f64::from(i) * [1.0, 0.1, -1e-7, 3.5e15][i as usize % 4];
            let s = texts[i as usize % texts.len()];
            if i % 3 == 0 {
                let flag = if i % 2 == 0 { "true" } else { "false" };
                items.push(Json::obj([(s, Json::Num(x)), ("z", Json::Bool(i % 2 == 0))]));
                // Keys go out in byte order.
                let mut field = String::new();
                write_escaped(s, &mut field);
                field.push(':');
                write_number(x, &mut field);
                let z = format!(r#""z":{flag}"#);
                let (a, b) = if s < "z" { (field, z) } else { (z, field) };
                want.push_str(&format!("{{{a},{b}}}"));
            } else if i % 3 == 1 {
                items.push(Json::Num(x));
                write_number(x, &mut want);
            } else {
                items.push(Json::str(s));
                write_escaped(s, &mut want);
            }
        }
        want.push(']');
        let doc = Json::Arr(items);
        assert!(want.len() > 4 * ARRAY_BATCH, "the document spans several batches");
        assert_eq!(doc.to_json_string(), want);
        assert_eq!(Json::parse(&want).unwrap(), doc);
    }

    #[test]
    fn counts_must_be_whole_numbers() {
        let text = r#"{"n":7,"neg":-1,"half":0.5,"big":1e300,"max":18446744073709551616}"#;
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.req_usize("n").unwrap(), 7);
        assert_eq!(doc.req_usize("max").unwrap(), usize::MAX, "2^64 is the usize::MAX sentinel");
        for key in ["neg", "half", "big", "missing"] {
            assert!(doc.req_usize(key).is_err(), "{key}");
        }
        assert!(whole_number(f64::NAN, 10.0, "nan").is_err());
        assert!(whole_number(f64::INFINITY, f64::INFINITY, "inf").is_err());
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
