//! The workspace's one flat-JSONL codec: [`Record`] writes a line,
//! [`parse_line`] reads one into [`Fields`], [`frame_line`] /
//! [`check_line`] add and verify the per-line CRC32 suffix, and
//! [`Fnv1a`] is the one fingerprint hash. The grammar (value kinds,
//! list / pair / `-` tokens, frame suffix, legacy acceptance) and the
//! reason the codec lives in this crate are in DESIGN.md, "Flat JSONL".
//! `vtq::jsonl` re-exports this module and is the canonical import path
//! above `gpusim`.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

// ---------------------------------------------------------------------------
// Writing: escaping and the `Record` line builder
// ---------------------------------------------------------------------------

/// Appends `s` to `out` escaped for a JSON string literal (backslash,
/// quote and control characters; quotes not included).
fn escape_into(out: &mut String, s: &str) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// A `fmt::Write` adapter that escapes everything written through it, so
/// any `Display` value can be rendered straight into a string literal.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Quotes `s` as a JSON string, escaping backslash, quote and control
/// characters (panic payloads and client input can contain anything).
pub fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// An `a:b` token of a list value; nests (`Pair(a, Pair(b, c))` is
/// `a:b:c`) and parses back with [`FromStr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: Display, B: Display> Display for Pair<A, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.0, self.1)
    }
}

impl<A: FromStr, B: FromStr> FromStr for Pair<A, B> {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, ()> {
        let (a, b) = s.split_once(':').ok_or(())?;
        Ok(Pair(a.parse().map_err(drop)?, b.parse().map_err(drop)?))
    }
}

impl<A, B> From<(A, B)> for Pair<A, B> {
    fn from((a, b): (A, B)) -> Self {
        Pair(a, b)
    }
}

impl<A, B> From<Pair<A, B>> for (A, B) {
    fn from(Pair(a, b): Pair<A, B>) -> Self {
        (a, b)
    }
}

/// An optional token: `-` for `None`, the value otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opt<T>(pub Option<T>);

impl<T: Display> Display for Opt<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("-"),
        }
    }
}

impl<T: FromStr> FromStr for Opt<T> {
    type Err = T::Err;
    fn from_str(s: &str) -> Result<Self, T::Err> {
        match s {
            "-" => Ok(Opt(None)),
            s => s.parse().map(|v| Opt(Some(v))),
        }
    }
}

/// Builder for one flat JSON line. Fields appear in call order; string
/// values are escaped, so a line always parses back with [`parse_line`].
///
/// ```
/// use gpusim::jsonl::{parse_line, Record};
///
/// let line =
///     Record::new("cell").str("key", "REF/vtq").num("cycles", 7).list("sms", [0, 1]).finish();
/// assert_eq!(line, r#"{"record":"cell","key":"REF/vtq","cycles":7,"sms":"0 1"}"#);
/// let f = parse_line(&line).unwrap();
/// assert_eq!(f.u64("cycles"), Ok(7));
/// assert_eq!(f.list::<usize>("sms"), Ok(vec![0, 1]));
/// ```
#[derive(Debug, Clone)]
pub struct Record(String);

impl Record {
    /// Starts a line whose first field is `"record":"<kind>"`.
    pub fn new(kind: &str) -> Record {
        Record::tagged("record", kind)
    }

    /// Starts a line whose first field is the string `"<tag>":"<value>"`
    /// (the wire protocol discriminates on `req` / `resp` / `event`).
    pub fn tagged(tag: &str, value: &str) -> Record {
        Record(String::from("{")).str(tag, value)
    }

    fn key(&mut self, key: impl Display) {
        if self.0.len() > 1 {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{key}\":");
    }

    /// A bare (unquoted) value: an integer.
    pub fn num(mut self, key: impl Display, value: impl Display) -> Record {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    /// A bare `true` / `false`.
    pub fn bool(self, key: impl Display, value: bool) -> Record {
        self.num(key, value)
    }

    /// A bare `null`.
    pub fn null(self, key: impl Display) -> Record {
        self.num(key, "null")
    }

    /// A float in Rust's shortest round-trip form; NaN and infinities
    /// (which JSON cannot represent) render as `null`.
    pub fn f64(self, key: impl Display, value: f64) -> Record {
        self.opt_f64(key, Some(value))
    }

    /// An optional rate: `None` (undefined for the run) is `null`, never
    /// a fake zero.
    pub fn opt_f64(self, key: impl Display, value: Option<f64>) -> Record {
        match value.filter(|v| v.is_finite()) {
            Some(v) => self.num(key, v),
            None => self.null(key),
        }
    }

    /// A quoted, escaped string value.
    pub fn str(mut self, key: impl Display, value: impl Display) -> Record {
        self.key(key);
        self.0.push('"');
        let _ = write!(Escaped(&mut self.0), "{value}");
        self.0.push('"');
        self
    }

    /// A string of space-separated tokens.
    pub fn list<T: Display>(
        mut self,
        key: impl Display,
        items: impl IntoIterator<Item = T>,
    ) -> Record {
        self.key(key);
        self.0.push('"');
        let start = self.0.len();
        for item in items {
            if self.0.len() > start {
                self.0.push(' ');
            }
            let _ = write!(Escaped(&mut self.0), "{item}");
        }
        self.0.push('"');
        self
    }

    /// A string of space-separated `a:b` tokens.
    pub fn pairs<A: Display, B: Display>(
        self,
        key: impl Display,
        items: impl IntoIterator<Item = (A, B)>,
    ) -> Record {
        self.list(key, items.into_iter().map(|(a, b)| Pair(a, b)))
    }

    /// An optional token: `"-"` for `None`.
    pub fn opt<T: Display>(self, key: impl Display, value: Option<T>) -> Record {
        self.str(key, Opt(value))
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }

    /// [`finish`](Self::finish) plus the checksum suffix of
    /// [`frame_line`].
    pub fn framed(self) -> String {
        let mut line = self.finish();
        frame_in_place(&mut line);
        line
    }
}

// ---------------------------------------------------------------------------
// Reading: one pass over the line, borrowed slices, typed getters
// ---------------------------------------------------------------------------

/// The fields of one parsed line, borrowing from it. Getters return an
/// error naming the missing or malformed field; they search from the
/// last hit, so reading fields in written order is one comparison each.
#[derive(Debug)]
pub struct Fields<'a> {
    /// `(key, value)`; a string value keeps its quotes and escapes.
    pairs: Vec<(&'a str, &'a str)>,
    cursor: Cell<usize>,
}

/// Index just past the string literal opening at `bytes[start]` (a `"`),
/// honouring backslash escapes; `None` if it never closes.
fn string_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some(i + 1),
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    None
}

/// Parses one flat JSON object — string, number, `true` / `false` /
/// `null` values, no nesting — in a single escape-aware pass.
///
/// # Errors
///
/// A description of what is malformed (not an object, a key or value
/// that does not close, a missing `:` or `,`).
pub fn parse_line(line: &str) -> Result<Fields<'_>, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    let bytes = body.as_bytes();
    let skip_ws = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        i
    };
    let malformed = |at: usize| format!("malformed pair: {}", &body[at.min(body.len())..]);
    let mut pairs = Vec::with_capacity(16);
    let mut i = skip_ws(0);
    while i < bytes.len() {
        let pair_at = i;
        if bytes[i] != b'"' {
            return Err(malformed(pair_at));
        }
        let key_end = string_end(bytes, i).ok_or_else(|| malformed(pair_at))?;
        let key = &body[i + 1..key_end - 1];
        i = skip_ws(key_end);
        if bytes.get(i) != Some(&b':') {
            return Err(malformed(pair_at));
        }
        i = skip_ws(i + 1);
        let value_end = if bytes.get(i) == Some(&b'"') {
            string_end(bytes, i).ok_or_else(|| malformed(pair_at))?
        } else {
            i + bytes[i..].iter().position(|&b| b == b',').unwrap_or(bytes.len() - i)
        };
        let value = body[i..value_end].trim_end();
        if value.is_empty() {
            return Err(malformed(pair_at));
        }
        pairs.push((key, value));
        i = skip_ws(value_end);
        match bytes.get(i) {
            None => break,
            Some(b',') => i = skip_ws(i + 1),
            Some(_) => return Err(malformed(pair_at)),
        }
        if i == bytes.len() {
            return Err(malformed(pair_at)); // trailing comma
        }
    }
    Ok(Fields { pairs, cursor: Cell::new(0) })
}

/// Reverses [`escape_into`]; `None` on a malformed escape.
fn unescape(raw: &str) -> Option<Cow<'_, str>> {
    if !raw.contains('\\') {
        return Some(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex = chars.as_str().get(..4)?;
                out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                chars = chars.as_str()[4..].chars();
            }
            other => out.push(other),
        }
    }
    Some(Cow::Owned(out))
}

fn missing(key: &str) -> String {
    format!("missing field `{key}`")
}

impl<'a> Fields<'a> {
    /// The value as written (a string keeps its quotes).
    fn find(&self, key: &str) -> Option<&'a str> {
        let n = self.pairs.len();
        let from = self.cursor.get();
        let i = (0..n).map(|k| (from + k) % n).find(|&i| self.pairs[i].0 == key)?;
        self.cursor.set(i + 1);
        Some(self.pairs[i].1)
    }

    /// The raw text of `key`'s value — quotes stripped, escapes left as
    /// written — or `None` when the field is absent.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        self.find(key).map(|v| v.strip_prefix('"').map_or(v, |s| &s[..s.len() - 1]))
    }

    fn need(&self, key: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| missing(key))
    }

    /// The line's `record` discriminant, if it has one.
    pub fn record(&self) -> Option<&'a str> {
        self.get("record")
    }

    /// A string value, unescaped (borrowed when it had no escapes).
    pub fn str(&self, key: &str) -> Result<Cow<'a, str>, String> {
        let value = self.find(key).ok_or_else(|| missing(key))?;
        value
            .strip_prefix('"')
            .and_then(|s| unescape(&s[..s.len() - 1]))
            .ok_or_else(|| format!("field `{key}` is not a string: {value}"))
    }

    fn parsed<T: FromStr>(&self, key: &str, what: &str) -> Result<T, String> {
        let value = self.need(key)?;
        value.parse().map_err(|_| format!("field `{key}` is not {what}: {value}"))
    }

    /// An integer of any width (`u8` … `usize`, signed or not); out of
    /// range for `T` is an error, never a silent truncation.
    pub fn num<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.parsed(key, "an integer")
    }

    /// [`num`](Self::num) at `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.num(key)
    }

    /// [`num`](Self::num) at `i64`.
    pub fn i64(&self, key: &str) -> Result<i64, String> {
        self.num(key)
    }

    /// A float; `null` is an error (use [`get`](Self::get) to test for it).
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.parsed(key, "a number")
    }

    /// A hex fingerprint, with or without a `0x` prefix.
    pub fn hex64(&self, key: &str) -> Result<u64, String> {
        let value = self.need(key)?;
        u64::from_str_radix(value.trim_start_matches("0x"), 16)
            .map_err(|_| format!("field `{key}` is not a hex fingerprint: {value}"))
    }

    /// `true` / `false`, or the `1` / `0` the older records write.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.need(key)? {
            "true" | "1" => Ok(true),
            "false" | "0" => Ok(false),
            value => Err(format!("field `{key}` is not a boolean: {value}")),
        }
    }

    /// A space-separated token list (see [`Record::list`]); `T` can be an
    /// integer, a [`Pair`] or an [`Opt`].
    pub fn list<T: FromStr>(&self, key: &str) -> Result<Vec<T>, String> {
        let value = self.need(key)?;
        value
            .split_ascii_whitespace()
            .map(|tok| {
                tok.parse().map_err(|_| format!("field `{key}` has a malformed token: {tok}"))
            })
            .collect()
    }

    /// A token list of exactly `N` values (a vector's components, the
    /// per-mode counters).
    pub fn array<T: FromStr, const N: usize>(&self, key: &str) -> Result<[T; N], String> {
        let values: Vec<T> = self.list(key)?;
        values.try_into().map_err(|_| format!("field `{key}` must hold {N} values"))
    }

    /// A list of `a:b` tokens (see [`Record::pairs`]).
    pub fn pairs<A: FromStr, B: FromStr>(&self, key: &str) -> Result<Vec<(A, B)>, String> {
        Ok(self.list::<Pair<A, B>>(key)?.into_iter().map(|Pair(a, b)| (a, b)).collect())
    }

    /// An optional token: `-` is `None` (see [`Record::opt`]).
    pub fn opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.parsed::<Opt<T>>(key, "an integer or `-`").map(|o| o.0)
    }
}

// ---------------------------------------------------------------------------
// Fingerprint hash
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a: the one hash behind config fingerprints, cell keys,
/// submission fingerprints and checkpoint config tags, which the cache,
/// the daemon and the checkpoint header must agree on.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Checksum framing
// ---------------------------------------------------------------------------

/// The reflected IEEE CRC32 polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slice-by-8 tables, generated at compile time: `CRC_TABLES[0][b]` is
/// the register after shifting byte `b` through all eight bits, and
/// `CRC_TABLES[k][b]` continues that through `k` more zero bytes, so
/// eight lookups advance the register by eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the IEEE CRC32 (reflected, polynomial `0xEDB88320`) of
/// `bytes`, eight bytes per step through 8 KiB of tables (slice-by-8,
/// ~0.8 ns per byte against ~7 a bit at a time): every result-cache load
/// and journal resume checks each line it reads.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xffff_ffff, bytes) ^ 0xffff_ffff
}

/// Streaming form of [`crc32`]: feeds `bytes` into a running register
/// (seed with `0xffff_ffff`, finish by XOR-ing with `0xffff_ffff`).
/// Lets [`check_line`] hash a reconstructed line without allocating it.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t7[(lo & 0xff) as usize]
            ^ t6[(lo >> 8 & 0xff) as usize]
            ^ t5[(lo >> 16 & 0xff) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[usize::from(w[4])]
            ^ t2[usize::from(w[5])]
            ^ t1[usize::from(w[6])]
            ^ t0[usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

/// The marker introducing the checksum suffix of a framed line.
const CRC_MARKER: &str = ",\"crc\":\"";
/// Byte length of the suffix [`frame_line`] appends: `,"crc":"` + 8 hex
/// digits + `"}`. Everything before it is payload.
pub const CRC_SUFFIX_LEN: usize = CRC_MARKER.len() + 8 + 2;

/// A persisted line whose checksum field is present but wrong or
/// malformed. Carries everything a forensic message needs; parsers
/// surface it as their own typed error, they never panic on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptFrame {
    /// The checksum text stored on the line (may be malformed).
    pub stored: String,
    /// The CRC32 actually computed over the line's payload bytes.
    pub computed: u32,
    /// A short prefix of the offending line, for forensics.
    pub excerpt: String,
}

impl std::fmt::Display for CorruptFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt frame: stored crc {:?} != computed {:08x} (line starts {:?})",
            self.stored, self.computed, self.excerpt
        )
    }
}

impl std::error::Error for CorruptFrame {}

/// Appends the checksum field to a flat JSON `line` (which must be a
/// complete `{...}` object): `{"k":"v"}` becomes
/// `{"k":"v","crc":"xxxxxxxx"}` where the CRC32 is computed over the
/// *original* line bytes. Lines that do not end in `}` (not flat JSON)
/// are returned unchanged so callers can frame unconditionally.
pub fn frame_line(line: &str) -> String {
    let mut framed = String::with_capacity(line.len() + CRC_SUFFIX_LEN);
    framed.push_str(line);
    frame_in_place(&mut framed);
    framed
}

fn frame_in_place(line: &mut String) {
    if !line.ends_with('}') {
        return;
    }
    let crc = crc32(line.as_bytes());
    line.pop();
    let _ = write!(line, "{CRC_MARKER}{crc:08x}\"}}");
}

/// Verifies a line written by [`frame_line`], returning the original
/// unframed line on success.
///
/// * Line carries a well-formed, matching checksum — `Ok` with the
///   suffix stripped.
/// * Checksum present but mismatched or malformed — `Err(CorruptFrame)`.
/// * No checksum field at all — `Ok` with the line as-is (legacy
///   artifact written before framing; its payload is parsed normally).
///
/// A bit flip *inside the checksum field name itself* demotes the line
/// to legacy-with-an-extra-field, which is accepted: the payload bytes
/// are intact in that case, so no wrong data is admitted.
pub fn check_line(line: &str) -> Result<String, CorruptFrame> {
    let Some(marker_at) = line.rfind(CRC_MARKER) else {
        return Ok(line.to_string()); // legacy unframed line
    };
    let stored = &line[marker_at + CRC_MARKER.len()..];
    // Reconstruct the original line without allocating: payload prefix
    // up to the marker, then the closing brace the framer stripped.
    let computed =
        crc32_update(crc32_update(0xffff_ffff, &line.as_bytes()[..marker_at]), b"}") ^ 0xffff_ffff;
    // `get` (not indexing): corruption can land a multibyte char across
    // the slice boundary, and forensics must never panic.
    let hex = stored
        .get(..8)
        .filter(|_| marker_at + CRC_SUFFIX_LEN == line.len() && line.ends_with("\"}"));
    match hex.and_then(|h| u32::from_str_radix(h, 16).ok()) {
        Some(want) if want == computed => Ok(format!("{}}}", &line[..marker_at])),
        _ => Err(CorruptFrame {
            stored: stored.to_string(),
            computed,
            excerpt: line.chars().take(48).collect(),
        }),
    }
}

/// True if `line` carries a checksum suffix (well-formed or not).
pub fn is_framed(line: &str) -> bool {
    line.contains(CRC_MARKER)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn frame_round_trips() {
        let line = "{\"record\":\"cell\",\"key\":\"bunny/base\",\"n\":7}";
        let framed = frame_line(line);
        assert!(is_framed(&framed), "{framed}");
        assert_eq!(check_line(&framed).unwrap(), line);
    }

    #[test]
    fn legacy_unframed_lines_are_accepted() {
        let line = "{\"record\":\"cell\",\"key\":\"x\"}";
        assert!(!is_framed(line));
        assert_eq!(check_line(line).unwrap(), line);
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_payload_safe() {
        let line = "{\"record\":\"cell\",\"key\":\"bunny/base\",\"cycles\":12345}";
        let framed = frame_line(line);
        for i in 0..framed.len() {
            for bit in 0..8u8 {
                let mut bytes = framed.clone().into_bytes();
                bytes[i] ^= 1 << bit;
                let Ok(mutated) = String::from_utf8(bytes) else {
                    continue; // read_to_string would already have failed
                };
                match check_line(&mutated) {
                    // Detected: the typed error, never a panic.
                    Err(_) => {}
                    // Accepted: only legal if the payload bytes are
                    // intact (the flip landed in the crc field itself,
                    // demoting the line to legacy-with-extra-field).
                    Ok(got) => assert!(
                        got.starts_with(&line[..line.len() - 1]),
                        "flip at byte {i} bit {bit} accepted altered payload: {got}"
                    ),
                }
            }
        }
    }

    #[test]
    fn truncated_frames_are_corrupt_not_legacy() {
        let framed = frame_line("{\"record\":\"cell\",\"key\":\"x\",\"v\":1}");
        // Any truncation that still contains the marker must be an error.
        for cut in 1..CRC_SUFFIX_LEN {
            let torn = &framed[..framed.len() - cut];
            if torn.contains(CRC_MARKER) {
                assert!(check_line(torn).is_err(), "torn at -{cut}: {torn}");
            }
        }
    }

    #[test]
    fn record_and_parse_line_round_trip_every_value_kind() {
        let nasty = "a \"b\"\\c\nd\te\u{1} and, colons: too {braces}";
        let line = Record::new("kinds")
            .str("s", nasty)
            .num("n", 42u8)
            .num("neg", -7i64)
            .f64("x", 0.1)
            .f64("nan", f64::NAN)
            .opt_f64("rate", None)
            .bool("flag", true)
            .null("nothing")
            .str("fp", format_args!("{:#018x}", 0xdead_beefu64))
            .list("xs", [3u32, 1, 2])
            .list("empty", [0u8; 0])
            .pairs("ps", [(1u64, 2usize), (3, 4)])
            .list("lanes", [Opt(Some(5u32)), Opt(None)])
            .list("lines", [Pair(9u64, Pair(8u64, 1u8))])
            .opt("some", Some(Pair(1u64, -2i64)))
            .opt("none", None::<u32>)
            .finish();
        let f = parse_line(&line).expect("a Record line always parses");
        assert_eq!(f.record(), Some("kinds"));
        assert_eq!(f.str("s").unwrap(), nasty);
        assert_eq!(f.num::<u8>("n"), Ok(42));
        assert_eq!(f.i64("neg"), Ok(-7));
        assert_eq!(f.f64("x"), Ok(0.1));
        assert_eq!(f.get("nan"), Some("null"));
        assert_eq!(f.get("rate"), Some("null"));
        assert!(f.f64("rate").is_err(), "null is not a number");
        assert_eq!(f.bool("flag"), Ok(true));
        assert_eq!(f.get("nothing"), Some("null"));
        assert_eq!(f.hex64("fp"), Ok(0xdead_beef));
        assert_eq!(f.list::<u32>("xs"), Ok(vec![3, 1, 2]));
        assert_eq!(f.list::<u32>("empty"), Ok(vec![]));
        assert_eq!(f.pairs::<u64, usize>("ps"), Ok(vec![(1, 2), (3, 4)]));
        assert_eq!(f.list::<Opt<u32>>("lanes"), Ok(vec![Opt(Some(5)), Opt(None)]));
        assert_eq!(f.list("lines"), Ok(vec![Pair(9u64, Pair(8u64, 1u8))]));
        assert_eq!(f.opt::<Pair<u64, i64>>("some"), Ok(Some(Pair(1, -2))));
        assert_eq!(f.opt::<u32>("none"), Ok(None));
        // Out-of-order and repeated reads work (the cursor is only a hint).
        assert_eq!(f.u64("n"), Ok(42));
        assert_eq!(f.str("s").unwrap(), nasty);
        // A framed line is still a flat line: the suffix is one more field.
        let framed = frame_line(&line);
        assert_eq!(parse_line(&framed).unwrap().str("s").unwrap(), nasty);
        assert_eq!(json_quote(nasty), format!("\"{}\"", f.get("s").unwrap()));
    }

    #[test]
    fn getters_name_the_missing_or_malformed_field() {
        let f = parse_line(r#"{"n":"x7","s":3,"xs":"1 two","big":300}"#).unwrap();
        assert_eq!(f.u64("gone").unwrap_err(), "missing field `gone`");
        assert!(f.u64("n").unwrap_err().contains("field `n` is not an integer: x7"));
        assert!(f.str("s").unwrap_err().contains("field `s` is not a string"));
        assert!(f.list::<u32>("xs").unwrap_err().contains("field `xs` has a malformed token: two"));
        assert!(f.num::<u8>("big").is_err(), "out of range is an error, not a truncation");
        assert!(f.bool("big").is_err());
        assert!(f.hex64("n").is_err());
    }

    #[test]
    fn malformed_and_torn_lines_are_errors_not_panics() {
        for torn in [
            "",
            "not json",
            "{\"k\":\"unterminat",
            "{\"k\":\"unterminat}",
            "{\"k\":\"trailing\\\"}",
            "{\"k\" \"v\"}",
            "{\"k\":}",
            "{\"k\":1,}",
            "{k:1}",
            "{\"a\":\"x\"\"b\":1}",
        ] {
            assert!(parse_line(torn).is_err(), "must not parse: {torn}");
        }
        // Lenient where the old per-format parsers were: whitespace
        // around tokens, and the empty object.
        let f = parse_line(" { \"a\" : 1 , \"b\" : \"x\" } ").unwrap();
        assert_eq!((f.u64("a"), f.get("b")), (Ok(1), Some("x")));
        assert!(parse_line("{}").unwrap().record().is_none());
        // A bad `\u` escape is a malformed field, not a panic.
        let f = parse_line(r#"{"k":"\u12"}"#).unwrap();
        assert!(f.str("k").is_err());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        use std::hash::Hasher as _;
        let hash = |bytes: &[u8]| {
            let mut h = Fnv1a::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
        // Streaming in pieces is the same hash.
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), hash(b"foobar"));
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    /// The definition the tables compute: one bit per step.
    fn crc32_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            }
        }
        crc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn table_crc_equals_the_bitwise_reference(
            short in prop::collection::vec(any::<u8>(), 0..=64),
            long in prop::collection::vec(any::<u8>(), 65..2048),
            seed in any::<u32>(),
        ) {
            for bytes in [&short, &long] {
                prop_assert_eq!(crc32_update(seed, bytes), crc32_bitwise(seed, bytes));
                prop_assert_eq!(crc32(bytes), crc32_bitwise(0xffff_ffff, bytes) ^ 0xffff_ffff);
            }
        }

        #[test]
        fn streaming_splits_equal_one_pass(
            bytes in prop::collection::vec(any::<u8>(), 0..300),
            cut in 0usize..300,
        ) {
            let (a, b) = bytes.split_at(cut.min(bytes.len()));
            prop_assert_eq!(
                crc32_update(crc32_update(0xffff_ffff, a), b),
                crc32_update(0xffff_ffff, &bytes)
            );
        }
    }
}
