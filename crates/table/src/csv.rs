//! Zero-copy, column-parallel CSV reader and buffered writer with RFC-4180
//! quoting and type inference.
//!
//! The CatDB prompt encodes the file format and delimiter of the input
//! dataset so the generated pipeline can read it (paper Section 4.1); this
//! module provides the corresponding substrate: parse a delimited file into
//! a typed [`Table`] and write a table back out.
//!
//! # Ingestion pipeline
//!
//! The reader makes one pass over a single in-memory byte buffer:
//!
//! 1. **Fused record/field scan** — a single quote-aware byte walk emits
//!    every record's [`FieldRef`] slices (borrowing the buffer, no
//!    intermediate row-of-`String`s) into one row-major allocation. It
//!    marks record boundaries (`\n` outside quotes), strips `\r` of CRLF
//!    line endings, skips fully blank records, enforces rectangularity,
//!    and tracks the physical start line of every record so errors point
//!    at the right place even when quoted fields span lines (RFC-4180
//!    embedded newlines).
//! 2. **Column tasks** — the columns fan out over the shared runtime
//!    ([`catdb_runtime::parallel_map`]), one task per column. Each task
//!    infers its column's type from the first
//!    [`CsvOptions::inference_rows`] records (the narrowest type that fits
//!    every non-null cell: bool ⊂ int ⊂ float ⊂ string), then builds the
//!    typed column straight from the borrowed slices. A float column keeps
//!    the sample's parses as its first rows, so each cell is parsed once.
//!    A column depends only on the input, so the table is identical for
//!    every [`CsvOptions::n_threads`] and `CATDB_THREADS` value.
//! 3. **Degradation re-render** — a cell that contradicts the inferred
//!    type (and is not a null marker) degrades its column to string; the
//!    column builder re-renders the retained field slices in place of
//!    re-reading or re-splitting the file.
//!
//! Null markers are matched byte-for-byte against the trimmed cell, with
//! no per-cell `trim().to_string()` / lowercase allocations. **Quoted
//! fields are never null**: quoting protects content, so a written
//! `"NA"` or `""` round-trips as the literal string while the unquoted
//! forms stay missing values. The writer mirrors this by quoting cells
//! that would otherwise read back as null (null-marker lookalikes,
//! empty/whitespace-only strings) in addition to cells containing the
//! delimiter, quotes, `\n`, or `\r`.
//!
//! Ingestion runs under a `csv_ingest` trace span and reports
//! `csv.rows` / `csv.bytes` / `csv.degraded_columns` counters.

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::io::{Read, Write};
use std::path::Path;

/// Trace span covering one CSV parse (see [`catdb_trace::span`]).
pub const SPAN_CSV_INGEST: &str = "csv_ingest";
/// Counter: data records materialized by the reader.
pub const COUNTER_CSV_ROWS: &str = "csv.rows";
/// Counter: input bytes scanned by the reader.
pub const COUNTER_CSV_BYTES: &str = "csv.bytes";
/// Counter: columns degraded to string by late type contradictions.
pub const COUNTER_CSV_DEGRADED: &str = "csv.degraded_columns";

/// Cell contents treated as missing by default. The writer quotes string
/// cells matching these so a write → read round trip with default options
/// preserves cells that merely *look* null.
pub const DEFAULT_NULL_MARKERS: [&str; 5] = ["NA", "N/A", "null", "NULL", "?"];

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    pub delimiter: u8,
    pub has_header: bool,
    /// Strings treated as missing values in addition to the empty cell.
    /// Only unquoted cells are matched; quoting makes content literal.
    pub null_markers: Vec<String>,
    /// Rows to scan for type inference (the full file is always parsed with
    /// the inferred types; mismatching cells degrade the column to string).
    pub inference_rows: usize,
    /// Upper bound on threads used to materialize columns. The parsed
    /// table is identical for every value; `<= 1` parses sequentially.
    pub n_threads: usize,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            has_header: true,
            null_markers: DEFAULT_NULL_MARKERS.iter().map(|m| m.to_string()).collect(),
            inference_rows: 1000,
            n_threads: catdb_runtime::pool_size(),
        }
    }
}

pub(crate) fn csv_err(line: usize, message: impl Into<String>) -> TableError {
    TableError::Csv { line, message: message.into() }
}

// ---------------------------------------------------------------------------
// SWAR byte search: the scanners below spend most of their time skipping
// uninteresting bytes, so we test eight at a time with the classic
// zero-byte trick instead of branching per byte.
// ---------------------------------------------------------------------------

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// Whether any byte of `word` equals the byte broadcast in `needle`.
#[inline]
fn swar_contains(word: u64, needle: u64) -> bool {
    let x = word ^ needle;
    (x.wrapping_sub(SWAR_LO) & !x & SWAR_HI) != 0
}

/// Fast trim: if both edge bytes are printable ASCII the token is already
/// trimmed; otherwise defer to `str::trim` (which also handles Unicode
/// whitespace, keeping semantics identical).
#[inline]
fn trim_token(s: &str) -> &str {
    let b = s.as_bytes();
    match (b.first(), b.last()) {
        (Some(&f), Some(&l)) if f > b' ' && f < 0x80 && l > b' ' && l < 0x80 => s,
        (None, _) => s,
        _ => s.trim(),
    }
}

/// Position of the first occurrence of `a` or `b` in `bytes[i..]`, or
/// `bytes.len()` if neither occurs.
#[inline]
fn find_first2(bytes: &[u8], mut i: usize, a: u8, b: u8) -> usize {
    let na = u64::from_ne_bytes([a; 8]);
    let nb = u64::from_ne_bytes([b; 8]);
    while i + 8 <= bytes.len() {
        let w = u64::from_ne_bytes(bytes[i..i + 8].try_into().expect("8-byte window"));
        if swar_contains(w, na) || swar_contains(w, nb) {
            break;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] != a && bytes[i] != b {
        i += 1;
    }
    i
}

/// Position of the first occurrence of `a`, `b`, or `c` in `bytes[i..]`,
/// or `bytes.len()` if none occurs.
#[inline]
fn find_first3(bytes: &[u8], mut i: usize, a: u8, b: u8, c: u8) -> usize {
    let na = u64::from_ne_bytes([a; 8]);
    let nb = u64::from_ne_bytes([b; 8]);
    let nc = u64::from_ne_bytes([c; 8]);
    while i + 8 <= bytes.len() {
        let w = u64::from_ne_bytes(bytes[i..i + 8].try_into().expect("8-byte window"));
        if swar_contains(w, na) || swar_contains(w, nb) || swar_contains(w, nc) {
            break;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] != a && bytes[i] != b && bytes[i] != c {
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Fused record/field scan: borrowed slices, no per-cell allocation.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldKind {
    /// Unquoted: the slice is the raw cell content.
    Plain = 0,
    /// Quoted without escapes: the slice is the interior between quotes.
    Quoted = 1,
    /// Quoted with `""` pairs: collapse escapes when materializing.
    Escaped = 2,
}

/// A field's location in the input buffer, packed to 8 bytes: the typed
/// materialization pass walks the field array column-strided, so halving
/// a field ref's footprint (vs `usize` offsets + a kind byte) directly
/// cuts the pass's memory traffic. The packing caps inputs at
/// [`MAX_CSV_BYTES`]; [`read_csv_str`] rejects larger files up front.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FieldRef {
    start: u32,
    /// `len << 2 | kind`.
    len_kind: u32,
}

/// Largest input the packed [`FieldRef`] offsets can address (1 GiB).
pub const MAX_CSV_BYTES: usize = (u32::MAX >> 2) as usize;

impl FieldRef {
    #[inline]
    fn new(start: usize, end: usize, kind: FieldKind) -> FieldRef {
        FieldRef { start: start as u32, len_kind: (((end - start) as u32) << 2) | kind as u32 }
    }

    /// Byte offset where this field's *record representation* begins:
    /// the opening quote for quoted fields, the first content byte
    /// otherwise. Used by the streaming reader to find the carry-over
    /// boundary of a partially consumed scan window.
    #[inline]
    pub(crate) fn record_start(&self) -> usize {
        let start = self.start as usize;
        match self.kind() {
            FieldKind::Plain => start,
            FieldKind::Quoted | FieldKind::Escaped => start - 1,
        }
    }

    #[inline]
    pub(crate) fn kind(&self) -> FieldKind {
        match self.len_kind & 3 {
            0 => FieldKind::Plain,
            1 => FieldKind::Quoted,
            _ => FieldKind::Escaped,
        }
    }

    #[inline]
    pub(crate) fn raw<'a>(&self, text: &'a str) -> &'a str {
        let start = self.start as usize;
        &text[start..start + (self.len_kind >> 2) as usize]
    }

    /// Cell content with quote escapes collapsed; borrows unless escaped.
    pub(crate) fn content<'a>(&self, text: &'a str) -> Cow<'a, str> {
        match self.kind() {
            FieldKind::Plain | FieldKind::Quoted => Cow::Borrowed(self.raw(text)),
            FieldKind::Escaped => Cow::Owned(self.raw(text).replace("\"\"", "\"")),
        }
    }
}

/// Fused single-pass scanner: walks the buffer once, quote-aware, and
/// appends the row-major field slices of every record to `out`. `\n`
/// outside quotes ends a record (a `\r` immediately before it is
/// stripped); fully blank lines are skipped; quoted fields may contain
/// delimiters, quotes (escaped as `""`), and line breaks (RFC-4180).
/// Rectangularity is enforced against the first record's field count —
/// or against `expect_cols` when the caller already knows the width (the
/// streaming reader scans one window at a time, so later windows must
/// match the width fixed by the first). Errors carry the 1-based
/// physical line their record starts on, offset by `start_line` so
/// multi-window scans report file-absolute lines.
/// Returns the number of records scanned.
// The close-record macro's final expansion (end of input) leaves its
// bookkeeping writes dead; they are live in every loop expansion.
#[allow(unused_assignments)]
pub(crate) fn scan_records(
    text: &str,
    delim: u8,
    out: &mut Vec<FieldRef>,
    start_line: usize,
    expect_cols: Option<usize>,
) -> Result<usize> {
    let bytes = text.as_bytes();
    let len = bytes.len();
    let mut n_records = 0usize;
    let mut n_cols = expect_cols.unwrap_or(0);
    let mut rec_base = out.len(); // fields emitted before the current record
    let mut line = start_line; // current physical line
    let mut rline = start_line; // line the current record starts on
    let mut rstart = 0usize; // byte offset of the current record
    let mut fstart = 0usize; // byte offset of the current field
    let mut just_closed = false; // the current field was emitted by the quote arm
    let mut i = 0usize;

    // Close the record ending at `rend` (exclusive, `\r` already stripped).
    macro_rules! close_record {
        ($rend:expr) => {{
            let rend = $rend;
            if rend == rstart && out.len() == rec_base && !just_closed {
                // Fully blank line: skip it entirely.
            } else {
                if !std::mem::take(&mut just_closed) {
                    out.push(FieldRef::new(fstart, rend, FieldKind::Plain));
                }
                let n = out.len() - rec_base;
                if n_cols == 0 {
                    n_cols = n;
                } else if n != n_cols {
                    return Err(csv_err(rline, format!("expected {n_cols} fields, found {n}")));
                }
                n_records += 1;
                rec_base = out.len();
            }
        }};
    }

    while i < len {
        let j = find_first3(bytes, i, delim, b'"', b'\n');
        if j >= len {
            break;
        }
        let b = bytes[j];
        if b == delim {
            if just_closed {
                just_closed = false;
            } else {
                out.push(FieldRef::new(fstart, j, FieldKind::Plain));
            }
            fstart = j + 1;
            i = j + 1;
        } else if b == b'\n' {
            line += 1;
            let mut rend = j;
            if rend > rstart && bytes[rend - 1] == b'\r' {
                rend -= 1;
            }
            close_record!(rend);
            rstart = j + 1;
            fstart = j + 1;
            rline = line;
            i = j + 1;
        } else {
            // A quote may only open a field at its first byte.
            if j != fstart {
                return Err(csv_err(rline, "quote inside unquoted field"));
            }
            let qstart = j + 1;
            let mut k = qstart;
            let mut escaped = false;
            loop {
                k = find_first2(bytes, k, b'"', b'\n');
                if k >= len {
                    return Err(csv_err(rline, "unterminated quoted field"));
                }
                if bytes[k] == b'\n' {
                    line += 1; // embedded newline: part of the field
                    k += 1;
                } else if bytes.get(k + 1) == Some(&b'"') {
                    escaped = true;
                    k += 2;
                } else {
                    break;
                }
            }
            let kind = if escaped { FieldKind::Escaped } else { FieldKind::Quoted };
            out.push(FieldRef::new(qstart, k, kind));
            // The byte after the closing quote must end the field: a
            // delimiter, a (CR)LF record terminator, or end of input.
            let nxt = k + 1;
            let legal = nxt >= len
                || bytes[nxt] == delim
                || bytes[nxt] == b'\n'
                || (bytes[nxt] == b'\r' && (nxt + 1 >= len || bytes[nxt + 1] == b'\n'));
            if !legal {
                return Err(csv_err(rline, "unexpected character after closing quote"));
            }
            just_closed = true;
            i = nxt;
        }
    }

    // End of input closes the final record (no trailing newline).
    let mut rend = len;
    if rend > rstart && bytes[rend - 1] == b'\r' {
        rend -= 1;
    }
    close_record!(rend);
    Ok(n_records)
}

// ---------------------------------------------------------------------------
// Type inference.
// ---------------------------------------------------------------------------

fn token_is_bool(t: &str) -> bool {
    parse_bool(t).is_some()
}

fn parse_bool(t: &str) -> Option<bool> {
    // Exact-match fast path for the overwhelmingly common spellings; the
    // case-insensitive chain only runs for "True", "YES", ...
    match t {
        "true" => return Some(true),
        "false" => return Some(false),
        _ => {}
    }
    for k in ["true", "t", "yes"] {
        if t.eq_ignore_ascii_case(k) {
            return Some(true);
        }
    }
    for k in ["false", "f", "no"] {
        if t.eq_ignore_ascii_case(k) {
            return Some(false);
        }
    }
    None
}

/// Parse an i64 with a hand-rolled digit loop for the common short case;
/// anything unusual (18+ digits, stray signs) defers to the std parser,
/// so acceptance is exactly `str::parse::<i64>`.
#[inline]
fn parse_i64_fast(t: &str) -> Option<i64> {
    let b = t.as_bytes();
    let (neg, start) = match b.first() {
        Some(b'-') => (true, 1),
        Some(b'+') => (false, 1),
        Some(_) => (false, 0),
        None => return None,
    };
    let digits = &b[start..];
    if digits.is_empty() || digits.len() > 18 {
        return t.parse::<i64>().ok();
    }
    let mut acc: i64 = 0;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        // ≤ 18 digits can't overflow i64.
        acc = acc * 10 + d as i64;
    }
    Some(if neg { -acc } else { acc })
}

/// Powers of ten exactly representable as f64 (10^22 is the last one; 15
/// is all the fast path below needs).
const POW10: [f64; 16] =
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15];

/// Parse an f64 with the classic Clinger fast path: `[sign] digits
/// [. digits]` with ≤ 15 digits becomes one exact u64 mantissa divided by
/// an exact power of ten — a single correctly-rounded operation, so the
/// result is bit-identical to the (correctly-rounded) std parser. Longer
/// numbers, exponents, and `inf`/`NaN` defer to std.
#[inline]
fn parse_f64_fast(t: &str) -> Option<f64> {
    let b = t.as_bytes();
    let (neg, start) = match b.first() {
        Some(b'-') => (true, 1),
        Some(b'+') => (false, 1),
        Some(_) => (false, 0),
        None => return None,
    };
    let mut mant: u64 = 0;
    let mut n_digits = 0usize;
    let mut frac = 0usize;
    let mut seen_dot = false;
    for &c in &b[start..] {
        let d = c.wrapping_sub(b'0');
        if d <= 9 {
            n_digits += 1;
            if n_digits > 15 {
                return t.parse::<f64>().ok();
            }
            mant = mant * 10 + d as u64;
            if seen_dot {
                frac += 1;
            }
        } else if c == b'.' && !seen_dot {
            seen_dot = true;
        } else {
            // Exponents, inf, NaN, underscores, garbage: std decides.
            return t.parse::<f64>().ok();
        }
    }
    if n_digits == 0 {
        return t.parse::<f64>().ok();
    }
    let v = mant as f64 / POW10[frac];
    Some(if neg { -v } else { v })
}

/// Null-marker matcher with a 256-entry first-byte prefilter: almost no
/// real cell starts with a marker's first byte, so the common case is one
/// table load instead of a marker-list walk.
struct NullMatcher<'a> {
    markers: &'a [String],
    first: [bool; 256],
}

impl<'a> NullMatcher<'a> {
    fn new(markers: &'a [String]) -> NullMatcher<'a> {
        let mut first = [false; 256];
        for m in markers {
            if let Some(&b) = m.as_bytes().first() {
                first[b as usize] = true;
            }
        }
        NullMatcher { markers, first }
    }

    /// Whether the (already trimmed, non-empty) token is a null marker.
    #[inline]
    fn matches(&self, t: &str) -> bool {
        self.first[t.as_bytes()[0] as usize] && self.markers.iter().any(|m| m == t)
    }
}

/// The trimmed token a typed column parses, or `None` for a missing cell.
/// Unquoted cells match null markers; quoting makes content literal.
#[inline]
fn typed_token<'a>(f: &FieldRef, text: &'a str, nulls: &NullMatcher<'_>) -> Option<Cow<'a, str>> {
    match f.kind() {
        FieldKind::Plain => {
            let t = trim_token(f.raw(text));
            if t.is_empty() || nulls.matches(t) {
                None
            } else {
                Some(Cow::Borrowed(t))
            }
        }
        FieldKind::Quoted => Some(Cow::Borrowed(trim_token(f.raw(text)))),
        FieldKind::Escaped => {
            Some(Cow::Owned(f.raw(text).replace("\"\"", "\"").trim().to_string()))
        }
    }
}

/// A string column's cell: `None` for a missing cell, otherwise the
/// untrimmed content with quote escapes collapsed.
#[inline]
fn str_cell(f: &FieldRef, text: &str, nulls: &NullMatcher<'_>) -> Option<String> {
    match f.kind() {
        FieldKind::Plain => {
            let raw = f.raw(text);
            let t = trim_token(raw);
            if t.is_empty() || nulls.matches(t) {
                None
            } else {
                Some(raw.to_string())
            }
        }
        _ => Some(f.content(text).into_owned()),
    }
}

/// Append the parsed cells to `v`. Returns `false` on the first cell that
/// does not parse, abandoning the column: its builder re-renders it as
/// strings.
#[inline]
fn push_typed<'a, T>(
    v: &mut Vec<Option<T>>,
    fields: impl Iterator<Item = &'a FieldRef>,
    text: &str,
    nulls: &NullMatcher<'_>,
    parse: impl Fn(&str) -> Option<T>,
) -> bool {
    for f in fields {
        let parsed = match f.kind() {
            FieldKind::Plain => {
                let t = trim_token(f.raw(text));
                if t.is_empty() || nulls.matches(t) {
                    v.push(None);
                    continue;
                }
                parse(t)
            }
            FieldKind::Quoted => parse(trim_token(f.raw(text))),
            FieldKind::Escaped => parse(f.raw(text).replace("\"\"", "\"").trim()),
        };
        match parsed {
            Some(x) => v.push(Some(x)),
            None => return false,
        }
    }
    true
}

/// Per-column candidate flags, narrowed cell by cell:
/// bool ⊂ int ⊂ float ⊂ string.
struct TypeSketch {
    could_bool: bool,
    could_int: bool,
    could_float: bool,
    saw_value: bool,
}

impl TypeSketch {
    fn new() -> TypeSketch {
        TypeSketch { could_bool: true, could_int: true, could_float: true, saw_value: false }
    }

    /// Narrow the candidates by one non-null token. Returns the token's
    /// float parse while the column can still be float.
    fn observe(&mut self, t: &str) -> Option<f64> {
        self.saw_value = true;
        if self.could_bool && !token_is_bool(t) {
            self.could_bool = false;
        }
        if self.could_int && parse_i64_fast(t).is_none() {
            self.could_int = false;
        }
        if !self.could_float {
            return None;
        }
        let x = parse_f64_fast(t);
        self.could_float = x.is_some();
        x
    }

    fn dtype(&self) -> DataType {
        if !self.saw_value {
            // All-null column: default to string, the least surprising choice.
            DataType::Str
        } else if self.could_bool {
            DataType::Bool
        } else if self.could_int {
            DataType::Int
        } else if self.could_float {
            DataType::Float
        } else {
            DataType::Str
        }
    }
}

// ---------------------------------------------------------------------------
// Column-parallel materialization.
// ---------------------------------------------------------------------------

/// The row-major field slices one materialization reads, shared by all
/// of its column tasks.
struct Cells<'a> {
    text: &'a str,
    data: &'a [FieldRef],
    n_cols: usize,
    nulls: NullMatcher<'a>,
}

impl<'a> Cells<'a> {
    fn n_rows(&self) -> usize {
        self.data.len() / self.n_cols
    }

    /// Column `c`'s fields from row `from` on.
    fn column(&self, c: usize, from: usize) -> impl Iterator<Item = &'a FieldRef> {
        let n = self.n_cols;
        self.data[from * n..].iter().skip(c).step_by(n)
    }

    /// Column `c`'s dtype over its first `rows` rows, and those rows' float
    /// parses when that dtype is float (empty otherwise).
    fn infer(&self, c: usize, rows: usize) -> (DataType, Vec<Option<f64>>) {
        let mut sketch = TypeSketch::new();
        let mut floats = Vec::with_capacity(rows);
        for f in self.column(c, 0).take(rows) {
            let x = typed_token(f, self.text, &self.nulls).and_then(|t| sketch.observe(&t));
            if sketch.could_float {
                floats.push(x);
            }
        }
        let dtype = sketch.dtype();
        if dtype != DataType::Float {
            floats = Vec::new();
        }
        (dtype, floats)
    }

    /// Column `c`'s cells as `dtype`; `None` when a cell contradicts
    /// `dtype`. A float column's first rows are `floats`, the parses
    /// inference already made.
    fn build(&self, c: usize, dtype: DataType, floats: &[Option<f64>]) -> Option<Column> {
        let (text, nulls, n_rows) = (self.text, &self.nulls, self.n_rows());
        match dtype {
            DataType::Str => {
                let mut v = Vec::with_capacity(n_rows);
                for f in self.column(c, 0) {
                    v.push(str_cell(f, text, nulls));
                }
                Some(Column::Str(v))
            }
            DataType::Int => {
                let mut v = Vec::with_capacity(n_rows);
                push_typed(&mut v, self.column(c, 0), text, nulls, parse_i64_fast)
                    .then_some(Column::Int(v))
            }
            DataType::Bool => {
                let mut v = Vec::with_capacity(n_rows);
                push_typed(&mut v, self.column(c, 0), text, nulls, parse_bool)
                    .then_some(Column::Bool(v))
            }
            DataType::Float => {
                let mut v = Vec::with_capacity(n_rows);
                v.extend_from_slice(floats);
                let rest = self.column(c, floats.len());
                push_typed(&mut v, rest, text, nulls, parse_f64_fast).then_some(Column::Float(v))
            }
        }
    }
}

/// A materialized column, and whether a cell contradicting its dtype made
/// the builder re-render it as strings.
pub(crate) struct BuiltColumn {
    pub(crate) col: Column,
    pub(crate) degraded: bool,
}

/// Materialize every column of the row-major field slices `data` on the
/// runtime, one task per column. Each task takes its dtype from `dtypes`
/// or, when that is `None`, infers it from the first
/// [`CsvOptions::inference_rows`] rows and keeps the sample's float
/// parses as the column's first rows. A cell that contradicts the
/// column's dtype (and is not a null marker) makes the task re-render the
/// whole column as strings. Every column depends only on the input, never
/// on [`CsvOptions::n_threads`].
pub(crate) fn build_columns(
    text: &str,
    data: &[FieldRef],
    n_cols: usize,
    dtypes: Option<&[DataType]>,
    opts: &CsvOptions,
) -> Vec<BuiltColumn> {
    let cells = Cells { text, data, n_cols, nulls: NullMatcher::new(&opts.null_markers) };
    let sample_rows = cells.n_rows().min(opts.inference_rows);
    let columns: Vec<usize> = (0..n_cols).collect();
    catdb_runtime::parallel_map(opts.n_threads.max(1), &columns, |_, &c| {
        let (dtype, floats) = match dtypes {
            Some(d) => (d[c], Vec::new()),
            None => cells.infer(c, sample_rows),
        };
        match cells.build(c, dtype, &floats) {
            Some(col) => BuiltColumn { col, degraded: false },
            None => BuiltColumn {
                col: cells.build(c, DataType::Str, &[]).expect("string cells never contradict"),
                degraded: true,
            },
        }
    })
}

/// Infer per-column types over a row-major sample prefix (field counts
/// were already validated by the scanner).
pub(crate) fn infer_types(
    text: &str,
    sample: &[FieldRef],
    n_cols: usize,
    opts: &CsvOptions,
) -> Vec<DataType> {
    let cells = Cells { text, data: sample, n_cols, nulls: NullMatcher::new(&opts.null_markers) };
    (0..n_cols).map(|c| cells.infer(c, cells.n_rows()).0).collect()
}

/// Parse CSV text into a table with inferred column types.
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<Table> {
    let _span = catdb_trace::span(SPAN_CSV_INGEST);
    catdb_trace::add_counter(COUNTER_CSV_BYTES, text.len() as f64);
    if text.len() > MAX_CSV_BYTES {
        return Err(csv_err(
            0,
            format!("input is {} bytes; the reader supports up to {MAX_CSV_BYTES}", text.len()),
        ));
    }

    // Fused pass 1: every record's field slices, row-major, in one
    // allocation (sized by a ~8-bytes-per-field heuristic). Inference,
    // materialization and the degradation re-render all read these
    // slices — the file is never re-read or re-split.
    let mut fields: Vec<FieldRef> = Vec::with_capacity(text.len() / 8 + 8);
    let n_records = scan_records(text, opts.delimiter, &mut fields, 1, None)?;
    if n_records == 0 {
        return Ok(Table::empty());
    }
    let n_cols = fields.len() / n_records;

    let (header, data): (Vec<String>, &[FieldRef]) = if opts.has_header {
        (fields[..n_cols].iter().map(|f| f.content(text).into_owned()).collect(), &fields[n_cols..])
    } else {
        ((0..n_cols).map(|i| format!("c{i}")).collect(), &fields[..])
    };
    catdb_trace::add_counter(COUNTER_CSV_ROWS, (data.len() / n_cols) as f64);

    let built = build_columns(text, data, n_cols, None, opts);
    let n_degraded = built.iter().filter(|b| b.degraded).count();
    if n_degraded > 0 {
        catdb_trace::add_counter(COUNTER_CSV_DEGRADED, n_degraded as f64);
    }
    Table::from_columns(header.into_iter().zip(built.into_iter().map(|b| b.col)).collect())
}

/// Parse CSV from any reader into a table with inferred column types.
pub fn read_csv<R: Read>(mut reader: R, opts: &CsvOptions) -> Result<Table> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    read_csv_buf(&buf, opts)
}

/// Read a CSV file from disk.
pub fn read_csv_path(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Table> {
    let buf = std::fs::read(path)?;
    read_csv_buf(&buf, opts)
}

fn read_csv_buf(buf: &[u8], opts: &CsvOptions) -> Result<Table> {
    let text = std::str::from_utf8(buf)
        .map_err(|e| csv_err(0, format!("input is not valid UTF-8: {e}")))?;
    read_csv_str(text, opts)
}

// ---------------------------------------------------------------------------
// Buffered write path.
// ---------------------------------------------------------------------------

/// Whether a string cell must be quoted: structural characters would
/// break the record, and content that trims to empty or to a default
/// null marker would read back as null.
fn needs_quotes(s: &str, delim: u8) -> bool {
    if s.bytes().any(|b| b == delim || b == b'"' || b == b'\n' || b == b'\r') {
        return true;
    }
    let t = s.trim();
    t.is_empty() || DEFAULT_NULL_MARKERS.contains(&t)
}

/// Write one string cell, quoting (and escaping quotes) only when needed.
fn write_str_field<W: Write>(w: &mut W, s: &str, delim: u8) -> std::io::Result<()> {
    if !needs_quotes(s, delim) {
        return w.write_all(s.as_bytes());
    }
    w.write_all(b"\"")?;
    let mut first = true;
    for part in s.split('"') {
        if !first {
            w.write_all(b"\"\"")?;
        }
        first = false;
        w.write_all(part.as_bytes())?;
    }
    w.write_all(b"\"")
}

/// Serialize a table as CSV through a buffered writer. Numeric and bool
/// cells stream through the `Display`-to-formatter path (no per-cell
/// `render()` string); string cells are quoted per [`needs_quotes`].
pub fn write_csv<W: Write>(table: &Table, writer: &mut W, delimiter: u8) -> Result<()> {
    let mut w = std::io::BufWriter::new(writer);
    // A delimiter that can occur inside a rendered number or bool (never
    // the case for ',', ';', '\t', '|', ...) forces the slow path.
    let exotic_delim = delimiter.is_ascii_alphanumeric() || matches!(delimiter, b'+' | b'-' | b'.');
    for (i, name) in table.schema().names().iter().enumerate() {
        if i > 0 {
            w.write_all(&[delimiter])?;
        }
        write_str_field(&mut w, name, delimiter)?;
    }
    w.write_all(b"\n")?;
    for r in 0..table.n_rows() {
        for c in 0..table.n_cols() {
            if c > 0 {
                w.write_all(&[delimiter])?;
            }
            let col = table.column_at(c);
            if exotic_delim && col.dtype() != DataType::Str {
                if !col.is_null_at(r) {
                    write_str_field(&mut w, &col.get(r).render(), delimiter)?;
                }
                continue;
            }
            match col {
                Column::Str(v) => {
                    if let Some(s) = &v[r] {
                        write_str_field(&mut w, s, delimiter)?;
                    }
                }
                Column::Int(v) => {
                    if let Some(x) = v[r] {
                        write!(w, "{x}")?;
                    }
                }
                Column::Float(v) => {
                    if let Some(x) = v[r] {
                        write!(w, "{}", Value::Float(x))?;
                    }
                }
                Column::Bool(v) => {
                    if let Some(x) = v[r] {
                        w.write_all(if x { b"true" } else { b"false" })?;
                    }
                }
            }
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Serialize a table as a CSV string.
pub fn to_csv_string(table: &Table) -> String {
    let mut out = Vec::new();
    write_csv(table, &mut out, b',').expect("writing to Vec cannot fail");
    String::from_utf8(out).expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_types_and_nulls() {
        let csv = "id,name,score,flag\n1,alice,0.5,true\n2,bob,,false\n3,NA,2.5,true\n";
        let t = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.column("id").unwrap().dtype(), DataType::Int);
        assert_eq!(t.column("score").unwrap().dtype(), DataType::Float);
        assert_eq!(t.column("flag").unwrap().dtype(), DataType::Bool);
        assert_eq!(t.value(1, "score").unwrap(), Value::Null);
        assert_eq!(t.value(2, "name").unwrap(), Value::Null);
    }

    #[test]
    fn quoted_fields_with_embedded_delimiters() {
        let csv = "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n";
        let t = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, "a").unwrap(), Value::Str("x,y".into()));
        assert_eq!(t.value(0, "b").unwrap(), Value::Str("he said \"hi\"".into()));
    }

    #[test]
    fn quoted_fields_with_embedded_newlines() {
        // RFC-4180 §2.6: quoted fields may contain line breaks. The seed
        // reader split on every '\n' and failed this file.
        let csv = "a,b\n\"line one\nline two\",7\nplain,8\n";
        let t = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value(0, "a").unwrap(), Value::Str("line one\nline two".into()));
        assert_eq!(t.value(0, "b").unwrap(), Value::Int(7));
        assert_eq!(t.value(1, "a").unwrap(), Value::Str("plain".into()));
    }

    #[test]
    fn crlf_line_endings_are_stripped() {
        let csv = "id,name\r\n1,alice\r\n2,bob\r\n";
        let t = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(t.column("id").unwrap().dtype(), DataType::Int);
        // The seed reader left "alice\r" in the last field of every record.
        assert_eq!(t.value(0, "name").unwrap(), Value::Str("alice".into()));
        assert_eq!(t.value(1, "name").unwrap(), Value::Str("bob".into()));
    }

    #[test]
    fn lone_trailing_cr_is_stripped() {
        let t = read_csv_str("a,b\r\n1,x\r", &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, "b").unwrap(), Value::Str("x".into()));
    }

    #[test]
    fn interior_blank_lines_are_skipped() {
        // The seed reader parsed a mid-file blank line as a one-field
        // record and raised "expected 2 fields, found 1".
        let csv = "a,b\n1,2\n\n3,4\n\r\n5,6\n";
        let t = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.value(2, "a").unwrap(), Value::Int(5));
    }

    #[test]
    fn quoted_null_markers_and_empties_stay_strings() {
        let csv = "x,y\n\"NA\",keep\n\"\",keep\nNA,keep\n";
        let t = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(t.value(0, "x").unwrap(), Value::Str("NA".into()));
        assert_eq!(t.value(1, "x").unwrap(), Value::Str("".into()));
        assert_eq!(t.value(2, "x").unwrap(), Value::Null);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let csv = "a,b\n1,2\n3\n";
        assert!(matches!(read_csv_str(csv, &CsvOptions::default()), Err(TableError::Csv { .. })));
    }

    #[test]
    fn unterminated_quote_is_rejected_with_start_line() {
        let err = read_csv_str("a,b\n1,\"open\n", &CsvOptions::default()).unwrap_err();
        match err {
            TableError::Csv { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_after_closing_quote_is_rejected() {
        let csv = "a,b\n\"x\"y,2\n";
        assert!(matches!(read_csv_str(csv, &CsvOptions::default()), Err(TableError::Csv { .. })));
    }

    #[test]
    fn late_type_contradiction_degrades_to_string() {
        // Inference window sees ints; a later row holds text.
        let opts = CsvOptions { inference_rows: 2, ..Default::default() };
        let csv = "x\n1\n2\nhello\n";
        let t = read_csv_str(csv, &opts).unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Str);
        assert_eq!(t.value(0, "x").unwrap(), Value::Str("1".into()));
        assert_eq!(t.value(2, "x").unwrap(), Value::Str("hello".into()));
    }

    #[test]
    fn round_trip_preserves_table() {
        let csv = "id,name,score\n1,alice,0.5\n2,\"b,ob\",1.5\n";
        let t = read_csv_str(csv, &CsvOptions::default()).unwrap();
        let back = read_csv_str(&to_csv_string(&t), &CsvOptions::default()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn round_trip_preserves_tricky_strings() {
        let t = Table::from_columns(vec![
            (
                "s",
                Column::Str(vec![
                    Some("NA".into()),
                    Some("".into()),
                    None,
                    Some("a\r\nb".into()),
                    Some("  padded  ".into()),
                    Some("q\"q".into()),
                ]),
            ),
            ("n", Column::Int(vec![Some(1), Some(2), Some(3), None, Some(5), Some(6)])),
        ])
        .unwrap();
        let back = read_csv_str(&to_csv_string(&t), &CsvOptions::default()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn headerless_files_get_synthetic_names() {
        let opts = CsvOptions { has_header: false, ..Default::default() };
        let t = read_csv_str("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(t.schema().names(), vec!["c0", "c1"]);
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn custom_delimiter() {
        let opts = CsvOptions { delimiter: b';', ..Default::default() };
        let t = read_csv_str("a;b\n1;2\n", &opts).unwrap();
        assert_eq!(t.value(0, "b").unwrap(), Value::Int(2));
    }

    #[test]
    fn bool_inference_requires_bool_tokens() {
        // "0"/"1" columns must infer as int, not bool, to avoid destroying
        // numeric features.
        let t = read_csv_str("x\n0\n1\n0\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Int);
    }

    #[test]
    fn one_zero_outside_inference_window_degrades_bool() {
        // parse_cell and infer_type share one definition of boolhood:
        // "1"/"0" are not bool tokens, so a late "1" in a bool column is a
        // contradiction (degrade), not Bool(true).
        let opts = CsvOptions { inference_rows: 2, ..Default::default() };
        let t = read_csv_str("x\ntrue\nfalse\n1\n", &opts).unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Str);
        assert_eq!(t.value(2, "x").unwrap(), Value::Str("1".into()));
    }

    #[test]
    fn parallel_parse_matches_sequential() {
        let mut csv = String::from("id,score,flag,name\n");
        for i in 0..9000 {
            let name = match i % 7 {
                0 => "NA".to_string(),
                1 => format!("\"row,{i}\""),
                2 => format!("\"multi\nline {i}\""),
                _ => format!("name{i}"),
            };
            csv.push_str(&format!("{i},{}.5,{},{name}\n", i % 100, i % 3 == 0));
        }
        let parse = |n_threads: usize| {
            read_csv_str(&csv, &CsvOptions { n_threads, ..Default::default() }).unwrap()
        };
        let base = parse(1);
        assert_eq!(base.n_rows(), 9000);
        for threads in [2, 8] {
            let t = parse(threads);
            assert_eq!(t, base, "{threads} threads diverged");
            assert_eq!(to_csv_string(&t), to_csv_string(&base));
        }
    }

    #[test]
    fn parallel_degradation_is_position_independent() {
        // Contradictions land in different chunks than the inference
        // window; the whole column must degrade identically at any width.
        let mut csv = String::from("x,y\n");
        for i in 0..9000 {
            if i == 8500 {
                csv.push_str("oops,1\n");
            } else {
                csv.push_str(&format!("{i},1\n"));
            }
        }
        let parse = |n_threads: usize| {
            read_csv_str(&csv, &CsvOptions { n_threads, ..Default::default() }).unwrap()
        };
        let base = parse(1);
        assert_eq!(base.column("x").unwrap().dtype(), DataType::Str);
        assert_eq!(base.value(0, "x").unwrap(), Value::Str("0".into()));
        assert_eq!(base.value(8500, "x").unwrap(), Value::Str("oops".into()));
        for threads in [2, 8] {
            assert_eq!(parse(threads), base);
        }
    }

    #[test]
    fn ingest_counters_and_span_are_recorded() {
        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        let guard = catdb_trace::install(sink.clone());
        let opts = CsvOptions { inference_rows: 1, ..Default::default() };
        read_csv_str("a,b\n1,x\n2,y\nz,w\n", &opts).unwrap();
        drop(guard);
        let trace = sink.snapshot();
        assert_eq!(trace.counters[COUNTER_CSV_ROWS], 3.0);
        assert!(trace.counters[COUNTER_CSV_BYTES] > 0.0);
        assert_eq!(trace.counters[COUNTER_CSV_DEGRADED], 1.0);
        assert_eq!(trace.spans_named(SPAN_CSV_INGEST).len(), 1);
    }

    /// The chunked reader this module replaced: one serial inference
    /// pass, row-major materialization over fixed 4,096-record chunks,
    /// then a separate pass re-rendering degraded columns. Kept as the
    /// oracle the column builder must match cell for cell.
    mod oracle {
        use super::super::*;

        fn is_null(f: &FieldRef, text: &str, null_markers: &[String]) -> bool {
            if f.kind() != FieldKind::Plain {
                return false;
            }
            let t = trim_token(f.raw(text));
            t.is_empty() || null_markers.iter().any(|m| m == t)
        }

        fn infer_types(
            text: &str,
            sample: &[FieldRef],
            n_cols: usize,
            nulls: &NullMatcher<'_>,
        ) -> Vec<DataType> {
            let mut sketches: Vec<TypeSketch> = (0..n_cols).map(|_| TypeSketch::new()).collect();
            for row in sample.chunks_exact(n_cols) {
                for (sketch, f) in sketches.iter_mut().zip(row) {
                    if let Some(t) = typed_token(f, text, nulls) {
                        sketch.observe(&t);
                    }
                }
            }
            sketches.iter().map(|s| s.dtype()).collect()
        }

        /// Typed partial columns of one chunk and per-column degradation
        /// flags.
        fn build_chunk(
            text: &str,
            fields: &[FieldRef],
            dtypes: &[DataType],
            nulls: &NullMatcher<'_>,
        ) -> (Vec<Column>, Vec<bool>) {
            let n_cols = dtypes.len();
            let n_rows = fields.len() / n_cols;
            let mut cols: Vec<Column> =
                dtypes.iter().map(|&dt| Column::with_capacity(dt, n_rows)).collect();
            let mut degrade = vec![false; n_cols];
            for (c, col) in cols.iter_mut().enumerate() {
                let col_fields = fields.iter().skip(c).step_by(n_cols);
                degrade[c] = match col {
                    Column::Str(v) => {
                        for f in col_fields {
                            v.push(str_cell(f, text, nulls));
                        }
                        false
                    }
                    Column::Int(v) => !push_typed(v, col_fields, text, nulls, parse_i64_fast),
                    Column::Float(v) => !push_typed(v, col_fields, text, nulls, parse_f64_fast),
                    Column::Bool(v) => !push_typed(v, col_fields, text, nulls, parse_bool),
                };
            }
            (cols, degrade)
        }

        pub(crate) fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<Table> {
            let mut fields: Vec<FieldRef> = Vec::new();
            let n_records = scan_records(text, opts.delimiter, &mut fields, 1, None)?;
            if n_records == 0 {
                return Ok(Table::empty());
            }
            let n_cols = fields.len() / n_records;
            let (header, data): (Vec<String>, &[FieldRef]) = if opts.has_header {
                let names = fields[..n_cols].iter().map(|f| f.content(text).into_owned());
                (names.collect(), &fields[n_cols..])
            } else {
                ((0..n_cols).map(|i| format!("c{i}")).collect(), &fields[..])
            };
            let n_rows = data.len() / n_cols;
            let nulls = NullMatcher::new(&opts.null_markers);
            let sample_rows = n_rows.min(opts.inference_rows);
            let dtypes = infer_types(text, &data[..sample_rows * n_cols], n_cols, &nulls);
            let mut outs: Vec<(Vec<Column>, Vec<bool>)> =
                catdb_runtime::parallel_chunks(opts.n_threads.max(1), n_rows, 4096, |r| {
                    build_chunk(text, &data[r.start * n_cols..r.end * n_cols], &dtypes, &nulls)
                });
            let mut cols: Vec<Column> = Vec::with_capacity(n_cols);
            for (c, &dtype) in dtypes.iter().enumerate() {
                if outs.iter().any(|o| o.1[c]) {
                    let v: Vec<Option<String>> = data
                        .iter()
                        .skip(c)
                        .step_by(n_cols)
                        .map(|f| {
                            if is_null(f, text, &opts.null_markers) {
                                None
                            } else {
                                Some(f.content(text).into_owned())
                            }
                        })
                        .collect();
                    cols.push(Column::Str(v));
                } else {
                    let mut col = Column::with_capacity(dtype, n_rows);
                    for out in &mut outs {
                        col.append(&mut out.0[c]).expect("chunk columns share the inferred type");
                    }
                    cols.push(col);
                }
            }
            Table::from_columns(header.into_iter().zip(cols).collect())
        }
    }

    /// Column variants and every cell, so `NaN` compares equal to itself
    /// and `-0.0` unequal to `0.0`.
    fn cells(t: &Table) -> Vec<String> {
        t.iter_columns().map(|(f, c)| format!("{f:?} {c:?}")).collect()
    }

    /// The reader at 1 and 8 threads and the oracle give the same table.
    fn assert_matches_oracle(text: &str, opts: &CsvOptions) -> Table {
        let want = cells(&oracle::read_csv_str(text, opts).unwrap());
        let mut table = None;
        for n_threads in [1, 8] {
            let t = read_csv_str(text, &CsvOptions { n_threads, ..opts.clone() }).unwrap();
            assert_eq!(cells(&t), want, "{n_threads} threads");
            table = Some(t);
        }
        table.unwrap()
    }

    /// A workload-shaped, float-heavy file: 17-digit floats (past the
    /// ≤15-digit fast path), ints, a bool, a categorical and nulls.
    fn float_heavy_csv(rows: usize, float_cols: usize) -> String {
        use std::fmt::Write as _;
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut s: String = (0..float_cols).map(|c| format!("f{c},")).collect();
        s.push_str("n,flag,cat\n");
        for _ in 0..rows {
            for _ in 0..float_cols {
                let r = next();
                match r % 40 {
                    0 => s.push_str("NA,"),
                    1 => s.push(','),
                    _ => {
                        let x = (r as f64 / (1u64 << 53) as f64 - 0.5) * 1e3;
                        let _ = write!(s, "{},", Value::Float(x));
                    }
                }
            }
            let r = next();
            let _ = writeln!(s, "{},{},c{}", r % 1000, r % 3 == 0, r % 7);
        }
        s
    }

    #[test]
    fn float_heavy_file_reads_the_same_at_any_thread_count() {
        let text = float_heavy_csv(1000, 40);
        let t = assert_matches_oracle(&text, &CsvOptions::default());
        assert_eq!(t.n_rows(), 1000);
        assert_eq!(t.column("f0").unwrap().dtype(), DataType::Float);
        assert_eq!(t.column("n").unwrap().dtype(), DataType::Int);
        assert_eq!(t.column("flag").unwrap().dtype(), DataType::Bool);
    }

    #[test]
    fn float_contradicted_after_the_sample_degrades_as_before() {
        // 1,500 rows, sample of 1,000: row 1,200 of `f3` holds text, so
        // the sample's kept float parses must be dropped for a re-render.
        let mut lines: Vec<String> = float_heavy_csv(1500, 8).lines().map(String::from).collect();
        let mut cells_1200: Vec<String> = lines[1201].split(',').map(String::from).collect();
        cells_1200[3] = "oops".into();
        lines[1201] = cells_1200.join(",");
        let text = lines.join("\n") + "\n";
        let want_f3: Vec<String> =
            lines[1..].iter().map(|l| l.split(',').nth(3).unwrap().to_string()).collect();
        let t = assert_matches_oracle(&text, &CsvOptions::default());
        let col = t.column("f3").unwrap();
        assert_eq!(col.dtype(), DataType::Str);
        for (r, raw) in want_f3.iter().enumerate() {
            let want =
                if raw.is_empty() || raw == "NA" { Value::Null } else { Value::Str(raw.clone()) };
            assert_eq!(col.get(r), want, "row {r}");
        }
        assert_eq!(t.column("f2").unwrap().dtype(), DataType::Float);
    }

    #[test]
    fn tall_files_match_the_oracle() {
        // Past two of the oracle's 4,096-record chunk boundaries, with
        // contradictions inside the sample, after it, and none at all;
        // samples shorter and longer than one chunk.
        let rows = 2 * 4096 + 777;
        let mut csv = String::from("a,b,c,d\n");
        for i in 0..rows {
            let b = if i == 2 * 4096 + 5 { "late".to_string() } else { format!("{i}.5") };
            let c = if i == 700 { "early".to_string() } else { (i % 5 == 0).to_string() };
            csv.push_str(&format!("{i},{b},{c},\"q{}\"\n", i % 13));
        }
        let t = assert_matches_oracle(&csv, &CsvOptions::default());
        let dtypes: Vec<DataType> = t.schema().fields().iter().map(|f| f.dtype).collect();
        assert_eq!(dtypes, [DataType::Int, DataType::Str, DataType::Str, DataType::Str]);
        for inference_rows in [3, 4096 + 9] {
            assert_matches_oracle(&csv, &CsvOptions { inference_rows, ..CsvOptions::default() });
        }
    }

    #[test]
    fn paper_dataset_csvs_match_the_oracle() {
        use serde::Deserialize as _;
        for rows in [1000, 1500] {
            let opts = catdb_data::GenOptions { max_rows: rows, scale: 1.0, seed: 7 };
            let mut n_tables = 0;
            for g in catdb_data::generate_all(&opts) {
                for (_, table) in &g.dataset.tables {
                    // The generator links its own build of this crate:
                    // carry the table across as a serde value.
                    let table = Table::deserialize(&serde_json::to_value(table)).unwrap();
                    let read =
                        assert_matches_oracle(&to_csv_string(&table), &CsvOptions::default());
                    assert_eq!(read.n_rows(), table.n_rows());
                    n_tables += 1;
                }
            }
            assert!(n_tables >= 20, "{n_tables} tables");
        }
    }
}
