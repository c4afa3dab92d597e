//! Out-of-core chunked columnar storage.
//!
//! A [`ChunkedTable`] holds a table as a sequence of fixed-row-count
//! *chunks* spilled to a temporary file, so datasets larger than memory
//! can be scanned chunk by chunk with peak RSS proportional to one
//! chunk, not the table. Two producers exist:
//!
//! - [`ChunkedTable::from_csv_path`] streams a CSV file through the
//!   zero-copy scanner one window at a time: blocks are appended to a
//!   bounded buffer, a quote-parity walk finds the longest safely
//!   parseable prefix, [`scan_records`](crate::csv) scans it, the
//!   in-memory reader's column builder (`build_columns`) materializes
//!   exactly `chunk_rows` rows per chunk, one runtime task per column,
//!   and the typed pages go straight to the spill file. The file content
//!   is never resident all at once.
//! - [`ChunkedTable::from_table`] spills an in-memory table, mostly for
//!   tests and for code paths that want a uniform chunked view.
//!
//! Page layout per chunk (columns in schema order, contiguous): a dtype
//! tag byte, a `u32` row count, then fixed-width values behind a
//! validity bitmap for numeric/bool pages, or a dictionary (distinct
//! sorted strings via [`ValueDict`]) plus `u32` row codes for string
//! pages. Type inference matches the in-memory reader: dtypes are
//! fixed over the same leading sample, and a later contradicting cell
//! degrades the column to string from that chunk on (earlier pages
//! keep their typed encoding and are re-rendered at read time, so a
//! degraded `007` read back from an int page renders as `7` — the
//! documented divergence of the out-of-core path).

use crate::column::Column;
use crate::csv::{self, CsvOptions};
use crate::dict::{ValueDict, NULL_CODE};
use crate::error::{Result, TableError};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default rows per chunk (~64K): large enough to amortize per-chunk
/// overheads, small enough that a chunk of a wide mixed table stays in
/// the tens of megabytes.
pub const DEFAULT_CHUNK_ROWS: usize = 65_536;

/// Counter: bytes written to spill files by chunked ingestion.
pub const COUNTER_CSV_SPILL_BYTES: &str = "csv.spill_bytes";

/// Bytes read from the source file per ingestion block.
const INGEST_BLOCK: usize = 4 << 20;

/// Page dtype tags (stable on-disk values — the spill file never
/// outlives the process, but the reader still validates them).
const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_STR: u8 = 3;

/// Location of one chunk in the spill file.
#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    rows: u32,
    offset: u64,
}

/// A table spilled to disk as fixed-row-count columnar chunks.
#[derive(Debug)]
pub struct ChunkedTable {
    schema: Schema,
    path: PathBuf,
    chunks: Vec<ChunkMeta>,
    n_rows: usize,
    chunk_rows: usize,
    spill_bytes: u64,
}

impl Drop for ChunkedTable {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn fresh_spill_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("catdb-spill-{}-{seq}.pages", std::process::id()))
}

impl ChunkedTable {
    /// Stream a CSV file into a chunked spill, holding at most one scan
    /// window (a few ingest blocks) plus one chunk's columns in memory.
    pub fn from_csv_path(
        path: impl AsRef<Path>,
        opts: &CsvOptions,
        chunk_rows: usize,
    ) -> Result<ChunkedTable> {
        Self::from_csv_path_block_observed(path.as_ref(), opts, chunk_rows, INGEST_BLOCK, None)
    }

    /// Streaming ingestion with a per-chunk observer: `observe` is
    /// called once per materialized chunk, in chunk order, with exactly
    /// the columns being spilled (typed pages before any later dtype
    /// degradation — the same content [`ChunkedTable::chunk`] renders
    /// back). Lets single-pass consumers (sketch profiling) fold each
    /// chunk as it streams by instead of re-reading the spill file.
    pub fn from_csv_path_observed(
        path: impl AsRef<Path>,
        opts: &CsvOptions,
        chunk_rows: usize,
        observe: &mut dyn FnMut(&Table),
    ) -> Result<ChunkedTable> {
        Self::from_csv_path_block_observed(
            path.as_ref(),
            opts,
            chunk_rows,
            INGEST_BLOCK,
            Some(observe),
        )
    }

    /// Ingestion with an explicit block size, so tests can exercise the
    /// window-carry machinery without multi-megabyte fixtures.
    #[cfg(test)]
    pub(crate) fn from_csv_path_block(
        path: &Path,
        opts: &CsvOptions,
        chunk_rows: usize,
        block: usize,
    ) -> Result<ChunkedTable> {
        Self::from_csv_path_block_observed(path, opts, chunk_rows, block, None)
    }

    fn from_csv_path_block_observed(
        path: &Path,
        opts: &CsvOptions,
        chunk_rows: usize,
        block: usize,
        observe: Option<&mut dyn FnMut(&Table)>,
    ) -> Result<ChunkedTable> {
        let _span = catdb_trace::span(csv::SPAN_CSV_INGEST);
        let chunk_rows = chunk_rows.max(1);
        let block = block.max(64);
        let file = File::open(path)?;
        let spill_path = fresh_spill_path();
        let mut w = CountingWriter::new(BufWriter::new(File::create(&spill_path)?));
        let result = stream_ingest(file, opts, chunk_rows, block, &mut w, observe)
            .and_then(|ok| w.flush().map_err(TableError::from).map(|()| ok));
        match result {
            Ok((schema, chunks, n_rows)) => {
                catdb_trace::add_counter(COUNTER_CSV_SPILL_BYTES, w.pos as f64);
                Ok(ChunkedTable {
                    schema,
                    path: spill_path,
                    chunks,
                    n_rows,
                    chunk_rows,
                    spill_bytes: w.pos,
                })
            }
            Err(e) => {
                drop(w);
                let _ = std::fs::remove_file(&spill_path);
                Err(e)
            }
        }
    }

    /// Spill an in-memory table into the chunked layout.
    pub fn from_table(table: &Table, chunk_rows: usize) -> Result<ChunkedTable> {
        let chunk_rows = chunk_rows.max(1);
        let spill_path = fresh_spill_path();
        let mut w = CountingWriter::new(BufWriter::new(File::create(&spill_path)?));
        let mut chunks = Vec::new();
        let total = table.n_rows();
        let result = (|| -> Result<()> {
            let mut start = 0usize;
            while start < total {
                let end = (start + chunk_rows).min(total);
                let offset = w.pos;
                for c in 0..table.n_cols() {
                    write_page(&mut w, table.column_at(c), start..end)?;
                }
                chunks.push(ChunkMeta { rows: (end - start) as u32, offset });
                start = end;
            }
            w.flush()?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                catdb_trace::add_counter(COUNTER_CSV_SPILL_BYTES, w.pos as f64);
                Ok(ChunkedTable {
                    schema: table.schema().clone(),
                    path: spill_path,
                    chunks,
                    n_rows: total,
                    chunk_rows,
                    spill_bytes: w.pos,
                })
            }
            Err(e) => {
                drop(w);
                let _ = std::fs::remove_file(&spill_path);
                Err(e)
            }
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Rows per chunk (every chunk but the last holds exactly this many).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Bytes occupied by the spill file.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// Number of rows in chunk `i`.
    pub fn chunk_len(&self, i: usize) -> usize {
        self.chunks[i].rows as usize
    }

    /// Load chunk `i` back into an in-memory [`Table`]. Each call opens
    /// its own file handle, so chunks may be loaded from multiple
    /// threads concurrently.
    pub fn chunk(&self, i: usize) -> Result<Table> {
        let meta = *self.chunks.get(i).ok_or_else(|| {
            TableError::Invalid(format!("chunk {i} out of range ({} chunks)", self.chunks.len()))
        })?;
        let mut f = File::open(&self.path)?;
        f.seek(SeekFrom::Start(meta.offset))?;
        let mut r = BufReader::new(f);
        let mut cols = Vec::with_capacity(self.schema.len());
        for field in self.schema.fields() {
            let col = read_page(&mut r, meta.rows as usize)?;
            // A page written before its column degraded keeps the old
            // typed encoding; render it to the final string dtype here.
            let col = if col.dtype() == field.dtype { col } else { column_to_strings(&col) };
            cols.push((field.name.clone(), col));
        }
        Table::from_columns(cols)
    }
}

/// Render any column to its string form (used when a page's stored
/// dtype predates a later degradation of the column).
fn column_to_strings(col: &Column) -> Column {
    Column::Str(
        (0..col.len())
            .map(|i| if col.is_null_at(i) { None } else { Some(col.get(i).render()) })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Streaming CSV ingestion.
// ---------------------------------------------------------------------------

/// A write sink that tracks its absolute position (chunk offsets are
/// recorded without flushing the underlying `BufWriter`).
struct CountingWriter<W: Write> {
    inner: W,
    pos: u64,
}

impl<W: Write> CountingWriter<W> {
    fn new(inner: W) -> CountingWriter<W> {
        CountingWriter { inner, pos: 0 }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The streaming scan-window loop. Reads blocks into a carry buffer,
/// finds the longest prefix ending on a record boundary (incremental
/// quote-parity walk), scans + materializes full chunks out of it, and
/// carries the bytes of any incomplete trailing records into the next
/// window. Returns the final schema, chunk directory, and row count.
fn stream_ingest<W: Write>(
    mut file: File,
    opts: &CsvOptions,
    chunk_rows: usize,
    block: usize,
    w: &mut CountingWriter<W>,
    mut observe: Option<&mut dyn FnMut(&Table)>,
) -> Result<(Schema, Vec<ChunkMeta>, usize)> {
    let mut buf: Vec<u8> = Vec::new();
    let mut eof = false;
    // Forces at least one more block read when the previous window could
    // not make progress (e.g. blank lines inflated the record estimate).
    let mut must_read = false;
    let mut line_base = 1usize; // physical line number of buf[0]
    let mut total_bytes = 0u64;

    let mut header: Option<Vec<String>> = None;
    let mut n_cols = 0usize;
    let mut dtypes: Vec<DataType> = Vec::new();
    let mut types_fixed = false;
    let mut chunks: Vec<ChunkMeta> = Vec::new();
    let mut n_rows = 0usize;
    let mut fields: Vec<csv::FieldRef> = Vec::new();

    loop {
        // Until dtypes are fixed we buffer the full inference sample, so
        // inference sees exactly the same leading rows as the in-memory
        // reader; afterwards one chunk's worth of records suffices.
        let needed_records =
            if types_fixed { chunk_rows } else { opts.inference_rows.max(chunk_rows) };
        let needed_lines = needed_records + 1 + usize::from(header.is_none() && opts.has_header);

        // Fill: append blocks until the window plausibly holds enough
        // complete records. The parity walk only visits new bytes.
        let mut in_quotes = false;
        let mut complete = 0usize; // depth-0 newlines seen (record count hint)
        let mut last_safe = 0usize; // offset just past the last depth-0 newline
        let mut walked = 0usize;
        loop {
            for (k, &b) in buf[walked..].iter().enumerate() {
                match b {
                    b'"' => in_quotes = !in_quotes,
                    b'\n' if !in_quotes => {
                        complete += 1;
                        last_safe = walked + k + 1;
                    }
                    _ => {}
                }
            }
            walked = buf.len();
            if eof || (complete >= needed_lines && !must_read) {
                break;
            }
            let start = buf.len();
            buf.resize(start + block, 0);
            let got = file.read(&mut buf[start..])?;
            buf.truncate(start + got);
            total_bytes += got as u64;
            must_read = false;
            if got == 0 {
                eof = true;
            }
        }
        if buf.len() > csv::MAX_CSV_BYTES {
            return Err(TableError::Csv {
                line: line_base,
                message: format!(
                    "scan window grew to {} bytes (limit {}); is a quoted field unterminated?",
                    buf.len(),
                    csv::MAX_CSV_BYTES
                ),
            });
        }

        // Scan the longest safely parseable prefix: up to the last
        // record-boundary newline, or everything at end of input.
        let boundary = if eof { buf.len() } else { last_safe };
        let prefix = std::str::from_utf8(&buf[..boundary])
            .map_err(|e| csv::csv_err(0, format!("input is not valid UTF-8: {e}")))?;
        fields.clear();
        let n_records = csv::scan_records(
            prefix,
            opts.delimiter,
            &mut fields,
            line_base,
            (n_cols > 0).then_some(n_cols),
        )?;
        if n_records == 0 {
            if eof {
                break;
            }
            // Nothing but blank lines (or a partial record): drop the
            // blank prefix and keep reading.
            line_base += count_newlines(&buf[..boundary]);
            buf.drain(..boundary);
            must_read = true;
            continue;
        }
        if n_cols == 0 {
            n_cols = fields.len() / n_records;
        }
        let data: &[csv::FieldRef] =
            if header.is_none() && opts.has_header { &fields[n_cols..] } else { &fields[..] };
        let n_data = data.len() / n_cols;
        if !eof && n_data < needed_records {
            // Blank lines made the newline count optimistic — the window
            // holds fewer records than a chunk. Nothing is consumed;
            // force another block so the next pass sees more.
            must_read = true;
            continue;
        }
        if header.is_none() {
            header = Some(if opts.has_header {
                fields[..n_cols].iter().map(|f| f.content(prefix).into_owned()).collect()
            } else {
                (0..n_cols).map(|i| format!("c{i}")).collect()
            });
        }
        // When the first chunk holds the whole inference sample, its
        // build infers the types on the way, parsing each sampled cell
        // once; `dtypes` stays empty until that chunk is built.
        if !types_fixed {
            let sample_rows = n_data.min(opts.inference_rows);
            if n_data == 0 || chunk_rows < sample_rows {
                dtypes = csv::infer_types(prefix, &data[..sample_rows * n_cols], n_cols, opts);
            }
            types_fixed = true;
        }

        // Emit every full chunk in the window (and the final partial
        // chunk at end of input).
        let mut taken = 0usize;
        while n_data - taken >= chunk_rows || (eof && taken < n_data) {
            let k = chunk_rows.min(n_data - taken);
            let rows = &data[taken * n_cols..(taken + k) * n_cols];
            let fixed = (!dtypes.is_empty()).then_some(&dtypes[..]);
            let built = csv::build_columns(prefix, rows, n_cols, fixed, opts);
            if dtypes.is_empty() {
                dtypes = built.iter().map(|b| b.col.dtype()).collect();
            }
            let mut cols = Vec::with_capacity(n_cols);
            for (c, b) in built.into_iter().enumerate() {
                if b.degraded {
                    // Contradicting cell: the builder re-rendered this
                    // chunk's column as strings; parse the column as
                    // string from the next chunk on.
                    dtypes[c] = DataType::Str;
                    catdb_trace::add_counter(csv::COUNTER_CSV_DEGRADED, 1.0);
                }
                cols.push(b.col);
            }
            let offset = w.pos;
            for col in &cols {
                write_page(w, col, 0..col.len())?;
            }
            chunks.push(ChunkMeta { rows: k as u32, offset });
            n_rows += k;
            taken += k;
            if let Some(observe) = observe.as_deref_mut() {
                let names = header.as_ref().expect("header fixed before first chunk");
                let chunk =
                    Table::from_columns(names.iter().cloned().zip(cols).collect::<Vec<_>>())?;
                observe(&chunk);
            }
        }

        // Carry: keep everything from the first unconsumed record on.
        let consumed = if taken == n_data { boundary } else { data[taken * n_cols].record_start() };
        line_base += count_newlines(&buf[..consumed]);
        buf.drain(..consumed);
        if eof {
            break;
        }
    }

    catdb_trace::add_counter(csv::COUNTER_CSV_BYTES, total_bytes as f64);
    catdb_trace::add_counter(csv::COUNTER_CSV_ROWS, n_rows as f64);

    let mut schema = Schema::default();
    if let Some(names) = header {
        for (name, &dt) in names.iter().zip(&dtypes) {
            schema.push(Field::new(name.clone(), dt))?;
        }
    }
    Ok((schema, chunks, n_rows))
}

// ---------------------------------------------------------------------------
// Page encoding.
// ---------------------------------------------------------------------------

fn write_validity<W: Write>(
    w: &mut W,
    bits: impl Iterator<Item = bool>,
    n: usize,
) -> std::io::Result<()> {
    let mut bytes = vec![0u8; n.div_ceil(8)];
    for (i, set) in bits.enumerate() {
        if set {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    w.write_all(&bytes)
}

/// Write one column page for the row range `r`.
fn write_page<W: Write>(w: &mut W, col: &Column, r: Range<usize>) -> Result<()> {
    let n = r.len();
    let header = |w: &mut W, tag: u8| -> std::io::Result<()> {
        w.write_all(&[tag])?;
        w.write_all(&(n as u32).to_le_bytes())
    };
    match col {
        Column::Int(v) => {
            let v = &v[r];
            header(w, TAG_INT)?;
            write_validity(w, v.iter().map(|x| x.is_some()), n)?;
            for x in v {
                w.write_all(&x.unwrap_or(0).to_le_bytes())?;
            }
        }
        Column::Float(v) => {
            let v = &v[r];
            header(w, TAG_FLOAT)?;
            write_validity(w, v.iter().map(|x| x.is_some()), n)?;
            for x in v {
                w.write_all(&x.unwrap_or(0.0).to_bits().to_le_bytes())?;
            }
        }
        Column::Bool(v) => {
            let v = &v[r];
            header(w, TAG_BOOL)?;
            write_validity(w, v.iter().map(|x| x.is_some()), n)?;
            write_validity(w, v.iter().map(|x| x.unwrap_or(false)), n)?;
        }
        Column::Str(v) => {
            // Dictionary-encode the page: distinct sorted values once,
            // u32 codes per row. The dictionary is built directly from
            // the page's rows (not through the global fingerprint cache)
            // so per-chunk dicts are dropped immediately and RSS stays
            // O(chunk).
            let dict = ValueDict::build_strs(&v[r]);
            header(w, TAG_STR)?;
            w.write_all(&(dict.n_distinct() as u32).to_le_bytes())?;
            for val in dict.values() {
                w.write_all(&(val.len() as u32).to_le_bytes())?;
                w.write_all(val.as_bytes())?;
            }
            for &code in dict.codes() {
                w.write_all(&code.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

fn bad_page(msg: impl Into<String>) -> TableError {
    TableError::Io(format!("corrupt spill page: {}", msg.into()))
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<()> {
    r.read_exact(buf).map_err(|e| bad_page(e.to_string()))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_validity<R: Read>(r: &mut R, n: usize) -> Result<Vec<bool>> {
    let mut bytes = vec![0u8; n.div_ceil(8)];
    read_exact(r, &mut bytes)?;
    Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
}

/// Read one column page, validating the stored row count.
fn read_page<R: Read>(r: &mut R, expect_rows: usize) -> Result<Column> {
    let mut tag = [0u8; 1];
    read_exact(r, &mut tag)?;
    let n = read_u32(r)? as usize;
    if n != expect_rows {
        return Err(bad_page(format!("page holds {n} rows, chunk directory says {expect_rows}")));
    }
    match tag[0] {
        TAG_INT => {
            let valid = read_validity(r, n)?;
            let mut v = Vec::with_capacity(n);
            let mut b = [0u8; 8];
            for present in valid {
                read_exact(r, &mut b)?;
                v.push(present.then_some(i64::from_le_bytes(b)));
            }
            Ok(Column::Int(v))
        }
        TAG_FLOAT => {
            let valid = read_validity(r, n)?;
            let mut v = Vec::with_capacity(n);
            let mut b = [0u8; 8];
            for present in valid {
                read_exact(r, &mut b)?;
                v.push(present.then_some(f64::from_bits(u64::from_le_bytes(b))));
            }
            Ok(Column::Float(v))
        }
        TAG_BOOL => {
            let valid = read_validity(r, n)?;
            let bits = read_validity(r, n)?;
            Ok(Column::Bool(valid.into_iter().zip(bits).map(|(p, b)| p.then_some(b)).collect()))
        }
        TAG_STR => {
            let n_dict = read_u32(r)? as usize;
            let mut dict = Vec::with_capacity(n_dict);
            for _ in 0..n_dict {
                let len = read_u32(r)? as usize;
                let mut bytes = vec![0u8; len];
                read_exact(r, &mut bytes)?;
                dict.push(String::from_utf8(bytes).map_err(|e| bad_page(e.to_string()))?);
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let code = read_u32(r)?;
                if code == NULL_CODE {
                    v.push(None);
                } else {
                    let val = dict
                        .get(code as usize)
                        .ok_or_else(|| bad_page(format!("dict code {code} >= {n_dict}")))?;
                    v.push(Some(val.clone()));
                }
            }
            Ok(Column::Str(v))
        }
        t => Err(bad_page(format!("unknown dtype tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_csv_path;

    fn tmp_csv(name: &str, content: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("catdb-chunked-test-{}-{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    fn reassemble(ct: &ChunkedTable) -> Table {
        let mut out: Option<Table> = None;
        for i in 0..ct.n_chunks() {
            let c = ct.chunk(i).unwrap();
            out = Some(match out {
                None => c,
                Some(t) => t.vstack(&c).unwrap(),
            });
        }
        out.unwrap_or_else(Table::empty)
    }

    fn mixed_csv(rows: usize) -> String {
        let mut s = String::from("id,score,name,flag\n");
        for i in 0..rows {
            match i % 5 {
                0 => s.push_str(&format!("{i},{}.25,\"row, {i}\",true\n", i * 3)),
                1 => s.push_str(&format!("{i},,\"say \"\"hi\"\" {i}\",false\n")),
                2 => s.push_str(&format!("{i},{}.5,NA,true\r\n", i * 2)),
                3 => s.push('\n'), // blank line: skipped by the scanner
                _ => s.push_str(&format!("{i},-{i}.75,plain {i},\n")),
            }
        }
        s
    }

    #[test]
    fn streamed_ingestion_matches_in_memory_reader() {
        let text = mixed_csv(533);
        let path = tmp_csv("roundtrip.csv", &text);
        let opts = CsvOptions::default();
        let whole = read_csv_path(&path, &opts).unwrap();
        // Small chunk + tiny block sizes force many window carries.
        for (chunk_rows, block) in [(64, 64), (97, 256), (1024, 100_000)] {
            let ct = ChunkedTable::from_csv_path_block(&path, &opts, chunk_rows, block).unwrap();
            assert_eq!(ct.n_rows(), whole.n_rows());
            assert_eq!(ct.schema(), whole.schema());
            assert_eq!(ct.n_chunks(), whole.n_rows().div_ceil(chunk_rows));
            for i in 0..ct.n_chunks().saturating_sub(1) {
                assert_eq!(ct.chunk_len(i), chunk_rows, "interior chunk {i} not full");
            }
            assert_eq!(reassemble(&ct), whole, "chunk_rows={chunk_rows} block={block}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn late_type_contradiction_degrades_all_chunks_to_string() {
        // Column b parses as Int for the first 200 rows, then turns
        // textual: the final dtype must be Str and earlier chunks must
        // come back rendered as strings.
        let mut text = String::from("a,b\n");
        for i in 0..200 {
            text.push_str(&format!("{i},{}\n", i * 7));
        }
        text.push_str("200,oops\n");
        let path = tmp_csv("degrade.csv", &text);
        let opts = CsvOptions { inference_rows: 50, ..CsvOptions::default() };
        let whole = read_csv_path(&path, &opts).unwrap();
        let ct = ChunkedTable::from_csv_path_block(&path, &opts, 64, 128).unwrap();
        assert_eq!(ct.schema().fields()[1].dtype, DataType::Str);
        assert_eq!(reassemble(&ct), whole);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_table_round_trips_all_dtypes() {
        let table = Table::from_columns(vec![
            ("i", Column::Int(vec![Some(1), None, Some(-3), Some(4), Some(5)])),
            ("f", Column::Float(vec![Some(1.5), Some(f64::MIN), None, Some(0.0), Some(-2.25)])),
            (
                "s",
                Column::Str(vec![
                    Some("a".into()),
                    None,
                    Some("b,\"c\"".into()),
                    Some("".into()),
                    Some("a".into()),
                ]),
            ),
            ("b", Column::Bool(vec![Some(true), Some(false), None, Some(true), None])),
        ])
        .unwrap();
        let ct = ChunkedTable::from_table(&table, 2).unwrap();
        assert_eq!(ct.n_chunks(), 3);
        assert_eq!(reassemble(&ct), table);
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let table = Table::from_columns(vec![("x", Column::from_i64(vec![1, 2, 3]))]).unwrap();
        let ct = ChunkedTable::from_table(&table, 2).unwrap();
        assert!(ct.spill_bytes() > 0);
        let spill = ct.path.clone();
        assert!(spill.exists());
        drop(ct);
        assert!(!spill.exists());
    }

    #[test]
    fn headerless_and_empty_inputs() {
        let path = tmp_csv("headerless.csv", "1,x\n2,y\n3,z\n");
        let opts = CsvOptions { has_header: false, ..CsvOptions::default() };
        let ct = ChunkedTable::from_csv_path_block(&path, &opts, 2, 64).unwrap();
        assert_eq!(ct.schema().names(), vec!["c0", "c1"]);
        assert_eq!(ct.n_rows(), 3);
        assert_eq!(reassemble(&ct), read_csv_path(&path, &opts).unwrap());
        std::fs::remove_file(&path).unwrap();

        let path = tmp_csv("empty.csv", "");
        let ct = ChunkedTable::from_csv_path_block(&path, &CsvOptions::default(), 4, 64).unwrap();
        assert_eq!(ct.n_rows(), 0);
        assert_eq!(ct.n_chunks(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
