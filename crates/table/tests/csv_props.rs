//! Property tests for CSV ingestion: `read_csv_str` never panics,
//! whatever the bytes, and the out-of-core reader agrees with it.
//! Concatenating the chunks of `ChunkedTable::from_csv_path` at 1, 7 and
//! 64 rows per chunk gives back the in-memory table for every accepted
//! input whose inferred dtypes hold over the whole file. Inputs where a
//! cell past the inference sample contradicts its column's dtype are left
//! out: there the chunked reader keeps earlier pages typed, the divergence
//! documented in `chunked.rs`.
//!
//! The proptest shim does not shrink; a failing case is minimised by hand
//! into a fixed test at the end of this file.

use catdb_table::{read_csv_str, ChunkedTable, CsvOptions, Table, COUNTER_CSV_DEGRADED};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pieces of CSV text: separators, line ends, quotes, typed-looking
/// cells, null markers, padding and non-ASCII bytes.
const TOKENS: &[&str] = &[
    ",",
    ",",
    "\n",
    "\n",
    "\r\n",
    "\r",
    "\"",
    "\"\"",
    "a",
    "b c",
    "1",
    "-2",
    "007",
    "3.5",
    "-0.0",
    "1e3",
    "1e999",
    "nan",
    "inf",
    "true",
    "FALSE",
    "NA",
    "null",
    "",
    " ",
    "\t",
    "é",
    "\u{0}",
    ";",
    "x\"y",
    "9223372036854775808",
];

/// Cells for the grid generator: each column tends to one type, with a
/// few values of other types mixed in.
const CELLS: &[&str] = &[
    "1",
    "-2",
    "007",
    "42",
    "3.5",
    "-0.0",
    "1e3",
    "true",
    "false",
    "",
    "NA",
    "null",
    "a",
    "b c",
    "\"q,uoted\"",
    "\"say \"\"hi\"\"\"",
    "é",
    " 5",
    "nan",
];

fn token_soup(picks: &[usize]) -> String {
    picks.iter().map(|&i| TOKENS[i % TOKENS.len()]).collect()
}

/// A header plus `rows` rows of `cols` cells; cell `(r, c)` is drawn from
/// a per-column pool so columns are mostly homogeneous.
fn grid(cols: usize, picks: &[usize], crlf: bool) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut out: String = (0..cols).map(|c| format!("c{c}")).collect::<Vec<_>>().join(",");
    out.push_str(eol);
    for row in picks.chunks(cols) {
        let cells: Vec<&str> = row
            .iter()
            .enumerate()
            .map(|(c, &p)| {
                // Mostly the column's own cell, sometimes any cell.
                let i = if p % 5 == 0 { p / 5 } else { c * 3 + p % 3 };
                CELLS[i % CELLS.len()]
            })
            .collect();
        out.push_str(&cells.join(","));
        out.push_str(eol);
    }
    out
}

fn options(inference_rows: usize) -> CsvOptions {
    CsvOptions { inference_rows, ..CsvOptions::default() }
}

/// Parse, turning a panic into a failure that names the input.
fn parse(text: &str, opts: &CsvOptions) -> Option<Table> {
    catch_unwind(AssertUnwindSafe(|| read_csv_str(text, opts)))
        .unwrap_or_else(|_| panic!("read_csv_str panicked on {text:?}"))
        .ok()
}

/// Columns rendered with their variant and every value, so `None` and
/// `Some("")` or `NaN` and `NaN` compare as what they are.
fn content(table: &Table) -> Vec<(String, String)> {
    table.iter_columns().map(|(f, c)| (format!("{f:?}"), format!("{c:?}"))).collect()
}

/// The chunked reader's view of `text`, reassembled in memory.
fn chunked(text: &str, opts: &CsvOptions, chunk_rows: usize) -> (Vec<(String, String)>, usize) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "catdb-csv-props-{}-{}.csv",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, text).unwrap();
    let ct = ChunkedTable::from_csv_path(&path, opts, chunk_rows);
    std::fs::remove_file(&path).unwrap();
    let ct = ct.unwrap_or_else(|e| panic!("chunked reader rejected {text:?}: {e}"));
    let mut whole: Option<Table> = None;
    for i in 0..ct.n_chunks() {
        let c = ct.chunk(i).unwrap();
        whole = Some(match whole {
            None => c,
            Some(t) => t.vstack(&c).unwrap(),
        });
    }
    let n_rows = ct.n_rows();
    let cols = match whole {
        Some(t) => content(&t),
        None => ct.schema().fields().iter().map(|f| (format!("{f:?}"), String::new())).collect(),
    };
    (cols, n_rows)
}

/// The in-memory table and the chunked reassembly at each of
/// `chunk_sizes` agree whenever the dtypes inferred from the sample hold
/// over the whole input.
fn check_chunked_matches(text: &str, inference_rows: usize, chunk_sizes: &[usize]) {
    let opts = options(inference_rows);
    let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
    let parsed = {
        let _guard = catdb_trace::install(sink.clone());
        parse(text, &opts)
    };
    let Some(table) = parsed else {
        return;
    };
    if sink.snapshot().counters.contains_key(COUNTER_CSV_DEGRADED) {
        return; // a late cell degraded a column: the documented divergence
    }
    let want = content(&table);
    for &chunk_rows in chunk_sizes {
        let (got, n_rows) = chunked(text, &opts, chunk_rows);
        assert_eq!(n_rows, table.n_rows(), "{text:?} at {chunk_rows} rows per chunk");
        if table.n_rows() == 0 {
            let names = |c: &[(String, String)]| c.iter().map(|p| p.0.clone()).collect::<Vec<_>>();
            assert_eq!(names(&got), names(&want), "{text:?} at {chunk_rows} rows per chunk");
        } else {
            assert_eq!(got, want, "{text:?} at {chunk_rows} rows per chunk");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 0..96)) {
        parse(&String::from_utf8_lossy(&bytes), &CsvOptions::default());
    }

    #[test]
    fn read_never_panics_on_token_soup(picks in prop::collection::vec(0usize..1000, 0..40)) {
        let text = token_soup(&picks);
        parse(&text, &CsvOptions::default());
        parse(&text, &options(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chunks_concatenate_to_the_in_memory_table_on_token_soup(
        picks in prop::collection::vec(0usize..1000, 0..40),
        inference in 1usize..6,
    ) {
        check_chunked_matches(&token_soup(&picks), inference, &[1, 7, 64]);
    }

    #[test]
    fn chunks_concatenate_to_the_in_memory_table_on_grids(
        cols in 1usize..5,
        picks in prop::collection::vec(0usize..1000, 0..160),
        crlf in 0usize..2,
        inference in 1usize..64,
    ) {
        check_chunked_matches(&grid(cols, &picks, crlf == 1), inference, &[1, 7, 64]);
    }

    /// Chunks at least as long as the inference sample: the first
    /// chunk's build infers the types itself instead of a separate
    /// inference pass over the same rows.
    #[test]
    fn chunks_holding_the_sample_match_the_in_memory_table(
        cols in 1usize..5,
        picks in prop::collection::vec(0usize..1000, 0..160),
        crlf in 0usize..2,
        inference in 1usize..48,
        extra in 0usize..24,
    ) {
        let text = grid(cols, &picks, crlf == 1);
        check_chunked_matches(&text, inference, &[inference, inference + extra]);
    }
}

// No run of the suites above found a counterexample; the fixed cases
// below pin the shapes that stress the chunked reader's window carry
// and the one divergence the properties leave out.

#[test]
fn quoted_newlines_and_crlf_agree_at_every_chunk_size() {
    let text = "a,b\r\n1,\"x\ny\"\r\n2,\"p,\"\"q\"\"\"\r\n,\r\n4,\"\r\n\"\r\n";
    assert_eq!(parse(text, &options(1)).map(|t| t.n_rows()), Some(4));
    for inference in [1, 2, 1000] {
        check_chunked_matches(text, inference, &[1, 7, 64]);
    }
}

#[test]
fn a_late_contradiction_is_the_documented_divergence() {
    // Inference over two rows says int; `x` degrades the column. In
    // memory the column is re-read as text and keeps `007`; the chunked
    // reader wrote the first chunk as ints, so it reads back `7`.
    let text = "c\n007\n1\nx\n";
    let opts = options(2);
    let table = parse(text, &opts).unwrap();
    assert_eq!(content(&table)[0].1, r#"Str([Some("007"), Some("1"), Some("x")])"#);
    let (got, _) = chunked(text, &opts, 1);
    assert_eq!(got[0].1, r#"Str([Some("7"), Some("1"), Some("x")])"#);
}

#[test]
fn a_contradiction_inside_the_first_chunk_reads_as_in_memory() {
    // Inference over two rows says int; `x` arrives within the first
    // chunk, whose build re-renders the column as text, so `007` keeps
    // its zeros as it does in memory, and both count one degradation.
    let text = "c,d\n007,1.5\n1,2\nx,3\n4,4\n";
    let opts = options(2);
    let degraded = |read: &dyn Fn() -> Vec<(String, String)>| {
        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        let guard = catdb_trace::install(sink.clone());
        let cols = read();
        drop(guard);
        (cols, sink.snapshot().counters.get(COUNTER_CSV_DEGRADED).copied())
    };
    let (want, want_degraded) = degraded(&|| content(&parse(text, &opts).unwrap()));
    assert_eq!(want[0].1, r#"Str([Some("007"), Some("1"), Some("x"), Some("4")])"#);
    for chunk_rows in [3, 4, 64] {
        let (got, got_degraded) = degraded(&|| chunked(text, &opts, chunk_rows).0);
        assert_eq!(got, want, "at {chunk_rows} rows per chunk");
        assert_eq!(got_degraded, want_degraded, "at {chunk_rows} rows per chunk");
    }
}
