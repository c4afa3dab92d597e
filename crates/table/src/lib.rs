//! # catdb-table — columnar tabular engine
//!
//! The storage substrate for the CatDB reproduction: typed columns with
//! validity masks, schemas, CSV I/O with type inference, joins for
//! multi-table datasets, and deterministic sampling / train-test splitting.
//!
//! Everything downstream (profiling, catalog refinement, ML pipelines,
//! dataset generators) operates on [`Table`].
//!
//! ```
//! use catdb_table::{Table, Column, Value};
//!
//! let t = Table::from_columns(vec![
//!     ("age", Column::from_i64(vec![31, 45, 27])),
//!     ("city", Column::from_strings(vec!["Berlin", "Montreal", "Berlin"])),
//! ]).unwrap();
//! assert_eq!(t.n_rows(), 3);
//! assert_eq!(t.value(1, "city").unwrap(), Value::Str("Montreal".into()));
//! ```

mod chunked;
mod column;
mod csv;
mod dict;
mod error;
mod fingerprint;
mod numeric;
mod schema;
mod shortest;
mod table;
mod value;

pub use chunked::{ChunkedTable, COUNTER_CSV_SPILL_BYTES, DEFAULT_CHUNK_ROWS};
pub use column::Column;
pub use csv::{
    read_csv, read_csv_path, read_csv_str, to_csv_string, write_csv, CsvOptions, COUNTER_CSV_BYTES,
    COUNTER_CSV_DEGRADED, COUNTER_CSV_ROWS, DEFAULT_NULL_MARKERS, MAX_CSV_BYTES, SPAN_CSV_INGEST,
};
pub use dict::{
    column_dict, column_dict_with_fingerprint, ValueDict, COUNTER_DICT_HITS, COUNTER_DICT_MISSES,
    NULL_CODE,
};
pub use error::{Result, TableError};
pub use fingerprint::{column_fingerprint, table_fingerprint_from_columns};
pub use numeric::NumericSummary;
pub use schema::{Field, Schema};
pub use table::Table;
pub use value::{DataType, Value};
