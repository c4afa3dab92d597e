//! Content fingerprints for columns and tables.
//!
//! The dictionary cache (`crate::dict`) and the profiler's memo key
//! derived data by *content*, not by identity:
//! a mutated or rebuilt column hashes to a different fingerprint, so
//! stale entries can never be served and no explicit invalidation hooks
//! are needed on the mutation paths.
//!
//! Only columns are hashed over their values. A column fingerprint is
//! 128 bits — two independently seeded 64-bit SipHash states fed one
//! byte encoding of the raw typed values (no string rendering) — which
//! makes accidental collisions between the few thousand distinct columns
//! a process ever sees vanishingly unlikely. A table fingerprint is derived from its
//! column fingerprints in [`table_fingerprint_from_columns`]: the row
//! count, then each column's name, type and fingerprint, in schema
//! order. So a caller that fingerprints the columns anyway (the profiler
//! does, on the thread pool, and reuses them as dictionary cache keys)
//! gets the table's fingerprint for a hash over a few words per column.
//! Fingerprints are process-local cache keys, never persisted.

use crate::column::Column;
use crate::table::Table;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const SEED_LO: u64 = 0x9E37_79B9_7F4A_7C15;
const SEED_HI: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// 128-bit content fingerprint of a column: type tag plus every value
/// (and its validity) in row order.
pub fn column_fingerprint(col: &Column) -> u128 {
    let mut feed = Feed::new();
    match col {
        Column::Int(v) => feed.rows(0, v, |f, x| f.put(&x.to_le_bytes())),
        // Raw bits: -0.0 and 0.0, and NaN payloads, hash apart, which is
        // fine for a cache key (at worst a bitwise-distinct duplicate
        // misses).
        Column::Float(v) => feed.rows(1, v, |f, x| f.put(&x.to_bits().to_le_bytes())),
        Column::Str(v) => feed.rows(2, v, |f, x| {
            f.put(&(x.len() as u64).to_le_bytes());
            f.put(x.as_bytes());
        }),
        Column::Bool(v) => feed.rows(3, v, |f, x| f.put(&[*x as u8])),
    }
    feed.finish()
}

/// 128-bit content fingerprint of a whole table — row count, schema
/// (names + types, in order) and every column's content — from the
/// table's column fingerprints, in schema order, as
/// [`column_fingerprint`] computes them.
pub fn table_fingerprint_from_columns(table: &Table, columns: &[u128]) -> u128 {
    assert_eq!(columns.len(), table.n_cols(), "one fingerprint per column");
    let hash = |seed: u64| {
        let mut h = DefaultHasher::new();
        seed.hash(&mut h);
        table.n_rows().hash(&mut h);
        for ((field, _), fp) in table.iter_columns().zip(columns) {
            field.name.hash(&mut h);
            field.dtype.name().hash(&mut h);
            fp.hash(&mut h);
        }
        h.finish()
    };
    combine(hash(SEED_LO), hash(SEED_HI))
}

fn combine(lo: u64, hi: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

/// A column's encoding — type tag, row count, then per row a validity
/// byte and the value's bytes (strings length-prefixed), so distinct
/// contents never encode alike — streamed to two differently seeded
/// SipHash states through one buffer: one long write per few KiB
/// instead of a short write per field and hasher.
struct Feed {
    lo: DefaultHasher,
    hi: DefaultHasher,
    buf: Vec<u8>,
}

impl Feed {
    const BUF: usize = 4096;

    fn new() -> Feed {
        let (mut lo, mut hi) = (DefaultHasher::new(), DefaultHasher::new());
        SEED_LO.hash(&mut lo);
        SEED_HI.hash(&mut hi);
        Feed { lo, hi, buf: Vec::with_capacity(Feed::BUF) }
    }

    fn rows<T>(&mut self, tag: u8, rows: &[Option<T>], value: impl Fn(&mut Feed, &T)) {
        self.put(&[tag]);
        self.put(&(rows.len() as u64).to_le_bytes());
        for row in rows {
            match row {
                Some(x) => {
                    self.put(&[1]);
                    value(self, x);
                }
                None => self.put(&[0]),
            }
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.buf.len() + bytes.len() > Feed::BUF {
            self.flush();
        }
        if bytes.len() > Feed::BUF {
            self.lo.write(bytes);
            self.hi.write(bytes);
        } else {
            self.buf.extend_from_slice(bytes);
        }
    }

    fn flush(&mut self) {
        self.lo.write(&self.buf);
        self.hi.write(&self.buf);
        self.buf.clear();
    }

    fn finish(mut self) -> u128 {
        self.flush();
        combine(self.lo.finish(), self.hi.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn equal_content_hashes_equal() {
        let a = Column::from_i64(vec![1, 2, 3]);
        let b = Column::from_i64(vec![1, 2, 3]);
        assert_eq!(column_fingerprint(&a), column_fingerprint(&b));
    }

    #[test]
    fn mutation_changes_the_fingerprint() {
        let a = Column::from_i64(vec![1, 2, 3]);
        let mut b = a.clone();
        b.set(1, Value::Int(99)).unwrap();
        assert_ne!(column_fingerprint(&a), column_fingerprint(&b));
        let mut c = a.clone();
        c.set(1, Value::Null).unwrap();
        assert_ne!(column_fingerprint(&a), column_fingerprint(&c));
    }

    #[test]
    fn type_tag_distinguishes_identical_bit_patterns() {
        let ints = Column::Int(vec![Some(0), None]);
        let bools = Column::Bool(vec![Some(false), None]);
        assert_ne!(column_fingerprint(&ints), column_fingerprint(&bools));
    }

    fn table_fingerprint(table: &Table) -> u128 {
        let columns: Vec<u128> = table.iter_columns().map(|(_, c)| column_fingerprint(c)).collect();
        table_fingerprint_from_columns(table, &columns)
    }

    #[test]
    fn table_fingerprint_sees_renames_and_data() {
        let t1 = Table::from_columns(vec![("a", Column::from_i64(vec![1, 2]))]).unwrap();
        let mut t2 = t1.clone();
        assert_eq!(table_fingerprint(&t1), table_fingerprint(&t2));
        t2.rename_column("a", "b").unwrap();
        assert_ne!(table_fingerprint(&t1), table_fingerprint(&t2));
        let t3 = Table::from_columns(vec![("a", Column::from_i64(vec![1, 3]))]).unwrap();
        assert_ne!(table_fingerprint(&t1), table_fingerprint(&t3));
    }

    fn two_columns() -> Table {
        Table::from_columns(vec![
            ("a", Column::from_i64(vec![1, 2])),
            ("b", Column::from_strings(vec!["x", "y"])),
        ])
        .unwrap()
    }

    #[test]
    fn table_fingerprint_is_derived_from_column_fingerprints() {
        // Only the row count, the schema and the given fingerprints count:
        // another table's column fingerprints give that table's result.
        let t = two_columns();
        let mut other = t.clone();
        other.column_mut("a").unwrap().set(1, Value::Int(3)).unwrap();
        let columns: Vec<u128> = other.iter_columns().map(|(_, c)| column_fingerprint(c)).collect();
        assert_eq!(table_fingerprint_from_columns(&t, &columns), table_fingerprint(&other));
        assert_ne!(table_fingerprint(&t), table_fingerprint(&other));
    }

    #[test]
    fn table_fingerprint_sees_retypes_reorders_and_row_counts() {
        // Same name, rows and validity; only the type differs.
        let ints = Table::from_columns(vec![("a", Column::Int(vec![None, None]))]).unwrap();
        let floats = Table::from_columns(vec![("a", Column::Float(vec![None, None]))]).unwrap();
        assert_ne!(table_fingerprint(&ints), table_fingerprint(&floats));

        let t = two_columns();
        let reordered = Table::from_columns(vec![
            ("b", Column::from_strings(vec!["x", "y"])),
            ("a", Column::from_i64(vec![1, 2])),
        ])
        .unwrap();
        assert_ne!(table_fingerprint(&t), table_fingerprint(&reordered));
        assert_ne!(table_fingerprint(&t), table_fingerprint(&t.slice_rows(0..1).unwrap()));

        // With every column dropped only the row count is left to hash.
        let rows_only = |n: usize| {
            let mut t = Table::from_columns(vec![("a", Column::from_i64(vec![0; n]))]).unwrap();
            t.drop_column("a").unwrap();
            assert_eq!((t.n_cols(), t.n_rows()), (0, n));
            t
        };
        assert_ne!(table_fingerprint(&rows_only(2)), table_fingerprint(&rows_only(1)));
    }
}
