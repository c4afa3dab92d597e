//! The `Table`: an ordered set of equally-long typed columns.

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::schema::{Field, Schema};
use crate::value::Value;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;

/// An immutable-length, columnar table. Column mutation goes through typed
/// accessors; structural changes (add/drop/rename) keep schema and storage
/// in lock step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Table {
    /// A table with no columns and no rows.
    pub fn empty() -> Table {
        Table { schema: Schema::default(), columns: Vec::new(), n_rows: 0 }
    }

    /// Build a table from `(name, column)` pairs. All columns must have the
    /// same length and names must be unique.
    pub fn from_columns(cols: Vec<(impl Into<String>, Column)>) -> Result<Table> {
        let mut schema = Schema::default();
        let mut columns = Vec::with_capacity(cols.len());
        let mut n_rows = None;
        for (name, col) in cols {
            let name = name.into();
            let expected = *n_rows.get_or_insert(col.len());
            if col.len() != expected {
                return Err(TableError::LengthMismatch {
                    expected,
                    actual: col.len(),
                    column: name,
                });
            }
            schema.push(Field::new(name, col.dtype()))?;
            columns.push(col);
        }
        Ok(Table { schema, columns, n_rows: n_rows.unwrap_or(0) })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::ColumnNotFound(name.to_string()))?;
        Ok(&self.columns[idx])
    }

    /// Mutable column by name. Callers must not change the column length;
    /// use [`Table::filter`] / [`Table::take`] for row-set changes.
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::ColumnNotFound(name.to_string()))?;
        Ok(&mut self.columns[idx])
    }

    /// Consume the table into its `(name, column)` pairs, in schema order,
    /// without copying any column.
    pub fn into_columns(self) -> Vec<(String, Column)> {
        self.schema.fields().iter().map(|f| f.name.clone()).zip(self.columns).collect()
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Iterate `(field, column)` pairs in schema order.
    pub fn iter_columns(&self) -> impl Iterator<Item = (&Field, &Column)> {
        self.schema.fields().iter().zip(self.columns.iter())
    }

    /// Value at (`row`, `column name`).
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfBounds { index: row, len: self.n_rows });
        }
        Ok(self.column(name)?.get(row))
    }

    /// All values of row `row`, in schema order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfBounds { index: row, len: self.n_rows });
        }
        Ok(self.columns.iter().map(|c| c.get(row)).collect())
    }

    /// Add a column; errors on duplicate name or length mismatch.
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<()> {
        let name = name.into();
        if self.n_cols() > 0 && col.len() != self.n_rows {
            return Err(TableError::LengthMismatch {
                expected: self.n_rows,
                actual: col.len(),
                column: name,
            });
        }
        if self.n_cols() == 0 {
            self.n_rows = col.len();
        }
        self.schema.push(Field::new(name, col.dtype()))?;
        self.columns.push(col);
        Ok(())
    }

    /// Remove a column by name and return it.
    pub fn drop_column(&mut self, name: &str) -> Result<Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::ColumnNotFound(name.to_string()))?;
        self.schema.remove(name)?;
        Ok(self.columns.remove(idx))
    }

    /// Replace an existing column, keeping its position. The replacement may
    /// change the physical type (e.g. string → float after refinement).
    pub fn replace_column(&mut self, name: &str, col: Column) -> Result<()> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::ColumnNotFound(name.to_string()))?;
        if col.len() != self.n_rows {
            return Err(TableError::LengthMismatch {
                expected: self.n_rows,
                actual: col.len(),
                column: name.to_string(),
            });
        }
        self.schema.set_dtype(idx, col.dtype());
        self.columns[idx] = col;
        Ok(())
    }

    pub fn rename_column(&mut self, old: &str, new: impl Into<String>) -> Result<()> {
        self.schema.rename(old, new)
    }

    /// New table containing the rows at `indices`, in order (duplicates allowed).
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.n_rows) {
            return Err(TableError::RowOutOfBounds { index: bad, len: self.n_rows });
        }
        Ok(Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            n_rows: indices.len(),
        })
    }

    /// New table containing the contiguous row range `r` (cheaper than
    /// [`Table::take`] — no index indirection).
    pub fn slice_rows(&self, r: std::ops::Range<usize>) -> Result<Table> {
        if r.end > self.n_rows || r.start > r.end {
            return Err(TableError::RowOutOfBounds { index: r.end, len: self.n_rows });
        }
        Ok(Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(r.clone())).collect(),
            n_rows: r.len(),
        })
    }

    /// New table with the rows for which `pred(row_index)` returns true.
    pub fn filter(&self, mut pred: impl FnMut(usize) -> bool) -> Table {
        let indices: Vec<usize> = (0..self.n_rows).filter(|&i| pred(i)).collect();
        self.take(&indices).expect("indices in range by construction")
    }

    /// New table with only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let mut cols = Vec::with_capacity(names.len());
        for &name in names {
            cols.push((name.to_string(), self.column(name)?.clone()));
        }
        Table::from_columns(cols)
    }

    /// Vertically concatenate `other` below `self`. Schemas must match
    /// exactly (names, order, and types).
    pub fn vstack(&self, other: &Table) -> Result<Table> {
        if self.schema != other.schema {
            return Err(TableError::Invalid("vstack requires identical schemas".into()));
        }
        let mut columns = self.columns.clone();
        for (a, b) in columns.iter_mut().zip(other.columns.iter()) {
            a.extend_from(b)?;
        }
        Ok(Table { schema: self.schema.clone(), columns, n_rows: self.n_rows + other.n_rows })
    }

    /// Deterministic shuffled split into (train, test); `train_fraction` in
    /// (0, 1). The paper uses a 70/30 split for all experiments.
    pub fn train_test_split(&self, train_fraction: f64, seed: u64) -> Result<(Table, Table)> {
        if !(0.0..=1.0).contains(&train_fraction) {
            return Err(TableError::Invalid(format!(
                "train_fraction {train_fraction} outside [0, 1]"
            )));
        }
        let mut indices: Vec<usize> = (0..self.n_rows).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let cut = (self.n_rows as f64 * train_fraction).round() as usize;
        let (train_idx, test_idx) = indices.split_at(cut.min(self.n_rows));
        Ok((self.take(train_idx)?, self.take(test_idx)?))
    }

    /// Deterministic sample of up to `n` rows without replacement.
    pub fn sample(&self, n: usize, seed: u64) -> Table {
        let mut indices: Vec<usize> = (0..self.n_rows).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        indices.truncate(n.min(self.n_rows));
        self.take(&indices).expect("indices in range")
    }

    /// Approximate heap footprint in bytes across all columns.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }

    /// Left hash join with `right` on `left_key` = `right_key`, consuming
    /// `self`.
    ///
    /// Every left row is kept: once per matching right row, in right-row
    /// order, or once with nulls when nothing matches. Rows whose key is
    /// null never match (SQL semantics). Every right column except its key
    /// is appended; a name already in the output gets a `right_prefix`
    /// prefix. Int, bool and string keys hash as typed values, which match
    /// exactly when their renders do; float keys match by render. When no
    /// left row repeats, the left columns move into the output uncopied,
    /// and each right column is filled by one typed gather.
    pub fn left_join(
        self,
        right: &Table,
        left_key: &str,
        right_key: &str,
        right_prefix: &str,
    ) -> Result<Table> {
        let lk = self.column(left_key)?;
        let rk = right.column(right_key)?;
        let (left_rows, right_rows) = match (lk, rk) {
            (Column::Int(l), Column::Int(r)) => {
                left_join_rows(l.iter().copied(), r.iter().copied())
            }
            (Column::Bool(l), Column::Bool(r)) => {
                left_join_rows(l.iter().copied(), r.iter().copied())
            }
            (Column::Str(l), Column::Str(r)) => {
                left_join_rows(l.iter().map(Option::as_deref), r.iter().map(Option::as_deref))
            }
            (Column::Float(l), Column::Float(r)) => {
                let render = |x: &Option<f64>| x.map(|x| Value::Float(x).render());
                left_join_rows(l.iter().map(render), r.iter().map(render))
            }
            _ => {
                return Err(TableError::InvalidJoinKey(format!(
                    "key type mismatch: {} vs {}",
                    lk.dtype(),
                    rk.dtype()
                )))
            }
        };

        let mut out = if left_rows.len() == self.n_rows { self } else { self.take(&left_rows)? };
        for (field, col) in right.iter_columns() {
            if field.name == right_key {
                continue;
            }
            let out_name = if out.schema.contains(&field.name) {
                format!("{right_prefix}{}", field.name)
            } else {
                field.name.clone()
            };
            out.add_column(out_name, col.take_or_null(&right_rows))?;
        }
        Ok(out)
    }
}

/// The row pairs of a left join on `left` = `right` keys: each left row
/// once per matching right row, in right-row order, or once with `None`
/// when nothing matches. Null keys never match.
fn left_join_rows<K: Hash + Eq>(
    left: impl Iterator<Item = Option<K>>,
    right: impl DoubleEndedIterator<Item = Option<K>> + ExactSizeIterator,
) -> (Vec<usize>, Vec<Option<usize>>) {
    // Each key's first right row, and each right row's next row with the
    // same key: walking the rows backwards links every chain in order.
    let mut first: HashMap<K, usize> = HashMap::with_capacity(right.len());
    let mut next = vec![None; right.len()];
    for (r, key) in right.enumerate().rev() {
        if let Some(key) = key {
            next[r] = first.insert(key, r);
        }
    }
    let (lower, _) = left.size_hint();
    let mut left_rows = Vec::with_capacity(lower);
    let mut right_rows = Vec::with_capacity(lower);
    for (l, key) in left.enumerate() {
        let mut matched = key.and_then(|key| first.get(&key).copied());
        if matched.is_none() {
            left_rows.push(l);
            right_rows.push(None);
        }
        while let Some(r) = matched {
            left_rows.push(l);
            right_rows.push(Some(r));
            matched = next[r];
        }
    }
    (left_rows, right_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample_table() -> Table {
        Table::from_columns(vec![
            ("id", Column::from_i64(vec![1, 2, 3, 4])),
            ("name", Column::from_strings(vec!["a", "b", "c", "d"])),
            ("score", Column::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_names() {
        let bad = Table::from_columns(vec![
            ("a", Column::from_i64(vec![1, 2])),
            ("b", Column::from_i64(vec![1])),
        ]);
        assert!(matches!(bad, Err(TableError::LengthMismatch { .. })));
        let dup = Table::from_columns(vec![
            ("a", Column::from_i64(vec![1])),
            ("a", Column::from_i64(vec![2])),
        ]);
        assert!(matches!(dup, Err(TableError::DuplicateColumn(_))));
    }

    #[test]
    fn row_and_value_access() {
        let t = sample_table();
        assert_eq!(t.value(1, "name").unwrap(), Value::Str("b".into()));
        assert_eq!(t.row(0).unwrap().len(), 3);
        assert!(t.value(10, "name").is_err());
        assert!(t.value(0, "zzz").is_err());
    }

    #[test]
    fn take_and_filter() {
        let t = sample_table();
        let sub = t.take(&[2, 0]).unwrap();
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.value(0, "id").unwrap(), Value::Int(3));
        let even = t.filter(|i| t.value(i, "id").unwrap() == Value::Int(2));
        assert_eq!(even.n_rows(), 1);
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let t = sample_table();
        let (tr1, te1) = t.train_test_split(0.75, 42).unwrap();
        let (tr2, te2) = t.train_test_split(0.75, 42).unwrap();
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.n_rows() + te1.n_rows(), t.n_rows());
        let (tr3, _) = t.train_test_split(0.75, 7).unwrap();
        // Different seed may produce a different ordering.
        assert_eq!(tr3.n_rows(), 3);
    }

    #[test]
    fn left_join_repeats_rows_per_match() {
        let left = sample_table();
        let right = Table::from_columns(vec![
            ("key", Column::from_i64(vec![2, 4, 4, 9])),
            ("extra", Column::from_strings(vec!["x", "y", "z", "w"])),
        ])
        .unwrap();
        let joined = left.left_join(&right, "id", "key", "r_").unwrap();
        // id=1 and id=3 match nothing, id=2 once, id=4 twice in right-row order.
        assert_eq!(joined.n_rows(), 5);
        let ids: Vec<Value> = joined.column("id").unwrap().iter_values().collect();
        assert_eq!(ids, [1, 2, 3, 4, 4].map(Value::Int));
        let extra: Vec<Value> = joined.column("extra").unwrap().iter_values().collect();
        let s = |x: &str| Value::Str(x.into());
        assert_eq!(extra, [Value::Null, s("x"), Value::Null, s("y"), s("z")]);
    }

    #[test]
    fn left_join_keeps_unmatched_with_nulls() {
        let left = sample_table();
        let right = Table::from_columns(vec![
            ("key", Column::from_i64(vec![1])),
            ("extra", Column::from_strings(vec!["only"])),
        ])
        .unwrap();
        let joined = left.left_join(&right, "id", "key", "r_").unwrap();
        assert_eq!(joined.n_rows(), 4);
        assert_eq!(joined.value(0, "extra").unwrap(), Value::Str("only".into()));
        assert_eq!(joined.value(1, "extra").unwrap(), Value::Null);
    }

    #[test]
    fn join_prefixes_clashing_names() {
        let left = sample_table();
        let right = Table::from_columns(vec![
            ("key", Column::from_i64(vec![1])),
            ("name", Column::from_strings(vec!["dup"])),
        ])
        .unwrap();
        let joined = left.left_join(&right, "id", "key", "r_").unwrap();
        assert!(joined.schema().contains("r_name"));
        assert_eq!(joined.value(0, "r_name").unwrap(), Value::Str("dup".into()));
        assert_eq!(joined.value(0, "name").unwrap(), Value::Str("a".into()));
    }

    #[test]
    fn left_join_rejects_mismatched_key_types() {
        let right = Table::from_columns(vec![("key", Column::from_strings(vec!["1"]))]).unwrap();
        let err = sample_table().left_join(&right, "id", "key", "r_").unwrap_err();
        assert!(matches!(err, TableError::InvalidJoinKey(_)));
    }

    #[test]
    fn structural_mutations() {
        let mut t = sample_table();
        t.add_column("flag", Column::from_bools(vec![true, false, true, false])).unwrap();
        assert_eq!(t.n_cols(), 4);
        assert!(t.add_column("flag", Column::from_bools(vec![true; 4])).is_err());
        assert!(t.add_column("short", Column::from_bools(vec![true])).is_err());
        t.drop_column("flag").unwrap();
        assert_eq!(t.n_cols(), 3);
        t.rename_column("score", "points").unwrap();
        assert!(t.column("points").is_ok());
        t.replace_column("points", Column::from_strings(vec!["a", "b", "c", "d"])).unwrap();
        assert_eq!(t.column("points").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn vstack_requires_identical_schema() {
        let t = sample_table();
        let stacked = t.vstack(&t).unwrap();
        assert_eq!(stacked.n_rows(), 8);
        let other = Table::from_columns(vec![("id", Column::from_i64(vec![1]))]).unwrap();
        assert!(t.vstack(&other).is_err());
    }
}
