//! Typed columnar storage with per-element validity.
//!
//! Columns are homogeneously typed; missing entries are represented by a
//! validity mask rather than sentinel values so that statistics never
//! confuse "no value" with "zero". String columns keep owned strings — at
//! the row counts used by the CatDB evaluation (≤ a few hundred thousand)
//! this is simpler and fast enough; dictionary encoding happens downstream
//! in the catalog for categorical features.

use crate::error::{Result, TableError};
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};

/// A single typed column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Str(Vec<Option<String>>),
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// An empty column of the given physical type.
    pub fn empty(dtype: DataType) -> Column {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Column {
        match dtype {
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(Vec::with_capacity(cap)),
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
        }
    }

    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at `idx`; `Value::Null` for missing entries.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()` (same contract as slice indexing).
    pub fn get(&self, idx: usize) -> Value {
        match self {
            Column::Int(v) => v[idx].map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v[idx].map(Value::Float).unwrap_or(Value::Null),
            Column::Str(v) => v[idx].clone().map(Value::Str).unwrap_or(Value::Null),
            Column::Bool(v) => v[idx].map(Value::Bool).unwrap_or(Value::Null),
        }
    }

    /// Whether the entry at `idx` is missing.
    pub fn is_null_at(&self, idx: usize) -> bool {
        match self {
            Column::Int(v) => v[idx].is_none(),
            Column::Float(v) => v[idx].is_none(),
            Column::Str(v) => v[idx].is_none(),
            Column::Bool(v) => v[idx].is_none(),
        }
    }

    /// Append a value, coercing nulls; returns an error on type mismatch.
    /// Ints are accepted into float columns (widening); nothing else coerces.
    pub fn push(&mut self, value: Value) -> Result<()> {
        let type_err = |col: &Column, v: &Value| TableError::TypeMismatch {
            column: String::new(),
            expected: col.dtype().name(),
            actual: v.data_type().map(|t| t.name()).unwrap_or("null"),
        };
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(Some(x)),
            (Column::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Str(x)) => v.push(Some(x)),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (col, v) => return Err(type_err(col, &v)),
        }
        Ok(())
    }

    /// Append a null entry.
    pub fn push_null(&mut self) {
        match self {
            Column::Int(v) => v.push(None),
            Column::Float(v) => v.push(None),
            Column::Str(v) => v.push(None),
            Column::Bool(v) => v.push(None),
        }
    }

    /// Number of missing entries.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Str(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Iterate values as `Value`s (allocates for strings).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Numeric view: `None` where missing or non-numeric. Strings that parse
    /// as numbers are converted (important for dirty real-world data where a
    /// numeric column arrives as text).
    pub fn to_f64_vec(&self) -> Vec<Option<f64>> {
        match self {
            Column::Int(v) => v.iter().map(|x| x.map(|i| i as f64)).collect(),
            Column::Float(v) => v.clone(),
            Column::Bool(v) => v.iter().map(|x| x.map(|b| if b { 1.0 } else { 0.0 })).collect(),
            Column::Str(v) => {
                v.iter().map(|x| x.as_ref().and_then(|s| s.trim().parse::<f64>().ok())).collect()
            }
        }
    }

    /// Copy out the contiguous row range `r` as a new column.
    ///
    /// # Panics
    /// Panics if the range is out of bounds (same contract as slice
    /// indexing).
    pub fn slice(&self, r: std::ops::Range<usize>) -> Column {
        match self {
            Column::Int(v) => Column::Int(v[r].to_vec()),
            Column::Float(v) => Column::Float(v[r].to_vec()),
            Column::Str(v) => Column::Str(v[r].to_vec()),
            Column::Bool(v) => Column::Bool(v[r].to_vec()),
        }
    }

    /// Gather a new column containing the rows at `indices` in order.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Gather a new column holding the row at `indices[i]` in row `i`, or
    /// a null where the index is `None`.
    pub(crate) fn take_or_null(&self, indices: &[Option<usize>]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|i| i.and_then(|i| v[i])).collect()),
            Column::Float(v) => {
                Column::Float(indices.iter().map(|i| i.and_then(|i| v[i])).collect())
            }
            Column::Str(v) => {
                Column::Str(indices.iter().map(|i| i.and_then(|i| v[i].clone())).collect())
            }
            Column::Bool(v) => Column::Bool(indices.iter().map(|i| i.and_then(|i| v[i])).collect()),
        }
    }

    /// Move every row of `other` onto the end of `self`, leaving `other`
    /// empty; errors if the types differ. Unlike [`Column::extend_from`]
    /// this never clones cell payloads, which is what lets the parallel
    /// CSV reader stitch chunk-local columns together without copying
    /// every string a second time.
    pub fn append(&mut self, other: &mut Column) -> Result<()> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.append(b),
            (Column::Float(a), Column::Float(b)) => a.append(b),
            (Column::Str(a), Column::Str(b)) => a.append(b),
            (Column::Bool(a), Column::Bool(b)) => a.append(b),
            (a, b) => {
                return Err(TableError::TypeMismatch {
                    column: String::new(),
                    expected: a.dtype().name(),
                    actual: b.dtype().name(),
                })
            }
        }
        Ok(())
    }

    /// Append all rows of `other`; errors if the types differ.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Float(a), Column::Float(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend(b.iter().cloned()),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(TableError::TypeMismatch {
                    column: String::new(),
                    expected: a.dtype().name(),
                    actual: b.dtype().name(),
                })
            }
        }
        Ok(())
    }

    /// Build an int column from plain values.
    pub fn from_i64(values: Vec<i64>) -> Column {
        Column::Int(values.into_iter().map(Some).collect())
    }

    /// Build a float column from plain values.
    pub fn from_f64(values: Vec<f64>) -> Column {
        Column::Float(values.into_iter().map(Some).collect())
    }

    /// Build a string column from plain values.
    pub fn from_strings<S: Into<String>>(values: Vec<S>) -> Column {
        Column::Str(values.into_iter().map(|s| Some(s.into())).collect())
    }

    /// Build a bool column from plain values.
    pub fn from_bools(values: Vec<bool>) -> Column {
        Column::Bool(values.into_iter().map(Some).collect())
    }

    /// Set entry `idx` to `value` (same coercion rules as [`Column::push`]).
    pub fn set(&mut self, idx: usize, value: Value) -> Result<()> {
        let len = self.len();
        if idx >= len {
            return Err(TableError::RowOutOfBounds { index: idx, len });
        }
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v[idx] = Some(x),
            (Column::Int(v), Value::Null) => v[idx] = None,
            (Column::Float(v), Value::Float(x)) => v[idx] = Some(x),
            (Column::Float(v), Value::Int(x)) => v[idx] = Some(x as f64),
            (Column::Float(v), Value::Null) => v[idx] = None,
            (Column::Str(v), Value::Str(x)) => v[idx] = Some(x),
            (Column::Str(v), Value::Null) => v[idx] = None,
            (Column::Bool(v), Value::Bool(x)) => v[idx] = Some(x),
            (Column::Bool(v), Value::Null) => v[idx] = None,
            (col, v) => {
                return Err(TableError::TypeMismatch {
                    column: String::new(),
                    expected: col.dtype().name(),
                    actual: v.data_type().map(|t| t.name()).unwrap_or("null"),
                })
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes (used for OOM modelling in the
    /// AutoML baselines).
    pub fn approx_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * std::mem::size_of::<Option<i64>>(),
            Column::Float(v) => v.len() * std::mem::size_of::<Option<f64>>(),
            Column::Bool(v) => v.len() * std::mem::size_of::<Option<bool>>(),
            Column::Str(v) => v
                .iter()
                .map(|s| std::mem::size_of::<Option<String>>() + s.as_ref().map_or(0, |s| s.len()))
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_respects_types() {
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        assert!(c.push(Value::Str("x".into())).is_err());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Value::Int(1));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.get(0), Value::Float(3.0));
    }

    #[test]
    fn take_gathers_in_order() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0, 0]);
        assert_eq!(t.get(0), Value::Int(40));
        assert_eq!(t.get(1), Value::Int(10));
        assert_eq!(t.get(2), Value::Int(10));
    }

    #[test]
    fn numeric_view_parses_strings() {
        let c = Column::Str(vec![Some("1.5".into()), Some("x".into()), None]);
        assert_eq!(c.to_f64_vec(), vec![Some(1.5), None, None]);
    }

    #[test]
    fn set_replaces_and_bounds_checks() {
        let mut c = Column::from_f64(vec![1.0, 2.0]);
        c.set(1, Value::Float(9.0)).unwrap();
        assert_eq!(c.get(1), Value::Float(9.0));
        assert!(c.set(5, Value::Null).is_err());
    }

    #[test]
    fn extend_from_appends_same_type() {
        let mut a = Column::from_i64(vec![1]);
        let b = Column::from_i64(vec![2, 3]);
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a.extend_from(&Column::from_f64(vec![1.0])).is_err());
    }
}
