//! Categorical encoders: one-hot, ordinal, k-hot (list features), and
//! feature hashing. One-hot and k-hot reproduce the paper's Figure 5
//! behaviour (Skills → one 0/1 column per extracted list item).

use crate::transform::{require_column, Result, Transform, TransformError};
use catdb_table::{column_dict, Column, DataType, Table, NULL_CODE};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// Render a cell to the category key used by the encoders.
fn category_key(col: &Column, idx: usize) -> Option<String> {
    if col.is_null_at(idx) {
        None
    } else {
        Some(col.get(idx).render())
    }
}

/// One-hot encoding: replaces the column by one 0/1 integer column per
/// fitted category. Unseen categories at transform time map to all zeros;
/// nulls also map to all zeros (they should have been imputed first).
#[derive(Debug, Clone)]
pub struct OneHotEncoder {
    pub column: String,
    categories: Option<Vec<String>>,
}

impl OneHotEncoder {
    pub fn new(column: impl Into<String>) -> OneHotEncoder {
        OneHotEncoder { column: column.into(), categories: None }
    }

    /// Number of fitted categories (0 before fit).
    pub fn n_categories(&self) -> usize {
        self.categories.as_ref().map_or(0, |c| c.len())
    }
}

impl Transform for OneHotEncoder {
    fn fit(&mut self, table: &Table) -> Result<()> {
        let col = require_column(table, &self.column)?;
        // The dictionary's value list is exactly the sorted distinct
        // rendered values — the same set the old per-row BTreeSet built.
        self.categories = Some(column_dict(col).values().map(str::to_owned).collect());
        Ok(())
    }

    fn apply(&self, table: &mut Table) -> Result<()> {
        let cats = self.categories.as_ref().ok_or(TransformError::NotFitted("onehot"))?;
        let dict = column_dict(require_column(table, &self.column)?);
        table.drop_column(&self.column)?;
        for cat in cats {
            // Compare per-row integer codes against the category's code
            // instead of re-rendering every cell per category. Unseen
            // categories have no code and nulls carry NULL_CODE, so both
            // fall out as all-zero columns exactly like before.
            let code = dict.code_of(cat);
            let ind: Vec<Option<i64>> = match code {
                Some(code) => dict.codes().iter().map(|&c| Some((c == code) as i64)).collect(),
                None => vec![Some(0); dict.codes().len()],
            };
            table.add_column(format!("{}={}", self.column, cat), Column::Int(ind))?;
        }
        Ok(())
    }
}

/// Ordinal encoding: category → integer code in lexicographic order.
/// Unseen categories and nulls map to −1.
#[derive(Debug, Clone)]
pub struct OrdinalEncoder {
    pub column: String,
    categories: Option<Vec<String>>,
}

impl OrdinalEncoder {
    pub fn new(column: impl Into<String>) -> OrdinalEncoder {
        OrdinalEncoder { column: column.into(), categories: None }
    }
}

impl Transform for OrdinalEncoder {
    fn fit(&mut self, table: &Table) -> Result<()> {
        let col = require_column(table, &self.column)?;
        self.categories = Some(column_dict(col).values().map(str::to_owned).collect());
        Ok(())
    }

    fn apply(&self, table: &mut Table) -> Result<()> {
        let cats = self.categories.as_ref().ok_or(TransformError::NotFitted("ordinal"))?;
        let dict = column_dict(require_column(table, &self.column)?);
        // Resolve each *distinct* value against the fitted categories once,
        // then translate the per-row codes through that small table.
        let code_map: Vec<i64> = dict
            .values()
            .map(|v| cats.binary_search_by(|c| c.as_str().cmp(v)).map(|p| p as i64).unwrap_or(-1))
            .collect();
        let codes: Vec<Option<i64>> = dict
            .codes()
            .iter()
            .map(|&c| Some(if c == NULL_CODE { -1 } else { code_map[c as usize] }))
            .collect();
        table.replace_column(&self.column, Column::Int(codes))?;
        Ok(())
    }
}

/// k-hot encoding for *list* features: each cell holds items joined by a
/// separator ("Python, Java"); fitting learns the item vocabulary and the
/// transform emits one 0/1 column per item (paper Figure 5's Skills → C++,
/// Java, ..., Python columns).
#[derive(Debug, Clone)]
pub struct KHotEncoder {
    pub column: String,
    pub separator: String,
    vocabulary: Option<Vec<String>>,
}

impl KHotEncoder {
    pub fn new(column: impl Into<String>, separator: impl Into<String>) -> KHotEncoder {
        KHotEncoder { column: column.into(), separator: separator.into(), vocabulary: None }
    }

    fn items(cell: &str, sep: &str) -> Vec<String> {
        cell.split(sep).map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect()
    }

    pub fn vocabulary_len(&self) -> usize {
        self.vocabulary.as_ref().map_or(0, |v| v.len())
    }
}

impl Transform for KHotEncoder {
    fn fit(&mut self, table: &Table) -> Result<()> {
        let col = require_column(table, &self.column)?;
        if col.dtype() != DataType::Str {
            return Err(TransformError::WrongType {
                column: self.column.clone(),
                expected: "string (list feature)",
            });
        }
        // Split each *distinct* cell once — repeated cells contribute the
        // same items, so the dictionary pass is equivalent to the old
        // per-row scan.
        let mut vocab = BTreeSet::new();
        for cell in column_dict(col).values() {
            for item in Self::items(cell, &self.separator) {
                vocab.insert(item);
            }
        }
        self.vocabulary = Some(vocab.into_iter().collect());
        Ok(())
    }

    fn apply(&self, table: &mut Table) -> Result<()> {
        let vocab = self.vocabulary.as_ref().ok_or(TransformError::NotFitted("khot"))?;
        let dict = column_dict(require_column(table, &self.column)?);
        table.drop_column(&self.column)?;
        // Per distinct cell, mark which vocabulary items it contains; the
        // per-row work is then a plain flag lookup through the codes.
        let distinct_flags: Vec<Vec<bool>> = dict
            .values()
            .map(|cell| {
                let mut flags = vec![false; vocab.len()];
                for item in Self::items(cell, &self.separator) {
                    if let Ok(p) = vocab.binary_search(&item) {
                        flags[p] = true;
                    }
                }
                flags
            })
            .collect();
        for (v, item) in vocab.iter().enumerate() {
            let ind: Vec<Option<i64>> = dict
                .codes()
                .iter()
                .map(|&c| Some((c != NULL_CODE && distinct_flags[c as usize][v]) as i64))
                .collect();
            table.add_column(format!("{}={}", self.column, item), Column::Int(ind))?;
        }
        Ok(())
    }
}

/// Feature hashing: any column is mapped to `n_buckets` numeric columns by
/// hashing the rendered value; a bounded-width encoding for very-high-
/// cardinality features.
#[derive(Debug, Clone)]
pub struct FeatureHasher {
    pub column: String,
    pub n_buckets: usize,
    fitted: bool,
}

impl FeatureHasher {
    pub fn new(column: impl Into<String>, n_buckets: usize) -> FeatureHasher {
        FeatureHasher { column: column.into(), n_buckets: n_buckets.max(1), fitted: false }
    }

    fn bucket(&self, value: &str) -> usize {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        (h.finish() % self.n_buckets as u64) as usize
    }
}

impl Transform for FeatureHasher {
    fn fit(&mut self, table: &Table) -> Result<()> {
        require_column(table, &self.column)?;
        self.fitted = true;
        Ok(())
    }

    fn apply(&self, table: &mut Table) -> Result<()> {
        if !self.fitted {
            return Err(TransformError::NotFitted("feature hasher"));
        }
        require_column(table, &self.column)?;
        let col = table.drop_column(&self.column)?;
        let mut buckets = vec![vec![Some(0i64); col.len()]; self.n_buckets];
        for (i, key) in (0..col.len()).map(|i| category_key(&col, i)).enumerate() {
            if let Some(v) = key {
                let b = self.bucket(&v);
                buckets[b][i] = Some(1);
            }
        }
        for (b, vals) in buckets.into_iter().enumerate() {
            table.add_column(format!("{}#h{}", self.column, b), Column::Int(vals))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Value;

    fn cat_table() -> Table {
        Table::from_columns(vec![
            ("city", Column::from_strings(vec!["B", "A", "B", "C"])),
            ("y", Column::from_i64(vec![0, 1, 0, 1])),
        ])
        .unwrap()
    }

    #[test]
    fn onehot_produces_indicator_columns() {
        let mut enc = OneHotEncoder::new("city");
        let mut out = cat_table();
        enc.fit(&out).unwrap();
        enc.apply(&mut out).unwrap();
        assert!(!out.schema().contains("city"));
        assert_eq!(out.value(0, "city=B").unwrap(), Value::Int(1));
        assert_eq!(out.value(0, "city=A").unwrap(), Value::Int(0));
        assert_eq!(enc.n_categories(), 3);
    }

    #[test]
    fn onehot_unseen_category_is_all_zeros() {
        let mut enc = OneHotEncoder::new("city");
        enc.fit(&cat_table()).unwrap();
        let fresh = Table::from_columns(vec![
            ("city", Column::from_strings(vec!["Z"])),
            ("y", Column::from_i64(vec![0])),
        ])
        .unwrap();
        let mut out = fresh.clone();
        enc.apply(&mut out).unwrap();
        assert_eq!(out.value(0, "city=A").unwrap(), Value::Int(0));
        assert_eq!(out.value(0, "city=B").unwrap(), Value::Int(0));
    }

    #[test]
    fn ordinal_codes_are_lexicographic() {
        let mut enc = OrdinalEncoder::new("city");
        let mut out = cat_table();
        enc.fit(&out).unwrap();
        enc.apply(&mut out).unwrap();
        assert_eq!(out.value(1, "city").unwrap(), Value::Int(0)); // A
        assert_eq!(out.value(0, "city").unwrap(), Value::Int(1)); // B
        assert_eq!(out.value(3, "city").unwrap(), Value::Int(2)); // C
    }

    #[test]
    fn khot_expands_list_items() {
        let t = Table::from_columns(vec![(
            "skills",
            Column::from_strings(vec!["Python, Java", "Java", "C++, Python"]),
        )])
        .unwrap();
        let mut enc = KHotEncoder::new("skills", ",");
        let mut out = t.clone();
        enc.fit(&out).unwrap();
        enc.apply(&mut out).unwrap();
        assert_eq!(enc.vocabulary_len(), 3);
        assert_eq!(out.value(0, "skills=Python").unwrap(), Value::Int(1));
        assert_eq!(out.value(0, "skills=C++").unwrap(), Value::Int(0));
        assert_eq!(out.value(2, "skills=C++").unwrap(), Value::Int(1));
    }

    #[test]
    fn khot_rejects_non_string() {
        let t = Table::from_columns(vec![("n", Column::from_i64(vec![1]))]).unwrap();
        let mut enc = KHotEncoder::new("n", ",");
        assert!(matches!(enc.fit(&t), Err(TransformError::WrongType { .. })));
    }

    #[test]
    fn hasher_bounds_output_width() {
        let t = Table::from_columns(vec![(
            "id",
            Column::from_strings((0..100).map(|i| format!("user{i}")).collect()),
        )])
        .unwrap();
        let mut enc = FeatureHasher::new("id", 8);
        let mut out = t.clone();
        enc.fit(&out).unwrap();
        enc.apply(&mut out).unwrap();
        assert_eq!(out.n_cols(), 8);
        // Every row sets exactly one bucket.
        for r in 0..out.n_rows() {
            let ones: i64 = (0..8)
                .map(|b| match out.value(r, &format!("id#h{b}")).unwrap() {
                    Value::Int(v) => v,
                    _ => 0,
                })
                .sum();
            assert_eq!(ones, 1);
        }
    }
}
