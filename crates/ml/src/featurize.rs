//! Table → matrix conversion, label encoding, and the task descriptor that
//! links a table to a supervised learning problem.
//!
//! `featurize` is deliberately strict: a remaining *string* column raises
//! the scikit-learn-style "could not convert string to float" error, and
//! remaining nulls become NaN, which the estimators reject. Both are the
//! runtime errors a generated pipeline produces when it skipped encoding
//! or imputation — the signal CatDB's error-management loop runs on.

use crate::estimator::MlError;
use crate::matrix::Matrix;
use catdb_table::{column_dict, DataType, Table, NULL_CODE};
use std::collections::HashMap;

/// Supervised task types, matching the paper's dataset table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    BinaryClassification,
    MulticlassClassification,
    Regression,
}

impl TaskKind {
    pub fn is_classification(self) -> bool {
        !matches!(self, TaskKind::Regression)
    }

    pub fn label(self) -> &'static str {
        match self {
            TaskKind::BinaryClassification => "binary_classification",
            TaskKind::MulticlassClassification => "multiclass_classification",
            TaskKind::Regression => "regression",
        }
    }

    pub fn parse(s: &str) -> Option<TaskKind> {
        match s {
            "binary_classification" | "binary" => Some(TaskKind::BinaryClassification),
            "multiclass_classification" | "multiclass" => Some(TaskKind::MulticlassClassification),
            "regression" => Some(TaskKind::Regression),
            _ => None,
        }
    }
}

/// Mapping from class label strings to indices, fitted on training data.
#[derive(Debug, Clone, Default)]
pub struct LabelEncoder {
    classes: Vec<String>,
    index: HashMap<String, usize>,
}

impl LabelEncoder {
    /// Fit over the target column's rendered values (nulls skipped).
    pub fn fit(table: &Table, target: &str) -> Result<LabelEncoder, MlError> {
        let col = table
            .column(target)
            .map_err(|_| MlError::Unsupported(format!("target column '{target}' not found")))?;
        // First-appearance class order, recovered from the column
        // dictionary: each distinct label is rendered exactly once and the
        // per-row scan only touches integer codes.
        let dict = column_dict(col);
        let mut classes: Vec<String> = Vec::new();
        let mut index = HashMap::new();
        let mut seen = vec![false; dict.n_distinct()];
        for &code in dict.codes() {
            if code == NULL_CODE || seen[code as usize] {
                continue;
            }
            seen[code as usize] = true;
            let key = dict.value(code).to_string();
            index.insert(key.clone(), classes.len());
            classes.push(key);
        }
        if classes.len() < 2 {
            return Err(MlError::Unsupported(format!(
                "target '{target}' has {} distinct value(s); need at least 2",
                classes.len()
            )));
        }
        Ok(LabelEncoder { classes, index })
    }

    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Encode the target column leniently: unseen labels (and nulls) map
    /// to the out-of-range index `n_classes`, which no model ever
    /// predicts, so those rows simply score as wrong — matching how the
    /// paper's baselines evaluate on labels absent from training.
    pub fn encode_lossy(&self, table: &Table, target: &str) -> Result<Vec<usize>, MlError> {
        let col = table
            .column(target)
            .map_err(|_| MlError::Unsupported(format!("target column '{target}' not found")))?;
        let dict = column_dict(col);
        // Resolve each distinct label against the fitted classes once.
        let code_to_class: Vec<usize> = dict
            .values()
            .map(|v| self.index.get(v).copied().unwrap_or(self.classes.len()))
            .collect();
        Ok(dict
            .codes()
            .iter()
            .map(|&c| if c == NULL_CODE { self.classes.len() } else { code_to_class[c as usize] })
            .collect())
    }

    /// Encode the target column; unseen labels and nulls are errors
    /// (a test row with an unknown class cannot be scored).
    pub fn encode(&self, table: &Table, target: &str) -> Result<Vec<usize>, MlError> {
        let col = table
            .column(target)
            .map_err(|_| MlError::Unsupported(format!("target column '{target}' not found")))?;
        let dict = column_dict(col);
        let code_to_class: Vec<Option<usize>> =
            dict.values().map(|v| self.index.get(v).copied()).collect();
        let mut out = Vec::with_capacity(dict.codes().len());
        for &c in dict.codes() {
            if c == NULL_CODE {
                return Err(MlError::NonFinite { location: "target labels" });
            }
            match code_to_class[c as usize] {
                Some(idx) => out.push(idx),
                None => {
                    return Err(MlError::Unsupported(format!(
                        "unseen class label '{}' in target '{target}'",
                        dict.value(c)
                    )))
                }
            }
        }
        Ok(out)
    }
}

/// Convert all non-target columns to an `n × d` matrix. String columns are
/// an error; bool → 0/1; nulls → NaN (estimators reject them loudly).
/// Returns the matrix and the feature names in column order.
pub fn featurize(table: &Table, target: &str) -> Result<(Matrix, Vec<String>), MlError> {
    let mut names = Vec::new();
    let mut cols: Vec<Vec<Option<f64>>> = Vec::new();
    for (field, col) in table.iter_columns() {
        if field.name == target {
            continue;
        }
        if field.dtype == DataType::Str {
            // Find an example value for a realistic error message.
            let example = (0..col.len())
                .find(|&i| !col.is_null_at(i))
                .map(|i| col.get(i).render())
                .unwrap_or_default();
            return Err(MlError::Unsupported(format!(
                "could not convert string to float: '{example}' (column '{}')",
                field.name
            )));
        }
        names.push(field.name.clone());
        cols.push(col.to_f64_vec());
    }
    if names.is_empty() {
        return Err(MlError::EmptyInput);
    }
    let n = table.n_rows();
    let mut m = Matrix::zeros(n, names.len());
    for (c, col) in cols.iter().enumerate() {
        for (r, v) in col.iter().enumerate() {
            m.set(r, c, v.unwrap_or(f64::NAN));
        }
    }
    Ok((m, names))
}

/// Extract the numeric regression target; nulls or non-numeric → error.
pub fn regression_target(table: &Table, target: &str) -> Result<Vec<f64>, MlError> {
    let col = table
        .column(target)
        .map_err(|_| MlError::Unsupported(format!("target column '{target}' not found")))?;
    let vals = col.to_f64_vec();
    let mut out = Vec::with_capacity(vals.len());
    for v in vals {
        match v {
            Some(v) if v.is_finite() => out.push(v),
            _ => return Err(MlError::NonFinite { location: "regression target" }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Column;

    fn clean_table() -> Table {
        Table::from_columns(vec![
            ("a", Column::from_f64(vec![1.0, 2.0])),
            ("b", Column::from_i64(vec![3, 4])),
            ("y", Column::from_strings(vec!["yes", "no"])),
        ])
        .unwrap()
    }

    #[test]
    fn featurize_excludes_target_and_orders_names() {
        let t = clean_table();
        let (m, names) = featurize(&t, "y").unwrap();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn string_feature_raises_convert_error() {
        let t = Table::from_columns(vec![
            ("s", Column::from_strings(vec!["hello"])),
            ("y", Column::from_i64(vec![1])),
        ])
        .unwrap();
        let err = featurize(&t, "y").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("could not convert string to float"), "{msg}");
        assert!(msg.contains("hello"));
    }

    #[test]
    fn nulls_become_nan() {
        let t = Table::from_columns(vec![
            ("a", Column::Float(vec![Some(1.0), None])),
            ("y", Column::from_i64(vec![0, 1])),
        ])
        .unwrap();
        let (m, _) = featurize(&t, "y").unwrap();
        assert!(m.get(1, 0).is_nan());
    }

    #[test]
    fn label_encoder_round_trips() {
        let t = clean_table();
        let enc = LabelEncoder::fit(&t, "y").unwrap();
        assert_eq!(enc.n_classes(), 2);
        assert_eq!(enc.encode(&t, "y").unwrap(), vec![0, 1]);
    }

    #[test]
    fn label_encoder_rejects_unseen_and_constant() {
        let t = clean_table();
        let enc = LabelEncoder::fit(&t, "y").unwrap();
        let other = Table::from_columns(vec![
            ("a", Column::from_f64(vec![0.0])),
            ("b", Column::from_i64(vec![0])),
            ("y", Column::from_strings(vec!["maybe"])),
        ])
        .unwrap();
        assert!(enc.encode(&other, "y").is_err());
        let constant =
            Table::from_columns(vec![("y", Column::from_strings(vec!["same", "same"]))]).unwrap();
        assert!(LabelEncoder::fit(&constant, "y").is_err());
    }

    #[test]
    fn regression_target_requires_numbers() {
        let t = Table::from_columns(vec![("y", Column::from_f64(vec![1.0, 2.0]))]).unwrap();
        assert_eq!(regression_target(&t, "y").unwrap(), vec![1.0, 2.0]);
        let with_null =
            Table::from_columns(vec![("y", Column::Float(vec![Some(1.0), None]))]).unwrap();
        assert!(regression_target(&with_null, "y").is_err());
    }

    #[test]
    fn task_kind_labels_round_trip() {
        for k in [
            TaskKind::BinaryClassification,
            TaskKind::MulticlassClassification,
            TaskKind::Regression,
        ] {
            assert_eq!(TaskKind::parse(k.label()), Some(k));
        }
        assert_eq!(TaskKind::parse("bogus"), None);
    }
}
