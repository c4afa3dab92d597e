//! Missing-value imputation.

use crate::transform::{require_column, Result, Transform, TransformError};
use catdb_table::{Column, DataType, Table, Value};
use std::collections::HashMap;

/// Imputation strategies. Numeric strategies require a numeric column;
/// `MostFrequent` works on any type; `Constant` must match the column type.
#[derive(Debug, Clone, PartialEq)]
pub enum ImputeStrategy {
    Mean,
    Median,
    MostFrequent,
    Constant(Value),
}

/// Fill missing values of one column with a fitted statistic.
#[derive(Debug, Clone)]
pub struct Imputer {
    pub column: String,
    pub strategy: ImputeStrategy,
    fill: Option<Value>,
}

impl Imputer {
    pub fn new(column: impl Into<String>, strategy: ImputeStrategy) -> Imputer {
        Imputer { column: column.into(), strategy, fill: None }
    }
}

fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    Some(if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    })
}

fn most_frequent(col: &Column) -> Option<Value> {
    let mut counts: HashMap<String, (usize, Value)> = HashMap::new();
    for i in 0..col.len() {
        let v = col.get(i);
        if v.is_null() {
            continue;
        }
        let entry = counts.entry(v.render()).or_insert((0, v));
        entry.0 += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then_with(|| b.0.cmp(&a.0)))
        .map(|(_, (_, v))| v)
}

impl Transform for Imputer {
    fn fit(&mut self, table: &Table) -> Result<()> {
        let col = require_column(table, &self.column)?;
        let fill = match &self.strategy {
            ImputeStrategy::Mean | ImputeStrategy::Median => {
                if !col.dtype().is_numeric() {
                    return Err(TransformError::WrongType {
                        column: self.column.clone(),
                        expected: "numeric",
                    });
                }
                let mut vals: Vec<f64> = col.to_f64_vec().into_iter().flatten().collect();
                let stat = match self.strategy {
                    ImputeStrategy::Mean => mean(&vals),
                    _ => median(&mut vals),
                };
                match (stat, col.dtype()) {
                    (Some(s), DataType::Int) => Value::Int(s.round() as i64),
                    (Some(s), _) => Value::Float(s),
                    // All-null column: fall back to zero so the pipeline can
                    // proceed (mirrors sklearn's behaviour with a warning).
                    (None, DataType::Int) => Value::Int(0),
                    (None, _) => Value::Float(0.0),
                }
            }
            ImputeStrategy::MostFrequent => {
                most_frequent(col).unwrap_or_else(|| match col.dtype() {
                    DataType::Str => Value::Str("missing".into()),
                    DataType::Int => Value::Int(0),
                    DataType::Float => Value::Float(0.0),
                    DataType::Bool => Value::Bool(false),
                })
            }
            ImputeStrategy::Constant(v) => v.clone(),
        };
        self.fill = Some(fill);
        Ok(())
    }

    fn apply(&self, table: &mut Table) -> Result<()> {
        let fill = self.fill.as_ref().ok_or(TransformError::NotFitted("imputer"))?;
        let col = table
            .column_mut(&self.column)
            .map_err(|_| TransformError::ColumnNotFound(self.column.clone()))?;
        for i in 0..col.len() {
            if col.is_null_at(i) {
                col.set(i, fill.clone()).map_err(|_| TransformError::WrongType {
                    column: self.column.clone(),
                    expected: "value matching column type",
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with_nulls() -> Table {
        Table::from_columns(vec![
            ("x", Column::Float(vec![Some(1.0), None, Some(3.0), None])),
            ("c", Column::Str(vec![Some("a".into()), Some("a".into()), None, Some("b".into())])),
        ])
        .unwrap()
    }

    #[test]
    fn mean_imputation() {
        let t = table_with_nulls();
        let mut imp = Imputer::new("x", ImputeStrategy::Mean);
        let mut out = t.clone();
        imp.fit(&out).unwrap();
        imp.apply(&mut out).unwrap();
        assert_eq!(out.value(1, "x").unwrap(), Value::Float(2.0));
        assert_eq!(out.column("x").unwrap().null_count(), 0);
    }

    #[test]
    fn median_imputation() {
        let t = Table::from_columns(vec![(
            "x",
            Column::Float(vec![Some(1.0), Some(2.0), Some(100.0), None]),
        )])
        .unwrap();
        let mut imp = Imputer::new("x", ImputeStrategy::Median);
        let mut out = t.clone();
        imp.fit(&out).unwrap();
        imp.apply(&mut out).unwrap();
        assert_eq!(out.value(3, "x").unwrap(), Value::Float(2.0));
    }

    #[test]
    fn most_frequent_on_strings() {
        let t = table_with_nulls();
        let mut imp = Imputer::new("c", ImputeStrategy::MostFrequent);
        let mut out = t.clone();
        imp.fit(&out).unwrap();
        imp.apply(&mut out).unwrap();
        assert_eq!(out.value(2, "c").unwrap(), Value::Str("a".into()));
    }

    #[test]
    fn mean_on_string_column_errors() {
        let t = table_with_nulls();
        let mut imp = Imputer::new("c", ImputeStrategy::Mean);
        assert!(matches!(imp.fit(&t), Err(TransformError::WrongType { .. })));
    }

    #[test]
    fn missing_column_errors() {
        let t = table_with_nulls();
        let mut imp = Imputer::new("nope", ImputeStrategy::Mean);
        assert!(matches!(imp.fit(&t), Err(TransformError::ColumnNotFound(_))));
    }

    #[test]
    fn transform_before_fit_errors() {
        let t = table_with_nulls();
        let imp = Imputer::new("x", ImputeStrategy::Mean);
        assert!(matches!(imp.apply(&mut t.clone()), Err(TransformError::NotFitted(_))));
    }

    #[test]
    fn constant_imputation_applies_given_value() {
        let t = table_with_nulls();
        let mut imp = Imputer::new("c", ImputeStrategy::Constant(Value::Str("zz".into())));
        let mut out = t.clone();
        imp.fit(&out).unwrap();
        imp.apply(&mut out).unwrap();
        assert_eq!(out.value(2, "c").unwrap(), Value::Str("zz".into()));
    }

    #[test]
    fn int_column_mean_rounds() {
        let t =
            Table::from_columns(vec![("n", Column::Int(vec![Some(1), Some(2), None]))]).unwrap();
        let mut imp = Imputer::new("n", ImputeStrategy::Mean);
        let mut out = t.clone();
        imp.fit(&out).unwrap();
        imp.apply(&mut out).unwrap();
        assert_eq!(out.value(2, "n").unwrap(), Value::Int(2)); // 1.5 rounds to 2
    }
}
