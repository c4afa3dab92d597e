//! Numeric feature scaling: standard (z-score), min-max, and decimal
//! scaling (the "DS" primitive from Learn2Clean used in Table 7).

use crate::transform::{require_column, Result, Transform, TransformError};
use catdb_table::{Column, Table};
use serde::{Deserialize, Serialize};

/// Scaling methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleMethod {
    /// `(x − mean) / std`.
    Standard,
    /// `(x − min) / (max − min)`, clipped to [0, 1] at transform time
    /// (sklearn's `MinMaxScaler(clip=True)`): out-of-range values seen at
    /// inference — e.g. injected outliers — cannot explode the feature.
    MinMax,
    /// `x / 10^j` with the smallest `j` making `|x| ≤ 1`.
    Decimal,
}

impl ScaleMethod {
    pub fn label(self) -> &'static str {
        match self {
            ScaleMethod::Standard => "standard",
            ScaleMethod::MinMax => "minmax",
            ScaleMethod::Decimal => "decimal",
        }
    }
}

/// Fitted scaling parameters.
#[derive(Debug, Clone, Copy)]
enum ScaleParams {
    Standard { mean: f64, std: f64 },
    MinMax { min: f64, range: f64 },
    Decimal { divisor: f64 },
}

/// Scale one numeric column (output is always a float column).
#[derive(Debug, Clone)]
pub struct Scaler {
    pub column: String,
    pub method: ScaleMethod,
    params: Option<ScaleParams>,
}

impl Scaler {
    pub fn new(column: impl Into<String>, method: ScaleMethod) -> Scaler {
        Scaler { column: column.into(), method, params: None }
    }
}

impl Transform for Scaler {
    fn fit(&mut self, table: &Table) -> Result<()> {
        let col = require_column(table, &self.column)?;
        if !col.dtype().is_numeric() {
            return Err(TransformError::WrongType {
                column: self.column.clone(),
                expected: "numeric",
            });
        }
        let vals: Vec<f64> = col.to_f64_vec().into_iter().flatten().collect();
        if vals.is_empty() {
            return Err(TransformError::Invalid(format!(
                "column '{}' has no non-null values to fit a scaler",
                self.column
            )));
        }
        let n = vals.len() as f64;
        self.params = Some(match self.method {
            ScaleMethod::Standard => {
                let mean = vals.iter().sum::<f64>() / n;
                let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
                let std = var.sqrt();
                ScaleParams::Standard { mean, std: if std < 1e-12 { 1.0 } else { std } }
            }
            ScaleMethod::MinMax => {
                let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let range = max - min;
                ScaleParams::MinMax { min, range: if range < 1e-12 { 1.0 } else { range } }
            }
            ScaleMethod::Decimal => {
                let max_abs = vals.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
                let mut divisor = 1.0;
                while max_abs / divisor > 1.0 {
                    divisor *= 10.0;
                }
                ScaleParams::Decimal { divisor }
            }
        });
        Ok(())
    }

    fn apply(&self, table: &mut Table) -> Result<()> {
        let params = self.params.ok_or(TransformError::NotFitted("scaler"))?;
        let col = require_column(table, &self.column)?;
        let scaled: Vec<Option<f64>> = col
            .to_f64_vec()
            .into_iter()
            .map(|v| {
                v.map(|x| match params {
                    ScaleParams::Standard { mean, std } => (x - mean) / std,
                    ScaleParams::MinMax { min, range } => ((x - min) / range).clamp(0.0, 1.0),
                    ScaleParams::Decimal { divisor } => x / divisor,
                })
            })
            .collect();
        table.replace_column(&self.column, Column::Float(scaled))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Value;

    fn numeric_table() -> Table {
        Table::from_columns(vec![(
            "x",
            Column::Float(vec![Some(0.0), Some(10.0), Some(20.0), None]),
        )])
        .unwrap()
    }

    #[test]
    fn standard_scaling_centers() {
        let mut s = Scaler::new("x", ScaleMethod::Standard);
        let mut out = numeric_table();
        s.fit(&out).unwrap();
        s.apply(&mut out).unwrap();
        let vals = out.column("x").unwrap().to_f64_vec();
        let mean: f64 = vals.iter().flatten().sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        // Nulls survive scaling untouched.
        assert_eq!(out.value(3, "x").unwrap(), Value::Null);
    }

    #[test]
    fn minmax_scaling_hits_unit_interval() {
        let mut s = Scaler::new("x", ScaleMethod::MinMax);
        let mut out = numeric_table();
        s.fit(&out).unwrap();
        s.apply(&mut out).unwrap();
        assert_eq!(out.value(0, "x").unwrap(), Value::Float(0.0));
        assert_eq!(out.value(2, "x").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn decimal_scaling_divides_by_power_of_ten() {
        let mut s = Scaler::new("x", ScaleMethod::Decimal);
        let mut out = numeric_table();
        s.fit(&out).unwrap();
        s.apply(&mut out).unwrap();
        assert_eq!(out.value(2, "x").unwrap(), Value::Float(0.2)); // 20 / 100
    }

    #[test]
    fn string_column_is_rejected() {
        let t = Table::from_columns(vec![("s", Column::from_strings(vec!["a", "b"]))]).unwrap();
        let mut s = Scaler::new("s", ScaleMethod::Standard);
        assert!(matches!(s.fit(&t), Err(TransformError::WrongType { .. })));
    }

    #[test]
    fn constant_column_does_not_divide_by_zero() {
        let t = Table::from_columns(vec![("x", Column::from_f64(vec![5.0, 5.0]))]).unwrap();
        let mut s = Scaler::new("x", ScaleMethod::Standard);
        let mut out = t.clone();
        s.fit(&out).unwrap();
        s.apply(&mut out).unwrap();
        assert_eq!(out.value(0, "x").unwrap(), Value::Float(0.0));
    }
}
