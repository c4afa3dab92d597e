//! The *basic* internal preprocessing every AutoML tool applies: median /
//! most-frequent imputation and ordinal encoding of strings. This is
//! deliberately not data-centric — dirty category variants ("F" vs
//! "Female") become distinct codes, outliers pass straight through —
//! which is exactly why the paper's AutoML baselines degrade on dirty
//! data (Table 5, Figure 14) while CatDB's generated pipelines do not.

use catdb_ml::{
    featurize, regression_target, ImputeStrategy, Imputer, LabelEncoder, Matrix, MlError,
    OrdinalEncoder, Transform,
};
use catdb_table::{DataType, Table};

/// Fitted basic preprocessing, reusable on the test split.
pub struct BasicFeaturizer {
    imputers: Vec<Imputer>,
    encoders: Vec<OrdinalEncoder>,
}

impl BasicFeaturizer {
    /// Fit on the training table (ignoring the target column).
    pub fn fit(train: &Table, target: &str) -> Result<BasicFeaturizer, MlError> {
        let mut imputers = Vec::new();
        let mut encoders = Vec::new();
        for (field, col) in train.iter_columns() {
            if field.name == target {
                continue;
            }
            if col.null_count() > 0 {
                let strategy = if field.dtype.is_numeric() {
                    ImputeStrategy::Median
                } else {
                    ImputeStrategy::MostFrequent
                };
                let mut imp = Imputer::new(field.name.clone(), strategy);
                imp.fit(train).map_err(|e| MlError::Unsupported(e.to_string()))?;
                imputers.push(imp);
            }
            if field.dtype == DataType::Str {
                let mut enc = OrdinalEncoder::new(field.name.clone());
                enc.fit(train).map_err(|e| MlError::Unsupported(e.to_string()))?;
                encoders.push(enc);
            }
        }
        Ok(BasicFeaturizer { imputers, encoders })
    }

    /// Apply to any split and produce the model matrix.
    pub fn transform(&self, table: &Table, target: &str) -> Result<Matrix, MlError> {
        let mut t = table.clone();
        for imp in &self.imputers {
            if t.schema().contains(&imp.column) {
                imp.apply(&mut t).map_err(|e| MlError::Unsupported(e.to_string()))?;
            }
        }
        for enc in &self.encoders {
            if t.schema().contains(&enc.column) {
                enc.apply(&mut t).map_err(|e| MlError::Unsupported(e.to_string()))?;
            }
        }
        // Remaining nulls (e.g. test-only missing cells in columns that
        // were clean during fit) become zeros — AutoML tools silently
        // coerce here rather than failing.
        let (mut m, _) = featurize_with_nan_to_zero(&t, target)?;
        sanitize(&mut m);
        Ok(m)
    }

    /// Encoded classification labels shared across splits.
    pub fn labels(
        &self,
        train: &Table,
        other: &Table,
        target: &str,
    ) -> Result<(Vec<usize>, Vec<usize>, usize), MlError> {
        let enc = LabelEncoder::fit(train, target)?;
        let y_train = enc.encode(train, target)?;
        // Unseen test labels map to class 0 (tools score them wrong but
        // do not crash).
        let y_other = match enc.encode(other, target) {
            Ok(y) => y,
            Err(_) => {
                let col = other.column(target).map_err(|e| MlError::Unsupported(e.to_string()))?;
                (0..col.len())
                    .map(|i| {
                        let v = col.get(i).render();
                        enc.classes().iter().position(|c| c == &v).unwrap_or(0)
                    })
                    .collect()
            }
        };
        Ok((y_train, y_other, enc.n_classes()))
    }

    pub fn regression_targets(
        &self,
        train: &Table,
        other: &Table,
        target: &str,
    ) -> Result<(Vec<f64>, Vec<f64>), MlError> {
        let clean = |t: &Table| -> Result<Vec<f64>, MlError> {
            match regression_target(t, target) {
                Ok(y) => Ok(y),
                Err(_) => {
                    // Coerce nulls to the mean (tools do not crash on a few
                    // missing labels; they drop or impute them).
                    let vals = t
                        .column(target)
                        .map_err(|e| MlError::Unsupported(e.to_string()))?
                        .to_f64_vec();
                    let present: Vec<f64> = vals.iter().flatten().copied().collect();
                    if present.is_empty() {
                        return Err(MlError::EmptyInput);
                    }
                    let mean = present.iter().sum::<f64>() / present.len() as f64;
                    Ok(vals.into_iter().map(|v| v.unwrap_or(mean)).collect())
                }
            }
        };
        Ok((clean(train)?, clean(other)?))
    }
}

fn featurize_with_nan_to_zero(t: &Table, target: &str) -> Result<(Matrix, Vec<String>), MlError> {
    featurize(t, target)
}

fn sanitize(m: &mut Matrix) {
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            let v = m.get(r, c);
            if !v.is_finite() {
                m.set(r, c, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Column;

    fn dirty_table() -> Table {
        Table::from_columns(vec![
            ("x", Column::Float(vec![Some(1.0), None, Some(3.0), Some(4.0)])),
            (
                "g",
                Column::Str(vec![Some("F".into()), Some("Female".into()), None, Some("M".into())]),
            ),
            ("y", Column::from_strings(vec!["a", "b", "a", "b"])),
        ])
        .unwrap()
    }

    #[test]
    fn basic_featurizer_produces_numeric_matrix() {
        let t = dirty_table();
        let f = BasicFeaturizer::fit(&t, "y").unwrap();
        let m = f.transform(&t, "y").unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 2);
        for r in 0..m.rows() {
            assert!(m.row(r).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn dirty_variants_get_distinct_codes() {
        // "F" and "Female" become different ordinal codes — the basic
        // preprocessing does not merge them (unlike CatDB's refinement).
        let t = dirty_table();
        let f = BasicFeaturizer::fit(&t, "y").unwrap();
        let m = f.transform(&t, "y").unwrap();
        let g_codes: Vec<f64> = (0..4).map(|r| m.get(r, 1)).collect();
        assert_ne!(g_codes[0], g_codes[1], "F and Female should stay distinct");
    }

    #[test]
    fn labels_tolerate_unseen_classes() {
        let t = dirty_table();
        let f = BasicFeaturizer::fit(&t, "y").unwrap();
        let other = Table::from_columns(vec![
            ("x", Column::from_f64(vec![1.0])),
            ("g", Column::from_strings(vec!["F"])),
            ("y", Column::from_strings(vec!["zzz"])),
        ])
        .unwrap();
        let (y_train, y_other, k) = f.labels(&t, &other, "y").unwrap();
        assert_eq!(k, 2);
        assert_eq!(y_train.len(), 4);
        assert_eq!(y_other, vec![0]);
    }
}
