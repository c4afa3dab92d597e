//! The cleaning primitives shared by SAGA and Learn2Clean — the exact set
//! Table 7's "Preprocessing" column reports: Decimal Scale normalization
//! (DS), Exact/Approximate Duplicate removal (ED/AD), Inter-Quartile-Range
//! and Local-Outlier-Factor outlier removal (IQR/LOF), Expectation-
//! Maximization and MEDIAN imputation (EM/MEDIAN), and row DROPping.

use catdb_ml::{
    Deduplicator, ImputeStrategy, Imputer, NullRowDropper, OutlierMethod, OutlierRemover,
    ScaleMethod, Scaler, Transform, TransformError,
};
use catdb_table::Table;

/// One cleaning primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CleanOp {
    /// DS — decimal-scale normalization of all numeric columns.
    DecimalScale,
    /// ED — exact duplicate-row removal.
    ExactDedup,
    /// AD — approximate duplicate-row removal (normalized strings).
    ApproxDedup,
    /// IQR — inter-quartile-range outlier-row removal.
    IqrOutliers,
    /// LOF — local-outlier-factor outlier-row removal.
    LofOutliers,
    /// EM — iterative mean imputation (expectation-maximization style).
    EmImpute,
    /// MEDIAN — median / most-frequent imputation.
    MedianImpute,
    /// DROP — drop rows with any missing value.
    DropNullRows,
}

impl CleanOp {
    pub const ALL: [CleanOp; 8] = [
        CleanOp::DecimalScale,
        CleanOp::ExactDedup,
        CleanOp::ApproxDedup,
        CleanOp::IqrOutliers,
        CleanOp::LofOutliers,
        CleanOp::EmImpute,
        CleanOp::MedianImpute,
        CleanOp::DropNullRows,
    ];

    /// Table 7's abbreviation.
    pub fn label(self) -> &'static str {
        match self {
            CleanOp::DecimalScale => "DS",
            CleanOp::ExactDedup => "ED",
            CleanOp::ApproxDedup => "AD",
            CleanOp::IqrOutliers => "IQR",
            CleanOp::LofOutliers => "LOF",
            CleanOp::EmImpute => "EM",
            CleanOp::MedianImpute => "MEDIAN",
            CleanOp::DropNullRows => "DROP",
        }
    }

    /// Apply the primitive to every applicable column of `table` (the
    /// target is exempt from imputation/scaling so labels stay honest).
    /// The transforms edit one copy of `table` in place, so a failing op
    /// leaves the caller's table as it was.
    pub fn apply(self, table: &Table, target: &str) -> Result<Table, TransformError> {
        let mut out = table.clone();
        let mut fit_apply = |t: &mut dyn Transform| -> Result<(), TransformError> {
            t.fit(&out)?;
            t.apply(&mut out)
        };
        match self {
            CleanOp::DecimalScale => {
                let numeric: Vec<String> = table
                    .iter_columns()
                    .filter(|(f, _)| f.dtype.is_numeric() && f.name != target)
                    .map(|(f, _)| f.name.clone())
                    .collect();
                if numeric.is_empty() {
                    return Err(TransformError::Invalid(
                        "no continuous columns to normalize".into(),
                    ));
                }
                for name in numeric {
                    fit_apply(&mut Scaler::new(name, ScaleMethod::Decimal))?;
                }
            }
            CleanOp::ExactDedup => fit_apply(&mut Deduplicator { approximate: false })?,
            CleanOp::ApproxDedup => fit_apply(&mut Deduplicator { approximate: true })?,
            CleanOp::IqrOutliers => {
                fit_apply(&mut OutlierRemover::new(Vec::new(), OutlierMethod::Iqr(1.5)))?
            }
            CleanOp::LofOutliers => fit_apply(&mut OutlierRemover::new(
                Vec::new(),
                OutlierMethod::Lof { k: 8, factor: 5.0 },
            ))?,
            CleanOp::EmImpute => {
                // EM's stand-in: one round of mean (numeric) or
                // most-frequent (other) imputation. Every imputer fills
                // every null of its column, so a second round would refit
                // filled columns and change no cell.
                for (field, col) in table.iter_columns() {
                    if field.name == target || col.null_count() == 0 {
                        continue;
                    }
                    let strat = if field.dtype.is_numeric() {
                        ImputeStrategy::Mean
                    } else {
                        ImputeStrategy::MostFrequent
                    };
                    fit_apply(&mut Imputer::new(field.name.clone(), strat))?;
                }
            }
            CleanOp::MedianImpute => {
                for (field, col) in table.iter_columns() {
                    if field.name == target || col.null_count() == 0 {
                        continue;
                    }
                    let strat = if field.dtype.is_numeric() {
                        ImputeStrategy::Median
                    } else {
                        ImputeStrategy::MostFrequent
                    };
                    fit_apply(&mut Imputer::new(field.name.clone(), strat))?;
                }
            }
            CleanOp::DropNullRows => fit_apply(&mut NullRowDropper)?,
        }
        Ok(out)
    }
}

/// Render a sequence the way Table 7 does: "DS + MEDIAN + AD".
pub fn sequence_label(ops: &[CleanOp]) -> String {
    if ops.is_empty() {
        return "-".to_string();
    }
    ops.iter().map(|o| o.label()).collect::<Vec<_>>().join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Column;

    fn dirty() -> Table {
        let mut xs: Vec<Option<f64>> = (0..80).map(|i| Some(i as f64)).collect();
        xs[5] = None;
        xs[10] = Some(100_000.0); // outlier
        let cats: Vec<&str> = (0..80).map(|i| if i % 2 == 0 { "A" } else { "a " }).collect();
        let y: Vec<f64> = (0..80).map(|i| i as f64 * 2.0).collect();
        Table::from_columns(vec![
            ("x", Column::Float(xs)),
            ("c", Column::from_strings(cats)),
            ("y", Column::from_f64(y)),
        ])
        .unwrap()
    }

    #[test]
    fn median_impute_fills_nulls() {
        let t = CleanOp::MedianImpute.apply(&dirty(), "y").unwrap();
        assert_eq!(t.column("x").unwrap().null_count(), 0);
    }

    #[test]
    fn em_impute_is_one_round_of_mean_and_most_frequent() {
        let t = Table::from_columns(vec![
            ("i", Column::Int(vec![Some(1), None, Some(4), Some(4), None])),
            ("f", Column::Float(vec![None, Some(0.5), Some(2.0), None, Some(-1.0)])),
            (
                "s",
                Column::Str(vec![None, Some("b".into()), Some("a".into()), Some("b".into()), None]),
            ),
            ("b", Column::Bool(vec![Some(true), None, Some(false), Some(false), None])),
            ("empty", Column::Float(vec![None; 5])),
            ("full", Column::from_i64(vec![1, 2, 3, 4, 5])),
            ("y", Column::Int(vec![Some(0), None, Some(1), Some(0), Some(1)])),
        ])
        .unwrap();
        let mut want = t.clone();
        for name in ["i", "f", "s", "b", "empty"] {
            let strat = if want.column(name).unwrap().dtype().is_numeric() {
                ImputeStrategy::Mean
            } else {
                ImputeStrategy::MostFrequent
            };
            let mut imputer = Imputer::new(name, strat);
            imputer.fit(&want).unwrap();
            imputer.apply(&mut want).unwrap();
        }
        let got = CleanOp::EmImpute.apply(&t, "y").unwrap();
        assert_eq!(got, want);
        assert_eq!(got.column("y").unwrap().null_count(), 1, "the target is exempt");
        for name in ["i", "f", "s", "b", "empty"] {
            assert_eq!(got.column(name).unwrap().null_count(), 0, "{name}");
        }
    }

    #[test]
    fn iqr_removes_outlier_rows() {
        let filled = CleanOp::MedianImpute.apply(&dirty(), "y").unwrap();
        let t = CleanOp::IqrOutliers.apply(&filled, "y").unwrap();
        assert!(t.n_rows() < 80);
        let max =
            t.column("x").unwrap().to_f64_vec().into_iter().flatten().fold(f64::MIN, f64::max);
        assert!(max < 1000.0);
    }

    #[test]
    fn approx_dedup_merges_case_variants() {
        let t = Table::from_columns(vec![("c", Column::from_strings(vec!["A", "a ", "A", "B"]))])
            .unwrap();
        let exact = CleanOp::ExactDedup.apply(&t, "y").unwrap();
        assert_eq!(exact.n_rows(), 3);
        let approx = CleanOp::ApproxDedup.apply(&t, "y").unwrap();
        assert_eq!(approx.n_rows(), 2);
    }

    #[test]
    fn decimal_scale_fails_without_numeric_columns() {
        let t = Table::from_columns(vec![("c", Column::from_strings(vec!["a", "b"]))]).unwrap();
        // The paper: "categorical features caused L2C to fail due to the
        // absence of continuous columns".
        assert!(CleanOp::DecimalScale.apply(&t, "c").is_err());
    }

    #[test]
    fn labels_match_table7_notation() {
        assert_eq!(
            sequence_label(&[CleanOp::DecimalScale, CleanOp::MedianImpute, CleanOp::ApproxDedup]),
            "DS + MEDIAN + AD"
        );
        assert_eq!(sequence_label(&[]), "-");
    }
}
