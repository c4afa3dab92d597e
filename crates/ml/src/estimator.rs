//! Estimator traits shared by every model in the crate.
//!
//! Fitting validates its input aggressively: NaNs in the feature matrix are
//! rejected (`MlError::NonFinite`) exactly like scikit-learn's
//! `Input contains NaN` — this is the runtime error a generated pipeline
//! hits when it forgot an imputation step, and the CatDB error-management
//! loop depends on models *failing loudly* rather than silently degrading
//! (the paper's "no silent errors" guarantee).

use crate::matrix::Matrix;
use std::fmt;

/// Errors raised by model fitting and prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The input contains NaN / infinity (typically missed imputation).
    NonFinite { location: &'static str },
    /// Zero rows or zero features.
    EmptyInput,
    /// X / y shapes disagree.
    ShapeMismatch { x_rows: usize, y_len: usize },
    /// A label index ≥ the declared class count.
    BadLabel { label: usize, n_classes: usize },
    /// The model does not support this task or input regime
    /// (e.g. TabPFN on regression, or beyond its sample/feature limits).
    Unsupported(String),
    /// Simulated resource exhaustion (memory envelope exceeded).
    ResourceLimit(String),
    /// Numerical failure during optimization (singular system, divergence).
    Numerical(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::NonFinite { location } => {
                write!(f, "input contains NaN or infinity ({location})")
            }
            MlError::EmptyInput => write!(f, "empty input"),
            MlError::ShapeMismatch { x_rows, y_len } => {
                write!(f, "X has {x_rows} rows but y has {y_len} entries")
            }
            MlError::BadLabel { label, n_classes } => {
                write!(f, "label {label} out of range for {n_classes} classes")
            }
            MlError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            MlError::ResourceLimit(msg) => write!(f, "resource limit exceeded: {msg}"),
            MlError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

pub type Result<T> = std::result::Result<T, MlError>;

/// A fitted classification model.
pub trait ClassifierModel: Send + Sync {
    /// Per-row class probability vectors (length = `n_classes`).
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>>;

    fn n_classes(&self) -> usize;

    /// Hard predictions by arg-max over probabilities.
    fn predict(&self, x: &Matrix) -> Result<Vec<usize>> {
        Ok(self.predict_proba(x)?.into_iter().map(|p| argmax(&p)).collect())
    }
}

/// A fitted regression model.
pub trait RegressorModel: Send + Sync {
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>>;
}

/// A classification learning algorithm (unfitted).
pub trait Classifier: Send + Sync {
    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>>;
}

/// A regression learning algorithm (unfitted).
pub trait Regressor: Send + Sync {
    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>>;
}

/// Index of the largest element (ties resolve to the first).
pub fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Shared input validation for classifier `fit` implementations.
pub fn validate_classification(x: &Matrix, y: &[usize], n_classes: usize) -> Result<()> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(MlError::EmptyInput);
    }
    if x.rows() != y.len() {
        return Err(MlError::ShapeMismatch { x_rows: x.rows(), y_len: y.len() });
    }
    if n_classes < 2 {
        return Err(MlError::Unsupported("need at least two classes".into()));
    }
    if let Some(&bad) = y.iter().find(|&&l| l >= n_classes) {
        return Err(MlError::BadLabel { label: bad, n_classes });
    }
    check_finite(x, "training features")
}

/// Shared input validation for regressor `fit` implementations.
pub fn validate_regression(x: &Matrix, y: &[f64]) -> Result<()> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(MlError::EmptyInput);
    }
    if x.rows() != y.len() {
        return Err(MlError::ShapeMismatch { x_rows: x.rows(), y_len: y.len() });
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(MlError::NonFinite { location: "training target" });
    }
    check_finite(x, "training features")
}

/// Reject NaN / infinity anywhere in the matrix.
pub fn check_finite(x: &Matrix, location: &'static str) -> Result<()> {
    for r in 0..x.rows() {
        if x.row(r).iter().any(|v| !v.is_finite()) {
            return Err(MlError::NonFinite { location });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[0.5, 0.5]), 0);
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
    }

    #[test]
    fn validation_catches_nan() {
        let x = Matrix::from_rows(&[vec![1.0], vec![f64::NAN]]);
        let err = validate_classification(&x, &[0, 1], 2).unwrap_err();
        assert!(matches!(err, MlError::NonFinite { .. }));
    }

    #[test]
    fn validation_catches_shape_and_labels() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        assert!(matches!(validate_classification(&x, &[0], 2), Err(MlError::ShapeMismatch { .. })));
        assert!(matches!(validate_classification(&x, &[0, 5], 2), Err(MlError::BadLabel { .. })));
        assert!(matches!(
            validate_regression(&x, &[1.0, f64::INFINITY]),
            Err(MlError::NonFinite { .. })
        ));
    }
}
