//! Gaussian naive Bayes classifier.

use crate::estimator::{
    check_finite, validate_classification, Classifier, ClassifierModel, Result,
};
use crate::matrix::{ColMajor, Matrix};

/// Gaussian naive Bayes with per-class feature means/variances and a small
/// variance floor for numerical stability.
#[derive(Debug, Clone, Default)]
pub struct GaussianNb;

struct GaussianNbModel {
    /// Per class: (log prior, means, variances).
    classes: Vec<(f64, Vec<f64>, Vec<f64>)>,
    n_classes: usize,
}

impl Classifier for GaussianNb {
    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        let d = x.cols();
        let n = x.rows();
        // Global variance scale for the floor (sklearn-style epsilon).
        // One transpose, then each column is a contiguous streaming pass.
        let by_col = ColMajor::from_matrix(x);
        let mut global_var = 0.0;
        for c in 0..d {
            let col = by_col.col(c);
            let mean = col.iter().sum::<f64>() / n as f64;
            global_var += col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        }
        let eps = 1e-9 * (global_var / d as f64).max(1e-12);

        let mut classes = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            let rows: Vec<usize> = (0..n).filter(|&r| y[r] == c).collect();
            if rows.is_empty() {
                // Empty class: prior −∞, harmless placeholder stats.
                classes.push((f64::NEG_INFINITY, vec![0.0; d], vec![1.0; d]));
                continue;
            }
            let k = rows.len() as f64;
            let prior = (k / n as f64).ln();
            let mut means = vec![0.0; d];
            for &r in &rows {
                for (m, v) in means.iter_mut().zip(x.row(r)) {
                    *m += v;
                }
            }
            means.iter_mut().for_each(|m| *m /= k);
            let mut vars = vec![0.0; d];
            for &r in &rows {
                for ((s, v), m) in vars.iter_mut().zip(x.row(r)).zip(&means) {
                    *s += (v - m).powi(2);
                }
            }
            for s in &mut vars {
                *s = *s / k + eps;
            }
            classes.push((prior, means, vars));
        }
        Ok(Box::new(GaussianNbModel { classes, n_classes }))
    }
}

impl ClassifierModel for GaussianNbModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        let mut out = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mut log_probs: Vec<f64> = self
                .classes
                .iter()
                .map(|(prior, means, vars)| {
                    let mut lp = *prior;
                    for ((v, m), s2) in row.iter().zip(means).zip(vars) {
                        lp +=
                            -0.5 * ((2.0 * std::f64::consts::PI * s2).ln() + (v - m).powi(2) / s2);
                    }
                    lp
                })
                .collect();
            let max = log_probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for lp in &mut log_probs {
                *lp = (*lp - max).exp();
                sum += *lp;
            }
            for lp in &mut log_probs {
                *lp /= sum;
            }
            out.push(log_probs);
        }
        Ok(out)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    #[test]
    fn nb_separates_gaussian_blobs() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let jitter = (i % 10) as f64 / 20.0;
            rows.push(vec![0.0 + jitter, 0.0 - jitter]);
            y.push(0);
            rows.push(vec![5.0 + jitter, 5.0 - jitter]);
            y.push(1);
        }
        let x = Matrix::from_rows(&rows);
        let model = GaussianNb.fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        assert_eq!(accuracy(&y, &pred), 1.0);
    }

    #[test]
    fn nb_handles_absent_class_gracefully() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = vec![0, 2]; // class 1 absent
        let model = GaussianNb.fit(&x, &y, 3).unwrap();
        let p = model.predict_proba(&x).unwrap();
        assert!(p[0][1] < 1e-6);
        assert!((p[0].iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
