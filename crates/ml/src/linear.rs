//! Linear models: multinomial logistic regression (gradient descent with
//! internal standardization) and ridge linear regression (closed form via
//! Cholesky).

use crate::estimator::{
    check_finite, validate_classification, validate_regression, Classifier, ClassifierModel,
    MlError, Regressor, RegressorModel, Result,
};
use crate::matrix::{cholesky_solve, Matrix};

/// Per-feature standardization fitted on training data; reused at predict
/// time so the linear models are robust to unscaled pipelines.
#[derive(Debug, Clone)]
struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    fn fit(x: &Matrix) -> Standardizer {
        let n = x.rows() as f64;
        let d = x.cols();
        let mut means = vec![0.0; d];
        for r in 0..x.rows() {
            for (m, v) in means.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; d];
        for r in 0..x.rows() {
            for ((s, v), m) in stds.iter_mut().zip(x.row(r)).zip(&means) {
                *s += (v - m).powi(2);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0; // constant feature: leave centered at zero
            }
        }
        Standardizer { means, stds }
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                out.set(r, c, (x.get(r, c) - self.means[c]) / self.stds[c]);
            }
        }
        out
    }
}

/// Multinomial logistic regression trained by full-batch gradient descent.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    pub learning_rate: f64,
    pub epochs: usize,
    pub l2: f64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        LogisticRegression { learning_rate: 0.5, epochs: 200, l2: 1e-4 }
    }
}

struct LogisticModel {
    /// `n_classes × (d + 1)` weights, last column is the bias.
    weights: Vec<Vec<f64>>,
    scaler: Standardizer,
    n_classes: usize,
}

fn softmax_into(logits: &mut [f64]) {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        sum += *l;
    }
    for l in logits.iter_mut() {
        *l /= sum;
    }
}

impl Classifier for LogisticRegression {
    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let n = xs.rows();
        let d = xs.cols();
        let mut weights = vec![vec![0.0; d + 1]; n_classes];
        let lr = self.learning_rate;
        let mut probs = vec![0.0; n_classes];
        let mut grads = vec![vec![0.0; d + 1]; n_classes];
        for _ in 0..self.epochs {
            for g in &mut grads {
                g.iter_mut().for_each(|v| *v = 0.0);
            }
            for (r, &yr) in y.iter().enumerate() {
                let row = xs.row(r);
                for (k, w) in weights.iter().enumerate() {
                    let mut z = w[d];
                    for (wi, xi) in w[..d].iter().zip(row) {
                        z += wi * xi;
                    }
                    probs[k] = z;
                }
                softmax_into(&mut probs);
                for (k, g) in grads.iter_mut().enumerate() {
                    let err = probs[k] - (yr == k) as usize as f64;
                    for (gi, xi) in g[..d].iter_mut().zip(row) {
                        *gi += err * xi;
                    }
                    g[d] += err;
                }
            }
            let scale = lr / n as f64;
            for (w, g) in weights.iter_mut().zip(&grads) {
                for (wi, gi) in w.iter_mut().zip(g) {
                    *wi -= scale * gi + lr * self.l2 * *wi;
                }
            }
            if weights.iter().flatten().any(|v| !v.is_finite()) {
                return Err(MlError::Numerical("logistic regression diverged".into()));
            }
        }
        Ok(Box::new(LogisticModel { weights, scaler, n_classes }))
    }
}

impl ClassifierModel for LogisticModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        let xs = self.scaler.transform(x);
        let d = xs.cols();
        let mut out = Vec::with_capacity(xs.rows());
        for r in 0..xs.rows() {
            let row = xs.row(r);
            let mut probs: Vec<f64> = self
                .weights
                .iter()
                .map(|w| {
                    let mut z = w[d];
                    for (wi, xi) in w[..d].iter().zip(row) {
                        z += wi * xi;
                    }
                    z
                })
                .collect();
            softmax_into(&mut probs);
            out.push(probs);
        }
        Ok(out)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Ridge linear regression solved in closed form:
/// `w = (XᵀX + λI)⁻¹ Xᵀ y` with an intercept column appended.
#[derive(Debug, Clone)]
pub struct RidgeRegression {
    pub l2: f64,
}

impl Default for RidgeRegression {
    fn default() -> Self {
        RidgeRegression { l2: 1.0 }
    }
}

struct RidgeModel {
    weights: Vec<f64>, // d + 1, last is intercept
    scaler: Standardizer,
}

impl Regressor for RidgeRegression {
    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>> {
        validate_regression(x, y)?;
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        let d = xs.cols();
        // Augment with intercept column.
        let mut xa = Matrix::zeros(xs.rows(), d + 1);
        for r in 0..xs.rows() {
            for c in 0..d {
                xa.set(r, c, xs.get(r, c));
            }
            xa.set(r, d, 1.0);
        }
        let mut gram = xa.gram();
        for i in 0..d {
            gram.set(i, i, gram.get(i, i) + self.l2);
        }
        // Tiny ridge on the intercept keeps the system positive definite.
        gram.set(d, d, gram.get(d, d) + 1e-8);
        let xty = xa.t_matvec(y);
        let weights = cholesky_solve(&gram, &xty)
            .ok_or_else(|| MlError::Numerical("singular normal equations".into()))?;
        Ok(Box::new(RidgeModel { weights, scaler }))
    }
}

impl RegressorModel for RidgeModel {
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_finite(x, "prediction features")?;
        let xs = self.scaler.transform(x);
        let d = xs.cols();
        Ok((0..xs.rows())
            .map(|r| {
                let row = xs.row(r);
                let mut z = self.weights[d];
                for (wi, xi) in self.weights[..d].iter().zip(row) {
                    z += wi * xi;
                }
                z
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logistic_separates_linear_data() {
        // y = 1 iff x0 + x1 > 1
        let rows: Vec<Vec<f64>> =
            (0..100).map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0]).collect();
        let y: Vec<usize> = rows.iter().map(|r| (r[0] + r[1] > 1.0) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let model = LogisticRegression::default().fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        let acc = crate::metrics::accuracy(&y, &pred);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn logistic_multiclass_probabilities_sum_to_one() {
        let rows = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let y = vec![0, 1, 2, 1];
        let x = Matrix::from_rows(&rows);
        let model = LogisticRegression::default().fit(&x, &y, 3).unwrap();
        for p in model.predict_proba(&x).unwrap() {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(p.len(), 3);
        }
    }

    #[test]
    fn ridge_recovers_linear_function() {
        // y = 3 x0 - 2 x1 + 5
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0, (i % 7) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| 3.0 * r[0] - 2.0 * r[1] + 5.0).collect();
        let x = Matrix::from_rows(&rows);
        let model = RidgeRegression { l2: 1e-6 }.fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(crate::metrics::r2(&y, &pred) > 0.999);
    }

    #[test]
    fn fit_rejects_nan_features() {
        let x = Matrix::from_rows(&[vec![f64::NAN], vec![1.0]]);
        assert!(LogisticRegression::default().fit(&x, &[0, 1], 2).is_err());
        assert!(RidgeRegression::default().fit(&x, &[0.0, 1.0]).is_err());
    }
}
