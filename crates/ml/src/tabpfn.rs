//! TabPFN surrogate.
//!
//! The real TabPFN (Hollmann et al., ICLR'23) is a transformer that solves
//! *small* tabular classification problems in one forward pass, with hard
//! input limits (≈1000 training samples, ≈100 features, ≤10 classes,
//! classification only). CAAFE uses it as its fixed model, which is why
//! CAAFE fails on the paper's large datasets ("Out of Mem.", "Doesn't
//! support" cells in Tables 5 and 7).
//!
//! The surrogate reproduces the *behavioural envelope*: identical hard
//! limits (violations raise the corresponding error), strong accuracy on
//! small clean data (an ensemble of distance-weighted prototype predictors
//! over feature subsets — cheap, deterministic, and competitive at
//! TabPFN-scale), and one-pass "training" cost.

use crate::estimator::{
    check_finite, validate_classification, Classifier, ClassifierModel, MlError, Result,
};
use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hard input limits copied from the published TabPFN constraints.
pub const TABPFN_MAX_SAMPLES: usize = 1000;
pub const TABPFN_MAX_FEATURES: usize = 100;
pub const TABPFN_MAX_CLASSES: usize = 10;

/// TabPFN surrogate classifier (see module docs).
#[derive(Debug, Clone)]
pub struct TabPfnSurrogate {
    /// Number of feature-subset ensemble members.
    pub n_members: usize,
    pub seed: u64,
}

impl Default for TabPfnSurrogate {
    fn default() -> Self {
        TabPfnSurrogate { n_members: 8, seed: 3 }
    }
}

struct Member {
    features: Vec<usize>,
    /// Standardized training rows restricted to `features`.
    train: Vec<Vec<f64>>,
    labels: Vec<usize>,
    means: Vec<f64>,
    stds: Vec<f64>,
}

struct TabPfnModel {
    members: Vec<Member>,
    n_classes: usize,
}

impl Classifier for TabPfnSurrogate {
    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        if x.rows() > TABPFN_MAX_SAMPLES {
            return Err(MlError::ResourceLimit(format!(
                "TabPFN supports at most {TABPFN_MAX_SAMPLES} training samples, got {}",
                x.rows()
            )));
        }
        if x.cols() > TABPFN_MAX_FEATURES {
            return Err(MlError::Unsupported(format!(
                "TabPFN supports at most {TABPFN_MAX_FEATURES} features, got {}",
                x.cols()
            )));
        }
        if n_classes > TABPFN_MAX_CLASSES {
            return Err(MlError::Unsupported(format!(
                "TabPFN supports at most {TABPFN_MAX_CLASSES} classes, got {n_classes}"
            )));
        }
        let d = x.cols();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let subset_size = ((d as f64 * 0.7).ceil() as usize).clamp(1, d);
        let mut members = Vec::with_capacity(self.n_members);
        for _ in 0..self.n_members {
            let mut features: Vec<usize> = (0..d).collect();
            features.shuffle(&mut rng);
            features.truncate(subset_size);
            features.sort_unstable();
            // Standardize within the subset.
            let n = x.rows() as f64;
            let mut means = vec![0.0; features.len()];
            for r in 0..x.rows() {
                for (m, &f) in means.iter_mut().zip(&features) {
                    *m += x.get(r, f);
                }
            }
            means.iter_mut().for_each(|m| *m /= n);
            let mut stds = vec![0.0; features.len()];
            for r in 0..x.rows() {
                for ((s, &f), m) in stds.iter_mut().zip(&features).zip(&means) {
                    *s += (x.get(r, f) - m).powi(2);
                }
            }
            for s in &mut stds {
                *s = (*s / n).sqrt();
                if *s < 1e-12 {
                    *s = 1.0;
                }
            }
            let train: Vec<Vec<f64>> = (0..x.rows())
                .map(|r| {
                    features
                        .iter()
                        .zip(&means)
                        .zip(&stds)
                        .map(|((&f, m), s)| (x.get(r, f) - m) / s)
                        .collect()
                })
                .collect();
            members.push(Member { features, train, labels: y.to_vec(), means, stds });
        }
        Ok(Box::new(TabPfnModel { members, n_classes }))
    }
}

impl Member {
    fn proba(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let q: Vec<f64> = self
            .features
            .iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((&f, m), s)| (row[f] - m) / s)
            .collect();
        // Softmax-weighted vote over all training points (attention-like).
        let mut probs = vec![1e-9; n_classes];
        for (t, &label) in self.train.iter().zip(&self.labels) {
            let d2: f64 = t.iter().zip(&q).map(|(a, b)| (a - b).powi(2)).sum();
            let w = (-d2 / q.len().max(1) as f64).exp();
            probs[label] += w;
        }
        let total: f64 = probs.iter().sum();
        probs.iter().map(|p| p / total).collect()
    }
}

impl ClassifierModel for TabPfnModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        let mut out = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mut acc = vec![0.0; self.n_classes];
            for m in &self.members {
                for (a, p) in acc.iter_mut().zip(m.proba(row, self.n_classes)) {
                    *a += p;
                }
            }
            let k = self.members.len() as f64;
            acc.iter_mut().for_each(|a| *a /= k);
            out.push(acc);
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
    fn surrogate_enforces_tabpfn_limits() {
        let big_x = Matrix::zeros(1001, 2);
        let y = vec![0; 1001];
        assert!(matches!(
            TabPfnSurrogate::default().fit(&big_x, &y, 2),
            Err(MlError::ResourceLimit(_))
        ));

        let wide_x = Matrix::zeros(10, 101);
        let y = vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1];
        assert!(matches!(
            TabPfnSurrogate::default().fit(&wide_x, &y, 2),
            Err(MlError::Unsupported(_))
        ));
    }

    #[test]
    fn surrogate_learns_small_problems_well() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let t = i as f64 / 10.0;
            rows.push(vec![t.sin(), t.cos()]);
            y.push((t.sin() > 0.0) as usize);
        }
        let x = Matrix::from_rows(&rows);
        let model = TabPfnSurrogate::default().fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(accuracy(&y, &pred) > 0.9);
    }

    #[test]
    fn surrogate_caps_classes() {
        let x = Matrix::from_rows(&(0..22).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let y: Vec<usize> = (0..22).map(|i| i / 2).collect(); // 11 classes
        assert!(TabPfnSurrogate::default().fit(&x, &y, 11).is_err());
    }
}
