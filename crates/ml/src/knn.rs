//! k-nearest-neighbour classifier and regressor (brute force, internally
//! standardized, inverse-distance weighting).
//!
//! Distances run through the blocked kernel in [`crate::dist`]: prediction
//! batches queries per parallel chunk and sweeps them over train-row ×
//! feature tiles instead of re-streaming the whole training set per query.
//! The kernel accumulates in the same feature order as the old per-query
//! rescan, so predictions are byte-identical.

use crate::dist::euclidean_block;
use crate::estimator::{
    check_finite, validate_classification, validate_regression, Classifier, ClassifierModel,
    Regressor, RegressorModel, Result,
};
use crate::matrix::Matrix;

/// Shared k-NN hyper-parameters.
#[derive(Debug, Clone)]
pub struct KnnConfig {
    pub k: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig { k: 5 }
    }
}

/// Column means / stds for internal standardization (duplicated rather than
/// shared with `linear` to keep the modules self-contained).
fn fit_scaling(x: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let n = x.rows() as f64;
    let d = x.cols();
    let mut means = vec![0.0; d];
    for r in 0..x.rows() {
        for (m, v) in means.iter_mut().zip(x.row(r)) {
            *m += v;
        }
    }
    means.iter_mut().for_each(|m| *m /= n);
    let mut stds = vec![0.0; d];
    for r in 0..x.rows() {
        for ((s, v), m) in stds.iter_mut().zip(x.row(r)).zip(&means) {
            *s += (v - m).powi(2);
        }
    }
    for s in &mut stds {
        *s = (*s / n).sqrt();
        if *s < 1e-12 {
            *s = 1.0;
        }
    }
    (means, stds)
}

fn scale_row(row: &[f64], means: &[f64], stds: &[f64]) -> Vec<f64> {
    row.iter().zip(means).zip(stds).map(|((v, m), s)| (v - m) / s).collect()
}

/// Standardized training rows, flattened row-major for the blocked kernel.
struct TrainSet {
    flat: Vec<f64>,
    n: usize,
    d: usize,
}

impl TrainSet {
    fn fit(x: &Matrix, means: &[f64], stds: &[f64]) -> TrainSet {
        let (n, d) = (x.rows(), x.cols());
        let mut flat = Vec::with_capacity(n * d);
        for r in 0..n {
            flat.extend(scale_row(x.row(r), means, stds));
        }
        TrainSet { flat, n, d }
    }

    /// Distances from each scaled query row to every training row
    /// (`out[q * n + t]`), via the blocked kernel.
    fn distances(&self, queries: &[f64], n_queries: usize) -> Vec<f64> {
        let mut out = vec![0.0; n_queries * self.n];
        euclidean_block(&self.flat, self.n, queries, n_queries, self.d, &mut out);
        out
    }
}

/// Indices and distances of the k nearest training rows given one query's
/// distance row. Stable sort keeps ties in index order, matching the old
/// per-query scan.
fn neighbours(dist_row: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut dists: Vec<(usize, f64)> = dist_row.iter().enumerate().map(|(i, &d)| (i, d)).collect();
    dists.sort_by(|a, b| a.1.total_cmp(&b.1));
    dists.truncate(k.max(1));
    dists
}

/// k-NN classifier.
#[derive(Debug, Clone, Default)]
pub struct KnnClassifier {
    pub config: KnnConfig,
}

struct KnnClassModel {
    train: TrainSet,
    labels: Vec<usize>,
    means: Vec<f64>,
    stds: Vec<f64>,
    k: usize,
    n_classes: usize,
}

impl Classifier for KnnClassifier {
    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        let (means, stds) = fit_scaling(x);
        let train = TrainSet::fit(x, &means, &stds);
        Ok(Box::new(KnnClassModel {
            train,
            labels: y.to_vec(),
            means,
            stds,
            k: self.config.k,
            n_classes,
        }))
    }
}

/// Rows per parallel prediction chunk. Fixed (not derived from the
/// thread count) so the flattened output is identical for any pool size.
const PREDICT_CHUNK: usize = 64;

impl ClassifierModel for KnnClassModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        let limit = catdb_runtime::pool_size().saturating_add(1);
        let chunks = catdb_runtime::parallel_chunks(limit, x.rows(), PREDICT_CHUNK, |range| {
            let rows: Vec<usize> = range.collect();
            let mut queries = Vec::with_capacity(rows.len() * self.train.d);
            for &r in &rows {
                queries.extend(scale_row(x.row(r), &self.means, &self.stds));
            }
            let dists = self.train.distances(&queries, rows.len());
            rows.iter()
                .enumerate()
                .map(|(qi, _)| {
                    let nn = neighbours(&dists[qi * self.train.n..(qi + 1) * self.train.n], self.k);
                    let mut probs = vec![0.0; self.n_classes];
                    let mut total = 0.0;
                    for (i, d) in nn {
                        let w = 1.0 / (d + 1e-9);
                        probs[self.labels[i]] += w;
                        total += w;
                    }
                    for p in &mut probs {
                        *p /= total;
                    }
                    probs
                })
                .collect::<Vec<_>>()
        });
        Ok(chunks.into_iter().flatten().collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// k-NN regressor.
#[derive(Debug, Clone, Default)]
pub struct KnnRegressor {
    pub config: KnnConfig,
}

struct KnnRegModel {
    train: TrainSet,
    targets: Vec<f64>,
    means: Vec<f64>,
    stds: Vec<f64>,
    k: usize,
}

impl Regressor for KnnRegressor {
    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>> {
        validate_regression(x, y)?;
        let (means, stds) = fit_scaling(x);
        let train = TrainSet::fit(x, &means, &stds);
        Ok(Box::new(KnnRegModel { train, targets: y.to_vec(), means, stds, k: self.config.k }))
    }
}

impl RegressorModel for KnnRegModel {
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_finite(x, "prediction features")?;
        let limit = catdb_runtime::pool_size().saturating_add(1);
        let chunks = catdb_runtime::parallel_chunks(limit, x.rows(), PREDICT_CHUNK, |range| {
            let rows: Vec<usize> = range.collect();
            let mut queries = Vec::with_capacity(rows.len() * self.train.d);
            for &r in &rows {
                queries.extend(scale_row(x.row(r), &self.means, &self.stds));
            }
            let dists = self.train.distances(&queries, rows.len());
            rows.iter()
                .enumerate()
                .map(|(qi, _)| {
                    let nn = neighbours(&dists[qi * self.train.n..(qi + 1) * self.train.n], self.k);
                    let mut num = 0.0;
                    let mut den = 0.0;
                    for (i, d) in nn {
                        let w = 1.0 / (d + 1e-9);
                        num += w * self.targets[i];
                        den += w;
                    }
                    num / den
                })
                .collect::<Vec<_>>()
        });
        Ok(chunks.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    #[test]
    fn knn_memorizes_training_points() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0], vec![11.0]]);
        let y = vec![0, 0, 1, 1];
        let model = KnnClassifier { config: KnnConfig { k: 1 } }.fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        assert_eq!(accuracy(&y, &pred), 1.0);
    }

    #[test]
    fn knn_regression_interpolates() {
        let x = Matrix::from_rows(&[vec![0.0], vec![2.0]]);
        let y = vec![0.0, 2.0];
        let model = KnnRegressor { config: KnnConfig { k: 2 } }.fit(&x, &y).unwrap();
        let pred = model.predict(&Matrix::from_rows(&[vec![1.0]])).unwrap();
        assert!((pred[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn probabilities_weighted_by_distance() {
        let x = Matrix::from_rows(&[vec![0.0], vec![5.0]]);
        let y = vec![0, 1];
        let model = KnnClassifier { config: KnnConfig { k: 2 } }.fit(&x, &y, 2).unwrap();
        let p = model.predict_proba(&Matrix::from_rows(&[vec![0.5]])).unwrap();
        assert!(p[0][0] > p[0][1]);
    }
}
