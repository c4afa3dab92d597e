//! Random forests: bagged CART trees with per-split feature subsampling.
//! Trees are trained in parallel on the shared `catdb-runtime` pool; the
//! per-tree seeds are drawn sequentially up front, so predictions are
//! identical for every `n_threads` value.

use crate::estimator::{
    check_finite, validate_classification, validate_regression, Classifier, ClassifierModel,
    Regressor, RegressorModel, Result,
};
use crate::matrix::Matrix;
use crate::tree::{fit_class_tree_on, fit_reg_tree, split_index, TreeConfig};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Shared forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    pub seed: u64,
    /// Worker threads for tree training (1 = sequential).
    pub n_threads: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { n_trees: 50, max_depth: 12, min_samples_leaf: 2, seed: 7, n_threads: 4 }
    }
}

fn bootstrap_rows(n: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

fn tree_config(cfg: &ForestConfig, n_features: usize, tree_seed: u64) -> TreeConfig {
    TreeConfig {
        max_depth: cfg.max_depth,
        min_samples_leaf: cfg.min_samples_leaf,
        max_thresholds: 16,
        feature_subsample: Some(((n_features as f64).sqrt().ceil() as usize).max(1)),
        seed: tree_seed,
    }
}

/// Random-forest classifier.
#[derive(Debug, Clone, Default)]
pub struct RandomForestClassifier {
    pub config: ForestConfig,
}

struct ForestClassifierModel {
    trees: Vec<crate::tree::TreeClassifierModel>,
    n_classes: usize,
}

impl Classifier for RandomForestClassifier {
    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        let cfg = &self.config;
        let n = x.rows();
        // Pre-draw bootstrap samples sequentially for determinism, then
        // train trees in parallel.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let samples: Vec<Vec<usize>> =
            (0..cfg.n_trees).map(|_| bootstrap_rows(n, &mut rng)).collect();
        // Rank once; every tree shares the rank table.
        let index = split_index(x, &tree_config(cfg, x.cols(), cfg.seed));
        let trees = catdb_runtime::parallel_map(cfg.n_threads, &samples, |t, sample| {
            let tc = tree_config(cfg, x.cols(), cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            fit_class_tree_on(x, y, sample.clone(), n_classes, &tc, Some(&index))
        });
        Ok(Box::new(ForestClassifierModel { trees, n_classes }))
    }
}

impl ClassifierModel for ForestClassifierModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        // One flat buffer; each row sums its trees in tree order.
        let mut acc = vec![0.0; x.rows() * self.n_classes];
        for tree in &self.trees {
            tree.add_proba(x, &mut acc);
        }
        let k = self.trees.len() as f64;
        Ok(acc
            .chunks_exact(self.n_classes)
            .map(|row| row.iter().map(|v| v / k).collect())
            .collect())
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Random-forest regressor.
#[derive(Debug, Clone, Default)]
pub struct RandomForestRegressor {
    pub config: ForestConfig,
}

struct ForestRegressorModel {
    trees: Vec<crate::tree::TreeRegressorModel>,
}

impl Regressor for RandomForestRegressor {
    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>> {
        validate_regression(x, y)?;
        let cfg = &self.config;
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let samples: Vec<Vec<usize>> =
            (0..cfg.n_trees).map(|_| bootstrap_rows(n, &mut rng)).collect();
        let index = split_index(x, &tree_config(cfg, x.cols(), cfg.seed));
        let trees = catdb_runtime::parallel_map(cfg.n_threads, &samples, |t, sample| {
            let tc = tree_config(cfg, x.cols(), cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            fit_reg_tree(x, y, sample.clone(), &tc, Some(&index))
        });
        Ok(Box::new(ForestRegressorModel { trees }))
    }
}

impl RegressorModel for ForestRegressorModel {
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_finite(x, "prediction features")?;
        let mut acc = vec![0.0; x.rows()];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.predict_unchecked(x)) {
                *a += v;
            }
        }
        let k = self.trees.len() as f64;
        for a in &mut acc {
            *a /= k;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use rand::Rng;

    #[test]
    fn forest_classifies_noisy_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..200 {
            let class = rng.gen_range(0..2usize);
            let cx = if class == 0 { 0.0 } else { 3.0 };
            rows.push(vec![cx + rng.gen::<f64>(), cx + rng.gen::<f64>()]);
            y.push(class);
        }
        let x = Matrix::from_rows(&rows);
        let cfg = ForestConfig { n_trees: 20, n_threads: 2, ..Default::default() };
        let model = RandomForestClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(accuracy(&y, &pred) > 0.97);
    }

    #[test]
    fn forest_regression_beats_mean() {
        let rows: Vec<Vec<f64>> =
            (0..200).map(|i| vec![(i % 20) as f64, (i / 20) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + r[1] * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let cfg = ForestConfig { n_trees: 20, n_threads: 2, ..Default::default() };
        let model = RandomForestRegressor { config: cfg }.fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(r2(&y, &pred) > 0.9);
    }

    /// The flat accumulator sums each row's tree distributions in tree
    /// order, as adding per-tree probability vectors did, bit for bit.
    #[test]
    fn forest_proba_equals_the_mean_of_tree_probas() {
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> =
            (0..120).map(|_| vec![rng.gen_range(0..6) as f64, rng.gen()]).collect();
        let y: Vec<usize> =
            rows.iter().map(|r| (r[0] as usize + (r[1] > 0.7) as usize) % 3).collect();
        let x = Matrix::from_rows(&rows);
        let cfg = ForestConfig { n_trees: 7, max_depth: 3, ..Default::default() };
        let index = split_index(&x, &tree_config(&cfg, 2, cfg.seed));
        let trees: Vec<_> = (0..cfg.n_trees as u64)
            .map(|t| {
                let sample = bootstrap_rows(x.rows(), &mut rng);
                fit_class_tree_on(&x, &y, sample, 3, &tree_config(&cfg, 2, t), Some(&index))
            })
            .collect();
        let mut want = vec![vec![0.0; 3]; x.rows()];
        for tree in &trees {
            for (acc, p) in want.iter_mut().zip(tree.predict_proba(&x).unwrap()) {
                for (a, v) in acc.iter_mut().zip(p) {
                    *a += v;
                }
            }
        }
        let k = trees.len() as f64;
        let want: Vec<Vec<u64>> =
            want.iter().map(|row| row.iter().map(|v| (v / k).to_bits()).collect()).collect();
        let model = ForestClassifierModel { trees, n_classes: 3 };
        let got: Vec<Vec<u64>> = model
            .predict_proba(&x)
            .unwrap()
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn forest_is_deterministic_for_fixed_seed() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i * 3 % 7) as f64]).collect();
        let y: Vec<usize> = (0..50).map(|i| (i % 2) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let cfg = ForestConfig { n_trees: 8, n_threads: 3, seed: 99, ..Default::default() };
        let m1 = RandomForestClassifier { config: cfg.clone() }.fit(&x, &y, 2).unwrap();
        let m2 = RandomForestClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        assert_eq!(m1.predict_proba(&x).unwrap(), m2.predict_proba(&x).unwrap());
    }

    /// Trees fitted in parallel open their `tree_fit` spans on pool
    /// threads. Each must nest under the span the fit was submitted from,
    /// not under a sibling tree another thread happened to open last.
    #[test]
    fn parallel_fit_spans_nest_under_the_submitting_span() {
        let mut rng = StdRng::seed_from_u64(8);
        let rows: Vec<Vec<f64>> = (0..600).map(|_| (0..8).map(|_| rng.gen()).collect()).collect();
        let y: Vec<usize> = rows.iter().map(|r| (r[0] + r[1] > 1.0) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        let root = {
            let _guard = catdb_trace::install(sink.clone());
            let root = catdb_trace::span("forest");
            let cfg = ForestConfig { n_trees: 32, n_threads: 8, ..Default::default() };
            RandomForestClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
            root.id()
        };
        let trace = sink.snapshot();
        trace.check_well_formed().expect("tree spans nest inside the forest span");
        let fits = trace.spans_named(crate::tree::SPAN_TREE_FIT);
        assert_eq!(fits.len(), 32);
        assert!(fits.iter().all(|s| s.parent == root), "{:?}", trace.spans);
    }
}
