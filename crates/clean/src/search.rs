//! Cleaning-pipeline search: SAGA's evolutionary optimizer and
//! Learn2Clean's greedy sequential selection, both scoring candidate
//! cleaning sequences by the downstream quality of a quick proxy model
//! (a shallow decision tree over ordinal-encoded features).

use crate::ops::{sequence_label, CleanOp};
use catdb_ml::{
    metrics, Classifier, DecisionTreeClassifier, DecisionTreeRegressor, ImputeStrategy, Imputer,
    LabelEncoder, Matrix, OrdinalEncoder, Regressor, TaskKind, Transform, TreeConfig,
};
use catdb_table::{DataType, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use std::time::Instant;

/// Result of a cleaning search.
#[derive(Debug, Clone)]
pub struct CleaningResult {
    pub tool: &'static str,
    pub sequence: Vec<CleanOp>,
    pub cleaned: Table,
    pub score: f64,
    pub candidates_evaluated: usize,
    pub elapsed_seconds: f64,
}

impl CleaningResult {
    /// Table 7's preprocessing label.
    pub fn label(&self) -> String {
        sequence_label(&self.sequence)
    }

    /// Re-apply the *value-level* ops of the chosen sequence (scaling,
    /// imputation) to another split — the inference-time half of an
    /// sklearn pipeline. Row-level ops (dedup, outlier removal, DROP)
    /// never touch the test split, preserving the paper's "unaltered test
    /// set" protocol for the row population.
    pub fn apply_value_ops(&self, other: &Table, target: &str) -> Table {
        let mut out = other.clone();
        for op in &self.sequence {
            let value_level =
                matches!(op, CleanOp::DecimalScale | CleanOp::EmImpute | CleanOp::MedianImpute);
            if value_level {
                if let Ok(t) = op.apply(&out, target) {
                    out = t;
                }
            }
        }
        out
    }
}

/// Search failure (e.g. Learn2Clean on a dataset with no numeric columns).
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningError(pub String);

impl std::fmt::Display for CleaningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cleaning search failed: {}", self.0)
    }
}

impl std::error::Error for CleaningError {}

/// Quick proxy evaluation: ordinal-encode + impute, fit a shallow tree,
/// score on an internal holdout (higher is better for both tasks).
fn proxy_score(table: &Table, target: &str, task: TaskKind, seed: u64) -> Option<f64> {
    if table.n_rows() < 10 || !table.schema().contains(target) {
        return None;
    }
    let mut t = table.clone();
    for (field, col) in table.iter_columns() {
        if field.name == target {
            continue;
        }
        if col.null_count() > 0 {
            let strat = if field.dtype.is_numeric() {
                ImputeStrategy::Median
            } else {
                ImputeStrategy::MostFrequent
            };
            let mut imp = Imputer::new(field.name.clone(), strat);
            imp.fit(&t).ok()?;
            imp.apply(&mut t).ok()?;
        }
        if field.dtype == DataType::Str {
            let mut enc = OrdinalEncoder::new(field.name.clone());
            enc.fit(&t).ok()?;
            enc.apply(&mut t).ok()?;
        }
    }
    let (fit, val) = t.train_test_split(0.75, seed).ok()?;
    let (x_fit, _) = catdb_ml::featurize(&fit, target).ok()?;
    let (x_val, _) = catdb_ml::featurize(&val, target).ok()?;
    let sanitize = |m: &mut Matrix| {
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                if !m.get(r, c).is_finite() {
                    m.set(r, c, 0.0);
                }
            }
        }
    };
    let mut x_fit = x_fit;
    let mut x_val = x_val;
    sanitize(&mut x_fit);
    sanitize(&mut x_val);
    if task.is_classification() {
        let enc = LabelEncoder::fit(&fit, target).ok()?;
        let y_fit = enc.encode(&fit, target).ok()?;
        let y_val = enc.encode_lossy(&val, target).ok()?;
        let tree =
            DecisionTreeClassifier { config: TreeConfig { max_depth: 6, ..Default::default() } };
        let model = tree.fit(&x_fit, &y_fit, enc.n_classes()).ok()?;
        let pred = model.predict(&x_val).ok()?;
        Some(metrics::accuracy(&y_val, &pred))
    } else {
        let y_fit = catdb_ml::regression_target(&fit, target).ok()?;
        let y_val = catdb_ml::regression_target(&val, target).ok()?;
        let tree =
            DecisionTreeRegressor { config: TreeConfig { max_depth: 6, ..Default::default() } };
        let model = tree.fit(&x_fit, &y_fit).ok()?;
        let pred = model.predict(&x_val).ok()?;
        Some(metrics::r2(&y_val, &pred))
    }
}

fn apply_sequence(table: &Table, ops: &[CleanOp], target: &str) -> Option<Table> {
    let mut t = table.clone();
    for op in ops {
        t = op.apply(&t, target).ok()?;
        if t.n_rows() < 10 {
            return None; // degenerate cleaning
        }
    }
    Some(t)
}

/// Learn2Clean: greedy forward selection of cleaning primitives — at each
/// step try every unused op, keep the best one if it improves the proxy
/// score, stop otherwise (a deterministic stand-in for its Q-learning).
pub fn learn2clean(
    table: &Table,
    target: &str,
    task: TaskKind,
    seed: u64,
) -> Result<CleaningResult, CleaningError> {
    let started = Instant::now();
    // L2C's documented failure mode on EU IT: no continuous columns.
    let has_numeric = table.iter_columns().any(|(f, _)| f.dtype.is_numeric() && f.name != target);
    if !has_numeric {
        return Err(CleaningError("no continuous columns".into()));
    }
    let mut current = table.clone();
    let mut sequence: Vec<CleanOp> = Vec::new();
    let mut best_score = proxy_score(&current, target, task, seed)
        .ok_or_else(|| CleaningError("baseline evaluation failed".into()))?;
    let mut evaluated = 1;
    let limit = catdb_runtime::pool_size().saturating_add(1);
    for _ in 0..4 {
        // Score every unused op in parallel; `parallel_map` returns the
        // results in input order, so the strict `>` fold below keeps the
        // same first-max-wins winner as the old sequential loop.
        let unused: Vec<CleanOp> =
            CleanOp::ALL.into_iter().filter(|op| !sequence.contains(op)).collect();
        let scored = catdb_runtime::parallel_map(limit, &unused, |_, &op| {
            let Ok(candidate) = op.apply(&current, target) else { return None };
            if candidate.n_rows() < 10 {
                return None;
            }
            let score = proxy_score(&candidate, target, task, seed)?;
            Some((score, op, candidate))
        });
        let mut round_best: Option<(f64, CleanOp, Table)> = None;
        for entry in scored.into_iter().flatten() {
            evaluated += 1;
            if round_best.as_ref().is_none_or(|(s, _, _)| entry.0 > *s) {
                round_best = Some(entry);
            }
        }
        match round_best {
            Some((score, op, candidate)) if score > best_score + 1e-9 => {
                best_score = score;
                sequence.push(op);
                current = candidate;
            }
            _ => break,
        }
    }
    Ok(CleaningResult {
        tool: "learn2clean",
        sequence,
        cleaned: current,
        score: best_score,
        candidates_evaluated: evaluated,
        elapsed_seconds: started.elapsed().as_secs_f64(),
    })
}

/// SAGA configuration.
#[derive(Debug, Clone)]
pub struct SagaConfig {
    pub population: usize,
    pub generations: usize,
    pub max_sequence_len: usize,
    pub seed: u64,
}

impl Default for SagaConfig {
    fn default() -> Self {
        SagaConfig { population: 10, generations: 4, max_sequence_len: 4, seed: 13 }
    }
}

/// SAGA: evolutionary search over cleaning sequences (population with
/// tournament selection, crossover, and add/remove/replace mutations).
pub fn saga(
    table: &Table,
    target: &str,
    task: TaskKind,
    cfg: &SagaConfig,
) -> Result<CleaningResult, CleaningError> {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let random_seq = |rng: &mut StdRng| -> Vec<CleanOp> {
        let len = rng.gen_range(1..=cfg.max_sequence_len);
        let mut ops = CleanOp::ALL.to_vec();
        ops.shuffle(rng);
        ops.truncate(len);
        ops
    };
    let mut evaluated = 0;
    let fitness = |seq: &[CleanOp]| -> f64 {
        match apply_sequence(table, seq, target) {
            Some(t) => proxy_score(&t, target, task, cfg.seed).unwrap_or(f64::NEG_INFINITY),
            None => f64::NEG_INFINITY,
        }
    };
    let limit = catdb_runtime::pool_size().saturating_add(1);
    // Fitness evaluation never touches the RNG, so candidate sequences are
    // drawn sequentially (identical RNG stream to the old code) and then
    // scored in parallel on the shared runtime.
    let score_all = |seqs: Vec<Vec<CleanOp>>, evaluated: &mut usize| -> Vec<(Vec<CleanOp>, f64)> {
        *evaluated += seqs.len();
        let scores = catdb_runtime::parallel_map(limit, &seqs, |_, seq| fitness(seq));
        seqs.into_iter().zip(scores).collect()
    };

    let seeds: Vec<Vec<CleanOp>> = (0..cfg.population).map(|_| random_seq(&mut rng)).collect();
    let mut population = score_all(seeds, &mut evaluated);
    // Seed the empty sequence so "no cleaning" competes.
    evaluated += 1;
    let empty_fit = fitness(&[]);
    population.push((Vec::new(), empty_fit));

    for _ in 0..cfg.generations {
        population.sort_by(|a, b| b.1.total_cmp(&a.1));
        population.truncate(cfg.population);
        let elite = population[..population.len().min(4)].to_vec();
        let mut children = Vec::new();
        for _ in 0..cfg.population / 2 {
            // Crossover: splice two elite parents.
            let pa = &elite[rng.gen_range(0..elite.len())].0;
            let pb = &elite[rng.gen_range(0..elite.len())].0;
            let mut child: Vec<CleanOp> = pa
                .iter()
                .take(pa.len() / 2 + 1)
                .chain(pb.iter().skip(pb.len() / 2))
                .copied()
                .collect();
            child.dedup();
            // Mutation: add / remove / replace one op.
            match rng.gen_range(0..3) {
                0 if child.len() < cfg.max_sequence_len => {
                    child.push(CleanOp::ALL[rng.gen_range(0..CleanOp::ALL.len())]);
                }
                1 if !child.is_empty() => {
                    let i = rng.gen_range(0..child.len());
                    child.remove(i);
                }
                _ if !child.is_empty() => {
                    let i = rng.gen_range(0..child.len());
                    child[i] = CleanOp::ALL[rng.gen_range(0..CleanOp::ALL.len())];
                }
                _ => {}
            }
            child.truncate(cfg.max_sequence_len);
            children.push(child);
        }
        population.extend(score_all(children, &mut evaluated));
    }
    population.sort_by(|a, b| b.1.total_cmp(&a.1));
    let (best_seq, best_fit) = population.into_iter().next().expect("population non-empty");
    if !best_fit.is_finite() {
        return Err(CleaningError("no viable cleaning sequence".into()));
    }
    let cleaned = apply_sequence(table, &best_seq, target)
        .ok_or_else(|| CleaningError("apply failed".into()))?;
    Ok(CleaningResult {
        tool: "saga",
        sequence: best_seq,
        cleaned,
        score: best_fit,
        candidates_evaluated: evaluated,
        elapsed_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Column;

    /// A dataset where cleaning demonstrably helps: heavy outliers and
    /// missing values obscure a simple signal.
    fn cleanable() -> Table {
        let n = 300;
        let x: Vec<Option<f64>> = (0..n)
            .map(|i| {
                if i % 11 == 0 {
                    None
                } else if i % 17 == 0 {
                    Some(1e6) // outlier
                } else {
                    Some((i % 50) as f64)
                }
            })
            .collect();
        let y: Vec<&str> = (0..n).map(|i| if (i % 50) < 25 { "lo" } else { "hi" }).collect();
        Table::from_columns(vec![("x", Column::Float(x)), ("y", Column::from_strings(y))]).unwrap()
    }

    #[test]
    fn learn2clean_improves_proxy_score() {
        let t = cleanable();
        let base = proxy_score(&t, "y", TaskKind::BinaryClassification, 1).unwrap();
        let result = learn2clean(&t, "y", TaskKind::BinaryClassification, 1).unwrap();
        assert!(result.score >= base);
        assert!(result.candidates_evaluated > 1);
    }

    #[test]
    fn learn2clean_fails_without_continuous_columns() {
        let t = Table::from_columns(vec![
            ("c", Column::from_strings(vec!["a", "b", "a", "b"])),
            ("y", Column::from_strings(vec!["p", "q", "p", "q"])),
        ])
        .unwrap();
        let err = learn2clean(&t, "y", TaskKind::BinaryClassification, 1).unwrap_err();
        assert!(err.0.contains("continuous"));
    }

    #[test]
    fn saga_finds_a_viable_sequence() {
        let t = cleanable();
        let result = saga(&t, "y", TaskKind::BinaryClassification, &SagaConfig::default()).unwrap();
        assert!(result.score.is_finite());
        assert!(result.sequence.len() <= 4);
        assert!(result.candidates_evaluated >= 10);
        // The label renders Table 7 style.
        assert!(!result.label().is_empty());
    }

    #[test]
    fn saga_is_deterministic_per_seed() {
        let t = cleanable();
        let a = saga(&t, "y", TaskKind::BinaryClassification, &SagaConfig::default()).unwrap();
        let b = saga(&t, "y", TaskKind::BinaryClassification, &SagaConfig::default()).unwrap();
        assert_eq!(a.sequence, b.sequence);
    }

    #[test]
    fn cleaning_preserves_target_column() {
        let t = cleanable();
        let result = learn2clean(&t, "y", TaskKind::BinaryClassification, 2).unwrap();
        assert!(result.cleaned.schema().contains("y"));
    }
}
