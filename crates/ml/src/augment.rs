//! Data augmentation / rebalancing: ADASYN- and SMOTE-style synthetic
//! oversampling for classification, SMOGN-style synthesis for imbalanced
//! regression (the ADASYN [33] and ImbalancedLearningRegression [83]
//! baselines from the paper's AutoML workflows).

use crate::transform::{require_column, Result, Transform};
use catdb_table::{Table, Value};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Oversampling flavours for classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AugmentMethod {
    /// SMOTE: uniform synthetic interpolation within minority classes.
    Smote,
    /// ADASYN: like SMOTE but density-adaptive — more synthesis for
    /// minority samples surrounded by other classes.
    Adasyn,
    /// SMOGN-style synthesis for regression targets (rare target ranges).
    Smogn,
}

impl AugmentMethod {
    pub fn label(self) -> &'static str {
        match self {
            AugmentMethod::Smote => "smote",
            AugmentMethod::Adasyn => "adasyn",
            AugmentMethod::Smogn => "smogn",
        }
    }
}

/// Synthetic oversampler. Interpolates numeric features between a seed row
/// and one of its same-class nearest neighbours; non-numeric features copy
/// the seed row's values. Train-only.
#[derive(Debug, Clone)]
pub struct Augmenter {
    pub target: String,
    pub method: AugmentMethod,
    pub seed: u64,
    /// Cap on synthesized rows as a fraction of the input (guards against
    /// degenerate blow-ups on extremely imbalanced data).
    pub max_growth: f64,
}

impl Augmenter {
    pub fn new(target: impl Into<String>, method: AugmentMethod) -> Augmenter {
        Augmenter { target: target.into(), method, seed: 17, max_growth: 1.0 }
    }
}

/// Numeric feature rows (non-target), with nulls as 0 for distance purposes.
fn numeric_rows(table: &Table, target: &str) -> (Vec<String>, Vec<Vec<f64>>) {
    let names: Vec<String> = table
        .iter_columns()
        .filter(|(f, _)| f.name != target && f.dtype.is_numeric())
        .map(|(f, _)| f.name.clone())
        .collect();
    let cols: Vec<Vec<Option<f64>>> =
        names.iter().map(|n| table.column(n).expect("name from schema").to_f64_vec()).collect();
    let rows =
        (0..table.n_rows()).map(|i| cols.iter().map(|c| c[i].unwrap_or(0.0)).collect()).collect();
    (names, rows)
}

fn k_nearest(rows: &[Vec<f64>], candidates: &[usize], from: usize, k: usize) -> Vec<usize> {
    let mut dists: Vec<(usize, f64)> = candidates
        .iter()
        .filter(|&&j| j != from)
        .map(|&j| {
            let d: f64 = rows[from].iter().zip(&rows[j]).map(|(a, b)| (a - b).powi(2)).sum();
            (j, d)
        })
        .collect();
    dists.sort_by(|a, b| a.1.total_cmp(&b.1));
    dists.truncate(k);
    dists.into_iter().map(|(j, _)| j).collect()
}

/// Append `count` synthetic rows interpolated between seeds and their
/// same-group neighbours. A seed row drawn again reuses its neighbours.
fn synthesize(
    table: &Table,
    numeric_names: &[String],
    rows: &[Vec<f64>],
    group: &[usize],
    count: usize,
    rng: &mut StdRng,
) -> Vec<Vec<Value>> {
    let mut out = Vec::with_capacity(count);
    if group.is_empty() {
        return out;
    }
    // Each field's position among the numeric rows, if it is one.
    let positions: Vec<Option<usize>> = table
        .schema()
        .fields()
        .iter()
        .map(|f| numeric_names.iter().position(|n| n == &f.name))
        .collect();
    let mut neighbours: Vec<Option<Vec<usize>>> = vec![None; group.len()];
    for _ in 0..count {
        let g = rng.gen_range(0..group.len());
        let seed_row = group[g];
        let neighbours = neighbours[g].get_or_insert_with(|| k_nearest(rows, group, seed_row, 5));
        let partner = if neighbours.is_empty() {
            seed_row
        } else {
            neighbours[rng.gen_range(0..neighbours.len())]
        };
        let alpha: f64 = rng.gen();
        let mut row_vals = Vec::with_capacity(table.n_cols());
        for ((field, col), pos) in table.iter_columns().zip(&positions) {
            if let Some(pos) = *pos {
                let a = rows[seed_row][pos];
                let b = rows[partner][pos];
                let v = a + alpha * (b - a);
                row_vals.push(match field.dtype {
                    catdb_table::DataType::Int => Value::Int(v.round() as i64),
                    _ => Value::Float(v),
                });
            } else {
                row_vals.push(col.get(seed_row));
            }
        }
        out.push(row_vals);
    }
    out
}

/// Append `new_rows` below `table`, moving its columns out and back
/// rather than copying them.
fn append_rows(table: &mut Table, new_rows: Vec<Vec<Value>>) -> Result<()> {
    if new_rows.is_empty() {
        return Ok(());
    }
    let mut cols = std::mem::replace(table, Table::empty()).into_columns();
    for row in new_rows {
        for ((_, col), val) in cols.iter_mut().zip(row) {
            col.push(val)?;
        }
    }
    *table = Table::from_columns(cols)?;
    Ok(())
}

impl Transform for Augmenter {
    fn fit(&mut self, table: &Table) -> Result<()> {
        require_column(table, &self.target).map(|_| ())
    }

    fn apply(&self, table: &mut Table) -> Result<()> {
        let target_col = require_column(table, &self.target)?;
        if table.n_rows() < 4 {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (numeric_names, rows) = numeric_rows(table, &self.target);
        let budget = (table.n_rows() as f64 * self.max_growth) as usize;

        match self.method {
            AugmentMethod::Smote | AugmentMethod::Adasyn => {
                // Group rows by class label.
                let mut groups: HashMap<String, Vec<usize>> = HashMap::new();
                for i in 0..table.n_rows() {
                    if !target_col.is_null_at(i) {
                        groups.entry(target_col.get(i).render()).or_default().push(i);
                    }
                }
                let majority = groups.values().map(|g| g.len()).max().unwrap_or(0);
                let mut synthetic = Vec::new();
                let mut remaining = budget;
                // Deterministic group order.
                let mut labels: Vec<&String> = groups.keys().collect();
                labels.sort();
                for label in labels {
                    let group = &groups[label];
                    if group.len() >= majority || group.len() < 2 {
                        continue;
                    }
                    let mut need = majority - group.len();
                    if self.method == AugmentMethod::Adasyn {
                        // Density adaptation: scale need by the fraction of
                        // each seed's neighbourhood held by other classes.
                        let mut hardness = 0.0;
                        for &i in group {
                            let nn =
                                k_nearest(&rows, &(0..table.n_rows()).collect::<Vec<_>>(), i, 5);
                            let other = nn
                                .iter()
                                .filter(|&&j| {
                                    target_col.is_null_at(j) || target_col.get(j).render() != *label
                                })
                                .count();
                            hardness += other as f64 / nn.len().max(1) as f64;
                        }
                        let ratio = (hardness / group.len() as f64).clamp(0.25, 1.0);
                        need = ((need as f64) * ratio).ceil() as usize;
                    }
                    let take = need.min(remaining);
                    remaining -= take;
                    synthetic.extend(synthesize(
                        table,
                        &numeric_names,
                        &rows,
                        group,
                        take,
                        &mut rng,
                    ));
                    if remaining == 0 {
                        break;
                    }
                }
                append_rows(table, synthetic)
            }
            AugmentMethod::Smogn => {
                // Rare-target synthesis: rows whose target is outside the
                // central 50 % of the target distribution get oversampled.
                let target_vals = target_col.to_f64_vec();
                let mut sorted: Vec<f64> = target_vals.iter().flatten().copied().collect();
                if sorted.len() < 4 {
                    return Ok(());
                }
                sorted.sort_by(|a, b| a.total_cmp(b));
                let q1 = sorted[sorted.len() / 4];
                let q3 = sorted[3 * sorted.len() / 4];
                let rare: Vec<usize> = (0..table.n_rows())
                    .filter(|&i| target_vals[i].map(|v| v < q1 || v > q3).unwrap_or(false))
                    .collect();
                if rare.len() < 2 {
                    return Ok(());
                }
                let count = rare.len().min(budget);
                let synthetic = synthesize(table, &numeric_names, &rows, &rare, count, &mut rng);
                append_rows(table, synthetic)
            }
        }
    }

    fn train_only(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Column;

    fn imbalanced_table() -> Table {
        // 20 of class "a", 4 of class "b".
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            xs.push(i as f64);
            ys.push("a".to_string());
        }
        for i in 0..4 {
            xs.push(100.0 + i as f64);
            ys.push("b".to_string());
        }
        Table::from_columns(vec![("x", Column::from_f64(xs)), ("y", Column::from_strings(ys))])
            .unwrap()
    }

    #[test]
    fn smote_balances_classes() {
        let t = imbalanced_table();
        let mut aug = Augmenter::new("y", AugmentMethod::Smote);
        let mut out = t.clone();
        aug.fit(&out).unwrap();
        aug.apply(&mut out).unwrap();
        let b_count = (0..out.n_rows())
            .filter(|&i| out.value(i, "y").unwrap() == Value::Str("b".into()))
            .count();
        assert_eq!(b_count, 20);
        // Synthetic minority samples interpolate within the minority range.
        for i in t.n_rows()..out.n_rows() {
            let x = out.value(i, "x").unwrap().as_f64().unwrap();
            assert!((100.0..=103.0).contains(&x), "synthetic x={x}");
        }
    }

    #[test]
    fn adasyn_synthesizes_fewer_when_classes_are_separable() {
        let t = imbalanced_table();
        let mut smote = Augmenter::new("y", AugmentMethod::Smote);
        let mut adasyn = Augmenter::new("y", AugmentMethod::Adasyn);
        let mut s = t.clone();
        smote.fit(&s).unwrap();
        smote.apply(&mut s).unwrap();
        let mut a = t.clone();
        adasyn.fit(&a).unwrap();
        adasyn.apply(&mut a).unwrap();
        // Minority cluster is far from the majority here, so ADASYN's
        // density scaling reduces synthesis versus plain SMOTE.
        assert!(a.n_rows() <= s.n_rows());
        assert!(a.n_rows() > t.n_rows());
    }

    #[test]
    fn smogn_oversamples_rare_targets() {
        let ys: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let xs: Vec<f64> = ys.iter().map(|y| y * 2.0).collect();
        let t = Table::from_columns(vec![("x", Column::from_f64(xs)), ("y", Column::from_f64(ys))])
            .unwrap();
        let mut aug = Augmenter::new("y", AugmentMethod::Smogn);
        let mut out = t.clone();
        aug.fit(&out).unwrap();
        aug.apply(&mut out).unwrap();
        assert!(out.n_rows() > t.n_rows());
    }

    #[test]
    fn augment_is_deterministic() {
        let t = imbalanced_table();
        let run = || {
            let mut aug = Augmenter::new("y", AugmentMethod::Smote);
            let mut out = t.clone();
            aug.fit(&out).unwrap();
            aug.apply(&mut out).unwrap();
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tiny_tables_pass_through() {
        let t = Table::from_columns(vec![
            ("x", Column::from_f64(vec![1.0, 2.0])),
            ("y", Column::from_strings(vec!["a", "b"])),
        ])
        .unwrap();
        let mut aug = Augmenter::new("y", AugmentMethod::Adasyn);
        let mut out = t.clone();
        aug.fit(&out).unwrap();
        aug.apply(&mut out).unwrap();
        assert_eq!(out.n_rows(), 2);
    }
}
