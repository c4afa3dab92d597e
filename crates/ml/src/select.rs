//! Feature selection: keep the top-k columns most associated with the
//! target (|Pearson correlation| for numeric features, a correlation-ratio
//! style score for categoricals).

use crate::transform::{require_column, Result, Transform, TransformError};
use catdb_table::Table;
use std::collections::HashMap;

/// Keep the `k` features scoring highest against `target` (plus the target
/// itself). Fitted on train, then applied to train and test.
#[derive(Debug, Clone)]
pub struct TopKSelector {
    pub target: String,
    pub k: usize,
    keep: Option<Vec<String>>,
}

impl TopKSelector {
    pub fn new(target: impl Into<String>, k: usize) -> TopKSelector {
        TopKSelector { target: target.into(), k, keep: None }
    }

    pub fn kept(&self) -> &[String] {
        self.keep.as_deref().unwrap_or(&[])
    }
}

fn pearson_abs(a: &[Option<f64>], b: &[Option<f64>]) -> f64 {
    let pairs: Vec<(f64, f64)> =
        a.iter().zip(b).filter_map(|(x, y)| Some(((*x)?, (*y)?))).collect();
    if pairs.len() < 3 {
        return 0.0;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in &pairs {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx < 1e-12 || vy < 1e-12 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).abs()
}

/// Correlation-ratio-style score for a categorical feature against a
/// numeric target encoding: between-group variance over total variance.
fn categorical_score(groups: &HashMap<String, Vec<f64>>, all: &[f64]) -> f64 {
    if all.len() < 3 {
        return 0.0;
    }
    let n = all.len() as f64;
    let grand = all.iter().sum::<f64>() / n;
    let total_var: f64 = all.iter().map(|v| (v - grand).powi(2)).sum();
    if total_var < 1e-12 {
        return 0.0;
    }
    let between: f64 = groups
        .values()
        .map(|g| {
            let gm = g.iter().sum::<f64>() / g.len() as f64;
            g.len() as f64 * (gm - grand).powi(2)
        })
        .sum();
    (between / total_var).clamp(0.0, 1.0)
}

impl Transform for TopKSelector {
    fn fit(&mut self, table: &Table) -> Result<()> {
        let target_col = require_column(table, &self.target)?;
        // Numeric encoding of the target: numeric targets directly; string
        // targets by label index.
        let target_numeric: Vec<Option<f64>> = if target_col.dtype().is_numeric() {
            target_col.to_f64_vec()
        } else {
            let mut codes: HashMap<String, f64> = HashMap::new();
            (0..target_col.len())
                .map(|i| {
                    if target_col.is_null_at(i) {
                        None
                    } else {
                        let key = target_col.get(i).render();
                        let next = codes.len() as f64;
                        Some(*codes.entry(key).or_insert(next))
                    }
                })
                .collect()
        };

        let mut scored: Vec<(String, f64)> = Vec::new();
        for (field, col) in table.iter_columns() {
            if field.name == self.target {
                continue;
            }
            let score = if field.dtype.is_numeric() {
                pearson_abs(&col.to_f64_vec(), &target_numeric)
            } else {
                let mut groups: HashMap<String, Vec<f64>> = HashMap::new();
                let mut all = Vec::new();
                for (i, t) in target_numeric.iter().enumerate().take(col.len()) {
                    if let (false, Some(t)) = (col.is_null_at(i), *t) {
                        groups.entry(col.get(i).render()).or_default().push(t);
                        all.push(t);
                    }
                }
                categorical_score(&groups, &all)
            };
            scored.push((field.name.clone(), score));
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(self.k);
        self.keep = Some(scored.into_iter().map(|(n, _)| n).collect());
        Ok(())
    }

    fn apply(&self, table: &mut Table) -> Result<()> {
        let keep = self.keep.as_ref().ok_or(TransformError::NotFitted("top-k selector"))?;
        let mut names: Vec<&str> =
            keep.iter().map(|s| s.as_str()).filter(|n| table.schema().contains(n)).collect();
        if table.schema().contains(&self.target) {
            names.push(self.target.as_str());
        }
        // Move the kept columns out in their selected order.
        let kept = names
            .into_iter()
            .map(|n| Ok((n, table.drop_column(n)?)))
            .collect::<Result<Vec<_>>>()?;
        *table = Table::from_columns(kept)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Column;

    #[test]
    fn selects_correlated_numeric_feature() {
        let y: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let signal: Vec<f64> = y.iter().map(|v| v * 2.0 + 1.0).collect();
        let noise: Vec<f64> = (0..50).map(|i| ((i * 7919) % 13) as f64).collect();
        let t = Table::from_columns(vec![
            ("noise", Column::from_f64(noise)),
            ("signal", Column::from_f64(signal)),
            ("y", Column::from_f64(y)),
        ])
        .unwrap();
        let mut sel = TopKSelector::new("y", 1);
        let mut out = t.clone();
        sel.fit(&out).unwrap();
        sel.apply(&mut out).unwrap();
        assert_eq!(sel.kept(), &["signal".to_string()]);
        assert!(out.schema().contains("signal"));
        assert!(out.schema().contains("y"));
        assert!(!out.schema().contains("noise"));
    }

    #[test]
    fn categorical_feature_scored_by_group_separation() {
        // "grp" perfectly determines y; "junk" does not.
        let grp: Vec<&str> = (0..40).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let y: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { 0.0 } else { 10.0 }).collect();
        let junk: Vec<&str> = (0..40).map(|i| if i % 3 == 0 { "x" } else { "z" }).collect();
        let t = Table::from_columns(vec![
            ("junk", Column::from_strings(junk)),
            ("grp", Column::from_strings(grp)),
            ("y", Column::from_f64(y)),
        ])
        .unwrap();
        let mut sel = TopKSelector::new("y", 1);
        sel.fit(&t).unwrap();
        assert_eq!(sel.kept(), &["grp".to_string()]);
    }

    #[test]
    fn keeps_everything_when_k_exceeds_columns() {
        let t = Table::from_columns(vec![
            ("a", Column::from_f64(vec![1.0, 2.0, 3.0])),
            ("y", Column::from_f64(vec![1.0, 2.0, 3.0])),
        ])
        .unwrap();
        let mut sel = TopKSelector::new("y", 10);
        let mut out = t.clone();
        sel.fit(&out).unwrap();
        sel.apply(&mut out).unwrap();
        assert_eq!(out.n_cols(), 2);
    }
}
