//! The twenty paper datasets (Table 3), reproduced as seeded synthetic
//! generators that match each dataset's task type, table count, column
//! count, class count, and — crucially — the data-quality pathology the
//! paper's narrative attributes to it (Section 5.3's per-dataset analysis).
//!
//! Row counts are scaled: `GenOptions::max_rows` caps the generated rows
//! (documented substitution — the pathologies, not the raw volume, drive
//! every experiment; volume effects are exercised by the profiling and
//! runtime benches through the `scale` knob).

use crate::engine::{generate_table, Blueprint, ColKind, ColumnPlan, TargetPlan};
use catdb_catalog::{MultiTableDataset, Relationship};
use catdb_ml::TaskKind;
use catdb_table::{Column, Table, Value};
use std::collections::HashMap;

/// Static description of one paper dataset (Table 3's row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    pub id: usize,
    pub name: &'static str,
    pub n_tables: usize,
    pub paper_rows: usize,
    pub n_cols: usize,
    pub task: TaskKind,
    pub n_classes: usize,
}

/// Table 3 verbatim.
pub const PAPER_DATASETS: [DatasetSpec; 20] = [
    DatasetSpec {
        id: 1,
        name: "wifi",
        n_tables: 1,
        paper_rows: 98,
        n_cols: 9,
        task: TaskKind::BinaryClassification,
        n_classes: 2,
    },
    DatasetSpec {
        id: 2,
        name: "diabetes",
        n_tables: 1,
        paper_rows: 768,
        n_cols: 9,
        task: TaskKind::BinaryClassification,
        n_classes: 2,
    },
    DatasetSpec {
        id: 3,
        name: "tic-tac-toe",
        n_tables: 1,
        paper_rows: 958,
        n_cols: 10,
        task: TaskKind::BinaryClassification,
        n_classes: 2,
    },
    DatasetSpec {
        id: 4,
        name: "imdb",
        n_tables: 7,
        paper_rows: 30_530_313,
        n_cols: 15,
        task: TaskKind::BinaryClassification,
        n_classes: 2,
    },
    DatasetSpec {
        id: 5,
        name: "kdd98",
        n_tables: 1,
        paper_rows: 82_318,
        n_cols: 478,
        task: TaskKind::BinaryClassification,
        n_classes: 2,
    },
    DatasetSpec {
        id: 6,
        name: "walking",
        n_tables: 1,
        paper_rows: 149_332,
        n_cols: 5,
        task: TaskKind::MulticlassClassification,
        n_classes: 22,
    },
    DatasetSpec {
        id: 7,
        name: "cmc",
        n_tables: 1,
        paper_rows: 1_473,
        n_cols: 10,
        task: TaskKind::MulticlassClassification,
        n_classes: 3,
    },
    DatasetSpec {
        id: 8,
        name: "eu-it",
        n_tables: 1,
        paper_rows: 1_253,
        n_cols: 23,
        task: TaskKind::MulticlassClassification,
        n_classes: 148,
    },
    DatasetSpec {
        id: 9,
        name: "survey",
        n_tables: 1,
        paper_rows: 2_778,
        n_cols: 29,
        task: TaskKind::MulticlassClassification,
        n_classes: 9,
    },
    DatasetSpec {
        id: 10,
        name: "etailing",
        n_tables: 1,
        paper_rows: 439,
        n_cols: 44,
        task: TaskKind::MulticlassClassification,
        n_classes: 5,
    },
    DatasetSpec {
        id: 11,
        name: "accidents",
        n_tables: 3,
        paper_rows: 954_036,
        n_cols: 46,
        task: TaskKind::MulticlassClassification,
        n_classes: 6,
    },
    DatasetSpec {
        id: 12,
        name: "financial",
        n_tables: 8,
        paper_rows: 552_017,
        n_cols: 62,
        task: TaskKind::MulticlassClassification,
        n_classes: 4,
    },
    DatasetSpec {
        id: 13,
        name: "airline",
        n_tables: 19,
        paper_rows: 445_827,
        n_cols: 115,
        task: TaskKind::MulticlassClassification,
        n_classes: 3,
    },
    DatasetSpec {
        id: 14,
        name: "gas-drift",
        n_tables: 1,
        paper_rows: 13_910,
        n_cols: 129,
        task: TaskKind::MulticlassClassification,
        n_classes: 6,
    },
    DatasetSpec {
        id: 15,
        name: "volkert",
        n_tables: 1,
        paper_rows: 58_310,
        n_cols: 181,
        task: TaskKind::MulticlassClassification,
        n_classes: 10,
    },
    DatasetSpec {
        id: 16,
        name: "yelp",
        n_tables: 4,
        paper_rows: 229_907,
        n_cols: 194,
        task: TaskKind::MulticlassClassification,
        n_classes: 9,
    },
    DatasetSpec {
        id: 17,
        name: "bike-sharing",
        n_tables: 1,
        paper_rows: 17_379,
        n_cols: 12,
        task: TaskKind::Regression,
        n_classes: 869,
    },
    DatasetSpec {
        id: 18,
        name: "utility",
        n_tables: 1,
        paper_rows: 4_574,
        n_cols: 13,
        task: TaskKind::Regression,
        n_classes: 95,
    },
    DatasetSpec {
        id: 19,
        name: "nyc",
        n_tables: 1,
        paper_rows: 581_835,
        n_cols: 17,
        task: TaskKind::Regression,
        n_classes: 1_811,
    },
    DatasetSpec {
        id: 20,
        name: "house-sales",
        n_tables: 1,
        paper_rows: 21_613,
        n_cols: 18,
        task: TaskKind::Regression,
        n_classes: 4_028,
    },
];

/// Look up a spec by name.
pub fn spec(name: &str) -> Option<&'static DatasetSpec> {
    PAPER_DATASETS.iter().find(|s| s.name == name)
}

/// Generation options.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Hard row cap after scaling (keeps experiments laptop-sized).
    pub max_rows: usize,
    /// Fraction of the paper's row count to generate (before the cap).
    pub scale: f64,
    pub seed: u64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions { max_rows: 4_000, scale: 1.0, seed: 77 }
    }
}

impl GenOptions {
    /// Rows to generate for `spec`: its scaled paper row count, at least
    /// 60 and at most `max_rows` (the cap wins when it is below 60).
    pub fn rows_for(&self, spec: &DatasetSpec) -> usize {
        (((spec.paper_rows as f64) * self.scale) as usize).max(60).min(self.max_rows)
    }
}

/// A fully generated dataset ready for profiling / generation.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    pub spec: &'static DatasetSpec,
    pub dataset: MultiTableDataset,
    pub target: String,
    pub task: TaskKind,
}

fn numeric(name: &str, signal: f64, missing: f64) -> ColumnPlan {
    ColumnPlan::new(name, ColKind::Numeric { mean: 10.0, std: 5.0, signal }).with_missing(missing)
}

fn categorical(name: &str, values: &[&str], signal: f64, dirty: f64) -> ColumnPlan {
    ColumnPlan::new(
        name,
        ColKind::Categorical {
            values: values.iter().map(|s| s.to_string()).collect(),
            signal,
            dirty,
        },
    )
}

/// Fill a blueprint with `count` generic feature columns cycling through
/// numeric (mostly), integer-coded categorical, and string categorical —
/// matching Figure 9(b)'s "good mix of numerical, textual, and categorical
/// features". Signal strength decays so only a subset is informative.
fn generic_columns(prefix: &str, count: usize, missing_every: usize) -> Vec<ColumnPlan> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let signal =
            if i < count.div_ceil(3) { 0.75 - 0.4 * (i as f64 / count as f64) } else { 0.0 };
        let missing = if missing_every > 0 && i % missing_every == 2 { 0.08 } else { 0.0 };
        let plan = match i % 5 {
            0..=2 => numeric(&format!("{prefix}{i}"), signal, missing),
            3 => ColumnPlan::new(
                format!("{prefix}{i}"),
                ColKind::IntCategorical { k: 3 + i % 6, signal },
            )
            .with_missing(missing),
            _ => categorical(
                &format!("{prefix}{i}"),
                &["alpha", "beta", "gamma", "delta"],
                signal,
                0.0,
            ),
        };
        out.push(plan);
    }
    out
}

fn classification_target(spec: &DatasetSpec, imbalance: f64, dirty: f64) -> TargetPlan {
    TargetPlan::Classification {
        n_classes: spec.n_classes.min(200),
        labels: None,
        imbalance,
        dirty,
    }
}

/// Blueprint per paper dataset (single-table logical form).
fn blueprint(spec: &DatasetSpec) -> Blueprint {
    let mut columns: Vec<ColumnPlan>;
    let target;
    match spec.name {
        // Wifi: constant feature + highly-correlated categorical refined by
        // CatDB (Table 5 narrative), dirty category spellings.
        "wifi" => {
            columns = vec![
                numeric("rssi_a", 0.9, 0.0),
                numeric("rssi_b", 0.7, 0.05),
                ColumnPlan::new("rssi_dup", ColKind::DuplicateOf { source: 0, noise: 0.4 }),
                categorical("room", &["kitchen", "hall", "office"], 0.8, 0.3),
                ColumnPlan::new("building", ColKind::Constant { value: "B1".into() }),
                numeric("noise_1", 0.0, 0.0),
                numeric("noise_2", 0.0, 0.1),
                categorical("device", &["android", "ios"], 0.0, 0.2),
            ];
            target = classification_target(spec, 0.0, 0.0);
        }
        // Diabetes: clean numeric medical features with missing values.
        "diabetes" => {
            columns = vec![
                numeric("glucose", 0.85, 0.05),
                numeric("bmi", 0.6, 0.08),
                numeric("age", 0.45, 0.0),
                numeric("pressure", 0.3, 0.12),
                numeric("insulin", 0.5, 0.3),
                numeric("pedigree", 0.2, 0.0),
                numeric("skin", 0.1, 0.2),
                numeric("pregnancies", 0.15, 0.0),
            ];
            target = classification_target(spec, 0.4, 0.0);
        }
        // Tic-Tac-Toe: purely categorical board cells.
        "tic-tac-toe" => {
            columns = (0..9)
                .map(|i| {
                    categorical(
                        &format!("cell_{i}"),
                        &["x", "o", "b"],
                        if i % 2 == 0 { 0.6 } else { 0.3 },
                        0.0,
                    )
                })
                .collect();
            target = classification_target(spec, 0.3, 0.0);
        }
        // EU IT: the flagship dirty dataset — target labels exist in many
        // semantically identical spellings, plus dirty categoricals
        // (Figure 1's 39.2 % → 91.8 % example).
        "eu-it" => {
            const ROLES: [&str; 24] = [
                "backend_developer",
                "frontend_developer",
                "data_analyst",
                "sys_admin",
                "solution_architect",
                "devops_engineer",
                "qa_engineer",
                "db_administrator",
                "ml_engineer",
                "security_analyst",
                "network_engineer",
                "product_manager",
                "scrum_master",
                "ui_designer",
                "data_engineer",
                "cloud_engineer",
                "support_engineer",
                "release_manager",
                "tech_writer",
                "site_reliability",
                "etl_developer",
                "bi_analyst",
                "game_developer",
                "embedded_developer",
            ];
            columns = vec![
                categorical("role", &ROLES, 0.85, 0.35),
                categorical("country", &["de", "fr", "it", "es", "pl", "nl"], 0.4, 0.25),
                ColumnPlan::new("experience", ColKind::DurationSentence),
                numeric("salary_eur", 0.7, 0.1),
                numeric("hours", 0.2, 0.05),
            ];
            columns.extend(generic_columns("v", spec.n_cols - 6, 4));
            // The target is the (dirtily re-spelled) occupation — the
            // paper's "semantically identical but differently formatted
            // duplicates" in the EU IT target.
            target = TargetPlan::Mirror { column: 0, fidelity: 0.96, dirty: 0.45 };
        }
        // Survey: a sentence feature that is really categorical.
        "survey" => {
            columns = vec![
                ColumnPlan::new("tenure", ColKind::DurationSentence).with_missing(0.05),
                categorical("dept", &["sales", "eng", "hr", "ops"], 0.7, 0.2),
                numeric("satisfaction", 0.8, 0.06),
            ];
            columns.extend(generic_columns("q", spec.n_cols - 4, 5));
            target = classification_target(spec, 0.2, 0.0);
        }
        // Etailing: duplicate category values correlated with the target
        // (cleaning lifts accuracy by ~30 % in Table 5).
        "etailing" => {
            columns = vec![
                categorical(
                    "segment",
                    &["Pro Shopper", "Casual", "Window", "Bulk Buyer"],
                    0.9,
                    0.45,
                ),
                categorical("channel", &["web", "app", "store"], 0.5, 0.3),
                numeric("basket", 0.6, 0.1),
            ];
            columns.extend(generic_columns("f", spec.n_cols - 4, 6));
            target = classification_target(spec, 0.25, 0.0);
        }
        // Utility (regression): categorical handling and dedup matter.
        "utility" => {
            columns = vec![
                categorical("plant_type", &["coal", "gas", "hydro", "solar", "wind"], 0.85, 0.3),
                numeric("capacity", 0.8, 0.04),
                numeric("age_years", 0.4, 0.0),
                categorical("region", &["north", "south", "east", "west"], 0.3, 0.2),
                numeric("staff", 0.2, 0.1),
                ColumnPlan::new("grid", ColKind::Constant { value: "EU".into() }),
            ];
            columns.extend(generic_columns("m", spec.n_cols - 7, 5));
            target = TargetPlan::Regression { scale: 120.0, noise: 9.0 };
        }
        // Yelp: list features ("Golf, Roofing, Movers") and hashed
        // day/timestamp columns misread as missing values.
        "yelp" => {
            columns = vec![
                ColumnPlan::new(
                    "categories",
                    ColKind::List {
                        vocab: [
                            "Golf", "Roofing", "Movers", "Taxis", "Bakery", "Bars", "Gym", "Spa",
                        ]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                        max_items: 3,
                        signal: 0.8,
                    },
                ),
                ColumnPlan::new(
                    "amenities",
                    ColKind::List {
                        vocab: ["wifi", "parking", "patio", "delivery", "takeout"]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                        max_items: 4,
                        signal: 0.4,
                    },
                ),
                numeric("checkin_hash", 0.0, 0.55),
                numeric("stars_avg", 0.85, 0.02),
                categorical("city", &["vegas", "phoenix", "toronto", "madison"], 0.3, 0.25),
            ];
            columns.extend(generic_columns("y", spec.n_cols.min(80) - 6, 7));
            target = classification_target(spec, 0.3, 0.0);
        }
        // Wide numeric sensor datasets.
        "gas-drift" | "volkert" | "walking" => {
            let cols = spec.n_cols.min(spec.name.len() * 40).min(181);
            columns = (0..cols - 1)
                .map(|i| {
                    let signal =
                        if i < cols / 4 { 0.8 - 0.5 * (i as f64 / cols as f64) } else { 0.0 };
                    numeric(&format!("s{i}"), signal, if i % 9 == 4 { 0.04 } else { 0.0 })
                })
                .collect();
            target = classification_target(spec, 0.1, 0.0);
        }
        // KDD98: very wide, heavily missing mixed features.
        "kdd98" => {
            columns = generic_columns("k", spec.n_cols.min(478) - 1, 3);
            for (i, c) in columns.iter_mut().enumerate() {
                if i % 6 == 1 {
                    c.missing_rate = 0.35;
                }
            }
            target = classification_target(spec, 1.2, 0.0);
        }
        // CMC: small multiclass with integer-coded categoricals.
        "cmc" => {
            columns = vec![
                ColumnPlan::new("wife_age", ColKind::Numeric { mean: 32.0, std: 8.0, signal: 0.6 }),
                ColumnPlan::new("wife_edu", ColKind::IntCategorical { k: 4, signal: 0.7 }),
                ColumnPlan::new("husband_edu", ColKind::IntCategorical { k: 4, signal: 0.4 }),
                ColumnPlan::new("children", ColKind::Numeric { mean: 3.0, std: 2.0, signal: 0.5 }),
                ColumnPlan::new("religion", ColKind::IntCategorical { k: 2, signal: 0.2 }),
                ColumnPlan::new("working", ColKind::IntCategorical { k: 2, signal: 0.15 }),
                ColumnPlan::new("occupation", ColKind::IntCategorical { k: 4, signal: 0.3 }),
                ColumnPlan::new("living_std", ColKind::IntCategorical { k: 4, signal: 0.45 }),
                ColumnPlan::new("media", ColKind::IntCategorical { k: 2, signal: 0.1 }),
            ];
            target = classification_target(spec, 0.3, 0.0);
        }
        // Regression datasets.
        "bike-sharing" => {
            columns = vec![
                numeric("temp", 0.8, 0.0),
                numeric("humidity", 0.5, 0.03),
                numeric("windspeed", 0.3, 0.0),
                ColumnPlan::new("hour", ColKind::IntCategorical { k: 24, signal: 0.6 }),
                ColumnPlan::new("weekday", ColKind::IntCategorical { k: 7, signal: 0.2 }),
                categorical("season", &["spring", "summer", "fall", "winter"], 0.4, 0.0),
                categorical("weather", &["clear", "mist", "rain"], 0.5, 0.0),
                ColumnPlan::new("holiday", ColKind::IntCategorical { k: 2, signal: 0.1 }),
                numeric("noise_a", 0.0, 0.0),
                numeric("noise_b", 0.0, 0.0),
                numeric("noise_c", 0.0, 0.05),
            ];
            target = TargetPlan::Regression { scale: 180.0, noise: 25.0 };
        }
        "nyc" | "house-sales" => {
            columns = generic_columns("c", spec.n_cols - 1, 6);
            target = TargetPlan::Regression { scale: 400.0, noise: 45.0 };
        }
        // Multi-table transactional datasets: the flat logical form; the
        // generator below factors dimensions out.
        "imdb" | "accidents" | "financial" | "airline" => {
            columns = generic_columns("a", spec.n_cols.min(115) - 1, 5);
            target = classification_target(spec, 0.4, 0.0);
        }
        _ => {
            columns = generic_columns("g", spec.n_cols.max(4) - 1, 5);
            target = classification_target(spec, 0.0, 0.0);
        }
    }
    Blueprint {
        name: spec.name.to_string(),
        columns,
        target_name: "target".to_string(),
        target,
        task: spec.task,
    }
}

/// Factor `dims` dimension tables out of a flat table: for each dimension,
/// a group of 2–3 columns moves into a lookup table keyed by a synthetic
/// id; the fact table keeps the foreign key. This turns the flat logical
/// form into the paper's multi-table physical form.
pub fn normalize_into_star(
    flat: &Table,
    name: &str,
    n_dims: usize,
    target: &str,
) -> MultiTableDataset {
    let feature_names: Vec<String> =
        flat.schema().names().iter().filter(|n| **n != target).map(|n| n.to_string()).collect();
    let n_dims = n_dims.min(feature_names.len() / 2);
    if n_dims == 0 {
        return MultiTableDataset::single(name, flat.clone());
    }
    let mut fact = flat.clone();
    let mut tables: Vec<(String, Table)> = Vec::new();
    let mut relationships = Vec::new();

    for d in 0..n_dims {
        // Take two columns per dimension from the tail of the feature list.
        let start = feature_names.len().saturating_sub(2 * (d + 1));
        let group: Vec<String> = feature_names[start..start + 2].to_vec();
        if group.iter().any(|g| !fact.schema().contains(g)) {
            continue;
        }
        // Distinct combos → dimension rows.
        let mut combo_ids: HashMap<String, i64> = HashMap::new();
        let mut dim_rows: Vec<Vec<Value>> = Vec::new();
        let mut fk = Vec::with_capacity(fact.n_rows());
        for i in 0..fact.n_rows() {
            let combo: Vec<Value> =
                group.iter().map(|g| fact.value(i, g).expect("column present")).collect();
            let key: String = combo.iter().map(|v| v.render()).collect::<Vec<_>>().join("\u{1f}");
            let next_id = combo_ids.len() as i64;
            let id = *combo_ids.entry(key).or_insert_with(|| {
                dim_rows.push(combo);
                next_id
            });
            fk.push(Some(id));
        }
        let dim_name = format!("dim_{d}");
        let mut dim_cols: Vec<(String, Column)> =
            vec![("id".to_string(), Column::Int((0..dim_rows.len() as i64).map(Some).collect()))];
        for (gi, gname) in group.iter().enumerate() {
            let src = fact.column(gname).expect("column present");
            let mut col = Column::with_capacity(src.dtype(), dim_rows.len());
            for row in &dim_rows {
                col.push(row[gi].clone()).expect("homogeneous dimension column");
            }
            dim_cols.push((gname.clone(), col));
        }
        tables.push((dim_name.clone(), Table::from_columns(dim_cols).expect("valid dim")));
        for gname in &group {
            fact.drop_column(gname).expect("column present");
        }
        fact.add_column(format!("{dim_name}_id"), Column::Int(fk)).expect("fresh fk");
        relationships.push(Relationship {
            from_table: "fact".to_string(),
            from_column: format!("{dim_name}_id"),
            to_table: dim_name,
            to_column: "id".to_string(),
        });
    }
    let mut all_tables = vec![("fact".to_string(), fact)];
    all_tables.extend(tables);
    MultiTableDataset {
        name: name.to_string(),
        fact_table: "fact".to_string(),
        tables: all_tables,
        relationships,
    }
}

/// Generate one paper dataset by name.
pub fn generate(name: &str, opts: &GenOptions) -> Option<GeneratedDataset> {
    let spec = spec(name)?;
    let bp = blueprint(spec);
    let n_rows = opts.rows_for(spec);
    let flat = generate_table(&bp, n_rows, opts.seed ^ (spec.id as u64) << 8);
    let dataset = if spec.n_tables > 1 {
        normalize_into_star(&flat, spec.name, spec.n_tables - 1, &bp.target_name)
    } else {
        MultiTableDataset::single(spec.name, flat)
    };
    Some(GeneratedDataset { spec, dataset, target: bp.target_name, task: spec.task })
}

/// Generate every paper dataset.
pub fn generate_all(opts: &GenOptions) -> Vec<GeneratedDataset> {
    PAPER_DATASETS.iter().filter_map(|s| generate(s.name, opts)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_twenty_datasets_generate() {
        let opts = GenOptions { max_rows: 300, ..Default::default() };
        let all = generate_all(&opts);
        assert_eq!(all.len(), 20);
        for g in &all {
            let flat = g.dataset.materialize().unwrap();
            assert!(flat.schema().contains(&g.target), "{} missing target", g.spec.name);
            assert!(flat.n_rows() >= 60, "{} too small", g.spec.name);
        }
    }

    #[test]
    fn multi_table_specs_produce_multiple_tables() {
        let opts = GenOptions { max_rows: 200, ..Default::default() };
        for name in ["imdb", "airline", "financial", "accidents", "yelp"] {
            let g = generate(name, &opts).unwrap();
            assert!(g.dataset.n_tables() > 1, "{name} should be multi-table");
            // Materialization restores the flat width (plus fk columns
            // replaced by original features).
            let flat = g.dataset.materialize().unwrap();
            assert!(flat.n_cols() >= 5);
        }
    }

    #[test]
    fn star_normalization_round_trips_values() {
        let opts = GenOptions { max_rows: 150, ..Default::default() };
        let g = generate("financial", &opts).unwrap();
        let flat = g.dataset.materialize().unwrap();
        // Every dimension column is back, with its values joined in.
        for rel in &g.dataset.relationships {
            let dim = g.dataset.table(&rel.to_table).unwrap();
            for field in dim.schema().fields() {
                if field.name != "id" {
                    assert!(
                        flat.schema().contains(&field.name),
                        "{} missing after materialize",
                        field.name
                    );
                }
            }
        }
    }

    #[test]
    fn eu_it_has_dirty_target_labels() {
        let g = generate("eu-it", &GenOptions::default()).unwrap();
        let flat = g.dataset.materialize().unwrap();
        let mut distinct = std::collections::HashSet::new();
        let col = flat.column("target").unwrap();
        for i in 0..col.len() {
            distinct.insert(col.get(i).render());
        }
        assert!(distinct.len() > 24, "dirty spellings expected, got {}", distinct.len());
    }

    #[test]
    fn yelp_has_lists_and_heavy_missing() {
        let g = generate("yelp", &GenOptions::default()).unwrap();
        let flat = g.dataset.materialize().unwrap();
        let cats = flat.column("categories").unwrap();
        let any_list = (0..cats.len()).any(|i| cats.get(i).render().contains(", "));
        assert!(any_list);
        let checkin = flat.column("checkin_hash").unwrap();
        assert!(checkin.null_count() as f64 / checkin.len() as f64 > 0.4);
    }

    #[test]
    fn row_scaling_respects_caps() {
        let spec = spec("imdb").unwrap();
        let small = GenOptions { max_rows: 500, scale: 1.0, seed: 1 };
        assert_eq!(small.rows_for(spec), 500);
        let tiny = GenOptions { max_rows: 500, scale: 1e-6, seed: 1 };
        assert_eq!(tiny.rows_for(spec), 60);
        let capped = GenOptions { max_rows: 40, scale: 1e-6, seed: 1 };
        assert_eq!(capped.rows_for(spec), 40);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate("cmc", &GenOptions::default()).unwrap();
        let b = generate("cmc", &GenOptions::default()).unwrap();
        assert_eq!(a.dataset.materialize().unwrap(), b.dataset.materialize().unwrap());
    }
}
