//! LLM-assisted catalog refinement and data preparation (Section 3.2,
//! Figures 4–5, Table 4).
//!
//! Three refinements run over the profiled dataset:
//!
//! 1. **Feature-type inference** — string columns profiled as `Sentence`
//!    are sent (name + ≤10 samples) to the LLM, which may reclassify them
//!    as `List` (with a separator) or `Categorical`.
//! 2. **Composite splitting** — sentence columns whose values share a
//!    stable multi-part shape ("7050 CA") are split into part columns,
//!    each re-typed (digit parts become integers).
//! 3. **Categorical value refinement** — distinct values (with counts)
//!    are sent to the LLM, which returns a semantic-equivalence mapping
//!    ({F, Female, fem.} → Female; "12 Months" → "1 year").
//!
//! `refine_dataset` applies everything to the table (materializing the
//! prepared data: mappings applied, composites split, lists k-hot
//! expanded), re-profiles, and reports before/after distinct counts — the
//! exact quantity Table 4 tabulates.

use catdb_llm::{estimate_tokens, LanguageModel, Prompt, TokenUsage};
use catdb_profiler::{profile_table, ColumnProfile, DataProfile, FeatureType, ProfileOptions};
use catdb_table::{column_dict, Column, DataType, Table, ValueDict};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Span wrapping one [`refine_dataset`] call, its re-profile included.
pub const SPAN_REFINE_DATASET: &str = "refine_dataset";

/// What happened to one column during refinement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RefineAction {
    /// Semantically equivalent categorical values merged.
    DedupValues { merged: usize },
    /// Composite column split into parts.
    SplitComposite { into: Vec<String> },
    /// List column expanded into k-hot item columns.
    ExpandList { items: usize },
    /// Feature type changed without restructuring.
    Reclassified { from: String, to: String },
}

impl RefineAction {
    /// Short label used in trace events.
    pub fn label(&self) -> &'static str {
        match self {
            RefineAction::DedupValues { .. } => "dedup_values",
            RefineAction::SplitComposite { .. } => "split_composite",
            RefineAction::ExpandList { .. } => "expand_list",
            RefineAction::Reclassified { .. } => "reclassified",
        }
    }
}

/// Per-column refinement record (drives Table 4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnRefinement {
    pub column: String,
    pub action: RefineAction,
    pub distinct_before: usize,
    pub distinct_after: usize,
}

/// Full refinement output.
#[derive(Debug, Clone)]
pub struct RefinementReport {
    pub refinements: Vec<ColumnRefinement>,
    pub usage: TokenUsage,
    pub llm_calls: usize,
}

/// Options for the refinement pass.
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Samples per column in the type-inference prompt.
    pub n_samples: usize,
    /// Batch size for large categorical value lists ("batch-wise for
    /// robustness" — Section 3.2).
    pub value_batch: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions { n_samples: 10, value_batch: 64 }
    }
}

/// Composite shape detection: do most values share the same multi-part
/// token pattern (e.g. `digits alpha`)? Returns the per-part class string.
fn composite_shape(samples: &[String]) -> Option<Vec<char>> {
    let mut shape: Option<Vec<char>> = None;
    let mut matched = 0;
    let classify = |tok: &str| -> char {
        if tok.chars().all(|c| c.is_ascii_digit()) {
            'd'
        } else if tok.chars().all(|c| c.is_alphabetic()) {
            'a'
        } else {
            'm'
        }
    };
    for s in samples {
        let toks: Vec<&str> = s.split_whitespace().collect();
        if toks.len() < 2 || toks.len() > 4 {
            continue;
        }
        let sig: Vec<char> = toks.iter().map(|t| classify(t)).collect();
        match &shape {
            None => {
                shape = Some(sig);
                matched = 1;
            }
            Some(existing) if *existing == sig => matched += 1,
            _ => return None, // inconsistent shapes → not a clean composite
        }
    }
    if matched * 2 >= samples.len().max(1) && matched >= 2 {
        shape
    } else {
        None
    }
}

/// Split a composite column into per-part columns; parts that are all
/// digits become integer columns.
fn split_composite(table: &mut Table, name: &str, n_parts: usize) -> Vec<String> {
    let col = table.column(name).expect("caller verified").clone();
    let mut parts: Vec<Vec<Option<String>>> = vec![vec![None; col.len()]; n_parts];
    for (i, cell) in (0..col.len()).map(|i| (i, col.get(i))).filter(|(i, _)| !col.is_null_at(*i)) {
        let v = cell.render();
        for (p, tok) in v.split_whitespace().take(n_parts).enumerate() {
            parts[p][i] = Some(tok.to_string());
        }
    }
    let mut new_names = Vec::with_capacity(n_parts);
    for (p, values) in parts.into_iter().enumerate() {
        let col_name = format!("{name}_p{}", p + 1);
        let all_numeric = values.iter().flatten().all(|s| s.parse::<i64>().is_ok());
        let has_any = values.iter().any(|v| v.is_some());
        let new_col = if all_numeric && has_any {
            Column::Int(values.into_iter().map(|v| v.and_then(|s| s.parse().ok())).collect())
        } else {
            Column::Str(values)
        };
        table.add_column(col_name.clone(), new_col).expect("fresh name");
        new_names.push(col_name);
    }
    table.drop_column(name).expect("caller verified");
    new_names
}

/// Expand a list column into k-hot 0/1 item columns (Figure 5's Skills →
/// C++/Java/Python columns). Returns the number of distinct items.
fn expand_list(table: &mut Table, name: &str, separator: &str) -> usize {
    let col = table.column(name).expect("caller verified").clone();
    let mut vocab: BTreeMap<String, ()> = BTreeMap::new();
    let row_items: Vec<Vec<String>> = (0..col.len())
        .map(|i| {
            if col.is_null_at(i) {
                Vec::new()
            } else {
                col.get(i)
                    .render()
                    .split(separator)
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
        })
        .collect();
    for items in &row_items {
        for item in items {
            vocab.insert(item.clone(), ());
        }
    }
    for item in vocab.keys() {
        let ind: Vec<Option<i64>> =
            row_items.iter().map(|items| Some(items.iter().any(|x| x == item) as i64)).collect();
        table.add_column(format!("{name}={item}"), Column::Int(ind)).expect("fresh name");
    }
    table.drop_column(name).expect("caller verified");
    vocab.len()
}

/// Apply a value mapping to a string column whose dictionary is `dict`.
/// Each distinct value is looked up once; rows follow their code.
fn apply_mapping(
    table: &mut Table,
    name: &str,
    dict: &ValueDict,
    mapping: &BTreeMap<String, String>,
) {
    let Column::Str(rows) = table.column(name).expect("caller verified") else {
        unreachable!("categorical refinement only maps string columns")
    };
    let canon: Vec<Option<&String>> = dict.values().map(|v| mapping.get(v)).collect();
    let mapped: Vec<Option<String>> = rows
        .iter()
        .zip(dict.codes())
        .map(|(row, &code)| match canon.get(code as usize).copied().flatten() {
            Some(canon) => Some(canon.clone()),
            None => row.clone(),
        })
        .collect();
    table.replace_column(name, Column::Str(mapped)).expect("caller verified");
}

fn distinct_count(table: &Table, name: &str) -> usize {
    let col = table.column(name).expect("caller verified");
    // The profiler already built (and memoized) this column's dictionary;
    // reuse it instead of re-rendering every row into a fresh set.
    column_dict(col).n_distinct()
}

/// Value list with counts for the refinement prompt ("Male:53|male:2").
fn values_with_counts(dict: &ValueDict) -> Vec<String> {
    // Dictionary values are sorted ascending — the same order the old
    // BTreeMap walk produced.
    dict.values().zip(dict.counts()).map(|(v, c)| format!("{v}:{c}")).collect()
}

/// Run the full refinement pass over `table`, whose profile `profile`
/// was computed under `profile_options`, editing it in place. Returns
/// the prepared table, its fresh profile under the same options, and the
/// refinement report.
pub fn refine_dataset(
    dataset_name: &str,
    mut table: Table,
    profile: &DataProfile,
    profile_options: &ProfileOptions,
    target: &str,
    llm: &dyn LanguageModel,
    opts: &RefineOptions,
) -> (Table, DataProfile, RefinementReport) {
    let _span = catdb_trace::span(SPAN_REFINE_DATASET);
    let mut report =
        RefinementReport { refinements: Vec::new(), usage: TokenUsage::default(), llm_calls: 0 };

    // --- 1. Feature-type inference over sentence candidates ---
    let candidates: Vec<&ColumnProfile> = profile
        .columns
        .iter()
        .filter(|c| c.name != target && c.feature_type == FeatureType::Sentence)
        .collect();
    let mut inferred: BTreeMap<String, (String, Option<String>)> = BTreeMap::new();
    if !candidates.is_empty() {
        let mut user = String::from("<TASK>feature_type_inference</TASK>\n<SCHEMA>\n");
        for c in &candidates {
            let samples: Vec<String> = c.samples.iter().take(opts.n_samples).cloned().collect();
            user.push_str(&format!(
                "col name=\"{}\" values=\"{}\"\n",
                c.name,
                samples.join("|").replace('"', "'")
            ));
        }
        user.push_str("</SCHEMA>\n");
        let prompt = Prompt::new("Infer ML feature types from samples.", user);
        catdb_trace::emit(catdb_trace::TraceEvent::PromptBuilt {
            task: "feature_type_inference".to_string(),
            tokens: prompt.token_len(),
        });
        if let Ok(completion) = llm.complete(&prompt) {
            report.usage += completion.usage;
            report.llm_calls += 1;
            for (col, feature, sep) in catdb_llm::parse_typeinfer_response(&completion.text) {
                inferred.insert(col, (feature, sep));
            }
        }
    }

    // --- 2. Structural refinements: composites and lists ---
    for c in &candidates {
        let name = &c.name;
        if !table.schema().contains(name) {
            continue;
        }
        let before = distinct_count(&table, name);
        match inferred.get(name).map(|(f, s)| (f.as_str(), s.clone())) {
            Some(("list", sep)) => {
                let sep = sep.unwrap_or_else(|| ",".to_string());
                let items = expand_list(&mut table, name, &sep);
                report.refinements.push(ColumnRefinement {
                    column: name.clone(),
                    action: RefineAction::ExpandList { items },
                    distinct_before: before,
                    distinct_after: items,
                });
            }
            Some(("sentence", _)) | None => {
                // Still a sentence: try composite splitting.
                if let Some(shape) = composite_shape(&c.samples) {
                    let parts = split_composite(&mut table, name, shape.len());
                    let after = parts.iter().map(|p| distinct_count(&table, p)).max().unwrap_or(0);
                    report.refinements.push(ColumnRefinement {
                        column: name.clone(),
                        action: RefineAction::SplitComposite { into: parts },
                        distinct_before: before,
                        distinct_after: after,
                    });
                }
            }
            Some((other, _)) => {
                // Reclassified (e.g. categorical); value-level dedup below
                // will pick it up via the fresh profile.
                report.refinements.push(ColumnRefinement {
                    column: name.clone(),
                    action: RefineAction::Reclassified {
                        from: "sentence".to_string(),
                        to: other.to_string(),
                    },
                    distinct_before: before,
                    distinct_after: before,
                });
            }
        }
    }

    // --- 3. Categorical value refinement (batched) ---
    // Candidates: string columns that are (or became) categorical-ish.
    // The target is INCLUDED: the paper's EU IT analysis hinges on the
    // target holding "semantically identical but differently formatted
    // duplicates" that the refinement merges.
    // Each column's dictionary is fetched once: only the column's own
    // mapping below changes it.
    let cat_columns: Vec<(String, Arc<ValueDict>)> = table
        .iter_columns()
        .filter(|(_, c)| c.dtype() == DataType::Str)
        .map(|(f, c)| (f.name.clone(), column_dict(c)))
        .filter(|(_, dict)| dict.n_distinct() >= 2)
        .collect();
    for (name, dict) in cat_columns {
        let values = values_with_counts(&dict);
        if values.len() > 2000 {
            continue; // clearly not categorical; skip
        }
        let before = dict.n_distinct();
        let mut mapping: BTreeMap<String, String> = BTreeMap::new();
        for batch in values.chunks(opts.value_batch) {
            let user = format!(
                "<TASK>categorical_refinement</TASK>\n<SCHEMA>\ncol name=\"{}\" values=\"{}\"\n</SCHEMA>\n",
                name,
                batch.join("|").replace('"', "'")
            );
            let prompt = Prompt::new("Merge semantically equivalent categorical values.", user);
            catdb_trace::emit(catdb_trace::TraceEvent::PromptBuilt {
                task: "categorical_refinement".to_string(),
                tokens: prompt.token_len(),
            });
            let Ok(completion) = llm.complete(&prompt) else { continue };
            report.usage += completion.usage;
            report.llm_calls += 1;
            for (_, orig, canon) in catdb_llm::parse_refinement_response(&completion.text) {
                mapping.insert(orig, canon);
            }
        }
        if mapping.is_empty() {
            continue;
        }
        apply_mapping(&mut table, &name, &dict, &mapping);
        let after = distinct_count(&table, &name);
        if after < before {
            report.refinements.push(ColumnRefinement {
                column: name.clone(),
                action: RefineAction::DedupValues { merged: before - after },
                distinct_before: before,
                distinct_after: after,
            });
        }
    }

    for r in &report.refinements {
        catdb_trace::emit(catdb_trace::TraceEvent::RefineStep {
            column: r.column.clone(),
            action: r.action.label().to_string(),
            distinct_before: r.distinct_before,
            distinct_after: r.distinct_after,
        });
    }

    let new_profile = profile_table(dataset_name, &table, profile_options);
    // Refinement prompts are tiny relative to generation; still, account
    // for the report's own size (symmetry with the paper's cost model).
    report.usage.output += estimate_tokens("");
    (table, new_profile, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_llm::{ModelProfile, SimLlm};

    fn perfect_llm() -> SimLlm {
        SimLlm::new(ModelProfile { quality: 1.0, ..ModelProfile::gpt_4o() }, 5)
    }

    /// The paper's Figure 1/5 running example: gender variants, composite
    /// address, list-valued skills, duration-phrase experience.
    fn dirty_salary_table() -> Table {
        let n = 60;
        let gender: Vec<&str> = (0..n).map(|i| ["Male", "male", "F", "Female"][i % 4]).collect();
        let address: Vec<String> =
            (0..n).map(|i| format!("{} {}", 7000 + (i % 7), ["CA", "TX", "NY"][i % 3])).collect();
        let skills: Vec<&str> =
            (0..n).map(|i| ["Python, Java", "C++", "Java, C++", "Python"][i % 4]).collect();
        let exp: Vec<&str> =
            (0..n).map(|i| ["1 year", "12 Months", "two years", "2 years"][i % 4]).collect();
        let salary: Vec<f64> = (0..n).map(|i| 100.0 + i as f64).collect();
        Table::from_columns(vec![
            ("gender", Column::from_strings(gender)),
            ("address", Column::from_strings(address)),
            ("skills", Column::from_strings(skills)),
            ("experience", Column::from_strings(exp)),
            ("salary", Column::from_f64(salary)),
        ])
        .unwrap()
    }

    fn run_refinement(table: &Table) -> (Table, DataProfile, RefinementReport) {
        // The toy table is small; force sentence detection thresholds so the
        // profiler sees address/skills/experience as refinement candidates.
        let popts = ProfileOptions { categorical_max_distinct: 3, ..Default::default() };
        let profile = profile_table("salary", table, &popts);
        let llm = perfect_llm();
        let opts = RefineOptions::default();
        refine_dataset("salary", table.clone(), &profile, &popts, "salary", &llm, &opts)
    }

    #[test]
    fn gender_variants_are_merged() {
        let (refined, _, report) = run_refinement(&dirty_salary_table());
        assert!(report
            .refinements
            .iter()
            .any(|r| r.column == "gender" && matches!(r.action, RefineAction::DedupValues { .. })));
        let distinct = distinct_count(&refined, "gender");
        assert_eq!(distinct, 2, "gender should reduce to Male/Female");
    }

    #[test]
    fn composite_address_is_split_and_typed() {
        let (refined, _, report) = run_refinement(&dirty_salary_table());
        let split =
            report.refinements.iter().find(|r| r.column == "address").expect("address refined");
        assert!(matches!(split.action, RefineAction::SplitComposite { .. }));
        assert!(!refined.schema().contains("address"));
        assert!(refined.schema().contains("address_p1"));
        // The digits part becomes an integer column.
        assert_eq!(refined.column("address_p1").unwrap().dtype(), DataType::Int);
        assert_eq!(refined.column("address_p2").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn skills_list_is_khot_expanded() {
        let (refined, _, report) = run_refinement(&dirty_salary_table());
        let expand =
            report.refinements.iter().find(|r| r.column == "skills").expect("skills refined");
        assert!(matches!(expand.action, RefineAction::ExpandList { items: 3 }));
        assert!(refined.schema().contains("skills=Python"));
        assert!(refined.schema().contains("skills=Java"));
        assert!(refined.schema().contains("skills=C++"));
    }

    #[test]
    fn experience_durations_are_normalized() {
        let (refined, _, _) = run_refinement(&dirty_salary_table());
        // {1 year, 12 Months} merge; {two years, 2 years} merge → 2 left.
        assert_eq!(distinct_count(&refined, "experience"), 2);
    }

    #[test]
    fn report_counts_tokens_and_calls() {
        let (_, _, report) = run_refinement(&dirty_salary_table());
        assert!(report.llm_calls >= 2);
        assert!(report.usage.input > 0);
    }

    #[test]
    fn refined_profile_reflects_new_schema() {
        let (_, profile, _) = run_refinement(&dirty_salary_table());
        assert!(profile.column("skills=Python").is_some());
        assert!(profile.column("address").is_none());
    }

    #[test]
    fn composite_shape_detection() {
        let shaped: Vec<String> = vec!["7050 CA".into(), "7871 TX".into(), "7050 NY".into()];
        assert_eq!(composite_shape(&shaped), Some(vec!['d', 'a']));
        let messy: Vec<String> = vec!["7050 CA".into(), "hello".into(), "a b c d e f".into()];
        assert_eq!(composite_shape(&messy), None);
    }
}
