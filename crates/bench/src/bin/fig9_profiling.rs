//! Figure 9 — (a) data-profiling runtime per dataset and (b) the feature
//! type distribution across all twenty datasets.
//!
//! Paper shape: profiling takes minutes on the largest datasets and under
//! a minute on small ones (here scaled with row count), and the corpus
//! shows "a good mix of numerical, textual, and categorical features".

use catdb_bench::{render_table, save_results, traced, BenchArgs};
use catdb_data::{generate_all, PAPER_DATASETS};
use catdb_profiler::{profile_table, FeatureType, ProfileOptions, SPAN_PROFILE_TABLE};
use serde_json::json;
use std::collections::BTreeMap;

fn main() {
    let args = BenchArgs::parse();
    let datasets = generate_all(&args.gen_options());

    let mut rows = Vec::new();
    let mut type_totals: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut records = Vec::new();
    for g in &datasets {
        let flat = g.dataset.materialize().expect("materialize");
        // Runtime numbers come from the trace, not the profiler's own
        // clock: the span covers the whole call, the ProfileColumn events
        // break it down per column.
        let (profile, trace) =
            traced(|| profile_table(g.spec.name, &flat, &ProfileOptions::default()));
        let profile_seconds =
            trace.last_span_seconds(SPAN_PROFILE_TABLE).expect("profile_table span recorded");
        let per_column_micros = trace.profile_micros_total();
        for (ft, n) in profile.feature_type_distribution() {
            *type_totals
                .entry(match ft {
                    FeatureType::Numerical => "numerical",
                    FeatureType::Categorical => "categorical",
                    FeatureType::Boolean => "boolean",
                    FeatureType::Sentence => "sentence",
                    FeatureType::List => "list",
                })
                .or_insert(0) += n;
        }
        rows.push(vec![
            g.spec.id.to_string(),
            g.spec.name.to_string(),
            flat.n_rows().to_string(),
            flat.n_cols().to_string(),
            format!("{profile_seconds:.3}"),
            format!("{:.3}", per_column_micros as f64 / 1e6),
        ]);
        records.push(json!({
            "dataset": g.spec.name,
            "rows": flat.n_rows(),
            "cols": flat.n_cols(),
            "profile_seconds": profile_seconds,
            "per_column_micros": per_column_micros,
            "columns_profiled": trace
                .events_modulo_timing()
                .iter()
                .filter(|e| e.kind() == "profile_column")
                .count(),
        }));
    }
    println!(
        "{}",
        render_table(
            "Figure 9(a): Data Profiling Runtime",
            &["id", "dataset", "rows", "cols", "seconds"],
            &rows,
        )
    );

    let total: usize = type_totals.values().sum();
    let dist_rows: Vec<Vec<String>> = type_totals
        .iter()
        .map(|(k, v)| {
            vec![k.to_string(), v.to_string(), format!("{:.1}%", *v as f64 / total as f64 * 100.0)]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Figure 9(b): Feature Type Distribution (all datasets)",
            &["feature type", "columns", "share"],
            &dist_rows,
        )
    );
    assert_eq!(datasets.len(), PAPER_DATASETS.len());
    save_results(
        "fig9_profiling",
        &json!({ "datasets": records, "type_distribution": type_totals }),
    );
}
