//! The user-facing CatDB API, mirroring the paper's snippet:
//!
//! ```text
//! md  = catdb_collect(M)            /* collect metadata            */
//! llm = LLM(model, client_url, cfg) /* configure LLM               */
//! P   = catdb_pipgen(md, llm)       /* P.code, P.results           */
//! ```
//!
//! [`collect`] materializes a (possibly multi-table) dataset, profiles
//! it, and optionally runs the LLM-assisted catalog refinement, keeping
//! both the raw and the refined catalog; [`catdb_collect`] returns only
//! the catalog entry and table generation runs on, refining the
//! materialized table in place.
//! [`catdb_pipgen`] splits the prepared data, runs Algorithm 4, and
//! returns the generated code plus its execution results.

use crate::generate::{generate_pipeline, CatDbConfig, GenerationOutcome};
use catdb_catalog::{
    refine_dataset, CatalogEntry, MultiTableDataset, RefineOptions, RefinementReport,
};
use catdb_llm::LanguageModel;
use catdb_ml::TaskKind;
use catdb_profiler::{profile_table, DataProfile, ProfileOptions};
use catdb_table::Table;

/// Options for metadata collection.
#[derive(Debug, Clone, Default)]
pub struct CollectOptions {
    pub profile: ProfileOptions,
    /// Run the LLM-assisted catalog refinement + data preparation.
    pub refine: bool,
    pub refine_options: RefineOptions,
}

/// What collection produced: the raw catalog entry and table, plus the
/// refined ones when refinement ran.
pub struct Collected {
    pub raw_entry: CatalogEntry,
    pub raw: Table,
    pub refined: Option<Refined>,
}

/// The output of the LLM-assisted catalog refinement.
pub struct Refined {
    pub entry: CatalogEntry,
    pub table: Table,
    pub report: RefinementReport,
}

/// Materialize and profile a dataset once, then refine it when
/// `opts.refine` is set. The raw table is kept next to the refined one,
/// so refinement edits a copy of it.
pub fn collect(
    dataset: &MultiTableDataset,
    target: &str,
    task: TaskKind,
    llm: &dyn LanguageModel,
    opts: &CollectOptions,
) -> Result<Collected, catdb_table::TableError> {
    let (raw_entry, raw) = profiled(dataset, target, task, opts)?;
    let refined = opts
        .refine
        .then(|| refine(dataset, raw.clone(), &raw_entry.profile, target, task, llm, opts));
    Ok(Collected { raw_entry, raw, refined })
}

/// `catdb_collect`: profile (and optionally refine) a dataset into a
/// catalog entry plus the prepared single-table data. Refinement edits
/// the materialized table itself, so the collect path holds one copy.
pub fn catdb_collect(
    dataset: &MultiTableDataset,
    target: &str,
    task: TaskKind,
    llm: &dyn LanguageModel,
    opts: &CollectOptions,
) -> Result<(CatalogEntry, Table, Option<RefinementReport>), catdb_table::TableError> {
    let (raw_entry, raw) = profiled(dataset, target, task, opts)?;
    if !opts.refine {
        return Ok((raw_entry, raw, None));
    }
    let r = refine(dataset, raw, &raw_entry.profile, target, task, llm, opts);
    Ok((r.entry, r.table, Some(r.report)))
}

/// The raw catalog entry and table: `dataset` materialized and profiled.
fn profiled(
    dataset: &MultiTableDataset,
    target: &str,
    task: TaskKind,
    opts: &CollectOptions,
) -> Result<(CatalogEntry, Table), catdb_table::TableError> {
    let raw = dataset.materialize()?;
    let profile = profile_table(&dataset.name, &raw, &opts.profile);
    Ok((CatalogEntry::new(dataset.name.clone(), target, task, profile), raw))
}

/// Refine `table`, whose profile is `profile`, in place.
fn refine(
    dataset: &MultiTableDataset,
    table: Table,
    profile: &DataProfile,
    target: &str,
    task: TaskKind,
    llm: &dyn LanguageModel,
    opts: &CollectOptions,
) -> Refined {
    let (table, refined_profile, report) = refine_dataset(
        &dataset.name,
        table,
        profile,
        &opts.profile,
        target,
        llm,
        &opts.refine_options,
    );
    let entry = CatalogEntry::new(dataset.name.clone(), target, task, refined_profile);
    Refined { entry, table, report }
}

/// The result object of `catdb_pipgen` (`P.code` / `P.results`).
pub struct PipgenResult {
    /// `P.code` — source of the generated pipeline.
    pub code: String,
    /// `P.results` — outputs of the pipeline's execution plus session
    /// accounting.
    pub results: GenerationOutcome,
}

/// `catdb_pipgen`: generate and validate a pipeline for a catalogued,
/// prepared dataset. Splits 70/30 like all paper experiments.
pub fn catdb_pipgen(
    entry: &CatalogEntry,
    prepared: &Table,
    llm: &dyn LanguageModel,
    cfg: &CatDbConfig,
) -> Result<PipgenResult, catdb_table::TableError> {
    let (train, test) = prepared.train_test_split(0.7, cfg.seed)?;
    let outcome = generate_pipeline(entry, &train, &test, llm, cfg);
    Ok(PipgenResult { code: outcome.source.clone(), results: outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_llm::{ModelProfile, SimLlm};
    use catdb_table::Column;

    fn toy_dataset() -> MultiTableDataset {
        let n = 400;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let g: Vec<&str> = (0..n).map(|i| ["F", "Female", "M", "Male"][i % 4]).collect();
        let y: Vec<&str> = (0..n).map(|i| if i < n / 2 { "lo" } else { "hi" }).collect();
        let t = Table::from_columns(vec![
            ("x", Column::from_f64(x)),
            ("gender", Column::from_strings(g)),
            ("y", Column::from_strings(y)),
        ])
        .unwrap();
        MultiTableDataset::single("toy", t)
    }

    #[test]
    fn collect_then_pipgen_mirrors_paper_api() {
        let dataset = toy_dataset();
        let llm = SimLlm::new(ModelProfile::gpt_4o(), 2);
        let opts = CollectOptions { refine: true, ..Default::default() };
        let (entry, prepared, report) =
            catdb_collect(&dataset, "y", TaskKind::BinaryClassification, &llm, &opts).unwrap();
        assert!(report.is_some());
        let result = catdb_pipgen(&entry, &prepared, &llm, &CatDbConfig::default()).unwrap();
        assert!(result.results.success);
        assert!(result.code.contains("pipeline {"));
        assert!(result.results.evaluation.is_some());
    }

    #[test]
    fn collect_without_refinement_keeps_raw_values() {
        let dataset = toy_dataset();
        let llm = SimLlm::new(ModelProfile::gpt_4o(), 2);
        let (entry, prepared, report) = catdb_collect(
            &dataset,
            "y",
            TaskKind::BinaryClassification,
            &llm,
            &CollectOptions::default(),
        )
        .unwrap();
        assert!(report.is_none());
        assert_eq!(entry.column("gender").unwrap().distinct_count, 4);
        assert_eq!(prepared.n_rows(), 400);
    }

    #[test]
    fn sketch_mode_collect_refines_under_sketch_profiles() {
        use catdb_profiler::{ProfileMode, SPAN_PROFILE_COLUMNS};
        let csv: String = std::iter::once("x,gender,y\n".to_string())
            .chain((0..120).map(|i| {
                let g = ["F", "Female", "M", "Male"][i % 4];
                format!("{}.5,{g},{}\n", i % 17, if i % 3 == 0 { "lo" } else { "hi" })
            }))
            .collect();
        let table = catdb_table::read_csv_str(&csv, &Default::default()).unwrap();
        let dataset = MultiTableDataset::single("sketch-collect", table);
        let llm = SimLlm::new(ModelProfile::gpt_4o(), 2);
        let opts = CollectOptions {
            profile: ProfileOptions {
                mode: ProfileMode::Sketch { chunk_rows: 32 },
                ..Default::default()
            },
            refine: true,
            ..Default::default()
        };
        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        let report = {
            let _guard = catdb_trace::install(sink.clone());
            catdb_collect(&dataset, "y", TaskKind::BinaryClassification, &llm, &opts).unwrap().2
        };
        assert!(report.is_some());
        let spans = sink.snapshot();
        assert!(spans.spans_named(SPAN_PROFILE_COLUMNS).is_empty(), "an exact profile ran");
    }
}
