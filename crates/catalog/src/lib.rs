//! # catdb-catalog — the data catalog and its LLM-assisted refinement
//!
//! Implements the paper's Sections 3.1–3.2: a persistent [`DataCatalog`] of
//! per-dataset [`CatalogEntry`]s (profiles, targets, tasks, file metadata),
//! multi-table dataset modelling with single-table materialization
//! ([`MultiTableDataset`]), and the refinement pass ([`refine_dataset`])
//! that uses an LLM to infer feature types, split composite columns,
//! expand list features into k-hot columns, and merge semantically
//! equivalent categorical values — reproducing Figure 5 and Table 4.

mod catalog;
mod multi;
mod refine;

pub use catalog::{CatalogEntry, DataCatalog};
pub use multi::{MultiTableDataset, Relationship};
pub use refine::{
    refine_dataset, ColumnRefinement, RefineAction, RefineOptions, RefinementReport,
    SPAN_REFINE_DATASET,
};
