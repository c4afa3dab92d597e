//! # catdb-core — CatDB: data-catalog-guided, LLM-based pipeline generation
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`rules`] — metadata projection (Table 1 combinations) and rule
//!   derivation (Algorithm 2).
//! * [`prompt`] — single-prompt and chain prompt construction
//!   (Algorithm 3, Figure 6) plus error-prompt templates (Figure 7).
//! * [`generate`] — the generation + validation loop with knowledge-base
//!   and LLM error management and the handcrafted fallback (Algorithm 4).
//! * [`kb`] — the knowledge base and the error-trace dataset behind
//!   Table 2 / Figure 8.
//! * [`cost`] — the token cost model (Equations 1–2).
//! * [`api`] — the paper's user API: `catdb_collect` / `catdb_pipgen`.
//! * [`run`] — [`RunSpec`], the one run path `catdb run`, the serve
//!   daemon and the experiment binaries share, and [`RunFlags`], the
//!   flags the CLI and the experiment binaries both parse.
//!
//! ```no_run
//! use catdb_core::{catdb_collect, catdb_pipgen, CatDbConfig, CollectOptions};
//! use catdb_catalog::MultiTableDataset;
//! use catdb_llm::{ModelProfile, SimLlm};
//! use catdb_ml::TaskKind;
//! use catdb_table::{read_csv_path, CsvOptions};
//!
//! let table = read_csv_path("salary.csv", &CsvOptions::default()).unwrap();
//! let dataset = MultiTableDataset::single("salary", table);
//! let llm = SimLlm::new(ModelProfile::gpt_4o(), 42);
//! let opts = CollectOptions { refine: true, ..Default::default() };
//! let (entry, prepared, _report) =
//!     catdb_collect(&dataset, "income", TaskKind::Regression, &llm, &opts).unwrap();
//! let result = catdb_pipgen(&entry, &prepared, &llm, &CatDbConfig::default()).unwrap();
//! println!("{}", result.code);
//! ```

pub mod api;
pub mod cost;
pub mod generate;
pub mod kb;
pub mod prompt;
pub mod rules;
pub mod run;

pub use api::{
    catdb_collect, catdb_pipgen, collect, CollectOptions, Collected, PipgenResult, Refined,
};
pub use cost::{measured_cost, reprice, MeasuredCost};
pub use generate::{
    generate_chain_source, generate_pipeline, handcraft_program, CatDbConfig, GenerationOutcome,
    SPAN_GENERATE_PIPELINE,
};
pub use kb::{ErrorTrace, ErrorTraceDb, FixedBy, KbFix, KnowledgeBase};
pub use prompt::{PromptBuilder, PromptOptions};
pub use rules::{derive_rules, labels_imbalanced, schema_line, MetadataConfig};
pub use run::{value, RunError, RunFlags, RunOutcome, RunSpec};
