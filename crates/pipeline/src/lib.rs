//! # catdb-pipeline — the pipeline DSL, parser, executor, and error taxonomy
//!
//! Generated data-centric ML pipelines are programs in a small declarative
//! DSL (the Rust stand-in for the Python/sklearn scripts the original CatDB
//! emits). This crate provides:
//!
//! * the [`Program`] / [`Step`] AST and its canonical text rendering,
//! * a [`parse`]r that classifies malformed text into syntax-class errors,
//! * an [`execute`] scheduler that runs a program's step dependency DAG
//!   over [`catdb_table::Table`]s with fail-loudly semantics (NaNs,
//!   string features, hallucinated columns, memory blow-ups, model
//!   limits),
//! * the paper's 23-type [`ErrorKind`] taxonomy in three categories
//!   (KB / SE / RE) that drives CatDB's error management, and
//! * a simulated package [`Environment`] for knowledge-base error repair.
//!
//! ```
//! use catdb_pipeline::{parse, execute, Environment, ExecutionConfig};
//! use catdb_ml::TaskKind;
//! use catdb_table::{Table, Column};
//!
//! let t = Table::from_columns(vec![
//!     ("x", Column::from_f64((0..60).map(f64::from).collect())),
//!     ("y", Column::from_strings((0..60).map(|i| if i < 30 {"n"} else {"p"}).collect::<Vec<_>>())),
//! ]).unwrap();
//! let (train, test) = t.train_test_split(0.7, 0).unwrap();
//! let program = parse("pipeline {\n  model classifier decision_tree target \"y\";\n}").unwrap();
//! let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
//! let eval = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap();
//! assert!(eval.test.headline() > 0.9);
//! ```

mod ast;
mod dag;
mod environment;
mod errors;
mod executor;
mod parser;

pub use ast::{
    ColumnRef, EncodeSpec, ImputeSpec, ModelAlgo, ModelFamily, ModelSpec, OutlierSpec, Program,
    Step,
};
pub use dag::{
    execute, topo_order, ColSet, DagError, DagNode, StepDag, COUNTER_DAG_WAVES,
    SPAN_EXECUTE_PIPELINE,
};
pub use environment::{required_packages, step_package, Environment, INSTALLABLE, PREINSTALLED};
pub use errors::{ErrorCategory, ErrorKind, PipelineError};
pub use executor::{Evaluation, ExecutionConfig, TaskMetrics};
pub use parser::parse;
