//! The `Transform` trait: fitted, reusable table-to-table preprocessing
//! steps. Transforms are fitted on training data and then applied to both
//! train and test tables; transforms that change the *row set* (outlier
//! removal, deduplication, augmentation) advertise `train_only()` and are
//! applied exclusively to the training table, matching the paper's
//! evaluation protocol ("preprocessing was only done on the training set").

use catdb_table::{Table, TableError};
use std::fmt;

/// Errors raised by transform fitting and application.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// The referenced column does not exist (a hallucinated feature).
    ColumnNotFound(String),
    /// The column has the wrong physical type for this transform.
    WrongType { column: String, expected: &'static str },
    /// Transform was applied before being fitted.
    NotFitted(&'static str),
    /// Invalid configuration or data regime.
    Invalid(String),
    /// Underlying table failure.
    Table(TableError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::ColumnNotFound(c) => write!(f, "column not found: '{c}'"),
            TransformError::WrongType { column, expected } => {
                write!(f, "column '{column}' is not {expected}")
            }
            TransformError::NotFitted(name) => write!(f, "{name} used before fit"),
            TransformError::Invalid(msg) => write!(f, "{msg}"),
            TransformError::Table(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<TableError> for TransformError {
    fn from(e: TableError) -> Self {
        TransformError::Table(e)
    }
}

pub type Result<T> = std::result::Result<T, TransformError>;

/// A fittable, reusable preprocessing step. `fit` learns from the
/// training table; `apply` then edits a table in place, touching only the
/// columns it writes (a row transform replaces the table with the kept
/// rows). An `apply` that fails may leave the table partly edited, so a
/// caller that keeps the table after an error applies to a copy.
pub trait Transform: Send + Sync {
    /// Learn parameters from the training table.
    fn fit(&mut self, table: &Table) -> Result<()>;

    /// Apply the fitted transform to `table` in place.
    fn apply(&self, table: &mut Table) -> Result<()>;

    /// Row-set-changing transforms return true and are applied only to
    /// training data.
    fn train_only(&self) -> bool {
        false
    }
}

/// Look up a column or produce the transform-level error.
pub(crate) fn require_column<'t>(table: &'t Table, name: &str) -> Result<&'t catdb_table::Column> {
    table.column(name).map_err(|_| TransformError::ColumnNotFound(name.to_string()))
}
