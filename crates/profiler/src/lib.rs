//! # catdb-profiler — data profiling (paper Algorithm 1)
//!
//! Extracts, for every column of a [`catdb_table::Table`]: schema and data
//! type, an ML feature type (numerical / categorical / boolean / sentence /
//! list), distinct and missing percentages, basic statistics, value samples
//! (all distinct values for categoricals, τ₁ random values otherwise), and
//! embedding-estimated inclusion dependencies / similarities /
//! correlations, using 300-dimensional hashed column embeddings exactly as
//! the paper describes ("faster processing with minor degradation").
//!
//! The output [`DataProfile`] is the raw material for the data catalog
//! (`catdb-catalog`) and ultimately for prompt construction.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod embedding;
mod profile;
mod sketch;
mod types;
mod wide;

pub use embedding::{inclusion_score, ColumnEmbedding, EMBEDDING_DIM};
pub use profile::{
    profile_chunked, profile_csv_stream, profile_table, ProfileMode, ProfileOptions,
    COUNTER_PROFILER_CHUNKS, COUNTER_PROFILER_PEAK_CHUNK_RSS, COUNTER_PROFILER_SKETCH_MERGES,
    COUNTER_PROFILE_MEMO_HITS, COUNTER_PROFILE_MEMO_MISSES, SPAN_PROFILE_CHUNK,
    SPAN_PROFILE_COLUMNS, SPAN_PROFILE_PAIRS, SPAN_PROFILE_TABLE,
};
pub use sketch::{
    ColumnSketch, DistinctSketch, MomentSketch, PairMoments, QuantileSketch, DISTINCT_K, QUANTILE_K,
};
pub use types::{ColumnProfile, DataProfile, FeatureType, NumericStats};
