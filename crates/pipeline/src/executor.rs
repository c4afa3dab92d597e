//! Pipeline step semantics: how each step of a parsed [`Program`]
//! transforms the train/test tables inside an [`Environment`], ending in
//! either an [`Evaluation`] or a classified [`PipelineError`] (the input
//! to CatDB's error management). The scheduler in `dag` drives them.
//!
//! Failure semantics mirror the Python/sklearn substrate of the original
//! system: string features crash featurization, NaNs crash model fitting,
//! hallucinated columns crash the referencing step, one-hot blow-ups
//! exhaust the memory envelope, TabPFN enforces its input limits.

use crate::ast::*;
use crate::environment::{step_package, Environment, PREINSTALLED};
use crate::errors::{ErrorKind, PipelineError};
use catdb_ml::transform::TransformError;
use catdb_ml::{
    featurize, metrics, regression_target, AugmentMethod, Augmenter, BoostConfig, Classifier,
    ColumnDropper, ConstantColumnDropper, DecisionTreeClassifier, DecisionTreeRegressor,
    Deduplicator, FeatureHasher, ForestConfig, GaussianNb, GradientBoostingClassifier,
    GradientBoostingRegressor, HighMissingDropper, ImputeStrategy, Imputer, KHotEncoder,
    KnnClassifier, KnnConfig, KnnRegressor, LabelEncoder, LogisticRegression, MlError,
    NullRowDropper, OneHotEncoder, OrdinalEncoder, OutlierMethod, OutlierRemover,
    RandomForestClassifier, RandomForestRegressor, Regressor, RidgeRegression, Scaler,
    TabPfnSurrogate, TaskKind, TopKSelector, Transform, TransformError as TErr,
};
use catdb_table::{DataType, Table, Value};
use std::time::Instant;

/// Execution limits and knobs.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// Simulated memory envelope in bytes; `None` = unlimited.
    pub memory_limit: Option<usize>,
    /// Task the dataset defines (used to validate the model family).
    pub task: TaskKind,
    /// Seed forwarded to stochastic estimators.
    pub seed: u64,
    /// Scale down ensemble sizes for fast validation runs.
    pub fast_validation: bool,
}

impl ExecutionConfig {
    pub fn new(task: TaskKind) -> ExecutionConfig {
        ExecutionConfig { memory_limit: None, task, seed: 42, fast_validation: false }
    }
}

/// Metrics for one split.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskMetrics {
    Classification { accuracy: f64, auc: f64, f1_macro: f64 },
    Regression { r2: f64, rmse: f64 },
}

impl TaskMetrics {
    /// The headline score the paper reports: AUC for classification
    /// (Tables 7–8, Fig. 11), R² for regression.
    pub fn headline(&self) -> f64 {
        match self {
            TaskMetrics::Classification { auc, .. } => *auc,
            TaskMetrics::Regression { r2, .. } => *r2,
        }
    }

    /// Accuracy-style percentage used by Table 5 (R² for regression).
    pub fn accuracy_pct(&self) -> f64 {
        match self {
            TaskMetrics::Classification { accuracy, .. } => accuracy * 100.0,
            TaskMetrics::Regression { r2, .. } => r2.max(0.0) * 100.0,
        }
    }
}

/// Result of a successful pipeline execution.
#[derive(Debug, Clone)]
pub struct Evaluation {
    pub task: TaskKind,
    pub train: TaskMetrics,
    pub test: TaskMetrics,
    pub model_algo: ModelAlgo,
    pub n_features: usize,
    pub n_train_rows: usize,
    pub n_test_rows: usize,
    pub elapsed_seconds: f64,
}

/// 1-based line of step `idx` in [`Program::render`]'s listing.
pub(crate) fn step_line(idx: usize) -> usize {
    idx + 2 // line 1 is "pipeline {"
}

fn map_transform_err(e: TransformError, line: usize) -> PipelineError {
    let (kind, message) = match &e {
        TErr::ColumnNotFound(c) => (ErrorKind::ColumnNotFound, format!("column '{c}' not found")),
        TErr::WrongType { column, expected } => {
            (ErrorKind::WrongTypeForOperation, format!("column '{column}' is not {expected}"))
        }
        TErr::NotFitted(n) => (ErrorKind::NumericalInstability, format!("{n} used before fit")),
        TErr::Invalid(m) => (ErrorKind::WrongTypeForOperation, m.clone()),
        TErr::Table(t) => (ErrorKind::ColumnNotFound, t.to_string()),
    };
    PipelineError::new(kind, message).at_line(line)
}

fn map_ml_err(e: MlError, line: usize) -> PipelineError {
    let kind = match &e {
        MlError::NonFinite { .. } => ErrorKind::NanInFeatures,
        MlError::EmptyInput => ErrorKind::EmptyTrainingSet,
        MlError::ShapeMismatch { .. } => ErrorKind::NumericalInstability,
        MlError::BadLabel { .. } => ErrorKind::UnseenLabel,
        MlError::Unsupported(msg) => {
            if msg.contains("could not convert string to float") {
                ErrorKind::StringConversion
            } else if msg.contains("unseen class label") {
                ErrorKind::UnseenLabel
            } else if msg.contains("distinct value") {
                ErrorKind::SingleClassTarget
            } else if msg.contains("TabPFN") {
                ErrorKind::ModelLimitExceeded
            } else if msg.contains("target column") {
                ErrorKind::TargetNotFound
            } else {
                ErrorKind::ModelTaskMismatch
            }
        }
        MlError::ResourceLimit(msg) => {
            if msg.contains("TabPFN") {
                ErrorKind::ModelLimitExceeded
            } else {
                ErrorKind::MemoryExhausted
            }
        }
        MlError::Numerical(_) => ErrorKind::NumericalInstability,
    };
    PipelineError::new(kind, e.to_string()).at_line(line)
}

/// Columns matched by a [`ColumnRef`] for the given predicate, never
/// including the target column.
fn expand_columns(
    table: &Table,
    column: &ColumnRef,
    target: Option<&str>,
    pred: impl Fn(&catdb_table::Field, &catdb_table::Column) -> bool,
) -> Vec<String> {
    match column {
        ColumnRef::Named(n) => vec![n.clone()],
        ColumnRef::All => table
            .iter_columns()
            .filter(|(f, c)| Some(f.name.as_str()) != target && pred(f, c))
            .map(|(f, _)| f.name.clone())
            .collect(),
    }
}

pub(crate) fn check_memory(
    train: &Table,
    test: &Table,
    cfg: &ExecutionConfig,
    line: usize,
) -> Result<(), PipelineError> {
    if let Some(limit) = cfg.memory_limit {
        let used = train.approx_bytes() + test.approx_bytes();
        if used > limit {
            return Err(PipelineError::new(
                ErrorKind::MemoryExhausted,
                format!("working set {used} bytes exceeds the {limit}-byte memory limit"),
            )
            .at_line(line));
        }
    }
    Ok(())
}

/// Fit a transform on train, then apply it in place to train (always)
/// and test (unless train-only).
fn apply(
    t: &mut dyn Transform,
    train: &mut Table,
    test: &mut Table,
    line: usize,
) -> Result<(), PipelineError> {
    let err = |e| map_transform_err(e, line);
    t.fit(train).map_err(err)?;
    t.apply(train).map_err(err)?;
    if !t.train_only() {
        t.apply(test).map_err(err)?;
    }
    Ok(())
}

fn build_classifier(
    spec: &ModelSpec,
    cfg: &ExecutionConfig,
) -> Result<Box<dyn Classifier>, PipelineError> {
    let scale = if cfg.fast_validation { 0.3 } else { 1.0 };
    let trees = ((spec.param("trees").unwrap_or(50.0) * scale).round() as usize).max(4);
    let depth = spec.param("depth").unwrap_or(12.0) as usize;
    Ok(match spec.algo {
        ModelAlgo::RandomForest => Box::new(RandomForestClassifier {
            config: ForestConfig {
                n_trees: trees,
                max_depth: depth.max(2),
                seed: cfg.seed,
                ..Default::default()
            },
        }),
        ModelAlgo::GradientBoosting => Box::new(GradientBoostingClassifier {
            config: BoostConfig {
                n_rounds: ((spec.param("rounds").unwrap_or(60.0) * scale) as usize).max(5),
                learning_rate: spec.param("lr").unwrap_or(0.15),
                max_depth: spec.param("depth").unwrap_or(4.0) as usize,
                seed: cfg.seed,
            },
        }),
        ModelAlgo::DecisionTree => Box::new(DecisionTreeClassifier {
            config: catdb_ml::TreeConfig { max_depth: depth.max(2), ..Default::default() },
        }),
        ModelAlgo::Logistic => Box::new(LogisticRegression {
            epochs: ((spec.param("epochs").unwrap_or(200.0) * scale) as usize).max(20),
            ..Default::default()
        }),
        ModelAlgo::Knn => Box::new(KnnClassifier {
            config: KnnConfig { k: spec.param("k").unwrap_or(5.0) as usize },
        }),
        ModelAlgo::GaussianNb => Box::new(GaussianNb),
        ModelAlgo::TabPfn => Box::new(TabPfnSurrogate { seed: cfg.seed, ..Default::default() }),
        ModelAlgo::Ridge => {
            return Err(PipelineError::new(
                ErrorKind::ModelTaskMismatch,
                "ridge is a regressor, not a classifier",
            ))
        }
    })
}

fn build_regressor(
    spec: &ModelSpec,
    cfg: &ExecutionConfig,
) -> Result<Box<dyn Regressor>, PipelineError> {
    let scale = if cfg.fast_validation { 0.3 } else { 1.0 };
    let trees = ((spec.param("trees").unwrap_or(50.0) * scale).round() as usize).max(4);
    let depth = spec.param("depth").unwrap_or(12.0) as usize;
    Ok(match spec.algo {
        ModelAlgo::RandomForest => Box::new(RandomForestRegressor {
            config: ForestConfig {
                n_trees: trees,
                max_depth: depth.max(2),
                seed: cfg.seed,
                ..Default::default()
            },
        }),
        ModelAlgo::GradientBoosting => Box::new(GradientBoostingRegressor {
            config: BoostConfig {
                n_rounds: ((spec.param("rounds").unwrap_or(60.0) * scale) as usize).max(5),
                learning_rate: spec.param("lr").unwrap_or(0.15),
                max_depth: spec.param("depth").unwrap_or(4.0) as usize,
                seed: cfg.seed,
            },
        }),
        ModelAlgo::DecisionTree => Box::new(DecisionTreeRegressor {
            config: catdb_ml::TreeConfig { max_depth: depth.max(2), ..Default::default() },
        }),
        ModelAlgo::Ridge => Box::new(RidgeRegression { l2: spec.param("l2").unwrap_or(1.0) }),
        ModelAlgo::Knn => Box::new(KnnRegressor {
            config: KnnConfig { k: spec.param("k").unwrap_or(5.0) as usize },
        }),
        ModelAlgo::Logistic | ModelAlgo::GaussianNb | ModelAlgo::TabPfn => {
            return Err(PipelineError::new(
                ErrorKind::ModelTaskMismatch,
                format!("{} does not support regression", spec.algo.label()),
            ))
        }
    })
}

fn run_model(
    spec: &ModelSpec,
    train: &Table,
    test: &Table,
    cfg: &ExecutionConfig,
    line: usize,
) -> Result<(TaskMetrics, TaskMetrics, usize), PipelineError> {
    if !spec.family.matches_task(cfg.task) {
        return Err(PipelineError::new(
            ErrorKind::ModelTaskMismatch,
            format!(
                "task is {} but the pipeline trains a {}",
                cfg.task.label(),
                spec.family.label()
            ),
        )
        .at_line(line));
    }
    if !spec.algo.supports(spec.family) {
        return Err(PipelineError::new(
            ErrorKind::ModelTaskMismatch,
            format!("{} does not support the {} family", spec.algo.label(), spec.family.label()),
        )
        .at_line(line));
    }
    if !train.schema().contains(&spec.target) {
        return Err(PipelineError::new(
            ErrorKind::TargetNotFound,
            format!("target column '{}' not found", spec.target),
        )
        .at_line(line));
    }
    if train.n_rows() == 0 {
        return Err(PipelineError::new(ErrorKind::EmptyTrainingSet, "training table has no rows")
            .at_line(line));
    }

    let (x_train, feats) = featurize(train, &spec.target).map_err(|e| map_ml_err(e, line))?;
    let (x_test, _) = featurize(test, &spec.target).map_err(|e| map_ml_err(e, line))?;
    if x_test.cols() != x_train.cols() {
        return Err(PipelineError::new(
            ErrorKind::NumericalInstability,
            format!(
                "train has {} features but test has {} (schema drift)",
                x_train.cols(),
                x_test.cols()
            ),
        )
        .at_line(line));
    }

    match spec.family {
        ModelFamily::Classifier => {
            let enc = LabelEncoder::fit(train, &spec.target).map_err(|e| map_ml_err(e, line))?;
            let y_train = enc.encode(train, &spec.target).map_err(|e| map_ml_err(e, line))?;
            // Test rows with labels unseen during training score as wrong
            // rather than crashing the pipeline (out-of-range index).
            let y_test = enc.encode_lossy(test, &spec.target).map_err(|e| map_ml_err(e, line))?;
            let clf = build_classifier(spec, cfg).map_err(|e| e.at_line(line))?;
            let model =
                clf.fit(&x_train, &y_train, enc.n_classes()).map_err(|e| map_ml_err(e, line))?;
            let eval = |x: &catdb_ml::Matrix, y: &[usize]| -> Result<TaskMetrics, PipelineError> {
                let proba = model.predict_proba(x).map_err(|e| map_ml_err(e, line))?;
                let pred: Vec<usize> = proba.iter().map(|p| catdb_ml::argmax(p)).collect();
                Ok(TaskMetrics::Classification {
                    accuracy: metrics::accuracy(y, &pred),
                    auc: metrics::auc_macro_ovr(y, &proba, enc.n_classes()),
                    f1_macro: metrics::f1_macro(y, &pred, enc.n_classes()),
                })
            };
            Ok((eval(&x_train, &y_train)?, eval(&x_test, &y_test)?, feats.len()))
        }
        ModelFamily::Regressor => {
            let y_train =
                regression_target(train, &spec.target).map_err(|e| map_ml_err(e, line))?;
            let y_test = regression_target(test, &spec.target).map_err(|e| map_ml_err(e, line))?;
            let reg = build_regressor(spec, cfg).map_err(|e| e.at_line(line))?;
            let model = reg.fit(&x_train, &y_train).map_err(|e| map_ml_err(e, line))?;
            let eval = |x: &catdb_ml::Matrix, y: &[f64]| -> Result<TaskMetrics, PipelineError> {
                let pred = model.predict(x).map_err(|e| map_ml_err(e, line))?;
                Ok(TaskMetrics::Regression {
                    r2: metrics::r2(y, &pred),
                    rmse: metrics::rmse(y, &pred),
                })
            };
            Ok((eval(&x_train, &y_train)?, eval(&x_test, &y_test)?, feats.len()))
        }
    }
}

/// Operator name recorded in `PipelineOp` trace events.
pub(crate) fn step_label(step: &Step) -> &'static str {
    match step {
        Step::Require { .. } => "require",
        Step::Impute { .. } => "impute",
        Step::Scale { .. } => "scale",
        Step::Encode { .. } => "encode",
        Step::Drop { .. } => "drop",
        Step::DropHighMissing { .. } => "drop_high_missing",
        Step::DropConstant => "drop_constant",
        Step::Dedup { .. } => "dedup",
        Step::DropNullRows => "drop_null_rows",
        Step::Outliers { .. } => "outliers",
        Step::Augment { .. } => "augment",
        Step::Rebalance { .. } => "rebalance",
        Step::SelectTopK { .. } => "select_top_k",
        Step::Model(_) => "model",
    }
}

/// Import pass: every step's package must be resolvable. `require`
/// statements resolve explicitly (and may carry version pins); other
/// steps implicitly import their package.
pub(crate) fn resolve_imports(program: &Program, env: &Environment) -> Result<(), PipelineError> {
    for (idx, step) in program.steps.iter().enumerate() {
        let line = step_line(idx);
        if let Step::Require { package } = step {
            env.resolve_requirement(package).map_err(|e| e.at_line(line))?;
        } else if let Some(pkg) = step_package(step) {
            if !PREINSTALLED.contains(&pkg) && !env.is_installed(pkg) {
                return Err(PipelineError::new(
                    ErrorKind::MissingPackage,
                    format!("No module named '{pkg}'"),
                )
                .at_line(line));
            }
        }
    }
    Ok(())
}

/// Interpret one step against `train`/`test` in place. Returns the model
/// result for [`Step::Model`], `None` otherwise. Shared verbatim between
/// the DAG scheduler and the sequential test oracle, so both execute
/// identical operator semantics (including mid-step memory checks).
#[allow(clippy::type_complexity)]
pub(crate) fn apply_step(
    step: &Step,
    line: usize,
    train: &mut Table,
    test: &mut Table,
    cfg: &ExecutionConfig,
    target: Option<&str>,
    model_seen: bool,
) -> Result<Option<(TaskMetrics, TaskMetrics, usize)>, PipelineError> {
    match step {
        Step::Require { .. } => {}
        Step::Impute { column, strategy } => {
            let numeric_only = matches!(
                strategy,
                ImputeSpec::Mean | ImputeSpec::Median | ImputeSpec::ConstantNum(_)
            );
            // A named column is imputed (and must exist) even when it
            // is already clean: `expand_columns` returns it unfiltered.
            let cols = expand_columns(train, column, target, |f, c| {
                c.null_count() > 0 && (!numeric_only || f.dtype.is_numeric())
            });
            let strat = match strategy {
                ImputeSpec::Mean => ImputeStrategy::Mean,
                ImputeSpec::Median => ImputeStrategy::Median,
                ImputeSpec::MostFrequent => ImputeStrategy::MostFrequent,
                ImputeSpec::ConstantNum(v) => ImputeStrategy::Constant(Value::Float(*v)),
                ImputeSpec::ConstantStr(s) => ImputeStrategy::Constant(Value::Str(s.clone())),
            };
            for col in cols {
                let mut t = Imputer::new(col, strat.clone());
                apply(&mut t, train, test, line)?;
            }
        }
        Step::Scale { column, method } => {
            let cols = expand_columns(train, column, target, |f, _| f.dtype.is_numeric());
            for col in cols {
                let mut t = Scaler::new(col, *method);
                apply(&mut t, train, test, line)?;
            }
        }
        Step::Encode { column, method } => {
            let cols = expand_columns(train, column, target, |f, _| f.dtype == DataType::Str);
            for col in cols {
                match method {
                    EncodeSpec::OneHot => {
                        let mut t = OneHotEncoder::new(col);
                        apply(&mut t, train, test, line)?;
                    }
                    EncodeSpec::Ordinal => {
                        let mut t = OrdinalEncoder::new(col);
                        apply(&mut t, train, test, line)?;
                    }
                    EncodeSpec::KHot { separator } => {
                        let mut t = KHotEncoder::new(col, separator.clone());
                        apply(&mut t, train, test, line)?;
                    }
                    EncodeSpec::Hash { buckets } => {
                        let mut t = FeatureHasher::new(col, *buckets);
                        apply(&mut t, train, test, line)?;
                    }
                }
                check_memory(train, test, cfg, line)?;
            }
        }
        Step::Drop { column } => {
            let mut t = ColumnDropper { column: column.clone() };
            apply(&mut t, train, test, line)?;
        }
        Step::DropHighMissing { threshold } => {
            let mut t = HighMissingDropper::new(*threshold);
            apply(&mut t, train, test, line)?;
        }
        Step::DropConstant => {
            let mut t = ConstantColumnDropper::default();
            apply(&mut t, train, test, line)?;
        }
        Step::Dedup { approximate } => {
            let mut t = Deduplicator { approximate: *approximate };
            apply(&mut t, train, test, line)?;
        }
        Step::DropNullRows => {
            let mut t = NullRowDropper;
            apply(&mut t, train, test, line)?;
        }
        Step::Outliers { column, method } => {
            let cols = match column {
                ColumnRef::Named(n) => vec![n.clone()],
                ColumnRef::All => Vec::new(), // empty = all numeric
            };
            let m = match method {
                OutlierSpec::Iqr { factor } => OutlierMethod::Iqr(*factor),
                OutlierSpec::ZScore { factor } => OutlierMethod::ZScore(*factor),
                OutlierSpec::Lof { k, factor } => OutlierMethod::Lof { k: *k, factor: *factor },
            };
            let mut t = OutlierRemover::new(cols, m);
            apply(&mut t, train, test, line)?;
        }
        Step::Augment { method, target } => {
            let mut t = Augmenter::new(target.clone(), *method);
            t.seed = cfg.seed;
            apply(&mut t, train, test, line)?;
            check_memory(train, test, cfg, line)?;
        }
        Step::Rebalance { target } => {
            let mut t = Augmenter::new(target.clone(), AugmentMethod::Smote);
            t.seed = cfg.seed;
            apply(&mut t, train, test, line)?;
            check_memory(train, test, cfg, line)?;
        }
        Step::SelectTopK { k, target } => {
            let mut t = TopKSelector::new(target.clone(), *k);
            apply(&mut t, train, test, line)?;
        }
        Step::Model(spec) => {
            if model_seen {
                return Err(PipelineError::new(
                    ErrorKind::ModelTaskMismatch,
                    "pipeline trains more than one model",
                )
                .at_line(line));
            }
            return run_model(spec, train, test, cfg, line).map(Some);
        }
    }
    Ok(None)
}

/// Strict source-order interpretation: the reference oracle the DAG
/// scheduler is tested against.
#[cfg(test)]
pub(crate) fn execute_seq(
    program: &Program,
    train: &Table,
    test: &Table,
    env: &Environment,
    cfg: &ExecutionConfig,
) -> Result<Evaluation, PipelineError> {
    let _span = catdb_trace::span(crate::dag::SPAN_EXECUTE_PIPELINE);
    let started = Instant::now();
    let target = program.model().map(|m| m.target.clone());
    resolve_imports(program, env)?;

    let mut train = train.clone();
    let mut test = test.clone();
    let mut model_result = None;

    for (idx, step) in program.steps.iter().enumerate() {
        let line = step_line(idx);
        let step_started = Instant::now();
        let rows_in = train.n_rows();
        if let Some(result) = apply_step(
            step,
            line,
            &mut train,
            &mut test,
            cfg,
            target.as_deref(),
            model_result.is_some(),
        )? {
            model_result = Some(result);
        }
        catdb_trace::emit(catdb_trace::TraceEvent::PipelineOp {
            op: step_label(step).to_string(),
            rows_in,
            rows_out: train.n_rows(),
            micros: step_started.elapsed().as_micros() as u64,
        });
        check_memory(&train, &test, cfg, step_line(idx))?;
    }

    finish_evaluation(program, &train, &test, cfg, model_result, started)
}

/// Shared tail of the scheduler and the oracle: demand a model result
/// and assemble the [`Evaluation`].
pub(crate) fn finish_evaluation(
    program: &Program,
    train: &Table,
    test: &Table,
    cfg: &ExecutionConfig,
    model_result: Option<(TaskMetrics, TaskMetrics, usize)>,
    started: Instant,
) -> Result<Evaluation, PipelineError> {
    let Some((train_metrics, test_metrics, n_features)) = model_result else {
        return Err(PipelineError::new(ErrorKind::ModelTaskMismatch, "pipeline has no model step"));
    };
    let algo = program.model().expect("model present").algo;
    Ok(Evaluation {
        task: cfg.task,
        train: train_metrics,
        test: test_metrics,
        model_algo: algo,
        n_features,
        n_train_rows: train.n_rows(),
        n_test_rows: test.n_rows(),
        elapsed_seconds: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::execute;
    use crate::parser::parse;
    use catdb_table::Column;

    fn toy_dataset() -> (Table, Table) {
        // Binary target determined by x with a categorical helper column
        // and some missing values.
        let n = 120;
        let xs: Vec<Option<f64>> =
            (0..n).map(|i| if i % 17 == 0 { None } else { Some(i as f64) }).collect();
        let cat: Vec<&str> = (0..n).map(|i| if i % 3 == 0 { "red" } else { "blue" }).collect();
        let y: Vec<&str> = (0..n).map(|i| if i < n / 2 { "no" } else { "yes" }).collect();
        let t = Table::from_columns(vec![
            ("x", Column::Float(xs)),
            ("color", Column::from_strings(cat)),
            ("y", Column::from_strings(y)),
        ])
        .unwrap();
        t.train_test_split(0.7, 1).unwrap()
    }

    fn good_program() -> Program {
        parse(
            r#"pipeline {
  impute "x" strategy mean;
  encode "color" method onehot;
  model classifier random_forest target "y" trees 10;
}"#,
        )
        .unwrap()
    }

    #[test]
    fn clean_pipeline_executes_and_scores_well() {
        let (train, test) = toy_dataset();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let eval = execute(&good_program(), &train, &test, &Environment::default(), &cfg).unwrap();
        assert!(eval.test.headline() > 0.9, "test AUC {:?}", eval.test);
        assert_eq!(eval.model_algo, ModelAlgo::RandomForest);
        assert_eq!(eval.n_features, 3); // x + color=blue + color=red
    }

    #[test]
    fn missing_imputation_raises_nan_error() {
        let (train, test) = toy_dataset();
        let program = parse(
            "pipeline {\n  encode \"color\" method onehot;\n  model classifier random_forest target \"y\";\n}",
        )
        .unwrap();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let err = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::NanInFeatures);
    }

    #[test]
    fn unencoded_string_raises_conversion_error() {
        let (train, test) = toy_dataset();
        let program = parse(
            "pipeline {\n  impute \"x\" strategy mean;\n  model classifier random_forest target \"y\";\n}",
        )
        .unwrap();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let err = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::StringConversion);
    }

    #[test]
    fn hallucinated_column_raises_column_not_found() {
        let (train, test) = toy_dataset();
        let program = parse(
            "pipeline {\n  impute \"zip_code\" strategy mean;\n  model classifier random_forest target \"y\";\n}",
        )
        .unwrap();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let err = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::ColumnNotFound);
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn wrong_family_raises_task_mismatch() {
        let (train, test) = toy_dataset();
        let program = parse(
            "pipeline {\n  impute \"x\" strategy mean;\n  encode \"color\" method onehot;\n  model regressor ridge target \"y\";\n}",
        )
        .unwrap();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let err = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::ModelTaskMismatch);
    }

    #[test]
    fn uninstalled_package_raises_missing_package() {
        let (train, test) = toy_dataset();
        let program = parse(
            "pipeline {\n  impute \"x\" strategy mean;\n  encode \"color\" method onehot;\n  model classifier gradient_boosting target \"y\";\n}",
        )
        .unwrap();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let err = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::MissingPackage);
        // Installing the package fixes it (the KB path).
        let mut env = Environment::default();
        env.install("boosting").unwrap();
        assert!(execute(&program, &train, &test, &env, &cfg).is_ok());
    }

    #[test]
    fn memory_limit_trips_on_onehot_blowup() {
        // High-cardinality id column: one-hot explodes the table.
        let n = 400;
        let ids: Vec<String> = (0..n).map(|i| format!("id{i}")).collect();
        let y: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let t = Table::from_columns(vec![
            ("id", Column::from_strings(ids)),
            ("y", Column::from_strings(y)),
        ])
        .unwrap();
        let (train, test) = t.train_test_split(0.7, 1).unwrap();
        let program = parse(
            "pipeline {\n  encode \"id\" method onehot;\n  model classifier decision_tree target \"y\";\n}",
        )
        .unwrap();
        let mut cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        cfg.memory_limit = Some(200_000);
        let err = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::MemoryExhausted);
    }

    #[test]
    fn wildcard_steps_cover_all_applicable_columns() {
        let (train, test) = toy_dataset();
        let program = parse(
            "pipeline {\n  impute * strategy mean;\n  impute * strategy most_frequent;\n  encode * method onehot;\n  model classifier logistic target \"y\";\n}",
        )
        .unwrap();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let eval = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap();
        assert!(eval.test.headline() > 0.85);
    }

    #[test]
    fn no_model_step_is_an_error() {
        let (train, test) = toy_dataset();
        let program = parse("pipeline {\n  drop_constant;\n}").unwrap();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let err = execute(&program, &train, &test, &Environment::default(), &cfg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::ModelTaskMismatch);
    }

    #[test]
    fn tabpfn_limits_surface_as_model_limit() {
        let n = 2400; // > 1000 training rows after split
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "a" } else { "b" }).collect();
        let t =
            Table::from_columns(vec![("x", Column::from_f64(xs)), ("y", Column::from_strings(y))])
                .unwrap();
        let (train, test) = t.train_test_split(0.7, 1).unwrap();
        let program =
            parse("pipeline {\n  require \"tabpfn\";\n  model classifier tabpfn target \"y\";\n}")
                .unwrap();
        let mut env = Environment::default();
        env.install("tabpfn").unwrap();
        let cfg = ExecutionConfig::new(TaskKind::BinaryClassification);
        let err = execute(&program, &train, &test, &env, &cfg).unwrap_err();
        assert_eq!(err.kind, ErrorKind::ModelLimitExceeded);
    }
}
