//! Dependency-DAG compilation and parallel execution of pipeline
//! programs.
//!
//! A generated [`Program`] is textually linear, but most of its cleaning
//! and feature-engineering steps touch disjoint columns. [`StepDag`]
//! makes the real dependency structure explicit — each step declares the
//! column sets it reads and writes, edges are inferred from read/write
//! conflicts, and whole-table steps (wildcards, row-count changers, the
//! model) become barriers — and [`execute_dag`] schedules antichains of
//! ready steps concurrently on `catdb-runtime`.
//!
//! # Determinism
//!
//! DAG execution is byte-identical to the sequential interpreter at any
//! `CATDB_THREADS`:
//!
//! * steps in a wave run against an immutable snapshot of the current
//!   tables and return only their *column diff* (the write set they
//!   replaced, dropped, or appended);
//! * diffs are merged back in step-index order, which reproduces the
//!   sequential column layout exactly because every operator either
//!   replaces columns in place or appends generated columns at the end;
//! * `PipelineOp` trace events and memory checks happen at merge time,
//!   in step-index order, from the merged authoritative state;
//! * on failure the merge reports the smallest-index failing step — the
//!   same error sequential execution would have raised first.
//!
//! # Memoization and step-level fault recovery
//!
//! A [`StepCache`] memoizes step outputs keyed by a lineage fingerprint:
//! the input-table fingerprints, the execution-config bits that affect
//! interpretation, and the rendered text of the step plus all its
//! transitive ancestors. A fix-loop iteration that rewrites one failing
//! step leaves every other step's lineage untouched, so Algorithm 4
//! re-executions skip unchanged prefixes *and* completed siblings of the
//! failed step — only the repaired step recomputes. Sibling outputs are
//! inserted into the cache even when the wave fails, which is what makes
//! the step-granularity retry cheap.

use crate::ast::{ColumnRef, EncodeSpec, Program, Step};
use crate::environment::Environment;
use crate::errors::{ErrorKind, PipelineError};
use crate::executor::{
    apply_step, check_memory, finish_evaluation, injected_fault, resolve_imports, step_label,
    step_line, Evaluation, ExecutionConfig, TaskMetrics,
};
use catdb_table::{table_fingerprint, Column, Table};
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::Instant;

/// Trace counter: DAG step-cache lookups that returned a memoized output.
pub const COUNTER_STEP_CACHE_HITS: &str = "step_cache.hits";
/// Trace counter: DAG step-cache lookups that missed.
pub const COUNTER_STEP_CACHE_MISSES: &str = "step_cache.misses";
/// Trace counter: waves (antichains) the DAG scheduler executed.
pub const COUNTER_DAG_WAVES: &str = "dag.waves";
/// Trace span wrapping the DAG wave loop.
pub const SPAN_DAG_SCHEDULE: &str = "dag_schedule";

/// Step scheduling strategy for [`crate::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Strict source-order interpretation.
    #[default]
    Seq,
    /// Dependency-DAG scheduling with step memoization.
    Dag,
}

impl ExecMode {
    /// Parse a `--exec-mode` value: `seq` (or `sequential`) | `dag`.
    pub fn parse(s: &str) -> Result<ExecMode, String> {
        match s.trim() {
            "seq" | "sequential" => Ok(ExecMode::Seq),
            "dag" => Ok(ExecMode::Dag),
            other => Err(format!("unknown exec mode '{other}'; expected seq or dag")),
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::Seq => write!(f, "seq"),
            ExecMode::Dag => write!(f, "dag"),
        }
    }
}

/// The set of columns a step reads or writes: exact names plus prefixes
/// of encoder-generated names (`{col}=` for one-hot/k-hot indicators,
/// `{col}#h` for hash buckets). `wildcard` means "every column".
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ColSet {
    pub names: Vec<String>,
    pub prefixes: Vec<String>,
    pub wildcard: bool,
}

impl ColSet {
    fn one(name: &str) -> ColSet {
        ColSet { names: vec![name.to_string()], prefixes: Vec::new(), wildcard: false }
    }

    fn all() -> ColSet {
        ColSet { names: Vec::new(), prefixes: Vec::new(), wildcard: true }
    }

    pub fn is_empty(&self) -> bool {
        !self.wildcard && self.names.is_empty() && self.prefixes.is_empty()
    }

    /// Whether a concrete column name belongs to this set.
    pub fn contains(&self, col: &str) -> bool {
        self.wildcard
            || self.names.iter().any(|n| n == col)
            || self.prefixes.iter().any(|p| col.starts_with(p.as_str()))
    }

    /// Whether the two sets can share any concrete column.
    pub fn intersects(&self, other: &ColSet) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if self.wildcard || other.wildcard {
            return true;
        }
        self.names.iter().any(|n| other.contains(n))
            || other.names.iter().any(|n| self.contains(n))
            || self.prefixes.iter().any(|p| {
                other
                    .prefixes
                    .iter()
                    .any(|q| p.starts_with(q.as_str()) || q.starts_with(p.as_str()))
            })
    }
}

/// Declared read/write column sets of one step, plus whether the step is
/// a barrier (depends on every prior step and blocks every later one).
/// Barriers are the steps whose effect cannot be confined to a static
/// column set: wildcard references, row-count changers, and the model.
fn step_sets(step: &Step) -> (ColSet, ColSet, bool) {
    match step {
        Step::Require { .. } => (ColSet::default(), ColSet::default(), false),
        Step::Impute { column: ColumnRef::Named(n), .. }
        | Step::Scale { column: ColumnRef::Named(n), .. } => {
            (ColSet::one(n), ColSet::one(n), false)
        }
        Step::Encode { column: ColumnRef::Named(n), method } => {
            let mut writes = ColSet::one(n);
            match method {
                EncodeSpec::OneHot | EncodeSpec::KHot { .. } => {
                    writes.prefixes.push(format!("{n}="));
                }
                EncodeSpec::Hash { .. } => writes.prefixes.push(format!("{n}#h")),
                EncodeSpec::Ordinal => {}
            }
            (ColSet::one(n), writes, false)
        }
        Step::Drop { column } => (ColSet::default(), ColSet::one(column), false),
        // Everything else reads or rewrites the whole table: wildcard
        // imputes/scales/encodes, row droppers, augmentation, top-k
        // selection, outlier removal (drops rows even when named), and
        // the model step.
        _ => (ColSet::all(), ColSet::all(), true),
    }
}

/// One node of a compiled [`StepDag`].
#[derive(Debug, Clone, Serialize)]
pub struct DagNode {
    pub index: usize,
    /// Operator name (matches `PipelineOp` trace events).
    pub op: String,
    /// Canonical step source line.
    pub render: String,
    pub reads: ColSet,
    pub writes: ColSet,
    pub barrier: bool,
    /// Direct dependencies (all `< index`).
    pub deps: Vec<usize>,
}

/// A structured DAG-validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The dependency graph contains a cycle through these nodes.
    Cycle { nodes: Vec<usize> },
    /// A node names a dependency outside the graph.
    DanglingDep { step: usize, dep: usize },
    /// A step reads a column that neither the initial schema nor any
    /// earlier step's writes can provide.
    MissingInput { step: usize, column: String },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Cycle { nodes } => {
                write!(f, "dependency cycle through steps {nodes:?}")
            }
            DagError::DanglingDep { step, dep } => {
                write!(f, "step {step} depends on nonexistent step {dep}")
            }
            DagError::MissingInput { step, column } => {
                write!(
                    f,
                    "step {step} reads column '{column}' that no input or prior step provides"
                )
            }
        }
    }
}

impl std::error::Error for DagError {}

/// Kahn topological sort over explicit adjacency lists, smallest index
/// first (deterministic). Generic over arbitrary graphs — the property
/// tests drive it with random DAGs, not just compiled pipelines.
pub fn topo_order(deps: &[Vec<usize>]) -> Result<Vec<usize>, DagError> {
    let n = deps.len();
    for (step, ds) in deps.iter().enumerate() {
        if let Some(&dep) = ds.iter().find(|&&d| d >= n) {
            return Err(DagError::DanglingDep { step, dep });
        }
    }
    let mut indeg = vec![0usize; n];
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, ds) in deps.iter().enumerate() {
        let uniq: BTreeSet<usize> = ds.iter().copied().collect();
        indeg[j] = uniq.len();
        for d in uniq {
            rdeps[d].push(j);
        }
    }
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&i) = ready.iter().next() {
        ready.remove(&i);
        order.push(i);
        for &j in &rdeps[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.insert(j);
            }
        }
    }
    if order.len() != n {
        return Err(DagError::Cycle { nodes: (0..n).filter(|&i| indeg[i] > 0).collect() });
    }
    Ok(order)
}

/// The compiled dependency DAG of a program.
#[derive(Debug, Clone, Serialize)]
pub struct StepDag {
    pub nodes: Vec<DagNode>,
}

impl StepDag {
    /// Infer the dependency DAG of a program. Step `j` depends on step
    /// `i < j` when either is a barrier or their column sets conflict
    /// (write-read, write-write, or read-write on any shared column).
    pub fn compile(program: &Program) -> StepDag {
        let metas: Vec<(ColSet, ColSet, bool)> = program.steps.iter().map(step_sets).collect();
        let mut nodes = Vec::with_capacity(program.steps.len());
        for (j, step) in program.steps.iter().enumerate() {
            let (reads, writes, barrier) = metas[j].clone();
            let mut deps = Vec::new();
            for (i, (ri, wi, bi)) in metas.iter().enumerate().take(j) {
                if *bi
                    || barrier
                    || wi.intersects(&reads)
                    || wi.intersects(&writes)
                    || ri.intersects(&writes)
                {
                    deps.push(i);
                }
            }
            nodes.push(DagNode {
                index: j,
                op: step_label(step).to_string(),
                render: step.to_string(),
                reads,
                writes,
                barrier,
                deps,
            });
        }
        StepDag { nodes }
    }

    /// Check structural validity: acyclic, in-range dependencies, and
    /// every named read satisfiable by the initial schema or an earlier
    /// step's writes. Returns a deterministic topological order.
    ///
    /// This is an inspection/diagnostic API (`--dag-out`, tests); the
    /// executor deliberately does not pre-fail on missing inputs so that
    /// runtime errors surface with the same step line and message as
    /// sequential execution.
    pub fn validate(&self, initial_columns: &[String]) -> Result<Vec<usize>, DagError> {
        let deps: Vec<Vec<usize>> = self.nodes.iter().map(|n| n.deps.clone()).collect();
        let order = topo_order(&deps)?;
        for node in &self.nodes {
            for name in &node.reads.names {
                let provided = initial_columns.iter().any(|c| c == name)
                    || self.nodes[..node.index].iter().any(|p| p.writes.contains(name));
                if !provided {
                    return Err(DagError::MissingInput { step: node.index, column: name.clone() });
                }
            }
        }
        Ok(order)
    }

    /// JSON export for `--dag-out`.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("DAG serializes")
    }

    /// Transitive dependency closure per node, ascending.
    fn ancestors(&self) -> Vec<BTreeSet<usize>> {
        let mut anc: Vec<BTreeSet<usize>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let mut set = BTreeSet::new();
            for &d in &node.deps {
                set.insert(d);
                set.extend(anc[d].iter().copied());
            }
            anc.push(set);
        }
        anc
    }
}

/// Column-level difference one local step applied to one table.
#[derive(Clone, Default)]
struct TableDiff {
    /// Columns replaced in place (possibly with a new dtype).
    replaced: Vec<(String, Column)>,
    /// Columns removed.
    dropped: Vec<String>,
    /// Columns appended at the end, in append order.
    appended: Vec<(String, Column)>,
}

#[derive(Clone, Default)]
struct StepDiff {
    train: TableDiff,
    test: TableDiff,
}

/// Memoized output of one step.
#[derive(Clone)]
enum CachedOutput {
    /// A local step's column diff (applies to any table state whose
    /// lineage matches the key).
    Diff(Box<StepDiff>),
    /// A barrier step's full output tables (its lineage covers every
    /// prior step, so the whole state is determined by the key).
    Full { train: Table, test: Table },
    /// A model step's evaluation result.
    Model { train: TaskMetrics, test: TaskMetrics, n_features: usize },
}

/// Step-output memoization shared across DAG executions. Keys are
/// lineage fingerprints (input-table fingerprints + config bits + the
/// rendered step text of the step and all its transitive ancestors), so
/// entries survive fix-loop rewrites of *other* steps and repeated runs
/// over the same inputs, and never collide across validation/full
/// configs or different seeds.
pub struct StepCache {
    entries: Mutex<HashMap<u128, CachedOutput>>,
    capacity: usize,
}

impl Default for StepCache {
    fn default() -> Self {
        StepCache::new()
    }
}

impl fmt::Debug for StepCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StepCache({} entries)", self.len())
    }
}

impl StepCache {
    pub fn new() -> StepCache {
        StepCache::with_capacity(1024)
    }

    pub fn with_capacity(capacity: usize) -> StepCache {
        StepCache { entries: Mutex::new(HashMap::new()), capacity }
    }

    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a step output, recording a `step_cache.hits` or
    /// `step_cache.misses` trace counter either way.
    fn get(&self, key: u128) -> Option<CachedOutput> {
        let out = self.entries.lock().unwrap().get(&key).cloned();
        catdb_trace::add_counter(
            if out.is_some() { COUNTER_STEP_CACHE_HITS } else { COUNTER_STEP_CACHE_MISSES },
            1.0,
        );
        out
    }

    /// Insert a step output; silently drops entries past capacity (the
    /// cache is an accelerator, never a correctness dependency).
    fn insert(&self, key: u128, value: CachedOutput) {
        let mut entries = self.entries.lock().unwrap();
        if entries.len() < self.capacity || entries.contains_key(&key) {
            entries.insert(key, value);
        }
    }
}

/// Fingerprint of everything outside the program that shapes execution:
/// the input tables and the config bits the interpreter reads.
fn base_key(train: &Table, test: &Table, cfg: &ExecutionConfig) -> u128 {
    let (train, test) = (table_fingerprint(train), table_fingerprint(test));
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    0x5eed_cafe_u64.hash(&mut h2);
    for h in [&mut h1, &mut h2] {
        train.hash(h);
        test.hash(h);
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}",
            cfg.task, cfg.seed, cfg.fast_validation, cfg.memory_limit, cfg.split_mode
        )
        .hash(h);
    }
    ((h1.finish() as u128) << 64) | h2.finish() as u128
}

/// Lineage fingerprint of step `idx`: the base key plus the rendered
/// text of every transitive ancestor (in index order) and of the step
/// itself. No per-step data hashing — ancestry pins the data.
fn step_key(base: u128, nodes: &[DagNode], ancestors: &BTreeSet<usize>, idx: usize) -> u128 {
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    0xdead_beef_u64.hash(&mut h2);
    for h in [&mut h1, &mut h2] {
        base.hash(h);
        for &a in ancestors {
            nodes[a].render.hash(h);
        }
        nodes[idx].render.hash(h);
    }
    ((h1.finish() as u128) << 64) | h2.finish() as u128
}

/// Clone only the columns a local step can touch (reads ∪ writes,
/// prefixes included). Single-column operators see exactly the columns
/// they would read from the full table, so their outputs — and their
/// errors, down to the message — match a full-table run, at a fraction
/// of the copy cost.
fn project(table: &Table, reads: &ColSet, writes: &ColSet) -> Table {
    let mut out = Table::empty();
    for (f, c) in table.iter_columns() {
        if reads.contains(&f.name) || writes.contains(&f.name) {
            out.add_column(f.name.clone(), c.clone()).expect("projection names are unique");
        }
    }
    out
}

/// Diff a local step's output against its input projection. `writes`
/// bounds the in-place replacements; appends and drops are observed
/// directly from the schemas.
fn table_diff(pre: &Table, post: &Table, writes: &ColSet) -> TableDiff {
    let pre_names: Vec<&str> = pre.schema().names();
    let post_names: Vec<&str> = post.schema().names();
    let mut diff = TableDiff::default();
    for name in &pre_names {
        if !post.schema().contains(name) {
            diff.dropped.push(name.to_string());
        }
    }
    for name in &post_names {
        if !pre.schema().contains(name) {
            diff.appended
                .push((name.to_string(), post.column(name).expect("named column").clone()));
        } else if writes.contains(name) {
            diff.replaced
                .push((name.to_string(), post.column(name).expect("named column").clone()));
        }
    }
    diff
}

/// Apply a memoized/merged diff to the authoritative table. Failures map
/// exactly like the sequential interpreter's table errors.
fn apply_table_diff(table: &mut Table, diff: &TableDiff, line: usize) -> Result<(), PipelineError> {
    let map = |e: catdb_table::TableError| {
        PipelineError::new(ErrorKind::ColumnNotFound, e.to_string()).at_line(line)
    };
    for (name, col) in &diff.replaced {
        table.replace_column(name, col.clone()).map_err(map)?;
    }
    for name in &diff.dropped {
        table.drop_column(name).map_err(map)?;
    }
    for (name, col) in &diff.appended {
        table.add_column(name.clone(), col.clone()).map_err(map)?;
    }
    Ok(())
}

/// Result of running (or recalling) one wave member, pre-merge.
enum WaveOut {
    Diff { diff: Box<StepDiff>, micros: u64, fresh: bool },
    Failed(PipelineError),
}

/// A step's `PipelineOp` payload, captured at merge time but emitted
/// only once every earlier step has also merged — so the event stream
/// is in step-index order, identical to sequential execution, at any
/// thread count.
struct PendingOp {
    op: String,
    rows_in: usize,
    rows_out: usize,
    micros: u64,
}

/// Run the post-step checks the sequential interpreter runs, in the
/// same order, and record the step's `PipelineOp` payload for ordered
/// emission. Encode steps check memory before the record too (their
/// sequential per-column check fires on the same state for
/// single-column references).
fn check_and_record(
    step: &Step,
    line: usize,
    rows_in: usize,
    micros: u64,
    train: &Table,
    test: &Table,
    cfg: &ExecutionConfig,
) -> Result<PendingOp, PipelineError> {
    if matches!(step, Step::Encode { .. } | Step::Augment { .. } | Step::Rebalance { .. }) {
        check_memory(train, test, cfg, line)?;
    }
    let op =
        PendingOp { op: step_label(step).to_string(), rows_in, rows_out: train.n_rows(), micros };
    check_memory(train, test, cfg, line)?;
    Ok(op)
}

/// Execute a program by scheduling antichains of its dependency DAG on
/// the shared runtime pool. See the module docs for the determinism and
/// memoization contract.
pub(crate) fn execute_dag(
    program: &Program,
    train0: &Table,
    test0: &Table,
    env: &Environment,
    cfg: &ExecutionConfig,
) -> Result<Evaluation, PipelineError> {
    let _span = catdb_trace::span("execute_pipeline");
    let started = Instant::now();
    let target = program.model().map(|m| m.target.clone());
    resolve_imports(program, env)?;

    let dag = StepDag::compile(program);
    let n = dag.nodes.len();
    let cache = cfg.step_cache.clone();
    let keys: Vec<u128> = match &cache {
        Some(_) => {
            let base = base_key(train0, test0, cfg);
            let ancestors = dag.ancestors();
            (0..n).map(|i| step_key(base, &dag.nodes, &ancestors[i], i)).collect()
        }
        None => Vec::new(),
    };

    let _sched_span = catdb_trace::span(SPAN_DAG_SCHEDULE);
    let mut train = train0.clone();
    let mut test = test0.clone();
    let mut model_result: Option<(TaskMetrics, TaskMetrics, usize)> = None;
    let mut done = vec![false; n];
    let mut completed = 0usize;
    let mut waves = 0u64;
    let mut pending: Vec<Option<PendingOp>> = (0..n).map(|_| None).collect();
    let mut next_emit = 0usize;

    while completed < n {
        let wave: Vec<usize> =
            (0..n).filter(|&i| !done[i] && dag.nodes[i].deps.iter().all(|&d| done[d])).collect();
        debug_assert!(!wave.is_empty(), "acyclic by construction");
        waves += 1;

        if wave.len() == 1 {
            run_singleton(
                &dag,
                wave[0],
                program,
                &mut train,
                &mut test,
                &mut model_result,
                cfg,
                target.as_deref(),
                cache.as_deref(),
                &keys,
                &mut pending,
            )?;
        } else {
            // A barrier's dependents cover every other step, so barriers
            // only ever surface in singleton waves.
            debug_assert!(wave.iter().all(|&i| !dag.nodes[i].barrier));
            run_wave(
                &dag,
                &wave,
                program,
                &mut train,
                &mut test,
                cfg,
                target.as_deref(),
                cache.as_deref(),
                &keys,
                &mut pending,
            )?;
        }
        for &i in &wave {
            done[i] = true;
        }
        completed += wave.len();
        // Emit every step whose predecessors have all merged: waves
        // complete out of step order, the event stream must not.
        while next_emit < n {
            let Some(op) = pending[next_emit].take() else { break };
            catdb_trace::emit(catdb_trace::TraceEvent::PipelineOp {
                op: op.op,
                rows_in: op.rows_in,
                rows_out: op.rows_out,
                micros: op.micros,
            });
            next_emit += 1;
        }
    }
    catdb_trace::add_counter(COUNTER_DAG_WAVES, waves as f64);

    finish_evaluation(program, &train, &test, cfg, model_result, started)
}

/// Execute a singleton wave (barriers, models, or a lone local step)
/// directly against the authoritative tables — the exact sequential code
/// path — with cache recall/fill around it.
#[allow(clippy::too_many_arguments)]
fn run_singleton(
    dag: &StepDag,
    idx: usize,
    program: &Program,
    train: &mut Table,
    test: &mut Table,
    model_result: &mut Option<(TaskMetrics, TaskMetrics, usize)>,
    cfg: &ExecutionConfig,
    target: Option<&str>,
    cache: Option<&StepCache>,
    keys: &[u128],
    pending: &mut [Option<PendingOp>],
) -> Result<(), PipelineError> {
    let step = &program.steps[idx];
    let line = step_line(idx);
    let rows_in = train.n_rows();
    if cfg.inject_fault_step == Some(idx) {
        return Err(injected_fault(idx));
    }

    if let Some(cache) = cache {
        if let Some(hit) = cache.get(keys[idx]) {
            match hit {
                CachedOutput::Diff(diff) => {
                    apply_table_diff(train, &diff.train, line)?;
                    apply_table_diff(test, &diff.test, line)?;
                }
                CachedOutput::Full { train: t, test: te } => {
                    *train = t;
                    *test = te;
                }
                CachedOutput::Model { train: tm, test: te, n_features } => {
                    if model_result.is_some() {
                        return Err(PipelineError::new(
                            ErrorKind::ModelTaskMismatch,
                            "pipeline trains more than one model",
                        )
                        .at_line(line));
                    }
                    *model_result = Some((tm, te, n_features));
                }
            }
            pending[idx] = Some(check_and_record(step, line, rows_in, 0, train, test, cfg)?);
            return Ok(());
        }
    }

    let node = &dag.nodes[idx];
    let step_started = Instant::now();
    // Local steps diff cheaply against a projection snapshot taken
    // before execution; barriers are cached whole.
    let pre_train =
        (!node.barrier && cache.is_some()).then(|| project(train, &node.reads, &node.writes));
    let pre_test =
        (!node.barrier && cache.is_some()).then(|| project(test, &node.reads, &node.writes));
    let result = apply_step(step, line, train, test, cfg, target, model_result.is_some())?;
    if let Some(cache) = cache {
        match &result {
            Some((tm, te, n_features)) => cache.insert(
                keys[idx],
                CachedOutput::Model {
                    train: tm.clone(),
                    test: te.clone(),
                    n_features: *n_features,
                },
            ),
            None if node.barrier => cache
                .insert(keys[idx], CachedOutput::Full { train: train.clone(), test: test.clone() }),
            None => {
                let diff = StepDiff {
                    train: table_diff(
                        pre_train.as_ref().expect("local snapshot"),
                        &project(train, &node.reads, &node.writes),
                        &node.writes,
                    ),
                    test: table_diff(
                        pre_test.as_ref().expect("local snapshot"),
                        &project(test, &node.reads, &node.writes),
                        &node.writes,
                    ),
                };
                cache.insert(keys[idx], CachedOutput::Diff(Box::new(diff)));
            }
        }
    }
    if let Some(model) = result {
        *model_result = Some(model);
    }
    pending[idx] = Some(check_and_record(
        step,
        line,
        rows_in,
        step_started.elapsed().as_micros() as u64,
        train,
        test,
        cfg,
    )?);
    Ok(())
}

/// Execute an antichain of local steps concurrently against an immutable
/// snapshot, then merge their column diffs in step-index order.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    dag: &StepDag,
    wave: &[usize],
    program: &Program,
    train: &mut Table,
    test: &mut Table,
    cfg: &ExecutionConfig,
    target: Option<&str>,
    cache: Option<&StepCache>,
    keys: &[u128],
    pending: &mut [Option<PendingOp>],
) -> Result<(), PipelineError> {
    // Cache recall happens up front, in index order, so hit/miss
    // counters and cache contents are identical at every thread count.
    let mut outs: Vec<Option<WaveOut>> = wave
        .iter()
        .map(|&idx| {
            cache.and_then(|c| c.get(keys[idx])).map(|hit| match hit {
                CachedOutput::Diff(diff) => WaveOut::Diff { diff, micros: 0, fresh: false },
                // Waves never contain barriers or models.
                CachedOutput::Full { .. } | CachedOutput::Model { .. } => {
                    unreachable!("local step cached a non-diff output")
                }
            })
        })
        .collect();

    let misses: Vec<usize> =
        wave.iter().enumerate().filter(|(p, _)| outs[*p].is_none()).map(|(_, &i)| i).collect();
    let snapshot_train = &*train;
    let snapshot_test = &*test;
    let computed: Vec<(usize, WaveOut)> =
        catdb_runtime::parallel_map(catdb_runtime::pool_size(), &misses, |_, &idx| {
            if cfg.inject_fault_step == Some(idx) {
                return (idx, WaveOut::Failed(injected_fault(idx)));
            }
            let node = &dag.nodes[idx];
            let step = &program.steps[idx];
            let line = step_line(idx);
            let step_started = Instant::now();
            let pre_train = project(snapshot_train, &node.reads, &node.writes);
            let pre_test = project(snapshot_test, &node.reads, &node.writes);
            let mut local_train = pre_train.clone();
            let mut local_test = pre_test.clone();
            match apply_step(step, line, &mut local_train, &mut local_test, cfg, target, false) {
                Ok(_) => {
                    let diff = StepDiff {
                        train: table_diff(&pre_train, &local_train, &node.writes),
                        test: table_diff(&pre_test, &local_test, &node.writes),
                    };
                    (
                        idx,
                        WaveOut::Diff {
                            diff: Box::new(diff),
                            micros: step_started.elapsed().as_micros() as u64,
                            fresh: true,
                        },
                    )
                }
                Err(e) => (idx, WaveOut::Failed(e)),
            }
        });
    for (idx, out) in computed {
        let pos = wave.iter().position(|&i| i == idx).expect("wave member");
        outs[pos] = Some(out);
    }

    // Fill the cache for every completed step — including siblings of a
    // failed one, which is what lets a step-granularity retry reuse them.
    if let Some(cache) = cache {
        for (pos, &idx) in wave.iter().enumerate() {
            if let Some(WaveOut::Diff { diff, fresh: true, .. }) = &outs[pos] {
                cache.insert(keys[idx], CachedOutput::Diff(diff.clone()));
            }
        }
    }

    // Deterministic merge: apply diffs, checks, and trace events in step
    // index order; the first failure in that order is the authoritative
    // error (identical to what sequential execution raises first).
    for (pos, &idx) in wave.iter().enumerate() {
        let step = &program.steps[idx];
        let line = step_line(idx);
        match outs[pos].take().expect("wave member resolved") {
            WaveOut::Failed(e) => return Err(e),
            WaveOut::Diff { diff, micros, .. } => {
                let rows_in = train.n_rows();
                apply_table_diff(train, &diff.train, line)?;
                apply_table_diff(test, &diff.test, line)?;
                pending[idx] =
                    Some(check_and_record(step, line, rows_in, micros, train, test, cfg)?);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn program(src: &str) -> Program {
        parse(src).unwrap()
    }

    #[test]
    fn exec_mode_parses_and_renders() {
        assert_eq!(ExecMode::parse("seq").unwrap(), ExecMode::Seq);
        assert_eq!(ExecMode::parse("sequential").unwrap(), ExecMode::Seq);
        assert_eq!(ExecMode::parse(" dag ").unwrap(), ExecMode::Dag);
        assert!(ExecMode::parse("threads").is_err());
        assert_eq!(ExecMode::Seq.to_string(), "seq");
        assert_eq!(ExecMode::Dag.to_string(), "dag");
    }

    #[test]
    fn independent_named_steps_have_no_edges() {
        let p = program(
            "pipeline {\n  impute \"a\" strategy mean;\n  impute \"b\" strategy mean;\n  scale \"c\" method standard;\n  model classifier decision_tree target \"y\";\n}",
        );
        let dag = StepDag::compile(&p);
        assert!(dag.nodes[0].deps.is_empty());
        assert!(dag.nodes[1].deps.is_empty());
        assert!(dag.nodes[2].deps.is_empty());
        // The model is a barrier: it depends on everything before it.
        assert_eq!(dag.nodes[3].deps, vec![0, 1, 2]);
        assert!(dag.nodes[3].barrier);
    }

    #[test]
    fn column_conflicts_create_edges() {
        let p = program(
            "pipeline {\n  impute \"a\" strategy mean;\n  scale \"a\" method standard;\n  encode \"a\" method onehot;\n  model classifier decision_tree target \"y\";\n}",
        );
        let dag = StepDag::compile(&p);
        assert_eq!(dag.nodes[1].deps, vec![0]); // scale a after impute a
        assert_eq!(dag.nodes[2].deps, vec![0, 1]); // encode a after both
    }

    #[test]
    fn encoder_prefixes_conflict_with_generated_consumers() {
        let p = program(
            "pipeline {\n  encode \"c\" method onehot;\n  impute \"c=red\" strategy mean;\n  model classifier decision_tree target \"y\";\n}",
        );
        let dag = StepDag::compile(&p);
        // Imputing a generated one-hot column depends on the encoder.
        assert_eq!(dag.nodes[1].deps, vec![0]);
    }

    #[test]
    fn wildcards_and_row_changers_are_barriers() {
        let p = program(
            "pipeline {\n  impute \"a\" strategy mean;\n  drop_null_rows;\n  impute \"b\" strategy mean;\n  model classifier decision_tree target \"y\";\n}",
        );
        let dag = StepDag::compile(&p);
        assert!(dag.nodes[1].barrier);
        assert_eq!(dag.nodes[1].deps, vec![0]);
        assert_eq!(dag.nodes[2].deps, vec![1]); // after the barrier only
    }

    #[test]
    fn validate_finds_missing_inputs_and_orders_topologically() {
        let p = program(
            "pipeline {\n  impute \"a\" strategy mean;\n  impute \"ghost\" strategy mean;\n  model classifier decision_tree target \"y\";\n}",
        );
        let dag = StepDag::compile(&p);
        let cols = vec!["a".to_string(), "y".to_string()];
        assert_eq!(
            dag.validate(&cols),
            Err(DagError::MissingInput { step: 1, column: "ghost".into() })
        );
        let ok = program(
            "pipeline {\n  impute \"a\" strategy mean;\n  model classifier decision_tree target \"y\";\n}",
        );
        let order = StepDag::compile(&ok).validate(&cols).unwrap();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn topo_order_rejects_cycles_and_dangling_deps() {
        assert_eq!(topo_order(&[vec![1], vec![0]]), Err(DagError::Cycle { nodes: vec![0, 1] }));
        assert_eq!(topo_order(&[vec![0]]), Err(DagError::Cycle { nodes: vec![0] }));
        assert_eq!(topo_order(&[vec![], vec![7]]), Err(DagError::DanglingDep { step: 1, dep: 7 }));
        assert_eq!(topo_order(&[vec![], vec![0], vec![0]]), Ok(vec![0, 1, 2]));
    }

    #[test]
    fn dag_json_export_names_nodes_and_edges() {
        let p = program(
            "pipeline {\n  impute \"a\" strategy mean;\n  model classifier decision_tree target \"y\";\n}",
        );
        let json = StepDag::compile(&p).to_json();
        assert!(json.contains("\"op\":\"impute\""), "{json}");
        assert!(json.contains("\"barrier\":true"), "{json}");
        assert!(json.contains("\"deps\":[0]"), "{json}");
    }

    #[test]
    fn colset_prefix_intersections() {
        let enc = ColSet { names: vec!["c".into()], prefixes: vec!["c=".into()], wildcard: false };
        assert!(enc.contains("c=red"));
        assert!(!enc.contains("cx"));
        assert!(enc.intersects(&ColSet::one("c=blue")));
        assert!(!enc.intersects(&ColSet::one("d")));
        assert!(enc.intersects(&ColSet::all()));
        assert!(!ColSet::default().intersects(&ColSet::all()));
    }
}
