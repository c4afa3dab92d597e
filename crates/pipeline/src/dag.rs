//! Dependency-DAG compilation and parallel execution of pipeline
//! programs.
//!
//! A generated [`Program`] is textually linear, but most of its cleaning
//! and feature-engineering steps touch disjoint columns. [`StepDag`]
//! makes the real dependency structure explicit — each step declares the
//! column sets it reads and writes, edges are inferred from read/write
//! conflicts, and whole-table steps (wildcards, row-count changers, the
//! model) become barriers — and [`execute`] schedules antichains of
//! ready steps concurrently on `catdb-runtime`.
//!
//! # Determinism
//!
//! Execution is observationally the strict source-order interpretation
//! of the program, at any `CATDB_THREADS`:
//!
//! * steps in a wave run against an immutable snapshot of the current
//!   tables and return only their *column diff* (the write set they
//!   replaced, dropped, or appended);
//! * diffs are merged back in step-index order. Every operator either
//!   replaces columns in place or appends generated columns at the end,
//!   and appending steps depend on one another, so columns land in
//!   source order;
//! * `PipelineOp` trace events and memory checks happen at merge time,
//!   and events are emitted in step-index order;
//! * on failure, only the steps before the failing one keep running, so
//!   the reported error is the one the smallest-index failing step
//!   raises — the error source-order interpretation meets first.
//!
//! Memory-limit checks run on the merged state, which may already hold
//! independent later steps, so under a memory limit the failing step can
//! differ from source order.

use crate::ast::{ColumnRef, EncodeSpec, Program, Step};
use crate::environment::Environment;
use crate::errors::{ErrorKind, PipelineError};
use crate::executor::{
    apply_step, check_memory, finish_evaluation, resolve_imports, step_label, step_line,
    Evaluation, ExecutionConfig, TaskMetrics,
};
use catdb_table::{Column, Schema, Table};
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

/// Trace counter: waves (antichains) the DAG scheduler executed.
pub const COUNTER_DAG_WAVES: &str = "dag.waves";
/// Span wrapping one pipeline execution.
pub const SPAN_EXECUTE_PIPELINE: &str = "execute_pipeline";

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
    /// `i < j` when either is a barrier, their column sets conflict
    /// (write-read, write-write, or read-write on any shared column), or
    /// both append generated columns (only encoders write prefixes), so
    /// appended columns keep source order.
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
                    || (!wi.prefixes.is_empty() && !writes.prefixes.is_empty())
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
}

/// Column-level difference one local step applied to one table.
#[derive(Default)]
struct TableDiff {
    /// Columns replaced in place (possibly with a new dtype).
    replaced: Vec<(String, Column)>,
    /// Columns removed.
    dropped: Vec<String>,
    /// Columns appended at the end, in append order.
    appended: Vec<(String, Column)>,
}

struct StepDiff {
    train: TableDiff,
    test: TableDiff,
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

/// Diff a local step's finished projection against the schema it started
/// from, moving the written columns out of it. `writes` bounds the
/// in-place replacements; appends and drops are observed directly from
/// the schemas.
fn table_diff(pre: &Schema, post: Table, writes: &ColSet) -> TableDiff {
    let mut diff = TableDiff::default();
    for name in pre.names() {
        if !post.schema().contains(name) {
            diff.dropped.push(name.to_string());
        }
    }
    for (name, col) in post.into_columns() {
        if !pre.contains(&name) {
            diff.appended.push((name, col));
        } else if writes.contains(&name) {
            diff.replaced.push((name, col));
        }
    }
    diff
}

/// Apply a merged diff to the authoritative table. Failures map exactly
/// like the interpreter's table errors.
fn apply_table_diff(table: &mut Table, diff: TableDiff, line: usize) -> Result<(), PipelineError> {
    let map = |e: catdb_table::TableError| {
        PipelineError::new(ErrorKind::ColumnNotFound, e.to_string()).at_line(line)
    };
    for (name, col) in diff.replaced {
        table.replace_column(&name, col).map_err(map)?;
    }
    for name in &diff.dropped {
        table.drop_column(name).map_err(map)?;
    }
    for (name, col) in diff.appended {
        table.add_column(name, col).map_err(map)?;
    }
    Ok(())
}

/// A step's `PipelineOp` payload, captured at merge time but emitted
/// only once every earlier step has also merged — so the event stream
/// is in step-index order at any thread count.
struct PendingOp {
    op: &'static str,
    rows_in: usize,
    rows_out: usize,
    micros: u64,
}

/// What a run has built so far: the tables, the model result once
/// trained, and the `PipelineOp` payloads of merged steps.
struct State {
    train: Table,
    test: Table,
    model: Option<(TaskMetrics, TaskMetrics, usize)>,
    pending: Vec<Option<PendingOp>>,
}

impl State {
    /// Record step `idx`'s `PipelineOp` payload, then run the post-step
    /// memory check. The interpreter emits before checking, so a step
    /// that fails the check still has its event in the stream.
    fn record(
        &mut self,
        idx: usize,
        step: &Step,
        rows_in: usize,
        micros: u64,
        cfg: &ExecutionConfig,
    ) -> Result<(), PipelineError> {
        let rows_out = self.train.n_rows();
        self.pending[idx] = Some(PendingOp { op: step_label(step), rows_in, rows_out, micros });
        check_memory(&self.train, &self.test, cfg, step_line(idx))
    }
}

/// Execute a program by scheduling antichains of its dependency DAG on
/// the shared runtime pool. See the module docs for the determinism
/// contract.
pub fn execute(
    program: &Program,
    train: &Table,
    test: &Table,
    env: &Environment,
    cfg: &ExecutionConfig,
) -> Result<Evaluation, PipelineError> {
    let _span = catdb_trace::span(SPAN_EXECUTE_PIPELINE);
    let started = Instant::now();
    let target = program.model().map(|m| m.target.clone());
    resolve_imports(program, env)?;

    let dag = StepDag::compile(program);
    let n = dag.nodes.len();
    let pending = (0..n).map(|_| None).collect();
    let mut state = State { train: train.clone(), test: test.clone(), model: None, pending };
    let mut done = vec![false; n];
    let mut failure: Option<(usize, PipelineError)> = None;
    let mut waves = 0u64;
    let mut next_emit = 0usize;

    loop {
        // After a failure only earlier steps still matter: one of them
        // may fail too, and the smallest failing index wins.
        let limit = failure.as_ref().map_or(n, |(idx, _)| *idx);
        let wave: Vec<usize> = (0..limit)
            .filter(|&i| !done[i] && dag.nodes[i].deps.iter().all(|&d| done[d]))
            .collect();
        if wave.is_empty() {
            break;
        }
        waves += 1;
        let result = if let &[idx] = wave.as_slice() {
            run_singleton(idx, program, &mut state, cfg, target.as_deref()).map_err(|e| (idx, e))
        } else {
            // A barrier's dependents cover every other step, so barriers
            // only ever surface in singleton waves.
            debug_assert!(wave.iter().all(|&i| !dag.nodes[i].barrier));
            run_wave(&dag, &wave, program, &mut state, cfg, target.as_deref())
        };
        for &i in &wave {
            done[i] = true;
        }
        if let Err(failed) = result {
            failure = Some(failed);
        }
        // Emit every step whose predecessors have all merged: waves
        // complete out of step order, the event stream must not. Nothing
        // past a failing step is emitted.
        let last = failure.as_ref().map_or(n, |(idx, _)| *idx + 1);
        while next_emit < last {
            let Some(op) = state.pending[next_emit].take() else { break };
            catdb_trace::emit(catdb_trace::TraceEvent::PipelineOp {
                op: op.op.to_string(),
                rows_in: op.rows_in,
                rows_out: op.rows_out,
                micros: op.micros,
            });
            next_emit += 1;
        }
    }
    catdb_trace::add_counter(COUNTER_DAG_WAVES, waves as f64);
    if let Some((_, e)) = failure {
        return Err(e);
    }
    debug_assert!(done.iter().all(|&d| d), "acyclic by construction");
    finish_evaluation(program, &state.train, &state.test, cfg, state.model, started)
}

/// Execute a singleton wave (barriers, models, or a lone local step)
/// in place on the authoritative tables.
fn run_singleton(
    idx: usize,
    program: &Program,
    state: &mut State,
    cfg: &ExecutionConfig,
    target: Option<&str>,
) -> Result<(), PipelineError> {
    let started = Instant::now();
    let rows_in = state.train.n_rows();
    let step = &program.steps[idx];
    let seen = state.model.is_some();
    let line = step_line(idx);
    if let Some(model) =
        apply_step(step, line, &mut state.train, &mut state.test, cfg, target, seen)?
    {
        state.model = Some(model);
    }
    state.record(idx, step, rows_in, started.elapsed().as_micros() as u64, cfg)
}

/// Execute an antichain of local steps concurrently against an immutable
/// snapshot, then merge their column diffs in step-index order. The
/// first failure in that order stops the merge.
fn run_wave(
    dag: &StepDag,
    wave: &[usize],
    program: &Program,
    state: &mut State,
    cfg: &ExecutionConfig,
    target: Option<&str>,
) -> Result<(), (usize, PipelineError)> {
    let (snapshot_train, snapshot_test) = (&state.train, &state.test);
    let outs: Vec<(u64, Result<StepDiff, PipelineError>)> =
        catdb_runtime::parallel_map(catdb_runtime::pool_size(), wave, |_, &idx| {
            let node = &dag.nodes[idx];
            let started = Instant::now();
            let mut train = project(snapshot_train, &node.reads, &node.writes);
            let mut test = project(snapshot_test, &node.reads, &node.writes);
            let (pre_train, pre_test) = (train.schema().clone(), test.schema().clone());
            let step = &program.steps[idx];
            let diff = apply_step(step, step_line(idx), &mut train, &mut test, cfg, target, false)
                .map(|_| StepDiff {
                    train: table_diff(&pre_train, train, &node.writes),
                    test: table_diff(&pre_test, test, &node.writes),
                });
            (started.elapsed().as_micros() as u64, diff)
        });

    for (&idx, (micros, diff)) in wave.iter().zip(outs) {
        let merge = |state: &mut State| -> Result<(), PipelineError> {
            let line = step_line(idx);
            let rows_in = state.train.n_rows();
            let diff = diff?;
            apply_table_diff(&mut state.train, diff.train, line)?;
            apply_table_diff(&mut state.test, diff.test, line)?;
            // An encoder checks memory inside the step; here it only
            // saw its projection, so check the merged state.
            let step = &program.steps[idx];
            if matches!(step, Step::Encode { .. }) {
                check_memory(&state.train, &state.test, cfg, line)?;
            }
            state.record(idx, step, rows_in, micros, cfg)
        };
        merge(state).map_err(|e| (idx, e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use catdb_ml::TaskKind;
    use catdb_table::Column;

    fn program(src: &str) -> Program {
        parse(src).unwrap()
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
            "pipeline {\n  encode \"c\" method onehot;\n  impute \"c=red\" strategy mean;\n  encode \"d\" method hash buckets 4;\n  encode \"e\" method ordinal;\n  model classifier decision_tree target \"y\";\n}",
        );
        let dag = StepDag::compile(&p);
        // Imputing a generated one-hot column depends on the encoder.
        assert_eq!(dag.nodes[1].deps, vec![0]);
        // Appending encoders keep source order; in-place ones need not.
        assert_eq!(dag.nodes[2].deps, vec![0]);
        assert!(dag.nodes[3].deps.is_empty());
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

    /// Program text for one draw: `(op, column)` pairs become named
    /// impute/scale/encode/drop steps on columns of a fitting type (an
    /// impute-then-encode pair gives an appending encoder a dependency),
    /// or barriers; `flags` may turn a seventh of the named steps to a
    /// hallucinated column and add a cleanup tail and a second model.
    fn oracle_program(steps: &[(usize, usize)], flags: (usize, usize, usize)) -> String {
        let num = ["n0", "n1"];
        let txt = ["s0", "s1", "s2", "s3", "s4", "s5"];
        let any = ["n0", "n1", "s0", "s1", "s2", "s3", "s4", "s5"];
        let barriers =
            ["impute * strategy most_frequent", "drop_null_rows", "encode * method onehot"];
        let mut src = String::from("pipeline {\n");
        for &(op, col) in steps {
            let pick = |pool: &[&'static str]| match col {
                6 if flags.0 == 0 => "ghost",
                _ => pool[col % pool.len()],
            };
            let step = match op {
                0 => format!("impute \"{}\" strategy mean", pick(&num)),
                1 => format!("impute \"{}\" strategy most_frequent", pick(&txt)),
                2 => format!("scale \"{}\" method standard", pick(&num)),
                3 => format!("scale \"{}\" method minmax", pick(&num)),
                4 => format!("encode \"{}\" method onehot", pick(&txt)),
                5 => format!("encode \"{}\" method ordinal", pick(&txt)),
                6 => format!("encode \"{}\" method hash buckets 4", pick(&txt)),
                7 => format!("drop \"{}\"", pick(&any)),
                8 => format!(
                    "impute \"{0}\" strategy most_frequent;\n  encode \"{0}\" method onehot",
                    pick(&txt)
                ),
                _ => barriers[col % barriers.len()].to_string(),
            };
            src += &format!("  {step};\n");
        }
        if flags.1 == 0 {
            src += "  impute * strategy mean;\n  impute * strategy most_frequent;\n  encode * method ordinal;\n";
        }
        src += "  model classifier random_forest target \"y\" trees 6 depth 4;\n";
        if flags.2 == 0 {
            src += "  model classifier decision_tree target \"y\";\n";
        }
        src + "}"
    }

    /// Two numeric and six string columns, every other one with gaps,
    /// and a binary target.
    fn oracle_tables() -> (Table, Table) {
        let n = 90;
        let cell = |k: usize, i: usize| {
            (k.is_multiple_of(2) || !(i + k).is_multiple_of(7)).then_some((i * k + i) % 11)
        };
        let mut columns: Vec<(String, Column)> = (0..8)
            .map(|k| {
                let cells = (0..n).map(move |i| cell(k, i));
                match k {
                    0 | 1 => (
                        format!("n{k}"),
                        Column::Float(cells.map(|c| c.map(|v| v as f64 - 4.0)).collect()),
                    ),
                    _ => (
                        format!("s{}", k - 2),
                        Column::Str(cells.map(|c| c.map(|v| format!("v{}", v % 4))).collect()),
                    ),
                }
            })
            .collect();
        let y: Vec<&str> = (0..n).map(|i| if (i * 13) % 17 < 8 { "n" } else { "p" }).collect();
        columns.push(("y".into(), Column::from_strings(y)));
        Table::from_columns(columns).unwrap().train_test_split(0.7, 0).unwrap()
    }

    /// The run's outcome — the evaluation with wall-clock zeroed, or the
    /// error's kind, line and message — and its `PipelineOp` stream
    /// without timings.
    fn traced(run: impl FnOnce() -> Result<Evaluation, PipelineError>) -> (String, Vec<String>) {
        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        let guard = catdb_trace::install(sink.clone());
        let outcome = run().map(|e| Evaluation { elapsed_seconds: 0.0, ..e });
        drop(guard);
        let ops = sink.snapshot().events_modulo_timing().into_iter().filter_map(|e| match e {
            catdb_trace::TraceEvent::PipelineOp { op, rows_in, rows_out, .. } => {
                Some(format!("{op} {rows_in}->{rows_out}"))
            }
            _ => None,
        });
        (format!("{:?}", outcome.map_err(|e| (e.kind, e.line, e.message))), ops.collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The scheduler is observationally the sequential interpreter:
        /// same evaluation, same first error, same `PipelineOp` stream.
        #[test]
        fn scheduler_matches_sequential_oracle(
            steps in proptest::collection::vec((0usize..10, 0usize..7), 1..14),
            flags in (0usize..3, 0usize..2, 0usize..6),
        ) {
            let src = oracle_program(&steps, flags);
            let program = parse(&src).unwrap();
            let (train, test) = oracle_tables();
            let (env, cfg) = (Environment::default(), ExecutionConfig::new(TaskKind::BinaryClassification));
            let oracle = traced(|| crate::executor::execute_seq(&program, &train, &test, &env, &cfg));
            let scheduled = traced(|| execute(&program, &train, &test, &env, &cfg));
            proptest::prop_assert_eq!(oracle, scheduled, "program:\n{}", src);
        }
    }
}
