//! Instrumentation that lives in the benchmark, not in the crates: a
//! metering `LanguageModel` wrapper, benchmark-side spans around the
//! calls into each layer, and the interval arithmetic that turns a run's
//! spans into per-layer self times.

use catdb_llm::{Completion, LanguageModel, LlmError, Prompt};
use catdb_trace::{Trace, TraceSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Benchmark span around one upstream LLM call.
pub const SPAN_LLM: &str = "bench.llm";
/// Benchmark span around one `read_csv_path` call.
pub const SPAN_READ_CSV: &str = "bench.read_csv";
/// Benchmark span around `catdb_collect`.
pub const SPAN_COLLECT: &str = "bench.collect";
/// Benchmark span around `catdb_pipgen`.
pub const SPAN_PIPGEN: &str = "bench.pipgen";
/// Benchmark span around one whole operation (one run or one table).
pub const SPAN_OP: &str = "bench.op";

/// Upstream LLM traffic seen by a [`MeteredLlm`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LlmTally {
    /// Completions served (failed calls bill nothing and count only in
    /// `busy_seconds`).
    pub calls: u64,
    pub prompt_tokens: u64,
    pub completion_tokens: u64,
    /// Simulated latency the backend reported (never slept).
    pub sim_seconds: f64,
    /// Wall time spent inside the backend's `complete`.
    pub busy_seconds: f64,
}

impl LlmTally {
    /// Tokens billed upstream. The wrapper sits below the scheduler, so
    /// cache hits never reach it and bill nothing.
    pub fn billed_tokens(&self) -> u64 {
        self.prompt_tokens + self.completion_tokens
    }

    pub fn add(&mut self, other: &LlmTally) {
        self.calls += other.calls;
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
        self.sim_seconds += other.sim_seconds;
        self.busy_seconds += other.busy_seconds;
    }
}

/// Forwards every call to `inner` unchanged — `model_for` included, so
/// completion-cache keys are the ones the bare backend would produce —
/// while counting billed traffic and, when given a sink, recording a
/// [`SPAN_LLM`] span per call. The span goes straight to the benchmark's
/// sink: the scheduler runs upstream calls under a capture sink that
/// forwards events and counters but not spans.
pub struct MeteredLlm<'a> {
    inner: &'a dyn LanguageModel,
    sink: Option<Arc<TraceSink>>,
    tally: Mutex<LlmTally>,
}

impl<'a> MeteredLlm<'a> {
    pub fn new(inner: &'a dyn LanguageModel, sink: Option<Arc<TraceSink>>) -> MeteredLlm<'a> {
        MeteredLlm { inner, sink, tally: Mutex::new(LlmTally::default()) }
    }

    pub fn tally(&self) -> LlmTally {
        *self.tally.lock().expect("tally lock is never held across a panic")
    }
}

impl LanguageModel for MeteredLlm<'_> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn model_for(&self, prompt: &Prompt) -> &str {
        self.inner.model_for(prompt)
    }

    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        let span = self.sink.as_ref().map(|s| s.begin_span(SPAN_LLM));
        let started = Instant::now();
        let result = self.inner.complete(prompt);
        let busy = started.elapsed().as_secs_f64();
        if let (Some(sink), Some(id)) = (&self.sink, span) {
            sink.end_span(id);
        }
        let mut t = self.tally.lock().expect("tally lock is never held across a panic");
        t.busy_seconds += busy;
        if let Ok(c) = &result {
            t.calls += 1;
            t.prompt_tokens += c.usage.input as u64;
            t.completion_tokens += c.usage.output as u64;
            t.sim_seconds += c.latency_seconds;
        }
        result
    }
}

/// A set of disjoint, sorted `[start, end)` intervals in trace micros.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Intervals(Vec<(u64, u64)>);

impl Intervals {
    /// The union of every closed span named `name`.
    pub fn of(trace: &Trace, name: &str) -> Intervals {
        let mut v: Vec<(u64, u64)> = trace
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end_micros.map(|e| (s.start_micros, e)))
            .collect();
        v.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(v.len());
        for (s, e) in v {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        Intervals(merged)
    }

    pub fn micros(&self) -> u64 {
        self.0.iter().map(|(s, e)| e - s).sum()
    }

    /// `self` with every part covered by `other` removed.
    pub fn minus(&self, other: &Intervals) -> Intervals {
        let mut out = Vec::new();
        let mut j = 0;
        for &(mut s, e) in &self.0 {
            while j < other.0.len() && other.0[j].1 <= s {
                j += 1;
            }
            let mut k = j;
            while k < other.0.len() && other.0[k].0 < e {
                let (os, oe) = other.0[k];
                if os > s {
                    out.push((s, os));
                }
                s = s.max(oe);
                k += 1;
            }
            if s < e {
                out.push((s, e));
            }
        }
        Intervals(out)
    }
}

/// Self time per layer of one traced operation, in microseconds. Each
/// layer's time excludes the layers it calls, so the parts add up to the
/// operation's wall time up to [`Breakdown::unattributed`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    pub wall: u64,
    /// `read_csv_path`.
    pub table: u64,
    /// `profile_table`, wherever it is called from.
    pub profiler: u64,
    /// `catdb_collect` less profiling and LLM calls: the multi-table
    /// join and `refine_dataset`'s own work.
    pub catalog: u64,
    /// Upstream LLM calls (the metered backend).
    pub llm: u64,
    /// `execute_pipeline`, which holds every model fit.
    pub pipeline_ml: u64,
    /// `catdb_pipgen` less execution and LLM calls: the split and the
    /// Algorithm-4 loop's own work (prompts, parsing, scheduling).
    pub core: u64,
    // Sub-measures reported next to the breakdown.
    pub refine_self: u64,
    pub generate_self: u64,
}

impl Breakdown {
    pub fn of(trace: &Trace) -> Breakdown {
        let op = Intervals::of(trace, SPAN_OP);
        let llm = Intervals::of(trace, SPAN_LLM);
        let profile = Intervals::of(trace, "profile_table");
        let execute = Intervals::of(trace, "execute_pipeline");
        let collect = Intervals::of(trace, SPAN_COLLECT);
        let layer = |name: &str| Intervals::of(trace, name).minus(&llm);
        Breakdown {
            wall: op.micros(),
            table: layer(SPAN_READ_CSV).micros(),
            profiler: profile.minus(&llm).micros(),
            catalog: collect.minus(&profile).minus(&llm).micros(),
            llm: llm.micros(),
            pipeline_ml: execute.minus(&llm).micros(),
            core: layer(SPAN_PIPGEN).minus(&execute).micros(),
            refine_self: layer("refine_dataset").minus(&profile).micros(),
            generate_self: layer("generate_pipeline").minus(&execute).micros(),
        }
    }

    pub fn attributed(&self) -> u64 {
        self.table + self.profiler + self.catalog + self.llm + self.pipeline_ml + self.core
    }

    pub fn unattributed(&self) -> u64 {
        self.wall.saturating_sub(self.attributed())
    }

    pub fn add(&mut self, o: &Breakdown) {
        self.wall += o.wall;
        self.table += o.table;
        self.profiler += o.profiler;
        self.catalog += o.catalog;
        self.llm += o.llm;
        self.pipeline_ml += o.pipeline_ml;
        self.core += o.core;
        self.refine_self += o.refine_self;
        self.generate_self += o.generate_self;
    }

    /// `(layer, self micros)` rows in call order.
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("table", self.table),
            ("catalog", self.catalog),
            ("profiler", self.profiler),
            ("llm", self.llm),
            ("core", self.core),
            ("pipeline+ml", self.pipeline_ml),
            ("unattributed", self.unattributed()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(v: &[(u64, u64)]) -> Intervals {
        Intervals(v.to_vec())
    }

    #[test]
    fn minus_cuts_holes_and_edges() {
        let a = iv(&[(0, 10), (20, 30)]);
        assert_eq!(a.minus(&iv(&[(2, 4), (8, 22)])), iv(&[(0, 2), (4, 8), (22, 30)]));
        assert_eq!(a.minus(&iv(&[])), a);
        assert_eq!(a.minus(&iv(&[(0, 40)])), iv(&[]));
        assert_eq!(a.minus(&iv(&[(10, 20)])), a);
    }

    #[test]
    fn nested_spans_give_self_times_that_sum_to_wall() {
        let sink = TraceSink::new();
        let op = sink.begin_span(SPAN_OP);
        let read = sink.begin_span(SPAN_READ_CSV);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.end_span(read);
        let collect = sink.begin_span(SPAN_COLLECT);
        let profile = sink.begin_span("profile_table");
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.end_span(profile);
        let llm = sink.begin_span(SPAN_LLM);
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.end_span(llm);
        sink.end_span(collect);
        sink.end_span(op);
        let b = Breakdown::of(&sink.snapshot());
        assert!(b.table >= 2_000 && b.profiler >= 2_000 && b.llm >= 2_000, "{b:?}");
        assert_eq!(b.attributed() + b.unattributed(), b.wall);
        assert!(b.catalog < b.profiler, "profiling must not count as catalog time: {b:?}");
    }
}
