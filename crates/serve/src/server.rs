//! The `catdb serve` daemon: a long-running, multi-tenant pipeline-
//! generation server.
//!
//! One [`Server`] owns the process-wide shared state every request
//! multiplexes over:
//!
//! * one [`CompletionCache`] (optionally disk-backed) consumed by a
//!   per-request [`catdb_sched::LlmScheduler`] — identical prompts
//!   across tenants, requests, and passes are served zero-billed;
//! * the `catdb-runtime` worker pool and the `profile_table` /
//!   `ValueDict` memos (process-global by construction, so concurrent
//!   requests share them for free);
//! * one [`AdmissionController`] enforcing per-tenant token budgets and
//!   the bounded in-flight limit.
//!
//! Each connection carries one request. The handler admits it (or
//! answers with a structured [`RetryAfter`]), runs the one-shot
//! `catdb run` path ([`catdb_core::RunSpec::run`]: collect → refine →
//! generate → validate) over the shared stack, streams `catdb-trace` events back as
//! [`ServerFrame::Progress`] when asked to, charges the tenant with the
//! request's *measured* token usage, and answers with a terminal
//! [`ServerFrame`].
//!
//! Shutdown ordering: the accept loop stops first, in-flight requests
//! drain (their permits release), and only then does `serve_tcp` return;
//! the completion cache needs no flush (insertions are write-through).

use crate::admission::{AdmissionController, AdmissionOptions, Clock, WallClock};
use crate::protocol::{
    dataset_name, read_frame, write_frame, ClientFrame, DatasetSpec, GenerateRequest,
    GenerateResponse, RetryAfter, ServerFrame, WireError,
};
use crate::transport::{duplex, DuplexStream};
use catdb_catalog::MultiTableDataset;
use catdb_core::measured_cost;
use catdb_llm::Transport;
use catdb_ml::TaskKind;
use catdb_sched::CompletionCache;
use catdb_table::{read_csv_path, read_csv_str, CsvOptions};
use catdb_trace::TraceSink;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Span wrapping the handling of one admitted request.
pub const SPAN_SERVE_REQUEST: &str = "serve_request";

/// A reusable open/closed latch. Test hook: when [`ServeOptions::gate`]
/// is set, every admitted request parks here before doing any work, so
/// tests can hold slots occupied deterministically.
pub struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    pub fn closed() -> Arc<Gate> {
        Arc::new(Gate { open: Mutex::new(false), opened: Condvar::new() })
    }

    pub fn open(&self) {
        *self.open.lock() = true;
        self.opened.notify_all();
    }

    pub fn wait(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.opened.wait(&mut open);
        }
    }
}

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeOptions {
    pub admission: AdmissionOptions,
    /// Completion-cache entries held resident.
    pub cache_capacity: usize,
    /// JSON-lines file backing the completion cache across restarts.
    pub cache_path: Option<PathBuf>,
    /// In-flight LLM fan-out per request (`--llm-concurrency`).
    pub llm_concurrency: usize,
    /// Fault injection and retries for request LLM stacks.
    pub transport: Transport,
    /// When set, a [`ClientFrame::Shutdown`] with this token stops the
    /// daemon; without it remote shutdown is refused.
    pub shutdown_token: Option<String>,
    /// Test hook: admitted requests wait on this gate before working.
    pub gate: Option<Arc<Gate>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            admission: AdmissionOptions::default(),
            cache_capacity: 4096,
            cache_path: None,
            llm_concurrency: catdb_sched::DEFAULT_LLM_CONCURRENCY,
            transport: Transport::default(),
            shutdown_token: None,
            gate: None,
        }
    }
}

struct ServerInner {
    opts: ServeOptions,
    cache: Arc<CompletionCache>,
    admission: AdmissionController,
    stop: AtomicBool,
}

/// The daemon. Cheap to clone; all clones share one cache, admission
/// controller, and stop flag.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    pub fn new(opts: ServeOptions) -> Server {
        Server::with_clock(opts, Arc::new(WallClock::default()))
    }

    /// Build with an injected clock (deterministic budget tests).
    pub fn with_clock(opts: ServeOptions, clock: Arc<dyn Clock>) -> Server {
        let cache = Arc::new(match &opts.cache_path {
            Some(path) => CompletionCache::persistent(path, opts.cache_capacity),
            None => CompletionCache::new(opts.cache_capacity),
        });
        let admission = AdmissionController::new(opts.admission.clone(), clock);
        Server {
            inner: Arc::new(ServerInner { opts, cache, admission, stop: AtomicBool::new(false) }),
        }
    }

    pub fn cache(&self) -> &Arc<CompletionCache> {
        &self.inner.cache
    }

    pub fn admission(&self) -> &AdmissionController {
        &self.inner.admission
    }

    /// Ask the accept loop to stop (idempotent).
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Serve one connection carrying one exchange. Generic over the
    /// byte stream: `TcpStream` in production, [`DuplexStream`] in
    /// tests and benches — the identical code path either way.
    pub fn handle_connection<S: Read + Write + Send + 'static>(
        &self,
        stream: S,
    ) -> Result<(), WireError> {
        let stream = Arc::new(Mutex::new(stream));
        let frame: ClientFrame = {
            let mut s = stream.lock();
            read_frame(&mut *s)?
        };
        let reply = |frame: &ServerFrame| -> Result<(), WireError> {
            let mut s = stream.lock();
            write_frame(&mut *s, frame)
        };
        match frame {
            ClientFrame::Shutdown { token } => {
                let authorized = self.inner.opts.shutdown_token.as_deref() == Some(token.as_str())
                    && self.inner.opts.shutdown_token.is_some();
                if authorized {
                    self.stop();
                    reply(&ServerFrame::ShutdownAck)
                } else {
                    reply(&ServerFrame::Error { message: "shutdown refused: bad token".into() })
                }
            }
            ClientFrame::Submit(req) => {
                let permit = match self.inner.admission.admit(&req.tenant) {
                    Ok(permit) => permit,
                    Err(shed) => {
                        return reply(&ServerFrame::Rejected(RetryAfter {
                            reason: shed.reason.code().to_string(),
                            retry_after_seconds: shed.retry_after_seconds,
                            tenant: req.tenant.clone(),
                        }));
                    }
                };
                if let Some(gate) = &self.inner.opts.gate {
                    gate.wait();
                }
                // Per-request trace sink; with streaming on, an observer
                // forwards each event to the client as it is recorded.
                let sink = if req.stream {
                    let writer = stream.clone();
                    Arc::new(TraceSink::with_observer(move |record| {
                        let frame =
                            ServerFrame::Progress { seq: record.seq, event: record.event.clone() };
                        // Streaming is best effort: a slow or gone client
                        // must not fail the request itself.
                        let mut s = writer.lock();
                        let _ = write_frame(&mut *s, &frame);
                    }))
                } else {
                    Arc::new(TraceSink::new())
                };
                // A panicking request answers with an error frame; the
                // daemon and the request's admission slot survive it.
                let outcome = catch_unwind(AssertUnwindSafe(|| self.run_request(&req, &sink)))
                    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
                let terminal = match outcome {
                    Ok(mut response) => {
                        permit.charge(response.billed_tokens as f64);
                        response.tenant_charged_tokens =
                            self.inner.admission.charged_total(&req.tenant) as u64;
                        ServerFrame::Done(response)
                    }
                    Err(message) => ServerFrame::Error { message },
                };
                drop(permit);
                reply(&terminal)
            }
        }
    }

    /// Spawn-per-connection in-process client: returns the client end of
    /// a duplex pipe whose other end this server is handling.
    pub fn connect_in_proc(&self) -> DuplexStream {
        let (client, server_end) = duplex();
        let server = self.clone();
        std::thread::spawn(move || {
            let _ = server.handle_connection(server_end);
        });
        client
    }

    /// Accept TCP connections until [`stop`](Self::stop) (e.g. via an
    /// authorized Shutdown frame), then drain in-flight requests.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            if self.stopping() {
                break;
            }
            match listener.accept() {
                Ok((socket, _peer)) => {
                    socket.set_nonblocking(false)?;
                    let server = self.clone();
                    std::thread::spawn(move || {
                        let _ = server.handle_connection(socket);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        // Shutdown ordering: no new connections above, now drain.
        self.inner.admission.wait_idle();
        Ok(())
    }

    /// Resolve the request's dataset into `(dataset, target, task)`;
    /// `task` is the request's parsed task, if it named one.
    fn resolve_dataset(
        req: &GenerateRequest,
        task: Option<TaskKind>,
    ) -> Result<(MultiTableDataset, String, TaskKind), String> {
        let csv_target_and_task = || -> Result<(String, TaskKind), String> {
            let target = req.target.clone().ok_or("csv datasets require an explicit target")?;
            Ok((target, task.ok_or("csv datasets require a task")?))
        };
        match &req.dataset {
            DatasetSpec::Builtin { name, rows, seed } => {
                if *rows == 0 {
                    return Err("builtin datasets need at least one row".to_string());
                }
                let g = catdb_data::generate(
                    name,
                    &catdb_data::GenOptions { max_rows: *rows, scale: 1.0, seed: *seed },
                )
                .ok_or_else(|| format!("unknown builtin dataset '{name}'"))?;
                let target = req.target.clone().unwrap_or(g.target);
                Ok((g.dataset, target, task.unwrap_or(g.task)))
            }
            DatasetSpec::CsvPath { path } => {
                let table = read_csv_path(path, &CsvOptions::default())
                    .map_err(|e| format!("failed to read {path}: {e}"))?;
                let (target, task) = csv_target_and_task()?;
                Ok((MultiTableDataset::single(dataset_name(path), table), target, task))
            }
            DatasetSpec::CsvInline { name, text } => {
                let table = read_csv_str(text, &CsvOptions::default())
                    .map_err(|e| format!("failed to parse inline csv: {e}"))?;
                let (target, task) = csv_target_and_task()?;
                Ok((MultiTableDataset::single(name.clone(), table), target, task))
            }
        }
    }

    /// Execute one admitted request: the one-shot `catdb run` path, with
    /// the daemon's shared cache underneath every LLM call (collection
    /// and refinement included).
    fn run_request(
        &self,
        req: &GenerateRequest,
        sink: &Arc<TraceSink>,
    ) -> Result<GenerateResponse, String> {
        let _guard = catdb_trace::install(sink.clone());
        let _span = catdb_trace::span(SPAN_SERVE_REQUEST);
        #[cfg(test)]
        if req.tenant == tests::PANIC_TENANT {
            panic!("injected panic for tenant {}", req.tenant);
        }
        let opts = &self.inner.opts;
        let (spec, task) = req.to_spec(&opts.transport, opts.llm_concurrency)?;
        let (dataset, target, task) = Self::resolve_dataset(req, task)?;
        let run = spec
            .run(&dataset, &target, task, Some(self.inner.cache.clone()))
            .map_err(|e| e.to_string())?;

        let measured = measured_cost(&sink.snapshot());
        let outcome = &run.result.results;
        Ok(GenerateResponse {
            pipeline: run.result.code.clone(),
            success: outcome.success,
            handcrafted: outcome.handcrafted,
            attempts: outcome.attempts,
            train_metric: outcome.evaluation.as_ref().map(|e| format!("{:?}", e.train)),
            test_metric: outcome.evaluation.as_ref().map(|e| format!("{:?}", e.test)),
            billed_tokens: measured.total_tokens(),
            llm_calls: measured.llm_calls,
            cache_hits: measured.cache_hits,
            cache_saved_tokens: measured.cache_saved_tokens,
            tenant_charged_tokens: 0, // stamped by the handler post-charge
        })
    }
}

/// The error message a panicked request answers with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("internal error: request panicked: {detail}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{shutdown, submit};
    use crate::protocol::GenerateRequest;

    /// Requests from this tenant panic inside `run_request`.
    pub(super) const PANIC_TENANT: &str = "panic-on-purpose";

    fn wifi_request(tenant: &str) -> GenerateRequest {
        GenerateRequest::new(
            tenant,
            DatasetSpec::Builtin { name: "wifi".into(), rows: 120, seed: 7 },
        )
    }

    #[test]
    fn in_proc_round_trip_generates_a_pipeline_and_bills_the_tenant() {
        let server = Server::new(ServeOptions::default());
        let mut stream = server.connect_in_proc();
        let outcome = submit(&mut stream, &wifi_request("acme"), |_, _| {}).unwrap();
        let resp = outcome.response().expect("request served");
        assert!(!resp.pipeline.is_empty());
        assert!(resp.billed_tokens > 0);
        assert_eq!(resp.tenant_charged_tokens, resp.billed_tokens as u64);
        assert!(server.admission().charged_total("acme") > 0.0);
    }

    #[test]
    fn streamed_requests_deliver_progress_frames_before_the_terminal() {
        let server = Server::new(ServeOptions::default());
        let mut stream = server.connect_in_proc();
        let mut req = wifi_request("acme");
        req.stream = true;
        let mut seen = 0usize;
        let outcome = submit(&mut stream, &req, |_, _| seen += 1).unwrap();
        assert!(outcome.response().is_some());
        assert!(seen > 0, "streaming request produced no progress frames");
    }

    #[test]
    fn warm_repeats_keep_hitting_the_profile_memo_past_its_old_64_entry_clear() {
        use catdb_profiler::{COUNTER_PROFILE_MEMO_HITS, COUNTER_PROFILE_MEMO_MISSES};
        // The memo used to drop every profile when it reached this many.
        const OLD_MEMO_CAP: f64 = 64.0;
        let server = Server::new(ServeOptions::default());
        let memo_lookups = |req: &GenerateRequest| {
            let sink = Arc::new(TraceSink::new());
            server.run_request(req, &sink).expect("request served");
            let counters = sink.snapshot().counters;
            let count = |name| counters.get(name).copied().unwrap_or(0.0);
            (count(COUNTER_PROFILE_MEMO_HITS), count(COUNTER_PROFILE_MEMO_MISSES))
        };
        let builtin = |rows, seed| {
            GenerateRequest::new("acme", DatasetSpec::Builtin { name: "wifi".into(), rows, seed })
        };
        let warm = builtin(96, 0x3a7e);
        memo_lookups(&warm);
        let (mut fresh_misses, mut seed) = (0.0, 0xf7e5);
        while fresh_misses <= OLD_MEMO_CAP {
            // Three fresh requests to one repeat, as in a warm daemon.
            for _ in 0..3 {
                fresh_misses += memo_lookups(&builtin(60, seed)).1;
                seed += 1;
            }
            let (hits, misses) = memo_lookups(&warm);
            assert!(hits > 0.0);
            assert_eq!(misses, 0.0, "the repeat after {fresh_misses} fresh profiles re-profiled");
        }
    }

    #[test]
    fn warm_cache_pass_is_zero_billed() {
        let server = Server::new(ServeOptions::default());
        let cold = {
            let mut s = server.connect_in_proc();
            submit(&mut s, &wifi_request("a"), |_, _| {}).unwrap()
        };
        let warm = {
            let mut s = server.connect_in_proc();
            submit(&mut s, &wifi_request("b"), |_, _| {}).unwrap()
        };
        let (cold, warm) = (cold.response().unwrap(), warm.response().unwrap());
        assert_eq!(cold.pipeline, warm.pipeline, "shared cache changed the pipeline");
        assert!(cold.billed_tokens > 0);
        assert_eq!(warm.billed_tokens, 0, "warm pass billed tokens: {}", warm.billed_tokens);
        assert!(warm.cache_hits >= cold.llm_calls);
    }

    #[test]
    fn routed_requests_serve_and_use_route_keyed_cache_entries() {
        let server = Server::new(ServeOptions::default());
        let mut req = wifi_request("acme");
        req.route = Some("refine=llama,fix=mini".into());
        let first = {
            let mut s = server.connect_in_proc();
            submit(&mut s, &req, |_, _| {}).unwrap()
        };
        let first = first.response().expect("routed request served");
        assert!(!first.pipeline.is_empty());
        assert!(first.billed_tokens > 0);
        // Same route again: fully warm.
        let warm = {
            let mut s = server.connect_in_proc();
            submit(&mut s, &req, |_, _| {}).unwrap()
        };
        assert_eq!(warm.response().unwrap().billed_tokens, 0);
        // A different route shares nothing for the re-routed roles, so
        // it must bill fresh upstream calls despite the warm cache.
        let mut rerouted = wifi_request("acme");
        rerouted.route = Some("refine=gemini,fix=mini".into());
        let rerouted = {
            let mut s = server.connect_in_proc();
            submit(&mut s, &rerouted, |_, _| {}).unwrap()
        };
        assert!(rerouted.response().unwrap().billed_tokens > 0);
    }

    #[test]
    fn bad_route_yields_a_structured_error_frame() {
        let server = Server::new(ServeOptions::default());
        let mut stream = server.connect_in_proc();
        let mut req = wifi_request("acme");
        req.route = Some("refine=claude".into());
        let outcome = submit(&mut stream, &req, |_, _| {}).unwrap();
        match outcome {
            crate::client::Outcome::Error(message) => {
                assert!(message.contains("unknown route model"), "{message}")
            }
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    #[test]
    fn unknown_model_yields_a_structured_error_frame() {
        let server = Server::new(ServeOptions::default());
        let mut stream = server.connect_in_proc();
        let mut req = wifi_request("acme");
        req.model = "gpt-nonexistent".into();
        let outcome = submit(&mut stream, &req, |_, _| {}).unwrap();
        match outcome {
            crate::client::Outcome::Error(message) => assert!(message.contains("unknown model")),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    #[test]
    fn a_binned_split_mode_gets_an_error_frame_and_the_daemon_keeps_serving() {
        let server = Server::new(ServeOptions::default());
        let mut stream = server.connect_in_proc();
        let mut req = wifi_request("acme");
        req.split_mode = Some("binned:128".into());
        match submit(&mut stream, &req, |_, _| {}).unwrap() {
            crate::client::Outcome::Error(message) => {
                assert!(message.starts_with("bad split_mode 'binned:128': "), "{message}")
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        assert_eq!(server.admission().inflight(), 0, "rejected request leaked its slot");
        req.split_mode = Some("exact".into());
        let mut stream = server.connect_in_proc();
        let outcome = submit(&mut stream, &req, |_, _| {}).unwrap();
        assert!(outcome.response().is_some(), "the next request failed: {outcome:?}");
    }

    #[test]
    fn builtin_row_counts_below_sixty_get_a_result_or_a_structured_error() {
        let server = Server::new(ServeOptions::default());
        let request = |rows| {
            let mut req = wifi_request("acme");
            req.dataset = DatasetSpec::Builtin { name: "wifi".into(), rows, seed: 7 };
            submit(&mut server.connect_in_proc(), &req, |_, _| {}).unwrap()
        };
        match request(40) {
            crate::client::Outcome::Error(message) => {
                assert!(!message.contains("panicked"), "{message}")
            }
            outcome => assert!(outcome.response().is_some(), "{outcome:?}"),
        }
        match request(0) {
            crate::client::Outcome::Error(message) => {
                assert_eq!(message, "builtin datasets need at least one row")
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        assert_eq!(server.admission().inflight(), 0);
    }

    #[test]
    fn a_panicking_request_gets_an_error_frame_and_frees_its_slot() {
        let server = Server::new(ServeOptions::default());
        let mut stream = server.connect_in_proc();
        let outcome = submit(&mut stream, &wifi_request(PANIC_TENANT), |_, _| {}).unwrap();
        match outcome {
            crate::client::Outcome::Error(message) => {
                assert!(message.contains("request panicked: injected panic"), "{message}")
            }
            other => panic!("expected error frame, got {other:?}"),
        }
        assert_eq!(server.admission().inflight(), 0, "panicked request leaked its slot");
        let mut stream = server.connect_in_proc();
        let outcome = submit(&mut stream, &wifi_request("acme"), |_, _| {}).unwrap();
        assert!(outcome.response().is_some(), "the next request failed: {outcome:?}");
    }

    #[test]
    fn shutdown_requires_the_configured_token() {
        let opts =
            ServeOptions { shutdown_token: Some("sesame".into()), ..ServeOptions::default() };
        let server = Server::new(opts);
        let mut stream = server.connect_in_proc();
        assert!(!shutdown(&mut stream, "wrong").unwrap());
        assert!(!server.stopping());
        let mut stream = server.connect_in_proc();
        assert!(shutdown(&mut stream, "sesame").unwrap());
        assert!(server.stopping());
    }

    #[test]
    fn shutdown_is_refused_when_no_token_is_configured() {
        let server = Server::new(ServeOptions::default());
        let mut stream = server.connect_in_proc();
        assert!(!shutdown(&mut stream, "").unwrap());
        assert!(!server.stopping());
    }
}
