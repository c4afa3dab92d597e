//! `catdb` — command-line front end for the CatDB reproduction.
//!
//! ```text
//! catdb run --csv data.csv --target label --task binary [--model gpt-4o]
//!           [--beta N] [--alpha K] [--no-refine] [--seed N]
//! catdb profile --csv data.csv
//! catdb serve --port 7317 [--max-inflight N] [--budget-tokens F] ...
//! catdb client --port 7317 --dataset wifi [--clients N] [--out-dir DIR]
//! ```
//!
//! `run` profiles the CSV, refines the catalog with the simulated LLM,
//! generates + validates a pipeline, and prints the program with its
//! evaluation. `profile` prints the data profile only. `serve` starts
//! the multi-tenant daemon; `client` submits one request — or, with
//! `--clients N`, drives N concurrent connections — against it.

use catdb_catalog::MultiTableDataset;
use catdb_core::{measured_cost, value, RunFlags, RunSpec};
use catdb_llm::ModelProfile;
use catdb_ml::TaskKind;
use catdb_profiler::{profile_table, ProfileMode, ProfileOptions};
use catdb_serve::{
    dataset_name, drive_concurrent, shutdown, submit, AdmissionOptions, BudgetPolicy, DatasetSpec,
    GenerateRequest, Outcome, ServeOptions, Server,
};
use catdb_table::{read_csv_path, CsvOptions};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  catdb run --csv FILE --target COLUMN --task binary|multiclass|regression\n            [--model gpt-4o|gemini-1.5-pro|llama3.1-70b|gpt-4o-mini] [--beta N] [--alpha K]\n            [--route role=model,...|auto] [--route-target-accuracy F]\n            [--profile-mode exact|sketch|sketch:ROWS] [--dag-out FILE]\n            [--no-refine] [--seed N] [--trace-out FILE]\n            [--fault-rate F] [--max-retries N] [--llm-timeout SECONDS]\n            [--llm-concurrency N] [--llm-cache FILE]\n  catdb profile --csv FILE [--profile-mode exact|sketch|sketch:ROWS]\n  catdb serve --port N [--host ADDR] [--max-inflight N] [--max-queued N]\n            [--budget-tokens F] [--budget-refill F] [--llm-cache FILE]\n            [--llm-concurrency N] [--fault-rate F] [--max-retries N]\n            [--llm-timeout SECONDS] [--shutdown-token TOKEN]\n  catdb client --port N [--host ADDR] [--tenant NAME]\n            (--dataset NAME [--rows N] | --csv FILE --target COLUMN --task KIND)\n            [--model M] [--route SPEC|auto] [--profile-mode MODE]\n            [--seed N] [--beta N] [--alpha K]\n            [--no-refine] [--stream] [--clients N] [--out-dir DIR]\n  catdb client --port N --shutdown TOKEN"
    );
    ExitCode::from(2)
}

struct Args {
    command: String,
    csv: Option<String>,
    target: Option<String>,
    task: Option<String>,
    model: String,
    /// `--seed`, the transport trio, `--llm-concurrency` and `--route`.
    run: RunFlags,
    /// `--profile-mode`.
    profile: ProfileMode,
    /// File receiving the final pipeline's dependency DAG as JSON.
    dag_out: Option<String>,
    beta: usize,
    alpha: Option<usize>,
    refine: bool,
    trace_out: Option<String>,
    /// JSON-lines file persisting the completion cache across runs.
    llm_cache: Option<String>,
    // serve / client knobs
    host: String,
    port: Option<u16>,
    max_inflight: usize,
    max_queued: usize,
    budget_tokens: Option<f64>,
    budget_refill: f64,
    shutdown_token: Option<String>,
    /// Builtin dataset name for `client` (alternative to --csv).
    dataset: Option<String>,
    /// Row cap for builtin datasets.
    rows: usize,
    tenant: String,
    /// Number of concurrent driver connections for `client`.
    clients: usize,
    /// Directory receiving one pipeline file per driver client.
    out_dir: Option<String>,
    /// Stream trace events from the daemon to stderr.
    stream: bool,
    /// `client --shutdown TOKEN`: ask the daemon to stop.
    shutdown: Option<String>,
}

impl Args {
    /// The run these flags ask for. `--route auto` runs the optimizer,
    /// which records a trace event, so call this under the run's sink.
    fn run_spec(&self) -> Result<RunSpec, String> {
        let model = ModelProfile::by_name(&self.model).ok_or_else(|| {
            format!(
                "unknown model '{}'; use gpt-4o, gemini-1.5-pro, llama3.1-70b, or gpt-4o-mini \
                 (aliases: gemini, llama, mini)",
                self.model
            )
        })?;
        Ok(RunSpec {
            model,
            route: self.run.resolve_route()?,
            seed: self.run.seed,
            alpha: self.alpha,
            beta: self.beta,
            refine: self.refine,
            llm_concurrency: self.run.llm_concurrency,
            transport: self.run.transport,
            profile: self.profile,
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.get(1).ok_or("missing command")?.clone();
    let mut args = Args {
        command,
        csv: None,
        target: None,
        task: None,
        model: "gpt-4o".into(),
        run: RunFlags::new(42),
        profile: ProfileMode::default(),
        dag_out: None,
        beta: 1,
        alpha: None,
        refine: true,
        trace_out: None,
        llm_cache: None,
        host: "127.0.0.1".into(),
        port: None,
        max_inflight: AdmissionOptions::default().max_inflight,
        max_queued: AdmissionOptions::default().max_queued,
        budget_tokens: None,
        budget_refill: 0.0,
        shutdown_token: None,
        dataset: None,
        rows: 500,
        tenant: "cli".into(),
        clients: 1,
        out_dir: None,
        stream: false,
        shutdown: None,
    };
    let mut rest = argv[2..].iter();
    while let Some(flag) = rest.next() {
        let flag = flag.as_str();
        let rest = &mut rest;
        match flag {
            "--csv" => args.csv = Some(value(rest, flag, str::parse)?),
            "--target" => args.target = Some(value(rest, flag, str::parse)?),
            "--task" => args.task = Some(value(rest, flag, str::parse)?),
            "--model" => args.model = value(rest, flag, str::parse)?,
            "--profile-mode" => args.profile = value(rest, flag, ProfileMode::parse)?,
            "--dag-out" => args.dag_out = Some(value(rest, flag, str::parse)?),
            "--beta" => args.beta = value(rest, flag, str::parse)?,
            "--alpha" => args.alpha = Some(value(rest, flag, str::parse)?),
            "--trace-out" => args.trace_out = Some(value(rest, flag, str::parse)?),
            "--llm-cache" => args.llm_cache = Some(value(rest, flag, str::parse)?),
            "--no-refine" => args.refine = false,
            "--host" => args.host = value(rest, flag, str::parse)?,
            "--port" => args.port = Some(value(rest, flag, str::parse)?),
            "--max-inflight" => args.max_inflight = value(rest, flag, str::parse)?,
            "--max-queued" => args.max_queued = value(rest, flag, str::parse)?,
            "--budget-tokens" => args.budget_tokens = Some(value(rest, flag, str::parse)?),
            "--budget-refill" => args.budget_refill = value(rest, flag, str::parse)?,
            "--shutdown-token" => args.shutdown_token = Some(value(rest, flag, str::parse)?),
            "--dataset" => args.dataset = Some(value(rest, flag, str::parse)?),
            "--rows" => args.rows = value(rest, flag, str::parse)?,
            "--tenant" => args.tenant = value(rest, flag, str::parse)?,
            "--clients" => args.clients = value(rest, flag, str::parse)?,
            "--out-dir" => args.out_dir = Some(value(rest, flag, str::parse)?),
            "--stream" => args.stream = true,
            "--shutdown" => args.shutdown = Some(value(rest, flag, str::parse)?),
            other => {
                if !args.run.parse_flag(other, rest)? {
                    return Err(format!("unknown argument: {other}"));
                }
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return usage();
        }
    };
    match args.command.as_str() {
        "profile" => cmd_profile(&args),
        "run" => cmd_run(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        _ => usage(),
    }
}

fn load_table(args: &Args) -> Result<(String, catdb_table::Table), ExitCode> {
    let Some(path) = &args.csv else {
        eprintln!("--csv is required");
        return Err(usage());
    };
    let started = std::time::Instant::now();
    match read_csv_path(path, &CsvOptions::default()) {
        Ok(t) => {
            let secs = started.elapsed().as_secs_f64();
            let rows_per_sec = if secs > 0.0 { t.n_rows() as f64 / secs } else { 0.0 };
            eprintln!(
                "[loaded {} row(s) × {} col(s) in {:.1} ms, {:.0} rows/sec]",
                t.n_rows(),
                t.n_cols(),
                secs * 1e3,
                rows_per_sec,
            );
            Ok((dataset_name(path), t))
        }
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn cmd_profile(args: &Args) -> ExitCode {
    // Sketch mode streams the CSV through a spill file chunk by chunk —
    // peak memory is O(chunk), so files far larger than RAM profile fine.
    // Exact mode materializes the whole table (the bit-frozen default).
    let (name, profile, n_cols) = match args.profile {
        ProfileMode::Exact => {
            let Ok((name, table)) = load_table(args) else { return ExitCode::FAILURE };
            let profile = profile_table(&name, &table, &ProfileOptions::default());
            let n_cols = table.n_cols();
            (name, profile, n_cols)
        }
        ProfileMode::Sketch { chunk_rows } => {
            let Some(path) = &args.csv else {
                eprintln!("--csv is required");
                return usage();
            };
            let name = dataset_name(path);
            let opts =
                ProfileOptions { mode: ProfileMode::Sketch { chunk_rows }, ..Default::default() };
            // Single pass: sketches fold off the ingest stream as each
            // chunk is spilled — no read-back pass over the spill file.
            let (chunked, profile) = match catdb_profiler::profile_csv_stream(
                &name,
                path,
                &CsvOptions::default(),
                chunk_rows,
                &opts,
            ) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("failed to profile {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "[streamed {} row(s) in {} chunk(s) of ≤{} rows, {} spill byte(s)]",
                chunked.n_rows(),
                chunked.n_chunks(),
                chunked.chunk_rows(),
                chunked.spill_bytes(),
            );
            let n_cols = chunked.schema().len();
            (name, profile, n_cols)
        }
    };
    println!("dataset: {name} ({} rows × {} cols)", profile.n_rows, n_cols);
    println!(
        "{:<20} {:<8} {:<12} {:>8} {:>9} {:>9}",
        "column", "type", "feature", "distinct", "missing%", "top%"
    );
    for col in &profile.columns {
        println!(
            "{:<20} {:<8} {:<12} {:>8} {:>8.1}% {:>8.1}%",
            col.name,
            col.data_type.name(),
            col.feature_type.label(),
            col.distinct_count,
            col.missing_percentage * 100.0,
            col.top_value_ratio * 100.0,
        );
    }
    println!("profiled in {:.3}s", profile.elapsed_seconds);
    ExitCode::SUCCESS
}

fn cmd_run(args: &Args) -> ExitCode {
    // The whole run records into a trace sink — installed before the CSV
    // load so the `csv_ingest` span and csv.* counters land in the trace.
    // Cache hit/miss counters are read from it for the `[llm cache: ...]`
    // summary, and with --trace-out its JSON snapshot is written at exit
    // (re-importable via catdb_trace::Trace::from_json_str).
    let sink = Arc::new(catdb_trace::TraceSink::new());
    let _trace_guard = catdb_trace::install(sink.clone());

    let Ok((name, table)) = load_table(args) else { return ExitCode::FAILURE };
    let Some(target) = &args.target else {
        eprintln!("--target is required");
        return usage();
    };
    let Some(task) = args.task.as_deref().and_then(TaskKind::parse) else {
        eprintln!("--task must be binary, multiclass, or regression");
        return usage();
    };
    let spec = match args.run_spec() {
        Ok(spec) => spec,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // A persistent completion cache shared by collection, generation and
    // error fixing; warm entries replay for free on later runs with the
    // same seed.
    let cache = args
        .llm_cache
        .as_ref()
        .map(|path| Arc::new(catdb_sched::CompletionCache::persistent(path, 4096)));
    let dataset = MultiTableDataset::single(name, table);
    let run = match spec.run(&dataset, target, task, cache.clone()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(route) = &run.route {
        eprintln!("[route: {route}]");
    }
    if let Some(report) = &run.refinement {
        eprintln!(
            "[catalog refined: {} column change(s), {} LLM call(s)]",
            report.refinements.len(),
            report.llm_calls
        );
    }
    let result = run.result;
    println!("{}", result.code);
    // A requested output file that is not written fails the run, after
    // everything else has been reported.
    let mut unwritten = false;
    if let Some(path) = &args.dag_out {
        // Export the final pipeline's dependency DAG (nodes with their
        // read/write column sets, barrier flags, and inferred edges).
        match catdb_pipeline::parse(&result.code) {
            Ok(program) => {
                let dag = catdb_pipeline::StepDag::compile(&program);
                match std::fs::write(path, dag.to_json()) {
                    Ok(()) => eprintln!("[dag: {} node(s) written to {path}]", dag.nodes.len()),
                    Err(e) => {
                        eprintln!("failed to write DAG to {path}: {e}");
                        unwritten = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("cannot export DAG: final pipeline does not parse: {e}");
                unwritten = true;
            }
        }
    }
    if let Some(cache) = &cache {
        let stats = cache.stats();
        eprintln!(
            "[llm cache: {} hit(s), {} miss(es), {} insertion(s), {} entr(ies) resident]",
            stats.hits,
            stats.misses,
            stats.insertions,
            cache.len(),
        );
    }
    if let Some(path) = &args.trace_out {
        let trace = sink.snapshot();
        if trace.llm_retry_count() > 0 || trace.degraded_count() > 0 {
            eprintln!(
                "[resilience: {} retried attempt(s), {} circuit opening(s), {} degradation(s), {} wasted token(s)]",
                trace.llm_retry_count(),
                trace.circuit_open_count(),
                trace.degraded_count(),
                trace.retry_tokens(),
            );
        }
        match std::fs::write(path, trace.to_json_string()) {
            Ok(()) => eprintln!(
                "[trace: {} span(s), {} event(s) written to {path}]",
                trace.spans.len(),
                trace.events.len()
            ),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                unwritten = true;
            }
        }
    }
    match &result.results.evaluation {
        Some(eval) => {
            eprintln!("train: {:?}", eval.train);
            eprintln!("test:  {:?}", eval.test);
            eprintln!(
                "tokens: {} | llm calls: {} | attempts: {} | errors handled: {}",
                result.results.ledger.total().total(),
                result.results.ledger.n_calls,
                result.results.attempts,
                result.results.traces.len(),
            );
            // Billed spend from the trace (cache hits bill zero); the
            // `route` smoke gate compares this line across routings.
            let measured = measured_cost(&sink.snapshot());
            eprintln!(
                "billed: {:.6} USD | {} billed call(s) | {} cache hit(s)",
                measured.usd, measured.llm_calls, measured.cache_hits,
            );
            if unwritten {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        None => {
            eprintln!("no executable pipeline found; errors:");
            for t in &result.results.traces {
                eprintln!("  attempt {}: {}", t.attempt, t.kind.code());
            }
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(args: &Args) -> ExitCode {
    let Some(port) = args.port else {
        eprintln!("--port is required for serve");
        return usage();
    };
    let opts = ServeOptions {
        admission: AdmissionOptions {
            max_inflight: args.max_inflight,
            max_queued: args.max_queued,
            budget: args.budget_tokens.map(|capacity| BudgetPolicy {
                capacity_tokens: capacity,
                refill_tokens_per_second: args.budget_refill,
            }),
            ..Default::default()
        },
        cache_path: args.llm_cache.as_ref().map(std::path::PathBuf::from),
        llm_concurrency: args.run.llm_concurrency,
        transport: args.run.transport,
        shutdown_token: args.shutdown_token.clone(),
        ..Default::default()
    };
    let addr = format!("{}:{}", args.host, port);
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[catdb serve: listening on {addr}, max-inflight {}, max-queued {}]",
        args.max_inflight, args.max_queued
    );
    let server = Server::new(opts);
    match server.serve_tcp(listener) {
        Ok(()) => {
            let stats = server.cache().stats();
            eprintln!(
                "[catdb serve: drained; cache {} hit(s), {} miss(es), {} insertion(s)]",
                stats.hits, stats.misses, stats.insertions
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Build a request from CLI flags. Builtin datasets travel by name; CSV
/// files are read client-side and shipped inline so the daemon never
/// depends on sharing a filesystem with its clients.
fn client_request(args: &Args) -> Result<GenerateRequest, String> {
    let dataset = match (&args.dataset, &args.csv) {
        (Some(name), None) => {
            DatasetSpec::Builtin { name: name.clone(), rows: args.rows, seed: args.run.seed }
        }
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
            DatasetSpec::CsvInline { name: dataset_name(path), text }
        }
        _ => return Err("exactly one of --dataset or --csv is required".into()),
    };
    Ok(GenerateRequest {
        target: args.target.clone(),
        task: args.task.clone(),
        stream: args.stream,
        ..GenerateRequest::from_spec(args.tenant.clone(), dataset, &args.run_spec()?)
    })
}

fn cmd_client(args: &Args) -> ExitCode {
    let Some(port) = args.port else {
        eprintln!("--port is required for client");
        return usage();
    };
    let addr = format!("{}:{}", args.host, port);
    let connect = || match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    if let Some(token) = &args.shutdown {
        let mut stream = connect();
        return match shutdown(&mut stream, token) {
            Ok(true) => {
                eprintln!("[daemon acknowledged shutdown]");
                ExitCode::SUCCESS
            }
            Ok(false) => {
                eprintln!("daemon refused shutdown (bad or missing token)");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let req = match client_request(args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return usage();
        }
    };

    if args.clients <= 1 {
        let mut stream = connect();
        let outcome = match submit(&mut stream, &req, |seq, record| {
            eprintln!("[event {seq}] {:?}", record.event)
        }) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("request failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        return report_outcome(0, &outcome, args.out_dir.as_deref());
    }

    // Deterministic N-client driver: one connection per request, results
    // reported in client-index order regardless of completion order.
    let requests: Vec<GenerateRequest> = (0..args.clients).map(|_| req.clone()).collect();
    let outcomes = drive_concurrent(connect, &requests);
    let mut exit = ExitCode::SUCCESS;
    for (i, outcome) in outcomes.iter().enumerate() {
        let code = match outcome {
            Ok(o) => report_outcome(i, o, args.out_dir.as_deref()),
            Err(e) => {
                eprintln!("client {i}: transport error: {e}");
                ExitCode::FAILURE
            }
        };
        if code != ExitCode::SUCCESS {
            exit = ExitCode::FAILURE;
        }
    }
    exit
}

/// Print one client's outcome; with `--out-dir` the pipeline also lands
/// in `DIR/pipeline_{i}.py` so runs can be diffed file-by-file.
fn report_outcome(i: usize, outcome: &Outcome, out_dir: Option<&str>) -> ExitCode {
    match outcome {
        Outcome::Done(resp) => {
            eprintln!(
                "client {i}: ok | billed {} token(s) | {} llm call(s) | {} cache hit(s) | tenant total {}",
                resp.billed_tokens, resp.llm_calls, resp.cache_hits, resp.tenant_charged_tokens
            );
            match out_dir {
                Some(dir) => {
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("failed to create {dir}: {e}");
                        return ExitCode::FAILURE;
                    }
                    let path = format!("{dir}/pipeline_{i}.py");
                    if let Err(e) = std::fs::write(&path, &resp.pipeline) {
                        eprintln!("failed to write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                None => println!("{}", resp.pipeline),
            }
            ExitCode::SUCCESS
        }
        Outcome::Rejected(shed) => {
            eprintln!(
                "client {i}: shed ({}) — retry after {:.1}s",
                shed.reason, shed.retry_after_seconds
            );
            ExitCode::FAILURE
        }
        Outcome::Error(message) => {
            eprintln!("client {i}: server error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> =
            std::iter::once("catdb").chain(words.iter().copied()).map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn a_trailing_flag_without_its_value_is_an_error_naming_the_flag() {
        let err = parse(&["run", "--csv", "data.csv", "--seed"]).err().expect("trailing --seed");
        assert_eq!(err, "--seed needs a value");
    }

    #[test]
    fn an_unparseable_value_is_reported_against_its_flag() {
        let err = parse(&["run", "--beta", "two"]).err().expect("--beta two");
        assert!(err.starts_with("bad --beta 'two': "), "{err}");
        let err = parse(&["run", "--profile-mode", "bogus"]).err().expect("--profile-mode bogus");
        assert!(err.starts_with("bad --profile-mode 'bogus': "), "{err}");
    }

    #[test]
    fn flags_fill_the_run_spec() {
        let flags = ["run", "--beta", "2", "--profile-mode", "sketch:64", "--fault-rate", "0.5"];
        let Ok(args) = parse(&flags) else { panic!("valid flags rejected") };
        let spec = args.run_spec().expect("default model");
        assert_eq!(spec.beta, 2);
        assert_eq!(spec.profile, ProfileMode::Sketch { chunk_rows: 64 });
        assert_eq!(spec.transport.fault_rate, 0.5);
    }

    #[test]
    fn the_removed_scheduling_flag_is_an_unknown_argument() {
        let err = parse(&["run", "--exec-mode", "dag"]).err().expect("--exec-mode rejected");
        assert_eq!(err, "unknown argument: --exec-mode");
    }
}
