//! `serve_mixed`: an in-process `catdb serve` daemon driven in a closed
//! loop — each client sends its next request only when the previous
//! answer arrived — by at most two connections (never more than the
//! host's cores), from several tenants.
//!
//! Requests are small builtin datasets. After an untimed warm-up that
//! submits every dataset of a repeat pool once, three of every four
//! timed requests repeat a pool entry (served from the shared
//! `CompletionCache` and the profile memo) and one asks for a dataset
//! seed never seen before (every completion misses and is inserted).

use crate::batch::{breakdown_name, permutation};
use crate::stats::{mean, median, peak_rss_mb, ratio, tail_percentile, Digest};
use crate::{sub_seed, Ctx, Metric, Outcome};
use catdb_serve::{
    submit, DatasetSpec, GenerateRequest, GenerateResponse, Outcome as Reply, ServeOptions, Server,
};
use catdb_trace::TraceEvent;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Small paper datasets; every request is capped at [`ROWS`] rows.
const DATASETS: [&str; 6] =
    ["bike-sharing", "diabetes", "tic-tac-toe", "cmc", "utility", "etailing"];
const ROWS: usize = 240;
const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
/// One timed request in this many asks for a fresh dataset seed. A
/// design parameter, not a measured mix: no record of real daemon
/// traffic exists, so the share is unverified. It is chosen so that both
/// the warm path and the cold path (cache insertion) weigh in the
/// end-to-end figures.
const FRESH_EVERY: usize = 4;
/// Timed requests of a run: `--seconds` at the reference host's rate of
/// 45 requests per second (2 cores), and never fewer than 1000, so p99
/// has ten samples beyond it.
pub fn timed_requests(seconds: f64) -> usize {
    ((seconds * 45.0) as usize).max(1000)
}
/// Timed requests covered by the digest (in request-index order).
const DIGEST_REQUESTS: usize = 64;
/// Requests per block; trace mode streams every other block.
const BLOCK: usize = 8;
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// How far the timed cache hit ratio may stray from the share of repeat
/// requests, `1 − 1/FRESH_EVERY`, before the workload no longer
/// exercises what it was built for.
const HIT_RATIO_TOLERANCE: f64 = 0.1;
/// Salt of every request's data seed. The workload seed does not enter
/// it: every run asks for the same tables (so the simulated LLM, whose
/// choices follow a hash of the prompt, answers with the same pipelines
/// and every run does the same work); the seed orders the requests and
/// assigns their tenants.
const DATA_SALT: u64 = 0x5e7e;

/// A request's dataset: which builtin, generated from which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Case {
    pub dataset: &'static str,
    pub data_seed: u64,
}

/// The repeat pool of set-up `s`: one entry per dataset.
pub fn pool(s: usize) -> Vec<Case> {
    DATASETS
        .iter()
        .enumerate()
        .map(|(k, &dataset)| Case { dataset, data_seed: sub_seed(DATA_SALT, (s * 64 + k) as u64) })
        .collect()
}

/// One timed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub tenant: &'static str,
    pub case: Case,
    /// A dataset seed never requested before in the process.
    pub fresh: bool,
}

/// The timed requests of a run, in sending order: `n` requests of which
/// one in [`FRESH_EVERY`] is fresh, the rest repeat `pool` round-robin.
/// The multiset is fixed; `seed` permutes it and picks tenants.
pub fn plan(seed: u64, pool: &[Case], n: usize) -> Vec<Planned> {
    let requests: Vec<(Case, bool)> = (0..n)
        .map(|i| {
            if i % FRESH_EVERY == FRESH_EVERY - 1 {
                let dataset = DATASETS[(i / FRESH_EVERY) % DATASETS.len()];
                (Case { dataset, data_seed: sub_seed(DATA_SALT, 1 << 32 | i as u64) }, true)
            } else {
                (pool[i % pool.len()], false)
            }
        })
        .collect();
    permutation(n, seed)
        .into_iter()
        .enumerate()
        .map(|(pos, i)| Planned {
            tenant: TENANTS[(sub_seed(seed, pos as u64) % TENANTS.len() as u64) as usize],
            case: requests[i].0,
            fresh: requests[i].1,
        })
        .collect()
}

fn request(tenant: &str, case: Case, stream: bool) -> GenerateRequest {
    let mut req = GenerateRequest::new(
        tenant,
        DatasetSpec::Builtin { name: case.dataset.into(), rows: ROWS, seed: case.data_seed },
    );
    req.stream = stream;
    req
}

/// Client-side byte counter around a connection.
struct Counted<S> {
    inner: S,
    bytes: u64,
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Figures a streamed (traced) request's events carry.
#[derive(Debug, Default, Clone, Copy)]
struct Streamed {
    llm_calls: u64,
    prompt_tokens: u64,
    completion_tokens: u64,
    pipeline_op_micros: u64,
}

/// One exchange over a fresh in-process connection.
struct Exchange {
    reply: Result<Reply, String>,
    seconds: f64,
    wire_bytes: u64,
    streamed: Streamed,
}

fn exchange(server: &Server, req: &GenerateRequest) -> Exchange {
    let mut stream = Counted { inner: server.connect_in_proc(), bytes: 0 };
    let mut streamed = Streamed::default();
    let started = Instant::now();
    let reply = submit(&mut stream, req, |_, record| match &record.event {
        TraceEvent::LlmCall { prompt_tokens, completion_tokens, .. } => {
            streamed.llm_calls += 1;
            streamed.prompt_tokens += *prompt_tokens as u64;
            streamed.completion_tokens += *completion_tokens as u64;
        }
        TraceEvent::PipelineOp { micros, .. } => streamed.pipeline_op_micros += micros,
        _ => {}
    })
    .map_err(|e| e.to_string());
    Exchange { reply, seconds: started.elapsed().as_secs_f64(), wire_bytes: stream.bytes, streamed }
}

/// The headline test score inside a response's `test_metric` text (AUC
/// for classification, R² for regression).
pub fn headline(metric: &str) -> Option<f64> {
    let key = if metric.starts_with("Regression") { "r2: " } else { "auc: " };
    let rest = &metric[metric.find(key)? + key.len()..];
    rest.split([',', ' ', '}']).next()?.parse().ok()
}

fn response_digest(d: Digest, resp: &GenerateResponse) -> Digest {
    d.str(&resp.pipeline).str(resp.test_metric.as_deref().unwrap_or("-"))
}

/// A completed timed request.
struct Done {
    index: usize,
    seconds: f64,
    traced: bool,
    wire_bytes: u64,
    streamed: Streamed,
    resp: GenerateResponse,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let clients = catdb_runtime::pool_size().clamp(1, 2);

    // Set up several times, each on a fresh daemon and a fresh repeat
    // pool, and keep the last.
    let mut setup = Vec::new();
    let mut warm: Vec<(Case, GenerateResponse)> = Vec::new();
    let mut server = None;
    let mut digest = Digest::default();
    for s in 0..SETUPS {
        let t = Instant::now();
        let srv = Server::new(ServeOptions { cache_capacity: 1 << 20, ..Default::default() });
        warm.clear();
        for (k, case) in pool(s).into_iter().enumerate() {
            out.attempted += 1;
            match exchange(&srv, &request(TENANTS[k % TENANTS.len()], case, false)).reply {
                Ok(Reply::Done(resp)) if resp.success => warm.push((case, resp)),
                other => out.fail(format!("warm-up {case:?}: {other:?}")),
            }
        }
        setup.push(t.elapsed().as_secs_f64());
        server = Some(srv);
    }
    let server = server.expect("at least one set-up");
    for (case, resp) in &warm {
        digest = response_digest(digest.str(case.dataset), resp).u64(resp.billed_tokens as u64);
    }
    let pool: Vec<Case> = warm.iter().map(|(c, _)| *c).collect();
    if pool.len() != DATASETS.len() {
        out.digest = digest;
        return out;
    }

    let plan = plan(ctx.seed, &pool, timed_requests(ctx.seconds));
    let before = server.cache().stats();
    let next = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(p) = plan.get(i) else { break };
                let traced = ctx.trace && (i / BLOCK) % 2 == 1;
                let x = exchange(&server, &request(p.tenant, p.case, traced));
                match x.reply {
                    Ok(Reply::Done(resp)) if resp.success => {
                        done.lock().expect("no panics while held").push(Done {
                            index: i,
                            seconds: x.seconds,
                            traced,
                            wire_bytes: x.wire_bytes,
                            streamed: x.streamed,
                            resp,
                        });
                    }
                    Ok(Reply::Rejected(_)) => {
                        shed.fetch_add(1, Ordering::SeqCst);
                        failures
                            .lock()
                            .expect("no panics while held")
                            .push(format!("request {i} was shed"));
                    }
                    other => failures
                        .lock()
                        .expect("no panics while held")
                        .push(format!("request {i} ({:?}): {other:?}", p.case)),
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let stats = server.cache().stats();
    let mut done = done.into_inner().expect("clients joined");
    done.sort_by_key(|d| d.index);
    out.attempted += plan.len() as u64;
    for f in failures.into_inner().expect("clients joined") {
        out.fail(f);
    }

    // Correctness: repeats reproduce their warm-up answer and bill
    // nothing; fresh requests bill; the first requests enter the digest.
    for d in &done {
        let p = &plan[d.index];
        if p.fresh {
            if d.resp.billed_tokens == 0 {
                out.guard(format!("fresh request {} was billed nothing", d.index));
            }
        } else {
            let (_, first) = warm.iter().find(|(c, _)| *c == p.case).expect("pool case");
            if d.resp.pipeline != first.pipeline || d.resp.test_metric != first.test_metric {
                out.guard(format!("repeat request {} changed its answer", d.index));
            }
            if d.resp.billed_tokens != 0 {
                out.guard(format!("repeat request {} missed the completion cache", d.index));
            }
        }
        if d.index < DIGEST_REQUESTS {
            digest = response_digest(digest.u64(d.index as u64), &d.resp);
        }
    }
    out.digest = digest;
    let hits = (stats.hits - before.hits) as f64;
    let lookups = hits + (stats.misses - before.misses) as f64;
    let hit_ratio = ratio(hits, lookups);
    // Repeats hit the cache on every lookup and fresh requests miss, so
    // the ratio follows the share of repeats.
    let designed = 1.0 - 1.0 / FRESH_EVERY as f64;
    if (hit_ratio - designed).abs() > HIT_RATIO_TOLERANCE {
        out.guard(format!(
            "timed cache hit ratio {hit_ratio:.3} strays from the designed {designed}"
        ));
    }

    let untraced: Vec<&Done> = done.iter().filter(|d| !d.traced).collect();
    let traced: Vec<&Done> = done.iter().filter(|d| d.traced).collect();
    let latencies: Vec<f64> = untraced.iter().map(|d| d.seconds).collect();
    let tail = tail_percentile(&latencies);
    if let Some((p, _)) = tail {
        eprintln!("[tail latency is p{p} over {} requests]", latencies.len());
    }
    // Fixed work: a block of requests, timed from the first send to the
    // last answer of its members.
    let per_request = elapsed / done.len().max(1) as f64;
    let n = done.len().max(1) as f64;
    let billed: usize = done.iter().map(|d| d.resp.billed_tokens).sum();
    out.end_to_end = vec![
        Metric::new("setup_s", median(&setup), "s"),
        Metric::new("wall_s", per_request * BLOCK as f64, "s"),
        Metric::new("requests_per_s", done.len() as f64 / elapsed, "1/s"),
        Metric::new("request_p50_ms", median(&latencies) * 1e3, "ms"),
        Metric::new("request_tail_ms", tail.map_or(0.0, |(_, v)| v) * 1e3, "ms"),
        Metric::new("billed_tokens", billed as f64 / n, "tokens"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
    ];

    let ops = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Done) -> f64| traced.iter().map(|d| f(d)).sum::<f64>() / ops;
    let traced_p50 = median(&traced.iter().map(|d| d.seconds).collect::<Vec<_>>());
    let untraced_p50 = median(&latencies);
    let scores: Vec<f64> =
        done.iter().filter_map(|d| d.resp.test_metric.as_deref().and_then(headline)).collect();
    let parse_started = Instant::now();
    for d in &traced {
        std::hint::black_box(catdb_pipeline::parse(std::hint::black_box(&d.resp.pipeline)).ok());
    }
    let parse_ms = parse_started.elapsed().as_secs_f64() * 1e3 / ops;
    let wall_ms = sum(&|d| d.seconds * 1e3);
    let pipeline_ms = sum(&|d| d.streamed.pipeline_op_micros as f64 / 1e3);
    out.per_layer = vec![
        Metric::new("table.ingest_ms", 0.0, "ms"),
        Metric::new("table.ingest_mb_per_s", 0.0, "MB/s"),
        Metric::new("profiler.profile_ms", 0.0, "ms"),
        Metric::new("profiler.memo_hit_ratio", 0.0, "ratio"),
        Metric::new("profiler.memo_lookups", 0.0, "count"),
        Metric::new("catalog.refine_ms", 0.0, "ms"),
        Metric::new("catalog.refine_llm_calls", 0.0, "count"),
        Metric::new("core.generate_self_ms", 0.0, "ms"),
        Metric::new("core.attempts", sum(&|d| d.resp.attempts as f64), "count"),
        Metric::new("core.handcrafted", sum(&|d| d.resp.handcrafted as u8 as f64), "count"),
        Metric::new("core.mean_test_score", mean(&scores), "score"),
        Metric::new("llm.calls", sum(&|d| d.streamed.llm_calls as f64), "count"),
        Metric::new("llm.complete_ms", 0.0, "ms"),
        Metric::new("llm.prompt_tokens", sum(&|d| d.streamed.prompt_tokens as f64), "tokens"),
        Metric::new(
            "llm.completion_tokens",
            sum(&|d| d.streamed.completion_tokens as f64),
            "tokens",
        ),
        Metric::new("llm.sim_s", 0.0, "s"),
        Metric::new("sched.cache_hit_ratio", hit_ratio, "ratio"),
        Metric::new("sched.cache_lookups", lookups / n, "count"),
        Metric::new(
            "sched.cache_insertions",
            (stats.insertions - before.insertions) as f64 / n,
            "count",
        ),
        Metric::new("pipeline.execute_ms", pipeline_ms, "ms"),
        Metric::new("pipeline.executions", 0.0, "count"),
        Metric::new("pipeline.parse_ms", parse_ms, "ms"),
        Metric::new("ml.tree_fit_ms", 0.0, "ms"),
        Metric::new("ml.hist_builds", 0.0, "count"),
        Metric::new("runtime.tasks", 0.0, "count"),
        Metric::new("runtime.steals", 0.0, "count"),
        Metric::new("serve.admitted", done.len() as f64, "count"),
        Metric::new("serve.shed", shed.load(Ordering::SeqCst) as f64, "count"),
        Metric::new("serve.wire_bytes", sum(&|d| d.wire_bytes as f64), "bytes"),
        Metric::new("trace.overhead_pct", 100.0 * (traced_p50 / untraced_p50 - 1.0), "%"),
        Metric::new("trace.base_ms", untraced_p50 * 1e3, "ms"),
        Metric::new("breakdown.wall_ms", wall_ms, "ms"),
    ];
    for layer in ["table", "catalog", "profiler", "llm", "core", "pipeline+ml", "unattributed"] {
        let share = match layer {
            "pipeline+ml" => 100.0 * pipeline_ms / wall_ms.max(1e-9),
            "unattributed" => 100.0 * (1.0 - pipeline_ms / wall_ms.max(1e-9)),
            _ => 0.0,
        };
        out.per_layer.push(Metric::new(breakdown_name(layer), share, "%"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_reads_auc_or_r2() {
        let c = "Classification { accuracy: 0.9, auc: 0.875, f1_macro: 0.8 }";
        assert_eq!(headline(c), Some(0.875));
        assert_eq!(headline("Regression { r2: 0.5, rmse: 3.0 }"), Some(0.5));
        assert_eq!(headline("nothing"), None);
    }

    #[test]
    fn a_quarter_of_timed_requests_are_fresh_and_never_repeat() {
        let pool = pool(0);
        let plan = plan(5, &pool, 400);
        assert_eq!(plan.iter().filter(|p| p.fresh).count(), 100);
        let fresh: std::collections::HashSet<_> =
            plan.iter().filter(|p| p.fresh).map(|p| p.case).collect();
        assert_eq!(fresh.len(), 100);
        assert!(plan.iter().filter(|p| !p.fresh).all(|p| pool.contains(&p.case)));
        for case in &pool {
            assert!(plan.iter().any(|p| p.case == *case), "{case:?} never repeated");
        }
    }

    #[test]
    fn the_seed_reorders_the_requests_but_not_their_multiset() {
        let pool = pool(0);
        let (a, b) = (plan(1, &pool, 400), plan(2, &pool, 400));
        assert_ne!(a, b);
        let key = |p: &Planned| (p.case.dataset, p.case.data_seed, p.fresh);
        let mut ka: Vec<_> = a.iter().map(key).collect();
        let mut kb: Vec<_> = b.iter().map(key).collect();
        ka.sort_unstable();
        kb.sort_unstable();
        assert_eq!(ka, kb);
        assert_eq!(plan(1, &pool, 400), a);
    }
}
