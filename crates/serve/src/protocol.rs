//! Wire protocol of the `catdb serve` daemon: length-prefixed JSON
//! frames over any byte stream.
//!
//! A frame is a little-endian `u32` payload length followed by exactly
//! that many bytes of JSON — the externally tagged serde rendering of
//! [`ClientFrame`] or [`ServerFrame`]. The framing layer never panics on
//! hostile input: oversized lengths, truncated streams, invalid UTF-8,
//! malformed JSON, and schema mismatches all surface as structured
//! [`WireError`]s (pinned by the protocol property tests).
//!
//! One connection carries one exchange: the client sends a single
//! [`ClientFrame`], then reads zero or more [`ServerFrame::Progress`]
//! frames followed by exactly one terminal frame ([`ServerFrame::Done`],
//! [`ServerFrame::Rejected`], [`ServerFrame::Error`], or
//! [`ServerFrame::ShutdownAck`]).
//!
//! Integers travel as JSON numbers, so values round-trip exactly only up
//! to 2^53 — the standard JSON/f64 interop floor (JavaScript clients
//! share it). Seeds and row counts beyond that are not supported on the
//! wire.

use catdb_core::RunSpec;
use catdb_llm::{resolve_route, ModelProfile, Transport, DEFAULT_ROUTE_TARGET_ACCURACY};
use catdb_ml::TaskKind;
use catdb_profiler::ProfileMode;
use catdb_trace::TraceEvent;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};

/// Bumped on every incompatible frame-schema change.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame payload; larger advertised lengths are
/// rejected before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Where the rows of a generation request come from. The daemon is the
/// side with the data: requests name a dataset rather than shipping it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DatasetSpec {
    /// One of `catdb-data`'s deterministic paper datasets, materialized
    /// server-side from `(name, rows, seed)`.
    Builtin { name: String, rows: usize, seed: u64 },
    /// A CSV file readable by the server process.
    CsvPath { path: String },
    /// CSV text carried inline in the request (tests, small demos).
    CsvInline { name: String, text: String },
}

/// The dataset name a CSV file stands for: its file stem, or `dataset`
/// when the path has none.
pub fn dataset_name(path: &str) -> String {
    std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("dataset").to_string()
}

/// One pipeline-generation request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerateRequest {
    /// Admission-control identity: budgets and fair-share accounting are
    /// kept per tenant.
    pub tenant: String,
    pub dataset: DatasetSpec,
    /// Target column; `None` uses the builtin dataset's default.
    pub target: Option<String>,
    /// `binary` | `multiclass` | `regression`; `None` uses the builtin
    /// dataset's default.
    pub task: Option<String>,
    pub model: String,
    /// Per-role model routing spec (`refine=llama,fix=mini` or `auto`);
    /// `None` sends every role to `model`. Optional on the wire, so
    /// version-1 clients that never heard of routing stay compatible.
    #[serde(default)]
    pub route: Option<String>,
    /// Tree split search, kept on the wire so frames from clients that
    /// could pick binned search still decode. Trees always search exact
    /// splits: `None` and `exact` are accepted, anything else is an
    /// error. Requests built here never set it.
    #[serde(default)]
    pub split_mode: Option<String>,
    /// Profiling strategy (`exact` | `sketch` | `sketch:<chunk_rows>`);
    /// `None` means exact. Optional on the wire so older clients that
    /// predate sketch profiling still decode.
    #[serde(default)]
    pub profile_mode: Option<String>,
    pub seed: u64,
    /// Chain chunks (1 = single prompt).
    pub beta: usize,
    /// Top-K column selection.
    pub alpha: Option<usize>,
    /// Run LLM-assisted catalog refinement before generation.
    pub refine: bool,
    /// Stream `catdb-trace` events back as [`ServerFrame::Progress`].
    pub stream: bool,
}

impl GenerateRequest {
    /// A request with every knob at the CLI's defaults.
    pub fn new(tenant: impl Into<String>, dataset: DatasetSpec) -> GenerateRequest {
        GenerateRequest {
            tenant: tenant.into(),
            dataset,
            target: None,
            task: None,
            model: "gpt-4o".into(),
            route: None,
            split_mode: None,
            profile_mode: None,
            seed: 42,
            beta: 1,
            alpha: None,
            refine: true,
            stream: false,
        }
    }

    /// The request for `spec`, with target, task and streaming at their
    /// defaults. Strings are canonical: the model's full name, the
    /// route's `role=model[:N]` rendering, and `None` for the default
    /// profile mode.
    pub fn from_spec(
        tenant: impl Into<String>,
        dataset: DatasetSpec,
        spec: &RunSpec,
    ) -> GenerateRequest {
        GenerateRequest {
            model: spec.model.name.clone(),
            route: spec.route.as_ref().map(|route| route.canonical(&spec.model)),
            profile_mode: (spec.profile != ProfileMode::default())
                .then(|| spec.profile.to_string()),
            seed: spec.seed,
            beta: spec.beta,
            alpha: spec.alpha,
            refine: spec.refine,
            ..GenerateRequest::new(tenant, dataset)
        }
    }

    /// Parse every string of the request into the run it asks for, plus
    /// its task when one is given. The daemon supplies the transport and
    /// fan-out, which are its own settings, not the client's. Each error
    /// names the offending field. A `route` of `auto` runs the optimizer,
    /// which records a trace event, so call this under the request's
    /// trace sink.
    pub fn to_spec(
        &self,
        transport: &Transport,
        llm_concurrency: usize,
    ) -> Result<(RunSpec, Option<TaskKind>), String> {
        let task = self
            .task
            .as_deref()
            .map(|t| TaskKind::parse(t).ok_or_else(|| format!("unknown task '{t}'")))
            .transpose()?;
        let model = ModelProfile::by_name(&self.model)
            .ok_or_else(|| format!("unknown model '{}'", self.model))?;
        let route = self
            .route
            .as_deref()
            .map(|r| {
                resolve_route(r, DEFAULT_ROUTE_TARGET_ACCURACY)
                    .map_err(|e| format!("bad route '{r}': {e}"))
            })
            .transpose()?;
        if let Some(s) = self.split_mode.as_deref().filter(|&s| s != "exact") {
            return Err(format!(
                "bad split_mode '{s}': binned split search was removed; trees always search \
                 exact splits, so only `exact` is accepted"
            ));
        }
        let profile = match self.profile_mode.as_deref() {
            Some(s) => ProfileMode::parse(s).map_err(|e| format!("bad profile_mode '{s}': {e}"))?,
            None => ProfileMode::default(),
        };
        let spec = RunSpec {
            model,
            route,
            seed: self.seed,
            alpha: self.alpha,
            beta: self.beta,
            refine: self.refine,
            llm_concurrency,
            transport: *transport,
            profile,
        };
        Ok((spec, task))
    }
}

/// Frames a client may send.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientFrame {
    /// Boxed: a request (dataset spec + every knob) dwarfs the shutdown
    /// variant. Serde encodes `Box<T>` exactly as `T`, so the wire
    /// format is unchanged.
    Submit(Box<GenerateRequest>),
    /// Graceful daemon shutdown; honored only when the token matches the
    /// server's configured `--shutdown-token`.
    Shutdown { token: String },
}

/// Terminal success payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerateResponse {
    /// The generated pipeline source — the bytes `catdb run` would print.
    pub pipeline: String,
    pub success: bool,
    pub handcrafted: bool,
    pub attempts: usize,
    /// `Debug` rendering of the train/test evaluations, when present.
    pub train_metric: Option<String>,
    pub test_metric: Option<String>,
    /// Billed tokens for this request (cache hits bill zero).
    pub billed_tokens: usize,
    pub llm_calls: usize,
    pub cache_hits: usize,
    pub cache_saved_tokens: usize,
    /// Tenant's cumulative charged tokens after this request.
    pub tenant_charged_tokens: u64,
}

/// Structured load-shed: the request was not admitted and the client
/// should retry no sooner than `retry_after_seconds`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryAfter {
    /// `over_capacity` | `over_budget`.
    pub reason: String,
    pub retry_after_seconds: f64,
    pub tenant: String,
}

/// Frames a server may send.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerFrame {
    /// One `catdb-trace` event, streamed as it occurred. `seq` is the
    /// event's position in the request's trace stream.
    Progress {
        seq: u64,
        event: TraceEvent,
    },
    Done(GenerateResponse),
    Rejected(RetryAfter),
    Error {
        message: String,
    },
    ShutdownAck,
}

impl ServerFrame {
    /// Whether this frame ends the exchange.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, ServerFrame::Progress { .. })
    }
}

/// Everything that can go wrong at the framing layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The peer closed the stream cleanly before a frame started.
    Closed,
    /// The stream ended mid-frame.
    Truncated { expected: usize, got: usize },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge { len: usize, max: usize },
    /// The payload is not valid UTF-8/JSON or does not match the schema.
    BadFrame(String),
    /// Underlying transport failure.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { expected, got } => {
                write!(f, "stream truncated: expected {expected} byte(s), got {got}")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} byte(s) exceeds the {max}-byte limit")
            }
            WireError::BadFrame(msg) => write!(f, "malformed frame: {msg}"),
            WireError::Io(msg) => write!(f, "transport error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Read the 4-byte length prefix, mapping EOF to a structured error: a
/// clean close before any frame byte, or a truncation after some.
fn read_prefix(r: &mut impl Read) -> Result<[u8; 4], WireError> {
    let mut buf = [0u8; 4];
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Truncated { expected: buf.len(), got }),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(buf)
}

/// Write one frame: length prefix + JSON payload.
pub fn write_frame<T: Serialize>(w: &mut impl Write, frame: &T) -> Result<(), WireError> {
    let payload =
        serde_json::to_string(frame).map_err(|e| WireError::BadFrame(e.to_string()))?.into_bytes();
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { len: payload.len(), max: MAX_FRAME_BYTES });
    }
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len).map_err(|e| WireError::Io(e.to_string()))?;
    w.write_all(&payload).map_err(|e| WireError::Io(e.to_string()))?;
    w.flush().map_err(|e| WireError::Io(e.to_string()))?;
    Ok(())
}

/// Read one frame of type `T`. Never panics: any malformed input yields
/// a structured [`WireError`].
pub fn read_frame<T: serde::Deserialize>(r: &mut impl Read) -> Result<T, WireError> {
    let len = u32::from_le_bytes(read_prefix(r)?) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { len, max: MAX_FRAME_BYTES });
    }
    // The buffer grows with the bytes that arrive, so a prefix alone
    // cannot make the daemon allocate the length it declares. Reading to
    // the end retries `Interrupted` reads.
    let mut payload = Vec::new();
    let got =
        r.take(len as u64).read_to_end(&mut payload).map_err(|e| WireError::Io(e.to_string()))?;
    if got < len {
        return Err(WireError::Truncated { expected: len, got });
    }
    let text =
        String::from_utf8(payload).map_err(|e| WireError::BadFrame(format!("not UTF-8: {e}")))?;
    serde_json::from_str(&text).map_err(|e| WireError::BadFrame(e.to_string()))
}

/// Encode a frame to its exact wire bytes (prefix + payload).
pub fn encode_frame<T: Serialize>(frame: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    write_frame(&mut out, frame)?;
    Ok(out)
}

/// Decode one frame from a byte buffer (must contain exactly one frame).
pub fn decode_frame<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, WireError> {
    let mut cursor = bytes;
    read_frame(&mut cursor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> GenerateRequest {
        GenerateRequest {
            tenant: "team-a".into(),
            dataset: DatasetSpec::Builtin { name: "diabetes".into(), rows: 200, seed: 7 },
            target: Some("label".into()),
            task: Some("binary".into()),
            model: "gemini-1.5-pro".into(),
            route: Some("refine=llama,fix=mini".into()),
            split_mode: Some("exact".into()),
            profile_mode: Some("sketch:4096".into()),
            seed: 9,
            beta: 3,
            alpha: Some(12),
            refine: false,
            stream: true,
        }
    }

    #[test]
    fn client_frames_round_trip() {
        for frame in [
            ClientFrame::Submit(Box::new(request())),
            ClientFrame::Shutdown { token: "secret".into() },
        ] {
            let bytes = encode_frame(&frame).unwrap();
            let back: ClientFrame = decode_frame(&bytes).unwrap();
            assert_eq!(frame, back);
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let frames = vec![
            ServerFrame::Progress {
                seq: 3,
                event: TraceEvent::PromptBuilt { task: "pipeline_generation".into(), tokens: 42 },
            },
            ServerFrame::Done(GenerateResponse {
                pipeline: "pipeline {\n}".into(),
                success: true,
                handcrafted: false,
                attempts: 1,
                train_metric: Some("auc=0.9".into()),
                test_metric: None,
                billed_tokens: 1234,
                llm_calls: 3,
                cache_hits: 0,
                cache_saved_tokens: 0,
                tenant_charged_tokens: 1234,
            }),
            ServerFrame::Rejected(RetryAfter {
                reason: "over_capacity".into(),
                retry_after_seconds: 1.5,
                tenant: "team-a".into(),
            }),
            ServerFrame::Error { message: "unknown model".into() },
            ServerFrame::ShutdownAck,
        ];
        for frame in frames {
            let bytes = encode_frame(&frame).unwrap();
            let back: ServerFrame = decode_frame(&bytes).unwrap();
            assert_eq!(frame, back);
            assert_eq!(frame.is_terminal(), !matches!(frame, ServerFrame::Progress { .. }));
        }
    }

    #[test]
    fn requests_without_route_field_still_decode() {
        // A version-1 client that predates routing omits `route`
        // entirely; the server must read that as "no routing".
        let v = serde_json::to_value(&request());
        let stripped = match v {
            serde_json::Value::Object(m) => serde_json::Value::Object(
                m.iter()
                    .filter(|(k, _)| k.as_str() != "route")
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
                    .into(),
            ),
            _ => unreachable!("requests serialize as objects"),
        };
        let back: GenerateRequest = serde::Deserialize::deserialize(&stripped).unwrap();
        assert_eq!(back.route, None);
        assert_eq!(back.model, request().model);
    }

    #[test]
    fn requests_without_split_mode_field_still_decode() {
        // Clients that never picked a split search omit `split_mode`;
        // the server must read that as exact splits.
        let v = serde_json::to_value(&request());
        let stripped = match v {
            serde_json::Value::Object(m) => serde_json::Value::Object(
                m.iter()
                    .filter(|(k, _)| k.as_str() != "split_mode")
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
                    .into(),
            ),
            _ => unreachable!("requests serialize as objects"),
        };
        let back: GenerateRequest = serde::Deserialize::deserialize(&stripped).unwrap();
        assert_eq!(back.split_mode, None);
        assert_eq!(back.model, request().model);
    }

    #[test]
    fn requests_without_profile_mode_field_still_decode() {
        // Clients that predate sketch profiling omit `profile_mode`;
        // the server must read that as exact profiling.
        let v = serde_json::to_value(&request());
        let stripped = match v {
            serde_json::Value::Object(m) => serde_json::Value::Object(
                m.iter()
                    .filter(|(k, _)| k.as_str() != "profile_mode")
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
                    .into(),
            ),
            _ => unreachable!("requests serialize as objects"),
        };
        let back: GenerateRequest = serde::Deserialize::deserialize(&stripped).unwrap();
        assert_eq!(back.profile_mode, None);
        assert_eq!(back.model, request().model);
    }

    /// A length-prefixed frame around a JSON payload.
    fn frame(json: &str) -> Vec<u8> {
        let mut bytes = (json.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(json.as_bytes());
        bytes
    }

    #[test]
    fn requests_without_exec_mode_field_still_decode() {
        // Version-1 clients may still send `exec_mode` (`seq` | `dag`)
        // from when it picked between two executors. There is one now:
        // the field is ignored, so a frame with it runs the same spec as
        // a frame without it.
        let spec = |json: &str| {
            let ClientFrame::Submit(req) = decode_frame(&frame(json)).unwrap() else {
                panic!("not a Submit frame: {json}")
            };
            req.to_spec(&Transport::default(), 1).unwrap()
        };
        let plain = encode_frame(&ClientFrame::Submit(Box::new(request()))).unwrap();
        let plain = std::str::from_utf8(&plain[4..]).unwrap();
        for mode in ["seq", "dag"] {
            let with =
                plain.replacen(r#"{"tenant":"#, &format!(r#"{{"exec_mode":"{mode}","tenant":"#), 1);
            assert_ne!(with, plain);
            assert_eq!(spec(&with), spec(plain));
        }
    }

    /// A `Submit` payload with every field set and non-default modes, as
    /// the version-1 encoder wrote it before requests were built from a
    /// [`RunSpec`], before `exec_mode` was dropped and before binned split
    /// search was removed.
    const V1_SUBMIT: &str = r#"{"Submit":{"tenant":"team-a","dataset":{"Builtin":{"name":"diabetes","rows":200,"seed":9}},"target":"label","task":"binary","model":"gemini-1.5-pro","route":"refine=llama3.1-70b,generate=gemini-1.5-pro,select=gemini-1.5-pro,fix=gpt-4o-mini:2","split_mode":"binned:128","profile_mode":"sketch:4096","exec_mode":"dag","seed":9,"beta":3,"alpha":12,"refine":false,"stream":true}}"#;

    #[test]
    fn v1_submit_fixture_maps_to_its_spec_and_back_byte_for_byte() {
        let submit = |json: &str| {
            let ClientFrame::Submit(req) = decode_frame(&frame(json)).unwrap() else {
                panic!("not a Submit frame: {json}")
            };
            req
        };
        let transport = Transport { fault_rate: 0.1, ..Transport::default() };
        // The fixture still decodes, but asks for a split search that is gone.
        let err = submit(V1_SUBMIT).to_spec(&transport, 3).expect_err("binned:128");
        assert!(err.starts_with("bad split_mode 'binned:128': binned split search was removed"));

        // Without the two retired fields it is a current request.
        let without = V1_SUBMIT
            .replace(r#""split_mode":"binned:128","#, "")
            .replace(r#""exec_mode":"dag","#, "");
        let req = submit(&without);
        let (spec, task) = req.to_spec(&transport, 3).unwrap();
        let route =
            catdb_llm::RouteSpec::parse("refine=llama,generate=gemini,select=gemini,fix=mini:2");
        let expected = RunSpec {
            model: ModelProfile::gemini_1_5_pro(),
            route: Some(route.unwrap()),
            seed: 9,
            alpha: Some(12),
            beta: 3,
            refine: false,
            llm_concurrency: 3,
            transport,
            profile: ProfileMode::Sketch { chunk_rows: 4096 },
        };
        assert_eq!(spec, expected);
        assert_eq!(task, Some(TaskKind::BinaryClassification));
        let back = GenerateRequest {
            target: req.target.clone(),
            task: req.task.clone(),
            stream: req.stream,
            ..GenerateRequest::from_spec(req.tenant.clone(), req.dataset.clone(), &spec)
        };
        // The encoder writes the unset field as `null`, which decodes as
        // absence does.
        let current = V1_SUBMIT
            .replace(r#""split_mode":"binned:128""#, r#""split_mode":null"#)
            .replace(r#""exec_mode":"dag","#, "");
        assert_eq!(encode_frame(&ClientFrame::Submit(Box::new(back))).unwrap(), frame(&current));
        assert_eq!(submit(&current).to_spec(&transport, 3).unwrap(), (expected, task));
    }

    #[test]
    fn to_spec_errors_name_the_bad_field() {
        let builtin = DatasetSpec::Builtin { name: "wifi".into(), rows: 10, seed: 1 };
        type Edit = fn(&mut GenerateRequest);
        let cases: [(&str, Edit); 5] = [
            ("bad split_mode 'binned:0': binned split search was removed", |r| {
                r.split_mode = Some("binned:0".into())
            }),
            ("bad profile_mode 'sketchy': ", |r| r.profile_mode = Some("sketchy".into())),
            ("bad route 'refine=claude': ", |r| r.route = Some("refine=claude".into())),
            ("unknown model 'gpt-5'", |r| r.model = "gpt-5".into()),
            ("unknown task 'clustering'", |r| r.task = Some("clustering".into())),
        ];
        for (want, set) in cases {
            let mut req = GenerateRequest::new("t", builtin.clone());
            set(&mut req);
            let err = req.to_spec(&Transport::default(), 1).expect_err(want);
            assert!(err.starts_with(want), "{err}");
        }
    }

    #[test]
    fn clean_close_and_truncation_are_distinguished() {
        let empty: &[u8] = &[];
        let mut r = empty;
        assert_eq!(read_frame::<ClientFrame>(&mut r).unwrap_err(), WireError::Closed);

        let bytes = encode_frame(&ClientFrame::Shutdown { token: "t".into() }).unwrap();
        for cut in 1..bytes.len() {
            let mut r = &bytes[..cut];
            match read_frame::<ClientFrame>(&mut r) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"junk");
        let mut r = bytes.as_slice();
        assert_eq!(
            read_frame::<ClientFrame>(&mut r).unwrap_err(),
            WireError::FrameTooLarge { len: u32::MAX as usize, max: MAX_FRAME_BYTES }
        );
    }

    #[test]
    fn a_declared_length_without_its_bytes_is_truncated() {
        let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"0123456789");
        let mut r = bytes.as_slice();
        assert_eq!(
            read_frame::<ClientFrame>(&mut r).unwrap_err(),
            WireError::Truncated { expected: 16_777_216, got: 10 }
        );
    }

    /// A reader that hands out one byte per `read`, and reports an
    /// interrupted read before every byte.
    struct Trickle<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = self.bytes.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_frame_read_one_byte_at_a_time_decodes_unchanged() {
        let bytes = frame(V1_SUBMIT);
        let mut r = Trickle { bytes: &bytes, interrupt: false };
        let trickled: ClientFrame = read_frame(&mut r).unwrap();
        assert_eq!(trickled, decode_frame::<ClientFrame>(&bytes).unwrap());
        assert!(r.bytes.is_empty());
    }

    #[test]
    fn non_json_and_schema_mismatch_yield_bad_frame() {
        // Valid length prefix, invalid UTF-8 payload.
        let mut bytes = 2u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = bytes.as_slice();
        assert!(matches!(read_frame::<ClientFrame>(&mut r), Err(WireError::BadFrame(_))));

        // Valid JSON that is not a ClientFrame.
        let payload = br#"{"NotAVariant":1}"#;
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        let mut r = bytes.as_slice();
        assert!(matches!(read_frame::<ClientFrame>(&mut r), Err(WireError::BadFrame(_))));
    }
}
