//! `catdb-serve` — the multi-tenant `catdb serve` daemon and its wire
//! protocol.
//!
//! A [`Server`] multiplexes concurrent pipeline-generation requests over
//! one shared LLM completion cache, the process-wide `catdb-runtime`
//! pool, and the profiler memos, while an [`AdmissionController`]
//! enforces per-tenant token budgets and a bounded in-flight limit —
//! over-capacity work is shed with a structured [`RetryAfter`], never
//! queued without bound.
//!
//! The protocol is length-prefixed JSON ([`protocol`]) over any
//! `Read + Write` byte stream: TCP in production ([`Server::serve_tcp`]),
//! an in-process duplex pipe ([`transport::duplex`],
//! [`Server::connect_in_proc`]) in tests and benches — the same code
//! path either way.

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;
pub mod transport;

pub use admission::{
    AdmissionController, AdmissionOptions, BudgetPolicy, Clock, ManualClock, Permit, Shed,
    ShedReason, WallClock,
};
pub use client::{drive_concurrent, shutdown, submit, Outcome};
pub use protocol::{
    dataset_name, ClientFrame, DatasetSpec, GenerateRequest, GenerateResponse, RetryAfter,
    ServerFrame, WireError, PROTOCOL_VERSION,
};
pub use server::{Gate, ServeOptions, Server, SPAN_SERVE_REQUEST};
pub use transport::{duplex, DuplexStream};
