//! `smoqed` — the SMOQE-RS serving surface: a multi-tenant TCP query
//! server, its wire protocol, and a blocking client.
//!
//! The paper's security-view architecture is per-user-class by
//! construction: every user class sees the document only through its own
//! view σ, and every query is posed on (and rewritten through) that σ.
//! `smoqed` turns that into a serving model:
//!
//! * **[`protocol`]** — a small length-prefixed binary wire protocol
//!   (`RegisterView` / `RegisterDocument` / `Query` / `BatchQuery` /
//!   `ApplyEdit` / `Stats`), with total decoding: malformed bytes produce
//!   typed errors, never panics.
//! * **[`tenant`]** — the tenant registry: tenant → [`QueryService`] +
//!   [`DocumentStore`], so caches are accounted per tenant and document
//!   visibility is tenant-scoped. A tenant evaluating outside its σ is
//!   unrepresentable.
//! * **[`server`]** — the blocking TCP server: accept thread, bounded
//!   admission queue with typed [`Busy`](protocol::Response::Busy)
//!   load-shedding, worker pool, and a stats endpoint exposing
//!   [`ServiceStats`] plus queue depth and shed counts.
//! * **[`client`]** — a thin blocking client used by the tests, the
//!   `speedup_gates` bench, and the demo. Load against a running server is
//!   measured end to end by perfbench's `serve_mix` workload.
//!
//! Quick start (in-process):
//!
//! ```
//! use smoqed::{Server, ServerConfig, SmoqedClient, EvaluationMode};
//! use smoqe_views::hospital_view;
//! use smoqe_toxgene::{generate_hospital, HospitalConfig};
//!
//! let mut server = Server::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = SmoqedClient::connect(server.addr()).unwrap();
//!
//! client.register_view("nurse", &hospital_view()).unwrap();
//! let doc = generate_hospital(&HospitalConfig { patients: 3, ..Default::default() });
//! let id = client
//!     .register_document("nurse", &smoqe_xml::snapshot::save(&doc))
//!     .unwrap();
//! let result = client
//!     .query("nurse", id, EvaluationMode::HyPE, "patient")
//!     .unwrap();
//! assert!(!result.answers.is_empty());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod tenant;

pub use client::{ClientError, SmoqedClient};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrorCode, FrameError, ProtocolError, Request, Response, WireDtd, WireEditOp, WireResult,
    WireStats, MAX_FRAME_LEN,
};
pub use server::{Server, ServerConfig};
pub use tenant::{handle_request, ServerCounters, Tenant, TenantRegistry};

// Re-exported so client code can name evaluation modes and service types
// without depending on `smoqe` directly.
pub use smoqe::{DocumentStore, EvaluationMode, QueryService, ServiceConfig, ServiceStats};
