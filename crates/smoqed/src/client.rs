//! A blocking `smoqed` client: one TCP connection, one in-flight request.
//!
//! The client is a thin, synchronous wrapper over the wire protocol —
//! `request()` writes one frame and reads one frame. Convenience methods
//! unwrap the expected response variant and turn everything else into a
//! typed [`ClientError`], so call sites read like local calls:
//!
//! ```no_run
//! use smoqed::{SmoqedClient, EvaluationMode};
//! use smoqe_views::hospital_view;
//!
//! let mut client = SmoqedClient::connect("127.0.0.1:7878")?;
//! let fp = client.register_view("nurse", &hospital_view())?;
//! # let snapshot_bytes: Vec<u8> = vec![];
//! let doc = client.register_document("nurse", &snapshot_bytes)?;
//! let result = client.query("nurse", doc, EvaluationMode::HyPE, "patient")?;
//! println!("view {fp:#x}: {} answers", result.answers.len());
//! # Ok::<(), smoqed::ClientError>(())
//! ```

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use smoqe::EvaluationMode;
use smoqe_views::ViewDefinition;

use crate::protocol::{
    decode_response, encode_request, read_frame, view_to_wire, write_frame, ErrorCode, FrameError,
    ProtocolError, Request, Response, WireEditOp, WireResult, WireStats,
};

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write), or the server closed
    /// the connection without answering.
    Io(io::Error),
    /// The server's bytes did not decode as a response frame.
    Protocol(ProtocolError),
    /// The server answered with a typed error frame.
    Server {
        /// What failed.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server shed this connection (admission queue full). Retry
    /// later; the carried value is the server's queue bound.
    Busy {
        /// The admission queue bound that was hit.
        queue_capacity: u32,
    },
    /// The server answered with a well-formed response of the wrong kind
    /// for the request (a server bug; surfaced, not swallowed). Boxed to
    /// keep `Result<_, ClientError>` small on the happy path.
    Unexpected(Box<Response>),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed: {e}"),
            ClientError::Protocol(e) => write!(f, "malformed server response: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Busy { queue_capacity } => {
                write!(
                    f,
                    "server busy (admission queue of {queue_capacity} is full)"
                )
            }
            ClientError::Unexpected(resp) => write!(f, "unexpected response: {resp:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Protocol(e) => ClientError::Protocol(e),
        }
    }
}

/// A blocking connection to a `smoqed` server.
pub struct SmoqedClient {
    stream: TcpStream,
}

impl SmoqedClient {
    /// Connects to the server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<SmoqedClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(SmoqedClient { stream })
    }

    /// Sends one request and reads one response. `Busy` and `Error`
    /// frames pass through as `Ok` here — the typed convenience methods
    /// below convert them; use this directly to observe them raw.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let body = encode_request(request);
        write_frame(&mut self.stream, &body)?;
        match read_frame(&mut self.stream)? {
            Some(body) => Ok(decode_response(&body)?),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection without answering",
            ))),
        }
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        extract: impl FnOnce(Response) -> Result<T, Box<Response>>,
    ) -> Result<T, ClientError> {
        match self.request(request)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            Response::Busy { queue_capacity } => Err(ClientError::Busy { queue_capacity }),
            other => extract(other).map_err(ClientError::Unexpected),
        }
    }

    /// Registers (or replaces) `tenant`'s view; returns its fingerprint.
    pub fn register_view(
        &mut self,
        tenant: &str,
        view: &ViewDefinition,
    ) -> Result<u64, ClientError> {
        let (document_dtd, view_dtd, annotations) = view_to_wire(view);
        self.expect(
            &Request::RegisterView {
                tenant: tenant.to_owned(),
                document_dtd,
                view_dtd,
                annotations,
            },
            |resp| match resp {
                Response::ViewRegistered { fingerprint } => Ok(fingerprint),
                other => Err(Box::new(other)),
            },
        )
    }

    /// Registers a document (snapshot bytes) with `tenant`; returns its
    /// tenant-scoped id.
    pub fn register_document(&mut self, tenant: &str, snapshot: &[u8]) -> Result<u64, ClientError> {
        self.expect(
            &Request::RegisterDocument {
                tenant: tenant.to_owned(),
                snapshot: snapshot.to_vec(),
            },
            |resp| match resp {
                Response::DocumentRegistered { doc } => Ok(doc),
                other => Err(Box::new(other)),
            },
        )
    }

    /// Evaluates one query over one of the tenant's documents.
    pub fn query(
        &mut self,
        tenant: &str,
        doc: u64,
        mode: EvaluationMode,
        query: &str,
    ) -> Result<WireResult, ClientError> {
        self.expect(
            &Request::Query {
                tenant: tenant.to_owned(),
                doc,
                mode,
                query: query.to_owned(),
            },
            |resp| match resp {
                Response::Answer(result) => Ok(result),
                other => Err(Box::new(other)),
            },
        )
    }

    /// Evaluates a batch of queries over one document in a shared pass;
    /// returns per-query results (index-aligned with `queries`) and the
    /// aggregate batch statistics.
    pub fn batch_query(
        &mut self,
        tenant: &str,
        doc: u64,
        mode: EvaluationMode,
        queries: &[&str],
    ) -> Result<(Vec<WireResult>, crate::protocol::WireBatchStats), ClientError> {
        self.expect(
            &Request::BatchQuery {
                tenant: tenant.to_owned(),
                doc,
                mode,
                queries: queries.iter().map(|q| (*q).to_owned()).collect(),
            },
            |resp| match resp {
                Response::BatchAnswer { results, stats } => Ok((results, stats)),
                other => Err(Box::new(other)),
            },
        )
    }

    /// Applies edit ops to one of the tenant's documents; returns
    /// `(old_doc, new_doc, generation)` of the new version.
    pub fn apply_edit(
        &mut self,
        tenant: &str,
        doc: u64,
        ops: Vec<WireEditOp>,
    ) -> Result<(u64, u64, u32), ClientError> {
        self.expect(
            &Request::ApplyEdit {
                tenant: tenant.to_owned(),
                doc,
                ops,
            },
            |resp| match resp {
                Response::EditApplied {
                    old_doc,
                    new_doc,
                    generation,
                    ..
                } => Ok((old_doc, new_doc, generation)),
                other => Err(Box::new(other)),
            },
        )
    }

    /// Reads the server counters, plus `tenant`'s cache statistics when a
    /// tenant is named.
    pub fn stats(&mut self, tenant: Option<&str>) -> Result<WireStats, ClientError> {
        self.expect(
            &Request::Stats {
                tenant: tenant.map(str::to_owned),
            },
            |resp| match resp {
                Response::Stats(stats) => Ok(stats),
                other => Err(Box::new(other)),
            },
        )
    }
}
