//! The `smoqed` TCP server: accept loop, bounded admission queue, and
//! worker pool.
//!
//! The threading model is deliberately simple — plain `std::net` blocking
//! sockets, no async runtime:
//!
//! ```text
//! accept thread ──► bounded VecDeque<TcpStream> ──► worker threads
//!                   (admission queue)               (one connection each)
//! ```
//!
//! The accept thread never evaluates anything: it pushes admitted
//! connections into the queue and immediately returns to `accept()`, so a
//! slow or stuck client cannot wedge admission. When the queue is full the
//! server **sheds load visibly**: the new connection receives a typed
//! [`Response::Busy`] frame (carrying the queue bound) and is closed —
//! never a silent drop — and the shed counter ticks. The close is a
//! half-close held for [`SHED_GRACE`]: closing a socket whose peer's request
//! is still unread sends a reset, which can destroy the `Busy` frame before
//! the peer reads it. Within a connection, requests are answered in order.
//!
//! Workers **rotate** connections rather than owning them until EOF, so
//! idle-but-open clients can never starve waiting ones (with blocking
//! sockets, a worker camped on a silent connection would otherwise be a
//! deadlock whenever live connections ≥ workers — one idle setup client
//! could wedge a single-core server forever). Two rules, both acting only
//! at frame boundaries (mid-frame the stream is not re-enqueueable):
//!
//! * **idle rotation** — polling for the next frame uses a short read
//!   timeout; a connection with nothing to say while others wait in the
//!   queue goes to the back of the queue and the worker takes the oldest
//!   waiting one;
//! * **fairness rotation** — a connection that has streamed
//!   [`FAIR_BURST`] back-to-back requests while others wait is rotated
//!   too, so a firehose client gets time slices, not a monopoly.
//!
//! Rotated connections re-enter the queue exempt from the admission bound
//! (they were already admitted; the bound gates new connections only).
//!
//! A frame in flight cannot be rotated, so it is read under a **deadline**:
//! 2 s from its first byte, extended by the announced body length at
//! 256 KiB/s once the length prefix is in. A client that stalls mid-frame
//! therefore holds its worker for a bounded time, not for as long as it
//! stays connected.
//!
//! Error handling per connection:
//!
//! * clean EOF between frames, or a transport error → close quietly (an
//!   abruptly vanishing client is normal, and only its own worker
//!   notices — the accept loop is untouched);
//! * malformed frame (bad length prefix, truncated body) or a frame not
//!   complete by its deadline → the stream can no longer be trusted to be
//!   frame-aligned: best-effort `Error(Protocol)` frame, then close;
//! * well-formed frame whose body fails to decode → the stream is still
//!   aligned (length-delimited framing): answer a typed `Error(Protocol)`
//!   frame and keep serving;
//! * a request whose handler panics → the panic is caught at the request
//!   boundary, answered with a typed `Error(Internal)` frame and counted;
//!   the worker and the connection serve on.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use smoqe::ServiceConfig;

use crate::protocol::{
    decode_request, encode_response, read_frame_body, read_frame_len_after, write_frame, ErrorCode,
    FrameError, Request, Response,
};
use crate::tenant::{handle_request, ServerCounters, TenantRegistry};

/// How long a worker waits for a connection's next frame before
/// considering it idle (and rotating it if others are waiting). Bounds
/// the queueing delay an idle connection can inflict on a waiting one.
pub const IDLE_POLL: Duration = Duration::from_millis(25);

/// Back-to-back requests one connection may stream while others wait
/// before it is rotated to the back of the queue.
pub const FAIR_BURST: u32 = 32;

/// How long a shed connection stays half-closed (its `Busy` frame and end
/// of stream sent, its socket open) at least. The next shed after that
/// drops it, or the server's shutdown.
pub const SHED_GRACE: Duration = Duration::from_secs(1);

/// Shed connections held half-closed at once; past this the oldest is
/// dropped early.
const SHED_HELD_MAX: usize = 64;

/// The time a frame may take from its first byte, whatever its length.
const FRAME_DEADLINE_MIN: Duration = Duration::from_secs(2);

/// The slowest transfer rate, in bytes per second, a frame in flight may
/// keep up: a frame that announces `len` body bytes must be complete
/// within [`FRAME_DEADLINE_MIN`] plus `len / FRAME_MIN_RATE` seconds (about
/// 4.5 minutes for a [`MAX_FRAME_LEN`](crate::protocol::MAX_FRAME_LEN)
/// frame).
const FRAME_MIN_RATE: f64 = 256.0 * 1024.0;

/// Tuning knobs for [`Server::spawn`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads serving connections; `0` means one per core.
    pub workers: usize,
    /// Admission queue bound: connections waiting beyond the ones being
    /// served. When full, new connections are shed with a `Busy` frame.
    pub queue_capacity: usize,
    /// Per-tenant service configuration (cache capacities, segments).
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            service: ServiceConfig::default(),
        }
    }
}

/// The admission queue: a bounded deque plus a condvar for the workers.
struct Admission {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    capacity: usize,
}

/// Shared server state.
struct Shared {
    registry: TenantRegistry,
    counters: ServerCounters,
    admission: Admission,
    shutdown: AtomicBool,
    /// One slot per worker holding a clone of the stream it is currently
    /// serving. `shutdown()` closes these so workers blocked in
    /// `read_frame` on an idle-but-open connection wake up and exit —
    /// otherwise joining the pool could wait on a client forever.
    active: Vec<Mutex<Option<TcpStream>>>,
}

/// A running `smoqed` server. Dropping the handle shuts the server down
/// and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts the accept loop plus the worker pool.
    pub fn spawn(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let workers = if config.workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            registry: TenantRegistry::new(config.service),
            counters: ServerCounters::new(config.queue_capacity as u32),
            admission: Admission {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                capacity: config.queue_capacity,
            },
            shutdown: AtomicBool::new(false),
            active: (0..workers).map(|_| Mutex::new(None)).collect(),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("smoqed-accept".into())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            pool.push(
                thread::Builder::new()
                    .name(format!("smoqed-worker-{i}"))
                    .spawn(move || worker_loop(&worker_shared, i))?,
            );
        }

        Ok(Server {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
            workers: pool,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's tenant registry (for in-process seeding: a test or
    /// bench can register views/documents directly instead of over the
    /// wire).
    pub fn registry(&self) -> &TenantRegistry {
        &self.shared.registry
    }

    /// The server's counters.
    pub fn counters(&self) -> &ServerCounters {
        &self.shared.counters
    }

    /// Stops accepting, drains the workers, and joins every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock `accept()` with a throwaway connection; the accept loop
        // re-checks the flag before enqueueing it.
        let _ = TcpStream::connect(self.addr);
        // Unblock workers parked on the condvar.
        self.shared.admission.ready.notify_all();
        // Unblock workers parked in a blocking read on a live connection.
        for slot in &self.shared.active {
            if let Some(stream) = slot.lock().expect("active slot lock poisoned").as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    // Shed connections in their grace period, oldest first.
    let mut held: VecDeque<(Instant, TcpStream)> = VecDeque::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared
            .counters
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        let mut queue = shared
            .admission
            .queue
            .lock()
            .expect("admission queue lock poisoned");
        if queue.len() >= shared.admission.capacity {
            drop(queue);
            held.retain(|(since, _)| since.elapsed() < SHED_GRACE);
            if held.len() == SHED_HELD_MAX {
                held.pop_front();
            }
            held.push_back((Instant::now(), shed(shared, stream)));
            continue;
        }
        queue.push_back(stream);
        shared
            .counters
            .queue_depth
            .store(queue.len() as u64, Ordering::Relaxed);
        drop(queue);
        shared.admission.ready.notify_one();
    }
}

/// Sheds one connection: typed `Busy` frame (best effort — the peer may
/// already be gone), then end of stream. Returns the half-closed stream for
/// the caller to hold through its grace period.
fn shed(shared: &Shared, mut stream: TcpStream) -> TcpStream {
    shared.counters.shed_total.fetch_add(1, Ordering::Relaxed);
    let body = encode_response(&Response::Busy {
        queue_capacity: shared.admission.capacity as u32,
    });
    let _ = write_frame(&mut stream, &body);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    stream
}

fn worker_loop(shared: &Shared, index: usize) {
    loop {
        let stream = {
            let mut queue = shared
                .admission
                .queue
                .lock()
                .expect("admission queue lock poisoned");
            loop {
                if let Some(stream) = queue.pop_front() {
                    shared
                        .counters
                        .queue_depth
                        .store(queue.len() as u64, Ordering::Relaxed);
                    break stream;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .admission
                    .ready
                    .wait(queue)
                    .expect("admission queue lock poisoned");
            }
        };
        // Publish the connection so shutdown() can unblock this worker,
        // re-checking the flag to close the race where shutdown() swept
        // the slots while this stream was still queue-local.
        *shared.active[index]
            .lock()
            .expect("active slot lock poisoned") = stream.try_clone().ok();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let rotated = handle_connection(shared, stream);
        *shared.active[index]
            .lock()
            .expect("active slot lock poisoned") = None;
        if let Some(stream) = rotated {
            requeue(shared, stream);
        }
    }
}

/// Hands a rotated (already-admitted) connection back to the queue. Not
/// subject to the admission bound — shedding an established connection
/// would turn fairness into data loss.
fn requeue(shared: &Shared, stream: TcpStream) {
    let mut queue = shared
        .admission
        .queue
        .lock()
        .expect("admission queue lock poisoned");
    queue.push_back(stream);
    shared
        .counters
        .queue_depth
        .store(queue.len() as u64, Ordering::Relaxed);
    drop(queue);
    shared.admission.ready.notify_one();
}

/// True when another connection is waiting for a worker.
fn others_waiting(shared: &Shared) -> bool {
    !shared
        .admission
        .queue
        .lock()
        .expect("admission queue lock poisoned")
        .is_empty()
}

/// Serves one connection until EOF, transport error, a desynchronizing
/// frame error — or a rotation point (idle, or `FAIR_BURST` consecutive
/// frames, while others wait), in which case the frame-aligned stream is
/// returned for requeueing. Never panics on malformed input: every decode
/// failure becomes a typed error frame.
fn handle_connection(shared: &Shared, mut stream: TcpStream) -> Option<TcpStream> {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return None;
    }
    let mut burst = 0u32;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        // Poll for the first byte of the next frame with the idle timeout
        // armed: this is the only blocking point where nothing has been
        // received, so it is the only point where rotating is safe.
        let mut first = [0u8; 1];
        match stream.read(&mut first) {
            // Clean EOF between frames: the client is done.
            Ok(0) => return None,
            Ok(_) => {}
            Err(e) if timed_out(&e) => {
                // Idle at a frame boundary. Rotate if someone is waiting;
                // otherwise keep polling (the next poll also re-checks the
                // shutdown flag).
                burst = 0;
                if others_waiting(shared) {
                    return Some(stream);
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transport failure (the client vanished mid-request): close.
            // Only this worker notices; the accept loop keeps admitting.
            Err(_) => return None,
        }
        // A frame has begun and cannot be requeued half read: finish it
        // under its deadline.
        let mut frame = FrameDeadline {
            stream: &stream,
            deadline: Instant::now() + FRAME_DEADLINE_MIN,
        };
        let read = read_frame_len_after(first[0], &mut frame).and_then(|len| {
            frame.deadline += Duration::from_secs_f64(f64::from(len) / FRAME_MIN_RATE);
            read_frame_body(len, &mut frame)
        });
        let body = match read {
            Ok(body) => body,
            Err(FrameError::Io(e)) if !timed_out(&e) => return None,
            Err(e) => {
                // Bad length prefix, truncated body or a stalled frame: the
                // stream is no longer frame-aligned. Answer (best effort)
                // and close.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let message = match e {
                    FrameError::Protocol(e) => e.to_string(),
                    FrameError::Io(_) => "frame not complete by its deadline".to_owned(),
                };
                let body = encode_response(&Response::Error {
                    code: ErrorCode::Protocol,
                    message,
                });
                let _ = write_frame(&mut stream, &body);
                return None;
            }
        };
        let response = match decode_request(&body) {
            Ok(request) => {
                shared
                    .counters
                    .requests_total
                    .fetch_add(1, Ordering::Relaxed);
                answer(shared, &request)
            }
            Err(e) => {
                // The frame itself was well-formed, so the stream is still
                // aligned: answer the typed error and keep serving.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                }
            }
        };
        let body = encode_response(&response);
        if write_frame(&mut stream, &body).is_err() {
            return None;
        }
        if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
            return None;
        }
        // Fairness: a connection streaming requests back-to-back yields
        // after a burst when others are waiting.
        burst += 1;
        if burst >= FAIR_BURST && others_waiting(shared) {
            return Some(stream);
        }
    }
}

/// Answers one request, turning a panic in its handler into a typed
/// `Error(Internal)` response and a count, so the worker lives on.
///
/// The handler's shared state is the tenant registry and each tenant's
/// service and store; a panic leaves them as they were at the panic, and a
/// lock it poisoned fails the later requests that take it the same way —
/// each answered, none fatal to the worker.
fn answer(shared: &Shared, request: &Request) -> Response {
    let handled = panic::catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        tests::panic_on_marker(request);
        handle_request(&shared.registry, &shared.counters, request)
    }));
    handled.unwrap_or_else(|payload| {
        shared.counters.panics_total.fetch_add(1, Ordering::Relaxed);
        let detail = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message");
        Response::Error {
            code: ErrorCode::Internal,
            message: format!("request handler panicked: {detail}"),
        }
    })
}

/// True for the error a read returns once its socket timeout has passed.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A frame in flight: reads from the connection until `deadline`, arming
/// the socket's read timeout with the time left before every read.
struct FrameDeadline<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for FrameDeadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_request, read_frame, view_to_wire};
    use smoqe::EvaluationMode;
    use smoqe_toxgene::{generate_hospital, HospitalConfig};
    use smoqe_views::hospital_view;
    use smoqe_xml::snapshot;

    /// A `Query` with this text panics inside the request handler.
    const PANIC_QUERY: &str = "panic-in-handler";

    pub(super) fn panic_on_marker(request: &Request) {
        if matches!(request, Request::Query { query, .. } if query == PANIC_QUERY) {
            panic!("injected handler panic");
        }
    }

    /// One request and its answer over `stream`; a closed connection or a
    /// read past the stream's timeout fails the test.
    fn call(stream: &mut TcpStream, request: &Request) -> Response {
        write_frame(stream, &encode_request(request)).expect("request sent");
        let body = read_frame(stream)
            .expect("an answer before the read timeout")
            .expect("an answer, not a closed connection");
        decode_response(&body).expect("a typed response")
    }

    fn connect(server: &Server) -> TcpStream {
        let stream = TcpStream::connect(server.addr()).expect("client connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    }

    fn query(tenant: &str, doc: u64, query: &str) -> Request {
        Request::Query {
            tenant: tenant.into(),
            doc,
            mode: EvaluationMode::HyPE,
            query: query.into(),
        }
    }

    #[test]
    fn a_panicking_request_is_answered_internal_and_the_worker_serves_on() {
        let mut server = Server::spawn(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_capacity: 8,
                service: ServiceConfig::default(),
            },
        )
        .expect("server spawns");
        let mut first = connect(&server);
        let (document_dtd, view_dtd, annotations) = view_to_wire(&hospital_view());
        let resp = call(
            &mut first,
            &Request::RegisterView {
                tenant: "nurse".into(),
                document_dtd,
                view_dtd,
                annotations,
            },
        );
        assert!(matches!(resp, Response::ViewRegistered { .. }), "{resp:?}");
        let tree = generate_hospital(&HospitalConfig {
            patients: 4,
            ..Default::default()
        });
        let resp = call(
            &mut first,
            &Request::RegisterDocument {
                tenant: "nurse".into(),
                snapshot: snapshot::save(&tree),
            },
        );
        let Response::DocumentRegistered { doc } = resp else {
            panic!("expected DocumentRegistered, got {resp:?}");
        };

        let resp = call(&mut first, &query("nurse", doc, PANIC_QUERY));
        let Response::Error {
            code: ErrorCode::Internal,
            message,
        } = resp
        else {
            panic!("a panicking handler earns a typed Internal error, got {resp:?}");
        };
        assert!(message.contains("injected handler panic"), "{message}");

        // The only worker lives on: the same connection and a new one are
        // both answered on the same tenant.
        let resp = call(&mut first, &query("nurse", doc, "patient"));
        let Response::Answer(answer) = resp else {
            panic!("expected an Answer after the panic, got {resp:?}");
        };
        assert!(!answer.answers.is_empty());
        let resp = call(&mut connect(&server), &query("nurse", doc, "patient"));
        assert_eq!(resp, Response::Answer(answer));

        assert_eq!(server.counters().panics_total.load(Ordering::Relaxed), 1);
        assert_eq!(server.counters().requests_total.load(Ordering::Relaxed), 5);
        server.shutdown();
    }
}
