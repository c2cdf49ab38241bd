//! The TCP front end: a [`WireServer`] that speaks the
//! [`persona::wire`] protocol and schedules everything it admits onto
//! the one shared [`PersonaService`].
//!
//! Threading model: **one event-loop thread** over nonblocking
//! sockets — no thread per connection, no thread per wait, no external
//! runtime. The loop owns the listener and every accepted connection
//! and multiplexes them through one `epoll(7)` instance (so the server
//! builds on Linux only); other threads wake it by writing a byte into
//! its socket pair. A connection is a pure state machine
//! (`Conn` in `conn.rs`): an incremental frame decoder feeds request
//! dispatch, replies queue on a buffered writer, and `wait` reply
//! streams ride job-completion watchers ([`crate::job::JobHandle::on_done`])
//! that post back to the loop — so thousands of idle or
//! pipelined connections cost file descriptors, not threads. All
//! pipeline compute still happens on the shared
//! [`persona::runtime::PersonaRuntime`] behind the service's
//! fair-share scheduler; the front end only moves frames.
//!
//! Connections speak protocol v2 (see `docs/PROTOCOL.md`): they may
//! pipeline many requests and carry a credit-based flow-control
//! window. The server pauses a job's output-chunk stream when the
//! window is exhausted (`wire.backpressure_stalls`) and resumes on the
//! next `credit` grant. Any other hello version gets an
//! `unsupported-version` reply and the connection closes.
//!
//! Error handling follows the spec (`docs/PROTOCOL.md`): a frame whose
//! lengths are intact but whose header does not decode gets a typed
//! [`persona::wire::Message::Error`] reply and the connection
//! continues; a frame that
//! breaks the framing itself (oversize or truncated) gets a
//! best-effort `bad-frame` reply and the connection closes. A client
//! that disconnects — cleanly or not — has its still-unfinished jobs
//! cancelled (cancel-on-disconnect), so an abandoned connection can
//! never pin fair-share slots.
//!
//! The front end keeps no jobs of its own: every request naming a job
//! reads the service's one registry ([`PersonaService::job`],
//! [`PersonaService::jobs`]), from any connection.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use persona::wire::{WireReport, WireTenant};
use persona_align::Aligner;
use persona_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::event_loop::{EventLoop, LoopCmd, LoopHandle};
use crate::report::ServiceReport;
use crate::service::PersonaService;

/// Concurrent open `wait` reply streams allowed per connection;
/// further waits are refused with `invalid-request` until one
/// resolves.
pub(crate) const MAX_WAITERS_PER_CONN: usize = 64;

/// Server-side resources for wire submissions. Kernel resources cannot
/// travel over the wire, so plans that align use the server's
/// configured aligner.
#[derive(Default)]
pub struct WireServerConfig {
    /// The aligner handed to every admitted plan that contains an
    /// align stage. A submission that aligns is rejected with
    /// `invalid-request` when this is `None`.
    pub aligner: Option<Arc<dyn Aligner>>,
}

/// The front end's own handles into the shared metrics registry
/// (`wire.*` names; see `docs/OBSERVABILITY.md`).
pub(crate) struct WireMetrics {
    /// `wire.frame_decode_ns`: header JSON → typed [`Message`] decode
    /// time. Measured per decoded frame, never across socket waits.
    pub(crate) decode_ns: Histogram,
    /// `wire.bytes_in`: bytes read off every connection's socket.
    pub(crate) bytes_in: Counter,
    /// `wire.bytes_out`: bytes written to every connection's socket.
    pub(crate) bytes_out: Counter,
    /// `wire.in_flight_seqs`: `wait` reply streams currently open.
    pub(crate) in_flight_seqs: Gauge,
    /// `wire.connections`: connections currently registered with the
    /// event loop.
    pub(crate) connections: Gauge,
    /// `wire.pending_writes`: reply bytes queued but not yet written
    /// to any socket.
    pub(crate) pending_writes: Gauge,
    /// `wire.backpressure_stalls`: output streams paused on an
    /// exhausted credit window (counts pause *transitions*, not ticks).
    pub(crate) backpressure_stalls: Counter,
}

impl WireMetrics {
    fn register(registry: &MetricsRegistry) -> WireMetrics {
        WireMetrics {
            decode_ns: registry.histogram("wire.frame_decode_ns"),
            bytes_in: registry.counter("wire.bytes_in"),
            bytes_out: registry.counter("wire.bytes_out"),
            in_flight_seqs: registry.gauge("wire.in_flight_seqs"),
            connections: registry.gauge("wire.connections"),
            pending_writes: registry.gauge("wire.pending_writes"),
            backpressure_stalls: registry.counter("wire.backpressure_stalls"),
        }
    }
}

/// Server-wide state shared by the event loop and every connection.
pub(crate) struct WireShared {
    pub(crate) service: PersonaService,
    pub(crate) metrics: WireMetrics,
    pub(crate) config: WireServerConfig,
    pub(crate) shutdown: AtomicBool,
}

/// A TCP front end over one [`PersonaService`]. Binding spawns the
/// event-loop thread; dropping the server (or calling
/// [`WireServer::stop`]) stops accepting, cancels every job of the
/// service that is still in flight, disconnects clients, and shuts the
/// service down.
pub struct WireServer {
    shared: Arc<WireShared>,
    local_addr: SocketAddr,
    handle: Arc<LoopHandle>,
    thread: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port) and starts serving `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: PersonaService,
        config: WireServerConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = WireMetrics::register(service.runtime().telemetry());
        let shared =
            Arc::new(WireShared { service, metrics, config, shutdown: AtomicBool::new(false) });
        let (event_loop, handle) = EventLoop::new(shared.clone(), listener)?;
        // A spawn failure (thread exhaustion at bind time) is an
        // ordinary bind error; the service moved into `shared` shuts
        // down when the last reference drops.
        let thread = std::thread::Builder::new()
            .name("persona-wire-loop".into())
            .spawn(|| event_loop.run())?;
        Ok(WireServer { shared, local_addr, handle, thread: Some(thread) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service this front end feeds (for in-process inspection —
    /// reports, tenant configuration).
    pub fn service(&self) -> &PersonaService {
        &self.shared.service
    }

    /// Stops the front end: in-flight jobs are cancelled, the event
    /// loop drops its connections and exits (closing the listening
    /// port), and the underlying service stops admitting
    /// (queued jobs resolve as cancelled, runners are joined).
    /// Idempotent; also invoked by `Drop`.
    pub fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Cancel outstanding jobs first so completion watchers (and
        // the service shutdown below) resolve quickly.
        let jobs = self.shared.service.jobs();
        jobs.iter().filter(|h| !h.status().is_terminal()).for_each(|h| h.cancel());
        self.handle.post(LoopCmd::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.shared.service.stop();
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

pub(crate) fn to_wire_report(report: &ServiceReport) -> WireReport {
    WireReport {
        elapsed_s: report.elapsed.as_secs_f64(),
        workers: report.workers as u64,
        tenants: report
            .tenants
            .iter()
            .map(|t| WireTenant {
                tenant: t.tenant.clone(),
                weight: t.weight,
                submitted: t.submitted,
                completed: t.completed,
                failed: t.failed,
                cancelled: t.cancelled,
                queued: t.queued as u64,
                running: t.running as u64,
                reads: t.reads,
                reads_per_sec: t.reads_per_sec(),
            })
            .collect(),
    }
}
