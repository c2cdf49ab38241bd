//! The readiness loop behind [`crate::wire::WireServer`]: one
//! event-loop thread (no thread per connection, no external runtime)
//! that owns a [`Poller`], the listener and every connection.
//! Cross-thread work arrives as [`LoopCmd`]s through a
//! mutex-protected injector plus a poller [`Waker`].
//!
//! [`Waker`]: crate::poll::Waker

use std::collections::HashMap;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::conn::Conn;
use crate::job::JobOutcome;
use crate::poll::{PollEvent, Poller, WAKER_TOKEN};
use crate::wire::WireShared;

/// The token the listener is registered under.
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// Work posted to an event loop from another thread.
pub(crate) enum LoopCmd {
    /// A job a connection was waiting on reached its terminal state.
    JobDone { token: u64, seq: u64, job_id: u64, outcome: Arc<JobOutcome> },
    /// Drop every connection and exit the loop thread.
    Shutdown,
}

/// The cross-thread half of an event loop: anyone holding this can
/// inject work and wake the loop out of its poll wait.
pub(crate) struct LoopHandle {
    injector: Mutex<Vec<LoopCmd>>,
    waker: crate::poll::Waker,
}

impl LoopHandle {
    pub(crate) fn post(&self, cmd: LoopCmd) {
        self.injector.lock().push(cmd);
        self.waker.wake();
    }
}

/// Context threaded through connection callbacks: the server-wide
/// shared state plus this loop's own handle (for completion watchers
/// to post back to).
pub(crate) struct LoopCtx<'a> {
    pub(crate) shared: &'a Arc<WireShared>,
    pub(crate) handle: &'a Arc<LoopHandle>,
}

pub(crate) struct EventLoop {
    poller: Poller,
    handle: Arc<LoopHandle>,
    shared: Arc<WireShared>,
    conns: HashMap<u64, Conn>,
    /// Last interest registered per token, to elide no-op `modify`s.
    interests: HashMap<u64, (bool, bool)>,
    listener: TcpListener,
    next_token: u64,
}

impl EventLoop {
    /// Builds the loop around a fresh poller watching `listener`.
    pub(crate) fn new(
        shared: Arc<WireShared>,
        listener: TcpListener,
    ) -> std::io::Result<(EventLoop, Arc<LoopHandle>)> {
        let mut poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        let handle =
            Arc::new(LoopHandle { injector: Mutex::new(Vec::new()), waker: poller.waker() });
        Ok((
            EventLoop {
                poller,
                handle: handle.clone(),
                shared,
                conns: HashMap::new(),
                interests: HashMap::new(),
                listener,
                next_token: 0,
            },
            handle,
        ))
    }

    /// The loop body: poll, drain injected commands, service readiness,
    /// re-arm interest. Runs until a [`LoopCmd::Shutdown`] arrives.
    pub(crate) fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            // The waker interrupts this wait whenever a command is
            // posted; the 1s timeout is only a backstop.
            let _ = self.poller.wait(&mut events, 1_000);
            if self.drain_cmds() {
                self.shutdown();
                return;
            }
            for &ev in &events {
                match ev.token {
                    WAKER_TOKEN => {}
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
        }
    }

    /// Returns `true` when a shutdown command arrived.
    fn drain_cmds(&mut self) -> bool {
        let cmds = std::mem::take(&mut *self.handle.injector.lock());
        let mut shutdown = false;
        for cmd in cmds {
            match cmd {
                LoopCmd::JobDone { token, seq, job_id, outcome } => {
                    let handle = self.handle.clone();
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let cx = LoopCtx { shared: &self.shared, handle: &handle };
                        conn.job_done(&cx, seq, job_id, outcome);
                        conn.try_flush(&cx);
                        self.after_activity(token);
                    }
                    // A connection that closed before its job finished
                    // already released its accounting.
                }
                LoopCmd::Shutdown => shutdown = true,
            }
        }
        shutdown
    }

    fn add_conn(&mut self, stream: std::net::TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        let conn = match Conn::new(stream, token) {
            Ok(conn) => conn,
            Err(_) => return,
        };
        if self.poller.register(conn.fd(), token, true, false).is_err() {
            return;
        }
        self.interests.insert(token, (true, false));
        self.shared.metrics.connections.add(1);
        self.conns.insert(token, conn);
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.add_conn(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        let handle = self.handle.clone();
        if let Some(conn) = self.conns.get_mut(&token) {
            let cx = LoopCtx { shared: &self.shared, handle: &handle };
            if ev.readable || ev.hangup {
                conn.handle_readable(&cx);
            }
            conn.try_flush(&cx);
        } else {
            return;
        }
        self.after_activity(token);
    }

    /// Re-arms poller interest for a connection after any activity and
    /// reaps it if it died.
    fn after_activity(&mut self, token: u64) {
        let handle = self.handle.clone();
        let (dead, fd, want) = match self.conns.get_mut(&token) {
            Some(conn) => {
                if conn.is_dead() {
                    let cx = LoopCtx { shared: &self.shared, handle: &handle };
                    conn.close(&cx);
                    (true, conn.fd(), (false, false))
                } else {
                    (false, conn.fd(), conn.interest())
                }
            }
            None => return,
        };
        if dead {
            let _ = self.poller.deregister(fd);
            self.conns.remove(&token);
            self.interests.remove(&token);
            self.shared.metrics.connections.sub(1);
            return;
        }
        if self.interests.get(&token) != Some(&want) {
            let _ = self.poller.modify(fd, token, want.0, want.1);
            self.interests.insert(token, want);
        }
    }

    fn shutdown(&mut self) {
        let handle = self.handle.clone();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(mut conn) = self.conns.remove(&token) {
                let cx = LoopCtx { shared: &self.shared, handle: &handle };
                conn.close(&cx);
                let _ = self.poller.deregister(conn.fd());
                self.shared.metrics.connections.sub(1);
            }
        }
        self.interests.clear();
        // The listener closes when `run` returns and drops the loop;
        // stop() joins this thread first, so the close is observable.
    }
}
