//! The readiness poller of the wire front end: `epoll(7)` through a
//! thin hand-declared FFI shim (no external crates; `std` already links
//! libc, so the symbols resolve). The server therefore builds on Linux
//! only, and says so at compile time.
//!
//! The surface is deliberately tiny — register / modify / deregister a
//! file descriptor under a caller-chosen `u64` token, block in
//! [`Poller::wait`] for readiness, and wake the blocked thread from
//! anywhere with a [`Waker`] (a byte written into a nonblocking socket
//! pair whose other end is registered under [`WAKER_TOKEN`]).
//! Level-triggered: a readiness bit repeats until the condition is
//! consumed, which keeps the connection state machines simple (they can
//! stop reading mid-burst and pick the rest up on the next tick).

#[cfg(not(target_os = "linux"))]
compile_error!("persona-server's wire event loop runs on epoll(7), so it builds on Linux only");

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

/// The token [`Poller::wait`] reports when a [`Waker`] fired. Callers
/// must not register their own fds under it.
pub const WAKER_TOKEN: u64 = u64::MAX;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept). An event with
    /// neither this nor `hangup` set reports writability: the loop
    /// flushes after every event, so it needs no flag of its own.
    pub readable: bool,
    /// The peer hung up or the fd errored; the owner should read to
    /// EOF and close.
    pub hangup: bool,
}

mod sys {
    //! The epoll C ABI, declared by hand: `std` already links libc.

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// The kernel's `struct epoll_event`: packed on x86-64 (the kernel
    /// ABI quirk), naturally aligned elsewhere (aarch64).
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    // Raw syscall wrappers: callers pass only live, correctly sized
    // buffers (each call site says which).
    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }
}

/// The wake socket pair: `.0` is registered under [`WAKER_TOKEN`] and
/// drained by [`Poller::wait`], `.1` is what wakers write to. Wakers
/// share the whole pair, not only the write end, so a wake after the
/// poller is gone lands in a buffer nobody reads: never in a descriptor
/// number reused since, and never at a closed peer (`SIGPIPE`).
type WakePair = Arc<(UnixStream, UnixStream)>;

/// A cloneable handle that interrupts a blocked [`Poller::wait`] from
/// any thread: one byte written into the poller's wake socket makes its
/// registered end readable. Spurious wakes are fine (the bytes are
/// drained on delivery); a full socket buffer is fine too (the wake is
/// already pending).
#[derive(Clone)]
pub struct Waker {
    pair: WakePair,
}

impl Waker {
    /// Interrupts the poller's current (or next) [`Poller::wait`].
    pub fn wake(&self) {
        // `WouldBlock` means the buffer already holds unread wake bytes:
        // the wake is pending, nothing to do.
        let _ = (&self.pair.1).write(&[1]);
    }
}

/// The readiness poller: one per event-loop thread.
pub struct Poller {
    epfd: OwnedFd,
    wake: WakePair,
}

impl Poller {
    /// Creates an epoll instance with a waker socket pair registered.
    pub fn new() -> io::Result<Poller> {
        let (read, write) = UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        // SAFETY: integer arguments only.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `epoll_create1` just returned this fd and nothing else
        // holds it, so the `OwnedFd` is its one owner and closes it once.
        let epfd = unsafe { OwnedFd::from_raw_fd(epfd) };
        let poller = Poller { epfd, wake: Arc::new((read, write)) };
        poller.ctl(sys::EPOLL_CTL_ADD, poller.wake.0.as_raw_fd(), sys::EPOLLIN, WAKER_TOKEN)?;
        Ok(poller)
    }

    /// A handle that can interrupt [`Poller::wait`] from other threads.
    pub fn waker(&self) -> Waker {
        Waker { pair: Arc::clone(&self.wake) }
    }

    /// Starts watching `fd` under `token` for the given readiness.
    pub fn register(
        &mut self,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, interest_bits(readable, writable), token)
    }

    /// Changes the readiness interest of an already-registered fd.
    pub fn modify(
        &mut self,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, interest_bits(readable, writable), token)
    }

    /// Stops watching `fd`. Callers close the fd themselves (dropping
    /// the `TcpStream`), after deregistering.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events, data: token };
        // SAFETY: the kernel reads one `epoll_event` from `ev`, a live
        // local of its layout (`DEL` ignores it, but kernels before 2.6.9
        // required a valid pointer: it is); `fd` is only a number to it (a
        // stale one is an error return).
        if unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// lapses, or a [`Waker`] fires (delivered as a [`WAKER_TOKEN`]
    /// event with its wake bytes already drained). Events are appended
    /// to `out`, which is cleared first. A negative timeout blocks
    /// indefinitely.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n = loop {
            // SAFETY: the kernel writes at most `maxevents` =
            // `events.len()` entries into `events`, a live array of the
            // kernel's `epoll_event` layout.
            let n = unsafe {
                sys::epoll_wait(
                    self.epfd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                debug_assert!(n as usize <= events.len(), "epoll_wait overran");
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &events[..n] {
            // Copy out of the (possibly packed) struct before use.
            let bits = ev.events;
            let token = ev.data;
            if token == WAKER_TOKEN {
                self.drain_waker();
            }
            out.push(PollEvent {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(())
    }

    /// Reads wake bytes until `WouldBlock`. EOF cannot happen: this
    /// poller holds the write end too.
    fn drain_waker(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.wake.0).read(&mut buf), Ok(n) if n > 0) {}
    }
}

fn interest_bits(readable: bool, writable: bool) -> u32 {
    let mut bits = 0;
    if readable {
        bits |= sys::EPOLLIN;
    }
    if writable {
        bits |= sys::EPOLLOUT;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    /// Owned descriptors make both types thread-movable without an
    /// `unsafe impl`: a waker is shared across threads, a poller moves to
    /// its loop thread.
    #[test]
    fn thread_bounds_hold_without_unsafe_impls() {
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send_sync::<Waker>();
        send::<Poller>();
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_fires_when_bytes_arrive() {
        let mut poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, true, false).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| !e.readable), "no bytes yet");

        a.write_all(b"x").unwrap();
        poller.wait(&mut events, 2_000).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("event for token 7");
        assert!(ev.readable);
        let mut buf = [0u8; 8];
        let mut b2 = &b;
        assert_eq!(b2.read(&mut buf).unwrap(), 1);
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let hand = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        // Blocks until the waker fires (10s is a deadline, not a sleep:
        // the wake arrives after ~50ms).
        poller.wait(&mut events, 10_000).unwrap();
        assert!(events.iter().any(|e| e.token == WAKER_TOKEN));
        hand.join().unwrap();
    }

    #[test]
    fn a_wake_storm_never_blocks_and_one_delivery_drains_it() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let start = Instant::now();
        for _ in 0..100_000 {
            waker.wake();
        }
        // A full socket buffer turns a wake into an `EAGAIN`; a blocking
        // write would hang here instead.
        assert!(start.elapsed() < Duration::from_secs(10), "took {:?}", start.elapsed());
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().any(|e| e.token == WAKER_TOKEN));
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "one delivery drains every wake byte: {events:?}");
    }

    #[test]
    fn a_waker_outliving_its_poller_writes_into_no_reused_descriptor() {
        for round in 0..50 {
            let waker = Poller::new().unwrap().waker();
            let (a, b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            b.set_nonblocking(true).unwrap();
            waker.wake();
            for (end, mut stream) in [("a", &a), ("b", &b)] {
                let mut buf = [0u8; 8];
                match stream.read(&mut buf) {
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    got => panic!("round {round}: end {end} of a fresh pair read {got:?}"),
                }
            }
        }
    }

    #[test]
    fn interest_modification_gates_writable_reports() {
        let mut poller = Poller::new().unwrap();
        let (_a, b) = pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 3, true, false).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 3), "no bytes, write interest off");

        poller.modify(b.as_raw_fd(), 3, true, true).unwrap();
        poller.wait(&mut events, 2_000).unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("an idle socket is writable");
        assert!(!ev.readable && !ev.hangup, "the report is writability alone");

        poller.deregister(b.as_raw_fd()).unwrap();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 3));
    }
}
