//! A minimal readiness-notification abstraction for the event-driven
//! wire front end — `epoll(7)` on Linux through a thin hand-declared
//! FFI shim (no external crates; `std` already links libc, so the
//! symbols resolve), with a portable `poll(2)` fallback selectable via
//! `PERSONA_POLLER=poll` and used automatically on non-Linux Unix.
//!
//! The surface is deliberately tiny — register / modify / deregister a
//! file descriptor under a caller-chosen `u64` token, block in
//! [`Poller::wait`] for readiness, and wake the blocked thread from
//! anywhere with a [`Waker`] (a self-pipe registered under
//! [`WAKER_TOKEN`]). Level-triggered semantics everywhere: a readiness
//! bit repeats until the condition is consumed, which keeps the
//! connection state machines simple (they can stop reading mid-burst
//! and pick the rest up on the next tick).

use std::io;

/// The token [`Poller::wait`] reports when a [`Waker`] fired. Callers
/// must not register their own fds under it.
pub const WAKER_TOKEN: u64 = u64::MAX;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can accept writes without blocking.
    pub writable: bool,
    /// The peer hung up or the fd errored; the owner should read to
    /// EOF and close.
    pub hangup: bool,
}

#[cfg(unix)]
mod sys {
    //! Raw syscall surface. Everything here is a direct declaration of
    //! the C ABI that `std` already links — no new dependencies.

    pub type Fd = i32;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    pub const F_SETFL: i32 = 4;
    pub const O_NONBLOCK: i32 = 0o4000;

    /// The kernel's `struct epoll_event`: packed on x86-64 (the kernel
    /// ABI quirk), naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct pollfd` for the portable fallback.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: Fd,
        pub events: i16,
        pub revents: i16,
    }

    // Every function below is a raw syscall wrapper: callers pass only
    // live, correctly sized buffers (each call site says which).
    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: i32) -> Fd;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: Fd, op: i32, fd: Fd, event: *mut EpollEvent) -> i32;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(epfd: Fd, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        pub fn pipe(fds: *mut Fd) -> i32;
        pub fn fcntl(fd: Fd, cmd: i32, arg: i32) -> i32;
        pub fn close(fd: Fd) -> i32;
        pub fn read(fd: Fd, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: Fd, buf: *const u8, count: usize) -> isize;
    }

    pub fn last_error() -> std::io::Error {
        std::io::Error::last_os_error()
    }
}

/// A cloneable handle that interrupts a blocked [`Poller::wait`] from
/// any thread: writing one byte to the poller's self-pipe makes the
/// pipe's read end readable, which wakes the poll syscall. Spurious
/// wakes are fine (the byte is drained on delivery); a full pipe is
/// fine too (the wake is already pending).
#[derive(Clone)]
pub struct Waker {
    #[cfg(unix)]
    write_fd: i32,
    #[cfg(not(unix))]
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl Waker {
    /// Interrupts the poller's current (or next) [`Poller::wait`].
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            let byte = 1u8;
            debug_assert!(self.write_fd >= 0, "waker without a pipe");
            // SAFETY: `write(2)` reads exactly one byte from `&byte`, a
            // live local; the fd is a plain integer, so a closed one (the
            // poller dropped first) is an `EBADF`, not memory unsafety.
            // EAGAIN means the pipe already holds unread wake bytes — the
            // wake is pending, nothing to do.
            let _ = unsafe { sys::write(self.write_fd, &byte, 1) };
        }
        #[cfg(not(unix))]
        self.flag.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

#[cfg(unix)]
enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: i32,
    },
    Poll {
        registered: Vec<(i32, u64, bool, bool)>,
    },
}

/// The readiness poller: one per event-loop thread.
pub struct Poller {
    #[cfg(unix)]
    backend: Backend,
    #[cfg(unix)]
    pipe_read: i32,
    #[cfg(unix)]
    pipe_write: i32,
    #[cfg(not(unix))]
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
    #[cfg(not(unix))]
    registered: Vec<(i32, u64, bool, bool)>,
}

#[cfg(unix)]
impl Poller {
    /// Creates a poller: epoll on Linux, `poll(2)` elsewhere or when
    /// `PERSONA_POLLER=poll` forces the portable backend.
    pub fn new() -> io::Result<Poller> {
        let mut fds = [0i32; 2];
        // SAFETY: `pipe(2)` writes exactly two fds into the pointed-to
        // array, which is a live `[i32; 2]`.
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(sys::last_error());
        }
        for fd in fds {
            // SAFETY: integer arguments only; `fd` came from `pipe` above.
            if unsafe { sys::fcntl(fd, sys::F_SETFL, sys::O_NONBLOCK) } < 0 {
                let err = sys::last_error();
                // SAFETY: both fds were just created and are owned here
                // alone; they are closed once, and not stored anywhere.
                unsafe {
                    sys::close(fds[0]);
                    sys::close(fds[1]);
                }
                return Err(err);
            }
        }
        let backend = Self::make_backend(fds[0])?;
        Ok(Poller { backend, pipe_read: fds[0], pipe_write: fds[1] })
    }

    #[cfg(target_os = "linux")]
    fn make_backend(pipe_read: i32) -> io::Result<Backend> {
        let force_poll = std::env::var("PERSONA_POLLER").is_ok_and(|v| v == "poll");
        if force_poll {
            return Ok(Backend::Poll { registered: vec![(pipe_read, WAKER_TOKEN, true, false)] });
        }
        // SAFETY: integer arguments only.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(sys::last_error());
        }
        let mut ev = sys::EpollEvent { events: sys::EPOLLIN, data: WAKER_TOKEN };
        // SAFETY: `epoll_ctl` reads one `epoll_event` through the pointer,
        // and `ev` is a live local of the kernel's layout.
        if unsafe { sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, pipe_read, &mut ev) } < 0 {
            let err = sys::last_error();
            // SAFETY: `epfd` was created above, is owned here alone and is
            // closed once, before it could be stored.
            unsafe { sys::close(epfd) };
            return Err(err);
        }
        Ok(Backend::Epoll { epfd })
    }

    #[cfg(all(unix, not(target_os = "linux")))]
    fn make_backend(pipe_read: i32) -> io::Result<Backend> {
        Ok(Backend::Poll { registered: vec![(pipe_read, WAKER_TOKEN, true, false)] })
    }

    /// A handle that can interrupt [`Poller::wait`] from other threads.
    pub fn waker(&self) -> Waker {
        Waker { write_fd: self.pipe_write }
    }

    /// Whether the epoll backend is active (vs the `poll(2)` fallback).
    pub fn is_epoll(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            matches!(self.backend, Backend::Epoll { .. })
        }
        #[cfg(not(target_os = "linux"))]
        {
            false
        }
    }

    /// Starts watching `fd` under `token` for the given readiness.
    pub fn register(
        &mut self,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut ev =
                    sys::EpollEvent { events: interest_bits(readable, writable), data: token };
                // SAFETY: the kernel reads one `epoll_event` from `ev`, a
                // live local; `fd` is only a number to it (a stale one is
                // an error return).
                if unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
                    return Err(sys::last_error());
                }
                Ok(())
            }
            Backend::Poll { registered } => {
                registered.retain(|(f, ..)| *f != fd);
                registered.push((fd, token, readable, writable));
                Ok(())
            }
        }
    }

    /// Changes the readiness interest of an already-registered fd.
    pub fn modify(
        &mut self,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut ev =
                    sys::EpollEvent { events: interest_bits(readable, writable), data: token };
                // SAFETY: as in `register`: one `epoll_event` read from a
                // live local.
                if unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_MOD, fd, &mut ev) } < 0 {
                    return Err(sys::last_error());
                }
                Ok(())
            }
            Backend::Poll { registered } => {
                registered.retain(|(f, ..)| *f != fd);
                registered.push((fd, token, readable, writable));
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Callers close the fd themselves (dropping
    /// the `TcpStream`), after deregistering.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut ev = sys::EpollEvent { events: 0, data: 0 };
                // SAFETY: as in `register` (`DEL` ignores the event, but
                // kernels before 2.6.9 required a valid pointer: it is).
                if unsafe { sys::epoll_ctl(*epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                    return Err(sys::last_error());
                }
                Ok(())
            }
            Backend::Poll { registered } => {
                registered.retain(|(f, ..)| *f != fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// lapses, or a [`Waker`] fires (delivered as a [`WAKER_TOKEN`]
    /// event with its pipe byte already drained). Events are appended
    /// to `out`, which is cleared first. A negative timeout blocks
    /// indefinitely.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
                let n = loop {
                    // SAFETY: the kernel writes at most `maxevents` =
                    // `events.len()` entries into `events`, a live array
                    // of the kernel's `epoll_event` layout.
                    let n = unsafe {
                        sys::epoll_wait(*epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
                    };
                    if n >= 0 {
                        debug_assert!(n as usize <= events.len(), "epoll_wait overran");
                        break n as usize;
                    }
                    let err = sys::last_error();
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
                        out.push(PollEvent {
                            token,
                            readable: false,
                            writable: false,
                            hangup: false,
                        });
                        continue;
                    }
                    out.push(PollEvent {
                        token,
                        readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
                    });
                }
                Ok(())
            }
            Backend::Poll { registered } => {
                let mut fds: Vec<sys::PollFd> = registered
                    .iter()
                    .map(|&(fd, _, readable, writable)| sys::PollFd {
                        fd,
                        events: if readable { sys::POLLIN } else { 0 }
                            | if writable { sys::POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect();
                let n = loop {
                    // SAFETY: `poll(2)` reads and updates exactly `nfds` =
                    // `fds.len()` `pollfd`s in `fds`, a live `Vec` of the C
                    // layout that is not resized during the call.
                    let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
                    if n >= 0 {
                        debug_assert!(n as usize <= fds.len(), "poll reported too many fds");
                        break n;
                    }
                    let err = sys::last_error();
                    if err.kind() != io::ErrorKind::Interrupted {
                        return Err(err);
                    }
                };
                if n == 0 {
                    return Ok(());
                }
                let tokens: Vec<u64> = registered.iter().map(|&(_, t, ..)| t).collect();
                let mut drain = false;
                for (pfd, token) in fds.iter().zip(tokens) {
                    let bits = pfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    if token == WAKER_TOKEN {
                        drain = true;
                        out.push(PollEvent {
                            token,
                            readable: false,
                            writable: false,
                            hangup: false,
                        });
                        continue;
                    }
                    out.push(PollEvent {
                        token,
                        readable: bits & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
                        writable: bits & sys::POLLOUT != 0,
                        hangup: bits & (sys::POLLHUP | sys::POLLERR) != 0,
                    });
                }
                if drain {
                    self.drain_waker();
                }
                Ok(())
            }
        }
    }

    fn drain_waker(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `read(2)` writes at most `buf.len()` bytes into
            // `buf`, a live local array.
            let n = unsafe { sys::read(self.pipe_read, buf.as_mut_ptr(), buf.len()) };
            debug_assert!(n <= buf.len() as isize, "read overran its buffer");
            if n <= 0 {
                break;
            }
        }
    }
}

#[cfg(unix)]
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

#[cfg(unix)]
impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the poller owns these fds (created in `new`, never
        // handed out except as the `Waker`'s number) and closes each once.
        unsafe {
            #[cfg(target_os = "linux")]
            if let Backend::Epoll { epfd } = self.backend {
                sys::close(epfd);
            }
            sys::close(self.pipe_read);
            sys::close(self.pipe_write);
        }
    }
}

#[cfg(not(unix))]
impl Poller {
    /// A degraded timer-tick backend for non-Unix hosts: every wait
    /// reports all registered fds as ready, so owners run their state
    /// machines and hit `WouldBlock` when there is nothing to do.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            flag: std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
            registered: Vec::new(),
        })
    }

    pub fn waker(&self) -> Waker {
        Waker { flag: self.flag.clone() }
    }

    pub fn is_epoll(&self) -> bool {
        false
    }

    pub fn register(
        &mut self,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.registered.retain(|(f, ..)| *f != fd);
        self.registered.push((fd, token, readable, writable));
        Ok(())
    }

    pub fn modify(
        &mut self,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.register(fd, token, readable, writable)
    }

    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.registered.retain(|(f, ..)| *f != fd);
        Ok(())
    }

    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let slept = timeout_ms.clamp(0, 10) as u64;
        std::thread::sleep(std::time::Duration::from_millis(slept.max(1)));
        if self.flag.swap(false, std::sync::atomic::Ordering::SeqCst) {
            out.push(PollEvent {
                token: WAKER_TOKEN,
                readable: false,
                writable: false,
                hangup: false,
            });
        }
        for &(_, token, readable, writable) in &self.registered {
            out.push(PollEvent { token, readable, writable, hangup: false });
        }
        Ok(())
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    /// Plain fd numbers make both types thread-movable without an
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

    fn backends() -> Vec<Poller> {
        let mut pollers = vec![Poller::new().unwrap()];
        // Exercise the portable fallback explicitly regardless of the
        // default backend choice.
        #[cfg(target_os = "linux")]
        {
            std::env::set_var("PERSONA_POLLER", "poll");
            let fallback = Poller::new().unwrap();
            std::env::remove_var("PERSONA_POLLER");
            assert!(!fallback.is_epoll());
            pollers.push(fallback);
        }
        pollers
    }

    #[test]
    fn readable_fires_when_bytes_arrive() {
        for mut poller in backends() {
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
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        for mut poller in backends() {
            let waker = poller.waker();
            let hand = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                waker.wake();
            });
            let mut events = Vec::new();
            // Blocks until the waker fires (10s is a deadline, not a
            // sleep: the wake arrives after ~50ms).
            poller.wait(&mut events, 10_000).unwrap();
            assert!(events.iter().any(|e| e.token == WAKER_TOKEN));
            hand.join().unwrap();
        }
    }

    #[test]
    fn interest_modification_gates_writable_reports() {
        for mut poller in backends() {
            let (_a, b) = pair();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 3, true, false).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, 0).unwrap();
            assert!(events.iter().all(|e| !e.writable), "write interest off");

            poller.modify(b.as_raw_fd(), 3, true, true).unwrap();
            poller.wait(&mut events, 2_000).unwrap();
            let ev = events.iter().find(|e| e.token == 3).expect("event");
            assert!(ev.writable, "an idle socket is writable");

            poller.deregister(b.as_raw_fd()).unwrap();
            poller.wait(&mut events, 0).unwrap();
            assert!(events.iter().all(|e| e.token != 3));
        }
    }
}
