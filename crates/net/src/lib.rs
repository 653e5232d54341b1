//! `vod-net`: a dependency-free readiness shim over Linux `epoll`.
//!
//! Everything else in this workspace is safe `std`; the one thing `std`
//! does not expose is I/O *readiness* — "which of these ten thousand
//! sockets can make progress right now?". This crate owns the handful of
//! raw syscalls needed to answer that question and wraps them behind a
//! small safe API so `vod-svc` can keep its `#![forbid(unsafe_code)]`:
//!
//! - [`Poller`]: a level-triggered `epoll` instance. Register file
//!   descriptors with a `u64` token and an [`Interest`], then [`Poller::wait`]
//!   for [`Event`]s.
//! - [`Waker`]: a nonblocking self-pipe for cross-thread wakeups — other
//!   threads call [`Waker::wake`], the owning loop drains it and re-arms.
//! - [`nofile_limit`]: the `RLIMIT_NOFILE` soft/hard caps, so soak tests
//!   can size themselves to the host.
//!
//! The shim is Linux-only by construction (the service targets Linux
//! hosts); it compiles against whatever libc `std` already links, with no
//! external crates.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

mod sys {
    //! Raw syscall surface. The constants match the Linux userspace ABI
    //! on every architecture Rust's `linux-gnu`/`linux-musl` targets
    //! cover (x86_64 and aarch64 share these values); `epoll_event`'s
    //! *layout* is the one arch-dependent piece and is gated below.
    #![allow(non_camel_case_types)]

    use std::os::raw::{c_int, c_void};

    /// `struct epoll_event`. The kernel packs this struct on x86_64
    /// *only*; everywhere else (aarch64 included) it is the naturally
    /// aligned 16-byte layout. The repr must match per-arch: a packed
    /// (12-byte) buffer on a 16-byte-stride kernel would let
    /// `epoll_wait` write past the allocation and corrupt every token.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0x8_0000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const O_NONBLOCK: c_int = 0x800;
    pub const O_CLOEXEC: c_int = 0x8_0000;

    pub const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    }
}

/// Converts a `-1`-on-error syscall return into an [`io::Result`].
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Which readiness directions a registration subscribes to.
///
/// Hangup and error conditions are always delivered by `epoll` regardless
/// of the requested interest, so even [`Interest::NONE`] keeps a lingering
/// connection visible enough to reap on reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Deliver events when the fd is readable (or the peer half-closed).
    pub readable: bool,
    /// Deliver events when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction — hangup/error delivery only.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            m |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// The fd can be read without blocking (includes peer half-close).
    pub readable: bool,
    /// The fd can be written without blocking.
    pub writable: bool,
    /// The peer hung up (`EPOLLHUP`/`EPOLLRDHUP`).
    pub hangup: bool,
    /// The fd is in an error state (`EPOLLERR`).
    pub error: bool,
}

/// Reusable buffer of kernel events for [`Poller::wait`].
pub struct Events {
    buf: Vec<sys::epoll_event>,
    len: usize,
}

impl Events {
    /// A buffer able to surface up to `capacity` events per wait.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![sys::epoll_event { events: 0, data: 0 }; capacity.clamp(1, 4096)],
            len: 0,
        }
    }

    /// Number of events delivered by the last wait.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last wait delivered no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the events delivered by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            // Copy out before touching the fields: on x86_64 the struct
            // is packed and its fields may be unaligned.
            let events = raw.events;
            let data = raw.data;
            Event {
                token: data,
                readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: events & sys::EPOLLOUT != 0,
                hangup: events & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                error: events & sys::EPOLLERR != 0,
            }
        })
    }
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events")
            .field("capacity", &self.buf.len())
            .field("len", &self.len)
            .finish()
    }
}

/// A level-triggered `epoll` instance.
///
/// Tokens are opaque `u64`s echoed back in [`Event::token`]; callers use
/// them as slab indices. Registrations are level-triggered: an fd that
/// stays readable keeps being reported, so a loop that cannot finish a
/// read this tick simply sees it again next tick.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh empty poller.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers.
        let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys::epoll_event {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out.
        cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` under `token`.
    pub fn register(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd.as_raw_fd(), token, interest)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn reregister(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd.as_raw_fd(), token, interest)
    }

    /// Stops watching `fd`.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd.as_raw_fd(), 0, Interest::NONE)
    }

    /// Blocks until at least one event arrives or `timeout` elapses
    /// (`None` waits indefinitely). Returns the number of events placed
    /// in `events`; `EINTR` is retried with the remaining time.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        events.len = 0;
        loop {
            let timeout_ms: i32 = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    // Round up so a 100µs timeout still sleeps rather
                    // than busy-spinning on a 0ms epoll_wait.
                    let ms = left
                        .as_millis()
                        .saturating_add(u128::from(left.subsec_nanos() % 1_000_000 != 0));
                    ms.min(i32::MAX as u128) as i32
                }
            };
            // SAFETY: the buffer is valid for `buf.len()` entries and the
            // kernel writes at most `maxevents` of them.
            let rc = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    events.buf.as_mut_ptr(),
                    events.buf.len() as i32,
                    timeout_ms,
                )
            };
            match cvt(rc) {
                Ok(n) => {
                    events.len = n as usize;
                    return Ok(events.len);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Ok(0);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        let _ = unsafe { sys::close(self.epfd) };
    }
}

/// Cross-thread wakeup for one event loop: a nonblocking self-pipe.
///
/// Register [`Waker::as_raw_fd`] (the read end) in the loop's [`Poller`];
/// any thread may call [`Waker::wake`] to make the loop's `wait` return.
/// The loop calls [`Waker::drain`] when it sees the token, re-arming the
/// level-triggered registration.
#[derive(Debug)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// A fresh waker (one nonblocking pipe).
    pub fn new() -> io::Result<Waker> {
        let mut fds = [0i32; 2];
        // SAFETY: pipe2 writes exactly two fds into the array.
        cvt(unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) })?;
        Ok(Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// Makes the owning poller's `wait` return. Cheap and thread-safe;
    /// coalesces naturally when the pipe already holds a byte (a full
    /// pipe, `EAGAIN`, counts as success because the reader is already
    /// pending).
    pub fn wake(&self) -> io::Result<()> {
        let byte = 1u8;
        // SAFETY: valid one-byte buffer.
        let rc = unsafe { sys::write(self.write_fd, (&raw const byte).cast(), 1) };
        if rc >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::WouldBlock {
            Ok(())
        } else {
            Err(err)
        }
    }

    /// Empties the pipe so the next `wait` blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: valid 64-byte buffer.
            let rc = unsafe { sys::read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if rc <= 0 {
                return;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: both fds are owned by this waker and closed exactly once.
        unsafe {
            let _ = sys::close(self.read_fd);
            let _ = sys::close(self.write_fd);
        }
    }
}

impl AsRawFd for Waker {
    /// The *read* end — the side a [`Poller`] watches.
    fn as_raw_fd(&self) -> RawFd {
        self.read_fd
    }
}

/// The process's `RLIMIT_NOFILE` as `(soft, hard)`.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = sys::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: getrlimit fills the struct we own.
    cvt(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) })?;
    Ok((lim.rlim_cur, lim.rlim_max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_tcp_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let poller = Poller::new().expect("poller");
        poller
            .register(&listener, 7, Interest::READABLE)
            .expect("register listener");
        let mut events = Events::with_capacity(8);

        // Nothing pending yet: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(n, 0, "no connection pending");

        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        poller.wait(&mut events, None).expect("wait accept");
        let ev = events.iter().next().expect("one event");
        assert_eq!(ev.token, 7);
        assert!(ev.readable, "pending accept reads as readable");

        let (mut server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblock");
        poller
            .register(&server, 9, Interest::BOTH)
            .expect("register conn");
        { &client }.write_all(b"ping").expect("client write");
        // The conn must eventually report readable with the payload.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("wait data");
            if events.iter().any(|e| e.token == 9 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "data never became readable");
        }
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");

        // Half-close from the client surfaces as hangup on the conn.
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("wait hup");
            if events.iter().any(|e| e.token == 9 && e.hangup) {
                break;
            }
            assert!(Instant::now() < deadline, "hangup never reported");
        }
        poller.deregister(&server).expect("deregister");
    }

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().expect("poller");
        let waker = std::sync::Arc::new(Waker::new().expect("waker"));
        poller
            .register(&*waker, 42, Interest::READABLE)
            .expect("register waker");
        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.wake().expect("wake");
            // Duplicate wakes coalesce into the same readable byte.
            remote.wake().expect("wake again");
        });
        let mut events = Events::with_capacity(4);
        poller.wait(&mut events, None).expect("wait");
        assert!(events.iter().any(|e| e.token == 42 && e.readable));
        // Join before draining: on a loaded host the duplicate wake can
        // otherwise land after the drain and legitimately re-arm the pipe.
        handle.join().expect("waker thread");
        waker.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait after drain");
        assert_eq!(n, 0, "drained waker re-arms");
    }

    #[test]
    fn wait_times_out_when_idle() {
        let poller = Poller::new().expect("poller");
        let mut events = Events::with_capacity(1);
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(25)))
            .expect("wait");
        assert_eq!(n, 0);
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "timeout honoured"
        );
    }

    #[test]
    fn nofile_limit_is_positive() {
        let (soft, hard) = nofile_limit().expect("getrlimit");
        assert!(soft > 0);
        assert!(hard >= soft);
    }
}
