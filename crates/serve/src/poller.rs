//! Readiness polling over raw file descriptors: `epoll(7)` on Linux,
//! `poll(2)` everywhere else (or on request), plus a cross-thread
//! [`Wakeup`] (eventfd on Linux, a nonblocking socket pair otherwise).
//!
//! The crate is std-only by design, so the syscalls come from a
//! thin hand-rolled FFI shim rather than the `libc` crate — only the
//! five symbols the event loop needs, with the constants written out.
//! Both backends present the same level-triggered interface: register
//! an fd with a `u64` token and an interest set, [`Poller::wait`]
//! returns `(token, readable, writable)` events. The `poll(2)` backend
//! exists for portability *and* testability — `ServeConfig::force_poll`
//! runs the whole server through it on Linux too, so CI exercises both.

#![cfg(unix)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

mod ffi {
    use std::os::raw::{c_int, c_short, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub use linux::*;

    #[cfg(target_os = "linux")]
    mod linux {
        use std::os::raw::{c_int, c_uint};

        /// Kernel ABI: packed on x86, naturally aligned elsewhere.
        #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
        #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EFD_CLOEXEC: c_int = 0o2000000;
        pub const EFD_NONBLOCK: c_int = 0o4000;

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
            pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
            pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
            pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
            pub fn close(fd: c_int) -> c_int;
        }
    }
}

/// What to watch an fd for. Level-triggered in both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest (the steady state of an idle connection).
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness event from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (includes peer hang-up and errors, so a read is always
    /// attempted and observes the failure).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        events: Vec<ffi::EpollEvent>,
    },
    Poll {
        /// Registered fds: `(fd, token, interest)`.
        fds: Vec<(RawFd, u64, Interest)>,
        /// Reused `pollfd` array, rebuilt per wait.
        scratch: Vec<ffi::PollFd>,
    },
}

/// A level-triggered readiness poller over raw fds.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Build a poller: epoll on Linux unless `force_poll`, `poll(2)`
    /// otherwise.
    pub fn new(force_poll: bool) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        if !force_poll {
            let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            return Ok(Poller {
                backend: Backend::Epoll {
                    epfd,
                    events: Vec::with_capacity(1024),
                },
            });
        }
        let _ = force_poll;
        Ok(Poller {
            backend: Backend::Poll {
                fds: Vec::new(),
                scratch: Vec::new(),
            },
        })
    }

    /// True when this poller runs on `epoll` (telemetry labelling).
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

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                epoll_ctl(*epfd, ffi::EPOLL_CTL_ADD, fd, token, interest)
            }
            Backend::Poll { fds, .. } => {
                fds.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Change the interest set (and token) of a registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                epoll_ctl(*epfd, ffi::EPOLL_CTL_MOD, fd, token, interest)
            }
            Backend::Poll { fds, .. } => {
                for entry in fds.iter_mut() {
                    if entry.0 == fd {
                        *entry = (fd, token, interest);
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Stop watching `fd` (call before closing it).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = ffi::EpollEvent { events: 0, data: 0 };
                let rc = unsafe { ffi::epoll_ctl(*epfd, ffi::EPOLL_CTL_DEL, fd, &mut ev) };
                if rc < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            }
            Backend::Poll { fds, .. } => {
                fds.retain(|(f, _, _)| *f != fd);
                Ok(())
            }
        }
    }

    /// Block until at least one fd is ready or `timeout` elapses,
    /// appending events to `out` (cleared first). Interrupted waits
    /// (`EINTR`) return an empty set rather than an error.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        out.clear();
        let timeout_ms: i32 = timeout.as_millis().min(i32::MAX as u128) as i32;
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, events } => {
                events.clear();
                let cap = events.capacity().max(64);
                let n =
                    unsafe { ffi::epoll_wait(*epfd, events.as_mut_ptr(), cap as i32, timeout_ms) };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                // Safety: the kernel initialised the first n entries.
                unsafe { events.set_len(n as usize) };
                for ev in events.iter() {
                    let bits = ev.events;
                    out.push(Event {
                        token: ev.data,
                        readable: bits & (ffi::EPOLLIN | ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
                        writable: bits & (ffi::EPOLLOUT | ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
                    });
                }
                Ok(())
            }
            Backend::Poll { fds, scratch } => {
                scratch.clear();
                for (fd, _, interest) in fds.iter() {
                    let mut events = 0;
                    if interest.read {
                        events |= ffi::POLLIN;
                    }
                    if interest.write {
                        events |= ffi::POLLOUT;
                    }
                    scratch.push(ffi::PollFd {
                        fd: *fd,
                        events,
                        revents: 0,
                    });
                }
                let n = unsafe { ffi::poll(scratch.as_mut_ptr(), scratch.len() as _, timeout_ms) };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for (pfd, (_, token, _)) in scratch.iter().zip(fds.iter()) {
                    let bits = pfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    out.push(Event {
                        token: *token,
                        readable: bits & (ffi::POLLIN | ffi::POLLERR | ffi::POLLHUP) != 0,
                        writable: bits & (ffi::POLLOUT | ffi::POLLERR | ffi::POLLHUP) != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd, .. } = &self.backend {
            unsafe { ffi::close(*epfd) };
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_ctl(
    epfd: RawFd,
    op: std::os::raw::c_int,
    fd: RawFd,
    token: u64,
    interest: Interest,
) -> io::Result<()> {
    let mut bits = 0u32;
    if interest.read {
        bits |= ffi::EPOLLIN;
    }
    if interest.write {
        bits |= ffi::EPOLLOUT;
    }
    let mut ev = ffi::EpollEvent {
        events: bits,
        data: token,
    };
    let rc = unsafe { ffi::epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Cross-thread wakeup for a parked [`Poller::wait`]: the batcher (and
/// shutdown) ring it, the event loop drains it. `eventfd(2)` on Linux,
/// a nonblocking `UnixStream` pair elsewhere — both register like any
/// other fd.
pub struct Wakeup {
    inner: WakeupInner,
}

enum WakeupInner {
    #[cfg(target_os = "linux")]
    EventFd(RawFd),
    #[cfg(not(target_os = "linux"))]
    Pipe {
        read: std::os::unix::net::UnixStream,
        write: std::os::unix::net::UnixStream,
    },
}

impl Wakeup {
    /// Build a wakeup pair.
    pub fn new() -> io::Result<Wakeup> {
        #[cfg(target_os = "linux")]
        {
            let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Wakeup {
                inner: WakeupInner::EventFd(fd),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            let (read, write) = std::os::unix::net::UnixStream::pair()?;
            read.set_nonblocking(true)?;
            write.set_nonblocking(true)?;
            Ok(Wakeup {
                inner: WakeupInner::Pipe { read, write },
            })
        }
    }

    /// The fd to register for read interest in a poller.
    pub fn fd(&self) -> RawFd {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakeupInner::EventFd(fd) => *fd,
            #[cfg(not(target_os = "linux"))]
            WakeupInner::Pipe { read, .. } => {
                use std::os::fd::AsRawFd as _;
                read.as_raw_fd()
            }
        }
    }

    /// Wake the poller. Callable from any thread; coalesces (ringing a
    /// rung wakeup is a no-op at the syscall's counter).
    pub fn ring(&self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakeupInner::EventFd(fd) => {
                let one: u64 = 1;
                let _ = unsafe { ffi::write(*fd, one.to_ne_bytes().as_ptr(), 8) };
            }
            #[cfg(not(target_os = "linux"))]
            WakeupInner::Pipe { write, .. } => {
                use std::io::Write as _;
                let _ = (&*write).write(&[1]);
            }
        }
    }

    /// Clear pending wakeups (call when the registered fd reads ready).
    pub fn drain(&self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakeupInner::EventFd(fd) => {
                let mut buf = [0u8; 8];
                let _ = unsafe { ffi::read(*fd, buf.as_mut_ptr(), 8) };
            }
            #[cfg(not(target_os = "linux"))]
            WakeupInner::Pipe { read, .. } => {
                use std::io::Read as _;
                let mut buf = [0u8; 64];
                while matches!((&*read).read(&mut buf), Ok(n) if n > 0) {}
            }
        }
    }
}

impl Drop for Wakeup {
    fn drop(&mut self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakeupInner::EventFd(fd) => {
                unsafe { ffi::close(*fd) };
            }
            // The UnixStream pair closes itself.
            #[cfg(not(target_os = "linux"))]
            WakeupInner::Pipe { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd as _;

    fn backend_roundtrip(force_poll: bool) {
        let mut poller = Poller::new(force_poll).expect("poller");
        let (mut a, b) = std::os::unix::net::UnixStream::pair().expect("pair");
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing ready: bounded wait returns empty.
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());

        a.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Write interest on an empty socket buffer reports writable.
        poller
            .modify(
                b.as_raw_fd(),
                9,
                Interest {
                    read: false,
                    write: true,
                },
            )
            .unwrap();
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));

        poller.deregister(b.as_raw_fd()).unwrap();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn epoll_backend_roundtrip() {
        // On non-Linux this exercises the poll backend twice — fine.
        backend_roundtrip(false);
    }

    #[test]
    fn poll_backend_roundtrip() {
        backend_roundtrip(true);
    }

    #[test]
    fn wakeup_rings_and_drains() {
        let wakeup = Wakeup::new().expect("wakeup");
        let mut poller = Poller::new(false).expect("poller");
        poller.register(wakeup.fd(), 1, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "unrung wakeup must not fire");

        // Ring from another thread (the batcher's shape) — and twice,
        // to prove coalescing doesn't wedge the drain.
        std::thread::scope(|s| {
            s.spawn(|| {
                wakeup.ring();
                wakeup.ring();
            });
        });
        poller
            .wait(&mut events, Duration::from_millis(1000))
            .unwrap();
        assert_eq!(events.len(), 1);
        wakeup.drain();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "drained wakeup must not re-fire");
    }
}
