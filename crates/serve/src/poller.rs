//! Readiness polling over raw file descriptors with `poll(2)`, plus a
//! cross-thread [`Wakeup`] (a nonblocking pipe).
//!
//! The crate is std-only by design, so the syscalls come from a
//! thin hand-rolled FFI shim rather than the `libc` crate — only the
//! three symbols the event loop needs, with the constants written out.
//! The interface is level-triggered: register an fd with a `u64` token
//! and an interest set, [`Poller::wait`] returns `(token, readable,
//! writable)` events. `poll(2)` runs on every unix; DESIGN.md §14 has
//! the measurements behind the one backend and the pipe wakeup.

#![cfg(unix)]

use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsRawFd as _, FromRawFd as _, RawFd};
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

    pub const F_SETFD: c_int = 2;
    pub const F_SETFL: c_int = 4;
    pub const FD_CLOEXEC: c_int = 1;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const O_NONBLOCK: c_int = 0x0004;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    }
}

/// What to watch an fd for. Level-triggered.
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

    fn bits(self) -> std::os::raw::c_short {
        let mut bits = 0;
        if self.read {
            bits |= ffi::POLLIN;
        }
        if self.write {
            bits |= ffi::POLLOUT;
        }
        bits
    }
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

/// A level-triggered readiness poller over raw fds: the `pollfd` array
/// `poll(2)` reads in place, and each entry's token at the same index.
#[derive(Default)]
pub struct Poller {
    fds: Vec<ffi::PollFd>,
    tokens: Vec<u64>,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> Poller {
        Poller::default()
    }

    fn index(&self, fd: RawFd) -> io::Result<usize> {
        self.fds
            .iter()
            .position(|p| p.fd == fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    /// Start watching `fd` under `token`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) {
        self.fds.push(ffi::PollFd {
            fd,
            events: interest.bits(),
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Change the interest set (and token) of a registered fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let i = self.index(fd)?;
        self.fds[i].events = interest.bits();
        self.tokens[i] = token;
        Ok(())
    }

    /// Stop watching `fd` (call before closing it).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.index(fd)?;
        self.fds.swap_remove(i);
        self.tokens.swap_remove(i);
        Ok(())
    }

    /// Block until at least one fd is ready or `timeout` elapses,
    /// appending events to `out` (cleared first). Interrupted waits
    /// (`EINTR`) return an empty set rather than an error.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        out.clear();
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = unsafe { ffi::poll(self.fds.as_mut_ptr(), self.fds.len() as _, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
            let bits = pfd.revents;
            if bits == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: bits & (ffi::POLLIN | ffi::POLLERR | ffi::POLLHUP) != 0,
                writable: bits & (ffi::POLLOUT | ffi::POLLERR | ffi::POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

/// Cross-thread wakeup for a parked [`Poller::wait`]: the batcher (and
/// shutdown) ring it, the event loop drains it. A nonblocking,
/// close-on-exec pipe whose read end registers like any other fd.
pub struct Wakeup {
    read: File,
    write: File,
}

impl Wakeup {
    /// Build a wakeup pipe.
    pub fn new() -> io::Result<Wakeup> {
        let mut fds = [0; 2];
        if unsafe { ffi::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        // Safety: pipe(2) just returned these two fds, owned by no one else.
        let (read, write) = unsafe { (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1])) };
        for fd in fds {
            for (cmd, flag) in [
                (ffi::F_SETFD, ffi::FD_CLOEXEC),
                (ffi::F_SETFL, ffi::O_NONBLOCK),
            ] {
                if unsafe { ffi::fcntl(fd, cmd, flag) } < 0 {
                    return Err(io::Error::last_os_error());
                }
            }
        }
        Ok(Wakeup { read, write })
    }

    /// The fd to register for read interest in a poller.
    pub fn fd(&self) -> RawFd {
        self.read.as_raw_fd()
    }

    /// Wake the poller. Callable from any thread; a full pipe is
    /// already rung, so a failed write is dropped.
    pub fn ring(&self) {
        let _ = (&self.write).write(&[1]);
    }

    /// Clear pending wakeups (call when the registered fd reads ready).
    /// One read of up to 64 bytes: rings beyond that keep the fd ready,
    /// and the next wait drains them.
    pub fn drain(&self) {
        let _ = (&self.read).read(&mut [0u8; 64]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poller_roundtrip() {
        let mut poller = Poller::new();
        let (mut a, b) = std::os::unix::net::UnixStream::pair().expect("pair");
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ);

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
    fn an_unregistered_fd_is_not_found() {
        let mut poller = Poller::new();
        let (_a, b) = std::os::unix::net::UnixStream::pair().expect("pair");
        let fd = b.as_raw_fd();
        let kind = |r: io::Result<()>| r.expect_err("unregistered fd").kind();
        assert_eq!(
            kind(poller.modify(fd, 1, Interest::READ)),
            io::ErrorKind::NotFound
        );
        assert_eq!(kind(poller.deregister(fd)), io::ErrorKind::NotFound);
        poller.register(fd, 1, Interest::READ);
        poller.deregister(fd).unwrap();
        assert_eq!(kind(poller.deregister(fd)), io::ErrorKind::NotFound);
    }

    #[test]
    fn wakeup_rings_and_drains() {
        let wakeup = Wakeup::new().expect("wakeup");
        let mut poller = Poller::new();
        poller.register(wakeup.fd(), 1, Interest::READ);

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

    #[test]
    fn a_burst_of_rings_goes_quiet_within_four_drains() {
        let wakeup = Wakeup::new().expect("wakeup");
        let mut poller = Poller::new();
        poller.register(wakeup.fd(), 1, Interest::READ);
        std::thread::scope(|s| {
            s.spawn(|| (0..200).for_each(|_| wakeup.ring()));
        });

        // 200 one-byte rings, 64 bytes per drain: the fourth drain
        // empties the pipe.
        let mut events = Vec::new();
        let mut rounds = 0;
        loop {
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            if events.is_empty() {
                break;
            }
            rounds += 1;
            assert!(rounds <= 4, "wakeup still ready after {rounds} drains");
            wakeup.drain();
        }
        assert_eq!(rounds, 4);
    }
}
