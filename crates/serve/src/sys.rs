//! Raw `epoll(7)`/`eventfd(2)` bindings — the crate's single FFI boundary.
//!
//! The build environment has no `libc` crate, so the syscalls are
//! declared directly as the C library's variadic `syscall(2)` entry point
//! and the `epoll_event` struct is laid out by hand. Every fd the kernel hands back is immediately wrapped in a
//! [`File`] so closing is RAII, and the eventfd's read/write halves go
//! through safe `std::io`.
//!
//! Everything `unsafe` in `atscale-serve` lives in this module; the crate
//! root holds `#![deny(unsafe_code)]` and only this module carries the
//! narrow `#[allow]` (see `lib.rs` and audit rule 3's documented FFI
//! exception — this is the workspace's only sanctioned-unsafe site).
//!
//! The wait path uses `epoll_pwait` with a null sigmask on both
//! architectures: aarch64 never had a bare `epoll_wait` syscall, and with
//! a null mask `epoll_pwait` is exactly `epoll_wait`, so one entry point
//! covers both. Registration is level-triggered — the reactor re-arms
//! `EPOLLOUT` only while a connection has pending output, which is the
//! whole backpressure mechanism, and level triggering makes a missed
//! wakeup impossible by construction.

use std::fs::File;
use std::io::{self, Read, Write};
#[cfg(unix)]
use std::os::fd::AsRawFd;
#[cfg(unix)]
pub use std::os::fd::RawFd;

// Portable fallback so the module still compiles (and returns ENOSYS at
// runtime) on non-unix hosts, where `AsRawFd` does not exist.
#[cfg(not(unix))]
pub type RawFd = i32;

/// The platform fd of a socket, listener or eventfd, for epoll
/// registration.
#[cfg(unix)]
pub(crate) fn raw_fd(io: &impl AsRawFd) -> RawFd {
    io.as_raw_fd()
}

/// Non-unix stub: the value never reaches a kernel, because
/// [`Epoll::new`] has already failed with `ENOSYS`.
#[cfg(not(unix))]
pub(crate) fn raw_fd<T>(_io: &T) -> RawFd {
    -1
}

/// Readiness interest for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// `EPOLLIN | EPOLLRDHUP`.
    Read,
    /// `EPOLLIN | EPOLLOUT | EPOLLRDHUP` — armed only while a connection
    /// has buffered output to drain (write backpressure).
    ReadWrite,
}

/// One decoded readiness event out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Event {
    /// The token the fd was registered with (the reactor uses the fd
    /// number itself).
    pub token: u64,
    /// `EPOLLIN`: a read will not block.
    pub readable: bool,
    /// `EPOLLOUT`: a write will not block.
    pub writable: bool,
    /// `EPOLLERR | EPOLLHUP | EPOLLRDHUP`: the peer is gone or the fd is
    /// in an error state — tear the connection down.
    pub closed: bool,
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    file: File,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's error; `ENOSYS` (38) on non-Linux hosts,
    /// which `Server::start` returns as is — there is no other I/O plane.
    pub fn new() -> io::Result<Epoll> {
        imp::epoll_create1().map(|file| Epoll { file })
    }

    /// Registers `fd` with the given interest under `token`.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's error (e.g. `EEXIST` on double-add).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        imp::epoll_ctl(&self.file, imp::EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Re-registers `fd` with a new interest set (arms/disarms `EPOLLOUT`).
    ///
    /// # Errors
    ///
    /// Propagates the kernel's error.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        imp::epoll_ctl(&self.file, imp::EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's error.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        imp::epoll_ctl(&self.file, imp::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (−1 = forever) for readiness, filling
    /// `events`; returns how many entries are valid.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's error; `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        loop {
            match imp::epoll_pwait(&self.file, events, timeout_ms) {
                Err(e) if e.raw_os_error() == Some(4) => continue, // EINTR
                other => return other,
            }
        }
    }
}

impl Interest {
    /// The `EPOLLIN`/`EPOLLOUT`/`EPOLLRDHUP` mask for this interest.
    fn bits(self) -> u32 {
        match self {
            Interest::Read => imp::EPOLLIN | imp::EPOLLRDHUP,
            Interest::ReadWrite => imp::EPOLLIN | imp::EPOLLOUT | imp::EPOLLRDHUP,
        }
    }
}

/// A wakeup channel into a reactor thread: an `eventfd` whose counter the
/// writers bump (scheduler workers with fresh output frames, the acceptor
/// with fresh connections, `ServerHandle::shutdown` for the acceptor
/// itself) and a shard drains at the top of its loop.
#[derive(Debug)]
pub struct WakeFd {
    file: File,
}

impl WakeFd {
    /// Creates a non-blocking, close-on-exec eventfd with counter 0.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's error; `ENOSYS` on non-Linux hosts.
    pub fn new() -> io::Result<WakeFd> {
        imp::eventfd().map(|file| WakeFd { file })
    }

    /// The raw fd, for epoll registration.
    pub fn raw_fd(&self) -> RawFd {
        raw_fd(&self.file)
    }

    /// Bumps the counter, waking any `epoll_pwait` on the fd. Errors are
    /// swallowed: the only failure mode of an eventfd write is a full
    /// counter (`EAGAIN`), which already means a wakeup is pending.
    pub fn wake(&self) {
        let _ = (&self.file).write_all(&1u64.to_ne_bytes());
    }

    /// Resets the counter to 0 (the fd is non-blocking; an empty counter
    /// reads `EAGAIN`, which is the normal idle case and ignored).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[allow(unsafe_code)]
mod imp {
    use super::Event;
    use std::fs::File;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};

    #[cfg(target_arch = "x86_64")]
    const SYS_EPOLL_CREATE1: std::ffi::c_long = 291;
    #[cfg(target_arch = "aarch64")]
    const SYS_EPOLL_CREATE1: std::ffi::c_long = 20;

    #[cfg(target_arch = "x86_64")]
    const SYS_EPOLL_CTL: std::ffi::c_long = 233;
    #[cfg(target_arch = "aarch64")]
    const SYS_EPOLL_CTL: std::ffi::c_long = 21;

    #[cfg(target_arch = "x86_64")]
    const SYS_EPOLL_PWAIT: std::ffi::c_long = 281;
    #[cfg(target_arch = "aarch64")]
    const SYS_EPOLL_PWAIT: std::ffi::c_long = 22;

    #[cfg(target_arch = "x86_64")]
    const SYS_EVENTFD2: std::ffi::c_long = 290;
    #[cfg(target_arch = "aarch64")]
    const SYS_EVENTFD2: std::ffi::c_long = 19;

    pub(super) const EPOLL_CTL_ADD: i32 = 1;
    pub(super) const EPOLL_CTL_DEL: i32 = 2;
    pub(super) const EPOLL_CTL_MOD: i32 = 3;

    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    /// `EPOLL_CLOEXEC` == `O_CLOEXEC` (octal 02000000).
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    /// `EFD_CLOEXEC` (same bit as `O_CLOEXEC`).
    const EFD_CLOEXEC: i32 = 0o2000000;
    /// `EFD_NONBLOCK` (same bit as `O_NONBLOCK`).
    const EFD_NONBLOCK: i32 = 0o4000;

    /// `sizeof(sigset_t)` the kernel expects from `epoll_pwait`
    /// (`_NSIG / 8` = 8 bytes on both architectures).
    const SIGSET_SIZE: std::ffi::c_ulong = 8;

    /// `struct epoll_event`: packed on x86-64 (12 bytes), naturally
    /// aligned on every other architecture (16 bytes) — the kernel ABI's
    /// one genuinely arch-dependent struct layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn syscall(num: std::ffi::c_long, ...) -> std::ffi::c_long;
    }

    pub(super) fn epoll_create1() -> io::Result<File> {
        // SAFETY: epoll_create1 takes one integer flag argument and
        // returns a fresh fd or a negative errno indicator.
        let fd = unsafe { syscall(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: a non-negative return is a fresh fd owned by us alone;
        // File assumes that ownership and closes it on drop.
        Ok(unsafe { File::from_raw_fd(fd as i32) })
    }

    pub(super) fn epoll_ctl(
        epfd: &File,
        op: i32,
        fd: RawFd,
        events: u32,
        token: u64,
    ) -> io::Result<()> {
        let event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: the event struct outlives the call (the kernel copies it
        // before returning; EPOLL_CTL_DEL ignores the pointer entirely but
        // a valid one is passed anyway for pre-2.6.9 kernel semantics),
        // and the remaining arguments are plain integers.
        let rc = unsafe {
            syscall(
                SYS_EPOLL_CTL,
                epfd.as_raw_fd(),
                op,
                fd,
                std::ptr::from_ref(&event),
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub(super) fn epoll_pwait(
        epfd: &File,
        out: &mut [Event],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut raw = [EpollEvent { events: 0, data: 0 }; 64];
        let cap = out.len().min(raw.len());
        // SAFETY: `raw` is a live, writable buffer of `cap` entries that
        // outlives the call; the sigmask is null (plain epoll_wait
        // semantics) with the kernel's expected sigset size passed for the
        // arches that validate it; the rest are plain integers.
        let n = unsafe {
            syscall(
                SYS_EPOLL_PWAIT,
                epfd.as_raw_fd(),
                raw.as_mut_ptr(),
                cap as i32,
                timeout_ms,
                std::ptr::null::<u8>(),
                SIGSET_SIZE,
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        let n = (n as usize).min(cap);
        for (slot, ev) in out.iter_mut().zip(raw.iter().take(n)) {
            let bits = ev.events;
            *slot = Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            };
        }
        Ok(n)
    }

    pub(super) fn eventfd() -> io::Result<File> {
        // SAFETY: eventfd2 takes an initial counter value and a flag word;
        // it returns a fresh fd or a negative errno indicator.
        let fd = unsafe { syscall(SYS_EVENTFD2, 0u32, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: a non-negative return is a fresh fd owned by us alone.
        Ok(unsafe { File::from_raw_fd(fd as i32) })
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::Event;
    use super::RawFd;
    use std::fs::File;
    use std::io;

    pub(super) const EPOLL_CTL_ADD: i32 = 1;
    pub(super) const EPOLL_CTL_DEL: i32 = 2;
    pub(super) const EPOLL_CTL_MOD: i32 = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    fn enosys() -> io::Error {
        // ENOSYS: no epoll on this target, so the daemon cannot start
        // here (clients and the wire codec still build and run).
        io::Error::from_raw_os_error(38)
    }

    pub(super) fn epoll_create1() -> io::Result<File> {
        Err(enosys())
    }

    pub(super) fn epoll_ctl(
        _epfd: &File,
        _op: i32,
        _fd: RawFd,
        _events: u32,
        _token: u64,
    ) -> io::Result<()> {
        Err(enosys())
    }

    pub(super) fn epoll_pwait(
        _epfd: &File,
        _out: &mut [Event],
        _timeout_ms: i32,
    ) -> io::Result<usize> {
        Err(enosys())
    }

    pub(super) fn eventfd() -> io::Result<File> {
        Err(enosys())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Environment-agnostic: on Linux the instance opens and an empty wait
    /// times out cleanly; elsewhere construction fails with `ENOSYS`.
    #[test]
    fn epoll_either_works_or_reports_enosys() {
        match Epoll::new() {
            Ok(ep) => {
                let mut events = [Event::default(); 4];
                let n = ep.wait(&mut events, 0).expect("zero-timeout wait");
                assert_eq!(n, 0, "nothing registered, nothing ready");
            }
            Err(e) => assert_eq!(e.raw_os_error(), Some(38)),
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn eventfd_wakes_an_epoll_wait_and_drains() {
        let ep = Epoll::new().expect("epoll");
        let wake = WakeFd::new().expect("eventfd");
        ep.add(wake.raw_fd(), 7, Interest::Read).expect("register");

        // Nothing pending: a zero-timeout wait sees nothing.
        let mut events = [Event::default(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        // A wake makes the fd readable under the registered token…
        wake.wake();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // …and draining resets it (level-triggered: without the drain the
        // next wait would still report readiness).
        wake.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn socket_registration_reports_read_write_and_hangup() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        let fd = server.as_raw_fd();
        ep.add(fd, fd as u64, Interest::ReadWrite).unwrap();

        // An idle established socket is writable but not readable.
        let mut events = [Event::default(); 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable && !events[0].readable);

        // Peer data arrives: readable. Peer close: hangup.
        (&client).write_all(b"ping\n").unwrap();
        drop(client);
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);
        assert!(events[0].closed, "RDHUP after peer close");

        ep.delete(fd).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }
}
