//! The daemon's I/O plane: one acceptor and N thread-per-core reactor
//! shards over epoll, for TCP and Unix sockets alike.
//!
//! The acceptor thread owns an epoll instance holding every bound
//! listener plus the eventfd [`ServerHandle::shutdown`] bumps, so a
//! connect is accepted the moment it lands and an idle daemon sleeps in
//! the kernel. It hands accepted connections round-robin to the shards
//! (SO_REUSEPORT-style sharding without the socket option: the kernel
//! balances *packets*, the acceptor balances *connections* — same
//! effect, no `setsockopt` FFI). Each shard is one thread owning one
//! epoll instance and every connection assigned to it: non-blocking
//! framed reads, request dispatch through
//! `handle_request`, and non-blocking framed writes with
//! per-connection backpressure.
//!
//! Scheduler workers never touch a socket. `OutBuf::send` appends the
//! encoded frame to the connection's outbound buffer under a short lock
//! and, once per flush cycle, bumps the shard's eventfd; the reactor drains the buffer with
//! non-blocking writes, arming `EPOLLOUT` only while bytes remain. A
//! peer costs bounded memory and zero worker time in both directions:
//! a consumer that stops reading is shed once its buffer passes
//! `HIGH_WATER`, a producer that never sends a newline once its
//! partial line does, and after shutdown is requested a buffer that
//! makes no write progress for `DRAIN_GRACE` no longer holds the exit.

use crate::protocol::{self, ErrorReply, Reply, Request};
use crate::scheduler::{send_reply, ReplySink};
use crate::server::{handle_request, ServerHandle};
use crate::sys::{raw_fd, Epoll, Event, Interest, RawFd, WakeFd};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum bytes buffered per connection and direction — outbound frames
/// waiting for the socket, or an inbound line still missing its newline —
/// before the peer is shed. Sized for a full fig1 sweep of record frames
/// (~350 × ~4 KiB) with two orders of magnitude of headroom.
const HIGH_WATER: usize = 64 << 20;

/// How long, once shutdown is requested, a connection's pending output
/// may make no write progress before it is shed: a connected client that
/// stops reading must not hold [`crate::Server::join`] forever.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// epoll wait bound while shutting down, when a shard polls for "the
/// scheduler has drained" and [`DRAIN_GRACE`]; before that it waits
/// without a timeout.
const DRAIN_TICK_MS: i32 = 50;

/// Pause after a failed `accept` (fd exhaustion): the listener stays
/// readable, so without it the level-triggered acceptor would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Events decoded per `epoll_wait` call.
const EVENT_BATCH: usize = 64;

/// Token reserved for a thread's wakeup eventfd (fds and listener
/// indices are small non-negative numbers, so this cannot collide).
const WAKE_TOKEN: u64 = u64::MAX;

/// Runs `$body` on whichever std socket type the two-variant enum holds.
macro_rules! on_socket {
    ($socket:expr, $s:ident => $body:expr) => {
        match $socket {
            Self::Tcp($s) => $body,
            #[cfg(unix)]
            Self::Unix($s) => $body,
        }
    };
}

/// A bound, non-blocking listening socket of either family.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn fd(&self) -> RawFd {
        on_socket!(self, l => raw_fd(l))
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Self::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// An accepted connection of either family.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn fd(&self) -> RawFd {
        on_socket!(self, s => raw_fd(s))
    }

    /// Switches to non-blocking mode; `false` if the socket refused.
    fn go_nonblocking(&self) -> bool {
        if let Self::Tcp(s) = self {
            // Reply streams are many small frames; never batch them
            // behind Nagle.
            let _ = s.set_nodelay(true);
        }
        on_socket!(self, s => s.set_nonblocking(true)).is_ok()
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }

    fn close(&self) {
        let _ = on_socket!(self, s => s.shutdown(Shutdown::Both));
    }
}

/// One connection's outbound state, shared between the reactor shard
/// (which drains it onto the socket) and every scheduler worker holding
/// the connection's sink.
struct OutState {
    /// Encoded frames waiting for the socket.
    bytes: Vec<u8>,
    /// Set on shed/teardown: later frames evaporate (client is gone).
    dead: bool,
    /// `true` while the connection sits on the shard's dirty list, so
    /// concurrent senders enqueue it at most once per flush cycle.
    queued: bool,
}

/// One connection's outbound buffer and the [`ReplySink`] the scheduler
/// holds for it: enqueues frames the sending thread encoded, and wakes
/// the owning shard.
struct OutBuf {
    fd: RawFd,
    state: Mutex<OutState>,
    /// The owning shard's dirty list: fds with fresh output to flush.
    dirty: Arc<Mutex<Vec<RawFd>>>,
    /// The owning shard's wakeup eventfd.
    wake: Arc<WakeFd>,
    /// Fault plan driving the `ServerStall`/`ServerWrite` sites (chaos
    /// machinery; inherited from the scheduler's config).
    #[cfg(feature = "faults")]
    faults: Option<Arc<atscale_faults::FaultPlan>>,
}

impl ReplySink for OutBuf {
    /// Appends the frame and its newline and, when that puts the
    /// connection on the dirty list, wakes the shard: one wake per flush
    /// cycle, however many frames it carries. Never blocks on the socket;
    /// a buffer past [`HIGH_WATER`] sheds the connection instead.
    fn send(&self, frame: &[u8]) {
        #[cfg(feature = "faults")]
        if let Some(plan) = &self.faults {
            use atscale_faults::FaultSite;
            if let Some(rule) = plan.check(FaultSite::ServerStall) {
                // A stalled peer: the frame arrives, but late — clients
                // must survive via read timeouts, not hang. Fired from a
                // direct reply this sleeps the whole shard.
                std::thread::sleep(Duration::from_millis(rule.stall_ms));
            }
            if plan.check(FaultSite::ServerWrite).is_some() {
                // A socket write error (EPIPE analogue): the connection
                // is dead from the server's point of view; subsequent
                // frames evaporate exactly as on a real broken pipe.
                self.state.lock().dead = true;
                return;
            }
        }
        {
            let mut state = self.state.lock();
            if state.dead {
                return;
            }
            if state.bytes.len() + frame.len() + 1 > HIGH_WATER {
                // Slow-consumer shed: the client stopped reading faster
                // than we produce. Drop the connection, not the worker.
                state.dead = true;
                state.bytes = Vec::new();
            } else {
                // One reservation for both: an empty buffer would otherwise
                // be sized to the frame, and the newline would reallocate it.
                state.bytes.reserve(frame.len() + 1);
                state.bytes.extend_from_slice(frame);
                state.bytes.push(b'\n');
            }
            if state.queued {
                // Already on the dirty list: the send that put it there
                // woke the shard, and `flush_conn` drains what this one
                // appended before it clears `queued`.
                return;
            }
            state.queued = true;
            self.dirty.lock().push(self.fd);
        }
        self.wake.wake();
    }
}

/// One epoll-registered connection, owned by its reactor shard.
struct Conn {
    stream: Stream,
    /// Partial inbound line (bytes after the last newline).
    inbound: Vec<u8>,
    out: Arc<OutBuf>,
    /// `out` again, as the trait object requests are dispatched with.
    sink: Arc<dyn ReplySink>,
    /// `EPOLLOUT` currently armed (pending output met a full socket).
    write_armed: bool,
    /// Close once the outbound buffer drains (shutdown acknowledged).
    close_after_flush: bool,
    /// While shutting down: since when pending output has made no write
    /// progress (see [`DRAIN_GRACE`]).
    stalled_since: Option<Instant>,
}

/// One reactor shard: the epoll instance plus the cross-thread inbox the
/// acceptor and the senders reach it through.
struct Shard {
    epoll: Epoll,
    wake: Arc<WakeFd>,
    /// Accepted connections waiting to be registered.
    inbox: Mutex<Vec<Stream>>,
    /// fds whose outbound buffers gained bytes since the last flush pass.
    dirty: Arc<Mutex<Vec<RawFd>>>,
}

impl Shard {
    fn new() -> io::Result<Shard> {
        let epoll = Epoll::new()?;
        let wake = Arc::new(WakeFd::new()?);
        epoll.add(wake.raw_fd(), WAKE_TOKEN, Interest::Read)?;
        Ok(Shard {
            epoll,
            wake,
            inbox: Mutex::new(Vec::new()),
            dirty: Arc::new(Mutex::new(Vec::new())),
        })
    }
}

/// Starts the I/O plane on already-bound, non-blocking listeners:
/// `shards` reactor threads plus the acceptor thread, which comes first
/// in the returned list ([`crate::Server::join`] joins in order, and the
/// acceptor is the thread that ends when shutdown is requested).
///
/// # Errors
///
/// Propagates epoll/eventfd failures — `ENOSYS` on hosts without epoll —
/// before any thread is spawned.
pub(crate) fn start(
    listeners: Vec<Listener>,
    handle: &ServerHandle,
    shards: usize,
) -> io::Result<Vec<JoinHandle<()>>> {
    let pool = (0..shards.max(1))
        .map(|_| Shard::new().map(Arc::new))
        .collect::<io::Result<Vec<_>>>()?;
    let epoll = Epoll::new()?;
    epoll.add(handle.wake.raw_fd(), WAKE_TOKEN, Interest::Read)?;
    for (index, listener) in listeners.iter().enumerate() {
        epoll.add(listener.fd(), index as u64, Interest::Read)?;
    }
    let mut threads = Vec::with_capacity(pool.len() + 1);
    let acceptor = handle.clone();
    let shards = pool.clone();
    threads.push(std::thread::spawn(move || {
        accept_loop(&epoll, &listeners, &acceptor, &shards);
    }));
    for shard in pool {
        let handle = handle.clone();
        threads.push(std::thread::spawn(move || run_shard(&shard, &handle)));
    }
    Ok(threads)
}

/// The acceptor: sleeps in epoll until a listener is readable or
/// shutdown bumps the eventfd, and hands each accepted connection to the
/// next shard. On the way out it wakes every shard, so they notice the
/// stop flag without a timeout.
fn accept_loop(epoll: &Epoll, listeners: &[Listener], handle: &ServerHandle, pool: &[Arc<Shard>]) {
    let mut events = [Event::default(); EVENT_BATCH];
    let mut next = 0usize;
    while !handle.stopping() {
        let ready = epoll.wait(&mut events, -1).unwrap_or_default();
        // The wake token names no listener: it only ends the loop.
        let readable = events.iter().take(ready);
        for listener in readable.filter_map(|e| listeners.get(e.token as usize)) {
            loop {
                match listener.accept() {
                    Ok(stream) => {
                        if let Some(shard) = pool.get(next % pool.len()) {
                            shard.inbox.lock().push(stream);
                            shard.wake.wake();
                        }
                        next = next.wrapping_add(1);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        std::thread::sleep(ACCEPT_BACKOFF);
                        break;
                    }
                }
            }
        }
    }
    for shard in pool {
        shard.wake.wake();
    }
}

/// One shard's event loop: register arrivals, read/dispatch frames, drain
/// outbound buffers, shed dead connections — until shutdown has drained
/// both the scheduler and every outbound buffer.
fn run_shard(shard: &Shard, handle: &ServerHandle) {
    // BTreeMap, not HashMap: the shutdown-drain check iterates every
    // connection, and deterministic order keeps the audit's taint pass
    // clean on a path that reaches RunStore::key.
    let mut conns: BTreeMap<RawFd, Conn> = BTreeMap::new();
    let mut events = [Event::default(); EVENT_BATCH];
    loop {
        let timeout_ms = if handle.stopping() { DRAIN_TICK_MS } else { -1 };
        let ready = shard
            .epoll
            .wait(&mut events, timeout_ms)
            .unwrap_or_default();
        #[cfg(feature = "faults")]
        if let Some(plan) = handle.scheduler().fault_plan() {
            use atscale_faults::FaultSite;
            if let Some(rule) = plan.check(FaultSite::ReactorStall) {
                // A stalled reactor shard: sockets stay unread and
                // buffers undrained for the stall — correctness must
                // survive on latency alone (level-triggered readiness
                // re-reports everything when the shard comes back).
                std::thread::sleep(Duration::from_millis(rule.stall_ms));
            }
        }
        let mut closed = BTreeSet::new();
        for event in events.iter().take(ready) {
            if event.token == WAKE_TOKEN {
                shard.wake.drain();
                continue;
            }
            let fd = event.token as RawFd;
            let Some(conn) = conns.get_mut(&fd) else {
                continue;
            };
            let mut gone = false;
            if event.readable {
                gone = read_frames(conn, handle);
            }
            if event.writable && !gone {
                gone = flush_conn(conn, &shard.epoll);
            }
            if gone || (event.closed && !event.readable) {
                closed.insert(fd);
            }
        }
        // Register connections the acceptor handed over.
        for stream in std::mem::take(&mut *shard.inbox.lock()) {
            register_conn(stream, shard, handle, &mut conns);
        }
        // Flush every connection whose buffer gained bytes since the last
        // pass (scheduler workers enqueue + wake; only this thread writes).
        for fd in std::mem::take(&mut *shard.dirty.lock()) {
            if let Some(conn) = conns.get_mut(&fd) {
                if flush_conn(conn, &shard.epoll) {
                    closed.insert(fd);
                }
            }
        }
        for fd in closed {
            if let Some(conn) = conns.remove(&fd) {
                teardown(&conn, &shard.epoll);
            }
        }
        if handle.stopping() {
            // Exit only once admitted work has delivered: the scheduler
            // is drained and no connection still buffers output.
            let flushed = shed_stalled(&mut conns, &shard.epoll);
            let stats = handle.scheduler().stats_reply();
            if flushed && stats.queued == 0 && stats.running == 0 {
                for conn in conns.values() {
                    teardown(conn, &shard.epoll);
                }
                return;
            }
        }
    }
}

/// Registers one accepted connection with the shard's epoll instance.
fn register_conn(
    stream: Stream,
    shard: &Shard,
    handle: &ServerHandle,
    conns: &mut BTreeMap<RawFd, Conn>,
) {
    #[cfg(not(feature = "faults"))]
    let _ = handle;
    let fd = stream.fd();
    if !stream.go_nonblocking() || shard.epoll.add(fd, fd as u64, Interest::Read).is_err() {
        return;
    }
    let out = Arc::new(OutBuf {
        fd,
        state: Mutex::new(OutState {
            bytes: Vec::new(),
            dead: false,
            queued: false,
        }),
        dirty: Arc::clone(&shard.dirty),
        wake: Arc::clone(&shard.wake),
        #[cfg(feature = "faults")]
        faults: handle.scheduler().fault_plan().cloned(),
    });
    conns.insert(
        fd,
        Conn {
            stream,
            inbound: Vec::new(),
            sink: Arc::clone(&out) as Arc<dyn ReplySink>,
            out,
            write_armed: false,
            close_after_flush: false,
            stalled_since: None,
        },
    );
}

/// Drains readable bytes and dispatches every complete frame. Returns
/// `true` when the connection is finished (EOF, read error, shed, or an
/// inbound line past [`HIGH_WATER`]).
fn read_frames(conn: &mut Conn, handle: &ServerHandle) -> bool {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => return true, // EOF
            Ok(n) => {
                // What is already buffered is a partial line, scanned
                // when it arrived: look for newlines in the fresh bytes
                // only.
                let fresh = conn.inbound.len();
                conn.inbound
                    .extend_from_slice(buf.get(..n).unwrap_or_default());
                if dispatch_lines(conn, fresh, handle) {
                    return true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Dispatches every complete line of `conn.inbound` (the first newline
/// lies at or after `scan`) and drops them from the buffer in one move.
/// Returns `true` when the connection is finished.
fn dispatch_lines(conn: &mut Conn, mut scan: usize, handle: &ServerHandle) -> bool {
    let mut start = 0usize;
    while let Some(len) = conn
        .inbound
        .get(scan..)
        .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
    {
        let end = scan + len;
        let line = String::from_utf8_lossy(conn.inbound.get(start..end).unwrap_or_default());
        start = end + 1;
        scan = start;
        if line.trim().is_empty() {
            continue;
        }
        match protocol::decode::<Request>(line.trim()) {
            Ok(request) => {
                if handle_request(&request, &conn.sink, handle) {
                    conn.close_after_flush = true;
                }
            }
            Err(message) => send_reply(&*conn.sink, &Reply::Error(ErrorReply { id: 0, message })),
        }
        if conn.out.state.lock().dead {
            return true;
        }
    }
    conn.inbound.drain(..start);
    // A peer that never sends a newline buys bounded memory, like one
    // that never reads.
    conn.inbound.len() > HIGH_WATER
}

/// Drains the connection's outbound buffer with non-blocking writes,
/// arming `EPOLLOUT` when the socket fills. Returns `true` when the
/// connection is finished (dead, write error, or drained-and-closing).
fn flush_conn(conn: &mut Conn, epoll: &Epoll) -> bool {
    loop {
        let chunk = {
            let mut state = conn.out.state.lock();
            if state.dead {
                return true;
            }
            if state.bytes.is_empty() {
                state.queued = false;
                break;
            }
            std::mem::take(&mut state.bytes)
        };
        let mut written = 0usize;
        let outcome = loop {
            let rest = chunk.get(written..).unwrap_or_default();
            if rest.is_empty() {
                break Ok(());
            }
            match conn.stream.write(rest) {
                Ok(0) => break Err(ErrorKind::WriteZero),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e.kind()),
            }
        };
        if written > 0 {
            conn.stalled_since = None;
        }
        match outcome {
            Ok(()) => {}
            Err(ErrorKind::WouldBlock) => {
                // Put the remainder back *in front of* anything workers
                // appended while the lock was released, then wait for
                // EPOLLOUT — this is the backpressure path.
                let mut state = conn.out.state.lock();
                let mut rest = chunk.get(written..).unwrap_or_default().to_vec();
                rest.extend_from_slice(&state.bytes);
                state.bytes = rest;
                drop(state);
                arm_write(conn, epoll, true);
                return false;
            }
            Err(_) => {
                conn.out.state.lock().dead = true;
                return true;
            }
        }
    }
    arm_write(conn, epoll, false);
    conn.close_after_flush
}

/// Arms `EPOLLOUT` while pending output waits on a full socket, disarms
/// it once the buffer has drained.
fn arm_write(conn: &mut Conn, epoll: &Epoll, armed: bool) {
    let interest = if armed {
        Interest::ReadWrite
    } else {
        Interest::Read
    };
    let fd = conn.out.fd;
    if conn.write_armed != armed && epoll.modify(fd, fd as u64, interest).is_ok() {
        conn.write_armed = armed;
    }
}

/// The shutdown-time write-progress bound: sheds every connection whose
/// pending output has made no progress for [`DRAIN_GRACE`]. Returns
/// `true` when no remaining connection still buffers output.
fn shed_stalled(conns: &mut BTreeMap<RawFd, Conn>, epoll: &Epoll) -> bool {
    let now = Instant::now();
    let mut flushed = true;
    conns.retain(|_, conn| {
        if conn.out.state.lock().bytes.is_empty() {
            return true;
        }
        if now.duration_since(*conn.stalled_since.get_or_insert(now)) < DRAIN_GRACE {
            flushed = false;
            return true;
        }
        teardown(conn, epoll);
        false
    });
    flushed
}

/// Deregisters and kills a finished connection.
fn teardown(conn: &Conn, epoll: &Epoll) {
    conn.out.state.lock().dead = true;
    let _ = epoll.delete(conn.out.fd);
    conn.stream.close();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames sent while the connection already waits on the dirty list
    /// ride the first frame's wake: three sends before a drain leave one
    /// wake on the eventfd and one dirty entry, and the next cycle wakes
    /// again.
    #[test]
    fn one_wake_per_flush_cycle() {
        let out = OutBuf {
            fd: 7,
            state: Mutex::new(OutState {
                bytes: Vec::new(),
                dead: false,
                queued: false,
            }),
            dirty: Arc::new(Mutex::new(Vec::new())),
            wake: Arc::new(WakeFd::new().expect("eventfd")),
            #[cfg(feature = "faults")]
            faults: None,
        };
        for frame in [&b"a"[..], b"bc", b"def"] {
            out.send(frame);
        }
        assert_eq!(out.wake.drain(), 1);
        assert_eq!(std::mem::take(&mut *out.dirty.lock()), [7]);
        assert_eq!(out.state.lock().bytes, b"a\nbc\ndef\n");
        // A flush that empties the buffer takes the connection off the
        // list; the next frame starts a new cycle.
        out.state.lock().bytes.clear();
        out.state.lock().queued = false;
        out.send(b"g");
        assert_eq!(out.wake.drain(), 1);
        assert_eq!(out.wake.drain(), 0);
        assert_eq!(*out.dirty.lock(), [7]);
    }
}
