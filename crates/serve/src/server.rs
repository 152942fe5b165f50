//! The daemon: socket listeners, per-connection threads, and lifecycle.
//!
//! Everything is std threads — no async runtime, consistent with the
//! vendored offline build. Each accepted connection gets one reader
//! thread; writes are serialized per connection through a mutexed
//! line writer shared by the reader (direct replies) and the scheduler's
//! workers (streamed records/samples/progress). Listeners poll in
//! non-blocking mode so shutdown needs no signal handling: a `Shutdown`
//! frame (or [`ServerHandle::shutdown`]) flips the stop flag, the
//! scheduler drains, and [`Server::join`] returns.

use crate::protocol::{self, ErrorReply, Reply, Request, Welcome, PROTOCOL_VERSION};
use crate::scheduler::{ReplySink, Scheduler, ServeConfig};
use atscale::StoreStats;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often idle listeners poll the stop flag.
pub(crate) const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-frame socket write timeout. Workers deliver replies while holding
/// the connection's writer mutex, so a stalled client (full TCP buffer
/// that never errors) would otherwise block a scheduler worker — and,
/// transitively, drain/shutdown — forever. A write that cannot complete
/// within this bound marks the connection dead instead.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// One connection's write half: serializes frames from the reader thread
/// and every scheduler worker onto the socket.
struct ConnWriter {
    stream: Mutex<Box<dyn Write + Send>>,
    /// Set on the first write error — including a [`WRITE_TIMEOUT`] expiry
    /// on a stalled socket; later frames are dropped silently (the client
    /// is gone — its subscriptions just evaporate).
    dead: AtomicBool,
    /// Fault plan driving the `ServerWrite`/`ServerStall` sites (chaos
    /// machinery; inherited from the scheduler's config).
    #[cfg(feature = "faults")]
    faults: Option<Arc<atscale_faults::FaultPlan>>,
}

impl ConnWriter {
    fn new(stream: Box<dyn Write + Send>, handle: &ServerHandle) -> ConnWriter {
        #[cfg(not(feature = "faults"))]
        let _ = handle;
        ConnWriter {
            stream: Mutex::new(stream),
            dead: AtomicBool::new(false),
            #[cfg(feature = "faults")]
            faults: handle.scheduler.fault_plan().cloned(),
        }
    }
}

impl ReplySink for ConnWriter {
    fn send(&self, reply: &Reply) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        #[cfg(feature = "faults")]
        if let Some(plan) = &self.faults {
            use atscale_faults::FaultSite;
            if let Some(rule) = plan.check(FaultSite::ServerStall) {
                // A stalled peer: the frame arrives, but late — clients
                // must survive via read timeouts, not hang.
                std::thread::sleep(Duration::from_millis(rule.stall_ms));
            }
            if plan.check(FaultSite::ServerWrite).is_some() {
                // A socket write error (EPIPE analogue): the connection
                // is dead from the server's point of view; subsequent
                // frames evaporate exactly as on a real broken pipe.
                self.dead.store(true, Ordering::Relaxed);
                return;
            }
        }
        let mut line = protocol::encode(reply);
        line.push('\n');
        // Writing under the lock is the design: the mutex is what
        // serializes whole frames from the reader thread and every worker
        // onto the socket, and WRITE_TIMEOUT bounds how long a stalled
        // peer can hold it.
        let mut stream = self.stream.lock();
        // analyze:allow(lock-io): per-connection frame serialization requires writing under the writer mutex; WRITE_TIMEOUT bounds the hold
        let sent = stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.flush());
        if sent.is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }
}

/// Shared lifecycle switch between the server, its listeners, and clients'
/// `Shutdown` frames.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    scheduler: Arc<Scheduler>,
}

impl ServerHandle {
    /// Requests graceful shutdown: stop accepting, drain the queue.
    pub fn shutdown(&self) {
        self.scheduler.drain();
        self.stop.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The scheduler, for stats and the pause/resume maintenance hooks.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }
}

/// A bound, running daemon.
#[derive(Debug)]
pub struct Server {
    handle: ServerHandle,
    tcp_addr: Option<SocketAddr>,
    threads: Vec<JoinHandle<()>>,
    /// Unix socket path to unlink on join.
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Binds and starts the daemon: spawns the scheduler's workers plus
    /// one listener thread per endpoint. At least one endpoint must be
    /// given.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an endpoint cannot be bound.
    pub fn start(
        config: ServeConfig,
        tcp: Option<&str>,
        unix: Option<&Path>,
    ) -> std::io::Result<Server> {
        assert!(
            tcp.is_some() || unix.is_some(),
            "a server needs at least one endpoint"
        );
        let scheduler = Arc::new(Scheduler::new(config));
        let handle = ServerHandle {
            stop: Arc::new(AtomicBool::new(false)),
            scheduler: Arc::clone(&scheduler),
        };
        let mut threads = Vec::new();
        for _ in 0..scheduler.workers() {
            let scheduler = Arc::clone(&scheduler);
            threads.push(std::thread::spawn(move || scheduler.worker_loop()));
        }
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let handle = handle.clone();
            threads.push(std::thread::spawn(move || accept_tcp(&listener, &handle)));
        }
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = unix {
            // A stale socket file from a crashed daemon would make bind
            // fail — but only unlink it after probing that nothing is
            // listening, so starting a second daemon on a live endpoint
            // fails loudly instead of silently stealing it.
            if path.exists() {
                if UnixStream::connect(path).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("a live daemon already serves {}", path.display()),
                    ));
                }
                let _ = std::fs::remove_file(path);
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.to_path_buf());
            let handle = handle.clone();
            threads.push(std::thread::spawn(move || accept_unix(&listener, &handle)));
        }
        #[cfg(not(unix))]
        if let Some(path) = unix {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!(
                    "unix sockets unavailable on this platform: {}",
                    path.display()
                ),
            ));
        }
        Ok(Server {
            handle,
            tcp_addr,
            threads,
            unix_path,
        })
    }

    /// Binds and starts the daemon on the **epoll tier**: the scheduler's
    /// workers plus thread-per-core reactor shards behind one acceptor
    /// (see [`crate::reactor`]). TCP only — the epoll tier exists for
    /// network-scale fan-in; Unix-socket deployments keep the blocking
    /// tier.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the endpoint cannot be bound, or `ENOSYS`
    /// on hosts without epoll (non-Linux), where [`Server::start`] remains
    /// the portable path.
    pub fn start_epoll(config: ServeConfig, tcp: &str) -> std::io::Result<Server> {
        // analyze:allow(determinism): reactor-shard count is I/O-plane topology, never record input
        // — it only partitions connections across reactor threads; records
        // are produced by the scheduler's workers and are identical for any
        // shard count (the sharded e2e suite pins byte-identity at 1 and 2
        // reactors).
        let shards = std::thread::available_parallelism().map_or(2, std::num::NonZero::get);
        Self::start_epoll_sharded(config, tcp, shards)
    }

    /// [`Server::start_epoll`] with an explicit reactor-shard count
    /// (tests and the loadgen topology spawner pin it).
    ///
    /// # Errors
    ///
    /// As [`Server::start_epoll`].
    pub fn start_epoll_sharded(
        config: ServeConfig,
        tcp: &str,
        reactor_shards: usize,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(tcp)?;
        listener.set_nonblocking(true)?;
        let tcp_addr = Some(listener.local_addr()?);
        let scheduler = Arc::new(Scheduler::new(config));
        let handle = ServerHandle {
            stop: Arc::new(AtomicBool::new(false)),
            scheduler: Arc::clone(&scheduler),
        };
        let mut threads = Vec::new();
        // Reactor shards first: if epoll is unavailable (ENOSYS), fail
        // before any worker thread exists.
        threads.extend(crate::reactor::start(
            listener,
            handle.clone(),
            reactor_shards,
        )?);
        for _ in 0..scheduler.workers() {
            let scheduler = Arc::clone(&scheduler);
            threads.push(std::thread::spawn(move || scheduler.worker_loop()));
        }
        Ok(Server {
            handle,
            tcp_addr,
            threads,
            unix_path: None,
        })
    }

    /// The bound TCP address, if a TCP endpoint was requested (useful with
    /// port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A lifecycle handle (cloneable across threads).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Blocks until shutdown is requested, the queue is drained, and all
    /// listener/worker threads have exited. Connection threads are not
    /// joined — they die with their sockets.
    pub fn join(self) {
        while !self.handle.stopping() {
            std::thread::sleep(ACCEPT_POLL);
        }
        self.handle.scheduler.wait_drained();
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// [`ServerHandle::shutdown`] + [`Server::join`] in one call.
    pub fn shutdown_and_join(self) {
        self.handle.shutdown();
        self.join();
    }
}

fn accept_tcp(listener: &TcpListener, handle: &ServerHandle) {
    loop {
        if handle.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => spawn_tcp_conn(stream, handle.clone()),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn spawn_tcp_conn(stream: TcpStream, handle: ServerHandle) {
    let _ = stream.set_nonblocking(false);
    // Reply streams are many small frames; never batch them behind Nagle.
    let _ = stream.set_nodelay(true);
    // A stalled reader must not block workers (see WRITE_TIMEOUT).
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    std::thread::spawn(move || {
        serve_connection(
            BufReader::new(Box::new(read_half) as Box<dyn std::io::Read + Send>),
            Arc::new(ConnWriter::new(Box::new(stream), &handle)),
            &handle,
        );
    });
}

#[cfg(unix)]
fn accept_unix(listener: &UnixListener, handle: &ServerHandle) {
    loop {
        if handle.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => spawn_unix_conn(stream, handle.clone()),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

#[cfg(unix)]
fn spawn_unix_conn(stream: UnixStream, handle: ServerHandle) {
    let _ = stream.set_nonblocking(false);
    // A stalled reader must not block workers (see WRITE_TIMEOUT).
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    std::thread::spawn(move || {
        serve_connection(
            BufReader::new(Box::new(read_half) as Box<dyn std::io::Read + Send>),
            Arc::new(ConnWriter::new(Box::new(stream), &handle)),
            &handle,
        );
    });
}

/// One connection's request loop: read frames until EOF or shutdown.
fn serve_connection(
    reader: BufReader<Box<dyn std::io::Read + Send>>,
    writer: Arc<ConnWriter>,
    handle: &ServerHandle,
) {
    for line in reader.lines() {
        let Ok(line) = line else {
            return; // connection gone
        };
        if line.trim().is_empty() {
            continue;
        }
        match protocol::decode::<Request>(&line) {
            Ok(request) => {
                let sink = Arc::clone(&writer) as Arc<dyn ReplySink>;
                if handle_request(&request, &sink, handle) {
                    return;
                }
            }
            Err(message) => writer.send(&Reply::Error(ErrorReply { id: 0, message })),
        }
        if writer.dead.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// The v5 results-plane verbs are answered by the run store; a store-less
/// server rejects them with this message.
const NOT_SEGMENTED: &str =
    "results plane unavailable: server has no run store (start it without --no-store)";

fn no_store() -> Reply {
    Reply::Error(ErrorReply {
        id: 0,
        message: NOT_SEGMENTED.to_string(),
    })
}

/// Dispatches one request; returns `true` when the connection should end
/// (shutdown acknowledged). Shared by both I/O tiers: the blocking tier
/// calls it from per-connection reader threads, the epoll tier from
/// reactor shards — the sink abstracts the write path.
pub(crate) fn handle_request(
    request: &Request,
    writer: &Arc<dyn ReplySink>,
    handle: &ServerHandle,
) -> bool {
    match request {
        Request::Hello(hello) => {
            if hello.protocol == PROTOCOL_VERSION {
                writer.send(&Reply::Welcome(Welcome {
                    protocol: PROTOCOL_VERSION,
                    server: format!("atscale-serve/{}", env!("CARGO_PKG_VERSION")),
                    workers: handle.scheduler.workers() as u64,
                    queue_capacity: handle.scheduler.queue_capacity() as u64,
                    shard: handle.scheduler.shard(),
                    shards: handle.scheduler.shards(),
                    topology: handle.scheduler.topology().to_vec(),
                    architectures: atscale::ArchKind::ALL
                        .iter()
                        .map(ToString::to_string)
                        .collect(),
                }));
            } else {
                writer.send(&Reply::Error(ErrorReply {
                    id: 0,
                    message: format!(
                        "protocol mismatch: client speaks {}, server speaks {PROTOCOL_VERSION}",
                        hello.protocol
                    ),
                }));
            }
            false
        }
        Request::Submit(submit) => {
            if submit.specs.is_empty() {
                writer.send(&Reply::Error(ErrorReply {
                    id: submit.id,
                    message: "empty batch".to_string(),
                }));
            } else {
                handle.scheduler.submit(submit, Arc::clone(writer));
            }
            false
        }
        Request::CacheStats => {
            let stats = handle
                .scheduler
                .store()
                .map_or_else(StoreStats::default, atscale::RunStore::stats);
            writer.send(&Reply::CacheStats(stats));
            false
        }
        Request::ServerStats => {
            writer.send(&Reply::ServerStats(handle.scheduler.stats_reply()));
            false
        }
        Request::Query(filter) => {
            let store = handle.scheduler.store();
            writer.send(&store.map_or_else(no_store, |s| Reply::QueryResult(s.query(filter))));
            false
        }
        Request::Compact => {
            let reply = match handle.scheduler.store().map(atscale::RunStore::compact) {
                Some(Ok(stats)) => Reply::Compacted(stats),
                Some(Err(e)) => Reply::Error(ErrorReply {
                    id: 0,
                    message: format!("compaction failed: {e}"),
                }),
                None => no_store(),
            };
            writer.send(&reply);
            false
        }
        Request::StoreSegStats => {
            let store = handle.scheduler.store();
            writer.send(&store.map_or_else(no_store, |s| Reply::StoreSegStats(s.seg_stats())));
            false
        }
        Request::Shutdown => {
            writer.send(&Reply::ShuttingDown);
            handle.shutdown();
            true
        }
    }
}
