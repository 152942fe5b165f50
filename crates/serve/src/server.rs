//! The daemon: endpoint binding, request dispatch, and lifecycle.
//!
//! Everything is std threads — no async runtime, consistent with the
//! vendored offline build. [`Server::start`] binds the requested
//! endpoints (TCP and/or a Unix socket), hands them to the epoll I/O
//! plane ([`crate::reactor`]: one acceptor, N reactor shards) and spawns
//! the scheduler's workers. Shutdown needs no signal handling: a
//! `Shutdown` frame (or [`ServerHandle::shutdown`]) flips the stop flag
//! and bumps the acceptor's eventfd, the scheduler drains, the shards
//! flush, and [`Server::join`] returns.

use crate::protocol::{ErrorReply, Reply, Request, Welcome, PROTOCOL_VERSION};
use crate::reactor::Listener;
use crate::scheduler::{send_reply, ReplySink, Scheduler, ServeConfig};
use crate::sys::WakeFd;
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Shared lifecycle switch between the server, its I/O threads, and
/// clients' `Shutdown` frames.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    scheduler: Arc<Scheduler>,
    /// The acceptor's wakeup (it sleeps in epoll without a timeout),
    /// registered in its epoll set by [`crate::reactor::start`].
    pub(crate) wake: Arc<WakeFd>,
}

impl ServerHandle {
    /// Requests graceful shutdown: stop accepting, drain the queue.
    pub fn shutdown(&self) {
        self.scheduler.drain();
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
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
    /// Acceptor first, then reactor shards, then workers.
    threads: Vec<JoinHandle<()>>,
    /// Unix socket path to unlink on join.
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Binds and starts the daemon: the acceptor and
    /// [`ServeConfig::reactors`] reactor shards serving every given
    /// endpoint, plus the scheduler's workers. At least one endpoint must
    /// be given.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an endpoint cannot be bound, or `ENOSYS`
    /// on a host without epoll (non-Linux): the reactor is the only I/O
    /// plane.
    pub fn start(
        config: ServeConfig,
        tcp: Option<&str>,
        unix: Option<&Path>,
    ) -> std::io::Result<Server> {
        assert!(
            tcp.is_some() || unix.is_some(),
            "a server needs at least one endpoint"
        );
        // The eventfd first: without epoll this is where `ENOSYS`
        // surfaces, before anything is bound.
        let wake = Arc::new(WakeFd::new()?);
        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            listeners.push(Listener::Tcp(listener));
        }
        let mut unix_path = None;
        if let Some(path) = unix {
            listeners.push(bind_unix(path)?);
            unix_path = Some(path.to_path_buf());
        }
        let reactors = config.reactors;
        let scheduler = Arc::new(Scheduler::new(config));
        let handle = ServerHandle {
            stop: Arc::new(AtomicBool::new(false)),
            scheduler: Arc::clone(&scheduler),
            wake,
        };
        // The I/O plane before the workers: if it cannot start, no thread
        // exists yet and only the socket file needs taking back.
        let mut threads =
            crate::reactor::start(listeners, &handle, reactors).inspect_err(|_| {
                if let Some(path) = &unix_path {
                    let _ = std::fs::remove_file(path);
                }
            })?;
        for _ in 0..scheduler.workers() {
            let scheduler = Arc::clone(&scheduler);
            threads.push(std::thread::spawn(move || scheduler.worker_loop()));
        }
        Ok(Server {
            handle,
            tcp_addr,
            threads,
            unix_path,
        })
    }

    /// `benchmark/` calls this and cannot be edited outside a benchmark
    /// PR (the one deferred since PR 17 removes it): [`Server::start`] on a
    /// TCP endpoint.
    #[doc(hidden)]
    pub fn start_epoll_sharded(
        config: ServeConfig,
        tcp: &str,
        reactors: usize,
    ) -> std::io::Result<Server> {
        Self::start(ServeConfig { reactors, ..config }, Some(tcp), None)
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

    /// Blocks until shutdown is requested, the queue is drained, every
    /// reply is flushed (or its connection shed), and all threads have
    /// exited: the acceptor ends on the shutdown request, a shard once the
    /// scheduler is drained and its buffers are empty, a worker once the
    /// queue is.
    pub fn join(self) {
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

/// Binds the Unix endpoint. A stale socket file from a crashed daemon
/// would make bind fail — but it is only unlinked after probing that
/// nothing is listening, so starting a second daemon on a live endpoint
/// fails loudly instead of silently stealing it.
#[cfg(unix)]
fn bind_unix(path: &Path) -> std::io::Result<Listener> {
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
    Ok(Listener::Unix(listener))
}

#[cfg(not(unix))]
fn bind_unix(path: &Path) -> std::io::Result<Listener> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        format!(
            "unix sockets unavailable on this platform: {}",
            path.display()
        ),
    ))
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

/// Dispatches one request from a reactor shard; returns `true` when the
/// connection should end (shutdown acknowledged).
pub(crate) fn handle_request(
    request: &Request,
    writer: &Arc<dyn ReplySink>,
    handle: &ServerHandle,
) -> bool {
    let reply = match request {
        Request::Hello(hello) if hello.protocol == PROTOCOL_VERSION => Reply::Welcome(Welcome {
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
        }),
        Request::Hello(hello) => Reply::Error(ErrorReply {
            id: 0,
            message: format!(
                "protocol mismatch: client speaks {}, server speaks {PROTOCOL_VERSION}",
                hello.protocol
            ),
        }),
        Request::Submit(submit) if submit.specs.is_empty() => Reply::Error(ErrorReply {
            id: submit.id,
            message: "empty batch".to_string(),
        }),
        Request::Submit(submit) => {
            // The scheduler answers on `writer` itself.
            handle.scheduler.submit(submit, Arc::clone(writer));
            return false;
        }
        Request::ServerStats => Reply::ServerStats(handle.scheduler.stats_reply()),
        Request::Query(filter) => {
            let store = handle.scheduler.store();
            store.map_or_else(no_store, |s| Reply::QueryResult(s.query(filter)))
        }
        Request::Compact => {
            // Compaction runs on this reactor thread: contain a panic in it
            // so it fails this request instead of unwinding the shard. The
            // store's poison recovery may lose cached rows after that, never
            // serve a wrong record (DESIGN §16).
            match handle.scheduler.store().map(|store| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.compact()))
            }) {
                Some(Ok(Ok(stats))) => Reply::Compacted(stats),
                Some(Ok(Err(e))) => Reply::Error(ErrorReply {
                    id: 0,
                    message: format!("compaction failed: {e}"),
                }),
                Some(Err(_)) => Reply::Error(ErrorReply {
                    id: 0,
                    message: "compaction panicked".to_string(),
                }),
                None => no_store(),
            }
        }
        Request::StoreSegStats => {
            let store = handle.scheduler.store();
            store.map_or_else(no_store, |s| Reply::StoreSegStats(s.seg_stats()))
        }
        Request::Shutdown => Reply::ShuttingDown,
    };
    send_reply(&**writer, &reply);
    let shutdown = matches!(request, Request::Shutdown);
    if shutdown {
        handle.shutdown();
    }
    shutdown
}
