//! The TCP accept loop and fixed-size worker pool.
//!
//! Everything is plain `std`: a blocking [`TcpListener::accept`] loop,
//! a *bounded* `mpsc::sync_channel` feeding a fixed pool of scoped
//! worker threads, and per-connection read/write deadlines so a stalled
//! peer can never wedge a worker (the bounded-read property the fuzz
//! suite exercises end to end). A burst of slow clients cannot grow the
//! queue or the open-fd count without bound either: connections
//! arriving while the queue is full are shed with a best-effort 503 and
//! closed.
//!
//! Shutdown does not rely on a signal interrupting `accept`: a signal
//! handler installed with `SA_RESTART` restarts it, and the signal may
//! land on any thread. Instead a watcher thread polls the shutdown flag
//! and, once it is set, connects to the listener itself; the accept loop
//! checks the flag after every accept, drops that wake connection
//! uncounted and returns.

use std::io::Write as _;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use nanocost_trace::stack_registry;

use crate::api;
use crate::http::{self, Response};
use crate::state::{ProfileRing, ServerState, WorkerStat};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker thread count (clamped to at least one).
    pub workers: usize,
    /// Per-connection read/write deadline.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            io_timeout: Duration::from_secs(2),
        }
    }
}

/// How long the accept loop backs off after an accept error such as
/// `EMFILE`, so descriptor exhaustion does not become a busy loop.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// How long a worker blocks on the connection queue, and the shutdown
/// watcher sleeps, before re-checking the shutdown flag.
const WORKER_POLL: Duration = Duration::from_millis(50);

/// Connect deadline of the shutdown watcher's wake connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Per-worker depth of the bounded connection queue. With the default
/// 2s deadline a full queue drains in a few seconds, so a deeper
/// backlog would only hold file descriptors open for peers that will
/// time out anyway — shed them instead.
const QUEUE_DEPTH_PER_WORKER: usize = 8;

/// Write deadline for the best-effort 503 sent to a shed connection;
/// the accept loop must never block on a peer that refuses to read.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// A bound server, ready to run.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: ServerState,
    config: ServerConfig,
}

impl Server {
    /// Binds the listener and builds fresh default [`ServerState`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_with_state(config, ServerState::new())
    }

    /// Binds the listener around pre-built state (the `serve` bin uses
    /// this to apply `ServerStateConfig::from_env`).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with_state(config: ServerConfig, state: ServerState) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            state,
            config,
        })
    }

    /// The bound address (resolves the ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (exposed for in-process tests).
    #[must_use]
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Serves until `shutdown` becomes true: accepts connections on the
    /// main thread and dispatches them to the worker pool through a
    /// bounded queue. Connections arriving while the queue is full are
    /// shed with a 503 rather than queued. Returns within about 50 ms
    /// of the flag being set, once every worker has drained.
    ///
    /// # Errors
    ///
    /// Propagates a listener address query failure; per-connection I/O
    /// errors are contained to their connection.
    pub fn run(&self, shutdown: &AtomicBool) -> std::io::Result<()> {
        let wake_addr = loopback(self.listener.local_addr()?);
        let workers = self.config.workers.max(1);
        let stats = self.state.install_workers(workers);
        self.start_profiler();
        let (tx, rx) =
            mpsc::sync_channel::<(TcpStream, Instant)>(workers * QUEUE_DEPTH_PER_WORKER);
        let rx = Mutex::new(rx);
        let accepting = AtomicBool::new(true);
        std::thread::scope(|scope| {
            for stat in &stats {
                scope.spawn(|| worker_loop(&self.state, &rx, shutdown, self.config.io_timeout, stat));
            }
            scope.spawn(|| wake_on_shutdown(shutdown, &accepting, wake_addr));
            loop {
                let accepted = self.listener.accept();
                // Whatever woke a shutting-down loop (normally the
                // watcher's own connection) is dropped uncounted.
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        self.state.note_conn_open();
                        // Counted before the send: a worker may dequeue
                        // the connection before `try_send` returns.
                        self.state.note_queue_push();
                        match tx.try_send((stream, Instant::now())) {
                            Ok(()) => {}
                            // Queue saturated (slowloris burst or plain
                            // overload): shed instead of queueing,
                            // keeping backlog and open-fd count bounded.
                            Err(mpsc::TrySendError::Full((stream, _))) => {
                                self.state.note_queue_unpush();
                                reject_busy(&self.state, stream);
                            }
                            // Workers only exit on shutdown.
                            Err(mpsc::TrySendError::Disconnected((stream, _))) => {
                                self.state.note_queue_unpush();
                                drop(stream);
                                self.state.note_conn_close();
                                break;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(ACCEPT_RETRY),
                }
            }
            accepting.store(false, Ordering::SeqCst);
            drop(tx);
        });
        Ok(())
    }

    /// Starts the continuous stack profiler (when configured on) and
    /// wires its sample stream into this server's profile ring. The
    /// sink holds a `Weak` so a dropped server (tests bind many) never
    /// keeps its ring alive, and the process-wide sampler keeps running
    /// for whichever servers remain.
    fn start_profiler(&self) {
        let hz = self.state.profile_hz();
        if hz == 0 {
            return;
        }
        let ring: Weak<ProfileRing> = Arc::downgrade(self.state.profile_ring());
        stack_registry::add_sink(Box::new(move |snaps, t_ns| {
            if let Some(ring) = ring.upgrade() {
                ring.push_batch(snaps, t_ns);
            }
        }));
        // Idempotent across servers: the first caller's rate wins.
        let _ = stack_registry::start_sampler(hz);
    }
}

/// The address a local client reaches `addr` at: an unspecified bind
/// IP (`0.0.0.0`, `::`) maps to the loopback of its family.
fn loopback(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => {
            SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), addr.port())
        }
        IpAddr::V6(ip) if ip.is_unspecified() => {
            SocketAddr::new(IpAddr::V6(Ipv6Addr::LOCALHOST), addr.port())
        }
        _ => addr,
    }
}

/// The shutdown watcher: once `shutdown` is set, connects to the
/// listener at `addr` so the blocked `accept` returns and sees the flag.
/// It keeps waking the loop every [`WORKER_POLL`] until the loop has
/// stopped, so a failed connect (a full listen backlog) is retried.
fn wake_on_shutdown(shutdown: &AtomicBool, accepting: &AtomicBool, addr: SocketAddr) {
    while accepting.load(Ordering::SeqCst) {
        if shutdown.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        }
        std::thread::sleep(WORKER_POLL);
    }
}

/// Sheds one connection when the worker queue is full: a best-effort
/// 503 under a short write deadline, then close. Each shed feeds the
/// shed-rate SLO objective.
fn reject_busy(state: &ServerState, mut stream: TcpStream) {
    state.note_shed(nanocost_trace::epoch_nanos());
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let _ = Response::error(503, "connection queue full").write_to(&mut stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    // A shed connection was counted open by the accept loop.
    state.note_conn_close();
}

fn worker_loop(
    state: &ServerState,
    rx: &Mutex<mpsc::Receiver<(TcpStream, Instant)>>,
    shutdown: &AtomicBool,
    io_timeout: Duration,
    stat: &WorkerStat,
) {
    loop {
        let wait_started = Instant::now();
        let next = {
            let guard = rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv_timeout(WORKER_POLL)
        };
        let waited = u64::try_from(wait_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stat.idle_ns.fetch_add(waited, Ordering::Relaxed);
        match next {
            Ok((stream, accepted)) => {
                state.note_queue_pop(accepted.elapsed());
                let busy_started = Instant::now();
                handle_connection(state, stream, io_timeout);
                let busy = u64::try_from(busy_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                stat.busy_ns.fetch_add(busy, Ordering::Relaxed);
                stat.served.fetch_add(1, Ordering::Relaxed);
                state.note_conn_close();
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one connection: parse, route, respond, close. Parse failures
/// become their mapped 4xx response; a peer that stalls past the
/// deadline gets a 408 (or a silent close if it stopped reading too).
fn handle_connection(state: &ServerState, mut stream: TcpStream, io_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let response = match http::read_request(&mut stream) {
        Ok(request) => api::handle(state, &request),
        Err(e) => Response::error(e.status(), &e.to_string()),
    };
    let _ = response.write_to(&mut stream);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// Binds `addr`, runs the server on its own thread, calls `traffic`
    /// with the bound address, then raises the shutdown flag and returns
    /// the server once `run` has returned. Fails, rather than hangs,
    /// when `run` is still running a second after the flag was set.
    fn run_then_stop(addr: &str, traffic: impl FnOnce(SocketAddr)) -> Arc<Server> {
        let server = Arc::new(
            Server::bind(ServerConfig {
                addr: addr.to_string(),
                workers: 2,
                io_timeout: Duration::from_secs(2),
            })
            .expect("bind"),
        );
        let local = server.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel();
        {
            let (server, shutdown) = (Arc::clone(&server), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                let _ = done_tx.send(server.run(&shutdown).is_ok());
            });
        }
        traffic(local);
        // Let the accept loop settle into its blocking accept.
        std::thread::sleep(Duration::from_millis(100));
        shutdown.store(true, Ordering::SeqCst);
        match done_rx.recv_timeout(Duration::from_secs(1)) {
            Ok(ok) => assert!(ok, "run failed"),
            Err(_) => panic!("run still running 1 s after the shutdown flag was set"),
        }
        server
    }

    fn gauges_are_zero(server: &Server) {
        let doc = server.state().metrics_json();
        assert!(doc.contains("\"gauges\":{\"queue.depth\":0,\"accept.backlog\":0}"), "{doc}");
    }

    fn raw_metrics(server: &Server) -> nanocost_sentinel::federate::RawSnapshot {
        let raw = server.state().metrics_raw_json();
        nanocost_sentinel::federate::RawSnapshot::parse(&raw).expect("raw metrics")
    }

    #[test]
    fn an_idle_loopback_server_stops_within_a_second() {
        let server = run_then_stop("127.0.0.1:0", |_| {});
        gauges_are_zero(&server);
        // The wake connection is dropped uncounted.
        let snap = raw_metrics(&server);
        assert_eq!(snap.workers.iter().map(|w| w.served).sum::<u64>(), 0);
        assert_eq!(snap.queue_wait.count(), 0);
    }

    #[test]
    fn an_idle_wildcard_server_stops_within_a_second() {
        let server = run_then_stop("0.0.0.0:0", |_| {});
        gauges_are_zero(&server);
    }

    #[test]
    fn gauges_return_to_zero_after_serving_and_stopping() {
        let server = run_then_stop("127.0.0.1:0", |addr| {
            for _ in 0..3 {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .write_all(b"GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                    .expect("write");
                let mut response = String::new();
                let _ = stream.read_to_string(&mut response);
                assert!(response.starts_with("HTTP/1.1 200"), "{response}");
            }
        });
        gauges_are_zero(&server);
        let snap = raw_metrics(&server);
        assert_eq!(snap.queue_wait.count(), 3, "one queue wait per served connection");
        assert_eq!(snap.workers.iter().map(|w| w.served).sum::<u64>(), 3);
    }

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:8077".parse().expect("addr");
        assert_eq!(loopback(v4), "127.0.0.1:8077".parse::<SocketAddr>().expect("addr"));
        let v6: SocketAddr = "[::]:8077".parse().expect("addr");
        assert_eq!(loopback(v6), "[::1]:8077".parse::<SocketAddr>().expect("addr"));
        let bound: SocketAddr = "10.1.2.3:80".parse().expect("addr");
        assert_eq!(loopback(bound), bound);
    }
}
