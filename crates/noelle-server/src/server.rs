//! The daemon: sharded dispatch, admission control, deadlines, shutdown.
//!
//! Sessions are **hash-routed across shards**: each shard owns a slice of
//! the session table, a bounded request queue, and its own worker threads,
//! so one module's expensive builds can back up only its own shard's queue
//! while other shards keep answering. Connections are cheap reader
//! threads; a connection thread frames one request, routes it by session
//! name, and enqueues it with `try_send` — a full shard queue **sheds**
//! the request immediately with a structured `overloaded` error instead of
//! letting latency grow without bound. Cheap control-plane methods
//! (`ping`, `stats`, `shutdown`) run inline on the connection
//! thread and never queue behind analysis work.
//!
//! The admitted path keeps its deadline: if the reply does not arrive in
//! time, the client gets a `timeout` error and the (still running) build
//! finishes in the background and warms the cache for the next attempt.
//!
//! Shutdown is graceful: the `shutdown` method flips a flag; the accept
//! loop stops, connection readers wind down, and each shard's workers
//! drain their queue before exiting, so no admitted request is dropped
//! unanswered (modulo its own deadline).

use crate::metrics::{Counter, Metrics, Outcome};
use crate::protocol::{
    read_frame_text, response_err, response_ok, response_ok_text, write_frame_text, ErrorCode,
    Request, PROTOCOL_VERSION,
};
use crate::session::{Session, SessionTable};
use noelle_core::json::{envelope, Json};
use noelle_core::noelle::{AliasTier, Noelle};
use noelle_core::wire;
use noelle_ide::{Change, DocCounters, DocSession};
use noelle_ir::module::FuncId;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A tool dispatcher injected by the binary that owns the tool registry
/// (`noelle-served` wires in `noelle_tools::registry`), keeping this crate
/// free of a dependency cycle on the transforms. Receives the raw request
/// params; the registry parses them into its own typed invocation so tool
/// options are interpreted identically across every entry point.
pub type ToolRunner = Arc<dyn Fn(&mut Noelle, &Json) -> Result<String, String> + Send + Sync>;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Total worker pool size, divided across shards (at least one worker
    /// per shard).
    pub workers: usize,
    /// Number of session shards; each owns a table slice, a bounded
    /// request queue, and its share of the workers.
    pub shards: usize,
    /// Bounded per-shard queue depth; a full queue sheds new requests with
    /// an `overloaded` error.
    pub queue_capacity: usize,
    /// Session-table entry budget (split evenly across shards).
    pub max_sessions: usize,
    /// Session-table approximate byte budget (split evenly across shards).
    pub max_bytes: usize,
    /// Default per-request deadline (ms) when the request carries none.
    pub default_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            shards: 2,
            queue_capacity: 64,
            max_sessions: 8,
            max_bytes: 256 << 20,
            default_deadline_ms: 30_000,
        }
    }
}

/// One session shard: a slice of the session table plus the bounded queue
/// feeding this shard's workers.
pub struct Shard {
    /// The sessions this shard owns (all names hashing to its index).
    pub sessions: SessionTable,
    queue: SyncSender<Job>,
    depth: AtomicUsize,
    shed: AtomicU64,
}

impl Shard {
    /// Requests currently queued (admitted but not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Requests shed at admission because the queue was full.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// The IDE document table. Documents are *not* sessions: they hold text
/// (possibly unparseable) plus a last-good analysis, live outside the shard
/// tables, and their methods run inline on the connection thread — an
/// edit's damage-scoped repair is the latency budget, not a queue hop.
#[derive(Default)]
struct IdeState {
    docs: Mutex<Docs>,
    auto_name: AtomicU64,
}

/// The open documents and the counters of those already closed, behind one
/// lock: a close moves a document's counters from one to the other at once,
/// so the daemon-wide totals never lose them in between.
#[derive(Default)]
struct Docs {
    open: BTreeMap<String, DocSession>,
    retired: DocCounters,
}

impl IdeState {
    fn docs(&self) -> MutexGuard<'_, Docs> {
        self.docs.lock().expect("ide doc table lock")
    }

    /// Open documents right now, and the daemon-wide document counters:
    /// live documents plus everything already closed.
    fn totals(&self) -> (usize, DocCounters) {
        let docs = self.docs();
        let mut t = docs.retired;
        for d in docs.open.values() {
            t += d.counters();
        }
        (docs.open.len(), t)
    }
}

/// Shared daemon state.
pub struct ServerState {
    cfg: ServerConfig,
    shards: Vec<Shard>,
    /// Request counters and latency histograms.
    pub metrics: Metrics,
    /// IDE document sessions (`ide/*` methods).
    ide: IdeState,
    tool_runner: Option<ToolRunner>,
    shutdown: AtomicBool,
    auto_name: AtomicU64,
    started: Instant,
}

impl ServerState {
    fn new(
        cfg: ServerConfig,
        tool_runner: Option<ToolRunner>,
    ) -> (ServerState, Vec<Receiver<Job>>) {
        let num_shards = cfg.shards.max(1);
        let per_entries = (cfg.max_sessions / num_shards).max(1);
        let per_bytes = (cfg.max_bytes / num_shards).max(1);
        let capacity = cfg.queue_capacity.max(1);
        let mut shards = Vec::with_capacity(num_shards);
        let mut receivers = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let (tx, rx) = sync_channel::<Job>(capacity);
            shards.push(Shard {
                sessions: SessionTable::new(per_entries, per_bytes),
                queue: tx,
                depth: AtomicUsize::new(0),
                shed: AtomicU64::new(0),
            });
            receivers.push(rx);
        }
        let state = ServerState {
            shards,
            metrics: Metrics::new(),
            ide: IdeState::default(),
            tool_runner,
            shutdown: AtomicBool::new(false),
            auto_name: AtomicU64::new(0),
            started: Instant::now(),
            cfg,
        };
        (state, receivers)
    }

    /// The shards (for in-process harnesses reading queue stats).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Which shard owns session `name`.
    pub fn shard_index(&self, name: &str) -> usize {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn shard_of(&self, name: &str) -> &Shard {
        &self.shards[self.shard_index(name)]
    }

    /// Look up a session by name in its owning shard.
    pub fn find_session(&self, name: &str) -> Option<Arc<Session>> {
        self.shard_of(name).sessions.get(name)
    }

    /// A fresh generated session name, unique daemon-wide (`s1`, `s2`, ...).
    pub fn generate_name(&self) -> String {
        format!("s{}", self.auto_name.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Sessions evicted so far, across every shard.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.sessions.evictions()).sum()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown (what the `shutdown` method does).
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A configured (not yet started) daemon.
pub struct Server {
    cfg: ServerConfig,
    tool_runner: Option<ToolRunner>,
}

impl Server {
    /// A daemon with `cfg`.
    pub fn new(cfg: ServerConfig) -> Server {
        Server {
            cfg,
            tool_runner: None,
        }
    }

    /// Attach a tool registry dispatcher for the `run-tool` method.
    #[must_use]
    pub fn with_tool_runner(mut self, r: ToolRunner) -> Server {
        self.tool_runner = Some(r);
        self
    }

    /// Bind the TCP listener and spawn the accept loop plus each shard's
    /// workers. Returns a handle carrying the bound address.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(self) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(&self.cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let num_shards = self.cfg.shards.max(1);
        let per_shard_workers = (self.cfg.workers / num_shards).max(1);
        let (state, receivers) = ServerState::new(self.cfg, self.tool_runner);
        let state = Arc::new(state);

        let mut worker_handles: Vec<JoinHandle<()>> = Vec::new();
        for (shard_idx, rx) in receivers.into_iter().enumerate() {
            let rx = Arc::new(Mutex::new(rx));
            for w in 0..per_shard_workers {
                let rx = Arc::clone(&rx);
                let st = Arc::clone(&state);
                worker_handles.push(
                    std::thread::Builder::new()
                        .name(format!("noelle-worker-{shard_idx}-{w}"))
                        .spawn(move || worker_loop(&st, shard_idx, &rx))
                        .expect("spawn worker"),
                );
            }
        }

        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_state = Arc::clone(&state);
        let accept_conns = Arc::clone(&conn_handles);
        let accept_handle = std::thread::Builder::new()
            .name("noelle-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_state, &accept_conns))
            .expect("spawn accept loop");

        Ok(RunningServer {
            addr,
            state,
            accept_handle,
            worker_handles,
            conn_handles,
        })
    }

    /// Build the daemon state without binding a socket or spawning
    /// threads: an in-process daemon that a caller (the stdio loop, a test)
    /// drives synchronously through [`run_request_text`]. The shard queues
    /// exist but have no workers; only the inline paths are meaningful.
    pub fn embedded(self) -> Arc<ServerState> {
        let (state, _receivers) = ServerState::new(self.cfg, self.tool_runner);
        Arc::new(state)
    }

    /// Serve one connection over stdin/stdout using newline-delimited JSON
    /// (the `--stdio` test mode): one request per line, one reply per line,
    /// synchronous, until EOF or `shutdown`. A line ends at `\n` or `\r\n`;
    /// one that is not UTF-8 or not JSON is answered with `bad_request`.
    ///
    /// # Errors
    /// Propagates stdin read and stdout write failures.
    pub fn serve_stdio(self, input: &mut impl BufRead, output: &mut impl Write) -> io::Result<()> {
        let state = self.embedded();
        let mut bytes = Vec::new();
        loop {
            bytes.clear();
            if input.read_until(b'\n', &mut bytes)? == 0 {
                break;
            }
            let line = match bytes.strip_suffix(b"\n") {
                Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
                None => &bytes,
            };
            let parsed = match std::str::from_utf8(line) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => {
                    Json::try_parse(line).map_err(|e| format!("line is not valid JSON: {e}"))
                }
                Err(e) => Err(format!("line is not valid UTF-8: {e}")),
            };
            let reply = match parsed.and_then(|v| Request::from_json(&v)) {
                Err(e) => response_err(0, ErrorCode::BadRequest, &e).to_string_compact(),
                Ok(req) => run_request_text(&state, &req),
            };
            writeln!(output, "{reply}")?;
            output.flush()?;
            if state.is_shutting_down() {
                break;
            }
        }
        Ok(())
    }
}

/// A started daemon.
pub struct RunningServer {
    /// The bound listen address (resolved ephemeral port included).
    pub addr: SocketAddr,
    /// Shared state (exposed so in-process harnesses can read metrics).
    pub state: Arc<ServerState>,
    accept_handle: JoinHandle<()>,
    worker_handles: Vec<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl RunningServer {
    /// Ask the daemon to stop (same as a `shutdown` request).
    pub fn trigger_shutdown(&self) {
        self.state.trigger_shutdown();
    }

    /// Block until the accept loop, every connection reader, and every
    /// worker have exited. Queued requests are drained first.
    pub fn join(self) {
        let _ = self.accept_handle.join();
        let handles = std::mem::take(&mut *self.conn_handles.lock().expect("conn lock"));
        for h in handles {
            let _ = h.join();
        }
        for h in self.worker_handles {
            let _ = h.join();
        }
    }

    /// Trigger shutdown and wait for a full drain.
    pub fn shutdown_and_join(self) {
        self.trigger_shutdown();
        self.join();
    }
}

/// One admitted request: compute on a shard worker, then send the
/// serialized reply back to the connection thread (which may have given up
/// on its deadline).
struct Job {
    req: Request,
    reply: Sender<String>,
}

const ACCEPT_POLL: Duration = Duration::from_millis(20);
const READ_POLL: Duration = Duration::from_millis(50);
const WORKER_POLL: Duration = Duration::from_millis(50);

fn worker_loop(state: &Arc<ServerState>, shard_idx: usize, rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = { rx.lock().expect("job queue lock").recv_timeout(WORKER_POLL) };
        match job {
            Ok(job) => {
                state.shards[shard_idx]
                    .depth
                    .fetch_sub(1, Ordering::Relaxed);
                let reply = run_request_text(state, &job.req);
                let _ = job.reply.send(reply); // receiver may have timed out
            }
            // The queue senders live in `ServerState`, so disconnect never
            // fires in practice; the poll lets the worker notice shutdown
            // once its queue is drained.
            Err(RecvTimeoutError::Timeout) => {
                if state.is_shutting_down() {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !state.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                let st = Arc::clone(state);
                let h = std::thread::Builder::new()
                    .name("noelle-conn".to_string())
                    .spawn(move || connection_loop(stream, &st))
                    .expect("spawn connection");
                conn_handles.lock().expect("conn lock").push(h);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // A fatal accept error is indistinguishable from shutdown
                // for every other thread; flip the flag so workers exit.
                state.trigger_shutdown();
                return;
            }
        }
    }
}

/// Read one frame's text, tolerating read-timeout polls so the thread can
/// notice shutdown between frames. `None` on EOF, error, or shutdown.
fn read_frame_polling(stream: &mut impl io::Read, state: &ServerState) -> Option<String> {
    loop {
        match read_frame_text(stream) {
            Ok(v) => return v,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if state.is_shutting_down() {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Clone `req` with `session` forced into its params (anonymous `load`
/// requests get their generated name *before* routing, so the session is
/// owned by the shard its name hashes to).
fn with_session(req: &Request, name: &str) -> Request {
    let kept = req.params.as_object().into_iter().flatten();
    let session = ("session".to_string(), Json::Str(name.to_string()));
    let params = kept.map(|(k, v)| (k.clone(), v.clone())).chain([session]);
    Request {
        params: Json::object(params),
        ..req.clone()
    }
}

/// Which shard queue `req` belongs on, or `None` for inline methods
/// (control-plane queries and requests that will fail fast without a
/// session).
fn routed_shard(state: &ServerState, req: &Request) -> Option<usize> {
    match req.method.as_str() {
        "ping" | "stats" | "shutdown" => None,
        // IDE methods run inline: a document's damage-scoped repair is the
        // fast path by construction, and serializing it behind a shard's
        // analysis builds would forfeit exactly the latency the diff-parser
        // buys.
        m if m.starts_with("ide/") => None,
        _ => param_str(req, "session").map(|name| state.shard_index(name)),
    }
}

/// Most replies a connection may owe before its reader stops pulling new
/// frames (backpressure on abusive pipelining; also bounds the reply
/// buffer a slow-reading client can pin).
const PIPELINE_DEPTH: usize = 128;

/// One reply owed to a connection, in request order.
enum PendingReply {
    /// Already serialized: inline methods, warm cache hits, shed or
    /// malformed requests.
    Ready(String),
    /// Owed by a shard worker; resolved under the request's deadline when
    /// its turn to be written comes.
    Waiting {
        rx: Receiver<String>,
        deadline: Instant,
        budget: Duration,
        id: i64,
        method: String,
    },
}

/// A connection is a reader/writer thread pair speaking a **pipelined**
/// protocol: the client may write any number of frames before reading, and
/// replies come back strictly in request order. The reader admits each
/// frame as it arrives (inline methods run immediately, shard work is
/// enqueued without waiting), so N pipelined analysis requests overlap on
/// the workers instead of serializing on the connection; the writer
/// resolves the FIFO of pending replies, applying each request's deadline
/// where the old sequential loop did. The bounded hand-off channel is the
/// pipelining depth.
fn connection_loop(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // Reads go through a buffer (one syscall pulls a whole frame, header
    // included); writes stay on the raw socket, owned by the writer.
    let mut reader = match stream.try_clone() {
        Ok(s) => io::BufReader::new(s),
        Err(_) => return,
    };
    let (tx, rx) = sync_channel::<PendingReply>(PIPELINE_DEPTH);
    let writer_state = Arc::clone(state);
    let writer = std::thread::Builder::new()
        .name("noelle-conn-writer".to_string())
        .spawn(move || reply_writer(stream, &writer_state, &rx))
        .expect("spawn connection writer");
    while !state.is_shutting_down() {
        let Some(frame) = read_frame_polling(&mut reader, state) else {
            break;
        };
        // A frame that is no JSON value arrived whole all the same: answer it.
        let parsed = Json::try_parse(&frame).map_err(|e| format!("frame is not valid JSON: {e}"));
        let pending = match parsed.and_then(|v| Request::from_json(&v)) {
            Err(e) => {
                PendingReply::Ready(response_err(0, ErrorCode::BadRequest, &e).to_string_compact())
            }
            Ok(req) => {
                let req = if req.method == "load" && param_str(&req, "session").is_none() {
                    with_session(&req, &state.generate_name())
                } else {
                    req
                };
                match routed_shard(state, &req) {
                    // Control-plane methods (and fast-failing session-less
                    // requests) never queue behind analysis work.
                    None => PendingReply::Ready(run_request_text(state, &req)),
                    Some(shard_idx) => match fast_reply(state, shard_idx, &req) {
                        Some(r) => PendingReply::Ready(r),
                        None => submit(state, shard_idx, &req),
                    },
                }
            }
        };
        // A failed send means the writer died on a broken socket.
        if tx.send(pending).is_err() {
            break;
        }
    }
    drop(tx); // writer drains the owed replies, then exits
    let _ = writer.join();
}

/// The writer half of a connection: resolve owed replies in FIFO order and
/// frame them out. A request that misses its deadline gets a `timeout`
/// error here (the still-running build finishes in the background and
/// warms the cache), exactly as the sequential loop did.
fn reply_writer(mut stream: TcpStream, state: &Arc<ServerState>, rx: &Receiver<PendingReply>) {
    while let Ok(pending) = rx.recv() {
        let reply = match pending {
            PendingReply::Ready(r) => r,
            PendingReply::Waiting {
                rx,
                deadline,
                budget,
                id,
                method,
            } => {
                let left = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(r) => r,
                    Err(RecvTimeoutError::Timeout) => {
                        state.metrics.observe(&method, budget, Outcome::Timeout);
                        response_err(
                            id,
                            ErrorCode::Timeout,
                            &format!("deadline of {}ms exceeded", budget.as_millis()),
                        )
                        .to_string_compact()
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        response_err(id, ErrorCode::Shutdown, "daemon is shutting down")
                            .to_string_compact()
                    }
                }
            }
        };
        if write_frame_text(&mut stream, &reply).is_err() {
            // Dropping the receiver makes the reader's next send fail, so
            // both halves wind down together.
            return;
        }
    }
}

/// Serve a warm `pdg`/`loops` reply straight from the session's
/// serialized-reply cache, skipping the shard queue and its two thread
/// hops — without taking the build lock (the epoch check makes a stale
/// text unservable). Anything cold or stale falls back to `admit`, which
/// is what enforces deadlines and admission control.
fn fast_reply(state: &Arc<ServerState>, shard_idx: usize, req: &Request) -> Option<String> {
    let cacheable =
        req.method == "pdg" || (req.method == "loops" && param_str(req, "func").is_none());
    if !cacheable {
        return None;
    }
    let name = param_str(req, "session")?;
    let s = state.shards[shard_idx].sessions.get(name)?;
    let t = Instant::now();
    let text = s.cached_reply(&req.method, s.epoch())?;
    state.metrics.observe(&req.method, t.elapsed(), Outcome::Ok);
    Some(response_ok_text(req.id, &text))
}

/// Enqueue `req` on shard `shard_idx` without waiting for the reply (the
/// writer resolves it in order under the deadline). A full queue sheds
/// immediately with `overloaded`.
fn submit(state: &Arc<ServerState>, shard_idx: usize, req: &Request) -> PendingReply {
    let shard = &state.shards[shard_idx];
    let budget = Duration::from_millis(req.deadline_ms.unwrap_or(state.cfg.default_deadline_ms));
    let (reply_tx, reply_rx) = channel();
    let job = Job {
        req: req.clone(),
        reply: reply_tx,
    };
    // Count the slot before offering it so a racing worker's decrement
    // cannot underflow the gauge; undo on shed.
    shard.depth.fetch_add(1, Ordering::Relaxed);
    match shard.queue.try_send(job) {
        Ok(()) => PendingReply::Waiting {
            rx: reply_rx,
            deadline: Instant::now() + budget,
            budget,
            id: req.id,
            method: metric_key(&req.method).to_string(),
        },
        Err(TrySendError::Full(_)) => {
            shard.depth.fetch_sub(1, Ordering::Relaxed);
            shard.shed.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .observe(metric_key(&req.method), Duration::ZERO, Outcome::Shed);
            PendingReply::Ready(
                response_err(
                    req.id,
                    ErrorCode::Overloaded,
                    &format!(
                        "shard {shard_idx} queue is full ({} pending); retry after backoff",
                        state.cfg.queue_capacity.max(1)
                    ),
                )
                .to_string_compact(),
            )
        }
        Err(TrySendError::Disconnected(_)) => {
            shard.depth.fetch_sub(1, Ordering::Relaxed);
            PendingReply::Ready(
                response_err(req.id, ErrorCode::Shutdown, "daemon is shutting down")
                    .to_string_compact(),
            )
        }
    }
}

/// The `ok` payload of a reply: either a value tree, or compact text
/// somebody already has — cached from an earlier serialization (the warm
/// `pdg` fast path), or assembled from rendered parts (the IDE's
/// diagnostics).
enum Body {
    Value(Json),
    Text(Arc<String>),
}

/// Execute `req` against `state` and serialize the reply, recording
/// metrics. This is the single dispatch point shared by the shard workers,
/// the inline control-plane path, and `--stdio` mode.
pub fn run_request_text(state: &Arc<ServerState>, req: &Request) -> String {
    let t = Instant::now();
    let result = dispatch(state, req);
    let latency = t.elapsed();
    let key = metric_key(&req.method);
    match result {
        Ok(body) => {
            state.metrics.observe(key, latency, Outcome::Ok);
            match body {
                Body::Value(v) => response_ok(req.id, v).to_string_compact(),
                Body::Text(text) => response_ok_text(req.id, &text),
            }
        }
        Err((code, msg)) => {
            state.metrics.observe(key, latency, Outcome::Error);
            response_err(req.id, code, &msg).to_string_compact()
        }
    }
}

type MethodResult = Result<Body, (ErrorCode, String)>;

/// An IDE reply around the document's diagnostics, which the session hands
/// over as text it rendered once per function: `reply`'s own members are
/// rendered here, the `diagnostics` member is copied in.
fn with_diagnostics(reply: Json, diagnostics: &str) -> Body {
    Body::Text(Arc::new(
        reply.to_string_compact_with(&[("diagnostics", diagnostics)]),
    ))
}

fn bad(msg: impl Into<String>) -> (ErrorCode, String) {
    (ErrorCode::BadRequest, msg.into())
}

fn param_str<'a>(req: &'a Request, key: &str) -> Option<&'a str> {
    req.params.get(key).and_then(Json::as_str)
}

/// Resolve the *text* a document opens with: inline `text`, or a `path`
/// (file, `workload:NAME`, `workload:scale:N`) printed to `.nir` source so
/// the IDE session always edits real text.
fn load_document_text(req: &Request) -> Result<String, (ErrorCode, String)> {
    if let Some(text) = param_str(req, "text") {
        return Ok(text.to_string());
    }
    let path = param_str(req, "path").ok_or_else(|| bad("need 'text' or 'path'"))?;
    if path.starts_with("workload:") {
        let m = noelle_workloads::read_module(path).map_err(bad)?;
        return Ok(noelle_ir::printer::print_module(&m));
    }
    std::fs::read_to_string(path).map_err(|e| bad(format!("{path}: {e}")))
}

/// The tier an IDE document analyzes under. Unlike `load`, the default is
/// `basic`: the Full tier re-solves whole-module Andersen on edits, which
/// is the wrong trade for keystroke-latency diagnostics.
fn ide_tier(req: &Request) -> Result<AliasTier, (ErrorCode, String)> {
    match param_str(req, "tier").unwrap_or("basic") {
        "basic" => Ok(AliasTier::Basic),
        "full" => Ok(AliasTier::Full),
        other => Err(bad(format!("unknown tier '{other}'"))),
    }
}

/// Decode the `ide/change` payload: full `text`, or a line-range splice
/// `start_line`/`end_line`/`lines`.
fn ide_change_of(req: &Request) -> Result<Change, (ErrorCode, String)> {
    if let Some(text) = param_str(req, "text") {
        return Ok(Change::Full(text.to_string()));
    }
    let start_line = req.params.get("start_line").and_then(Json::as_u64);
    let end_line = req.params.get("end_line").and_then(Json::as_u64);
    let (Some(start_line), Some(end_line)) = (start_line, end_line) else {
        return Err(bad(
            "need 'text' or a splice ('start_line', 'end_line', 'lines')",
        ));
    };
    let lines = match req.params.get("lines") {
        None => Vec::new(),
        Some(Json::Array(xs)) => xs
            .iter()
            .map(|x| {
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad("'lines' must be an array of strings"))
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(bad("'lines' must be an array of strings")),
    };
    Ok(Change::Splice {
        start_line: start_line as usize,
        end_line: end_line as usize,
        lines,
    })
}

fn session_of(state: &ServerState, req: &Request) -> Result<Arc<Session>, (ErrorCode, String)> {
    let name = param_str(req, "session").ok_or_else(|| bad("missing 'session' param"))?;
    state.find_session(name).ok_or_else(|| {
        (
            ErrorCode::NoSession,
            format!("no session '{name}' (evicted or never loaded)"),
        )
    })
}

/// One stats row per shard: queue health and table occupancy.
fn shards_json(state: &ServerState) -> Json {
    Json::Array(
        state
            .shards
            .iter()
            .map(|sh| {
                Json::object([
                    ("sessions".to_string(), Json::Int(sh.sessions.len() as i64)),
                    (
                        "queue_depth".to_string(),
                        Json::Int(sh.queue_depth() as i64),
                    ),
                    (
                        "queue_capacity".to_string(),
                        Json::Int(state.cfg.queue_capacity.max(1) as i64),
                    ),
                    ("shed".to_string(), Json::Int(sh.shed_count() as i64)),
                    (
                        "evictions".to_string(),
                        Json::Int(sh.sessions.evictions() as i64),
                    ),
                ])
            })
            .collect(),
    )
}

/// One session's row of `table.sessions`: its footprint, its module's
/// function count, and its manager's build, memory and cache counters.
fn session_json(s: &Session) -> Json {
    let approx_bytes = (
        "approx_bytes".to_string(),
        Json::Int(s.approx_bytes() as i64),
    );
    let Ok(n) = s.noelle.lock() else {
        // A request panicked under the build lock; its counters are not read.
        return Json::object([
            approx_bytes,
            ("functions".to_string(), Json::Int(-1)),
            ("func_cache".to_string(), Json::Null),
        ]);
    };
    let functions = n.module().functions().len() as i64;
    let manager = wire::manager_stats_to_json(&n);
    let members = manager.as_object().into_iter().flatten();
    Json::object(members.map(|(k, v)| (k.clone(), v.clone())).chain([
        approx_bytes,
        ("functions".to_string(), Json::Int(functions)),
    ]))
}

/// The cross-shard session table view: every shard's rows merged and
/// sorted, with the daemon-wide budgets.
fn table_json(state: &ServerState) -> Json {
    let rows: Vec<(String, Json)> = (state.shards.iter())
        .flat_map(|sh| sh.sessions.snapshot())
        .map(|s| (s.name.clone(), session_json(&s)))
        .collect();
    Json::object([
        ("count".to_string(), Json::Int(rows.len() as i64)),
        ("sessions".to_string(), Json::object(rows)),
        (
            "max_entries".to_string(),
            Json::Int(state.cfg.max_sessions as i64),
        ),
        (
            "max_bytes".to_string(),
            Json::Int(state.cfg.max_bytes as i64),
        ),
        ("evictions".to_string(), Json::Int(state.evictions() as i64)),
    ])
}

/// A document's counters as reply members.
fn doc_counters_json(c: &DocCounters) -> [(String, Json); 6] {
    let member = |k: &str, v: u64| (k.to_string(), Json::Int(v as i64));
    [
        member("changes", c.changes),
        member("incremental_reparses", c.incremental_reparses),
        member("full_reparses", c.full_reparses),
        member("parse_failures", c.parse_failures),
        member("relinted_functions", c.relinted_functions),
        member("reaudited_functions", c.reaudited_functions),
    ]
}

/// The `stats` reply: every number the daemon keeps, each in one section.
fn stats_json(state: &ServerState) -> Json {
    let (open_docs, docs) = state.ide.totals();
    let ide = (state.metrics.section("ide"))
        .chain(doc_counters_json(&docs))
        .chain([("open_docs".to_string(), Json::Int(open_docs as i64))]);
    Json::object([
        (
            "uptime_ms".to_string(),
            Json::Int(state.started.elapsed().as_millis() as i64),
        ),
        ("protocol_version".to_string(), Json::Int(PROTOCOL_VERSION)),
        ("requests".to_string(), state.metrics.to_json()),
        ("table".to_string(), table_json(state)),
        ("shards".to_string(), shards_json(state)),
        ("ide".to_string(), Json::object(ide)),
        (
            "audit".to_string(),
            Json::object(state.metrics.section("audit")),
        ),
        (
            "plan".to_string(),
            Json::object(state.metrics.section("plan")),
        ),
    ])
}

fn dispatch(state: &Arc<ServerState>, req: &Request) -> MethodResult {
    if let Some(v) = req.v {
        if v != PROTOCOL_VERSION {
            return Err((
                ErrorCode::VersionMismatch,
                format!("client speaks protocol v{v}, daemon speaks v{PROTOCOL_VERSION}"),
            ));
        }
    }
    if state.is_shutting_down() && req.method != "shutdown" {
        return Err((ErrorCode::Shutdown, "daemon is shutting down".into()));
    }
    match handler(&req.method) {
        Some(serve) => serve(state, req),
        None => Err((
            ErrorCode::UnknownMethod,
            format!("unknown method '{}'", req.method),
        )),
    }
}

/// The name `method`'s metrics are kept under: the method itself when the
/// daemon serves it, else `unknown`, so the names a client makes up cannot
/// grow the table.
fn metric_key(method: &str) -> &str {
    if handler(method).is_some() {
        method
    } else {
        "unknown"
    }
}

/// How the daemon serves one method.
type Handler = fn(&Arc<ServerState>, &Request) -> MethodResult;

/// The handler of `method`, or `None` when the daemon does not serve it.
/// This match is the daemon's one list of methods.
fn handler(method: &str) -> Option<Handler> {
    let serve: Handler = match method {
        "ping" => |state, _| {
            Ok(Body::Value(Json::object([
                ("pong".to_string(), Json::Bool(true)),
                (
                    "uptime_ms".to_string(),
                    Json::Int(state.started.elapsed().as_millis() as i64),
                ),
            ])))
        },
        "load" => |state, req| {
            let path = param_str(req, "path").ok_or_else(|| bad("missing 'path' param"))?;
            let tier = match param_str(req, "tier").unwrap_or("full") {
                "basic" => AliasTier::Basic,
                "full" => AliasTier::Full,
                other => return Err(bad(format!("unknown tier '{other}'"))),
            };
            let m = noelle_workloads::read_module(path).map_err(bad)?;
            // TCP connections inject a generated name before routing; the
            // fallback covers stdio mode and direct embedders.
            let name = match param_str(req, "session") {
                Some(s) => s.to_string(),
                None => state.generate_name(),
            };
            let functions = m.functions().len();
            let s = (state.shard_of(&name).sessions).insert(&name, Noelle::new(m, tier));
            Ok(Body::Value(Json::object([
                ("session".to_string(), Json::Str(name)),
                ("functions".to_string(), Json::Int(functions as i64)),
                (
                    "approx_bytes".to_string(),
                    Json::Int(s.approx_bytes() as i64),
                ),
            ])))
        },
        "pdg" => |state, req| {
            let s = session_of(state, req)?;
            let text = state.shard_of(&s.name).sessions.with_manager(&s, |n| {
                let pdg = n.pdg();
                // The serialized reply is versioned by the session epoch,
                // read under the build lock: any mutating request bumps it
                // there, so a stale payload is never served. A rebuild
                // without a content change yields identical text, so reuse
                // is safe.
                let epoch = s.epoch();
                match s.cached_reply("pdg", epoch) {
                    Some(text) => text,
                    None => {
                        let text =
                            Arc::new(wire::pdg_to_json(n.module(), &pdg).to_string_compact());
                        s.store_reply("pdg", epoch, Arc::clone(&text));
                        text
                    }
                }
            });
            Ok(Body::Text(text))
        },
        "loops" => |state, req| {
            let s = session_of(state, req)?;
            state.shard_of(&s.name).sessions.with_manager(&s, |n| {
                let whole_module = param_str(req, "func").is_none();
                let epoch = s.epoch();
                if whole_module {
                    if let Some(text) = s.cached_reply("loops", epoch) {
                        return Ok(Body::Text(text));
                    }
                }
                let fids: Vec<FuncId> = match param_str(req, "func") {
                    Some(name) => vec![n
                        .module()
                        .func_id_by_name(name)
                        .ok_or_else(|| bad(format!("no function '{name}'")))?],
                    None => n
                        .module()
                        .func_ids()
                        .filter(|&f| !n.module().func(f).is_declaration())
                        .collect(),
                };
                let mut per_fn = Vec::new();
                for fid in fids {
                    let fname = n.module().func(fid).name.clone();
                    let loops = n.loop_forest(fid);
                    per_fn.push((
                        fname,
                        Json::Array(loops.loops().iter().map(wire::loop_to_json).collect()),
                    ));
                }
                if whole_module {
                    let text = Arc::new(Json::object(per_fn).to_string_compact());
                    s.store_reply("loops", epoch, Arc::clone(&text));
                    return Ok(Body::Text(text));
                }
                Ok(Body::Value(Json::object(per_fn)))
            })
        },
        "sccdag" | "induction" | "invariants" => |state, req| {
            let s = session_of(state, req)?;
            let fname = param_str(req, "func")
                .ok_or_else(|| bad("missing 'func' param"))?
                .to_string();
            let idx = req.params.get("loop").and_then(Json::as_u64).unwrap_or(0) as usize;
            state.shard_of(&s.name).sessions.with_manager(&s, |n| {
                let fid = n
                    .module()
                    .func_id_by_name(&fname)
                    .ok_or_else(|| bad(format!("no function '{fname}'")))?;
                let loops = n.loop_forest(fid);
                let l = loops
                    .loops()
                    .get(idx)
                    .ok_or_else(|| bad(format!("function '{fname}' has {} loops", loops.len())))?;
                let la = n.loop_abstraction(fid, l.id);
                Ok(Body::Value(match req.method.as_str() {
                    "sccdag" => wire::sccdag_to_json(&la.sccdag),
                    "induction" => wire::ivs_to_json(&la.ivs),
                    _ => wire::invariants_to_json(&la.invariants),
                }))
            })
        },
        "callgraph" => |state, req| {
            let s = session_of(state, req)?;
            state.shard_of(&s.name).sessions.with_manager(&s, |n| {
                let _ = n.call_graph();
                let cg = n.cached_call_graph().expect("just built");
                Ok(Body::Value(wire::callgraph_to_json(n.module(), cg)))
            })
        },
        "run-tool" => |state, req| {
            let runner = state
                .tool_runner
                .as_ref()
                .ok_or_else(|| bad("this daemon was started without a tool registry"))?;
            let s = session_of(state, req)?;
            let tool = param_str(req, "tool").ok_or_else(|| bad("missing 'tool' param"))?;
            state.shard_of(&s.name).sessions.with_manager(&s, |n| {
                n.reset_requests();
                let summary = runner(n, &req.params);
                // The tool may have edited the module even on failure: advance
                // the epoch under the build lock so no stale cached reply text
                // survives the mutation.
                s.bump_epoch();
                let summary = summary.map_err(|e| (ErrorCode::Internal, e))?;
                let requested = n
                    .requested()
                    .iter()
                    .map(|a| Json::Str(a.short_name().to_string()))
                    .collect();
                Ok(Body::Value(Json::object([
                    ("tool".to_string(), Json::Str(tool.to_string())),
                    ("summary".to_string(), Json::Str(summary)),
                    ("requested".to_string(), Json::Array(requested)),
                ])))
            })
        },
        "lint" => |state, req| {
            let s = session_of(state, req)?;
            let check = param_str(req, "check").unwrap_or("all");
            state.shard_of(&s.name).sessions.with_manager(&s, |n| {
                n.reset_requests();
                let findings =
                    noelle_lint::run_checks(n, check).map_err(|e| (ErrorCode::BadRequest, e))?;
                Ok(Body::Value(envelope(
                    "lint",
                    noelle_lint::render_json(&findings),
                )))
            })
        },
        "audit" => |state, req| {
            let s = session_of(state, req)?;
            state.shard_of(&s.name).sessions.with_manager(&s, |n| {
                n.reset_requests();
                let audit = noelle_lint::run_audit(n);
                let metrics = &state.metrics;
                metrics.add(Counter::AuditRuns, 1);
                metrics.add(Counter::AuditLoops, audit.loops.len() as u64);
                metrics.add(Counter::AuditParallelizable, audit.parallelizable() as u64);
                metrics.add(Counter::AuditBlockers, audit.num_blockers() as u64);
                let findings = noelle_lint::audit_findings(n.module(), &audit);
                Ok(Body::Value(envelope(
                    "audit",
                    Json::object([
                        ("audit".to_string(), audit.to_json()),
                        (
                            "diagnostics".to_string(),
                            noelle_lint::render_json(&findings),
                        ),
                    ]),
                )))
            })
        },
        "plan" => |state, req| {
            let s = session_of(state, req)?;
            let workers = req
                .params
                .get("workers")
                .and_then(Json::as_u64)
                .map(|w| w as usize)
                .unwrap_or(noelle_plan::PlanOptions::default().workers);
            state.shard_of(&s.name).sessions.with_manager(&s, |n| {
                n.reset_requests();
                let plan = noelle_plan::plan_module(n, &noelle_plan::PlanOptions { workers });
                let metrics = &state.metrics;
                metrics.add(Counter::PlanRuns, 1);
                metrics.add(Counter::PlanLoops, plan.loops.len() as u64);
                metrics.add(Counter::PlanPlanned, plan.planned() as u64);
                Ok(Body::Value(envelope(
                    "plan",
                    Json::object([("plan".to_string(), plan.to_json())]),
                )))
            })
        },
        "ide/open" => |state, req| {
            let tier = ide_tier(req)?;
            let text = load_document_text(req)?;
            let name = match param_str(req, "doc") {
                Some(d) => d.to_string(),
                None => format!(
                    "d{}",
                    state.ide.auto_name.fetch_add(1, Ordering::Relaxed) + 1
                ),
            };
            let doc = DocSession::open(name.clone(), &text, tier);
            let functions = doc.noelle().map_or(0, |n| n.module().functions().len());
            let diagnostics = doc.diagnostics_text();
            let mut docs = state.ide.docs();
            // A document opened again under its name replaces the open one,
            // whose counters stay in the totals as if it had been closed.
            if let Some(replaced) = docs.open.insert(name.clone(), doc) {
                docs.retired += replaced.counters();
            }
            drop(docs);
            state.metrics.add(Counter::IdeOpens, 1);
            state.metrics.add(Counter::IdeDiagPushes, 1);
            let reply = Json::object([
                ("doc".to_string(), Json::Str(name)),
                ("version".to_string(), Json::Int(1)),
                ("functions".to_string(), Json::Int(functions as i64)),
            ]);
            Ok(with_diagnostics(reply, &diagnostics))
        },
        "ide/change" => |state, req| {
            let name = param_str(req, "doc").ok_or_else(|| bad("missing 'doc' param"))?;
            let version = req
                .params
                .get("version")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("missing integer 'version' param"))?;
            let change = ide_change_of(req)?;
            let mut docs = state.ide.docs();
            let doc = (docs.open.get_mut(name))
                .ok_or_else(|| (ErrorCode::NoSession, format!("no open document '{name}'")))?;
            let outcome = doc.change(version, change).map_err(bad)?;
            // Push semantics: the reply carries only the audit hints this
            // change re-derived; `ide/diagnostics` pulls the full set.
            let diagnostics = doc.push_diagnostics_text();
            drop(docs);
            state.metrics.add(Counter::IdeDiagPushes, 1);
            let reply = Json::object([
                ("doc".to_string(), Json::Str(name.to_string())),
                ("version".to_string(), Json::Int(outcome.version as i64)),
                ("incremental".to_string(), Json::Bool(outcome.incremental)),
                (
                    "changed_functions".to_string(),
                    Json::Array(
                        outcome
                            .changed_functions
                            .iter()
                            .map(|f| Json::Str(f.clone()))
                            .collect(),
                    ),
                ),
                ("relinted".to_string(), Json::Int(outcome.relinted as i64)),
            ]);
            Ok(with_diagnostics(reply, &diagnostics))
        },
        "ide/diagnostics" => |state, req| {
            let name = param_str(req, "doc").ok_or_else(|| bad("missing 'doc' param"))?;
            let docs = state.ide.docs();
            let doc = (docs.open.get(name))
                .ok_or_else(|| (ErrorCode::NoSession, format!("no open document '{name}'")))?;
            let diagnostics = doc.diagnostics_text();
            drop(docs);
            state.metrics.add(Counter::IdeDiagPushes, 1);
            Ok(Body::Text(Arc::new(diagnostics)))
        },
        "ide/close" => |state, req| {
            let name = param_str(req, "doc").ok_or_else(|| bad("missing 'doc' param"))?;
            let mut docs = state.ide.docs();
            let doc = (docs.open.remove(name))
                .ok_or_else(|| (ErrorCode::NoSession, format!("no open document '{name}'")))?;
            let c = doc.counters();
            docs.retired += c;
            drop(docs); // the document itself is dropped outside the lock
            state.metrics.add(Counter::IdeCloses, 1);
            let closed = [
                ("doc".to_string(), Json::Str(name.to_string())),
                ("closed".to_string(), Json::Bool(true)),
            ];
            Ok(Body::Value(Json::object(
                closed.into_iter().chain(doc_counters_json(&c)),
            )))
        },
        "stats" => |state, _| Ok(Body::Value(stats_json(state))),
        "shutdown" => |state, _| {
            state.trigger_shutdown();
            Ok(Body::Value(Json::object([(
                "stopping".to_string(),
                Json::Bool(true),
            )])))
        },
        _ => return None,
    };
    Some(serve)
}
