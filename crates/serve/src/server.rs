//! The daemon itself: a TCP accept loop, one reader thread per
//! connection, a bounded worker pool for pipelined requests, and the
//! request dispatcher that ties the protocol to the sharded caches.
//!
//! Life of an `analyze` request:
//!
//! 1. **Admission gate** — if `max_inflight` analyses are already
//!    admitted (queued or running), the request is rejected immediately
//!    with an `overloaded` error envelope (the 429 of this protocol).
//!    Cheap ops (`register`, `stats`) are never shed.
//! 2. **Program resolution** — a 16-hex fingerprint hits a shard of the
//!    [`ProgramCache`]; inline source is fingerprinted and compiled at
//!    most once (concurrent misses of the same fingerprint wait on the
//!    leader's compile), then shared via `Arc` with every thread.
//! 3. **Session checkout** — with `reuse: true` (the default) a warm
//!    [`awam_core::Session`] is rehydrated from the tenant's pool
//!    shard, so repeat goals are answered straight from the memo table.
//!    With `reuse: false` (and for every `batch` goal) the run uses a
//!    fresh session and is byte-identical to a standalone
//!    [`Analyzer::analyze`].
//! 4. **Deadline** — the effective abstract-instruction budget
//!    (request override, else server default, capped by the server
//!    maximum) is armed on the session; a run that crosses it comes
//!    back as an `over_budget` error envelope and counts toward
//!    `shed_budget`.
//!
//! # Pipelining
//!
//! A connection may send up to [`ServeConfig::pipeline_depth`] requests
//! before reading a response. Requests that carry an `id` are eligible
//! for out-of-order execution on the worker pool (responses come back
//! id-tagged, in completion order); requests *without* an `id` act as
//! ordering barriers — the connection drains its in-flight work, runs
//! the request on the reader thread, and answers in arrival order, so
//! a client that never sends ids observes exactly the PR 8 one-at-a-time
//! protocol. `stats` and `shutdown` are always barriers. When the
//! server runs with one worker (the default on a single-core host), all
//! requests execute inline on the reader thread; pipelining then still
//! pays through syscall coalescing — many requests are read per
//! `read(2)` and their responses are flushed in one `write(2)` when the
//! read buffer runs dry.
//!
//! No request touches a process-global lock: the caches are sharded,
//! counters and latency histograms are per-connection (merged only by a
//! `stats` snapshot), and the admission gate is a single atomic.

use crate::cache::{approx_program_bytes, CompileFailed, ProgramCache, SessionPool};
use crate::protocol::{self, parse_request, Envelope, GoalSpec, ProgramRef, Request};
use crate::stats::{ConnStatsHandle, StatsRegistry};
use awam_core::{migrate_parts, par_map, Analysis, AnalysisError, Analyzer, Session};
use awam_obs::{envelope, InvalidationStats, Json};
use prolog_syntax::parse_program;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs of the daemon; `ServeConfig::default()` is sized for a
/// laptop-local daemon and every field can be overridden from the CLI.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Approximate byte budget of the compiled-program cache (split
    /// evenly across its shards).
    pub cache_bytes: usize,
    /// Analyze/batch requests allowed in flight (queued or running)
    /// before the daemon sheds load with `overloaded` responses.
    pub max_inflight: usize,
    /// Abstract-instruction budget applied when a request names none
    /// (`None` = unbounded).
    pub default_budget: Option<u64>,
    /// Hard cap on any request's budget; also applies when neither the
    /// request nor `default_budget` set one (`None` = no cap).
    pub max_budget: Option<u64>,
    /// Warm sessions parked per `(tenant, program)` key.
    pub pool_per_key: usize,
    /// Worker threads a single `batch` request fans its goals across.
    pub batch_workers: usize,
    /// Shard count for the program cache and the session pools
    /// (rounded up to a power of two; 0 = the built-in default).
    pub shards: usize,
    /// Worker-pool threads executing pipelined (id-tagged) requests.
    /// 0 = auto (the host's available parallelism). With one worker the
    /// pool is skipped entirely and requests run inline on each
    /// connection's reader thread.
    pub workers: usize,
    /// Requests one connection may keep in flight before the reader
    /// stops consuming its socket (natural TCP backpressure, never an
    /// error).
    pub pipeline_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache_bytes: 64 << 20,
            max_inflight: 256,
            default_budget: None,
            max_budget: None,
            pool_per_key: 4,
            batch_workers: 4,
            shards: 0,
            workers: 0,
            pipeline_depth: 32,
        }
    }
}

/// A unit of pipelined work: one parsed request bound for the pool.
struct Job {
    state: Arc<ServerState>,
    conn: Arc<ConnShared>,
    env: Envelope,
    /// When the request was parsed; latency is measured from here so
    /// queue wait is part of the reported distribution.
    received: Instant,
    /// Whether this job holds an admission slot (analyze/batch).
    gated: bool,
}

/// A bounded pool of worker threads draining one shared job queue.
/// Workers exit when the last sender (owned by [`ServerState`]) drops.
struct WorkerPool {
    tx: mpsc::Sender<Job>,
}

impl WorkerPool {
    fn new(workers: usize) -> WorkerPool {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || {
                // Reset-not-free: one serialization buffer per worker,
                // cleared between responses.
                let mut scratch = String::new();
                loop {
                    let job = match rx.lock().expect("worker queue poisoned").recv() {
                        Ok(job) => job,
                        Err(_) => return,
                    };
                    execute_job(job, &mut scratch);
                }
            });
        }
        WorkerPool { tx }
    }

    fn submit(&self, job: Job) {
        // Send fails only if every worker died; surface that as a
        // closed connection rather than a panic.
        drop(self.tx.send(job));
    }
}

/// Shared daemon state: the sharded caches, the stats registry, and the
/// flags the accept loop watches.
struct ServerState {
    config: ServeConfig,
    cache: ProgramCache,
    pools: SessionPool,
    /// Source text by fingerprint, kept alongside the compiled cache so
    /// `update` can diff the old program against the edited one (the
    /// compiled artifact alone cannot reproduce its clause text).
    /// Entries leave when their program is evicted.
    sources: Mutex<HashMap<u64, Arc<str>>>,
    stats: StatsRegistry,
    /// Admitted (queued or running) analyze/batch requests.
    inflight: AtomicUsize,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    started: Instant,
    /// `None` = single-worker host; requests execute inline.
    pool_exec: Option<WorkerPool>,
}

/// A bound (but not yet running) daemon. Binding and running are split
/// so callers can learn the ephemeral port before the first request.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A running daemon spawned onto a background thread; dropping the
/// handle does *not* stop the daemon — call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shards = if config.shards == 0 {
            crate::cache::DEFAULT_SHARDS
        } else {
            config.shards
        };
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let pool_exec = (workers > 1).then(|| WorkerPool::new(workers));
        let state = Arc::new(ServerState {
            cache: ProgramCache::with_shards(config.cache_bytes, shards),
            pools: SessionPool::with_shards(config.pool_per_key, shards),
            sources: Mutex::new(HashMap::new()),
            stats: StatsRegistry::new(),
            inflight: AtomicUsize::new(0),
            shutting_down: AtomicBool::new(false),
            addr,
            started: Instant::now(),
            pool_exec,
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Run the accept loop on the calling thread until a `shutdown`
    /// request arrives. Each connection gets its own reader thread;
    /// readers outlive the accept loop only until their client hangs
    /// up.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures (per-connection errors only
    /// end that connection).
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.state.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }
        Ok(())
    }

    /// Run the accept loop on a background thread, returning a handle
    /// that can stop it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let state = Arc::clone(&self.state);
        let accept_thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            state,
            accept_thread,
        }
    }
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and wait for it to exit. Idempotent; safe
    /// to call after a client already sent `shutdown`.
    pub fn shutdown(self) {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag when `accept` returns,
        // so poke it with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        drop(self.accept_thread.join());
    }
}

/// Per-connection shared plumbing: the locked write half, the in-flight
/// job count (with its condvar for barriers and depth backpressure),
/// and the connection's stats block.
struct ConnShared {
    writer: Mutex<BufWriter<TcpStream>>,
    /// Jobs submitted to the pool and not yet answered.
    outstanding: Mutex<usize>,
    changed: Condvar,
    stats: ConnStatsHandle,
    /// Set when a response write fails; the reader stops consuming.
    dead: AtomicBool,
}

impl ConnShared {
    /// Wait until every in-flight job of this connection has answered.
    fn drain(&self) {
        let mut outstanding = self.outstanding.lock().expect("outstanding poisoned");
        while *outstanding > 0 {
            outstanding = self.changed.wait(outstanding).expect("drain wait poisoned");
        }
    }

    /// Reserve an in-flight slot, waiting while the pipeline is at
    /// `depth` (backpressure: the reader simply stops consuming).
    fn reserve(&self, depth: usize) {
        let mut outstanding = self.outstanding.lock().expect("outstanding poisoned");
        while *outstanding >= depth {
            outstanding = self.changed.wait(outstanding).expect("slot wait poisoned");
        }
        *outstanding += 1;
    }

    /// Release an in-flight slot; returns true when the pipeline is now
    /// empty (the releasing worker flushes the socket).
    fn release(&self) -> bool {
        let mut outstanding = self.outstanding.lock().expect("outstanding poisoned");
        *outstanding -= 1;
        let empty = *outstanding == 0;
        drop(outstanding);
        self.changed.notify_all();
        empty
    }
}

/// Classify a response into the connection counters (skipped for
/// control-plane responses).
fn count_response(conn: &ConnShared, response: &Json) {
    conn.stats.with(|stats| {
        if response.get("kind").and_then(Json::as_str) == Some("error") {
            stats.serve.responses_error += 1;
            if let Some(code) = response
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
            {
                match code {
                    "overloaded" => stats.serve.shed_overload += 1,
                    "over_budget" => stats.serve.shed_budget += 1,
                    _ => {}
                }
            }
        } else {
            stats.serve.responses_ok += 1;
        }
    });
}

/// Serialize `response` into `scratch` and write it under the
/// connection's writer lock. `flush` forces the socket flush; otherwise
/// the bytes ride along until the pipeline drains or the reader is
/// about to block.
fn write_response(conn: &ConnShared, response: &Json, scratch: &mut String, flush: bool) {
    scratch.clear();
    response.emit_into(scratch);
    scratch.push('\n');
    let mut writer = conn.writer.lock().expect("writer poisoned");
    if writer.write_all(scratch.as_bytes()).is_err() || (flush && writer.flush().is_err()) {
        conn.dead.store(true, Ordering::SeqCst);
    }
}

/// Run one pooled job to completion: execute, respond, release the
/// in-flight slot (flushing the socket when the pipeline drained).
fn execute_job(job: Job, scratch: &mut String) {
    let Job {
        state,
        conn,
        env,
        received,
        gated,
    } = job;
    let response = execute_contained(&state, &conn, env);
    count_response(&conn, &response);
    record_latency(&conn, gated, received);
    write_response(&conn, &response, scratch, false);
    if gated {
        state.inflight.fetch_sub(1, Ordering::SeqCst);
    }
    if conn.release() {
        let mut writer = conn.writer.lock().expect("writer poisoned");
        if writer.flush().is_err() {
            conn.dead.store(true, Ordering::SeqCst);
        }
    }
}

/// Record analyze/batch latency (queue wait included) into the
/// connection histogram.
fn record_latency(conn: &ConnShared, gated: bool, received: Instant) {
    if gated {
        let micros = u64::try_from(received.elapsed().as_micros()).unwrap_or(u64::MAX);
        conn.stats.with(|stats| stats.latency_us.record(micros));
    }
}

/// True when the reader's buffer already holds a complete request line,
/// i.e. the next line read cannot block on the socket.
fn buffered_line(reader: &BufReader<TcpStream>) -> bool {
    reader.buffer().contains(&b'\n')
}

/// The most bytes a request line may hold before its newline: far above
/// any program source a client registers, and the bound on what one
/// line can make a connection's reader hold. A longer line is answered
/// with one `bad_request` and skipped; the connection keeps serving.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// What [`read_line`] found.
enum Line {
    /// The peer closed the connection.
    Eof,
    /// A line (its newline included, unless the input ended first).
    Complete,
    /// More than [`MAX_LINE_BYTES`] without a newline; the rest of the
    /// line is still unread.
    Oversized,
}

/// Read one request line into `line` (cleared first), at most
/// [`MAX_LINE_BYTES`] and its newline.
fn read_line(reader: &mut BufReader<TcpStream>, line: &mut Vec<u8>) -> io::Result<Line> {
    line.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
        return Ok(Line::Eof);
    }
    if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
        return Ok(Line::Oversized);
    }
    Ok(Line::Complete)
}

/// Skip input through the next newline (or the end of input), holding
/// no more than the reader's own buffer.
fn discard_line(reader: &mut BufReader<TcpStream>) -> io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(end) => {
                reader.consume(end + 1);
                return Ok(());
            }
            None => {
                let len = buf.len();
                reader.consume(len);
            }
        }
    }
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // One-line responses must not sit in Nagle's buffer waiting for an
    // ACK of the request they answer.
    drop(stream.set_nodelay(true));
    let peer_writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(ConnShared {
        writer: Mutex::new(BufWriter::new(peer_writer)),
        outstanding: Mutex::new(0),
        changed: Condvar::new(),
        stats: state.stats.register(),
        dead: AtomicBool::new(false),
    });
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // Reset-not-free: the reader's serialization buffer for inline
    // responses, reused across the connection's lifetime.
    let mut scratch = String::new();
    let depth = state.config.pipeline_depth.max(1);
    loop {
        if conn.dead.load(Ordering::SeqCst) {
            break;
        }
        // About to (possibly) block on the socket: make sure every
        // completed response has left the building first.
        if !buffered_line(&reader) {
            let can_block_holding_bytes = {
                let outstanding = conn.outstanding.lock().expect("outstanding poisoned");
                *outstanding > 0
            };
            if !can_block_holding_bytes {
                let mut writer = conn.writer.lock().expect("writer poisoned");
                if writer.flush().is_err() {
                    break;
                }
            }
        }
        match read_line(&mut reader, &mut line) {
            Ok(Line::Eof) | Err(_) => break,
            Ok(Line::Complete) => {}
            Ok(Line::Oversized) => {
                // Answered like a malformed line, in order; then the
                // rest of the line is dropped unread and the large
                // buffer released.
                conn.stats.with(|s| s.serve.requests += 1);
                conn.drain();
                let response = protocol::error_response(
                    "bad_request",
                    &format!("request line longer than {MAX_LINE_BYTES} bytes"),
                    None,
                );
                count_response(&conn, &response);
                write_response(&conn, &response, &mut scratch, true);
                line = Vec::new();
                if discard_line(&mut reader).is_err() {
                    break;
                }
                continue;
            }
        }
        // A line that is not UTF-8 ends the connection.
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        if text.trim().is_empty() {
            continue;
        }
        let received = Instant::now();
        let env = match parse_request(text) {
            Ok(env) => env,
            Err(bad) => {
                // Malformed lines are barriers like any other un-id'd
                // request: answer after the pipeline drains, in order.
                conn.stats.with(|s| s.serve.requests += 1);
                conn.drain();
                let response = protocol::error_response("bad_request", &bad.0, None);
                count_response(&conn, &response);
                write_response(&conn, &response, &mut scratch, !buffered_line(&reader));
                continue;
            }
        };
        let control = matches!(env.request, Request::Stats | Request::Shutdown);
        conn.stats.with(|s| {
            if control {
                s.serve.control_ops += 1;
            } else {
                s.serve.requests += 1;
            }
        });

        if control {
            // Control ops are barriers: they observe a quiesced
            // connection and answer in order.
            conn.drain();
            let id = env.id;
            let stop = matches!(env.request, Request::Shutdown);
            let response = match env.request {
                Request::Stats => do_stats(state, id),
                Request::Shutdown => {
                    state.shutting_down.store(true, Ordering::SeqCst);
                    protocol::attach_id(envelope("shutdown", vec![("ok", Json::Bool(true))]), id)
                }
                _ => unreachable!("control ops are stats/shutdown"),
            };
            write_response(&conn, &response, &mut scratch, true);
            if stop {
                // Unblock the accept loop so it observes the flag.
                drop(TcpStream::connect(state.addr));
                break;
            }
            continue;
        }

        // Admission gate for analysis work (register is never shed).
        let gated = matches!(env.request, Request::Analyze { .. } | Request::Batch { .. });
        if gated && state.inflight.fetch_add(1, Ordering::SeqCst) >= state.config.max_inflight {
            state.inflight.fetch_sub(1, Ordering::SeqCst);
            let response = protocol::error_response(
                "overloaded",
                &format!(
                    "in-flight analysis limit ({}) reached; retry later",
                    state.config.max_inflight
                ),
                env.id,
            );
            count_response(&conn, &response);
            // Out-of-order shed is fine when the request carried an id;
            // otherwise answer after the pipeline drains, in order.
            if env.id.is_none() {
                conn.drain();
            }
            write_response(&conn, &response, &mut scratch, !buffered_line(&reader));
            continue;
        }

        match (&state.pool_exec, env.id) {
            (Some(pool), Some(_)) => {
                // Id-tagged request on a multi-worker host: pipeline it.
                conn.reserve(depth);
                pool.submit(Job {
                    state: Arc::clone(state),
                    conn: Arc::clone(&conn),
                    env,
                    received,
                    gated,
                });
            }
            _ => {
                // No id (ordering barrier) or single-worker host:
                // execute on the reader thread, after the pipeline
                // drains so responses stay in arrival order.
                conn.drain();
                let response = execute_contained(state, &conn, env);
                count_response(&conn, &response);
                record_latency(&conn, gated, received);
                if gated {
                    state.inflight.fetch_sub(1, Ordering::SeqCst);
                }
                write_response(&conn, &response, &mut scratch, !buffered_line(&reader));
            }
        }
    }
    // Let in-flight workers finish before the reader half goes away;
    // the last one flushes whatever is buffered.
    conn.drain();
}

/// [`execute_request`], with a panic contained to the request: it is
/// answered with one `internal` error envelope carrying the request's
/// id, and the caller goes on to release the request's admission slot
/// and pipeline count as for any other response. A session checked out
/// for the request is dropped by the unwind, never parked.
fn execute_contained(state: &ServerState, conn: &ConnShared, env: Envelope) -> Json {
    let id = env.id;
    // Unwind safety: what a request shares with others sits behind the
    // caches' locks (none is held while an analysis runs); what it owns
    // alone, its session, is dropped by the unwind.
    match panic::catch_unwind(AssertUnwindSafe(|| execute_request(state, conn, env))) {
        Ok(response) => response,
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            protocol::error_response("internal", &format!("the request panicked: {what}"), id)
        }
    }
}

/// Execute one analysis-plane request (register/analyze/batch).
fn execute_request(state: &ServerState, conn: &ConnShared, env: Envelope) -> Json {
    let id = env.id;
    match env.request {
        Request::Register { source, .. } => do_register(state, &source, id),
        Request::Analyze {
            tenant,
            program,
            goal,
            budget,
            reuse,
        } => do_analyze(state, conn, &tenant, &program, &goal, budget, reuse, id),
        Request::Batch {
            tenant,
            program,
            goals,
            budget,
        } => do_batch(state, &tenant, &program, &goals, budget, id),
        Request::Update { program, source } => do_update(state, conn, program, &source, id),
        Request::Stats | Request::Shutdown => unreachable!("control ops handled by the reader"),
    }
}

/// Compile `source` under the cache's per-fingerprint dedupe, purging
/// the session pools of anything evicted to make room. Returns the
/// compiled artifact and whether *this* call ran the compile.
fn compile_cached(
    state: &ServerState,
    hash: u64,
    source: &str,
) -> Result<(Arc<Analyzer>, bool), Json> {
    let result = state.cache.get_or_compile(hash, || {
        let program = parse_program(source).map_err(|e| CompileFailed {
            code: "parse_error",
            message: e.to_string(),
        })?;
        let analyzer = Analyzer::compile(&program).map_err(|e| CompileFailed {
            code: "compile_error",
            message: e.to_string(),
        })?;
        let analyzer = Arc::new(analyzer);
        let bytes = approx_program_bytes(&analyzer, source.len());
        Ok((analyzer, bytes))
    });
    match result {
        Ok((analyzer, evicted, compiled_now)) => {
            {
                let mut sources = state.sources.lock().expect("sources poisoned");
                sources.entry(hash).or_insert_with(|| Arc::from(source));
                for hash in &evicted {
                    sources.remove(hash);
                }
            }
            for hash in evicted {
                state.pools.purge_program(hash);
            }
            Ok((analyzer, compiled_now))
        }
        Err(failed) => Err(awam_obs::error_envelope(failed.code, &failed.message)),
    }
}

/// Resolve a program reference to its compiled analyzer, compiling
/// inline source on first sight.
fn resolve_program(
    state: &ServerState,
    program: &ProgramRef,
) -> Result<(u64, Arc<Analyzer>), Json> {
    match program {
        ProgramRef::Hash(hash) => state.cache.get(*hash).map(|a| (*hash, a)).ok_or_else(|| {
            awam_obs::error_envelope(
                "unknown_program",
                &format!(
                    "program {} is not registered (or was evicted); re-register it",
                    protocol::hash_hex(*hash)
                ),
            )
        }),
        ProgramRef::Source(source) => {
            let hash = awam_core::program_fingerprint(source);
            let (analyzer, _) = compile_cached(state, hash, source)?;
            Ok((hash, analyzer))
        }
    }
}

fn do_register(state: &ServerState, source: &str, id: Option<i64>) -> Json {
    let hash = awam_core::program_fingerprint(source);
    let compiled_now = match compile_cached(state, hash, source) {
        Ok((_, compiled_now)) => compiled_now,
        Err(response) => return protocol::attach_id(response, id),
    };
    protocol::attach_id(
        envelope(
            "register",
            vec![
                ("ok", Json::Bool(true)),
                ("program", Json::Str(protocol::hash_hex(hash))),
                ("cached", Json::Bool(!compiled_now)),
            ],
        ),
        id,
    )
}

/// Patch a registered program in place: compile the edited source,
/// migrate every parked warm session (all tenants) onto the new
/// fingerprint through the incremental invalidation path, and drop
/// whatever cannot be migrated (a fresh session is always correct).
fn do_update(
    state: &ServerState,
    conn: &ConnShared,
    old_hash: u64,
    source: &str,
    id: Option<i64>,
) -> Json {
    let old_source = state
        .sources
        .lock()
        .expect("sources poisoned")
        .get(&old_hash)
        .cloned();
    let (Some(old_source), Some(old_analyzer)) = (old_source, state.cache.get(old_hash)) else {
        return protocol::error_response(
            "unknown_program",
            &format!(
                "program {} is not registered (or was evicted); register the new source instead",
                protocol::hash_hex(old_hash)
            ),
            id,
        );
    };
    let new_hash = awam_core::program_fingerprint(source);
    let (new_analyzer, _) = match compile_cached(state, new_hash, source) {
        Ok(found) => found,
        Err(response) => return protocol::attach_id(response, id),
    };
    let mut migrated = 0u64;
    let mut invalidation = InvalidationStats::default();
    if new_hash != old_hash {
        // Both texts compiled, so both parse; a failure here means the
        // source side-store went stale, and without a parse there is no
        // clause diff — fall back to purging the old pools.
        match (parse_program(&old_source), parse_program(source)) {
            (Ok(old_program), Ok(new_program)) => {
                let budget = effective_budget(None, &state.config);
                for (tenant, parts) in state.pools.take_program(old_hash) {
                    // A failed migration (budget, impossible remap)
                    // leaves the table untrustworthy: drop the session
                    // and let the tenant's next request start fresh.
                    if let Ok((parts, stats)) = migrate_parts(
                        &old_program,
                        &new_program,
                        &old_analyzer,
                        &new_analyzer,
                        parts,
                        budget,
                    ) {
                        state.pools.checkin(&tenant, new_hash, parts);
                        migrated += 1;
                        invalidation.entries_before += stats.entries_before;
                        invalidation.entries_kept += stats.entries_kept;
                        invalidation.entries_reset += stats.entries_reset;
                        invalidation.entries_dropped += stats.entries_dropped;
                        invalidation.frontier += stats.frontier;
                        invalidation.refix_explorations += stats.refix_explorations;
                        invalidation.refix_instructions += stats.refix_instructions;
                        // The clause diff is per-program, not
                        // per-session: identical for every migration.
                        invalidation.preds_changed = stats.preds_changed;
                        invalidation.preds_removed = stats.preds_removed;
                    }
                }
            }
            _ => state.pools.purge_program(old_hash),
        }
    }
    conn.stats.with(|s| {
        s.serve.updates += 1;
        s.serve.sessions_migrated += migrated;
    });
    protocol::attach_id(
        envelope(
            "update",
            vec![
                ("ok", Json::Bool(true)),
                ("program", Json::Str(protocol::hash_hex(new_hash))),
                ("previous", Json::Str(protocol::hash_hex(old_hash))),
                ("migrated", Json::Int(migrated as i64)),
                ("invalidation", invalidation.to_json()),
            ],
        ),
        id,
    )
}

fn effective_budget(requested: Option<u64>, config: &ServeConfig) -> Option<u64> {
    let base = requested.or(config.default_budget);
    match (base, config.max_budget) {
        (Some(b), Some(cap)) => Some(b.min(cap)),
        (None, cap) => cap,
        (b, None) => b,
    }
}

fn analysis_error_response(err: &AnalysisError, id: Option<i64>) -> Json {
    let code = match err {
        AnalysisError::BudgetExceeded { .. } => "over_budget",
        _ => "analysis_error",
    };
    protocol::error_response(code, &err.to_string(), id)
}

/// One goal's slice of an analyze/batch response payload.
fn goal_payload(
    goal: &GoalSpec,
    analysis: &Analysis,
    analyzer: &Analyzer,
) -> Vec<(&'static str, Json)> {
    vec![
        ("goal", Json::Str(goal.goal.clone())),
        (
            "entry",
            Json::Arr(goal.entry.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("iterations", Json::Int(analysis.iterations as i64)),
        (
            "instructions_executed",
            Json::Int(analysis.instructions_executed as i64),
        ),
        ("report", Json::Str(analysis.report(analyzer))),
    ]
}

#[allow(clippy::too_many_arguments)]
fn do_analyze(
    state: &ServerState,
    conn: &ConnShared,
    tenant: &str,
    program: &ProgramRef,
    goal: &GoalSpec,
    budget: Option<u64>,
    reuse: bool,
    id: Option<i64>,
) -> Json {
    let (hash, analyzer) = match resolve_program(state, program) {
        Ok(found) => found,
        Err(response) => return protocol::attach_id(response, id),
    };
    let parked = if reuse {
        state.pools.checkout(tenant, hash)
    } else {
        None
    };
    let warmed = parked.is_some();
    let mut session = match parked {
        Some(parts) => Session::resume(&analyzer, parts),
        None => Session::new(&analyzer),
    };
    session.set_step_budget(effective_budget(budget, &state.config));
    let specs: Vec<&str> = goal.entry.iter().map(String::as_str).collect();
    match session.analyze_query(&goal.goal, &specs) {
        Ok(analysis) => {
            let warm_hit = warmed && analysis.iterations == 0;
            if warm_hit {
                conn.stats.with(|s| s.serve.warm_hits += 1);
            }
            if reuse {
                state.pools.checkin(tenant, hash, session.into_parts());
            }
            let mut pairs = vec![
                ("ok", Json::Bool(true)),
                ("program", Json::Str(protocol::hash_hex(hash))),
                ("reused", Json::Bool(warmed)),
                ("warm", Json::Bool(warm_hit)),
            ];
            pairs.extend(goal_payload(goal, &analysis, &analyzer));
            protocol::attach_id(envelope("analyze", pairs), id)
        }
        // The session is dropped, not checked back in: after a
        // resource-bound error its table is no longer trustworthy.
        Err(err) => analysis_error_response(&err, id),
    }
}

fn do_batch(
    state: &ServerState,
    _tenant: &str,
    program: &ProgramRef,
    goals: &[GoalSpec],
    budget: Option<u64>,
    id: Option<i64>,
) -> Json {
    let (hash, analyzer) = match resolve_program(state, program) {
        Ok(found) => found,
        Err(response) => return protocol::attach_id(response, id),
    };
    let effective = effective_budget(budget, &state.config);
    // Every batch goal runs in its own fresh session (single-shot
    // identical results), fanned across the configured workers.
    let results = par_map(goals, state.config.batch_workers, |_, goal| {
        let mut session = Session::new(&analyzer);
        session.set_step_budget(effective);
        let specs: Vec<&str> = goal.entry.iter().map(String::as_str).collect();
        session.analyze_query(&goal.goal, &specs)
    });
    let rendered: Vec<Json> = goals
        .iter()
        .zip(&results)
        .map(|(goal, result)| match result {
            Ok(analysis) => {
                let mut pairs = vec![("ok", Json::Bool(true))];
                pairs.extend(goal_payload(goal, analysis, &analyzer));
                Json::obj(pairs)
            }
            Err(err) => {
                let code = match err {
                    AnalysisError::BudgetExceeded { .. } => "over_budget",
                    _ => "analysis_error",
                };
                Json::obj(vec![
                    ("ok", Json::Bool(false)),
                    ("goal", Json::Str(goal.goal.clone())),
                    (
                        "error",
                        Json::obj(vec![
                            ("code", Json::Str(code.to_owned())),
                            ("message", Json::Str(err.to_string())),
                        ]),
                    ),
                ])
            }
        })
        .collect();
    let ok = rendered
        .iter()
        .all(|r| r.get("ok").and_then(Json::as_bool) == Some(true));
    protocol::attach_id(
        envelope(
            "batch",
            vec![
                ("ok", Json::Bool(ok)),
                ("program", Json::Str(protocol::hash_hex(hash))),
                ("results", Json::Arr(rendered)),
            ],
        ),
        id,
    )
}

fn do_stats(state: &ServerState, id: Option<i64>) -> Json {
    let (programs, cache_bytes, cache_budget, cache) = state.cache.snapshot();
    let (parked, pool) = state.pools.snapshot();
    let merged = state.stats.snapshot();
    let mut stats = merged.serve;
    stats.merge(&cache);
    stats.merge(&pool);
    let latency = &merged.latency_us;
    let latency_json = Json::obj(vec![
        ("count", Json::Int(latency.count as i64)),
        ("p50_us", Json::Int(latency.quantile(0.50) as i64)),
        ("p90_us", Json::Int(latency.quantile(0.90) as i64)),
        ("p99_us", Json::Int(latency.quantile(0.99) as i64)),
        ("p999_us", Json::Int(latency.quantile(0.999) as i64)),
        (
            "max_us",
            Json::Int(if latency.count == 0 {
                0
            } else {
                latency.max as i64
            }),
        ),
    ]);
    let Json::Obj(mut counters) = stats.to_json() else {
        unreachable!("ServeStats::to_json returns an object");
    };
    counters.push((
        "cache_hit_rate".to_owned(),
        Json::Float(stats.cache_hit_rate()),
    ));
    counters.push((
        "pool_hit_rate".to_owned(),
        Json::Float(stats.pool_hit_rate()),
    ));
    protocol::attach_id(
        envelope(
            "stats",
            vec![
                ("ok", Json::Bool(true)),
                (
                    "uptime_ms",
                    Json::Int(
                        i64::try_from(state.started.elapsed().as_millis()).unwrap_or(i64::MAX),
                    ),
                ),
                ("counters", Json::Obj(counters)),
                (
                    "program_cache",
                    Json::obj(vec![
                        ("programs", Json::Int(programs as i64)),
                        ("bytes", Json::Int(cache_bytes as i64)),
                        ("byte_budget", Json::Int(cache_budget as i64)),
                        ("shards", Json::Int(state.cache.shard_count() as i64)),
                    ]),
                ),
                (
                    "session_pools",
                    Json::obj(vec![("parked", Json::Int(parked as i64))]),
                ),
                ("latency", latency_json),
                (
                    "inflight",
                    Json::Int(state.inflight.load(Ordering::SeqCst) as i64),
                ),
            ],
        ),
        id,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    const APP: &str = "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).";

    fn spawn_default() -> ServerHandle {
        Server::bind("127.0.0.1:0", ServeConfig::default())
            .expect("bind ephemeral port")
            .spawn()
    }

    #[test]
    fn register_analyze_stats_roundtrip() {
        let handle = spawn_default();
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

        let reg = client.register("t1", APP).expect("register");
        assert_eq!(reg.get("kind").and_then(Json::as_str), Some("register"));
        assert_eq!(reg.get("schema").and_then(Json::as_str), Some("awam/v1"));
        let hash = reg
            .get("program")
            .and_then(Json::as_str)
            .expect("hash")
            .to_owned();

        let line = format!(
            r#"{{"op":"analyze","tenant":"t1","program":"{hash}","goal":"app","entry":["glist","glist","var"],"id":3}}"#
        );
        let first = client.call_line(&line).expect("analyze");
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(first.get("id").and_then(Json::as_i64), Some(3));
        assert_eq!(first.get("warm").and_then(Json::as_bool), Some(false));
        let second = client.call_line(&line).expect("analyze again");
        assert_eq!(second.get("warm").and_then(Json::as_bool), Some(true));
        // The report header carries per-run work counters (0 iterations
        // on the warm hit); the analysis results after it must match.
        let results_of = |doc: &Json| {
            let report = doc.get("report").and_then(Json::as_str).expect("report");
            let split = report.find("\n\n").expect("report has a result section");
            report[split..].to_owned()
        };
        assert_eq!(
            results_of(&second),
            results_of(&first),
            "repeat goal answers match"
        );

        let stats = client.stats().expect("stats");
        let counters = stats.get("counters").expect("counters");
        assert_eq!(
            counters.get("program_cache_misses").and_then(Json::as_i64),
            Some(1),
            "compiled exactly once"
        );
        assert_eq!(
            counters.get("session_pool_hits").and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(counters.get("warm_hits").and_then(Json::as_i64), Some(1));
        // Control ops are counted apart from analysis requests, so the
        // request/response totals reconcile exactly.
        assert_eq!(counters.get("requests").and_then(Json::as_i64), Some(3));
        assert_eq!(
            counters.get("control_ops").and_then(Json::as_i64),
            Some(1),
            "this stats call itself"
        );
        assert_eq!(
            counters.get("responses_ok").and_then(Json::as_i64),
            Some(3),
            "register + two analyzes; control responses not counted"
        );
        handle.shutdown();
    }

    #[test]
    fn zero_inflight_limit_sheds_every_analysis() {
        let config = ServeConfig {
            max_inflight: 0,
            ..ServeConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", config).expect("bind").spawn();
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        let response = client
            .call_line(&format!(
                r#"{{"op":"analyze","source":{},"goal":"app","entry":["glist","glist","var"]}}"#,
                Json::Str(APP.to_owned()).emit()
            ))
            .expect("shed response");
        assert_eq!(response.get("kind").and_then(Json::as_str), Some("error"));
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats
                .get("counters")
                .and_then(|c| c.get("shed_overload"))
                .and_then(Json::as_i64),
            Some(1)
        );
        handle.shutdown();
    }

    #[test]
    fn tiny_budget_returns_over_budget_envelope() {
        let handle = spawn_default();
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        let response = client
            .call_line(&format!(
                r#"{{"op":"analyze","source":{},"goal":"app","entry":["glist","glist","var"],"budget":0}}"#,
                Json::Str(APP.to_owned()).emit()
            ))
            .expect("over-budget response");
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("over_budget")
        );
        handle.shutdown();
    }

    #[test]
    fn unknown_hash_is_a_clean_error() {
        let handle = spawn_default();
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        let response = client
            .call_line(r#"{"op":"analyze","program":"00000000deadbeef","goal":"p","entry":[]}"#)
            .expect("error response");
        assert_eq!(
            response
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("unknown_program")
        );
        handle.shutdown();
    }

    #[test]
    fn batch_runs_all_goals_fresh() {
        let handle = spawn_default();
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        let response = client
            .call_line(&format!(
                r#"{{"op":"batch","source":{},"goals":[{{"goal":"app","entry":["glist","glist","var"]}},{{"goal":"app","entry":["var","var","glist"]}}]}}"#,
                Json::Str(APP.to_owned()).emit()
            ))
            .expect("batch response");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let results = response
            .get("results")
            .and_then(Json::as_arr)
            .expect("results array");
        assert_eq!(results.len(), 2);
        for r in results {
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
            assert!(r.get("iterations").and_then(Json::as_i64).unwrap_or(0) > 0);
        }
        handle.shutdown();
    }

    #[test]
    fn pipelined_ids_answer_every_request_out_of_order_allowed() {
        // Force the pooled (multi-worker) path regardless of host
        // parallelism, with a deep pipeline.
        let config = ServeConfig {
            workers: 4,
            pipeline_depth: 8,
            ..ServeConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", config).expect("bind").spawn();
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        let reg = client.register("t", APP).expect("register");
        let hash = reg
            .get("program")
            .and_then(Json::as_str)
            .expect("hash")
            .to_owned();

        // Fire 8 id-tagged analyzes without reading, then collect all 8.
        for id in 0..8 {
            client
                .send_line(&format!(
                    r#"{{"op":"analyze","tenant":"t","program":"{hash}","goal":"app","entry":["glist","glist","var"],"id":{id}}}"#
                ))
                .expect("send");
        }
        client.flush().expect("flush");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let response = client.recv().expect("response");
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
            let id = response
                .get("id")
                .and_then(Json::as_i64)
                .expect("id echoed");
            assert!(seen.insert(id), "no duplicate response ids");
        }
        assert_eq!(
            seen,
            (0..8).collect(),
            "every request answered exactly once"
        );
        handle.shutdown();
    }

    #[test]
    fn unids_are_barriers_and_stay_in_order() {
        let config = ServeConfig {
            workers: 4,
            pipeline_depth: 8,
            ..ServeConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", config).expect("bind").spawn();
        let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
        let reg = client.register("t", APP).expect("register");
        let hash = reg
            .get("program")
            .and_then(Json::as_str)
            .expect("hash")
            .to_owned();

        // Mix id-tagged and bare requests; the bare ones must come back
        // in their arrival positions relative to each other, each after
        // all preceding work (barrier semantics).
        for i in 0..4 {
            client
                .send_line(&format!(
                    r#"{{"op":"analyze","tenant":"t","program":"{hash}","goal":"app","entry":["glist","glist","var"],"id":{i}}}"#
                ))
                .expect("send");
            client
                .send_line(&format!(
                    r#"{{"op":"analyze","tenant":"t","program":"{hash}","goal":"app","entry":["var","var","glist"],"reuse":false}}"#
                ))
                .expect("send");
        }
        client.flush().expect("flush");
        let mut bare_positions = Vec::new();
        for pos in 0..8 {
            let response = client.recv().expect("response");
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
            if response.get("id").is_none() {
                bare_positions.push(pos);
                assert_eq!(
                    response
                        .get("entry")
                        .and_then(Json::as_arr)
                        .map(<[Json]>::len),
                    Some(3)
                );
            }
        }
        assert_eq!(bare_positions.len(), 4, "all bare requests answered");
        // Each bare request is a barrier: everything sent before it has
        // already been answered, so bare response k sits at stream
        // position 2k + 1.
        assert_eq!(bare_positions, vec![1, 3, 5, 7]);
        handle.shutdown();
    }
}
