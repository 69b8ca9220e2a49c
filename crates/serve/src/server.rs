//! The trace-simulation server: accept loop, bounded job pool, and the
//! per-connection frame loop.
//!
//! Every job takes one path. A connection is a frame loop: each
//! submission is parsed, its machine spec resolved through the
//! `fpraker_sim` registry, and the content-addressed [`ResultCache`]
//! consulted right on the read loop. A miss is dispatched to its own job
//! thread and the connection thread goes straight back to reading, so many
//! jobs ride one connection with out-of-order completion. The job thread
//! queues for a pool permit, asks for the upload, and pipes the upload
//! chunks — routed to its bounded channel by `job_id` — **straight into**
//! an incremental [`codec::Reader`] driving [`Engine::run_source`]: the
//! upload is simulated as it arrives, under the engine's bounded op
//! window, and is never materialized. Responses are serialized through a
//! shared write handle. Queued (not yet running) jobs can be cancelled or
//! expire at their deadline; when the pool is saturated past
//! [`ServerConfig::queue_depth`] waiting jobs, new tagged jobs are refused
//! with an explicit `BUSY { retry_after_ms }` instead of queueing silently.
//!
//! The untagged v2 dialect is a framing adapter onto that same path, not a
//! second state machine: a v2 `SUBMIT`, `SUBMIT_RANGE` or `SUBMIT_STATS`
//! becomes job 0 at [`DEFAULT_PRIORITY`] with no deadline, and its
//! `TRACE_DATA` / `TRACE_END` frames feed job 0's upload channel. Only the
//! replies differ: v2 gets `NEED_TRACE`, `RESULT` / `TRACE_STATS_RESULT`
//! and `ERROR` (after which the connection closes), and a v2 job always
//! queues — its protocol has no `BUSY` frame.
//!
//! Simulations are dispatched across a bounded job pool: a priority-aware
//! counting semaphore of `jobs` permits, each job running the shared
//! engine with `threads_per_job` workers, so the server's total worker
//! budget is `jobs × threads_per_job` regardless of how many clients
//! connect (`threads_per_job = 0` resolves to one worker per core per
//! job — see [`ServerConfig::threads_per_job`]).
//! Per-job failures kill only that job; connection-level protocol
//! violations are answered with an error frame and close only that
//! connection; the accept loop keeps serving.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fpraker_energy::EnergyModel;
use fpraker_num::encode::Encoding;
use fpraker_sim::{resolve_machine, AcceleratorConfig, Engine, Machine};
use fpraker_trace::codec::{self, IndexFooter, MAX_FOOTER_LEN};
use fpraker_trace::digest::Fnv64;
use fpraker_trace::stats::TraceStatistics;
use fpraker_trace::TraceSource;

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::protocol::{
    self, job_error, tag, write_frame, JobKind, JobSubmit, RangeSubmit, ServeError, ServerStats,
    StatsSubmit, Submit, TraceStatsReport, MAX_FRAME_LEN,
};

/// The pseudo machine-spec under which trace-statistics results are
/// cached. Starts with `#` so it can never collide with a registry name.
const STATS_SPEC: &str = "#stats";

/// Priority assumed for untagged v2 jobs (the middle of the u8 range, so
/// tagged jobs can explicitly rank above or below legacy traffic).
pub const DEFAULT_PRIORITY: u8 = 100;

/// Bounded upload channel per job, in frames. Full channels push back on
/// the connection's read loop, which pushes back on TCP.
const UPLOAD_CHANNEL_FRAMES: usize = 32;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an ephemeral port in tests).
    pub addr: String,
    /// Maximum simulations in flight at once (the job pool's permit
    /// count); further jobs queue on the semaphore. Clamped to ≥ 1.
    pub jobs: usize,
    /// Engine workers per job. The server's total worker budget is
    /// `jobs × threads_per_job`. `0` resolves to one worker per core *per
    /// job* — convenient on a mostly-idle box, but with `jobs > 1` it
    /// oversubscribes the cores; set an explicit value to hold a fixed
    /// budget.
    pub threads_per_job: usize,
    /// Streaming window per job (`0` = the engine default of 2× workers).
    pub stream_window: usize,
    /// Result-cache capacity in entries.
    pub cache_entries: usize,
    /// Resident-byte ceiling for the in-memory result cache (0 = bounded
    /// by entry count alone).
    pub cache_bytes: u64,
    /// Disk tier for the result cache: one digest-verified file per
    /// (digest, spec) entry, written atomically, so a restarted server
    /// answers previously-computed digests warm. `None` keeps the cache
    /// memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Tagged jobs waiting in the queue beyond which new tagged
    /// submissions are refused with `BUSY { retry_after_ms }` instead of
    /// queueing. Untagged v2 jobs always queue (their protocol has no
    /// `BUSY` frame).
    pub queue_depth: usize,
    /// The retry hint carried by `BUSY` responses, in milliseconds.
    pub busy_retry_ms: u32,
    /// Per-connection socket timeout (`None` = block forever). Bounds how
    /// long a stalled client can pin a connection thread, and how long a
    /// running job waits for its next upload frame. A connection that has
    /// spoken v3, or has a job in flight, may idle indefinitely *between*
    /// frames (a pipelined connection is persistent, and a queued job may
    /// wait longer than this); the timeout still bounds stalls inside a
    /// frame.
    pub io_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 2,
            threads_per_job: 0,
            stream_window: 0,
            cache_entries: 64,
            cache_bytes: 0,
            cache_dir: None,
            queue_depth: 64,
            busy_retry_ms: 100,
            io_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// How one call to [`JobQueue::acquire`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Acquire {
    /// A permit was taken; the caller must release it (via [`JobPermit`]).
    Acquired,
    /// The job's cancel flag was set while it waited.
    Cancelled,
    /// The job's deadline lapsed while it waited.
    DeadlineExpired,
}

/// Priority-aware counting semaphore bounding concurrent simulations.
///
/// Waiters are ordered by `(priority desc, arrival seq asc)`; a freed
/// permit always goes to the best waiter. A waiter can leave the queue
/// early when its cancel flag is set (a [`tag::CANCEL`] frame) or its
/// deadline lapses — both only ever apply to *queued* jobs, by
/// construction: once `acquire` returns [`Acquire::Acquired`] the job is
/// running and neither is consulted again.
struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    permits: usize,
    next_seq: u64,
    /// `(priority, seq)` of every waiting job. Small (bounded by the
    /// configured queue depth plus v2 traffic), so a linear scan beats
    /// heap bookkeeping.
    waiting: Vec<(u8, u64)>,
}

impl JobQueue {
    fn new(permits: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                permits,
                next_seq: 0,
                waiting: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self, priority: u8, deadline: Option<Instant>, cancel: &AtomicBool) -> Acquire {
        let _wait = fpraker_telemetry::span!("serve_semaphore_wait");
        let mut s = self.state.lock().unwrap();
        let seq = s.next_seq;
        s.next_seq += 1;
        s.waiting.push((priority, seq));
        loop {
            if cancel.load(Ordering::SeqCst) {
                return self.leave(s, seq, Acquire::Cancelled);
            }
            let is_front = !s
                .waiting
                .iter()
                .any(|&(p, q)| p > priority || (p == priority && q < seq));
            if s.permits > 0 && is_front {
                s.permits -= 1;
                s.waiting.retain(|&(_, q)| q != seq);
                // More permits may remain for the next-best waiter.
                self.cv.notify_all();
                return Acquire::Acquired;
            }
            s = match deadline {
                None => self.cv.wait(s).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return self.leave(s, seq, Acquire::DeadlineExpired);
                    }
                    self.cv.wait_timeout(s, d - now).unwrap().0
                }
            };
        }
    }

    /// Removes a waiter without taking a permit, waking the rest (the
    /// departing waiter may have been blocking the front of the queue).
    fn leave(
        &self,
        mut s: std::sync::MutexGuard<'_, QueueState>,
        seq: u64,
        outcome: Acquire,
    ) -> Acquire {
        s.waiting.retain(|&(_, q)| q != seq);
        drop(s);
        self.cv.notify_all();
        outcome
    }

    fn release(&self) {
        self.state.lock().unwrap().permits += 1;
        self.cv.notify_all();
    }

    /// Wakes all waiters so freshly-set cancel flags are observed.
    fn poke(&self) {
        self.cv.notify_all();
    }

    fn queued(&self) -> usize {
        self.state.lock().unwrap().waiting.len()
    }

    /// Whether a new tagged job would be refused with `BUSY`: no permit
    /// free and the waiting line already at the configured depth.
    fn saturated(&self, depth: usize) -> bool {
        let s = self.state.lock().unwrap();
        s.permits == 0 && s.waiting.len() >= depth
    }
}

/// Releases a job permit (and the in-flight count) on drop, so every exit
/// path — including errors — returns the slot to the pool.
struct JobPermit<'a>(&'a Shared);

impl<'a> JobPermit<'a> {
    /// Wraps a permit that [`JobQueue::acquire`] already granted.
    fn held(shared: &'a Shared) -> Self {
        shared.jobs_in_flight.fetch_add(1, Ordering::SeqCst);
        JobPermit(shared)
    }
}

impl Drop for JobPermit<'_> {
    fn drop(&mut self) {
        self.0.jobs_in_flight.fetch_sub(1, Ordering::SeqCst);
        self.0.queue.release();
    }
}

struct Shared {
    cache: ResultCache,
    queue: JobQueue,
    engine: Engine,
    energy: EnergyModel,
    io_timeout: Option<Duration>,
    queue_depth: usize,
    busy_retry_ms: u32,
    shutdown: AtomicBool,
    jobs_completed: AtomicU64,
    jobs_in_flight: AtomicU64,
    busy_rejections: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_deadline_expired: AtomicU64,
}

/// A running trace-simulation server.
///
/// [`Server::start`] binds and returns immediately; the accept loop runs
/// on a background thread until [`Server::shutdown`] (or process exit).
///
/// ```
/// use fpraker_serve::{Server, ServerConfig};
///
/// let server = Server::start(ServerConfig::default()).unwrap();
/// let addr = server.local_addr(); // ephemeral port, ready for clients
/// assert_ne!(addr.port(), 0);
/// server.shutdown();
/// ```
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts accepting clients.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …).
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        fpraker_telemetry::init();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cache: ResultCache::with_options(
                config.cache_entries,
                config.cache_bytes,
                config.cache_dir.clone(),
            ),
            queue: JobQueue::new(config.jobs.max(1)),
            engine: Engine::with_threads(config.threads_per_job)
                .stream_window(config.stream_window),
            energy: EnergyModel::paper(),
            io_timeout: config.io_timeout,
            queue_depth: config.queue_depth,
            busy_retry_ms: config.busy_retry_ms,
            shutdown: AtomicBool::new(false),
            jobs_completed: AtomicU64::new(0),
            jobs_in_flight: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_deadline_expired: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else {
                    // Persistent accept failures (e.g. fd exhaustion under
                    // EMFILE) would otherwise busy-spin this loop; back off
                    // briefly and retry.
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                };
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || {
                    // A failed connection only ever fails itself.
                    let _ = handle_connection(stream, &conn_shared);
                });
            }
        });
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server is listening on (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Result-cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The counters a [`tag::STATS`] request reports.
    pub fn stats(&self) -> ServerStats {
        server_stats(&self.shared)
    }

    /// The Prometheus-style text a [`tag::METRICS`] request returns: the
    /// server's own counters followed by the process-global telemetry
    /// registry.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.shared)
    }

    /// Blocks until the accept loop exits. The loop runs until the
    /// process dies, so daemons use this to park the main thread.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting connections and joins the accept thread. In-flight
    /// connections finish on their own threads. (Dropping the server does
    /// the same.)
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(t) = self.accept_thread.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = t.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn server_stats(shared: &Shared) -> ServerStats {
    let cache = shared.cache.stats();
    ServerStats {
        jobs_completed: shared.jobs_completed.load(Ordering::SeqCst),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_entries: cache.entries as u64,
        cache_capacity: cache.capacity as u64,
        cache_evictions: cache.evictions,
        cache_resident_bytes: cache.resident_bytes,
        cache_capacity_bytes: cache.capacity_bytes,
        jobs_in_flight: shared.jobs_in_flight.load(Ordering::SeqCst),
        jobs_queued: shared.queue.queued() as u64,
        busy_rejections: shared.busy_rejections.load(Ordering::SeqCst),
        jobs_cancelled: shared.jobs_cancelled.load(Ordering::SeqCst),
        jobs_deadline_expired: shared.jobs_deadline_expired.load(Ordering::SeqCst),
    }
}

/// Composes the [`tag::METRICS`] response text: the [`ServerStats`]
/// counters rendered as Prometheus lines (these come from the server's
/// own structs, so they are live even when the telemetry crate is
/// compiled out) followed by the full process-global telemetry registry.
fn render_metrics(shared: &Shared) -> String {
    use std::fmt::Write as _;

    let s = server_stats(shared);
    let mut out = String::new();
    for (name, value) in [
        ("serve_jobs_completed_total", s.jobs_completed),
        ("serve_cache_hits_total", s.cache_hits),
        ("serve_cache_misses_total", s.cache_misses),
        ("serve_cache_evictions_total", s.cache_evictions),
        ("serve_busy_rejections_total", s.busy_rejections),
        ("serve_jobs_cancelled_total", s.jobs_cancelled),
        ("serve_jobs_deadline_expired_total", s.jobs_deadline_expired),
    ] {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in [
        ("serve_cache_entries", s.cache_entries),
        ("serve_cache_capacity", s.cache_capacity),
        ("serve_cache_resident_bytes", s.cache_resident_bytes),
        ("serve_cache_capacity_bytes", s.cache_capacity_bytes),
        ("serve_jobs_in_flight", s.jobs_in_flight),
        ("serve_jobs_queued", s.jobs_queued),
    ] {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    out.push_str(&fpraker_telemetry::render_prometheus());
    out
}

/// The per-request latency histogram for a `(job kind, cache outcome)`
/// pair — a fixed set of label variants so every call site resolves to a
/// `&'static` handle.
fn request_histogram(job: &'static str, cached: bool) -> &'static fpraker_telemetry::Histogram {
    use fpraker_telemetry::histogram;
    match (job, cached) {
        ("sim", false) => histogram!("serve_request_seconds{job=\"sim\",cache=\"cold\"}"),
        ("sim", true) => histogram!("serve_request_seconds{job=\"sim\",cache=\"hit\"}"),
        ("range", false) => histogram!("serve_request_seconds{job=\"range\",cache=\"cold\"}"),
        ("range", true) => histogram!("serve_request_seconds{job=\"range\",cache=\"hit\"}"),
        (_, false) => histogram!("serve_request_seconds{job=\"stats\",cache=\"cold\"}"),
        (_, true) => histogram!("serve_request_seconds{job=\"stats\",cache=\"hit\"}"),
    }
}

/// The serialized write half of one connection. Job threads and the read
/// loop interleave whole frames through this mutex; nothing writes to the
/// socket outside it.
type ConnWriter = Arc<Mutex<TcpStream>>;

/// Writes and flushes one whole frame.
fn send_frame(writer: &ConnWriter, frame_tag: u8, payload: &[u8]) -> Result<(), ServeError> {
    let mut w = writer.lock().unwrap();
    write_frame(&mut *w, frame_tag, payload)?;
    w.flush()?;
    Ok(())
}

/// Sends an error frame (best-effort; the peer may already be gone).
fn send_error(writer: &ConnWriter, message: &str) {
    let _ = send_frame(writer, tag::ERROR, message.as_bytes());
}

/// The dialect a job arrived in. The job itself runs the same either way;
/// only its reply frames differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dialect {
    /// Untagged v2 frames: the connection's one job, id 0. Replies carry
    /// no id, an error closes the connection, and the job always queues
    /// (v2 has no `BUSY` frame).
    V2,
    /// Tagged v3 frames: every reply echoes the job id, and an error kills
    /// only the job.
    V3,
}

/// Where one job's replies go, framed for the dialect it arrived in.
struct Replies {
    writer: ConnWriter,
    job_id: u64,
    dialect: Dialect,
}

impl Replies {
    /// Asks the client for the job's trace.
    fn need_trace(&self) -> Result<(), ServeError> {
        let id = self.job_id.to_le_bytes();
        let (frame_tag, payload): (u8, &[u8]) = match self.dialect {
            Dialect::V2 => (tag::NEED_TRACE, &[]),
            Dialect::V3 => (tag::JOB_NEED_TRACE, &id),
        };
        send_frame(&self.writer, frame_tag, payload)
    }

    /// Sends the job's `{[job_id,] cached, payload}` result frame.
    fn result(&self, stats: bool, cached: bool, payload: &[u8]) -> Result<(), ServeError> {
        let frame_tag = match (self.dialect, stats) {
            (Dialect::V2, false) => tag::RESULT,
            (Dialect::V2, true) => tag::TRACE_STATS_RESULT,
            (Dialect::V3, false) => tag::JOB_RESULT,
            (Dialect::V3, true) => tag::JOB_STATS_RESULT,
        };
        let mut framed = Vec::with_capacity(9 + payload.len());
        if self.dialect == Dialect::V3 {
            framed.extend_from_slice(&self.job_id.to_le_bytes());
        }
        framed.push(u8::from(cached));
        framed.extend_from_slice(payload);
        send_frame(&self.writer, frame_tag, &framed)?;
        // Frame header (tag + u32 length) plus payload.
        fpraker_telemetry::counter!("serve_bytes_out_total").add(5 + framed.len() as u64);
        Ok(())
    }

    /// Fails the job (best-effort; the peer may already be gone). A v3
    /// job dies alone; a v2 error also closes the connection, which ends
    /// its read loop.
    fn fail(&self, code: u8, message: &str) {
        match self.dialect {
            Dialect::V2 => {
                send_error(&self.writer, message);
                let _ = self.writer.lock().unwrap().shutdown(Shutdown::Both);
            }
            Dialect::V3 => {
                let error = protocol::encode_job_error(self.job_id, code, message);
                let _ = send_frame(&self.writer, tag::JOB_ERROR, &error);
            }
        }
    }
}

/// One job's connection-side state while it is in flight: the upload
/// channel the read loop feeds and the cancel flag a [`tag::CANCEL`] frame
/// sets.
struct PendingJob {
    data: mpsc::SyncSender<UploadMsg>,
    cancel: Arc<AtomicBool>,
}

enum UploadMsg {
    Data(Vec<u8>),
    End,
}

type PendingMap = Arc<Mutex<HashMap<u64, PendingJob>>>;

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> Result<(), ServeError> {
    let _active = fpraker_telemetry::gauge!("serve_active_connections").inc_scoped();
    stream.set_read_timeout(shared.io_timeout)?;
    stream.set_write_timeout(shared.io_timeout)?;
    stream.set_nodelay(true).ok();
    let writer: ConnWriter = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = stream;
    let pending: PendingMap = Arc::default();

    let result = connection_loop(&mut reader, &writer, &pending, shared);
    // The connection is gone: flag every still-pending job as cancelled
    // (frees queue slots a dead client would otherwise hold) and drop the
    // upload senders so running jobs see EOF instead of an io-timeout.
    let mut map = pending.lock().unwrap();
    for job in map.values() {
        job.cancel.store(true, Ordering::SeqCst);
    }
    map.clear();
    drop(map);
    shared.queue.poke();
    result
}

/// Reads one tag byte. Returns `None` on clean EOF. A read timeout between
/// frames is retried while `may_idle()` holds — a connection that has
/// spoken v3 is persistent, and any connection with a job in flight is
/// legitimately quiet while that job queues — and is an error otherwise
/// (a silent connection with nothing in flight is dropped). A timeout can
/// only split a *multi*-byte read, so retrying a 1-byte read never
/// desynchronizes the frame stream.
fn read_tag(reader: &mut TcpStream, may_idle: impl Fn() -> bool) -> Result<Option<u8>, ServeError> {
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) && may_idle() =>
            {
                continue;
            }
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
}

/// Reads the length + payload that follow an already-consumed tag byte.
fn read_rest_of_frame(reader: &mut TcpStream) -> Result<Vec<u8>, ServeError> {
    let mut len_bytes = [0u8; 4];
    reader.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "length prefix {len} exceeds the {MAX_FRAME_LEN}-byte frame cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Lifts an untagged v2 submission onto the tagged job path: job 0 at
/// [`DEFAULT_PRIORITY`] with no deadline.
fn untagged_job(frame_tag: u8, payload: &[u8]) -> Result<JobSubmit, ServeError> {
    let (digest, trace_bytes, kind) = match frame_tag {
        tag::SUBMIT => {
            let s = Submit::decode(payload)?;
            (s.digest, s.trace_bytes, JobKind::Sim { spec: s.spec })
        }
        tag::SUBMIT_RANGE => {
            let s = RangeSubmit::decode(payload)?;
            let kind = JobKind::Range {
                spec: s.spec,
                first_op: s.first_op,
                ops: s.ops,
            };
            (s.digest, s.trace_bytes, kind)
        }
        _ => {
            let s = StatsSubmit::decode(payload)?;
            (s.digest, s.trace_bytes, JobKind::Stats)
        }
    };
    Ok(JobSubmit {
        job_id: 0,
        priority: DEFAULT_PRIORITY,
        deadline_ms: 0,
        digest,
        trace_bytes,
        kind,
    })
}

fn connection_loop(
    reader: &mut TcpStream,
    writer: &ConnWriter,
    pending: &PendingMap,
    shared: &Arc<Shared>,
) -> Result<(), ServeError> {
    // Whether this connection has spoken the v3 dialect yet.
    let mut pipelined = false;
    loop {
        let may_idle = || pipelined || !pending.lock().unwrap().is_empty();
        let Some(frame_tag) = read_tag(reader, may_idle)? else {
            return Ok(()); // clean EOF: the client is done
        };
        let mut payload = match read_rest_of_frame(reader) {
            Ok(p) => p,
            Err(e) => {
                send_error(writer, &e.to_string());
                return Err(e);
            }
        };
        if !matches!(
            frame_tag,
            tag::TRACE_DATA | tag::TRACE_END | tag::JOB_DATA | tag::JOB_DATA_END
        ) {
            fpraker_telemetry::counter!("serve_requests_total").inc();
        }
        match frame_tag {
            tag::STATS => {
                if let Err(e) = protocol::decode_stats_request(&payload) {
                    send_error(writer, &e.to_string());
                    return Err(e);
                }
                send_frame(writer, tag::STATS_RESULT, &server_stats(shared).encode())?;
            }
            tag::METRICS => {
                if let Err(e) = protocol::decode_metrics_request(&payload) {
                    send_error(writer, &e.to_string());
                    return Err(e);
                }
                send_frame(
                    writer,
                    tag::METRICS_RESULT,
                    render_metrics(shared).as_bytes(),
                )?;
            }
            tag::SUBMIT | tag::SUBMIT_RANGE | tag::SUBMIT_STATS => {
                let submit = match untagged_job(frame_tag, &payload) {
                    Ok(s) => s,
                    Err(e) => {
                        send_error(writer, &e.to_string());
                        return Err(e);
                    }
                };
                dispatch_job(writer, pending, shared, submit, Dialect::V2)?;
            }
            tag::SUBMIT_JOB => {
                pipelined = true;
                let submit = match JobSubmit::decode(&payload) {
                    Ok(s) => s,
                    // Attribute the failure to its job when the id is
                    // readable (magic intact, payload long enough), so one
                    // malformed submission cannot kill the other jobs on
                    // the wire. The id sits right after the 5-byte
                    // preamble.
                    Err(e) if payload.len() >= 13 && payload[..4] == *protocol::PROTOCOL_MAGIC => {
                        let job_id = u64::from_le_bytes(payload[5..13].try_into().unwrap());
                        Replies {
                            writer: Arc::clone(writer),
                            job_id,
                            dialect: Dialect::V3,
                        }
                        .fail(job_error::GENERIC, &e.to_string());
                        continue;
                    }
                    Err(e) => {
                        send_error(writer, &e.to_string());
                        return Err(e);
                    }
                };
                dispatch_job(writer, pending, shared, submit, Dialect::V3)?;
            }
            tag::TRACE_DATA | tag::TRACE_END | tag::JOB_DATA | tag::JOB_DATA_END => {
                // v2 upload frames belong to job 0. Undecodable routing
                // info is a connection-level error; chunks for an id with
                // no pending job (it already failed or finished) are stale
                // and silently discarded.
                let job_id = match frame_tag {
                    tag::TRACE_DATA | tag::TRACE_END => 0,
                    _ => match protocol::split_job_payload(&payload) {
                        Ok((job_id, _)) => job_id,
                        Err(e) => {
                            send_error(writer, &e.to_string());
                            return Err(e);
                        }
                    },
                };
                let sender = pending
                    .lock()
                    .unwrap()
                    .get(&job_id)
                    .map(|job| job.data.clone());
                if let Some(sender) = sender {
                    let msg = match frame_tag {
                        tag::TRACE_DATA | tag::JOB_DATA => {
                            if frame_tag == tag::JOB_DATA {
                                payload.drain(..8); // the job id
                            }
                            fpraker_telemetry::counter!("serve_bytes_in_total")
                                .add(payload.len() as u64);
                            UploadMsg::Data(payload)
                        }
                        _ => UploadMsg::End,
                    };
                    // A dropped receiver means the job already died; its
                    // remaining upload is discarded frame by frame.
                    let _ = sender.send(msg);
                }
            }
            tag::CANCEL => {
                pipelined = true;
                let job_id = match protocol::decode_cancel(&payload) {
                    Ok(id) => id,
                    Err(e) => {
                        send_error(writer, &e.to_string());
                        return Err(e);
                    }
                };
                // Queued jobs observe the flag inside `acquire` and die
                // with CANCELLED; running (or unknown) jobs are a no-op.
                if let Some(job) = pending.lock().unwrap().get(&job_id) {
                    job.cancel.store(true, Ordering::SeqCst);
                }
                shared.queue.poke();
            }
            other => {
                let e = ServeError::Protocol(format!("unexpected frame tag {other:#04x}"));
                send_error(writer, &e.to_string());
                return Err(e);
            }
        }
    }
}

/// What a job will do once it holds a permit — the spec-resolution half
/// of dispatch, done on the read loop so an unknown spec fails fast.
enum JobWork {
    /// A simulation. A segment-range job declares its op count, and its
    /// self-contained sub-trace must decode to exactly that many ops (a
    /// coordinator that mislabels a shard gets an error, not a silently
    /// misaligned merge). The range itself stays out of the cache key:
    /// identical shard bytes are the same work wherever they sit.
    Sim {
        machine: Machine,
        cfg: AcceleratorConfig,
        spec: String,
        declared_ops: Option<u64>,
    },
    /// The single-pass [`TraceStatistics`] collector instead of the
    /// engine — the Fig. 1/2/6 figures served as infrastructure.
    Stats,
}

impl JobWork {
    fn label(&self) -> &'static str {
        match self {
            JobWork::Sim {
                declared_ops: None, ..
            } => "sim",
            JobWork::Sim { .. } => "range",
            JobWork::Stats => "stats",
        }
    }

    fn is_stats(&self) -> bool {
        matches!(self, JobWork::Stats)
    }

    /// Folds the streamed upload into the job's deterministic payload.
    fn run(&self, shared: &Shared, source: &mut dyn TraceSource) -> Result<Vec<u8>, ServeError> {
        let JobWork::Sim {
            machine,
            cfg,
            spec,
            declared_ops,
        } = self
        else {
            let stats = TraceStatistics::from_source(source, Encoding::Canonical)?;
            return Ok(TraceStatsReport::from_stats(&stats).encode());
        };
        let run = shared.engine.run_source(*machine, source, cfg)?;
        if let Some(declared) = *declared_ops {
            if run.result.ops.len() as u64 != declared {
                return Err(ServeError::Protocol(format!(
                    "range submission declared {declared} ops but the sub-trace carries {}",
                    run.result.ops.len()
                )));
            }
        }
        Ok(protocol::encode_result(
            spec,
            &run.result,
            run.peak_resident_ops as u64,
            &shared.energy,
        ))
    }
}

/// Handles one submission on the read loop, whichever dialect it arrived
/// in: resolve the spec, answer cache hits inline, refuse a saturated v3
/// job with `BUSY`, otherwise register the job and hand it to its own
/// thread. Job-level failures become [`Replies::fail`] frames; only a dead
/// socket is an error.
fn dispatch_job(
    writer: &ConnWriter,
    pending: &PendingMap,
    shared: &Arc<Shared>,
    submit: JobSubmit,
    dialect: Dialect,
) -> Result<(), ServeError> {
    let job_id = submit.job_id;
    let replies = Replies {
        writer: Arc::clone(writer),
        job_id,
        dialect,
    };
    let (key, work) = match &submit.kind {
        JobKind::Sim { spec } | JobKind::Range { spec, .. } => {
            let Some((machine, cfg)) = resolve_machine(spec) else {
                replies.fail(
                    job_error::GENERIC,
                    &format!(
                        "unknown machine spec {:?} (known: {})",
                        spec,
                        fpraker_sim::machine_names().join(", ")
                    ),
                );
                return Ok(());
            };
            let key = CacheKey::new(submit.digest, spec);
            let work = JobWork::Sim {
                machine,
                cfg,
                spec: key.spec.clone(),
                declared_ops: match submit.kind {
                    JobKind::Range { ops, .. } => Some(ops),
                    _ => None,
                },
            };
            (key, work)
        }
        JobKind::Stats => (CacheKey::new(submit.digest, STATS_SPEC), JobWork::Stats),
    };

    // Warm answers never touch the pool: reply straight from the read
    // loop and move on to the next frame.
    if let Some(hit) = shared.cache.get(&key) {
        request_histogram(work.label(), true).record(0);
        return replies.result(work.is_stats(), true, &hit);
    }

    // Explicit backpressure: a saturated pool refuses a v3 job instead of
    // queueing it silently. The client sees BUSY and retries after the
    // hint.
    if dialect == Dialect::V3 && shared.queue.saturated(shared.queue_depth) {
        shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
        let busy = protocol::encode_busy(job_id, shared.busy_retry_ms);
        return send_frame(writer, tag::BUSY, &busy);
    }

    let cancel = Arc::new(AtomicBool::new(false));
    let (data_tx, data_rx) = mpsc::sync_channel(UPLOAD_CHANNEL_FRAMES);
    {
        let mut map = pending.lock().unwrap();
        if map.contains_key(&job_id) {
            drop(map);
            replies.fail(
                job_error::GENERIC,
                &format!("job id {job_id} is already in flight on this connection"),
            );
            return Ok(());
        }
        map.insert(
            job_id,
            PendingJob {
                data: data_tx,
                cancel: Arc::clone(&cancel),
            },
        );
    }

    let pending = Arc::clone(pending);
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let outcome = run_job(&replies, &shared, &submit, key, &work, data_rx, &cancel);
        finish_job(&pending, &replies, work.is_stats(), outcome);
    });
    Ok(())
}

/// A job's final outcome: `(cached, payload)`, or a job-error code and
/// message.
type JobOutcome = Result<(bool, Arc<Vec<u8>>), (u8, String)>;

/// Retires a finished job from its connection's pending map, then sends
/// its final reply — in that order: a client holding its answer may reuse
/// the id at once (every v2 job on a connection is job 0), so the id must
/// be free before the reply goes out.
fn finish_job(pending: &PendingMap, replies: &Replies, stats: bool, outcome: JobOutcome) {
    pending.lock().unwrap().remove(&replies.job_id);
    match outcome {
        Ok((cached, payload)) => {
            let _ = replies.result(stats, cached, &payload);
        }
        Err((code, message)) => replies.fail(code, &message),
    }
}

/// The job-thread half of a job: queue (with priority, deadline and
/// cancellation), re-check the cache (another job for the same content may
/// have finished while this one waited), pull the upload through its
/// channel, simulate and cache. All failures are job-scoped.
fn run_job(
    replies: &Replies,
    shared: &Shared,
    submit: &JobSubmit,
    key: CacheKey,
    work: &JobWork,
    data_rx: mpsc::Receiver<UploadMsg>,
    cancel: &AtomicBool,
) -> JobOutcome {
    let started = Instant::now();
    let deadline = (submit.deadline_ms > 0)
        .then(|| started + Duration::from_millis(u64::from(submit.deadline_ms)));
    match shared.queue.acquire(submit.priority, deadline, cancel) {
        Acquire::Cancelled => {
            shared.jobs_cancelled.fetch_add(1, Ordering::SeqCst);
            return Err((job_error::CANCELLED, "cancelled".into()));
        }
        Acquire::DeadlineExpired => {
            shared.jobs_deadline_expired.fetch_add(1, Ordering::SeqCst);
            return Err((
                job_error::DEADLINE,
                format!("deadline of {} ms expired while queued", submit.deadline_ms),
            ));
        }
        Acquire::Acquired => {}
    }
    let permit = JobPermit::held(shared);
    if let Some(hit) = shared.cache.recheck(&key) {
        drop(permit);
        request_histogram(work.label(), true).record_duration(started.elapsed());
        return Ok((true, hit));
    }
    let outcome = replies.need_trace().and_then(|()| {
        let mut body = ChannelBody::new(data_rx, shared.io_timeout);
        run_upload(&mut body, submit.trace_bytes, submit.digest, |source| {
            work.run(shared, source)
        })
    });
    // Cache-insert while the permit is still held (the next waiter's
    // re-check is what makes racing duplicates exactly-once), but reply
    // after release, so a client holding its result never observes the
    // job still in flight. The latency sample lands before the reply, so a
    // client that asks for METRICS next sees its own request.
    let outcome = outcome.map(|payload| {
        let payload = Arc::new(payload);
        shared.cache.insert(key, Arc::clone(&payload));
        shared.jobs_completed.fetch_add(1, Ordering::SeqCst);
        payload
    });
    drop(permit);
    match outcome {
        Ok(payload) => {
            request_histogram(work.label(), false).record_duration(started.elapsed());
            Ok((false, payload))
        }
        Err(e) => Err((job_error::GENERIC, e.to_string())),
    }
}

/// Streams one upload through the codec into `work` and verifies it
/// against the declared length/digest: frames → body → [`codec::Reader`]
/// (which hashes every byte it consumes) → `work`, then drain and
/// validate any index footer.
fn run_upload(
    body: &mut ChannelBody,
    declared_bytes: u64,
    declared_digest: u64,
    work: impl FnOnce(&mut dyn TraceSource) -> Result<Vec<u8>, ServeError>,
) -> Result<Vec<u8>, ServeError> {
    let mut reader = codec::Reader::new(&mut *body)?;
    let payload = work(&mut reader)?;
    let (consumed, ops_digest) = (reader.offset(), reader.digest());
    drop(reader);
    // An indexed upload carries a footer the decoder never reads; drain
    // and validate it, extending the digest over it.
    let (extra, digest) = drain_index_footer(body, ops_digest)?;
    body.finish()?;
    check_upload(consumed + extra, digest, declared_bytes, declared_digest)?;
    Ok(payload)
}

/// Drains whatever the decoder left unconsumed — legal only when it is
/// exactly one valid index footer (indexed uploads carry one after the
/// ops; the decoder stops at the declared op count and never reads it).
/// The footer bytes are folded into the upload digest so the declared
/// whole-file digest still verifies. Returns `(extra bytes, digest of the
/// whole upload)`.
fn drain_index_footer(body: &mut impl Read, ops_digest: u64) -> Result<(u64, u64), ServeError> {
    let mut hasher = Fnv64::resume(ops_digest);
    let mut extra = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = body.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        hasher.update(&chunk[..n]);
        extra.extend_from_slice(&chunk[..n]);
        if extra.len() as u64 > MAX_FOOTER_LEN {
            return Err(ServeError::Protocol(format!(
                "more than {MAX_FOOTER_LEN} bytes after the declared ops \
                 cannot be an index footer"
            )));
        }
    }
    if !extra.is_empty() && IndexFooter::parse(&extra).is_none() {
        return Err(ServeError::Protocol(format!(
            "{} bytes after the ops are not a valid index footer",
            extra.len()
        )));
    }
    Ok((extra.len() as u64, hasher.value()))
}

/// Validates that the upload matched its submission header: the declared
/// byte length and whole-upload digest.
fn check_upload(
    consumed: u64,
    digest: u64,
    declared_bytes: u64,
    declared_digest: u64,
) -> Result<(), ServeError> {
    if consumed != declared_bytes {
        return Err(ServeError::Protocol(format!(
            "trace was {consumed} bytes but the submission declared {declared_bytes}"
        )));
    }
    if digest != declared_digest {
        return Err(ServeError::Protocol(format!(
            "trace digest {digest:#018x} does not match the declared {declared_digest:#018x}"
        )));
    }
    Ok(())
}

/// One job's upload as an [`io::Read`] stream the codec decodes
/// incrementally: chunks arrive through a bounded channel fed by the
/// connection's read loop (routed by job id). EOF at the routed end frame;
/// a dropped sender (the connection died) reads as a broken pipe. Digest
/// and length verification belong to the wrapping [`codec::Reader`], which
/// hashes and counts every byte it consumes — once
/// [`ChannelBody::finish`] succeeds, the decoder saw the entire upload.
struct ChannelBody {
    rx: mpsc::Receiver<UploadMsg>,
    buf: Vec<u8>,
    pos: usize,
    done: bool,
    timeout: Option<Duration>,
}

impl ChannelBody {
    fn new(rx: mpsc::Receiver<UploadMsg>, timeout: Option<Duration>) -> Self {
        ChannelBody {
            rx,
            buf: Vec::new(),
            pos: 0,
            done: false,
            timeout,
        }
    }

    /// Pulls the next routed chunk, returning `false` at the end frame.
    fn next_chunk(&mut self) -> io::Result<bool> {
        debug_assert!(self.pos == self.buf.len() && !self.done);
        loop {
            let msg = match self.timeout {
                Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out waiting for upload frames",
                    ),
                    mpsc::RecvTimeoutError::Disconnected => {
                        io::Error::new(io::ErrorKind::BrokenPipe, "connection closed mid-upload")
                    }
                })?,
                None => self.rx.recv().map_err(|_| {
                    io::Error::new(io::ErrorKind::BrokenPipe, "connection closed mid-upload")
                })?,
            };
            match msg {
                UploadMsg::Data(chunk) => {
                    if chunk.is_empty() {
                        continue; // tolerate empty chunks
                    }
                    self.buf = chunk;
                    self.pos = 0;
                    return Ok(true);
                }
                UploadMsg::End => {
                    self.done = true;
                    return Ok(false);
                }
            }
        }
    }

    /// Confirms the upload ends exactly where the decoder stopped: any
    /// unconsumed bytes are an immediate protocol error.
    fn finish(&mut self) -> Result<(), ServeError> {
        let trailing = |n: usize| {
            Err(ServeError::Protocol(format!(
                "at least {n} bytes after the declared trace"
            )))
        };
        if self.pos < self.buf.len() {
            return trailing(self.buf.len() - self.pos);
        }
        if !self.done && self.next_chunk().map_err(ServeError::Io)? {
            return trailing(self.buf.len());
        }
        Ok(())
    }
}

impl Read for ChannelBody {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.buf.len() && (self.done || !self.next_chunk()?) {
            return Ok(0);
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

// MAX_FRAME_LEN is part of this module's contract with clients chunking
// uploads; referenced here so the doc link stays checked.
const _: () = assert!(MAX_FRAME_LEN as usize > protocol::TRACE_CHUNK);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bounds_and_releases() {
        let q = JobQueue::new(2);
        let never = AtomicBool::new(false);
        assert_eq!(q.acquire(0, None, &never), Acquire::Acquired);
        assert_eq!(q.acquire(0, None, &never), Acquire::Acquired);
        {
            let s = q.state.lock().unwrap();
            assert_eq!(s.permits, 0);
        }
        q.release();
        // Would deadlock if the release was lost.
        assert_eq!(q.acquire(0, None, &never), Acquire::Acquired);
        q.release();
        q.release();
    }

    #[test]
    fn queue_respects_priority_then_arrival_order() {
        let q = Arc::new(JobQueue::new(1));
        let never = AtomicBool::new(false);
        assert_eq!(q.acquire(0, None, &never), Acquire::Acquired);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Low-priority waiter arrives first, high-priority second; the
        // permit must go to the high-priority one.
        for (delay_ms, priority, name) in [(0u64, 1u8, "low"), (50, 9, "high")] {
            let q = Arc::clone(&q);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(delay_ms));
                let never = AtomicBool::new(false);
                assert_eq!(q.acquire(priority, None, &never), Acquire::Acquired);
                order.lock().unwrap().push(name);
                std::thread::sleep(Duration::from_millis(20));
                q.release();
            }));
        }
        // Let both enqueue before freeing the permit.
        std::thread::sleep(Duration::from_millis(150));
        q.release();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec!["high", "low"]);
    }

    #[test]
    fn queue_cancellation_and_deadline_release_waiters() {
        let q = JobQueue::new(1);
        let never = AtomicBool::new(false);
        assert_eq!(q.acquire(0, None, &never), Acquire::Acquired);
        // Pre-set cancel flag: observed before waiting.
        let cancelled = AtomicBool::new(true);
        assert_eq!(q.acquire(0, None, &cancelled), Acquire::Cancelled);
        // Deadline in the past: expires immediately.
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(q.acquire(0, Some(past), &never), Acquire::DeadlineExpired);
        // Neither leaked a waiting entry or a permit.
        assert_eq!(q.queued(), 0);
        q.release();
        assert_eq!(q.acquire(0, None, &never), Acquire::Acquired);
        q.release();
    }

    #[test]
    fn saturation_counts_waiters_only_when_out_of_permits() {
        let q = JobQueue::new(1);
        assert!(!q.saturated(0), "free permit is never saturated");
        let never = AtomicBool::new(false);
        assert_eq!(q.acquire(0, None, &never), Acquire::Acquired);
        assert!(q.saturated(0), "no permit + depth 0 refuses immediately");
        assert!(!q.saturated(1), "depth 1 admits one waiter");
        q.release();
    }

    #[test]
    fn a_finished_job_frees_its_id_before_its_reply_goes_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let writer: ConnWriter = Arc::new(Mutex::new(listener.accept().unwrap().0));
        let pending: PendingMap = Arc::default();
        let (data, _rx) = mpsc::sync_channel(1);
        pending.lock().unwrap().insert(
            0,
            PendingJob {
                data,
                cancel: Arc::default(),
            },
        );
        let replies = Replies {
            writer: Arc::clone(&writer),
            job_id: 0,
            dialect: Dialect::V2,
        };
        // Hold the write half, so the reply cannot go out yet: job 0 must
        // already be free while it waits.
        let held = writer.lock().unwrap();
        std::thread::scope(|scope| {
            let outcome = Ok((false, Arc::new(vec![7u8; 3])));
            let finishing = scope.spawn(|| finish_job(&pending, &replies, false, outcome));
            let deadline = Instant::now() + Duration::from_secs(5);
            while pending.lock().unwrap().contains_key(&0) {
                assert!(
                    Instant::now() < deadline,
                    "job 0 still pending at its reply"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(held);
            finishing.join().unwrap();
        });
        let (frame_tag, payload) = protocol::read_frame(&mut peer).unwrap();
        assert_eq!((frame_tag, payload), (tag::RESULT, vec![0, 7, 7, 7]));
    }

    #[test]
    fn server_binds_ephemeral_port_and_shuts_down() {
        let server = Server::start(ServerConfig::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.cache_stats().hits, 0);
        server.shutdown();
    }
}
