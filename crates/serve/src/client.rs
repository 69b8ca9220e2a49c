//! Client library for the trace-simulation service.
//!
//! A [`PipelinedConnection`] is one persistent connection carrying many
//! tagged jobs at once. Submissions return a [`PendingJob`] immediately; a
//! background reader thread demultiplexes response frames by `job_id` into
//! per-job channels, so jobs complete out of order and the connection
//! never idles waiting for the slowest job. Jobs carry priorities and
//! deadlines, can be cancelled while queued, and surface the server's
//! explicit backpressure as [`ServeError::Busy`].
//!
//! A [`Client`] is an address and a one-shot convenience over the same
//! path: every submission opens a [`PipelinedConnection`], runs one job
//! (start + wait), and drops the connection. Submissions identify their
//! trace by content digest up front, so a server-side cache hit is
//! answered **without uploading the trace at all** — resubmitting a large
//! trace costs one small header frame.
//!
//! Traces can be submitted from memory ([`Client::submit_trace`] /
//! [`Client::submit_encoded`]) or streamed from disk
//! ([`Client::submit_file`], two passes: one to digest, one to upload in
//! bounded chunks — the trace is never loaded whole).

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fpraker_trace::digest::Fnv64;
use fpraker_trace::{codec, Trace};

use crate::protocol::{
    self, read_frame, tag, write_frame, JobKind, JobResult, JobSubmit, ServeError, ServerStats,
    TraceStatsReport, TRACE_CHUNK,
};

/// A server response: the job's result plus whether it was served from the
/// content-addressed cache.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResponse {
    /// `true` when the server replayed a cached result (no simulation, and
    /// — when detected at submission time — no upload either).
    pub cached: bool,
    /// The simulated (or replayed) result.
    pub result: JobResult,
}

/// A trace-statistics job's response: the report plus whether it came
/// from the content-addressed cache.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsResponse {
    /// `true` when the server replayed a cached report.
    pub cached: bool,
    /// The computed (or replayed) statistics.
    pub report: TraceStatsReport,
}

/// A handle on a `fpraker-serve` server: one job per connection.
///
/// ```no_run
/// use fpraker_serve::Client;
/// use fpraker_trace::Trace;
///
/// let client = Client::connect("127.0.0.1:4270").unwrap();
/// let response = client.submit_trace(&Trace::new("m", 0), "fpraker").unwrap();
/// println!("cycles: {}", response.result.cycles);
/// ```
#[derive(Clone, Debug)]
pub struct Client {
    addr: SocketAddr,
    io_timeout: Option<Duration>,
}

impl Client {
    /// Resolves the server address. No connection is made yet — each
    /// request opens its own.
    ///
    /// # Errors
    ///
    /// Fails if `addr` does not resolve to any socket address.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ServeError> {
        Ok(Client {
            addr: resolve(addr)?,
            io_timeout: Some(Duration::from_secs(600)),
        })
    }

    /// Overrides the per-request socket timeout (`None` blocks forever).
    /// The default is 600 s. It bounds each socket operation, not the
    /// job: a submission waits out a queued or long-running job, and fails
    /// when the server closes the connection.
    pub fn io_timeout(mut self, timeout: Option<Duration>) -> Client {
        self.io_timeout = timeout;
        self
    }

    fn open(&self) -> Result<TcpStream, ServeError> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    /// Runs one job on a fresh [`PipelinedConnection`], dropped with the
    /// job's outcome.
    fn one_shot<T>(
        &self,
        job: impl FnOnce(&PipelinedConnection) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        job(&PipelinedConnection::connect_with_timeout(
            self.addr,
            self.io_timeout,
        )?)
    }

    /// Submits an in-memory trace for simulation on the named machine
    /// spec (see `fpraker_sim::machine_names`).
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, a server-side error (unknown
    /// spec, undecodable trace, …) reported as [`ServeError::Remote`], or
    /// [`ServeError::Busy`] when the server's queue is full.
    pub fn submit_trace(&self, trace: &Trace, spec: &str) -> Result<JobResponse, ServeError> {
        let bytes = codec::encode(trace);
        self.submit_encoded(&bytes, spec)
    }

    /// Submits an already-encoded trace (the exact
    /// [`fpraker_trace::codec`] byte stream).
    ///
    /// # Errors
    ///
    /// As [`Client::submit_trace`].
    pub fn submit_encoded(&self, bytes: &[u8], spec: &str) -> Result<JobResponse, ServeError> {
        self.one_shot(|conn| conn.submit_encoded(bytes, spec, JobOptions::default()))
    }

    /// Streams a trace file to the server without loading it: pass one
    /// computes the digest and length, pass two uploads in
    /// [`TRACE_CHUNK`]-byte frames (and only if the server does not
    /// already hold the result).
    ///
    /// # Errors
    ///
    /// As [`Client::submit_trace`], plus file-open/read failures.
    pub fn submit_file<P: AsRef<Path>>(
        &self,
        path: P,
        spec: &str,
    ) -> Result<JobResponse, ServeError> {
        let kind = JobKind::Sim {
            spec: spec.to_string(),
        };
        self.one_shot(|conn| {
            conn.start_job(
                Upload::File(path.as_ref().into()),
                kind,
                JobOptions::default(),
            )?
            .wait()
        })
    }

    /// Submits a **segment-range job**: `bytes` is a self-contained
    /// sub-trace (a fresh header plus a raw op byte-range, as produced by
    /// `fpraker_trace::codec::IndexedReader::extract_range`) covering the
    /// global ops `first_op .. first_op + ops` of a sharded run. The
    /// server re-checks the op count against the declaration; the result
    /// is cached by content digest exactly like [`Client::submit_encoded`],
    /// so re-submitting the same shard — a retry after a worker failure,
    /// or a racing duplicate — is a warm cache hit.
    ///
    /// # Errors
    ///
    /// As [`Client::submit_trace`].
    pub fn submit_range_encoded(
        &self,
        bytes: &[u8],
        spec: &str,
        first_op: u64,
        ops: u64,
    ) -> Result<JobResponse, ServeError> {
        self.one_shot(|conn| {
            conn.submit_range_encoded(bytes, spec, first_op, ops, JobOptions::default())
        })
    }

    /// Submits a **trace-statistics job** over an already-encoded trace:
    /// the server folds the single-pass `TraceStatistics` collector over
    /// the streamed upload and returns the Fig. 1/2/6 counts. Results are
    /// content-cached like simulations — resubmitting the same bytes is
    /// answered without uploading.
    ///
    /// # Errors
    ///
    /// As [`Client::submit_trace`].
    pub fn submit_stats_encoded(&self, bytes: &[u8]) -> Result<StatsResponse, ServeError> {
        self.one_shot(|conn| conn.submit_stats_encoded(bytes))
    }

    /// [`Client::submit_stats_encoded`] for a trace file, streamed in two
    /// passes like [`Client::submit_file`].
    ///
    /// # Errors
    ///
    /// As [`Client::submit_file`].
    pub fn submit_stats_file<P: AsRef<Path>>(&self, path: P) -> Result<StatsResponse, ServeError> {
        self.one_shot(|conn| {
            conn.start_job(
                Upload::File(path.as_ref().into()),
                JobKind::Stats,
                JobOptions::default(),
            )?
            .wait_stats()
        })
    }

    /// Fetches the server's job and cache counters.
    ///
    /// # Errors
    ///
    /// I/O failures or protocol violations.
    pub fn stats(&self) -> Result<ServerStats, ServeError> {
        let mut stream = self.open()?;
        write_frame(&mut stream, tag::STATS, &protocol::encode_stats_request())?;
        stream.flush()?;
        let (frame_tag, payload) = read_frame(&mut stream)?;
        match frame_tag {
            tag::STATS_RESULT => ServerStats::decode(&payload),
            other => Err(failure_response(other, payload)),
        }
    }

    /// Fetches the server's runtime telemetry as Prometheus-style
    /// exposition text: the [`ServerStats`] counters plus every metric
    /// the server process has registered (request latency histograms,
    /// queue gauges, stage timings, ...).
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, or a non-UTF-8 body.
    pub fn metrics(&self) -> Result<String, ServeError> {
        let mut stream = self.open()?;
        write_frame(
            &mut stream,
            tag::METRICS,
            &protocol::encode_metrics_request(),
        )?;
        stream.flush()?;
        let (frame_tag, payload) = read_frame(&mut stream)?;
        match frame_tag {
            tag::METRICS_RESULT => String::from_utf8(payload)
                .map_err(|_| ServeError::Protocol("metrics body is not UTF-8".into())),
            other => Err(failure_response(other, payload)),
        }
    }
}

/// Turns a non-success response frame into the matching error: a server
/// `ERROR` frame becomes [`ServeError::Remote`], anything else is a
/// protocol violation.
fn failure_response(frame_tag: u8, payload: Vec<u8>) -> ServeError {
    if frame_tag == tag::ERROR {
        ServeError::Remote(String::from_utf8_lossy(&payload).into_owned())
    } else {
        ServeError::Protocol(format!("unexpected response tag {frame_tag:#04x}"))
    }
}

/// Per-job scheduling options for tagged (v3) submissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobOptions {
    /// Scheduling priority: higher runs sooner, ties run in submission
    /// order. The default (100) matches what the server assumes for
    /// untagged v2 jobs, so tagged and legacy traffic interleave fairly
    /// unless a job opts to jump (or yield) the line.
    pub priority: u8,
    /// Queueing deadline in milliseconds from server receipt; `0` means
    /// none. A job still *queued* when it lapses fails with
    /// [`ServeError::DeadlineExpired`]; a running job always finishes.
    pub deadline_ms: u32,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            priority: crate::server::DEFAULT_PRIORITY,
            deadline_ms: 0,
        }
    }
}

/// A demultiplexed response event for one job, routed by the reader
/// thread.
enum JobEvent {
    NeedTrace,
    Result { cached: bool, payload: Vec<u8> },
    StatsResult { cached: bool, payload: Vec<u8> },
    Busy(u32),
    Failed { code: u8, message: String },
    Disconnected(String),
}

/// Routing table between the reader thread and in-flight jobs.
struct JobTable {
    map: HashMap<u64, mpsc::Sender<JobEvent>>,
    /// Once set, the connection is unusable and every new submission
    /// fails fast with this message.
    dead: Option<String>,
}

struct ConnShared {
    writer: Mutex<TcpStream>,
    jobs: Mutex<JobTable>,
    next_id: AtomicU64,
}

impl ConnShared {
    /// Routes one event to its job (events for finished jobs are stale
    /// and dropped).
    fn route(&self, job_id: u64, event: JobEvent) {
        let sender = self.jobs.lock().unwrap().map.get(&job_id).cloned();
        if let Some(sender) = sender {
            let _ = sender.send(event);
        }
    }

    /// Marks the connection dead and tells every in-flight job.
    fn poison(&self, message: String) {
        let mut jobs = self.jobs.lock().unwrap();
        jobs.dead.get_or_insert_with(|| message.clone());
        for sender in jobs.map.values() {
            let _ = sender.send(JobEvent::Disconnected(message.clone()));
        }
        jobs.map.clear();
    }
}

/// One persistent v3 connection multiplexing many jobs.
///
/// Submissions ([`PipelinedConnection::start_encoded`] and friends)
/// write the tagged header and return a [`PendingJob`] immediately;
/// [`PendingJob::wait`] drives the upload (if the server asks) and
/// blocks for that job's own result while other jobs on the same
/// connection proceed. The blocking convenience wrappers
/// ([`PipelinedConnection::submit_encoded`], …) are start + wait.
///
/// The connection is `Sync`: submissions and waits may happen from many
/// threads at once, frames are serialized internally.
pub struct PipelinedConnection {
    shared: Arc<ConnShared>,
    /// The reader half, kept to force a shutdown on drop.
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
}

impl PipelinedConnection {
    /// Opens the connection and starts the demultiplexing reader thread.
    ///
    /// # Errors
    ///
    /// Address resolution or connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<PipelinedConnection, ServeError> {
        Self::connect_with_timeout(addr, Some(Duration::from_secs(600)))
    }

    /// [`PipelinedConnection::connect`] with an explicit socket timeout
    /// (`None` blocks forever). The timeout bounds individual socket
    /// operations, not job lifetimes: the reader thread tolerates idle
    /// timeouts between frames because a pipelined connection is
    /// legitimately quiet while all jobs are queued server-side.
    ///
    /// # Errors
    ///
    /// As [`PipelinedConnection::connect`].
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        io_timeout: Option<Duration>,
    ) -> Result<PipelinedConnection, ServeError> {
        let stream = TcpStream::connect(resolve(addr)?)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        stream.set_nodelay(true).ok();
        let shared = Arc::new(ConnShared {
            writer: Mutex::new(stream.try_clone()?),
            jobs: Mutex::new(JobTable {
                map: HashMap::new(),
                dead: None,
            }),
            next_id: AtomicU64::new(1),
        });
        let reader_stream = stream.try_clone()?;
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::spawn(move || reader_loop(reader_stream, &reader_shared));
        Ok(PipelinedConnection {
            shared,
            stream,
            reader: Some(reader),
        })
    }

    /// Starts a tagged simulation job over already-encoded trace bytes.
    /// Returns as soon as the header frame is written; pair with
    /// [`PendingJob::wait`].
    ///
    /// # Errors
    ///
    /// I/O failures or a dead connection.
    pub fn start_encoded<'a>(
        &self,
        bytes: &'a [u8],
        spec: &str,
        options: JobOptions,
    ) -> Result<PendingJob<'a>, ServeError> {
        self.start_job(
            Upload::Bytes(bytes),
            JobKind::Sim {
                spec: spec.to_string(),
            },
            options,
        )
    }

    /// Starts a tagged segment-range job (see
    /// [`Client::submit_range_encoded`] for range semantics).
    ///
    /// # Errors
    ///
    /// As [`PipelinedConnection::start_encoded`].
    pub fn start_range_encoded<'a>(
        &self,
        bytes: &'a [u8],
        spec: &str,
        first_op: u64,
        ops: u64,
        options: JobOptions,
    ) -> Result<PendingJob<'a>, ServeError> {
        self.start_job(
            Upload::Bytes(bytes),
            JobKind::Range {
                spec: spec.to_string(),
                first_op,
                ops,
            },
            options,
        )
    }

    /// Starts a tagged trace-statistics job.
    ///
    /// # Errors
    ///
    /// As [`PipelinedConnection::start_encoded`].
    pub fn start_stats_encoded<'a>(
        &self,
        bytes: &'a [u8],
        options: JobOptions,
    ) -> Result<PendingJob<'a>, ServeError> {
        self.start_job(Upload::Bytes(bytes), JobKind::Stats, options)
    }

    /// Blocking tagged simulation: start + wait.
    ///
    /// # Errors
    ///
    /// As [`Client::submit_encoded`], plus [`ServeError::Busy`] under
    /// server backpressure.
    pub fn submit_encoded(
        &self,
        bytes: &[u8],
        spec: &str,
        options: JobOptions,
    ) -> Result<JobResponse, ServeError> {
        self.start_encoded(bytes, spec, options)?.wait()
    }

    /// Blocking tagged range submission: start + wait.
    ///
    /// # Errors
    ///
    /// As [`PipelinedConnection::submit_encoded`].
    pub fn submit_range_encoded(
        &self,
        bytes: &[u8],
        spec: &str,
        first_op: u64,
        ops: u64,
        options: JobOptions,
    ) -> Result<JobResponse, ServeError> {
        self.start_range_encoded(bytes, spec, first_op, ops, options)?
            .wait()
    }

    /// Blocking tagged statistics submission: start + wait.
    ///
    /// # Errors
    ///
    /// As [`PipelinedConnection::submit_encoded`].
    pub fn submit_stats_encoded(&self, bytes: &[u8]) -> Result<StatsResponse, ServeError> {
        self.start_stats_encoded(bytes, JobOptions::default())?
            .wait_stats()
    }

    fn start_job<'a>(
        &self,
        upload: Upload<'a>,
        kind: JobKind,
        options: JobOptions,
    ) -> Result<PendingJob<'a>, ServeError> {
        if let JobKind::Sim { spec } | JobKind::Range { spec, .. } = &kind {
            if u16::try_from(spec.len()).is_err() {
                return Err(ServeError::Protocol(format!(
                    "machine spec of {} bytes exceeds the u16 length prefix",
                    spec.len()
                )));
            }
        }
        let is_stats = matches!(kind, JobKind::Stats);
        let (digest, trace_bytes) = upload.measure()?;
        let job_id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let submit = JobSubmit {
            job_id,
            priority: options.priority,
            deadline_ms: options.deadline_ms,
            digest,
            trace_bytes,
            kind,
        };
        let (tx, rx) = mpsc::channel();
        {
            let mut jobs = self.shared.jobs.lock().unwrap();
            if let Some(reason) = &jobs.dead {
                return Err(ServeError::Protocol(format!("connection lost: {reason}")));
            }
            jobs.map.insert(job_id, tx);
        }
        // Register-then-write: a response can race back before this
        // thread resumes, and the reader must already know the id.
        let written = (|| -> Result<(), ServeError> {
            let mut w = self.shared.writer.lock().unwrap();
            write_frame(&mut *w, tag::SUBMIT_JOB, &submit.encode())?;
            w.flush()?;
            Ok(())
        })();
        if let Err(e) = written {
            self.shared.jobs.lock().unwrap().map.remove(&job_id);
            return Err(e);
        }
        Ok(PendingJob {
            shared: Arc::clone(&self.shared),
            job_id,
            rx,
            upload,
            is_stats,
        })
    }

    /// Requests cancellation of a job by id (see [`PendingJob::id`]).
    /// Queued jobs die with [`ServeError::Cancelled`]; jobs already
    /// running (or finished) are unaffected — cancellation is advisory,
    /// the caller still waits for the job's actual outcome.
    ///
    /// # Errors
    ///
    /// I/O failures writing the frame.
    pub fn cancel(&self, job_id: u64) -> Result<(), ServeError> {
        let mut w = self.shared.writer.lock().unwrap();
        write_frame(&mut *w, tag::CANCEL, &protocol::encode_cancel(job_id))?;
        w.flush()?;
        Ok(())
    }
}

impl Drop for PipelinedConnection {
    fn drop(&mut self) {
        // Unblock and join the reader; it poisons any stragglers.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for PipelinedConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedConnection")
            .field("peer", &self.stream.peer_addr().ok())
            .finish_non_exhaustive()
    }
}

/// The demultiplexer: reads response frames off the shared connection
/// and routes each to its job's channel by the `job_id` prefix.
fn reader_loop(mut stream: TcpStream, shared: &ConnShared) {
    loop {
        let (frame_tag, payload) = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(ServeError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle between frames: all jobs are queued or running
                // server-side. Keep listening.
                continue;
            }
            Err(e) => {
                shared.poison(e.to_string());
                return;
            }
        };
        let routed = (|| -> Result<(), ServeError> {
            match frame_tag {
                tag::JOB_NEED_TRACE => {
                    let (job_id, _) = protocol::split_job_payload(&payload)?;
                    shared.route(job_id, JobEvent::NeedTrace);
                }
                tag::JOB_RESULT | tag::JOB_STATS_RESULT => {
                    let (job_id, rest) = protocol::split_job_payload(&payload)?;
                    let (&cached, result_payload) = rest
                        .split_first()
                        .ok_or_else(|| ServeError::Protocol("empty tagged result".into()))?;
                    let event = if frame_tag == tag::JOB_RESULT {
                        JobEvent::Result {
                            cached: cached != 0,
                            payload: result_payload.to_vec(),
                        }
                    } else {
                        JobEvent::StatsResult {
                            cached: cached != 0,
                            payload: result_payload.to_vec(),
                        }
                    };
                    shared.route(job_id, event);
                }
                tag::BUSY => {
                    let (job_id, retry_after_ms) = protocol::decode_busy(&payload)?;
                    shared.route(job_id, JobEvent::Busy(retry_after_ms));
                }
                tag::JOB_ERROR => {
                    let (job_id, code, message) = protocol::decode_job_error(&payload)?;
                    shared.route(job_id, JobEvent::Failed { code, message });
                }
                tag::ERROR => {
                    // Connection-level failure: the server closes after
                    // this, so every job dies with it.
                    return Err(ServeError::Remote(
                        String::from_utf8_lossy(&payload).into_owned(),
                    ));
                }
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected response tag {other:#04x} on a pipelined connection"
                    )));
                }
            }
            Ok(())
        })();
        if let Err(e) = routed {
            shared.poison(e.to_string());
            return;
        }
    }
}

/// A tagged job in flight on a [`PipelinedConnection`]. Waiting on one
/// job never blocks the others; dropping the handle abandons the job
/// (any late response frames are discarded).
pub struct PendingJob<'a> {
    shared: Arc<ConnShared>,
    job_id: u64,
    rx: mpsc::Receiver<JobEvent>,
    upload: Upload<'a>,
    is_stats: bool,
}

/// The trace a job uploads when the server asks for it.
enum Upload<'a> {
    /// Already-encoded bytes, borrowed for the job's lifetime.
    Bytes(&'a [u8]),
    /// A trace file: digested in one pass when the job starts, re-read in
    /// [`TRACE_CHUNK`] pieces if the server asks for it, never loaded
    /// whole.
    File(PathBuf),
}

impl Upload<'_> {
    /// The `(digest, length)` the submission header declares.
    fn measure(&self) -> Result<(u64, u64), ServeError> {
        let path = match self {
            Upload::Bytes(bytes) => return Ok((Fnv64::digest_of(bytes), bytes.len() as u64)),
            Upload::File(path) => path,
        };
        let mut digest = Fnv64::new();
        let mut len: u64 = 0;
        for_each_chunk(path, |chunk| {
            digest.update(chunk);
            len += chunk.len() as u64;
            Ok(())
        })?;
        Ok((digest.value(), len))
    }
}

/// Feeds a file to `f` in [`TRACE_CHUNK`]-byte pieces.
fn for_each_chunk(
    path: &Path,
    mut f: impl FnMut(&[u8]) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut chunk = vec![0u8; TRACE_CHUNK];
    loop {
        let n = reader.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        f(&chunk[..n])?;
    }
}

/// Resolves an address to its first socket address.
fn resolve<A: ToSocketAddrs>(addr: A) -> Result<SocketAddr, ServeError> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| ServeError::Protocol("address resolved to nothing".into()))
}

impl PendingJob<'_> {
    /// The job's wire id (for [`PipelinedConnection::cancel`]).
    pub fn id(&self) -> u64 {
        self.job_id
    }

    /// Requests cancellation of this job (advisory — see
    /// [`PipelinedConnection::cancel`]).
    ///
    /// # Errors
    ///
    /// I/O failures writing the frame.
    pub fn cancel(&self) -> Result<(), ServeError> {
        let mut w = self.shared.writer.lock().unwrap();
        write_frame(&mut *w, tag::CANCEL, &protocol::encode_cancel(self.job_id))?;
        w.flush()?;
        Ok(())
    }

    /// Blocks for a simulation or range job's result, uploading the trace
    /// if the server asks for it.
    ///
    /// # Errors
    ///
    /// As [`Client::submit_encoded`], plus [`ServeError::Busy`] /
    /// [`ServeError::Cancelled`] / [`ServeError::DeadlineExpired`] for
    /// the tagged-job outcomes.
    pub fn wait(self) -> Result<JobResponse, ServeError> {
        let (cached, payload) = self.wait_raw()?;
        Ok(JobResponse {
            cached,
            result: protocol::decode_result(&payload)?,
        })
    }

    /// Blocks for a statistics job's report.
    ///
    /// # Errors
    ///
    /// As [`PendingJob::wait`].
    pub fn wait_stats(self) -> Result<StatsResponse, ServeError> {
        let (cached, payload) = self.wait_raw()?;
        Ok(StatsResponse {
            cached,
            report: TraceStatsReport::decode(&payload)?,
        })
    }

    fn wait_raw(&self) -> Result<(bool, Vec<u8>), ServeError> {
        loop {
            let event = self.rx.recv().map_err(|_| {
                let reason = self
                    .shared
                    .jobs
                    .lock()
                    .unwrap()
                    .dead
                    .clone()
                    .unwrap_or_else(|| "reader thread exited".into());
                ServeError::Protocol(format!("connection lost: {reason}"))
            })?;
            match event {
                JobEvent::NeedTrace => self.upload()?,
                JobEvent::Result { cached, payload } => {
                    if self.is_stats {
                        return Err(ServeError::Protocol(
                            "simulation result for a statistics job".into(),
                        ));
                    }
                    return Ok((cached, payload));
                }
                JobEvent::StatsResult { cached, payload } => {
                    if !self.is_stats {
                        return Err(ServeError::Protocol(
                            "statistics result for a simulation job".into(),
                        ));
                    }
                    return Ok((cached, payload));
                }
                JobEvent::Busy(retry_after_ms) => {
                    return Err(ServeError::Busy { retry_after_ms });
                }
                JobEvent::Failed { code, message } => {
                    return Err(protocol::job_error_to_serve_error(code, message));
                }
                JobEvent::Disconnected(reason) => {
                    return Err(ServeError::Protocol(format!("connection lost: {reason}")));
                }
            }
        }
    }

    /// Uploads the trace as id-prefixed `JOB_DATA` frames. The writer
    /// lock is taken per frame, not for the whole upload, so concurrent
    /// jobs' frames interleave on the wire — the server reassembles each
    /// job's stream by id.
    fn upload(&self) -> Result<(), ServeError> {
        let send = |chunk: &[u8]| {
            let mut w = self.shared.writer.lock().unwrap();
            write_frame(
                &mut *w,
                tag::JOB_DATA,
                &protocol::encode_job_payload(self.job_id, chunk),
            )
        };
        match &self.upload {
            Upload::Bytes(bytes) => bytes.chunks(TRACE_CHUNK).try_for_each(send)?,
            Upload::File(path) => for_each_chunk(path, send)?,
        }
        let mut w = self.shared.writer.lock().unwrap();
        write_frame(
            &mut *w,
            tag::JOB_DATA_END,
            &protocol::encode_job_payload(self.job_id, &[]),
        )?;
        w.flush()?;
        Ok(())
    }
}

impl Drop for PendingJob<'_> {
    fn drop(&mut self) {
        self.shared.jobs.lock().unwrap().map.remove(&self.job_id);
    }
}

/// Start-plus-wait with bounded retries under server backpressure: on
/// [`ServeError::Busy`] the submission sleeps for the server's
/// `retry_after_ms` hint and tries again, up to `max_retries` times.
///
/// # Errors
///
/// As [`PipelinedConnection::submit_encoded`]; the final
/// [`ServeError::Busy`] is returned when retries are exhausted.
pub fn submit_with_retry(
    conn: &PipelinedConnection,
    bytes: &[u8],
    spec: &str,
    options: JobOptions,
    max_retries: u32,
) -> Result<JobResponse, ServeError> {
    let mut attempt = 0;
    loop {
        match conn.submit_encoded(bytes, spec, options) {
            Err(ServeError::Busy { retry_after_ms }) if attempt < max_retries => {
                attempt += 1;
                std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms)));
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_resolves_and_sets_timeout() {
        let client = Client::connect("127.0.0.1:1").unwrap().io_timeout(None);
        assert_eq!(client.addr.port(), 1);
        assert!(client.io_timeout.is_none());
    }

    #[test]
    fn connect_rejects_unresolvable() {
        // An empty iterator of addresses.
        let empty: &[SocketAddr] = &[];
        assert!(Client::connect(empty).is_err());
    }
}
