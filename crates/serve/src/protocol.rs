//! The length-framed wire protocol between `fpraker-serve` clients and
//! the server.
//!
//! Every message is one **frame**: a tag byte, a `u32` little-endian
//! payload length, then the payload. Frames are capped at
//! [`MAX_FRAME_LEN`] bytes so a corrupt or hostile length prefix cannot
//! force a huge allocation; trace uploads of any size are split across
//! many [`tag::TRACE_DATA`] frames instead. The trace payload itself is
//! the unmodified [`fpraker_trace::codec`] byte stream — the server feeds
//! the reassembled frames straight into an incremental
//! [`fpraker_trace::codec::Reader`], so there is exactly one trace codec
//! end to end.
//!
//! A job is one half-duplex exchange on a fresh connection:
//!
//! ```text
//! client                                server
//!   ── SUBMIT {spec, digest, len} ──▶
//!                                     (cache hit)
//!   ◀── RESULT {cached=1, payload} ──
//!                                     (cache miss)
//!   ◀── NEED_TRACE ─────────────────
//!   ── TRACE_DATA × n ──────────────▶  (streamed into the simulator)
//!   ── TRACE_END ───────────────────▶
//!   ◀── RESULT {cached=0, payload} ──
//! ```
//!
//! A [`tag::STATS`] request (instead of `SUBMIT`) returns server counters.
//! Any violation is answered with a [`tag::ERROR`] frame carrying a UTF-8
//! message, after which the server closes the connection — but keeps
//! accepting new ones.
//!
//! # Protocol v3: tagged frames and pipelining
//!
//! Version 3 multiplexes many jobs over one connection. A
//! [`tag::SUBMIT_JOB`] frame carries a client-chosen `job_id` plus a
//! priority and an optional deadline; every server response for that job
//! ([`tag::JOB_NEED_TRACE`], [`tag::JOB_RESULT`], [`tag::JOB_ERROR`],
//! [`tag::BUSY`]) echoes the id back, so responses may arrive in any
//! order and a reader thread on the client demuxes them into per-job
//! channels:
//!
//! ```text
//! client                                      server
//!   ── SUBMIT_JOB {id=1, …} ───────▶
//!   ── SUBMIT_JOB {id=2, …} ───────▶
//!   ◀── JOB_RESULT {id=2, cached=1} ──        (id 2 was warm)
//!   ◀── JOB_NEED_TRACE {id=1} ──────
//!   ── JOB_DATA {id=1} × n ────────▶
//!   ── JOB_DATA_END {id=1} ────────▶
//!   ── SUBMIT_JOB {id=3, …} ───────▶          (pipelined behind the upload)
//!   ◀── BUSY {id=3, retry_after_ms} ──        (pool saturated past the queue depth)
//!   ◀── JOB_RESULT {id=1, cached=0} ──
//! ```
//!
//! Upload chunks are tagged too ([`tag::JOB_DATA`]/[`tag::JOB_DATA_END`]
//! carry the `job_id`), so uploads for different jobs may interleave.
//! [`tag::CANCEL`] drops a *queued* job (answered with a
//! [`tag::JOB_ERROR`] carrying [`job_error::CANCELLED`]) and is a no-op
//! for a running or unknown one. A job whose deadline lapses while
//! queued is answered with [`job_error::DEADLINE`]. Untagged v2 frames
//! remain valid on the same port, so v2 clients keep working: the server
//! runs a v2 submission as tagged job 0 and frames its replies in the v2
//! dialect above.

use std::error::Error;
use std::fmt;
use std::io;
use std::io::{Read, Write};

use fpraker_energy::{EnergyModel, EventCounts};
use fpraker_sim::RunResult;
use fpraker_trace::{DecodeError, Phase};

/// Magic bytes opening every [`tag::SUBMIT`]/[`tag::STATS`] payload, so
/// the server can reject non-protocol traffic with a clear error.
pub const PROTOCOL_MAGIC: &[u8; 4] = b"FPRS";
/// Wire protocol version. Version 2 added the segment-range submit
/// ([`tag::SUBMIT_RANGE`]) and per-op [`EventCounts`] in result payloads
/// (what lets a shard coordinator re-derive total energy from integer
/// sums instead of adding per-shard floats). Version 3 added tagged
/// frames: job ids, priorities, deadlines, cancellation and explicit
/// `BUSY` backpressure, so one connection can carry many jobs in flight.
pub const PROTOCOL_VERSION: u8 = 3;
/// The oldest protocol version the server still accepts. Untagged v2
/// frames are served as tagged job 0, and the v2-dialect encoders
/// below keep stamping this version so their requests stay valid against
/// v2 servers too.
pub const LEGACY_PROTOCOL_VERSION: u8 = 2;
/// Hard cap on a single frame's payload (4 MiB). Larger uploads are
/// chunked; a length prefix above this is a protocol error, mirroring the
/// trace codec's bounded-allocation discipline.
pub const MAX_FRAME_LEN: u32 = 4 << 20;
/// Chunk size clients use when streaming trace bytes (64 KiB).
pub const TRACE_CHUNK: usize = 64 << 10;

/// Frame tags. Client→server tags have the high bit clear, server→client
/// tags have it set.
pub mod tag {
    /// Client→server: job submission header (spec, digest, byte length).
    pub const SUBMIT: u8 = 0x01;
    /// Client→server: a chunk of the trace's codec byte stream.
    pub const TRACE_DATA: u8 = 0x02;
    /// Client→server: end of the trace byte stream (empty payload).
    pub const TRACE_END: u8 = 0x03;
    /// Client→server: server-counters request (empty payload after magic).
    pub const STATS: u8 = 0x04;
    /// Client→server: trace-statistics job submission (digest, byte
    /// length) — the upload handshake of [`SUBMIT`] — but
    /// the server folds `fpraker_trace::stats::TraceStatistics` over the
    /// stream instead of simulating it.
    pub const SUBMIT_STATS: u8 = 0x05;
    /// Client→server: segment-range job submission — the upload handshake
    /// of [`SUBMIT`], but the payload the client streams is a
    /// self-contained **sub-trace** (a fresh header plus a raw byte-range
    /// of ops extracted from an indexed trace), and the header declares
    /// which global op range it covers so the server can cross-check the
    /// decoded op count. Cache-keyed by content digest exactly like
    /// [`SUBMIT`], so a retried shard is a warm cache hit.
    pub const SUBMIT_RANGE: u8 = 0x06;
    /// Client→server: telemetry-metrics request (empty payload after
    /// magic). Answered with [`METRICS_RESULT`].
    pub const METRICS: u8 = 0x07;
    /// Server→client: cache miss — stream the trace now (empty payload).
    pub const NEED_TRACE: u8 = 0x81;
    /// Server→client: the job's result payload, prefixed by a cached flag.
    pub const RESULT: u8 = 0x82;
    /// Server→client: UTF-8 error message; the connection closes after.
    pub const ERROR: u8 = 0x83;
    /// Server→client: server counters.
    pub const STATS_RESULT: u8 = 0x84;
    /// Server→client: a trace-statistics job's result payload, prefixed
    /// by a cached flag.
    pub const TRACE_STATS_RESULT: u8 = 0x85;
    /// Server→client: Prometheus-style UTF-8 metrics text (the server's
    /// runtime telemetry plus its [`super::ServerStats`] counters).
    pub const METRICS_RESULT: u8 = 0x86;
    /// Client→server (v3): tagged job submission — a client-chosen
    /// `job_id`, a priority, an optional deadline and the job kind
    /// (simulate / segment-range / trace-statistics). Decoded by
    /// [`super::JobSubmit::decode`].
    pub const SUBMIT_JOB: u8 = 0x10;
    /// Client→server (v3): a chunk of one job's trace byte stream,
    /// prefixed by the `job_id` it belongs to.
    pub const JOB_DATA: u8 = 0x12;
    /// Client→server (v3): end of one job's trace byte stream (payload is
    /// the `job_id` alone).
    pub const JOB_DATA_END: u8 = 0x13;
    /// Client→server (v3): cancel a queued job. Drops it from the queue
    /// (the job answers with [`super::job_error::CANCELLED`]); a no-op
    /// for running or unknown jobs.
    pub const CANCEL: u8 = 0x14;
    /// Server→client (v3): one job's result payload — `job_id`, cached
    /// flag, then the same result payload as [`RESULT`].
    pub const JOB_RESULT: u8 = 0x90;
    /// Server→client (v3): one trace-statistics job's result payload —
    /// `job_id`, cached flag, then the same payload as
    /// [`TRACE_STATS_RESULT`].
    pub const JOB_STATS_RESULT: u8 = 0x91;
    /// Server→client (v3): cache miss for one job — stream its trace now
    /// (payload is the `job_id`).
    pub const JOB_NEED_TRACE: u8 = 0x92;
    /// Server→client (v3): one job failed — `job_id`, a
    /// [`super::job_error`] code byte, then a UTF-8 message. Only that
    /// job dies; the connection and its other in-flight jobs are
    /// unaffected.
    pub const JOB_ERROR: u8 = 0x93;
    /// Server→client (v3): explicit backpressure — the job pool is
    /// saturated past the configured queue depth, retry after the carried
    /// hint (`job_id` + `retry_after_ms`). The job was not queued.
    pub const BUSY: u8 = 0x94;
}

/// Error codes carried by a [`tag::JOB_ERROR`] frame, so clients can
/// distinguish *why* a job died without parsing the message text.
pub mod job_error {
    /// The job itself failed (bad spec, digest mismatch, corrupt trace…).
    pub const GENERIC: u8 = 0;
    /// The job was cancelled by a [`super::tag::CANCEL`] frame while
    /// still queued.
    pub const CANCELLED: u8 = 1;
    /// The job's deadline lapsed before it reached the front of the
    /// queue.
    pub const DEADLINE: u8 = 2;
}

/// Everything that can go wrong on either side of the protocol.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (includes mid-upload disconnects).
    Io(io::Error),
    /// The peer violated the protocol (bad tag, oversized frame, …).
    Protocol(String),
    /// The server answered with an [`tag::ERROR`] frame.
    Remote(String),
    /// The uploaded trace failed to decode.
    Trace(DecodeError),
    /// The server answered [`tag::BUSY`]: the job pool is saturated past
    /// its queue depth. Retry after the carried hint.
    Busy {
        /// Server's suggested wait before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// The job was cancelled while queued ([`job_error::CANCELLED`]).
    Cancelled,
    /// The job's deadline lapsed before it ran ([`job_error::DEADLINE`]).
    DeadlineExpired,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Remote(m) => write!(f, "server error: {m}"),
            ServeError::Trace(e) => write!(f, "trace error: {e}"),
            ServeError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms} ms")
            }
            ServeError::Cancelled => write!(f, "job cancelled while queued"),
            ServeError::DeadlineExpired => write!(f, "job deadline expired while queued"),
        }
    }
}

impl Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> Self {
        ServeError::Trace(e)
    }
}

/// Writes one frame: tag, `u32` length, payload.
///
/// # Errors
///
/// Rejects payloads above [`MAX_FRAME_LEN`] (callers chunk instead);
/// otherwise propagates I/O errors.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<(), ServeError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| ServeError::Protocol(format!("frame of {} bytes", payload.len())))?;
    w.write_all(&[tag])?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame, enforcing [`MAX_FRAME_LEN`] *before* allocating.
///
/// # Errors
///
/// `Protocol` on an oversized length prefix, `Io` on socket failures
/// (including a peer that disconnected mid-frame).
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), ServeError> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let tag = head[0];
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::Protocol(format!(
            "length prefix {len} exceeds the {MAX_FRAME_LEN}-byte frame cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok((tag, payload))
}

/// A parsed [`tag::SUBMIT`] payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Submit {
    /// Machine spec name, resolved through `fpraker_sim::resolve_machine`.
    pub spec: String,
    /// FNV-1a content digest of the trace's encoded bytes
    /// ([`fpraker_trace::digest`]).
    pub digest: u64,
    /// Exact length of the encoded trace in bytes.
    pub trace_bytes: u64,
}

impl Submit {
    /// Serializes the submission header.
    ///
    /// # Panics
    ///
    /// Panics if the spec name exceeds the u16 length prefix (65535
    /// bytes) — silently wrapping the length would corrupt the payload.
    /// The client library validates spec names before encoding, so
    /// library users never hit this.
    pub fn encode(&self) -> Vec<u8> {
        u16::try_from(self.spec.len()).expect("spec name exceeds the u16 length prefix");
        let mut out = Vec::with_capacity(4 + 1 + 8 + 8 + 2 + self.spec.len());
        out.extend_from_slice(PROTOCOL_MAGIC);
        out.push(LEGACY_PROTOCOL_VERSION);
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&self.trace_bytes.to_le_bytes());
        out.extend_from_slice(&(self.spec.len() as u16).to_le_bytes());
        out.extend_from_slice(self.spec.as_bytes());
        out
    }

    /// Parses a submission header, validating magic and version.
    ///
    /// # Errors
    ///
    /// `Protocol` on bad magic, unsupported version, or a malformed
    /// payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        check_preamble(&mut c)?;
        let digest = c.u64()?;
        let trace_bytes = c.u64()?;
        let spec = c.string()?;
        c.finish()?;
        Ok(Submit {
            spec,
            digest,
            trace_bytes,
        })
    }
}

/// A parsed [`tag::SUBMIT_RANGE`] payload: a [`Submit`] plus the global
/// op range the uploaded sub-trace covers. The range does not enter the
/// cache key (content digest + spec already identify the work — identical
/// shard bytes share a cache entry wherever they sit in a trace); it lets
/// the server cross-check that the sub-trace really carries `ops` ops and
/// lets the coordinator label the partial result for the ordered merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeSubmit {
    /// Machine spec name, resolved through `fpraker_sim::resolve_machine`.
    pub spec: String,
    /// FNV-1a content digest of the **sub-trace's** encoded bytes.
    pub digest: u64,
    /// Exact length of the encoded sub-trace in bytes.
    pub trace_bytes: u64,
    /// Global index of the first op in the range.
    pub first_op: u64,
    /// Number of ops in the range.
    pub ops: u64,
}

impl RangeSubmit {
    /// Serializes the submission header.
    ///
    /// # Panics
    ///
    /// Panics if the spec name exceeds the u16 length prefix, like
    /// [`Submit::encode`].
    pub fn encode(&self) -> Vec<u8> {
        u16::try_from(self.spec.len()).expect("spec name exceeds the u16 length prefix");
        let mut out = Vec::with_capacity(4 + 1 + 8 + 8 + 8 + 8 + 2 + self.spec.len());
        out.extend_from_slice(PROTOCOL_MAGIC);
        out.push(LEGACY_PROTOCOL_VERSION);
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&self.trace_bytes.to_le_bytes());
        out.extend_from_slice(&self.first_op.to_le_bytes());
        out.extend_from_slice(&self.ops.to_le_bytes());
        out.extend_from_slice(&(self.spec.len() as u16).to_le_bytes());
        out.extend_from_slice(self.spec.as_bytes());
        out
    }

    /// Parses a submission header, validating magic and version.
    ///
    /// # Errors
    ///
    /// `Protocol` on bad magic, unsupported version, or a malformed
    /// payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        check_preamble(&mut c)?;
        let digest = c.u64()?;
        let trace_bytes = c.u64()?;
        let first_op = c.u64()?;
        let ops = c.u64()?;
        let spec = c.string()?;
        c.finish()?;
        Ok(RangeSubmit {
            spec,
            digest,
            trace_bytes,
            first_op,
            ops,
        })
    }
}

/// A parsed [`tag::SUBMIT_STATS`] payload: a job identified by content
/// alone (no machine spec — statistics are a property of the trace).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSubmit {
    /// FNV-1a content digest of the trace's encoded bytes.
    pub digest: u64,
    /// Exact length of the encoded trace in bytes.
    pub trace_bytes: u64,
}

impl StatsSubmit {
    /// Serializes the submission header.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 1 + 8 + 8);
        out.extend_from_slice(PROTOCOL_MAGIC);
        out.push(LEGACY_PROTOCOL_VERSION);
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&self.trace_bytes.to_le_bytes());
        out
    }

    /// Parses a submission header, validating magic and version.
    ///
    /// # Errors
    ///
    /// `Protocol` on bad magic, unsupported version, or a malformed
    /// payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        check_preamble(&mut c)?;
        let digest = c.u64()?;
        let trace_bytes = c.u64()?;
        c.finish()?;
        Ok(StatsSubmit {
            digest,
            trace_bytes,
        })
    }
}

/// What a v3 tagged job asks the server to do. The three kinds mirror the
/// untagged [`Submit`]/[`RangeSubmit`]/[`StatsSubmit`] headers — same
/// fields, same cache keys — so a tagged job and its untagged twin share
/// a cache entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Full-trace simulation (the tagged [`Submit`]).
    Sim {
        /// Machine spec name, resolved through
        /// `fpraker_sim::resolve_machine`.
        spec: String,
    },
    /// Segment-range simulation (the tagged [`RangeSubmit`]).
    Range {
        /// Machine spec name.
        spec: String,
        /// Global index of the first op in the range.
        first_op: u64,
        /// Number of ops in the range.
        ops: u64,
    },
    /// Trace statistics (the tagged [`StatsSubmit`]).
    Stats,
}

impl JobKind {
    fn tag(&self) -> u8 {
        match self {
            JobKind::Sim { .. } => 0,
            JobKind::Range { .. } => 1,
            JobKind::Stats => 2,
        }
    }
}

/// A parsed [`tag::SUBMIT_JOB`] payload: the v3 tagged job header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSubmit {
    /// Client-chosen job id, echoed back in every response frame for the
    /// job. Must not collide with another job in flight on the same
    /// connection.
    pub job_id: u64,
    /// Scheduling priority (higher runs sooner; ties run in submission
    /// order).
    pub priority: u8,
    /// Queueing deadline in milliseconds from receipt; `0` means none. A
    /// job still queued when it lapses dies with [`job_error::DEADLINE`].
    pub deadline_ms: u32,
    /// FNV-1a content digest of the trace's encoded bytes.
    pub digest: u64,
    /// Exact length of the encoded trace in bytes.
    pub trace_bytes: u64,
    /// What to do with the trace.
    pub kind: JobKind,
}

impl JobSubmit {
    /// Serializes the tagged job header (always stamps version 3).
    ///
    /// # Panics
    ///
    /// Panics if the spec name exceeds the u16 length prefix, like
    /// [`Submit::encode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 1 + 8 + 1 + 4 + 1 + 8 + 8 + 32);
        out.extend_from_slice(PROTOCOL_MAGIC);
        out.push(PROTOCOL_VERSION);
        out.extend_from_slice(&self.job_id.to_le_bytes());
        out.push(self.priority);
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.push(self.kind.tag());
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&self.trace_bytes.to_le_bytes());
        match &self.kind {
            JobKind::Sim { spec } => {
                u16::try_from(spec.len()).expect("spec name exceeds the u16 length prefix");
                out.extend_from_slice(&(spec.len() as u16).to_le_bytes());
                out.extend_from_slice(spec.as_bytes());
            }
            JobKind::Range {
                spec,
                first_op,
                ops,
            } => {
                u16::try_from(spec.len()).expect("spec name exceeds the u16 length prefix");
                out.extend_from_slice(&first_op.to_le_bytes());
                out.extend_from_slice(&ops.to_le_bytes());
                out.extend_from_slice(&(spec.len() as u16).to_le_bytes());
                out.extend_from_slice(spec.as_bytes());
            }
            JobKind::Stats => {}
        }
        out
    }

    /// Parses a tagged job header, validating magic and (exact) version.
    ///
    /// # Errors
    ///
    /// `Protocol` on bad magic, a non-v3 version byte, an unknown kind
    /// tag, or a malformed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        check_v3_preamble(&mut c)?;
        let job_id = c.u64()?;
        let priority = c.u8()?;
        let deadline_ms = c.u32()?;
        let kind_tag = c.u8()?;
        let digest = c.u64()?;
        let trace_bytes = c.u64()?;
        let kind = match kind_tag {
            0 => JobKind::Sim { spec: c.string()? },
            1 => {
                let first_op = c.u64()?;
                let ops = c.u64()?;
                JobKind::Range {
                    spec: c.string()?,
                    first_op,
                    ops,
                }
            }
            2 => JobKind::Stats,
            other => return Err(ServeError::Protocol(format!("bad job kind tag {other}"))),
        };
        c.finish()?;
        Ok(JobSubmit {
            job_id,
            priority,
            deadline_ms,
            digest,
            trace_bytes,
            kind,
        })
    }
}

/// Encodes a [`tag::CANCEL`] payload.
pub fn encode_cancel(job_id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + 8);
    out.extend_from_slice(PROTOCOL_MAGIC);
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&job_id.to_le_bytes());
    out
}

/// Parses a [`tag::CANCEL`] payload into the job id to cancel.
///
/// # Errors
///
/// `Protocol` on bad magic/version or a malformed payload.
pub fn decode_cancel(payload: &[u8]) -> Result<u64, ServeError> {
    let mut c = Cursor::new(payload);
    check_v3_preamble(&mut c)?;
    let job_id = c.u64()?;
    c.finish()?;
    Ok(job_id)
}

/// Prefixes a v3 per-job payload with its `job_id` (the layout of
/// [`tag::JOB_DATA`]/[`tag::JOB_DATA_END`]/[`tag::JOB_NEED_TRACE`] and
/// the header of every tagged response).
pub fn encode_job_payload(job_id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&job_id.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Splits a v3 per-job payload into its `job_id` prefix and the rest.
///
/// # Errors
///
/// `Protocol` if the payload is shorter than the 8-byte id.
pub fn split_job_payload(payload: &[u8]) -> Result<(u64, &[u8]), ServeError> {
    if payload.len() < 8 {
        return Err(ServeError::Protocol("truncated job payload".into()));
    }
    let (id, rest) = payload.split_at(8);
    Ok((u64::from_le_bytes(id.try_into().unwrap()), rest))
}

/// Encodes a [`tag::BUSY`] payload.
pub fn encode_busy(job_id: u64, retry_after_ms: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&job_id.to_le_bytes());
    out.extend_from_slice(&retry_after_ms.to_le_bytes());
    out
}

/// Parses a [`tag::BUSY`] payload into `(job_id, retry_after_ms)`.
///
/// # Errors
///
/// `Protocol` on a malformed payload.
pub fn decode_busy(payload: &[u8]) -> Result<(u64, u32), ServeError> {
    let mut c = Cursor::new(payload);
    let job_id = c.u64()?;
    let retry_after_ms = c.u32()?;
    c.finish()?;
    Ok((job_id, retry_after_ms))
}

/// Encodes a [`tag::JOB_ERROR`] payload.
pub fn encode_job_error(job_id: u64, code: u8, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + message.len());
    out.extend_from_slice(&job_id.to_le_bytes());
    out.push(code);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Parses a [`tag::JOB_ERROR`] payload into `(job_id, code, message)`.
///
/// # Errors
///
/// `Protocol` on a malformed payload or invalid UTF-8 in the message.
pub fn decode_job_error(payload: &[u8]) -> Result<(u64, u8, String), ServeError> {
    if payload.len() < 9 {
        return Err(ServeError::Protocol("truncated job error payload".into()));
    }
    let job_id = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let code = payload[8];
    let message = String::from_utf8(payload[9..].to_vec())
        .map_err(|_| ServeError::Protocol("invalid utf-8 in job error".into()))?;
    Ok((job_id, code, message))
}

/// Maps a [`tag::JOB_ERROR`] frame to the [`ServeError`] a client should
/// surface: the cancel / deadline codes become their typed variants,
/// everything else is a [`ServeError::Remote`].
pub fn job_error_to_serve_error(code: u8, message: String) -> ServeError {
    match code {
        job_error::CANCELLED => ServeError::Cancelled,
        job_error::DEADLINE => ServeError::DeadlineExpired,
        _ => ServeError::Remote(message),
    }
}

/// Validates the `FPRS` magic + version preamble of a request payload and
/// returns the negotiated version. Versions [`LEGACY_PROTOCOL_VERSION`]
/// through [`PROTOCOL_VERSION`] are accepted on the untagged v2 frames —
/// that range *is* the version negotiation: a v2 client's preamble parses
/// on a v3 server, and anything newer (or older) is rejected with a clear
/// error.
fn check_preamble(c: &mut Cursor<'_>) -> Result<u8, ServeError> {
    let magic = c.bytes(4)?;
    if magic != PROTOCOL_MAGIC {
        return Err(ServeError::Protocol("bad protocol magic".into()));
    }
    let version = c.u8()?;
    if !(LEGACY_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(ServeError::Protocol(format!(
            "unsupported protocol version {version} (supported: \
             {LEGACY_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
        )));
    }
    Ok(version)
}

/// Validates the preamble of a v3-only payload: the version must be
/// exactly [`PROTOCOL_VERSION`] — tagged frames did not exist before v3,
/// so a v2 version byte inside one is a contradiction worth rejecting.
fn check_v3_preamble(c: &mut Cursor<'_>) -> Result<(), ServeError> {
    let magic = c.bytes(4)?;
    if magic != PROTOCOL_MAGIC {
        return Err(ServeError::Protocol("bad protocol magic".into()));
    }
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ServeError::Protocol(format!(
            "tagged frames require protocol version {PROTOCOL_VERSION}, got {version}"
        )));
    }
    Ok(())
}

/// Encodes a [`tag::STATS`] request payload (magic + version only).
pub fn encode_stats_request() -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.extend_from_slice(PROTOCOL_MAGIC);
    out.push(LEGACY_PROTOCOL_VERSION);
    out
}

/// Parses a [`tag::STATS`] request payload.
///
/// # Errors
///
/// `Protocol` on bad magic/version or trailing bytes.
pub fn decode_stats_request(payload: &[u8]) -> Result<(), ServeError> {
    let mut c = Cursor::new(payload);
    check_preamble(&mut c)?;
    c.finish()
}

/// Encodes a [`tag::METRICS`] request payload (magic + version only).
pub fn encode_metrics_request() -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.extend_from_slice(PROTOCOL_MAGIC);
    out.push(LEGACY_PROTOCOL_VERSION);
    out
}

/// Parses a [`tag::METRICS`] request payload.
///
/// # Errors
///
/// `Protocol` on bad magic/version or trailing bytes.
pub fn decode_metrics_request(payload: &[u8]) -> Result<(), ServeError> {
    let mut c = Cursor::new(payload);
    check_preamble(&mut c)?;
    c.finish()
}

/// Server counters returned by a [`tag::STATS`] request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Simulations actually run (cache misses carried to completion).
    pub jobs_completed: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: u64,
    /// Cache capacity in entries.
    pub cache_capacity: u64,
    /// Entries evicted from the in-memory cache (LRU pressure). Counted
    /// in [`super::CacheStats`] itself so evictions racing a post-wait
    /// re-check are visible here too.
    pub cache_evictions: u64,
    /// Result-payload bytes currently resident in the in-memory cache.
    pub cache_resident_bytes: u64,
    /// Resident-byte ceiling of the in-memory cache (0 = unbounded).
    pub cache_capacity_bytes: u64,
    /// Jobs holding a pool permit right now (acquired, not yet finished).
    pub jobs_in_flight: u64,
    /// Jobs waiting in the priority queue right now.
    pub jobs_queued: u64,
    /// Jobs refused with [`tag::BUSY`] because the queue was saturated.
    pub busy_rejections: u64,
    /// Queued jobs dropped by a [`tag::CANCEL`] frame.
    pub jobs_cancelled: u64,
    /// Queued jobs whose deadline lapsed before they ran.
    pub jobs_deadline_expired: u64,
}

impl ServerStats {
    /// Serializes the counters.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 * 8);
        for v in [
            self.jobs_completed,
            self.cache_hits,
            self.cache_misses,
            self.cache_entries,
            self.cache_capacity,
            self.cache_evictions,
            self.cache_resident_bytes,
            self.cache_capacity_bytes,
            self.jobs_in_flight,
            self.jobs_queued,
            self.busy_rejections,
            self.jobs_cancelled,
            self.jobs_deadline_expired,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parses the counters. Accepts the v2 40-byte payload too (a v3
    /// client talking to a v2 server sees zeros for the newer counters).
    ///
    /// # Errors
    ///
    /// `Protocol` on a malformed payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        let mut stats = ServerStats {
            jobs_completed: c.u64()?,
            cache_hits: c.u64()?,
            cache_misses: c.u64()?,
            cache_entries: c.u64()?,
            cache_capacity: c.u64()?,
            ..ServerStats::default()
        };
        if payload.len() > 40 {
            stats.cache_evictions = c.u64()?;
            stats.cache_resident_bytes = c.u64()?;
            stats.cache_capacity_bytes = c.u64()?;
            stats.jobs_in_flight = c.u64()?;
            stats.jobs_queued = c.u64()?;
            stats.busy_rejections = c.u64()?;
            stats.jobs_cancelled = c.u64()?;
            stats.jobs_deadline_expired = c.u64()?;
        }
        c.finish()?;
        Ok(stats)
    }
}

/// Per-tensor-kind statistics of a served trace-statistics job: the raw
/// integer counts behind the paper's Fig. 1 (value/term sparsity) and
/// Fig. 6 (exponent histogram) for one tensor kind. Integers end to end,
/// so cached replays are bit-identical by construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Weighted values observed.
    pub values: u64,
    /// Weighted zero values.
    pub zeros: u64,
    /// Weighted significand digit slots (8 per value).
    pub slots: u64,
    /// Weighted non-zero terms after canonical encoding.
    pub terms: u64,
    /// Unweighted values in the exponent histogram.
    pub exp_total: u64,
    /// Unweighted zero values (no exponent).
    pub exp_zeros: u64,
    /// `(unbiased exponent, count)` pairs, ascending.
    pub exponents: Vec<(i32, u64)>,
}

impl KindStats {
    /// Fraction of values that are zero (Fig. 1a).
    pub fn value_sparsity(&self) -> f64 {
        if self.values == 0 {
            0.0
        } else {
            self.zeros as f64 / self.values as f64
        }
    }

    /// Fraction of digit slots carrying no term (Fig. 1b).
    pub fn term_sparsity(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            1.0 - self.terms as f64 / self.slots as f64
        }
    }
}

/// Per-phase ideal-speedup counts of a served trace-statistics job
/// (Fig. 2 / Eq. 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase name (`AxW`, `AxG`, `GxW`).
    pub phase: String,
    /// Weighted digit slots of the serial operands.
    pub slots: u64,
    /// Weighted non-zero terms.
    pub terms: u64,
    /// MACs in the phase.
    pub macs: u64,
}

impl PhaseStats {
    /// Eq. 4: `#MACs / (term_occupancy × #MACs)`.
    pub fn potential_speedup(&self) -> f64 {
        let occupancy = if self.slots == 0 {
            1.0
        } else {
            self.terms as f64 / self.slots as f64
        };
        if occupancy <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / occupancy
        }
    }
}

/// A trace-statistics job's result: everything
/// `fpraker_trace::stats::TraceStatistics` computes, flattened to exact
/// integer counts for the wire. Built with [`TraceStatsReport::from_stats`]
/// on the server; compare a served report against a local
/// `TraceStatistics` the same way.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStatsReport {
    /// Activation statistics.
    pub activation: KindStats,
    /// Weight statistics.
    pub weight: KindStats,
    /// Gradient statistics.
    pub gradient: KindStats,
    /// Per-phase potential, in phase-name order.
    pub phases: Vec<PhaseStats>,
}

impl TraceStatsReport {
    /// Flattens a computed `TraceStatistics` into the wire report.
    pub fn from_stats(stats: &fpraker_trace::stats::TraceStatistics) -> Self {
        use fpraker_trace::TensorKind;

        let kind = |k: TensorKind| {
            let s = stats.sparsity.kind(k);
            let (_, hist) = stats
                .exponents
                .iter()
                .find(|(hk, _)| *hk == k)
                .expect("all three kinds present");
            KindStats {
                values: s.values,
                zeros: s.zeros,
                slots: s.slots,
                terms: s.terms,
                exp_total: hist.total,
                exp_zeros: hist.zeros,
                exponents: hist.counts().collect(),
            }
        };
        TraceStatsReport {
            activation: kind(TensorKind::Activation),
            weight: kind(TensorKind::Weight),
            gradient: kind(TensorKind::Gradient),
            phases: stats
                .potential
                .iter()
                .map(|(name, p)| PhaseStats {
                    phase: (*name).to_string(),
                    slots: p.slots,
                    terms: p.terms,
                    macs: p.macs,
                })
                .collect(),
        }
    }

    /// Serializes the report. Deterministic: the same statistics always
    /// encode to the same bytes (the cache-replay invariant).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        for k in [&self.activation, &self.weight, &self.gradient] {
            for v in [
                k.values,
                k.zeros,
                k.slots,
                k.terms,
                k.exp_total,
                k.exp_zeros,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(k.exponents.len() as u32).to_le_bytes());
            for &(e, c) in &k.exponents {
                out.extend_from_slice(&e.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.phases.len() as u32).to_le_bytes());
        for p in &self.phases {
            out.extend_from_slice(&(p.phase.len() as u16).to_le_bytes());
            out.extend_from_slice(p.phase.as_bytes());
            for v in [p.slots, p.terms, p.macs] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parses a report payload.
    ///
    /// # Errors
    ///
    /// `Protocol` on any malformed field or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut c = Cursor::new(payload);
        let mut kinds = [
            KindStats::default(),
            KindStats::default(),
            KindStats::default(),
        ];
        for k in &mut kinds {
            k.values = c.u64()?;
            k.zeros = c.u64()?;
            k.slots = c.u64()?;
            k.terms = c.u64()?;
            k.exp_total = c.u64()?;
            k.exp_zeros = c.u64()?;
            let n = c.u32()? as usize;
            let mut exps = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                let e = i32::from_le_bytes(c.bytes(4)?.try_into().unwrap());
                exps.push((e, c.u64()?));
            }
            k.exponents = exps;
        }
        let n = c.u32()? as usize;
        let mut phases = Vec::with_capacity(n.min(16));
        for _ in 0..n {
            phases.push(PhaseStats {
                phase: c.string()?,
                slots: c.u64()?,
                terms: c.u64()?,
                macs: c.u64()?,
            });
        }
        c.finish()?;
        let [activation, weight, gradient] = kinds;
        Ok(TraceStatsReport {
            activation,
            weight,
            gradient,
            phases,
        })
    }
}

/// One op's simulated outcome as reported to clients.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpReport {
    /// Training phase tag (`None` for untagged ops).
    pub phase: Option<Phase>,
    /// Op latency in cycles (`max(compute, memory)`).
    pub cycles: u64,
    /// Compute-only cycles.
    pub compute_cycles: u64,
    /// MAC count.
    pub macs: u64,
    /// Energy of the op in picojoules under the paper's Table III model.
    pub energy_pj: f64,
    /// Golden-check failures in the op (0 when checking is off).
    pub golden_failures: u64,
    /// Raw integer event counts of the op. Carrying these on the wire is
    /// what makes partial results mergeable bit-exactly: a coordinator
    /// sums them (integer addition is associative, f64 addition is not)
    /// and applies the energy model once, reproducing the single-machine
    /// total to the last mantissa bit.
    pub counts: EventCounts,
}

/// A whole job's result as reported to clients: run summary plus per-op
/// cycle/energy reports, in trace order.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The *canonical* machine spec the job ran on: the registry name,
    /// lowercased and trimmed. May differ in case from what was submitted
    /// (`FPRaker` → `fpraker`) — canonicalizing here is what lets a
    /// cached payload replay bit-identically to every client, however
    /// they spelled the spec.
    pub spec: String,
    /// Total cycles (ops execute back to back).
    pub cycles: u64,
    /// Total compute-only cycles.
    pub compute_cycles: u64,
    /// Total MACs.
    pub macs: u64,
    /// Golden-check failures (0 when checking is off).
    pub golden_failures: u64,
    /// Total energy in picojoules under the paper's Table III model.
    pub energy_pj: f64,
    /// Most ops simultaneously resident while the server streamed the
    /// trace through the simulator (the bounded-window evidence).
    pub peak_resident_ops: u64,
    /// Per-op reports, in trace order.
    pub ops: Vec<OpReport>,
}

fn phase_to_tag(phase: Option<Phase>) -> u8 {
    match phase {
        Some(Phase::AxW) => 0,
        Some(Phase::AxG) => 1,
        Some(Phase::GxW) => 2,
        None => 0xFF,
    }
}

fn phase_from_tag(tag: u8) -> Result<Option<Phase>, ServeError> {
    match tag {
        0 => Ok(Some(Phase::AxW)),
        1 => Ok(Some(Phase::AxG)),
        2 => Ok(Some(Phase::GxW)),
        0xFF => Ok(None),
        other => Err(ServeError::Protocol(format!("bad phase tag {other}"))),
    }
}

/// Builds the result payload for a completed run. Deterministic: the same
/// [`RunResult`] always serializes to the same bytes, which is what lets
/// the cache replay a stored payload bit-identically to every client.
pub fn encode_result(
    spec: &str,
    run: &RunResult,
    peak_resident_ops: u64,
    model: &EnergyModel,
) -> Vec<u8> {
    let energy = |counts| run.machine.energy(model, counts).total_pj();
    let mut out = Vec::with_capacity(64 + run.ops.len() * 105);
    out.extend_from_slice(&(spec.len() as u16).to_le_bytes());
    out.extend_from_slice(spec.as_bytes());
    out.extend_from_slice(&run.cycles().to_le_bytes());
    out.extend_from_slice(&run.compute_cycles().to_le_bytes());
    out.extend_from_slice(&run.macs().to_le_bytes());
    out.extend_from_slice(&run.golden_failures().to_le_bytes());
    let total_counts = run.counts();
    out.extend_from_slice(&energy(&total_counts).to_bits().to_le_bytes());
    out.extend_from_slice(&peak_resident_ops.to_le_bytes());
    out.extend_from_slice(&(run.ops.len() as u32).to_le_bytes());
    for op in &run.ops {
        out.push(phase_to_tag(op.phase));
        out.extend_from_slice(&op.cycles.to_le_bytes());
        out.extend_from_slice(&op.compute_cycles.to_le_bytes());
        out.extend_from_slice(&op.macs.to_le_bytes());
        out.extend_from_slice(&energy(&op.counts).to_bits().to_le_bytes());
        out.extend_from_slice(&op.golden_failures.to_le_bytes());
        for v in [
            op.counts.terms,
            op.counts.pe_active_cycles,
            op.counts.pe_stall_cycles,
            op.counts.sets,
            op.counts.a_values_encoded,
            op.counts.baseline_pe_cycles,
            op.counts.sram_bytes,
            op.counts.dram_bytes,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Parses a result payload.
///
/// # Errors
///
/// `Protocol` on any malformed field or trailing bytes.
pub fn decode_result(payload: &[u8]) -> Result<JobResult, ServeError> {
    let mut c = Cursor::new(payload);
    let spec = c.string()?;
    let cycles = c.u64()?;
    let compute_cycles = c.u64()?;
    let macs = c.u64()?;
    let golden_failures = c.u64()?;
    let energy_pj = f64::from_bits(c.u64()?);
    let peak_resident_ops = c.u64()?;
    let op_count = c.u32()? as usize;
    let mut ops = Vec::with_capacity(op_count.min(1 << 16));
    for _ in 0..op_count {
        ops.push(OpReport {
            phase: phase_from_tag(c.u8()?)?,
            cycles: c.u64()?,
            compute_cycles: c.u64()?,
            macs: c.u64()?,
            energy_pj: f64::from_bits(c.u64()?),
            golden_failures: c.u64()?,
            counts: EventCounts {
                terms: c.u64()?,
                pe_active_cycles: c.u64()?,
                pe_stall_cycles: c.u64()?,
                sets: c.u64()?,
                a_values_encoded: c.u64()?,
                baseline_pe_cycles: c.u64()?,
                sram_bytes: c.u64()?,
                dram_bytes: c.u64()?,
            },
        });
    }
    c.finish()?;
    Ok(JobResult {
        spec,
        cycles,
        compute_cycles,
        macs,
        golden_failures,
        energy_pj,
        peak_resident_ops,
        ops,
    })
}

/// Bounds-checked little-endian payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServeError::Protocol("truncated payload".into()))?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ServeError> {
        let len = u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()) as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::Protocol("invalid utf-8 in payload".into()))
    }

    fn finish(&mut self) -> Result<(), ServeError> {
        if self.at != self.buf.len() {
            return Err(ServeError::Protocol(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, tag::SUBMIT, b"hello").unwrap();
        write_frame(&mut buf, tag::TRACE_END, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap(),
            (tag::SUBMIT, b"hello".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), (tag::TRACE_END, Vec::new()));
        assert!(r.is_empty());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut buf = vec![tag::TRACE_DATA];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut &buf[..]) {
            Err(ServeError::Protocol(m)) => assert!(m.contains("length prefix"), "{m}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn submit_round_trips_and_rejects_corruption() {
        let s = Submit {
            spec: "fpraker".into(),
            digest: 0xDEAD_BEEF_CAFE_F00D,
            trace_bytes: 12345,
        };
        let mut enc = s.encode();
        assert_eq!(Submit::decode(&enc).unwrap(), s);
        enc[0] = b'X';
        assert!(Submit::decode(&enc).is_err());
        assert!(Submit::decode(&s.encode()[..5]).is_err());
    }

    #[test]
    fn range_submit_round_trips_and_rejects_corruption() {
        let s = RangeSubmit {
            spec: "fpraker".into(),
            digest: 0x1234_5678_9ABC_DEF0,
            trace_bytes: 4096,
            first_op: 17,
            ops: 5,
        };
        let mut enc = s.encode();
        assert_eq!(RangeSubmit::decode(&enc).unwrap(), s);
        enc[0] = b'X';
        assert!(RangeSubmit::decode(&enc).is_err());
        assert!(RangeSubmit::decode(&s.encode()[..20]).is_err());
        // A plain Submit payload is shorter and must not parse as a range.
        let plain = Submit {
            spec: "fpraker".into(),
            digest: 1,
            trace_bytes: 2,
        };
        assert!(RangeSubmit::decode(&plain.encode()).is_err());
    }

    #[test]
    fn result_payload_carries_per_op_event_counts() {
        use fpraker_num::Bf16;
        use fpraker_sim::{AcceleratorConfig, Engine, Machine};
        use fpraker_trace::{TensorKind, Trace, TraceOp};

        let mut tr = Trace::new("m", 0);
        tr.ops.push(TraceOp {
            layer: "l0".into(),
            phase: Phase::AxW,
            m: 4,
            n: 4,
            k: 8,
            a: (0..32).map(|i| Bf16::from_f32(i as f32 * 0.5)).collect(),
            b: (0..32)
                .map(|i| Bf16::from_f32(1.0 / (i + 1) as f32))
                .collect(),
            a_kind: TensorKind::Activation,
            b_kind: TensorKind::Weight,
            a_dup: 1.0,
            b_dup: 1.0,
            out_dup: 1.0,
        });
        let run =
            Engine::with_threads(1).run(Machine::FpRaker, &tr, &AcceleratorConfig::fpraker_paper());
        let payload = encode_result("fpraker", &run, 1, &EnergyModel::paper());
        let parsed = decode_result(&payload).unwrap();
        assert_eq!(parsed.ops.len(), 1);
        assert_eq!(parsed.ops[0].counts, run.ops[0].counts);
        assert_eq!(parsed.ops[0].golden_failures, run.ops[0].golden_failures);
        assert!(parsed.ops[0].counts.terms > 0, "non-trivial op has terms");
    }

    #[test]
    fn stats_round_trip() {
        let s = ServerStats {
            jobs_completed: 3,
            cache_hits: 2,
            cache_misses: 1,
            cache_entries: 1,
            cache_capacity: 64,
            cache_evictions: 9,
            cache_resident_bytes: 4096,
            cache_capacity_bytes: 1 << 20,
            jobs_in_flight: 2,
            jobs_queued: 5,
            busy_rejections: 7,
            jobs_cancelled: 1,
            jobs_deadline_expired: 4,
        };
        assert_eq!(ServerStats::decode(&s.encode()).unwrap(), s);
        assert!(ServerStats::decode(&s.encode()[..7]).is_err());
        decode_stats_request(&encode_stats_request()).unwrap();
        assert!(decode_stats_request(b"junk!").is_err());
        // A v2 server's 40-byte payload still parses; new counters zero.
        let legacy = &s.encode()[..40];
        let parsed = ServerStats::decode(legacy).unwrap();
        assert_eq!(parsed.jobs_completed, 3);
        assert_eq!(parsed.cache_capacity, 64);
        assert_eq!(parsed.cache_evictions, 0);
        assert_eq!(parsed.jobs_queued, 0);
    }

    #[test]
    fn job_submit_round_trips_all_kinds_and_rejects_v2_version_byte() {
        for kind in [
            JobKind::Sim {
                spec: "fpraker".into(),
            },
            JobKind::Range {
                spec: "baseline".into(),
                first_op: 3,
                ops: 9,
            },
            JobKind::Stats,
        ] {
            let j = JobSubmit {
                job_id: 0x0123_4567_89AB_CDEF,
                priority: 7,
                deadline_ms: 1500,
                digest: 0xDEAD_BEEF,
                trace_bytes: 4096,
                kind,
            };
            let mut enc = j.encode();
            assert_eq!(JobSubmit::decode(&enc).unwrap(), j);
            // Tagged frames are v3-only: a v2 version byte is rejected
            // even though the untagged preamble would accept it.
            enc[4] = LEGACY_PROTOCOL_VERSION;
            match JobSubmit::decode(&enc) {
                Err(ServeError::Protocol(m)) => assert!(m.contains("version"), "{m}"),
                other => panic!("expected version rejection, got {other:?}"),
            }
            // And an unknown future version is rejected too.
            enc[4] = PROTOCOL_VERSION + 1;
            assert!(JobSubmit::decode(&enc).is_err());
        }
    }

    #[test]
    fn legacy_preamble_accepts_both_negotiated_versions() {
        let s = Submit {
            spec: "fpraker".into(),
            digest: 1,
            trace_bytes: 2,
        };
        let mut enc = s.encode();
        assert_eq!(enc[4], LEGACY_PROTOCOL_VERSION);
        assert_eq!(Submit::decode(&enc).unwrap(), s);
        // The same untagged frame with a v3 version byte also parses…
        enc[4] = PROTOCOL_VERSION;
        assert_eq!(Submit::decode(&enc).unwrap(), s);
        // …but versions outside the negotiated range are rejected.
        enc[4] = PROTOCOL_VERSION + 1;
        assert!(Submit::decode(&enc).is_err());
        enc[4] = LEGACY_PROTOCOL_VERSION - 1;
        assert!(Submit::decode(&enc).is_err());
    }

    #[test]
    fn cancel_busy_and_job_error_round_trip() {
        assert_eq!(decode_cancel(&encode_cancel(42)).unwrap(), 42);
        assert!(decode_cancel(b"junk").is_err());
        assert_eq!(decode_busy(&encode_busy(7, 250)).unwrap(), (7, 250));
        assert!(decode_busy(&encode_busy(7, 250)[..10]).is_err());
        let (id, code, msg) =
            decode_job_error(&encode_job_error(9, job_error::DEADLINE, "late")).unwrap();
        assert_eq!((id, code, msg.as_str()), (9, job_error::DEADLINE, "late"));
        assert!(matches!(
            job_error_to_serve_error(job_error::CANCELLED, String::new()),
            ServeError::Cancelled
        ));
        assert!(matches!(
            job_error_to_serve_error(job_error::DEADLINE, String::new()),
            ServeError::DeadlineExpired
        ));
        assert!(matches!(
            job_error_to_serve_error(job_error::GENERIC, "boom".into()),
            ServeError::Remote(m) if m == "boom"
        ));
    }

    #[test]
    fn job_payload_prefix_round_trips() {
        let p = encode_job_payload(0xAABB, b"chunk");
        let (id, rest) = split_job_payload(&p).unwrap();
        assert_eq!(id, 0xAABB);
        assert_eq!(rest, b"chunk");
        assert!(split_job_payload(&p[..7]).is_err());
    }

    #[test]
    fn metrics_request_round_trips() {
        decode_metrics_request(&encode_metrics_request()).unwrap();
        assert!(decode_metrics_request(b"junk!").is_err());
        assert!(decode_metrics_request(&encode_metrics_request()[..4]).is_err());
    }

    #[test]
    fn stats_submit_and_report_round_trip() {
        use fpraker_num::encode::Encoding;
        use fpraker_trace::stats::TraceStatistics;
        use fpraker_trace::Trace;

        let s = StatsSubmit {
            digest: 0xABCD_EF01_2345_6789,
            trace_bytes: 777,
        };
        assert_eq!(StatsSubmit::decode(&s.encode()).unwrap(), s);
        assert!(StatsSubmit::decode(&s.encode()[..8]).is_err());

        let stats = TraceStatistics::from_trace(&Trace::new("m", 0), Encoding::Canonical);
        let report = TraceStatsReport::from_stats(&stats);
        let payload = report.encode();
        assert_eq!(TraceStatsReport::decode(&payload).unwrap(), report);
        // Determinism: encoding twice yields identical bytes.
        assert_eq!(payload, report.encode());
        assert!(TraceStatsReport::decode(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn result_payload_round_trips() {
        use fpraker_sim::{AcceleratorConfig, Engine, Machine};
        use fpraker_trace::Trace;

        let run = Engine::with_threads(1).run(
            Machine::FpRaker,
            &Trace::new("empty", 0),
            &AcceleratorConfig::fpraker_paper(),
        );
        let payload = encode_result("fpraker", &run, 0, &EnergyModel::paper());
        let parsed = decode_result(&payload).unwrap();
        assert_eq!(parsed.spec, "fpraker");
        assert_eq!(parsed.cycles, 0);
        assert_eq!(parsed.ops.len(), 0);
        // Determinism: encoding twice yields identical bytes.
        assert_eq!(
            payload,
            encode_result("fpraker", &run, 0, &EnergyModel::paper())
        );
        assert!(decode_result(&payload[..payload.len() - 1]).is_err());
    }
}
