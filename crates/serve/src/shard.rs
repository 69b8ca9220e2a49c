//! The distributed shard coordinator: fan one indexed trace across many
//! `fpraker-serve` workers and fold the partial results back into a
//! whole-trace [`JobResult`] **bit-identically** to a single-machine
//! `Engine::run`.
//!
//! The pipeline is partition → submit → retry → ordered merge:
//!
//! ```text
//!            ┌──────────── indexed trace ────────────┐
//! partition  │ seg seg seg │ seg seg │ seg seg seg   │  group_segments
//!            └─────┬───────┴────┬────┴──────┬────────┘
//!                  ▼            ▼           ▼
//! submit      worker A      worker B     worker C       SUBMIT_RANGE
//!                  │            ✗ dies      │
//! retry            │        worker C ◀──────┤           next worker,
//!                  │            │           │           backoff, warm
//!                  ▼            ▼           ▼           cache on re-try
//! merge       ┌ partial ┬─ partial ─┬─ partial ┐
//!             └─────────┴─ ordered by first_op ┘  →  JobResult
//! ```
//!
//! * **Partition.** [`ShardPlan`] reuses the exact contiguous segment
//!   grouping the parallel decoder uses ([`fpraker_trace::group_segments`])
//!   and re-frames each group as a self-contained sub-trace: a fresh
//!   header plus a raw byte-range copy of the ops
//!   ([`IndexedReader::extract_range`]) — no op is ever re-encoded. An
//!   unindexed trace degrades to one shard carrying the original bytes.
//! * **Submit.** Each shard goes to a distinct worker via the
//!   [`crate::protocol::tag::SUBMIT_RANGE`] handshake. Shards are
//!   content-addressed like any job, so a retried (or duplicated) shard
//!   is a warm cache hit — the simulation runs at most once per shard
//!   content per worker.
//! * **Retry.** A failed or disconnected worker fails only its shard: the
//!   coordinator re-assigns the shard to the next worker round-robin,
//!   with bounded doubling backoff, up to a per-shard attempt budget.
//! * **Merge.** Partials are ordered by `first_op`, checked for exact
//!   tiling, and folded: integer aggregates are summed, per-op reports
//!   concatenated, and **total energy is recomputed once from the summed
//!   integer [`EventCounts`]** — never by adding per-shard floats (f64
//!   addition is not associative; integer addition is). This is what
//!   makes the merged result bit-identical to the unsharded run.
//!
//! The determinism invariant, end to end: per-op simulation is
//! independent, result payloads are deterministic byte-for-byte, and
//! every merged field is either an integer sum, a concatenation in
//! global op order, or a function applied once to such a sum. Shard
//! count, worker count, completion order, retries and cache hits can
//! therefore never change a single bit of the merged result.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fpraker_energy::{EnergyModel, EventCounts};
use fpraker_sim::resolve_machine;
use fpraker_trace::codec::IndexedReader;
use fpraker_trace::{group_segments, DecodeError};

use crate::client::{JobOptions, PipelinedConnection};
use crate::protocol::{JobResult, ServeError};

/// Where the trace bytes live; shards are extracted on demand, so the
/// coordinator never holds more than one in-flight shard per thread.
#[derive(Clone, Debug)]
enum Store {
    File(PathBuf),
    Bytes(Arc<[u8]>),
}

/// One shard's contiguous global op range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRange {
    /// Global index of the shard's first op.
    pub first_op: u32,
    /// Ops in the shard.
    pub ops: u32,
}

/// The partition of one trace into contiguous shard ranges, plus the
/// means to extract any shard as a self-contained sub-trace.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    store: Store,
    total_ops: u32,
    indexed: bool,
    ranges: Vec<ShardRange>,
}

impl ShardPlan {
    /// Plans up to `max_shards` shards over a trace file.
    ///
    /// With a usable index the file's segments are grouped exactly like
    /// parallel decode groups them; without one (or with `max_shards <=
    /// 1`) the plan degrades to a single shard carrying the original
    /// bytes — the sequential fallback, never an error.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the file cannot be opened or its header is
    /// invalid.
    pub fn from_file(path: impl Into<PathBuf>, max_shards: usize) -> Result<Self, DecodeError> {
        let path = path.into();
        let file = std::fs::File::open(&path)
            .map_err(|e| DecodeError::at(0, format!("cannot open {}: {e}", path.display())))?;
        let reader = IndexedReader::new(std::io::BufReader::new(file))?;
        Ok(Self::plan(Store::File(path), &reader, max_shards))
    }

    /// Plans up to `max_shards` shards over an in-memory encoded trace
    /// (the exact `fpraker_trace::codec` byte stream, indexed or not).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the header is invalid.
    pub fn from_bytes(bytes: impl Into<Arc<[u8]>>, max_shards: usize) -> Result<Self, DecodeError> {
        let bytes = bytes.into();
        let reader = IndexedReader::new(std::io::Cursor::new(bytes.to_vec()))?;
        Ok(Self::plan(Store::Bytes(bytes), &reader, max_shards))
    }

    fn plan<R: std::io::Read + std::io::Seek>(
        store: Store,
        reader: &IndexedReader<R>,
        max_shards: usize,
    ) -> Self {
        let total_ops = reader.total_ops();
        let indexed = reader.has_index();
        let ranges = if indexed && max_shards > 1 && total_ops > 0 {
            group_segments(&reader.segments(), max_shards)
                .into_iter()
                .map(|g| ShardRange {
                    first_op: g.first_op,
                    ops: g.ops,
                })
                .collect()
        } else {
            vec![ShardRange {
                first_op: 0,
                ops: total_ops,
            }]
        };
        ShardPlan {
            store,
            total_ops,
            indexed,
            ranges,
        }
    }

    /// The planned shard ranges, ascending and tiling `0..total_ops`.
    pub fn ranges(&self) -> &[ShardRange] {
        &self.ranges
    }

    /// Total ops in the trace.
    pub fn total_ops(&self) -> u32 {
        self.total_ops
    }

    /// Whether the trace carried a usable index. Without one the plan is
    /// a single whole-trace shard (the sequential fallback).
    pub fn is_indexed(&self) -> bool {
        self.indexed
    }

    /// Extracts shard `i` as a self-contained encoded sub-trace.
    ///
    /// A single whole-trace shard is the original bytes verbatim (footer
    /// included), so its digest — and therefore its cache entry — is
    /// shared with plain [`crate::Client::submit_encoded`] submissions of the
    /// same trace. A proper sub-range is re-framed with a fresh header
    /// via [`IndexedReader::extract_range`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on I/O failures or a trace that no longer matches
    /// the plan.
    pub fn extract(&self, i: usize) -> Result<Vec<u8>, DecodeError> {
        let range = self.ranges[i];
        let whole = range.first_op == 0 && range.ops == self.total_ops;
        match (&self.store, whole) {
            (Store::File(path), true) => std::fs::read(path)
                .map_err(|e| DecodeError::at(0, format!("cannot read {}: {e}", path.display()))),
            (Store::Bytes(bytes), true) => Ok(bytes.to_vec()),
            (Store::File(path), false) => {
                let file = std::fs::File::open(path).map_err(|e| {
                    DecodeError::at(0, format!("cannot open {}: {e}", path.display()))
                })?;
                let mut reader = IndexedReader::new(std::io::BufReader::new(file))?;
                let mut out = Vec::new();
                reader.extract_range(range.first_op, range.ops, &mut out)?;
                Ok(out)
            }
            (Store::Bytes(bytes), false) => {
                let mut reader = IndexedReader::new(std::io::Cursor::new(bytes.to_vec()))?;
                let mut out = Vec::new();
                reader.extract_range(range.first_op, range.ops, &mut out)?;
                Ok(out)
            }
        }
    }
}

/// Everything that can fail a sharded run.
#[derive(Debug)]
pub enum ShardError {
    /// The coordinator was given no workers.
    NoWorkers,
    /// The trace could not be planned or a shard could not be extracted.
    Trace(DecodeError),
    /// One shard exhausted its attempt budget; the last error is kept.
    Exhausted {
        /// Index of the failed shard in the plan.
        shard: usize,
        /// Attempts made.
        attempts: usize,
        /// The last attempt's error.
        last: String,
    },
    /// The partial results cannot be folded (spec mismatch, gap/overlap,
    /// unknown spec) — a coordinator bug or a byzantine worker that
    /// slipped past per-shard validation.
    Merge(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoWorkers => write!(f, "no workers to shard across"),
            ShardError::Trace(e) => write!(f, "trace error: {e}"),
            ShardError::Exhausted {
                shard,
                attempts,
                last,
            } => write!(f, "shard {shard} failed after {attempts} attempts: {last}"),
            ShardError::Merge(m) => write!(f, "merge error: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<DecodeError> for ShardError {
    fn from(e: DecodeError) -> Self {
        ShardError::Trace(e)
    }
}

/// How one shard fared.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// Index of the shard in the plan.
    pub shard: usize,
    /// The shard's global op range.
    pub range: ShardRange,
    /// Index (into the worker list) of the worker that answered.
    pub worker: usize,
    /// Attempts made (1 = first try succeeded).
    pub attempts: usize,
    /// Whether the answering worker served the result from its cache.
    pub cached: bool,
}

/// A completed sharded run: the merged whole-trace result plus per-shard
/// provenance.
#[derive(Clone, Debug)]
pub struct ShardedRun {
    /// The merged result, bit-identical to an unsharded run of the same
    /// trace on the same spec — except `peak_resident_ops`, which is the
    /// max over shards (residency is a per-worker property).
    pub result: JobResult,
    /// Per-shard provenance, in plan order.
    pub shards: Vec<ShardOutcome>,
}

/// One persistent pipelined connection per worker, shared by every
/// shard submission (and every clone of the coordinator). Connections
/// are opened lazily on first use and invalidated on transport-level
/// failures, so a worker that dies and comes back is transparently
/// re-dialed on the next attempt.
#[derive(Debug, Default)]
struct WorkerPool {
    conns: Vec<Mutex<Option<Arc<PipelinedConnection>>>>,
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        WorkerPool {
            conns: (0..workers).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// The worker's shared connection, dialing it if absent. The slot
    /// lock is held across the dial, so concurrent shards for the same
    /// worker wait for one connection instead of racing N dials.
    fn get_or_connect(
        &self,
        worker: usize,
        addr: &str,
        io_timeout: Option<Duration>,
    ) -> Result<Arc<PipelinedConnection>, ServeError> {
        let mut slot = self.conns[worker].lock().unwrap();
        if let Some(conn) = slot.as_ref() {
            return Ok(Arc::clone(conn));
        }
        let conn = Arc::new(PipelinedConnection::connect_with_timeout(addr, io_timeout)?);
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Drops a worker's pooled connection *if it is still the one that
    /// failed* — a concurrent re-dial by another shard is left alone.
    fn invalidate(&self, worker: usize, failed: &Arc<PipelinedConnection>) {
        let mut slot = self.conns[worker].lock().unwrap();
        if slot.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, failed)) {
            *slot = None;
        }
    }
}

/// Fans shards of one trace across `fpraker-serve` workers and merges
/// the partial results in global op order. All shards bound for the
/// same worker ride one pipelined connection (many jobs in flight,
/// demultiplexed by job id) instead of a connection per shard.
///
/// ```no_run
/// use fpraker_serve::shard::{ShardCoordinator, ShardPlan};
///
/// let plan = ShardPlan::from_file("trace.bin", 4).unwrap();
/// let coord = ShardCoordinator::new(vec![
///     "127.0.0.1:4270".into(),
///     "127.0.0.1:4271".into(),
/// ]);
/// let run = coord.run(&plan, "fpraker").unwrap();
/// println!("cycles: {}", run.result.cycles);
/// ```
#[derive(Clone, Debug)]
pub struct ShardCoordinator {
    workers: Vec<String>,
    max_attempts: usize,
    backoff: Duration,
    io_timeout: Option<Duration>,
    pool: Arc<WorkerPool>,
}

impl ShardCoordinator {
    /// A coordinator over the given worker addresses, with the default
    /// budget of 4 attempts per shard and a 50 ms initial backoff.
    pub fn new(workers: Vec<String>) -> Self {
        let pool = Arc::new(WorkerPool::new(workers.len()));
        ShardCoordinator {
            workers,
            max_attempts: 4,
            backoff: Duration::from_millis(50),
            io_timeout: Some(Duration::from_secs(600)),
            pool,
        }
    }

    /// Overrides the per-shard attempt budget (clamped to ≥ 1).
    pub fn max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Overrides the initial retry backoff; it doubles per failed
    /// attempt (bounded by the attempt budget).
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Overrides the per-request socket timeout (`None` blocks forever).
    pub fn io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Runs the plan: one submission thread per shard, retries with
    /// round-robin re-assignment and doubling backoff, ordered merge.
    ///
    /// # Errors
    ///
    /// [`ShardError`] if there are no workers, a shard exhausts its
    /// attempt budget, or the partials cannot be folded.
    pub fn run(&self, plan: &ShardPlan, spec: &str) -> Result<ShardedRun, ShardError> {
        if self.workers.is_empty() {
            return Err(ShardError::NoWorkers);
        }
        let results: Vec<Result<(ShardOutcome, JobResult), ShardError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..plan.ranges().len())
                    .map(|i| scope.spawn(move || self.run_shard(plan, spec, i)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
        let mut shards = Vec::with_capacity(results.len());
        let mut partials = Vec::with_capacity(results.len());
        for r in results {
            let (outcome, result) = r?;
            partials.push((u64::from(outcome.range.first_op), result));
            shards.push(outcome);
        }
        shards.sort_by_key(|o| o.shard);
        let result = merge_job_results(partials).map_err(ShardError::Merge)?;
        Ok(ShardedRun { result, shards })
    }

    /// One shard's attempt loop: extract once, then submit to workers
    /// round-robin (starting at `shard % workers`, so a full-width plan
    /// puts one shard on each worker) until one answers or the budget is
    /// spent.
    fn run_shard(
        &self,
        plan: &ShardPlan,
        spec: &str,
        shard: usize,
    ) -> Result<(ShardOutcome, JobResult), ShardError> {
        let range = plan.ranges()[shard];
        let bytes = plan.extract(shard)?;
        let mut last = String::new();
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                fpraker_telemetry::counter!("shard_retries_total").inc();
                fpraker_telemetry::counter!("shard_backoff_sleeps_total").inc();
                std::thread::sleep(self.backoff * (1 << (attempt - 1).min(8)));
            }
            let worker = (shard + attempt) % self.workers.len();
            if worker != shard % self.workers.len() {
                fpraker_telemetry::counter!("shard_reassignments_total").inc();
            }
            match self.try_worker(worker, &bytes, spec, range) {
                Ok((cached, result)) => {
                    return Ok((
                        ShardOutcome {
                            shard,
                            range,
                            worker,
                            attempts: attempt + 1,
                            cached,
                        },
                        result,
                    ));
                }
                Err(e) => last = e,
            }
        }
        Err(ShardError::Exhausted {
            shard,
            attempts: self.max_attempts,
            last,
        })
    }

    /// One submission attempt over the worker's shared pipelined
    /// connection, with the response validated hard enough that a
    /// corrupted-but-decodable partial is retried, not merged: the op
    /// count must match the shard and every total must equal the fold of
    /// the per-op reports it claims to summarize.
    fn try_worker(
        &self,
        worker: usize,
        bytes: &[u8],
        spec: &str,
        range: ShardRange,
    ) -> Result<(bool, JobResult), String> {
        let _submit = fpraker_telemetry::span!("shard_submit");
        let addr = &self.workers[worker];
        let conn = self
            .pool
            .get_or_connect(worker, addr, self.io_timeout)
            .map_err(|e| format!("{addr}: {e}"))?;
        let response = conn.submit_range_encoded(
            bytes,
            spec,
            u64::from(range.first_op),
            u64::from(range.ops),
            JobOptions::default(),
        );
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                // Job-scoped outcomes (a remote error, backpressure, …)
                // leave the connection healthy; anything transport-level
                // poisons it, so the retry dials fresh.
                if !matches!(
                    e,
                    ServeError::Remote(_)
                        | ServeError::Busy { .. }
                        | ServeError::Cancelled
                        | ServeError::DeadlineExpired
                ) {
                    self.pool.invalidate(worker, &conn);
                }
                return Err(format!("{addr}: {e}"));
            }
        };
        validate_partial(&response.result, range).map_err(|e| format!("{addr}: {e}"))?;
        Ok((response.cached, response.result))
    }
}

/// Rejects a partial result that is internally inconsistent or does not
/// match its shard — the coordinator-side defense against a worker that
/// returns a corrupted (yet decodable) payload.
fn validate_partial(result: &JobResult, range: ShardRange) -> Result<(), String> {
    if result.ops.len() as u64 != u64::from(range.ops) {
        return Err(format!(
            "partial carries {} ops, shard covers {}",
            result.ops.len(),
            range.ops
        ));
    }
    let cycles: u64 = result.ops.iter().map(|o| o.cycles).sum();
    let compute: u64 = result.ops.iter().map(|o| o.compute_cycles).sum();
    let macs: u64 = result.ops.iter().map(|o| o.macs).sum();
    let golden: u64 = result.ops.iter().map(|o| o.golden_failures).sum();
    if cycles != result.cycles
        || compute != result.compute_cycles
        || macs != result.macs
        || golden != result.golden_failures
    {
        return Err("partial totals do not fold from its per-op reports".into());
    }
    Ok(())
}

/// Folds partial [`JobResult`]s of disjoint contiguous op ranges into the
/// whole-trace result — the wire-level mirror of
/// `fpraker_sim::RunResult::merge_partials`, and the merge the
/// coordinator performs.
///
/// Partials may be given in any order; they are sorted by `first_op` and
/// must tile `0..total` exactly. Integer aggregates are summed; per-op
/// reports are concatenated in global order; **total energy is
/// recomputed once** from the summed per-op [`EventCounts`] under the
/// paper's energy model, reproducing the server's own
/// `encode_result` energy bit-for-bit. `peak_resident_ops` is the max
/// over partials (residency is per-worker, not additive).
///
/// # Errors
///
/// A message if the partials are empty, mix specs, mislabel their op
/// counts, overlap, or name an unknown spec.
pub fn merge_job_results(
    partials: impl IntoIterator<Item = (u64, JobResult)>,
) -> Result<JobResult, String> {
    let _merge = fpraker_telemetry::span!("shard_merge");
    let mut parts: Vec<(u64, JobResult)> = partials.into_iter().collect();
    parts.sort_by_key(|(first, _)| *first);
    let (_, head) = parts.first().ok_or("no partial results to merge")?;
    let spec = head.spec.clone();
    let Some((machine, _)) = resolve_machine(&spec) else {
        return Err(format!("unknown machine spec {spec:?} in partial results"));
    };

    let mut merged = JobResult {
        spec: spec.clone(),
        cycles: 0,
        compute_cycles: 0,
        macs: 0,
        golden_failures: 0,
        energy_pj: 0.0,
        peak_resident_ops: 0,
        ops: Vec::with_capacity(parts.iter().map(|(_, p)| p.ops.len()).sum()),
    };
    let mut counts = EventCounts::default();
    let mut next = 0u64;
    for (first, part) in parts {
        if part.spec != spec {
            return Err(format!(
                "partials mix machine specs {spec:?} and {:?}",
                part.spec
            ));
        }
        if first != next {
            return Err(format!(
                "partials are not contiguous: expected one starting at op \
                 {next}, found op {first} (overlap or gap)"
            ));
        }
        next += part.ops.len() as u64;
        merged.cycles += part.cycles;
        merged.compute_cycles += part.compute_cycles;
        merged.macs += part.macs;
        merged.golden_failures += part.golden_failures;
        merged.peak_resident_ops = merged.peak_resident_ops.max(part.peak_resident_ops);
        for op in &part.ops {
            counts.terms += op.counts.terms;
            counts.pe_active_cycles += op.counts.pe_active_cycles;
            counts.pe_stall_cycles += op.counts.pe_stall_cycles;
            counts.sets += op.counts.sets;
            counts.a_values_encoded += op.counts.a_values_encoded;
            counts.baseline_pe_cycles += op.counts.baseline_pe_cycles;
            counts.sram_bytes += op.counts.sram_bytes;
            counts.dram_bytes += op.counts.dram_bytes;
        }
        merged.ops.extend(part.ops);
    }
    // The one float in the result, derived exactly as the server derives
    // it: the energy model applied once to the integer count totals.
    let model = EnergyModel::paper();
    merged.energy_pj = machine.energy(&model, &counts).total_pj();
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpraker_trace::{codec, Trace};

    fn tiny_trace(ops: usize) -> Trace {
        use fpraker_num::Bf16;
        use fpraker_trace::{Phase, TensorKind, TraceOp};
        let mut tr = Trace::new("shard-plan", 10);
        for i in 0..ops {
            tr.ops.push(TraceOp {
                layer: format!("l{i}"),
                phase: [Phase::AxW, Phase::GxW, Phase::AxG][i % 3],
                m: 4,
                n: 4,
                k: 8,
                a: vec![Bf16::from_f32(0.5); 32],
                b: vec![Bf16::from_f32(2.0); 32],
                a_kind: TensorKind::Activation,
                b_kind: TensorKind::Weight,
                a_dup: 1.0,
                b_dup: 1.0,
                out_dup: 1.0,
            });
        }
        tr
    }

    fn encode_indexed(tr: &Trace, stride: u32) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w =
            codec::Writer::new(&mut out, &tr.model, tr.progress_pct, tr.ops.len() as u32).unwrap();
        for op in &tr.ops {
            w.write_op(op).unwrap();
        }
        w.finish_indexed(stride).unwrap();
        out
    }

    #[test]
    fn plan_tiles_the_trace_and_respects_the_shard_cap() {
        let tr = tiny_trace(10);
        let plan = ShardPlan::from_bytes(encode_indexed(&tr, 2), 3).unwrap();
        assert!(plan.is_indexed());
        assert!(plan.ranges().len() <= 3 && plan.ranges().len() > 1);
        let mut next = 0u32;
        for r in plan.ranges() {
            assert_eq!(r.first_op, next);
            next += r.ops;
        }
        assert_eq!(next, 10);
    }

    #[test]
    fn more_shards_than_segments_yields_one_shard_per_segment() {
        let tr = tiny_trace(4);
        // Stride 4 → a single segment; asking for 8 shards yields 1.
        let plan = ShardPlan::from_bytes(encode_indexed(&tr, 4), 8).unwrap();
        assert_eq!(plan.ranges().len(), 1);
        assert_eq!(
            plan.ranges()[0],
            ShardRange {
                first_op: 0,
                ops: 4
            }
        );
    }

    #[test]
    fn unindexed_trace_falls_back_to_a_single_whole_shard() {
        let tr = tiny_trace(6);
        let bytes = codec::encode(&tr).to_vec();
        let plan = ShardPlan::from_bytes(bytes.clone(), 4).unwrap();
        assert!(!plan.is_indexed());
        assert_eq!(plan.ranges().len(), 1);
        // The single shard is the original bytes verbatim, so it shares
        // its digest (and cache entry) with a plain submission.
        assert_eq!(plan.extract(0).unwrap(), bytes);
    }

    #[test]
    fn whole_file_single_shard_keeps_the_footer() {
        let tr = tiny_trace(5);
        let bytes = encode_indexed(&tr, 3);
        let plan = ShardPlan::from_bytes(bytes.clone(), 1).unwrap();
        assert_eq!(plan.ranges().len(), 1);
        assert_eq!(plan.extract(0).unwrap(), bytes);
    }

    #[test]
    fn extracted_shards_decode_to_their_op_ranges() {
        let tr = tiny_trace(9);
        let plan = ShardPlan::from_bytes(encode_indexed(&tr, 2), 4).unwrap();
        for (i, r) in plan.ranges().iter().enumerate() {
            let sub = codec::decode(&plan.extract(i).unwrap()).unwrap();
            assert_eq!(sub.model, tr.model);
            assert_eq!(
                sub.ops,
                tr.ops[r.first_op as usize..(r.first_op + r.ops) as usize]
            );
        }
    }

    #[test]
    fn coordinator_without_workers_is_an_error() {
        let tr = tiny_trace(3);
        let plan = ShardPlan::from_bytes(codec::encode(&tr).to_vec(), 2).unwrap();
        let coord = ShardCoordinator::new(Vec::new());
        assert!(matches!(
            coord.run(&plan, "fpraker"),
            Err(ShardError::NoWorkers)
        ));
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_spec_mixes() {
        let part = |first: u64, ops: usize, spec: &str| {
            (
                first,
                JobResult {
                    spec: spec.into(),
                    cycles: 0,
                    compute_cycles: 0,
                    macs: 0,
                    golden_failures: 0,
                    energy_pj: 0.0,
                    peak_resident_ops: 0,
                    ops: vec![
                        crate::protocol::OpReport {
                            phase: None,
                            cycles: 0,
                            compute_cycles: 0,
                            macs: 0,
                            energy_pj: 0.0,
                            golden_failures: 0,
                            counts: EventCounts::default(),
                        };
                        ops
                    ],
                },
            )
        };
        assert!(merge_job_results(Vec::new()).is_err());
        let gap = vec![part(0, 2, "fpraker"), part(3, 1, "fpraker")];
        assert!(merge_job_results(gap).unwrap_err().contains("contiguous"));
        let overlap = vec![part(0, 3, "fpraker"), part(2, 1, "fpraker")];
        assert!(merge_job_results(overlap)
            .unwrap_err()
            .contains("contiguous"));
        let mixed = vec![part(0, 1, "fpraker"), part(1, 1, "baseline")];
        assert!(merge_job_results(mixed).unwrap_err().contains("mix"));
        let unknown = vec![part(0, 1, "martian")];
        assert!(merge_job_results(unknown).unwrap_err().contains("unknown"));
        let ok = vec![part(1, 1, "fpraker"), part(0, 1, "fpraker")];
        assert_eq!(merge_job_results(ok).unwrap().ops.len(), 2);
    }
}
