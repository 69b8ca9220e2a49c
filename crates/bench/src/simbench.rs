//! The canonical simulator wall-clock measurement set, shared by the
//! `benches/simulator.rs` target (human-readable) and the `bench_sim`
//! binary (machine-readable `BENCH_sim.json`), so the two cannot drift
//! apart.
//!
//! Includes the `serve/*` service measurements: jobs submitted to an
//! in-process `fpraker-serve` server over loopback TCP, cold (distinct
//! trace per job: upload + simulate) vs cached (same trace: a
//! content-addressed hit answered without upload or simulation). The
//! `serve/pipelined_*` measurements drive the same job pool through the
//! tagged v3 protocol — whole mixed cold/cached batches in flight across
//! 4 connections — against the serial one-job-at-a-time
//! `serve/submit_mixed` baseline. The
//! `shard/*` measurements fan an indexed trace across 1/2/4 loopback
//! workers through the shard coordinator and time the ordered merge
//! fold on its own.
//!
//! Set `FPRAKER_BENCH_SMOKE=1` to shrink the disk-backed streaming and
//! service benchmarks to tiny traces — CI uses this so the full round
//! trips are exercised on every push without inflating the run.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::Arc;

use fpraker_core::{Pe, PeConfig, Tile, TileConfig};
use fpraker_dnn::{models, Engine as DnnEngine, FileTraceSink};
use fpraker_energy::EnergyModel;
use fpraker_num::encode::{encode_terms, lut_terms, Encoding};
use fpraker_num::reference::SplitMix64;
use fpraker_num::Bf16;
use fpraker_serve::protocol::{decode_result, encode_result};
use fpraker_serve::shard::merge_job_results;
use fpraker_serve::{
    Client, JobOptions, PipelinedConnection, Server, ServerConfig, ShardCoordinator, ShardPlan,
};
use fpraker_sim::{
    simulate_op, AcceleratorConfig, Engine, EngineTelemetry, FpRakerMachine, Machine,
};
use fpraker_trace::{codec, IndexedTraceFile};

use crate::harness::{bench, bench_pair, warmup_iters, Measurement};
use crate::workloads::{many_small_ops_bench_trace, synthetic_bench_trace, SyntheticTraceSpec};

/// Whether the smoke-mode env toggle (`FPRAKER_BENCH_SMOKE`) is set to a
/// non-empty, non-`0` value.
pub fn smoke_mode() -> bool {
    std::env::var("FPRAKER_BENCH_SMOKE").is_ok_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

/// The measurements every simulator benchmark reports.
#[derive(Clone, Debug)]
pub struct SimulatorBench {
    /// Worker count the parallel measurements resolved to.
    pub threads: usize,
    /// MACs in the fixed synthetic trace.
    pub macs: u64,
    /// MACs in the many-small-ops trace.
    pub small_ops_macs: u64,
    /// FPRaker, sequential reference engine (1 worker).
    pub seq: Measurement,
    /// The same sequential workload with telemetry runtime-disabled —
    /// the control [`SimulatorBench::telemetry_overhead`] divides by.
    pub seq_telemetry_off: Measurement,
    /// Stage timing deltas (decode/plan/run_unit/fold) of one
    /// instrumented sequential run over the fixed synthetic trace.
    pub telemetry: EngineTelemetry,
    /// FPRaker, one worker per core.
    pub par: Measurement,
    /// Bit-parallel baseline (analytic fast path).
    pub baseline: Measurement,
    /// Many-small-ops trace, ops scheduled one at a time (each op gets its
    /// own scoped fan-out and barrier — the pre-scheduler behavior).
    pub serial_ops: Measurement,
    /// Many-small-ops trace, ops and blocks scheduled together on the
    /// shared worker pool.
    pub parallel_ops: Measurement,
    /// Disk-backed trace simulated through the streaming path (incremental
    /// `Reader` → bounded op window).
    pub stream_streamed: Measurement,
    /// The same disk-backed trace fully loaded (`decode`) then simulated
    /// in memory.
    pub stream_inmemory: Measurement,
    /// Ops in the disk-backed streaming trace.
    pub stream_total_ops: u64,
    /// Bounded window the streamed runs used.
    pub stream_window: usize,
    /// Peak ops simultaneously resident during the streamed runs — the
    /// memory bound streaming buys (strictly below `stream_total_ops`).
    pub stream_peak_resident_ops: usize,
    /// An indexed disk trace simulated with one sequential decode cursor
    /// (`codec::Reader` → the bounded-window streaming path).
    pub decode_serial: Measurement,
    /// The same indexed disk trace simulated with one decode cursor per
    /// segment group (`Engine::run_indexed` parallel segment decode).
    pub decode_parallel: Measurement,
    /// Ops in the indexed decode trace.
    pub decode_total_ops: u64,
    /// Segments its index footer carries.
    pub decode_segments: usize,
    /// One training mini-batch captured into an in-memory `Trace`
    /// (`Workload::capture_trace`).
    pub capture_inmemory: Measurement,
    /// The same capture recorded straight to disk through the codec
    /// writer (`Workload::capture_trace_to` + `FileTraceSink`, indexed).
    pub capture_streamed: Measurement,
    /// Ops per capture.
    pub capture_ops: u64,
    /// Peak operand bytes the in-memory capture holds (the whole trace).
    pub capture_peak_bytes_inmemory: u64,
    /// Peak operand bytes the streamed capture holds (one op).
    pub capture_peak_bytes_streamed: u64,
    /// Trace submitted to an in-process `fpraker-serve` server over
    /// loopback TCP, every iteration a distinct trace (all cache misses:
    /// upload + simulate).
    pub serve_cold: Measurement,
    /// The same trace resubmitted to the server (all content-addressed
    /// cache hits: the header round trip alone, no upload, no simulation).
    pub serve_cached: Measurement,
    /// MACs per serve-bench job.
    pub serve_trace_macs: u64,
    /// Cache hits the server recorded across the serve measurements.
    pub serve_cache_hits: u64,
    /// Jobs per batch in the pipelined service measurements (each
    /// `serve/pipelined_*` iteration submits one whole batch).
    pub serve_pipelined_jobs: u64,
    /// Concurrent tagged-protocol connections the pipelined batches fan
    /// across.
    pub serve_pipelined_connections: u64,
    /// The mixed half-cold/half-cached batch submitted one job at a time
    /// through a `Client` (a fresh one-job connection per submission) —
    /// the serial baseline
    /// [`SimulatorBench::serve_pipelined_speedup`] divides by.
    pub serve_submit_mixed: Measurement,
    /// A batch of distinct cold jobs kept in flight across the pipelined
    /// connections (tagged v3 frames, out-of-order completion).
    pub serve_pipelined_cold: Measurement,
    /// The same batch shape with every job a content-addressed cache hit.
    pub serve_pipelined_cached: Measurement,
    /// Mixed traffic: cold and cached jobs interleaved across the
    /// pipelined connections.
    pub serve_pipelined_mixed: Measurement,
    /// An indexed trace fanned by the shard coordinator across 1 loopback
    /// worker (a single whole-trace shard — the distributed baseline every
    /// scaling ratio divides by).
    pub shard_workers_1: Measurement,
    /// The same fan-out across 2 single-job workers (segment-grouped
    /// range shards, merged in global op order).
    pub shard_workers_2: Measurement,
    /// The same fan-out across 4 single-job workers.
    pub shard_workers_4: Measurement,
    /// The ordered merge fold alone, on pre-simulated wire-format
    /// partials (no sockets, no simulation).
    pub shard_merge: Measurement,
    /// MACs per sharded job.
    pub shard_trace_macs: u64,
    /// Shards the 4-worker plan carved the trace into.
    pub shard_shards: usize,
    /// Sets per iteration of the PE hot-loop measurements.
    pub pe_sets: u64,
    /// The PE hot loop on the pre-SWAR LUT/SoA planned path: `pe_sets`
    /// fixed random 8-lane sets through `Pe::process_set` with
    /// `PeConfig::paper_planned()`.
    pub pe_set: Measurement,
    /// The same sets through the SWAR bit-sliced datapath
    /// (`Pe::process_planned_swar`, the default `PeConfig::paper()` route).
    pub pe_swar_set: Measurement,
    /// The same sets through the pinned scalar reference path
    /// (`Pe::process_set_scalar`: per-set `encode_terms` + heap lane state).
    pub pe_set_scalar: Measurement,
    /// Term encoding through the precomputed 256-entry tables (all 256
    /// significands × both encodings, repeated per iteration).
    pub pe_encode: Measurement,
    /// The same encodings computed from scratch with `encode_terms`.
    pub pe_encode_compute: Measurement,
    /// An 8×8 tile block on the pre-SWAR planned path: each column's
    /// shared A set is planned once and fed to all 8 PE rows.
    pub pe_planned_tile: Measurement,
    /// The same tile block with every PE row driven through the SWAR
    /// datapath (shared planning plus packed per-cycle passes).
    pub pe_swar_tile: Measurement,
    /// The same tile block with every PE on the scalar reference path
    /// (each PE re-encodes the shared A set itself).
    pub pe_tile_scalar: Measurement,
    /// Sets per stream in the tile measurements.
    pub pe_tile_sets: u64,
}

impl SimulatorBench {
    /// Parallel wall-clock speedup over the sequential engine (medians).
    pub fn parallel_speedup(&self) -> f64 {
        self.seq.median_ns as f64 / self.par.median_ns.max(1) as f64
    }

    /// Wall-clock cost of the telemetry hot path: the sequential run
    /// with telemetry enabled over the same run with it
    /// runtime-disabled (medians; ≈1.0, budgeted < 1.02).
    pub fn telemetry_overhead(&self) -> f64 {
        self.seq.median_ns as f64 / self.seq_telemetry_off.median_ns.max(1) as f64
    }

    /// Wall-clock speedup of op×block scheduling over per-op fan-out on
    /// the many-small-ops trace (medians).
    pub fn parallel_ops_speedup(&self) -> f64 {
        self.serial_ops.median_ns as f64 / self.parallel_ops.median_ns.max(1) as f64
    }

    /// Wall-clock overhead of streaming from disk vs simulating fully
    /// loaded (medians; ≈1.0 means streaming is free at this trace size).
    pub fn stream_overhead(&self) -> f64 {
        self.stream_streamed.median_ns as f64 / self.stream_inmemory.median_ns.max(1) as f64
    }

    /// Wall-clock speedup of parallel segment decode over the single
    /// sequential decode cursor on the indexed disk trace (medians).
    pub fn decode_speedup(&self) -> f64 {
        self.decode_serial.median_ns as f64 / self.decode_parallel.median_ns.max(1) as f64
    }

    /// How much less operand memory the streamed capture holds at its
    /// peak than the in-memory capture (whole trace ÷ one op).
    pub fn capture_memory_ratio(&self) -> f64 {
        self.capture_peak_bytes_inmemory as f64 / self.capture_peak_bytes_streamed.max(1) as f64
    }

    /// Service throughput on cold submissions (upload + simulate),
    /// jobs per second at the median.
    pub fn serve_cold_jobs_per_sec(&self) -> f64 {
        1e9 / self.serve_cold.median_ns.max(1) as f64
    }

    /// Service throughput on cache hits, jobs per second at the median.
    pub fn serve_cached_jobs_per_sec(&self) -> f64 {
        1e9 / self.serve_cached.median_ns.max(1) as f64
    }

    /// How much faster a cache hit is than a cold submission (medians).
    pub fn serve_cache_speedup(&self) -> f64 {
        self.serve_cold.median_ns as f64 / self.serve_cached.median_ns.max(1) as f64
    }

    /// Pipelined cold throughput, jobs per second at the median batch
    /// time.
    pub fn serve_pipelined_cold_jobs_per_sec(&self) -> f64 {
        self.serve_pipelined_jobs as f64 * 1e9 / self.serve_pipelined_cold.median_ns.max(1) as f64
    }

    /// Pipelined cache-hit throughput, jobs per second at the median
    /// batch time.
    pub fn serve_pipelined_cached_jobs_per_sec(&self) -> f64 {
        self.serve_pipelined_jobs as f64 * 1e9 / self.serve_pipelined_cached.median_ns.max(1) as f64
    }

    /// Pipelined mixed-traffic throughput, jobs per second at the median
    /// batch time.
    pub fn serve_pipelined_mixed_jobs_per_sec(&self) -> f64 {
        self.serve_pipelined_jobs as f64 * 1e9 / self.serve_pipelined_mixed.median_ns.max(1) as f64
    }

    /// Serial mixed-traffic throughput, jobs per second at the median
    /// batch time (the baseline the pipelined speedup divides by).
    pub fn serve_submit_mixed_jobs_per_sec(&self) -> f64 {
        self.serve_pipelined_jobs as f64 * 1e9 / self.serve_submit_mixed.median_ns.max(1) as f64
    }

    /// Wall-clock speedup of the pipelined mixed batch over the same
    /// batch submitted serially over one connection (medians).
    pub fn serve_pipelined_speedup(&self) -> f64 {
        self.serve_submit_mixed.median_ns as f64
            / self.serve_pipelined_mixed.median_ns.max(1) as f64
    }

    /// Sharded-run wall-clock speedup of 2 workers over the 1-worker
    /// whole-trace shard (medians).
    pub fn shard_scaling_2(&self) -> f64 {
        self.shard_workers_1.median_ns as f64 / self.shard_workers_2.median_ns.max(1) as f64
    }

    /// Sharded-run wall-clock speedup of 4 workers over the 1-worker
    /// whole-trace shard (medians).
    pub fn shard_scaling_4(&self) -> f64 {
        self.shard_workers_1.median_ns as f64 / self.shard_workers_4.median_ns.max(1) as f64
    }

    /// The ordered merge fold as a fraction of a whole 1-worker sharded
    /// run (medians) — how much of the distributed round trip the
    /// coordinator's own bookkeeping costs.
    pub fn shard_merge_overhead(&self) -> f64 {
        self.shard_merge.median_ns as f64 / self.shard_workers_1.median_ns.max(1) as f64
    }

    /// PE hot-loop speedup of the planned fast path over the scalar
    /// reference (medians).
    pub fn pe_set_speedup(&self) -> f64 {
        self.pe_set_scalar.median_ns as f64 / self.pe_set.median_ns.max(1) as f64
    }

    /// PE hot-loop speedup of the SWAR datapath over the pre-SWAR planned
    /// path (medians).
    pub fn pe_swar_speedup(&self) -> f64 {
        self.pe_set.median_ns as f64 / self.pe_swar_set.median_ns.max(1) as f64
    }

    /// Tile-block speedup of the SWAR datapath over the planned path
    /// (medians).
    pub fn pe_swar_tile_speedup(&self) -> f64 {
        self.pe_planned_tile.median_ns as f64 / self.pe_swar_tile.median_ns.max(1) as f64
    }

    /// Term-encode speedup of the LUT over computing encodings from
    /// scratch (medians).
    pub fn pe_encode_speedup(&self) -> f64 {
        self.pe_encode_compute.median_ns as f64 / self.pe_encode.median_ns.max(1) as f64
    }

    /// Tile-block speedup of shared A-set planning over per-PE scalar
    /// re-encoding (medians).
    pub fn pe_tile_speedup(&self) -> f64 {
        self.pe_tile_scalar.median_ns as f64 / self.pe_planned_tile.median_ns.max(1) as f64
    }
}

/// Times the fixed synthetic trace on both machines at 1 thread and at the
/// machine's core count, plus the many-small-ops trace under per-op
/// fan-out vs the op×block scheduler (each measurement prints its summary
/// line).
pub fn simulator_measurements(iters: u32) -> SimulatorBench {
    // PE micro-benchmarks: the hot loop every end-to-end number below
    // multiplies. Fixed random operand sets (deterministic seed), timed on
    // the LUT/SoA fast path vs the pinned scalar reference; the term-encode
    // LUT vs computing encodings from scratch; and one tile block with
    // shared A-set planning vs per-PE scalar re-encoding.
    let pe_cfg = PeConfig::paper();
    let pe_sets: u64 = if smoke_mode() { 512 } else { 4096 };
    let mut pe_rng = SplitMix64::new(0x9E37);
    let mut gen_operands = |n: usize| -> Vec<Bf16> {
        (0..n)
            .map(|_| {
                if pe_rng.next_u64().is_multiple_of(10) {
                    Bf16::ZERO
                } else {
                    pe_rng.bf16_in_range(6)
                }
            })
            .collect()
    };
    let pe_inputs: Vec<(Vec<Bf16>, Vec<Bf16>)> = (0..pe_sets)
        .map(|_| (gen_operands(pe_cfg.lanes), gen_operands(pe_cfg.lanes)))
        .collect();
    let pe_macs = pe_sets * pe_cfg.lanes as u64;
    let mut planned_pe = Pe::new(PeConfig::paper_planned());
    let pe_set = bench("fpraker/pe_set", iters, Some(pe_macs), || {
        planned_pe.reset_output();
        let mut cycles = 0u64;
        for (a, b) in &pe_inputs {
            cycles += planned_pe.process_set(a, b).cycles;
        }
        cycles
    });
    let mut swar_pe = Pe::new(pe_cfg);
    let pe_swar_set = bench("fpraker/pe_swar_set", iters, Some(pe_macs), || {
        swar_pe.reset_output();
        let mut cycles = 0u64;
        for (a, b) in &pe_inputs {
            cycles += swar_pe.process_set(a, b).cycles;
        }
        cycles
    });
    let mut scalar_pe = Pe::new(PeConfig::paper_scalar_reference());
    let pe_set_scalar = bench("fpraker/pe_set_scalar", iters, Some(pe_macs), || {
        scalar_pe.reset_output();
        let mut cycles = 0u64;
        for (a, b) in &pe_inputs {
            cycles += scalar_pe.process_set_scalar(a, b).cycles;
        }
        cycles
    });

    // 64 passes over all 256 significands × both encodings per iteration.
    const ENCODE_REPS: u64 = 64;
    let encode_count = ENCODE_REPS * 256 * 2;
    let pe_encode = bench("fpraker/pe_encode", iters, Some(encode_count), || {
        let mut total = 0usize;
        for _ in 0..ENCODE_REPS {
            for enc in [Encoding::Canonical, Encoding::RawBits] {
                for s in 0..=255u8 {
                    total += lut_terms(s, enc).len();
                }
            }
        }
        total
    });
    let pe_encode_compute = bench(
        "fpraker/pe_encode_compute",
        iters,
        Some(encode_count),
        || {
            let mut total = 0usize;
            for _ in 0..ENCODE_REPS {
                for enc in [Encoding::Canonical, Encoding::RawBits] {
                    for s in 0..=255u8 {
                        total += encode_terms(s, enc).len();
                    }
                }
            }
            total
        },
    );

    let tile_cfg = TileConfig::paper();
    let pe_tile_sets: u64 = if smoke_mode() { 8 } else { 32 };
    let tile_a: Vec<Vec<Bf16>> = (0..tile_cfg.cols)
        .map(|_| gen_operands(pe_tile_sets as usize * tile_cfg.pe.lanes))
        .collect();
    let tile_b: Vec<Vec<Bf16>> = (0..tile_cfg.rows)
        .map(|_| gen_operands(pe_tile_sets as usize * tile_cfg.pe.lanes))
        .collect();
    let tile_macs = tile_cfg.num_pes() as u64 * pe_tile_sets * tile_cfg.pe.lanes as u64;
    let mut planned_tile = Tile::new(TileConfig {
        pe: PeConfig::paper_planned(),
        ..tile_cfg
    });
    let pe_planned_tile = bench("fpraker/pe_planned_tile", iters, Some(tile_macs), || {
        planned_tile.run_block(&tile_a, &tile_b).cycles
    });
    let mut swar_tile = Tile::new(tile_cfg);
    let pe_swar_tile = bench("fpraker/pe_swar_tile", iters, Some(tile_macs), || {
        swar_tile.run_block(&tile_a, &tile_b).cycles
    });
    let mut scalar_tile = Tile::new(TileConfig {
        pe: PeConfig::paper_scalar_reference(),
        ..tile_cfg
    });
    let pe_tile_scalar = bench("fpraker/pe_tile_scalar", iters, Some(tile_macs), || {
        scalar_tile.run_block(&tile_a, &tile_b).cycles
    });

    let trace = synthetic_bench_trace();
    let macs = trace.macs();
    let threads = Engine::new().resolved_threads();
    // The telemetry on/off pair: same engine, same trace, counters and
    // spans runtime-toggled per closure — the off side is the denominator
    // of the <2% overhead budget. Interleaved so wall-clock drift cannot
    // masquerade as overhead; the ratio this feeds is a few percent at
    // most, well inside back-to-back run-to-run noise. On a suite
    // compiled with `telemetry-off` both sides take the no-op path and
    // the ratio pins at ~1 by construction.
    let (seq, seq_telemetry_off) = bench_pair(
        "fpraker/threads_1",
        "fpraker/threads_1_telemetry_off",
        iters,
        Some(macs),
        || {
            fpraker_telemetry::set_enabled(true);
            Engine::with_threads(1).run(
                Machine::FpRaker,
                &trace,
                &AcceleratorConfig::fpraker_paper(),
            )
        },
        || {
            fpraker_telemetry::set_enabled(false);
            Engine::with_threads(1).run(
                Machine::FpRaker,
                &trace,
                &AcceleratorConfig::fpraker_paper(),
            )
        },
    );
    fpraker_telemetry::set_enabled(true);
    // Stage fractions (decode/plan/run_unit/fold) from one instrumented
    // sequential run of the same trace.
    let (_, telemetry) = Engine::with_threads(1).run_with_telemetry(
        Machine::FpRaker,
        &trace,
        &AcceleratorConfig::fpraker_paper(),
    );
    let par = bench(
        &format!("fpraker/parallel_threads_{threads}"),
        iters,
        Some(macs),
        || {
            Engine::new().run(
                Machine::FpRaker,
                &trace,
                &AcceleratorConfig::fpraker_paper(),
            )
        },
    );
    let baseline = bench("baseline/threads_1", iters, Some(macs), || {
        Engine::with_threads(1).run(
            Machine::Baseline,
            &trace,
            &AcceleratorConfig::baseline_paper(),
        )
    });
    let small = many_small_ops_bench_trace();
    let small_ops_macs = small.macs();
    let cfg = AcceleratorConfig::fpraker_paper();
    // Per-op fan-out: each `simulate_op` call fans its own blocks out and
    // joins before the next op starts — 64 barrier-separated fan-outs.
    let serial_ops = bench(
        &format!("fpraker/serial_ops_threads_{threads}"),
        iters,
        Some(small_ops_macs),
        || {
            small
                .ops
                .iter()
                .map(|op| simulate_op::<FpRakerMachine>(op, &cfg, threads))
                .collect::<Vec<_>>()
        },
    );
    let parallel_ops = bench(
        &format!("fpraker/parallel_ops_threads_{threads}"),
        iters,
        Some(small_ops_macs),
        || Engine::new().run(Machine::FpRaker, &small, &cfg),
    );

    // Streaming benchmark: write a synthetic many-op trace to disk once,
    // then time simulating it streamed (incremental decode, bounded op
    // window) vs fully loaded. Smoke mode shrinks the trace so CI
    // exercises the disk round trip cheaply.
    let spec = SyntheticTraceSpec::stream_bench(if smoke_mode() { 12 } else { 96 });
    let window = usize::max(2, spec.ops as usize / 4);
    let path: PathBuf =
        std::env::temp_dir().join(format!("fpraker_stream_bench_{}.trace", std::process::id()));
    let file = BufWriter::new(File::create(&path).expect("create stream bench trace"));
    spec.write_to(file).expect("write stream bench trace");
    let stream_engine = Engine::new().stream_window(window);
    let mut peak = 0usize;
    let stream_streamed = bench(
        &format!("fpraker/stream_streamed_threads_{threads}"),
        iters,
        Some(spec.macs()),
        || {
            let reader = codec::Reader::new(BufReader::new(
                File::open(&path).expect("open stream bench trace"),
            ))
            .expect("stream bench trace header");
            let run = stream_engine
                .run_source(Machine::FpRaker, reader, &cfg)
                .expect("stream bench trace is well-formed");
            peak = peak.max(run.peak_resident_ops);
            run
        },
    );
    let stream_inmemory = bench(
        &format!("fpraker/stream_inmemory_threads_{threads}"),
        iters,
        Some(spec.macs()),
        || {
            let bytes = std::fs::read(&path).expect("read stream bench trace");
            let trace = codec::decode(&bytes).expect("decode stream bench trace");
            Engine::new().run(Machine::FpRaker, &trace, &cfg)
        },
    );
    std::fs::remove_file(&path).ok();

    // Decode benchmark: the same synthetic trace written *indexed*, then
    // simulated with one sequential decode cursor vs one cursor per
    // segment group. On one core both degenerate; on multi-core the
    // parallel cursors stop the worker pool starving on a single reader.
    let decode_spec = SyntheticTraceSpec::stream_bench(if smoke_mode() { 12 } else { 96 });
    let decode_path: PathBuf =
        std::env::temp_dir().join(format!("fpraker_decode_bench_{}.trace", std::process::id()));
    let file = BufWriter::new(File::create(&decode_path).expect("create decode bench trace"));
    decode_spec
        .write_indexed_to(file, (decode_spec.ops / 8).max(1))
        .expect("write decode bench trace");
    let decode_segments = IndexedTraceFile::open(&decode_path)
        .expect("reopen decode bench trace")
        .segments()
        .len();
    let decode_serial = bench(
        &format!("fpraker/decode_serial_threads_{threads}"),
        iters,
        Some(decode_spec.macs()),
        || {
            let reader = codec::Reader::new(BufReader::new(
                File::open(&decode_path).expect("open decode bench trace"),
            ))
            .expect("decode bench trace header");
            Engine::new()
                .run_source(Machine::FpRaker, reader, &cfg)
                .expect("decode bench trace is well-formed")
        },
    );
    let decode_parallel = bench(
        &format!("fpraker/decode_parallel_threads_{threads}"),
        iters,
        Some(decode_spec.macs()),
        || {
            Engine::new()
                .run_indexed(Machine::FpRaker, &decode_path, &cfg)
                .expect("decode bench trace is well-formed")
        },
    );
    std::fs::remove_file(&decode_path).ok();

    // Capture benchmark: one training mini-batch recorded as a trace,
    // in-memory (`capture_trace` materializes the whole `Trace`) vs
    // streamed to disk through the codec writer (`capture_trace_to`
    // holds one op). The peak-byte figures are the operand buffers each
    // mode keeps resident at its worst moment.
    let mut capture_workload = models::build("ncf");
    let mut capture_engine = DnnEngine::f32();
    let reference_capture = capture_workload.capture_trace(&mut capture_engine, 50);
    let capture_ops = reference_capture.ops.len() as u64;
    let op_bytes = |op: &fpraker_trace::TraceOp| 2 * (op.a.len() + op.b.len()) as u64;
    let capture_peak_bytes_inmemory: u64 = reference_capture.ops.iter().map(op_bytes).sum();
    let capture_peak_bytes_streamed: u64 = reference_capture
        .ops
        .iter()
        .map(op_bytes)
        .max()
        .unwrap_or(0);
    let capture_inmemory = bench(
        "dnn/capture_inmemory",
        iters,
        Some(reference_capture.macs()),
        || capture_workload.capture_trace(&mut capture_engine, 50),
    );
    let capture_path: PathBuf = std::env::temp_dir().join(format!(
        "fpraker_capture_bench_{}.trace",
        std::process::id()
    ));
    let capture_streamed = bench(
        "dnn/capture_streamed",
        iters,
        Some(reference_capture.macs()),
        || {
            let sink = FileTraceSink::create_indexed(&capture_path, "ncf", 50, 0)
                .expect("create capture bench trace");
            capture_workload
                .capture_trace_to(&mut capture_engine, Box::new(sink))
                .expect("streamed capture")
        },
    );
    std::fs::remove_file(&capture_path).ok();

    // Service benchmark: an in-process server on a loopback port. Cold
    // submissions use a distinct trace per iteration (seed varies) so
    // every job uploads and simulates; cached submissions resubmit one
    // trace so every job is a content-addressed hit. Extra cold variants
    // cover the harness's untimed warm-up calls.
    let serve_ops = if smoke_mode() { 4 } else { 12 };
    let serve_spec = |seed: u64| SyntheticTraceSpec {
        model: format!("serve-bench-{seed}"),
        ops: serve_ops,
        m: 16,
        n: 16,
        k: 32,
        zero_fraction: 0.4,
        seed,
    };
    let serve_trace_macs = serve_spec(0).macs();
    let cold_variants: Vec<Vec<u8>> = (0..u64::from(iters + warmup_iters(iters)))
        .map(|i| {
            let mut bytes = Vec::new();
            serve_spec(0xC01D + i).write_to(&mut bytes).expect("encode");
            bytes
        })
        .collect();
    let server = Server::start(ServerConfig {
        jobs: 1,
        threads_per_job: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback for the serve bench");
    let client = Client::connect(server.local_addr()).expect("resolve loopback");
    let mut next_cold = 0usize;
    let serve_cold = bench("serve/submit_cold", iters, Some(serve_trace_macs), || {
        let response = client
            .submit_encoded(&cold_variants[next_cold], "fpraker")
            .expect("cold submission");
        assert!(!response.cached, "cold submissions must simulate");
        next_cold += 1;
        response
    });
    let warm_bytes = &cold_variants[0]; // warmed up by the untimed calls
    let serve_cached = bench("serve/submit_cached", iters, Some(serve_trace_macs), || {
        let response = client
            .submit_encoded(warm_bytes, "fpraker")
            .expect("cached submission");
        assert!(response.cached, "resubmissions must hit the cache");
        response
    });
    let serve_cache_hits = server.cache_stats().hits;
    server.shutdown();

    // Pipelined service benchmark: the same job pool, now driven through
    // the tagged v3 protocol with many jobs in flight per connection.
    // Each iteration submits one batch of `pipe_jobs` jobs striped across
    // 4 persistent `PipelinedConnection`s (a bounded in-flight window per
    // connection, one driver thread each) against a 2-job server.
    // `pipelined_cold` uses a distinct trace per job, `pipelined_cached`
    // resubmits one warm trace, and `pipelined_mixed` interleaves the
    // two; the same mixed batch submitted one job at a time through a
    // `Client`, one short-lived connection per job (`serve/submit_mixed`),
    // is the serial baseline `serve_pipelined_speedup` divides by. The
    // cache is sized to hold every variant so the warm trace is never
    // evicted mid-measurement.
    let pipe_jobs: u64 = if smoke_mode() { 8 } else { 16 };
    let pipe_conns: usize = 4;
    const PIPE_WINDOW: usize = 4;
    let pipe_spec = |seed: u64| SyntheticTraceSpec {
        model: format!("pipe-bench-{seed}"),
        ops: serve_ops,
        m: 16,
        n: 16,
        k: 32,
        zero_fraction: 0.4,
        seed,
    };
    let encode_pipe = |seed: u64| {
        let mut bytes = Vec::new();
        pipe_spec(seed)
            .write_to(&mut bytes)
            .expect("encode pipelined bench trace");
        bytes
    };
    let pipe_warm = encode_pipe(0x3A93);
    // Cold pool: every cold job of every batch (timed and warm-up alike)
    // consumes one distinct variant, so no cold job ever hits the cache.
    // Per round: a full cold batch plus half-cold batches for the serial
    // and pipelined mixed measurements.
    let pipe_rounds = u64::from(iters + warmup_iters(iters));
    let pipe_cold_pool: Vec<Vec<u8>> = (0..pipe_rounds * 2 * pipe_jobs)
        .map(|i| encode_pipe(0x41B0 + i))
        .collect();
    let mut next_pipe_cold = 0usize;
    let pipe_server = Server::start(ServerConfig {
        jobs: 2,
        threads_per_job: 1,
        cache_entries: pipe_cold_pool.len() + 16,
        ..ServerConfig::default()
    })
    .expect("bind loopback for the pipelined bench");
    let pipe_addr = pipe_server.local_addr();
    let serial_client = Client::connect(pipe_addr).expect("serial baseline client");
    let warm_response = serial_client
        .submit_encoded(&pipe_warm, "fpraker")
        .expect("warm the pipelined cache");
    assert!(!warm_response.cached, "the warm trace must be fresh");
    let conns: Vec<PipelinedConnection> = (0..pipe_conns)
        .map(|_| PipelinedConnection::connect(pipe_addr).expect("pipelined bench connect"))
        .collect();
    // Submits one batch striped over all pipelined connections, each
    // driver thread keeping up to PIPE_WINDOW jobs in flight; returns how
    // many jobs were answered from the cache.
    let run_batch = |payloads: &[&[u8]]| -> u64 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter()
                .enumerate()
                .map(|(t, conn)| {
                    scope.spawn(move || {
                        let mut cached = 0u64;
                        let mut window = VecDeque::with_capacity(PIPE_WINDOW);
                        for payload in payloads.iter().skip(t).step_by(pipe_conns) {
                            if window.len() == PIPE_WINDOW {
                                let done: fpraker_serve::JobResponse = window
                                    .pop_front()
                                    .map(fpraker_serve::PendingJob::wait)
                                    .unwrap()
                                    .expect("pipelined bench job");
                                cached += u64::from(done.cached);
                            }
                            window.push_back(
                                conn.start_encoded(payload, "fpraker", JobOptions::default())
                                    .expect("start pipelined bench job"),
                            );
                        }
                        for job in window {
                            cached += u64::from(job.wait().expect("pipelined bench job").cached);
                        }
                        cached
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pipelined bench driver thread"))
                .sum()
        })
    };
    let pipe_batch_macs = pipe_jobs * serve_trace_macs;
    let serve_pipelined_cold = bench("serve/pipelined_cold", iters, Some(pipe_batch_macs), || {
        let batch: Vec<&[u8]> = pipe_cold_pool[next_pipe_cold..next_pipe_cold + pipe_jobs as usize]
            .iter()
            .map(Vec::as_slice)
            .collect();
        next_pipe_cold += pipe_jobs as usize;
        let cached = run_batch(&batch);
        assert_eq!(cached, 0, "cold pipelined jobs must simulate");
    });
    let serve_pipelined_cached = bench(
        "serve/pipelined_cached",
        iters,
        Some(pipe_batch_macs),
        || {
            let batch: Vec<&[u8]> = (0..pipe_jobs).map(|_| pipe_warm.as_slice()).collect();
            let cached = run_batch(&batch);
            assert_eq!(cached, pipe_jobs, "warm pipelined jobs must hit the cache");
        },
    );
    // The mixed workload both the serial baseline and the pipelined
    // measurement submit: cold and cached jobs interleaved.
    let next_mixed_batch = |pool: &mut usize| -> Vec<usize> {
        let cold_base = *pool;
        *pool += (pipe_jobs / 2) as usize;
        (0..pipe_jobs as usize)
            .map(|j| {
                if j % 2 == 0 {
                    cold_base + j / 2
                } else {
                    usize::MAX
                }
            })
            .collect()
    };
    let serve_submit_mixed = bench("serve/submit_mixed", iters, Some(pipe_batch_macs), || {
        let mut cached = 0u64;
        for idx in next_mixed_batch(&mut next_pipe_cold) {
            let payload = if idx == usize::MAX {
                pipe_warm.as_slice()
            } else {
                pipe_cold_pool[idx].as_slice()
            };
            let response = serial_client
                .submit_encoded(payload, "fpraker")
                .expect("serial mixed submission");
            cached += u64::from(response.cached);
        }
        assert_eq!(cached, pipe_jobs / 2, "the warm half must hit the cache");
    });
    let serve_pipelined_mixed = bench(
        "serve/pipelined_mixed",
        iters,
        Some(pipe_batch_macs),
        || {
            let batch: Vec<&[u8]> = next_mixed_batch(&mut next_pipe_cold)
                .into_iter()
                .map(|idx| {
                    if idx == usize::MAX {
                        pipe_warm.as_slice()
                    } else {
                        pipe_cold_pool[idx].as_slice()
                    }
                })
                .collect();
            let cached = run_batch(&batch);
            assert!(
                cached >= pipe_jobs / 2,
                "the warm half of a mixed batch must hit the cache"
            );
        },
    );
    // Untimed determinism check: fresh cold traces plus the warm one
    // through a pipelined connection, every response compared whole
    // against a local Engine::run rendered through the same wire codec.
    let verify_energy = EnergyModel::paper();
    for bytes in (0..4)
        .map(|i| encode_pipe(0x7E57 + i))
        .chain(std::iter::once(pipe_warm.clone()))
    {
        let response = conns[0]
            .start_encoded(&bytes, "fpraker", JobOptions::default())
            .expect("start pipelined verify job")
            .wait()
            .expect("pipelined verify job");
        let trace = codec::decode(&bytes).expect("decode pipelined verify trace");
        let local = Engine::with_threads(1).run(Machine::FpRaker, &trace, &cfg);
        let mut local_wire = decode_result(&encode_result(
            "fpraker",
            &local,
            trace.ops.len() as u64,
            &verify_energy,
        ))
        .expect("decode local verify result");
        // peak_resident_ops is a streaming-window watermark, not a
        // simulation outcome: the server streams uploads through a
        // bounded window while the local run holds the whole trace.
        local_wire.peak_resident_ops = response.result.peak_resident_ops;
        assert_eq!(
            response.result, local_wire,
            "pipelined results must be bit-identical to a local run"
        );
    }
    let pipe_stats = pipe_server.stats();
    assert_eq!(
        pipe_stats.busy_rejections, 0,
        "the pipelined bench must stay under the BUSY queue depth"
    );
    drop(conns);
    let _ = serial_client;
    pipe_server.shutdown();

    // Shard benchmark: the coordinator `fpraker-shard` wraps, fanning an
    // indexed trace across 1/2/4 single-job loopback workers. Every
    // iteration plans and submits a distinct trace (seed varies) against
    // fresh-cache servers, so each timed run is the distributed cold path
    // end to end: partition, range submission, upload, simulation, and
    // the ordered merge. `shard/merge` then times the merge fold alone on
    // pre-simulated wire-format partials, isolating the coordinator's own
    // bookkeeping from the simulation it orchestrates.
    let shard_ops: u32 = if smoke_mode() { 8 } else { 24 };
    let shard_spec = |seed: u64| SyntheticTraceSpec {
        model: format!("shard-bench-{seed}"),
        ops: shard_ops,
        m: 16,
        n: 16,
        k: 32,
        zero_fraction: 0.4,
        seed,
    };
    let shard_trace_macs = shard_spec(0).macs();
    let shard_stride = (shard_ops / 4).max(1);
    // One distinct indexed trace per call (timed and warm-up alike) per
    // worker count, so no sharded run ever hits a warm cache.
    let shard_variants: Vec<Arc<[u8]>> = (0..3 * u64::from(iters + warmup_iters(iters)))
        .map(|i| {
            let mut bytes = Vec::new();
            shard_spec(0x5AAD + i)
                .write_indexed_to(&mut bytes, shard_stride)
                .expect("encode shard bench trace");
            Arc::from(bytes)
        })
        .collect();
    let mut next_shard = 0usize;
    let mut run_shards = |workers: usize| -> (Measurement, usize) {
        let servers: Vec<Server> = (0..workers)
            .map(|_| {
                Server::start(ServerConfig {
                    jobs: 1,
                    threads_per_job: 1,
                    ..ServerConfig::default()
                })
                .expect("bind loopback for the shard bench")
            })
            .collect();
        let coord =
            ShardCoordinator::new(servers.iter().map(|s| s.local_addr().to_string()).collect());
        let mut shards_used = 0usize;
        let m = bench(
            &format!("shard/workers_{workers}"),
            iters,
            Some(shard_trace_macs),
            || {
                let plan = ShardPlan::from_bytes(shard_variants[next_shard].clone(), workers)
                    .expect("plan shard bench trace");
                next_shard += 1;
                let run = coord.run(&plan, "fpraker").expect("sharded bench run");
                assert!(
                    run.shards.iter().all(|o| !o.cached),
                    "cold sharded runs must simulate"
                );
                shards_used = run.shards.len();
                run
            },
        );
        for s in servers {
            s.shutdown();
        }
        (m, shards_used)
    };
    let (shard_workers_1, _) = run_shards(1);
    let (shard_workers_2, _) = run_shards(2);
    let (shard_workers_4, shard_shards) = run_shards(4);

    // Pre-simulate one trace's 4-way shards into the exact wire partials
    // a worker would return, then time the merge fold alone.
    let merge_plan =
        ShardPlan::from_bytes(shard_variants[0].clone(), 4).expect("plan merge bench trace");
    let energy_model = EnergyModel::paper();
    let merge_partials: Vec<_> = (0..merge_plan.ranges().len())
        .map(|i| {
            let bytes = merge_plan.extract(i).expect("extract merge bench shard");
            let trace = codec::decode(&bytes).expect("decode merge bench shard");
            let run = Engine::with_threads(1).run(Machine::FpRaker, &trace, &cfg);
            let payload = encode_result("fpraker", &run, trace.ops.len() as u64, &energy_model);
            let partial = decode_result(&payload).expect("decode merge bench partial");
            (u64::from(merge_plan.ranges()[i].first_op), partial)
        })
        .collect();
    let shard_merge = bench("shard/merge", iters, Some(u64::from(shard_ops)), || {
        merge_job_results(merge_partials.iter().cloned()).expect("merge bench partials")
    });

    SimulatorBench {
        threads,
        macs,
        small_ops_macs,
        seq,
        seq_telemetry_off,
        telemetry,
        par,
        baseline,
        serial_ops,
        parallel_ops,
        stream_streamed,
        stream_inmemory,
        stream_total_ops: u64::from(spec.ops),
        stream_window: window,
        stream_peak_resident_ops: peak,
        decode_serial,
        decode_parallel,
        decode_total_ops: u64::from(decode_spec.ops),
        decode_segments,
        capture_inmemory,
        capture_streamed,
        capture_ops,
        capture_peak_bytes_inmemory,
        capture_peak_bytes_streamed,
        serve_cold,
        serve_cached,
        serve_trace_macs,
        serve_cache_hits,
        serve_pipelined_jobs: pipe_jobs,
        serve_pipelined_connections: pipe_conns as u64,
        serve_submit_mixed,
        serve_pipelined_cold,
        serve_pipelined_cached,
        serve_pipelined_mixed,
        shard_workers_1,
        shard_workers_2,
        shard_workers_4,
        shard_merge,
        shard_trace_macs,
        shard_shards,
        pe_sets,
        pe_set,
        pe_swar_set,
        pe_set_scalar,
        pe_encode,
        pe_encode_compute,
        pe_planned_tile,
        pe_swar_tile,
        pe_tile_scalar,
        pe_tile_sets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_set_is_complete_and_consistent() {
        let b = simulator_measurements(1);
        assert_eq!(b.seq.elements, Some(b.macs));
        assert_eq!(b.par.elements, Some(b.macs));
        assert_eq!(b.baseline.elements, Some(b.macs));
        // Telemetry entries: the on/off control ran the same workload,
        // the overhead ratio is a sane number, and the instrumented run
        // produced stage timings that fold into fractions of 1.
        assert_eq!(b.seq_telemetry_off.elements, Some(b.macs));
        assert!(b.seq_telemetry_off.name.contains("telemetry_off"));
        assert!(b.telemetry_overhead() > 0.0);
        assert!(b.telemetry.wall_ns > 0);
        if fpraker_telemetry::compiled() {
            assert!(b.telemetry.units > 0, "instrumented run counted units");
            assert!(b.telemetry.stage_total_ns() > 0);
            let f = b.telemetry.stage_fraction(b.telemetry.plan_ns)
                + b.telemetry.stage_fraction(b.telemetry.decode_ns)
                + b.telemetry.stage_fraction(b.telemetry.run_unit_ns)
                + b.telemetry.stage_fraction(b.telemetry.fold_ns);
            assert!((f - 1.0).abs() < 1e-9, "stage fractions sum to 1, got {f}");
        }
        assert_eq!(b.serial_ops.elements, Some(b.small_ops_macs));
        assert_eq!(b.parallel_ops.elements, Some(b.small_ops_macs));
        assert!(b.threads >= 1);
        assert!(b.parallel_speedup() > 0.0);
        assert!(b.parallel_ops_speedup() > 0.0);
        assert!(b.par.name.contains(&b.threads.to_string()));
        assert!(b.serial_ops.name.contains("serial_ops"));
        assert!(b.parallel_ops.name.contains("parallel_ops"));
        // Streaming entries: the disk round trip ran, and the bounded
        // window kept residency strictly below the trace length.
        assert!(b.stream_streamed.name.starts_with("fpraker/stream_"));
        assert!(b.stream_inmemory.name.starts_with("fpraker/stream_"));
        assert!(b.stream_overhead() > 0.0);
        assert!(b.stream_total_ops > 0);
        assert!(b.stream_peak_resident_ops >= 1);
        assert!(b.stream_peak_resident_ops <= b.stream_window);
        assert!(
            (b.stream_peak_resident_ops as u64) < b.stream_total_ops,
            "peak {} must stay below the {}-op trace",
            b.stream_peak_resident_ops,
            b.stream_total_ops
        );
        // Decode entries: the indexed trace actually carried segments and
        // both decode modes ran it.
        assert!(b.decode_serial.name.contains("decode_serial"));
        assert!(b.decode_parallel.name.contains("decode_parallel"));
        assert!(b.decode_segments > 1, "indexed trace must have segments");
        assert!(b.decode_total_ops > 0);
        assert!(b.decode_speedup() > 0.0);
        // Capture entries: ops were recorded, and streaming holds at most
        // one op's operands where the in-memory capture holds them all.
        assert_eq!(b.capture_inmemory.name, "dnn/capture_inmemory");
        assert_eq!(b.capture_streamed.name, "dnn/capture_streamed");
        assert!(b.capture_ops > 1);
        assert!(b.capture_peak_bytes_streamed > 0);
        assert!(
            b.capture_peak_bytes_streamed < b.capture_peak_bytes_inmemory,
            "streamed capture must hold less than the whole trace"
        );
        assert!(b.capture_memory_ratio() > 1.0);
        // Service entries: jobs flowed, the cache was hit, and a hit is
        // never slower than a cold simulate-and-upload round trip.
        assert_eq!(b.serve_cold.name, "serve/submit_cold");
        assert_eq!(b.serve_cached.name, "serve/submit_cached");
        assert!(b.serve_cold_jobs_per_sec() > 0.0);
        assert!(b.serve_cached_jobs_per_sec() > 0.0);
        assert!(b.serve_cache_hits >= 1);
        assert!(b.serve_cache_speedup() > 0.0);
        assert_eq!(b.serve_cold.elements, Some(b.serve_trace_macs));
        // Pipelined entries: batches flowed over ≥4 tagged connections,
        // every measurement timed the same batch shape, and the
        // throughput/speedup ratios are well-formed.
        assert_eq!(b.serve_pipelined_cold.name, "serve/pipelined_cold");
        assert_eq!(b.serve_pipelined_cached.name, "serve/pipelined_cached");
        assert_eq!(b.serve_pipelined_mixed.name, "serve/pipelined_mixed");
        assert_eq!(b.serve_submit_mixed.name, "serve/submit_mixed");
        assert!(b.serve_pipelined_connections >= 4);
        assert!(b.serve_pipelined_jobs >= 2 * b.serve_pipelined_connections);
        assert_eq!(
            b.serve_pipelined_cold.elements,
            Some(b.serve_pipelined_jobs * b.serve_trace_macs)
        );
        assert_eq!(
            b.serve_pipelined_cold.elements,
            b.serve_pipelined_cached.elements
        );
        assert_eq!(
            b.serve_pipelined_cold.elements,
            b.serve_pipelined_mixed.elements
        );
        assert_eq!(
            b.serve_pipelined_cold.elements,
            b.serve_submit_mixed.elements
        );
        assert!(b.serve_pipelined_cold_jobs_per_sec() > 0.0);
        assert!(b.serve_pipelined_cached_jobs_per_sec() > 0.0);
        assert!(b.serve_pipelined_mixed_jobs_per_sec() > 0.0);
        assert!(b.serve_submit_mixed_jobs_per_sec() > 0.0);
        assert!(b.serve_pipelined_speedup() > 0.0);
        // Shard entries: the coordinator fanned real cold jobs at every
        // worker count, the 4-worker plan actually split the trace, and
        // the scaling/merge ratios are well-formed.
        assert_eq!(b.shard_workers_1.name, "shard/workers_1");
        assert_eq!(b.shard_workers_2.name, "shard/workers_2");
        assert_eq!(b.shard_workers_4.name, "shard/workers_4");
        assert_eq!(b.shard_merge.name, "shard/merge");
        assert_eq!(b.shard_workers_1.elements, Some(b.shard_trace_macs));
        assert_eq!(b.shard_workers_1.elements, b.shard_workers_4.elements);
        assert!(b.shard_shards > 1, "4-worker plan must split the trace");
        assert!(b.shard_scaling_2() > 0.0);
        assert!(b.shard_scaling_4() > 0.0);
        assert!(b.shard_merge_overhead() > 0.0);
        // PE micro-bench entries: both datapaths ran the same work, the
        // encode pair processed the same count, and the speedup ratios are
        // well-formed.
        assert_eq!(b.pe_set.name, "fpraker/pe_set");
        assert_eq!(b.pe_swar_set.name, "fpraker/pe_swar_set");
        assert_eq!(b.pe_set_scalar.name, "fpraker/pe_set_scalar");
        assert_eq!(b.pe_set.elements, Some(b.pe_sets * 8));
        assert_eq!(b.pe_set.elements, b.pe_set_scalar.elements);
        assert_eq!(b.pe_set.elements, b.pe_swar_set.elements);
        assert_eq!(b.pe_encode.name, "fpraker/pe_encode");
        assert_eq!(b.pe_encode_compute.name, "fpraker/pe_encode_compute");
        assert_eq!(b.pe_encode.elements, b.pe_encode_compute.elements);
        assert_eq!(b.pe_planned_tile.name, "fpraker/pe_planned_tile");
        assert_eq!(b.pe_swar_tile.name, "fpraker/pe_swar_tile");
        assert_eq!(b.pe_tile_scalar.name, "fpraker/pe_tile_scalar");
        assert_eq!(b.pe_planned_tile.elements, b.pe_tile_scalar.elements);
        assert_eq!(b.pe_planned_tile.elements, b.pe_swar_tile.elements);
        assert!(b.pe_tile_sets > 0);
        assert!(b.pe_set_speedup() > 0.0);
        assert!(b.pe_swar_speedup() > 0.0);
        assert!(b.pe_swar_tile_speedup() > 0.0);
        assert!(b.pe_encode_speedup() > 0.0);
        assert!(b.pe_tile_speedup() > 0.0);
    }

    #[test]
    fn serial_and_parallel_ops_agree_on_simulated_results() {
        // The two scheduling modes are timing-only: per-op outcomes match.
        let small = many_small_ops_bench_trace();
        let cfg = AcceleratorConfig::fpraker_paper();
        let per_op: Vec<_> = small
            .ops
            .iter()
            .map(|op| simulate_op::<FpRakerMachine>(op, &cfg, 2))
            .collect();
        let scheduled = Engine::with_threads(2).run(Machine::FpRaker, &small, &cfg);
        assert_eq!(per_op.len(), scheduled.ops.len());
        for (a, b) in per_op.iter().zip(&scheduled.ops) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.stats, b.stats);
        }
    }
}
