//! Per-layer probes: each times calls into one module's public functions
//! from outside, on inputs taken from the workload's own traces.

use std::borrow::Cow;
use std::hint::black_box;
use std::time::{Duration, Instant};

use fpraker_core::{ExecStats, Pe, Tile};
use fpraker_energy::EnergyModel;
use fpraker_num::encode::Encoding;
use fpraker_num::reference::SplitMix64;
use fpraker_num::Bf16;
use fpraker_serve::{JobOptions, PipelinedConnection, Server};
use fpraker_sim::{
    simulate_op, AcceleratorConfig, Engine, EngineTelemetry, FpRakerMachine, Machine, SerialPolicy,
};
use fpraker_trace::{codec, Fnv64, Trace, TraceOp};

use crate::check::{check_job, expected_wire, Tally};
use crate::report::Metrics;
use crate::stats::{median, summarize};

/// Seed of the probes' input sampling. Fixed, so the sampled PE sets and
/// tile blocks of a trace, and every exact count taken from them, are the
/// same in every run.
const SAMPLE_SEED: u64 = 0x5E75_A3F1;

/// PE sets a PE probe replays per repetition.
const PE_PROBE_SETS: usize = 8192;

/// MACs a tile probe runs per repetition.
const TILE_PROBE_MACS: u64 = 1 << 21;

/// Seconds a layer's timed loop may accumulate before taking its median,
/// and the least repetitions it takes.
const PROBE_BUDGET: Duration = Duration::from_millis(400);
const MIN_REPS: usize = 5;

/// Repetitions of the cross-layer ledger.
const LEDGER_REPS: usize = 21;

/// Times `f` repeatedly (at least [`MIN_REPS`] times, up to the
/// [`PROBE_BUDGET`]) and returns the median seconds per call.
fn time_median<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_REPS || start.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= 200 {
            break;
        }
    }
    median(&samples)
}

/// The op as the engine runs it: with the serial operand on the A side
/// under the configuration's serial policy.
pub fn oriented<'a>(op: &'a TraceOp, cfg: &AcceleratorConfig) -> Cow<'a, TraceOp> {
    let serial_is_a = match cfg.serial_policy {
        SerialPolicy::AlwaysA => true,
        SerialPolicy::AlwaysB => false,
        SerialPolicy::Sparser => {
            fpraker_trace::stats::preferred_serial_is_a(op, Encoding::Canonical)
        }
    };
    if serial_is_a {
        Cow::Borrowed(op)
    } else {
        Cow::Owned(op.swapped())
    }
}

/// Row `row` of a `rows × k` operand, zero-padded to `k_padded` (all zero
/// beyond the operand's edge), as the tile streams it.
fn padded_row(data: &[Bf16], rows: usize, k: usize, row: usize, k_padded: usize) -> Vec<Bf16> {
    let mut out = Vec::with_capacity(k_padded);
    if row < rows {
        out.extend_from_slice(&data[row * k..(row + 1) * k]);
    }
    out.resize(k_padded, Bf16::ZERO);
    out
}

/// Picks an op with probability proportional to its MACs.
fn pick_by_macs<'a>(ops: &[Cow<'a, TraceOp>], total: u64, rng: &mut SplitMix64) -> usize {
    let mut at = rng.next_u64() % total.max(1);
    for (i, op) in ops.iter().enumerate() {
        if at < op.macs() {
            return i;
        }
        at -= op.macs();
    }
    ops.len() - 1
}

/// One output's dot product: its A and B streams, padded to whole sets.
struct Dot {
    a: Vec<Bf16>,
    b: Vec<Bf16>,
}

/// Output dot products sampled from `ops` (MAC-weighted), until they hold
/// at least `sets` PE sets.
fn sample_dots(ops: &[&TraceOp], cfg: &AcceleratorConfig, sets: usize) -> Vec<Dot> {
    let ops: Vec<Cow<TraceOp>> = ops.iter().map(|op| oriented(op, cfg)).collect();
    let total: u64 = ops.iter().map(|op| op.macs()).sum();
    let lanes = cfg.tile.pe.lanes;
    let mut rng = SplitMix64::new(SAMPLE_SEED);
    let mut dots = Vec::new();
    let mut held = 0;
    while held < sets && total > 0 {
        let op = &ops[pick_by_macs(&ops, total, &mut rng)];
        let k_padded = op.k.div_ceil(lanes) * lanes;
        let i = (rng.next_u64() % op.m as u64) as usize;
        let j = (rng.next_u64() % op.n as u64) as usize;
        dots.push(Dot {
            a: padded_row(&op.a, op.m, op.k, i, k_padded),
            b: padded_row(&op.b, op.n, op.k, j, k_padded),
        });
        held += k_padded / lanes;
    }
    dots
}

/// Replays dot products set by set through one PE; returns
/// `(sets, cycles)`.
fn replay_dots(pe: &mut Pe, dots: &[Dot], lanes: usize) -> (u64, u64) {
    let (mut sets, mut cycles) = (0, 0);
    for dot in dots {
        pe.reset_output();
        for (a, b) in dot.a.chunks_exact(lanes).zip(dot.b.chunks_exact(lanes)) {
            cycles += pe.process_set(a, b).cycles;
            sets += 1;
        }
    }
    (sets, cycles)
}

/// `core` (PE): replays 8-lane sets sampled from `ops` through
/// `Pe::process_set`, one output's sets in order per accumulation.
pub fn pe_probe(ops: &[&TraceOp], cfg: &AcceleratorConfig) -> Metrics {
    let dots = sample_dots(ops, cfg, PE_PROBE_SETS);
    let lanes = cfg.tile.pe.lanes;
    let mut first = Pe::new(cfg.tile.pe);
    let (sets, cycles) = replay_dots(&mut first, &dots, lanes);
    let unstable = first.swar_unstable_cycles();
    let secs = time_median(|| replay_dots(&mut Pe::new(cfg.tile.pe), &dots, lanes));
    let mut m = Metrics::default();
    m.put("core.pe_set_ns", secs * 1e9 / sets as f64, "ns");
    m.put(
        "core.pe_cycles_per_set",
        cycles as f64 / sets as f64,
        "cycles",
    );
    m.put("core.ns_per_pe_cycle", secs * 1e9 / cycles as f64, "ns");
    m.put(
        "core.swar_replay_frac",
        unstable as f64 / cycles as f64,
        "fraction",
    );
    m
}

/// One tile block: its A streams (one per column), B streams (one per
/// row) and the MACs it holds inside the GEMM's edges.
struct Block {
    a: Vec<Vec<Bf16>>,
    b: Vec<Vec<Bf16>>,
    macs: u64,
}

/// Every output block of `op` as the engine tiles it.
fn op_blocks(op: &TraceOp, cfg: &AcceleratorConfig) -> Vec<Block> {
    let (rows, cols, lanes) = (cfg.tile.rows, cfg.tile.cols, cfg.tile.pe.lanes);
    let k_padded = op.k.div_ceil(lanes) * lanes;
    let mut blocks = Vec::new();
    for bi in 0..op.m.div_ceil(cols) {
        for bj in 0..op.n.div_ceil(rows) {
            blocks.push(block(op, cfg, bi, bj, k_padded));
        }
    }
    blocks
}

fn block(op: &TraceOp, cfg: &AcceleratorConfig, bi: usize, bj: usize, k_padded: usize) -> Block {
    let (rows, cols) = (cfg.tile.rows, cfg.tile.cols);
    let used_cols = cols.min(op.m - bi * cols);
    let used_rows = rows.min(op.n - bj * rows);
    Block {
        a: (0..cols)
            .map(|c| padded_row(&op.a, op.m, op.k, bi * cols + c, k_padded))
            .collect(),
        b: (0..rows)
            .map(|r| padded_row(&op.b, op.n, op.k, bj * rows + r, k_padded))
            .collect(),
        macs: (used_cols * used_rows * op.k) as u64,
    }
}

/// Runs blocks through one tile; returns the MACs they hold.
fn run_blocks(tile: &mut Tile, blocks: &[Block]) -> u64 {
    blocks
        .iter()
        .map(|blk| {
            black_box(tile.run_block(&blk.a, &blk.b).cycles);
            blk.macs
        })
        .sum()
}

/// `core` (tile): output blocks sampled from `ops` (MAC-weighted) through
/// `Tile::run_block`.
pub fn tile_probe(ops: &[&TraceOp], cfg: &AcceleratorConfig) -> Metrics {
    let ops: Vec<Cow<TraceOp>> = ops.iter().map(|op| oriented(op, cfg)).collect();
    let total: u64 = ops.iter().map(|op| op.macs()).sum();
    let (rows, cols, lanes) = (cfg.tile.rows, cfg.tile.cols, cfg.tile.pe.lanes);
    let mut rng = SplitMix64::new(SAMPLE_SEED);
    let mut blocks = Vec::new();
    let mut macs = 0;
    while macs < TILE_PROBE_MACS && total > 0 {
        let op = &ops[pick_by_macs(&ops, total, &mut rng)];
        let bi = (rng.next_u64() % op.m.div_ceil(cols) as u64) as usize;
        let bj = (rng.next_u64() % op.n.div_ceil(rows) as u64) as usize;
        let blk = block(op, cfg, bi, bj, op.k.div_ceil(lanes) * lanes);
        macs += blk.macs;
        blocks.push(blk);
    }
    let secs = time_median(|| run_blocks(&mut Tile::new(cfg.tile), &blocks));
    let mut m = Metrics::default();
    m.put("core.tile_block_ns_per_mac", secs * 1e9 / macs as f64, "ns");
    m
}

/// `core` exact quantities of a whole simulation: the Fig. 13 skipped-term
/// share and the Fig. 15 useful lane-cycle share.
pub fn exec_stats_metrics(stats: &ExecStats) -> Metrics {
    let mut m = Metrics::default();
    m.put(
        "core.terms_skipped_frac",
        stats.terms.skipped_fraction(),
        "fraction",
    );
    m.put(
        "core.lane_useful_frac",
        stats.lane_cycles.utilization(),
        "fraction",
    );
    m
}

/// `sim` stage shares of an `Engine::run_with_telemetry` sum.
pub fn stage_metrics(t: &EngineTelemetry) -> Metrics {
    let mut m = Metrics::default();
    for (name, ns) in [
        ("sim.decode_frac", t.decode_ns),
        ("sim.plan_frac", t.plan_ns),
        ("sim.run_unit_frac", t.run_unit_ns),
        ("sim.fold_frac", t.fold_ns),
    ] {
        m.put(name, t.stage_fraction(ns), "fraction");
    }
    m
}

/// Adds one telemetry reading into a running sum.
pub fn add_telemetry(sum: &mut EngineTelemetry, t: &EngineTelemetry) {
    sum.wall_ns += t.wall_ns;
    sum.decode_ns += t.decode_ns;
    sum.plan_ns += t.plan_ns;
    sum.run_unit_ns += t.run_unit_ns;
    sum.fold_ns += t.fold_ns;
    sum.units += t.units;
}

/// `sim` per-op cost: every op through `simulate_op` with one worker.
pub fn op_probe(ops: &[&TraceOp], cfg: &AcceleratorConfig) -> Metrics {
    let per_mac: Vec<f64> = ops
        .iter()
        .filter(|op| op.macs() > 0)
        .map(|op| {
            let t = Instant::now();
            black_box(simulate_op::<FpRakerMachine>(op, cfg, 1));
            t.elapsed().as_secs_f64() * 1e9 / op.macs() as f64
        })
        .collect();
    let s = summarize(per_mac);
    let mut m = Metrics::default();
    m.put("sim.op_ns_per_mac_p50", s.p50, "ns");
    m.put("sim.op_ns_per_mac_tail", s.tail, "ns");
    m
}

/// `sim` parallel efficiency on one trace: time at 1 worker ÷ (N × time
/// at N workers), repetitions interleaved.
pub fn parallel_eff(trace: &Trace, cfg: &AcceleratorConfig, workers: usize) -> Metrics {
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (threads, out) in [(1, &mut one), (workers, &mut many)] {
            let t = Instant::now();
            black_box(Engine::with_threads(threads).run(Machine::FpRaker, trace, cfg));
            out.push(t.elapsed().as_secs_f64());
        }
    }
    let mut m = Metrics::default();
    m.put(
        "sim.parallel_eff",
        median(&one) / (workers as f64 * median(&many)),
        "fraction",
    );
    m
}

/// `trace`: `codec::encode`, `codec::decode` and `Fnv64::digest_of` over
/// the workload's traces, per encoded byte.
pub fn codec_probe(traces: &[&Trace]) -> Metrics {
    let encoded: Vec<Vec<u8>> = traces.iter().map(|t| codec::encode(t).to_vec()).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let encode = time_median(|| traces.iter().map(|t| codec::encode(t).len()).sum::<usize>());
    let decode = time_median(|| {
        encoded
            .iter()
            .map(|b| codec::decode(b).expect("encoded trace decodes").ops.len())
            .sum::<usize>()
    });
    let digest = time_median(|| {
        encoded
            .iter()
            .map(|b| Fnv64::digest_of(b))
            .fold(0, u64::wrapping_add)
    });
    let mut m = Metrics::default();
    m.put(
        "trace.encode_ns_per_byte",
        encode * 1e9 / bytes as f64,
        "ns",
    );
    m.put(
        "trace.decode_ns_per_byte",
        decode * 1e9 / bytes as f64,
        "ns",
    );
    m.put(
        "trace.digest_ns_per_byte",
        digest * 1e9 / bytes as f64,
        "ns",
    );
    m
}

/// The cross-layer ledger: one job trace through every layer from a PE
/// set to a served job, each as ns per MAC, with each layer's overhead
/// over the layer below. Layers are timed in turn within each repetition
/// so drift spreads evenly; each reading is a median over
/// [`LEDGER_REPS`]. The served layer uses a fresh one-job, one-worker
/// server per repetition, so every submission is cold; its responses are
/// checked into `tally`.
pub fn ledger(
    trace: &Trace,
    cfg: &AcceleratorConfig,
    server: impl Fn() -> Server,
    tally: &mut Tally,
) -> Metrics {
    let macs = trace.macs() as f64;
    let bytes = codec::encode(trace).to_vec();
    let oriented_ops: Vec<Cow<TraceOp>> = trace.ops.iter().map(|op| oriented(op, cfg)).collect();
    let lanes = cfg.tile.pe.lanes;
    let dots: Vec<Dot> = oriented_ops
        .iter()
        .flat_map(|op| {
            let k_padded = op.k.div_ceil(lanes) * lanes;
            (0..op.m).flat_map(move |i| {
                (0..op.n).map(move |j| Dot {
                    a: padded_row(&op.a, op.m, op.k, i, k_padded),
                    b: padded_row(&op.b, op.n, op.k, j, k_padded),
                })
            })
        })
        .collect();
    let blocks: Vec<Block> = oriented_ops
        .iter()
        .flat_map(|op| op_blocks(op, cfg))
        .collect();
    let local = Engine::with_threads(1).run(Machine::FpRaker, trace, cfg);
    let expected = expected_wire(&local, trace.ops.len(), &EnergyModel::paper());

    const LAYERS: [&str; 6] = [
        "pe_set",
        "tile_block",
        "op",
        "trace",
        "decode",
        "served_job",
    ];
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); LAYERS.len()];
    for _ in 0..LEDGER_REPS {
        let srv = server();
        for (layer, out) in samples.iter_mut().enumerate() {
            // Connected right before use: the server drops a connection
            // that stays silent for its I/O timeout.
            let conn = (layer == LAYERS.len() - 1).then(|| {
                PipelinedConnection::connect(srv.local_addr())
                    .expect("connect to the ledger server")
            });
            let t = Instant::now();
            match layer {
                0 => {
                    black_box(replay_dots(&mut Pe::new(cfg.tile.pe), &dots, lanes));
                }
                1 => {
                    black_box(run_blocks(&mut Tile::new(cfg.tile), &blocks));
                }
                2 => {
                    for op in &trace.ops {
                        black_box(simulate_op::<FpRakerMachine>(op, cfg, 1));
                    }
                }
                3 => {
                    black_box(Engine::with_threads(1).run(Machine::FpRaker, trace, cfg));
                }
                4 => {
                    let decoded = codec::decode(&bytes).expect("ledger trace decodes");
                    black_box(Engine::with_threads(1).run(Machine::FpRaker, &decoded, cfg));
                }
                _ => {
                    let conn = conn.as_ref().expect("connected for the served layer");
                    let outcome = conn
                        .start_encoded(&bytes, "fpraker", JobOptions::default())
                        .and_then(|job| job.wait());
                    out.push(t.elapsed().as_secs_f64() * 1e9 / macs);
                    tally.record(check_job(&outcome, &expected, false));
                    continue;
                }
            }
            out.push(t.elapsed().as_secs_f64() * 1e9 / macs);
        }
        srv.shutdown();
    }
    let ns: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    let mut m = Metrics::default();
    for (i, layer) in LAYERS.iter().enumerate() {
        m.put(format!("ledger.{layer}"), ns[i], "ns/MAC");
    }
    for i in 1..LAYERS.len() {
        m.put(
            format!("ledger.{}_overhead", LAYERS[i]),
            ns[i] - ns[i - 1],
            "ns/MAC",
        );
    }
    m.put("serve.overhead_ns_per_mac", ns[5] - ns[3], "ns/MAC");
    m
}
