//! Simulation of a single GEMM (one `TraceOp`) on any [`MachineModel`].
//!
//! The GEMM is tiled into `rows × cols` output blocks (the machine's tile
//! shape); blocks are distributed round-robin over the accelerator's tiles;
//! per-block cycles, statistics and outputs come from the machine's
//! block model (for FPRaker, the cycle-faithful [`fpraker_core::Tile`]).
//! Off-chip traffic (optionally BDC-compressed) is overlapped with compute
//! double-buffered: the op's latency is `max(compute, memory)`.
//!
//! Blocks are mutually independent, so the driver fans them out across
//! worker threads in contiguous index ranges. Every per-block quantity is
//! reduced with unsigned integer addition in a fixed order, so the result
//! is **bit-identical for any thread count** — the determinism tests pin
//! this down.

use std::borrow::Cow;
use std::num::NonZeroUsize;
use std::thread;

use fpraker_core::{ExecStats, MachineModel, Pe, TileConfig};
use fpraker_energy::EventCounts;
use fpraker_mem::{bdc, Traffic};
use fpraker_num::encode::Encoding;
use fpraker_num::reference::{dot_f64, dot_magnitude_f64, ulp_bf16};
use fpraker_num::{AccumConfig, Bf16};
use fpraker_trace::{Phase, TraceOp};

use crate::config::{AcceleratorConfig, SerialPolicy};

/// The simulated outcome of one GEMM.
#[derive(Clone, Debug, Default)]
pub struct OpOutcome {
    /// Layer the op came from.
    pub layer: String,
    /// Training phase.
    pub phase: Option<Phase>,
    /// MAC count (excluding padding).
    pub macs: u64,
    /// Compute cycles (slowest tile).
    pub compute_cycles: u64,
    /// Off-chip transfer cycles.
    pub mem_cycles: u64,
    /// Op latency: `max(compute, memory)`.
    pub cycles: u64,
    /// Tile statistics (zeroed for analytic machines).
    pub stats: ExecStats,
    /// Off-chip traffic.
    pub traffic: Traffic,
    /// On-chip (global buffer) bytes moved.
    pub sram_bytes: u64,
    /// Event counts for the energy model.
    pub counts: EventCounts,
    /// Outputs that failed the golden check (0 when checking is off).
    pub golden_failures: u64,
}

fn padded_sets(k: usize, lanes: usize) -> usize {
    k.div_ceil(lanes)
}

/// Fills `out` with the padded operand stream for logical row `row` of an
/// `rows×k` operand (all-zero beyond the edge), reusing its allocation.
fn fill_stream(
    out: &mut Vec<Bf16>,
    data: &[Bf16],
    rows: usize,
    k: usize,
    row: usize,
    k_padded: usize,
) {
    out.clear();
    if row < rows {
        out.extend_from_slice(&data[row * k..(row + 1) * k]);
    }
    out.resize(k_padded, Bf16::ZERO);
}

fn offchip_bytes(values: &[Bf16], bdc_enabled: bool, dup: f32) -> u64 {
    let raw = if bdc_enabled {
        bdc::footprint(values).total_bytes() as u64
    } else {
        (values.len() * 2) as u64
    };
    // Streams duplicate source-tensor values (im2col); the hardware reads
    // the source once and expands on chip.
    (raw as f64 / dup.max(1.0) as f64).ceil() as u64
}

/// Resolves a thread-count knob: `0` means one worker per available core.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Per-worker reduction state: everything a range of blocks contributes.
/// Every field is an unsigned sum (or a vector of them), so merging
/// partials in a fixed order reproduces the sequential reduction bit for
/// bit.
pub(crate) struct BlockAccum {
    tile_cycles: Vec<u64>,
    stats: ExecStats,
    golden_failures: u64,
}

impl BlockAccum {
    pub(crate) fn new(tiles: usize) -> Self {
        BlockAccum {
            tile_cycles: vec![0; tiles],
            stats: ExecStats::default(),
            golden_failures: 0,
        }
    }

    pub(crate) fn merge(&mut self, other: &BlockAccum) {
        for (t, o) in self.tile_cycles.iter_mut().zip(&other.tile_cycles) {
            *t += o;
        }
        self.stats += other.stats;
        self.golden_failures += other.golden_failures;
    }
}

/// Runs the contiguous block range `[lo, hi)` of the op on a fresh machine
/// instance, accumulating per-tile cycles (round-robin assignment by global
/// block index), statistics and golden-check failures.
#[allow(clippy::too_many_arguments)]
fn run_block_range<M: MachineModel>(
    machine: &mut M,
    op: &TraceOp,
    cfg: &AcceleratorConfig,
    k_padded: usize,
    blocks_n: usize,
    lo: usize,
    hi: usize,
) -> BlockAccum {
    let tile_cfg = *machine.tile_config();
    let (rows, cols) = (tile_cfg.rows, tile_cfg.cols);
    let mut acc = BlockAccum::new(cfg.tiles);
    // Blocks are visited in row-major order, so the A-side work (a function
    // of `bi` alone) is redone only when the block row changes: the A
    // streams are refilled and — for machines with shareable A-side
    // encoding — planned once for all `blocks_n` blocks of the row. The B
    // stream buffers are refilled in place every block, so the whole range
    // reuses one set of allocations.
    let mut a_streams: Vec<Vec<Bf16>> = vec![Vec::new(); cols];
    let mut b_streams: Vec<Vec<Bf16>> = vec![Vec::new(); rows];
    let mut a_plans: Option<fpraker_core::BlockPlans> = None;
    let mut cached_bi = usize::MAX;
    for idx in lo..hi {
        let (bi, bj) = (idx / blocks_n, idx % blocks_n);
        if bi != cached_bi {
            for (c, buf) in a_streams.iter_mut().enumerate() {
                fill_stream(buf, &op.a, op.m, op.k, bi * cols + c, k_padded);
            }
            a_plans = machine.plan_a_block(&a_streams);
            cached_bi = bi;
        }
        for (r, buf) in b_streams.iter_mut().enumerate() {
            fill_stream(buf, &op.b, op.n, op.k, bj * rows + r, k_padded);
        }
        let out = match &a_plans {
            Some(plans) => machine.run_block_planned(&a_streams, plans, &b_streams),
            None => machine.run_block(&a_streams, &b_streams),
        };
        acc.tile_cycles[idx % cfg.tiles] += out.cycles;
        acc.stats += out.stats;
        if cfg.check_golden {
            // A silent skip here would make `golden_failures == 0` vacuous.
            let outputs = out.outputs.as_ref().unwrap_or_else(|| {
                panic!(
                    "{} returned no outputs under golden checking",
                    machine.name()
                )
            });
            for r in 0..rows {
                for c in 0..cols {
                    let exact = dot_f64(&a_streams[c], &b_streams[r]);
                    let mag = dot_magnitude_f64(&a_streams[c], &b_streams[r]);
                    let got = outputs[r * cols + c].to_f64();
                    if (got - exact).abs() > 2.0 * ulp_bf16(mag.max(1e-30)) {
                        acc.golden_failures += 1;
                    }
                }
            }
        }
    }
    acc
}

/// Whether the serial operand ends up being the trace's A side under the
/// configured [`SerialPolicy`].
fn serial_is_a(op: &TraceOp, cfg: &AcceleratorConfig) -> bool {
    match cfg.serial_policy {
        SerialPolicy::AlwaysA => true,
        SerialPolicy::AlwaysB => false,
        SerialPolicy::Sparser => {
            fpraker_trace::stats::preferred_serial_is_a(op, Encoding::Canonical)
        }
    }
}

/// Everything the scheduler needs to know about one GEMM before any block
/// runs: the serial-policy-resolved op, the (θ-overridden) tile geometry,
/// and the block tiling. Machine-independent — the machine type only enters
/// when a work unit executes ([`run_unit`]) or an op is folded
/// ([`finish_op`]).
pub(crate) struct OpPlan<'a> {
    /// The op with the serial operand on the A side (borrowed when the
    /// policy keeps the trace orientation, owned when it swaps).
    pub(crate) op: Cow<'a, TraceOp>,
    pub(crate) tile_cfg: TileConfig,
    pub(crate) ksets: usize,
    pub(crate) k_padded: usize,
    pub(crate) blocks_n: usize,
    /// Total output blocks of this op (`blocks_m * blocks_n`) — the op's
    /// share of the schedulable work.
    pub(crate) blocks: usize,
}

/// Stage 1 of [`simulate_op`]: resolves the serial policy and per-layer θ
/// override, and tiles the GEMM into output blocks.
pub(crate) fn plan_op<'a>(op: &'a TraceOp, cfg: &AcceleratorConfig) -> OpPlan<'a> {
    let _span = fpraker_telemetry::span!("sim_plan");
    let op: Cow<'a, TraceOp> = if serial_is_a(op, cfg) {
        Cow::Borrowed(op)
    } else {
        Cow::Owned(op.swapped())
    };
    plan_resolved(op, cfg)
}

/// [`plan_op`] for an op the caller owns (the streaming path): a serial
/// policy swap moves the operand buffers instead of cloning them, and the
/// resulting plan has no borrow tying it to a trace.
pub(crate) fn plan_owned_op(op: TraceOp, cfg: &AcceleratorConfig) -> OpPlan<'static> {
    let _span = fpraker_telemetry::span!("sim_plan");
    let op = if serial_is_a(&op, cfg) {
        op
    } else {
        op.into_swapped()
    };
    plan_resolved(Cow::Owned(op), cfg)
}

/// The serial-policy-independent tail of planning: θ override + tiling.
fn plan_resolved<'a>(op: Cow<'a, TraceOp>, cfg: &AcceleratorConfig) -> OpPlan<'a> {
    let mut tile_cfg = cfg.tile;
    if let Some(theta) = cfg.theta_for(&op.layer) {
        tile_cfg.pe.accum = AccumConfig {
            ob_threshold: theta,
            ..tile_cfg.pe.accum
        };
    }
    let (rows, cols, lanes) = (tile_cfg.rows, tile_cfg.cols, tile_cfg.pe.lanes);
    let ksets = padded_sets(op.k, lanes);
    let k_padded = ksets * lanes;
    let blocks_m = op.m.div_ceil(cols);
    let blocks_n = op.n.div_ceil(rows);
    OpPlan {
        op,
        tile_cfg,
        ksets,
        k_padded,
        blocks_n,
        blocks: blocks_m * blocks_n,
    }
}

/// The number of output blocks `op` contributes to the schedule, without
/// materializing the (possibly swapped) operand streams.
pub(crate) fn planned_blocks(op: &TraceOp, cfg: &AcceleratorConfig) -> usize {
    let (m, n) = if serial_is_a(op, cfg) {
        (op.m, op.n)
    } else {
        (op.n, op.m)
    };
    m.div_ceil(cfg.tile.cols) * n.div_ceil(cfg.tile.rows)
}

/// Stage 2 of [`simulate_op`]: executes one work unit — the contiguous
/// block range `[lo, hi)` of a planned op — on a fresh machine instance.
/// Pure with respect to the rest of the op: the returned [`BlockAccum`]
/// is this range's entire contribution.
pub(crate) fn run_unit<M: MachineModel>(
    plan: &OpPlan,
    cfg: &AcceleratorConfig,
    lo: usize,
    hi: usize,
) -> BlockAccum {
    let _span = fpraker_telemetry::span!("sim_run_unit");
    let mut machine = M::from_tile(plan.tile_cfg);
    let acc = if machine.value_dependent() {
        run_block_range(
            &mut machine,
            &plan.op,
            cfg,
            plan.k_padded,
            plan.blocks_n,
            lo,
            hi,
        )
    } else {
        // Value-independent timing: no operand streams, no golden check —
        // the block loop is just round-robin arithmetic.
        let mut acc = BlockAccum::new(cfg.tiles);
        for idx in lo..hi {
            let out = machine.run_block_analytic(plan.ksets);
            acc.tile_cycles[idx % cfg.tiles] += out.cycles;
            acc.stats += out.stats;
        }
        acc
    };
    // The machine is fresh per unit, so its accumulated SWAR replay
    // cycles are exactly this unit's contribution.
    fpraker_telemetry::counter!("pe_swar_unstable_cycles_total")
        .add(machine.swar_unstable_cycles());
    acc
}

/// Simulates one GEMM on machine `M` — the single driver behind every
/// machine comparison (formerly the duplicated `simulate_op_fpraker` /
/// `simulate_op_baseline` paths). A thin wrapper over the trace-level
/// scheduler with a one-op trace.
///
/// `threads` bounds the block-level fan-out (`0` = one worker per core);
/// results are bit-identical for every thread count.
///
/// ```
/// use fpraker_core::FpRakerMachine;
/// use fpraker_sim::{simulate_op, AcceleratorConfig};
/// use fpraker_num::Bf16;
/// use fpraker_trace::{Phase, TensorKind, TraceOp};
///
/// let op = TraceOp {
///     layer: "fc".into(), phase: Phase::AxW, m: 4, n: 4, k: 8,
///     a: vec![Bf16::ONE; 32], b: vec![Bf16::ONE; 32],
///     a_kind: TensorKind::Activation, b_kind: TensorKind::Weight,
///     a_dup: 1.0, b_dup: 1.0, out_dup: 1.0,
/// };
/// let out = simulate_op::<FpRakerMachine>(&op, &AcceleratorConfig::fpraker_paper(), 1);
/// assert_eq!(out.macs, 4 * 4 * 8);
/// assert!(out.cycles > 0);
/// ```
pub fn simulate_op<M: MachineModel>(
    op: &TraceOp,
    cfg: &AcceleratorConfig,
    threads: usize,
) -> OpOutcome {
    crate::sched::simulate_ops_scheduled::<M>(std::slice::from_ref(op), cfg, threads)
        .pop()
        .expect("one op in, one outcome out")
}

/// Stage 3 of [`simulate_op`]: folds an op's merged block contributions
/// into its [`OpOutcome`] — compute/memory latency, off-chip traffic and
/// the energy-model event counts. Single-threaded and deterministic.
pub(crate) fn finish_op<M: MachineModel>(
    plan: &OpPlan,
    cfg: &AcceleratorConfig,
    acc: BlockAccum,
) -> OpOutcome {
    let _span = fpraker_telemetry::span!("sim_fold");
    let op = &*plan.op;
    let (rows, cols) = (plan.tile_cfg.rows, plan.tile_cfg.cols);
    let (ksets, k_padded, blocks) = (plan.ksets, plan.k_padded, plan.blocks);
    let compute_cycles = acc.tile_cycles.iter().copied().max().unwrap_or(0);
    let out_raw = ((op.m * op.n) as f64 * 2.0 / op.out_dup.max(1.0) as f64).ceil() as u64;
    let traffic = Traffic {
        a_bytes: offchip_bytes(&op.a, cfg.bdc_offchip, op.a_dup),
        b_bytes: offchip_bytes(&op.b, cfg.bdc_offchip, op.b_dup),
        out_bytes: if cfg.bdc_offchip {
            // Outputs are compressed before writing off-chip; approximate
            // with the average input compression ratio.
            let in_ratio = (offchip_bytes(&op.a, true, op.a_dup)
                + offchip_bytes(&op.b, true, op.b_dup)) as f64
                / (offchip_bytes(&op.a, false, op.a_dup) + offchip_bytes(&op.b, false, op.b_dup))
                    as f64;
            (out_raw as f64 * in_ratio) as u64
        } else {
            out_raw
        },
    };
    let mem_cycles = cfg.dram.cycles_for(traffic.total());
    let sram_bytes =
        blocks as u64 * ((cols + rows) * k_padded * 2) as u64 + (op.m * op.n * 2) as u64;

    let events = M::from_tile(plan.tile_cfg).events(&acc.stats, blocks as u64, ksets as u64);
    let counts = EventCounts {
        terms: events.terms,
        pe_active_cycles: events.pe_active_cycles,
        pe_stall_cycles: events.pe_stall_cycles,
        sets: events.sets,
        a_values_encoded: events.a_values_encoded,
        baseline_pe_cycles: events.baseline_pe_cycles,
        sram_bytes,
        dram_bytes: traffic.total(),
    };

    OpOutcome {
        layer: op.layer.clone(),
        phase: Some(op.phase),
        macs: op.macs(),
        compute_cycles,
        mem_cycles,
        cycles: compute_cycles.max(mem_cycles),
        stats: acc.stats,
        traffic,
        sram_bytes,
        counts,
        golden_failures: acc.golden_failures,
    }
}

/// Convenience: runs a single dot product through a lone PE and the f64
/// reference, returning `(pe result, reference, cycles)` — used by examples
/// and docs.
pub fn pe_dot_with_reference(a: &[Bf16], b: &[Bf16], tile: &TileConfig) -> (Bf16, f64, u64) {
    let mut pe = Pe::new(tile.pe);
    let (out, cycles) = pe.dot(a, b);
    (out, dot_f64(a, b), cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpraker_core::{BaselineMachine, FpRakerMachine};
    use fpraker_num::reference::SplitMix64;
    use fpraker_trace::TensorKind;

    fn random_op(m: usize, n: usize, k: usize, spread: i32, seed: u64) -> TraceOp {
        let mut rng = SplitMix64::new(seed);
        TraceOp {
            layer: "test".into(),
            phase: Phase::AxW,
            m,
            n,
            k,
            a: (0..m * k).map(|_| rng.bf16_in_range(spread)).collect(),
            b: (0..n * k).map(|_| rng.bf16_in_range(spread)).collect(),
            a_kind: TensorKind::Activation,
            b_kind: TensorKind::Weight,
            a_dup: 1.0,
            b_dup: 1.0,
            out_dup: 1.0,
        }
    }

    fn small_cfg(tiles: usize) -> AcceleratorConfig {
        AcceleratorConfig {
            tiles,
            check_golden: true,
            ..AcceleratorConfig::fpraker_paper()
        }
    }

    fn fpraker_op(op: &TraceOp, cfg: &AcceleratorConfig) -> OpOutcome {
        simulate_op::<FpRakerMachine>(op, cfg, 1)
    }

    #[test]
    fn golden_check_passes_on_random_gemm() {
        let op = random_op(20, 12, 24, 3, 1);
        let out = fpraker_op(&op, &small_cfg(2));
        assert_eq!(out.golden_failures, 0);
        assert_eq!(out.macs, 20 * 12 * 24);
        assert!(out.compute_cycles > 0);
    }

    #[test]
    fn baseline_cycles_match_formula() {
        let op = random_op(16, 16, 32, 2, 2);
        let cfg = AcceleratorConfig {
            tiles: 1,
            ..AcceleratorConfig::baseline_paper()
        };
        let out = simulate_op::<BaselineMachine>(&op, &cfg, 1);
        // 2x2 blocks of 8x8 outputs, 4 k-sets each, 1 tile: 16 cycles.
        assert_eq!(out.compute_cycles, 16);
        // With 8 tiles the 4 blocks round-robin: 4 cycles.
        let out8 = simulate_op::<BaselineMachine>(&op, &AcceleratorConfig::baseline_paper(), 1);
        assert_eq!(out8.compute_cycles, 4);
    }

    #[test]
    fn more_tiles_never_slower() {
        let op = random_op(64, 16, 16, 4, 3);
        let c1 = fpraker_op(&op, &small_cfg(4)).compute_cycles;
        let c2 = fpraker_op(&op, &small_cfg(8)).compute_cycles;
        assert!(c2 <= c1, "{c2} > {c1}");
    }

    #[test]
    fn power_of_two_values_run_faster_than_dense_mantissas() {
        // Single-term significands stream in fewer cycles than full ones.
        let mut sparse = random_op(16, 16, 16, 2, 4);
        for v in &mut sparse.a {
            *v = Bf16::from_parts(v.sign(), v.exponent(), 0x80); // 1.0000000
        }
        let mut dense = sparse.clone();
        for v in &mut dense.a {
            *v = Bf16::from_parts(v.sign(), v.exponent(), 0xD5); // 1.1010101
        }
        let cfg = AcceleratorConfig {
            serial_policy: SerialPolicy::AlwaysA,
            ..small_cfg(1)
        };
        let cs = fpraker_op(&sparse, &cfg).compute_cycles;
        let cd = fpraker_op(&dense, &cfg).compute_cycles;
        assert!(cs < cd, "sparse {cs} vs dense {cd}");
    }

    #[test]
    fn bdc_reduces_offchip_traffic_on_correlated_exponents() {
        let mut op = random_op(32, 32, 32, 0, 5); // all exponents equal
        for v in op.a.iter_mut().chain(op.b.iter_mut()) {
            *v = Bf16::from_parts(v.sign(), 0, v.significand());
        }
        let with = fpraker_op(&op, &small_cfg(1));
        let without = fpraker_op(
            &op,
            &AcceleratorConfig {
                bdc_offchip: false,
                ..small_cfg(1)
            },
        );
        assert!(
            with.traffic.total() < without.traffic.total() * 3 / 4,
            "{} vs {}",
            with.traffic.total(),
            without.traffic.total()
        );
        // Compression never changes compute cycles.
        assert_eq!(with.compute_cycles, without.compute_cycles);
    }

    #[test]
    fn serial_policy_sparser_picks_the_better_side() {
        let mut op = random_op(16, 16, 16, 2, 6);
        // Make B single-term, A dense: Sparser should match AlwaysB.
        for v in &mut op.b {
            *v = Bf16::from_parts(v.sign(), v.exponent(), 0x80);
        }
        for v in &mut op.a {
            *v = Bf16::from_parts(v.sign(), v.exponent(), 0xFF);
        }
        let base = small_cfg(1);
        let auto = fpraker_op(
            &op,
            &AcceleratorConfig {
                serial_policy: SerialPolicy::Sparser,
                ..base.clone()
            },
        );
        let forced_b = fpraker_op(
            &op,
            &AcceleratorConfig {
                serial_policy: SerialPolicy::AlwaysB,
                ..base.clone()
            },
        );
        let forced_a = fpraker_op(
            &op,
            &AcceleratorConfig {
                serial_policy: SerialPolicy::AlwaysA,
                ..base
            },
        );
        assert_eq!(auto.compute_cycles, forced_b.compute_cycles);
        assert!(auto.compute_cycles < forced_a.compute_cycles);
    }

    #[test]
    fn narrower_theta_never_slower() {
        let op = random_op(16, 16, 32, 6, 7);
        let mut narrow = small_cfg(1);
        narrow.theta_overrides.push(("test".into(), 4));
        narrow.check_golden = false;
        let mut wide = small_cfg(1);
        wide.check_golden = false;
        let cn = fpraker_op(&op, &narrow).compute_cycles;
        let cw = fpraker_op(&op, &wide).compute_cycles;
        assert!(cn <= cw, "narrow θ slower: {cn} > {cw}");
    }

    #[test]
    fn event_counts_are_consistent() {
        let op = random_op(8, 8, 16, 3, 8);
        let out = fpraker_op(&op, &small_cfg(1));
        assert_eq!(out.counts.terms, out.stats.terms.processed);
        assert!(out.counts.pe_active_cycles > 0);
        assert_eq!(out.counts.dram_bytes, out.traffic.total());
        // Two k-sets per PE over one block: 64 PEs * 2 sets.
        assert_eq!(out.stats.sets, 128);
        assert_eq!(out.counts.a_values_encoded, 128 / 8 * 8);
    }

    #[test]
    fn owned_and_borrowed_plans_agree() {
        // The streaming path plans owned ops; it must produce the same
        // resolved op and tiling as the borrowed in-memory planner, under
        // a value-dependent serial policy.
        let mut op = random_op(16, 12, 16, 3, 10);
        for v in &mut op.b {
            *v = Bf16::from_parts(v.sign(), v.exponent(), 0x80); // B sparser
        }
        let cfg = AcceleratorConfig {
            serial_policy: SerialPolicy::Sparser,
            ..small_cfg(2)
        };
        let borrowed = plan_op(&op, &cfg);
        let owned = plan_owned_op(op.clone(), &cfg);
        assert_eq!(&*borrowed.op, &*owned.op);
        assert_eq!(borrowed.blocks, owned.blocks);
        assert_eq!(borrowed.blocks_n, owned.blocks_n);
        assert_eq!(borrowed.ksets, owned.ksets);
        assert_eq!(borrowed.k_padded, owned.k_padded);
    }

    #[test]
    fn parallel_fan_out_is_bit_identical_to_sequential() {
        let op = random_op(48, 40, 24, 4, 9);
        let cfg = small_cfg(3);
        let seq = simulate_op::<FpRakerMachine>(&op, &cfg, 1);
        for threads in [2, 3, 5, 8] {
            let par = simulate_op::<FpRakerMachine>(&op, &cfg, threads);
            assert_eq!(par.compute_cycles, seq.compute_cycles, "{threads} threads");
            assert_eq!(par.cycles, seq.cycles);
            assert_eq!(par.stats, seq.stats);
            assert_eq!(par.counts, seq.counts);
            assert_eq!(par.golden_failures, seq.golden_failures);
        }
    }
}
