//! The [`MachineModel`] abstraction: pluggable block-level machines.
//!
//! The paper's headline numbers are *comparative* — FPRaker versus a
//! bit-parallel bfloat16 baseline under iso-compute-area. Rather than two
//! disjoint simulation paths, both machines (and any future datapath
//! variant) implement one block-level interface: given the padded operand
//! streams of one `rows × cols` output block, a machine reports the block's
//! cycles, statistics and (when it models values) its outputs. The
//! simulator drives any `MachineModel` with a single generic engine — the
//! same structure FPGA-accelerator surveys identify as the key to comparing
//! datapath variants apples-to-apples.
//!
//! Implementations here:
//!
//! * [`FpRakerMachine`] — the term-serial FPRaker tile ([`Tile`]), cycle
//!   faithful and value exact;
//! * [`BaselineMachine`] — the bit-parallel baseline. Its timing is
//!   value-independent (`ceil(k/lanes)` cycles per block, it can never
//!   stall), so it advertises an analytic fast path; its value model
//!   ([`BaselinePe`]) is still available for numeric comparisons.
//!
//! # Adding a machine
//!
//! Implement [`MachineModel`] (typically a one-file change), then run it
//! through `fpraker_sim::Engine::simulate_trace_with`. The engine handles
//! tiling, round-robin block scheduling, off-chip traffic, golden checking
//! and the energy-model event counts; the machine only models one block.

use fpraker_num::Bf16;

use crate::baseline::BaselinePe;
use crate::config::TileConfig;
use crate::stats::ExecStats;
use crate::tile::{BlockPlans, Tile};

/// The outcome of one output block on a machine.
///
/// ```
/// use fpraker_core::{FpRakerMachine, MachineModel, TileConfig};
/// use fpraker_num::Bf16;
///
/// let mut machine = FpRakerMachine::from_tile(TileConfig::paper());
/// let cols = machine.tile_config().cols;
/// let rows = machine.tile_config().rows;
/// let a = vec![vec![Bf16::ONE; 8]; cols];
/// let b = vec![vec![Bf16::ONE; 8]; rows];
/// let block = machine.run_block(&a, &b);
/// assert_eq!(block.outputs.as_ref().map(Vec::len), Some(rows * cols));
/// assert!(block.cycles > 0);
/// ```
#[derive(Clone, Debug)]
pub struct MachineBlock {
    /// `rows × cols` output values, row-major — `None` for machines that
    /// model timing analytically without computing values.
    pub outputs: Option<Vec<Bf16>>,
    /// Block latency in machine cycles.
    pub cycles: u64,
    /// Statistics attributed to this block (zeroed for analytic machines,
    /// matching the pre-trait baseline accounting).
    pub stats: ExecStats,
}

/// Machine-level event totals for the energy model, expressed in core
/// vocabulary (the simulator adds the memory-system bytes on top).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineEvents {
    /// Terms issued into adder trees.
    pub terms: u64,
    /// PE-cycles actively processing a set.
    pub pe_active_cycles: u64,
    /// PE-cycles stalled on synchronization or the exponent block.
    pub pe_stall_cycles: u64,
    /// 8-value sets processed (exponent-block invocations).
    pub sets: u64,
    /// A values pushed through term encoders.
    pub a_values_encoded: u64,
    /// Bit-parallel PE-cycles (each performs `lanes` MACs).
    pub baseline_pe_cycles: u64,
}

/// A block-level accelerator datapath: everything the simulation engine
/// needs to know about one machine.
///
/// Machines are cheap to construct from a [`TileConfig`] (the engine
/// builds one instance per scheduled work unit, on whichever worker thread
/// claims it — hence the `Send` supertrait) and process one output block
/// at a time; blocks are independent, so any block order — including
/// parallel execution — produces identical results.
///
/// A new machine is typically a one-file wrapper that tweaks the tile
/// configuration and delegates. The wider-accumulator (θ-sweep) variant
/// from the paper's Fig. 21 design space:
///
/// ```
/// use fpraker_core::{
///     ExecStats, FpRakerMachine, MachineBlock, MachineEvents, MachineModel, TileConfig,
/// };
/// use fpraker_num::{AccumConfig, Bf16};
///
/// /// FPRaker with a narrowed 8-bit precision window (θ = 8).
/// struct NarrowAccumMachine(FpRakerMachine);
///
/// impl MachineModel for NarrowAccumMachine {
///     fn from_tile(mut cfg: TileConfig) -> Self {
///         cfg.pe.accum = AccumConfig::with_threshold(8);
///         NarrowAccumMachine(FpRakerMachine::from_tile(cfg))
///     }
///     fn name(&self) -> &'static str { "fpraker-theta8" }
///     fn tile_config(&self) -> &TileConfig { self.0.tile_config() }
///     fn run_block(&mut self, a: &[Vec<Bf16>], b: &[Vec<Bf16>]) -> MachineBlock {
///         self.0.run_block(a, b)
///     }
///     fn events(&self, stats: &ExecStats, blocks: u64, sets: u64) -> MachineEvents {
///         self.0.events(stats, blocks, sets)
///     }
/// }
///
/// let machine = NarrowAccumMachine::from_tile(TileConfig::paper());
/// assert_eq!(machine.tile_config().pe.accum.ob_threshold, 8);
/// ```
pub trait MachineModel: Send {
    /// Builds a machine for one tile of the given geometry.
    fn from_tile(cfg: TileConfig) -> Self
    where
        Self: Sized;

    /// Short machine name (used in reports and error messages).
    fn name(&self) -> &'static str;

    /// The tile geometry this machine was built for.
    fn tile_config(&self) -> &TileConfig;

    /// Whether block timing depends on operand *values*. Machines that
    /// return `false` must implement [`MachineModel::run_block_analytic`],
    /// and the engine will skip materializing operand streams for them.
    fn value_dependent(&self) -> bool {
        true
    }

    /// Processes one output block from padded operand streams: one stream
    /// per column in `a_streams`, one per row in `b_streams`, all of equal
    /// length, a multiple of the PE lane count.
    fn run_block(&mut self, a_streams: &[Vec<Bf16>], b_streams: &[Vec<Bf16>]) -> MachineBlock;

    /// Pre-encodes the A-side work shared by every block that streams these
    /// exact A streams (in the GEMM tiling, all blocks of a block row), for
    /// use with [`MachineModel::run_block_planned`]. `None` (the default)
    /// means this machine has no shareable A-side work and blocks should go
    /// through [`MachineModel::run_block`].
    fn plan_a_block(&self, a_streams: &[Vec<Bf16>]) -> Option<BlockPlans> {
        let _ = a_streams;
        None
    }

    /// [`MachineModel::run_block`] with A-side work pre-encoded by
    /// [`MachineModel::plan_a_block`] for these exact A streams; must be
    /// bit-identical to `run_block`. The default ignores the plans and
    /// delegates.
    fn run_block_planned(
        &mut self,
        a_streams: &[Vec<Bf16>],
        plans: &BlockPlans,
        b_streams: &[Vec<Bf16>],
    ) -> MachineBlock {
        let _ = plans;
        self.run_block(a_streams, b_streams)
    }

    /// Analytic fast path: the outcome of a block of `sets` k-sets without
    /// looking at values. Only meaningful when
    /// [`MachineModel::value_dependent`] is `false`.
    fn run_block_analytic(&mut self, sets: usize) -> MachineBlock {
        let _ = sets;
        panic!("{} has no analytic fast path; use run_block", self.name());
    }

    /// Maps aggregate execution statistics to machine-level event totals
    /// for the energy model. `blocks` and `sets_per_block` describe the
    /// tiling the statistics came from.
    fn events(&self, stats: &ExecStats, blocks: u64, sets_per_block: u64) -> MachineEvents;

    /// Cycles this machine instance's SWAR datapath rewound and replayed
    /// per lane (see `Pe::swar_unstable_cycles`), accumulated across every
    /// block it has run.
    /// Purely observational (the simulator surfaces it as a telemetry
    /// counter); `0` for machines without a SWAR datapath.
    fn swar_unstable_cycles(&self) -> u64 {
        0
    }
}

/// The FPRaker machine: a term-serial [`Tile`], cycle faithful and value
/// exact.
///
/// ```
/// use fpraker_core::{FpRakerMachine, MachineModel, TileConfig};
///
/// let machine = FpRakerMachine::from_tile(TileConfig::paper());
/// assert_eq!(machine.name(), "fpraker");
/// assert!(machine.value_dependent()); // timing depends on operand values
/// ```
#[derive(Clone, Debug)]
pub struct FpRakerMachine {
    tile: Tile,
}

impl MachineModel for FpRakerMachine {
    fn from_tile(cfg: TileConfig) -> Self {
        FpRakerMachine {
            tile: Tile::new(cfg),
        }
    }

    fn name(&self) -> &'static str {
        "fpraker"
    }

    fn tile_config(&self) -> &TileConfig {
        self.tile.config()
    }

    fn run_block(&mut self, a_streams: &[Vec<Bf16>], b_streams: &[Vec<Bf16>]) -> MachineBlock {
        let out = self.tile.run_block(a_streams, b_streams);
        MachineBlock {
            outputs: Some(out.outputs),
            cycles: out.cycles,
            stats: out.stats,
        }
    }

    fn plan_a_block(&self, a_streams: &[Vec<Bf16>]) -> Option<BlockPlans> {
        self.tile.plan_block(a_streams)
    }

    fn run_block_planned(
        &mut self,
        a_streams: &[Vec<Bf16>],
        plans: &BlockPlans,
        b_streams: &[Vec<Bf16>],
    ) -> MachineBlock {
        let out = self.tile.run_block_planned(a_streams, plans, b_streams);
        MachineBlock {
            outputs: Some(out.outputs),
            cycles: out.cycles,
            stats: out.stats,
        }
    }

    fn events(&self, stats: &ExecStats, _blocks: u64, _sets_per_block: u64) -> MachineEvents {
        let cfg = self.tile_config();
        let (rows, lanes) = (cfg.rows as u64, cfg.pe.lanes as u64);
        let lc = stats.lane_cycles;
        MachineEvents {
            terms: stats.terms.processed,
            pe_active_cycles: (lc.useful + lc.no_term + lc.shift_range) / lanes,
            pe_stall_cycles: (lc.inter_pe + lc.exponent) / lanes,
            sets: stats.sets,
            // Column-shared encoders: one A value per set feeds `rows` PEs.
            a_values_encoded: stats.sets / rows * lanes,
            baseline_pe_cycles: 0,
        }
    }

    fn swar_unstable_cycles(&self) -> u64 {
        self.tile.swar_unstable_cycles()
    }
}

/// The optimized bit-parallel bfloat16 baseline machine (Section V-A).
///
/// Timing is value-independent — every PE retires one `lanes`-MAC set per
/// cycle and can never stall — so the engine uses the analytic path. The
/// value model is still exact: [`BaselineMachine::run_block`] computes
/// outputs with [`BaselinePe`], which the numeric-equivalence property
/// tests exercise.
///
/// ```
/// use fpraker_core::{BaselineMachine, MachineModel, TileConfig};
///
/// let mut machine = BaselineMachine::from_tile(TileConfig::paper());
/// assert!(!machine.value_dependent());
/// // One block of 4 k-sets retires in 4 cycles, values unseen.
/// assert_eq!(machine.run_block_analytic(4).cycles, 4);
/// ```
#[derive(Clone, Debug)]
pub struct BaselineMachine {
    cfg: TileConfig,
}

impl MachineModel for BaselineMachine {
    fn from_tile(cfg: TileConfig) -> Self {
        BaselineMachine { cfg }
    }

    fn name(&self) -> &'static str {
        "baseline"
    }

    fn tile_config(&self) -> &TileConfig {
        &self.cfg
    }

    fn value_dependent(&self) -> bool {
        false
    }

    fn run_block(&mut self, a_streams: &[Vec<Bf16>], b_streams: &[Vec<Bf16>]) -> MachineBlock {
        let (rows, cols, lanes) = (self.cfg.rows, self.cfg.cols, self.cfg.pe.lanes);
        assert_eq!(a_streams.len(), cols, "one A stream per column");
        assert_eq!(b_streams.len(), rows, "one B stream per row");
        let len = a_streams.first().map_or(0, Vec::len);
        assert_eq!(
            len % lanes.max(1),
            0,
            "stream length must be a multiple of lanes"
        );
        let mut outputs = Vec::with_capacity(rows * cols);
        let mut stats = ExecStats::default();
        let mut cycles = 0;
        for b in b_streams {
            for a in a_streams {
                let mut pe = BaselinePe::new(self.cfg.pe);
                let (out, pe_cycles) = pe.dot(a, b);
                outputs.push(out);
                cycles = pe_cycles; // all PEs run in lockstep
                stats += *pe.stats();
            }
        }
        stats.cycles = cycles;
        MachineBlock {
            outputs: Some(outputs),
            cycles,
            stats,
        }
    }

    fn run_block_analytic(&mut self, sets: usize) -> MachineBlock {
        MachineBlock {
            outputs: None,
            cycles: sets as u64,
            // Zeroed, matching the analytic baseline accounting the paper
            // comparison uses (its stats taxonomy is FPRaker-specific).
            stats: ExecStats::default(),
        }
    }

    fn events(&self, _stats: &ExecStats, blocks: u64, sets_per_block: u64) -> MachineEvents {
        MachineEvents {
            baseline_pe_cycles: blocks * sets_per_block * self.cfg.num_pes() as u64,
            ..MachineEvents::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpraker_num::reference::{dot_f64, SplitMix64};

    fn rand_streams(n: usize, sets: usize, seed: u64) -> Vec<Vec<Bf16>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (0..sets * 8).map(|_| rng.bf16_in_range(3)).collect())
            .collect()
    }

    #[test]
    fn fpraker_machine_matches_raw_tile() {
        let cfg = TileConfig {
            rows: 2,
            cols: 2,
            ..TileConfig::paper()
        };
        let a = rand_streams(2, 3, 1);
        let b = rand_streams(2, 3, 2);
        let mut machine = FpRakerMachine::from_tile(cfg);
        let mut tile = Tile::new(cfg);
        let from_machine = machine.run_block(&a, &b);
        let from_tile = tile.run_block(&a, &b);
        assert_eq!(
            from_machine.outputs.as_deref(),
            Some(&from_tile.outputs[..])
        );
        assert_eq!(from_machine.cycles, from_tile.cycles);
        assert_eq!(from_machine.stats, from_tile.stats);
        assert!(machine.value_dependent());
    }

    #[test]
    fn baseline_analytic_and_value_paths_agree_on_cycles() {
        let cfg = TileConfig {
            rows: 2,
            cols: 3,
            ..TileConfig::paper()
        };
        let sets = 4;
        let a = rand_streams(3, sets, 3);
        let b = rand_streams(2, sets, 4);
        let mut machine = BaselineMachine::from_tile(cfg);
        let analytic = machine.run_block_analytic(sets);
        let valued = machine.run_block(&a, &b);
        assert_eq!(analytic.cycles, sets as u64);
        assert_eq!(valued.cycles, sets as u64);
        assert!(analytic.outputs.is_none());
        assert_eq!(valued.outputs.as_ref().map(Vec::len), Some(6));
        assert!(!machine.value_dependent());
    }

    #[test]
    fn baseline_outputs_track_the_reference() {
        let cfg = TileConfig {
            rows: 2,
            cols: 2,
            ..TileConfig::paper()
        };
        let a = rand_streams(2, 2, 5);
        let b = rand_streams(2, 2, 6);
        let mut machine = BaselineMachine::from_tile(cfg);
        let out = machine.run_block(&a, &b).outputs.unwrap();
        for r in 0..2 {
            for c in 0..2 {
                let exact = dot_f64(&a[c], &b[r]);
                let got = out[r * 2 + c].to_f64();
                let tol = exact.abs().max(1.0) * 0.02;
                assert!((got - exact).abs() <= tol, "({r},{c}): {got} vs {exact}");
            }
        }
    }

    #[test]
    fn baseline_events_count_every_pe_cycle() {
        let machine = BaselineMachine::from_tile(TileConfig::paper());
        let ev = machine.events(&ExecStats::default(), 10, 4);
        assert_eq!(ev.baseline_pe_cycles, 10 * 4 * 64);
        assert_eq!(ev.terms, 0);
    }

    #[test]
    fn fpraker_events_divide_lane_cycles_by_lanes() {
        let machine = FpRakerMachine::from_tile(TileConfig::paper());
        let mut stats = ExecStats::default();
        stats.lane_cycles.useful = 800;
        stats.lane_cycles.inter_pe = 160;
        stats.terms.processed = 640;
        stats.sets = 64;
        let ev = machine.events(&stats, 1, 1);
        assert_eq!(ev.pe_active_cycles, 100);
        assert_eq!(ev.pe_stall_cycles, 20);
        assert_eq!(ev.terms, 640);
        assert_eq!(ev.a_values_encoded, 64 / 8 * 8);
        assert_eq!(ev.baseline_pe_cycles, 0);
    }
}
