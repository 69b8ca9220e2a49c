//! The FPRaker tile: a grid of PEs with shared operand streams.
//!
//! Section IV-C and Fig. 8: PEs are arranged in `rows × cols`. Every PE in a
//! column shares the same A (serial) operand stream and its term encoders;
//! every PE in a row shares the same B stream. A pair of PEs in a column
//! shares one exponent block (Section IV-B), so the second PE of each pair
//! begins a set one cycle after the first.
//!
//! Synchronization rules (which produce the paper's stall taxonomy):
//!
//! * a column advances to its next A set only when **all** of its PEs have
//!   drained the current one ("an A value that has more terms than the
//!   others will now affect a larger number of PEs", Section V-E);
//! * B sets are broadcast to all columns; per-PE B buffers let a fast column
//!   run at most `b_runahead` sets ahead of the slowest column
//!   ("the tile introduces per B and B′ buffers. By having N such buffers
//!   per PE allows the columns be at most N sets of values ahead").
//!
//! The timing model is event-driven (max-plus over set completion times) and
//! exact with respect to these rules; values are computed by the same PE
//! code path, so tile outputs are bit-identical to standalone PE dot
//! products.

use fpraker_num::Bf16;

use crate::config::TileConfig;
use crate::pe::{Pe, PlannedB, PlannedSet};
use crate::stats::ExecStats;

/// The most rows an exponent-sharing group can have; the per-group span
/// scratch in [`Tile::run_block`] is sized by this, and [`Tile::new`]
/// asserts the configured geometry fits.
const MAX_GROUP_ROWS: usize = 2;

/// Result of streaming one output block through a tile.
#[derive(Clone, Debug)]
pub struct BlockOutcome {
    /// `rows × cols` bfloat16 outputs, row-major: entry `(r, c)` is the dot
    /// product of B stream `r` with A stream `c`.
    pub outputs: Vec<Bf16>,
    /// Tile wall-clock cycles for the block.
    pub cycles: u64,
    /// Aggregated statistics (lane-cycle attribution sums to
    /// `cycles × rows × cols × lanes`).
    pub stats: ExecStats,
}

impl BlockOutcome {
    /// The output at tile position `(row, col)`.
    pub fn output(&self, row: usize, col: usize, cols: usize) -> Bf16 {
        self.outputs[row * cols + col]
    }
}

/// Pre-planned A-side term encodings for one block's A streams: one
/// [`PlannedSet`] per (set, column), built once by [`Tile::plan_block`] and
/// reusable across every block that shares those A streams (in the GEMM
/// tiling, all `blocks_n` blocks of a block row). Planning is a pure
/// function of the A operands and the encoding, so sharing it is exact.
#[derive(Clone, Debug)]
pub struct BlockPlans {
    /// Flat `num_sets × cols`, indexed `[s * cols + c]`.
    plans: Vec<PlannedSet>,
    num_sets: usize,
}

/// A tile of FPRaker PEs.
///
/// # Example
///
/// ```
/// use fpraker_core::{Tile, TileConfig};
/// use fpraker_num::Bf16;
///
/// let mut tile = Tile::new(TileConfig { rows: 2, cols: 2, ..TileConfig::paper() });
/// // One set (8 lanes) per stream: output(r, c) = dot(B_r, A_c).
/// let a = vec![vec![Bf16::ONE; 8], vec![Bf16::from_f32(2.0); 8]];
/// let b = vec![vec![Bf16::ONE; 8], vec![Bf16::from_f32(0.5); 8]];
/// let out = tile.run_block(&a, &b);
/// assert_eq!(out.output(0, 0, 2).to_f32(), 8.0);
/// assert_eq!(out.output(1, 1, 2).to_f32(), 8.0);
/// ```
#[derive(Clone, Debug)]
pub struct Tile {
    cfg: TileConfig,
    /// Row-major `rows × cols`.
    pes: Vec<Pe>,
    /// Reusable max-plus timing scratch and row B plans, kept across
    /// blocks so streaming many blocks through one tile allocates nothing
    /// per block once the vectors have grown to the block shape.
    scratch: BlockScratch,
}

/// The per-block working state: previous-set finish times, the per-set
/// coupling fronts and the current set's B plans. Owned by the tile and
/// cleared/resized at the top of each [`Tile::run_block`].
#[derive(Clone, Debug, Default)]
struct BlockScratch {
    /// The current set's B-side plan per row (the row's shared B stream,
    /// decoded once and handed to every column's PE); refilled per set on
    /// the fast paths, unused on the scalar reference path.
    b_plans: Vec<PlannedB>,
    /// Previous-set finish time per (column, group), flat `cols × groups`.
    prev_finish: Vec<u64>,
    /// Per-set A-coupling front (max finish over a column's groups), flat
    /// `cols × num_sets`.
    col_front: Vec<u64>,
    /// Per-set B-coupling front (max finish over a group's columns), flat
    /// `groups × num_sets`.
    row_front: Vec<u64>,
}

impl BlockScratch {
    /// Zeroes the scratch for a new block of the given shape, reusing the
    /// existing allocations when they are large enough.
    fn reset(&mut self, cols: usize, groups: usize, num_sets: usize) {
        self.prev_finish.clear();
        self.prev_finish.resize(cols * groups, 0);
        self.col_front.clear();
        self.col_front.resize(cols * num_sets, 0);
        self.row_front.clear();
        self.row_front.resize(groups * num_sets, 0);
    }
}

impl Tile {
    /// Creates a tile of zeroed PEs.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, or if the exponent-group
    /// geometry exceeds the tile's fixed per-group scratch
    /// (`MAX_GROUP_ROWS` rows).
    pub fn new(cfg: TileConfig) -> Self {
        assert!(cfg.rows > 0 && cfg.cols > 0, "tile must have PEs");
        assert!(
            cfg.group_rows() <= MAX_GROUP_ROWS,
            "exponent-sharing groups of {} rows exceed the tile's per-group \
             span scratch (MAX_GROUP_ROWS = {MAX_GROUP_ROWS}); widen \
             MAX_GROUP_ROWS in tile.rs to support this geometry",
            cfg.group_rows()
        );
        Tile {
            pes: vec![Pe::new(cfg.pe); cfg.rows * cfg.cols],
            cfg,
            scratch: BlockScratch::default(),
        }
    }

    /// The tile's configuration.
    pub fn config(&self) -> &TileConfig {
        &self.cfg
    }

    /// Total cycles the tile's PEs rewound and replayed per lane on the SWAR
    /// path (see [`Pe::swar_unstable_cycles`]), summed over every PE and
    /// every block this tile instance has run.
    pub fn swar_unstable_cycles(&self) -> u64 {
        self.pes.iter().map(Pe::swar_unstable_cycles).sum()
    }

    /// Streams one output block through the tile.
    ///
    /// `a_streams` has one flat stream per column and `b_streams` one per
    /// row; all streams must have equal length, a multiple of the PE lane
    /// count. Set `s` of stream `x` is `x[s*lanes .. (s+1)*lanes]`.
    /// PE `(r, c)` accumulates `Σ_s dot(a_c[set s], b_r[set s])`.
    ///
    /// # Panics
    ///
    /// Panics if stream counts don't match the tile geometry or stream
    /// lengths are unequal / not multiples of the lane count.
    pub fn run_block(&mut self, a_streams: &[Vec<Bf16>], b_streams: &[Vec<Bf16>]) -> BlockOutcome {
        match self.plan_block(a_streams) {
            Some(plans) => self.run_block_inner(a_streams, Some(&plans), b_streams),
            None => self.run_block_inner(a_streams, None, b_streams),
        }
    }

    /// Plans the A-side term encodings for a block's A streams — the shared
    /// column encoders of Section IV-C, hoisted so callers that stream many
    /// blocks against the same A operands (all blocks of a GEMM block row)
    /// encode them once. Returns `None` on the scalar reference path, which
    /// re-encodes per PE as the original model did.
    ///
    /// A operands are validated here once instead of once per column set:
    /// the planned runners consume `plan_prevalidated` output and skip the
    /// redundant per-set sweep.
    ///
    /// # Panics
    ///
    /// Panics if the stream count doesn't match the tile's columns, stream
    /// lengths are unequal / not multiples of the lane count, or any A
    /// operand is non-finite.
    pub fn plan_block(&self, a_streams: &[Vec<Bf16>]) -> Option<BlockPlans> {
        let (cols, lanes) = (self.cfg.cols, self.cfg.pe.lanes);
        let use_planned = self
            .pes
            .first()
            .is_some_and(|pe| !pe.uses_scalar_reference());
        if !use_planned {
            return None;
        }
        assert_eq!(a_streams.len(), cols, "one A stream per column");
        let len = a_streams.first().map_or(0, Vec::len);
        for stream in a_streams {
            assert_eq!(stream.len(), len, "stream length mismatch");
            for &v in stream {
                assert!(v.is_finite(), "non-finite operand");
            }
        }
        assert_eq!(
            len % lanes.max(1),
            0,
            "stream length must be a multiple of lanes"
        );
        let num_sets = len / lanes;
        let mut plans = Vec::with_capacity(num_sets * cols);
        for s in 0..num_sets {
            for a_stream in a_streams {
                plans.push(PlannedSet::plan_prevalidated(
                    &a_stream[s * lanes..(s + 1) * lanes],
                    self.cfg.pe.encoding,
                ));
            }
        }
        Some(BlockPlans { plans, num_sets })
    }

    /// [`Tile::run_block`] with A-side plans already built by
    /// [`Tile::plan_block`] for these exact A streams — bit-identical to
    /// `run_block`, minus the re-planning. Debug builds assert every plan
    /// matches a fresh encoding of its A set.
    ///
    /// # Panics
    ///
    /// Panics as `run_block` does on malformed streams, and if the plans'
    /// shape doesn't match the streams.
    pub fn run_block_planned(
        &mut self,
        a_streams: &[Vec<Bf16>],
        plans: &BlockPlans,
        b_streams: &[Vec<Bf16>],
    ) -> BlockOutcome {
        debug_assert!(
            self.pes
                .first()
                .is_some_and(|pe| !pe.uses_scalar_reference()),
            "scalar-reference tiles re-encode per PE and take no plans"
        );
        self.run_block_inner(a_streams, Some(plans), b_streams)
    }

    /// The single block runner behind [`Tile::run_block`] and
    /// [`Tile::run_block_planned`]: `plans` is `Some` on the planned/SWAR
    /// datapaths and `None` on the scalar reference path.
    fn run_block_inner(
        &mut self,
        a_streams: &[Vec<Bf16>],
        plans: Option<&BlockPlans>,
        b_streams: &[Vec<Bf16>],
    ) -> BlockOutcome {
        let (rows, cols, lanes) = (self.cfg.rows, self.cfg.cols, self.cfg.pe.lanes);
        assert_eq!(a_streams.len(), cols, "one A stream per column");
        assert_eq!(b_streams.len(), rows, "one B stream per row");
        let len = a_streams.first().map_or(0, Vec::len);
        for s in a_streams.iter().chain(b_streams) {
            assert_eq!(s.len(), len, "stream length mismatch");
        }
        assert_eq!(
            len % lanes.max(1),
            0,
            "stream length must be a multiple of lanes"
        );
        let num_sets = len / lanes;

        for pe in &mut self.pes {
            pe.reset_output();
        }

        // PEs are grouped into exponent-sharing pairs along each column
        // (a lone last row when `rows` is odd, or single-PE groups when
        // sharing is disabled). Groups progress independently subject to:
        //   * the pair barrier: both PEs of a group drain a set together,
        //     at a floor of one set per 2 cycles (shared exponent block);
        //   * A coupling: a group may run at most `a_runahead` sets ahead
        //     of the slowest group in its column (shared A stream, per-PE
        //     buffers);
        //   * B coupling: a group may run at most `b_runahead` sets ahead
        //     of the slowest column on its rows (B broadcast buffers).
        let group_rows = self.cfg.group_rows();
        let groups = rows.div_ceil(group_rows);
        // All PEs share one config, so one probe decides the datapath: on
        // the fast paths each column's shared A set is planned once (term
        // encoding, exponents, signs) — the column's shared term encoders
        // of Section IV-C — and each row's shared B set is decoded once per
        // set, and every PE consumes the two plans through either the SWAR
        // or the planned loop. The scalar reference path re-encodes and
        // re-decodes per PE, as the original model did.
        let use_swar = self.pes.first().is_some_and(Pe::uses_swar);
        if let Some(p) = plans {
            assert_eq!(
                p.num_sets, num_sets,
                "plans built for a different block shape"
            );
            assert_eq!(p.plans.len(), num_sets * cols, "plan count mismatch");
        }
        let mut stats = ExecStats::default();
        self.scratch.reset(cols, groups, num_sets);
        let a_slip = self.cfg.a_runahead;
        let b_slip = self.cfg.b_runahead;

        for s in 0..num_sets {
            if plans.is_some() {
                // Validates each B value once, as plan_block does for A.
                self.scratch.b_plans.clear();
                self.scratch.b_plans.extend(
                    b_streams
                        .iter()
                        .map(|b| PlannedB::plan(&b[s * lanes..(s + 1) * lanes])),
                );
            }
            for (c, a_stream) in a_streams.iter().enumerate() {
                let a_set = &a_stream[s * lanes..(s + 1) * lanes];
                let plan = plans.map(|p| &p.plans[s * cols + c]);
                // Planning is a pure function of (operands, encoding), so
                // the shared plan is exactly what each row — and each block
                // reusing these A streams — would have computed for itself.
                #[cfg(debug_assertions)]
                if let Some(p) = plan {
                    debug_assert_eq!(
                        *p,
                        PlannedSet::plan_prevalidated(a_set, self.cfg.pe.encoding),
                        "plans must be row- and block-invariant"
                    );
                }
                let a_gate = if groups > 1 && s > a_slip {
                    self.scratch.col_front[c * num_sets + (s - 1 - a_slip)]
                } else {
                    0
                };
                for g in 0..groups {
                    let b_gate = if cols > 1 && s > b_slip {
                        // Release of set s-b_slip.
                        self.scratch.row_front[g * num_sets + (s - b_slip - 1)]
                    } else {
                        0
                    };
                    let prev = self.scratch.prev_finish[c * groups + g];
                    let start = prev.max(a_gate).max(b_gate);
                    let rows_here = ((g + 1) * group_rows).min(rows) - g * group_rows;
                    // Waiting on A/B coupling idles the whole group.
                    stats.lane_cycles.inter_pe += (start - prev) * (rows_here * lanes) as u64;

                    let mut natural = 0u64;
                    let mut spans = [0u64; MAX_GROUP_ROWS];
                    for (i, r) in (g * group_rows..(g + 1) * group_rows)
                        .take(rows_here)
                        .enumerate()
                    {
                        let pe = &mut self.pes[r * cols + c];
                        // Tile PEs keep no stats of their own: the block
                        // sums their outcomes here.
                        let outcome = match plan {
                            Some(p) => pe.pair(p, &self.scratch.b_plans[r], use_swar),
                            None => {
                                pe.process_set(a_set, &b_streams[r][s * lanes..(s + 1) * lanes])
                            }
                        };
                        stats.lane_cycles += outcome.lane_cycles;
                        stats.terms += outcome.terms;
                        stats.sets += 1;
                        spans[i] = outcome.cycles;
                        natural = natural.max(outcome.cycles);
                    }
                    let floor = if rows_here > 1 { 2 } else { 1 };
                    let dur = natural.max(floor);
                    for &span in spans.iter().take(rows_here) {
                        // A PE that drains early waits for its pair mate
                        // (inter-PE); cycles added by the exponent-block
                        // floor are charged to the exponent category.
                        stats.lane_cycles.inter_pe += (natural - span) * lanes as u64;
                        stats.lane_cycles.exponent += (dur - natural) * lanes as u64;
                    }
                    let finish = start + dur;
                    self.scratch.prev_finish[c * groups + g] = finish;
                    let cf = &mut self.scratch.col_front[c * num_sets + s];
                    *cf = (*cf).max(finish);
                    let rf = &mut self.scratch.row_front[g * num_sets + s];
                    *rf = (*rf).max(finish);
                }
            }
        }

        let cycles = self.scratch.prev_finish.iter().copied().max().unwrap_or(0);
        // Groups that finish before the block does idle out the tail.
        for (i, &f) in self.scratch.prev_finish.iter().enumerate() {
            let g = i % groups;
            let rows_here = ((g + 1) * group_rows).min(rows) - g * group_rows;
            stats.lane_cycles.inter_pe += (cycles - f) * (rows_here * lanes) as u64;
        }
        stats.cycles = cycles;

        let outputs = self.pes.iter().map(Pe::read_output).collect();
        BlockOutcome {
            outputs,
            cycles,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeConfig;
    use fpraker_num::reference::{dot_f64, error_ulps, SplitMix64};

    fn rand_stream(rng: &mut SplitMix64, sets: usize, lanes: usize, spread: i32) -> Vec<Bf16> {
        (0..sets * lanes)
            .map(|_| rng.bf16_in_range(spread))
            .collect()
    }

    fn small_tile(rows: usize, cols: usize) -> Tile {
        Tile::new(TileConfig {
            rows,
            cols,
            ..TileConfig::paper()
        })
    }

    #[test]
    fn outputs_match_standalone_pe_dots() {
        let mut rng = SplitMix64::new(0xACE);
        let mut tile = small_tile(4, 4);
        let sets = 6;
        let a: Vec<Vec<Bf16>> = (0..4).map(|_| rand_stream(&mut rng, sets, 8, 3)).collect();
        let b: Vec<Vec<Bf16>> = (0..4).map(|_| rand_stream(&mut rng, sets, 8, 3)).collect();
        let out = tile.run_block(&a, &b);
        #[allow(clippy::needless_range_loop)]
        for r in 0..4 {
            for c in 0..4 {
                let mut pe = Pe::new(PeConfig::paper());
                let (expect, _) = pe.dot(&a[c], &b[r]);
                assert_eq!(
                    out.output(r, c, 4),
                    expect,
                    "tile output ({r},{c}) differs from standalone PE"
                );
            }
        }
    }

    #[test]
    fn outputs_close_to_f64_reference() {
        let mut rng = SplitMix64::new(0xBEE);
        let mut tile = small_tile(2, 2);
        let a: Vec<Vec<Bf16>> = (0..2).map(|_| rand_stream(&mut rng, 8, 8, 2)).collect();
        let b: Vec<Vec<Bf16>> = (0..2).map(|_| rand_stream(&mut rng, 8, 8, 2)).collect();
        let out = tile.run_block(&a, &b);
        #[allow(clippy::needless_range_loop)]
        for r in 0..2 {
            for c in 0..2 {
                let exact = dot_f64(&a[c], &b[r]);
                let err = error_ulps(out.output(r, c, 2).to_f64(), exact);
                assert!(err <= 8.0, "({r},{c}): {err} ulps");
            }
        }
    }

    #[test]
    fn lane_cycle_accounting_is_conserved() {
        let mut rng = SplitMix64::new(0xCAFE);
        for (rows, cols) in [(2, 2), (4, 2), (8, 4), (1, 3)] {
            let mut tile = small_tile(rows, cols);
            let sets = 5;
            let a: Vec<Vec<Bf16>> = (0..cols)
                .map(|_| rand_stream(&mut rng, sets, 8, 6))
                .collect();
            let b: Vec<Vec<Bf16>> = (0..rows)
                .map(|_| rand_stream(&mut rng, sets, 8, 6))
                .collect();
            let out = tile.run_block(&a, &b);
            let expected = out.cycles * (rows * cols * 8) as u64;
            assert_eq!(
                out.stats.lane_cycles.total(),
                expected,
                "{rows}x{cols}: accounting leak"
            );
        }
    }

    #[test]
    fn exponent_sharing_imposes_two_cycle_set_floor() {
        // Single-term A values: each set takes 1 PE-cycle; with exponent
        // sharing, the pair can only start a new set every 2 cycles.
        let a = vec![vec![Bf16::from_f32(2.0); 8]];
        let b = vec![vec![Bf16::ONE; 8], vec![Bf16::ONE; 8]];
        let mut shared = Tile::new(TileConfig {
            rows: 2,
            cols: 1,
            ..TileConfig::paper()
        });
        let out = shared.run_block(&a, &b);
        assert_eq!(out.cycles, 2, "min 2 cycles per set with shared block");
        assert!(out.stats.lane_cycles.exponent > 0);

        let mut unshared = Tile::new(TileConfig {
            rows: 2,
            cols: 1,
            share_exponent_block: false,
            ..TileConfig::paper()
        });
        let out = unshared.run_block(&a, &b);
        assert_eq!(out.cycles, 1);
        assert_eq!(out.stats.lane_cycles.exponent, 0);
    }

    #[test]
    fn long_sets_hide_the_exponent_floor() {
        // Dense A values take several cycles per set; the pipelined
        // exponent block adds nothing.
        let dense = Bf16::from_parts(false, 0, 0b1101_0101);
        let a = vec![vec![dense; 8]];
        let b = vec![vec![Bf16::ONE; 8], vec![Bf16::ONE; 8]];
        let mut shared = Tile::new(TileConfig {
            rows: 2,
            cols: 1,
            ..TileConfig::paper()
        });
        let mut unshared = Tile::new(TileConfig {
            rows: 2,
            cols: 1,
            share_exponent_block: false,
            ..TileConfig::paper()
        });
        let cs = shared.run_block(&a, &b).cycles;
        let cu = unshared.run_block(&a, &b).cycles;
        assert_eq!(cs, cu, "floor should be hidden by long sets");
        assert!(cs >= 3);
    }

    #[test]
    fn slow_column_throttles_fast_column_through_b_release() {
        // Column 0 gets dense, many-term A values; column 1 gets single-term
        // values. With a run-ahead of 1, column 1 cannot stream ahead and
        // must absorb inter-PE stalls.
        let mut rng = SplitMix64::new(3);
        let sets = 8;
        let dense: Vec<Bf16> = (0..sets * 8)
            .map(|_| Bf16::from_parts(false, 0, 0b1101_0101))
            .collect();
        let sparse: Vec<Bf16> = (0..sets * 8).map(|_| Bf16::from_f32(2.0)).collect();
        let b: Vec<Vec<Bf16>> = (0..1).map(|_| rand_stream(&mut rng, sets, 8, 1)).collect();
        let mut tile = Tile::new(TileConfig {
            rows: 1,
            cols: 2,
            ..TileConfig::paper()
        });
        let out = tile.run_block(&[dense.clone(), sparse.clone()], &b);
        assert!(
            out.stats.lane_cycles.inter_pe > 0,
            "fast column should stall on B release"
        );
        // Unlimited run-ahead removes those stalls.
        let mut free = Tile::new(TileConfig {
            rows: 1,
            cols: 2,
            b_runahead: usize::MAX,
            ..TileConfig::paper()
        });
        let out_free = free.run_block(&[dense, sparse], &b);
        assert!(out_free.cycles <= out.cycles);
    }

    #[test]
    fn empty_streams_produce_zero_outputs() {
        let mut tile = small_tile(2, 2);
        let a = vec![Vec::new(), Vec::new()];
        let b = vec![Vec::new(), Vec::new()];
        let out = tile.run_block(&a, &b);
        assert_eq!(out.cycles, 0);
        assert!(out.outputs.iter().all(|o| *o == Bf16::ZERO));
    }

    #[test]
    fn shared_plans_match_per_block_planning() {
        // One plan_block against several different B blocks (the engine's
        // block-row reuse pattern) must be bit-identical to letting each
        // run_block plan for itself — outputs, cycles and statistics.
        let mut rng = SplitMix64::new(0xD1CE);
        let sets = 4;
        let a: Vec<Vec<Bf16>> = (0..4).map(|_| rand_stream(&mut rng, sets, 8, 4)).collect();
        let mut with_plans = small_tile(4, 4);
        let mut without = small_tile(4, 4);
        let Some(plans) = with_plans.plan_block(&a) else {
            // FPRAKER_SCALAR_REFERENCE=1 forces the oracle path, which never
            // plans; the engine falls back to run_block in that mode.
            return;
        };
        for seed in 0..3 {
            let b: Vec<Vec<Bf16>> = (0..4)
                .map(|_| rand_stream(&mut rng, sets, 8, 3 + seed))
                .collect();
            let planned = with_plans.run_block_planned(&a, &plans, &b);
            let fresh = without.run_block(&a, &b);
            assert_eq!(planned.outputs, fresh.outputs, "seed {seed}");
            assert_eq!(planned.cycles, fresh.cycles, "seed {seed}");
            assert_eq!(planned.stats, fresh.stats, "seed {seed}");
        }
    }

    #[test]
    fn scalar_reference_tile_declines_to_plan() {
        let tile = Tile::new(TileConfig {
            pe: PeConfig::paper_scalar_reference(),
            rows: 2,
            cols: 2,
            ..TileConfig::paper()
        });
        let a = vec![vec![Bf16::ONE; 8]; 2];
        assert!(
            tile.plan_block(&a).is_none(),
            "scalar reference re-encodes per PE; block plans don't apply"
        );
    }

    #[test]
    fn accumulators_reset_between_blocks() {
        let mut tile = small_tile(1, 1);
        let a = vec![vec![Bf16::ONE; 8]];
        let b = vec![vec![Bf16::ONE; 8]];
        let first = tile.run_block(&a, &b);
        let second = tile.run_block(&a, &b);
        assert_eq!(first.output(0, 0, 1), second.output(0, 0, 1));
        assert_eq!(first.output(0, 0, 1).to_f32(), 8.0);
    }

    #[test]
    #[should_panic(expected = "one A stream per column")]
    fn wrong_stream_count_panics() {
        let mut tile = small_tile(2, 2);
        let _ = tile.run_block(&[vec![]], &[vec![], vec![]]);
    }

    #[test]
    fn more_rows_never_faster_on_same_columns() {
        // Growing the tile by adding rows (same A streams, extra B streams)
        // cannot shorten the block: more PEs share each A set.
        let mut rng = SplitMix64::new(11);
        let sets = 6;
        let a: Vec<Vec<Bf16>> = (0..2).map(|_| rand_stream(&mut rng, sets, 8, 5)).collect();
        let b4: Vec<Vec<Bf16>> = (0..4).map(|_| rand_stream(&mut rng, sets, 8, 5)).collect();
        let b2: Vec<Vec<Bf16>> = b4[..2].to_vec();
        let mut t2 = small_tile(2, 2);
        let mut t4 = small_tile(4, 2);
        let c2 = t2.run_block(&a, &b2).cycles;
        let c4 = t4.run_block(&a, &b4).cycles;
        assert!(
            c4 >= c2,
            "4-row tile faster than 2-row on same A: {c4} < {c2}"
        );
    }
}
