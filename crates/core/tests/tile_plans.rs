//! Shared-plan tile equivalence suite.
//!
//! A tile plans each column's A set once and decodes each row's B set once,
//! then hands both plans to every PE they feed. These tests pin that
//! sharing against the per-PE scalar reference: [`Tile::run_block`] and
//! [`Tile::run_block_planned`] on the SWAR and planned datapaths must give
//! the output bits of per-PE [`Pe::process_set_scalar`] dot products, their
//! summed set outcomes, and the cycles and [`ExecStats`] of a
//! scalar-reference tile. The random blocks include all-zero A column sets
//! and B row sets, zero-padded edges, odd row counts, unshared exponent
//! blocks, OB skipping off and overridden θ values.

use fpraker_core::{ExecStats, Pe, PeConfig, Tile, TileConfig};
use fpraker_num::encode::Encoding;
use fpraker_num::reference::SplitMix64;
use fpraker_num::{AccumConfig, Bf16};

/// One random block: `cols` A streams and `rows` B streams of `sets` sets.
struct Block {
    a: Vec<Vec<Bf16>>,
    b: Vec<Vec<Bf16>>,
}

/// A random stream set with whole-set zeros and zero-padded edges.
fn random_streams(rng: &mut SplitMix64, n: usize, sets: usize, lanes: usize) -> Vec<Vec<Bf16>> {
    let zero_pct = rng.next_u64() % 70;
    let spread = 1 + (rng.next_u64() % 10) as i32;
    // Edge padding: a k that is not a multiple of the lane count leaves
    // the tail of the last set zero in every stream.
    let tail_pad = (rng.next_u64() % lanes as u64) as usize;
    let mut streams: Vec<Vec<Bf16>> = (0..n)
        .map(|_| {
            let mut v: Vec<Bf16> = (0..sets * lanes)
                .map(|_| {
                    if rng.next_u64() % 100 < zero_pct {
                        Bf16::ZERO
                    } else {
                        rng.bf16_in_range(spread)
                    }
                })
                .collect();
            let len = v.len();
            v[len - tail_pad..].fill(Bf16::ZERO);
            v
        })
        .collect();
    for stream in &mut streams {
        // An edge block past the GEMM's last row or column streams zeros.
        if rng.next_u64().is_multiple_of(6) {
            stream.fill(Bf16::ZERO);
            continue;
        }
        // Whole all-zero sets inside an otherwise live stream.
        for set in stream.chunks_mut(lanes) {
            if rng.next_u64().is_multiple_of(4) {
                set.fill(Bf16::ZERO);
            }
        }
    }
    streams
}

/// A random tile geometry and PE configuration.
fn random_config(rng: &mut SplitMix64) -> TileConfig {
    let rows = [1, 2, 3, 4, 5][(rng.next_u64() % 5) as usize];
    let cols = 1 + (rng.next_u64() % 3) as usize;
    let pe = PeConfig {
        encoding: if rng.next_u64().is_multiple_of(4) {
            Encoding::RawBits
        } else {
            Encoding::Canonical
        },
        accum: AccumConfig {
            ob_threshold: (rng.next_u64() % 15) as i32,
            ..AccumConfig::paper()
        },
        ob_skip: !rng.next_u64().is_multiple_of(3),
        ..PeConfig::paper()
    };
    TileConfig {
        rows,
        cols,
        pe,
        share_exponent_block: rng.next_u64().is_multiple_of(2),
        ..TileConfig::paper()
    }
}

/// What the tile must reproduce, computed PE by PE on the scalar path:
/// every output's bits and the sum of the per-set outcomes.
fn per_pe_scalar(cfg: &TileConfig, block: &Block) -> (Vec<Bf16>, ExecStats) {
    let lanes = cfg.pe.lanes;
    let scalar_cfg = PeConfig {
        scalar_reference: true,
        ..cfg.pe
    };
    let mut outputs = Vec::new();
    let mut sum = ExecStats::default();
    for b in &block.b {
        for a in &block.a {
            let mut pe = Pe::new(scalar_cfg);
            for (sa, sb) in a.chunks_exact(lanes).zip(b.chunks_exact(lanes)) {
                let o = pe.process_set_scalar(sa, sb);
                sum.lane_cycles += o.lane_cycles;
                sum.terms += o.terms;
                sum.sets += 1;
            }
            outputs.push(pe.read_output());
        }
    }
    (outputs, sum)
}

/// Asserts a tile outcome equals the per-PE scalar reference and the
/// scalar-reference tile.
fn assert_matches(
    what: &str,
    got: &fpraker_core::BlockOutcome,
    per_pe: &(Vec<Bf16>, ExecStats),
    scalar_tile: &fpraker_core::BlockOutcome,
) {
    let bits = |v: &[Bf16]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.outputs), bits(&per_pe.0), "{what}: output bits");
    let (s, p) = (&got.stats, &per_pe.1);
    assert_eq!(s.terms, p.terms, "{what}: term statistics");
    assert_eq!(s.sets, p.sets, "{what}: set count");
    assert_eq!(s.lane_cycles.useful, p.lane_cycles.useful, "{what}: useful");
    assert_eq!(
        s.lane_cycles.no_term, p.lane_cycles.no_term,
        "{what}: no term"
    );
    assert_eq!(
        s.lane_cycles.shift_range, p.lane_cycles.shift_range,
        "{what}: shift range"
    );
    assert_eq!(got.cycles, scalar_tile.cycles, "{what}: cycles");
    assert_eq!(got.stats, scalar_tile.stats, "{what}: ExecStats");
}

#[test]
fn shared_plans_match_per_pe_scalar_dots() {
    let mut rng = SplitMix64::new(0x5A1D_B10C);
    for case in 0..160 {
        let cfg = random_config(&mut rng);
        let lanes = cfg.pe.lanes;
        let sets = 1 + (rng.next_u64() % 6) as usize;
        let a = random_streams(&mut rng, cfg.cols, sets, lanes);
        // Several B blocks against one A block row, as the engine's GEMM
        // tiling streams them against one set of A plans.
        let blocks: Vec<Block> = (0..3)
            .map(|_| Block {
                a: a.clone(),
                b: random_streams(&mut rng, cfg.rows, sets, lanes),
            })
            .collect();
        let scalar_cfg = TileConfig {
            pe: PeConfig {
                scalar_reference: true,
                ..cfg.pe
            },
            ..cfg
        };
        let mut scalar = Tile::new(scalar_cfg);
        for swar in [true, false] {
            let tile_cfg = TileConfig {
                pe: PeConfig { swar, ..cfg.pe },
                ..cfg
            };
            let mut fresh = Tile::new(tile_cfg);
            let mut planned = Tile::new(tile_cfg);
            let plans = planned.plan_block(&a);
            for (i, block) in blocks.iter().enumerate() {
                let what = format!("case {case}, swar {swar}, block {i}, {cfg:?}");
                let per_pe = per_pe_scalar(&cfg, block);
                let reference = scalar.run_block(&block.a, &block.b);
                let got = fresh.run_block(&block.a, &block.b);
                assert_matches(&format!("run_block, {what}"), &got, &per_pe, &reference);
                // FPRAKER_SCALAR_REFERENCE=1 forces the oracle path, which
                // never plans.
                if let Some(plans) = &plans {
                    let got = planned.run_block_planned(&block.a, plans, &block.b);
                    assert_matches(
                        &format!("run_block_planned, {what}"),
                        &got,
                        &per_pe,
                        &reference,
                    );
                }
            }
        }
    }
}

/// A 2×2 block whose second B stream holds `bad` in its second set.
fn block_with_bad_b(bad: f32) -> Block {
    let mut b = vec![vec![Bf16::ONE; 16]; 2];
    b[1][11] = Bf16::from_f32(bad);
    Block {
        a: vec![vec![Bf16::from_f32(1.5); 16]; 2],
        b,
    }
}

fn small_tile() -> Tile {
    Tile::new(TileConfig {
        rows: 2,
        cols: 2,
        ..TileConfig::paper()
    })
}

#[test]
#[should_panic(expected = "non-finite operand")]
fn run_block_rejects_nan_in_a_b_stream() {
    let block = block_with_bad_b(f32::NAN);
    let _ = small_tile().run_block(&block.a, &block.b);
}

#[test]
#[should_panic(expected = "non-finite operand")]
fn run_block_planned_rejects_infinity_in_a_b_stream() {
    let block = block_with_bad_b(f32::INFINITY);
    let mut tile = small_tile();
    match tile.plan_block(&block.a) {
        Some(plans) => {
            let _ = tile.run_block_planned(&block.a, &plans, &block.b);
        }
        // The scalar reference path (FPRAKER_SCALAR_REFERENCE=1) takes no
        // plans; the engine runs such tiles through run_block.
        None => {
            let _ = tile.run_block(&block.a, &block.b);
        }
    }
}

#[test]
#[should_panic(expected = "non-finite operand")]
fn run_block_planned_rejects_nan_in_a_b_stream() {
    let block = block_with_bad_b(f32::NAN);
    let mut tile = small_tile();
    match tile.plan_block(&block.a) {
        Some(plans) => {
            let _ = tile.run_block_planned(&block.a, &plans, &block.b);
        }
        None => {
            let _ = tile.run_block(&block.a, &block.b);
        }
    }
}

#[test]
#[should_panic(expected = "non-finite operand")]
fn run_block_rejects_infinity_in_a_b_stream() {
    let block = block_with_bad_b(f32::NEG_INFINITY);
    let _ = small_tile().run_block(&block.a, &block.b);
}
