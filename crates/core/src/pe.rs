//! The FPRaker processing element.
//!
//! A PE multiplies 8 bfloat16 `(A, B)` value pairs concurrently and
//! accumulates their sum into one extended-precision output accumulator
//! (Section IV-A, Figs. 3 and 4). The `A` operands are processed
//! *term-serially*: their significands are encoded on the fly into signed
//! powers of two, and multiplying by a term is a shift of the corresponding
//! `B` significand.
//!
//! Timing and values come from one code path — [`Pe::process_set`] *is* both
//! the functional model (it performs the arithmetic, with round-to-nearest-
//! even at every shifter, exactly as the datapath would) and the timing
//! model (it plays the per-cycle issue schedule of the limited-shift window
//! and produces the Fig. 15 stall taxonomy). The paper's simulator was
//! likewise validated by checking computed values against golden outputs.
//!
//! Per cycle, the PE:
//!
//! 1. computes each busy lane's alignment offset
//!    `k_i = e_acc − (ABe_i − t_i)`, where `ABe_i` is the product exponent
//!    and `t_i` the lane's current term shift;
//! 2. terminates lanes whose `k_i` exceeds the out-of-bounds threshold θ
//!    (all later terms of that lane are even smaller — they are *guaranteed*
//!    ineffectual, Section IV-A);
//! 3. sets the shared base shifter to `base = min k_i` and issues every lane
//!    with `Δ_i = k_i − base ≤ 3`; lanes further away stall ("shift range");
//! 4. reduces the issued, shifted `B` significands through the adder tree
//!    into the accumulator, then normalizes it (which may raise `e_acc` and
//!    push later terms out of bounds — see the paper's Fig. 5, cycle 5).
//!
//! # SWAR datapath, planned fast path and scalar reference
//!
//! Three bit-identical implementations of that schedule exist:
//!
//! * the **SWAR path** ([`Pe::process_planned_swar`], the default): every
//!   lane's whole term stream lives in one packed `u64`
//!   ([`fpraker_num::encode::packed_term_table`]), alignment offsets,
//!   remaining-term counts and pre-folded sign bits live in fixed packed
//!   arrays, and each cycle is two whole-set passes — one branchless
//!   min/compare sweep producing the out-of-bounds mask and the base
//!   offset for all lanes at once, and one batched issue pass that folds
//!   every in-window contribution into a single widened partial sum
//!   committed with one accumulator update. An add landing on an emptied
//!   register re-adopts the addend's exponent; the first such adoption per
//!   cycle is folded analytically in the adopted frame, and only the rare
//!   second adoption (exact cancellation mid-fold) rewinds and replays the
//!   cycle on the per-lane sequence. Sets with only a couple of live
//!   lanes dispatch to the per-lane planned path, which wins when the
//!   packed passes have little to batch;
//! * the **planned fast path** ([`Pe::process_planned`], selected with
//!   [`PeConfig::swar`] `= false`): the same packed term words and lane
//!   scratch, walked one lane at a time along an active-lane bitmask
//!   with a live accumulator add per issued term;
//! * the **scalar reference** ([`Pe::process_set_scalar`]): the original
//!   straight-line model, kept as the arbiter of correctness. The
//!   equivalence suites cross-check cycles, lane-cycle attribution, term
//!   statistics and accumulator bits across all three paths; the golden
//!   and determinism suites pin them against exact references.
//!
//! Both fast paths consume a [`PlannedSet`], which captures the A-side
//! work (encoding, exponent, sign, validation) once, and a [`PlannedB`],
//! which does the same for the B side, so a tile plans each shared A set
//! once per column and each shared B set once per row. One entry,
//! [`Pe::process_pair`], loads a set from the two plans: the live-lane
//! mask is one operation on the plans' zero masks, a set with no live
//! lane settles in O(1), and only live lanes are loaded.
//!
//! [`Pe::process_set`] routes to the SWAR path unless
//! [`PeConfig::scalar_reference`] is set or the `FPRAKER_SCALAR_REFERENCE`
//! environment variable forces the reference path process-wide (CI runs the
//! test suites all ways); `FPRAKER_SWAR=0` / [`PeConfig::swar`] `= false`
//! select the planned path instead.

use std::sync::OnceLock;

use fpraker_num::encode::{encode_terms, packed_term_table, Encoding, PackedTerms, Terms};
use fpraker_num::{round_shift_rne, Bf16, ChunkedAccumulator};

use crate::config::PeConfig;
use crate::stats::{ExecStats, LaneCycles, TermStats};

/// The maximum lane count the allocation-free PE scratch supports.
///
/// The paper's PE has 8 lanes; the fixed-capacity lane state leaves
/// headroom for wider design-space sweeps. [`Pe::new`] rejects
/// configurations beyond this bound with a clear message.
pub const MAX_LANES: usize = 16;

/// Whether `FPRAKER_SCALAR_REFERENCE` forces the scalar reference path
/// process-wide (read once; any non-empty value other than `0` counts).
fn env_scalar_reference() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("FPRAKER_SCALAR_REFERENCE")
            .is_ok_and(|v| !v.trim().is_empty() && v.trim() != "0")
    })
}

/// Process-wide `FPRAKER_SWAR` override (read once): `Some(false)` for `0`,
/// `Some(true)` for any other non-empty value, `None` when unset/empty
/// (defer to [`PeConfig::swar`]).
fn env_swar() -> Option<bool> {
    static FORCED: OnceLock<Option<bool>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("FPRAKER_SWAR").ok().and_then(|v| {
            let v = v.trim();
            if v.is_empty() {
                None
            } else {
                Some(v != "0")
            }
        })
    })
}

/// Outcome of processing one set of value pairs on a PE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetOutcome {
    /// Cycles the PE spent on the set (at least 1).
    pub cycles: u64,
    /// Lane-cycle attribution within those cycles (no tile-level categories;
    /// `inter_pe`/`exponent` are attributed by the tile).
    pub lane_cycles: LaneCycles,
    /// Term bookkeeping for the set.
    pub terms: TermStats,
}

/// The A-side plan of one set: everything [`Pe::process_planned`] needs
/// about the serial operands, derived once and shareable across PEs.
///
/// In a tile, every PE of a column processes the same A set (Section IV-C:
/// the column shares the A stream and its term encoders). Planning the set
/// once — encoding each significand through the packed term LUT, capturing
/// exponents and signs, validating operands — and handing the plan to each
/// PE amortizes that work across `rows` PEs, exactly as the shared hardware
/// encoders do.
///
/// # Example
///
/// ```
/// use fpraker_core::{Pe, PeConfig, PlannedSet};
/// use fpraker_num::Bf16;
///
/// let cfg = PeConfig::paper();
/// let a = vec![Bf16::from_f32(1.5); 8];
/// let b = vec![Bf16::ONE; 8];
/// let plan = PlannedSet::plan(&a, cfg.encoding);
/// let mut pe = Pe::new(cfg);
/// let planned = pe.process_planned(&plan, &b);
/// let mut reference = Pe::new(cfg);
/// assert_eq!(planned, reference.process_set(&a, &b));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedSet {
    lanes: usize,
    /// Per-lane packed term words (empty for zero lanes).
    packed: [PackedTerms; MAX_LANES],
    /// Per-lane A exponents (unbiased; unset for zero lanes).
    a_exp: [i32; MAX_LANES],
    /// Bitmask of negative A values.
    a_sign: u32,
    /// Bitmask of zero A values (whole-MAC skip regardless of B). Lanes at
    /// and beyond `lanes` read as zero, so `!(a_zero | b_zero)` is exactly
    /// the live-lane mask.
    a_zero: u32,
}

impl PlannedSet {
    /// Plans one A set: encodes every significand through the packed term
    /// LUT and captures exponents, signs and zero-ness.
    ///
    /// # Panics
    ///
    /// Panics if `a` is longer than [`MAX_LANES`] or contains a non-finite
    /// value.
    pub fn plan(a: &[Bf16], encoding: Encoding) -> PlannedSet {
        for &ai in a {
            assert!(ai.is_finite(), "non-finite operand");
        }
        Self::plan_prevalidated(a, encoding)
    }

    /// Plans one A set whose operands the caller has already checked for
    /// finiteness (e.g. a tile validating each shared A stream once per
    /// block instead of once per column plan). Only the validation differs
    /// from [`PlannedSet::plan`]; the resulting plan is identical.
    ///
    /// # Panics
    ///
    /// Panics if `a` is longer than [`MAX_LANES`]. Debug builds still check
    /// finiteness.
    pub fn plan_prevalidated(a: &[Bf16], encoding: Encoding) -> PlannedSet {
        let lanes = a.len();
        assert!(
            lanes <= MAX_LANES,
            "set of {lanes} lanes exceeds MAX_LANES ({MAX_LANES})"
        );
        let packed_table = packed_term_table(encoding);
        let mut plan = PlannedSet {
            lanes,
            packed: [PackedTerms::default(); MAX_LANES],
            a_exp: [0; MAX_LANES],
            a_sign: 0,
            a_zero: !0 << lanes,
        };
        for (i, &ai) in a.iter().enumerate() {
            debug_assert!(ai.is_finite(), "non-finite operand");
            if ai.is_zero() {
                plan.a_zero |= 1 << i;
            } else {
                plan.packed[i] = packed_table[ai.significand() as usize];
                plan.a_exp[i] = ai.exponent();
                plan.a_sign |= u32::from(ai.sign()) << i;
            }
        }
        plan
    }

    /// The number of lanes this plan covers.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// The B-side plan of one set: the parallel operands' exponents,
/// significands, signs and zero-ness, decoded and validated once.
///
/// Every PE of a tile row processes the same B set (Section IV-C: the row
/// shares one B stream), so a tile decodes each (set, row) once per block
/// and hands the plan to the PE of every column, as it does with the
/// column's [`PlannedSet`].
///
/// # Example
///
/// ```
/// use fpraker_core::{Pe, PeConfig, PlannedB, PlannedSet};
/// use fpraker_num::Bf16;
///
/// let cfg = PeConfig::paper();
/// let a = vec![Bf16::from_f32(1.5); 8];
/// let b = vec![Bf16::ONE; 8];
/// let mut pe = Pe::new(cfg);
/// let paired = pe.process_pair(&PlannedSet::plan(&a, cfg.encoding), &PlannedB::plan(&b));
/// let mut reference = Pe::new(cfg);
/// assert_eq!(paired, reference.process_set(&a, &b));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedB {
    lanes: usize,
    /// Per-lane B exponents (unbiased; 0 for zero lanes).
    b_exp: [i32; MAX_LANES],
    /// Per-lane B significands with hidden bit (0 for zero lanes).
    b_sig: [u8; MAX_LANES],
    /// Bitmask of negative B values.
    b_sign: u32,
    /// Bitmask of zero B values; lanes at and beyond `lanes` read as zero.
    b_zero: u32,
}

impl PlannedB {
    /// Plans one B set: validates every operand and captures exponents,
    /// significands, signs and zero-ness.
    ///
    /// # Panics
    ///
    /// Panics if `b` is longer than [`MAX_LANES`] or contains a non-finite
    /// value.
    pub fn plan(b: &[Bf16]) -> PlannedB {
        let lanes = b.len();
        assert!(
            lanes <= MAX_LANES,
            "set of {lanes} lanes exceeds MAX_LANES ({MAX_LANES})"
        );
        let mut plan = PlannedB {
            lanes,
            b_exp: [0; MAX_LANES],
            b_sig: [0; MAX_LANES],
            b_sign: 0,
            b_zero: !0 << lanes,
        };
        for (i, &bi) in b.iter().enumerate() {
            assert!(bi.is_finite(), "non-finite operand");
            if bi.is_zero() {
                plan.b_zero |= 1 << i;
            } else {
                plan.b_exp[i] = bi.exponent();
                plan.b_sig[i] = bi.significand();
                plan.b_sign |= u32::from(bi.sign()) << i;
            }
        }
        plan
    }
}

/// One FPRaker processing element with its output accumulator.
///
/// # Example
///
/// ```
/// use fpraker_core::{Pe, PeConfig};
/// use fpraker_num::Bf16;
///
/// let mut pe = Pe::new(PeConfig::paper());
/// let a: Vec<Bf16> = [1.0f32, 2.0, 0.5, 0.0, 1.5, -1.0, 4.0, 0.25]
///     .iter().map(|&x| Bf16::from_f32(x)).collect();
/// let b = vec![Bf16::from_f32(1.0); 8];
/// let outcome = pe.process_set(&a, &b);
/// assert!(outcome.cycles >= 1);
/// assert_eq!(pe.read_output().to_f32(), 8.25);
/// ```
#[derive(Clone, Debug)]
pub struct Pe {
    cfg: PeConfig,
    acc: ChunkedAccumulator,
    stats: ExecStats,
    /// Resolved datapath choice (config flag or env override).
    use_scalar: bool,
    /// Resolved SWAR choice (`false` when the scalar reference wins).
    use_swar: bool,
    /// Reusable packed lane state, loaded by [`Pe::process_pair`] and run
    /// by either the SWAR cycle or the per-lane planned loop.
    scratch: LaneScratch,
    /// Cycles the SWAR path replayed on the per-lane sequence because the
    /// batched fold would not have been bit-exact. Deliberately *not* part
    /// of [`ExecStats`]: the stall taxonomy is datapath-invariant and
    /// cross-checked for exact equality between paths.
    swar_unstable_cycles: u64,
    /// Cycles the SWAR path folded batched in an adopted exponent frame
    /// (the first empty-register adoption of a cycle). Diagnostic, like
    /// `swar_unstable_cycles`.
    swar_adopted_cycles: u64,
}

/// All-ones-per-byte constant for the packed-byte (SWAR-proper) pass.
const L8: u64 = 0x0101_0101_0101_0101;
/// Per-byte sign-bit constant for the packed-byte pass.
const H8: u64 = 0x8080_8080_8080_8080;
/// Bias added to a lane's `k` so the packed byte stays non-negative.
const KBIAS: i32 = 32;
/// Largest biased `k` the packed byte representation admits. Leaves
/// headroom below the `0x7F` dead-lane sentinel so every packed compare
/// stays carry-free.
const KCAP: u64 = 120;
/// Dead-lane sentinel bytes: above every live byte, below the carry limit.
const KDEAD: u64 = 0x7F7F_7F7F_7F7F_7F7F;
/// Minimum live-lane count for the packed-byte cycle to pay off: the
/// whole-set passes (OB movemask, min tournament, window compare, packed
/// maintenance) are constant-cost per cycle, while the per-lane planned
/// loop scales with live lanes — below this density the planned loop is
/// faster. A pure performance dispatch; both paths are bit-identical.
const SWAR_DENSE_MIN: u32 = 3;

/// RNE-rounds away the low 7 bits of `x` — identical to
/// `round_shift_rne(x, 7)` — branchlessly: `x >> 7` floors toward −∞ in
/// value space, so adding `half − 1` plus the floor's parity bit rounds
/// half-to-even for either sign. B significands are 8 bits, so every
/// windowed SWAR contribution can pre-shift left by `7 + sh` (non-negative
/// whenever `k ≤ frac_bits`, i.e. always under an OB threshold at or below
/// the fraction width) and share this single constant-shift rounder,
/// replacing a data-dependent shift-direction branch and the general
/// rounder's sign/magnitude branches with four ALU ops.
#[inline(always)]
fn rne7(x: i64) -> i64 {
    (x + 63 + ((x >> 7) & 1)) >> 7
}

/// Saturation sentinel for a live lane whose biased `k` overflows the byte
/// range while already past the OB threshold: any value `≥ obt` (and below
/// the `0x7F` dead sentinel) makes the next packed OB pass retire the lane
/// exactly as the exact offset would, so its magnitude no longer matters.
/// This keeps long-running accumulations (large `e_acc`, every `k ≫ θ`)
/// on the packed cycle instead of dropping whole sets to the generic one.
const KSAT: u64 = 126;

/// Per-byte `x ≥ y`, reported in each byte's sign bit. Carry-free whenever
/// `x_i + 128 − y_i ≤ 255` per byte — true for all uses here (`x ≤ 158`,
/// `y ≥ 121` in the widest case; usually `x ≤ 127`, `y ≤ 128`).
#[inline]
fn swar_ge(x: u64, y: u64) -> u64 {
    x.wrapping_add(H8 - y) & H8
}

/// Per-byte minimum for byte values `≤ 127`.
#[inline]
fn swar_min(a: u64, b: u64) -> u64 {
    let m = swar_ge(a, b);
    // Spread each sign bit to its full byte: 0x80 → 0xFF.
    let m8 = (m - (m >> 7)) | m;
    (b & m8) | (a & !m8)
}

/// Horizontal minimum of the eight bytes (values `≤ 127`): a three-round
/// tournament whose low byte is the answer (the zero bytes the shifts pull
/// in never feed positions the final byte reads).
#[inline]
fn swar_hmin(x: u64) -> u8 {
    let x = swar_min(x, x >> 32);
    let x = swar_min(x, x >> 16);
    let x = swar_min(x, x >> 8);
    (x & 0xFF) as u8
}

/// Gathers each byte's sign bit into one bit per lane (movemask).
#[inline]
fn swar_msb_bits(m: u64) -> u32 {
    (((m >> 7) & L8).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

/// Expands a lane bit mask into a per-byte mask (bit `i` → byte `i` of
/// `0xFF`): replicate the mask into every byte, keep the diagonal bit
/// (byte `i` keeps only bit `i`, so no two lanes ever share a product
/// bit), then stretch each surviving bit over its byte.
#[inline]
fn swar_byte_mask(bits: u32) -> u64 {
    let diag = u64::from(bits & 0xFF).wrapping_mul(L8) & 0x8040_2010_0804_0201;
    // Nonzero-byte detect into the sign bit, then spread 0x80 → 0xFF.
    let nz = (diag | ((diag & KDEAD) + KDEAD)) & H8;
    (nz - (nz >> 7)) | nz
}

/// Fixed-capacity packed lane state for both fast paths (the SWAR cycle and
/// the per-lane planned loop), owned by the PE so processing a set
/// allocates nothing.
///
/// Each lane's remaining term stream is one `u64` of shift bytes plus one
/// `u8` of sign bits (product sign already folded in), consumed low-end
/// first: advancing a lane is `shifts >>= 8; negs >>= 1; rem -= 1`. The
/// alignment offset is maintained incrementally as `d = shift − ABe`, so a
/// cycle's `k_i = e_acc + d_i` is one add per lane; [`LaneScratch::pack_k`]
/// additionally packs all eight biased offsets into one `u64` for the
/// packed-byte compare pass.
#[derive(Clone, Copy, Debug)]
struct LaneScratch {
    /// Remaining term shifts, current term in the low byte (as `i8`).
    shifts: [u64; MAX_LANES],
    /// Remaining term signs (product sign XOR term sign), current in bit 0.
    negs: [u8; MAX_LANES],
    /// Remaining term count.
    rem: [u8; MAX_LANES],
    /// Current `shift − ABe` (so `k = e_acc + d`); kept at 0 for inactive
    /// lanes so the branchless pass stays overflow-free on them.
    d: [i32; MAX_LANES],
    /// Product exponent `Ae + Be` (for the per-lane adds).
    abe: [i32; MAX_LANES],
    /// B significand with hidden bit.
    bsig: [u64; MAX_LANES],
}

impl LaneScratch {
    const fn new() -> Self {
        LaneScratch {
            shifts: [0; MAX_LANES],
            negs: [0; MAX_LANES],
            rem: [0; MAX_LANES],
            d: [0; MAX_LANES],
            abe: [0; MAX_LANES],
            bsig: [0; MAX_LANES],
        }
    }

    /// Packs every live lane's biased offset `k + KBIAS = e + d + KBIAS`
    /// into one byte per lane (dead lanes hold the `0x7F` sentinel).
    /// A lane above the byte range but already past the OB threshold is
    /// pinned at [`KSAT`] — the next packed OB pass retires it exactly as
    /// the out-of-range offset would. Returns `None` only when a live lane
    /// is out of range *without* being OB-doomed (wide spread below θ, or
    /// θ itself out of byte range), forcing the generic per-lane cycle.
    #[inline]
    fn pack_k(&self, active: u32, e: i32, obt: i32) -> Option<u64> {
        let mut kb = KDEAD;
        let mut m = active;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let mut kbyte = e + self.d[i] + KBIAS;
            if kbyte as u64 > KCAP {
                if kbyte >= obt && obt <= KSAT as i32 {
                    kbyte = KSAT as i32;
                } else {
                    return None;
                }
            }
            kb = (kb & !(0xFF << (8 * i))) | ((kbyte as u64) << (8 * i));
        }
        Some(kb)
    }

    /// Consumes lane `i`'s current term; returns `true` if the lane retired
    /// (no terms left).
    #[inline]
    fn advance(&mut self, i: usize) -> bool {
        self.shifts[i] >>= 8;
        self.negs[i] >>= 1;
        self.rem[i] -= 1;
        if self.rem[i] == 0 {
            self.d[i] = 0;
            true
        } else {
            self.d[i] = (self.shifts[i] as i8) as i32 - self.abe[i];
            false
        }
    }
}

/// Per-lane working state of the scalar reference path.
#[derive(Clone, Copy, Debug)]
struct Lane {
    terms: Terms,
    cursor: usize,
    /// Product exponent `Ae + Be`.
    abe: i32,
    /// Product sign (A sign XOR B sign).
    neg: bool,
    /// B significand with hidden bit.
    b_sig: u8,
    /// Lane is done (terms exhausted or OB-terminated).
    done: bool,
}

impl Pe {
    /// Creates a PE with a zeroed accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the configured lane count exceeds [`MAX_LANES`].
    pub fn new(cfg: PeConfig) -> Self {
        assert!(
            cfg.lanes <= MAX_LANES,
            "PE configured with {} lanes exceeds MAX_LANES ({MAX_LANES})",
            cfg.lanes
        );
        let use_scalar = cfg.scalar_reference || env_scalar_reference();
        let use_swar = !use_scalar && env_swar().unwrap_or(cfg.swar);
        Pe {
            cfg,
            acc: ChunkedAccumulator::new(cfg.accum, cfg.chunk_size),
            stats: ExecStats::default(),
            use_scalar,
            use_swar,
            scratch: LaneScratch::new(),
            swar_unstable_cycles: 0,
            swar_adopted_cycles: 0,
        }
    }

    /// The PE's configuration.
    pub fn config(&self) -> &PeConfig {
        &self.cfg
    }

    /// `true` if this PE routes [`Pe::process_set`] through the scalar
    /// reference path (config flag or `FPRAKER_SCALAR_REFERENCE`).
    pub fn uses_scalar_reference(&self) -> bool {
        self.use_scalar
    }

    /// `true` if this PE routes [`Pe::process_set`] through the SWAR path
    /// ([`PeConfig::swar`] or `FPRAKER_SWAR`; the scalar reference wins).
    pub fn uses_swar(&self) -> bool {
        self.use_swar
    }

    /// Cycles the SWAR path rewound and replayed per lane because the
    /// batched fold would not have been bit-exact: a second add in one
    /// cycle landing on an emptied register (exact cancellation mid-fold)
    /// and re-adopting a different exponent. Purely diagnostic — values,
    /// cycles and [`ExecStats`] are unaffected by which side ran.
    pub fn swar_unstable_cycles(&self) -> u64 {
        self.swar_unstable_cycles
    }

    /// Cycles the SWAR path kept batched through the first empty-register
    /// adoption of the cycle (every fresh accumulator and chunk boundary
    /// whose first issued term sits off the hidden position), folding in
    /// the analytically adopted exponent frame. Not replays: no work is
    /// redone. Purely diagnostic, like [`Pe::swar_unstable_cycles`].
    pub fn swar_adopted_cycles(&self) -> u64 {
        self.swar_adopted_cycles
    }

    /// Cumulative statistics since construction or [`Pe::take_stats`].
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Returns and clears the cumulative statistics.
    pub fn take_stats(&mut self) -> ExecStats {
        std::mem::take(&mut self.stats)
    }

    /// Reads the output accumulator as bfloat16 without disturbing it.
    pub fn read_output(&self) -> Bf16 {
        let mut acc = self.acc;
        acc.finish()
    }

    /// The output accumulator's exact value (for golden checking).
    pub fn output_f64(&self) -> f64 {
        self.acc.value_f64()
    }

    /// Clears the output accumulator for a new dot product.
    pub fn reset_output(&mut self) {
        self.acc.reset();
    }

    /// Processes one set of `lanes` value pairs, accumulating
    /// `Σ a[i] * b[i]` into the output accumulator and returning the cycle
    /// schedule outcome.
    ///
    /// Routes to the SWAR path by default; [`PeConfig::swar`] `= false` (or
    /// `FPRAKER_SWAR=0`) selects the planned path, and the scalar reference
    /// ([`PeConfig::scalar_reference`] or the `FPRAKER_SCALAR_REFERENCE`
    /// environment variable) overrides both. All three are bit-identical in
    /// values, cycles and statistics.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` are not exactly `lanes` long, or if any operand
    /// is non-finite (training data contains no infinities or NaNs; the
    /// hardware does not handle them).
    pub fn process_set(&mut self, a: &[Bf16], b: &[Bf16]) -> SetOutcome {
        if self.use_scalar {
            return self.process_set_scalar(a, b);
        }
        let plan = PlannedSet::plan(a, self.cfg.encoding);
        self.process_recorded(&plan, &PlannedB::plan(b), self.use_swar)
    }

    /// Processes one set from its A-side and B-side plans on the PE's
    /// configured fast path (SWAR unless [`PeConfig::swar`] `= false` or
    /// `FPRAKER_SWAR=0`; a scalar-reference PE runs the planned path, since
    /// it was handed plans).
    ///
    /// This is the single load path behind every fast-path entry: the
    /// live-lane mask is one operation on the two plans' zero masks, a set
    /// with no live lane settles in O(1), and only live lanes are loaded.
    ///
    /// # Panics
    ///
    /// Panics if either plan's lane count differs from the configured lane
    /// count.
    pub fn process_pair(&mut self, plan: &PlannedSet, b: &PlannedB) -> SetOutcome {
        self.process_recorded(plan, b, self.use_swar)
    }

    /// Processes one set whose A side was planned ahead with
    /// [`PlannedSet::plan`] on the per-lane planned loop, whatever the
    /// configured datapath.
    ///
    /// # Panics
    ///
    /// Panics if the plan's lane count or `b`'s length differ from the
    /// configured lane count, or if any B operand is non-finite.
    pub fn process_planned(&mut self, plan: &PlannedSet, b: &[Bf16]) -> SetOutcome {
        self.process_recorded(plan, &PlannedB::plan(b), false)
    }

    /// Processes one planned set on the SWAR datapath — the default and
    /// fastest path, bit-identical to [`Pe::process_planned`] and
    /// [`Pe::process_set_scalar`] in values, cycles and statistics.
    ///
    /// Per cycle:
    ///
    /// 1. a branchless min/compare pass over the packed lane arrays
    ///    computes every `k_i = e_acc + d_i`, the out-of-bounds mask and
    ///    the base offset in one sweep (the exponent is constant across
    ///    the pass, so no per-lane re-read is needed here);
    /// 2. a batched issue pass folds every in-window lane's contribution —
    ///    aligned and RNE-rounded exactly as
    ///    [`Accumulator::add_scaled`](fpraker_num::Accumulator::add_scaled)
    ///    would — into one widened partial sum, committed with a single
    ///    register update and one `normalize()`.
    ///
    /// The fold assumes the accumulator exponent is constant across the
    /// cycle. That breaks when an add lands on an *empty* running mantissa
    /// with `k ≠ 0`: `add_scaled` then re-adopts the addend's exponent
    /// (`e_acc ← ABe − shift = e_acc_old − k`), changing the alignment of
    /// every later lane in the same cycle. The batch pass checks
    /// `running == 0 && k != 0` before each fold step and handles a hit in
    /// two tiers:
    ///
    /// * the **first** adoption of a cycle (an empty register meeting its
    ///   first issued lane — every fresh accumulator and chunk boundary)
    ///   stays batched: B significands are normalized, so the adopted
    ///   exponent is known analytically (`e − k0`, placing the addend's
    ///   MSB at the hidden position) and the rest of the cycle folds in
    ///   the adopted frame, re-selecting later lanes against the unchanged
    ///   pass-1 base exactly as the sequential adds would, then commits
    ///   with [`Accumulator::set_batched`](fpraker_num::Accumulator::set_batched);
    /// * a **second** adoption in the same cycle (exact cancellation
    ///   mid-fold) is genuinely sequential: the walk's register-only undo
    ///   log rewinds the lane state and the cycle replays through the
    ///   per-lane sequence. [`Pe::swar_unstable_cycles`] counts these
    ///   replays; [`Pe::swar_adopted_cycles`] counts the batched first
    ///   adoptions.
    ///
    /// The `k == 0` adoption is exponent-neutral and never leaves the
    /// plain fold. Sparse sets (fewer live lanes than a small constant)
    /// run the per-lane loop of [`Pe::process_planned`] instead — the
    /// packed passes have constant per-cycle cost, the per-lane loop
    /// scales with live lanes, and the two are bit-identical, so the
    /// dispatch is purely a performance choice.
    ///
    /// # Panics
    ///
    /// Panics if the plan's lane count or `b`'s length differ from the
    /// configured lane count, or if any B operand is non-finite.
    pub fn process_planned_swar(&mut self, plan: &PlannedSet, b: &[Bf16]) -> SetOutcome {
        self.process_recorded(plan, &PlannedB::plan(b), true)
    }

    /// [`Pe::pair`] recorded into the PE's cumulative statistics.
    fn process_recorded(&mut self, plan: &PlannedSet, b: &PlannedB, swar: bool) -> SetOutcome {
        let outcome = self.pair(plan, b, swar);
        self.finish_set(outcome);
        outcome
    }

    /// The load path of both fast paths: settles a set with no live lane
    /// in O(1), loads only the live lanes' packed state from the two plans,
    /// then runs the SWAR cycle (`swar` and at least `SWAR_DENSE_MIN` live
    /// lanes) or the per-lane planned loop. Adds nothing to the PE's
    /// cumulative statistics: the public entries do that, and a tile sums
    /// the returned outcomes itself.
    pub(crate) fn pair(&mut self, plan: &PlannedSet, b: &PlannedB, swar: bool) -> SetOutcome {
        let lanes = self.cfg.lanes;
        assert_eq!(plan.lanes, lanes, "A operand count");
        assert_eq!(b.lanes, lanes, "B operand count");
        self.acc.count_macs(lanes as u32);

        let mut outcome = SetOutcome::default();
        outcome.terms.macs = lanes as u64;
        // A zero *value* pair produces no terms at all (a naive bit-serial
        // unit would still grind through 8 digit slots); a live lane skips
        // the slots its encoding leaves empty.
        let live = !(plan.a_zero | b.b_zero);
        let n_live = live.count_ones();
        outcome.terms.zero_value_macs = u64::from(lanes as u32 - n_live);
        outcome.terms.zero_skipped = 8 * lanes as u64;
        if live == 0 {
            // Nothing to accumulate; the set still occupies the PE for the
            // minimum one cycle (Section IV-A: "the minimum effective number
            // of cycles for processing the 8 MACs will be 1 cycle").
            outcome.cycles = 1;
            outcome.lane_cycles.no_term = lanes as u64;
            return outcome;
        }

        // Load the live lanes (scratch owned by the PE; nothing is
        // heap-allocated per set). Dead lanes keep d = 0 so the SWAR
        // cycle's all-lane pass stays overflow-free on them.
        let s = &mut self.scratch;
        s.d = [0; MAX_LANES];
        let mut max_abe = i32::MIN;
        let mut m = live;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            let p = plan.packed[i];
            outcome.terms.zero_skipped -= u64::from(p.len);
            let abe = plan.a_exp[i] + b.b_exp[i];
            max_abe = max_abe.max(abe);
            s.shifts[i] = p.shifts;
            // Fold the product sign into the term signs once: bit j of
            // `negs` is then the issued sign of term j directly. (Garbage
            // in the bits beyond `len` is never consumed.)
            let lane_neg = ((plan.a_sign ^ b.b_sign) >> i) & 1;
            s.negs[i] = p.negs ^ 0u8.wrapping_sub(lane_neg as u8);
            s.rem[i] = p.len;
            s.abe[i] = abe;
            s.bsig[i] = u64::from(b.b_sig[i]);
            s.d[i] = i32::from(p.shifts as i8) - abe;
        }

        // Sparse sets amortize the packed passes poorly — the per-lane
        // loop walks only live lanes and wins below a handful of them. The
        // two are bit-identical, so this is purely a performance dispatch.
        if swar && n_live >= SWAR_DENSE_MIN {
            self.swar_run(live, max_abe, outcome)
        } else {
            self.lane_run(live, max_abe, outcome)
        }
    }

    /// The per-lane planned loop: runs the loaded lane scratch to
    /// retirement with one live accumulator add per issued term, walking
    /// only the active-lane bitmask.
    fn lane_run(&mut self, mut active: u32, max_abe: i32, mut outcome: SetOutcome) -> SetOutcome {
        let lanes = self.cfg.lanes;
        let ob_skip = self.cfg.ob_skip;
        let window = self.cfg.max_shift_window;
        let s = &mut self.scratch;

        // Block 1 — exponent: compute emax and align the accumulator.
        let acc = self.acc.inner_mut();
        acc.begin_set(max_abe);

        // Blocks 2 and 3 — stream terms through the shift&reduce window.
        loop {
            // One pass over the active lanes: terminate out-of-bounds lanes
            // (k grows monotonically within a lane, so the first
            // out-of-bounds term ends it) and find the base offset. The
            // accumulator exponent is constant across this pass.
            let e = acc.exponent();
            let mut base = i32::MAX;
            let mut m = active;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                let k = e + s.d[i];
                if ob_skip && acc.is_out_of_bounds(k) {
                    outcome.terms.ob_skipped += u64::from(s.rem[i]);
                    active &= !(1 << i);
                } else if k < base {
                    base = k;
                }
            }
            if active == 0 {
                break;
            }

            // Issue every active lane within the shift window; the others
            // stall. Retired lanes idle out the rest of the set (no term).
            outcome.lane_cycles.no_term += u64::from(lanes as u32 - active.count_ones());
            let mut m = active;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                // Re-read the accumulator exponent per lane: accumulating
                // into an emptied register re-adopts its exponent mid-loop.
                let k = acc.exponent() + s.d[i];
                if (k - base) as u32 <= window {
                    let shift = i32::from(s.shifts[i] as i8);
                    acc.add_scaled(s.negs[i] & 1 != 0, s.bsig[i], s.abe[i] - shift - 7);
                    if s.advance(i) {
                        active &= !(1 << i);
                    }
                    outcome.lane_cycles.useful += 1;
                    outcome.terms.processed += 1;
                } else {
                    outcome.lane_cycles.shift_range += 1;
                }
            }

            // The accumulator is normalized (and rounded) every accumulation
            // step; this can raise e_acc mid-set and push later terms out of
            // bounds (paper Fig. 5, cycle 5).
            acc.normalize();
            outcome.cycles += 1;
        }

        if outcome.cycles == 0 {
            // Every lane terminated out-of-bounds before issuing anything;
            // the set still occupies the PE for the minimum one cycle.
            outcome.cycles = 1;
            outcome.lane_cycles.no_term += lanes as u64;
        }
        outcome
    }

    /// The SWAR cycle engine: runs the loaded lane scratch to retirement
    /// with two whole-set passes per cycle.
    fn swar_run(&mut self, mut active: u32, max_abe: i32, mut outcome: SetOutcome) -> SetOutcome {
        let lanes = self.cfg.lanes;
        let window = self.cfg.max_shift_window;
        // θ folded to "never" when OB skipping is disabled, keeping the
        // compare pass branchless either way.
        let theta = if self.cfg.ob_skip {
            self.cfg.accum.ob_threshold
        } else {
            i32::MAX
        };
        // Contribution alignment: add_scaled shifts by
        // pow − (e_acc − frac) = (frac − 7) − k for an 8-bit B significand.
        let shift_base = self.cfg.accum.frac_bits as i32 - 7;
        let s = &mut self.scratch;

        // Block 1 — exponent: compute emax and align the accumulator.
        let acc = self.acc.inner_mut();
        acc.begin_set(max_abe);

        // Packed-byte mode: every live lane's biased k in one byte of `kb`.
        // Drops to the generic per-lane cycle (and re-enters when it can)
        // whenever the byte range can't represent the state — more than 8
        // lanes, wide exponent spreads, or the post-cancellation sentinel
        // exponent.
        // OB threshold in biased-byte space: `k > θ` becomes `kb ≥ obt`.
        // Clamping to [0, 128] keeps the compare carry-free while staying
        // exact: at 0 every live byte fires (θ below the representable
        // range ⇒ all live lanes are out of bounds), and at 128 none does
        // (live bytes cap at KCAP; a lane that would cross θ without
        // saturating first crosses KCAP and drops the set to the generic
        // cycle). With OB skipping off the threshold folds to "never",
        // which also disables KSAT saturation (`128 > KSAT`).
        let obt_i: i32 = if self.cfg.ob_skip {
            i64::from(self.cfg.accum.ob_threshold)
                .saturating_add(i64::from(KBIAS) + 1)
                .clamp(0, 128) as i32
        } else {
            128
        };
        let obt_b = L8 * obt_i as u64;
        let mut kb = 0u64;
        let mut packed_ok = lanes <= 8;
        if packed_ok {
            match s.pack_k(active, acc.exponent(), obt_i) {
                Some(v) => kb = v,
                None => packed_ok = false,
            }
        }

        // Blocks 2 and 3 — stream terms through the shift&reduce window,
        // two whole-set passes per cycle.
        loop {
            if active == 0 {
                // Every lane retired by exhausting its terms in the
                // previous (already counted) cycle; the set is done.
                break;
            }
            if packed_ok {
                // ---- Packed cycle: all-lane decisions on u64 bytes. ----
                let e = acc.exponent();
                debug_assert_eq!(s.pack_k(active, e, obt_i), Some(kb), "stale packed k");

                // Pass 1 — out-of-bounds mask, base offset and issue
                // window for all lanes at once, branchlessly.
                let ob_bits = swar_msb_bits(swar_ge(kb, obt_b)) & active;
                if ob_bits != 0 {
                    // Rare slow lane: charge the skipped terms and retire.
                    let mut m = ob_bits;
                    while m != 0 {
                        let i = m.trailing_zeros() as usize;
                        m &= m - 1;
                        outcome.terms.ob_skipped += s.rem[i] as u64;
                        s.d[i] = 0;
                        kb |= 0x7F << (8 * i);
                    }
                    active &= !ob_bits;
                    if active == 0 {
                        break;
                    }
                }
                let (minb, sel);
                if active & (active - 1) == 0 {
                    // Single live lane: it is its own base and always in
                    // window, so the tournament min and the packed window
                    // compare collapse away.
                    minb = ((kb >> (8 * active.trailing_zeros())) & 0xFF) as u8;
                    sel = active;
                } else {
                    minb = swar_hmin(kb);
                    let thr = (u64::from(minb) + 1 + u64::from(window)).min(128);
                    sel = !swar_msb_bits(swar_ge(kb, L8 * thr)) & active;
                }

                // Retired lanes idle out the rest of the set (no term).
                outcome.lane_cycles.no_term += (lanes as u32 - active.count_ones()) as u64;

                // Pass 2 — one fused walk over the selected lanes: fold
                // each contribution — aligned and rounded exactly as
                // add_scaled would — into one widened partial sum and
                // advance the lane in the same step, watching for the
                // empty-register adoption that would move the pass-start
                // exponent. The walk keeps a register-only undo log (the
                // shifted-out shift byte is recoverable from the kb
                // snapshot; only the consumed sign bits need saving) so
                // the rare adoption hit can rewind and replay per-lane.
                let mant0 = acc.mantissa();
                let mut r = mant0;
                let mut unstable = false;
                let mut adopted = false;
                let kb0 = kb;
                let active0 = active;
                let packed_ok0 = packed_ok;
                let mut done = 0u32;
                let mut sign_log = 0u32;
                let mut m = sel;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let k = ((kb0 >> (8 * i)) & 0xFF) as i32 - KBIAS;
                    if r == 0 && k != 0 {
                        if done == 0 {
                            // Empty register meeting its first issued lane
                            // off the hidden position (every fresh
                            // accumulator and chunk boundary): the adopted
                            // exponent is known analytically, so the cycle
                            // still folds batched — in the adopted frame,
                            // below.
                            adopted = true;
                        } else {
                            // Mid-cycle exact cancellation: rewind and
                            // replay per lane.
                            unstable = true;
                        }
                        break;
                    }
                    let neg = s.negs[i] & 1;
                    let mag = s.bsig[i] as i64;
                    let signed = if neg != 0 { -mag } else { mag };
                    // Pre-shift by 7 so one branchless constant rounder
                    // covers both shift directions; `t ≥ 0` always holds
                    // under the paper config (`k ≤ θ ≤ frac_bits`), so the
                    // remaining branch is perfectly predicted.
                    let t = shift_base - k + 7;
                    let c = if t >= 0 {
                        debug_assert!(t < 55, "contribution alignment overflow (t={t})");
                        rne7(signed << t)
                    } else {
                        round_shift_rne(signed, (7 - t) as u32)
                    };
                    r += c;
                    // Advance in the same walk.
                    done |= 1 << i;
                    sign_log |= u32::from(neg) << i;
                    let d_old = s.d[i];
                    if s.advance(i) {
                        active &= !(1 << i);
                        kb |= 0x7F << (8 * i);
                    } else {
                        // Same exponent, strictly larger shift: the biased
                        // byte moves by the shift delta.
                        let delta = (s.d[i] - d_old) as u64;
                        kb = kb.wrapping_add(delta << (8 * i));
                        let byte = (kb >> (8 * i)) & 0xFF;
                        if byte > KCAP {
                            if byte as i32 >= obt_i && obt_i <= KSAT as i32 {
                                // Past θ anyway: pin to the saturation
                                // sentinel; the next OB pass retires it.
                                kb = (kb & !(0xFF << (8 * i))) | (KSAT << (8 * i));
                            } else {
                                packed_ok = false;
                            }
                        }
                    }
                }

                let mut repack = false;
                if adopted {
                    // Empty register, first issued lane at k0 ≠ 0: the
                    // per-lane sequence would adopt e′ = e − k0 on that add
                    // (bsig is normalized — MSB at bit 7 — so the adopted
                    // exponent places it at the hidden position), shifting
                    // every later lane's offset by k0 within the same
                    // cycle. Fold the cycle in the adopted frame instead
                    // of replaying per lane: the adopting lane lands at
                    // shift_base exactly; each later active lane is
                    // re-selected live against the unchanged pass-1 base,
                    // exactly as the sequential adds would.
                    let base = i32::from(minb) - KBIAS;
                    let i0 = sel.trailing_zeros() as usize;
                    let k0 = ((kb0 >> (8 * i0)) & 0xFF) as i32 - KBIAS;
                    // Every active lane below the adopting one is an
                    // unselected stall in either frame.
                    let mut stall_n = (active0 & ((1u32 << i0) - 1)).count_ones() as u64;
                    let mut useful_n = 1u64;
                    let neg0 = s.negs[i0] & 1;
                    let mag0 = s.bsig[i0] as i64;
                    r = (if neg0 != 0 { -mag0 } else { mag0 }) << shift_base;
                    done |= 1 << i0;
                    sign_log |= u32::from(neg0) << i0;
                    if s.advance(i0) {
                        active &= !(1 << i0);
                    }
                    let mut m = active0 & !((2u32 << i0) - 1);
                    while m != 0 {
                        let i = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let k = ((kb0 >> (8 * i)) & 0xFF) as i32 - KBIAS - k0;
                        if (k - base) as u32 <= window {
                            if r == 0 && k != 0 {
                                // Second adoption (exact cancellation in
                                // the adopted frame): rewind and replay.
                                unstable = true;
                                break;
                            }
                            let neg = s.negs[i] & 1;
                            let mag = s.bsig[i] as i64;
                            let signed = if neg != 0 { -mag } else { mag };
                            let t = shift_base - k + 7;
                            let c = if t >= 0 {
                                debug_assert!(t < 55, "contribution alignment overflow (t={t})");
                                rne7(signed << t)
                            } else {
                                round_shift_rne(signed, (7 - t) as u32)
                            };
                            r += c;
                            done |= 1 << i;
                            sign_log |= u32::from(neg) << i;
                            if s.advance(i) {
                                active &= !(1 << i);
                            }
                            useful_n += 1;
                        } else {
                            stall_n += 1;
                        }
                    }
                    if !unstable {
                        self.swar_adopted_cycles += 1;
                        acc.set_batched(r, e - k0);
                        outcome.lane_cycles.record_issue(useful_n, stall_n);
                        outcome.terms.processed += useful_n;
                        // kb was left stale in the adopted frame; the
                        // maintenance step below re-packs it.
                        repack = true;
                    }
                }
                if unstable {
                    // The walk touched no accumulator state — rewind the
                    // advanced lanes from the undo log, then replay the
                    // cycle with live per-lane adds, which handle the
                    // adoption exactly.
                    self.swar_unstable_cycles += 1;
                    repack = true;
                    kb = kb0;
                    active = active0;
                    packed_ok = packed_ok0;
                    let mut m = done;
                    while m != 0 {
                        let i = m.trailing_zeros() as usize;
                        m &= m - 1;
                        // k = e − ABe + shift, so the consumed shift byte
                        // falls out of the kb snapshot.
                        let k = ((kb0 >> (8 * i)) & 0xFF) as i32 - KBIAS;
                        let shift = k - e + s.abe[i];
                        s.rem[i] += 1;
                        s.shifts[i] = (s.shifts[i] << 8) | u64::from(shift as i8 as u8);
                        s.negs[i] = (s.negs[i] << 1) | ((sign_log >> i) & 1) as u8;
                        s.d[i] = shift - s.abe[i];
                    }
                    let base = i32::from(minb) - KBIAS;
                    let mut m = active;
                    while m != 0 {
                        let i = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let shift = (s.shifts[i] as i8) as i32;
                        let k = acc.exponent() - s.abe[i] + shift;
                        if (k - base) as u32 <= window {
                            acc.add_scaled(s.negs[i] & 1 != 0, s.bsig[i], s.abe[i] - shift - 7);
                            if s.advance(i) {
                                active &= !(1 << i);
                            }
                            outcome.lane_cycles.useful += 1;
                            outcome.terms.processed += 1;
                        } else {
                            outcome.lane_cycles.shift_range += 1;
                        }
                    }
                } else if !adopted {
                    // Single register update retires the whole cycle.
                    acc.add_batched(r - mant0);
                    let issued = sel.count_ones() as u64;
                    let stalled = active0.count_ones() as u64 - issued;
                    outcome.lane_cycles.record_issue(issued, stalled);
                    outcome.terms.processed += issued;
                }

                // The accumulator is normalized (and rounded) every
                // accumulation step; this can raise e_acc mid-set and push
                // later terms out of bounds (paper Fig. 5, cycle 5).
                acc.normalize();
                outcome.cycles += 1;

                // Keep kb in step with the (possibly moved) exponent.
                if active != 0 && packed_ok {
                    if acc.mantissa() == 0 {
                        // Sentinel exponent after full cancellation; the
                        // generic cycle re-adopts, then packing resumes.
                        packed_ok = false;
                    } else {
                        let de = acc.exponent() - e;
                        if !repack && de == 0 {
                            // Common case: exponent held, kb already exact.
                        } else if !repack && (1..=KBIAS).contains(&de) {
                            // Broadcast the raise onto the live bytes and
                            // re-check the cap (bytes stay ≤ 158, so the
                            // packed compare is still carry-free). Lanes
                            // pushed over the cap are past θ in every
                            // practical config — saturate them rather than
                            // abandoning the packed cycle.
                            kb = kb.wrapping_add((L8 * de as u64) & swar_byte_mask(active));
                            let mut over = swar_msb_bits(swar_ge(kb, L8 * (KCAP + 1))) & active;
                            while over != 0 {
                                let i = over.trailing_zeros() as usize;
                                over &= over - 1;
                                let byte = (kb >> (8 * i)) & 0xFF;
                                if byte as i32 >= obt_i && obt_i <= KSAT as i32 {
                                    kb = (kb & !(0xFF << (8 * i))) | (KSAT << (8 * i));
                                } else {
                                    packed_ok = false;
                                }
                            }
                        } else {
                            // Replay advanced lanes at a moved exponent, or
                            // the exponent fell (cancellation): re-pack.
                            match s.pack_k(active, acc.exponent(), obt_i) {
                                Some(v) => kb = v,
                                None => packed_ok = false,
                            }
                        }
                    }
                }
                continue;
            }

            // ---- Generic cycle: per-lane i32 state, any lane count and
            // exponent range (including the post-cancellation sentinel). ----

            // Pass 1 — min/compare: k, the out-of-bounds mask and the base
            // offset for every lane in one branchless sweep.
            let e = acc.exponent();
            let mut base = i32::MAX;
            let mut ob_mask = 0u32;
            for i in 0..lanes {
                let live = active & (1 << i) != 0;
                let k = e + s.d[i];
                let ob = live && k > theta;
                ob_mask |= (ob as u32) << i;
                let k_eff = if live && !ob { k } else { i32::MAX };
                base = base.min(k_eff);
            }
            if ob_mask != 0 {
                // Rare slow lane: charge the skipped terms and retire.
                let mut m = ob_mask;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    outcome.terms.ob_skipped += s.rem[i] as u64;
                    s.d[i] = 0;
                }
                active &= !ob_mask;
            }
            if active == 0 {
                // Every lane retired out-of-bounds; the set is done.
                break;
            }

            // Retired lanes idle out the rest of the set (no term).
            outcome.lane_cycles.no_term += (lanes as u32 - active.count_ones()) as u64;

            // Pass 2 — batched issue: fold every in-window contribution
            // into one widened partial sum against the pass-start exponent,
            // watching for the empty-register adoption that would move it.
            let mant0 = acc.mantissa();
            let mut r = mant0;
            let mut issue_mask = 0u32;
            let mut unstable = false;
            for i in 0..lanes {
                if active & (1 << i) == 0 {
                    continue;
                }
                let k = e + s.d[i];
                if (k - base) as u32 > window {
                    continue;
                }
                if r == 0 && k != 0 {
                    unstable = true;
                    break;
                }
                let mag = s.bsig[i] as i64;
                let signed = if s.negs[i] & 1 != 0 { -mag } else { mag };
                let t = shift_base - k + 7;
                let c = if t >= 0 {
                    debug_assert!(t < 55, "contribution alignment overflow (t={t})");
                    rne7(signed << t)
                } else {
                    round_shift_rne(signed, (7 - t) as u32)
                };
                r += c;
                issue_mask |= 1 << i;
            }

            if unstable {
                // The batch pass mutated nothing — replay the cycle with
                // live per-lane adds, which handle the adoption exactly.
                self.swar_unstable_cycles += 1;
                let mut m = active;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let shift = (s.shifts[i] as i8) as i32;
                    let k = acc.exponent() - s.abe[i] + shift;
                    if (k - base) as u32 <= window {
                        acc.add_scaled(s.negs[i] & 1 != 0, s.bsig[i], s.abe[i] - shift - 7);
                        if s.advance(i) {
                            active &= !(1 << i);
                        }
                        outcome.lane_cycles.useful += 1;
                        outcome.terms.processed += 1;
                    } else {
                        outcome.lane_cycles.shift_range += 1;
                    }
                }
            } else {
                // Single register update retires the whole cycle.
                acc.add_batched(r - mant0);
                let issued = issue_mask.count_ones() as u64;
                let stalled = active.count_ones() as u64 - issued;
                outcome.lane_cycles.record_issue(issued, stalled);
                outcome.terms.processed += issued;
                let mut m = issue_mask;
                while m != 0 {
                    let i = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if s.advance(i) {
                        active &= !(1 << i);
                    }
                }
            }

            // The accumulator is normalized (and rounded) every accumulation
            // step; this can raise e_acc mid-set and push later terms out of
            // bounds (paper Fig. 5, cycle 5).
            acc.normalize();
            outcome.cycles += 1;

            // Re-enter packed mode as soon as the state fits bytes again.
            if lanes <= 8 && active != 0 && acc.mantissa() != 0 {
                if let Some(v) = s.pack_k(active, acc.exponent(), obt_i) {
                    kb = v;
                    packed_ok = true;
                }
            }
        }

        if outcome.cycles == 0 {
            // Every lane terminated out-of-bounds before issuing anything;
            // the set still occupies the PE for the minimum one cycle.
            outcome.cycles = 1;
            outcome.lane_cycles.no_term += lanes as u64;
        }
        outcome
    }

    /// The pinned scalar reference implementation of [`Pe::process_set`]:
    /// per-set term encoding via [`encode_terms`] and array-of-structs lane
    /// state, exactly as originally modelled. The fast path is cross-checked
    /// against this — cycles, lane-cycle attribution, term statistics and
    /// accumulator bits must all be equal.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` are not exactly `lanes` long or contain a
    /// non-finite value.
    pub fn process_set_scalar(&mut self, a: &[Bf16], b: &[Bf16]) -> SetOutcome {
        let lanes = self.cfg.lanes;
        assert_eq!(a.len(), lanes, "A operand count");
        assert_eq!(b.len(), lanes, "B operand count");

        let mut outcome = SetOutcome::default();
        outcome.terms.macs = lanes as u64;
        let mut lane_state: Vec<Lane> = Vec::with_capacity(lanes);
        let mut max_abe = i32::MIN;
        for i in 0..lanes {
            assert!(a[i].is_finite() && b[i].is_finite(), "non-finite operand");
            if a[i].is_zero() || b[i].is_zero() {
                // Zero *value*: the pair produces no terms at all. A naive
                // bit-serial unit would still grind through 8 digit slots.
                outcome.terms.zero_value_macs += 1;
                outcome.terms.zero_skipped += 8;
                lane_state.push(Lane {
                    terms: Terms::EMPTY,
                    cursor: 0,
                    abe: 0,
                    neg: false,
                    b_sig: 0,
                    done: true,
                });
                continue;
            }
            let terms = encode_terms(a[i].significand(), self.cfg.encoding);
            outcome.terms.zero_skipped += 8u64.saturating_sub(terms.len() as u64);
            let abe = a[i].exponent() + b[i].exponent();
            max_abe = max_abe.max(abe);
            lane_state.push(Lane {
                terms,
                cursor: 0,
                abe,
                neg: a[i].sign() ^ b[i].sign(),
                b_sig: b[i].significand(),
                done: terms.is_empty(),
            });
        }

        self.acc.count_macs(lanes as u32);

        if lane_state.iter().all(|l| l.done) {
            // Nothing to accumulate; the set still occupies the PE for the
            // minimum one cycle (Section IV-A: "the minimum effective number
            // of cycles for processing the 8 MACs will be 1 cycle").
            outcome.cycles = 1;
            outcome.lane_cycles.no_term += lanes as u64;
            self.finish_set(outcome);
            return outcome;
        }

        // Block 1 — exponent: compute emax and align the accumulator.
        let acc = self.acc.inner_mut();
        acc.begin_set(max_abe);

        // Blocks 2 and 3 — stream terms through the shift&reduce window.
        loop {
            // Out-of-bounds termination: k grows monotonically within a
            // lane, so the first out-of-bounds term ends the lane.
            if self.cfg.ob_skip {
                for lane in lane_state.iter_mut().filter(|l| !l.done) {
                    let k =
                        acc.exponent() - lane.abe + lane.terms.as_slice()[lane.cursor].shift as i32;
                    if acc.is_out_of_bounds(k) {
                        outcome.terms.ob_skipped += (lane.terms.len() - lane.cursor) as u64;
                        lane.done = true;
                    }
                }
            }

            let base = lane_state
                .iter()
                .filter(|l| !l.done)
                .map(|l| acc.exponent() - l.abe + l.terms.as_slice()[l.cursor].shift as i32)
                .min();
            let Some(base) = base else { break };

            // Issue every lane within the shift window; others stall.
            for lane in lane_state.iter_mut() {
                if lane.done {
                    outcome.lane_cycles.no_term += 1;
                    continue;
                }
                let term = lane.terms.as_slice()[lane.cursor];
                let k = acc.exponent() - lane.abe + term.shift as i32;
                if (k - base) as u32 <= self.cfg.max_shift_window {
                    acc.add_scaled(
                        lane.neg ^ term.neg,
                        lane.b_sig as u64,
                        lane.abe - term.shift as i32 - 7,
                    );
                    lane.cursor += 1;
                    lane.done = lane.cursor == lane.terms.len();
                    outcome.lane_cycles.useful += 1;
                    outcome.terms.processed += 1;
                } else {
                    outcome.lane_cycles.shift_range += 1;
                }
            }

            // The accumulator is normalized (and rounded) every accumulation
            // step; this can raise e_acc mid-set and push later terms out of
            // bounds (paper Fig. 5, cycle 5).
            acc.normalize();
            outcome.cycles += 1;
        }

        if outcome.cycles == 0 {
            // Every lane terminated out-of-bounds before issuing anything;
            // the set still occupies the PE for the minimum one cycle.
            outcome.cycles = 1;
            outcome.lane_cycles.no_term += lanes as u64;
        }
        self.finish_set(outcome);
        outcome
    }

    fn finish_set(&mut self, outcome: SetOutcome) {
        self.stats.cycles += outcome.cycles;
        self.stats.sets += 1;
        self.stats.lane_cycles += outcome.lane_cycles;
        self.stats.terms += outcome.terms;
    }

    /// Convenience: runs a whole dot product through the PE in sets of
    /// `lanes`, returning the bfloat16 result and total cycles. Inputs are
    /// zero-padded to a multiple of the lane count.
    pub fn dot(&mut self, a: &[Bf16], b: &[Bf16]) -> (Bf16, u64) {
        assert_eq!(a.len(), b.len(), "dot length mismatch");
        self.reset_output();
        let lanes = self.cfg.lanes;
        let mut cycles = 0;
        // Fixed-size stack scratch (lanes ≤ MAX_LANES is a construction
        // invariant), so padding a partial tail set allocates nothing.
        let mut buf_a = [Bf16::ZERO; MAX_LANES];
        let mut buf_b = [Bf16::ZERO; MAX_LANES];
        for (ca, cb) in a.chunks(lanes).zip(b.chunks(lanes)) {
            buf_a[..ca.len()].copy_from_slice(ca);
            buf_a[ca.len()..lanes].fill(Bf16::ZERO);
            buf_b[..cb.len()].copy_from_slice(cb);
            buf_b[cb.len()..lanes].fill(Bf16::ZERO);
            cycles += self.process_set(&buf_a[..lanes], &buf_b[..lanes]).cycles;
        }
        (self.read_output(), cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpraker_num::encode::Encoding;
    use fpraker_num::reference::{
        dot_f64, dot_magnitude_f64, error_mag_ulps, error_ulps, SplitMix64,
    };
    use fpraker_num::AccumConfig;

    fn bf(x: f32) -> Bf16 {
        Bf16::from_f32(x)
    }

    /// The paper's Fig. 5 walkthrough: 2 lanes, raw-bit terms,
    /// A0 = 2^2 x 1.1101, B0 = 2^3 x 1.0011, A1 = 2^1 x 1.1011,
    /// B1 = 2^1 x 1.1010. The schedule takes 5 cycles.
    fn fig5_config(ob_threshold: i32) -> PeConfig {
        PeConfig {
            lanes: 2,
            max_shift_window: 3,
            encoding: Encoding::RawBits,
            accum: AccumConfig {
                frac_bits: 12,
                int_bits: 4,
                ob_threshold,
            },
            chunk_size: 64,
            ob_skip: true,
            scalar_reference: false,
            swar: true,
        }
    }

    fn fig5_inputs() -> (Vec<Bf16>, Vec<Bf16>) {
        let a0 = Bf16::from_parts(false, 2, 0b1110_1000); // 2^2 * 1.1101
        let b0 = Bf16::from_parts(false, 3, 0b1001_1000); // 2^3 * 1.0011
        let a1 = Bf16::from_parts(false, 1, 0b1101_1000); // 2^1 * 1.1011
        let b1 = Bf16::from_parts(false, 1, 0b1101_0000); // 2^1 * 1.1010
        (vec![a0, a1], vec![b0, b1])
    }

    #[test]
    fn fig5_takes_five_cycles_with_wide_accumulator() {
        let mut pe = Pe::new(fig5_config(12));
        let (a, b) = fig5_inputs();
        let outcome = pe.process_set(&a, &b);
        assert_eq!(outcome.cycles, 5, "paper's Fig. 5 schedule");
        // Cycle 3 stalls lane 1 on the shift window.
        assert_eq!(outcome.lane_cycles.shift_range, 1);
        // Lane 0 idles during cycle 5.
        assert_eq!(outcome.lane_cycles.no_term, 1);
        assert_eq!(outcome.terms.processed, 8);
        // Value check against the exact product sum.
        let exact = dot_f64(&a, &b);
        assert!(error_ulps(pe.output_f64(), exact) <= 1.0);
    }

    #[test]
    fn fig5_ob_skip_saves_the_fifth_cycle_with_6b_accumulator() {
        // "assume the total precision of the accumulator mantissa is 6b...
        // lane 1 can skip processing its last term and the PE saves one
        // processing cycle by finishing at cycle 4."
        //
        // Our model applies the per-cycle accumulator normalization (Block 3)
        // immediately, whereas the paper's Fig. 5 exposes it to the issue
        // logic with the 3-stage pipeline latency (its e_acc grows to 6 only
        // at cycle 5). The running sum here crosses 2^6 at cycle 2, so we
        // skip lane 1's last *two* terms — one more than the figure — and
        // finish at cycle 4 either way.
        let mut pe = Pe::new(fig5_config(6));
        let (a, b) = fig5_inputs();
        let outcome = pe.process_set(&a, &b);
        assert_eq!(outcome.cycles, 4);
        assert_eq!(outcome.terms.ob_skipped, 2);
        assert_eq!(outcome.terms.processed, 6);
    }

    #[test]
    fn fast_path_matches_scalar_reference_on_fig5() {
        for theta in [12, 6, 3, 0] {
            let (a, b) = fig5_inputs();
            let mut swar = Pe::new(fig5_config(theta));
            let mut planned = Pe::new(PeConfig {
                swar: false,
                ..fig5_config(theta)
            });
            let mut scalar = Pe::new(PeConfig {
                scalar_reference: true,
                ..fig5_config(theta)
            });
            let wo = swar.process_set(&a, &b);
            let fo = planned.process_set(&a, &b);
            let so = scalar.process_set_scalar(&a, &b);
            assert_eq!(wo, so, "θ = {theta}: SWAR outcome diverged");
            assert_eq!(fo, so, "θ = {theta}: planned outcome diverged");
            assert_eq!(swar.output_f64(), scalar.output_f64());
            assert_eq!(planned.output_f64(), scalar.output_f64());
            assert_eq!(swar.read_output(), scalar.read_output());
            assert_eq!(swar.stats(), scalar.stats());
            assert_eq!(planned.stats(), scalar.stats());
        }
    }

    #[test]
    fn rne7_matches_the_general_rounder() {
        for v in -70_000i64..=70_000 {
            assert_eq!(rne7(v), round_shift_rne(v, 7), "v={v}");
        }
    }

    #[test]
    fn swar_flag_and_env_resolution() {
        // The scalar reference wins over SWAR; FPRAKER_SWAR only matters
        // when neither scalar flag is set (and may legitimately force
        // either fast path in CI, so only the invariants are asserted).
        let scalar = Pe::new(PeConfig::paper_scalar_reference());
        assert!(!scalar.uses_swar(), "scalar reference must win over SWAR");
        let planned = Pe::new(PeConfig::paper_planned());
        let swar = Pe::new(PeConfig::paper());
        if !planned.uses_scalar_reference() && env_swar().is_none() {
            assert!(!planned.uses_swar());
            assert!(swar.uses_swar());
        }
    }

    #[test]
    fn swar_unstable_cycle_falls_back_and_stays_exact() {
        // Engineer a mid-cycle empty-register adoption: single-term
        // products +1, −1 and +0.5 (×3) all issue in cycle 1 (k = 0, 0,
        // 1, 1, 1 — within the window). Lanes 0 and 1 cancel exactly, so
        // lane 2's add lands on an empty register with k = 1 ≠ 0 and
        // re-adopts its exponent — the SWAR fold must detect this, replay
        // the cycle per-lane, and still match the scalar reference
        // bit-exactly. Five live lanes keep the set on the dense SWAR
        // datapath (`SWAR_DENSE_MIN`) instead of the sparse-set delegate.
        let mk = |cfg: PeConfig| {
            let a: Vec<Bf16> = [1.0f32, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0]
                .iter()
                .map(|&x| Bf16::from_f32(x))
                .collect();
            let b: Vec<Bf16> = [1.0f32, -1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
                .iter()
                .map(|&x| Bf16::from_f32(x))
                .collect();
            let mut pe = Pe::new(cfg);
            let o = pe.process_set(&a, &b);
            (pe, o)
        };
        let (swar, wo) = mk(PeConfig::paper());
        let (scalar, so) = mk(PeConfig::paper_scalar_reference());
        assert_eq!(wo, so);
        assert_eq!(swar.output_f64(), scalar.output_f64());
        assert_eq!(swar.read_output().to_f32(), 1.5);
        if swar.uses_swar() {
            assert!(
                swar.swar_unstable_cycles() >= 1,
                "engineered adoption cycle must hit the fallback"
            );
        }
    }

    #[test]
    fn swar_chunk_fold_empty_register_keeps_fast_path() {
        // Chunked accumulation empties the inner register every
        // chunk_size MACs, so the next set's first add lands on an empty
        // register. When the leading term sits at the significand MSB
        // (1.0: single term, k = 0) the adoption is exponent-neutral and
        // must NOT trip the fallback; a long uniform dot gives many such
        // chunk boundaries.
        let mut pe = Pe::new(PeConfig::paper());
        let n = 512;
        let a = vec![bf(1.0); n];
        let b = vec![bf(1.0); n];
        let (out, _) = pe.dot(&a, &b);
        assert_eq!(out.to_f32(), 512.0);
        if pe.uses_swar() {
            assert_eq!(
                pe.swar_unstable_cycles(),
                0,
                "k = 0 adoptions must stay on the batched path"
            );
        }
    }

    #[test]
    fn swar_chunk_fold_off_msb_adoption_stays_batched_and_exact() {
        // 1.5's leading CSD term is 2^1, one position above the MSB, so
        // the first add after every chunk fold re-adopts at k = −1 — each
        // boundary folds its cycle batched in the adopted frame (no
        // replay), and the result must still be bit-exact against the
        // scalar reference.
        let n = 512;
        let a = vec![bf(1.5); n];
        let b = vec![bf(1.0); n];
        let mut swar = Pe::new(PeConfig::paper());
        let mut scalar = Pe::new(PeConfig::paper_scalar_reference());
        let (wo, wc) = swar.dot(&a, &b);
        let (so, sc) = scalar.dot(&a, &b);
        assert_eq!(wo.to_f32(), 768.0);
        assert_eq!((wo, wc), (so, sc));
        assert_eq!(swar.output_f64(), scalar.output_f64());
        if swar.uses_swar() {
            assert!(
                swar.swar_adopted_cycles() >= 1,
                "off-MSB adoptions at chunk boundaries must fold in the adopted frame"
            );
            assert_eq!(
                swar.swar_unstable_cycles(),
                0,
                "a first adoption per cycle is not a replay"
            );
        }
    }

    #[test]
    fn planned_set_shared_across_pes_matches_per_pe_encoding() {
        // One plan feeding several PEs (the tile's column sharing) must be
        // indistinguishable from each PE encoding the set itself.
        let mut rng = SplitMix64::new(0x517);
        let cfg = PeConfig::paper();
        for _ in 0..50 {
            let a: Vec<Bf16> = (0..8).map(|_| rng.bf16_in_range(6)).collect();
            let plan = PlannedSet::plan(&a, cfg.encoding);
            assert_eq!(plan.lanes(), 8);
            for row in 0..4 {
                let b: Vec<Bf16> = (0..8)
                    .map(|_| {
                        if rng.next_u64() % 4 == row {
                            Bf16::ZERO
                        } else {
                            rng.bf16_in_range(6)
                        }
                    })
                    .collect();
                let mut planned = Pe::new(cfg);
                let mut direct = Pe::new(cfg);
                let po = planned.process_planned(&plan, &b);
                let diro = direct.process_set(&a, &b);
                assert_eq!(po, diro);
                assert_eq!(planned.output_f64(), direct.output_f64());
            }
        }
    }

    #[test]
    fn scalar_reference_flag_is_honoured() {
        assert!(Pe::new(PeConfig::paper_scalar_reference()).uses_scalar_reference());
        let scalar = Pe::new(PeConfig::paper_scalar_reference());
        let mut fast = Pe::new(PeConfig::paper());
        // Under FPRAKER_SCALAR_REFERENCE both report scalar; otherwise the
        // default config must take the fast path.
        if !scalar.uses_scalar_reference() {
            panic!("flagged PE must use the scalar path");
        }
        let a = vec![bf(1.5); 8];
        let b = vec![bf(1.25); 8];
        let mut flagged = Pe::new(PeConfig::paper_scalar_reference());
        assert_eq!(flagged.process_set(&a, &b), fast.process_set(&a, &b));
        assert_eq!(flagged.read_output(), fast.read_output());
    }

    #[test]
    fn zero_values_cost_one_cycle() {
        let mut pe = Pe::new(PeConfig::paper());
        let outcome = pe.process_set(&[Bf16::ZERO; 8], &[bf(1.0); 8]);
        assert_eq!(outcome.cycles, 1);
        assert_eq!(outcome.terms.zero_value_macs, 8);
        assert_eq!(outcome.terms.zero_skipped, 64);
        assert_eq!(pe.read_output(), Bf16::ZERO);
    }

    #[test]
    fn powers_of_two_process_in_one_cycle() {
        // Each A is a single term at the same alignment: one cycle.
        let mut pe = Pe::new(PeConfig::paper());
        let a = vec![bf(2.0); 8];
        let b = vec![bf(1.0); 8];
        let outcome = pe.process_set(&a, &b);
        assert_eq!(outcome.cycles, 1);
        assert_eq!(outcome.lane_cycles.useful, 8);
        assert_eq!(pe.read_output(), bf(16.0));
    }

    #[test]
    fn dot_matches_reference_within_bound() {
        // A finite accumulator rounds at the scale of the intermediate
        // magnitudes, so the bound is taken at the magnitude scale (the
        // exact result may be arbitrarily small after cancellation).
        let mut rng = SplitMix64::new(0xF00D);
        let mut pe = Pe::new(PeConfig::paper());
        for round in 0..100 {
            let n = 8 * (1 + (round % 8));
            let a: Vec<Bf16> = (0..n).map(|_| rng.bf16_in_range(4)).collect();
            let b: Vec<Bf16> = (0..n).map(|_| rng.bf16_in_range(4)).collect();
            let (out, cycles) = pe.dot(&a, &b);
            assert!(cycles >= (n as u64) / 8);
            let exact = dot_f64(&a, &b);
            let err = error_mag_ulps(out.to_f64(), exact, dot_magnitude_f64(&a, &b));
            assert!(
                err <= 1.0,
                "round {round}: out {out} vs exact {exact} ({err} magnitude-scale ulps)"
            );
        }
    }

    #[test]
    fn dot_handles_lengths_that_are_not_lane_multiples() {
        // The tail set is zero-padded through the fixed-size scratch.
        let mut pe = Pe::new(PeConfig::paper());
        let a: Vec<Bf16> = (1..=11).map(|i| bf(i as f32)).collect();
        let b = vec![bf(1.0); 11];
        let (out, cycles) = pe.dot(&a, &b);
        assert_eq!(out.to_f32(), 66.0);
        assert!(cycles >= 2);
    }

    #[test]
    fn ob_skip_perturbs_at_most_one_sticky_ulp() {
        // θ = 12 covers the full fractional window: a skipped term lies
        // below every representable accumulator bit and can only perturb
        // the RNE sticky path — at most one bfloat16 ULP at magnitude
        // scale, and identical readouts in the overwhelming majority of
        // sets (measured ≈97%).
        let mut rng = SplitMix64::new(42);
        let total = 500;
        let mut agree = 0;
        for _ in 0..total {
            let a: Vec<Bf16> = (0..8).map(|_| rng.bf16_in_range(8)).collect();
            let b: Vec<Bf16> = (0..8).map(|_| rng.bf16_in_range(8)).collect();
            let mut with = Pe::new(PeConfig::paper());
            let mut without = Pe::new(PeConfig {
                ob_skip: false,
                ..PeConfig::paper()
            });
            with.process_set(&a, &b);
            without.process_set(&a, &b);
            let (x, y) = (with.read_output(), without.read_output());
            if x == y {
                agree += 1;
            }
            let err = error_mag_ulps(x.to_f64(), y.to_f64(), dot_magnitude_f64(&a, &b));
            assert!(err <= 1.0, "OB skip changed result by {err} ulps");
        }
        assert!(
            agree * 100 >= total * 95,
            "only {agree}/{total} sets agree exactly"
        );
    }

    #[test]
    fn ob_skip_is_at_least_as_fast() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..100 {
            // Wide exponent spread makes OB terms common.
            let a: Vec<Bf16> = (0..8).map(|_| rng.bf16_in_range(12)).collect();
            let b: Vec<Bf16> = (0..8).map(|_| rng.bf16_in_range(12)).collect();
            let mut with = Pe::new(PeConfig::paper());
            let mut without = Pe::new(PeConfig {
                ob_skip: false,
                ..PeConfig::paper()
            });
            let cw = with.process_set(&a, &b).cycles;
            let cwo = without.process_set(&a, &b).cycles;
            assert!(cw <= cwo, "OB skip slower: {cw} > {cwo}");
        }
    }

    #[test]
    fn canonical_is_at_least_as_fast_as_raw_bits() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..100 {
            let a: Vec<Bf16> = (0..8).map(|_| rng.bf16_in_range(3)).collect();
            let b: Vec<Bf16> = (0..8).map(|_| rng.bf16_in_range(3)).collect();
            let mut csd = Pe::new(PeConfig::paper());
            let mut raw = Pe::new(PeConfig {
                encoding: Encoding::RawBits,
                ..PeConfig::paper()
            });
            let c1 = csd.process_set(&a, &b).cycles;
            let c2 = raw.process_set(&a, &b).cycles;
            assert!(c1 <= c2 + 1, "CSD much slower than raw: {c1} vs {c2}");
        }
    }

    #[test]
    fn stats_accumulate_across_sets() {
        let mut pe = Pe::new(PeConfig::paper());
        let a = vec![bf(1.5); 8];
        let b = vec![bf(1.0); 8];
        pe.process_set(&a, &b);
        pe.process_set(&a, &b);
        assert_eq!(pe.stats().sets, 2);
        assert_eq!(pe.stats().terms.macs, 16);
        let taken = pe.take_stats();
        assert_eq!(taken.sets, 2);
        assert_eq!(pe.stats().sets, 0);
    }

    #[test]
    fn chunked_accumulation_folds_across_long_dots() {
        let mut pe = Pe::new(PeConfig::paper());
        let n = 512;
        let a = vec![bf(1.0); n];
        let b = vec![bf(1.0); n];
        let (out, _) = pe.dot(&a, &b);
        assert_eq!(out.to_f32(), 512.0);
    }

    #[test]
    #[should_panic(expected = "A operand count")]
    fn wrong_lane_count_panics() {
        let mut pe = Pe::new(PeConfig::paper());
        let _ = pe.process_set(&[Bf16::ONE], &[Bf16::ONE]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_LANES")]
    fn oversized_lane_config_panics() {
        let _ = Pe::new(PeConfig {
            lanes: MAX_LANES + 1,
            ..PeConfig::paper()
        });
    }

    #[test]
    fn negative_products_accumulate_correctly() {
        let mut pe = Pe::new(PeConfig::paper());
        let a: Vec<Bf16> = [1.0f32, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5, -0.5]
            .iter()
            .map(|&x| bf(x))
            .collect();
        let b = vec![bf(1.25); 8];
        pe.process_set(&a, &b);
        assert_eq!(pe.read_output(), Bf16::ZERO);
    }
}
