//! Trace-level simulation and result aggregation.

use std::collections::BTreeMap;

use fpraker_core::ExecStats;
use fpraker_energy::{EnergyBreakdown, EnergyModel, EventCounts};
use fpraker_trace::{Phase, Trace};

use crate::config::AcceleratorConfig;
use crate::engine::Engine;
use crate::op::OpOutcome;

/// Which accelerator a run modelled — and, for
/// [`Engine::simulate_trace_with`], which energy accounting family a
/// custom [`fpraker_core::MachineModel`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// The FPRaker accelerator (term-serial energy events).
    FpRaker,
    /// The bit-parallel baseline (per-cycle MAC energy events).
    Baseline,
}

impl Machine {
    /// Energy of `counts` under `model`, accounted the way this machine
    /// spends it — the one place event counts become picojoules.
    pub fn energy(self, model: &EnergyModel, counts: &EventCounts) -> EnergyBreakdown {
        match self {
            Machine::FpRaker => model.fpraker_energy(counts),
            Machine::Baseline => model.baseline_energy(counts),
        }
    }
}

/// The simulated execution of a whole trace.
///
/// Per-op outcomes are kept in trace order; every aggregate below is a
/// deterministic fold over them, so a `RunResult` is identical whatever
/// worker budget produced it.
///
/// ```
/// use fpraker_sim::{AcceleratorConfig, Engine, Machine};
/// use fpraker_trace::Trace;
///
/// let run = Engine::new().run(
///     Machine::FpRaker,
///     &Trace::new("empty", 0),
///     &AcceleratorConfig::fpraker_paper(),
/// );
/// assert_eq!(run.ops.len(), 0);
/// assert_eq!(run.cycles(), 0);
/// assert_eq!(run.macs(), 0);
/// assert_eq!(run.golden_failures(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Which machine was simulated.
    pub machine: Machine,
    /// Per-op outcomes, in trace order.
    pub ops: Vec<OpOutcome>,
}

impl RunResult {
    /// Total cycles (ops execute back to back).
    pub fn cycles(&self) -> u64 {
        self.ops.iter().map(|o| o.cycles).sum()
    }

    /// Total compute-only cycles.
    pub fn compute_cycles(&self) -> u64 {
        self.ops.iter().map(|o| o.compute_cycles).sum()
    }

    /// Total MACs.
    pub fn macs(&self) -> u64 {
        self.ops.iter().map(|o| o.macs).sum()
    }

    /// Cycles per training phase (for Fig. 14).
    pub fn cycles_by_phase(&self) -> BTreeMap<&'static str, u64> {
        self.phase_map(|op| op.cycles)
    }

    /// Compute-only cycles per training phase (for the Fig. 21 study,
    /// where the accumulator width moves compute, not traffic).
    pub fn compute_cycles_by_phase(&self) -> BTreeMap<&'static str, u64> {
        self.phase_map(|op| op.compute_cycles)
    }

    fn phase_map(&self, f: impl Fn(&OpOutcome) -> u64) -> BTreeMap<&'static str, u64> {
        let mut map = BTreeMap::new();
        for op in &self.ops {
            let name = match op.phase {
                Some(Phase::AxW) => "AxW",
                Some(Phase::AxG) => "AxG",
                Some(Phase::GxW) => "GxW",
                None => "other",
            };
            *map.entry(name).or_insert(0) += f(op);
        }
        map
    }

    /// Aggregated tile statistics.
    pub fn stats(&self) -> ExecStats {
        self.ops
            .iter()
            .fold(ExecStats::default(), |acc, o| acc + o.stats)
    }

    /// Aggregated event counts.
    pub fn counts(&self) -> EventCounts {
        let mut c = EventCounts::default();
        for o in &self.ops {
            c.terms += o.counts.terms;
            c.pe_active_cycles += o.counts.pe_active_cycles;
            c.pe_stall_cycles += o.counts.pe_stall_cycles;
            c.sets += o.counts.sets;
            c.a_values_encoded += o.counts.a_values_encoded;
            c.baseline_pe_cycles += o.counts.baseline_pe_cycles;
            c.sram_bytes += o.counts.sram_bytes;
            c.dram_bytes += o.counts.dram_bytes;
        }
        c
    }

    /// Energy of the run under the given model.
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        self.machine.energy(model, &self.counts())
    }

    /// Total golden-check failures.
    pub fn golden_failures(&self) -> u64 {
        self.ops.iter().map(|o| o.golden_failures).sum()
    }

    /// Folds partial runs of disjoint, contiguous op ranges back into the
    /// whole-trace result — the merge half of distributed sharding.
    ///
    /// Each partial is `(first_op, result)`: the result of simulating the
    /// ops starting at global index `first_op`. Because per-op simulation
    /// is independent and every [`RunResult`] aggregate is a deterministic
    /// fold over `ops` in order, re-assembling the outcomes in global op
    /// order reproduces the single-machine run **bit-identically** —
    /// including energy, which is derived from the integer
    /// [`EventCounts`] sum, never from adding per-partial floats (f64
    /// addition is not associative; integer addition is).
    ///
    /// Partials may arrive in any order; they are sorted by `first_op`
    /// here. The ranges must tile `0..total` exactly.
    ///
    /// # Errors
    ///
    /// [`MergeError`] if no partials are given, the machines disagree, or
    /// the ranges overlap or leave a gap.
    pub fn merge_partials(
        partials: impl IntoIterator<Item = (u64, RunResult)>,
    ) -> Result<RunResult, MergeError> {
        let mut parts: Vec<(u64, RunResult)> = partials.into_iter().collect();
        parts.sort_by_key(|(first, _)| *first);
        let (_, head) = parts.first().ok_or(MergeError::Empty)?;
        let machine = head.machine;
        let mut ops = Vec::with_capacity(parts.iter().map(|(_, p)| p.ops.len()).sum());
        let mut next = 0u64;
        for (first, part) in parts {
            if part.machine != machine {
                return Err(MergeError::MachineMismatch {
                    expected: machine,
                    found: part.machine,
                });
            }
            if first != next {
                return Err(MergeError::NotContiguous {
                    expected: next,
                    found: first,
                });
            }
            next += part.ops.len() as u64;
            ops.extend(part.ops);
        }
        Ok(RunResult { machine, ops })
    }
}

/// Why a set of partial runs cannot be folded into one
/// (see [`RunResult::merge_partials`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No partials were given — there is no machine to attribute, so an
    /// empty merge is ambiguous rather than an empty run.
    Empty,
    /// Two partials simulated different machines; their outcomes are not
    /// comparable, let alone concatenable.
    MachineMismatch {
        /// Machine of the first (lowest-`first_op`) partial.
        expected: Machine,
        /// The disagreeing partial's machine.
        found: Machine,
    },
    /// Sorted by `first_op`, a partial does not start exactly where the
    /// previous one ended: the ranges overlap or leave a gap, so the
    /// merged result would silently diverge from the unsharded run.
    NotContiguous {
        /// Where the next partial had to start.
        expected: u64,
        /// Where it actually started.
        found: u64,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no partial runs to merge"),
            MergeError::MachineMismatch { expected, found } => {
                write!(f, "partial runs mix machines: {expected:?} vs {found:?}")
            }
            MergeError::NotContiguous { expected, found } => write!(
                f,
                "partial runs are not contiguous: expected a partial starting \
                 at op {expected}, found op {found} (overlap or gap)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// The result of a streamed simulation ([`Engine::run_source`]): the
/// ordinary [`RunResult`] plus what streaming adds — how much of the
/// trace was ever resident.
///
/// The embedded result is bit-identical to running the same trace fully
/// loaded; `peak_resident_ops` is the evidence the run was actually
/// bounded (`crates/sim/tests/streaming.rs` pins both).
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// The simulated execution, identical to the in-memory path's.
    pub result: RunResult,
    /// Most ops simultaneously in flight (decoded and planned but not
    /// yet folded) — bounded by [`Engine::resolved_window`], however long
    /// the trace.
    pub peak_resident_ops: usize,
}

/// Simulates a trace on the FPRaker accelerator with a default (one worker
/// per core) [`Engine`].
pub fn simulate_trace_fpraker(trace: &Trace, cfg: &AcceleratorConfig) -> RunResult {
    Engine::new().run(Machine::FpRaker, trace, cfg)
}

/// Simulates a trace on the bit-parallel baseline accelerator with a
/// default (one worker per core) [`Engine`].
pub fn simulate_trace_baseline(trace: &Trace, cfg: &AcceleratorConfig) -> RunResult {
    Engine::new().run(Machine::Baseline, trace, cfg)
}

/// Speedup of `fpraker` over `baseline` on total cycles.
pub fn speedup(fpraker: &RunResult, baseline: &RunResult) -> f64 {
    baseline.cycles() as f64 / fpraker.cycles().max(1) as f64
}

/// Relative energy efficiency: baseline energy over FPRaker energy
/// (>1 means FPRaker is more efficient).
pub fn energy_efficiency(
    fpraker: &RunResult,
    baseline: &RunResult,
    model: &EnergyModel,
    core_only: bool,
) -> f64 {
    let ef = fpraker.energy(model);
    let eb = baseline.energy(model);
    if core_only {
        eb.core_pj() / ef.core_pj().max(f64::MIN_POSITIVE)
    } else {
        eb.total_pj() / ef.total_pj().max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpraker_num::reference::SplitMix64;
    use fpraker_num::Bf16;
    use fpraker_trace::{TensorKind, TraceOp};

    /// A synthetic trace shaped like trained tensors: narrow exponents,
    /// `mantissa_bits` significant fraction bits (trained/quantized values
    /// concentrate their significands — Fig. 1b), and a zero fraction from
    /// ReLU/pruning.
    fn shaped_trace(spread: i32, zero_fraction: f64, mantissa_bits: u32) -> Trace {
        let mut rng = SplitMix64::new(9);
        let mut tr = Trace::new("tiny", 0);
        for (i, phase) in [Phase::AxW, Phase::GxW, Phase::AxG].iter().enumerate() {
            // Large enough to occupy all 36 tiles of the iso-area config.
            let (m, n, k) = (96, 48, 32);
            let mask = !((1u8 << (7 - mantissa_bits.min(7))) - 1);
            let gen = |rng: &mut SplitMix64, count: usize| -> Vec<Bf16> {
                (0..count)
                    .map(|_| {
                        if rng.next_f64() < zero_fraction {
                            Bf16::ZERO
                        } else {
                            let v = rng.bf16_in_range(spread);
                            Bf16::from_parts(v.sign(), v.exponent(), v.significand() & mask)
                        }
                    })
                    .collect()
            };
            tr.ops.push(TraceOp {
                layer: format!("l{i}"),
                phase: *phase,
                m,
                n,
                k,
                a: gen(&mut rng, m * k),
                b: gen(&mut rng, n * k),
                a_kind: TensorKind::Activation,
                b_kind: TensorKind::Weight,
                a_dup: 1.0,
                b_dup: 1.0,
                out_dup: 1.0,
            });
        }
        tr
    }

    #[test]
    fn fpraker_beats_baseline_under_iso_area_on_sparse_traces() {
        // Trained-tensor-shaped values (4 significant mantissa bits, 50%
        // zeros): the 36-tile FPRaker accelerator must out-compute the
        // 8-tile baseline (the Fig. 11 headline direction). The tiny test
        // GEMMs are memory-bound end to end (randomly scattered zeros also
        // defeat exponent compression — real activations cluster theirs),
        // so the claim is asserted on compute cycles.
        let trace = shaped_trace(2, 0.5, 3);
        let fp = simulate_trace_fpraker(&trace, &AcceleratorConfig::fpraker_paper());
        let bl = simulate_trace_baseline(&trace, &AcceleratorConfig::baseline_paper());
        let s = bl.compute_cycles() as f64 / fp.compute_cycles().max(1) as f64;
        assert!(s > 1.0, "compute speedup {s}");
    }

    #[test]
    fn phases_are_all_accounted() {
        let trace = shaped_trace(2, 0.2, 5);
        let fp = simulate_trace_fpraker(&trace, &AcceleratorConfig::fpraker_paper());
        let by_phase = fp.cycles_by_phase();
        assert_eq!(by_phase.len(), 3);
        assert_eq!(by_phase.values().sum::<u64>(), fp.cycles());
    }

    #[test]
    fn golden_checking_passes_end_to_end() {
        let trace = shaped_trace(3, 0.3, 7);
        let cfg = AcceleratorConfig {
            check_golden: true,
            tiles: 2,
            ..AcceleratorConfig::fpraker_paper()
        };
        let fp = simulate_trace_fpraker(&trace, &cfg);
        assert_eq!(fp.golden_failures(), 0);
    }

    #[test]
    fn energy_efficiency_favors_fpraker_on_sparse_work() {
        let trace = shaped_trace(2, 0.5, 3);
        let fp = simulate_trace_fpraker(&trace, &AcceleratorConfig::fpraker_paper());
        let bl = simulate_trace_baseline(&trace, &AcceleratorConfig::baseline_paper());
        let model = EnergyModel::paper();
        let eff = energy_efficiency(&fp, &bl, &model, true);
        assert!(eff > 1.0, "core energy efficiency {eff}");
    }

    #[test]
    fn macs_match_trace() {
        let trace = shaped_trace(2, 0.0, 7);
        let fp = simulate_trace_fpraker(&trace, &AcceleratorConfig::fpraker_paper());
        assert_eq!(fp.macs(), trace.macs());
        let bl = simulate_trace_baseline(&trace, &AcceleratorConfig::baseline_paper());
        assert_eq!(bl.macs(), trace.macs());
    }
}
