//! `train_sim`: offline batch simulation of trained traces.
//!
//! Set-up trains six zoo models and captures each at 50% progress. The
//! timed part simulates every trace whole on FPRaker through `Engine::run`
//! with [`WORKERS`] workers, back to back, in an order the seed shuffles
//! per pass, and runs the baseline machine once per pass for the speed-up
//! ratio. Every run is checked against an untimed one-worker reference
//! run of the same trace taken with golden checking on.
//!
//! A job here is one pass: the six traces simulated once, the batch a
//! user of the simulator submits. A run completes too few passes for any
//! tail percentile with ten samples beyond it, so the tail reads the
//! median.

use std::time::{Duration, Instant};

use fpraker_energy::EnergyModel;
use fpraker_num::reference::SplitMix64;
use fpraker_sim::{AcceleratorConfig, Engine, EngineTelemetry, Machine, RunResult};
use fpraker_trace::{Trace, TraceOp};

use crate::check::{Failure, Tally};
use crate::layers;
use crate::report::Metrics;
use crate::stats::{median, summarize};
use crate::zoo::{JobGen, Zoo};
use crate::{e2e_common, Opts, Outcome};

/// Large-GEMM models first, then many-small-op models.
pub const MODELS: [&str; 6] = [
    "vgg16",
    "resnet18-q",
    "squeezenet1.1",
    "bert",
    "ncf",
    "snli",
];

/// Engine workers of the timed runs.
pub const WORKERS: usize = 2;

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Whether two runs agree on every per-op cycle count, `ExecStats` and
/// `EventCounts`.
fn same_outcomes(run: &RunResult, reference: &RunResult) -> bool {
    run.ops.len() == reference.ops.len()
        && run
            .ops
            .iter()
            .zip(&reference.ops)
            .all(|(a, b)| a.cycles == b.cycles && a.stats == b.stats && a.counts == b.counts)
}

/// Timings of the timed loop's complete passes.
struct Timed {
    /// FPRaker seconds of every trace (by trace index) in every complete
    /// pass.
    secs: Vec<Vec<f64>>,
    /// Engine stage timings summed over the FPRaker runs (traced loop).
    telemetry: EngineTelemetry,
    tally: Tally,
}

impl Timed {
    fn passes(&self) -> usize {
        self.secs.first().map_or(0, Vec::len)
    }

    /// Each pass's summed FPRaker seconds.
    fn pass_secs(&self) -> Vec<f64> {
        (0..self.passes())
            .map(|p| self.secs.iter().map(|t| t[p]).sum())
            .collect()
    }
}

fn timed_loop(
    traces: &[&Trace],
    fp_refs: &[RunResult],
    base_refs: &[RunResult],
    opts: &Opts,
    traced: bool,
) -> Timed {
    let fp_cfg = AcceleratorConfig::fpraker_paper();
    let base_cfg = AcceleratorConfig::baseline_paper();
    let engine = Engine::with_threads(WORKERS);
    let mut rng = SplitMix64::new(opts.seed ^ u64::from(traced));
    let mut out = Timed {
        secs: vec![Vec::new(); traces.len()],
        telemetry: EngineTelemetry::default(),
        tally: Tally::default(),
    };
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    'passes: loop {
        let mut order: Vec<usize> = (0..traces.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut pass = vec![0.0; traces.len()];
        for &i in &order {
            if out.passes() > 0 && Instant::now() >= deadline {
                break 'passes;
            }
            let t = Instant::now();
            let run = if traced {
                let (run, tel) = engine.run_with_telemetry(Machine::FpRaker, traces[i], &fp_cfg);
                layers::add_telemetry(&mut out.telemetry, &tel);
                run
            } else {
                engine.run(Machine::FpRaker, traces[i], &fp_cfg)
            };
            pass[i] = t.elapsed().as_secs_f64();
            out.tally.record(if same_outcomes(&run, &fp_refs[i]) {
                Ok(())
            } else {
                Err(Failure::Mismatch)
            });
        }
        for (i, trace) in traces.iter().enumerate() {
            let run = engine.run(Machine::Baseline, trace, &base_cfg);
            out.tally.record(if same_outcomes(&run, &base_refs[i]) {
                Ok(())
            } else {
                Err(Failure::Mismatch)
            });
        }
        for (times, t) in out.secs.iter_mut().zip(pass) {
            times.push(t);
        }
    }
    out
}

/// End-to-end metrics of a timed loop. Throughput divides the trace set's
/// MACs by the sum of each trace's median time over the passes, so a
/// burst of host noise in one pass moves one sample, not the figure.
fn e2e(timed: &Timed, fp_refs: &[RunResult], base_refs: &[RunResult], setup_s: f64) -> Metrics {
    let macs: u64 = fp_refs.iter().map(RunResult::macs).sum();
    let typical_pass: f64 = timed.secs.iter().map(|t| median(t)).sum();
    let model = EnergyModel::paper();
    let cycles = |runs: &[RunResult]| runs.iter().map(RunResult::cycles).sum::<u64>() as f64;
    let energy = |runs: &[RunResult]| {
        runs.iter()
            .map(|r| r.energy(&model).total_pj())
            .sum::<f64>()
    };
    e2e_common(
        setup_s,
        macs as f64 / typical_pass,
        cycles(base_refs) / cycles(fp_refs),
        energy(base_refs) / energy(fp_refs),
        1.0 / typical_pass,
        summarize(timed.pass_secs().iter().map(|s| s * 1e3).collect()),
        &timed.tally,
    )
}

pub fn run(opts: &Opts) -> Outcome {
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut capture_s = Vec::new();
    let mut zoo = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let z = Zoo::train(&MODELS);
        setup_s.push(t.elapsed().as_secs_f64());
        train_s.push(z.train_s);
        capture_s.push(z.capture_s);
        if let Some(prev) = &zoo {
            let prev: &Zoo = prev;
            assert!(
                prev.traces.iter().zip(&z.traces).all(|(a, b)| a.1 == b.1),
                "training is deterministic: repeated set-ups capture identical traces"
            );
        }
        zoo = Some(z);
    }
    let zoo = zoo.expect("at least one set-up");
    let traces: Vec<&Trace> = zoo.traces.iter().map(|(_, t)| t).collect();

    // Untimed references: one worker, golden checking on.
    let golden_cfg = AcceleratorConfig {
        check_golden: true,
        ..AcceleratorConfig::fpraker_paper()
    };
    let reference = Engine::with_threads(1);
    let fp_refs: Vec<RunResult> = traces
        .iter()
        .map(|t| reference.run(Machine::FpRaker, t, &golden_cfg))
        .collect();
    let base_refs: Vec<RunResult> = traces
        .iter()
        .map(|t| reference.run(Machine::Baseline, t, &AcceleratorConfig::baseline_paper()))
        .collect();
    let mut tally = Tally::default();
    for r in &fp_refs {
        tally.record(if r.golden_failures() == 0 {
            Ok(())
        } else {
            Err(Failure::Mismatch)
        });
    }

    let timed = timed_loop(&traces, &fp_refs, &base_refs, opts, false);
    tally.merge(&timed.tally);
    let e2e_metrics = e2e(&timed, &fp_refs, &base_refs, median(&setup_s));

    let mut outcome = Outcome {
        e2e: e2e_metrics,
        traced: None,
        tally,
        meta: vec![
            ("workload_models", MODELS.join(",")),
            ("engine_workers", WORKERS.to_string()),
            ("passes", timed.passes().to_string()),
            (
                "pass_ms",
                timed
                    .pass_secs()
                    .iter()
                    .map(|s| format!("{:.0}", s * 1e3))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
        ],
    };
    if !opts.trace {
        return outcome;
    }

    let traced = timed_loop(&traces, &fp_refs, &base_refs, opts, true);
    outcome.tally.merge(&traced.tally);
    let traced_e2e = e2e(&traced, &fp_refs, &base_refs, median(&setup_s));

    let cfg = AcceleratorConfig::fpraker_paper();
    let ops: Vec<&TraceOp> = traces.iter().flat_map(|t| &t.ops).collect();
    let mut layer = Metrics::default();
    layer.extend(layers::pe_probe(&ops, &cfg));
    layer.extend(layers::tile_probe(&ops, &cfg));
    let stats = fp_refs
        .iter()
        .fold(fpraker_core::ExecStats::default(), |acc, r| acc + r.stats());
    layer.extend(layers::exec_stats_metrics(&stats));
    layer.extend(layers::stage_metrics(&traced.telemetry));
    layer.extend(layers::op_probe(&ops, &cfg));
    let largest = traces
        .iter()
        .max_by_key(|t| t.macs())
        .expect("the zoo has traces");
    layer.extend(layers::parallel_eff(largest, &cfg, WORKERS));
    layer.extend(layers::codec_probe(&traces));
    layer.put("dnn.train_s", median(&train_s), "s");
    layer.put("dnn.capture_s", median(&capture_s), "s");
    let gen = JobGen::new(&zoo);
    layer.extend(crate::serve::ledger(
        &gen.job(opts.seed, 0),
        &mut outcome.tally,
    ));
    layer.extend(crate::serve::stall_probe(
        &gen,
        opts.seed,
        &mut outcome.tally,
    ));
    layer.extend(crate::serve::hot_probe(opts.seed, &mut outcome.tally));
    // No job is served in this workload's timed loop: the serve layer's
    // loop readings are zero.
    crate::serve::ServeLayers::default().put(&mut layer);
    outcome.traced = Some((traced_e2e, layer));
    outcome
}
