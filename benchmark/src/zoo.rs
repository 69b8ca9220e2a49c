//! Trained traces from the model zoo, and the seeded job generator the
//! serving workloads draw from them.

use std::time::Instant;

use fpraker_dnn::{models, train_and_sample, Engine};
use fpraker_num::reference::SplitMix64;
use fpraker_trace::{codec, Trace, TraceOp};

/// Epochs trained before capture: 50% of a 4-epoch run, the progress
/// point the paper's steady-state figures sample.
pub const EPOCHS_BEFORE_CAPTURE: usize = 2;

/// Training progress tagged on every capture.
pub const CAPTURE_PCT: u32 = 50;

/// Models whose ops are many and small; the serving jobs draw from them.
pub const SMALL_MODELS: [&str; 3] = ["bert", "ncf", "snli"];

/// MACs a generated serving job reaches before it stops adding ops.
pub const JOB_MACS: u64 = 96 * 1024;

/// Trained traces, one per model, with the time each phase took.
pub struct Zoo {
    /// `(model, trace)` in the order the models were given.
    pub traces: Vec<(&'static str, Trace)>,
    /// Seconds spent in `train_and_sample`, summed over models.
    pub train_s: f64,
    /// Seconds spent in `Workload::capture_trace`, summed over models.
    pub capture_s: f64,
}

impl Zoo {
    /// Trains each model for [`EPOCHS_BEFORE_CAPTURE`] epochs and
    /// captures one mini-batch at [`CAPTURE_PCT`].
    pub fn train(names: &[&'static str]) -> Zoo {
        let mut zoo = Zoo {
            traces: Vec::with_capacity(names.len()),
            train_s: 0.0,
            capture_s: 0.0,
        };
        for &name in names {
            let mut workload = models::build(name);
            let mut engine = Engine::f32();
            let t = Instant::now();
            train_and_sample(&mut workload, &mut engine, EPOCHS_BEFORE_CAPTURE, &[]);
            zoo.train_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let trace = workload.capture_trace(&mut engine, CAPTURE_PCT);
            zoo.capture_s += t.elapsed().as_secs_f64();
            zoo.traces.push((name, trace));
        }
        zoo
    }

    /// The trace of a model by name.
    ///
    /// # Panics
    ///
    /// When the model was not trained.
    pub fn trace(&self, name: &str) -> &Trace {
        &self
            .traces
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("model {name} was not trained"))
            .1
    }
}

/// Generates distinct serving jobs from a seed: each job is a window of
/// consecutive ops of one small zoo model, shapes kept, operand values
/// resampled (with replacement) from the trained operand, so zero
/// fractions and term statistics follow the trained values.
pub struct JobGen {
    models: Vec<Vec<TraceOp>>,
}

impl JobGen {
    /// A generator over the [`SMALL_MODELS`] traces of `zoo`.
    pub fn new(zoo: &Zoo) -> JobGen {
        JobGen {
            models: SMALL_MODELS
                .iter()
                .map(|m| zoo.trace(m).ops.clone())
                .collect(),
        }
    }

    /// Job `index` of the sequence `seed` names.
    pub fn job(&self, seed: u64, index: u64) -> Trace {
        self.generate(seed, index, None)
    }

    /// Job `index` of the sequence `seed` names, in a fixed window: model
    /// `model` of [`SMALL_MODELS`] from op `slot * ops / slots` on. Only
    /// the operand values come from the seed, so the job's shapes, MACs
    /// and size do not depend on it.
    pub fn fixed_job(
        &self,
        seed: u64,
        index: u64,
        model: usize,
        slot: usize,
        slots: usize,
    ) -> Trace {
        self.generate(seed, index, Some((model, slot, slots)))
    }

    fn generate(&self, seed: u64, index: u64, fixed: Option<(usize, usize, usize)>) -> Trace {
        let mut rng = SplitMix64::new(seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (drawn_model, drawn_at) = (rng.next_u64(), rng.next_u64());
        let (ops, mut at) = match fixed {
            None => {
                let ops = &self.models[(drawn_model % self.models.len() as u64) as usize];
                (ops, (drawn_at % ops.len() as u64) as usize)
            }
            Some((model, slot, slots)) => {
                let ops = &self.models[model];
                (ops, slot * ops.len() / slots)
            }
        };
        let mut trace = Trace::new(format!("job-{index}"), CAPTURE_PCT);
        let mut macs = 0;
        while macs < JOB_MACS {
            let src = &ops[at % ops.len()];
            let mut resample = |values: &[fpraker_num::Bf16]| {
                (0..values.len())
                    .map(|_| values[(rng.next_u64() % values.len() as u64) as usize])
                    .collect()
            };
            let op = TraceOp {
                layer: src.layer.clone(),
                phase: src.phase,
                m: src.m,
                n: src.n,
                k: src.k,
                a: resample(&src.a),
                b: resample(&src.b),
                a_kind: src.a_kind,
                b_kind: src.b_kind,
                a_dup: src.a_dup,
                b_dup: src.b_dup,
                out_dup: src.out_dup,
            };
            macs += op.macs();
            trace.ops.push(op);
            at += 1;
        }
        trace
    }

    /// [`JobGen::job`] in the codec's wire form.
    pub fn encoded(&self, seed: u64, index: u64) -> Vec<u8> {
        codec::encode(&self.job(seed, index)).to_vec()
    }

    /// [`JobGen::fixed_job`] in the codec's wire form.
    pub fn fixed_encoded(
        &self,
        seed: u64,
        index: u64,
        model: usize,
        slot: usize,
        slots: usize,
    ) -> Vec<u8> {
        codec::encode(&self.fixed_job(seed, index, model, slot, slots)).to_vec()
    }
}
