//! Output checks and failure accounting.
//!
//! Every timed operation ends in exactly one outcome: success, or a
//! failure of one kind. A response that arrives but differs from the
//! local reference is a failure (a check mismatch), never retried.

use fpraker_energy::EnergyModel;
use fpraker_serve::protocol::{decode_result, encode_result};
use fpraker_serve::{JobResponse, JobResult, ServeError};
use fpraker_sim::RunResult;

/// The server's message when a job held a pool permit but its upload
/// never arrived within the server's I/O timeout: the pipelined-upload
/// stall.
const UPLOAD_STALL_MESSAGE: &str = "timed out waiting for upload frames";

/// Why an operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The job waited on its upload past the server's I/O timeout.
    UploadTimeout,
    /// The server refused the job with `BUSY`.
    Busy,
    /// Any other error the call returned.
    Error,
    /// The output arrived but differs from the reference.
    Mismatch,
}

/// Attempted operations and failures by kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Jobs that failed on an upload stall.
    pub upload_timeouts: u64,
    /// Jobs refused with `BUSY`.
    pub busy: u64,
    /// Other errors.
    pub errors: u64,
    /// Outputs that failed their check.
    pub mismatches: u64,
}

impl Tally {
    /// Records a successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: Failure) {
        self.attempted += 1;
        *match why {
            Failure::UploadTimeout => &mut self.upload_timeouts,
            Failure::Busy => &mut self.busy,
            Failure::Error => &mut self.errors,
            Failure::Mismatch => &mut self.mismatches,
        } += 1;
    }

    /// Records one checked outcome.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(why) => self.fail(why),
        }
    }

    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.upload_timeouts + self.busy + self.errors + self.mismatches
    }

    /// Operations that succeeded.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// Whether every output that came back passed its check.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.upload_timeouts += other.upload_timeouts;
        self.busy += other.busy;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
    }

    /// One-line JSON summary for the run log.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \"upload_timeouts\": {}, \
             \"busy\": {}, \"errors\": {}, \"check_mismatches\": {}}}",
            self.attempted,
            self.succeeded(),
            self.failed(),
            self.upload_timeouts,
            self.busy,
            self.errors,
            self.mismatches
        )
    }
}

/// Classifies an error a served job returned.
pub fn classify(e: &ServeError) -> Failure {
    match e {
        ServeError::Busy { .. } => Failure::Busy,
        ServeError::Remote(m) if m.contains(UPLOAD_STALL_MESSAGE) => Failure::UploadTimeout,
        _ => Failure::Error,
    }
}

/// A local run rendered through the wire codec: what the server must
/// answer for the same trace.
pub fn expected_wire(run: &RunResult, ops: usize, model: &EnergyModel) -> JobResult {
    decode_result(&encode_result("fpraker", run, ops as u64, model))
        .expect("a locally encoded result decodes")
}

/// Checks one served response against its expected result and cache
/// outcome. `peak_resident_ops` is a streaming-window watermark, not a
/// simulation outcome (the server streams uploads through a bounded
/// window while a local run holds the whole trace), so it is excepted.
pub fn check_response(
    response: &JobResponse,
    expected: &JobResult,
    expect_cached: bool,
) -> Result<(), Failure> {
    let mut expected = expected.clone();
    expected.peak_resident_ops = response.result.peak_resident_ops;
    if response.cached != expect_cached || response.result != expected {
        return Err(Failure::Mismatch);
    }
    Ok(())
}

/// Checks a served job's whole outcome: an error is classified, a
/// response is compared.
pub fn check_job(
    outcome: &Result<JobResponse, ServeError>,
    expected: &JobResult,
    expect_cached: bool,
) -> Result<(), Failure> {
    match outcome {
        Ok(response) => check_response(response, expected, expect_cached),
        Err(e) => Err(classify(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpraker_num::Bf16;
    use fpraker_sim::{AcceleratorConfig, Engine, Machine};
    use fpraker_trace::{Phase, TensorKind, Trace, TraceOp};

    fn tiny_trace() -> Trace {
        let mut t = Trace::new("check-test", 50);
        t.ops.push(TraceOp {
            layer: "fc".into(),
            phase: Phase::AxW,
            m: 8,
            n: 8,
            k: 16,
            a: (0..128)
                .map(|i| Bf16::from_f32(i as f32 * 0.25 - 3.0))
                .collect(),
            b: (0..128)
                .map(|i| Bf16::from_f32(1.5 - i as f32 * 0.125))
                .collect(),
            a_kind: TensorKind::Activation,
            b_kind: TensorKind::Weight,
            a_dup: 1.0,
            b_dup: 1.0,
            out_dup: 1.0,
        });
        t
    }

    fn expected() -> JobResult {
        let trace = tiny_trace();
        let run = Engine::with_threads(1).run(
            Machine::FpRaker,
            &trace,
            &AcceleratorConfig::fpraker_paper(),
        );
        expected_wire(&run, trace.ops.len(), &EnergyModel::paper())
    }

    #[test]
    fn matching_response_passes_and_watermark_is_excepted() {
        let exp = expected();
        let mut result = exp.clone();
        result.peak_resident_ops = 1;
        let response = JobResponse {
            cached: false,
            result,
        };
        let mut tally = Tally::default();
        tally.record(check_response(&response, &exp, false));
        assert_eq!(tally.failed(), 0);
        assert!(tally.correct());
    }

    #[test]
    fn corrupted_response_counts_as_failed() {
        let exp = expected();
        let mut tally = Tally::default();

        let mut corrupt = exp.clone();
        corrupt.ops[0].cycles += 1;
        let response = JobResponse {
            cached: false,
            result: corrupt,
        };
        tally.record(check_response(&response, &exp, false));

        let mut energy = exp.clone();
        energy.energy_pj = f64::from_bits(energy.energy_pj.to_bits() ^ 1);
        tally.record(check_job(
            &Ok(JobResponse {
                cached: false,
                result: energy,
            }),
            &exp,
            false,
        ));

        // Right result, wrong cache outcome: also a failed check.
        let response = JobResponse {
            cached: true,
            result: exp.clone(),
        };
        tally.record(check_response(&response, &exp, false));

        assert_eq!(tally.attempted, 3);
        assert_eq!(tally.mismatches, 3);
        assert_eq!(tally.failed(), 3);
        assert_eq!(tally.succeeded(), 0);
        assert!(!tally.correct());
    }

    #[test]
    fn errors_are_classified_by_kind() {
        let exp = expected();
        let mut tally = Tally::default();
        let stall = ServeError::Remote(format!("i/o error: {UPLOAD_STALL_MESSAGE}"));
        tally.record(check_job(&Err(stall), &exp, false));
        tally.record(check_job(
            &Err(ServeError::Busy { retry_after_ms: 5 }),
            &exp,
            false,
        ));
        tally.record(check_job(&Err(ServeError::Cancelled), &exp, false));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                upload_timeouts: 1,
                busy: 1,
                errors: 1,
                mismatches: 0,
            }
        );
        // Failures without a wrong output leave the run correct.
        assert!(tally.correct());
    }
}
