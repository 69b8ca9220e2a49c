//! The repository benchmark: end-to-end and per-layer measurements of the
//! FPRaker simulator and its serving stack. `BENCHMARK.json` at the
//! repository root describes the workloads and every metric.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload train_sim|serve_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` the run measures the
//! workload untraced and then traced, prints both sets of end-to-end
//! metrics and their difference (the tracing overhead), and the last line
//! carries the per-layer metrics. Earlier lines record host metadata and
//! failures by kind.

#![forbid(unsafe_code)]

mod check;
mod layers;
mod report;
mod serve;
mod stats;
mod train_sim;
mod zoo;

use check::Tally;
use report::{host_metadata, peak_rss_mib, result_line, Metrics};
use stats::Summary;

/// Parsed command line.
pub struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// What a workload run produces.
pub struct Outcome {
    /// End-to-end metrics of the untraced run.
    e2e: Metrics,
    /// With `--trace 1`: the traced run's end-to-end and per-layer metrics.
    traced: Option<(Metrics, Metrics)>,
    /// Every checked operation of the run.
    tally: Tally,
    /// Workload facts for the run log.
    meta: Vec<(&'static str, String)>,
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
pub fn e2e_common(
    setup_s: f64,
    macs_per_s: f64,
    speedup: f64,
    energy_eff: f64,
    jobs_per_s: f64,
    latency: Summary,
    tally: &Tally,
) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("sim_macs_per_s", macs_per_s, "MAC/s");
    m.put("sim_speedup_x", speedup, "x");
    m.put("sim_energy_eff_x", energy_eff, "x");
    m.put("jobs_per_s", jobs_per_s, "jobs/s");
    m.put("job_latency_p50_ms", latency.p50, "ms");
    m.put("job_latency_tail_ms", latency.tail, "ms");
    m.put("job_latency_tail_pct", latency.tail_pct, "percentile");
    m.put("job_latency_samples", latency.n as f64, "count");
    m.put(
        "success_rate",
        tally.succeeded() as f64 / tally.attempted.max(1) as f64,
        "fraction",
    );
    m.put("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), "MiB");
    m
}

/// Metrics of the run log that are descriptive rather than measured and
/// stay out of the result line.
const LOG_ONLY: [&str; 2] = ["job_latency_tail_pct", "job_latency_samples"];

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload train_sim|serve_cold --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "train_sim" => train_sim::run(&opts),
        "serve_cold" => serve::run(&opts),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if outcome.tally.attempted == 0 {
        eprintln!("error: the run attempted no operation");
        std::process::exit(1);
    }

    let mut meta = vec![("workload", opts.workload.clone())];
    meta.extend(outcome.meta.iter().cloned());
    meta.push(("trace", u8::from(opts.trace).to_string()));
    println!("host {}", host_metadata(opts.seed, &meta));
    println!("failures {}", outcome.tally.to_json());

    let mut result = Metrics::default();
    match &outcome.traced {
        None => {
            for (name, value, unit) in outcome.e2e.iter() {
                println!("e2e {name} {value} {unit}");
                if !LOG_ONLY.contains(&name) {
                    result.put(name, value, unit);
                }
            }
        }
        Some((traced, layer)) => {
            for (name, untraced, unit) in outcome.e2e.iter() {
                let with = traced.get(name).expect("traced run reports every metric");
                let overhead = if untraced != 0.0 {
                    with / untraced - 1.0
                } else {
                    0.0
                };
                println!(
                    "e2e {name} untraced={untraced} traced={with} {unit} traced/untraced-1={overhead:+.4}"
                );
            }
            for (name, value, unit) in layer.iter() {
                result.put(name, value, unit);
            }
            // Tracing overhead as the change in throughput and median
            // latency between the untraced and the traced timed loops.
            for name in ["sim_macs_per_s", "jobs_per_s", "job_latency_p50_ms"] {
                let untraced = outcome.e2e.get(name).expect("e2e metric");
                let with = traced.get(name).expect("e2e metric");
                result.put(
                    format!("tracing.{name}_change"),
                    with / untraced - 1.0,
                    "fraction",
                );
            }
            let t = &outcome.tally;
            result.put("serve.upload_timeouts", t.upload_timeouts as f64, "count");
            result.put("serve.busy_rejections", t.busy as f64, "count");
            result.put("fail.errors", t.errors as f64, "count");
            result.put("fail.check_mismatches", t.mismatches as f64, "count");
            for (name, value, unit) in result.iter() {
                println!("layer {name} {value} {unit}");
            }
        }
    }
    println!("{}", result_line(&outcome.tally, &result));
}
