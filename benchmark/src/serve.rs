//! `serve_cold`, and the traced run's hot probe: pipelined jobs against an
//! in-process server over loopback TCP.
//!
//! [`CONNECTIONS`] client threads each own one `PipelinedConnection` and
//! keep [`INFLIGHT_PER_CONNECTION`] jobs in flight, waiting on the oldest
//! before starting the next, as `fpraker-submit --concurrency` does: a
//! closed loop. A job's latency runs from `start_encoded` until `wait`
//! returns, failed jobs included. Throughput is the median over the
//! window's one-second slices, latency the median over blocks of jobs
//! (see [`crate::stats`]). Every response is checked against a
//! local `Engine::run` of the same trace rendered through the wire codec:
//! hot-set responses as they arrive (their references are computed before
//! the run), cold ones after the timed window (each reference costs a
//! simulation).

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fpraker_core::ExecStats;
use fpraker_energy::EnergyModel;
use fpraker_num::reference::SplitMix64;
use fpraker_serve::{
    CacheStats, JobOptions, JobResponse, JobResult, PendingJob, PipelinedConnection, ServeError,
    Server, ServerConfig, ServerStats,
};
use fpraker_sim::{AcceleratorConfig, Engine, EngineTelemetry, Machine, RunResult};
use fpraker_trace::{codec, Trace, TraceOp};

use crate::check::{check_job, check_response, classify, expected_wire, Failure, Tally};
use crate::layers;
use crate::report::Metrics;
use crate::stats::{
    beyond, block_summary, median, median_rate, summarize, MIN_BEYOND, TAIL_LADDER,
};
use crate::zoo::{JobGen, Zoo, SMALL_MODELS};
use crate::{e2e_common, Opts, Outcome};

/// Client connections, one client thread each (the host has two cores).
pub const CONNECTIONS: usize = 2;

/// Jobs each connection keeps in flight, as `fpraker-submit` does.
pub const INFLIGHT_PER_CONNECTION: usize = 4;

/// Server job pool: one permit per job the clients keep in flight.
///
/// Simulations in flight are still at most [`CONNECTIONS`]: a client
/// uploads a job only inside that job's `wait()`, which it calls on its
/// oldest job, so each connection simulates one job at a time. With a
/// permit per in-flight job, no permit waits on an upload its client has
/// not reached yet, which the pipelined-upload stall needs; the stall is
/// reproduced on purpose by [`stall_probe`] instead.
pub const SERVER_JOBS: usize = CONNECTIONS * INFLIGHT_PER_CONNECTION;

/// Engine workers of the `sim.parallel_eff` probe: the host's two cores.
const PARALLEL_WORKERS: usize = 2;

/// Engine workers per served job.
pub const THREADS_PER_JOB: usize = 1;

/// Server socket and upload timeout: fifty times the p99 of a cold job,
/// so a job waiting on its turn to upload never meets it.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Server I/O timeout of the stall probe: how long its stalled job holds
/// the probe server's one permit.
const STALL_TIMEOUT: Duration = Duration::from_millis(200);

/// Jobs joined into the stall probe's blocker, which holds the permit
/// while the probe queues its two jobs behind it.
const STALL_BLOCKER_JOBS: u64 = 16;

/// Longest the stall probe waits for the server to reach a state.
const STALL_POLL_LIMIT: Duration = Duration::from_secs(5);

/// Key offset of the stall probe's jobs.
const STALL_KEY_BASE: u64 = 1 << 41;

/// Result-cache capacity in entries.
pub const CACHE_ENTRIES: usize = 64;

/// Distinct traces the hot probe resubmits: fewer than [`CACHE_ENTRIES`],
/// so after warm-up every job is a hit.
pub const HOT_SET: usize = 48;

/// How long the hot probe resubmits its hot set.
const HOT_PROBE: Duration = Duration::from_secs(5);

/// Zipf exponent of the hot set's popularity.
const HOT_SKEW: f64 = 1.1;

/// Jobs whose modelled speed-up, energy and probe inputs `serve_cold`
/// takes: the first jobs of the seed's sequence.
const MODELLED_SET: usize = HOT_SET;

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 9;

/// Cold jobs per connection whose payloads one arena holds.
const COLD_EPOCH_JOBS: usize = 512;

/// Key offset of the traced loop's cold jobs, so they never repeat a job
/// of the untraced loop.
const TRACED_KEY_BASE: u64 = 1 << 40;

/// Salt of the hot set's job sequence.
const HOT_SALT: u64 = 0x0480_75E7;

const SPEC: &str = "fpraker";

/// Which serving loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every job a distinct trace: upload, simulate, cache insert.
    Cold,
    /// Every job a resubmission of a warmed hot-set trace: cache hits.
    Hot,
}

fn server(jobs: usize) -> Server {
    server_with_timeout(jobs, IO_TIMEOUT)
}

fn server_with_timeout(jobs: usize, io_timeout: Duration) -> Server {
    Server::start(ServerConfig {
        jobs,
        threads_per_job: THREADS_PER_JOB,
        cache_entries: CACHE_ENTRIES,
        io_timeout: Some(io_timeout),
        ..ServerConfig::default()
    })
    .expect("bind a loopback port")
}

fn local_run(trace: &Trace) -> RunResult {
    Engine::with_threads(1).run(Machine::FpRaker, trace, &AcceleratorConfig::fpraker_paper())
}

/// The cross-layer ledger on one job trace, the served layer on a fresh
/// one-job server per repetition.
pub fn ledger(trace: &Trace, tally: &mut Tally) -> Metrics {
    layers::ledger(
        trace,
        &AcceleratorConfig::fpraker_paper(),
        || server(1),
        tally,
    )
}

/// Reproduces the pipelined-upload stall (see ROADMAP) on a one-job
/// server. While a blocker job holds the permit, one connection starts X
/// at the default priority and then Y at a higher one, and waits on X.
/// Y takes the freed permit, but the client uploads Y only inside Y's own
/// `wait()`, so the server idles until its I/O timeout fails Y; only then
/// does X run. Reports `serve.stall_probe_failed_jobs` (1 while the
/// stall exists, 0 once a connection uploads whatever the server asks
/// for) and `serve.stall_probe_ms`, X's latency. Y's upload timeout is
/// the probe's reading; every other outcome is checked into `tally`.
pub fn stall_probe(gen: &JobGen, seed: u64, tally: &mut Tally) -> Metrics {
    let mut blocker = Trace::new("stall-blocker", 50);
    for i in 0..STALL_BLOCKER_JOBS {
        blocker.ops.extend(gen.job(seed, STALL_KEY_BASE + i).ops);
    }
    let traces = [
        blocker,
        gen.job(seed, STALL_KEY_BASE + STALL_BLOCKER_JOBS),
        gen.job(seed, STALL_KEY_BASE + STALL_BLOCKER_JOBS + 1),
    ];
    let energy = EnergyModel::paper();
    let expected: Vec<JobResult> = traces
        .iter()
        .map(|t| expected_wire(&local_run(t), t.ops.len(), &energy))
        .collect();
    let encoded: Vec<Vec<u8>> = traces.iter().map(|t| codec::encode(t).to_vec()).collect();

    let srv = server_with_timeout(1, STALL_TIMEOUT);
    // Polls the server's stats until `ready` holds (or the limit passes).
    let wait_until = |ready: fn(&ServerStats) -> bool| {
        let give_up = Instant::now() + STALL_POLL_LIMIT;
        while !ready(&srv.stats()) && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    // Connected right before use: the server drops a connection that
    // stays silent for its I/O timeout.
    let connect = || PipelinedConnection::connect(srv.local_addr()).expect("connect to the server");
    let blocking = connect();
    let (x_ms, outcomes) = std::thread::scope(|scope| {
        let blocker = scope.spawn(|| {
            blocking
                .start_encoded(&encoded[0], SPEC, JobOptions::default())
                .and_then(|job| job.wait())
        });
        wait_until(|s| s.jobs_in_flight == 1);
        let client = connect();
        let t = Instant::now();
        let x = client.start_encoded(&encoded[1], SPEC, JobOptions::default());
        let urgent = JobOptions {
            priority: 200,
            ..JobOptions::default()
        };
        let y = client.start_encoded(&encoded[2], SPEC, urgent);
        wait_until(|s| s.jobs_queued == 2);
        let x = x.and_then(|job| job.wait());
        let x_ms = t.elapsed().as_secs_f64() * 1e3;
        let y = y.and_then(|job| job.wait());
        let blocker = blocker.join().expect("stall probe blocker thread");
        (x_ms, [blocker, x, y])
    });
    srv.shutdown();

    let mut stalled = 0;
    for (outcome, expected) in outcomes.iter().zip(&expected) {
        match check_job(outcome, expected, false) {
            Err(Failure::UploadTimeout) => stalled += 1,
            verdict => tally.record(verdict),
        }
    }
    let mut m = Metrics::default();
    m.put("serve.stall_probe_failed_jobs", stalled as f64, "count");
    m.put("serve.stall_probe_ms", x_ms, "ms");
    m
}

/// `serve.hot_*`: the serving window when every job is a cache hit. A
/// fresh server is warmed with the [`hot_set`]; then the same connections
/// and window resubmit its traces with Zipf popularity for
/// [`HOT_PROBE`]: digest, header round trip, cache lookup, result encode
/// and send, with `core` and `sim` idle. Rates and latencies are read as
/// in the timed workloads, and every response is checked as it arrives.
pub fn hot_probe(seed: u64, tally: &mut Tally) -> Metrics {
    let setup = set_up(Mode::Hot, seed);
    let energy = EnergyModel::paper();
    let expected: Vec<JobResult> = setup
        .hot
        .iter()
        .map(|bytes| {
            let trace = codec::decode(bytes).expect("hot trace decodes");
            expected_wire(&local_run(&trace), trace.ops.len(), &energy)
        })
        .collect();
    for (outcome, expected) in setup.warm.iter().zip(&expected) {
        tally.record(check_job(outcome, expected, false));
    }
    let opts = Opts {
        workload: "hot_probe".into(),
        seed,
        seconds: HOT_PROBE.as_secs(),
        trace: false,
    };
    let cache_before = setup.server.cache_stats();
    let mut log = timed_loop(&setup, Some(&expected), &opts, false);
    let cache_after = setup.server.cache_stats();
    let (e2e, loop_tally) = finish(&mut log, &setup, &opts, (1.0, 1.0), 0.0);
    tally.merge(&loop_tally);
    setup.server.shutdown();

    let e2e_value = |name| e2e.get(name).expect("e2e metric");
    let lookups = |c: &CacheStats| c.hits + c.misses;
    let mut m = Metrics::default();
    m.put("serve.hot_jobs_per_s", e2e_value("jobs_per_s"), "jobs/s");
    m.put(
        "serve.hot_latency_ms_p50",
        e2e_value("job_latency_p50_ms"),
        "ms",
    );
    m.put(
        "serve.hot_latency_ms_tail",
        e2e_value("job_latency_tail_ms"),
        "ms",
    );
    m.put(
        "serve.hot_hit_frac",
        (cache_after.hits - cache_before.hits) as f64
            / (lookups(&cache_after) - lookups(&cache_before)).max(1) as f64,
        "fraction",
    );
    m
}

/// One finished job of a timed loop.
struct Finished {
    /// Seconds from the loop's start to the job's end.
    done_s: f32,
    latency_ms: f32,
    /// Whether it passed its check (cold jobs: once checked).
    passed: bool,
    /// MACs of its trace, as the server reported them.
    macs: u32,
}

/// MACs of a job's trace as the server reported them; jobs stay near
/// 100 K MACs.
fn job_macs(response: &JobResponse) -> u32 {
    u32::try_from(response.result.macs).expect("a job's MACs fit in u32")
}

/// What one connection's client thread gathered in a timed loop.
#[derive(Default)]
struct ConnLog {
    jobs: Vec<Finished>,
    /// `(start_encoded µs, wait µs)` per job, in the traced loop.
    split_us: Vec<(f64, f64)>,
    /// Jobs settled as they finished: errors, and hot-set responses.
    tally: Tally,
    /// Cold responses awaiting their check: index into `jobs`, job key.
    deferred: Vec<(usize, u64, JobResponse)>,
    /// Whether a failure was already echoed to stderr.
    echoed: bool,
}

impl ConnLog {
    fn finish_job(
        &mut self,
        key: u64,
        started: Instant,
        loop_start: Instant,
        split_us: Option<(f64, f64)>,
        outcome: Result<JobResponse, ServeError>,
        hot: Option<&[JobResult]>,
    ) {
        let mut job = Finished {
            done_s: loop_start.elapsed().as_secs_f32(),
            latency_ms: started.elapsed().as_secs_f32() * 1e3,
            passed: false,
            macs: 0,
        };
        self.split_us.extend(split_us);
        match (outcome, hot) {
            (Err(e), _) => {
                if !self.echoed {
                    eprintln!("job {key} failed: {e}");
                    self.echoed = true;
                }
                self.tally.fail(classify(&e));
            }
            (Ok(response), Some(expected)) => {
                let verdict = check_response(&response, &expected[key as usize], true);
                job.passed = verdict.is_ok();
                job.macs = job_macs(&response);
                self.tally.record(verdict);
            }
            (Ok(response), None) => {
                job.macs = job_macs(&response);
                self.deferred.push((self.jobs.len(), key, response));
            }
        }
        self.jobs.push(job);
    }

    fn merge(&mut self, other: ConnLog) {
        let offset = self.jobs.len();
        self.jobs.extend(other.jobs);
        self.split_us.extend(other.split_us);
        self.tally.merge(&other.tally);
        self.deferred.extend(
            other
                .deferred
                .into_iter()
                .map(|(i, key, response)| (i + offset, key, response)),
        );
    }
}

struct InFlight<'a> {
    key: u64,
    started: Instant,
    start_us: f64,
    job: PendingJob<'a>,
}

/// Drives one connection until `deadline` or until `next` runs out of
/// jobs, then drains its window. Returns how many jobs it started.
fn drive<'a>(
    conn: &PipelinedConnection,
    mut next: impl FnMut(usize) -> Option<(u64, &'a [u8])>,
    hot: Option<&[JobResult]>,
    loop_start: Instant,
    deadline: Instant,
    traced: bool,
    log: &mut ConnLog,
) -> usize {
    let mut window: VecDeque<InFlight<'a>> = VecDeque::with_capacity(INFLIGHT_PER_CONNECTION);
    let mut started = 0;
    loop {
        if window.len() < INFLIGHT_PER_CONNECTION && Instant::now() < deadline {
            if let Some((key, bytes)) = next(started) {
                started += 1;
                let t = Instant::now();
                match conn.start_encoded(bytes, SPEC, JobOptions::default()) {
                    Ok(job) => window.push_back(InFlight {
                        key,
                        started: t,
                        start_us: t.elapsed().as_secs_f64() * 1e6,
                        job,
                    }),
                    Err(e) => log.finish_job(key, t, loop_start, None, Err(e), hot),
                }
                continue;
            }
        }
        let Some(oldest) = window.pop_front() else {
            return started;
        };
        let w = Instant::now();
        let outcome = oldest.job.wait();
        let split = traced.then(|| (oldest.start_us, w.elapsed().as_secs_f64() * 1e6));
        log.finish_job(oldest.key, oldest.started, loop_start, split, outcome, hot);
    }
}

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(HOT_SKEW);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// The hot set in popularity order: rank `r` is a fixed window of model
/// `r % 3`, the windows of a model spread evenly over its ops. The seed
/// draws only the operand values, so what a job costs, and the Zipf mix
/// of job sizes, are the same for every seed.
fn hot_set(gen: &JobGen, seed: u64) -> Vec<Vec<u8>> {
    let models = SMALL_MODELS.len();
    let slots = HOT_SET / models;
    (0..HOT_SET)
        .map(|rank| {
            gen.fixed_encoded(
                seed ^ HOT_SALT,
                rank as u64,
                rank % models,
                rank / models,
                slots,
            )
        })
        .collect()
}

/// Everything set-up leaves for the timed part.
struct Setup {
    zoo: Zoo,
    gen: JobGen,
    server: Server,
    /// Encoded hot set (hot probe only).
    hot: Vec<Vec<u8>>,
    /// Warm-up outcomes of the hot set, by hot index.
    warm: Vec<Result<JobResponse, ServeError>>,
}

fn set_up(mode: Mode, seed: u64) -> Setup {
    let zoo = Zoo::train(&SMALL_MODELS);
    let gen = JobGen::new(&zoo);
    let hot: Vec<Vec<u8>> = match mode {
        Mode::Hot => hot_set(&gen, seed),
        Mode::Cold => Vec::new(),
    };
    let server = server(SERVER_JOBS);
    let warm_conn =
        PipelinedConnection::connect(server.local_addr()).expect("connect to the server");
    let warm = hot
        .iter()
        .map(|bytes| warm_conn.submit_encoded(bytes, SPEC, JobOptions::default()))
        .collect();
    Setup {
        zoo,
        gen,
        server,
        hot,
        warm,
    }
}

/// One timed loop over all connections: the merged log.
fn timed_loop(
    setup: &Setup,
    hot_expected: Option<&[JobResult]>,
    opts: &Opts,
    traced: bool,
) -> ConnLog {
    let base = if traced { TRACED_KEY_BASE } else { 0 };
    let cdf = zipf_cdf(HOT_SET);
    // Fresh connections per loop: the server drops a connection that
    // sends nothing for its I/O timeout before its first frame.
    let conns: Vec<PipelinedConnection> = (0..CONNECTIONS)
        .map(|_| {
            PipelinedConnection::connect(setup.server.local_addr()).expect("connect to the server")
        })
        .collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(opts.seconds);
    let log = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(t, conn)| {
                let (gen, hot, cdf) = (&setup.gen, &setup.hot, &cdf);
                let mut rng = SplitMix64::new(opts.seed ^ ((t as u64 + 1) << 32) ^ base);
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    if hot_expected.is_some() {
                        let next = |_| {
                            let u = rng.next_f64();
                            let i = cdf.partition_point(|&c| c < u).min(HOT_SET - 1);
                            Some((i as u64, hot[i].as_slice()))
                        };
                        drive(conn, next, hot_expected, start, deadline, traced, &mut log);
                        return log;
                    }
                    // Cold payloads live in one arena per epoch of
                    // COLD_EPOCH_JOBS jobs and the window drains at each
                    // epoch's end, so memory stays bounded however many
                    // jobs a run completes.
                    let mut done = 0;
                    while Instant::now() < deadline {
                        let arena: Vec<OnceLock<Vec<u8>>> =
                            (0..COLD_EPOCH_JOBS).map(|_| OnceLock::new()).collect();
                        let next = |n: usize| {
                            let key = base + (t + CONNECTIONS * (done + n)) as u64;
                            let slot = arena.get(n)?;
                            let bytes = slot.get_or_init(|| gen.encoded(opts.seed, key));
                            Some((key, bytes.as_slice()))
                        };
                        done += drive(conn, next, None, start, deadline, traced, &mut log);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection client thread"))
            .fold(ConnLog::default(), |mut all, log| {
                all.merge(log);
                all
            })
    });
    log
}

/// Checks deferred cold responses against a local run of their trace, on
/// two threads, after the timed window. Returns each response's verdict,
/// in order.
fn verify_deferred(
    deferred: &[(usize, u64, JobResponse)],
    gen: &JobGen,
    seed: u64,
) -> Vec<Result<(), Failure>> {
    let energy = EnergyModel::paper();
    let chunk = deferred.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = deferred
            .chunks(chunk)
            .map(|part| {
                let energy = &energy;
                scope.spawn(move || {
                    part.iter()
                        .map(|(_, key, response)| {
                            let trace = gen.job(seed, *key);
                            let expected =
                                expected_wire(&local_run(&trace), trace.ops.len(), energy);
                            check_response(response, &expected, false)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread"))
            .collect()
    })
}

/// Finishes a timed loop's checks; returns its end-to-end metrics and
/// tally.
fn finish(
    log: &mut ConnLog,
    setup: &Setup,
    opts: &Opts,
    modelled: (f64, f64),
    setup_s: f64,
) -> (Metrics, Tally) {
    let mut tally = log.tally.clone();
    let verdicts = verify_deferred(&log.deferred, &setup.gen, opts.seed);
    for ((i, _, _), verdict) in log.deferred.iter().zip(verdicts) {
        log.jobs[*i].passed = verdict.is_ok();
        tally.record(verdict);
    }
    log.jobs.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let passed = || log.jobs.iter().filter(|j| j.passed);
    let latency_ms: Vec<f64> = log.jobs.iter().map(|j| f64::from(j.latency_ms)).collect();
    let m = e2e_common(
        setup_s,
        median_rate(
            passed().map(|j| (f64::from(j.done_s), f64::from(j.macs))),
            opts.seconds,
        ),
        modelled.0,
        modelled.1,
        median_rate(passed().map(|j| (f64::from(j.done_s), 1.0)), opts.seconds),
        block_summary(&latency_ms, opts.seconds as usize),
        &tally,
    );
    (m, tally)
}

/// A histogram family's `_bucket{le="X"} N` series in Prometheus text:
/// `(upper bound, cumulative count)` pairs, `+Inf` as infinity.
fn histogram_buckets(text: &str, family: &str) -> Vec<(f64, u64)> {
    let prefix = format!("{family}_bucket{{le=\"");
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(&prefix)?;
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// A counter's value in Prometheus text (0 when absent).
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0)
}

/// Quantiles of what a cumulative histogram recorded between two
/// snapshots, interpolated linearly within the bucket: `(count, p50,
/// tail)`, the tail at the highest ladder percentile with ten
/// observations beyond it.
fn histogram_delta_quantiles(before: &[(f64, u64)], after: &[(f64, u64)]) -> (u64, f64, f64) {
    // The exposition stops at the last non-empty bucket, so a bound the
    // earlier snapshot lacks held its whole count.
    let before_total = before.last().map_or(0, |b| b.1);
    let cumulative_before = |le: f64| {
        before
            .iter()
            .find(|b| b.0 == le)
            .map_or(before_total, |b| b.1)
    };
    let delta: Vec<(f64, u64)> = after
        .iter()
        .map(|&(le, c)| (le, c.saturating_sub(cumulative_before(le))))
        .collect();
    let total = delta.last().map_or(0, |d| d.1);
    if total == 0 {
        return (0, 0.0, 0.0);
    }
    let quantile = |p: f64| {
        let target = (p / 100.0 * total as f64).ceil().max(1.0) as u64;
        let mut lower = (0.0, 0u64);
        for &(le, c) in &delta {
            if c >= target {
                let upper = if le.is_finite() { le } else { lower.0 };
                let span = (c - lower.1).max(1) as f64;
                return lower.0 + (upper - lower.0) * (target - lower.1) as f64 / span;
            }
            lower = (le, c);
        }
        lower.0
    };
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(p, total as usize) >= MIN_BEYOND)
        .unwrap_or(50.0);
    (total, quantile(50.0), quantile(tail_pct))
}

/// The `serve` layer's readings over one traced loop; all zero for a
/// workload that submits no job.
#[derive(Default)]
pub struct ServeLayers {
    start_us: Vec<f64>,
    wait_us: Vec<f64>,
    /// Semaphore wait `(p50, tail)` in seconds.
    queue_wait_s: (f64, f64),
    bytes_in: u64,
    bytes_out: u64,
    jobs: u64,
    hits: u64,
    lookups: u64,
}

impl ServeLayers {
    /// Adds the `serve.*` per-layer metrics.
    pub fn put(self, m: &mut Metrics) {
        let split = |v: Vec<f64>| {
            if v.is_empty() {
                (0.0, 0.0)
            } else {
                let s = summarize(v);
                (s.p50, s.tail)
            }
        };
        let (sp, st) = split(self.start_us);
        let (wp, wt) = split(self.wait_us);
        m.put("serve.start_us_p50", sp, "us");
        m.put("serve.start_us_tail", st, "us");
        m.put("serve.wait_us_p50", wp, "us");
        m.put("serve.wait_us_tail", wt, "us");
        m.put("serve.queue_wait_ms_p50", self.queue_wait_s.0 * 1e3, "ms");
        m.put("serve.queue_wait_ms_tail", self.queue_wait_s.1 * 1e3, "ms");
        let per_job = |b: u64| b as f64 / self.jobs.max(1) as f64;
        m.put("serve.bytes_in_per_job", per_job(self.bytes_in), "B");
        m.put("serve.bytes_out_per_job", per_job(self.bytes_out), "B");
        m.put(
            "serve.hit_frac",
            self.hits as f64 / self.lookups.max(1) as f64,
            "fraction",
        );
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut capture_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = setup.take() {
            previous.server.shutdown();
        }
        let t = Instant::now();
        let s = set_up(Mode::Cold, opts.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        train_s.push(s.zoo.train_s);
        capture_s.push(s.zoo.capture_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let setup_s = median(&setup_s);

    // The traces whose modelled figures and probe inputs the workload
    // takes, with their local FPRaker and baseline runs.
    let modelled_traces: Vec<Trace> = (0..MODELLED_SET as u64)
        .map(|i| setup.gen.job(opts.seed, i))
        .collect();
    let fp_runs: Vec<RunResult> = modelled_traces.iter().map(local_run).collect();
    let base_cfg = AcceleratorConfig::baseline_paper();
    let base_runs: Vec<RunResult> = modelled_traces
        .iter()
        .map(|t| Engine::with_threads(1).run(Machine::Baseline, t, &base_cfg))
        .collect();
    let energy = EnergyModel::paper();
    let cycles = |runs: &[RunResult]| runs.iter().map(RunResult::cycles).sum::<u64>() as f64;
    let pj = |runs: &[RunResult]| {
        runs.iter()
            .map(|r| r.energy(&energy).total_pj())
            .sum::<f64>()
    };
    let modelled = (
        cycles(&base_runs) / cycles(&fp_runs),
        pj(&base_runs) / pj(&fp_runs),
    );
    let mut log = timed_loop(&setup, None, opts, false);
    let (e2e, tally) = finish(&mut log, &setup, opts, modelled, setup_s);
    drop(log);

    let mut outcome = Outcome {
        e2e,
        traced: None,
        tally,
        meta: vec![
            ("connections", CONNECTIONS.to_string()),
            (
                "inflight_per_connection",
                INFLIGHT_PER_CONNECTION.to_string(),
            ),
            ("server_jobs", SERVER_JOBS.to_string()),
            ("threads_per_job", THREADS_PER_JOB.to_string()),
            ("io_timeout_ms", IO_TIMEOUT.as_millis().to_string()),
        ],
    };
    if opts.trace {
        let traced = Traced {
            setup: &setup,
            opts,
            modelled,
            setup_s,
            traces: &modelled_traces,
            fp_runs: &fp_runs,
            train_s: median(&train_s),
            capture_s: median(&capture_s),
        };
        outcome.traced = Some(traced.run(&mut outcome.tally));
    }
    setup.server.shutdown();
    outcome
}

/// Inputs of the traced run.
struct Traced<'a> {
    setup: &'a Setup,
    opts: &'a Opts,
    modelled: (f64, f64),
    setup_s: f64,
    /// The modelled set: probe inputs.
    traces: &'a [Trace],
    /// Their local FPRaker runs.
    fp_runs: &'a [RunResult],
    train_s: f64,
    capture_s: f64,
}

impl Traced<'_> {
    /// The traced timed loop plus every layer probe: returns the traced
    /// end-to-end metrics and the per-layer metrics.
    fn run(&self, tally: &mut Tally) -> (Metrics, Metrics) {
        let server = &self.setup.server;
        let metrics_before = server.metrics_text();
        let cache_before = server.cache_stats();
        let mut log = timed_loop(self.setup, None, self.opts, true);
        let metrics_after = server.metrics_text();
        let cache_after = server.cache_stats();
        let (traced_e2e, traced_tally) =
            finish(&mut log, self.setup, self.opts, self.modelled, self.setup_s);
        tally.merge(&traced_tally);

        let mut layer = Metrics::default();
        let cfg = AcceleratorConfig::fpraker_paper();
        let ops: Vec<&TraceOp> = self.traces.iter().flat_map(|t| &t.ops).collect();
        layer.extend(layers::pe_probe(&ops, &cfg));
        layer.extend(layers::tile_probe(&ops, &cfg));
        let stats = self
            .fp_runs
            .iter()
            .fold(ExecStats::default(), |acc, r| acc + r.stats());
        layer.extend(layers::exec_stats_metrics(&stats));
        let mut telemetry = EngineTelemetry::default();
        for t in self.traces {
            let (_, tel) =
                Engine::with_threads(THREADS_PER_JOB).run_with_telemetry(Machine::FpRaker, t, &cfg);
            layers::add_telemetry(&mut telemetry, &tel);
        }
        layer.extend(layers::stage_metrics(&telemetry));
        layer.extend(layers::op_probe(&ops, &cfg));
        let mut joined = Trace::new("modelled-set", 50);
        joined.ops = ops.iter().map(|&op| op.clone()).collect();
        layer.extend(layers::parallel_eff(&joined, &cfg, PARALLEL_WORKERS));
        layer.extend(layers::codec_probe(&self.traces.iter().collect::<Vec<_>>()));
        layer.put("dnn.train_s", self.train_s, "s");
        layer.put("dnn.capture_s", self.capture_s, "s");
        layer.extend(ledger(&self.setup.gen.job(self.opts.seed, 0), tally));
        layer.extend(stall_probe(&self.setup.gen, self.opts.seed, tally));
        layer.extend(hot_probe(self.opts.seed, tally));

        let family = "serve_semaphore_wait_seconds";
        let (_, q50, qtail) = histogram_delta_quantiles(
            &histogram_buckets(&metrics_before, family),
            &histogram_buckets(&metrics_after, family),
        );
        let delta = |name: &str| {
            counter(&metrics_after, name).saturating_sub(counter(&metrics_before, name))
        };
        let lookups = |c: &CacheStats| c.hits + c.misses;
        ServeLayers {
            start_us: log.split_us.iter().map(|s| s.0).collect(),
            wait_us: log.split_us.iter().map(|s| s.1).collect(),
            queue_wait_s: (q50, qtail),
            bytes_in: delta("serve_bytes_in_total"),
            bytes_out: delta("serve_bytes_out_total"),
            jobs: log.jobs.len() as u64,
            hits: cache_after.hits - cache_before.hits,
            lookups: lookups(&cache_after) - lookups(&cache_before),
        }
        .put(&mut layer);
        (traced_e2e, layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_reads_only_the_new_observations() {
        let before = "x_seconds_bucket{le=\"0.001\"} 5\nx_seconds_bucket{le=\"+Inf\"} 5\n";
        let mut after = String::from("x_seconds_bucket{le=\"0.001\"} 5\n");
        after.push_str("x_seconds_bucket{le=\"0.002\"} 25\n");
        after.push_str("x_seconds_bucket{le=\"+Inf\"} 25\n");
        let (n, p50, tail) = histogram_delta_quantiles(
            &histogram_buckets(before, "x_seconds"),
            &histogram_buckets(&after, "x_seconds"),
        );
        assert_eq!(n, 20);
        // All 20 new observations sit in (0.001, 0.002]; the median is
        // interpolated halfway into that bucket, and with twenty
        // observations the tail is the median too.
        assert!((p50 - 0.0015).abs() < 1e-12, "{p50}");
        assert!((tail - 0.0015).abs() < 1e-12, "{tail}");
        assert_eq!(counter("a_total 7\nb_total 9\n", "b_total"), 9);
        assert_eq!(counter("a_total 7\n", "b_total"), 0);
    }

    #[test]
    fn zipf_cdf_is_skewed_and_normalised() {
        let cdf = zipf_cdf(HOT_SET);
        assert!((cdf[HOT_SET - 1] - 1.0).abs() < 1e-12);
        assert!(cdf[0] > 5.0 / HOT_SET as f64);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
    }
}
