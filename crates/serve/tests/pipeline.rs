//! End-to-end tests of the tagged v3 pipeline: many jobs in flight per
//! connection with out-of-order completion, version negotiation with v2
//! clients, cancellation and deadlines, BUSY backpressure, priority
//! ordering, malformed-frame isolation, and the disk-backed cache
//! surviving a daemon restart.

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use fpraker_num::reference::SplitMix64;
use fpraker_num::Bf16;
use fpraker_serve::protocol::{
    decode_job_error, decode_result, job_error, read_frame, split_job_payload, tag, write_frame,
    JobKind, JobSubmit, RangeSubmit, ServerStats, StatsSubmit, Submit, PROTOCOL_MAGIC, TRACE_CHUNK,
};
use fpraker_serve::{
    JobOptions, PipelinedConnection, ServeError, Server, ServerConfig, ShardPlan, TraceStatsReport,
};
use fpraker_sim::{resolve_machine, Engine, Machine};
use fpraker_trace::digest::Fnv64;
use fpraker_trace::{codec, Phase, TensorKind, Trace, TraceOp};

/// A small deterministic multi-op trace (fast enough to simulate many
/// times in one test run).
fn test_trace(seed: u64, ops: usize) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut tr = Trace::new(format!("pipeline-test-{seed}"), 50);
    let phases = [Phase::AxW, Phase::GxW, Phase::AxG];
    for i in 0..ops {
        let (m, n, k) = (8, 8, 16);
        let gen = |rng: &mut SplitMix64, count: usize| -> Vec<Bf16> {
            (0..count)
                .map(|_| {
                    if rng.next_f64() < 0.4 {
                        Bf16::ZERO
                    } else {
                        rng.bf16_in_range(3)
                    }
                })
                .collect()
        };
        tr.ops.push(TraceOp {
            layer: format!("l{i}"),
            phase: phases[i % 3],
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

fn start_server(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        threads_per_job: 1,
        ..config
    })
    .expect("bind loopback")
}

/// Polls the server's stats until `f` holds (or panics after ~2 s).
fn wait_for_stats(server: &Server, what: &str, f: impl Fn(&ServerStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let stats = server.stats();
        if f(&stats) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A raw v2 client: one untagged job on `stream`. Sends the submit header
/// under `submit_tag`, uploads `bytes` in `chunk`-byte `TRACE_DATA` frames
/// if the server asks for the trace, and returns the `{cached, payload}`
/// reply, which must arrive under `result_tag`.
fn v2_job(
    stream: &mut TcpStream,
    submit_tag: u8,
    header: &[u8],
    bytes: &[u8],
    chunk: usize,
    result_tag: u8,
) -> (bool, Vec<u8>) {
    write_frame(stream, submit_tag, header).unwrap();
    stream.flush().unwrap();
    let (mut reply_tag, mut reply) = read_frame(stream).unwrap();
    if reply_tag == tag::NEED_TRACE {
        for piece in bytes.chunks(chunk) {
            write_frame(stream, tag::TRACE_DATA, piece).unwrap();
        }
        write_frame(stream, tag::TRACE_END, &[]).unwrap();
        stream.flush().unwrap();
        (reply_tag, reply) = read_frame(stream).unwrap();
    }
    assert_eq!(
        reply_tag,
        result_tag,
        "v2 reply: {:?}",
        String::from_utf8_lossy(&reply)
    );
    let cached = reply.remove(0) != 0;
    (cached, reply)
}

/// A v2 `SUBMIT` of `bytes` on `stream`: `(cached, decoded result)`.
fn v2_submit(stream: &mut TcpStream, bytes: &[u8]) -> (bool, fpraker_serve::JobResult) {
    let header = Submit {
        spec: "fpraker".into(),
        digest: Fnv64::digest_of(bytes),
        trace_bytes: bytes.len() as u64,
    }
    .encode();
    let (cached, payload) = v2_job(
        stream,
        tag::SUBMIT,
        &header,
        bytes,
        TRACE_CHUNK,
        tag::RESULT,
    );
    (cached, decode_result(&payload).unwrap())
}

/// Reads the value of one unlabelled sample line out of Prometheus text.
fn metric(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.parse().unwrap())
    })
}

#[test]
fn pipelined_jobs_complete_out_of_order_and_match_local_runs() {
    let server = start_server(ServerConfig {
        jobs: 2,
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(server.local_addr()).unwrap();
    let (_, cfg) = resolve_machine("fpraker").unwrap();

    let traces: Vec<Trace> = (0..6).map(|i| test_trace(900 + i, 3)).collect();
    let encoded: Vec<Vec<u8>> = traces.iter().map(|t| codec::encode(t).to_vec()).collect();

    // Warm one payload, then demonstrate out-of-order completion on one
    // connection: a cold job whose upload we deliberately delay stays
    // pending while a cache hit submitted *after* it comes back first.
    let warm = conn
        .submit_encoded(&encoded[0], "fpraker", JobOptions::default())
        .unwrap();
    assert!(!warm.cached);
    let stalled_cold = conn
        .start_encoded(&encoded[1], "fpraker", JobOptions::default())
        .unwrap();
    let cached = conn
        .start_encoded(&encoded[0], "fpraker", JobOptions::default())
        .unwrap();
    let cached_response = cached.wait().unwrap();
    assert!(
        cached_response.cached,
        "the later job completed first, demuxed by id"
    );
    assert_eq!(cached_response.result, warm.result);
    let stalled_response = stalled_cold.wait().unwrap();
    assert!(!stalled_response.cached);

    // Many cold jobs in flight at once, one waiter thread each: every
    // response is bit-identical to a local run.
    let responses = std::thread::scope(|scope| {
        let handles: Vec<_> = encoded[2..]
            .iter()
            .map(|bytes| {
                let conn = &conn;
                scope.spawn(move || {
                    conn.start_encoded(bytes, "fpraker", JobOptions::default())
                        .unwrap()
                        .wait()
                        .unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    for (i, (trace, response)) in traces[2..].iter().zip(&responses).enumerate() {
        assert!(!response.cached, "job {i} was cold");
        let local = Engine::with_threads(1).run(Machine::FpRaker, trace, &cfg);
        assert_eq!(response.result.cycles, local.cycles(), "job {i}");
        assert_eq!(response.result.macs, local.macs(), "job {i}");
        for (served, ours) in response.result.ops.iter().zip(&local.ops) {
            assert_eq!(served.cycles, ours.cycles, "job {i}");
            assert_eq!(served.counts, ours.counts, "job {i}");
        }
    }
    let stats = server.stats();
    assert_eq!(stats.jobs_completed, 6);
    assert_eq!(stats.cache_misses, 6);
    assert_eq!(stats.cache_hits, 1);
    server.shutdown();
}

#[test]
fn v2_clients_interoperate_and_unknown_versions_are_rejected() {
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let trace = test_trace(41, 2);
    let bytes = codec::encode(&trace).to_vec();

    // A raw v2 client and a v3 pipelined connection share the server —
    // and the content-addressed cache.
    let mut v2 = TcpStream::connect(server.local_addr()).unwrap();
    let (cold_cached, cold) = v2_submit(&mut v2, &bytes);
    assert!(!cold_cached);
    let conn = PipelinedConnection::connect(server.local_addr()).unwrap();
    let warm = conn
        .submit_encoded(&bytes, "fpraker", JobOptions::default())
        .unwrap();
    assert!(warm.cached, "the v3 job hits the cache the v2 job filled");
    assert_eq!(warm.result, cold);
    assert_eq!(server.stats().jobs_completed, 1, "one simulation for both");

    // An untagged submit stamped with an unknown future version is
    // rejected on its connection...
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut payload = Vec::new();
    payload.extend_from_slice(PROTOCOL_MAGIC);
    payload.push(9); // unknown version
    payload.extend_from_slice(&[0u8; 18]);
    write_frame(&mut stream, tag::SUBMIT, &payload).unwrap();
    stream.flush().unwrap();
    let (reply_tag, reply) = read_frame(&mut stream).unwrap();
    assert_eq!(reply_tag, tag::ERROR);
    assert!(
        String::from_utf8_lossy(&reply).contains("version"),
        "the error names the version mismatch: {:?}",
        String::from_utf8_lossy(&reply)
    );

    // ...and a tagged submit stamped v2 fails that job by id (tagged
    // frames are v3-only) without killing the connection.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut legacy = JobSubmit {
        job_id: 55,
        priority: 100,
        deadline_ms: 0,
        digest: Fnv64::digest_of(&bytes),
        trace_bytes: bytes.len() as u64,
        kind: JobKind::Sim {
            spec: "fpraker".into(),
        },
    }
    .encode();
    legacy[4] = 2; // rewrite the version byte
    write_frame(&mut stream, tag::SUBMIT_JOB, &legacy).unwrap();
    stream.flush().unwrap();
    let (reply_tag, reply) = read_frame(&mut stream).unwrap();
    assert_eq!(reply_tag, tag::JOB_ERROR);
    let (job_id, code, _) = decode_job_error(&reply).unwrap();
    assert_eq!(job_id, 55);
    assert_eq!(code, job_error::GENERIC);
    // The same connection still serves well-formed tagged jobs.
    legacy[4] = 3;
    write_frame(&mut stream, tag::SUBMIT_JOB, &legacy).unwrap();
    stream.flush().unwrap();
    let (reply_tag, reply) = read_frame(&mut stream).unwrap();
    assert_eq!(reply_tag, tag::JOB_RESULT);
    assert_eq!(split_job_payload(&reply).unwrap().0, 55);
    server.shutdown();
}

#[test]
fn malformed_tagged_frame_fails_one_job_and_leaves_the_pipeline_running() {
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let trace = test_trace(42, 3);
    let bytes = codec::encode(&trace).to_vec();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Job 1: a valid cold submission.
    let header = JobSubmit {
        job_id: 1,
        priority: 100,
        deadline_ms: 0,
        digest: Fnv64::digest_of(&bytes),
        trace_bytes: bytes.len() as u64,
        kind: JobKind::Sim {
            spec: "fpraker".into(),
        },
    };
    write_frame(&mut stream, tag::SUBMIT_JOB, &header.encode()).unwrap();
    // Job 7: a truncated garbage header behind a valid magic + id.
    let mut garbage = Vec::new();
    garbage.extend_from_slice(PROTOCOL_MAGIC);
    garbage.push(3);
    garbage.extend_from_slice(&7u64.to_le_bytes());
    garbage.extend_from_slice(&[0xFF; 3]);
    write_frame(&mut stream, tag::SUBMIT_JOB, &garbage).unwrap();
    stream.flush().unwrap();

    // Job 7 dies with a typed error; job 1 proceeds: trace request,
    // upload, result. The frames for the two jobs may interleave.
    let mut need_trace = false;
    let mut job7_failed = false;
    let mut result = None;
    while result.is_none() || !job7_failed {
        let (reply_tag, reply) = read_frame(&mut stream).unwrap();
        match reply_tag {
            tag::JOB_NEED_TRACE => {
                assert_eq!(split_job_payload(&reply).unwrap().0, 1);
                need_trace = true;
                let mut payload = 1u64.to_le_bytes().to_vec();
                payload.extend_from_slice(&bytes);
                write_frame(&mut stream, tag::JOB_DATA, &payload).unwrap();
                write_frame(&mut stream, tag::JOB_DATA_END, &1u64.to_le_bytes()).unwrap();
                stream.flush().unwrap();
            }
            tag::JOB_ERROR => {
                let (job_id, code, _) = decode_job_error(&reply).unwrap();
                assert_eq!(job_id, 7, "only the malformed job fails");
                assert_eq!(code, job_error::GENERIC);
                job7_failed = true;
            }
            tag::JOB_RESULT => {
                assert!(need_trace, "a cold job uploads before it simulates");
                let (job_id, body) = split_job_payload(&reply).unwrap();
                assert_eq!(job_id, 1);
                assert_eq!(body[0], 0, "cold");
                result = Some(());
            }
            other => panic!("unexpected frame tag {other:#x}"),
        }
    }
    server.shutdown();
}

#[test]
fn cancel_drops_queued_jobs_and_is_a_no_op_for_running_ones() {
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(server.local_addr()).unwrap();
    let running_bytes = codec::encode(&test_trace(50, 2)).to_vec();
    let queued_bytes = codec::encode(&test_trace(51, 2)).to_vec();

    // Job A acquires the lone permit, then stalls: its upload is only
    // driven by wait(), which we delay.
    let job_a = conn
        .start_encoded(&running_bytes, "fpraker", JobOptions::default())
        .unwrap();
    wait_for_stats(&server, "job A to start", |s| s.jobs_in_flight == 1);

    // Cancelling the *running* job is a no-op...
    conn.cancel(job_a.id()).unwrap();

    // ...while job B, still queued, dies with the typed cancel error.
    let job_b = conn
        .start_encoded(&queued_bytes, "fpraker", JobOptions::default())
        .unwrap();
    wait_for_stats(&server, "job B to queue", |s| s.jobs_queued == 1);
    job_b.cancel().unwrap();
    match job_b.wait() {
        Err(ServeError::Cancelled) => {}
        other => panic!("queued job survived cancel: {other:?}"),
    }
    wait_for_stats(&server, "the cancel to be counted", |s| {
        s.jobs_cancelled == 1
    });

    // Job A completes normally despite the earlier cancel.
    let response = job_a.wait().unwrap();
    assert!(!response.cached);
    let stats = server.stats();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_cancelled, 1);
    server.shutdown();
}

#[test]
fn queued_jobs_die_with_a_distinct_deadline_error() {
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(server.local_addr()).unwrap();
    let running_bytes = codec::encode(&test_trace(60, 2)).to_vec();
    let queued_bytes = codec::encode(&test_trace(61, 2)).to_vec();

    let job_a = conn
        .start_encoded(&running_bytes, "fpraker", JobOptions::default())
        .unwrap();
    wait_for_stats(&server, "job A to start", |s| s.jobs_in_flight == 1);

    let job_b = conn
        .start_encoded(
            &queued_bytes,
            "fpraker",
            JobOptions {
                deadline_ms: 20,
                ..JobOptions::default()
            },
        )
        .unwrap();
    match job_b.wait() {
        Err(ServeError::DeadlineExpired) => {}
        other => panic!("queued job outlived its deadline: {other:?}"),
    }
    wait_for_stats(&server, "the expiry to be counted", |s| {
        s.jobs_deadline_expired == 1
    });

    let response = job_a.wait().unwrap();
    assert!(!response.cached);
    assert_eq!(server.stats().jobs_completed, 1);
    server.shutdown();
}

#[test]
fn saturated_servers_reject_with_busy_and_the_configured_retry_hint() {
    let server = start_server(ServerConfig {
        jobs: 1,
        queue_depth: 0,
        busy_retry_ms: 123,
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(server.local_addr()).unwrap();
    let running_bytes = codec::encode(&test_trace(70, 2)).to_vec();
    let rejected_bytes = codec::encode(&test_trace(71, 2)).to_vec();

    let job_a = conn
        .start_encoded(&running_bytes, "fpraker", JobOptions::default())
        .unwrap();
    wait_for_stats(&server, "job A to start", |s| s.jobs_in_flight == 1);

    let job_b = conn
        .start_encoded(&rejected_bytes, "fpraker", JobOptions::default())
        .unwrap();
    match job_b.wait() {
        Err(ServeError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 123),
        other => panic!("saturated server accepted the job: {other:?}"),
    }
    assert_eq!(server.stats().busy_rejections, 1);

    // Once the running job drains, the same submission goes through.
    assert!(!job_a.wait().unwrap().cached);
    let retried = conn
        .submit_encoded(&rejected_bytes, "fpraker", JobOptions::default())
        .unwrap();
    assert!(!retried.cached);
    server.shutdown();
}

#[test]
fn higher_priority_jobs_jump_the_queue() {
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(server.local_addr()).unwrap();
    let blocker_bytes = codec::encode(&test_trace(80, 2)).to_vec();
    let low_bytes = codec::encode(&test_trace(81, 4)).to_vec();
    let high_bytes = codec::encode(&test_trace(82, 4)).to_vec();

    let blocker = conn
        .start_encoded(&blocker_bytes, "fpraker", JobOptions::default())
        .unwrap();
    wait_for_stats(&server, "the blocker to start", |s| s.jobs_in_flight == 1);

    // Low priority arrives first, high priority second; the queue runs
    // the high-priority job as soon as the blocker's permit frees.
    let low = conn
        .start_encoded(
            &low_bytes,
            "fpraker",
            JobOptions {
                priority: 1,
                ..JobOptions::default()
            },
        )
        .unwrap();
    wait_for_stats(&server, "the low-priority job to queue", |s| {
        s.jobs_queued == 1
    });
    let high = conn
        .start_encoded(
            &high_bytes,
            "fpraker",
            JobOptions {
                priority: 200,
                ..JobOptions::default()
            },
        )
        .unwrap();
    wait_for_stats(&server, "the high-priority job to queue", |s| {
        s.jobs_queued == 2
    });

    assert!(!blocker.wait().unwrap().cached);
    let finished = std::thread::scope(|scope| {
        let t_high = scope.spawn(move || {
            high.wait().unwrap();
            Instant::now()
        });
        let t_low = scope.spawn(move || {
            low.wait().unwrap();
            Instant::now()
        });
        (t_high.join().unwrap(), t_low.join().unwrap())
    });
    assert!(
        finished.0 < finished.1,
        "the high-priority job must complete before the low-priority one"
    );
    assert_eq!(server.stats().jobs_completed, 3);
    server.shutdown();
}

#[test]
fn range_and_stats_jobs_ride_the_tagged_pipeline() {
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(server.local_addr()).unwrap();
    let mut v2 = TcpStream::connect(server.local_addr()).unwrap();
    let trace = test_trace(90, 6);
    let mut indexed = Vec::new();
    {
        let mut w = codec::Writer::new(
            &mut indexed,
            &trace.model,
            trace.progress_pct,
            trace.ops.len() as u32,
        )
        .unwrap();
        for op in &trace.ops {
            w.write_op(op).unwrap();
        }
        w.finish_indexed(2).unwrap();
    }
    let plan = ShardPlan::from_bytes(indexed.clone(), 2).unwrap();
    let range = plan.ranges()[0];
    let sub = plan.extract(0).unwrap();

    // A tagged range job equals the same range submitted over v2.
    let tagged = conn
        .submit_range_encoded(
            &sub,
            "fpraker",
            u64::from(range.first_op),
            u64::from(range.ops),
            JobOptions::default(),
        )
        .unwrap();
    assert!(!tagged.cached);
    let header = RangeSubmit {
        spec: "fpraker".into(),
        digest: Fnv64::digest_of(&sub),
        trace_bytes: sub.len() as u64,
        first_op: u64::from(range.first_op),
        ops: u64::from(range.ops),
    }
    .encode();
    let (cached, legacy) = v2_job(
        &mut v2,
        tag::SUBMIT_RANGE,
        &header,
        &sub,
        TRACE_CHUNK,
        tag::RESULT,
    );
    assert!(cached, "the v2 resubmission hits the cache");
    assert_eq!(tagged.result, decode_result(&legacy).unwrap());

    // A tagged stats job equals the v2 stats submission.
    let plain = codec::encode(&trace).to_vec();
    let tagged_stats = conn.submit_stats_encoded(&plain).unwrap();
    assert!(!tagged_stats.cached);
    let header = StatsSubmit {
        digest: Fnv64::digest_of(&plain),
        trace_bytes: plain.len() as u64,
    }
    .encode();
    let (cached, legacy_stats) = v2_job(
        &mut v2,
        tag::SUBMIT_STATS,
        &header,
        &plain,
        TRACE_CHUNK,
        tag::TRACE_STATS_RESULT,
    );
    assert!(cached);
    assert_eq!(
        tagged_stats.report,
        TraceStatsReport::decode(&legacy_stats).unwrap()
    );
    server.shutdown();
}

#[test]
fn duplicate_in_flight_job_ids_are_rejected_without_killing_the_connection() {
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let bytes = codec::encode(&test_trace(95, 2)).to_vec();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let header = JobSubmit {
        job_id: 9,
        priority: 100,
        deadline_ms: 0,
        digest: Fnv64::digest_of(&bytes),
        trace_bytes: bytes.len() as u64,
        kind: JobKind::Sim {
            spec: "fpraker".into(),
        },
    }
    .encode();
    write_frame(&mut stream, tag::SUBMIT_JOB, &header).unwrap();
    write_frame(&mut stream, tag::SUBMIT_JOB, &header).unwrap();
    stream.flush().unwrap();

    // The duplicate id fails; the original still wants its trace and
    // completes once uploaded.
    let mut saw_duplicate_error = false;
    let mut saw_result = false;
    while !(saw_duplicate_error && saw_result) {
        let (reply_tag, reply) = read_frame(&mut stream).unwrap();
        match reply_tag {
            tag::JOB_NEED_TRACE => {
                let mut payload = 9u64.to_le_bytes().to_vec();
                payload.extend_from_slice(&bytes);
                write_frame(&mut stream, tag::JOB_DATA, &payload).unwrap();
                write_frame(&mut stream, tag::JOB_DATA_END, &9u64.to_le_bytes()).unwrap();
                stream.flush().unwrap();
            }
            tag::JOB_ERROR => {
                let (job_id, code, message) = decode_job_error(&reply).unwrap();
                assert_eq!(job_id, 9);
                assert_eq!(code, job_error::GENERIC);
                assert!(message.contains("flight"), "{message}");
                saw_duplicate_error = true;
            }
            tag::JOB_RESULT => {
                assert_eq!(split_job_payload(&reply).unwrap().0, 9);
                saw_result = true;
            }
            other => panic!("unexpected frame tag {other:#x}"),
        }
    }
    server.shutdown();
}

#[test]
fn a_restarted_server_answers_from_the_disk_cache_without_resimulating() {
    let dir = std::env::temp_dir().join(format!("fpraker_pipeline_cache_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = test_trace(99, 3);
    let bytes = codec::encode(&trace).to_vec();

    let first = start_server(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(first.local_addr()).unwrap();
    let cold = conn
        .submit_encoded(&bytes, "fpraker", JobOptions::default())
        .unwrap();
    assert!(!cold.cached);
    drop(conn);
    first.shutdown();

    // A brand-new server over the same directory answers warm: no upload
    // beyond the header, no simulation — jobs_completed stays 0.
    let second = start_server(ServerConfig {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(second.local_addr()).unwrap();
    let warm = conn
        .submit_encoded(&bytes, "fpraker", JobOptions::default())
        .unwrap();
    assert!(warm.cached, "the restarted server must answer from disk");
    assert_eq!(warm.result, cold.result, "bit-identical across restarts");
    let stats = second.stats();
    assert_eq!(stats.jobs_completed, 0, "nothing was re-simulated");
    assert_eq!(stats.cache_hits, 1);
    drop(conn);
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn back_to_back_v2_jobs_share_one_raw_connection() {
    // Every v2 job on a connection is job 0, so the server must retire
    // job 0 before its reply goes out: a v2 client that submits again the
    // moment it reads a reply must never race a still-pending job 0.
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let mut v2 = TcpStream::connect(server.local_addr()).unwrap();
    let (_, cfg) = resolve_machine("fpraker").unwrap();
    for seed in 0..8 {
        let trace = test_trace(300 + seed, 2);
        let bytes = codec::encode(&trace).to_vec();
        let (cached, result) = v2_submit(&mut v2, &bytes);
        assert!(!cached, "job {seed} was cold");
        let local = Engine::with_threads(1).run(Machine::FpRaker, &trace, &cfg);
        assert_eq!(result.cycles, local.cycles(), "job {seed}");
    }
    // The other job kinds ride the same connection, back to back.
    let bytes = codec::encode(&test_trace(300, 2)).to_vec();
    let header = StatsSubmit {
        digest: Fnv64::digest_of(&bytes),
        trace_bytes: bytes.len() as u64,
    }
    .encode();
    let (cached, _) = v2_job(
        &mut v2,
        tag::SUBMIT_STATS,
        &header,
        &bytes,
        TRACE_CHUNK,
        tag::TRACE_STATS_RESULT,
    );
    assert!(!cached);
    let (cached, _) = v2_submit(&mut v2, &bytes);
    assert!(cached, "the first job's result is warm");
    assert_eq!(server.stats().jobs_completed, 9);
    server.shutdown();
}

#[test]
fn queued_v2_jobs_outlast_the_io_timeout_but_silent_v2_connections_do_not() {
    let io_timeout = Duration::from_millis(300);
    let server = start_server(ServerConfig {
        jobs: 1,
        io_timeout: Some(io_timeout),
        ..ServerConfig::default()
    });
    let blocker_bytes = codec::encode(&test_trace(310, 8)).to_vec();
    let queued_bytes = codec::encode(&test_trace(311, 2)).to_vec();

    // A tagged blocker takes the lone permit, then trickles its upload so
    // it holds the permit for well over the io timeout.
    let mut blocker = TcpStream::connect(server.local_addr()).unwrap();
    let header = JobSubmit {
        job_id: 1,
        priority: 100,
        deadline_ms: 0,
        digest: Fnv64::digest_of(&blocker_bytes),
        trace_bytes: blocker_bytes.len() as u64,
        kind: JobKind::Sim {
            spec: "fpraker".into(),
        },
    };
    write_frame(&mut blocker, tag::SUBMIT_JOB, &header.encode()).unwrap();
    blocker.flush().unwrap();
    assert_eq!(read_frame(&mut blocker).unwrap().0, tag::JOB_NEED_TRACE);

    // A v2 job queues behind it, on a connection that then stays silent.
    let mut v2 = TcpStream::connect(server.local_addr()).unwrap();
    v2.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let queued = std::thread::spawn(move || v2_submit(&mut v2, &queued_bytes));
    wait_for_stats(&server, "the v2 job to queue", |s| s.jobs_queued == 1);

    let trickle = Instant::now();
    for piece in blocker_bytes.chunks(blocker_bytes.len().div_ceil(8)) {
        let mut payload = 1u64.to_le_bytes().to_vec();
        payload.extend_from_slice(piece);
        write_frame(&mut blocker, tag::JOB_DATA, &payload).unwrap();
        blocker.flush().unwrap();
        std::thread::sleep(io_timeout / 3);
    }
    write_frame(&mut blocker, tag::JOB_DATA_END, &1u64.to_le_bytes()).unwrap();
    blocker.flush().unwrap();
    assert_eq!(read_frame(&mut blocker).unwrap().0, tag::JOB_RESULT);
    assert!(trickle.elapsed() > 2 * io_timeout, "the v2 job queued long");

    let (cached, _) = queued.join().unwrap();
    assert!(
        !cached,
        "the long-queued v2 job still simulated and answered"
    );
    assert_eq!(server.stats().jobs_completed, 2);

    // A v2 connection with nothing in flight is still dropped when silent.
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let opened = Instant::now();
    let mut byte = [0u8; 1];
    assert_eq!(
        std::io::Read::read(&mut silent, &mut byte).unwrap(),
        0,
        "the server closes a silent connection"
    );
    assert!(opened.elapsed() >= io_timeout / 2);
    server.shutdown();
}

#[test]
fn v2_upload_frames_are_not_counted_as_requests() {
    let server = start_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let bytes = codec::encode(&test_trace(320, 2)).to_vec();
    let requests = || metric(&server.metrics_text(), "serve_requests_total").unwrap_or(0);
    let before = requests();
    // One byte per TRACE_DATA frame: hundreds of upload frames for one
    // request.
    let mut v2 = TcpStream::connect(server.local_addr()).unwrap();
    let header = Submit {
        spec: "fpraker".into(),
        digest: Fnv64::digest_of(&bytes),
        trace_bytes: bytes.len() as u64,
    }
    .encode();
    let (cached, _) = v2_job(&mut v2, tag::SUBMIT, &header, &bytes, 1, tag::RESULT);
    assert!(!cached);
    let counted = requests() - before;
    if fpraker_telemetry::compiled() {
        assert!(counted >= 1, "the SUBMIT itself is a request");
    }
    // Other tests in this process may submit concurrently, so the bound
    // leaves room for them — but not for one request per upload frame.
    assert!(
        counted < bytes.len() as u64 / 2,
        "{counted} requests for one job uploaded in {} frames",
        bytes.len()
    );
    server.shutdown();
}

#[test]
fn metrics_declare_each_family_once_with_the_values_stats_reports() {
    let server = start_server(ServerConfig {
        jobs: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let conn = PipelinedConnection::connect(server.local_addr()).unwrap();
    let bytes: Vec<Vec<u8>> = (0..4)
        .map(|i| codec::encode(&test_trace(330 + i, 2)).to_vec())
        .collect();

    // A holds the lone permit (its upload waits for `wait()`).
    let job_a = conn
        .start_encoded(&bytes[0], "fpraker", JobOptions::default())
        .unwrap();
    wait_for_stats(&server, "job A to start", |s| s.jobs_in_flight == 1);
    // B's deadline lapses in the queue.
    let deadline = JobOptions {
        deadline_ms: 20,
        ..JobOptions::default()
    };
    match conn.submit_encoded(&bytes[1], "fpraker", deadline) {
        Err(ServeError::DeadlineExpired) => {}
        other => panic!("queued job outlived its deadline: {other:?}"),
    }
    // C fills the one-deep queue, so D is refused; then C is cancelled.
    let job_c = conn
        .start_encoded(&bytes[2], "fpraker", JobOptions::default())
        .unwrap();
    wait_for_stats(&server, "job C to queue", |s| s.jobs_queued == 1);
    match conn.submit_encoded(&bytes[3], "fpraker", JobOptions::default()) {
        Err(ServeError::Busy { .. }) => {}
        other => panic!("saturated server accepted the job: {other:?}"),
    }
    job_c.cancel().unwrap();
    match job_c.wait() {
        Err(ServeError::Cancelled) => {}
        other => panic!("queued job survived cancel: {other:?}"),
    }
    assert!(!job_a.wait().unwrap().cached);
    wait_for_stats(&server, "job A to retire", |s| s.jobs_in_flight == 0);

    let stats = server.stats();
    assert_eq!(
        (
            stats.busy_rejections,
            stats.jobs_cancelled,
            stats.jobs_deadline_expired
        ),
        (1, 1, 1)
    );
    let text = server.metrics_text();
    let mut families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    families.sort_unstable();
    let declared = families.len();
    families.dedup();
    assert_eq!(
        families.len(),
        declared,
        "a family is declared twice:\n{text}"
    );
    for (name, value) in [
        ("serve_jobs_completed_total", stats.jobs_completed),
        ("serve_cache_hits_total", stats.cache_hits),
        ("serve_cache_misses_total", stats.cache_misses),
        ("serve_cache_evictions_total", stats.cache_evictions),
        ("serve_busy_rejections_total", stats.busy_rejections),
        ("serve_jobs_cancelled_total", stats.jobs_cancelled),
        (
            "serve_jobs_deadline_expired_total",
            stats.jobs_deadline_expired,
        ),
        ("serve_cache_entries", stats.cache_entries),
        ("serve_cache_capacity", stats.cache_capacity),
        ("serve_cache_resident_bytes", stats.cache_resident_bytes),
        ("serve_cache_capacity_bytes", stats.cache_capacity_bytes),
        ("serve_jobs_in_flight", stats.jobs_in_flight),
        ("serve_jobs_queued", stats.jobs_queued),
    ] {
        let samples = text
            .lines()
            .filter(|l| l.split_once(' ').is_some_and(|(n, _)| n == name))
            .count();
        assert_eq!(samples, 1, "{name} has {samples} samples");
        assert_eq!(metric(&text, name), Some(value), "{name}");
    }
    server.shutdown();
}
