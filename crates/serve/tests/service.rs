//! End-to-end tests of the trace-simulation service: concurrent-client
//! determinism against `Engine::run`, content-addressed cache behavior,
//! and protocol robustness (malformed frames, oversized length prefixes,
//! mid-upload disconnects) — every failure must leave the server
//! accepting new connections.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use fpraker_energy::EnergyModel;
use fpraker_num::reference::SplitMix64;
use fpraker_num::Bf16;
use fpraker_serve::protocol::{tag, write_frame, Submit};
use fpraker_serve::{Client, ServeError, Server, ServerConfig};
use fpraker_sim::{resolve_machine, Engine, Machine, RunResult};
use fpraker_trace::{codec, Phase, TensorKind, Trace, TraceOp};

/// A small deterministic multi-op trace (fast enough to simulate many
/// times in one test run).
fn test_trace(seed: u64, ops: usize) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut tr = Trace::new(format!("serve-test-{seed}"), 50);
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

fn start_server(jobs: usize) -> Server {
    Server::start(ServerConfig {
        jobs,
        threads_per_job: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
}

/// Asserts a served result is bit-identical to a local `Engine::run`.
fn assert_matches_local(result: &fpraker_serve::JobResult, local: &RunResult, spec: &str) {
    let (_, _cfg) = resolve_machine(spec).unwrap();
    assert_eq!(result.spec, spec);
    assert_eq!(result.cycles, local.cycles());
    assert_eq!(result.compute_cycles, local.compute_cycles());
    assert_eq!(result.macs, local.macs());
    assert_eq!(result.golden_failures, local.golden_failures());
    assert_eq!(result.ops.len(), local.ops.len());
    let model = EnergyModel::paper();
    let energy = |counts| local.machine.energy(&model, counts).total_pj();
    let total_counts = local.counts();
    assert_eq!(result.energy_pj.to_bits(), energy(&total_counts).to_bits());
    for (served, ours) in result.ops.iter().zip(&local.ops) {
        assert_eq!(served.phase, ours.phase);
        assert_eq!(served.cycles, ours.cycles);
        assert_eq!(served.compute_cycles, ours.compute_cycles);
        assert_eq!(served.macs, ours.macs);
        assert_eq!(served.energy_pj.to_bits(), energy(&ours.counts).to_bits());
        assert_eq!(served.golden_failures, ours.golden_failures);
        assert_eq!(served.counts, ours.counts);
    }
}

/// Encodes a trace with an index footer appended.
fn encode_indexed(tr: &Trace, stride: u32) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = codec::Writer::new(&mut out, &tr.model, tr.progress_pct, tr.ops.len() as u32)
        .expect("header");
    for op in &tr.ops {
        w.write_op(op).expect("op");
    }
    w.finish_indexed(stride).expect("footer");
    out
}

#[test]
fn indexed_payloads_are_accepted_digest_verified_and_bit_identical() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(77, 6);
    let spec = "fpraker";
    let (_, cfg) = resolve_machine(spec).unwrap();
    let local = Engine::with_threads(1).run(Machine::FpRaker, &trace, &cfg);

    // An indexed upload (footer after the ops) simulates like a plain one.
    let indexed = encode_indexed(&trace, 2);
    let response = client.submit_encoded(&indexed, spec).unwrap();
    assert!(!response.cached);
    assert_matches_local(&response.result, &local, spec);

    // Resubmitting the same indexed bytes hits the content cache.
    let again = client.submit_encoded(&indexed, spec).unwrap();
    assert!(again.cached);
    assert_eq!(again.result, response.result);

    // The plain encoding is different content (different digest): it
    // simulates separately — to the identical result.
    let plain = codec::encode(&trace).to_vec();
    let plain_response = client.submit_encoded(&plain, spec).unwrap();
    assert!(!plain_response.cached);
    assert_matches_local(&plain_response.result, &local, spec);

    // A lying digest over indexed bytes is rejected and does not poison
    // the cache; trailing garbage that is not a footer is rejected too.
    let mut tampered = indexed.clone();
    let last = tampered.len() - 1;
    tampered[last] ^= 0xFF; // breaks the footer magic
    match client.submit_encoded(&tampered, spec) {
        Err(ServeError::Remote(m)) => {
            assert!(m.contains("footer") || m.contains("digest"), "{m}")
        }
        other => panic!("tampered footer accepted: {other:?}"),
    }
    // The server is still serving afterwards.
    assert!(client.submit_encoded(&indexed, spec).unwrap().cached);
}

#[test]
fn stats_jobs_compute_single_pass_statistics_over_the_streamed_upload() {
    use fpraker_num::encode::Encoding;
    use fpraker_serve::TraceStatsReport;
    use fpraker_trace::stats::TraceStatistics;

    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(123, 5);
    let bytes = codec::encode(&trace).to_vec();
    let local = TraceStatistics::from_trace(&trace, Encoding::Canonical);
    let expected = TraceStatsReport::from_stats(&local);

    // Cold: the server folds the stream and reports exact counts.
    let response = client.submit_stats_encoded(&bytes).unwrap();
    assert!(!response.cached);
    assert_eq!(response.report, expected);
    // The figures derived from the report match the local collector.
    assert_eq!(
        response.report.activation.value_sparsity(),
        local.sparsity.activation.value_sparsity()
    );
    for p in &response.report.phases {
        let l = &local.potential[p.phase.as_str()];
        assert_eq!(p.macs, l.macs);
        assert_eq!(p.potential_speedup(), l.potential_speedup());
    }

    // Warm: content-cached, bit-identical replay.
    let again = client.submit_stats_encoded(&bytes).unwrap();
    assert!(again.cached);
    assert_eq!(again.report, expected);

    // Indexed upload: accepted (footer drained and digest-verified),
    // different content digest → its own cache entry, same statistics.
    let indexed = encode_indexed(&trace, 2);
    let from_indexed = client.submit_stats_encoded(&indexed).unwrap();
    assert!(!from_indexed.cached);
    assert_eq!(from_indexed.report, expected);

    // Stats and simulation results of the same bytes do not collide in
    // the cache: a simulation of the plain bytes is still a cold miss.
    let sim = client.submit_encoded(&bytes, "fpraker").unwrap();
    assert!(!sim.cached);
}

#[test]
fn concurrent_clients_get_bit_identical_results_with_cache_hits() {
    let server = start_server(2);
    let addr = server.local_addr();
    let trace = Arc::new(test_trace(42, 4));
    let spec = "fpraker";
    let (_, cfg) = resolve_machine(spec).unwrap();
    let local = Engine::with_threads(1).run(Machine::FpRaker, &trace, &cfg);

    // Warm the cache with one submission, then hit it from 4 clients at
    // once.
    let warmup = Client::connect(addr)
        .unwrap()
        .submit_trace(&trace, spec)
        .unwrap();
    assert!(!warmup.cached, "first submission must simulate");
    assert_matches_local(&warmup.result, &local, spec);

    let mut handles = Vec::new();
    for _ in 0..4 {
        let trace = Arc::clone(&trace);
        handles.push(std::thread::spawn(move || {
            Client::connect(addr)
                .unwrap()
                .submit_trace(&trace, spec)
                .unwrap()
        }));
    }
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for response in &responses {
        assert_matches_local(&response.result, &local, spec);
        assert_eq!(
            response.result, warmup.result,
            "every client sees the same result"
        );
    }
    let hits = responses.iter().filter(|r| r.cached).count();
    assert!(hits >= 1, "concurrent resubmissions must hit the cache");
    assert!(server.cache_stats().hits >= 1);
    server.shutdown();
}

#[test]
fn cold_concurrent_clients_simulate_at_most_once_per_content() {
    // All 4 clients race on an empty cache: the job-pool double-check
    // means at most `jobs` simulations happen; the rest are served from
    // the cache — and everyone's results agree with Engine::run.
    let server = start_server(1);
    let addr = server.local_addr();
    let trace = Arc::new(test_trace(7, 3));
    let (_, cfg) = resolve_machine("fpraker").unwrap();
    let local = Engine::with_threads(1).run(Machine::FpRaker, &trace, &cfg);

    let mut handles = Vec::new();
    for _ in 0..4 {
        let trace = Arc::clone(&trace);
        handles.push(std::thread::spawn(move || {
            Client::connect(addr)
                .unwrap()
                .submit_trace(&trace, "fpraker")
                .unwrap()
        }));
    }
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for response in &responses {
        assert_matches_local(&response.result, &local, "fpraker");
    }
    assert_eq!(
        server.stats().jobs_completed,
        1,
        "one job slot + double-check = exactly one simulation"
    );
    server.shutdown();
}

#[test]
fn all_registry_machines_are_servable() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(11, 2);
    for spec in fpraker_sim::machine_names() {
        let (label, cfg) = resolve_machine(spec).unwrap();
        let local = Engine::with_threads(1).run(label, &trace, &cfg);
        let response = client.submit_trace(&trace, spec).unwrap();
        assert!(!response.cached, "distinct specs are distinct cache keys");
        assert_matches_local(&response.result, &local, spec);
    }
    assert_eq!(server.cache_stats().entries, 3);
    server.shutdown();
}

#[test]
fn served_results_match_the_streaming_engine_too() {
    // The server streams uploads through run_source; pin the equivalence
    // against both engine entry points.
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(13, 3);
    let (_, cfg) = resolve_machine("baseline").unwrap();
    let bytes = codec::encode(&trace);
    let streamed = Engine::with_threads(1)
        .run_source(
            Machine::Baseline,
            codec::Reader::new(&bytes[..]).unwrap(),
            &cfg,
        )
        .unwrap();
    let response = client.submit_encoded(&bytes, "baseline").unwrap();
    assert_matches_local(&response.result, &streamed.result, "baseline");
    assert_eq!(
        response.result.peak_resident_ops as usize,
        streamed.peak_resident_ops
    );
    server.shutdown();
}

#[test]
fn cache_hit_skips_the_upload_entirely() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(17, 2);
    client.submit_trace(&trace, "fpraker").unwrap();
    let before = server.stats().jobs_completed;
    let warm = client.submit_trace(&trace, "fpraker").unwrap();
    assert!(warm.cached);
    assert_eq!(server.stats().jobs_completed, before, "no new simulation");
    server.shutdown();
}

#[test]
fn stats_round_trip_over_the_wire() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(19, 2);
    client.submit_trace(&trace, "fpraker").unwrap();
    client.submit_trace(&trace, "fpraker").unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_completed, 1);
    // One cold job = exactly one miss (the post-permit re-check does not
    // double-count), one warm job = exactly one hit.
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats, server.stats());
    server.shutdown();
}

#[test]
fn metrics_round_trip_over_the_wire() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(23, 2);
    client.submit_trace(&trace, "fpraker").unwrap();
    client.submit_trace(&trace, "fpraker").unwrap();
    let text = client.metrics().unwrap();
    // The ServerStats counters are always present, telemetry on or off.
    assert!(text.contains("# TYPE serve_jobs_completed_total counter"));
    assert!(text.contains("serve_jobs_completed_total 1"));
    assert!(text.contains("serve_cache_hits_total 1"));
    assert!(text.contains("serve_cache_misses_total 1"));
    // The in-process accessor renders the same ServerStats counters
    // (gauges like active connections may legitimately differ between
    // the two render instants, so only the stable lines are compared).
    let local = server.metrics_text();
    assert!(local.contains("serve_jobs_completed_total 1"));
    assert!(local.contains("serve_cache_hits_total 1"));
    // Every line is either a comment or `name[{labels}] value`.
    for line in text.lines() {
        assert!(
            line.starts_with("# ") || line.split_whitespace().count() == 2,
            "unparseable metrics line: {line:?}"
        );
    }
    if fpraker_telemetry::compiled() {
        // The metrics connection itself counts, so ≥ 3 requests total.
        let requests = text
            .lines()
            .find_map(|l| l.strip_prefix("serve_requests_total "))
            .expect("serve_requests_total present")
            .parse::<u64>()
            .unwrap();
        assert!(requests >= 3, "requests_total = {requests}");
        // One cold sim request and one cache hit each landed a latency
        // sample in the labelled request histograms.
        assert!(text.contains("serve_request_seconds_count{job=\"sim\",cache=\"cold\"} 1"));
        assert!(text.contains("serve_request_seconds_count{job=\"sim\",cache=\"hit\"} 1"));
        // The cold simulation exercised the engine's fold stage.
        assert!(text.contains("sim_fold_seconds_count"));
    }
    server.shutdown();
}

#[test]
fn mixed_case_specs_share_one_cache_entry_and_report_the_canonical_name() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(43, 1);
    let cold = client.submit_trace(&trace, "FPRaker").unwrap();
    assert_eq!(cold.result.spec, "fpraker", "spec is canonicalized");
    let warm = client.submit_trace(&trace, " fpraker ").unwrap();
    assert!(warm.cached, "spellings of one spec share one cache entry");
    assert_eq!(warm.result, cold.result);
    server.shutdown();
}

#[test]
fn unknown_machine_spec_is_a_remote_error() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let err = client
        .submit_trace(&test_trace(23, 1), "tpu-v9")
        .unwrap_err();
    match err {
        ServeError::Remote(m) => assert!(m.contains("unknown machine spec"), "{m}"),
        other => panic!("expected remote error, got {other}"),
    }
    // The connection failure is isolated: the server still serves.
    assert!(
        !Client::connect(server.local_addr())
            .unwrap()
            .submit_trace(&test_trace(23, 1), "fpraker")
            .unwrap()
            .cached
    );
    server.shutdown();
}

/// After `breakage(stream)` ran against a raw connection, the server must
/// still complete a well-formed job on a fresh connection.
fn assert_server_survives(server: &Server, breakage: impl FnOnce(&mut TcpStream)) {
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    breakage(&mut raw);
    drop(raw);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(29, 1);
    let (_, cfg) = resolve_machine("fpraker").unwrap();
    let local = Engine::with_threads(1).run(Machine::FpRaker, &trace, &cfg);
    let response = client.submit_trace(&trace, "fpraker").unwrap();
    assert_matches_local(&response.result, &local, "fpraker");
}

#[test]
fn malformed_first_frame_leaves_the_server_accepting() {
    let server = start_server(1);
    assert_server_survives(&server, |raw| {
        raw.write_all(b"this is not a frame at all....").unwrap();
        let _ = raw.flush();
    });
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_rejected_cleanly() {
    let server = start_server(1);
    assert_server_survives(&server, |raw| {
        // Tag + a 4 GiB length prefix: must be refused before allocation.
        raw.write_all(&[tag::SUBMIT]).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let _ = raw.flush();
        // The server answers with an ERROR frame rather than hanging.
        let frame = fpraker_serve::protocol::read_frame(raw).unwrap();
        assert_eq!(frame.0, tag::ERROR);
        let msg = String::from_utf8_lossy(&frame.1).into_owned();
        assert!(msg.contains("length prefix"), "{msg}");
    });
    server.shutdown();
}

#[test]
fn mid_upload_disconnect_leaves_the_server_accepting() {
    let server = start_server(1);
    let trace = test_trace(31, 2);
    let bytes = codec::encode(&trace);
    assert_server_survives(&server, |raw| {
        let submit = Submit {
            spec: "fpraker".into(),
            digest: fpraker_trace::Fnv64::digest_of(&bytes),
            trace_bytes: bytes.len() as u64,
        };
        write_frame(raw, tag::SUBMIT, &submit.encode()).unwrap();
        raw.flush().unwrap();
        let (t, _) = fpraker_serve::protocol::read_frame(raw).unwrap();
        assert_eq!(t, tag::NEED_TRACE);
        // Send half the trace, then vanish.
        write_frame(raw, tag::TRACE_DATA, &bytes[..bytes.len() / 2]).unwrap();
        raw.flush().unwrap();
    });
    // The aborted upload must not have been cached.
    let client = Client::connect(server.local_addr()).unwrap();
    let response = client.submit_trace(&trace, "fpraker").unwrap();
    assert!(
        !response.cached,
        "truncated upload must not poison the cache"
    );
    server.shutdown();
}

#[test]
fn corrupt_trace_bytes_are_a_remote_error_and_not_cached() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    let trace = test_trace(37, 2);
    let mut bytes = codec::encode(&trace).to_vec();
    bytes[0] = b'X'; // break the trace codec magic
    let err = client.submit_encoded(&bytes, "fpraker").unwrap_err();
    match err {
        ServeError::Remote(m) => assert!(m.contains("trace"), "{m}"),
        other => panic!("expected remote error, got {other}"),
    }
    // A well-formed resubmission of the same content simulates fresh.
    let good = client
        .submit_encoded(&codec::encode(&trace), "fpraker")
        .unwrap();
    assert!(!good.cached);
    server.shutdown();
}

#[test]
fn digest_mismatch_is_rejected_and_not_cached() {
    let server = start_server(1);
    let trace = test_trace(41, 1);
    let bytes = codec::encode(&trace);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let submit = Submit {
        spec: "fpraker".into(),
        digest: 0x1234_5678_9ABC_DEF0, // wrong on purpose
        trace_bytes: bytes.len() as u64,
    };
    write_frame(&mut raw, tag::SUBMIT, &submit.encode()).unwrap();
    let (t, _) = fpraker_serve::protocol::read_frame(&mut raw).unwrap();
    assert_eq!(t, tag::NEED_TRACE);
    write_frame(&mut raw, tag::TRACE_DATA, &bytes).unwrap();
    write_frame(&mut raw, tag::TRACE_END, &[]).unwrap();
    raw.flush().unwrap();
    let (t, payload) = fpraker_serve::protocol::read_frame(&mut raw).unwrap();
    assert_eq!(t, tag::ERROR);
    let msg = String::from_utf8_lossy(&payload).into_owned();
    assert!(msg.contains("digest"), "{msg}");
    drop(raw);
    // The lie was not cached under the claimed digest.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut raw, tag::SUBMIT, &submit.encode()).unwrap();
    let (t, _) = fpraker_serve::protocol::read_frame(&mut raw).unwrap();
    assert_eq!(t, tag::NEED_TRACE, "claimed digest must still be a miss");
    server.shutdown();
}

#[test]
fn file_submissions_stream_the_same_result_as_in_memory_bytes() {
    let server = start_server(1);
    let client = Client::connect(server.local_addr()).unwrap();
    // Large enough to upload in more than one TRACE_CHUNK piece.
    let trace = test_trace(47, 160);
    let bytes = codec::encode(&trace).to_vec();
    assert!(bytes.len() > fpraker_serve::protocol::TRACE_CHUNK);
    let path = std::env::temp_dir().join(format!(
        "fpraker_serve_submit_file_{}.trace",
        std::process::id()
    ));
    std::fs::write(&path, &bytes).unwrap();

    // Cold from the file, then warm from the same bytes in memory.
    let from_file = client.submit_file(&path, "fpraker").unwrap();
    assert!(!from_file.cached);
    let (_, cfg) = resolve_machine("fpraker").unwrap();
    let local = Engine::with_threads(1).run(Machine::FpRaker, &trace, &cfg);
    assert_matches_local(&from_file.result, &local, "fpraker");
    let from_bytes = client.submit_encoded(&bytes, "fpraker").unwrap();
    assert!(from_bytes.cached, "file and bytes share one cache entry");
    assert_eq!(from_bytes.result, from_file.result);

    // The statistics job streams from disk the same way.
    let stats_from_file = client.submit_stats_file(&path).unwrap();
    assert!(!stats_from_file.cached);
    let stats_from_bytes = client.submit_stats_encoded(&bytes).unwrap();
    assert!(stats_from_bytes.cached);
    assert_eq!(stats_from_bytes.report, stats_from_file.report);
    assert_eq!(server.stats().jobs_completed, 2);
    std::fs::remove_file(&path).ok();
    server.shutdown();
}
