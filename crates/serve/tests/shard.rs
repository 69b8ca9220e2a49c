//! End-to-end tests of the distributed shard coordinator: a trace fanned
//! across real worker servers must merge **bit-identically** to a local
//! `Engine::run` — at 1, 2 and 4 workers, under injected worker failure
//! (connection refused, killed mid-shard, dropped mid-upload, corrupted
//! partial results), through retry and re-assignment, and with retried
//! shards answered from the content-addressed cache.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use fpraker_energy::EnergyModel;
use fpraker_num::reference::SplitMix64;
use fpraker_num::Bf16;
use fpraker_serve::protocol::{decode_result, encode_result, read_frame, tag, write_frame};
use fpraker_serve::shard::{merge_job_results, ShardCoordinator, ShardError, ShardPlan};
use fpraker_serve::{Client, Server, ServerConfig};
use fpraker_sim::{resolve_machine, AcceleratorConfig, Engine, Machine, RunResult};
use fpraker_trace::{codec, Phase, TensorKind, Trace, TraceOp};
use proptest::prelude::*;

/// A small deterministic multi-op trace (fast enough to simulate many
/// times in one test run).
fn test_trace(seed: u64, ops: usize) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let mut tr = Trace::new(format!("shard-test-{seed}"), 50);
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

fn start_worker() -> Server {
    Server::start(ServerConfig {
        jobs: 1,
        threads_per_job: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback")
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

/// Asserts the merged result is bit-identical to a local `Engine::run` —
/// totals, energy to the mantissa bit, and every per-op report
/// (`peak_resident_ops` is intentionally excluded: residency is a
/// per-worker property, not a merged invariant).
fn assert_merged_matches_local(result: &fpraker_serve::JobResult, local: &RunResult, spec: &str) {
    assert_eq!(result.spec, spec);
    assert_eq!(result.cycles, local.cycles());
    assert_eq!(result.compute_cycles, local.compute_cycles());
    assert_eq!(result.macs, local.macs());
    assert_eq!(result.golden_failures, local.golden_failures());
    assert_eq!(result.ops.len(), local.ops.len());
    let model = EnergyModel::paper();
    let energy = |counts| local.machine.energy(&model, counts).total_pj();
    let total_counts = local.counts();
    assert_eq!(
        result.energy_pj.to_bits(),
        energy(&total_counts).to_bits(),
        "merged energy must match local to the bit"
    );
    for (i, (merged, ours)) in result.ops.iter().zip(&local.ops).enumerate() {
        assert_eq!(merged.phase, ours.phase, "op {i}");
        assert_eq!(merged.cycles, ours.cycles, "op {i}");
        assert_eq!(merged.compute_cycles, ours.compute_cycles, "op {i}");
        assert_eq!(merged.macs, ours.macs, "op {i}");
        assert_eq!(merged.counts, ours.counts, "op {i}");
        assert_eq!(merged.golden_failures, ours.golden_failures, "op {i}");
        assert_eq!(
            merged.energy_pj.to_bits(),
            energy(&ours.counts).to_bits(),
            "op {i}"
        );
    }
}

fn local_run(tr: &Trace, spec: &str) -> RunResult {
    let (machine, cfg) = resolve_machine(spec).unwrap();
    Engine::with_threads(1).run(machine, tr, &cfg)
}

// ---------------------------------------------------------------------
// Fault-injection workers: each is a loopback listener whose every
// connection fails in one scripted way — a stand-in for a worker process
// that is dead, dies mid-shard, or returns corrupted data.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Fault {
    /// Accept, then close immediately (worker killed before the job).
    DropOnAccept,
    /// Ask for the trace, read one upload frame, then close (connection
    /// dropped mid-upload).
    DropMidUpload,
    /// Ask for the trace, consume the entire upload, then close without
    /// answering (worker killed mid-shard, after the work was sent).
    DieAfterUpload,
    /// Answer the submission with a RESULT frame of garbage bytes (a
    /// corrupted partial result that fails to decode).
    GarbageResult,
    /// Answer with a *decodable but wrong* result: a valid empty run,
    /// whose op count cannot match any non-empty shard.
    WrongResult,
}

/// Starts a fault worker; the listener thread serves every connection
/// with the same scripted failure until the test process exits.
fn fault_worker(fault: Fault) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            match fault {
                Fault::DropOnAccept => drop(stream),
                Fault::DropMidUpload => {
                    let _ = read_frame(&mut stream); // SUBMIT_RANGE
                    let _ = write_frame(&mut stream, tag::NEED_TRACE, &[]);
                    let _ = read_frame(&mut stream); // first TRACE_DATA
                    drop(stream);
                }
                Fault::DieAfterUpload => {
                    let _ = read_frame(&mut stream);
                    let _ = write_frame(&mut stream, tag::NEED_TRACE, &[]);
                    while let Ok((frame_tag, _)) = read_frame(&mut stream) {
                        if frame_tag == tag::TRACE_END {
                            break;
                        }
                    }
                    drop(stream); // dies without a RESULT
                }
                Fault::GarbageResult => {
                    let _ = read_frame(&mut stream);
                    // cached=0 then bytes that cannot decode as a result.
                    let _ = write_frame(&mut stream, tag::RESULT, &[0, 0xDE, 0xAD, 0xBE]);
                }
                Fault::WrongResult => {
                    let _ = read_frame(&mut stream);
                    let empty = Engine::with_threads(1).run(
                        Machine::FpRaker,
                        &Trace::new("empty", 0),
                        &AcceleratorConfig::fpraker_paper(),
                    );
                    let payload = encode_result("fpraker", &empty, 0, &EnergyModel::paper());
                    let mut framed = vec![0u8];
                    framed.extend_from_slice(&payload);
                    let _ = write_frame(&mut stream, tag::RESULT, &framed);
                }
            }
        }
    });
    addr
}

/// A dead address: bound, resolved, then released — connecting is refused.
fn dead_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

fn coordinator(workers: Vec<String>) -> ShardCoordinator {
    ShardCoordinator::new(workers)
        .max_attempts(4)
        .backoff(Duration::from_millis(5))
}

// ---------------------------------------------------------------------
// The tentpole: sharded runs bit-equal the local run at 1, 2, 4 workers.
// ---------------------------------------------------------------------

#[test]
fn sharded_runs_merge_bit_identically_at_1_2_and_4_workers() {
    let trace = test_trace(0xFA4, 12);
    let bytes = encode_indexed(&trace, 1);
    let spec = "fpraker";
    let local = local_run(&trace, spec);

    for n in [1usize, 2, 4] {
        let servers: Vec<Server> = (0..n).map(|_| start_worker()).collect();
        let workers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let plan = ShardPlan::from_bytes(bytes.clone(), n).unwrap();
        assert!(plan.ranges().len() <= n);
        let run = coordinator(workers).run(&plan, spec).unwrap();
        assert_merged_matches_local(&run.result, &local, spec);
        assert_eq!(run.shards.len(), plan.ranges().len());
        assert!(run.shards.iter().all(|o| o.attempts == 1 && !o.cached));
        // With a full-width plan every shard lands on a distinct worker.
        if plan.ranges().len() == n {
            let mut used: Vec<usize> = run.shards.iter().map(|o| o.worker).collect();
            used.sort_unstable();
            used.dedup();
            assert_eq!(used.len(), n, "one shard per worker");
        }
    }
}

#[test]
fn sharded_run_from_a_file_matches_local_and_both_machines() {
    let trace = test_trace(0xF11E, 9);
    let path = std::env::temp_dir().join(format!("fpraker_shard_e2e_{}.trace", std::process::id()));
    std::fs::write(&path, encode_indexed(&trace, 2)).unwrap();

    let servers = [start_worker(), start_worker()];
    let workers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    for spec in ["fpraker", "baseline"] {
        let plan = ShardPlan::from_file(&path, 2).unwrap();
        assert!(plan.is_indexed());
        let run = coordinator(workers.clone()).run(&plan, spec).unwrap();
        assert_merged_matches_local(&run.result, &local_run(&trace, spec), spec);
    }
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Fault injection: every scripted failure recovers via retry and still
// merges bit-identically.
// ---------------------------------------------------------------------

#[test]
fn injected_worker_faults_recover_via_retry_with_bit_identical_merges() {
    let trace = test_trace(0xBAD, 8);
    let bytes = encode_indexed(&trace, 1);
    let spec = "fpraker";
    let local = local_run(&trace, spec);

    type FaultFactory = fn() -> String;
    let faults: [(&str, FaultFactory); 5] = [
        ("connection refused", dead_worker as FaultFactory),
        ("killed before the job", || {
            fault_worker(Fault::DropOnAccept)
        }),
        ("dropped mid-upload", || fault_worker(Fault::DropMidUpload)),
        ("killed mid-shard", || fault_worker(Fault::DieAfterUpload)),
        ("corrupt result payload", || {
            fault_worker(Fault::GarbageResult)
        }),
    ];
    for (what, make_fault) in faults {
        let healthy = start_worker();
        // The faulty worker is first in the list, so shard 0's first
        // attempt always hits it and must be re-assigned.
        let workers = vec![make_fault(), healthy.local_addr().to_string()];
        let plan = ShardPlan::from_bytes(bytes.clone(), 2).unwrap();
        assert_eq!(plan.ranges().len(), 2, "{what}");
        let run = coordinator(workers).run(&plan, spec).unwrap();
        assert_merged_matches_local(&run.result, &local, spec);
        let shard0 = &run.shards[0];
        assert!(shard0.attempts > 1, "{what}: shard 0 must have retried");
        assert_eq!(shard0.worker, 1, "{what}: shard 0 re-assigned");
    }
}

#[test]
fn decodable_but_mislabeled_partial_is_rejected_and_retried() {
    let trace = test_trace(0x11AB, 6);
    let bytes = encode_indexed(&trace, 1);
    let spec = "fpraker";
    let healthy = start_worker();
    let workers = vec![
        fault_worker(Fault::WrongResult),
        healthy.local_addr().to_string(),
    ];
    let plan = ShardPlan::from_bytes(bytes, 2).unwrap();
    let run = coordinator(workers).run(&plan, spec).unwrap();
    assert_merged_matches_local(&run.result, &local_run(&trace, spec), spec);
    assert!(run.shards[0].attempts > 1);
}

#[test]
fn all_workers_dead_exhausts_the_attempt_budget_with_a_clear_error() {
    let trace = test_trace(3, 4);
    let plan = ShardPlan::from_bytes(encode_indexed(&trace, 1), 2).unwrap();
    let coord = ShardCoordinator::new(vec![dead_worker(), dead_worker()])
        .max_attempts(2)
        .backoff(Duration::from_millis(1));
    match coord.run(&plan, "fpraker") {
        Err(ShardError::Exhausted { attempts, .. }) => assert_eq!(attempts, 2),
        other => panic!("expected exhaustion, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Cache behavior: a retried shard is a warm hit; racing duplicates of
// the same shard simulate at most once (the 1-permit pattern).
// ---------------------------------------------------------------------

#[test]
fn a_rerun_sharded_job_is_answered_entirely_from_the_cache() {
    let trace = test_trace(0xCAC4E, 8);
    let bytes = encode_indexed(&trace, 1);
    let spec = "fpraker";
    let server = start_worker();
    let workers = vec![server.local_addr().to_string()];
    let plan = ShardPlan::from_bytes(bytes, 4).unwrap();
    // One worker, several shards: all shards land on it.
    let cold = coordinator(workers.clone()).run(&plan, spec).unwrap();
    assert!(cold.shards.iter().all(|o| !o.cached));
    let simulated = server.stats().jobs_completed;
    assert_eq!(simulated, plan.ranges().len() as u64);

    // Re-running the identical plan — what a coordinator retrying after
    // a partial failure effectively does — must be pure cache hits.
    let warm = coordinator(workers).run(&plan, spec).unwrap();
    assert!(warm.shards.iter().all(|o| o.cached));
    assert_eq!(server.stats().jobs_completed, simulated, "no re-simulation");
    assert_eq!(warm.result, cold.result, "cached merge is bit-identical");
}

#[test]
fn racing_duplicate_shard_submissions_simulate_at_most_once() {
    // Extends the 1-permit exactly-once pattern to range jobs: two
    // clients race the same shard at a jobs=1 server; the second must be
    // answered from the cache re-check, not simulated again.
    let trace = test_trace(0xD0C, 6);
    let plan = ShardPlan::from_bytes(encode_indexed(&trace, 1), 2).unwrap();
    let shard0: Arc<[u8]> = plan.extract(0).unwrap().into();
    let range = plan.ranges()[0];
    let server = start_worker();
    let addr = server.local_addr();

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shard0 = Arc::clone(&shard0);
                scope.spawn(move || {
                    Client::connect(addr).unwrap().submit_range_encoded(
                        &shard0,
                        "fpraker",
                        u64::from(range.first_op),
                        u64::from(range.ops),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok: Vec<_> = results.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(server.stats().jobs_completed, 1, "exactly one simulation");
    assert!(ok.iter().filter(|r| r.cached).count() >= 3);
    for r in &ok[1..] {
        assert_eq!(r.result, ok[0].result, "replays are bit-identical");
    }
}

#[test]
fn identical_shard_content_shares_one_cache_entry_wherever_it_sits() {
    // Two traces whose op ranges produce byte-identical sub-traces: the
    // shard is simulated once, the second submission is a warm hit even
    // though it arrived under a different global range label.
    let trace = test_trace(0x51B, 4);
    let plan = ShardPlan::from_bytes(encode_indexed(&trace, 1), 4).unwrap();
    let server = start_worker();
    let client = Client::connect(server.local_addr()).unwrap();
    let shard = plan.extract(1).unwrap();
    let r = plan.ranges()[1];
    let cold = client
        .submit_range_encoded(&shard, "fpraker", u64::from(r.first_op), u64::from(r.ops))
        .unwrap();
    assert!(!cold.cached);
    // Same bytes, different claimed position: content-addressed, so it
    // hits — and the op-count check still held at simulation time.
    let warm = client
        .submit_range_encoded(&shard, "fpraker", 40, u64::from(r.ops))
        .unwrap();
    assert!(warm.cached);
    assert_eq!(warm.result, cold.result);
    assert_eq!(server.stats().jobs_completed, 1);
}

#[test]
fn range_submission_with_a_lying_op_count_is_rejected() {
    let trace = test_trace(0x0C7, 5);
    let plan = ShardPlan::from_bytes(encode_indexed(&trace, 1), 2).unwrap();
    let shard = plan.extract(0).unwrap();
    let r = plan.ranges()[0];
    let server = start_worker();
    let client = Client::connect(server.local_addr()).unwrap();
    let err = client
        .submit_range_encoded(&shard, "fpraker", 0, u64::from(r.ops) + 1)
        .unwrap_err();
    assert!(err.to_string().contains("ops"), "{err}");
    // The failed job neither cached nor counted.
    assert_eq!(server.stats().jobs_completed, 0);
    // The server still serves; a truthful submission succeeds.
    let ok = client
        .submit_range_encoded(&shard, "fpraker", 0, u64::from(r.ops))
        .unwrap();
    assert!(!ok.cached);
}

// ---------------------------------------------------------------------
// Degenerate plans through the full coordinator path.
// ---------------------------------------------------------------------

#[test]
fn more_workers_than_segments_leaves_spare_workers_idle() {
    let trace = test_trace(0x1D1E, 2); // stride 1 → 2 segments max
    let bytes = encode_indexed(&trace, 1);
    let servers: Vec<Server> = (0..4).map(|_| start_worker()).collect();
    let workers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let plan = ShardPlan::from_bytes(bytes, 4).unwrap();
    assert!(plan.ranges().len() <= 2);
    let run = coordinator(workers).run(&plan, "fpraker").unwrap();
    assert_merged_matches_local(&run.result, &local_run(&trace, "fpraker"), "fpraker");
}

#[test]
fn single_segment_trace_with_many_workers_runs_as_one_shard() {
    let trace = test_trace(0x151, 4);
    let bytes = encode_indexed(&trace, 4); // one index entry → one segment
    let servers = [start_worker(), start_worker(), start_worker()];
    let workers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let plan = ShardPlan::from_bytes(bytes, 3).unwrap();
    assert_eq!(plan.ranges().len(), 1);
    let run = coordinator(workers).run(&plan, "fpraker").unwrap();
    assert_eq!(run.shards.len(), 1);
    assert_merged_matches_local(&run.result, &local_run(&trace, "fpraker"), "fpraker");
}

#[test]
fn unindexed_trace_falls_back_to_a_single_whole_trace_shard() {
    let trace = test_trace(0x0F00, 6);
    let plain = codec::encode(&trace).to_vec();
    let servers = [start_worker(), start_worker()];
    let workers: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let plan = ShardPlan::from_bytes(plain.clone(), 2).unwrap();
    assert!(!plan.is_indexed());
    assert_eq!(plan.ranges().len(), 1);
    let run = coordinator(workers).run(&plan, "fpraker").unwrap();
    assert_merged_matches_local(&run.result, &local_run(&trace, "fpraker"), "fpraker");
    // The whole-trace shard is the original bytes, so a plain submission
    // of the same trace to the same worker is a cache hit.
    let warm = Client::connect(servers[run.shards[0].worker].local_addr())
        .unwrap()
        .submit_encoded(&plain, "fpraker")
        .unwrap();
    assert!(warm.cached);
}

#[test]
fn empty_trace_shards_and_merges() {
    let trace = Trace::new("empty", 0);
    let server = start_worker();
    let plan = ShardPlan::from_bytes(codec::encode(&trace).to_vec(), 2).unwrap();
    assert_eq!(plan.ranges().len(), 1);
    let run = coordinator(vec![server.local_addr().to_string()])
        .run(&plan, "fpraker")
        .unwrap();
    assert_eq!(run.result.ops.len(), 0);
    assert_eq!(run.result.cycles, 0);
}

// ---------------------------------------------------------------------
// Wire-level merge proptest: random traces × random partitions ×
// shuffled completion order, folded through the same encode → decode →
// merge path the coordinator uses — no sockets, so the case count can
// stay high without spinning servers.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn wire_merge_bit_equals_the_unsharded_payload(
        ops in 2usize..10,
        parts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let trace = test_trace(seed, ops);
        let spec = "fpraker";
        let (machine, cfg) = resolve_machine(spec).unwrap();
        let engine = Engine::with_threads(1);
        let whole = engine.run(machine, &trace, &cfg);
        let model = EnergyModel::paper();
        let golden = decode_result(&encode_result(spec, &whole, 0, &model)).unwrap();

        // Random contiguous partition.
        let mut rng = SplitMix64::new(seed ^ 0x5A4D);
        let mut cuts: Vec<usize> = (0..parts - 1)
            .map(|_| 1 + (rng.next_u64() as usize) % (ops - 1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(ops);

        // Each partial goes through the real wire encoding, as served.
        let mut partials: Vec<(u64, fpraker_serve::JobResult)> = bounds
            .windows(2)
            .map(|w| {
                let mut sub = Trace::new(&trace.model, trace.progress_pct);
                sub.ops = trace.ops[w[0]..w[1]].to_vec();
                let run = engine.run(machine, &sub, &cfg);
                let payload = encode_result(spec, &run, 0, &model);
                (w[0] as u64, decode_result(&payload).unwrap())
            })
            .collect();
        for i in (1..partials.len()).rev() {
            let j = (rng.next_u64() as usize) % (i + 1);
            partials.swap(i, j);
        }

        let merged = merge_job_results(partials).unwrap();
        prop_assert_eq!(merged.cycles, golden.cycles);
        prop_assert_eq!(merged.compute_cycles, golden.compute_cycles);
        prop_assert_eq!(merged.macs, golden.macs);
        prop_assert_eq!(merged.golden_failures, golden.golden_failures);
        prop_assert_eq!(
            merged.energy_pj.to_bits(),
            golden.energy_pj.to_bits(),
            "energy must merge bit-exactly"
        );
        prop_assert_eq!(merged.ops.len(), golden.ops.len());
        for (m, g) in merged.ops.iter().zip(&golden.ops) {
            prop_assert_eq!(m.phase, g.phase);
            prop_assert_eq!(m.cycles, g.cycles);
            prop_assert_eq!(m.energy_pj.to_bits(), g.energy_pj.to_bits());
            prop_assert_eq!(&m.counts, &g.counts);
        }
    }
}
