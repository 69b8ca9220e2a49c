//! `fpraker-shard` — fans an indexed trace file across a list of
//! `fpraker-served` workers and prints the merged result.
//!
//! ```text
//! fpraker-shard --trace FILE --workers ADDR[,ADDR...] [--machine NAME]
//!               [--shards N] [--attempts N] [--backoff-ms N] [--verify]
//! ```
//!
//! The trace is partitioned into at most `--shards` contiguous
//! segment-range jobs (default: one per worker), each submitted to a
//! distinct worker; failed workers are retried round-robin with doubling
//! backoff. The partial results are merged in global op order.
//! `--verify` also simulates the trace locally with
//! [`fpraker_sim::Engine::run`] and exits non-zero unless the merged
//! result is bit-identical — energy compared to the last mantissa bit —
//! which is the distributed determinism check CI runs. An unindexed
//! trace degrades to a single whole-trace shard on the first worker.

use std::process::exit;

use fpraker_energy::EnergyModel;
use fpraker_serve::shard::{ShardCoordinator, ShardPlan};
use fpraker_sim::{resolve_machine, Engine};
use fpraker_trace::codec;

fn usage() -> ! {
    eprintln!(
        "usage: fpraker-shard --trace FILE --workers ADDR[,ADDR...] \
         [--machine NAME] [--shards N] [--attempts N] [--backoff-ms N] [--verify]"
    );
    exit(2);
}

fn main() {
    let mut trace_path: Option<String> = None;
    let mut workers: Vec<String> = Vec::new();
    let mut machine = "fpraker".to_string();
    let mut shards: Option<usize> = None;
    let mut attempts = 4usize;
    let mut backoff_ms = 50u64;
    let mut verify = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--workers" => {
                workers = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--machine" => machine = args.next().unwrap_or_else(|| usage()),
            "--shards" => {
                shards = args.next().and_then(|v| v.parse().ok());
                if shards.is_none() {
                    usage();
                }
            }
            "--attempts" => {
                attempts = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--backoff-ms" => {
                backoff_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--verify" => verify = true,
            _ => usage(),
        }
    }
    let Some(trace_path) = trace_path else {
        usage()
    };
    if workers.is_empty() {
        usage();
    }

    let max_shards = shards.unwrap_or(workers.len()).max(1);
    let plan = ShardPlan::from_file(&trace_path, max_shards).unwrap_or_else(|e| {
        eprintln!("cannot plan {trace_path}: {e}");
        exit(1);
    });
    if !plan.is_indexed() && max_shards > 1 {
        eprintln!(
            "note: {trace_path} carries no usable index; running as a single \
             whole-trace shard (re-encode with --index to shard it)"
        );
    }
    let coord = ShardCoordinator::new(workers.clone())
        .max_attempts(attempts)
        .backoff(std::time::Duration::from_millis(backoff_ms));
    let run = coord.run(&plan, &machine).unwrap_or_else(|e| {
        eprintln!("sharded run failed: {e}");
        exit(1);
    });

    let r = &run.result;
    println!(
        "{} on {} across {} worker(s), {} shard(s): {} ops, {} cycles \
         ({} compute), {} MACs, {:.1} pJ",
        trace_path,
        r.spec,
        workers.len(),
        run.shards.len(),
        r.ops.len(),
        r.cycles,
        r.compute_cycles,
        r.macs,
        r.energy_pj,
    );
    for o in &run.shards {
        println!(
            "  shard {}: ops {}..{} on worker {} ({} attempt(s){})",
            o.shard,
            o.range.first_op,
            o.range.first_op + o.range.ops,
            workers[o.worker],
            o.attempts,
            if o.cached { ", cached" } else { "" }
        );
    }

    if verify {
        let bytes = std::fs::read(&trace_path).unwrap_or_else(|e| {
            eprintln!("cannot read {trace_path}: {e}");
            exit(1);
        });
        let trace = codec::decode(&bytes).unwrap_or_else(|e| {
            eprintln!("cannot decode {trace_path}: {e}");
            exit(1);
        });
        let Some((label, cfg)) = resolve_machine(&machine) else {
            eprintln!("unknown machine {machine:?}");
            exit(1);
        };
        let local = Engine::new().run(label, &trace, &cfg);
        let model = EnergyModel::paper();
        let local_energy = label.energy(&model, &local.counts()).total_pj();
        let mut mismatches = 0u32;
        if local.ops.len() != r.ops.len() {
            eprintln!(
                "verify: merged result has {} ops, local run has {}",
                r.ops.len(),
                local.ops.len()
            );
            mismatches += 1;
        }
        for (i, (ours, theirs)) in local.ops.iter().zip(&r.ops).enumerate() {
            if ours.cycles != theirs.cycles
                || ours.compute_cycles != theirs.compute_cycles
                || ours.macs != theirs.macs
                || ours.counts != theirs.counts
            {
                eprintln!("verify: op {i} differs between local and merged runs");
                mismatches += 1;
            }
        }
        if local.cycles() != r.cycles
            || local.compute_cycles() != r.compute_cycles
            || local.macs() != r.macs
            || local.golden_failures() != r.golden_failures
        {
            eprintln!("verify: run summary differs");
            mismatches += 1;
        }
        if local_energy.to_bits() != r.energy_pj.to_bits() {
            eprintln!(
                "verify: energy differs in the bits (local {local_energy} vs merged {})",
                r.energy_pj
            );
            mismatches += 1;
        }
        if mismatches > 0 {
            eprintln!("verify FAILED: {mismatches} mismatch(es)");
            exit(1);
        }
        println!("verify OK: merged result bit-identical to a local Engine::run");
    }
}
