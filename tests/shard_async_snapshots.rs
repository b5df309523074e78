//! PR 5 tentpole suite: **off-barrier snapshots** — copy-on-write capture at
//! the barrier, background encoding interleaved with batch work, and
//! sealed-epoch recovery gating.
//!
//! * The epoch barrier's critical path contains **no snapshot encoding**:
//!   every post-baseline snapshot byte is encoded off-barrier
//!   (`report.encode_off_barrier_bytes` equals `report.snapshot_bytes`),
//!   while the barrier itself pays only the capture walk
//!   (`report.barrier_capture_ns`).
//! * A crash injected **between barrier ack and background-encode
//!   completion** (`FailureMode::MidEncode`) must discard the pending epoch
//!   wholesale and recover to the last *sealed* epoch — pinned exactly via
//!   `report.recovery_epochs` — and still replay to the bit-for-bit healthy
//!   outcome: nothing lost, nothing double-applied.
//! * Amortized compaction holds under async arrival: every sealed epoch
//!   leaves recovery chains at full + ≤ 1 merged delta
//!   (`report.max_delta_chain == 1`) with folds actually happening
//!   (`report.snapshots_compacted > 0`).
//! * Background encoding, pipelined batches and precise footprints together
//!   stay oracle-equivalent — they change schedules and byte timing, never
//!   results.

use shard_runtime::{FailurePlan, ShardConfig, ShardRuntime};
use stateful_entities::{Key, MethodCall, Value};
use workloads::{account_init_args, account_program};

const ACCOUNTS: usize = 12;

fn runtime(config: ShardConfig) -> ShardRuntime {
    let program = account_program();
    let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    rt
}

fn oracle_outcomes(calls: &[MethodCall]) -> Vec<Result<Value, String>> {
    let program = account_program();
    let mut oracle = program.local_runtime();
    for i in 0..ACCOUNTS {
        oracle.create("Account", &account_init_args(i, 16)).unwrap();
    }
    calls
        .iter()
        .map(|c| oracle.call_resolved(c.clone()).map_err(|e| e.message))
        .collect()
}

/// A mixed workload with plenty of writes (so deltas are non-trivial).
fn mixed_calls(n: u64) -> Vec<MethodCall> {
    let program = account_program();
    (0..n)
        .map(|i| {
            let key = Key::Str(format!("acc{}", i as usize % ACCOUNTS).into());
            match i % 4 {
                0 => program
                    .ir
                    .resolve_call("Account", key, "read", vec![])
                    .unwrap(),
                1 | 2 => program
                    .ir
                    .resolve_call("Account", key, "update", vec![Value::Int(i as i64)])
                    .unwrap(),
                _ => {
                    let to = Value::entity_ref(
                        "Account",
                        Key::Str(format!("acc{}", (i as usize + 5) % ACCOUNTS).into()),
                    );
                    program
                        .ir
                        .resolve_call("Account", key, "transfer", vec![Value::Int(3), to])
                        .unwrap()
                }
            }
        })
        .collect()
}

fn run(
    config: ShardConfig,
    calls: &[MethodCall],
) -> (shard_runtime::ShardReport, Vec<Result<Value, String>>) {
    let mut rt = runtime(config);
    let ids: Vec<u64> = calls.iter().map(|c| rt.submit(c.clone()).0).collect();
    let report = rt.run().unwrap();
    let out = ids
        .iter()
        .map(|id| match report.responses.get(id) {
            Some(v) => Ok(v.clone()),
            None => Err(report.errors[id].clone()),
        })
        .collect();
    (report, out)
}

#[test]
fn barrier_critical_path_contains_no_encoding() {
    let calls = mixed_calls(120);
    let oracle = oracle_outcomes(&calls);
    let config = ShardConfig {
        batch_size: 8,
        epoch_every_batches: 3,
        ..ShardConfig::with_shards(3)
    };

    let (report, out) = run(config, &calls);
    assert_eq!(out, oracle);
    assert!(report.epochs_completed >= 3, "cadence sanity");
    assert!(report.snapshot_bytes > 0, "epochs must actually snapshot");
    // Every post-baseline byte was encoded OUTSIDE the barrier — the
    // barrier paid only the capture walk.
    assert_eq!(
        report.encode_off_barrier_bytes, report.snapshot_bytes,
        "the barrier must encode nothing"
    );
    assert!(report.barrier_capture_ns > 0, "the capture walk is timed");
}

#[test]
fn mid_encode_crash_falls_back_to_the_last_sealed_epoch() {
    let calls = mixed_calls(120);
    let config = ShardConfig {
        batch_size: 8,
        epoch_every_batches: 2,
        ..ShardConfig::with_shards(3)
    };

    let mut healthy = runtime(config.clone());
    for c in &calls {
        healthy.submit(c.clone());
    }
    let healthy_report = healthy.run().unwrap();

    // Crash at the FIRST barrier: epoch 1's capture is acked but unsealed,
    // so the only sealed epoch is the 0 baseline — recovery must land there,
    // not on the half-materialized epoch 1.
    let mut failed = runtime(config.clone());
    for c in &calls {
        failed.submit(c.clone());
    }
    let report = failed
        .run_with_failure(FailurePlan::mid_encode(1, 0))
        .unwrap();
    assert_eq!(report.recoveries, 1);
    assert_eq!(
        report.recovery_epochs,
        vec![0],
        "the pending epoch must not be a recovery point"
    );
    assert_eq!(report.responses, healthy_report.responses);
    assert_eq!(report.errors, healthy_report.errors);
    assert_eq!(failed.final_states(), healthy.final_states());

    // Later barriers, rotating victims: recovery always lands on an epoch
    // strictly below the one whose bytes were in flight, and the replayed
    // outcome stays bit-for-bit healthy (nothing lost, nothing doubled).
    for (after_batch, victim) in [(5, 1), (9, 2), (12, 0)] {
        let mut failed = runtime(config.clone());
        for c in &calls {
            failed.submit(c.clone());
        }
        let report = failed
            .run_with_failure(FailurePlan::mid_encode(after_batch, victim))
            .unwrap();
        assert_eq!(report.recoveries, 1, "batch {after_batch}");
        let recovered_to = report.recovery_epochs[0];
        assert!(
            recovered_to < report.epochs_completed + 2,
            "sanity: {recovered_to} is a real epoch"
        );
        assert_eq!(
            report.responses, healthy_report.responses,
            "batch {after_batch}, victim {victim}: responses diverged"
        );
        assert_eq!(failed.final_states(), healthy.final_states());
    }
}

#[test]
fn mid_encode_crash_recovers_through_a_folded_merged_delta() {
    // Epoch per batch: between rebases the recovery image at the crash is
    // a full anchor + the decoded merged delta, under async arrival.
    let calls = mixed_calls(160);
    let config = ShardConfig {
        batch_size: 4,
        epoch_every_batches: 1,
        ..ShardConfig::with_shards(3)
    };
    let mut healthy = runtime(config.clone());
    let mut failed = runtime(config.clone());
    for c in &calls {
        healthy.submit(c.clone());
        failed.submit(c.clone());
    }
    let healthy_report = healthy.run().unwrap();
    assert_eq!(healthy_report.max_delta_chain, 1);

    let report = failed
        .run_with_failure(FailurePlan::mid_encode(20, 1))
        .unwrap();
    assert_eq!(report.recoveries, 1);
    assert!(
        report.recovery_epochs[0] > 0,
        "a late crash must roll back onto a folded chain, not the baseline"
    );
    assert_eq!(report.responses, healthy_report.responses);
    assert_eq!(failed.final_states(), healthy.final_states());
}

#[test]
fn amortized_compaction_invariant_holds_under_async_sealing() {
    let calls = mixed_calls(160);
    let (report, out) = run(
        ShardConfig {
            batch_size: 4,
            epoch_every_batches: 1,
            ..ShardConfig::with_shards(3)
        },
        &calls,
    );
    assert_eq!(out, oracle_outcomes(&calls));
    assert!(report.epochs_completed >= 10);
    assert!(
        report.snapshots_compacted > 0,
        "folds must happen at this cadence"
    );
    assert_eq!(
        report.max_delta_chain, 1,
        "every sealed epoch leaves full + ≤1 merged delta"
    );
}

#[test]
fn all_snapshot_pipeline_footprint_knobs_stay_oracle_equivalent() {
    let calls = mixed_calls(90);
    let oracle = oracle_outcomes(&calls);
    let (_, out) = run(
        ShardConfig {
            batch_size: 7,
            epoch_every_batches: 4,
            ..ShardConfig::with_shards(4)
        },
        &calls,
    );
    assert_eq!(out, oracle);
}

#[test]
fn background_snapshots_are_deterministic_across_repetitions() {
    // Byte arrival timing is scheduling-dependent; results must not be.
    let calls = mixed_calls(100);
    let config = ShardConfig {
        batch_size: 6,
        epoch_every_batches: 2,
        ..ShardConfig::with_shards(4)
    };
    let (first_report, first_out) = run(config.clone(), &calls);
    for rep in 0..3 {
        let (report, out) = run(config.clone(), &calls);
        assert_eq!(out, first_out, "rep {rep}: responses diverged");
        assert_eq!(
            report.responses, first_report.responses,
            "rep {rep}: egress diverged"
        );
    }
}
