//! PR 4 tentpole suite: pipelined conflict-aware batches with precise
//! (two-kind) footprints, plus the coordinator-liveness and snapshot-chain
//! bugfixes that ride along.
//!
//! * A hot-key **read storm** commits in ONE batch (read-read pairs no
//!   longer conflict), while an interleaved writer still splits the storm
//!   into arrival order — verified bit-for-bit against the sequential
//!   `LocalRuntime` oracle.
//! * Disjoint batches **overlap**: batch `k+1` dispatches while batch `k`
//!   is still in flight (`report.pipelined_batches > 0`), without changing
//!   any outcome.
//! * Crash recovery fires **while two batches are in flight** and the
//!   replayed run still equals the healthy one exactly-once.
//! * Post-barrier **compaction** bounds every recovery chain at one full
//!   plus at most one merged delta, however long the chain runs before the
//!   next rebase.
//! * Mixed read/update/transfer traffic stays oracle-equivalent — pipelining
//!   and precise footprints change schedules, never results.

use shard_runtime::{FailurePlan, ShardConfig, ShardError};
use stateful_entities::{Key, MethodCall, Value};
use workloads::{account_init_args, account_program};

const ACCOUNTS: usize = 12;

fn runtime(config: ShardConfig) -> shard_runtime::ShardRuntime {
    let program = account_program();
    let mut rt =
        shard_runtime::ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    rt
}

/// Run `calls` through the sequential oracle.
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

fn run_and_compare(
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

fn read_call(ir: &stateful_entities::DataflowIR, key: &str) -> MethodCall {
    ir.resolve_call("Account", Key::Str(key.into()), "read", vec![])
        .unwrap()
}

fn update_call(ir: &stateful_entities::DataflowIR, key: &str, value: i64) -> MethodCall {
    ir.resolve_call(
        "Account",
        Key::Str(key.into()),
        "update",
        vec![Value::Int(value)],
    )
    .unwrap()
}

#[test]
fn hot_key_read_storm_commits_in_one_batch() {
    let program = account_program();
    let calls: Vec<MethodCall> = (0..24).map(|_| read_call(&program.ir, "acc0")).collect();
    let oracle = oracle_outcomes(&calls);

    let (report, out) = run_and_compare(
        ShardConfig {
            batch_size: 64,
            ..ShardConfig::with_shards(4)
        },
        &calls,
    );
    assert_eq!(out, oracle, "read storm diverged from the oracle");
    assert_eq!(report.deferrals, 0, "read-read pairs must not defer");
    assert_eq!(report.batches, 1, "the whole storm fits one batch");
}

#[test]
fn interleaved_writer_splits_the_storm_in_arrival_order() {
    let program = account_program();
    let mut calls: Vec<MethodCall> = (0..8).map(|_| read_call(&program.ir, "acc0")).collect();
    calls.push(update_call(&program.ir, "acc0", 4242));
    calls.extend((0..8).map(|_| read_call(&program.ir, "acc0")));
    let oracle = oracle_outcomes(&calls);

    let (report, out) = run_and_compare(
        ShardConfig {
            batch_size: 64,
            ..ShardConfig::with_shards(3)
        },
        &calls,
    );
    assert_eq!(out, oracle);
    // The oracle itself proves ordering, but make the shape explicit: reads
    // before the writer see the initial balance; reads after it see 4242.
    assert_eq!(out[0], Ok(Value::Int(workloads::INITIAL_BALANCE)));
    assert_eq!(out[7], Ok(Value::Int(workloads::INITIAL_BALANCE)));
    assert_eq!(out[9], Ok(Value::Int(4242)));
    assert_eq!(out[16], Ok(Value::Int(4242)));
    assert!(
        report.deferrals > 0,
        "the writer (and trailing reads) must defer behind the leading reads"
    );
}

#[test]
fn disjoint_batches_overlap_in_the_pipeline() {
    let program = account_program();
    // Updates spread over all accounts: consecutive batches are (mostly)
    // disjoint, so the pipeline should overlap nearly every batch.
    let calls: Vec<MethodCall> = (0..96u64)
        .map(|i| {
            update_call(
                &program.ir,
                &format!("acc{}", i as usize % ACCOUNTS),
                i as i64,
            )
        })
        .collect();
    let oracle = oracle_outcomes(&calls);

    let (report, out) = run_and_compare(
        ShardConfig {
            batch_size: 6,
            epoch_every_batches: 6,
            ..ShardConfig::with_shards(4)
        },
        &calls,
    );
    assert_eq!(out, oracle);
    assert!(
        report.pipelined_batches > 0,
        "batches must dispatch while a predecessor is still in flight"
    );
}

#[test]
fn crash_recovery_fires_with_two_batches_in_flight() {
    let program = account_program();
    let build_calls = || -> Vec<MethodCall> {
        (0..120u64)
            .map(|i| {
                if i % 3 == 0 {
                    read_call(&program.ir, &format!("acc{}", i as usize % ACCOUNTS))
                } else {
                    update_call(
                        &program.ir,
                        &format!("acc{}", i as usize % ACCOUNTS),
                        i as i64,
                    )
                }
            })
            .collect()
    };
    let calls = build_calls();
    let config = ShardConfig {
        batch_size: 8,
        epoch_every_batches: 3,
        ..ShardConfig::with_shards(3)
    };

    let mut healthy = runtime(config.clone());
    let healthy_ids: Vec<u64> = calls.iter().map(|c| healthy.submit(c.clone()).0).collect();
    let healthy_report = healthy.run().unwrap();
    assert!(healthy_report.pipelined_batches > 0, "pipeline must engage");

    for after_batch in [2, 5, 9] {
        for victim in 0..3 {
            let mut failed = runtime(config.clone());
            let ids: Vec<u64> = calls.iter().map(|c| failed.submit(c.clone()).0).collect();
            assert_eq!(ids, healthy_ids);
            // The in-flight flavor fires right after dispatch, i.e. while
            // BOTH the crashed batch and its predecessor are un-retired.
            let report = failed
                .run_with_failure(FailurePlan::in_flight(after_batch, victim))
                .unwrap();
            assert_eq!(report.recoveries, 1);
            assert_eq!(
                report.responses, healthy_report.responses,
                "batch {after_batch}, victim {victim}: responses diverged"
            );
            assert_eq!(report.errors, healthy_report.errors);
            assert_eq!(failed.final_states(), healthy.final_states());
        }
    }
}

#[test]
fn compaction_bounds_recovery_chains_on_long_runs() {
    let program = account_program();
    let calls: Vec<MethodCall> = (0..160u64)
        .map(|i| {
            update_call(
                &program.ir,
                &format!("acc{}", i as usize % ACCOUNTS),
                i as i64,
            )
        })
        .collect();
    // Amortized folding happens at *seal* time, while bytes trail in from
    // the background encoder; the chain bound must hold regardless.
    // Without compaction the delta chain would grow by one per epoch until
    // the chain-size rule rebases.
    let config = ShardConfig {
        batch_size: 4,
        epoch_every_batches: 1,
        ..ShardConfig::with_shards(3)
    };

    let mut rt = runtime(config.clone());
    for c in &calls {
        rt.submit(c.clone());
    }
    let report = rt.run().unwrap();
    assert!(
        report.epochs_completed >= 10,
        "the cadence must actually produce a long epoch chain"
    );
    assert!(
        report.delta_snapshots_taken > 0,
        "the barriers after the baseline start a delta chain"
    );
    assert!(
        report.snapshots_compacted > 0,
        "compaction must have merged delta runs"
    );
    assert_eq!(
        report.max_delta_chain, 1,
        "every sealed epoch must leave chains at full + <= 1 delta"
    );

    // Recovery through a compacted chain: a late crash rolls back onto a
    // merged delta and must still replay to the exact healthy outcome.
    let mut healthy = runtime(config.clone());
    let mut failed = runtime(config);
    for c in &calls {
        healthy.submit(c.clone());
        failed.submit(c.clone());
    }
    let healthy_report = healthy.run().unwrap();
    let failed_report = failed
        .run_with_failure(FailurePlan::after_delivery(30, 1))
        .unwrap();
    assert_eq!(failed_report.recoveries, 1);
    assert_eq!(failed_report.responses, healthy_report.responses);
    assert_eq!(failed.final_states(), healthy.final_states());
}

#[test]
fn ablation_knobs_stay_oracle_equivalent_on_mixed_traffic() {
    let program = account_program();
    let calls: Vec<MethodCall> = (0..90u64)
        .map(|i| match i % 4 {
            0 => read_call(&program.ir, &format!("acc{}", i as usize % ACCOUNTS)),
            1 => update_call(
                &program.ir,
                &format!("acc{}", i as usize % ACCOUNTS),
                i as i64,
            ),
            _ => {
                let to = Value::entity_ref(
                    "Account",
                    Key::Str(format!("acc{}", (i as usize + 5) % ACCOUNTS).into()),
                );
                program
                    .ir
                    .resolve_call(
                        "Account",
                        Key::Str(format!("acc{}", i as usize % ACCOUNTS).into()),
                        "transfer",
                        vec![Value::Int(3), to],
                    )
                    .unwrap()
            }
        })
        .collect();
    let oracle = oracle_outcomes(&calls);

    let (_, out) = run_and_compare(
        ShardConfig {
            batch_size: 7,
            epoch_every_batches: 4,
            ..ShardConfig::with_shards(4)
        },
        &calls,
    );
    assert_eq!(out, oracle, "mixed traffic diverged from the oracle");
}

#[test]
fn worker_exit_is_an_error_not_a_hang() {
    let program = account_program();
    let mut rt = runtime(ShardConfig {
        batch_size: 8,
        ..ShardConfig::with_shards(3)
    });
    for i in 0..60u64 {
        rt.submit(update_call(
            &program.ir,
            &format!("acc{}", i as usize % ACCOUNTS),
            i as i64,
        ));
    }
    let err = rt
        .run_with_failure(FailurePlan::worker_exit(3, 1))
        .expect_err("a silently-dead worker must fail the run");
    assert_eq!(err, ShardError::Disconnected { shard: 1 });
}
