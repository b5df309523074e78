//! Fault-injection suite for the sharded runtime: kill a shard mid-epoch at
//! randomized (seeded) points, recover via `SnapshotStore::reconstruct` +
//! ingress replay, and assert **exactly-once** end to end:
//!
//! * no lost effects — final entity states equal the failure-free run;
//! * no duplicated effects — balances move exactly once even though requests
//!   were re-processed (conservation + healthy-state equality pin this);
//! * egress dedup holds — every call id is answered exactly once, and the
//!   replay's re-deliveries are counted as suppressed duplicates, never
//!   surfaced;
//! * determinism — the recovered timeline produces byte-identical responses.
//!
//! ≥ 10 seeded injection points: each seed derives the crash batch, the
//! victim shard, and the crash flavor (mid-batch in-flight vs. just after
//! egress delivery), so the suite covers crashes at many distances from the
//! last epoch barrier.

use shard_runtime::{FailureMode, FailurePlan, ShardConfig, ShardRuntime};
use stateful_entities::{EntityAddr, EntityState, Key, Value};
use std::collections::BTreeMap;
use workloads::{account_init_args, account_program, KeyDistribution, WorkloadMix, WorkloadSpec};

const SHARDS: usize = 3;
const ACCOUNTS: usize = 18;

fn config() -> ShardConfig {
    ShardConfig {
        batch_size: 8,
        epoch_every_batches: 2,
        ..ShardConfig::with_shards(SHARDS)
    }
}

fn workload() -> Vec<stateful_entities::MethodCall> {
    let program = account_program();
    let spec = WorkloadSpec {
        mix: WorkloadMix::mixed_m(),
        distribution: KeyDistribution::Zipfian,
        record_count: ACCOUNTS,
        requests_per_second: 150,
        duration_secs: 2,
        seed: 0x5EED,
    };
    spec.generate()
        .into_iter()
        .map(|(_, op)| op.to_call(&program.ir))
        .collect()
}

fn build_runtime() -> ShardRuntime {
    let program = account_program();
    let mut rt = ShardRuntime::new(program.ir.clone(), config()).expect("compiled IR verifies");
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    for call in workload() {
        rt.submit(call);
    }
    rt
}

fn total_balance(states: &BTreeMap<EntityAddr, EntityState>) -> i64 {
    states
        .values()
        .map(|s| s["balance"].as_int().unwrap())
        .sum()
}

#[test]
fn seeded_injection_points_are_exactly_once() {
    // Snapshots are captured at the barrier and encoded in the background,
    // so a crash may land while an epoch's bytes are still in flight; the
    // sealed-epoch gate must make that invisible to the outcome.
    let mut healthy = build_runtime();
    let healthy_report = healthy.run().unwrap();
    let healthy_states = healthy.final_states();
    let total_calls = healthy_report.answered();
    assert_eq!(total_calls, 300, "sanity: the workload submits 300 calls");

    let mut suppressed_total = 0u64;
    // 12 seeded injection points: crash batches spread over the run,
    // victims rotating over the shards, both crash flavors.
    for seed in 0u64..12 {
        let after_batch = 1 + (seed * 7919) % 28;
        let kill_shard = (seed as usize) % SHARDS;
        let mode = if seed % 2 == 0 {
            FailureMode::AfterDelivery
        } else {
            FailureMode::InFlight
        };
        let plan = FailurePlan {
            after_batch,
            kill_shard,
            mode,
        };

        let mut failed = build_runtime();
        let report = failed.run_with_failure(plan).unwrap();
        assert_eq!(report.recoveries, 1, "seed {seed}: the plan must fire");

        // Exactly-once responses: same ids, same values, answered once.
        assert_eq!(
            report.responses, healthy_report.responses,
            "seed {seed} ({plan:?}): responses diverged"
        );
        assert_eq!(
            report.errors, healthy_report.errors,
            "seed {seed} ({plan:?}): errors diverged"
        );
        assert_eq!(report.answered(), total_calls);

        // Exactly-once effects: state equals the failure-free execution.
        let states = failed.final_states();
        assert_eq!(
            states, healthy_states,
            "seed {seed} ({plan:?}): final states diverged"
        );

        // The after-delivery flavor guarantees the crashed batch's
        // responses were already at the egress, so the replay must have
        // produced duplicates for the egress to suppress.
        if mode == FailureMode::AfterDelivery {
            assert!(
                report.duplicates_suppressed > 0,
                "seed {seed}: replay after delivery must suppress duplicates"
            );
        }
        suppressed_total += report.duplicates_suppressed;
    }
    assert!(
        suppressed_total > 0,
        "across all injection points, replays must have been deduplicated"
    );
}

#[test]
fn seeded_mid_encode_injection_points_are_exactly_once() {
    // The PR 5 flavor: crash in the capture→encode window at seeded epoch
    // barriers. Recovery must land on a *sealed* epoch every time and the
    // replay must stay bit-for-bit exactly-once.
    let mut healthy = build_runtime();
    let healthy_report = healthy.run().unwrap();
    let healthy_states = healthy.final_states();

    for seed in 0u64..6 {
        let after_batch = 1 + (seed * 5) % 28;
        let kill_shard = (seed as usize) % SHARDS;
        let mut failed = build_runtime();
        let report = failed
            .run_with_failure(FailurePlan::mid_encode(after_batch, kill_shard))
            .unwrap();
        assert_eq!(report.recoveries, 1, "seed {seed}: the plan must fire");
        assert_eq!(
            report.recovery_epochs.len(),
            1,
            "seed {seed}: one recovery, one recorded target epoch"
        );
        assert_eq!(
            report.responses, healthy_report.responses,
            "seed {seed}: responses diverged"
        );
        assert_eq!(report.errors, healthy_report.errors);
        assert_eq!(
            failed.final_states(),
            healthy_states,
            "seed {seed}: final states diverged"
        );
    }
}

#[test]
fn money_is_conserved_across_recovery() {
    // Transfers only: the global balance is a conserved quantity; a lost or
    // double-applied transfer effect would break it even if the test had no
    // healthy run to compare against.
    let program = account_program();
    let build = || {
        let mut rt = ShardRuntime::new(program.ir.clone(), config()).expect("compiled IR verifies");
        for i in 0..ACCOUNTS {
            rt.load_entity("Account", &account_init_args(i, 16))
                .unwrap();
        }
        for i in 0..120u64 {
            let from = format!("acc{}", i % ACCOUNTS as u64);
            let to = Value::entity_ref(
                "Account",
                Key::Str(format!("acc{}", (i * 5 + 1) % ACCOUNTS as u64).into()),
            );
            let call = rt
                .ir()
                .resolve_call(
                    "Account",
                    Key::Str(from.into()),
                    "transfer",
                    vec![Value::Int(7), to],
                )
                .unwrap();
            rt.submit(call);
        }
        rt
    };

    let initial_total = ACCOUNTS as i64 * workloads::INITIAL_BALANCE;
    for (after_batch, kill_shard) in [(3, 0), (7, 1), (11, 2), (14, 0)] {
        let mut rt = build();
        let report = rt
            .run_with_failure(FailurePlan::after_delivery(after_batch, kill_shard))
            .unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.answered(), 120);
        assert!(report.errors.is_empty());
        assert_eq!(
            total_balance(&rt.final_states()),
            initial_total,
            "crash at batch {after_batch} (victim {kill_shard}) lost or duplicated a transfer"
        );
    }

    // The mid-encode flavor is the sharpest conservation probe: the crashed
    // epoch's transfers were acked and captured but their bytes never
    // sealed — replaying them twice (or dropping them) would break the sum.
    for (after_batch, kill_shard) in [(4, 0), (9, 2)] {
        let mut rt = build();
        let report = rt
            .run_with_failure(FailurePlan::mid_encode(after_batch, kill_shard))
            .unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.answered(), 120);
        assert_eq!(
            total_balance(&rt.final_states()),
            initial_total,
            "mid-encode crash at batch {after_batch} lost or duplicated a transfer"
        );
    }
}

#[test]
fn crash_before_first_epoch_recovers_the_baseline() {
    // A crash before any barrier rolls back to the epoch-0 baseline (the
    // bulk-loaded state) and replays everything from offset zero.
    let mut rt = build_runtime();
    let report = rt.run_with_failure(FailurePlan::in_flight(1, 0)).unwrap();
    assert_eq!(report.recoveries, 1);

    let mut healthy = build_runtime();
    let healthy_report = healthy.run().unwrap();
    assert_eq!(report.responses, healthy_report.responses);
    assert_eq!(rt.final_states(), healthy.final_states());
}

#[test]
fn recovery_uses_delta_chains_not_just_full_snapshots() {
    // A late crash between rebases: the recovery point's chain is full +
    // deltas; the replayed outcome must still be identical.
    let mut healthy = build_runtime();
    let healthy_report = healthy.run().unwrap();
    assert!(
        healthy_report.delta_snapshots_taken > 0,
        "the cadence must actually produce deltas"
    );

    let mut failed = build_runtime();
    let report = failed
        .run_with_failure(FailurePlan::after_delivery(20, 1))
        .unwrap();
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.responses, healthy_report.responses);
    assert_eq!(failed.final_states(), healthy.final_states());
}
