//! PR 6 tentpole proof: **cold-process restart** from the durable directory
//! alone, under torn-write fault injection, stays bit-for-bit equal to the
//! sequential `LocalRuntime` oracle.
//!
//! The matrix runs the corpus workload through ≥ 8 seeded injection points
//! spanning every durable crash flavor:
//!
//! * `MidAppend` / `MidFsync` during the **submit phase** — the ingress log
//!   tears mid-record or the group-commit fsync never lands;
//! * `MidUpload` / `MidManifestRename` during the **run** — a snapshot file
//!   is half-uploaded or the manifest temp file is never renamed, at seeded
//!   hit counts that land on the baseline as well as on mid-run seals.
//!
//! After each simulated process death a *fresh* `ShardRuntime::new_durable`
//! boots from the directory alone (no entity re-loading when a manifest
//! exists, no in-memory state carried over). The proof obligations:
//!
//! * **no lost effects** — the union of the dead process's partial egress and
//!   the restarted deployment's responses answers every durable call, with
//!   values equal to the oracle's;
//! * **no duplicated or diverging effects** — calls answered by both
//!   timelines got the *same* answer, and final entity states equal the
//!   oracle's field by field;
//! * **honest ambiguity at the log tail** — a call whose `try_submit` failed
//!   mid-fsync may still be durable (its bytes reached the file); recovery
//!   replays exactly the decodable prefix, never invents or drops records.

use durable_log::testutil::TempDir;
use durable_log::{CrashPoint, DurableError, FaultInjector};
use shard_runtime::{DurableConfig, ShardConfig, ShardError, ShardRuntime};
use stateful_entities::{EntityState, MethodCall, Value};
use std::collections::BTreeMap;
use std::path::Path;
use workloads::{account_init_args, account_program, KeyDistribution, WorkloadMix, WorkloadSpec};

const SHARDS: usize = 3;
const ACCOUNTS: usize = 18;

type Outcome = Result<Value, String>;

fn workload() -> Vec<MethodCall> {
    let program = account_program();
    let spec = WorkloadSpec {
        mix: WorkloadMix::mixed_m(),
        distribution: KeyDistribution::Zipfian,
        record_count: ACCOUNTS,
        requests_per_second: 150,
        duration_secs: 2,
        seed: 0xD15C,
    };
    spec.generate()
        .into_iter()
        .map(|(_, op)| op.to_call(&program.ir))
        .collect()
}

/// The sequential oracle over an arbitrary (possibly crash-truncated) call
/// sequence: per-call outcomes in order, plus final Account states by key.
fn oracle(calls: &[MethodCall]) -> (Vec<Outcome>, BTreeMap<String, EntityState>) {
    let program = account_program();
    let mut oracle = program.local_runtime();
    for i in 0..ACCOUNTS {
        oracle.create("Account", &account_init_args(i, 16)).unwrap();
    }
    let outcomes = calls
        .iter()
        .map(|call| oracle.call_resolved(call.clone()).map_err(|e| e.message))
        .collect();
    let states = oracle
        .instances_of("Account")
        .into_iter()
        .map(|(key, state)| (key.to_string(), state))
        .collect();
    (outcomes, states)
}

fn config(dir: &Path, fault: &FaultInjector) -> ShardConfig {
    ShardConfig {
        batch_size: 8,
        epoch_every_batches: 2,
        durable: Some(DurableConfig {
            dir: dir.to_path_buf(),
            group_commit_window: 4,
            segment_max_bytes: 4096,
            fault: fault.clone(),
        }),
        ..ShardConfig::with_shards(SHARDS)
    }
}

/// Boot a deployment from the durable directory alone. A fresh directory
/// (no manifest → no recovered instances) gets the initial entity load; a
/// recovered one must **not** be re-loaded.
fn boot(dir: &Path, fault: &FaultInjector) -> ShardRuntime {
    let program = account_program();
    let mut rt = ShardRuntime::new_durable(program.ir.clone(), config(dir, fault))
        .expect("boot from durable directory");
    if rt.instance_count() == 0 {
        for i in 0..ACCOUNTS {
            rt.load_entity("Account", &account_init_args(i, 16))
                .unwrap();
        }
    }
    rt
}

fn states_by_key(rt: &ShardRuntime) -> BTreeMap<String, EntityState> {
    rt.final_states()
        .into_iter()
        .map(|(addr, state)| (addr.key().to_string(), state))
        .collect()
}

fn report_outcomes(report: &shard_runtime::ShardReport) -> BTreeMap<u64, Outcome> {
    let mut out: BTreeMap<u64, Outcome> = BTreeMap::new();
    for (&id, value) in &report.responses {
        out.insert(id, Ok(value.clone()));
    }
    for (&id, message) in &report.errors {
        out.insert(id, Err(message.clone()));
    }
    out
}

/// Union two egress maps asserting that any overlap answered identically —
/// the exactly-once contract across a process boundary: a replayed call may
/// be re-answered, never re-answered *differently*.
fn union_egress(
    mut acc: BTreeMap<u64, Outcome>,
    newer: BTreeMap<u64, Outcome>,
    context: &str,
) -> BTreeMap<u64, Outcome> {
    for (id, outcome) in newer {
        if let Some(prev) = acc.get(&id) {
            assert_eq!(
                prev, &outcome,
                "{context}: call {id} re-answered differently"
            );
        }
        acc.insert(id, outcome);
    }
    acc
}

fn assert_matches_oracle(
    egress: &BTreeMap<u64, Outcome>,
    states: &BTreeMap<String, EntityState>,
    calls: &[MethodCall],
    context: &str,
) {
    let (oracle_out, oracle_states) = oracle(calls);
    assert_eq!(
        egress.len(),
        calls.len(),
        "{context}: {} of {} durable calls answered",
        egress.len(),
        calls.len()
    );
    for (i, expected) in oracle_out.iter().enumerate() {
        assert_eq!(
            egress.get(&(i as u64)),
            Some(expected),
            "{context}: call {i} diverged from the oracle"
        );
    }
    assert_eq!(states, &oracle_states, "{context}: final states diverged");
}

/// Healthy path: run to completion, kill the process (drop), and boot a new
/// one from the directory. The restart reconstructs the last sealed epoch and
/// replays the unsealed log tail; states come out identical — and a third
/// boot (nothing left to replay) agrees too.
#[test]
fn clean_cold_restart_reaches_the_same_states() {
    let tmp = TempDir::new("durable-clean");
    let fault = FaultInjector::new();
    let calls = workload();

    let mut rt = boot(tmp.path(), &fault);
    for call in &calls {
        rt.try_submit(call.clone()).expect("durable append");
    }
    let report = rt.run().unwrap();
    assert_eq!(report.answered(), calls.len());
    let egress = report_outcomes(&report);
    let states_before = states_by_key(&rt);
    assert_matches_oracle(&egress, &states_before, &calls, "first run");
    drop(rt);

    let mut restarted = boot(tmp.path(), &fault);
    assert!(
        restarted.instance_count() > 0,
        "restart must recover entities from the manifest, not re-load them"
    );
    restarted.run().unwrap();
    assert_eq!(
        states_by_key(&restarted),
        states_before,
        "cold restart diverged"
    );
    drop(restarted);

    let mut again = boot(tmp.path(), &fault);
    again.run().unwrap();
    assert_eq!(states_by_key(&again), states_before);
}

/// Submit-phase crashes: the ingress log tears mid-append or the group
/// commit dies mid-fsync. The durable prefix is exactly the decodable
/// records; a fresh process replays it and must match the oracle over that
/// prefix. 4 seeded points.
#[test]
fn submit_phase_crashes_replay_the_durable_prefix() {
    let cases = [
        (CrashPoint::MidAppend, 5u64),
        (CrashPoint::MidAppend, 23),
        (CrashPoint::MidFsync, 0),
        (CrashPoint::MidFsync, 2),
    ];
    for &(point, skip) in &cases {
        let context = format!("{point} skip={skip}");
        let tmp = TempDir::new("durable-submit");
        let fault = FaultInjector::new();
        let calls = workload();

        let mut rt = boot(tmp.path(), &fault);
        fault.arm(point, skip);
        let mut survivors: Vec<MethodCall> = Vec::new();
        let mut crashed = false;
        for call in &calls {
            match rt.try_submit(call.clone()) {
                Ok(_) => survivors.push(call.clone()),
                Err(ShardError::Durable {
                    error: DurableError::CrashInjected { .. },
                }) => {
                    // Mid-fsync the record's bytes are already in the
                    // file (flushed, whole) — it survives even though the
                    // submitter saw an error. Mid-append tears it.
                    if point == CrashPoint::MidFsync {
                        survivors.push(call.clone());
                    }
                    crashed = true;
                    break;
                }
                Err(other) => panic!("{context}: unexpected submit error {other}"),
            }
        }
        assert!(crashed, "{context}: the armed crash must fire");
        assert!(!survivors.is_empty(), "{context}: sanity");
        drop(rt); // process death: buffers flush, nothing else happens

        let mut restarted = boot(tmp.path(), &fault);
        let report = restarted.run().unwrap();
        let egress = report_outcomes(&report);
        assert_matches_oracle(&egress, &states_by_key(&restarted), &survivors, &context);
    }
}

/// Mid-run crashes: the durable tier dies uploading a snapshot or renaming
/// the manifest, at seeded hit counts covering the epoch-0 baseline and
/// mid-run seals. The run surfaces `ShardError::Durable`; a fresh process
/// boots from the directory, replays from the last on-disk seal, and the
/// union of both processes' egress equals the oracle over *all* calls.
/// 6 seeded points (10 points total with the submit-phase matrix above —
/// the acceptance floor is 8).
#[test]
fn mid_run_crashes_recover_to_the_oracle() {
    let cases = [
        (CrashPoint::MidUpload, 1u64),
        (CrashPoint::MidUpload, 7),
        (CrashPoint::MidUpload, 16),
        (CrashPoint::MidManifestRename, 0),
        (CrashPoint::MidManifestRename, 3),
        (CrashPoint::MidManifestRename, 9),
    ];
    for &(point, skip) in &cases {
        let context = format!("{point} skip={skip}");
        let tmp = TempDir::new("durable-midrun");
        let fault = FaultInjector::new();
        let calls = workload();

        let mut rt = boot(tmp.path(), &fault);
        for call in &calls {
            rt.try_submit(call.clone()).expect("durable append");
        }
        fault.arm(point, skip);
        let error = rt.run().expect_err("the armed crash must fail the run");
        match error {
            ShardError::Durable {
                error: DurableError::CrashInjected { point: fired },
            } => assert_eq!(fired, point, "{context}"),
            other => panic!("{context}: expected an injected crash, got {other}"),
        }
        let partial = rt.partial_egress().clone();
        let partial: BTreeMap<u64, Outcome> = partial.into_iter().collect();
        drop(rt);
        assert_eq!(
            fault.armed(),
            None,
            "{context}: the plan fired exactly once"
        );

        let mut restarted = boot(tmp.path(), &fault);
        let report = restarted.run().unwrap();
        let egress = union_egress(partial, report_outcomes(&report), &context);
        assert_matches_oracle(&egress, &states_by_key(&restarted), &calls, &context);
    }
}

/// A crash can also land *between* runs of an established deployment: run a
/// prefix to completion (manifest sealed), submit more calls, tear the log
/// mid-append, and restart. Recovery must stack the sealed snapshot state
/// with the replayed second-wave prefix.
#[test]
fn crash_after_an_established_manifest_replays_only_the_tail() {
    let context = "established+mid-append";
    let tmp = TempDir::new("durable-established");
    let fault = FaultInjector::new();
    let calls = workload();
    let (first_wave, second_wave) = calls.split_at(calls.len() / 2);

    let mut rt = boot(tmp.path(), &fault);
    for call in first_wave {
        rt.try_submit(call.clone()).expect("durable append");
    }
    let report = rt.run().unwrap();
    let mut egress = report_outcomes(&report);

    fault.arm(CrashPoint::MidAppend, 11);
    let mut durable_calls: Vec<MethodCall> = first_wave.to_vec();
    for call in second_wave {
        match rt.try_submit(call.clone()) {
            Ok(_) => durable_calls.push(call.clone()),
            Err(_) => break,
        }
    }
    assert!(
        durable_calls.len() > first_wave.len(),
        "{context}: some of the second wave must land"
    );
    drop(rt);

    let mut restarted = boot(tmp.path(), &fault);
    assert!(
        restarted.instance_count() > 0,
        "{context}: manifest recovery"
    );
    let report = restarted.run().unwrap();
    assert!(
        report.answered() < durable_calls.len(),
        "{context}: the sealed first wave must not be re-answered"
    );
    egress = union_egress(egress, report_outcomes(&report), context);
    assert_matches_oracle(&egress, &states_by_key(&restarted), &durable_calls, context);
}

/// PR 7 liveness satellite: a **split-method** workload (100 % transfers,
/// every call suspending a continuation frame that may hop shards) crashed
/// mid-run and cold-restarted must replay to the oracle. Pruned frames drop
/// dead locals at the split point; the durable tier discards all in-flight
/// frames at the crash and replays calls from the ingress log, so pruning
/// must be invisible to recovery.
#[test]
fn pruned_split_frames_replay_after_cold_restart() {
    let context = "split+mid-upload";
    let program = account_program();
    let calls: Vec<MethodCall> = {
        let spec = WorkloadSpec {
            mix: WorkloadMix::ycsb_t(),
            distribution: KeyDistribution::Zipfian,
            record_count: ACCOUNTS,
            requests_per_second: 150,
            duration_secs: 2,
            seed: 0x11FE,
        };
        spec.operations()
            .iter()
            .map(|op| op.to_call(&program.ir))
            .collect()
    };
    let tmp = TempDir::new("durable-split");
    let fault = FaultInjector::new();

    let mut rt = boot(tmp.path(), &fault);
    for call in &calls {
        rt.try_submit(call.clone()).expect("durable append");
    }
    fault.arm(CrashPoint::MidUpload, 4);
    let error = rt.run().expect_err("the armed crash must fail the run");
    match error {
        ShardError::Durable {
            error: DurableError::CrashInjected { .. },
        } => {}
        other => panic!("{context}: expected an injected crash, got {other}"),
    }
    let partial: BTreeMap<u64, Outcome> = rt.partial_egress().clone().into_iter().collect();
    drop(rt);

    let mut restarted = boot(tmp.path(), &fault);
    assert!(
        restarted.instance_count() > 0,
        "{context}: manifest recovery"
    );
    let report = restarted.run().unwrap();
    let egress = union_egress(partial, report_outcomes(&report), context);
    assert_matches_oracle(&egress, &states_by_key(&restarted), &calls, context);
}

/// In-memory rollback (PR 3's kill-a-shard flavor) composed with the durable
/// tier: the run recovers internally, completes, and a later cold restart
/// still lands on the correct states — rollback pruning must have kept the
/// on-disk chain coherent.
#[test]
fn in_memory_recovery_keeps_the_durable_chain_coherent() {
    use shard_runtime::FailurePlan;
    let context = "rollback+restart";
    let tmp = TempDir::new("durable-rollback");
    let fault = FaultInjector::new();
    let calls = workload();

    let mut rt = boot(tmp.path(), &fault);
    for call in &calls {
        rt.try_submit(call.clone()).expect("durable append");
    }
    let report = rt
        .run_with_failure(FailurePlan::after_delivery(9, 1))
        .unwrap();
    assert_eq!(report.recoveries, 1, "{context}: the plan must fire");
    let egress = report_outcomes(&report);
    let states = states_by_key(&rt);
    assert_matches_oracle(&egress, &states, &calls, context);
    drop(rt);

    let mut restarted = boot(tmp.path(), &fault);
    restarted.run().unwrap();
    assert_eq!(
        states_by_key(&restarted),
        states,
        "{context}: restart diverged"
    );
}
