//! PR 8 tentpole proofs, part 2: the service front door **across failures**.
//!
//! * **Pruned egress stays exactly-once** — the egress dedup map is pruned
//!   below the sealed call-id watermark (the PR 8 leak fix). A mid-run crash
//!   with pruning active must still answer every admitted call exactly once:
//!   recovery replays only from the sealed cut, whose watermark is exactly
//!   the pruning floor, so no pruned call is ever re-executed and no
//!   unsealed call loses its dedup entry.
//! * **CDC replays identically across a crash** — updates are emitted only
//!   at seal (the durability point), so a subscriber's folded stream agrees
//!   with the final states no matter where the crash landed, and the final
//!   states agree with a healthy run of the same session traffic.
//! * **Durable append failure is a typed error** (the PR 8 panic fix) — a
//!   full-disk fault surfaces as `ShardError::Durable` from `try_submit`,
//!   and the runtime keeps working once the disk recovers.
//! * **Service mode survives a cold restart** — a durable deployment serves
//!   sessions, restarts from disk alone, and serves again from the recovered
//!   states.
//! * **A crash in the middle of `serve` loses no answer** — process death
//!   at a log group commit, a snapshot upload or a manifest rename ends the
//!   serve with the typed error naming that point; a cold restart then
//!   re-derives every answer the session saw and reaches the sequential
//!   oracle's states over exactly the call-id prefix it replayed.

use durable_log::testutil::TempDir;
use durable_log::{CrashPoint, DurableError, FaultInjector};
use shard_runtime::service::StateUpdate;
use shard_runtime::{DurableConfig, FailurePlan, ShardConfig, ShardError, ShardRuntime};
use stateful_entities::{EntityAddr, EntityState, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;
use workloads::{account_init_args, account_program, Operation, INITIAL_BALANCE};

const SHARDS: usize = 3;
const ACCOUNTS: usize = 12;

fn base_config() -> ShardConfig {
    ShardConfig {
        batch_size: 8,
        epoch_every_batches: 2,
        max_inflight_requests: 0,
        ..ShardConfig::with_shards(SHARDS)
    }
}

fn in_memory_runtime() -> ShardRuntime {
    let program = account_program();
    let mut rt =
        ShardRuntime::new(program.ir.clone(), base_config()).expect("compiled IR verifies");
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    rt
}

fn durable_boot(dir: &Path, fault: &FaultInjector) -> ShardRuntime {
    let program = account_program();
    let config = ShardConfig {
        durable: Some(DurableConfig {
            dir: dir.to_path_buf(),
            group_commit_window: 4,
            segment_max_bytes: 4096,
            fault: fault.clone(),
        }),
        ..base_config()
    };
    let mut rt =
        ShardRuntime::new_durable(program.ir.clone(), config).expect("boot durable service");
    if rt.instance_count() == 0 {
        for i in 0..ACCOUNTS {
            rt.load_entity("Account", &account_init_args(i, 16))
                .unwrap();
        }
    }
    rt
}

fn credit_ops(count: usize) -> Vec<Operation> {
    (0..count)
        .map(|i| Operation::Credit {
            key: i % ACCOUNTS,
            amount: 1 + (i % 5) as i64,
        })
        .collect()
}

fn field_images(rt: &ShardRuntime) -> BTreeMap<EntityAddr, Vec<(String, Value)>> {
    rt.final_states()
        .into_iter()
        .map(|(addr, state)| {
            (
                addr,
                state
                    .iter()
                    .map(|(n, v)| (n.to_string(), v.clone()))
                    .collect(),
            )
        })
        .collect()
}

/// Regression for the egress-leak fix: recovery mid-run, with the dedup map
/// already pruned below the sealed watermark, must still answer every
/// admitted call exactly once — no drops (pruned ≠ forgotten-and-replayed)
/// and no duplicates (unsealed answers keep their dedup entries).
#[test]
fn recovery_with_pruned_egress_answers_exactly_once() {
    const CALLS: usize = 400;
    let ops = credit_ops(CALLS);
    let mut rt = in_memory_runtime();
    let ir = account_program().ir;

    let (report, seqs) = rt
        .serve_with_failure(FailurePlan::in_flight(20, 1), |handle| {
            let mut session = handle.session();
            for op in &ops {
                session.submit(op.to_call(&ir)).expect("shedding off");
            }
            let responses = session.collect(CALLS);
            assert_eq!(responses.len(), CALLS, "an admitted call went unanswered");
            for r in &responses {
                assert!(r.result.is_ok(), "credit failed: {:?}", r.result);
            }
            let seqs: BTreeSet<u64> = responses.iter().map(|r| r.seq).collect();
            assert!(
                session.try_recv().is_none(),
                "duplicate delivery after drain"
            );
            seqs
        })
        .expect("serve through injected failure");

    // Exactly once: the answered seq set is precisely the submitted set.
    assert_eq!(seqs, (0..CALLS as u64).collect::<BTreeSet<u64>>());
    assert!(
        report.egress_pruned > 0,
        "the run never pruned egress — the regression scenario did not engage"
    );
    assert!(report.recoveries > 0, "the failure plan never fired");

    // Nothing double-applied, nothing lost: exact balance arithmetic.
    let credited: i64 = ops
        .iter()
        .map(|op| match op {
            Operation::Credit { amount, .. } => *amount,
            _ => unreachable!(),
        })
        .sum();
    let total: i64 = rt
        .final_states()
        .values()
        .map(|state| match state.get("balance") {
            Some(Value::Int(b)) => *b,
            other => panic!("non-int balance: {other:?}"),
        })
        .sum();
    assert_eq!(total, ACCOUNTS as i64 * INITIAL_BALANCE + credited);
}

/// CDC across a crash: the subscriber's folded stream equals the final
/// states, epochs never regress, and the final states equal a healthy run
/// of the same single-session traffic.
#[test]
fn cdc_replay_across_recovery_matches_healthy_run() {
    const CALLS: usize = 300;
    let ops = credit_ops(CALLS);
    let ir = account_program().ir;

    let run = |plan: Option<FailurePlan>| {
        let mut rt = in_memory_runtime();
        let client = |handle: shard_runtime::service::ServiceHandle| {
            let subscription = handle.subscribe_class("Account");
            let baseline = handle.scan_class("Account").value;
            let mut session = handle.session();
            for op in &ops {
                session.submit(op.to_call(&ir)).expect("shedding off");
            }
            assert_eq!(session.collect(CALLS).len(), CALLS);
            (baseline, subscription)
        };
        let (report, (baseline, subscription)) = match plan {
            Some(plan) => rt.serve_with_failure(plan, client),
            None => rt.serve(client),
        }
        .expect("serve");
        (report, baseline, subscription.drain(), field_images(&rt))
    };

    let (_, healthy_baseline, healthy_updates, healthy_finals) = run(None);
    let (report, baseline, updates, finals) = run(Some(FailurePlan::in_flight(15, 0)));
    assert!(report.recoveries > 0, "the failure plan never fired");

    // Same traffic, same outcome — the crash is invisible in the states.
    assert_eq!(finals, healthy_finals);

    // Both streams fold to the (identical) final states.
    for (name, baseline, updates, finals) in [
        (
            "healthy",
            healthy_baseline,
            healthy_updates,
            &healthy_finals,
        ),
        ("recovered", baseline, updates, &finals),
    ] {
        let mut last_epoch = 0u64;
        let mut replica: BTreeMap<EntityAddr, Vec<(String, Value)>> =
            baseline.into_iter().collect();
        for StateUpdate {
            epoch,
            addr,
            fields,
            deleted,
        } in updates
        {
            assert!(epoch >= last_epoch, "{name}: CDC epoch regressed");
            last_epoch = epoch;
            if deleted {
                replica.remove(&addr);
            } else {
                replica.insert(addr, fields);
            }
        }
        assert_eq!(&replica, finals, "{name}: CDC fold diverged from finals");
    }
}

/// The panic-path fix: a durable append failure (full disk, injected at the
/// log's append fault point) surfaces from `try_submit` as a typed
/// `ShardError::Durable` — no panic, no partial application — and the
/// runtime keeps accepting once the fault clears.
#[test]
fn durable_append_failure_is_typed_not_a_panic() {
    let tmp = TempDir::new("service-fulldisk");
    let fault = FaultInjector::new();
    let mut rt = durable_boot(tmp.path(), &fault);
    let ir = account_program().ir;

    fault.arm(CrashPoint::MidAppend, 0);
    let call = Operation::Credit { key: 0, amount: 9 }.to_call(&ir);
    match rt.try_submit(call.clone()) {
        Err(ShardError::Durable { .. }) => {}
        other => panic!("expected ShardError::Durable, got {other:?}"),
    }

    // The failed append left no trace: the disk recovers and the same call
    // goes through, applying exactly once.
    let id = rt.try_submit(call).expect("append after fault cleared");
    let report = rt.run().expect("run");
    assert_eq!(report.answered(), 1);
    assert!(report.responses.contains_key(&id.0) || report.errors.contains_key(&id.0));
    let total: i64 = rt
        .final_states()
        .values()
        .map(|s| match s.get("balance") {
            Some(Value::Int(b)) => *b,
            other => panic!("non-int balance: {other:?}"),
        })
        .sum();
    assert_eq!(total, ACCOUNTS as i64 * INITIAL_BALANCE + 9);
}

/// Service mode on the durable tier, across a cold restart: session traffic
/// persists, a reboot from the directory alone recovers the states, and the
/// rebooted deployment serves again — reads at the recovered cut, new
/// writes on top of it.
#[test]
fn durable_service_cold_restart_serves_recovered_state() {
    const CALLS: usize = 120;
    let tmp = TempDir::new("service-restart");
    let fault = FaultInjector::new();
    let ir = account_program().ir;
    let ops = credit_ops(CALLS);

    let first_finals;
    {
        let mut rt = durable_boot(tmp.path(), &fault);
        let (_, (baseline, subscription)) = rt
            .serve(|handle| {
                let subscription = handle.subscribe_class("Account");
                let baseline = handle.scan_class("Account").value;
                let mut session = handle.session();
                for op in &ops {
                    session.submit(op.to_call(&ir)).expect("shedding off");
                }
                assert_eq!(session.collect(CALLS).len(), CALLS);
                (baseline, subscription)
            })
            .expect("first serve");
        first_finals = field_images(&rt);

        // The CDC stream of the first incarnation folds to its finals.
        let mut replica: BTreeMap<EntityAddr, Vec<(String, Value)>> =
            baseline.into_iter().collect();
        for update in subscription.drain() {
            if update.deleted {
                replica.remove(&update.addr);
            } else {
                replica.insert(update.addr, update.fields);
            }
        }
        assert_eq!(replica, first_finals);
    }

    // Cold restart: recovered from disk alone (boot skips the initial load).
    let mut rt = durable_boot(tmp.path(), &fault);
    assert_eq!(rt.instance_count(), ACCOUNTS);
    assert_eq!(field_images(&rt), first_finals);

    // And it serves again: the baseline cut is the recovered state, and new
    // writes land on top of it.
    let (_, ()) = rt
        .serve(|handle| {
            let scan: BTreeMap<EntityAddr, Vec<(String, Value)>> =
                handle.scan_class("Account").value.into_iter().collect();
            assert_eq!(scan, first_finals, "read view did not recover");
            let mut session = handle.session();
            session
                .submit(Operation::Credit { key: 3, amount: 17 }.to_call(&ir))
                .expect("admitted");
            assert!(session
                .recv_timeout(Duration::from_secs(10))
                .expect("answered")
                .result
                .is_ok());
        })
        .expect("second serve");

    let before: i64 = first_finals
        .values()
        .map(|fields| match fields.iter().find(|(n, _)| n == "balance") {
            Some((_, Value::Int(b))) => *b,
            other => panic!("non-int balance: {other:?}"),
        })
        .sum();
    let after: i64 = rt
        .final_states()
        .values()
        .map(|s| match s.get("balance") {
            Some(Value::Int(b)) => *b,
            other => panic!("non-int balance: {other:?}"),
        })
        .sum();
    assert_eq!(after, before + 17);
}

type Outcome = Result<Value, String>;

/// The sequential oracle over `ops`: per-call outcomes in order, plus final
/// Account states by key.
fn oracle(ops: &[Operation]) -> (Vec<Outcome>, BTreeMap<String, EntityState>) {
    let program = account_program();
    let mut oracle = program.local_runtime();
    for i in 0..ACCOUNTS {
        oracle.create("Account", &account_init_args(i, 16)).unwrap();
    }
    let outcomes = ops
        .iter()
        .map(|op| {
            oracle
                .call_resolved(op.to_call(&program.ir))
                .map_err(|e| e.message)
        })
        .collect();
    let states = oracle
        .instances_of("Account")
        .into_iter()
        .map(|(key, state)| (key.to_string(), state))
        .collect();
    (outcomes, states)
}

/// Process death in the middle of `serve`: at a log group commit
/// (`MidFsync`), a seal's snapshot upload (`MidUpload`) or its manifest
/// rename (`MidManifestRename`), two hit counts each, all past the epoch-0
/// baseline. The serve must end with `ShardError::Durable` naming the point.
/// A cold restart from the directory alone must then
/// * re-answer every call the session had an answer for, with the same
///   value, or hold it in the sealed state it recovered — every answered
///   call is durable, so it lies inside the replayed call-id prefix and its
///   answer is the oracle's;
/// * reach the `LocalRuntime` oracle's states over exactly that prefix.
#[test]
fn crash_mid_serve_restarts_to_the_oracle_prefix() {
    const CALLS: usize = 240;
    const IN_FLIGHT: usize = 16;
    let ir = account_program().ir;
    let ops: Vec<Operation> = (0..CALLS)
        .map(|i| match i % 3 {
            0 => Operation::Credit {
                key: i % ACCOUNTS,
                amount: 1 + (i % 5) as i64,
            },
            1 => Operation::Transfer {
                from: i % ACCOUNTS,
                to: (i * 5 + 1) % ACCOUNTS,
                amount: 3,
            },
            _ => Operation::Read {
                key: (i * 7) % ACCOUNTS,
            },
        })
        .collect();
    let cases = [
        (CrashPoint::MidFsync, 2u64),
        (CrashPoint::MidFsync, 9),
        (CrashPoint::MidUpload, 4),
        (CrashPoint::MidUpload, 20),
        (CrashPoint::MidManifestRename, 2),
        (CrashPoint::MidManifestRename, 7),
    ];
    let mut answered_total = 0;
    for (point, skip) in cases {
        let context = format!("{point} skip={skip}");
        let tmp = TempDir::new("service-crash");
        let fault = FaultInjector::new();
        let mut rt = durable_boot(tmp.path(), &fault);
        fault.arm(point, skip);

        // The client's view, kept outside the closure: a failed serve
        // returns only the error.
        let answers: Mutex<BTreeMap<u64, Outcome>> = Mutex::new(BTreeMap::new());
        let served = rt.serve(|handle| {
            let mut session = handle.session();
            let record = |response: shard_runtime::service::SessionResponse| {
                answers
                    .lock()
                    .unwrap()
                    .insert(response.call_id, response.result);
            };
            let mut outstanding = 0;
            for op in &ops {
                if outstanding == IN_FLIGHT {
                    match session.recv_timeout(Duration::from_secs(30)) {
                        Ok(response) => record(response),
                        Err(_) => break,
                    }
                    outstanding -= 1;
                }
                if session.submit(op.to_call(&ir)).is_err() {
                    break;
                }
                outstanding += 1;
            }
            // Until the service is gone: the crash drops every session.
            while let Ok(response) = session.recv_timeout(Duration::from_secs(30)) {
                record(response);
            }
        });
        match served {
            Err(ShardError::Durable {
                error: DurableError::CrashInjected { point: fired },
            }) => assert_eq!(fired, point, "{context}"),
            Err(other) => panic!("{context}: expected an injected crash, got {other}"),
            Ok(_) => panic!("{context}: the armed crash never fired"),
        }
        assert_eq!(fault.armed(), None, "{context}: the plan fired once");
        let answers = answers.into_inner().unwrap();
        answered_total += answers.len();
        drop(rt);

        let mut restarted = durable_boot(tmp.path(), &fault);
        let report = restarted.run().expect("restart replays");
        let states: BTreeMap<String, EntityState> = restarted
            .final_states()
            .into_iter()
            .map(|(addr, state)| (addr.key().to_string(), state))
            .collect();
        // The next call id after the replay is the replayed prefix's length
        // (ids are dense from 0, one session submitted them in order).
        let replayed = restarted
            .try_submit(ops[0].to_call(&ir))
            .expect("append after restart")
            .0 as usize;
        assert!(replayed <= CALLS, "{context}: replayed {replayed} calls");
        let (oracle_out, oracle_states) = oracle(&ops[..replayed]);
        assert_eq!(
            states, oracle_states,
            "{context}: restart diverged from the oracle over {replayed} calls"
        );
        let mut reanswered: BTreeMap<u64, Outcome> = BTreeMap::new();
        for (&id, value) in &report.responses {
            reanswered.insert(id, Ok(value.clone()));
        }
        for (&id, message) in &report.errors {
            reanswered.insert(id, Err(message.clone()));
        }
        for (id, outcome) in &reanswered {
            assert_eq!(
                Some(outcome),
                oracle_out.get(*id as usize),
                "{context}: replayed call {id} diverged from the oracle"
            );
        }
        for (id, outcome) in &answers {
            assert!(
                (*id as usize) < replayed,
                "{context}: call {id} was answered but is not durable \
                 (restart replayed {replayed} calls)"
            );
            assert_eq!(
                outcome, &oracle_out[*id as usize],
                "{context}: call {id} was answered differently from the oracle"
            );
            if let Some(again) = reanswered.get(id) {
                assert_eq!(
                    again, outcome,
                    "{context}: call {id} re-answered differently"
                );
            }
        }
    }
    assert!(
        answered_total > 0,
        "no case answered anything before its crash"
    );
}
