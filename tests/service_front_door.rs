//! PR 8 tentpole proofs, part 1: the **service front door**.
//!
//! * **Oracle equality under concurrency** — concurrent client sessions
//!   submit interleaved OLTP traffic; whatever admission order the service
//!   observed (call ids are assigned at admission), replaying that exact
//!   order through the sequential `LocalRuntime` oracle reproduces every
//!   response and the final entity states bit-for-bit.
//! * **Bounded ingress with load-shedding** — past
//!   `ShardConfig::max_inflight_requests` unanswered calls, `submit` sheds
//!   with a typed `ShardError::Overloaded`; the queue's high-water mark
//!   never exceeds the bound, shed calls are never partially applied, and
//!   every *admitted* call is answered exactly once. The `0` ablation
//!   absorbs the same burst without shedding.
//! * **Seal-visible reads** — a session's acknowledged write becomes
//!   readable at the next sealed epoch, with an honest `ReadStaleness`
//!   (snapshot epoch vs latest announced cut).
//! * **CDC egress** — a class subscription's `StateUpdate` stream, folded
//!   over the baseline scan, reproduces the final states exactly.

use shard_runtime::service::StateUpdate;
use shard_runtime::{ShardConfig, ShardError, ShardRuntime};
use stateful_entities::{EntityAddr, EntityState, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{
    account_addr, account_init_args, account_key, account_program, Operation, INITIAL_BALANCE,
};

const SHARDS: usize = 3;
const ACCOUNTS: usize = 12;

fn service_runtime(config: ShardConfig) -> ShardRuntime {
    let program = account_program();
    let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    rt
}

fn base_config() -> ShardConfig {
    ShardConfig {
        batch_size: 8,
        epoch_every_batches: 4,
        ..ShardConfig::with_shards(SHARDS)
    }
}

/// Deterministic per-session op stream (xorshift — no external RNG).
fn session_ops(session: u64, count: usize) -> Vec<Operation> {
    let mut x = 0x9E37_79B9 ^ (session + 1);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..count)
        .map(|_| {
            let key = (next() % ACCOUNTS as u64) as usize;
            match next() % 10 {
                0..=3 => Operation::Read { key },
                4..=6 => Operation::Credit {
                    key,
                    amount: (next() % 50) as i64,
                },
                7..=8 => Operation::Update {
                    key,
                    value: (next() % 10_000) as i64,
                },
                _ => Operation::Transfer {
                    from: key,
                    to: (key + 1) % ACCOUNTS,
                    amount: (next() % 20) as i64,
                },
            }
        })
        .collect()
}

fn final_states_by_key(rt: &ShardRuntime) -> BTreeMap<String, EntityState> {
    rt.final_states()
        .into_iter()
        .map(|(addr, state)| (addr.key().to_string(), state))
        .collect()
}

/// Concurrent sessions, arbitrary interleaving: the service's *observed*
/// admission order (by call id) replayed through the sequential oracle must
/// reproduce every response and the final states.
#[test]
fn concurrent_sessions_match_oracle_in_admission_order() {
    const SESSIONS: u64 = 3;
    const OPS_PER_SESSION: usize = 120;
    let program = account_program();
    let mut rt = service_runtime(ShardConfig {
        max_inflight_requests: 0, // no shedding: every op must be admitted
        ..base_config()
    });

    // (session, seq) → op, and per-response (call_id → (session, seq, result)).
    let all_ops: Vec<Vec<Operation>> = (0..SESSIONS)
        .map(|s| session_ops(s, OPS_PER_SESSION))
        .collect();

    let (report, responses) = rt
        .serve(|handle| {
            std::thread::scope(|scope| {
                let mut workers = Vec::new();
                for (s, ops) in all_ops.iter().enumerate() {
                    let handle = handle.clone();
                    workers.push(scope.spawn(move || {
                        let mut session = handle.session();
                        let ir = account_program().ir;
                        for op in ops {
                            session.submit(op.to_call(&ir)).expect("admitted");
                        }
                        let responses = session.collect(ops.len());
                        assert_eq!(responses.len(), ops.len(), "session {s} short-answered");
                        (s, responses)
                    }));
                }
                workers
                    .into_iter()
                    .map(|w| w.join().expect("session thread"))
                    .collect::<Vec<_>>()
            })
        })
        .expect("serve");

    // Reconstruct the global admission order by call id.
    let mut by_call_id: BTreeMap<u64, (usize, u64, Result<Value, String>)> = BTreeMap::new();
    for (s, session_responses) in responses {
        for r in session_responses {
            assert!(
                by_call_id.insert(r.call_id, (s, r.seq, r.result)).is_none(),
                "call id {} answered twice",
                r.call_id
            );
        }
    }
    assert_eq!(by_call_id.len(), (SESSIONS as usize) * OPS_PER_SESSION);
    // In service mode the report's egress map is pruned at each seal (the
    // sessions already hold the answers); retained + pruned covers every call.
    assert_eq!(
        report.answered() as u64 + report.egress_pruned,
        by_call_id.len() as u64
    );

    // Replay that exact order through the sequential oracle.
    let mut oracle = program.local_runtime();
    for i in 0..ACCOUNTS {
        oracle.create("Account", &account_init_args(i, 16)).unwrap();
    }
    for (call_id, (s, seq, observed)) in &by_call_id {
        let op = &all_ops[*s][*seq as usize];
        let expected = oracle
            .call_resolved(op.to_call(&program.ir))
            .map_err(|e| e.message);
        assert_eq!(
            observed, &expected,
            "call {call_id} (session {s} seq {seq}) diverged from the oracle"
        );
    }
    let oracle_states: BTreeMap<String, EntityState> = oracle
        .instances_of("Account")
        .into_iter()
        .map(|(key, state)| (key.to_string(), state))
        .collect();
    assert_eq!(final_states_by_key(&rt), oracle_states);
}

/// Overload: a tight submit loop against a small admission bound must shed
/// with the typed error, keep the queue's high-water mark at or under the
/// bound, and apply *none* of the shed calls — the final balance accounts
/// for exactly the admitted credits.
#[test]
fn overload_sheds_typed_never_grows_the_queue() {
    const MAX_INFLIGHT: usize = 8;
    const AMOUNT: i64 = 7;
    let mut rt = service_runtime(ShardConfig {
        max_inflight_requests: MAX_INFLIGHT,
        ..base_config()
    });
    let ir = account_program().ir;

    let (report, (admitted, shed)) = rt
        .serve(|handle| {
            let mut session = handle.session();
            let mut admitted = 0u64;
            let mut shed = 0u64;
            // Outpace the coordinator until shedding engages, then keep
            // pushing a while longer to exercise the steady overloaded state.
            for _ in 0..200_000 {
                let call = ir
                    .resolve_call(
                        "Account",
                        account_key(0),
                        "credit",
                        vec![Value::Int(AMOUNT)],
                    )
                    .unwrap();
                match session.submit(call) {
                    Ok(_) => admitted += 1,
                    Err(ShardError::Overloaded { inflight, max }) => {
                        assert_eq!(max, MAX_INFLIGHT);
                        assert!(inflight >= max, "shed below the bound");
                        shed += 1;
                        if shed > 5_000 {
                            break;
                        }
                    }
                    Err(other) => panic!("unexpected submit error: {other}"),
                }
            }
            let responses = session.collect(admitted as usize);
            assert_eq!(responses.len(), admitted as usize);
            for r in &responses {
                assert!(r.result.is_ok(), "admitted credit failed: {:?}", r.result);
            }
            let stats = handle.stats();
            assert!(
                stats.peak_queue_depth <= MAX_INFLIGHT,
                "queue grew past the admission bound: {} > {MAX_INFLIGHT}",
                stats.peak_queue_depth
            );
            assert_eq!(stats.admitted, admitted);
            assert_eq!(stats.shed, shed);
            (admitted, shed)
        })
        .expect("serve");

    assert!(shed > 0, "the burst never overloaded the front door");
    assert!(admitted > 0, "nothing was admitted");
    assert_eq!(report.answered() as u64 + report.egress_pruned, admitted);
    // Shed calls were never partially applied: the balance moved by exactly
    // the admitted credits.
    let balance = rt.read_field("Account", account_key(0), "balance").unwrap();
    assert_eq!(
        balance,
        Value::Int(INITIAL_BALANCE + AMOUNT * admitted as i64)
    );
}

/// The shedding ablation (`max_inflight_requests = 0`): the same burst is
/// absorbed wholesale — nothing shed, everything answered.
#[test]
fn shedding_off_absorbs_the_whole_burst() {
    const BURST: usize = 2_000;
    let mut rt = service_runtime(ShardConfig {
        max_inflight_requests: 0,
        ..base_config()
    });
    let ir = account_program().ir;

    let (report, admitted) = rt
        .serve(|handle| {
            let mut session = handle.session();
            for i in 0..BURST {
                let call = Operation::Credit {
                    key: i % ACCOUNTS,
                    amount: 1,
                }
                .to_call(&ir);
                session.submit(call).expect("shedding is off");
            }
            let responses = session.collect(BURST);
            assert_eq!(responses.len(), BURST);
            assert_eq!(handle.stats().shed, 0);
            BURST
        })
        .expect("serve");
    assert_eq!(
        report.answered() as u64 + report.egress_pruned,
        admitted as u64
    );
}

/// A write acknowledged to its session becomes visible to the snapshot-
/// isolated read path at the next sealed epoch, and the staleness report is
/// honest: the serving cut catches up to the latest announced cut once the
/// service idles.
#[test]
fn reads_see_sealed_writes_with_staleness_report() {
    let mut rt = service_runtime(base_config());
    let ir = account_program().ir;

    rt.serve(|handle| {
        let addr = account_addr(0);
        // Epoch 0: the baseline cut serves immediately, lag 0.
        let initial = handle.read_field(&addr, "balance");
        assert_eq!(initial.value, Some(Value::Int(INITIAL_BALANCE)));
        assert_eq!(initial.staleness.snapshot_epoch, 0);
        assert_eq!(initial.staleness.lag(), 0);

        let mut session = handle.session();
        session
            .submit(Operation::Update { key: 0, value: 42 }.to_call(&ir))
            .unwrap();
        let response = session
            .recv_timeout(Duration::from_secs(10))
            .expect("write answered");
        assert!(response.result.is_ok());

        // The answered write seals at the idle barrier; poll until the read
        // view advances past it.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let read = handle.read_field(&addr, "balance");
            if read.value == Some(Value::Int(42)) {
                assert!(
                    read.staleness.snapshot_epoch >= 1,
                    "write visible before any post-baseline seal?"
                );
                break;
            }
            assert!(
                Instant::now() < deadline,
                "acknowledged write never became readable; last view: {:?}",
                read.value
            );
            std::thread::yield_now();
        }
        // Quiesced: the view has caught up with the latest announced cut.
        let settled = handle.read_field(&addr, "balance");
        assert_eq!(settled.staleness.lag(), 0);
    })
    .expect("serve");
}

/// `scan_class` at the baseline cut returns every loaded entity with its
/// initial field image; an unknown class scans empty instead of failing.
#[test]
fn scan_class_serves_the_baseline_cut() {
    let mut rt = service_runtime(base_config());
    rt.serve(|handle| {
        let scan = handle.scan_class("Account");
        assert_eq!(scan.value.len(), ACCOUNTS);
        for (addr, fields) in &scan.value {
            assert_eq!(addr.class.name(), "Account");
            let balance = fields
                .iter()
                .find(|(name, _)| name == "balance")
                .map(|(_, v)| v.clone());
            assert_eq!(balance, Some(Value::Int(INITIAL_BALANCE)));
        }
        assert_eq!(scan.staleness.snapshot_epoch, 0);
        assert!(handle.scan_class("NoSuchClass").value.is_empty());
    })
    .expect("serve");
}

/// Fold a class subscription's `StateUpdate` stream over the baseline scan:
/// the replica must finish exactly equal to the runtime's final states —
/// every sealed epoch emitted once, in order, with full post-images.
#[test]
fn cdc_subscription_folds_to_final_states() {
    let mut rt = service_runtime(base_config());
    let ir = account_program().ir;
    let ops = session_ops(7, 200);

    let (report, (baseline, subscription)) = rt
        .serve(|handle| {
            let subscription = handle.subscribe_class("Account");
            let baseline = handle.scan_class("Account").value;
            let mut session = handle.session();
            for op in &ops {
                session.submit(op.to_call(&ir)).expect("admitted");
            }
            let responses = session.collect(ops.len());
            assert_eq!(responses.len(), ops.len());
            // Return the live subscription: the tail epoch seals during the
            // drain, after this closure returns.
            (baseline, subscription)
        })
        .expect("serve");

    let updates = subscription.drain();
    assert!(
        !updates.is_empty(),
        "a write workload must emit CDC updates"
    );
    assert!(report.cdc_updates >= updates.len() as u64);

    // Epochs arrive in non-decreasing order (seal order).
    for pair in updates.windows(2) {
        assert!(pair[0].epoch <= pair[1].epoch, "CDC stream out of order");
    }

    // Fold into a replica keyed by address.
    let mut replica: BTreeMap<EntityAddr, Vec<(String, Value)>> = baseline.into_iter().collect();
    for StateUpdate {
        addr,
        fields,
        deleted,
        ..
    } in updates
    {
        if deleted {
            replica.remove(&addr);
        } else {
            replica.insert(addr, fields);
        }
    }
    let finals: BTreeMap<EntityAddr, Vec<(String, Value)>> = rt
        .final_states()
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
        .collect();
    assert_eq!(replica, finals, "CDC replica diverged from final states");
}

/// Sustained mixed load: two writer sessions under a tight admission bound
/// (retrying on shed), a point-reader, and a class subscriber, all
/// concurrent. The service stays bounded and answers every admitted call
/// exactly once; the subscriber observes updates.
#[test]
fn mixed_oltp_and_subscriber_sustained_load() {
    const MAX_INFLIGHT: usize = 16;
    const WRITES_PER_SESSION: usize = 300;
    let mut rt = service_runtime(ShardConfig {
        max_inflight_requests: MAX_INFLIGHT,
        ..base_config()
    });
    let ir = account_program().ir;

    let (report, cdc_seen) = rt
        .serve(|handle| {
            std::thread::scope(|scope| {
                for writer in 0..2u64 {
                    let handle = handle.clone();
                    let ir = ir.clone();
                    scope.spawn(move || {
                        let mut session = handle.session();
                        let ops = session_ops(writer + 100, WRITES_PER_SESSION);
                        let mut received = 0usize;
                        for op in &ops {
                            loop {
                                match session.submit(op.to_call(&ir)) {
                                    Ok(_) => break,
                                    Err(ShardError::Overloaded { .. }) => {
                                        // Back off: drain whatever answered.
                                        while session.try_recv().is_some() {
                                            received += 1;
                                        }
                                        std::thread::yield_now();
                                    }
                                    Err(other) => panic!("unexpected: {other}"),
                                }
                            }
                        }
                        // Every admitted call answers exactly once.
                        while received < WRITES_PER_SESSION {
                            session
                                .recv_timeout(Duration::from_secs(10))
                                .expect("admitted call answered");
                            received += 1;
                        }
                        assert!(session.try_recv().is_none(), "duplicate delivery");
                    });
                }
                let reader = {
                    let handle = handle.clone();
                    scope.spawn(move || {
                        let addr = account_addr(0);
                        for _ in 0..2_000 {
                            let read = handle.read_field(&addr, "balance");
                            assert!(read.value.is_some());
                            std::thread::yield_now();
                        }
                    })
                };
                let subscription = handle.subscribe_class("Account");
                reader.join().unwrap();
                // Writers joined by scope exit; count what the subscriber saw
                // so far (the tail seals after close).
                subscription
            })
        })
        .expect("serve");

    let tail = cdc_seen.drain().len();
    assert!(report.cdc_updates > 0, "no CDC activity under a write load");
    assert_eq!(
        report.answered() as u64 + report.egress_pruned,
        2 * WRITES_PER_SESSION as u64
    );
    assert!(tail <= report.cdc_updates as usize);
}

/// Submissions after `close` shed with the typed `ServiceClosed` error (no
/// side effects), and the run still drains what was admitted before.
#[test]
fn submissions_after_close_are_rejected_typed() {
    let mut rt = service_runtime(base_config());
    let ir = account_program().ir;
    let (report, admitted_before_close) = rt
        .serve(|handle| {
            let mut session = handle.session();
            session
                .submit(Operation::Credit { key: 0, amount: 5 }.to_call(&ir))
                .unwrap();
            handle.close();
            match session.submit(Operation::Credit { key: 0, amount: 5 }.to_call(&ir)) {
                Err(ShardError::ServiceClosed) => {}
                other => panic!("expected ServiceClosed, got {other:?}"),
            }
            assert!(session
                .recv_timeout(Duration::from_secs(10))
                .expect("pre-close call answered")
                .result
                .is_ok());
            1u64
        })
        .expect("serve");
    assert_eq!(
        report.answered() as u64 + report.egress_pruned,
        admitted_before_close
    );
}

/// A panicking client closure must not wedge the coordinator: the guard
/// closes the front door, the run drains, and the panic resurfaces to the
/// caller of `serve`.
#[test]
fn client_panic_closes_the_front_door_and_resurfaces() {
    let mut rt = service_runtime(base_config());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.serve(|_handle| panic!("client died mid-session"))
    }));
    let payload = outcome.expect_err("the client panic must resurface");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .unwrap_or("<non-str payload>");
    assert!(message.contains("client died"));
    // The runtime survived and can serve again.
    rt.serve(|handle| {
        assert_eq!(handle.scan_class("Account").value.len(), ACCOUNTS);
    })
    .expect("serve after client panic");
}
