//! PR 3 tentpole invariant: the multi-threaded sharded runtime computes
//! *exactly* what the single-threaded `LocalRuntime` oracle computes —
//! response values per call id and final entity states — for every workload
//! mix in the corpus, every key distribution, and shard counts {1, 2, 4, 7}.
//!
//! Determinism is what makes this testable: the coordinator cuts the request
//! stream into deterministic batches and the order-preserving commit rule
//! guarantees commit order == arrival order for every conflicting pair, so a
//! run's outcome is a pure function of the submitted requests — independent
//! of thread scheduling, shard count, and epoch cadence. Responses are
//! compared sorted by `CallId` (the report keys them that way), errors by
//! call-id set, and states field-by-field.

use proptest::prelude::*;
use shard_runtime::{ShardConfig, ShardRuntime};
use stateful_entities::{EntityState, Key, MethodCall, Value};
use std::collections::BTreeMap;
use workloads::{
    account_init_args, account_program, KeyDistribution, Operation, WorkloadMix, WorkloadSpec,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The oracle's answer for one request.
type OracleOutcome = Result<Value, String>;

/// Run `ops` through the sequential oracle, in arrival order.
fn oracle_outcomes(
    record_count: usize,
    ops: &[Operation],
) -> (Vec<OracleOutcome>, BTreeMap<String, EntityState>) {
    let program = account_program();
    let mut oracle = program.local_runtime();
    for i in 0..record_count {
        oracle.create("Account", &account_init_args(i, 16)).unwrap();
    }
    let outcomes = ops
        .iter()
        .map(|op| {
            let call = op.to_call(&program.ir);
            oracle.call_resolved(call).map_err(|e| e.message)
        })
        .collect();
    let states = oracle
        .instances_of("Account")
        .into_iter()
        .map(|(key, state)| (key.to_string(), state))
        .collect();
    (outcomes, states)
}

/// Run the same ops on a sharded deployment and return (per-call outcome,
/// final Account states by key).
fn shard_outcomes(
    config: ShardConfig,
    record_count: usize,
    ops: &[Operation],
) -> (Vec<OracleOutcome>, BTreeMap<String, EntityState>) {
    let program = account_program();
    let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    for i in 0..record_count {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    let calls: Vec<MethodCall> = ops.iter().map(|op| op.to_call(rt.ir())).collect();
    let ids: Vec<u64> = calls.into_iter().map(|c| rt.submit(c).0).collect();
    let report = rt.run().unwrap();
    assert_eq!(
        report.answered(),
        ops.len(),
        "every submitted call must be answered exactly once"
    );
    let outcomes = ids
        .iter()
        .map(|id| match report.responses.get(id) {
            Some(value) => Ok(value.clone()),
            None => Err(report.errors[id].clone()),
        })
        .collect();
    let states = rt
        .final_states()
        .into_iter()
        .map(|(addr, state)| (addr.key().to_string(), state))
        .collect();
    (outcomes, states)
}

/// Compare one workload spec across every shard count against the oracle.
fn assert_equivalent(spec: &WorkloadSpec, config_of: impl Fn(usize) -> ShardConfig) {
    let ops = spec.operations();
    let (oracle_out, oracle_states) = oracle_outcomes(spec.record_count, &ops);
    for shards in SHARD_COUNTS {
        let (out, states) = shard_outcomes(config_of(shards), spec.record_count, &ops);
        assert_eq!(
            out,
            oracle_out,
            "workload {} ({}) diverged from the oracle at {shards} shard(s)",
            spec.mix.name,
            spec.distribution.label(),
        );
        assert_eq!(
            states,
            oracle_states,
            "final states of workload {} ({}) diverged at {shards} shard(s)",
            spec.mix.name,
            spec.distribution.label(),
        );
    }
}

fn corpus_spec(mix: WorkloadMix, distribution: KeyDistribution) -> WorkloadSpec {
    WorkloadSpec {
        mix,
        distribution,
        record_count: 40,
        requests_per_second: 200,
        duration_secs: 2,
        seed: 0xEDB7,
    }
}

#[test]
fn full_corpus_matches_oracle_across_shard_counts() {
    for mix in WorkloadMix::corpus() {
        for distribution in [KeyDistribution::Uniform, KeyDistribution::Zipfian] {
            let spec = corpus_spec(mix, distribution);
            assert_equivalent(&spec, |shards| ShardConfig {
                batch_size: 32,
                epoch_every_batches: 4,
                ..ShardConfig::with_shards(shards)
            });
        }
    }
}

#[test]
fn equivalence_holds_under_aggressive_epochs_and_tiny_batches() {
    // Tiny batches + a barrier every batch stress the transaction-aligned
    // epoch cut; outcome must not depend on either knob.
    let spec = corpus_spec(WorkloadMix::mixed_m(), KeyDistribution::Zipfian);
    assert_equivalent(&spec, |shards| ShardConfig {
        batch_size: 3,
        epoch_every_batches: 1,
        ..ShardConfig::with_shards(shards)
    });
}

#[test]
fn runs_are_deterministic_across_repetitions() {
    // Seed-driven determinism: the same submission sequence produces the
    // same responses and states on every repetition of a multi-threaded run.
    let spec = corpus_spec(WorkloadMix::mixed_m(), KeyDistribution::Uniform);
    let ops = spec.operations();
    let first = shard_outcomes(ShardConfig::with_shards(4), spec.record_count, &ops);
    for _ in 0..2 {
        let again = shard_outcomes(ShardConfig::with_shards(4), spec.record_count, &ops);
        assert_eq!(first, again, "multi-threaded run must be deterministic");
    }
}

#[test]
fn multi_class_split_methods_match_oracle() {
    // FIGURE1: User.buy_item is a split method hopping User → Item → User,
    // with both classes spread across shards — the cross-class, cross-shard
    // continuation path.
    let program = stateful_entities::compile(entity_lang::corpus::FIGURE1_SOURCE).unwrap();
    let users = 6usize;
    let items = 6usize;

    let mut oracle = program.local_runtime();
    for u in 0..users {
        oracle.create("User", &[format!("user{u}").into()]).unwrap();
    }
    for i in 0..items {
        oracle
            .create("Item", &[format!("item{i}").into(), Value::Int(3)])
            .unwrap();
    }

    let script: Vec<MethodCall> = (0..60u64)
        .map(|n| {
            let ir = &program.ir;
            match n % 4 {
                0 => ir
                    .resolve_call(
                        "User",
                        Key::Str(format!("user{}", n as usize % users).into()),
                        "deposit",
                        vec![Value::Int(50)],
                    )
                    .unwrap(),
                1 => ir
                    .resolve_call(
                        "Item",
                        Key::Str(format!("item{}", n as usize % items).into()),
                        "restock",
                        vec![Value::Int(2)],
                    )
                    .unwrap(),
                _ => {
                    let item = Value::entity_ref(
                        "Item",
                        Key::Str(format!("item{}", n as usize % items).into()),
                    );
                    ir.resolve_call(
                        "User",
                        Key::Str(format!("user{}", n as usize % users).into()),
                        "buy_item",
                        vec![Value::Int(1 + (n as i64 % 3)), item],
                    )
                    .unwrap()
                }
            }
        })
        .collect();

    let oracle_out: Vec<OracleOutcome> = script
        .iter()
        .map(|call| oracle.call_resolved(call.clone()).map_err(|e| e.message))
        .collect();

    for shards in SHARD_COUNTS {
        let mut rt = ShardRuntime::new(
            program.ir.clone(),
            ShardConfig {
                batch_size: 8,
                epoch_every_batches: 3,
                ..ShardConfig::with_shards(shards)
            },
        )
        .expect("compiled IR verifies");
        for u in 0..users {
            rt.load_entity("User", &[format!("user{u}").into()])
                .unwrap();
        }
        for i in 0..items {
            rt.load_entity("Item", &[format!("item{i}").into(), Value::Int(3)])
                .unwrap();
        }
        let ids: Vec<u64> = script.iter().map(|c| rt.submit(c.clone()).0).collect();
        let report = rt.run().unwrap();
        let out: Vec<OracleOutcome> = ids
            .iter()
            .map(|id| match report.responses.get(id) {
                Some(v) => Ok(v.clone()),
                None => Err(report.errors[id].clone()),
            })
            .collect();
        assert_eq!(out, oracle_out, "figure1 diverged at {shards} shard(s)");

        for (name, runtime_states) in [("User", users), ("Item", items)] {
            let oracle_states: BTreeMap<String, EntityState> = oracle
                .instances_of(name)
                .into_iter()
                .map(|(k, s)| (k.to_string(), s))
                .collect();
            let shard_states: BTreeMap<String, EntityState> = rt
                .final_states()
                .into_iter()
                .filter(|(addr, _)| addr.entity_name() == name)
                .map(|(addr, s)| (addr.key().to_string(), s))
                .collect();
            assert_eq!(oracle_states.len(), runtime_states);
            assert_eq!(
                shard_states, oracle_states,
                "{name} states diverged at {shards} shard(s)"
            );
        }
    }
}

#[test]
fn knob_matrix_matches_oracle() {
    // The precision features (per-parameter write sets, commutative commit
    // classes, frame-liveness pruning) must produce oracle-identical
    // responses and states. The workload leans on every feature at once:
    // commutative credit storms on a hot key, blind updates, transfers, and
    // audited transfers whose audit ref is read-only under per-param
    // analysis.
    let program = account_program();
    let accounts = 8usize;

    let mut oracle = program.local_runtime();
    for i in 0..accounts {
        oracle.create("Account", &account_init_args(i, 16)).unwrap();
    }

    let key = |i: usize| Key::Str(format!("acc{i}").into());
    let script: Vec<MethodCall> = (0..160u64)
        .map(|n| {
            let ir = &program.ir;
            let a = n as usize % accounts;
            let b = (n as usize + 3) % accounts;
            match n % 6 {
                0 => ir.resolve_call("Account", key(a), "read", vec![]).unwrap(),
                // Hot-key commutative storm: every other op credits acc0.
                1 | 4 => ir
                    .resolve_call(
                        "Account",
                        key(0),
                        "credit",
                        vec![Value::Int(1 + (n as i64 % 7))],
                    )
                    .unwrap(),
                2 => ir
                    .resolve_call("Account", key(a), "update", vec![Value::Int(n as i64 * 3)])
                    .unwrap(),
                3 => ir
                    .resolve_call(
                        "Account",
                        key(a),
                        "transfer",
                        vec![Value::Int(2), Value::entity_ref("Account", key(b))],
                    )
                    .unwrap(),
                _ => ir
                    .resolve_call(
                        "Account",
                        key(a),
                        "transfer_audited",
                        vec![
                            Value::Int(1),
                            Value::entity_ref("Account", key(b)),
                            // Shared read-only audit ref: a read under
                            // per-param analysis, so it never conflicts.
                            Value::entity_ref("Account", key(7)),
                        ],
                    )
                    .unwrap(),
            }
        })
        .collect();

    let oracle_out: Vec<OracleOutcome> = script
        .iter()
        .map(|c| oracle.call_resolved(c.clone()).map_err(|e| e.message))
        .collect();
    let oracle_states: BTreeMap<String, EntityState> = oracle
        .instances_of("Account")
        .into_iter()
        .map(|(k, s)| (k.to_string(), s))
        .collect();

    for shards in [1usize, 4] {
        let mut rt = ShardRuntime::new(
            program.ir.clone(),
            ShardConfig {
                batch_size: 16,
                epoch_every_batches: 3,
                ..ShardConfig::with_shards(shards)
            },
        )
        .expect("compiled IR verifies");
        for i in 0..accounts {
            rt.load_entity("Account", &account_init_args(i, 16))
                .unwrap();
        }
        let ids: Vec<u64> = script.iter().map(|c| rt.submit(c.clone()).0).collect();
        let report = rt.run().unwrap();
        let out: Vec<OracleOutcome> = ids
            .iter()
            .map(|id| match report.responses.get(id) {
                Some(v) => Ok(v.clone()),
                None => Err(report.errors[id].clone()),
            })
            .collect();
        assert_eq!(out, oracle_out, "diverged at {shards} shard(s)");
        let states: BTreeMap<String, EntityState> = rt
            .final_states()
            .into_iter()
            .map(|(addr, s)| (addr.key().to_string(), s))
            .collect();
        assert_eq!(
            states, oracle_states,
            "states diverged at {shards} shard(s)"
        );
    }
}

// ---------------------------------------------------------------------------
// Property: random operation sequences over random keys and seeds
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Read { account: usize },
    Credit { account: usize, amount: i64 },
    Update { account: usize, value: i64 },
    Transfer { from: usize, to: usize, amount: i64 },
}

fn arb_op(accounts: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..accounts).prop_map(|account| Op::Read { account }),
        (0..accounts, 1i64..50).prop_map(|(account, amount)| Op::Credit { account, amount }),
        (0..accounts, 0i64..500).prop_map(|(account, value)| Op::Update { account, value }),
        (0..accounts, 0..accounts, 1i64..20).prop_map(|(from, to, amount)| Op::Transfer {
            from,
            to,
            amount
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Arbitrary operation sequences (including same-account transfers and
    /// hot-key pile-ups) produce oracle-identical responses and states on a
    /// real multi-threaded deployment, for co-prime shard counts.
    #[test]
    fn random_ops_match_oracle(
        ops in prop::collection::vec(arb_op(5), 1..48),
        shards in (0usize..3).prop_map(|i| [2usize, 3, 7][i]),
        batch_size in 1usize..12,
    ) {
        let program = account_program();
        let accounts = 5usize;

        let mut oracle = program.local_runtime();
        for i in 0..accounts {
            oracle.create("Account", &account_init_args(i, 8)).unwrap();
        }
        let mut rt = ShardRuntime::new(
            program.ir.clone(),
            ShardConfig {
                batch_size,
                epoch_every_batches: 2,
                ..ShardConfig::with_shards(shards)
            },
        ).expect("compiled IR verifies");
        for i in 0..accounts {
            rt.load_entity("Account", &account_init_args(i, 8)).unwrap();
        }

        let key = |i: usize| Key::Str(format!("acc{i}").into());
        let calls: Vec<MethodCall> = ops
            .iter()
            .map(|op| {
                let (k, method, args) = match op {
                    Op::Read { account } => (key(*account), "read", vec![]),
                    Op::Credit { account, amount } =>
                        (key(*account), "credit", vec![Value::Int(*amount)]),
                    Op::Update { account, value } =>
                        (key(*account), "update", vec![Value::Int(*value)]),
                    Op::Transfer { from, to, amount } => (
                        key(*from),
                        "transfer",
                        vec![
                            Value::Int(*amount),
                            Value::entity_ref("Account", key(*to)),
                        ],
                    ),
                };
                program.ir.resolve_call("Account", k, method, args).unwrap()
            })
            .collect();

        let oracle_out: Vec<OracleOutcome> = calls
            .iter()
            .map(|c| oracle.call_resolved(c.clone()).map_err(|e| e.message))
            .collect();
        let ids: Vec<u64> = calls.iter().map(|c| rt.submit(c.clone()).0).collect();
        let report = rt.run().unwrap();
        let out: Vec<OracleOutcome> = ids
            .iter()
            .map(|id| match report.responses.get(id) {
                Some(v) => Ok(v.clone()),
                None => Err(report.errors[id].clone()),
            })
            .collect();
        prop_assert_eq!(out, oracle_out);

        let oracle_states: BTreeMap<String, EntityState> = oracle
            .instances_of("Account")
            .into_iter()
            .map(|(k, s)| (k.to_string(), s))
            .collect();
        let shard_states: BTreeMap<String, EntityState> = rt
            .final_states()
            .into_iter()
            .map(|(addr, s)| (addr.key().to_string(), s))
            .collect();
        prop_assert_eq!(shard_states, oracle_states);
    }
}
