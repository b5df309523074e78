//! PR 10 tentpole suite: seeded schedule exploration with the concurrency
//! monitor armed, plus the detector's own proof harness.
//!
//! * **Sweep** — the full equivalence corpus runs under N seeded
//!   [`SchedulePlan`]s (bounded delays on channel sends and barrier acks,
//!   permuted fan-out orders). Every interleaving must stay oracle-equal,
//!   race-free (no unordered access pair on any partition, cut, or the
//!   snapshot store) and order-certified (the committed schedule re-derives
//!   to arrival order under the Aria rule, from footprints alone).
//! * **Seeded defects** — mirroring PR 9's IR mutation matrix: a deliberately
//!   dropped happens-before edge (barrier-ack stamp) and a deliberately
//!   mis-masked conflict pair must each trip their *specific* diagnostic,
//!   naming the partition / the batch and `(class, key)` pair. A detector
//!   that has never caught a planted bug proves nothing.
//! * **Fault matrix** — the 12-point `shard_recovery` injection matrix runs
//!   monitor-armed: recovery (worker respawn, timeline rollback, replay)
//!   must itself be race-free and order-certified, not just end-state
//!   correct.
//! * **Durable serve** — a `new_durable` runtime serving a session under 8
//!   schedule seeds: the durable writer's hand-off and notice edges must
//!   order every log group's fsync before the records it covers dispatch;
//!   a dropped notice stamp (a third seeded defect) must trip the race.

use durable_log::testutil::TempDir;
use racecheck::{Monitor, Resource, SchedulePlan};
use shard_runtime::{DurableConfig, FailureMode, FailurePlan, ShardConfig, ShardRuntime};
use stateful_entities::{EntityState, Key, MethodCall, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use workloads::{
    account_init_args, account_program, KeyDistribution, Operation, WorkloadMix, WorkloadSpec,
};

const SHARDS: usize = 3;

/// Schedule seeds per workload mix (the acceptance bar is ≥ 32).
const SEEDS: u64 = 32;

fn sweep_spec(mix: WorkloadMix, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        mix,
        distribution: KeyDistribution::Zipfian,
        record_count: 16,
        requests_per_second: 75,
        duration_secs: 2,
        seed,
    }
}

type Outcome = Result<Value, String>;

fn oracle_outcomes(
    record_count: usize,
    ops: &[Operation],
) -> (Vec<Outcome>, BTreeMap<String, EntityState>) {
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

/// Run `ops` on a monitored, schedule-perturbed deployment.
fn monitored_outcomes(
    config: ShardConfig,
    record_count: usize,
    ops: &[Operation],
) -> (Vec<Outcome>, BTreeMap<String, EntityState>) {
    let program = account_program();
    let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    for i in 0..record_count {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    let ids: Vec<u64> = ops
        .iter()
        .map(|op| rt.submit(op.to_call(rt.ir())).0)
        .collect();
    let report = rt.run().unwrap();
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

fn monitored_config(seed: u64, monitor: &Arc<Monitor>) -> ShardConfig {
    ShardConfig {
        batch_size: 8,
        epoch_every_batches: 2,
        monitor: Some(Arc::clone(monitor)),
        schedule: Some(SchedulePlan::seeded(seed)),
        ..ShardConfig::with_shards(SHARDS)
    }
}

/// The tentpole sweep: corpus × seeds, every run oracle-equal, race-free,
/// and order-certified. "Passes on the interleaving we happened to get"
/// becomes "passes on every adversarial interleaving we can seed."
#[test]
fn corpus_sweep_is_race_free_and_order_certified() {
    for mix in WorkloadMix::corpus() {
        let spec = sweep_spec(mix, 0xEDB7);
        let ops = spec.operations();
        let (oracle_out, oracle_states) = oracle_outcomes(spec.record_count, &ops);
        for seed in 0..SEEDS {
            let monitor = Monitor::armed();
            let (out, states) =
                monitored_outcomes(monitored_config(seed, &monitor), spec.record_count, &ops);
            assert_eq!(
                out, oracle_out,
                "mix {} seed {seed}: perturbed schedule diverged from the oracle",
                spec.mix.name
            );
            assert_eq!(
                states, oracle_states,
                "mix {} seed {seed}: final states diverged under perturbation",
                spec.mix.name
            );
            let stats = monitor.stats();
            assert!(
                monitor.is_clean(),
                "mix {} seed {seed}: monitor flagged the run:\n{}",
                spec.mix.name,
                monitor.report()
            );
            // The monitor must have actually engaged — a detector that saw
            // zero accesses or certified zero batches vacuously "passes".
            assert!(
                stats.accesses > 0 && stats.stamps > 0 && stats.joins > 0,
                "mix {} seed {seed}: detector never engaged ({stats:?})",
                spec.mix.name
            );
            assert!(
                stats.batches_certified > 0 && stats.calls_certified >= ops.len() as u64,
                "mix {} seed {seed}: certifier never engaged ({stats:?})",
                spec.mix.name
            );
        }
    }
}

/// Serve `ops` from one session (8 in flight) on a `new_durable` runtime in
/// a fresh directory: the report, every outcome in submission order, and
/// the final states by key.
fn durable_serve(
    config: ShardConfig,
    record_count: usize,
    ops: &[Operation],
) -> (
    shard_runtime::ShardReport,
    Vec<Outcome>,
    BTreeMap<String, EntityState>,
) {
    const IN_FLIGHT: usize = 8;
    let program = account_program();
    let tmp = TempDir::new("race-durable");
    let config = ShardConfig {
        durable: Some(DurableConfig::new(tmp.path())),
        ..config
    };
    let mut rt =
        ShardRuntime::new_durable(program.ir.clone(), config).expect("boot durable runtime");
    for i in 0..record_count {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    let (report, out) = rt
        .serve(|handle| {
            let mut session = handle.session();
            let mut out: BTreeMap<u64, Outcome> = BTreeMap::new();
            for (sent, op) in ops.iter().enumerate() {
                if sent - out.len() == IN_FLIGHT {
                    let response = session
                        .recv_timeout(std::time::Duration::from_secs(30))
                        .expect("answered");
                    out.insert(response.seq, response.result);
                }
                session.submit(op.to_call(&program.ir)).expect("admitted");
            }
            for response in session.collect(ops.len() - out.len()) {
                out.insert(response.seq, response.result);
            }
            out
        })
        .expect("durable serve");
    let states = rt
        .final_states()
        .into_iter()
        .map(|(addr, state)| (addr.key().to_string(), state))
        .collect();
    (report, out.into_values().collect(), states)
}

/// The durable path under the monitor: a `new_durable` runtime serving one
/// session, 8 schedule seeds. The durable writer is a monitored role whose
/// two edges — the coordinator's hand-off of each log group and the
/// writer's post-fsync notice — are the only order between a group's fsync
/// and the dispatch of its records; every run must stay race-free,
/// order-certified, and oracle-equal.
#[test]
fn durable_serve_sweep_is_race_free_and_order_certified() {
    const DURABLE_SEEDS: u64 = 8;
    let spec = sweep_spec(WorkloadMix::mixed_m(), 0xD0C5);
    let ops = spec.operations();
    let (oracle_out, oracle_states) = oracle_outcomes(spec.record_count, &ops);
    for seed in 0..DURABLE_SEEDS {
        let monitor = Monitor::armed();
        let (report, out, states) =
            durable_serve(monitored_config(seed, &monitor), spec.record_count, &ops);
        assert_eq!(
            out, oracle_out,
            "seed {seed}: durable serve diverged from the oracle"
        );
        assert_eq!(states, oracle_states, "seed {seed}: final states diverged");
        assert!(
            monitor.is_clean(),
            "seed {seed}: monitor flagged the durable run:\n{}",
            monitor.report()
        );
        assert!(report.log_syncs > 0, "seed {seed}: no group commit ran");
        let stats = monitor.stats();
        assert!(
            stats.batches_certified > 0 && stats.calls_certified >= ops.len() as u64,
            "seed {seed}: certifier never engaged ({stats:?})"
        );
    }
}

/// Identical submissions + identical schedule seed ⇒ identical outcome.
/// The perturbation is part of the deterministic state, not new entropy.
#[test]
fn perturbed_runs_are_deterministic_per_seed() {
    let spec = sweep_spec(WorkloadMix::mixed_m(), 0xEDB7);
    let ops = spec.operations();
    let first = monitored_outcomes(
        monitored_config(41, &Monitor::armed()),
        spec.record_count,
        &ops,
    );
    let again = monitored_outcomes(
        monitored_config(41, &Monitor::armed()),
        spec.record_count,
        &ops,
    );
    assert_eq!(first, again, "same seed must replay the same outcome");
}

// ---------------------------------------------------------------------------
// Seeded defects: the detector must catch the bugs we plant
// ---------------------------------------------------------------------------

/// Dropping the barrier-ack stamp severs the one happens-before edge that
/// orders a worker's capture write before the coordinator's snapshot-byte
/// read. The detector must flag exactly that: an unordered access pair on a
/// [`Resource::PartitionCut`], naming the partition.
#[test]
fn dropped_barrier_ack_stamp_trips_the_cut_race() {
    let program = account_program();
    let monitor = Monitor::armed();
    let config = ShardConfig {
        batch_size: 8,
        epoch_every_batches: 2,
        // The snapshot bytes travel in a separate, unstamped `SnapshotBytes`
        // message queued FIFO behind the stamped barrier ack on the same
        // channel, so the ack stamp is the *only* edge ordering capture
        // against absorb — exactly the edge the defect removes.
        monitor: Some(Arc::clone(&monitor)),
        defect: racecheck::DefectPlan {
            drop_barrier_ack_stamp: true,
            mis_mask_batch: None,
            drop_durable_notice_stamp: false,
        },
        ..ShardConfig::with_shards(SHARDS)
    };
    let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    for i in 0..12 {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    let key = |i: usize| Key::Str(format!("acc{i}").into());
    for n in 0..64u64 {
        let call = program
            .ir
            .resolve_call(
                "Account",
                key(n as usize % 12),
                "credit",
                vec![Value::Int(1)],
            )
            .unwrap();
        rt.submit(call);
    }
    rt.run().unwrap();

    let races = monitor.races();
    let cut_races: Vec<_> = races
        .iter()
        .filter(|r| matches!(r.resource, Resource::PartitionCut { .. }))
        .collect();
    assert!(
        !cut_races.is_empty(),
        "dropping the barrier-ack stamp must surface an unordered cut access; \
         monitor saw: {}",
        monitor.report()
    );
    // The diagnostic names the partition: a real debugging artifact, not a
    // boolean.
    let named = cut_races.iter().any(|r| {
        let text = r.to_string();
        text.contains("partition") && text.contains("cut at epoch")
    });
    assert!(
        named,
        "cut-race diagnostic must name the partition and epoch: {cut_races:?}"
    );
    // And it is the capture-vs-absorb pair specifically.
    assert!(
        cut_races.iter().any(|r| {
            r.prior.context.contains("barrier capture")
                && r.current.context.contains("absorb snapshot bytes")
        }),
        "diagnostic must pin the capture/absorb pair: {cut_races:?}"
    );
}

/// Dropping the durable writer's notice stamp severs the edge that orders a
/// log group's fsync before the coordinator admits its records for
/// dispatch. The detector must flag exactly that: a write-read race on a
/// [`Resource::LogGroup`] between the writer's fsync and the admission.
#[test]
fn dropped_durable_notice_stamp_trips_the_log_group_race() {
    let spec = sweep_spec(WorkloadMix::mixed_m(), 0xD0C5);
    let ops = spec.operations();
    let monitor = Monitor::armed();
    let config = ShardConfig {
        batch_size: 8,
        epoch_every_batches: 2,
        monitor: Some(Arc::clone(&monitor)),
        defect: racecheck::DefectPlan {
            drop_durable_notice_stamp: true,
            ..racecheck::DefectPlan::default()
        },
        ..ShardConfig::with_shards(SHARDS)
    };
    let (report, _, _) = durable_serve(config, spec.record_count, &ops);
    assert!(report.log_syncs > 0, "no group commit ran");
    let races = monitor.races();
    assert!(
        races
            .iter()
            .any(|race| matches!(race.resource, Resource::LogGroup(_))
                && race.kind == "write-read"
                && race.prior.context == "group commit fsync"
                && race.current.context == "admit durable records"),
        "the dropped notice stamp went undetected:\n{}",
        monitor.report()
    );
}

/// Mis-masking one conflict pair makes the engine dispatch two genuinely
/// conflicting calls in one batch. The certifier — which re-derives the
/// conflict rule from footprints independently — must flag an intra-batch
/// violation naming the batch and the `(class, key)` pair.
#[test]
fn mis_masked_conflict_pair_trips_the_certifier() {
    let program = account_program();
    let monitor = Monitor::armed();
    let config = ShardConfig {
        batch_size: 8,
        epoch_every_batches: 4,
        monitor: Some(Arc::clone(&monitor)),
        defect: racecheck::DefectPlan {
            drop_barrier_ack_stamp: false,
            mis_mask_batch: Some(1),
            drop_durable_notice_stamp: false,
        },
        ..ShardConfig::with_shards(SHARDS)
    };
    let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    rt.load_entity("Account", &account_init_args(0, 16))
        .unwrap();
    // Every call writes the same key exclusively: batch 1 can legally commit
    // only one of them; the defect force-commits a second.
    let calls: Vec<MethodCall> = (0..16)
        .map(|n| {
            program
                .ir
                .resolve_call(
                    "Account",
                    Key::Str("acc0".into()),
                    "update",
                    vec![Value::Int(n)],
                )
                .unwrap()
        })
        .collect();
    for call in calls {
        rt.submit(call);
    }
    rt.run().unwrap();

    let violations = monitor.certifier_violations();
    assert!(
        !violations.is_empty(),
        "force-committing a conflicting pair must trip the certifier"
    );
    let intra = violations
        .iter()
        .find(|v| v.kind == racecheck::CertViolationKind::IntraBatch)
        .unwrap_or_else(|| panic!("expected an intra-batch violation, got {violations:?}"));
    assert_eq!(
        intra.batch, 1,
        "the violation must name the mis-masked batch"
    );
    // Both sides' footprints carry the shared key with an exclusive-write
    // mask, and the diagnostic names the (class, key) pair.
    assert!(
        intra.call.1.iter().any(|(k, _)| *k == intra.key)
            && intra.other.1.iter().any(|(k, _)| *k == intra.key),
        "both footprints must contain the conflicting key: {intra:?}"
    );
    let text = intra.to_string();
    assert!(
        text.contains("batch 1") && text.contains("class"),
        "diagnostic must name batch and class/key: {text}"
    );
}

/// A clean engine under the same workloads as the defect tests: the
/// detector's specificity check (no false alarm without a planted bug).
#[test]
fn undefected_runs_stay_clean_under_both_defect_workloads() {
    let program = account_program();
    let monitor = Monitor::armed();
    let config = ShardConfig {
        batch_size: 8,
        epoch_every_batches: 2,
        monitor: Some(Arc::clone(&monitor)),
        ..ShardConfig::with_shards(SHARDS)
    };
    let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    rt.load_entity("Account", &account_init_args(0, 16))
        .unwrap();
    for n in 0..16 {
        let call = program
            .ir
            .resolve_call(
                "Account",
                Key::Str("acc0".into()),
                "update",
                vec![Value::Int(n)],
            )
            .unwrap();
        rt.submit(call);
    }
    rt.run().unwrap();
    assert!(
        monitor.is_clean(),
        "clean engine must not alarm:\n{}",
        monitor.report()
    );
}

// ---------------------------------------------------------------------------
// Monitor-armed fault matrix
// ---------------------------------------------------------------------------

/// The 12-point `shard_recovery` injection matrix, monitor-armed: worker
/// respawn, timeline rollback, and ingress replay must be race-free and
/// order-certified — recovery is exactly where hand-rolled threading rots.
#[test]
fn recovery_fault_matrix_is_race_free_and_order_certified() {
    const ACCOUNTS: usize = 18;
    let program = account_program();
    let spec = WorkloadSpec {
        mix: WorkloadMix::mixed_m(),
        distribution: KeyDistribution::Zipfian,
        record_count: ACCOUNTS,
        requests_per_second: 150,
        duration_secs: 2,
        seed: 0x5EED,
    };
    let calls: Vec<MethodCall> = spec
        .generate()
        .into_iter()
        .map(|(_, op)| op.to_call(&program.ir))
        .collect();

    let build = |monitor: &Arc<Monitor>| {
        let config = ShardConfig {
            batch_size: 8,
            epoch_every_batches: 2,
            monitor: Some(Arc::clone(monitor)),
            ..ShardConfig::with_shards(SHARDS)
        };
        let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
        for i in 0..ACCOUNTS {
            rt.load_entity("Account", &account_init_args(i, 16))
                .unwrap();
        }
        for call in &calls {
            rt.submit(call.clone());
        }
        rt
    };

    let healthy_monitor = Monitor::armed();
    let mut healthy = build(&healthy_monitor);
    let healthy_report = healthy.run().unwrap();
    let healthy_states = healthy.final_states();
    assert!(
        healthy_monitor.is_clean(),
        "failure-free monitored run:\n{}",
        healthy_monitor.report()
    );

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

        let monitor = Monitor::armed();
        let mut failed = build(&monitor);
        let report = failed.run_with_failure(plan).unwrap();
        assert_eq!(report.recoveries, 1, "seed {seed}: the plan must fire");
        assert_eq!(
            report.responses, healthy_report.responses,
            "seed {seed} ({plan:?}): responses diverged"
        );
        assert_eq!(
            failed.final_states(),
            healthy_states,
            "seed {seed} ({plan:?}): final states diverged"
        );
        assert!(
            monitor.is_clean(),
            "seed {seed} ({plan:?}): recovery tripped the monitor:\n{}",
            monitor.report()
        );
        let stats = monitor.stats();
        assert!(
            stats.batches_certified > 0,
            "seed {seed}: certifier must have re-certified the replay"
        );
    }
}
