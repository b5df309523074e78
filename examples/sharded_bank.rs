//! Sharded multi-threaded execution of the banking program, with a
//! mid-run failure and exactly-once recovery.
//!
//! ```sh
//! cargo run --release --example sharded_bank
//! ```
//!
//! The same compiled IR that `quickstart.rs` runs in-process executes here on
//! a real sharded deployment: 4 OS-thread shards, each owning the accounts
//! whose keys hash to it; cross-entity transfers hop shard-to-shard as
//! id-addressed events; every few batches the coordinator takes an
//! epoch-aligned snapshot of all partitions. Halfway through, the run is
//! repeated with a crash injected mid-epoch — the recovered timeline must
//! deliver the exact same responses and balances, and the egress reports how
//! many replayed responses it suppressed.

use shard_runtime::{FailurePlan, ShardConfig, ShardRuntime};
use stateful_entities::{Key, Value};
use workloads::{account_init_args, account_program, INITIAL_BALANCE};

const ACCOUNTS: usize = 16;
const TRANSFERS: u64 = 240;

fn build() -> ShardRuntime {
    let program = account_program();
    let config = ShardConfig {
        shards: 4,
        batch_size: 16,
        epoch_every_batches: 3,
        ..ShardConfig::default()
    };
    let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 32))
            .expect("account loads");
    }
    for i in 0..TRANSFERS {
        let from = format!("acc{}", i % ACCOUNTS as u64);
        let to = Value::entity_ref(
            "Account",
            Key::Str(format!("acc{}", (i * 7 + 1) % ACCOUNTS as u64).into()),
        );
        let call = rt
            .ir()
            .resolve_call(
                "Account",
                Key::Str(from.into()),
                "transfer",
                vec![Value::Int(25), to],
            )
            .expect("transfer resolves");
        rt.submit(call);
    }
    rt
}

fn total_balance(rt: &ShardRuntime) -> i64 {
    (0..ACCOUNTS)
        .map(|i| {
            rt.read_field("Account", Key::Str(format!("acc{i}").into()), "balance")
                .expect("account exists")
                .as_int()
                .expect("balance is an int")
        })
        .sum()
}

fn main() {
    println!("=== healthy run: {TRANSFERS} transfers over {ACCOUNTS} accounts, 4 shards ===");
    let mut healthy = build();
    let report = healthy.run().unwrap();
    println!(
        "answered {} calls in {} batches, {} epochs, {} snapshot bytes ({} deltas), \
         {} cross-shard event batches",
        report.answered(),
        report.batches,
        report.epochs_completed,
        report.snapshot_bytes,
        report.delta_snapshots_taken,
        report.cross_shard_batches,
    );
    println!("per-shard events: {:?}", report.events_per_shard);
    assert_eq!(total_balance(&healthy), ACCOUNTS as i64 * INITIAL_BALANCE);

    println!();
    println!("=== same workload, crash mid-epoch after batch 7 (victim: shard 2) ===");
    let mut failed = build();
    let failed_report = failed
        .run_with_failure(FailurePlan::after_delivery(7, 2))
        .unwrap();
    println!(
        "recovered {} time(s); replay suppressed {} duplicate response(s) at the egress",
        failed_report.recoveries, failed_report.duplicates_suppressed,
    );
    assert_eq!(report.responses, failed_report.responses);
    assert_eq!(healthy.final_states(), failed.final_states());
    assert_eq!(total_balance(&failed), ACCOUNTS as i64 * INITIAL_BALANCE);
    println!("responses and final balances are identical to the healthy run — exactly once.");
}
