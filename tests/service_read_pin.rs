//! PR 8 structural pin: the snapshot-isolated read path executes **zero**
//! pipeline batches and **zero** codec work.
//!
//! The proof is counter-based, not timing-based:
//!
//! * `ShardReport::batches` counts every transaction batch the pipeline
//!   dispatched — a pure-read service run must report `0`, and a
//!   one-write-then-many-reads run must report exactly `1`.
//! * `state_backend::codec_stats` counts every snapshot encode/decode in the
//!   process. Once the lone write's epoch has sealed and the encoder has
//!   quiesced, ten thousand point reads and class scans must move those
//!   counters by exactly zero — reads are served from the already-decoded
//!   sealed cut, never by re-encoding or re-decoding state.
//!
//! The codec counters are **process-global** (relaxed atomics), so this pin
//! lives in its own integration-test binary and runs as a single `#[test]`:
//! no concurrent test in this process can perturb the counters.

use shard_runtime::{ShardConfig, ShardRuntime};
use stateful_entities::Value;
use std::time::{Duration, Instant};
use workloads::{account_addr, account_init_args, account_program, Operation, INITIAL_BALANCE};

const SHARDS: usize = 3;
const ACCOUNTS: usize = 12;
const READS: usize = 10_000;
const SCANS: usize = 200;

fn service_runtime() -> ShardRuntime {
    let program = account_program();
    let mut rt = ShardRuntime::new(
        program.ir.clone(),
        ShardConfig {
            batch_size: 8,
            epoch_every_batches: 4,
            ..ShardConfig::with_shards(SHARDS)
        },
    )
    .expect("compiled IR verifies");
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    rt
}

/// Wait until the background encoder has gone quiet: two identical codec
/// readings 25ms apart.
fn quiesce_codec() -> state_backend::codec_stats::CodecStats {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let a = state_backend::codec_stats::current();
        std::thread::sleep(Duration::from_millis(25));
        let b = state_backend::codec_stats::current();
        if a == b {
            return b;
        }
        assert!(Instant::now() < deadline, "codec never quiesced");
    }
}

#[test]
fn snapshot_reads_execute_zero_pipeline_batches_and_zero_codec_work() {
    // Phase 1: a pure-read service run dispatches no batches and takes no
    // post-baseline snapshots — reads never enter the pipeline at all.
    let mut rt = service_runtime();
    let (report, _) = rt
        .serve(|handle| {
            let addr = account_addr(0);
            for _ in 0..1_000 {
                let read = handle.read_field(&addr, "balance");
                assert_eq!(read.value, Some(Value::Int(INITIAL_BALANCE)));
                assert_eq!(read.staleness.snapshot_epoch, 0);
            }
            assert_eq!(handle.scan_class("Account").value.len(), ACCOUNTS);
            assert_eq!(handle.stats().admitted, 0);
        })
        .expect("pure-read serve");
    assert_eq!(
        report.batches, 0,
        "a read-only service run dispatched batches"
    );
    assert_eq!(report.snapshots_taken, 0);

    // Phase 2: one write, then a read storm. After the write's epoch seals
    // and the encoder quiesces, the storm must move the codec counters by
    // exactly zero and the batch count must stay at the write's single batch.
    let mut rt = service_runtime();
    let ir = account_program().ir;
    let (report, codec_delta) = rt
        .serve(|handle| {
            let addr = account_addr(0);
            let mut session = handle.session();
            session
                .submit(
                    Operation::Update {
                        key: 0,
                        value: 4242,
                    }
                    .to_call(&ir),
                )
                .expect("admitted");
            assert!(session
                .recv_timeout(Duration::from_secs(10))
                .expect("write answered")
                .result
                .is_ok());

            // Wait for the write to become readable (its epoch sealed) …
            let deadline = Instant::now() + Duration::from_secs(10);
            while handle.read_field(&addr, "balance").value != Some(Value::Int(4242)) {
                assert!(Instant::now() < deadline, "sealed write never visible");
                std::thread::yield_now();
            }
            // … and for the off-barrier encoder to go quiet.
            let baseline = quiesce_codec();

            for i in 0..READS {
                let read = handle.read_field(&account_addr(i % ACCOUNTS), "balance");
                assert!(read.value.is_some());
                assert!(read.staleness.snapshot_epoch >= 1);
            }
            for _ in 0..SCANS {
                assert_eq!(handle.scan_class("Account").value.len(), ACCOUNTS);
            }
            state_backend::codec_stats::current().since(&baseline)
        })
        .expect("write-then-read serve");

    assert_eq!(
        report.batches, 1,
        "the read storm leaked into the pipeline: {} batches for 1 write",
        report.batches
    );
    let zero = state_backend::codec_stats::CodecStats {
        encode_calls: 0,
        encoded_entities: 0,
        decode_calls: 0,
        decoded_entities: 0,
    };
    assert_eq!(
        codec_delta, zero,
        "{READS} reads + {SCANS} scans performed codec work: {codec_delta:?}"
    );
}
