//! PR 6 corruption matrix: every flavor of on-disk damage — torn segment
//! tails, flipped checksum bytes, a garbaged manifest, a shard-count
//! mismatch — must surface as a **typed** [`DurableError`] naming the
//! culprit file/offset/epoch. Never a panic, never a silent wrong answer.
//!
//! Also carries the satellite proofs that ride on the same machinery:
//!
//! * **capture spilling** (satellite 1): with `max_pending_captures = 0`
//!   every queued snapshot capture beyond the newest spills to disk, the
//!   run still matches the oracle, and the report counts the spills;
//! * **no orphaned snapshot files** (satellite 2): after in-memory rollback
//!   recovery (which truncates sealed history) the snapshot directory holds
//!   exactly the files the committed manifest references — pruned artifacts
//!   are reaped by post-commit GC, not leaked.

use durable_log::testutil::TempDir;
use durable_log::{DurableError, FaultInjector, SnapshotDir};
use shard_runtime::{DurableConfig, ShardConfig, ShardError, ShardRuntime};
use stateful_entities::MethodCall;
use std::fs;
use std::path::{Path, PathBuf};
use workloads::{account_init_args, account_program, KeyDistribution, WorkloadMix, WorkloadSpec};

const SHARDS: usize = 3;
const ACCOUNTS: usize = 18;

fn workload() -> Vec<MethodCall> {
    let program = account_program();
    let spec = WorkloadSpec {
        mix: WorkloadMix::mixed_m(),
        distribution: KeyDistribution::Zipfian,
        record_count: ACCOUNTS,
        requests_per_second: 150,
        duration_secs: 2,
        seed: 0xBAD5,
    };
    spec.generate()
        .into_iter()
        .map(|(_, op)| op.to_call(&program.ir))
        .collect()
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

fn boot(dir: &Path, fault: &FaultInjector) -> Result<ShardRuntime, ShardError> {
    let program = account_program();
    ShardRuntime::new_durable(program.ir.clone(), config(dir, fault))
}

/// Run the corpus to completion in a fresh durable directory, leaving a
/// committed manifest + log tail behind for the corruption tests to maul.
fn completed_run(dir: &Path) {
    let fault = FaultInjector::new();
    let mut rt = boot(dir, &fault).unwrap();
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    for call in workload() {
        rt.try_submit(call).expect("durable append");
    }
    let report = rt.run().unwrap();
    assert!(report.answered() > 0);
}

/// Segment files of one log partition, sorted by base offset (parsed from
/// the `segment-{base:020}.seg` name).
fn segment_files(dir: &Path, partition: usize) -> Vec<(u64, PathBuf)> {
    let part_dir = dir.join("log").join(format!("p{partition}"));
    let mut files: Vec<(u64, PathBuf)> = fs::read_dir(&part_dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let base: u64 = name
                .strip_prefix("segment-")?
                .strip_suffix(".seg")?
                .parse()
                .ok()?;
            Some((base, e.path()))
        })
        .collect();
    files.sort_by_key(|(base, _)| *base);
    files
}

fn sealed_offsets(dir: &Path) -> Vec<u64> {
    let fault = FaultInjector::new();
    let snapshots = SnapshotDir::open(dir.join("snapshots"), &fault).unwrap();
    snapshots
        .load_manifest()
        .unwrap()
        .expect("a completed run leaves a manifest")
        .offsets
}

fn flip_byte(path: &Path, index_from_end: usize) {
    let mut data = fs::read(path).unwrap();
    let i = data.len() - 1 - index_from_end;
    data[i] ^= 0xFF;
    fs::write(path, data).unwrap();
}

fn expect_durable_err(result: Result<ShardRuntime, ShardError>, context: &str) -> DurableError {
    match result {
        Err(ShardError::Durable { error }) => error,
        Err(other) => panic!("{context}: expected a durable error, got {other}"),
        Ok(_) => panic!("{context}: corruption went undetected"),
    }
}

/// Truncating every segment of a partition below its sealed offset makes the
/// log end before the manifest's commit point. Recovery must refuse with a
/// `CorruptLogRecord` naming the segment and the offset where the log ends —
/// replaying a shorter history would silently fork the deployment.
#[test]
fn log_truncated_below_sealed_offset_is_a_typed_error() {
    let tmp = TempDir::new("corrupt-truncated");
    completed_run(tmp.path());

    let offsets = sealed_offsets(tmp.path());
    let partition = (0..SHARDS)
        .find(|&p| offsets[p] > 0)
        .expect("the corpus seals records on every partition");
    for (_, path) in segment_files(tmp.path(), partition) {
        // 8 bytes is inside the segment header: the file is torn mid-header.
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(8)
            .unwrap();
    }

    let fault = FaultInjector::new();
    let error = expect_durable_err(boot(tmp.path(), &fault), "truncated log");
    match error {
        DurableError::CorruptLogRecord {
            segment,
            offset,
            detail,
        } => {
            assert!(
                offset < offsets[partition],
                "the error points below the sealed offset ({offset} < {})",
                offsets[partition]
            );
            assert!(!segment.is_empty(), "the error names the segment: {detail}");
        }
        other => panic!("expected CorruptLogRecord, got {other}"),
    }
}

/// A flipped byte inside a sealed log record fails its checksum. Because the
/// record is below the commit point the torn-tail trim rule does not apply:
/// recovery reports a `CorruptLogRecord` at the exact offset.
#[test]
fn flipped_byte_in_a_sealed_log_record_is_a_typed_error() {
    let tmp = TempDir::new("corrupt-flip-log");
    completed_run(tmp.path());

    let offsets = sealed_offsets(tmp.path());
    let (partition, first) = (0..SHARDS)
        .filter_map(|p| {
            let files = segment_files(tmp.path(), p);
            let (base, path) = files.first()?.clone();
            (offsets[p] > base).then_some((p, path))
        })
        .next()
        .expect("some partition retains a segment whose first record is sealed");

    // Flip a byte in the first record (just past the segment header); the
    // record no longer decodes — bad length or bad CRC, either is corruption.
    let mut data = fs::read(&first).unwrap();
    data[durable_log::SEGMENT_HEADER_LEN + 4] ^= 0xFF;
    fs::write(&first, data).unwrap();

    let fault = FaultInjector::new();
    let error = expect_durable_err(boot(tmp.path(), &fault), "flipped log byte");
    match error {
        DurableError::CorruptLogRecord { offset, .. } => {
            assert!(
                offset < offsets[partition],
                "the sealed record is the culprit"
            );
        }
        other => panic!("expected CorruptLogRecord, got {other}"),
    }
}

/// A flipped byte in any manifest-referenced snapshot file fails the blob
/// checksum: recovery reports `CorruptSnapshotFile` with the epoch and
/// partition parsed back out of the damaged artifact's envelope.
#[test]
fn flipped_byte_in_a_snapshot_file_is_a_typed_error() {
    let tmp = TempDir::new("corrupt-flip-snap");
    completed_run(tmp.path());

    let snap_dir = tmp.path().join("snapshots");
    let mut snaps = 0;
    for entry in fs::read_dir(&snap_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "snap") {
            flip_byte(&path, 2); // inside the trailing checksum
            snaps += 1;
        }
    }
    assert!(snaps > 0, "a completed run leaves snapshot files");

    let fault = FaultInjector::new();
    let error = expect_durable_err(boot(tmp.path(), &fault), "flipped snapshot byte");
    match error {
        DurableError::CorruptSnapshotFile { path, .. } => {
            assert!(path.ends_with(".snap"), "the error names the file: {path}");
        }
        other => panic!("expected CorruptSnapshotFile, got {other}"),
    }
}

/// A garbaged `MANIFEST` is unreadable — and because the manifest is the
/// commit point there is nothing safe to fall back to. Typed error, no boot.
#[test]
fn corrupted_manifest_is_a_typed_error() {
    let tmp = TempDir::new("corrupt-manifest");
    completed_run(tmp.path());

    flip_byte(&tmp.path().join("snapshots").join("MANIFEST"), 1);

    let fault = FaultInjector::new();
    let error = expect_durable_err(boot(tmp.path(), &fault), "corrupt manifest");
    match error {
        DurableError::CorruptManifest { path, .. } => {
            assert!(
                path.ends_with("MANIFEST"),
                "the error names the file: {path}"
            );
        }
        other => panic!("expected CorruptManifest, got {other}"),
    }
}

/// Booting a directory written by a 3-shard deployment with a 4-shard config
/// is a deployment error, not a recovery path: offsets and key routing would
/// both be wrong. Refused with a typed `CorruptManifest` naming both counts.
#[test]
fn shard_count_mismatch_is_a_typed_error() {
    let tmp = TempDir::new("corrupt-shards");
    completed_run(tmp.path());

    let program = account_program();
    let fault = FaultInjector::new();
    let mut cfg = config(tmp.path(), &fault);
    cfg.shards = SHARDS + 1;
    let error = expect_durable_err(
        ShardRuntime::new_durable(program.ir.clone(), cfg),
        "shard-count mismatch",
    );
    match error {
        DurableError::CorruptManifest { detail, .. } => {
            assert!(
                detail.contains(&SHARDS.to_string()) && detail.contains(&(SHARDS + 1).to_string()),
                "the error names both shard counts: {detail}"
            );
        }
        other => panic!("expected CorruptManifest, got {other}"),
    }
}

/// Satellite 2: snapshot pruning must delete on-disk artifacts. After an
/// in-memory rollback (which truncates sealed epochs and re-seals them) and
/// run completion, the snapshot directory holds exactly the committed
/// manifest's file set — nothing orphaned, nothing missing.
#[test]
fn snapshot_directory_holds_exactly_the_manifest_after_rollback_recovery() {
    use shard_runtime::FailurePlan;
    let tmp = TempDir::new("corrupt-gc");
    let fault = FaultInjector::new();
    let program = account_program();
    let mut rt = ShardRuntime::new_durable(program.ir.clone(), config(tmp.path(), &fault)).unwrap();
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    for call in workload() {
        rt.try_submit(call).expect("durable append");
    }
    let report = rt
        .run_with_failure(FailurePlan::after_delivery(7, 2))
        .unwrap();
    assert_eq!(report.recoveries, 1, "the rollback must fire");
    drop(rt);

    let inspect = FaultInjector::new();
    let snapshots = SnapshotDir::open(tmp.path().join("snapshots"), &inspect).unwrap();
    let manifest = snapshots
        .load_manifest()
        .unwrap()
        .expect("manifest committed");
    let on_disk = snapshots.snapshot_file_count().unwrap();
    assert_eq!(
        on_disk,
        manifest.files.len(),
        "snapshot files on disk must match the manifest exactly"
    );
    for &(epoch, partition, kind) in &manifest.files {
        snapshots
            .get(epoch, partition, kind)
            .unwrap_or_else(|e| panic!("referenced file unreadable: {e}"));
    }
}

/// Satellite 1: with `max_pending_captures = 0` every capture that queues
/// behind another is encoded-and-spilled to disk instead of accumulating in
/// memory. The run must still match the oracle and report the spills.
#[test]
fn capture_spilling_under_zero_budget_stays_correct() {
    let tmp = TempDir::new("corrupt-spill");
    let fault = FaultInjector::new();
    let program = account_program();
    let mut cfg = config(tmp.path(), &fault);
    cfg.epoch_every_batches = 1;
    cfg.max_pending_captures = 0;
    let mut rt = ShardRuntime::new_durable(program.ir.clone(), cfg).unwrap();
    for i in 0..ACCOUNTS {
        rt.load_entity("Account", &account_init_args(i, 16))
            .unwrap();
    }
    let calls = workload();
    for call in &calls {
        rt.try_submit(call.clone()).expect("durable append");
    }
    let report = rt.run().unwrap();
    assert_eq!(report.answered(), calls.len());
    assert!(
        report.captures_spilled > 0,
        "a zero budget with an epoch per batch must spill captures"
    );

    // Oracle equivalence: spilling changes where bytes wait, never what
    // they say.
    let mut oracle = program.local_runtime();
    for i in 0..ACCOUNTS {
        oracle.create("Account", &account_init_args(i, 16)).unwrap();
    }
    for (i, call) in calls.iter().enumerate() {
        match oracle.call_resolved(call.clone()) {
            Ok(value) => assert_eq!(report.responses.get(&(i as u64)), Some(&value)),
            Err(e) => assert_eq!(report.errors.get(&(i as u64)), Some(&e.message)),
        }
    }
}
