//! Durable-codec coverage (satellite 3): property-based round-trips over the
//! segmented log — arbitrary record sizes including 0-byte and
//! larger-than-segment records — plus a "garbage at every byte offset" sweep
//! asserting that decoding never panics and always produces a typed error
//! naming the segment and offset.

use durable_log::testutil::TempDir;
use durable_log::{
    CrashPoint, DurableError, DurableLog, FaultInjector, LogConfig, LogPartition,
    SEGMENT_HEADER_LEN,
};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn small_cfg(window: usize) -> LogConfig {
    LogConfig {
        group_commit_window: window,
        segment_max_bytes: 200,
    }
}

fn segment_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    /// Round trip: append arbitrary records (0-byte payloads and payloads
    /// several times the segment cap included), reopen cold, and read back
    /// bit-for-bit from every starting offset.
    fn roundtrip_survives_cold_reopen(
        records in prop::collection::vec(
            (0u64..1000, prop::collection::vec(0u8..255, 0..700)),
            1..30,
        ),
        window in 1usize..10,
    ) {
        let tmp = TempDir::new("dlog-prop");
        let fault = FaultInjector::new();
        {
            let mut log = LogPartition::create(tmp.path(), small_cfg(window), fault.clone()).unwrap();
            for (i, (key, payload)) in records.iter().enumerate() {
                let off = log.append(*key, payload).unwrap();
                prop_assert_eq!(off, i as u64);
            }
            log.sync().unwrap();
        }
        // Cold reopen with everything sealed: nothing may be trimmed.
        let mut log =
            LogPartition::open(tmp.path(), small_cfg(window), fault, records.len() as u64).unwrap();
        prop_assert_eq!(log.next_offset(), records.len() as u64);
        for from in 0..=records.len() {
            let got = log.read_from(from as u64, usize::MAX).unwrap();
            prop_assert_eq!(got.len(), records.len() - from);
            for (rec, (key, payload)) in got.iter().zip(records[from..].iter()) {
                prop_assert_eq!(rec.key, *key);
                prop_assert_eq!(&rec.payload, payload);
            }
        }
    }
}

#[test]
fn oversized_record_gets_its_own_segment_and_round_trips() {
    let tmp = TempDir::new("dlog-oversize");
    let fault = FaultInjector::new();
    let big = vec![0xAB; 5 * 200]; // 5× segment_max_bytes
    let mut log = LogPartition::create(tmp.path(), small_cfg(1), fault.clone()).unwrap();
    log.append(1, b"small").unwrap();
    log.append(2, &big).unwrap();
    log.append(3, b"").unwrap(); // 0-byte payload after the giant
    assert!(
        log.segment_count() >= 3,
        "the oversized record must roll into its own segment"
    );
    drop(log);
    let mut log = LogPartition::open(tmp.path(), small_cfg(1), fault, 3).unwrap();
    let got = log.read_from(0, 10).unwrap();
    assert_eq!(got.len(), 3);
    assert_eq!(got[1].payload, big);
    assert_eq!(got[2].payload, Vec::<u8>::new());
}

#[test]
fn group_commit_window_gates_the_durable_offset() {
    let tmp = TempDir::new("dlog-window");
    let mut log = LogPartition::create(tmp.path(), small_cfg(4), FaultInjector::new()).unwrap();
    for i in 0..3u64 {
        log.append(i, b"x").unwrap();
    }
    assert_eq!(
        log.durable_offset(),
        0,
        "below the window nothing is synced"
    );
    log.append(3, b"x").unwrap();
    assert_eq!(
        log.durable_offset(),
        4,
        "the 4th append triggers the group fsync"
    );
    log.append(4, b"x").unwrap();
    assert_eq!(log.durable_offset(), 4);
    log.sync().unwrap();
    assert_eq!(log.durable_offset(), 5, "explicit sync catches up");
}

/// A group append ignores the window: however many records it carries, the
/// log issues no fsync until the caller's `sync_all`, which then costs one
/// fsync per partition the group touched — and `syncs` counts exactly those.
#[test]
fn group_append_defers_every_fsync_to_one_sync_all() {
    let tmp = TempDir::new("dlog-group");
    let cfg = LogConfig {
        group_commit_window: 2,
        segment_max_bytes: 1 << 20,
    };
    let mut log = DurableLog::create(tmp.path(), 3, cfg, &FaultInjector::new()).unwrap();
    let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 5]).collect();
    // Keys 0 and 1 only: partition 2 stays empty.
    let group = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| ((i % 2) as u64, p.as_slice()));
    log.append_group(group).unwrap();
    assert_eq!(log.syncs(), 0, "a group append never syncs on its own");
    log.sync_all().unwrap();
    assert_eq!(log.syncs(), 2, "one fsync per partition with appends");
    log.sync_all().unwrap();
    assert_eq!(log.syncs(), 2, "nothing pending, nothing issued");
    // The windowed path still syncs every `window` appends per partition.
    for _ in 0..4 {
        log.append(2, b"w").unwrap();
    }
    assert_eq!(log.syncs(), 4);
    assert_eq!(log.next_offset(0), 10);
    assert_eq!(log.read_from(1, 0, usize::MAX).unwrap().len(), 10);
}

#[test]
fn garbage_at_every_byte_offset_is_a_typed_error_never_a_panic() {
    // Build a two-segment log, seal everything, then flip every single byte
    // of every segment file in turn. With the full log sealed, *any*
    // corruption must surface as CorruptLogRecord naming the segment and a
    // record offset — no panics, no silent trims.
    let tmp = TempDir::new("dlog-sweep");
    let fault = FaultInjector::new();
    let mut committed = 0u64;
    {
        let mut log = LogPartition::create(tmp.path(), small_cfg(1), fault.clone()).unwrap();
        for i in 0..8u64 {
            log.append(i, format!("payload-{i}-{}", "x".repeat(40)).as_bytes())
                .unwrap();
            committed += 1;
        }
    }
    let files = segment_files(tmp.path());
    assert!(files.len() >= 2, "the sweep must cover a non-final segment");

    let mut sweeps = 0usize;
    for file in &files {
        let pristine = fs::read(file).unwrap();
        for pos in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[pos] ^= 0xFF;
            fs::write(file, &bad).unwrap();

            let result = LogPartition::open(tmp.path(), small_cfg(1), fault.clone(), committed);
            match result {
                Err(DurableError::CorruptLogRecord {
                    segment,
                    offset,
                    detail,
                }) => {
                    assert!(
                        !segment.is_empty(),
                        "byte {pos} of {file:?}: the error must name the segment"
                    );
                    assert!(
                        offset <= committed,
                        "byte {pos} of {file:?}: offset {offset} out of range ({detail})"
                    );
                }
                Err(other) => panic!("byte {pos} of {file:?}: unexpected error {other:?}"),
                Ok(_) => panic!(
                    "byte {pos} of {file:?}: corruption below the sealed offset was accepted"
                ),
            }
            sweeps += 1;
            fs::write(file, &pristine).unwrap();
        }
    }
    assert!(sweeps > 2 * SEGMENT_HEADER_LEN, "sanity: the sweep ran");
    // Pristine bytes restored: the log must open cleanly again.
    LogPartition::open(tmp.path(), small_cfg(1), fault, committed).unwrap();
}

#[test]
fn torn_tail_past_the_sealed_offset_is_trimmed_silently() {
    let tmp = TempDir::new("dlog-torn");
    let fault = FaultInjector::new();
    {
        let mut log = LogPartition::create(tmp.path(), small_cfg(1), fault.clone()).unwrap();
        for i in 0..4u64 {
            log.append(i, b"sealed-record").unwrap();
        }
        log.append(4, b"unsealed-tail-record").unwrap();
    }
    // Tear the final record: chop off its last 5 bytes.
    let file = segment_files(tmp.path()).pop().unwrap();
    let data = fs::read(&file).unwrap();
    fs::write(&file, &data[..data.len() - 5]).unwrap();

    // Only 4 records sealed: the torn 5th is past the commit point → trim.
    let mut log = LogPartition::open(tmp.path(), small_cfg(1), fault.clone(), 4).unwrap();
    assert_eq!(log.next_offset(), 4, "the torn record is gone");
    assert_eq!(log.read_from(0, 10).unwrap().len(), 4);
    // Appends continue at the trimmed offset.
    assert_eq!(log.append(9, b"fresh").unwrap(), 4);
    drop(log);

    // Same torn bytes but sealed through offset 5: now it is corruption.
    let data = fs::read(&file).unwrap();
    fs::write(&file, &data[..data.len() - 5]).unwrap();
    let err = LogPartition::open(tmp.path(), small_cfg(1), fault, 5).unwrap_err();
    match err {
        DurableError::CorruptLogRecord { offset, .. } => assert_eq!(offset, 4),
        other => panic!("expected CorruptLogRecord, got {other:?}"),
    }
}

#[test]
fn truncate_before_deletes_whole_segments_and_reopens_clean() {
    let tmp = TempDir::new("dlog-gc");
    let fault = FaultInjector::new();
    let mut log = LogPartition::create(tmp.path(), small_cfg(1), fault.clone()).unwrap();
    for i in 0..20u64 {
        log.append(i, &[0u8; 60]).unwrap();
    }
    let segments_before = log.segment_count();
    assert!(segments_before >= 4);
    let end = log.next_offset();
    let removed = log.truncate_before(end).unwrap();
    assert!(
        removed >= segments_before - 1,
        "all but the active segment go"
    );
    assert!(log.first_offset() > 0, "the GC'd prefix is gone");
    let first = log.first_offset();
    let tail = log.read_from(0, 100).unwrap();
    assert_eq!(tail.first().unwrap().offset, first);
    drop(log);

    // Reopen after GC: offsets keep counting from where the log left off.
    let mut log = LogPartition::open(tmp.path(), small_cfg(1), fault.clone(), end).unwrap();
    assert_eq!(log.next_offset(), end);
    assert_eq!(log.append(99, b"after-gc").unwrap(), end);
    drop(log);

    // A fully GC'd (empty) partition resumes at the sealed offset.
    let empty = TempDir::new("dlog-empty");
    let log = LogPartition::open(empty.path(), small_cfg(1), fault, 7).unwrap();
    assert_eq!(log.next_offset(), 7);
    assert_eq!(log.first_offset(), 7);
}

#[test]
fn mid_append_crash_leaves_a_trimmable_torn_write() {
    let tmp = TempDir::new("dlog-midappend");
    let fault = FaultInjector::new();
    let mut log = LogPartition::create(tmp.path(), small_cfg(1), fault.clone()).unwrap();
    for i in 0..3u64 {
        log.append(i, b"durable").unwrap();
    }
    fault.arm(CrashPoint::MidAppend, 0);
    let err = log.append(3, b"torn-away").unwrap_err();
    assert_eq!(
        err,
        DurableError::CrashInjected {
            point: CrashPoint::MidAppend
        }
    );
    drop(log);
    // Recovery with 3 sealed: the torn 4th record is trimmed, not an error.
    let mut log = LogPartition::open(tmp.path(), small_cfg(1), fault, 3).unwrap();
    assert_eq!(log.next_offset(), 3);
    assert_eq!(log.read_from(0, 10).unwrap().len(), 3);
}

#[test]
fn mid_fsync_crash_keeps_flushed_bytes_but_not_durability() {
    let tmp = TempDir::new("dlog-midfsync");
    let fault = FaultInjector::new();
    let mut log = LogPartition::create(tmp.path(), small_cfg(100), fault.clone()).unwrap();
    log.append(0, b"first").unwrap();
    log.sync().unwrap();
    log.append(1, b"second").unwrap();
    fault.arm(CrashPoint::MidFsync, 0);
    let err = log.sync().unwrap_err();
    assert_eq!(
        err,
        DurableError::CrashInjected {
            point: CrashPoint::MidFsync
        }
    );
    assert_eq!(
        log.durable_offset(),
        1,
        "the skipped fsync must not advance durability"
    );
    drop(log);
    // The bytes did reach the file (flush happened): recovery keeps them —
    // they are past the sealed offset, intact, and replayable.
    let mut log = LogPartition::open(tmp.path(), small_cfg(100), fault, 1).unwrap();
    assert_eq!(log.read_from(0, 10).unwrap().len(), 2);
}
