//! # durable-log
//!
//! The durable tier of the sharded runtime: a **segmented, checksummed,
//! append-only ingress log** ([`DurableLog`]) plus a **durable snapshot
//! directory** with an atomically committed manifest ([`SnapshotDir`]). This
//! is what lets the engine survive actual process death — the paper's
//! recovery story (durable replayable stream + coordinated snapshots) made
//! concrete on a local filesystem.
//!
//! ## Segment format
//!
//! Each log partition is a directory of segment files named
//! `segment-{base:020}.seg`, where `base` is the offset of the segment's
//! first record (zero-padded so lexicographic order is offset order):
//!
//! ```text
//! ┌───────────────────────── segment header (16 bytes) ─────────────────────┐
//! │ magic "SELG" (4) │ version u32 LE (4) │ base offset u64 LE (8)          │
//! ├──────────────────────────── record 0 ───────────────────────────────────┤
//! │ body len u32 LE (4) │ body crc32 u32 LE (4) │ key u64 LE (8) │ payload  │
//! ├──────────────────────────── record 1 ───────────────────────────────────┤
//! │ ...                                                                     │
//! └─────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! The CRC covers the body (`key ‖ payload`); the length field is
//! bounds-checked before anything is sliced, so *no* byte flip or truncation
//! can make decoding panic — corruption always surfaces as
//! [`DurableError::CorruptLogRecord`] naming the segment file and record
//! offset. A record larger than `segment_max_bytes` gets a single-record
//! segment of its own.
//!
//! ## Fsync & commit-point invariants
//!
//! * **Group commit** — appends are buffered; a sync flushes and fsyncs
//!   them. [`DurableLog::append_group`] appends a whole group and leaves the
//!   one [`DurableLog::sync_all`] to its caller; single [`DurableLog::append`]s
//!   also sync every `group_commit_window` appends ([`LogConfig`]).
//!   [`DurableLog::syncs`] counts the fsyncs actually issued. A record may
//!   only be *dispatched* to workers once a sync has covered it; consequently
//!   every record below a sealed offset is durable by construction.
//! * **Torn tail** — on recovery ([`LogPartition::open`]), a decode failure
//!   in the *final* segment at an offset at or past the sealed offset is a
//!   torn write from the crash and is silently truncated; any failure below
//!   the sealed offset, or in a non-final segment, is a typed error — never
//!   silent data loss.
//! * **What "sealed" means on disk** — the snapshot directory's `MANIFEST`
//!   is the single commit point. Snapshot files are uploaded first (each
//!   individually fsynced), then the manifest naming them is written to a
//!   temp file, fsynced, renamed into place, and the directory fsynced. An
//!   epoch is sealed on disk **iff** the current manifest names it; anything
//!   the manifest does not reference (half-uploaded files, superseded
//!   chains, rolled-back epochs) is garbage and reaped by
//!   [`SnapshotDir::gc`]. A crash before the rename leaves the previous
//!   manifest — and therefore the previous sealed epoch — fully intact.
//!
//! ## Fault injection
//!
//! [`FaultInjector`] arms a one-shot [`CrashPoint`] — mid-append, mid-fsync,
//! mid-upload, or mid-manifest-rename. The primitive simulates the torn
//! on-disk state of a process dying at that instant and returns
//! [`DurableError::CrashInjected`]; recovery then proceeds from the
//! directory alone.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod crc;
mod fault;
mod log;
mod snap;
pub mod testutil;

pub use crate::log::{
    DurableLog, LogConfig, LogPartition, LogRecord, Offset, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN,
    SEGMENT_MAGIC, SEGMENT_VERSION,
};
pub use crc::crc32;
pub use fault::{CrashPoint, FaultInjector};
pub use snap::{
    read_blob, write_blob, Manifest, SnapKind, SnapshotDir, BLOB_MAGIC, MANIFEST_MAGIC,
    SNAPSHOT_MAGIC, SNAP_VERSION,
};

use std::path::Path;

/// Everything that can go wrong in the durable tier. Corruption variants name
/// the file and offset/epoch involved; nothing in this crate panics on bad
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io {
        /// Path the operation targeted.
        path: String,
        /// Stringified `io::Error`.
        detail: String,
    },
    /// A log record (or segment header) failed validation below the sealed
    /// offset — real corruption, not a trimmable torn tail.
    CorruptLogRecord {
        /// Segment file name.
        segment: String,
        /// Offset of the record that failed to decode.
        offset: u64,
        /// What exactly failed.
        detail: String,
    },
    /// A snapshot file failed envelope or checksum validation.
    CorruptSnapshotFile {
        /// Path of the snapshot file.
        path: String,
        /// Epoch the file was expected to hold.
        epoch: u64,
        /// Partition the file was expected to hold.
        partition: usize,
        /// What exactly failed.
        detail: String,
    },
    /// The manifest failed checksum or structural validation.
    CorruptManifest {
        /// Path of the manifest.
        path: String,
        /// What exactly failed.
        detail: String,
    },
    /// An armed [`FaultInjector`] fired: the simulated process death.
    CrashInjected {
        /// Where the crash landed.
        point: CrashPoint,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io { path, detail } => write!(f, "i/o error at {path}: {detail}"),
            DurableError::CorruptLogRecord {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "corrupt log record in {segment} at offset {offset}: {detail}"
            ),
            DurableError::CorruptSnapshotFile {
                path,
                epoch,
                partition,
                detail,
            } => write!(
                f,
                "corrupt snapshot file {path} (epoch {epoch}, partition {partition}): {detail}"
            ),
            DurableError::CorruptManifest { path, detail } => {
                write!(f, "corrupt manifest {path}: {detail}")
            }
            DurableError::CrashInjected { point } => {
                write!(f, "injected crash at {point}")
            }
        }
    }
}

impl std::error::Error for DurableError {}

pub(crate) fn io_err(path: &Path, e: &std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.to_string_lossy().into_owned(),
        detail: e.to_string(),
    }
}
