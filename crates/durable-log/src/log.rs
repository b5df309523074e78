//! The segmented, checksummed, append-only ingress log.
//!
//! One [`LogPartition`] per ingress partition, each its own directory of
//! segment files (see the crate docs for the byte-level format). Appends go
//! through a buffered writer; only a [`sync`](LogPartition::sync) (flush +
//! `fdatasync`) advances the durable offset. [`LogPartition::append`] also
//! syncs every `group_commit_window` appends; a group append
//! ([`DurableLog::append_group`]) never does, leaving the one sync to the
//! caller. [`DurableLog`] bundles the partitions of one topic and mirrors the
//! offset-addressed read/truncate surface of the in-memory `mq::Broker`.

use crate::crc::crc32;
use crate::fault::{CrashPoint, FaultInjector};
use crate::{io_err, DurableError};
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Offset of a record within a partition (dense, starts at 0, survives GC).
pub type Offset = u64;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"SELG";
/// On-disk format version written into every segment header.
pub const SEGMENT_VERSION: u32 = 1;
/// Segment header: magic (4) + version (4) + base offset (8).
pub const SEGMENT_HEADER_LEN: usize = 16;
/// Per-record header: body length (4) + body crc (4).
pub const RECORD_HEADER_LEN: usize = 8;

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Offset within the partition.
    pub offset: Offset,
    /// Partitioning key the producer supplied.
    pub key: u64,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Tuning knobs for the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// [`LogPartition::append`] fsyncs after this many appends (1 = sync
    /// every append). Group appends ([`DurableLog::append_group`]) ignore it:
    /// their caller issues one [`DurableLog::sync_all`] per group. The tail
    /// past the last sync is *not* durable and may be torn by a crash.
    pub group_commit_window: usize,
    /// Roll to a new segment once the active one exceeds this size. A single
    /// record larger than the limit gets a segment of its own.
    pub segment_max_bytes: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            group_commit_window: 8,
            segment_max_bytes: 64 * 1024,
        }
    }
}

#[derive(Debug)]
struct Segment {
    base: Offset,
    records: u64,
    bytes: u64,
    path: PathBuf,
}

impl Segment {
    fn end(&self) -> Offset {
        self.base + self.records
    }

    fn file_name(&self) -> String {
        self.path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    }
}

fn segment_file_name(base: Offset) -> String {
    // Zero-padded so lexicographic order equals offset order.
    format!("segment-{base:020}.seg")
}

fn parse_segment_base(name: &str) -> Option<Offset> {
    name.strip_prefix("segment-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn encode_header(base: Offset) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[0..4].copy_from_slice(&SEGMENT_MAGIC);
    h[4..8].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&base.to_le_bytes());
    h
}

/// Encode one record: `[body len][body crc][key][payload]`, crc over the body
/// (`key ‖ payload`).
fn encode_record(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + payload.len());
    body.extend_from_slice(&key.to_le_bytes());
    body.extend_from_slice(payload);
    let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&body).to_le_bytes());
    rec.extend_from_slice(&body);
    rec
}

/// Decode the record starting at `pos`. Returns `(key, payload, next_pos)` or
/// a human-readable reason why the bytes are not a valid record.
fn decode_record_at(data: &[u8], pos: usize) -> Result<(u64, Vec<u8>, usize), String> {
    let remaining = data.len() - pos;
    if remaining < RECORD_HEADER_LEN {
        return Err(format!(
            "truncated record header ({remaining} of {RECORD_HEADER_LEN} bytes)"
        ));
    }
    let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
    if len < 8 {
        return Err(format!("record body length {len} is shorter than its key"));
    }
    let stored_crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
    let body_start = pos + RECORD_HEADER_LEN;
    let Some(body_end) = body_start.checked_add(len).filter(|&e| e <= data.len()) else {
        return Err(format!(
            "record body of {len} bytes extends past the end of the segment"
        ));
    };
    let body = &data[body_start..body_end];
    let actual = crc32(body);
    if actual != stored_crc {
        return Err(format!(
            "record checksum mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
        ));
    }
    let key = u64::from_le_bytes(body[0..8].try_into().unwrap());
    Ok((key, body[8..].to_vec(), body_end))
}

/// One partition of the durable ingress log: a directory of segment files
/// plus an open writer on the newest (active) segment.
#[derive(Debug)]
pub struct LogPartition {
    dir: PathBuf,
    cfg: LogConfig,
    fault: FaultInjector,
    segments: Vec<Segment>,
    writer: Option<BufWriter<File>>,
    next_offset: Offset,
    durable_offset: Offset,
    pending_appends: usize,
    /// `fdatasync`s this partition actually issued (see [`DurableLog::syncs`]).
    syncs: u64,
}

impl LogPartition {
    /// Create a fresh partition at `dir` (created if absent, must hold no
    /// segments yet — otherwise this is equivalent to `open` at offset 0).
    pub fn create(
        dir: impl Into<PathBuf>,
        cfg: LogConfig,
        fault: FaultInjector,
    ) -> Result<Self, DurableError> {
        Self::open(dir, cfg, fault, 0)
    }

    /// Open (recover) a partition from `dir`.
    ///
    /// `committed` is the partition's last *sealed* offset (exclusive): every
    /// record below it is part of recovered state and must decode, so any
    /// corruption there is a typed [`DurableError::CorruptLogRecord`]. A
    /// decode failure at or past `committed`, in the **final** segment only,
    /// is a torn tail from a crash mid-write: it is silently truncated to the
    /// last whole record. If the directory is empty the partition resumes at
    /// `committed` (a fully garbage-collected log).
    pub fn open(
        dir: impl Into<PathBuf>,
        cfg: LogConfig,
        fault: FaultInjector,
        committed: Offset,
    ) -> Result<Self, DurableError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, &e))?;

        let mut files: Vec<(Offset, PathBuf)> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err(&dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&dir, &e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(base) = parse_segment_base(&name) {
                files.push((base, entry.path()));
            }
        }
        files.sort_by_key(|(base, _)| *base);

        let mut segments: Vec<Segment> = Vec::new();
        let mut next_offset: Offset = if files.is_empty() { committed } else { 0 };
        for (idx, (base, path)) in files.iter().enumerate() {
            let is_last = idx + 1 == files.len();
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let corrupt = |offset: Offset, detail: String| DurableError::CorruptLogRecord {
                segment: name.clone(),
                offset,
                detail,
            };

            if segments.is_empty() {
                if *base > committed {
                    return Err(corrupt(
                        *base,
                        format!("first segment starts at {base} but only {committed} is sealed"),
                    ));
                }
            } else if *base != next_offset {
                return Err(corrupt(
                    *base,
                    format!("segment base {base} does not follow previous end {next_offset}"),
                ));
            }

            let data = fs::read(path).map_err(|e| io_err(path, &e))?;
            if let Err(detail) = validate_header(&data, *base) {
                // A torn header can only happen on a freshly rolled final
                // segment whose records are all past the sealed offset.
                if is_last && *base >= committed {
                    fs::remove_file(path).map_err(|e| io_err(path, &e))?;
                    break;
                }
                return Err(corrupt(*base, detail));
            }

            let mut pos = SEGMENT_HEADER_LEN;
            let mut offset = *base;
            let mut records = 0u64;
            let mut good_len = SEGMENT_HEADER_LEN;
            while pos < data.len() {
                match decode_record_at(&data, pos) {
                    Ok((_key, _payload, next_pos)) => {
                        records += 1;
                        offset += 1;
                        pos = next_pos;
                        good_len = next_pos;
                    }
                    Err(detail) => {
                        if is_last && offset >= committed {
                            // Torn tail past the commit point: trim in place.
                            let file = OpenOptions::new()
                                .write(true)
                                .open(path)
                                .map_err(|e| io_err(path, &e))?;
                            file.set_len(good_len as u64)
                                .map_err(|e| io_err(path, &e))?;
                            file.sync_data().map_err(|e| io_err(path, &e))?;
                            break;
                        }
                        return Err(corrupt(offset, detail));
                    }
                }
            }
            next_offset = *base + records;
            segments.push(Segment {
                base: *base,
                records,
                bytes: good_len as u64,
                path: path.clone(),
            });
        }

        if next_offset < committed {
            let segment = segments
                .last()
                .map(|s| s.file_name())
                .unwrap_or_else(|| "<missing>".to_string());
            return Err(DurableError::CorruptLogRecord {
                segment,
                offset: next_offset,
                detail: format!("log ends at offset {next_offset} but {committed} is sealed"),
            });
        }

        let writer = match segments.last() {
            Some(seg) => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(&seg.path)
                    .map_err(|e| io_err(&seg.path, &e))?;
                Some(BufWriter::new(file))
            }
            None => None,
        };

        Ok(LogPartition {
            dir,
            cfg,
            fault,
            segments,
            writer,
            next_offset,
            durable_offset: next_offset,
            pending_appends: 0,
            syncs: 0,
        })
    }

    /// The offset the next append will receive.
    pub fn next_offset(&self) -> Offset {
        self.next_offset
    }

    /// The offset up to which records are known fsync-durable (exclusive).
    pub fn durable_offset(&self) -> Offset {
        self.durable_offset
    }

    /// The oldest offset still present (after GC).
    pub fn first_offset(&self) -> Offset {
        self.segments
            .first()
            .map(|s| s.base)
            .unwrap_or(self.next_offset)
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn start_segment(&mut self) -> Result<(), DurableError> {
        let base = self.next_offset;
        let path = self.dir.join(segment_file_name(base));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        let mut writer = BufWriter::new(file);
        writer
            .write_all(&encode_header(base))
            .map_err(|e| io_err(&path, &e))?;
        self.segments.push(Segment {
            base,
            records: 0,
            bytes: SEGMENT_HEADER_LEN as u64,
            path,
        });
        self.writer = Some(writer);
        Ok(())
    }

    /// Append one record. The write is buffered; every
    /// `group_commit_window` appends the group is flushed and fsynced. The
    /// returned offset is **not durable** until the next [`sync`](Self::sync)
    /// (implicit via the window, or explicit).
    pub fn append(&mut self, key: u64, payload: &[u8]) -> Result<Offset, DurableError> {
        let offset = self.append_unsynced(key, payload)?;
        if self.pending_appends >= self.cfg.group_commit_window.max(1) {
            self.sync()?;
        }
        Ok(offset)
    }

    /// [`append`](Self::append) without the window check: the record stays
    /// buffered until the caller's next [`sync`](Self::sync). A segment roll
    /// still syncs the segment it closes.
    fn append_unsynced(&mut self, key: u64, payload: &[u8]) -> Result<Offset, DurableError> {
        let record = encode_record(key, payload);

        // Roll once the active segment is full — unless it is empty, in which
        // case the (oversized) record becomes a single-record segment.
        let must_roll = match self.segments.last() {
            Some(seg) if self.writer.is_some() => {
                seg.records > 0
                    && seg.bytes + record.len() as u64 > self.cfg.segment_max_bytes as u64
            }
            _ => false,
        };
        if must_roll {
            self.sync()?;
            self.writer = None;
        }
        if self.writer.is_none() {
            self.start_segment()?;
        }

        let seg = self.segments.last_mut().expect("active segment exists");
        let path = seg.path.clone();
        let writer = self.writer.as_mut().expect("active writer exists");

        if let Err(crash) = self.fault.check(CrashPoint::MidAppend) {
            // Torn write: half the record's bytes reach the file, then the
            // process "dies". The tail past the durable offset now fails its
            // checksum and must be trimmed on recovery.
            let torn = &record[..record.len() / 2];
            writer.write_all(torn).map_err(|e| io_err(&path, &e))?;
            writer.flush().map_err(|e| io_err(&path, &e))?;
            return Err(crash);
        }

        writer.write_all(&record).map_err(|e| io_err(&path, &e))?;
        seg.records += 1;
        seg.bytes += record.len() as u64;
        let offset = self.next_offset;
        self.next_offset += 1;
        self.pending_appends += 1;
        Ok(offset)
    }

    /// Flush buffered appends and fsync the active segment; on success the
    /// durable offset catches up to the append head. This is the
    /// group-commit point: a record may only be *dispatched* once a sync has
    /// covered it.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if self.durable_offset == self.next_offset {
            self.pending_appends = 0;
            return Ok(());
        }
        if let Some(writer) = self.writer.as_mut() {
            let path = self
                .segments
                .last()
                .map(|s| s.path.clone())
                .unwrap_or_default();
            writer.flush().map_err(|e| io_err(&path, &e))?;
            // The crash lands after the data reached the file but before the
            // fsync: the bytes are intact on disk yet not durably committed.
            self.fault.check(CrashPoint::MidFsync)?;
            writer
                .get_ref()
                .sync_data()
                .map_err(|e| io_err(&path, &e))?;
            self.syncs += 1;
        }
        self.durable_offset = self.next_offset;
        self.pending_appends = 0;
        Ok(())
    }

    /// Read up to `max` records starting at `from` — offset-addressed and
    /// group-free, mirroring `mq::Broker::read_from`. Buffered appends are
    /// flushed first so reads observe every append.
    pub fn read_from(&mut self, from: Offset, max: usize) -> Result<Vec<LogRecord>, DurableError> {
        if let Some(writer) = self.writer.as_mut() {
            let path = self
                .segments
                .last()
                .map(|s| s.path.clone())
                .unwrap_or_default();
            writer.flush().map_err(|e| io_err(&path, &e))?;
        }
        let mut out = Vec::new();
        for seg in &self.segments {
            if seg.end() <= from || out.len() >= max {
                continue;
            }
            let data = fs::read(&seg.path).map_err(|e| io_err(&seg.path, &e))?;
            let mut pos = SEGMENT_HEADER_LEN;
            let mut offset = seg.base;
            while pos < data.len() && out.len() < max {
                match decode_record_at(&data, pos) {
                    Ok((key, payload, next_pos)) => {
                        if offset >= from {
                            out.push(LogRecord {
                                offset,
                                key,
                                payload,
                            });
                        }
                        offset += 1;
                        pos = next_pos;
                    }
                    Err(detail) => {
                        return Err(DurableError::CorruptLogRecord {
                            segment: seg.file_name(),
                            offset,
                            detail,
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Garbage-collect: delete whole segments whose records all precede
    /// `offset`. The active segment is never deleted. Returns the number of
    /// segment files removed.
    pub fn truncate_before(&mut self, offset: Offset) -> Result<usize, DurableError> {
        let mut removed = 0;
        while self.segments.len() > 1 {
            let seg = &self.segments[0];
            if seg.end() > offset {
                break;
            }
            fs::remove_file(&seg.path).map_err(|e| io_err(&seg.path, &e))?;
            self.segments.remove(0);
            removed += 1;
        }
        Ok(removed)
    }
}

/// The partitions of one durable topic, routed exactly like the in-memory
/// broker (`key % partitions`).
#[derive(Debug)]
pub struct DurableLog {
    parts: Vec<LogPartition>,
}

impl DurableLog {
    /// Create a fresh log under `dir` with one subdirectory per partition.
    pub fn create(
        dir: &Path,
        partitions: usize,
        cfg: LogConfig,
        fault: &FaultInjector,
    ) -> Result<Self, DurableError> {
        Self::open(dir, partitions, cfg, fault, &vec![0; partitions])
    }

    /// Open (recover) the log with the given per-partition sealed offsets
    /// gating torn-tail truncation.
    pub fn open(
        dir: &Path,
        partitions: usize,
        cfg: LogConfig,
        fault: &FaultInjector,
        committed: &[Offset],
    ) -> Result<Self, DurableError> {
        assert!(partitions > 0, "a log needs at least one partition");
        assert_eq!(
            committed.len(),
            partitions,
            "one sealed offset per partition"
        );
        let mut parts = Vec::with_capacity(partitions);
        for (p, &sealed) in committed.iter().enumerate() {
            parts.push(LogPartition::open(
                dir.join(format!("p{p}")),
                cfg,
                fault.clone(),
                sealed,
            )?);
        }
        Ok(DurableLog { parts })
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Append keyed by `key`; the partition is `key % partitions`, matching
    /// the in-memory broker's routing so replay lands identically. Returns
    /// `(partition, offset)`.
    pub fn append(&mut self, key: u64, payload: &[u8]) -> Result<(usize, Offset), DurableError> {
        let partition = (key % self.parts.len() as u64) as usize;
        let offset = self.parts[partition].append(key, payload)?;
        Ok((partition, offset))
    }

    /// Append a group of `(key, payload)` records, each routed as by
    /// [`append`](Self::append), without any window sync: none of them is
    /// durable until the caller's next [`sync_all`](Self::sync_all). This is
    /// the group-commit path — one sync per group, however large.
    pub fn append_group<'a>(
        &mut self,
        records: impl IntoIterator<Item = (u64, &'a [u8])>,
    ) -> Result<(), DurableError> {
        let partitions = self.parts.len() as u64;
        for (key, payload) in records {
            self.parts[(key % partitions) as usize].append_unsynced(key, payload)?;
        }
        Ok(())
    }

    /// Fsync every partition; afterwards every appended record is durable.
    pub fn sync_all(&mut self) -> Result<(), DurableError> {
        for part in &mut self.parts {
            part.sync()?;
        }
        Ok(())
    }

    /// Offset-addressed read from one partition (see [`LogPartition::read_from`]).
    pub fn read_from(
        &mut self,
        partition: usize,
        from: Offset,
        max: usize,
    ) -> Result<Vec<LogRecord>, DurableError> {
        self.parts[partition].read_from(from, max)
    }

    /// GC one partition up to `offset` (whole segments only).
    pub fn truncate_before(
        &mut self,
        partition: usize,
        offset: Offset,
    ) -> Result<usize, DurableError> {
        self.parts[partition].truncate_before(offset)
    }

    /// The offset the next append to `partition` will receive.
    pub fn next_offset(&self, partition: usize) -> Offset {
        self.parts[partition].next_offset()
    }

    /// The oldest offset still present in `partition`.
    pub fn first_offset(&self, partition: usize) -> Offset {
        self.parts[partition].first_offset()
    }

    /// Total number of segment files across partitions.
    pub fn segment_count(&self) -> usize {
        self.parts.iter().map(|p| p.segment_count()).sum()
    }

    /// `fdatasync`s issued since this log was opened, across partitions: one
    /// per partition a sync found unsynced appends in (window syncs, explicit
    /// syncs, and segment rolls alike). A sync with nothing pending issues
    /// none, and an injected mid-fsync crash is not counted.
    pub fn syncs(&self) -> u64 {
        self.parts.iter().map(|p| p.syncs).sum()
    }
}

fn validate_header(data: &[u8], expected_base: Offset) -> Result<(), String> {
    if data.len() < SEGMENT_HEADER_LEN {
        return Err(format!(
            "truncated segment header ({} of {SEGMENT_HEADER_LEN} bytes)",
            data.len()
        ));
    }
    if data[0..4] != SEGMENT_MAGIC {
        return Err(format!(
            "bad segment magic {:02x?} (expected {:02x?})",
            &data[0..4],
            SEGMENT_MAGIC
        ));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != SEGMENT_VERSION {
        return Err(format!(
            "unsupported segment version {version} (expected {SEGMENT_VERSION})"
        ));
    }
    let base = u64::from_le_bytes(data[8..16].try_into().unwrap());
    if base != expected_base {
        return Err(format!(
            "segment header base {base} does not match file name base {expected_base}"
        ));
    }
    Ok(())
}
