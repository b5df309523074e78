//! The durable tier of a run: the on-disk files ([`DurableDisk`]: ingress log
//! plus snapshot directory), the coordinator's seal ledger, and the
//! **durable writer** thread that owns the files for the length of a run.
//!
//! The coordinator touches the disk itself only before its workers start:
//! [`DurableTier::seal_baseline`] syncs the pre-run log tail and commits the
//! epoch-0 manifest. From then on every file operation runs on the writer,
//! fed over one channel in two kinds of job:
//!
//! * **Log groups.** The admission pump encodes each drained batch of
//!   requests and hands it over as one group. The writer appends every group
//!   queued behind it ([`DurableLog::append_group`], no window sync), issues
//!   one [`DurableLog::sync_all`], and answers with the durable call-id
//!   watermark (`ToCoordinator::Durable`). Groups that arrive during an fsync
//!   share the next one: self-clocking group commit. The coordinator
//!   dispatches a record only once a watermark covers it, so "dispatched ⇒ a
//!   sync covered it" holds exactly as when the coordinator synced inline.
//! * **Seal jobs.** For each sealed epoch, in seal order, the coordinator
//!   half ([`SealLedger::seal_job`]) picks the files to upload and builds the
//!   [`Manifest`]; the writer half ([`SealJob::step`]) uploads them, commits
//!   the manifest, reaps unreferenced files and truncates the log below the
//!   sealed offsets — one file operation per step, and steps alternate with
//!   group commits, so a group never waits behind more than one.
//!
//! A writer error (I/O, or an armed `FaultInjector` point) ends the writer
//! and reaches the coordinator both as a `ToCoordinator::DurableFailed`
//! message and as the thread's result, so the run ends with
//! [`ShardError::Durable`] without hanging. Closing the job channel lets the
//! writer drain what is queued; [`DurableWriter::finish`] joins it, so a run
//! returns only after its last manifest is on disk.

use crate::{panic_message, ShardError, ToCoordinator};
use durable_log::{DurableError, DurableLog, Manifest, SnapKind, SnapshotDir};
use state_backend::{SnapshotKind, SnapshotStore};
use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

/// Monitor role id of the durable writer thread: the top of the range
/// `racecheck` reserves for engine threads, clear of every shard role.
pub(crate) const WRITER_ROLE: u32 = racecheck::DYNAMIC_ROLE_BASE - 1;

/// Snapshot files on disk are namespaced by run generation: the high bits of
/// the file's epoch field hold the generation, the low [`GENERATION_SHIFT`]
/// bits the plain epoch. Every run re-baselines at epoch 0, so without the
/// namespace a new run's uploads would overwrite files the *committed*
/// manifest still references — a crash mid-baseline would then corrupt the
/// only recovery point. With it, the previous generation's files stay intact
/// until the new manifest commits, after which GC reaps them.
const GENERATION_SHIFT: u32 = 40;
/// Mask extracting the plain epoch from a generation-scoped file epoch.
pub(crate) const EPOCH_MASK: u64 = (1 << GENERATION_SHIFT) - 1;

/// The files of the durable tier: the segmented ingress log and the snapshot
/// directory (manifest = commit point).
pub(crate) struct DurableDisk {
    pub(crate) log: DurableLog,
    snapshots: SnapshotDir,
}

/// What the coordinator knows about the files without touching them.
pub(crate) struct SealLedger {
    /// Current run generation (manifests record it as `incarnation`).
    /// Incremented at every run start, *before* the baseline uploads.
    generation: u64,
    /// `(plain epoch, partition, kind)` triples uploaded (or queued for
    /// upload) under the current generation — skips re-uploading an
    /// unchanged full anchor at every seal. Reset to the newest manifest's
    /// files at each seal.
    uploaded: BTreeSet<(u64, u32, SnapKind)>,
}

impl SealLedger {
    /// The generation-scoped epoch a snapshot file is stored under.
    fn file_epoch(&self, epoch: u64) -> u64 {
        debug_assert!(epoch <= EPOCH_MASK, "epoch overflows the generation split");
        (self.generation << GENERATION_SHIFT) | epoch
    }

    /// After `manifest`, exactly its files are on disk under this generation.
    fn record(&mut self, manifest: &Manifest) {
        self.uploaded = manifest
            .files
            .iter()
            .map(|&(fe, p, k)| (fe & EPOCH_MASK, p, k))
            .collect();
    }

    /// The coordinator half of persisting the latest sealed epoch: every
    /// snapshot file its recovery chain references that is not on disk yet
    /// (plus each partition's merged delta, which grows every seal), and the
    /// manifest naming exactly those files with the epoch's ingress offsets.
    /// `None` before any epoch sealed. The ledger advances as if the job had
    /// already run: jobs run in order, and a failed one ends the run.
    pub(crate) fn seal_job(
        &mut self,
        store: &mut SnapshotStore,
        shards: usize,
    ) -> Result<Option<SealJob>, ShardError> {
        let Some(epoch) = store.latest_sealed_epoch() else {
            return Ok(None);
        };
        // Pruned epochs (rollback truncation, amortized anchor retirement)
        // leave the upload ledger first so a re-sealed epoch re-uploads. The
        // *files* are not touched here: deleting before the new manifest
        // lands would tear the current commit point, so disk cleanup is
        // entirely the post-commit `gc` reaping whatever the new manifest no
        // longer references.
        for (pruned_epoch, partition) in store.take_pruned() {
            for kind in [SnapKind::Full, SnapKind::Delta, SnapKind::Merged] {
                self.uploaded
                    .remove(&(pruned_epoch, partition as u32, kind));
            }
        }
        let mut uploads: Vec<Upload> = Vec::new();
        let mut files: Vec<(u64, u32, SnapKind)> = Vec::new();
        for p in 0..shards {
            for (e, kind) in store.chain_epochs(p, epoch) {
                let kind = match kind {
                    SnapshotKind::Full => SnapKind::Full,
                    SnapshotKind::Delta => SnapKind::Delta,
                };
                let name = (self.file_epoch(e), p as u32, kind);
                files.push(name);
                if self.uploaded.insert((e, p as u32, kind)) {
                    // A chain epoch without its snapshot means the store
                    // lost data out from under us — surface it typed, the
                    // durable commit point must not advance over a hole.
                    let bytes = store
                        .epoch(e)
                        .and_then(|parts| parts.get(&p))
                        .map(|snap| snap.state.clone())
                        .ok_or(ShardError::IncompleteEpoch { epoch: e })?;
                    uploads.push(Upload { name, bytes });
                }
            }
            // The chain past the anchor lives as one lazily merged delta;
            // upload it in place of the pruned raw deltas. The merge grows
            // every seal, so it is always re-uploaded under the sealed
            // epoch's name.
            if let Some(bytes) = store.merged_delta_bytes(p) {
                let name = (self.file_epoch(epoch), p as u32, SnapKind::Merged);
                uploads.push(Upload {
                    name,
                    bytes: bytes.to_vec(),
                });
                files.push(name);
            }
        }
        // Same contract: a sealed epoch without offsets is a store defect,
        // not a coordinator bug — typed, never a panic.
        let recorded = store
            .epoch_offsets(epoch)
            .ok_or(ShardError::IncompleteEpoch { epoch })?;
        let manifest = Manifest {
            sealed_epoch: epoch,
            incarnation: self.generation,
            shards: shards as u32,
            offsets: (0..shards)
                .map(|p| recorded.get(&p).copied().unwrap_or(0))
                .collect(),
            files,
        };
        self.record(&manifest);
        Ok(Some(SealJob {
            uploads,
            manifest,
            done: 0,
        }))
    }
}

/// One snapshot file to upload: `(file epoch, partition, kind)` and bytes.
struct Upload {
    name: (u64, u32, SnapKind),
    bytes: Vec<u8>,
}

/// The writer half of persisting one sealed epoch, as a sequence of single
/// file operations: every upload, the manifest commit (the commit point — a
/// crash anywhere before it leaves the previous sealed epoch intact), the GC
/// of unreferenced snapshot files (what makes in-memory pruning delete
/// on-disk artifacts too), and one log truncation per partition.
pub(crate) struct SealJob {
    uploads: Vec<Upload>,
    manifest: Manifest,
    /// Steps already performed.
    done: usize,
}

impl SealJob {
    /// The sealed epoch this job persists.
    pub(crate) fn epoch(&self) -> u64 {
        self.manifest.sealed_epoch
    }

    /// `(partition, bytes)` of each merged delta this job uploads.
    pub(crate) fn merged_uploads(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.uploads
            .iter()
            .filter(|upload| upload.name.2 == SnapKind::Merged)
            .map(|upload| (upload.name.1 as usize, upload.bytes.len() as u64))
    }

    /// Perform the next file operation; `Ok(true)` once the job is complete.
    fn step(&mut self, disk: &mut DurableDisk) -> Result<bool, DurableError> {
        let uploads = self.uploads.len();
        match self.done {
            i if i < uploads => {
                let Upload {
                    name: (file_epoch, partition, kind),
                    bytes,
                } = &self.uploads[i];
                disk.snapshots.put(*file_epoch, *partition, *kind, bytes)?;
            }
            i if i == uploads => disk.snapshots.commit_manifest(&self.manifest)?,
            i if i == uploads + 1 => {
                disk.snapshots.gc(&self.manifest)?;
            }
            i => {
                let partition = i - uploads - 2;
                disk.log
                    .truncate_before(partition, self.manifest.offsets[partition])?;
            }
        }
        self.done += 1;
        Ok(self.done == uploads + 2 + self.manifest.offsets.len())
    }
}

/// The runtime's handle on the durable tier between runs.
pub(crate) struct DurableTier {
    /// Borrowed by the durable writer for the length of a run.
    pub(crate) disk: DurableDisk,
    /// Borrowed by the coordinator for the length of a run.
    pub(crate) ledger: SealLedger,
    /// Where shard workers spill capture blobs.
    pub(crate) spill_dir: PathBuf,
}

impl DurableTier {
    /// A tier over opened files; `generation` is the committed manifest's
    /// (`0` for a fresh directory).
    pub(crate) fn new(
        log: DurableLog,
        snapshots: SnapshotDir,
        spill_dir: PathBuf,
        generation: u64,
    ) -> Self {
        DurableTier {
            disk: DurableDisk { log, snapshots },
            ledger: SealLedger {
                generation,
                uploaded: BTreeSet::new(),
            },
            spill_dir,
        }
    }

    /// Log fsyncs issued since the tier was opened.
    pub(crate) fn log_syncs(&self) -> u64 {
        self.disk.log.syncs()
    }

    /// The run's **durable re-baseline**, on the coordinator before any
    /// worker or the writer exists: sync everything submitted so far (it
    /// must be durable before dispatch), bump the generation (namespacing
    /// this run's files away from anything the committed manifest still
    /// references), upload one full snapshot per partition, and commit a
    /// manifest sealing epoch 0 at `offsets` — from here a cold restart lands
    /// on this run's timeline. The log prefix below `offsets` is then
    /// garbage-collected (whole segments only).
    pub(crate) fn seal_baseline(
        &mut self,
        fulls: &[Vec<u8>],
        offsets: &[u64],
    ) -> Result<(), DurableError> {
        self.disk.log.sync_all()?;
        self.ledger.generation += 1;
        self.clear_spills();
        let file_epoch = self.ledger.file_epoch(0);
        for (partition, bytes) in fulls.iter().enumerate() {
            self.disk
                .snapshots
                .put(file_epoch, partition as u32, SnapKind::Full, bytes)?;
        }
        let manifest = Manifest {
            sealed_epoch: 0,
            incarnation: self.ledger.generation,
            shards: fulls.len() as u32,
            offsets: offsets.to_vec(),
            files: (0..fulls.len())
                .map(|p| (file_epoch, p as u32, SnapKind::Full))
                .collect(),
        };
        self.ledger.record(&manifest);
        let mut job = SealJob {
            uploads: Vec::new(),
            manifest,
            done: 0,
        };
        while !job.step(&mut self.disk)? {}
        Ok(())
    }

    /// Remove leftover spill blobs (from a previous crashed run). Best
    /// effort: a stale blob is garbage, not state.
    fn clear_spills(&self) {
        let Ok(entries) = std::fs::read_dir(&self.spill_dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().ends_with(".spill") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// One admission group's `(partitioning key, encoded record)` pairs, in
/// call-id order.
pub(crate) type EncodedGroup = Vec<(u64, Vec<u8>)>;

/// Jobs the coordinator sends the durable writer, each stamped with the
/// coordinator's clock on monitored runs (the hand-off edge).
enum ToWriter {
    /// One admission group; every call id below `end` is in this or an
    /// earlier group.
    Group {
        records: EncodedGroup,
        end: u64,
        stamp: Option<racecheck::Stamp>,
    },
    /// Persist one sealed epoch.
    Seal {
        job: SealJob,
        stamp: Option<racecheck::Stamp>,
    },
}

/// The coordinator's side of a running durable writer.
pub(crate) struct DurableWriter<'scope> {
    jobs: Sender<ToWriter>,
    /// Taken when the thread is joined (liveness probe or [`Self::finish`]).
    thread: Option<ScopedJoinHandle<'scope, Result<(), DurableError>>>,
    monitor: Option<Arc<racecheck::Monitor>>,
}

impl<'scope> DurableWriter<'scope> {
    /// Spawn the writer on the supervised path (named thread, typed spawn
    /// error). It borrows `disk` until joined.
    pub(crate) fn spawn(
        scope: &'scope Scope<'scope, '_>,
        disk: &'scope mut DurableDisk,
        coordinator: Sender<ToCoordinator>,
        monitor: Option<Arc<racecheck::Monitor>>,
    ) -> Result<Self, ShardError> {
        let (jobs, inbox) = channel();
        let writer = Writer {
            disk,
            inbox,
            coordinator,
            monitor: monitor.clone(),
            groups: Vec::new(),
            seals: VecDeque::new(),
        };
        let thread = std::thread::Builder::new()
            .name("durable-writer".to_string())
            .spawn_scoped(scope, move || writer.run())
            .map_err(|err| ShardError::Durable {
                error: writer_error(format!("spawn failed: {err}")),
            })?;
        Ok(DurableWriter {
            jobs,
            thread: Some(thread),
            monitor,
        })
    }

    fn stamp(&self) -> Option<racecheck::Stamp> {
        self.monitor
            .as_ref()
            .map(|m| m.stamp(crate::COORDINATOR_ROLE))
    }

    /// Hand one admission group to the writer. A send to an exited writer is
    /// dropped: its failure reaches the coordinator on its own channel.
    pub(crate) fn send_group(&self, records: EncodedGroup, end: u64) {
        if let Some(monitor) = &self.monitor {
            monitor.access(
                crate::COORDINATOR_ROLE,
                racecheck::Resource::LogGroup(end),
                racecheck::AccessKind::Write,
                "hand off log group",
            );
        }
        let stamp = self.stamp();
        let _ = self.jobs.send(ToWriter::Group {
            records,
            end,
            stamp,
        });
    }

    /// Hand one seal job to the writer (same drop rule as groups).
    pub(crate) fn send_seal(&self, job: SealJob) {
        let stamp = self.stamp();
        let _ = self.jobs.send(ToWriter::Seal { job, stamp });
    }

    /// Liveness probe: the writer only exits early on failure, so a finished
    /// thread is joined and its error returned.
    pub(crate) fn check_alive(&mut self) -> Result<(), ShardError> {
        if self
            .thread
            .as_ref()
            .is_some_and(ScopedJoinHandle::is_finished)
        {
            let error = join(self.thread.take()).err();
            return Err(error.unwrap_or_else(|| ShardError::Durable {
                error: writer_error("the writer thread exited before the run ended".into()),
            }));
        }
        Ok(())
    }

    /// Close the job channel and wait for the writer to drain it: every seal
    /// job queued so far is on disk (or its error is returned) afterwards.
    pub(crate) fn finish(self) -> Result<(), ShardError> {
        let DurableWriter { jobs, thread, .. } = self;
        drop(jobs);
        join(thread)
    }
}

/// Join the writer and convert its result. `None` means the liveness probe
/// already joined it and returned its error.
fn join(thread: Option<ScopedJoinHandle<'_, Result<(), DurableError>>>) -> Result<(), ShardError> {
    let result = match thread.map(ScopedJoinHandle::join) {
        None | Some(Ok(Ok(()))) => Ok(()),
        Some(Ok(Err(error))) => Err(error),
        Some(Err(payload)) => Err(writer_panicked(payload.as_ref())),
    };
    result.map_err(|error| ShardError::Durable { error })
}

/// A failure of the writer thread itself (not of a file it wrote).
fn writer_error(detail: String) -> DurableError {
    DurableError::Io {
        path: "durable writer".to_string(),
        detail,
    }
}

fn writer_panicked(payload: &(dyn std::any::Any + Send)) -> DurableError {
    writer_error(format!(
        "writer thread panicked: {}",
        panic_message(payload)
    ))
}

/// The durable writer thread's state.
struct Writer<'d> {
    disk: &'d mut DurableDisk,
    inbox: Receiver<ToWriter>,
    coordinator: Sender<ToCoordinator>,
    monitor: Option<Arc<racecheck::Monitor>>,
    /// Log groups received and not yet synced, in call-id order.
    groups: Vec<(EncodedGroup, u64)>,
    /// Seal jobs in seal order; the front one may be partly done.
    seals: VecDeque<SealJob>,
}

impl Writer<'_> {
    /// Thread body: serve jobs until the coordinator closes the channel and
    /// everything queued is done, or until the first error. Either outcome
    /// is the thread's result; an error (a panic included) is also sent to
    /// the coordinator, which may be blocked waiting for a notice.
    fn run(mut self) -> Result<(), DurableError> {
        if let Some(monitor) = &self.monitor {
            monitor.bind_current_thread(WRITER_ROLE);
        }
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.serve())) {
            Ok(result) => result,
            Err(payload) => Err(writer_panicked(payload.as_ref())),
        };
        if let Err(error) = &result {
            let _ = self.coordinator.send(ToCoordinator::DurableFailed {
                error: error.clone(),
            });
        }
        result
    }

    fn serve(&mut self) -> Result<(), DurableError> {
        let mut open = true;
        loop {
            if open && self.groups.is_empty() && self.seals.is_empty() {
                match self.inbox.recv() {
                    Ok(job) => self.accept(job),
                    Err(_) => return Ok(()),
                }
            }
            // Everything queued behind the wake-up joins this round.
            while open {
                match self.inbox.try_recv() {
                    Ok(job) => self.accept(job),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => open = false,
                }
            }
            if self.groups.is_empty() && self.seals.is_empty() && !open {
                return Ok(());
            }
            // One group commit, then one step of the oldest seal job: groups
            // never wait behind more than one seal file operation, and seal
            // jobs still advance under a steady stream of groups.
            if !self.groups.is_empty() {
                self.commit_groups()?;
            }
            if let Some(job) = self.seals.front_mut() {
                if job.step(self.disk)? {
                    self.seals.pop_front();
                }
            }
        }
    }

    fn accept(&mut self, job: ToWriter) {
        let stamp = match job {
            ToWriter::Group {
                records,
                end,
                stamp,
            } => {
                self.groups.push((records, end));
                stamp
            }
            ToWriter::Seal { job, stamp } => {
                self.seals.push_back(job);
                stamp
            }
        };
        if let (Some(monitor), Some(stamp)) = (&self.monitor, &stamp) {
            monitor.join(WRITER_ROLE, stamp);
        }
    }

    /// Append every pending group, sync once, and tell the coordinator which
    /// call ids are now durable.
    fn commit_groups(&mut self) -> Result<(), DurableError> {
        let groups = std::mem::take(&mut self.groups);
        self.disk.log.append_group(
            groups
                .iter()
                .flat_map(|(records, _)| records.iter().map(|(key, rec)| (*key, rec.as_slice()))),
        )?;
        self.disk.log.sync_all()?;
        let mut through = 0;
        for (_, end) in &groups {
            if let Some(monitor) = &self.monitor {
                monitor.access(
                    WRITER_ROLE,
                    racecheck::Resource::LogGroup(*end),
                    racecheck::AccessKind::Write,
                    "group commit fsync",
                );
            }
            through = *end;
        }
        let stamp = self.monitor.as_ref().map(|m| m.stamp(WRITER_ROLE));
        let _ = self
            .coordinator
            .send(ToCoordinator::Durable { through, stamp });
        Ok(())
    }
}
