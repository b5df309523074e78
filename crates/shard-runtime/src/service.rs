//! # Service tier: the front door, snapshot-isolated reads, and CDC egress
//!
//! [`ShardRuntime::serve`](crate::ShardRuntime::serve) turns the batch engine
//! into a *service*: concurrent client sessions submit [`MethodCall`]s while
//! the coordinator is running, read committed state without touching the
//! transactional pipeline, and subscribe to change streams. Everything rides
//! the sealed-epoch lifecycle the snapshot subsystem already maintains, so
//! durability and visibility share one linearization point — the **seal**.
//!
//! ## Admission → pipeline → seal → visibility
//!
//! The life of a request, and the invariant at each stage:
//!
//! 1. **Admission.** A [`ClientSession`] submits into a *bounded* ingress
//!    queue. At most [`ShardConfig::max_inflight_requests`] admitted calls
//!    may be unanswered at once; beyond that, `submit` sheds the call with a
//!    typed [`ShardError::Overloaded`] — the queue, the broker, and the
//!    coordinator's working set stay bounded no matter how fast clients
//!    push. A shed call was never assigned a call id, never touched the
//!    durable log, and is never partially applied.
//! 2. **Pipeline.** The coordinator pumps admitted requests into the
//!    replayable ingress (on a durable runtime: on-disk log first, group-
//!    committed before the batch that carries them dispatches), then batches
//!    them through the ordered commit rule exactly as pre-loaded requests.
//!    Admission order is arrival order: call ids are assigned at the pump,
//!    single-threaded, so one run's schedule is as deterministic as ever.
//! 3. **Retire.** As each batch retires, its responses are multiplexed back
//!    to the issuing session by call id (first delivery only — replay after
//!    a recovery hits the egress dedup map and is suppressed). Clients see
//!    answers mid-run, not at end-of-run.
//! 4. **Seal = visibility.** When an epoch seals — every partition's
//!    snapshot bytes arrived — the sealed cut becomes (a) the recovery
//!    point, (b) the **read view**: a decoded MVCC version serving point
//!    reads and per-class scans with zero pipeline involvement, and (c) the
//!    CDC feed: the cut's dirty entities are diffed/emitted as
//!    [`StateUpdate`]s to matching subscriptions. A reader can therefore
//!    never observe state that a crash could roll back, and a subscriber's
//!    replica replays identically across a recovery: updates are emitted
//!    exactly once per sealed epoch, and a pending epoch of a failed
//!    timeline is never emitted at all.
//!
//! Reads report their position in that lifecycle: every read carries a
//! [`ReadStaleness`] naming the sealed epoch it was served from and the
//! latest announced cut — the epoch lag is the price of never blocking on
//! the pipeline.
//!
//! The service tier works identically on in-memory and durable runtimes; on
//! the latter, admitted requests are logged before dispatch, so a `kill -9`
//! replays them into the restarted deployment (sessions are gone, but state,
//! egress dedup, and CDC-per-seal semantics carry over).

use crate::{ConflictKeyHasher, ShardError};
use state_backend::{DecodedImage, SnapshotKind};
use stateful_entities::{ClassId, EntityAddr, EntityState, MethodCall, ShardMap, Value};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// One answered call, delivered to its issuing session as the carrying
/// batch retires (first delivery only — a replay after recovery is
/// suppressed by the egress dedup map, so sessions see exactly-once).
#[derive(Debug, Clone)]
pub struct SessionResponse {
    /// The session-local sequence number `submit` returned for this call.
    pub seq: u64,
    /// The global call id the coordinator assigned at admission.
    pub call_id: u64,
    /// The method's return value, or the runtime error it raised.
    pub result: Result<Value, String>,
}

/// How stale a snapshot-isolated read was at the moment it was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadStaleness {
    /// The sealed epoch the read view was materialized from.
    pub snapshot_epoch: u64,
    /// The latest epoch cut the coordinator has *announced* (its bytes may
    /// still be encoding in the background).
    pub latest_epoch: u64,
}

impl ReadStaleness {
    /// Epoch lag: announced cuts not yet visible to readers. `0` means the
    /// read was served from the freshest possible consistent cut.
    pub fn lag(&self) -> u64 {
        self.latest_epoch.saturating_sub(self.snapshot_epoch)
    }
}

/// An entity's full `(field name, value)` image in slot order — the shape
/// point reads, scans, and CDC updates all deliver.
pub type FieldImage = Vec<(String, Value)>;

/// A snapshot-isolated read result: the value plus the staleness report.
#[derive(Debug, Clone)]
pub struct ReadResult<T> {
    /// The value read from the sealed view.
    pub value: T,
    /// How far behind the pipeline the serving cut was.
    pub staleness: ReadStaleness,
}

/// One CDC event: entity `addr` changed in sealed epoch `epoch`. `fields`
/// is the entity's full post-image in `(name, value)` slot order — empty
/// with `deleted = true` when the entity was removed at that cut.
#[derive(Debug, Clone, PartialEq)]
pub struct StateUpdate {
    /// The sealed epoch whose cut contains this change.
    pub epoch: u64,
    /// The changed entity.
    pub addr: EntityAddr,
    /// Post-image fields, in slot order. Empty for a deletion.
    pub fields: FieldImage,
    /// True when the entity was deleted at this cut.
    pub deleted: bool,
}

/// Aggregate service counters (cheap atomics, readable at any time from any
/// thread via [`ServiceHandle::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Calls admitted past the front door (assigned a call id eventually).
    pub admitted: u64,
    /// Calls shed with [`ShardError::Overloaded`].
    pub shed: u64,
    /// Admitted calls not yet answered.
    pub inflight: usize,
    /// High-water mark of the bounded ingress queue. With shedding enabled
    /// this never exceeds [`ShardConfig::max_inflight_requests`].
    pub peak_queue_depth: usize,
    /// CDC [`StateUpdate`]s delivered across all subscriptions.
    pub cdc_events: u64,
    /// The sealed epoch the read view currently serves.
    pub view_epoch: u64,
    /// The latest announced epoch cut.
    pub latest_cut_epoch: u64,
}

/// What a subscription filters on.
enum SubFilter {
    /// Every entity of one class.
    Class(ClassId),
    /// One entity.
    Entity(EntityAddr),
}

struct SubEntry {
    id: u64,
    filter: SubFilter,
    tx: Sender<StateUpdate>,
}

/// A CDC subscription: an ordered stream of [`StateUpdate`]s, one batch per
/// sealed epoch, emitted exactly once per epoch (a recovery rolls back only
/// *unsealed* epochs, which were never emitted). Dropping the subscription
/// unregisters it.
pub struct Subscription {
    id: u64,
    rx: Receiver<StateUpdate>,
    core: Arc<ServiceCore>,
}

impl Subscription {
    /// Next update, waiting up to `timeout`. `Err(Timeout)` means no update
    /// yet; `Err(Disconnected)` means the service has finished (all sealed
    /// epochs emitted — the buffered backlog is still drainable via
    /// [`try_recv`](Self::try_recv) until empty).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<StateUpdate, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Next buffered update, if any.
    pub fn try_recv(&self) -> Option<StateUpdate> {
        self.rx.try_recv().ok()
    }

    /// Drain everything currently buffered.
    pub fn drain(&self) -> Vec<StateUpdate> {
        let mut out = Vec::new();
        while let Ok(update) = self.rx.try_recv() {
            out.push(update);
        }
        out
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // lock-order: subs alone; nothing else is held during unregister.
        if let Ok(mut subs) = self.core.subs.lock() {
            subs.retain(|s| s.id != self.id);
        }
    }
}

/// A request as queued by a session, before the coordinator assigns it a
/// call id at admission.
pub(crate) struct ServiceRequest {
    pub(crate) session: u64,
    pub(crate) seq: u64,
    pub(crate) call: MethodCall,
    /// Submitting thread's clock at enqueue time. The coordinator joins it
    /// at the admission pump, so everything the client did before `submit`
    /// happens-before the call's dispatch (monitored runs only).
    pub(crate) stamp: Option<racecheck::Stamp>,
}

struct IngressQueue {
    queue: VecDeque<ServiceRequest>,
    /// Set by [`ServiceCore::close`]: no further submissions are accepted;
    /// the coordinator drains what is queued and exits.
    closed: bool,
}

/// A response on its way back to the owning session, carrying the
/// coordinator's clock stamp (monitored runs only) so the session can join
/// it on delivery.
type StampedResponse = (SessionResponse, Option<racecheck::Stamp>);

/// The read view: per-partition decoded entity maps at the latest **sealed**
/// epoch. Partition-scoped because full snapshots replace one partition's
/// image wholesale. Each partition is hash-indexed by address, so a point
/// read is one probe on the address's cached key hash instead of a walk of
/// key comparisons down a tree; scans restore address order themselves.
struct ReadView {
    epoch: u64,
    partitions: Vec<ViewPartition>,
}

/// One partition of the [`ReadView`]. Keys come from clients, but an
/// address hashes only its class and cached key hash, so keys crafted to
/// collide collide under any hasher; SipHash would add cost and no defence.
type ViewPartition = HashMap<EntityAddr, EntityState, BuildHasherDefault<ConflictKeyHasher>>;

/// A view partition holding `entities`, sized for all `len` of them up
/// front so building it never rehashes.
fn view_partition(
    len: usize,
    entities: impl IntoIterator<Item = (EntityAddr, EntityState)>,
) -> ViewPartition {
    let mut partition = ViewPartition::with_capacity_and_hasher(len, Default::default());
    partition.extend(entities);
    partition
}

/// Shared state between the coordinator, the sessions, and the readers.
/// Everything client-facing goes through [`ServiceHandle`]/[`ClientSession`];
/// the `pub(crate)` surface is the coordinator's side of the contract.
///
/// ## Lock order
///
/// The service tier holds **at most one** of its locks (`queue`, `sessions`,
/// `subs`, `view`) at a time — every acquisition below is scoped and dropped
/// before the next lock is taken, so no ordering cycle between them can
/// exist. The single compound edge is `queue → monitor clock table`
/// ([`ClientSession::submit`] stamps its clock while holding the queue
/// lock); `racecheck` never calls back into the service, so that edge is
/// acyclic too. Every acquisition site carries a `lock-order:` comment —
/// `xtask lint` (rule `lock-order`) fails the build on an undocumented one.
pub struct ServiceCore {
    map: Arc<ShardMap>,
    /// Admission bound; `0` disables shedding.
    max_inflight: usize,
    inflight: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
    cdc_events: AtomicU64,
    peak_queue: AtomicUsize,
    queue: Mutex<IngressQueue>,
    /// Signalled on every enqueue and on close — the coordinator's idle wait.
    work_cv: Condvar,
    sessions: Mutex<HashMap<u64, Sender<StampedResponse>>>,
    next_session: AtomicU64,
    subs: Mutex<Vec<SubEntry>>,
    next_sub: AtomicU64,
    view: RwLock<ReadView>,
    latest_cut: AtomicU64,
    /// Concurrency monitor, armed once by the coordinator before any client
    /// thread exists. Sessions stamp their submissions and join response
    /// stamps through it; `None` (the default) keeps every hook a no-op.
    monitor: OnceLock<Arc<racecheck::Monitor>>,
}

impl ServiceCore {
    pub(crate) fn new(map: Arc<ShardMap>, shards: usize, max_inflight: usize) -> Arc<Self> {
        Arc::new(ServiceCore {
            map,
            max_inflight,
            inflight: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cdc_events: AtomicU64::new(0),
            peak_queue: AtomicUsize::new(0),
            queue: Mutex::new(IngressQueue {
                queue: VecDeque::new(),
                closed: false,
            }),
            work_cv: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            subs: Mutex::new(Vec::new()),
            next_sub: AtomicU64::new(0),
            view: RwLock::new(ReadView {
                epoch: 0,
                partitions: (0..shards).map(|_| ViewPartition::default()).collect(),
            }),
            latest_cut: AtomicU64::new(0),
            monitor: OnceLock::new(),
        })
    }

    /// Arm the concurrency monitor (idempotent; first caller wins). Client
    /// threads auto-register dynamic roles on their first stamp.
    pub(crate) fn arm_monitor(&self, monitor: Arc<racecheck::Monitor>) {
        let _ = self.monitor.set(monitor);
    }

    /// Seed the epoch-0 read view from the bulk-loaded partitions, before
    /// they move into the shard threads.
    pub(crate) fn seed_view(&self, partitions: &[state_backend::PartitionState]) {
        // lock-order: view alone. Invariant: serve() seeds before spawning
        // clients, so the write lock is uncontended and cannot be poisoned.
        let mut view = self.view.write().expect("view lock");
        view.epoch = 0;
        for (slot, partition) in view.partitions.iter_mut().zip(partitions) {
            *slot = view_partition(
                partition.len(),
                partition.iter().map(|(a, s)| (a.clone(), s.clone())),
            );
        }
    }

    /// Non-blockingly take up to `max` queued requests, in arrival order.
    pub(crate) fn drain_requests(&self, max: usize) -> Vec<ServiceRequest> {
        // lock-order: queue alone; drained requests are processed after drop.
        let mut guard = match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let take = guard.queue.len().min(max);
        guard.queue.drain(..take).collect()
    }

    /// `(closed, queue empty)` — the coordinator's exit condition is both.
    pub(crate) fn ingress_state(&self) -> (bool, bool) {
        // lock-order: queue alone, released before the pair is interpreted.
        let guard = match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        (guard.closed, guard.queue.is_empty())
    }

    /// Park until a submission or a close arrives (bounded by `timeout` so
    /// the caller can keep absorbing coordinator messages).
    pub(crate) fn wait_for_work(&self, timeout: Duration) {
        // lock-order: queue alone; work_cv re-acquires it inside the wait.
        let guard = match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if guard.queue.is_empty() && !guard.closed {
            let _ = self.work_cv.wait_timeout(guard, timeout);
        }
    }

    /// Deliver a retired call's response to its issuing session and release
    /// its admission slot. A session that has already disconnected just
    /// releases the slot — the egress dedup map still records the response.
    pub(crate) fn route_response(&self, session: u64, response: SessionResponse) {
        // Called on the coordinator thread: the stamp orders everything the
        // pipeline did for this call before the session's receive.
        let stamp = self.monitor.get().map(|m| m.stamp_current());
        // lock-order: sessions alone (the stamp above was taken lock-free).
        if let Ok(sessions) = self.sessions.lock() {
            if let Some(tx) = sessions.get(&session) {
                let _ = tx.send((response, stamp));
            }
        }
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Record a newly announced epoch cut (drives [`ReadStaleness`]).
    pub(crate) fn announce_cut(&self, epoch: u64) {
        self.latest_cut.store(epoch, Ordering::SeqCst);
    }

    /// Apply one **sealed** epoch to the read view and emit CDC updates.
    /// Delta images carry exactly the cut's dirty set and emit every entry;
    /// full images (a rebase) are diffed against the view so subscribers
    /// see changes, not a full re-broadcast. Returns the number of updates
    /// delivered (counting fan-out to multiple subscriptions).
    ///
    /// Readers are blocked only for the swap itself: the diff runs under the
    /// read lock — sound because the coordinator is the view's only writer,
    /// so no slot changes between the diff and the swap — a full image is
    /// indexed into its new partition map before the write lock is taken,
    /// and the replaced partition maps are dropped after it is released.
    pub(crate) fn apply_sealed(&self, epoch: u64, mut parts: Vec<(usize, DecodedImage)>) -> u64 {
        let mut changed: Vec<StateUpdate> = Vec::new();
        {
            // Poisoning here would mean a *reader* panicked mid-read (readers
            // only clone); treat the map as still valid rather than wedging
            // the coordinator.
            // lock-order: view alone (read), dropped at block end.
            let view = match self.view.read() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            for (partition, image) in &parts {
                let update = |addr: &EntityAddr, state: Option<&EntityState>| StateUpdate {
                    epoch,
                    addr: addr.clone(),
                    fields: state.map(field_image).unwrap_or_default(),
                    deleted: state.is_none(),
                };
                match image.kind {
                    SnapshotKind::Delta => {
                        for (addr, state) in &image.entities {
                            changed.push(update(addr, Some(state)));
                        }
                        for addr in &image.tombstones {
                            changed.push(update(addr, None));
                        }
                    }
                    SnapshotKind::Full => {
                        let slot = &view.partitions[*partition];
                        for (addr, state) in &image.entities {
                            if slot.get(addr).is_none_or(|old| old != state) {
                                changed.push(update(addr, Some(state)));
                            }
                        }
                        // Address order, as for the upserts above: the
                        // view's hash order is not part of the CDC stream.
                        let mut deleted: Vec<&EntityAddr> = slot
                            .keys()
                            .filter(|addr| !image.entities.contains_key(*addr))
                            .collect();
                        deleted.sort_unstable();
                        for addr in deleted {
                            changed.push(update(addr, None));
                        }
                    }
                }
            }
        }
        let rebuilt: Vec<Option<ViewPartition>> = parts
            .iter_mut()
            .map(|(_, image)| {
                (image.kind == SnapshotKind::Full).then(|| {
                    let entities = std::mem::take(&mut image.entities);
                    view_partition(entities.len(), entities)
                })
            })
            .collect();
        let mut replaced = Vec::new();
        {
            // lock-order: view alone (write), dropped at block end before
            // the replaced maps and before subs.
            let mut view = match self.view.write() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            for ((partition, image), rebuilt) in parts.into_iter().zip(rebuilt) {
                let slot = &mut view.partitions[partition];
                match rebuilt {
                    Some(full) => replaced.push(std::mem::replace(slot, full)),
                    None => {
                        slot.extend(image.entities);
                        for addr in &image.tombstones {
                            slot.remove(addr);
                        }
                    }
                }
            }
            view.epoch = epoch;
        }
        drop(replaced);

        let mut delivered = 0u64;
        if !changed.is_empty() {
            // lock-order: subs alone; the view guard was dropped above.
            if let Ok(subs) = self.subs.lock() {
                for update in &changed {
                    for sub in subs.iter() {
                        let matches = match &sub.filter {
                            SubFilter::Class(class) => update.addr.class == *class,
                            SubFilter::Entity(addr) => update.addr == *addr,
                        };
                        if matches && sub.tx.send(update.clone()).is_ok() {
                            delivered += 1;
                        }
                    }
                }
            }
        }
        self.cdc_events.fetch_add(delivered, Ordering::SeqCst);
        delivered
    }

    /// Stop accepting submissions; the coordinator drains and exits.
    pub(crate) fn close(&self) {
        // lock-order: queue alone, dropped before the condvar broadcast.
        let mut guard = match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.closed = true;
        drop(guard);
        self.work_cv.notify_all();
    }

    /// End of run: drop every session and subscription sender so client
    /// receive loops observe disconnection instead of blocking forever.
    pub(crate) fn seal_outputs(&self) {
        self.close();
        // lock-order: sessions then subs, sequentially — never nested.
        if let Ok(mut sessions) = self.sessions.lock() {
            sessions.clear();
        }
        // lock-order: subs alone; the sessions guard dropped above.
        if let Ok(mut subs) = self.subs.lock() {
            subs.clear();
        }
    }

    fn stats(&self) -> ServiceStats {
        // lock-order: view alone, released before the atomics are sampled.
        let view_epoch = match self.view.read() {
            Ok(v) => v.epoch,
            Err(poisoned) => poisoned.into_inner().epoch,
        };
        ServiceStats {
            admitted: self.admitted.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            inflight: self.inflight.load(Ordering::SeqCst),
            peak_queue_depth: self.peak_queue.load(Ordering::SeqCst),
            cdc_events: self.cdc_events.load(Ordering::SeqCst),
            view_epoch,
            latest_cut_epoch: self.latest_cut.load(Ordering::SeqCst),
        }
    }

    fn read_view<T>(&self, f: impl FnOnce(&ReadView) -> T) -> (T, ReadStaleness) {
        // lock-order: view alone; `f` is a pure projection over the guard.
        let view = match self.view.read() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        let staleness = ReadStaleness {
            snapshot_epoch: view.epoch,
            latest_epoch: self.latest_cut.load(Ordering::SeqCst).max(view.epoch),
        };
        (f(&view), staleness)
    }
}

/// Full `(field, value)` post-image of an entity, in slot order.
fn field_image(state: &EntityState) -> FieldImage {
    state
        .iter()
        .map(|(name, value)| (name.to_string(), value.clone()))
        .collect()
}

/// Cloneable client-side handle to a serving runtime: opens sessions, serves
/// snapshot-isolated reads, registers CDC subscriptions. All methods are
/// callable from any thread.
#[derive(Clone)]
pub struct ServiceHandle {
    core: Arc<ServiceCore>,
}

impl ServiceHandle {
    pub(crate) fn new(core: Arc<ServiceCore>) -> Self {
        ServiceHandle { core }
    }

    /// Open a client session: an independent submission stream with its own
    /// response channel. Responses are multiplexed back per session as
    /// batches retire.
    pub fn session(&self) -> ClientSession {
        let id = self.core.next_session.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = channel();
        // lock-order: sessions alone during registration.
        if let Ok(mut sessions) = self.core.sessions.lock() {
            sessions.insert(id, tx);
        }
        ClientSession {
            id,
            core: Arc::clone(&self.core),
            rx,
            next_seq: 0,
        }
    }

    /// Point read: the entity's full field image at the latest sealed epoch,
    /// `None` if it does not exist there. Never touches the transactional
    /// pipeline — this is one hash probe on the address's cached key hash,
    /// under a read lock.
    pub fn read(&self, addr: &EntityAddr) -> ReadResult<Option<FieldImage>> {
        let shard = self.core.map.route(addr);
        let (value, staleness) = self
            .core
            .read_view(|view| view.partitions[shard].get(addr).map(field_image));
        ReadResult { value, staleness }
    }

    /// Point read of a single field at the latest sealed epoch (one probe,
    /// as [`read`](Self::read)).
    pub fn read_field(&self, addr: &EntityAddr, field: &str) -> ReadResult<Option<Value>> {
        let shard = self.core.map.route(addr);
        let (value, staleness) = self.core.read_view(|view| {
            view.partitions[shard]
                .get(addr)
                .and_then(|s| s.get(field).cloned())
        });
        ReadResult { value, staleness }
    }

    /// Scan every live entity of `class` at the latest sealed epoch,
    /// partition by partition, in address order within each partition. The
    /// view is hash-indexed, so each partition's matches are sorted after
    /// the read lock is released. An unknown class scans empty.
    pub fn scan_class(&self, class: &str) -> ReadResult<Vec<(EntityAddr, FieldImage)>> {
        let class_id = ClassId::lookup(class);
        let ((mut value, ends), staleness) = self.core.read_view(|view| {
            let mut out = Vec::new();
            let mut ends = Vec::new();
            let Some(class_id) = class_id else {
                return (out, ends);
            };
            for partition in &view.partitions {
                for (addr, state) in partition {
                    if addr.class == class_id {
                        out.push((addr.clone(), field_image(state)));
                    }
                }
                ends.push(out.len());
            }
            (out, ends)
        });
        let mut start = 0;
        for end in ends {
            value[start..end].sort_unstable_by(|a, b| a.0.cmp(&b.0));
            start = end;
        }
        ReadResult { value, staleness }
    }

    /// Subscribe to every change of every entity of `class`. Updates are
    /// emitted at seal time, exactly once per sealed epoch.
    pub fn subscribe_class(&self, class: &str) -> Subscription {
        let filter = match ClassId::lookup(class) {
            Some(id) => SubFilter::Class(id),
            // Unknown class: a valid subscription that never matches.
            None => SubFilter::Class(ClassId::intern(class)),
        };
        self.subscribe(filter)
    }

    /// Subscribe to every change of one entity.
    pub fn subscribe_entity(&self, addr: EntityAddr) -> Subscription {
        self.subscribe(SubFilter::Entity(addr))
    }

    fn subscribe(&self, filter: SubFilter) -> Subscription {
        let id = self.core.next_sub.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = channel();
        // lock-order: subs alone during registration.
        if let Ok(mut subs) = self.core.subs.lock() {
            subs.push(SubEntry { id, filter, tx });
        }
        Subscription {
            id,
            rx,
            core: Arc::clone(&self.core),
        }
    }

    /// Current service counters.
    pub fn stats(&self) -> ServiceStats {
        self.core.stats()
    }

    /// The sealed epoch the read view currently serves.
    pub fn view_epoch(&self) -> u64 {
        self.stats().view_epoch
    }

    /// Stop accepting submissions. The coordinator answers everything
    /// already admitted, seals the tail epoch, and `serve` returns. Called
    /// automatically when the client closure returns.
    pub fn close(&self) {
        self.core.close();
    }
}

/// One client's submission stream plus its private response channel.
///
/// `submit` is the admission-controlled front door: it either enqueues the
/// call (returning the session-local sequence number to correlate the
/// response with) or sheds it with [`ShardError::Overloaded`] /
/// [`ShardError::ServiceClosed`] without any side effect.
pub struct ClientSession {
    id: u64,
    core: Arc<ServiceCore>,
    rx: Receiver<StampedResponse>,
    next_seq: u64,
}

impl ClientSession {
    /// This session's id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submit a call through the bounded front door. Returns the
    /// session-local sequence number the response will carry, or sheds with
    /// [`ShardError::Overloaded`] when
    /// [`ShardConfig::max_inflight_requests`] admitted calls are already
    /// unanswered (`0` disables shedding). A shed call has **no** side
    /// effect: no call id, no log append, no partial application.
    pub fn submit(&mut self, call: MethodCall) -> Result<u64, ShardError> {
        let core = &self.core;
        let max = core.max_inflight;
        // Reserve the admission slot optimistically; back out on shed. The
        // counter is released when the response is routed back (or dropped
        // with the session), so it bounds queue + pipeline occupancy.
        let inflight = core.inflight.fetch_add(1, Ordering::SeqCst);
        if max > 0 && inflight >= max {
            core.inflight.fetch_sub(1, Ordering::SeqCst);
            core.shed.fetch_add(1, Ordering::SeqCst);
            return Err(ShardError::Overloaded { inflight, max });
        }
        // The one compound edge in the service tier, acyclic because
        // racecheck never calls back into the service:
        // lock-order: queue, then the racecheck clock table (stamp_current).
        let mut guard = match core.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if guard.closed {
            drop(guard);
            core.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(ShardError::ServiceClosed);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let stamp = core.monitor.get().map(|m| m.stamp_current());
        guard.queue.push_back(ServiceRequest {
            session: self.id,
            seq,
            call,
            stamp,
        });
        let depth = guard.queue.len();
        drop(guard);
        core.peak_queue.fetch_max(depth, Ordering::SeqCst);
        core.admitted.fetch_add(1, Ordering::SeqCst);
        core.work_cv.notify_all();
        Ok(seq)
    }

    /// Join the response's stamp into this thread's clock, so everything the
    /// pipeline did for the call happens-before whatever the client does
    /// with the answer. No-op on unmonitored runs.
    fn absorb(&self, delivery: StampedResponse) -> SessionResponse {
        let (response, stamp) = delivery;
        if let (Some(monitor), Some(stamp)) = (self.core.monitor.get(), &stamp) {
            monitor.join_current(stamp);
        }
        response
    }

    /// Next response, waiting up to `timeout`. `Err(Disconnected)` means the
    /// service has finished and every response this session will ever get
    /// has been delivered (drain any buffered tail with
    /// [`try_recv`](Self::try_recv) first).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<SessionResponse, RecvTimeoutError> {
        self.rx.recv_timeout(timeout).map(|d| self.absorb(d))
    }

    /// Next buffered response, if any.
    pub fn try_recv(&self) -> Option<SessionResponse> {
        self.rx.try_recv().ok().map(|d| self.absorb(d))
    }

    /// Block until `n` responses have arrived (or the service finishes),
    /// returning them in delivery order.
    pub fn collect(&self, n: usize) -> Vec<SessionResponse> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.rx.recv() {
                Ok(d) => out.push(self.absorb(d)),
                Err(_) => break,
            }
        }
        out
    }
}

impl Drop for ClientSession {
    fn drop(&mut self) {
        // lock-order: sessions alone; nothing else is held during unregister.
        if let Ok(mut sessions) = self.core.sessions.lock() {
            sessions.remove(&self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use state_backend::PartitionState;
    use stateful_entities::Key;
    use std::collections::BTreeMap;

    const SHARDS: usize = 2;

    fn addr(i: usize) -> EntityAddr {
        EntityAddr::new("Account", Key::Str(format!("acc{i}").into()))
    }

    fn account(balance: i64) -> EntityState {
        let mut state = EntityState::new();
        state.insert("balance".into(), Value::Int(balance));
        state
    }

    fn image(kind: SnapshotKind, entities: &BTreeMap<EntityAddr, EntityState>) -> DecodedImage {
        DecodedImage {
            kind,
            entities: entities.clone(),
            tombstones: Vec::new(),
        }
    }

    /// The expected scan: partition by partition, address order within each.
    fn model_scan(model: &[BTreeMap<EntityAddr, EntityState>]) -> Vec<(EntityAddr, FieldImage)> {
        model
            .iter()
            .flat_map(|partition| partition.iter().map(|(a, s)| (a.clone(), field_image(s))))
            .collect()
    }

    /// The hash-indexed view keeps the scan's documented order and the point
    /// reads' values through a seed, deltas (with a tombstone) and a rebase.
    #[test]
    fn view_keeps_address_order_through_deltas_and_a_rebase() {
        let map = Arc::new(ShardMap::uniform(SHARDS));
        let core = ServiceCore::new(Arc::clone(&map), SHARDS, 0);
        let handle = ServiceHandle::new(Arc::clone(&core));
        let mut model: Vec<BTreeMap<EntityAddr, EntityState>> = vec![BTreeMap::new(); SHARDS];
        let mut loaded: Vec<PartitionState> = (0..SHARDS).map(|_| PartitionState::new()).collect();
        for i in 0..64 {
            let a = addr(i);
            let shard = map.route(&a);
            loaded[shard].put(a.clone(), account(i as i64));
            model[shard].insert(a, account(i as i64));
        }
        core.seed_view(&loaded);
        assert_eq!(handle.scan_class("Account").value, model_scan(&model));

        // Epoch 1: a delta updates every third account, adds new ones and
        // deletes one.
        let mut parts = Vec::new();
        for (shard, partition) in model.iter_mut().enumerate() {
            let mut dirty = BTreeMap::new();
            for i in (0..96).filter(|i| i % 3 == 0) {
                let a = addr(i);
                if map.route(&a) == shard {
                    partition.insert(a.clone(), account(1_000 + i as i64));
                    dirty.insert(a, account(1_000 + i as i64));
                }
            }
            let mut delta = image(SnapshotKind::Delta, &dirty);
            let gone = partition
                .keys()
                .nth(1)
                .cloned()
                .expect("partition holds accounts");
            partition.remove(&gone);
            delta.tombstones.push(gone);
            parts.push((shard, delta));
        }
        core.apply_sealed(1, parts);
        assert_eq!(handle.scan_class("Account").value, model_scan(&model));

        // Epoch 2: a rebase replaces each partition with its full image.
        for (i, partition) in model.iter_mut().enumerate() {
            partition.retain(|a, _| a.key_hash() % 5 != i as u64);
        }
        let parts = model
            .iter()
            .enumerate()
            .map(|(shard, partition)| (shard, image(SnapshotKind::Full, partition)))
            .collect();
        core.apply_sealed(2, parts);
        let scan = handle.scan_class("Account");
        assert_eq!(scan.staleness.snapshot_epoch, 2);
        assert_eq!(scan.value, model_scan(&model));
        for i in 0..96 {
            let a = addr(i);
            let expected = model[map.route(&a)].get(&a).map(field_image);
            assert_eq!(handle.read(&a).value, expected, "account {i}");
        }
        assert!(handle.scan_class("NoSuchClass").value.is_empty());
    }
}
