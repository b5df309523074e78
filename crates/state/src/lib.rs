//! # state-backend
//!
//! Managed operator state for stateful dataflow operators: a partitioned
//! key→entity-state store with **dirty tracking**, a compact **binary
//! snapshot codec**, and a snapshot store implementing the state side of the
//! consistent-snapshot (Chandy–Lamport style) fault-tolerance protocol the
//! paper's StateFlow runtime relies on for exactly-once guarantees.
//!
//! ## Incremental snapshot protocol
//!
//! The seed implementation serialized *every* partition through `serde_json`
//! at *every* epoch, stalling workers proportionally to total state size.
//! Snapshots are now incremental and binary:
//!
//! * [`PartitionState`] tracks which entities were written (or removed) since
//!   the last snapshot in a dirty set — `put`, `get_mut`, and `take` mark it;
//! * at an epoch boundary the runtime emits either a **full** snapshot
//!   ([`PartitionState::snapshot_full`]) or a **delta**
//!   ([`PartitionState::snapshot_delta`]) containing only dirty entities and
//!   tombstones for removals; both clear the dirty set, re-basing the next
//!   delta on the epoch just captured;
//! * the runtime takes a full snapshot every N epochs (the *rebase interval*)
//!   and deltas in between, bounding recovery-chain length;
//! * recovery rebuilds a partition with [`SnapshotStore::reconstruct`]:
//!   latest full snapshot at-or-before the target epoch, plus every delta
//!   after it, applied in epoch order.
//!
//! The wire format is length-prefixed binary (see [`stateful_entities::binary`]),
//! version 2: a **class dictionary** (each distinct entity-class name written
//! once per snapshot), a layout dictionary (each distinct [`FieldLayout`]
//! encoded once), then one record per entity — class dictionary index (`u32`),
//! key, layout index, and the slot values in layout order. Addresses inside a
//! snapshot are therefore pure ids; class names appear exactly once however
//! many entities share them. Numeric [`ClassId`]s never hit the wire (they
//! are process-local); decode re-interns the dictionary names. No JSON is
//! produced on this path; the `BTreeMap` debug view of [`EntityState`]
//! remains available for human inspection.
//!
//! ## Capture vs. encode (off-barrier snapshots)
//!
//! Since PR 5 the *cut* and the *materialization* of a snapshot are separate
//! steps. [`PartitionState::capture_full`] / [`PartitionState::capture_delta`]
//! move the (dirty) entities' current values into a [`SnapshotCapture`] — a
//! copy-on-write buffer: entity values are `Arc`-shared, so the capture walk
//! is a refcount walk plus one small `Vec` per entity, not a deep copy — and
//! re-base the dirty set exactly like the eager `snapshot_*` methods do.
//! [`SnapshotCapture::encode`] then runs the exact-size encoder at any later
//! point, off the runtime's quiescent barrier. The eager
//! [`PartitionState::snapshot_full`] / [`PartitionState::snapshot_delta`]
//! remain for callers that want capture + encode in one step.
//!
//! ## Pending vs. sealed epochs
//!
//! With snapshot bytes arriving asynchronously, an epoch's snapshots can be
//! *in flight* while the runtime keeps processing. [`SnapshotStore`] therefore
//! distinguishes **pending** epochs (announced via
//! [`SnapshotStore::begin_epoch`], or with some partitions' bytes arrived)
//! from **sealed** epochs (every partition's bytes stored). Epochs seal
//! strictly in epoch order, and only sealed epochs are eligible as recovery
//! points: [`SnapshotStore::latest_sealed_epoch`] names the rollback target,
//! [`SnapshotStore::reconstruct`] reads sealed snapshots only, and
//! [`SnapshotStore::truncate_after`] drops pending arrivals along with stale
//! sealed epochs.
//!
//! ## Bounding recovery chains
//!
//! Long delta chains can be bounded independently of the rebase interval in
//! two ways. [`SnapshotStore::compact`] (PR 2) merges adjacent encoded deltas
//! per partition after the fact, so every full snapshot is followed by at most
//! one delta — but re-folding at every epoch costs O(cumulative dirty set) of
//! codec work per barrier. A store built with
//! [`SnapshotStore::new_amortized`] instead keeps the merged delta in
//! **decoded** form per partition and folds each newly *sealed* delta into it
//! incrementally — O(that epoch's dirty set) per epoch, zero encoding — and
//! encodes the merged form lazily only when someone asks for bytes
//! ([`SnapshotStore::merged_delta_bytes`]). Recovery applies the decoded
//! merged delta directly on the full anchor, with no codec round-trip.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use stateful_entities::binary::{
    get_key, get_layout, get_str, get_u32, get_value, put_key, put_layout, put_str, put_u32,
    put_value, CodecError, CodecResult,
};
use stateful_entities::{ClassId, EntityAddr, EntityState, FieldLayout, Key, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An epoch identifier: snapshots are aligned on epoch boundaries.
pub type EpochId = u64;

/// An optional [`racecheck::Monitor`] attachment carried by monitored state
/// objects. Unarmed (the default) every hook call is two `Option` checks —
/// the unmonitored hot path stays as before. Compares equal regardless of
/// arming: monitor identity is instrumentation, not logical state.
#[derive(Debug, Clone, Default)]
struct MonitorHook {
    monitor: Option<Arc<racecheck::Monitor>>,
    resource: Option<racecheck::Resource>,
}

impl PartialEq for MonitorHook {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl MonitorHook {
    fn arm(&mut self, monitor: Arc<racecheck::Monitor>, resource: racecheck::Resource) {
        self.monitor = Some(monitor);
        self.resource = Some(resource);
    }

    #[inline]
    fn observe(&self, kind: racecheck::AccessKind, context: &'static str) {
        if let (Some(monitor), Some(resource)) = (&self.monitor, self.resource) {
            monitor.access_current(resource, kind, context);
        }
    }

    #[inline]
    fn read(&self, context: &'static str) {
        self.observe(racecheck::AccessKind::Read, context);
    }

    #[inline]
    fn write(&self, context: &'static str) {
        self.observe(racecheck::AccessKind::Write, context);
    }
}

/// Binary snapshot format version. Version 2 (PR 2) introduced the class
/// dictionary: every distinct entity-class name is written once per
/// snapshot and entity records refer to it by `u32` index — addresses inside
/// a snapshot are pure ids, never repeated strings.
const SNAPSHOT_VERSION: u8 = 2;
const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;

/// Whether a snapshot captures the whole partition or only the entities
/// written since the previous snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotKind {
    /// Complete partition contents (a rebase point for delta chains).
    Full,
    /// Dirty entities + tombstones since the previous snapshot.
    Delta,
}

/// A per-partition intern pool for the `Arc<str>` payloads of hot
/// [`Key::Str`] keys.
///
/// Every ingress call materializes a fresh `Arc<str>` for its target key, so
/// a hot key hit N times would otherwise keep N live allocations of the same
/// bytes spread across the entity map, the dirty set, continuation frames,
/// and snapshot captures. Interning collapses them to one allocation per
/// distinct key per partition: a lookup is a `BTreeSet` probe (borrowed as
/// `&str`, no allocation), and a hit swaps the incoming `Arc` for the pooled
/// one — dropping the duplicate when the caller releases its copy.
///
/// The pool is partition-local on purpose: partitions are owned by one worker
/// thread each, so interning needs no synchronization, and a partition only
/// ever sees keys that hash to it. The counters make the win measurable:
/// [`KeyInterner::saved_bytes`] is the cumulative size of duplicate
/// allocations avoided, [`KeyInterner::resident_bytes`] the pool's own
/// footprint.
#[derive(Debug, Clone, Default)]
pub struct KeyInterner {
    strings: BTreeSet<Arc<str>>,
    hits: u64,
    saved_bytes: u64,
}

impl KeyInterner {
    /// Return the pooled equivalent of `key`: the canonical `Arc` if the
    /// string was seen before (the duplicate is dropped), `key` itself —
    /// newly pooled — otherwise. Non-string keys pass through untouched.
    pub fn intern(&mut self, key: Key) -> Key {
        match key {
            Key::Str(s) => {
                if let Some(existing) = self.strings.get(&*s) {
                    if !Arc::ptr_eq(existing, &s) {
                        self.hits += 1;
                        self.saved_bytes += s.len() as u64;
                    }
                    Key::Str(Arc::clone(existing))
                } else {
                    self.strings.insert(Arc::clone(&s));
                    Key::Str(s)
                }
            }
            other => other,
        }
    }

    /// Number of distinct string keys pooled.
    pub fn unique_keys(&self) -> usize {
        self.strings.len()
    }

    /// Bytes held by the pool itself (sum of distinct key lengths).
    pub fn resident_bytes(&self) -> u64 {
        self.strings.iter().map(|s| s.len() as u64).sum()
    }

    /// Lookups that found an existing (non-identical) allocation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative bytes of duplicate key allocations avoided: each hit frees
    /// the incoming copy of the key once the caller drops it.
    pub fn saved_bytes(&self) -> u64 {
        self.saved_bytes
    }
}

/// The state owned by one worker/partition: every entity instance whose key
/// hashes to this partition, across all operators.
#[derive(Debug, Clone, Default)]
pub struct PartitionState {
    entities: BTreeMap<EntityAddr, EntityState>,
    /// Entities written since the last snapshot.
    dirty: BTreeSet<EntityAddr>,
    /// Entities removed since the last snapshot.
    tombstones: BTreeSet<EntityAddr>,
    /// Pool of this partition's hot string keys (see [`KeyInterner`]).
    interner: KeyInterner,
    /// Optional race-detector attachment (see [`PartitionState::arm_monitor`]).
    hook: MonitorHook,
}

impl PartialEq for PartitionState {
    fn eq(&self, other: &Self) -> bool {
        // Equality is by contents; dirty/tombstone bookkeeping is relative to
        // the last snapshot, not part of the logical state.
        self.entities == other.entities
    }
}

impl PartitionState {
    /// Create an empty partition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a race monitor: every subsequent read/write of this partition
    /// reports to it as [`racecheck::Resource::Partition`]`(partition)` on
    /// the calling thread's registered role. A partition deserialized by
    /// [`PartitionState::from_bytes`] comes back unarmed — the adopting
    /// worker re-arms it (the bytes themselves crossed a stamped channel).
    pub fn arm_monitor(&mut self, monitor: Arc<racecheck::Monitor>, partition: usize) {
        self.hook
            .arm(monitor, racecheck::Resource::Partition(partition));
    }

    /// Install (or overwrite) an entity instance. String keys are interned:
    /// the stored address shares this partition's pooled allocation.
    pub fn put(&mut self, addr: EntityAddr, state: EntityState) {
        self.hook.write("PartitionState::put");
        let addr = self.intern_addr(addr);
        self.tombstones.remove(&addr);
        if !self.dirty.contains(&addr) {
            self.dirty.insert(addr.clone());
        }
        self.entities.insert(addr, state);
    }

    /// Swap a string-keyed address for one sharing the partition's pooled
    /// key allocation (see [`KeyInterner`]). The hot-path use is interning an
    /// ingress call's freshly allocated target key before executing against
    /// it, so repeated calls on a hot key cost refcount bumps, not duplicate
    /// string allocations. Non-string keys pass through untouched.
    pub fn intern_addr(&mut self, addr: EntityAddr) -> EntityAddr {
        match addr.key() {
            Key::Str(_) => {
                let key = self.interner.intern(addr.key().clone());
                EntityAddr::from_ids(addr.class, key)
            }
            _ => addr,
        }
    }

    /// This partition's key pool and its hit/savings counters.
    pub fn key_interner(&self) -> &KeyInterner {
        &self.interner
    }

    /// Remove and return the state of an entity instance.
    pub fn take(&mut self, addr: &EntityAddr) -> Option<EntityState> {
        self.hook.write("PartitionState::take");
        let removed = self.entities.remove(addr);
        if removed.is_some() {
            self.dirty.remove(addr);
            self.tombstones.insert(addr.clone());
        }
        removed
    }

    /// Read-only access to an entity instance.
    pub fn get(&self, addr: &EntityAddr) -> Option<&EntityState> {
        self.hook.read("PartitionState::get");
        self.entities.get(addr)
    }

    /// Mutable access to an entity instance (marks it dirty).
    pub fn get_mut(&mut self, addr: &EntityAddr) -> Option<&mut EntityState> {
        self.hook.write("PartitionState::get_mut");
        if !self.entities.contains_key(addr) {
            return None;
        }
        // Clone the address into the dirty set only on the first write since
        // the last snapshot — hot entities stay allocation-free per access.
        if !self.dirty.contains(addr) {
            self.dirty.insert(addr.clone());
        }
        self.entities.get_mut(addr)
    }

    /// Run `f` against an entity's state **in place**, marking the entity
    /// dirty only if `f` actually wrote a field (checked through the state's
    /// O(1) write marker, which is cleared before `f` runs).
    ///
    /// This is the per-hop execution path of the sharded runtime: a worker
    /// thread owns its partition outright, so a hop can execute directly on
    /// the stored state — no per-hop clone — while read-only invocations
    /// still stay out of the dirty set and keep delta snapshots proportional
    /// to the write set. Returns `None` (without calling `f`) if the entity
    /// does not exist.
    pub fn update_with<R>(
        &mut self,
        addr: &EntityAddr,
        f: impl FnOnce(&mut EntityState) -> R,
    ) -> Option<R> {
        self.hook.write("PartitionState::update_with");
        let state = self.entities.get_mut(addr)?;
        state.clear_written();
        let result = f(state);
        if state.was_written() && !self.dirty.contains(addr) {
            self.dirty.insert(addr.clone());
        }
        Some(result)
    }

    /// True if the instance exists.
    pub fn contains(&self, addr: &EntityAddr) -> bool {
        self.entities.contains_key(addr)
    }

    /// Number of entity instances.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True if the partition holds no instances.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Number of entities written since the last snapshot.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Iterate over all instances.
    pub fn iter(&self) -> impl Iterator<Item = (&EntityAddr, &EntityState)> {
        self.hook.read("PartitionState::iter");
        self.entities.iter()
    }

    /// Approximate serialized size of the partition in bytes (addresses are
    /// fixed-width class ids + keys under the v2 codec).
    pub fn approx_size(&self) -> usize {
        self.entities
            .iter()
            .map(|(addr, state)| {
                4 + key_size(addr.key())
                    + state
                        .iter()
                        .map(|(f, v)| f.len() + v.approx_size())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Serialize the complete partition (binary, without touching the dirty
    /// set — use [`PartitionState::snapshot_full`] at epoch boundaries).
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(KIND_FULL, self.entities.iter(), &[])
    }

    /// Restore from bytes produced by [`PartitionState::to_bytes`] or
    /// [`PartitionState::snapshot_full`]. The restored partition is clean
    /// (nothing dirty).
    pub fn from_bytes(bytes: &[u8]) -> CodecResult<Self> {
        let (kind, entities, tombstones) = decode(bytes)?;
        if kind != KIND_FULL {
            return Err(CodecError::new(
                "expected a full snapshot, found a delta (apply it with apply_delta)",
            ));
        }
        if !tombstones.is_empty() {
            return Err(CodecError::new(
                "malformed full snapshot: carries tombstones",
            ));
        }
        Ok(PartitionState {
            entities,
            dirty: BTreeSet::new(),
            tombstones: BTreeSet::new(),
            interner: KeyInterner::default(),
            hook: MonitorHook::default(),
        })
    }

    /// Capture a full snapshot and re-base: the dirty set is cleared, so the
    /// next [`PartitionState::snapshot_delta`] is relative to this capture.
    pub fn snapshot_full(&mut self) -> Vec<u8> {
        self.hook.write("PartitionState::snapshot_full");
        self.dirty.clear();
        self.tombstones.clear();
        encode(KIND_FULL, self.entities.iter(), &[])
    }

    /// Capture only the entities written (and removed) since the previous
    /// snapshot, then clear the dirty set.
    pub fn snapshot_delta(&mut self) -> Vec<u8> {
        self.hook.write("PartitionState::snapshot_delta");
        let dirty_entities = self
            .dirty
            .iter()
            .filter_map(|addr| self.entities.get(addr).map(|s| (addr, s)));
        let tombstones: Vec<EntityAddr> = self.tombstones.iter().cloned().collect();
        let bytes = encode(KIND_DELTA, dirty_entities, &tombstones);
        self.dirty.clear();
        self.tombstones.clear();
        bytes
    }

    /// Apply a delta produced by [`PartitionState::snapshot_delta`] on top of
    /// this partition (recovery path).
    pub fn apply_delta(&mut self, bytes: &[u8]) -> CodecResult<()> {
        self.hook.write("PartitionState::apply_delta");
        let (kind, entities, tombstones) = decode(bytes)?;
        if kind != KIND_DELTA {
            return Err(CodecError::new(
                "expected a delta snapshot, found a full one",
            ));
        }
        for (addr, state) in entities {
            self.entities.insert(addr, state);
        }
        for addr in tombstones {
            self.entities.remove(&addr);
        }
        Ok(())
    }

    /// Capture the complete partition into a [`SnapshotCapture`] **without
    /// encoding** and re-base (the dirty set is cleared, exactly like
    /// [`PartitionState::snapshot_full`]). Entity values are `Arc`-shared, so
    /// this is a refcount walk, not a deep copy.
    pub fn capture_full(&mut self) -> SnapshotCapture {
        self.hook.write("PartitionState::capture_full");
        self.dirty.clear();
        self.tombstones.clear();
        SnapshotCapture {
            kind: SnapshotKind::Full,
            entities: self
                .entities
                .iter()
                .map(|(a, s)| (a.clone(), s.clone()))
                .collect(),
            tombstones: Vec::new(),
        }
    }

    /// Capture only the entities written (and removed) since the previous
    /// capture/snapshot into a [`SnapshotCapture`] without encoding, then
    /// clear the dirty set — the next delta re-bases on this cut whether or
    /// not its bytes have been materialized yet.
    pub fn capture_delta(&mut self) -> SnapshotCapture {
        self.hook.write("PartitionState::capture_delta");
        let entities = self
            .dirty
            .iter()
            .filter_map(|addr| self.entities.get(addr).map(|s| (addr.clone(), s.clone())))
            .collect();
        let tombstones: Vec<EntityAddr> = self.tombstones.iter().cloned().collect();
        self.dirty.clear();
        self.tombstones.clear();
        SnapshotCapture {
            kind: SnapshotKind::Delta,
            entities,
            tombstones,
        }
    }
}

/// A copy-on-write snapshot cut: the captured entities' values at barrier
/// time, held in decoded form so the (comparatively expensive) encoding can
/// run later, off the runtime's quiescent point. Values inside are
/// `Arc`-shared with the live partition — a subsequent write to the live
/// entity replaces its slot value, it never mutates the shared payload — so
/// the capture stays a consistent cut at zero copy cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotCapture {
    kind: SnapshotKind,
    entities: Vec<(EntityAddr, EntityState)>,
    tombstones: Vec<EntityAddr>,
}

impl SnapshotCapture {
    /// Whether this capture is a full partition cut or a dirty delta.
    pub fn kind(&self) -> SnapshotKind {
        self.kind
    }

    /// Number of entity records in the capture.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of tombstones in the capture.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Materialize the capture through the exact-size encoder. Byte-for-byte
    /// identical to what the eager `snapshot_*` method would have produced at
    /// capture time.
    pub fn encode(&self) -> Vec<u8> {
        let kind = match self.kind {
            SnapshotKind::Full => KIND_FULL,
            SnapshotKind::Delta => KIND_DELTA,
        };
        encode(
            kind,
            self.entities.iter().map(|(a, s)| (a, s)),
            &self.tombstones,
        )
    }
}

/// Process-wide codec invocation counters, for *structural* cost pins: a test
/// can assert that an operation performs O(dirty set) codec work — or none at
/// all — without depending on machine timings (the same idea as the counting
/// allocator in `tests/codec_alloc.rs`). Counters only ever increase; callers
/// measure deltas. Relaxed atomics: the counts are statistics, not
/// synchronization.
pub mod codec_stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(crate) static ENCODE_CALLS: AtomicU64 = AtomicU64::new(0);
    pub(crate) static ENCODED_ENTITIES: AtomicU64 = AtomicU64::new(0);
    pub(crate) static DECODE_CALLS: AtomicU64 = AtomicU64::new(0);
    pub(crate) static DECODED_ENTITIES: AtomicU64 = AtomicU64::new(0);

    /// A point-in-time reading of the codec counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CodecStats {
        /// Snapshot encodes performed since process start.
        pub encode_calls: u64,
        /// Entity records written across all encodes.
        pub encoded_entities: u64,
        /// Snapshot decodes performed since process start.
        pub decode_calls: u64,
        /// Entity records read across all decodes.
        pub decoded_entities: u64,
    }

    impl CodecStats {
        /// Counter-wise difference `self - earlier`.
        pub fn since(&self, earlier: &CodecStats) -> CodecStats {
            CodecStats {
                encode_calls: self.encode_calls - earlier.encode_calls,
                encoded_entities: self.encoded_entities - earlier.encoded_entities,
                decode_calls: self.decode_calls - earlier.decode_calls,
                decoded_entities: self.decoded_entities - earlier.decoded_entities,
            }
        }
    }

    /// Read the current counters.
    pub fn current() -> CodecStats {
        CodecStats {
            encode_calls: ENCODE_CALLS.load(Ordering::Relaxed),
            encoded_entities: ENCODED_ENTITIES.load(Ordering::Relaxed),
            decode_calls: DECODE_CALLS.load(Ordering::Relaxed),
            decoded_entities: DECODED_ENTITIES.load(Ordering::Relaxed),
        }
    }
}

/// Encode a snapshot: header, class dictionary, layout dictionary, entity
/// records, tombstones. Each distinct class *name* is written exactly once
/// (numeric [`ClassId`]s are process-local, so the wire format carries names
/// in the dictionary and `u32` dictionary indices everywhere else).
///
/// Two passes: the first builds the dictionaries and sums exact record sizes
/// (see `binary::value_len` and friends), the second writes everything into
/// **one exactly-sized buffer**. The earlier single-pass encoder grew a
/// transient `records` vector by doubling and then copied it into the output
/// — for a 50 KB entity that meant a 64 KB+ doubling allocation crossing the
/// allocator's mmap threshold and a fresh page-faulted mapping per snapshot
/// (the "50 KB codec anomaly": state access 6 µs → 15 µs). The exact-size
/// pass performs one heap allocation per snapshot, of the final length.
fn encode<'a>(
    kind: u8,
    entities: impl Iterator<Item = (&'a EntityAddr, &'a EntityState)>,
    tombstones: &[EntityAddr],
) -> Vec<u8> {
    use stateful_entities::binary::{key_len, layout_len, str_len, value_len};
    use std::sync::atomic::Ordering;

    let entities: Vec<(&EntityAddr, &EntityState)> = entities.collect();
    codec_stats::ENCODE_CALLS.fetch_add(1, Ordering::Relaxed);
    codec_stats::ENCODED_ENTITIES.fetch_add(entities.len() as u64, Ordering::Relaxed);
    let mut classes: Vec<ClassId> = Vec::new();
    let class_idx = |classes: &mut Vec<ClassId>, class: ClassId| -> u32 {
        match classes.iter().position(|c| *c == class) {
            Some(i) => i as u32,
            None => {
                classes.push(class);
                (classes.len() - 1) as u32
            }
        }
    };

    // Pass 1: dictionaries + exact byte counts.
    let mut layouts: Vec<&FieldLayout> = Vec::new();
    let mut records_size = 0usize;
    for (addr, state) in &entities {
        class_idx(&mut classes, addr.class);
        // Dictionary lookup: pointer identity first (all instances of a class
        // share one Arc), content equality as the ad-hoc-state fallback.
        let layout: &'a FieldLayout = state.layout();
        if !layouts
            .iter()
            .any(|l| std::ptr::eq(*l, layout) || *l == layout)
        {
            layouts.push(layout);
        }
        records_size +=
            4 + key_len(addr.key()) + 4 + state.slots().iter().map(value_len).sum::<usize>();
    }
    let mut tomb_size = 0usize;
    for addr in tombstones {
        class_idx(&mut classes, addr.class);
        tomb_size += 4 + key_len(addr.key());
    }
    let total = 2 // version + kind
        + 4 + classes.iter().map(|c| str_len(c.name())).sum::<usize>()
        + 4 + layouts.iter().map(|l| layout_len(l)).sum::<usize>()
        + 4 + records_size
        + 4 + tomb_size;

    // Pass 2: write into the single exactly-sized buffer.
    let mut out = Vec::with_capacity(total);
    out.push(SNAPSHOT_VERSION);
    out.push(kind);
    put_u32(&mut out, classes.len() as u32);
    for class in &classes {
        put_str(&mut out, class.name());
    }
    put_u32(&mut out, layouts.len() as u32);
    for layout in &layouts {
        put_layout(&mut out, layout);
    }
    put_u32(&mut out, entities.len() as u32);
    for (addr, state) in &entities {
        put_u32(&mut out, class_idx(&mut classes, addr.class));
        put_key(&mut out, addr.key());
        let layout: &'a FieldLayout = state.layout();
        let idx = layouts
            .iter()
            .position(|l| std::ptr::eq(*l, layout) || *l == layout)
            .expect("pass 1 registered every layout");
        put_u32(&mut out, idx as u32);
        for value in state.slots() {
            put_value(&mut out, value);
        }
    }
    put_u32(&mut out, tombstones.len() as u32);
    for addr in tombstones {
        put_u32(&mut out, class_idx(&mut classes, addr.class));
        put_key(&mut out, addr.key());
    }
    debug_assert_eq!(out.len(), total, "exact-size accounting must be exact");
    out
}

/// A decoded snapshot image: the entity map plus tombstones, with the kind
/// made explicit. This is the consumer-facing view of the codec — the
/// service tier's read view and CDC egress decode sealed epoch bytes with
/// it instead of re-implementing the wire format.
#[derive(Debug, Clone)]
pub struct DecodedImage {
    /// Full partition image or dirty-set delta.
    pub kind: SnapshotKind,
    /// Decoded entities (for a delta: exactly the dirty set of the cut).
    pub entities: BTreeMap<EntityAddr, EntityState>,
    /// Entities deleted since the previous cut (always empty for a full).
    pub tombstones: Vec<EntityAddr>,
}

/// Decode any snapshot payload (full or delta) into a [`DecodedImage`].
pub fn decode_snapshot(bytes: &[u8]) -> CodecResult<DecodedImage> {
    let (kind, entities, tombstones) = decode(bytes)?;
    let kind = if kind == KIND_FULL {
        SnapshotKind::Full
    } else {
        // decode() rejects anything other than KIND_FULL / KIND_DELTA.
        SnapshotKind::Delta
    };
    Ok(DecodedImage {
        kind,
        entities,
        tombstones,
    })
}

type DecodedSnapshot = (u8, BTreeMap<EntityAddr, EntityState>, Vec<EntityAddr>);

fn decode(bytes: &[u8]) -> CodecResult<DecodedSnapshot> {
    codec_stats::DECODE_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let input = &mut &bytes[..];
    let header: &[u8] = {
        if input.len() < 2 {
            return Err(CodecError::new("snapshot too short for header"));
        }
        let (h, rest) = input.split_at(2);
        *input = rest;
        h
    };
    if header[0] != SNAPSHOT_VERSION {
        return Err(CodecError::new(format!(
            "unsupported snapshot version {}",
            header[0]
        )));
    }
    let kind = header[1];
    if kind != KIND_FULL && kind != KIND_DELTA {
        return Err(CodecError::new(format!("invalid snapshot kind {kind}")));
    }

    // Parse the class dictionary as plain strings first: interning happens
    // only after the *whole* snapshot has decoded successfully, and only for
    // names the records actually reference — corrupt or hostile bytes must
    // never grow the process-global (never-pruned) interner.
    let class_count = get_u32(input)? as usize;
    if class_count > input.len() / 4 + 1 {
        return Err(CodecError::new(format!(
            "class dictionary claims {class_count} entries, input too short"
        )));
    }
    let mut class_names: Vec<String> = Vec::with_capacity(class_count);
    for _ in 0..class_count {
        class_names.push(get_str(input)?);
    }
    let check_idx = |idx: usize| -> CodecResult<usize> {
        if idx < class_names.len() {
            Ok(idx)
        } else {
            Err(CodecError::new(format!("bad class index {idx}")))
        }
    };

    let layout_count = get_u32(input)? as usize;
    let mut layouts: Vec<Arc<FieldLayout>> = Vec::with_capacity(layout_count.min(1 << 12));
    for _ in 0..layout_count {
        layouts.push(Arc::new(get_layout(input)?));
    }

    let entity_count = get_u32(input)? as usize;
    codec_stats::DECODED_ENTITIES
        .fetch_add(entity_count as u64, std::sync::atomic::Ordering::Relaxed);
    let mut raw_entities: Vec<(usize, Key, EntityState)> =
        Vec::with_capacity(entity_count.min(1 << 16));
    for _ in 0..entity_count {
        let class_idx = check_idx(get_u32(input)? as usize)?;
        let key = get_key(input)?;
        let layout_idx = get_u32(input)? as usize;
        let layout = layouts
            .get(layout_idx)
            .ok_or_else(|| CodecError::new(format!("bad layout index {layout_idx}")))?
            .clone();
        let mut slots = Vec::with_capacity(layout.len());
        for _ in 0..layout.len() {
            slots.push(get_value(input)?);
        }
        raw_entities.push((class_idx, key, EntityState::from_parts(layout, slots)));
    }

    let tombstone_count = get_u32(input)? as usize;
    let mut raw_tombstones: Vec<(usize, Key)> = Vec::with_capacity(tombstone_count.min(1 << 16));
    for _ in 0..tombstone_count {
        let class_idx = check_idx(get_u32(input)? as usize)?;
        let key = get_key(input)?;
        raw_tombstones.push((class_idx, key));
    }
    if !input.is_empty() {
        return Err(CodecError::new(format!(
            "{} trailing bytes after snapshot",
            input.len()
        )));
    }

    // The snapshot is structurally valid: intern referenced names (memoised
    // per dictionary slot) and materialise the addresses.
    let mut interned: Vec<Option<ClassId>> = vec![None; class_names.len()];
    let mut class_at = |idx: usize| -> ClassId {
        *interned[idx].get_or_insert_with(|| ClassId::intern(&class_names[idx]))
    };
    let mut entities = BTreeMap::new();
    for (class_idx, key, state) in raw_entities {
        entities.insert(EntityAddr::from_ids(class_at(class_idx), key), state);
    }
    let tombstones = raw_tombstones
        .into_iter()
        .map(|(class_idx, key)| EntityAddr::from_ids(class_at(class_idx), key))
        .collect();
    Ok((kind, entities, tombstones))
}

/// Fold an ordered (oldest-first) chain of delta snapshots into one merged
/// delta, decoding each input once and encoding once. Applying the result is
/// equivalent to applying the inputs in order:
/// `final = (((base + A) − tombA) + B) − tombB …`, so the merged delta is
/// `entities = (A ∪ B ∪ …, later wins) − later tombstones` and
/// `tombstones = (earlier tombs − later entity keys) ∪ later tombs` —
/// entity sets and tombstones stay disjoint.
fn fold_delta_bytes<'a>(deltas: impl Iterator<Item = &'a [u8]>) -> CodecResult<Vec<u8>> {
    let mut entities: BTreeMap<EntityAddr, EntityState> = BTreeMap::new();
    let mut tombs: BTreeSet<EntityAddr> = BTreeSet::new();
    for bytes in deltas {
        let (kind, delta_entities, delta_tombs) = decode(bytes)?;
        if kind != KIND_DELTA {
            return Err(CodecError::new("can only merge delta snapshots"));
        }
        for (addr, state) in delta_entities {
            tombs.remove(&addr);
            entities.insert(addr, state);
        }
        for addr in delta_tombs {
            entities.remove(&addr);
            tombs.insert(addr);
        }
    }
    let tombs: Vec<EntityAddr> = tombs.into_iter().collect();
    Ok(encode(KIND_DELTA, entities.iter(), &tombs))
}

fn key_size(key: &Key) -> usize {
    match key {
        Key::Int(_) => 8,
        Key::Str(s) => s.len() + 8,
    }
}

/// A partitioned state store: `partitions` instances of [`PartitionState`],
/// with routing by the entity key's stable hash — mirroring how the paper
/// partitions operator state across parallel instances using `__key__`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateStore {
    partitions: Vec<PartitionState>,
}

impl StateStore {
    /// Create a store with `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        assert!(partitions > 0);
        StateStore {
            partitions: vec![PartitionState::new(); partitions],
        }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Which partition a key belongs to.
    pub fn partition_of(&self, key: &Key) -> usize {
        key.partition(self.partitions.len())
    }

    /// Which partition an address belongs to (uses the hash cached in the
    /// address — no key bytes are re-walked).
    #[inline]
    pub fn partition_of_addr(&self, addr: &EntityAddr) -> usize {
        addr.partition(self.partitions.len())
    }

    /// Access one partition.
    pub fn partition(&self, idx: usize) -> &PartitionState {
        &self.partitions[idx]
    }

    /// Mutable access to one partition.
    pub fn partition_mut(&mut self, idx: usize) -> &mut PartitionState {
        &mut self.partitions[idx]
    }

    /// Install an entity instance in the right partition.
    pub fn put(&mut self, addr: EntityAddr, state: EntityState) {
        let idx = self.partition_of_addr(&addr);
        self.partitions[idx].put(addr, state);
    }

    /// Read an entity instance.
    pub fn get(&self, addr: &EntityAddr) -> Option<&EntityState> {
        self.partitions[self.partition_of_addr(addr)].get(addr)
    }

    /// Mutably access an entity instance (marks it dirty in its partition).
    pub fn get_mut(&mut self, addr: &EntityAddr) -> Option<&mut EntityState> {
        let idx = self.partition_of_addr(addr);
        self.partitions[idx].get_mut(addr)
    }

    /// Total number of entity instances across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(PartitionState::len).sum()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read one field of one entity (dashboard/test helper).
    pub fn read_field(&self, addr: &EntityAddr, field: &str) -> Option<Value> {
        self.get(addr).and_then(|s| s.get(field).cloned())
    }
}

/// A snapshot of one partition at an epoch boundary, together with the source
/// offsets that had been fully processed when the snapshot was taken — the
/// pair is what makes recovery exactly-once: restore the state, rewind the
/// replayable source to the recorded offsets, and re-process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Epoch this snapshot terminates.
    pub epoch: EpochId,
    /// Partition index.
    pub partition: usize,
    /// Full capture or dirty delta.
    pub kind: SnapshotKind,
    /// Binary-encoded partition state (full) or dirty delta.
    pub state: Vec<u8>,
    /// Source offsets processed (exclusive) per source partition.
    pub source_offsets: BTreeMap<usize, u64>,
}

/// The decoded merged delta of one partition's chain (amortized compaction):
/// every delta sealed since the partition's newest full anchor, folded
/// together in decoded form. Folding a newly sealed delta costs one decode of
/// *that* delta plus O(its dirty set) map inserts — never a re-encode of the
/// accumulated merge. Bytes are produced lazily on request and cached.
#[derive(Debug, Clone, Default, PartialEq)]
struct FoldedDelta {
    /// Epoch of the newest delta folded in (`None` = empty chain).
    epoch: Option<EpochId>,
    entities: BTreeMap<EntityAddr, EntityState>,
    tombstones: BTreeSet<EntityAddr>,
    /// Lazily cached encoding of the merged delta (invalidated by each fold).
    encoded: Option<Vec<u8>>,
}

impl FoldedDelta {
    fn clear(&mut self) {
        self.epoch = None;
        self.entities.clear();
        self.tombstones.clear();
        self.encoded = None;
    }

    /// Fold one decoded delta (sealed at `epoch`) on top of the merge —
    /// same later-wins / tombstone ordering as [`fold_delta_bytes`].
    fn fold(
        &mut self,
        epoch: EpochId,
        entities: BTreeMap<EntityAddr, EntityState>,
        tombstones: Vec<EntityAddr>,
    ) {
        for (addr, state) in entities {
            self.tombstones.remove(&addr);
            self.entities.insert(addr, state);
        }
        for addr in tombstones {
            self.entities.remove(&addr);
            self.tombstones.insert(addr);
        }
        self.epoch = Some(epoch);
        self.encoded = None;
    }
}

/// Stores snapshots per epoch, with an explicit **pending → sealed** epoch
/// lifecycle. A snapshot arrives per partition ([`SnapshotStore::add`]); an
/// epoch **seals** once every expected partition has reported *and* every
/// older epoch has sealed (cut order — a newer consistent cut cannot become
/// the recovery point while an older one is still materializing). Only sealed
/// epochs are recovery points; see [`SnapshotStore::latest_sealed_epoch`].
///
/// A store built with [`SnapshotStore::new_amortized`] additionally keeps
/// each partition's post-anchor delta chain folded in decoded form (see
/// [`FoldedDelta`]), bounding both recovery replay depth (full + at most one
/// merged delta) and per-epoch compaction work (O(that epoch's dirty set)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotStore {
    /// Sealed epochs' snapshots. In amortized mode this holds only full
    /// anchors (and any delta that failed to decode at seal time, kept raw so
    /// recovery surfaces the corruption); healthy deltas are folded away.
    snapshots: BTreeMap<EpochId, BTreeMap<usize, Snapshot>>,
    /// Arrived-but-unsealed snapshots per epoch (async captures in flight).
    /// An entry may be empty: [`SnapshotStore::begin_epoch`] announces a cut
    /// before any bytes exist.
    pending: BTreeMap<EpochId, BTreeMap<usize, Snapshot>>,
    /// The authoritative set of sealed epochs (`snapshots` may hold no bytes
    /// for a sealed epoch whose deltas were all folded away).
    sealed: BTreeSet<EpochId>,
    /// Source offsets recorded per sealed epoch (survives delta folding).
    offsets: BTreeMap<EpochId, BTreeMap<usize, u64>>,
    expected_partitions: usize,
    /// Per-partition decoded merged delta — `Some` iff amortized mode.
    folded: Option<Vec<FoldedDelta>>,
    /// Deltas folded *into an existing merge* (i.e. merged away) so far.
    deltas_merged: u64,
    /// `(epoch, partition)` snapshots dropped from the store — by rollback
    /// truncation and by amortized anchor pruning — awaiting
    /// [`SnapshotStore::take_pruned`]. The durable tier drains this to
    /// delete the matching on-disk artifacts.
    pruned: Vec<(EpochId, usize)>,
    /// Optional race-detector attachment (see [`SnapshotStore::arm_monitor`]).
    hook: MonitorHook,
}

impl SnapshotStore {
    /// Create a store expecting `expected_partitions` partitions per epoch.
    /// Epochs seal as their snapshots arrive; delta chains stay as recorded
    /// (bound them after the fact with [`SnapshotStore::compact`]).
    pub fn new(expected_partitions: usize) -> Self {
        SnapshotStore {
            expected_partitions,
            ..SnapshotStore::default()
        }
    }

    /// Create a store with **amortized compaction**: each delta is folded
    /// into its partition's decoded merged delta the moment its epoch seals,
    /// and its raw bytes are dropped — the recovery chain is permanently
    /// `full anchor + at most one merged delta` at O(new dirty set) cost per
    /// epoch. The per-epoch captures between the anchor and the newest seal
    /// are not individually reconstructible (same granularity trade as
    /// [`SnapshotStore::compact`]).
    pub fn new_amortized(expected_partitions: usize) -> Self {
        SnapshotStore {
            expected_partitions,
            folded: Some(vec![FoldedDelta::default(); expected_partitions]),
            ..SnapshotStore::default()
        }
    }

    /// Attach a race monitor: every subsequent mutation of this store reports
    /// as a write to [`racecheck::Resource::SnapshotStore`] — a single-writer
    /// tripwire proving all snapshot bookkeeping stays on the coordinator's
    /// happens-before timeline.
    pub fn arm_monitor(&mut self, monitor: Arc<racecheck::Monitor>) {
        self.hook.arm(monitor, racecheck::Resource::SnapshotStore);
    }

    /// Announce an epoch whose cut has been taken but whose bytes are still
    /// being materialized. The epoch shows up as pending immediately, so a
    /// crash in the capture→encode window is visible: recovery ignores it
    /// and newer epochs cannot seal past it.
    pub fn begin_epoch(&mut self, epoch: EpochId) {
        self.hook.write("SnapshotStore::begin_epoch");
        if !self.sealed.contains(&epoch) {
            self.pending.entry(epoch).or_default();
        }
    }

    /// Record a partition snapshot for an epoch. Returns how many epochs this
    /// arrival sealed (0 while the epoch — or an older one — is still waiting
    /// on other partitions).
    ///
    /// A sealed epoch is immutable: a duplicate or late arrival for one is
    /// dropped. Without this guard a stray re-add would either park an
    /// unfillable entry at the head of the pending queue (blocking every
    /// future seal) or, in amortized mode, re-fold stale data over newer
    /// merged values.
    pub fn add(&mut self, snapshot: Snapshot) -> u64 {
        self.hook.write("SnapshotStore::add");
        if self.sealed.contains(&snapshot.epoch) {
            return 0;
        }
        self.pending
            .entry(snapshot.epoch)
            .or_default()
            .insert(snapshot.partition, snapshot);
        let mut sealed_now = 0;
        while let Some(entry) = self.pending.first_entry() {
            if entry.get().len() != self.expected_partitions {
                break;
            }
            let (epoch, parts) = self.pending.pop_first().expect("peeked first entry");
            self.seal(epoch, parts);
            sealed_now += 1;
        }
        sealed_now
    }

    /// Move one complete epoch from pending to sealed. In amortized mode
    /// deltas are folded (decoded) instead of stored, a full anchor retires
    /// the partition's older history, and per-epoch metadata (`sealed`,
    /// `offsets`) below the oldest surviving anchor is dropped — a
    /// long-running job's store stays O(live state), not O(epochs run).
    fn seal(&mut self, epoch: EpochId, parts: BTreeMap<usize, Snapshot>) {
        self.sealed.insert(epoch);
        if let Some(any) = parts.values().next() {
            self.offsets.insert(epoch, any.source_offsets.clone());
        }
        let Some(folded) = &mut self.folded else {
            self.snapshots.insert(epoch, parts);
            return;
        };
        for (partition, snap) in parts {
            let Some(chain) = folded.get_mut(partition) else {
                // Out-of-range partition (test-made store): keep it raw.
                self.snapshots
                    .entry(epoch)
                    .or_default()
                    .insert(partition, snap);
                continue;
            };
            match snap.kind {
                SnapshotKind::Full => {
                    // New anchor: the folded chain and every older capture of
                    // this partition are superseded.
                    chain.clear();
                    let pruned = &mut self.pruned;
                    self.snapshots.retain(|&e, epoch_parts| {
                        if e < epoch && epoch_parts.remove(&partition).is_some() {
                            pruned.push((e, partition));
                        }
                        !epoch_parts.is_empty()
                    });
                    self.snapshots
                        .entry(epoch)
                        .or_default()
                        .insert(partition, snap);
                }
                SnapshotKind::Delta => match decode(&snap.state) {
                    Ok((_, entities, tombstones)) => {
                        if chain.epoch.is_some() {
                            self.deltas_merged += 1;
                        }
                        chain.fold(epoch, entities, tombstones);
                    }
                    // An undecodable delta is kept raw: folding would mask
                    // the corruption, while reconstruction through the raw
                    // chain surfaces the decode error with full context.
                    Err(_) => {
                        self.snapshots
                            .entry(epoch)
                            .or_default()
                            .insert(partition, snap);
                    }
                },
            }
        }
        // Nothing below the oldest surviving stored epoch (every partition's
        // anchor is at or above it) is reconstructible any more; drop the
        // matching sealed/offsets entries so metadata cannot grow one entry
        // per epoch forever. The latest sealed epoch always survives: it is
        // >= every anchor.
        if let Some((&oldest_stored, _)) = self.snapshots.first_key_value() {
            self.sealed = self.sealed.split_off(&oldest_stored);
            self.offsets = self.offsets.split_off(&oldest_stored);
        }
    }

    /// The newest **sealed** epoch — the epoch a recovering job rolls back
    /// to, if any. An epoch with bytes still in flight (or any older epoch
    /// unsealed) never qualifies.
    pub fn latest_sealed_epoch(&self) -> Option<EpochId> {
        self.sealed.last().copied()
    }

    /// Whether `epoch` has sealed (every partition's bytes arrived, all older
    /// epochs sealed).
    pub fn is_sealed(&self, epoch: EpochId) -> bool {
        self.sealed.contains(&epoch)
    }

    /// Number of epochs announced or partially arrived but not yet sealed.
    pub fn unsealed_epochs(&self) -> usize {
        self.pending.len()
    }

    /// Source offsets recorded when `epoch` sealed (available even after its
    /// deltas were folded away).
    pub fn epoch_offsets(&self, epoch: EpochId) -> Option<&BTreeMap<usize, u64>> {
        self.offsets.get(&epoch)
    }

    /// All stored partition snapshots of a sealed epoch. In amortized mode
    /// folded deltas are gone — only anchors (and corrupt leftovers) remain.
    pub fn epoch(&self, epoch: EpochId) -> Option<&BTreeMap<usize, Snapshot>> {
        self.snapshots.get(&epoch)
    }

    /// Number of epochs tracked: sealed plus pending.
    pub fn epoch_count(&self) -> usize {
        self.sealed.len() + self.pending.len()
    }

    /// Deltas merged away so far — by [`SnapshotStore::compact`] runs and/or
    /// amortized folds into a non-empty merge.
    pub fn deltas_merged(&self) -> u64 {
        self.deltas_merged
    }

    /// Total bytes held across sealed and pending snapshots (decoded folded
    /// state is not bytes and is not counted).
    pub fn total_bytes(&self) -> usize {
        self.snapshots
            .values()
            .chain(self.pending.values())
            .flat_map(|parts| parts.values())
            .map(|s| s.state.len())
            .sum()
    }

    /// Rebuild `partition`'s state as of a **sealed** `epoch`: the latest
    /// full snapshot at-or-before `epoch`, plus every delta after it up to
    /// `epoch`, applied in order. Pending (unsealed) arrivals are never
    /// consulted — an epoch whose bytes are still in flight must not leak
    /// into a recovery image. In amortized mode the partition's decoded
    /// merged delta substitutes for the folded raw chain, applied directly
    /// with no codec round-trip.
    ///
    /// Returns `Ok(None)` if no full snapshot anchors the chain, and `Err`
    /// if a snapshot in the chain fails to decode (or the requested epoch's
    /// history was folded past) — corruption must stay distinguishable from
    /// a merely missing anchor.
    pub fn reconstruct(
        &self,
        partition: usize,
        epoch: EpochId,
    ) -> CodecResult<Option<PartitionState>> {
        let mut deltas: Vec<&Snapshot> = Vec::new();
        let mut base: Option<&Snapshot> = None;
        for (_, parts) in self.snapshots.range(..=epoch).rev() {
            let Some(snap) = parts.get(&partition) else {
                // This epoch has no capture for the partition (e.g. it was
                // recorded by a test, not the runtime loop); it contributes
                // nothing to the chain.
                continue;
            };
            match snap.kind {
                SnapshotKind::Full => {
                    base = Some(snap);
                    break;
                }
                SnapshotKind::Delta => deltas.push(snap),
            }
        }
        let Some(base) = base else {
            return Ok(None);
        };
        let mut state = PartitionState::from_bytes(&base.state)?;
        // Amortized mode: the decoded merge covers (anchor, folded.epoch].
        // Raw deltas can coexist only as corrupt leftovers kept at seal time;
        // applying them below will surface the decode error.
        if let Some(chain) = self.folded.as_ref().and_then(|f| f.get(partition)) {
            if let Some(folded_epoch) = chain.epoch {
                if folded_epoch > epoch {
                    return Err(CodecError::new(format!(
                        "partition {partition}'s history at epoch {epoch} was \
                         folded away (merged delta covers up to {folded_epoch})"
                    )));
                }
                for (addr, entity) in &chain.entities {
                    state.entities.insert(addr.clone(), entity.clone());
                }
                for addr in &chain.tombstones {
                    state.entities.remove(addr);
                }
            }
        }
        for snap in deltas.iter().rev() {
            state.apply_delta(&snap.state)?;
        }
        Ok(Some(state))
    }

    /// Drop every snapshot recorded for an epoch newer than `epoch` — sealed
    /// **and pending**: a crash in the capture→encode window leaves partial
    /// arrivals for epochs that will be re-cut by the recovered timeline, and
    /// a stale arrival left behind would corrupt the chain (a delta re-taken
    /// at epoch `e+1` must re-base on the *recovered* `e`, not mix with
    /// captures from the failed timeline).
    ///
    /// Callers in amortized mode must truncate at the latest sealed epoch
    /// (the only recovery point) — a folded merge cannot be unfolded to an
    /// older epoch.
    ///
    /// Returns the number of partition snapshots dropped (pending ones
    /// included).
    pub fn truncate_after(&mut self, epoch: EpochId) -> usize {
        self.hook.write("SnapshotStore::truncate_after");
        if let Some(folded) = &self.folded {
            debug_assert!(
                folded
                    .iter()
                    .all(|chain| chain.epoch.is_none_or(|fe| fe <= epoch)),
                "amortized truncation below the folded merge loses history"
            );
        }
        let stale = self.snapshots.split_off(&(epoch + 1));
        let stale_pending = self.pending.split_off(&(epoch + 1));
        self.sealed.split_off(&(epoch + 1));
        self.offsets.split_off(&(epoch + 1));
        for (&e, parts) in &stale {
            for &p in parts.keys() {
                self.pruned.push((e, p));
            }
        }
        stale.values().map(|parts| parts.len()).sum::<usize>()
            + stale_pending
                .values()
                .map(|parts| parts.len())
                .sum::<usize>()
    }

    /// Drain the `(epoch, partition)` pairs whose snapshots were dropped from
    /// the in-memory store since the last call — by
    /// [`SnapshotStore::truncate_after`] (rollback) and by the amortized
    /// store's anchor pruning at seal time. A durable backend mirrors these
    /// as deletions of the corresponding on-disk files; leaving them behind
    /// on rollback would leak disk forever.
    pub fn take_pruned(&mut self) -> Vec<(EpochId, usize)> {
        std::mem::take(&mut self.pruned)
    }

    /// Number of delta snapshots [`SnapshotStore::reconstruct`] would apply
    /// on top of the full anchor to rebuild `partition` at `epoch` — i.e.
    /// the recovery replay depth. [`SnapshotStore::compact`] (after the
    /// fact) and amortized folding (continuously) both exist to bound this
    /// at 1 regardless of the rebase cadence; the sharded runtime asserts
    /// that invariant after every barrier.
    pub fn delta_chain_len(&self, partition: usize, epoch: EpochId) -> usize {
        let mut deltas = 0usize;
        for (_, parts) in self.snapshots.range(..=epoch).rev() {
            let Some(snap) = parts.get(&partition) else {
                continue;
            };
            match snap.kind {
                SnapshotKind::Full => break,
                SnapshotKind::Delta => deltas += 1,
            }
        }
        if let Some(chain) = self.folded.as_ref().and_then(|f| f.get(partition)) {
            if chain.epoch.is_some_and(|fe| fe <= epoch) {
                deltas += 1;
            }
        }
        deltas
    }

    /// The raw stored chain [`SnapshotStore::reconstruct`] would read for
    /// `partition` at `epoch`, oldest first: the full anchor, then every raw
    /// delta after it. A durable backend uploads exactly these files (plus
    /// the amortized merge from [`SnapshotStore::merged_delta_bytes`], which
    /// is not a stored snapshot and is never listed here). Empty when no full
    /// snapshot anchors the chain.
    pub fn chain_epochs(&self, partition: usize, epoch: EpochId) -> Vec<(EpochId, SnapshotKind)> {
        let mut chain: Vec<(EpochId, SnapshotKind)> = Vec::new();
        for (&e, parts) in self.snapshots.range(..=epoch).rev() {
            let Some(snap) = parts.get(&partition) else {
                continue;
            };
            chain.push((e, snap.kind));
            if snap.kind == SnapshotKind::Full {
                chain.reverse();
                return chain;
            }
        }
        Vec::new()
    }

    /// The encoded bytes of `partition`'s merged delta (amortized mode),
    /// materialized lazily on first request and cached until the next fold.
    /// `None` when the store is not amortized or the partition's chain is
    /// empty (anchor only).
    pub fn merged_delta_bytes(&mut self, partition: usize) -> Option<&[u8]> {
        let chain = self.folded.as_mut()?.get_mut(partition)?;
        chain.epoch?;
        if chain.encoded.is_none() {
            let tombs: Vec<EntityAddr> = chain.tombstones.iter().cloned().collect();
            chain.encoded = Some(encode(KIND_DELTA, chain.entities.iter(), &tombs));
        }
        chain.encoded.as_deref()
    }

    /// Merge adjacent delta snapshots so every full snapshot is followed by at
    /// most one delta per partition. Long-running jobs accumulate one delta
    /// per epoch until the next rebase; compaction bounds recovery replay work
    /// independently of when the caller rebases (every N epochs in the
    /// virtual-time runtime, by chain size in the sharded one).
    ///
    /// A merged delta lives at the *newest* epoch of its run and carries that
    /// snapshot's source offsets; [`SnapshotStore::reconstruct`] at or after
    /// that epoch returns exactly the state the uncompacted chain would have
    /// produced. Intermediate epochs of a merged run lose their per-epoch
    /// capture (the granularity is traded for bounded chain length).
    ///
    /// Returns the number of delta snapshots merged away.
    ///
    /// In amortized mode this is a no-op (`Ok(0)`): the invariant is
    /// maintained continuously by folding at seal time, at O(new dirty set)
    /// per epoch instead of this method's O(cumulative dirty set) re-fold.
    pub fn compact(&mut self) -> CodecResult<usize> {
        self.hook.write("SnapshotStore::compact");
        if self.folded.is_some() {
            return Ok(0);
        }
        let mut removed_total = 0usize;
        let partitions: BTreeSet<usize> = self
            .snapshots
            .values()
            .flat_map(|parts| parts.keys().copied())
            .collect();
        for partition in partitions {
            // The partition's chain, oldest first.
            let chain: Vec<(EpochId, SnapshotKind)> = self
                .snapshots
                .iter()
                .filter_map(|(epoch, parts)| parts.get(&partition).map(|s| (*epoch, s.kind)))
                .collect();
            // Collect maximal runs of consecutive deltas.
            let mut runs: Vec<Vec<EpochId>> = Vec::new();
            let mut current: Vec<EpochId> = Vec::new();
            for (epoch, kind) in chain {
                match kind {
                    SnapshotKind::Delta => current.push(epoch),
                    SnapshotKind::Full => {
                        if current.len() > 1 {
                            runs.push(std::mem::take(&mut current));
                        } else {
                            current.clear();
                        }
                    }
                }
            }
            if current.len() > 1 {
                runs.push(current);
            }
            for run in runs {
                let (&last_epoch, earlier) = run.split_last().expect("run has >= 2 entries");
                // One decode per delta, one encode for the merged result —
                // a K-delta run costs O(K) codec work, not O(K²).
                let merged = fold_delta_bytes(
                    run.iter()
                        .map(|epoch| self.snapshots[epoch][&partition].state.as_slice()),
                )?;
                let last = self
                    .snapshots
                    .get_mut(&last_epoch)
                    .and_then(|parts| parts.get_mut(&partition))
                    .expect("last run epoch present");
                last.state = merged;
                for &epoch in earlier {
                    if let Some(parts) = self.snapshots.get_mut(&epoch) {
                        parts.remove(&partition);
                        removed_total += 1;
                        if parts.is_empty() {
                            self.snapshots.remove(&epoch);
                        }
                    }
                }
            }
        }
        self.deltas_merged += removed_total as u64;
        Ok(removed_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stateful_entities::Value;

    fn addr(entity: &str, key: &str) -> EntityAddr {
        EntityAddr::new(entity, Key::Str(key.to_string().into()))
    }

    fn account(balance: i64) -> EntityState {
        let mut s = EntityState::new();
        s.insert("balance".into(), Value::Int(balance));
        s.insert("payload".into(), Value::Str("x".repeat(16).into()));
        s
    }

    #[test]
    fn put_get_routes_by_key_hash() {
        let mut store = StateStore::new(4);
        for i in 0..100 {
            store.put(addr("Account", &format!("acc{i}")), account(i));
        }
        assert_eq!(store.len(), 100);
        assert_eq!(
            store.read_field(&addr("Account", "acc7"), "balance"),
            Some(Value::Int(7))
        );
        // Every instance is in exactly the partition its key hashes to.
        for i in 0..100 {
            let a = addr("Account", &format!("acc{i}"));
            let p = store.partition_of(a.key());
            assert!(store.partition(p).contains(&a));
        }
        // Partitioning is reasonably balanced (no partition empty for 100 keys).
        for p in 0..store.partition_count() {
            assert!(!store.partition(p).is_empty());
        }
    }

    #[test]
    fn key_interner_pools_hot_string_keys() {
        let mut part = PartitionState::new();
        part.put(addr("Account", "hot"), account(1));
        assert_eq!(part.key_interner().unique_keys(), 1);
        assert_eq!(part.key_interner().resident_bytes(), 3);
        assert_eq!(part.key_interner().hits(), 0);

        // A fresh allocation of the same key collapses onto the pooled Arc.
        let interned = part.intern_addr(addr("Account", "hot"));
        assert_eq!(part.key_interner().hits(), 1);
        assert_eq!(part.key_interner().saved_bytes(), 3);
        let pooled_ptr = match interned.key() {
            Key::Str(s) => Arc::as_ptr(s),
            _ => unreachable!(),
        };

        // Re-interning the pooled address is pointer-identical and free.
        let again = part.intern_addr(interned.clone());
        assert_eq!(part.key_interner().hits(), 1, "ptr-equal keys are not hits");
        match again.key() {
            Key::Str(s) => assert_eq!(Arc::as_ptr(s), pooled_ptr),
            _ => unreachable!(),
        }

        // Non-string keys pass through untouched.
        let int_addr = EntityAddr::new("Account", Key::Int(7));
        assert_eq!(part.intern_addr(int_addr.clone()), int_addr);
        assert_eq!(part.key_interner().unique_keys(), 1);
    }

    #[test]
    fn partition_state_roundtrips_through_bytes() {
        let mut part = PartitionState::new();
        part.put(addr("Account", "a"), account(10));
        part.put(addr("User", "u"), account(20));
        let bytes = part.to_bytes();
        let restored = PartitionState::from_bytes(&bytes).unwrap();
        assert_eq!(part, restored);
        assert!(part.approx_size() > 32);
    }

    #[test]
    fn binary_snapshot_is_compact() {
        let mut part = PartitionState::new();
        for i in 0..50 {
            part.put(addr("Account", &format!("acc{i}")), account(i));
        }
        let bytes = part.to_bytes();
        // 50 entities × (addr ~12B + layout idx + int + 16-char payload) plus
        // one shared layout record — far below a JSON encoding (~100B/entity).
        assert!(
            bytes.len() < 50 * 80,
            "binary snapshot too large: {}",
            bytes.len()
        );
        let restored = PartitionState::from_bytes(&bytes).unwrap();
        assert_eq!(part, restored);
    }

    #[test]
    fn take_and_put_back() {
        let mut part = PartitionState::new();
        part.put(addr("A", "k"), account(1));
        let state = part.take(&addr("A", "k")).unwrap();
        assert!(part.take(&addr("A", "k")).is_none());
        part.put(addr("A", "k"), state);
        assert_eq!(part.len(), 1);
    }

    #[test]
    fn dirty_tracking_marks_writes_and_clears_on_snapshot() {
        let mut part = PartitionState::new();
        part.put(addr("A", "x"), account(1));
        part.put(addr("A", "y"), account(2));
        assert_eq!(part.dirty_len(), 2);
        let _ = part.snapshot_full();
        assert_eq!(part.dirty_len(), 0);

        // A read does not dirty; a write does.
        assert!(part.get(&addr("A", "x")).is_some());
        assert_eq!(part.dirty_len(), 0);
        part.get_mut(&addr("A", "x"))
            .unwrap()
            .insert("balance".into(), Value::Int(9));
        assert_eq!(part.dirty_len(), 1);

        let delta = part.snapshot_delta();
        assert_eq!(part.dirty_len(), 0);
        // The delta carries one entity, not the whole partition.
        assert!(delta.len() < part.to_bytes().len());
    }

    #[test]
    fn update_with_marks_dirty_only_on_writes() {
        let mut part = PartitionState::new();
        part.put(addr("A", "k"), account(1));
        let _ = part.snapshot_full();
        assert_eq!(part.dirty_len(), 0);

        // A read-only closure leaves the entity clean.
        let balance = part
            .update_with(&addr("A", "k"), |s| s["balance"].clone())
            .unwrap();
        assert_eq!(balance, Value::Int(1));
        assert_eq!(part.dirty_len(), 0);

        // A writing closure dirties it (and the write sticks).
        part.update_with(&addr("A", "k"), |s| {
            s.insert("balance".into(), Value::Int(7));
        })
        .unwrap();
        assert_eq!(part.dirty_len(), 1);
        assert_eq!(part.get(&addr("A", "k")).unwrap()["balance"], Value::Int(7));

        // Missing entities return None without running the closure.
        assert!(part.update_with(&addr("A", "ghost"), |_| ()).is_none());
    }

    #[test]
    fn delta_roundtrip_with_tombstones() {
        let mut part = PartitionState::new();
        part.put(addr("A", "keep"), account(1));
        part.put(addr("A", "gone"), account(2));
        let base = part.snapshot_full();

        part.get_mut(&addr("A", "keep"))
            .unwrap()
            .insert("balance".into(), Value::Int(42));
        part.take(&addr("A", "gone"));
        let delta = part.snapshot_delta();

        let mut restored = PartitionState::from_bytes(&base).unwrap();
        restored.apply_delta(&delta).unwrap();
        assert_eq!(restored, part);
        assert!(!restored.contains(&addr("A", "gone")));
        assert_eq!(
            restored.get(&addr("A", "keep")).unwrap()["balance"],
            Value::Int(42)
        );
    }

    #[test]
    fn full_and_delta_snapshots_are_distinguished() {
        let mut part = PartitionState::new();
        part.put(addr("A", "k"), account(1));
        let full = part.snapshot_full();
        part.get_mut(&addr("A", "k"))
            .unwrap()
            .insert("balance".into(), Value::Int(2));
        let delta = part.snapshot_delta();
        assert!(PartitionState::from_bytes(&delta).is_err());
        assert!(PartitionState::new().apply_delta(&full).is_err());
    }

    #[test]
    fn corrupted_snapshots_error() {
        let mut part = PartitionState::new();
        part.put(addr("A", "k"), account(1));
        let mut bytes = part.to_bytes();
        assert!(PartitionState::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        bytes[0] = 99; // bad version
        assert!(PartitionState::from_bytes(&bytes).is_err());
        assert!(PartitionState::from_bytes(&[]).is_err());
    }

    #[test]
    fn hostile_class_dictionary_is_rejected_without_interning() {
        // A snapshot claiming a 4-billion-entry class dictionary (or carrying
        // garbage names) must fail cleanly *before* anything reaches the
        // process-global interner — corrupt bytes must not leak memory.
        let mut bytes = vec![2u8, 0u8]; // version 2, full snapshot
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd class count
        assert!(PartitionState::from_bytes(&bytes).is_err());

        let mut bytes = vec![2u8, 0u8];
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one dictionary entry
        bytes.extend_from_slice(&7u32.to_le_bytes()); // name of length 7
        bytes.extend_from_slice(b"__EvilX"); // ...then truncated input
        assert!(PartitionState::from_bytes(&bytes).is_err());
        // The parsed-but-failed snapshot never interned its dictionary name.
        assert!(stateful_entities::ClassId::lookup("__EvilX").is_none());
    }

    #[test]
    fn snapshot_store_tracks_complete_epochs() {
        let mut store = SnapshotStore::new(2);
        assert_eq!(store.latest_sealed_epoch(), None);
        store.add(Snapshot {
            epoch: 1,
            partition: 0,
            kind: SnapshotKind::Full,
            state: vec![1, 2, 3],
            source_offsets: BTreeMap::from([(0, 10)]),
        });
        // Only one of two partitions reported: epoch 1 is not complete.
        assert_eq!(store.latest_sealed_epoch(), None);
        store.add(Snapshot {
            epoch: 1,
            partition: 1,
            kind: SnapshotKind::Full,
            state: vec![4],
            source_offsets: BTreeMap::from([(1, 7)]),
        });
        assert_eq!(store.latest_sealed_epoch(), Some(1));
        // A partial newer epoch does not advance the recovery point.
        store.add(Snapshot {
            epoch: 2,
            partition: 0,
            kind: SnapshotKind::Delta,
            state: vec![9],
            source_offsets: BTreeMap::new(),
        });
        assert_eq!(store.latest_sealed_epoch(), Some(1));
        assert_eq!(store.epoch_count(), 2);
        assert_eq!(store.total_bytes(), 5);
        assert_eq!(store.epoch(1).unwrap().len(), 2);
    }

    #[test]
    fn reconstruct_applies_base_plus_deltas() {
        let mut part = PartitionState::new();
        let mut store = SnapshotStore::new(1);

        part.put(addr("A", "x"), account(1));
        part.put(addr("A", "y"), account(2));
        store.add(Snapshot {
            epoch: 1,
            partition: 0,
            kind: SnapshotKind::Full,
            state: part.snapshot_full(),
            source_offsets: BTreeMap::new(),
        });

        part.get_mut(&addr("A", "x"))
            .unwrap()
            .insert("balance".into(), Value::Int(10));
        store.add(Snapshot {
            epoch: 2,
            partition: 0,
            kind: SnapshotKind::Delta,
            state: part.snapshot_delta(),
            source_offsets: BTreeMap::new(),
        });

        part.take(&addr("A", "y"));
        part.put(addr("B", "z"), account(3));
        store.add(Snapshot {
            epoch: 3,
            partition: 0,
            kind: SnapshotKind::Delta,
            state: part.snapshot_delta(),
            source_offsets: BTreeMap::new(),
        });

        // Reconstructing at each epoch matches the state the partition had.
        let at2 = store.reconstruct(0, 2).unwrap().unwrap();
        assert_eq!(at2.get(&addr("A", "x")).unwrap()["balance"], Value::Int(10));
        assert!(at2.contains(&addr("A", "y")));

        let at3 = store.reconstruct(0, 3).unwrap().unwrap();
        assert_eq!(at3, part);
        assert!(!at3.contains(&addr("A", "y")));
        assert!(at3.contains(&addr("B", "z")));

        // Without a full anchor there is nothing to reconstruct from.
        assert!(SnapshotStore::new(1).reconstruct(0, 3).unwrap().is_none());

        // A corrupted snapshot in the chain surfaces as a decode error, not
        // as a missing anchor.
        let mut corrupt = store.clone();
        let bad = corrupt.snapshots.get_mut(&2).unwrap().get_mut(&0).unwrap();
        bad.state.truncate(bad.state.len() / 2);
        assert!(corrupt.reconstruct(0, 3).is_err());
    }

    #[test]
    fn truncate_after_drops_stale_epochs() {
        let (mut store, _) = delta_chain_store(6);
        assert_eq!(store.epoch_count(), 6);
        // Rolling back to epoch 4 drops epochs 5 and 6 (one partition each).
        assert_eq!(store.truncate_after(4), 2);
        assert_eq!(store.epoch_count(), 4);
        assert!(store.epoch(5).is_none() && store.epoch(6).is_none());
        // The surviving chain still reconstructs.
        assert!(store.reconstruct(0, 4).unwrap().is_some());
        // Truncating at-or-above the newest epoch is a no-op.
        assert_eq!(store.truncate_after(10), 0);
        assert_eq!(store.latest_sealed_epoch(), Some(4));
    }

    #[test]
    fn take_pruned_reports_rollback_and_anchor_drops() {
        // Rollback truncation reports each dropped sealed snapshot once.
        let (mut store, _) = delta_chain_store(6);
        assert_eq!(store.take_pruned(), vec![], "nothing dropped yet");
        store.truncate_after(4);
        assert_eq!(store.take_pruned(), vec![(5, 0), (6, 0)]);
        assert_eq!(store.take_pruned(), vec![], "drained on take");

        // Amortized anchor pruning reports the superseded epochs too.
        let mut part = PartitionState::new();
        part.put(addr("A", "x"), account(1));
        let mut store = SnapshotStore::new_amortized(1);
        for epoch in 1..=3u64 {
            store.add(Snapshot {
                epoch,
                partition: 0,
                kind: SnapshotKind::Full,
                state: part.snapshot_full(),
                source_offsets: BTreeMap::new(),
            });
        }
        let mut pruned = store.take_pruned();
        pruned.sort_unstable();
        assert_eq!(
            pruned,
            vec![(1, 0), (2, 0)],
            "each superseded anchor is reported exactly once"
        );
    }

    #[test]
    fn state_size_scales_with_payload() {
        let mut small = PartitionState::new();
        let mut big = PartitionState::new();
        let mut s = EntityState::new();
        s.insert("payload".into(), Value::Str("x".repeat(50).into()));
        small.put(addr("A", "k"), s.clone());
        let mut b = EntityState::new();
        b.insert("payload".into(), Value::Str("x".repeat(200_000).into()));
        big.put(addr("A", "k"), b);
        assert!(big.approx_size() > small.approx_size() * 100);
    }

    /// Build a store with one full snapshot at epoch 1 and a delta per epoch
    /// after it, mutating/removing/creating entities along the way. Returns
    /// the store together with the live partition (the expected final state).
    fn delta_chain_store(epochs: u64) -> (SnapshotStore, PartitionState) {
        let mut part = PartitionState::new();
        let mut store = SnapshotStore::new(1);
        for i in 0..6 {
            part.put(addr("A", &format!("k{i}")), account(i));
        }
        store.add(Snapshot {
            epoch: 1,
            partition: 0,
            kind: SnapshotKind::Full,
            state: part.snapshot_full(),
            source_offsets: BTreeMap::from([(0, 100)]),
        });
        for epoch in 2..=epochs {
            let e = epoch as i64;
            let target = addr("A", &format!("k{}", e % 6));
            match part.get_mut(&target) {
                Some(state) => state.insert("balance".into(), Value::Int(e * 10)),
                // An earlier epoch may have tombstoned this key; re-create it.
                None => part.put(target, account(e * 10)),
            }
            if epoch % 3 == 0 {
                part.take(&addr("A", &format!("k{}", (e + 1) % 6)));
            }
            if epoch % 4 == 0 {
                part.put(addr("B", &format!("fresh{e}")), account(e));
            }
            store.add(Snapshot {
                epoch,
                partition: 0,
                kind: SnapshotKind::Delta,
                state: part.snapshot_delta(),
                source_offsets: BTreeMap::from([(0, 100 * epoch)]),
            });
        }
        (store, part)
    }

    #[test]
    fn compacted_chain_reconstructs_identically_to_raw_chain() {
        let (raw, live) = delta_chain_store(9);
        let mut compacted = raw.clone();
        let merged = compacted.compact().unwrap();
        assert!(merged > 0, "a 8-delta chain must have something to merge");

        let from_raw = raw.reconstruct(0, 9).unwrap().unwrap();
        let from_compacted = compacted.reconstruct(0, 9).unwrap().unwrap();
        assert_eq!(from_raw, from_compacted);
        assert_eq!(from_compacted, live);

        // After compaction, each full is followed by at most one delta: the
        // chain at the final epoch is exactly [full, merged delta].
        let chain: Vec<SnapshotKind> = compacted
            .snapshots
            .values()
            .filter_map(|parts| parts.get(&0).map(|s| s.kind))
            .collect();
        assert_eq!(chain, vec![SnapshotKind::Full, SnapshotKind::Delta]);
        // The merged delta carries the newest source offsets of its run.
        let last = compacted.epoch(9).unwrap().get(&0).unwrap();
        assert_eq!(last.source_offsets[&0], 900);
        // Compaction is idempotent.
        assert_eq!(compacted.compact().unwrap(), 0);
    }

    #[test]
    fn delta_chain_len_reports_recovery_replay_depth() {
        let (raw, _) = delta_chain_store(9);
        // Uncompacted: epochs 2..=9 each appended one delta on the epoch-1
        // full anchor.
        assert_eq!(raw.delta_chain_len(0, 9), 8);
        assert_eq!(raw.delta_chain_len(0, 4), 3);
        assert_eq!(raw.delta_chain_len(0, 1), 0, "a full anchors the chain");
        // A partition with no captures reports an empty chain.
        assert_eq!(raw.delta_chain_len(7, 9), 0);

        let mut compacted = raw.clone();
        compacted.compact().unwrap();
        assert_eq!(
            compacted.delta_chain_len(0, 9),
            1,
            "compaction bounds replay depth at full + one merged delta"
        );
    }

    #[test]
    fn compaction_preserves_tombstone_and_reinsert_ordering() {
        // k removed in one delta and re-created in a later one must survive;
        // k removed *after* being written must stay gone.
        let mut part = PartitionState::new();
        let mut store = SnapshotStore::new(1);
        part.put(addr("A", "revived"), account(1));
        part.put(addr("A", "doomed"), account(2));
        store.add(Snapshot {
            epoch: 1,
            partition: 0,
            kind: SnapshotKind::Full,
            state: part.snapshot_full(),
            source_offsets: BTreeMap::new(),
        });
        part.take(&addr("A", "revived"));
        part.get_mut(&addr("A", "doomed"))
            .unwrap()
            .insert("balance".into(), Value::Int(9));
        store.add(Snapshot {
            epoch: 2,
            partition: 0,
            kind: SnapshotKind::Delta,
            state: part.snapshot_delta(),
            source_offsets: BTreeMap::new(),
        });
        part.put(addr("A", "revived"), account(42));
        part.take(&addr("A", "doomed"));
        store.add(Snapshot {
            epoch: 3,
            partition: 0,
            kind: SnapshotKind::Delta,
            state: part.snapshot_delta(),
            source_offsets: BTreeMap::new(),
        });

        let expected = store.reconstruct(0, 3).unwrap().unwrap();
        store.compact().unwrap();
        let compacted = store.reconstruct(0, 3).unwrap().unwrap();
        assert_eq!(expected, compacted);
        assert_eq!(
            compacted.get(&addr("A", "revived")).unwrap()["balance"],
            Value::Int(42)
        );
        assert!(!compacted.contains(&addr("A", "doomed")));
    }

    #[test]
    fn compaction_does_not_cross_full_snapshots() {
        // delta, FULL, delta, delta: only the trailing pair may merge — a
        // delta must never be folded across the rebase point it precedes.
        let mut part = PartitionState::new();
        let mut store = SnapshotStore::new(1);
        part.put(addr("A", "k"), account(0));
        store.add(Snapshot {
            epoch: 1,
            partition: 0,
            kind: SnapshotKind::Full,
            state: part.snapshot_full(),
            source_offsets: BTreeMap::new(),
        });
        for (epoch, kind) in [
            (2, SnapshotKind::Delta),
            (3, SnapshotKind::Full),
            (4, SnapshotKind::Delta),
            (5, SnapshotKind::Delta),
        ] {
            part.get_mut(&addr("A", "k"))
                .unwrap()
                .insert("balance".into(), Value::Int(epoch as i64));
            let state = match kind {
                SnapshotKind::Full => part.snapshot_full(),
                SnapshotKind::Delta => part.snapshot_delta(),
            };
            store.add(Snapshot {
                epoch,
                partition: 0,
                kind,
                state,
                source_offsets: BTreeMap::new(),
            });
        }
        let expected = store.reconstruct(0, 5).unwrap().unwrap();
        assert_eq!(
            store.compact().unwrap(),
            1,
            "only the trailing delta pair merges"
        );
        let chain: Vec<(EpochId, SnapshotKind)> = store
            .snapshots
            .iter()
            .filter_map(|(e, parts)| parts.get(&0).map(|s| (*e, s.kind)))
            .collect();
        assert_eq!(
            chain,
            vec![
                (1, SnapshotKind::Full),
                (2, SnapshotKind::Delta),
                (3, SnapshotKind::Full),
                (5, SnapshotKind::Delta),
            ]
        );
        assert_eq!(store.reconstruct(0, 5).unwrap().unwrap(), expected);
    }

    #[test]
    fn capture_then_encode_equals_eager_snapshot() {
        // Capture must produce byte-identical output to the eager path, for
        // both kinds, and re-base the dirty set exactly the same way.
        let mut eager = PartitionState::new();
        let mut lazy = PartitionState::new();
        for i in 0..5 {
            eager.put(addr("A", &format!("k{i}")), account(i));
            lazy.put(addr("A", &format!("k{i}")), account(i));
        }
        let full_capture = lazy.capture_full();
        assert_eq!(full_capture.kind(), SnapshotKind::Full);
        assert_eq!(full_capture.entity_count(), 5);
        assert_eq!(eager.snapshot_full(), full_capture.encode());
        assert_eq!(lazy.dirty_len(), 0);

        for part in [&mut eager, &mut lazy] {
            part.get_mut(&addr("A", "k1"))
                .unwrap()
                .insert("balance".into(), Value::Int(99));
            part.take(&addr("A", "k3"));
        }
        let delta_capture = lazy.capture_delta();
        assert_eq!(delta_capture.kind(), SnapshotKind::Delta);
        assert_eq!(delta_capture.entity_count(), 1);
        assert_eq!(delta_capture.tombstone_count(), 1);
        assert_eq!(eager.snapshot_delta(), delta_capture.encode());
        assert_eq!(lazy.dirty_len(), 0);
    }

    #[test]
    fn capture_is_a_consistent_cut_under_later_writes() {
        // Writes performed AFTER the capture must not leak into its encoding
        // — the capture is the barrier-time cut, encoded later.
        let mut part = PartitionState::new();
        part.put(addr("A", "k"), account(1));
        let capture = part.capture_full();
        part.get_mut(&addr("A", "k"))
            .unwrap()
            .insert("balance".into(), Value::Int(777));
        let restored = PartitionState::from_bytes(&capture.encode()).unwrap();
        assert_eq!(
            restored.get(&addr("A", "k")).unwrap()["balance"],
            Value::Int(1),
            "post-capture write leaked into the capture"
        );
    }

    #[test]
    fn epochs_seal_in_order_and_pending_never_recovers() {
        let mut store = SnapshotStore::new(2);
        let snap = |epoch, partition, kind| Snapshot {
            epoch,
            partition,
            kind,
            state: vec![epoch as u8],
            source_offsets: BTreeMap::from([(0, epoch * 10)]),
        };
        assert_eq!(store.add(snap(1, 0, SnapshotKind::Full)), 0);
        assert_eq!(store.add(snap(1, 1, SnapshotKind::Full)), 1);
        assert!(store.is_sealed(1));
        assert_eq!(store.epoch_offsets(1), Some(&BTreeMap::from([(0, 10)])));

        // Announce epoch 2 (cut taken, no bytes yet): visible as pending.
        store.begin_epoch(2);
        assert_eq!(store.unsealed_epochs(), 1);
        assert_eq!(store.latest_sealed_epoch(), Some(1));

        // Epoch 3's bytes fully arrive while epoch 2 is still pending: the
        // seal must wait — a newer cut cannot become the recovery point
        // while an older one is still materializing.
        assert_eq!(store.add(snap(3, 0, SnapshotKind::Delta)), 0);
        assert_eq!(store.add(snap(3, 1, SnapshotKind::Delta)), 0);
        assert_eq!(store.latest_sealed_epoch(), Some(1));
        assert!(!store.is_sealed(3));

        // Epoch 2 completes: both seal, in order, from one arrival.
        assert_eq!(store.add(snap(2, 0, SnapshotKind::Delta)), 0);
        assert_eq!(store.add(snap(2, 1, SnapshotKind::Delta)), 2);
        assert_eq!(store.latest_sealed_epoch(), Some(3));
        assert_eq!(store.unsealed_epochs(), 0);
    }

    #[test]
    fn sealed_epochs_are_immutable_to_late_arrivals() {
        // A duplicate/late add for a sealed epoch must be dropped: parking it
        // in `pending` would block every future seal, and re-folding it
        // (amortized) would regress the merge with stale data.
        let mut part = PartitionState::new();
        part.put(addr("A", "k"), account(1));
        let full = part.snapshot_full();
        part.get_mut(&addr("A", "k"))
            .unwrap()
            .insert("balance".into(), Value::Int(2));
        let epoch2 = part.snapshot_delta();
        part.get_mut(&addr("A", "k"))
            .unwrap()
            .insert("balance".into(), Value::Int(3));
        let epoch3 = part.snapshot_delta();

        let snap = |epoch, kind, state: &Vec<u8>| Snapshot {
            epoch,
            partition: 0,
            kind,
            state: state.clone(),
            source_offsets: BTreeMap::new(),
        };
        let mut store = SnapshotStore::new_amortized(1);
        store.add(snap(1, SnapshotKind::Full, &full));
        store.add(snap(2, SnapshotKind::Delta, &epoch2));
        store.add(snap(3, SnapshotKind::Delta, &epoch3));
        assert_eq!(store.latest_sealed_epoch(), Some(3));

        // Re-adding sealed epoch 2 seals nothing, blocks nothing, and does
        // not regress the merge below epoch 3's value.
        assert_eq!(store.add(snap(2, SnapshotKind::Delta, &epoch2)), 0);
        assert_eq!(store.unsealed_epochs(), 0);
        store.add(snap(4, SnapshotKind::Delta, &part.snapshot_delta()));
        assert_eq!(store.latest_sealed_epoch(), Some(4), "seals keep flowing");
        let rebuilt = store.reconstruct(0, 4).unwrap().unwrap();
        assert_eq!(
            rebuilt.get(&addr("A", "k")).unwrap()["balance"],
            Value::Int(3)
        );
    }

    #[test]
    fn amortized_metadata_is_pruned_below_the_oldest_anchor() {
        // Per-epoch bookkeeping (sealed set, offsets) must not grow one entry
        // per epoch forever: a full rebase retires everything beneath it.
        let mut part = PartitionState::new();
        part.put(addr("A", "k"), account(0));
        let mut store = SnapshotStore::new_amortized(1);
        let record = |store: &mut SnapshotStore, epoch, kind, part: &mut PartitionState| {
            let state = match kind {
                SnapshotKind::Full => part.snapshot_full(),
                SnapshotKind::Delta => part.snapshot_delta(),
            };
            store.add(Snapshot {
                epoch,
                partition: 0,
                kind,
                state,
                source_offsets: BTreeMap::from([(0, epoch * 10)]),
            });
        };
        record(&mut store, 1, SnapshotKind::Full, &mut part);
        for epoch in 2..=9 {
            part.get_mut(&addr("A", "k"))
                .unwrap()
                .insert("balance".into(), Value::Int(epoch as i64));
            record(&mut store, epoch, SnapshotKind::Delta, &mut part);
        }
        assert_eq!(store.epoch_count(), 9);
        // Rebase: epochs 1..=9 are no longer reconstructible; their metadata
        // goes with them. Only the new anchor epoch remains tracked.
        record(&mut store, 10, SnapshotKind::Full, &mut part);
        assert_eq!(store.epoch_count(), 1);
        assert_eq!(store.latest_sealed_epoch(), Some(10));
        assert_eq!(store.epoch_offsets(10), Some(&BTreeMap::from([(0, 100)])));
        assert_eq!(store.epoch_offsets(5), None);
    }

    #[test]
    fn truncate_after_drops_pending_arrivals_too() {
        let mut store = SnapshotStore::new(2);
        let snap = |epoch, partition| Snapshot {
            epoch,
            partition,
            kind: SnapshotKind::Full,
            state: vec![1],
            source_offsets: BTreeMap::new(),
        };
        store.add(snap(1, 0));
        store.add(snap(1, 1));
        store.begin_epoch(2);
        store.add(snap(2, 0)); // partial: epoch 2 stays pending
        store.begin_epoch(3); // announced, zero arrivals
        assert_eq!(store.unsealed_epochs(), 2);
        // Rollback to epoch 1 clears the failed timeline's pending arrivals.
        assert_eq!(store.truncate_after(1), 1);
        assert_eq!(store.unsealed_epochs(), 0);
        assert_eq!(store.latest_sealed_epoch(), Some(1));
    }

    /// Replay `delta_chain_store`'s history through an amortized store and
    /// check it reconstructs identically to the classic chain at the final
    /// epoch, with the chain structurally bounded at one merged delta.
    #[test]
    fn amortized_fold_reconstructs_identically_to_raw_chain() {
        let (raw, live) = delta_chain_store(9);
        let mut amortized = SnapshotStore::new_amortized(1);
        for (_, parts) in raw.snapshots.iter() {
            for snap in parts.values() {
                amortized.add(snap.clone());
            }
        }
        assert_eq!(amortized.latest_sealed_epoch(), Some(9));
        assert_eq!(
            amortized.delta_chain_len(0, 9),
            1,
            "fold must bound the chain at one merged delta continuously"
        );
        assert!(amortized.deltas_merged() > 0);
        let from_amortized = amortized.reconstruct(0, 9).unwrap().unwrap();
        assert_eq!(from_amortized, raw.reconstruct(0, 9).unwrap().unwrap());
        assert_eq!(from_amortized, live);
        // compact() has nothing left to do.
        assert_eq!(amortized.compact().unwrap(), 0);
    }

    // (The structural pin that folding performs zero encodes — and that
    // merged_delta_bytes encodes lazily, exactly once — lives in the
    // single-test `tests/compaction_cost.rs` binary, where the process-global
    // codec counters cannot be disturbed by parallel sibling tests.)
    #[test]
    fn merged_delta_bytes_apply_like_a_delta() {
        let (raw, live) = delta_chain_store(9);
        let mut amortized = SnapshotStore::new_amortized(1);
        for (_, parts) in raw.snapshots.iter() {
            for snap in parts.values() {
                amortized.add(snap.clone());
            }
        }
        let bytes = amortized.merged_delta_bytes(0).unwrap().to_vec();
        let anchor = raw.reconstruct(0, 1).unwrap().unwrap();
        let mut rebuilt = anchor;
        rebuilt.apply_delta(&bytes).unwrap();
        assert_eq!(rebuilt, live);
    }

    #[test]
    fn amortized_full_anchor_resets_the_chain() {
        let mut part = PartitionState::new();
        let mut store = SnapshotStore::new_amortized(1);
        part.put(addr("A", "k"), account(0));
        let record = |store: &mut SnapshotStore, epoch, kind, part: &mut PartitionState| {
            let state = match kind {
                SnapshotKind::Full => part.snapshot_full(),
                SnapshotKind::Delta => part.snapshot_delta(),
            };
            store.add(Snapshot {
                epoch,
                partition: 0,
                kind,
                state,
                source_offsets: BTreeMap::new(),
            });
        };
        record(&mut store, 1, SnapshotKind::Full, &mut part);
        for epoch in 2..=4 {
            part.get_mut(&addr("A", "k"))
                .unwrap()
                .insert("balance".into(), Value::Int(epoch as i64));
            record(&mut store, epoch, SnapshotKind::Delta, &mut part);
        }
        assert_eq!(store.delta_chain_len(0, 4), 1);
        // A full rebase retires the folded chain and the old anchor.
        part.get_mut(&addr("A", "k"))
            .unwrap()
            .insert("balance".into(), Value::Int(50));
        record(&mut store, 5, SnapshotKind::Full, &mut part);
        assert_eq!(store.delta_chain_len(0, 5), 0);
        assert!(store.merged_delta_bytes(0).is_none());
        assert_eq!(store.epoch(1), None, "superseded anchor is pruned");
        let rebuilt = store.reconstruct(0, 5).unwrap().unwrap();
        assert_eq!(rebuilt, part);
    }

    #[test]
    fn amortized_corrupt_delta_surfaces_at_reconstruct() {
        let mut part = PartitionState::new();
        let mut store = SnapshotStore::new_amortized(1);
        part.put(addr("A", "k"), account(0));
        store.add(Snapshot {
            epoch: 1,
            partition: 0,
            kind: SnapshotKind::Full,
            state: part.snapshot_full(),
            source_offsets: BTreeMap::new(),
        });
        part.get_mut(&addr("A", "k"))
            .unwrap()
            .insert("balance".into(), Value::Int(9));
        let mut delta = part.snapshot_delta();
        delta.truncate(delta.len() / 2);
        store.add(Snapshot {
            epoch: 2,
            partition: 0,
            kind: SnapshotKind::Delta,
            state: delta,
            source_offsets: BTreeMap::new(),
        });
        // The corrupt delta seals (bytes arrived) but cannot fold; recovery
        // through it must error rather than silently skip the epoch.
        assert!(store.is_sealed(2));
        assert!(store.reconstruct(0, 2).is_err());
    }
}
