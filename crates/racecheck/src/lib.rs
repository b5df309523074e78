//! # racecheck: a concurrency certifier for the sharded engine
//!
//! The offline container cannot import ThreadSanitizer or loom, so this
//! crate builds the subset the engine actually needs, specialized to its
//! ownership discipline (each partition owned by exactly one shard thread;
//! the coordinator touches state only through sealed bytes). Three layers,
//! all reached through one [`Monitor`] handle that the runtime carries as
//! `ShardConfig::monitor` — `None` compiles to the unmonitored hot path:
//!
//! 1. **Happens-before race detection** ([`Monitor::access`]). Every thread
//!    role keeps a [`VectorClock`]; every channel message the runtime sends
//!    while monitored carries a [`Stamp`] (the sender's clock, ticked), and
//!    every receive joins it. Every monitored resource access — partition
//!    state reads/writes, barrier-cut reads, snapshot-store mutations — is
//!    checked FastTrack-style: a read must see the last write's clock
//!    component, a write must additionally see every recorded read. An
//!    unordered pair becomes a [`RaceDiagnostic`] naming the resource, both
//!    thread roles, and both access contexts.
//!
//! 2. **Online commit-order certification** ([`Monitor::certify_batch`]).
//!    An independent re-derivation of the order-preserving Aria rule from
//!    the three-kind footprint lattice alone: within a batch no two
//!    *committed* calls may conflict on a key; a committed call may not
//!    conflict with a still-in-flight batch's committed footprints; and a
//!    committed call may not overtake an earlier-arrived conflicting call
//!    that is still deferred. Divergence becomes a [`CertifierViolation`]
//!    naming the batch, the conflicting `(class, key)` pair, and both
//!    calls' footprints.
//!
//! 3. **Seeded schedule exploration** ([`SchedulePlan`] / [`ScheduleRng`]).
//!    Deterministic, bounded delay injection plus legal permutations
//!    (dispatch fan-out order, mailbox flush order — never the order of
//!    events *within* one channel, which per-sender FIFO semantics and the
//!    happens-before model both rely on). A sweep harness runs the
//!    equivalence corpus across N seeds with the monitor armed.
//!
//! [`DefectPlan`] exists purely to prove the detector the way PR 9 proved
//! the verifier: seeded defect injection (a dropped barrier-ack stamp, a
//! mis-masked conflict pair, a dropped durable-writer notice stamp) must
//! trip its specific diagnostic.

#![forbid(unsafe_code)]

use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

/// Keep at most this many race/certifier diagnostics; a genuinely broken
/// run floods the monitor, and the first few diagnostics are the useful
/// ones. The total count keeps counting past the cap.
const DIAGNOSTIC_CAP: usize = 64;

/// Thread roles at or above this are assigned dynamically
/// ([`Monitor::ensure_current_role`]) to threads the runtime does not
/// name — client sessions, test drivers. Roles below it are reserved for
/// the engine: coordinator `0`, shard `s` at `1 + s`, the durable writer at
/// `DYNAMIC_ROLE_BASE - 1`.
pub const DYNAMIC_ROLE_BASE: u32 = 1 << 16;

// ---------------------------------------------------------------------------
// Hot-path hashing
// ---------------------------------------------------------------------------

/// Multiply-xor hasher for the monitor's hot-path tables. The keys here are
/// engine-internal ids (roles, partitions, `(class, key)` pairs), never
/// attacker-controlled, so SipHash's flood resistance buys nothing — while
/// its per-lookup cost is a measurable slice of the armed overhead budget
/// (several map operations per monitored call).
#[derive(Default)]
struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock over thread roles: one monotone counter per role. Sparse
/// (a map, not a dense vector) because role ids are sparse — engine roles
/// are small integers, dynamic roles start at [`DYNAMIC_ROLE_BASE`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    components: BTreeMap<u32, u64>,
}

impl VectorClock {
    /// The all-zero clock (bottom of the lattice).
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// This clock's component for `role` (absent = 0).
    pub fn get(&self, role: u32) -> u64 {
        self.components.get(&role).copied().unwrap_or(0)
    }

    /// Advance `role`'s own component by one; returns the new value.
    pub fn tick(&mut self, role: u32) -> u64 {
        let slot = self.components.entry(role).or_insert(0);
        *slot += 1;
        *slot
    }

    /// Componentwise maximum (the lattice join).
    pub fn join(&mut self, other: &VectorClock) {
        for (&role, &value) in &other.components {
            let slot = self.components.entry(role).or_insert(0);
            *slot = (*slot).max(value);
        }
    }

    /// Happens-before-or-equal: every component of `self` is ≤ the matching
    /// component of `other`. This is the lattice partial order; two clocks
    /// with `!a.leq(b) && !b.leq(a)` are concurrent.
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.components
            .iter()
            .all(|(&role, &value)| value <= other.get(role))
    }

    /// Neither ordered before nor after `other`.
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }
}

/// A snapshot of a sender's clock, carried on a message and joined by the
/// receiver — one happens-before edge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stamp(pub VectorClock);

// ---------------------------------------------------------------------------
// Resources and race diagnostics
// ---------------------------------------------------------------------------

/// What a monitored access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// One shard's live partition state (owned by its worker thread).
    Partition(usize),
    /// One partition's barrier capture at one epoch: written by the worker
    /// at the capture walk, read by the coordinator when the epoch's bytes
    /// arrive. Keyed per epoch so absorbing an *older* epoch's bytes is
    /// never checked against a *newer* capture's write.
    PartitionCut {
        /// The capturing shard.
        partition: usize,
        /// The epoch the capture was cut at.
        epoch: u64,
    },
    /// The coordinator's snapshot store (a single-writer tripwire: every
    /// mutation must come from the same happens-before timeline).
    SnapshotStore,
    /// One admission group of the durable ingress log, keyed by its
    /// exclusive call-id bound: written by the coordinator when it hands the
    /// encoded group to the durable writer, written again by the writer once
    /// an fsync covers it, and — for the last group an fsync covered — read
    /// by the coordinator when the durable notice lets it dispatch.
    LogGroup(u64),
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Partition(p) => write!(f, "partition {p}"),
            Resource::PartitionCut { partition, epoch } => {
                write!(f, "partition {partition} cut at epoch {epoch}")
            }
            Resource::SnapshotStore => write!(f, "snapshot store"),
            Resource::LogGroup(end) => write!(f, "log group ending at call {end}"),
        }
    }
}

/// Read or write, for the FastTrack check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read access: must be ordered after the last write.
    Read,
    /// Write access: must be ordered after the last write *and* every
    /// recorded read.
    Write,
}

/// One side of a detected race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessInfo {
    /// The accessing thread role (coordinator 0, shard `s` at `1 + s`).
    pub role: u32,
    /// The call site, e.g. `"barrier capture"` or `"absorb snapshot bytes"`.
    pub context: String,
}

/// Two accesses to one resource not ordered by happens-before.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceDiagnostic {
    /// The resource both sides touched.
    pub resource: Resource,
    /// `"write-write"`, `"read-write"`, or `"write-read"` (prior access
    /// first).
    pub kind: &'static str,
    /// The earlier recorded access.
    pub prior: AccessInfo,
    /// The access that failed the happens-before check.
    pub current: AccessInfo,
}

impl fmt::Display for RaceDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race on {}: role {} ({}) unordered with role {} ({})",
            self.kind,
            self.resource,
            self.prior.role,
            self.prior.context,
            self.current.role,
            self.current.context
        )
    }
}

/// Per-resource detector state: the last write's epoch (writer role + its
/// own clock component at the write) and, per reader role, the reader's
/// component at its latest read. FastTrack's insight: checking these
/// components against the accessor's clock view is equivalent to comparing
/// full clocks.
#[derive(Default)]
struct ResourceState {
    last_write: Option<(u32, u64, &'static str)>,
    reads: FastMap<u32, (u64, &'static str)>,
}

/// One role's clock plus its access-elision window: the resources this role
/// has already checked since its last *clock edge* (a stamp emitted or a
/// stamp joined). Between two clock edges a role's happens-before relation
/// to every other role is constant, so a repeated access to the same
/// resource is race-equivalent to the window's first — eliding it loses no
/// detection: a foreign role can only become ordered after this role's
/// accesses by joining a stamp, and emitting that stamp cleared the window,
/// forcing the next access through the full check; a foreign *concurrent*
/// access in between is checked on the foreign side against the state the
/// first access recorded. This is what keeps the armed per-call hook at two
/// map probes instead of a full FastTrack pass (see the overhead bench).
#[derive(Default)]
struct RoleClock {
    clock: VectorClock,
    /// Strongest access kind already recorded per resource this window
    /// (a write subsumes a read).
    window: FastMap<Resource, AccessKind>,
}

// ---------------------------------------------------------------------------
// Commit-order certifier
// ---------------------------------------------------------------------------

/// A conflict key as the engine hashes it: `(class id, 64-bit key hash)`.
pub type CertKey = (u32, u64);

/// Access-lattice bit: provably read-only on the key.
pub const CERT_READ: u8 = 1;
/// Access-lattice bit: commutative read-modify-write on the key.
pub const CERT_COMM: u8 = 2;
/// Access-lattice bit: may write the key exclusively.
pub const CERT_WRITE: u8 = 4;

/// The certifier's own copy of the conflict rule — re-derived here, not
/// imported, so a bug in the engine's mask logic cannot silently agree
/// with itself: two masks conflict unless their union is pure-read or
/// pure-commutative.
pub fn cert_conflict(a: u8, b: u8) -> bool {
    let union = a | b;
    union != CERT_READ && union != CERT_COMM
}

/// One call as the coordinator's commit rule saw it: its arrival id,
/// whether this batch committed it, and its deduplicated footprint.
#[derive(Debug, Clone)]
pub struct CertEntry {
    /// Global call id (assigned in arrival order).
    pub call_id: u64,
    /// `true` if the batch committed the call, `false` if it deferred it.
    pub committed: bool,
    /// `(key, access mask)` pairs, deduplicated per call.
    pub keys: Vec<(CertKey, u8)>,
}

/// Borrowed view of a [`CertEntry`]: the zero-copy shape the engine feeds
/// [`Monitor::certify_batch_by_ref`] straight out of its footprint table.
/// Cloning every call's key vector just to certify it was a measurable
/// slice of the armed overhead budget (one heap allocation per call).
#[derive(Debug, Clone, Copy)]
pub struct CertEntryRef<'a> {
    /// Global call id (assigned in arrival order).
    pub call_id: u64,
    /// `true` if the batch committed the call, `false` if it deferred it.
    pub committed: bool,
    /// `(key, access mask)` pairs, deduplicated per call.
    pub keys: &'a [(CertKey, u8)],
}

/// A committed schedule diverging from the order-preserving Aria rule.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifierViolation {
    /// The batch (1-based dispatch ordinal) the divergence surfaced in.
    pub batch: u64,
    /// The conflicting `(class id, key hash)` pair.
    pub key: CertKey,
    /// What rule broke.
    pub kind: CertViolationKind,
    /// The committed call that failed the check, with its full footprint.
    pub call: (u64, Vec<(CertKey, u8)>),
    /// The call it conflicts with, with its full footprint.
    pub other: (u64, Vec<(CertKey, u8)>),
}

/// Which certifier rule a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertViolationKind {
    /// Two committed calls of one batch conflict on the key.
    IntraBatch,
    /// A committed call conflicts with a still-in-flight batch (the named
    /// batch in `other_batch`).
    Pipeline {
        /// The in-flight batch holding the conflicting reservation.
        other_batch: u64,
    },
    /// A committed call overtook an earlier-arrived conflicting call that
    /// is still deferred — commit order no longer equals arrival order.
    ArrivalOrder,
}

impl fmt::Display for CertifierViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rule = match self.kind {
            CertViolationKind::IntraBatch => {
                "two committed calls conflict in one batch".to_string()
            }
            CertViolationKind::Pipeline { other_batch } => {
                format!("committed call conflicts with in-flight batch {other_batch}")
            }
            CertViolationKind::ArrivalOrder => {
                "committed call overtakes an earlier conflicting arrival".to_string()
            }
        };
        write!(
            f,
            "batch {}: {} on (class {}, key {:#x}); call {} footprint {:?} vs call {} footprint {:?}",
            self.batch, rule, self.key.0, self.key.1, self.call.0, self.call.1, self.other.0, self.other.1
        )
    }
}

#[derive(Default)]
struct CertifierState {
    /// Committed footprints of batches dispatched but not yet retired,
    /// keyed by batch ordinal, indexed per key so the pipeline check is a
    /// lookup per (entry, key) instead of a scan of every reservation.
    inflight: FastMap<u64, FastMap<CertKey, Vec<(u8, u64)>>>,
    /// Arrived-but-deferred calls, indexed per key for the overtake check.
    pending: FastMap<CertKey, Vec<(u64, u8)>>,
    /// Full footprints of pending calls (for diagnostics).
    pending_footprints: FastMap<u64, Vec<(CertKey, u8)>>,
    violations: Vec<CertifierViolation>,
    violations_total: u64,
    batches_certified: u64,
    calls_certified: u64,
}

impl CertifierState {
    /// `true` while any deferred call is still parked — the only time the
    /// overtake check and the committed-call pending-removal need to hash.
    fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    fn push_violation(&mut self, v: CertifierViolation) {
        self.violations_total += 1;
        if self.violations.len() < DIAGNOSTIC_CAP {
            self.violations.push(v);
        }
    }
}

// ---------------------------------------------------------------------------
// The monitor
// ---------------------------------------------------------------------------

/// Aggregate monitor counters (for the overhead bench table and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Resource accesses checked.
    pub accesses: u64,
    /// Stamps issued (happens-before edges announced).
    pub stamps: u64,
    /// Stamps joined (happens-before edges observed).
    pub joins: u64,
    /// Races detected (total, past the diagnostic cap too).
    pub races: u64,
    /// Certifier violations (total).
    pub violations: u64,
    /// Batches certified.
    pub batches_certified: u64,
    /// Calls certified.
    pub calls_certified: u64,
}

/// The shared detector handle. Cheap to clone (`Arc` it); every hook in the
/// runtime is behind `if let Some(monitor)`, so an unarmed run never pays.
///
/// Thread identity is role-based (coordinator `0`, shard `s` at `1 + s`,
/// dynamically assigned ids from [`DYNAMIC_ROLE_BASE`] for everything
/// else), surviving worker respawn across recoveries. Hooks that cannot
/// thread a role through their API (state, mq) resolve the calling OS
/// thread through [`Monitor::bind_current_thread`]'s registry; an unbound
/// thread's accesses are ignored (it is outside the monitored run).
pub struct Monitor {
    threads: RwLock<HashMap<ThreadId, u32>>,
    next_dynamic: AtomicU32,
    /// Per-role clocks (and elision windows), lock-sharded by role: every
    /// clock operation (stamp, join, access tick) touches only the operating
    /// role's own entry, so concurrent workers never contend here — the
    /// difference between the armed bench row and an unusable one.
    clocks: Vec<Mutex<FastMap<u32, RoleClock>>>,
    /// Resource table, sharded by key hash to keep distinct partitions off
    /// one lock.
    resources: Vec<Mutex<FastMap<Resource, ResourceState>>>,
    /// Message stamps for channel edges addressed by key rather than
    /// carried in-band (the mq hooks): `(domain, a, b)` → sender stamp.
    edges: Mutex<HashMap<(u64, u64, u64), Stamp>>,
    races: Mutex<Vec<RaceDiagnostic>>,
    races_total: AtomicU64,
    cert: Mutex<CertifierState>,
    accesses: AtomicU64,
    stamps: AtomicU64,
    joins: AtomicU64,
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Monitor")
            .field("accesses", &stats.accesses)
            .field("races", &stats.races)
            .field("violations", &stats.violations)
            .finish()
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Monitor::new()
    }
}

/// Channel-edge domain tag for mq topic records (see [`Monitor::channel_send`]).
pub const EDGE_MQ: u64 = 1;
/// Channel-edge domain tag for service session responses.
pub const EDGE_SESSION: u64 = 2;

const RESOURCE_SHARDS: usize = 8;
const CLOCK_SHARDS: usize = 16;

/// Fibonacci-hash a role onto a clock shard, so dense engine roles (0, 1,
/// 2, …) and the dynamic block ([`DYNAMIC_ROLE_BASE`] and up) spread over
/// distinct locks instead of colliding mod-power-of-two.
fn clock_shard(role: u32) -> usize {
    ((role as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % CLOCK_SHARDS
}

impl Monitor {
    /// A fresh monitor with empty clocks and no diagnostics.
    pub fn new() -> Self {
        Monitor {
            threads: RwLock::new(HashMap::new()),
            next_dynamic: AtomicU32::new(DYNAMIC_ROLE_BASE),
            clocks: (0..CLOCK_SHARDS)
                .map(|_| Mutex::new(FastMap::default()))
                .collect(),
            resources: (0..RESOURCE_SHARDS)
                .map(|_| Mutex::new(FastMap::default()))
                .collect(),
            edges: Mutex::new(HashMap::new()),
            races: Mutex::new(Vec::new()),
            races_total: AtomicU64::new(0),
            cert: Mutex::new(CertifierState::default()),
            accesses: AtomicU64::new(0),
            stamps: AtomicU64::new(0),
            joins: AtomicU64::new(0),
        }
    }

    /// Convenience: a fresh monitor behind an `Arc`, ready for
    /// `ShardConfig::monitor`.
    pub fn armed() -> Arc<Self> {
        Arc::new(Monitor::new())
    }

    // -- thread identity ----------------------------------------------------

    /// Register the calling OS thread under an engine role. Re-binding on
    /// respawn is expected: the newest binding wins, and a dead thread's
    /// stale entry is harmless (its id is never observed again).
    pub fn bind_current_thread(&self, role: u32) {
        self.threads
            .write()
            .insert(std::thread::current().id(), role);
    }

    /// The calling thread's role, if it was bound (or dynamically
    /// registered).
    pub fn current_role(&self) -> Option<u32> {
        self.threads
            .read()
            .get(&std::thread::current().id())
            .copied()
    }

    /// The calling thread's role, assigning a fresh dynamic one if absent —
    /// used by front-door hooks where any client thread may appear.
    pub fn ensure_current_role(&self) -> u32 {
        if let Some(role) = self.current_role() {
            return role;
        }
        let role = self.next_dynamic.fetch_add(1, Ordering::SeqCst);
        self.bind_current_thread(role);
        role
    }

    // -- happens-before edges -----------------------------------------------

    /// Tick `role`'s clock and snapshot it: the stamp a message should
    /// carry.
    pub fn stamp(&self, role: u32) -> Stamp {
        self.stamps.fetch_add(1, Ordering::Relaxed);
        let mut clocks = self.clocks[clock_shard(role)].lock();
        let rc = clocks.entry(role).or_default();
        // A clock edge: accesses after this stamp are a new elision window.
        rc.window.clear();
        rc.clock.tick(role);
        Stamp(rc.clock.clone())
    }

    /// [`Monitor::stamp`] for the calling thread, dynamically registering
    /// it if needed.
    pub fn stamp_current(&self) -> Stamp {
        let role = self.ensure_current_role();
        self.stamp(role)
    }

    /// Join a received stamp into `role`'s clock: the receive side of one
    /// happens-before edge.
    pub fn join(&self, role: u32, stamp: &Stamp) {
        self.joins.fetch_add(1, Ordering::Relaxed);
        let mut clocks = self.clocks[clock_shard(role)].lock();
        let rc = clocks.entry(role).or_default();
        // A clock edge: the joined stamp may order this role after new
        // foreign accesses, so the elision window is stale.
        rc.window.clear();
        rc.clock.join(&stamp.0);
    }

    /// [`Monitor::join`] for the calling thread (no-op when unbound —
    /// an unmonitored thread has no clock to order).
    pub fn join_current(&self, stamp: &Stamp) {
        if let Some(role) = self.current_role() {
            self.join(role, stamp);
        }
    }

    /// Record a channel-edge stamp by key (for channels whose payload
    /// cannot carry one in-band, e.g. mq topic records): the send side.
    pub fn channel_send(&self, domain: u64, a: u64, b: u64) {
        let stamp = self.stamp_current();
        self.edges.lock().insert((domain, a, b), stamp);
    }

    /// Join the stamp recorded for a channel-edge key, if any: the receive
    /// side. The stamp stays recorded — offset-addressed records can be
    /// re-read (replay), and each re-read is a new edge from the same send.
    pub fn channel_recv(&self, domain: u64, a: u64, b: u64) {
        let stamp = self.edges.lock().get(&(domain, a, b)).cloned();
        if let Some(stamp) = stamp {
            self.join_current(&stamp);
        }
    }

    // -- the race detector --------------------------------------------------

    /// Check one access of `resource` by `role` against everything recorded
    /// for it. `context` names the call site for the diagnostic (static so
    /// the hot path records it allocation-free).
    ///
    /// Lock order: the role's clock shard before the resource shard — the
    /// only place two monitor locks are held at once (exactly one of each),
    /// so nested acquisition cannot cycle.
    pub fn access(&self, role: u32, resource: Resource, kind: AccessKind, context: &'static str) {
        self.accesses.fetch_add(1, Ordering::Relaxed);
        let mut clocks = self.clocks[clock_shard(role)].lock();
        let rc = clocks.entry(role).or_default();
        // Elision fast path: this role already put an access at least as
        // strong as `kind` through the full check since its last clock
        // edge, and nothing about its happens-before relation to any other
        // role has changed since (see [`RoleClock`] for the soundness
        // argument).
        match rc.window.get(&resource) {
            Some(AccessKind::Write) => return,
            Some(AccessKind::Read) if kind == AccessKind::Read => return,
            _ => {}
        }
        rc.window.insert(resource, kind);
        let clock = &mut rc.clock;
        // Tick: every checked access is an event on the accessor's
        // timeline, so later stamps (and the components recorded below)
        // order after it even on threads that never send a message in
        // between.
        clock.tick(role);
        let own_component = clock.get(role);
        let shard = resource_shard(&resource);
        let mut table = self.resources[shard].lock();
        let state = table.entry(resource).or_default();
        let mut race: Option<RaceDiagnostic> = None;
        if let Some((w_role, w_at, w_ctx)) = &state.last_write {
            if *w_role != role && clock.get(*w_role) < *w_at {
                race = Some(RaceDiagnostic {
                    resource,
                    kind: if kind == AccessKind::Write {
                        "write-write"
                    } else {
                        "write-read"
                    },
                    prior: AccessInfo {
                        role: *w_role,
                        context: w_ctx.to_string(),
                    },
                    current: AccessInfo {
                        role,
                        context: context.to_string(),
                    },
                });
            }
        }
        if race.is_none() && kind == AccessKind::Write {
            for (r_role, (r_at, r_ctx)) in &state.reads {
                if *r_role != role && clock.get(*r_role) < *r_at {
                    race = Some(RaceDiagnostic {
                        resource,
                        kind: "read-write",
                        prior: AccessInfo {
                            role: *r_role,
                            context: r_ctx.to_string(),
                        },
                        current: AccessInfo {
                            role,
                            context: context.to_string(),
                        },
                    });
                    break;
                }
            }
        }
        match kind {
            AccessKind::Write => {
                state.last_write = Some((role, own_component, context));
                // Recorded reads all happened before this write (or were
                // just flagged); later accesses only need ordering against
                // the write.
                state.reads.clear();
            }
            AccessKind::Read => {
                state.reads.insert(role, (own_component, context));
            }
        }
        drop(table);
        drop(clocks);
        if let Some(diagnostic) = race {
            self.races_total.fetch_add(1, Ordering::Relaxed);
            let mut races = self.races.lock();
            if races.len() < DIAGNOSTIC_CAP {
                races.push(diagnostic);
            }
        }
    }

    /// [`Monitor::access`] resolving the calling thread's role; ignored for
    /// unbound threads (accesses outside the monitored run, e.g. a test
    /// inspecting state it owns exclusively).
    pub fn access_current(&self, resource: Resource, kind: AccessKind, context: &'static str) {
        if let Some(role) = self.current_role() {
            self.access(role, resource, kind, context);
        }
    }

    // -- the commit-order certifier ------------------------------------------

    /// Certify one dispatched batch: every entry the commit rule looked at,
    /// in batch order, committed and deferred alike.
    pub fn certify_batch(&self, batch_no: u64, entries: &[CertEntry]) {
        let refs: Vec<CertEntryRef<'_>> = entries
            .iter()
            .map(|e| CertEntryRef {
                call_id: e.call_id,
                committed: e.committed,
                keys: &e.keys,
            })
            .collect();
        self.certify_batch_by_ref(batch_no, &refs);
    }

    /// [`Monitor::certify_batch`] over borrowed footprint slices — the armed
    /// hot path: the coordinator certifies every batch, and cloning each
    /// call's key vector into an owned [`CertEntry`] costs one allocation
    /// per call. Diagnostics still own their footprints (copied only when a
    /// violation actually fires).
    pub fn certify_batch_by_ref(&self, batch_no: u64, entries: &[CertEntryRef<'_>]) {
        let mut cert = self.cert.lock();
        cert.batches_certified += 1;
        cert.calls_certified += entries.len() as u64;

        // (1) Intra-batch: committed × committed on a shared key. One pass
        // with a per-key index of the distinct footprint masks already seen
        // (the mask lattice has at most a handful of values, so the inner
        // check is O(1)); scanning all committed pairs would be quadratic in
        // the batch size, which dominates monitor overhead at batch 512.
        let mut seen: FastMap<CertKey, Vec<(u8, usize)>> = FastMap::default();
        let mut intra_violations = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            if !entry.committed {
                continue;
            }
            for &(key, mask) in entry.keys {
                let masks = seen.entry(key).or_default();
                for &(other_mask, other_idx) in masks.iter() {
                    if cert_conflict(other_mask, mask) {
                        let other = &entries[other_idx];
                        intra_violations.push(CertifierViolation {
                            batch: batch_no,
                            key,
                            kind: CertViolationKind::IntraBatch,
                            call: (entry.call_id, entry.keys.to_vec()),
                            other: (other.call_id, other.keys.to_vec()),
                        });
                    }
                }
                if !masks.iter().any(|(m, _)| *m == mask) {
                    masks.push((mask, i));
                }
            }
        }
        for v in intra_violations {
            cert.push_violation(v);
        }

        // (2) Pipeline: committed calls vs in-flight batches' commitments,
        // a per-key lookup into each unretired batch's reservation index.
        let mut pipeline_violations = Vec::new();
        for entry in entries.iter().filter(|e| e.committed) {
            for &(key, my_mask) in entry.keys {
                for (&other_batch, held) in &cert.inflight {
                    let Some(holders) = held.get(&key) else {
                        continue;
                    };
                    for &(mask, other_call) in holders {
                        if cert_conflict(mask, my_mask) {
                            pipeline_violations.push(CertifierViolation {
                                batch: batch_no,
                                key,
                                kind: CertViolationKind::Pipeline { other_batch },
                                call: (entry.call_id, entry.keys.to_vec()),
                                other: (other_call, vec![(key, mask)]),
                            });
                        }
                    }
                }
            }
        }
        for v in pipeline_violations {
            cert.push_violation(v);
        }

        // (3) Arrival order: a committed call must not overtake an
        // earlier-arrived conflicting call that is still deferred. Guarded
        // on the pending set being non-empty: in a clean run deferrals are
        // rare, and hashing every committed key against an empty map is
        // pure overhead.
        let mut order_violations = Vec::new();
        for entry in entries.iter().filter(|e| cert.has_pending() && e.committed) {
            for &(key, mask) in entry.keys {
                if let Some(waiters) = cert.pending.get(&key) {
                    for &(pending_id, pending_mask) in waiters {
                        if pending_id < entry.call_id && cert_conflict(mask, pending_mask) {
                            let footprint = cert
                                .pending_footprints
                                .get(&pending_id)
                                .cloned()
                                .unwrap_or_default();
                            order_violations.push(CertifierViolation {
                                batch: batch_no,
                                key,
                                kind: CertViolationKind::ArrivalOrder,
                                call: (entry.call_id, entry.keys.to_vec()),
                                other: (pending_id, footprint),
                            });
                        }
                    }
                }
            }
        }
        for v in order_violations {
            cert.push_violation(v);
        }

        // (4) Update certifier state: committed calls leave the pending
        // set, deferred calls (re-)enter it, and the batch's committed
        // footprints become the new in-flight reservations.
        let mut committed_keys: FastMap<CertKey, Vec<(u8, u64)>> = FastMap::default();
        for entry in entries {
            if entry.committed {
                if cert.has_pending() {
                    for &(key, _) in entry.keys {
                        if let Some(waiters) = cert.pending.get_mut(&key) {
                            waiters.retain(|(id, _)| *id != entry.call_id);
                            if waiters.is_empty() {
                                cert.pending.remove(&key);
                            }
                        }
                    }
                    cert.pending_footprints.remove(&entry.call_id);
                }
                for &(key, mask) in entry.keys {
                    committed_keys
                        .entry(key)
                        .or_default()
                        .push((mask, entry.call_id));
                }
            } else {
                for &(key, mask) in entry.keys {
                    let waiters = cert.pending.entry(key).or_default();
                    if !waiters.iter().any(|(id, _)| *id == entry.call_id) {
                        waiters.push((entry.call_id, mask));
                    }
                }
                cert.pending_footprints
                    .entry(entry.call_id)
                    .or_insert_with(|| entry.keys.to_vec());
            }
        }
        cert.inflight.insert(batch_no, committed_keys);
    }

    /// Observe a batch retiring: its calls answered, its reservations
    /// released — it no longer constrains later batches.
    pub fn certify_retire(&self, batch_no: u64) {
        self.cert.lock().inflight.remove(&batch_no);
    }

    /// Observe a recovery rollback: dispatched-but-unretired batches belong
    /// to the failed timeline and their calls will replay with the same
    /// ids, so the certifier forgets everything not yet retired.
    pub fn certify_rollback(&self) {
        let mut cert = self.cert.lock();
        cert.inflight.clear();
        cert.pending.clear();
        cert.pending_footprints.clear();
    }

    // -- results -------------------------------------------------------------

    /// Detected races, capped at [`DIAGNOSTIC_CAP`] (see
    /// [`MonitorStats::races`] for the total).
    pub fn races(&self) -> Vec<RaceDiagnostic> {
        self.races.lock().clone()
    }

    /// Certifier violations, capped at [`DIAGNOSTIC_CAP`].
    pub fn certifier_violations(&self) -> Vec<CertifierViolation> {
        self.cert.lock().violations.clone()
    }

    /// No races, no certifier violations.
    pub fn is_clean(&self) -> bool {
        self.races_total.load(Ordering::SeqCst) == 0 && self.cert.lock().violations_total == 0
    }

    /// Aggregate counters.
    pub fn stats(&self) -> MonitorStats {
        let cert = self.cert.lock();
        MonitorStats {
            accesses: self.accesses.load(Ordering::SeqCst),
            stamps: self.stamps.load(Ordering::SeqCst),
            joins: self.joins.load(Ordering::SeqCst),
            races: self.races_total.load(Ordering::SeqCst),
            violations: cert.violations_total,
            batches_certified: cert.batches_certified,
            calls_certified: cert.calls_certified,
        }
    }

    /// A human-readable summary of everything detected (empty-run friendly:
    /// says "clean" when nothing was).
    pub fn report(&self) -> String {
        let stats = self.stats();
        let mut out = format!(
            "monitor: {} accesses, {} stamps, {} joins, {} batches certified",
            stats.accesses, stats.stamps, stats.joins, stats.batches_certified
        );
        if self.is_clean() {
            out.push_str(" — clean");
            return out;
        }
        for race in self.races() {
            out.push_str("\n  race: ");
            out.push_str(&race.to_string());
        }
        for violation in self.certifier_violations() {
            out.push_str("\n  certifier: ");
            out.push_str(&violation.to_string());
        }
        out
    }
}

fn resource_shard(resource: &Resource) -> usize {
    match resource {
        Resource::Partition(p) => p % RESOURCE_SHARDS,
        Resource::PartitionCut { partition, .. } => (partition + 3) % RESOURCE_SHARDS,
        Resource::SnapshotStore => 7,
        Resource::LogGroup(end) => (*end as usize) % RESOURCE_SHARDS,
    }
}

// ---------------------------------------------------------------------------
// Seeded schedule exploration
// ---------------------------------------------------------------------------

/// A deterministic interleaving perturbation: bounded delays on channel
/// deliveries and barrier acks, plus legal permutations of fan-out order.
/// Rides the same config-level injection plumbing as `FailurePlan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePlan {
    /// Seed for every per-role decision stream.
    pub seed: u64,
    /// Upper bound for injected delays, in microseconds (kept small: the
    /// point is to shuffle interleavings, not to slow the run down).
    pub max_delay_us: u32,
}

impl SchedulePlan {
    /// A plan with the default delay bound.
    pub fn seeded(seed: u64) -> Self {
        SchedulePlan {
            seed,
            max_delay_us: 20,
        }
    }
}

/// Perturbation sites, mixed into the decision stream so the same seed
/// produces different (but deterministic per `(seed, role, site,
/// sequence)`) choices at each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSite {
    /// Before a cross-shard / dispatch channel send.
    ChannelSend,
    /// Before a barrier ack.
    BarrierAck,
    /// Permuting a fan-out order (dispatch destinations, flush buffers).
    FanOut,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One role's deterministic decision stream over a [`SchedulePlan`]. Each
/// role derives its own stream from `(seed, role)`, so decisions are
/// reproducible per role regardless of cross-thread timing.
#[derive(Debug, Clone)]
pub struct ScheduleRng {
    state: u64,
    max_delay_us: u32,
}

impl ScheduleRng {
    /// The decision stream for `role` under `plan`.
    pub fn new(plan: &SchedulePlan, role: u32) -> Self {
        ScheduleRng {
            state: splitmix64(plan.seed ^ ((role as u64) << 32)),
            max_delay_us: plan.max_delay_us,
        }
    }

    fn next(&mut self, site: ScheduleSite) -> u64 {
        let tag = match site {
            ScheduleSite::ChannelSend => 0x11,
            ScheduleSite::BarrierAck => 0x22,
            ScheduleSite::FanOut => 0x33,
        };
        self.state = splitmix64(self.state ^ tag);
        self.state
    }

    /// The injected delay for one event at `site`: `None` (most of the
    /// time) or a bounded duration. Delays only — a message is never
    /// reordered within its channel, preserving the per-sender FIFO order
    /// the happens-before model relies on.
    pub fn delay(&mut self, site: ScheduleSite) -> Option<Duration> {
        let r = self.next(site);
        if !r.is_multiple_of(4) || self.max_delay_us == 0 {
            return None;
        }
        let us = (r >> 8) % (self.max_delay_us as u64) + 1;
        Some(Duration::from_micros(us))
    }

    /// Sleep the injected delay for `site`, if one fires.
    pub fn pause(&mut self, site: ScheduleSite) {
        if let Some(d) = self.delay(site) {
            std::thread::sleep(d);
        } else if self.next(site).is_multiple_of(8) {
            std::thread::yield_now();
        }
    }

    /// Deterministic Fisher–Yates permutation of a fan-out order. Legal
    /// because the engine's correctness never depends on the relative order
    /// of *different* destinations' sends — only on per-channel FIFO, which
    /// a permutation across channels cannot disturb.
    pub fn permute<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next(ScheduleSite::FanOut) % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded defect injection (test-only, proves the detector)
// ---------------------------------------------------------------------------

/// Deliberate defects that must trip their specific diagnostic — the
/// detector's own proof harness, mirroring PR 9's IR mutation matrix. Inert
/// by default; production code never arms one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefectPlan {
    /// Drop the happens-before stamp from every barrier ack: the
    /// coordinator then absorbs snapshot bytes without ever having joined
    /// the capture's clock, and the monitor must flag an unordered
    /// [`Resource::PartitionCut`] read naming the partition.
    pub drop_barrier_ack_stamp: bool,
    /// In the named batch (1-based dispatch ordinal), flip the first
    /// deferred call to committed — dispatching a genuinely conflicting
    /// pair. The certifier must flag an intra-batch conflict naming the
    /// batch and the `(class, key)` pair.
    pub mis_mask_batch: Option<u64>,
    /// Drop the happens-before stamp from every durable-writer notice: the
    /// coordinator then admits records for dispatch without having joined
    /// the writer's post-fsync clock, and the monitor must flag an
    /// unordered [`Resource::LogGroup`] read.
    pub drop_durable_notice_stamp: bool,
}

impl DefectPlan {
    /// Whether any defect is armed.
    pub fn armed(&self) -> bool {
        self.drop_barrier_ack_stamp
            || self.mis_mask_batch.is_some()
            || self.drop_durable_notice_stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn clock_of(pairs: &[(u32, u64)]) -> VectorClock {
        let mut c = VectorClock::new();
        for &(role, n) in pairs {
            for _ in 0..n {
                c.tick(role);
            }
        }
        c
    }

    #[test]
    fn tick_and_get() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(3), 0);
        assert_eq!(c.tick(3), 1);
        assert_eq!(c.tick(3), 2);
        assert_eq!(c.get(3), 2);
    }

    #[test]
    fn ordered_accesses_are_clean() {
        let m = Monitor::new();
        // Worker 1 writes, stamps; coordinator joins, reads: ordered.
        m.access(1, Resource::Partition(0), AccessKind::Write, "worker write");
        let stamp = m.stamp(1);
        m.join(0, &stamp);
        m.access(0, Resource::Partition(0), AccessKind::Read, "coord read");
        assert!(m.is_clean(), "{}", m.report());
    }

    #[test]
    fn unordered_read_after_write_is_flagged() {
        let m = Monitor::new();
        m.access(1, Resource::Partition(0), AccessKind::Write, "worker write");
        // No stamp joined: the coordinator's read is concurrent.
        m.access(0, Resource::Partition(0), AccessKind::Read, "coord read");
        let races = m.races();
        assert_eq!(races.len(), 1, "{}", m.report());
        assert_eq!(races[0].kind, "write-read");
        assert_eq!(races[0].resource, Resource::Partition(0));
        assert_eq!(races[0].prior.role, 1);
        assert_eq!(races[0].current.role, 0);
    }

    #[test]
    fn unordered_write_after_read_is_flagged() {
        let m = Monitor::new();
        m.access(0, Resource::Partition(2), AccessKind::Read, "coord read");
        m.access(1, Resource::Partition(2), AccessKind::Write, "worker write");
        let races = m.races();
        assert_eq!(races.len(), 1, "{}", m.report());
        assert_eq!(races[0].kind, "read-write");
    }

    #[test]
    fn same_role_never_races_with_itself() {
        let m = Monitor::new();
        for _ in 0..10 {
            m.access(1, Resource::Partition(0), AccessKind::Write, "w");
            m.access(1, Resource::Partition(0), AccessKind::Read, "r");
        }
        assert!(m.is_clean());
    }

    #[test]
    fn cut_epochs_are_distinct_resources() {
        let m = Monitor::new();
        // Worker writes the epoch-2 cut *after* the coordinator joined only
        // the epoch-1 ack; reading the epoch-1 cut must stay clean.
        m.access(
            1,
            Resource::PartitionCut {
                partition: 0,
                epoch: 1,
            },
            AccessKind::Write,
            "capture e1",
        );
        let ack1 = m.stamp(1);
        m.join(0, &ack1);
        m.access(
            1,
            Resource::PartitionCut {
                partition: 0,
                epoch: 2,
            },
            AccessKind::Write,
            "capture e2",
        );
        m.access(
            0,
            Resource::PartitionCut {
                partition: 0,
                epoch: 1,
            },
            AccessKind::Read,
            "absorb e1 bytes",
        );
        assert!(m.is_clean(), "{}", m.report());
        // But reading the epoch-2 cut without its ack is a race.
        m.access(
            0,
            Resource::PartitionCut {
                partition: 0,
                epoch: 2,
            },
            AccessKind::Read,
            "absorb e2 bytes",
        );
        assert!(!m.is_clean());
    }

    #[test]
    fn channel_edges_order_offset_addressed_records() {
        let m = Monitor::new();
        m.bind_current_thread(5);
        m.access(5, Resource::Partition(1), AccessKind::Write, "producer");
        m.channel_send(EDGE_MQ, 1, 42);
        // Same thread re-bound as a different role models the consumer.
        m.bind_current_thread(6);
        m.channel_recv(EDGE_MQ, 1, 42);
        m.access(6, Resource::Partition(1), AccessKind::Read, "consumer");
        assert!(m.is_clean(), "{}", m.report());
    }

    #[test]
    fn certifier_accepts_conflict_free_batches() {
        let m = Monitor::new();
        m.certify_batch(
            1,
            &[
                CertEntry {
                    call_id: 0,
                    committed: true,
                    keys: vec![((1, 10), CERT_WRITE)],
                },
                CertEntry {
                    call_id: 1,
                    committed: true,
                    keys: vec![((1, 11), CERT_WRITE)],
                },
                CertEntry {
                    call_id: 2,
                    committed: true,
                    keys: vec![((1, 10), CERT_READ)],
                },
            ],
        );
        // Call 2 reads key 10 which call 0 writes — that IS a conflict.
        assert_eq!(m.certifier_violations().len(), 1);
        let m = Monitor::new();
        m.certify_batch(
            1,
            &[
                CertEntry {
                    call_id: 0,
                    committed: true,
                    keys: vec![((1, 10), CERT_READ)],
                },
                CertEntry {
                    call_id: 1,
                    committed: true,
                    keys: vec![((1, 10), CERT_READ)],
                },
                CertEntry {
                    call_id: 2,
                    committed: true,
                    keys: vec![((1, 11), CERT_COMM)],
                },
                CertEntry {
                    call_id: 3,
                    committed: true,
                    keys: vec![((1, 11), CERT_COMM)],
                },
            ],
        );
        assert!(m.is_clean(), "{}", m.report());
    }

    #[test]
    fn certifier_flags_committed_conflict_pair() {
        let m = Monitor::new();
        m.certify_batch(
            3,
            &[
                CertEntry {
                    call_id: 7,
                    committed: true,
                    keys: vec![((2, 99), CERT_WRITE)],
                },
                CertEntry {
                    call_id: 8,
                    committed: true,
                    keys: vec![((2, 99), CERT_WRITE)],
                },
            ],
        );
        let violations = m.certifier_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].batch, 3);
        assert_eq!(violations[0].key, (2, 99));
        assert_eq!(violations[0].kind, CertViolationKind::IntraBatch);
    }

    #[test]
    fn certifier_flags_pipeline_conflict_until_retire() {
        let m = Monitor::new();
        m.certify_batch(
            1,
            &[CertEntry {
                call_id: 0,
                committed: true,
                keys: vec![((1, 5), CERT_WRITE)],
            }],
        );
        m.certify_batch(
            2,
            &[CertEntry {
                call_id: 1,
                committed: true,
                keys: vec![((1, 5), CERT_WRITE)],
            }],
        );
        assert_eq!(m.certifier_violations().len(), 1);
        assert!(matches!(
            m.certifier_violations()[0].kind,
            CertViolationKind::Pipeline { other_batch: 1 }
        ));
        let m = Monitor::new();
        m.certify_batch(
            1,
            &[CertEntry {
                call_id: 0,
                committed: true,
                keys: vec![((1, 5), CERT_WRITE)],
            }],
        );
        m.certify_retire(1);
        m.certify_batch(
            2,
            &[CertEntry {
                call_id: 1,
                committed: true,
                keys: vec![((1, 5), CERT_WRITE)],
            }],
        );
        assert!(m.is_clean(), "{}", m.report());
    }

    #[test]
    fn certifier_flags_overtaken_arrival() {
        let m = Monitor::new();
        // Call 0 deferred on key 5; call 1 commits on key 5 in the next
        // batch while 0 is still pending: commit order ≠ arrival order.
        m.certify_batch(
            1,
            &[CertEntry {
                call_id: 0,
                committed: false,
                keys: vec![((1, 5), CERT_WRITE)],
            }],
        );
        m.certify_retire(1);
        m.certify_batch(
            2,
            &[CertEntry {
                call_id: 1,
                committed: true,
                keys: vec![((1, 5), CERT_WRITE)],
            }],
        );
        let violations = m.certifier_violations();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == CertViolationKind::ArrivalOrder
                    && v.call.0 == 1
                    && v.other.0 == 0),
            "{}",
            m.report()
        );
    }

    #[test]
    fn certifier_rollback_forgets_unretired_state() {
        let m = Monitor::new();
        m.certify_batch(
            1,
            &[CertEntry {
                call_id: 0,
                committed: false,
                keys: vec![((1, 5), CERT_WRITE)],
            }],
        );
        m.certify_rollback();
        // The replayed timeline commits call 1 first — no stale pending
        // entry may flag it.
        m.certify_batch(
            1,
            &[CertEntry {
                call_id: 1,
                committed: true,
                keys: vec![((1, 5), CERT_WRITE)],
            }],
        );
        assert!(m.is_clean(), "{}", m.report());
    }

    #[test]
    fn schedule_rng_is_deterministic_per_role() {
        let plan = SchedulePlan::seeded(0xBEEF);
        let mut a = ScheduleRng::new(&plan, 1);
        let mut b = ScheduleRng::new(&plan, 1);
        let seq_a: Vec<_> = (0..16)
            .map(|_| a.delay(ScheduleSite::ChannelSend))
            .collect();
        let seq_b: Vec<_> = (0..16)
            .map(|_| b.delay(ScheduleSite::ChannelSend))
            .collect();
        assert_eq!(seq_a, seq_b);
        let mut c = ScheduleRng::new(&plan, 2);
        let seq_c: Vec<_> = (0..16)
            .map(|_| c.delay(ScheduleSite::ChannelSend))
            .collect();
        assert_ne!(seq_a, seq_c, "distinct roles draw distinct streams");
    }

    #[test]
    fn schedule_delays_stay_bounded() {
        let plan = SchedulePlan {
            seed: 7,
            max_delay_us: 5,
        };
        let mut rng = ScheduleRng::new(&plan, 0);
        for _ in 0..256 {
            if let Some(d) = rng.delay(ScheduleSite::BarrierAck) {
                assert!(d <= Duration::from_micros(5));
                assert!(d >= Duration::from_micros(1));
            }
        }
    }

    #[test]
    fn permute_is_a_permutation() {
        let plan = SchedulePlan::seeded(3);
        let mut rng = ScheduleRng::new(&plan, 0);
        let mut items: Vec<u32> = (0..10).collect();
        rng.permute(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    /// Strategy pieces for the lattice properties: clocks over 6 roles with
    /// small components.
    fn clock_strategy() -> impl Strategy<Value = VectorClock> {
        prop::collection::vec((0u32..6, 0u64..20), 0..6).prop_map(|pairs| clock_of(&pairs))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn join_is_associative_and_commutative(
            a in clock_strategy(),
            b in clock_strategy(),
            c in clock_strategy(),
        ) {
            let mut ab_c = a.clone();
            ab_c.join(&b);
            ab_c.join(&c);
            let mut bc = b.clone();
            bc.join(&c);
            let mut a_bc = a.clone();
            a_bc.join(&bc);
            prop_assert_eq!(&ab_c, &a_bc);
            let mut ba = b.clone();
            ba.join(&a);
            let mut ab = a.clone();
            ab.join(&b);
            prop_assert_eq!(&ab, &ba);
        }

        #[test]
        fn join_is_monotone_upper_bound(a in clock_strategy(), b in clock_strategy()) {
            let mut joined = a.clone();
            joined.join(&b);
            prop_assert!(a.leq(&joined), "a ⊑ a⊔b");
            prop_assert!(b.leq(&joined), "b ⊑ a⊔b");
            // Idempotence: joining again changes nothing.
            let mut twice = joined.clone();
            twice.join(&b);
            prop_assert_eq!(&twice, &joined);
        }

        #[test]
        fn happens_before_is_transitive(
            a in clock_strategy(),
            b in clock_strategy(),
            c in clock_strategy(),
        ) {
            if a.leq(&b) && b.leq(&c) {
                prop_assert!(a.leq(&c));
            }
            // Ticks strictly advance: a ⊑ a.tick and never the reverse.
            let mut ticked = a.clone();
            ticked.tick(0);
            prop_assert!(a.leq(&ticked));
            prop_assert!(!ticked.leq(&a));
        }
    }
}
