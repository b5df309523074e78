//! # shard-runtime
//!
//! A **real multi-threaded sharded execution engine** for compiled entity
//! programs — the step from the virtual-time simulations (`stateflow-runtime`)
//! to the production shape the paper describes: partitioned operators, each
//! owning its slice of state, exchanging id-addressed events, with
//! epoch-aligned consistent snapshots and replay-based exactly-once recovery.
//!
//! ## Threading model
//!
//! A deployment is `N` **shard threads** plus the calling thread acting as
//! **coordinator** (ingress, transaction sequencing, egress, snapshot store),
//! and on a durable runtime one **durable writer** thread that does the
//! run's disk I/O (see *Durable tier* below):
//!
//! * Shard `s` exclusively owns one [`PartitionState`] — every entity whose
//!   address routes to it under the [`ShardMap`] (a modulo on the cached
//!   64-bit key hash; **no key bytes are touched on the routing path**).
//!   There is no shared mutable state between shards: all communication is
//!   message passing over `mpsc` channels.
//! * The coordinator reads client requests from a partitioned, replayable
//!   ingress log (`mq`), merges the per-partition streams by call id into the
//!   global arrival order, and cuts **deterministic transaction batches**
//!   across shards. Each batch runs the *order-preserving* Aria commit rule
//!   (`txn::execute_batch_ordered` is the reference implementation; the
//!   coordinator runs [`ordered_commit_mask`], an allocation-lean
//!   specialization over two-kind footprints that is property-tested
//!   against it): the committed subset of a batch is pairwise conflict-free,
//!   so its calls execute on the shard threads **in parallel, in any
//!   interleaving, with a schedule-independent outcome**; conflicting calls
//!   are deferred to the front of the next batch. Commit order equals
//!   arrival order for every conflicting pair, which makes the whole engine
//!   bit-for-bit equivalent to the single-threaded `LocalRuntime` oracle —
//!   the property `tests/shard_equivalence.rs` pins.
//!
//! ## Precise footprints (the Read / CommWrite / Write lattice)
//!
//! A call's static footprint is its target address plus every entity
//! reference among its arguments. Since PR 4 each footprint key carries a
//! **kind** derived from the compile-time effect analysis
//! (`stateful_entities::effects`); PR 7 widened the kind from one bit to a
//! three-point access lattice:
//!
//! * **Read** — the chain provably never writes the key. The target key is
//!   a read iff the method's `writes_self` bit is clear; an argument
//!   reference is a read iff the **per-parameter** write mask
//!   (`CompiledMethod::param_effects`, the alias-propagated per-formal
//!   analysis) clears its position.
//! * **CommWrite** — the target key of a *simple commutative* method (an
//!   unguarded `self.f += arg` counter update, detected by the effect
//!   analysis). Two commutative writers of one key commit in one batch
//!   like a read-read pair: the committed calls of a batch dispatch to the
//!   key's owning shard over a single FIFO channel in batch order, so they
//!   apply in arrival order and the final state (and each call's return
//!   value) is oracle-identical.
//! * **Write** — everything else.
//!
//! Two kinds are compatible only when both are Read or both are CommWrite;
//! any other pair on a shared key defers the later call into arrival
//! order. So a hot-key read storm *or increment storm* commits in a single
//! batch, while every mixed pair keeps the PR 4 semantics.
//!
//! Two more PR 7 levers ride on the same analysis: workers execute with
//! compile-time **frame liveness** pruning (dead locals are dropped from a
//! continuation frame before it ships cross-shard; `ShardReport::
//! hop_frame_bytes` measures what still ships), and the coordinator applies
//! an **adaptive footprint fallback**: a call deferred
//! `ShardConfig::adaptive_fallback_after` consecutive times drains the
//! pipeline and dispatches alone — a solo batch commits unconditionally —
//! bounding the starvation a precision misprediction can cause
//! (`ShardReport::adaptive_fallbacks` counts the escapes).
//!
//! ## Pipelined batches
//!
//! The coordinator no longer takes a full barrier per batch. Dispatching
//! batch `k+1` only requires its commit decision, and that decision is a
//! pure function of the batch contents plus the **reservations still held
//! by the in-flight batch `k`** — so the mask is seeded with `k`'s
//! committed footprints, calls that conflict with `k` are deferred (which
//! keeps commit order equal to arrival order, exactly as if they had
//! conflicted intra-batch), and the non-conflicting remainder is dispatched
//! immediately, *before* `k`'s responses have been collected. The pipeline
//! has depth 2: after dispatching `k+1` the coordinator retires `k`
//! (collects its responses), promotes `k+1` to in-flight, and proceeds.
//! Every dispatch decision stays deterministic — nothing depends on which
//! responses happen to have arrived. The pipeline drains (a real barrier
//! survives) in exactly three places: at epoch barriers (the snapshot cut
//! needs quiescence), before a crash-recovery rollback, and at the end of
//! the run.
//! * A multi-hop call (a split method calling another entity) travels
//!   shard-to-shard: the interpreter returns a
//!   [`stateful_entities::StepOutcome::Call`] continuation, and the worker
//!   routes the resulting `Invoke`/`Resume` event to the owning shard by
//!   cached-hash modulo.
//!
//! ## Batching invariants (cross-shard mailboxes)
//!
//! Workers never send one channel message per event. Outgoing events are
//! buffered per `(destination shard, ClassId)` and **drained-and-sent as
//! vectors** when the worker has exhausted its runnable work (incoming batch
//! plus the local follow-up queue). Responses to the coordinator are batched
//! the same way. The invariants:
//!
//! * events for the same `(shard, class)` pair preserve their enqueue order;
//! * a worker flushes before it blocks — no event can be stranded in a
//!   buffer while its destination sits idle;
//! * self-routed events never enter a mailbox (they go to the local queue).
//!
//! ## Barrier protocol (capture, async seal, recovery)
//!
//! Every `epoch_every_batches` batches the coordinator drains the pipeline
//! and the deferral queue (so the cut is transaction-aligned), then
//! broadcasts an **epoch barrier** to all shards. Since PR 5 the barrier's
//! critical path is the **capture walk only**: each shard moves its (dirty)
//! entities' current values into a copy-on-write [`SnapshotCapture`]
//! (`Arc`-shared values make this a refcount walk, not a deep copy), acks
//! immediately, and resumes executing batches. A capture is a
//! **dirty-entity delta**, or a **full** one for every partition once some
//! partition's delta chain has cost as many bytes as its last full anchor —
//! the rent-or-buy rule of the `rebase` module, with no knob; the barrier
//! after a rollback is always full. The
//! exact-size encoder runs in the **background**, interleaved with batch
//! processing on the shard thread (whenever the inbox is empty), and the
//! bytes ship to the coordinator asynchronously.
//!
//! The **sealed-epoch invariant**: an epoch becomes a recovery point only
//! when *every* shard's bytes have arrived (and every older epoch sealed) —
//! until then it is *pending* and recovery ignores it entirely. Ingress
//! offsets commit at seal time, never at the cut: a crash in the
//! capture→encode window (injectable via [`FailureMode::MidEncode`]) rolls
//! back to the last sealed epoch and replays the pending epoch's requests —
//! nothing lost, nothing double-applied. The coordinator absorbs byte
//! arrivals in **three drain points**: the response-collection loop (the
//! common case — sealing steals no dedicated wait), the barrier ack loop,
//! and a final drain after the last batch (the run is not durable until
//! every announced epoch seals). The store keeps each partition's recovery
//! chain at *one full plus at most one merged delta* by folding each newly
//! sealed delta into a **decoded** per-partition merge —
//! O(that epoch's dirty set) per epoch, no re-encode of the accumulated
//! delta (see `SnapshotStore::new_amortized`).
//!
//! On failure (see [`FailurePlan`]) the engine performs global rollback:
//! every shard's volatile state is discarded and rebuilt with
//! [`SnapshotStore::reconstruct`] at the latest **sealed** epoch, stale
//! snapshots after it — pending arrivals included — are truncated, the
//! ingress cursors rewind to the recorded offsets, and processing replays.
//! Messages are tagged with an **incarnation** number so anything still in
//! flight from the failed timeline (un-encoded captures included) is dropped
//! on receipt. The egress deduplicates by call id across the failure, so
//! clients observe every response exactly once — `tests/shard_recovery.rs`
//! asserts this across randomized injection points.
//! Recovery itself never panics: a corrupt chain surfaces as
//! [`ShardError::CorruptSnapshot`], missing chain data as
//! [`ShardError::IncompleteEpoch`].
//!
//! ## Worker liveness ([`ShardError`])
//!
//! A shard thread that **panics** is caught, surfaced as a `WorkerDied`
//! message, and turned into [`ShardError::WorkerPanicked`]. A shard thread
//! that simply *disappears* — exits its loop without managing to deliver the
//! death notice (e.g. the notice send itself fails mid-panic) — used to turn
//! into an unhelpful coordinator panic (or hang) on channel disconnect.
//! The coordinator's receive loops now probe worker liveness whenever the
//! channel goes quiet and surface the dead shard as
//! [`ShardError::Disconnected`] with its id; [`ShardRuntime::run`] returns
//! `Result` accordingly. [`FailureMode::WorkerExit`] injects exactly this
//! silent-exit fault for tests. A worker handed an event it cannot route
//! (no target address, or a [`ShardMap`] destination outside its peer
//! table) likewise no longer panics its thread: it reports the offending
//! event and the coordinator surfaces [`ShardError::Misrouted`] carrying
//! the address.
//!
//! ## Durable tier (cold-process restart)
//!
//! With [`ShardConfig::durable`] set, the in-memory recovery story above is
//! backed by disk (`durable-log`): the directory alone is enough to boot a
//! brand-new process and continue bit-for-bit.
//!
//! * **Ingress** — [`ShardRuntime::try_submit`] appends the call to a
//!   segmented, per-record-checksummed on-disk log *before* it enters the
//!   in-memory broker; the two number offsets identically (`key %
//!   partitions` routing on both sides). Every run fsyncs the log before
//!   dispatching anything. While serving, the coordinator hands each
//!   admission pump's records to the **durable writer** as one group and
//!   admits them to the broker only when the writer's group commit (one
//!   fsync per partition, however many groups queued during the previous
//!   one) covers them — so every record a worker ever sees is durable, and
//!   the coordinator never waits on the disk after the baseline.
//! * **Snapshots** — epoch offsets commit to disk **at seal, never at the
//!   cut**: when an epoch seals in memory, the coordinator queues a seal job
//!   on the durable writer, which uploads its recovery chain (full anchor +
//!   raw deltas, plus the amortized merged delta) as checksummed files and
//!   commits a manifest naming them — with the sealed epoch and the
//!   per-partition ingress offsets — atomically
//!   (write-temp → fsync → rename → dir fsync). Jobs reach disk in seal
//!   order, and a run returns only after the writer finished its last one. Snapshot files are
//!   namespaced by a **run generation** so a new run's baseline can never
//!   overwrite files the previous manifest still references. After the
//!   manifest lands, unreferenced files are GC'd and the ingress log is
//!   truncated below the sealed offsets.
//! * **Cold restart** — [`ShardRuntime::new_durable`] boots from the
//!   directory alone: load the manifest (none ⇒ fresh deployment), rebuild
//!   the snapshot chain from the named files, reconstruct every partition at
//!   the sealed epoch, open the log trimming any torn tail past the sealed
//!   offsets, replay the surviving records into the broker (offset-for-
//!   offset), and resume the call-id sequence past the highest replayed id.
//!   Replayed calls re-answer deterministically; the client unions the
//!   crashed run's [`ShardRuntime::partial_egress`] with the replay's
//!   responses, deduplicating by call id, to observe exactly-once delivery
//!   across the process death.
//! * **Failure semantics** — a durable-tier error (I/O, checksum, or an
//!   armed [`durable_log::FaultInjector`] crash point), on the coordinator
//!   or on the durable writer, models the process
//!   itself dying: the run aborts with [`ShardError::Durable`] instead of
//!   attempting in-run rollback, and recovery is the cold restart above.
//!   Every corruption is a typed error naming the segment/offset/epoch —
//!   never a panic, never silent loss.
//! * **Capture spilling** — a shard that falls behind background encoding
//!   does not hold unbounded un-encoded captures: past
//!   [`ShardConfig::max_pending_captures`] the oldest pending capture is
//!   encoded early and spilled to a checksummed blob on disk, read back (and
//!   verified) when its turn to ship comes.
//!
//! ## Concurrency model: the monitored catalog (PR 10)
//!
//! With `ShardConfig::monitor` armed ([`racecheck::Monitor`]) the engine
//! declares its entire concurrency structure to the certifier; disarmed
//! (`None`, the default) every hook is an `Option` check that never takes
//! the branch. This section is the catalog the detector's soundness rests
//! on — every thread, every channel, every happens-before edge, and which
//! detector layer consumes each.
//!
//! **Threads (monitor roles).** The coordinator is role
//! `COORDINATOR_ROLE = 0` (the thread that calls [`ShardRuntime::run`]).
//! Shard worker `s` is role `1 + s` (`shard_role`), *stable across
//! respawns*: a worker respawned after crash recovery re-binds the same
//! role and joins the coordinator's reset stamp, ordering the new thread
//! after everything its predecessor did. Service-tier client threads
//! ([`service::ClientSession`]) self-register dynamic roles at
//! [`racecheck::DYNAMIC_ROLE_BASE`] and up on their first stamp. The
//! durable writer is role `DYNAMIC_ROLE_BASE - 1` (`WRITER_ROLE`).
//!
//! **Channels and their happens-before edges** (every edge is a stamp
//! taken by the sender and joined by the receiver; layer 1, the race
//! detector, consumes all of them):
//!
//! * *spawn edge* — the coordinator stamps before `thread::spawn`; the
//!   worker joins it as its first act, ordering worker startup after all
//!   coordinator-side setup (partition construction included).
//! * *ingress log* (`mq`) — every produced record carries a stamp keyed by
//!   `(topic, partition, offset)` in the `EDGE_MQ` domain; every consumer
//!   read joins it, **including offset-addressed re-reads during replay**
//!   (the replayed record joins the original producer's stamp, which is
//!   exactly the paper's replay semantics: the new timeline inherits the
//!   old one's ordering).
//! * *dispatch* (coordinator → worker) — each per-shard event batch
//!   carries the coordinator's stamp; the worker joins on receipt. Epoch
//!   barriers, rollback/reset, and shutdown messages are stamped the same
//!   way.
//! * *cross-shard mailboxes* (worker → worker) — each drained
//!   `(shard, class)` vector carries the sending worker's stamp; the
//!   receiving worker joins before applying any event in it.
//! * *responses and barrier acks* (worker → coordinator) — response
//!   batches and barrier acks are stamped by the worker and joined by the
//!   coordinator's collection loops. The barrier-ack stamp is the edge
//!   that makes reading a [`racecheck::Resource::PartitionCut`] sound
//!   (see below); dropping exactly this stamp is the seeded defect
//!   `DefectPlan::drop_barrier_ack_stamp` and must trip the detector.
//! * *snapshot-byte arrival* (worker → coordinator, async) — the encoded
//!   epoch bytes carry the encoding worker's stamp, joined at each of the
//!   coordinator's three drain points before the store mutation.
//! * *service tier* (session ↔ coordinator) — a session stamps its clock
//!   while holding the ingress-queue lock (the one compound lock edge in
//!   the service tier, see `service`'s lock-order catalog); the
//!   coordinator stamps each response and the session joins on delivery.
//! * *durable hand-off* (coordinator → writer) — every log group and seal
//!   job carries the coordinator's stamp; the writer joins it before it
//!   touches the files for that job.
//! * *durable notice* (writer → coordinator) — each group-commit notice
//!   carries the writer's stamp, taken after the fsync; the coordinator
//!   joins it before it admits the covered records for dispatch. Dropping
//!   exactly this stamp is the seeded defect
//!   `DefectPlan::drop_durable_notice_stamp` and must trip the detector.
//!
//! **Monitored resources** (layer 1 checks every access FastTrack-style):
//! [`racecheck::Resource::Partition`] — every worker read/write of its
//! partition state while applying events; [`racecheck::Resource::
//! PartitionCut`] — written by the worker at the capture walk (keyed per
//! epoch), read by the coordinator when that epoch's bytes arrive;
//! [`racecheck::Resource::SnapshotStore`] — every coordinator-side store
//! mutation (a single-writer tripwire); [`racecheck::Resource::LogGroup`] —
//! one per admission group, written by the coordinator at the hand-off and
//! by the writer after the fsync covering it; the last group a notice
//! covers is read by the coordinator when it admits the records (so both
//! durable edges are load-bearing). The detector uses an
//! *access-elision window*: between two clock edges a role's
//! happens-before relation to every other role is constant, so repeated
//! same-role accesses to the same resource are race-equivalent to the
//! window's first and skip the full check (stamps and joins clear the
//! window). That is what keeps the armed engine within the overhead budget
//! at batch 512 — roughly one full check per mailbox drain.
//!
//! **Commit-order feed** (layer 2, the certifier): after every commit
//! decision the coordinator feeds the whole batch — committed and deferred
//! alike, with footprints — to `certify_batch_by_ref`; batch retirement
//! calls `certify_retire` (releasing its reservations) and crash recovery
//! calls `certify_rollback` (the failed timeline's unretired batches will
//! replay under the same call ids). The certifier independently re-derives
//! the order-preserving rule from the footprint lattice; the engine's
//! `ordered_commit_mask` is never trusted as its own witness.
//!
//! **Schedule perturbation** (layer 3): `ShardConfig::schedule` permutes
//! only *legal* nondeterminism — dispatch fan-out order across shards and
//! mailbox flush order across destinations, plus bounded artificial
//! delays. It never reorders events within one channel: per-sender FIFO is
//! a semantic assumption of both the engine and the happens-before model.
//!
//! **Deliberately unmonitored.** The `mpsc` channels themselves (they are
//! the substrate the stamps ride on; their internal synchronization is the
//! std library's contract, not this engine's claim). The service tier's
//! sealed read view (`service::ReadView`) and its locks — those are governed by the
//! lock-order catalog in [`service`] and audited statically by
//! `xtask lint` (`lock-order`, `supervised-spawn`) rather than dynamically:
//! a lock-protected structure cannot data-race, only deadlock, which a
//! happens-before detector is the wrong tool for. Footprint computation
//! and the interpreter (pure functions of their inputs). The durable tier's
//! file I/O itself: owned by one thread at a time (the coordinator for the
//! baseline, the writer for the rest of the run, borrowed for the run's
//! scope), its ordering claims are fsync barriers, exercised by crash-point
//! injection in `durable-log` and `tests/service_recovery.rs`. Response
//! payload `Value`s (immutable once sealed, shared by `Arc`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod durable_tier;
mod rebase;
pub mod service;

use durable_log::{
    read_blob, write_blob, DurableError, DurableLog, FaultInjector, LogConfig, SnapKind,
    SnapshotDir,
};
use durable_tier::{DurableTier, DurableWriter, EncodedGroup, SealLedger, EPOCH_MASK};
use mq::Broker;
use rebase::RebaseMeter;
use state_backend::{PartitionState, Snapshot, SnapshotCapture, SnapshotKind, SnapshotStore};
use stateful_entities::{
    binary, interp, CallId, CallStack, DataflowIR, EntityAddr, EntityState, Event, EventKind, Key,
    MethodCall, MethodId, RuntimeError, RuntimeResult, ShardMap, StepOutcome, Value, VerifyError,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Name of the replayable ingress topic.
const INGRESS_TOPIC: &str = "requests";
/// Consumer group the coordinator commits its offsets under.
const INGRESS_GROUP: &str = "shard-coordinator";
/// Continuation stacks deeper than this abort the call (defensive bound
/// against unbounded remote recursion).
const MAX_STACK_DEPTH: usize = 256;
/// How long a coordinator receive waits before probing worker-thread
/// liveness. Messages arriving sooner take the fast path; the probe only
/// costs anything while the channel is already idle.
const LIVENESS_PROBE: Duration = Duration::from_millis(25);

/// Monitor role id of the coordinator thread (see [`racecheck::Monitor`]).
const COORDINATOR_ROLE: u32 = 0;

/// Monitor role id of a shard worker: `1 + shard`, stable across respawns
/// (a recovered worker thread re-binds the same role, inheriting its
/// predecessor's timeline — which is exactly right, since the coordinator's
/// `Reset` stamp orders the new thread after everything the old one did).
fn shard_role(shard: usize) -> u32 {
    1 + shard as u32
}

/// Configuration of a sharded deployment.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shard (worker) threads. Each owns one state partition.
    pub shards: usize,
    /// Transaction batch cut-off: how many calls (in global arrival order,
    /// across all ingress partitions) form one deterministic batch.
    pub batch_size: usize,
    /// Take an epoch barrier every this many batches (`0` disables epochs —
    /// no snapshots, no recovery anchor beyond the baseline). Whether a
    /// barrier captures deltas or full partitions is not configured: it
    /// rebases once some partition's delta chain has cost as many bytes as
    /// its last full capture (see the module docs' barrier protocol).
    pub epoch_every_batches: u64,
    /// A call deferred this many consecutive times triggers the adaptive
    /// fallback: the coordinator drains the pipeline and dispatches the
    /// starved call alone (a solo batch commits unconditionally, whatever
    /// its footprint). Bounds worst-case latency under sustained conflict
    /// storms; `0` disables the fallback.
    pub adaptive_fallback_after: u32,
    /// Backpressure bound for background snapshot encoding: a shard holding
    /// more than this many un-encoded captures encodes the oldest early and
    /// spills it to a checksummed blob on disk (durable deployments only —
    /// without [`ShardConfig::durable`] there is no spill directory and
    /// captures queue in memory unboundedly, as before PR 6).
    pub max_pending_captures: usize,
    /// Durable tier configuration; `None` (the default) runs fully in
    /// memory. Set, it requires [`ShardRuntime::new_durable`].
    pub durable: Option<DurableConfig>,
    /// Admission bound for [`ShardRuntime::serve`]: at most this many
    /// admitted-but-unanswered calls; beyond it, `submit` sheds with
    /// [`ShardError::Overloaded`]. `0` disables shedding (the ingress queue
    /// then grows without bound under overload). Ignored outside service
    /// mode.
    pub max_inflight_requests: usize,
    /// Egress dedup retention horizon, in sealed epochs: responses both
    /// (a) below the consumed-prefix watermark of the retention-floor epoch
    /// and (b) delivered are pruned from the dedup map. `None` keeps every
    /// response for the life of the run — required by the batch
    /// [`ShardRuntime::run`] report contract, so that is the default;
    /// [`ShardRuntime::serve`] treats `None` as `Some(0)` (prune as soon as
    /// sealed + delivered) because a long-lived service must not leak one
    /// map entry per request forever. Crash-replay dedup stays correct at
    /// any horizon: recovery rewinds to a sealed epoch, and everything that
    /// epoch can replay is *above* its watermark, hence never pruned.
    pub egress_retention_epochs: Option<u64>,
    /// Concurrency monitor (PR 10). `Some`, the run is fully instrumented:
    /// every channel message carries a vector-clock stamp, every partition
    /// and snapshot-store access is race-checked, and every dispatched batch
    /// is re-certified against the order-preserving commit rule. `None` (the
    /// default) skips every hook — the unmonitored hot path is unchanged.
    pub monitor: Option<Arc<racecheck::Monitor>>,
    /// Seeded schedule-exploration plan (PR 10): deterministic bounded delay
    /// injection and fan-out permutation at the runtime's perturbation sites
    /// (dispatch sends, mailbox flushes, barrier broadcast and acks). Rides
    /// the same config-level injection plumbing as [`FailurePlan`]. `None`
    /// runs the natural schedule.
    pub schedule: Option<racecheck::SchedulePlan>,
    /// Seeded defect injection (PR 10, test-only in spirit): deliberately
    /// break one concurrency invariant so the monitor's detection of it can
    /// be asserted. Inert by default.
    pub defect: racecheck::DefectPlan,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            batch_size: 128,
            epoch_every_batches: 8,
            adaptive_fallback_after: 4,
            max_pending_captures: 8,
            durable: None,
            max_inflight_requests: 1024,
            egress_retention_epochs: None,
            monitor: None,
            schedule: None,
            defect: racecheck::DefectPlan::default(),
        }
    }
}

/// Filesystem configuration of the durable tier (see
/// [`ShardConfig::durable`]). The root directory holds `log/` (the segmented
/// ingress log, one subdirectory per partition), `snapshots/` (checksummed
/// snapshot files plus the `MANIFEST` commit point), and `spill/` (capture
/// spill blobs, transient).
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Root directory of the durable tier.
    pub dir: PathBuf,
    /// Fsync the ingress log every this many [`ShardRuntime::try_submit`]
    /// appends (`1` syncs every append). This bounds only the pre-run tail:
    /// the run's baseline syncs whatever is left, and calls admitted while
    /// serving are group-committed by the durable writer, one fsync per
    /// admission group whatever its size.
    pub group_commit_window: usize,
    /// Roll ingress-log segments at this size.
    pub segment_max_bytes: usize,
    /// Crash-point injector shared with every durable primitive. Tests arm
    /// it to simulate process death mid-append/fsync/upload/rename; a
    /// production deployment leaves it inert.
    pub fault: FaultInjector,
}

impl DurableConfig {
    /// A durable tier rooted at `dir` with default tuning (window 8, 64 KiB
    /// segments, inert fault injector).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableConfig {
            dir: dir.into(),
            group_commit_window: 8,
            segment_max_bytes: 64 * 1024,
            fault: FaultInjector::new(),
        }
    }
}

impl ShardConfig {
    /// A config with `shards` shards and the remaining fields at defaults.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }
}

/// When, relative to a batch's lifecycle, an injected crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Right after the batch is dispatched, while its events are in flight on
    /// the shard threads — exercises dropping a half-executed batch.
    InFlight,
    /// Right after the batch's responses were delivered to the egress (but
    /// before any snapshot covers them) — exercises duplicate suppression:
    /// the replay *must* re-produce those responses and the egress must
    /// swallow them.
    AfterDelivery,
    /// The victim's worker thread exits its loop **silently** — no panic, no
    /// `WorkerDied` notice — right before the batch dispatches, simulating a
    /// thread whose death notice was lost (e.g. its send failed mid-panic).
    /// This fault is *not* recoverable by rollback (the engine cannot tell a
    /// dead worker from a slow one without a notice until the channel goes
    /// quiet); the run must surface [`ShardError::Disconnected`] naming the
    /// victim instead of panicking or hanging.
    WorkerExit,
    /// Crash in the **async snapshot window**: at the first epoch barrier at
    /// or past the trigger batch, right after every shard has acked the
    /// capture but before the background-encoded bytes have sealed the
    /// epoch. The pending epoch must be discarded wholesale and recovery
    /// must fall back to the last *sealed* epoch — the correctness heart of
    /// off-barrier snapshots: a half-materialized epoch is neither lost data
    /// (replay covers it) nor a recovery point (its bytes may never exist).
    MidEncode,
}

/// Where and when to inject a failure during [`ShardRuntime::run_with_failure`].
///
/// The crash fires at the first main-loop batch whose number (1-based,
/// counting deferral-drain batches too) reaches `after_batch`, at the point
/// in the batch lifecycle `mode` selects — mid-epoch unless the batch happens
/// to align with the epoch cadence. `kill_shard` names the victim whose
/// volatile state is considered lost; the consistent-snapshot protocol then
/// rolls *every* partition back to the latest complete epoch (Chandy–Lamport
/// global rollback), rewinds the ingress, and replays.
#[derive(Debug, Clone, Copy)]
pub struct FailurePlan {
    /// Crash at this batch (1-based).
    pub after_batch: u64,
    /// The shard whose state loss triggers the rollback.
    pub kill_shard: usize,
    /// Crash point within the batch lifecycle.
    pub mode: FailureMode,
}

impl FailurePlan {
    /// Crash with batch `after_batch`'s events still in flight.
    pub fn in_flight(after_batch: u64, kill_shard: usize) -> Self {
        FailurePlan {
            after_batch,
            kill_shard,
            mode: FailureMode::InFlight,
        }
    }

    /// Crash right after batch `after_batch`'s responses reached the egress.
    pub fn after_delivery(after_batch: u64, kill_shard: usize) -> Self {
        FailurePlan {
            after_batch,
            kill_shard,
            mode: FailureMode::AfterDelivery,
        }
    }

    /// Make `kill_shard`'s worker exit silently before batch `after_batch`
    /// dispatches (see [`FailureMode::WorkerExit`]).
    pub fn worker_exit(after_batch: u64, kill_shard: usize) -> Self {
        FailurePlan {
            after_batch,
            kill_shard,
            mode: FailureMode::WorkerExit,
        }
    }

    /// Crash between barrier ack and background-encode completion at the
    /// first epoch barrier at or past batch `after_batch` (see
    /// [`FailureMode::MidEncode`]).
    pub fn mid_encode(after_batch: u64, kill_shard: usize) -> Self {
        FailurePlan {
            after_batch,
            kill_shard,
            mode: FailureMode::MidEncode,
        }
    }
}

/// A fatal deployment fault surfaced by [`ShardRuntime::run`] — conditions
/// global rollback cannot mask because the engine has lost a worker thread,
/// not just a worker's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard thread panicked; the panic payload is re-surfaced as text.
    WorkerPanicked {
        /// The shard whose thread panicked.
        shard: usize,
        /// The panic message.
        message: String,
    },
    /// A shard thread exited without delivering a death notice: its channel
    /// went quiet and its thread is gone. Previously this either panicked
    /// the coordinator on channel disconnect or hung it forever; now the
    /// dead shard is identified by probing thread liveness.
    Disconnected {
        /// The shard whose worker thread is gone.
        shard: usize,
    },
    /// A worker received an invoke/resume event it cannot route — an event
    /// with no routable entity address, or one whose [`ShardMap`] destination
    /// does not exist in its peer table. Previously this was an `.expect()`
    /// panic on the shard thread, leaving the coordinator to discover the
    /// loss via the liveness probe; now the worker reports the offending
    /// event and the coordinator surfaces it as a typed error.
    Misrouted {
        /// The shard that received the unroutable event.
        shard: usize,
        /// The root call the event belongs to.
        call_id: u64,
        /// The event's target address, when it has one (`None` for an event
        /// kind that never routes to an entity, e.g. a stray `Response`).
        addr: Option<EntityAddr>,
    },
    /// A snapshot in the recovery chain failed to decode during rollback.
    /// Previously `Coordinator::recover` would panic on
    /// `.expect("stored snapshot chains decode")`; corruption is now a typed
    /// error naming the epoch and partition.
    CorruptSnapshot {
        /// The sealed epoch recovery was rolling back to.
        epoch: u64,
        /// The partition whose chain failed to decode.
        partition: usize,
        /// The codec's description of the failure.
        detail: String,
    },
    /// Recovery found no usable snapshot data for an epoch it needed — no
    /// sealed epoch at all, a sealed epoch with no recorded offsets, or a
    /// partition chain without a full anchor. Previously a
    /// `.expect("complete epoch")`/`.expect("full anchor")` panic.
    IncompleteEpoch {
        /// The epoch whose data is missing.
        epoch: u64,
    },
    /// The service front door shed this call: admitting it would exceed
    /// [`ShardConfig::max_inflight_requests`] unanswered calls. The call
    /// had **no** side effect — no call id, no log append, no partial
    /// application — and the client may retry after backing off.
    Overloaded {
        /// Admitted-but-unanswered calls at the shed decision.
        inflight: usize,
        /// The configured admission bound.
        max: usize,
    },
    /// The service has stopped accepting submissions (the serving run is
    /// draining or has finished). Like a shed call, the submission had no
    /// side effect.
    ServiceClosed,
    /// The runtime was constructed or started with an invalid
    /// configuration (previously an `.expect()` panic at the call site).
    Config {
        /// What was wrong.
        detail: String,
    },
    /// Spawning a shard worker thread failed (resource exhaustion at the
    /// OS level). Previously `.expect("spawn shard thread")` — a loaded
    /// box hitting a thread limit killed the process instead of surfacing
    /// a typed error.
    Spawn {
        /// The shard whose worker could not be spawned.
        shard: usize,
        /// The OS error.
        detail: String,
    },
    /// The durable tier failed — an I/O error, a checksum/structural
    /// violation in an on-disk artifact, or an injected crash point
    /// ([`durable_log::CrashPoint`]). In-run rollback cannot mask these:
    /// they model the process itself dying. Recovery is a cold restart
    /// ([`ShardRuntime::new_durable`]) from the directory alone; whatever
    /// had reached the egress before the crash stays readable via
    /// [`ShardRuntime::partial_egress`].
    Durable {
        /// The underlying durable-tier error (names the segment, offset,
        /// epoch, or path involved).
        error: DurableError,
    },
    /// The IR handed to a constructor failed whole-program verification —
    /// it violates an invariant the shard workers assume (slot bounds,
    /// method tables, effect masks, …) and must never be executed.
    Verify {
        /// The verifier's diagnostic (rule, location, span, detail).
        error: VerifyError,
    },
}

impl From<DurableError> for ShardError {
    fn from(error: DurableError) -> Self {
        ShardError::Durable { error }
    }
}

impl From<VerifyError> for ShardError {
    fn from(error: VerifyError) -> Self {
        ShardError::Verify { error }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::WorkerPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
            ShardError::Disconnected { shard } => {
                write!(f, "shard {shard} worker exited without a death notice")
            }
            ShardError::Misrouted {
                shard,
                call_id,
                addr,
            } => match addr {
                Some(addr) => write!(
                    f,
                    "shard {shard} cannot route call {call_id}'s event to {addr}: \
                     destination shard is not in the peer table"
                ),
                None => write!(
                    f,
                    "shard {shard} received an unroutable event for call {call_id} \
                     (no target entity address)"
                ),
            },
            ShardError::CorruptSnapshot {
                epoch,
                partition,
                detail,
            } => write!(
                f,
                "recovery to epoch {epoch} failed: partition {partition}'s \
                 snapshot chain is corrupt ({detail})"
            ),
            ShardError::IncompleteEpoch { epoch } => {
                write!(
                    f,
                    "recovery found no usable snapshot data for epoch {epoch}"
                )
            }
            ShardError::Overloaded { inflight, max } => write!(
                f,
                "call shed: {inflight} requests already in flight (admission bound {max})"
            ),
            ShardError::ServiceClosed => {
                write!(f, "service is no longer accepting submissions")
            }
            ShardError::Config { detail } => write!(f, "invalid configuration: {detail}"),
            ShardError::Spawn { shard, detail } => {
                write!(
                    f,
                    "failed to spawn worker thread for shard {shard}: {detail}"
                )
            }
            ShardError::Durable { error } => write!(f, "durable tier failure: {error}"),
            ShardError::Verify { error } => write!(f, "IR failed verification: {error}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Outcome of a run: responses, errors, and runtime counters.
#[derive(Debug, Clone, Default)]
pub struct ShardReport {
    /// Response value per call id (successful calls).
    pub responses: BTreeMap<u64, Value>,
    /// Error message per call id (failed calls).
    pub errors: BTreeMap<u64, String>,
    /// Transaction batches dispatched (including deferral-drain batches).
    pub batches: u64,
    /// Total deferrals (a call deferred twice counts twice).
    pub deferrals: u64,
    /// Epoch barriers completed.
    pub epochs_completed: u64,
    /// Partition snapshots taken at epoch barriers (excludes the baseline).
    pub snapshots_taken: u64,
    /// How many of those were dirty deltas.
    pub delta_snapshots_taken: u64,
    /// Total snapshot bytes written at epoch barriers.
    pub snapshot_bytes: u64,
    /// Responses suppressed by egress deduplication during replay (> 0 after
    /// a failure proves duplicates never reached the client).
    pub duplicates_suppressed: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Events processed per shard (Invoke + Resume), for balance checks.
    pub events_per_shard: Vec<u64>,
    /// Cross-shard mailbox flushes (vector sends) across all shards.
    pub cross_shard_batches: u64,
    /// Events carried inside those flushes.
    pub cross_shard_events: u64,
    /// Batches dispatched while the previous batch was still in flight
    /// (> 0 proves the pipeline actually overlapped execution).
    pub pipelined_batches: u64,
    /// Delta snapshots merged away by amortized compaction (each delta
    /// folded into a partition's existing merged delta counts once).
    pub snapshots_compacted: u64,
    /// Longest full→delta chain any recovery would have had to replay,
    /// observed across all sealed epochs (compaction bounds this at 1).
    pub max_delta_chain: u64,
    /// Total nanoseconds the epoch barriers spent in the snapshot *capture*
    /// walk, summed across shards and epochs. This is the barrier's entire
    /// snapshot cost — encoding happens off-barrier.
    pub barrier_capture_ns: u64,
    /// Total nanoseconds the coordinator was stalled inside epoch barriers:
    /// broadcast → every shard acked. The pipeline is drained on entry; this
    /// is the *additional* snapshot-protocol stall the paper's async barrier
    /// argument targets.
    pub barrier_wall_ns: u64,
    /// Snapshot bytes encoded **outside** the barrier (in the background,
    /// interleaved with batch processing). Every post-baseline snapshot is
    /// encoded off-barrier, so this always equals `snapshot_bytes`; it stays
    /// because external harnesses report the off-barrier fraction from it.
    pub encode_off_barrier_bytes: u64,
    /// The sealed epoch each recovery rolled back to, in order. A crash in
    /// the capture→encode window must land on an epoch *older* than the one
    /// whose bytes were still in flight.
    pub recovery_epochs: Vec<u64>,
    /// Captures encoded early and spilled to disk because a shard exceeded
    /// [`ShardConfig::max_pending_captures`] un-encoded captures (> 0 proves
    /// the backlog bound engaged).
    pub captures_spilled: u64,
    /// Calls rescued by the adaptive footprint fallback: deferred
    /// [`ShardConfig::adaptive_fallback_after`] consecutive times, then
    /// dispatched alone in a drained pipeline (committing unconditionally).
    pub adaptive_fallbacks: u64,
    /// Total approximate bytes of continuation-frame payload (suspended
    /// locals) carried by **cross-shard** `Invoke`/`Resume` events, summed
    /// across shards. Frame liveness pruning keeps this to the slots a
    /// resume path still reads.
    pub hop_frame_bytes: u64,
    /// Bytes of duplicate hot-key allocations avoided by the per-partition
    /// key interner, summed across shards (see
    /// [`state_backend::KeyInterner`]). Every ingress call allocates its
    /// string key afresh; this counts the copies that collapsed onto a
    /// partition's pooled allocation instead of staying resident.
    pub key_bytes_interned: u64,
    /// Egress dedup entries pruned under the retention horizon
    /// ([`ShardConfig::egress_retention_epochs`]): responses sealed below
    /// the watermark *and* already delivered, dropped from the dedup map.
    /// `0` for a plain batch run (the end-of-run report keeps everything).
    pub egress_pruned: u64,
    /// CDC [`service::StateUpdate`]s delivered to subscriptions at seal
    /// time, counting fan-out (one change × three matching subscriptions
    /// counts three).
    pub cdc_updates: u64,
    /// Ingress-log `fdatasync`s issued during the run, baseline included:
    /// one per log partition per group commit (see
    /// [`durable_log::DurableLog::syncs`]). `0` without a durable tier.
    pub log_syncs: u64,
}

impl ShardReport {
    /// Total calls answered (success + error).
    pub fn answered(&self) -> usize {
        self.responses.len() + self.errors.len()
    }
}

/// One client request as stored in the replayable ingress log.
#[derive(Debug, Clone, PartialEq)]
struct IngressRequest {
    call_id: u64,
    call: MethodCall,
}

// ---------------------------------------------------------------------------
// Durable tier (on-disk ingress log + snapshot persistence)
// ---------------------------------------------------------------------------

/// Binary codec for one durable ingress record:
/// `call_id ‖ class name ‖ key ‖ method id ‖ argc ‖ args`. The class travels
/// by *name* (interned class ids are process-local), so a restarted process
/// re-resolves it against its own IR and replays an identical call.
fn encode_ingress_record(call_id: u64, call: &MethodCall) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + call.args.len() * 16);
    binary::put_u64(&mut out, call_id);
    binary::put_str(&mut out, call.target.class.name());
    binary::put_key(&mut out, call.target.key());
    binary::put_u32(&mut out, call.method.as_u32());
    binary::put_u32(&mut out, call.args.len() as u32);
    for arg in &call.args {
        binary::put_value(&mut out, arg);
    }
    out
}

/// Decode an ingress record against the deployment's IR, validating that the
/// named class and method id exist before rebuilding the call. Any failure —
/// truncated bytes, an unknown class, a method id out of range, trailing
/// garbage — is a typed error string (the caller wraps it into
/// [`DurableError::CorruptLogRecord`] with the segment and offset).
fn decode_ingress_record(ir: &DataflowIR, payload: &[u8]) -> Result<IngressRequest, String> {
    let err = |e: binary::CodecError| e.to_string();
    let mut input = payload;
    let call_id = binary::get_u64(&mut input).map_err(err)?;
    let class_name = binary::get_str(&mut input).map_err(err)?;
    let class = ir
        .class_id(&class_name)
        .ok_or_else(|| format!("unknown entity class `{class_name}`"))?;
    let key = binary::get_key(&mut input).map_err(err)?;
    let method = MethodId(binary::get_u32(&mut input).map_err(err)?);
    if ir
        .operator_by_id(class)
        .and_then(|op| op.method_by_id(method))
        .is_none()
    {
        return Err(format!(
            "`{class_name}` has no method id {}",
            method.as_u32()
        ));
    }
    let argc = binary::get_u32(&mut input).map_err(err)? as usize;
    let mut args = Vec::with_capacity(argc.min(64));
    for _ in 0..argc {
        args.push(binary::get_value(&mut input).map_err(err)?);
    }
    if !input.is_empty() {
        return Err(format!(
            "{} trailing bytes after the last argument",
            input.len()
        ));
    }
    Ok(IngressRequest {
        call_id,
        call: MethodCall::new(EntityAddr::from_ids(class, key), method, args),
    })
}

/// Messages the coordinator (or a peer shard) sends to a shard thread.
enum ToShard {
    /// A batch of id-addressed events (one vector per `(shard, class)` flush).
    Events {
        incarnation: u64,
        events: Vec<Event>,
        /// Sender's vector clock (monitored runs only): the receiving worker
        /// joins it before touching its partition.
        stamp: Option<racecheck::Stamp>,
    },
    /// Take an epoch-aligned snapshot and ack with the bytes.
    Barrier {
        incarnation: u64,
        epoch: u64,
        full: bool,
        stamp: Option<racecheck::Stamp>,
    },
    /// Recovery: adopt a reconstructed partition state and a new incarnation;
    /// drop all buffered work from the failed timeline.
    Reset {
        incarnation: u64,
        state: Box<PartitionState>,
        stamp: Option<racecheck::Stamp>,
    },
    /// Send the current partition state and counters back (end of run).
    Collect,
    /// Exit the worker loop.
    Shutdown,
}

/// Messages shard threads send to the coordinator.
enum ToCoordinator {
    /// Batched root-call responses.
    Responses {
        incarnation: u64,
        responses: Vec<(u64, Result<Value, String>)>,
        stamp: Option<racecheck::Stamp>,
    },
    /// Epoch-barrier ack: the copy-on-write capture is done (the cut is
    /// established), the shard is resuming batch work. Carries only the
    /// capture-walk timing — no bytes. The stamp on this ack is the
    /// **load-bearing** happens-before edge for the snapshot cut: the
    /// coordinator must join it before it may read this epoch's bytes
    /// (`SnapshotBytes` itself is deliberately unstamped — FIFO order
    /// behind the ack carries the edge, and the race detector proves it).
    BarrierCaptured {
        incarnation: u64,
        shard: usize,
        epoch: u64,
        capture_ns: u64,
        stamp: Option<racecheck::Stamp>,
    },
    /// A capture's encoded bytes, shipped when the background encoder ran.
    /// The epoch seals once every shard's bytes arrived.
    SnapshotBytes {
        incarnation: u64,
        shard: usize,
        epoch: u64,
        kind: SnapshotKind,
        bytes: Vec<u8>,
    },
    /// The durable writer's group-commit notice: every call id below
    /// `through` is fsync-durable, so its record may be dispatched. The
    /// stamp is the writer → coordinator edge of the durable hand-off.
    Durable {
        through: u64,
        stamp: Option<racecheck::Stamp>,
    },
    /// The durable writer failed and exited; the run ends with
    /// [`ShardError::Durable`].
    DurableFailed { error: DurableError },
    /// The worker received an event it cannot route (see
    /// [`ShardError::Misrouted`]); it exits its loop after sending this.
    Misrouted {
        shard: usize,
        call_id: u64,
        addr: Option<EntityAddr>,
    },
    /// Final state hand-back.
    Collected {
        shard: usize,
        state: Box<PartitionState>,
        events_processed: u64,
        cross_shard_batches: u64,
        cross_shard_events: u64,
        captures_spilled: u64,
        hop_frame_bytes: u64,
        key_bytes_interned: u64,
        /// Stamped so post-run inspection of the handed-back partition (on
        /// the caller's thread) is ordered after every worker access.
        stamp: Option<racecheck::Stamp>,
    },
    /// A worker thread panicked. Without this, the coordinator would block
    /// on `recv()` forever: the dead worker's sender clone is dropped, but
    /// the surviving workers keep the channel open, so `recv` neither yields
    /// nor errors. The coordinator re-raises the panic instead of hanging.
    WorkerDied { shard: usize, message: String },
}

// ---------------------------------------------------------------------------
// Shard worker (one OS thread per shard)
// ---------------------------------------------------------------------------

/// One barrier capture awaiting its background encode, either held in
/// memory or already encoded and spilled to disk (backlog control).
enum PendingEncode {
    /// An un-encoded copy-on-write capture held in memory.
    Captured {
        incarnation: u64,
        epoch: u64,
        capture: SnapshotCapture,
    },
    /// A capture encoded early and spilled to a checksummed blob because the
    /// pending queue exceeded its bound. Read back (and verified) when its
    /// turn to ship comes; ship order stays oldest-first either way.
    Spilled {
        incarnation: u64,
        epoch: u64,
        kind: SnapshotKind,
        path: PathBuf,
    },
}

struct ShardWorker {
    shard: usize,
    ir: Arc<DataflowIR>,
    map: Arc<ShardMap>,
    state: PartitionState,
    incarnation: u64,
    inbox: Receiver<ToShard>,
    peers: Vec<Sender<ToShard>>,
    coordinator: Sender<ToCoordinator>,
    /// Captures taken at barriers, awaiting background encoding — oldest
    /// first. Each carries the (incarnation, epoch) it was cut at.
    pending_encodes: VecDeque<PendingEncode>,
    /// Where capture spill blobs go (`None` disables spilling — non-durable
    /// deployments).
    spill_dir: Option<PathBuf>,
    /// Spill the oldest in-memory capture once more than this many encodes
    /// are pending.
    max_pending_captures: usize,
    captures_spilled: u64,
    /// Follow-up events routed to this shard itself.
    local: VecDeque<Event>,
    /// Outgoing cross-shard events, buffered per `(shard, ClassId)`.
    out: BTreeMap<(usize, u32), Vec<Event>>,
    /// Outgoing responses, buffered until the next flush.
    out_responses: Vec<(u64, Result<Value, String>)>,
    events_processed: u64,
    cross_shard_batches: u64,
    cross_shard_events: u64,
    /// Continuation-frame bytes shipped cross-shard (see
    /// [`ShardReport::hop_frame_bytes`]).
    hop_frame_bytes: u64,
    /// Race monitor (`None` = unmonitored: every hook below is skipped).
    monitor: Option<Arc<racecheck::Monitor>>,
    /// This worker's monitor role: `1 + shard` (coordinator is `0`).
    role: u32,
    /// Schedule-perturbation decision stream (`None` = natural schedule).
    schedule: Option<racecheck::ScheduleRng>,
    /// Seeded defect injection (inert by default).
    defect: racecheck::DefectPlan,
    /// The coordinator's clock at spawn, joined at loop start so a reused
    /// monitor never sees a respawned worker as concurrent with its past.
    spawn_stamp: Option<racecheck::Stamp>,
}

/// A worker-local routing failure (converted to [`ShardError::Misrouted`] by
/// the coordinator).
struct Misroute {
    call_id: u64,
    addr: Option<EntityAddr>,
}

impl ShardWorker {
    /// The worker loop. Background encoding interleaves with batch work: the
    /// inbox is polled non-blockingly first, and only when it is empty — the
    /// worker would otherwise sit idle waiting for the coordinator — does the
    /// worker spend the gap encoding one pending capture. Encoding therefore
    /// steals no time from runnable events, and on a loaded shard it fills
    /// the natural gaps between batch round-trips.
    fn run(mut self) {
        if let Some(monitor) = &self.monitor {
            monitor.bind_current_thread(self.role);
            if let Some(stamp) = self.spawn_stamp.take() {
                monitor.join(self.role, &stamp);
            }
        }
        loop {
            let msg = match self.inbox.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) => {
                    match self.encode_one_pending() {
                        Ok(true) => continue, // re-poll: new work may have arrived
                        Ok(false) => {}
                        Err(message) => {
                            // A spilled capture that cannot be read back is a
                            // typed worker loss, not a panic.
                            let _ = self.coordinator.send(ToCoordinator::WorkerDied {
                                shard: self.shard,
                                message,
                            });
                            break;
                        }
                    }
                    match self.inbox.recv() {
                        Ok(msg) => msg,
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            if !self.handle_message(msg) {
                break;
            }
        }
    }

    /// Join a received message's happens-before stamp, if both the stamp and
    /// the monitor exist. Joined before the incarnation gate: the send
    /// genuinely happened-before this receipt even on a stale timeline, and
    /// extra order never creates false positives.
    fn join_stamp(&self, stamp: &Option<racecheck::Stamp>) {
        if let (Some(monitor), Some(stamp)) = (&self.monitor, stamp) {
            monitor.join(self.role, stamp);
        }
    }

    /// Handle one coordinator/peer message; `false` exits the worker loop.
    fn handle_message(&mut self, msg: ToShard) -> bool {
        match msg {
            ToShard::Events {
                incarnation,
                events,
                stamp,
            } => {
                self.join_stamp(&stamp);
                if incarnation != self.incarnation {
                    return true; // stale timeline: dropped on receipt
                }
                self.local.extend(events);
                if let Err(misroute) = self.drain_local() {
                    // An unroutable event is a protocol violation this worker
                    // cannot continue past; report it (typed, with the
                    // offending address) instead of panicking the thread.
                    let _ = self.coordinator.send(ToCoordinator::Misrouted {
                        shard: self.shard,
                        call_id: misroute.call_id,
                        addr: misroute.addr,
                    });
                    return false;
                }
                self.flush();
            }
            ToShard::Barrier {
                incarnation,
                epoch,
                full,
                stamp,
            } => {
                self.join_stamp(&stamp);
                if incarnation != self.incarnation {
                    return true;
                }
                // The barrier's critical path: the copy-on-write capture
                // walk. Ack immediately; encoding is deferred to the
                // background.
                let t0 = Instant::now();
                let capture = if full {
                    self.state.capture_full()
                } else {
                    self.state.capture_delta()
                };
                let capture_ns = t0.elapsed().as_nanos() as u64;
                // The cut itself is a monitored resource, per epoch: this
                // write plus the stamped ack below is what licenses the
                // coordinator to read the epoch's bytes.
                if let Some(monitor) = &self.monitor {
                    monitor.access(
                        self.role,
                        racecheck::Resource::PartitionCut {
                            partition: self.shard,
                            epoch,
                        },
                        racecheck::AccessKind::Write,
                        "barrier capture",
                    );
                }
                if let Some(rng) = &mut self.schedule {
                    rng.pause(racecheck::ScheduleSite::BarrierAck);
                }
                let ack_stamp = match &self.monitor {
                    // Defect injection: omitting this stamp severs the one
                    // edge ordering capture-write before bytes-read — the
                    // detector must flag the PartitionCut pair.
                    Some(_) if self.defect.drop_barrier_ack_stamp => None,
                    Some(monitor) => Some(monitor.stamp(self.role)),
                    None => None,
                };
                let _ = self.coordinator.send(ToCoordinator::BarrierCaptured {
                    incarnation,
                    shard: self.shard,
                    epoch,
                    capture_ns,
                    stamp: ack_stamp,
                });
                self.pending_encodes.push_back(PendingEncode::Captured {
                    incarnation,
                    epoch,
                    capture,
                });
                self.spill_excess();
            }
            ToShard::Reset {
                incarnation,
                state,
                stamp,
            } => {
                self.join_stamp(&stamp);
                self.incarnation = incarnation;
                self.state = *state;
                // A reconstructed partition arrives unarmed (it was decoded
                // from bytes); re-arm it for the new timeline.
                if let Some(monitor) = &self.monitor {
                    self.state.arm_monitor(Arc::clone(monitor), self.shard);
                }
                self.local.clear();
                self.out.clear();
                self.out_responses.clear();
                // Captures cut on the failed timeline must never materialize
                // — and their spill blobs must not leak on disk.
                for entry in self.pending_encodes.drain(..) {
                    if let PendingEncode::Spilled { path, .. } = entry {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
            ToShard::Collect => {
                // Nothing may be lost at hand-back: encode any straggler
                // captures first (normally none — the coordinator drains all
                // pending epochs before collecting).
                loop {
                    match self.encode_one_pending() {
                        Ok(true) => continue,
                        Ok(false) => break,
                        Err(message) => {
                            let _ = self.coordinator.send(ToCoordinator::WorkerDied {
                                shard: self.shard,
                                message,
                            });
                            return false;
                        }
                    }
                }
                let key_bytes_interned = self.state.key_interner().saved_bytes();
                let stamp = self.monitor.as_ref().map(|m| m.stamp(self.role));
                let _ = self.coordinator.send(ToCoordinator::Collected {
                    shard: self.shard,
                    state: Box::new(std::mem::take(&mut self.state)),
                    events_processed: self.events_processed,
                    cross_shard_batches: self.cross_shard_batches,
                    cross_shard_events: self.cross_shard_events,
                    captures_spilled: self.captures_spilled,
                    hop_frame_bytes: self.hop_frame_bytes,
                    key_bytes_interned,
                    stamp,
                });
            }
            ToShard::Shutdown => return false,
        }
        true
    }

    /// Backlog control: while more than `max_pending_captures` encodes are
    /// pending, encode the *oldest still-in-memory* capture early and spill
    /// its bytes to a checksummed blob, releasing the capture's
    /// copy-on-write references. A spill-write failure keeps the capture in
    /// memory (spilling is an optimization; durability is unaffected — the
    /// bytes ship either way).
    fn spill_excess(&mut self) {
        let Some(dir) = self.spill_dir.clone() else {
            return;
        };
        while self.pending_encodes.len() > self.max_pending_captures {
            let Some(idx) = self
                .pending_encodes
                .iter()
                .position(|p| matches!(p, PendingEncode::Captured { .. }))
            else {
                break;
            };
            let PendingEncode::Captured {
                incarnation,
                epoch,
                capture,
            } = &self.pending_encodes[idx]
            else {
                unreachable!("position matched Captured");
            };
            let (incarnation, epoch) = (*incarnation, *epoch);
            let path = dir.join(format!("s{}-g{incarnation}-e{epoch}.spill", self.shard));
            let bytes = capture.encode();
            let kind = capture.kind();
            match write_blob(&path, &bytes) {
                Ok(()) => {
                    self.pending_encodes[idx] = PendingEncode::Spilled {
                        incarnation,
                        epoch,
                        kind,
                        path,
                    };
                    self.captures_spilled += 1;
                }
                Err(_) => break,
            }
        }
    }

    /// Encode and ship the oldest pending capture, if any. Returns whether
    /// one was processed. Captures from a stale incarnation are dropped
    /// unencoded (their timeline is gone). An unreadable spill blob is a
    /// typed error (the worker reports it and exits — never a panic).
    fn encode_one_pending(&mut self) -> Result<bool, String> {
        let Some(entry) = self.pending_encodes.pop_front() else {
            return Ok(false);
        };
        match entry {
            PendingEncode::Captured {
                incarnation,
                epoch,
                capture,
            } => {
                if incarnation == self.incarnation {
                    let _ = self.coordinator.send(ToCoordinator::SnapshotBytes {
                        incarnation,
                        shard: self.shard,
                        epoch,
                        kind: capture.kind(),
                        bytes: capture.encode(),
                    });
                }
            }
            PendingEncode::Spilled {
                incarnation,
                epoch,
                kind,
                path,
            } => {
                if incarnation == self.incarnation {
                    let bytes = read_blob(&path).map_err(|e| {
                        format!("spilled capture for epoch {epoch} is unreadable: {e}")
                    })?;
                    let _ = self.coordinator.send(ToCoordinator::SnapshotBytes {
                        incarnation,
                        shard: self.shard,
                        epoch,
                        kind,
                        bytes,
                    });
                }
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(true)
    }

    /// Process the local queue to exhaustion (events this shard routed to
    /// itself never touch a channel).
    fn drain_local(&mut self) -> Result<(), Misroute> {
        while let Some(event) = self.local.pop_front() {
            self.handle_event(event)?;
        }
        Ok(())
    }

    fn handle_event(&mut self, event: Event) -> Result<(), Misroute> {
        self.events_processed += 1;
        let call_id = event.call_id;
        match event.kind {
            EventKind::Create { addr, state } => {
                self.state.put(addr, state);
            }
            EventKind::Invoke { call, stack } => {
                // Intern the freshly allocated target key against this
                // partition's pool: hot keys cost refcount bumps, not
                // duplicate string allocations.
                let addr = self.state.intern_addr(call.target);
                let ir = &self.ir;
                let outcome = self.state.update_with(&addr, |state| {
                    interp::start(ir, &addr, state, call.method, &call.args)
                });
                self.after_step(call_id, &addr, outcome, stack)?;
            }
            EventKind::Resume { value, mut stack } => {
                let Some(frame) = stack.pop() else {
                    self.respond(
                        call_id,
                        Err("resume with an empty continuation stack".into()),
                    );
                    return Ok(());
                };
                let addr = self.state.intern_addr(frame.addr.clone());
                let ir = &self.ir;
                let outcome = self.state.update_with(&addr, |state| {
                    interp::resume(ir, &addr, state, frame, value)
                });
                self.after_step(call_id, &addr, outcome, stack)?;
            }
            EventKind::Response { value } => {
                // Only produced locally; loop it to the egress buffer.
                self.respond(call_id, Ok(value));
            }
        }
        Ok(())
    }

    /// Turn an interpreter step outcome into the follow-up event or response.
    fn after_step(
        &mut self,
        call_id: CallId,
        addr: &EntityAddr,
        outcome: Option<RuntimeResult<StepOutcome>>,
        mut stack: CallStack,
    ) -> Result<(), Misroute> {
        match outcome {
            None => self.respond(
                call_id,
                Err(RuntimeError::new(format!("entity {addr} does not exist")).message),
            ),
            Some(Err(err)) => self.respond(call_id, Err(err.message)),
            Some(Ok(StepOutcome::Return(value))) => {
                if stack.is_root() {
                    self.respond(call_id, Ok(value));
                } else {
                    self.route(Event::new(call_id, EventKind::Resume { value, stack }))?;
                }
            }
            Some(Ok(StepOutcome::Call { call, frame })) => {
                if stack.depth() >= MAX_STACK_DEPTH {
                    self.respond(call_id, Err("continuation stack depth exceeded".into()));
                    return Ok(());
                }
                stack.push(frame);
                self.route(Event::new(call_id, EventKind::Invoke { call, stack }))?;
            }
        }
        Ok(())
    }

    /// Route a follow-up event by cached-hash modulo: to the local queue if
    /// this shard owns the target, otherwise into the per-`(shard, class)`
    /// mailbox buffer.
    ///
    /// An event with no routable address, or whose [`ShardMap`] destination
    /// is outside the peer table (a bad route), used to
    /// `.expect("invoke/resume events route to an entity")` — killing the
    /// shard thread and leaving the coordinator to notice via the liveness
    /// probe. It is now a typed [`Misroute`] carrying the offending address.
    fn route(&mut self, event: Event) -> Result<(), Misroute> {
        let (dest, class) = match event.routing_addr() {
            None => {
                return Err(Misroute {
                    call_id: event.call_id.0,
                    addr: None,
                })
            }
            Some(addr) => {
                let dest = self.map.route(addr);
                if dest != self.shard && dest >= self.peers.len() {
                    return Err(Misroute {
                        call_id: event.call_id.0,
                        addr: Some(addr.clone()),
                    });
                }
                (dest, addr.class.as_u32())
            }
        };
        if dest == self.shard {
            self.local.push_back(event);
        } else {
            // Bytes/hop metric: the continuation payload (suspended frames'
            // locals) this event carries off-shard. Liveness pruning
            // shrinks exactly this number; self-routed events are free.
            self.hop_frame_bytes += match &event.kind {
                EventKind::Invoke { stack, .. } | EventKind::Resume { stack, .. } => {
                    stack.approx_size() as u64
                }
                _ => 0,
            };
            self.out.entry((dest, class)).or_default().push(event);
        }
        Ok(())
    }

    fn respond(&mut self, call_id: CallId, result: Result<Value, String>) {
        self.out_responses.push((call_id.0, result));
    }

    /// Drain-and-send every outgoing buffer. Called whenever the worker has
    /// exhausted its runnable work, before it blocks on the inbox again — a
    /// buffered event is never stranded while its destination idles.
    fn flush(&mut self) {
        // Schedule exploration may permute which destination's buffer sends
        // first — legal because correctness depends only on per-channel FIFO,
        // never on the relative order of different destinations' sends.
        let mut buffers: Vec<((usize, u32), Vec<Event>)> =
            std::mem::take(&mut self.out).into_iter().collect();
        if let Some(rng) = &mut self.schedule {
            rng.permute(&mut buffers);
        }
        for ((dest, _class), events) in buffers {
            self.cross_shard_batches += 1;
            self.cross_shard_events += events.len() as u64;
            if let Some(rng) = &mut self.schedule {
                rng.pause(racecheck::ScheduleSite::ChannelSend);
            }
            let stamp = self.monitor.as_ref().map(|m| m.stamp(self.role));
            let _ = self.peers[dest].send(ToShard::Events {
                incarnation: self.incarnation,
                events,
                stamp,
            });
        }
        if !self.out_responses.is_empty() {
            let stamp = self.monitor.as_ref().map(|m| m.stamp(self.role));
            let _ = self.coordinator.send(ToCoordinator::Responses {
                incarnation: self.incarnation,
                responses: std::mem::take(&mut self.out_responses),
                stamp,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The runtime (coordinator side)
// ---------------------------------------------------------------------------

/// A sharded, multi-threaded deployment of one compiled entity program.
pub struct ShardRuntime {
    ir: Arc<DataflowIR>,
    /// Deployment configuration (public so benches can inspect it).
    pub config: ShardConfig,
    map: Arc<ShardMap>,
    ingress: Broker<IngressRequest>,
    /// Partition states: populated by [`ShardRuntime::load_entity`], moved
    /// into the shard threads for the duration of a run, and written back at
    /// the end so the final state is inspectable.
    partitions: Vec<PartitionState>,
    next_call_id: u64,
    /// The durable tier, when configured (see [`ShardRuntime::new_durable`]).
    durable: Option<DurableTier>,
    /// Egress responses delivered before the last failed run aborted (empty
    /// after a successful run) — see [`ShardRuntime::partial_egress`].
    partial: BTreeMap<u64, Result<Value, String>>,
}

impl ShardRuntime {
    /// Create a runtime for a compiled IR.
    ///
    /// The IR is the trust boundary: an IR that has not already passed the
    /// whole-program verifier is verified here, and a corrupt one is rejected
    /// with [`ShardError::Verify`] before any worker thread exists.
    /// Configuration defects (zero shards, zero batch size, a durable config
    /// handed to the non-durable constructor) surface as
    /// [`ShardError::Config`] instead of panicking.
    pub fn new(mut ir: DataflowIR, config: ShardConfig) -> Result<Self, ShardError> {
        if config.shards == 0 {
            return Err(ShardError::Config {
                detail: "need at least one shard".to_string(),
            });
        }
        if config.batch_size == 0 {
            return Err(ShardError::Config {
                detail: "batch size must be positive".to_string(),
            });
        }
        if config.durable.is_some() {
            return Err(ShardError::Config {
                detail: "a durable config needs ShardRuntime::new_durable".to_string(),
            });
        }
        ir.ensure_verified()?;
        let ingress = Broker::new();
        ingress.create_topic(INGRESS_TOPIC, config.shards);
        Ok(ShardRuntime {
            ir: Arc::new(ir),
            map: Arc::new(ShardMap::uniform(config.shards)),
            ingress,
            partitions: (0..config.shards).map(|_| PartitionState::new()).collect(),
            next_call_id: 0,
            durable: None,
            partial: BTreeMap::new(),
            config,
        })
    }

    /// Create (or **cold-restart**) a durable runtime from
    /// [`ShardConfig::durable`]'s directory alone.
    ///
    /// With no committed manifest the deployment is fresh: entities are
    /// loaded by the caller as usual, and any pre-existing ingress records
    /// (a crash before the first run) are replayed into the broker. With a
    /// manifest, the directory *is* the deployment: every partition is
    /// reconstructed from the named snapshot files at the sealed epoch, the
    /// log is opened trimming any torn tail past the sealed offsets, the
    /// surviving records replay into the broker offset-for-offset, and the
    /// call-id sequence resumes past the highest replayed id — do **not**
    /// re-load entities. Every durable defect is a typed error: corrupt
    /// snapshot chains surface as [`ShardError::CorruptSnapshot`], log/
    /// manifest damage as [`ShardError::Durable`] naming the artifact.
    pub fn new_durable(mut ir: DataflowIR, config: ShardConfig) -> Result<Self, ShardError> {
        let Some(dcfg) = config.durable.clone() else {
            return Err(ShardError::Config {
                detail: "new_durable requires ShardConfig::durable".to_string(),
            });
        };
        let shards = config.shards;
        if shards == 0 {
            return Err(ShardError::Config {
                detail: "need at least one shard".to_string(),
            });
        }
        if config.batch_size == 0 {
            return Err(ShardError::Config {
                detail: "batch size must be positive".to_string(),
            });
        }
        // Same trust boundary as `new`: nothing durable is touched until the
        // IR verifies.
        ir.ensure_verified()?;
        let log_cfg = LogConfig {
            group_commit_window: dcfg.group_commit_window,
            segment_max_bytes: dcfg.segment_max_bytes,
        };
        let snapshots = SnapshotDir::open(dcfg.dir.join("snapshots"), &dcfg.fault)?;
        let spill_dir = dcfg.dir.join("spill");
        std::fs::create_dir_all(&spill_dir).map_err(|e| DurableError::Io {
            path: spill_dir.to_string_lossy().into_owned(),
            detail: e.to_string(),
        })?;
        let manifest = snapshots.load_manifest()?;
        let ir = Arc::new(ir);
        let ingress = Broker::new();
        ingress.create_topic(INGRESS_TOPIC, shards);

        let (mut log, partitions, generation, committed) = match manifest {
            None => {
                let log = DurableLog::open(
                    &dcfg.dir.join("log"),
                    shards,
                    log_cfg,
                    &dcfg.fault,
                    &vec![0; shards],
                )?;
                let partitions: Vec<PartitionState> =
                    (0..shards).map(|_| PartitionState::new()).collect();
                (log, partitions, 0u64, vec![0u64; shards])
            }
            Some(m) => {
                if m.shards as usize != shards {
                    return Err(DurableError::CorruptManifest {
                        path: dcfg.dir.join("snapshots").to_string_lossy().into_owned(),
                        detail: format!(
                            "manifest was written by a {}-shard deployment, config says {shards}",
                            m.shards
                        ),
                    }
                    .into());
                }
                // Rebuild the recovery chain from the named files. The store
                // is classic-mode on purpose: a merged delta re-enters as one
                // raw delta and reconstruct applies it directly.
                let mut store = SnapshotStore::new(shards);
                let mut files = m.files.clone();
                files.sort_unstable();
                for &(file_epoch, partition, kind) in &files {
                    let bytes = snapshots.get(file_epoch, partition, kind)?;
                    store.add(Snapshot {
                        epoch: file_epoch & EPOCH_MASK,
                        partition: partition as usize,
                        kind: match kind {
                            SnapKind::Full => SnapshotKind::Full,
                            SnapKind::Delta | SnapKind::Merged => SnapshotKind::Delta,
                        },
                        state: bytes,
                        source_offsets: BTreeMap::new(),
                    });
                }
                let partitions = recovery_states(&store, shards, m.sealed_epoch)?;
                let log = DurableLog::open(
                    &dcfg.dir.join("log"),
                    shards,
                    log_cfg,
                    &dcfg.fault,
                    &m.offsets,
                )?;
                (log, partitions, m.incarnation, m.offsets.clone())
            }
        };

        // Replay the durable log into the in-memory broker, reproducing the
        // on-disk numbering (the broker and the log route identically).
        let mut next_call_id = 0u64;
        for (p, &sealed) in committed.iter().enumerate() {
            ingress.seed_partition(INGRESS_TOPIC, p, log.first_offset(p));
            for rec in log.read_from(p, 0, usize::MAX)? {
                let request = decode_ingress_record(&ir, &rec.payload).map_err(|detail| {
                    DurableError::CorruptLogRecord {
                        segment: format!("log partition {p}"),
                        offset: rec.offset,
                        detail,
                    }
                })?;
                next_call_id = next_call_id.max(request.call_id + 1);
                let (bp, bo) = ingress.produce(INGRESS_TOPIC, rec.key, request);
                debug_assert_eq!(
                    (bp, bo),
                    (p, rec.offset),
                    "replay must reproduce the log's numbering"
                );
            }
            ingress.commit(INGRESS_GROUP, INGRESS_TOPIC, p, sealed);
        }

        Ok(ShardRuntime {
            ir,
            map: Arc::new(ShardMap::uniform(shards)),
            ingress,
            partitions,
            next_call_id,
            durable: Some(DurableTier::new(log, snapshots, spill_dir, generation)),
            partial: BTreeMap::new(),
            config,
        })
    }

    /// The IR this runtime executes (ingress-side name→id resolution).
    pub fn ir(&self) -> &DataflowIR {
        &self.ir
    }

    /// Bulk-load an entity instance into its owning partition (setup phase).
    pub fn load_entity(&mut self, entity: &str, args: &[Value]) -> RuntimeResult<Value> {
        let (key, state) = interp::instantiate(&self.ir, entity, args)?;
        let class = self
            .ir
            .class_id(entity)
            .ok_or_else(|| RuntimeError::new(format!("unknown entity `{entity}`")))?;
        let addr = EntityAddr::from_ids(class, key);
        let reference = Value::EntityRef(addr.clone());
        let shard = self.map.route(&addr);
        self.partitions[shard].put(addr, state);
        Ok(reference)
    }

    /// Read a field of an entity (verification helper).
    pub fn read_field(&self, entity: &str, key: Key, field: &str) -> Option<Value> {
        let class = stateful_entities::ClassId::lookup(entity)?;
        let addr = EntityAddr::from_ids(class, key);
        self.partitions[self.map.route(&addr)]
            .get(&addr)
            .and_then(|s| s.get(field).cloned())
    }

    /// Number of loaded entity instances across all partitions.
    pub fn instance_count(&self) -> usize {
        self.partitions.iter().map(PartitionState::len).sum()
    }

    /// Every entity instance with its state, merged across partitions
    /// (equivalence-test helper).
    pub fn final_states(&self) -> BTreeMap<EntityAddr, EntityState> {
        self.partitions
            .iter()
            .flat_map(|p| p.iter().map(|(a, s)| (a.clone(), s.clone())))
            .collect()
    }

    /// Append a client request to the replayable ingress log. The record
    /// lands in the partition its target key hashes to, so the log's
    /// partitioning mirrors the shard map.
    ///
    /// **In-memory runtimes only.** A durable runtime's append can fail
    /// (full disk, I/O error, injected crash) and must observe the typed
    /// error via [`try_submit`](Self::try_submit) — calling `submit` there
    /// is a bug in the caller, flagged by a debug assertion rather than
    /// a process-killing panic on an error path that the typed API
    /// already covers.
    pub fn submit(&mut self, call: MethodCall) -> CallId {
        debug_assert!(
            self.durable.is_none(),
            "ShardRuntime::submit on a durable runtime — use try_submit, \
             durable appends can fail with a typed error"
        );
        // Invariant: with no durable tier, try_submit has no fallible step
        // (the in-memory broker append is infallible).
        self.try_submit(call)
            .expect("in-memory ingress append cannot fail")
    }

    /// [`submit`](Self::submit), surfacing durable-tier failures. On a
    /// durable runtime the record is appended to the on-disk log **before**
    /// it enters the in-memory broker — a crash between the two replays the
    /// call on restart rather than losing it. If the durable append fails
    /// (including an injected crash) the call id is *not* consumed and the
    /// broker never sees the request; a record whose bytes did land on disk
    /// torn is trimmed on recovery because no seal covers it.
    pub fn try_submit(&mut self, call: MethodCall) -> Result<CallId, ShardError> {
        let call_id = self.next_call_id;
        let key = call.target.key_hash();
        if let Some(tier) = self.durable.as_mut() {
            let payload = encode_ingress_record(call_id, &call);
            tier.disk.log.append(key, &payload)?;
        }
        let (partition, offset) =
            self.ingress
                .produce(INGRESS_TOPIC, key, IngressRequest { call_id, call });
        if let Some(tier) = self.durable.as_ref() {
            debug_assert_eq!(
                offset + 1,
                tier.disk.log.next_offset(partition),
                "broker and durable log must number records identically"
            );
        }
        self.next_call_id += 1;
        Ok(CallId(call_id))
    }

    /// Egress responses that were delivered before the last failed run died
    /// (keyed by raw call id). Empty after a successful run. After a durable
    /// crash, the union of these with the responses of the restarted
    /// deployment (later delivery wins — it deduplicates identically) is the
    /// complete egress.
    pub fn partial_egress(&self) -> &BTreeMap<u64, Result<Value, String>> {
        &self.partial
    }

    /// Process every submitted request to completion on the shard threads.
    ///
    /// Returns [`ShardError`] if a worker thread is lost (panic or silent
    /// exit); the partitions are reset to empty in that case — the
    /// deployment has lost state that only replay into a *new* runtime can
    /// rebuild.
    pub fn run(&mut self) -> Result<ShardReport, ShardError> {
        self.run_internal(None, None)
    }

    /// Run with a failure injected per `plan`: the victim shard's volatile
    /// state is lost mid-batch, every partition rolls back to the latest
    /// complete epoch, the ingress replays, and the egress deduplicates.
    /// (The [`FailureMode::WorkerExit`] flavor is *not* recoverable and
    /// surfaces [`ShardError::Disconnected`] instead.)
    pub fn run_with_failure(&mut self, plan: FailurePlan) -> Result<ShardReport, ShardError> {
        assert!(plan.kill_shard < self.config.shards, "victim out of range");
        self.run_internal(Some(plan), None)
    }

    /// Run the deployment as a **service**: the engine processes requests on
    /// this thread while `client` runs on a scoped thread with a
    /// [`service::ServiceHandle`] — opening sessions, submitting through
    /// the bounded front door, reading the sealed view, subscribing to CDC
    /// streams. The run drains and returns when the client closure returns
    /// (or calls [`service::ServiceHandle::close`]): every admitted call is
    /// answered, the tail epoch is sealed, and the report is returned along
    /// with the closure's result. See the [`service`] module docs for the
    /// admission → pipeline → seal → visibility invariants.
    pub fn serve<R, F>(&mut self, client: F) -> Result<(ShardReport, R), ShardError>
    where
        R: Send,
        F: FnOnce(service::ServiceHandle) -> R + Send,
    {
        self.serve_internal(None, client)
    }

    /// [`serve`](Self::serve) with a failure injected per `plan` — the
    /// service-mode counterpart of [`run_with_failure`](Self::run_with_failure).
    pub fn serve_with_failure<R, F>(
        &mut self,
        plan: FailurePlan,
        client: F,
    ) -> Result<(ShardReport, R), ShardError>
    where
        R: Send,
        F: FnOnce(service::ServiceHandle) -> R + Send,
    {
        assert!(plan.kill_shard < self.config.shards, "victim out of range");
        self.serve_internal(Some(plan), client)
    }

    fn serve_internal<R, F>(
        &mut self,
        failure: Option<FailurePlan>,
        client: F,
    ) -> Result<(ShardReport, R), ShardError>
    where
        R: Send,
        F: FnOnce(service::ServiceHandle) -> R + Send,
    {
        if self.config.epoch_every_batches == 0 {
            return Err(ShardError::Config {
                detail: "serve requires epoch_every_batches > 0: reads and CDC \
                         become visible at epoch seal"
                    .to_string(),
            });
        }
        // Defense in depth: both constructors verify before handing out a
        // runtime, so an unverified IR here means someone bypassed them.
        if !self.ir.is_verified() {
            return Err(ShardError::Config {
                detail: "serve requires a verified IR (construct via \
                         ShardRuntime::new or new_durable)"
                    .to_string(),
            });
        }
        let core = service::ServiceCore::new(
            Arc::clone(&self.map),
            self.config.shards,
            self.config.max_inflight_requests,
        );
        let handle = service::ServiceHandle::new(Arc::clone(&core));
        // The baseline cut (epoch 0) is the first read view — seeded from
        // the loaded partitions *before* the client thread exists, so even
        // a client's very first read observes a consistent cut.
        core.seed_view(&self.partitions);
        core.announce_cut(0);
        let (run, client_result) = std::thread::scope(|scope| {
            let client_thread = scope.spawn({
                let handle = handle.clone();
                let core = Arc::clone(&core);
                move || {
                    // Close the front door when the client returns — and on
                    // a client panic, so the coordinator still drains and
                    // exits instead of serving a departed caller forever.
                    struct CloseGuard(Arc<service::ServiceCore>);
                    impl Drop for CloseGuard {
                        fn drop(&mut self) {
                            self.0.close();
                        }
                    }
                    let _guard = CloseGuard(core);
                    client(handle)
                }
            });
            let run = self.run_internal(failure, Some(Arc::clone(&core)));
            // Run over (completed or aborted): drop every session and
            // subscription sender so client receive loops observe
            // disconnection rather than blocking forever.
            core.seal_outputs();
            (run, client_thread.join())
        });
        match client_result {
            Ok(value) => run.map(|report| (report, value)),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Epoch-0 baseline: a full snapshot of the bulk-loaded state per
    /// partition, so a failure before the first barrier recovers the loaded
    /// entities. On a durable runtime this is also the run's durable
    /// re-baseline ([`DurableTier::seal_baseline`]) — the last disk I/O the
    /// coordinator thread does itself.
    fn seed_baseline(
        &mut self,
        store: &mut SnapshotStore,
        start_offsets: &[u64],
    ) -> Result<(), ShardError> {
        let fulls: Vec<Vec<u8>> = self
            .partitions
            .iter_mut()
            .map(PartitionState::snapshot_full)
            .collect();
        if let Some(tier) = self.durable.as_mut() {
            tier.seal_baseline(&fulls, start_offsets)?;
        }
        for (partition, bytes) in fulls.into_iter().enumerate() {
            store.add(Snapshot {
                epoch: 0,
                partition,
                kind: SnapshotKind::Full,
                state: bytes,
                source_offsets: offsets_map(start_offsets),
            });
        }
        Ok(())
    }

    fn run_internal(
        &mut self,
        failure: Option<FailurePlan>,
        service: Option<Arc<service::ServiceCore>>,
    ) -> Result<ShardReport, ShardError> {
        let shards = self.config.shards;
        let mut report = ShardReport {
            events_per_shard: vec![0; shards],
            ..ShardReport::default()
        };

        // Each sealed delta folds into a per-partition decoded merge
        // (O(new dirty set) per epoch), so the recovery chain is permanently
        // `full + ≤ 1 merged delta` with no per-barrier re-encode of the
        // accumulated delta.
        let mut snapshot_store = SnapshotStore::new_amortized(shards);
        let start_offsets: Vec<u64> = (0..shards)
            .map(|p| self.ingress.committed(INGRESS_GROUP, INGRESS_TOPIC, p))
            .collect();
        let syncs_before = self.durable.as_ref().map_or(0, DurableTier::log_syncs);
        if let Err(error) = self.seed_baseline(&mut snapshot_store, &start_offsets) {
            // The durable baseline never became the commit point; the
            // in-memory partitions were not handed to workers, but the run
            // contract is that an erroring runtime keeps no usable state.
            self.partitions = (0..shards).map(|_| PartitionState::new()).collect();
            return Err(error);
        }
        // Monitored runs: the coordinator is role 0 on this thread, the
        // snapshot store is a single-writer tripwire, and the ingress broker
        // stamps per-record edges.
        if let Some(m) = &self.config.monitor {
            m.bind_current_thread(COORDINATOR_ROLE);
            snapshot_store.arm_monitor(Arc::clone(m));
            self.ingress.arm_monitor(Arc::clone(m));
            if let Some(core) = &service {
                core.arm_monitor(Arc::clone(m));
            }
        }
        // For the length of the run the durable tier leaves the runtime: the
        // writer thread borrows its files, the coordinator its seal ledger.
        let mut tier = self.durable.take();
        let (coord_tx, coord_rx) = channel::<ToCoordinator>();
        let (outcome, delivered) = std::thread::scope(|scope| {
            let durable = match tier.as_mut() {
                Some(DurableTier {
                    disk,
                    ledger,
                    spill_dir,
                }) => {
                    let monitor = self.config.monitor.clone();
                    match DurableWriter::spawn(scope, disk, coord_tx.clone(), monitor) {
                        Ok(writer) => Some(DurableRun {
                            writer,
                            ledger,
                            spill_dir: spill_dir.clone(),
                        }),
                        Err(error) => return (Err(error), BTreeMap::new()),
                    }
                }
                None => None,
            };
            let engine = Engine {
                snapshot_store,
                start_offsets,
                coord_tx,
                coord_rx,
                durable,
                failure,
                service,
            };
            self.run_threads(engine, &mut report)
        });
        if let Some(tier) = &tier {
            report.log_syncs = tier.log_syncs() - syncs_before;
        }
        self.durable = tier;

        match outcome {
            Ok(collected) => {
                for (id, result) in delivered {
                    match result {
                        Ok(value) => {
                            report.responses.insert(id, value);
                        }
                        Err(message) => {
                            report.errors.insert(id, message);
                        }
                    }
                }
                self.partitions = collected;
                self.partial.clear();
                Ok(report)
            }
            Err(error) => {
                // The lost worker took its partition with it; leave the
                // runtime in a defined (empty) state rather than a torn one.
                // Keep what was already answered: after a durable crash the
                // client unions this with the restarted deployment's egress.
                self.partitions = (0..shards).map(|_| PartitionState::new()).collect();
                self.partial = delivered;
                Err(error)
            }
        }
    }

    /// Spawn the shard threads, drive the run, and shut every thread down —
    /// the durable writer last, once it has drained its final job. Returns
    /// the collected partitions (or the run's error) and the egress.
    fn run_threads(&mut self, engine: Engine<'_>, report: &mut ShardReport) -> RunOutcome {
        let shards = self.config.shards;
        let Engine {
            snapshot_store,
            start_offsets,
            coord_tx,
            coord_rx,
            durable,
            failure,
            service,
        } = engine;
        let monitor = self.config.monitor.clone();
        let schedule = self.config.schedule;
        let defect = self.config.defect;
        // Spawn the shard threads, moving each partition into its owner.
        let mut shard_txs: Vec<Sender<ToShard>> = Vec::with_capacity(shards);
        let mut shard_rxs: Vec<Receiver<ToShard>> = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel();
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(shards);
        for (shard, (rx, mut state)) in shard_rxs
            .into_iter()
            .zip(std::mem::take(&mut self.partitions))
            .enumerate()
        {
            // Each spawn carries the coordinator's clock; the worker joins
            // it first thing, so a monitor reused across runs never sees a
            // fresh worker as concurrent with the previous run's accesses.
            let spawn_stamp = monitor.as_ref().map(|m| {
                state.arm_monitor(Arc::clone(m), shard);
                m.stamp(COORDINATOR_ROLE)
            });
            let worker = ShardWorker {
                shard,
                ir: Arc::clone(&self.ir),
                map: Arc::clone(&self.map),
                state,
                incarnation: 0,
                inbox: rx,
                peers: shard_txs.clone(),
                coordinator: coord_tx.clone(),
                pending_encodes: VecDeque::new(),
                spill_dir: durable.as_ref().map(|d| d.spill_dir.clone()),
                max_pending_captures: self.config.max_pending_captures,
                captures_spilled: 0,
                local: VecDeque::new(),
                out: BTreeMap::new(),
                out_responses: Vec::new(),
                events_processed: 0,
                cross_shard_batches: 0,
                cross_shard_events: 0,
                hop_frame_bytes: 0,
                monitor: monitor.clone(),
                role: shard_role(shard),
                schedule: schedule
                    .as_ref()
                    .map(|plan| racecheck::ScheduleRng::new(plan, shard_role(shard))),
                defect,
                spawn_stamp,
            };
            let death_notice = coord_tx.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("shard-{shard}"))
                .spawn(move || {
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run()));
                    if let Err(payload) = result {
                        let message = panic_message(payload.as_ref());
                        let _ = death_notice.send(ToCoordinator::WorkerDied { shard, message });
                    }
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(err) => {
                    // OS thread exhaustion is reachable under load — release
                    // the shards already started and surface a typed error
                    // instead of killing the process.
                    for tx in shard_txs.iter().take(shard) {
                        let _ = tx.send(ToShard::Shutdown);
                    }
                    for handle in handles {
                        let _ = handle.join();
                    }
                    let error = ShardError::Spawn {
                        shard,
                        detail: err.to_string(),
                    };
                    return (Err(error), BTreeMap::new());
                }
            }
        }
        let total_calls = self.next_call_id as usize;
        // The epoch-0 baseline is every partition's first anchor.
        let rebase = RebaseMeter::new((0..shards).map(|p| {
            snapshot_store
                .epoch(0)
                .and_then(|parts| parts.get(&p))
                .map_or(0, |snap| snap.state.len() as u64)
        }));
        let mut coordinator = Coordinator {
            runtime: self,
            shard_txs,
            coord_rx,
            handles,
            snapshot_store,
            rebase,
            incarnation: 0,
            epoch: 0,
            batches_since_epoch: 0,
            consumed: start_offsets.clone(),
            queues: Vec::new(),
            deferred: VecDeque::new(),
            in_flight: None,
            pending: vec![0; total_calls],
            pending_offsets: BTreeMap::new(),
            delivered: BTreeMap::new(),
            footprints: FootprintSet::default(),
            spare_reservations: ConflictMap::default(),
            reservations: ConflictMap::default(),
            failure,
            service,
            call_sessions: HashMap::new(),
            durable,
            awaiting: VecDeque::new(),
            pending_view: BTreeMap::new(),
            watermark: 0,
            pending_watermarks: BTreeMap::new(),
            // The baseline seal (epoch 0) predates any consumption this run.
            sealed_watermarks: BTreeMap::from([(0, 0)]),
            monitor: monitor.clone(),
            schedule: schedule
                .as_ref()
                .map(|plan| racecheck::ScheduleRng::new(plan, COORDINATOR_ROLE)),
            defect,
        };
        coordinator.refill_queues(&start_offsets);

        // Drive the run, then collect final states back. Shut the threads
        // down either way: a worker-loss error must still release the
        // surviving threads before surfacing.
        let mut outcome = coordinator
            .drive(report)
            .and_then(|()| coordinator.collect_final(report));
        for tx in &coordinator.shard_txs {
            let _ = tx.send(ToShard::Shutdown);
        }
        for handle in std::mem::take(&mut coordinator.handles) {
            let _ = handle.join();
        }
        // The writer drains its queued seal jobs before it exits, so the
        // last manifest is on disk before the run returns; a failure it
        // meets doing so fails the run.
        if let Some(durable) = coordinator.durable.take() {
            if let (Err(error), true) = (durable.writer.finish(), outcome.is_ok()) {
                outcome = Err(error);
            }
        }
        (outcome, std::mem::take(&mut coordinator.delivered))
    }
}

/// The inputs [`ShardRuntime::run_threads`] takes over from the run's set-up.
struct Engine<'a> {
    snapshot_store: SnapshotStore,
    start_offsets: Vec<u64>,
    coord_tx: Sender<ToCoordinator>,
    coord_rx: Receiver<ToCoordinator>,
    durable: Option<DurableRun<'a>>,
    failure: Option<FailurePlan>,
    service: Option<Arc<service::ServiceCore>>,
}

/// A run's result: the collected partitions (or the error that ended the
/// run) and the egress delivered either way.
type RunOutcome = (
    Result<Vec<PartitionState>, ShardError>,
    BTreeMap<u64, Result<Value, String>>,
);

/// The coordinator's side of the durable tier during a run.
struct DurableRun<'a> {
    writer: DurableWriter<'a>,
    ledger: &'a mut SealLedger,
    spill_dir: PathBuf,
}

/// The text of a caught panic's payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn offsets_map(consumed: &[u64]) -> BTreeMap<usize, u64> {
    consumed.iter().copied().enumerate().collect()
}

/// Rebuild every partition's state at a sealed `epoch`, mapping store-level
/// failures to typed [`ShardError`]s: a chain that fails to decode names the
/// epoch and partition ([`ShardError::CorruptSnapshot`]); a chain with no
/// full anchor names the epoch ([`ShardError::IncompleteEpoch`]). Factored
/// out of [`Coordinator`] so damaged-store handling is testable without a
/// live deployment.
fn recovery_states(
    store: &SnapshotStore,
    shards: usize,
    epoch: u64,
) -> Result<Vec<PartitionState>, ShardError> {
    (0..shards)
        .map(|partition| match store.reconstruct(partition, epoch) {
            Ok(Some(state)) => Ok(state),
            Ok(None) => Err(ShardError::IncompleteEpoch { epoch }),
            Err(err) => Err(ShardError::CorruptSnapshot {
                epoch,
                partition,
                detail: err.to_string(),
            }),
        })
        .collect()
}

/// A conflict key on the coordinator's hot path: `(class id, cached 64-bit
/// key hash)`. Using the hash instead of the key bytes makes reservation
/// probes allocation- and comparison-free. A (vanishingly rare) hash
/// collision makes two *distinct* entities look like one key; with two-kind
/// footprints the collision cases are: reader/reader — they commit together,
/// which is safe whether or not the keys are really equal (reads never need
/// ordering); and reader/writer or writer/writer — the later call **defers
/// conservatively** exactly as if the keys were equal, which merely delays
/// an unrelated call by a batch. Deterministic and conservative, never
/// incorrect — `colliding_reader_and_writer_defer_conservatively` pins the
/// mixed case.
type ConflictKey = (u32, u64);

/// A minimal multiply-xor hasher for [`ConflictKey`] maps on the
/// coordinator's hot path, and for the service read view's
/// [`EntityAddr`]-keyed maps (an address hashes the same two integers). The
/// inputs are already well-mixed (the `u64` is the cached FNV key hash), so
/// SipHash's DoS resistance buys nothing here while costing ~2× per probe.
/// Deterministic; no map iteration order is ever observable in results.
#[derive(Default)]
pub(crate) struct ConflictKeyHasher(u64);

impl std::hash::Hasher for ConflictKeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A reservation table keyed by [`ConflictKey`] with the cheap hasher; the
/// value is the OR of every reserving call's [access mask](ACCESS_READ).
type ConflictMap = HashMap<ConflictKey, u8, std::hash::BuildHasherDefault<ConflictKeyHasher>>;

/// Access-lattice bit: the chain provably only reads the key.
const ACCESS_READ: u8 = 1;
/// Access-lattice bit: the key is the target of a simple commutative
/// read-modify-write — order-insensitive among its peers, exclusive against
/// everything else.
const ACCESS_COMM: u8 = 2;
/// Access-lattice bit: the chain may write the key exclusively.
const ACCESS_WRITE: u8 = 4;

/// Two access masks are compatible iff their union is pure-read or
/// pure-commutative; any other mix on a shared key is a conflict. With only
/// the `READ`/`WRITE` bits in play this is exactly the PR 4 two-kind rule
/// ("at least one side writes"); the `COMM` bit adds the second diagonal.
#[inline]
fn access_conflict(a: u8, b: u8) -> bool {
    let union = a | b;
    union != ACCESS_READ && union != ACCESS_COMM
}

/// One call's deduplicated conflict footprint: each key tagged with the
/// access mask the call chain may exercise on it. Keys of all calls of a
/// batch live contiguously in one reused arena (no per-call allocation on
/// the coordinator hot path).
#[derive(Debug, Default)]
struct FootprintSet {
    /// `(key, access mask)` pairs, all calls back to back.
    keys: Vec<(ConflictKey, u8)>,
    /// Half-open `keys` range per call.
    spans: Vec<(u32, u32)>,
}

impl FootprintSet {
    fn clear(&mut self) {
        self.keys.clear();
        self.spans.clear();
    }

    fn len(&self) -> usize {
        self.spans.len()
    }

    fn call(&self, i: usize) -> &[(ConflictKey, u8)] {
        let (start, end) = self.spans[i];
        &self.keys[start as usize..end as usize]
    }

    /// Append one `(key, access)` pair to the call currently being built,
    /// merging duplicates within the call (a self-transfer's target and
    /// argument are the same key; it must not conflict with itself, and the
    /// merged mask is the OR of the two — a multi-bit mask then conflicts
    /// with everything, which is the conservative direction).
    fn add_key(&mut self, start: usize, key: ConflictKey, access: u8) {
        for existing in &mut self.keys[start..] {
            if existing.0 == key {
                existing.1 |= access;
                return;
            }
        }
        self.keys.push((key, access));
    }

    /// Append a call's static footprint: the target entity plus every entity
    /// reference among the arguments (scanned through lists), each key
    /// classified on the Read / CommWrite / Write lattice by the
    /// compile-time effect bits on the resolved IR. The target key follows
    /// `writes_self` (escalating commutative targets to `ACCESS_COMM`);
    /// argument keys follow the per-parameter write mask `param_effects[j]`.
    ///
    /// **Soundness of the key set.** The footprint must cover every entity
    /// the whole call chain can touch. This holds for *every* program the
    /// front end accepts, by induction over the chain: the type checker
    /// rejects entity-typed fields outright ("entity state may not hold
    /// references to other entities", see
    /// `typechecker_forbids_stored_entity_refs`), so a method can obtain an
    /// entity reference only from its arguments (directly or inside a list)
    /// or from a callee's return value — and the callee's returnable
    /// references derive from *its* arguments by the same induction. Every
    /// reference in the chain therefore originates in the root call's target
    /// or argument values, which is exactly what this scan covers. If the
    /// front end ever learns to store references in entity state, this
    /// footprint (and the batch isolation it buys) becomes unsound — the
    /// pinned test below is the tripwire.
    ///
    /// **Soundness of the kinds.** `writes_self` and the per-parameter
    /// masks are the fixpoint-propagated over-approximations from
    /// `stateful_entities::effects`: a key classified read-only is provably
    /// never written by the chain, and a key classified commutative is the
    /// root target of a *simple* commutative method — its increments are
    /// dispatched to the owning shard over one FIFO channel in batch order,
    /// so intra-batch peers apply in arrival order (see the module docs).
    /// An unknown method (impossible for calls built by `resolve_call`)
    /// classifies everything as written.
    fn add_call(&mut self, ir: &DataflowIR, call: &MethodCall) {
        fn scan(set: &mut FootprintSet, start: usize, value: &Value, access: u8) {
            match value {
                Value::EntityRef(addr) => {
                    set.add_key(start, (addr.class.as_u32(), addr.key_hash()), access)
                }
                Value::List(items) => {
                    for item in items {
                        scan(set, start, item, access);
                    }
                }
                _ => {}
            }
        }
        let start = self.keys.len();
        let method = ir
            .operator_by_id(call.target.class)
            .and_then(|op| op.method_by_id(call.method));
        let target_access = match method {
            Some(m) if !m.writes_self => ACCESS_READ,
            Some(m) if m.commutative => ACCESS_COMM,
            _ => ACCESS_WRITE,
        };
        self.add_key(
            start,
            (call.target.class.as_u32(), call.target.key_hash()),
            target_access,
        );
        for (j, arg) in call.args.iter().enumerate() {
            let writes = method.is_none_or(|m| m.param_effects.get(j).copied().unwrap_or(true));
            let access = if writes { ACCESS_WRITE } else { ACCESS_READ };
            scan(self, start, arg, access);
        }
        self.spans.push((start as u32, self.keys.len() as u32));
    }
}

/// The order-preserving commit rule over one batch of access-lattice
/// footprints, optionally seeded with the reservations of a
/// still-in-flight earlier batch. A call conflicts iff it shares a key
/// with an earlier reservation (in-flight, or lower-sequence within the
/// batch) **whose access mask is incompatible** ([`access_conflict`]):
/// read-read and comm-comm pairs commit together, every other mix defers
/// the later call. On read/write masks alone this is Aria's WAW/RAW checks
/// plus the order-preserving WAR check (see
/// [`txn::execute_batch_ordered`], the reference implementation this is
/// property-tested against); the commutative diagonal mirrors the txn
/// crate's `comm_write` kind. One pass, one reusable map.
///
/// Returns a mask: `true` = deferred. Deferred calls still reserve their
/// keys, so a chain of conflicting calls defers *together* and re-enters the
/// next batch in arrival order — commit order equals arrival order for every
/// pair with a write, which is what makes the engine oracle-equivalent.
fn ordered_commit_mask(
    batch: &FootprintSet,
    in_flight: Option<&ConflictMap>,
    reservations: &mut ConflictMap,
) -> Vec<bool> {
    reservations.clear();
    if let Some(held) = in_flight {
        for (key, access) in held {
            reservations.insert(*key, *access);
        }
    }
    let mut deferred = vec![false; batch.len()];
    for (seq, slot) in deferred.iter_mut().enumerate() {
        let footprint = batch.call(seq);
        let mut conflict = false;
        // Check first, then reserve: a call never conflicts with itself
        // (footprints are per-call deduplicated).
        for (key, access) in footprint {
            if let Some(earlier) = reservations.get(key) {
                if access_conflict(*earlier, *access) {
                    conflict = true;
                    break;
                }
            }
        }
        for (key, access) in footprint {
            reservations
                .entry(*key)
                .and_modify(|a| *a |= *access)
                .or_insert(*access);
        }
        *slot = conflict;
    }
    deferred
}

/// A dispatched-but-not-yet-retired batch: its dispatch ordinal, the call
/// ids the coordinator still owes responses for, and the committed calls'
/// merged reservations (what the next batch's commit mask is seeded with).
struct InFlightBatch {
    batch_no: u64,
    /// Dense tag this batch's pending entries carry (batch-number parity +
    /// 1; the two live pipeline slots always differ).
    tag: u8,
    committed: Vec<u64>,
    reservations: ConflictMap,
}

/// The coordinator's per-run state: ingress cursors, the deferral queue, the
/// pipeline slot, the snapshot store, and the egress dedup map (which
/// deliberately survives recoveries — the egress sits outside the failure
/// domain).
struct Coordinator<'a> {
    runtime: &'a mut ShardRuntime,
    shard_txs: Vec<Sender<ToShard>>,
    coord_rx: Receiver<ToCoordinator>,
    /// Worker thread handles, probed for liveness when the channel goes
    /// quiet (see [`ShardError::Disconnected`]).
    handles: Vec<JoinHandle<()>>,
    snapshot_store: SnapshotStore,
    /// Decides which barriers rebase (see [`rebase`]).
    rebase: RebaseMeter,
    incarnation: u64,
    epoch: u64,
    batches_since_epoch: u64,
    /// Per-ingress-partition consumed offsets (exclusive).
    consumed: Vec<u64>,
    /// Per-ingress-partition pending records, heads at the cursor.
    queues: Vec<VecDeque<IngressRequest>>,
    /// Calls deferred by the commit rule, in arrival order, each with the
    /// number of consecutive times it has been deferred (drives the
    /// adaptive fallback).
    deferred: VecDeque<(IngressRequest, u32)>,
    /// The still-executing previous batch (pipeline depth 2: at most one
    /// batch is in flight when the next one dispatches).
    in_flight: Option<InFlightBatch>,
    /// Per-call-id pending tag, indexed by call id (ids are dense, assigned
    /// at submission): 0 = no response owed, otherwise the in-flight
    /// batch's tag. Responses are pumped eagerly while waiting for any
    /// batch, so a later `collect` must not re-wait for ids already in —
    /// a dense vector keeps that bookkeeping O(1) per response with no
    /// hashing on the hot path.
    pending: Vec<u8>,
    /// Ingress offsets recorded at each *announced* (pending) epoch's cut,
    /// consumed when the epoch seals (the offsets then move into the store
    /// and the ingress commit happens). Cleared on recovery — a pending
    /// epoch of the failed timeline never commits anything.
    pending_offsets: BTreeMap<u64, BTreeMap<usize, u64>>,
    /// Egress: first response delivered per call id (dedup on replay).
    delivered: BTreeMap<u64, Result<Value, String>>,
    /// Reusable footprint arena for the batch being committed.
    footprints: FootprintSet,
    /// Recycled reservation map for the next dispatched batch (retired
    /// batches donate theirs back instead of reallocating).
    spare_reservations: ConflictMap,
    /// Reusable reservation table for the per-batch commit rule.
    reservations: ConflictMap,
    failure: Option<FailurePlan>,
    /// Service mode ([`ShardRuntime::serve`]): the shared front door, read
    /// view, and CDC fan-out. `None` for a plain batch run.
    service: Option<Arc<service::ServiceCore>>,
    /// Which session/sequence each service-admitted call answers to,
    /// removed at first delivery (exactly-once to sessions — a replayed
    /// duplicate finds no entry).
    call_sessions: HashMap<u64, (u64, u64)>,
    /// The durable writer and the seal ledger (`None` in memory).
    durable: Option<DurableRun<'a>>,
    /// Admitted calls handed to the durable writer whose group commit has
    /// not been confirmed yet, in call-id order with their partitioning
    /// keys. They enter the broker and the scheduling queues only when a
    /// durable notice covers them.
    awaiting: VecDeque<(u64, IngressRequest)>,
    /// Decoded snapshot images per **pending** epoch, applied to the read
    /// view (and emitted as CDC) when the epoch seals. Cleared on recovery:
    /// a failed timeline's pending cut must never become visible.
    pending_view: BTreeMap<u64, Vec<(usize, state_backend::DecodedImage)>>,
    /// One past the highest call id consumed from ingress. Because
    /// [`Coordinator::form_batch`] merges partitions by **global minimum
    /// call id**, the consumed set is always a call-id prefix — so this
    /// single number fully describes it.
    watermark: u64,
    /// Watermark recorded at each *announced* (pending) epoch's cut,
    /// promoted on seal. Mirrors `pending_offsets`.
    pending_watermarks: BTreeMap<u64, u64>,
    /// Watermark per **sealed** epoch: every call id below it was answered
    /// (and its response delivered) by that epoch's cut, and a recovery to
    /// that epoch can only replay ids at or above it — which makes
    /// everything below it safe to prune from the egress dedup map.
    sealed_watermarks: BTreeMap<u64, u64>,
    /// Race monitor + commit-order certifier (`None` = unmonitored).
    monitor: Option<Arc<racecheck::Monitor>>,
    /// The coordinator's schedule-perturbation stream (`None` = natural).
    schedule: Option<racecheck::ScheduleRng>,
    /// Seeded defect injection (inert by default).
    defect: racecheck::DefectPlan,
}

impl Coordinator<'_> {
    /// (Re-)read every ingress partition from `offsets` to its end —
    /// offset-addressed, so replay after a rewind re-reads exactly the
    /// records the recovery snapshot's cursors name.
    fn refill_queues(&mut self, offsets: &[u64]) {
        let shards = self.runtime.config.shards;
        self.queues = (0..shards)
            .map(|p| {
                self.runtime
                    .ingress
                    .read_from(INGRESS_TOPIC, p, offsets[p], usize::MAX)
                    .into_iter()
                    .map(|r| r.value)
                    .collect()
            })
            .collect();
    }

    /// Service mode: admit everything the sessions queued, assigning call
    /// ids in arrival order. In memory the calls go straight into the
    /// replayable ingress. On a durable runtime the pump encodes them and
    /// hands them to the durable writer as one log group; they wait in
    /// `awaiting` until the writer's group commit covers them (see
    /// [`Coordinator::release_durable`]), so an answered service call is
    /// always a durable one and the pump itself never touches the disk.
    fn pump_service(&mut self) {
        let Some(core) = self.service.clone() else {
            return;
        };
        let drained = core.drain_requests(usize::MAX);
        if drained.is_empty() {
            return;
        }
        let mut group: EncodedGroup = Vec::new();
        for request in drained {
            // Admission edge: the submitting session's clock flows into the
            // coordinator here, before the call id is assigned.
            if let (Some(monitor), Some(stamp)) = (&self.monitor, &request.stamp) {
                monitor.join(COORDINATOR_ROLE, stamp);
            }
            let call_id = self.runtime.next_call_id;
            self.runtime.next_call_id += 1;
            if self.pending.len() <= call_id as usize {
                self.pending.resize(call_id as usize + 1, 0);
            }
            self.call_sessions
                .insert(call_id, (request.session, request.seq));
            let key = request.call.target.key_hash();
            let record = IngressRequest {
                call_id,
                call: request.call,
            };
            if self.durable.is_some() {
                group.push((key, encode_ingress_record(call_id, &record.call)));
                self.awaiting.push_back((key, record));
            } else {
                self.admit(key, record);
            }
        }
        if let Some(durable) = &self.durable {
            durable.writer.send_group(group, self.runtime.next_call_id);
        }
    }

    /// Put one admitted call into the replayable ingress and its scheduling
    /// queue (queues are normally filled by reading the broker — this just
    /// skips the re-read for the common path).
    fn admit(&mut self, key: u64, record: IngressRequest) {
        let (partition, _offset) = self
            .runtime
            .ingress
            .produce(INGRESS_TOPIC, key, record.clone());
        self.queues[partition].push_back(record);
    }

    /// The durable writer's notice: every call id below `through` (the end
    /// of the last group its fsync covered) is durable. Admit the covered
    /// calls in call-id order — the order the writer appended them, so the
    /// broker numbers each record exactly as the on-disk log does.
    fn release_durable(&mut self, through: u64, stamp: Option<racecheck::Stamp>) {
        if let Some(monitor) = &self.monitor {
            if let Some(stamp) = stamp.filter(|_| !self.defect.drop_durable_notice_stamp) {
                monitor.join(COORDINATOR_ROLE, &stamp);
            }
            monitor.access(
                COORDINATOR_ROLE,
                racecheck::Resource::LogGroup(through),
                racecheck::AccessKind::Read,
                "admit durable records",
            );
        }
        while let Some((key, record)) = self
            .awaiting
            .pop_front_if(|(_, record)| record.call_id < through)
        {
            self.admit(key, record);
        }
    }

    /// Service mode, quiescent point: everything admitted so far is
    /// answered and the pipeline is drained. Seal the tail epoch (reads and
    /// CDC advance at the seal — idle is the cheapest possible cut), then
    /// park on the front door's condvar until sessions submit more work or
    /// the service closes. Returns `Ok(true)` to re-enter the batch loop,
    /// `Ok(false)` when the service is closed and fully drained.
    fn service_idle(&mut self, report: &mut ShardReport) -> Result<bool, ShardError> {
        let Some(core) = self.service.clone() else {
            return Ok(false);
        };
        loop {
            self.pump_service();
            if !self.deferred.is_empty() || self.queues.iter().any(|q| !q.is_empty()) {
                // Fresh admissions — or a recovery inside the idle barrier
                // rewound and refilled.
                return Ok(true);
            }
            if !self.awaiting.is_empty() {
                // Nothing dispatchable until the writer's group commit
                // lands: block on the channel its notice arrives on.
                let msg = self.recv_message()?;
                self.absorb_background(report, msg)?;
                continue;
            }
            if self.batches_since_epoch > 0 {
                self.epoch_barrier(report)?;
                continue; // re-check: the barrier may have recovered
            }
            let (closed, empty) = core.ingress_state();
            if closed && empty {
                return Ok(false);
            }
            // Stay responsive to background byte arrivals (epochs seal
            // here too) and to worker or writer loss while parked.
            self.try_absorb(report)?;
            self.check_liveness()?;
            core.wait_for_work(Duration::from_millis(1));
        }
    }

    /// Drain every coordinator message already queued, without blocking —
    /// the idle loop's counterpart of [`Coordinator::recv_message`], with
    /// the same worker-loss conversions.
    fn try_absorb(&mut self, report: &mut ShardReport) -> Result<(), ShardError> {
        loop {
            match self.coord_rx.try_recv() {
                Ok(ToCoordinator::WorkerDied { shard, message }) => {
                    return Err(ShardError::WorkerPanicked { shard, message });
                }
                Ok(ToCoordinator::DurableFailed { error }) => {
                    return Err(ShardError::Durable { error });
                }
                Ok(ToCoordinator::Misrouted {
                    shard,
                    call_id,
                    addr,
                }) => {
                    return Err(ShardError::Misrouted {
                        shard,
                        call_id,
                        addr,
                    });
                }
                Ok(msg) => self.absorb_background(report, msg)?,
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => {
                    return Err(ShardError::Disconnected {
                        shard: self.finished_worker().unwrap_or(0),
                    });
                }
            }
        }
    }

    /// Main batch loop: form → commit-rule (seeded with the in-flight
    /// batch's reservations) → dispatch → (maybe crash) → retire the
    /// *previous* batch → promote → (maybe barrier), until ingress, deferral
    /// queue, and pipeline drain.
    fn drive(&mut self, report: &mut ShardReport) -> Result<(), ShardError> {
        loop {
            // Service mode: admit whatever the sessions queued since the
            // last look (non-blocking; plain runs skip this entirely).
            self.pump_service();
            // Adaptive footprint fallback: a call starved past the
            // threshold gets the pipeline drained and a batch of its own —
            // a solo batch in an empty pipeline commits unconditionally,
            // whatever the effect analysis thought of its footprint. The
            // starved call is the deferral queue's head (earliest arrival),
            // so committing it first preserves arrival order exactly.
            let threshold = self.runtime.config.adaptive_fallback_after;
            let fallback = threshold > 0
                && self
                    .deferred
                    .front()
                    .is_some_and(|(_, count)| *count >= threshold);
            if fallback {
                if let Some(prev) = self.in_flight.take() {
                    if self.retire_batch(prev, report)? {
                        continue;
                    }
                }
                report.adaptive_fallbacks += 1;
            }
            let batch = if fallback {
                // Invariant: `fallback` just observed the non-empty head.
                vec![self.deferred.pop_front().expect("starved head exists")]
            } else {
                self.form_batch()
            };
            if batch.is_empty() {
                // Ingress and deferral queue are exhausted; drain the
                // pipeline. The retired batch can still trigger a pending
                // after-delivery crash plan, whose replay refills the queues.
                if let Some(prev) = self.in_flight.take() {
                    if self.retire_batch(prev, report)? {
                        continue;
                    }
                }
                // Service mode: quiesced is not done — seal what ran, then
                // park until sessions submit more or the front door closes.
                if self.service.is_some() && self.service_idle(report)? {
                    continue;
                }
                break;
            }

            // Failure injection, worker-exit flavor: the victim's thread
            // leaves silently *before* this batch dispatches, so its calls
            // are never answered and the coordinator must detect the dead
            // shard rather than wait forever.
            if let Some(plan) = self.take_fired_plan(FailureMode::WorkerExit, report.batches + 1) {
                let _ = self.shard_txs[plan.kill_shard].send(ToShard::Shutdown);
            }

            if self.in_flight.is_some() {
                report.pipelined_batches += 1;
            }
            let flight = self.commit_and_dispatch(batch, report);
            report.batches += 1;

            // In-flight flavor: crash with this batch dispatched and
            // uncollected — and, when the pipeline is loaded, the previous
            // batch *also* still in flight.
            if self
                .take_fired_plan(FailureMode::InFlight, report.batches)
                .is_some()
            {
                self.recover(report)?;
                continue;
            }

            // Retire the previous batch (collect its responses; the current
            // one keeps executing underneath), then promote the current one.
            if let Some(prev) = self.in_flight.take() {
                if self.retire_batch(prev, report)? {
                    continue; // recovery wiped the pipeline and rewound
                }
            }
            self.in_flight = Some(flight);
            self.batches_since_epoch += 1;

            let cadence = self.runtime.config.epoch_every_batches;
            if cadence > 0 && self.batches_since_epoch >= cadence {
                self.epoch_barrier(report)?;
            }
        }
        // Every batch retired; captured epochs may still be encoding in the
        // background — the run is not durable until they seal.
        self.drain_unsealed_epochs(report)?;
        // The run is over: everything consumed is committed, so a later run
        // on the same runtime resumes after the already-answered requests.
        for (partition, offset) in self.consumed.iter().enumerate() {
            self.runtime
                .ingress
                .commit(INGRESS_GROUP, INGRESS_TOPIC, partition, *offset);
        }
        Ok(())
    }

    /// The single firing rule for injected failure plans: the pending plan
    /// fires (and is consumed) when the lifecycle point `mode` is reached by
    /// a batch whose number is at or past the trigger. `>=` rather than `==`
    /// because deferral-drain batches inside an epoch barrier advance the
    /// count too — a plan aimed between them must not be skipped over.
    fn take_fired_plan(&mut self, mode: FailureMode, batch_no: u64) -> Option<FailurePlan> {
        match self.failure {
            Some(plan) if plan.mode == mode && batch_no >= plan.after_batch => {
                self.failure = None;
                Some(plan)
            }
            _ => None,
        }
    }

    /// Collect a retired batch's responses, then fire a pending
    /// after-delivery crash plan if this batch reached its trigger. Returns
    /// `Ok(true)` if a recovery happened (callers must abandon their current
    /// step — queues, deferrals, and the pipeline were reset).
    fn retire_batch(
        &mut self,
        prev: InFlightBatch,
        report: &mut ShardReport,
    ) -> Result<bool, ShardError> {
        self.collect_responses(&prev, report)?;
        // Donate the retired batch's reservation map back to the dispatcher.
        let InFlightBatch {
            batch_no,
            mut reservations,
            ..
        } = prev;
        reservations.clear();
        self.spare_reservations = reservations;
        // The certifier observes the retire stream: this batch's
        // reservations no longer constrain later dispatches.
        if let Some(monitor) = &self.monitor {
            monitor.certify_retire(batch_no);
        }
        if self
            .take_fired_plan(FailureMode::AfterDelivery, batch_no)
            .is_some()
        {
            self.recover(report)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Take the next batch in deterministic order: deferred calls first (they
    /// keep their arrival order and get the lowest sequence numbers), then
    /// fresh ingress records merged across partitions by call id.
    fn form_batch(&mut self) -> Vec<(IngressRequest, u32)> {
        let size = self.runtime.config.batch_size;
        let mut batch = Vec::with_capacity(size);
        while batch.len() < size {
            if let Some(entry) = self.deferred.pop_front() {
                batch.push(entry);
                continue;
            }
            let next = self
                .queues
                .iter()
                .enumerate()
                .filter_map(|(p, q)| q.front().map(|r| (r.call_id, p)))
                .min();
            let Some((_, partition)) = next else { break };
            // Invariant: `next` just observed this queue's non-empty head.
            let request = self.queues[partition].pop_front().expect("peeked head");
            self.consumed[partition] += 1;
            // Global-minimum merge ⇒ consumption is a call-id prefix; track
            // its (exclusive) upper bound for egress retention.
            self.watermark = self.watermark.max(request.call_id + 1);
            batch.push((request, 0));
        }
        batch
    }

    /// Run the order-preserving commit rule ([`ordered_commit_mask`], seeded
    /// with the in-flight batch's reservations), requeue deferrals at the
    /// front, and dispatch the committed calls as per-shard event batches.
    /// Returns the batch's pipeline record: its committed call ids (the
    /// coordinator owes one response each) and their merged reservations
    /// (what the *next* batch's mask will be seeded with).
    fn commit_and_dispatch(
        &mut self,
        batch: Vec<(IngressRequest, u32)>,
        report: &mut ShardReport,
    ) -> InFlightBatch {
        self.footprints.clear();
        for (request, _) in &batch {
            self.footprints.add_call(&self.runtime.ir, &request.call);
        }
        let mut deferred_mask = ordered_commit_mask(
            &self.footprints,
            self.in_flight.as_ref().map(|b| &b.reservations),
            &mut self.reservations,
        );
        let batch_no = report.batches + 1;
        // Defect injection: force one deferral through as committed — the
        // engine then genuinely dispatches a conflicting pair, and the
        // certifier must name this batch and the shared (class, key).
        if self.defect.mis_mask_batch == Some(batch_no) {
            if let Some(flag) = deferred_mask.iter_mut().find(|deferred| **deferred) {
                *flag = false;
            }
        }
        // Independent re-derivation of the commit rule: feed the certifier
        // every call's footprint and verdict, in batch order.
        if let Some(monitor) = &self.monitor {
            let entries: Vec<racecheck::CertEntryRef<'_>> = batch
                .iter()
                .zip(&deferred_mask)
                .enumerate()
                .map(|(seq, ((request, _), deferred))| racecheck::CertEntryRef {
                    call_id: request.call_id,
                    committed: !*deferred,
                    keys: self.footprints.call(seq),
                })
                .collect();
            monitor.certify_batch_by_ref(batch_no, &entries);
        }

        // Dispatch committed calls, batched per (shard, class) like the
        // workers' mailboxes; the call moves into its event, no clone.
        let tag = (batch_no % 2) as u8 + 1;
        let mut committed: Vec<u64> = Vec::with_capacity(batch.len());
        let mut reservations = std::mem::take(&mut self.spare_reservations);
        let mut newly_deferred: Vec<(IngressRequest, u32)> = Vec::new();
        let mut outgoing: BTreeMap<(usize, u32), Vec<Event>> = BTreeMap::new();
        for (seq, ((request, defer_count), deferred)) in
            batch.into_iter().zip(&deferred_mask).enumerate()
        {
            if *deferred {
                newly_deferred.push((request, defer_count + 1));
                continue;
            }
            committed.push(request.call_id);
            self.pending[request.call_id as usize] = tag;
            for (key, access) in self.footprints.call(seq) {
                reservations
                    .entry(*key)
                    .and_modify(|a| *a |= *access)
                    .or_insert(*access);
            }
            let dest = self.runtime.map.route(&request.call.target);
            let class = request.call.target.class.as_u32();
            outgoing.entry((dest, class)).or_default().push(Event::new(
                CallId(request.call_id),
                EventKind::Invoke {
                    call: request.call,
                    stack: CallStack::root(),
                },
            ));
        }
        report.deferrals += newly_deferred.len() as u64;
        // Walk in reverse so push_front preserves arrival order.
        for entry in newly_deferred.into_iter().rev() {
            self.deferred.push_front(entry);
        }
        // Schedule exploration may permute the per-destination send order
        // and delay individual sends (legal: per-channel FIFO is untouched).
        let mut outgoing: Vec<((usize, u32), Vec<Event>)> = outgoing.into_iter().collect();
        if let Some(rng) = &mut self.schedule {
            rng.permute(&mut outgoing);
        }
        for ((dest, _class), events) in outgoing {
            if let Some(rng) = &mut self.schedule {
                rng.pause(racecheck::ScheduleSite::ChannelSend);
            }
            let stamp = self.monitor.as_ref().map(|m| m.stamp(COORDINATOR_ROLE));
            let _ = self.shard_txs[dest].send(ToShard::Events {
                incarnation: self.incarnation,
                events,
                stamp,
            });
        }
        InFlightBatch {
            batch_no,
            tag,
            committed,
            reservations,
        }
    }

    /// Receive the next coordinator message, converting worker death into a
    /// [`ShardError`]. A panicked worker announces itself (`WorkerDied` →
    /// [`ShardError::WorkerPanicked`]); a worker that exited *silently*
    /// cannot, so whenever the channel stays quiet past the probe interval
    /// the coordinator checks thread liveness and surfaces the first
    /// finished worker as [`ShardError::Disconnected`] — instead of the
    /// pre-PR 4 behavior, a `.expect("shard threads alive")` panic on full
    /// disconnect or an unbounded block while any other sender survived.
    fn recv_message(&mut self) -> Result<ToCoordinator, ShardError> {
        loop {
            match self.coord_rx.recv_timeout(LIVENESS_PROBE) {
                Ok(ToCoordinator::WorkerDied { shard, message }) => {
                    return Err(ShardError::WorkerPanicked { shard, message });
                }
                Ok(ToCoordinator::DurableFailed { error }) => {
                    return Err(ShardError::Durable { error });
                }
                Ok(ToCoordinator::Misrouted {
                    shard,
                    call_id,
                    addr,
                }) => {
                    return Err(ShardError::Misrouted {
                        shard,
                        call_id,
                        addr,
                    });
                }
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => self.check_liveness()?,
                Err(RecvTimeoutError::Disconnected) => {
                    let shard = self.finished_worker().unwrap_or(0);
                    return Err(ShardError::Disconnected { shard });
                }
            }
        }
    }

    /// The first shard whose worker thread has exited, if any. A finished
    /// thread with an empty channel is unambiguous: every message it ever
    /// sent (including a `WorkerDied` notice) was sent before it exited, so
    /// if the queue is drained and the thread is gone, nothing will ever
    /// answer for that shard again.
    fn finished_worker(&self) -> Option<usize> {
        self.handles.iter().position(JoinHandle::is_finished)
    }

    /// The liveness probe: a finished worker surfaces as
    /// [`ShardError::Disconnected`], a finished durable writer (it only
    /// exits early on failure) as its own error.
    fn check_liveness(&mut self) -> Result<(), ShardError> {
        if let Some(shard) = self.finished_worker() {
            return Err(ShardError::Disconnected { shard });
        }
        match &mut self.durable {
            Some(durable) => durable.writer.check_alive(),
            None => Ok(()),
        }
    }

    /// Block until every committed call of the batch has answered, recording
    /// first-delivery responses and counting suppressed duplicates. Eagerly
    /// pumps responses belonging to *other* in-flight batches into the
    /// egress (and out of `pending`) as they arrive, so a pipelined batch's
    /// own collect later finds them already accounted for.
    fn collect_responses(
        &mut self,
        batch: &InFlightBatch,
        report: &mut ShardReport,
    ) -> Result<(), ShardError> {
        let mut outstanding = batch
            .committed
            .iter()
            .filter(|id| self.pending[**id as usize] == batch.tag)
            .count();
        while outstanding > 0 {
            match self.recv_message()? {
                ToCoordinator::Responses {
                    incarnation,
                    responses,
                    stamp,
                } if incarnation == self.incarnation => {
                    if let (Some(monitor), Some(stamp)) = (&self.monitor, &stamp) {
                        monitor.join(COORDINATOR_ROLE, stamp);
                    }
                    for (call_id, result) in responses {
                        let tag = std::mem::replace(&mut self.pending[call_id as usize], 0);
                        if tag == batch.tag {
                            outstanding -= 1;
                        }
                        match self.delivered.entry(call_id) {
                            std::collections::btree_map::Entry::Occupied(_) => {
                                // Replayed duplicate: never re-routed to the
                                // session either — exactly-once delivery.
                                report.duplicates_suppressed += 1;
                            }
                            std::collections::btree_map::Entry::Vacant(slot) => {
                                if let Some(core) = &self.service {
                                    if let Some((session, seq)) =
                                        self.call_sessions.remove(&call_id)
                                    {
                                        core.route_response(
                                            session,
                                            service::SessionResponse {
                                                seq,
                                                call_id,
                                                result: result.clone(),
                                            },
                                        );
                                    }
                                }
                                slot.insert(result);
                            }
                        }
                    }
                }
                other => self.absorb_background(report, other)?,
            }
        }
        Ok(())
    }

    /// Default handling for coordinator messages every receive loop must
    /// tolerate: background-encoded **snapshot bytes** are absorbed (possibly
    /// sealing epochs — this is what makes sealing steal no dedicated wait
    /// anywhere), stale responses and stray barrier acks from a failed
    /// timeline are dropped. Worker-loss messages never reach here
    /// ([`Coordinator::recv_message`] converts them to errors) and `Collect`
    /// replies only exist after the batch loop.
    fn absorb_background(
        &mut self,
        report: &mut ShardReport,
        msg: ToCoordinator,
    ) -> Result<(), ShardError> {
        match msg {
            ToCoordinator::SnapshotBytes {
                incarnation,
                shard,
                epoch,
                kind,
                bytes,
            } => {
                self.absorb_snapshot_bytes(report, incarnation, shard, epoch, kind, bytes)?;
            }
            ToCoordinator::Responses { incarnation, .. } => {
                debug_assert_ne!(incarnation, self.incarnation, "live response dropped");
            }
            ToCoordinator::Durable { through, stamp } => self.release_durable(through, stamp),
            ToCoordinator::BarrierCaptured { .. } => {}
            ToCoordinator::Collected { .. } => {
                unreachable!("collect only happens after the batch loop")
            }
            ToCoordinator::WorkerDied { .. }
            | ToCoordinator::Misrouted { .. }
            | ToCoordinator::DurableFailed { .. } => {
                unreachable!("recv_message converts thread-loss messages to errors")
            }
        }
        Ok(())
    }

    /// Absorb a [`ToCoordinator::SnapshotBytes`] message arriving in any
    /// receive loop: record the bytes and counters, and — when the arrival
    /// completes an epoch (and every older epoch) — **seal** it: the epoch
    /// becomes the recovery point, its ingress offsets are committed, and
    /// the compaction invariants are re-checked.
    fn absorb_snapshot_bytes(
        &mut self,
        report: &mut ShardReport,
        incarnation: u64,
        shard: usize,
        epoch: u64,
        kind: SnapshotKind,
        bytes: Vec<u8>,
    ) -> Result<(), ShardError> {
        if incarnation != self.incarnation {
            return Ok(()); // failed timeline: its pending epoch was truncated away
        }
        // Reading the cut: sound only if this epoch's stamped barrier ack
        // was already joined (per-sender FIFO puts the ack ahead of the
        // bytes). The race detector checks exactly that.
        if let Some(monitor) = &self.monitor {
            monitor.access(
                COORDINATOR_ROLE,
                racecheck::Resource::PartitionCut {
                    partition: shard,
                    epoch,
                },
                racecheck::AccessKind::Read,
                "absorb snapshot bytes",
            );
        }
        if self.service.is_some() {
            // Decode for the read view / CDC while the bytes are hot; the
            // image stays pending until the epoch seals (a failed
            // timeline's cut must never become visible).
            let image = state_backend::decode_snapshot(&bytes).map_err(|err| {
                ShardError::CorruptSnapshot {
                    epoch,
                    partition: shard,
                    detail: err.to_string(),
                }
            })?;
            self.pending_view
                .entry(epoch)
                .or_default()
                .push((shard, image));
        }
        report.snapshots_taken += 1;
        let len = bytes.len() as u64;
        match kind {
            SnapshotKind::Full => self.rebase.anchor(epoch, shard, len),
            SnapshotKind::Delta => {
                report.delta_snapshots_taken += 1;
                // A durable chain is charged its uploads instead, at the seal
                // (see `persist_sealed`).
                if self.durable.is_none() {
                    self.rebase.charge(epoch, shard, len);
                }
            }
        }
        report.snapshot_bytes += len;
        report.encode_off_barrier_bytes += len;
        let source_offsets = self
            .pending_offsets
            .get(&epoch)
            .cloned()
            .unwrap_or_default();
        let sealed = self.snapshot_store.add(Snapshot {
            epoch,
            partition: shard,
            kind,
            state: bytes,
            source_offsets,
        });
        if sealed > 0 {
            self.on_epochs_sealed(report, sealed)?;
        }
        Ok(())
    }

    /// Bookkeeping for newly sealed epochs: only now do the cut's ingress
    /// offsets commit (a restart reading committed offsets must never skip
    /// past requests an unsealed — possibly never-materializing — epoch
    /// claimed to cover), and only now do the compaction counters advance.
    /// On a durable runtime this is also where the seal reaches disk
    /// ([`Coordinator::persist_sealed`]) — never at the cut.
    fn on_epochs_sealed(
        &mut self,
        report: &mut ShardReport,
        sealed: u64,
    ) -> Result<(), ShardError> {
        report.epochs_completed += sealed;
        let Some(sealed_epoch) = self.snapshot_store.latest_sealed_epoch() else {
            return Ok(()); // unreachable: sealed > 0 implies a sealed epoch
        };
        let still_pending = self.pending_offsets.split_off(&(sealed_epoch + 1));
        let committed = std::mem::replace(&mut self.pending_offsets, still_pending);
        for offsets in committed.values() {
            for (&partition, &offset) in offsets {
                self.runtime
                    .ingress
                    .commit(INGRESS_GROUP, INGRESS_TOPIC, partition, offset);
            }
        }
        report.snapshots_compacted = self.snapshot_store.deltas_merged();
        let longest_chain = (0..self.runtime.config.shards)
            .map(|p| self.snapshot_store.delta_chain_len(p, sealed_epoch))
            .max()
            .unwrap_or(0) as u64;
        report.max_delta_chain = report.max_delta_chain.max(longest_chain);

        // Promote the sealed epochs' consumed-prefix watermarks.
        let still_pending = self.pending_watermarks.split_off(&(sealed_epoch + 1));
        let promoted = std::mem::replace(&mut self.pending_watermarks, still_pending);
        self.sealed_watermarks.extend(promoted);

        if let Some(core) = self.service.clone() {
            // Seal = visibility: apply the sealed cuts to the read view in
            // epoch order and fan their dirty sets out as CDC updates —
            // exactly once per sealed epoch (sealed epochs never re-seal,
            // and recovery truncates only pending ones).
            let still_pending = self.pending_view.split_off(&(sealed_epoch + 1));
            let ready = std::mem::replace(&mut self.pending_view, still_pending);
            for (epoch, parts) in ready {
                report.cdc_updates += core.apply_sealed(epoch, parts);
            }
            // A long-lived service must bound the in-memory ingress too:
            // records below the sealed cut can never replay (recovery
            // rewinds exactly to these offsets), so GC them.
            if let Some(offsets) = self.snapshot_store.epoch_offsets(sealed_epoch) {
                for (&partition, &offset) in offsets {
                    self.runtime
                        .ingress
                        .truncate_before(INGRESS_TOPIC, partition, offset);
                }
            }
        }

        // Egress retention: responses below the retention-floor epoch's
        // watermark were all delivered by that seal, and no recovery the
        // store can still perform replays below it — prune them. Plain
        // batch runs default to keeping everything (the end-of-run report
        // is built from this map); a service defaults to pruning at the
        // seal, else the dedup map leaks one entry per request forever.
        let horizon = self
            .runtime
            .config
            .egress_retention_epochs
            .or(self.service.as_ref().map(|_| 0));
        if let Some(horizon) = horizon {
            let floor_epoch = sealed_epoch.saturating_sub(horizon);
            let floor = self
                .sealed_watermarks
                .range(..=floor_epoch)
                .next_back()
                .map(|(_, &wm)| wm)
                .unwrap_or(0);
            if floor > 0 {
                let retained = self.delivered.split_off(&floor);
                report.egress_pruned += self.delivered.len() as u64;
                self.delivered = retained;
                // Watermarks below the floor can never be consulted again
                // (pruning and recovery both look at epochs ≥ the floor);
                // keep one floor entry so range lookups stay anchored.
                self.sealed_watermarks.insert(floor_epoch, floor);
                self.sealed_watermarks = self.sealed_watermarks.split_off(&floor_epoch);
            }
        }

        self.persist_sealed()
    }

    /// Queue the latest sealed epoch's persistence on the durable writer
    /// (no-op without a durable tier): the coordinator picks the files and
    /// builds the manifest ([`SealLedger::seal_job`]); the writer uploads,
    /// commits, reaps and truncates. Jobs reach disk in seal order.
    fn persist_sealed(&mut self) -> Result<(), ShardError> {
        let Some(durable) = self.durable.as_mut() else {
            return Ok(());
        };
        let shards = self.runtime.config.shards;
        if let Some(job) = durable.ledger.seal_job(&mut self.snapshot_store, shards)? {
            // On disk a chain costs what every seal re-uploads: its merge.
            for (partition, bytes) in job.merged_uploads() {
                self.rebase.charge(job.epoch(), partition, bytes);
            }
            durable.writer.send_seal(job);
        }
        Ok(())
    }

    /// Drain the pipeline and the deferral queue (transaction-aligned cut),
    /// then broadcast the barrier, gather every shard's snapshot, commit
    /// ingress offsets, and compact the snapshot chains. Returns early if a
    /// crash plan fired during the drain (the barrier is abandoned; the
    /// recovered timeline will reach its own barriers).
    fn epoch_barrier(&mut self, report: &mut ShardReport) -> Result<(), ShardError> {
        // The snapshot cut needs quiescence: retire the in-flight batch.
        if let Some(prev) = self.in_flight.take() {
            if self.retire_batch(prev, report)? {
                return Ok(());
            }
        }
        while !self.deferred.is_empty() {
            let size = self.runtime.config.batch_size.min(self.deferred.len());
            let batch: Vec<(IngressRequest, u32)> = self.deferred.drain(..size).collect();
            let flight = self.commit_and_dispatch(batch, report);
            report.batches += 1;
            if self
                .take_fired_plan(FailureMode::InFlight, report.batches)
                .is_some()
            {
                self.recover(report)?;
                return Ok(());
            }
            if self.retire_batch(flight, report)? {
                return Ok(());
            }
        }

        self.epoch += 1;
        let full = self.rebase.barrier(self.epoch);
        // Announce the pending epoch and pin its cut offsets *before* the
        // broadcast: bytes can start arriving the moment a shard goes idle.
        self.pending_offsets
            .insert(self.epoch, offsets_map(&self.consumed));
        // The pipeline is drained and the deferral queue empty, so the
        // consumed prefix is fully answered: pin its watermark with the cut.
        self.pending_watermarks.insert(self.epoch, self.watermark);
        self.snapshot_store.begin_epoch(self.epoch);
        if let Some(core) = &self.service {
            core.announce_cut(self.epoch);
        }
        let barrier_t0 = Instant::now();
        // Schedule exploration may permute the broadcast order (legal: each
        // shard sees exactly one Barrier either way).
        let mut order: Vec<usize> = (0..self.shard_txs.len()).collect();
        if let Some(rng) = &mut self.schedule {
            rng.permute(&mut order);
        }
        for dest in order {
            if let Some(rng) = &mut self.schedule {
                rng.pause(racecheck::ScheduleSite::ChannelSend);
            }
            let stamp = self.monitor.as_ref().map(|m| m.stamp(COORDINATOR_ROLE));
            let _ = self.shard_txs[dest].send(ToShard::Barrier {
                incarnation: self.incarnation,
                epoch: self.epoch,
                full,
                stamp,
            });
        }

        // The barrier waits only for the capture acks — the cheap
        // copy-on-write walk. A MidEncode crash plan about to fire must
        // observe the async window exactly as a real crash would find it:
        // the cut acked, the epoch unsealed — so while it is armed, byte
        // arrivals for the doomed timeline are set aside instead of sealing.
        let mid_encode_armed = matches!(
            self.failure,
            Some(plan) if plan.mode == FailureMode::MidEncode
                && report.batches >= plan.after_batch
        );
        let mut stashed: Vec<ToCoordinator> = Vec::new();
        let mut awaiting = self.shard_txs.len();
        while awaiting > 0 {
            match self.recv_message()? {
                ToCoordinator::BarrierCaptured {
                    incarnation,
                    shard,
                    epoch,
                    capture_ns,
                    stamp,
                } => {
                    // The load-bearing join: after this, the coordinator's
                    // clock covers the shard's capture-write, licensing the
                    // eventual read of this epoch's bytes.
                    if let (Some(monitor), Some(stamp)) = (&self.monitor, &stamp) {
                        monitor.join(COORDINATOR_ROLE, stamp);
                    }
                    if incarnation != self.incarnation {
                        continue;
                    }
                    debug_assert_eq!(epoch, self.epoch);
                    debug_assert!(shard < self.shard_txs.len());
                    report.barrier_capture_ns += capture_ns;
                    awaiting -= 1;
                }
                msg @ ToCoordinator::SnapshotBytes { .. } if mid_encode_armed => {
                    stashed.push(msg);
                }
                other => self.absorb_background(report, other)?,
            }
        }
        self.batches_since_epoch = 0;

        // Failure injection, mid-encode flavor: every shard acked the
        // capture, no byte has sealed the epoch — the heart of the async
        // window. Recovery must discard the pending epoch wholesale and
        // fall back to the last *sealed* one.
        if self
            .take_fired_plan(FailureMode::MidEncode, report.batches)
            .is_some()
        {
            self.recover(report)?;
            return Ok(());
        }
        drop(stashed); // no plan fired ⇒ unreachable (armed plans fire here)
        report.barrier_wall_ns += barrier_t0.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Block until every announced epoch has sealed, absorbing background
    /// byte arrivals. Called once after the batch loop: the run's recovery
    /// guarantees must not depend on whether the run happened to end soon
    /// after a barrier.
    fn drain_unsealed_epochs(&mut self, report: &mut ShardReport) -> Result<(), ShardError> {
        while self.snapshot_store.unsealed_epochs() > 0 {
            let msg = self.recv_message()?;
            self.absorb_background(report, msg)?;
        }
        Ok(())
    }

    /// Global rollback to the latest **sealed** epoch: reconstruct every
    /// partition from the snapshot chain, bump the incarnation (in-flight
    /// messages from the failed timeline are dropped on receipt), rewind the
    /// ingress cursors to the epoch's offsets, and clear coordinator-side
    /// scheduling state. The egress dedup map survives. A pending epoch —
    /// cut acked but bytes not all arrived — is never a recovery point; its
    /// partial arrivals are truncated and replay re-covers its requests.
    ///
    /// Every failure on this path is a typed [`ShardError`]: corrupt stored
    /// bytes surface as [`ShardError::CorruptSnapshot`] naming the epoch and
    /// partition, missing chain data as [`ShardError::IncompleteEpoch`] —
    /// this path must never panic the coordinator (`.expect` had made a
    /// damaged store indistinguishable from a runtime bug).
    fn recover(&mut self, report: &mut ShardReport) -> Result<(), ShardError> {
        report.recoveries += 1;
        self.incarnation += 1;
        let epoch = self
            .snapshot_store
            .latest_sealed_epoch()
            .ok_or(ShardError::IncompleteEpoch { epoch: 0 })?;
        report.recovery_epochs.push(epoch);
        self.snapshot_store.truncate_after(epoch);
        self.pending_offsets.clear();

        let offsets: Vec<u64> = {
            let recorded = self
                .snapshot_store
                .epoch_offsets(epoch)
                .ok_or(ShardError::IncompleteEpoch { epoch })?;
            (0..self.runtime.config.shards)
                .map(|p| recorded.get(&p).copied().unwrap_or(0))
                .collect()
        };
        let states = recovery_states(&self.snapshot_store, self.runtime.config.shards, epoch)?;
        for (tx, state) in self.shard_txs.iter().zip(states) {
            let stamp = self.monitor.as_ref().map(|m| m.stamp(COORDINATOR_ROLE));
            let _ = tx.send(ToShard::Reset {
                incarnation: self.incarnation,
                state: Box::new(state),
                stamp,
            });
        }
        // Dispatched-but-unretired batches belong to the failed timeline;
        // their calls replay with the same ids on the new one.
        if let Some(monitor) = &self.monitor {
            monitor.certify_rollback();
        }
        for (partition, offset) in offsets.iter().enumerate() {
            self.runtime
                .ingress
                .rewind(INGRESS_GROUP, INGRESS_TOPIC, partition, *offset);
        }
        self.consumed = offsets.clone();
        self.refill_queues(&offsets);
        self.deferred.clear();
        // The pipeline belongs to the failed timeline: its dispatched calls
        // will never answer under the new incarnation (workers drop stale
        // events on receipt), so waiting for them would hang. Replay
        // re-dispatches and re-answers everything after the recovery point.
        self.in_flight = None;
        self.pending.fill(0);
        self.epoch = epoch;
        self.batches_since_epoch = 0;
        self.rebase.force();
        // Service state: the failed timeline's pending cuts must never
        // become visible, and the consumed-prefix watermark falls back to
        // the recovered epoch's (replay will re-consume from there).
        self.pending_watermarks.clear();
        self.pending_view.clear();
        self.watermark = self
            .sealed_watermarks
            .range(..=epoch)
            .next_back()
            .map(|(_, &wm)| wm)
            .unwrap_or(0);
        if let Some(core) = &self.service {
            core.announce_cut(epoch);
        }
        Ok(())
    }

    /// End of run: ask every worker for its partition state and counters.
    fn collect_final(
        &mut self,
        report: &mut ShardReport,
    ) -> Result<Vec<PartitionState>, ShardError> {
        let shards = self.shard_txs.len();
        for tx in &self.shard_txs {
            let _ = tx.send(ToShard::Collect);
        }
        let mut collected: Vec<Option<PartitionState>> = (0..shards).map(|_| None).collect();
        let mut awaiting = shards;
        while awaiting > 0 {
            // Anything else here is a stale response/ack from a failed
            // timeline and is dropped.
            if let ToCoordinator::Collected {
                shard,
                state,
                events_processed,
                cross_shard_batches,
                cross_shard_events,
                captures_spilled,
                hop_frame_bytes,
                key_bytes_interned,
                stamp,
            } = self.recv_message()?
            {
                // Ordered hand-back: post-run inspection of this partition
                // (runtime caller's thread) happens after every worker
                // access.
                if let (Some(monitor), Some(stamp)) = (&self.monitor, &stamp) {
                    monitor.join(COORDINATOR_ROLE, stamp);
                }
                collected[shard] = Some(*state);
                report.events_per_shard[shard] = events_processed;
                report.cross_shard_batches += cross_shard_batches;
                report.cross_shard_events += cross_shard_events;
                report.captures_spilled += captures_spilled;
                report.hop_frame_bytes += hop_frame_bytes;
                report.key_bytes_interned += key_bytes_interned;
                awaiting -= 1;
            }
        }
        // Invariant: the loop above exits only when every slot was filled
        // (each `Collected` decrements `awaiting` exactly once per shard).
        Ok(collected
            .into_iter()
            .map(|p| p.expect("every shard collected"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use entity_lang::corpus;
    use stateful_entities::compile;

    fn account_runtime(config: ShardConfig, accounts: usize) -> ShardRuntime {
        let program = compile(corpus::ACCOUNT_SOURCE).unwrap();
        let mut rt = ShardRuntime::new(program.ir.clone(), config).expect("compiled IR verifies");
        for i in 0..accounts {
            rt.load_entity(
                "Account",
                &[format!("acc{i}").into(), Value::Int(1_000), "p".into()],
            )
            .unwrap();
        }
        rt
    }

    fn call(rt: &ShardRuntime, key: &str, method: &str, args: Vec<Value>) -> MethodCall {
        rt.ir()
            .resolve_call("Account", Key::Str(key.into()), method, args)
            .unwrap()
    }

    /// Tripwire for the footprint soundness argument (see
    /// [`visit_footprint`]): batch isolation relies on entity references
    /// reaching a call chain *only* through the root call's target and
    /// arguments, which holds because the front end rejects entity-typed
    /// fields. If this program ever starts compiling, the static footprint
    /// no longer covers stored references and the sharded runtime's
    /// conflict detection must learn about them before this test may change.
    #[test]
    fn typechecker_forbids_stored_entity_refs() {
        let src = r#"
entity Sink:
    name: str
    total: int

    def __init__(self, name: str):
        self.name = name
        self.total = 0

    def __key__(self) -> str:
        return self.name

    def add(self, n: int) -> int:
        self.total += n
        return self.total

entity Proxy:
    name: str
    sink: Sink

    def __init__(self, name: str, sink: Sink):
        self.name = name
        self.sink = sink

    def __key__(self) -> str:
        return self.name

    def forward(self, n: int) -> int:
        s: Sink = self.sink
        r: int = s.add(n)
        return r
"#;
        let err = compile(src).expect_err("stored entity refs must not compile");
        assert!(
            err.message().contains("may not hold references"),
            "unexpected rejection reason: {err}"
        );
    }

    /// The inline access-lattice rule must agree with the txn crate's
    /// order-preserving reference rule on every batch shape: a footprint
    /// key the effect analysis marks written maps to a read-modify-write
    /// reservation, a read-only key to a bare read, a commutative target
    /// to a `comm_write`, and per-parameter read-only references (the
    /// audit log of `transfer_audited`) to bare reads.
    #[test]
    fn inline_commit_rule_matches_txn_reference() {
        use txn::{execute_batch_ordered, key_ref_addr, RwSet, Transaction};
        let program = compile(corpus::ACCOUNT_SOURCE).unwrap();
        let ir = &program.ir;
        // A deterministic pseudo-random pile of reads / updates / credits /
        // transfers / audited transfers over a tiny hot keyspace (maximal
        // conflict density, every access kind represented).
        let mut requests: Vec<IngressRequest> = Vec::new();
        let mut x = 0x243F_6A88_85A3_08D3u64; // seeded xorshift
        for call_id in 0..250u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % 5) as usize;
            let b = ((x >> 8) % 5) as usize;
            let key = Key::Str(format!("acc{a}").into());
            let other = Value::entity_ref("Account", Key::Str(format!("acc{b}").into()));
            let call = match x % 5 {
                0 => ir.resolve_call("Account", key, "read", vec![]).unwrap(),
                1 => ir
                    .resolve_call("Account", key, "update", vec![Value::Int(1)])
                    .unwrap(),
                2 => ir
                    .resolve_call("Account", key, "credit", vec![Value::Int(1)])
                    .unwrap(),
                3 => ir
                    .resolve_call("Account", key, "transfer", vec![Value::Int(1), other])
                    .unwrap(),
                _ => ir
                    .resolve_call(
                        "Account",
                        key,
                        "transfer_audited",
                        vec![
                            Value::Int(1),
                            other,
                            Value::entity_ref("Account", Key::Str("audit".into())),
                        ],
                    )
                    .unwrap(),
            };
            requests.push(IngressRequest { call_id, call });
        }
        let mut reservations = ConflictMap::default();
        let mut footprints = FootprintSet::default();
        for batch in requests.chunks(16) {
            footprints.clear();
            for request in batch {
                footprints.add_call(ir, &request.call);
            }
            let mask = ordered_commit_mask(&footprints, None, &mut reservations);
            let txns: Vec<Transaction> = batch
                .iter()
                .map(|r| {
                    let method = ir
                        .operator_by_id(r.call.target.class)
                        .unwrap()
                        .method_by_id(r.call.method)
                        .unwrap();
                    let mut rw = RwSet::new();
                    let root = key_ref_addr(&r.call.target);
                    if method.commutative {
                        rw.comm_write(root);
                    } else if method.writes_self {
                        rw.read_write(root);
                    } else {
                        rw.read(root);
                    }
                    for (j, arg) in r.call.args.iter().enumerate() {
                        if let Value::EntityRef(addr) = arg {
                            let key = key_ref_addr(addr);
                            if method.param_effects.get(j).copied().unwrap_or(true) {
                                rw.read_write(key);
                            } else {
                                rw.read(key);
                            }
                        }
                    }
                    Transaction::new(r.call_id, rw)
                })
                .collect();
            let reference = execute_batch_ordered(&txns);
            let mask_deferred: Vec<u64> = batch
                .iter()
                .zip(&mask)
                .filter(|(_, d)| **d)
                .map(|(r, _)| r.call_id)
                .collect();
            assert_eq!(mask_deferred, reference.deferred, "rules diverged");
        }
    }

    /// Satellite pin (hash-collision semantics): ConflictKeys compare by
    /// `(class id, 64-bit key hash)`, so two *different* entity keys can in
    /// principle collide. The rule must stay conservative in every mixed
    /// case: a reader and a writer on a colliding key defer exactly as if
    /// the keys were equal, while reader/reader "collisions" commit together
    /// (always safe — reads never need mutual ordering, equal keys or not).
    #[test]
    fn colliding_reader_and_writer_defer_conservatively() {
        // Model the collision directly at the ConflictKey level: one key K
        // standing for two logically distinct entities.
        let k: ConflictKey = (7, 0xDEAD_BEEF);
        let mut reservations = ConflictMap::default();
        let mut set = FootprintSet::default();
        let add = |set: &mut FootprintSet, access: u8| {
            let start = set.keys.len();
            set.add_key(start, k, access);
            set.spans.push((start as u32, set.keys.len() as u32));
        };
        let read = |set: &mut FootprintSet| add(set, ACCESS_READ);
        let write = |set: &mut FootprintSet| add(set, ACCESS_WRITE);
        let comm = |set: &mut FootprintSet| add(set, ACCESS_COMM);

        // reader then writer: the writer defers (conservative WAR).
        read(&mut set);
        write(&mut set);
        assert_eq!(
            ordered_commit_mask(&set, None, &mut reservations),
            vec![false, true]
        );

        // writer then reader: the reader defers (conservative RAW).
        set.clear();
        write(&mut set);
        read(&mut set);
        assert_eq!(
            ordered_commit_mask(&set, None, &mut reservations),
            vec![false, true]
        );

        // reader then reader: committing together is safe whether or not
        // the underlying keys are really equal.
        set.clear();
        read(&mut set);
        read(&mut set);
        assert_eq!(
            ordered_commit_mask(&set, None, &mut reservations),
            vec![false, false]
        );

        // Commutative pairs on a colliding key commit together (safe whether
        // the keys are equal — commuting deltas — or distinct), but any mix
        // with a read or write stays conservative.
        set.clear();
        comm(&mut set);
        comm(&mut set);
        assert_eq!(
            ordered_commit_mask(&set, None, &mut reservations),
            vec![false, false]
        );
        set.clear();
        comm(&mut set);
        read(&mut set);
        write(&mut set);
        assert_eq!(
            ordered_commit_mask(&set, None, &mut reservations),
            vec![false, true, true]
        );

        // An in-flight writer's reservation is just as binding on a
        // colliding reader.
        set.clear();
        read(&mut set);
        let in_flight: ConflictMap = [(k, ACCESS_WRITE)].into_iter().collect();
        assert_eq!(
            ordered_commit_mask(&set, Some(&in_flight), &mut reservations),
            vec![true]
        );
        // ...while an in-flight reader lets a colliding reader through.
        let in_flight: ConflictMap = [(k, ACCESS_READ)].into_iter().collect();
        assert_eq!(
            ordered_commit_mask(&set, Some(&in_flight), &mut reservations),
            vec![false]
        );
        // ...and an in-flight commutative pile admits a colliding
        // commutative delta but blocks a colliding reader.
        let in_flight: ConflictMap = [(k, ACCESS_COMM)].into_iter().collect();
        set.clear();
        comm(&mut set);
        read(&mut set);
        assert_eq!(
            ordered_commit_mask(&set, Some(&in_flight), &mut reservations),
            vec![false, true]
        );
    }

    #[test]
    fn reads_and_updates_complete_on_every_shard_count() {
        for shards in [1, 2, 4] {
            let mut rt = account_runtime(ShardConfig::with_shards(shards), 10);
            for i in 0..50u64 {
                let key = format!("acc{}", i % 10);
                if i % 2 == 0 {
                    rt.submit(call(&rt, &key, "read", vec![]));
                } else {
                    rt.submit(call(&rt, &key, "update", vec![Value::Int(i as i64)]));
                }
            }
            let report = rt.run().unwrap();
            assert_eq!(report.answered(), 50, "{shards} shards");
            assert!(report.errors.is_empty());
            assert_eq!(rt.instance_count(), 10);
        }
    }

    #[test]
    fn cross_shard_transfers_move_money_exactly_once() {
        let mut rt = account_runtime(ShardConfig::with_shards(4), 8);
        for i in 0..40u64 {
            let from = format!("acc{}", i % 8);
            let to_ref =
                Value::entity_ref("Account", Key::Str(format!("acc{}", (i + 1) % 8).into()));
            rt.submit(call(&rt, &from, "transfer", vec![Value::Int(5), to_ref]));
        }
        let report = rt.run().unwrap();
        assert_eq!(report.responses.len(), 40);
        assert!(report.responses.values().all(|v| *v == Value::Bool(true)));
        // Every account sent 5 × 5 and received 5 × 5: balances unchanged.
        let total: i64 = (0..8)
            .map(|i| {
                rt.read_field("Account", Key::Str(format!("acc{i}").into()), "balance")
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, 8 * 1_000);
        // With 8 keys on 4 shards, some transfers must have crossed shards.
        assert!(report.cross_shard_events > 0);
        assert!(report.cross_shard_batches <= report.cross_shard_events);
    }

    #[test]
    fn conflicting_calls_are_deferred_not_lost() {
        let mut rt = account_runtime(
            ShardConfig {
                batch_size: 16,
                ..ShardConfig::with_shards(2)
            },
            8,
        );
        for i in 0..10u64 {
            let to_ref =
                Value::entity_ref("Account", Key::Str(format!("acc{}", 1 + (i % 7)).into()));
            rt.submit(call(&rt, "acc0", "transfer", vec![Value::Int(10), to_ref]));
        }
        let report = rt.run().unwrap();
        assert_eq!(report.responses.len(), 10);
        assert!(report.deferrals > 0, "hot key must cause deferrals");
        assert_eq!(
            rt.read_field("Account", Key::Str("acc0".into()), "balance"),
            Some(Value::Int(1_000 - 100))
        );
    }

    /// Structural pin: a hot-key credit storm commits in shared batches
    /// (zero deferrals) because commuting credits share the CommWrite kind,
    /// and committed calls dispatch FIFO to the owning shard in batch order,
    /// so the balance is the sequential sum. 48 credits at batch size 16
    /// fill 3 batches; the ceiling allows one more, far below the dozens a
    /// serialized storm needs.
    #[test]
    fn commutative_storm_commits_in_shared_batches() {
        let mut rt = account_runtime(
            ShardConfig {
                batch_size: 16,
                ..ShardConfig::with_shards(2)
            },
            4,
        );
        let mut credited = 0;
        for i in 0..48u64 {
            let amount = 1 + (i as i64 % 3);
            credited += amount;
            rt.submit(call(&rt, "acc0", "credit", vec![Value::Int(amount)]));
        }
        let report = rt.run().unwrap();
        assert_eq!(report.deferrals, 0, "commuting credits share batches");
        assert!(
            report.batches <= 4,
            "48 credits at batch size 16 need 3 batches, got {}",
            report.batches
        );
        assert_eq!(report.responses.len(), 48);
        assert_eq!(
            rt.read_field("Account", Key::Str("acc0".into()), "balance"),
            Some(Value::Int(1_000 + credited))
        );
    }

    /// Satellite: a call that keeps losing the commit race under pipelining
    /// (its key re-reserved by every in-flight batch) retires solo once its
    /// deferral count crosses `adaptive_fallback_after`, and the fallback
    /// changes throughput shape only — responses and states match the
    /// fallback-disabled run exactly.
    #[test]
    fn adaptive_fallback_retires_starved_hot_keys() {
        let run = |threshold: u32| {
            let mut rt = account_runtime(
                ShardConfig {
                    batch_size: 8,
                    adaptive_fallback_after: threshold,
                    ..ShardConfig::with_shards(2)
                },
                6,
            );
            for i in 0..40u64 {
                let key = format!("acc{}", if i % 2 == 0 { 0 } else { i % 6 });
                rt.submit(call(&rt, &key, "update", vec![Value::Int(i as i64)]));
            }
            let report = rt.run().unwrap();
            let states: Vec<Option<Value>> = (0..6)
                .map(|i| rt.read_field("Account", Key::Str(format!("acc{i}").into()), "balance"))
                .collect();
            (report, states)
        };
        let (with, states_with) = run(2);
        let (without, states_without) = run(0);
        assert!(
            with.adaptive_fallbacks > 0,
            "the starved hot-key head must retire solo"
        );
        assert_eq!(
            without.adaptive_fallbacks, 0,
            "threshold 0 disables fallback"
        );
        assert_eq!(with.responses, without.responses);
        assert_eq!(states_with, states_without);
    }

    /// Structural pin: liveness pruning drops dead frame slots (`enough`,
    /// `to`, the resume target) before a continuation crosses shards. Pruned
    /// frames take 41 bytes per cross-shard event here and unpruned ones 73,
    /// so the ceiling of 50 fails if pruning stops.
    #[test]
    fn liveness_pruning_shrinks_cross_shard_frames() {
        let mut rt = account_runtime(
            ShardConfig {
                batch_size: 8,
                ..ShardConfig::with_shards(4)
            },
            8,
        );
        for i in 0..40u64 {
            let to_ref =
                Value::entity_ref("Account", Key::Str(format!("acc{}", (i + 3) % 8).into()));
            rt.submit(call(
                &rt,
                &format!("acc{}", i % 8),
                "transfer",
                vec![Value::Int(2), to_ref],
            ));
        }
        let report = rt.run().unwrap();
        assert!(report.cross_shard_events > 0, "transfers must hop shards");
        assert!(
            report.hop_frame_bytes <= 50 * report.cross_shard_events,
            "pruned frames must stay small on the wire ({} bytes over {} events)",
            report.hop_frame_bytes,
            report.cross_shard_events
        );
        assert!(report.responses.values().all(|v| *v == Value::Bool(true)));
    }

    #[test]
    fn epochs_snapshot_every_shard() {
        let mut rt = account_runtime(
            ShardConfig {
                batch_size: 4,
                epoch_every_batches: 2,
                ..ShardConfig::with_shards(3)
            },
            6,
        );
        for i in 0..32u64 {
            rt.submit(call(
                &rt,
                &format!("acc{}", i % 6),
                "update",
                vec![Value::Int(i as i64)],
            ));
        }
        let report = rt.run().unwrap();
        assert!(report.epochs_completed >= 3);
        assert_eq!(
            report.snapshots_taken,
            report.epochs_completed * 3,
            "every epoch captures every shard"
        );
        assert!(report.delta_snapshots_taken > 0);
    }

    /// The chain-size rule through the whole barrier path: deltas first, a
    /// rebase once some partition's chain has cost its anchor (a few small
    /// deltas here, with two accounts per shard), and every rebase a full
    /// capture of every shard in the same epoch.
    #[test]
    fn rebases_capture_every_shard_once_a_chain_outgrows_its_anchor() {
        let shards = 3;
        let mut rt = account_runtime(
            ShardConfig {
                batch_size: 2,
                epoch_every_batches: 1,
                ..ShardConfig::with_shards(shards)
            },
            6,
        );
        for i in 0..240u64 {
            rt.submit(call(
                &rt,
                &format!("acc{}", i % 6),
                "update",
                vec![Value::Int(i as i64)],
            ));
        }
        let report = rt.run().unwrap();
        let fulls = report.snapshots_taken - report.delta_snapshots_taken;
        assert!(report.delta_snapshots_taken > 0, "chains start as deltas");
        assert!(
            fulls > 0,
            "{} epochs and no rebase",
            report.epochs_completed
        );
        assert_eq!(fulls % shards as u64, 0, "a rebase spans every shard");
        assert!(
            fulls < report.snapshots_taken / 2,
            "deltas outnumber rebases"
        );
        assert_eq!(report.max_delta_chain, 1);
    }

    /// After a rollback the meter has not measured the recovered chain, so
    /// the next barrier rebases and the meter restarts from it. Nothing else
    /// rebases here: 300 accounts make every anchor far larger than the
    /// run's deltas combined.
    #[test]
    fn rollback_forces_one_rebase_and_restarts_the_meter() {
        let build = || {
            let mut rt = account_runtime(
                ShardConfig {
                    batch_size: 4,
                    epoch_every_batches: 2,
                    ..ShardConfig::with_shards(3)
                },
                300,
            );
            for i in 0..48u64 {
                rt.submit(call(
                    &rt,
                    &format!("acc{}", i * 7 % 300),
                    "update",
                    vec![Value::Int(i as i64)],
                ));
            }
            rt
        };
        let mut healthy = build();
        let healthy_report = healthy.run().unwrap();
        assert_eq!(
            healthy_report.snapshots_taken, healthy_report.delta_snapshots_taken,
            "no chain outgrows its anchor in a healthy run"
        );

        let mut failed = build();
        let report = failed
            .run_with_failure(FailurePlan::in_flight(7, 1))
            .unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(
            report.snapshots_taken - report.delta_snapshots_taken,
            3,
            "exactly one rebase, of every shard, after the rollback"
        );
        assert_eq!(report.responses, healthy_report.responses);
        assert_eq!(failed.final_states(), healthy.final_states());
    }

    #[test]
    fn failure_recovery_matches_healthy_run() {
        let build = || {
            let mut rt = account_runtime(
                ShardConfig {
                    batch_size: 8,
                    epoch_every_batches: 2,
                    ..ShardConfig::with_shards(3)
                },
                6,
            );
            for i in 0..48u64 {
                let to_ref =
                    Value::entity_ref("Account", Key::Str(format!("acc{}", (i + 1) % 6).into()));
                rt.submit(call(
                    &rt,
                    &format!("acc{}", i % 6),
                    "transfer",
                    vec![Value::Int(5), to_ref],
                ));
            }
            rt
        };
        let mut healthy = build();
        let healthy_report = healthy.run().unwrap();

        let mut failed = build();
        let failed_report = failed
            .run_with_failure(FailurePlan::after_delivery(5, 1))
            .unwrap();
        assert_eq!(failed_report.recoveries, 1);
        assert!(
            failed_report.duplicates_suppressed > 0,
            "replay must re-answer already-delivered calls"
        );
        assert_eq!(healthy_report.responses, failed_report.responses);
        assert_eq!(healthy.final_states(), failed.final_states());

        // The in-flight flavor drops a half-executed batch instead; the
        // outcome must be indistinguishable from the healthy run too.
        let mut dropped = build();
        let dropped_report = dropped
            .run_with_failure(FailurePlan::in_flight(5, 2))
            .unwrap();
        assert_eq!(dropped_report.recoveries, 1);
        assert_eq!(healthy_report.responses, dropped_report.responses);
        assert_eq!(healthy.final_states(), dropped.final_states());
    }

    /// Satellite pin (coordinator liveness): a worker that exits WITHOUT
    /// delivering a `WorkerDied` notice used to leave the coordinator either
    /// panicking on `.expect("shard threads alive")` or blocking forever
    /// (the channel never disconnects while other workers hold sender
    /// clones). It must now surface as `ShardError::Disconnected` naming
    /// the dead shard.
    #[test]
    fn silent_worker_exit_surfaces_shard_error_not_panic_or_hang() {
        for victim in 0..2 {
            let mut rt = account_runtime(
                ShardConfig {
                    batch_size: 4,
                    ..ShardConfig::with_shards(2)
                },
                8,
            );
            for i in 0..40u64 {
                let key = format!("acc{}", i % 8);
                rt.submit(call(&rt, &key, "update", vec![Value::Int(i as i64)]));
            }
            let err = rt
                .run_with_failure(FailurePlan::worker_exit(2, victim))
                .expect_err("a silently dead worker cannot be recovered from");
            assert_eq!(
                err,
                ShardError::Disconnected { shard: victim },
                "the error must name the dead shard"
            );
            // The runtime stays usable as a value (defined empty state).
            assert_eq!(rt.instance_count(), 0);
        }
    }

    #[test]
    fn shard_error_display_names_the_shard() {
        let panicked = ShardError::WorkerPanicked {
            shard: 3,
            message: "boom".into(),
        };
        assert_eq!(panicked.to_string(), "shard 3 worker panicked: boom");
        let gone = ShardError::Disconnected { shard: 1 };
        assert!(gone.to_string().contains("shard 1"));
        let corrupt = ShardError::CorruptSnapshot {
            epoch: 7,
            partition: 2,
            detail: "snapshot too short for header".into(),
        };
        assert!(corrupt.to_string().contains("epoch 7"));
        assert!(corrupt.to_string().contains("partition 2"));
        let incomplete = ShardError::IncompleteEpoch { epoch: 4 };
        assert!(incomplete.to_string().contains("epoch 4"));
        let misrouted = ShardError::Misrouted {
            shard: 1,
            call_id: 42,
            addr: None,
        };
        assert!(misrouted.to_string().contains("call 42"));
    }

    /// Build a bare worker around in-memory channels (no thread) so the
    /// routing guards can be exercised directly.
    fn bare_worker(
        shards_in_map: usize,
        peers: Vec<Sender<ToShard>>,
    ) -> (ShardWorker, Receiver<ToCoordinator>) {
        let program = compile(corpus::ACCOUNT_SOURCE).unwrap();
        let (_tx_in, rx_in) = channel::<ToShard>();
        let (coord_tx, coord_rx) = channel::<ToCoordinator>();
        let worker = ShardWorker {
            shard: 0,
            ir: Arc::new(program.ir.clone()),
            map: Arc::new(ShardMap::uniform(shards_in_map)),
            state: PartitionState::new(),
            incarnation: 0,
            inbox: rx_in,
            peers,
            coordinator: coord_tx,
            pending_encodes: VecDeque::new(),
            spill_dir: None,
            max_pending_captures: 8,
            captures_spilled: 0,
            local: VecDeque::new(),
            out: BTreeMap::new(),
            out_responses: Vec::new(),
            events_processed: 0,
            cross_shard_batches: 0,
            cross_shard_events: 0,
            hop_frame_bytes: 0,
            monitor: None,
            role: shard_role(0),
            schedule: None,
            defect: racecheck::DefectPlan::default(),
            spawn_stamp: None,
        };
        (worker, coord_rx)
    }

    /// Satellite pin (worker routing): an event with no routable entity
    /// address used to `.expect("invoke/resume events route to an entity")`
    /// — a panic that killed the shard thread and left the coordinator to
    /// discover the loss via the liveness probe. It is now a typed
    /// [`Misroute`] carrying the call id (and address when one exists).
    #[test]
    fn unroutable_event_is_a_typed_misroute_not_a_panic() {
        let (mut worker, _coord_rx) = bare_worker(1, Vec::new());
        // A Response event has no routing address by construction.
        let stray = Event::new(
            CallId(9),
            EventKind::Response {
                value: Value::Int(1),
            },
        );
        let misroute = worker.route(stray).expect_err("must not route");
        assert_eq!(misroute.call_id, 9);
        assert!(misroute.addr.is_none());
    }

    /// Satellite pin (worker routing, bad `ShardMap`): a map that routes to
    /// a shard outside the worker's peer table — a torn deployment — must
    /// produce a typed error carrying the *offending address*, not an
    /// out-of-bounds panic on the peer table.
    #[test]
    fn bad_shard_map_route_carries_the_offending_address() {
        // The map believes there are 4 shards, but the worker knows no peers
        // at all, so any event hashing off shard 0 is unroutable.
        let (mut worker, _coord_rx) = bare_worker(4, Vec::new());
        let program = compile(corpus::ACCOUNT_SOURCE).unwrap();
        let mut misroute = None;
        for i in 0..16 {
            let call = program
                .ir
                .resolve_call(
                    "Account",
                    Key::Str(format!("acc{i}").into()),
                    "read",
                    vec![],
                )
                .unwrap();
            let target = call.target.clone();
            if worker.map.route(&target) == 0 {
                continue; // self-routed: always legal
            }
            let event = Event::new(
                CallId(i),
                EventKind::Invoke {
                    call,
                    stack: CallStack::root(),
                },
            );
            misroute = Some((
                worker.route(event).expect_err("peer table is empty"),
                target,
            ));
            break;
        }
        let (misroute, target) = misroute.expect("16 keys must hit a foreign shard");
        assert_eq!(misroute.addr, Some(target));
    }

    /// Satellite pin (panic-free recovery): corrupt stored snapshot bytes
    /// surface as `ShardError::CorruptSnapshot` naming the epoch and
    /// partition — recovery used to `.expect("stored snapshot chains
    /// decode")`.
    #[test]
    fn corrupt_snapshot_chain_recovers_to_typed_error_naming_the_epoch() {
        let mut part = PartitionState::new();
        let addr = EntityAddr::new("Account", Key::Str("acc0".into()));
        part.put(addr, EntityState::new());

        // Garbled full anchor: truncated mid-record.
        let mut store = SnapshotStore::new_amortized(1);
        let mut bytes = part.snapshot_full();
        bytes.truncate(bytes.len() / 2);
        store.add(Snapshot {
            epoch: 3,
            partition: 0,
            kind: SnapshotKind::Full,
            state: bytes,
            source_offsets: BTreeMap::new(),
        });
        let err = recovery_states(&store, 1, 3).expect_err("corrupt anchor must error");
        assert_eq!(
            std::mem::discriminant(&err),
            std::mem::discriminant(&ShardError::CorruptSnapshot {
                epoch: 0,
                partition: 0,
                detail: String::new()
            })
        );
        assert!(err.to_string().contains("epoch 3"), "error: {err}");

        // A sealed delta whose bytes are garbled: kept raw at seal time,
        // surfaces the decode failure at recovery with the same context.
        let mut store = SnapshotStore::new_amortized(1);
        let mut part = PartitionState::new();
        let addr = EntityAddr::new("Account", Key::Str("acc0".into()));
        part.put(addr.clone(), EntityState::new());
        store.add(Snapshot {
            epoch: 1,
            partition: 0,
            kind: SnapshotKind::Full,
            state: part.snapshot_full(),
            source_offsets: BTreeMap::new(),
        });
        part.update_with(&addr, |s| s.insert("balance".into(), Value::Int(1)));
        let mut delta = part.snapshot_delta();
        delta.truncate(delta.len().saturating_sub(3));
        store.add(Snapshot {
            epoch: 2,
            partition: 0,
            kind: SnapshotKind::Delta,
            state: delta,
            source_offsets: BTreeMap::new(),
        });
        let err = recovery_states(&store, 1, 2).expect_err("corrupt delta must error");
        assert!(err.to_string().contains("epoch 2"), "error: {err}");
    }

    /// Satellite pin (panic-free recovery): a chain without a full anchor is
    /// `ShardError::IncompleteEpoch` naming the epoch — recovery used to
    /// `.expect("complete epoch has a full anchor")`.
    #[test]
    fn anchorless_chain_recovers_to_incomplete_epoch_error() {
        let mut store = SnapshotStore::new_amortized(2);
        let mut part = PartitionState::new();
        part.put(
            EntityAddr::new("Account", Key::Str("acc0".into())),
            EntityState::new(),
        );
        // Partition 0 has a full anchor; partition 1's epoch arrived as a
        // delta with no full beneath it (a truncated-history store).
        store.add(Snapshot {
            epoch: 1,
            partition: 0,
            kind: SnapshotKind::Full,
            state: part.snapshot_full(),
            source_offsets: BTreeMap::new(),
        });
        store.add(Snapshot {
            epoch: 1,
            partition: 1,
            kind: SnapshotKind::Delta,
            state: PartitionState::new().snapshot_delta(),
            source_offsets: BTreeMap::new(),
        });
        let err = recovery_states(&store, 2, 1).expect_err("missing anchor must error");
        assert_eq!(err, ShardError::IncompleteEpoch { epoch: 1 });
    }

    #[test]
    fn unknown_entity_reports_error_not_hang() {
        let mut rt = account_runtime(ShardConfig::with_shards(2), 2);
        let id = rt.submit(call(&rt, "ghost", "read", vec![]));
        let report = rt.run().unwrap();
        assert!(report.responses.is_empty());
        assert!(report.errors[&id.0].contains("does not exist"));
    }

    /// Structural pin: cross-shard events travel in per-`(shard, class)`
    /// mailbox vectors, so a batch of disjoint transfers ships fewer channel
    /// messages than events, and money is still conserved.
    #[test]
    fn per_event_sends_compute_the_same_results() {
        let mut rt = account_runtime(ShardConfig::with_shards(4), 64);
        for i in 0..30u64 {
            let to_ref = Value::entity_ref("Account", Key::Str(format!("acc{}", i + 32).into()));
            rt.submit(call(
                &rt,
                &format!("acc{i}"),
                "transfer",
                vec![Value::Int(2), to_ref],
            ));
        }
        let report = rt.run().unwrap();
        assert!(report.responses.values().all(|v| *v == Value::Bool(true)));
        assert!(
            report.cross_shard_batches < report.cross_shard_events,
            "mailboxes must group events ({} flushes for {} events)",
            report.cross_shard_batches,
            report.cross_shard_events
        );
        let total: i64 = rt
            .final_states()
            .values()
            .map(|s| s["balance"].as_int().unwrap())
            .sum();
        assert_eq!(total, 64 * 1_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use txn::{execute_batch_ordered, key_ref, RwSet, Transaction};

    /// A synthetic footprint: small key universe, each key tagged with an
    /// access mask (possibly multi-bit after per-call merging) — mirrors
    /// what `FootprintSet::add_call` derives from the effect analysis.
    type SynthFootprint = Vec<(u8, u8)>;

    fn arb_footprint() -> impl Strategy<Value = SynthFootprint> {
        prop::collection::vec((0u8..10, 0usize..3), 1..4).prop_map(|mut keys| {
            // Per-call dedupe with access-OR, like FootprintSet::add_key.
            keys.sort_by_key(|(k, _)| *k);
            let mut merged: SynthFootprint = Vec::new();
            for (k, a) in keys {
                let a = [ACCESS_READ, ACCESS_COMM, ACCESS_WRITE][a];
                match merged.last_mut() {
                    Some((lk, la)) if *lk == k => *la |= a,
                    _ => merged.push((k, a)),
                }
            }
            merged
        })
    }

    fn to_set(footprints: &[SynthFootprint]) -> FootprintSet {
        let mut set = FootprintSet::default();
        for fp in footprints {
            let start = set.keys.len();
            for (k, a) in fp {
                set.add_key(start, (0, *k as u64), *a);
            }
            set.spans.push((start as u32, set.keys.len() as u32));
        }
        set
    }

    /// Model an access mask in the txn reference: the `READ` bit is a bare
    /// read, the `WRITE` bit a read-modify-write, the `COMM` bit a
    /// commutative write — a multi-bit mask contributes every kind it
    /// carries, which is exactly how the inline rule's mask-union conflict
    /// check treats it.
    fn to_txn(id: u64, fp: &SynthFootprint) -> Transaction {
        let mut rw = RwSet::new();
        for (k, a) in fp {
            let key = key_ref("K", *k as i64);
            if a & ACCESS_READ != 0 {
                rw.read(key.clone());
            }
            if a & ACCESS_WRITE != 0 {
                rw.read_write(key.clone());
            }
            if a & ACCESS_COMM != 0 {
                rw.comm_write(key);
            }
        }
        Transaction::new(id, rw)
    }

    proptest! {
        /// Tentpole property: the generalized two-kind commit mask equals
        /// the txn crate's order-preserving reference rule on arbitrary
        /// mixed read/write footprints (writes modeled as read-modify-write,
        /// reads as bare reads).
        #[test]
        fn mask_matches_reference_on_mixed_footprints(
            footprints in prop::collection::vec(arb_footprint(), 1..40),
        ) {
            let set = to_set(&footprints);
            let mut table = ConflictMap::default();
            let mask = ordered_commit_mask(&set, None, &mut table);

            let txns: Vec<Transaction> = footprints
                .iter()
                .enumerate()
                .map(|(i, fp)| to_txn(i as u64, fp))
                .collect();
            let reference = execute_batch_ordered(&txns);
            let mask_deferred: Vec<u64> = mask
                .iter()
                .enumerate()
                .filter(|(_, d)| **d)
                .map(|(i, _)| i as u64)
                .collect();
            prop_assert_eq!(mask_deferred, reference.deferred);
        }

        /// Pipeline property: seeding the mask with an in-flight batch's
        /// reservations is equivalent to running the reference rule over
        /// the concatenation `in-flight ++ batch` — the in-flight calls
        /// (pairwise conflict-free by construction: they committed) occupy
        /// the lowest sequence numbers and the mask must reproduce exactly
        /// the reference's verdicts on the new batch's suffix.
        #[test]
        fn mask_with_in_flight_matches_reference_over_concatenation(
            footprints in prop::collection::vec(arb_footprint(), 2..40),
            split_at in 1usize..10,
        ) {
            let split_at = split_at.min(footprints.len() - 1);
            let (first, second) = footprints.split_at(split_at);

            // Commit the first batch with the mask to find its committed
            // subset and merged reservations, like commit_and_dispatch.
            let first_set = to_set(first);
            let mut table = ConflictMap::default();
            let first_mask = ordered_commit_mask(&first_set, None, &mut table);
            let mut in_flight = ConflictMap::default();
            let committed_first: Vec<&SynthFootprint> = first
                .iter()
                .zip(&first_mask)
                .filter(|(_, d)| !**d)
                .map(|(fp, _)| fp)
                .collect();
            for fp in &committed_first {
                for (k, w) in fp.iter() {
                    in_flight
                        .entry((0, *k as u64))
                        .and_modify(|held| *held |= *w)
                        .or_insert(*w);
                }
            }

            let second_set = to_set(second);
            let mask = ordered_commit_mask(&second_set, Some(&in_flight), &mut table);

            // Reference: committed-first ++ second as one ordered batch.
            let txns: Vec<Transaction> = committed_first
                .iter()
                .map(|fp| (*fp).clone())
                .chain(second.iter().cloned())
                .enumerate()
                .map(|(i, fp)| to_txn(i as u64, &fp))
                .collect();
            let reference = execute_batch_ordered(&txns);
            // The in-flight prefix must commit wholesale (it already did).
            for id in 0..committed_first.len() as u64 {
                prop_assert!(reference.committed.contains(&id));
            }
            let reference_suffix: Vec<bool> = (0..second.len())
                .map(|i| reference.deferred.contains(&((committed_first.len() + i) as u64)))
                .collect();
            prop_assert_eq!(mask, reference_suffix);
        }
    }
}
