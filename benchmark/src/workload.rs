//! One workload, end to end: set-up (timed), the oracle-prefix check, the
//! three measured phases (`closed`, `lo`, `hi` — one `serve` each, so each
//! phase has its own public `ShardReport`), the correctness checks, and the
//! end-to-end metrics.
//!
//! Only the engine's public API is used, and only `ShardConfig::with_shards`
//! plus `durable` are set: every other knob stays at its default, so a
//! changed default is measured as users meet it.

use crate::gen::{gen_ops, Op, Spec, INITIAL_BALANCE, MAX_POOL};
use crate::load::{drive, Pace, PhaseData, Plan, Port, Reply, CLOSED_INFLIGHT};
use crate::stats::median;
use crate::stats::Windowed;
use crate::trace::Tracer;
use shard_runtime::service::{ClientSession, ServiceHandle, ServiceStats};
use shard_runtime::{DurableConfig, ShardConfig, ShardReport, ShardRuntime};
use stateful_entities::{
    DataflowIR, EntityAddr, EntityState, Key, LocalRuntime, MethodCall, Value,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// The benchmark's own copy of the Account program.
pub const ACCOUNT_SRC: &str = include_str!("../programs/account.ent");
pub const ENTITY: &str = "Account";
/// Engine threads: coordinator + this many shards (the box has 2 cores).
pub const SHARDS: usize = 2;
/// Calls of the single-session `serve` prefix replayed against the oracle.
const ORACLE_CALLS: usize = 50_000;
/// Set-ups per run: at least `SETUP_REPS.0`, then more until a second has
/// gone into them, at most `SETUP_REPS.1`; `setup_s` is their median. A
/// 2 ms set-up needs many repetitions before its median holds still.
const SETUP_REPS: (usize, usize) = (5, 256);
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const PROBE_KEY: &str = "probe";
/// The reader thread starts one block of sealed-view reads every
/// millisecond ...
const READ_BLOCK_EVERY_NS: u64 = 1_000_000;
/// ... of this many point reads on uniformly drawn accounts.
pub const READS_PER_BLOCK: usize = 100;

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Total measured seconds, split equally over the three phases.
    pub seconds: f64,
    pub trace: bool,
    /// `sebench check`: one set-up, short warm-up, a shorter oracle prefix.
    pub quick: bool,
}

/// `benchmark/.run`, next to this package's manifest: inside the checkout
/// and on the same device.
pub fn run_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".run")
}

/// A scratch directory removed on drop — at exit and on panic alike.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let root = run_root();
        std::fs::create_dir_all(&root)?;
        // A killed run cannot clean up after itself: sweep the directories
        // of processes that no longer exist.
        for entry in std::fs::read_dir(&root)?.flatten() {
            let name = entry.file_name();
            let pid = name
                .to_str()
                .and_then(|n| n.rsplit_once('-')?.1.parse::<u32>().ok());
            if pid.is_some_and(|p| !Path::new(&format!("/proc/{p}")).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = root.join(format!("{label}-{}", std::process::id()));
        // A previous process with this pid may have been killed mid-run.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a client of the service holds: its own compiled copy of the program
/// (names are resolved to calls at submit time), the account keys, and the
/// op stream.
pub struct Client {
    pub spec: &'static Spec,
    pub ir: DataflowIR,
    pub keys: Vec<Key>,
    pub addrs: Vec<EntityAddr>,
    pub probe_addr: EntityAddr,
    pub ops: Vec<Op>,
    /// All benchmark clocks are nanoseconds since this instant.
    pub base: Instant,
}

impl Client {
    pub fn new(spec: &'static Spec, seed: u64) -> Result<Self, String> {
        let ir = stateful_entities::compile(ACCOUNT_SRC)
            .map_err(|e| format!("compile: {e}"))?
            .ir;
        let keys: Vec<Key> = (0..spec.accounts)
            .map(|i| Key::from(format!("acc{i}")))
            .collect();
        let addrs = keys
            .iter()
            .map(|k| EntityAddr::new(ENTITY, k.clone()))
            .collect();
        Ok(Client {
            spec,
            ir,
            keys,
            addrs,
            probe_addr: EntityAddr::new(ENTITY, Key::from(PROBE_KEY)),
            ops: gen_ops(spec, seed, MAX_POOL),
            base: Instant::now(),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn resolve(&self, key: Key, method: &str, args: Vec<Value>) -> MethodCall {
        self.ir
            .resolve_call(ENTITY, key, method, args)
            .expect("the Account program defines the methods the generator uses")
    }

    /// Resolve one generated op to a call, as a client does per request.
    pub fn to_call(&self, op: &Op) -> MethodCall {
        let key = |i: u32| self.keys[i as usize].clone();
        match *op {
            Op::Read { key: k } => self.resolve(key(k), "read", vec![]),
            Op::Update { key: k, value } => self.resolve(key(k), "update", vec![Value::Int(value)]),
            Op::Credit { key: k, amount } => {
                self.resolve(key(k), "credit", vec![Value::Int(amount)])
            }
            Op::Transfer { from, to, amount } => self.resolve(
                key(from),
                "transfer",
                vec![
                    Value::Int(amount),
                    Value::EntityRef(self.addrs[to as usize].clone()),
                ],
            ),
        }
    }

    pub fn probe_call(&self, value: i64) -> MethodCall {
        self.resolve(Key::from(PROBE_KEY), "update", vec![Value::Int(value)])
    }

    /// `__init__` arguments of account `name`.
    pub fn init_args(&self, name: &str) -> [Value; 3] {
        [
            Value::from(name),
            Value::Int(INITIAL_BALANCE),
            Value::from("x".repeat(self.spec.payload_bytes)),
        ]
    }

    /// Every account name, the probe account last.
    pub fn account_names(&self) -> impl Iterator<Item = String> + '_ {
        (0..self.spec.accounts)
            .map(|i| format!("acc{i}"))
            .chain(std::iter::once(PROBE_KEY.to_string()))
    }
}

pub fn shard_config(durable_dir: Option<&Path>) -> ShardConfig {
    let mut config = ShardConfig::with_shards(SHARDS);
    config.durable = durable_dir.map(DurableConfig::new);
    config
}

pub fn new_runtime(ir: DataflowIR, config: ShardConfig) -> Result<ShardRuntime, String> {
    if config.durable.is_some() {
        ShardRuntime::new_durable(ir, config)
    } else {
        ShardRuntime::new(ir, config)
    }
    .map_err(|e| format!("runtime construction: {e}"))
}

/// One set-up as a user meets it: compile the program, construct the
/// runtime, load every entity, take the baseline cut (an empty `serve`).
pub fn set_up(client: &Client, config: ShardConfig) -> Result<(ShardRuntime, f64), String> {
    let start = Instant::now();
    let program = stateful_entities::compile(ACCOUNT_SRC).map_err(|e| format!("compile: {e}"))?;
    let mut rt = new_runtime(program.ir, config)?;
    for name in client.account_names() {
        rt.load_entity(ENTITY, &client.init_args(&name))
            .map_err(|e| format!("load {name}: {e}"))?;
    }
    rt.serve(|_handle| ())
        .map_err(|e| format!("baseline cut: {e}"))?;
    Ok((rt, start.elapsed().as_secs_f64()))
}

/// The real [`Port`]: one `ClientSession` fed from the op stream.
struct ServePort<'a> {
    client: &'a Client,
    session: ClientSession,
    cursor: usize,
}

impl Port for ServePort<'_> {
    fn now_ns(&self) -> u64 {
        self.client.now_ns()
    }

    fn submit(&mut self, probe: Option<i64>) -> Result<u64, ()> {
        let call = match probe {
            Some(value) => self.client.probe_call(value),
            None => {
                let op = &self.client.ops[self.cursor % self.client.ops.len()];
                self.cursor += 1;
                self.client.to_call(op)
            }
        };
        self.session.submit(call).map_err(|_| ())
    }

    fn try_recv(&mut self) -> Option<Reply> {
        self.session.try_recv().map(|r| Reply {
            seq: r.seq,
            ok: r.result.is_ok(),
        })
    }

    fn recv_until(&mut self, deadline_ns: u64) -> Option<Reply> {
        let wait = Duration::from_nanos(deadline_ns.saturating_sub(self.now_ns()));
        match self.session.recv_timeout(wait) {
            Ok(r) => Some(Reply {
                seq: r.seq,
                ok: r.result.is_ok(),
            }),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                // The service is gone; do not spin until the phase ends.
                std::thread::sleep(wait);
                None
            }
        }
    }
}

/// What the sealed-view reader thread measured in one phase.
#[derive(Debug)]
pub struct ReadData {
    /// Whole-block time of each read block, µs, windowed by start time.
    pub blk_us: Windowed,
    /// Summed epoch lag the reads reported.
    pub staleness_epochs: u64,
    pub spans: Vec<(u64, u64)>,
}

/// The reader thread: one block of point reads off the sealed view per
/// millisecond slot until `stop`. A block that overruns its slot (stalled
/// behind a view swap) skips the slots it covered instead of bursting.
fn read_loop(
    handle: &ServiceHandle,
    client: &Client,
    plan: &Plan,
    stop: &AtomicBool,
    traced: bool,
) -> ReadData {
    let t0 = client.now_ns();
    let measure_from = t0 + plan.warmup_ns;
    let mut data = ReadData {
        blk_us: Windowed::new(plan.measure_ns),
        staleness_epochs: 0,
        spans: Vec::new(),
    };
    let mut rng = crate::gen::Rng::new(t0);
    let n = client.addrs.len() as u64;
    let mut next = t0 + READ_BLOCK_EVERY_NS;
    while !stop.load(Ordering::SeqCst) {
        let now = client.now_ns();
        if now < next {
            std::thread::sleep(Duration::from_nanos(next - now));
            continue;
        }
        for _ in 0..READS_PER_BLOCK {
            let read = handle.read_field(&client.addrs[rng.below(n) as usize], "balance");
            data.staleness_epochs += read.staleness.lag();
            std::hint::black_box(read.value);
        }
        let end = client.now_ns();
        if now >= measure_from {
            data.blk_us
                .push(now - measure_from, (end - now) as f64 / 1e3);
            if traced {
                data.spans.push((now, end));
            }
        }
        next += READ_BLOCK_EVERY_NS * ((end - next) / READ_BLOCK_EVERY_NS + 1);
    }
    data
}

/// Sets the flag when dropped: if the load loop panics, the helper threads
/// still see `stop` and the scope can unwind instead of waiting forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// One measured phase and what the engine reported about it.
pub struct PhaseOut {
    pub data: PhaseData,
    /// Open-loop phases only.
    pub reads: Option<ReadData>,
    pub report: ShardReport,
    pub stats: ServiceStats,
    /// Probe write acked → its post-image (or a later one) delivered, µs,
    /// windowed by ack time.
    pub cdc_lag_us: Windowed,
}

/// Run one phase as one `serve`: the load loop on the client thread, plus —
/// in the open-loop phases — the sealed-view reader thread (asleep between
/// its blocks) and a CDC subscriber thread (blocked on `recv`).
pub fn run_phase(
    rt: &mut ShardRuntime,
    client: &Client,
    plan: &Plan,
    cursor: usize,
    first_probe: i64,
    tracer: &mut Tracer,
) -> Result<PhaseOut, String> {
    let (report, (data, reads, seen, stats)) = rt
        .serve(|handle| {
            let stop = AtomicBool::new(false);
            let newest = AtomicI64::new(0);
            std::thread::scope(|scope| {
                let _stop_on_unwind = StopOnDrop(&stop);
                let subscriber = plan.aux.then(|| {
                    let sub = handle.subscribe_entity(client.probe_addr.clone());
                    let (stop, newest) = (&stop, &newest);
                    scope.spawn(move || {
                        let mut seen: Vec<(i64, u64)> = Vec::new();
                        while !stop.load(Ordering::SeqCst) {
                            match sub.recv_timeout(Duration::from_millis(20)) {
                                Ok(update) => {
                                    let now = client.now_ns();
                                    let balance =
                                        update.fields.iter().find(|(f, _)| f == "balance");
                                    if let Some((_, Value::Int(v))) = balance {
                                        seen.push((*v, now));
                                        newest.store(*v, Ordering::SeqCst);
                                    }
                                }
                                Err(RecvTimeoutError::Timeout) => {}
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                        seen
                    })
                });
                let reader = plan.aux.then(|| {
                    let (handle, stop, traced) = (&handle, &stop, tracer.enabled);
                    scope.spawn(move || read_loop(handle, client, plan, stop, traced))
                });
                let mut port = ServePort {
                    client,
                    session: handle.session(),
                    cursor,
                };
                let data = drive(&mut port, plan, first_probe, tracer);
                // The last probe's post-image arrives at the next seal.
                let patience = Instant::now() + Duration::from_millis(500);
                while subscriber.is_some()
                    && newest.load(Ordering::SeqCst) < data.last_probe
                    && Instant::now() < patience
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                stop.store(true, Ordering::SeqCst);
                let seen = subscriber
                    .map(|t| t.join().expect("CDC subscriber thread"))
                    .unwrap_or_default();
                let reads = reader.map(|t| t.join().expect("reader thread"));
                (data, reads, seen, handle.stats())
            })
        })
        .map_err(|e| format!("serve: {e}"))?;

    // Probe values only grow, so the first delivery at or above a probe's
    // value is the first cut that made that write visible.
    let mut cdc_lag_us = Windowed::new(plan.measure_ns);
    let mut at = 0;
    for &(value, acked_ns) in &data.probe_acks {
        while at < seen.len() && seen[at].0 < value {
            at += 1;
        }
        if let Some(&(_, delivered_ns)) = seen.get(at) {
            let lag_us = (delivered_ns as f64 - acked_ns as f64) / 1e3;
            cdc_lag_us.push(acked_ns - data.measure_from_ns, lag_us);
            tracer.push(0, "cdc_probe", acked_ns, delivered_ns.max(acked_ns), 0);
        }
    }
    if let Some(reads) = &reads {
        for &(start, end) in &reads.spans {
            tracer.push(0, "read_block", start, end, 0);
        }
    }
    Ok(PhaseOut {
        data,
        reads,
        report,
        stats,
        cdc_lag_us,
    })
}

/// Serve the first `n` ops through one session, then replay them through the
/// sequential `LocalRuntime` and demand equal responses and equal states.
/// Returns the replay's nanoseconds per call: the single-threaded baseline
/// of the same job.
pub fn oracle_prefix(rt: &mut ShardRuntime, client: &Client, n: usize) -> Result<f64, String> {
    let (_, served) = rt
        .serve(
            |handle| -> Result<Vec<Option<Result<Value, String>>>, String> {
                let mut session = handle.session();
                let mut replies = vec![None; n];
                let (mut sent, mut got) = (0, 0);
                while got < n {
                    while sent < n && sent - got < CLOSED_INFLIGHT {
                        let seq = session
                            .submit(client.to_call(&client.ops[sent]))
                            .map_err(|e| format!("oracle prefix: submit {sent}: {e}"))?;
                        if seq != sent as u64 {
                            return Err(format!("oracle prefix: seq {seq} for submission {sent}"));
                        }
                        sent += 1;
                    }
                    let reply = session
                        .recv_timeout(Duration::from_secs(10))
                        .map_err(|e| format!("oracle prefix: reply {got} of {n}: {e}"))?;
                    let slot = replies.get_mut(reply.seq as usize).ok_or_else(|| {
                        format!("oracle prefix: reply for unknown seq {}", reply.seq)
                    })?;
                    if slot.replace(reply.result).is_some() {
                        return Err(format!("oracle prefix: seq {} answered twice", reply.seq));
                    }
                    got += 1;
                }
                Ok(replies)
            },
        )
        .map_err(|e| format!("oracle prefix: serve: {e}"))?;
    let served = served?;

    let mut local = LocalRuntime::new(client.ir.clone()).map_err(|e| format!("oracle: {e}"))?;
    for name in client.account_names() {
        local
            .create(ENTITY, &client.init_args(&name))
            .map_err(|e| format!("oracle: create {name}: {e}"))?;
    }
    let calls: Vec<MethodCall> = client.ops[..n]
        .iter()
        .map(|op| client.to_call(op))
        .collect();
    let start = Instant::now();
    let replayed: Vec<Result<Value, String>> = calls
        .into_iter()
        .map(|call| local.call_resolved(call).map_err(|e| e.to_string()))
        .collect();
    let interp_ns_per_call = start.elapsed().as_nanos() as f64 / n as f64;

    for (i, (got, want)) in served.iter().zip(&replayed).enumerate() {
        if got.as_ref() != Some(want) {
            return Err(format!(
                "oracle prefix: call {i} ({:?}) answered {got:?}, sequential replay says {want:?}",
                client.ops[i]
            ));
        }
    }
    let sharded = rt.final_states();
    let sequential = local.instances_of(ENTITY);
    if sharded.len() != sequential.len() {
        return Err(format!(
            "oracle prefix: {} entities served, {} replayed",
            sharded.len(),
            sequential.len()
        ));
    }
    for (key, state) in sequential {
        let addr = EntityAddr::new(ENTITY, key);
        if sharded.get(&addr) != Some(&state) {
            return Err(format!(
                "oracle prefix: state of {addr} differs from the replay"
            ));
        }
    }
    Ok(interp_ns_per_call)
}

fn balance_sum(states: &BTreeMap<EntityAddr, EntityState>, skip: &EntityAddr) -> i64 {
    states
        .iter()
        .filter(|(addr, _)| *addr != skip)
        .map(|(_, s)| match s.get("balance") {
            Some(Value::Int(v)) => *v,
            _ => 0,
        })
        .sum()
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (0 = not a sampled statistic).
    pub samples: usize,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    pub spec: &'static Spec,
    pub correct: bool,
    /// Why `correct` is false (empty otherwise).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The three measured phases and what surrounds them.
pub struct Measured {
    pub closed: PhaseOut,
    pub lo: PhaseOut,
    pub hi: PhaseOut,
    pub setup_s: f64,
    /// Resident set after the last set-up, MB: what a loaded deployment
    /// occupies before traffic. (The high-water mark at exit, `VmHWM`, is
    /// set by how many transient snapshot buffers happened to overlap once;
    /// on `view_large` it spread 17 % run to run, so it is a per-layer row.)
    pub setup_rss_mb: f64,
    /// Sequential `LocalRuntime` replay of the oracle prefix, ns per call.
    pub interp_ns_per_call: f64,
    /// Cold restart of the durable directory, ms (durable workloads only).
    pub restart_ms: f64,
    /// Bytes written through `write` syscalls per answered call in `closed`.
    pub written_bytes_per_call: f64,
    /// Traced runs only: `tput_rps` of a second, untraced closed phase — the
    /// base of `trace.overhead_frac`.
    pub untraced_tput_rps: Option<f64>,
}

/// `wchar` of `/proc/self/io`: bytes this process passed to `write` calls.
fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

pub fn phase_plans(spec: &Spec, opts: &Opts) -> [Plan; 3] {
    let measure_ns = (opts.seconds / 3.0 * 1e9) as u64;
    let warmup_ns = if opts.quick { 200_000_000 } else { 500_000_000 };
    let plan = |pace, aux| Plan {
        pace,
        warmup_ns,
        measure_ns,
        aux,
    };
    [
        plan(
            Pace::Closed {
                inflight: CLOSED_INFLIGHT,
            },
            false,
        ),
        plan(Pace::Open { rps: spec.lo_rps }, true),
        plan(Pace::Open { rps: spec.hi_rps }, true),
    ]
}

/// Set up, check the oracle prefix, run the three phases and the remaining
/// correctness checks. Problems found are appended to `problems`.
pub fn measure(
    client: &Client,
    opts: &Opts,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<Measured, String> {
    let spec = client.spec;
    let scratch = ScratchDir::new(spec.name).map_err(|e| format!("scratch dir: {e}"))?;

    let (min_reps, max_reps) = if opts.quick { (1, 1) } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(max_reps);
    let mut kept = None;
    let began = Instant::now();
    for rep in 0..max_reps {
        if rep >= min_reps && began.elapsed() >= SETUP_BUDGET {
            break;
        }
        // Tear the previous set-up down first: its memory and its directory
        // are not part of the next one.
        drop(kept.take());
        let dir = spec
            .durable
            .then(|| scratch.0.join(format!("durable-{rep}")));
        let started = client.now_ns();
        let (rt, seconds) = set_up(client, shard_config(dir.as_deref()))?;
        tracer.push(0, "setup", started, client.now_ns(), 0);
        setups.push(seconds);
        kept = Some((rt, dir));
    }
    let (mut rt, durable_dir) = kept.expect("at least one set-up ran");
    let setup_s = median(&mut setups);
    let setup_rss_mb = status_mb("VmRSS:");

    let prefix = if opts.quick {
        ORACLE_CALLS / 5
    } else {
        ORACLE_CALLS
    };
    let started = client.now_ns();
    let interp_ns_per_call = oracle_prefix(&mut rt, client, prefix)?;
    tracer.push(0, "oracle_prefix", started, client.now_ns(), 0);

    let plans = phase_plans(spec, opts);
    let mut cursor = prefix;
    let mut first_probe = 1;
    let mut phases = Vec::with_capacity(3);
    let mut written_bytes_per_call = 0.0;
    for (plan, label) in plans.iter().zip(["closed", "lo", "hi"]) {
        let (started, wrote) = (client.now_ns(), written_bytes());
        let out = run_phase(&mut rt, client, plan, cursor, first_probe, tracer)?;
        tracer.push(0, label, started, client.now_ns(), 0);
        if label == "closed" && out.data.answered > 0 {
            written_bytes_per_call = (written_bytes() - wrote) as f64 / out.data.answered as f64;
        }
        cursor += out.data.attempted as usize;
        first_probe = out.data.last_probe.max(first_probe) + 1;
        let d = &out.data;
        if d.duplicates > 0 || d.unanswered > 0 || d.answered + d.shed != d.attempted {
            problems.push(format!(
                "{label}: not exactly-once: {} attempted, {} shed, {} answered, \
                 {} unmatched replies, {} unanswered",
                d.attempted, d.shed, d.answered, d.duplicates, d.unanswered
            ));
        }
        if out.stats.admitted != d.answered + d.unanswered {
            problems.push(format!(
                "{label}: service admitted {} calls, the client saw {} answered",
                out.stats.admitted, d.answered
            ));
        }
        phases.push(out);
    }
    let untraced_tput_rps = if tracer.enabled {
        let out = run_phase(
            &mut rt,
            client,
            &plans[0],
            cursor,
            first_probe,
            &mut Tracer::new(false),
        )?;
        Some(out.data.tput_rps())
    } else {
        None
    };
    let Ok([closed, lo, hi]) = <[PhaseOut; 3]>::try_from(phases) else {
        unreachable!("the loop above ran once per plan");
    };

    let finals = rt.final_states();
    if spec.mix.update == 0 && spec.mix.credit == 0 {
        let (got, want) = (
            balance_sum(&finals, &client.probe_addr),
            i64::from(spec.accounts) * INITIAL_BALANCE,
        );
        if got != want {
            problems.push(format!(
                "total balance {got}, transfers must conserve {want}"
            ));
        }
    }
    let mut restart_ms = 0.0;
    if let Some(dir) = durable_dir {
        drop(rt);
        let start = Instant::now();
        let rebooted = new_runtime(client.ir.clone(), shard_config(Some(&dir)))?;
        restart_ms = start.elapsed().as_secs_f64() * 1e3;
        if rebooted.final_states() != finals {
            problems.push(format!(
                "cold restart from {} does not equal the first runtime's final states",
                dir.display()
            ));
        }
    }
    Ok(Measured {
        closed,
        lo,
        hi,
        setup_s,
        setup_rss_mb,
        interp_ns_per_call,
        restart_ms,
        written_bytes_per_call,
        untraced_tput_rps,
    })
}
