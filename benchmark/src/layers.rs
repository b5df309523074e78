//! Per-layer metrics (`--trace 1`), measured from outside: each layer's
//! public functions are timed from the benchmark's side on inputs shaped by
//! the same workload, and the engine's own public `ShardReport` /
//! `ServiceStats` of each phase's `serve` are turned into ratios. A layer is
//! a crate. Every drive call is recorded as a span.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    run_phase, set_up, shard_config, Client, Measured, Metric, Opts, PhaseOut, ScratchDir,
    ACCOUNT_SRC, ENTITY, SHARDS,
};
use durable_log::{DurableLog, FaultInjector, LogConfig, Manifest, SnapKind, SnapshotDir};
use state_backend::{decode_snapshot, PartitionState, Snapshot, SnapshotKind, SnapshotStore};
use stateful_entities::{binary, interp, EntityAddr, MethodCall, Value};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Calls pushed through the request-path drives (`core`, `mq`, `durable-log`).
const DRIVE_CALLS: usize = 100_000;
/// Repetitions of the compile-path drives; the metric is their median.
const COMPILE_REPS: usize = 30;
/// Entities dirtied before a delta capture: one epoch's worth of calls
/// (batch 128 × 8 batches) spread over the shards.
const DELTA_DIRTY: usize = 1024 / SHARDS;
/// Seconds of the armed (`racecheck`) closed loop.
const ARMED_SECONDS: f64 = 2.0;

struct Drive<'a> {
    client: &'a Client,
    tracer: &'a mut Tracer,
    out: Vec<Metric>,
}

impl Drive<'_> {
    /// Time `f`, record it as a span, return its result and nanoseconds.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.client.now_ns();
        let value = f();
        let end = self.client.now_ns();
        self.tracer.push(0, name, start, end, 0);
        (value, (end - start) as f64)
    }

    /// Median over `reps` timed runs of `f`, in nanoseconds.
    fn median_ns<T>(&mut self, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let mut ns: Vec<f64> = (0..reps)
            .map(|_| {
                let (value, ns) = self.timed(name, &mut f);
                black_box(value);
                ns
            })
            .collect();
        median(&mut ns)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push(Metric {
            name,
            value,
            samples: 0,
        });
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The bytes the engine's durable tier logs for one call.
fn ingress_record(call_id: u64, call: &MethodCall) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    binary::put_u64(&mut out, call_id);
    binary::put_str(&mut out, ENTITY);
    binary::put_key(&mut out, call.target.key());
    binary::put_u32(&mut out, call.method.as_u32());
    binary::put_u32(&mut out, call.args.len() as u32);
    for arg in &call.args {
        binary::put_value(&mut out, arg);
    }
    out
}

fn compile_path(d: &mut Drive) {
    let ns = d.median_ns("drive.lang.frontend", COMPILE_REPS, || {
        entity_lang::frontend(ACCOUNT_SRC).expect("the Account program type-checks")
    });
    d.put("lang.frontend_us", ns / 1e3);
    let ns = d.median_ns("drive.core.compile", COMPILE_REPS, || {
        stateful_entities::compile(ACCOUNT_SRC).expect("the Account program compiles")
    });
    d.put("core.compile_us", ns / 1e3);
    let ir = &d.client.ir;
    let ns = d.median_ns("drive.core.verify", COMPILE_REPS, || {
        stateful_entities::verify(ir).expect("a compiled IR verifies")
    });
    d.put("core.verify_us", ns / 1e3);
}

fn request_path(d: &mut Drive) -> Vec<MethodCall> {
    let client = d.client;
    let ops = &client.ops[..DRIVE_CALLS.min(client.ops.len())];
    let n = ops.len() as f64;
    let (calls, ns) = d.timed("drive.core.resolve_call", || {
        ops.iter().map(|op| client.to_call(op)).collect::<Vec<_>>()
    });
    d.put("core.resolve_call_ns", ns / n);

    let broker: mq::Broker<MethodCall> = mq::Broker::new();
    broker.create_topic("requests", SHARDS);
    let (_, ns) = d.timed("drive.mq.produce", || {
        for call in &calls {
            broker.produce("requests", call.target.key_hash(), call.clone());
        }
    });
    d.put("mq.produce_ns", ns / n);
    let (polled, ns) = d.timed("drive.mq.poll", || {
        let mut polled = 0usize;
        for partition in 0..SHARDS {
            loop {
                let records = broker.poll("sebench", "requests", partition, 128);
                let Some(last) = records.last() else { break };
                broker.commit("sebench", "requests", partition, last.offset + 1);
                polled += records.len();
            }
        }
        polled
    });
    d.put("mq.poll_ns_per_rec", ns / polled.max(1) as f64);
    calls
}

/// `durable-log` on this workload's call records and snapshot sizes; all
/// zero on an in-memory workload, which never reaches the layer.
fn durable_path(d: &mut Drive, calls: &[MethodCall], m: &Measured, scratch: &ScratchDir) {
    const NAMES: [&str; 6] = [
        "dlog.append_ns",
        "dlog.fsync_us",
        "dlog.snap_put_us_per_mb",
        "dlog.manifest_commit_us",
        "dlog.disk_bytes_per_call",
        "dlog.restart_ms",
    ];
    if !d.client.spec.durable {
        for name in NAMES {
            d.put(name, 0.0);
        }
        return;
    }
    let fault = FaultInjector::new();
    let records: Vec<(u64, Vec<u8>)> = calls
        .iter()
        .take(20_000)
        .enumerate()
        .map(|(i, c)| (c.target.key_hash(), ingress_record(i as u64, c)))
        .collect();
    // Appends alone: a window the drive never fills, so no append syncs.
    let quiet = LogConfig {
        group_commit_window: usize::MAX,
        ..LogConfig::default()
    };
    let mut log = DurableLog::create(&scratch.0.join("drive-log"), SHARDS, quiet, &fault)
        .expect("create drive log");
    let (_, ns) = d.timed("drive.dlog.append", || {
        for (key, payload) in &records {
            log.append(*key, payload).expect("append");
        }
    });
    d.put(NAMES[0], ns / records.len() as f64);
    // One group commit as the service pump issues it: a drain's worth of
    // appends, then one `sync_all`.
    let mut syncs: Vec<f64> = records
        .chunks(64)
        .take(40)
        .map(|chunk| {
            for (key, payload) in chunk {
                log.append(*key, payload).expect("append");
            }
            d.timed("drive.dlog.fsync", || log.sync_all().expect("fsync"))
                .1
        })
        .collect();
    d.put(NAMES[1], median(&mut syncs) / 1e3);

    let snaps = SnapshotDir::open(scratch.0.join("drive-snap"), &fault).expect("open snapshot dir");
    let blob = vec![0x5Eu8; 1 << 20];
    let mut puts: Vec<f64> = (0..8u64)
        .map(|epoch| {
            d.timed("drive.dlog.snap_put", || {
                snaps
                    .put(epoch, 0, SnapKind::Full, &blob)
                    .expect("snapshot put")
            })
            .1
        })
        .collect();
    d.put(NAMES[2], median(&mut puts) / 1e3);
    let mut commits: Vec<f64> = (0..20u64)
        .map(|epoch| {
            let manifest = Manifest {
                sealed_epoch: epoch,
                incarnation: 1,
                shards: SHARDS as u32,
                offsets: vec![epoch; SHARDS],
                files: vec![(0, 0, SnapKind::Full)],
            };
            d.timed("drive.dlog.manifest_commit", || {
                snaps.commit_manifest(&manifest).expect("manifest commit")
            })
            .1
        })
        .collect();
    d.put(NAMES[3], median(&mut commits) / 1e3);
    d.put(NAMES[4], m.written_bytes_per_call);
    d.put(NAMES[5], m.restart_ms);
}

/// `state` on one partition of this workload's entities.
fn state_path(d: &mut Drive) {
    let client = d.client;
    let per_partition = client.addrs.len() / SHARDS;
    let mut partition = PartitionState::new();
    for (i, addr) in client.addrs.iter().take(per_partition).enumerate() {
        let (_, state) =
            interp::instantiate(&client.ir, ENTITY, &client.init_args(&format!("acc{i}")))
                .expect("instantiate an account");
        partition.put(addr.clone(), state);
    }
    let addrs: &[EntityAddr] = &client.addrs[..per_partition];
    let balance = partition
        .get(&addrs[0])
        .and_then(|s| s.layout().slot_of("balance"))
        .expect("Account has a balance field");
    let mut rng = crate::gen::Rng::new(17);
    let touches: Vec<usize> = (0..DRIVE_CALLS)
        .map(|_| rng.below(per_partition as u64) as usize)
        .collect();
    partition.capture_full();
    let (_, ns) = d.timed("drive.state.update", || {
        for (i, &t) in touches.iter().enumerate() {
            partition.update_with(&addrs[t], |s| s.set_slot(balance, Value::Int(i as i64)));
        }
    });
    d.put("state.update_ns", ns / touches.len() as f64);

    let dirty = DELTA_DIRTY.min(per_partition);
    let mut delta_bytes = Vec::new();
    let mut captures: Vec<f64> = (0..10)
        .map(|round| {
            partition.capture_full();
            for &t in touches.iter().skip(round * dirty).take(dirty) {
                partition.update_with(&addrs[t], |s| s.set_slot(balance, Value::Int(round as i64)));
            }
            let (capture, ns) = d.timed("drive.state.capture_delta", || partition.capture_delta());
            delta_bytes = capture.encode();
            ns
        })
        .collect();
    d.put("state.capture_delta_us", median(&mut captures) / 1e3);
    let ns = d.median_ns("drive.state.capture_full", 3, || partition.capture_full());
    d.put("state.capture_full_us", ns / 1e3);

    let full = partition.capture_full();
    let mut bytes = Vec::new();
    let ns = d.median_ns("drive.state.encode", 3, || bytes = full.encode());
    let kib = bytes.len() as f64 / 1024.0;
    d.put("state.encode_ns_per_kb", ns / kib);
    let ns = d.median_ns("drive.state.decode", 3, || {
        decode_snapshot(&bytes).expect("decode what was just encoded")
    });
    d.put("state.decode_ns_per_kb", ns / kib);

    // Sealing one delta epoch into the amortized store, as the coordinator
    // does per shard per epoch.
    let mut store = SnapshotStore::new_amortized(1);
    let snapshot = |epoch, kind, state: &Vec<u8>| Snapshot {
        epoch,
        partition: 0,
        kind,
        state: state.clone(),
        source_offsets: BTreeMap::new(),
    };
    store.add(snapshot(0, SnapshotKind::Full, &bytes));
    let mut adds: Vec<f64> = (1..=10)
        .map(|epoch| {
            let delta = snapshot(epoch, SnapshotKind::Delta, &delta_bytes);
            d.timed("drive.state.store_add", || store.add(delta)).1
        })
        .collect();
    d.put("state.store_add_us", median(&mut adds) / 1e3);
}

/// `shard-runtime` without its front door: pre-submitted calls, one `run()`.
fn batch_run(d: &mut Drive, calls: &[MethodCall], scratch: &ScratchDir) -> Result<f64, String> {
    let client = d.client;
    let dir = client.spec.durable.then(|| scratch.0.join("drive-run"));
    let (mut rt, _) = set_up(client, shard_config(dir.as_deref()))?;
    for call in calls {
        rt.try_submit(call.clone())
            .map_err(|e| format!("batch run: submit: {e}"))?;
    }
    let (report, ns) = d.timed("drive.shard.batch_run", || rt.run());
    let report = report.map_err(|e| format!("batch run: {e}"))?;
    if report.answered() != calls.len() {
        return Err(format!(
            "batch run answered {} of {} calls",
            report.answered(),
            calls.len()
        ));
    }
    Ok(ns / calls.len() as f64)
}

/// The closed loop with `racecheck` armed; `(ns per call, clean)`.
fn armed_run(d: &mut Drive, opts: &Opts) -> Result<(f64, f64), String> {
    let client = d.client;
    let monitor = racecheck::Monitor::armed();
    let mut config = shard_config(None);
    config.monitor = Some(monitor.clone());
    let (mut rt, _) = set_up(client, config)?;
    let mut plan = crate::workload::phase_plans(client.spec, opts)[0];
    plan.measure_ns = (ARMED_SECONDS.min(opts.seconds / 3.0) * 1e9) as u64;
    let start = client.now_ns();
    let out = run_phase(&mut rt, client, &plan, 0, 1, &mut Tracer::new(false))?;
    d.tracer
        .push(0, "drive.race.armed", start, client.now_ns(), 0);
    let clean = if monitor.is_clean() { 1.0 } else { 0.0 };
    Ok((ratio(1e9, out.data.tput_rps()), clean))
}

/// Ratios from the public reports of the three phases.
fn report_ratios(d: &mut Drive, m: &Measured, batch_size: usize) {
    let phases: [(&PhaseOut, [&'static str; 2]); 3] = [
        (
            &m.closed,
            [
                "shard.epochs_per_kcall.closed",
                "shard.snapshot_bytes_per_call.closed",
            ],
        ),
        (
            &m.lo,
            [
                "shard.epochs_per_kcall.lo",
                "shard.snapshot_bytes_per_call.lo",
            ],
        ),
        (
            &m.hi,
            [
                "shard.epochs_per_kcall.hi",
                "shard.snapshot_bytes_per_call.hi",
            ],
        ),
    ];
    for (phase, [epochs, bytes]) in phases {
        let calls = phase.report.answered().max(phase.data.answered as usize) as f64;
        d.put(
            epochs,
            ratio(phase.report.epochs_completed as f64 * 1e3, calls),
        );
        d.put(bytes, ratio(phase.report.snapshot_bytes as f64, calls));
    }

    let r = &m.closed.report;
    let calls = m.closed.data.answered as f64;
    let events: f64 = r.events_per_shard.iter().sum::<u64>() as f64;
    let busiest = r.events_per_shard.iter().copied().max().unwrap_or(0) as f64;
    d.put(
        "shard.batch_fill",
        ratio(calls, r.batches as f64 * batch_size as f64),
    );
    d.put("shard.deferrals_per_call", ratio(r.deferrals as f64, calls));
    d.put(
        "shard.fallbacks_per_kcall",
        ratio(r.adaptive_fallbacks as f64 * 1e3, calls),
    );
    d.put(
        "shard.pipelined_frac",
        ratio(r.pipelined_batches as f64, r.batches as f64),
    );
    d.put("shard.events_per_call", ratio(events, calls));
    d.put(
        "shard.events_skew",
        ratio(busiest * r.events_per_shard.len() as f64, events),
    );
    d.put(
        "shard.xshard_events_per_call",
        ratio(r.cross_shard_events as f64, calls),
    );
    d.put(
        "shard.xshard_flush_fill",
        ratio(r.cross_shard_events as f64, r.cross_shard_batches as f64),
    );
    d.put(
        "shard.hop_frame_bytes_per_xevent",
        ratio(r.hop_frame_bytes as f64, r.cross_shard_events as f64),
    );
    d.put(
        "shard.delta_snapshot_frac",
        ratio(r.delta_snapshots_taken as f64, r.snapshots_taken as f64),
    );
    // The barrier family matters where the pipeline drains often: `lo`.
    let lo = &m.lo.report;
    let epochs = lo.epochs_completed as f64;
    d.put(
        "shard.barrier_wall_us_per_epoch",
        ratio(lo.barrier_wall_ns as f64 / 1e3, epochs),
    );
    d.put(
        "shard.barrier_capture_us_per_epoch",
        ratio(lo.barrier_capture_ns as f64 / 1e3, epochs),
    );
    d.put(
        "shard.off_barrier_frac",
        ratio(lo.encode_off_barrier_bytes as f64, lo.snapshot_bytes as f64),
    );

    let mut submit: Vec<f64> = [&m.closed, &m.lo, &m.hi]
        .iter()
        .flat_map(|p| p.data.submit_ns.iter().copied())
        .collect();
    submit.sort_by(f64::total_cmp);
    let pick = |p| {
        if submit.is_empty() {
            0.0
        } else {
            percentile(&submit, p)
        }
    };
    d.put("svc.submit_ns_p50", pick(50.0));
    d.put("svc.submit_ns_p99", pick(99.0));
    d.put(
        "svc.lat_lo_p99_us",
        m.lo.data.lat_us.quiet_percentile(99.0).unwrap_or(0.0),
    );
    d.put(
        "svc.lat_hi_p99_us",
        m.hi.data.lat_us.quiet_percentile(99.0).unwrap_or(0.0),
    );
    let all = [&m.closed, &m.lo, &m.hi];
    let peak = all
        .iter()
        .map(|p| p.stats.peak_queue_depth)
        .max()
        .unwrap_or(0);
    d.put("svc.peak_queue", peak as f64);
    d.put(
        "svc.shed",
        all.iter().map(|p| p.data.shed).sum::<u64>() as f64,
    );
    let open = [&m.lo, &m.hi];
    let readers: Vec<_> = open.iter().filter_map(|p| p.reads.as_ref()).collect();
    let blocks: usize = readers.iter().map(|r| r.blk_us.samples()).sum();
    let reads = (blocks * crate::workload::READS_PER_BLOCK) as f64;
    let read_us: f64 = readers
        .iter()
        .map(|r| r.blk_us.mean().unwrap_or(0.0) * r.blk_us.samples() as f64)
        .sum();
    d.put("svc.read_ns", ratio(read_us * 1e3, reads));
    let lag: u64 = readers.iter().map(|r| r.staleness_epochs).sum();
    d.put("svc.staleness_epochs_mean", ratio(lag as f64, reads));
    let cdc: u64 = open.iter().map(|p| p.stats.cdc_events).sum();
    let answered: u64 = open.iter().map(|p| p.data.answered).sum();
    d.put(
        "svc.cdc_events_per_call",
        ratio(cdc as f64, answered as f64),
    );
    d.put(
        "svc.cdc_lag_lo_p50_us",
        m.lo.cdc_lag_us.quiet_percentile(50.0).unwrap_or(0.0),
    );
    d.put(
        "svc.cdc_lag_hi_p50_us",
        m.hi.cdc_lag_us.quiet_percentile(50.0).unwrap_or(0.0),
    );

    // The later of the two open-loop phases' generators.
    let late = |p: f64| {
        open.iter()
            .map(|phase| {
                let mut late = phase.data.late_us.clone();
                late.sort_by(f64::total_cmp);
                if late.is_empty() {
                    0.0
                } else {
                    percentile(&late, p)
                }
            })
            .fold(0.0, f64::max)
    };
    d.put("gen.late_p50_us", late(50.0));
    d.put("gen.late_p99_us", late(99.0));
}

/// Every per-layer metric of one traced run, in the order of
/// [`crate::metrics::PER_LAYER`].
pub fn per_layer(
    client: &Client,
    opts: &Opts,
    m: &Measured,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let spec = client.spec;
    let scratch = ScratchDir::new(&format!("{}-drives", spec.name))
        .map_err(|e| format!("scratch dir: {e}"))?;
    let mut d = Drive {
        client,
        tracer,
        out: Vec::new(),
    };
    compile_path(&mut d);
    let calls = request_path(&mut d);
    d.put("core.interp_ns_per_call", m.interp_ns_per_call);
    durable_path(&mut d, &calls, m, &scratch);
    state_path(&mut d);

    let batch_run_ns = batch_run(&mut d, &calls, &scratch)?;
    let closed_ns = ratio(1e9, m.closed.data.tput_rps());
    d.put("shard.batch_run_ns_per_call", batch_run_ns);
    d.put("shard.front_door_ns_per_call", closed_ns - batch_run_ns);
    let batch_size = shard_config(None).batch_size;
    report_ratios(&mut d, m, batch_size);

    let (armed_ns, clean) = if spec.name == "oltp_mem" {
        armed_run(&mut d, opts)?
    } else {
        (0.0, 0.0)
    };
    d.put("race.armed_ns_per_call", armed_ns);
    d.put("race.clean", clean);
    d.put(
        "trace.overhead_frac",
        1.0 - ratio(m.closed.data.tput_rps(), m.untraced_tput_rps.unwrap_or(0.0)),
    );

    // What the closed loop spends per call beyond the layer drives above.
    // The engine runs on three threads, so wall time per call can be below
    // the sum of the layers' CPU time: the residual is reported, not hidden.
    let get = |name: &str| {
        d.out
            .iter()
            .find(|x| x.name == name)
            .map_or(0.0, |x| x.value)
    };
    let snapshot_ns =
        get("shard.snapshot_bytes_per_call.closed") / 1024.0 * get("state.encode_ns_per_kb");
    let layers = get("core.resolve_call_ns")
        + get("svc.submit_ns_p50")
        + get("mq.produce_ns")
        + get("mq.poll_ns_per_rec")
        + get("core.interp_ns_per_call")
        + get("dlog.append_ns")
        + snapshot_ns;
    d.put("shard.residual_ns_per_call", closed_ns - layers);

    let phases = [&m.closed, &m.lo, &m.hi];
    let attempted: u64 = phases.iter().map(|p| p.data.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.data.failed()).sum();
    d.put("fail_frac", ratio(failed as f64, attempted as f64));
    d.put("peak_rss_mb", crate::workload::status_mb("VmHWM:"));
    d.put("samples.lat_lo", m.lo.data.lat_us.samples() as f64);
    d.put("samples.lat_hi", m.hi.data.lat_us.samples() as f64);
    let blocks: usize = [&m.lo, &m.hi]
        .iter()
        .filter_map(|p| p.reads.as_ref())
        .map(|r| r.blk_us.samples())
        .sum();
    d.put("samples.read_blocks", blocks as f64);
    d.put(
        "samples.cdc_probes",
        (m.lo.cdc_lag_us.samples() + m.hi.cdc_lag_us.samples()) as f64,
    );
    Ok(d.out)
}
