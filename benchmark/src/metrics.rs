//! The benchmark's vocabulary: every end-to-end and per-layer metric by
//! name, unit and direction, the regression bounds, and `/BENCHMARK.json`
//! rendered from those tables (`sebench manifest`), so the file is produced
//! by a command and `sebench check` can tell when the two drift apart.

use crate::gen::SPECS;
use crate::stats::quiet_quartile;
use crate::workload::{Measured, Metric};

/// Measured seconds of one run: three phases of a third each.
pub const RUN_SECONDS: u32 = 21;
pub const DEFAULT_SEED: u64 = 1;
/// The driver appends `--workload W --seed N --seconds S --trace 0|1`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "median over one run's set-ups of compile + construct runtime + load entities + baseline cut",
    },
    EndToEnd {
        name: "tput_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "calls answered per second, closed loop with 256 in flight",
    },
    EndToEnd {
        name: "lat_lo_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "due time to response at the lo rate, median",
    },
    EndToEnd {
        name: "lat_lo_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "due time to response at the lo rate, 95th percentile",
    },
    EndToEnd {
        name: "lat_hi_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "due time to response at the hi rate, median",
    },
    EndToEnd {
        name: "lat_hi_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "due time to response at the hi rate, 95th percentile",
    },
    EndToEnd {
        name: "setup_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        what: "resident set of the process after the last set-up, before any traffic",
    },
    EndToEnd {
        name: "read_p50_ns",
        unit: "ns",
        better: "lower",
        bound: 0.25,
        what: "sealed-view point read: median block time / 100",
    },
    EndToEnd {
        name: "read_blk_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "99th percentile time of a 100-read block (view-swap stalls)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The crate the metric belongs to.
    pub layer: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const SETUP: &str = "setup_s on all";
const REQ: &str = "tput_rps on oltp_mem; not view_large, oltp_durable";
const MQ: &str = "tput_rps on oltp_mem; not view_large";
const DLOG: &str = "tput_rps, lat_* on oltp_durable; zero on the in-memory three";
const STATE: &str =
    "tput_rps, lat_lo_p50_us, cdc_lag_* on view_large, then oltp_mem lat_lo_*; not txn_hot";
const XSHARD: &str = "tput_rps, lat_hi_* on txn_hot; not view_large (zero x-shard events)";
const EPOCH: &str = "lat_lo_*, cdc_lag_* on view_large and oltp_mem (fewer idle barriers: lat_lo down, cdc_lag_lo up)";
const DOOR: &str = "tput_rps on oltp_mem";
const READS: &str = "read_* on view_large";
const FRESH: &str =
    "itself: freshness of sealed-view reads and CDC (not end-to-end: spread 9-21 % run to run)";
const NONE: &str = "none";

pub const PER_LAYER: [PerLayer; 63] = [
    layer("entity-lang", "lang.frontend_us", "us", "lower", SETUP),
    layer("core", "core.compile_us", "us", "lower", SETUP),
    layer("core", "core.verify_us", "us", "lower", SETUP),
    layer("core", "core.resolve_call_ns", "ns", "lower", REQ),
    layer("mq", "mq.produce_ns", "ns", "lower", MQ),
    layer("mq", "mq.poll_ns_per_rec", "ns", "lower", MQ),
    layer("core", "core.interp_ns_per_call", "ns", "lower", REQ),
    layer("durable-log", "dlog.append_ns", "ns", "lower", DLOG),
    layer("durable-log", "dlog.fsync_us", "us", "lower", DLOG),
    layer(
        "durable-log",
        "dlog.snap_put_us_per_mb",
        "us",
        "lower",
        DLOG,
    ),
    layer(
        "durable-log",
        "dlog.manifest_commit_us",
        "us",
        "lower",
        DLOG,
    ),
    layer(
        "durable-log",
        "dlog.disk_bytes_per_call",
        "B",
        "lower",
        DLOG,
    ),
    layer("durable-log", "dlog.restart_ms", "ms", "lower", DLOG),
    layer("state", "state.update_ns", "ns", "lower", STATE),
    layer("state", "state.capture_delta_us", "us", "lower", STATE),
    layer("state", "state.capture_full_us", "us", "lower", STATE),
    layer("state", "state.encode_ns_per_kb", "ns", "lower", STATE),
    layer("state", "state.decode_ns_per_kb", "ns", "lower", STATE),
    layer("state", "state.store_add_us", "us", "lower", STATE),
    layer(
        "shard-runtime",
        "shard.batch_run_ns_per_call",
        "ns",
        "lower",
        DOOR,
    ),
    layer(
        "shard-runtime",
        "shard.front_door_ns_per_call",
        "ns",
        "lower",
        DOOR,
    ),
    layer(
        "shard-runtime",
        "shard.epochs_per_kcall.closed",
        "count",
        "lower",
        EPOCH,
    ),
    layer(
        "shard-runtime",
        "shard.snapshot_bytes_per_call.closed",
        "B",
        "lower",
        EPOCH,
    ),
    layer(
        "shard-runtime",
        "shard.epochs_per_kcall.lo",
        "count",
        "lower",
        EPOCH,
    ),
    layer(
        "shard-runtime",
        "shard.snapshot_bytes_per_call.lo",
        "B",
        "lower",
        EPOCH,
    ),
    layer(
        "shard-runtime",
        "shard.epochs_per_kcall.hi",
        "count",
        "lower",
        EPOCH,
    ),
    layer(
        "shard-runtime",
        "shard.snapshot_bytes_per_call.hi",
        "B",
        "lower",
        EPOCH,
    ),
    layer("shard-runtime", "shard.batch_fill", "ratio", "higher", DOOR),
    layer(
        "shard-runtime",
        "shard.deferrals_per_call",
        "count",
        "lower",
        XSHARD,
    ),
    layer(
        "shard-runtime",
        "shard.fallbacks_per_kcall",
        "count",
        "lower",
        XSHARD,
    ),
    layer(
        "shard-runtime",
        "shard.pipelined_frac",
        "ratio",
        "higher",
        XSHARD,
    ),
    layer(
        "shard-runtime",
        "shard.events_per_call",
        "count",
        "lower",
        XSHARD,
    ),
    layer(
        "shard-runtime",
        "shard.events_skew",
        "ratio",
        "lower",
        XSHARD,
    ),
    layer(
        "shard-runtime",
        "shard.xshard_events_per_call",
        "count",
        "lower",
        XSHARD,
    ),
    layer(
        "shard-runtime",
        "shard.xshard_flush_fill",
        "count",
        "higher",
        XSHARD,
    ),
    layer(
        "shard-runtime",
        "shard.hop_frame_bytes_per_xevent",
        "B",
        "lower",
        XSHARD,
    ),
    layer(
        "shard-runtime",
        "shard.delta_snapshot_frac",
        "ratio",
        "higher",
        EPOCH,
    ),
    layer(
        "shard-runtime",
        "shard.barrier_wall_us_per_epoch",
        "us",
        "lower",
        EPOCH,
    ),
    layer(
        "shard-runtime",
        "shard.barrier_capture_us_per_epoch",
        "us",
        "lower",
        EPOCH,
    ),
    layer(
        "shard-runtime",
        "shard.off_barrier_frac",
        "ratio",
        "higher",
        EPOCH,
    ),
    layer(
        "shard-runtime::service",
        "svc.submit_ns_p50",
        "ns",
        "lower",
        DOOR,
    ),
    layer(
        "shard-runtime::service",
        "svc.submit_ns_p99",
        "ns",
        "lower",
        DOOR,
    ),
    layer(
        "shard-runtime::service",
        "svc.lat_lo_p99_us",
        "us",
        "lower",
        NONE,
    ),
    layer(
        "shard-runtime::service",
        "svc.lat_hi_p99_us",
        "us",
        "lower",
        NONE,
    ),
    layer(
        "shard-runtime::service",
        "svc.peak_queue",
        "count",
        "lower",
        DOOR,
    ),
    layer("shard-runtime::service", "svc.shed", "count", "lower", DOOR),
    layer(
        "shard-runtime::service",
        "svc.read_ns",
        "ns",
        "lower",
        READS,
    ),
    layer(
        "shard-runtime::service",
        "svc.staleness_epochs_mean",
        "count",
        "lower",
        READS,
    ),
    layer(
        "shard-runtime::service",
        "svc.cdc_events_per_call",
        "count",
        "lower",
        READS,
    ),
    layer(
        "shard-runtime::service",
        "svc.cdc_lag_lo_p50_us",
        "us",
        "lower",
        FRESH,
    ),
    layer(
        "shard-runtime::service",
        "svc.cdc_lag_hi_p50_us",
        "us",
        "lower",
        FRESH,
    ),
    layer("harness", "gen.late_p50_us", "us", "lower", NONE),
    layer("harness", "gen.late_p99_us", "us", "lower", NONE),
    layer(
        "racecheck",
        "race.armed_ns_per_call",
        "ns",
        "lower",
        "none disarmed; armed cost is its own row (oltp_mem only)",
    ),
    layer("racecheck", "race.clean", "bool", "higher", NONE),
    layer("harness", "trace.overhead_frac", "ratio", "lower", NONE),
    layer(
        "shard-runtime",
        "shard.residual_ns_per_call",
        "ns",
        "lower",
        DOOR,
    ),
    layer("harness", "fail_frac", "ratio", "lower", NONE),
    layer("harness", "peak_rss_mb", "MB", "lower", NONE),
    layer("harness", "samples.lat_lo", "count", "higher", NONE),
    layer("harness", "samples.lat_hi", "count", "higher", NONE),
    layer("harness", "samples.read_blocks", "count", "higher", NONE),
    layer("harness", "samples.cdc_probes", "count", "higher", NONE),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `/BENCHMARK.json`, in the schema the driver prescribes.
pub fn manifest_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            let why: String = s.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(s.name),
                json_str(&why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// The end-to-end metrics of one run, in the order of [`END_TO_END`]. A
/// statistic without a single sample is a problem, not a zero.
pub fn end_to_end(m: &Measured, problems: &mut Vec<String>) -> Vec<Metric> {
    let mut out = Vec::with_capacity(END_TO_END.len());
    let mut put = |name: &'static str, value: Option<f64>, samples: usize| {
        if value.is_none() {
            problems.push(format!("{name}: no samples"));
        }
        out.push(Metric {
            name,
            value: value.unwrap_or(0.0),
            samples,
        });
    };
    put("setup_s", Some(m.setup_s), 0);
    put(
        "tput_rps",
        Some(m.closed.data.tput_rps()),
        m.closed.data.answered as usize,
    );
    for (phase, [p50, p95]) in [
        (&m.lo, ["lat_lo_p50_us", "lat_lo_p95_us"]),
        (&m.hi, ["lat_hi_p50_us", "lat_hi_p95_us"]),
    ] {
        let lat = &phase.data.lat_us;
        put(p50, lat.quiet_percentile(50.0), lat.samples());
        put(p95, lat.quiet_percentile(95.0), lat.samples());
    }
    put("setup_rss_mb", Some(m.setup_rss_mb), 0);
    // Read blocks of both open-loop phases: the statistic per window, the
    // quiet quartile over all windows.
    let blocks: Vec<_> = [&m.lo, &m.hi]
        .iter()
        .filter_map(|p| p.reads.as_ref().map(|r| &r.blk_us))
        .collect();
    let n_blocks = blocks.iter().map(|b| b.samples()).sum();
    let over_windows = |p: f64| {
        let mut per_window: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.window_percentiles(p))
            .collect();
        (!per_window.is_empty()).then(|| quiet_quartile(&mut per_window, false))
    };
    put(
        "read_p50_ns",
        over_windows(50.0).map(|us| us * 1e3 / crate::workload::READS_PER_BLOCK as f64),
        n_blocks,
    );
    put("read_blk_p99_us", over_windows(99.0), n_blocks);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_manifest_meets_the_drivers_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(SPECS.iter().map(|s| s.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128 && SPECS.len() <= 8);
        for s in &SPECS {
            let why: String = s.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(
                why.len() <= 200,
                "{}: why has {} characters",
                s.name,
                why.len()
            );
        }
        let json = manifest_json();
        assert!(json.len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
