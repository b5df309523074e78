//! `sebench` — one open-/closed-loop service benchmark for
//! `ShardRuntime::serve`. See `README.md` for the vocabulary and
//! `/BENCHMARK.json` for the contract the driver runs it under.
//!
//! ```text
//! sebench run   [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! sebench trace [--workload W] [--seed N] [--seconds S]      = run --trace 1
//! sebench check                 1 s phases, correctness checks only
//! sebench aa    [--runs K] [--seed N] [--seconds S]   the suite twice, compared
//! sebench report [--seed N] [--seconds S]     markdown tables for README.md
//! sebench manifest              print /BENCHMARK.json
//! ```
//!
//! The last line `run` prints for a workload is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when a correctness check failed.

mod gen;
mod layers;
mod load;
mod metrics;
mod stats;
mod trace;
mod workload;

use gen::{Spec, SPECS};
use metrics::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::process::ExitCode;
use trace::Tracer;
use workload::{Client, Opts, Outcome};

/// Run one workload once: measure, check, and assemble its metrics.
fn run_one(spec: &'static Spec, opts: &Opts) -> Result<Outcome, String> {
    let client = Client::new(spec, opts.seed)?;
    let mut tracer = Tracer::new(opts.trace);
    let mut problems = Vec::new();
    let m = workload::measure(&client, opts, &mut tracer, &mut problems)?;
    let end_to_end = metrics::end_to_end(&m, &mut problems);
    let per_layer = if opts.trace {
        let per_layer = layers::per_layer(&client, opts, &m, &mut tracer)?;
        let path = workload::run_root().join(format!("trace-{}.jsonl", spec.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{}: {} spans -> {}",
            spec.name,
            tracer.len(),
            path.display()
        );
        per_layer
    } else {
        Vec::new()
    };
    // The result line must name exactly the metrics `/BENCHMARK.json` lists.
    if !end_to_end
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|m| m.name))
    {
        problems.push("the end-to-end metrics differ from metrics::END_TO_END".to_string());
    }
    if opts.trace
        && !per_layer
            .iter()
            .map(|m| m.name)
            .eq(PER_LAYER.iter().map(|m| m.name))
    {
        problems.push("the per-layer metrics differ from metrics::PER_LAYER".to_string());
    }
    for metric in end_to_end.iter().chain(&per_layer) {
        if !metric.value.is_finite() {
            problems.push(format!("{} is not a finite number", metric.name));
        }
    }
    let phases = [&m.closed, &m.lo, &m.hi];
    Ok(Outcome {
        spec,
        correct: problems.is_empty(),
        problems,
        attempted: phases.iter().map(|p| p.data.attempted).sum(),
        failed: phases.iter().map(|p| p.data.failed()).sum(),
        end_to_end,
        per_layer,
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The result line: end-to-end metrics untraced, per-layer metrics traced.
fn result_json(outcome: &Outcome, traced: bool) -> String {
    let shown = if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name,
                unit_of(m.name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Human-readable table on stderr: names, values, units, sample counts.
fn print_table(outcome: &Outcome) {
    eprintln!(
        "== {} ({}){}",
        outcome.spec.name,
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        if outcome.failed > 0 {
            format!(", {} of {} calls failed", outcome.failed, outcome.attempted)
        } else {
            format!(", {} calls, none failed", outcome.attempted)
        }
    );
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        let samples = if m.samples > 0 {
            format!("  (n = {})", m.samples)
        } else {
            String::new()
        };
        eprintln!(
            "  {:<40} {:>16.3} {}{samples}",
            m.name,
            m.value,
            unit_of(m.name)
        );
    }
    for problem in &outcome.problems {
        eprintln!("  PROBLEM: {problem}");
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(out.seconds >= 0.3 && out.seconds <= 600.0) {
                    return Err(bad("between 0.3 and 600 seconds"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--runs" => {
                out.runs = value.parse().map_err(|_| bad("a whole number"))?;
                if out.runs == 0 {
                    return Err(bad("at least 1"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn selected(args: &Args) -> Result<Vec<&'static Spec>, String> {
    match &args.workload {
        None => Ok(SPECS.iter().collect()),
        Some(name) => gen::spec(name).map(|s| vec![s]).ok_or_else(|| {
            let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        }),
    }
}

/// What a child `sebench run --workload W` reported on its result line.
struct ChildRun {
    line: String,
    correct: bool,
    failed_none: bool,
    /// `(name, value)` in the order printed.
    metrics: Vec<(String, f64)>,
}

/// The `(name, value)` pairs of a result line. The line is this program's
/// own output, so a scan for `"name": {"value": v` is all the parsing needed.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    const MARK: &str = "\": {\"value\": ";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(MARK) {
        let name_from = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_from..at].to_string();
        let after = &rest[at + MARK.len()..];
        let end = after.find(',').unwrap_or(after.len());
        if let Ok(value) = after[..end].trim().parse() {
            out.push((name, value));
        }
        rest = &after[end..];
    }
    out
}

/// One workload, one run, in a process of its own — as the driver runs it.
/// A second workload in the same process would inherit the first one's heap,
/// and `setup_rss_mb` with it.
fn run_child(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["run", "--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn sebench run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{} seed {seed}: no result line ({})",
            spec.name, output.status
        )
    })?;
    Ok(ChildRun {
        line: line.to_string(),
        correct: line.contains("\"correct\": true") && output.status.success(),
        failed_none: line.contains("\"failed\": 0,"),
        metrics: parse_metrics(line),
    })
}

/// `run` / `trace`: with `--workload`, measure it in this process and print
/// its result line; without, run each workload in a child process.
fn cmd_run(args: &Args) -> Result<bool, String> {
    let specs = selected(args)?;
    let mut all_correct = true;
    if args.workload.is_some() {
        let opts = Opts {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: false,
        };
        let outcome = run_one(specs[0], &opts)?;
        print_table(&outcome);
        println!("{}", result_json(&outcome, args.trace));
        all_correct = outcome.correct;
    } else {
        for spec in specs {
            let child = run_child(spec, args.seed, args.seconds, args.trace)?;
            println!("{{\"workload\": \"{}\", {}", spec.name, &child.line[1..]);
            all_correct &= child.correct;
        }
    }
    Ok(all_correct)
}

/// `check`: the same code path with 1 s phases and the correctness checks
/// only, and `/BENCHMARK.json` compared with what the metric tables render.
fn cmd_check() -> Result<bool, String> {
    let opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 3.0,
        trace: false,
        quick: true,
    };
    let mut ok = true;
    for spec in &SPECS {
        let outcome = run_one(spec, &opts)?;
        print_table(&outcome);
        ok &= outcome.correct;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    match std::fs::read_to_string(&path) {
        Ok(text) if text == metrics::manifest_json() => eprintln!("BENCHMARK.json: up to date"),
        Ok(_) => {
            eprintln!("BENCHMARK.json differs from `sebench manifest`");
            ok = false;
        }
        Err(e) => eprintln!("BENCHMARK.json not checked: {e}"),
    }
    eprintln!("check: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// One suite: per workload, per end-to-end metric, the values of `runs` runs.
type Suite = Vec<(&'static Spec, Vec<Vec<f64>>)>;

/// Run the suite `runs` times per workload, with seeds `seed..`.
fn run_suite(args: &Args) -> Result<Suite, String> {
    let mut out = Vec::new();
    for spec in selected(args)? {
        let mut per_metric = vec![Vec::new(); END_TO_END.len()];
        for run in 0..args.runs {
            let seed = args.seed + run as u64;
            let child = run_child(spec, seed, args.seconds, false)?;
            if !child.correct || !child.failed_none || child.metrics.len() != END_TO_END.len() {
                return Err(format!(
                    "{} seed {seed}: incorrect, failed calls or metrics missing: {}",
                    spec.name, child.line
                ));
            }
            for (values, (_, value)) in per_metric.iter_mut().zip(&child.metrics) {
                values.push(*value);
            }
        }
        out.push((spec, per_metric));
    }
    Ok(out)
}

/// Fewer runs than this and the quartiles say nothing: the spread is shown
/// but not judged.
const MIN_RUNS_FOR_SPREAD: usize = 8;

/// `aa`: the suite twice on the same code, as the driver does with ten runs
/// each: per end-to-end metric and workload the second median may not be
/// worse than the first by more than the bound, and (except for `setup_s`)
/// the quartile spread of each set must stay within it. This is what
/// calibrates the bounds.
fn cmd_aa(args: &Args) -> Result<bool, String> {
    let first = run_suite(args)?;
    let second = run_suite(args)?;
    let judged = args.runs >= MIN_RUNS_FOR_SPREAD;
    let mut pass = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "worse by", "spread A", "spread B", "bound"
    );
    for ((spec, a), (_, b)) in first.iter().zip(&second) {
        for (def, (a, b)) in END_TO_END.iter().zip(a.iter().zip(b)) {
            let (ma, mb) = (stats::median(&mut a.clone()), stats::median(&mut b.clone()));
            let worse = if def.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let spread = |v: &[f64]| {
                if v.len() >= 2 {
                    stats::quartile_spread(v)
                } else {
                    0.0
                }
            };
            let (sa, sb) = (spread(a), spread(b));
            let spread_ok = !judged || def.name == "setup_s" || sa.max(sb) <= def.bound;
            let ok = worse <= def.bound && spread_ok;
            pass &= ok;
            println!(
                "{:<14} {:<16} {:>14.3} {:>14.3} {:>+8.1}% {:>7.1}% {:>7.1}% {:>5.0}% {}",
                spec.name,
                def.name,
                ma,
                mb,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                def.bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    if !judged {
        println!("(spreads shown, not judged: fewer than {MIN_RUNS_FOR_SPREAD} runs per set)");
    }
    println!("aa: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// `report`: one untraced and one traced run per workload as markdown.
fn cmd_report(args: &Args) -> Result<bool, String> {
    let mut runs = Vec::new();
    for spec in selected(args)? {
        let plain = run_child(spec, args.seed, args.seconds, false)?;
        let traced = run_child(spec, args.seed, args.seconds, true)?;
        if plain.metrics.len() != END_TO_END.len() || traced.metrics.len() != PER_LAYER.len() {
            return Err(format!("{}: a run printed too few metrics", spec.name));
        }
        runs.push((spec, plain, traced));
    }
    let header = |first: &str, last: &str| {
        let names: Vec<&str> = runs.iter().map(|(spec, ..)| spec.name).collect();
        println!("| {first} | unit | {} | {last} |", names.join(" | "));
        println!("|---|---|{}---|", "---:|".repeat(names.len()));
    };
    let row = |label: String, unit: &str, note: &str, values: Vec<f64>| {
        let cells: Vec<String> = values
            .iter()
            .map(|&v| {
                if v.abs() >= 100.0 || v == 0.0 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.3}")
                }
            })
            .collect();
        println!("| {label} | {unit} | {} | {note} |", cells.join(" | "));
    };
    println!(
        "Seed {}, {} s measured per run, {} core(s).\n",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    header("end-to-end metric", "definition (bound)");
    for (i, def) in END_TO_END.iter().enumerate() {
        let note = format!("{} ({:.0} %)", def.what, def.bound * 100.0);
        let values = runs
            .iter()
            .map(|(_, plain, _)| plain.metrics[i].1)
            .collect();
        row(format!("`{}`", def.name), def.unit, &note, values);
    }
    println!();
    header("per-layer metric (layer)", "should move");
    for (i, def) in PER_LAYER.iter().enumerate() {
        let label = format!("`{}` ({})", def.name, def.layer);
        let values = runs
            .iter()
            .map(|(_, _, traced)| traced.metrics[i].1)
            .collect();
        row(label, def.unit, def.moves, values);
    }
    Ok(runs.iter().all(|(_, a, b)| a.correct && b.correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: sebench run|trace|check|aa|report|manifest [flags]; see README.md");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|mut args| match command.as_str() {
        "run" => cmd_run(&args),
        "trace" => {
            args.trace = true;
            cmd_run(&args)
        }
        "check" => cmd_check(),
        "aa" => cmd_aa(&args),
        "report" => cmd_report(&args),
        "manifest" => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sebench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn parse_metrics_reads_back_a_result_line() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.0017, "unit": "s"}, "shard.epochs_per_kcall.lo": {"value": 130, "unit": "count"}, "x": {"value": -1.5e-3, "unit": "1/s"}}}"#;
        let want = [
            ("setup_s", 0.0017),
            ("shard.epochs_per_kcall.lo", 130.0),
            ("x", -0.0015),
        ];
        let got = super::parse_metrics(line);
        assert_eq!(got.len(), want.len());
        for ((name, value), (want_name, want_value)) in got.iter().zip(want) {
            assert_eq!((name.as_str(), *value), (want_name, want_value));
        }
    }
}
